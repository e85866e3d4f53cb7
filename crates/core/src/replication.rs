//! The replica group: one primary, the two trusted counters and the sealed
//! root that survive its crash, and R ≥ 0 replicas behind it — the node
//! type of a [`PrecursorCluster`](crate::cluster::PrecursorCluster) and,
//! with R = 0 and no journal, exactly the bare [`PrecursorServer`].
//!
//! **The root** is the pair the untrusted host holds for the primary: its
//! last committed snapshot ([`PrecursorServer::committed_snapshot`],
//! versioned by the *snapshot counter*) and its journal's [`DurableLog`]
//! (keyed by the *epoch counter*, which every new primary increments). The
//! group keeps no copy of either: a [`restart`](ReplicaGroup::restart)
//! (process crash, disk survives) reads them off the dead primary, a
//! [`fail_primary`](ReplicaGroup::fail_primary) (machine lost) salvages
//! the snapshot and takes the log from a replica.
//!
//! **One log type.** The primary's journal, every replica's copy and what
//! recovery replays are one [`DurableLog`] (bytes, logical start, cut
//! anchor): a replica appends segments ([`DurableLog::append_at`]), is cut
//! where a shipped cut says ([`DurableLog::at_cut`]), is audited
//! ([`DurableLog::agrees_with`]) and is promoted by handing its log to
//! [`PrecursorServer::recover`]; no offset arithmetic lives here.
//!
//! **Replication (R > 0).** The primary's sealed journal (see
//! `crate::server`'s durability stage) is shipped record-group by
//! record-group to the replicas over
//! [`precursor_rdma::replica::ReplicaLink`]s. With a fan-out the journal
//! leaves commit to the group: a flushed group stays uncommitted — every
//! reply WRITE it covers held by the group-commit gate — until a **quorum**
//! of group members (the primary plus acknowledging replicas) holds its
//! bytes. Only then does [`PrecursorServer::commit_journal_bytes`] release
//! the replies. A client therefore never observes a state that a
//! crash-failover could roll back: the at-most-once window the client
//! resynchronises against after failover
//! ([`PrecursorServer::reconnect_client`]) is reconstructed from journal
//! bytes that, by quorum, survive any minority of node failures. With R = 0
//! the journal commits at its own flush and [`pump`](ReplicaGroup::pump) is
//! [`PrecursorServer::poll`] and nothing else.
//!
//! **Compaction** ([`ReplicaGroup::compact`]) seals a snapshot at the
//! committed watermark and truncates the journal prefix behind it
//! (two-phase, see [`PrecursorServer::compact_journal`]). Byte offsets in
//! every frame stay *logical* — they address the epoch's whole record
//! stream, not the surviving suffix — so acknowledgements, flush marks and
//! the commit watermark are untouched by a cut. Replicas hold what the
//! primary holds: each cut reaches every live replica as one
//! `FRAME_SNAPSHOT` of the manifest and the parts its root lacks; the
//! replica validates the rebuilt cut (`snapshot::rebuild`, never above the
//! trusted counter) and cuts its log there, at the sealed `journal_chain`.
//! One that refuses a cut while behind it gets a peer's root and log tail
//! as the same frames on its own link: no replica state moves otherwise.
//!
//! **Failover** ([`ReplicaGroup::fail_primary`]) is deterministic: among
//! alive, non-quarantined replicas the one holding the longest journal
//! coverage is promoted — its bytes are replayed through
//! [`PrecursorServer::recover`], which re-derives the store evidence
//! (mutation sequence + running state digest) record by record and rejects
//! any journal that diverges from the history it claims
//! ([`StoreError::ForkDetected`]). The promoted node opens a fresh journal
//! epoch (sealed under a new epoch key drawn from the trusted monotonic
//! counter), so bytes from the dead primary's epoch can never be replayed
//! into the new one. `fail_primary(batch)` drains `batch` queued records
//! per [`pump`](ReplicaGroup::pump): the survivor answers reads
//! immediately from its applied prefix (never beyond its verified
//! watermark — mutations answer `Busy`) while the catch-up queue drains in
//! the background and `replica.lag_records` converges to 0;
//! `usize::MAX` drains before returning.
//!
//! **The host's hold on a replica** (its link and journal copy) is the
//! primary host's [`HostSite::Replica`], one event per replica per pump
//! that plan rules reach; [`host_move`](ReplicaGroup::host_move) makes a
//! move there at once. Every replica fault lands in that host's log.
//!
//! **Rollback & fork detection.** Every acknowledgement a replica sends is
//! remembered as its *claimed* durability. A replica later presenting a
//! shorter journal than it acknowledged has staged a rollback — it is
//! quarantined at failover ([`StoreError::RollbackDetected`]) and never
//! promoted. Divergent journal prefixes across replicas (a forked primary
//! shipping different histories to different replicas) are caught by
//! [`ReplicaGroup::audit_replicas`]; a stale-but-honest promotion (a true
//! minority-loss rollback, possible only when quorum was already lost) is
//! reported as `stale` in the [`FailoverReport`] and is exactly what the
//! clients' own `max_store_seq` rollback check (PR-2) detects after
//! reconnecting.

use std::cmp::Reverse;

use precursor_crypto::gcm::GcmKey;
use precursor_obs::MetricsRegistry;
use precursor_rdma::host::{HostFilter, HostMove, HostPlan, HostSite};
use precursor_rdma::replica::ReplicaLink;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::CostModel;

use crate::config::Config;
use crate::error::StoreError;
use crate::server::{CompactOutcome, PrecursorServer, RecoveryReport};
use crate::snapshot::{self, SnapshotBlob};
use precursor_journal::{DurableLog, GroupCommitPolicy, Journal};

// Frames are a tag, little-endian words, then a body: `SEGMENT | offset |
// last seq | journal bytes` and `SNAPSHOT | cut | base seq | version | held
// | framed manifest ‖ chain parts past the first held` to a replica, and
// `ACK | log end | last seq | root version | newest cut version taken`.
const FRAME_SEGMENT: u8 = 0x01;
const FRAME_ACK: u8 = 0x02;
const FRAME_SNAPSHOT: u8 = 0x03;

fn frame(tag: u8, words: &[u64], body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(1 + 8 * words.len() + body.len());
    frame.push(tag);
    words.iter().for_each(|w| frame.extend(w.to_le_bytes()));
    frame.extend_from_slice(body);
    frame
}

// A frame's first `N` words, `None` when it is shorter.
fn words<const N: usize>(frame: &[u8]) -> Option<[u64; N]> {
    let mut words = [0; N];
    for (i, word) in words.iter_mut().enumerate() {
        *word = u64::from_le_bytes(frame.get(1 + 8 * i..9 + 8 * i)?.try_into().ok()?);
    }
    Some(words)
}

// What `log` (through record `last_seq`) ships to a replica acknowledged
// up to `acked`: its cut when given — root version, root, and the cut the
// replica holds, whose parts the root carries stay home — then its bytes
// past both.
type Cut<'a> = Option<(u64, &'a SnapshotBlob, Option<&'a SnapshotBlob>)>;
fn frames(log: &DurableLog, last_seq: u64, acked: u64, cut: Cut) -> [Option<Vec<u8>>; 2] {
    let cut = cut.map(|(version, root, held)| {
        let held = held.map_or(0, |held| root.carried_from(held));
        let words = [log.trimmed(), log.base_seq(), version, held as u64];
        let mut out = frame(FRAME_SNAPSHOT, &words, &[]);
        root.append_shipped(held, &mut out);
        out
    });
    let from = acked.max(log.trimmed());
    let tail = log.bytes().get((from - log.trimmed()) as usize..);
    let tail = tail.filter(|tail| !tail.is_empty());
    let segment = tail.map(|tail| frame(FRAME_SEGMENT, &[from, last_seq], tail));
    [cut, segment]
}

// One replica's state as tracked by the group: the link to it, its
// journal copy and root, and the durability it has acknowledged/claimed.
#[derive(Debug, Default)]
struct Replica {
    link: ReplicaLink,
    // The replica's journal copy: appended from segments and cut where an
    // adopted cut says, anchored at the *validated* manifest, never the wire.
    log: DurableLog,
    // The last cut it adopted, at the counter version it validated at, and
    // the newest cut version it took a frame of, adopted or refused.
    root: Option<(u64, SnapshotBlob)>,
    seen: u64,
    // At the primary: the logical bytes and newest cut it acknowledged
    // taking, and the shipped cut it acknowledged holding.
    acked: u64,
    acked_seen: u64,
    acked_root: Option<SnapshotBlob>,
    // Highest acknowledgement it ever made — rollback evidence: a replica
    // whose log ever ends short of `claimed` staged a rollback.
    claimed: u64,
    // Journal record sequence at the last shipped segment it applied.
    last_seq: u64,
    // Quarantined replicas (staged rollback detected) receive no frames
    // and are never promoted.
    quarantined: bool,
}

impl Replica {
    // Takes a cut frame: validates the cut, rebuilt behind its root's parts,
    // at the frame's version (never above `counter`) and its sealed epoch
    // and watermark, then cuts its log there, keeping its own suffix.
    // Whether it adopted it (not one no newer than its root); `None`: refused.
    fn take_cut(&mut self, frame: &[u8], key: &GcmKey, counter: u64, epoch: u64) -> Option<bool> {
        let [cut, base_seq, version, held] = words(frame).filter(|w| w[2] <= counter)?;
        self.seen = self.seen.max(version);
        if self.root.as_ref().is_some_and(|(at, _)| *at >= version) {
            return Some(false);
        }
        let own = self.root.as_ref().map(|(_, root)| root);
        let rebuilt = snapshot::rebuild(key, version, own, held as usize, &frame[33..]).ok();
        let (header, root) =
            rebuilt.filter(|(h, _)| h.journal_epoch == epoch && h.journal_seq == base_seq)?;
        let mut log = DurableLog::at_cut(cut, base_seq, header.journal_chain);
        let from = self.log.trimmed().max(cut);
        if let Some(suffix) = self.log.bytes().get((from - self.log.trimmed()) as usize..) {
            log.append_at(from, suffix);
        }
        self.log = log;
        self.root = Some((version, root));
        self.last_seq = self.last_seq.max(base_seq);
        Some(true)
    }
}

// The `k`-th largest of `values` (1-based, repeats counted), `None` when
// there are fewer than `k`: quadratic in a group's handful of members, and
// it allocates nothing.
fn kth_largest(values: impl Iterator<Item = u64> + Clone, k: usize) -> Option<u64> {
    values
        .clone()
        .filter(|&v| values.clone().filter(|&x| x >= v).count() >= k)
        .max()
}

/// A deliberately seeded protocol bug for the model checker's self-test:
/// each variant breaks one invariant the explorer asserts, proving the
/// checker actually detects violations (and emits a replayable
/// counterexample) rather than vacuously passing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolBug {
    /// Failover promotes the first alive replica regardless of its journal
    /// coverage and reports the promotion as non-stale — acknowledged
    /// (quorum-committed) state can silently roll back.
    PromoteWithoutQuorum,
    /// Failover skips the staged-rollback quarantine scan, so a replica
    /// that presented less than it acknowledged stays promotable.
    SkipRollbackQuarantine,
}

/// Outcome of a [`ReplicaGroup::fail_primary`] failover.
#[derive(Debug)]
pub struct FailoverReport {
    /// Index (pre-failover) of the replica that was promoted.
    pub promoted: usize,
    /// Replicas quarantined during candidate selection (staged rollback:
    /// their journal is shorter than what they acknowledged).
    pub quarantined: Vec<usize>,
    /// What recovery replayed on the promoted node.
    pub recovery: RecoveryReport,
    /// Whether the promoted journal is shorter than the quorum-committed
    /// watermark — possible only after losing a majority, and exactly the
    /// rollback clients detect via their `max_store_seq` check.
    pub stale: bool,
}

// Group pumps the migration fence waits for its installs to reach quorum.
const COMMIT_PUMPS: usize = 64;

/// One primary, its two trusted counters, an optional journal and R ≥ 0
/// replicas with quorum group commit. See the [module docs](self).
#[derive(Debug)]
pub struct ReplicaGroup {
    cost: CostModel,
    primary: PrecursorServer,
    replicas: Vec<Replica>,
    // Trusted monotonic counters: snapshot rollback protection and the
    // journal epoch designation (recovery reads, every new primary
    // increments).
    snap_counter: MonotonicCounter,
    epoch_counter: MonotonicCounter,
    // The journal's group-commit policy once durability is on: a promoted
    // or restarted primary re-attaches under it.
    policy: Option<GroupCommitPolicy>,
    // The epoch's last `Compacted` cut and its version, as the host holds
    // it to ship: it shares the primary's committed parts, and tampering
    // with it (`rewrite_compacted_snapshot`) leaves the recovery root
    // alone. Its offset and watermark are the primary log's cut.
    ship: Option<(u64, SnapshotBlob)>,
    committed_bytes: u64,
    // Catching-up primary: records per pump to drain from its queue, and
    // whether the new epoch's base snapshot is still owed (sealed once
    // catch-up drains, so it captures the complete state).
    catchup_batch: usize,
    pending_base_snapshot: bool,
    catchup_error: Option<StoreError>,
    bug: Option<ProtocolBug>,
    metrics: MetricsRegistry,
}

impl ReplicaGroup {
    /// The bare server: no journal, no replicas. Every observable of its
    /// primary is a standalone [`PrecursorServer`]'s.
    pub fn new(config: Config, cost: &CostModel) -> ReplicaGroup {
        ReplicaGroup {
            cost: cost.clone(),
            primary: PrecursorServer::new(config, cost),
            replicas: Vec::new(),
            snap_counter: MonotonicCounter::new(),
            epoch_counter: MonotonicCounter::new(),
            policy: None,
            ship: None,
            committed_bytes: 0,
            catchup_batch: 0,
            pending_base_snapshot: false,
            catchup_error: None,
            bug: None,
            metrics: MetricsRegistry::default(),
        }
    }

    /// A journaled primary with `replicas` healthy replicas behind it. The
    /// quorum is a majority of the `replicas + 1` group members (the
    /// primary votes for its own durable bytes). Connect clients against
    /// [`primary_mut`](Self::primary_mut) *after* construction so their
    /// sessions and mutations are journaled.
    pub fn with_replicas(
        config: Config,
        cost: &CostModel,
        replicas: usize,
        policy: GroupCommitPolicy,
    ) -> ReplicaGroup {
        let mut group = ReplicaGroup::new(config, cost);
        group.replicas = (0..replicas).map(|_| Replica::default()).collect();
        group.enable_durability(policy);
        group
    }

    /// Attaches a sealed journal to the primary under a fresh epoch of the
    /// group's own counter (see [`PrecursorServer::attach_journal`]) and
    /// returns that epoch. Call before connecting clients.
    pub fn enable_durability(&mut self, policy: GroupCommitPolicy) -> u64 {
        self.policy = Some(policy);
        self.open_epoch().expect("policy just set")
    }

    // Opens a fresh journal epoch on the current primary, fan-out over the
    // current replicas; `None` while the group keeps no journal.
    fn open_epoch(&mut self) -> Option<u64> {
        let epoch = self
            .primary
            .attach_journal(self.policy?, &mut self.epoch_counter);
        self.primary.set_replication_fanout(self.replicas.len());
        Some(epoch)
    }

    /// The current primary.
    pub fn primary(&self) -> &PrecursorServer {
        &self.primary
    }

    /// Mutable access to the current primary (clients connect and rings
    /// are driven through it).
    pub fn primary_mut(&mut self) -> &mut PrecursorServer {
        &mut self.primary
    }

    /// Number of replicas (including crashed/quarantined ones).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The commit quorum (number of group members, primary included, that
    /// must hold a journal byte before its replies release): a majority of
    /// the members the current epoch started with.
    pub fn quorum(&self) -> usize {
        let members = self.replicas.len() + 1;
        members / 2 + 1
    }

    /// The trusted snapshot counter: its value is the version of the last
    /// committed snapshot, the only one [`PrecursorServer::restore`]
    /// accepts.
    pub fn snapshot_counter(&self) -> &MonotonicCounter {
        &self.snap_counter
    }

    /// Journal bytes committed by quorum so far this epoch (logical
    /// offsets — compaction does not move them). Stays 0 without
    /// replicas: the journal then commits at its own flush.
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// Replica `i`'s journal copy: its bytes, the logical offset they
    /// start at (past 0 once it adopted a cut, which is its anchor) and its
    /// logical end — its coverage.
    pub fn replica_log(&self, i: usize) -> &DurableLog {
        &self.replicas[i].log
    }

    /// Replica `i`'s root: the last cut it adopted, with the counter
    /// version it validated at.
    pub fn replica_root(&self, i: usize) -> Option<&(u64, SnapshotBlob)> {
        self.replicas[i].root.as_ref()
    }

    /// The link to replica `i`: its mode and delivery counters.
    pub fn replica_link(&self, i: usize) -> &ReplicaLink {
        &self.replicas[i].link
    }

    /// Whether replica `i` is quarantined (staged rollback detected).
    pub fn replica_quarantined(&self, i: usize) -> bool {
        self.replicas[i].quarantined
    }

    /// Whether replica `i` currently presents less coverage than it ever
    /// acknowledged — the staged-rollback evidence the failover quarantine
    /// scan acts on (exposed so the model checker can assert the scan
    /// actually quarantines every such replica).
    pub fn replica_rolled_back(&self, i: usize) -> bool {
        self.replicas[i].log.end() < self.replicas[i].claimed
    }

    /// Group-level metrics: `failover.count`,
    /// `replica.rollback_detected`, `replica.compact_ships` and
    /// `replica.snapshot_rejected` (cuts adopted and refused),
    /// `replica.repairs` (peer repairs sent), `replica.catchup_errors`, and
    /// the `replica.lag_records` gauge (journal records the slowest live
    /// replica — or a catching-up promoted primary — trails by).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The primary's host (an empty one if it has none) makes `mv` at
    /// replica `i`'s [`HostSite::Replica`], applied and logged before this
    /// returns: `Link(mode)` sets its link's mode, `Rollback` keeps a third
    /// of its journal bytes while its acknowledgements stand (the staged
    /// rollback [`fail_primary`](Self::fail_primary) quarantines), `Tamper`
    /// flips `0x40` in its log's middle byte (a fork
    /// [`audit_replicas`](Self::audit_replicas) catches).
    pub fn host_move(&mut self, i: usize, mv: HostMove) {
        if self.primary.host().is_none() {
            self.primary.set_host_plan(HostPlan::none(), 0);
        }
        if let Some(mut host) = self.primary.host() {
            host.arm(HostSite::Replica, HostFilter::Replica(i as u32), mv);
        }
        self.host_event(i);
    }

    // Replica `i`'s event at the primary's host: the move the host makes
    // on that machine, applied.
    fn host_event(&mut self, i: usize) {
        let mv = self.primary.host().and_then(|mut h| h.on_replica(i as u32));
        let r = &mut self.replicas[i];
        match mv {
            Some(HostMove::Link(mode)) => r.link.set_mode(mode),
            Some(HostMove::Rollback) => {
                let keep = r.log.bytes().len() / 3;
                r.log.bytes_mut().truncate(keep);
                r.acked = r.acked.min(r.log.end());
                r.last_seq = 0;
            }
            Some(HostMove::Tamper) => {
                let log = r.log.bytes_mut();
                let mid = log.len() / 2;
                if let Some(b) = log.get_mut(mid) {
                    *b ^= 0x40;
                }
            }
            _ => {}
        }
    }

    /// Adversarial hook: lets the host rewrite the *shipped* compacted
    /// snapshot at will — splice in a delta of an older chain, swap two
    /// deltas, truncate — without touching the primary's own
    /// recovery root. No-op before the first compaction. A layout-aware
    /// rewrite of the cut's chain, so not (yet) a [`HostMove`].
    pub fn rewrite_compacted_snapshot(&mut self, rewrite: impl FnOnce(&mut Vec<u8>)) {
        if let Some((_, ship)) = self.ship.as_mut() {
            let mut blob = ship.to_vec();
            rewrite(&mut blob);
            *ship = SnapshotBlob::from(blob);
        }
    }

    /// Seeds a deliberate protocol bug (model-checker self-test hook).
    pub fn seed_protocol_bug(&mut self, bug: ProtocolBug) {
        self.bug = Some(bug);
    }

    /// Seals the primary's current state as the new recovery root (see
    /// [`PrecursorServer::snapshot`]) — the only durability of a group
    /// without a journal, and the base of every new journal epoch.
    pub fn checkpoint(&mut self) {
        let _ = self.primary.snapshot(&mut self.snap_counter);
    }

    /// Compacts the primary's journal behind the committed watermark (see
    /// [`PrecursorServer::compact_journal`] for the two-phase
    /// seal/commit/truncate and its crash points). A committed cut is the
    /// recovery root from then on — also when the truncate never happened
    /// ([`CompactOutcome::Wedged`]) — and, with replicas, a `Compacted`
    /// cut is shipped to each of them.
    pub fn compact(&mut self) -> CompactOutcome {
        self.compact_via(|_, _| {})
    }

    /// Adversarial hook: [`compact`](Self::compact) with the untrusted
    /// host's write of the tentative cut in the caller's hands (see
    /// [`PrecursorServer::compact_journal_via`]). Like
    /// [`rewrite_compacted_snapshot`](Self::rewrite_compacted_snapshot), a
    /// rewrite of the cut's chain, so not (yet) a [`HostMove`].
    pub fn compact_via(
        &mut self,
        host_write: impl FnOnce(&mut SnapshotBlob, &[std::ops::Range<usize>]),
    ) -> CompactOutcome {
        let outcome = self
            .primary
            .compact_journal_via(&mut self.snap_counter, host_write);
        if let (CompactOutcome::Compacted { .. }, false) = (&outcome, self.replicas.is_empty()) {
            let root = self.primary.committed_snapshot();
            let version = self.snap_counter.read();
            self.ship = Some((version, root.expect("a cut just committed").clone()));
        }
        outcome
    }

    // A server recovered from the root as the host holds it right now: the
    // primary's committed snapshot plus its durable journal suffix, fully
    // replayed.
    fn recover_primary(&self) -> Result<(PrecursorServer, RecoveryReport), StoreError> {
        let p = &self.primary;
        let root = p.committed_snapshot().map(SnapshotBlob::to_vec);
        let (mut server, report) = PrecursorServer::recover(
            p.config().clone(),
            &self.cost,
            root.as_deref(),
            &self.snap_counter,
            p.journal().map_or(&DurableLog::default(), Journal::log),
            &self.epoch_counter,
        )?;
        server.catchup_step(usize::MAX)?;
        Ok((server, report))
    }

    /// Recovers a throwaway server from the group's current root and
    /// returns its state digest — lets tests and the model checker assert
    /// that compaction (including a crash between snapshot-seal and
    /// truncate) never changes what recovery reconstructs.
    ///
    /// # Errors
    ///
    /// Propagates [`PrecursorServer::recover`] and replay failures.
    pub fn probe_recovery(&self) -> Result<[u8; 16], StoreError> {
        Ok(self.recover_primary()?.0.state_digest())
    }

    /// Process crash, disk survives: the primary is rebuilt from the
    /// group's own root — a torn journal tail truncated, never replayed —
    /// and takes over under a fresh journal epoch with a freshly sealed
    /// base snapshot. Clients must
    /// [`reconnect`](crate::PrecursorClient::reconnect) (in ascending id
    /// order); the untrusted host is not carried over.
    ///
    /// # Errors
    ///
    /// Propagates [`PrecursorServer::recover`] and replay failures; the
    /// group is unchanged then.
    pub fn restart(&mut self) -> Result<RecoveryReport, StoreError> {
        let (server, report) = self.recover_primary()?;
        self.adopt(server, None);
        Ok(report)
    }

    // Makes everything the primary has journaled durable and committed —
    // flushed at R = 0, pumped to quorum at R > 0 — and says whether it
    // is. A migration fence calls it between installing a range at this
    // group and flipping the ring. Trivially true without a journal.
    pub(crate) fn commit_journal(&mut self) -> bool {
        let settled = |p: &PrecursorServer| {
            p.journal_wedged()
                || p.journal_committed_seq() >= p.journal().map_or(0, Journal::last_seq)
        };
        self.primary.flush_journal();
        for _ in 0..COMMIT_PUMPS {
            if settled(&self.primary) {
                break;
            }
            self.pump();
        }
        settled(&self.primary) && !self.primary.journal_wedged()
    }

    /// Quorum-durable logical byte count computed from the nodes' *actual*
    /// journal coverage (never from acknowledgements) — the model
    /// checker's ground truth for the acked-implies-quorum-durable
    /// invariant.
    pub fn quorum_durable_bytes(&self) -> u64 {
        let primary = self.primary.journal().map_or(0, |j| j.log().end());
        let ends = self.replicas.iter().map(|r| r.log.end());
        kth_largest(ends.chain([primary]), self.quorum()).unwrap_or(0)
    }

    /// The first catch-up replay error, if a promotion's background drain
    /// hit one (fork evidence divergence).
    pub fn catchup_error(&self) -> Option<StoreError> {
        self.catchup_error
    }

    /// One group tick: a catch-up step (if a promoted primary is still
    /// draining), a primary sweep, each replica's event at the host,
    /// segment/snapshot shipping, link pumps in both directions, replica
    /// acknowledgement processing, and the quorum commit that releases
    /// gated replies. Returns the number of requests the primary sweep
    /// processed. Without replicas and outside catch-up it is the primary's
    /// [`poll`](PrecursorServer::poll) and nothing else.
    pub fn pump(&mut self) -> usize {
        if self.replicas.is_empty() && !self.pending_base_snapshot {
            return self.primary.poll();
        }
        // Background catch-up after a promotion: drain a batch before
        // serving, then seal the deferred epoch-base snapshot once the
        // queue is empty (it must capture the fully caught-up state).
        if self.primary.in_catchup() {
            let batch = self.catchup_batch.max(1);
            if let Err(e) = self.primary.catchup_step(batch) {
                self.catchup_error.get_or_insert(e);
                self.metrics.inc("replica.catchup_errors", 1);
            }
        }
        if self.pending_base_snapshot && !self.primary.in_catchup() {
            self.checkpoint();
            self.pending_base_snapshot = false;
        }

        let processed = self.primary.poll();
        for i in 0..self.replicas.len() {
            self.host_event(i);
        }

        // Ship each live replica the epoch's last cut until it acknowledges
        // taking it, and every logical byte past the cut it has not
        // acknowledged — re-shipped until acknowledged, so loss under
        // partitions self-repairs: a replica appends only what it lacks.
        let empty = DurableLog::default();
        let log = self.primary.journal().map_or(&empty, Journal::log);
        let (trimmed, durable_end) = (log.trimmed(), log.end());
        let last_seq = self.primary.journal().map_or(0, Journal::last_seq);
        let epoch = self.primary.journal().map_or(0, Journal::epoch);
        let live = |r: &Replica| r.link.is_alive() && !r.quarantined;
        for i in 0..self.replicas.len() {
            let r = &self.replicas[i];
            let frames = match &self.ship {
                _ if !live(r) => continue,
                // A replica that refused the cut while acknowledged behind
                // it: the live peer acknowledged furthest that holds a root
                // repairs it with that root and its log past the cut or the
                // receiver's coverage.
                Some((version, _)) if r.acked_seen >= *version && r.acked < trimmed => {
                    let ahead = |d: &&Replica| live(d) && d.acked > r.acked;
                    let donors = self.replicas.iter().filter(ahead);
                    let donors = donors.filter_map(|d| Some((d, d.root.as_ref()?)));
                    let Some((d, (at, root))) = donors.max_by_key(|(d, _)| d.acked) else {
                        continue;
                    };
                    self.metrics.inc("replica.repairs", 1);
                    frames(&d.log, d.last_seq, r.acked, Some((*at, root, None)))
                }
                ship => {
                    let cut = ship.as_ref().filter(|(version, _)| r.acked_seen < *version);
                    let cut = cut.map(|(version, ship)| (*version, ship, r.acked_root.as_ref()));
                    frames(log, last_seq, r.acked, cut)
                }
            };
            for frame in frames.iter().flatten() {
                self.replicas[i].link.send_to_replica(frame);
            }
        }

        // Deliver segments and cuts, apply them at the replicas, send and
        // deliver acknowledgements. The sealing key and counter versions
        // every enclave derives are identical (same attestation root), so
        // replicas validate shipped cuts exactly as their own recovery
        // would.
        let counter = self.snap_counter.read();
        let mut key = None;
        for r in &mut self.replicas {
            r.link.pump();
            let mut acked_any = false;
            while let Some(frame) = r.link.recv_at_replica() {
                match frame.first().copied() {
                    Some(FRAME_SEGMENT) => {
                        let Some([offset, seq]) = words(&frame) else {
                            continue;
                        };
                        if r.log.append_at(offset, &frame[17..]) {
                            r.last_seq = seq;
                        }
                    }
                    Some(FRAME_SNAPSHOT) => {
                        let key =
                            key.get_or_insert_with(|| GcmKey::new(&self.primary.sealing_key()));
                        match r.take_cut(&frame, key, counter, epoch) {
                            Some(true) => self.metrics.inc("replica.compact_ships", 1),
                            Some(false) => {}
                            None => self.metrics.inc("replica.snapshot_rejected", 1),
                        }
                    }
                    _ => continue,
                }
                acked_any = true;
            }
            if acked_any {
                let root = r.root.as_ref().map_or(0, |(version, _)| *version);
                let words = [r.log.end(), r.last_seq, root, r.seen];
                r.link.send_to_primary(&frame(FRAME_ACK, &words, &[]));
            }
            r.link.pump();
            while let Some(ack) = r.link.recv_at_primary() {
                let (Some(&FRAME_ACK), Some([end, _, root, seen])) = (ack.first(), words(&ack))
                else {
                    continue;
                };
                r.acked = r.acked.max(end);
                r.claimed = r.claimed.max(end);
                r.acked_seen = r.acked_seen.max(seen);
                let ship = self.ship.iter().find(|s| s.0 == root);
                if let Some((_, ship)) = ship.filter(|s| r.acked_root.as_ref() != Some(&s.1)) {
                    r.acked_root = Some(ship.clone());
                }
            }
        }

        // Quorum commit: the primary holds all durable bytes; a logical
        // byte is committed once `quorum - 1` replicas acknowledged it.
        // (A primary promoted with no survivor commits at its own flush.)
        if !self.replicas.is_empty() {
            let acks = self.replicas.iter().map(|r| r.acked);
            let acked = kth_largest(acks, self.quorum() - 1).expect("quorum ≤ members");
            self.committed_bytes = self.committed_bytes.max(acked.min(durable_end));
            self.primary.commit_journal_bytes(self.committed_bytes);
        }

        let ship_lag = self
            .replicas
            .iter()
            .filter(|r| r.link.is_alive() && !r.quarantined)
            .map(|r| last_seq.saturating_sub(r.last_seq))
            .max()
            .unwrap_or(0);
        let lag = ship_lag.max(self.primary.catchup_remaining() as u64);
        self.metrics.gauge_set("replica.lag_records", lag);
        processed
    }

    /// Cross-replica fork audit: any two replicas' journals must agree on
    /// the overlap of their logical coverage (the journal is MAC-chained,
    /// so byte equality is history equality — a forked primary shipping
    /// divergent histories cannot produce two replicas that agree).
    ///
    /// # Errors
    ///
    /// [`StoreError::ForkDetected`] on the first divergent pair.
    pub fn audit_replicas(&self) -> Result<(), StoreError> {
        for (a, ra) in self.replicas.iter().enumerate() {
            if self.replicas[a + 1..]
                .iter()
                .any(|rb| !ra.log.agrees_with(&rb.log))
            {
                return Err(StoreError::ForkDetected);
            }
        }
        Ok(())
    }

    /// Deterministic failover after the primary's machine is lost:
    /// quarantines replicas whose journal rolled back behind their own
    /// acknowledgements, promotes the longest-coverage survivor through
    /// [`PrecursorServer::recover`], opens a fresh journal epoch on it,
    /// and rebuilds the replication fan-out over the remaining survivors
    /// (their journals reset — the new epoch starts from the promoted
    /// state's snapshot). Clients must
    /// [`reconnect`](crate::PrecursorClient::reconnect) (in ascending id
    /// order) and resynchronise their `oid` from the bundle.
    ///
    /// The survivor serves reads at once from its applied prefix
    /// (mutations answer `Busy`) while every [`pump`](Self::pump) applies
    /// up to `batch` queued records until the tail drains; the new epoch's
    /// base snapshot is sealed only then, so it captures the full state,
    /// and the `replica.lag_records` gauge tracks the remaining queue.
    /// `usize::MAX` drains before returning.
    ///
    /// # Errors
    ///
    /// [`StoreError::RollbackDetected`] when every surviving replica is
    /// quarantined; [`StoreError::SessionLost`] when no replica survives at
    /// all (always, at R = 0); [`StoreError::ForkDetected`] when the
    /// promoted journal's replay evidence diverges from what its records
    /// sealed.
    pub fn fail_primary(&mut self, batch: usize) -> Result<FailoverReport, StoreError> {
        self.metrics.inc("failover.count", 1);

        // Staged-rollback quarantine: a replica presenting fewer bytes
        // than it acknowledged lied about durability.
        let mut quarantined = Vec::new();
        if self.bug != Some(ProtocolBug::SkipRollbackQuarantine) {
            for (i, r) in self.replicas.iter_mut().enumerate() {
                if !r.quarantined && r.log.end() < r.claimed {
                    r.quarantined = true;
                    quarantined.push(i);
                }
            }
        }
        if !quarantined.is_empty() {
            self.metrics
                .inc("replica.rollback_detected", quarantined.len() as u64);
        }

        // The first of the longest coverage among the alive, unquarantined.
        let alive = self.replicas.iter().filter(|r| r.link.is_alive());
        let live = |(_, r): &(usize, &Replica)| r.link.is_alive() && !r.quarantined;
        let mut candidates = self.replicas.iter().enumerate().filter(live);
        let candidate = match self.bug {
            // Seeded bug: first alive wins regardless of coverage.
            Some(ProtocolBug::PromoteWithoutQuorum) => candidates.next(),
            _ => candidates.min_by_key(|(_, r)| Reverse(r.log.end())),
        };
        let Some((promoted, _)) = candidate else {
            return Err(match alive.count() {
                0 => StoreError::SessionLost,
                _ => StoreError::RollbackDetected,
            });
        };

        let replica = &mut self.replicas[promoted];
        let mut stale = replica.log.end() < self.committed_bytes;
        if self.bug == Some(ProtocolBug::PromoteWithoutQuorum) {
            // The seeded bug also lies about staleness — exactly what the
            // model checker must catch.
            stale = false;
        }
        // A replica's log recovers from its cut, and from its own root
        // while no later snapshot has superseded it; an uncut log from the
        // epoch's genesis chain. Any other snapshot is the dead primary's
        // root, salvaged off its host: the counter's version, so its
        // watermark covers the cut.
        let log = std::mem::take(&mut replica.log);
        let version = self.snap_counter.read();
        let snapshot = match replica.root.take() {
            Some((at, own)) if at == version => Some(own.to_vec()),
            _ => self.primary.committed_snapshot().map(SnapshotBlob::to_vec),
        };
        let (mut server, recovery) = PrecursorServer::recover(
            self.primary.config().clone(),
            &self.cost,
            snapshot.as_deref(),
            &self.snap_counter,
            &log,
            &self.epoch_counter,
        )?;
        if batch == usize::MAX {
            server.catchup_step(batch)?;
        }
        self.catchup_batch = batch;
        self.adopt(server, Some(promoted));

        Ok(FailoverReport {
            promoted,
            quarantined,
            recovery,
            stale,
        })
    }

    // Makes `server` — recovered from this group's root — the primary. The
    // replicas still alive (minus the one it was promoted from) become its
    // fan-out behind fresh links (the old ones ended at the dead process)
    // with empty journals and their quarantine intact; a fresh journal
    // epoch opens; and the epoch's base state is sealed, so later
    // recoveries need not replay across the epoch boundary — once
    // catch-up drains, if the server is still replaying.
    fn adopt(&mut self, server: PrecursorServer, promoted: Option<usize>) {
        self.replicas = std::mem::take(&mut self.replicas)
            .into_iter()
            .enumerate()
            .filter(|(i, r)| Some(*i) != promoted && r.link.is_alive())
            .map(|(_, r)| Replica {
                quarantined: r.quarantined,
                ..Replica::default()
            })
            .collect();
        self.primary = server;
        self.open_epoch();
        self.committed_bytes = 0;
        self.ship = None;
        self.pending_base_snapshot = self.primary.in_catchup();
        if !self.pending_base_snapshot {
            self.checkpoint();
            // With no replica left, `pump` only polls: no later pump would
            // clear the lag the lost fan-out reported.
            if self.replicas.is_empty() {
                self.metrics.gauge_set("replica.lag_records", 0);
            }
        }
    }
}
