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
//! anchor): a replica appends segments ([`DurableLog::append_at`]), starts
//! at a shipped cut ([`DurableLog::at_cut`]), is audited
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
//! the commit watermark are untouched by a cut. A replica whose
//! acknowledged coverage is behind the cut can no longer be caught up by
//! segments alone; the primary ships it the compacted **(snapshot, tail)**
//! pair instead: a `FRAME_SNAPSHOT` frame carrying the sealed blob behind
//! the cut read off the primary's log, which the replica validates
//! (`snapshot::open` at the trusted counter version — the manifest, then
//! the base and every delta against it — and the embedded watermark)
//! before starting an empty log at that cut, anchored at the blob's
//! `journal_chain`, for the tail that follows. A tampered blob is
//! rejected; the replica then falls back to *full-journal catch-up*: a
//! copy of the longest log a peer still holds uncompacted. A healthy
//! replica's log is never cut — it may be that peer.
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

use precursor_obs::MetricsRegistry;
use precursor_rdma::replica::ReplicaLink;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::CostModel;

use crate::config::Config;
use crate::error::StoreError;
use crate::server::{CompactOutcome, PrecursorServer, RecoveryReport};
use crate::snapshot::{self, SnapshotBlob};
use precursor_journal::{DurableLog, GroupCommitPolicy, Journal};

// Replication frame tags (primary → replica segments and compacted
// snapshots, replica → primary acknowledgements).
const FRAME_SEGMENT: u8 = 0x01;
const FRAME_ACK: u8 = 0x02;
const FRAME_SNAPSHOT: u8 = 0x03;

// One replica's state as tracked by the group: the link to it, its
// journal copy, and the durability it has acknowledged/claimed.
#[derive(Debug, Default)]
struct Replica {
    link: ReplicaLink,
    // The replica's durable journal copy: appended from segment frames, or
    // started at the cut of a shipped (snapshot, tail) pair, its anchor
    // read from the *validated* snapshot body, never from the wire.
    log: DurableLog,
    // The validated sealed snapshot covering the log's trimmed prefix, and
    // the counter version it validated at, when this copy starts
    // mid-stream.
    snapshot: Option<(u64, Vec<u8>)>,
    // Set when a shipped compacted snapshot failed validation: the
    // replica refuses the pair and waits for full-journal catch-up from a
    // peer that still holds the uncompacted stream.
    needs_full: bool,
    // Logical bytes this replica has acknowledged, as received at the
    // primary.
    acked: u64,
    // Highest acknowledgement it ever made — rollback evidence: a replica
    // whose log ever ends short of `claimed` staged a rollback.
    claimed: u64,
    // Journal record sequence at the last shipped segment it applied.
    last_seq: u64,
    // Quarantined replicas (staged rollback detected) receive no segments
    // and are never promoted.
    quarantined: bool,
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
    // The snapshot shipped to replicas behind the compaction cut, if the
    // journal was ever compacted this epoch. It shares the primary's
    // committed blob part for part; a host tampering with the *shipped*
    // bytes (`rewrite_compacted_snapshot`) writes to its own copy and
    // leaves the recovery root alone. The frame's cut is read off the
    // primary's log: only a `Compacted` cut moves it, and only that cut
    // replaces this blob.
    compact_ship: Option<SnapshotBlob>,
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
            compact_ship: None,
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
    /// start at (past 0 once it adopted a compacted `(snapshot, tail)`
    /// pair, whose cut is its anchor) and its logical end — its coverage.
    pub fn replica_log(&self, i: usize) -> &DurableLog {
        &self.replicas[i].log
    }

    /// Whether replica `i` rejected a shipped compacted snapshot and is
    /// waiting for full-journal catch-up from a peer.
    pub fn replica_needs_full(&self, i: usize) -> bool {
        self.replicas[i].needs_full
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
    /// `replica.rollback_detected`, `replica.compact_ships`,
    /// `replica.snapshot_rejected`, `replica.full_catchup_fallbacks`, and
    /// the `replica.lag_records` gauge (journal records the slowest live
    /// replica — or a catching-up promoted primary — trails by).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Delays replica `i`'s frames by `ticks` link pumps.
    pub fn lag_replica(&mut self, i: usize, ticks: u64) {
        self.replicas[i].link.lag(ticks);
    }

    /// Partitions replica `i` (frames dropped until healed).
    pub fn partition_replica(&mut self, i: usize) {
        self.replicas[i].link.partition();
    }

    /// Crashes replica `i` permanently.
    pub fn crash_replica(&mut self, i: usize) {
        self.replicas[i].link.crash();
    }

    /// Heals a lagging or partitioned replica `i`.
    pub fn heal_replica(&mut self, i: usize) {
        self.replicas[i].link.heal();
    }

    /// Adversarial hook: replica `i` discards its journal past
    /// `keep_bytes` (of the bytes it holds) while standing by its earlier
    /// acknowledgements — the staged-rollback attack
    /// [`fail_primary`](Self::fail_primary) quarantines.
    pub fn rollback_replica(&mut self, i: usize, keep_bytes: usize) {
        let r = &mut self.replicas[i];
        r.log.bytes_mut().truncate(keep_bytes);
        r.acked = r.acked.min(r.log.trimmed() + keep_bytes as u64);
        r.last_seq = 0;
    }

    /// Adversarial hook: flips one bit of replica `i`'s stored journal —
    /// models a forked or tampered copy. The damage is caught by
    /// [`audit_replicas`](Self::audit_replicas) (prefix divergence against
    /// honest replicas) and by the journal MAC chain at
    /// [`fail_primary`](Self::fail_primary) (recovery truncates at the
    /// first inauthentic byte).
    pub fn tamper_replica(&mut self, i: usize, byte: usize) {
        let j = self.replicas[i].log.bytes_mut();
        if !j.is_empty() {
            let b = byte % j.len();
            j[b] ^= 0x40;
        }
    }

    /// Adversarial hook: lets the host rewrite the *shipped* compacted
    /// snapshot at will — splice in a delta of an older chain, swap two
    /// deltas, truncate — without touching the primary's own
    /// recovery root. No-op before the first compaction.
    pub fn rewrite_compacted_snapshot(&mut self, rewrite: impl FnOnce(&mut Vec<u8>)) {
        if let Some(ship) = self.compact_ship.as_mut() {
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
    /// ([`CompactOutcome::Wedged`]) — and, with replicas, the pair shipped
    /// to those behind the cut.
    pub fn compact(&mut self) -> CompactOutcome {
        self.compact_via(|_, _| {})
    }

    /// Adversarial hook: [`compact`](Self::compact) with the untrusted
    /// host's write of the tentative cut in the caller's hands (see
    /// [`PrecursorServer::compact_journal_via`]).
    pub fn compact_via(
        &mut self,
        host_write: impl FnOnce(&mut SnapshotBlob, &[std::ops::Range<usize>]),
    ) -> CompactOutcome {
        let outcome = self
            .primary
            .compact_journal_via(&mut self.snap_counter, host_write);
        if let (CompactOutcome::Compacted { .. }, false) = (&outcome, self.replicas.is_empty()) {
            let root = self.primary.committed_snapshot();
            self.compact_ship = Some(root.expect("a cut just committed").clone());
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
    /// order); fault and adversary plans are not carried over.
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
    /// draining), a primary sweep, segment/snapshot shipping, link pumps in
    /// both directions, replica acknowledgement processing, and the quorum
    /// commit that releases gated replies. Returns the number of requests
    /// the primary sweep processed. Without replicas and outside catch-up
    /// it is the primary's [`poll`](PrecursorServer::poll) and nothing
    /// else.
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

        // Ship every logical byte not yet acknowledged to each live
        // replica. The window re-ships until acknowledged, which makes
        // loss under partitions self-repairing: replicas append only the
        // suffix they are missing and re-acknowledge their coverage. A
        // replica acknowledged behind the compaction cut gets the
        // (snapshot, tail) pair instead — segments alone can no longer
        // reach it.
        let empty = DurableLog::default();
        let log = self.primary.journal().map_or(&empty, Journal::log);
        let (trimmed, durable_end) = (log.trimmed(), log.end());
        let last_seq = self.primary.journal().map_or(0, Journal::last_seq);
        let epoch = self.primary.journal().map_or(0, Journal::epoch);
        for r in &mut self.replicas {
            if !r.link.is_alive() || r.quarantined || r.needs_full {
                continue;
            }
            if r.acked < trimmed {
                if let Some(blob) = &self.compact_ship {
                    let mut frame = Vec::with_capacity(17 + blob.len());
                    frame.push(FRAME_SNAPSHOT);
                    frame.extend_from_slice(&trimmed.to_le_bytes());
                    frame.extend_from_slice(&log.base_seq().to_le_bytes());
                    blob.append_to(&mut frame);
                    r.link.send_to_replica(&frame);
                }
                continue;
            }
            if r.acked < durable_end {
                let tail = &log.bytes()[(r.acked - trimmed) as usize..];
                let mut frame = Vec::with_capacity(17 + tail.len());
                frame.push(FRAME_SEGMENT);
                frame.extend_from_slice(&r.acked.to_le_bytes());
                frame.extend_from_slice(&last_seq.to_le_bytes());
                frame.extend_from_slice(tail);
                r.link.send_to_replica(&frame);
            }
        }

        // Deliver segments and snapshots, apply them at the replicas,
        // send and deliver acknowledgements. The sealing key and counter
        // versions every enclave derives are identical (same attestation
        // root), so replicas validate shipped snapshots exactly as their
        // own recovery would.
        let snap_version = self.snap_counter.read();
        for r in &mut self.replicas {
            r.link.pump();
            let mut acked_any = false;
            while let Some(frame) = r.link.recv_at_replica() {
                if frame.len() < 17 {
                    continue;
                }
                match frame[0] {
                    FRAME_SEGMENT => {
                        let offset = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
                        let seq = u64::from_le_bytes(frame[9..17].try_into().expect("8 bytes"));
                        if r.log.append_at(offset, &frame[17..]) {
                            r.last_seq = seq;
                        }
                        acked_any = true;
                    }
                    FRAME_SNAPSHOT => {
                        let base_off = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
                        let base_seq =
                            u64::from_le_bytes(frame[9..17].try_into().expect("8 bytes"));
                        let blob = &frame[17..];
                        // Validate before adopting: open at the trusted
                        // counter version (manifest, then every part
                        // against it) and check the embedded watermark
                        // matches the cut the primary claims. The
                        // MAC-chain anchor comes from the *sealed*
                        // manifest, never from the untrusted frame header.
                        let skey = self.primary.sealing_key();
                        let header = snapshot::open(&skey, snap_version, blob)
                            .ok()
                            .map(|body| body.header)
                            .filter(|h| h.journal_epoch == epoch && h.journal_seq == base_seq);
                        match header {
                            Some(header) => {
                                r.snapshot = Some((snap_version, blob.to_vec()));
                                r.log =
                                    DurableLog::at_cut(base_off, base_seq, header.journal_chain);
                                r.last_seq = base_seq;
                                acked_any = true;
                                self.metrics.inc("replica.compact_ships", 1);
                            }
                            None => {
                                r.needs_full = true;
                                self.metrics.inc("replica.snapshot_rejected", 1);
                            }
                        }
                    }
                    _ => {}
                }
            }
            if acked_any {
                let mut ack = Vec::with_capacity(17);
                ack.push(FRAME_ACK);
                ack.extend_from_slice(&r.log.end().to_le_bytes());
                ack.extend_from_slice(&r.last_seq.to_le_bytes());
                r.link.send_to_primary(&ack);
            }
            r.link.pump();
            while let Some(frame) = r.link.recv_at_primary() {
                if frame.len() < 17 || frame[0] != FRAME_ACK {
                    continue;
                }
                let acked = u64::from_le_bytes(frame[1..9].try_into().expect("8 bytes"));
                r.acked = r.acked.max(acked);
                r.claimed = r.claimed.max(acked);
            }
        }

        // Full-journal catch-up fallback: a replica that rejected the
        // shipped compacted snapshot copies the uncompacted stream from a
        // peer that still holds it (replica-to-replica repair). Without a
        // donor it stays lagged — never silently adopts the rejected pair.
        // The donor is chosen by reference and copied only into a replica
        // that takes it.
        let donor = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.link.is_alive() && !d.quarantined && !d.needs_full && d.log.trimmed() == 0
            })
            .max_by_key(|(_, d)| d.log.end())
            .map(|(i, _)| i);
        if let Some(d) = donor {
            for i in 0..self.replicas.len() {
                let (r, donor) = (&self.replicas[i], &self.replicas[d]);
                if !r.needs_full || !r.link.is_alive() || r.quarantined {
                    continue;
                }
                if donor.log.end() <= r.log.end() {
                    continue;
                }
                let (log, donor_seq) = (donor.log.clone(), donor.last_seq);
                let r = &mut self.replicas[i];
                r.log = log;
                r.snapshot = None;
                r.last_seq = donor_seq;
                r.acked = r.acked.max(r.log.end());
                r.claimed = r.claimed.max(r.acked);
                r.needs_full = false;
                self.metrics.inc("replica.full_catchup_fallbacks", 1);
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

        let alive = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.link.is_alive());
        let mut any_alive = false;
        let mut candidate: Option<usize> = None;
        for (i, r) in alive {
            any_alive = true;
            if r.quarantined {
                continue;
            }
            let better = match candidate {
                None => true,
                Some(c) => r.log.end() > self.replicas[c].log.end(),
            };
            // Seeded bug: first alive wins regardless of coverage.
            if better
                && !(self.bug == Some(ProtocolBug::PromoteWithoutQuorum) && candidate.is_some())
            {
                candidate = Some(i);
            }
        }
        let Some(promoted) = candidate else {
            return Err(if any_alive {
                StoreError::RollbackDetected
            } else {
                StoreError::SessionLost
            });
        };

        let replica = &mut self.replicas[promoted];
        let mut stale = replica.log.end() < self.committed_bytes;
        if self.bug == Some(ProtocolBug::PromoteWithoutQuorum) {
            // The seeded bug also lies about staleness — exactly what the
            // model checker must catch.
            stale = false;
        }
        // A replica holding a compacted pair recovers from its cut, and
        // from its own validated snapshot while no later cut has
        // superseded it; a full-epoch copy from the epoch's genesis chain.
        // Any other snapshot is the dead primary's root, salvaged off its
        // host: the counter's version, so its watermark covers the cut.
        let log = std::mem::take(&mut replica.log);
        let version = self.snap_counter.read();
        let snapshot = match replica.snapshot.take() {
            Some((at, own)) if at == version => Some(own),
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
        self.compact_ship = None;
        self.pending_base_snapshot = self.primary.in_catchup();
        if !self.pending_base_snapshot {
            self.checkpoint();
        }
    }
}
