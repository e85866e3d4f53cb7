//! Explicit-state model checker for the failover lifecycle.
//!
//! A small-scope exhaustive explorer drives a 3-replica [`ReplicaGroup`]
//! through every interleaving of a bounded action alphabet — client
//! submits, journal-commit/replication pumps, a replica partition/heal
//! cycle, a staged host rollback, log compaction, and one primary crash
//! (plain or staged promotion) — and asserts, at every reachable state:
//!
//! * **Acked implies quorum-durable** — bytes whose replies were released
//!   by the group-commit gate never exceed the bytes a quorum actually
//!   holds (`committed_bytes ≤ quorum_durable_bytes`).
//! * **At most one unquarantined primary** — every replica whose journal
//!   presents less than it ever acknowledged is quarantined at failover,
//!   so a rolled-back copy can never be promoted alongside the honest
//!   history.
//! * **No committed-prefix divergence** — honest replicas never disagree
//!   on overlapping journal prefixes ([`ReplicaGroup::audit_replicas`]), and
//!   after the trace drains, every acked write with no concurrent
//!   in-flight op reads back exactly; any staleness must either be
//!   flagged in the `FailoverReport` or caught by the client's own
//!   `max_store_seq` rollback check.
//! * **Compaction never changes the recovery digest** —
//!   [`ReplicaGroup::probe_recovery`] is identical before and after every
//!   compaction cut.
//!
//! Each explored trace additionally replays its completed-operation
//! history (plus the post-drain read-backs) through the shared Wing–Gong
//! checker as a per-key linearizability oracle.
//!
//! States are fingerprinted (digest + journal watermarks + per-replica
//! coverage/quarantine + budgets) and deduplicated, so the explorer
//! exhausts the bounded space rather than enumerating redundant
//! interleavings. Violations return a *replayable* counterexample — the
//! exact action trace, serialisable to a compact string — and the
//! seeded-bug self-tests prove the checker catches both
//! [`ProtocolBug`] variants and that their traces replay to the same
//! violation.
//!
//! Scope bounds (env knobs; CI uses the defaults, nightly widens):
//!
//! * `PRECURSOR_MC_OPS` — client puts per trace (default 2).
//! * `PRECURSOR_MC_PUMPS` — pump actions per trace (default 4).
//! * `PRECURSOR_MC_DEPTH` — max trace length (default 9).
//! * `PRECURSOR_MC_NODES` — node budget; the default run must exhaust
//!   the space well under it (default 300000).

use std::collections::{HashMap, HashSet};

use precursor::wire::Status;
use precursor::{
    Config, GroupCommitPolicy, PrecursorClient, ProtocolBug, ReplicaGroup, StoreError,
};
use precursor_sim::CostModel;
use precursor_storage::stable_key_hash;

// The Wing–Gong checker, shared with the scenario harness.
#[path = "scenario/wing_gong.rs"]
mod wing_gong;
use wing_gong::{check_history, HistOp, Kind};

const KEYS: u8 = 2;
const REPLICAS: usize = 3;
const PUMP_BOUND: usize = 400;
const DRAIN_BOUND: usize = 600;

// --- bounds -------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Bounds {
    ops: usize,
    pumps: usize,
    depth: usize,
    nodes: usize,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

impl Bounds {
    fn from_env() -> Bounds {
        Bounds {
            ops: env_usize("PRECURSOR_MC_OPS", 2),
            pumps: env_usize("PRECURSOR_MC_PUMPS", 4),
            depth: env_usize("PRECURSOR_MC_DEPTH", 9),
            nodes: env_usize("PRECURSOR_MC_NODES", 300_000),
        }
    }
}

// --- actions ------------------------------------------------------------

/// One transition of the explored system. The alphabet is deliberately
/// small: each variant is a protocol step (submit/commit/replicate/
/// promote/compact) or a host fault (partition, staged rollback, crash)
/// the failover protocol claims to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Client submits a put to key `k` (unique value; no pumping).
    Submit(u8),
    /// One cluster pump: journal flush, segment ship, acks, group commit,
    /// reply release, client poll.
    Pump,
    /// Partition replica 0 (frames dropped until healed).
    Partition,
    /// Heal replica 0.
    Heal,
    /// Host rolls replica 0's journal copy back to half its length while
    /// standing by its earlier acknowledgements.
    Rollback,
    /// Compact the primary's journal at the current quiescent watermark.
    Compact,
    /// Crash the primary; promote a survivor with full drain-on-promote.
    Crash,
    /// Crash the primary; staged promotion (catch-up batch 2) that serves
    /// reads from the applied prefix while the queue drains.
    CrashStaged,
}

impl Action {
    fn encode(self) -> String {
        match self {
            Action::Submit(k) => format!("submit:{k}"),
            Action::Pump => "pump".to_string(),
            Action::Partition => "part:0".to_string(),
            Action::Heal => "heal:0".to_string(),
            Action::Rollback => "roll:0".to_string(),
            Action::Compact => "compact".to_string(),
            Action::Crash => "crash".to_string(),
            Action::CrashStaged => "crash-staged".to_string(),
        }
    }

    fn decode(s: &str) -> Option<Action> {
        Some(match s {
            "pump" => Action::Pump,
            "part:0" => Action::Partition,
            "heal:0" => Action::Heal,
            "roll:0" => Action::Rollback,
            "compact" => Action::Compact,
            "crash" => Action::Crash,
            "crash-staged" => Action::CrashStaged,
            _ => Action::Submit(s.strip_prefix("submit:")?.parse().ok()?),
        })
    }
}

/// Serialises a trace to the replayable `;`-separated form printed with
/// counterexamples.
fn format_trace(trace: &[Action]) -> String {
    trace
        .iter()
        .map(|a| a.encode())
        .collect::<Vec<_>>()
        .join(";")
}

fn parse_trace(s: &str) -> Vec<Action> {
    s.split(';')
        .filter(|t| !t.is_empty())
        .map(|t| Action::decode(t).unwrap_or_else(|| panic!("bad trace token {t:?}")))
        .collect()
}

// --- the explored world -------------------------------------------------

// One concrete execution: a cluster plus the abstract model the
// invariants compare it against. Rebuilt from scratch for every explored
// prefix — no cloning, so replay is the single source of truth and every
// counterexample is replayable by construction.
struct World {
    cluster: ReplicaGroup,
    client: PrecursorClient,
    // Acked puts: key -> value whose reply the client consumed.
    model: HashMap<u8, Vec<u8>>,
    // In-flight puts: oid -> (key, value, history index).
    pending: HashMap<u64, (u8, Vec<u8>, usize)>,
    // Keys whose in-flight put was cut off by a crash: the write may or
    // may not have applied, so read-backs accept either outcome (the
    // Wing–Gong oracle models this as a put free to linearise last).
    maybe: HashMap<u8, Vec<Vec<u8>>>,
    history: Vec<HistOp>,
    // History entries whose op answered Busy (never executed).
    tombstoned: HashSet<usize>,
    step: u64,
    put_counter: u64,
    // Budgets consumed (mirrored in the fingerprint: they bound the
    // enabled actions, so states differing only in budget are distinct).
    submitted: usize,
    pumps: usize,
    partitioned: bool,
    partitions_used: bool,
    rolled: bool,
    compacts: usize,
    crashed: bool,
    // Whether the failover report flagged the promotion as stale.
    expect_stale: bool,
    // The client tripped its rollback check mid-trace (legitimate while
    // the promoted node is still catching up).
    client_tripped: bool,
    // No promotable candidate was left — the trace is a dead end, not a
    // violation (a majority was lost).
    dead: bool,
}

impl World {
    fn new(cost: &CostModel, bug: Option<ProtocolBug>) -> World {
        let mut cluster = ReplicaGroup::with_replicas(
            Config::default(),
            cost,
            REPLICAS,
            GroupCommitPolicy::immediate(),
        );
        if let Some(bug) = bug {
            cluster.seed_protocol_bug(bug);
        }
        let client = PrecursorClient::connect(cluster.primary_mut(), 0x5EED).expect("connect");
        World {
            cluster,
            client,
            model: HashMap::new(),
            pending: HashMap::new(),
            maybe: HashMap::new(),
            history: Vec::new(),
            tombstoned: HashSet::new(),
            step: 0,
            put_counter: 0,
            submitted: 0,
            pumps: 0,
            partitioned: false,
            partitions_used: false,
            rolled: false,
            compacts: 0,
            crashed: false,
            expect_stale: false,
            client_tripped: false,
            dead: false,
        }
    }

    // The actions enabled in this state, in a fixed exploration order.
    fn enabled(&self, b: &Bounds) -> Vec<Action> {
        let mut out = Vec::new();
        if self.dead {
            return out;
        }
        if self.pumps < b.pumps {
            out.push(Action::Pump);
        }
        if self.submitted < b.ops {
            for k in 0..KEYS {
                out.push(Action::Submit(k));
            }
        }
        if !self.crashed {
            if !self.partitioned && !self.partitions_used {
                out.push(Action::Partition);
            }
            if self.partitioned {
                out.push(Action::Heal);
            }
            if !self.rolled && self.cluster.replica_journal_len(0) > 0 {
                out.push(Action::Rollback);
            }
        }
        let p = self.cluster.primary();
        if self.compacts < 1
            && p.journal_last_seq() > p.journal_base_seq()
            && p.journal_committed_seq() >= p.journal_last_seq()
        {
            out.push(Action::Compact);
        }
        if !self.crashed {
            out.push(Action::Crash);
            out.push(Action::CrashStaged);
        }
        out
    }

    // Drains client completions after a pump, folding acks into the model
    // and tombstoning Busy (never-executed) mutations.
    fn drain_completions(&mut self) -> Result<(), String> {
        for comp in self.client.take_all_completed() {
            let Some((key, value, hist)) = self.pending.remove(&comp.oid) else {
                continue;
            };
            match comp.status {
                Status::Ok => {
                    self.model.insert(key, value);
                    self.history[hist].response = self.step;
                    self.step += 1;
                }
                Status::Busy => {
                    self.tombstoned.insert(hist);
                }
                s => return Err(format!("unexpected completion status {s:?}")),
            }
        }
        Ok(())
    }

    // The client's rollback check fired. Legitimate exactly while the
    // promoted node is still catching up (reads must not run ahead of the
    // verified watermark) or when the report flagged the promotion stale;
    // anywhere else it means acked state silently regressed.
    fn note_client_trip(&mut self) -> Result<(), String> {
        self.client_tripped = true;
        if self.expect_stale || self.cluster.primary().in_catchup() {
            Ok(())
        } else {
            Err(
                "unflagged-stale-promotion: client rollback check tripped on a \
                 promotion reported as non-stale"
                    .to_string(),
            )
        }
    }

    /// Applies one action and checks the per-step invariants. `Err` is an
    /// invariant violation (dead ends — majority loss — are not).
    fn apply(&mut self, action: Action) -> Result<(), String> {
        match action {
            Action::Submit(k) => {
                self.submitted += 1;
                self.put_counter += 1;
                let mut value = self.put_counter.to_le_bytes().to_vec();
                value.push(k);
                // A poisoned session refuses ops; the budget is still
                // consumed so replay stays aligned.
                if let Ok(oid) = self.client.put(&[k], &value) {
                    self.history.push(HistOp {
                        key: k,
                        kind: Kind::Put(value.clone()),
                        invoke: self.step,
                        response: u64::MAX,
                    });
                    self.step += 1;
                    self.pending.insert(oid, (k, value, self.history.len() - 1));
                }
            }
            Action::Pump => {
                self.pumps += 1;
                self.cluster.pump();
                self.client.poll_replies();
                if self.client.poisoned().is_some() {
                    self.note_client_trip()?;
                }
                self.drain_completions()?;
            }
            Action::Partition => {
                self.partitioned = true;
                self.partitions_used = true;
                self.cluster.partition_replica(0);
            }
            Action::Heal => {
                self.partitioned = false;
                self.cluster.heal_replica(0);
            }
            Action::Rollback => {
                self.rolled = true;
                let keep = self.cluster.replica_journal_len(0) / 2;
                self.cluster.rollback_replica(0, keep);
            }
            Action::Compact => {
                self.compacts += 1;
                let before = self
                    .cluster
                    .probe_recovery()
                    .map_err(|e| format!("recovery probe failed before compaction: {e:?}"))?;
                self.cluster.compact();
                let after = self
                    .cluster
                    .probe_recovery()
                    .map_err(|e| format!("recovery probe failed after compaction: {e:?}"))?;
                if before != after {
                    return Err(format!(
                        "compaction-changed-recovery-digest: {before:02x?} -> {after:02x?}"
                    ));
                }
            }
            Action::Crash | Action::CrashStaged => {
                // Rollback evidence visible *before* the failover scan:
                // every such replica must come out quarantined.
                let rolled_back: Vec<usize> = (0..self.cluster.replica_count())
                    .filter(|&i| self.cluster.replica_rolled_back(i))
                    .collect();
                let res = if action == Action::CrashStaged {
                    self.cluster.fail_primary(2)
                } else {
                    self.cluster.fail_primary(usize::MAX)
                };
                self.crashed = true;
                self.partitioned = false;
                match res {
                    Err(StoreError::SessionLost) | Err(StoreError::RollbackDetected) => {
                        // No promotable candidate (majority loss / all
                        // survivors quarantined): a dead end, not a
                        // violation.
                        self.dead = true;
                        return Ok(());
                    }
                    Err(e) => return Err(format!("unexpected failover error: {e:?}")),
                    Ok(report) => {
                        for i in rolled_back {
                            if !report.quarantined.contains(&i) {
                                return Err(format!(
                                    "rolled-back-replica-not-quarantined: replica {i} \
                                     presented less than it acknowledged yet stayed \
                                     promotable (at-most-one-unquarantined-primary)"
                                ));
                            }
                        }
                        self.expect_stale = report.stale;
                    }
                }
                // In-flight ops were cut off: they may or may not have
                // committed. Their puts stay in the history (free to
                // linearise last) and read-backs accept either value.
                let cut: Vec<_> = self.pending.drain().collect();
                for (_, (k, v, _)) in cut {
                    self.maybe.entry(k).or_default().push(v);
                }
                match self.client.reconnect(self.cluster.primary_mut()) {
                    Ok(_) => {}
                    Err(StoreError::RollbackDetected) => self.note_client_trip()?,
                    Err(StoreError::SessionLost) => {
                        // Acceptable only if nothing was ever acked: the
                        // session record itself was not yet quorum-durable,
                        // so no watermark is lost by starting fresh.
                        if !self.model.is_empty() {
                            return Err("session-lost-with-acked-state: promoted node dropped a \
                                 session that acknowledged writes"
                                .to_string());
                        }
                        self.client =
                            PrecursorClient::connect(self.cluster.primary_mut(), 0x5EED ^ 0xF5)
                                .map_err(|e| format!("fresh connect failed: {e:?}"))?;
                    }
                    Err(e) => return Err(format!("reconnect after failover failed: {e:?}")),
                }
            }
        }
        // Global per-step invariants.
        if !self.dead {
            let committed = self.cluster.committed_bytes();
            let quorum = self.cluster.quorum_durable_bytes();
            if committed > quorum {
                return Err(format!(
                    "acked-beyond-quorum-durability: committed {committed} > quorum-durable {quorum}"
                ));
            }
            self.cluster
                .audit_replicas()
                .map_err(|e| format!("committed-prefix-divergence among replicas: {e:?}"))?;
        }
        Ok(())
    }

    /// End-of-trace verification: drain everything, then read every key
    /// back and run the per-key linearizability oracle. Destructive —
    /// called once per explored node, after `enabled()` was captured.
    fn finalize(&mut self) -> Result<(), String> {
        if self.dead {
            return Ok(());
        }
        // Liveness properties (lag convergence, drain) hold only under a
        // fair schedule: the network eventually heals.
        if self.partitioned {
            self.partitioned = false;
            self.cluster.heal_replica(0);
        }
        for _ in 0..DRAIN_BOUND {
            self.cluster.pump();
            self.client.poll_replies();
            if self.client.poisoned().is_some() {
                self.note_client_trip()?;
            }
            self.drain_completions()?;
            // A rolled-back replica cannot be re-fed mid-stream; its lag
            // is permanent (by design) until a failover quarantines it.
            let any_rolled_back =
                (0..self.cluster.replica_count()).any(|i| self.cluster.replica_rolled_back(i));
            if !self.cluster.primary().in_catchup()
                && self.pending.is_empty()
                && self.cluster.primary().gated_replies() == 0
                && (any_rolled_back || self.cluster.metrics().gauge("replica.lag_records") == 0)
            {
                break;
            }
        }
        if self.cluster.primary().in_catchup() {
            return Err("catch-up never drains".to_string());
        }
        if let Some(e) = self.cluster.catchup_error() {
            return Err(format!("background catch-up failed: {e:?}"));
        }
        // Lag converges to zero — except for a replica the host rolled
        // back: the primary cannot re-feed it mid-stream, so it lags (by
        // design) until the next failover quarantines it.
        let any_rolled_back =
            (0..self.cluster.replica_count()).any(|i| self.cluster.replica_rolled_back(i));
        if !any_rolled_back && self.cluster.metrics().gauge("replica.lag_records") != 0 {
            return Err("replica.lag_records does not converge to 0".to_string());
        }
        // A session poisoned during catch-up (or by a flagged-stale
        // promotion) re-attests once the drain completes.
        if self.client.poisoned().is_some()
            && self.client.reconnect(self.cluster.primary_mut()).is_err()
        {
            return Err("re-attestation after drain failed".to_string());
        }

        // Read-backs: every key, stamped into the history for the oracle.
        for k in 0..KEYS {
            let observed = self.read_back(k)?;
            let Some(observed) = observed else {
                // Detection fired: the designed outcome for a genuinely
                // stale promotion; nothing further to verify.
                return Ok(());
            };
            // Acked writes with no concurrent in-flight op must read back
            // exactly (the committed prefix survived the trace).
            if !self.maybe.contains_key(&k) {
                let expected = self.model.get(&k);
                if observed.as_ref() != expected.map(Vec::as_slice).map(<[u8]>::to_vec).as_ref() {
                    return Err(format!(
                        "committed-prefix-divergence: key {k} acked {:?} but read {:?}",
                        expected.map(Vec::len),
                        observed.as_ref().map(Vec::len)
                    ));
                }
            }
        }

        // Per-key Wing–Gong oracle over completed ops, in-flight-at-crash
        // puts (free to linearise last) and the read-backs.
        let history: Vec<HistOp> = self
            .history
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.tombstoned.contains(i))
            .map(|(_, o)| o.clone())
            .collect();
        check_history(&history).map_err(|e| format!("per-key linearizability violated: {e}"))
    }

    // One read-back get. `Ok(None)` means the client's rollback check
    // fired on a promotion that was *flagged* stale — detection worked.
    fn read_back(&mut self, k: u8) -> Result<Option<Option<Vec<u8>>>, String> {
        let oid = match self.client.get(&[k]) {
            Ok(oid) => oid,
            Err(StoreError::RollbackDetected) => {
                self.note_client_trip()?;
                return Ok(None);
            }
            Err(e) => return Err(format!("read-back submit failed: {e:?}")),
        };
        let invoke = self.step;
        self.step += 1;
        for _ in 0..PUMP_BOUND {
            self.cluster.pump();
            self.client.poll_replies();
            if self.client.poisoned().is_some() {
                self.note_client_trip()?;
                return Ok(None);
            }
            if let Some(comp) = self.client.take_completed(oid) {
                let observed = match comp.status {
                    Status::Ok => Some(comp.value.clone().expect("get value")),
                    Status::NotFound => None,
                    s => return Err(format!("unexpected read-back status {s:?}")),
                };
                self.history.push(HistOp {
                    key: k,
                    kind: Kind::Get(observed.clone()),
                    invoke,
                    response: self.step,
                });
                self.step += 1;
                return Ok(Some(observed));
            }
        }
        Err("read-back never completed".to_string())
    }

    // A stable fingerprint of everything observable that constrains the
    // future: cluster state, the abstract model, and remaining budgets.
    fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        let p = self.cluster.primary();
        bytes.extend_from_slice(&p.state_digest());
        for v in [
            p.journal_durable_end(),
            p.journal_trimmed_bytes(),
            p.journal_base_seq(),
            p.journal_last_seq(),
            p.journal_committed_seq(),
            self.cluster.committed_bytes(),
            self.cluster.quorum_durable_bytes(),
            self.client.max_store_seq(),
            p.catchup_remaining() as u64,
        ] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        for i in 0..self.cluster.replica_count() {
            bytes.extend_from_slice(&self.cluster.replica_coverage(i).to_le_bytes());
            bytes.push(u8::from(self.cluster.replica_quarantined(i)));
            bytes.push(u8::from(self.cluster.replica_rolled_back(i)));
            bytes.push(u8::from(self.cluster.replica_compacted(i)));
            bytes.push(u8::from(self.cluster.replica_needs_full(i)));
        }
        let mut model: Vec<(&u8, &Vec<u8>)> = self.model.iter().collect();
        model.sort();
        for (k, v) in model {
            bytes.push(*k);
            bytes.extend_from_slice(v);
        }
        let mut maybe: Vec<&u8> = self.maybe.keys().collect();
        maybe.sort();
        bytes.extend(maybe.into_iter().copied());
        bytes.extend_from_slice(&[
            self.submitted as u8,
            self.pumps as u8,
            self.pending.len() as u8,
            self.compacts as u8,
            u8::from(self.partitioned),
            u8::from(self.partitions_used),
            u8::from(self.rolled),
            u8::from(self.crashed),
            u8::from(self.expect_stale),
            u8::from(self.client_tripped),
            u8::from(self.dead),
            u8::from(p.in_catchup()),
        ]);
        stable_key_hash(&bytes)
    }
}

// --- the explorer -------------------------------------------------------

#[derive(Debug)]
struct Stats {
    nodes: usize,
    max_depth: usize,
    exhausted: bool,
}

#[derive(Debug)]
struct Counterexample {
    trace: Vec<Action>,
    violation: String,
}

// Rebuilds a world by replaying `trace`; `Err` carries the violating
// prefix (the counterexample is minimal in its last action).
fn rebuild(
    cost: &CostModel,
    bug: Option<ProtocolBug>,
    trace: &[Action],
) -> Result<World, Counterexample> {
    let mut w = World::new(cost, bug);
    for (i, a) in trace.iter().enumerate() {
        if let Err(violation) = w.apply(*a) {
            return Err(Counterexample {
                trace: trace[..=i].to_vec(),
                violation,
            });
        }
    }
    Ok(w)
}

/// Depth-first exhaustive exploration with fingerprint deduplication.
/// Every node is rebuilt from its action prefix (so any violation is
/// replayable) and end-of-trace verified before its children are pushed.
fn explore(bounds: Bounds, bug: Option<ProtocolBug>) -> Result<Stats, Counterexample> {
    let cost = CostModel::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Vec<Action>> = vec![Vec::new()];
    let mut stats = Stats {
        nodes: 0,
        max_depth: 0,
        exhausted: true,
    };
    while let Some(prefix) = stack.pop() {
        if stats.nodes >= bounds.nodes {
            stats.exhausted = false;
            break;
        }
        let mut world = rebuild(&cost, bug, &prefix)?;
        if !seen.insert(world.fingerprint()) {
            continue;
        }
        stats.nodes += 1;
        stats.max_depth = stats.max_depth.max(prefix.len());
        let enabled = world.enabled(&bounds);
        if let Err(violation) = world.finalize() {
            return Err(Counterexample {
                trace: prefix,
                violation,
            });
        }
        if prefix.len() < bounds.depth {
            for a in enabled.into_iter().rev() {
                let mut next = prefix.clone();
                next.push(a);
                stack.push(next);
            }
        }
    }
    Ok(stats)
}

/// Replays one serialised trace (apply every action, then the end-of-
/// trace verification), returning the violation it reproduces, if any.
fn replay(trace: &str, bug: Option<ProtocolBug>) -> Result<(), String> {
    let actions = parse_trace(trace);
    let cost = CostModel::default();
    let mut world = rebuild(&cost, bug, &actions).map_err(|cex| cex.violation)?;
    world.finalize()
}

fn violation_class(v: &str) -> &str {
    v.split(':').next().unwrap_or(v)
}

// --- tests --------------------------------------------------------------

#[test]
fn bounded_state_space_is_exhausted_with_zero_violations() {
    let bounds = Bounds::from_env();
    match explore(bounds, None) {
        Ok(stats) => {
            println!(
                "model-check: {} unique states, max depth {}, exhausted={} (bounds {:?})",
                stats.nodes, stats.max_depth, stats.exhausted, bounds
            );
            assert!(
                stats.exhausted,
                "node budget {} too small to exhaust the bounded space",
                bounds.nodes
            );
            assert!(
                stats.nodes > 200,
                "suspiciously small state space ({} nodes): bounds or dedup broken",
                stats.nodes
            );
        }
        Err(cex) => panic!(
            "invariant violated: {}\nreplayable trace: {}",
            cex.violation,
            format_trace(&cex.trace)
        ),
    }
}

#[test]
fn seeded_promote_without_quorum_bug_yields_replayable_counterexample() {
    let bounds = Bounds::from_env();
    let cex = explore(bounds, Some(ProtocolBug::PromoteWithoutQuorum))
        .expect_err("seeded bug must produce a counterexample");
    let encoded = format_trace(&cex.trace);
    println!("counterexample ({}): {encoded}", cex.violation);
    assert_eq!(
        violation_class(&cex.violation),
        "unflagged-stale-promotion",
        "the bug lies about staleness; the client's rollback check must expose it"
    );
    // The printed trace round-trips and replays to the same violation.
    assert_eq!(parse_trace(&encoded), cex.trace);
    let replayed = replay(&encoded, Some(ProtocolBug::PromoteWithoutQuorum))
        .expect_err("replay must reproduce the violation");
    assert_eq!(violation_class(&replayed), violation_class(&cex.violation));
    // And the honest protocol survives the exact same schedule.
    replay(&encoded, None).expect("honest protocol passes the counterexample schedule");
}

#[test]
fn seeded_skip_quarantine_bug_yields_replayable_counterexample() {
    let bounds = Bounds::from_env();
    let cex = explore(bounds, Some(ProtocolBug::SkipRollbackQuarantine))
        .expect_err("seeded bug must produce a counterexample");
    let encoded = format_trace(&cex.trace);
    println!("counterexample ({}): {encoded}", cex.violation);
    assert_eq!(
        violation_class(&cex.violation),
        "rolled-back-replica-not-quarantined"
    );
    assert_eq!(parse_trace(&encoded), cex.trace);
    let replayed = replay(&encoded, Some(ProtocolBug::SkipRollbackQuarantine))
        .expect_err("replay must reproduce the violation");
    assert_eq!(violation_class(&replayed), violation_class(&cex.violation));
    replay(&encoded, None).expect("honest protocol passes the counterexample schedule");
}

#[test]
fn trace_encoding_round_trips() {
    let trace = vec![
        Action::Partition,
        Action::Submit(1),
        Action::Pump,
        Action::Heal,
        Action::Rollback,
        Action::Compact,
        Action::CrashStaged,
        Action::Crash,
        Action::Submit(0),
    ];
    assert_eq!(parse_trace(&format_trace(&trace)), trace);
}
