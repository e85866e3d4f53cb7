//! The one seeded scenario harness. Every sweep in the suite — chaos,
//! Byzantine, failover, compaction-crash, migration-crash and both
//! Wing–Gong sweeps — is a row: one [`Scenario`] value, driven by one
//! [`Scenario::run`] through the path the benchmark drives
//! ([`ClusterClient`] over a [`PrecursorCluster`]; one node with R = 0 is
//! the bare server), checked by one oracle set:
//!
//! 1. **One per-key reference model** — presence Yes / No / Maybe, the
//!    values a read may return, tainted after a detected tamper. It checks
//!    every completion and a closing read-back of every key by a fresh
//!    client (fresh routing). Puts carry unique values, so a re-executed
//!    retransmission would bring back an overwritten value: at-most-once
//!    per `oid` is observed here. When no key is Maybe, the nodes must
//!    hold exactly the live keys after every op, and (without an
//!    attacking host) every stored value must pass the enclave's integrity
//!    audit at the end.
//! 2. **Wing–Gong** over the recorded history of every fault-free row
//!    (an empty host plan) — the rows whose ops overlap:
//!    `clients > 1`, or `Submit` events left puts in flight.
//! 3. **One owner** — exactly one node's routing gate owns each key after
//!    every event, every fence or abort, and at the end.
//! 4. **No dropped reports** — `server.reports_dropped == 0` per node,
//!    summed across restarts and failovers.
//! 5. **Nothing undetected** — no op fails to converge, and every
//!    `Compact` event leaves `probe_recovery()` unchanged.
//! 6. **Acked implies quorum-durable** — per node after every op and
//!    event: `committed_bytes ≤ quorum_durable_bytes`, and the replicas
//!    agree on every overlapping journal prefix (`audit_replicas`).
//! 7. **Quarantined exactly when rolled back** — every replica that
//!    presented less than it acknowledged before a `FailNode` is
//!    quarantined by it, and every replica it quarantines met a `Rollback`
//!    at its `HostSite::Replica` in the retiring host's log.
//!
//! A fault-free row stays on the happy path except as the **catch-up
//! rule** allows: while a node drains a staged promotion it answers
//! mutations `Busy` and its applied prefix trips a client's rollback check,
//! which a promotion flagged stale trips too. A rollback anywhere else is
//! an unflagged stale promotion (or restart). A run closes under a fair
//! schedule: the network heals, no node is left in catch-up, no replica
//! lags unless one was rolled back, and every client reads once more, so
//! one that saw acked state its node lost trips its rollback check.
//!
//! The row table is DESIGN §7. Shards ride the seed over {1, 2, 4, 8};
//! `PRECURSOR_SWEEP_SEEDS` widens every sweep (default 20; nightly 100) and
//! `PRECURSOR_AUDIT_DIR` receives the failing [`Run`] of any sweep kind.
//! Scripted tests build their cluster and clients here too
//! ([`Scenario::build`]), the model checker (`model_check.rs`) enumerates
//! event schedules of one row, and the golden workload pinned by
//! `determinism.rs` and `obs.rs` lives at the end.

#![allow(dead_code)]

pub mod wing_gong;

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use precursor::wire::Status;
use precursor::{
    ClusterClient, CompactOutcome, CompletedOp, Config, DurableLog, GroupCommitPolicy, HostAct,
    HostFilter, HostMove, HostPlan, HostSite, LinkMode, MigrationOutcome, MigrationReport,
    PlacementRing, PrecursorClient, PrecursorCluster, PrecursorServer, ProtocolBug, RecoveryReport,
    ReplicaGroup, RetryPolicy, SecurityAudit, StoreError,
};
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;
use precursor_storage::stable_key_hash;

use wing_gong::{check_history, HistOp, Kind};

/// Shard counts a seed rides.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

// Attempts an op gets before the run is declared stuck.
const ATTEMPTS: usize = 64;

// Pumps a closing run gets to settle before it is declared stuck.
const DRAIN: usize = 600;

// Salts of the one seed-mixing scheme, one per independent stream.
const OPS: u64 = 0x0b5;
const PUMPS: u64 = 0x9a3;
const CLIENT: u64 = 0xc11e_0000;
const AFRESH: u64 = 0xaf2e_0000;
const READER: u64 = 0x4ead;
const PLANS: u64 = 0x91a4_0000_0000;

/// The one seed-mixing scheme: an independent stream per `(seed, salt)`.
fn mix(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Seeds per sweep kind: `PRECURSOR_SWEEP_SEEDS`, default 20.
pub fn sweep_seeds() -> u64 {
    std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Runs `row(seed)` for every sweep seed and `check` on each run, printing
/// one digest line per seed. The run of a failing seed — a violation or a
/// failed row assert — is written to `PRECURSOR_AUDIT_DIR` when set. At 20
/// or more seeds every shard count must have been driven.
pub fn sweep(kind: &str, row: impl Fn(u64) -> Scenario, check: impl Fn(&Run)) -> Vec<Run> {
    let seeds = sweep_seeds();
    let mut shards = BTreeSet::new();
    let mut runs = Vec::new();
    for seed in 0..seeds {
        let run = row(seed).run().unwrap_or_else(|v| {
            dump(kind, &v.run, &v.what);
            panic!("{kind} seed {seed}: {}", v.what)
        });
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&run))) {
            dump(kind, &run, "row assert failed");
            resume_unwind(panic);
        }
        let (shard_count, digest) = (run.shards, run.digest);
        println!("{kind} seed={seed} shards={shard_count} digest={digest:#018x}");
        shards.insert(run.shards);
        runs.push(run);
    }
    if seeds >= 20 {
        assert_eq!(shards.len(), SHARDS.len(), "{kind}: shards {shards:?}");
    }
    runs
}

/// Writes a failing run to `PRECURSOR_AUDIT_DIR`, when set.
pub fn dump(kind: &str, run: &Run, what: &str) {
    let Ok(dir) = std::env::var("PRECURSOR_AUDIT_DIR") else {
        return;
    };
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/{kind}-seed-{:08x}.log", run.seed);
    let _ = std::fs::write(path, format!("{what}\n{run:#?}\n"));
}

/// One op of a workload; a generated put's value starts with the count of
/// puts so far, so it is unique.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

impl Op {
    fn key(&self) -> u8 {
        match self {
            Op::Put(k, _) | Op::Get(k) | Op::Delete(k) => *k,
        }
    }

    // The op as a log line: a put by its value's first bytes.
    fn label(&self) -> String {
        match self {
            Op::Put(k, v) => format!("put {k} {:02x?}", &v[..v.len().min(8)]),
            Op::Get(k) => format!("get {k}"),
            Op::Delete(k) => format!("del {k}"),
        }
    }
}

/// Which key's ring segment a `Migrate` event moves: `Hot` is the
/// most-used key the model does not know to be absent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pick {
    Hot,
    Key(u8),
}

/// Something that happens to the cluster before the op of its index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// Every node seals its state as its recovery root (the only
    /// durability of a node without a journal).
    Checkpoint,
    /// Process crash at a node; it recovers from its own root. Client 0's
    /// submits there stay open: its reconnect re-issues them under their
    /// oids, and each settles from its reply. One answered `Replay` ran
    /// before the crash and its reply died with the process: it stays
    /// open (it may or may not have applied).
    Restart(usize),
    /// A node's machine is lost; a replica is promoted and drains `batch`
    /// catch-up records per pump (`usize::MAX`: all before it serves).
    FailNode { node: usize, batch: usize },
    /// Compact a node's journal; with `crash` (`SnapshotSeal` aborts,
    /// `CompactTruncate` wedges) the host tears that durable write.
    Compact {
        node: usize,
        crash: Option<HostSite>,
    },
    /// Start moving a ring segment to the next node; with `fault` the
    /// first shipped part is torn (a source crash) or corrupted.
    Migrate { key: Pick, fault: Option<HostMove> },
    /// Client 0 puts a value new to key `k` and does not wait.
    Submit(u8),
    /// One `poll_all`, one migration step of one key when a migration is
    /// in flight, and a poll of client 0: its submits settle.
    Pump,
    /// Node 0's replica 0 falls 6 link pumps behind. This and the next
    /// three are moves of node 0's host at its replica 0
    /// (`ReplicaGroup::host_move`).
    LagReplica,
    /// Node 0's replica 0 drops every frame until healed.
    PartitionReplica,
    /// Node 0's replica 0 is healed.
    HealReplica,
    /// Node 0's replica 0 discards two thirds of its journal while its
    /// acknowledgements stand (staged rollback).
    RollbackReplica,
    /// Byzantine host: re-installs the ring the cluster started with as
    /// a node's routing view.
    StaleRouting(usize),
}

/// One seeded run's shape. Build rows with struct update syntax over
/// [`Scenario::new`].
#[derive(Debug, Clone)]
pub struct Scenario {
    pub seed: u64,
    // Every node's configuration.
    pub config: Config,
    // 1 is the bare server; replicas need a journal (`None` = bare).
    pub nodes: usize,
    pub replicas: usize,
    pub journal: Option<GroupCommitPolicy>,
    // 1 = sequential ops; more = pipelined rounds of 2–3 ops each.
    pub clients: usize,
    // Keys `0..keys`, each `key_len` bytes long (`Scenario::key`); ops
    // before the closing read-back.
    pub keys: u8,
    pub key_len: usize,
    pub ops: usize,
    pub value_len: Range<usize>,
    // Attached as every node's host, afresh after a restart. Empty, an op
    // must succeed on its first attempt (redirects aside).
    pub host: HostPlan,
    // `(op index, event)`: fires before that op (rounds: before the first
    // round reaching it; at or past `ops`: before the read-back).
    pub events: Vec<(usize, Event)>,
    // Seeded into every group (the model checker's self-test).
    pub bug: Option<ProtocolBug>,
}

impl Scenario {
    /// One bare node, one client, 100 ops over 24 keys, 64-byte values,
    /// no faults, no events; `config.shards` ridden by the seed.
    pub fn new(seed: u64) -> Scenario {
        Scenario {
            seed,
            config: Config {
                shards: SHARDS[(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 62) as usize],
                ..Config::default()
            },
            nodes: 1,
            replicas: 0,
            journal: None,
            clients: 1,
            keys: 24,
            key_len: 1,
            ops: 100,
            value_len: 64..65,
            host: HostPlan::none(),
            events: Vec::new(),
            bug: None,
        }
    }

    /// [`new`](Self::new) with every node journaled, immediate group
    /// commit.
    pub fn journaled(seed: u64) -> Scenario {
        Scenario {
            journal: Some(GroupCommitPolicy::immediate()),
            ..Scenario::new(seed)
        }
    }

    /// A key the first `i` ops leave live, picked by the seed (the op
    /// stream is a pure function of the seed; assumes a fault-free
    /// sequential run).
    pub fn live_key_at(&self, i: usize) -> u8 {
        let mut gen = OpGen::new(self);
        let mut live = vec![false; self.keys as usize];
        for _ in 0..i {
            match gen.next() {
                Op::Put(k, _) => live[k as usize] = true,
                Op::Delete(k) => live[k as usize] = false,
                Op::Get(_) => {}
            }
        }
        let live: Vec<u8> = (0..self.keys).filter(|&k| live[k as usize]).collect();
        live[(self.seed % live.len() as u64) as usize]
    }

    /// The bytes of key `k`: `k`, then `key_len - 1` letters.
    pub fn key(&self, k: u8) -> Vec<u8> {
        let filler = (1..self.key_len).map(|i| b'a' + (i % 26) as u8);
        std::iter::once(k).chain(filler).collect()
    }

    /// The node owning `key` before any migration.
    pub fn owner(&self, key: u8) -> usize {
        let ring = PlacementRing::new(self.nodes as u16, PrecursorCluster::DEFAULT_VNODES);
        ring.owner_of(&self.key(key)) as usize
    }

    /// Drives the scenario and checks the oracles.
    pub fn run(self) -> Result<Run, Violation> {
        let mut h = self.build();
        h.play()?;
        h.close()
    }

    /// [`run`](Self::run), panicking with the violation.
    pub fn run_ok(self) -> Run {
        self.run()
            .unwrap_or_else(|v| panic!("seed {}: {}", v.run.seed, v.what))
    }

    /// The cluster, its plans and `clients` connected clients, ready for
    /// [`run`](Self::run) or a scripted test.
    pub fn build(mut self) -> Harness {
        assert!(
            self.clients == 1 || self.host.is_empty(),
            "pipelined rounds run fault-free"
        );
        let cost = CostModel::default();
        let config = self.config.clone();
        let mut cluster = match self.journal {
            Some(policy) => {
                PrecursorCluster::replicated(self.nodes, config, &cost, self.replicas, policy)
            }
            None => {
                assert_eq!(self.replicas, 0, "replicas need a journal");
                PrecursorCluster::new(self.nodes, config, &cost)
            }
        };
        if let Some(bug) = self.bug {
            (0..self.nodes).for_each(|n| cluster.group_mut(n).seed_protocol_bug(bug));
        }
        self.events.sort_by_key(|(at, _)| *at);
        let keys = self.keys as usize;
        let mut h = Harness {
            initial_ring: cluster.meta().snapshot(),
            cluster,
            clients: Vec::new(),
            model: Model(vec![KeyState::default(); keys]),
            run: Run {
                seed: self.seed,
                shards: self.config.shards,
                ..Run::default()
            },
            gen: OpGen::new(&self),
            pumps: SimRng::seed_from(mix(self.seed, PUMPS)),
            heat: vec![0; keys],
            step: 0,
            next_event: 0,
            incarnations: vec![0; self.nodes],
            dropped: vec![0; self.nodes],
            stale: vec![false; self.nodes],
            submits: Vec::new(),
            moving: None,
            s: self,
        };
        for n in 0..h.s.nodes {
            h.attach_host(n);
        }
        for c in 0..h.s.clients {
            h.connect(mix(h.s.seed, CLIENT + c as u64))
                .expect("connect");
        }
        h
    }
}

/// Everything observable about one run; two runs of one scenario are
/// equal. Host moves are `(node, …)` over every incarnation of
/// every node; audits are `(client, node, …)` per session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    pub seed: u64,
    pub shards: usize,
    // Folds every node's final `(mutation_seq, state_digest)` and the log.
    pub digest: u64,
    // One line per op, event, fence and abort.
    pub log: Vec<String>,
    pub history: Vec<HistOp>,
    pub host: Vec<(usize, HostAct)>,
    // Host misbehaviour surfaced to an op.
    pub detections: Vec<StoreError>,
    pub audits: Vec<(usize, usize, SecurityAudit)>,
    pub fences: Vec<MigrationReport>,
    pub aborts: Vec<MigrationReport>,
    pub failovers: Vec<Failover>,
    pub compactions: Vec<Compaction>,
    pub restarts: Vec<RecoveryReport>,
    pub retransmits: u64,
    // Re-attestations the harness made.
    pub reconnects: u64,
    // The latest virtual clock of any session.
    pub clock_ns: u64,
    pub redirects: u64,
    pub refreshes: u64,
}

impl Run {
    /// Detections: errors surfaced to ops plus the sessions' audit counts
    /// of stale replies, chain breaks, epoch mismatches and rollbacks.
    pub fn detected(&self) -> u64 {
        let audits = self.audits.iter().map(|(_, _, a)| {
            a.stale_replies + a.chain_breaks + a.epoch_mismatches + a.rollback_regressions
        });
        self.detections.len() as u64 + audits.sum::<u64>()
    }

    /// Sealed `NotMine` replies node `node` sent, over every client.
    pub fn not_mine(&self, node: usize) -> u64 {
        let at_node = self.audits.iter().filter(|(_, n, _)| *n == node);
        at_node.map(|(_, _, a)| a.not_mine_replies).sum()
    }
}

/// What a `FailNode` event observed: the `(mutation_seq, state_digest)` of
/// the lost and the promoted primary, and the failover report.
#[derive(Debug, Clone, PartialEq)]
pub struct Failover {
    pub before: (u64, [u8; 16]),
    pub after: (u64, [u8; 16]),
    pub promoted: usize,
    pub quarantined: Vec<usize>,
    pub stale: bool,
}

/// What a `Compact` event observed: the outcome (snapshot bytes dropped),
/// then the node's snapshot counter, journal wedge, trimmed journal bytes
/// and `journal.compactions` count after it.
#[derive(Debug, Clone, PartialEq)]
pub struct Compaction {
    pub crash: Option<HostSite>,
    pub outcome: CompactOutcome,
    pub counter: u64,
    pub wedged: bool,
    pub trimmed_bytes: u64,
    pub cuts: u64,
}

/// An oracle failure: what failed, and the run up to it.
#[derive(Debug)]
pub struct Violation {
    pub what: String,
    pub run: Box<Run>,
}

// --- the op stream ------------------------------------------------------

struct OpGen {
    rng: SimRng,
    keys: u64,
    value_len: Range<usize>,
    puts: u64,
}

impl OpGen {
    fn new(s: &Scenario) -> OpGen {
        OpGen {
            rng: SimRng::seed_from(mix(s.seed, OPS)),
            keys: u64::from(s.keys),
            value_len: s.value_len.clone(),
            puts: 0,
        }
    }

    // Puts 5 in 10, gets 3, deletes 2.
    fn next(&mut self) -> Op {
        let key = self.rng.gen_range(self.keys) as u8;
        match self.rng.gen_range(10) {
            0..=4 => {
                self.puts += 1;
                let spread = (self.value_len.end - self.value_len.start) as u64;
                let len = self.value_len.start + self.rng.gen_range(spread) as usize;
                let mut v = vec![0u8; len];
                self.rng.fill_bytes(&mut v);
                let id = self.puts.to_le_bytes();
                v[..len.min(8)].copy_from_slice(&id[..len.min(8)]);
                Op::Put(key, v)
            }
            5..=7 => Op::Get(key),
            _ => Op::Delete(key),
        }
    }
}

// --- the reference model ------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum Presence {
    Yes,
    #[default]
    No,
    Maybe,
}

#[derive(Debug, Clone, Default, Hash)]
struct KeyState {
    presence: Presence,
    // What a read may return while present.
    acceptable: Vec<Vec<u8>>,
    // Values once acceptable and since replaced.
    overwritten: Vec<Vec<u8>>,
    // A read detected tampering; cleared by the next mutation.
    tainted: bool,
    // Mutations issued in the current round (one op when sequential).
    puts: Vec<Vec<u8>>,
    deletes: usize,
}

// Per-key state between rounds; inside a round, every completion may see
// the state before it or any put of the round.
struct Model(Vec<KeyState>);

impl Model {
    fn issue(&mut self, op: &Op) {
        let s = &mut self.0[op.key() as usize];
        match op {
            Op::Put(_, v) => s.puts.push(v.clone()),
            Op::Delete(_) => s.deletes += 1,
            Op::Get(_) => {}
        }
    }

    fn get(&self, k: u8, got: Option<&[u8]>) -> Result<(), String> {
        let s = &self.0[k as usize];
        match got {
            None if s.presence == Presence::Yes && s.deletes == 0 => {
                Err(format!("key {k}: NotFound lost an acked write"))
            }
            Some(v)
                if !s.puts.iter().any(|p| p == v)
                    && (s.presence == Presence::No || !s.acceptable.iter().any(|a| a == v)) =>
            {
                Err(if s.presence == Presence::No {
                    format!("key {k}: read a deleted key")
                } else if s.overwritten.iter().any(|o| o == v) {
                    format!("key {k}: read an overwritten value")
                } else {
                    format!("key {k}: read a value nobody wrote")
                })
            }
            _ => Ok(()),
        }
    }

    // `retried`: an earlier attempt of this delete may have applied.
    fn delete(&self, k: u8, existed: bool, retried: bool) -> Result<(), String> {
        let s = &self.0[k as usize];
        if existed && s.presence == Presence::No && s.puts.is_empty() {
            return Err(format!("key {k}: delete acked an absent key"));
        }
        if !existed && s.presence == Presence::Yes && s.deletes < 2 && !retried {
            return Err(format!("key {k}: delete missed a stored key"));
        }
        Ok(())
    }

    fn tamper(&mut self, k: u8) -> Result<(), String> {
        let s = &mut self.0[k as usize];
        if s.presence == Presence::No && s.puts.is_empty() {
            return Err(format!("key {k}: tamper reported on an absent key"));
        }
        s.tainted = true;
        Ok(())
    }

    // A submitted put settled on its own: acked (`Some(true)`), never
    // executed (`Some(false)`) or cut off by a failover (`None`: it may or
    // may not have applied).
    fn settle(&mut self, k: u8, v: &[u8], applied: Option<bool>) {
        let s = &mut self.0[k as usize];
        s.puts.retain(|p| p != v);
        match applied {
            Some(true) => {
                s.overwritten.append(&mut s.acceptable);
                (s.presence, s.tainted) = (Presence::Yes, false);
            }
            Some(false) => return,
            None => s.presence = Presence::Maybe,
        }
        s.acceptable.push(v.to_vec());
    }

    // Every op of the round completed: puts alone leave one of them,
    // deletes alone leave nothing, both leave either.
    fn end_round(&mut self) {
        for s in &mut self.0 {
            let puts = std::mem::take(&mut s.puts);
            let deletes = std::mem::take(&mut s.deletes);
            if puts.is_empty() && deletes == 0 {
                continue;
            }
            s.presence = match (puts.is_empty(), deletes) {
                (false, 0) => Presence::Yes,
                (true, _) => Presence::No,
                (false, _) => Presence::Maybe,
            };
            let old = std::mem::replace(&mut s.acceptable, puts);
            s.overwritten.extend(old);
            s.tainted = false;
        }
    }

    // The live key count, when no key is ambiguous.
    fn live(&self) -> Option<usize> {
        let count = |p| self.0.iter().filter(|s| s.presence == p).count();
        (count(Presence::Maybe) == 0).then(|| count(Presence::Yes))
    }
}

// What a completion means for the op.
enum Outcome {
    // Not definitive: re-issue.
    Retry,
    // A detected tamper: definitive, nothing observed.
    Detected,
    // Definitive, with its observation.
    Seen(Kind),
}

// --- the harness --------------------------------------------------------

/// A built scenario: the cluster and its clients (public for scripted
/// tests) plus the oracle state [`Scenario::run`] drives.
pub struct Harness {
    /// The cluster.
    pub cluster: PrecursorCluster,
    /// Connected clients, in connect order.
    pub clients: Vec<ClusterClient>,
    s: Scenario,
    model: Model,
    run: Run,
    gen: OpGen,
    pumps: SimRng,
    heat: Vec<u64>,
    step: u64,
    next_event: usize,
    incarnations: Vec<u64>,
    dropped: Vec<u64>,
    // Whether node n's last failover was flagged stale.
    stale: Vec<bool>,
    // Client 0's submits that have not settled.
    submits: Vec<Submit>,
    // The in-flight migration's injected fault and the keys it has
    // shipped, as the last pump reported them.
    moving: Option<(Option<HostMove>, usize)>,
    initial_ring: PlacementRing,
}

// A put `Event::Submit` posted at `node`, with its history entry.
struct Submit {
    node: u16,
    oid: u64,
    entry: usize,
    key: u8,
    value: Vec<u8>,
    // Its node restarted while it was in flight.
    resumed: bool,
}

impl Harness {
    // --- scripted-test surface ------------------------------------------

    /// Connects one more client (node 0 attested with `seed` verbatim);
    /// returns its index.
    pub fn connect(&mut self, seed: u64) -> Result<usize, StoreError> {
        let client = ClusterClient::connect(&mut self.cluster, seed)?;
        self.clients.push(client);
        Ok(self.clients.len() - 1)
    }

    /// Node 0 as a replica group.
    pub fn group(&self) -> &ReplicaGroup {
        self.cluster.group(0)
    }

    /// Node 0 as a replica group, mutably.
    pub fn group_mut(&mut self) -> &mut ReplicaGroup {
        self.cluster.group_mut(0)
    }

    /// Node `n`'s host, locked: every harness node has one, so an event
    /// or a scripted test can arm a move on it.
    pub fn host(&self, n: usize) -> std::sync::MutexGuard<'_, precursor::Host> {
        self.cluster.node(n).host().expect("every node has a host")
    }

    /// Client `c`'s session at node 0.
    pub fn session(&mut self, c: usize) -> &mut PrecursorClient {
        let session = self.clients[c].session_mut(0);
        session.expect("connect attests node 0")
    }

    /// Drives client `c`'s op `oid` at `node` to completion, pumping that
    /// node's group and advancing the client's clock (retransmitting).
    pub fn complete(&mut self, c: usize, node: u16, oid: u64) -> Result<CompletedOp, StoreError> {
        let session = self.clients[c].session_mut(node).expect("submitted");
        let group = self.cluster.group_mut(node as usize);
        session.complete_with(|| group.pump(), oid)
    }

    /// Client `c` puts and waits for the completion.
    pub fn put(&mut self, c: usize, key: &[u8], value: &[u8]) -> Result<CompletedOp, StoreError> {
        let (node, oid) = self.clients[c].submit_put(&mut self.cluster, key, value)?;
        self.complete(c, node, oid)
    }

    /// Client `c` gets and waits for the completion.
    pub fn get(&mut self, c: usize, key: &[u8]) -> Result<CompletedOp, StoreError> {
        let (node, oid) = self.clients[c].submit_get(&mut self.cluster, key)?;
        self.complete(c, node, oid)
    }

    /// Client `c` deletes and waits for the completion.
    pub fn delete(&mut self, c: usize, key: &[u8]) -> Result<CompletedOp, StoreError> {
        let (node, oid) = self.clients[c].submit_delete(&mut self.cluster, key)?;
        self.complete(c, node, oid)
    }

    // Routes and posts `op` on `key` through client `c`.
    fn issue(&mut self, c: usize, op: &Op, key: &[u8]) -> Result<(u16, u64), StoreError> {
        let (client, cluster) = (&mut self.clients[c], &mut self.cluster);
        match op {
            Op::Put(_, v) => client.submit_put(cluster, key, v),
            Op::Get(_) => client.submit_get(cluster, key),
            Op::Delete(_) => client.submit_delete(cluster, key),
        }
    }

    /// Re-attests client `c` to `node`, retrying: the replacement QP runs
    /// through the same fault injector and can itself fail.
    pub fn reconnect(&mut self, c: usize, node: u16) -> Result<(), Violation> {
        for _ in 0..ATTEMPTS {
            let attested = self.clients[c].reconnect_node(&mut self.cluster, node);
            if attested.is_ok() {
                self.run.reconnects += 1;
                return Ok(());
            }
        }
        Err(self.violation(format!("client {c} cannot re-attest to node {node}")))
    }

    /// A hash of everything that constrains the rest of a schedule: each
    /// node's store, journal watermarks, quorum and catch-up state and each
    /// replica's coverage, cut and flags; every key's owner; an in-flight
    /// migration's fault and progress; every session's rollback watermark
    /// and quarantine; the model (its open puts are the outstanding
    /// submits) and the submits' order. The model checker deduplicates
    /// states by it.
    pub fn fingerprint(&mut self) -> u64 {
        let (mut digests, mut words) = (Vec::new(), Vec::new());
        for n in 0..self.s.nodes {
            let (g, p) = (self.cluster.group(n), self.cluster.node(n));
            digests.push(p.state_digest());
            let empty = DurableLog::default();
            let log = p.journal().map_or(&empty, |j| j.log());
            words.extend([
                log.end(),
                log.trimmed(),
                log.base_seq(),
                p.journal().map_or(0, |j| j.last_seq()),
                p.journal_committed_seq(),
                g.committed_bytes(),
                g.quorum_durable_bytes(),
                p.catchup_remaining() as u64,
                u64::from(p.in_catchup()),
                u64::from(self.stale[n]),
            ]);
            for i in 0..g.replica_count() {
                words.extend([g.replica_log(i).end(), g.replica_log(i).trimmed()]);
                let flags = [
                    g.replica_quarantined(i),
                    g.replica_rolled_back(i),
                    g.replica_log(i).cut().is_some(),
                ];
                words.extend(flags.map(u64::from));
            }
        }
        for client in &mut self.clients {
            for n in 0..self.s.nodes as u16 {
                if let Some(s) = client.session_mut(n) {
                    words.extend([s.max_store_seq(), u64::from(s.poisoned().is_some())]);
                }
            }
        }
        let owner = |k| u64::from(self.cluster.meta().lookup(&self.s.key(k)).0);
        words.extend((0..self.s.keys).map(owner));
        let moving = self.cluster.migration_in_flight().then_some(self.moving);
        let submits: Vec<_> = self.submits.iter().map(|s| (s.node, s.key)).collect();
        stable_key_hash(&(digests, words, moving, &self.model.0, submits))
    }

    // --- the run --------------------------------------------------------

    /// Drives every op and event of the scenario, checking the oracles as
    /// it goes; [`close`](Self::close) ends the run.
    pub fn play(&mut self) -> Result<(), Violation> {
        let mut i = 0;
        while i < self.s.ops {
            self.fire_until(i)?;
            if self.s.clients == 1 {
                let op = self.gen.next();
                self.run_op(0, op)?;
                i += 1;
                if self.cluster.migration_in_flight() {
                    let batch = 1 + self.pumps.gen_range(2) as usize;
                    self.pump_migration(batch)?;
                }
            } else {
                i += self.round(self.s.ops - i)?;
            }
            for n in 0..self.s.nodes {
                self.cluster.node_mut(n).take_reports();
            }
            self.check_size()?;
            self.check_nodes()?;
        }
        self.fire_until(usize::MAX)
    }

    /// Ends a played run under a fair schedule: a migration in flight runs
    /// to its fence or abort, node 0's replica 0 heals if it lags or is
    /// partitioned, the groups pump until every submit has settled, no
    /// node is catching up, no replica lags (one rolled back always may)
    /// and every replica neither quarantined nor rolled back holds its
    /// primary's log — start, anchor and bytes: replicas hold what the
    /// primary holds — and sessions a catch-up poisoned re-attest. Then every client reads key 0 — one
    /// that saw acked state its node no longer holds trips its rollback
    /// check — and a fresh client reads every key.
    pub fn close(mut self) -> Result<Run, Violation> {
        while self.cluster.migration_in_flight() {
            self.pump_migration(8)?;
        }
        let g = self.group();
        let mode = (g.replica_count() > 0).then(|| g.replica_link(0).mode());
        if let Some(LinkMode::Lagging(_) | LinkMode::Partitioned) = mode {
            self.link(LinkMode::Healthy);
        }
        // The first replica (the harness crashes none) that holds less or
        // other than its primary's log, quarantined and rolled-back ones
        // aside.
        let apart = |g: &ReplicaGroup| {
            let log = g.primary().journal().map(|j| j.log());
            let honest = |&i: &usize| !g.replica_quarantined(i) && !g.replica_rolled_back(i);
            let apart = |&i: &usize| log.is_some_and(|log| g.replica_log(i) != log);
            (0..g.replica_count()).filter(honest).find(apart)
        };
        let busy = |g: &ReplicaGroup| {
            let rolled_back = (0..g.replica_count()).any(|i| g.replica_rolled_back(i));
            let lags = g.metrics().gauge("replica.lag_records") > 0 && !rolled_back;
            g.primary().in_catchup() || lags || apart(g).is_some()
        };
        let settled =
            |h: &Self| h.submits.is_empty() && !(0..h.s.nodes).any(|n| busy(h.cluster.group(n)));
        for _ in 0..DRAIN {
            if settled(&self) {
                break;
            }
            self.pump()?;
        }
        if let Some(e) = (0..self.s.nodes).find_map(|n| self.cluster.group(n).catchup_error()) {
            return Err(self.violation(format!("catch-up failed: {e:?}")));
        }
        let nodes = 0..self.s.nodes;
        if let Some((n, i)) = nodes
            .filter_map(|n| Some((n, apart(self.cluster.group(n))?)))
            .next()
        {
            let what = format!("node {n}'s replica {i} does not hold its primary's log");
            return Err(self.violation(what));
        }
        if !settled(&self) {
            let what = "submits, catch-up or replica lag never settle";
            return Err(self.violation(what.into()));
        }
        let poisoned = |s: &mut PrecursorClient| s.poisoned().is_some();
        for c in 0..self.clients.len() {
            for n in 0..self.s.nodes as u16 {
                if self.clients[c].session_mut(n).is_some_and(poisoned) {
                    self.reconnect(c, n)?;
                }
            }
            self.run_op(c, Op::Get(0))?;
        }
        self.read_back()?;
        self.finish()
    }

    fn tick(&mut self) -> u64 {
        self.step += 1;
        self.step
    }

    // An op is invoked: counted for heat, told to the model, and opened in
    // the history; returns its entry.
    fn begin(&mut self, op: &Op) -> usize {
        self.heat[op.key() as usize] += 1;
        self.model.issue(op);
        let kind = match op {
            Op::Put(_, v) => Kind::Put(v.clone()),
            Op::Get(_) => Kind::Get(None),
            Op::Delete(_) => Kind::Delete(false),
        };
        let invoke = self.tick();
        let (key, response) = (op.key(), u64::MAX);
        self.run.history.push(HistOp {
            key,
            kind,
            invoke,
            response,
        });
        self.run.history.len() - 1
    }

    // The op of history entry `h` responded with `kind`.
    fn settle(&mut self, h: usize, kind: Kind) {
        self.run.history[h].response = self.tick();
        self.run.history[h].kind = kind;
    }

    fn violation(&self, what: String) -> Violation {
        let mut run = Box::new(self.run.clone());
        run.log.push(format!("VIOLATION {what}"));
        Violation { what, run }
    }

    // One sequential op by client `c`, driven to a definitive outcome the
    // way a client survives faults: retransmit (inside `complete`),
    // reconnect on a lost session, re-attest after a quarantine, re-issue
    // with a fresh oid after a redirect, a give-up or a vanished op.
    fn run_op(&mut self, c: usize, op: Op) -> Result<(), Violation> {
        let key = self.s.key(op.key());
        let entry = self.begin(&op);
        let mut resume = None;
        for attempt in 0..ATTEMPTS {
            let (node, oid) = match resume.take() {
                Some(sub) => sub,
                None => match self.issue(c, &op, &key) {
                    Ok(sub) => sub,
                    Err(e) => {
                        let home = self.cluster.meta().lookup(&key).0;
                        self.hiccup(c, home, &op.label(), Err(e))?;
                        self.recover(c)?;
                        continue;
                    }
                },
            };
            match self.complete(c, node, oid) {
                Ok(done) if done.redirect.is_some() => {
                    self.clients[c].note_redirect(&self.cluster, &done);
                }
                Ok(done) => {
                    let outcome = self.observe(&op, &done, attempt > 0);
                    let outcome = outcome.map_err(|what| self.violation(what))?;
                    if !matches!(outcome, Outcome::Seen(_)) {
                        self.hiccup(c, node, &op.label(), Ok(&done))?;
                    }
                    self.run
                        .log
                        .push(format!("c{c} {} -> {:?}", op.label(), done.status));
                    match outcome {
                        Outcome::Retry => continue,
                        Outcome::Detected => self.run.history[entry].response = self.tick(),
                        Outcome::Seen(kind) => self.settle(entry, kind),
                    }
                    self.model.end_round();
                    self.clients[c].take_all_completed();
                    return Ok(());
                }
                Err(e) => {
                    self.hiccup(c, node, &op.label(), Err(e))?;
                    match e {
                        StoreError::SessionLost => {
                            self.reconnect(c, node)?;
                            resume = Some((node, oid));
                        }
                        StoreError::SessionPoisoned
                        | StoreError::RollbackDetected
                        | StoreError::ForkDetected => {
                            self.run.detections.push(e);
                            self.reconnect(c, node)?;
                            resume = Some((node, oid));
                        }
                        _ => self.reconnect(c, node)?,
                    }
                }
            }
        }
        Err(self.violation(format!("c{c} {} did not converge", op.label())))
    }

    fn fault_free(&self) -> bool {
        self.s.host.is_empty()
    }

    // A fault-free row never leaves the happy path: a detection, a Busy, a
    // failed send or a lost session there is a violation, not something to
    // retry — except as the catch-up rule allows at node `n`.
    fn hiccup(
        &self,
        c: usize,
        n: u16,
        label: &str,
        saw: Result<&CompletedOp, StoreError>,
    ) -> Result<(), Violation> {
        if !self.fault_free() {
            return Ok(());
        }
        let catchup = self.cluster.node(n as usize).in_catchup();
        let what = match saw.map_or_else(Some, |done| done.error) {
            Some(StoreError::Busy) if catchup => return Ok(()),
            Some(StoreError::RollbackDetected) if catchup || self.stale[n as usize] => {
                return Ok(())
            }
            Some(StoreError::RollbackDetected) => "unflagged stale promotion or restart",
            _ => "fault-free op saw",
        };
        Err(self.violation(format!("c{c} {label} at node {n}: {what} {saw:?}")))
    }

    // A send failed (a lost QP, a quarantine, a ring stalled by lost
    // credit writes): re-attest every session of client `c`.
    fn recover(&mut self, c: usize) -> Result<(), Violation> {
        for n in 0..self.s.nodes as u16 {
            if self.clients[c].session_mut(n).is_some() {
                self.reconnect(c, n)?;
            }
        }
        Ok(())
    }

    // Checks one non-redirect completion against the model.
    fn observe(&mut self, op: &Op, done: &CompletedOp, retried: bool) -> Result<Outcome, String> {
        let k = op.key();
        let kind = match (op, done.status, done.error) {
            (Op::Get(_), Status::Ok, Some(e @ StoreError::IntegrityViolation)) => {
                self.run.detections.push(e);
                self.model.tamper(k)?;
                return Ok(Outcome::Detected);
            }
            (Op::Get(_), Status::Ok, None) => {
                self.model.get(k, done.value.as_deref())?;
                Kind::Get(done.value.clone())
            }
            (Op::Get(_), Status::NotFound, None) => {
                self.model.get(k, None)?;
                Kind::Get(None)
            }
            (Op::Put(_, v), Status::Ok, None) => Kind::Put(v.clone()),
            (Op::Delete(_), Status::Ok | Status::NotFound, None) => {
                let existed = done.status == Status::Ok;
                self.model.delete(k, existed, retried)?;
                Kind::Delete(existed)
            }
            _ => return Ok(Outcome::Retry),
        };
        Ok(Outcome::Seen(kind))
    }

    // One pipelined round: every client submits 2–3 ops (at most `budget`
    // in all) before anything is polled, then the round drains while a
    // migration pumps underneath it. A sealed NotMine consumed its oid
    // without executing: the op is re-issued with a fresh oid and its
    // history entry stays open. Returns the ops issued.
    fn round(&mut self, budget: usize) -> Result<usize, Violation> {
        let mut pending: Vec<HashMap<(u16, u64), (usize, Op)>> =
            vec![HashMap::new(); self.clients.len()];
        let mut issued = 0;
        for (c, pending) in pending.iter_mut().enumerate().take(self.s.clients) {
            for _ in 0..2 + self.gen.rng.gen_range(2) {
                if issued == budget {
                    break;
                }
                let op = self.gen.next();
                let entry = self.begin(&op);
                let sub = self.issue(c, &op, &[op.key()]);
                let sub = sub.map_err(|e| self.violation(format!("c{c} submit: {e:?}")))?;
                pending.insert(sub, (entry, op));
                issued += 1;
            }
        }
        loop {
            let polled = self.cluster.poll_all();
            if self.cluster.migration_in_flight() {
                self.pump_migration(2)?;
            }
            let mut reissued = false;
            for (c, pending) in pending.iter_mut().enumerate() {
                self.clients[c].poll_all_replies();
                for (node, done) in self.clients[c].take_all_completed() {
                    let Some((h, op)) = pending.remove(&(node, done.oid)) else {
                        return Err(self.violation(format!("c{c}: unknown completion")));
                    };
                    if done.redirect.is_some() {
                        self.clients[c].note_redirect(&self.cluster, &done);
                        let sub = self.issue(c, &op, &[op.key()]);
                        let sub = sub.map_err(|e| self.violation(format!("re-issue: {e:?}")))?;
                        pending.insert(sub, (h, op));
                        reissued = true;
                        continue;
                    }
                    let kind = match self.observe(&op, &done, false) {
                        Ok(Outcome::Seen(kind)) => kind,
                        Ok(_) => {
                            let what =
                                format!("c{c} {}: fault-free round saw {done:?}", op.label());
                            return Err(self.violation(what));
                        }
                        Err(what) => return Err(self.violation(what)),
                    };
                    self.settle(h, kind);
                }
            }
            if polled == 0 && !reissued {
                break;
            }
        }
        if pending.iter().any(|p| !p.is_empty()) {
            return Err(self.violation("round did not drain".into()));
        }
        self.model.end_round();
        Ok(issued)
    }

    fn pump_migration(&mut self, batch: usize) -> Result<(), Violation> {
        match self.cluster.pump_migration(batch) {
            MigrationOutcome::Shipping { shipped, .. } => {
                let fault = self.moving.and_then(|(fault, _)| fault);
                self.moving = Some((fault, shipped));
                return Ok(());
            }
            MigrationOutcome::Idle => return Ok(()),
            MigrationOutcome::Fenced(r) => {
                self.run.log.push(format!("fenced {r:?}"));
                self.run.fences.push(r);
            }
            MigrationOutcome::Aborted(r) => {
                self.run.log.push(format!("aborted {r:?}"));
                self.run.aborts.push(r);
            }
        }
        self.check_nodes()
    }

    // One `poll_all`, one key of an in-flight migration and one poll of
    // client 0. Its submits settle in the model and the history (a Busy
    // one, or one a fence redirected, never executed and stays open); a
    // session the poll poisons is judged by the catch-up rule.
    fn pump(&mut self) -> Result<(), Violation> {
        self.cluster.poll_all();
        if self.cluster.migration_in_flight() {
            self.pump_migration(1)?;
        }
        let nodes = 0..self.s.nodes as u16;
        let poison = |h: &mut Self, n| h.clients[0].session_mut(n).and_then(|s| s.poisoned());
        let was: Vec<_> = nodes.clone().map(|n| poison(self, n)).collect();
        self.clients[0].poll_all_replies();
        for n in nodes {
            if let (None, Some(e)) = (was[n as usize], poison(self, n)) {
                self.run.detections.push(e);
                self.hiccup(0, n, "poll", Err(e))?;
            }
        }
        for (node, done) in self.clients[0].take_all_completed() {
            let at = |s: &Submit| (s.node, s.oid) == (node, done.oid);
            // A submit cut off by a failover no longer settles.
            let Some(i) = self.submits.iter().position(at) else {
                continue;
            };
            let s = self.submits.remove(i);
            if done.redirect.is_some() {
                self.clients[0].note_redirect(&self.cluster, &done);
                self.model.settle(s.key, &s.value, Some(false));
                continue;
            }
            let label = Op::Put(s.key, s.value.clone()).label();
            self.run
                .log
                .push(format!("c0 {label} -> {:?}", done.status));
            if s.resumed && done.status == Status::Replay {
                // The restarted node's window is past it: it ran before
                // the crash, and its reply died with the process.
                self.model.settle(s.key, &s.value, None);
            } else if done.status == Status::Ok {
                self.model.settle(s.key, &s.value, Some(true));
                self.settle(s.entry, Kind::Put(s.value));
            } else {
                self.hiccup(0, node, &label, Ok(&done))?;
                self.model.settle(s.key, &s.value, Some(false));
            }
        }
        Ok(())
    }

    // --- events ---------------------------------------------------------

    fn fire_until(&mut self, i: usize) -> Result<(), Violation> {
        while let Some(&(at, event)) = self.s.events.get(self.next_event) {
            if at > i {
                break;
            }
            self.next_event += 1;
            self.run.log.push(format!("@{at} {event:?}"));
            self.fire(event)?;
            self.check_nodes()?;
        }
        Ok(())
    }

    fn fire(&mut self, event: Event) -> Result<(), Violation> {
        let failed = |h: &Self, e: StoreError| h.violation(format!("{event:?} failed: {e:?}"));
        match event {
            Event::Checkpoint => {
                for n in 0..self.s.nodes {
                    self.cluster.group_mut(n).checkpoint();
                }
            }
            Event::Restart(n) => {
                for s in &mut self.submits {
                    s.resumed |= s.node as usize == n;
                }
                self.retire(n);
                let report = self.cluster.restart_node(n).map_err(|e| failed(self, e))?;
                self.run.restarts.push(report);
                self.attach_host(n);
                self.rejoin(n)?;
            }
            Event::FailNode { node: n, batch } => {
                let g = self.cluster.group(n);
                let rolled_back: Vec<_> = (0..g.replica_count())
                    .filter(|&i| g.replica_rolled_back(i))
                    .collect();
                let state = |p: &PrecursorServer| (p.mutation_seq(), p.state_digest());
                let before = state(self.cluster.node(n));
                let host = self.cluster.node(n).host_log();
                self.cut_submits(Some(n));
                self.retire(n);
                let report = self.cluster.fail_node(n, batch);
                let report = report.map_err(|e| failed(self, e))?;
                self.stale[n] = report.stale;
                self.run.failovers.push(Failover {
                    before,
                    after: state(self.cluster.node(n)),
                    promoted: report.promoted,
                    quarantined: report.quarantined.clone(),
                    stale: report.stale,
                });
                if let Some(i) = rolled_back.iter().find(|i| !report.quarantined.contains(i)) {
                    let what = format!(
                        "rolled-back replica not quarantined: node {n}'s replica {i} holds \
                         less than it acknowledged and stays promotable"
                    );
                    return Err(self.violation(what));
                }
                let rolled = |&i: &usize| {
                    host.iter().any(|a| {
                        (a.site, a.origin, a.mv)
                            == (
                                HostSite::Replica,
                                HostFilter::Replica(i as u32),
                                HostMove::Rollback,
                            )
                    })
                };
                if let Some(i) = report.quarantined.iter().find(|i| !rolled(i)) {
                    let what = format!("node {n}'s replica {i} quarantined with no rollback");
                    return Err(self.violation(what));
                }
                self.attach_host(n);
                self.rejoin(n)?;
            }
            Event::Compact { node, crash } => self.compact(node, crash)?,
            Event::Migrate { key, fault } => {
                while self.cluster.migration_in_flight() {
                    self.pump_migration(8)?;
                }
                let key = match key {
                    Pick::Hot => self.hot(),
                    Pick::Key(k) => k,
                };
                let bytes = self.s.key(key);
                let from = self.cluster.meta().lookup(&bytes).0;
                let to = ((from as usize + 1) % self.s.nodes) as u16;
                // The source's host damages this migration's first part;
                // nothing armed for an earlier one outlives it.
                for n in 0..self.s.nodes {
                    self.host(n).disarm(HostSite::MigrateShip);
                }
                if let Some(mv) = fault {
                    self.host(from as usize)
                        .arm(HostSite::MigrateShip, HostFilter::Any, mv);
                }
                let started = self.cluster.start_migration(&bytes, to);
                let started = started.map_err(|e| failed(self, e))?;
                self.moving = Some((fault, 0));
                let line = format!("migrate {key}: {from} -> {to} {started}");
                self.run.log.push(line);
            }
            Event::Submit(key) => {
                // Unique on its key (values are compared per key): the
                // key's op count so far.
                let value = self.heat[key as usize].to_le_bytes().to_vec();
                let op = Op::Put(key, value.clone());
                match self.issue(0, &op, &self.s.key(key)) {
                    Ok((node, oid)) => {
                        let entry = self.begin(&op);
                        self.submits.push(Submit {
                            node,
                            oid,
                            entry,
                            key,
                            value,
                            resumed: false,
                        });
                    }
                    // A poisoned session refuses ops; the poll that
                    // poisoned it was judged.
                    Err(StoreError::SessionPoisoned | StoreError::RollbackDetected) => {}
                    Err(e) => return Err(failed(self, e)),
                }
            }
            Event::Pump => self.pump()?,
            Event::LagReplica => self.link(LinkMode::Lagging(6)),
            Event::PartitionReplica => self.link(LinkMode::Partitioned),
            Event::HealReplica => self.link(LinkMode::Healthy),
            Event::RollbackReplica => self.group_mut().host_move(0, HostMove::Rollback),
            Event::StaleRouting(n) => {
                let ring = self.initial_ring.clone();
                self.cluster.node_mut(n).install_routing(n as u16, ring);
            }
        }
        Ok(())
    }

    // Node 0's host sets its replica 0's link to `mode`.
    fn link(&mut self, mode: LinkMode) {
        self.group_mut().host_move(0, HostMove::Link(mode));
    }

    // The submits at `node` (every node: `None`) lost the process or the
    // client that would settle them: each may or may not have applied, and
    // its history entry stays open (free to linearise last).
    fn cut_submits(&mut self, node: Option<usize>) {
        let (cut, kept) = std::mem::take(&mut self.submits)
            .into_iter()
            .partition::<Vec<_>, _>(|s| node.is_none_or(|n| s.node as usize == n));
        self.submits = kept;
        for s in cut {
            self.model.settle(s.key, &s.value, None);
        }
    }

    // Drains the node's commit pipeline (at most 8 pumps, none when it is
    // already committed), then cuts its journal — the host tearing `crash`
    // — and checks recovery reconstructs what it did.
    fn compact(&mut self, node: usize, crash: Option<HostSite>) -> Result<(), Violation> {
        let group = self.cluster.group_mut(node);
        for _ in 0..8 {
            let p = group.primary();
            if p.journal_committed_seq() >= p.journal().map_or(0, |j| j.last_seq()) {
                break;
            }
            group.pump();
        }
        let before = group.probe_recovery();
        if let Some(site) = crash {
            self.host(node).arm(site, HostFilter::Any, HostMove::Drop);
        }
        let group = self.cluster.group_mut(node);
        let mut outcome = group.compact();
        if let Some(site) = crash {
            // A cut that skipped the site leaves nothing armed behind.
            self.host(node).disarm(site);
        }
        let group = self.cluster.group(node);
        if let CompactOutcome::Compacted { snapshot, .. }
        | CompactOutcome::Wedged { snapshot, .. } = &mut outcome
        {
            snapshot.clear();
        }
        let counter = group.snapshot_counter().read();
        let primary = group.primary();
        let trimmed_bytes = primary.journal().map_or(0, |j| j.log().trimmed());
        let wedged = primary.journal_wedged();
        let cuts = primary.metrics().counter("journal.compactions");
        let after = group.probe_recovery();
        self.run.log.push(format!("compact {node}: {outcome:?}"));
        self.run.compactions.push(Compaction {
            crash,
            outcome,
            counter,
            wedged,
            trimmed_bytes,
            cuts,
        });
        if before.is_err() || before != after {
            let what = format!("compaction changed recovery: {before:?} -> {after:?}");
            return Err(self.violation(what));
        }
        Ok(())
    }

    // The most-used key the model does not know to be absent.
    fn hot(&self) -> u8 {
        let keys = 0..self.s.keys as usize;
        let present = keys.filter(|&k| self.model.0[k].presence != Presence::No);
        let hot = present.max_by_key(|&k| (self.heat[k], Reverse(k)));
        hot.unwrap_or(0) as u8
    }

    // The seed of node `n`'s next plan incarnation.
    fn plan_seed(&mut self, n: usize) -> u64 {
        let salt = PLANS + ((n as u64) << 16) + self.incarnations[n];
        self.incarnations[n] += 1;
        mix(self.s.seed, salt)
    }

    // Attaches the row's host to node `n`'s current server — an empty
    // plan too, so an event can arm a move on it.
    fn attach_host(&mut self, n: usize) {
        let seed = self.plan_seed(n);
        let plan = self.s.host.clone();
        self.cluster.node_mut(n).set_host_plan(plan, seed);
    }

    // Keeps what node `n`'s server saw before it is replaced.
    fn retire(&mut self, n: usize) {
        let node = self.cluster.node(n);
        self.run
            .host
            .extend(node.host_log().into_iter().map(|a| (n, a)));
        self.dropped[n] += node.metrics().counter("server.reports_dropped");
    }

    // Sessions at node `n` re-attest in the order its primary admitted them.
    // In a fault-free row a lost session means the node lost its record: a
    // session that saw no ack, or one at a node flagged stale, starts
    // afresh; any other is an unflagged stale promotion.
    fn rejoin(&mut self, n: usize) -> Result<(), Violation> {
        let mut admitted: Vec<(u32, usize)> = Vec::new();
        for (c, client) in self.clients.iter_mut().enumerate() {
            if let Some(session) = client.session_mut(n as u16) {
                admitted.push((session.client_id(), c));
            }
        }
        admitted.sort_unstable();
        for (_, c) in admitted {
            match self.clients[c].reconnect_node(&mut self.cluster, n as u16) {
                Ok(()) => self.run.reconnects += 1,
                Err(StoreError::SessionLost) if self.fault_free() => {
                    let session = self.clients[c].session_mut(n as u16).expect("admitted");
                    let seen = session.max_store_seq();
                    if seen > 0 && !self.stale[n] {
                        let what = format!(
                            "unflagged stale promotion: node {n} lost the session of \
                             client {c}, which saw acks up to store seq {seen}"
                        );
                        return Err(self.violation(what));
                    }
                    if c == 0 {
                        // The replaced client's sessions at other nodes go
                        // with it.
                        self.cut_submits(None);
                    }
                    let seed = mix(self.s.seed, AFRESH + c as u64);
                    let fresh = ClusterClient::connect(&mut self.cluster, seed);
                    self.clients[c] =
                        fresh.map_err(|e| self.violation(format!("afresh: {e:?}")))?;
                }
                Err(_) => self.reconnect(c, n as u16)?,
            }
        }
        Ok(())
    }

    // --- oracles --------------------------------------------------------

    // Oracles 3 and 6: one owner per key; per node, no reply released for
    // bytes a quorum does not hold and no divergent replica prefixes.
    fn check_nodes(&self) -> Result<(), Violation> {
        for k in 0..self.s.keys {
            let key = self.s.key(k);
            let owners = self.cluster.nodes().filter(|n| n.owns_key(&key)).count();
            if owners != 1 {
                return Err(self.violation(format!("key {k} has {owners} owners")));
            }
        }
        for n in 0..self.s.nodes {
            let g = self.cluster.group(n);
            let (committed, durable) = (g.committed_bytes(), g.quorum_durable_bytes());
            if committed > durable {
                let what =
                    format!("node {n} acked {committed} journal bytes, a quorum holds {durable}");
                return Err(self.violation(what));
            }
            if let Err(e) = g.audit_replicas() {
                return Err(self.violation(format!("node {n}'s replicas diverge: {e:?}")));
            }
        }
        Ok(())
    }

    fn check_size(&self) -> Result<(), Violation> {
        let Some(live) = self.model.live() else {
            return Ok(());
        };
        let owned = |n: &PrecursorServer| n.live_keys().iter().filter(|k| n.owns_key(k)).count();
        let stored: usize = self.cluster.nodes().map(owned).sum();
        if stored != live {
            return Err(self.violation(format!("nodes hold {stored} keys, model {live}")));
        }
        Ok(())
    }

    // Every key read back by a fresh client, then the size and (without
    // an attacking host) storage integrity checks.
    fn read_back(&mut self) -> Result<(), Violation> {
        let reader = self.connect(mix(self.s.seed, READER));
        let reader = reader.map_err(|e| self.violation(format!("reader: {e:?}")))?;
        for k in 0..self.s.keys {
            self.run_op(reader, Op::Get(k))?;
        }
        self.check_size()?;
        // A host that may tamper can do so after a key's read-back.
        for k in (0..self.s.keys).filter(|_| !self.s.host.has_attacks()) {
            let s = &self.model.0[k as usize];
            let key = self.s.key(k);
            let owner = self.cluster.meta().lookup(&key).0 as usize;
            let audit = self.cluster.node(owner).audit_key(&key);
            if s.presence == Presence::Yes && !s.tainted && audit != Some(true) {
                return Err(self.violation(format!("key {k} fails the storage audit")));
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Run, Violation> {
        self.check_nodes()?;
        for n in 0..self.s.nodes {
            self.retire(n);
            if self.dropped[n] != 0 {
                let what = format!("node {n} dropped {} reports", self.dropped[n]);
                return Err(self.violation(what));
            }
        }
        if self.fault_free() {
            check_history(&self.run.history).map_err(|e| self.violation(e))?;
        }
        let run = &mut self.run;
        for (c, client) in self.clients.iter_mut().enumerate() {
            run.redirects += client.stats().redirects;
            run.refreshes += client.stats().refreshes;
            for n in 0..self.s.nodes {
                if let Some(s) = client.session_mut(n as u16) {
                    run.audits.push((c, n, s.security_audit()));
                    run.retransmits += s.retransmits();
                    run.clock_ns = run.clock_ns.max(s.now().0);
                }
            }
        }
        let mut trace = String::new();
        for node in self.cluster.nodes() {
            let _ = write!(trace, "{}:{:?};", node.mutation_seq(), node.state_digest());
        }
        let _ = write!(trace, "{:?}", run.log);
        run.digest = stable_key_hash(&trace);
        Ok(self.run)
    }
}

// --- the golden workload --------------------------------------------------

/// Ops of the golden workload.
pub const GOLDEN_OPS: u64 = 120;

/// Arms `server` for the golden run: scripted one-shot faults only (no
/// rates), so a digest checks the store's event alignment — drops exercise
/// retransmission, the corrupt reply and the adversary detection — and the
/// two attack classes a session survives unpoisoned (Tamper is detected
/// per read, Duplicate deduplicated by `reply_seq`); tracing at
/// `trace_cap` records.
pub fn golden_server(server: &mut PrecursorServer, seed: u64, trace_cap: usize) {
    use {HostFilter::*, HostMove::*, HostSite::*};
    let plan = HostPlan::none()
        .rule(Write, AtoB, Drop, 5)
        .rule(Write, BtoA, Drop, 11)
        .rule(Write, BtoA, Corrupt, 23)
        .rule(Write, AtoB, Drop, 41)
        .rule(Write, BtoA, Drop, 57)
        .rule(Sweep, Any, Tamper, 9)
        .rule(Reply, Any, Duplicate, 30);
    server.set_host_plan(plan, seed);
    server.enable_tracing(trace_cap);
}

/// The golden client's retry policy: jitter multiplies backoff through
/// floating point; zero keeps the virtual timeline free of platform-variant
/// libm rounding.
pub fn golden_retry() -> RetryPolicy {
    RetryPolicy {
        jitter: 0.0,
        ..RetryPolicy::default()
    }
}

/// The golden workload's ops: 120 seed-derived puts (1–96 random bytes),
/// gets and deletes, one third each, over 24 keys.
pub fn golden_ops(seed: u64) -> Vec<Op> {
    let mut rng = SimRng::seed_from(seed ^ 0x5eed);
    let mut op = || {
        let key = rng.gen_range(24) as u8;
        match rng.gen_range(3) {
            0 => {
                let mut v = vec![0u8; 1 + rng.gen_range(96) as usize];
                rng.fill_bytes(&mut v);
                Op::Put(key, v)
            }
            1 => Op::Get(key),
            _ => Op::Delete(key),
        }
    };
    (0..GOLDEN_OPS).map(|_| op()).collect()
}

/// The golden single-client chaos workload pinned by `tests/determinism.rs`
/// (digest) and `tests/obs.rs` (stage sums): arms `server`, connects the
/// client and runs every op synchronously. Returns the client and one
/// `op{i}:{outcome};` entry per op.
pub fn golden_run(
    server: &mut PrecursorServer,
    seed: u64,
    trace_cap: usize,
) -> (PrecursorClient, String) {
    golden_server(server, seed, trace_cap);
    let mut client = PrecursorClient::connect(server, seed ^ 0xc11e).expect("connect");
    client.enable_tracing(trace_cap);
    client.set_retry_policy(golden_retry());
    let mut trace = String::new();
    for (i, op) in golden_ops(seed).into_iter().enumerate() {
        let outcome = match op {
            Op::Put(k, v) => format!("{:?}", client.put_sync(server, &[k], &v)),
            Op::Get(k) => format!("{:?}", client.get_sync(server, &[k])),
            Op::Delete(k) => format!("{:?}", client.delete_sync(server, &[k])),
        };
        let _ = write!(trace, "op{i}:{outcome};");
    }
    (client, trace)
}
