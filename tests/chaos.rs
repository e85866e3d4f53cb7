//! Chaos tests: deterministic fault injection against the full recovery
//! protocol. Every run is driven by seeds — the fault schedule, the
//! workload, and all key material derive from them, so a failing run
//! replays bit-identically.
//!
//! The safety oracles, checked continuously against a plain `HashMap`
//! model:
//!
//! * **No lost acked writes** — once a put/delete is acknowledged, every
//!   later successful read observes it (across retransmissions, QP
//!   reconnects and crash-restarts from sealed snapshots).
//! * **No integrity false-negatives** — a get never *silently* returns
//!   wrong bytes; corruption either heals (retransmission) or surfaces as
//!   [`StoreError::IntegrityViolation`].
//! * **Exactly-once mutation** — a retransmitted put/delete (same `oid`) is
//!   re-acknowledged from the at-most-once window, never re-executed.

use std::collections::HashMap;

use precursor::cluster::MigrationOutcome;
use precursor::wire::Status;
use precursor::{
    ClusterClient, CompletedOp, Config, FaultAction, FaultDir, FaultPlan, FaultSite,
    GroupCommitPolicy, PrecursorClient, PrecursorCluster, PrecursorServer, ReplicaGroup,
    StoreError,
};
use precursor_rdma::faults::InjectedFault;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

// --- workload -----------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

fn random_op(rng: &mut SimRng) -> Op {
    let k = (rng.next_u32() as u8) % 24;
    match rng.gen_range(3) {
        0 => {
            let mut v = vec![0u8; rng.gen_range(200) as usize];
            rng.fill_bytes(&mut v);
            Op::Put(k, v)
        }
        1 => Op::Get(k),
        _ => Op::Delete(k),
    }
}

// A fault schedule mixing every class: scripted one-shots early on (so
// short runs still see each class) plus background rates. Corruption is
// injected only on the reply direction: a corrupted *request* payload is
// by design undetectable until read back (the client MACs it before
// sending), which would poison the model comparison.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 5)
        .rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 9)
        .rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Corrupt, 17)
        .rule(FaultSite::Write, FaultDir::AtoB, FaultAction::QpError, 23)
        .rate(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 0.002)
        .rate(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 0.002)
        .rate(
            FaultSite::Write,
            FaultDir::BtoA,
            FaultAction::Corrupt,
            0.001,
        )
        .rate(
            FaultSite::Write,
            FaultDir::Any,
            FaultAction::QpError,
            0.0002,
        )
}

// --- harness ------------------------------------------------------------

/// Everything observable about a chaos run; two same-seed runs must
/// produce equal reports.
#[derive(Debug, PartialEq)]
struct RunReport {
    retransmits: u64,
    reconnects: u64,
    crash_restarts: u64,
    integrity_detected: u64,
    reports_dropped: u64,
    clock_ns: u64,
    faults: Vec<InjectedFault>,
    final_store: Vec<(u8, Vec<u8>)>,
    store_len: usize,
}

struct Chaos {
    // A bare node: its only durability is the checkpoint after every op.
    group: ReplicaGroup,
    client: PrecursorClient,
    model: HashMap<u8, Vec<u8>>,
    plan: FaultPlan,
    fault_seed: u64,
    reconnects: u64,
    crash_restarts: u64,
    integrity_detected: u64,
    // Accumulated across crash-restarts (each restart starts a fresh
    // server-side registry).
    reports_dropped: u64,
    faults: Vec<InjectedFault>,
}

impl Chaos {
    fn new(config: Config, plan: FaultPlan, seed: u64) -> Chaos {
        let mut group = ReplicaGroup::new(config, &CostModel::default());
        group.primary_mut().set_fault_plan(plan.clone(), seed);
        let client = PrecursorClient::connect(group.primary_mut(), seed ^ 0xc11e).expect("connect");
        group.checkpoint();
        Chaos {
            group,
            client,
            model: HashMap::new(),
            plan,
            fault_seed: seed,
            reconnects: 0,
            crash_restarts: 0,
            integrity_detected: 0,
            reports_dropped: 0,
            faults: Vec::new(),
        }
    }

    // Re-establishes the session; retried because the replacement QP runs
    // through the same fault injector and can itself fail.
    fn reconnect(&mut self) {
        for _ in 0..64 {
            match self.client.reconnect(self.group.primary_mut()) {
                Ok(_) => {
                    self.reconnects += 1;
                    return;
                }
                Err(_) => continue,
            }
        }
        panic!("session could not be re-established in 64 attempts");
    }

    // Simulated server crash: the in-memory server is dropped and rebuilt
    // from the latest sealed snapshot; the client reconnects and recovers
    // its session window out of the snapshot's per-session state.
    fn crash_restart(&mut self) {
        let server = self.group.primary();
        self.faults.extend(server.fault_log());
        self.reports_dropped += server.metrics().counter("server.reports_dropped");
        self.crash_restarts += 1;
        // Derived deterministically so restarted injectors replay too.
        self.fault_seed = self
            .fault_seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.group
            .restart()
            .expect("current snapshot is accepted by the freshness check");
        self.group
            .primary_mut()
            .set_fault_plan(self.plan.clone(), self.fault_seed);
        self.reconnect();
    }

    fn issue(&mut self, op: &Op) -> Result<u64, StoreError> {
        match op {
            Op::Put(k, v) => self.client.put(&[*k], v),
            Op::Get(k) => self.client.get(&[*k]),
            Op::Delete(k) => self.client.delete(&[*k]),
        }
    }

    fn complete(&mut self, oid: u64) -> Result<CompletedOp, StoreError> {
        loop {
            match self.client.complete_sync(self.group.primary_mut(), oid) {
                Err(StoreError::SessionLost) => self.reconnect(),
                other => return other,
            }
        }
    }

    // Drives one operation to a *definitive* outcome, surviving any fault:
    // lost requests/replies retransmit, QP errors and client-side give-ups
    // reconnect (which resynchronises the oid window), detected corruption
    // re-reads. Panics if the op does not converge — that is a test failure.
    fn run_op(&mut self, op: &Op) {
        for _attempt in 0..64 {
            let oid = match self.issue(op) {
                Ok(oid) => oid,
                // RingFull (stalled credits) and QP errors both heal with a
                // fresh session; the failed send rolled the oid back.
                Err(_) => {
                    self.reconnect();
                    continue;
                }
            };
            let completed = match self.complete(oid) {
                Ok(c) => c,
                // Timeout / RetriesExhausted: the op's fate is unknown.
                // Reconnect (resyncing the oid counter with the enclave
                // window) and re-issue it fresh; mutations are safe to
                // repeat — a put rewrites the same value, a delete treats
                // NotFound as applied.
                Err(_) => {
                    self.reconnect();
                    continue;
                }
            };
            if self.settle(op, completed) {
                // A live consumer drains the report stream each op, so a
                // non-overload run must never hit the drop path.
                self.group.primary_mut().take_reports();
                return;
            }
        }
        panic!("operation did not converge within 64 attempts: {op:?}");
    }

    // Applies a completed op to the model when its outcome is definitive.
    // Returns false to re-issue. The asserts are the safety oracles.
    fn settle(&mut self, op: &Op, c: CompletedOp) -> bool {
        match op {
            Op::Put(k, v) => {
                if c.error.is_none() && c.status == Status::Ok {
                    self.model.insert(*k, v.clone());
                    return true;
                }
                false
            }
            Op::Delete(k) => {
                if c.error.is_none() && matches!(c.status, Status::Ok | Status::NotFound) {
                    // NotFound is definitive: the key was absent, or an
                    // earlier uncertain attempt of this delete applied.
                    self.model.remove(k);
                    return true;
                }
                false
            }
            Op::Get(k) => {
                if let Some(e) = c.error {
                    if e == StoreError::IntegrityViolation {
                        // Corruption *detected* — the guarantee held.
                        self.integrity_detected += 1;
                    }
                    return false;
                }
                match c.status {
                    Status::Ok => {
                        let value = c.value.expect("ok get carries a value");
                        assert_eq!(
                            Some(&value),
                            self.model.get(k),
                            "get returned wrong bytes undetected \
                             (lost acked write or integrity false-negative)"
                        );
                        true
                    }
                    Status::NotFound => {
                        assert!(
                            !self.model.contains_key(k),
                            "acked write lost: NotFound for a live key"
                        );
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    // Seals a snapshot of the settled state — the recovery point for the
    // next crash.
    fn checkpoint(&mut self) {
        self.group.checkpoint();
    }

    // Reads back every live key through the full fault path and checks the
    // store agrees with the model exactly.
    fn verify_final(&mut self) {
        let mut keys: Vec<u8> = self.model.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            self.run_op(&Op::Get(k));
        }
        assert_eq!(
            self.group.primary().len(),
            self.model.len(),
            "store and model diverged in size"
        );
    }

    fn report(mut self) -> RunReport {
        let server = self.group.primary();
        self.faults.extend(server.fault_log());
        self.reports_dropped += server.metrics().counter("server.reports_dropped");
        let mut final_store: Vec<(u8, Vec<u8>)> =
            self.model.iter().map(|(k, v)| (*k, v.clone())).collect();
        final_store.sort();
        RunReport {
            retransmits: self.client.retransmits(),
            reconnects: self.reconnects,
            crash_restarts: self.crash_restarts,
            integrity_detected: self.integrity_detected,
            reports_dropped: self.reports_dropped,
            clock_ns: self.client.now().0,
            faults: self.faults,
            store_len: server.len(),
            final_store,
        }
    }
}

fn chaos_run(seed: u64, ops: usize, plan: FaultPlan, crash_every: usize) -> RunReport {
    chaos_run_on(Config::default(), seed, ops, plan, crash_every)
}

fn chaos_run_on(
    config: Config,
    seed: u64,
    ops: usize,
    plan: FaultPlan,
    crash_every: usize,
) -> RunReport {
    let mut h = Chaos::new(config, plan, seed);
    let mut workload = SimRng::seed_from(seed ^ 0x00d1ce);
    for i in 0..ops {
        let op = random_op(&mut workload);
        h.run_op(&op);
        h.checkpoint();
        if crash_every != 0 && (i + 1) % crash_every == 0 {
            h.crash_restart();
        }
    }
    h.verify_final();
    h.report()
}

// --- scripted single-fault scenarios ------------------------------------

#[test]
fn dropped_request_is_retransmitted_and_applied() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // The very first client request WRITE vanishes silently.
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 1),
        7,
    );
    let mut client = PrecursorClient::connect(&mut server, 7).unwrap();

    client
        .put_sync(&mut server, b"k", b"survives a lost request")
        .unwrap();
    assert!(client.retransmits() >= 1, "deadline must have fired");
    assert_eq!(server.injected_faults(), 1);
    assert_eq!(
        client.get_sync(&mut server, b"k").unwrap(),
        b"survives a lost request"
    );
}

#[test]
fn dropped_reply_put_is_reacked_same_oid_applied_exactly_once() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // B→A write #1 is the first put's reply record: the put executes but
    // its acknowledgement never reaches the client.
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 1),
        11,
    );
    let mut client = PrecursorClient::connect(&mut server, 11).unwrap();

    // The client retransmits the identical frame (same oid, same
    // K_operation); the server's at-most-once window re-acks it from the
    // cached status without a second execution.
    client.put_sync(&mut server, b"once", b"v1").unwrap();
    assert!(client.retransmits() >= 1);

    // The expected-oid window advanced exactly once: the next fresh op is
    // accepted (a double execution would have burned an extra oid).
    client.put_sync(&mut server, b"next", b"v2").unwrap();
    assert_eq!(client.get_sync(&mut server, b"once").unwrap(), b"v1");
    assert_eq!(server.len(), 2);

    // A *stale* oid (outside the at-most-once window) is still a replay.
    server.take_reports();
    client.replay_stale_frame().unwrap();
    server.poll();
    let reports = server.take_reports();
    assert_eq!(reports[0].status, Status::Replay);
}

#[test]
fn dropped_reply_delete_is_acked_from_cache_not_reexecuted() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // B→A writes: #1 put reply, #2 credit update, #3 delete reply (dropped).
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 3),
        13,
    );
    let mut client = PrecursorClient::connect(&mut server, 13).unwrap();

    client.put_sync(&mut server, b"k", b"v").unwrap();
    // A re-executed delete would answer NotFound; the cached ack says Ok.
    client.delete_sync(&mut server, b"k").unwrap();
    assert!(client.retransmits() >= 1);
    assert_eq!(
        client.get_sync(&mut server, b"k"),
        Err(StoreError::NotFound)
    );
}

#[test]
fn corrupted_reply_payload_is_detected_by_mac() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // B→A write #3 is the get's reply; with a 4 KiB value the flipped bit
    // lands in the payload, which only the client-side MAC covers.
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Corrupt, 3),
        17,
    );
    let mut client = PrecursorClient::connect(&mut server, 17).unwrap();

    let value = vec![0x5au8; 4096];
    client.put_sync(&mut server, b"big", &value).unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"big"),
        Err(StoreError::IntegrityViolation),
        "one flipped bit in 4 KiB must not pass the CMAC"
    );
    // The *stored* bytes are intact — a clean re-read succeeds.
    assert_eq!(client.get_sync(&mut server, b"big").unwrap(), value);
}

#[test]
fn qp_error_surfaces_session_lost_and_reconnect_preserves_state() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // A→B writes: #1 first put's record, #2 reply-credit update, #3 the
    // second put's record — which errors the QP instead of landing.
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::Write, FaultDir::AtoB, FaultAction::QpError, 3),
        19,
    );
    let mut client = PrecursorClient::connect(&mut server, 19).unwrap();

    client.put_sync(&mut server, b"a", b"1").unwrap();
    match client.put(b"b", b"2") {
        Err(StoreError::Rdma(_)) => {}
        other => panic!("expected an RDMA error, got {other:?}"),
    }
    assert!(client.session_lost());

    // Reconnect re-attests (fresh K_session) and resumes the same oid
    // window — acked state survives, the failed op can simply be re-issued.
    client.reconnect(&mut server).unwrap();
    client.put_sync(&mut server, b"b", b"2").unwrap();
    assert_eq!(client.get_sync(&mut server, b"a").unwrap(), b"1");
    assert_eq!(client.get_sync(&mut server, b"b").unwrap(), b"2");
    assert_eq!(server.len(), 2);
}

#[test]
fn crash_restart_recovers_acked_state_and_inflight_op() {
    let cost = CostModel::default();
    let config = Config::default();
    let mut server = PrecursorServer::new(config.clone(), &cost);
    let mut client = PrecursorClient::connect(&mut server, 23).unwrap();
    let mut counter = MonotonicCounter::new();

    client
        .put_sync(&mut server, b"acked", b"must survive")
        .unwrap();

    // In-flight mutation, *executed* but unacknowledged: the server polls
    // it (bumping its window and caching the status), then crashes before
    // the client sees the reply.
    let oid = client.delete(b"acked").unwrap();
    server.poll();
    let snapshot = server.snapshot(&mut counter);
    drop(server);

    let mut server = PrecursorServer::restore(config.clone(), &cost, &snapshot, &counter)
        .expect("fresh snapshot restores");
    client.reconnect(&mut server).unwrap();
    // The retransmitted delete falls in the recovered at-most-once window:
    // it is re-acked Ok from the snapshot's cached status, not re-executed
    // (a second execution would answer NotFound).
    let done = client.complete_sync(&mut server, oid).unwrap();
    assert_eq!(done.status, Status::Ok);
    assert_eq!(
        client.get_sync(&mut server, b"acked"),
        Err(StoreError::NotFound)
    );

    // Second variant: the crash hits *before* the server consumed the op.
    client
        .put_sync(&mut server, b"fresh", b"pre-crash")
        .unwrap();
    let oid = client.put(b"fresh", b"post-crash").unwrap();
    let snapshot = server.snapshot(&mut counter);
    drop(server);

    let mut server = PrecursorServer::restore(config, &cost, &snapshot, &counter)
        .expect("fresh snapshot restores");
    client.reconnect(&mut server).unwrap();
    // The re-issued put is *fresh* for the recovered window: it executes.
    let done = client.complete_sync(&mut server, oid).unwrap();
    assert_eq!(done.status, Status::Ok);
    assert_eq!(
        client.get_sync(&mut server, b"fresh").unwrap(),
        b"post-crash"
    );
    assert_eq!(
        client.get_sync(&mut server, b"acked"),
        Err(StoreError::NotFound)
    );
}

// --- seeded chaos sweeps -------------------------------------------------

#[test]
fn seeded_chaos_sweep() {
    // ≥20 distinct seeds; every run must satisfy the safety oracles
    // (asserted inside the harness) under a mixed fault schedule with
    // periodic crash-restarts. The shard count rides the seed, so every
    // run also drives the faults across handoff queues. The nightly job
    // widens the sweep through PRECURSOR_SWEEP_SEEDS (e.g. 100 seeds).
    let seeds = std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20u64);
    for i in 0..seeds {
        let seed = i.wrapping_mul(2654435761).wrapping_add(1);
        let config = Config::sharded([1, 2, 4][(seed % 3) as usize]);
        let report = chaos_run_on(config, seed, 160, chaos_plan(), 67);
        assert!(
            !report.faults.is_empty(),
            "seed {seed}: the plan injected nothing"
        );
        assert!(report.crash_restarts >= 2, "seed {seed}: expected crashes");
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    let a = chaos_run(0xdecaf, 400, chaos_plan(), 101);
    let b = chaos_run(0xdecaf, 400, chaos_plan(), 101);
    assert_eq!(a, b, "same seed must replay bit-identically");
    assert!(a.retransmits > 0 && !a.faults.is_empty());
    // The harness drains reports every op; drops only happen under report
    // overload, which faults and crashes alone must never cause.
    assert_eq!(a.reports_dropped, 0);
}

#[test]
fn faults_disabled_run_is_unperturbed() {
    // With an empty plan the retry machinery must be invisible: no
    // retransmissions, no reconnects, and the virtual clock never advances
    // (every op completes on its first service round).
    let report = chaos_run(0x0ff, 400, FaultPlan::none(), 0);
    assert_eq!(report.retransmits, 0);
    assert_eq!(report.reconnects, 0);
    assert_eq!(report.crash_restarts, 0);
    assert_eq!(report.integrity_detected, 0);
    assert_eq!(report.reports_dropped, 0);
    assert_eq!(report.clock_ns, 0, "clock advanced in a fault-free run");
    assert!(report.faults.is_empty());
}

#[test]
fn chaos_acceptance_10k_mixed_workload() {
    // The acceptance drill: a 10 000-op mixed workload against the full
    // fault schedule with periodic crash-restarts. The harness asserts the
    // safety oracles throughout; here we additionally require every fault
    // class actually occurred.
    let report = chaos_run(0xacce97, 10_000, chaos_plan(), 1999);

    let has = |f: &dyn Fn(&InjectedFault) -> bool| report.faults.iter().any(f);
    assert!(
        has(&|f| f.site == FaultSite::Write && f.from_a && f.action == FaultAction::Drop),
        "no dropped request"
    );
    assert!(
        has(&|f| f.site == FaultSite::Write && !f.from_a && f.action == FaultAction::Drop),
        "no dropped reply"
    );
    assert!(
        has(&|f| !f.from_a && f.action == FaultAction::Corrupt),
        "no corrupted payload"
    );
    assert!(has(&|f| f.action == FaultAction::QpError), "no QP error");
    assert!(report.crash_restarts >= 5, "no crash-restarts");
    assert!(report.retransmits > 0);
    assert_eq!(
        report.reports_dropped, 0,
        "a drained report stream must never drop under chaos alone"
    );
}

// --- crash-during-compaction sweep --------------------------------------

// One seeded journaled run whose compaction is hit by a rotating crash
// scenario: clean cut (control), a torn snapshot seal (abort before the
// commit point), or a death between seal-commit and truncate (wedge).
// Every scenario must leave a recovery root whose digest matches the
// pre-compaction state exactly; the fold of all observables is returned
// for run-twice determinism checks.
fn compaction_crash_run(seed: u64) -> u64 {
    use precursor::CompactOutcome;
    use std::fmt::Write as _;

    let mut group = ReplicaGroup::with_replicas(
        Config::default(),
        &CostModel::default(),
        0,
        GroupCommitPolicy::immediate(),
    );
    let server = group.primary_mut();
    let mut client = PrecursorClient::connect(server, seed ^ 0xfade).expect("connect");

    let mut rng = SimRng::seed_from(seed ^ 0xbeef);
    let mut trace = String::new();
    for i in 0..40u32 {
        let k = (rng.next_u32() % 16) as u8;
        if rng.gen_range(4) == 0 {
            let r = client.delete_sync(server, &[k]);
            let _ = write!(trace, "op{i}:del:{};", r.is_ok());
        } else {
            let mut v = vec![0u8; 1 + rng.gen_range(80) as usize];
            rng.fill_bytes(&mut v);
            client.put_sync(server, &[k], &v).expect("put");
            let _ = write!(trace, "op{i}:put;");
        }
    }
    let live = server.state_digest();

    let scenario = seed % 3;
    let plan = match scenario {
        0 => FaultPlan::none(),
        1 => FaultPlan::none().rule(FaultSite::SnapshotSeal, FaultDir::Any, FaultAction::Drop, 1),
        _ => FaultPlan::none().rule(
            FaultSite::CompactTruncate,
            FaultDir::Any,
            FaultAction::Drop,
            1,
        ),
    };
    server.set_fault_plan(plan, seed);

    // The recovery root after the (possibly crashed) compaction: the
    // snapshot that survives, plus the journal bytes left on disk.
    let outcome = group.compact();
    let server = group.primary();
    let counter_after = match outcome {
        CompactOutcome::Compacted {
            truncated_records,
            base_seq,
            ..
        } => {
            assert_eq!(scenario, 0, "seed {seed}: clean run only");
            assert!(truncated_records > 0 && base_seq > 0);
            let _ = write!(trace, "compacted:{truncated_records}:{base_seq};");
            1
        }
        CompactOutcome::Aborted => {
            assert_eq!(scenario, 1, "seed {seed}: torn seal aborts");
            assert!(!server.journal_wedged(), "abort keeps the journal live");
            let _ = write!(trace, "aborted;");
            0
        }
        CompactOutcome::Wedged { base_seq, .. } => {
            assert_eq!(scenario, 2, "seed {seed}: torn truncate wedges");
            assert!(server.journal_wedged());
            assert_eq!(server.journal_trimmed_bytes(), 0, "prefix never cut");
            let _ = write!(trace, "wedged:{base_seq};");
            1
        }
        CompactOutcome::Skipped => panic!("seed {seed}: quiescent journal must not skip"),
    };
    assert_eq!(
        group.snapshot_counter().read(),
        counter_after,
        "seed {seed}: counter advances exactly at the commit point"
    );

    // Restart from what survived: the digest must match the pre-crash
    // state no matter which scenario hit.
    let report = group.restart().expect("surviving root recovers");
    let digest = group.primary().state_digest();
    assert_eq!(
        digest, live,
        "seed {seed}: crash point changed what recovery reconstructs"
    );
    let _ = write!(
        trace,
        "recover:{}:{}:{};digest:{digest:?}",
        report.replayed, report.skipped, report.snapshot_restored,
    );
    precursor_storage::stable_key_hash(&trace)
}

#[test]
fn compaction_crash_sweep_20_seeds() {
    // ≥20 seeds rotating the three compaction crash scenarios; the
    // nightly widens through PRECURSOR_SWEEP_SEEDS like the chaos sweep.
    let seeds = std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20u64);
    for seed in 0..seeds {
        let digest = compaction_crash_run(seed);
        println!(
            "compaction-crash seed={seed} scenario={} digest={digest:#018x}",
            seed % 3
        );
    }
}

#[test]
fn compaction_crash_runs_are_deterministic() {
    for seed in [0u64, 1, 2, 5] {
        assert_eq!(
            compaction_crash_run(seed),
            compaction_crash_run(seed),
            "seed {seed} must replay bit-identically"
        );
    }
}

// --- durable-write crash points (journal flush, snapshot seal) ----------

#[test]
fn torn_journal_flush_wedges_and_recovery_truncates_the_tail() {
    let mut group = ReplicaGroup::with_replicas(
        Config::default(),
        &CostModel::default(),
        0,
        GroupCommitPolicy::immediate(),
    );
    let server = group.primary_mut();
    // JournalFlush events with the immediate policy: #1 the connect's
    // session record, #2/#3 the first two puts, #4 the third put — whose
    // flush the host tears mid-write (the modelled process dies).
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::JournalFlush, FaultDir::Any, FaultAction::Drop, 4),
        29,
    );
    let mut client = PrecursorClient::connect(server, 29).unwrap();
    client.put_sync(server, b"a", b"1").unwrap();
    client.put_sync(server, b"b", b"2").unwrap();

    // The third put executes, but its journal flush is torn: the journal
    // wedges and the reply stays gated — the client never sees an ack.
    let oid = client.put(b"c", b"3").unwrap();
    for _ in 0..4 {
        server.poll();
    }
    client.poll_replies();
    assert!(
        client.take_completed(oid).is_none(),
        "a reply must never outrun its journal record"
    );
    assert!(server.journal_wedged());
    assert_eq!(server.metrics().counter("server.reports_dropped"), 0);

    // Recover from the damaged journal alone: the torn tail is detected
    // (chain tag cannot verify) and truncated, never replayed.
    let report = group
        .restart()
        .expect("truncated journal still replays its valid prefix");
    let server = group.primary_mut();
    assert!(report.truncated, "torn tail must be detected");
    assert!(report.replayed >= 2, "acked puts replayed");
    assert_eq!(server.len(), 2, "unacked torn write is gone");

    // The unacked put is fresh for the recovered at-most-once window: the
    // client's retransmission executes it exactly once.
    client.reconnect(server).unwrap();
    let done = client.complete_sync(server, oid).unwrap();
    assert_eq!(done.status, Status::Ok);
    assert_eq!(client.get_sync(server, b"a").unwrap(), b"1");
    assert_eq!(client.get_sync(server, b"b").unwrap(), b"2");
    assert_eq!(client.get_sync(server, b"c").unwrap(), b"3");
}

#[test]
fn corrupted_journal_flush_is_rejected_at_replay() {
    let mut group = ReplicaGroup::with_replicas(
        Config::default(),
        &CostModel::default(),
        0,
        GroupCommitPolicy::immediate(),
    );
    let server = group.primary_mut();
    // Flush #3 (the second put) lands all its bytes but with one bit
    // flipped — a silent media error rather than a torn write.
    server.set_fault_plan(
        FaultPlan::none().rule(
            FaultSite::JournalFlush,
            FaultDir::Any,
            FaultAction::Corrupt,
            3,
        ),
        31,
    );
    let mut client = PrecursorClient::connect(server, 31).unwrap();
    client.put_sync(server, b"a", b"1").unwrap();
    let oid = client.put(b"b", b"2").unwrap();
    for _ in 0..4 {
        server.poll();
    }
    client.poll_replies();
    assert!(client.take_completed(oid).is_none(), "reply gated");
    assert!(server.journal_wedged());

    let report = group
        .restart()
        .expect("replay stops cleanly at the damaged record");
    assert!(report.truncated, "flipped bit fails the seal, tail dropped");
    assert_eq!(group.primary().len(), 1, "only the intact put survives");
}

#[test]
fn crashed_snapshot_seal_is_rejected_and_journal_covers_recovery() {
    let cost = CostModel::default();
    let config = Config::default();
    let mut server = PrecursorServer::new(config.clone(), &cost);
    let mut epoch_counter = MonotonicCounter::new();
    server.attach_journal(GroupCommitPolicy::immediate(), &mut epoch_counter);
    // The first snapshot seal is torn mid-write.
    server.set_fault_plan(
        FaultPlan::none().rule(FaultSite::SnapshotSeal, FaultDir::Any, FaultAction::Drop, 1),
        37,
    );
    let mut client = PrecursorClient::connect(&mut server, 37).unwrap();
    client.put_sync(&mut server, b"a", b"1").unwrap();
    client.put_sync(&mut server, b"b", b"2").unwrap();
    let mut snap_counter = MonotonicCounter::new();
    let torn_snapshot = server.snapshot(&mut snap_counter);
    client
        .put_sync(&mut server, b"c", b"post-snapshot")
        .unwrap();

    // The torn snapshot cannot unseal — both the plain restore path and
    // the journal-aware recovery reject it outright.
    assert!(
        PrecursorServer::restore(config.clone(), &cost, &torn_snapshot, &snap_counter).is_err()
    );
    let journal = server.journal_durable().unwrap().to_vec();
    assert_eq!(
        PrecursorServer::recover(
            config.clone(),
            &cost,
            Some(&torn_snapshot),
            &snap_counter,
            &journal,
            None,
            &epoch_counter,
        )
        .unwrap_err(),
        StoreError::SnapshotRejected
    );

    // Fallback: full journal replay reconstructs everything the snapshot
    // would have covered, plus the post-snapshot write.
    let (mut recovered, report) = PrecursorServer::recover(
        config,
        &cost,
        None,
        &snap_counter,
        &journal,
        None,
        &epoch_counter,
    )
    .expect("journal alone recovers");
    recovered.catchup_step(usize::MAX).expect("journal replays");
    assert!(!report.snapshot_restored);
    assert!(!report.truncated);
    assert_eq!(recovered.len(), server.len());
    assert_eq!(recovered.mutation_seq(), server.mutation_seq());
    assert_eq!(recovered.state_digest(), server.state_digest());
}

// ---------------------------------------------------------------------------
// Migration chaos: the source of a live key-range migration is killed (or
// its host tampers with a sealed segment) mid-transfer. The abort must
// leave the source the sole owner of the range, a journal-recovered
// replacement must serve every previously-acked write, and a clean retry
// must fence. Oracles: exactly one owner per key at every settle point,
// zero lost acked writes, `reports_dropped == 0` on every node.
// ---------------------------------------------------------------------------

// One seeded migration-chaos run; returns the observable digest for
// run-twice determinism. Scenario rotation (seed % 3): 0 = source crash
// on the first shipped segment (Drop → torn transfer → journal recovery),
// 1 = host tampering (Corrupt → GCM reject at the destination), 2 = clean
// control (the fence commits on the first attempt).
fn migration_crash_run(seed: u64) -> u64 {
    use std::fmt::Write as _;

    let cost = CostModel::default();
    let nodes = 2 + (seed % 2) as usize;
    let config = Config {
        max_clients: 3,
        ..Config::default()
    };
    let mut cluster =
        PrecursorCluster::replicated(nodes, config, &cost, 0, GroupCommitPolicy::immediate());
    let mut client = ClusterClient::connect(&mut cluster, seed ^ 0x919).expect("connect");
    let mut rng = SimRng::seed_from(seed ^ 0x6a7e);
    let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
    let mut trace = String::new();

    let apply = |op: Op,
                 cluster: &mut PrecursorCluster,
                 client: &mut ClusterClient,
                 model: &mut HashMap<u8, Vec<u8>>,
                 trace: &mut String| {
        match op {
            Op::Put(k, v) => {
                client.put_sync(cluster, &[k], &v).expect("put");
                model.insert(k, v);
                let _ = write!(trace, "p{k};");
            }
            Op::Get(k) => {
                let got = client.get_sync(cluster, &[k]);
                match model.get(&k) {
                    Some(v) => assert_eq!(&got.expect("acked write readable"), v),
                    None => assert_eq!(got, Err(StoreError::NotFound)),
                }
                let _ = write!(trace, "g{k};");
            }
            Op::Delete(k) => {
                let got = client.delete_sync(cluster, &[k]);
                if model.remove(&k).is_some() {
                    assert!(got.is_ok(), "acked key must delete");
                } else {
                    assert_eq!(got, Err(StoreError::NotFound));
                }
                let _ = write!(trace, "d{k};");
            }
        }
    };

    // Seed the store so the migrated range is non-empty.
    for _ in 0..30 {
        apply(
            random_op(&mut rng),
            &mut cluster,
            &mut client,
            &mut model,
            &mut trace,
        );
    }
    let settle = |cluster: &PrecursorCluster, model: &HashMap<u8, Vec<u8>>| {
        for k in model.keys() {
            let owners = (0..cluster.node_count())
                .filter(|&n| cluster.node(n).owns_key(&[*k]))
                .count();
            assert_eq!(owners, 1, "key {k} owned by {owners} nodes");
        }
    };
    settle(&cluster, &model);

    // Migrate the range of a live key; scenarios 0/1 kill the first
    // sealed segment (the picked key is live at the source, so the bulk
    // stream always ships at least one).
    let mut live: Vec<u8> = model.keys().copied().collect();
    live.sort_unstable();
    let hot = live[rng.gen_range(live.len() as u64) as usize];
    let from = cluster.meta().lookup(&[hot]).0;
    let to = (from + 1) % nodes as u16;
    let scenario = seed % 3;
    match scenario {
        0 => cluster.set_migrate_fault_plan(
            FaultPlan::none().rule(FaultSite::MigrateShip, FaultDir::Any, FaultAction::Drop, 1),
            seed,
        ),
        1 => cluster.set_migrate_fault_plan(
            FaultPlan::none().rule(
                FaultSite::MigrateShip,
                FaultDir::Any,
                FaultAction::Corrupt,
                1,
            ),
            seed,
        ),
        _ => {}
    }
    assert!(cluster.start_migration(&[hot], to).expect("start"));

    // Serve traffic while the stream pumps; faulted scenarios abort on
    // the first pump, the control scenario fences under load.
    let mut fenced = 0u64;
    let mut aborted = 0u64;
    while cluster.migration_in_flight() {
        for _ in 0..2 {
            apply(
                random_op(&mut rng),
                &mut cluster,
                &mut client,
                &mut model,
                &mut trace,
            );
        }
        match cluster.pump_migration(1 + rng.gen_range(2) as usize) {
            MigrationOutcome::Fenced(r) => {
                fenced += 1;
                let _ = write!(trace, "fence:{}:{};", r.keys_moved, r.delta_reshipped);
            }
            MigrationOutcome::Aborted(r) => {
                aborted += 1;
                assert!(r.aborted && r.keys_moved == 0);
                let _ = write!(trace, "abort:{};", r.segments);
            }
            MigrationOutcome::Idle | MigrationOutcome::Shipping { .. } => {}
        }
    }
    assert_eq!(aborted, u64::from(scenario != 2), "seed {seed}: abort rota");
    settle(&cluster, &model);

    if scenario == 0 {
        // The torn transfer was a source crash: the source restarts from
        // its journal. Every acked write it held must survive.
        let report = cluster
            .restart_node(from as usize)
            .expect("source recovers from its journal");
        let _ = write!(trace, "recover:{}:{};", report.replayed, report.skipped);
        client
            .reconnect_node(&mut cluster, from)
            .expect("reattest source");
    }
    if aborted > 0 {
        // Retry without faults: the migration is restartable after any
        // abort and must fence this time, still under load.
        cluster.set_migrate_fault_plan(FaultPlan::none(), seed);
        let retry = live[rng.gen_range(live.len() as u64) as usize];
        let rfrom = cluster.meta().lookup(&[retry]).0;
        let rto = (rfrom + 1) % nodes as u16;
        assert!(cluster.start_migration(&[retry], rto).expect("restart"));
        while cluster.migration_in_flight() {
            apply(
                random_op(&mut rng),
                &mut cluster,
                &mut client,
                &mut model,
                &mut trace,
            );
            match cluster.pump_migration(2) {
                MigrationOutcome::Fenced(r) => {
                    fenced += 1;
                    let _ = write!(trace, "refence:{}:{};", r.keys_moved, r.delta_reshipped);
                }
                MigrationOutcome::Aborted(_) => panic!("seed {seed}: clean retry aborted"),
                MigrationOutcome::Idle | MigrationOutcome::Shipping { .. } => {}
            }
        }
    }
    assert_eq!(fenced, 1, "seed {seed}: exactly one fence per run");
    settle(&cluster, &model);

    // Zero lost acked writes: every model entry reads back through fresh
    // routing, every deleted/absent key is NotFound, on whatever node now
    // owns it.
    for k in 0..24u8 {
        let got = client.get_sync(&mut cluster, &[k]);
        match model.get(&k) {
            Some(v) => assert_eq!(&got.expect("acked write survived"), v, "key {k}"),
            None => assert_eq!(got, Err(StoreError::NotFound), "key {k}"),
        }
    }
    for i in 0..nodes {
        assert_eq!(
            cluster.node(i).metrics().counter("server.reports_dropped"),
            0,
            "node {i} dropped reply reports"
        );
        let _ = write!(trace, "n{i}:{:?};", cluster.node(i).state_digest());
    }
    let stats = client.stats();
    let _ = write!(
        trace,
        "stats:{}:{}:{};migs:{}:{}",
        stats.ops,
        stats.redirects,
        stats.refreshes,
        cluster.migrations_completed(),
        cluster.migrations_aborted(),
    );
    precursor_storage::stable_key_hash(&trace)
}

#[test]
fn migration_crash_sweep_20_seeds() {
    // ≥20 seeds rotating the three migration-chaos scenarios; the nightly
    // widens through PRECURSOR_SWEEP_SEEDS like the other sweeps.
    let seeds = std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20u64);
    for seed in 0..seeds {
        let digest = migration_crash_run(seed);
        println!(
            "migration-crash seed={seed} scenario={} digest={digest:#018x}",
            seed % 3
        );
    }
}

#[test]
fn migration_crash_runs_are_deterministic() {
    for seed in [0u64, 1, 2] {
        assert_eq!(
            migration_crash_run(seed),
            migration_crash_run(seed),
            "seed {seed} must replay bit-identically"
        );
    }
}

// ---------------------------------------------------------------------------
// Fence × durability: the fence's installs are journaled at the destination
// and committed before the ring flips, so a destination rebuilt from its
// journal — restarted, or a replica promoted after the machine is lost —
// holds the range the ring says it owns, and no crash on either side brings
// a moved or deleted key back to life.
// ---------------------------------------------------------------------------

// Two journaled nodes with `replicas` replicas each, 120 acked keys, and the
// fullest ring segment — `range`, its keys in install order — started on
// its way from `from` to `to`, not yet pumped.
struct Fence {
    cluster: PrecursorCluster,
    client: ClusterClient,
    model: HashMap<u8, Vec<u8>>,
    from: u16,
    to: u16,
    range: Vec<u8>,
}

fn fence_ready(seed: u64, replicas: usize) -> Fence {
    let policy = GroupCommitPolicy::immediate();
    let mut cluster = PrecursorCluster::replicated(
        2,
        Config::default(),
        &CostModel::default(),
        replicas,
        policy,
    );
    let mut client = ClusterClient::connect(&mut cluster, seed).expect("connect");
    let mut model = HashMap::new();
    for k in 0..120u8 {
        let v = vec![k ^ seed as u8; 40];
        client.put_sync(&mut cluster, &[k], &v).expect("put");
        model.insert(k, v);
    }
    let ring = cluster.meta().ring();
    let in_point = |p: usize| (0..120u8).filter(move |k| ring.point_of(&[*k]) == p);
    let point = (0..ring.point_count())
        .max_by_key(|&p| (in_point(p).count(), std::cmp::Reverse(p)))
        .expect("ring has points");
    let range: Vec<u8> = in_point(point).collect();
    assert!(range.len() >= 2, "fullest segment holds {range:?}");
    let from = ring.point_owner(point);
    let to = 1 - from;
    assert!(cluster.start_migration(&[range[0]], to).expect("start"));
    Fence {
        cluster,
        client,
        model,
        from,
        to,
        range,
    }
}

impl Fence {
    fn pump_to_end(&mut self) -> MigrationOutcome {
        loop {
            match self.cluster.pump_migration(8) {
                MigrationOutcome::Shipping { .. } => {}
                end => return end,
            }
        }
    }

    // Every acked key reads back, every deleted one is NotFound, and every
    // key has exactly one owner.
    fn settle(&mut self) {
        for k in 0..120u8 {
            let got = self.client.get_sync(&mut self.cluster, &[k]);
            match self.model.get(&k) {
                Some(v) => assert_eq!(&got.expect("acked write survived"), v, "key {k}"),
                None => assert_eq!(got, Err(StoreError::NotFound), "key {k}"),
            }
            let owners = (0..2).filter(|&n| self.cluster.node(n).owns_key(&[k]));
            assert_eq!(owners.count(), 1, "key {k}");
        }
    }

    fn delete(&mut self, k: u8) {
        self.client
            .delete_sync(&mut self.cluster, &[k])
            .expect("delete");
        self.model.remove(&k);
    }
}

#[test]
fn fenced_range_survives_restart_and_failover_of_either_party() {
    // (replicas per node, the victim is the destination, its machine is lost)
    for (replicas, at_destination, lost) in [
        (0, true, false),
        (0, false, false),
        (2, true, false),
        (2, true, true),
        (2, false, true),
    ] {
        let what = format!("replicas={replicas} destination={at_destination} lost={lost}");
        let mut f = fence_ready(0x5afe, replicas);
        let MigrationOutcome::Fenced(report) = f.pump_to_end() else {
            panic!("{what}: fault-free migration must fence");
        };
        assert_eq!(report.keys_moved, f.range.len(), "{what}");

        let victim = if at_destination { f.to } else { f.from };
        if lost {
            let report = f.cluster.fail_node(victim as usize).expect("promotion");
            assert!(!report.stale, "{what}");
        } else {
            f.cluster.restart_node(victim as usize).expect("restart");
        }
        f.client
            .reconnect_node(&mut f.cluster, victim)
            .expect("reattest");
        f.settle();

        // No resurrection: a moved key deleted at its new owner stays
        // deleted when the range moves back over whatever the source's
        // recovery left behind.
        f.delete(f.range[0]);
        assert!(f
            .cluster
            .start_migration(&[f.range[1]], f.from)
            .expect("back"));
        let MigrationOutcome::Fenced(report) = f.pump_to_end() else {
            panic!("{what}: the range must fence back");
        };
        assert_eq!(report.keys_moved, f.range.len() - 1, "{what}");
        f.settle();
    }
}

#[test]
fn torn_install_flush_aborts_the_fence_and_the_retry_installs_over_a_clean_range() {
    let mut f = fence_ready(0x7e4, 0);
    let epoch = f.cluster.meta().ring().epoch();
    // The destination journals one record per install and flushes each:
    // the host tears the second flush (the modelled process dies).
    f.cluster.node_mut(f.to as usize).set_fault_plan(
        FaultPlan::none().rule(FaultSite::JournalFlush, FaultDir::Any, FaultAction::Drop, 2),
        0x7e4,
    );
    let MigrationOutcome::Aborted(report) = f.pump_to_end() else {
        panic!("installs that never became durable must not flip the ring");
    };
    assert!(report.aborted && report.keys_moved == 0);
    assert!(!f.cluster.migration_in_flight(), "staging discarded");
    assert_eq!(f.cluster.meta().ring().epoch(), epoch, "ring unflipped");
    assert!(f.cluster.node(f.to as usize).journal_wedged());
    for &k in &f.range {
        assert_eq!(f.cluster.meta().lookup(&[k]).0, f.from, "source still owns");
        let got = f.client.get_sync(&mut f.cluster, &[k]);
        assert_eq!(got.as_ref(), Ok(&f.model[&k]), "source still serves {k}");
    }

    // The destination restarts from its journal, which holds the one
    // install that did reach the disk — of a range it does not own.
    f.cluster.restart_node(f.to as usize).expect("restart");
    f.client
        .reconnect_node(&mut f.cluster, f.to)
        .expect("reattest");
    let leftover = f.range[0];
    let held = f.cluster.node(f.to as usize).live_keys();
    assert!(held.contains(&vec![leftover]), "first install was durable");
    f.settle();

    // The key is deleted at its owner, then a clean retry fences: the
    // destination installs over a clean range, so the delete holds.
    f.delete(leftover);
    assert!(f
        .cluster
        .start_migration(&[f.range[1]], f.to)
        .expect("retry"));
    let MigrationOutcome::Fenced(report) = f.pump_to_end() else {
        panic!("clean retry must fence");
    };
    assert_eq!(report.keys_moved, f.range.len() - 1);
    f.settle();
}
