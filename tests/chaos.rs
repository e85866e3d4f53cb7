//! Chaos tests: deterministic fault injection against the full recovery
//! protocol. The seeded sweeps are rows of the one scenario harness
//! (`tests/scenario/mod.rs`, whose five oracles run on every row): the
//! chaos row mixes every fault class with periodic crash-restarts, the
//! compaction-crash row tears a journal cut at each of its durable writes,
//! and the migration-crash row kills or tampers with a live migration's
//! source. The scripted scenarios below exercise one fault at a time.

use std::collections::HashMap;

use precursor::cluster::MigrationOutcome;
use precursor::wire::Status;
use precursor::{
    CompactOutcome, Config, GroupCommitPolicy, HostAct, HostFilter, HostMove, HostPlan, HostSite,
    PrecursorClient, PrecursorServer, ReplicaGroup, StoreError,
};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::CostModel;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{sweep, Event, Harness, Pick, Run, Scenario};

// A fault schedule mixing every class: scripted one-shots early on (so
// short runs still see each class) plus background rates. Corruption is
// injected only on the reply direction: a corrupted *request* payload is
// by design undetectable until read back (the client MACs it before
// sending), which would poison the model comparison.
fn chaos_plan() -> HostPlan {
    use {HostFilter::*, HostMove::*, HostSite::Write};
    HostPlan::none()
        .rule(Write, AtoB, Drop, 5)
        .rule(Write, BtoA, Drop, 9)
        .rule(Write, BtoA, Corrupt, 17)
        .rule(Write, AtoB, QpError, 23)
        .rate(Write, AtoB, Drop, 0.002)
        .rate(Write, BtoA, Drop, 0.002)
        .rate(Write, BtoA, Corrupt, 0.001)
        .rate(Write, Any, QpError, 0.0002)
}

// A plan making `mv` on the `at`-th event at `site` that `filter` counts.
fn one(site: HostSite, filter: HostFilter, mv: HostMove, at: u64) -> HostPlan {
    HostPlan::none().rule(site, filter, mv, at)
}

// A bare server whose host, seeded from `seed`, makes `mv` on the `at`-th
// event at `site` that `filter` counts.
fn hosted(site: HostSite, filter: HostFilter, mv: HostMove, at: u64, seed: u64) -> PrecursorServer {
    let mut server = PrecursorServer::new(Config::default(), &CostModel::default());
    server.set_host_plan(one(site, filter, mv, at), seed);
    server
}

// The chaos row: one bare node under `host`, checkpointed and
// crash-restarted every `restart_every` ops (0 = never).
fn chaos(seed: u64, ops: usize, host: HostPlan, restart_every: usize) -> Scenario {
    let restarts = (1..=ops).filter(|i| restart_every != 0 && i.is_multiple_of(restart_every));
    let events = restarts
        .flat_map(|i| [(i, Event::Checkpoint), (i, Event::Restart(0))])
        .collect();
    Scenario {
        ops,
        host,
        events,
        ..Scenario::new(seed)
    }
}

// --- scripted single-fault scenarios ------------------------------------

#[test]
fn dropped_request_is_retransmitted_and_applied() {
    // The very first client request WRITE vanishes silently.
    let mut server = hosted(HostSite::Write, HostFilter::AtoB, HostMove::Drop, 1, 7);
    let mut client = PrecursorClient::connect(&mut server, 7).unwrap();

    client
        .put_sync(&mut server, b"k", b"survives a lost request")
        .unwrap();
    assert!(client.retransmits() >= 1, "deadline must have fired");
    assert_eq!(server.host_log().len(), 1);
    assert_eq!(
        client.get_sync(&mut server, b"k").unwrap(),
        b"survives a lost request"
    );
}

#[test]
fn a_move_armed_after_connect_reaches_the_connected_pair() {
    let mut server = PrecursorServer::new(Config::default(), &CostModel::default());
    let mut client = PrecursorClient::connect(&mut server, 7).unwrap();
    server.set_host_plan(HostPlan::none(), 7);
    client.put_sync(&mut server, b"k", b"before").unwrap();
    // Attached and armed after connect, the drop hits the next request
    // WRITE of the connected pair; the retransmission is served.
    let mut host = server.host().expect("attached");
    host.arm(HostSite::Write, HostFilter::AtoB, HostMove::Drop);
    drop(host);
    client.put_sync(&mut server, b"k", b"after").unwrap();
    assert_eq!(client.retransmits(), 1);
    assert_eq!(client.get_sync(&mut server, b"k").unwrap(), b"after");
    assert_eq!(server.host_log().len(), 1);
}

#[test]
fn dropped_reply_put_is_reacked_same_oid_applied_exactly_once() {
    // B→A write #1 is the first put's reply record: the put executes but
    // its acknowledgement never reaches the client.
    let mut server = hosted(HostSite::Write, HostFilter::BtoA, HostMove::Drop, 1, 11);
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
    // B→A writes: #1 put reply, #2 credit update, #3 delete reply (dropped).
    let mut server = hosted(HostSite::Write, HostFilter::BtoA, HostMove::Drop, 3, 13);
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
    // B→A write #3 is the get's reply; with a 4 KiB value the flipped bit
    // lands in the payload, which only the client-side MAC covers.
    let mut server = hosted(HostSite::Write, HostFilter::BtoA, HostMove::Corrupt, 3, 17);
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
    // A→B writes: #1 first put's record, #2 reply-credit update, #3 the
    // second put's record — which errors the QP instead of landing.
    let mut server = hosted(HostSite::Write, HostFilter::AtoB, HostMove::QpError, 3, 19);
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
    let mut h = Scenario::new(23).build();
    h.put(0, b"acked", b"must survive").unwrap();

    // In-flight mutation, *executed* but unacknowledged: the server polls
    // it (bumping its window and caching the status), checkpoints, then
    // crashes before the client sees the reply.
    let oid = h.session(0).delete(b"acked").unwrap();
    h.group_mut().pump();
    h.group_mut().checkpoint();
    h.cluster.restart_node(0).expect("fresh snapshot restores");
    h.reconnect(0, 0).unwrap();
    // The retransmitted delete falls in the recovered at-most-once window:
    // it is re-acked Ok from the snapshot's cached status, not re-executed
    // (a second execution would answer NotFound).
    assert_eq!(h.complete(0, 0, oid).unwrap().status, Status::Ok);
    assert_eq!(h.get(0, b"acked").unwrap().status, Status::NotFound);

    // Second variant: the crash hits *before* the server consumed the op.
    h.put(0, b"fresh", b"pre-crash").unwrap();
    let oid = h.session(0).put(b"fresh", b"post-crash").unwrap();
    h.group_mut().checkpoint();
    h.cluster.restart_node(0).expect("fresh snapshot restores");
    h.reconnect(0, 0).unwrap();
    // The re-issued put is *fresh* for the recovered window: it executes.
    assert_eq!(h.complete(0, 0, oid).unwrap().status, Status::Ok);
    let fresh = h.get(0, b"fresh").unwrap().value;
    assert_eq!(fresh.as_deref(), Some(&b"post-crash"[..]));
    assert_eq!(h.get(0, b"acked").unwrap().status, Status::NotFound);
}

// --- seeded chaos sweeps -------------------------------------------------

#[test]
fn seeded_chaos_sweep() {
    sweep(
        "chaos",
        |seed| chaos(seed, 160, chaos_plan(), 67),
        |run| {
            assert!(!run.host.is_empty(), "the plan injected nothing");
            assert!(run.restarts.len() >= 2, "expected crashes");
        },
    );
}

#[test]
fn chaos_runs_are_deterministic() {
    let a = chaos(0xdecaf, 400, chaos_plan(), 101).run_ok();
    assert_eq!(a, chaos(0xdecaf, 400, chaos_plan(), 101).run_ok());
    assert!(a.retransmits > 0 && !a.host.is_empty());
}

#[test]
fn faults_disabled_run_is_unperturbed() {
    // With an empty plan the retry machinery must be invisible (the harness
    // already fails a fault-free op that is retried or re-attested): no
    // retransmissions, and the virtual clock never advances (every op
    // completes on its first service round).
    let run = chaos(0x0ff, 400, HostPlan::none(), 0).run_ok();
    assert_eq!(run.retransmits, 0);
    assert!(run.restarts.is_empty());
    assert_eq!(run.clock_ns, 0, "clock advanced in a fault-free run");
    assert!(run.host.is_empty());
}

#[test]
fn chaos_acceptance_10k_mixed_workload() {
    // The acceptance drill: a 10 000-op mixed workload against the full
    // fault schedule with periodic crash-restarts. The oracles hold
    // throughout; here we additionally require every fault class occurred.
    let run = chaos(0xacce97, 10_000, chaos_plan(), 1999).run_ok();
    let has = |site, origin, mv| {
        let hit = |a: &HostAct| (a.site, a.origin, a.mv) == (site, origin, mv);
        run.host.iter().any(|(_, a)| hit(a))
    };
    let (write, drop) = (HostSite::Write, HostMove::Drop);
    assert!(has(write, HostFilter::AtoB, drop), "no dropped request");
    assert!(has(write, HostFilter::BtoA, drop), "no dropped reply");
    assert!(
        has(write, HostFilter::BtoA, HostMove::Corrupt),
        "no corrupted payload"
    );
    let qp_error = |a: &(usize, HostAct)| a.1.mv == HostMove::QpError;
    assert!(run.host.iter().any(qp_error), "no QP error");
    assert!(run.restarts.len() >= 5, "no crash-restarts");
    assert!(run.retransmits > 0);
}

// --- crash-during-compaction sweep --------------------------------------

// A journaled node whose cut is hit by a rotating crash — none (control),
// a torn snapshot seal (abort before the commit point) or a death between
// seal-commit and truncate (wedge) — and then restarted from what
// survived. The harness checks recovery is unchanged by the cut and every
// acked write reads back.
fn compaction_crash(seed: u64) -> Scenario {
    let crash = [
        None,
        Some(HostSite::SnapshotSeal),
        Some(HostSite::CompactTruncate),
    ];
    let crash = crash[(seed % 3) as usize];
    Scenario {
        keys: 16,
        ops: 40,
        events: vec![
            (40, Event::Compact { node: 0, crash }),
            (40, Event::Restart(0)),
        ],
        ..Scenario::journaled(seed)
    }
}

fn check_compaction_crash(run: &Run) {
    let cut = &run.compactions[0];
    let committed = match (cut.crash, &cut.outcome) {
        (
            None,
            CompactOutcome::Compacted {
                truncated_records: 1..,
                base_seq: 1..,
                ..
            },
        ) => true,
        (Some(HostSite::SnapshotSeal), CompactOutcome::Aborted) => false,
        (Some(HostSite::CompactTruncate), CompactOutcome::Wedged { .. }) => true,
        other => panic!("crash and outcome disagree: {other:?}"),
    };
    // The counter advances exactly at the commit point; only a torn
    // truncate wedges the journal, and only a clean cut trims its prefix.
    assert_eq!(cut.counter, u64::from(committed));
    assert_eq!(cut.wedged, cut.crash == Some(HostSite::CompactTruncate));
    assert_eq!(cut.trimmed_bytes > 0, cut.crash.is_none());
    assert_eq!(run.restarts.len(), 1);
}

#[test]
fn compaction_crash_sweep_20_seeds() {
    sweep("compaction-crash", compaction_crash, check_compaction_crash);
}

#[test]
fn compaction_crash_runs_are_deterministic() {
    for seed in [0u64, 1, 2, 5] {
        let run = compaction_crash(seed).run_ok();
        check_compaction_crash(&run);
        assert_eq!(run, compaction_crash(seed).run_ok(), "seed {seed}");
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
    server.set_host_plan(
        one(HostSite::JournalFlush, HostFilter::Any, HostMove::Drop, 4),
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
    server.set_host_plan(
        one(
            HostSite::JournalFlush,
            HostFilter::Any,
            HostMove::Corrupt,
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
    server.set_host_plan(
        one(HostSite::SnapshotSeal, HostFilter::Any, HostMove::Drop, 1),
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
    let log = server.journal().unwrap().log().clone();
    assert_eq!(
        PrecursorServer::recover(
            config.clone(),
            &cost,
            Some(&torn_snapshot),
            &snap_counter,
            &log,
            &epoch_counter,
        )
        .unwrap_err(),
        StoreError::SnapshotRejected
    );

    // Fallback: full journal replay reconstructs everything the snapshot
    // would have covered, plus the post-snapshot write.
    let (mut recovered, report) =
        PrecursorServer::recover(config, &cost, None, &snap_counter, &log, &epoch_counter)
            .expect("journal alone recovers");
    recovered.catchup_step(usize::MAX).expect("journal replays");
    assert!(!report.snapshot_restored);
    assert!(!report.truncated);
    assert_eq!(recovered.len(), server.len());
    assert_eq!(recovered.mutation_seq(), server.mutation_seq());
    assert_eq!(recovered.state_digest(), server.state_digest());
}

// --- migration-crash sweep -----------------------------------------------

// Two or three journaled nodes; after 30 ops the segment of a live key
// starts moving, with its first shipped part torn (a source crash:
// the source then restarts from its journal), corrupted (host tampering,
// rejected by GCM at the destination) or delivered (control). An aborted
// migration is retried clean and must fence, still under load.
fn migration_crash(seed: u64) -> Scenario {
    let mut s = Scenario {
        nodes: 2 + (seed % 2) as usize,
        ops: 60,
        ..Scenario::journaled(seed)
    };
    let key = Pick::Key(s.live_key_at(30));
    let fault = [Some(HostMove::Drop), Some(HostMove::Corrupt), None][(seed % 3) as usize];
    s.events.push((30, Event::Migrate { key, fault }));
    if fault == Some(HostMove::Drop) {
        let Pick::Key(k) = key else { unreachable!() };
        s.events.push((34, Event::Restart(s.owner(k))));
    }
    if fault.is_some() {
        s.events.push((36, Event::Migrate { key, fault: None }));
    }
    s
}

fn check_migration_crash(run: &Run) {
    let faulted = run.seed % 3 != 2;
    assert_eq!(run.aborts.len(), usize::from(faulted), "abort rota");
    assert!(
        run.aborts.iter().all(|r| r.aborted && r.keys_moved == 0),
        "aborts move nothing"
    );
    assert_eq!(run.fences.len(), 1, "exactly one fence per run");
    assert_eq!(run.restarts.len(), usize::from(run.seed.is_multiple_of(3)));
}

#[test]
fn migration_crash_sweep_20_seeds() {
    sweep("migration-crash", migration_crash, check_migration_crash);
}

#[test]
fn migration_crash_runs_are_deterministic() {
    for seed in [0u64, 1, 2] {
        let run = migration_crash(seed).run_ok();
        check_migration_crash(&run);
        assert_eq!(run, migration_crash(seed).run_ok(), "seed {seed}");
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
    h: Harness,
    model: HashMap<u8, Vec<u8>>,
    from: u16,
    to: u16,
    range: Vec<u8>,
}

fn fence_ready(seed: u64, replicas: usize) -> Fence {
    let mut h = Scenario {
        nodes: 2,
        replicas,
        ..Scenario::journaled(seed)
    }
    .build();
    let mut model = HashMap::new();
    for k in 0..120u8 {
        let v = vec![k ^ seed as u8; 40];
        h.clients[0]
            .put_sync(&mut h.cluster, &[k], &v)
            .expect("put");
        model.insert(k, v);
    }
    let ring = h.cluster.meta().ring();
    let in_point = |p: usize| (0..120u8).filter(move |k| ring.point_of(&[*k]) == p);
    let point = (0..ring.point_count())
        .max_by_key(|&p| (in_point(p).count(), std::cmp::Reverse(p)))
        .expect("ring has points");
    let range: Vec<u8> = in_point(point).collect();
    assert!(range.len() >= 2, "fullest segment holds {range:?}");
    let from = ring.point_owner(point);
    let to = 1 - from;
    assert!(h.cluster.start_migration(&[range[0]], to).expect("start"));
    Fence {
        h,
        model,
        from,
        to,
        range,
    }
}

impl Fence {
    fn pump_to_end(&mut self) -> MigrationOutcome {
        loop {
            match self.h.cluster.pump_migration(8) {
                MigrationOutcome::Shipping { .. } => {}
                end => return end,
            }
        }
    }

    // Every acked key reads back, every deleted one is NotFound, and every
    // key has exactly one owner.
    fn settle(&mut self) {
        for k in 0..120u8 {
            let got = self.h.clients[0].get_sync(&mut self.h.cluster, &[k]);
            match self.model.get(&k) {
                Some(v) => assert_eq!(&got.expect("acked write survived"), v, "key {k}"),
                None => assert_eq!(got, Err(StoreError::NotFound), "key {k}"),
            }
            let owners = (0..2).filter(|&n| self.h.cluster.node(n).owns_key(&[k]));
            assert_eq!(owners.count(), 1, "key {k}");
        }
    }

    fn delete(&mut self, k: u8) {
        let client = &mut self.h.clients[0];
        client
            .delete_sync(&mut self.h.cluster, &[k])
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
            let report = f.h.cluster.fail_node(victim as usize, usize::MAX);
            let report = report.expect("promotion");
            assert!(!report.stale, "{what}");
        } else {
            f.h.cluster.restart_node(victim as usize).expect("restart");
        }
        f.h.reconnect(0, victim).expect("reattest");
        f.settle();

        // No resurrection: a moved key deleted at its new owner stays
        // deleted when the range moves back over whatever the source's
        // recovery left behind.
        f.delete(f.range[0]);
        assert!(f
            .h
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
    let epoch = f.h.cluster.meta().ring().epoch();
    // The destination journals one record per install and flushes each:
    // the host tears the second flush (the modelled process dies).
    f.h.cluster.node_mut(f.to as usize).set_host_plan(
        one(HostSite::JournalFlush, HostFilter::Any, HostMove::Drop, 2),
        0x7e4,
    );
    let MigrationOutcome::Aborted(report) = f.pump_to_end() else {
        panic!("installs that never became durable must not flip the ring");
    };
    assert!(report.aborted && report.keys_moved == 0);
    assert!(!f.h.cluster.migration_in_flight(), "staging discarded");
    assert_eq!(f.h.cluster.meta().ring().epoch(), epoch, "ring unflipped");
    assert!(f.h.cluster.node(f.to as usize).journal_wedged());
    for &k in &f.range {
        assert_eq!(
            f.h.cluster.meta().lookup(&[k]).0,
            f.from,
            "source still owns"
        );
        let got = f.h.clients[0].get_sync(&mut f.h.cluster, &[k]);
        assert_eq!(got.as_ref(), Ok(&f.model[&k]), "source still serves {k}");
    }

    // The destination restarts from its journal, which holds the one
    // install that did reach the disk — of a range it does not own.
    f.h.cluster.restart_node(f.to as usize).expect("restart");
    f.h.reconnect(0, f.to).expect("reattest");
    let leftover = f.range[0];
    let held = f.h.cluster.node(f.to as usize).live_keys();
    assert!(held.contains(&vec![leftover]), "first install was durable");
    f.settle();

    // The key is deleted at its owner, then a clean retry fences: the
    // destination installs over a clean range, so the delete holds.
    f.delete(leftover);
    assert!(f
        .h
        .cluster
        .start_migration(&[f.range[1]], f.to)
        .expect("retry"));
    let MigrationOutcome::Fenced(report) = f.pump_to_end() else {
        panic!("clean retry must fence");
    };
    assert_eq!(report.keys_moved, f.range.len() - 1);
    f.settle();
}
