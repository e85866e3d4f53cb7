//! Linearizability: the Wing–Gong checker over multi-client histories, on
//! one server across shard counts and across cluster nodes.
//!
//! Both sweeps are rows of the scenario harness (`tests/scenario/mod.rs`):
//! four closed-loop clients pipeline 2–3 ops per round over six keys, so
//! ops on one key constantly overlap in real time and cross shard and node
//! boundaries. The migrate row moves the hottest key's ring segment at
//! mid-run over 1, 2 or 4 nodes: in-flight ops straddle the fence, complete
//! with a sealed `NotMine` redirect and are re-issued with a fresh oid at
//! the owner while their history entry stays open. The kill row loses a
//! seed-derived node's machine (R = 2) between two rounds: a dead node
//! keeps its ranges and no acked write is lost. Every history, closed by a
//! read-back of every key, must admit a sequential witness.
//!
//! The checker and the harness are shown to see real violations: scripted
//! non-linearizable histories, a source acking a write for a range it
//! fenced away, and a bare node restarted from a stale checkpoint.

use precursor::cluster::MigrationOutcome;
use precursor::wire::Status;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::wing_gong::{check_history, HistOp, Kind};
use scenario::{sweep, Event, Pick, Run, Scenario};

// Four pipelining clients over six keys; on more than one node the hot
// range migrates at mid-run.
fn migrating(seed: u64, nodes: usize) -> Scenario {
    let migrate = Event::Migrate {
        key: Pick::Hot,
        fault: None,
    };
    Scenario {
        nodes,
        clients: 4,
        keys: 6,
        events: vec![(50, migrate)],
        ..Scenario::new(seed)
    }
}

// The same workload on three nodes of R = 2; a seed-derived node's machine
// is lost at a seed-derived op.
fn killing(seed: u64) -> Scenario {
    let at = 10 + (seed * 37 % 80) as usize;
    let (node, batch) = ((seed % 3) as usize, usize::MAX);
    Scenario {
        nodes: 3,
        replicas: 2,
        clients: 4,
        keys: 6,
        events: vec![(at, Event::FailNode { node, batch })],
        ..Scenario::journaled(seed)
    }
}

fn overlapping(run: &Run) -> bool {
    let h = &run.history;
    h.iter().enumerate().any(|(i, a)| {
        h[i + 1..]
            .iter()
            .any(|b| a.invoke < b.response && b.invoke < a.response)
    })
}

// --- sweeps -------------------------------------------------------------

#[test]
fn multi_shard_histories_are_linearizable() {
    sweep("wing-gong-n1", |seed| migrating(seed, 1), |_| {});
}

#[test]
fn cluster_histories_are_linearizable_with_migration_in_flight() {
    let (mut fenced, mut redirects) = (0, 0);
    for nodes in [2, 4] {
        let kind = format!("wing-gong-n{nodes}");
        let check = |run: &Run| assert!(run.aborts.is_empty(), "fault-free migrations never abort");
        for run in sweep(&kind, |seed| migrating(seed, nodes), check) {
            fenced += run.fences.len();
            redirects += run.redirects;
        }
    }
    // The sweep must exercise what it claims to test: fences commit
    // mid-run and stale caches are redirected.
    assert!(fenced > 0, "no migration fenced across the sweep");
    assert!(redirects > 0, "no sealed redirect fired across the sweep");
}

#[test]
fn killing_a_node_between_rounds_loses_no_acked_write() {
    let runs = sweep("wing-gong-kill", killing, |run| {
        assert_eq!(run.failovers.len(), 1);
        assert!(
            !run.failovers[0].stale,
            "rounds drain: the quorum holds all"
        );
    });
    for run in runs.iter().take(3) {
        assert_eq!(*run, killing(run.seed).run_ok(), "seed {}", run.seed);
    }
}

#[test]
fn histories_exercise_real_concurrency() {
    // Sanity: the harness records overlapping ops (otherwise the checker
    // never faces a choice and the suite proves nothing).
    assert!(overlapping(&migrating(0xC0, 1).run_ok()));
}

#[test]
fn cluster_histories_exercise_real_concurrency() {
    // Overlapping ops exist even with redirect re-issues keeping entries
    // open.
    assert!(overlapping(&migrating(0xC0, 4).run_ok()));
}

#[test]
fn cluster_runs_replay_bit_identically() {
    for (nodes, seed) in [(1, 5), (2, 3), (4, 11)] {
        let run = migrating(seed, nodes).run_ok();
        assert_eq!(run, migrating(seed, nodes).run_ok(), "nodes={nodes}");
    }
}

// --- the checker and the harness see real violations --------------------

fn put_at(key: u8, val: &[u8], invoke: u64, response: u64) -> HistOp {
    HistOp {
        key,
        kind: Kind::Put(val.to_vec()),
        invoke,
        response,
    }
}

fn get_at(key: u8, obs: Option<&[u8]>, invoke: u64, response: u64) -> HistOp {
    HistOp {
        key,
        kind: Kind::Get(obs.map(<[u8]>::to_vec)),
        invoke,
        response,
    }
}

#[test]
fn checker_accepts_sequential_and_concurrent_witnesses() {
    // Sequential: put then read-back.
    assert!(check_history(&[put_at(1, b"a", 0, 1), get_at(1, Some(b"a"), 2, 3)]).is_ok());
    // Concurrent get may linearize before OR after the overlapping put.
    assert!(check_history(&[put_at(1, b"a", 0, 3), get_at(1, None, 1, 2)]).is_ok());
    assert!(check_history(&[put_at(1, b"a", 0, 3), get_at(1, Some(b"a"), 1, 2)]).is_ok());
}

#[test]
fn checker_rejects_non_linearizable_histories() {
    // Lost update: a completed put must be visible to a later get.
    assert!(check_history(&[put_at(1, b"a", 0, 1), get_at(1, None, 2, 3)]).is_err());
    // Phantom value: a get may never observe a value nobody wrote.
    assert!(check_history(&[put_at(1, b"a", 0, 1), get_at(1, Some(b"b"), 2, 3)]).is_err());
    // Stale rewind: once a newer value is observed, an older one may not
    // reappear for a strictly later read.
    assert!(check_history(&[
        put_at(1, b"a", 0, 1),
        put_at(1, b"b", 2, 3),
        get_at(1, Some(b"b"), 4, 5),
        get_at(1, Some(b"a"), 6, 7),
    ])
    .is_err());
    // Delete visibility: a completed delete hides the value from later
    // reads.
    assert!(check_history(&[
        put_at(1, b"a", 0, 1),
        HistOp {
            key: 1,
            kind: Kind::Delete(true),
            invoke: 2,
            response: 3
        },
        get_at(1, Some(b"a"), 4, 5),
    ])
    .is_err());
}

#[test]
fn checker_catches_a_write_acked_on_the_source_after_the_fence() {
    // After the fence the source is (adversarially) rolled back to the
    // pre-migration ring, so it acks a put for a range it no longer owns.
    // The value is stranded on the source — cluster-routed reads go to
    // the real owner and never see it — and the checker must reject the
    // merged history.
    let mut h = Scenario {
        nodes: 2,
        ..Scenario::new(0xBAD_5EED)
    }
    .build();
    let old_ring = h.cluster.meta().snapshot();
    let stale = h.connect(0x51a1e).expect("connect"); // routes by epoch 1
    let key = [3u8];
    let from = h.cluster.meta().lookup(&key).0;
    h.put(0, &key, b"old").expect("put old");
    assert!(h.cluster.start_migration(&key, 1 - from).expect("start"));
    while !matches!(h.cluster.pump_migration(8), MigrationOutcome::Fenced(_)) {}

    // The stale cache routes to the source, whose sealed hint refreshes
    // it; the new owner serves the value.
    let read = h.clients[0].get_sync(&mut h.cluster, &key);
    assert_eq!(read.expect("get"), b"old");
    assert!(h.clients[0].stats().redirects >= 1, "fence redirected");

    // Adversarial rollback of the source's routing view: a client whose
    // cache predates the fence reaches the source, which acks.
    h.cluster
        .node_mut(from as usize)
        .install_routing(from, old_ring);
    assert_eq!(h.put(stale, &key, b"new").expect("put").status, Status::Ok);

    // The real owner never saw the stranded write.
    let read = h.clients[0].get_sync(&mut h.cluster, &key);
    assert_eq!(read.expect("get"), b"old");
    let history = [
        put_at(3, b"old", 0, 1),
        get_at(3, Some(b"old"), 2, 3),
        put_at(3, b"new", 4, 5),
        get_at(3, Some(b"old"), 6, 7),
    ];
    let err = check_history(&history).expect_err("stale ack must be flagged");
    assert!(err.contains("no linearization"), "unexpected error: {err}");
}

#[test]
fn scenario_rejects_a_source_that_still_owns_a_fenced_range() {
    // The same host attack as a seeded row: once the range has fenced
    // away, the source's view is rolled back and the one-owner oracle
    // fails the run before the stale view can ack anything.
    let mut s = Scenario {
        nodes: 2,
        keys: 4,
        ops: 40,
        ..Scenario::new(0x57a1e)
    };
    let key = s.live_key_at(10);
    s.events = vec![
        (
            10,
            Event::Migrate {
                key: Pick::Key(key),
                fault: None,
            },
        ),
        (20, Event::StaleRouting(s.owner(key))),
    ];
    let v = s
        .run()
        .expect_err("a rolled-back routing view is a violation");
    assert_eq!(v.run.fences.len(), 1, "the range fenced first");
    assert!(v.what.contains("2 owners"), "{}", v.what);
}

#[test]
fn scenario_rejects_a_read_of_an_overwritten_value() {
    // A bare node restarted from a checkpoint that predates an overwrite:
    // the client that wrote it reads the key back first, and its rollback
    // check rejects the reply of the older state.
    let s = Scenario {
        keys: 1,
        ops: 12,
        events: vec![(4, Event::Checkpoint), (12, Event::Restart(0))],
        // Seed 1's op stream overwrites the key between op 4 and op 12.
        ..Scenario::new(1)
    };
    let v = s.run().expect_err("a lost overwrite is a violation");
    let rejected = "c0 get 0 at node 0: unflagged stale promotion or restart";
    assert!(v.what.contains(rejected), "{}", v.what);
}
