//! Cross-node linearizability: the Wing–Gong checker over histories that
//! span cluster nodes, with a live migration of the hottest key-range in
//! flight.
//!
//! The harness mirrors `tests/linearizability.rs` — four closed-loop
//! clients pipeline 2–3 ops per round over a tiny keyspace — but drives
//! [`ClusterClient`] sessions against a [`PrecursorCluster`], so ops are
//! routed through (possibly stale) location caches. Mid-run the hottest
//! key's ring segment is migrated to another node and pumped inside the
//! drain loop, so in-flight operations straddle the fence: they complete
//! with a sealed `NotMine` redirect (the oid was consumed without
//! executing) and are re-issued with a fresh oid at the hinted owner while
//! their history entry stays open. The per-key histories — merged across
//! every node — must still admit a sequential witness.
//!
//! A seeded non-linearizable witness re-installs the pre-migration ring on
//! the source after the fence so it acks a write for a range it no longer
//! owns; the checker must reject that history, proving the harness can
//! see real violations.
//!
//! The kill-a-node sweep runs the same workload over nodes that are
//! replica groups (R = 2) and loses a seed-derived node's machine between
//! two rounds: a replica is promoted inside the group, the clients
//! re-attest, and the histories — closed by a read-back of every key —
//! must still admit a witness, so a dead node keeps its ranges and no acked
//! write is lost.
//!
//! Environment knobs: `PRECURSOR_SWEEP_SEEDS` — seeds per node count
//! (default 20).

use std::collections::HashMap;

use precursor::cluster::MigrationOutcome;
use precursor::wire::Status;
use precursor::{ClusterClient, Config, GroupCommitPolicy, PrecursorClient, PrecursorCluster};
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

// The Wing–Gong checker, shared with the single-server linearizability
// suite and the failover model checker.
#[path = "wing_gong/mod.rs"]
mod wing_gong;
use wing_gong::{check_history, HistOp, Kind};

const CLIENTS: usize = 4;
const ROUNDS: usize = 10;
const KEYS: u64 = 6;

// --- execution ----------------------------------------------------------

// What one seeded cluster run produced, beyond the history itself.
struct RunOut {
    history: Vec<HistOp>,
    redirects: u64,
    refreshes: u64,
    fenced: u64,
    aborted: u64,
}

// Runs one seeded multi-client workload against an `nodes`-node cluster.
// When `migrate` is set, the hottest key's ring segment starts migrating
// to the next node at the midpoint round and is pumped inside the drain
// loop, so completions race the fence. When `kill` is set, every node is a
// replica group of R = 2 and a seed-derived node's machine is lost before a
// seed-derived round. Every run ends with a read-back of every key.
fn run_history(nodes: usize, seed: u64, migrate: bool, kill: bool) -> RunOut {
    let cost = CostModel::default();
    let config = Config {
        shards: 2,
        max_clients: CLIENTS + 1,
        ..Config::default()
    };
    let mut cluster = if kill {
        PrecursorCluster::replicated(nodes, config, &cost, 2, GroupCommitPolicy::immediate())
    } else {
        PrecursorCluster::new(nodes, config, &cost)
    };
    let kill_round = 1 + (seed >> 8) as usize % (ROUNDS - 1);
    let victim = (seed >> 16) as usize % nodes;
    let mut clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|i| {
            ClusterClient::connect(&mut cluster, seed ^ ((i as u64 + 1) << 16)).expect("connect")
        })
        .collect();
    let mut rng = SimRng::seed_from(seed ^ 0x11ea);
    let mut history: Vec<HistOp> = Vec::new();
    let mut step = 0u64;
    let mut put_counter = 0u64;
    let mut key_heat = [0u64; KEYS as usize];
    let mut fenced = 0u64;
    let mut aborted = 0u64;

    for round in 0..ROUNDS {
        if kill && round == kill_round {
            let report = cluster.fail_node(victim).expect("a replica is promoted");
            assert!(
                !report.stale,
                "rounds drain, so the quorum holds everything"
            );
            // Sessions re-attest in the order the dead primary admitted them.
            let mut admitted: Vec<(u32, usize)> = Vec::new();
            for (c, client) in clients.iter_mut().enumerate() {
                if let Some(session) = client.session_mut(victim as u16) {
                    admitted.push((session.client_id(), c));
                }
            }
            admitted.sort_unstable();
            for (_, c) in admitted {
                clients[c]
                    .reconnect_node(&mut cluster, victim as u16)
                    .expect("reattest");
            }
        }
        // Midpoint: migrate the hottest key's segment to the next node.
        // The heat tally is deterministic, so the migrated range is too.
        if migrate && nodes > 1 && round == ROUNDS / 2 {
            let hot = (0..KEYS as usize)
                .max_by_key(|&i| (key_heat[i], std::cmp::Reverse(i)))
                .expect("nonempty keyspace") as u8;
            let from = cluster.meta().lookup(&[hot]).0;
            let to = (from + 1) % nodes as u16;
            assert!(
                cluster.start_migration(&[hot], to).expect("start"),
                "distinct nodes always migrate"
            );
        }
        let mut pending: Vec<HashMap<(u16, u64), usize>> = vec![HashMap::new(); CLIENTS];
        for (c, client) in clients.iter_mut().enumerate() {
            let depth = 2 + rng.gen_range(2) as usize;
            for _ in 0..depth {
                let key = rng.gen_range(KEYS) as u8;
                key_heat[key as usize] += 1;
                let ((node, oid), kind) = match rng.gen_range(4) {
                    0 | 1 => {
                        put_counter += 1;
                        let mut val = put_counter.to_le_bytes().to_vec();
                        val.push(c as u8);
                        let sub = client
                            .submit_put(&mut cluster, &[key], &val)
                            .expect("put send");
                        (sub, Kind::Put(val))
                    }
                    2 => (
                        client.submit_get(&mut cluster, &[key]).expect("get send"),
                        Kind::Get(None),
                    ),
                    _ => (
                        client
                            .submit_delete(&mut cluster, &[key])
                            .expect("delete send"),
                        Kind::Delete(false),
                    ),
                };
                history.push(HistOp {
                    key,
                    kind,
                    invoke: step,
                    response: u64::MAX,
                });
                step += 1;
                pending[c].insert((node, oid), history.len() - 1);
            }
        }
        // Drain the round while the migration pumps underneath it. A
        // sealed NotMine completion consumed its oid without executing:
        // the op is re-issued with a fresh oid at the hinted owner and its
        // history entry stays open (same invoke time), so redirected ops
        // remain concurrent with everything that overlapped them.
        loop {
            let n = cluster.poll_all();
            if migrate && cluster.migration_in_flight() {
                match cluster.pump_migration(2) {
                    MigrationOutcome::Fenced(_) => fenced += 1,
                    MigrationOutcome::Aborted(_) => aborted += 1,
                    MigrationOutcome::Idle | MigrationOutcome::Shipping { .. } => {}
                }
            }
            let mut reissued = false;
            for (c, client) in clients.iter_mut().enumerate() {
                client.poll_all_replies();
                for (node, comp) in client.take_all_completed() {
                    let i = pending[c]
                        .remove(&(node, comp.oid))
                        .expect("completion known");
                    if comp.status == Status::NotMine {
                        let owner = client.note_redirect(&cluster, &comp).expect("sealed hint");
                        client.ensure_session(&mut cluster, owner).expect("attest");
                        let key = [history[i].key];
                        let session = client.session_mut(owner).expect("ensured");
                        let oid = match &history[i].kind {
                            Kind::Put(v) => session.put(&key, v).expect("re-put"),
                            Kind::Get(_) => session.get(&key).expect("re-get"),
                            Kind::Delete(_) => session.delete(&key).expect("re-delete"),
                        };
                        pending[c].insert((owner, oid), i);
                        reissued = true;
                        continue;
                    }
                    assert!(
                        comp.error.is_none(),
                        "fault-free run must not error: {:?}",
                        comp.error
                    );
                    match &mut history[i].kind {
                        Kind::Put(_) => assert_eq!(comp.status, Status::Ok),
                        Kind::Get(obs) => match comp.status {
                            Status::Ok => *obs = Some(comp.value.clone().expect("get value")),
                            Status::NotFound => *obs = None,
                            s => panic!("unexpected get status {s:?}"),
                        },
                        Kind::Delete(existed) => match comp.status {
                            Status::Ok => *existed = true,
                            Status::NotFound => *existed = false,
                            s => panic!("unexpected delete status {s:?}"),
                        },
                    }
                    history[i].response = step;
                    step += 1;
                }
            }
            if n == 0 && !reissued {
                break;
            }
        }
        for p in &pending {
            assert!(p.is_empty(), "round must drain fully");
        }
    }
    // If the workload finished before the stream did, drain the fence so
    // every run ends in a settled ownership state.
    while cluster.migration_in_flight() {
        match cluster.pump_migration(8) {
            MigrationOutcome::Fenced(_) => fenced += 1,
            MigrationOutcome::Aborted(_) => aborted += 1,
            MigrationOutcome::Idle | MigrationOutcome::Shipping { .. } => {}
        }
    }
    // Read-back: whatever was acked must be what a fresh read observes.
    for key in 0..KEYS as u8 {
        let kind = match clients[0].get_sync(&mut cluster, &[key]) {
            Ok(value) => Kind::Get(Some(value)),
            Err(precursor::StoreError::NotFound) => Kind::Get(None),
            Err(e) => panic!("read-back of key {key} failed: {e:?}"),
        };
        history.push(HistOp {
            key,
            kind,
            invoke: step,
            response: step + 1,
        });
        step += 2;
    }
    let (mut redirects, mut refreshes) = (0u64, 0u64);
    for client in &clients {
        redirects += client.stats().redirects;
        refreshes += client.stats().refreshes;
    }
    RunOut {
        history,
        redirects,
        refreshes,
        fenced,
        aborted,
    }
}

fn sweep_seeds() -> u64 {
    std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

fn mix(seed: u64, nodes: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (nodes as u64) << 52
}

// Digest of everything a run observed, for replay determinism.
fn run_digest(out: &RunOut) -> u64 {
    let mut trace = String::new();
    for op in &out.history {
        use std::fmt::Write as _;
        let _ = write!(
            trace,
            "{}:{:?}@{}..{};",
            op.key, op.kind, op.invoke, op.response
        );
    }
    use std::fmt::Write as _;
    let _ = write!(
        trace,
        "redirects:{};refreshes:{};fenced:{};aborted:{}",
        out.redirects, out.refreshes, out.fenced, out.aborted
    );
    precursor_storage::stable_key_hash(&trace)
}

// --- tests --------------------------------------------------------------

#[test]
fn cluster_histories_are_linearizable_with_migration_in_flight() {
    let seeds = sweep_seeds();
    let mut violations = Vec::new();
    let mut ops_checked = 0usize;
    let mut redirects = 0u64;
    let mut fenced = 0u64;
    for nodes in [1usize, 2, 4] {
        for seed in 0..seeds {
            let out = run_history(nodes, mix(seed, nodes), true, false);
            ops_checked += out.history.len();
            if nodes > 1 {
                redirects += out.redirects;
                fenced += out.fenced;
            }
            assert_eq!(out.aborted, 0, "fault-free migrations never abort");
            if let Err(e) = check_history(&out.history) {
                violations.push(format!("nodes={nodes} seed={seed}: {e}"));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "linearizability violations:\n{}",
        violations.join("\n")
    );
    assert!(ops_checked > 0);
    // The sweep must actually exercise the machinery it claims to test:
    // fences commit mid-run and stale caches are redirected.
    assert!(fenced > 0, "no migration fenced across the sweep");
    assert!(redirects > 0, "no sealed redirect fired across the sweep");
}

#[test]
fn cluster_histories_exercise_real_concurrency() {
    // Sanity: overlapping ops exist even with redirect re-issues keeping
    // entries open (otherwise the checker never faces a choice).
    let out = run_history(4, 0xC0, true, false);
    let overlapping = out.history.iter().enumerate().any(|(i, a)| {
        out.history[i + 1..]
            .iter()
            .any(|b| a.invoke < b.response && b.invoke < a.response)
    });
    assert!(overlapping, "workload must contain concurrent ops");
}

#[test]
fn cluster_runs_replay_bit_identically() {
    for (nodes, seed) in [(2usize, 3u64), (4, 11)] {
        let a = run_digest(&run_history(nodes, mix(seed, nodes), true, false));
        let b = run_digest(&run_history(nodes, mix(seed, nodes), true, false));
        assert_eq!(a, b, "nodes={nodes} seed={seed} run must replay");
    }
}

#[test]
fn killing_a_node_between_rounds_loses_no_acked_write() {
    let mut violations = Vec::new();
    for seed in 0..sweep_seeds() {
        let out = run_history(3, mix(seed, 3), false, true);
        if let Err(e) = check_history(&out.history) {
            violations.push(format!("seed={seed}: {e}"));
        }
        let digest = run_digest(&out);
        println!("kill-a-node seed={seed} digest={digest:#018x}");
        if seed < 3 {
            let again = run_digest(&run_history(3, mix(seed, 3), false, true));
            assert_eq!(digest, again, "seed={seed} run must replay");
        }
    }
    assert!(
        violations.is_empty(),
        "linearizability violations:\n{}",
        violations.join("\n")
    );
}

#[test]
fn checker_catches_a_write_acked_on_the_source_after_the_fence() {
    // Seeded non-linearizable witness: after the fence, the source is
    // (adversarially) rolled back to the pre-migration ring, so it acks a
    // put for a range it no longer owns. The value is stranded on the
    // source — cluster-routed reads go to the real owner and never see it
    // — and the checker must reject the merged history.
    let cost = CostModel::default();
    let config = Config {
        max_clients: 4,
        ..Config::default()
    };
    let mut cluster = PrecursorCluster::new(2, config, &cost);
    let old_ring = cluster.meta().snapshot();
    let mut cc = ClusterClient::connect(&mut cluster, 0xBAD_5EED).expect("connect");
    let key = [3u8];
    let from = cluster.meta().lookup(&key).0;
    let to = (from + 1) % 2;
    let mut history: Vec<HistOp> = Vec::new();
    let mut step = 0u64;
    let mut record = |kind: Kind, step: &mut u64| {
        history.push(HistOp {
            key: key[0],
            kind,
            invoke: *step,
            response: *step + 1,
        });
        *step += 2;
    };

    cc.put_sync(&mut cluster, &key, b"old").expect("put old");
    record(Kind::Put(b"old".to_vec()), &mut step);

    assert!(cluster.start_migration(&key, to).expect("start"));
    while cluster.migration_in_flight() {
        assert!(
            !matches!(cluster.pump_migration(8), MigrationOutcome::Aborted(_)),
            "fault-free migration must fence"
        );
    }

    // Cluster-routed read: the stale cache routes to the source, whose
    // sealed NotMine hint refreshes it; the new owner serves the value.
    assert_eq!(cc.get_sync(&mut cluster, &key).expect("get"), b"old");
    record(Kind::Get(Some(b"old".to_vec())), &mut step);
    assert!(cc.stats().redirects >= 1, "fence must have redirected");

    // Adversarial rollback of the source's routing view.
    cluster
        .node_mut(from as usize)
        .install_routing(from, old_ring);
    let mut stale =
        PrecursorClient::connect(cluster.node_mut(from as usize), 0x51a1e).expect("connect");
    let oid = stale.put(&key, b"new").expect("send");
    let comp = stale
        .complete_sync(cluster.node_mut(from as usize), oid)
        .expect("complete");
    assert_eq!(comp.status, Status::Ok, "the rolled-back source acks");
    record(Kind::Put(b"new".to_vec()), &mut step);

    // The real owner never saw the stranded write.
    assert_eq!(cc.get_sync(&mut cluster, &key).expect("get"), b"old");
    record(Kind::Get(Some(b"old".to_vec())), &mut step);

    let err = check_history(&history).expect_err("stale ack must be flagged");
    assert!(err.contains("no linearization"), "unexpected error: {err}");
}
