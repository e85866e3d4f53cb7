//! Determinism regression suite.
//!
//! There is one sweep and `Config::shards == 1` is its N = 1 instance: same
//! seed → bit-identical fault log, adversary log, per-op report stream and
//! operation outcomes. The whole observable run is folded into
//! one FxHash digest (stable across platforms and compiler versions,
//! unlike `DefaultHasher`), compared between repeated runs, between
//! `Config::default()` and `Config::sharded(1)`, and against a golden
//! constant pinning today's behaviour against future refactors.

use std::fmt::Write as _;

use precursor::{
    ClusterClient, Config, GroupCommitPolicy, OpReport, PrecursorCluster, PrecursorServer,
    ReplicaGroup,
};
use precursor_sim::CostModel;
use precursor_storage::stable_key_hash;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{golden_ops, golden_retry, golden_run, golden_server, Op};

// Runs the golden workload (`scenario::golden_run`) and folds every
// observable output into one stable digest.
fn run_digest(config: Config, seed: u64, journaled: bool) -> u64 {
    stable_key_hash(&run_observed(config, seed, journaled).0)
}

// What the server's own taps saw of a run: its metrics and its event trace.
fn taps(server: &PrecursorServer) -> String {
    format!(
        "{}|{}",
        server.metrics().to_json(),
        server.tracer().digest()
    )
}

// The run as `(everything the digest folds, what the server's taps saw)`.
// Tracing is on: the observability taps must be invisible to the run's
// observable behaviour (no RNG draws, no meter charges) — the golden
// digest below holds with the tracer recording every event.
fn run_observed(config: Config, seed: u64, journaled: bool) -> (String, String) {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(config, &cost);
    if journaled {
        // Immediate-mode local journal: every mutation seals and flushes
        // inline, so the group-commit gate never closes and the journal
        // layer draws no RNG — the run must stay bit-identical.
        let mut epoch_counter = precursor_sgx::counters::MonotonicCounter::new();
        server.attach_journal(GroupCommitPolicy::immediate(), &mut epoch_counter);
    }
    let (_client, mut trace) = golden_run(&mut server, seed, 256);
    let reports = server.take_reports();
    fold(&mut trace, &server, &reports);
    (trace, taps(&server))
}

// Folds what the (first) server saw after the ops: its fault and attack
// logs, the report stream of every node, its counters.
fn fold(trace: &mut String, server: &PrecursorServer, reports: &[OpReport]) {
    let _ = write!(trace, "faults:{:?};", server.fault_log());
    let _ = write!(trace, "attacks:{:?};", server.adversary_log());
    for r in reports {
        let _ = write!(
            trace,
            "report:{}:{:?}:{:?}:{}:{};",
            r.client_id, r.opcode, r.status, r.value_len, r.shard
        );
    }
    let _ = write!(
        trace,
        "credits:{};handoffs:{};len:{}",
        server.credit_writes(),
        server.handoffs(),
        server.len()
    );
}

#[test]
fn same_seed_reproduces_bit_identically() {
    for seed in [3u64, 7, 1337] {
        let a = run_digest(Config::default(), seed, false);
        let b = run_digest(Config::default(), seed, false);
        assert_eq!(a, b, "seed {seed} must replay bit-identically");
    }
}

#[test]
fn sharded_one_is_the_default_code_path() {
    for seed in [3u64, 7, 1337] {
        assert_eq!(
            run_digest(Config::default(), seed, false),
            run_digest(Config::sharded(1), seed, false),
            "Config::sharded(1) must be indistinguishable from the default"
        );
    }
}

#[test]
fn single_shard_chaos_run_matches_golden_digest() {
    // Golden value of the shards=1 run at seed 7, recorded when sharding
    // landed. A change here means seeded shards=1 runs no longer reproduce
    // — either an intended behaviour change (re-record the constant and
    // say so in the commit) or an accidental break (fix it). It has
    // survived doorbell-driven sweeps (they change which rings a poll
    // *visits*, never what happens to a visited ring) and the fold of the
    // sequential loop into the three-phase sweep (with one worker and one
    // shard the phases pop, execute, seal and post a ring's records in
    // the same order).
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(run_digest(Config::default(), 7, false), GOLDEN);
}

#[test]
fn journaled_run_matches_golden_digest() {
    // Attaching an immediate-mode sealed journal must be invisible to the
    // run's observable behaviour: journal appends draw no RNG, flush inline
    // (gate never closes), and durable-fault sites filter rates by site
    // before touching the fault RNG stream.
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(run_digest(Config::default(), 7, true), GOLDEN);
}

#[test]
fn journal_replay_reproduces_the_golden_run_state() {
    // Re-run the golden workload journaled, then rebuild a server from the
    // journal bytes alone: replay must reconstruct the store bit-identically
    // (mutation sequence, state digest, live keys).
    let mut group = ReplicaGroup::with_replicas(
        Config::default(),
        &CostModel::default(),
        0,
        GroupCommitPolicy::immediate(),
    );
    golden_run(group.primary_mut(), 7, 256);
    let server = group.primary();
    let live = (server.mutation_seq(), server.state_digest(), server.len());

    let report = group.restart().expect("golden journal replays");
    assert!(!report.truncated, "healthy journal has no torn tail");
    let recovered = group.primary();
    assert_eq!(
        (
            recovered.mutation_seq(),
            recovered.state_digest(),
            recovered.len()
        ),
        live
    );
}

// The cluster flavour of `run_digest`: the identical seeded workload
// driven through `PrecursorCluster` + `ClusterClient`. With a mid-run
// migration when `migrate` is set (nodes ≥ 2), exercising the NotMine
// redirect path inside the digested run.
fn cluster_run_digest(nodes: usize, seed: u64, migrate: bool) -> u64 {
    stable_key_hash(&cluster_run_observed(nodes, seed, migrate, false).0)
}

fn cluster_run_observed(
    nodes: usize,
    seed: u64,
    migrate: bool,
    journaled: bool,
) -> (String, String) {
    let cost = CostModel::default();
    let mut cluster = PrecursorCluster::new(nodes, Config::default(), &cost);
    if journaled {
        for i in 0..nodes {
            cluster
                .group_mut(i)
                .enable_durability(GroupCommitPolicy::immediate());
        }
    }
    golden_server(cluster.node_mut(0), seed, 256);
    let mut client = ClusterClient::connect(&mut cluster, seed ^ 0xc11e).expect("connect");
    client.enable_tracing(256);
    client.set_retry_policy(golden_retry());

    let mut trace = String::new();
    for (i, op) in golden_ops(seed).into_iter().enumerate() {
        if migrate && i as u64 == scenario::GOLDEN_OPS / 3 {
            let hot = [0u8];
            let from = cluster.meta().lookup(&hot).0;
            let to = (from + 1) % nodes as u16;
            cluster.start_migration(&hot, to).expect("start");
        }
        if migrate && i % 7 == 0 {
            let outcome = cluster.pump_migration(3);
            let _ = write!(trace, "mig{i}:{outcome:?};");
        }
        let outcome = match op {
            Op::Put(k, v) => format!("{:?}", client.put_sync(&mut cluster, &[k], &v)),
            Op::Get(k) => format!("{:?}", client.get_sync(&mut cluster, &[k])),
            Op::Delete(k) => format!("{:?}", client.delete_sync(&mut cluster, &[k])),
        };
        let _ = write!(trace, "op{i}:{outcome};");
    }

    let reports: Vec<OpReport> = (0..nodes)
        .flat_map(|n| cluster.node_mut(n).take_reports())
        .collect();
    fold(&mut trace, cluster.node(0), &reports);
    if nodes > 1 {
        // Cluster-only observables (absent from the nodes=1 trace, which
        // must stay byte-identical to the single-server golden trace).
        let stats = client.stats();
        let _ = write!(
            trace,
            ";redirects:{};refreshes:{};epoch:{}",
            stats.redirects,
            stats.refreshes,
            cluster.meta().ring().epoch()
        );
    }
    (trace, taps(cluster.node(0)))
}

#[test]
fn single_node_cluster_matches_the_single_server_golden_digest() {
    // The whole cluster plane — routing gate installed on the node, the
    // location cache, the ClusterClient facade — must be invisible when
    // one node owns the whole ring: bit-identical to the shards=1 golden
    // digest recorded before the cluster existed.
    const GOLDEN: u64 = 12_986_051_342_204_127_709;
    assert_eq!(cluster_run_digest(1, 7, false), GOLDEN);
}

#[test]
fn replica_group_without_replicas_is_the_bare_server() {
    // A cluster node is a replica group; with R = 0 its pump is the
    // primary's poll and its journal the locally committing one, so the
    // run, the server's metrics and its event trace are the bare server's,
    // journaled and not.
    for journaled in [false, true] {
        assert_eq!(
            cluster_run_observed(1, 7, false, journaled),
            run_observed(Config::default(), 7, journaled),
            "journaled={journaled}"
        );
    }
}

#[test]
fn cluster_runs_reproduce_per_seed() {
    // Multi-node runs (with a migration in flight) make no bit-identity
    // promise across node counts, but any fixed (nodes, seed) pair must
    // replay exactly.
    for nodes in [2usize, 4] {
        for seed in [21u64, 22] {
            assert_eq!(
                cluster_run_digest(nodes, seed, true),
                cluster_run_digest(nodes, seed, true),
                "nodes={nodes} seed={seed} must replay bit-identically"
            );
        }
    }
}

#[test]
fn multi_shard_chaos_runs_reproduce_per_seed() {
    // Sharded mode makes no bit-identity promise *across* shard counts,
    // but any fixed (shards, seed) pair must still replay exactly.
    for shards in [2usize, 4] {
        for seed in [21u64, 22] {
            assert_eq!(
                run_digest(Config::sharded(shards), seed, false),
                run_digest(Config::sharded(shards), seed, false),
                "shards={shards} seed {seed} must replay bit-identically"
            );
        }
    }
}
