//! Observability-layer suite: metrics property tests, trace determinism,
//! the fig8 stage-fraction pin, and the shape of every point of the
//! committed `trajectory` figure (`bench_results/trajectory.csv`).
//!
//! The layer's contract is twofold. First, the primitives are exact or
//! bounded: registry merging is associative and lossless, histogram
//! percentiles track the samples within the bucket error, counters
//! saturate rather than wrap. Second, the taps are *invisible*: with
//! tracing and metrics enabled, a seeded run replays bit-identically (the
//! tracer digest and the registry snapshot are pure functions of the
//! seed), and the golden-digest chaos workload's per-stage sums are
//! pinned here tolerance-free — any drift means either the cost model
//! changed (update the pins and say so) or a tap started perturbing the
//! run (fix it).

use precursor::{Config, PrecursorClient, PrecursorServer};
use precursor_obs::MetricsRegistry;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

#[path = "scenario/mod.rs"]
mod scenario;

// The golden workload `tests/determinism.rs` pins by digest, with tracing
// at `trace_cap`: this file pins its *stage sums*. Returns the finished
// server and client for inspection.
fn golden(seed: u64, trace_cap: usize) -> (PrecursorServer, PrecursorClient) {
    let mut server = PrecursorServer::new(Config::default(), &CostModel::default());
    let (client, _) = scenario::golden_run(&mut server, seed, trace_cap);
    (server, client)
}

#[test]
fn histogram_merge_is_associative_and_lossless() {
    let mut rng = SimRng::seed_from(0xACC);
    let mut parts: Vec<MetricsRegistry> = Vec::new();
    let mut all = MetricsRegistry::default();
    for _ in 0..3 {
        let mut m = MetricsRegistry::default();
        for _ in 0..1_000 {
            let v = rng.gen_range(10_000_000);
            m.observe("lat", v);
            all.observe("lat", v);
        }
        parts.push(m);
    }
    let [a, b, c] = parts.try_into().expect("three parts");

    // (a ⊕ b) ⊕ c
    let mut left = a.clone();
    left.merge(&b);
    left.merge(&c);
    // a ⊕ (b ⊕ c)
    let mut right_inner = b.clone();
    right_inner.merge(&c);
    let mut right = a.clone();
    right.merge(&right_inner);

    assert_eq!(left, right, "merge must be associative");
    // Merging part-wise must equal having observed every sample directly.
    assert_eq!(left, all, "merge must be lossless");
    assert_eq!(left.to_json(), all.to_json());
}

#[test]
fn registry_percentiles_track_the_samples() {
    let mut m = MetricsRegistry::default();
    for v in 1..=10_000 {
        m.observe("ramp", v);
    }
    let h = m.histogram("ramp").expect("observed");
    assert_eq!((h.count(), h.sum()), (10_000, 50_005_000));
    let json = m.to_json();
    // The `"ramp"` object's integer field `key`, as rendered.
    let field = |key: &str| -> u64 {
        let tail = &json[json.find("\"ramp\"").expect("ramp in JSON")..];
        let at = tail.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        let digits = tail[at..].split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect("an integer")
    };
    for (p, key, exact) in [(50.0, "p50", 5_000u64), (99.0, "p99", 9_900)] {
        let (got, rendered) = (h.percentile(p).0, field(key));
        assert_eq!(got, rendered, "{key}: JSON and histogram disagree");
        assert!(got.abs_diff(exact) * 16 <= exact, "{key} {got} vs {exact}");
    }
}

#[test]
fn counters_saturate_instead_of_wrapping() {
    let mut m = MetricsRegistry::default();
    m.inc("sat", u64::MAX - 3);
    m.inc("sat", 10);
    assert_eq!(m.counter("sat"), u64::MAX);
    m.inc("sat", 1);
    assert_eq!(m.counter("sat"), u64::MAX);
}

#[test]
fn trace_digest_is_a_pure_function_of_the_seed() {
    // Tiny ring: the digest must survive eviction, so determinism holds
    // over *all* recorded events, not just the retained window.
    let (s1, c1) = golden(7, 8);
    let (s2, c2) = golden(7, 8);
    assert!(s1.tracer().recorded() > 8, "ring must have evicted");
    assert_eq!(s1.tracer().digest(), s2.tracer().digest());
    assert_eq!(s1.tracer().recorded(), s2.tracer().recorded());
    assert_eq!(c1.tracer().digest(), c2.tracer().digest());
    assert_eq!(c1.tracer().recorded(), c2.tracer().recorded());

    // A different seed must shuffle the event stream.
    let (s3, _c3) = golden(8, 8);
    assert_ne!(s1.tracer().digest(), s3.tracer().digest());

    // Ring capacity must not feed back into the digest.
    let (s4, _c4) = golden(7, 4096);
    assert_eq!(s1.tracer().digest(), s4.tracer().digest());
}

#[test]
fn metrics_snapshot_replays_bit_identically() {
    let (s1, c1) = golden(7, 8);
    let (s2, c2) = golden(7, 8);
    assert_eq!(s1.metrics().to_json(), s2.metrics().to_json());
    assert_eq!(c1.metrics().to_json(), c2.metrics().to_json());
}

#[test]
fn fig8_stage_sums_match_golden_workload_exactly() {
    // Tolerance-free pins of the per-stage ns sums the server taps
    // accumulate over the shards=1 golden-digest workload (seed 7) — the
    // same run tests/determinism.rs pins by digest. These feed the fig8
    // breakdown, so any drift here shifts the published figure.
    let (server, _client) = golden(7, 8);
    let m = server.metrics();
    let sum = |name: &str| m.histogram(name).expect(name).sum();
    let pins = [
        ("stage.client_cpu_ns", GOLDEN_CLIENT_CPU_NS),
        ("stage.server_critical_ns", GOLDEN_SERVER_CRITICAL_NS),
        ("stage.server_overhead_ns", GOLDEN_SERVER_OVERHEAD_NS),
        ("stage.enclave_ns", GOLDEN_ENCLAVE_NS),
        ("stage.network_ns", GOLDEN_NETWORK_NS),
    ];
    for (name, pin) in pins {
        assert_eq!(
            sum(name),
            u128::from(pin),
            "{name} drifted from its golden sum"
        );
    }
    // Conservation: the stage sums add up to the total histogram's sum
    // exactly, because Meter::total() is the sum of its stages.
    let stage_total: u128 = pins.iter().map(|(name, _)| sum(name)).sum();
    assert_eq!(stage_total, sum("stage.total_ns"));
    // Every processed op contributed one sample to every stage histogram.
    let op_count = m.counter("ops.put") + m.counter("ops.get") + m.counter("ops.delete");
    assert_eq!(
        m.histogram("stage.total_ns").expect("total").count(),
        op_count
    );
}

// Server-side meters only: the client's CPU charges live in the client's
// registry, and network time is owned by the replay layer — both are
// structurally zero here and pinned as such on purpose.
const GOLDEN_CLIENT_CPU_NS: u64 = 0;
const GOLDEN_SERVER_CRITICAL_NS: u64 = 26_330;
const GOLDEN_SERVER_OVERHEAD_NS: u64 = 177_434;
const GOLDEN_ENCLAVE_NS: u64 = 84_882;
const GOLDEN_NETWORK_NS: u64 = 0;

const STAGE_SUMS: [&str; 5] = [
    "stage.client_cpu_ns",
    "stage.server_critical_ns",
    "stage.server_overhead_ns",
    "stage.enclave_ns",
    "stage.network_ns",
];

// A pipelined single-client workload: each round submits 8 puts before
// any polling, so one sweep run processes and seals all eight.
#[test]
fn pipelined_run_stage_sums_equal_the_total_exactly() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut client = PrecursorClient::connect(&mut server, 0xFA57).expect("connect");
    for round in 0u8..6 {
        for i in 0u8..8 {
            client.put(&[round * 8 + i], &[i; 48]).expect("put send");
        }
        loop {
            let n = server.poll();
            client.poll_replies();
            if n == 0 {
                break;
            }
        }
        client.take_all_completed();
        server.take_reports();
    }
    let m = server.metrics();
    let sum = |n: &str| m.histogram(n).expect(n).sum();
    let stage_total: u128 = STAGE_SUMS.iter().map(|n| sum(n)).sum();
    assert_eq!(stage_total, sum("stage.total_ns"));
    assert_eq!(m.histogram("stage.total_ns").expect("total").count(), 48);
}

// One `trajectory.csv` point: `fig/label/system`, then every integer cell
// under its header name.
fn trajectory_points() -> Vec<(String, Vec<(&'static str, u64)>)> {
    let mut lines = include_str!("../bench_results/trajectory.csv").lines();
    let header: Vec<&str> = lines.next().expect("a header").split(',').collect();
    let point = |line: &'static str| {
        let cells: Vec<&str> = line.split(',').collect();
        let named = header.iter().zip(&cells);
        let fields = named.filter_map(|(&name, cell)| Some((name, cell.parse().ok()?)));
        (cells[..3].join("/"), fields.collect())
    };
    lines.map(point).collect()
}

#[test]
fn every_driver_point_conserves_its_stages_and_has_a_latency_distribution() {
    // Not produced by the YCSB driver: replica catch-up drains in cluster
    // pump ticks, which do not advance virtual time — the one remaining
    // tick-based point, with no stages and p50 == p99 == ticks-to-drain.
    const TICK_BASED: &str = "failover/catchup/Precursor";
    // One saturated FIFO resource with deterministic service: every op of
    // the closed loop waits behind the same number of others, so the whole
    // distribution falls into one histogram bucket.
    const ONE_BUCKET: [&str; 2] = ["fig6/shards=1/Precursor", "fig9/nodes=1/Precursor"];

    let points = trajectory_points();
    assert_eq!(points.len(), 22, "trajectory points");
    assert_eq!(
        points
            .iter()
            .filter(|(id, _)| id.starts_with("fig9/"))
            .count(),
        3
    );
    for (id, fields) in &points {
        let get = |name: &str| {
            let (_, v) = fields.iter().find(|(k, _)| *k == name).expect(name);
            *v
        };
        let stage_sum: u64 = STAGE_SUMS
            .iter()
            .map(|s| get(s.trim_start_matches("stage.")))
            .sum();
        let (p50, p95, p99) = (get("p50_ns"), get("p95_ns"), get("p99_ns"));
        if id == TICK_BASED {
            assert_eq!((stage_sum, get("total_ns")), (0, 0), "{id}");
            assert!(p50 == p95 && p95 == p99, "{id}");
            continue;
        }
        // Each stage mean is floored separately: the five floors lose less
        // than one nanosecond each against the floored total.
        let total = get("total_ns");
        assert!(total > 0, "{id}: all-zero stages");
        assert!(
            stage_sum <= total && total - stage_sum < STAGE_SUMS.len() as u64,
            "{id}: stages {stage_sum} vs total {total}"
        );
        assert!(p50 <= p95 && p95 <= p99, "{id}: {p50} {p95} {p99}");
        assert_eq!(p50 == p99, ONE_BUCKET.contains(&id.as_str()), "{id}");
    }
}
