//! The end-to-end run, tracing off: three timed set-ups and a fixed number
//! of fixed-size windows of `BenchSession::measure`.
//!
//! Two clocks. `sim_*` and `epc_pages` are virtual time and modelled state:
//! the same seed gives the same bytes however fast the host is. `host_kops`,
//! `setup_s` and `peak_rss_mb` are the host's; a shared machine only ever
//! slows a run, so each host time is the fastest of its repeats.

use std::time::Instant;

use precursor_obs::MetricsRegistry;
use precursor_sim::{CostModel, Histogram};
use precursor_ycsb::driver::{BenchSession, RunResult};

use crate::report::{Metric, Outcome};
use crate::workloads::Workload;

/// Measured windows per run. Constant: the work is never scaled by time.
pub const WINDOWS: usize = 8;
/// Full set-ups timed per run; the first one is kept for the windows.
const SETUPS: usize = 3;

fn timed_setup(w: &Workload, seed: u64, cost: &CostModel) -> (BenchSession, f64) {
    let start = Instant::now();
    let session = w.session_params(seed).build(cost);
    (session, start.elapsed().as_secs_f64())
}

/// End (exclusive) of the `Histogram` bucket that holds `v`: one bucket per
/// value below 32, then 32 linear sub-buckets per power of two.
fn bucket_end(v: u64) -> u64 {
    if v < 32 {
        return v + 1;
    }
    let shift = 63 - v.leading_zeros() - 5;
    ((v >> shift) + 1) << shift
}

/// The value at quantile `q` in `[0, 1]`: `Histogram::percentile`'s bucket,
/// interpolated between that bucket's own bounds by the share of its samples
/// below `q`. The value never leaves the bucket that holds the quantile, and
/// it moves with the sample counts instead of reading the same 3.1 %-wide
/// bucket's lower bound on every seed.
pub fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    let mut below = 0.0;
    for (low, upto) in h.cdf() {
        if upto >= q {
            let high = bucket_end(low.0).min(h.max().0);
            let share = (q - below) / (upto - below);
            return low.0 as f64 + share * (high - low.0) as f64;
        }
        below = upto;
    }
    h.max().0 as f64
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operations that did not end well between two registry snapshots:
/// every status but `ok`, every get that failed client-side verification,
/// every op the client gave up on.
fn failures(before: &MetricsRegistry, after: &MetricsRegistry, attempted: u64) -> u64 {
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let not_ok = attempted.saturating_sub(delta("status.ok"));
    not_ok + delta("client.verify_fail") + delta("client.op_failures")
}

fn same_sim(a: &RunResult, b: &RunResult) -> bool {
    a.throughput_ops == b.throughput_ops
        && a.duration == b.duration
        && a.latency == b.latency
        && a.stages == b.stages
        && a.epc == b.epc
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// The virtual-time stages of one window, per op: exact, from `RunResult`.
pub fn sim_stage_metrics(r: &RunResult) -> Vec<Metric> {
    use precursor_sim::Stage;
    let per_op = |stage: Stage| r.stages.get(stage).0 as f64 / r.stages.ops as f64;
    vec![
        Metric::lower("sim.client_cpu_ns_op", "ns", per_op(Stage::ClientCpu)),
        Metric::lower(
            "sim.server_critical_ns_op",
            "ns",
            per_op(Stage::ServerCritical),
        ),
        Metric::lower("sim.enclave_ns_op", "ns", per_op(Stage::Enclave)),
        Metric::lower(
            "sim.server_overhead_ns_op",
            "ns",
            per_op(Stage::ServerOverhead),
        ),
        Metric::lower("sim.network_ns_op", "ns", r.avg_network.0 as f64),
        Metric::lower("sim.server_util", "ratio", r.server_utilization),
    ]
}

/// Window 1 of a fresh session, which the per-layer run takes the
/// virtual-time stages from.
pub fn first_window(w: &Workload, seed: u64) -> RunResult {
    let cost = CostModel::default();
    let mut session = w.session_params(seed).build(&cost);
    session.measure(&w.spec(), w.clients, w.window_ops)
}

/// Returns the outcome and window 1.
pub fn run(w: &Workload, seed: u64) -> (Outcome, RunResult) {
    let cost = CostModel::default();
    let spec = w.spec();

    // The first set-up is the one measured: in a one-workload run it builds
    // on the untouched heap of a new process, which is what keeps
    // `peak_rss_mb` the same from run to run (a later set-up reuses freed
    // ring memory, and how much of it the allocator touches again varies).
    let (mut session, secs) = timed_setup(w, seed, &cost);
    let mut setups = vec![secs];
    let before = session.metrics();
    let mut window_secs = Vec::with_capacity(WINDOWS + 1);
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let start = Instant::now();
        windows.push(session.measure(&spec, w.clients, w.window_ops));
        window_secs.push(start.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb();
    let attempted = WINDOWS as u64 * w.window_ops;
    let after = session.metrics();
    drop(session);

    // The second set-up replays window 1: same seed, same virtual time.
    // Its host time is one more candidate for the fastest window.
    let (mut again, secs) = timed_setup(w, seed, &cost);
    setups.push(secs);
    let start = Instant::now();
    let replay = again.measure(&spec, w.clients, w.window_ops);
    window_secs.push(start.elapsed().as_secs_f64());
    drop(again);
    while setups.len() < SETUPS {
        setups.push(timed_setup(w, seed, &cost).1);
    }

    let failed = failures(&before, &after, attempted);
    let deterministic = same_sim(&replay, &windows[0]);

    let sim_ops: u64 = windows.iter().map(|r| r.ops).sum();
    let sim_ns: u64 = windows.iter().map(|r| r.duration.0).sum();
    let mut latency = Histogram::new();
    for r in &windows {
        latency.merge(&r.latency);
    }
    let samples = format!("{} samples", latency.count());
    let mut kops: Vec<f64> = window_secs
        .iter()
        .map(|s| w.window_ops as f64 / s / 1e3)
        .collect();
    let (q1, q2, q3) = quartiles(&mut kops);
    let epc = windows[WINDOWS - 1].epc;

    let metrics = vec![
        Metric::higher("sim_kops", "kops/s", sim_ops as f64 / sim_ns as f64 * 1e6)
            .bound(0.02)
            .note(format!("{sim_ops} ops in {WINDOWS} windows")),
        Metric::lower("sim_p50_us", "us", quantile_ns(&latency, 0.50) / 1e3)
            .bound(0.05)
            .note(samples.clone()),
        Metric::lower("sim_p99_us", "us", quantile_ns(&latency, 0.99) / 1e3)
            .bound(0.10)
            .note(samples),
        Metric::higher(
            "host_kops",
            "kops/s",
            w.window_ops as f64 / fastest(&window_secs) / 1e3,
        )
        .bound(0.25)
        .note(format!(
            "fastest of {} windows; quartiles {q1:.2} {q2:.2} {q3:.2}",
            window_secs.len()
        )),
        Metric::lower("setup_s", "s", fastest(&setups))
            .bound(0.25)
            .note(format!("fastest of {SETUPS} set-ups")),
        Metric::lower("peak_rss_mb", "MiB", rss).bound(0.10),
        Metric::lower("epc_pages", "pages", epc.working_set_pages as f64)
            .bound(0.01)
            .note(format!("{} EPC faults", epc.epc_faults)),
    ];
    if !deterministic {
        println!(
            "{}: replaying window 1 with the same seed gave different sim numbers",
            w.name
        );
    }
    let outcome = Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && deterministic,
    };
    (outcome, replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use precursor_sim::Nanos;

    #[test]
    fn bucket_end_follows_the_histogram_layout() {
        for v in [0u64, 7, 31, 32, 63, 64, 1_000, 10_000, 123_456, 7_000_000] {
            let end = bucket_end(v);
            let mut h = Histogram::new();
            h.record(Nanos(v));
            h.record(Nanos(end - 1));
            assert_eq!(h.cdf().len(), 1, "{v} and {} share a bucket", end - 1);
            h.record(Nanos(end));
            assert_eq!(h.cdf().len(), 2, "{end} starts the next bucket");
        }
    }

    #[test]
    fn quantile_never_lands_in_a_gap() {
        // 990 samples at 10 us, 10 at 1 ms, nothing between.
        let mut h = Histogram::new();
        for _ in 0..990 {
            h.record(Nanos(10_000));
        }
        for _ in 0..10 {
            h.record(Nanos(1_000_000));
        }
        let in_low_bucket = 10_000.0..=bucket_end(10_000) as f64;
        assert!(in_low_bucket.contains(&quantile_ns(&h, 0.50)));
        assert!(in_low_bucket.contains(&quantile_ns(&h, 0.99)));
        assert_eq!(h.percentile(99.0), Nanos(10_000));
        let p995 = quantile_ns(&h, 0.995);
        assert!((h.percentile(99.5).0 as f64..=1_000_000.0).contains(&p995));
    }

    #[test]
    fn quantile_is_monotone_and_ends_at_the_extremes() {
        let mut h = Histogram::new();
        for i in 0..5_000u64 {
            h.record(Nanos(4_000 + (i * 7_919) % 60_000));
        }
        let mut last = quantile_ns(&h, 0.0);
        assert_eq!(last, h.min().0 as f64);
        for step in 1..=1_000 {
            let v = quantile_ns(&h, step as f64 / 1_000.0);
            assert!(v >= last);
            last = v;
        }
        assert_eq!(last, h.max().0 as f64);
    }
}
