//! **Figure 6 (scale)** — closed-loop client scaling from 1k to 100k
//! clients (shards 4 and 8, 32 B values).
//!
//! There is no paper figure at this scale: the testbed tops out at 100
//! clients. This sweep pins the *simulator's* scaling claim instead — the
//! event-wheel scheduler (O(1) schedule/pop), lazy per-client driver
//! state, and doorbell-driven poll sweeps keep the real (wall-clock) cost
//! per simulated operation flat while the fleet grows 100×:
//!
//! * steady-state per-op wall-clock at 100k clients must stay within
//!   1.5× of the 1k-client point (same shard count) — a scan-all sweep
//!   or an eager per-client allocation pass would blow this by orders of
//!   magnitude;
//! * every 100k-client measurement must finish inside a hard in-run
//!   budget (the CI `scale-smoke` job adds its own outer timeout);
//! * per-client driver states allocated ≤ clients that actually ran an
//!   op, and no op report is shed at any scale.
//!
//! Each point runs `REPS` measurement windows on the same warmed session
//! and keeps the **minimum** per-op wall-clock: the first window at 100k
//! clients absorbs one-time noise (first-touch page faults on 200k rings,
//! frequency ramp) that is not scheduler cost, and virtualized CI hosts
//! jitter individual runs by 2-3×. The minimum still pays every per-op
//! cost — state activation, wheel churn, doorbell sweeps — every window
//! re-activates its client states from scratch.
//!
//! Runs at a fixed scale (ignores `PRECURSOR_FULL`): the wall-clock
//! asserts only mean something if every run does the same work.

use std::time::{Duration, Instant};

use precursor_bench::{kops, print_table, write_csv};
use precursor_sim::CostModel;
use precursor_ycsb::driver::{SessionParams, SystemKind};
use precursor_ycsb::workload::WorkloadSpec;

const VALUE: usize = 32;
const KEYS: u64 = 20_000;
const REPS: usize = 3;
// (clients, measured ops): more ops at 100k so per-window fleet setup
// (queue seeding, state table) amortizes fairly.
const POINTS: [(usize, u64); 3] = [(1_000, 5_000), (10_000, 5_000), (100_000, 10_000)];
const SHARDS: [usize; 2] = [4, 8];
// Hard in-run budget for each individual 100k-client window.
const BUDGET_100K: Duration = Duration::from_secs(240);
// Acceptance bound: steady-state per-op wall-clock growth 1k -> 100k.
const MAX_PER_OP_GROWTH: f64 = 1.5;

fn main() {
    println!("================================================================");
    println!("Figure 6 (scale): 1k -> 10k -> 100k closed-loop clients");
    println!("doorbell sweeps, 1 KiB rings, lazy driver state; 32 B values");
    println!("fixed scale (PRECURSOR_FULL ignored): wall-clock asserts");
    println!("================================================================");
    let cost = CostModel::default();
    let spec = WorkloadSpec::workload_c(VALUE, KEYS);

    let mut rows = Vec::new();
    let mut growth: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &shards in &SHARDS {
        let mut per_op_1k: Option<f64> = None;
        for &(clients, ops) in &POINTS {
            let mut session = SessionParams::new(SystemKind::Precursor)
                .value_size(VALUE)
                .keys(KEYS, KEYS)
                .max_clients(clients)
                .ring_bytes(1 << 10)
                .seed(0xF16C)
                .shards(shards)
                .build(&cost);
            let mut best = f64::MAX;
            let mut cold = 0.0f64;
            let mut throughput = 0.0f64;
            let mut active = 0u64;
            for rep in 0..REPS {
                let t = Instant::now();
                let r = session.measure(&spec, clients, ops);
                let wall = t.elapsed();
                let per_op = wall.as_secs_f64() / ops as f64;

                // Lazy-state invariant: states allocated only for clients
                // that ran an op; a window shorter than the fleet must
                // leave most of the fleet unallocated.
                assert!(
                    r.clients_active <= ops.min(clients as u64),
                    "active {} exceeds ops {} (clients {})",
                    r.clients_active,
                    ops,
                    clients
                );
                if (clients as u64) > 2 * ops {
                    assert!(
                        r.clients_active < clients as u64 / 2,
                        "short window activated {} of {} clients",
                        r.clients_active,
                        clients
                    );
                }
                assert_eq!(
                    session.metrics().gauge("server.reports_dropped_total"),
                    0,
                    "op reports shed at {clients} clients"
                );
                if clients == 100_000 {
                    assert!(
                        wall <= BUDGET_100K,
                        "100k-client window took {wall:?} (budget {BUDGET_100K:?})"
                    );
                }
                if rep == 0 {
                    cold = per_op;
                }
                best = best.min(per_op);
                throughput = r.throughput_ops;
                active = r.clients_active;
            }
            match clients {
                1_000 => per_op_1k = Some(best),
                100_000 => {
                    let base = per_op_1k.expect("1k point runs first");
                    growth.push((shards, best / base, base, best));
                }
                _ => {}
            }
            println!(
                "  shards={shards} clients={clients}: best {:.1} us/op (cold {:.1}), {} active",
                best * 1e6,
                cold * 1e6,
                active
            );
            rows.push(vec![
                format!("{shards}"),
                format!("{clients}"),
                format!("{ops}"),
                kops(throughput),
                format!("{active}"),
                format!("{:.1}", best * 1e6),
                format!("{:.1}", cold * 1e6),
            ]);
        }
    }
    print_table(
        &[
            "shards",
            "clients",
            "ops",
            "virtual Kops",
            "active",
            "best us/op",
            "cold us/op",
        ],
        &rows,
    );
    write_csv(
        "fig6_scale_sweep",
        &[
            "shards",
            "clients",
            "ops",
            "virtual_kops",
            "active_clients",
            "best_us_per_op",
            "cold_us_per_op",
        ],
        &rows,
    );
    println!();
    for &(shards, ratio, base, top) in &growth {
        assert!(
            ratio <= MAX_PER_OP_GROWTH,
            "per-op wall-clock grew {ratio:.2}x from 1k to 100k clients \
             ({:.1} us -> {:.1} us, shards={shards})",
            base * 1e6,
            top * 1e6
        );
        println!(
            "  shards={shards}: 1k -> 100k per-op growth {ratio:.2}x \
             ({:.1} us -> {:.1} us)",
            base * 1e6,
            top * 1e6
        );
    }
    println!("scale sweep OK: per-op wall-clock within {MAX_PER_OP_GROWTH}x across 100x clients");
}
