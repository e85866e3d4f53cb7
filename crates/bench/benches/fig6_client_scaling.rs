//! **Figure 6** — read-only throughput while the client count grows from 10
//! to 100 (32 B values).
//!
//! Paper shape: Precursor peaks around 55 clients and then *declines* —
//! "the decline is due to the resource contention and cache misses in the
//! RNIC" (§5.2) — while ShieldStore stays flat and low.

use precursor_bench::{banner, kops, print_table, repeat, write_csv, Scale};
use precursor_sim::CostModel;
use precursor_ycsb::driver::{BenchSession, SessionParams, SystemKind};
use precursor_ycsb::workload::WorkloadSpec;

const VALUE: usize = 32;
const COUNTS: [usize; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 6: read-only throughput vs client count (32 B values)",
        "Precursor peaks ≈55 clients then declines (RNIC cache misses); ShieldStore flat-low",
        &scale,
    );
    let cost = CostModel::default();
    let spec = WorkloadSpec::workload_c(VALUE, scale.warmup_keys);

    let systems = [
        SystemKind::Precursor,
        SystemKind::PrecursorServerEnc,
        SystemKind::ShieldStore,
    ];
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut rows = Vec::new();
    for (si, system) in systems.into_iter().enumerate() {
        let mut session = BenchSession::new(
            system,
            VALUE,
            scale.warmup_keys,
            scale.warmup_keys,
            *COUNTS.last().expect("nonempty"),
            0xF16,
            &cost,
        );
        for &n in &COUNTS {
            let (mean, _) = repeat(scale.repetitions, |_| {
                session.measure(&spec, n, scale.measure_ops).throughput_ops
            });
            series[si].push(mean);
        }
    }
    for (ci, &n) in COUNTS.iter().enumerate() {
        rows.push(vec![
            format!("{n}"),
            kops(series[0][ci]),
            kops(series[1][ci]),
            kops(series[2][ci]),
        ]);
    }
    print_table(
        &[
            "clients",
            "Precursor Kops",
            "server-enc Kops",
            "ShieldStore Kops",
        ],
        &rows,
    );
    write_csv(
        "fig6_client_scaling",
        &[
            "clients",
            "precursor_kops",
            "server_enc_kops",
            "shieldstore_kops",
        ],
        &rows,
    );

    println!();
    let (peak_idx, peak) = series[0]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("nonempty");
    let at_100 = *series[0].last().expect("nonempty");
    println!(
        "Precursor peak: {} Kops at {} clients (paper: ≈55); at 100 clients {} Kops ({:+.0}% vs peak)",
        kops(*peak),
        COUNTS[peak_idx],
        kops(at_100),
        (at_100 / peak - 1.0) * 100.0
    );
    assert!(
        COUNTS[peak_idx] >= 40 && COUNTS[peak_idx] <= 70,
        "peak should fall near the paper's ~55 clients"
    );
    assert!(at_100 < *peak, "throughput must decline past the peak");

    // --- shard scaling: trusted polling threads at 16 clients (§3.8) ---
    println!();
    banner(
        "Figure 6b: multi-shard trusted polling at 16 clients (32 B values)",
        "one poller core per shard; 16 saturated clients spread over 1/2/4/8 shards",
        &scale,
    );
    const SHARD_CLIENTS: usize = 16;
    const SHARDS: [usize; 4] = [1, 2, 4, 8];
    let mut shard_tput = Vec::new();
    let mut shard_rows = Vec::new();
    for &s in &SHARDS {
        let mut session = SessionParams::new(SystemKind::Precursor)
            .value_size(VALUE)
            .keys(scale.warmup_keys, scale.warmup_keys)
            .max_clients(SHARD_CLIENTS)
            .seed(0xF16B)
            .shards(s)
            .paper_poller(true)
            .build(&cost);
        let (mean, _) = repeat(scale.repetitions, |_| {
            session
                .measure(&spec, SHARD_CLIENTS, scale.measure_ops)
                .throughput_ops
        });
        shard_tput.push(mean);
        let speedup = mean / shard_tput[0];
        shard_rows.push(vec![format!("{s}"), kops(mean), format!("{speedup:.2}x")]);
    }
    print_table(&["shards", "Precursor Kops", "vs 1 shard"], &shard_rows);
    write_csv(
        "fig6_shard_scaling",
        &["shards", "precursor_kops", "speedup"],
        &shard_rows,
    );
    let speedup4 = shard_tput[2] / shard_tput[0];
    println!();
    println!("4-shard speedup over 1 shard at {SHARD_CLIENTS} clients: {speedup4:.2}x");
    assert!(
        speedup4 >= 1.8,
        "4 shards must lift saturated throughput ≥1.8x (got {speedup4:.2}x)"
    );
}
