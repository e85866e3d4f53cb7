//! **Figure 4** — throughput under varying read/update mixes: read-only
//! (YCSB C), read-mostly 95 % (YCSB B), mixed 50 % (YCSB A), update-mostly
//! 5 % read; 32 B values, 50 clients, 12 server threads.
//!
//! Paper numbers (Kops): Precursor 1,149 / 1,096 / 849 / 781; Precursor
//! server-encryption 817 / 781 / 677 / 631; ShieldStore 120 / 114 / 103 /
//! 97 — i.e. Precursor is 5.9×–8.5× ShieldStore and up to 40 % above its
//! own server-encryption variant.

use precursor_bench::{banner, kops, print_table, repeat, write_csv, Scale};
use precursor_sim::CostModel;
use precursor_ycsb::driver::{BenchSession, SystemKind};
use precursor_ycsb::workload::WorkloadSpec;

const VALUE: usize = 32;
const CLIENTS: usize = 50;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 4: throughput across read ratios (32 B, 50 clients)",
        "Precursor 1149/1096/849/781 Kops; server-enc 817/781/677/631; ShieldStore 120/114/103/97",
        &scale,
    );
    let cost = CostModel::default();
    let ratios = [
        ("100% read", 1.0),
        ("95% read", 0.95),
        ("50% read", 0.5),
        ("5% read", 0.05),
    ];
    let paper: [[f64; 4]; 3] = [
        [1_149.0, 1_096.0, 849.0, 781.0],
        [817.0, 781.0, 677.0, 631.0],
        [120.0, 114.0, 103.0, 97.0],
    ];

    let mut rows = Vec::new();
    let mut measured = [[0.0f64; 4]; 3];
    for (si, system) in [
        SystemKind::Precursor,
        SystemKind::PrecursorServerEnc,
        SystemKind::ShieldStore,
    ]
    .into_iter()
    .enumerate()
    {
        let mut session = BenchSession::new(
            system,
            VALUE,
            scale.warmup_keys,
            scale.warmup_keys,
            CLIENTS,
            0xF164,
            &cost,
        );
        for (ri, (label, ratio)) in ratios.iter().enumerate() {
            let spec = WorkloadSpec::with_read_ratio(*ratio, VALUE, scale.warmup_keys);
            let (mean, spread) = repeat(scale.repetitions, |_| {
                session
                    .measure(&spec, CLIENTS, scale.measure_ops)
                    .throughput_ops
            });
            measured[si][ri] = mean;
            rows.push(vec![
                system.name().to_string(),
                label.to_string(),
                kops(mean),
                format!("{:.0}", paper[si][ri]),
                format!("{:+.0}%", (mean / 1000.0 / paper[si][ri] - 1.0) * 100.0),
                format!("{:.1}%", spread * 100.0),
            ]);
        }
    }
    print_table(
        &[
            "system",
            "workload",
            "Kops (ours)",
            "Kops (paper)",
            "delta",
            "spread",
        ],
        &rows,
    );
    write_csv(
        "fig4_workloads",
        &[
            "system",
            "workload",
            "kops",
            "paper_kops",
            "delta_pct",
            "spread_pct",
        ],
        &rows,
    );

    println!();
    for (ri, (label, _)) in ratios.iter().enumerate() {
        let speedup = measured[0][ri] / measured[2][ri];
        let over_server_enc = (measured[0][ri] / measured[1][ri] - 1.0) * 100.0;
        println!(
            "{label:>10}: Precursor = {speedup:.1}x ShieldStore (paper 5.9–8.5x), \
             {over_server_enc:+.0}% vs server-encryption (paper up to +40%)"
        );
    }
    // The headline claim must reproduce.
    let min_speedup = (0..4)
        .map(|ri| measured[0][ri] / measured[2][ri])
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_speedup > 4.0,
        "Precursor must clearly beat ShieldStore (got {min_speedup:.1}x)"
    );
    // And every point must stay near the paper's: the fixed occupancies
    // were fitted at these anchors on the paper-poller scan basis
    // (DESIGN.md §4), so a drifted basis shows up here first.
    for (ours, theirs) in measured.iter().flatten().zip(paper.iter().flatten()) {
        let delta = ours / 1000.0 / theirs - 1.0;
        assert!(
            delta.abs() < 0.2,
            "{ours:.0} ops/s vs the paper's {theirs} Kops"
        );
    }
}
