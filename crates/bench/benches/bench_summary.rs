//! **Trajectory** — the seeded bench smoke behind the CI regression gate.
//!
//! Runs the fixed-scale evaluation sweep ([`summary::collect`]), writes
//! `bench_results/BENCH_summary.json`, and — when a baseline document is
//! available — diffs the fresh run against it, exiting non-zero on a >5%
//! throughput drop or p99 growth at any point.
//!
//! The baseline is read from `$PRECURSOR_BENCH_BASELINE` if set, else
//! from the output path itself (the committed trajectory point), **before**
//! the fresh document overwrites it.

use std::fs;

use precursor_bench::summary::{self, SUMMARY_SEED};
use precursor_bench::{print_table, results_dir};

fn main() {
    println!("================================================================");
    println!("Bench trajectory: seeded evaluation sweep -> BENCH_summary.json");
    println!("seed: {SUMMARY_SEED:#x} (fixed scale)");
    println!("================================================================");

    let out_path = results_dir().join("BENCH_summary.json");
    let baseline_path = std::env::var("PRECURSOR_BENCH_BASELINE")
        .map(Into::into)
        .unwrap_or_else(|_| out_path.clone());
    // Read before writing: the default baseline is the committed copy of
    // the very file this run regenerates.
    let baseline = fs::read_to_string(&baseline_path).ok();

    let points = summary::collect(SUMMARY_SEED);
    let json = summary::render_json(SUMMARY_SEED, &points);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.fig.to_string(),
                p.label.clone(),
                p.system.to_string(),
                format!("{:.0}", p.throughput_ops),
                format!("{}", p.p50_ns),
                format!("{}", p.p99_ns),
                format!("{}", p.stage_total_ns_per_op),
            ]
        })
        .collect();
    print_table(
        &[
            "fig",
            "label",
            "system",
            "ops/s",
            "p50(ns)",
            "p99(ns)",
            "stage total(ns/op)",
        ],
        &rows,
    );

    if fs::create_dir_all(results_dir()).is_ok() {
        fs::write(&out_path, &json).expect("write BENCH_summary.json");
        println!("(json: {})", out_path.display());
    }

    match baseline {
        // A named baseline that cannot be read is a broken gate, not a first run.
        None if std::env::var_os("PRECURSOR_BENCH_BASELINE").is_some() => {
            panic!(
                "trajectory gate: no baseline at {}",
                baseline_path.display()
            )
        }
        None => println!("no baseline at {} — diff skipped", baseline_path.display()),
        Some(base) => {
            let failures = summary::compare(&base, &json);
            if failures.is_empty() {
                println!("trajectory gate: OK vs {}", baseline_path.display());
            } else {
                eprintln!("trajectory gate: FAILED vs {}", baseline_path.display());
                for f in &failures {
                    eprintln!("  regression: {f}");
                }
                std::process::exit(1);
            }
        }
    }
}
