//! Shared plumbing for the figure-regeneration benches.
//!
//! Each `[[bench]]` target in this crate regenerates one table or figure of
//! the paper's evaluation (§5): it prints the same rows/series the paper
//! reports and mirrors them into `bench_results/*.csv` for plotting.
//!
//! # Scale
//!
//! By default the benches run at a reduced scale (smaller warmup, fewer
//! operations, fewer repetitions) so the whole suite finishes in minutes.
//! Set `PRECURSOR_FULL=1` for the paper's full parameters (600 k warmup
//! records, 8 repetitions, 1 M-request latency runs, 3 M-key paging run).

#![forbid(unsafe_code)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use precursor_sim::stats::Summary;

pub mod summary;

/// Run-scale parameters, chosen by the `PRECURSOR_FULL` env var.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records loaded before measuring (paper: 600,000).
    pub warmup_keys: u64,
    /// Operations measured per point.
    pub measure_ops: u64,
    /// Repetitions averaged per point (paper: 8).
    pub repetitions: u64,
    /// Requests for the latency CDFs (paper: 1,000,000).
    pub cdf_requests: u64,
    /// Keys loaded for the EPC-paging variant (paper: 3,000,000).
    pub paging_keys: u64,
    /// Whether this is the full paper-scale run.
    pub full: bool,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Scale {
        if std::env::var("PRECURSOR_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
        {
            Scale {
                warmup_keys: 600_000,
                measure_ops: 60_000,
                repetitions: 8,
                cdf_requests: 1_000_000,
                paging_keys: 3_000_000,
                full: true,
            }
        } else {
            Scale {
                warmup_keys: 120_000,
                measure_ops: 20_000,
                repetitions: 2,
                cdf_requests: 120_000,
                paging_keys: 600_000,
                full: false,
            }
        }
    }
}

/// Prints a figure banner with the scale note.
pub fn banner(id: &str, paper_summary: &str, scale: &Scale) {
    println!("================================================================");
    println!("{id}");
    println!("paper result: {paper_summary}");
    println!(
        "scale: warmup={} ops/point={} reps={}{}",
        scale.warmup_keys,
        scale.measure_ops,
        scale.repetitions,
        if scale.full {
            " (FULL paper scale)"
        } else {
            " (reduced; PRECURSOR_FULL=1 for paper scale)"
        }
    );
    println!("================================================================");
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Writes rows as CSV under `bench_results/<name>.csv` (best effort).
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    let Ok(mut f) = fs::File::create(&path) else {
        return;
    };
    let _ = writeln!(f, "{}", headers.join(","));
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    println!("(csv: {})", path.display());
}

/// Directory the benches mirror their outputs into.
pub fn results_dir() -> PathBuf {
    // workspace root when run via `cargo bench`, else cwd
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("bench_results")
}

/// Averages `reps` runs of `f` and reports mean ± relative spread.
pub fn repeat(reps: u64, mut f: impl FnMut(u64) -> f64) -> (f64, f64) {
    let mut s = Summary::new();
    for rep in 0..reps {
        s.add(f(rep));
    }
    (s.mean(), s.relative_spread())
}

/// Formats ops/s as the paper's "Kops" unit.
pub fn kops(v: f64) -> String {
    format!("{:.0}", v / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_reduced() {
        // (unless the env var is set in the environment running the tests)
        if std::env::var("PRECURSOR_FULL").is_err() {
            let s = Scale::from_env();
            assert!(!s.full);
            assert!(s.warmup_keys < 600_000);
        }
    }

    #[test]
    fn repeat_averages() {
        let (mean, spread) = repeat(4, |rep| rep as f64);
        assert_eq!(mean, 1.5);
        assert!(spread > 0.0);
    }

    #[test]
    fn kops_formats() {
        assert_eq!(kops(1_149_000.0), "1149");
    }
}
