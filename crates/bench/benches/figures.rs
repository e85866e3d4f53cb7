//! The paper's tables and figures (`precursor_bench::figures`):
//! `cargo bench -p precursor-bench --bench figures [-- <id>…]`.

use std::process::ExitCode;

use precursor_bench::{figures, results_dir, run, select};

mod counting_alloc;

fn main() -> ExitCode {
    let table = figures::all();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failures: Vec<String> = match select(&table, &args) {
        Ok(chosen) => chosen
            .into_iter()
            .filter_map(|f| run(f, &results_dir()).err())
            .collect(),
        Err(unknown) => vec![unknown],
    };
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
