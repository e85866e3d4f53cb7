//! The repo's one benchmark. See README.md beside this package for the
//! workloads, the metrics, which clock each uses and what is not covered.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 0xB5EED
//! ```
//!
//! Without `--workload` it runs every workload, end to end and per layer,
//! and writes `benchmark/out/results.json`. With `--workload <name>
//! --trace <0|1>` it runs that one workload in that one mode and prints a
//! one-line JSON result last (the form `BENCHMARK.json` names).

mod e2e;
mod leaf;
mod report;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use precursor_obs::JsonWriter;
use precursor_ycsb::driver::RunResult;
use report::{print_metrics, result_line, write_metrics, Metric, Outcome};
use workloads::Workload;

const DEFAULT_SEED: u64 = 0xB5EED;

struct Args {
    workload: Option<String>,
    seed: u64,
    trace: Option<bool>,
    quick: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        trace: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            // Accepted for the driver's command line and not used: a run is
            // a fixed number of fixed-size windows, so that `sim_*` is exact.
            "--seconds" => {
                value.parse::<f64>().map_err(|_| bad())?;
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Resets `VmHWM`, so that each workload of an all-workloads run reports
/// its own peak. Best effort: without it the later peaks are running maxima.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or("unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload's results in the modes that ran.
struct Row {
    workload: &'static Workload,
    /// Window 1 of the end-to-end run, kept for the per-layer run.
    first_window: Option<RunResult>,
    end_to_end: Option<Outcome>,
    per_layer: Option<Outcome>,
}

fn results_json(args: &Args, leaf: &[Metric], rows: &[Row]) -> String {
    let mut json = JsonWriter::new();
    json.begin_object();
    json.key("seed");
    json.u64(args.seed);
    json.key("windows");
    json.u64(e2e::WINDOWS as u64);
    json.key("nproc");
    json.u64(nproc() as u64);
    json.key("commit");
    json.string(&commit());
    write_metrics(&mut json, "leaf", leaf);
    json.key("workloads");
    json.begin_array();
    for row in rows {
        json.begin_object();
        json.key("name");
        json.string(row.workload.name);
        json.key("why");
        json.string(row.workload.why);
        for (key, outcome) in [
            ("end_to_end", &row.end_to_end),
            ("per_layer", &row.per_layer),
        ] {
            let Some(outcome) = outcome else { continue };
            json.key(&format!("{key}_check"));
            json.begin_object();
            json.key("attempted");
            json.u64(outcome.attempted);
            json.key("failed");
            json.u64(outcome.failed);
            json.key("correct");
            json.bool(outcome.correct);
            json.end_object();
            write_metrics(&mut json, key, &outcome.metrics);
        }
        json.end_object();
    }
    json.end_array();
    json.end_object();
    json.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&'static Workload> = workloads::ALL
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown workload; known: {}",
            workloads::ALL.map(|w| w.name).join(" ")
        );
        return ExitCode::from(2);
    }
    println!(
        "seed {:#x}, {} windows per workload, nproc {}, single-threaded",
        args.seed,
        e2e::WINDOWS,
        nproc()
    );
    if args.quick {
        println!(
            "QUICK SCALE (windows and set-up ÷ 10): numbers are not comparable with a full run"
        );
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        println!("cannot create {}: {e}", out_dir().display());
    }

    let scaled = |w: &Workload| if args.quick { w.quick() } else { *w };
    let mut rows: Vec<Row> = selected
        .into_iter()
        .map(|workload| Row {
            workload,
            first_window: None,
            end_to_end: None,
            per_layer: None,
        })
        .collect();

    // Every end-to-end run comes before any per-layer work, in the fixed
    // workload order: the allocation sequence up to each `peak_rss_mb` is
    // then the same in every run of the same seed.
    if args.trace != Some(true) {
        for row in &mut rows {
            let name = row.workload.name;
            reset_peak_rss();
            let (outcome, window) = e2e::run(&scaled(row.workload), args.seed);
            print_metrics(name, &outcome.metrics);
            println!(
                "{name:<17} op_fail_ratio {} / {}",
                outcome.failed, outcome.attempted
            );
            row.first_window = Some(window);
            row.end_to_end = Some(outcome);
        }
    }

    // The leaf timers are the same for every workload: an all-workloads run
    // reports them once, a one-workload run with its per-layer metrics.
    let one_workload = args.workload.is_some();
    let mut leaf = Vec::new();
    if args.trace != Some(false) {
        leaf = leaf::run();
        if !one_workload {
            print_metrics("(leaf timers)", &leaf);
        }
        for row in &mut rows {
            let w = scaled(row.workload);
            let window = row
                .first_window
                .take()
                .unwrap_or_else(|| e2e::first_window(&w, args.seed));
            let path = out_dir().join(format!("trace-{}.json", w.name));
            let dump = (!args.quick).then_some(path.as_path());
            let mut outcome = traced::run(&w, args.seed, dump);
            outcome.metrics.extend(e2e::sim_stage_metrics(&window));
            if one_workload {
                outcome.metrics.extend(leaf.iter().cloned());
            }
            print_metrics(w.name, &outcome.metrics);
            row.per_layer = Some(outcome);
        }
    }

    if args.workload.is_none() && args.trace.is_none() && !args.quick {
        let path = out_dir().join("results.json");
        match std::fs::write(&path, results_json(&args, &leaf, &rows)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => println!("cannot write {}: {e}", path.display()),
        }
    }
    let outcomes = || {
        rows.iter()
            .flat_map(|r| [&r.end_to_end, &r.per_layer])
            .flatten()
    };
    // The driver's form: one workload, one mode, the result object last.
    if let (Some(_), Some(_), Some(outcome)) = (&args.workload, args.trace, outcomes().last()) {
        println!("{}", result_line(outcome));
    }
    let all_correct = outcomes().all(|o| o.correct);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: an operation failed, a value was wrong, a replay differed or spans did not conserve");
        ExitCode::FAILURE
    }
}
