//! The paper's evaluation (§5) as data, and the one runner that measures it.
//!
//! Every table and figure is a [`Figure`] in [`figures::all`]: rows of
//! driver windows (a [`SessionParams`], a [`CostModel`], a workload, a
//! client count and an op count) or, where the number is not a driver
//! window, a plain function. [`run`] measures the rows in order, prints them
//! beside the paper's values, writes `bench_results/<csv>.csv`, and fails on
//! any row outside its tolerance or any failed shape check. The `figures`
//! bench is its command line:
//!
//! ```text
//! cargo bench -p precursor-bench --bench figures               # every figure
//! cargo bench -p precursor-bench --bench figures -- fig4 fig6  # a subset
//! ```

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use precursor_obs::MetricsRegistry;
use precursor_sim::stats::Summary;
use precursor_sim::CostModel;
use precursor_ycsb::driver::{BenchSession, RunResult, SessionParams};
use precursor_ycsb::workload::WorkloadSpec;

pub mod figures;

/// One table or figure of the paper, measured by [`run`].
pub struct Figure {
    /// Selects the figure on the command line (`fig4`, `table1`, …).
    pub(crate) id: &'static str,
    /// What is measured and what the paper found.
    pub(crate) paper_claim: &'static str,
    /// File stem of the CSV under `bench_results/`.
    pub(crate) csv: &'static str,
    /// The CSV header.
    pub(crate) header: &'static str,
    /// Windows per driver row, and how they fold into its value.
    pub(crate) reps: Reps,
    /// Rows in measurement order.
    pub(crate) rows: Vec<Row>,
    /// The CSV lines of the measured rows.
    pub(crate) lines: fn(&[Measured]) -> Vec<String>,
    /// The shape claims the paper makes in prose.
    pub(crate) check: fn(&[Measured]) -> Result<(), String>,
}

/// How many windows a driver row measures, and how they fold into its value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reps {
    /// The mean throughput (ops/s of virtual time) of `n` windows.
    Mean(u64),
    /// The least host wall-clock µs per op of `n` windows.
    MinWall(u64),
}

/// One measured point of a figure.
pub(crate) struct Row {
    /// Names the row: its CSV key cells, or its name.
    pub label: String,
    /// Where the row's number comes from.
    pub source: Source,
    /// The paper's value, and the relative tolerance the row must stay within.
    pub paper: Option<(f64, f64)>,
}

/// Where a row's number comes from.
pub(crate) enum Source {
    /// Windows of `spec` with `clients` closed-loop clients and `ops`
    /// operations. `session` builds a fresh warmed session; `None` measures
    /// on the previous row's, whose measurement count seeds the window.
    Window {
        session: Option<Box<(SessionParams, CostModel)>>,
        spec: WorkloadSpec,
        clients: usize,
        ops: u64,
    },
    /// Numbers the driver loop does not produce; the first is the row's value.
    Direct(Box<dyn Fn() -> Vec<f64>>),
}

impl Row {
    /// A driver row on the previous row's session ([`on`](Self::on) gives it
    /// its own).
    pub fn window(label: impl Into<String>, spec: WorkloadSpec, clients: usize, ops: u64) -> Row {
        let (session, label) = (None, label.into());
        let source = Source::Window {
            session,
            spec,
            clients,
            ops,
        };
        Row {
            label,
            source,
            paper: None,
        }
    }

    /// A row whose numbers `f` computes.
    pub fn direct(label: impl Into<String>, f: impl Fn() -> Vec<f64> + 'static) -> Row {
        let (label, source) = (label.into(), Source::Direct(Box::new(f)));
        Row {
            label,
            source,
            paper: None,
        }
    }

    /// Measures this driver row on a session built from `params`, never
    /// shared with an earlier row's, even an equal one.
    pub fn on(mut self, params: SessionParams, cost: &CostModel) -> Row {
        if let Source::Window { session, .. } = &mut self.source {
            *session = Some(Box::new((params, cost.clone())));
        }
        self
    }

    /// Holds the row to the paper's `value` within relative `tolerance`.
    pub fn paper(mut self, value: f64, tolerance: f64) -> Row {
        self.paper = Some((value, tolerance));
        self
    }
}

// Heap allocations (reallocations included) and the bytes they asked for,
// as the process's counting allocator reports them: zero unless one is
// installed, as the `figures` bench installs one.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts one heap allocation (or reallocation) of `bytes`: the call a
/// counting global allocator makes on every one, so that each driver window
/// records the allocations it made. The runner is single-threaded, so a
/// window's counts are its own.
pub fn note_allocation(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn allocations() -> (u64, u64) {
    let count = ALLOCATIONS.load(Ordering::Relaxed);
    (count, ALLOCATED_BYTES.load(Ordering::Relaxed))
}

/// One measured driver window.
pub(crate) struct Window {
    /// What the driver measured.
    pub run: RunResult,
    /// Host wall-clock time of the measurement.
    pub wall: Duration,
    /// Heap allocations the measurement made, and the bytes they asked for.
    pub allocs: (u64, u64),
    /// The session's metrics just before the window.
    pub before: MetricsRegistry,
    /// The session's metrics just after the window.
    pub after: MetricsRegistry,
}

impl Window {
    /// Measures one window of `spec` on `session`.
    pub fn measure(s: &mut BenchSession, spec: &WorkloadSpec, clients: usize, ops: u64) -> Window {
        let before = s.metrics();
        let (count, bytes) = allocations();
        let start = Instant::now();
        let run = s.measure(spec, clients, ops);
        let wall = start.elapsed();
        let (count_after, bytes_after) = allocations();
        let after = s.metrics();
        Window {
            run,
            wall,
            allocs: (count_after - count, bytes_after - bytes),
            before,
            after,
        }
    }

    /// Heap allocations, and bytes allocated, per operation.
    pub fn allocs_per_op(&self) -> (f64, f64) {
        let (count, bytes) = self.allocs;
        let ops = self.run.ops as f64;
        (count as f64 / ops, bytes as f64 / ops)
    }

    /// How much counter `name` grew over the window.
    pub fn delta(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }

    /// Host wall-clock µs per operation.
    pub fn us_per_op(&self) -> f64 {
        self.wall.as_secs_f64() / self.run.ops as f64 * 1e6
    }
}

/// A measured row.
pub(crate) struct Measured {
    /// The row's label.
    pub label: String,
    /// The windows folded by the figure's [`Reps`], or a `Direct` row's first
    /// number.
    pub value: f64,
    /// Relative spread `(max − min) / mean` over the windows.
    pub spread: f64,
    /// The row's paper value and tolerance.
    pub paper: Option<(f64, f64)>,
    /// Every window, in order (none for a `Direct` row).
    pub windows: Vec<Window>,
    /// What a `Direct` row computed.
    pub direct: Vec<f64>,
}

impl Measured {
    /// The row's last window (a driver row's).
    pub fn last(&self) -> &RunResult {
        &self.windows.last().expect("a driver row").run
    }
}

/// Measures `fig`'s rows in order.
pub(crate) fn measure(fig: &Figure) -> Vec<Measured> {
    let mut session: Option<BenchSession> = None;
    let mut measured = Vec::new();
    for row in &fig.rows {
        let (mut windows, mut direct) = (Vec::new(), Vec::new());
        let summary = match &row.source {
            Source::Direct(f) => {
                direct = f();
                repeat(1, |_| direct[0])
            }
            Source::Window {
                session: fresh,
                spec,
                clients,
                ops,
            } => {
                if let Some(fresh) = fresh {
                    drop(session.take()); // before warming the next
                    session = Some(fresh.0.clone().build(&fresh.1));
                }
                let s = session
                    .as_mut()
                    .expect("the first driver row builds a session");
                let (Reps::Mean(n) | Reps::MinWall(n)) = fig.reps;
                repeat(n, |_| {
                    windows.push(Window::measure(s, spec, *clients, *ops));
                    let w = windows.last().expect("just measured");
                    match fig.reps {
                        Reps::Mean(_) => w.run.throughput_ops,
                        Reps::MinWall(_) => w.us_per_op(),
                    }
                })
            }
        };
        let value = match (fig.reps, windows.is_empty()) {
            (Reps::MinWall(_), false) => summary.min(),
            _ => summary.mean(),
        };
        let (label, paper, spread) = (row.label.clone(), row.paper, summary.relative_spread());
        measured.push(Measured {
            label,
            value,
            spread,
            paper,
            windows,
            direct,
        });
    }
    measured
}

/// Measures `fig`, prints every row beside the paper's value, writes
/// `<dir>/<csv>.csv`, and fails on any row outside its tolerance or a failed
/// check.
pub fn run(fig: &Figure, dir: &Path) -> Result<(), String> {
    println!("== {}: {}", fig.id, fig.paper_claim);
    let ms = measure(fig);
    let mut failures = Vec::new();
    let mut table = Vec::new();
    for m in &ms {
        let unit = |v: f64| match (m.windows.is_empty(), fig.reps) {
            (true, _) => format!("{v:.0}"),
            (false, Reps::Mean(_)) => format!("{} Kops", kops(v)),
            (false, Reps::MinWall(_)) => format!("{v:.1} us/op"),
        };
        let shown = match m.windows.last() {
            None => m
                .direct
                .iter()
                .map(|&v| unit(v))
                .collect::<Vec<_>>()
                .join(" / "),
            Some(w) => format!("{}, p99 {}", unit(m.value), w.run.latency.percentile(99.0)),
        };
        let (paper, verdict) = match m.paper {
            None => ("-".to_string(), "-".to_string()),
            Some((paper, tolerance)) => {
                let delta = m.value / paper - 1.0;
                let verdict = format!("{:+.1}% (±{:.0}%)", delta * 100.0, tolerance * 100.0);
                if delta.abs() >= tolerance {
                    failures.push(format!("`{}` is {verdict} off the paper", m.label));
                }
                (unit(paper), verdict)
            }
        };
        table.push(vec![m.label.clone(), shown, paper, verdict]);
    }
    print_table(&["row", "measured", "paper", "delta (tolerance)"], &table);
    let path = dir.join(format!("{}.csv", fig.csv));
    let lines = std::iter::once(fig.header.to_string()).chain((fig.lines)(&ms));
    let csv: String = lines.map(|line| line + "\n").collect();
    match fs::create_dir_all(dir).and_then(|()| fs::write(&path, csv)) {
        Ok(()) => println!("(csv: {})", path.display()),
        Err(e) => failures.push(format!("{}: {e}", path.display())),
    }
    failures.extend((fig.check)(&ms).err());
    if !failures.is_empty() {
        return Err(format!("{}: {}", fig.id, failures.join("; ")));
    }
    println!("{}: ok\n", fig.id);
    Ok(())
}

/// The figures `args` select, in table order. An argument selects every
/// figure whose id starts with it (`fig6` selects `fig6a`, `fig6b` and
/// `fig6-scale`); none selects all, and `--bench`, which cargo appends, is
/// ignored. An argument that selects nothing is an error listing the ids.
pub fn select<'a>(figures: &'a [Figure], args: &[String]) -> Result<Vec<&'a Figure>, String> {
    let ids: Vec<&String> = args.iter().filter(|a| *a != "--bench").collect();
    let picks = |f: &Figure, id: &str| f.id.starts_with(id);
    if let Some(id) = ids.iter().find(|id| !figures.iter().any(|f| picks(f, id))) {
        let known: Vec<&str> = figures.iter().map(|f| f.id).collect();
        return Err(format!("unknown figure `{id}`; known: {}", known.join(" ")));
    }
    let chosen = figures
        .iter()
        .filter(|f| ids.is_empty() || ids.iter().any(|id| picks(f, id)));
    Ok(chosen.collect())
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

/// Directory the benches mirror their outputs into.
pub fn results_dir() -> PathBuf {
    // The workspace root's, fixed at compile time from this crate's manifest
    // directory, whatever the working directory of the run.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("bench_results")
}

/// Summarizes `reps` runs of `f`.
pub fn repeat(reps: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let mut s = Summary::new();
    for rep in 0..reps {
        s.add(f(rep));
    }
    s
}

/// Formats ops/s as the paper's "Kops" unit.
pub fn kops(v: f64) -> String {
    format!("{:.0}", v / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use precursor_ycsb::driver::SystemKind;

    fn figure(rows: Vec<Row>, check: fn(&[Measured]) -> Result<(), String>) -> Figure {
        let (id, paper_claim, csv, header, reps) = ("test", "", "test", "", Reps::Mean(1));
        Figure {
            id,
            paper_claim,
            csv,
            header,
            reps,
            rows,
            lines: |_| Vec::new(),
            check,
        }
    }

    #[test]
    fn repeat_averages() {
        let s = repeat(4, |rep| rep as f64);
        assert_eq!(s.mean(), 1.5);
        assert!(s.relative_spread() > 0.0);
    }

    #[test]
    fn kops_formats() {
        assert_eq!(kops(1_149_000.0), "1149");
    }

    #[test]
    fn rows_on_one_session_match_the_hand_loop() {
        let cost = CostModel::default();
        let spec = WorkloadSpec::workload_a(32, 500);
        let params = SessionParams::new(SystemKind::Precursor).keys(500, 500);
        let params = params.max_clients(4).seed(9).paper_poller(true);
        let first = Row::window("first", spec.clone(), 4, 400).on(params.clone(), &cost);
        let rows = vec![first, Row::window("second", spec.clone(), 4, 400)];
        let ms = measure(&figure(rows, |_| Ok(())));
        let mut session = params.build(&cost);
        for m in &ms {
            let r = session.measure(&spec, 4, 400);
            assert_eq!(
                m.last().throughput_ops.to_bits(),
                r.throughput_ops.to_bits()
            );
            assert_eq!(
                m.last().latency.percentile(99.0),
                r.latency.percentile(99.0)
            );
        }
    }

    #[test]
    fn a_row_outside_its_tolerance_or_a_failed_check_fails_the_run() {
        let dir = std::env::temp_dir().join("precursor-bench-runner-test");
        let near = || Row::direct("near", || vec![100.0]).paper(104.0, 0.05);
        let far = Row::direct("far", || vec![100.0]).paper(120.0, 0.1);
        let err = run(&figure(vec![near(), far], |_| Ok(())), &dir).expect_err("17 % off");
        assert!(err.contains("`far`") && !err.contains("`near`"), "{err}");
        assert_eq!(run(&figure(vec![near()], |_| Ok(())), &dir), Ok(()));
        let shape = figure(Vec::new(), |_| Err("shape".into()));
        assert_eq!(run(&shape, &dir), Err("test: shape".into()));
    }

    #[test]
    fn an_unknown_figure_id_is_an_error() {
        let table = figures::all();
        let args = |ids: &[&str]| ids.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let err = select(&table, &args(&["fig4", "fig10"]))
            .err()
            .expect("no fig10");
        assert!(table.iter().all(|f| err.contains(f.id)), "{err}");
        let six = select(&table, &args(&["fig6", "--bench"])).expect("fig6 prefixes");
        let six: Vec<&str> = six.iter().map(|f| f.id).collect();
        assert_eq!(six, ["fig6a", "fig6b", "fig6-scale"]);
        assert_eq!(
            select(&table, &args(&["--bench"])).map(|all| all.len()),
            Ok(table.len())
        );
    }
}
