//! The figure table: Fig 1, Figs 4–9, Table 1, the ablations and the
//! regression trajectory as [`Figure`] values.
//!
//! One fixed scale: 120 k warmup records and 20 k operations per point (the
//! paper: 600 k and 8 repetitions); the trajectory runs smaller, so that
//! its 22 points take seconds. A window's RNG is seeded by its
//! session's measurement count, so which rows share a session, and their
//! order, is part of the data. A driver row's label is its CSV key cells.

use std::time::Duration;

use precursor::{Config, PrecursorClient, PrecursorServer};
use precursor_shieldstore::{client::ShieldClient, server::ShieldConfig, ShieldServer};
use precursor_sim::meter::Stage;
use precursor_sim::{CostModel, Event, Nanos};
use precursor_ycsb::driver::{RunResult, SessionParams, SystemKind};
use precursor_ycsb::workload::{key_bytes, value_bytes, Distribution, WorkloadSpec};
use SystemKind::{Precursor, PrecursorServerEnc, ShieldStore};

use crate::{kops, Figure, Measured, Reps, Row, Window};

const WARMUP: u64 = 120_000;
const OPS: u64 = 20_000;
const SYSTEMS: [SystemKind; 3] = [Precursor, PrecursorServerEnc, ShieldStore];

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// Every figure, in the order the `figures` bench runs them.
pub fn all() -> Vec<Figure> {
    let table: [fn() -> Figure; 12] = [
        fig1, fig4, fig5, fig6a, fig6b, scale, fig7, fig8, fig9, table1, ablation, trajectory,
    ];
    table.iter().map(|figure| figure()).collect()
}

/// `BenchSession::new`'s paper testbed: `keys` records warmed, `clients`
/// connected, scan occupancy charged for the paper's scan-all poller.
fn testbed(sys: SystemKind, value: usize, keys: u64, clients: usize, seed: u64) -> SessionParams {
    let params = SessionParams::new(sys).value_size(value).keys(keys, keys);
    params.max_clients(clients).seed(seed).paper_poller(true)
}

/// Read-only YCSB C over `keys` keys of 32 B.
fn workload_c(keys: u64) -> WorkloadSpec {
    WorkloadSpec::workload_c(32, keys)
}

/// `rows`, measured in order on one session built from `p`.
fn shared(p: SessionParams, cost: &CostModel, rows: impl IntoIterator<Item = Row>) -> Vec<Row> {
    let mut rows = rows.into_iter();
    let first = rows.next().expect("a row").on(p, cost);
    std::iter::once(first).chain(rows).collect()
}

/// The measured row labelled `label`.
fn labelled<'a>(ms: &'a [Measured], label: &str) -> &'a Measured {
    ms.iter().find(|m| m.label == label).expect("a row")
}

fn fig1() -> Figure {
    let sizes = [
        16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
    ];
    let rows = sizes.map(|len| {
        Row::direct(len.to_string(), move || {
            // One decrypt + re-encrypt pass per buffer on 12 and 6 threads,
            // from the AES-GCM constants every other figure charges.
            let cost = CostModel::default();
            let cycles = 2 * cost.price(Event::Gcm { len }).0;
            let rate = |threads: f64| threads * cost.client_freq.hz() / cycles as f64;
            let mb_s = |threads| rate(threads) * len as f64 / 1e6;
            let line = cost.server_nic_gbps * 1e9 / 8.0 / 1e6;
            vec![
                mb_s(12.0),
                mb_s(6.0),
                line,
                (1.0 - mb_s(12.0) / line) * 100.0,
            ]
        })
    });
    Figure {
        id: "fig1",
        paper_claim: "crypto MB/s vs the 40 Gb line: ≤ 1 KiB is ≈ 36 % below, large cross it",
        csv: "fig1_crypto_vs_rdma",
        header: "buffer_bytes,mb_s_12thr,mb_s_6thr,line_mb_s,deficit_pct",
        reps: Reps::Mean(1),
        rows: rows.into(),
        lines: |ms| ms.iter().map(fig1_line).collect(),
        check: |ms| {
            let line = ms[0].direct[2];
            let (kib, kib32) = (labelled(ms, "1024").value, labelled(ms, "32768").value);
            ensure!(kib < line && kib32 > line, "the crossover moved");
            Ok(())
        },
    }
}

fn fig1_line(m: &Measured) -> String {
    let [t12, t6, line, deficit] = m.direct[..] else {
        unreachable!()
    };
    format!("{},{t12:.0},{t6:.0},{line:.0},{deficit:+.0}%", m.label)
}

const FIG4_PAPER_KOPS: [[f64; 4]; 3] = [
    [1_149.0, 1_096.0, 849.0, 781.0],
    [817.0, 781.0, 677.0, 631.0],
    [120.0, 114.0, 103.0, 97.0],
];

fn fig4() -> Figure {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for (system, paper) in SYSTEMS.into_iter().zip(FIG4_PAPER_KOPS) {
        // One session per system across the four mixes. The fixed
        // occupancies were fitted at these anchors (DESIGN.md §4).
        let mut mixes = Vec::new();
        for (read, kops) in [1.0, 0.95, 0.5, 0.05].into_iter().zip(paper) {
            let label = format!("{},{:.0}% read", system.name(), read * 100.0);
            let spec = WorkloadSpec::with_read_ratio(read, 32, WARMUP);
            mixes.push(Row::window(label, spec, 50, OPS).paper(kops * 1e3, 0.2));
        }
        let params = testbed(system, 32, WARMUP, 50, 0xF164);
        rows.extend(shared(params, &cost, mixes));
    }
    Figure {
        id: "fig4",
        paper_claim: "Kops at read ratios 100/95/50/5 % (32 B, 50 clients): Precursor \
                      1149/1096/849/781, server-enc 817/781/677/631, ShieldStore 120/114/103/97",
        csv: "fig4_workloads",
        header: "system,workload,kops,paper_kops,delta_pct,spread_pct",
        reps: Reps::Mean(2),
        rows,
        lines: |ms| ms.iter().map(fig4_line).collect(),
        check: |ms| {
            // Four mixes per system: Precursor first, ShieldStore last.
            let speedup = |i: usize| ms[i].value / ms[8 + i].value;
            let worst = (0..4).map(speedup).fold(f64::MAX, f64::min);
            ensure!(worst > 4.0, "only {worst:.1}x ShieldStore");
            Ok(())
        },
    }
}

fn fig4_line(m: &Measured) -> String {
    let paper = m.paper.expect("a paper value").0;
    let (ours, theirs) = (kops(m.value), kops(paper));
    let (delta, spread) = ((m.value / paper - 1.0) * 100.0, m.spread * 100.0);
    format!("{},{ours},{theirs},{delta:+.0}%,{spread:.1}%", m.label)
}

fn fig5() -> Figure {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for system in SYSTEMS {
        for size in [16, 64, 128, 512, 1024, 4096, 16384] {
            // Large values make warmup expensive: the keyspace shrinks
            // above 1 KiB, which barely moves those points.
            let keys = match size {
                ..=1024 => WARMUP,
                _ => (WARMUP / (size as u64 / 512)).max(10_000),
            };
            let ops = if size >= 4096 { OPS / 2 } else { OPS };
            let key = format!("{},{size}", system.name());
            let row = |mix: &str, spec| Row::window(format!("{key},{mix}"), spec, 50, ops);
            let mut ro = row("read-only", WorkloadSpec::workload_c(size, keys));
            if system == Precursor && size == 16384 {
                // The 40 Gb NIC ceiling at 16.5 KB per reply.
                ro = ro.paper(40e9 / 8.0 / 16_500.0, 0.15);
            }
            let um = row("update-mostly", WorkloadSpec::update_mostly(size, keys));
            let params = testbed(system, size, keys, 50, 0xF15);
            rows.extend(shared(params, &cost, [ro, um]));
        }
    }
    Figure {
        id: "fig5",
        paper_claim: "Kops vs value size (50 clients): Precursor flat until the NIC bends it; \
                      server-enc −34 % small, −49 % large; ShieldStore 121→77 and 99→22",
        csv: "fig5_value_sizes",
        header: "system,value_bytes,read_only_kops,update_mostly_kops",
        reps: Reps::Mean(2),
        rows,
        lines: |ms| ms.chunks(2).map(fig5_line).collect(),
        check: |ms| {
            // The read-only row of system `s` at size `z` (16 B … 16 KiB).
            let ro = |s: usize, z: usize| ms[(s * 7 + z) * 2].value;
            let loss = |z| 1.0 - ro(1, z) / ro(0, z);
            ensure!(loss(5) > loss(0), "server-enc loss flat in size");
            ensure!(
                (0..7).all(|z| ro(0, z) > ro(2, 0)),
                "ShieldStore ≥ Precursor"
            );
            Ok(())
        },
    }
}

fn fig5_line(pair: &[Measured]) -> String {
    let (key, _) = pair[0].label.rsplit_once(',').expect("system,size,mix");
    format!("{key},{},{}", kops(pair[0].value), kops(pair[1].value))
}

const FIG6_CLIENTS: [usize; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

fn fig6a() -> Figure {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for system in SYSTEMS {
        // One session per system across the client counts.
        let counts = FIG6_CLIENTS.map(|n| {
            let spec = WorkloadSpec::workload_c(32, WARMUP);
            Row::window(format!("{},{n}", system.name()), spec, n, OPS)
        });
        let params = testbed(system, 32, WARMUP, 100, 0xF16);
        rows.extend(shared(params, &cost, counts));
    }
    Figure {
        id: "fig6a",
        paper_claim: "read-only Kops vs clients (32 B): Precursor peaks near 55, then declines \
                      (RNIC cache misses); ShieldStore stays flat and low",
        csv: "fig6_client_scaling",
        header: "clients,precursor_kops,server_enc_kops,shieldstore_kops",
        reps: Reps::Mean(2),
        rows,
        lines: |ms| (0..10).map(|i| fig6a_line(ms, i)).collect(),
        check: |ms| {
            let by_kops = |a: &usize, b: &usize| ms[*a].value.total_cmp(&ms[*b].value);
            let peak = (0..10).max_by(by_kops).expect("Precursor's rows");
            let at = FIG6_CLIENTS[peak];
            ensure!((40..=70).contains(&at), "peak at {at} clients");
            ensure!(ms[9].value < ms[peak].value, "no decline past it");
            Ok(())
        },
    }
}

fn fig6a_line(ms: &[Measured], i: usize) -> String {
    let [precursor, server_enc, shield] = [0, 10, 20].map(|at| kops(ms[at + i].value));
    format!("{},{precursor},{server_enc},{shield}", FIG6_CLIENTS[i])
}

fn fig6b() -> Figure {
    let cost = CostModel::default();
    let rows = [1, 2, 4, 8].map(|shards| {
        let params = testbed(Precursor, 32, WARMUP, 16, 0xF16B).shards(shards);
        let spec = WorkloadSpec::workload_c(32, WARMUP);
        Row::window(shards.to_string(), spec, 16, OPS).on(params, &cost)
    });
    Figure {
        id: "fig6b",
        paper_claim: "Kops of 16 saturated clients on 1/2/4/8 polling shards, a core each",
        csv: "fig6_shard_scaling",
        header: "shards,precursor_kops,speedup",
        reps: Reps::Mean(2),
        rows: rows.into(),
        lines: |ms| ms.iter().map(|m| fig6b_line(m, ms[0].value)).collect(),
        check: |ms| {
            let speedup = ms[2].value / ms[0].value;
            ensure!(speedup >= 1.8, "4 shards: {speedup:.2}x");
            Ok(())
        },
    }
}

fn fig6b_line(m: &Measured, one_shard: f64) -> String {
    let speedup = m.value / one_shard;
    format!("{},{},{speedup:.2}x", m.label, kops(m.value))
}

// Each window of a 100k-client row must finish inside this.
const BUDGET_100K: Duration = Duration::from_secs(240);

fn scale() -> Figure {
    const KEYS: u64 = 20_000;
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for shards in [4, 8] {
        // More ops at 100 k clients, so per-window fleet setup amortizes.
        for (clients, ops) in [(1_000, 5_000), (10_000, 5_000), (100_000, 10_000)] {
            let params = SessionParams::new(Precursor).keys(KEYS, KEYS);
            let params = params.max_clients(clients).ring_bytes(1 << 10);
            let params = params.seed(0xF16C).shards(shards);
            let (label, spec) = (format!("{shards},{clients},{ops}"), workload_c(KEYS));
            rows.push(Row::window(label, spec, clients, ops).on(params, &cost));
        }
    }
    Figure {
        id: "fig6-scale",
        paper_claim: "beyond the testbed's 100 clients: host µs per op stays flat from 1 k to \
                      100 k clients on doorbell sweeps, 1 KiB rings and lazy driver state",
        csv: "fig6_scale_sweep",
        header: "shards,clients,ops,virtual_kops,active_clients,best_us_per_op,cold_us_per_op",
        // The least of three windows: the first absorbs one-time noise
        // (first-touch faults on 200 k rings, frequency ramp), and every
        // window re-activates its client states from scratch.
        reps: Reps::MinWall(3),
        rows,
        lines: |ms| ms.iter().map(scale_line).collect(),
        check: |ms| {
            for m in ms {
                let windows = m.windows.iter().try_for_each(scale_window);
                windows.map_err(|e| format!("{}: {e}", m.label))?;
            }
            for fleets in ms.chunks(3) {
                let growth = fleets[2].value / fleets[0].value;
                ensure!(growth <= 1.5, "us/op grew {growth:.2}x");
            }
            Ok(())
        },
    }
}

// Driver states exist only for clients that ran an op (a window shorter
// than its fleet leaves most of it unallocated), no op report is shed, and
// a 100k-client window stays inside its budget.
fn scale_window(w: &Window) -> Result<(), String> {
    let (fleet, ops, active) = (w.run.clients_connected, w.run.ops, w.run.clients_active);
    ensure!(active <= ops.min(fleet), "{active} client states");
    let short = fleet > 2 * ops;
    ensure!(!short || active < fleet / 2, "{active} clients active");
    let shed = w.after.gauge("server.reports_dropped_total");
    ensure!(shed == 0, "{shed} op reports shed");
    let wall = w.wall;
    ensure!(
        fleet < 100_000 || wall <= BUDGET_100K,
        "a window took {wall:?}"
    );
    Ok(())
}

fn scale_line(m: &Measured) -> String {
    let (last, best, cold) = (m.last(), m.value, m.windows[0].us_per_op());
    let (virtual_kops, active) = (kops(last.throughput_ops), last.clients_active);
    format!("{},{virtual_kops},{active},{best:.1},{cold:.1}", m.label)
}

fn fig7() -> Figure {
    let cost = CostModel::default();
    // 8 clients: a light load, so queueing does not mask the unloaded path.
    let row = |system: SystemKind, size, keys, ops, cost: &CostModel| {
        let label = format!("{} {size}B", system.name());
        let row = Row::window(label, WorkloadSpec::workload_c(size, keys), 8, ops);
        row.on(testbed(system, size, keys, 8, 0xF17), cost)
    };
    let mut rows = Vec::new();
    for (system, ops) in [(Precursor, 120_000), (ShieldStore, 30_000)] {
        rows.extend([32, 512, 1024].map(|z| row(system, z, WARMUP, ops, &cost)));
    }
    // 600 k keys × 88 B ≈ 52.8 MB of table against a 20 MiB EPC keeps the
    // paper's 3 M-key oversubscription ratio (≈ 2.7).
    let mut paging = cost.clone();
    paging.epc_usable_bytes = 20 << 20;
    let mut paged = row(Precursor, 32, 600_000, 60_000, &paging);
    paged.label.push_str(" +EPC paging");
    rows.push(paged);
    Figure {
        id: "fig7",
        paper_claim: "get() latency CDFs: Precursor p95 ≈ 8 µs, p99 ≈ 21 µs at any size; \
                      ShieldStore long-tailed; EPC paging still 77 % below it to p90",
        csv: "fig7_latency_cdf",
        header: "series,latency_ns,cdf",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().flat_map(fig7_lines).collect(),
        check: |ms| {
            // Rows: Precursor 32/512/1024 B, ShieldStore's, then paging.
            let at = |i: usize, q| ms[i].last().latency.percentile(q);
            let p99 = |i: usize| at(i, 99.0).0 as f64;
            let paging = ms[6].last().epc.paging_expected();
            ensure!(paging, "the paging row fits the EPC");
            ensure!(at(6, 90.0) < at(3, 90.0), "paging p90 ≥ ShieldStore's");
            let spread = p99(0).max(p99(1)).max(p99(2)) / p99(0).min(p99(1)).min(p99(2));
            ensure!(spread < 1.6, "p99 varies {spread:.2}x");
            Ok(())
        },
    }
}

fn fig7_lines(m: &Measured) -> Vec<String> {
    let cdf = m.last().latency.cdf().into_iter();
    let line = |(v, f): (Nanos, f64)| format!("{},{},{f:.6}", m.label, v.0);
    cdf.map(line).collect()
}

fn fig8() -> Figure {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for system in [Precursor, ShieldStore] {
        for size in [16, 64, 128, 512, 1024, 4096, 8192] {
            let keys = (WARMUP / (size as u64 / 512).max(1)).max(10_000);
            let label = format!("{},{size}", system.name());
            let row = Row::window(label, WorkloadSpec::workload_c(size, keys), 8, OPS);
            rows.push(row.on(testbed(system, size, keys, 8, 0xF18), &cost));
        }
    }
    Figure {
        id: "fig8",
        paper_claim: "mean get() latency split: ShieldStore's server 1.34× (→ 2.15×) slower, \
                      growing with size while Precursor's stays flat; TCP networking ≈ 26×",
        csv: "fig8_latency_breakdown",
        header: "system,value_bytes,network_ns,server_ns,enclave_ns,client_ns,total_ns",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().map(fig8_line).collect(),
        check: |ms| {
            // (server with enclave, networking) of row `i`: Precursor's
            // seven sizes, then ShieldStore's.
            let split = |i: usize| {
                let [network, server, enclave, ..] = fig8_bars(ms[i].last());
                ((server + enclave).0 as f64, network.0 as f64)
            };
            let ratio = |z: usize| split(7 + z).0 / split(z).0;
            let growth = |s: usize| split(7 * s + 6).0 / split(7 * s).0;
            ensure!(ratio(6) > ratio(0), "ShieldStore's gap shrinks");
            ensure!(growth(1) > growth(0), "Precursor grows faster");
            let network = split(7).1 / split(0).1;
            ensure!(network > 5.0, "TCP only {network:.1}x RDMA");
            Ok(())
        },
    }
}

// Figure 8's bars per op: networking, server, enclave, client and the mean
// end to end. The stages are the driver's meter taps (server is the
// critical-path charge: overhead occupancy shapes throughput, not
// latency); networking is the residual, the transport legs and queueing
// that the replay layer owns and the meters deliberately don't.
fn fig8_bars(r: &RunResult) -> [Nanos; 5] {
    let total = r.latency.mean();
    let server = r.stages.mean(Stage::ServerCritical);
    let enclave = r.stages.mean(Stage::Enclave);
    let client = r.stages.mean(Stage::ClientCpu);
    let network = total.saturating_sub(server + enclave + client);
    [network, server, enclave, client, total]
}

fn fig8_line(m: &Measured) -> String {
    let [network, server, enclave, client, total] = fig8_bars(m.last());
    format!("{},{network},{server},{enclave},{client},{total}", m.label)
}

// A fig9 window: `clients` on 1 KiB rings run workload B over 4000 keys of
// 32 B for 6000 ops (one start of the 5000-sweep migration schedule, and
// room for its fence) on `nodes` nodes, a key range migrating underneath
// when there is more than one.
const FIG9_OPS: u64 = 6_000;
const FIG9_KEYS: u64 = 4_000;

fn fig9_session(nodes: usize, clients: usize, seed: u64) -> SessionParams {
    let params = SessionParams::new(Precursor).keys(FIG9_KEYS, FIG9_KEYS);
    let params = params.max_clients(clients).ring_bytes(1 << 10).seed(seed);
    params.nodes(nodes).migrating(nodes > 1)
}

// A multi-node window fences exactly one migration, observed by at least
// one sealed redirect and cache refresh, with redirects under 1 % of ops
// (the registry's `cluster.*` counters).
fn fig9_fenced(nodes: usize, w: &Window) -> Result<(), String> {
    let (fenced, redirects) = (u64::from(nodes > 1), w.delta("cluster.redirects"));
    let fences = w.delta("cluster.migrations_fenced");
    ensure!(fences == fenced, "{fences} fences on {nodes} nodes");
    let observed = redirects.min(w.delta("cluster.refreshes"));
    ensure!(observed >= fenced, "a fence went unobserved");
    let pct = redirects as f64 / FIG9_OPS as f64 * 100.0;
    ensure!(pct < 1.0, "{pct:.3}% of ops redirected");
    Ok(())
}

fn fig9() -> Figure {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for clients in [1_000, 10_000] {
        for nodes in [1, 2, 4] {
            let label = format!("{nodes},{clients},{FIG9_OPS}");
            let spec = WorkloadSpec::workload_b(32, FIG9_KEYS);
            let row = Row::window(label, spec, clients, FIG9_OPS);
            rows.push(row.on(fig9_session(nodes, clients, 0xF19C), &cost));
        }
    }
    Figure {
        id: "fig9",
        paper_claim: "beyond the paper's one server: 4 nodes deliver ≥ 1.7× one node with a \
                      key-range migration fenced in every multi-node window",
        csv: "fig9_cluster_sweep",
        header: "nodes,clients,ops,virtual_kops,p50_ns,p99_ns,mean_node_util,active_clients,\
                 redirects,redirect_pct,keys_moved",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().map(fig9_line).collect(),
        check: |ms| {
            for (m, nodes) in ms.iter().zip([1, 2, 4].into_iter().cycle()) {
                let fenced = fig9_fenced(nodes, &m.windows[0]);
                fenced.map_err(|e| format!("{}: {e}", m.label))?;
            }
            // The placement ring's worst-case node share (32 vnodes) caps
            // perfect 4× scaling well above this floor.
            for fleet in ms.chunks(3) {
                let speedup = fleet[2].value / fleet[0].value;
                ensure!(speedup >= 1.7, "4 nodes: {speedup:.2}x");
            }
            Ok(())
        },
    }
}

fn fig9_line(m: &Measured) -> String {
    let (w, r) = (&m.windows[0], m.last());
    let [p50, p99] = [50.0, 99.0].map(|q| r.latency.percentile(q).0);
    let (virtual_kops, util) = (kops(r.throughput_ops), r.server_utilization);
    let (redirects, moved) = (w.delta("cluster.redirects"), w.delta("cluster.keys_moved"));
    let (active, pct) = (r.clients_active, redirects as f64 / FIG9_OPS as f64 * 100.0);
    let cells = format!("{virtual_kops},{p50},{p99},{util:.3},{active}");
    format!("{},{cells},{redirects},{pct:.3},{moved}", m.label)
}

const TABLE1_KEYS: [u64; 3] = [0, 1, 100_000];

fn table1() -> Figure {
    let mut rows = Vec::new();
    let paper = [[52.0, 65.0, 2_981.0], [17_392.0, 17_586.0, 17_594.0]];
    for (system, paper) in [Precursor, ShieldStore].into_iter().zip(paper) {
        for (keys, pages) in TABLE1_KEYS.into_iter().zip(paper) {
            let measure = move || vec![working_set(system, keys) as f64];
            let row = Row::direct(format!("{},{keys}", system.name()), measure);
            rows.push(row.paper(pages, 0.1));
        }
    }
    Figure {
        id: "table1",
        paper_claim: "EPC pages after 0, 1 and 100 k inserts of 32 B: Precursor 52/65/2981, \
                      ShieldStore 17392/17586/17594 (allocated up front)",
        csv: "table1_epc_working_set",
        header: "system,keys,pages,mib,paper_pages,delta_pct",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().map(table1_line).collect(),
        check: |ms| {
            let precursor = labelled(ms, "Precursor,100000").value as u64;
            let shield = labelled(ms, "ShieldStore,0").value as u64;
            ensure!(precursor < shield / 4, "Precursor at {precursor} pages");
            Ok(())
        },
    }
}

fn table1_line(m: &Measured) -> String {
    let (pages, paper) = (m.value, m.paper.expect("a paper value").0);
    let mib = pages * 4096.0 / (1024.0 * 1024.0);
    let delta = (pages / paper - 1.0) * 100.0;
    format!("{},{pages},{mib:.2},{paper},{delta:+.0}%", m.label)
}

// Enclave pages after `keys` inserts of 32 B values through one client (for
// 0 keys, before any client connects). Every Table 1 checkpoint up to
// `keys` drains the rings, as one drive through all three would.
fn working_set(system: SystemKind, keys: u64) -> u64 {
    let cost = CostModel::default();
    let drains = |i: u64, batch| i.is_multiple_of(batch) || TABLE1_KEYS.contains(&i);
    let record = |i: u64| (key_bytes(i - 1), value_bytes(i - 1, 0, 32));
    if system == ShieldStore {
        let mut server = ShieldServer::new(ShieldConfig::default(), &cost);
        if keys > 0 {
            let mut client = ShieldClient::connect(&mut server, 1);
            for i in 1..=keys {
                let (key, value) = record(i);
                client.put(&key, &value);
                if drains(i, 256) {
                    server.poll();
                    client.poll_replies();
                    client.take_all_completed();
                }
            }
        }
        return server.sgx_report().working_set_pages;
    }
    let mut server = PrecursorServer::new(Config::default(), &cost);
    if keys > 0 {
        let mut client = PrecursorClient::connect(&mut server, 1).expect("connect");
        for i in 1..=keys {
            let (key, value) = record(i);
            client.put(&key, &value).expect("put");
            if drains(i, 512) {
                // The fairness budget caps records per sweep.
                while server.poll() > 0 {
                    client.poll_replies();
                }
                client.take_all_completed();
            }
        }
    }
    server.sgx_report().working_set_pages
}

// Per-get enclave and untrusted (server-critical) ns, unloaded: 2000 puts,
// then 2000 gets of 32 B values one at a time.
fn server_split(config: Config) -> Vec<f64> {
    let mut server = PrecursorServer::new(config, &CostModel::default());
    let mut client = PrecursorClient::connect(&mut server, 1).expect("connect");
    for i in 0..2_000u32 {
        let put = client.put_sync(&mut server, &i.to_le_bytes(), &[7u8; 32]);
        put.expect("put");
    }
    server.take_reports();
    let (mut enclave, mut critical) = (0, 0);
    for i in 0..2_000u32 {
        client.get(&i.to_le_bytes()).expect("get");
        server.poll();
        let meter = server.take_reports().pop().expect("one report").meter;
        client.poll_replies();
        client.take_all_completed();
        enclave += meter.get(Stage::Enclave).0;
        critical += meter.get(Stage::ServerCritical).0;
    }
    vec![(enclave / 2_000) as f64, (critical / 2_000) as f64]
}

const ENCRYPTION: [&str; 2] = [
    "encryption: client-side (paper design)",
    "encryption: server-side",
];
const NETWORK: [&str; 2] = [
    "network: RDMA (8 clients)",
    "network: TCP-class (8 clients)",
];

fn ablation() -> Figure {
    const KEYS: u64 = WARMUP / 2;
    let base = CostModel::default();
    // A fresh session per run, even for equal parameters.
    let run = |label: &str, system, spec: WorkloadSpec, clients, seed, cost: &CostModel| {
        let params = testbed(system, 32, KEYS, clients, seed);
        Row::window(label, spec, clients, OPS / 2).on(params, cost)
    };
    let ycsb_a = || WorkloadSpec::workload_a(32, KEYS);
    let precursor = |label: &str, clients, cost: &CostModel| {
        run(label, Precursor, ycsb_a(), clients, 0xAB1, cost)
    };
    // Precursor's protocol at TCP-class per-message latency and kernel CPU.
    let mut tcp = base.clone();
    (tcp.rdma_one_way, tcp.rdma_post_cycles) = (tcp.tcp_msg_latency, tcp.tcp_msg_cycles);
    tcp.rnic_cache_miss = Nanos::ZERO;
    let mut rows = vec![
        precursor(ENCRYPTION[0], 50, &base),
        run(
            ENCRYPTION[1],
            PrecursorServerEnc,
            ycsb_a(),
            50,
            0xAB1,
            &base,
        ),
        precursor(NETWORK[0], 8, &base),
        precursor(NETWORK[1], 8, &tcp),
    ];
    for qps in [16, 64, 256] {
        // The think time keeps the server unsaturated, so misses show.
        let mut cost = base.clone();
        (cost.rnic_cache_qps, cost.client_think) = (qps, Nanos(200_000));
        let label = format!("rnic cache: {qps} QPs (100 idle-ish clients)");
        rows.push(precursor(&label, 100, &cost));
    }
    for mult in [0, 1, 4] {
        // An 8 MiB EPC forces paging at this scale.
        let mut cost = base.clone();
        (cost.epc_usable_bytes, cost.epc_fault_cycles) = (8 << 20, 20_000 * mult);
        let label = format!("epc fault cost: {mult}x20k cycles (paging)");
        rows.push(run(&label, Precursor, workload_c(KEYS), 8, 3, &cost));
    }
    for (label, config) in [
        ("small-value storage: pool (paper)", Config::default()),
        (
            "small-value storage: in-enclave (ext.)",
            Config::with_small_value_inlining(),
        ),
    ] {
        rows.push(Row::direct(label, move || server_split(config.clone())));
    }
    for (label, distribution) in [
        ("popularity: uniform (paper)", Distribution::Uniform),
        ("popularity: zipfian 0.99", Distribution::Zipfian),
    ] {
        let spec = WorkloadSpec {
            distribution,
            ..ycsb_a()
        };
        rows.push(run(label, Precursor, spec, 50, 0xAB1, &base));
    }
    for threads in [6, 12, 24] {
        let mut cost = base.clone();
        cost.server_threads = threads;
        rows.push(precursor(&format!("server threads: {threads}"), 50, &cost));
    }
    Figure {
        id: "ablation",
        paper_claim: "per-mechanism contributions (§5.4): client-side encryption up to +40 % \
                      over server-side; the right networking cuts latency 26×",
        csv: "ablation_mechanisms",
        header: "configuration,kops,latency",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().map(ablation_line).collect(),
        check: |ms| {
            let [client, server] = ENCRYPTION.map(|label| labelled(ms, label).value);
            ensure!(client > server, "server-side encryption wins");
            let p50 = |label| labelled(ms, label).last().latency.percentile(50.0);
            let [rdma, tcp] = NETWORK.map(p50);
            ensure!(rdma < tcp, "TCP-class beats RDMA at p50");
            Ok(())
        },
    }
}

fn ablation_line(m: &Measured) -> String {
    let Some(w) = m.windows.first() else {
        let [enclave, untrusted] = m.direct[..] else {
            unreachable!()
        };
        let split = format!("enclave {enclave}ns + untrusted {untrusted}ns per get");
        return format!("{},-,{split}", m.label);
    };
    // The paging rows report their tail.
    let tail = m.label.starts_with("epc");
    let latency = w.run.latency.percentile(if tail { 99.0 } else { 50.0 });
    format!("{},{},{latency}", m.label, kops(m.value))
}

// The trajectory's scale: small enough that 22 points take seconds.
const TRAJECTORY_KEYS: u64 = 20_000;
const TRAJECTORY_OPS: u64 = 8_000;
const TRAJECTORY_SEED: u64 = 0xB5EED;

fn trajectory() -> Figure {
    let cost = CostModel::default();
    // The measured default poller, not the paper's scan-all cost basis.
    let params = |system, value, clients| {
        let params = SessionParams::new(system).value_size(value);
        let params = params.keys(TRAJECTORY_KEYS, TRAJECTORY_KEYS);
        params.max_clients(clients).seed(TRAJECTORY_SEED)
    };
    let point = |fig: &str, label: &str, system: SystemKind, spec, clients| {
        let label = format!("{fig},{label},{}", system.name());
        Row::window(label, spec, clients, TRAJECTORY_OPS)
    };
    let a = WorkloadSpec::workload_a(128, TRAJECTORY_KEYS);
    let b = WorkloadSpec::workload_b(128, TRAJECTORY_KEYS);
    let c = WorkloadSpec::workload_c(128, TRAJECTORY_KEYS);
    let mut rows = Vec::new();
    for system in [Precursor, ShieldStore] {
        let mixes = [("A", &a), ("B", &b), ("C", &c)];
        let mixes = mixes.map(|(mix, spec)| point("fig4", mix, system, spec.clone(), 8));
        rows.extend(shared(params(system, 128, 8), &cost, mixes));
    }
    // The journal on the update-heavy mix; compacting it every 64 sweeps
    // runs off the per-op path, so both rows read the same.
    let journaled = params(Precursor, 128, 8).journaled(true);
    let journal = point("fig4", "A+journal", Precursor, a.clone(), 8);
    rows.push(journal.on(journaled.clone(), &cost));
    let compacting = point("fig4", "A+journal+compact", Precursor, a, 8);
    rows.push(compacting.on(journaled.compacted(true), &cost));
    rows.push(Row::direct("failover,catchup,Precursor", catchup));
    for size in [64, 1024] {
        let spec = WorkloadSpec::workload_c(size, TRAJECTORY_KEYS);
        let row = point("fig5", &format!("{size}B"), Precursor, spec, 8);
        rows.push(row.on(params(Precursor, size, 8), &cost));
    }
    for shards in [1, 4] {
        let label = format!("shards={shards}");
        let row = point("fig6", &label, Precursor, c.clone(), 16);
        rows.push(row.on(params(Precursor, 128, 16).shards(shards), &cost));
    }
    for shards in [4, 8] {
        // One 10 k-client fleet per shard count; 1 k clients run first.
        let fleet = params(Precursor, 128, 10_000).ring_bytes(1 << 10);
        let decades = [1_000, 10_000].map(|clients| {
            let label = format!("clients={clients}/shards={shards}");
            point("fig6", &label, Precursor, c.clone(), clients)
        });
        rows.extend(shared(fleet.shards(shards), &cost, decades));
    }
    for system in [Precursor, ShieldStore] {
        let row = point("fig8", "128B", system, c.clone(), 8);
        rows.push(row.on(params(system, 128, 8), &cost));
    }
    for nodes in [1, 2, 4] {
        let spec = WorkloadSpec::workload_b(32, FIG9_KEYS);
        let label = format!("fig9,nodes={nodes},{}", Precursor.name());
        let row = Row::window(label, spec, 1_000, FIG9_OPS);
        rows.push(row.on(fig9_session(nodes, 1_000, TRAJECTORY_SEED), &cost));
    }
    Figure {
        id: "trajectory",
        paper_claim: "22 seeded points across Figs 4–9 and failover at 20 k keys, 8 k ops: \
                      the regression gate, committed CSV byte for byte",
        csv: "trajectory",
        header: "fig,label,system,throughput_ops,p50_ns,p95_ns,p99_ns,client_cpu_ns,\
                 server_critical_ns,server_overhead_ns,enclave_ns,network_ns,total_ns,\
                 epc_pages,epc_faults,ops,allocs_per_op,alloc_bytes_per_op",
        reps: Reps::Mean(1),
        rows,
        lines: |ms| ms.iter().map(trajectory_line).collect(),
        check: |ms| {
            let compacting = &labelled(ms, "fig4,A+journal+compact,Precursor").windows[0];
            let compactions = compacting.after.counter("journal.compactions");
            ensure!(compactions > 0, "the compacting row never compacted");
            for m in ms.iter().filter(|m| m.label.contains("clients=")) {
                let shed = m.windows[0].after.gauge("server.reports_dropped_total");
                ensure!(shed == 0, "{}: {shed} op reports shed", m.label);
            }
            let fig9 = ms.iter().filter(|m| m.label.starts_with("fig9,"));
            for (m, nodes) in fig9.zip([1, 2, 4]) {
                let fenced = fig9_fenced(nodes, &m.windows[0]);
                fenced.map_err(|e| format!("{}: {e}", m.label))?;
            }
            let catchup = &labelled(ms, "failover,catchup,Precursor").direct;
            let [.., in_catchup, lag] = catchup[..] else {
                unreachable!()
            };
            ensure!(in_catchup == 0.0, "catch-up never drained");
            ensure!(lag == 0.0, "{lag} records of replica lag left");
            Ok(())
        },
    }
}

// Staged-promotion catch-up: 256 committed writes, the primary dies, and the
// promoted survivor drains its catch-up queue 8 records per pump while
// already serving. Pumps do not advance virtual time, so ticks stand in for
// it: records drained per tick, ticks to drain, records, whether it is still
// catching up, and the replica lag left.
fn catchup() -> Vec<f64> {
    use precursor::{GroupCommitPolicy, ReplicaGroup};
    let cost = CostModel::default();
    let policy = GroupCommitPolicy::immediate();
    let mut group = ReplicaGroup::with_replicas(Config::default(), &cost, 3, policy);
    let seed = TRAJECTORY_SEED;
    let mut client = PrecursorClient::connect(group.primary_mut(), seed).expect("connect");
    for i in 0..256u16 {
        let value = [(i as u8) ^ (seed as u8); 48];
        let oid = client.put(&i.to_le_bytes(), &value).expect("submit");
        for _ in 0..400 {
            group.pump();
            client.poll_replies();
            if client.take_completed(oid).is_some() {
                break;
            }
        }
    }
    let report = group.fail_primary(8).expect("staged promotion");
    let pending = report.recovery.catchup_pending as f64;
    let mut ticks = 0u64;
    while group.primary().in_catchup() && ticks < 100_000 {
        group.pump();
        ticks += 1;
    }
    let ticks = ticks.max(1) as f64;
    let in_catchup = f64::from(u8::from(group.primary().in_catchup()));
    let lag = group.metrics().gauge("replica.lag_records") as f64;
    vec![pending / ticks, ticks, pending, in_catchup, lag]
}

// `throughput_ops` and the allocations per op print as `Debug`, whose
// shortest round-trip digits keep a `.0` on a whole number. Allocation
// counts are exact, so the gate holds them byte for byte like the virtual
// times; the catch-up row measures no driver window and counts none.
fn trajectory_line(m: &Measured) -> String {
    let Some(w) = m.windows.first() else {
        let [throughput, ticks, pending, ..] = m.direct[..] else {
            unreachable!()
        };
        // Every percentile is the ticks to drain; stages, total and EPC are 0.
        let (ticks, pending) = (ticks as u64, pending as u64);
        let zeros = "0,".repeat(Stage::ALL.len() + 3);
        let cells = format!("{throughput:?},{ticks},{ticks},{ticks},{zeros}{pending},-,-");
        return format!("{},{cells}", m.label);
    };
    let (r, label) = (&w.run, &m.label);
    let [p50, p95, p99] = [50.0, 95.0, 99.0].map(|q| r.latency.percentile(q).0);
    let stages = Stage::ALL.map(|s| r.stages.mean(s).0.to_string()).join(",");
    let (throughput, total, epc) = (r.throughput_ops, r.stages.mean_total().0, &r.epc);
    let (pages, faults, ops) = (epc.working_set_pages, epc.epc_faults, r.ops);
    let (allocs, bytes) = w.allocs_per_op();
    format!(
        "{label},{throughput:?},{p50},{p95},{p99},{stages},{total},{pages},{faults},{ops},\
         {allocs:?},{bytes:?}"
    )
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::{results_dir, Source};

    #[test]
    fn the_table_is_well_formed_and_writes_every_committed_csv() {
        let table = all();
        let ids: BTreeSet<&str> = table.iter().map(|f| f.id).collect();
        let csvs: BTreeSet<String> = table.iter().map(|f| format!("{}.csv", f.csv)).collect();
        assert!(
            ids.len() == table.len() && csvs.len() == table.len(),
            "unique"
        );
        for f in &table {
            let mut sessions = f.rows.iter().filter_map(|r| match &r.source {
                Source::Window { session, .. } => Some(session.is_some()),
                Source::Direct(_) => None,
            });
            assert_ne!(sessions.next(), Some(false), "{}: no session", f.id);
            let mut tolerances = f.rows.iter().filter_map(|r| r.paper.map(|(_, t)| t));
            assert!(tolerances.all(|t| t > 0.0), "{}: zero tolerance", f.id);
        }
        let names = std::fs::read_dir(results_dir())
            .expect("bench_results/")
            .flatten();
        let committed: BTreeSet<String> = names
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        assert_eq!(
            committed, csvs,
            "every file in bench_results/ is one figure's CSV"
        );
    }
}
