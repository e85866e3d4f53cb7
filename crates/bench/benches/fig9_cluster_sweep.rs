//! **Figure 9 (cluster)** — multi-node throughput scaling with a live
//! key-range migration pumped under load.
//!
//! There is no paper figure for this: Precursor's testbed is a single
//! server machine. This sweep pins the repo's cluster extension instead —
//! consistent-hash placement, client location caches, sealed `NotMine`
//! redirects, and fenced push-model migration — through the one YCSB
//! driver: every node has its own CPU pool and NIC, each op is replayed
//! on the node that served it, and a redirected op pays a full round trip
//! at the stale node first (DESIGN.md §18).
//!
//! Acceptance bounds, enforced in-run:
//!
//! * 4 nodes must deliver ≥ 1.7× the 1-node throughput at every fleet
//!   size — the placement ring's worst-case node share (32 vnodes) caps
//!   perfect 4× scaling well above that floor;
//! * on multi-node points exactly one migration fences inside the window
//!   (the session starts one every 5000 sweeps), with the stale-routing
//!   overhead (sealed redirects / ops) **< 1 %**;
//! * every fence is observed: multi-node windows must count at least one
//!   redirect and one cache refresh, or the migration measured nothing
//!   (`summary::fig9_window` checks both from the `cluster.*` counters).
//!
//! Runs at a fixed scale (ignores `PRECURSOR_FULL`): the scaling ratios
//! only mean something if every run does the same work.

use precursor_bench::summary::{fig9_window, FIG9_MAX_REDIRECT_RATE, FIG9_OPS as OPS};
use precursor_bench::{kops, print_table, write_csv};
use precursor_sim::CostModel;

const NODES: [usize; 3] = [1, 2, 4];
const CLIENTS: [usize; 2] = [1_000, 10_000];
const MIN_SPEEDUP_4N: f64 = 1.7;

fn main() {
    println!("================================================================");
    println!("Figure 9 (cluster): 1 -> 2 -> 4 nodes, live migration in flight");
    println!("consistent-hash ring, location caches, sealed NotMine redirects");
    println!("fixed scale (PRECURSOR_FULL ignored): scaling-ratio asserts");
    println!("================================================================");
    let cost = CostModel::default();

    let mut rows = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for &clients in &CLIENTS {
        let mut base_tput = 0.0;
        for &nodes in &NODES {
            let (r, redirects, keys_moved) = fig9_window(nodes, clients, 0xF19C, &cost);
            match nodes {
                1 => base_tput = r.throughput_ops,
                4 => speedups.push((clients, r.throughput_ops / base_tput)),
                _ => {}
            }
            let redirect_pct = redirects as f64 / OPS as f64 * 100.0;
            println!(
                "  nodes={nodes} clients={clients}: {} virtual Kops, p50 {}, \
                 {redirects} redirects ({redirect_pct:.3}%), {keys_moved} keys moved",
                kops(r.throughput_ops),
                r.latency.percentile(50.0),
            );
            rows.push(vec![
                format!("{nodes}"),
                format!("{clients}"),
                format!("{OPS}"),
                kops(r.throughput_ops),
                format!("{}", r.latency.percentile(50.0).0),
                format!("{}", r.latency.percentile(99.0).0),
                format!("{:.3}", r.server_utilization),
                format!("{}", r.clients_active),
                format!("{redirects}"),
                format!("{redirect_pct:.3}"),
                format!("{keys_moved}"),
            ]);
        }
    }
    let columns = [
        "nodes",
        "clients",
        "ops",
        "virtual_kops",
        "p50_ns",
        "p99_ns",
        "mean_node_util",
        "active_clients",
        "redirects",
        "redirect_pct",
        "keys_moved",
    ];
    print_table(&columns, &rows);
    write_csv("fig9_cluster_sweep", &columns, &rows);
    println!();
    for &(clients, speedup) in &speedups {
        assert!(
            speedup >= MIN_SPEEDUP_4N,
            "4-node speedup {speedup:.2}x below the {MIN_SPEEDUP_4N}x floor \
             (clients={clients})"
        );
        println!("  clients={clients}: 4-node speedup {speedup:.2}x");
    }
    println!(
        "cluster sweep OK: >= {MIN_SPEEDUP_4N}x at 4 nodes, \
         redirect rate < {:.0}% with a migration fenced in-window",
        FIG9_MAX_REDIRECT_RATE * 100.0
    );
}
