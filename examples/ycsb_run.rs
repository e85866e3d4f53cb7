//! Run a YCSB-style workload against any of the three systems and print a
//! benchmark summary — a miniature of the paper's evaluation (§5).
//!
//! ```sh
//! cargo run --release --example ycsb_run -- [precursor|server-enc|shieldstore] [a|b|c|update] [clients]
//! ```

use precursor_sim::CostModel;
use precursor_ycsb::driver::{SessionParams, SystemKind};
use precursor_ycsb::workload::WorkloadSpec;

fn main() {
    let mut args = std::env::args().skip(1);
    let system = match args.next().as_deref() {
        Some("server-enc") => SystemKind::PrecursorServerEnc,
        Some("shieldstore") => SystemKind::ShieldStore,
        _ => SystemKind::Precursor,
    };
    let keys = 50_000;
    let workload = match args.next().as_deref() {
        Some("a") => WorkloadSpec::workload_a(32, keys),
        Some("b") => WorkloadSpec::workload_b(32, keys),
        Some("update") => WorkloadSpec::update_mostly(32, keys),
        _ => WorkloadSpec::workload_c(32, keys),
    };
    let clients: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
        .clamp(1, 128);

    println!(
        "running {} | read ratio {:.0}% | {} clients | {} keys warmup",
        system.name(),
        workload.read_ratio * 100.0,
        clients,
        keys
    );

    let result = SessionParams::new(system)
        .value_size(workload.value_size)
        .keys(keys, keys)
        .max_clients(clients)
        .seed(0x9C5B)
        .paper_poller(true)
        .build(&CostModel::default())
        .measure(&workload, clients, 20_000);

    println!();
    println!("throughput : {:>10.0} ops/s", result.throughput_ops);
    println!("latency p50: {:>10}", result.latency.percentile(50.0));
    println!("latency p95: {:>10}", result.latency.percentile(95.0));
    println!("latency p99: {:>10}", result.latency.percentile(99.0));
    println!("avg network: {:>10}", result.avg_network);
    println!("avg server : {:>10}", result.avg_server);
    println!("avg client : {:>10}", result.avg_client);
    println!("server util: {:>9.0}%", result.server_utilization * 100.0);
    println!("enclave    : {}", result.epc);
}
