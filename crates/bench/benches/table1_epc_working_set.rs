//! **Table 1** — enclave (EPC) working set, sgx-perf style, after 0 keys,
//! 1 key and 100,000 32 B inserts.
//!
//! Paper numbers:
//!
//! | system      | 0 keys           | 1 key            | 100 k keys       |
//! |-------------|------------------|------------------|------------------|
//! | Precursor   | 52 p (0.2 MiB)   | 65 p (0.25 MiB)  | 2,981 p (11.6 MiB)|
//! | ShieldStore | 17,392 p (67.9 MiB)| 17,586 p (68.6 MiB)| 17,594 p (68.7 MiB)|
//!
//! Precursor's working set grows with keys but stays tiny; ShieldStore
//! statically allocates its MAC/hash structures up front.

use precursor::{Config, PrecursorClient, PrecursorServer};
use precursor_bench::{banner, print_table, write_csv, Scale};
use precursor_shieldstore::{client::ShieldClient, server::ShieldConfig, ShieldServer};
use precursor_sim::CostModel;
use precursor_ycsb::workload::{key_bytes, value_bytes};

const VALUE: usize = 32;
const CHECKPOINTS: [u64; 3] = [0, 1, 100_000];

fn main() {
    let scale = Scale::from_env();
    banner(
        "Table 1: EPC working set vs inserted keys (32 B values)",
        "Precursor 52 / 65 / 2981 pages; ShieldStore 17392 / 17586 / 17594 pages",
        &scale,
    );
    let cost = CostModel::default();
    let paper = [[52u64, 65, 2_981], [17_392, 17_586, 17_594]];
    let mut rows = Vec::new();

    // --- Precursor ---
    {
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut pages = Vec::new();
        pages.push(server.sgx_report().working_set_pages); // 0 keys, pre-connect
        let mut client = PrecursorClient::connect(&mut server, 1).expect("connect");
        let mut inserted = 0u64;
        for &target in &CHECKPOINTS[1..] {
            while inserted < target {
                client
                    .put(&key_bytes(inserted), &value_bytes(inserted, 0, VALUE))
                    .expect("put");
                inserted += 1;
                if inserted.is_multiple_of(512) || inserted == target {
                    // The fairness budget caps records per sweep: sweep
                    // until the ring drains.
                    while server.poll() > 0 {
                        client.poll_replies();
                    }
                    client.take_all_completed();
                }
            }
            pages.push(server.sgx_report().working_set_pages);
        }
        push_rows(&mut rows, "Precursor", &pages, &paper[0]);
    }

    // --- ShieldStore ---
    {
        let mut server = ShieldServer::new(ShieldConfig::default(), &cost);
        let mut pages = Vec::new();
        pages.push(server.sgx_report().working_set_pages);
        let mut client = ShieldClient::connect(&mut server, 1);
        let mut inserted = 0u64;
        for &target in &CHECKPOINTS[1..] {
            while inserted < target {
                client.put(&key_bytes(inserted), &value_bytes(inserted, 0, VALUE));
                inserted += 1;
                if inserted.is_multiple_of(256) || inserted == target {
                    server.poll();
                    client.poll_replies();
                    client.take_all_completed();
                }
            }
            pages.push(server.sgx_report().working_set_pages);
        }
        push_rows(&mut rows, "ShieldStore", &pages, &paper[1]);
    }

    print_table(
        &[
            "system",
            "keys",
            "pages (ours)",
            "MiB (ours)",
            "pages (paper)",
            "delta",
        ],
        &rows,
    );
    write_csv(
        "table1_epc_working_set",
        &["system", "keys", "pages", "mib", "paper_pages", "delta_pct"],
        &rows,
    );

    // Headline: Precursor's 100k-key working set is ~tiny vs ShieldStore's
    // static allocation, and both are ordered as in the paper.
    let precursor_100k: u64 = rows[2][2].parse().expect("pages");
    let shield_0: u64 = rows[3][2].parse().expect("pages");
    assert!(
        precursor_100k < shield_0 / 4,
        "Precursor must stay far below ShieldStore"
    );
}

fn push_rows(rows: &mut Vec<Vec<String>>, system: &str, pages: &[u64], paper: &[u64; 3]) {
    for (i, &p) in pages.iter().enumerate() {
        rows.push(vec![
            system.to_string(),
            format!("{}", CHECKPOINTS[i]),
            format!("{p}"),
            format!("{:.2}", p as f64 * 4096.0 / (1024.0 * 1024.0)),
            format!("{}", paper[i]),
            format!("{:+.0}%", (p as f64 / paper[i] as f64 - 1.0) * 100.0),
        ]);
    }
}
