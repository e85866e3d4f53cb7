//! Leaf-layer timers: direct calls into one public function of one module,
//! fixed iteration counts, the fastest of five passes. Host wall-clock.
//!
//! A pass runs every timer once. The passes follow each other, so the five
//! repeats of one timer lie seconds apart and a burst of interference from
//! the shared machine cannot slow all of them.

use std::hint::black_box;
use std::time::Instant;

use precursor::backend::{KvOp, PrecursorBackend, TrustedKv};
use precursor::wire::{Opcode, ReplyFrame, RequestFrame, Status};
use precursor::Config;
use precursor_crypto::{cmac, gcm, salsa20, sha256, Key128, Key256, Nonce12, Nonce8, Tag};
use precursor_journal::{recover, GroupCommitPolicy, Journal};
use precursor_obs::{MetricsRegistry, Tracer};
use precursor_rdma::{connect_pair, Memory};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sgx::Enclave;
use precursor_sim::engine::EventQueue;
use precursor_sim::{CostModel, Histogram, Link, Meter, Nanos, Pool};
use precursor_storage::{RingConsumer, RingProducer, RobinHoodMap, SlabPool};
use precursor_ycsb::workload::{key_bytes, value_bytes};

use crate::report::{Better, Metric};

const PASSES: usize = 5;

/// Seconds per call of `f` over `iters` calls. `f` gets the iteration index.
fn time(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn ns(name: &'static str, secs_per_call: f64) -> Metric {
    Metric::lower(name, "ns", secs_per_call * 1e9)
}

fn mbps(name: &'static str, bytes: usize, secs_per_call: f64) -> Metric {
    Metric::higher(name, "MB/s", bytes as f64 / secs_per_call / 1e6)
}

fn crypto(out: &mut Vec<Metric>) {
    let key = Key128::from_bytes([1; 16]);
    let key256 = Key256::from_bytes([2; 32]);
    let nonce8 = Nonce8::from_bytes([3; 8]);
    let small = [0xA5u8; 64];
    let large = vec![0xA5u8; 4096];

    out.push(ns(
        "crypto.gcm_seal_64_ns",
        time(20_000, |i| {
            black_box(gcm::seal(
                &key,
                &Nonce12::from_counter(i),
                &[],
                black_box(&small),
            ));
        }),
    ));
    let nonce = Nonce12::from_counter(7);
    let sealed = gcm::seal(&key, &nonce, &[], &small);
    out.push(ns(
        "crypto.gcm_open_64_ns",
        time(20_000, |_| {
            black_box(gcm::open(&key, &nonce, &[], black_box(&sealed)).expect("authentic"));
        }),
    ));
    out.push(ns(
        "crypto.cmac_64_ns",
        time(20_000, |_| {
            black_box(cmac::mac(&key, black_box(&small)));
        }),
    ));
    out.push(mbps(
        "crypto.gcm_seal_4k_mbps",
        4096,
        time(500, |i| {
            black_box(gcm::seal(
                &key,
                &Nonce12::from_counter(i),
                &[],
                black_box(&large),
            ));
        }),
    ));
    let mut buf = large.clone();
    out.push(mbps(
        "crypto.salsa20_4k_mbps",
        4096,
        time(2_000, |_| {
            salsa20::xor_keystream(&key256, &nonce8, 0, black_box(&mut buf));
        }),
    ));
    out.push(mbps(
        "crypto.cmac_4k_mbps",
        4096,
        time(500, |_| {
            black_box(cmac::mac(&key, black_box(&large)));
        }),
    ));
    out.push(mbps(
        "crypto.sha256_4k_mbps",
        4096,
        time(1_000, |_| {
            black_box(sha256::digest(black_box(&large)));
        }),
    ));
}

fn storage(out: &mut Vec<Metric>) {
    // A table the size of small_read's, keyed like the server's.
    const ENTRIES: u64 = 100_000;
    const PROBES: u64 = 20_000;
    let mut table: RobinHoodMap<Vec<u8>, u64> = RobinHoodMap::new();
    for id in 0..ENTRIES {
        table.insert(key_bytes(id).to_vec(), id);
    }
    // A stride coprime to the table size visits keys in a scattered order.
    let hit = |i: u64| key_bytes(i.wrapping_mul(7_919) % ENTRIES);
    out.push(ns(
        "storage.rh_get_hit_ns",
        time(PROBES, |i| {
            black_box(table.get(&hit(i)[..]));
        }),
    ));
    out.push(ns(
        "storage.rh_get_miss_ns",
        time(PROBES, |i| {
            black_box(table.get(&key_bytes(ENTRIES + i)[..]));
        }),
    ));
    // Remove PROBES keys, then put them back.
    let remove = time(PROBES, |i| {
        black_box(table.remove(&hit(i)[..]));
    });
    let insert = time(PROBES, |i| {
        black_box(table.insert(hit(i).to_vec(), i));
    });
    out.push(ns("storage.rh_insert_ns", insert));
    out.push(ns("storage.rh_remove_ns", remove));

    let cap = 1 << 16;
    let mut ring = vec![0u8; cap];
    let mut tx = RingProducer::new(cap);
    let mut rx = RingConsumer::new(cap);
    let record = [7u8; 64];
    out.push(ns(
        "storage.ring_push_pop_ns",
        time(100_000, |_| {
            tx.push(&mut ring, &record).expect("fits");
            black_box(rx.pop(&mut ring).expect("present"));
            tx.update_credits(rx.consumed());
        }),
    ));
    let mut pool = SlabPool::new(1 << 20);
    out.push(ns(
        "storage.pool_alloc_free_ns",
        time(200_000, |_| {
            let range = pool.alloc(black_box(96)).expect("space");
            pool.free(range);
        }),
    ));
}

fn wire(out: &mut Vec<Metric>) {
    let request = RequestFrame {
        opcode: Opcode::Put,
        client_id: 3,
        iv: Nonce12::from_counter(9),
        sealed_control: vec![0x11; 83],
        mac: Tag::from_bytes([4; 16]),
        payload: vec![0x22; 32],
    };
    out.push(ns(
        "wire.request_codec_ns",
        time(100_000, |_| {
            let bytes = black_box(&request).encode();
            black_box(RequestFrame::decode(&bytes).expect("well-formed"));
        }),
    ));
    let reply = ReplyFrame {
        status: Status::Ok,
        opcode: Opcode::Get,
        reply_seq: 9,
        sealed_control: vec![0x11; 120],
        payload: vec![0x22; 32],
    };
    out.push(ns(
        "wire.reply_codec_ns",
        time(100_000, |_| {
            let bytes = black_box(&reply).encode();
            black_box(ReplyFrame::decode(&bytes).expect("well-formed"));
        }),
    ));
}

fn rdma(out: &mut Vec<Metric>) {
    let (mut a, b) = connect_pair(912);
    let key = b.register(Memory::zeroed(1 << 16), true);
    for (name, len) in [
        ("rdma.post_write_64_ns", 64),
        ("rdma.post_write_4k_ns", 4096),
    ] {
        let data = vec![0x5Au8; len];
        out.push(ns(
            name,
            time(50_000, |i| {
                let offset = (i as usize * len) % (1 << 15);
                black_box(
                    a.post_write(key, offset, black_box(&data), false)
                        .expect("posted"),
                );
            }),
        ));
    }
}

fn sgx(out: &mut Vec<Metric>, cost: &CostModel) {
    let mut enclave = Enclave::new(cost);
    let region = enclave.alloc_region("bench", 1 << 20);
    let mut meter = Meter::new();
    out.push(ns(
        "sgx.touch_ns",
        time(200_000, |i| {
            black_box(enclave.touch(region, (i * 88) % ((1 << 20) - 88), 88, &mut meter, cost));
        }),
    ));
    out.push(ns(
        "sgx.ecall_ns",
        time(200_000, |_| {
            enclave.ecall(black_box(&mut meter), cost);
        }),
    ));
}

fn journal(out: &mut Vec<Metric>) {
    const GROUP: u64 = 32;
    const GROUPS: u64 = 200;
    let key = Key128::from_bytes([6; 16]);
    let body = [0x33u8; 64];
    let mut j = Journal::new(
        key.clone(),
        1,
        GroupCommitPolicy::batched(GROUP as usize, 0),
    );
    let secs = time(GROUPS, |g| {
        for _ in 0..GROUP {
            j.append(1, black_box(&body), g);
        }
        black_box(j.flush());
    });
    out.push(ns("journal.append_flush_ns_rec", secs / GROUP as f64));
    let durable = j.durable();
    let secs = time(1, |_| {
        let recovered = recover(&key, 1, black_box(durable));
        assert_eq!(recovered.records.len() as u64, GROUP * GROUPS);
    });
    out.push(mbps("journal.recover_mbps", durable.len(), secs));
}

fn snapshot(out: &mut Vec<Metric>, cost: &CostModel) {
    const KEYS: u64 = 10_000;
    let mut backend = PrecursorBackend::new(Config::default(), cost);
    backend.connect(1).expect("connect");
    for id in 0..KEYS {
        backend
            .op_sync(0, KvOp::Put, &key_bytes(id), &value_bytes(id, 0, 32))
            .expect("load put");
    }
    let mut counter = MonotonicCounter::new();
    let secs = time(1, |_| {
        black_box(backend.server_mut().snapshot(&mut counter));
    });
    out.push(Metric::lower("snapshot.seal_ms_10k", "ms", secs * 1e3));
}

fn sim(out: &mut Vec<Metric>) {
    let mut queue: EventQueue<usize> = EventQueue::new();
    for c in 0..1_000usize {
        queue.push(Nanos(c as u64 * 120), c);
    }
    out.push(ns(
        "sim.queue_push_pop_ns",
        time(200_000, |_| {
            let (at, c) = queue.pop().expect("never drains");
            queue.push(at + Nanos(6_000 + (c as u64 % 7) * 100), c);
        }),
    ));
    let mut pool = Pool::new("bench", 12);
    out.push(ns(
        "sim.pool_acquire_ns",
        time(200_000, |i| {
            black_box(pool.acquire_partial(Nanos(i * 500), Nanos(900), Nanos(4_000)));
        }),
    ));
    let mut link = Link::new("bench", Nanos(1_000), 40.0);
    out.push(ns(
        "sim.link_transfer_ns",
        time(200_000, |i| {
            black_box(link.transfer(Nanos(i * 500), 128));
        }),
    ));
    let mut hist = Histogram::new();
    out.push(ns(
        "sim.hist_record_ns",
        time(200_000, |i| {
            hist.record(Nanos(5_000 + (i % 977) * 13));
        }),
    ));
    black_box(&hist);
}

fn obs(out: &mut Vec<Metric>) {
    let mut registry = MetricsRegistry::default();
    out.push(ns(
        "obs.counter_inc_ns",
        time(200_000, |_| {
            registry.inc(black_box("bench.counter"), 1);
        }),
    ));
    black_box(&registry);
    let mut tracer = Tracer::disabled();
    out.push(ns(
        "obs.trace_off_ns",
        time(1_000_000, |i| {
            black_box(&mut tracer).record(Nanos(i), "bench", "event", i, 0);
        }),
    ));
}

fn pass(cost: &CostModel) -> Vec<Metric> {
    let mut out = Vec::new();
    crypto(&mut out);
    storage(&mut out);
    wire(&mut out);
    rdma(&mut out);
    sgx(&mut out, cost);
    journal(&mut out);
    snapshot(&mut out, cost);
    sim(&mut out);
    obs(&mut out);
    out
}

/// Every leaf timer, the better value of [`PASSES`] passes each. The same
/// for every workload: they time the modules, not the traffic.
pub fn run() -> Vec<Metric> {
    let cost = CostModel::default();
    let mut best = pass(&cost);
    for _ in 1..PASSES {
        for (kept, new) in best.iter_mut().zip(pass(&cost)) {
            kept.value = match kept.better {
                Better::Lower => kept.value.min(new.value),
                Better::Higher => kept.value.max(new.value),
            };
        }
    }
    best
}
