//! Micro-benchmarks of the substrate data structures and primitives
//! (wall-clock, not simulated time): the Robin Hood table the enclave
//! hosts, the ring buffers on the RDMA path, the verbs model's WRITE post,
//! the RNIC queue-pair cache, the untrusted payload pool, the metric taps,
//! the Merkle tree of the baseline, the EPC residency tracker, the
//! snapshot chain's cuts, folds and restores, and the software crypto. Plain timing loops — no external benchmark harness.
//!
//! ```sh
//! cargo bench -p precursor-bench --bench microbench [-- <section>…]
//! ```
//!
//! A section argument selects every section whose name starts with it;
//! none selects all, and an unknown one exits non-zero listing the names.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use precursor::backend::{KvOp, PrecursorBackend, TrustedKv};
use precursor::{CompactOutcome, Config, GroupCommitPolicy, PrecursorClient, PrecursorServer};
use precursor_crypto::aes::Aes128;
use precursor_crypto::chain::MacChain;
use precursor_crypto::gcm::GcmKey;
use precursor_crypto::{cmac, gcm, salsa20, sha256, Key128, Key256, Nonce12, Nonce8};
use precursor_journal::Journal;
use precursor_obs::observe_meter;
use precursor_rdma::{connect_pair, Memory, RnicCache, WriteBoard};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sgx::epc::EpcTracker;
use precursor_shieldstore::merkle::MerkleTree;
use precursor_storage::pool::SlabPool;
use precursor_storage::ring::{RingConsumer, RingProducer, RingStore};
use precursor_storage::robinhood::RobinHoodMap;
use precursor_ycsb::workload::{key_bytes, value_bytes};

/// Run `f` for `iters` iterations and report mean ns/iter (plus total MB/s
/// when `bytes_per_iter` is non-zero).
fn bench(name: &str, iters: u64, bytes_per_iter: u64, mut f: impl FnMut()) {
    // Short warm-up so lazily-initialised state is off the measured path.
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
    if bytes_per_iter > 0 {
        let mb_s = (bytes_per_iter * iters) as f64 / elapsed.as_secs_f64() / 1e6;
        println!("{name:<28} {ns_per_iter:>12.1} ns/iter {mb_s:>10.1} MB/s");
    } else {
        println!("{name:<28} {ns_per_iter:>12.1} ns/iter");
    }
}

fn bench_robinhood() {
    println!("-- robinhood --");
    bench("insert_10k", 50, 0, || {
        let mut m = RobinHoodMap::<u64, u64>::with_capacity(16_384);
        for i in 0..10_000u64 {
            m.insert(i, i);
        }
        std::hint::black_box(&m);
    });
    let mut filled = RobinHoodMap::with_capacity(16_384);
    for i in 0..10_000u64 {
        filled.insert(i, i);
    }
    let mut k = 0u64;
    bench("get_hit", 1_000_000, 0, || {
        k = (k + 7) % 10_000;
        std::hint::black_box(filled.get(&k));
    });
    let mut k = 10_000u64;
    bench("get_miss", 1_000_000, 0, || {
        k += 1;
        std::hint::black_box(filled.get(&k));
    });
    // Shaped like the server's table: 16-byte `user…` keys, 100 k entries,
    // looked up the way a request is (hash, probe, probe statistics), in a
    // scattered order.
    const ENTRIES: u64 = 100_000;
    let mut table: RobinHoodMap<Vec<u8>, u64> = RobinHoodMap::new();
    for id in 0..ENTRIES {
        table.insert(key_bytes(id).to_vec(), id);
    }
    let mut i = 0u64;
    bench("get_hit_16B_keys_100k", 1_000_000, 0, || {
        i += 1;
        let key = key_bytes(i.wrapping_mul(7_919) % ENTRIES);
        std::hint::black_box(table.get_tracked(&key[..]));
    });
    bench("get_miss_16B_keys_100k", 1_000_000, 0, || {
        i += 1;
        let key = key_bytes(ENTRIES + i % ENTRIES);
        std::hint::black_box(table.get_tracked(&key[..]));
    });
    // One doubling, in place, of a 65 536-slot table at 85 % load: the
    // insert that grows it is timed on a fresh clone each time, per entry
    // the grow moves.
    const SLOTS: usize = 65_536;
    const REPS: u32 = 20;
    let moved = SLOTS * 85 / 100;
    let mut full: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(SLOTS);
    for i in 0..moved as u64 {
        full.insert(i, i);
    }
    let mut elapsed = Duration::ZERO;
    for _ in 0..REPS {
        let mut m = full.clone();
        let start = Instant::now();
        m.insert(u64::MAX, 0);
        elapsed += start.elapsed();
        assert_eq!(m.capacity(), 2 * SLOTS, "the insert doubles the table");
        std::hint::black_box(&m);
    }
    let ns_per_entry = elapsed.as_nanos() as f64 / (f64::from(REPS) * moved as f64);
    println!(
        "{:<28} {ns_per_entry:>12.1} ns/entry",
        "grow_65536_at_85pct"
    );
}

fn bench_crypto() {
    println!("-- crypto --");
    // The two kernels under GCM and CMAC on their own, so a change in the
    // rows below is attributable to AES or to GHASH.
    let cipher = Aes128::new(&Key128::from_bytes([1; 16]));
    let mut block = [0u8; 16];
    bench("aes_encrypt_block", 1_000_000, 16, || {
        block = cipher.encrypt_block(std::hint::black_box(block));
    });
    let hash_key = cipher.encrypt_block([0; 16]);
    let data = vec![0xA5u8; 4096];
    bench("ghash_4k", 1_000, 4096, || {
        std::hint::black_box(gcm::ghash(&hash_key, &[], std::hint::black_box(&data)));
    });
    // A long-lived key's context, built once: `gcm_seal_64_keyed` against
    // `aes_gcm_seal_64` below is the set-up share of a small message, and
    // `gcm_verify_4k` against `aes_gcm_seal`'s rate is authentication
    // without the CTR pass.
    let keyed = GcmKey::new(&Key128::from_bytes([1; 16]));
    let small = [0xA5u8; 64];
    let mut ctr = 0u64;
    bench("gcm_seal_64_keyed", 62_500, 64, || {
        ctr += 1;
        std::hint::black_box(keyed.seal(&Nonce12::from_counter(ctr), &[], &small));
    });
    let nonce = Nonce12::from_counter(0);
    let sealed = keyed.seal(&nonce, &[], &data);
    let (ct, tag) = sealed.split_at(data.len());
    bench("gcm_verify_4k", 1_000, 4096, || {
        assert!(keyed.verify_detached(&nonce, &[], std::hint::black_box(ct), tag));
    });
    // The op path's control crypto on long-lived keys: an 80 B control
    // segment sealed into a reused frame buffer and opened in place, one
    // reply MAC-chain step over `wire::chain_input`'s 54 B, and one journal
    // record of a small put (a group flushed every 32 appends).
    let aad = [0x5Au8; 5];
    let control = [0xC3u8; 80];
    let mut frame = Vec::with_capacity(control.len() + gcm::TAG_LEN);
    bench("gcm_seal_80_keyed", 500_000, 80, || {
        ctr += 1;
        frame.clear();
        keyed.seal_into(&mut frame, &Nonce12::from_counter(ctr), &aad, &control);
        std::hint::black_box(&frame);
    });
    let mut sealed_control = control;
    let tag = keyed.seal_in_place_detached(&nonce, &aad, &mut sealed_control);
    let mut opened = sealed_control;
    bench("gcm_open_80_keyed", 500_000, 80, || {
        opened = sealed_control;
        keyed
            .open_in_place_detached(&nonce, &aad, &mut opened, tag.as_bytes())
            .expect("authentic");
        std::hint::black_box(&opened);
    });
    let mut chain = MacChain::new(&Key128::from_bytes([5; 16]), b"session");
    let link = [0x3Cu8; 54];
    bench("mac_chain_54", 500_000, 54, || {
        std::hint::black_box(chain.advance(std::hint::black_box(&link)));
    });
    let mut journal = Journal::new(
        Key128::from_bytes([6; 16]),
        1,
        GroupCommitPolicy::batched(32, 0),
    );
    let body = [0x33u8; 200];
    let mut appended = 0u64;
    bench("journal_append_200", 100_000, 200, || {
        appended += 1;
        journal.append(1, std::hint::black_box(&body), appended);
        if appended.is_multiple_of(32) {
            std::hint::black_box(journal.flush());
        }
    });
    for len in [64usize, 1024, 16_384] {
        let data = vec![0xA5u8; len];
        let iters = (4_000_000 / len).max(100) as u64;
        let key = Key128::from_bytes([1; 16]);
        let mut ctr = 0u64;
        bench(&format!("aes_gcm_seal_{len}"), iters, len as u64, || {
            ctr += 1;
            std::hint::black_box(gcm::seal(&key, &Nonce12::from_counter(ctr), &[], &data));
        });
        let key256 = Key256::from_bytes([2; 32]);
        let nonce = Nonce8::from_bytes([3; 8]);
        let mut buf = data.clone();
        bench(&format!("salsa20_{len}"), iters, len as u64, || {
            salsa20::xor_keystream(&key256, &nonce, 0, &mut buf);
        });
        let mac_key = Key128::from_bytes([4; 16]);
        bench(&format!("cmac_{len}"), iters, len as u64, || {
            std::hint::black_box(cmac::mac(&mac_key, &data));
        });
        bench(&format!("sha256_{len}"), iters, len as u64, || {
            std::hint::black_box(sha256::digest(&data));
        });
    }
}

fn bench_ring() {
    println!("-- ring --");
    let cap = 1 << 16;
    let mut buf = vec![0u8; cap];
    let mut tx = RingProducer::new(cap);
    let mut rx = RingConsumer::new(cap);
    let payload = [7u8; 64];
    bench("push_pop_64B", 1_000_000, 64, || {
        tx.push(&mut buf, &payload).expect("fits");
        std::hint::black_box(rx.pop(&mut buf).expect("present"));
        tx.update_credits(rx.consumed());
    });
    // A server ring region: 1 MiB, page-sparse, behind its `Memory` lock.
    // 140 B is a small request record; 4 112 B a 4 KiB value's record,
    // which straddles a page boundary on almost every push.
    for (name, len, iters) in [
        ("sparse_1MiB_push_pop_140B", 140, 1_000_000),
        ("sparse_1MiB_push_pop_4112B", 4112, 200_000),
    ] {
        let cap = 1 << 20;
        let ring = Memory::new(RingStore::new(cap));
        let (mut tx, mut rx) = (RingProducer::new(cap), RingConsumer::new(cap));
        let (payload, mut record) = (vec![7u8; len], Vec::new());
        bench(name, iters, len as u64, || {
            ring.with_mut(|buf| tx.push(buf, &payload)).expect("fits");
            std::hint::black_box(ring.with_mut(|buf| rx.pop_from(buf, &mut record)));
            tx.update_credits(rx.consumed());
        });
        println!("{:<28} {:>12} B resident", "", ring.resident_bytes());
    }
}

fn bench_rdma() {
    println!("-- rdma --");
    let data = [7u8; 64];
    // One connection posting back to back, unsignaled (the server's reply
    // and credit WRITEs).
    let (mut hot, peer) = connect_pair(912);
    let key = peer.register(Memory::zeroed(1 << 16), true);
    let mut offset = 0;
    bench("post_write_64_hot", 1_000_000, 64, || {
        offset = (offset + 64) % (1 << 16);
        hot.post_write(key, offset, &data, false)
            .expect("in bounds");
    });
    // The cold fleet: one WRITE per connection in turn over 1 000 pairs
    // with 1 KiB watched rings, the doorbell board drained once a round.
    let board = WriteBoard::new();
    let mut fleet: Vec<_> = (0..1000u64)
        .map(|tag| {
            let (client, server) = connect_pair(912);
            let key = server.register_watched(Memory::zeroed(1024), true, board.clone(), tag);
            (client, key)
        })
        .collect();
    let mut marked = Vec::new();
    let mut i = 0usize;
    bench("post_write_64_fleet_1000", 1_000_000, 64, || {
        let (client, key) = &mut fleet[i % 1000];
        let offset = (i / 1000 * 64) % 1024;
        client
            .post_write(*key, offset, &data, false)
            .expect("in bounds");
        i += 1;
        if i.is_multiple_of(1000) {
            board.drain(&mut marked);
        }
    });
}

fn bench_nic() {
    println!("-- nic --");
    // 1 000 QPs over a 256-entry cache: round-robin misses every access
    // (each one evicts), a hot set inside the capacity hits every one.
    let mut cache = RnicCache::new(256);
    let mut qp = 0u64;
    bench("rnic_cyclic_1000_qps_256", 1_000_000, 0, || {
        qp = (qp + 1) % 1000;
        std::hint::black_box(cache.access(qp));
    });
    bench("rnic_hot_200_qps_256", 1_000_000, 0, || {
        qp = (qp + 7) % 200;
        std::hint::black_box(cache.access(qp));
    });
}

fn bench_obs() {
    println!("-- obs --");
    // The taps a sweep makes, on a registry holding the names a journaled
    // server and its client register while serving puts, gets and deletes
    // (~40): a counter, a histogram, and one finished op's whole meter.
    let cost = precursor_sim::CostModel::default();
    let mut backend = PrecursorBackend::new(Config::default(), &cost);
    backend.enable_durability(GroupCommitPolicy::batched(4, 0));
    backend.connect(1).expect("connect");
    for op in [KvOp::Put, KvOp::Get, KvOp::Delete, KvOp::Get] {
        backend.op_sync(0, op, b"key", b"value").expect("op");
    }
    let meter = backend.take_reports().pop().expect("a report").meter;
    let mut registry = backend.metrics();
    let names =
        registry.counters().count() + registry.gauges().count() + registry.histograms().count();
    println!("{:<28} {names:>12} names", "server_registry");
    bench("inc_server_registry", 1_000_000, 0, || {
        registry.inc(std::hint::black_box("server.polls"), 1);
    });
    let mut v = 0u64;
    bench("observe_server_registry", 1_000_000, 0, || {
        v = (v + 977) % 20_000;
        registry.observe(std::hint::black_box("stage.total_ns"), v);
    });
    bench("observe_meter_server_registry", 1_000_000, 0, || {
        observe_meter(&mut registry, std::hint::black_box(&meter));
    });
    std::hint::black_box(&registry);
}

fn bench_pool() {
    println!("-- pool --");
    // Records of 32 B, 128 B and 4 KiB values: ciphertext ‖ 16-byte tag.
    let mut pool = SlabPool::new(1 << 20);
    for len in [48usize, 144, 4112] {
        bench(&format!("alloc_free_{len}"), 1_000_000, 0, || {
            let range = pool.alloc(std::hint::black_box(len)).expect("space");
            pool.free(range);
        });
    }
}

fn bench_merkle() {
    println!("-- merkle --");
    for leaves in [1usize << 10, 1 << 16] {
        let mut tree = MerkleTree::new(leaves);
        let mut i = 0usize;
        bench(&format!("update_{leaves}_leaves"), 100_000, 0, || {
            i = (i + 1) % leaves;
            tree.update(i, [i as u8; 32]);
        });
    }
}

fn bench_snapshot() {
    println!("-- snapshot --");
    // `compacting_write`'s store and cut rate: a journaled server of
    // 10 000 keys of 32 B, and 61 uniformly drawn overwrites between two
    // compactions. 400 cuts hold several folds, so the amortised row
    // carries their cost. Every entry keeps its size, so the live bytes are
    // those of the first, full cut.
    const KEYS: u64 = 10_000;
    const WRITES: u64 = 61;
    const CUTS: u64 = 400;
    let cost = precursor_sim::CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    server.attach_journal(GroupCommitPolicy::immediate(), &mut MonotonicCounter::new());
    let mut client = PrecursorClient::connect(&mut server, 1).expect("connect");
    let mut counter = MonotonicCounter::new();
    let mut cut = |server: &mut PrecursorServer| match server.compact_journal(&mut counter) {
        CompactOutcome::Compacted { snapshot, .. } => (counter.read(), snapshot.to_vec()),
        other => panic!("the cut commits: {other:?}"),
    };
    for id in 0..KEYS {
        let value = value_bytes(id, 0, 32);
        client
            .put_sync(&mut server, &key_bytes(id), &value)
            .expect("load");
    }
    let live = cut(&mut server).1.len() as f64;
    let counted = |server: &PrecursorServer, name: &str| server.metrics().counter(name);

    // (ns, bytes sealed) of every cut, split by whether it folded; the
    // blob with the longest chain (the one before a fold) and the base
    // right after a fold, with their versions.
    let (mut appends, mut folds) = (Vec::new(), Vec::new());
    let (mut blob_bytes, mut widest) = (0.0, 0.0f64);
    let (mut longest, mut folded) = ((0, Vec::new()), (0, Vec::new()));
    let mut previous = (0, Vec::new());
    let mut draw = 0x2545_f491_4f6c_dd1du64;
    for round in 1..=CUTS {
        for _ in 0..WRITES {
            draw = draw.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let id = (draw >> 33) % KEYS;
            let value = value_bytes(id, round, 32);
            client
                .put_sync(&mut server, &key_bytes(id), &value)
                .expect("put");
        }
        let fold = counted(&server, "snapshot.folds");
        let sealed = counted(&server, "snapshot.bytes_sealed");
        let start = Instant::now();
        let outcome = server.compact_journal(&mut counter);
        let ns = start.elapsed().as_nanos() as f64;
        let CompactOutcome::Compacted { snapshot, .. } = outcome else {
            panic!("the cut commits: {outcome:?}");
        };
        let (version, blob) = (counter.read(), snapshot.to_vec());
        let sealed = counted(&server, "snapshot.bytes_sealed") - sealed;
        if counted(&server, "snapshot.folds") > fold {
            folds.push((ns, sealed));
            longest = std::mem::take(&mut previous);
            folded = (version, blob.clone());
        } else {
            appends.push((ns, sealed));
        }
        blob_bytes += blob.len() as f64 / live;
        widest = widest.max(blob.len() as f64 / live);
        previous = (version, blob);
    }

    let mean_sealed = |cuts: &[(f64, u64)]| {
        cuts.iter().map(|c| c.1 as f64).sum::<f64>() / cuts.len().max(1) as f64
    };
    let median_ns = |cuts: &mut Vec<(f64, u64)>| {
        cuts.sort_by(|a, b| a.0.total_cmp(&b.0));
        cuts.get(cuts.len() / 2).map_or(0.0, |c| c.0)
    };
    let total_ns: f64 = appends.iter().chain(&folds).map(|c| c.0).sum();
    let total_sealed: u64 = appends.iter().chain(&folds).map(|c| c.1).sum();
    let row = |name: &str, ns: f64, note: String| {
        println!("{name:<28} {ns:>12.1} ns/iter {note}");
    };
    let note = format!(
        "{:.0} B sealed per cut ({})",
        mean_sealed(&appends),
        appends.len()
    );
    row("cut_61_of_10k", median_ns(&mut appends), note);
    let note = format!(
        "{:.0} B sealed per fold ({})",
        mean_sealed(&folds),
        folds.len()
    );
    row("fold_10k", median_ns(&mut folds), note);
    let note = format!(
        "{:.0} B sealed per cut; blob bytes per live byte {:.3} mean, {widest:.3} max",
        total_sealed as f64 / CUTS as f64,
        blob_bytes / CUTS as f64
    );
    row("cut_amortised", total_ns / CUTS as f64, note);
    for (name, (version, blob)) in [
        ("restore_10k_longest_chain", longest),
        ("restore_10k_base", folded),
    ] {
        let mut at = MonotonicCounter::new();
        for _ in 0..version {
            at.increment();
        }
        bench(name, 10, blob.len() as u64, || {
            let restored = PrecursorServer::restore(Config::default(), &cost, &blob, &at);
            std::hint::black_box(restored.expect("restores"));
        });
    }
}

fn bench_epc() {
    println!("-- epc --");
    // A 1 MiB region that fits the EPC, walked in 88-byte entries (the
    // benchmark's `sgx.touch_ns` stream: most touches land on the page
    // touched last) and then a page at a time (every touch looks its page
    // up and moves it to the front of the LRU list).
    for (name, stride) in [("epc_touch", 88), ("epc_touch_page_stride", 4096)] {
        let mut epc = EpcTracker::new(23_000, 4096);
        let mut i = 0u64;
        bench(name, 1_000_000, 0, || {
            i += 1;
            let offset = (i * stride) % ((1 << 20) - 88);
            std::hint::black_box(epc.touch_range(0, offset, 88));
        });
    }
}

const SECTIONS: [(&str, fn()); 10] = [
    ("robinhood", bench_robinhood),
    ("crypto", bench_crypto),
    ("ring", bench_ring),
    ("rdma", bench_rdma),
    ("nic", bench_nic),
    ("pool", bench_pool),
    ("obs", bench_obs),
    ("merkle", bench_merkle),
    ("epc", bench_epc),
    ("snapshot", bench_snapshot),
];

fn main() -> ExitCode {
    // `--bench`, which cargo appends, is not a section.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let picks = |name: &str, arg: &str| name.starts_with(arg);
    if let Some(arg) = args
        .iter()
        .find(|a| !SECTIONS.iter().any(|(name, _)| picks(name, a)))
    {
        let known: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown section `{arg}`; known: {}", known.join(" "));
        return ExitCode::FAILURE;
    }
    for (name, run) in SECTIONS {
        if args.is_empty() || args.iter().any(|a| picks(name, a)) {
            run();
        }
    }
    ExitCode::SUCCESS
}
