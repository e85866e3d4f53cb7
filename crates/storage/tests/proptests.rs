//! Property-based tests: the Robin Hood map against a `HashMap` model and
//! its in-place doubling against a copying one, the inline key against its
//! byte slice, the ring buffer's FIFO contract, the page-sparse store
//! against a dense model (alone and under a ring), and the pool's
//! non-overlap invariant. Driven by seeded loops over the in-repo
//! deterministic RNG.

use std::collections::HashMap;
use std::collections::HashSet;
use std::collections::VecDeque;

use precursor_sim::rng::SimRng;
use precursor_storage::key::InlineKey;
use precursor_storage::pool::SlabPool;
use precursor_storage::ring::{RingConsumer, RingProducer, RingStore, RingWrites};
use precursor_storage::robinhood::{
    shard_of_hash, stable_key_hash, RobinHoodMap, ShardedRobinHoodMap,
};
use precursor_storage::sparse::{ByteStore, SparseBytes, PAGE_BYTES};

const CASES: usize = 32;

#[test]
fn robinhood_matches_hashmap_model() {
    let mut rng = SimRng::seed_from(0xe001);
    for _ in 0..CASES {
        let mut sut: RobinHoodMap<u16, u32> = RobinHoodMap::with_capacity(8);
        let mut model: HashMap<u16, u32> = HashMap::new();
        let ops = 1 + rng.gen_range(1999) as usize;
        for _ in 0..ops {
            let k = (rng.next_u32() as u16) % 512;
            match rng.gen_range(3) {
                0 => {
                    let v = rng.next_u32();
                    assert_eq!(sut.insert(k, v), model.insert(k, v));
                }
                1 => {
                    assert_eq!(sut.remove(&k), model.remove(&k));
                }
                _ => {
                    assert_eq!(sut.get(&k), model.get(&k));
                }
            }
            assert_eq!(sut.len(), model.len());
        }
        // full-content check at the end
        for (k, v) in model.iter() {
            assert_eq!(sut.get(k), Some(v));
        }
        assert_eq!(sut.iter().count(), model.len());
    }
}

#[test]
fn inline_key_is_its_bytes_at_every_length() {
    // Every length a request's key may have: the key round-trips its
    // bytes, hashes (so buckets and routes) as its slice does, and
    // compares as its slice against a key of another length.
    let mut rng = SimRng::seed_from(0xe00b);
    for _ in 0..CASES {
        for len in 0..=256usize {
            let mut bytes = vec![0u8; len];
            rng.fill_bytes(&mut bytes);
            let key = InlineKey::from(&bytes[..]);
            assert_eq!(key.as_bytes(), &bytes[..], "len {len}");
            assert_eq!(
                stable_key_hash(&key),
                stable_key_hash(&bytes[..]),
                "len {len}"
            );
            assert_eq!(key.clone(), key);
            let mut other = bytes.clone();
            other.truncate(rng.gen_range(len as u64 + 1) as usize);
            if rng.gen_range(2) == 0 {
                other.push(rng.next_u32() as u8);
            }
            let other_key = InlineKey::from(&other[..]);
            assert_eq!(key == other_key, bytes == other, "len {len}");
        }
    }
}

#[test]
fn robinhood_probe_counts_stay_bounded() {
    let mut rng = SimRng::seed_from(0xe002);
    for _ in 0..CASES {
        let n = 1 + rng.gen_range(799) as usize;
        let mut keys: HashSet<u64> = HashSet::new();
        while keys.len() < n {
            keys.insert(rng.next_u64());
        }
        let mut m = RobinHoodMap::with_capacity(2048);
        let mut worst = 0usize;
        for &k in &keys {
            let (_, stats) = m.insert_tracked(k, ());
            worst = worst.max(stats.probes);
        }
        // ≤800 entries in ≥1024 slots: Robin Hood keeps worst-case probes low
        assert!(worst <= 64, "worst probe count {worst}");
        for &k in &keys {
            assert!(m.contains_key(&k));
        }
    }
}

// The copying grow the table's in-place doubling replaced, kept as its
// oracle: every entry, in slot order, re-inserted into an empty table of
// `cap` slots.
fn grown_by_copying(map: &RobinHoodMap<u64, u32>, cap: usize) -> RobinHoodMap<u64, u32> {
    let mut grown = RobinHoodMap::with_capacity(cap);
    for (hash, &key, &value) in map.iter_hashed() {
        grown.insert_hashed(hash, key, value);
    }
    grown
}

/// A sharded map that grows in place beside one oracle per shard that
/// grows by copying, checked against each other after every doubling.
struct GrowTwin {
    sut: ShardedRobinHoodMap<u64, u32>,
    // Each shard's oracle and its doublings.
    oracles: Vec<(RobinHoodMap<u64, u32>, u64)>,
    // Doublings whose table had a cluster wrapping its end, and the most
    // keys that shared one home at a doubling.
    wrapped: u64,
    shared_home: usize,
}

impl GrowTwin {
    fn new(shards: usize, slots: usize) -> GrowTwin {
        let sut = ShardedRobinHoodMap::with_capacity(shards, slots);
        let oracles = (0..shards)
            .map(|s| (RobinHoodMap::with_capacity(sut.shard(s).capacity()), 0))
            .collect();
        GrowTwin {
            sut,
            oracles,
            wrapped: 0,
            shared_home: 0,
        }
    }

    fn insert(&mut self, key: u64, value: u32) {
        let hash = stable_key_hash(&key);
        let s = shard_of_hash(hash, self.oracles.len());
        let got = self.sut.insert_hashed(hash, key, value);
        let cap = self.sut.shard(s).capacity();
        let (oracle, grows) = &mut self.oracles[s];
        let grown = cap != oracle.capacity();
        if grown {
            assert_eq!(cap, 2 * oracle.capacity(), "a grow doubles");
            // Coverage of the cases the in-place grow treats apart.
            let mask = oracle.capacity() - 1;
            let mut homes: HashMap<usize, usize> = HashMap::new();
            let mut wraps = false;
            for (h, k, _) in oracle.iter_hashed() {
                *homes.entry(h as usize & mask).or_default() += 1;
                let run = oracle.get_tracked(k).1;
                wraps |= run.slots().last().is_some_and(|at| at < run.start);
            }
            self.wrapped += u64::from(wraps);
            self.shared_home = self.shared_home.max(homes.into_values().max().unwrap_or(0));
            *oracle = grown_by_copying(oracle, cap);
            *grows += 1;
        }
        assert_eq!(oracle.insert_hashed(hash, key, value), got);
        if grown {
            self.check_shard(s);
        }
    }

    fn remove(&mut self, key: u64) {
        let hash = stable_key_hash(&key);
        let s = shard_of_hash(hash, self.oracles.len());
        let got = self.sut.remove_hashed(hash, &key);
        assert_eq!(self.oracles[s].0.remove_hashed(hash, &key), got);
    }

    // Shard `s` holds what its oracle does, slot for slot: the same
    // iteration order, the same probe run for a get of every key, the same
    // doublings.
    fn check_shard(&self, s: usize) {
        let (oracle, grows) = &self.oracles[s];
        let shard = self.sut.shard(s);
        assert_eq!(
            (shard.capacity(), shard.len()),
            (oracle.capacity(), oracle.len())
        );
        assert_eq!(shard.resizes(), *grows, "shard {s}");
        assert!(
            shard.iter().eq(oracle.iter()),
            "shard {s}: slot order differs"
        );
        for (key, _) in oracle.iter() {
            assert_eq!(
                self.sut.get_tracked(key),
                oracle.get_tracked(key),
                "key {key}"
            );
        }
    }

    fn check(&self) {
        (0..self.oracles.len()).for_each(|s| self.check_shard(s));
    }
}

#[test]
fn a_table_grown_in_place_matches_one_grown_by_copying() {
    // Random keys, overwrites and removals from 8 slots a shard, across at
    // least three doublings of every shard, on one shard and on four.
    let mut rng = SimRng::seed_from(0xe00c);
    for case in 0..CASES {
        let shards = [1, 4][case % 2];
        let mut twin = GrowTwin::new(shards, 8 * shards);
        let ops = 120 * shards + rng.gen_range(1_200) as usize;
        let mut keys = Vec::new();
        for _ in 0..ops {
            match rng.gen_range(6) {
                0 if !keys.is_empty() => {
                    let key = keys.swap_remove(rng.gen_range(keys.len() as u64) as usize);
                    twin.remove(key);
                }
                1 if !keys.is_empty() => {
                    let key = keys[rng.gen_range(keys.len() as u64) as usize];
                    twin.insert(key, rng.next_u32());
                }
                _ => {
                    let key = rng.next_u64();
                    keys.push(key);
                    twin.insert(key, rng.next_u32());
                }
            }
        }
        twin.check();
        for (s, (_, grows)) in twin.oracles.iter().enumerate() {
            assert!(*grows >= 3, "case {case}: shard {s} grew {grows} times");
        }
    }
}

#[test]
fn a_table_grown_in_place_matches_one_grown_by_copying_when_clusters_wrap() {
    // Keys whose homes sit at a table's last slots or at slot 0 in every
    // size up to 512 slots a shard, so a cluster wraps the end at nearly
    // every doubling, and keys that all share the last slot as their home,
    // so one home holds a long run of ties. Both grow from 8 slots a shard
    // through at least three doublings.
    let near_end = |k: &u64| {
        let h = stable_key_hash(k) as usize & 511;
        h >= 509 || h <= 1
    };
    let last_home = |k: &u64| stable_key_hash(k) as usize & 511 == 511;
    let mut rng = SimRng::seed_from(0xe00d);
    for case in 0..CASES {
        let shards = [1, 4][case % 2];
        let mut twin = GrowTwin::new(shards, 8 * shards);
        let ties = rng.gen_f64();
        let start = rng.next_u64() >> 8;
        let mut near = (start..).filter(near_end);
        let mut tied = (start..).filter(last_home);
        let mut inserted = Vec::new();
        for _ in 0..60 * shards + rng.gen_range(100) as usize {
            let key = match rng.gen_range(8) {
                0 => rng.next_u64(),
                _ if rng.gen_f64() < ties => tied.next().expect("endless"),
                _ => near.next().expect("endless"),
            };
            inserted.push(key);
            twin.insert(key, key as u32);
            if rng.gen_range(10) == 0 {
                let gone = inserted.swap_remove(rng.gen_range(inserted.len() as u64) as usize);
                twin.remove(gone);
            }
        }
        twin.check();
        for (s, (_, grows)) in twin.oracles.iter().enumerate() {
            assert!(*grows >= 3, "case {case}: shard {s} grew {grows} times");
        }
        assert!(
            twin.wrapped > 0,
            "case {case}: no doubling met a wrapping cluster"
        );
        assert!(
            twin.shared_home >= 4,
            "case {case}: {} keys at most shared a home",
            twin.shared_home
        );
    }
}

#[test]
fn ring_is_fifo_under_random_interleaving() {
    let mut rng = SimRng::seed_from(0xe003);
    for _ in 0..CASES {
        let cap = 1024;
        let mut buf = vec![0u8; cap];
        let mut tx = RingProducer::new(cap);
        let mut rx = RingConsumer::new(cap);
        let mut queued: VecDeque<Vec<u8>> = VecDeque::new();
        let drain_bias = rng.gen_f64();
        let pushes = 1 + rng.gen_range(299) as usize;
        for i in 0..pushes {
            let len = 1 + rng.gen_range(119) as usize;
            let payload: Vec<u8> = (0..len).map(|j| (i * 31 + j) as u8).collect();
            loop {
                if rng.gen_f64() < drain_bias {
                    if let Some(got) = rx.pop(&mut buf) {
                        assert_eq!(got, queued.pop_front().unwrap());
                        tx.update_credits(rx.consumed());
                    }
                }
                if tx.push(&mut buf, &payload).is_some() {
                    queued.push_back(payload.clone());
                    break;
                }
                let got = rx.pop(&mut buf).unwrap();
                assert_eq!(got, queued.pop_front().unwrap());
                tx.update_credits(rx.consumed());
            }
        }
        while let Some(got) = rx.pop(&mut buf) {
            assert_eq!(got, queued.pop_front().unwrap());
        }
        assert!(queued.is_empty());
    }
}

#[test]
fn pool_allocations_never_overlap() {
    let mut rng = SimRng::seed_from(0xe004);
    for _ in 0..CASES {
        let mut pool = SlabPool::new(1 << 22);
        let mut live: Vec<precursor_storage::pool::PoolRange> = Vec::new();
        let allocs = 1 + rng.gen_range(199) as usize;
        for _ in 0..allocs {
            let s = 1 + rng.gen_range(4999) as usize;
            if let Some(r) = pool.alloc(s) {
                for other in &live {
                    assert!(r.end() <= other.offset || other.end() <= r.offset);
                }
                live.push(r);
            }
            if rng.gen_bool(0.5) {
                if let Some(r) = live.pop() {
                    pool.free(r);
                }
            }
        }
    }
}

// A random range of `store_len` bytes: half of them straddle a page
// boundary, the rest lie anywhere.
fn rand_range(rng: &mut SimRng, store_len: usize) -> std::ops::Range<usize> {
    let len = 1 + rng.gen_range(2 * PAGE_BYTES as u64) as usize;
    let len = len.min(store_len);
    let start = if rng.gen_bool(0.5) && store_len > PAGE_BYTES + len {
        let boundary =
            PAGE_BYTES * (1 + rng.gen_range((store_len / PAGE_BYTES - 1) as u64) as usize);
        boundary.saturating_sub(1 + rng.gen_range(len as u64) as usize)
    } else {
        rng.gen_range((store_len - len + 1) as u64) as usize
    };
    let start = start.min(store_len - len);
    start..start + len
}

// Pages of `model` holding a non-zero byte: a sparse store that dropped one
// of them lost data.
fn nonzero_pages(model: &[u8]) -> usize {
    model
        .chunks(PAGE_BYTES)
        .filter(|page| page.iter().any(|&b| b != 0))
        .count()
}

#[test]
fn sparse_store_matches_a_dense_model() {
    let mut rng = SimRng::seed_from(0xe005);
    for _ in 0..CASES {
        // Not a page multiple: the last page is partial.
        let len =
            PAGE_BYTES * (2 + rng.gen_range(6) as usize) + 8 * rng.gen_range(500) as usize + 4;
        let mut sut = SparseBytes::new(len);
        let mut model = vec![0u8; len];
        let ops = 1 + rng.gen_range(400) as usize;
        for _ in 0..ops {
            match rng.gen_range(10) {
                0..=2 => {
                    let r = rand_range(&mut rng, model.len());
                    let mut data = vec![0u8; r.len()];
                    rng.fill_bytes(&mut data);
                    sut.write_at(r.start, &data);
                    model[r].copy_from_slice(&data);
                }
                3..=5 => {
                    let r = rand_range(&mut rng, model.len());
                    sut.zero(r.clone());
                    model[r].fill(0);
                }
                6 => {
                    // a host tampering one byte in place
                    let i = rng.gen_range(model.len() as u64) as usize;
                    let bit = 1 << rng.gen_range(8);
                    sut[i] ^= bit;
                    model[i] ^= bit;
                }
                7 => {
                    let extra = rng.gen_range(PAGE_BYTES as u64 + 300) as usize;
                    sut.grow(extra);
                    model.resize(model.len() + extra, 0);
                }
                _ => {
                    let r = rand_range(&mut rng, model.len());
                    let mut out = vec![0xA5; r.len()];
                    sut.read_at(r.start, &mut out);
                    assert_eq!(out, model[r.clone()]);
                    let mut appended = vec![1, 2];
                    sut.extend_into(r.clone(), &mut appended);
                    assert_eq!(appended[2..], model[r]);
                }
            }
            assert_eq!(sut.len(), model.len());
            // No page that still holds a byte was released; at most one
            // released page is kept besides the live ones.
            let pages = sut.resident_pages();
            assert!(
                pages >= nonzero_pages(&model),
                "a page holding data was released"
            );
            assert!(pages <= model.len().div_ceil(PAGE_BYTES) + 1);
        }
        let mut all = vec![0xA5; model.len()];
        sut.read_at(0, &mut all);
        assert_eq!(all, model);
        // Zeroing everything releases every page; one is kept as the spare.
        sut.zero(0..model.len());
        assert!(sut.resident_pages() <= 1);
    }
}

#[test]
fn a_ring_over_a_sparse_store_matches_one_over_a_dense_buffer() {
    let mut rng = SimRng::seed_from(0xe006);
    for case in 0..6 {
        let cap = 16 * PAGE_BYTES + 8 * case; // not always a page multiple
        let mut dense = vec![0u8; cap];
        let mut sparse = RingStore::new(cap);
        assert!(matches!(sparse, RingStore::Sparse(_)), "larger than a page");
        let mut tx = RingProducer::new(cap);
        let (mut rx, mut sparse_rx) = (RingConsumer::new(cap), RingConsumer::new(cap));
        // Recent records' WRITEs with the absolute span they cover, kept
        // for re-issue as a retransmitting host keeps them.
        let mut recent: VecDeque<(u64, u64, RingWrites)> = VecDeque::new();
        let mut queued: VecDeque<Vec<u8>> = VecDeque::new();
        let (mut pops, mut reissued) = (0usize, 0usize);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for step in 0..6_000 {
            if rng.gen_bool(0.5) {
                let len = 1 + rng.gen_range(5 * 1024) as usize;
                let mut payload = vec![0u8; len];
                rng.fill_bytes(&mut payload);
                let mut writes = RingWrites::default();
                let start = tx.written();
                if tx.push_with(&payload, &mut writes).is_some() {
                    for (off, bytes) in writes.iter() {
                        dense.write_at(off, bytes);
                        sparse.write_at(off, bytes);
                    }
                    recent.push_back((start, tx.written(), writes));
                    queued.push_back(payload);
                    if recent.len() > 8 {
                        recent.pop_front();
                    }
                }
            } else if rx.consumed() < tx.written() {
                // The consumer reads only where the producer wrote (a poll
                // of an empty ring could meet the stale bytes a verbatim
                // re-issue leaves — in either layout alike).
                assert!(rx.pop_into(&mut dense, &mut a));
                assert!(sparse_rx.pop_from(&mut sparse, &mut b));
                assert_eq!(rx.consumed(), sparse_rx.consumed());
                assert_eq!(a, b);
                assert_eq!(a, queued.pop_front().expect("pushed"));
                pops += 1;
                tx.update_credits(rx.consumed());
            }
            let behind = recent.iter().find(|(start, end, _)| {
                rx.consumed() >= *end && tx.written() <= start + cap as u64
            });
            if let Some((_, _, writes)) = behind.filter(|_| rng.gen_bool(0.2)) {
                // A consumed record's WRITEs re-issued verbatim (a
                // retransmission whose credit word lagged): stale bytes
                // behind the consumer, which the next lap's records and
                // zeroings must meet alike in both rings.
                for (off, bytes) in writes.iter() {
                    dense.write_at(off, bytes);
                    sparse.write_at(off, bytes);
                }
                reissued += 1;
            }
            if step % 101 == 0 {
                let mut whole = vec![0xA5; cap];
                sparse.read_at(0, &mut whole);
                assert_eq!(whole, dense, "every byte agrees");
            }
        }
        assert!(
            tx.written() > 20 * cap as u64,
            "the ring wrapped many times"
        );
        assert!(
            pops > 1_000 && reissued > 10,
            "{pops} pops, {reissued} re-issues"
        );
        let RingStore::Sparse(pages) = &sparse else {
            unreachable!()
        };
        assert!(pages.resident_pages() >= nonzero_pages(&dense));
    }
}
