//! Robin Hood open-addressing hash table.
//!
//! The Precursor paper keeps its in-enclave index in a Robin Hood hash table
//! (§4): open addressing bounds probe sequences tightly (good for EPC
//! locality) and avoids the chained pointers whose cache/TLB misses hurt
//! in-enclave lookups. This implementation uses backward-shift deletion, a
//! power-of-two capacity, and an FxHash-style mixer, and reports probe
//! counts and touched slots so the SGX model can charge page accesses.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};

/// FxHash-style multiply-xor hasher (deterministic across runs).
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        // Final avalanche so short keys spread over high bits too.
        let mut z = self.state;
        z ^= z >> 32;
        z = z.wrapping_mul(0xd6e8_feb8_6659_fd93);
        z ^= z >> 32;
        z
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
}

/// The stable FxHash of a key — the same hash [`RobinHoodMap`] buckets by
/// and [`shard_of_hash`] routes on. Exposed so every layer (server, bench
/// driver, tests) derives identical shard routing from the key bytes alone.
pub fn stable_key_hash<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The shard owning `hash` among `shards` shards. Uses the *high* hash
/// bits via a multiply-shift reduction, so shard routing is independent of
/// the table's bucket choice (low bits) and — being a pure function of the
/// hash — trivially stable under table resizes.
pub fn shard_of_hash(hash: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (((hash >> 32) * shards as u64) >> 32) as usize
}

/// Probe statistics for one table operation, used for cost accounting.
///
/// Linear probing never skips a slot, so the slots an operation inspects
/// are one run: `len` slots from `start`, wrapping past the table's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Number of slots inspected (≥1 for any operation on a nonempty table).
    pub probes: usize,
    /// The first slot of the run.
    pub start: usize,
    /// Slots in the run (a removal that finds nothing touches none).
    pub len: usize,
    // The table's slot mask when the operation ran: where the run wraps.
    mask: usize,
}

impl OpStats {
    fn run(start: usize, mask: usize) -> OpStats {
        OpStats {
            probes: 0,
            start,
            len: 0,
            mask,
        }
    }

    // One more slot inspected, at the end of the run.
    fn step(&mut self) {
        self.probes += 1;
        self.len += 1;
    }

    /// Indices of the slots inspected, in order (for EPC page-touch
    /// modelling).
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).map(move |i| (self.start + i) & self.mask)
    }
}

#[derive(Debug, Clone)]
struct Slot<K, V> {
    hash: u64,
    key: K,
    value: V,
}

/// An open-addressing Robin Hood hash map.
///
/// Capacities are powers of two; the table grows (×2) above 85 % load, the
/// highest load factor that keeps mean probe lengths short for Robin Hood
/// probing. Deletion uses backward shifting, so no tombstones accumulate.
///
/// A table doubles in place, in its one slot array: the array is
/// reallocated to twice its length and the entries are redistributed
/// within it, so a grow never holds a second array beside the first. The
/// layout is the one re-inserting every entry, in slot order, into an empty
/// table of the new size gives — the same slots, probe runs and iteration
/// order — because Robin Hood order fixes a layout from each entry's home
/// and the arrival order of entries sharing one, and the redistribution
/// keeps that order.
///
/// # Example
///
/// ```
/// use precursor_storage::robinhood::RobinHoodMap;
///
/// let mut m = RobinHoodMap::new();
/// m.insert("a", 1);
/// m.insert("b", 2);
/// assert_eq!(m.remove(&"a"), Some(1));
/// assert_eq!(m.get(&"a"), None);
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RobinHoodMap<K, V> {
    slots: Vec<Option<Slot<K, V>>>,
    len: usize,
    resizes: u64,
}

const INITIAL_CAPACITY: usize = 2048;
const MAX_LOAD_PERCENT: usize = 85;

impl<K, V> RobinHoodMap<K, V> {
    /// Host bytes of one slot — the stored hash, key and value, or nothing
    /// — as Rust lays it out.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<Slot<K, V>>>();
}

impl<K: Hash + Eq, V> RobinHoodMap<K, V> {
    /// Creates an empty map with the default initial capacity (2048 slots —
    /// the "subset of the hash table" Precursor initializes up front, §5.4).
    pub fn new() -> RobinHoodMap<K, V> {
        RobinHoodMap::with_capacity(INITIAL_CAPACITY)
    }

    /// Creates an empty map with at least `cap` slots (rounded up to a power
    /// of two, minimum 8).
    pub fn with_capacity(cap: usize) -> RobinHoodMap<K, V> {
        let cap = cap.next_power_of_two().max(8);
        RobinHoodMap {
            slots: (0..cap).map(|_| None).collect(),
            len: 0,
            resizes: 0,
        }
    }

    fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
        stable_key_hash(key)
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn dib(&self, slot_idx: usize, hash: u64) -> usize {
        // distance from initial bucket, with wraparound
        let ideal = (hash as usize) & self.mask();
        (slot_idx + self.slots.len() - ideal) & self.mask()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots currently allocated.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Times the table has grown since creation.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Current load factor in `[0, 1)`.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.slots.len() as f64
    }

    /// Bytes occupied by the slot array: [`SLOT_BYTES`](Self::SLOT_BYTES)
    /// per slot.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * Self::SLOT_BYTES
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert_tracked(key, value).0
    }

    /// Like [`insert`](Self::insert) but also reports probe statistics.
    pub fn insert_tracked(&mut self, key: K, value: V) -> (Option<V>, OpStats) {
        self.insert_hashed(Self::hash_of(&key), key, value)
    }

    /// [`insert_tracked`](Self::insert_tracked) for a caller that already
    /// holds the key's [`stable_key_hash`] — which `hash` must be.
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> (Option<V>, OpStats) {
        debug_assert_eq!(hash, Self::hash_of(&key), "insert_hashed: wrong hash");
        if (self.len + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            self.grow();
        }
        let mut idx = (hash as usize) & self.mask();
        let mut stats = OpStats::run(idx, self.mask());
        let mut entry = Slot { hash, key, value };
        let mut entry_dib = 0usize;
        enum Action {
            Place,
            Replace,
            Swap(usize),
            Continue,
        }
        loop {
            stats.step();
            let action = match &self.slots[idx] {
                None => Action::Place,
                Some(occ) if occ.hash == entry.hash && occ.key == entry.key => Action::Replace,
                Some(occ) => {
                    let occ_dib = self.dib(idx, occ.hash);
                    if occ_dib < entry_dib {
                        Action::Swap(occ_dib)
                    } else {
                        Action::Continue
                    }
                }
            };
            match action {
                Action::Place => {
                    self.slots[idx] = Some(entry);
                    self.len += 1;
                    return (None, stats);
                }
                Action::Replace => {
                    let occ = self.slots[idx].as_mut().expect("occupied");
                    let old = std::mem::replace(&mut occ.value, entry.value);
                    return (Some(old), stats);
                }
                Action::Swap(occ_dib) => {
                    // Rob the rich: displace the closer-to-home entry.
                    let occ = self.slots[idx].take().expect("occupied");
                    self.slots[idx] = Some(entry);
                    entry = occ;
                    entry_dib = occ_dib;
                }
                Action::Continue => {}
            }
            idx = (idx + 1) & self.mask();
            entry_dib += 1;
        }
    }

    /// [`insert_hashed`](Self::insert_hashed) of a key given by reference:
    /// a key already stored keeps its stored copy and only its value is
    /// replaced, and `to_owned` makes the copy a new key is stored as. The
    /// table grows, places the key and reports its probes exactly as
    /// `insert_hashed` of the owned key would.
    pub fn insert_hashed_with<Q>(
        &mut self,
        hash: u64,
        key: &Q,
        value: V,
        to_owned: impl FnOnce(&Q) -> K,
    ) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if (self.len + 1) * 100 > self.slots.len() * MAX_LOAD_PERCENT {
            self.grow();
        }
        // A stored key is found along the very run an insert would probe:
        // Robin Hood order puts no richer slot before it.
        if let (Some(idx), stats) = self.probe(hash, key) {
            let slot = self.slots[idx].as_mut().expect("found index is occupied");
            return (Some(std::mem::replace(&mut slot.value, value)), stats);
        }
        self.insert_hashed(hash, to_owned(key), value)
    }

    /// Looks up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_tracked(key).0
    }

    /// Like [`get`](Self::get) but also reports probe statistics.
    pub fn get_tracked<Q>(&self, key: &Q) -> (Option<&V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_hashed(Self::hash_of(key), key)
    }

    /// [`get_tracked`](Self::get_tracked) for a caller that already holds
    /// the key's [`stable_key_hash`] — which `hash` must be.
    pub fn get_hashed<Q>(&self, hash: u64, key: &Q) -> (Option<&V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (found, stats) = self.probe(hash, key);
        let value = found.and_then(|idx| self.slots[idx].as_ref().map(|s| &s.value));
        (value, stats)
    }

    /// Mutable lookup.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = self.probe(Self::hash_of(key), key).0?;
        self.slots[idx].as_mut().map(|s| &mut s.value)
    }

    // The slot holding `key`, whose hash is `hash`, and the run of slots
    // the search inspected.
    fn probe<Q>(&self, hash: u64, key: &Q) -> (Option<usize>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        debug_assert_eq!(hash, Self::hash_of(key), "wrong hash for the key");
        let mut idx = (hash as usize) & self.mask();
        let mut stats = OpStats::run(idx, self.mask());
        let mut dist = 0usize;
        loop {
            stats.step();
            match &self.slots[idx] {
                None => return (None, stats),
                Some(occ) => {
                    if occ.hash == hash && occ.key.borrow() == key {
                        return (Some(idx), stats);
                    }
                    if self.dib(idx, occ.hash) < dist {
                        // Robin Hood invariant: the key cannot be further on.
                        return (None, stats);
                    }
                }
            }
            idx = (idx + 1) & self.mask();
            dist += 1;
            if dist > self.slots.len() {
                return (None, stats);
            }
        }
    }

    /// Removes a key, returning its value. Uses backward-shift deletion.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_tracked(key).0
    }

    /// Like [`remove`](Self::remove) but also reports probe statistics: the
    /// run from the removed slot through the backward shift. A key that is
    /// not stored reports one probe and no slot.
    pub fn remove_tracked<Q>(&mut self, key: &Q) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_hashed(Self::hash_of(key), key)
    }

    /// [`remove_tracked`](Self::remove_tracked) for a caller that already
    /// holds the key's [`stable_key_hash`] — which `hash` must be.
    pub fn remove_hashed<Q>(&mut self, hash: u64, key: &Q) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let (found, mut stats) = self.probe(hash, key);
        let Some(idx) = found else {
            stats.probes = 1;
            stats.len = 0;
            return (None, stats);
        };
        let removed = self.slots[idx].take().expect("found index is occupied");
        self.len -= 1;
        stats = OpStats::run(idx, self.mask());
        stats.step();
        // Backward shift: pull subsequent displaced entries one slot closer.
        let mut hole = idx;
        loop {
            let next = (hole + 1) & self.mask();
            let shift = match &self.slots[next] {
                Some(occ) => self.dib(next, occ.hash) > 0,
                None => false,
            };
            stats.step();
            if !shift {
                break;
            }
            // slots[hole] is vacant: a swap moves the entry back one slot.
            self.slots.swap(hole, next);
            hole = next;
        }
        (Some(removed.value), stats)
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Iterates over `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.iter_hashed().map(|(_, k, v)| (k, v))
    }

    /// [`iter`](Self::iter) with each entry's stored [`stable_key_hash`].
    pub fn iter_hashed(&self) -> impl Iterator<Item = (u64, &K, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (s.hash, &s.key, &s.value)))
    }

    /// Removes all entries, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Mean distance-from-initial-bucket over all entries (diagnostic).
    pub fn mean_dib(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let total: usize = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| self.dib(i, s.hash)))
            .sum();
        total as f64 / self.len as f64
    }

    /// An order-independent digest of the map contents: the wrapping sum of
    /// one FxHash per `(key, value)` pair. Two maps hold the same entries
    /// iff their digests match (modulo hash collisions), regardless of slot
    /// layout — so a [`ShardedRobinHoodMap`]'s merged digest can be compared
    /// against an unsharded oracle.
    pub fn state_digest(&self) -> u64
    where
        V: Hash,
    {
        self.iter()
            .map(|(k, v)| {
                let mut h = FxHasher::default();
                k.hash(&mut h);
                v.hash(&mut h);
                h.finish()
            })
            .fold(0u64, u64::wrapping_add)
    }

    // Doubles the slot array in place, leaving every entry in the slot that
    // re-inserting them all, in slot order, into an empty table of twice
    // the size would give it. That layout follows from each entry's new
    // home and the order in which entries sharing a home arrive, so the
    // redistribution only has to keep that order.
    //
    // A cluster that wraps the table's end is taken out first — the run at
    // slot 0, then the run that ends the table — into a side `Vec`: its
    // entries are the only ones whose probes could cross slots not yet
    // redistributed. The array then doubles (one `realloc`, so a grow's
    // peak is the new array), and slots `0..C` are re-inserted in order
    // under the new mask. An entry whose new home is in the lower half
    // never lands past its old slot, and the upper half starts empty, so
    // every probe meets redistributed or empty slots only. The side
    // entries go back last, in the order they were taken out.
    fn grow(&mut self) {
        let cap = self.slots.len();
        let mut wrapped = Vec::new();
        if self.slots[0].is_some() && self.slots[cap - 1].is_some() {
            let head = self.slots.iter().take_while(|s| s.is_some()).count();
            let tail = self.slots.iter().rev().take_while(|s| s.is_some()).count();
            wrapped.extend(self.slots[..head].iter_mut().filter_map(Option::take));
            wrapped.extend(self.slots[cap - tail..].iter_mut().filter_map(Option::take));
        }
        self.slots.resize_with(2 * cap, || None);
        self.len = 0;
        self.resizes += 1;
        for i in 0..cap {
            if let Some(slot) = self.slots[i].take() {
                self.insert_hashed(slot.hash, slot.key, slot.value);
            }
        }
        for slot in wrapped {
            self.insert_hashed(slot.hash, slot.key, slot.value);
        }
    }
}

impl<K: Hash + Eq, V> Default for RobinHoodMap<K, V> {
    fn default() -> Self {
        RobinHoodMap::new()
    }
}

impl<K: Hash + Eq, V> FromIterator<(K, V)> for RobinHoodMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = RobinHoodMap::new();
        m.extend(iter);
        m
    }
}

impl<K: Hash + Eq, V> Extend<(K, V)> for RobinHoodMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// A hash map partitioned into `N` independent [`RobinHoodMap`] shards,
/// keyed by [`shard_of_hash`] over the stable key hash (§3.8's per-thread
/// enclave index partitioning). Each shard grows independently, so a hot
/// shard resizing never stalls or rehashes the others, and each doubles in
/// place in its own slot array, as a [`RobinHoodMap`] does.
///
/// With one shard this is exactly a [`RobinHoodMap`]: same hash, same
/// bucket choice, same probe sequences — the degenerate case stays
/// bit-identical to the unsharded table.
#[derive(Debug, Clone)]
pub struct ShardedRobinHoodMap<K, V> {
    shards: Vec<RobinHoodMap<K, V>>,
}

impl<K: Hash + Eq, V> ShardedRobinHoodMap<K, V> {
    /// Creates a map with `shards` shards and at least `total_slots` slots
    /// overall, split evenly (each shard rounds up to a power of two,
    /// minimum 8).
    pub fn with_capacity(shards: usize, total_slots: usize) -> ShardedRobinHoodMap<K, V> {
        let shards = shards.max(1);
        let per_shard = (total_slots / shards).max(1);
        ShardedRobinHoodMap {
            shards: (0..shards)
                .map(|_| RobinHoodMap::with_capacity(per_shard))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to (0, without hashing, for one
    /// shard).
    pub fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        shard_of_hash(stable_key_hash(key), self.shards.len())
    }

    /// The shard at `idx` (for per-shard capacity/resize accounting).
    pub fn shard(&self, idx: usize) -> &RobinHoodMap<K, V> {
        &self.shards[idx]
    }

    /// Total number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(RobinHoodMap::len).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(RobinHoodMap::is_empty)
    }

    /// Total allocated slots across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(RobinHoodMap::capacity).sum()
    }

    /// Inserts or replaces; returns the previous value if the key existed.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.insert_tracked(key, value).0
    }

    /// Like [`insert`](Self::insert) but also reports probe statistics
    /// (slot indices are local to the owning shard).
    pub fn insert_tracked(&mut self, key: K, value: V) -> (Option<V>, OpStats) {
        self.insert_hashed(stable_key_hash(&key), key, value)
    }

    /// [`insert_tracked`](Self::insert_tracked) for a caller that already
    /// holds the key's [`stable_key_hash`] — which `hash` must be: it
    /// routes the key and places it, so the key is never hashed again.
    pub fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> (Option<V>, OpStats) {
        let s = shard_of_hash(hash, self.shards.len());
        self.shards[s].insert_hashed(hash, key, value)
    }

    /// [`RobinHoodMap::insert_hashed_with`] in the shard owning `hash`.
    pub fn insert_hashed_with<Q>(
        &mut self,
        hash: u64,
        key: &Q,
        value: V,
        to_owned: impl FnOnce(&Q) -> K,
    ) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let s = shard_of_hash(hash, self.shards.len());
        self.shards[s].insert_hashed_with(hash, key, value, to_owned)
    }

    /// Looks up a key in its owning shard.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Like [`get`](Self::get) but also reports probe statistics.
    pub fn get_tracked<Q>(&self, key: &Q) -> (Option<&V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_hashed(stable_key_hash(key), key)
    }

    /// [`get_tracked`](Self::get_tracked) for a caller that already holds
    /// the key's [`stable_key_hash`] — which `hash` must be.
    pub fn get_hashed<Q>(&self, hash: u64, key: &Q) -> (Option<&V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[shard_of_hash(hash, self.shards.len())].get_hashed(hash, key)
    }

    /// Mutable lookup.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let s = self.shard_of(key);
        self.shards[s].get_mut(key)
    }

    /// Removes a key from its owning shard.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_tracked(key).0
    }

    /// Like [`remove`](Self::remove) but also reports probe statistics.
    pub fn remove_tracked<Q>(&mut self, key: &Q) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.remove_hashed(stable_key_hash(key), key)
    }

    /// [`remove_tracked`](Self::remove_tracked) for a caller that already
    /// holds the key's [`stable_key_hash`] — which `hash` must be.
    pub fn remove_hashed<Q>(&mut self, hash: u64, key: &Q) -> (Option<V>, OpStats)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let s = shard_of_hash(hash, self.shards.len());
        self.shards[s].remove_hashed(hash, key)
    }

    /// Whether any shard contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Iterates over `(key, value)` pairs, shard by shard in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(RobinHoodMap::iter)
    }

    /// The merged order-independent digest: the wrapping sum of the
    /// per-shard [`RobinHoodMap::state_digest`]s, which by construction
    /// equals the digest of an unsharded map holding the same entries.
    pub fn state_digest(&self) -> u64
    where
        V: Hash,
    {
        self.shards
            .iter()
            .map(RobinHoodMap::state_digest)
            .fold(0u64, u64::wrapping_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_basics() {
        let mut m = RobinHoodMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("b", 2), None);
        assert_eq!(m.insert("a", 10), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&"a"), Some(&10));
        assert_eq!(m.get(&"c"), None);
        assert_eq!(m.remove(&"a"), Some(10));
        assert_eq!(m.remove(&"a"), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_by_reference_is_insert_of_the_owned_key() {
        // Twin tables, one inserting owned keys, the other by reference,
        // through growth, overwrites and removals: the same probes, slots,
        // resizes and contents, and a key copied only when it is new.
        let mut owned: RobinHoodMap<Vec<u8>, u64> = RobinHoodMap::with_capacity(8);
        let mut by_ref: RobinHoodMap<Vec<u8>, u64> = RobinHoodMap::with_capacity(8);
        let mut copies = 0;
        for i in 0u64..3_000 {
            let key = format!("k{}", (i * 7_919) % 701).into_bytes();
            if i % 5 == 4 {
                let hash = stable_key_hash(&key[..]);
                assert_eq!(
                    owned.remove_hashed(hash, &key[..]),
                    by_ref.remove_hashed(hash, &key[..])
                );
                continue;
            }
            let hash = stable_key_hash(&key[..]);
            let fresh = !by_ref.contains_key(&key[..]);
            let before = copies;
            let a = owned.insert_hashed(hash, key.clone(), i);
            let b = by_ref.insert_hashed_with(hash, &key[..], i, |k| {
                copies += 1;
                k.to_vec()
            });
            assert_eq!(a, b, "op {i}");
            assert_eq!(copies - before, usize::from(fresh), "op {i}");
            assert_eq!(
                (owned.capacity(), owned.resizes()),
                (by_ref.capacity(), by_ref.resizes())
            );
        }
        assert!(copies < 3_000 * 4 / 5, "overwrites kept their stored keys");
        assert!(owned.iter().eq(by_ref.iter()));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = RobinHoodMap::new();
        m.insert(7u64, vec![1]);
        m.get_mut(&7).unwrap().push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert!(m.get_mut(&8).is_none());
    }

    #[test]
    fn grows_past_load_factor() {
        let mut m: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(8);
        let initial_cap = m.capacity();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert!(m.capacity() > initial_cap);
        assert!(m.resizes() > 0);
        for i in 0..100 {
            assert_eq!(m.get(&i), Some(&(i * 2)), "key {i} lost in growth");
        }
        assert!(m.load_factor() <= 0.85 + 1e-9);
    }

    #[test]
    fn many_inserts_and_deletes_preserve_contents() {
        let mut m = RobinHoodMap::new();
        for i in 0u64..10_000 {
            m.insert(i, i);
        }
        for i in (0u64..10_000).step_by(2) {
            assert_eq!(m.remove(&i), Some(i));
        }
        assert_eq!(m.len(), 5_000);
        for i in 0u64..10_000 {
            if i % 2 == 0 {
                assert_eq!(m.get(&i), None);
            } else {
                assert_eq!(m.get(&i), Some(&i));
            }
        }
    }

    #[test]
    fn backward_shift_keeps_probes_short() {
        let mut m = RobinHoodMap::with_capacity(1 << 14);
        for i in 0u64..8_000 {
            m.insert(i, ());
        }
        for i in 0u64..4_000 {
            m.remove(&i);
        }
        // After heavy deletion, lookups of absent keys must still terminate
        // quickly (no tombstone chains).
        let (_, stats) = m.get_tracked(&999_999u64);
        assert!(stats.probes < 32, "probes: {}", stats.probes);
    }

    #[test]
    fn tracked_ops_report_slots() {
        let mut m = RobinHoodMap::new();
        let (_, ins) = m.insert_tracked(42u64, "v");
        assert_eq!(ins.probes, ins.slots().count());
        assert!(ins.probes >= 1);
        let (v, get) = m.get_tracked(&42u64);
        assert_eq!(v, Some(&"v"));
        assert_eq!(get.slots().next(), ins.slots().last());

        // A run that wraps past the last slot: keys whose home is the last
        // slot of an 8-slot table fill it and spill into slot 0 onwards.
        let mut small: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(8);
        let last_home: Vec<u64> = (0u64..)
            .filter(|k| stable_key_hash(k) & 7 == 7)
            .take(3)
            .collect();
        for &k in &last_home {
            small.insert(k, k);
        }
        let (v, run) = small.get_tracked(&last_home[2]);
        assert_eq!(v, Some(&last_home[2]));
        assert_eq!(run.slots().collect::<Vec<_>>(), vec![7, 0, 1]);
        assert_eq!(run.probes, 3);
        let (_, shift) = small.remove_tracked(&last_home[0]);
        assert_eq!(shift.slots().collect::<Vec<_>>(), vec![7, 0, 1, 2]);
        assert_eq!(shift.probes, 4);

        // Removing a key that is not stored: one probe, no slot touched.
        let (gone, miss) = m.remove_tracked(&7u64);
        assert_eq!(gone, None);
        assert_eq!(miss.probes, 1);
        assert_eq!(miss.slots().count(), 0);
    }

    #[test]
    fn hashed_ops_match_the_keyed_ones() {
        let mut keyed: ShardedRobinHoodMap<Vec<u8>, u32> =
            ShardedRobinHoodMap::with_capacity(4, 64);
        let mut hashed = keyed.clone();
        for i in 0..500u32 {
            let key = format!("user{i}").into_bytes();
            let h = stable_key_hash(&key);
            assert_eq!(
                keyed.insert_tracked(key.clone(), i),
                hashed.insert_hashed(h, key.clone(), i)
            );
            assert_eq!(keyed.get_tracked(&key[..]), hashed.get_hashed(h, &key[..]));
            if i % 3 == 0 {
                assert_eq!(
                    keyed.remove_tracked(&key[..]),
                    hashed.remove_hashed(h, &key[..])
                );
            }
        }
        assert_eq!(keyed.state_digest(), hashed.state_digest());
    }

    #[test]
    fn mean_dib_is_small_at_moderate_load() {
        let mut m = RobinHoodMap::with_capacity(1 << 12);
        for i in 0u64..2_500 {
            m.insert(i, ());
        }
        assert!(m.mean_dib() < 2.0, "mean dib {}", m.mean_dib());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut m = RobinHoodMap::new();
        for i in 0u64..100 {
            m.insert(i, i);
        }
        let cap = m.capacity();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), cap);
        assert_eq!(m.get(&1), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let m: RobinHoodMap<u32, u32> = (0..50).map(|i| (i, i + 1)).collect();
        assert_eq!(m.len(), 50);
        let mut m2 = RobinHoodMap::new();
        m2.extend((0..10).map(|i| (i, i)));
        assert_eq!(m2.len(), 10);
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut m = RobinHoodMap::new();
        for i in 0u64..64 {
            m.insert(i, i * i);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| *k).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        assert!(m.iter().all(|(k, v)| *v == k * k));
        assert!(m.iter_hashed().all(|(h, k, _)| h == stable_key_hash(k)));
    }

    #[test]
    fn memory_bytes_counts_every_slot_at_its_laid_out_size() {
        let m: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(1024);
        assert_eq!(RobinHoodMap::<u64, u64>::SLOT_BYTES, 32);
        assert_eq!(m.memory_bytes(), 1024 * 32);
    }

    #[test]
    fn shard_of_hash_is_total_and_balanced() {
        for shards in 1..=8usize {
            let mut counts = vec![0u32; shards];
            for i in 0u64..4_000 {
                let s = shard_of_hash(stable_key_hash(&i), shards);
                assert!(s < shards);
                counts[s] += 1;
            }
            // FxHash avalanches, so no shard should be starved.
            for (s, &c) in counts.iter().enumerate() {
                assert!(c > 0, "shard {s}/{shards} received no keys");
            }
        }
    }

    #[test]
    fn single_shard_matches_plain_map_exactly() {
        let mut plain: RobinHoodMap<u64, u64> = RobinHoodMap::with_capacity(16);
        let mut sharded: ShardedRobinHoodMap<u64, u64> = ShardedRobinHoodMap::with_capacity(1, 16);
        for i in 0..500u64 {
            let (old_p, stats_p) = plain.insert_tracked(i, i * 3);
            let (old_s, stats_s) = sharded.insert_tracked(i, i * 3);
            assert_eq!(old_p, old_s);
            assert_eq!(stats_p, stats_s, "probe sequences diverge at key {i}");
        }
        assert_eq!(plain.capacity(), sharded.capacity());
        assert_eq!(plain.state_digest(), sharded.state_digest());
    }

    #[test]
    fn sharded_map_merges_to_unsharded_oracle() {
        let mut oracle: RobinHoodMap<u64, u64> = RobinHoodMap::new();
        let mut sharded: ShardedRobinHoodMap<u64, u64> =
            ShardedRobinHoodMap::with_capacity(4, 2048);
        for i in 0..3_000u64 {
            oracle.insert(i, i ^ 0xabcd);
            sharded.insert(i, i ^ 0xabcd);
        }
        for i in (0..3_000u64).step_by(3) {
            assert_eq!(oracle.remove(&i), sharded.remove(&i));
        }
        assert_eq!(oracle.len(), sharded.len());
        assert_eq!(oracle.state_digest(), sharded.state_digest());
        for i in 0..3_000u64 {
            assert_eq!(oracle.get(&i), sharded.get(&i));
        }
        // Every key sits in exactly the shard the router names.
        for s in 0..sharded.shard_count() {
            for (k, _) in sharded.shard(s).iter() {
                assert_eq!(sharded.shard_of(k), s);
            }
        }
    }

    #[test]
    fn byte_vector_keys() {
        let mut m = RobinHoodMap::new();
        m.insert(b"key-1".to_vec(), 1);
        m.insert(b"key-2".to_vec(), 2);
        assert_eq!(m.get(&b"key-1".to_vec()), Some(&1));
        // Borrow-based lookup through slices
        assert_eq!(m.get(&b"key-2"[..]), Some(&2));
    }
}
