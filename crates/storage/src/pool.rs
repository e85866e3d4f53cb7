//! Pre-allocated untrusted payload pool.
//!
//! Precursor's trusted threads need slots in *untrusted* memory to store
//! client payloads. Calling out of the enclave per allocation would cost an
//! ocall (~13,100 cycles) each time, so the paper pre-allocates a memory pool
//! and issues a *single batched ocall* only when the pool must grow (§3.8,
//! §4). [`SlabPool`] reproduces that: it manages offsets within an
//! externally-owned buffer using size-class free lists plus a bump pointer,
//! and reports when the caller has to grow the buffer (the modelled ocall).
//!
//! A stored record is client ciphertext ‖ a 16-byte CMAC tag, so a
//! power-of-two value — every size the paper measures — lands just *past* a
//! power of two. Size classes are therefore geometric with eight steps per
//! doubling rather than powers of two: 16, 32, 48 and 64 B, then 72, 80, …,
//! 128, 144, 160, … up to 512 KiB. Above 64 B a slot wastes less than an
//! eighth of itself (a 4 KiB value's 4 112-byte record takes a 4 608-byte
//! slot, not an 8 KiB one), so the pool's resident pages follow the live
//! records.

/// A byte range handed out by the pool. This is the paper's `ptr` stored in
/// the enclave hash table, pointing at untrusted payload memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolRange {
    /// Offset of the slot within the pooled buffer.
    pub offset: usize,
    /// Usable length in bytes (the requested length).
    pub len: usize,
    /// Size class the slot was carved from (capacity ≥ `len`).
    class: u8,
}

impl PoolRange {
    /// The range [`SlabPool::alloc`] handed out for `len` bytes at
    /// `offset`: the length determines the size class, so an index that
    /// keeps only a slot's offset and its value's length rebuilds the range
    /// it frees.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the largest size class, which no allocation
    /// has.
    pub fn at(offset: usize, len: usize) -> PoolRange {
        let class = class_of(len).expect("a length the pool allocates");
        PoolRange { offset, len, class }
    }

    /// End offset (exclusive) of the usable range.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// Capacity of the underlying slot (the size class's full width, ≥
    /// `len`). Per-client memory quotas account in these units, matching
    /// what [`PoolStats::bytes_in_use`] charges.
    pub fn capacity(&self) -> usize {
        class_size(self.class)
    }
}

/// The slot capacity an allocation of `len` bytes would occupy, without
/// allocating (`None` when `len` exceeds the largest size class). Lets
/// quota checks reject an oversized request *before* touching the pool.
pub fn slot_capacity(len: usize) -> Option<usize> {
    class_of(len).map(class_size)
}

/// Allocation statistics for diagnostics and the EPC/ocall accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful allocations.
    pub allocations: u64,
    /// Frees returned to the size-class lists.
    pub frees: u64,
    /// Times the pool ran out of space (each is one modelled ocall).
    pub grow_events: u64,
    /// Bytes currently handed out (by slot capacity, not request size).
    pub bytes_in_use: usize,
}

// 16, 32, 48, 64 B, then eight classes per doubling up to 2^19 = 512 KiB.
const LINEAR_CLASSES: usize = 4; // 16-byte steps up to 2^LINEAR_SHIFT
const LINEAR_SHIFT: usize = 6;
const STEP_SHIFT: usize = 3; // 2^STEP_SHIFT classes per doubling
const MAX_CLASS_SHIFT: usize = 19;
const NUM_CLASSES: usize = LINEAR_CLASSES + ((MAX_CLASS_SHIFT - LINEAR_SHIFT) << STEP_SHIFT);

fn class_of(len: usize) -> Option<u8> {
    let n = len.max(1) - 1;
    let class = if n >> LINEAR_SHIFT == 0 {
        n / 16
    } else {
        // `n` lies in the doubling [2^top, 2^(top+1)); its top four bits
        // (8..=15) say which eighth of it.
        let top = (usize::BITS - 1 - n.leading_zeros()) as usize;
        let eighth = (n >> (top - STEP_SHIFT)) - (1 << STEP_SHIFT);
        LINEAR_CLASSES + ((top - LINEAR_SHIFT) << STEP_SHIFT) + eighth
    };
    (class < NUM_CLASSES).then_some(class as u8)
}

fn class_size(class: u8) -> usize {
    let class = class as usize;
    if class < LINEAR_CLASSES {
        return 16 * (class + 1);
    }
    let k = class - LINEAR_CLASSES;
    let (doubling, eighth) = (k >> STEP_SHIFT, k % (1 << STEP_SHIFT));
    ((1 << STEP_SHIFT) + 1 + eighth) << (LINEAR_SHIFT - STEP_SHIFT + doubling)
}

/// Offset allocator over an external buffer.
///
/// # Example
///
/// ```
/// use precursor_storage::pool::SlabPool;
///
/// let mut pool = SlabPool::new(4096);
/// let a = pool.alloc(100).unwrap();
/// let b = pool.alloc(100).unwrap();
/// assert_ne!(a.offset, b.offset);
/// let a_offset = a.offset;
/// pool.free(a);
/// // freed slots are recycled for the same size class
/// let c = pool.alloc(100).unwrap();
/// assert_eq!(c.offset, a_offset);
/// ```
#[derive(Debug, Clone)]
pub struct SlabPool {
    capacity: usize,
    bump: usize,
    free_lists: [Vec<usize>; NUM_CLASSES],
    stats: PoolStats,
}

impl SlabPool {
    /// Creates a pool managing `capacity` bytes of external buffer.
    pub fn new(capacity: usize) -> SlabPool {
        SlabPool {
            capacity,
            bump: 0,
            free_lists: std::array::from_fn(|_| Vec::new()),
            stats: PoolStats::default(),
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes not yet carved out by the bump pointer (free-list slots are
    /// additional reusable space).
    pub fn remaining(&self) -> usize {
        self.capacity - self.bump
    }

    /// Allocation statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Allocates a slot of at least `len` bytes.
    ///
    /// Returns `None` when the pool is exhausted (or `len` exceeds the
    /// largest size class); the caller should [`grow`](Self::grow) the
    /// backing buffer — that is the modelled ocall — and retry.
    pub fn alloc(&mut self, len: usize) -> Option<PoolRange> {
        let class = class_of(len)?;
        let size = class_size(class);
        let offset = if let Some(off) = self.free_lists[class as usize].pop() {
            off
        } else {
            if self.bump + size > self.capacity {
                self.stats.grow_events += 1;
                return None;
            }
            let off = self.bump;
            self.bump += size;
            off
        };
        self.stats.allocations += 1;
        self.stats.bytes_in_use += size;
        Some(PoolRange { offset, len, class })
    }

    /// Returns a slot to its size class for reuse.
    pub fn free(&mut self, range: PoolRange) {
        self.stats.frees += 1;
        self.stats.bytes_in_use -= class_size(range.class);
        self.free_lists[range.class as usize].push(range.offset);
    }

    /// Extends the managed capacity by `extra` bytes (after the caller grew
    /// the backing buffer via the modelled ocall).
    pub fn grow(&mut self, extra: usize) {
        self.capacity += extra;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX_LEN: usize = 1 << MAX_CLASS_SHIFT;

    #[test]
    fn size_classes_are_tight_disjoint_and_reused() {
        // A record of ciphertext ‖ 16-byte tag for the paper's value sizes.
        for (len, slot) in [
            (1, 16),
            (17, 32),
            (32 + 16, 48),
            (65, 72),
            (100, 104),
            (128, 128),
            (128 + 16, 144),
            (4096, 4096),
            (4096 + 16, 4608),
            (MAX_LEN, MAX_LEN),
        ] {
            assert_eq!(slot_capacity(len), Some(slot), "len {len}");
        }
        assert_eq!(class_of(0), Some(0));
        assert_eq!(class_of(MAX_LEN + 1), None);
        for class in 1..NUM_CLASSES as u8 {
            assert!(class_size(class) > class_size(class - 1), "class {class}");
        }
        assert_eq!(class_size(NUM_CLASSES as u8 - 1), MAX_LEN);
        // Every length maps to the smallest class that holds it, and above
        // 64 B that class wastes less than an eighth of the slot.
        for len in 1..=MAX_LEN {
            let class = class_of(len).expect("within the cap");
            let slot = class_size(class);
            assert!(slot >= len, "len {len} in a {slot}-byte slot");
            assert!(class == 0 || class_size(class - 1) < len, "len {len}");
            if len > 64 {
                assert!((slot - len) * 8 < slot, "len {len}: {slot}-byte slot");
            }
        }
        // Whole slots, not just the requested lengths, are disjoint.
        let mut pool = SlabPool::new(1 << 20);
        let mut ranges = Vec::new();
        for len in [10usize, 100, 1000, 16, 48, 64, 64, 65, 144, 4096, 4112] {
            ranges.push(pool.alloc(len).unwrap());
        }
        let end = |r: &PoolRange| r.offset + r.capacity();
        for (i, a) in ranges.iter().enumerate() {
            assert_eq!(
                PoolRange::at(a.offset, a.len),
                *a,
                "rebuilt from offset and length"
            );
            for b in &ranges[i + 1..] {
                assert!(
                    end(a) <= b.offset || end(b) <= a.offset,
                    "overlap: {a:?} vs {b:?}"
                );
            }
        }
        // A freed slot goes back to its class: the next request of that
        // class takes it, one of another class does not.
        let freed = ranges.pop().unwrap();
        let in_use = pool.stats().bytes_in_use;
        pool.free(freed);
        assert_eq!(pool.stats().bytes_in_use, in_use - 4608);
        assert_eq!(pool.stats().frees, 1);
        assert_ne!(pool.alloc(4609).unwrap().offset, freed.offset);
        assert_eq!(pool.alloc(4200).unwrap().offset, freed.offset);
    }

    #[test]
    fn size_classes_round_up_to_power_of_two() {
        // Every power of two from the smallest slot to the cap is a class of
        // its own, and no request rounds up past the next power of two.
        for shift in 4..=MAX_CLASS_SHIFT {
            let pow = 1usize << shift;
            assert_eq!(slot_capacity(pow), Some(pow), "2^{shift}");
        }
        for len in 1..=MAX_LEN {
            let slot = slot_capacity(len).expect("within the cap");
            assert!(slot <= len.next_power_of_two().max(16), "len {len}");
        }
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(16), Some(0));
        assert_eq!(class_of(17), Some(1));
        assert_eq!(class_of(MAX_LEN + 1), None);
    }

    #[test]
    fn free_recycles_same_class() {
        let mut pool = SlabPool::new(4096);
        let a = pool.alloc(100).unwrap();
        let a_off = a.offset;
        pool.free(a);
        let b = pool.alloc(104).unwrap(); // same 104-byte class
        assert_eq!(b.offset, a_off);
    }

    #[test]
    fn bytes_in_use_tracks_capacity_of_slots() {
        let mut pool = SlabPool::new(1 << 16);
        let r = pool.alloc(100).unwrap(); // 104-byte class
        assert_eq!(pool.stats().bytes_in_use, 104);
        pool.free(r);
        assert_eq!(pool.stats().bytes_in_use, 0);
        assert_eq!(pool.stats().frees, 1);
    }

    #[test]
    fn slot_capacity_matches_allocation_accounting() {
        let mut pool = SlabPool::new(1 << 16);
        for len in [1usize, 16, 100, 1000, 4096] {
            let expected = slot_capacity(len).unwrap();
            let before = pool.stats().bytes_in_use;
            let r = pool.alloc(len).unwrap();
            assert_eq!(r.capacity(), expected);
            assert_eq!(pool.stats().bytes_in_use - before, expected);
        }
        assert_eq!(slot_capacity(512 * 1024 + 1), None);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut pool = SlabPool::new(1 << 20);
        let mut ranges = Vec::new();
        for len in [10usize, 100, 1000, 16, 64, 64, 4096] {
            ranges.push(pool.alloc(len).unwrap());
        }
        for (i, a) in ranges.iter().enumerate() {
            for b in &ranges[i + 1..] {
                assert!(
                    a.end() <= b.offset || b.end() <= a.offset,
                    "overlap: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn exhaustion_reports_grow_event_and_grow_restores() {
        let mut pool = SlabPool::new(64);
        assert!(pool.alloc(64).is_some());
        assert!(pool.alloc(64).is_none());
        assert_eq!(pool.stats().grow_events, 1);
        pool.grow(64);
        assert!(pool.alloc(64).is_some());
    }

    #[test]
    fn oversized_request_is_rejected_not_panicking() {
        let mut pool = SlabPool::new(1 << 30);
        assert!(pool.alloc(1 << 20).is_none());
    }

    #[test]
    fn churn_reuses_memory_bounded() {
        let mut pool = SlabPool::new(1 << 16);
        for _ in 0..10_000 {
            let r = pool.alloc(1000).unwrap();
            pool.free(r);
        }
        // bump should have advanced only once for the single live slot
        assert_eq!(pool.remaining(), (1 << 16) - slot_capacity(1000).unwrap());
    }
}
