//! Enclave Page Cache model.
//!
//! Tracks which enclave pages are *resident* in the EPC (bounded, LRU
//! eviction — the SGX driver's behaviour abstracted) and which have ever been
//! *touched* (the working set sgx-perf reports). Touching a non-resident
//! page is an EPC fault; the paper estimates ≈20,000 cycles per fault until
//! execution continues (§2.1).

use std::collections::HashMap;

/// A page identifier: region id in the high bits, page index in the low.
pub type PageId = u64;

/// Builds a [`PageId`] from a region number and page index within it.
pub fn page_id(region: u32, page_index: u64) -> PageId {
    ((region as u64) << 40) | (page_index & ((1 << 40) - 1))
}

// "No slot": an evicted page in `pages`, or the end of the LRU list.
const NIL: u32 = u32::MAX;

// One resident page and its neighbours in the LRU list.
#[derive(Debug, Clone)]
struct Slot {
    page: PageId,
    prev: u32,
    next: u32,
}

/// EPC residency and working-set tracker.
///
/// # Example
///
/// ```
/// use precursor_sgx::epc::{page_id, EpcTracker};
///
/// let mut epc = EpcTracker::new(2, 4096); // tiny EPC: two resident pages
/// assert_eq!(epc.touch_pages(page_id(0, 0), 1), 1); // cold fault
/// assert_eq!(epc.touch_pages(page_id(0, 0), 1), 0); // now resident
/// epc.touch_pages(page_id(0, 1), 1);
/// epc.touch_pages(page_id(0, 2), 1); // evicts page 0 (LRU)
/// assert_eq!(epc.touch_pages(page_id(0, 0), 1), 1); // faults again
/// assert_eq!(epc.working_set_pages(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EpcTracker {
    capacity_pages: u64,
    page_bytes: u64,
    // Every page ever touched (the working set) -> its slot, `NIL` once
    // evicted.
    pages: HashMap<PageId, u32>,
    // The resident pages, linked from most (`head`) to least (`tail`)
    // recently used. A slot is only ever handed from an evicted page to
    // the page that displaced it, so every slot is always on the list.
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    faults: u64,
    evictions: u64,
}

impl EpcTracker {
    /// Creates a tracker with room for `capacity_pages` resident pages of
    /// `page_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages` or `page_bytes` is zero.
    pub fn new(capacity_pages: u64, page_bytes: u64) -> EpcTracker {
        assert!(capacity_pages > 0 && page_bytes > 0, "EPC must be nonempty");
        EpcTracker {
            capacity_pages,
            page_bytes,
            pages: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            faults: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = old;
        match old {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Touches `count` consecutive pages starting at `first`; returns the
    /// number of EPC faults incurred (pages that were not resident).
    pub fn touch_pages(&mut self, first: PageId, count: u64) -> u64 {
        let mut faults = 0;
        for page in first..first + count {
            // Already the most recently used page: nothing moves.
            if self.head != NIL && self.slots[self.head as usize].page == page {
                continue;
            }
            let slot = match self.pages.get(&page) {
                Some(&slot) if slot != NIL => {
                    self.unlink(slot);
                    slot
                }
                _ => {
                    faults += 1;
                    let slot = if self.slots.len() as u64 == self.capacity_pages {
                        // Evict the least-recently-used page; the new page
                        // takes over its slot.
                        let victim = self.tail;
                        self.unlink(victim);
                        self.pages.insert(self.slots[victim as usize].page, NIL);
                        self.evictions += 1;
                        self.slots[victim as usize].page = page;
                        victim
                    } else {
                        assert!(
                            self.slots.len() < NIL as usize,
                            "fewer than 2^32 resident pages"
                        );
                        let slot = self.slots.len() as u32;
                        self.slots.push(Slot {
                            page,
                            prev: NIL,
                            next: NIL,
                        });
                        slot
                    };
                    self.pages.insert(page, slot);
                    slot
                }
            };
            self.push_front(slot);
        }
        self.faults += faults;
        faults
    }

    /// Touches the pages covering `bytes[offset .. offset+len)` of a region.
    /// Returns the number of faults.
    pub fn touch_range(&mut self, region: u32, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first_page = offset / self.page_bytes;
        let last_page = (offset + len - 1) / self.page_bytes;
        self.touch_pages(page_id(region, first_page), last_page - first_page + 1)
    }

    /// Distinct pages touched since creation — sgx-perf's working-set metric.
    pub fn working_set_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Working set in bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.working_set_pages() * self.page_bytes
    }

    /// Pages currently resident in the EPC.
    pub fn resident_pages(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Total faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Usable EPC capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use precursor_sim::rng::SimRng;

    use super::*;

    // The tracker this one replaced — a stamp per resident page, an ordered
    // map of stamps, a second map for the working set — kept as the model
    // the linked list is checked against, touch for touch.
    struct ReferenceEpc {
        capacity_pages: u64,
        resident: HashMap<PageId, u64>, // page -> last-use stamp
        lru: BTreeMap<u64, PageId>,     // stamp -> page
        stamp: u64,
        touched: HashMap<PageId, u64>, // page -> touch count (working set)
        evictions: u64,
    }

    impl ReferenceEpc {
        fn new(capacity_pages: u64) -> ReferenceEpc {
            ReferenceEpc {
                capacity_pages,
                resident: HashMap::new(),
                lru: BTreeMap::new(),
                stamp: 0,
                touched: HashMap::new(),
                evictions: 0,
            }
        }

        fn touch_pages(&mut self, first: PageId, count: u64) -> u64 {
            let mut faults = 0;
            for i in 0..count {
                let page = first + i;
                *self.touched.entry(page).or_insert(0) += 1;
                self.stamp += 1;
                let stamp = self.stamp;
                if let Some(old) = self.resident.insert(page, stamp) {
                    self.lru.remove(&old);
                } else {
                    faults += 1;
                    if self.resident.len() as u64 > self.capacity_pages {
                        let (&old_stamp, &victim) = self
                            .lru
                            .iter()
                            .next()
                            .expect("lru nonempty when over capacity");
                        self.lru.remove(&old_stamp);
                        self.resident.remove(&victim);
                        self.evictions += 1;
                    }
                }
                self.lru.insert(stamp, page);
            }
            faults
        }
    }

    #[test]
    fn linked_list_matches_the_stamped_reference_touch_for_touch() {
        for capacity in [1u64, 2, 16, 4096] {
            for seed in 0..8u64 {
                let mut rng = SimRng::seed_from(seed ^ (capacity << 8));
                let mut epc = EpcTracker::new(capacity, 4096);
                let mut model = ReferenceEpc::new(capacity);
                // Universes below, at and well above capacity; bursts of
                // repeats and multi-page runs that wrap past the universe.
                let universe = 1 + rng.gen_range(capacity * 3 + 2);
                let mut faults = 0;
                for step in 0..6_000 {
                    let region = rng.gen_range(3) as u32;
                    let first = page_id(region, rng.gen_range(universe));
                    let count = match rng.gen_range(8) {
                        0 => 1 + rng.gen_range(12),
                        _ => 1,
                    };
                    for _ in 0..1 + rng.gen_range(3) / 2 {
                        let got = epc.touch_pages(first, count);
                        let want = model.touch_pages(first, count);
                        let at = format!("capacity {capacity} seed {seed} step {step}");
                        assert_eq!(got, want, "{at}: faults of this touch");
                        faults += want;
                        assert_eq!(epc.faults(), faults, "{at}");
                        assert_eq!(epc.evictions(), model.evictions, "{at}");
                        assert_eq!(epc.resident_pages(), model.resident.len() as u64, "{at}");
                        assert_eq!(epc.working_set_pages(), model.touched.len() as u64, "{at}");
                    }
                }
                // The same pages resident, in the same LRU order.
                let mut order = Vec::new();
                let mut at = epc.head;
                while at != NIL {
                    order.push(epc.slots[at as usize].page);
                    at = epc.slots[at as usize].next;
                }
                let want: Vec<PageId> = model.lru.values().rev().copied().collect();
                assert_eq!(order, want, "capacity {capacity} seed {seed}: LRU order");
            }
        }
    }

    #[test]
    fn cold_touches_fault_once() {
        let mut epc = EpcTracker::new(100, 4096);
        assert_eq!(epc.touch_pages(page_id(0, 0), 10), 10);
        assert_eq!(epc.touch_pages(page_id(0, 0), 10), 0);
        assert_eq!(epc.faults(), 10);
        assert_eq!(epc.working_set_pages(), 10);
        assert_eq!(epc.resident_pages(), 10);
    }

    #[test]
    fn touch_range_page_math() {
        let mut epc = EpcTracker::new(100, 4096);
        // 1 byte at offset 0 => 1 page
        assert_eq!(epc.touch_range(0, 0, 1), 1);
        // crossing one page boundary => 1 new page
        assert_eq!(epc.touch_range(0, 4090, 10), 1);
        // zero-length touch is free
        assert_eq!(epc.touch_range(0, 0, 0), 0);
        assert_eq!(epc.working_set_pages(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut epc = EpcTracker::new(3, 4096);
        epc.touch_pages(page_id(0, 0), 1);
        epc.touch_pages(page_id(0, 1), 1);
        epc.touch_pages(page_id(0, 2), 1);
        // refresh page 0 so page 1 is the LRU
        epc.touch_pages(page_id(0, 0), 1);
        epc.touch_pages(page_id(0, 3), 1); // evicts page 1
        assert_eq!(epc.touch_pages(page_id(0, 0), 1), 0, "page 0 stayed");
        assert_eq!(epc.touch_pages(page_id(0, 1), 1), 1, "page 1 was evicted");
        assert!(epc.evictions() >= 1);
    }

    #[test]
    fn residency_never_exceeds_capacity() {
        let mut epc = EpcTracker::new(16, 4096);
        for i in 0..1000 {
            epc.touch_pages(page_id(0, i % 64), 1);
            assert!(epc.resident_pages() <= 16);
        }
        assert!(epc.working_set_pages() > epc.capacity_pages());
    }

    #[test]
    fn regions_do_not_collide() {
        let mut epc = EpcTracker::new(100, 4096);
        epc.touch_range(1, 0, 4096);
        epc.touch_range(2, 0, 4096);
        assert_eq!(epc.working_set_pages(), 2);
    }

    #[test]
    fn working_set_is_monotonic_and_includes_evicted() {
        let mut epc = EpcTracker::new(2, 4096);
        for i in 0..50 {
            epc.touch_pages(page_id(0, i), 1);
        }
        assert_eq!(epc.working_set_pages(), 50);
        assert_eq!(epc.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "EPC must be nonempty")]
    fn zero_capacity_rejected() {
        let _ = EpcTracker::new(0, 4096);
    }
}
