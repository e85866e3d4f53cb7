//! RNIC queue-pair state cache.
//!
//! RDMA NICs cache per-connection (QP) state on-chip; with more active
//! connections than cache entries, state is re-fetched over PCIe, adding
//! latency per operation. The paper attributes the throughput decline past
//! ~55 clients in Figure 6 to exactly this "resource contention and cache
//! misses in the RNIC" (§5.2, citing Chen et al.). [`RnicCache`] is an LRU
//! set of QP ids; the driver consults it per op and adds the miss penalty
//! from the cost model.

// "No QP": the end of the LRU list.
const NIL: u32 = u32::MAX;

// One QP id's place in the LRU list, valid while `cached`.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
    cached: bool,
}

const UNCACHED: Link = Link {
    prev: NIL,
    next: NIL,
    cached: false,
};

/// An LRU cache of active queue-pair ids.
///
/// QP ids are dense indices (the driver uses client ids): the cache keeps
/// one list link per id up to the largest id seen, so a hit, a miss and an
/// eviction each cost O(1) with no hashing.
///
/// # Example
///
/// ```
/// use precursor_rdma::nic::RnicCache;
/// let mut cache = RnicCache::new(2);
/// assert!(!cache.access(1)); // cold miss
/// assert!(cache.access(1));  // hit
/// cache.access(2);
/// cache.access(3);           // evicts 1
/// assert!(!cache.access(1));
/// ```
#[derive(Debug, Clone)]
pub struct RnicCache {
    capacity: usize,
    // Indexed by QP id; the cached ids are linked from most (`head`) to
    // least (`tail`) recently used.
    links: Vec<Link>,
    head: u32,
    tail: u32,
    occupancy: usize,
    hits: u64,
    misses: u64,
}

impl RnicCache {
    /// Creates a cache with room for `capacity` QPs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RnicCache {
        assert!(capacity > 0, "cache capacity must be nonzero");
        RnicCache {
            capacity,
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            occupancy: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn unlink(&mut self, qp: u32) {
        let Link { prev, next, .. } = self.links[qp as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, qp: u32) {
        let old = self.head;
        self.links[qp as usize] = Link {
            prev: NIL,
            next: old,
            cached: true,
        };
        match old {
            NIL => self.tail = qp,
            h => self.links[h as usize].prev = qp,
        }
        self.head = qp;
    }

    /// Touches `qp`; returns `true` on a hit, `false` on a miss (the caller
    /// should charge the miss penalty).
    ///
    /// # Panics
    ///
    /// Panics if `qp` is not below `u32::MAX`.
    pub fn access(&mut self, qp: u64) -> bool {
        let qp = u32::try_from(qp)
            .ok()
            .filter(|&q| q != NIL)
            .expect("QP ids are dense indices below u32::MAX");
        if qp as usize >= self.links.len() {
            self.links.resize(qp as usize + 1, UNCACHED);
        }
        let hit = self.links[qp as usize].cached;
        if hit {
            self.hits += 1;
            if self.head == qp {
                return true;
            }
            self.unlink(qp);
        } else {
            self.misses += 1;
            if self.occupancy == self.capacity {
                let victim = self.tail;
                self.unlink(victim);
                self.links[victim as usize].cached = false;
            } else {
                self.occupancy += 1;
            }
        }
        self.push_front(qp);
        hit
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of QPs currently cached.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn within_capacity_everything_hits_after_warmup() {
        let mut c = RnicCache::new(8);
        for qp in 0..8 {
            assert!(!c.access(qp));
        }
        for _ in 0..10 {
            for qp in 0..8 {
                assert!(c.access(qp));
            }
        }
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn round_robin_over_capacity_thrashes() {
        let mut c = RnicCache::new(4);
        // cyclic access over 8 QPs with LRU: every access misses
        for i in 0..80u64 {
            c.access(i % 8);
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 80);
    }

    #[test]
    fn lru_keeps_hot_entries() {
        let mut c = RnicCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 1 is now MRU
        c.access(3); // evicts 2
        assert!(c.access(1));
        assert!(!c.access(2));
    }

    #[test]
    fn occupancy_bounded() {
        let mut c = RnicCache::new(16);
        for qp in 0..100 {
            c.access(qp);
            assert!(c.occupancy() <= 16);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = RnicCache::new(0);
    }

    // The reference LRU: a map from QP to its last-access stamp and an
    // ordered map from stamp back to QP, whose first entry is the victim.
    struct OracleLru {
        capacity: usize,
        entries: HashMap<u64, u64>,
        lru: BTreeMap<u64, u64>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl OracleLru {
        fn new(capacity: usize) -> OracleLru {
            OracleLru {
                capacity,
                entries: HashMap::new(),
                lru: BTreeMap::new(),
                stamp: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, qp: u64) -> bool {
            self.stamp += 1;
            let hit = match self.entries.insert(qp, self.stamp) {
                Some(old) => {
                    self.lru.remove(&old);
                    true
                }
                None => {
                    if self.entries.len() > self.capacity {
                        let (stamp, victim) = self.lru.pop_first().expect("nonempty");
                        debug_assert!(stamp < self.stamp);
                        self.entries.remove(&victim);
                    }
                    false
                }
            };
            self.lru.insert(self.stamp, qp);
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            hit
        }
    }

    #[test]
    fn matches_the_reference_lru_on_seeded_streams() {
        use precursor_sim::rng::SimRng;
        let mut rng = SimRng::seed_from(0x51C);
        for case in 0..60u64 {
            let capacity = 1 + rng.gen_range(300) as usize;
            let mut cache = RnicCache::new(capacity);
            let mut oracle = OracleLru::new(capacity);
            // Hot set: 90 % of accesses go to a set around the capacity;
            // cyclic: a round-robin over slightly more QPs than fit; and
            // uniform over every id.
            let hot = 1 + rng.gen_range(2 * capacity as u64);
            let cycle = capacity as u64 + 1 + rng.gen_range(8);
            for step in 0..5_000u64 {
                let qp = match case % 3 {
                    0 if rng.gen_range(10) < 9 => rng.gen_range(hot),
                    1 => step % cycle,
                    _ => rng.gen_range(2_001),
                };
                assert_eq!(
                    cache.access(qp),
                    oracle.access(qp),
                    "case {case}, step {step}, qp {qp}, capacity {capacity}"
                );
            }
            assert_eq!(
                (cache.hits(), cache.misses(), cache.occupancy()),
                (oracle.hits, oracle.misses, oracle.entries.len()),
                "case {case}"
            );
        }
    }
}
