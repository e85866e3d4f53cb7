//! Typed metrics registry: saturating counters, gauges and latency
//! [`Histogram`]s.
//!
//! All state is plain integers keyed by `&'static str` names in a
//! [`BTreeMap`] index, so snapshots iterate in a deterministic order and two
//! registries fed the same seeded workload render byte-identical JSON. A tap
//! never compares strings: a small cache keyed by the name's address finds
//! its slot first, and only a name not seen at that address before goes to
//! the ordered index.

use std::collections::BTreeMap;

use precursor_sim::meter::{Meter, Stage};
use precursor_sim::{Histogram, Nanos};

use crate::json::JsonWriter;

/// Histogram name for one meter stage's per-op latency, in the
/// backend-neutral namespace every [`Meter`]-producing backend shares.
pub fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::ClientCpu => "stage.client_cpu_ns",
        Stage::ServerCritical => "stage.server_critical_ns",
        Stage::ServerOverhead => "stage.server_overhead_ns",
        Stage::Enclave => "stage.enclave_ns",
        Stage::Network => "stage.network_ns",
    }
}

/// Histogram name for the end-to-end per-op latency (sum of all stages).
pub const STAGE_TOTAL_METRIC: &str = "stage.total_ns";

/// Records one finished operation's [`Meter`] into `m` under the shared
/// namespace: a `stage.*_ns` histogram sample per stage, one
/// [`STAGE_TOTAL_METRIC`] sample, and the meter's whole event ledger as
/// `meter.*` counters (a slot still at zero adds nothing, so its counter
/// appears with its first event). Because [`Meter::total`] is the sum of
/// its stages by construction, the stage histograms' sums are conserved:
/// they add up to the total histogram's sum exactly.
pub fn observe_meter(m: &mut MetricsRegistry, meter: &Meter) {
    for s in Stage::ALL {
        m.observe(stage_metric(s), meter.get(s).0);
    }
    m.observe(STAGE_TOTAL_METRIC, meter.total().0);
    for (name, n) in meter.counters().slots().filter(|&(_, n)| n > 0) {
        m.inc(name, n);
    }
}

/// A monotonically increasing, saturating event counter.
///
/// Increments saturate at [`u64::MAX`] instead of wrapping so a
/// pathological workload can never make a counter appear to reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Add `n` to the counter, saturating at [`u64::MAX`].
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current count.
    pub fn get(self) -> u64 {
        self.value
    }
}

/// A last-write-wins instantaneous value (e.g. resident EPC pages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: u64,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&mut self, v: u64) {
        self.value = v;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.value
    }
}

// One cached name: its address and length (a `&'static str`'s bytes never
// change, so the pair identifies the name) and the slot it resolves to. A
// name's address is never null, so `addr == 0` marks a vacant entry.
#[derive(Debug, Clone, Copy, Default)]
struct CacheEntry {
    addr: usize,
    len: u32,
    slot: u32,
}

/// The metrics of one kind: values in slots, the ordered name index that
/// iteration, equality and JSON follow, and the address cache in front of
/// the index that the taps go through.
#[derive(Debug, Clone)]
struct Family<T> {
    index: BTreeMap<&'static str, usize>,
    slots: Vec<T>,
    // Open addressing with linear probing; a power of two, at most half
    // full, so it grows with the names in use (empty until the first tap).
    cache: Vec<CacheEntry>,
    cached: usize,
}

impl<T> Default for Family<T> {
    fn default() -> Self {
        Family {
            index: BTreeMap::new(),
            slots: Vec::new(),
            cache: Vec::new(),
            cached: 0,
        }
    }
}

impl<T: PartialEq> PartialEq for Family<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

// Fibonacci hashing of an address into a cache of `len` (a power of two)
// entries: the product's top bits mix every bit of the address.
fn cache_home(addr: usize, len: usize) -> usize {
    ((addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - len.trailing_zeros())) as usize
}

impl<T> Family<T> {
    /// The slot of `name`, if it exists: through the address cache, then
    /// the ordered index (which caches the address it was reached by).
    fn find(&mut self, name: &'static str) -> Option<usize> {
        let addr = name.as_ptr() as usize;
        if !self.cache.is_empty() {
            let mask = self.cache.len() - 1;
            let mut i = cache_home(addr, self.cache.len());
            loop {
                let e = self.cache[i];
                if e.addr == 0 {
                    break;
                }
                if e.addr == addr && e.len as usize == name.len() {
                    return Some(e.slot as usize);
                }
                i = (i + 1) & mask;
            }
        }
        let slot = *self.index.get(name)?;
        self.remember(addr, name.len(), slot);
        Some(slot)
    }

    /// Adds `name` (absent) with `value`; returns its slot.
    fn insert(&mut self, name: &'static str, value: T) -> usize {
        let slot = self.slots.len();
        self.slots.push(value);
        self.index.insert(name, slot);
        self.remember(name.as_ptr() as usize, name.len(), slot);
        slot
    }

    /// The slot of `name`, created with `new()` if absent.
    fn slot(&mut self, name: &'static str, new: impl FnOnce() -> T) -> &mut T {
        let slot = match self.find(name) {
            Some(slot) => slot,
            None => self.insert(name, new()),
        };
        &mut self.slots[slot]
    }

    fn remember(&mut self, addr: usize, len: usize, slot: usize) {
        if 2 * (self.cached + 1) > self.cache.len() {
            let grown = vec![CacheEntry::default(); (self.cache.len() * 2).max(8)];
            for e in std::mem::replace(&mut self.cache, grown) {
                if e.addr != 0 {
                    self.place(e);
                }
            }
        }
        self.place(CacheEntry {
            addr,
            len: u32::try_from(len).expect("metric names are short"),
            slot: u32::try_from(slot).expect("fewer than 2^32 metrics"),
        });
        self.cached += 1;
    }

    fn place(&mut self, e: CacheEntry) {
        let mask = self.cache.len() - 1;
        let mut i = cache_home(e.addr, self.cache.len());
        while self.cache[i].addr != 0 {
            i = (i + 1) & mask;
        }
        self.cache[i] = e;
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&slot| &self.slots[slot])
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> + '_ {
        self.index
            .iter()
            .map(|(&name, &slot)| (name, &self.slots[slot]))
    }
}

/// A deterministic registry of named counters, gauges and histograms.
///
/// Names are `&'static str` so taps are zero-allocation after first
/// touch and find their slot by the name's address; the [`BTreeMap`]
/// index keeps snapshot/JSON order stable. One name reached through two
/// addresses (two copies of the same text) is one metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
}

impl MetricsRegistry {
    /// Add `n` to the counter `name`, creating it at zero first.
    pub fn inc(&mut self, name: &'static str, n: u64) {
        self.counters.slot(name, Counter::default).add(n);
    }

    /// Read counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.get())
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, v: u64) {
        self.gauges.slot(name, Gauge::default).set(v);
    }

    /// Read gauge `name` (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).map_or(0, |g| g.get())
    }

    /// Record `v` nanoseconds into histogram `name`, creating it empty on
    /// first touch.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.histograms.slot(name, Histogram::new).record(Nanos(v));
    }

    /// Look up histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k, v.get()))
    }

    /// Iterate gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k, v.get()))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter()
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the other's value when present, histograms merge bucket-wise
    /// ([`Histogram::merge`]).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, c) in other.counters.iter() {
            self.counters.slot(name, Counter::default).add(c.get());
        }
        for (name, g) in other.gauges.iter() {
            self.gauges.slot(name, Gauge::default).set(g.get());
        }
        for (name, h) in other.histograms.iter() {
            match self.histograms.find(name) {
                Some(slot) => self.histograms.slots[slot].merge(h),
                None => {
                    self.histograms.insert(name, h.clone());
                }
            }
        }
    }

    /// Render a deterministic JSON snapshot of the registry.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, v) in self.counters() {
            w.key(name);
            w.u64(v);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, v) in self.gauges() {
            w.key(name);
            w.u64(v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in self.histograms() {
            w.key(name);
            w.begin_object();
            w.key("count");
            w.u64(h.count());
            w.key("sum");
            w.u64(u64::try_from(h.sum()).unwrap_or(u64::MAX));
            w.key("min");
            w.u64(h.min().0);
            w.key("max");
            w.u64(h.max().0);
            w.key("p50");
            w.u64(h.percentile(50.0).0);
            w.key("p95");
            w.u64(h.percentile(95.0).0);
            w.key("p99");
            w.u64(h.percentile(99.0).0);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn observe_meter_files_every_ledger_slot() {
        use precursor_sim::{CostModel, Event, Occupancy};
        let cost = CostModel::default();
        let mut meter = Meter::new();
        for ev in [
            Event::Gcm { len: 1 },
            Event::Salsa20 { len: 1 },
            Event::Cmac { len: 1 },
            Event::Sha256 { len: 1 },
            Event::KeyGen,
            Event::Memcpy { len: 1 },
            Event::BoundaryCopy { len: 1 },
            Event::TableOp { probes: 1 },
            Event::Transition,
            Event::EpcFault,
            Event::RdmaPost,
            Event::RdmaPoll,
            Event::ShardHandoff,
            Event::ClientTcpMsg,
            Event::JournalSeal { len: 1 },
            Event::JournalWrite { len: 1, batch: 1 },
            Event::JournalShip { len: 1, fanout: 1 },
            Event::FixedCritical(Occupancy::ShieldStore { put: false }),
            Event::Tx { len: 1 },
            Event::CryptoBytes { len: 1 },
        ] {
            meter.event(Stage::Enclave, ev, 1, &cost);
        }
        let slots: Vec<_> = meter.counters().slots().collect();
        assert!(slots.iter().all(|&(_, n)| n > 0), "unmoved slot: {slots:?}");
        let mut m = MetricsRegistry::default();
        observe_meter(&mut m, &meter);
        observe_meter(&mut m, &meter);
        for &(name, n) in &slots {
            assert_eq!(m.counter(name), 2 * n, "{name}");
        }
        let filed = m.counters().filter(|(name, _)| name.starts_with("meter."));
        assert_eq!(filed.count(), slots.len());
    }

    #[test]
    fn registry_json_is_stable() {
        let mut m = MetricsRegistry::default();
        m.inc("b", 2);
        m.inc("a", 1);
        m.gauge_set("g", 7);
        m.observe("h", 100);
        assert_eq!(m.to_json(), m.clone().to_json());
        assert!(m.to_json().find("\"a\"").unwrap() < m.to_json().find("\"b\"").unwrap());
    }

    #[test]
    fn one_name_at_two_addresses_is_one_metric() {
        let copy: &'static str = String::from("server.polls").leak();
        assert_ne!(copy.as_ptr(), "server.polls".as_ptr());
        let mut m = MetricsRegistry::default();
        for _ in 0..3 {
            m.inc("server.polls", 1);
            m.inc(copy, 10);
            m.observe("h", 5);
            m.observe(String::from("h").leak(), 7);
        }
        assert_eq!(m.counter("server.polls"), 33);
        assert_eq!(m.counters().count(), 1);
        assert_eq!(m.histogram("h").map(Histogram::count), Some(6));
        let json = m.to_json();
        assert_eq!(json.matches("\"server.polls\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"h\"").count(), 1, "{json}");
    }

    #[test]
    fn tap_order_never_shows_in_the_snapshot() {
        use precursor_sim::rng::SimRng;
        // ~60 names, several events each, tapped in a shuffled order and
        // in sorted order: the registries must render the same bytes and
        // compare equal.
        let names: Vec<&'static str> = (0..60)
            .map(|i| &*format!("family{}.metric_{:02}", i % 7, (i * 37) % 60).leak())
            .collect();
        let mut events: Vec<(usize, u64)> = (0..600).map(|e| (e % 60, e as u64 * 131)).collect();
        let mut sorted_events = events.clone();
        sorted_events.sort_by_key(|&(n, _)| names[n]);
        let mut rng = SimRng::seed_from(11);
        for i in (1..events.len()).rev() {
            events.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let feed = |events: &[(usize, u64)]| {
            let mut m = MetricsRegistry::default();
            for &(n, v) in events {
                // A gauge keeps its last write, so its value must not
                // depend on the order.
                match n % 3 {
                    0 => m.inc(names[n], v),
                    1 => m.gauge_set(names[n], n as u64),
                    _ => m.observe(names[n], v),
                }
            }
            m
        };
        let (shuffled, sorted) = (feed(&events), feed(&sorted_events));
        assert_eq!(shuffled.to_json(), sorted.to_json());
        assert_eq!(shuffled, sorted);
        let mut merged = MetricsRegistry::default();
        merged.merge(&shuffled);
        assert_eq!(merged.to_json(), sorted.to_json());
    }

    #[test]
    fn merge_reaches_an_absent_histogram_through_the_cache() {
        let mut other = MetricsRegistry::default();
        other.observe("merged", 15);
        let mut m = MetricsRegistry::default();
        m.observe("other", 1);
        m.merge(&other);
        let merged = m.histogram("merged").expect("merged in");
        assert_eq!((merged.count(), merged.sum()), (1, 15));
        // A second merge lands on the same histogram, through the cache.
        m.merge(&other);
        assert_eq!(m.histogram("merged").map(Histogram::count), Some(2));
        assert_eq!(m.histograms().count(), 2);
    }
}
