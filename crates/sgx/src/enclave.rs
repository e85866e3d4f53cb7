//! The enclave execution model.
//!
//! An [`Enclave`] owns an [`EpcTracker`] and a set of
//! named heap *regions* (the hash table, the per-client oid array, stack and
//! static data). Protocol code declares what it allocates and touches; the
//! enclave charges EPC faults and transition costs to the operation's
//! [`Meter`]. Code outside the enclave cannot reach the regions at all —
//! that is the SGX isolation rule: even DMA (and hence RDMA) to enclave
//! memory is refused by hardware, which is exactly why Precursor keeps the
//! payload outside (§1, §2.4).

use precursor_sim::meter::{Meter, Stage};
use precursor_sim::{CostModel, Event};

use crate::epc::EpcTracker;
use crate::perf::SgxPerfReport;

/// Handle to a named enclave heap region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(u32);

#[derive(Debug, Clone)]
struct Region {
    name: &'static str,
    bytes: u64,
}

/// A modelled SGX enclave: transition gates, heap regions, EPC accounting.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Enclave {
    epc: EpcTracker,
    regions: Vec<Region>,
    transitions: u64,
    measurement: [u8; 32],
}

impl Enclave {
    /// Creates an enclave sized by the cost model's EPC parameters.
    pub fn new(cost: &CostModel) -> Enclave {
        Enclave {
            epc: EpcTracker::new(cost.epc_pages(), cost.page_bytes),
            regions: Vec::new(),
            transitions: 0,
            // The measurement (MRENCLAVE) of this modelled binary.
            measurement: precursor_crypto::sha256::digest(b"precursor-enclave-v1"),
        }
    }

    /// The enclave's code/data measurement (MRENCLAVE analogue), quoted
    /// during attestation.
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// Allocates a named heap region of `bytes` bytes. Allocation itself
    /// does not touch pages (SGX commits pages lazily); use
    /// [`touch`](Self::touch) or [`touch_all`](Self::touch_all).
    pub fn alloc_region(&mut self, name: &'static str, bytes: u64) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region { name, bytes });
        id
    }

    /// Grows (or shrinks) a region to `bytes`.
    pub fn resize_region(&mut self, id: RegionId, bytes: u64) {
        self.regions[id.0 as usize].bytes = bytes;
    }

    /// Size of a region in bytes.
    pub fn region_bytes(&self, id: RegionId) -> u64 {
        self.regions[id.0 as usize].bytes
    }

    /// Records an enclave transition (ecall or ocall), charging
    /// ≈13,100 cycles (§2.1) to the meter's enclave stage.
    pub fn ecall(&mut self, meter: &mut Meter, cost: &CostModel) {
        self.transitions += 1;
        meter.event(Stage::Enclave, Event::Transition, 1, cost);
    }

    /// Records an ocall — same cost as an ecall in the model.
    pub fn ocall(&mut self, meter: &mut Meter, cost: &CostModel) {
        self.ecall(meter, cost);
    }

    /// Touches `len` bytes at `offset` within a region, charging any EPC
    /// faults (≈20,000 cycles each, §2.1). Returns the number of faults.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region (an enclave "page abort").
    pub fn touch(
        &mut self,
        id: RegionId,
        offset: u64,
        len: u64,
        meter: &mut Meter,
        cost: &CostModel,
    ) -> u64 {
        let region = &self.regions[id.0 as usize];
        assert!(
            offset + len <= region.bytes,
            "access beyond region '{}': {}+{} > {}",
            region.name,
            offset,
            len,
            region.bytes
        );
        let faults = self.epc.touch_range(id.0, offset, len);
        if faults > 0 {
            meter.event(Stage::Enclave, Event::EpcFault, faults, cost);
        }
        faults
    }

    /// Touches every page of a region (e.g. a statically initialized
    /// structure like ShieldStore's in-enclave MAC array).
    pub fn touch_all(&mut self, id: RegionId, meter: &mut Meter, cost: &CostModel) -> u64 {
        let bytes = self.regions[id.0 as usize].bytes;
        self.touch(id, 0, bytes, meter, cost)
    }

    /// Copies `len` bytes across the enclave boundary (either direction),
    /// charging memcpy time and counting the moved bytes. This is the
    /// "control data is copied into the enclave" step (§3.7).
    pub fn copy_across_boundary(&mut self, len: usize, meter: &mut Meter, cost: &CostModel) {
        meter.event(Stage::Enclave, Event::BoundaryCopy { len }, 1, cost);
    }

    /// Total transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Read access to the EPC tracker.
    pub fn epc(&self) -> &EpcTracker {
        &self.epc
    }

    /// An sgx-perf style report of the enclave's current state (Table 1).
    pub fn report(&self) -> SgxPerfReport {
        SgxPerfReport {
            working_set_pages: self.epc.working_set_pages(),
            working_set_bytes: self.epc.working_set_bytes(),
            resident_pages: self.epc.resident_pages(),
            epc_capacity_pages: self.epc.capacity_pages(),
            transitions: self.transitions,
            epc_faults: self.epc.faults(),
            evictions: self.epc.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Enclave, Meter, CostModel) {
        let cost = CostModel::default();
        (Enclave::new(&cost), Meter::new(), cost)
    }

    #[test]
    fn ecall_charges_transition_cost() {
        let (mut e, mut m, cost) = setup();
        e.ecall(&mut m, &cost);
        assert_eq!(e.transitions(), 1);
        assert_eq!(m.counters().transitions, 1);
        // 13 100 cycles at 3.7 GHz.
        assert_eq!(m.get(Stage::Enclave), precursor_sim::Nanos(3_541));
    }

    #[test]
    fn touch_faults_once_then_free() {
        let (mut e, mut m, cost) = setup();
        let r = e.alloc_region("table", 64 * 1024);
        assert_eq!(e.touch(r, 0, 4096, &mut m, &cost), 1);
        assert_eq!(e.touch(r, 0, 4096, &mut m, &cost), 0);
        assert_eq!(m.counters().epc_faults, 1);
    }

    #[test]
    #[should_panic(expected = "access beyond region")]
    fn out_of_bounds_touch_panics() {
        let (mut e, mut m, cost) = setup();
        let r = e.alloc_region("small", 100);
        e.touch(r, 64, 64, &mut m, &cost);
    }

    #[test]
    fn touch_all_covers_whole_region() {
        let (mut e, mut m, cost) = setup();
        let r = e.alloc_region("static", 10 * 4096);
        assert_eq!(e.touch_all(r, &mut m, &cost), 10);
        assert_eq!(e.report().working_set_pages, 10);
    }

    #[test]
    fn resize_allows_growth() {
        let (mut e, mut m, cost) = setup();
        let r = e.alloc_region("table", 4096);
        e.resize_region(r, 8192);
        assert_eq!(e.region_bytes(r), 8192);
        assert_eq!(e.touch(r, 4096, 4096, &mut m, &cost), 1);
    }

    #[test]
    fn boundary_copies_count_bytes() {
        let (mut e, mut m, cost) = setup();
        e.copy_across_boundary(56, &mut m, &cost);
        e.copy_across_boundary(100, &mut m, &cost);
        assert_eq!(m.counters().enclave_bytes, 156);
        assert!(m.get(Stage::Enclave) > precursor_sim::Nanos::ZERO);
    }

    #[test]
    fn report_reflects_epc_capacity() {
        let (e, _, cost) = setup();
        assert_eq!(e.report().epc_capacity_pages, cost.epc_pages());
        assert_eq!(e.report().working_set_pages, 0);
    }

    #[test]
    fn measurement_is_stable() {
        let cost = CostModel::default();
        assert_eq!(
            Enclave::new(&cost).measurement(),
            Enclave::new(&cost).measurement()
        );
    }
}
