//! Per-operation stage accounting and the event ledger.
//!
//! Functional protocol code (client, server, enclave, transports) reports
//! every priced mechanism it runs to a [`Meter`] as one [`Event`] through
//! [`Meter::event`]. The meter counts the event in its ledger
//! ([`MeterCounters`]) and charges the event's price, from
//! [`CostModel::price`], to a [`Stage`]: on the client clock for
//! [`Stage::ClientCpu`], on the server clock for every other stage. The
//! closed-loop driver then replays the charged stages through contended
//! [`resource`](crate::resource) instances to obtain latency and
//! throughput under load.

use std::fmt;

use crate::cost::{CostModel, Event};
use crate::time::{Cycles, Nanos};

/// The resource class a cost charge belongs to. Declaration order is
/// [`Stage::ALL`]'s order and a meter's index of its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Client CPU work (payload encryption, MAC, verification).
    ClientCpu,
    /// Server CPU work on the request's critical path.
    ServerCritical,
    /// Server CPU occupancy off the critical path (polling, bookkeeping).
    ServerOverhead,
    /// Work executed inside the enclave (subset of server work, tracked
    /// separately for the Figure-8 breakdown).
    Enclave,
    /// NIC/network time (serialization, propagation, kernel stack).
    Network,
}

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 5] = [
        Stage::ClientCpu,
        Stage::ServerCritical,
        Stage::ServerOverhead,
        Stage::Enclave,
        Stage::Network,
    ];
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::ClientCpu => "client-cpu",
            Stage::ServerCritical => "server-critical",
            Stage::ServerOverhead => "server-overhead",
            Stage::Enclave => "enclave",
            Stage::Network => "network",
        };
        f.write_str(s)
    }
}

/// Accumulates per-stage virtual time and the event ledger for one
/// operation (or one run).
///
/// # Example
///
/// ```
/// use precursor_sim::cost::{CostModel, Event};
/// use precursor_sim::meter::{Meter, Stage};
/// use precursor_sim::time::Nanos;
///
/// let cost = CostModel::default();
/// let mut m = Meter::new();
/// // One 13 100-cycle transition at 3.7 GHz, two 20 000-cycle EPC faults.
/// m.event(Stage::Enclave, Event::Transition, 1, &cost);
/// m.event(Stage::Enclave, Event::EpcFault, 2, &cost);
/// assert_eq!(m.get(Stage::Enclave), Nanos(3_541 + 10_811));
/// assert_eq!(m.counters().epc_faults, 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Meter {
    stages: [Nanos; 5],
    counters: MeterCounters,
}

// Declares the ledger's slots once: the struct, the sum `merge` folds it
// by, and the iteration the metrics registry files it by.
macro_rules! ledger {
    ($($(#[doc = $doc:literal])+ $slot:ident,)+) => {
        /// The event ledger: how many times each priced mechanism ran, and
        /// over how many bytes, as [`Meter::event`] counted it. One field
        /// per counted quantity.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MeterCounters {
            $($(#[doc = $doc])+ pub $slot: u64,)+
        }

        impl MeterCounters {
            /// Every slot as `(registry name, value)`: `meter.<field>`, in
            /// declaration order.
            pub fn slots(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((concat!("meter.", stringify!($slot)), self.$slot)),+].into_iter()
            }

            fn add(&mut self, other: &MeterCounters) {
                $(self.$slot += other.$slot;)+
            }
        }
    };
}

ledger! {
    /// Enclave ecall/ocall transitions ([`Event::Transition`]).
    transitions,
    /// EPC page faults ([`Event::EpcFault`]).
    epc_faults,
    /// Bytes copied across the enclave boundary ([`Event::BoundaryCopy`]).
    enclave_bytes,
    /// Bytes a client put through its payload cipher ([`Event::CryptoBytes`]).
    crypto_bytes,
    /// RDMA work requests posted ([`Event::RdmaPost`], [`Event::RdmaRepost`]).
    rdma_posts,
    /// TCP messages ([`Event::TcpMsg`], [`Event::ClientTcpMsg`]).
    tcp_msgs,
    /// Bytes handed to the network ([`Event::Tx`]).
    tx_bytes,
    /// AES-GCM passes ([`Event::Gcm`]).
    gcm_passes,
    /// Salsa20 passes ([`Event::Salsa20`]).
    salsa20_passes,
    /// AES-CMAC passes ([`Event::Cmac`]).
    cmac_passes,
    /// SHA-256 passes ([`Event::Sha256`]).
    sha256_passes,
    /// Client key generations ([`Event::KeyGen`]).
    keygens,
    /// memcpys that cross no enclave boundary ([`Event::Memcpy`]).
    memcpys,
    /// Hash-table operations ([`Event::TableOp`]).
    table_ops,
    /// Hash-table probe steps, summed over the operations.
    table_probes,
    /// Completions polled ([`Event::RdmaPoll`]).
    rdma_polls,
    /// Requests handed to a foreign shard ([`Event::ShardHandoff`]).
    shard_handoffs,
    /// Journal records sealed ([`Event::JournalSeal`]).
    journal_seals,
    /// Journal records written durably ([`Event::JournalWrite`]).
    journal_writes,
    /// Journal records shipped to replicas ([`Event::JournalShip`]).
    journal_ships,
    /// Ops charged a fitted occupancy, counted by its critical share
    /// ([`Event::FixedCritical`]).
    fitted_ops,
}

impl MeterCounters {
    // The ledger half of `Meter::event`: `n` of `ev` into its slot(s).
    #[inline(always)]
    fn count(&mut self, ev: Event, n: u64) {
        let times = |k: usize| n * k as u64;
        match ev {
            Event::Gcm { .. } => self.gcm_passes += n,
            Event::Salsa20 { .. } => self.salsa20_passes += n,
            Event::Cmac { .. } => self.cmac_passes += n,
            Event::Sha256 { .. } => self.sha256_passes += n,
            Event::KeyGen => self.keygens += n,
            Event::Memcpy { .. } => self.memcpys += n,
            Event::BoundaryCopy { len } => self.enclave_bytes += times(len),
            Event::TableOp { probes } => {
                self.table_ops += n;
                self.table_probes += times(probes);
            }
            Event::Transition => self.transitions += n,
            Event::EpcFault => self.epc_faults += n,
            Event::RdmaPost => self.rdma_posts += n,
            Event::RdmaRepost { writes } => self.rdma_posts += times(writes),
            Event::RdmaPoll => self.rdma_polls += n,
            Event::ShardHandoff => self.shard_handoffs += n,
            Event::TcpMsg { .. } | Event::ClientTcpMsg => self.tcp_msgs += n,
            Event::JournalSeal { .. } => self.journal_seals += n,
            Event::JournalWrite { .. } => self.journal_writes += n,
            Event::JournalShip { .. } => self.journal_ships += n,
            Event::FixedCritical(_) => self.fitted_ops += n,
            Event::FixedOverhead(_) => {}
            Event::Tx { len } => self.tx_bytes += times(len),
            Event::CryptoBytes { len } => self.crypto_bytes += times(len),
        }
    }
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Records `n` occurrences of `ev`: counts them in the ledger and
    /// charges `n ×` its price to `stage`, converted to time once, on the
    /// client clock for [`Stage::ClientCpu`] and on the server clock for
    /// every other stage.
    // Always inlined, with `count` and `CostModel::price`: a call site's
    // event is a constant, so its slot and price fold at compile time
    // instead of dispatching through two jump tables per charge.
    #[inline(always)]
    pub fn event(&mut self, stage: Stage, ev: Event, n: u64, cost: &CostModel) {
        self.counters.count(ev, n);
        let clock = match stage {
            Stage::ClientCpu => cost.client_freq,
            _ => cost.server_freq,
        };
        self.stages[stage as usize] += clock.cycles_to_nanos(Cycles(cost.price(ev).0 * n));
    }

    /// The accumulated time for one stage.
    pub fn get(&self, stage: Stage) -> Nanos {
        self.stages[stage as usize]
    }

    /// Sum over all stages.
    pub fn total(&self) -> Nanos {
        self.stages.iter().copied().sum()
    }

    /// The event ledger.
    pub fn counters(&self) -> &MeterCounters {
        &self.counters
    }

    /// Takes the current contents, leaving the meter empty. Useful for
    /// per-operation accounting against a long-lived meter.
    pub fn take(&mut self) -> Meter {
        std::mem::take(self)
    }

    /// Merges another meter's charges and ledger into this one.
    pub fn merge(&mut self, other: &Meter) {
        for s in Stage::ALL {
            self.stages[s as usize] += other.stages[s as usize];
        }
        self.counters.add(&other.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Occupancy;

    // An event, the cycles its charge site computed before events existed
    // (written from the cost constants), and the ledger slots one
    // occurrence moves.
    type Case = (Event, u64, &'static [(&'static str, u64)]);

    // One `Case` per event variant.
    fn every_event(c: &CostModel) -> Vec<Case> {
        let lin =
            |fixed: u64, per_byte: f64, len: usize| fixed + (len as f64 * per_byte).round() as u64;
        let gcm = lin(c.aes_gcm_fixed, c.aes_gcm_per_byte, 57);
        let salsa = lin(c.salsa20_fixed, c.salsa20_per_byte, 57);
        let cmac = lin(c.cmac_fixed, c.cmac_per_byte, 57);
        let sha = lin(c.sha256_fixed, c.sha256_per_byte, 82);
        let copy = lin(c.memcpy_fixed, c.memcpy_per_byte, 57);
        let table = c.ht_fixed + c.ht_per_probe * 3;
        let (ecall, fault) = (c.enclave_transition_cycles, c.epc_fault_cycles);
        let (post, poll, hand) = (
            c.rdma_post_cycles,
            c.rdma_poll_cycles,
            c.shard_handoff_cycles,
        );
        let tcp = c.tcp_msg_cycles + (57.0 * c.tcp_per_byte) as u64;
        let seal = gcm + sha + c.journal_seal_fixed;
        let write = c.durable_write_fixed / 8 + (102.0 * c.durable_write_per_byte).round() as u64;
        let ship = (2.0 * 102.0 * c.segment_ship_per_byte).round() as u64;
        let p = Occupancy::Precursor {
            put: true,
            server_enc: true,
        };
        let pfixed = c.precursor_get_fixed + c.precursor_put_extra + c.server_enc_extra;
        let pcrit = (pfixed as f64 * c.critical_fraction).round() as u64;
        let s = Occupancy::ShieldStore { put: false };
        let sfixed = c.shieldstore_op_fixed;
        let scrit = (sfixed as f64 * c.shieldstore_critical_fraction).round() as u64;
        vec![
            (Event::Gcm { len: 57 }, gcm, &[("gcm_passes", 1)]),
            (Event::Salsa20 { len: 57 }, salsa, &[("salsa20_passes", 1)]),
            (Event::Cmac { len: 57 }, cmac, &[("cmac_passes", 1)]),
            (Event::Sha256 { len: 82 }, sha, &[("sha256_passes", 1)]),
            (Event::KeyGen, c.keygen_cycles, &[("keygens", 1)]),
            (Event::Memcpy { len: 57 }, copy, &[("memcpys", 1)]),
            (
                Event::BoundaryCopy { len: 57 },
                copy,
                &[("enclave_bytes", 57)],
            ),
            (
                Event::TableOp { probes: 3 },
                table,
                &[("table_ops", 1), ("table_probes", 3)],
            ),
            (Event::Transition, ecall, &[("transitions", 1)]),
            (Event::EpcFault, fault, &[("epc_faults", 1)]),
            (Event::RdmaPost, post, &[("rdma_posts", 1)]),
            (Event::RdmaRepost { writes: 2 }, post, &[("rdma_posts", 2)]),
            (Event::RdmaPoll, poll, &[("rdma_polls", 1)]),
            (Event::ShardHandoff, hand, &[("shard_handoffs", 1)]),
            (Event::TcpMsg { len: 57 }, tcp, &[("tcp_msgs", 1)]),
            (Event::ClientTcpMsg, 0, &[("tcp_msgs", 1)]),
            (
                Event::JournalSeal { len: 57 },
                seal,
                &[("journal_seals", 1)],
            ),
            (
                Event::JournalWrite { len: 102, batch: 8 },
                write,
                &[("journal_writes", 1)],
            ),
            (
                Event::JournalShip {
                    len: 102,
                    fanout: 2,
                },
                ship,
                &[("journal_ships", 1)],
            ),
            (Event::FixedCritical(p), pcrit, &[("fitted_ops", 1)]),
            (Event::FixedOverhead(p), pfixed - pcrit, &[]),
            (Event::FixedCritical(s), scrit, &[("fitted_ops", 1)]),
            (Event::FixedOverhead(s), sfixed - scrit, &[]),
            (Event::Tx { len: 57 }, 0, &[("tx_bytes", 57)]),
            (Event::CryptoBytes { len: 57 }, 0, &[("crypto_bytes", 57)]),
        ]
    }

    // A new variant fails to compile here until it has an index, and the
    // coverage check below then fails until `every_event` lists it.
    fn variant(ev: Event) -> usize {
        match ev {
            Event::Gcm { .. } => 0,
            Event::Salsa20 { .. } => 1,
            Event::Cmac { .. } => 2,
            Event::Sha256 { .. } => 3,
            Event::KeyGen => 4,
            Event::Memcpy { .. } => 5,
            Event::BoundaryCopy { .. } => 6,
            Event::TableOp { .. } => 7,
            Event::Transition => 8,
            Event::EpcFault => 9,
            Event::RdmaPost => 10,
            Event::RdmaRepost { .. } => 11,
            Event::RdmaPoll => 12,
            Event::ShardHandoff => 13,
            Event::TcpMsg { .. } => 14,
            Event::ClientTcpMsg => 15,
            Event::JournalSeal { .. } => 16,
            Event::JournalWrite { .. } => 17,
            Event::JournalShip { .. } => 18,
            Event::FixedCritical(_) => 19,
            Event::FixedOverhead(_) => 20,
            Event::Tx { .. } => 21,
            Event::CryptoBytes { .. } => 22,
        }
    }

    #[test]
    fn every_event_charges_its_old_price_and_counts_only_its_slots() {
        let cost = CostModel::default();
        let table = every_event(&cost);
        let mut seen: Vec<usize> = table.iter().map(|(ev, ..)| variant(*ev)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..=22).collect::<Vec<_>>(), "a variant is missing");
        let clocks = [
            (Stage::ClientCpu, cost.client_freq),
            (Stage::Enclave, cost.server_freq),
            (Stage::Network, cost.server_freq),
        ];
        for ((ev, cycles, slots), n) in table.iter().flat_map(|c| [(c, 1), (c, 3)]) {
            for (stage, clock) in clocks {
                let mut m = Meter::new();
                m.event(stage, *ev, n, &cost);
                let want = clock.cycles_to_nanos(Cycles(cycles * n));
                assert_eq!(
                    (m.get(stage), m.total()),
                    (want, want),
                    "{ev:?} × {n} on {stage}"
                );
                for (name, got) in m.counters().slots() {
                    let per = slots.iter().find(|(s, _)| name == format!("meter.{s}"));
                    assert_eq!(got, per.map_or(0, |(_, k)| k * n), "{ev:?} × {n}: {name}");
                }
            }
        }
    }

    #[test]
    fn charges_accumulate_per_stage() {
        let cost = CostModel::default();
        let mut m = Meter::new();
        m.event(Stage::Enclave, Event::Transition, 1, &cost);
        m.event(Stage::Enclave, Event::EpcFault, 3, &cost);
        m.event(Stage::ClientCpu, Event::Gcm { len: 56 }, 1, &cost);
        // §2.1's 13 100 + 3 × 20 000 cycles at 3.7 GHz; 1 300 + 3 × 56 GCM
        // cycles on the 3.4 GHz client.
        assert_eq!(m.get(Stage::Enclave), Nanos(3_541 + 16_216));
        assert_eq!(m.get(Stage::ClientCpu), Nanos(432));
        assert_eq!(m.get(Stage::Network), Nanos::ZERO);
        assert_eq!(m.total(), Nanos(3_541 + 16_216 + 432));
    }

    #[test]
    fn take_empties_the_meter() {
        let cost = CostModel::default();
        let mut m = Meter::new();
        m.event(Stage::ClientCpu, Event::RdmaPost, 3, &cost);
        let taken = m.take();
        assert_eq!(taken.counters().rdma_posts, 3);
        assert!(taken.get(Stage::ClientCpu) > Nanos::ZERO);
        assert_eq!(m, Meter::new());
    }

    #[test]
    fn merge_adds_everything() {
        let cost = CostModel::default();
        let (mut once, mut twice) = (Meter::new(), Meter::new());
        for (i, (ev, ..)) in every_event(&cost).into_iter().enumerate() {
            let stage = Stage::ALL[i % Stage::ALL.len()];
            once.event(stage, ev, 1, &cost);
            twice.event(stage, ev, 2, &cost);
        }
        let unmoved = once.counters().slots().find(|&(_, n)| n == 0);
        assert_eq!(unmoved, None, "every_event leaves a slot at zero");
        let mut merged = once.clone();
        merged.merge(&once);
        assert_eq!(merged.counters(), twice.counters());
        for s in Stage::ALL {
            assert_eq!(merged.get(s), once.get(s) * 2, "{s}");
        }
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(Stage::ClientCpu.to_string(), "client-cpu");
        assert_eq!(Stage::Enclave.to_string(), "enclave");
    }
}
