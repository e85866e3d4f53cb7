//! Per-operation stage accounting.
//!
//! Functional protocol code (client, server, enclave, transports) charges
//! virtual cost to a [`Meter`] as it executes. The closed-loop driver then
//! replays the charged stages through contended [`resource`](crate::resource)
//! instances to obtain latency and throughput under load.
//!
//! Charges are tagged with a [`Stage`], the resource class that pays them.

use std::fmt;

use crate::time::Nanos;

/// The resource class a cost charge belongs to.
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

    fn index(self) -> usize {
        match self {
            Stage::ClientCpu => 0,
            Stage::ServerCritical => 1,
            Stage::ServerOverhead => 2,
            Stage::Enclave => 3,
            Stage::Network => 4,
        }
    }
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

/// Accumulates per-stage virtual time for one operation (or one run).
///
/// # Example
///
/// ```
/// use precursor_sim::meter::{Meter, Stage};
/// use precursor_sim::time::Nanos;
///
/// let mut m = Meter::new();
/// m.charge(Stage::ClientCpu, Nanos(500));
/// m.charge(Stage::Network, Nanos(900));
/// assert_eq!(m.get(Stage::ClientCpu), Nanos(500));
/// assert_eq!(m.total(), Nanos(1_400));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Meter {
    stages: [Nanos; 5],
    counters: MeterCounters,
}

/// Event counters a meter carries alongside time charges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterCounters {
    /// Enclave ecall/ocall transitions performed.
    pub transitions: u64,
    /// EPC page faults incurred.
    pub epc_faults: u64,
    /// Bytes moved into or out of the enclave.
    pub enclave_bytes: u64,
    /// Bytes encrypted or decrypted (any cipher).
    pub crypto_bytes: u64,
    /// RDMA work requests posted.
    pub rdma_posts: u64,
    /// TCP messages exchanged.
    pub tcp_msgs: u64,
    /// Bytes handed to the network for transmission.
    pub tx_bytes: u64,
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Adds `amount` of virtual time to `stage`.
    pub fn charge(&mut self, stage: Stage, amount: Nanos) {
        self.stages[stage.index()] += amount;
    }

    /// The accumulated time for one stage.
    pub fn get(&self, stage: Stage) -> Nanos {
        self.stages[stage.index()]
    }

    /// Sum over all stages.
    pub fn total(&self) -> Nanos {
        self.stages.iter().copied().sum()
    }

    /// Mutable access to the event counters.
    pub fn counters_mut(&mut self) -> &mut MeterCounters {
        &mut self.counters
    }

    /// The event counters.
    pub fn counters(&self) -> &MeterCounters {
        &self.counters
    }

    /// Resets all charges and counters to zero.
    pub fn reset(&mut self) {
        *self = Meter::default();
    }

    /// Takes the current contents, leaving the meter empty. Useful for
    /// per-operation accounting against a long-lived meter.
    pub fn take(&mut self) -> Meter {
        std::mem::take(self)
    }

    /// Merges another meter's charges and counters into this one.
    pub fn merge(&mut self, other: &Meter) {
        for s in Stage::ALL {
            self.stages[s.index()] += other.stages[s.index()];
        }
        let c = &mut self.counters;
        let o = &other.counters;
        c.transitions += o.transitions;
        c.epc_faults += o.epc_faults;
        c.enclave_bytes += o.enclave_bytes;
        c.crypto_bytes += o.crypto_bytes;
        c.rdma_posts += o.rdma_posts;
        c.tcp_msgs += o.tcp_msgs;
        c.tx_bytes += o.tx_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_stage() {
        let mut m = Meter::new();
        m.charge(Stage::Enclave, Nanos(10));
        m.charge(Stage::Enclave, Nanos(5));
        m.charge(Stage::Network, Nanos(1));
        assert_eq!(m.get(Stage::Enclave), Nanos(15));
        assert_eq!(m.get(Stage::Network), Nanos(1));
        assert_eq!(m.get(Stage::ClientCpu), Nanos::ZERO);
        assert_eq!(m.total(), Nanos(16));
    }

    #[test]
    fn take_empties_the_meter() {
        let mut m = Meter::new();
        m.charge(Stage::ClientCpu, Nanos(7));
        m.counters_mut().rdma_posts = 3;
        let taken = m.take();
        assert_eq!(taken.get(Stage::ClientCpu), Nanos(7));
        assert_eq!(taken.counters().rdma_posts, 3);
        assert_eq!(m.total(), Nanos::ZERO);
        assert_eq!(m.counters().rdma_posts, 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Meter::new();
        a.charge(Stage::Network, Nanos(3));
        a.counters_mut().epc_faults = 1;
        let mut b = Meter::new();
        b.charge(Stage::Network, Nanos(4));
        b.counters_mut().epc_faults = 2;
        a.merge(&b);
        assert_eq!(a.get(Stage::Network), Nanos(7));
        assert_eq!(a.counters().epc_faults, 3);
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(Stage::ClientCpu.to_string(), "client-cpu");
        assert_eq!(Stage::Enclave.to_string(), "enclave");
    }
}
