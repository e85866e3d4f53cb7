//! The five workloads. Every one is `SystemKind::Precursor`, closed loop,
//! with fixed op counts per window so the virtual-time numbers stay exact.
//!
//! No fast-path knob is set anywhere here: flipping a default in the crates
//! is how a later change claims its gain on these workloads.

use precursor::backend::PrecursorBackend;
use precursor::{Config, GroupCommitPolicy};
use precursor_sim::CostModel;
use precursor_ycsb::driver::{SessionParams, SystemKind};
use precursor_ycsb::workload::{Distribution, WorkloadSpec};

/// Sweeps between two compactions, as `SessionParams::compacted` uses.
pub const COMPACT_EVERY_POLLS: u64 = 64;

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub value_size: usize,
    pub keys: u64,
    pub distribution: Distribution,
    pub read_ratio: f64,
    pub clients: usize,
    /// Operations per measured window.
    pub window_ops: u64,
    pub ring_bytes: Option<usize>,
    pub shards: Option<usize>,
    pub journaled: bool,
    pub compacted: bool,
}

const BASE: Workload = Workload {
    name: "",
    why: "",
    value_size: 32,
    keys: 100_000,
    distribution: Distribution::Uniform,
    read_ratio: 1.0,
    clients: 50,
    window_ops: 0,
    ring_bytes: None,
    shards: None,
    journaled: false,
    compacted: false,
};

/// Fixed order: `peak_rss_mb` of the all-workloads run depends on it. The
/// heap keeps much of what an earlier workload freed, so they run in rising
/// order of their own peak (22, 32, 146, 226, 274 MiB on a new process): each
/// one's peak is then its own demand and not its predecessors' leftovers.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "compacting_write",
        why: "Background work: snapshot seal + journal truncate every 64 sweeps, free in virtual time but most of the host time",
        keys: 10_000,
        read_ratio: 0.05,
        // A multiple of the 64-sweep compaction period: every window holds
        // exactly 16 compactions, whichever sweep it starts on.
        window_ops: 1_024,
        journaled: true,
        compacted: true,
        ..BASE
    },
    Workload {
        name: "wide_fleet",
        why: "Fig 6 beyond the testbed: 1000 active clients, 1 KiB rings, 4 shards; ring sweep, event wheel and lazy client state do the work",
        value_size: 128,
        keys: 20_000,
        read_ratio: 0.95,
        clients: 1_000,
        window_ops: 12_000,
        ring_bytes: Some(1 << 10),
        shards: Some(4),
        ..BASE
    },
    Workload {
        name: "small_read",
        why: "Fig 4 read-only point: 32 B values, per-op fixed costs (control AES-GCM, table lookup, ring, sweep) do the work",
        window_ops: 50_000,
        ..BASE
    },
    Workload {
        name: "durable_write",
        why: "small_read's size and fleet on the journaled write path: journal seal, group commit, reply gating, pool alloc, table insert",
        read_ratio: 0.05,
        window_ops: 40_000,
        journaled: true,
        ..BASE
    },
    Workload {
        name: "large_mix",
        why: "Fig 5: 4 KiB values, zipfian 50/50; client payload crypto and wire/ring copies dominate, enclave share stays flat",
        value_size: 4096,
        keys: 20_000,
        distribution: Distribution::Zipfian,
        read_ratio: 0.5,
        window_ops: 15_000,
        ..BASE
    },
];

impl Workload {
    /// The `--quick` scale: windows and set-up a tenth of the real size.
    pub fn quick(&self) -> Workload {
        Workload {
            keys: self.keys / 10,
            window_ops: self.window_ops / 10,
            ..*self
        }
    }

    pub fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            read_ratio: self.read_ratio,
            value_size: self.value_size,
            key_count: self.keys,
            distribution: self.distribution,
        }
    }

    /// The driver session the end-to-end run measures.
    pub fn session_params(&self, seed: u64) -> SessionParams {
        let mut p = SessionParams::new(SystemKind::Precursor)
            .value_size(self.value_size)
            .keys(self.keys, self.keys)
            .max_clients(self.clients)
            .seed(seed)
            .journaled(self.journaled)
            .compacted(self.compacted);
        if let Some(bytes) = self.ring_bytes {
            p = p.ring_bytes(bytes);
        }
        if let Some(shards) = self.shards {
            p = p.shards(shards);
        }
        p
    }

    /// The same system as a bare backend for the traced loop, which drives
    /// compaction itself (through `compact_now`) so it can put a span on it.
    pub fn backend(&self, cost: &CostModel) -> PrecursorBackend {
        let per_entry = (self.value_size + 64).next_power_of_two();
        let config = Config {
            max_clients: self.clients + 1,
            pool_bytes: ((self.keys as usize + 1024) * per_entry).max(16 << 20),
            shards: self.shards.unwrap_or(1),
            ring_bytes: self.ring_bytes.unwrap_or(Config::default().ring_bytes),
            ..Config::default()
        };
        let mut backend = PrecursorBackend::new(config, cost);
        if self.journaled {
            backend.enable_durability(GroupCommitPolicy::batched(32, 0));
        }
        backend
    }
}
