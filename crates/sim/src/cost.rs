//! The calibrated cost model.
//!
//! Every constant that turns *what the code does* (bytes encrypted, pages
//! touched, messages posted) into *virtual time* lives here, in one place,
//! so ablation benches can vary them and EXPERIMENTS.md can report them.
//!
//! Constants come from three sources, marked in the field docs:
//!
//! * **\[paper\]** — stated in the Precursor paper (§2.1, §4, §5.1): 13.1 K-cycle
//!   enclave transitions, 20 K-cycle EPC faults, 93 MiB usable EPC, 912 B
//!   inline cutoff, CPU frequencies and NIC speeds of the testbed.
//! * **\[arch\]** — standard architectural figures (AES-NI throughput,
//!   memcpy bandwidth, WQE post cost) consistent with the paper's Figure 1.
//! * **\[fitted\]** — per-operation fixed server occupancies fitted so the
//!   32 B / 50-client points of Figure 4 land near the paper's absolute
//!   numbers. These scale the *y-axis*; the *shapes* of every figure come
//!   from the mechanistic parts (per-byte crypto, copies, NIC bandwidth,
//!   EPC faults).

use crate::time::{Cycles, Freq, Nanos};

/// Cost-model constants for the simulated testbed.
///
/// Obtain the paper's testbed with [`CostModel::default`] and derive ablation
/// variants by mutating fields before use.
///
/// # Example
///
/// ```
/// use precursor_sim::cost::{CostModel, Event};
/// let m = CostModel::default();
/// // One AES-GCM pass over a 1 KiB buffer costs far more than the fixed part.
/// assert!(m.price(Event::Gcm { len: 1024 }) > m.price(Event::Gcm { len: 0 }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Server CPU frequency \[paper: Xeon E-2176G, 3.7 GHz\].
    pub server_freq: Freq,
    /// Client CPU frequency \[paper: Xeon E3-1230, 3.4 GHz\].
    pub client_freq: Freq,
    /// Server worker threads = hyper-threads \[paper: 12\].
    pub server_threads: usize,

    // ---- SGX ----
    /// Cycles per ecall/ocall transition \[paper §2.1: ≈13,100\].
    pub enclave_transition_cycles: u64,
    /// Cycles per EPC page fault \[paper §2.1: ≈20,000\].
    pub epc_fault_cycles: u64,
    /// Usable EPC bytes \[paper §2.1: ≈93 MiB\].
    pub epc_usable_bytes: u64,
    /// EPC page size in bytes \[arch: 4 KiB\].
    pub page_bytes: u64,

    // ---- cryptography (cycles = fixed + per_byte * len) ----
    /// AES-128-GCM fixed cycles per pass \[arch\].
    pub aes_gcm_fixed: u64,
    /// AES-128-GCM cycles/byte [arch; fits Fig. 1: ≤1 KiB stays below the 40 Gb line rate].
    pub aes_gcm_per_byte: f64,
    /// AES-CMAC fixed cycles \[arch\].
    pub cmac_fixed: u64,
    /// AES-CMAC cycles/byte \[arch\].
    pub cmac_per_byte: f64,
    /// Salsa20 fixed cycles \[arch\].
    pub salsa20_fixed: u64,
    /// Salsa20 cycles/byte \[arch\].
    pub salsa20_per_byte: f64,
    /// SHA-256 fixed cycles \[arch\].
    pub sha256_fixed: u64,
    /// SHA-256 cycles/byte \[arch\].
    pub sha256_per_byte: f64,
    /// One-time key generation cycles (client KeyGen) \[arch\].
    pub keygen_cycles: u64,

    // ---- memory ----
    /// memcpy fixed cycles \[arch\].
    pub memcpy_fixed: u64,
    /// memcpy cycles/byte \[arch: ≈60 GB/s per core\].
    pub memcpy_per_byte: f64,
    /// Hash-table fixed lookup cycles \[arch\].
    pub ht_fixed: u64,
    /// Hash-table cycles per probe step \[arch\].
    pub ht_per_probe: u64,

    // ---- RDMA ----
    /// One-way RNIC-to-RNIC propagation latency \[paper §2.2: ≈2 µs RTT\].
    pub rdma_one_way: Nanos,
    /// Server NIC bandwidth, Gbit/s \[paper: 40 Gb ConnectX-3\].
    pub server_nic_gbps: f64,
    /// Client NIC bandwidth, Gbit/s \[paper: 10 Gb\].
    pub client_nic_gbps: f64,
    /// Cycles to post a work request (WQE + doorbell) \[arch\].
    pub rdma_post_cycles: u64,
    /// Cycles to poll a completion \[arch\].
    pub rdma_poll_cycles: u64,
    /// Inline-send cutoff in bytes \[paper §4: 912 B on their NICs\].
    pub rdma_inline_max: usize,
    /// QP-state cache entries in the RNIC \[arch; bends Fig. 6 ≥55 clients\].
    pub rnic_cache_qps: usize,
    /// Extra latency on an RNIC QP-cache miss \[arch\].
    pub rnic_cache_miss: Nanos,

    // ---- TCP (ShieldStore baseline transport) ----
    /// Kernel+interrupt latency per TCP message per side \[fitted to Fig. 8's
    /// ≈26× networking gap\].
    pub tcp_msg_latency: Nanos,
    /// Server CPU cycles consumed per TCP message (syscall + stack) \[arch\].
    pub tcp_msg_cycles: u64,
    /// Extra TCP processing cycles per payload byte \[arch\].
    pub tcp_per_byte: f64,
    /// σ of the log-normal scheduling-jitter multiplier applied to TCP
    /// message latency (models interrupts/scheduling outliers of Fig. 7).
    pub tcp_jitter_sigma: f64,

    // ---- fitted per-operation server occupancies ----
    /// Precursor server thread occupancy per get(), cycles, excluding the
    /// size-dependent crypto/copy parts \[fitted: Fig. 4 read-only ≈1.15 Mops\].
    pub precursor_get_fixed: u64,
    /// Extra occupancy for put() (payload placement, allocation, credits)
    /// \[fitted: Fig. 4 update-mostly ≈0.78 Mops\].
    pub precursor_put_extra: u64,
    /// Extra fixed occupancy in server-encryption mode (extra copies,
    /// storage-key management) \[fitted: Fig. 4 server-enc ≈0.82 Mops\].
    pub server_enc_extra: u64,
    /// ShieldStore server occupancy per op, cycles, excluding crypto/Merkle
    /// \[fitted: Fig. 4 ShieldStore ≈120 Kops\].
    pub shieldstore_op_fixed: u64,
    /// Extra ShieldStore occupancy per put (chain rewrite, tree maintenance
    /// bookkeeping) \[fitted: Fig. 4 update-mostly ≈97 Kops\].
    pub shieldstore_put_extra: u64,
    /// Critical-path fraction of the fixed occupancy that a request actually
    /// waits for; the rest is polling/bookkeeping done off the request's
    /// critical path (see DESIGN.md §4).
    pub critical_fraction: f64,
    /// ShieldStore's critical-path fraction of its fixed occupancy: far
    /// smaller, because most of its fitted occupancy is socket/epoll
    /// bookkeeping off the request path \[fitted: Fig. 8's 1.34× server
    /// ratio at small values\].
    pub shieldstore_critical_fraction: f64,
    /// Closed-loop client think/issue time per operation \[fitted: Fig. 6's
    /// linear rise to the ≈55-client peak implies ≈23 Kops per client\].
    pub client_think: Nanos,
    /// Extra server occupancy per op per connected client ring beyond the
    /// calibration baseline — "the necessary polling in the enclave; with
    /// more client processes, this might incur much CPU overhead" (§5.2)
    /// \[fitted: Fig. 6's decline past the peak\].
    pub poll_scan_per_client: u64,
    /// Client count at which the fixed occupancies were fitted (Fig. 4).
    pub poll_scan_baseline: usize,
    /// Cycles for handing a validated request from the trusted poller that
    /// popped it to the foreign shard owning its key — an in-enclave queue
    /// enqueue/dequeue plus the cross-core cache-line transfer of the
    /// control data \[arch; only charged with `Config::shards > 1`\].
    pub shard_handoff_cycles: u64,

    // ---- durability (journal + replication; only charged when a journal
    // is attached, so unjournaled trajectories are untouched) ----
    /// Fixed enclave cycles to seal one journal record beyond the AES-GCM
    /// and chain-hash work (header framing, chain bookkeeping) \[arch\].
    pub journal_seal_fixed: u64,
    /// Fixed host cycles per durable journal write (syscall + pwrite
    /// dispatch, amortised over the group by the group-commit policy)
    /// \[arch\].
    pub durable_write_fixed: u64,
    /// Host cycles per byte moved to durable storage \[arch: NVMe-class
    /// append bandwidth\].
    pub durable_write_per_byte: f64,
    /// Network-side cycles per journal byte shipped to one replica
    /// (segment framing + NIC doorbell amortised) \[arch\]. Charged
    /// `fanout ×` per sealed byte.
    pub segment_ship_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            server_freq: Freq::ghz(3.7),
            client_freq: Freq::ghz(3.4),
            server_threads: 12,

            enclave_transition_cycles: 13_100,
            epc_fault_cycles: 20_000,
            epc_usable_bytes: 93 * 1024 * 1024,
            page_bytes: 4096,

            aes_gcm_fixed: 1_300,
            aes_gcm_per_byte: 3.0,
            cmac_fixed: 1_100,
            cmac_per_byte: 1.3,
            salsa20_fixed: 300,
            salsa20_per_byte: 1.9,
            sha256_fixed: 600,
            sha256_per_byte: 7.5,
            keygen_cycles: 500,

            memcpy_fixed: 100,
            memcpy_per_byte: 0.06,
            ht_fixed: 120,
            ht_per_probe: 60,

            rdma_one_way: Nanos(900),
            server_nic_gbps: 40.0,
            client_nic_gbps: 10.0,
            rdma_post_cycles: 150,
            rdma_poll_cycles: 100,
            rdma_inline_max: 912,
            rnic_cache_qps: 64,
            rnic_cache_miss: Nanos(1_400),

            tcp_msg_latency: Nanos(14_000),
            tcp_msg_cycles: 18_000,
            tcp_per_byte: 0.25,
            tcp_jitter_sigma: 0.9,

            precursor_get_fixed: 33_000,
            precursor_put_extra: 20_000,
            server_enc_extra: 18_000,
            shieldstore_op_fixed: 310_000,
            shieldstore_put_extra: 70_000,
            critical_fraction: 0.12,
            shieldstore_critical_fraction: 0.012,
            client_think: Nanos(38_000),
            poll_scan_per_client: 260,
            poll_scan_baseline: 50,
            shard_handoff_cycles: 600,
            journal_seal_fixed: 350,
            durable_write_fixed: 4_200,
            durable_write_per_byte: 0.35,
            segment_ship_per_byte: 0.25,
        }
    }
}

/// One mechanism the cost model prices, with its size.
///
/// A [`Meter`](crate::meter::Meter) charges an event through
/// [`Meter::event`](crate::meter::Meter::event), which counts it in the
/// meter's ledger and charges `n ×` [`CostModel::price`]. The fitted
/// per-op occupancies are events too, until counted mechanisms replace
/// them. An event priced at zero is a count the driver's replay prices
/// instead (bytes on a link) or a count kept beside another event's price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One AES-128-GCM pass, seal or open, over `len` bytes.
    Gcm {
        /// Bytes passed through the cipher.
        len: usize,
    },
    /// One Salsa20 pass over `len` bytes.
    Salsa20 {
        /// Bytes passed through the cipher.
        len: usize,
    },
    /// One AES-CMAC over `len` bytes.
    Cmac {
        /// Bytes MACed.
        len: usize,
    },
    /// One SHA-256 over `len` bytes.
    Sha256 {
        /// Bytes hashed.
        len: usize,
    },
    /// One client key generation.
    KeyGen,
    /// A memcpy of `len` bytes that does not cross the enclave boundary.
    Memcpy {
        /// Bytes copied.
        len: usize,
    },
    /// A copy of `len` bytes across the enclave boundary (§3.7).
    BoundaryCopy {
        /// Bytes copied.
        len: usize,
    },
    /// One hash-table operation that took `probes` probe steps.
    TableOp {
        /// Probe steps taken.
        probes: usize,
    },
    /// One enclave transition, ecall or ocall (§2.1).
    Transition,
    /// One EPC page fault (§2.1).
    EpcFault,
    /// One RDMA work request posted.
    RdmaPost,
    /// A retransmission re-posting `writes` WRITEs: counted as `writes`
    /// posts, priced as one.
    RdmaRepost {
        /// WRITEs re-posted.
        writes: usize,
    },
    /// One completion polled.
    RdmaPoll,
    /// A validated request handed to the shard owning its key.
    ShardHandoff,
    /// The server kernel's TCP stack work for one `len`-byte message.
    TcpMsg {
        /// Message bytes.
        len: usize,
    },
    /// A TCP message a client sends. Counted with the server's
    /// [`Event::TcpMsg`]s; the client's kernel work is not priced.
    ClientTcpMsg,
    /// Sealing one journal record over a `len`-byte body: its GCM pass,
    /// its chain hash and the framing.
    JournalSeal {
        /// Record body bytes.
        len: usize,
    },
    /// Making one `len`-byte journal record durable, its write's fixed
    /// cost amortised over a group commit of `batch` records.
    JournalWrite {
        /// Framed record bytes.
        len: usize,
        /// Records per group commit.
        batch: usize,
    },
    /// Shipping one `len`-byte journal record to `fanout` replicas.
    JournalShip {
        /// Framed record bytes.
        len: usize,
        /// Replicas shipped to.
        fanout: usize,
    },
    /// The critical-path share of one op's fitted fixed occupancy.
    FixedCritical(Occupancy),
    /// The rest of the same occupancy: polling and bookkeeping off the
    /// request's critical path.
    FixedOverhead(Occupancy),
    /// `len` bytes handed to the network. Priced at zero: the driver's
    /// links charge the transfer.
    Tx {
        /// Bytes transmitted.
        len: usize,
    },
    /// `len` bytes a client put through its payload cipher. Priced at
    /// zero: the cipher's own event charges the pass.
    CryptoBytes {
        /// Bytes enciphered or deciphered.
        len: usize,
    },
}

/// Whose fitted fixed per-op occupancy an event charges \[fitted\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occupancy {
    /// A Precursor op: `put` adds `precursor_put_extra`, `server_enc` adds
    /// `server_enc_extra`; `critical_fraction` of it is critical.
    Precursor {
        /// The op is a put.
        put: bool,
        /// The server runs in server-encryption mode.
        server_enc: bool,
    },
    /// A ShieldStore op: `put` adds `shieldstore_put_extra`;
    /// `shieldstore_critical_fraction` of it is critical.
    ShieldStore {
        /// The op is a put.
        put: bool,
    },
}

impl CostModel {
    /// The cycles one `ev` costs. Every price in the model is here.
    #[inline(always)]
    pub fn price(&self, ev: Event) -> Cycles {
        let linear =
            |fixed: u64, per_byte: f64, len: usize| fixed + (len as f64 * per_byte).round() as u64;
        let fixed_split = |occupancy: Occupancy| {
            let (fixed, fraction) = match occupancy {
                Occupancy::Precursor { put, server_enc } => (
                    self.precursor_get_fixed
                        + if put { self.precursor_put_extra } else { 0 }
                        + if server_enc { self.server_enc_extra } else { 0 },
                    self.critical_fraction,
                ),
                Occupancy::ShieldStore { put } => (
                    self.shieldstore_op_fixed + if put { self.shieldstore_put_extra } else { 0 },
                    self.shieldstore_critical_fraction,
                ),
            };
            let critical = (fixed as f64 * fraction).round() as u64;
            (critical, fixed - critical)
        };
        Cycles(match ev {
            Event::Gcm { len } => linear(self.aes_gcm_fixed, self.aes_gcm_per_byte, len),
            Event::Salsa20 { len } => linear(self.salsa20_fixed, self.salsa20_per_byte, len),
            Event::Cmac { len } => linear(self.cmac_fixed, self.cmac_per_byte, len),
            Event::Sha256 { len } => linear(self.sha256_fixed, self.sha256_per_byte, len),
            Event::KeyGen => self.keygen_cycles,
            Event::Memcpy { len } | Event::BoundaryCopy { len } => {
                linear(self.memcpy_fixed, self.memcpy_per_byte, len)
            }
            Event::TableOp { probes } => self.ht_fixed + self.ht_per_probe * probes as u64,
            Event::Transition => self.enclave_transition_cycles,
            Event::EpcFault => self.epc_fault_cycles,
            Event::RdmaPost | Event::RdmaRepost { .. } => self.rdma_post_cycles,
            Event::RdmaPoll => self.rdma_poll_cycles,
            Event::ShardHandoff => self.shard_handoff_cycles,
            Event::TcpMsg { len } => self.tcp_msg_cycles + (len as f64 * self.tcp_per_byte) as u64,
            Event::JournalSeal { len } => {
                linear(self.aes_gcm_fixed, self.aes_gcm_per_byte, len)
                    + linear(self.sha256_fixed, self.sha256_per_byte, len + 25)
                    + self.journal_seal_fixed
            }
            Event::JournalWrite { len, batch } => {
                self.durable_write_fixed / batch as u64
                    + (len as f64 * self.durable_write_per_byte).round() as u64
            }
            Event::JournalShip { len, fanout } => {
                (fanout as f64 * len as f64 * self.segment_ship_per_byte).round() as u64
            }
            Event::FixedCritical(occupancy) => fixed_split(occupancy).0,
            Event::FixedOverhead(occupancy) => fixed_split(occupancy).1,
            Event::ClientTcpMsg | Event::Tx { .. } | Event::CryptoBytes { .. } => 0,
        })
    }

    /// Usable EPC size in pages.
    pub fn epc_pages(&self) -> u64 {
        self.epc_usable_bytes / self.page_bytes
    }

    /// Converts server-side cycles to time (the driver's replay; a meter
    /// converts inside [`Meter::event`](crate::meter::Meter::event)).
    pub fn server_time(&self, c: Cycles) -> Nanos {
        self.server_freq.cycles_to_nanos(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_cost_functions_grow() {
        let m = CostModel::default();
        let sized = [
            |len| Event::Gcm { len },
            |len| Event::Cmac { len },
            |len| Event::Salsa20 { len },
            |len| Event::Sha256 { len },
            |len| Event::Memcpy { len },
        ];
        for ev in sized {
            assert!(m.price(ev(4096)) > m.price(ev(64)));
        }
    }

    #[test]
    fn paper_constants_present() {
        let m = CostModel::default();
        assert_eq!(m.enclave_transition_cycles, 13_100);
        assert_eq!(m.epc_fault_cycles, 20_000);
        assert_eq!(m.epc_usable_bytes, 93 * 1024 * 1024);
        assert_eq!(m.rdma_inline_max, 912);
        assert_eq!(m.server_threads, 12);
    }

    #[test]
    fn epc_page_count() {
        let m = CostModel::default();
        assert_eq!(m.epc_pages(), 93 * 1024 / 4);
    }

    #[test]
    fn fig1_calibration_crypto_below_line_rate_at_small_sizes() {
        // Reproduce the paper's Figure-1 observation analytically: with 12
        // threads, decrypt+encrypt throughput for ≤1 KiB buffers is well
        // below the 40 Gbit/s line rate (~36 % less), and exceeds it at
        // 32 KiB.
        let m = CostModel::default();
        let line_rate_mb_s = 40.0e9 / 8.0 / 1e6; // 5000 MB/s
        let tput = |len: usize| {
            let cycles_per_op = 2 * m.price(Event::Gcm { len }).0; // decrypt then encrypt
            let ops_per_s = 12.0 * m.client_freq.hz() / cycles_per_op as f64;
            ops_per_s * len as f64 / 1e6 // MB/s
        };
        assert!(tput(256) < 0.7 * line_rate_mb_s, "256 B: {}", tput(256));
        assert!(tput(1024) < 1.15 * line_rate_mb_s);
        assert!(
            tput(32 * 1024) > line_rate_mb_s,
            "32 KiB: {}",
            tput(32 * 1024)
        );
    }

    #[test]
    fn fig4_calibration_read_only_throughput_near_paper() {
        // 12 server threads, per-get occupancy ⇒ server-bound throughput
        // should land near the paper's 1,149 Kops for 32 B read-only.
        let m = CostModel::default();
        let control = 56;
        let per_get = m.precursor_get_fixed
            + m.price(Event::Gcm { len: control }).0 * 2
            + m.price(Event::TableOp { probes: 2 }).0
            + m.price(Event::Memcpy { len: control }).0 * 2;
        let ops = m.server_threads as f64 * m.server_freq.hz() / per_get as f64;
        assert!(
            (ops - 1_149_000.0).abs() / 1_149_000.0 < 0.12,
            "read-only capacity {ops:.0} ops/s"
        );
    }

    #[test]
    fn critical_part_is_fraction() {
        let m = CostModel::default();
        let get = Occupancy::Precursor {
            put: false,
            server_enc: false,
        };
        // 33 000 × 0.12 = 3 960 critical, the rest overhead.
        assert_eq!(m.price(Event::FixedCritical(get)), Cycles(3_960));
        assert_eq!(m.price(Event::FixedOverhead(get)), Cycles(29_040));
        let put = Occupancy::ShieldStore { put: true };
        // (310 000 + 70 000) × 0.012 = 4 560.
        assert_eq!(m.price(Event::FixedCritical(put)), Cycles(4_560));
        assert_eq!(m.price(Event::FixedOverhead(put)), Cycles(375_440));
    }

    #[test]
    fn time_conversions_use_right_clock() {
        let m = CostModel::default();
        assert!(m.server_time(Cycles(3_700)) == Nanos(1_000));
        assert!(m.client_freq.cycles_to_nanos(Cycles(3_400)) == Nanos(1_000));
    }
}
