//! Simulated RDMA verbs for the Precursor reproduction.
//!
//! No RDMA hardware is available here, so this crate reimplements the
//! libibverbs programming model the paper builds on (§2.2, §4) as an
//! in-process functional simulation:
//!
//! * [`mr`] — registered memory regions with remote keys and permissions;
//!   one-sided accesses really move bytes between buffers, and a region can
//!   be *pinned against DMA* to enforce the SGX rule that enclave memory is
//!   unreachable from the NIC.
//! * [`qp`] — reliable-connected queue pairs: one-sided `WRITE` bypassing
//!   the remote CPU (the store's data path), two-sided `SEND`/`RECV` (the
//!   replication and migration links), completion queues, selective
//!   signaling, and inline sends (≤912 B on the paper's NICs).
//! * [`nic`] — the RNIC's QP-state cache; with more connections than cache
//!   entries, per-op misses appear — the contention that bends the paper's
//!   Figure 6 beyond ~55 clients.
//! * [`tcp`] — the kernel-TCP baseline transport used by ShieldStore, with
//!   per-message syscall/interrupt costs charged by the cost model.
//! * [`host`] — the untrusted host, modelled once: one seeded plan of
//!   benign faults (dropped or bit-flipped WRITEs, QP errors, torn or
//!   corrupted durable writes and migration shipments) and active attacks
//!   (payload tampering, reply replay/reorder/duplication, staged rollback
//!   and fork), executed by one [`Host`] with one audit log, so recovery
//!   and Byzantine detection can be exercised replayably end to end.
//!
//! Timing is charged to a [`Meter`](precursor_sim::Meter) (CPU cost of
//! posting/polling) while byte counts are exposed so the closed-loop driver
//! can model link contention with [`Link`](precursor_sim::Link) resources.
//!
//! # Example
//!
//! ```
//! use precursor_rdma::mr::Memory;
//! use precursor_rdma::qp::connect_pair;
//!
//! // Server registers a buffer; client writes into it one-sidedly.
//! let server_mem = Memory::zeroed(4096);
//! let (mut client_qp, server_qp) = connect_pair(912);
//! let rkey = server_qp.register(server_mem.clone(), true);
//! client_qp.post_write(rkey, 100, b"hello", true).unwrap();
//! assert_eq!(server_mem.read(100, 5), b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod mr;
pub mod nic;
pub mod qp;
pub mod replica;
pub mod tcp;

pub use host::{DurableVerdict, Host, HostAct, HostFilter, HostMove, HostPlan, HostSite};
pub use mr::{Memory, RemoteKey, WriteBoard};
pub use nic::RnicCache;
pub use qp::{connect_pair, QueuePair, RdmaError, WcStatus, WorkCompletion};
pub use replica::{LinkMode, LinkStats, ReplicaLink};
pub use tcp::SimTcp;

/// Locks a mutex, recovering the guard if a holder panicked (the simulation
/// is single-threaded in practice; poisoning would only hide the original
/// panic).
pub fn plock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
