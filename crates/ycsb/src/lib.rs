//! YCSB-style workload generation and the closed-loop benchmark driver.
//!
//! The paper evaluates with YCSB (§5.1): uniform key popularity, workloads
//! A (50 % read), B (95 % read), C (read-only) plus an update-mostly mix
//! (5 % read), 600 k warmup records, 50 closed-loop clients over six client
//! machines, 12 server threads.
//!
//! * [`workload`] — workload specifications and the operation generator.
//! * [`zipfian`] — the YCSB Zipfian/scrambled-Zipfian generators (provided
//!   for completeness; the paper "concentrates on the uniform YCSB
//!   workload").
//! * [`driver`] — the closed-loop discrete-event driver: executes every
//!   operation *functionally* against the chosen system (real crypto, real
//!   rings, real enclave accounting), then replays the measured per-stage
//!   costs through contended resources (server CPU pool, NIC links, RNIC
//!   cache, TCP jitter) to produce throughput and latency distributions.
//!   A multi-node cluster is the same driver with one set of server-side
//!   resources per node.
//!
//! # Example
//!
//! ```
//! use precursor_sim::CostModel;
//! use precursor_ycsb::driver::{SessionParams, SystemKind};
//! use precursor_ycsb::workload::WorkloadSpec;
//!
//! let mut session = SessionParams::new(SystemKind::Precursor)
//!     .value_size(32)
//!     .keys(1_000, 1_000)
//!     .max_clients(4)
//!     .seed(1)
//!     .paper_poller(true)
//!     .build(&CostModel::default());
//! let result = session.measure(&WorkloadSpec::workload_c(32, 1_000), 4, 2_000);
//! assert!(result.throughput_ops > 0.0);
//! assert!(result.latency.count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod workload;
pub mod zipfian;

pub use driver::{RunResult, SystemKind};
pub use workload::{OpKind, WorkloadSpec};
