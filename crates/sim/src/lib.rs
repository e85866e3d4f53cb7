//! Deterministic discrete-event simulation kernel used by the Precursor
//! reproduction.
//!
//! The crate provides the building blocks every simulated subsystem shares:
//!
//! * [`time`] — virtual time ([`Nanos`]) and CPU work ([`Cycles`]) newtypes
//!   plus clock-frequency conversion ([`Freq`]).
//! * [`cost`] — the single, documented [`CostModel`] holding
//!   every calibrated constant (crypto cycles/byte, SGX transition costs, NIC
//!   latencies, …).
//! * [`resource`] — FIFO queueing resources: a pool of `k` servers
//!   ([`Pool`]; a pool of one is a single server) and a network [`Link`].
//! * [`meter`] — per-operation stage accounting and the event ledger
//!   ([`Meter`]/[`Stage`]); functional protocol code reports every priced
//!   [`Event`] here and the closed-loop driver replays the charged stages
//!   through resources.
//! * [`rng`] — a small deterministic RNG family (SplitMix64 / Xoshiro256**)
//!   with the distribution helpers the workloads need.
//! * [`histogram`] — log-bucketed latency histograms with percentile and CDF
//!   extraction.
//! * [`stats`] — running summary statistics.
//! * [`engine`] — the virtual-time [`EventQueue`](engine::EventQueue) for
//!   token-based simulations, a binary heap ordered by time with FIFO ties.
//!
//! # Example
//!
//! ```
//! use precursor_sim::resource::Pool;
//! use precursor_sim::time::Nanos;
//!
//! // Two server threads: two jobs arriving at t=0 run side by side, and a
//! // third queues behind the first to finish.
//! let mut cpu = Pool::new("cpu", 2);
//! let first = cpu.acquire(Nanos(0), Nanos(100));
//! let second = cpu.acquire(Nanos(0), Nanos(100));
//! let third = cpu.acquire(Nanos(0), Nanos(100));
//! assert_eq!((first.start, second.start), (Nanos(0), Nanos(0)));
//! assert_eq!(third.start, Nanos(100));
//! assert_eq!(third.end, Nanos(200));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod histogram;
pub mod meter;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timer;

pub use cost::{CostModel, Event, Occupancy};
pub use histogram::Histogram;
pub use meter::{Meter, Stage};
pub use resource::{Link, Pool};
pub use rng::SimRng;
pub use time::{Cycles, Freq, Nanos};
pub use timer::{Backoff, Deadline, VirtualClock};
