//! Deterministic observability layer for the Precursor reproduction.
//!
//! Everything in this crate is driven by *sim virtual time* and plain
//! integer state, so for a fixed seed the trace stream, the metrics
//! snapshot and the rendered JSON are bit-identical across runs. That
//! makes observability itself testable: determinism suites can fold the
//! trace digest into their golden hashes, and bench trajectories can be
//! diffed byte-for-byte in CI.
//!
//! The crate provides three building blocks:
//!
//! * [`metrics`] — a typed registry of saturating [`Counter`]s,
//!   [`Gauge`]s and latency
//!   [`Histogram`](precursor_sim::histogram::Histogram)s (the simulator's
//!   one histogram type) keyed by static names, with deterministic
//!   snapshots and merging.
//! * [`trace`] — a ring-buffered structured-event [`Tracer`] stamped
//!   with [`Nanos`](precursor_sim::time::Nanos) virtual timestamps and a
//!   running FNV-1a digest that survives ring eviction. Zero-cost when
//!   disabled.
//! * [`json`] — a tiny deterministic JSON writer (no external
//!   dependencies) used for metrics snapshots and the benchmark's reports.
//!
//! # Example
//!
//! ```
//! use precursor_obs::metrics::MetricsRegistry;
//! use precursor_obs::trace::Tracer;
//! use precursor_sim::time::Nanos;
//!
//! let mut m = MetricsRegistry::default();
//! m.inc("server.ops.put", 1);
//! m.observe("server.stage.total_ns", 1_250);
//! assert_eq!(m.counter("server.ops.put"), 1);
//!
//! let mut t = Tracer::enabled(16);
//! t.record(Nanos(10), "exec", "put", 7, 128);
//! assert_eq!(t.recorded(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::JsonWriter;
pub use metrics::{
    observe_meter, stage_metric, Counter, Gauge, MetricsRegistry, STAGE_TOTAL_METRIC,
};
pub use trace::{TraceEvent, Tracer};
