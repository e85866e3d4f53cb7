//! # Precursor
//!
//! A reproduction of **"Precursor: A Fast, Client-Centric and Trusted
//! Key-Value Store using RDMA and Intel SGX"** (Messadi et al., Middleware
//! '21) as a Rust library over simulated SGX and RDMA substrates.
//!
//! Precursor splits every request into **control data** (key, one-time key
//! `K_operation`, sequence number `oid`) — transport-encrypted under the
//! per-client session key whose secure endpoint is *inside* the enclave —
//! and **payload data** (the value), encrypted *by the client* under
//! `K_operation` and placed in the server's *untrusted* memory via one-sided
//! RDMA WRITE, never entering the enclave. The enclave keeps only a small
//! Robin Hood hash table mapping each key to its `K_operation`, replay
//! counter and untrusted-payload pointer.
//!
//! ## Modules
//!
//! * [`wire`] — the request/reply framing (opcode, `start_sign`/`end_sign`,
//!   sealed control segment, payload MAC, payload).
//! * [`client`] — [`PrecursorClient`]: Algorithm 1 (put), gets, reply
//!   verification, and the attack surface used by the security tests.
//! * [`server`] — [`PrecursorServer`]: trusted polling threads, the enclave
//!   hash table, the untrusted payload pool, reply writing (Algorithm 2).
//! * [`config`] — store configuration, including the
//!   [`EncryptionMode`]: the paper's client-
//!   encryption design or the conventional server-encryption baseline —
//!   and the client's [`RetryPolicy`].
//! * [`snapshot`] — sealed snapshots with monotonic-counter rollback
//!   detection; together with [`PrecursorServer::reconnect_client`] they
//!   support crash-restart recovery (see `DESIGN.md`, "Failure model").
//! * [`error`] — error types.
//!
//! ## Byzantine-host hardening
//!
//! The host outside the enclave is untrusted: clients verify a per-session
//! reply **epoch**, a **MAC chain** over every control reply, and a
//! monotonic **store-mutation sequence** with a running state digest.
//! Detection quarantines the session ([`StoreError::SessionPoisoned`],
//! [`StoreError::RollbackDetected`], [`StoreError::ForkDetected`]) until a
//! fresh attestation; two clients can cross-check their observations with
//! [`fork_audit`]. The deterministic untrusted host — benign faults and
//! active attacks in one plan — lives in [`precursor_rdma::host`] and is
//! attached through [`PrecursorServer::set_host_plan`].
//!
//! ## Quickstart
//!
//! ```
//! use precursor::{Config, PrecursorClient, PrecursorServer};
//! use precursor_sim::CostModel;
//!
//! let cost = CostModel::default();
//! let mut server = PrecursorServer::new(Config::default(), &cost);
//! let mut client = PrecursorClient::connect(&mut server, 42).unwrap();
//!
//! client.put(b"greeting", b"hello enclave").unwrap();
//! server.poll();          // the trusted thread sweeps the request rings
//! client.poll_replies();  // replies landed in the client's reply ring
//!
//! let oid = client.get(b"greeting").unwrap();
//! server.poll();
//! client.poll_replies();
//! let reply = client.take_completed(oid).unwrap();
//! assert_eq!(reply.value.unwrap(), b"hello enclave");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod client;
pub mod cluster;
pub mod config;
pub mod error;
pub mod replication;
pub mod server;
pub mod snapshot;
pub mod wire;

pub use backend::{
    KvCompleted, KvOp, KvOpReport, KvStatus, PrecursorBackend, Transport, TrustedKv,
};
pub use client::{fork_audit, CompletedOp, PrecursorClient, SecurityAudit};
pub use cluster::{
    decode_owner_hint, ClusterClient, LocationCache, MetaService, MigrationOutcome,
    MigrationReport, PlacementRing, PrecursorCluster,
};
pub use config::{Config, EncryptionMode, RetryPolicy};
pub use error::StoreError;
pub use replication::{FailoverReport, ProtocolBug, ReplicaGroup};
pub use server::{CompactOutcome, OpReport, PrecursorServer, RecoveryReport};
pub use snapshot::SnapshotBlob;

// The untrusted host's vocabulary (a link's mode is one of its moves),
// re-exported so chaos and byzantine tests and demos need only this crate.
pub use precursor_rdma::host::{Host, HostAct, HostFilter, HostMove, HostPlan, HostSite};
pub use precursor_rdma::replica::LinkMode;

// Journal vocabulary (group-commit policy, the journal, its durable log and
// counters), re-exported so durability callers need only this crate.
pub use precursor_journal::{DurableLog, GroupCommitPolicy, Journal, JournalStats};
