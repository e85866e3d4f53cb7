//! The unified trusted key-value backend abstraction.
//!
//! The paper's evaluation compares three systems — Precursor with
//! client-side encryption, the conventional server-encryption scheme on the
//! same data path, and the ShieldStore baseline — over one driver and one
//! workload generator (§5.1). [`TrustedKv`] captures the surface that
//! comparison needs: session lifecycle (connect), asynchronous op submit,
//! the server polling step, client-side reply collection, and the per-op
//! report/metering stream the discrete-event replay consumes.
//!
//! The trait is object-safe so the YCSB driver holds one
//! `Box<dyn TrustedKv>` and runs every backend through the identical hot
//! loop — zero per-system dispatch beyond construction. Backends translate
//! their native op/status vocabularies into the uniform [`KvOp`] /
//! [`KvStatus`] / [`KvCompleted`] / [`KvOpReport`] types; a backend without
//! trusted polling shards reports `shard == 0` for every op.
//!
//! [`PrecursorBackend`] (both encryption modes, selected by
//! [`Config::mode`]) lives here; the ShieldStore implementor lives in
//! `precursor_shieldstore::backend` next to the types it adapts.

use precursor_obs::MetricsRegistry;
use precursor_sgx::SgxPerfReport;
use precursor_sim::meter::Meter;
use precursor_sim::CostModel;

use crate::client::PrecursorClient;
use crate::config::Config;
use crate::error::StoreError;
use crate::server::PrecursorServer;
use crate::wire::{Opcode, Status};

/// Operation kinds every trusted KV backend supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Insert or update a key.
    Put,
    /// Query a key.
    Get,
    /// Remove a key.
    Delete,
}

impl From<Opcode> for KvOp {
    fn from(op: Opcode) -> KvOp {
        match op {
            Opcode::Put => KvOp::Put,
            Opcode::Get => KvOp::Get,
            Opcode::Delete => KvOp::Delete,
        }
    }
}

/// Uniform operation outcome across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvStatus {
    /// Success.
    Ok,
    /// Key absent.
    NotFound,
    /// Sequence-number check failed (replay detected).
    Replay,
    /// Authentication, framing, or size failure.
    Error,
    /// The server is shedding load; retry later.
    Busy,
    /// The addressed node does not own the key; refresh routing and retry
    /// at the hinted owner.
    NotMine,
}

impl From<Status> for KvStatus {
    fn from(s: Status) -> KvStatus {
        match s {
            Status::Ok => KvStatus::Ok,
            Status::NotFound => KvStatus::NotFound,
            Status::Replay => KvStatus::Replay,
            Status::Error => KvStatus::Error,
            Status::Busy => KvStatus::Busy,
            Status::NotMine => KvStatus::NotMine,
        }
    }
}

/// A finished operation as observed at a client, in backend-neutral form.
#[derive(Debug, Clone)]
pub struct KvCompleted {
    /// The operation's sequence number.
    pub oid: u64,
    /// Operation kind.
    pub op: KvOp,
    /// Server-reported outcome.
    pub status: KvStatus,
    /// Decrypted value for successful gets.
    pub value: Option<Vec<u8>>,
}

/// One per-operation server-side report, in backend-neutral form.
#[derive(Debug, Clone)]
pub struct KvOpReport {
    /// Issuing client.
    pub client_id: u32,
    /// Operation kind.
    pub op: KvOp,
    /// Outcome.
    pub status: KvStatus,
    /// Plaintext value bytes involved.
    pub value_len: usize,
    /// Trusted polling shard that executed the op — `0` for backends
    /// without sharded trusted polling.
    pub shard: u32,
    /// Server-side cost charges for this operation.
    pub meter: Meter,
}

/// The transport family a backend speaks — drives the network leg of the
/// discrete-event replay (RNIC QP cache vs. kernel-TCP latency + jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One-sided RDMA rings (Precursor family).
    Rdma,
    /// Kernel TCP sockets (ShieldStore).
    Tcp,
}

/// A trusted key-value system under test: one server plus its connected
/// clients, driven through a backend-neutral session/submit/poll/report
/// surface.
///
/// Contract expected by the driver and the cross-backend suites:
///
/// * [`connect`](Self::connect) appends a client and returns its dense
///   index; all later per-client calls take that index.
/// * [`submit`](Self::submit) enqueues one op without waiting;
///   [`poll`](Self::poll) runs one server sweep and returns how many
///   requests it processed; [`poll_replies`](Self::poll_replies) drains the
///   client's reply ring/socket.
/// * [`take_reports`](Self::take_reports) yields exactly one
///   [`KvOpReport`] per processed request, in processing order.
/// * Meters are cumulative until taken: the driver brackets each op with
///   [`take_client_meter`](Self::take_client_meter) calls.
pub trait TrustedKv {
    /// Human-readable backend name for tables and error messages.
    fn name(&self) -> &'static str;

    /// The transport family the backend speaks.
    fn transport(&self) -> Transport;

    /// Connects one more client (attestation + session establishment) and
    /// returns its index.
    fn connect(&mut self, seed: u64) -> Result<usize, StoreError>;

    /// Number of connected clients.
    fn clients(&self) -> usize;

    /// Enqueues one operation from `client` without waiting for the reply;
    /// returns the operation's sequence number. `value` is ignored for
    /// gets and deletes.
    fn submit(
        &mut self,
        client: usize,
        op: KvOp,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64, StoreError>;

    /// Runs one server sweep; returns the number of requests processed.
    fn poll(&mut self) -> usize;

    /// Drains `client`'s pending replies; returns how many arrived.
    fn poll_replies(&mut self, client: usize) -> usize;

    /// Takes `client`'s finished operations accumulated since the last
    /// call.
    fn take_completed(&mut self, client: usize) -> Vec<KvCompleted>;

    /// Takes and resets `client`'s accumulated cost meter.
    fn take_client_meter(&mut self, client: usize) -> Meter;

    /// Takes the per-op server reports accumulated since the last call.
    fn take_reports(&mut self) -> Vec<KvOpReport>;

    /// Enclave performance report (working set, faults).
    fn sgx_report(&self) -> SgxPerfReport;

    /// Number of live keys in the store.
    fn store_len(&self) -> usize;

    /// How many requests of `frame_bytes` each a single client may submit
    /// back-to-back before the driver must drain (bulk-load batching): the
    /// request-ring capacity for ring-based backends, a fixed socket batch
    /// for stream-based ones.
    fn warmup_batch(&self, frame_bytes: usize) -> usize;

    /// Cumulative ring visits performed by the backend's poll sweeps, for
    /// backends whose poller visits per-client rings. The closed-loop
    /// driver charges the per-ring scan cost against the *delta* of this
    /// counter instead of assuming every sweep touches every connected
    /// client. Backends without a ring poller return 0.
    fn rings_swept(&self) -> u64 {
        0
    }

    /// A snapshot of the backend's metrics registry: the shared
    /// backend-neutral namespace (`ops.*`, `status.*`, `stage.*_ns`,
    /// `meter.*`) merged from the server-side per-stage taps, plus any
    /// backend-specific namespaces (client state machine, fault/adversary
    /// layers). Backends without instrumentation return an empty registry.
    fn metrics(&self) -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Submits one op and drives server + client until it completes —
    /// convenience for tests and short sequences, not the measured path.
    fn op_sync(
        &mut self,
        client: usize,
        op: KvOp,
        key: &[u8],
        value: &[u8],
    ) -> Result<KvCompleted, StoreError> {
        let oid = self.submit(client, op, key, value)?;
        // A few sweeps cover backends that stage replies across polls.
        for _ in 0..16 {
            self.poll();
            self.poll_replies(client);
            if let Some(done) = self
                .take_completed(client)
                .into_iter()
                .rev()
                .find(|c| c.oid == oid)
            {
                return Ok(done);
            }
        }
        Err(StoreError::Timeout)
    }
}

/// [`TrustedKv`] over the Precursor data path — both the paper's
/// client-side encryption design and the conventional server-encryption
/// scheme, selected by [`Config::mode`].
pub struct PrecursorBackend {
    server: PrecursorServer,
    clients: Vec<PrecursorClient>,
    epoch_counter: precursor_sgx::counters::MonotonicCounter,
    snap_counter: precursor_sgx::counters::MonotonicCounter,
    // Compact the journal every N polls (0 = never).
    compact_every: usize,
    polls_since_compact: usize,
}

impl PrecursorBackend {
    /// Builds the server with `config`; connect clients afterwards.
    pub fn new(config: Config, cost: &CostModel) -> PrecursorBackend {
        PrecursorBackend {
            server: PrecursorServer::new(config, cost),
            clients: Vec::new(),
            epoch_counter: precursor_sgx::counters::MonotonicCounter::new(),
            snap_counter: precursor_sgx::counters::MonotonicCounter::new(),
            compact_every: 0,
            polls_since_compact: 0,
        }
    }

    /// Attaches a locally-durable sealed journal with the given
    /// group-commit policy (see
    /// [`PrecursorServer::attach_journal`]). Call before connecting
    /// clients so their sessions and mutations are journaled. Returns the
    /// journal epoch.
    pub fn enable_durability(&mut self, policy: precursor_journal::GroupCommitPolicy) -> u64 {
        self.server.attach_journal(policy, &mut self.epoch_counter)
    }

    /// Compacts the journal behind the committed watermark every
    /// `every_polls` poll sweeps (see
    /// [`PrecursorServer::compact_journal`]): the enclave seals a
    /// snapshot, advances the trusted counter, and truncates the
    /// committed prefix so journal growth is bounded by the tail since
    /// the last cut. Requires [`enable_durability`](Self::enable_durability)
    /// first; `0` disables.
    pub fn enable_compaction(&mut self, every_polls: usize) {
        self.compact_every = every_polls;
        self.polls_since_compact = 0;
    }

    /// Compacts the journal now (if eligible) and returns the outcome.
    pub fn compact_now(&mut self) -> crate::server::CompactOutcome {
        self.server.compact_journal(&mut self.snap_counter)
    }

    /// The underlying server (for assertions beyond the trait surface).
    pub fn server(&self) -> &PrecursorServer {
        &self.server
    }

    /// Mutable access to the underlying server.
    pub fn server_mut(&mut self) -> &mut PrecursorServer {
        &mut self.server
    }
}

impl TrustedKv for PrecursorBackend {
    fn name(&self) -> &'static str {
        match self.server.config().mode {
            crate::config::EncryptionMode::ClientSide => "Precursor",
            crate::config::EncryptionMode::ServerSide => "Precursor server-encryption",
        }
    }

    fn transport(&self) -> Transport {
        Transport::Rdma
    }

    fn connect(&mut self, seed: u64) -> Result<usize, StoreError> {
        let client = PrecursorClient::connect(&mut self.server, seed)?;
        self.clients.push(client);
        Ok(self.clients.len() - 1)
    }

    fn clients(&self) -> usize {
        self.clients.len()
    }

    fn submit(
        &mut self,
        client: usize,
        op: KvOp,
        key: &[u8],
        value: &[u8],
    ) -> Result<u64, StoreError> {
        let c = &mut self.clients[client];
        match op {
            KvOp::Put => c.put(key, value),
            KvOp::Get => c.get(key),
            KvOp::Delete => c.delete(key),
        }
    }

    fn poll(&mut self) -> usize {
        let swept = self.server.poll();
        if self.compact_every > 0 {
            self.polls_since_compact += 1;
            if self.polls_since_compact >= self.compact_every {
                self.polls_since_compact = 0;
                self.server.compact_journal(&mut self.snap_counter);
            }
        }
        swept
    }

    fn poll_replies(&mut self, client: usize) -> usize {
        self.clients[client].poll_replies()
    }

    fn take_completed(&mut self, client: usize) -> Vec<KvCompleted> {
        self.clients[client]
            .take_all_completed()
            .into_iter()
            .map(|c| KvCompleted {
                oid: c.oid,
                op: c.opcode.into(),
                status: c.status.into(),
                value: c.value,
            })
            .collect()
    }

    fn take_client_meter(&mut self, client: usize) -> Meter {
        self.clients[client].take_meter()
    }

    fn take_reports(&mut self) -> Vec<KvOpReport> {
        self.server
            .take_reports()
            .into_iter()
            .map(|r| KvOpReport {
                client_id: r.client_id,
                op: r.opcode.into(),
                status: r.status.into(),
                value_len: r.value_len,
                shard: r.shard,
                meter: r.meter,
            })
            .collect()
    }

    fn sgx_report(&self) -> SgxPerfReport {
        self.server.sgx_report()
    }

    fn store_len(&self) -> usize {
        self.server.len()
    }

    fn warmup_batch(&self, frame_bytes: usize) -> usize {
        // Half the request ring: the in-flight window the credit protocol
        // sustains without a drain.
        (self.server.config().ring_bytes / (2 * frame_bytes)).max(1)
    }

    fn rings_swept(&self) -> u64 {
        self.server.rings_swept()
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut m = self.server.metrics().clone();
        for c in &self.clients {
            m.merge(&c.metrics());
        }
        // Fold the RDMA fault/adversary layers in, so retries, reconnects
        // and detections are visible next to the op counters they explain.
        m.inc("rdma.faults.injected", self.server.injected_faults() as u64);
        m.inc(
            "rdma.adversary.mounted",
            self.server.mounted_attacks() as u64,
        );
        m.gauge_set(
            "server.reports_dropped_total",
            self.server.reports_dropped(),
        );
        m
    }
}
