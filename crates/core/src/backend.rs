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

use crate::cluster::{ClusterClient, PrecursorCluster, MAX_REDIRECTS};
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
    /// The addressed node does not own the key and did not execute the
    /// op. The backend has refreshed the client's routing by the time the
    /// completion is taken: submit the op again (at most
    /// [`MAX_REDIRECTS`] times) and it reaches the hinted owner.
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
    /// Cluster node that executed the op — `0` for single-server
    /// backends.
    pub node: u32,
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
/// * [`take_reports_into`](Self::take_reports_into) yields exactly one
///   [`KvOpReport`] per processed request, in processing order.
/// * Completions and reports are appended to buffers the caller owns, so a
///   driver that keeps them allocates nothing per op to collect them.
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

    /// Moves `client`'s finished operations accumulated since the last
    /// call to the end of `out`.
    fn take_completed_into(&mut self, client: usize, out: &mut Vec<KvCompleted>);

    /// [`take_completed_into`](Self::take_completed_into) a new `Vec`.
    fn take_completed(&mut self, client: usize) -> Vec<KvCompleted> {
        let mut out = Vec::new();
        self.take_completed_into(client, &mut out);
        out
    }

    /// Takes and resets `client`'s accumulated cost meter.
    fn take_client_meter(&mut self, client: usize) -> Meter;

    /// Moves the per-op server reports accumulated since the last call to
    /// the end of `out`.
    fn take_reports_into(&mut self, out: &mut Vec<KvOpReport>);

    /// [`take_reports_into`](Self::take_reports_into) a new `Vec`.
    fn take_reports(&mut self) -> Vec<KvOpReport> {
        let mut out = Vec::new();
        self.take_reports_into(&mut out);
        out
    }

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

    /// Submits one op and drives server + client until it completes,
    /// re-submitting after a [`KvStatus::NotMine`] redirect — convenience
    /// for tests and short sequences, not the measured path.
    fn op_sync(
        &mut self,
        client: usize,
        op: KvOp,
        key: &[u8],
        value: &[u8],
    ) -> Result<KvCompleted, StoreError> {
        'hop: for _ in 0..MAX_REDIRECTS {
            let oid = self.submit(client, op, key, value)?;
            // A few sweeps cover backends that stage replies across polls.
            for _ in 0..16 {
                self.poll();
                self.poll_replies(client);
                match self
                    .take_completed(client)
                    .into_iter()
                    .rev()
                    .find(|c| c.oid == oid)
                {
                    Some(done) if done.status == KvStatus::NotMine => continue 'hop,
                    Some(done) => return Ok(done),
                    None => {}
                }
            }
            return Err(StoreError::Timeout);
        }
        Err(StoreError::NotMine)
    }
}

// While a scheduled migration is in flight it streams this many keys
// every this many sweeps, underneath the workload.
const MIGRATE_PUMP_KEYS: usize = 8;
const MIGRATE_PUMP_SWEEPS: usize = 16;

/// [`TrustedKv`] over the Precursor data path — both the paper's
/// client-side encryption design and the conventional server-encryption
/// scheme, selected by [`Config::mode`] — as a [`PrecursorCluster`] of N
/// nodes with one [`ClusterClient`] per connected client. A single server
/// is the N = 1 case: the one node owns the whole ring, nothing ever
/// redirects, and every observable is the standalone server's.
pub struct PrecursorBackend {
    cluster: PrecursorCluster,
    clients: Vec<ClusterClient>,
    // Compact the journals every N polls (0 = never).
    compact_every: usize,
    polls_since_compact: usize,
    // Start moving this key's ring segment to the next node every N polls
    // (`None` = never).
    migrate: Option<(Vec<u8>, usize)>,
    polls_since_migration: usize,
}

impl PrecursorBackend {
    /// Builds one server with `config`; connect clients afterwards.
    pub fn new(config: Config, cost: &CostModel) -> PrecursorBackend {
        PrecursorBackend::with_nodes(1, config, cost)
    }

    /// Builds `nodes` servers sharing `config` behind one placement ring;
    /// clients attest to node 0 on connect and to the others on first
    /// route.
    ///
    /// # Panics
    ///
    /// If `nodes` is 0 or exceeds `u16::MAX`.
    pub fn with_nodes(nodes: usize, config: Config, cost: &CostModel) -> PrecursorBackend {
        PrecursorBackend {
            cluster: PrecursorCluster::new(nodes, config, cost),
            clients: Vec::new(),
            compact_every: 0,
            polls_since_compact: 0,
            migrate: None,
            polls_since_migration: 0,
        }
    }

    /// Attaches a locally-durable sealed journal with the given
    /// group-commit policy to every node (see
    /// [`ReplicaGroup::enable_durability`](crate::ReplicaGroup::enable_durability)).
    /// Call before connecting clients so their sessions and mutations are
    /// journaled. Returns node 0's journal epoch.
    pub fn enable_durability(&mut self, policy: precursor_journal::GroupCommitPolicy) -> u64 {
        // Node 0 last: its epoch is the one returned.
        let mut epoch = 0;
        for i in (0..self.cluster.node_count()).rev() {
            epoch = self.cluster.group_mut(i).enable_durability(policy);
        }
        epoch
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

    /// Every `every_sweeps` poll sweeps, starts migrating the ring segment
    /// owning `key` from its current owner to the next node, then streams
    /// it underneath the workload until the fence flips ownership — so
    /// every client location cache that routed into the segment goes stale
    /// and pays one sealed redirect. A no-op on one node.
    pub fn enable_migration(&mut self, key: &[u8], every_sweeps: usize) {
        self.migrate = Some((key.to_vec(), every_sweeps));
        self.polls_since_migration = 0;
    }

    /// Compacts every node's journal now (if eligible) and returns node
    /// 0's outcome.
    pub fn compact_now(&mut self) -> crate::server::CompactOutcome {
        let mut outcome = crate::server::CompactOutcome::Skipped;
        for i in (0..self.cluster.node_count()).rev() {
            outcome = self.cluster.group_mut(i).compact();
        }
        outcome
    }

    /// Node 0 (for assertions beyond the trait surface).
    pub fn server(&self) -> &PrecursorServer {
        self.cluster.node(0)
    }

    /// Mutable access to node 0.
    pub fn server_mut(&mut self) -> &mut PrecursorServer {
        self.cluster.node_mut(0)
    }

    // One tick of the migration schedule, run after every sweep.
    fn drive_migration(&mut self) {
        let Some((key, every)) = &self.migrate else {
            return;
        };
        self.polls_since_migration += 1;
        if self.cluster.migration_in_flight() {
            if self
                .polls_since_migration
                .is_multiple_of(MIGRATE_PUMP_SWEEPS)
            {
                self.cluster.pump_migration(MIGRATE_PUMP_KEYS);
            }
        } else if self.polls_since_migration >= *every {
            self.polls_since_migration = 0;
            let from = self.cluster.meta().lookup(key).0;
            let to = (from + 1) % self.cluster.node_count() as u16;
            self.cluster
                .start_migration(key, to)
                .expect("no migration in flight and `to` is a node");
        }
    }
}

impl TrustedKv for PrecursorBackend {
    fn name(&self) -> &'static str {
        match self.server().config().mode {
            crate::config::EncryptionMode::ClientSide => "Precursor",
            crate::config::EncryptionMode::ServerSide => "Precursor server-encryption",
        }
    }

    fn transport(&self) -> Transport {
        Transport::Rdma
    }

    fn connect(&mut self, seed: u64) -> Result<usize, StoreError> {
        let client = ClusterClient::connect(&mut self.cluster, seed)?;
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
        let op = match op {
            KvOp::Put => Opcode::Put,
            KvOp::Get => Opcode::Get,
            KvOp::Delete => Opcode::Delete,
        };
        let (_node, oid) = self.clients[client].submit(&mut self.cluster, op, key, value)?;
        Ok(oid)
    }

    fn poll(&mut self) -> usize {
        let swept = self.cluster.poll_all();
        if self.compact_every > 0 {
            self.polls_since_compact += 1;
            if self.polls_since_compact >= self.compact_every {
                self.polls_since_compact = 0;
                self.compact_now();
            }
        }
        self.drive_migration();
        swept
    }

    fn poll_replies(&mut self, client: usize) -> usize {
        self.clients[client].poll_all_replies()
    }

    fn take_completed_into(&mut self, client: usize, out: &mut Vec<KvCompleted>) {
        let session = &mut self.clients[client];
        let mut hints = Vec::new();
        out.extend(session.drain_completed().map(|(_node, c)| {
            hints.extend(c.redirect);
            KvCompleted {
                oid: c.oid,
                op: c.opcode.into(),
                status: c.status.into(),
                value: c.value,
            }
        }));
        // A sealed redirect refreshes the location cache here, so the
        // caller's re-submit routes to the hinted owner.
        for hint in hints {
            session.follow_hint(&self.cluster, hint);
        }
    }

    fn take_client_meter(&mut self, client: usize) -> Meter {
        self.clients[client].take_meter()
    }

    fn take_reports_into(&mut self, out: &mut Vec<KvOpReport>) {
        for node in 0..self.cluster.node_count() {
            out.extend(
                self.cluster
                    .node_mut(node)
                    .drain_reports()
                    .map(|r| KvOpReport {
                        client_id: r.client_id,
                        op: r.opcode.into(),
                        status: r.status.into(),
                        value_len: r.value_len,
                        node: node as u32,
                        shard: r.shard,
                        meter: r.meter,
                    }),
            );
        }
    }

    fn sgx_report(&self) -> SgxPerfReport {
        self.server().sgx_report()
    }

    fn store_len(&self) -> usize {
        self.cluster.nodes().map(PrecursorServer::len).sum()
    }

    fn warmup_batch(&self, frame_bytes: usize) -> usize {
        // Half the request ring: the in-flight window the credit protocol
        // sustains without a drain.
        (self.server().config().ring_bytes / (2 * frame_bytes)).max(1)
    }

    fn rings_swept(&self) -> u64 {
        self.cluster.nodes().map(PrecursorServer::rings_swept).sum()
    }

    fn metrics(&self) -> MetricsRegistry {
        let mut m = self.cluster.metrics();
        let (mut redirects, mut refreshes) = (0, 0);
        for c in &self.clients {
            m.merge(&c.metrics());
            redirects += c.stats().redirects;
            refreshes += c.stats().refreshes;
        }
        m.inc("cluster.redirects", redirects);
        m.inc("cluster.refreshes", refreshes);
        // Fold the RDMA fault/adversary layers in, so retries, reconnects
        // and detections are visible next to the op counters they explain.
        let nodes = self.cluster.nodes();
        let injected = nodes.clone().map(|n| n.injected_faults() as u64).sum();
        let mounted = nodes.clone().map(|n| n.mounted_attacks() as u64).sum();
        m.inc("rdma.faults.injected", injected);
        m.inc("rdma.adversary.mounted", mounted);
        m.gauge_set(
            "server.reports_dropped_total",
            nodes.map(PrecursorServer::reports_dropped).sum(),
        );
        m
    }
}
