//! Closed-loop discrete-event benchmark driver.
//!
//! Reproduces the paper's measurement methodology (§5.1–§5.2): N closed-loop
//! clients spread over six client machines (five with 10 Gb NICs, one with a
//! 40 Gb NIC running half the clients), a 12-thread server behind a 40 Gb
//! NIC, a warmup phase that loads the keyspace, then a measured run.
//!
//! Every operation is executed **functionally** — real encryption, real
//! rings, real hash tables, real enclave accounting — and the per-stage
//! costs its meters report are then replayed through contended resources:
//!
//! * the server CPU [`Pool`] (occupancy vs. critical path, DESIGN.md §4),
//! * per-machine client NIC [`Link`]s and the server NIC links,
//! * the RNIC QP cache ([`Transport::Rdma`] backends) or kernel-TCP latency
//!   + scheduling jitter ([`Transport::Tcp`] backends),
//!
//! yielding deterministic virtual-time throughput and latency
//! distributions. A cluster ([`SessionParams::nodes`]) has one set of
//! server-side resources per node: each op is replayed on the node that
//! executed it, and an op a stale location cache sent to the wrong node is
//! replayed as two visits — the sealed `NotMine` redirect at the stale
//! node, then the re-submitted op at the owner (DESIGN.md §18).
//!
//! The driver holds the system under test as one `Box<dyn TrustedKv>`: the
//! warmup, measurement, and per-op hot loop are written once against the
//! backend-neutral trait, and [`SystemKind`] matters only at construction.
//! Any future [`TrustedKv`] implementor gets the full workload surface for
//! free.
//!
//! A [`BenchSession`] keeps the warmed-up store alive across multiple
//! measurement points (like the paper, which loads 600 k records once and
//! then measures several read ratios), so parameter sweeps don't pay the
//! warmup repeatedly.

use precursor::backend::{
    KvCompleted, KvOp, KvOpReport, KvStatus, PrecursorBackend, Transport, TrustedKv,
};
use precursor::cluster::MAX_REDIRECTS;
use precursor::{Config, EncryptionMode};
use precursor_obs::MetricsRegistry;
use precursor_rdma::nic::RnicCache;
use precursor_shieldstore::backend::ShieldBackend;
use precursor_shieldstore::server::ShieldConfig;
use precursor_sim::engine::EventQueue;
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::rng::SimRng;
use precursor_sim::{CostModel, Histogram, Link, Nanos, Pool};

use crate::workload::{key_bytes, value_bytes_into, OpGenerator, OpKind, WorkloadSpec, KEY_LEN};

/// Which system a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Precursor with client-side payload encryption (the paper's design).
    Precursor,
    /// Precursor data path with the conventional server-encryption scheme.
    PrecursorServerEnc,
    /// The ShieldStore baseline over kernel TCP.
    ShieldStore,
}

impl SystemKind {
    /// Human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Precursor => "Precursor",
            SystemKind::PrecursorServerEnc => "Precursor server-encryption",
            SystemKind::ShieldStore => "ShieldStore",
        }
    }
}

/// Exact per-stage time sums over the recorded ops, folded straight from
/// the functional meters at the driver's per-op tap — the figure-8 source
/// of truth. Unlike the `avg_*` fields of [`RunResult`] (which attribute
/// the *replayed* timeline, so queueing and transport contention land in
/// "networking"), these are the meters' own charges: the per-stage sums
/// add up to [`total`](Self::total) exactly, with no residual.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    // The recorded ops' meters merged.
    meter: Meter,
    /// Operations folded into the sums (post-warmup ops only).
    pub ops: u64,
}

impl StageBreakdown {
    // Folds one op's combined meter (client pre + post + server).
    fn record(&mut self, op: &Meter) {
        self.meter.merge(op);
        self.ops += 1;
    }

    /// Total time charged to `stage` across the recorded ops.
    pub fn get(&self, stage: Stage) -> Nanos {
        self.meter.get(stage)
    }

    /// Sum over all stages; equals the sum of the per-op meter totals.
    pub fn total(&self) -> Nanos {
        self.meter.total()
    }

    /// Mean per-op time charged to `stage`.
    pub fn mean(&self, stage: Stage) -> Nanos {
        if self.ops == 0 {
            Nanos::ZERO
        } else {
            self.get(stage) / self.ops
        }
    }

    /// Mean per-op time summed over all stages.
    pub fn mean_total(&self) -> Nanos {
        if self.ops == 0 {
            Nanos::ZERO
        } else {
            self.total() / self.ops
        }
    }
}

/// Results of one measurement.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations per second of virtual time.
    pub throughput_ops: f64,
    /// Per-operation end-to-end latency.
    pub latency: Histogram,
    /// Mean per-op network time (links, propagation, kernel stack) — the
    /// "networking" bar of Figure 8.
    pub avg_network: Nanos,
    /// Mean per-op server processing on the critical path — the "server"
    /// bar of Figure 8.
    pub avg_server: Nanos,
    /// Mean per-op client CPU time.
    pub avg_client: Nanos,
    /// Server CPU pool utilization during the measured window.
    pub server_utilization: f64,
    /// Exact meter-derived per-stage breakdown of the recorded ops.
    pub stages: StageBreakdown,
    /// Enclave report at the end of the run (working set, faults).
    pub epc: precursor_sgx::SgxPerfReport,
    /// Operations measured.
    pub ops: u64,
    /// Virtual duration of the measured window.
    pub duration: Nanos,
    /// Clients that issued at least one operation during the window —
    /// exactly the number of lazily allocated per-client driver states
    /// (a wide mostly-idle fleet stays cheap; see `clients_connected`).
    pub clients_active: u64,
    /// Clients connected to the system under test when the window ran.
    pub clients_connected: u64,
}

// How often a migrating session starts moving the first warmup key's ring
// segment to the next node, in poll sweeps (one per visit).
const MIGRATE_EVERY_SWEEPS: usize = 5000;

// One node's contended server-side resources.
struct NodeResources {
    cpu: Pool,
    rx: Link,
    tx: Link,
    rnic: RnicCache,
}

// Per-visit functional costs extracted from the meters: one op is one
// visit, plus one per sealed redirect it had to follow.
struct OpCosts {
    // Cluster node that served the visit.
    node: usize,
    // The node answered with a sealed `NotMine` redirect: the op did not
    // execute and must be re-submitted.
    redirected: bool,
    client_pre: Nanos,
    client_post: Nanos,
    req_bytes: usize,
    reply_bytes: usize,
    server_critical: Nanos,
    server_occupancy: Nanos,
    // Trusted polling shard that executed the op (0 outside sharded mode).
    shard: usize,
    // Ring visits the op's poll sweep performed (the default scan-cost
    // basis; 0 for backends without a ring poller).
    rings_swept: u64,
    // Combined (client pre + post + server report) meter — feeds the
    // exact `StageBreakdown`.
    meter: Meter,
}

// Per-client driver state, boxed and allocated on the client's first
// scheduled op. Everything a closed-loop client needs between ops lives
// here; the RNG stream is owned by the generator and derived from the
// client id, so allocation order never perturbs determinism.
struct ClientState {
    gen: OpGenerator,
    version: u64,
}

/// Everything needed to build a [`BenchSession`], gathered into a builder
/// so the parameter list stays readable as knobs accrue.
#[derive(Debug, Clone)]
pub struct SessionParams {
    system: SystemKind,
    value_size: usize,
    key_count: u64,
    warmup_keys: u64,
    max_clients: usize,
    seed: u64,
    shards: Option<usize>,
    journaled: bool,
    compacted: bool,
    ring_bytes: Option<usize>,
    paper_poller: bool,
    nodes: usize,
    migrating: bool,
}

impl SessionParams {
    /// Starts a parameter set for `system` with one client, 32-byte values,
    /// an empty warmup, and seed 0.
    pub fn new(system: SystemKind) -> SessionParams {
        SessionParams {
            system,
            value_size: 32,
            key_count: 0,
            warmup_keys: 0,
            max_clients: 1,
            seed: 0,
            shards: None,
            journaled: false,
            compacted: false,
            ring_bytes: None,
            paper_poller: false,
            nodes: 1,
            migrating: false,
        }
    }

    /// Value size in bytes.
    pub fn value_size(mut self, bytes: usize) -> SessionParams {
        self.value_size = bytes;
        self
    }

    /// Keyspace size and how many records warmup loads.
    pub fn keys(mut self, key_count: u64, warmup_keys: u64) -> SessionParams {
        self.key_count = key_count;
        self.warmup_keys = warmup_keys;
        self
    }

    /// How many clients to connect (measurements may use fewer).
    pub fn max_clients(mut self, n: usize) -> SessionParams {
        self.max_clients = n;
        self
    }

    /// Seed for all stochastic choices.
    pub fn seed(mut self, seed: u64) -> SessionParams {
        self.seed = seed;
        self
    }

    /// Runs the Precursor server with `shards` trusted polling shards and
    /// replays each op's service time on the poller core owning its shard
    /// (one core per shard, §3.8). Precursor family only.
    pub fn shards(mut self, shards: usize) -> SessionParams {
        self.shards = Some(shards);
        self
    }

    /// Attaches the sealed durability journal (group commit of up to 32
    /// records, flushed every poll sweep) before any client connects, so
    /// the measured run pays the full journaling cost: sealing, group
    /// flushes, and reply gating. Precursor family only.
    pub fn journaled(mut self, journaled: bool) -> SessionParams {
        self.journaled = journaled;
        self
    }

    /// Compacts the journal behind the committed watermark every 64 poll
    /// sweeps during the run, so the measured cost includes periodic
    /// snapshot-seal + prefix-truncate cycles and journal growth stays
    /// bounded by the tail since the last cut. Requires
    /// [`journaled`](Self::journaled). Precursor family only.
    pub fn compacted(mut self, compacted: bool) -> SessionParams {
        self.compacted = compacted;
        self
    }

    /// Overrides the per-client request/reply ring size. The default
    /// (1 MiB each way) is sized for bulk loads. Capacity bounds what may be
    /// in flight, not what is resident: a ring larger than one page holds
    /// only the pages its in-flight records touch (a closed-loop client's
    /// rings hold one or two pages each), while a ring of at most one page
    /// is one contiguous buffer. Wide fleets shrink rings to a few frames
    /// — a closed-loop client keeps at most one op in flight. Precursor
    /// family only.
    pub fn ring_bytes(mut self, bytes: usize) -> SessionParams {
        self.ring_bytes = Some(bytes);
        self
    }

    /// Charges scan occupancy as the paper's poller incurs it — every
    /// sweep scans all `clients` rings (§5.2) — instead of the rings the
    /// doorbell-driven sweep actually visited. A cost basis only: the
    /// server runs the same sweep either way. The fixed occupancies in
    /// [`CostModel`] were fitted *including* a scan of
    /// `poll_scan_baseline` rings, so the paper-figure reproductions opt
    /// in.
    pub fn paper_poller(mut self, on: bool) -> SessionParams {
        self.paper_poller = on;
        self
    }

    /// Runs `nodes` servers behind one consistent-hash placement ring:
    /// clients route through location caches, each node has its own CPU
    /// pool and NIC in the replay, and warmup places every record on its
    /// owner. One node (the default) is a single server. Precursor family
    /// only.
    pub fn nodes(mut self, nodes: usize) -> SessionParams {
        self.nodes = nodes;
        self
    }

    /// Migrates the first warmup key's ring segment to the next node every
    /// 5000 sweeps of the run, streamed underneath the workload, so
    /// measured windows that long include a fence and the sealed redirects
    /// of every location cache it made stale. Precursor family only.
    pub fn migrating(mut self, migrating: bool) -> SessionParams {
        self.migrating = migrating;
        self
    }

    // Connects `max_clients` clients and loads the warmup records.
    fn connect_and_load<B: TrustedKv>(&self, mut sut: B) -> B {
        for i in 0..self.max_clients {
            sut.connect(self.seed ^ ((i as u64) << 8)).expect("connect");
        }
        if self.warmup_keys > 0 {
            bulk_load(&mut sut, self.value_size, self.warmup_keys);
        }
        sut
    }

    /// Builds the system, connects `max_clients` clients, and loads the
    /// warmup records.
    ///
    /// # Panics
    ///
    /// Panics if `max_clients == 0` or `nodes == 0`, or `shards` was set
    /// to zero or combined with a backend that has no trusted polling
    /// shards.
    pub fn build(self, cost: &CostModel) -> BenchSession {
        assert!(self.max_clients > 0, "need at least one client");
        // The keyspace size lives in the WorkloadSpec at measure time; it
        // is carried here only so call sites read as one parameter set.
        let _ = self.key_count;
        if let Some(shards) = self.shards {
            assert!(shards > 0, "need at least one shard");
            assert!(
                self.system != SystemKind::ShieldStore,
                "ShieldStore has no trusted polling shards"
            );
        }
        // The only per-system dispatch in the driver: constructing the
        // backend. Everything after runs through `dyn TrustedKv`.
        let sut: Box<dyn TrustedKv> = match self.system {
            SystemKind::Precursor | SystemKind::PrecursorServerEnc => {
                let mode = if self.system == SystemKind::Precursor {
                    EncryptionMode::ClientSide
                } else {
                    EncryptionMode::ServerSide
                };
                let base = Config::default();
                let config = Config {
                    mode,
                    max_clients: self.max_clients + 1,
                    pool_bytes: pool_size_for(self.value_size, self.warmup_keys),
                    shards: self.shards.unwrap_or(1),
                    ring_bytes: self.ring_bytes.unwrap_or(base.ring_bytes),
                    ..base
                };
                let mut backend = PrecursorBackend::with_nodes(self.nodes, config, cost);
                if self.journaled {
                    backend.enable_durability(precursor::GroupCommitPolicy::batched(32, 0));
                }
                if self.compacted {
                    assert!(self.journaled, "compaction requires the journal");
                    backend.enable_compaction(64);
                }
                let mut backend = self.connect_and_load(backend);
                // Armed after the bulk load, which does not follow
                // redirects.
                if self.migrating {
                    backend.enable_migration(&key_bytes(0), MIGRATE_EVERY_SWEEPS);
                }
                Box::new(backend)
            }
            SystemKind::ShieldStore => {
                assert!(!self.journaled, "ShieldStore has no durability journal");
                assert!(self.ring_bytes.is_none(), "ShieldStore has no client rings");
                assert!(
                    self.nodes == 1 && !self.migrating,
                    "ShieldStore is one server"
                );
                Box::new(self.connect_and_load(ShieldBackend::new(ShieldConfig::default(), cost)))
            }
        };
        BenchSession {
            system: self.system,
            sut,
            cost: cost.clone(),
            seed: self.seed,
            measurements: 0,
            shards: self.shards,
            paper_poller: self.paper_poller,
            nodes: self.nodes,
            value: Vec::new(),
            reports: Vec::new(),
            completed: Vec::new(),
        }
    }
}

// Inserts records `0..count` through client 0, draining whenever the
// backend's in-flight window fills. Each drain empties client 0's
// completions and the server's op reports into two buffers reused from
// batch to batch, so neither side holds more than one batch of them and
// nothing of the load outlives it.
fn bulk_load(sut: &mut dyn TrustedKv, size: usize, count: u64) {
    let frame = 160 + size + KEY_LEN;
    let batch = sut.warmup_batch(frame);
    let (mut completed, mut reports) = (Vec::new(), Vec::new());
    let mut drain = |sut: &mut dyn TrustedKv| {
        // The fairness budget caps records per client per sweep; a bulk
        // load must sweep until the ring drains.
        while sut.poll() > 0 {
            sut.poll_replies(0);
        }
        sut.poll_replies(0);
        completed.clear();
        sut.take_completed_into(0, &mut completed);
        reports.clear();
        sut.take_reports_into(&mut reports);
    };
    let mut value = Vec::new();
    let mut pending = 0;
    for id in 0..count {
        value_bytes_into(&mut value, id, 0, size);
        sut.submit(0, KvOp::Put, &key_bytes(id), &value)
            .expect("warmup put");
        pending += 1;
        if pending == batch {
            drain(sut);
            pending = 0;
        }
    }
    drain(sut);
    sut.take_client_meter(0);
}

/// A warmed-up system instance reusable across measurement points.
pub struct BenchSession {
    system: SystemKind,
    sut: Box<dyn TrustedKv>,
    cost: CostModel,
    seed: u64,
    measurements: u64,
    // `Some(s)`: the server runs `s` trusted polling shards and the replay
    // pins each op to its shard's dedicated poller core (fig6
    // shard-scaling mode). `None`: any of the testbed's 12 worker threads
    // serves any op — the replay of every unsharded session.
    shards: Option<usize>,
    // Scan occupancy is charged for the paper's scan-all poller (`clients`
    // rings per sweep) instead of the rings each op's sweep actually
    // visited (`TrustedKv::rings_swept`).
    paper_poller: bool,
    // Cluster nodes, each replayed on its own `NodeResources`.
    nodes: usize,
    // What one op is collected in, reused from op to op: the value a put
    // writes, the server's reports and the client's completions.
    value: Vec<u8>,
    reports: Vec<KvOpReport>,
    completed: Vec<KvCompleted>,
}

impl BenchSession {
    /// The system this session drives.
    pub fn system(&self) -> SystemKind {
        self.system
    }

    /// The enclave report of the underlying server.
    pub fn sgx_report(&self) -> precursor_sgx::SgxPerfReport {
        self.sut.sgx_report()
    }

    /// A snapshot of the backend's metrics registry (op counts, status
    /// counts, per-stage latency histograms — see [`TrustedKv::metrics`]).
    /// Warmup traffic is included: the registry is cumulative over the
    /// session's lifetime.
    pub fn metrics(&self) -> MetricsRegistry {
        self.sut.metrics()
    }

    /// Runs one measured window of `measure_ops` operations with `clients`
    /// closed-loop clients (must not exceed the session's `max_clients`).
    ///
    /// # Panics
    ///
    /// Panics if `clients` exceeds the connected clients or is zero.
    pub fn measure(
        &mut self,
        workload: &WorkloadSpec,
        clients: usize,
        measure_ops: u64,
    ) -> RunResult {
        assert!(
            clients > 0 && clients <= self.sut.clients(),
            "bad client count"
        );
        assert!(measure_ops > 0, "empty measurement");
        self.measurements += 1;
        let cost = self.cost.clone();
        let mut rng = SimRng::seed_from(self.seed ^ (self.measurements << 32));

        // --- resources ---
        // Every node is the paper's server machine. Sharded mode dedicates
        // one core per trusted polling shard; an unsharded session runs on
        // the paper testbed's 12-thread worker pool.
        let mut servers: Vec<NodeResources> = (0..self.nodes)
            .map(|_| NodeResources {
                cpu: match self.shards {
                    Some(s) => Pool::new("trusted-pollers", s),
                    None => Pool::new("server-threads", cost.server_threads),
                },
                rx: Link::new("server-nic-rx", cost.rdma_one_way, cost.server_nic_gbps),
                tx: Link::new("server-nic-tx", cost.rdma_one_way, cost.server_nic_gbps),
                rnic: RnicCache::new(cost.rnic_cache_qps),
            })
            .collect();
        // Six client machines; the sixth has a 40 Gb NIC and runs half the
        // clients (§5.1).
        let machine_links = |name| -> Vec<Link> {
            (0..6)
                .map(|m| {
                    let bw = if m == 5 { 40.0 } else { cost.client_nic_gbps };
                    Link::new(name, Nanos::ZERO, bw)
                })
                .collect()
        };
        let mut machine_tx = machine_links("client-machine-tx");
        let mut machine_rx = machine_links("client-machine-rx");
        let machine_of = |c: usize| -> usize {
            if c % 2 == 1 {
                5
            } else {
                (c / 2) % 5
            }
        };
        let is_tcp = self.sut.transport() == Transport::Tcp;
        // Enclave polling costs `poll_scan_per_client` per ring visited
        // (§5.2: "the necessary polling in the enclave ... might incur much
        // CPU overhead"). The rings charged per op are the ones its sweep
        // visited, or — on the paper-poller basis — every measured client's.
        // ShieldStore's socket loop is epoll-driven and not affected.
        // Saturating i64 arithmetic throughout: a million-client fleet must
        // degrade into clamped costs, never wrap.
        let per_ring_cycles = i64::try_from(cost.poll_scan_per_client).unwrap_or(i64::MAX);
        let baseline_rings = i64::try_from(cost.poll_scan_baseline).unwrap_or(i64::MAX);

        // Per-client driver state is allocated on a client's first
        // scheduled op, so a measurement that touches only part of a wide
        // fleet costs memory proportional to the *active* clients. Each
        // client's RNG stream is derived from (seed, measurement, id) —
        // not forked sequentially from the driver RNG — so streams do not
        // depend on activation order.
        let base_seed = self.seed ^ (self.measurements << 32);
        // The popularity constants are built once per window; each client
        // draws from a copy on its own stream.
        let generator = OpGenerator::new(workload.clone(), SimRng::seed_from(base_seed));
        let mut states: Vec<Option<Box<ClientState>>> = (0..clients).map(|_| None).collect();
        let mut activated = 0u64;

        let mut queue: EventQueue<usize> = EventQueue::new();
        for c in 0..clients {
            queue.push(Nanos(c as u64 * 120), c);
        }

        // One distribution for the whole window — per-client histograms
        // would make a 100k-client sweep's memory O(connected).
        let mut latency = Histogram::new();
        let mut stages = StageBreakdown::default();
        let mut net_sum = Nanos::ZERO;
        let mut server_sum = Nanos::ZERO;
        let mut client_sum = Nanos::ZERO;
        let mut completed = 0u64;
        let mut last_completion = Nanos::ZERO;
        let skip = measure_ops / 10; // warm the queues before recording

        while completed < measure_ops {
            let (t0, c) = queue.pop().expect("closed loop never drains");
            let state = states[c].get_or_insert_with(|| {
                activated += 1;
                let stream = SimRng::seed_from(
                    base_seed.wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                Box::new(ClientState {
                    gen: generator.with_rng(stream),
                    version: 1,
                })
            });
            let (kind, key_id) = state.gen.next_op();
            state.version += 1;
            let version = state.version;
            // --- compose the timeline through the contended resources ---
            // One visit per node the op reached: a sealed redirect costs a
            // full round trip at the stale node before the re-submitted op
            // starts at the owner.
            let m = machine_of(c);
            let mut t_done = t0;
            let mut client_cpu = Nanos::ZERO;
            let mut server_critical = Nanos::ZERO;
            let mut op_meter = Meter::new();
            for visit in 1.. {
                let costs = self.execute_op(workload, c, kind, key_id, version);
                let server = &mut servers[costs.node];
                let t_sent = t_done + costs.client_pre;
                // request: client machine NIC → server NIC
                let t_at_server_nic = machine_tx[m].transfer(t_sent, costs.req_bytes);
                let mut t_arrive = server.rx.transfer(t_at_server_nic, costs.req_bytes);
                if is_tcp {
                    // kernel + interrupt latency with scheduling jitter (§5.3)
                    let jitter = rng.lognormal(0.0, cost.tcp_jitter_sigma);
                    t_arrive += Nanos((cost.tcp_msg_latency.0 as f64 * jitter) as u64);
                } else if !server.rnic.access(c as u64) {
                    t_arrive += cost.rnic_cache_miss;
                }
                // poller pickup delay (OS/poll-loop noise)
                t_arrive += Nanos((250.0 * rng.lognormal(0.0, 0.8)) as u64);

                let scan_rings = if self.paper_poller {
                    clients as u64
                } else {
                    costs.rings_swept
                };
                let (t_depart, _busy_until) = match self.shards {
                    Some(s) => {
                        // Sharded mode: the `s` poller cores sweep their
                        // owned rings in parallel, so per-op scan occupancy
                        // shrinks with the shard count (the fig6 scaling
                        // effect). Charged in full (no calibration-baseline
                        // subtraction: the dedicated poller has no other
                        // work to hide the sweep behind).
                        let scan = cost.server_time(precursor_sim::time::Cycles(
                            cost.poll_scan_per_client
                                .saturating_mul(scan_rings.div_ceil(s as u64)),
                        ));
                        let occupancy = costs.server_occupancy + scan;
                        // The op is served by the poller core owning its
                        // shard — a hot shard queues on its own core while
                        // the others idle, which is exactly the skew fig6
                        // measures.
                        server.cpu.acquire_partial_on(
                            costs.shard % s,
                            t_arrive,
                            costs.server_critical,
                            occupancy,
                        )
                    }
                    None => {
                        // The fixed occupancies already contain a scan of
                        // the calibration baseline's rings: charge the
                        // difference.
                        let adjust_cycles = if is_tcp {
                            0
                        } else {
                            let extra = i64::try_from(scan_rings)
                                .unwrap_or(i64::MAX)
                                .saturating_sub(baseline_rings);
                            per_ring_cycles.saturating_mul(extra)
                        };
                        let adjust = cost
                            .server_time(precursor_sim::time::Cycles(adjust_cycles.unsigned_abs()));
                        let occupancy = if adjust_cycles >= 0 {
                            costs.server_occupancy + adjust
                        } else {
                            costs
                                .server_occupancy
                                .saturating_sub(adjust)
                                .max(costs.server_critical)
                        };
                        server
                            .cpu
                            .acquire_partial(t_arrive, costs.server_critical, occupancy)
                    }
                };

                // reply: server NIC → client machine NIC
                let t_reply_at_machine = server.tx.transfer(t_depart, costs.reply_bytes);
                let mut t_back = machine_rx[m].transfer(t_reply_at_machine, costs.reply_bytes);
                if is_tcp {
                    let jitter = rng.lognormal(0.0, cost.tcp_jitter_sigma);
                    t_back += Nanos((cost.tcp_msg_latency.0 as f64 * jitter) as u64);
                } else if !server.rnic.access(c as u64) {
                    t_back += cost.rnic_cache_miss;
                }
                t_done = t_back + costs.client_post;

                client_cpu += costs.client_pre + costs.client_post;
                server_critical += costs.server_critical;
                op_meter.merge(&costs.meter);
                if !costs.redirected {
                    break;
                }
                assert!(visit < MAX_REDIRECTS, "redirect chain exceeds its bound");
            }

            let op_latency = t_done - t0;
            completed += 1;
            if completed > skip {
                latency.record(op_latency);
                // Figure-8 style attribution: "server" is the request's
                // processing time proper (what the paper instruments);
                // queueing and transport fall under "networking".
                let server_part = server_critical.min(op_latency);
                let net = op_latency
                    .saturating_sub(client_cpu)
                    .saturating_sub(server_part);
                net_sum += net;
                server_sum += server_part;
                client_sum += client_cpu;
                stages.record(&op_meter);
            }
            last_completion = last_completion.max(t_done);
            // Closed loop with per-client think/issue time (Fig. 6 rise).
            queue.push(t_done + cost.client_think, c);
        }

        let measured = measure_ops - skip;
        let duration = last_completion;
        RunResult {
            throughput_ops: precursor_sim::stats::throughput_ops_per_sec(measure_ops, duration),
            latency,
            avg_network: net_sum / measured,
            avg_server: server_sum / measured,
            avg_client: client_sum / measured,
            // Mean over the nodes.
            server_utilization: servers
                .iter()
                .map(|n| n.cpu.utilization(duration))
                .sum::<f64>()
                / servers.len() as f64,
            stages,
            epc: self.sut.sgx_report(),
            ops: measure_ops,
            duration,
            clients_active: activated,
            clients_connected: self.sut.clients() as u64,
        }
    }

    // The hot loop: one functional visit through the backend-neutral trait
    // — no per-system dispatch. Taking the completion of a redirected visit
    // refreshes the client's routing, so calling this again with the same
    // arguments reaches the owner.
    fn execute_op(
        &mut self,
        workload: &WorkloadSpec,
        c: usize,
        kind: OpKind,
        key_id: u64,
        version: u64,
    ) -> OpCosts {
        let key = key_bytes(key_id);
        let size = workload.value_size;
        let sut = self.sut.as_mut();
        sut.take_client_meter(c);
        match kind {
            OpKind::Read => sut.submit(c, KvOp::Get, &key, &[]),
            OpKind::Update => {
                value_bytes_into(&mut self.value, key_id, version, size);
                sut.submit(c, KvOp::Put, &key, &self.value)
            }
        }
        .expect("op send");
        let pre = sut.take_client_meter(c);
        let rings_before = sut.rings_swept();
        sut.poll();
        let rings_swept = sut.rings_swept().saturating_sub(rings_before);
        self.reports.clear();
        sut.take_reports_into(&mut self.reports);
        let report = self.reports.pop().expect("one op processed");
        debug_assert_ne!(report.status, KvStatus::Replay);
        sut.poll_replies(c);
        self.completed.clear();
        sut.take_completed_into(c, &mut self.completed);
        let post = sut.take_client_meter(c);

        let server_critical =
            report.meter.get(Stage::ServerCritical) + report.meter.get(Stage::Enclave);
        let mut costs = OpCosts {
            node: report.node as usize,
            redirected: report.status == KvStatus::NotMine,
            client_pre: pre.get(Stage::ClientCpu),
            client_post: post.get(Stage::ClientCpu),
            req_bytes: pre.counters().tx_bytes as usize,
            reply_bytes: report.meter.counters().tx_bytes as usize,
            server_critical,
            server_occupancy: server_critical + report.meter.get(Stage::ServerOverhead),
            shard: report.shard as usize,
            rings_swept,
            meter: report.meter,
        };
        costs.meter.merge(&pre);
        costs.meter.merge(&post);
        costs
    }
}

fn pool_size_for(value_size: usize, warmup_keys: u64) -> usize {
    let per_entry = (value_size + 64).next_power_of_two();
    ((warmup_keys as usize + 1024) * per_entry).max(16 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    // A warmed 500-key store of 32 B values on the paper-testbed basis.
    fn paper(system: SystemKind, max_clients: usize, seed: u64) -> BenchSession {
        SessionParams::new(system)
            .value_size(32)
            .keys(500, 500)
            .max_clients(max_clients)
            .seed(seed)
            .paper_poller(true)
            .build(&CostModel::default())
    }

    fn quick(system: SystemKind, read_ratio: f64) -> RunResult {
        let spec = WorkloadSpec::with_read_ratio(read_ratio, 32, 500);
        paper(system, 4, 42).measure(&spec, 4, 1_500)
    }

    #[test]
    fn precursor_run_produces_sane_numbers() {
        let r = quick(SystemKind::Precursor, 1.0);
        assert!(r.throughput_ops > 10_000.0, "tput {}", r.throughput_ops);
        assert!(r.latency.count() > 0);
        assert!(r.latency.percentile(50.0) > Nanos(1_000));
        assert!(r.avg_server > Nanos::ZERO);
        assert!(r.avg_network > Nanos::ZERO);
    }

    #[test]
    fn shieldstore_is_slower_than_precursor() {
        let p = quick(SystemKind::Precursor, 1.0);
        let s = quick(SystemKind::ShieldStore, 1.0);
        assert!(
            p.throughput_ops > 2.0 * s.throughput_ops,
            "precursor {} vs shieldstore {}",
            p.throughput_ops,
            s.throughput_ops
        );
        assert!(s.latency.percentile(50.0) > p.latency.percentile(50.0));
    }

    #[test]
    fn server_encryption_is_slower_than_client_encryption() {
        let client_enc = quick(SystemKind::Precursor, 0.5);
        let server_enc = quick(SystemKind::PrecursorServerEnc, 0.5);
        assert!(
            client_enc.throughput_ops > server_enc.throughput_ops,
            "client {} vs server {}",
            client_enc.throughput_ops,
            server_enc.throughput_ops
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(SystemKind::Precursor, 0.95);
        let b = quick(SystemKind::Precursor, 0.95);
        assert_eq!(a.throughput_ops, b.throughput_ops);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
    }

    #[test]
    fn different_seeds_change_details_not_magnitudes() {
        let spec = WorkloadSpec::workload_c(32, 500);
        let run = |seed| paper(SystemKind::Precursor, 4, seed).measure(&spec, 4, 1_500);
        let (a, b) = (run(1), run(2));
        let ratio = a.throughput_ops / b.throughput_ops;
        assert!(ratio > 0.8 && ratio < 1.25, "ratio {ratio}");
    }

    #[test]
    fn update_heavy_is_slower_than_read_only() {
        let ro = quick(SystemKind::Precursor, 1.0);
        let um = quick(SystemKind::Precursor, 0.05);
        assert!(ro.throughput_ops > um.throughput_ops);
    }

    #[test]
    fn session_reuse_matches_methodology() {
        // One warmup, several measurement points — like the paper's runs.
        let mut session = paper(SystemKind::Precursor, 4, 7);
        let c = session.measure(&WorkloadSpec::workload_c(32, 500), 4, 1_000);
        let a = session.measure(&WorkloadSpec::workload_a(32, 500), 4, 1_000);
        assert!(c.throughput_ops > a.throughput_ops);
        // store grew only by the updates, not re-warmed
        assert!(session.sgx_report().working_set_pages < 200);
    }

    #[test]
    fn shard_scaling_lifts_saturated_throughput() {
        // 16 closed-loop clients saturate one poller core; four shards
        // spread the same offered load over four cores (fig6).
        let cost = CostModel::default();
        let spec = WorkloadSpec::workload_c(32, 2_000);
        let params = SessionParams::new(SystemKind::Precursor)
            .value_size(32)
            .keys(2_000, 2_000)
            .max_clients(16)
            .seed(11);
        let mut one = params.clone().shards(1).build(&cost);
        let mut four = params.shards(4).build(&cost);
        let r1 = one.measure(&spec, 16, 4_000);
        let r4 = four.measure(&spec, 16, 4_000);
        assert!(
            r4.throughput_ops > 1.5 * r1.throughput_ops,
            "1 shard {} vs 4 shards {}",
            r1.throughput_ops,
            r4.throughput_ops
        );
    }

    #[test]
    fn stage_breakdown_is_conserved_and_populated() {
        let r = quick(SystemKind::Precursor, 0.5);
        assert_eq!(r.stages.ops, r.latency.count());
        // Exact conservation: per-stage sums add up to the total with no
        // residual, because `Meter::total()` is the sum of its stages.
        let sum: Nanos = Stage::ALL.iter().map(|&s| r.stages.get(s)).sum();
        assert_eq!(sum, r.stages.total());
        assert!(r.stages.get(Stage::ClientCpu) > Nanos::ZERO);
        assert!(r.stages.get(Stage::ServerCritical) > Nanos::ZERO);
        assert!(r.stages.get(Stage::Enclave) > Nanos::ZERO);
        assert!(r.stages.mean_total() > Nanos::ZERO);
        // Transport legs are replayed on the contended links, not charged
        // to the functional meters: the Network stage stays zero here.
        assert_eq!(r.stages.get(Stage::Network), Nanos::ZERO);
    }

    #[test]
    fn server_overhead_is_fixed_constants_times_counted_ops() {
        use precursor_sim::{Event, Occupancy};
        let cost = CostModel::default();
        let spec = WorkloadSpec::workload_c(32, 500);
        let mut session = SessionParams::new(SystemKind::Precursor)
            .value_size(32)
            .keys(500, 500)
            .max_clients(4)
            .seed(9)
            .build(&cost);
        let r = session.measure(&spec, 4, 1_000);
        let get = Occupancy::Precursor {
            put: false,
            server_enc: false,
        };
        assert_eq!(
            r.stages.mean(Stage::ServerOverhead),
            cost.server_time(cost.price(Event::FixedOverhead(get)))
        );
    }

    #[test]
    fn session_metrics_expose_op_counts() {
        let mut session = paper(SystemKind::Precursor, 2, 7);
        let spec = WorkloadSpec::workload_c(32, 500);
        let r = session.measure(&spec, 2, 400);
        let m = session.metrics();
        let gets = m.counter("ops.get");
        let puts = m.counter("ops.put");
        // Warmup puts plus the measured gets are all accounted for.
        assert!(puts >= 500, "puts {puts}");
        assert!(gets >= r.ops, "gets {gets} ops {}", r.ops);
    }

    #[test]
    fn lazy_state_allocates_only_active_clients() {
        // 64 connected clients, but the window ends after 16 ops: the
        // first 16 pops are 16 distinct clients (initial schedule spacing
        // is far below latency + think time), so exactly 16 driver states
        // are ever allocated.
        let mut session = paper(SystemKind::Precursor, 64, 5);
        let r = session.measure(&WorkloadSpec::workload_c(32, 500), 64, 16);
        assert_eq!(r.clients_connected, 64);
        assert_eq!(r.clients_active, 16, "active {}", r.clients_active);
    }

    #[test]
    fn lazy_streams_do_not_depend_on_fleet_size() {
        // The per-client RNG streams are derived from (seed, measurement,
        // client id), so the same clients issue the same ops regardless of
        // how many other clients exist in the fleet. Magnitudes must agree
        // closely; exact timings differ through resource contention.
        let spec = WorkloadSpec::workload_c(32, 500);
        let mut small = paper(SystemKind::Precursor, 4, 5);
        let mut big = paper(SystemKind::Precursor, 32, 5);
        let rs = small.measure(&spec, 4, 800);
        let rb = big.measure(&spec, 4, 800);
        let ratio = rs.throughput_ops / rb.throughput_ops;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn paper_poller_basis_differs_only_in_scan_occupancy() {
        // One saturated poller core, 16 clients: the paper basis charges a
        // 16-ring scan per op, the default the one ring the sweep visited.
        let cost = CostModel::default();
        let spec = WorkloadSpec::workload_c(32, 500);
        let params = SessionParams::new(SystemKind::Precursor)
            .value_size(32)
            .keys(500, 500)
            .max_clients(16)
            .shards(1)
            .seed(13);
        let run = |p: SessionParams| p.build(&cost).measure(&spec, 16, 2_000);
        let default = run(params.clone());
        let paper = run(params.paper_poller(true));
        // Same functional work: every meter charge, report and enclave
        // page is identical — the server cannot tell the bases apart.
        assert_eq!(default.stages, paper.stages);
        assert_eq!(default.latency.count(), paper.latency.count());
        assert_eq!(default.epc.working_set_pages, paper.epc.working_set_pages);
        // Only the replayed occupancy differs, and only downwards.
        assert!(
            default.throughput_ops > paper.throughput_ops,
            "default {} vs paper {}",
            default.throughput_ops,
            paper.throughput_ops
        );
    }

    #[test]
    fn small_rings_sustain_the_closed_loop() {
        // The 100k-client sweeps shrink rings to ~1 KiB (a closed-loop
        // client keeps one op in flight); the protocol must still run.
        let cost = CostModel::default();
        let spec = WorkloadSpec::workload_c(32, 200);
        let mut session = SessionParams::new(SystemKind::Precursor)
            .value_size(32)
            .keys(200, 200)
            .max_clients(4)
            .ring_bytes(1 << 10)
            .seed(3)
            .build(&cost);
        let r = session.measure(&spec, 4, 600);
        assert!(r.throughput_ops > 0.0);
        assert!(r.latency.count() > 0);
    }

    // The cluster tests' session: 8 clients over 400 keys, workload B.
    fn cluster_params(nodes: usize, migrating: bool) -> SessionParams {
        SessionParams::new(SystemKind::Precursor)
            .value_size(32)
            .keys(400, 400)
            .max_clients(8)
            .seed(0xF19)
            .nodes(nodes)
            .migrating(migrating)
    }

    // One window of `ops` operations plus the registry counters it moved.
    fn cluster_window(
        nodes: usize,
        migrating: bool,
        ops: u64,
    ) -> (RunResult, impl Fn(&str) -> u64) {
        let mut session = cluster_params(nodes, migrating).build(&CostModel::default());
        let before = session.metrics();
        let r = session.measure(&WorkloadSpec::workload_b(32, 400), 8, ops);
        let after = session.metrics();
        (r, move |name: &str| {
            after.counter(name) - before.counter(name)
        })
    }

    #[test]
    fn one_node_is_the_single_server_even_with_migration_armed() {
        let (plain, _) = cluster_window(1, false, 600);
        let (r, window) = cluster_window(1, true, 600);
        assert!(r.throughput_ops > 10_000.0, "tput {}", r.throughput_ops);
        assert_eq!(r.throughput_ops, plain.throughput_ops);
        assert_eq!(r.stages, plain.stages);
        assert_eq!(r.latency.percentile(99.0), plain.latency.percentile(99.0));
        assert_eq!(window("cluster.redirects"), 0, "one node never redirects");
        assert_eq!(window("cluster.migrations_fenced"), 0);
    }

    #[test]
    fn a_redirected_op_is_two_visits_and_completes_once() {
        // 6000 ops cross the 5000-sweep schedule once: the segment streams
        // (8 keys / 16 sweeps) and fences well inside the window.
        const OPS: u64 = 6_000;
        let (r, window) = cluster_window(2, true, OPS);
        assert_eq!(window("cluster.migrations_fenced"), 1);
        assert!(window("cluster.keys_moved") > 0);
        let redirects = window("cluster.redirects");
        assert!(redirects > 0, "stale caches must redirect after a fence");
        assert!(window("cluster.refreshes") > 0);
        assert!(
            (redirects as f64) < 0.05 * OPS as f64,
            "{redirects} redirects"
        );
        // Each redirect is one extra server visit that executed nothing;
        // every op still completed at its owner exactly once.
        assert_eq!(window("status.not_mine"), redirects);
        assert_eq!(window("ops.get") + window("ops.put"), OPS + redirects);
        assert_eq!(window("status.ok"), OPS, "warmed keys: every op is Ok");
        // Both visits' charges are the op's: the breakdown still conserves.
        assert_eq!(r.stages.ops, r.latency.count());
        let sum: Nanos = Stage::ALL.iter().map(|&s| r.stages.get(s)).sum();
        assert_eq!(sum, r.stages.total());
        assert!(r.latency.percentile(50.0) < r.latency.percentile(99.0));
    }

    #[test]
    fn cluster_windows_are_deterministic() {
        let (a, wa) = cluster_window(2, true, 6_000);
        let (b, wb) = cluster_window(2, true, 6_000);
        assert_eq!(a.throughput_ops, b.throughput_ops);
        assert_eq!(a.stages, b.stages);
        assert_eq!(a.latency.percentile(99.0), b.latency.percentile(99.0));
        assert_eq!(wa("cluster.redirects"), wb("cluster.redirects"));
    }

    #[test]
    fn nodes_spread_the_load() {
        // 16 clients saturate one node's single poller core; four nodes
        // serve the same offered load on four cores.
        let spec = WorkloadSpec::workload_b(32, 400);
        let run = |nodes: usize| {
            cluster_params(nodes, false)
                .max_clients(16)
                .shards(1)
                .build(&CostModel::default())
                .measure(&spec, 16, 3_000)
        };
        let (one, four) = (run(1), run(4));
        let speedup = four.throughput_ops / one.throughput_ops;
        assert!(speedup > 1.5, "4-node speedup {speedup:.2}");
        assert!(four.server_utilization < one.server_utilization);
    }

    // A backend that notes, for client 0's completions and for the
    // server's reports, the most ops submitted between two takes: how many
    // of them the backend held at once.
    struct Watched<B> {
        inner: B,
        untaken: [u64; 2],
        most: [u64; 2],
    }

    impl<B: TrustedKv> TrustedKv for Watched<B> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn transport(&self) -> Transport {
            self.inner.transport()
        }
        fn connect(&mut self, seed: u64) -> Result<usize, precursor::StoreError> {
            self.inner.connect(seed)
        }
        fn clients(&self) -> usize {
            self.inner.clients()
        }
        fn submit(
            &mut self,
            client: usize,
            op: KvOp,
            key: &[u8],
            value: &[u8],
        ) -> Result<u64, precursor::StoreError> {
            for (untaken, most) in self.untaken.iter_mut().zip(&mut self.most) {
                *untaken += 1;
                *most = (*most).max(*untaken);
            }
            self.inner.submit(client, op, key, value)
        }
        fn poll(&mut self) -> usize {
            self.inner.poll()
        }
        fn poll_replies(&mut self, client: usize) -> usize {
            self.inner.poll_replies(client)
        }
        fn take_completed_into(&mut self, client: usize, out: &mut Vec<KvCompleted>) {
            self.untaken[0] = 0;
            self.inner.take_completed_into(client, out)
        }
        fn take_client_meter(&mut self, client: usize) -> Meter {
            self.inner.take_client_meter(client)
        }
        fn take_reports_into(&mut self, out: &mut Vec<KvOpReport>) {
            self.untaken[1] = 0;
            self.inner.take_reports_into(out)
        }
        fn sgx_report(&self) -> precursor_sgx::SgxPerfReport {
            self.inner.sgx_report()
        }
        fn store_len(&self) -> usize {
            self.inner.store_len()
        }
        fn warmup_batch(&self, frame_bytes: usize) -> usize {
            self.inner.warmup_batch(frame_bytes)
        }
    }

    #[test]
    fn the_bulk_load_keeps_no_completions_or_reports_past_a_batch() {
        let cost = CostModel::default();
        let mut sut = Watched {
            inner: PrecursorBackend::new(Config::default(), &cost),
            untaken: [0; 2],
            most: [0; 2],
        };
        sut.connect(1).expect("connect");
        let batch = sut.warmup_batch(160 + 32 + KEY_LEN) as u64;
        let keys = 10 * batch + 3;
        bulk_load(&mut sut, 32, keys);
        assert_eq!(sut.store_len() as u64, keys);
        assert_eq!(
            sut.most, [batch; 2],
            "ops held at once: completions, reports"
        );
        assert_eq!(sut.untaken, [0; 2]);
        // And a built session starts with nothing of its load left over.
        for system in [
            SystemKind::Precursor,
            SystemKind::PrecursorServerEnc,
            SystemKind::ShieldStore,
        ] {
            let mut session = SessionParams::new(system)
                .value_size(32)
                .keys(keys, keys)
                .max_clients(2)
                .build(&cost);
            assert!(session.sut.take_completed(0).is_empty(), "{system:?}");
            assert!(session.sut.take_reports().is_empty(), "{system:?}");
        }
    }
}
