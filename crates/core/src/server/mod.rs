//! The Precursor server: untrusted plumbing + trusted request processing.
//!
//! The server side is "subdivided into two parts, the trusted and the
//! untrusted environment" (§3.5). Here:
//!
//! * **Untrusted**: per-client request rings (written remotely by one-sided
//!   RDMA WRITE), per-client reply writing, the pre-allocated payload pool,
//!   and the credit write-backs.
//! * **Trusted** (accounted through the [`Enclave`] model): the Robin Hood
//!   hash table of `(key → K_operation, pointer)` entries, the per-client
//!   expected-`oid` array, control-segment decryption and reply sealing —
//!   Algorithm 2 of the paper.
//!
//! Each processed request produces an [`OpReport`] whose [`Meter`] carries
//! the virtual cost of every step; the YCSB driver replays those charges
//! through contended resources.
//!
//! The request path is decomposed into explicit pipeline stages, one
//! private module per stage (DESIGN.md "module map & pipeline stages"):
//!
//! * `session` — add/reconnect/revoke, quotas, attack accounting
//!   (owns `SessionStage` and the at-most-once `Window`);
//! * `ingress` — ring polling plumbing, credit and per-record reply
//!   WRITEs (owns `Ingress`);
//! * `pipeline` — the one three-phase sweep gluing the stages together
//!   (`shards = 1` is its N = 1 instance; shard routing + handoff);
//! * `exec` — per-opcode enclave execution against the Robin Hood
//!   shards (owns `StoreExec`);
//! * `seal` — reply_seq / MAC-chain / epoch sealing in
//!   per-client pop order;
//! * `durability` — the sealed journal, group commit and the reply gate,
//!   recovery and catch-up;
//! * `compaction` — snapshot cuts and the two-phase journal compaction.
//!
//! Stages communicate through narrow structs (`Validated`, `ReplyPlan`,
//! `PendingAction`, `StoreEvidence`, `ExecCtx`) rather than through one
//! shared mega-`&mut self` surface; `PrecursorServer` itself is a thin
//! facade that owns the stage states and re-exports the public API.

mod compaction;
mod durability;
mod exec;
mod ingress;
mod pipeline;
mod seal;
mod session;

pub use compaction::CompactOutcome;
pub use durability::RecoveryReport;

use std::sync::{Arc, Mutex};

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::{Key128, Key256};
use precursor_obs::{MetricsRegistry, Tracer};
use precursor_rdma::host::Host;
use precursor_rdma::mr::{Memory, RemoteKey};
use precursor_rdma::qp::QueuePair;
use precursor_sgx::attest::AttestationService;
use precursor_sgx::enclave::{Enclave, RegionId};
use precursor_sim::meter::Meter;
use precursor_sim::rng::SimRng;
use precursor_sim::time::Nanos;
use precursor_sim::CostModel;
use precursor_storage::key::InlineKey;
use precursor_storage::pool::SlabPool;
use precursor_storage::ring::RingStore;
use precursor_storage::robinhood::{RobinHoodMap, ShardedRobinHoodMap};

use crate::config::{Config, EncryptionMode};
use crate::snapshot::SnapshotBlob;
use crate::wire::{Opcode, Status};

use exec::StoreExec;
use ingress::Ingress;
use session::SessionStage;
pub(crate) use session::Window;

/// Bytes of one enclave hash-table slot as this process lays it out, and
/// as the EPC model charges it: the key's hash, an [`InlineKey`] (a key of
/// at most 22 B sits inside it, so a YCSB key costs no heap chunk beside
/// the slot) and the entry's 56 B of metadata (`K_op`, the nonce its value
/// was sealed under, owner, length and the value's pool offset) — 88 B,
/// which yields Table 1's 2 838 pages at 100 k keys (the paper's 2 981).
pub const HOST_SLOT_BYTES: usize = RobinHoodMap::<InlineKey, exec::EntryMeta>::SLOT_BYTES;

/// Per-operation outcome + cost accounting, consumed by the benchmark
/// driver.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// Client that issued the operation.
    pub client_id: u32,
    /// Operation kind.
    pub opcode: Opcode,
    /// Outcome.
    pub status: Status,
    /// Payload bytes involved (request payload for puts, reply payload for
    /// gets).
    pub value_len: usize,
    /// Trusted shard that executed the operation — for replies produced
    /// without execution (errors, replays, retransmits), the popping
    /// worker's shard. Always `0` with `shards = 1`.
    pub shard: u32,
    /// Cost charges accumulated while processing this request server-side.
    pub meter: Meter,
}

/// What the server hands a connecting client after attestation (§3.6): the
/// session key, ring locations/rkeys, and the client's end of the QP.
#[derive(Debug)]
pub struct ClientBundle {
    /// Assigned client id.
    pub client_id: u32,
    /// The shared session key established during attestation.
    pub session_key: Key128,
    /// Client end of the reliable connection.
    pub qp: QueuePair,
    /// rkey of the server-side request ring (client WRITEs requests here).
    pub request_ring_rkey: RemoteKey,
    /// Client-local reply ring memory (server WRITEs replies here).
    pub reply_ring: Memory<RingStore>,
    /// Client-local credit word (server WRITEs its consumed counter here).
    pub credit_word: Memory,
    /// rkey of the server-side reply-credit word (client WRITEs its reply
    /// consumption counter here).
    pub reply_credit_rkey: RemoteKey,
    /// Ring capacity in bytes (both rings).
    pub ring_bytes: usize,
    /// Payload encryption mode the server runs in.
    pub mode: EncryptionMode,
    /// The enclave's expected oid for this session. `1` for a fresh
    /// session; on reconnect it lets the client resynchronise its oid
    /// counter with the enclave window (an operation abandoned after
    /// [`StoreError::Timeout`](crate::StoreError::Timeout) may or may not
    /// have executed, leaving the counters one apart otherwise).
    pub expected_oid: u64,
    /// Connection epoch of this session: `1` for a fresh session, bumped by
    /// every [`PrecursorServer::reconnect_client`]. The reply MAC chain is
    /// keyed per-epoch, and every reply control echoes the epoch, so a
    /// stale reply from an earlier connection can never verify.
    pub epoch: u32,
}

/// The Precursor key-value store server.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug)]
pub struct PrecursorServer {
    config: Config,
    // One model for the server and every client it connects.
    cost: Arc<CostModel>,
    rng: SimRng,

    // trusted execution environment shared by every stage
    enclave: Enclave,

    // pipeline stage states (one struct per stage module)
    sessions: SessionStage,
    store: StoreExec,
    ingress: Ingress,

    // durability stage (sealed journal + group-commit reply gate); None
    // until a journal is attached
    durability: Option<durability::Durability>,
    // The last committed snapshot, `(version, blob as sealed)`: where the
    // next cut carries its base and deltas from. It sits in host memory
    // like any sealed blob and is trusted no further — every cut re-opens
    // its manifest, and a fold every part it reads, before use. None until
    // the first snapshot.
    last_snapshot: Option<(u64, SnapshotBlob)>,
    // staged-recovery catch-up queue: Some while a promoted replica still
    // has journal records to apply in the background (reads served from
    // the applied prefix, mutations answered Busy); None otherwise
    catchup: Option<durability::CatchupState>,

    // cluster routing view: this node's id plus the placement ring it
    // believes authoritative; None for standalone servers, in which case
    // the NotMine gate never fires and the pipeline is byte-identical to
    // the pre-cluster behaviour
    routing: Option<crate::cluster::NodeRouting>,

    // the untrusted host's injected moves, shared with every QP this
    // server connects (chaos and byzantine harnesses); None = an honest
    // host
    host: Option<Arc<Mutex<Host>>>,

    // observability: the per-stage metric taps feed this registry on
    // every finished op; the tracer is a no-op unless enabled. Neither
    // touches the RNG or any meter, so seeded runs digest identically
    // with or without them.
    obs: MetricsRegistry,
    tracer: Tracer,
}

impl PrecursorServer {
    /// Creates a server with the given configuration and cost model. The
    /// enclave is initialized (static data + the initial subset of the hash
    /// table are touched — the paper's 52-page baseline working set, §5.4).
    ///
    /// # Panics
    ///
    /// Panics if `config.poll_budget_per_client` is 0.
    pub fn new(config: Config, cost: &CostModel) -> PrecursorServer {
        assert!(
            config.poll_budget_per_client > 0,
            "poll_budget_per_client must be at least 1"
        );
        let mut rng = SimRng::seed_from(0x9e3779b97f4a7c15);
        let attestation = AttestationService::new(&mut rng);
        let mut enclave = Enclave::new(cost);

        // Code + static data.
        let static_region = enclave.alloc_region("static", 8 * cost.page_bytes);
        let shards = config.shards.max(1);
        let table = ShardedRobinHoodMap::with_capacity(shards, config.initial_table_slots);
        // The table regions are the slots the code holds. Each 8 B of slot
        // moves Table 1 and every `epc_pages` value, so a layout change
        // fails the build here instead.
        const { assert!(HOST_SLOT_BYTES == 88) };
        let table_regions: Vec<RegionId> = (0..shards)
            .map(|s| {
                enclave.alloc_region(
                    "hash-table",
                    (table.shard(s).capacity() * HOST_SLOT_BYTES) as u64,
                )
            })
            .collect();
        // `heap-misc` (touched by the first insert) and 64 B per client are
        // hand-set, not sized from a structure: they reproduce Table 1's
        // 0 → 1-key jump, 52 → 66 pages against the paper's 65.
        let misc_region = enclave.alloc_region("heap-misc", 13 * cost.page_bytes);
        let client_region =
            enclave.alloc_region("client-state", (config.max_clients * 64).max(64) as u64);
        // The in-enclave value pool's bytes: empty until a value is inlined,
        // then as large as the pool.
        let enclave_pool_region = enclave.alloc_region("value-pool", 0);

        // Enclave initialization: code/data plus the initial table subset.
        let mut init_meter = Meter::new();
        enclave.touch_all(static_region, &mut init_meter, cost);
        for &region in &table_regions {
            enclave.touch_all(region, &mut init_meter, cost);
        }

        let storage_key = Key128::generate(&mut rng);
        PrecursorServer {
            config: config.clone(),
            cost: Arc::new(cost.clone()),
            rng,
            enclave,
            sessions: SessionStage {
                list: Vec::new(),
                saved: Vec::new(),
                attestation,
                client_region,
            },
            store: StoreExec {
                table,
                storage_gcm: GcmKey::new(&storage_key),
                storage_key,
                storage_seq: 0,
                mutation_seq: 0,
                state_digest: [0u8; 16],
                dirty: None,
                moving: None,
                table_regions,
                misc_region,
                misc_touched: false,
                table_resizes_seen: vec![0; shards],
                enclave_mem: Vec::new(),
                enclave_pool: SlabPool::new(0),
                enclave_pool_region,
                payload_mem: Memory::zeroed(config.pool_bytes),
                pool: SlabPool::new(config.pool_bytes),
                pool_used: Vec::new(),
            },
            ingress: Ingress {
                ports: Vec::new(),
                reports: std::collections::VecDeque::new(),
                rr_cursors: vec![0; shards],
                polls: 0,
                dirty_board: precursor_rdma::WriteBoard::new(),
                scratch: Default::default(),
                rings_swept: 0,
            },
            durability: None,
            last_snapshot: None,
            catchup: None,
            routing: None,
            host: None,
            obs: MetricsRegistry::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The server-side metrics registry, fed by the pipeline's per-stage
    /// taps: op/status counters, `stage.*_ns` histograms from every
    /// [`OpReport`]'s meter, and ingress/sweep counters.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Enables the structured-event tracer, retaining the most recent
    /// `cap` events. Tracing is deterministic (events are stamped with
    /// the sweep counter as logical time) and does not perturb any
    /// digested observable.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
    }

    /// The structured-event tracer (disabled unless
    /// [`enable_tracing`](Self::enable_tracing) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // Records one pipeline trace event stamped with the sweep counter —
    // the server's deterministic logical clock (it has no virtual
    // wall-clock of its own).
    pub(super) fn trace(&mut self, stage: &'static str, event: &'static str, a: u64, b: u64) {
        self.tracer
            .record(Nanos(self.ingress.polls), stage, event, a, b);
    }

    /// [`OpReport`]s dropped because the buffer cap
    /// ([`Config::max_buffered_reports`]) was reached before
    /// [`take_reports`](Self::take_reports) drained them.
    pub fn reports_dropped(&self) -> u64 {
        self.obs.counter("server.reports_dropped")
    }

    /// Untrusted-pool bytes (slot capacities) currently charged to
    /// `client_id` — what [`Config::pool_quota_bytes`] bounds.
    pub fn pool_usage(&self, client_id: u32) -> usize {
        self.store
            .pool_used
            .get(client_id as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The store-mutation sequence number (bumped on every applied put,
    /// delete, and revocation eviction). Carried in every reply control.
    pub fn mutation_seq(&self) -> u64 {
        self.store.mutation_seq
    }

    /// The running digest over all applied mutations (fork evidence).
    pub fn state_digest(&self) -> [u8; 16] {
        self.store.state_digest
    }

    /// The configured cost model, which every client this server connects
    /// shares.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.store.table.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.table.len() == 0
    }

    /// Number of connected (non-revoked) clients.
    pub fn client_count(&self) -> usize {
        self.ingress.ports.iter().filter(|p| p.is_some()).count()
    }

    /// The attestation service of the platform (clients verify quotes
    /// against it).
    pub fn attestation(&self) -> &AttestationService {
        &self.sessions.attestation
    }

    /// The enclave's measurement, which clients pin.
    pub fn measurement(&self) -> [u8; 32] {
        self.enclave.measurement()
    }

    /// The last writer of `key`, if present — the 4-byte client identifier
    /// the paper keeps in the enclave hash table (§4).
    pub fn owner_of(&self, key: &[u8]) -> Option<u32> {
        self.store.table.get(key).map(|e| e.client_id)
    }

    /// Number of trusted polling shards ([`Config::shards`]).
    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Credit write-backs posted so far. Sweeps that consumed nothing from
    /// a client's ring skip the WRITE (the credit word is unchanged).
    pub fn credit_writes(&self) -> u64 {
        self.obs.counter("server.credit_writes")
    }

    /// Requests handed across shards so far: popped by a polling worker
    /// whose shard did not own the key (never with `shards = 1`). The
    /// reported ops' ledger counts them.
    pub fn handoffs(&self) -> u64 {
        self.obs.counter("meter.shard_handoffs")
    }

    /// Ring visits performed by poll sweeps so far. Sweeps are
    /// doorbell-driven, so this stays proportional to the *written* rings,
    /// not the connected clients — it is what the closed-loop driver's
    /// cost model charges the per-ring scan cost against.
    pub fn rings_swept(&self) -> u64 {
        self.ingress.rings_swept
    }

    /// The host's handle on client `client_id`'s request ring — untrusted
    /// memory, e.g. for measuring what it holds resident. `None` for an
    /// unknown or revoked client.
    pub fn request_ring(&self, client_id: u32) -> Option<&Memory<RingStore>> {
        let port = self.ingress.ports.get(client_id as usize)?.as_ref()?;
        Some(&port.request_ring)
    }

    /// An sgx-perf style report of the enclave (Table 1).
    pub fn sgx_report(&self) -> precursor_sgx::SgxPerfReport {
        self.enclave.report()
    }

    /// Pool statistics (ocall growth events, bytes in use).
    pub fn pool_stats(&self) -> precursor_storage::pool::PoolStats {
        self.store.pool.stats()
    }

    // --- cluster routing (see crate::cluster) ---

    /// Installs (or replaces) this node's routing view: its node id and the
    /// placement ring it treats as authoritative. Requests for keys the
    /// ring assigns elsewhere are answered with a sealed
    /// [`Status::NotMine`] redirect instead of executing. Standalone
    /// servers (no view installed) never redirect.
    pub fn install_routing(&mut self, node: u16, ring: crate::cluster::PlacementRing) {
        self.routing = Some(crate::cluster::NodeRouting { node, ring });
    }

    /// Whether this node's installed routing view claims ownership of
    /// `key`. Standalone servers own everything.
    pub fn owns_key(&self, key: &[u8]) -> bool {
        match &self.routing {
            Some(r) => r.ring.owner_of(key) == r.node,
            None => true,
        }
    }

    // The ownership gate, checked by the pipeline before execution (after
    // the catch-up gate): a key the ring assigns to another node is
    // answered with a sealed NotMine redirect carrying the authoritative
    // owner hint. The redirect consumes the request's oid (the at-most-once
    // window advances; the client's retry at the real owner is a fresh oid
    // on an independent per-node session) and is never journalled
    // (journal_mutation requires Status::Ok).
    // `hash` is the key's stable hash, which the placement ring routes on.
    fn routing_gate(&mut self, hash: u64, oid: u64) -> Option<(Status, usize, exec::ReplyPlan)> {
        let routing = self.routing.as_ref()?;
        let owner = routing.ring.owner_of_hash(hash);
        if owner == routing.node {
            return None;
        }
        let hint = crate::cluster::encode_owner_hint(routing.ring.epoch(), owner);
        self.obs.inc("server.not_mine_redirects", 1);
        Some((Status::NotMine, 0, exec::ReplyPlan::NotMine { oid, hint }))
    }

    // --- snapshot/restore plumbing (see crate::snapshot) ---

    pub(crate) fn sealing_key(&self) -> Key128 {
        self.sessions.attestation.sealing_key(&self.enclave)
    }
}

// Backend-neutral metric names for op kinds and outcomes (ShieldStore's
// taps use the same namespace, which is what makes the cross-backend
// metrics-equivalence tests possible).
pub(super) fn op_metric(op: Opcode) -> &'static str {
    match op {
        Opcode::Put => "ops.put",
        Opcode::Get => "ops.get",
        Opcode::Delete => "ops.delete",
    }
}

pub(super) fn status_metric(status: Status) -> &'static str {
    match status {
        Status::Ok => "status.ok",
        Status::NotFound => "status.not_found",
        Status::Replay => "status.replay",
        Status::Error => "status.error",
        Status::Busy => "status.busy",
        Status::NotMine => "status.not_mine",
    }
}

/// Derives the AES-128 key used for CMAC from the 256-bit `K_operation`
/// (the SGX SDK's `sgx_rijndael128_cmac_msg` takes a 128-bit key; the paper
/// MACs with the operation key, so we use its first half — both sides agree).
pub(crate) fn cmac_key_of(k_op: &Key256) -> Key128 {
    let mut k = [0u8; 16];
    k.copy_from_slice(&k_op.as_bytes()[..16]);
    Key128::from_bytes(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;

    #[test]
    fn server_initial_working_set_is_the_table_subset() {
        let cost = CostModel::default();
        let server = PrecursorServer::new(Config::default(), &cost);
        let report = server.sgx_report();
        // 8 static pages + ceil(2048 slots × 88 B / 4 KiB) = 8 + 44 = 52 —
        // Table 1's 0-key row.
        assert_eq!(report.working_set_pages, 52);
    }

    #[test]
    fn add_client_assigns_ids_and_respects_limit() {
        let cost = CostModel::default();
        let config = Config {
            max_clients: 2,
            ..Config::default()
        };
        let mut server = PrecursorServer::new(config, &cost);
        let a = server.add_client([1; 16]).unwrap();
        let b = server.add_client([2; 16]).unwrap();
        assert_eq!(a.client_id, 0);
        assert_eq!(b.client_id, 1);
        assert_eq!(
            server.add_client([3; 16]).unwrap_err(),
            StoreError::TooManyClients
        );
    }

    #[test]
    fn sessions_have_distinct_keys() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let a = server.add_client([1; 16]).unwrap();
        let b = server.add_client([2; 16]).unwrap();
        assert_ne!(a.session_key, b.session_key);
    }

    #[test]
    #[should_panic(expected = "poll_budget_per_client must be at least 1")]
    fn a_zero_poll_budget_is_rejected() {
        let config = Config {
            poll_budget_per_client: 0,
            ..Config::default()
        };
        let _ = PrecursorServer::new(config, &CostModel::default());
    }

    #[test]
    fn poll_on_idle_server_is_a_noop() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        server.add_client([1; 16]).unwrap();
        assert_eq!(server.poll(), 0);
        assert!(server.take_reports().is_empty());
    }

    #[test]
    fn idle_sweeps_post_no_credit_writes() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut client = crate::PrecursorClient::connect(&mut server, 7).unwrap();

        // A connected-but-idle client earns no credit write-backs: nothing
        // was consumed, so the credit word is already correct.
        for _ in 0..10 {
            server.poll();
        }
        assert_eq!(server.credit_writes(), 0, "idle sweep must not post");

        // One executed op advances the consumer → exactly one credit WRITE.
        client.put_sync(&mut server, b"k", b"v").unwrap();
        let after_op = server.credit_writes();
        assert!(after_op >= 1);

        // Back to idle: the count must not move again.
        for _ in 0..10 {
            server.poll();
        }
        assert_eq!(server.credit_writes(), after_op);
    }

    #[test]
    fn every_reply_write_handed_to_the_qp_is_one_metered_post() {
        let cost = CostModel::default();
        let config = Config {
            ring_bytes: 1024,
            ..Config::default()
        };
        let mut server = PrecursorServer::new(config, &cost);
        let mut client = crate::PrecursorClient::connect(&mut server, 5).unwrap();
        client.put_sync(&mut server, b"k", &[7u8; 150]).unwrap();
        server.take_reports();
        let qp_writes =
            |s: &PrecursorServer| s.ingress.ports[0].as_ref().unwrap().qp.stats().writes;
        let (writes_before, credits_before) = (qp_writes(&server), server.credit_writes());

        // 64 replies of ~300 B through a 1 KiB ring wrap it several times;
        // a record that wraps is two WRITEs, metered as two posts.
        for _ in 0..64 {
            assert_eq!(client.get_sync(&mut server, b"k").unwrap(), [7u8; 150]);
        }
        let metered: u64 = server
            .take_reports()
            .iter()
            .map(|r| r.meter.counters().rdma_posts)
            .sum();
        let handed = qp_writes(&server) - writes_before - (server.credit_writes() - credits_before);
        assert!(handed >= 64 + 8, "the reply ring wrapped: {handed}");
        assert_eq!(metered, handed);
    }

    #[test]
    fn sharded_server_round_trips_and_reports_shards() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::sharded(4), &cost);
        assert_eq!(server.shards(), 4);
        let mut clients: Vec<_> = (0..3)
            .map(|i| crate::PrecursorClient::connect(&mut server, 100 + i).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            for k in 0..8u8 {
                let key = [i as u8, k];
                c.put_sync(&mut server, &key, &[k; 24]).unwrap();
                assert_eq!(c.get_sync(&mut server, &key).unwrap(), vec![k; 24]);
            }
        }
        clients[0].delete_sync(&mut server, &[0u8, 0]).unwrap();
        assert!(clients[0].get_sync(&mut server, &[0u8, 0]).is_err());
        // Reports carry a shard id inside range, and a 3-client workload
        // over 4 shards with random keys crosses shards at least once.
        let reports = server.take_reports();
        assert!(!reports.is_empty());
        assert!(reports.iter().all(|r| r.shard < 4));
        assert!(server.handoffs() > 0, "foreign-shard keys must hand off");
    }

    #[test]
    fn single_shard_mode_reports_shard_zero_and_never_hands_off() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut client = crate::PrecursorClient::connect(&mut server, 9).unwrap();
        for k in 0..16u8 {
            client.put_sync(&mut server, &[k], &[k; 16]).unwrap();
        }
        assert!(server.take_reports().iter().all(|r| r.shard == 0));
        assert_eq!(server.handoffs(), 0);
    }
}
