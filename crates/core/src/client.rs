//! The Precursor client: the "precursor" that carries the cryptographic
//! workload (§3.2).
//!
//! For a put (Algorithm 1) the client generates a fresh one-time key
//! `K_operation`, encrypts the value with Salsa20, MACs the ciphertext with
//! AES-CMAC, seals the control data (key, `K_operation`, `oid`) under the
//! session key, and writes the framed request into its server-side ring with
//! one-sided RDMA WRITEs. For a get it sends control data only and — on
//! reply — *verifies the payload itself*: recompute the CMAC under the
//! returned `K_operation` and compare with the returned MAC (§3.7).
//!
//! # Failure handling
//!
//! One-sided WRITEs produce no acknowledgement the application can see, so
//! the client supervises every operation with a deadline in simulated time.
//! When the deadline expires the request is *retransmitted idempotently*:
//! the same `oid`, the same `K_operation`, and — while the server has not
//! consumed the record — the very same ring offsets, so a WRITE lost in
//! flight is simply filled in. Once the credit word proves the server
//! consumed the request, a timeout means the *reply* was lost instead, and a
//! fresh copy of the request solicits a re-acknowledgement from the server's
//! at-most-once window. Retransmissions back off exponentially with jitter
//! ([`RetryPolicy`]); a queue pair in the error state surfaces as
//! [`StoreError::SessionLost`], after which [`reconnect`](PrecursorClient::reconnect)
//! re-attests, re-establishes `K_session`, and re-issues every in-flight
//! request without losing acknowledged state.

use std::collections::{HashSet, VecDeque};

use precursor_crypto::chain::MacChain;
use precursor_crypto::gcm::{GcmKey, TAG_LEN};
use precursor_crypto::keys::{Key256, Nonce8, Tag};
use precursor_crypto::{cmac, salsa20};
use precursor_obs::{MetricsRegistry, Tracer};
use precursor_rdma::mr::{Memory, RemoteKey};
use precursor_rdma::qp::{QueuePair, WorkCompletion};
use precursor_sim::meter::Meter;
use precursor_sim::meter::Stage::ClientCpu;
use precursor_sim::rng::SimRng;
use precursor_sim::time::Nanos;
use precursor_sim::timer::{Backoff, Deadline, VirtualClock};
use precursor_sim::{CostModel, Event};
use precursor_storage::ring::{RingConsumer, RingProducer, RingStore, RingWrites};

use precursor_sgx::attest::derive_chain_key;

use crate::config::{EncryptionMode, RetryPolicy};
use crate::error::StoreError;
use crate::server::{cmac_key_of, ClientBundle, PrecursorServer};
use crate::wire::{
    chain_context, chain_input, payload_reply_nonce, payload_request_nonce, reply_nonce,
    request_aad, request_nonce, Opcode, ReplyControl, ReplyRef, RequestControl, RequestControlRef,
    RequestRef, Status,
};

/// Most reply sequence numbers remembered as "skipped by a gap" and still
/// acceptable late (reordered delivery). Anything older is stale.
const GAP_TRACK_MAX: usize = 512;

/// Most `(store_seq, state_digest)` observations kept for cross-client fork
/// audits ([`fork_audit`]).
const OBSERVATION_MAX: usize = 256;

/// Most finished operations whose buffers a client keeps for the next ones:
/// a closed loop's in-flight window reuses them. A bulk load keeps one
/// sweep's budget in flight (`TrustedKv::warmup_batch`), and what it holds
/// past these is freed as each batch drains.
const SPARE_MAX: usize = 16;

/// Client-side Byzantine-behaviour counters: everything suspicious the
/// detection pipeline saw, whether or not it escalated to a quarantine.
/// Obtained from [`PrecursorClient::security_audit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecurityAudit {
    /// Reply records carrying an already-consumed sequence number that was
    /// *not* accounted to a known gap — replayed or duplicated replies,
    /// dropped without effect.
    pub stale_replies: u64,
    /// Replies accepted late because their sequence number matched a known
    /// gap — benign loss-and-retransmit, or an adversary reordering records.
    pub reorder_suspected: u64,
    /// Times the reply MAC chain was re-anchored after a sequence gap (the
    /// intermediate links could not be verified, but the adopted tag is
    /// covered by the sealed control).
    pub chain_resyncs: u64,
    /// Contiguous replies whose MAC-chain tag did not match the locally
    /// recomputed link — clear-header tampering or reply substitution. Each
    /// one quarantines the session.
    pub chain_breaks: u64,
    /// Replies carrying a reply-epoch other than the session's — stale
    /// pre-reconnect state served back. Each one quarantines the session.
    pub epoch_mismatches: u64,
    /// Replies whose store-mutation sequence went *backwards* — the server
    /// restarted from a rolled-back snapshot. Each one quarantines the
    /// session.
    pub rollback_regressions: u64,
    /// Replies carrying [`Status::Busy`] backpressure.
    pub busy_replies: u64,
    /// Replies carrying a sealed [`Status::NotMine`] routing redirect —
    /// the addressed node does not own the key (stale location cache).
    pub not_mine_replies: u64,
}

/// A finished operation, as observed by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedOp {
    /// The operation's sequence number.
    pub oid: u64,
    /// The operation kind.
    pub opcode: Opcode,
    /// Server-reported status.
    pub status: Status,
    /// Decrypted value for successful gets.
    pub value: Option<Vec<u8>>,
    /// Client-side verification failure, if any — e.g.
    /// [`StoreError::IntegrityViolation`] when the recomputed CMAC does not
    /// match (§3.7 "Query data"), or [`StoreError::RetriesExhausted`] /
    /// [`StoreError::Timeout`] when the operation was given up on.
    pub error: Option<StoreError>,
    /// The sealed owner hint from a [`Status::NotMine`] redirect (routing
    /// epoch + owner node, see `cluster::decode_owner_hint`); `None` for
    /// every other status. Authenticated by the reply MAC chain, so acting
    /// on it cannot be a host-forged misroute.
    pub redirect: Option<u64>,
}

impl CompletedOp {
    // The `Result` the `*_sync` conveniences hand back for a put or delete.
    pub(crate) fn ack(self) -> Result<(), StoreError> {
        match self.status {
            Status::Ok => Ok(()),
            Status::Replay if self.opcode == Opcode::Put => {
                Err(self.error.unwrap_or(StoreError::ReplayDetected))
            }
            Status::NotFound => Err(self.error.unwrap_or(StoreError::NotFound)),
            Status::Busy => Err(StoreError::Busy),
            Status::NotMine => Err(StoreError::NotMine),
            _ => Err(self.error.unwrap_or(StoreError::MalformedFrame)),
        }
    }

    // The same for a get: the verified value.
    pub(crate) fn into_value(self) -> Result<Vec<u8>, StoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.status {
            Status::Ok => Ok(self.value.expect("ok get carries a value")),
            Status::NotFound => Err(StoreError::NotFound),
            Status::Replay => Err(StoreError::ReplayDetected),
            Status::Busy => Err(StoreError::Busy),
            Status::NotMine => Err(StoreError::NotMine),
            Status::Error => Err(StoreError::MalformedFrame),
        }
    }
}

// Everything needed to retransmit an un-acknowledged request byte-for-byte:
// the control data (same oid and, for puts, the same K_operation — the
// retransmission is indistinguishable from the original), the exact ring
// WRITEs of the latest transmission, and the retry state. A finished op's
// `Pending` is kept and refilled by a later op, buffers and all.
#[derive(Debug, Clone)]
struct Pending {
    opcode: Opcode,
    control: RequestControl,
    mac: Tag,
    payload: Vec<u8>,
    /// Every one-sided WRITE the latest transmission issued (wrap marker
    /// included) — re-issued verbatim to fill a hole a dropped WRITE left
    /// in the remote ring.
    writes: RingWrites,
    /// Producer position after the latest transmission; once the credit
    /// word reaches it the server provably consumed the request.
    end_written: u64,
    deadline: Deadline,
    expires: Deadline,
    backoff: Backoff,
}

// The buffers a request is built in — control plaintext, sealed control,
// framed record — the reply record popped for verification and its
// control opened in place, and the completions a signaled WRITE reaps:
// kept by the client and reused, so the op path allocates only the value
// a get hands back.
#[derive(Debug, Default)]
struct Buffers {
    control: Vec<u8>,
    sealed: Vec<u8>,
    frame: Vec<u8>,
    record: Vec<u8>,
    completions: Vec<WorkCompletion>,
}

/// A connected Precursor client.
///
/// See the [crate docs](crate) for a quickstart.
#[derive(Debug)]
pub struct PrecursorClient {
    client_id: u32,
    // `K_session`, expanded once per attestation: client memory, not
    // enclave state.
    session_key: GcmKey,
    mode: EncryptionMode,
    cost: CostModel,

    qp: QueuePair,
    request_rkey: RemoteKey,
    request_producer: RingProducer,
    credit_word: Memory,
    reply_ring: Memory<RingStore>,
    reply_consumer: RingConsumer,
    reply_credit_rkey: RemoteKey,

    oid: u64,
    next_reply_seq: u64,
    rng: SimRng,
    meter: Meter,
    clock: VirtualClock,
    retry: RetryPolicy,
    retransmits: u64,
    // In-flight operations in `oid` order: a new op takes an oid above
    // every pending one, and a reconnect never steps the counter below the
    // newest pending oid.
    pending: VecDeque<Pending>,
    // Finished operations' `Pending`s (at most `SPARE_MAX`), refilled by
    // the next ones.
    spare: Vec<Pending>,
    // Finished operations not yet taken, in `oid` order.
    completed: Vec<CompletedOp>,
    last_sent: Option<(Opcode, Vec<u8>)>,
    posts_since_signal: u32,
    signal_interval: u32,
    // Reused by every transmission and reply: what a request is framed in,
    // and the reply record being verified.
    buffers: Buffers,

    // --- Byzantine-host detection state -------------------------------
    /// Reply epoch of the current attestation; replies must echo it.
    epoch: u32,
    /// Local copy of the enclave's reply MAC chain.
    chain: MacChain,
    /// Sequence numbers skipped by a gap, still acceptable late (bounded).
    gap_seqs: HashSet<u64>,
    /// Highest store-mutation sequence ever acknowledged. Survives
    /// reconnects: rollback across a restart is exactly the attack.
    max_store_seq: u64,
    /// Recent `(store_seq, state_digest)` pairs for fork audits (bounded).
    observations: VecDeque<(u64, [u8; 16])>,
    audit: SecurityAudit,
    /// `Some` once Byzantine behaviour was detected: the session is
    /// quarantined and every operation fails with this error until
    /// [`reconnect`](Self::reconnect).
    poisoned: Option<StoreError>,

    // observability: op-state-machine taps (encrypt, RDMA WRITE, poll,
    // verify, retransmit) feed this registry; the tracer stamps events
    // with this client's virtual clock and is a no-op unless enabled.
    obs: MetricsRegistry,
    tracer: Tracer,
}

impl PrecursorClient {
    /// Connects to `server`: runs the modelled attestation handshake and
    /// receives the ring locations (§3.6). `seed` makes the client's key
    /// generation deterministic for reproducible runs.
    ///
    /// # Errors
    ///
    /// Propagates [`PrecursorServer::add_client`] failures.
    pub fn connect(server: &mut PrecursorServer, seed: u64) -> Result<PrecursorClient, StoreError> {
        let mut rng = SimRng::seed_from(seed);
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let bundle = server.add_client(nonce)?;
        Ok(PrecursorClient::from_bundle(
            bundle,
            server.cost().clone(),
            rng,
        ))
    }

    /// Builds a client from an attestation bundle (for multi-process style
    /// setups where the bundle is produced elsewhere).
    pub fn from_bundle(bundle: ClientBundle, cost: CostModel, rng: SimRng) -> PrecursorClient {
        let ClientBundle {
            client_id,
            session_key,
            qp,
            request_ring_rkey,
            reply_ring,
            credit_word,
            reply_credit_rkey,
            ring_bytes,
            mode,
            expected_oid,
            epoch,
        } = bundle;
        let chain = MacChain::new(
            &derive_chain_key(&session_key, epoch),
            &chain_context(client_id, epoch),
        );
        PrecursorClient {
            client_id,
            session_key: GcmKey::new(&session_key),
            mode,
            cost,
            qp,
            request_rkey: request_ring_rkey,
            request_producer: RingProducer::new(ring_bytes),
            credit_word,
            reply_ring,
            reply_consumer: RingConsumer::new(ring_bytes),
            reply_credit_rkey,
            oid: expected_oid.saturating_sub(1),
            next_reply_seq: 1,
            rng,
            meter: Meter::new(),
            clock: VirtualClock::new(),
            retry: RetryPolicy::default(),
            retransmits: 0,
            pending: VecDeque::new(),
            spare: Vec::new(),
            completed: Vec::new(),
            last_sent: None,
            buffers: Buffers::default(),
            posts_since_signal: 0,
            // Selective signaling (§4, "RDMA optimizations"): push a single
            // completion after a batch of requests instead of one per WRITE.
            signal_interval: 16,
            epoch,
            chain,
            gap_seqs: HashSet::new(),
            max_store_seq: 0,
            observations: VecDeque::new(),
            audit: SecurityAudit::default(),
            poisoned: None,
            obs: MetricsRegistry::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// A snapshot of this client's metrics: the op-state-machine taps
    /// (`client.*` counters) plus the [`SecurityAudit`] folded in under
    /// `client.audit.*`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.obs.clone();
        m.inc("client.audit.stale_replies", self.audit.stale_replies);
        m.inc(
            "client.audit.reorder_suspected",
            self.audit.reorder_suspected,
        );
        m.inc("client.audit.chain_resyncs", self.audit.chain_resyncs);
        m.inc("client.audit.chain_breaks", self.audit.chain_breaks);
        m.inc("client.audit.epoch_mismatches", self.audit.epoch_mismatches);
        m.inc(
            "client.audit.rollback_regressions",
            self.audit.rollback_regressions,
        );
        m.inc("client.audit.busy_replies", self.audit.busy_replies);
        m.inc("client.audit.not_mine_replies", self.audit.not_mine_replies);
        m.inc("client.retransmits", self.retransmits);
        m
    }

    /// Enables the structured-event tracer, retaining the most recent
    /// `cap` events stamped with this client's virtual clock.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Tracer::enabled(cap);
    }

    /// The structured-event tracer (disabled unless
    /// [`enable_tracing`](Self::enable_tracing) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // Records one op-state-machine trace event at the current virtual time.
    fn trace(&mut self, stage: &'static str, event: &'static str, a: u64, b: u64) {
        self.tracer.record(self.clock.now(), stage, event, a, b);
    }

    /// This client's id at the server.
    pub fn client_id(&self) -> u32 {
        self.client_id
    }

    /// Number of requests sent but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Replaces the timeout/retry policy (applies to operations issued from
    /// now on).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Current simulated time at this client.
    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Total retransmissions this client has issued.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Whether the queue pair is in the error state — the session must be
    /// [`reconnect`](Self::reconnect)ed before further requests can be sent.
    pub fn session_lost(&self) -> bool {
        self.qp.is_error()
    }

    /// Takes the cost meter accumulated since the last call (client CPU and
    /// RDMA post accounting).
    pub fn take_meter(&mut self) -> Meter {
        self.meter.take()
    }

    /// Byzantine-behaviour counters accumulated by the reply pipeline.
    pub fn security_audit(&self) -> SecurityAudit {
        self.audit
    }

    /// The quarantine reason, if this session detected Byzantine behaviour.
    /// A poisoned session fails every operation until
    /// [`reconnect`](Self::reconnect) re-attests it.
    pub fn poisoned(&self) -> Option<StoreError> {
        self.poisoned
    }

    /// The reply epoch of the current attestation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Highest store-mutation sequence number this client has ever seen
    /// acknowledged. Kept across reconnects: a regression after a server
    /// restart is a rollback attack.
    pub fn max_store_seq(&self) -> u64 {
        self.max_store_seq
    }

    /// Recent `(store_seq, state_digest)` observations, oldest first — the
    /// evidence exchanged by [`fork_audit`].
    pub fn observations(&self) -> Vec<(u64, [u8; 16])> {
        self.observations.iter().copied().collect()
    }

    /// Quarantines the session: every subsequent operation fails with
    /// `reason` until [`reconnect`](Self::reconnect). Called internally on
    /// detection; public so external audits (e.g. [`fork_audit`]) can
    /// escalate their verdicts.
    pub fn quarantine(&mut self, reason: StoreError) {
        self.poisoned = Some(reason);
    }

    // Fails fast when the session is quarantined.
    fn ensure_healthy(&self) -> Result<(), StoreError> {
        match self.poisoned {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Issues a put (Algorithm 1). Returns the operation's `oid`.
    ///
    /// # Errors
    ///
    /// [`StoreError::RingFull`] when the request ring lacks credits, and
    /// [`StoreError::Rdma`] if the connection was revoked.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<u64, StoreError> {
        self.ensure_healthy()?;
        let mut p = self.fresh_pending(Opcode::Put, key);
        let oid = p.control.oid;
        p.payload.extend_from_slice(value);
        match self.mode {
            EncryptionMode::ClientSide => {
                // K_operation ← KeyGen(); *v ← E(K_operation, v);
                // mac ← MAC(K_operation, *v)                  (lines 2-4)
                let k_op = Key256::generate(&mut self.rng);
                let payload_nonce = Nonce8::generate(&mut self.rng);
                salsa20::xor_keystream(&k_op, &payload_nonce, 0, &mut p.payload);
                p.mac = cmac::mac(&cmac_key_of(&k_op), &p.payload);
                p.control.k_op = Some(k_op);
                p.control.payload_nonce = Some(payload_nonce);
                let (meter, cost, len) = (&mut self.meter, &self.cost, value.len());
                meter.event(ClientCpu, Event::KeyGen, 1, cost);
                meter.event(ClientCpu, Event::Salsa20 { len }, 1, cost);
                meter.event(ClientCpu, Event::Cmac { len }, 1, cost);
                meter.event(ClientCpu, Event::CryptoBytes { len }, 1, cost);
            }
            EncryptionMode::ServerSide => {
                // Conventional scheme: the whole value is transport-encrypted
                // to the enclave; no client-side one-time key.
                let nonce = payload_request_nonce(oid);
                let tag = self
                    .session_key
                    .seal_in_place_detached(&nonce, &[], &mut p.payload);
                p.payload.extend_from_slice(tag.as_bytes());
                let (meter, cost, len) = (&mut self.meter, &self.cost, value.len());
                meter.event(ClientCpu, Event::Gcm { len }, 1, cost);
                meter.event(ClientCpu, Event::CryptoBytes { len }, 1, cost);
            }
        }
        self.obs.inc("client.encrypts", 1);
        self.trace("encrypt", "ops.put", oid, p.payload.len() as u64);

        self.send_op(p)
    }

    /// Issues a get. Returns the operation's `oid`; the decrypted, verified
    /// value is available from [`take_completed`](Self::take_completed)
    /// after the reply arrives.
    ///
    /// # Errors
    ///
    /// Same classes as [`put`](Self::put).
    pub fn get(&mut self, key: &[u8]) -> Result<u64, StoreError> {
        self.ensure_healthy()?;
        let p = self.fresh_pending(Opcode::Get, key);
        self.send_op(p)
    }

    /// Issues a delete. Returns the operation's `oid`.
    ///
    /// # Errors
    ///
    /// Same classes as [`put`](Self::put).
    pub fn delete(&mut self, key: &[u8]) -> Result<u64, StoreError> {
        self.ensure_healthy()?;
        let p = self.fresh_pending(Opcode::Delete, key);
        self.send_op(p)
    }

    // The next operation's `Pending`, in a finished one's buffers when
    // there is one: the next oid, `key`, no payload, MAC or one-time key,
    // and the retry state armed from now.
    fn fresh_pending(&mut self, opcode: Opcode, key: &[u8]) -> Pending {
        self.oid += 1;
        let retry = &self.retry;
        let deadline = Deadline::after(&self.clock, retry.per_try_timeout);
        let expires = Deadline::after(&self.clock, retry.overall_timeout);
        let backoff = Backoff::new(
            retry.backoff_base,
            retry.backoff_cap,
            retry.jitter,
            retry.max_attempts,
        );
        let mut p = match self.spare.pop() {
            Some(mut p) => {
                (p.deadline, p.expires, p.backoff) = (deadline, expires, backoff);
                p
            }
            None => Pending {
                opcode,
                control: RequestControl {
                    oid: 0,
                    key: Vec::new(),
                    k_op: None,
                    payload_nonce: None,
                },
                mac: Tag::default(),
                payload: Vec::new(),
                writes: RingWrites::default(),
                end_written: 0,
                deadline,
                expires,
                backoff,
            },
        };
        p.opcode = opcode;
        p.control.oid = self.oid;
        p.control.key.clear();
        p.control.key.extend_from_slice(key);
        p.control.k_op = None;
        p.control.payload_nonce = None;
        p.mac = Tag::default();
        p.payload.clear();
        p
    }

    // Keeps a finished operation's buffers for a later one.
    fn recycle(&mut self, p: Pending) {
        if self.spare.len() < SPARE_MAX {
            if self.spare.capacity() == 0 {
                // One op in flight is the common window: room for one.
                self.spare.reserve_exact(1);
            }
            self.spare.push(p);
        }
    }

    // First transmission of a new operation: send, then arm the retry state.
    fn send_op(&mut self, mut p: Pending) -> Result<u64, StoreError> {
        let oid = p.control.oid;
        let control = p.control.as_ref();
        match self.transmit(p.opcode, control, &p.mac, &p.payload, &mut p.writes) {
            Ok(end_written) => p.end_written = end_written,
            Err(e) => {
                // Roll the oid back so the caller can retry the same
                // operation: on RingFull nothing was sent, and on a QP error
                // the record write itself failed, so the server never saw
                // this oid. Burning it would desynchronise the expected-oid
                // window permanently.
                self.oid -= 1;
                self.recycle(p);
                return Err(e);
            }
        }
        // The last sent key, for replaying a frame whose op is done: its
        // buffer is reused from op to op.
        let (last_op, last_key) = self.last_sent.get_or_insert_with(|| (p.opcode, Vec::new()));
        *last_op = p.opcode;
        last_key.clear();
        last_key.extend_from_slice(&p.control.key);
        debug_assert!(self.pending.back().is_none_or(|b| b.control.oid < oid));
        self.pending.push_back(p);
        Ok(oid)
    }

    // Where the in-flight op `oid` sits in `pending`.
    fn pending_index(&self, oid: u64) -> Option<usize> {
        self.pending
            .binary_search_by_key(&oid, |p| p.control.oid)
            .ok()
    }

    // Seals, frames and WRITEs one request into the server-side ring,
    // refilling `writes` with exactly what went on the wire and returning
    // the producer position after it. Sealing is deterministic per
    // (session key, oid), so a retransmitted frame is byte-identical to the
    // original.
    fn transmit(
        &mut self,
        opcode: Opcode,
        control: RequestControlRef<'_>,
        mac: &Tag,
        payload: &[u8],
        writes: &mut RingWrites,
    ) -> Result<u64, StoreError> {
        let iv = request_nonce(control.oid);
        let Buffers {
            control: plain,
            sealed,
            frame,
            completions,
            ..
        } = &mut self.buffers;
        control.encode_into(plain);
        sealed.clear();
        self.session_key
            .seal_into(sealed, &iv, &request_aad(opcode, self.client_id), plain);
        RequestRef {
            opcode,
            client_id: self.client_id,
            iv,
            sealed_control: sealed,
            mac: *mac,
            payload,
        }
        .encode_into(frame);
        let (control_len, frame_len) = (plain.len(), frame.len());
        let (meter, cost) = (&mut self.meter, &self.cost);
        meter.event(ClientCpu, Event::Gcm { len: control_len }, 1, cost);
        meter.event(ClientCpu, Event::Memcpy { len: frame_len }, 1, cost);

        // Learn the server's consumed counter (credits it wrote back).
        let credits = self.credit_word.read_u64(0);
        self.request_producer.update_credits(credits);

        // One (or two, on wrap) one-sided WRITEs into the server-side ring.
        // Selective signaling: only every `signal_interval`-th WRITE asks
        // for a completion; the rest run unsignaled (§4).
        self.posts_since_signal += 1;
        let signaled = self.posts_since_signal >= self.signal_interval;
        if signaled {
            self.posts_since_signal = 0;
        }
        let pushed = self.request_producer.push_with(frame, writes);
        let mut rdma_err = None;
        for (off, chunk) in writes.iter() {
            if let Err(e) = self.qp.post_write(self.request_rkey, off, chunk, signaled) {
                rdma_err = Some(e);
            }
        }
        if signaled {
            // Reap the batch's single completion (amortized cost).
            completions.clear();
            self.qp.poll_cq_into(1, completions);
            self.meter.event(ClientCpu, Event::RdmaPoll, 1, &self.cost);
        }
        if let Some(e) = rdma_err {
            return Err(StoreError::Rdma(e));
        }
        if pushed.is_none() {
            return Err(StoreError::RingFull);
        }
        // One post per request frame, even when a wrap splits it in two.
        let (meter, cost) = (&mut self.meter, &self.cost);
        meter.event(ClientCpu, Event::RdmaPost, 1, cost);
        meter.event(ClientCpu, Event::Tx { len: frame_len }, 1, cost);
        self.obs.inc("client.rdma_writes", 1);
        self.trace("rdma", "write", control.oid, frame_len as u64);
        Ok(self.request_producer.written())
    }

    /// Advances this client's virtual clock and retransmits every operation
    /// whose deadline expired (see the module docs for the recovery rules).
    /// Returns the number of retransmissions issued.
    ///
    /// # Errors
    ///
    /// [`StoreError::SessionLost`] when the queue pair is (or enters) the
    /// error state; the in-flight operations stay pending and are re-issued
    /// by [`reconnect`](Self::reconnect).
    pub fn advance(&mut self, delta: Nanos) -> Result<usize, StoreError> {
        self.clock.advance(delta);
        self.pump_timeouts()
    }

    /// Retransmits timed-out operations without advancing the clock.
    ///
    /// # Errors
    ///
    /// Same as [`advance`](Self::advance).
    pub fn pump_timeouts(&mut self) -> Result<usize, StoreError> {
        self.ensure_healthy()?;
        if self.qp.is_error() {
            return Err(StoreError::SessionLost);
        }
        // Walked oldest first, out of `self` while transmissions borrow it;
        // an op given up on leaves the deque, the others keep their places.
        let mut pending = std::mem::take(&mut self.pending);
        let (mut sent, mut i) = (0, 0);
        let mut result = Ok(());
        while i < pending.len() {
            let p = &mut pending[i];
            if !p.deadline.expired(&self.clock) {
                i += 1;
                continue;
            }
            let oid = p.control.oid;
            let delay = if p.expires.expired(&self.clock) {
                Err(StoreError::Timeout)
            } else {
                p.backoff
                    .next_delay(&mut self.rng)
                    .ok_or(StoreError::RetriesExhausted)
            };
            let delay = match delay {
                Ok(delay) => delay,
                Err(e) => {
                    let p = pending.remove(i).expect("walked op is pending");
                    self.fail_op(p, e);
                    continue;
                }
            };
            let credits = self.credit_word.read_u64(0);
            let sent_again = if credits >= p.end_written {
                // The server consumed the request, so the *reply* was lost.
                // Push a fresh copy of the same request: the server's
                // at-most-once window re-acknowledges it without
                // re-executing.
                let control = p.control.as_ref();
                match self.transmit(p.opcode, control, &p.mac, &p.payload, &mut p.writes) {
                    Ok(end_written) => {
                        p.end_written = end_written;
                        Ok(())
                    }
                    // No credits for a fresh copy yet; try again at the next
                    // deadline.
                    Err(StoreError::RingFull) => Ok(()),
                    Err(e) => Err(e),
                }
            } else {
                // The request may never have reached the ring (a dropped
                // WRITE leaves a hole the consumer waits on): re-issue the
                // identical WRITEs at the identical offsets — one-sided
                // WRITEs are idempotent.
                let (mut writes, mut err) = (0, None);
                for (off, bytes) in p.writes.iter() {
                    writes += 1;
                    let (meter, len) = (&mut self.meter, bytes.len());
                    meter.event(ClientCpu, Event::Tx { len }, 1, &self.cost);
                    if let Err(e) = self.qp.post_write(self.request_rkey, off, bytes, false) {
                        err = Some(e);
                        break;
                    }
                }
                let repost = Event::RdmaRepost { writes };
                self.meter.event(ClientCpu, repost, 1, &self.cost);
                match err {
                    None => Ok(()),
                    Some(e) => Err(StoreError::Rdma(e)),
                }
            };
            if sent_again.is_err() {
                // A failed post means the QP dropped to the error state;
                // keep the op pending for the reconnect to re-issue.
                result = Err(StoreError::SessionLost);
                break;
            }
            p.deadline = Deadline::after(&self.clock, self.retry.per_try_timeout + delay);
            self.retransmits += 1;
            sent += 1;
            self.trace("retransmit", "deadline", oid, self.retransmits);
            i += 1;
        }
        self.pending = pending;
        result.map(|()| sent)
    }

    // Completes an operation locally with a client-side error.
    fn fail_op(&mut self, p: Pending, error: StoreError) {
        let oid = p.control.oid;
        self.obs.inc("client.op_failures", 1);
        self.complete(CompletedOp {
            oid,
            opcode: p.opcode,
            status: Status::Error,
            value: None,
            error: Some(error),
            redirect: None,
        });
        self.recycle(p);
    }

    // Files a finished operation in `oid` order (replies arrive in order,
    // so this is almost always a push). A reused oid — the counter
    // resynchronised below an op abandoned with a timeout — replaces the
    // abandoned op's entry.
    fn complete(&mut self, done: CompletedOp) {
        match self.completed.last() {
            Some(last) if last.oid >= done.oid => {
                match self.completed.binary_search_by_key(&done.oid, |c| c.oid) {
                    Ok(i) => self.completed[i] = done,
                    Err(i) => self.completed.insert(i, done),
                }
            }
            _ => self.completed.push(done),
        }
    }

    /// Re-establishes the session after a queue-pair failure or a server
    /// restart: runs the attestation handshake again (fresh `K_session`),
    /// receives fresh rings, and re-issues every in-flight request under the
    /// new session — same `oid`s, so acknowledged state is never applied
    /// twice. Returns the number of re-issued requests.
    ///
    /// # Errors
    ///
    /// Propagates [`PrecursorServer::reconnect_client`] failures.
    pub fn reconnect(&mut self, server: &mut PrecursorServer) -> Result<usize, StoreError> {
        let mut nonce = [0u8; 16];
        self.rng.fill_bytes(&mut nonce);
        let bundle = server.reconnect_client(self.client_id, nonce)?;
        self.obs.inc("client.reconnects", 1);
        self.trace("reconnect", "attest", u64::from(bundle.epoch), 0);
        self.session_key = GcmKey::new(&bundle.session_key);
        self.mode = bundle.mode;
        self.qp = bundle.qp;
        self.request_rkey = bundle.request_ring_rkey;
        self.request_producer = RingProducer::new(bundle.ring_bytes);
        self.credit_word = bundle.credit_word;
        self.reply_ring = bundle.reply_ring;
        self.reply_consumer = RingConsumer::new(bundle.ring_bytes);
        self.reply_credit_rkey = bundle.reply_credit_rkey;
        self.next_reply_seq = 1;
        self.posts_since_signal = 0;
        // A fresh attestation clears a quarantine and re-anchors the
        // detection state: the server hands out a *strictly newer* reply
        // epoch, so any stale pre-reconnect reply the host replays later
        // fails the epoch check (and its sealing key is gone anyway).
        // `max_store_seq` deliberately survives — detecting a rollback
        // across the reconnect is the point.
        self.poisoned = None;
        self.epoch = bundle.epoch;
        self.chain = MacChain::new(
            &derive_chain_key(&bundle.session_key, bundle.epoch),
            &chain_context(self.client_id, bundle.epoch),
        );
        self.gap_seqs.clear();
        // Resynchronise the oid counter with the enclave's window: an
        // operation abandoned with a client-side timeout may or may not have
        // executed, which would otherwise leave the next fresh oid outside
        // the at-most-once window forever. Never step below an op still
        // pending retransmission.
        let pending_max = self.pending.back().map_or(0, |p| p.control.oid);
        self.oid = bundle.expected_oid.saturating_sub(1).max(pending_max);

        // Re-issue in-flight requests oldest-first so the server sees oids
        // in order. The control data (oid, K_operation) is unchanged; only
        // the sealing key differs.
        let mut pending = std::mem::take(&mut self.pending);
        let mut result = Ok(pending.len());
        for p in &mut pending {
            let control = p.control.as_ref();
            match self.transmit(p.opcode, control, &p.mac, &p.payload, &mut p.writes) {
                Ok(end_written) => {
                    p.end_written = end_written;
                }
                Err(StoreError::RingFull) => {
                    // Fresh ring with no credits consumed: mark the op for a
                    // fresh push at its next deadline.
                    p.writes.clear();
                    p.end_written = 0;
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            p.deadline = Deadline::after(&self.clock, self.retry.per_try_timeout);
            p.expires = Deadline::after(&self.clock, self.retry.overall_timeout);
            p.backoff.reset();
            self.retransmits += 1;
        }
        self.pending = pending;
        result
    }

    /// Drains the reply ring, verifying and decrypting each reply; returns
    /// how many operations completed. Completed results are retrieved with
    /// [`take_completed`](Self::take_completed).
    pub fn poll_replies(&mut self) -> usize {
        let mut n = 0;
        let reply_ring = self.reply_ring.clone();
        let mut record = std::mem::take(&mut self.buffers.record);
        while reply_ring.with_mut(|buf| self.reply_consumer.pop_from(buf, &mut record)) {
            self.handle_reply(&record);
            n += 1;
        }
        self.buffers.record = record;
        self.obs.inc("client.polls", 1);
        if n > 0 {
            // Report reply-ring consumption back to the server so its
            // producer regains credits.
            let consumed = self.reply_consumer.consumed();
            let _ = self
                .qp
                .post_write(self.reply_credit_rkey, 0, &consumed.to_le_bytes(), false);
            self.obs.inc("client.replies", n as u64);
            self.trace("poll", "replies", n as u64, consumed);
        }
        n
    }

    fn handle_reply(&mut self, record: &[u8]) {
        let copy = Event::Memcpy { len: record.len() };
        self.meter.event(ClientCpu, copy, 1, &self.cost);
        let Ok(frame) = ReplyRef::parse(record) else {
            // Malformed reply: drop — a real client would tear the session.
            return;
        };
        // Replies arrive in server order; the expected sequence selects the
        // nonce and doubles as replay protection on the reply channel. A
        // *gap* is tolerated (the skipped reply was lost and its operation
        // will be retransmitted) and its sequence numbers stay acceptable
        // late, so reordered delivery still completes; anything older is a
        // stale record (duplicate or replay) and is dropped.
        let seq = frame.reply_seq;
        let late = seq < self.next_reply_seq;
        let contiguous = seq == self.next_reply_seq;
        if late {
            if !self.gap_seqs.remove(&seq) {
                self.audit.stale_replies += 1;
                return;
            }
            self.audit.reorder_suspected += 1;
        } else {
            for skipped in self.next_reply_seq..seq {
                if self.gap_seqs.len() >= GAP_TRACK_MAX {
                    break;
                }
                self.gap_seqs.insert(skipped);
            }
            self.next_reply_seq = seq + 1;
        }

        let (meter, len) = (&mut self.meter, frame.sealed_control.len());
        meter.event(ClientCpu, Event::Gcm { len }, 1, &self.cost);
        // Opened in place in the reused control buffer.
        let Some(ct_len) = frame.sealed_control.len().checked_sub(TAG_LEN) else {
            return;
        };
        let (ct, tag) = frame.sealed_control.split_at(ct_len);
        let plain = &mut self.buffers.control;
        plain.clear();
        plain.extend_from_slice(ct);
        if self
            .session_key
            .open_in_place_detached(&reply_nonce(seq), &[], plain, tag)
            .is_err()
        {
            return;
        }
        let Ok(control) = ReplyControl::decode(plain) else {
            return;
        };

        // --- Byzantine-host detection pipeline ------------------------
        // Every check below is on *authenticated* data (the control opened
        // under K_session), so a detection is evidence, not noise.

        // 1. Reply epoch: a reply sealed before the last reconnect carries
        //    the old epoch. (Its sealing key also differs, so this is a
        //    second, independent tripwire.)
        if control.epoch != self.epoch {
            self.audit.epoch_mismatches += 1;
            self.quarantine(StoreError::SessionPoisoned);
            return;
        }

        // 2. Reply MAC chain. A contiguous reply must extend the chain with
        //    exactly the locally recomputed link — this binds the *clear*
        //    header (status/opcode), which the control seal does not cover.
        //    After a gap the intermediate links are unverifiable; adopt the
        //    authenticated tag as the new anchor. Late (reordered) replies
        //    lie before the anchor and carry no new link to check.
        if contiguous {
            let expect =
                self.chain
                    .advance(&chain_input(frame.status, frame.opcode, seq, &control));
            if expect != control.chain {
                self.audit.chain_breaks += 1;
                self.quarantine(StoreError::SessionPoisoned);
                return;
            }
        } else if !late {
            self.chain.resync(&control.chain);
            self.audit.chain_resyncs += 1;
        }

        // 3. Rollback: the store-mutation sequence is monotonic across the
        //    server's whole life, snapshots included; it regresses only when
        //    the host restarted the enclave from a stale (rolled-back)
        //    snapshot. Late replies legitimately carry older values.
        if !late {
            if control.store_seq < self.max_store_seq {
                self.audit.rollback_regressions += 1;
                self.quarantine(StoreError::RollbackDetected);
                return;
            }
            self.max_store_seq = control.store_seq;
            // Record fork evidence: same store_seq must always come with
            // the same digest, here and at every other client.
            if let Some(&(last_seq, last_digest)) = self.observations.back() {
                if last_seq == control.store_seq && last_digest != control.store_digest {
                    self.quarantine(StoreError::ForkDetected);
                    return;
                }
            }
            if self
                .observations
                .back()
                .is_none_or(|&(s, d)| s != control.store_seq || d != control.store_digest)
            {
                if self.observations.len() >= OBSERVATION_MAX {
                    self.observations.pop_front();
                }
                self.observations
                    .push_back((control.store_seq, control.store_digest));
            }
        }

        // An error reply that names no op (a malformed or oversized record,
        // a store failure) carries oid 0: it completes the *oldest* pending
        // op, matching the in-order rings. Otherwise the op is almost
        // always the oldest too; a reply that overtook a lost one is found
        // further in.
        let at = match control.oid {
            0 => Some(0),
            oid => self.pending_index(oid),
        };
        let Some(pending) = at.and_then(|i| self.pending.remove(i)) else {
            return;
        };
        let oid = pending.control.oid;

        let mut completed = CompletedOp {
            oid,
            opcode: pending.opcode,
            status: frame.status,
            value: None,
            error: None,
            redirect: None,
        };

        if frame.status == Status::Busy {
            // Backpressure: the op did not execute; the caller should back
            // off (the control carries the server's retry hint) and retry
            // with a fresh oid.
            self.audit.busy_replies += 1;
            completed.error = Some(StoreError::Busy);
        }

        if frame.status == Status::NotMine {
            // Routing redirect: the op did not execute here. The sealed
            // control's retry hint carries the authoritative owner (epoch +
            // node); surface it so a cluster-aware caller can refresh its
            // location cache and retry at the owner with a fresh oid.
            self.audit.not_mine_replies += 1;
            completed.error = Some(StoreError::NotMine);
            completed.redirect = Some(control.retry_after_ns);
        }

        if frame.status == Status::Ok && pending.opcode == Opcode::Get {
            match self.mode {
                EncryptionMode::ClientSide => {
                    match (&control.k_op, &control.payload_nonce, &control.mac) {
                        (Some(k_op), Some(pn), Some(mac)) => {
                            // Verify integrity: recompute the MAC over the
                            // encrypted value with K_operation (§3.7).
                            let (meter, len) = (&mut self.meter, frame.payload.len());
                            meter.event(ClientCpu, Event::Cmac { len }, 1, &self.cost);
                            if !cmac::verify(&cmac_key_of(k_op), frame.payload, mac) {
                                self.obs.inc("client.verify_fail", 1);
                                completed.error = Some(StoreError::IntegrityViolation);
                            } else {
                                let mut value = frame.payload.to_vec();
                                salsa20::xor_keystream(k_op, pn, 0, &mut value);
                                let (meter, len) = (&mut self.meter, value.len());
                                meter.event(ClientCpu, Event::Salsa20 { len }, 1, &self.cost);
                                meter.event(ClientCpu, Event::CryptoBytes { len }, 1, &self.cost);
                                self.obs.inc("client.verify_ok", 1);
                                completed.value = Some(value);
                            }
                        }
                        _ => completed.error = Some(StoreError::MalformedFrame),
                    }
                }
                EncryptionMode::ServerSide => {
                    let (meter, len) = (&mut self.meter, frame.payload.len());
                    meter.event(ClientCpu, Event::Gcm { len }, 1, &self.cost);
                    match self
                        .session_key
                        .open(&payload_reply_nonce(seq), &[], frame.payload)
                    {
                        Ok(value) => {
                            let (meter, len) = (&mut self.meter, value.len());
                            meter.event(ClientCpu, Event::CryptoBytes { len }, 1, &self.cost);
                            self.obs.inc("client.verify_ok", 1);
                            completed.value = Some(value);
                        }
                        Err(_) => {
                            self.obs.inc("client.verify_fail", 1);
                            completed.error = Some(StoreError::IntegrityViolation);
                        }
                    }
                }
            }
        }

        self.trace("verify", "complete", oid, completed.status as u64);
        self.complete(completed);
        self.recycle(pending);
    }

    /// Takes the completed result for `oid`, if its reply has arrived.
    pub fn take_completed(&mut self, oid: u64) -> Option<CompletedOp> {
        let i = self.completed.binary_search_by_key(&oid, |c| c.oid).ok()?;
        Some(self.completed.remove(i))
    }

    /// Takes all completed results, in `oid` order.
    pub fn take_all_completed(&mut self) -> Vec<CompletedOp> {
        std::mem::take(&mut self.completed)
    }

    /// [`take_all_completed`](Self::take_all_completed) without handing
    /// over a collection: the completed results in `oid` order, for a
    /// caller that converts them into its own.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = CompletedOp> + '_ {
        self.completed.drain(..)
    }

    /// Pumps `server` until the operation `oid` completes, advancing
    /// simulated time and retransmitting on deadline expiry.
    ///
    /// # Errors
    ///
    /// [`StoreError::Timeout`] / [`StoreError::RetriesExhausted`] when the
    /// operation is given up on, [`StoreError::SessionLost`] when the queue
    /// pair fails (the op stays pending; reconnect and call this again).
    pub fn complete_sync(
        &mut self,
        server: &mut PrecursorServer,
        oid: u64,
    ) -> Result<CompletedOp, StoreError> {
        self.complete_with(|| server.poll(), oid)
    }

    /// [`complete_sync`](Self::complete_sync) with the server side driven
    /// by `pump` — a replica group's
    /// [`pump`](crate::ReplicaGroup::pump), whose quorum commit is what
    /// releases the reply.
    ///
    /// # Errors
    ///
    /// As [`complete_sync`](Self::complete_sync).
    pub fn complete_with(
        &mut self,
        mut pump: impl FnMut() -> usize,
        oid: u64,
    ) -> Result<CompletedOp, StoreError> {
        loop {
            pump();
            self.poll_replies();
            if let Some(c) = self.take_completed(oid) {
                if let Some(e @ (StoreError::Timeout | StoreError::RetriesExhausted)) = c.error {
                    return Err(e);
                }
                return Ok(c);
            }
            if self.pending_index(oid).is_none() {
                return Err(StoreError::MalformedFrame);
            }
            // Nothing yet: let simulated time pass toward the deadline.
            self.advance(self.retry.per_try_timeout / 4)?;
        }
    }

    /// Convenience: put and wait for the ack by pumping `server`.
    ///
    /// # Errors
    ///
    /// Send failures from [`put`](Self::put), or the reply's error status.
    pub fn put_sync(
        &mut self,
        server: &mut PrecursorServer,
        key: &[u8],
        value: &[u8],
    ) -> Result<(), StoreError> {
        let oid = self.put(key, value)?;
        self.complete_sync(server, oid)?.ack()
    }

    /// Convenience: get and wait for the verified value by pumping `server`.
    ///
    /// # Errors
    ///
    /// Send failures, [`StoreError::NotFound`], or the client-side
    /// verification error ([`StoreError::IntegrityViolation`]).
    pub fn get_sync(
        &mut self,
        server: &mut PrecursorServer,
        key: &[u8],
    ) -> Result<Vec<u8>, StoreError> {
        let oid = self.get(key)?;
        self.complete_sync(server, oid)?.into_value()
    }

    /// Convenience: delete and wait for the ack by pumping `server`.
    ///
    /// # Errors
    ///
    /// Send failures, or [`StoreError::NotFound`].
    pub fn delete_sync(
        &mut self,
        server: &mut PrecursorServer,
        key: &[u8],
    ) -> Result<(), StoreError> {
        let oid = self.delete(key)?;
        self.complete_sync(server, oid)?.ack()
    }

    /// Attack hook for security tests: re-sends a frame carrying the *last*
    /// issued `oid` — a network-level replay of the newest request. The
    /// server's at-most-once window re-acknowledges it from the cached
    /// status **without re-executing** (state cannot be mutated twice).
    ///
    /// # Errors
    ///
    /// [`StoreError::RingFull`] if the ring lacks space for the duplicate.
    pub fn replay_last_frame(&mut self) -> Result<(), StoreError> {
        self.replay_frame(self.oid)
    }

    /// Attack hook for security tests: re-sends a frame with a *genuinely
    /// old* `oid` (two behind the server's expectation). The server rejects
    /// it with [`Status::Replay`] (Algorithm 2).
    ///
    /// # Errors
    ///
    /// [`StoreError::RingFull`] if the ring lacks space for the duplicate.
    pub fn replay_stale_frame(&mut self) -> Result<(), StoreError> {
        self.replay_frame(self.oid.saturating_sub(1))
    }

    fn replay_frame(&mut self, oid: u64) -> Result<(), StoreError> {
        // Rebuild a frame for the requested oid: byte-exact for an op still
        // pending; otherwise a control-only frame with the last opcode/key.
        let (opcode, key) = match self.pending_index(oid).map(|i| &self.pending[i]) {
            Some(p) => (p.opcode, p.control.key.clone()),
            None => self.last_sent.clone().unwrap_or((Opcode::Get, Vec::new())),
        };
        let control = RequestControl {
            oid,
            key,
            k_op: None,
            payload_nonce: None,
        };
        let iv = request_nonce(oid);
        let sealed =
            self.session_key
                .seal(&iv, &request_aad(opcode, self.client_id), &control.encode());
        let mut bytes = Vec::new();
        RequestRef {
            opcode,
            client_id: self.client_id,
            iv,
            sealed_control: &sealed,
            mac: Tag::default(),
            payload: &[],
        }
        .encode_into(&mut bytes);
        let credits = self.credit_word.read_u64(0);
        self.request_producer.update_credits(credits);
        let mut writes = RingWrites::default();
        self.request_producer
            .push_with(&bytes, &mut writes)
            .ok_or(StoreError::RingFull)?;
        for (off, chunk) in writes.iter() {
            let _ = self.qp.post_write(self.request_rkey, off, chunk, false);
        }
        Ok(())
    }
}

/// Cross-client fork audit (the lightweight "epoch exchange" of
/// client-centric trust): two clients compare their authenticated
/// `(store_seq, state_digest)` observations. A host serving forked views
/// must hand different digests for the same mutation sequence to somebody —
/// any overlap exposes it.
///
/// On detection the caller should
/// [`quarantine`](PrecursorClient::quarantine) both sessions.
///
/// # Errors
///
/// [`StoreError::ForkDetected`] when the same `store_seq` was observed with
/// different digests.
pub fn fork_audit(a: &PrecursorClient, b: &PrecursorClient) -> Result<(), StoreError> {
    for &(seq_a, digest_a) in &a.observations {
        for &(seq_b, digest_b) in &b.observations {
            if seq_a == seq_b && digest_a != digest_b {
                return Err(StoreError::ForkDetected);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::{HostFilter, HostMove, HostPlan, HostSite};

    fn connected(plan: HostPlan) -> (PrecursorServer, PrecursorClient) {
        let mut server = PrecursorServer::new(Config::default(), &CostModel::default());
        server.set_host_plan(plan, 5);
        let client = PrecursorClient::connect(&mut server, 5).expect("connect");
        (server, client)
    }

    // The oids in flight, in the order the client keeps them.
    fn in_flight(client: &PrecursorClient) -> Vec<u64> {
        client.pending.iter().map(|p| p.control.oid).collect()
    }

    // Issues `n` puts of one-byte keys and values, none of them served.
    fn puts(client: &mut PrecursorClient, n: u8) -> Vec<u64> {
        (b'p'..b'p' + n)
            .map(|k| client.put(&[k], &[k]).expect("put"))
            .collect()
    }

    #[test]
    fn a_reconnect_reissues_the_ops_in_flight_oldest_first() {
        let (mut server, mut client) = connected(HostPlan::none());
        client.put_sync(&mut server, b"a", b"1").unwrap();
        let oids = puts(&mut client, 3);
        client.enable_tracing(16);
        assert_eq!(client.reconnect(&mut server), Ok(3));
        let written: Vec<u64> = client
            .tracer()
            .events()
            .filter(|e| (e.stage, e.event) == ("rdma", "write"))
            .map(|e| e.a)
            .collect();
        assert_eq!(written, oids, "re-issued oldest first");
        assert_eq!(in_flight(&client), oids);
        for oid in oids {
            let done = client.complete_sync(&mut server, oid).unwrap();
            assert_eq!((done.oid, done.status), (oid, Status::Ok));
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn an_oid_0_error_reply_completes_the_oldest_op() {
        let (mut server, mut client) = connected(HostPlan::none());
        client.put_sync(&mut server, b"a", b"1").unwrap();
        // A key past `max_key_bytes`: the server refuses the put with an
        // `Error` reply that names no oid, ahead of the other two.
        let long = vec![b'k'; Config::default().max_key_bytes + 1];
        let oids = [
            client.put(&long, b"x").unwrap(),
            client.put(b"q", b"q").unwrap(),
            client.put(b"r", b"r").unwrap(),
        ];
        server.poll();
        assert_eq!(client.poll_replies(), 3);
        let done = client.take_all_completed();
        let got: Vec<(u64, Status)> = done.iter().map(|c| (c.oid, c.status)).collect();
        assert_eq!(
            got,
            [
                (oids[0], Status::Error),
                (oids[1], Status::Ok),
                (oids[2], Status::Ok)
            ]
        );
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn a_reply_that_overtakes_a_lost_one_completes_its_own_op() {
        // The host substitutes client 0's third reply record with a stale
        // captured one, which the client drops: that reply is lost, and the
        // fourth arrives past the gap.
        let plan =
            HostPlan::none().rule(HostSite::Reply, HostFilter::Client(0), HostMove::Replay, 3);
        let (mut server, mut client) = connected(plan);
        client.put_sync(&mut server, b"a", b"1").unwrap();
        client.put_sync(&mut server, b"b", b"2").unwrap();
        let lost = client.put(b"c", b"3").unwrap();
        let next = client.put(b"d", b"4").unwrap();
        server.poll();
        assert_eq!(client.poll_replies(), 2);
        assert_eq!(client.security_audit().stale_replies, 1);
        let done = client.take_completed(next).expect("the newer op completed");
        assert_eq!((done.oid, done.status), (next, Status::Ok));
        assert!(client.take_completed(lost).is_none());
        assert_eq!(in_flight(&client), [lost]);
        // The lost op is retransmitted and completes in its own name.
        let done = client.complete_sync(&mut server, lost).unwrap();
        assert_eq!(done.oid, lost);
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn a_timed_out_op_fails_and_the_others_keep_their_order() {
        let (mut server, mut client) = connected(HostPlan::none());
        client.put_sync(&mut server, b"a", b"1").unwrap();
        let oids = puts(&mut client, 4);
        // Every op is due; the second one alone is out of time.
        let due = Deadline::after(&client.clock, Nanos::ZERO);
        let later = Deadline::after(&client.clock, client.retry.overall_timeout);
        for (i, p) in client.pending.iter_mut().enumerate() {
            p.deadline = due;
            p.expires = if i == 1 { due } else { later };
        }
        assert_eq!(client.pump_timeouts(), Ok(3));
        assert_eq!(in_flight(&client), [oids[0], oids[2], oids[3]]);
        let failed = client
            .take_completed(oids[1])
            .expect("the second op failed");
        assert_eq!(failed.error, Some(StoreError::Timeout));
        for oid in [oids[0], oids[2], oids[3]] {
            let done = client.complete_sync(&mut server, oid).unwrap();
            assert_eq!((done.oid, done.status), (oid, Status::Ok));
        }
        assert_eq!(client.in_flight(), 0);
    }
}
