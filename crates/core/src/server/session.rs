//! Session stage: client admission, reconnection, revocation, and the
//! untrusted host's attachment (its plan, live moves and audit log).
//!
//! Owns [`SessionStage`] — every trusted per-client session (key, reply MAC
//! chain, at-most-once [`Window`], which no other module reads or writes),
//! the windows recovery restored for clients not yet re-attested, the
//! attestation service, and the enclave region holding per-client state.
//! Admission and reconnection differ only in the window they open.

use std::sync::MutexGuard;

use precursor_crypto::chain::MacChain;
use precursor_crypto::gcm::GcmKey;
use precursor_rdma::host::{Host, HostAct, HostMove, HostPlan};
use precursor_rdma::mr::Memory;
use precursor_rdma::plock;
use precursor_rdma::qp::connect_pair;
use precursor_sgx::attest::{derive_chain_key, AttestationService};
use precursor_sgx::enclave::RegionId;
use precursor_sim::meter::Meter;
use precursor_storage::ring::{RingConsumer, RingProducer, RingStore, RingWrites};
use precursor_storage::robinhood::stable_key_hash;

use crate::error::StoreError;
use crate::snapshot::take;
use crate::wire::{chain_context, Status};

use super::ingress::ClientPort;
use super::{ClientBundle, PrecursorServer};

/// A client's at-most-once window: the oid the enclave admits next
/// (Algorithm 2), the status of the last executed operation (so a
/// retransmission of it is re-acknowledged, never re-executed) and the
/// connection epoch. Encoded as `oid u64 LE | status u8 | epoch u32 LE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Window {
    expected_oid: u64,
    last_status: Status,
    epoch: u32,
    // Restored by recovery, which misses the oids of gets and redirects:
    // the first request under the session key moves `expected_oid` up.
    resumed_behind: bool,
}

/// What [`Window::admit`] makes of an oid: the expected one is fresh, the
/// previous one a retransmission after a lost reply, any other a reject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Admit {
    Fresh,
    Retransmit,
    Reject,
}

impl Window {
    /// A new client's window: oid 1, epoch 1.
    pub(super) const FRESH: Window = Window {
        expected_oid: 1,
        last_status: Status::Ok,
        epoch: 1,
        resumed_behind: false,
    };

    /// Admits `oid`. The previous oid is tolerated as a retransmission
    /// (oid 0 never is); a fresh oid advances the window.
    pub(super) fn admit(&mut self, oid: u64) -> Admit {
        if self.resumed_behind {
            self.resumed_behind = false;
            self.expected_oid = self.expected_oid.max(oid);
        }
        // Oids are the client's to choose: they wrap rather than overflow.
        if oid == self.expected_oid {
            self.expected_oid = oid.wrapping_add(1);
            Admit::Fresh
        } else if oid != 0 && oid.wrapping_add(1) == self.expected_oid {
            Admit::Retransmit
        } else {
            Admit::Reject
        }
    }

    /// Caches the status of the operation the window last admitted.
    pub(super) fn executed(&mut self, status: Status) {
        self.last_status = status;
    }

    /// The cached status a retransmission is re-acknowledged from.
    pub(super) fn cached_status(&self) -> Status {
        self.last_status
    }

    /// Replays a journaled put or delete of `oid`: it executed, so the
    /// window expects the next oid.
    pub(super) fn replay(&mut self, oid: u64) {
        self.expected_oid = oid.wrapping_add(1);
        self.last_status = Status::Ok;
    }

    /// Resumes the window in a fresh connection epoch (the reply MAC chain
    /// re-keys, so no reply of an earlier epoch verifies again). A window
    /// recovery `restored` stays behind until its client's first request.
    pub(super) fn resume(&mut self, restored: bool) {
        self.epoch += 1;
        self.resumed_behind |= restored;
    }

    /// The connection epoch.
    pub(super) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Appends the window's 13 bytes.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.expected_oid.to_le_bytes());
        out.push(self.last_status as u8);
        out.extend_from_slice(&self.epoch.to_le_bytes());
    }

    /// Decodes the window encoded at `pos`.
    pub(crate) fn decode_from(buf: &[u8], pos: &mut usize) -> Result<Window, StoreError> {
        let expected_oid = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let last_status =
            Status::from_u8(take(buf, pos, 1)?[0]).ok_or(StoreError::MalformedFrame)?;
        let epoch = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4"));
        Ok(Window {
            expected_oid,
            last_status,
            epoch,
            resumed_behind: false,
        })
    }
}

// Trusted per-client session state.
#[derive(Debug)]
pub(super) struct Session {
    // `K_session`, expanded once per attestation: every control open and
    // reply seal of the session uses it.
    pub(super) session_key: GcmKey,
    pub(super) reply_seq: u64,
    /// Reply MAC chain, advanced once per sealed reply in `reply_seq`
    /// order; its tag rides in every reply control.
    pub(super) chain: MacChain,
    pub(super) window: Window,
}

// Session-stage state: every trusted per-client session plus the platform
// attestation service.
#[derive(Debug)]
pub(super) struct SessionStage {
    pub(super) list: Vec<Session>,
    // Windows recovered from a sealed snapshot and the journal, indexed by
    // client_id; `reconnect_client` resumes them after a restart.
    pub(super) saved: Vec<Window>,
    pub(super) attestation: AttestationService,
    // modelled enclave region holding per-client trusted state (oid slots)
    pub(super) client_region: RegionId,
}

impl SessionStage {
    /// Every window the server knows, indexed by client_id: the live
    /// sessions', then the recovered ones of clients not yet re-attested.
    pub(super) fn windows(&self) -> impl Iterator<Item = &Window> {
        let live = self.list.iter().map(|s| &s.window);
        live.chain(self.saved.iter().skip(self.list.len()))
    }

    /// `client_id`'s recovered window, for journal replay to update.
    pub(super) fn restored(&mut self, client_id: u32) -> &mut Window {
        let idx = client_id as usize;
        if self.saved.len() <= idx {
            self.saved.resize(idx + 1, Window::FRESH);
        }
        &mut self.saved[idx]
    }
}

impl PrecursorServer {
    /// Attaches the untrusted host executing `plan`, seeded from `seed`:
    /// every queue pair this server has connected or will connect, its
    /// durable writes, its reply records and its payload memory pass
    /// through it from here on, and so do a cluster's migration shipments
    /// out of this node. Every move it makes is recorded in
    /// [`host_log`](Self::host_log) so tests can assert each one ended in
    /// recovery, a typed error or a client-side detection. A previously
    /// attached host is replaced, its log with it.
    pub fn set_host_plan(&mut self, plan: HostPlan, seed: u64) {
        let host = Host::shared(plan, seed);
        for port in self.ingress.ports.iter().flatten() {
            port.qp.set_host(Some(host.clone()));
        }
        self.host = Some(host);
    }

    /// The attached host, locked — to [`arm`](Host::arm) a move on it live
    /// — or `None` for an honest one.
    pub fn host(&self) -> Option<MutexGuard<'_, Host>> {
        self.host.as_deref().map(plock)
    }

    /// A copy of the host's audit log, faults and attacks in the order they
    /// were made (empty without a host).
    pub fn host_log(&self) -> Vec<HostAct> {
        self.host().map_or_else(Vec::new, |h| h.log().to_vec())
    }

    /// Records a harness-staged attack (rollback via a stale snapshot, fork
    /// via a cloned platform) in the host's audit log, so every move flows
    /// through one log; attaches an empty host first if none is.
    pub fn note_attack(&mut self, mv: HostMove, client: Option<u32>) {
        if self.host.is_none() {
            self.set_host_plan(HostPlan::none(), 0);
        }
        if let Some(mut host) = self.host() {
            host.note_attack(mv, client);
        }
    }

    /// Admits a new client: performs the modelled attestation handshake
    /// (§3.6), allocates its rings, and returns the bundle the client needs.
    /// This is one of the paper's three ecalls ("add a new client", §4).
    ///
    /// # Errors
    ///
    /// [`StoreError::TooManyClients`] beyond the configured limit;
    /// [`StoreError::AttestationFailed`] if the handshake fails.
    pub fn add_client(&mut self, client_nonce: [u8; 16]) -> Result<ClientBundle, StoreError> {
        if self.ingress.ports.len() >= self.config.max_clients {
            return Err(StoreError::TooManyClients);
        }
        let client_id = self.ingress.ports.len() as u32;
        self.open_session(client_id, client_nonce, Window::FRESH)
    }

    /// Re-admits a known client after a transport failure or a server
    /// restart: runs the attestation handshake again (fresh session key and
    /// rings) while the trusted per-client window is *preserved*, either
    /// from the live session or from the state recovered out of a sealed
    /// snapshot and the journal. An operation that executed right before
    /// the failure is therefore re-acknowledged, never re-applied. A
    /// recovered window lags the oids gets and redirects consumed: the
    /// client's first request, which only it can seal, moves it up.
    ///
    /// After a crash-restart, clients must reconnect in ascending
    /// `client_id` order (ids index the port table).
    ///
    /// # Errors
    ///
    /// [`StoreError::SessionLost`] for an unknown client id;
    /// [`StoreError::AttestationFailed`] if the handshake fails.
    pub fn reconnect_client(
        &mut self,
        client_id: u32,
        client_nonce: [u8; 16],
    ) -> Result<ClientBundle, StoreError> {
        let (idx, live) = (client_id as usize, self.sessions.list.len());
        let mut window = match self.sessions.windows().nth(idx) {
            Some(&window) if idx <= live => window,
            _ => return Err(StoreError::SessionLost),
        };
        window.resume(idx == live);
        self.open_session(client_id, client_nonce, window)
    }

    // Opens client `client_id`'s session on `window`: the "add a new
    // client" ecall and session-key handshake (§3.6), a fresh QP pair and
    // rings, the epoch's reply MAC chain, the client's trusted oid slot,
    // and the `SESSION` record that lets failover reconstruct the window.
    fn open_session(
        &mut self,
        client_id: u32,
        client_nonce: [u8; 16],
        window: Window,
    ) -> Result<ClientBundle, StoreError> {
        let mut meter = Meter::new();
        self.enclave.ecall(&mut meter, &self.cost);
        let mut enclave_nonce = [0u8; 16];
        self.rng.fill_bytes(&mut enclave_nonce);
        let session_key = self
            .sessions
            .attestation
            .establish_session(
                &self.enclave,
                self.enclave.measurement(),
                client_nonce,
                enclave_nonce,
            )
            .map_err(|_| StoreError::AttestationFailed)?;

        // The untrusted half: a QP pair (through the host when one is
        // attached), then rings and credit words. Every delivered client
        // WRITE to the request ring marks the doorbell board, so sweeps
        // skip idle rings; both rings hold only what is in flight.
        let (client_end, server_end) = connect_pair(self.cost.rdma_inline_max);
        if let Some(host) = &self.host {
            server_end.set_host(Some(host.clone()));
        }
        let request_ring = Memory::new(RingStore::new(self.config.ring_bytes));
        let request_ring_rkey = server_end.register_watched(
            request_ring.clone(),
            true,
            self.ingress.dirty_board.clone(),
            u64::from(client_id),
        );
        // Server-side reply-credit word, remotely writable by the client.
        let reply_credit = Memory::zeroed(8);
        let reply_credit_rkey = server_end.register(reply_credit.clone(), true);
        // Client-side reply ring + credit word, remotely writable by the
        // server.
        let reply_ring = Memory::new(RingStore::new(self.config.ring_bytes));
        let reply_ring_rkey = client_end.register(reply_ring.clone(), true);
        let credit_word = Memory::zeroed(8);
        let credit_rkey = client_end.register(credit_word.clone(), true);
        let port = ClientPort {
            qp: server_end,
            request_ring,
            request_consumer: RingConsumer::new(self.config.ring_bytes),
            reply_producer: RingProducer::new(self.config.ring_bytes),
            reply_ring_rkey,
            credit_rkey,
            reply_credit,
            last_reply: RingWrites::default(),
            last_reply_end: 0,
            last_credit: 0,
        };
        let bundle = ClientBundle {
            client_id,
            session_key: session_key.clone(),
            qp: client_end,
            request_ring_rkey,
            reply_ring,
            credit_word,
            reply_credit_rkey,
            ring_bytes: self.config.ring_bytes,
            mode: self.config.mode,
            expected_oid: window.expected_oid,
            epoch: window.epoch,
        };

        let chain = MacChain::new(
            &derive_chain_key(&session_key, window.epoch),
            &chain_context(client_id, window.epoch),
        );
        let session = Session {
            session_key: GcmKey::new(&session_key),
            reply_seq: 1,
            chain,
            window,
        };
        // A Reorder attack must not hold a record across sessions.
        if let Some(mut host) = self.host() {
            host.release_held(client_id);
        }
        let idx = client_id as usize;
        if idx < self.sessions.list.len() {
            self.sessions.list[idx] = session;
            self.ingress.ports[idx] = Some(port);
        } else {
            self.sessions.list.push(session);
            self.ingress.ports.push(Some(port));
        }
        if self.store.pool_used.len() <= idx {
            self.store.pool_used.resize(idx + 1, 0);
        }
        self.enclave.touch(
            self.sessions.client_region,
            client_id as u64 * 64,
            64,
            &mut meter,
            &self.cost,
        );
        self.journal_session(client_id, &window);
        Ok(bundle)
    }

    // Evicts `key` (journalled, pool slot freed) if it is stored: a revoked
    // client's entry, or the source's copy of a key whose ring segment a
    // migration fence just handed to another node.
    pub(crate) fn evict_entry(&mut self, key: &[u8]) {
        if self
            .store
            .table_remove(
                self.host.as_deref(),
                &self.config,
                stable_key_hash(key),
                key,
            )
            .0
        {
            self.journal_evict(key);
        }
    }

    /// Revokes a client: its QP transitions to the error state (§3.9), its
    /// requests are no longer processed, and every resource it held is
    /// reclaimed — its stored entries are evicted (pool slots freed), its
    /// rings and registered memory are dropped, and its quota charge is
    /// zeroed. The client id itself is retired, never recycled; the client
    /// may later [`reconnect_client`](Self::reconnect_client).
    pub fn revoke_client(&mut self, client_id: u32) {
        let idx = client_id as usize;
        if let Some(Some(port)) = self.ingress.ports.get(idx) {
            port.qp.set_error();
        }
        // Evict the revoked client's entries: its data does not outlive the
        // session, and the pool slots return to the free lists.
        let keys: Vec<Vec<u8>> = self
            .store
            .table
            .iter()
            .filter(|(_, meta)| meta.client_id == client_id)
            .map(|(key, _)| key.to_vec())
            .collect();
        for key in keys {
            self.evict_entry(&key);
        }
        if let Some(mut host) = self.host() {
            host.release_held(client_id);
        }
        // Drop the rings, MRs and QP end (frees the untrusted footprint).
        if let Some(slot) = self.ingress.ports.get_mut(idx) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A window recovery restored, resumed on reconnect.
    fn restored(expected_oid: u64) -> Window {
        let mut w = Window {
            expected_oid,
            ..Window::FRESH
        };
        w.resume(true);
        w
    }

    #[test]
    fn admit_runs_fresh_retransmit_and_reject() {
        let mut w = Window::FRESH;
        assert_eq!(w.admit(1), Admit::Fresh);
        assert_eq!(w.expected_oid, 2);
        assert_eq!(w.admit(1), Admit::Retransmit, "the previous oid");
        assert_eq!(w.admit(3), Admit::Reject, "ahead");
        assert_eq!(w.admit(2), Admit::Fresh);
        assert_eq!(w.admit(1), Admit::Reject, "two behind");
        assert_eq!(w.expected_oid, 3, "neither a retransmit nor a reject moves");
    }

    #[test]
    fn oid_zero_is_never_a_retransmit() {
        let mut w = Window::FRESH;
        assert_eq!(w.admit(0), Admit::Reject);
        assert_eq!(w.expected_oid, 1);
    }

    // A client seals any oid it likes: the top one must not overflow the
    // window (a panic in a debug build).
    #[test]
    fn the_top_oid_wraps_the_window_instead_of_overflowing_it() {
        let mut w = Window::FRESH;
        assert_eq!(w.admit(u64::MAX), Admit::Reject);
        let mut w = restored(1);
        assert_eq!(w.admit(u64::MAX), Admit::Fresh);
        assert_eq!(w.expected_oid, 0);
        assert_eq!(w.admit(u64::MAX), Admit::Retransmit);
        w.replay(u64::MAX);
        assert_eq!(w.expected_oid, 0);
    }

    #[test]
    fn a_restored_window_moves_up_once_and_never_down() {
        let mut w = restored(5);
        assert_eq!(w.admit(9), Admit::Fresh, "the client's own oid");
        assert_eq!(w.expected_oid, 10);
        assert_eq!(
            w.admit(12),
            Admit::Reject,
            "only the first request moves it"
        );

        let mut w = restored(5);
        assert_eq!(w.admit(3), Admit::Reject, "never down");
        assert_eq!(w.admit(4), Admit::Retransmit);

        let mut live = Window::FRESH;
        live.resume(false);
        assert_eq!(live.admit(5), Admit::Reject, "a live window does not move");
    }

    #[test]
    fn a_replayed_op_is_retransmitted_and_its_successor_fresh() {
        let mut w = restored(1);
        w.executed(Status::NotFound);
        w.replay(7);
        assert_eq!(w.cached_status(), Status::Ok);
        assert_eq!(w.admit(7), Admit::Retransmit);
        assert_eq!(w.admit(8), Admit::Fresh);
        w.executed(Status::NotFound);
        assert_eq!(w.cached_status(), Status::NotFound);
    }

    #[test]
    fn resume_bumps_only_the_epoch() {
        let mut w = Window::FRESH;
        w.executed(Status::NotFound);
        w.resume(false);
        assert_eq!(w.epoch(), 2);
        assert_eq!((w.expected_oid, w.cached_status()), (1, Status::NotFound));
        w.resume(true);
        assert_eq!(w.epoch(), 3);
    }

    #[test]
    fn the_codec_is_pinned_and_round_trips() {
        let w = Window {
            expected_oid: 0x0102_0304_0506_0708,
            last_status: Status::NotFound,
            epoch: 0x0a0b_0c0d,
            resumed_behind: false,
        };
        let mut bytes = Vec::new();
        w.encode_into(&mut bytes);
        // oid u64 LE | status u8 | epoch u32 LE: the journal's SESSION body
        // (after its client_id) and the snapshot header both hold it.
        let pinned = [8, 7, 6, 5, 4, 3, 2, 1, 1, 0x0d, 0x0c, 0x0b, 0x0a];
        assert_eq!(bytes, pinned);
        let mut pos = 0;
        assert_eq!(Window::decode_from(&bytes, &mut pos), Ok(w));
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn decode_rejects_an_unknown_status_and_a_short_buffer() {
        let mut bytes = Vec::new();
        Window::FRESH.encode_into(&mut bytes);
        bytes[8] = 0xff;
        let err = Window::decode_from(&bytes, &mut 0).unwrap_err();
        assert_eq!(err, StoreError::MalformedFrame);
        assert!(Window::decode_from(&bytes[..12], &mut 0).is_err());
    }
}
