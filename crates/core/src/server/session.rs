//! Session stage: client admission, reconnection, revocation, and the
//! fault/adversary installers (attack accounting).
//!
//! Owns [`SessionStage`] — the trusted per-client session windows
//! (`expected_oid`, `last_status`, reply MAC chain), the sealed-snapshot
//! session saves, the attestation service, and the modelled enclave region
//! holding per-client trusted state.

use precursor_crypto::chain::MacChain;
use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::Key128;
use precursor_rdma::adversary::{AdversaryInjector, AdversaryPlan, AttackClass, MountedAttack};
use precursor_rdma::faults::{FaultInjector, FaultPlan, InjectedFault};
use precursor_rdma::plock;
use precursor_sgx::attest::{derive_chain_key, AttestationService};
use precursor_sgx::enclave::RegionId;
use precursor_sim::meter::Meter;
use precursor_storage::robinhood::stable_key_hash;

use crate::error::StoreError;
use crate::wire::{chain_context, Status};

use super::{ClientBundle, PrecursorServer};

// Trusted per-client session state (expected oid per Algorithm 2, plus the
// at-most-once window: the status of the last executed operation, so a
// retransmission of it can be re-acknowledged without re-execution).
#[derive(Debug)]
pub(super) struct Session {
    // `K_session`, expanded once per attestation: every control open and
    // reply seal of the session uses it.
    pub(super) session_key: GcmKey,
    pub(super) expected_oid: u64,
    pub(super) reply_seq: u64,
    pub(super) active: bool,
    pub(super) last_status: Status,
    /// Connection epoch (see [`ClientBundle::epoch`]).
    pub(super) epoch: u32,
    /// Reply MAC chain, advanced once per sealed reply in `reply_seq`
    /// order; its tag rides in every reply control.
    pub(super) chain: MacChain,
    /// Resumed from a recovered window: the first request that opens under
    /// the session key moves `expected_oid` up to that request's oid.
    pub(super) resumed_behind: bool,
}

// Session-stage state: every trusted per-client window plus the platform
// attestation service.
#[derive(Debug)]
pub(super) struct SessionStage {
    pub(super) list: Vec<Session>,
    // session windows recovered from a sealed snapshot, indexed by
    // client_id; consumed by reconnect_client after a crash-restart
    pub(super) saved: Vec<(u64, Status, u32)>,
    pub(super) attestation: AttestationService,
    // modelled enclave region holding per-client trusted state (oid slots)
    pub(super) client_region: RegionId,
}

impl PrecursorServer {
    /// Installs a deterministic fault plan on the server's transport. Must
    /// be called **before** clients connect: only queue pairs created
    /// afterwards flow through the injector.
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = Some(FaultInjector::shared(plan, seed));
    }

    /// Number of faults injected so far (0 without a fault plan).
    pub fn injected_faults(&self) -> usize {
        self.faults.as_ref().map_or(0, |f| plock(f).injected())
    }

    /// A copy of the injector's audit log (empty without a fault plan).
    pub fn fault_log(&self) -> Vec<InjectedFault> {
        self.faults
            .as_ref()
            .map_or_else(Vec::new, |f| plock(f).log().to_vec())
    }

    /// Installs a deterministic Byzantine-host plan: the host software now
    /// tampers with untrusted payload bytes, replays stale reply records,
    /// reorders and duplicates ring records according to `plan`, seeded from
    /// `seed`. Every mounted attack is recorded in
    /// [`adversary_log`](Self::adversary_log) so tests can assert each one
    /// was *detected* client-side.
    pub fn set_adversary_plan(&mut self, plan: AdversaryPlan, seed: u64) {
        self.adversary = Some(AdversaryInjector::new(plan, seed));
    }

    /// Number of attacks mounted so far (0 without an adversary plan).
    pub fn mounted_attacks(&self) -> usize {
        self.adversary.as_ref().map_or(0, |a| a.mounted())
    }

    /// A copy of the adversary's audit log (empty without a plan).
    pub fn adversary_log(&self) -> Vec<MountedAttack> {
        self.adversary
            .as_ref()
            .map_or_else(Vec::new, |a| a.log().to_vec())
    }

    /// Records a harness-staged attack (rollback via a stale snapshot, fork
    /// via a cloned platform) in the adversary audit log, so all attack
    /// classes flow through one log. No-op without an adversary plan.
    pub fn note_attack(&mut self, class: AttackClass, client: Option<u32>) {
        if let Some(adv) = &mut self.adversary {
            adv.note_attack(class, client);
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

        // The "add a new client" ecall.
        let mut meter = Meter::new();
        let session_key = self.establish(client_nonce, &mut meter)?;
        let (port, bundle) = self.provision_port(client_id, &session_key);

        let epoch = 1;
        let chain = MacChain::new(
            &derive_chain_key(&session_key, epoch),
            &chain_context(client_id, epoch),
        );
        self.sessions.list.push(Session {
            session_key: GcmKey::new(&session_key),
            expected_oid: 1,
            reply_seq: 1,
            active: true,
            last_status: Status::Ok,
            epoch,
            chain,
            resumed_behind: false,
        });
        self.ingress.ports.push(Some(port));
        self.store.pool_used.push(0);
        // Per-client trusted state (oid slot) lives in the client region.
        self.enclave.touch(
            self.sessions.client_region,
            client_id as u64 * 64,
            64,
            &mut meter,
            &self.cost.clone(),
        );
        // Journal the admitted session's trusted window so failover
        // reconstructs the at-most-once state.
        self.journal_session(client_id);

        Ok(bundle)
    }

    /// Re-admits a known client after a transport failure or a server
    /// restart: runs the attestation handshake again (fresh session key and
    /// rings) while the trusted per-client window — `expected_oid` and the
    /// last operation's status — is *preserved*, either from the live
    /// session or from the state recovered out of a sealed snapshot. An
    /// operation that executed right before the failure is therefore
    /// re-acknowledged, never re-applied. A recovered window lags the oids
    /// gets and redirects consumed: the client's first request, which only
    /// it can seal, moves it up.
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
        let idx = client_id as usize;
        let (resumed, resumed_behind) = if let Some(live) = self.sessions.list.get(idx) {
            (
                (live.expected_oid, live.last_status, live.epoch),
                live.resumed_behind,
            )
        } else if idx == self.sessions.list.len() && idx < self.sessions.saved.len() {
            (self.sessions.saved[idx], true)
        } else {
            return Err(StoreError::SessionLost);
        };

        let mut meter = Meter::new();
        let session_key = self.establish(client_nonce, &mut meter)?;
        let (port, mut bundle) = self.provision_port(client_id, &session_key);
        bundle.expected_oid = resumed.0;
        // Fresh connection epoch: the reply MAC chain re-keys, so replies
        // sealed in any earlier epoch can never verify again.
        let epoch = resumed.2 + 1;
        bundle.epoch = epoch;
        let chain = MacChain::new(
            &derive_chain_key(&session_key, epoch),
            &chain_context(client_id, epoch),
        );
        let session = Session {
            session_key: GcmKey::new(&session_key),
            expected_oid: resumed.0,
            reply_seq: 1,
            active: true,
            last_status: resumed.1,
            epoch,
            chain,
            resumed_behind,
        };
        // A Reorder attack must not hold a record across sessions.
        if let Some(adv) = &mut self.adversary {
            adv.release_held(client_id);
        }
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
            &self.cost.clone(),
        );
        self.journal_session(client_id);
        Ok(bundle)
    }

    // The attestation half of client admission: one modelled ecall plus the
    // session-key handshake (§3.6).
    fn establish(
        &mut self,
        client_nonce: [u8; 16],
        meter: &mut Meter,
    ) -> Result<Key128, StoreError> {
        self.enclave.ecall(meter, &self.cost);
        let mut enclave_nonce = [0u8; 16];
        self.rng.fill_bytes(&mut enclave_nonce);
        self.sessions
            .attestation
            .establish_session(
                &self.enclave,
                self.enclave.measurement(),
                client_nonce,
                enclave_nonce,
            )
            .map_err(|_| StoreError::AttestationFailed)
    }

    // Evicts `key` (journalled, pool slot freed) if it is stored: a revoked
    // client's entry, or the source's copy of a key whose ring segment a
    // migration fence just handed to another node.
    pub(crate) fn evict_entry(&mut self, key: &[u8]) {
        if self
            .store
            .table_remove(&mut self.adversary, stable_key_hash(key), key)
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
        if let Some(s) = self.sessions.list.get_mut(idx) {
            s.active = false;
        }
        // Evict the revoked client's entries: its data does not outlive the
        // session, and the pool slots return to the free lists.
        let keys: Vec<Vec<u8>> = self
            .store
            .table
            .iter()
            .filter(|(_, meta)| meta.client_id == client_id)
            .map(|(key, _)| key.clone())
            .collect();
        for key in keys {
            self.evict_entry(&key);
        }
        if let Some(adv) = &mut self.adversary {
            adv.release_held(client_id);
        }
        // Drop the rings, MRs and QP end (frees the untrusted footprint).
        if let Some(slot) = self.ingress.ports.get_mut(idx) {
            *slot = None;
        }
    }
}
