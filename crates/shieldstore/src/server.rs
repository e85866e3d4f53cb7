//! The ShieldStore server.
//!
//! State layout (after Kim et al., as summarized in the Precursor paper
//! §5.1–§5.4): encrypted key-value entries live in *untrusted* memory,
//! chained per hash bucket, each carrying a MAC; the enclave holds a
//! statically allocated array of bucket hashes plus a Merkle tree whose root
//! authenticates everything. All request processing — transport decryption,
//! entry en/decryption, MAC and tree maintenance — happens inside the
//! enclave (the server-encryption scheme).

use std::sync::Arc;

use precursor_crypto::keys::{Key128, Tag};
use precursor_crypto::{cmac, gcm, sha256};
use precursor_obs::MetricsRegistry;
use precursor_rdma::tcp::SimTcp;
use precursor_sgx::attest::AttestationService;
use precursor_sgx::enclave::{Enclave, RegionId};
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::rng::SimRng;
use precursor_sim::{CostModel, Event, Occupancy};

use crate::merkle::MerkleTree;
use crate::wire::{
    decode_request, encode_reply, frame_sealed, unframe_sealed, ShieldOp, ShieldStatus,
};

/// ShieldStore configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShieldConfig {
    /// Functional hash-bucket count (power of two). The *modelled* enclave
    /// allocation is controlled separately by `modeled_*` below, so tests
    /// can run with a small functional table while the EPC numbers match
    /// the published ShieldStore footprint.
    pub num_buckets: usize,
    /// Modelled statically-allocated in-enclave bytes for the MAC/hash
    /// arrays (paper Table 1: ≈67.9 MiB at startup).
    pub modeled_static_bytes: u64,
    /// Modelled per-connection enclave scratch bytes, touched on first use
    /// (Table 1's 0→1-key jump of ≈194 pages).
    pub modeled_conn_bytes: u64,
    /// Modelled steady-state scratch touched under sustained load (Table 1's
    /// further +8 pages by 100 k keys).
    pub modeled_scratch_bytes: u64,
    /// Largest accepted key.
    pub max_key_bytes: usize,
    /// Largest accepted value.
    pub max_value_bytes: usize,
}

impl Default for ShieldConfig {
    fn default() -> ShieldConfig {
        ShieldConfig {
            num_buckets: 1 << 16,
            // 1008 pages of code/heap + 16384 pages of MAC array = 17392
            // pages — the paper's measured startup working set.
            modeled_static_bytes: (1008 + 16384) * 4096,
            modeled_conn_bytes: 194 * 4096,
            modeled_scratch_bytes: 8 * 4096,
            max_key_bytes: 256,
            max_value_bytes: 256 << 10,
        }
    }
}

/// Per-operation outcome + cost accounting (driver input).
#[derive(Debug, Clone)]
pub struct ShieldOpReport {
    /// Issuing client.
    pub client_id: u32,
    /// Operation kind.
    pub op: ShieldOp,
    /// Outcome.
    pub status: ShieldStatus,
    /// Plaintext value bytes involved.
    pub value_len: usize,
    /// Server-side cost charges.
    pub meter: Meter,
}

/// What a connecting client receives.
#[derive(Debug)]
pub struct ShieldClientBundle {
    /// Assigned client id.
    pub client_id: u32,
    /// Session key from the attestation handshake.
    pub session_key: Key128,
    /// Client end of the TCP connection.
    pub socket: SimTcp,
}

// An entry chained in an untrusted bucket.
#[derive(Debug, Clone)]
struct StoredEntry {
    key_hint: u64,   // hash for chain scanning (untrusted, non-secret)
    cipher: Vec<u8>, // GCM(key ‖ value) under the server storage key
    seq: u64,        // storage nonce counter
    mac: Tag,        // CMAC over cipher (feeds the bucket MAC)
}

#[derive(Debug)]
struct Session {
    session_key: Key128,
    socket: SimTcp, // server end
    expected_oid: u64,
    reply_seq: u64,
}

/// The ShieldStore server instance.
#[derive(Debug)]
pub struct ShieldServer {
    config: ShieldConfig,
    // One model for the server and every client it connects.
    cost: Arc<CostModel>,
    rng: SimRng,
    attestation: AttestationService,

    enclave: Enclave,
    static_region: RegionId,
    conn_region: RegionId,
    scratch_region: RegionId,
    conn_touched: bool,
    scratch_touched: bool,

    buckets: Vec<Vec<StoredEntry>>,
    tree: MerkleTree,
    storage_key: Key128,
    mac_key: Key128,
    storage_seq: u64,
    len: usize,

    sessions: Vec<Session>,
    reports: Vec<ShieldOpReport>,
    // Per-op metric taps (same backend-neutral namespace as the Precursor
    // server, so cross-backend metrics are directly comparable).
    obs: MetricsRegistry,
}

fn fx_hash(key: &[u8]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = precursor_storage_hash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

// A local copy of the FxHash mixer so this crate does not depend on
// precursor-storage for one function.
mod precursor_storage_hash {
    #[derive(Debug, Clone, Default)]
    pub struct FxHasher {
        state: u64,
    }
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    impl std::hash::Hasher for FxHasher {
        fn finish(&self) -> u64 {
            let mut z = self.state;
            z ^= z >> 32;
            z = z.wrapping_mul(0xd6e8_feb8_6659_fd93);
            z ^= z >> 32;
            z
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.state = (self.state.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
            }
        }
    }
}

impl ShieldServer {
    /// Creates a server; the enclave's static structures are touched at
    /// startup (the paper's 17,392-page initial working set, Table 1).
    pub fn new(config: ShieldConfig, cost: &CostModel) -> ShieldServer {
        assert!(
            config.num_buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        let mut rng = SimRng::seed_from(0xdead_beef_cafe_f00d);
        let attestation = AttestationService::new(&mut rng);
        let mut enclave = Enclave::new(cost);
        let static_region = enclave.alloc_region("shield-static", config.modeled_static_bytes);
        let conn_region = enclave.alloc_region("shield-conn", config.modeled_conn_bytes);
        let scratch_region = enclave.alloc_region("shield-scratch", config.modeled_scratch_bytes);
        let mut init_meter = Meter::new();
        enclave.touch_all(static_region, &mut init_meter, cost);

        ShieldServer {
            tree: MerkleTree::new(config.num_buckets),
            buckets: vec![Vec::new(); config.num_buckets],
            storage_key: Key128::generate(&mut rng),
            mac_key: Key128::generate(&mut rng),
            storage_seq: 0,
            len: 0,
            config,
            cost: Arc::new(cost.clone()),
            rng,
            attestation,
            enclave,
            static_region,
            conn_region,
            scratch_region,
            conn_touched: false,
            scratch_touched: false,
            sessions: Vec::new(),
            reports: Vec::new(),
            obs: MetricsRegistry::default(),
        }
    }

    /// The server-side metrics registry, fed on every finished op with the
    /// same backend-neutral namespace the Precursor server uses.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.obs
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cost model in use, which every client this server connects
    /// shares.
    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// sgx-perf style report (Table 1).
    pub fn sgx_report(&self) -> precursor_sgx::SgxPerfReport {
        self.enclave.report()
    }

    /// Admits a client over the modelled attestation handshake.
    pub fn add_client(&mut self, client_nonce: [u8; 16]) -> ShieldClientBundle {
        let client_id = self.sessions.len() as u32;
        let mut enclave_nonce = [0u8; 16];
        self.rng.fill_bytes(&mut enclave_nonce);
        let session_key = self
            .attestation
            .establish_session(
                &self.enclave,
                self.enclave.measurement(),
                client_nonce,
                enclave_nonce,
            )
            .expect("same-platform attestation succeeds");
        let (client_sock, server_sock) = SimTcp::pair();
        self.sessions.push(Session {
            session_key: session_key.clone(),
            socket: server_sock,
            expected_oid: 1,
            reply_seq: 1,
        });
        ShieldClientBundle {
            client_id,
            session_key,
            socket: client_sock,
        }
    }

    /// One sweep over all connections: drain, process, reply. Returns the
    /// number of requests processed.
    pub fn poll(&mut self) -> usize {
        let mut processed = 0;
        for idx in 0..self.sessions.len() {
            while let Some(msg) = self.sessions[idx].socket.recv() {
                self.process(idx, msg);
                processed += 1;
            }
        }
        processed
    }

    /// Takes accumulated per-op reports.
    pub fn take_reports(&mut self) -> Vec<ShieldOpReport> {
        std::mem::take(&mut self.reports)
    }

    fn process(&mut self, idx: usize, msg: Vec<u8>) {
        let mut meter = Meter::new();
        let cost = Arc::clone(&self.cost);
        // Kernel/TCP stack CPU cost for receiving the message: consumes
        // server-thread occupancy, but the paper's latency breakdown books
        // kernel time under "networking" (it overlaps the tcp_msg_latency
        // already charged on the network path), so it goes off the
        // request-visible critical path.
        let len = msg.len();
        meter.event(Stage::ServerOverhead, Event::TcpMsg { len }, 1, &cost);

        // Whole request is copied into the enclave and transport-decrypted.
        self.enclave
            .copy_across_boundary(msg.len(), &mut meter, &cost);
        meter.event(Stage::Enclave, Event::Gcm { len }, 1, &cost);
        if !self.conn_touched {
            self.conn_touched = true;
            self.enclave.touch_all(self.conn_region, &mut meter, &cost);
        }

        let session_key = self.sessions[idx].session_key.clone();
        let (op, status, value_len, reply_plain) = match unframe_sealed(&msg)
            .and_then(|(iv, sealed)| gcm::open(&session_key, &iv, &[], sealed).ok())
        {
            None => (ShieldOp::Get, ShieldStatus::Error, 0, Vec::new()),
            Some(plain) => match decode_request(&plain) {
                None => (ShieldOp::Get, ShieldStatus::Error, 0, Vec::new()),
                Some((op, oid, key, value)) => {
                    if oid != self.sessions[idx].expected_oid {
                        (op, ShieldStatus::Error, 0, Vec::new())
                    } else if key.len() > self.config.max_key_bytes
                        || value.len() > self.config.max_value_bytes
                    {
                        self.sessions[idx].expected_oid += 1;
                        (op, ShieldStatus::Error, 0, Vec::new())
                    } else {
                        self.sessions[idx].expected_oid += 1;
                        let key = key.to_vec();
                        let value = value.to_vec();
                        match op {
                            ShieldOp::Put => {
                                let st = self.do_put(&key, &value, &mut meter);
                                (op, st, value.len(), Vec::new())
                            }
                            ShieldOp::Get => match self.do_get(&key, &mut meter) {
                                Some(v) => {
                                    let len = v.len();
                                    (op, ShieldStatus::Ok, len, v)
                                }
                                None => (op, ShieldStatus::NotFound, 0, Vec::new()),
                            },
                            ShieldOp::Delete => {
                                let st = self.do_delete(&key, &mut meter);
                                (op, st, 0, Vec::new())
                            }
                        }
                    }
                }
            },
        };

        if self.len >= 10_000 && !self.scratch_touched {
            self.scratch_touched = true;
            self.enclave
                .touch_all(self.scratch_region, &mut meter, &cost);
        }

        // Fixed per-op occupancy (fitted to Fig. 4's ≈120 Kops; DESIGN.md §4).
        let fixed = Occupancy::ShieldStore {
            put: op == ShieldOp::Put,
        };
        meter.event(Stage::ServerCritical, Event::FixedCritical(fixed), 1, &cost);
        meter.event(Stage::ServerOverhead, Event::FixedOverhead(fixed), 1, &cost);

        // Seal + send the reply (transport encryption of status ‖ value).
        let session = &mut self.sessions[idx];
        let seq = session.reply_seq;
        session.reply_seq += 1;
        let mut ivb = [0u8; 12];
        ivb[0] = 0x02;
        ivb[4..].copy_from_slice(&seq.to_be_bytes());
        let iv = precursor_crypto::Nonce12::from_bytes(ivb);
        let plain = encode_reply(status, &reply_plain);
        let len = plain.len();
        meter.event(Stage::Enclave, Event::Gcm { len }, 1, &cost);
        self.enclave.copy_across_boundary(len, &mut meter, &cost);
        let sealed = gcm::seal(&session.session_key, &iv, &[], &plain);
        let framed = frame_sealed(&iv, &sealed);
        let len = framed.len();
        meter.event(Stage::ServerOverhead, Event::TcpMsg { len }, 1, &cost);
        meter.event(Stage::ServerOverhead, Event::Tx { len }, 1, &cost);
        session.socket.send(&framed);

        // Metric tap: every finished op passes here, mirroring the
        // Precursor server's push_report choke point.
        self.obs.inc(
            match op {
                ShieldOp::Put => "ops.put",
                ShieldOp::Get => "ops.get",
                ShieldOp::Delete => "ops.delete",
            },
            1,
        );
        self.obs.inc(
            match status {
                ShieldStatus::Ok => "status.ok",
                ShieldStatus::NotFound => "status.not_found",
                ShieldStatus::Error => "status.error",
            },
            1,
        );
        precursor_obs::observe_meter(&mut self.obs, &meter);

        self.reports.push(ShieldOpReport {
            client_id: idx as u32,
            op,
            status,
            value_len,
            meter,
        });
    }

    fn bucket_index(&self, key: &[u8]) -> usize {
        (fx_hash(key) as usize) & (self.config.num_buckets - 1)
    }

    fn seal_entry(&mut self, key: &[u8], value: &[u8], meter: &mut Meter) -> StoredEntry {
        let cost = Arc::clone(&self.cost);
        self.storage_seq += 1;
        let seq = self.storage_seq;
        let mut plain = Vec::with_capacity(2 + key.len() + value.len());
        plain.extend_from_slice(&(key.len() as u16).to_le_bytes());
        plain.extend_from_slice(key);
        plain.extend_from_slice(value);
        meter.event(Stage::Enclave, Event::Gcm { len: plain.len() }, 1, &cost);
        let cipher = gcm::seal(
            &self.storage_key,
            &precursor_crypto::Nonce12::from_counter(seq),
            &[],
            &plain,
        );
        meter.event(Stage::Enclave, Event::Cmac { len: cipher.len() }, 1, &cost);
        let mac = cmac::mac(&self.mac_key, &cipher);
        // Entry leaves the enclave into the untrusted chain.
        self.enclave
            .copy_across_boundary(cipher.len(), meter, &cost);
        StoredEntry {
            key_hint: fx_hash(key),
            cipher,
            seq,
            mac,
        }
    }

    fn open_entry(&self, entry: &StoredEntry) -> Option<(Vec<u8>, Vec<u8>)> {
        let plain = gcm::open(
            &self.storage_key,
            &precursor_crypto::Nonce12::from_counter(entry.seq),
            &[],
            &entry.cipher,
        )
        .ok()?;
        if plain.len() < 2 {
            return None;
        }
        let key_len = u16::from_le_bytes(plain[..2].try_into().ok()?) as usize;
        if plain.len() < 2 + key_len {
            return None;
        }
        Some((
            plain[2..2 + key_len].to_vec(),
            plain[2 + key_len..].to_vec(),
        ))
    }

    // Recompute the bucket MAC (CMAC over the chain's entry MACs), hash it
    // into the leaf, and update the Merkle path — the per-put tree
    // maintenance the paper describes (§5.2).
    fn refresh_bucket(&mut self, b: usize, meter: &mut Meter) {
        let cost = Arc::clone(&self.cost);
        let mut macs = Vec::with_capacity(self.buckets[b].len() * 16);
        for e in &self.buckets[b] {
            macs.extend_from_slice(e.mac.as_bytes());
        }
        meter.event(Stage::Enclave, Event::Cmac { len: macs.len() }, 1, &cost);
        let bucket_mac = cmac::mac(&self.mac_key, &macs);
        meter.event(Stage::Enclave, Event::Sha256 { len: 16 }, 1, &cost);
        let leaf = sha256::digest(bucket_mac.as_bytes());
        let hashes = self.tree.update(b, leaf) as u64;
        meter.event(Stage::Enclave, Event::Sha256 { len: 64 }, hashes, &cost);
        // Touch the bucket's hash slot in the static region.
        self.enclave.touch(
            self.static_region,
            (b as u64 * 16) % self.config.modeled_static_bytes,
            16,
            meter,
            &cost,
        );
    }

    // Verify a bucket, charging the MAC-list recomputation and one hash.
    // ShieldStore keeps the entire bucket-hash level *inside* the enclave
    // (that is what its ≈68 MiB static allocation holds), so a get compares
    // the recomputed bucket hash against the in-enclave copy directly — no
    // path walk; only puts maintain the tree (§5.2: "it reads the bucket
    // MAC lists, recomputes a hash over it, then compares it with the root
    // tree").
    fn verify_bucket(&mut self, b: usize, meter: &mut Meter) -> bool {
        let cost = Arc::clone(&self.cost);
        let mut macs = Vec::with_capacity(self.buckets[b].len() * 16);
        for e in &self.buckets[b] {
            macs.extend_from_slice(e.mac.as_bytes());
        }
        meter.event(Stage::Enclave, Event::Cmac { len: macs.len() }, 1, &cost);
        let bucket_mac = cmac::mac(&self.mac_key, &macs);
        let leaf = sha256::digest(bucket_mac.as_bytes());
        meter.event(Stage::Enclave, Event::Sha256 { len: 16 }, 1, &cost);
        self.tree.leaf(b) == leaf
    }

    fn do_put(&mut self, key: &[u8], value: &[u8], meter: &mut Meter) -> ShieldStatus {
        let cost = Arc::clone(&self.cost);
        let b = self.bucket_index(key);
        let hint = fx_hash(key);
        // Scan the chain for an existing key: each candidate entry must be
        // decrypted to compare keys (charged per entry).
        let mut found = None;
        for (i, e) in self.buckets[b].iter().enumerate() {
            if e.key_hint != hint {
                continue;
            }
            let len = e.cipher.len();
            meter.event(Stage::Enclave, Event::Gcm { len }, 1, &cost);
            if let Some((k, _)) = self.open_entry(e) {
                if k == key {
                    found = Some(i);
                    break;
                }
            }
        }
        let entry = self.seal_entry(key, value, meter);
        match found {
            Some(i) => self.buckets[b][i] = entry,
            None => {
                self.buckets[b].push(entry);
                self.len += 1;
            }
        }
        self.refresh_bucket(b, meter);
        ShieldStatus::Ok
    }

    fn do_get(&mut self, key: &[u8], meter: &mut Meter) -> Option<Vec<u8>> {
        let cost = Arc::clone(&self.cost);
        let b = self.bucket_index(key);
        if !self.verify_bucket(b, meter) {
            return None;
        }
        let hint = fx_hash(key);
        // "Decrypt all entries in a bucket, search for the corresponding
        // key": charge a key-portion decryption per chain entry, plus the
        // full value decryption for the match.
        let chain_len = self.buckets[b].len() as u64;
        meter.event(Stage::Enclave, Event::Gcm { len: 48 }, chain_len, &cost);
        let mut value = None;
        for e in &self.buckets[b] {
            if e.key_hint != hint {
                continue;
            }
            if let Some((k, v)) = self.open_entry(e) {
                if k == key {
                    meter.event(Stage::Enclave, Event::Gcm { len: v.len() }, 1, &cost);
                    value = Some(v);
                    break;
                }
            }
        }
        value
    }

    fn do_delete(&mut self, key: &[u8], meter: &mut Meter) -> ShieldStatus {
        let cost = Arc::clone(&self.cost);
        let b = self.bucket_index(key);
        let hint = fx_hash(key);
        let mut idx = None;
        for (i, e) in self.buckets[b].iter().enumerate() {
            if e.key_hint != hint {
                continue;
            }
            let len = e.cipher.len();
            meter.event(Stage::Enclave, Event::Gcm { len }, 1, &cost);
            if let Some((k, _)) = self.open_entry(e) {
                if k == key {
                    idx = Some(i);
                    break;
                }
            }
        }
        match idx {
            Some(i) => {
                self.buckets[b].remove(i);
                self.len -= 1;
                self.refresh_bucket(b, meter);
                ShieldStatus::Ok
            }
            None => ShieldStatus::NotFound,
        }
    }

    /// Tamper hook mirroring the Precursor server's: flips a bit in the
    /// untrusted stored ciphertext of `key`. Returns `false` if absent.
    pub fn corrupt_stored_entry(&mut self, key: &[u8]) -> bool {
        let b = self.bucket_index(key);
        let hint = fx_hash(key);
        let entries: Vec<usize> = self.buckets[b]
            .iter()
            .enumerate()
            .filter(|(_, e)| e.key_hint == hint)
            .map(|(i, _)| i)
            .collect();
        for i in entries {
            if let Some((k, _)) = self.open_entry(&self.buckets[b][i]) {
                if k == key {
                    self.buckets[b][i].cipher[0] ^= 1;
                    return true;
                }
            }
        }
        false
    }

    /// Server-side integrity audit of a stored key (decryption under the
    /// storage key + chain MAC check). `None` if the key is absent.
    pub fn audit_key(&mut self, key: &[u8]) -> Option<bool> {
        let b = self.bucket_index(key);
        let hint = fx_hash(key);
        for e in &self.buckets[b] {
            if e.key_hint != hint {
                continue;
            }
            let mac_ok = cmac::verify(&self.mac_key, &e.cipher, &e.mac);
            match self.open_entry(e) {
                Some((k, _)) if k == key => return Some(mac_ok),
                Some(_) => continue,
                None => return Some(false), // undecryptable = tampered
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_working_set_matches_table_1() {
        let cost = CostModel::default();
        let server = ShieldServer::new(ShieldConfig::default(), &cost);
        assert_eq!(server.sgx_report().working_set_pages, 17392);
    }

    #[test]
    fn startup_is_oversubscribed_never() {
        // ShieldStore sizes its static structures to fit the EPC; the model
        // must agree (paper: "not affected by EPC paging").
        let cost = CostModel::default();
        let server = ShieldServer::new(ShieldConfig::default(), &cost);
        let r = server.sgx_report();
        assert!(r.working_set_pages <= r.epc_capacity_pages);
    }

    #[test]
    fn small_config_for_unit_tests() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 64,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        assert_eq!(server.do_put(b"k", b"v", &mut meter), ShieldStatus::Ok);
        assert_eq!(server.do_get(b"k", &mut meter), Some(b"v".to_vec()));
        assert_eq!(server.do_get(b"missing", &mut meter), None);
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn put_overwrites_in_place() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 64,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        server.do_put(b"k", b"v1", &mut meter);
        server.do_put(b"k", b"v2", &mut meter);
        assert_eq!(server.len(), 1);
        assert_eq!(server.do_get(b"k", &mut meter), Some(b"v2".to_vec()));
    }

    #[test]
    fn delete_updates_chain_and_tree() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 4, // force chains
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        for i in 0..32u32 {
            server.do_put(&i.to_le_bytes(), b"v", &mut meter);
        }
        assert_eq!(
            server.do_delete(&5u32.to_le_bytes(), &mut meter),
            ShieldStatus::Ok
        );
        assert_eq!(
            server.do_delete(&5u32.to_le_bytes(), &mut meter),
            ShieldStatus::NotFound
        );
        assert_eq!(server.do_get(&5u32.to_le_bytes(), &mut meter), None);
        assert_eq!(
            server.do_get(&6u32.to_le_bytes(), &mut meter),
            Some(b"v".to_vec())
        );
        assert_eq!(server.len(), 31);
    }

    #[test]
    fn tampered_entry_detected_by_audit() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 64,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        server.do_put(b"k", b"value", &mut meter);
        assert_eq!(server.audit_key(b"k"), Some(true));
        assert!(server.corrupt_stored_entry(b"k"));
        assert_eq!(server.audit_key(b"k"), Some(false));
    }

    #[test]
    fn chained_buckets_hold_many_colliding_keys() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 2,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        for i in 0..100u32 {
            server.do_put(&i.to_le_bytes(), &i.to_le_bytes(), &mut meter);
        }
        for i in 0..100u32 {
            assert_eq!(
                server.do_get(&i.to_le_bytes(), &mut meter),
                Some(i.to_le_bytes().to_vec())
            );
        }
    }

    #[test]
    fn get_cost_grows_with_chain_length() {
        let cost = CostModel::default();
        let config = ShieldConfig {
            num_buckets: 2,
            ..ShieldConfig::default()
        };
        let mut server = ShieldServer::new(config, &cost);
        let mut meter = Meter::new();
        server.do_put(b"first", b"v", &mut meter);
        let mut short_meter = Meter::new();
        server.do_get(b"first", &mut short_meter);
        for i in 0..200u32 {
            server.do_put(&i.to_le_bytes(), b"v", &mut meter);
        }
        let mut long_meter = Meter::new();
        server.do_get(b"first", &mut long_meter);
        assert!(
            long_meter.get(Stage::Enclave) > short_meter.get(Stage::Enclave) * 2,
            "long chains must cost more: {} vs {}",
            short_meter.get(Stage::Enclave),
            long_meter.get(Stage::Enclave)
        );
    }
}
