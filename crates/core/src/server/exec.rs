//! Exec stage: per-opcode enclave execution against the Robin Hood shards.
//!
//! Owns [`StoreExec`] — the sharded enclave hash table, the untrusted
//! payload pool, the storage key/sequence of the server-encryption mode,
//! and the store-mutation evidence (sequence + digest). Execution turns a
//! validated request into a [`ReplyPlan`]; sealing the plan is the `seal`
//! stage's job, so that with several shards execution can run in shard order
//! while reply sequence numbers are still consumed in pop order.

use std::ops::Range;
use std::sync::Mutex;

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::{Key128, Key256, Nonce12, Nonce8, Tag};
use precursor_crypto::sha256::Sha256;
use precursor_crypto::{cmac, gcm};
use precursor_rdma::host::Host;
use precursor_rdma::mr::Memory;
use precursor_rdma::plock;
use precursor_sgx::enclave::{Enclave, RegionId};
use precursor_sim::meter::{Meter, Stage};
use precursor_sim::{CostModel, Event};
use precursor_storage::pool::{PoolRange, SlabPool};
use precursor_storage::robinhood::{shard_of_hash, stable_key_hash, OpStats, ShardedRobinHoodMap};

use crate::cluster::MovingRange;
use crate::config::{Config, EncryptionMode};
use crate::error::StoreError;
use crate::snapshot::{encode_record, DirtyKeys, EntryRef, SnapshotBody, SnapshotEntry};
use crate::wire::{payload_request_nonce, Opcode, RequestControlRef, Status};

use super::seal::StoreEvidence;
use super::{cmac_key_of, PrecursorServer, MODEL_SLOT_BYTES};

// Where a value's bytes live.
#[derive(Debug, Clone)]
pub(super) enum ValueStorage {
    /// In the untrusted payload pool (the paper's evaluated design).
    Untrusted(PoolRange),
    /// Inside the enclave (ciphertext ‖ MAC) — the small-value extension
    /// the paper proposes for values below the control-data size (§5.2).
    InEnclave(Vec<u8>),
}

// Trusted per-entry metadata: what the paper keeps in the enclave hash table
// ("the key item and a value pair composed of the K_operation and an
// associated pointer ptr", §3.7).
#[derive(Debug, Clone)]
pub(super) struct EntryMeta {
    pub(super) k_op: Key256,
    pub(super) payload_nonce: Nonce8,
    pub(super) storage_seq: u64, // server-encryption mode: storage GCM nonce counter
    pub(super) client_id: u32,
    pub(super) storage: ValueStorage,
    pub(super) payload_len: usize,
}

// What execution produced, before the reply is sealed. Sealing consumes
// the per-session `reply_seq` and advances the reply MAC chain, so it must
// happen in per-client pop order; execution may happen earlier — and, with
// several shards, on a different shard than the one that popped the record.
// A value a get read out is copied to the sweep's value bytes by then (a
// later put of the same sweep may free its slot), and the plan holds its
// range there.
pub(super) enum ReplyPlan {
    /// A control-only reply (ok / error / cached ack) with `status`.
    Control { status: Status, oid: u64 },
    /// Busy backpressure (carries the configured retry hint).
    Busy { oid: u64 },
    /// The key routed to a node that does not own it: a sealed redirect
    /// carrying the authoritative owner hint (routing epoch + node id) in
    /// `retry_after_ns`, folded into the reply MAC chain like every other
    /// control field so the host cannot forge or replay it to misroute.
    NotMine { oid: u64, hint: u64 },
    /// A client-side-encryption get hit: key material + payload + MAC.
    GetHit {
        k_op: Key256,
        payload_nonce: Nonce8,
        payload: Range<usize>,
        mac: Tag,
        oid: u64,
    },
    /// A server-encryption get hit: the plaintext is re-sealed for
    /// transport at seal time, because the transport nonce uses the very
    /// `reply_seq` the control reply consumes.
    ServerEncGet { plain: Range<usize>, oid: u64 },
}

// The narrow slice of server state the exec stage borrows per call: the
// trusted execution environment plus the cross-cutting knobs. Keeping
// these out of [`StoreExec`] lets the pipeline hold disjoint borrows of
// the store, the sessions and the ports at the same time.
pub(super) struct ExecCtx<'a> {
    pub(super) enclave: &'a mut Enclave,
    pub(super) config: &'a Config,
    pub(super) cost: &'a CostModel,
    pub(super) host: Option<&'a Mutex<Host>>,
}

// One validated, in-window request as the exec stage consumes it: the
// session slot it came from, the decrypted control segment and its key's
// stable hash (computed once, when the request was routed), the frame's
// payload and MAC, and the session key for server-side decryption.
pub(super) struct ExecRequest<'a> {
    pub(super) idx: usize,
    pub(super) opcode: Opcode,
    pub(super) control: RequestControlRef<'a>,
    pub(super) hash: u64,
    pub(super) payload: &'a [u8],
    pub(super) mac: Tag,
    pub(super) session_key: &'a GcmKey,
}

// Exec-stage state: the enclave index, the untrusted payload pool, and
// the store-mutation evidence.
#[derive(Debug)]
pub(super) struct StoreExec {
    // The enclave index, partitioned into `Config::shards` Robin Hood
    // shards keyed by a stable hash of the key (one partition per trusted
    // polling worker, §3.8). `Config::shards == 1` is one table.
    pub(super) table: ShardedRobinHoodMap<Vec<u8>, EntryMeta>,
    pub(super) storage_key: Key128,
    // `storage_key` expanded once, for the server-encryption put and get;
    // rebuilt wherever `storage_key` is replaced.
    pub(super) storage_gcm: GcmKey,
    pub(super) storage_seq: u64,
    // Store-mutation counter + running digest (rollback/fork evidence
    // carried in every reply control): bumped on every applied mutation.
    pub(super) mutation_seq: u64,
    pub(super) state_digest: [u8; 16],
    // Keys whose entries changed since the last committed snapshot: noted
    // by `table_insert`/`table_remove` (the only two ways an entry
    // changes), emptied at a snapshot's commit point. `None` until a
    // snapshot commits: with no previous cut to carry from, the next one
    // seals everything anyway.
    pub(super) dirty: Option<DirtyKeys>,
    // The moving set of a migration this node is the source of, noted
    // beside `dirty`; boxed, so the struct every op reads grows one word.
    pub(super) moving: Option<Box<MovingRange>>,

    // modelled enclave regions (one table region per shard, so each
    // shard's EPC footprint grows independently with its own resizes)
    pub(super) table_regions: Vec<RegionId>,
    pub(super) misc_region: RegionId,
    pub(super) misc_touched: bool,
    pub(super) table_resizes_seen: Vec<u64>,

    // untrusted side
    pub(super) payload_mem: Memory,
    pub(super) pool: SlabPool,
    // Per-client untrusted-pool bytes (slot capacities), for quotas.
    pub(super) pool_used: Vec<usize>,
}

impl StoreExec {
    // The store-mutation evidence stamped into every sealed reply.
    pub(super) fn evidence(&self) -> StoreEvidence {
        StoreEvidence {
            mutation_seq: self.mutation_seq,
            state_digest: self.state_digest,
        }
    }

    // Frees a pool slot and keeps the quota + host registries in sync.
    pub(super) fn release_range(
        &mut self,
        host: Option<&Mutex<Host>>,
        owner: u32,
        range: PoolRange,
    ) {
        if let Some(used) = self.pool_used.get_mut(owner as usize) {
            *used = used.saturating_sub(range.capacity());
        }
        if let Some(host) = host {
            plock(host).forget_payload(range.offset);
        }
        self.pool.free(range);
    }

    // Advances the store-mutation sequence + digest: called once per
    // *applied* mutation (put, delete, revocation eviction) — never for
    // snapshot-restore re-inserts, which reproduce already-counted state.
    pub(super) fn bump_mutation(&mut self, opcode: Opcode, key: &[u8]) {
        self.mutation_seq += 1;
        let mut h = Sha256::new();
        h.update(&self.state_digest);
        h.update(&[opcode as u8]);
        h.update(&self.mutation_seq.to_le_bytes());
        h.update(key);
        self.state_digest.copy_from_slice(&h.finish()[..16]);
    }

    // Executes a validated, in-window request against the store (the body
    // of Algorithm 2) and returns a [`ReplyPlan`] describing the reply to
    // seal; a value it reads out is appended to `values`.
    pub(super) fn execute_plan(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        req: ExecRequest<'_>,
        meter: &mut Meter,
        values: &mut Vec<u8>,
    ) -> Result<(Status, usize, ReplyPlan), StoreError> {
        let ExecRequest {
            idx,
            opcode,
            control,
            hash,
            payload,
            mac,
            session_key,
        } = req;
        let cost = ctx.cost;
        if control.key.len() > ctx.config.max_key_bytes
            || payload.len() > ctx.config.max_value_bytes + gcm::TAG_LEN
        {
            return Ok((
                Status::Error,
                0,
                ReplyPlan::Control {
                    status: Status::Error,
                    oid: 0,
                },
            ));
        }

        match (opcode, ctx.config.mode) {
            (Opcode::Put, EncryptionMode::ClientSide) => {
                let (Some(k_op), Some(pn)) = (control.k_op.clone(), control.payload_nonce) else {
                    return Ok((
                        Status::Error,
                        0,
                        ReplyPlan::Control {
                            status: Status::Error,
                            oid: 0,
                        },
                    ));
                };
                let value_len = payload.len();
                let inline = value_len <= ctx.config.inline_value_max;
                if !inline && self.over_quota(ctx.config, idx, value_len + Tag::LEN) {
                    return Ok((Status::Busy, 0, ReplyPlan::Busy { oid: control.oid }));
                }
                let storage = if inline {
                    // Small-value extension: the encrypted value (and its
                    // MAC) stay inside the enclave — no pool slot, no
                    // untrusted read on get (§5.2).
                    let mut data = Vec::with_capacity(value_len + Tag::LEN);
                    data.extend_from_slice(payload);
                    data.extend_from_slice(mac.as_bytes());
                    ctx.enclave.copy_across_boundary(data.len(), meter, cost);
                    ValueStorage::InEnclave(data)
                } else {
                    let range = self.store_payload(ctx, payload, Some(&mac), meter)?;
                    self.charge_range(ctx.host, idx, &range);
                    ValueStorage::Untrusted(range)
                };
                self.bump_mutation(Opcode::Put, control.key);
                self.table_insert(
                    ctx,
                    hash,
                    control.key,
                    EntryMeta {
                        k_op,
                        payload_nonce: pn,
                        storage_seq: 0,
                        client_id: idx as u32,
                        storage,
                        payload_len: value_len,
                    },
                    meter,
                );
                Ok((
                    Status::Ok,
                    value_len,
                    ReplyPlan::Control {
                        status: Status::Ok,
                        oid: control.oid,
                    },
                ))
            }
            (Opcode::Put, EncryptionMode::ServerSide) => {
                // Conventional scheme (§2.4): full payload crosses into the
                // enclave, is decrypted, verified, re-encrypted for storage.
                // (Stored ciphertext has the same length as the transport
                // ciphertext: plaintext + one GCM tag.)
                if self.over_quota(ctx.config, idx, payload.len()) {
                    return Ok((Status::Busy, 0, ReplyPlan::Busy { oid: control.oid }));
                }
                ctx.enclave.copy_across_boundary(payload.len(), meter, cost);
                let len = payload.len();
                meter.event(Stage::Enclave, Event::Gcm { len }, 1, cost);
                // Opened, then sealed for storage, in place in `values`.
                let at = values.len();
                values.extend_from_slice(payload);
                let opened = payload.len().checked_sub(gcm::TAG_LEN).and_then(|ct_len| {
                    let (plain, tag) = values[at..].split_at_mut(ct_len);
                    let nonce = payload_request_nonce(control.oid);
                    session_key
                        .open_in_place_detached(&nonce, &[], plain, tag)
                        .ok()
                });
                if opened.is_none() {
                    values.truncate(at);
                    return Ok((
                        Status::Error,
                        0,
                        ReplyPlan::Control {
                            status: Status::Error,
                            oid: 0,
                        },
                    ));
                }
                let value_len = payload.len() - gcm::TAG_LEN;
                self.storage_seq += 1;
                let seq = self.storage_seq;
                meter.event(Stage::Enclave, Event::Gcm { len: value_len }, 1, cost);
                let plain = &mut values[at..at + value_len];
                let tag = self.storage_gcm.seal_in_place_detached(
                    &Nonce12::from_counter(seq),
                    &[],
                    plain,
                );
                let stored_len = value_len + gcm::TAG_LEN;
                ctx.enclave.copy_across_boundary(stored_len, meter, cost);
                let stored =
                    self.store_payload(ctx, &values[at..at + value_len], Some(&tag), meter);
                values.truncate(at);
                let range = stored?;
                self.charge_range(ctx.host, idx, &range);
                self.bump_mutation(Opcode::Put, control.key);
                self.table_insert(
                    ctx,
                    hash,
                    control.key,
                    EntryMeta {
                        k_op: Key256::from_bytes([0; 32]),
                        payload_nonce: Nonce8::default(),
                        storage_seq: seq,
                        client_id: idx as u32,
                        storage: ValueStorage::Untrusted(range),
                        payload_len: stored_len,
                    },
                    meter,
                );
                Ok((
                    Status::Ok,
                    value_len,
                    ReplyPlan::Control {
                        status: Status::Ok,
                        oid: control.oid,
                    },
                ))
            }
            (Opcode::Get, mode) => {
                let shard = shard_of_hash(hash, self.table.shard_count());
                let (found, stats) = self.table.get_hashed(hash, control.key);
                // A hit's metadata, and its stored bytes copied to `values`
                // while the table is borrowed; charged after the probes, in
                // the order the bytes are reached.
                struct Hit {
                    k_op: Key256,
                    payload_nonce: Nonce8,
                    storage_seq: u64,
                    payload_len: usize,
                    stored: Range<usize>,
                    inline: bool,
                }
                let hit = found.map(|meta| {
                    let at = values.len();
                    let inline = match &meta.storage {
                        ValueStorage::Untrusted(range) => {
                            let len = pool_len(mode, meta);
                            self.payload_mem.with(|pool| {
                                values.extend_from_slice(&pool[range.offset..range.offset + len]);
                            });
                            false
                        }
                        ValueStorage::InEnclave(data) => {
                            values.extend_from_slice(data);
                            true
                        }
                    };
                    Hit {
                        k_op: meta.k_op.clone(),
                        payload_nonce: meta.payload_nonce,
                        storage_seq: meta.storage_seq,
                        payload_len: meta.payload_len,
                        stored: at..values.len(),
                        inline,
                    }
                });
                self.charge_table_op(ctx, shard, &stats, meter);
                let Some(Hit {
                    k_op,
                    payload_nonce,
                    storage_seq,
                    payload_len,
                    stored,
                    inline,
                }) = hit
                else {
                    return Ok((
                        Status::NotFound,
                        0,
                        ReplyPlan::Control {
                            status: Status::NotFound,
                            oid: control.oid,
                        },
                    ));
                };
                match mode {
                    EncryptionMode::ClientSide => {
                        // Payload + its stored MAC leave untrusted memory
                        // as-is; only the tiny control reply is sealed in
                        // the enclave (§3.7 "Query data"). Inlined small
                        // values come out of the enclave instead.
                        let len = stored.len();
                        if inline {
                            ctx.enclave.copy_across_boundary(len, meter, cost);
                        } else {
                            meter.event(Stage::ServerCritical, Event::Memcpy { len }, 1, cost);
                        }
                        let payload = stored.start..stored.start + payload_len;
                        let mac = Tag::try_from(&values[payload.end..stored.end])
                            .expect("stored MAC is 16 bytes");
                        values.truncate(payload.end);
                        Ok((
                            Status::Ok,
                            payload_len,
                            ReplyPlan::GetHit {
                                k_op,
                                payload_nonce,
                                payload,
                                mac,
                                oid: control.oid,
                            },
                        ))
                    }
                    EncryptionMode::ServerSide => {
                        // Storage ciphertext crosses into the enclave and
                        // is decrypted here, in place; re-encryption for
                        // transport waits until seal time (it consumes the
                        // reply sequence number).
                        let len = stored.len();
                        ctx.enclave.copy_across_boundary(len, meter, cost);
                        meter.event(Stage::Enclave, Event::Gcm { len }, 1, cost);
                        let plain = stored.start..stored.end - gcm::TAG_LEN;
                        let (ct, tag) = values[stored.clone()].split_at_mut(plain.len());
                        self.storage_gcm
                            .open_in_place_detached(
                                &Nonce12::from_counter(storage_seq),
                                &[],
                                ct,
                                tag,
                            )
                            .expect("storage ciphertext is server-controlled");
                        values.truncate(plain.end);
                        Ok((
                            Status::Ok,
                            plain.len(),
                            ReplyPlan::ServerEncGet {
                                plain,
                                oid: control.oid,
                            },
                        ))
                    }
                }
            }
            (Opcode::Delete, _) => {
                let shard = shard_of_hash(hash, self.table.shard_count());
                let (removed, stats) = self.table_remove(ctx.host, hash, control.key);
                self.charge_table_op(ctx, shard, &stats, meter);
                let status = if removed {
                    Status::Ok
                } else {
                    Status::NotFound
                };
                Ok((
                    status,
                    0,
                    ReplyPlan::Control {
                        status,
                        oid: control.oid,
                    },
                ))
            }
        }
    }

    // Whether storing `len` more pool bytes would push the client past its
    // memory quota (counted in slot capacities; disabled when 0). An
    // unclassifiable length is over any quota.
    pub(super) fn over_quota(&self, config: &Config, idx: usize, len: usize) -> bool {
        let quota = config.pool_quota_bytes;
        if quota == 0 {
            return false;
        }
        let used = self.pool_used.get(idx).copied().unwrap_or(0);
        match precursor_storage::pool::slot_capacity(len) {
            Some(cap) => used + cap > quota,
            None => true,
        }
    }

    // A full seal's base: every table entry, straight from the table in
    // one walk, into one buffer sized by a first pass over the metadata
    // (growing it by doubling would leave the process a larger peak).
    pub(super) fn encode_base(&self, mode: EncryptionMode) -> Vec<u8> {
        let len = self
            .table
            .iter()
            .map(|(key, meta)| entry_len(mode, key, meta));
        let mut out = Vec::with_capacity(len.sum());
        self.payload_mem.with(|pool| {
            for (key, meta) in self.table.iter() {
                entry_ref(mode, key, meta, pool).encode_into(&mut out);
            }
        });
        out
    }

    // Charges a freshly allocated slot to the client's quota and registers
    // it with the host's tamper surface.
    pub(super) fn charge_range(
        &mut self,
        host: Option<&Mutex<Host>>,
        idx: usize,
        range: &PoolRange,
    ) {
        if self.pool_used.len() <= idx {
            self.pool_used.resize(idx + 1, 0);
        }
        self.pool_used[idx] += range.capacity();
        if let Some(host) = host {
            plock(host).note_payload(range.offset, range.len, idx as u32);
        }
    }

    // Stores payload (+ optional MAC) into the untrusted pool, growing it
    // with a modelled ocall when exhausted (§3.8).
    pub(super) fn store_payload(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        payload: &[u8],
        mac: Option<&Tag>,
        meter: &mut Meter,
    ) -> Result<PoolRange, StoreError> {
        let total = payload.len() + mac.map_or(0, |_| Tag::LEN);
        let cost = ctx.cost;
        let range = match self.pool.alloc(total) {
            Some(r) => r,
            None => {
                // Single batched ocall to enlarge the pre-allocated list (§4).
                ctx.enclave.ocall(meter, cost);
                self.payload_mem.grow(ctx.config.pool_bytes);
                self.pool.grow(ctx.config.pool_bytes);
                self.pool.alloc(total).ok_or(StoreError::OversizedItem)?
            }
        };
        self.payload_mem.write(range.offset, payload);
        if let Some(mac) = mac {
            self.payload_mem
                .write(range.offset + payload.len(), mac.as_bytes());
        }
        meter.event(Stage::ServerCritical, Event::Memcpy { len: total }, 1, cost);
        Ok(range)
    }

    // Inserts `key`, whose stable hash is `hash`, routing and placing it by
    // that hash. A key already stored keeps its stored copy: only a new key
    // is copied into the table.
    pub(super) fn table_insert(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        hash: u64,
        key: &[u8],
        meta: EntryMeta,
        meter: &mut Meter,
    ) {
        // First insert also touches the auxiliary heap structures once
        // (reply queues, pool directory — the paper's 0→1-key jump in
        // Table 1).
        if !self.misc_touched {
            self.misc_touched = true;
            let cost = ctx.cost;
            ctx.enclave.touch_all(self.misc_region, meter, cost);
        }
        let shard = shard_of_hash(hash, self.table.shard_count());
        self.note_written(hash, key);
        let (old, stats) = self
            .table
            .insert_hashed_with(hash, key, meta, <[u8]>::to_vec);
        if let Some(old) = old {
            // Overwrite: the old payload slot is released (and un-charged
            // from its owner's quota); the fresh K_operation in the new
            // entry revokes earlier readers (§3.3).
            if let ValueStorage::Untrusted(range) = old.storage {
                self.release_range(ctx.host, old.client_id, range);
            }
        }
        // Resize the modelled region before charging slot touches — the
        // insert may have grown the shard's partition, and the touched
        // slot indices refer to the *new* capacity.
        self.sync_table_region(ctx, shard, meter);
        self.charge_table_op(ctx, shard, &stats, meter);
    }

    // The one removal path — client delete, journal replay of a delete or
    // eviction, revocation eviction: takes `key` (whose stable hash is
    // `hash`) out of the table, frees its pool slot, counts the mutation
    // and marks the key dirty. Returns whether the key existed, and the
    // probe statistics for callers that meter the table operation.
    pub(super) fn table_remove(
        &mut self,
        host: Option<&Mutex<Host>>,
        hash: u64,
        key: &[u8],
    ) -> (bool, OpStats) {
        let (removed, stats) = self.table.remove_hashed(hash, key);
        let Some(entry) = removed else {
            return (false, stats);
        };
        if let ValueStorage::Untrusted(range) = entry.storage {
            self.release_range(host, entry.client_id, range);
        }
        self.bump_mutation(Opcode::Delete, key);
        self.note_written(hash, key);
        (true, stats)
    }

    // Marks `key`, whose stable hash is `hash`, written: for the next cut,
    // and for the fence of a migration moving its ring segment away.
    fn note_written(&mut self, hash: u64, key: &[u8]) {
        if let Some(dirty) = &mut self.dirty {
            dirty.insert(key);
        }
        if let Some(moving) = &mut self.moving {
            moving.note(hash, key);
        }
    }

    // Charges probes + shard-local slot touches of one table operation
    // against the shard's modelled EPC region.
    pub(super) fn charge_table_op(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        shard: usize,
        stats: &OpStats,
        meter: &mut Meter,
    ) {
        let cost = ctx.cost;
        let probes = stats.probes;
        meter.event(Stage::Enclave, Event::TableOp { probes }, 1, cost);
        let slot_bytes = MODEL_SLOT_BYTES as u64;
        let region = self.table_regions[shard];
        for slot in stats.slots() {
            ctx.enclave
                .touch(region, slot as u64 * slot_bytes, slot_bytes, meter, cost);
        }
    }

    // After a shard's partition grows, its modelled region grows and the
    // rehash touches every page of the new partition.
    fn sync_table_region(&mut self, ctx: &mut ExecCtx<'_>, shard: usize, meter: &mut Meter) {
        let resizes = self.table.shard(shard).resizes();
        if resizes != self.table_resizes_seen[shard] {
            self.table_resizes_seen[shard] = resizes;
            let cost = ctx.cost;
            let bytes = (self.table.shard(shard).capacity() * MODEL_SLOT_BYTES) as u64;
            let region = self.table_regions[shard];
            ctx.enclave.resize_region(region, bytes);
            ctx.enclave.touch_all(region, meter, cost);
        }
    }
}

// The bytes of `meta`'s value in the untrusted pool: ciphertext ‖ MAC in
// client mode, the storage GCM blob in server mode.
fn pool_len(mode: EncryptionMode, meta: &EntryMeta) -> usize {
    match mode {
        EncryptionMode::ClientSide => meta.payload_len + Tag::LEN,
        EncryptionMode::ServerSide => meta.payload_len,
    }
}

// The bytes `entry_ref(mode, key, meta, ..)` encodes to, read off the
// metadata alone.
fn entry_len(mode: EncryptionMode, key: &[u8], meta: &EntryMeta) -> usize {
    let stored = match &meta.storage {
        ValueStorage::Untrusted(_) => pool_len(mode, meta),
        ValueStorage::InEnclave(data) => data.len(),
    };
    EntryRef::FIXED_LEN + key.len() + stored
}

// One table entry as the snapshot/journal codec sees it, borrowing the
// stored bytes from the enclave (`InEnclave`) or from `pool`, the untrusted
// payload memory.
fn entry_ref<'a>(
    mode: EncryptionMode,
    key: &'a [u8],
    meta: &'a EntryMeta,
    pool: &'a [u8],
) -> EntryRef<'a> {
    let stored_bytes = match &meta.storage {
        ValueStorage::Untrusted(range) => &pool[range.offset..range.offset + pool_len(mode, meta)],
        ValueStorage::InEnclave(data) => data,
    };
    EntryRef {
        key,
        k_op: &meta.k_op,
        payload_nonce: meta.payload_nonce,
        storage_seq: meta.storage_seq,
        client_id: meta.client_id,
        payload_len: meta.payload_len,
        stored_bytes,
    }
}

impl PrecursorServer {
    /// Verifies the integrity of a stored value against the enclave
    /// metadata, mimicking what a *client* would detect: recomputes the CMAC
    /// of the untrusted bytes under the enclave-held `K_operation`. Used by
    /// tests and the attack-demo example.
    pub fn audit_key(&self, key: &[u8]) -> Option<bool> {
        let entry = self.store.table.get(&key.to_vec())?;
        match self.config.mode {
            EncryptionMode::ClientSide => {
                let stored = match &entry.storage {
                    ValueStorage::Untrusted(range) => self
                        .store
                        .payload_mem
                        .read(range.offset, entry.payload_len + Tag::LEN),
                    ValueStorage::InEnclave(data) => data.clone(),
                };
                let (payload, mac_bytes) = stored.split_at(entry.payload_len);
                let mac = Tag::try_from(mac_bytes).expect("16 bytes");
                Some(cmac::verify(&cmac_key_of(&entry.k_op), payload, &mac))
            }
            EncryptionMode::ServerSide => {
                let ValueStorage::Untrusted(range) = &entry.storage else {
                    return Some(false);
                };
                let stored = self.store.payload_mem.read(range.offset, entry.payload_len);
                Some(
                    self.store
                        .storage_gcm
                        .open(
                            &precursor_crypto::Nonce12::from_counter(entry.storage_seq),
                            &[],
                            &stored,
                        )
                        .is_ok(),
                )
            }
        }
    }

    // --- snapshot/restore plumbing (see crate::snapshot) ---

    pub(crate) fn restore_body(&mut self, body: SnapshotBody) -> Result<(), StoreError> {
        let header = body.header;
        if header.mode != self.config.mode {
            return Err(StoreError::MalformedFrame);
        }
        self.store.storage_gcm = GcmKey::new(&header.storage_key);
        self.store.storage_key = header.storage_key;
        self.store.storage_seq = header.storage_seq;
        self.store.mutation_seq = header.mutation_seq;
        self.store.state_digest = header.state_digest;
        self.sessions.saved = header.sessions;
        for e in body.entries {
            self.install_entry(e)?;
        }
        Ok(())
    }

    // Installs one serialized entry into the store *without* bumping the
    // mutation evidence — the entry reproduces already-counted state.
    // Shared by snapshot restore and journal replay (which bumps the
    // evidence itself, in record order).
    pub(crate) fn install_entry(&mut self, e: SnapshotEntry) -> Result<(), StoreError> {
        let mut meter = Meter::new();
        let mut ctx = ExecCtx {
            enclave: &mut self.enclave,
            config: &self.config,
            cost: &self.cost,
            host: self.host.as_deref(),
        };
        let storage = if ctx.config.mode == EncryptionMode::ClientSide
            && e.payload_len <= ctx.config.inline_value_max
        {
            ValueStorage::InEnclave(e.stored_bytes)
        } else {
            let range = match self.store.pool.alloc(e.stored_bytes.len()) {
                Some(r) => r,
                None => {
                    ctx.enclave.ocall(&mut meter, ctx.cost);
                    self.store.payload_mem.grow(ctx.config.pool_bytes);
                    self.store.pool.grow(ctx.config.pool_bytes);
                    self.store
                        .pool
                        .alloc(e.stored_bytes.len())
                        .ok_or(StoreError::OversizedItem)?
                }
            };
            self.store.payload_mem.write(range.offset, &e.stored_bytes);
            self.store
                .charge_range(ctx.host, e.client_id as usize, &range);
            ValueStorage::Untrusted(range)
        };
        self.store.table_insert(
            &mut ctx,
            stable_key_hash(&e.key),
            &e.key,
            EntryMeta {
                k_op: e.k_op,
                payload_nonce: e.payload_nonce,
                storage_seq: e.storage_seq,
                client_id: e.client_id,
                storage,
                payload_len: e.payload_len,
            },
            &mut meter,
        );
        Ok(())
    }

    // Appends the current stored state of `key` (enclave metadata plus the
    // untrusted bytes) to `out` in the snapshot entry codec — the entry of
    // a journal `Put` record, read right after the put applied. `None`
    // when the key is not stored.
    pub(crate) fn encode_entry(&self, key: &[u8], out: &mut Vec<u8>) -> Option<()> {
        let meta = self.store.table.get(key)?;
        let mode = self.config.mode;
        self.store
            .payload_mem
            .with(|pool| entry_ref(mode, key, meta, pool).encode_into(out));
        Some(())
    }

    // The delta records of `keys`, in order, onto `out`: each key's table
    // entry, or a tombstone when it is gone — a cut's delta by the
    // carried-entry rule, and a migration part. Reads no other key;
    // returns how many of the keys are stored.
    pub(crate) fn encode_records<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k Vec<u8>>,
        out: &mut Vec<u8>,
    ) -> usize {
        let (mode, store) = (self.config.mode, &self.store);
        store.payload_mem.with(|pool| {
            let mut stored = 0;
            for key in keys {
                let meta = store.table.get(key);
                let entry = meta.map(|meta| entry_ref(mode, key, meta, pool));
                stored += usize::from(entry.is_some());
                encode_record(out, key, entry);
            }
            stored
        })
    }

    // Makes this node the source of a migration (or no longer one).
    pub(crate) fn track_moving(&mut self, moving: Option<MovingRange>) -> Option<MovingRange> {
        std::mem::replace(&mut self.store.moving, moving.map(Box::new)).map(|moving| *moving)
    }

    /// Every key currently stored, sorted (tests use it as an oracle);
    /// sorting keeps the enumeration independent of table iteration order.
    pub fn live_keys(&self) -> Vec<Vec<u8>> {
        self.keys_where(|_| true)
    }

    // The stored keys `keep` accepts, sorted: only those are copied.
    pub(crate) fn keys_where(&self, keep: impl Fn(&[u8]) -> bool) -> Vec<Vec<u8>> {
        let keys = self.store.table.iter().map(|(k, _)| k);
        let mut keys: Vec<Vec<u8>> = keys.filter(|k| keep(k)).cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Tamper hook for security tests: flips a bit of the *untrusted* stored
    /// payload of `key`, as a rogue administrator with physical/DMA access
    /// could (§2.3). Returns `false` if the key does not exist.
    pub fn corrupt_stored_payload(&mut self, key: &[u8]) -> bool {
        let Some(entry) = self.store.table.get(&key.to_vec()) else {
            return false;
        };
        match &entry.storage {
            ValueStorage::Untrusted(range) => {
                let offset = range.offset;
                self.store.payload_mem.with_mut(|buf| buf[offset] ^= 0x01);
                true
            }
            // In-enclave values are outside the attacker's reach — even a
            // rogue admin cannot touch EPC memory.
            ValueStorage::InEnclave(_) => false,
        }
    }
}
