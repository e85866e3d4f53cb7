//! Durability stage: the sealed mutation journal and the group-commit
//! reply gate.
//!
//! When a journal is attached ([`PrecursorServer::attach_journal`]), every
//! *applied* mutation — put, delete, revocation eviction — appends one
//! sealed record right after it executes, in execution order, and every
//! session admission/reconnect records the trusted window it established.
//! Records carry the post-apply store evidence (`mutation_seq` + running
//! state digest), so replay can verify bit-for-bit that it reconstructs
//! the same history ([`StoreError::ForkDetected`] otherwise).
//!
//! **Group commit & the reply gate.** Appends accumulate in the journal's
//! pending buffer; the [`GroupCommitPolicy`] decides when a sweep flushes
//! the group to durable bytes. A reply whose operation is not yet durable
//! (or, under replication, not yet quorum-acknowledged) must not reach the
//! client — otherwise a crash-failover could roll back a state the client
//! already observed, turning an honest recovery into a false
//! `RollbackDetected`. The gate therefore holds *every* reply WRITE
//! (mutations, and reads that may have observed uncommitted state) until
//! the journal sequence it was emitted under is committed, then releases
//! them FIFO. With [`GroupCommitPolicy::immediate`] and local commit the
//! flush happens inline with the append, the gate never closes, and the
//! emitted WRITE stream is byte-identical to an unjournaled server — which
//! is what keeps the seeded golden digest unchanged.
//!
//! **Commit authority.** A journal with no replication fan-out commits a
//! group the moment its flush succeeds. With a fan-out
//! ([`PrecursorServer::set_replication_fanout`]) commit is the replica
//! group's: it calls [`PrecursorServer::commit_journal_bytes`] once a quorum
//! of replicas acknowledged the flushed byte range (see `crate::replication`).
//!
//! **Reading the journal.** [`PrecursorServer::journal`] hands out the
//! [`Journal`] itself (epoch, head, stats, [`DurableLog`]); this stage keeps
//! only the commit point, flush marks, reply gate and wedge. Recovery
//! replays a `DurableLog` — a restart's own, a failover's replica copy.

use std::collections::VecDeque;

use precursor_journal::{DurableLog, FlushDamage, GroupCommitPolicy, Journal, JournalRecord};
use precursor_rdma::host::{DurableVerdict, HostSite};
use precursor_rdma::plock;
use precursor_sgx::counters::MonotonicCounter;
use precursor_sgx::sealing;
use precursor_sim::{CostModel, Event, Meter, Stage};
use precursor_storage::ring::RingWrites;
use precursor_storage::robinhood::stable_key_hash;

use crate::config::Config;
use crate::error::StoreError;
use crate::snapshot::{self, take, SnapshotEntry};
use crate::wire::{Opcode, Status};

use super::exec::ReplyPlan;
use super::seal::StoreEvidence;
use super::{PrecursorServer, Window};

// Journal record kinds.
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_EVICT: u8 = 3;
const KIND_SESSION: u8 = 4;
const KIND_INSTALL: u8 = 5;

// One reply held back by the group-commit gate: the ring WRITEs of a
// sealed reply, tagged with the journal sequence that must commit before
// they may be posted.
#[derive(Debug)]
struct GatedReply {
    idx: usize,
    seq: u64,
    writes: RingWrites,
}

// Durability-stage state: the journal plus the commit/gate bookkeeping.
#[derive(Debug)]
pub(super) struct Durability {
    pub(super) journal: Journal,
    pub(super) committed_seq: u64,
    // (durable-bytes end, last record seq) per flushed group — lets the
    // replica group's byte-level acknowledgements map back to commit
    // sequence numbers. Pruned as commits advance; empty with no fan-out.
    flush_marks: VecDeque<(u64, u64)>,
    gated: VecDeque<GatedReply>,
    // The buffers of released replies, refilled by the next gated ones.
    spare: Vec<RingWrites>,
    // The body of the record being appended.
    body: Vec<u8>,
    // A damaged flush wedged the journal: the modelled process died
    // mid-write. Replies gated at that point are never released (their
    // clients time out), and nothing further is appended — recovery is the
    // only way forward.
    pub(super) failed: bool,
    // Replication fan-out: the number of replicas each flushed byte is
    // shipped to. 0 commits a group locally at its flush; above 0 commit
    // waits for the replica group's `commit_journal_bytes`, and the
    // networking stage of the per-op meter charges `fanout × segment-ship`
    // cycles per sealed byte.
    fanout: usize,
}

/// What [`PrecursorServer::recover`] reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a sealed snapshot was unsealed and restored.
    pub snapshot_restored: bool,
    /// Journal records replayed (past the snapshot watermark).
    pub replayed: usize,
    /// Journal records skipped because the snapshot already covered them.
    pub skipped: usize,
    /// Whether trailing journal bytes (a torn tail or tampering) were
    /// truncated rather than replayed.
    pub truncated: bool,
    /// Byte length of the authentic journal prefix.
    pub valid_len: usize,
    /// Sequence number of the last authentic journal record (0 if none).
    pub journal_seq: u64,
    /// Mutation records queued for [`PrecursorServer::catchup_step`]; the
    /// server answers reads from its applied prefix until they drain.
    pub catchup_pending: usize,
}

// Mutation records queued by `recover`: a promoted replica may serve reads
// from its applied prefix while `catchup_step` drains these in order.
// At-most-once windows and session records were applied at recovery, so
// retransmissions of pre-crash operations re-acknowledge from the cached
// window instead of re-executing against not-yet-replayed state.
#[derive(Debug, Default)]
pub(super) struct CatchupState {
    records: VecDeque<JournalRecord>,
}

impl PrecursorServer {
    /// Attaches a sealed journal: every applied mutation is journaled and
    /// groups flush per `policy`. With no replication fan-out a group
    /// commits the moment its flush succeeds; with one
    /// ([`set_replication_fanout`](Self::set_replication_fanout)) flushed
    /// groups stay uncommitted (replies gated) until
    /// [`commit_journal_bytes`](Self::commit_journal_bytes) acknowledges
    /// the byte range. The journal key is derived for a fresh epoch drawn
    /// from the trusted monotonic `counter`, so an older epoch's byte
    /// stream can never be replayed into this one. Returns the epoch.
    pub fn attach_journal(
        &mut self,
        policy: GroupCommitPolicy,
        counter: &mut MonotonicCounter,
    ) -> u64 {
        let epoch = counter.increment();
        let key = sealing::journal_key(&self.sealing_key(), epoch);
        self.durability = Some(Durability {
            journal: Journal::new(key, epoch, policy),
            committed_seq: 0,
            flush_marks: VecDeque::new(),
            gated: VecDeque::new(),
            spare: Vec::new(),
            body: Vec::new(),
            failed: false,
            fanout: 0,
        });
        epoch
    }

    /// Sets the replication fan-out: each sealed journal byte is shipped to
    /// this many replicas (charged to the networking stage of the op
    /// meter), and above 0 the replica group is the commit authority. The
    /// group calls this right after attaching the journal and after every
    /// failover; a journal nobody replicates keeps 0 and commits locally.
    pub fn set_replication_fanout(&mut self, fanout: usize) {
        if let Some(d) = self.durability.as_mut() {
            d.fanout = fanout;
        }
    }

    /// The attached journal, if any: its epoch, head, statistics and
    /// [`DurableLog`] (the bytes replication ships and a crash leaves).
    pub fn journal(&self) -> Option<&Journal> {
        self.durability.as_ref().map(|d| &d.journal)
    }

    /// Highest committed journal sequence number — replies up to it have
    /// been released to clients.
    pub fn journal_committed_seq(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.committed_seq)
    }

    /// Whether a damaged flush wedged the journal (the modelled process
    /// died mid-write; only recovery makes sense afterwards).
    pub fn journal_wedged(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.failed)
    }

    /// Replies currently held by the group-commit gate.
    pub fn gated_replies(&self) -> usize {
        self.durability.as_ref().map_or(0, |d| d.gated.len())
    }

    /// Acknowledges that the first `acked` durable journal bytes are
    /// replicated to a quorum: commits every flushed group inside that
    /// range and releases its gated replies. The replica group's commit
    /// callback (a no-op for a journal with no fan-out, which has no flush
    /// marks).
    pub fn commit_journal_bytes(&mut self, acked: u64) {
        if let Some(d) = self.durability.as_mut() {
            if d.failed {
                return;
            }
            while let Some(&(end, seq)) = d.flush_marks.front() {
                if end > acked {
                    break;
                }
                d.committed_seq = d.committed_seq.max(seq);
                d.flush_marks.pop_front();
            }
        }
        self.release_gated();
    }

    // Appends one sealed record; with the immediate policy and no fan-out
    // the flush (and therefore the commit) happens inline, keeping the
    // reply gate open.
    fn journal_append(&mut self, kind: u8, body: &[u8]) {
        let now = self.ingress.polls;
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        if d.failed {
            return;
        }
        let seq = d.journal.append(kind, body, now);
        self.trace("journal", "append", seq, kind as u64);
        let d = self.durability.as_ref().expect("just appended");
        if d.fanout == 0 && d.journal.policy().max_records <= 1 {
            self.flush_journal();
        }
    }

    // Journal tap for executed operations (the sweep calls it right after
    // `execute_plan`, in execution order). Reads and non-applied
    // mutations leave no record.
    pub(super) fn journal_mutation(
        &mut self,
        idx: usize,
        opcode: Opcode,
        status: Status,
        key: &[u8],
        oid: u64,
        meter: &mut Meter,
    ) {
        if status != Status::Ok || opcode == Opcode::Get {
            return;
        }
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        // Encoded into the journal's reused body buffer.
        let mut body = std::mem::take(&mut d.body);
        body.clear();
        let ev = self.store.evidence();
        let kind = match opcode {
            Opcode::Put => {
                encode_put_head(&mut body, idx as u32, oid, self.store.storage_seq, ev);
                self.encode_entry(key, &mut body)
                    .expect("applied put leaves an entry");
                KIND_PUT
            }
            _ => {
                encode_delete(&mut body, idx as u32, oid, ev, key);
                KIND_DELETE
            }
        };
        self.journal_append(kind, &body);
        self.charge_journal_record(body.len(), meter);
        if let Some(d) = self.durability.as_mut() {
            d.body = body;
        }
    }

    // Durability cost tap: what sealing one journal record and making it
    // durable costs the operation that appended it. Enclave: the AES-GCM
    // pass over the body plus the chain hash. ServerOverhead: the durable
    // append, its fixed (syscall-class) cost amortised over the
    // group-commit batch. Network: shipping the sealed record to each
    // replica in the fan-out. Pure meter charges — no RNG, no digested
    // observable — so seeded golden digests are unchanged.
    fn charge_journal_record(&self, body_len: usize, meter: &mut Meter) {
        let Some(d) = self.durability.as_ref() else {
            return;
        };
        let cost = &self.cost;
        // header 13 + GCM tag 16 + trailing chain tag 16
        let (len, fanout) = (body_len + 45, d.fanout);
        let batch = d.journal.policy().max_records.max(1);
        let seal = Event::JournalSeal { len: body_len };
        meter.event(Stage::Enclave, seal, 1, cost);
        let write = Event::JournalWrite { len, batch };
        meter.event(Stage::ServerOverhead, write, 1, cost);
        if fanout > 0 {
            let ship = Event::JournalShip { len, fanout };
            meter.event(Stage::Network, ship, 1, cost);
        }
    }

    // Journal tap for session admissions and reconnects: records the
    // trusted window the session was established with, so failover
    // reconstructs the at-most-once state.
    pub(super) fn journal_session(&mut self, client_id: u32, window: &Window) {
        if self.durability.is_none() {
            return;
        }
        let mut body = Vec::with_capacity(17);
        body.extend_from_slice(&client_id.to_le_bytes());
        window.encode_into(&mut body);
        self.journal_append(KIND_SESSION, &body);
    }

    // Journal tap for revocation evictions (one record per evicted key).
    pub(super) fn journal_evict(&mut self, key: &[u8]) {
        if self.durability.is_none() {
            return;
        }
        let body = encode_evict(self.store.evidence(), key);
        self.journal_append(KIND_EVICT, &body);
    }

    // Installs an entry a migration fence hands this node, journaled so a
    // node rebuilt from its journal — a restart, or a promoted replica,
    // which holds nothing else — has the range the ring says it owns.
    pub(crate) fn install_migrated(&mut self, entry: SnapshotEntry) -> Result<(), StoreError> {
        let body = self
            .durability
            .is_some()
            .then(|| encode_install(self.store.evidence(), &entry));
        self.install_entry(entry)?;
        if let Some(body) = body {
            self.journal_append(KIND_INSTALL, &body);
        }
        Ok(())
    }

    // Flushes the pending group through the host's durable-write site. A
    // torn or corrupted flush wedges the journal and fails the server's
    // durability (replies gated at that point are never released — the
    // modelled process is dead).
    pub(crate) fn flush_journal(&mut self) {
        let pending = match self.durability.as_ref() {
            Some(d) if !d.failed && d.journal.pending_bytes() > 0 => d.journal.pending_bytes(),
            _ => return,
        };
        let damage = match &self.host {
            Some(host) => match plock(host).on_durable_write(HostSite::JournalFlush, pending) {
                DurableVerdict::Complete => FlushDamage::None,
                DurableVerdict::Torn(keep) => FlushDamage::Torn(keep),
                DurableVerdict::Corrupt(bit) => FlushDamage::CorruptBit(bit),
            },
            None => FlushDamage::None,
        };
        let d = self.durability.as_mut().expect("checked above");
        let Some((offset, written)) = d.journal.flush_with(damage) else {
            return;
        };
        let last_seq = d.journal.last_seq();
        if d.journal.is_wedged() {
            d.failed = true;
        } else if d.fanout > 0 {
            d.flush_marks.push_back((offset + written as u64, last_seq));
        } else {
            d.committed_seq = last_seq;
        }
        self.obs.inc("journal.group_commit_flushes", 1);
        self.obs.inc("journal.bytes_sealed", written as u64);
        self.trace("journal", "flush", offset, written as u64);
    }

    // End-of-sweep durability work: flush when the group-commit policy
    // calls for it, then release whatever the commit point now covers.
    pub(super) fn durability_sweep(&mut self) {
        let Some(d) = self.durability.as_ref() else {
            return;
        };
        if !d.failed && d.journal.should_flush(self.ingress.polls) {
            self.flush_journal();
        }
        self.release_gated();
    }

    // Posts a reply's ring WRITEs, or holds them behind the group-commit
    // gate when the journal has uncommitted records (or earlier replies
    // are already held — per-client WRITE order must be preserved). With
    // no journal attached this is exactly the ungated post loop.
    pub(super) fn post_or_gate(&mut self, idx: usize, writes: &RingWrites) {
        if writes.is_empty() {
            return;
        }
        let gate = match &self.durability {
            Some(d) => d.failed || d.journal.last_seq() > d.committed_seq || !d.gated.is_empty(),
            None => false,
        };
        if gate {
            let d = self.durability.as_mut().expect("gate implies durability");
            let seq = d.journal.last_seq();
            let mut held = d.spare.pop().unwrap_or_default();
            held.clone_from(writes);
            d.gated.push_back(GatedReply {
                idx,
                seq,
                writes: held,
            });
            return;
        }
        let port = self.ingress.ports[idx].as_mut().expect("live port");
        let rkey = port.reply_ring_rkey;
        for (off, chunk) in writes.iter() {
            let _ = port.qp.post_write(rkey, off, chunk, false);
        }
    }

    // Releases gated replies whose journal sequence is committed, FIFO
    // (sequence tags are non-decreasing in gate order, so FIFO release
    // preserves both per-client and global WRITE order).
    pub(super) fn release_gated(&mut self) {
        loop {
            let Some(d) = self.durability.as_mut() else {
                return;
            };
            if d.failed {
                return;
            }
            match d.gated.front() {
                Some(g) if g.seq <= d.committed_seq => {}
                _ => return,
            }
            let g = d.gated.pop_front().expect("checked front");
            // A port revoked while its reply sat in the gate just drops
            // the WRITEs — the client is gone.
            if let Some(Some(port)) = self.ingress.ports.get_mut(g.idx) {
                let rkey = port.reply_ring_rkey;
                for (off, chunk) in g.writes.iter() {
                    let _ = port.qp.post_write(rkey, off, chunk, false);
                }
            }
            if let Some(d) = self.durability.as_mut() {
                d.spare.push(g.writes);
            }
        }
    }

    /// Reconstructs a server from a sealed snapshot (optional) plus the
    /// durable journal `log` of the epoch `epoch_counter` currently
    /// designates. The snapshot is unsealed at `snap_counter`'s current
    /// value (rollback detection, as in [`restore`](Self::restore)); the
    /// log's authentic prefix is established by its MAC chain from the
    /// log's own anchor ([`DurableLog::recover`]) — a torn tail is
    /// truncated, never replayed.
    ///
    /// A log that starts at a compaction cut needs the snapshot: it must
    /// cover at least the cut under this epoch — otherwise the truncated
    /// records are unrecoverable.
    ///
    /// Replay is staged: session records and at-most-once windows past the
    /// snapshot's watermark are applied here (so retransmissions of
    /// pre-crash operations re-acknowledge instead of re-executing), data
    /// mutations are queued in record order
    /// ([`RecoveryReport::catchup_pending`]). The caller either drains the
    /// queue before serving — `catchup_step(usize::MAX)` — or serves reads
    /// from the applied prefix meanwhile (the pipeline answers mutations
    /// with `Status::Busy` while [`in_catchup`](Self::in_catchup)) and
    /// drains in the background. [`catchup_step`](Self::catchup_step)
    /// re-derives the store evidence record by record and checks it
    /// against each record's sealed evidence.
    ///
    /// The recovered server has no journal attached; its owner opens a
    /// fresh epoch with [`attach_journal`](Self::attach_journal).
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] for a rolled-back or damaged
    /// snapshot (retry without it to recover from the journal alone) or a
    /// cut no snapshot covers; [`StoreError::MalformedFrame`] for records
    /// that do not parse.
    pub fn recover(
        config: Config,
        cost: &CostModel,
        snapshot: Option<&[u8]>,
        snap_counter: &MonotonicCounter,
        log: &DurableLog,
        epoch_counter: &MonotonicCounter,
    ) -> Result<(PrecursorServer, RecoveryReport), StoreError> {
        let mut server = PrecursorServer::new(config, cost);
        let epoch = epoch_counter.read();
        let base_seq = log.base_seq();
        let mut snapshot_restored = false;
        let mut watermark = 0u64;
        if let Some(sealed) = snapshot {
            let body = snapshot::open(&server.sealing_key(), snap_counter.read(), sealed)?;
            // The watermark only applies when the snapshot was sealed
            // under this journal epoch; a snapshot from before the epoch
            // opened covers none of its records.
            if body.header.journal_epoch == epoch {
                watermark = body.header.journal_seq;
            }
            server.restore_body(body)?;
            snapshot_restored = true;
        }
        // A mid-stream suffix is only recoverable when a snapshot covers
        // everything behind the cut under this very epoch.
        if base_seq > 0 && (!snapshot_restored || watermark < base_seq) {
            return Err(StoreError::SnapshotRejected);
        }
        let jkey = sealing::journal_key(&server.sealing_key(), epoch);
        let recovered = log.recover(&jkey, epoch);
        let journal_seq = recovered.records.last().map_or(0, |r| r.seq);
        let mut replayed = 0usize;
        let mut skipped = 0usize;
        let mut queue = VecDeque::new();
        for record in recovered.records {
            if record.seq <= watermark {
                skipped += 1;
                continue;
            }
            server.stage_record(record, &mut queue)?;
            replayed += 1;
        }
        let catchup_pending = queue.len();
        if catchup_pending > 0 {
            server.catchup = Some(CatchupState { records: queue });
        }
        Ok((
            server,
            RecoveryReport {
                snapshot_restored,
                replayed,
                skipped,
                truncated: recovered.truncated,
                valid_len: recovered.valid_len,
                journal_seq,
                catchup_pending,
            },
        ))
    }

    /// Whether recovery's queued mutation records are still draining: reads
    /// are served from the applied prefix, mutations answer `Busy`.
    pub fn in_catchup(&self) -> bool {
        self.catchup.is_some()
    }

    /// Queued catch-up records not yet applied.
    pub fn catchup_remaining(&self) -> usize {
        self.catchup.as_ref().map_or(0, |c| c.records.len())
    }

    /// Applies up to `budget` queued catch-up records in order, verifying
    /// each record's sealed evidence. When the queue drains the server
    /// leaves catch-up and mutations flow again.
    ///
    /// # Errors
    ///
    /// [`StoreError::ForkDetected`] when replay derives different evidence
    /// than a record sealed — the journal came from a forked or
    /// rolled-back history; [`StoreError::MalformedFrame`] on undecodable
    /// records.
    pub fn catchup_step(&mut self, budget: usize) -> Result<usize, StoreError> {
        let mut applied = 0usize;
        while applied < budget {
            let Some(record) = self.catchup.as_mut().and_then(|c| c.records.pop_front()) else {
                break;
            };
            self.apply_catchup_record(&record)?;
            applied += 1;
        }
        if self.catchup.as_ref().is_some_and(|c| c.records.is_empty()) {
            self.catchup = None;
        }
        Ok(applied)
    }

    // Catch-up reply gate: while recovery's queue is still draining, only
    // reads execute (served from the verified applied prefix —
    // never beyond it); mutations answer `Busy` exactly like quota
    // backpressure, so the client retries once catch-up finishes.
    // Retransmissions of pre-crash operations never reach this gate: their
    // at-most-once windows were restored at recovery, so validation
    // re-acknowledges them from the cached status. Returns the substitute
    // execution result for intercepted operations.
    pub(super) fn catchup_gate(
        &mut self,
        opcode: Opcode,
        oid: u64,
    ) -> Option<(Status, usize, ReplyPlan)> {
        if !self.in_catchup() {
            return None;
        }
        if opcode == Opcode::Get {
            self.obs.inc("replica.catchup_reads_served", 1);
            return None;
        }
        self.obs.inc("replica.catchup_mutations_deferred", 1);
        Some((Status::Busy, 0, ReplyPlan::Busy { oid }))
    }

    // Stages one authenticated journal record: its at-most-once window /
    // session effects apply now, its data mutation queues for catchup_step.
    fn stage_record(
        &mut self,
        record: JournalRecord,
        queue: &mut VecDeque<JournalRecord>,
    ) -> Result<(), StoreError> {
        match record.kind {
            KIND_PUT | KIND_DELETE => {
                // Both bodies open with the issuing client and its oid.
                let mut pos = 0usize;
                let client = take(&record.body, &mut pos, 4)?.try_into().expect("4");
                let oid = take(&record.body, &mut pos, 8)?.try_into().expect("8");
                let window = self.sessions.restored(u32::from_le_bytes(client));
                window.replay(u64::from_le_bytes(oid));
            }
            KIND_EVICT | KIND_INSTALL => {}
            KIND_SESSION => {
                let mut pos = 0usize;
                let client = take(&record.body, &mut pos, 4)?.try_into().expect("4");
                let window = Window::decode_from(&record.body, &mut pos)?;
                if pos != record.body.len() {
                    return Err(StoreError::MalformedFrame);
                }
                *self.sessions.restored(u32::from_le_bytes(client)) = window;
                return Ok(());
            }
            _ => return Err(StoreError::MalformedFrame),
        }
        queue.push_back(record);
        Ok(())
    }

    // Applies one queued data mutation. It re-derives the store evidence
    // exactly as the original execution did and compares it to the
    // record's sealed post-apply evidence — any divergence means the
    // journal belongs to a different history (fork or rollback).
    fn apply_catchup_record(&mut self, record: &JournalRecord) -> Result<(), StoreError> {
        match record.kind {
            KIND_PUT => {
                let (_client_id, _oid, storage_seq, ev, entry) = decode_put(&record.body)?;
                self.store.bump_mutation(Opcode::Put, &entry.key);
                self.check_evidence(&ev)?;
                self.install_entry(entry)?;
                self.store.storage_seq = storage_seq;
            }
            KIND_DELETE => {
                let (_client_id, _oid, ev, key) = decode_delete(&record.body)?;
                self.replay_remove(&key)?;
                self.check_evidence(&ev)?;
            }
            KIND_EVICT => {
                let (ev, key) = decode_evict(&record.body)?;
                self.replay_remove(&key)?;
                self.check_evidence(&ev)?;
            }
            KIND_INSTALL => {
                // A fence install reproduces state counted at its source:
                // the evidence it was journaled under must be the evidence
                // replay has reached, and the install leaves it alone.
                let (ev, entry) = decode_install(&record.body)?;
                self.check_evidence(&ev)?;
                self.install_entry(entry)?;
            }
            _ => return Err(StoreError::MalformedFrame),
        }
        Ok(())
    }

    // Replays a removal (delete or eviction): the key must exist — its
    // absence means the journal diverged from the state it claims to
    // extend.
    fn replay_remove(&mut self, key: &[u8]) -> Result<(), StoreError> {
        if self
            .store
            .table_remove(self.host.as_deref(), stable_key_hash(key), key)
            .0
        {
            Ok(())
        } else {
            Err(StoreError::ForkDetected)
        }
    }

    fn check_evidence(&self, ev: &StoreEvidence) -> Result<(), StoreError> {
        if self.store.mutation_seq != ev.mutation_seq || self.store.state_digest != ev.state_digest
        {
            return Err(StoreError::ForkDetected);
        }
        Ok(())
    }
}

// --- record body codecs ---

fn encode_evidence(out: &mut Vec<u8>, ev: &StoreEvidence) {
    out.extend_from_slice(&ev.mutation_seq.to_le_bytes());
    out.extend_from_slice(&ev.state_digest);
}

fn decode_evidence(buf: &[u8], pos: &mut usize) -> Result<StoreEvidence, StoreError> {
    let mutation_seq = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
    let state_digest: [u8; 16] = take(buf, pos, 16)?.try_into().expect("16");
    Ok(StoreEvidence {
        mutation_seq,
        state_digest,
    })
}

// A `Put` record's body up to its entry, which follows in the snapshot
// entry codec.
fn encode_put_head(
    out: &mut Vec<u8>,
    client_id: u32,
    oid: u64,
    storage_seq: u64,
    ev: StoreEvidence,
) {
    out.extend_from_slice(&client_id.to_le_bytes());
    out.extend_from_slice(&oid.to_le_bytes());
    out.extend_from_slice(&storage_seq.to_le_bytes());
    encode_evidence(out, &ev);
}

type PutRecord = (u32, u64, u64, StoreEvidence, SnapshotEntry);

fn decode_put(body: &[u8]) -> Result<PutRecord, StoreError> {
    let mut pos = 0usize;
    let client_id = u32::from_le_bytes(take(body, &mut pos, 4)?.try_into().expect("4"));
    let oid = u64::from_le_bytes(take(body, &mut pos, 8)?.try_into().expect("8"));
    let storage_seq = u64::from_le_bytes(take(body, &mut pos, 8)?.try_into().expect("8"));
    let ev = decode_evidence(body, &mut pos)?;
    let entry = SnapshotEntry::decode_from(body, &mut pos)?;
    if pos != body.len() {
        return Err(StoreError::MalformedFrame);
    }
    Ok((client_id, oid, storage_seq, ev, entry))
}

fn encode_delete(out: &mut Vec<u8>, client_id: u32, oid: u64, ev: StoreEvidence, key: &[u8]) {
    out.extend_from_slice(&client_id.to_le_bytes());
    out.extend_from_slice(&oid.to_le_bytes());
    encode_evidence(out, &ev);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
}

fn decode_delete(body: &[u8]) -> Result<(u32, u64, StoreEvidence, Vec<u8>), StoreError> {
    let mut pos = 0usize;
    let client_id = u32::from_le_bytes(take(body, &mut pos, 4)?.try_into().expect("4"));
    let oid = u64::from_le_bytes(take(body, &mut pos, 8)?.try_into().expect("8"));
    let ev = decode_evidence(body, &mut pos)?;
    let key_len = u16::from_le_bytes(take(body, &mut pos, 2)?.try_into().expect("2")) as usize;
    let key = take(body, &mut pos, key_len)?.to_vec();
    if pos != body.len() {
        return Err(StoreError::MalformedFrame);
    }
    Ok((client_id, oid, ev, key))
}

fn encode_evict(ev: StoreEvidence, key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(26 + key.len());
    encode_evidence(&mut out, &ev);
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out
}

fn decode_evict(body: &[u8]) -> Result<(StoreEvidence, Vec<u8>), StoreError> {
    let mut pos = 0usize;
    let ev = decode_evidence(body, &mut pos)?;
    let key_len = u16::from_le_bytes(take(body, &mut pos, 2)?.try_into().expect("2")) as usize;
    let key = take(body, &mut pos, key_len)?.to_vec();
    if pos != body.len() {
        return Err(StoreError::MalformedFrame);
    }
    Ok((ev, key))
}

fn encode_install(ev: StoreEvidence, entry: &SnapshotEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + entry.key.len() + entry.stored_bytes.len() + 64);
    encode_evidence(&mut out, &ev);
    entry.encode_into(&mut out);
    out
}

fn decode_install(body: &[u8]) -> Result<(StoreEvidence, SnapshotEntry), StoreError> {
    let mut pos = 0usize;
    let ev = decode_evidence(body, &mut pos)?;
    let entry = SnapshotEntry::decode_from(body, &mut pos)?;
    if pos != body.len() {
        return Err(StoreError::MalformedFrame);
    }
    Ok((ev, entry))
}
