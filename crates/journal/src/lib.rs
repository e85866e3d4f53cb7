//! Sealed, MAC-chained mutation journal with group commit.
//!
//! PR 1's crash-restart snapshots protect a single node but lose everything
//! committed since the last seal. This crate promotes them into a
//! *continuous journal*: every store mutation appends one sealed record,
//! records accumulate in a pending group-commit buffer, and a *flush* moves
//! the group to durable storage in one write. The framing is designed for
//! the failure model of an untrusted host that can kill the process
//! mid-write and tamper with anything outside the enclave:
//!
//! * Each record body is AES-GCM sealed under an epoch-specific journal key
//!   (derived from the enclave sealing key, see `precursor-sgx`), with the
//!   running chain state and the record position bound into the AAD — a
//!   record cannot be decrypted out of order, spliced from another epoch,
//!   or re-used at a different sequence number.
//! * Records are MAC-chained ([`sha256`] over `state ‖ header ‖ ciphertext`)
//!   so [`recover`] can establish the longest authentic prefix without a
//!   trailing commit marker: a torn tail (partial final write) or any
//!   bit-flip simply terminates the chain and is truncated, never replayed.
//! * Sequence numbers are dense from 1, so replication acknowledgements and
//!   group-commit release points can be expressed as byte offsets *or*
//!   record sequence numbers interchangeably.
//!
//! What survives is a [`DurableLog`] — a [`Journal`]'s, a replica's copy,
//! a recovery's input — so the rule that a replay resumes only at the
//! anchor the log carries lives in this crate alone.
//!
//! The journal itself is transport- and policy-agnostic: the server decides
//! *what* to append (see `precursor::server`), the [`GroupCommitPolicy`]
//! decides *when* to flush, and the replication layer decides when a
//! flushed byte range is *committed* (quorum-acknowledged).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use precursor_crypto::gcm::{self, GcmKey};
use precursor_crypto::keys::{Key128, Nonce12};
use precursor_crypto::sha256;

/// Record header: `seq u64 ‖ kind u8 ‖ ct_len u32`, little-endian.
const HEADER_LEN: usize = 8 + 1 + 4;
/// Trailing chain tag bytes per record.
const CHAIN_TAG_LEN: usize = 16;

/// When the pending group-commit buffer is flushed to durable storage.
///
/// Both thresholds are checked against virtual time ("now" is whatever
/// monotonic tick the caller supplies — the server uses its sweep counter):
/// a flush happens when the group reaches `max_records` *or* the oldest
/// pending record has waited `max_age` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitPolicy {
    /// Flush when this many records are pending.
    pub max_records: usize,
    /// Flush when the oldest pending record is this many ticks old.
    pub max_age: u64,
}

impl GroupCommitPolicy {
    /// Flush after every append — the degenerate group of one. Keeps the
    /// durable journal exactly in step with execution, which is what the
    /// deterministic golden-digest runs use.
    pub fn immediate() -> GroupCommitPolicy {
        GroupCommitPolicy {
            max_records: 1,
            max_age: 0,
        }
    }

    /// Group up to `max_records` appends, but never hold a record pending
    /// for more than `max_age` ticks.
    pub fn batched(max_records: usize, max_age: u64) -> GroupCommitPolicy {
        GroupCommitPolicy {
            max_records: max_records.max(1),
            max_age,
        }
    }
}

/// Counters the observability layer mirrors into the metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Completed group-commit flushes.
    pub flushes: u64,
    /// Total sealed bytes moved to durable storage.
    pub bytes_sealed: u64,
    /// Records appended (pending + durable).
    pub records: u64,
    /// Prefix truncations performed ([`Journal::truncate_prefix`]).
    pub compactions: u64,
    /// Records removed by prefix truncation across all compactions.
    pub truncated_records: u64,
}

/// Damage applied to a flush by the fault-injection layer — models the
/// untrusted host killing the process mid-write or corrupting the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDamage {
    /// The write completed intact.
    None,
    /// The process died mid-write: only the first `n` bytes of the group
    /// reached durable storage. The journal is wedged afterwards.
    Torn(usize),
    /// The write completed but bit `i` (mod group length) flipped. The
    /// journal is wedged afterwards.
    CorruptBit(usize),
}

/// One decoded journal record, as recovered from durable bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Dense sequence number, starting at 1.
    pub seq: u64,
    /// Application-defined record kind tag.
    pub kind: u8,
    /// Decrypted record body.
    pub body: Vec<u8>,
}

/// Result of [`recover`]: the longest authentic record prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Authenticated records in sequence order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the authentic prefix — everything past this offset is
    /// a torn tail or tampering and must be truncated, never replayed.
    pub valid_len: usize,
    /// Whether trailing bytes were discarded.
    pub truncated: bool,
}

/// The durable side of one epoch's journal stream: the bytes that survive
/// a crash, the *logical* offset they start at (offsets address the whole
/// epoch stream, so a cut moves none), and the cut anchor `(base_seq,
/// chain)` a replay resumes at — `None` while the log is whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableLog {
    bytes: Vec<u8>,
    trimmed: u64,
    cut: Option<(u64, [u8; 16])>,
}

impl DurableLog {
    /// An empty log whose offset `trimmed` is the first byte of record
    /// `base_seq + 1`, and `chain` the MAC-chain state after `base_seq`. The
    /// anchor must come from trusted state — a sealed snapshot's
    /// `(journal_seq, journal_chain)` — as the walk authenticates relative
    /// to it.
    pub fn at_cut(trimmed: u64, base_seq: u64, chain: [u8; 16]) -> DurableLog {
        DurableLog {
            bytes: Vec::new(),
            trimmed,
            cut: Some((base_seq, chain)),
        }
    }

    /// The surviving bytes: the records after the cut, if any.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The surviving bytes as the untrusted host holds them: anything may
    /// happen to them, and [`recover`](Self::recover)'s walk catches it.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Logical offset of the first surviving byte (the bytes cuts removed).
    pub fn trimmed(&self) -> u64 {
        self.trimmed
    }

    /// Logical end offset: trimmed prefix plus the surviving bytes.
    pub fn end(&self) -> u64 {
        self.trimmed + self.bytes.len() as u64
    }

    /// The cut anchor `(base_seq, chain)`, `None` while the log is whole.
    pub fn cut(&self) -> Option<(u64, [u8; 16])> {
        self.cut
    }

    /// The last record truncated (0 while the log is whole).
    pub fn base_seq(&self) -> u64 {
        self.cut.map_or(0, |(seq, _)| seq)
    }

    /// Appends what this log lacks of `chunk`, the logical bytes from
    /// `offset` on. A chunk that starts before the log, past its end (a
    /// gap), or ends within it (stale or duplicate) changes nothing.
    /// Returns whether bytes were appended.
    pub fn append_at(&mut self, offset: u64, chunk: &[u8]) -> bool {
        let end = self.end();
        if offset < self.trimmed || offset > end || offset + chunk.len() as u64 <= end {
            return false;
        }
        self.bytes
            .extend_from_slice(&chunk[(end - offset) as usize..]);
        true
    }

    /// Cuts every whole record with sequence number ≤ `upto_seq`; the new
    /// anchor is the chain tag of the last one. Returns the records removed
    /// (0 at or before the current cut). The caller must hold a sealed
    /// snapshot covering `upto_seq`: the prefix is gone from the log.
    pub fn truncate_prefix(&mut self, upto_seq: u64) -> u64 {
        let base_seq = self.base_seq();
        if upto_seq <= base_seq {
            return 0;
        }
        let mut pos = 0usize;
        let mut seq = base_seq;
        let mut chain = [0u8; 16];
        while pos + HEADER_LEN <= self.bytes.len() {
            let rest = &self.bytes[pos..];
            let rec_seq = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
            let ct_len = u32::from_le_bytes(rest[9..13].try_into().expect("4 bytes")) as usize;
            let end = pos + HEADER_LEN + ct_len + CHAIN_TAG_LEN;
            if rec_seq > upto_seq || end > self.bytes.len() {
                break;
            }
            seq = rec_seq;
            chain.copy_from_slice(&self.bytes[end - CHAIN_TAG_LEN..end]);
            pos = end;
        }
        if pos == 0 {
            return 0;
        }
        self.bytes.drain(..pos);
        self.trimmed += pos as u64;
        self.cut = Some((seq, chain));
        seq - base_seq
    }

    /// Whether two logs hold the same bytes where their coverage overlaps.
    /// The stream is MAC-chained, so copies of divergent histories cannot
    /// agree.
    pub fn agrees_with(&self, other: &DurableLog) -> bool {
        let start = self.trimmed.max(other.trimmed);
        let len = self.end().min(other.end()).saturating_sub(start) as usize;
        let at = |log: &DurableLog| (start - log.trimmed) as usize;
        len == 0 || self.bytes[at(self)..][..len] == other.bytes[at(other)..][..len]
    }

    /// The longest authentic record prefix of the surviving bytes under the
    /// epoch's journal `key`, walked from the cut's anchor or, uncut, from
    /// [`genesis_chain`]`(epoch)`. A torn tail, bit-flip, sequence gap or
    /// cross-epoch splice ends the walk; the rest is truncated, never
    /// replayed.
    pub fn recover(&self, key: &Key128, epoch: u64) -> Recovered {
        let (base_seq, chain) = self.cut.unwrap_or_else(|| (0, genesis_chain(epoch)));
        walk(key, base_seq, chain, &self.bytes)
    }
}

/// A continuous sealed journal of store mutations.
///
/// `log` models the bytes that survived past crashes (the "file");
/// `pending` is the in-memory group-commit buffer that a crash loses.
#[derive(Debug, Clone)]
pub struct Journal {
    // The epoch's journal key, expanded once for every record sealed.
    key: GcmKey,
    epoch: u64,
    chain: [u8; 16],
    next_seq: u64,
    log: DurableLog,
    pending: Vec<u8>,
    pending_records: usize,
    pending_since: u64,
    policy: GroupCommitPolicy,
    stats: JournalStats,
    wedged: bool,
}

/// Chain seed for an epoch: journals from different epochs can never be
/// spliced into each other even under the same key-derivation root.
/// Public so snapshot anchors for journal-less servers can use the same
/// well-known value instead of an ad-hoc zero sentinel.
pub fn genesis_chain(epoch: u64) -> [u8; 16] {
    let mut msg = Vec::with_capacity(32);
    msg.extend_from_slice(b"precursor-journal-genesis");
    msg.extend_from_slice(&epoch.to_le_bytes());
    let d = sha256::digest(&msg);
    let mut c = [0u8; 16];
    c.copy_from_slice(&d[..16]);
    c
}

// AAD binds the record to its chain position, kind and sequence number.
fn record_aad(chain: &[u8; 16], kind: u8, seq: u64) -> [u8; 16 + 1 + 8] {
    let mut aad = [0u8; 16 + 1 + 8];
    aad[..16].copy_from_slice(chain);
    aad[16] = kind;
    aad[17..].copy_from_slice(&seq.to_le_bytes());
    aad
}

// Chain advance: `state' = sha256(state ‖ seq ‖ kind ‖ ct)[..16]`.
fn advance_chain(chain: &[u8; 16], seq: u64, kind: u8, ct: &[u8]) -> [u8; 16] {
    let mut hasher = sha256::Sha256::new();
    hasher.update(chain);
    hasher.update(&seq.to_le_bytes());
    hasher.update(&[kind]);
    hasher.update(ct);
    let d = hasher.finish();
    let mut c = [0u8; 16];
    c.copy_from_slice(&d[..16]);
    c
}

impl Journal {
    /// Opens a fresh journal for `epoch` under `key`. The epoch is the
    /// trusted monotonic counter value the key was derived at; it seeds the
    /// MAC chain so no two epochs produce splicable byte streams.
    pub fn new(key: Key128, epoch: u64, policy: GroupCommitPolicy) -> Journal {
        Journal {
            key: GcmKey::new(&key),
            chain: genesis_chain(epoch),
            epoch,
            next_seq: 1,
            log: DurableLog::default(),
            pending: Vec::new(),
            pending_records: 0,
            pending_since: 0,
            policy,
            stats: JournalStats::default(),
            wedged: false,
        }
    }

    /// Appends one sealed record to the pending group; returns its sequence
    /// number. `now` is the caller's monotonic tick, used only to age the
    /// group for [`should_flush`](Self::should_flush).
    ///
    /// Deterministic by construction: the nonce is the sequence counter, no
    /// RNG is drawn, so journaling is invisible to seeded runs.
    pub fn append(&mut self, kind: u8, body: &[u8], now: u64) -> u64 {
        debug_assert!(!self.wedged, "append on a wedged journal");
        let seq = self.next_seq;
        self.next_seq += 1;
        let aad = record_aad(&self.chain, kind, seq);
        if self.pending_records == 0 {
            self.pending_since = now;
        }
        let ct_len = body.len() + gcm::TAG_LEN;
        self.pending.extend_from_slice(&seq.to_le_bytes());
        self.pending.push(kind);
        self.pending
            .extend_from_slice(&(ct_len as u32).to_le_bytes());
        // Sealed in place after its header: no per-record ciphertext Vec.
        let ct_at = self.pending.len();
        let nonce = Nonce12::from_counter(seq);
        self.key.seal_into(&mut self.pending, &nonce, &aad, body);
        self.chain = advance_chain(&self.chain, seq, kind, &self.pending[ct_at..]);
        self.pending.extend_from_slice(&self.chain);
        self.pending_records += 1;
        self.stats.records += 1;
        seq
    }

    /// Whether the group-commit policy calls for a flush at tick `now`.
    pub fn should_flush(&self, now: u64) -> bool {
        self.pending_records >= self.policy.max_records
            || (self.pending_records > 0
                && now >= self.pending_since.saturating_add(self.policy.max_age))
    }

    /// Flushes the pending group to durable storage. Returns the byte
    /// offset the group landed at and its length, or `None` if nothing was
    /// pending.
    pub fn flush(&mut self) -> Option<(u64, usize)> {
        self.flush_with(FlushDamage::None)
    }

    /// Flushes the pending group, applying `damage` from the fault layer.
    /// A damaged flush wedges the journal: the process is considered dead
    /// mid-write and only [`recover`] makes sense afterwards.
    pub fn flush_with(&mut self, damage: FlushDamage) -> Option<(u64, usize)> {
        if self.pending.is_empty() {
            return None;
        }
        // Logical stream offset, so replication acks stay stable across
        // cuts.
        let phys = self.log.bytes.len();
        let offset = self.log.end();
        // The group is copied out and the pending buffer kept: the next
        // group is sealed into the same allocation.
        let group = &self.pending;
        self.pending_records = 0;
        let written = match damage {
            FlushDamage::None => {
                self.log.bytes.extend_from_slice(group);
                group.len()
            }
            FlushDamage::Torn(n) => {
                let keep = n.min(group.len());
                self.log.bytes.extend_from_slice(&group[..keep]);
                self.wedged = true;
                keep
            }
            FlushDamage::CorruptBit(i) => {
                self.log.bytes.extend_from_slice(group);
                let bit = i % (group.len() * 8);
                let at = phys + bit / 8;
                self.log.bytes[at] ^= 1 << (bit % 8);
                self.wedged = true;
                group.len()
            }
        };
        self.pending.clear();
        self.stats.flushes += 1;
        self.stats.bytes_sealed += written as u64;
        Some((offset, written))
    }

    /// The durable byte stream that survives a crash: the records after the
    /// compaction cut, or the whole epoch stream if no
    /// [`truncate_prefix`](Self::truncate_prefix) ever ran.
    pub fn durable(&self) -> &[u8] {
        &self.log.bytes
    }

    /// The durable side of the stream.
    pub fn log(&self) -> &DurableLog {
        &self.log
    }

    /// Current head of the MAC chain (state after the last appended
    /// record). Sealed into snapshots so a compacted `(snapshot, tail)`
    /// pair carries its own trusted recovery anchor.
    pub fn chain(&self) -> [u8; 16] {
        self.chain
    }

    /// [`DurableLog::truncate_prefix`] of the durable log, counted in the
    /// stats (0 on a wedged journal); appends carry on past the cut.
    pub fn truncate_prefix(&mut self, upto_seq: u64) -> u64 {
        if self.wedged {
            return 0;
        }
        let removed = self.log.truncate_prefix(upto_seq);
        if removed > 0 {
            self.stats.compactions += 1;
            self.stats.truncated_records += removed;
        }
        removed
    }

    /// Sequence number of the most recently appended record (0 if none).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Records appended but not yet flushed.
    pub fn pending_records(&self) -> usize {
        self.pending_records
    }

    /// Bytes sitting in the pending group-commit buffer.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// The configured group-commit policy.
    pub fn policy(&self) -> GroupCommitPolicy {
        self.policy
    }

    /// The journal epoch (trusted counter value at creation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Flush/byte counters for the metrics layer.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Whether a damaged flush has wedged this journal.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }
}

/// Recovers the longest authentic record prefix from a whole epoch's
/// durable journal bytes — [`DurableLog::recover`] of a log never cut.
pub fn recover(key: &Key128, epoch: u64, bytes: &[u8]) -> Recovered {
    walk(key, 0, genesis_chain(epoch), bytes)
}

// The chain walk from the anchor `(base_seq, chain)` over the bytes that
// follow it.
fn walk(key: &Key128, base_seq: u64, base_chain: [u8; 16], bytes: &[u8]) -> Recovered {
    // One key set-up for the whole replay, not one per record.
    let key = GcmKey::new(key);
    let mut records = Vec::new();
    let mut chain = base_chain;
    let mut expected_seq = base_seq + 1;
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < HEADER_LEN {
            break;
        }
        let seq = u64::from_le_bytes(rest[..8].try_into().unwrap());
        let kind = rest[8];
        let ct_len = u32::from_le_bytes(rest[9..13].try_into().unwrap()) as usize;
        if seq != expected_seq
            || ct_len < gcm::TAG_LEN
            || rest.len() < HEADER_LEN + ct_len + CHAIN_TAG_LEN
        {
            break;
        }
        let ct = &rest[HEADER_LEN..HEADER_LEN + ct_len];
        let tag = &rest[HEADER_LEN + ct_len..HEADER_LEN + ct_len + CHAIN_TAG_LEN];
        let aad = record_aad(&chain, kind, seq);
        let body = match key.open(&Nonce12::from_counter(seq), &aad, ct) {
            Ok(b) => b,
            Err(_) => break,
        };
        let next_chain = advance_chain(&chain, seq, kind, ct);
        if tag != next_chain {
            break;
        }
        chain = next_chain;
        records.push(JournalRecord { seq, kind, body });
        expected_seq += 1;
        pos += HEADER_LEN + ct_len + CHAIN_TAG_LEN;
    }
    Recovered {
        records,
        valid_len: pos,
        truncated: pos != bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key128 {
        Key128::from_bytes([7u8; 16])
    }

    fn filled(policy: GroupCommitPolicy, n: u64) -> Journal {
        let mut j = Journal::new(key(), 3, policy);
        for i in 0..n {
            j.append((i % 3) as u8 + 1, format!("body-{i}").as_bytes(), i);
            if j.should_flush(i) {
                j.flush();
            }
        }
        j.flush();
        j
    }

    #[test]
    fn roundtrip_recovers_every_record() {
        let j = filled(GroupCommitPolicy::batched(4, 10), 11);
        let r = recover(&key(), 3, j.durable());
        assert!(!r.truncated);
        assert_eq!(r.valid_len, j.durable().len());
        assert_eq!(r.records.len(), 11);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.body, format!("body-{i}").as_bytes());
        }
    }

    #[test]
    fn group_commit_policy_batches_and_ages() {
        let mut j = Journal::new(key(), 1, GroupCommitPolicy::batched(3, 5));
        j.append(1, b"a", 0);
        assert!(!j.should_flush(0), "one record, fresh: no flush");
        j.append(1, b"b", 1);
        j.append(1, b"c", 2);
        assert!(j.should_flush(2), "count threshold reached");
        j.flush();
        assert_eq!(j.stats().flushes, 1);
        j.append(1, b"d", 10);
        assert!(!j.should_flush(12));
        assert!(j.should_flush(15), "age threshold reached");
        // immediate() flushes after every append
        let mut im = Journal::new(key(), 1, GroupCommitPolicy::immediate());
        im.append(1, b"x", 0);
        assert!(im.should_flush(0));
    }

    #[test]
    fn torn_tail_is_truncated_never_replayed() {
        let j = filled(GroupCommitPolicy::immediate(), 6);
        let full = j.durable().to_vec();
        // Cut mid-way through the last record.
        for cut in [
            full.len() - 1,
            full.len() - CHAIN_TAG_LEN - 3,
            full.len() - 40,
        ] {
            let r = recover(&key(), 3, &full[..cut]);
            assert!(r.truncated);
            assert!(r.records.len() < 6, "torn record must not be replayed");
            assert!(r.valid_len <= cut);
            // The surviving prefix is exactly the first N intact records.
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.body, format!("body-{i}").as_bytes());
            }
        }
    }

    #[test]
    fn damaged_flush_wedges_and_recovery_truncates() {
        let mut j = Journal::new(key(), 3, GroupCommitPolicy::batched(8, 100));
        for i in 0..4 {
            j.append(1, format!("body-{i}").as_bytes(), i);
        }
        j.flush();
        let good = j.durable().len();
        for i in 4..8 {
            j.append(1, format!("body-{i}").as_bytes(), i);
        }
        j.flush_with(FlushDamage::Torn(17));
        assert!(j.is_wedged());
        let r = recover(&key(), 3, j.durable());
        assert_eq!(r.records.len(), 4, "only the intact group replays");
        assert_eq!(r.valid_len, good);
        assert!(r.truncated);
    }

    #[test]
    fn bit_flip_terminates_the_chain() {
        let j = filled(GroupCommitPolicy::immediate(), 5);
        let len = j.durable().len();
        for bit in [0usize, len * 4, len * 8 - 1] {
            let mut bytes = j.durable().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let r = recover(&key(), 3, &bytes);
            assert!(r.truncated, "bit {bit} must be detected");
            assert!(r.records.len() < 5);
            for (i, rec) in r.records.iter().enumerate() {
                assert_eq!(rec.body, format!("body-{i}").as_bytes(), "prefix intact");
            }
        }
    }

    #[test]
    fn truncate_prefix_preserves_chain_and_offsets() {
        let mut j = filled(GroupCommitPolicy::batched(4, 10), 12);
        let full = j.durable().to_vec();
        let removed = j.truncate_prefix(7);
        assert_eq!(removed, 7);
        assert_eq!(j.log().base_seq(), 7);
        assert_eq!(j.stats().compactions, 1);
        assert_eq!(j.stats().truncated_records, 7);
        assert_eq!(j.log().end(), full.len() as u64, "logical end unchanged");
        // The surviving suffix is bit-identical to the uncompacted stream's.
        assert_eq!(j.durable(), &full[j.log().trimmed() as usize..]);
        // The anchored walk authenticates exactly records 8..=12.
        let r = j.log().recover(&key(), 3);
        assert!(!r.truncated);
        assert_eq!(r.records.len(), 5);
        for (i, rec) in r.records.iter().enumerate() {
            assert_eq!(rec.seq, 8 + i as u64);
            assert_eq!(rec.body, format!("body-{}", 7 + i).as_bytes());
        }
        // Appends after the cut keep chaining: flush offsets stay logical.
        let mut j2 = j.clone();
        j2.append(1, b"after-cut", 99);
        let (off, _) = j2.flush().expect("flushes");
        assert_eq!(off, full.len() as u64, "flush offset is logical");
        let r = j2.log().recover(&key(), 3);
        assert_eq!(r.records.last().expect("records").body, b"after-cut");
        assert!(!r.truncated);
    }

    #[test]
    fn truncate_prefix_cuts_only_at_record_boundaries() {
        let mut j = filled(GroupCommitPolicy::batched(3, 10), 9);
        // Watermark 0 / at the cut: nothing removed.
        assert_eq!(j.truncate_prefix(0), 0);
        assert_eq!(j.truncate_prefix(4), 4);
        assert_eq!(j.truncate_prefix(4), 0, "cut is idempotent");
        // Truncation past the durable end stops at the last whole record.
        assert_eq!(j.truncate_prefix(u64::MAX), 5);
        assert_eq!(j.log().base_seq(), 9);
        assert!(j.durable().is_empty());
        let r = j.log().recover(&key(), 3);
        assert!(r.records.is_empty() && !r.truncated);
        // A tampered anchor refuses to authenticate the suffix.
        let mut k = filled(GroupCommitPolicy::immediate(), 6);
        k.truncate_prefix(3);
        let (seq, mut bad) = k.log().cut().expect("cut");
        bad[0] ^= 1;
        let mut forged = DurableLog::at_cut(k.log().trimmed(), seq, bad);
        assert!(forged.append_at(k.log().trimmed(), k.durable()));
        let r = forged.recover(&key(), 3);
        assert!(r.records.is_empty() && r.truncated);
    }

    // The whole stream of `filled(immediate, n)` as a log, and the logical
    // end of each record in it.
    fn whole_log(n: u64) -> (DurableLog, Vec<u64>) {
        let j = filled(GroupCommitPolicy::immediate(), n);
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while pos < j.durable().len() {
            let ct_len = u32::from_le_bytes(j.durable()[pos + 9..pos + 13].try_into().unwrap());
            pos += HEADER_LEN + ct_len as usize + CHAIN_TAG_LEN;
            ends.push(pos as u64);
        }
        (j.log().clone(), ends)
    }

    #[test]
    fn append_at_takes_only_the_missing_suffix() {
        let (whole, ends) = whole_log(4);
        let bytes = whole.bytes();
        let mut log = DurableLog::default();
        let first = ends[1] as usize;
        assert!(log.append_at(0, &bytes[..first]));
        // Stale (ends inside what the log holds) and duplicate chunks.
        assert!(!log.append_at(0, &bytes[..ends[0] as usize]));
        assert!(!log.append_at(0, &bytes[..first]));
        // A gap: the chunk starts past the log's end.
        assert!(!log.append_at(ends[2], &bytes[ends[2] as usize..]));
        assert_eq!(log.end(), ends[1]);
        // An overlapping chunk appends only what is missing.
        assert!(log.append_at(ends[0], &bytes[ends[0] as usize..]));
        assert_eq!(log, whole);
        // A log that starts at a cut refuses a chunk from before its start,
        // however far it reaches.
        let mut cut = DurableLog::at_cut(ends[1], 2, [0; 16]);
        assert!(!cut.append_at(ends[0], &bytes[ends[0] as usize..]));
        assert!(cut.append_at(ends[1], &bytes[first..]));
        assert_eq!(cut.bytes(), &bytes[first..]);
        assert_eq!(cut.end(), whole.end());
    }

    #[test]
    fn truncate_prefix_keeps_offsets_and_anchors_at_the_chain_tag() {
        let (whole, ends) = whole_log(5);
        let mut log = whole.clone();
        assert_eq!(log.cut(), None);
        assert_eq!(log.truncate_prefix(2), 2);
        let tag_end = ends[1] as usize;
        let tag: [u8; 16] = whole.bytes()[tag_end - CHAIN_TAG_LEN..tag_end]
            .try_into()
            .unwrap();
        assert_eq!(log.cut(), Some((2, tag)), "anchor is record 2's chain tag");
        assert_eq!((log.trimmed(), log.end()), (ends[1], whole.end()));
        assert_eq!(log.bytes(), &whole.bytes()[tag_end..]);
        // A second cut moves the anchor on; one at or before it is a no-op.
        assert_eq!(log.truncate_prefix(2), 0);
        assert_eq!(log.truncate_prefix(4), 2);
        assert_eq!(log.base_seq(), 4);
        assert_eq!(log.trimmed(), ends[3]);
    }

    #[test]
    fn agrees_with_compares_the_overlap() {
        let (whole, _) = whole_log(6);
        let mut compacted = whole.clone();
        compacted.truncate_prefix(3);
        let mut short = whole.clone();
        short.bytes_mut().truncate(whole.bytes().len() / 2);
        assert!(compacted.agrees_with(&whole) && whole.agrees_with(&compacted));
        assert!(short.agrees_with(&whole) && short.agrees_with(&compacted));
        // No overlap at all agrees trivially.
        let mut tail = whole.clone();
        tail.truncate_prefix(6);
        assert!(tail.agrees_with(&short));
        // One flipped byte inside the overlap disagrees, from either side.
        let mut flipped = whole.clone();
        let at = whole.bytes().len() - 1;
        flipped.bytes_mut()[at] ^= 0x40;
        assert!(!flipped.agrees_with(&compacted) && !compacted.agrees_with(&flipped));
        // Outside the overlap it does not matter.
        assert!(flipped.agrees_with(&short));
    }

    #[test]
    fn recover_at_a_cut_resumes_at_its_anchor() {
        let (whole, ends) = whole_log(7);
        let full = whole.recover(&key(), 3);
        assert_eq!(full, recover(&key(), 3, whole.bytes()), "uncut is genesis");
        let mut compacted = whole.clone();
        compacted.truncate_prefix(4);
        let (base_seq, chain) = compacted.cut().expect("cut");
        let r = compacted.recover(&key(), 3);
        // The anchored walk over the surviving bytes, from the anchor...
        assert_eq!(r, walk(&key(), base_seq, chain, compacted.bytes()));
        // ...which is the whole recovery's tail, byte offsets made relative.
        assert_eq!(r.records, full.records[4..].to_vec());
        assert_eq!(r.valid_len as u64, whole.end() - ends[3]);
        assert!(!r.truncated);
        // The epoch no longer matters past a cut: the anchor carries it.
        assert_eq!(compacted.recover(&key(), 99), r);
    }

    #[test]
    fn epoch_splice_and_wrong_key_are_rejected() {
        let j = filled(GroupCommitPolicy::immediate(), 3);
        let r = recover(&key(), 4, j.durable());
        assert_eq!(r.records.len(), 0, "wrong epoch: genesis chain differs");
        assert!(r.truncated);
        let r = recover(&Key128::from_bytes([8u8; 16]), 3, j.durable());
        assert_eq!(r.records.len(), 0, "wrong key");
        // Concatenating two epochs' streams must not extend the chain.
        let j2 = filled(GroupCommitPolicy::immediate(), 2);
        let mut spliced = j.durable().to_vec();
        spliced.extend_from_slice(j2.durable());
        let r = recover(&key(), 3, &spliced);
        assert_eq!(r.records.len(), 3, "foreign epoch tail truncated");
        assert!(r.truncated);
    }
}
