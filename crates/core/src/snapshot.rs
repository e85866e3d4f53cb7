//! Sealed snapshots with rollback detection.
//!
//! Precursor is an in-memory store; for persistence the paper points at
//! SGX's trusted monotonic counters to "detect state rollback attacks and
//! forking" (§2.1, deferring to Brandenburger et al. and SPEICHER). This
//! module provides that integration: [`PrecursorServer::snapshot`] seals
//! the key-value state (enclave metadata *and* the untrusted ciphertexts)
//! under the enclave's platform-bound sealing key, binding in a fresh
//! monotonic-counter version; [`PrecursorServer::restore`] only accepts the
//! blob matching the counter's *current* value, so replaying an older
//! snapshot — the classic rollback attack — is rejected.
//!
//! The snapshot carries ciphertexts exactly as stored (values remain
//! protected by their one-time keys); the sealed layer protects the enclave
//! metadata (`K_operation`s, the storage key) and the snapshot's integrity.
//!
//! **Blob layout** (this file owns it; `seal` writes it, `open` is the
//! only reader, and `Cut::persisted_intact` authenticates a written copy
//! without reading it):
//!
//! ```text
//! sealed_len u32 | nonce 12 | GCM(manifest, aad = version) | segment ciphertexts, index order
//!
//! manifest = header (every SnapshotHeader field)
//!          | rows u16 | (index u16, len u32, nonce 12, tag 16) per non-empty segment
//! ```
//!
//! The store is cut into `SEGMENTS` segments by key hash
//! (`segment_of`), each sealed on its own under a nonce derived from the
//! manifest's and an AAD naming its index; its tag lives in the manifest
//! row, not beside the ciphertext. Only the manifest is bound to the
//! counter: a rolled-back manifest fails the version check as a whole blob
//! used to, and a segment that is stale, swapped or spliced in from
//! another cut fails against the row that names it. A cut therefore
//! re-seals only the segments holding a key written since the last one
//! (`DirtyKeys`) and carries the others over by reference
//! ([`SnapshotBlob`]) — see DESIGN §14 "Log compaction".

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

use precursor_crypto::gcm::{self, GcmKey};
use precursor_crypto::keys::{Key128, Key256, Nonce12, Nonce8};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sgx::sealing;
use precursor_sim::CostModel;
use precursor_storage::robinhood::shard_of_hash;

use crate::config::{Config, EncryptionMode};
use crate::error::StoreError;
use crate::server::PrecursorServer;
use crate::wire::Status;

/// Number of independently sealed segments of a snapshot. A constant of
/// the format, not a tunable: DESIGN §14 has the measured table behind it.
pub(crate) const SEGMENTS: usize = 1024;

// Manifest rows index segments in 16 bits.
const _: () = assert!(SEGMENTS <= 1 << 16);

/// The segment holding a key with this
/// [`stable_key_hash`](precursor_storage::robinhood::stable_key_hash) — a
/// function of the hash alone, so it survives table resizes, shard counts
/// and restores.
pub(crate) fn segment_of(hash: u64) -> usize {
    shard_of_hash(hash, SEGMENTS)
}

/// The store's dirty set: every key written (inserted, overwritten or
/// removed) since the last committed cut, grouped by segment. The next cut
/// re-seals exactly these segments, and inside each one takes only these
/// keys from the table. Bounded by the distinct keys written between two
/// cuts.
#[derive(Debug, Default)]
pub(crate) struct DirtyKeys(BTreeMap<usize, BTreeSet<Vec<u8>>>);

impl DirtyKeys {
    pub(crate) fn insert(&mut self, hash: u64, key: &[u8]) {
        let keys = self.0.entry(segment_of(hash)).or_default();
        if !keys.contains(key) {
            keys.insert(key.to_vec());
        }
    }

    /// The dirty segments in index order, each with its written keys.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (usize, &BTreeSet<Vec<u8>>)> {
        self.0.iter().map(|(&segment, keys)| (segment, keys))
    }
}

/// A sealed snapshot in the blob format above, held in parts: the framed
/// manifest (`sealed_len | nonce | GCM(manifest)`), then one buffer per
/// non-empty segment in index order. Parts are shared: a cut carries every
/// clean segment of the previous cut by reference, and a clone — the
/// host's persisted copy, the replica group's shipped pair — shares every
/// part until a write lands in one, which copies that part alone.
/// [`to_vec`](Self::to_vec) builds the flat bytes
/// [`PrecursorServer::restore`] and [`PrecursorServer::recover`] take.
#[derive(Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    parts: Vec<Arc<Vec<u8>>>,
}

impl SnapshotBlob {
    /// Length of the flat blob in bytes.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Whether the blob holds no byte at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat blob.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.append_to(&mut out);
        out
    }

    /// Cuts the blob to its first `len` bytes, copying only the part the
    /// cut falls inside.
    pub fn truncate(&mut self, len: usize) {
        let mut end = 0;
        let Some(last) = self.parts.iter().position(|p| {
            end += p.len();
            end >= len
        }) else {
            return;
        };
        self.parts.truncate(last + 1);
        if end > len {
            let part = &mut self.parts[last];
            let keep = part.len() - (end - len);
            Arc::make_mut(part).truncate(keep);
        }
    }

    /// Appends one byte to the last part (copying it).
    pub fn push(&mut self, byte: u8) {
        match self.parts.last_mut() {
            Some(last) => Arc::make_mut(last).push(byte),
            None => self.parts.push(Arc::new(vec![byte])),
        }
    }

    /// Removes the last byte (copying the part it sat in).
    pub fn pop(&mut self) -> Option<u8> {
        let len = self.len().checked_sub(1)?;
        let byte = self[len];
        self.truncate(len);
        Some(byte)
    }

    /// Drops every part.
    pub fn clear(&mut self) {
        self.parts.clear();
    }

    pub(crate) fn append_to(&self, out: &mut Vec<u8>) {
        for part in &self.parts {
            out.extend_from_slice(part);
        }
    }

    /// Bytes of `self` not held in the buffer `sealed` holds at the same
    /// position: what writes to a clone of `sealed` copied.
    pub(crate) fn unshared_bytes(&self, sealed: &SnapshotBlob) -> u64 {
        let shared = |i: usize, part: &Arc<Vec<u8>>| {
            sealed.parts.get(i).is_some_and(|s| Arc::ptr_eq(s, part))
        };
        let parts = self.parts.iter().enumerate();
        parts
            .filter(|&(i, part)| !shared(i, part))
            .map(|(_, part)| part.len() as u64)
            .sum()
    }

    #[cfg(test)]
    pub(crate) fn parts(&self) -> &[Arc<Vec<u8>>] {
        &self.parts
    }

    // The part holding byte `offset` of the flat blob, and where in it.
    fn locate(&self, mut offset: usize) -> (usize, usize) {
        for (i, part) in self.parts.iter().enumerate() {
            if offset < part.len() {
                return (i, offset);
            }
            offset -= part.len();
        }
        panic!("offset out of range of a {}-byte snapshot blob", self.len());
    }
}

impl From<Vec<u8>> for SnapshotBlob {
    /// A blob of one part: flat bytes, e.g. as read back from storage.
    fn from(bytes: Vec<u8>) -> SnapshotBlob {
        SnapshotBlob {
            parts: vec![Arc::new(bytes)],
        }
    }
}

impl Index<usize> for SnapshotBlob {
    type Output = u8;

    fn index(&self, offset: usize) -> &u8 {
        let (part, at) = self.locate(offset);
        &self.parts[part][at]
    }
}

impl IndexMut<usize> for SnapshotBlob {
    /// Copies the part holding `offset` first, unless no one shares it.
    fn index_mut(&mut self, offset: usize) -> &mut u8 {
        let (part, at) = self.locate(offset);
        &mut Arc::make_mut(&mut self.parts[part])[at]
    }
}

impl fmt::Debug for SnapshotBlob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotBlob")
            .field("len", &self.len())
            .field("parts", &self.parts.len())
            .finish()
    }
}

// One serialized entry of a snapshot segment. The same framing carries a
// single entry inside a journal `Put` record, so snapshot restore and
// journal replay install entries through one codec.
#[derive(Debug)]
pub(crate) struct SnapshotEntry {
    pub key: Vec<u8>,
    pub k_op: Key256,
    pub payload_nonce: Nonce8,
    pub storage_seq: u64,
    pub client_id: u32,
    pub payload_len: usize,
    pub stored_bytes: Vec<u8>, // ciphertext ‖ MAC (client mode) or GCM blob
}

// A `SnapshotEntry` that borrows its bytes: what the seal path encodes
// straight out of the table and the payload pool.
pub(crate) struct EntryRef<'a> {
    pub key: &'a [u8],
    pub k_op: &'a Key256,
    pub payload_nonce: Nonce8,
    pub storage_seq: u64,
    pub client_id: u32,
    pub payload_len: usize,
    pub stored_bytes: &'a [u8],
}

// Bounds-checked slice reader shared by the snapshot and journal codecs.
pub(crate) fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], StoreError> {
    if *pos + n > buf.len() {
        return Err(StoreError::MalformedFrame);
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

impl EntryRef<'_> {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.key.len() as u16).to_le_bytes());
        out.extend_from_slice(self.key);
        out.extend_from_slice(self.k_op.as_bytes());
        out.extend_from_slice(self.payload_nonce.as_bytes());
        out.extend_from_slice(&self.storage_seq.to_le_bytes());
        out.extend_from_slice(&self.client_id.to_le_bytes());
        out.extend_from_slice(&(self.payload_len as u32).to_le_bytes());
        out.extend_from_slice(&(self.stored_bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(self.stored_bytes);
    }

    pub(crate) fn to_entry(&self) -> SnapshotEntry {
        SnapshotEntry {
            key: self.key.to_vec(),
            k_op: self.k_op.clone(),
            payload_nonce: self.payload_nonce,
            storage_seq: self.storage_seq,
            client_id: self.client_id,
            payload_len: self.payload_len,
            stored_bytes: self.stored_bytes.to_vec(),
        }
    }
}

impl SnapshotEntry {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        EntryRef {
            key: &self.key,
            k_op: &self.k_op,
            payload_nonce: self.payload_nonce,
            storage_seq: self.storage_seq,
            client_id: self.client_id,
            payload_len: self.payload_len,
            stored_bytes: &self.stored_bytes,
        }
        .encode_into(out);
    }

    pub(crate) fn decode_from(buf: &[u8], pos: &mut usize) -> Result<SnapshotEntry, StoreError> {
        let key_len = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
        let key = take(buf, pos, key_len)?.to_vec();
        let k_op = Key256::try_from(take(buf, pos, 32)?).map_err(|_| StoreError::MalformedFrame)?;
        let payload_nonce =
            Nonce8::try_from(take(buf, pos, 8)?).map_err(|_| StoreError::MalformedFrame)?;
        let storage_seq = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let client_id = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4"));
        let payload_len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
        let stored_len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
        let stored_bytes = take(buf, pos, stored_len)?.to_vec();
        Ok(SnapshotEntry {
            key,
            k_op,
            payload_nonce,
            storage_seq,
            client_id,
            payload_len,
            stored_bytes,
        })
    }
}

// Steps `pos` over one encoded entry of `buf` and returns its key: all a
// re-seal needs of an entry it carries over verbatim.
fn skip_entry<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], StoreError> {
    let key_len = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
    let key = take(buf, pos, key_len)?;
    // k_op 32, payload nonce 8, storage seq 8, client id 4, payload len 4
    take(buf, pos, 56)?;
    let stored_len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
    take(buf, pos, stored_len)?;
    Ok(key)
}

/// Everything a snapshot seals besides the entries: the manifest's
/// payload, re-sealed whole at every cut.
pub(crate) struct SnapshotHeader {
    pub mode: EncryptionMode,
    pub storage_key: Key128,
    pub storage_seq: u64,
    /// Store-mutation counter + running digest at seal time: the restored
    /// server resumes them, so clients comparing `store_seq`/digest across
    /// a restart can detect a rolled-back or forked host.
    pub mutation_seq: u64,
    pub state_digest: [u8; 16],
    /// Per-client `(expected_oid, last_status, epoch)` windows, indexed by
    /// client_id — lets a restarted server resume its at-most-once
    /// semantics (and keep connection epochs strictly increasing) for
    /// clients that reconnect.
    pub sessions: Vec<(u64, Status, u32)>,
    /// Journal epoch the server was writing when the snapshot was sealed
    /// (`0` when no journal is attached).
    pub journal_epoch: u64,
    /// Watermark: sequence number of the last journal record whose effects
    /// this snapshot already covers. Recovery replays only records past it
    /// (and only when the journal's epoch matches `journal_epoch`).
    pub journal_seq: u64,
    /// MAC-chain value at the journal head when the snapshot was sealed
    /// (genesis chain when no journal is attached). After compaction this
    /// is the trusted anchor for authenticating the shipped journal tail:
    /// a `(snapshot, tail)` pair carries its own recovery root.
    pub journal_chain: [u8; 16],
}

/// An opened snapshot: the header plus the entries of every segment.
pub(crate) struct SnapshotBody {
    pub header: SnapshotHeader,
    pub entries: Vec<SnapshotEntry>,
}

// One manifest row: how to find and authenticate one segment. `len == 0`
// is an empty segment — nothing was sealed for it and nothing is stored.
#[derive(Clone)]
struct SegmentRow {
    len: usize,
    nonce: Nonce12,
    tag: [u8; gcm::TAG_LEN],
}

fn empty_row() -> SegmentRow {
    SegmentRow {
        len: 0,
        nonce: Nonce12::from_bytes([0; Nonce12::LEN]),
        tag: [0; gcm::TAG_LEN],
    }
}

/// An authenticated manifest: the header, one row per segment, and where
/// in its blob the segment ciphertexts start.
pub(crate) struct Manifest {
    header: SnapshotHeader,
    rows: Vec<SegmentRow>,
    segments_at: usize,
}

impl Manifest {
    /// Byte range of every non-empty segment in the manifest's blob.
    pub(crate) fn segment_ranges(&self) -> Vec<(usize, Range<usize>)> {
        let mut at = self.segments_at;
        let mut out = Vec::new();
        for (index, row) in self.rows.iter().enumerate() {
            if row.len > 0 {
                out.push((index, at..at + row.len));
                at += row.len;
            }
        }
        out
    }

    // Authenticates segment `index`'s ciphertext against its row and index
    // AAD, and decrypts it.
    fn open_segment(&self, key: &GcmKey, index: usize, ct: &[u8]) -> Result<Vec<u8>, StoreError> {
        let row = &self.rows[index];
        key.open_detached(&row.nonce, &segment_aad(index), ct, &row.tag)
            .map_err(|_| StoreError::SnapshotRejected)
    }
}

impl SnapshotHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(match self.mode {
            EncryptionMode::ClientSide => 0u8,
            EncryptionMode::ServerSide => 1u8,
        });
        out.extend_from_slice(self.storage_key.as_bytes());
        out.extend_from_slice(&self.storage_seq.to_le_bytes());
        out.extend_from_slice(&self.mutation_seq.to_le_bytes());
        out.extend_from_slice(&self.state_digest);
        out.extend_from_slice(&(self.sessions.len() as u32).to_le_bytes());
        for (expected_oid, last_status, epoch) in &self.sessions {
            out.extend_from_slice(&expected_oid.to_le_bytes());
            out.push(*last_status as u8);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        out.extend_from_slice(&self.journal_epoch.to_le_bytes());
        out.extend_from_slice(&self.journal_seq.to_le_bytes());
        out.extend_from_slice(&self.journal_chain);
        out
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<SnapshotHeader, StoreError> {
        let mode = match take(buf, pos, 1)?[0] {
            0 => EncryptionMode::ClientSide,
            1 => EncryptionMode::ServerSide,
            _ => return Err(StoreError::MalformedFrame),
        };
        let storage_key =
            Key128::try_from(take(buf, pos, 16)?).map_err(|_| StoreError::MalformedFrame)?;
        let storage_seq = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let mutation_seq = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let state_digest: [u8; 16] = take(buf, pos, 16)?.try_into().expect("16");
        let session_count = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
        let mut sessions = Vec::with_capacity(session_count.min(1 << 16));
        for _ in 0..session_count {
            let expected_oid = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
            let last_status =
                Status::from_u8(take(buf, pos, 1)?[0]).ok_or(StoreError::MalformedFrame)?;
            let epoch = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4"));
            sessions.push((expected_oid, last_status, epoch));
        }
        let journal_epoch = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let journal_seq = u64::from_le_bytes(take(buf, pos, 8)?.try_into().expect("8"));
        let journal_chain: [u8; 16] = take(buf, pos, 16)?.try_into().expect("16");
        Ok(SnapshotHeader {
            mode,
            storage_key,
            storage_seq,
            mutation_seq,
            state_digest,
            sessions,
            journal_epoch,
            journal_seq,
            journal_chain,
        })
    }
}

fn decode_rows(buf: &[u8], pos: &mut usize) -> Result<Vec<SegmentRow>, StoreError> {
    let count = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
    let mut rows = vec![empty_row(); SEGMENTS];
    let mut next = 0usize;
    for _ in 0..count {
        let index = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
        let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
        let nonce =
            Nonce12::try_from(take(buf, pos, 12)?).map_err(|_| StoreError::MalformedFrame)?;
        let tag = take(buf, pos, gcm::TAG_LEN)?.try_into().expect("16");
        // Rows name non-empty segments in rising index order, each once.
        if index < next || index >= SEGMENTS || len == 0 {
            return Err(StoreError::MalformedFrame);
        }
        next = index + 1;
        rows[index] = SegmentRow { len, nonce, tag };
    }
    Ok(rows)
}

// A segment's AAD binds its index: a segment moved to another slot of the
// same blob fails its own tag even before the manifest row is compared.
fn segment_aad(index: usize) -> [u8; 20] {
    let mut aad = *b"snapshot-segment\0\0\0\0";
    aad[16..].copy_from_slice(&(index as u32).to_le_bytes());
    aad
}

// One segment a cut sealed: the blob part holding its ciphertext and the
// manifest row that authenticates it.
struct SealedSegment {
    index: usize,
    part: usize,
    row: SegmentRow,
}

/// One sealed cut, as [`seal`] produced it.
pub(crate) struct Cut {
    pub blob: SnapshotBlob,
    // What the enclave keeps of the bytes this cut wrote — the manifest's
    // nonce, and one row per re-sealed segment — to authenticate the copy
    // the host persisted; every other part was carried over.
    drawn: Nonce12,
    resealed: Vec<SealedSegment>,
    /// Segments carried over, and plaintext bytes sealed (manifest
    /// included).
    pub segments_reused: u64,
    pub bytes_sealed: u64,
}

impl Cut {
    /// Segments this cut sealed.
    pub(crate) fn segments_sealed(&self) -> u64 {
        self.resealed.len() as u64
    }

    /// The byte ranges of the flat blob this cut wrote: the manifest
    /// first, then each re-sealed segment.
    pub(crate) fn written(&self) -> Vec<Range<usize>> {
        let mut ranges = Vec::with_capacity(self.blob.parts.len());
        let mut at = 0;
        for part in &self.blob.parts {
            ranges.push(at..at + part.len());
            at += part.len();
        }
        let segments = self.resealed.iter().map(|s| ranges[s.part].clone());
        std::iter::once(ranges[0].clone()).chain(segments).collect()
    }

    /// Whether `persisted` — the host's copy of `blob` — still holds, bit
    /// for bit, every byte this cut wrote: every part's length, the
    /// manifest's framing and its tag at `version`, and each re-sealed
    /// segment against the row and index AAD it was sealed under.
    /// Authenticate-only: one GHASH pass per written part, nothing is
    /// decrypted or decoded.
    pub(crate) fn persisted_intact(
        &self,
        key: &GcmKey,
        version: u64,
        persisted: &SnapshotBlob,
    ) -> bool {
        let (sealed, host) = (&self.blob.parts, &persisted.parts);
        if sealed.len() != host.len() || sealed.iter().zip(host).any(|(s, h)| s.len() != h.len()) {
            return false;
        }
        let frame = &host[0];
        frame[..4] == ((frame.len() - 4) as u32).to_le_bytes()
            && frame[4..4 + Nonce12::LEN] == *self.drawn.as_bytes()
            && sealing::verify_keyed(key, version, &frame[4..])
            && self.resealed.iter().all(|s| {
                let ct = &host[s.part];
                key.verify_detached(&s.row.nonce, &segment_aad(s.index), ct, &s.row.tag)
            })
    }
}

/// The last committed cut as the next one reads it: its manifest,
/// authenticated again, and the part holding each of its segments.
pub(crate) struct PreviousCut<'a> {
    manifest: Manifest,
    parts: Vec<Option<&'a Arc<Vec<u8>>>>,
}

impl<'a> PreviousCut<'a> {
    /// Opens the manifest of `blob` at `version` and files the blob's
    /// parts by segment index.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] when the manifest does not unseal
    /// at `version` or a part is not as long as the row naming it;
    /// [`StoreError::MalformedFrame`] when the authentic manifest does not
    /// parse.
    pub(crate) fn open(
        key: &GcmKey,
        version: u64,
        blob: &'a SnapshotBlob,
    ) -> Result<PreviousCut<'a>, StoreError> {
        let rejected = StoreError::SnapshotRejected;
        let (frame, mut segments) = match blob.parts.split_first() {
            Some((frame, segments)) => (frame, segments.iter()),
            None => return Err(rejected),
        };
        let manifest = open_frame(key, version, frame)?;
        if manifest.segments_at != frame.len() {
            return Err(rejected);
        }
        let mut parts = vec![None; SEGMENTS];
        for (index, row) in manifest.rows.iter().enumerate() {
            if row.len > 0 {
                let part = segments.next().filter(|p| p.len() == row.len);
                parts[index] = Some(part.ok_or(rejected)?);
            }
        }
        if segments.next().is_some() {
            return Err(rejected);
        }
        Ok(PreviousCut { manifest, parts })
    }

    // Row and ciphertext of segment `index`, when it holds any key.
    fn segment(&self, index: usize) -> Option<(&SegmentRow, &'a Arc<Vec<u8>>)> {
        Some((&self.manifest.rows[index], self.parts[index]?))
    }

    /// The plaintext this cut sealed for segment `index` (empty when it
    /// held no key) minus the entries of the keys in `written`: the
    /// carried half of a re-sealed segment, entries kept verbatim. The
    /// segment is authenticated against its row before a byte of it is
    /// used.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] when the segment does not
    /// authenticate; [`StoreError::MalformedFrame`] when it does not parse.
    pub(crate) fn carried_entries(
        &self,
        key: &GcmKey,
        index: usize,
        written: &BTreeSet<Vec<u8>>,
    ) -> Result<Vec<u8>, StoreError> {
        let Some((_, ct)) = self.segment(index) else {
            return Ok(Vec::new());
        };
        let mut plain = self.manifest.open_segment(key, index, ct)?;
        let (mut pos, mut kept) = (0usize, 0usize);
        while pos < plain.len() {
            let start = pos;
            if !written.contains(skip_entry(&plain, &mut pos)?) {
                plain.copy_within(start..pos, kept);
                kept += pos - start;
            }
        }
        plain.truncate(kept);
        Ok(plain)
    }
}

/// Seals one cut at `version`. `fresh[index]` is `Some` for every segment
/// this cut seals — its encoded entries, sealed under a nonce derived from
/// `drawn` (an empty one leaves no row) — and `None` for a segment carried
/// over, row and ciphertext part, from `previous`: by reference, never
/// copied. Without a previous cut a `None` segment is empty.
pub(crate) fn seal(
    key: &GcmKey,
    version: u64,
    drawn: &Nonce12,
    header: &SnapshotHeader,
    fresh: &[Option<Vec<u8>>],
    previous: Option<&PreviousCut<'_>>,
) -> Cut {
    let mut manifest = header.encode();
    let count_at = manifest.len();
    manifest.extend_from_slice(&[0, 0]);
    // Part 0, the manifest, is sealed last: it lists every segment's tag.
    let mut parts = vec![Arc::default()];
    let mut resealed = Vec::new();
    let (mut rows, mut segments_reused, mut bytes_sealed) = (0u16, 0, 0);
    for (index, plain) in fresh.iter().enumerate() {
        let (row, part) = match plain {
            None => match previous.and_then(|p| p.segment(index)) {
                Some((row, part)) => {
                    segments_reused += 1;
                    (row.clone(), Arc::clone(part))
                }
                None => continue,
            },
            Some(plain) if plain.is_empty() => continue,
            Some(plain) => {
                let nonce = sealing::segment_nonce(drawn, index as u32);
                let mut ct = Vec::with_capacity(plain.len() + gcm::TAG_LEN);
                key.seal_into(&mut ct, &nonce, &segment_aad(index), plain);
                let tag = ct[plain.len()..].try_into().expect("seal appends the tag");
                ct.truncate(plain.len());
                bytes_sealed += plain.len() as u64;
                let row = SegmentRow {
                    len: plain.len(),
                    nonce,
                    tag,
                };
                let part = parts.len();
                resealed.push(SealedSegment {
                    index,
                    part,
                    row: row.clone(),
                });
                (row, Arc::new(ct))
            }
        };
        rows += 1;
        manifest.extend_from_slice(&(index as u16).to_le_bytes());
        manifest.extend_from_slice(&(row.len as u32).to_le_bytes());
        manifest.extend_from_slice(row.nonce.as_bytes());
        manifest.extend_from_slice(&row.tag);
        parts.push(part);
    }
    manifest[count_at..count_at + 2].copy_from_slice(&rows.to_le_bytes());
    bytes_sealed += manifest.len() as u64;
    let sealed = sealing::seal_at_keyed(key, drawn, version, &manifest);
    let mut frame = Vec::with_capacity(4 + sealed.len());
    frame.extend_from_slice(&(sealed.len() as u32).to_le_bytes());
    frame.extend_from_slice(&sealed);
    parts[0] = Arc::new(frame);
    Cut {
        blob: SnapshotBlob { parts },
        drawn: *drawn,
        resealed,
        segments_reused,
        bytes_sealed,
    }
}

// Authenticates the manifest framed at the front of `blob` at `version`
// and parses it; the segments behind it are not looked at.
fn open_frame(key: &GcmKey, version: u64, blob: &[u8]) -> Result<Manifest, StoreError> {
    let rejected = StoreError::SnapshotRejected;
    let sealed_len = blob.get(..4).ok_or(rejected)?;
    let sealed_len = u32::from_le_bytes(sealed_len.try_into().expect("4")) as usize;
    let segments_at = 4 + sealed_len;
    let sealed = blob.get(4..segments_at).ok_or(rejected)?;
    let plain = sealing::unseal_keyed(key, version, sealed).map_err(|_| rejected)?;
    let mut pos = 0usize;
    let header = SnapshotHeader::decode(&plain, &mut pos)?;
    let rows = decode_rows(&plain, &mut pos)?;
    if pos != plain.len() {
        return Err(StoreError::MalformedFrame);
    }
    Ok(Manifest {
        header,
        rows,
        segments_at,
    })
}

/// Authenticates the manifest of the flat `blob` at `version` and checks
/// that the blob is exactly as long as its rows say.
///
/// # Errors
///
/// [`StoreError::SnapshotRejected`] when the manifest does not unseal at
/// `version` under `key` or the blob's length disagrees with it;
/// [`StoreError::MalformedFrame`] when the authentic manifest does not
/// parse.
pub(crate) fn open_manifest(
    key: &GcmKey,
    version: u64,
    blob: &[u8],
) -> Result<Manifest, StoreError> {
    let manifest = open_frame(key, version, blob)?;
    let rows = manifest.rows.iter().map(|r| r.len).sum::<usize>();
    if manifest.segments_at + rows != blob.len() {
        return Err(StoreError::SnapshotRejected);
    }
    Ok(manifest)
}

/// The one snapshot opener: authenticates the manifest at `version`, then
/// every segment against its manifest row and index AAD, and decodes the
/// entries. Restore, recovery and the replica adoption gate all come
/// through here.
///
/// # Errors
///
/// [`StoreError::SnapshotRejected`] when the manifest or any segment fails
/// authentication (rolled back, forked, tampered, torn, spliced, from
/// another platform); [`StoreError::MalformedFrame`] when authentic bytes
/// do not parse.
pub(crate) fn open(key: &Key128, version: u64, blob: &[u8]) -> Result<SnapshotBody, StoreError> {
    let key = GcmKey::new(key);
    let manifest = open_manifest(&key, version, blob)?;
    let mut entries = Vec::new();
    for (index, range) in manifest.segment_ranges() {
        let plain = manifest.open_segment(&key, index, &blob[range])?;
        let mut pos = 0usize;
        while pos < plain.len() {
            entries.push(SnapshotEntry::decode_from(&plain, &mut pos)?);
        }
    }
    Ok(SnapshotBody {
        header: manifest.header,
        entries,
    })
}

impl PrecursorServer {
    /// Seals the current key-value state into a snapshot blob, incrementing
    /// the trusted monotonic `counter` so the new version supersedes every
    /// older snapshot. Only the segments holding a key written since this
    /// server's previous snapshot are re-sealed; the rest are carried over
    /// from it.
    ///
    /// When a [`FaultPlan`](precursor_rdma::faults::FaultPlan) with a
    /// `SnapshotSeal` rule is installed, the returned blob models what the
    /// untrusted host actually persisted: a crash mid-write tears it short,
    /// a corrupting host flips a bit. Either damage makes later unsealing
    /// fail, so recovery falls back to an older snapshot plus the journal.
    pub fn snapshot(&mut self, counter: &mut MonotonicCounter) -> Vec<u8> {
        let version = counter.increment();
        let key = GcmKey::new(&self.sealing_key());
        let cut = self.snapshot_at(&key, version);
        let persisted = self.persist(&cut, |_, _| {});
        self.commit_snapshot(version, cut);
        persisted.to_vec()
    }

    /// Restores a server from a sealed snapshot, verifying it matches the
    /// trusted counter's *current* value (rollback detection).
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] when the blob was sealed at a
    /// different version (a rolled-back or forked snapshot), is tampered
    /// with — manifest or any segment — or comes from a different
    /// platform/enclave; [`StoreError::MalformedFrame`] when the sealed
    /// body does not parse, and also when the snapshot's mode differs from
    /// `config.mode`.
    pub fn restore(
        config: Config,
        cost: &CostModel,
        sealed: &[u8],
        counter: &MonotonicCounter,
    ) -> Result<PrecursorServer, StoreError> {
        let mut server = PrecursorServer::new(config, cost);
        let body = open(&server.sealing_key(), counter.read(), sealed)?;
        server.restore_body(body)?;
        Ok(server)
    }

    /// Layout diagnostics for tamper tests: the byte range of every sealed
    /// segment of `blob`, by segment index, or `None` when its manifest
    /// does not open at `version`. Ranges say where the untrusted bytes
    /// sit; nothing about their content leaves the enclave.
    pub fn snapshot_segments(
        &self,
        version: u64,
        blob: &[u8],
    ) -> Option<Vec<(usize, Range<usize>)>> {
        let key = GcmKey::new(&self.sealing_key());
        let manifest = open_manifest(&key, version, blob).ok()?;
        Some(manifest.segment_ranges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PrecursorClient;

    fn loaded_server() -> (PrecursorServer, PrecursorClient) {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
        for i in 0..50u32 {
            client
                .put_sync(
                    &mut server,
                    &i.to_le_bytes(),
                    format!("value-{i}").as_bytes(),
                )
                .unwrap();
        }
        (server, client)
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let cost = CostModel::default();
        let (mut server, _client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);

        let mut restored =
            PrecursorServer::restore(Config::default(), &cost, &blob, &counter).unwrap();
        assert_eq!(restored.len(), 50);
        // a fresh client can read every restored key
        let mut client = PrecursorClient::connect(&mut restored, 9).unwrap();
        for i in 0..50u32 {
            assert_eq!(
                client.get_sync(&mut restored, &i.to_le_bytes()).unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn rolled_back_snapshot_is_rejected() {
        let cost = CostModel::default();
        let (mut server, mut client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let old_blob = server.snapshot(&mut counter);
        // state advances and a newer snapshot is taken
        client.put_sync(&mut server, b"new-key", b"new").unwrap();
        let _new_blob = server.snapshot(&mut counter);

        // an attacker presents the old snapshot
        assert_eq!(
            PrecursorServer::restore(Config::default(), &cost, &old_blob, &counter).unwrap_err(),
            StoreError::SnapshotRejected
        );
    }

    #[test]
    fn latest_snapshot_restores_after_rollback_attempt() {
        let cost = CostModel::default();
        let (mut server, mut client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let _old = server.snapshot(&mut counter);
        client.put_sync(&mut server, b"new-key", b"new").unwrap();
        let latest = server.snapshot(&mut counter);
        let mut restored =
            PrecursorServer::restore(Config::default(), &cost, &latest, &counter).unwrap();
        assert_eq!(restored.len(), 51);
        let mut c = PrecursorClient::connect(&mut restored, 2).unwrap();
        assert_eq!(c.get_sync(&mut restored, b"new-key").unwrap(), b"new");
    }

    #[test]
    fn tampered_snapshot_is_rejected() {
        let cost = CostModel::default();
        let (mut server, _client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let mut blob = server.snapshot(&mut counter);
        blob[40] ^= 1;
        assert_eq!(
            PrecursorServer::restore(Config::default(), &cost, &blob, &counter).unwrap_err(),
            StoreError::SnapshotRejected
        );
    }

    #[test]
    fn snapshot_preserves_integrity_protection() {
        // tampering with restored untrusted memory is still detected
        let cost = CostModel::default();
        let (mut server, _client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);
        let mut restored =
            PrecursorServer::restore(Config::default(), &cost, &blob, &counter).unwrap();
        assert!(restored.corrupt_stored_payload(&3u32.to_le_bytes()));
        let mut client = PrecursorClient::connect(&mut restored, 3).unwrap();
        assert_eq!(
            client.get_sync(&mut restored, &3u32.to_le_bytes()),
            Err(StoreError::IntegrityViolation)
        );
        assert_eq!(restored.audit_key(&3u32.to_le_bytes()), Some(false));
    }

    #[test]
    fn server_encryption_mode_snapshots_too() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::server_encryption(), &cost);
        let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
        client
            .put_sync(&mut server, b"k", b"server-enc value")
            .unwrap();
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);
        let mut restored =
            PrecursorServer::restore(Config::server_encryption(), &cost, &blob, &counter).unwrap();
        let mut c = PrecursorClient::connect(&mut restored, 2).unwrap();
        assert_eq!(
            c.get_sync(&mut restored, b"k").unwrap(),
            b"server-enc value"
        );
    }

    #[test]
    fn mode_mismatch_is_rejected() {
        let cost = CostModel::default();
        let (mut server, _client) = loaded_server();
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);
        assert!(
            PrecursorServer::restore(Config::server_encryption(), &cost, &blob, &counter).is_err()
        );
    }

    #[test]
    fn inlined_values_survive_snapshots() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::with_small_value_inlining(), &cost);
        let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
        client.put_sync(&mut server, b"tiny", b"x").unwrap();
        client.put_sync(&mut server, b"big", &[7u8; 500]).unwrap();
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);
        let mut restored =
            PrecursorServer::restore(Config::with_small_value_inlining(), &cost, &blob, &counter)
                .unwrap();
        let mut c = PrecursorClient::connect(&mut restored, 2).unwrap();
        assert_eq!(c.get_sync(&mut restored, b"tiny").unwrap(), b"x");
        assert_eq!(c.get_sync(&mut restored, b"big").unwrap(), vec![7u8; 500]);
    }

    #[test]
    fn empty_store_snapshots() {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut counter = MonotonicCounter::new();
        let blob = server.snapshot(&mut counter);
        let restored = PrecursorServer::restore(Config::default(), &cost, &blob, &counter).unwrap();
        assert!(restored.is_empty());
    }
}
