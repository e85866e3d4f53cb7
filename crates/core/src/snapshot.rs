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
//! only reader, and `Cut::persisted_intact` and `rebuild` authenticate a
//! written and a shipped copy without reading them):
//!
//! ```text
//! sealed_len u32 | nonce 12 | GCM(manifest, aad = version) | base | delta₁ … deltaₖ
//!
//! manifest = header (every SnapshotHeader field)
//!          | parts u32 | (len u32, nonce 12, tag 16) for the base, then per delta
//! base     = entry*                          every key the store held
//! delta    = (1 | entry  or  0 | key_len u16 | key)*
//!                                            the keys one cut wrote, in key order:
//!                                            the current entry, or a tombstone
//! ```
//!
//! Every part is sealed on its own under a nonce derived from the draw of
//! the cut that sealed it and an AAD naming its position in the chain (0
//! is the base); its tag lives in the manifest row, not beside the
//! ciphertext. Only the manifest is bound to the counter: a rolled-back
//! manifest fails the version check as a whole blob used to, and a part
//! that is stale, swapped, dropped or spliced in from another chain fails
//! against the row that names it. A cut therefore seals only the keys
//! written since the last one (`DirtyKeys`) as its delta and carries the
//! base and the earlier deltas by reference ([`SnapshotBlob`]); a cut
//! whose chain would outgrow `FOLD_PERCENT` of the base folds the chain
//! into a new base instead — see DESIGN §14 "Log compaction".

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Index, IndexMut, Range};
use std::sync::Arc;

use precursor_crypto::gcm::{self, GcmKey};
use precursor_crypto::keys::{Key128, Key256, Nonce12, Nonce8};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sgx::sealing;
use precursor_sim::CostModel;
use precursor_storage::robinhood::RobinHoodMap;

use crate::config::{Config, EncryptionMode};
use crate::error::StoreError;
use crate::server::{PrecursorServer, Window};

/// A cut whose chain would grow past this share of the base's bytes, in
/// percent, folds the chain into a new base instead of appending its
/// delta. A constant of the format, not a tunable: DESIGN §14 has the
/// measured table behind it.
pub(crate) const FOLD_PERCENT: usize = 50;

/// The store's dirty set: every key written (inserted, overwritten or
/// removed) since the last committed cut, in key order — the next cut's
/// delta. Bounded by the distinct keys written between two cuts.
#[derive(Debug, Default)]
pub(crate) struct DirtyKeys(BTreeSet<Vec<u8>>);

impl DirtyKeys {
    pub(crate) fn insert(&mut self, key: &[u8]) {
        if !self.0.contains(key) {
            self.0.insert(key.to_vec());
        }
    }

    /// The written keys in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.0.iter()
    }
}

/// A sealed snapshot in the blob format above, held in parts: the framed
/// manifest (`sealed_len | nonce | GCM(manifest)`), the base, then one
/// buffer per delta in chain order. Parts are shared: a cut carries the
/// previous cut's base and deltas by reference, and a clone — the host's
/// persisted copy, the copy it ships to replicas, a replica's root —
/// shares every part until a write lands in one, which copies that part
/// alone.
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

    /// Appends the framed manifest and the chain parts past the first
    /// `held`: the cut as shipped to a receiver holding those ([`rebuild`]).
    pub(crate) fn append_shipped(&self, held: usize, out: &mut Vec<u8>) {
        let rest = self.parts.get(1 + held..).unwrap_or_default();
        for part in self.parts.iter().take(1).chain(rest) {
            out.extend_from_slice(part);
        }
    }

    /// Chain parts `self` carries by reference from `earlier`: the leading
    /// ones both hold in the same buffer.
    pub(crate) fn carried_from(&self, earlier: &SnapshotBlob) -> usize {
        let pairs = self.parts.iter().zip(&earlier.parts).skip(1);
        pairs.take_while(|(a, b)| Arc::ptr_eq(a, b)).count()
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

// One serialized entry of a snapshot part. The same framing carries a
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
    /// Encoded bytes besides the key and the stored bytes.
    pub(crate) const FIXED_LEN: usize = 2 + 32 + 8 + 8 + 4 + 4 + 4;

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
// fold needs of an entry it keeps verbatim.
fn skip_entry<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], StoreError> {
    let key_len = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
    let key = take(buf, pos, key_len)?;
    // k_op 32, payload nonce 8, storage seq 8, client id 4, payload len 4
    take(buf, pos, 56)?;
    let stored_len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
    take(buf, pos, stored_len)?;
    Ok(key)
}

// The first byte of a delta record.
const TOMBSTONE: u8 = 0;
const LIVE: u8 = 1;

/// Appends one delta record: `key`'s current `entry`, or a tombstone when
/// the key is no longer stored.
pub(crate) fn encode_record(out: &mut Vec<u8>, key: &[u8], entry: Option<EntryRef<'_>>) {
    match entry {
        Some(entry) => {
            out.push(LIVE);
            entry.encode_into(out);
        }
        None => {
            out.push(TOMBSTONE);
            out.extend_from_slice(&(key.len() as u16).to_le_bytes());
            out.extend_from_slice(key);
        }
    }
}

// Steps `pos` over one delta record of `buf`: its key, and its encoded
// entry (`None` for a tombstone).
fn next_record<'a>(
    buf: &'a [u8],
    pos: &mut usize,
) -> Result<(&'a [u8], Option<&'a [u8]>), StoreError> {
    match take(buf, pos, 1)?[0] {
        LIVE => {
            let start = *pos;
            let key = skip_entry(buf, pos)?;
            Ok((key, Some(&buf[start..*pos])))
        }
        TOMBSTONE => {
            let key_len = u16::from_le_bytes(take(buf, pos, 2)?.try_into().expect("2")) as usize;
            Ok((take(buf, pos, key_len)?, None))
        }
        _ => Err(StoreError::MalformedFrame),
    }
}

// What a chain of deltas says: the newest record of every key it wrote — a
// later delta's record shadows an earlier one's. A snapshot's deltas and a
// migration's parts are both such a chain.
pub(crate) struct Chain<'a> {
    deltas: Vec<&'a [u8]>,
    // A Robin Hood map, so a base walk looks each key up in O(1).
    newest: RobinHoodMap<&'a [u8], Option<&'a [u8]>>,
}

impl<'a> Chain<'a> {
    pub(crate) fn decode(deltas: impl IntoIterator<Item = &'a [u8]>) -> Result<Self, StoreError> {
        let deltas: Vec<&[u8]> = deltas.into_iter().collect();
        let mut newest = RobinHoodMap::new();
        for delta in &deltas {
            let mut pos = 0usize;
            while pos < delta.len() {
                let (key, entry) = next_record(delta, &mut pos)?;
                newest.insert(key, entry);
            }
        }
        Ok(Chain { deltas, newest })
    }

    // Whether the chain wrote `key`: a base entry of it is stale.
    fn shadows(&self, key: &[u8]) -> bool {
        self.newest.contains_key(&key)
    }

    // The entry of every key whose newest record is live, in chain order
    // (within a delta, key order): never in hash order, which would make
    // inserting them into a table of another size quadratic.
    pub(crate) fn live(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.deltas.iter().flat_map(move |&delta| {
            let mut pos = 0usize;
            std::iter::from_fn(move || {
                while pos < delta.len() {
                    let (key, entry) = next_record(delta, &mut pos).expect("decoded once");
                    let newest = self.newest.get(&key).copied().flatten();
                    if let (Some(entry), Some(newest)) = (entry, newest) {
                        if std::ptr::eq(entry, newest) {
                            return Some(entry);
                        }
                    }
                }
                None
            })
        })
    }
}

/// Everything a snapshot seals besides the entries: the manifest's
/// payload, sealed again by every cut.
pub(crate) struct SnapshotHeader {
    pub mode: EncryptionMode,
    pub storage_key: Key128,
    pub storage_seq: u64,
    /// Store-mutation counter + running digest at seal time: the restored
    /// server resumes them, so clients comparing `store_seq`/digest across
    /// a restart can detect a rolled-back or forked host.
    pub mutation_seq: u64,
    pub state_digest: [u8; 16],
    /// Every per-client at-most-once window the server knows, indexed by
    /// client_id — lets a restarted server resume its at-most-once
    /// semantics (and keep connection epochs strictly increasing) for
    /// clients that reconnect.
    pub sessions: Vec<Window>,
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

/// An opened snapshot: the header plus every entry the chain leaves live.
pub(crate) struct SnapshotBody {
    pub header: SnapshotHeader,
    pub entries: Vec<SnapshotEntry>,
}

// One manifest row: how to find and authenticate one part.
#[derive(Clone)]
struct PartRow {
    len: usize,
    nonce: Nonce12,
    tag: [u8; gcm::TAG_LEN],
}

/// An authenticated manifest: the header, one row per part (the base
/// first), and where in its blob the parts start.
pub(crate) struct Manifest {
    header: SnapshotHeader,
    rows: Vec<PartRow>,
    parts_at: usize,
}

impl Manifest {
    /// Byte range of every part in the manifest's blob: the base, then
    /// each delta in chain order.
    pub(crate) fn part_ranges(&self) -> Vec<Range<usize>> {
        let mut at = self.parts_at;
        let ranges = self.rows.iter().map(|row| {
            at += row.len;
            at - row.len..at
        });
        ranges.collect()
    }

    // Authenticates the ciphertext of the part at chain `position` against
    // its row and position AAD, and decrypts it onto the end of `plain`:
    // its range there.
    fn open_part(
        &self,
        key: &GcmKey,
        position: usize,
        ct: &[u8],
        plain: &mut Vec<u8>,
    ) -> Result<Range<usize>, StoreError> {
        let row = &self.rows[position];
        let start = plain.len();
        plain.extend_from_slice(ct);
        key.open_in_place_detached(
            &row.nonce,
            &part_aad(position),
            &mut plain[start..],
            &row.tag,
        )
        .map_err(|_| StoreError::SnapshotRejected)?;
        Ok(start..plain.len())
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
        for window in &self.sessions {
            window.encode_into(&mut out);
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
            sessions.push(Window::decode_from(buf, pos)?);
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

fn decode_rows(buf: &[u8], pos: &mut usize) -> Result<Vec<PartRow>, StoreError> {
    let count = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
    // Every manifest names a base.
    if count == 0 {
        return Err(StoreError::MalformedFrame);
    }
    let mut rows = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let len = u32::from_le_bytes(take(buf, pos, 4)?.try_into().expect("4")) as usize;
        let nonce =
            Nonce12::try_from(take(buf, pos, 12)?).map_err(|_| StoreError::MalformedFrame)?;
        let tag = take(buf, pos, gcm::TAG_LEN)?.try_into().expect("16");
        rows.push(PartRow { len, nonce, tag });
    }
    Ok(rows)
}

// A part's AAD binds its chain position: a part moved to another position
// of the same chain fails its own tag even before its row is compared.
fn part_aad(position: usize) -> [u8; 20] {
    let mut aad = *b"snapshot-chain\0\0\0\0\0\0";
    aad[16..].copy_from_slice(&(position as u32).to_le_bytes());
    aad
}

/// One sealed cut, as [`seal`] produced it.
pub(crate) struct Cut {
    pub blob: SnapshotBlob,
    // What the enclave keeps of the bytes this cut wrote — the manifest's
    // nonce, and the chain position and row of the one part it sealed, if
    // any — to authenticate the copy the host persisted; every other part
    // was carried over.
    drawn: Nonce12,
    sealed: Option<(usize, PartRow)>,
    /// Plaintext bytes sealed (manifest included), and bytes of parts
    /// carried by reference.
    pub bytes_sealed: u64,
    pub bytes_carried: u64,
}

impl Cut {
    /// The byte ranges of the flat blob this cut wrote: the manifest, then
    /// the part it sealed.
    pub(crate) fn written(&self) -> Vec<Range<usize>> {
        let mut ranges = Vec::with_capacity(self.blob.parts.len());
        let mut at = 0;
        for part in &self.blob.parts {
            ranges.push(at..at + part.len());
            at += part.len();
        }
        let part = self
            .sealed
            .iter()
            .map(|(position, _)| ranges[1 + position].clone());
        std::iter::once(ranges[0].clone()).chain(part).collect()
    }

    /// Whether `persisted` — the host's copy of `blob` — still holds, bit
    /// for bit, every byte this cut wrote: every part's length, the
    /// manifest's framing and its tag at `version`, and the part this cut
    /// sealed against the row and position AAD it was sealed under.
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
            && self.sealed.iter().all(|(position, row)| {
                let ct = &host[1 + position];
                key.verify_detached(&row.nonce, &part_aad(*position), ct, &row.tag)
            })
    }
}

/// The last committed cut as the next one reads it: its manifest,
/// authenticated again, and its parts (the base, then the deltas).
pub(crate) struct PreviousCut<'a> {
    manifest: Manifest,
    parts: &'a [Arc<Vec<u8>>],
}

impl<'a> PreviousCut<'a> {
    /// Opens the manifest of `blob` at `version` and matches the blob's
    /// parts to its rows.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] when the manifest does not unseal
    /// at `version` or the parts are not as many and as long as its rows;
    /// [`StoreError::MalformedFrame`] when the authentic manifest does not
    /// parse.
    pub(crate) fn open(
        key: &GcmKey,
        version: u64,
        blob: &'a SnapshotBlob,
    ) -> Result<PreviousCut<'a>, StoreError> {
        let rejected = StoreError::SnapshotRejected;
        let (frame, parts) = blob.parts.split_first().ok_or(rejected)?;
        let manifest = open_frame(key, version, frame)?;
        let rows = &manifest.rows;
        if manifest.parts_at != frame.len()
            || parts.len() != rows.len()
            || parts
                .iter()
                .zip(rows)
                .any(|(part, row)| part.len() != row.len)
        {
            return Err(rejected);
        }
        Ok(PreviousCut { manifest, parts })
    }

    /// Whether a delta of `len` bytes keeps the chain within
    /// [`FOLD_PERCENT`] of the base; if not, the cut folds.
    pub(crate) fn fits(&self, len: usize) -> bool {
        let (base, deltas) = self
            .manifest
            .rows
            .split_first()
            .expect("a manifest has a base");
        let chain = deltas.iter().map(|row| row.len).sum::<usize>() + len;
        chain * 100 <= base.len * FOLD_PERCENT
    }

    /// The base a fold seals: this cut's base with every entry a delta
    /// shadows dropped — the rest kept verbatim, in place — followed by the
    /// newest entry of each key the deltas and then `delta` wrote, in chain
    /// order (a key whose newest record is a tombstone is gone). Every part
    /// is authenticated against its row before a byte of it is used.
    ///
    /// # Errors
    ///
    /// [`StoreError::SnapshotRejected`] when a part does not authenticate;
    /// [`StoreError::MalformedFrame`] when one does not parse.
    pub(crate) fn fold(&self, key: &GcmKey, delta: &[u8]) -> Result<Vec<u8>, StoreError> {
        let manifest = &self.manifest;
        let (base_ct, deltas_ct) = self.parts.split_first().expect("a manifest has a base");
        let mut plain = Vec::with_capacity(deltas_ct.iter().map(|p| p.len()).sum());
        let mut ranges = Vec::with_capacity(deltas_ct.len());
        for (position, ct) in deltas_ct.iter().enumerate() {
            ranges.push(manifest.open_part(key, position + 1, ct, &mut plain)?);
        }
        let deltas = ranges.into_iter().map(|r| &plain[r]);
        let chain = Chain::decode(deltas.chain([delta]))?;
        let appended = chain.live().map(<[u8]>::len).sum::<usize>();

        let mut base = Vec::with_capacity(base_ct.len() + appended);
        manifest.open_part(key, 0, base_ct, &mut base)?;
        let (mut pos, mut kept) = (0usize, 0usize);
        while pos < base.len() {
            let start = pos;
            if !chain.shadows(skip_entry(&base, &mut pos)?) {
                base.copy_within(start..pos, kept);
                kept += pos - start;
            }
        }
        base.truncate(kept);
        for entry in chain.live() {
            base.extend_from_slice(entry);
        }
        Ok(base)
    }
}

/// Seals one cut at `version`: the manifest over the parts of `carried` —
/// the previous cut's base and deltas, by reference, never copied — and
/// `fresh`, sealed in place as the next part under a nonce derived from
/// `drawn`. Without a carried cut `fresh` is the base; with one it is the
/// cut's delta, or `None` when the cut wrote no key.
pub(crate) fn seal(
    key: &GcmKey,
    version: u64,
    drawn: &Nonce12,
    header: &SnapshotHeader,
    carried: Option<&PreviousCut<'_>>,
    fresh: Option<Vec<u8>>,
) -> Cut {
    // Part 0, the manifest, is sealed last: it lists every part's tag.
    let mut parts = vec![Arc::default()];
    let mut rows = Vec::new();
    let mut bytes_carried = 0;
    if let Some(previous) = carried {
        rows.extend_from_slice(&previous.manifest.rows);
        parts.extend(previous.parts.iter().cloned());
        bytes_carried = previous.parts.iter().map(|p| p.len() as u64).sum();
    }
    let mut sealed = None;
    let mut bytes_sealed = 0;
    if let Some(mut plain) = fresh {
        let position = rows.len();
        let nonce = sealing::segment_nonce(drawn, position as u32);
        let tag = key.seal_in_place_detached(&nonce, &part_aad(position), &mut plain);
        let row = PartRow {
            len: plain.len(),
            nonce,
            tag: *tag.as_bytes(),
        };
        bytes_sealed += plain.len() as u64;
        sealed = Some((position, row.clone()));
        rows.push(row);
        parts.push(Arc::new(plain));
    }
    debug_assert!(!rows.is_empty(), "a cut with nothing to carry seals a base");

    let mut manifest = header.encode();
    manifest.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in &rows {
        manifest.extend_from_slice(&(row.len as u32).to_le_bytes());
        manifest.extend_from_slice(row.nonce.as_bytes());
        manifest.extend_from_slice(&row.tag);
    }
    bytes_sealed += manifest.len() as u64;
    let sealed_manifest = sealing::seal_at_keyed(key, drawn, version, &manifest);
    let mut frame = Vec::with_capacity(4 + sealed_manifest.len());
    frame.extend_from_slice(&(sealed_manifest.len() as u32).to_le_bytes());
    frame.extend_from_slice(&sealed_manifest);
    parts[0] = Arc::new(frame);
    Cut {
        blob: SnapshotBlob { parts },
        drawn: *drawn,
        sealed,
        bytes_sealed,
        bytes_carried,
    }
}

// Authenticates the manifest framed at the front of `blob` at `version`
// and parses it; the parts behind it are not looked at.
fn open_frame(key: &GcmKey, version: u64, blob: &[u8]) -> Result<Manifest, StoreError> {
    let rejected = StoreError::SnapshotRejected;
    let sealed_len = blob.get(..4).ok_or(rejected)?;
    let sealed_len = u32::from_le_bytes(sealed_len.try_into().expect("4")) as usize;
    let parts_at = 4 + sealed_len;
    let sealed = blob.get(4..parts_at).ok_or(rejected)?;
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
        parts_at,
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
    if manifest.parts_at + rows != blob.len() {
        return Err(StoreError::SnapshotRejected);
    }
    Ok(manifest)
}

/// The one snapshot opener: authenticates the manifest at `version`, then
/// every part against its manifest row and position AAD, and applies the
/// base, then the deltas in chain order: restore and recovery come through
/// here, and [`rebuild`] makes the same checks by tag.
///
/// # Errors
///
/// [`StoreError::SnapshotRejected`] when the manifest or any part fails
/// authentication (rolled back, forked, tampered, torn, spliced, swapped,
/// dropped, from another platform); [`StoreError::MalformedFrame`] when
/// authentic bytes do not parse.
pub(crate) fn open(key: &Key128, version: u64, blob: &[u8]) -> Result<SnapshotBody, StoreError> {
    let key = GcmKey::new(key);
    let manifest = open_manifest(&key, version, blob)?;
    let mut plain = Vec::with_capacity(blob.len() - manifest.parts_at);
    let mut ranges = Vec::with_capacity(manifest.rows.len());
    for (position, range) in manifest.part_ranges().into_iter().enumerate() {
        ranges.push(manifest.open_part(&key, position, &blob[range], &mut plain)?);
    }
    let mut parts = ranges.into_iter().map(|r| &plain[r]);
    let base = parts.next().expect("a manifest has a base");
    let chain = Chain::decode(parts)?;
    let mut entries = Vec::new();
    let mut pos = 0usize;
    while pos < base.len() {
        let entry = SnapshotEntry::decode_from(base, &mut pos)?;
        if !chain.shadows(&entry.key) {
            entries.push(entry);
        }
    }
    for entry in chain.live() {
        entries.push(SnapshotEntry::decode_from(entry, &mut 0)?);
    }
    Ok(SnapshotBody {
        header: manifest.header,
        entries,
    })
}

/// The replica adoption gate: a cut shipped as its framed manifest and its
/// chain parts past the first `held` ([`SnapshotBlob::append_shipped`]),
/// put back together behind `own`'s first `held` parts (shared) and
/// authenticated at `version` by tag: the manifest, then every part
/// against its row.
///
/// # Errors
///
/// [`StoreError::SnapshotRejected`] when a part is missing, short or
/// inauthentic; [`StoreError::MalformedFrame`] when the authentic manifest
/// does not parse.
pub(crate) fn rebuild(
    key: &GcmKey,
    version: u64,
    own: Option<&SnapshotBlob>,
    held: usize,
    shipped: &[u8],
) -> Result<(SnapshotHeader, SnapshotBlob), StoreError> {
    let rejected = StoreError::SnapshotRejected;
    let manifest = open_frame(key, version, shipped)?;
    let own = own.and_then(|own| own.parts.get(1..)).unwrap_or_default();
    let (frame, mut rest) = shipped.split_at(manifest.parts_at);
    let mut parts = vec![Arc::new(frame.to_vec())];
    parts.extend_from_slice(own.get(..held).ok_or(rejected)?);
    for row in manifest.rows.get(held..).ok_or(rejected)? {
        let (part, tail) = rest.split_at_checked(row.len).ok_or(rejected)?;
        parts.push(Arc::new(part.to_vec()));
        rest = tail;
    }
    let mut rows = manifest.rows.iter().zip(&parts[1..]).enumerate();
    let intact = rows.all(|(position, (row, part))| {
        let aad = part_aad(position);
        part.len() == row.len && key.verify_detached(&row.nonce, &aad, part, &row.tag)
    });
    if !intact || !rest.is_empty() {
        return Err(rejected);
    }
    Ok((manifest.header, SnapshotBlob { parts }))
}

impl PrecursorServer {
    /// Seals the current key-value state into a snapshot blob, incrementing
    /// the trusted monotonic `counter` so the new version supersedes every
    /// older snapshot. Only the keys written since this server's previous
    /// snapshot are sealed, as a delta; the rest of the chain is carried
    /// over from it, or folded into a new base once the chain would
    /// outgrow `FOLD_PERCENT` of the base.
    ///
    /// When a [`HostPlan`](precursor_rdma::host::HostPlan) with a
    /// `SnapshotSeal` move is attached, the returned blob models what the
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
    /// with — manifest or any part — or comes from a different
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

    /// Layout diagnostics for tamper tests: the byte range of every part
    /// of `blob` — the base, then each delta in chain order — or `None`
    /// when its manifest does not open at `version`. Ranges say where the
    /// untrusted bytes sit; nothing about their content leaves the enclave.
    pub fn snapshot_parts(&self, version: u64, blob: &[u8]) -> Option<Vec<Range<usize>>> {
        let key = GcmKey::new(&self.sealing_key());
        let manifest = open_manifest(&key, version, blob).ok()?;
        Some(manifest.part_ranges())
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
