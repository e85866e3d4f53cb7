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
//! re-seals only the segments the store touched since the last one
//! (`SegmentSet`) and carries the others over byte for byte — see
//! DESIGN §14 "Log compaction".

use std::ops::Range;

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

// `SegmentSet` packs 64 segments to a word; manifest rows index them in 16
// bits.
const _: () = assert!(SEGMENTS.is_multiple_of(64) && SEGMENTS <= 1 << 16);

/// The segment holding a key with this
/// [`stable_key_hash`](precursor_storage::robinhood::stable_key_hash) — a
/// function of the hash alone, so it survives table resizes, shard counts
/// and restores.
pub(crate) fn segment_of(hash: u64) -> usize {
    shard_of_hash(hash, SEGMENTS)
}

/// A set of segment indices: the store's dirty set, and the set of
/// segments one cut wrote.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegmentSet([u64; SEGMENTS / 64]);

impl SegmentSet {
    pub(crate) fn all() -> SegmentSet {
        SegmentSet([u64::MAX; SEGMENTS / 64])
    }

    pub(crate) fn insert(&mut self, segment: usize) {
        self.0[segment / 64] |= 1 << (segment % 64);
    }

    pub(crate) fn contains(&self, segment: usize) -> bool {
        self.0[segment / 64] & (1 << (segment % 64)) != 0
    }

    pub(crate) fn clear(&mut self) {
        self.0 = [0; SEGMENTS / 64];
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

// Encoded size of one row: index u16, len u32, nonce, tag.
const ROW_LEN: usize = 2 + 4 + Nonce12::LEN + gcm::TAG_LEN;

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

// One segment a cut sealed: where its ciphertext starts in the blob and
// the manifest row that authenticates it.
struct SealedSegment {
    index: usize,
    start: usize,
    row: SegmentRow,
}

impl SealedSegment {
    fn range(&self) -> Range<usize> {
        self.start..self.start + self.row.len
    }
}

/// One sealed cut, as [`seal`] produced it.
pub(crate) struct Cut {
    pub blob: Vec<u8>,
    // What the enclave keeps of the bytes this cut wrote — the manifest's
    // nonce and extent, and one row per re-sealed segment — to authenticate
    // the copy the host persisted; everything else was carried over.
    drawn: Nonce12,
    segments_at: usize,
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

    /// The byte ranges of `blob` this cut wrote: the manifest first, then
    /// each re-sealed segment.
    pub(crate) fn written(&self) -> Vec<Range<usize>> {
        let segments = self.resealed.iter().map(SealedSegment::range);
        std::iter::once(0..self.segments_at)
            .chain(segments)
            .collect()
    }

    /// Whether `persisted` — the host's copy of `blob` — still holds, bit
    /// for bit, every byte this cut wrote: the blob's length, the
    /// manifest's framing and its tag at `version`, and each re-sealed
    /// segment against the row and index AAD it was sealed under.
    /// Authenticate-only: one GHASH pass per written range, nothing is
    /// decrypted or decoded.
    pub(crate) fn persisted_intact(&self, key: &GcmKey, version: u64, persisted: &[u8]) -> bool {
        let at = self.segments_at;
        persisted.len() == self.blob.len()
            && persisted[..4] == ((at - 4) as u32).to_le_bytes()
            && persisted[4..4 + Nonce12::LEN] == *self.drawn.as_bytes()
            && sealing::verify_keyed(key, version, &persisted[4..at])
            && self.resealed.iter().all(|s| {
                let ct = &persisted[s.range()];
                key.verify_detached(&s.row.nonce, &segment_aad(s.index), ct, &s.row.tag)
            })
    }
}

/// Seals one cut at `version`. Segments in `dirty` are sealed from
/// `plain[index]` (their encoded entries) under nonces derived from
/// `drawn`; every other segment's ciphertext and row are carried over from
/// `previous`, the manifest and blob of the last committed cut, which must
/// therefore exist whenever `dirty` is not every segment.
pub(crate) fn seal(
    key: &GcmKey,
    version: u64,
    drawn: &Nonce12,
    header: &SnapshotHeader,
    plain: &[Vec<u8>],
    dirty: &SegmentSet,
    previous: Option<(&Manifest, &[u8])>,
) -> Cut {
    // Row and ciphertext of every segment of the previous cut.
    let old: Vec<(&SegmentRow, &[u8])> = previous.map_or_else(Vec::new, |(manifest, blob)| {
        let mut at = manifest.segments_at;
        let rows = manifest.rows.iter();
        rows.map(|row| {
            let bytes = &blob[at..at + row.len];
            at += row.len;
            (row, bytes)
        })
        .collect()
    });
    let clean = |index: usize| {
        *old.get(index)
            .expect("a clean segment was sealed by a previous cut")
    };

    // The manifest goes in front of the segments but lists their tags:
    // its sealed length is fixed up front (it depends only on the row
    // count), the segments are appended behind a gap of that size, and the
    // sealed manifest is copied into the gap last.
    let mut manifest = header.encode();
    let row_count = (0..SEGMENTS)
        .filter(|&i| match dirty.contains(i) {
            true => !plain[i].is_empty(),
            false => clean(i).0.len > 0,
        })
        .count();
    let sealed_len = Nonce12::LEN + manifest.len() + 2 + row_count * ROW_LEN + gcm::TAG_LEN;
    let segments_at = 4 + sealed_len;
    manifest.extend_from_slice(&(row_count as u16).to_le_bytes());

    let mut blob = Vec::with_capacity(
        segments_at
            + previous.map_or(0, |(_, old)| old.len())
            + plain.iter().map(Vec::len).sum::<usize>(),
    );
    blob.extend_from_slice(&(sealed_len as u32).to_le_bytes());
    blob.resize(segments_at, 0);

    let mut resealed = Vec::new();
    let (mut segments_reused, mut bytes_sealed) = (0, 0);
    for (index, plain) in plain.iter().enumerate() {
        let row = if !dirty.contains(index) {
            let (row, bytes) = clean(index);
            blob.extend_from_slice(bytes);
            segments_reused += (row.len > 0) as u64;
            row.clone()
        } else if plain.is_empty() {
            empty_row()
        } else {
            let nonce = sealing::segment_nonce(drawn, index as u32);
            let start = blob.len();
            key.seal_into(&mut blob, &nonce, &segment_aad(index), plain);
            let tag_at = blob.len() - gcm::TAG_LEN;
            let tag = blob[tag_at..].try_into().expect("seal appends the tag");
            blob.truncate(tag_at);
            bytes_sealed += plain.len() as u64;
            let row = SegmentRow {
                len: plain.len(),
                nonce,
                tag,
            };
            resealed.push(SealedSegment {
                index,
                start,
                row: row.clone(),
            });
            row
        };
        if row.len > 0 {
            manifest.extend_from_slice(&(index as u16).to_le_bytes());
            manifest.extend_from_slice(&(row.len as u32).to_le_bytes());
            manifest.extend_from_slice(row.nonce.as_bytes());
            manifest.extend_from_slice(&row.tag);
        }
    }
    bytes_sealed += manifest.len() as u64;
    blob[4..segments_at].copy_from_slice(&sealing::seal_at_keyed(key, drawn, version, &manifest));
    Cut {
        blob,
        drawn: *drawn,
        segments_at,
        resealed,
        segments_reused,
        bytes_sealed,
    }
}

/// Authenticates the manifest of `blob` at `version` and checks that the
/// blob is exactly as long as its rows say.
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
    if segments_at + rows.iter().map(|r| r.len).sum::<usize>() != blob.len() {
        return Err(rejected);
    }
    Ok(Manifest {
        header,
        rows,
        segments_at,
    })
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
        let row = &manifest.rows[index];
        let plain = key
            .open_detached(&row.nonce, &segment_aad(index), &blob[range], &row.tag)
            .map_err(|_| StoreError::SnapshotRejected)?;
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

// A tentative cut between seal and commit: the cut as sealed, and its blob
// as the host persisted it (the same bytes unless a `SnapshotSeal` fault
// damaged the write).
pub(crate) struct TentativeCut {
    pub(crate) sealed: Cut,
    pub(crate) persisted: Vec<u8>,
}

impl PrecursorServer {
    /// Seals the current key-value state into a snapshot blob, incrementing
    /// the trusted monotonic `counter` so the new version supersedes every
    /// older snapshot. Only the segments mutated since this server's
    /// previous snapshot are re-sealed; the rest are carried over from it.
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
        self.commit_snapshot(version, cut)
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
