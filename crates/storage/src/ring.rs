//! Per-client circular request/reply buffers.
//!
//! Precursor gives every client a *separate ring buffer* for incoming and
//! outgoing requests in the server's untrusted memory (§3.5). Clients write
//! records into their ring with one-sided RDMA WRITEs; a trusted thread polls
//! the ring and consumes records; periodically, the server writes the
//! consumer position ("credits") back to the client so it knows how much
//! space is free (§3.8) — clients must never overwrite unconsumed data.
//!
//! The byte storage itself lives in a registered memory region owned by the
//! transport; [`RingProducer`] and [`RingConsumer`] implement only the
//! *layout*: length-prefixed records, wrap markers, and the credit protocol.
//! Producer and consumer therefore work on the two ends of a connection
//! without sharing anything but the buffer bytes, exactly like real RDMA
//! peers. Both run over any [`ByteStore`]; a transport's ring region is a
//! [`RingStore`] — one contiguous buffer for a ring of at most one page,
//! page-sparse beyond, so a ring holds what is in flight rather than its
//! capacity.
//!
//! ## Record format
//!
//! ```text
//! [len: u32 LE][payload: len bytes][padding to 8-byte alignment]
//! ```
//!
//! A length of `u32::MAX` is a wrap marker: the next record starts at offset
//! zero. A length of `0` means "not yet written" (the consumer waits).

use std::ops::{Index, IndexMut, Range};

use crate::sparse::{ByteStore, SparseBytes, PAGE_BYTES};

/// Record header size in bytes.
const HEADER: usize = 4;
/// Record alignment.
const ALIGN: usize = 8;
/// Wrap marker value.
const WRAP: u32 = u32::MAX;

/// The storage of one ring region, its layout chosen by its size: a ring
/// that fits in one page is one contiguous buffer (a page table would only
/// add a lookup to every access), a larger one is [`SparseBytes`]. Either
/// way every reader observes the same bytes.
#[derive(Debug)]
pub enum RingStore {
    /// One contiguous, wholly resident buffer.
    Dense(Vec<u8>),
    /// Page-sparse: resident pages are the ones that may hold a non-zero
    /// byte.
    Sparse(SparseBytes),
}

impl RingStore {
    /// A zeroed ring region of `capacity` bytes.
    pub fn new(capacity: usize) -> RingStore {
        if capacity <= PAGE_BYTES {
            RingStore::Dense(vec![0; capacity])
        } else {
            RingStore::Sparse(SparseBytes::new(capacity))
        }
    }
}

impl ByteStore for RingStore {
    #[inline]
    fn len(&self) -> usize {
        match self {
            RingStore::Dense(b) => b.len(),
            RingStore::Sparse(b) => b.len(),
        }
    }

    #[inline]
    fn read_at(&self, offset: usize, out: &mut [u8]) {
        match self {
            RingStore::Dense(b) => b.read_at(offset, out),
            RingStore::Sparse(b) => b.read_at(offset, out),
        }
    }

    #[inline]
    fn extend_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        match self {
            RingStore::Dense(b) => b.extend_into(range, out),
            RingStore::Sparse(b) => b.extend_into(range, out),
        }
    }

    #[inline]
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        match self {
            RingStore::Dense(b) => b.write_at(offset, data),
            RingStore::Sparse(b) => b.write_at(offset, data),
        }
    }

    #[inline]
    fn zero(&mut self, range: Range<usize>) {
        match self {
            RingStore::Dense(b) => b.zero(range),
            RingStore::Sparse(b) => b.zero(range),
        }
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        match self {
            RingStore::Dense(b) => b.len(),
            RingStore::Sparse(b) => b.resident_bytes(),
        }
    }
}

impl Index<usize> for RingStore {
    type Output = u8;

    #[inline]
    fn index(&self, i: usize) -> &u8 {
        match self {
            RingStore::Dense(b) => &b[i],
            RingStore::Sparse(b) => &b[i],
        }
    }
}

impl IndexMut<usize> for RingStore {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut u8 {
        match self {
            RingStore::Dense(b) => &mut b[i],
            RingStore::Sparse(b) => &mut b[i],
        }
    }
}

// The record header at `off`.
fn header<R: ByteStore + ?Sized>(ring: &R, off: usize) -> u32 {
    let mut word = [0u8; HEADER];
    ring.read_at(off, &mut word);
    u32::from_le_bytes(word)
}

fn record_span(len: usize) -> usize {
    (HEADER + len + ALIGN - 1) & !(ALIGN - 1)
}

/// The payload of one framed record — header, payload, padding — exactly as
/// [`RingProducer::push_with`] wrote it into its [`RingWrites`]: for a
/// producer that kept the WRITE it posted and needs the record back.
///
/// # Panics
///
/// Panics if `record` is not one whole framed record.
pub fn framed_payload(record: &[u8]) -> &[u8] {
    let len = u32::from_le_bytes(record[..HEADER].try_into().expect("4 bytes")) as usize;
    assert_eq!(record.len(), record_span(len), "not one framed record");
    &record[HEADER..HEADER + len]
}

/// The one-sided WRITEs of one ring push — an optional wrap marker, then
/// the framed record — in one byte buffer its owner keeps and refills:
/// over RDMA each is one post, and a retransmission log or a commit gate
/// holds the bytes it posted without a buffer per WRITE. Cleared and
/// refilled, it allocates only to grow past the largest record it has held.
///
/// # Example
///
/// ```
/// use precursor_storage::ring::{RingProducer, RingWrites};
///
/// let mut tx = RingProducer::new(64);
/// let mut writes = RingWrites::default();
/// tx.push_with(b"hello", &mut writes).unwrap();
/// let (off, record) = writes.last().unwrap();
/// assert_eq!((off, record.len()), (0, 16));
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RingWrites {
    bytes: Vec<u8>,
    // Per WRITE, in posting order: its ring offset and where its bytes end
    // in `bytes`.
    writes: Vec<(usize, usize)>,
}

impl Clone for RingWrites {
    fn clone(&self) -> RingWrites {
        RingWrites {
            bytes: self.bytes.clone(),
            writes: self.writes.clone(),
        }
    }

    /// Copies `source` into this value's buffers, allocating only to grow
    /// them.
    fn clone_from(&mut self, source: &RingWrites) {
        self.bytes.clone_from(&source.bytes);
        self.writes.clone_from(&source.writes);
    }
}

impl RingWrites {
    /// Forgets every WRITE, keeping the buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.writes.clear();
    }

    /// Appends one WRITE of `bytes` at ring offset `offset`.
    pub fn push(&mut self, offset: usize, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.note(offset);
    }

    // Appends the framed record of a `len`-byte payload at `offset`:
    // header, the payload `build` appends, zero padding to `span` bytes (so
    // stale bytes never masquerade as headers). The buffer grows to fit the
    // record exactly: a buffer kept per connection is held at the size of
    // its records.
    fn push_record(
        &mut self,
        offset: usize,
        len: usize,
        span: usize,
        build: impl FnOnce(&mut Vec<u8>),
    ) {
        let start = self.bytes.len();
        self.bytes.reserve_exact(span);
        self.bytes.extend_from_slice(&(len as u32).to_le_bytes());
        build(&mut self.bytes);
        assert_eq!(
            self.bytes.len(),
            start + HEADER + len,
            "a record's payload is the length it was placed with"
        );
        self.bytes.resize(start + span, 0);
        self.note(offset);
    }

    // Ends a WRITE at the current end of the bytes; room for a push's two
    // is made at once.
    fn note(&mut self, offset: usize) {
        if self.writes.capacity() == 0 {
            self.writes.reserve_exact(2);
        }
        self.writes.push((offset, self.bytes.len()));
    }

    /// Number of WRITEs.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether there is no WRITE.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Bytes across all WRITEs.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// `(ring offset, bytes)` of each WRITE, in posting order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let starts = std::iter::once(0).chain(self.writes.iter().map(|&(_, end)| end));
        self.writes
            .iter()
            .zip(starts)
            .map(|(&(offset, end), start)| (offset, &self.bytes[start..end]))
    }

    /// The last WRITE: a push's record.
    pub fn last(&self) -> Option<(usize, &[u8])> {
        self.iter().last()
    }
}

// Where a push goes: the wrap marker's offset and length when the record
// restarts at zero, then the record's offset and span.
struct Placement {
    wrap: Option<(usize, usize)>,
    off: usize,
    span: usize,
}

/// Producer half: runs on the **client**, computing where in the remote ring
/// the next record goes and how much space remains.
///
/// # Example
///
/// ```
/// use precursor_storage::ring::{RingConsumer, RingProducer};
///
/// let mut buf = vec![0u8; 256];
/// let mut tx = RingProducer::new(buf.len());
/// let mut rx = RingConsumer::new(buf.len());
///
/// let off = tx.push(&mut buf, b"hello").unwrap();
/// assert_eq!(off, 0);
/// let rec = rx.pop(&mut buf).unwrap();
/// assert_eq!(rec, b"hello");
/// // consumer advances; its position flows back as credits
/// tx.update_credits(rx.consumed());
/// ```
#[derive(Debug, Clone)]
pub struct RingProducer {
    capacity: usize,
    /// Next write offset within the ring.
    write: usize,
    /// Total bytes written (monotonic).
    written: u64,
    /// Total bytes the consumer reported consuming (monotonic).
    consumed: u64,
}

impl RingProducer {
    /// Creates a producer for a ring of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of 8 or is < 64.
    pub fn new(capacity: usize) -> RingProducer {
        assert!(
            capacity >= 64 && capacity.is_multiple_of(ALIGN),
            "bad ring capacity"
        );
        RingProducer {
            capacity,
            write: 0,
            written: 0,
            consumed: 0,
        }
    }

    /// Bytes of free space the producer may still write into. Saturating:
    /// a credit word claiming more consumption than was ever written (e.g.
    /// a stale or corrupted credit WRITE under fault injection) clamps to
    /// "everything consumed" instead of wrapping.
    pub fn free_space(&self) -> usize {
        self.capacity
            .saturating_sub(self.written.saturating_sub(self.consumed) as usize)
    }

    /// Whether a record of `len` payload bytes currently fits, including any
    /// wrap waste it would incur at the current write position.
    pub fn fits(&self, len: usize) -> bool {
        let span = record_span(len);
        let contiguous = self.capacity - self.write;
        let needed = if span <= contiguous {
            span
        } else {
            contiguous + span
        };
        needed <= self.free_space()
    }

    /// Writes a record into `ring` (the local mirror of the remote buffer;
    /// over RDMA the same bytes are what the one-sided WRITE carries).
    /// Returns the offset the record was placed at, or `None` if it does not
    /// fit (the caller waits for credits).
    ///
    /// # Panics
    ///
    /// Panics if `ring.len()` differs from the configured capacity.
    pub fn push<R: ByteStore + ?Sized>(&mut self, ring: &mut R, payload: &[u8]) -> Option<usize> {
        assert_eq!(ring.len(), self.capacity, "ring size mismatch");
        let Placement { wrap, off, span } = self.place(payload.len())?;
        if let Some((at, marker)) = wrap {
            ring.write_at(at, &WRAP.to_le_bytes()[..marker]);
        }
        ring.write_at(off, &(payload.len() as u32).to_le_bytes());
        ring.write_at(off + HEADER, payload);
        let pad = span - HEADER - payload.len();
        ring.write_at(off + HEADER + payload.len(), &[0; ALIGN][..pad]);
        Some(off)
    }

    /// Like [`push`](Self::push), but refills `writes` with the bytes
    /// instead of writing a local slice — over RDMA, each of them is one
    /// one-sided WRITE into the remote ring, and the caller keeps the bytes
    /// it posted (a retransmission log keeps them without a copy). At most
    /// two writes are issued per record (an optional wrap marker plus the
    /// record itself); `writes` is left empty when the record does not fit.
    pub fn push_with(&mut self, payload: &[u8], writes: &mut RingWrites) -> Option<usize> {
        self.push_built(payload.len(), writes, |out| out.extend_from_slice(payload))
    }

    /// Like [`push_with`](Self::push_with), but the record's `len` payload
    /// bytes are appended by `build` straight into `writes`' buffer: a
    /// producer that builds its record (frames it, seals part of it) does
    /// so in the bytes it posts and keeps, with no buffer and no copy
    /// beside them. `build` is not called when the record does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `build` appends other than `len` bytes.
    pub fn push_built(
        &mut self,
        len: usize,
        writes: &mut RingWrites,
        build: impl FnOnce(&mut Vec<u8>),
    ) -> Option<usize> {
        writes.clear();
        let Placement { wrap, off, span } = self.place(len)?;
        if let Some((at, marker)) = wrap {
            writes.push(at, &WRAP.to_le_bytes()[..marker]);
        }
        writes.push_record(off, len, span, build);
        Some(off)
    }

    // Claims ring space for a record of `len` payload bytes. `None` when it
    // does not fit.
    fn place(&mut self, len: usize) -> Option<Placement> {
        if !self.fits(len) {
            return None;
        }
        let span = record_span(len);
        let mut wrap = None;
        if self.write + span > self.capacity {
            // Not enough contiguous room: emit a wrap marker and restart.
            let wasted = self.capacity - self.write;
            wrap = Some((self.write, HEADER.min(wasted)));
            self.written += wasted as u64;
            self.write = 0;
        }
        let off = self.write;
        self.write = (off + span) % self.capacity;
        self.written += span as u64;
        Some(Placement { wrap, off, span })
    }

    /// Applies a credit update: the consumer has consumed `consumed` total
    /// bytes. Stale (smaller) updates are ignored.
    pub fn update_credits(&mut self, consumed: u64) {
        if consumed > self.consumed {
            self.consumed = consumed;
        }
    }

    /// Total bytes written so far (monotonic), including wrap waste.
    pub fn written(&self) -> u64 {
        self.written
    }
}

/// Consumer half: runs on the **server**; a trusted thread polls it.
#[derive(Debug, Clone)]
pub struct RingConsumer {
    capacity: usize,
    read: usize,
    consumed: u64,
}

impl RingConsumer {
    /// Creates a consumer for a ring of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a multiple of 8 or is < 64.
    pub fn new(capacity: usize) -> RingConsumer {
        assert!(
            capacity >= 64 && capacity.is_multiple_of(ALIGN),
            "bad ring capacity"
        );
        RingConsumer {
            capacity,
            read: 0,
            consumed: 0,
        }
    }

    /// Polls the ring for the next record. Returns the payload (copied out,
    /// like the control-segment copy into the enclave) or `None` when the
    /// ring is empty at the current position. Consumed bytes are zeroed so
    /// stale headers can never masquerade as fresh records after wraparound.
    ///
    /// # Panics
    ///
    /// Panics if `ring.len()` differs from the configured capacity.
    pub fn pop<R: ByteStore + ?Sized>(&mut self, ring: &mut R) -> Option<Vec<u8>> {
        let mut record = Vec::new();
        self.pop_into(ring, &mut record).then_some(record)
    }

    /// [`pop`](Self::pop) into a buffer the caller reuses: on `true`,
    /// `record` holds exactly the next record's payload; on `false` (the
    /// ring is empty at the current position) it is left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `ring.len()` differs from the configured capacity.
    pub fn pop_into<R: ByteStore + ?Sized>(&mut self, ring: &mut R, record: &mut Vec<u8>) -> bool {
        assert_eq!(ring.len(), self.capacity, "ring size mismatch");
        let mut off = self.read;
        let avail = self.capacity - off;
        if avail >= HEADER {
            let len = header(ring, off);
            if len == WRAP {
                ring.zero(off..self.capacity);
                self.consumed += avail as u64;
                self.read = 0;
                off = 0;
            } else if len == 0 {
                return false;
            }
        } else if avail > 0 {
            // Trailing sliver too small for a header: implicit wrap.
            let mut first = [0u8];
            ring.read_at(off, &mut first);
            if first[0] == 0xff {
                ring.zero(off..self.capacity);
                self.consumed += avail as u64;
                self.read = 0;
                off = 0;
            } else {
                return false;
            }
        }
        let len = header(ring, off) as usize;
        if len == 0 || len == WRAP as usize {
            return false;
        }
        if off + HEADER + len > self.capacity {
            return false; // torn write; wait
        }
        record.clear();
        ring.extend_into(off + HEADER..off + HEADER + len, record);
        let span = record_span(len);
        ring.zero(off..off + span);
        self.read = (off + span) % self.capacity;
        self.consumed += span as u64;
        true
    }

    /// [`pop_into`](Self::pop_into) from a ring region, dispatching on its
    /// layout once per record rather than once per access.
    ///
    /// # Panics
    ///
    /// Panics if `ring.len()` differs from the configured capacity.
    pub fn pop_from(&mut self, ring: &mut RingStore, record: &mut Vec<u8>) -> bool {
        match ring {
            RingStore::Dense(bytes) => self.pop_into(bytes, record),
            RingStore::Sparse(bytes) => self.pop_into(bytes, record),
        }
    }

    /// Total bytes consumed (monotonic) — the credit value written back to
    /// the client.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cap: usize) -> (Vec<u8>, RingProducer, RingConsumer) {
        (
            vec![0u8; cap],
            RingProducer::new(cap),
            RingConsumer::new(cap),
        )
    }

    #[test]
    fn simple_push_pop() {
        let (mut buf, mut tx, mut rx) = pair(256);
        tx.push(&mut buf, b"alpha").unwrap();
        tx.push(&mut buf, b"beta").unwrap();
        assert_eq!(rx.pop(&mut buf).unwrap(), b"alpha");
        assert_eq!(rx.pop(&mut buf).unwrap(), b"beta");
        assert!(rx.pop(&mut buf).is_none());
    }

    #[test]
    fn empty_ring_pops_none() {
        let (mut buf, _tx, mut rx) = pair(128);
        assert!(rx.pop(&mut buf).is_none());
    }

    #[test]
    fn free_space_saturates_on_overclaimed_credits() {
        let (mut buf, mut tx, _rx) = pair(128);
        tx.push(&mut buf, b"record").unwrap();
        // A corrupted/forged credit word claims more consumption than was
        // ever produced; free_space must clamp, not wrap around.
        tx.update_credits(u64::MAX);
        assert_eq!(tx.free_space(), 128);
    }

    #[test]
    fn producer_blocks_without_credits() {
        let (mut buf, mut tx, mut rx) = pair(128);
        let payload = [7u8; 40];
        let mut pushed = 0;
        while tx.push(&mut buf, &payload).is_some() {
            pushed += 1;
        }
        assert!(pushed >= 2);
        // consumer drains one record and reports credits
        rx.pop(&mut buf).unwrap();
        tx.update_credits(rx.consumed());
        assert!(tx.push(&mut buf, &payload).is_some(), "credits freed space");
    }

    #[test]
    fn wraps_around_many_times() {
        let (mut buf, mut tx, mut rx) = pair(256);
        let mut next_expected = 0u32;
        for i in 0u32..1_000 {
            let payload = i.to_le_bytes();
            loop {
                if tx.push(&mut buf, &payload).is_some() {
                    break;
                }
                // drain one and update credits
                let got = rx.pop(&mut buf).expect("ring full implies data available");
                assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), next_expected);
                next_expected += 1;
                tx.update_credits(rx.consumed());
            }
        }
        // drain the rest in order
        while let Some(got) = rx.pop(&mut buf) {
            assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), next_expected);
            next_expected += 1;
        }
        assert_eq!(next_expected, 1_000);
    }

    #[test]
    fn variable_sizes_with_wrap() {
        let (mut buf, mut tx, mut rx) = pair(512);
        let sizes = [1usize, 60, 13, 100, 7, 250, 32, 64];
        let mut sent = Vec::new();
        for (i, &s) in sizes.iter().cycle().take(200).enumerate() {
            let payload: Vec<u8> = (0..s).map(|j| (i + j) as u8).collect();
            loop {
                if tx.push(&mut buf, &payload).is_some() {
                    sent.push(payload.clone());
                    break;
                }
                let got = rx.pop(&mut buf).unwrap();
                assert_eq!(got, sent.remove(0));
                tx.update_credits(rx.consumed());
            }
        }
        while let Some(got) = rx.pop(&mut buf) {
            assert_eq!(got, sent.remove(0));
        }
        assert!(sent.is_empty());
    }

    #[test]
    fn pop_into_refills_one_buffer() {
        let (mut buf, mut tx, mut rx) = pair(128);
        let mut record = b"left over from an earlier, longer record".to_vec();
        for (i, len) in [3usize, 40, 1, 17].into_iter().enumerate() {
            let payload = vec![i as u8 + 1; len];
            tx.push(&mut buf, &payload).unwrap();
            assert!(rx.pop_into(&mut buf, &mut record));
            assert_eq!(record, payload);
            tx.update_credits(rx.consumed());
        }
        assert!(!rx.pop_into(&mut buf, &mut record));
        assert_eq!(
            record, [4u8; 17],
            "an empty ring leaves the buffer as it was"
        );
    }

    #[test]
    fn stale_credit_updates_are_ignored() {
        let (mut buf, mut tx, mut rx) = pair(128);
        tx.push(&mut buf, &[1u8; 40]).unwrap();
        rx.pop(&mut buf).unwrap();
        tx.update_credits(rx.consumed());
        let free_after = tx.free_space();
        tx.update_credits(0); // stale
        assert_eq!(tx.free_space(), free_after);
    }

    #[test]
    fn framed_payload_is_what_was_pushed() {
        let mut producer = RingProducer::new(64);
        let mut writes = RingWrites::default();
        for len in [1usize, 3, 4, 5, 12, 20] {
            let payload = vec![len as u8; len];
            producer.update_credits(producer.written());
            producer.push_with(&payload, &mut writes).expect("fits");
            // the last write of a push is the record (a wrap marker precedes it)
            let (_, framed) = writes.last().expect("a record");
            assert_eq!(framed_payload(framed), &payload[..], "len {len}");
        }
    }

    #[test]
    fn push_with_writes_what_push_writes() {
        // One producer writes its ring in place, the other hands out its
        // WRITEs, over wraps and every alignment: the bytes agree, and a
        // reused `RingWrites` holds exactly the last push.
        let (mut direct, mut posted) = (vec![0u8; 96], vec![0u8; 96]);
        let (mut a, mut b) = (RingProducer::new(96), RingProducer::new(96));
        let mut writes = RingWrites::default();
        for len in (0..40).map(|i| 1 + (i * 7) % 23) {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            a.update_credits(a.written());
            b.update_credits(b.written());
            assert_eq!(
                a.push(&mut direct[..], &payload),
                b.push_with(&payload, &mut writes)
            );
            assert!(writes.len() <= 2);
            let mut bytes = 0;
            for (off, w) in writes.iter() {
                posted[off..off + w.len()].copy_from_slice(w);
                bytes += w.len();
            }
            assert_eq!(bytes, writes.byte_len());
            assert_eq!(direct, posted, "len {len}");
        }
        let mut full = RingProducer::new(64);
        full.push_with(&[1; 40], &mut writes).expect("fits");
        assert_eq!(full.push_with(&[2; 40], &mut writes), None);
        assert!(
            writes.is_empty(),
            "a push that does not fit leaves no WRITE"
        );
    }

    #[test]
    fn push_built_writes_what_push_with_writes() {
        // The same records, one handed over as a slice and one appended in
        // place, over wraps and every alignment: the same WRITEs.
        let (mut a, mut b) = (RingProducer::new(96), RingProducer::new(96));
        let (mut sliced, mut built) = (RingWrites::default(), RingWrites::default());
        for len in (0..40).map(|i| (i * 5) % 29) {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13 + len) as u8).collect();
            a.update_credits(a.written());
            b.update_credits(b.written());
            assert_eq!(
                a.push_with(&payload, &mut sliced),
                b.push_built(len, &mut built, |out| out.extend_from_slice(&payload))
            );
            assert_eq!(sliced, built, "len {len}");
        }
        let mut full = RingProducer::new(64);
        full.push_with(&[1; 40], &mut built).expect("fits");
        let pushed = full.push_built(40, &mut built, |_| panic!("built without room"));
        assert_eq!(pushed, None);
        assert!(built.is_empty());
    }

    #[test]
    #[should_panic(expected = "the length it was placed with")]
    fn push_built_rejects_a_payload_of_another_length() {
        let mut tx = RingProducer::new(64);
        let _ = tx.push_built(5, &mut RingWrites::default(), |out| out.push(1));
    }

    #[test]
    fn record_span_alignment() {
        assert_eq!(record_span(0), 8);
        assert_eq!(record_span(1), 8);
        assert_eq!(record_span(4), 8);
        assert_eq!(record_span(5), 16);
        assert_eq!(record_span(12), 16);
        assert_eq!(record_span(13), 24);
    }

    #[test]
    #[should_panic(expected = "bad ring capacity")]
    fn rejects_unaligned_capacity() {
        let _ = RingProducer::new(100);
    }

    #[test]
    #[should_panic(expected = "ring size mismatch")]
    fn rejects_wrong_buffer() {
        let mut tx = RingProducer::new(128);
        let mut buf = vec![0u8; 64];
        let _ = tx.push(&mut buf, b"x");
    }

    #[test]
    fn fits_is_consistent_with_push() {
        let (mut buf, mut tx, _rx) = pair(128);
        while tx.fits(16) {
            assert!(tx.push(&mut buf, &[0u8; 16]).is_some());
        }
        assert!(tx.push(&mut buf, &[0u8; 16]).is_none());
    }
}
