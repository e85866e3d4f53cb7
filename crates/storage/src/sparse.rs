//! Byte storage for untrusted regions, dense or page-sparse.
//!
//! [`ByteStore`] is the byte-addressed interface a ring
//! ([`RingProducer`](crate::ring::RingProducer) /
//! [`RingConsumer`](crate::ring::RingConsumer)) and a registered memory
//! region run over. A `Vec<u8>` is the dense store: one contiguous buffer,
//! every byte resident from allocation on.
//!
//! [`SparseBytes`] is the page-sparse store. Precursor gives every client a
//! request ring and a reply ring in untrusted host memory (§3.5); a
//! closed-loop client has one record in flight, but its producer laps the
//! whole ring, so a dense ring ends up wholly resident. A sparse region
//! holds a 4 KiB page only while it may hold a non-zero byte, and an absent
//! page reads as zeros — every reader observes exactly the bytes a dense
//! buffer would hold, and the region's resident memory is what is in
//! flight, not its capacity.
//!
//! Each present page tracks the extent `lo..hi` outside which it is all
//! zero. A write widens the extent; a zeroing that covers the extent's
//! front or back shrinks it. A page is released only when a zeroing reaches
//! the page's end and leaves its extent empty, so bytes nobody zeroed (a
//! WRITE re-issued behind the consumer) keep their page until a later
//! zeroing clears them. A released page is all zero: the region keeps one
//! as a spare and reuses it without allocating or zero-filling.

use std::ops::{Index, IndexMut, Range};

/// Bytes per page of a [`SparseBytes`] region.
pub const PAGE_BYTES: usize = 4096;

/// Byte-addressed storage: what rings and registered regions read, write
/// and zero. Every method panics on a range outside `0..len()`.
pub trait ByteStore {
    /// Length in bytes.
    fn len(&self) -> usize;

    /// Whether the store holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the `out.len()` bytes at `offset` into `out`.
    fn read_at(&self, offset: usize, out: &mut [u8]);

    /// Appends the bytes of `range` to `out`.
    fn extend_into(&self, range: Range<usize>, out: &mut Vec<u8>);

    /// Copies `data` into the store at `offset`.
    fn write_at(&mut self, offset: usize, data: &[u8]);

    /// Sets every byte of `range` to zero.
    fn zero(&mut self, range: Range<usize>);

    /// Host memory the store holds for its bytes.
    fn resident_bytes(&self) -> usize;
}

impl ByteStore for [u8] {
    #[inline]
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    #[inline]
    fn read_at(&self, offset: usize, out: &mut [u8]) {
        out.copy_from_slice(&self[offset..offset + out.len()]);
    }

    #[inline]
    fn extend_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self[range]);
    }

    #[inline]
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self[offset..offset + data.len()].copy_from_slice(data);
    }

    #[inline]
    fn zero(&mut self, range: Range<usize>) {
        self[range].fill(0);
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        <[u8]>::len(self)
    }
}

impl ByteStore for Vec<u8> {
    #[inline]
    fn len(&self) -> usize {
        Vec::len(self)
    }

    #[inline]
    fn read_at(&self, offset: usize, out: &mut [u8]) {
        self.as_slice().read_at(offset, out);
    }

    #[inline]
    fn extend_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        self.as_slice().extend_into(range, out);
    }

    #[inline]
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.as_mut_slice().write_at(offset, data);
    }

    #[inline]
    fn zero(&mut self, range: Range<usize>) {
        self.as_mut_slice().zero(range);
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        Vec::len(self)
    }
}

type Page = [u8; PAGE_BYTES];

fn zeroed_page() -> Box<Page> {
    vec![0u8; PAGE_BYTES]
        .into_boxed_slice()
        .try_into()
        .expect("one page")
}

// One page of the region: absent, or present with the extent outside which
// its bytes are zero (`lo == hi` is the empty extent).
#[derive(Clone, Default)]
struct Slot {
    page: Option<Box<Page>>,
    lo: u32,
    hi: u32,
}

impl Slot {
    #[inline]
    fn widen(&mut self, r: &Range<usize>) {
        let (lo, hi) = (r.start as u32, r.end as u32);
        if self.lo == self.hi {
            (self.lo, self.hi) = (lo, hi);
        } else {
            (self.lo, self.hi) = (self.lo.min(lo), self.hi.max(hi));
        }
    }
}

// Calls `f(page, in-page range, offset into the range)` for each per-page
// piece of `offset..offset + n`, in address order: once for a range inside
// one page.
fn for_pieces(offset: usize, n: usize, mut f: impl FnMut(usize, Range<usize>, usize)) {
    let (mut page, mut at, mut done) = (offset / PAGE_BYTES, offset % PAGE_BYTES, 0);
    while done < n {
        let take = (PAGE_BYTES - at).min(n - done);
        f(page, at..at + take, done);
        (page, at, done) = (page + 1, 0, done + take);
    }
}

/// A page-sparse, zero-initialised byte region (see the
/// [module docs](self) for the extent and release rules).
///
/// # Example
///
/// ```
/// use precursor_storage::sparse::{ByteStore, SparseBytes, PAGE_BYTES};
///
/// let mut ring = SparseBytes::new(1 << 20);
/// assert_eq!(ring.resident_bytes(), 0);
/// ring.write_at(4090, b"straddles");
/// assert_eq!(ring.resident_bytes(), 2 * PAGE_BYTES);
/// let mut out = [0u8; 9];
/// ring.read_at(4090, &mut out);
/// assert_eq!(&out, b"straddles");
/// // zeroing through the first page's end releases it (kept as the spare);
/// // the second page keeps its (now empty) extent until a zeroing reaches
/// // its end
/// ring.zero(4090..4099);
/// assert_eq!(ring.resident_bytes(), 2 * PAGE_BYTES);
/// ring.zero(4099..2 * PAGE_BYTES);
/// assert_eq!(ring.resident_bytes(), PAGE_BYTES, "one spare, no live page");
/// ```
#[derive(Default)]
pub struct SparseBytes {
    len: usize,
    pages: Vec<Slot>,
    // Present pages, not counting the spare.
    live: usize,
    // One released (all-zero) page, reused by the next page a write needs.
    spare: Option<Box<Page>>,
}

impl SparseBytes {
    /// A region of `len` zero bytes holding no page.
    pub fn new(len: usize) -> SparseBytes {
        SparseBytes {
            len,
            pages: vec![Slot::default(); len.div_ceil(PAGE_BYTES)],
            ..SparseBytes::default()
        }
    }

    /// Extends the region by `extra` zero bytes.
    pub fn grow(&mut self, extra: usize) {
        self.len += extra;
        self.pages
            .resize_with(self.len.div_ceil(PAGE_BYTES), Slot::default);
    }

    /// Pages the region holds, the spare included.
    pub fn resident_pages(&self) -> usize {
        self.live + usize::from(self.spare.is_some())
    }

    #[inline]
    fn check(&self, offset: usize, n: usize) {
        assert!(
            offset.checked_add(n).is_some_and(|end| end <= self.len),
            "range {offset}+{n} out of bounds of {} bytes",
            self.len
        );
    }

    // The present page `page`, taken from the spare or allocated zeroed.
    #[inline]
    fn materialise(&mut self, page: usize) -> &mut Slot {
        let slot = &mut self.pages[page];
        if slot.page.is_none() {
            slot.page = Some(self.spare.take().unwrap_or_else(zeroed_page));
            self.live += 1;
        }
        slot
    }
}

impl ByteStore for SparseBytes {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn read_at(&self, offset: usize, out: &mut [u8]) {
        self.check(offset, out.len());
        for_pieces(offset, out.len(), |page, r, done| {
            let dst = &mut out[done..done + r.len()];
            match &self.pages[page].page {
                Some(bytes) => dst.copy_from_slice(&bytes[r]),
                None => dst.fill(0),
            }
        });
    }

    #[inline]
    fn extend_into(&self, range: Range<usize>, out: &mut Vec<u8>) {
        self.check(range.start, range.len());
        for_pieces(range.start, range.len(), |page, r, _| {
            match &self.pages[page].page {
                Some(bytes) => out.extend_from_slice(&bytes[r]),
                None => out.resize(out.len() + r.len(), 0),
            }
        });
    }

    #[inline]
    fn write_at(&mut self, offset: usize, data: &[u8]) {
        self.check(offset, data.len());
        for_pieces(offset, data.len(), |page, r, done| {
            let slot = self.materialise(page);
            let src = &data[done..done + r.len()];
            slot.page.as_mut().expect("present")[r.clone()].copy_from_slice(src);
            slot.widen(&r);
        });
    }

    #[inline]
    fn zero(&mut self, range: Range<usize>) {
        self.check(range.start, range.len());
        for_pieces(range.start, range.len(), |page, r, _| {
            let end = (self.len - page * PAGE_BYTES).min(PAGE_BYTES);
            let slot = &mut self.pages[page];
            let Some(bytes) = slot.page.as_mut() else {
                return;
            };
            let (lo, hi) = (slot.lo as usize, slot.hi as usize);
            let (a, b) = (r.start.max(lo), r.end.min(hi));
            if a < b {
                bytes[a..b].fill(0);
            }
            if r.start <= lo && r.end >= hi {
                (slot.lo, slot.hi) = (0, 0);
            } else if r.start <= lo && r.end > lo {
                slot.lo = r.end as u32;
            } else if r.end >= hi && r.start < hi {
                slot.hi = r.start as u32;
            }
            if slot.lo == slot.hi && r.end == end {
                let released = slot.page.take();
                self.live -= 1;
                if self.spare.is_none() {
                    self.spare = released;
                }
            }
        });
    }

    #[inline]
    fn resident_bytes(&self) -> usize {
        self.resident_pages() * PAGE_BYTES
    }
}

impl Index<usize> for SparseBytes {
    type Output = u8;

    #[inline]
    fn index(&self, i: usize) -> &u8 {
        self.check(i, 1);
        match &self.pages[i / PAGE_BYTES].page {
            Some(bytes) => &bytes[i % PAGE_BYTES],
            None => &0,
        }
    }
}

/// Byte access for a host that rewrites one byte in place: the byte's page
/// becomes present and its extent covers the byte.
impl IndexMut<usize> for SparseBytes {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut u8 {
        self.check(i, 1);
        let at = i % PAGE_BYTES;
        let slot = self.materialise(i / PAGE_BYTES);
        slot.widen(&(at..at + 1));
        &mut slot.page.as_mut().expect("present")[at]
    }
}

impl std::fmt::Debug for SparseBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseBytes")
            .field("len", &self.len)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(store: &impl ByteStore, offset: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0xEE; len];
        store.read_at(offset, &mut out);
        out
    }

    #[test]
    fn absent_pages_read_as_zeros() {
        let s = SparseBytes::new(3 * PAGE_BYTES + 100);
        assert_eq!(read(&s, 0, s.len()), vec![0u8; s.len()]);
        assert_eq!(s[3 * PAGE_BYTES + 99], 0);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn a_write_inside_one_page_makes_one_page_resident() {
        let mut s = SparseBytes::new(1 << 20);
        s.write_at(PAGE_BYTES + 8, &[1; 140]);
        assert_eq!(s.resident_pages(), 1);
        let mut out = Vec::new();
        s.extend_into(PAGE_BYTES..PAGE_BYTES + 200, &mut out);
        assert_eq!(&out[..8], [0; 8]);
        assert_eq!(&out[8..148], [1; 140]);
        assert_eq!(&out[148..], [0; 52]);
    }

    #[test]
    fn interior_zeroing_keeps_the_page_and_its_outer_bytes() {
        let mut s = SparseBytes::new(2 * PAGE_BYTES);
        s.write_at(0, &[7; 300]);
        s.zero(100..200);
        assert_eq!(read(&s, 0, 300)[..100], [7; 100]);
        assert_eq!(read(&s, 0, 300)[100..200], [0; 100]);
        // front and back survive a zeroing that reaches the page's end
        // without covering them
        s.zero(150..PAGE_BYTES);
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(read(&s, 0, 100), [7; 100]);
        s.zero(0..PAGE_BYTES);
        assert_eq!(s.resident_pages(), 1, "released into the spare");
        assert_eq!(s.live, 0);
    }

    #[test]
    fn stale_bytes_behind_the_consumer_keep_their_page() {
        // A re-issued WRITE lands at an offset already consumed: the page
        // must survive the zeroing of later records, which do not cover it.
        let mut s = SparseBytes::new(4 * PAGE_BYTES);
        s.write_at(64, &[9; 64]); // re-issued behind the consumer
        s.write_at(512, &[1; 64]); // the live record
        s.zero(512..576);
        s.write_at(PAGE_BYTES - 64, &[2; 128]); // straddles into page 1
        s.zero(PAGE_BYTES - 64..PAGE_BYTES + 64);
        assert!(s.pages[0].page.is_some(), "stale bytes at 64..128 remain");
        assert_eq!(read(&s, 64, 64), [9; 64]);
        // the next lap's zeroing covers them and reaches the end
        s.zero(0..PAGE_BYTES);
        assert!(s.pages[0].page.is_none());
    }

    #[test]
    fn a_released_page_is_reused_as_the_spare() {
        let mut s = SparseBytes::new(8 * PAGE_BYTES);
        s.write_at(0, &[5; PAGE_BYTES]);
        let first = s.pages[0].page.as_deref().map(|p| p.as_ptr());
        s.zero(0..PAGE_BYTES);
        s.write_at(5 * PAGE_BYTES, &[6; 10]);
        let reused = s.pages[5].page.as_deref().map(|p| p.as_ptr());
        assert_eq!(first, reused, "the spare, not a fresh allocation");
        assert_eq!(
            read(&s, 5 * PAGE_BYTES, 12),
            [6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 0, 0]
        );
    }

    #[test]
    fn byte_tamper_widens_the_extent() {
        let mut s = SparseBytes::new(2 * PAGE_BYTES);
        s[PAGE_BYTES + 4] ^= 1;
        assert_eq!(s[PAGE_BYTES + 4], 1);
        s.zero(PAGE_BYTES..PAGE_BYTES + 4);
        assert_eq!(s[PAGE_BYTES + 4], 1, "not covered, not cleared");
        s.zero(PAGE_BYTES + 4..2 * PAGE_BYTES);
        assert_eq!(s.live, 0);
    }

    #[test]
    fn the_last_partial_page_ends_at_the_region_end() {
        let mut s = SparseBytes::new(PAGE_BYTES + 40);
        s.write_at(PAGE_BYTES, &[3; 40]);
        s.zero(PAGE_BYTES..PAGE_BYTES + 40);
        assert_eq!(s.live, 0);
        s.grow(PAGE_BYTES);
        assert_eq!(s.len(), 2 * PAGE_BYTES + 40);
        assert_eq!(
            read(&s, PAGE_BYTES, PAGE_BYTES + 40),
            vec![0; PAGE_BYTES + 40]
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_overflowing_range_panics_cleanly() {
        SparseBytes::new(64).write_at(usize::MAX - 1, &[1; 4]);
    }
}
