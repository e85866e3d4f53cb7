//! Shared buffers and registered memory regions.
//!
//! A [`Memory`] is a byte buffer that can be shared between the two ends of a
//! simulated connection (like physical memory both the CPU and the NIC can
//! address). Registering it with a queue pair yields a [`RemoteKey`] the
//! peer presents with one-sided operations — the `rkey` of real verbs. A
//! region registered without DMA permission models enclave memory: the
//! (simulated) NIC refuses to touch it, which is why Precursor must place
//! payload data in *untrusted* memory (§1).

use std::sync::{Arc, Mutex};

use precursor_storage::sparse::ByteStore;

use crate::plock;

/// A shared byte region over store `S`: a dense, contiguous `Vec<u8>` by
/// default, or any other [`ByteStore`] — a ring region is a
/// [`RingStore`](precursor_storage::ring::RingStore), page-sparse when it
/// is larger than one page.
///
/// Cloning shares the underlying storage (like two views of the same DRAM).
#[derive(Debug)]
pub struct Memory<S = Vec<u8>> {
    buf: Arc<Mutex<S>>,
}

impl<S> Clone for Memory<S> {
    fn clone(&self) -> Memory<S> {
        Memory {
            buf: Arc::clone(&self.buf),
        }
    }
}

impl Memory {
    /// Allocates `len` zeroed bytes in one contiguous buffer.
    pub fn zeroed(len: usize) -> Memory {
        Memory::new(vec![0u8; len])
    }

    /// Extends the buffer by `extra` zero bytes (the grown payload pool).
    pub fn grow(&self, extra: usize) {
        let mut buf = plock(&self.buf);
        let new_len = buf.len() + extra;
        buf.resize(new_len, 0);
    }
}

impl<S: ByteStore> Memory<S> {
    /// Shares `store` as a region.
    pub fn new(store: S) -> Memory<S> {
        Memory {
            buf: Arc::new(Mutex::new(store)),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        plock(&self.buf).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host memory the region holds for its bytes: its length when dense,
    /// its resident pages when sparse.
    pub fn resident_bytes(&self) -> usize {
        plock(&self.buf).resident_bytes()
    }

    /// Copies `data` into the buffer at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        plock(&self.buf).write_at(offset, data);
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        plock(&self.buf).extend_into(offset..offset + len, &mut out);
        out
    }

    /// Reads the little-endian `u64` at `offset` — a credit word — without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let mut word = [0u8; 8];
        plock(&self.buf).read_at(offset, &mut word);
        u64::from_le_bytes(word)
    }

    /// Runs `f` with mutable access to the store (local CPU access —
    /// rings and pools operate through this).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut plock(&self.buf))
    }

    /// Runs `f` with shared access to the store.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&plock(&self.buf))
    }
}

impl<S: ByteStore + Send + 'static> Memory<S> {
    // The store behind a type-erased handle, as the verbs keep it.
    pub(crate) fn region(&self) -> Region {
        self.buf.clone()
    }
}

/// A registered region's store, whatever its layout.
pub(crate) type Region = Arc<Mutex<dyn ByteStore + Send>>;

/// The remote key of a registered memory region, presented by a peer with
/// one-sided operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteKey(pub(crate) u64);

/// A registered region: store + permissions, kept in the registering QP's
/// table.
pub(crate) struct Registration {
    pub mem: Region,
    /// Remote peers may WRITE. False models a window registered without
    /// remote-write permission.
    pub remote_write: bool,
    /// Optional write-watch: every remote WRITE *delivered* into this
    /// region marks `(board, tag)` — the doorbell feeding the server's poll
    /// sweeps. Dropped WRITEs (fault injection) do not mark, exactly as a
    /// lost packet leaves no trace in host memory.
    pub watch: Option<(WriteBoard, u64)>,
}

impl std::fmt::Debug for Registration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registration")
            .field("remote_write", &self.remote_write)
            .field("watch", &self.watch)
            .finish_non_exhaustive()
    }
}

/// A shared set of "this region was remotely written" marks, deduplicated
/// by tag until drained.
///
/// In real Precursor the trusted poller discovers new requests only by
/// scanning rings; at 100k connected clients an all-rings scan per sweep is
/// the dominant cost even when almost every ring is idle. The simulator's
/// write board plays the role of the RNIC's observable side effect (bytes
/// landing in host memory): regions registered with a watch push their tag
/// here on every delivered remote WRITE, and the server's sweep drains the
/// board instead of touching idle rings. Determinism: marks are recorded in
/// delivery order, which is itself deterministic under the seeded
/// simulation.
///
/// Tags are small dense indices (the server uses client ids): the board
/// keeps one bit per tag, so a mark and a drain cost O(1) per marked tag,
/// never a hash or a pass over the idle ones.
///
/// # Example
///
/// ```
/// use precursor_rdma::mr::WriteBoard;
///
/// let board = WriteBoard::new();
/// board.mark(7);
/// board.mark(3);
/// board.mark(7); // deduplicated until drained
/// let mut marked = Vec::new();
/// board.drain(&mut marked);
/// assert_eq!(marked, vec![7, 3]);
/// assert!(board.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBoard {
    inner: Arc<Mutex<BoardInner>>,
}

#[derive(Debug, Default)]
struct BoardInner {
    // Marked tags in first-mark order, and one bit per tag (set while the
    // tag is in `order`).
    order: Vec<u64>,
    queued: Vec<u64>,
}

fn tag_bit(tag: u64) -> (usize, u64) {
    ((tag / 64) as usize, 1 << (tag % 64))
}

impl WriteBoard {
    /// Creates an empty board.
    pub fn new() -> WriteBoard {
        WriteBoard::default()
    }

    /// Records that the region tagged `tag` was written. Idempotent until
    /// the next [`drain`](Self::drain).
    pub fn mark(&self, tag: u64) {
        let mut guard = plock(&self.inner);
        let b = &mut *guard;
        let (word, bit) = tag_bit(tag);
        if word >= b.queued.len() {
            b.queued.resize(word + 1, 0);
        }
        if b.queued[word] & bit == 0 {
            b.queued[word] |= bit;
            b.order.push(tag);
        }
    }

    /// Replaces the contents of `out` with every mark accumulated since the
    /// last drain, in first-mark order. The board keeps `out`'s old
    /// allocation for the next marks, so a caller that drains into the same
    /// buffer every sweep allocates nothing in steady state.
    pub fn drain(&self, out: &mut Vec<u64>) {
        let mut guard = plock(&self.inner);
        let b = &mut *guard;
        out.clear();
        std::mem::swap(&mut b.order, out);
        for &tag in out.iter() {
            let (word, bit) = tag_bit(tag);
            b.queued[word] &= !bit;
        }
    }

    /// Whether no marks are pending.
    pub fn is_empty(&self) -> bool {
        plock(&self.inner).order.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let m = Memory::zeroed(64);
        m.write(10, b"abc");
        assert_eq!(m.read(10, 3), b"abc");
        assert_eq!(m.read(0, 1), [0]);
        m.write(8, &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(m.read_u64(8), 0x0102_0304_0506_0708);
    }

    #[test]
    fn clones_share_storage() {
        let a = Memory::zeroed(16);
        let b = a.clone();
        b.write(0, &[42]);
        assert_eq!(a.read(0, 1), [42]);
    }

    #[test]
    fn grow_preserves_contents() {
        let m = Memory::zeroed(8);
        m.write(0, &[1, 2, 3]);
        m.grow(8);
        assert_eq!(m.len(), 16);
        assert_eq!(m.read(0, 3), [1, 2, 3]);
        assert_eq!(m.read(8, 8), [0u8; 8]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Memory::zeroed(4).write(2, &[0; 4]);
    }

    #[test]
    fn board_marks_again_after_a_drain() {
        let board = WriteBoard::new();
        let mut marked = Vec::new();
        for tag in [1000, 0, 63, 64, 1000] {
            board.mark(tag);
        }
        board.drain(&mut marked);
        assert_eq!(marked, vec![1000, 0, 63, 64]);
        board.drain(&mut marked);
        assert!(marked.is_empty());
        board.mark(63);
        board.mark(1000);
        board.drain(&mut marked);
        assert_eq!(marked, vec![63, 1000]);
    }

    #[test]
    fn with_mut_allows_in_place_ops() {
        let m = Memory::zeroed(8);
        m.with_mut(|b| b[7] = 9);
        assert_eq!(m.with(|b| b[7]), 9);
    }
}
