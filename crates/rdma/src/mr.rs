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

use crate::plock;

/// A shared, growable byte buffer.
///
/// Cloning shares the underlying storage (like two views of the same DRAM).
#[derive(Debug, Clone)]
pub struct Memory {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl Memory {
    /// Allocates `len` zeroed bytes.
    pub fn zeroed(len: usize) -> Memory {
        Memory {
            buf: Arc::new(Mutex::new(vec![0u8; len])),
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

    /// Copies `data` into the buffer at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&self, offset: usize, data: &[u8]) {
        let mut buf = plock(&self.buf);
        buf[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let buf = plock(&self.buf);
        buf[offset..offset + len].to_vec()
    }

    /// Reads the little-endian `u64` at `offset` — a credit word — without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let buf = plock(&self.buf);
        u64::from_le_bytes(buf[offset..offset + 8].try_into().expect("8 bytes"))
    }

    /// Runs `f` with mutable access to the raw bytes (local CPU access —
    /// rings and pools operate through this).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        f(&mut plock(&self.buf))
    }

    /// Runs `f` with shared access to the raw bytes.
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&plock(&self.buf))
    }

    /// Extends the buffer by `extra` zero bytes (the grown payload pool).
    pub fn grow(&self, extra: usize) {
        let mut buf = plock(&self.buf);
        let new_len = buf.len() + extra;
        buf.resize(new_len, 0);
    }

    /// Whether two handles share storage.
    pub fn same_as(&self, other: &Memory) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }
}

/// The remote key of a registered memory region, presented by a peer with
/// one-sided operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RemoteKey(pub(crate) u64);

/// A registered region: buffer + permissions, kept in the registering QP's
/// table.
#[derive(Debug)]
pub(crate) struct Registration {
    pub mem: Memory,
    /// Remote peers may WRITE (and READ). False models registration of
    /// read-only windows.
    pub remote_write: bool,
    /// Optional write-watch: every remote WRITE *delivered* into this
    /// region marks `(board, tag)` — the doorbell feeding the server's poll
    /// sweeps. Dropped WRITEs (fault injection) do not mark, exactly as a
    /// lost packet leaves no trace in host memory.
    pub watch: Option<(WriteBoard, u64)>,
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
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Memory::zeroed(16)));
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
