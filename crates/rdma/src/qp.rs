//! Reliable-connected queue pairs.
//!
//! A [`QueuePair`] models one end of an RC connection. One-sided WRITE/READ
//! operate directly on the peer's registered memory without involving the
//! peer's CPU — the property Precursor exploits so payloads land in server
//! memory with zero server cycles (§2.2, §3.5). Two-sided SEND/RECV queue
//! messages for the peer to receive. Completions are reported through a
//! per-QP completion queue with *selective signaling*: only work requests
//! posted with `signaled = true` generate completions (§4, "RDMA
//! optimizations").
//!
//! Error semantics follow the verbs model: once a QP is in the error state
//! (peer revocation via [`set_error`](QueuePair::set_error), or an injected
//! fault), posting fails with [`RdmaError::QpError`] and the next
//! [`poll_cq`](QueuePair::poll_cq) drains every unretired work request as a
//! [`WcStatus::FlushErr`] completion — the IBV_WC_WR_FLUSH_ERR flush that
//! lets a client distinguish "QP died" from "reply still in flight".
//! [`reset`](QueuePair::reset) returns an errored endpoint to service, after
//! which the connection must be re-established at the protocol layer
//! (re-attestation in Precursor).

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::faults::{FaultInjector, FaultSite, WriteVerdict};
use crate::mr::{Memory, Registration, RemoteKey, WriteBoard};
use crate::plock;

/// Errors from posting verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RdmaError {
    /// The remote key is unknown at the peer.
    InvalidRkey,
    /// The region does not permit the requested access.
    AccessDenied,
    /// The access falls outside the registered buffer.
    OutOfBounds,
    /// SEND posted but the peer has no RECV buffer (RNR in real RC).
    ReceiverNotReady,
    /// The QP has been transitioned to the error state (revoked client).
    QpError,
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RdmaError::InvalidRkey => "invalid remote key",
            RdmaError::AccessDenied => "remote access denied",
            RdmaError::OutOfBounds => "access out of bounds",
            RdmaError::ReceiverNotReady => "receiver not ready",
            RdmaError::QpError => "queue pair in error state",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RdmaError {}

/// Completion status of a polled work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WcStatus {
    /// The work request completed successfully.
    #[default]
    Success,
    /// The work request was flushed when the QP entered the error state
    /// (IBV_WC_WR_FLUSH_ERR).
    FlushErr,
}

/// A completed work request, as polled from the completion queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkCompletion {
    /// Caller-assigned work request id.
    pub wr_id: u64,
    /// Bytes transferred (zero for flush errors).
    pub bytes: usize,
    /// Whether the message was sent inline (no DMA read of the source).
    pub inline: bool,
    /// Completion status.
    pub status: WcStatus,
}

/// Transfer statistics of one queue pair endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpStats {
    /// Work requests posted (all kinds).
    pub posts: u64,
    /// One-sided writes posted.
    pub writes: u64,
    /// One-sided reads posted.
    pub reads: u64,
    /// Two-sided sends posted.
    pub sends: u64,
    /// One-sided atomics posted.
    pub atomics: u64,
    /// Bytes moved by this endpoint's posts.
    pub bytes: u64,
    /// Posts that qualified for inline transmission.
    pub inline_posts: u64,
}

#[derive(Debug, Default)]
struct Shared {
    // Registered regions of each side, keyed by rkey.
    regs_a: HashMap<u64, Registration>,
    regs_b: HashMap<u64, Registration>,
    // SEND queues (a→b and b→a) and posted RECV buffers.
    msgs_to_a: VecDeque<Vec<u8>>,
    msgs_to_b: VecDeque<Vec<u8>>,
    recvs_a: usize,
    recvs_b: usize,
    // Work requests posted but not yet retired by a signaled completion;
    // flushed as FlushErr when the QP errors.
    pending_a: Vec<u64>,
    pending_b: Vec<u64>,
    next_rkey: u64,
    error: bool,
}

/// One endpoint of a reliable connection.
#[derive(Debug, Clone)]
pub struct QueuePair {
    shared: Arc<Mutex<Shared>>,
    is_a: bool,
    inline_max: usize,
    cq: Arc<Mutex<VecDeque<WorkCompletion>>>,
    stats: Arc<Mutex<QpStats>>,
    faults: Option<Arc<Mutex<FaultInjector>>>,
}

/// Creates a connected pair of queue pairs with the given inline cutoff
/// (912 B on the paper's ConnectX-3, §4).
pub fn connect_pair(inline_max: usize) -> (QueuePair, QueuePair) {
    make_pair(inline_max, None)
}

/// Creates a connected pair whose traffic flows through a shared
/// [`FaultInjector`]. Endpoint *A* (the first element) originates
/// `AtoB` events.
pub fn connect_pair_faulty(
    inline_max: usize,
    faults: Arc<Mutex<FaultInjector>>,
) -> (QueuePair, QueuePair) {
    make_pair(inline_max, Some(faults))
}

fn make_pair(
    inline_max: usize,
    faults: Option<Arc<Mutex<FaultInjector>>>,
) -> (QueuePair, QueuePair) {
    let shared = Arc::new(Mutex::new(Shared::default()));
    let a = QueuePair {
        shared: shared.clone(),
        is_a: true,
        inline_max,
        cq: Arc::new(Mutex::new(VecDeque::new())),
        stats: Arc::new(Mutex::new(QpStats::default())),
        faults: faults.clone(),
    };
    let b = QueuePair {
        shared,
        is_a: false,
        inline_max,
        cq: Arc::new(Mutex::new(VecDeque::new())),
        stats: Arc::new(Mutex::new(QpStats::default())),
        faults,
    };
    (a, b)
}

impl QueuePair {
    /// Registers `mem` at this endpoint, permitting remote writes when
    /// `remote_write` (remote reads are always allowed in the model). The
    /// returned key is what the peer presents with one-sided ops.
    pub fn register(&self, mem: Memory, remote_write: bool) -> RemoteKey {
        self.register_inner(mem, remote_write, None)
    }

    /// Like [`register`](Self::register), with a write-watch attached:
    /// every remote WRITE delivered into the region marks `tag` on `board`
    /// (the doorbell feeding the server's poll sweeps). WRITEs dropped by
    /// fault injection leave no mark — exactly like a lost packet.
    pub fn register_watched(
        &self,
        mem: Memory,
        remote_write: bool,
        board: WriteBoard,
        tag: u64,
    ) -> RemoteKey {
        self.register_inner(mem, remote_write, Some((board, tag)))
    }

    fn register_inner(
        &self,
        mem: Memory,
        remote_write: bool,
        watch: Option<(WriteBoard, u64)>,
    ) -> RemoteKey {
        let mut s = plock(&self.shared);
        s.next_rkey += 1;
        let key = s.next_rkey;
        let regs = if self.is_a {
            &mut s.regs_a
        } else {
            &mut s.regs_b
        };
        regs.insert(
            key,
            Registration {
                mem,
                remote_write,
                watch,
            },
        );
        RemoteKey(key)
    }

    /// Deregisters a region (subsequent accesses fail with `InvalidRkey`).
    pub fn deregister(&self, key: RemoteKey) {
        let mut s = plock(&self.shared);
        let regs = if self.is_a {
            &mut s.regs_a
        } else {
            &mut s.regs_b
        };
        regs.remove(&key.0);
    }

    /// Transitions the connection to the error state — the paper's client
    /// revocation mechanism ("RDMA queue pair states transition", §3.9).
    /// Unretired work requests surface as [`WcStatus::FlushErr`] completions
    /// at each endpoint's next [`poll_cq`](Self::poll_cq).
    pub fn set_error(&self) {
        plock(&self.shared).error = true;
    }

    /// Whether the connection is in the error state.
    pub fn is_error(&self) -> bool {
        plock(&self.shared).error
    }

    /// Returns an errored endpoint to service (verbs ERR→RESET→RTS). Clears
    /// the shared error state, this endpoint's unretired work requests,
    /// inbound message queue, posted RECVs and completion queue.
    /// Registrations survive (memory regions outlive QP state transitions).
    /// Call on both endpoints; the second call is idempotent.
    pub fn reset(&mut self) {
        {
            let mut s = plock(&self.shared);
            s.error = false;
            if self.is_a {
                s.pending_a.clear();
                s.msgs_to_a.clear();
                s.recvs_a = 0;
            } else {
                s.pending_b.clear();
                s.msgs_to_b.clear();
                s.recvs_b = 0;
            }
        }
        plock(&self.cq).clear();
    }

    fn peer_registration(&self, key: RemoteKey) -> Result<Registration, RdmaError> {
        let s = plock(&self.shared);
        if s.error {
            return Err(RdmaError::QpError);
        }
        let regs = if self.is_a { &s.regs_b } else { &s.regs_a };
        regs.get(&key.0).cloned().ok_or(RdmaError::InvalidRkey)
    }

    /// Posts a one-sided WRITE of `data` into the peer region `key` at
    /// `offset`. The peer CPU is not involved. Returns the bytes written.
    ///
    /// Under fault injection the write may be silently lost or bit-flipped
    /// in flight — posting still reports success, as a real RNIC would, and
    /// only higher-layer integrity checks or timeouts can tell.
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidRkey`], [`RdmaError::AccessDenied`],
    /// [`RdmaError::OutOfBounds`] or [`RdmaError::QpError`].
    pub fn post_write(
        &mut self,
        key: RemoteKey,
        offset: usize,
        data: &[u8],
        signaled: bool,
    ) -> Result<usize, RdmaError> {
        let reg = self.peer_registration(key)?;
        if !reg.remote_write {
            return Err(RdmaError::AccessDenied);
        }
        if offset + data.len() > reg.mem.len() {
            return Err(RdmaError::OutOfBounds);
        }
        // Only a fault injector rewrites the bytes in flight, so only then
        // are they staged.
        let mut deliver = true;
        let staged;
        let payload = if let Some(f) = self.faults.clone() {
            let mut buf = data.to_vec();
            let verdict = {
                let mut inj = plock(&f);
                let v = inj.on_write(self.is_a, &mut buf);
                inj.take_forced_error();
                v
            };
            match verdict {
                WriteVerdict::Deliver => {}
                WriteVerdict::Drop => deliver = false,
                WriteVerdict::Error => {
                    plock(&self.shared).error = true;
                    return Err(RdmaError::QpError);
                }
            }
            staged = buf;
            &staged[..]
        } else {
            data
        };
        if deliver {
            reg.mem.write(offset, payload);
            if let Some((board, tag)) = &reg.watch {
                board.mark(*tag);
            }
        }
        let inline = data.len() <= self.inline_max;
        self.account(data.len(), inline, signaled, WrKind::Write);
        Ok(data.len())
    }

    /// Posts a one-sided READ of `len` bytes from the peer region.
    ///
    /// # Errors
    ///
    /// Same classes as [`post_write`](Self::post_write) (reads are always
    /// permitted on registered regions in the model).
    pub fn post_read(
        &mut self,
        key: RemoteKey,
        offset: usize,
        len: usize,
        signaled: bool,
    ) -> Result<Vec<u8>, RdmaError> {
        let reg = self.peer_registration(key)?;
        if offset + len > reg.mem.len() {
            return Err(RdmaError::OutOfBounds);
        }
        let data = reg.mem.read(offset, len);
        self.account(len, false, signaled, WrKind::Read);
        Ok(data)
    }

    /// Posts a one-sided ATOMIC fetch-and-add on an 8-byte remote word,
    /// returning the value *before* the addition. RDMA atomics execute in
    /// the RNIC, serialized per remote word (systems like DARE build
    /// replication on them; Precursor itself needs only WRITEs).
    ///
    /// # Errors
    ///
    /// Same classes as [`post_write`](Self::post_write); the offset must be
    /// 8-byte aligned or [`RdmaError::OutOfBounds`] is returned.
    pub fn post_fetch_add(
        &mut self,
        key: RemoteKey,
        offset: usize,
        add: u64,
        signaled: bool,
    ) -> Result<u64, RdmaError> {
        let reg = self.peer_registration(key)?;
        if !reg.remote_write {
            return Err(RdmaError::AccessDenied);
        }
        if !offset.is_multiple_of(8) || offset + 8 > reg.mem.len() {
            return Err(RdmaError::OutOfBounds);
        }
        let old = reg.mem.with_mut(|buf| {
            let old = u64::from_le_bytes(buf[offset..offset + 8].try_into().expect("8 bytes"));
            buf[offset..offset + 8].copy_from_slice(&old.wrapping_add(add).to_le_bytes());
            old
        });
        self.account(8, false, signaled, WrKind::Atomic);
        Ok(old)
    }

    /// Posts a one-sided ATOMIC compare-and-swap on an 8-byte remote word,
    /// returning the value found (the swap happened iff it equals
    /// `expected`).
    ///
    /// # Errors
    ///
    /// Same classes as [`post_fetch_add`](Self::post_fetch_add).
    pub fn post_compare_swap(
        &mut self,
        key: RemoteKey,
        offset: usize,
        expected: u64,
        desired: u64,
        signaled: bool,
    ) -> Result<u64, RdmaError> {
        let reg = self.peer_registration(key)?;
        if !reg.remote_write {
            return Err(RdmaError::AccessDenied);
        }
        if !offset.is_multiple_of(8) || offset + 8 > reg.mem.len() {
            return Err(RdmaError::OutOfBounds);
        }
        let found = reg.mem.with_mut(|buf| {
            let found = u64::from_le_bytes(buf[offset..offset + 8].try_into().expect("8 bytes"));
            if found == expected {
                buf[offset..offset + 8].copy_from_slice(&desired.to_le_bytes());
            }
            found
        });
        self.account(8, false, signaled, WrKind::Atomic);
        Ok(found)
    }

    /// Posts a RECV buffer (capacity bookkeeping only — the model stores
    /// message bytes directly).
    pub fn post_recv(&mut self) {
        let mut s = plock(&self.shared);
        if self.is_a {
            s.recvs_a += 1;
        } else {
            s.recvs_b += 1;
        }
    }

    /// Posts a two-sided SEND. Fails with RNR if the peer posted no RECV.
    ///
    /// # Errors
    ///
    /// [`RdmaError::ReceiverNotReady`] or [`RdmaError::QpError`].
    pub fn post_send(&mut self, data: &[u8], signaled: bool) -> Result<(), RdmaError> {
        let frames = if let Some(f) = self.faults.clone() {
            let mut inj = plock(&f);
            let frames = inj.on_message(FaultSite::Send, self.is_a, data);
            if inj.take_forced_error() {
                drop(inj);
                plock(&self.shared).error = true;
                return Err(RdmaError::QpError);
            }
            Some(frames)
        } else {
            None
        };
        {
            let mut s = plock(&self.shared);
            if s.error {
                return Err(RdmaError::QpError);
            }
            let recvs = if self.is_a {
                &mut s.recvs_b
            } else {
                &mut s.recvs_a
            };
            if *recvs == 0 {
                return Err(RdmaError::ReceiverNotReady);
            }
            match frames {
                None => {
                    *recvs -= 1;
                    let q = if self.is_a {
                        &mut s.msgs_to_b
                    } else {
                        &mut s.msgs_to_a
                    };
                    q.push_back(data.to_vec());
                }
                Some(frames) => {
                    // Each delivered frame consumes one RECV; extras beyond
                    // the posted buffers are lost (RNR at the receiver).
                    for frame in frames {
                        let recvs = if self.is_a {
                            &mut s.recvs_b
                        } else {
                            &mut s.recvs_a
                        };
                        if *recvs == 0 {
                            break;
                        }
                        *recvs -= 1;
                        let q = if self.is_a {
                            &mut s.msgs_to_b
                        } else {
                            &mut s.msgs_to_a
                        };
                        q.push_back(frame);
                    }
                }
            }
        }
        let inline = data.len() <= self.inline_max;
        self.account(data.len(), inline, signaled, WrKind::Send);
        Ok(())
    }

    /// Receives the next SEND from the peer, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        let mut s = plock(&self.shared);
        let q = if self.is_a {
            &mut s.msgs_to_a
        } else {
            &mut s.msgs_to_b
        };
        q.pop_front()
    }

    /// Polls up to `max` completions from this endpoint's CQ. If the QP is
    /// in the error state, every unretired work request is first flushed
    /// into the CQ as a [`WcStatus::FlushErr`] completion.
    pub fn poll_cq(&mut self, max: usize) -> Vec<WorkCompletion> {
        {
            let mut s = plock(&self.shared);
            if s.error {
                let pending = if self.is_a {
                    &mut s.pending_a
                } else {
                    &mut s.pending_b
                };
                let flushed: Vec<u64> = std::mem::take(pending);
                drop(s);
                let mut cq = plock(&self.cq);
                for wr_id in flushed {
                    cq.push_back(WorkCompletion {
                        wr_id,
                        bytes: 0,
                        inline: false,
                        status: WcStatus::FlushErr,
                    });
                }
            }
        }
        let mut cq = plock(&self.cq);
        let n = max.min(cq.len());
        cq.drain(..n).collect()
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> QpStats {
        *plock(&self.stats)
    }

    /// The inline cutoff configured at connection time.
    pub fn inline_max(&self) -> usize {
        self.inline_max
    }

    fn account(&mut self, bytes: usize, inline: bool, signaled: bool, kind: WrKind) {
        let wr_id = {
            let mut st = plock(&self.stats);
            st.posts += 1;
            st.bytes += bytes as u64;
            match kind {
                WrKind::Write => st.writes += 1,
                WrKind::Read => st.reads += 1,
                WrKind::Send => st.sends += 1,
                WrKind::Atomic => st.atomics += 1,
            }
            if inline {
                st.inline_posts += 1;
            }
            st.posts
        };
        {
            let mut s = plock(&self.shared);
            let pending = if self.is_a {
                &mut s.pending_a
            } else {
                &mut s.pending_b
            };
            pending.push(wr_id);
        }
        if signaled {
            let deliver = if let Some(f) = self.faults.clone() {
                let mut inj = plock(&f);
                let deliver = inj.on_completion(self.is_a);
                if inj.take_forced_error() {
                    drop(inj);
                    plock(&self.shared).error = true;
                }
                deliver
            } else {
                true
            };
            if deliver {
                // A delivered signaled completion retires this WR and every
                // unsignaled WR posted before it.
                let mut s = plock(&self.shared);
                let pending = if self.is_a {
                    &mut s.pending_a
                } else {
                    &mut s.pending_b
                };
                pending.clear();
                drop(s);
                plock(&self.cq).push_back(WorkCompletion {
                    wr_id,
                    bytes,
                    inline,
                    status: WcStatus::Success,
                });
            }
        }
    }
}

#[derive(Clone, Copy)]
enum WrKind {
    Write,
    Read,
    Send,
    Atomic,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, FaultDir, FaultPlan};

    #[test]
    fn one_sided_write_reaches_peer_memory() {
        let (mut a, b) = connect_pair(912);
        let mem = Memory::zeroed(128);
        let key = b.register(mem.clone(), true);
        assert_eq!(a.post_write(key, 8, b"payload", false).unwrap(), 7);
        assert_eq!(mem.read(8, 7), b"payload");
    }

    #[test]
    fn one_sided_read_fetches_peer_memory() {
        let (mut a, b) = connect_pair(912);
        let mem = Memory::zeroed(128);
        mem.write(0, b"server data");
        let key = b.register(mem, true);
        assert_eq!(a.post_read(key, 0, 11, false).unwrap(), b"server data");
    }

    #[test]
    fn write_to_unwritable_region_denied() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), false);
        assert_eq!(
            a.post_write(key, 0, b"x", false),
            Err(RdmaError::AccessDenied)
        );
        // but reads still work
        assert!(a.post_read(key, 0, 4, false).is_ok());
    }

    #[test]
    fn invalid_rkey_and_bounds_checked() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(16), true);
        assert_eq!(
            a.post_write(RemoteKey(999), 0, b"x", false),
            Err(RdmaError::InvalidRkey)
        );
        assert_eq!(
            a.post_write(key, 10, &[0u8; 10], false),
            Err(RdmaError::OutOfBounds)
        );
        b.deregister(key);
        assert_eq!(
            a.post_write(key, 0, b"x", false),
            Err(RdmaError::InvalidRkey)
        );
    }

    #[test]
    fn send_recv_needs_posted_receive() {
        let (mut a, mut b) = connect_pair(912);
        assert_eq!(a.post_send(b"msg", false), Err(RdmaError::ReceiverNotReady));
        b.post_recv();
        a.post_send(b"msg", false).unwrap();
        assert_eq!(b.recv().unwrap(), b"msg");
        assert!(b.recv().is_none());
    }

    #[test]
    fn selective_signaling_controls_completions() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(1024), true);
        for i in 0..10 {
            a.post_write(key, 0, &[i], i == 9).unwrap();
        }
        let comps = a.poll_cq(16);
        assert_eq!(comps.len(), 1, "only the signaled WR completes visibly");
        assert_eq!(comps[0].bytes, 1);
        assert_eq!(comps[0].status, WcStatus::Success);
    }

    #[test]
    fn inline_accounting_uses_cutoff() {
        let (mut a, b) = connect_pair(16);
        let key = b.register(Memory::zeroed(1024), true);
        a.post_write(key, 0, &[0u8; 16], false).unwrap();
        a.post_write(key, 0, &[0u8; 17], false).unwrap();
        let st = a.stats();
        assert_eq!(st.inline_posts, 1);
        assert_eq!(st.writes, 2);
        assert_eq!(st.bytes, 33);
    }

    #[test]
    fn error_state_blocks_all_verbs() {
        let (mut a, mut b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        a.set_error();
        assert_eq!(a.post_write(key, 0, b"x", false), Err(RdmaError::QpError));
        b.post_recv();
        assert_eq!(a.post_send(b"x", false), Err(RdmaError::QpError));
    }

    #[test]
    fn errored_qp_flushes_unretired_wrs() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        a.post_write(key, 0, b"1", false).unwrap();
        a.post_write(key, 0, b"2", false).unwrap();
        a.post_write(key, 0, b"3", false).unwrap();
        assert!(a.poll_cq(16).is_empty(), "unsignaled: nothing completes");
        a.set_error();
        let comps = a.poll_cq(16);
        assert_eq!(comps.len(), 3, "all outstanding WRs flush");
        assert!(comps.iter().all(|c| c.status == WcStatus::FlushErr));
        assert!(a.poll_cq(16).is_empty(), "flush happens once");
    }

    #[test]
    fn signaled_completion_retires_prior_wrs() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        a.post_write(key, 0, b"1", false).unwrap();
        a.post_write(key, 0, b"2", true).unwrap();
        assert_eq!(a.poll_cq(16).len(), 1);
        a.set_error();
        assert!(a.poll_cq(16).is_empty(), "retired WRs do not flush");
    }

    #[test]
    fn reset_returns_qp_to_service() {
        let (mut a, mut b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        a.post_write(key, 0, b"x", false).unwrap();
        a.set_error();
        assert_eq!(a.post_write(key, 0, b"y", false), Err(RdmaError::QpError));
        let _ = a.poll_cq(16);
        a.reset();
        b.reset();
        assert!(!a.is_error());
        assert_eq!(
            a.post_write(key, 0, b"z", false).unwrap(),
            1,
            "registrations survive reset"
        );
    }

    #[test]
    fn fetch_add_returns_old_value_and_adds() {
        let (mut a, b) = connect_pair(912);
        let mem = Memory::zeroed(64);
        let key = b.register(mem.clone(), true);
        assert_eq!(a.post_fetch_add(key, 8, 5, false).unwrap(), 0);
        assert_eq!(a.post_fetch_add(key, 8, 3, false).unwrap(), 5);
        assert_eq!(u64::from_le_bytes(mem.read(8, 8).try_into().unwrap()), 8);
        assert_eq!(a.stats().atomics, 2);
    }

    #[test]
    fn compare_swap_only_on_match() {
        let (mut a, b) = connect_pair(912);
        let mem = Memory::zeroed(64);
        let key = b.register(mem.clone(), true);
        // mismatch: no swap, returns found value
        assert_eq!(a.post_compare_swap(key, 0, 7, 99, false).unwrap(), 0);
        assert_eq!(mem.read_u64(0), 0);
        // match: swap happens
        assert_eq!(a.post_compare_swap(key, 0, 0, 99, false).unwrap(), 0);
        assert_eq!(mem.read_u64(0), 99);
    }

    #[test]
    fn atomics_require_alignment_and_permission() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        assert_eq!(
            a.post_fetch_add(key, 3, 1, false),
            Err(RdmaError::OutOfBounds)
        );
        assert_eq!(
            a.post_fetch_add(key, 64, 1, false),
            Err(RdmaError::OutOfBounds)
        );
        let ro = b.register(Memory::zeroed(64), false);
        assert_eq!(
            a.post_compare_swap(ro, 0, 0, 1, false),
            Err(RdmaError::AccessDenied)
        );
    }

    #[test]
    fn stats_track_both_endpoints_independently() {
        let (mut a, mut b) = connect_pair(912);
        let key_at_b = b.register(Memory::zeroed(64), true);
        let key_at_a = a.register(Memory::zeroed(64), true);
        a.post_write(key_at_b, 0, b"one", false).unwrap();
        b.post_write(key_at_a, 0, b"twotwo", false).unwrap();
        assert_eq!(a.stats().bytes, 3);
        assert_eq!(b.stats().bytes, 6);
    }

    #[test]
    fn injected_drop_loses_write_silently() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 1);
        let inj = FaultInjector::shared(plan, 1);
        let (mut a, b) = connect_pair_faulty(912, inj.clone());
        let mem = Memory::zeroed(64);
        let key = b.register(mem.clone(), true);
        assert_eq!(
            a.post_write(key, 0, b"lost", false).unwrap(),
            4,
            "post reports success"
        );
        assert_eq!(mem.read(0, 4), [0u8; 4], "bytes never landed");
        assert_eq!(a.post_write(key, 0, b"sent", false).unwrap(), 4);
        assert_eq!(mem.read(0, 4), b"sent");
        assert_eq!(plock(&inj).injected(), 1);
    }

    #[test]
    fn injected_corruption_flips_delivered_bits() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::Any, FaultAction::Corrupt, 1);
        let (mut a, b) = connect_pair_faulty(912, FaultInjector::shared(plan, 2));
        let mem = Memory::zeroed(64);
        let key = b.register(mem.clone(), true);
        a.post_write(key, 0, &[0u8; 32], false).unwrap();
        let landed = mem.read(0, 32);
        let flipped: u32 = landed.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
    }

    #[test]
    fn injected_qp_error_fails_post_and_flushes() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::Any, FaultAction::QpError, 2);
        let (mut a, b) = connect_pair_faulty(912, FaultInjector::shared(plan, 3));
        let key = b.register(Memory::zeroed(64), true);
        a.post_write(key, 0, b"ok", false).unwrap();
        assert_eq!(
            a.post_write(key, 0, b"boom", false),
            Err(RdmaError::QpError)
        );
        assert!(a.is_error());
        let comps = a.poll_cq(16);
        assert_eq!(comps.len(), 1, "the first (unretired) WR flushes");
        assert_eq!(comps[0].status, WcStatus::FlushErr);
    }

    #[test]
    fn injected_completion_drop_loses_signal() {
        let plan =
            FaultPlan::none().rule(FaultSite::Completion, FaultDir::AtoB, FaultAction::Drop, 1);
        let (mut a, b) = connect_pair_faulty(912, FaultInjector::shared(plan, 4));
        let key = b.register(Memory::zeroed(64), true);
        a.post_write(key, 0, b"x", true).unwrap();
        assert!(a.poll_cq(16).is_empty(), "completion was dropped");
        a.post_write(key, 0, b"y", true).unwrap();
        assert_eq!(a.poll_cq(16).len(), 1, "later completions unaffected");
    }
}
