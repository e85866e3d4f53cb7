//! Reliable-connected queue pairs.
//!
//! A [`QueuePair`] models one end of an RC connection. A one-sided WRITE
//! lands directly in the peer's registered memory without involving the
//! peer's CPU — the property Precursor exploits so payloads land in server
//! memory with zero server cycles (§2.2, §3.5). Two-sided SEND/RECV queue
//! messages for the peer to receive (the replication and migration links).
//! Completions are reported through a per-QP completion queue with
//! *selective signaling*: only work requests posted with `signaled = true`
//! generate completions (§4, "RDMA optimizations").
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

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use precursor_storage::sparse::ByteStore;

use crate::faults::{FaultInjector, WriteVerdict};
use crate::mr::{Memory, Region, Registration, RemoteKey, WriteBoard};
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

// A verb's one bounds check: `offset..offset + len` lies inside a region of
// `region_len` bytes, its end computed without overflow.
fn check_bounds(region_len: usize, offset: usize, len: usize) -> Result<(), RdmaError> {
    match offset.checked_add(len) {
        Some(end) if end <= region_len => Ok(()),
        _ => Err(RdmaError::OutOfBounds),
    }
}

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
    /// Two-sided sends posted.
    pub sends: u64,
    /// Bytes moved by this endpoint's posts.
    pub bytes: u64,
    /// Posts that qualified for inline transmission.
    pub inline_posts: u64,
}

// Index of endpoint *A* in `Shared::ends`; *B* is `1 - A`. *A* originates
// `AtoB` fault events.
const A: usize = 0;

// One endpoint's half of the connection state.
#[derive(Debug, Default)]
struct Endpoint {
    // SENDs queued for this endpoint, and the RECVs it has posted.
    inbox: VecDeque<Vec<u8>>,
    recvs: usize,
    cq: VecDeque<WorkCompletion>,
    stats: QpStats,
    // Work-request ids are the post count, so the WRs not yet retired by a
    // signaled completion are exactly `retired + 1..=stats.posts`; they
    // flush as FlushErr when the QP errors.
    retired: u64,
}

// Everything both endpoints touch, under one lock: a post validates,
// delivers and accounts in a single acquisition.
#[derive(Debug, Default)]
struct Shared {
    // Registered regions of both endpoints, indexed by `rkey - 1` and
    // tagged with the registering endpoint.
    regs: Vec<(usize, Registration)>,
    ends: [Endpoint; 2],
    error: bool,
}

impl Shared {
    // The region `key` names at endpoint `owner`, if the connection is up.
    fn region(&self, owner: usize, key: RemoteKey) -> Result<&Registration, RdmaError> {
        if self.error {
            return Err(RdmaError::QpError);
        }
        let slot = key.0.checked_sub(1).and_then(|i| self.regs.get(i as usize));
        match slot {
            Some((at, reg)) if *at == owner => Ok(reg),
            _ => Err(RdmaError::InvalidRkey),
        }
    }
}

/// One endpoint of a reliable connection.
#[derive(Debug, Clone)]
pub struct QueuePair {
    shared: Arc<Mutex<Shared>>,
    // This endpoint's index into `Shared::ends`.
    me: usize,
    inline_max: usize,
    faults: Option<Arc<Mutex<FaultInjector>>>,
}

/// Creates a connected pair of queue pairs with the given inline cutoff
/// (912 B on the paper's ConnectX-3, §4).
pub fn connect_pair(inline_max: usize) -> (QueuePair, QueuePair) {
    make_pair(inline_max, None)
}

/// Creates a connected pair whose one-sided WRITEs flow through a shared
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
    let a = QueuePair {
        shared: Arc::new(Mutex::new(Shared::default())),
        me: A,
        inline_max,
        faults,
    };
    let b = QueuePair {
        me: 1 - A,
        ..a.clone()
    };
    (a, b)
}

impl QueuePair {
    /// Registers `mem` at this endpoint, permitting remote writes when
    /// `remote_write`. The returned key is what the peer presents with
    /// one-sided ops. The region may be dense or sparse: the verbs see only
    /// its bytes.
    pub fn register<S: ByteStore + Send + 'static>(
        &self,
        mem: Memory<S>,
        remote_write: bool,
    ) -> RemoteKey {
        self.register_inner(mem.region(), remote_write, None)
    }

    /// Like [`register`](Self::register), with a write-watch attached:
    /// every remote WRITE delivered into the region marks `tag` on `board`
    /// (the doorbell feeding the server's poll sweeps). WRITEs dropped by
    /// fault injection leave no mark — exactly like a lost packet.
    pub fn register_watched<S: ByteStore + Send + 'static>(
        &self,
        mem: Memory<S>,
        remote_write: bool,
        board: WriteBoard,
        tag: u64,
    ) -> RemoteKey {
        self.register_inner(mem.region(), remote_write, Some((board, tag)))
    }

    fn register_inner(
        &self,
        mem: Region,
        remote_write: bool,
        watch: Option<(WriteBoard, u64)>,
    ) -> RemoteKey {
        let mut s = plock(&self.shared);
        let reg = Registration {
            mem,
            remote_write,
            watch,
        };
        s.regs.push((self.me, reg));
        RemoteKey(s.regs.len() as u64)
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
        let mut s = plock(&self.shared);
        s.error = false;
        let end = &mut s.ends[self.me];
        end.retired = end.stats.posts;
        end.inbox.clear();
        end.recvs = 0;
        end.cq.clear();
    }

    /// Work requests this endpoint posted that no signaled completion,
    /// flush or [`reset`](Self::reset) has retired yet — what the next
    /// flush would report.
    pub fn unretired(&self) -> u64 {
        let s = plock(&self.shared);
        let end = &s.ends[self.me];
        end.stats.posts - end.retired
    }

    fn is_a(&self) -> bool {
        self.me == A
    }

    fn peer(&self) -> usize {
        1 - self.me
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
        let mut guard = plock(&self.shared);
        let s = &mut *guard;
        let reg = s.region(self.peer(), key)?;
        if !reg.remote_write {
            return Err(RdmaError::AccessDenied);
        }
        // Validate, then inject, then deliver, under the region's lock.
        let verdict = {
            let mut mem = plock(&reg.mem);
            check_bounds(mem.len(), offset, data.len())?;
            match &self.faults {
                None => {
                    mem.write_at(offset, data);
                    WriteVerdict::Deliver
                }
                Some(faults) => {
                    // Only a fault injector rewrites the bytes in flight, so
                    // only then are they staged.
                    let mut staged = data.to_vec();
                    let verdict = plock(faults).on_write(self.is_a(), &mut staged);
                    if verdict == WriteVerdict::Deliver {
                        mem.write_at(offset, &staged);
                    }
                    verdict
                }
            }
        };
        match verdict {
            WriteVerdict::Deliver => {
                if let Some((board, tag)) = &reg.watch {
                    board.mark(*tag);
                }
            }
            WriteVerdict::Drop => {}
            WriteVerdict::Error => {
                s.error = true;
                return Err(RdmaError::QpError);
            }
        }
        let inline = data.len() <= self.inline_max;
        self.account(s, data.len(), inline, signaled, WrKind::Write);
        Ok(data.len())
    }

    /// Posts a RECV buffer (capacity bookkeeping only — the model stores
    /// message bytes directly).
    pub fn post_recv(&mut self) {
        plock(&self.shared).ends[self.me].recvs += 1;
    }

    /// Posts a two-sided SEND. Fails with RNR if the peer posted no RECV.
    ///
    /// # Errors
    ///
    /// [`RdmaError::ReceiverNotReady`] or [`RdmaError::QpError`].
    pub fn post_send(&mut self, data: &[u8], signaled: bool) -> Result<(), RdmaError> {
        let mut guard = plock(&self.shared);
        let s = &mut *guard;
        if s.error {
            return Err(RdmaError::QpError);
        }
        let peer = &mut s.ends[self.peer()];
        if peer.recvs == 0 {
            return Err(RdmaError::ReceiverNotReady);
        }
        peer.recvs -= 1;
        peer.inbox.push_back(data.to_vec());
        let inline = data.len() <= self.inline_max;
        self.account(s, data.len(), inline, signaled, WrKind::Send);
        Ok(())
    }

    /// Receives the next SEND from the peer, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        plock(&self.shared).ends[self.me].inbox.pop_front()
    }

    /// Polls up to `max` completions from this endpoint's CQ. If the QP is
    /// in the error state, every unretired work request is first flushed
    /// into the CQ as a [`WcStatus::FlushErr`] completion.
    pub fn poll_cq(&mut self, max: usize) -> Vec<WorkCompletion> {
        let mut out = Vec::new();
        self.poll_cq_into(max, &mut out);
        out
    }

    /// [`poll_cq`](Self::poll_cq) appending to a buffer the caller keeps
    /// and reuses; returns how many completions it appended.
    pub fn poll_cq_into(&mut self, max: usize, out: &mut Vec<WorkCompletion>) -> usize {
        let mut guard = plock(&self.shared);
        let s = &mut *guard;
        let end = &mut s.ends[self.me];
        if s.error {
            end.cq.extend(
                (end.retired + 1..=end.stats.posts).map(|wr_id| WorkCompletion {
                    wr_id,
                    bytes: 0,
                    inline: false,
                    status: WcStatus::FlushErr,
                }),
            );
            end.retired = end.stats.posts;
        }
        let n = max.min(end.cq.len());
        out.extend(end.cq.drain(..n));
        n
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> QpStats {
        plock(&self.shared).ends[self.me].stats
    }

    // Counts one successful post at this endpoint; its work-request id is
    // the new post count. A signaled post completes, retiring this WR and
    // every unsignaled one posted before it.
    fn account(&self, s: &mut Shared, bytes: usize, inline: bool, signaled: bool, kind: WrKind) {
        let end = &mut s.ends[self.me];
        let st = &mut end.stats;
        st.posts += 1;
        st.bytes += bytes as u64;
        match kind {
            WrKind::Write => st.writes += 1,
            WrKind::Send => st.sends += 1,
        }
        if inline {
            st.inline_posts += 1;
        }
        let wr_id = st.posts;
        if signaled {
            end.retired = wr_id;
            end.cq.push_back(WorkCompletion {
                wr_id,
                bytes,
                inline,
                status: WcStatus::Success,
            });
        }
    }
}

#[derive(Clone, Copy)]
enum WrKind {
    Write,
    Send,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, FaultDir, FaultPlan, FaultSite};

    #[test]
    fn one_sided_write_reaches_peer_memory() {
        let (mut a, b) = connect_pair(912);
        let mem = Memory::zeroed(128);
        let key = b.register(mem.clone(), true);
        assert_eq!(a.post_write(key, 8, b"payload", false).unwrap(), 7);
        assert_eq!(mem.read(8, 7), b"payload");
    }

    #[test]
    fn write_to_unwritable_region_denied() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), false);
        assert_eq!(
            a.post_write(key, 0, b"x", false),
            Err(RdmaError::AccessDenied)
        );
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
        let own = a.register(Memory::zeroed(16), true);
        assert_eq!(
            a.post_write(own, 0, b"x", false),
            Err(RdmaError::InvalidRkey),
            "a key names a region at the peer, not at the poster"
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
    fn unsignaled_posts_flush_once_and_hold_no_ledger() {
        const POSTS: u64 = 100_000;
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        for _ in 0..POSTS {
            a.post_write(key, 0, b"x", false).unwrap();
        }
        assert_eq!(a.unretired(), POSTS);
        assert_eq!(b.unretired(), 0, "the peer posted nothing");
        assert!(a.poll_cq(16).is_empty());
        a.set_error();
        let flushed = a.poll_cq(usize::MAX);
        assert!(flushed.iter().all(|c| c.status == WcStatus::FlushErr));
        let ids: Vec<u64> = flushed.iter().map(|c| c.wr_id).collect();
        assert_eq!(ids, (1..=POSTS).collect::<Vec<_>>());
        assert_eq!(a.unretired(), 0);
        assert!(a.poll_cq(usize::MAX).is_empty(), "flush happens once");
    }

    #[test]
    fn signaled_completion_sets_the_retire_watermark() {
        let (mut a, b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        for i in 1..=6u64 {
            a.post_write(key, 0, b"x", i == 4).unwrap();
        }
        let done = a.poll_cq(16);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].wr_id, 4);
        assert_eq!(a.unretired(), 2, "posts 5 and 6 follow the completion");
        a.set_error();
        let flushed: Vec<u64> = a.poll_cq(16).iter().map(|c| c.wr_id).collect();
        assert_eq!(flushed, vec![5, 6]);
    }

    #[test]
    fn reset_retires_everything_posted_before_it() {
        let (mut a, mut b) = connect_pair(912);
        let key = b.register(Memory::zeroed(64), true);
        for _ in 0..3 {
            a.post_write(key, 0, b"x", false).unwrap();
        }
        a.set_error();
        a.reset();
        b.reset();
        assert_eq!(a.unretired(), 0);
        assert!(a.poll_cq(16).is_empty());
        a.post_write(key, 0, b"y", false).unwrap();
        a.set_error();
        let flushed = a.poll_cq(16);
        assert_eq!(flushed.len(), 1, "only the post after the reset flushes");
        assert_eq!(flushed[0].wr_id, 4, "ids keep counting across a reset");
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
}
