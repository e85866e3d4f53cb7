//! The virtual-time event queue: a hierarchical timing wheel with O(1)
//! schedule and pop.
//!
//! The closed-loop drivers process *tokens* (e.g. "client 7 issues its next
//! operation") in virtual-time order, one pending token per client. A binary
//! heap makes every schedule and pop O(log n) in the number of pending
//! tokens — measurable once runs simulate 100 k clients. [`EventQueue`] is
//! the classic hierarchical timer wheel instead: `LEVELS` (7) levels of 64
//! slots each, where a level-*l* slot spans `64^l` ticks (1 tick = 1 ns of
//! virtual time). Scheduling hashes the deadline into the lowest level whose
//! aligned window contains it; popping scans a per-level occupancy bitmap
//! with `trailing_zeros` and lazily cascades higher-level slots down as
//! virtual time advances.
//!
//! # Determinism contract
//!
//! The ordering specification is the `BinaryHeap`-backed reference queue in
//! `tests/wheel_equivalence.rs`: the suite replays random schedules through
//! both and requires the **exact** same `(time, token)` pop sequence, so
//! identical seeds always produce identical schedules:
//!
//! * ties at equal times break FIFO by global insertion sequence;
//! * the scheduler draws no randomness and inspects no tokens;
//! * events beyond the top-level horizon (or scheduled in the past) sit in a
//!   small `(time, seq)`-ordered overflow heap that is compared against the
//!   wheel's earliest entry on every pop, so far-future events re-enter the
//!   total order at exactly the right position.
//!
//! FIFO-at-equal-times holds structurally: level-0 slots are one tick wide,
//! so every entry in a slot shares one timestamp and the slot's `VecDeque`
//! preserves insertion order; cascades re-append entries in stored order and
//! only ever move them to lower levels, and the placement invariant (every
//! entry sits at the *lowest* level whose aligned window contains it, given
//! the current virtual time) guarantees a later push of an equal deadline
//! appends behind — never in front of — an earlier one.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Nanos;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth. The horizon is `64^LEVELS` ns ≈ 73 virtual minutes;
/// deadlines beyond it overflow into the ordered side heap.
const LEVELS: usize = 7;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    token: T,
}

// Ordering for the overflow heap only: (time, seq), token ignored.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A time-ordered queue of tokens of type `T`.
///
/// Same pop sequence as the heap-backed reference queue in
/// `tests/wheel_equivalence.rs`; see the module docs for the determinism
/// contract.
///
/// # Example
///
/// ```
/// use precursor_sim::engine::EventQueue;
/// use precursor_sim::time::Nanos;
///
/// let mut q = EventQueue::new();
/// q.push(Nanos(20), "b");
/// q.push(Nanos(10), "a");
/// assert_eq!(q.pop(), Some((Nanos(10), "a")));
/// assert_eq!(q.pop(), Some((Nanos(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// `slots[l][i]` holds entries whose deadline hashes to slot `i` of
    /// level `l`; level-0 slots are one tick wide, so a slot is one
    /// timestamp and FIFO order within it is FIFO order at that time.
    slots: Vec<Vec<VecDeque<Entry<T>>>>,
    /// One occupancy bit per slot per level (`trailing_zeros` scan).
    occupied: [u64; LEVELS],
    /// Current virtual time in ticks; only ever advances.
    cur: u64,
    /// Global insertion sequence — the FIFO tie-break.
    seq: u64,
    len: usize,
    /// Entries beyond the horizon or scheduled in the past, ordered by
    /// `(time, seq)` and merged back on every pop.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue anchored at virtual time zero.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            cur: 0,
            seq: 0,
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules `token` at virtual time `at`. O(1).
    pub fn push(&mut self, at: Nanos, token: T) {
        let e = Entry {
            at,
            seq: self.seq,
            token,
        };
        self.seq += 1;
        self.len += 1;
        if at.0 < self.cur {
            // Scheduled in the past (the heap reference allows it): the
            // ordered overflow heap serves it before any wheel entry.
            self.overflow.push(Reverse(e));
        } else {
            self.place(e);
        }
    }

    // Places an entry (deadline ≥ cur) at the lowest level whose aligned
    // window contains both the deadline and the current time.
    fn place(&mut self, e: Entry<T>) {
        let t = e.at.0;
        for l in 0..LEVELS {
            let window_shift = SLOT_BITS * (l as u32 + 1);
            if t >> window_shift == self.cur >> window_shift {
                let idx = ((t >> (SLOT_BITS * l as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[l][idx].push_back(e);
                self.occupied[l] |= 1 << idx;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// Removes and returns the earliest token (FIFO among equal times).
    /// Amortized O(1): each entry cascades down at most `LEVELS` times over
    /// its lifetime.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Level 0: slots are single timestamps, so the first occupied
            // slot at or after `cur` is the wheel's earliest entry.
            let from0 = (self.cur & (SLOTS as u64 - 1)) as u32;
            let mask0 = self.occupied[0] & (!0u64 << from0);
            if mask0 != 0 {
                let idx = mask0.trailing_zeros() as usize;
                let at = Nanos((self.cur & !(SLOTS as u64 - 1)) + idx as u64);
                let seq = self.slots[0][idx].front().expect("occupied slot").seq;
                if let Some(Reverse(o)) = self.overflow.peek() {
                    if (o.at, o.seq) < (at, seq) {
                        return self.pop_overflow();
                    }
                }
                let e = self.slots[0][idx].pop_front().expect("occupied slot");
                if self.slots[0][idx].is_empty() {
                    self.occupied[0] &= !(1 << idx);
                }
                self.len -= 1;
                self.cur = e.at.0;
                return Some((e.at, e.token));
            }
            // Level 0 exhausted: cascade the next occupied higher-level
            // slot down and rescan. Advancing `cur` to the slot base keeps
            // the placement invariant (module docs) for later pushes.
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = SLOT_BITS * l as u32;
                let from = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
                let mask = self.occupied[l] & (!0u64 << from);
                if mask == 0 {
                    continue;
                }
                let idx = mask.trailing_zeros() as usize;
                let window = 1u64 << (SLOT_BITS * (l as u32 + 1));
                let base = (self.cur & !(window - 1)) + ((idx as u64) << shift);
                if base > self.cur {
                    self.cur = base;
                }
                let entries = std::mem::take(&mut self.slots[l][idx]);
                self.occupied[l] &= !(1 << idx);
                for e in entries {
                    self.place(e); // lands strictly below level l
                }
                cascaded = true;
                break;
            }
            if !cascaded {
                // Wheel empty but len > 0: everything pending overflowed.
                return self.pop_overflow();
            }
        }
    }

    fn pop_overflow(&mut self) -> Option<(Nanos, T)> {
        let Reverse(e) = self.overflow.pop()?;
        self.len -= 1;
        self.cur = self.cur.max(e.at.0);
        Some((e.at, e.token))
    }

    /// The time of the earliest token without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(Nanos, u64)> = self.overflow.peek().map(|Reverse(e)| (e.at, e.seq));
        for l in 0..LEVELS {
            let shift = SLOT_BITS * l as u32;
            let from = ((self.cur >> shift) & (SLOTS as u64 - 1)) as u32;
            let mask = self.occupied[l] & (!0u64 << from);
            if mask == 0 {
                continue;
            }
            // The first occupied slot holds this level's earliest entries
            // (later slots cover strictly later ranges).
            let idx = mask.trailing_zeros() as usize;
            for e in &self.slots[l][idx] {
                if best.is_none_or(|b| (e.at, e.seq) < b) {
                    best = Some((e.at, e.seq));
                }
            }
        }
        best.map(|(at, _)| at)
    }

    /// Number of pending tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut w = EventQueue::new();
        w.push(Nanos(3), 3);
        w.push(Nanos(1), 1);
        w.push(Nanos(2), 2);
        assert_eq!(w.pop().unwrap().1, 1);
        assert_eq!(w.pop().unwrap().1, 2);
        assert_eq!(w.pop().unwrap().1, 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = EventQueue::new();
        for i in 0..10 {
            w.push(Nanos(5), i);
        }
        for i in 0..10 {
            assert_eq!(w.pop().unwrap().1, i);
        }
    }

    #[test]
    fn equal_times_are_fifo_across_levels() {
        // Both land in a level-2 slot, cascade together, and must keep
        // insertion order through two cascades.
        let mut w = EventQueue::new();
        w.push(Nanos(100_000), "first");
        w.push(Nanos(100_000), "second");
        w.push(Nanos(10), "now");
        assert_eq!(w.pop().unwrap().1, "now");
        // A post-cascade-boundary push at the same deadline must append
        // behind the earlier ones even though `cur` has advanced.
        assert_eq!(w.pop().unwrap(), (Nanos(100_000), "first"));
        assert_eq!(w.pop().unwrap(), (Nanos(100_000), "second"));
    }

    #[test]
    fn peek_and_len() {
        let mut w = EventQueue::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        w.push(Nanos(9), ());
        w.push(Nanos(4), ());
        assert_eq!(w.peek_time(), Some(Nanos(4)));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut w = EventQueue::new();
        w.push(Nanos(10), "late");
        w.push(Nanos(1), "early");
        assert_eq!(w.pop().unwrap().1, "early");
        w.push(Nanos(5), "mid");
        assert_eq!(w.pop().unwrap().1, "mid");
        assert_eq!(w.pop().unwrap().1, "late");
    }

    #[test]
    fn far_future_overflows_and_returns() {
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        let mut w = EventQueue::new();
        w.push(Nanos(horizon * 3), "far");
        w.push(Nanos(50), "near");
        assert_eq!(w.peek_time(), Some(Nanos(50)));
        assert_eq!(w.pop().unwrap().1, "near");
        assert_eq!(w.pop().unwrap(), (Nanos(horizon * 3), "far"));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn overflow_ties_respect_insertion_order_vs_wheel() {
        let horizon = 1u64 << (SLOT_BITS * LEVELS as u32);
        let t = horizon + 77;
        let mut w = EventQueue::new();
        w.push(Nanos(t), "overflowed-first"); // beyond horizon at push time
        w.push(Nanos(horizon - 1), "stepper");
        assert_eq!(w.pop().unwrap().1, "stepper");
        // `cur` advanced; the same deadline now fits the wheel proper.
        w.push(Nanos(t), "wheeled-second");
        assert_eq!(w.pop().unwrap().1, "overflowed-first");
        assert_eq!(w.pop().unwrap().1, "wheeled-second");
    }

    #[test]
    fn past_deadlines_pop_before_future_ones() {
        let mut w = EventQueue::new();
        w.push(Nanos(1_000), "a");
        assert_eq!(w.pop().unwrap().1, "a");
        w.push(Nanos(10), "past"); // behind cur = 1000
        w.push(Nanos(2_000), "future");
        assert_eq!(w.pop().unwrap(), (Nanos(10), "past"));
        assert_eq!(w.pop().unwrap(), (Nanos(2_000), "future"));
    }

    #[test]
    fn dense_schedule_pops_sorted_and_stable() {
        // A deterministic pseudo-random schedule; verify output is sorted
        // by (time, insertion order) against a sort of the input.
        let mut w = EventQueue::new();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..5_000usize {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 3_000_000; // spans levels 0–3
            w.push(Nanos(t), i);
            expect.push((t, i));
        }
        expect.sort(); // (time, insertion index) — matches FIFO tie-break
        for &(t, i) in &expect {
            assert_eq!(w.pop(), Some((Nanos(t), i)));
        }
        assert!(w.is_empty());
    }
}
