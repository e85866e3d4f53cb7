//! The virtual-time event queue: a binary heap ordered by
//! `(time, insertion sequence)`.
//!
//! The closed-loop drivers process *tokens* (e.g. "client 7 issues its next
//! operation") in virtual-time order, one pending token per client: the
//! paper's ≈ 100, the benchmark's widest workload 1 000, `fig6-scale` up to
//! 100 k. At 1 000 tokens a `BinaryHeap` push and pop cost ≈ 35 ns, well
//! under a percent of a simulated op's host time; a timing wheel only pays
//! back past ≈ 10 k (DESIGN.md §17).
//!
//! # Determinism contract
//!
//! * ties at equal times break FIFO by global insertion sequence;
//! * the queue draws no randomness and inspects no tokens;
//! * a token pushed at a time already passed pops before every later one,
//!   in the same `(time, seq)` order as any other.
//!
//! So identical seeds always produce identical schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    token: T,
}

// Heap order: (time, seq), token ignored.
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

/// A time-ordered queue of tokens of type `T`; see the module docs for the
/// determinism contract.
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
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Global insertion sequence — the FIFO tie-break.
    seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `token` at virtual time `at`. O(log n).
    pub fn push(&mut self, at: Nanos, token: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, token }));
    }

    /// Removes and returns the earliest token (FIFO among equal times).
    /// O(log n).
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.token))
    }

    /// Number of pending tokens.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no tokens are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn len_and_is_empty_count_pending_tokens() {
        let mut w = EventQueue::default();
        assert!(w.is_empty());
        w.push(Nanos(9), ());
        w.push(Nanos(4), ());
        assert_eq!(w.len(), 2);
        w.pop();
        assert_eq!((w.len(), w.is_empty()), (1, false));
        w.pop();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
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
    fn past_deadlines_pop_before_future_ones() {
        let mut w = EventQueue::new();
        w.push(Nanos(1_000), "a");
        assert_eq!(w.pop().unwrap().1, "a");
        w.push(Nanos(10), "past"); // behind the last pop
        w.push(Nanos(2_000), "future");
        assert_eq!(w.pop().unwrap(), (Nanos(10), "past"));
        assert_eq!(w.pop().unwrap(), (Nanos(2_000), "future"));
    }

    // A xorshift64 step: the schedules below draw no `SimRng` so the
    // oracle stays independent of the crate under test.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    // Replays a schedule through the queue and checks every pop against a
    // sort of the pushes by `(time, insertion index)`, the FIFO tie-break. `initial` is pushed first; then each of `pops` pops
    // is followed by the pushes `step(popped_time)` returns; then the
    // queue drains.
    fn check_against_sort(initial: &[u64], pops: usize, mut step: impl FnMut(u64) -> Vec<u64>) {
        let mut w = EventQueue::new();
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut next_id = 0usize;
        let mut push = |w: &mut EventQueue<usize>, pending: &mut Vec<(u64, usize)>, t: u64| {
            w.push(Nanos(t), next_id);
            pending.push((t, next_id));
            next_id += 1;
        };
        for &t in initial {
            push(&mut w, &mut pending, t);
        }
        for _ in 0..pops {
            pending.sort_unstable(); // ids are unique: a total order
            let (t, id) = pending.remove(0);
            assert_eq!(w.pop(), Some((Nanos(t), id)));
            for at in step(t) {
                push(&mut w, &mut pending, at);
            }
        }
        pending.sort_unstable();
        for (t, id) in pending {
            assert_eq!(w.pop(), Some((Nanos(t), id)));
        }
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn dense_schedule_pops_sorted_and_stable() {
        // A dense random schedule pushed up front.
        let mut x = 0x9e3779b97f4a7c15u64;
        let dense: Vec<u64> = (0..5_000).map(|_| next(&mut x) % 3_000_000).collect();
        check_against_sort(&dense, 0, |_| Vec::new());

        // Equal-time bursts: runs of 1–16 pushes at one instant, near zero,
        // mid-range and far in the future.
        for base in [0u64, 1_000_000, 1 << 50] {
            let mut x = 0xF1F0 ^ base;
            let mut bursts = Vec::new();
            for burst in 0..40 {
                let at = base + burst * (1 + next(&mut x) % 100);
                let len = 1 + next(&mut x) % 16;
                bursts.extend(std::iter::repeat_n(at, len as usize));
            }
            check_against_sort(&bursts, 0, |_| Vec::new());
        }

        // Closed-loop reschedule, the drivers' shape: every pop pushes its
        // successor a think time later — a same-instant tie, a network
        // round trip, or up to a second.
        let mut x = 0xC105ED;
        let fleet: Vec<u64> = (0..64).map(|_| next(&mut x) % 10_000).collect();
        check_against_sort(&fleet, 2_000, |now| {
            let think = match next(&mut x) % 3 {
                0 => next(&mut x) % 50,
                1 => 30_000 + next(&mut x) % 20_000,
                _ => next(&mut x) % (1 << 30),
            };
            vec![now + think]
        });

        // Past-due and far-future pushes: after each pop, push a time
        // already passed (it pops before every later token) and one 2^50 ns
        // out, past any bounded horizon.
        let mut x = 0xDEAD;
        let spread: Vec<u64> = (0..100).map(|_| next(&mut x) % (1 << 32)).collect();
        check_against_sort(&spread, 50, |now| {
            vec![
                next(&mut x) % now.max(1),
                (1 << 50) + next(&mut x) % 1_000_000,
            ]
        });
    }
}
