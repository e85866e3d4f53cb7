//! A minimal token-based event queue.
//!
//! The closed-loop drivers process *tokens* (e.g. "client 7 issues its next
//! operation") in virtual-time order. [`EventQueue`] is the queue every call
//! site uses; since the 100k-client refactor it is a thin adapter over the
//! hierarchical [`TimingWheel`] — O(1) schedule
//! and pop instead of the heap's O(log n) — with ties at equal times still
//! broken deterministically by insertion sequence, so identical seeds always
//! produce identical schedules.
//!
//! The ordering specification is the `BinaryHeap`-backed reference queue in
//! `tests/wheel_equivalence.rs`: the suite replays random schedules through
//! both and requires identical `(time, token)` pop sequences.

use crate::time::Nanos;
use crate::wheel::TimingWheel;

/// A time-ordered queue of tokens of type `T`.
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
    wheel: TimingWheel<T>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            wheel: TimingWheel::new(),
        }
    }

    /// Schedules `token` at virtual time `at`. O(1).
    pub fn push(&mut self, at: Nanos, token: T) {
        self.wheel.push(at, token);
    }

    /// Removes and returns the earliest token (FIFO among equal times).
    /// Amortized O(1).
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        self.wheel.pop()
    }

    /// The time of the earliest token without removing it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.wheel.peek_time()
    }

    /// Number of pending tokens.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no tokens are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
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
        let mut q = EventQueue::new();
        q.push(Nanos(3), 3);
        q.push(Nanos(1), 1);
        q.push(Nanos(2), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Nanos(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Nanos(9), ());
        q.push(Nanos(4), ());
        assert_eq!(q.peek_time(), Some(Nanos(4)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Nanos(10), "late");
        q.push(Nanos(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(Nanos(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
