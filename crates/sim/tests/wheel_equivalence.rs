//! Property-based equivalence: the hierarchical timing wheel must pop the
//! exact `(time, token)` sequence of the reference `BinaryHeap` queue —
//! including FIFO order for equal-time ties and events cascading back in
//! from the far-future overflow heap. Driven by seeded loops over the
//! in-repo deterministic RNG, mirroring `tests/proptest_store.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use precursor_sim::engine::EventQueue;
use precursor_sim::rng::SimRng;
use precursor_sim::time::Nanos;

/// The heap-backed reference queue: O(log n) per operation, trivially
/// correct ordering by `(time, insertion sequence)`. Kept as the oracle the
/// timing wheel is proptested against.
#[derive(Debug, Clone)]
struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    token: T,
}

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

impl<T> HeapQueue<T> {
    /// Creates an empty queue.
    fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `token` at virtual time `at`.
    fn push(&mut self, at: Nanos, token: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, token }));
    }

    /// Removes and returns the earliest token (FIFO among equal times).
    fn pop(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.token))
    }

    /// The time of the earliest token without removing it.
    fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending tokens.
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no tokens are pending.
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Wheel horizon: 7 levels of 64 slots cover 2^42 ns; anything beyond
/// lands in the overflow heap and must cascade back in order.
const FAR_FUTURE: u64 = 1 << 50;

fn drain_both(wheel: &mut EventQueue<u64>, heap: &mut HeapQueue<u64>) {
    assert_eq!(wheel.len(), heap.len(), "queue lengths diverged");
    let mut last = Nanos(0);
    while let Some(expect) = heap.pop() {
        assert_eq!(wheel.peek_time(), Some(expect.0), "peek before pop");
        let got = wheel.pop().expect("wheel drained early");
        assert_eq!(got, expect, "pop sequence diverged");
        assert!(got.0 >= last, "pop times went backwards");
        last = got.0;
    }
    assert_eq!(wheel.pop(), None, "wheel had extra events");
    assert_eq!(wheel.peek_time(), None);
    assert!(wheel.is_empty());
}

/// Random interleaving of pushes and pops across the full time range,
/// including times past the wheel horizon (overflow heap) and bursts of
/// identical timestamps (FIFO tie-breaking).
#[test]
fn random_schedules_match_heap_reference() {
    let mut rng = SimRng::seed_from(0x57EE1);
    for case in 0..50 {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut token = 0u64;
        let mut now = 0u64;
        let events = 200 + rng.gen_range(800);
        for _ in 0..events {
            // 1-in-4 actions pop (keeping both queues in lockstep), the
            // rest push at now + a delta drawn from a wide mix of scales.
            if rng.gen_range(4) == 0 && !heap.is_empty() {
                let expect = heap.pop().expect("nonempty");
                let got = wheel.pop().expect("wheel in lockstep");
                assert_eq!(got, expect, "case {case}: interleaved pop diverged");
                now = now.max(got.0 .0);
                continue;
            }
            let delta = match rng.gen_range(5) {
                0 => rng.gen_range(4), // same-slot ties
                1 => rng.gen_range(1_000),
                2 => rng.gen_range(1_000_000),
                3 => 1_000_000_000 + rng.gen_range(1_000_000_000),
                _ => FAR_FUTURE + rng.gen_range(1_000_000),
            };
            let at = Nanos(now + delta);
            wheel.push(at, token);
            heap.push(at, token);
            token += 1;
        }
        drain_both(&mut wheel, &mut heap);
    }
}

/// Many events at the *same* instant must drain in push order (FIFO), even
/// when the instant sits beyond the horizon so every event takes the
/// overflow -> cascade path.
#[test]
fn equal_time_bursts_preserve_fifo() {
    let mut rng = SimRng::seed_from(0xF1F0);
    for &base in &[0u64, 1_000_000, FAR_FUTURE] {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut token = 0u64;
        for burst in 0..40 {
            let at = Nanos(base + burst * (1 + rng.gen_range(100)));
            for _ in 0..(1 + rng.gen_range(16)) {
                wheel.push(at, token);
                heap.push(at, token);
                token += 1;
            }
        }
        drain_both(&mut wheel, &mut heap);
    }
}

/// Closed-loop reschedule: pop an event, push its successor at a random
/// later time — the access pattern the simulator drives all day. The
/// wheel's cursor only moves forward, so this exercises re-insertion at
/// every level relative to the current time.
#[test]
fn closed_loop_reschedule_matches_heap() {
    let mut rng = SimRng::seed_from(0xC105ED);
    for _case in 0..20 {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut seq = 0u64;
        for c in 0..64u64 {
            let at = Nanos(rng.gen_range(10_000));
            wheel.push(at, c);
            heap.push(at, c);
            seq = seq.max(c + 1);
        }
        for _ in 0..2_000 {
            let expect = heap.pop().expect("closed loop never drains");
            let got = wheel.pop().expect("wheel in lockstep");
            assert_eq!(got, expect, "closed-loop pop diverged");
            let (now, _) = got;
            let think = match rng.gen_range(3) {
                0 => rng.gen_range(50),
                1 => 30_000 + rng.gen_range(20_000),
                _ => rng.gen_range(1 << 30),
            };
            let at = Nanos(now.0 + think);
            wheel.push(at, seq);
            heap.push(at, seq);
            seq += 1;
        }
        drain_both(&mut wheel, &mut heap);
    }
}

/// Past-due pushes (at a time the wheel has already advanced beyond) must
/// fire immediately but still after already-due earlier events, exactly
/// as the heap orders them.
#[test]
fn past_due_pushes_fire_in_heap_order() {
    let mut rng = SimRng::seed_from(0xDEAD);
    for _case in 0..20 {
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut token = 0u64;
        for _ in 0..100 {
            let at = Nanos(u64::from(rng.next_u32()));
            wheel.push(at, token);
            heap.push(at, token);
            token += 1;
        }
        // Advance both queues halfway, then push events at times in the
        // past relative to the wheel cursor.
        for _ in 0..50 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        let now = heap.peek_time().expect("half left").0;
        for _ in 0..50 {
            let at = Nanos(u64::from(rng.next_u32()) % now.max(1));
            wheel.push(at, token);
            heap.push(at, token);
            token += 1;
        }
        drain_both(&mut wheel, &mut heap);
    }
}

/// The shape the drivers produce — pop one, reschedule it later.
#[test]
fn heap_reference_matches_wheel_on_a_closed_loop() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    for c in 0..32u64 {
        wheel.push(Nanos(c * 120), c);
        heap.push(Nanos(c * 120), c);
    }
    for step in 0..10_000u64 {
        let a = wheel.pop().unwrap();
        let b = heap.pop().unwrap();
        assert_eq!(a, b, "diverged at step {step}");
        let next = a.0 + Nanos(1 + (a.1 * 7 + step * 13) % 40_000);
        wheel.push(next, a.1);
        heap.push(next, a.1);
    }
}
