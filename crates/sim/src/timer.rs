//! Virtual-clock deadlines and retry backoff schedules.
//!
//! Failure handling needs a notion of "how long have I been waiting" that is
//! deterministic and decoupled from wall time. [`VirtualClock`] is a
//! monotonic counter of simulated [`Nanos`] the protocol code advances as it
//! spins; [`Deadline`] marks a point on that clock; [`Backoff`] produces the
//! truncated-exponential-with-jitter delay sequence used between retries.
//! All three are plain state machines — identical seeds and advance patterns
//! replay identical timeout decisions.

use crate::rng::SimRng;
use crate::time::Nanos;

/// A monotonic virtual clock owned by one simulated actor.
///
/// # Example
///
/// ```
/// use precursor_sim::time::Nanos;
/// use precursor_sim::timer::{Deadline, VirtualClock};
///
/// let mut clock = VirtualClock::new();
/// let deadline = Deadline::after(&clock, Nanos::from_micros(10));
/// clock.advance(Nanos::from_micros(4));
/// assert!(!deadline.expired(&clock));
/// clock.advance(Nanos::from_micros(7));
/// assert!(deadline.expired(&clock));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    now: Nanos,
}

impl VirtualClock {
    /// A clock at the zero instant.
    pub fn new() -> VirtualClock {
        VirtualClock { now: Nanos::ZERO }
    }

    /// The current instant.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the clock by `delta`.
    pub fn advance(&mut self, delta: Nanos) {
        self.now += delta;
    }
}

/// A point on a [`VirtualClock`] after which an operation has timed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Nanos,
}

impl Deadline {
    /// A deadline `timeout` after the clock's current instant.
    pub fn after(clock: &VirtualClock, timeout: Nanos) -> Deadline {
        Deadline {
            at: clock.now() + timeout,
        }
    }

    /// The absolute expiry instant.
    pub fn at(&self) -> Nanos {
        self.at
    }

    /// Whether the clock has passed the deadline.
    pub fn expired(&self, clock: &VirtualClock) -> bool {
        clock.now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self, clock: &VirtualClock) -> Nanos {
        self.at.saturating_sub(clock.now())
    }
}

/// A bounded exponential-backoff schedule with multiplicative jitter.
///
/// Delay for attempt *n* (0-based) is `base · 2ⁿ`, capped at `cap`, then
/// scaled by a uniform factor in `[1, 1 + jitter)`. Jitter decorrelates
/// retry storms between clients while staying fully deterministic per seed.
///
/// # Example
///
/// ```
/// use precursor_sim::rng::SimRng;
/// use precursor_sim::time::Nanos;
/// use precursor_sim::timer::Backoff;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut backoff = Backoff::new(Nanos::from_micros(10), Nanos::from_millis(1), 0.5, 3);
/// let first = backoff.next_delay(&mut rng).unwrap();
/// assert!(first >= Nanos::from_micros(10));
/// backoff.next_delay(&mut rng).unwrap();
/// backoff.next_delay(&mut rng).unwrap();
/// assert!(backoff.next_delay(&mut rng).is_none(), "retry budget exhausted");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    base: Nanos,
    cap: Nanos,
    jitter: f64,
    max_attempts: u32,
    attempt: u32,
}

impl Backoff {
    /// Creates a schedule of at most `max_attempts` delays starting at
    /// `base`, doubling up to `cap`, with multiplicative `jitter` in
    /// `[0, 1]`.
    pub fn new(base: Nanos, cap: Nanos, jitter: f64, max_attempts: u32) -> Backoff {
        Backoff {
            base,
            cap,
            jitter: jitter.clamp(0.0, 1.0),
            max_attempts,
            attempt: 0,
        }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The next delay, or `None` once the attempt budget is spent.
    pub fn next_delay(&mut self, rng: &mut SimRng) -> Option<Nanos> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let exp = self.attempt.min(32);
        self.attempt += 1;
        let raw = Nanos(self.base.0.saturating_mul(1u64 << exp)).min(self.cap);
        let scaled = raw.0 as f64 * (1.0 + self.jitter * rng.gen_f64());
        Some(Nanos(scaled.round() as u64))
    }

    /// Resets the schedule for a fresh operation.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = VirtualClock::new();
        c.advance(Nanos(50));
        c.advance(Nanos::ZERO);
        assert_eq!(c.now(), Nanos(50));
        c.advance(Nanos(30));
        assert_eq!(c.now(), Nanos(80));
    }

    #[test]
    fn deadline_expires_exactly_at_instant() {
        let mut c = VirtualClock::new();
        let d = Deadline::after(&c, Nanos(100));
        assert_eq!(d.at(), Nanos(100));
        c.advance(Nanos(99));
        assert!(!d.expired(&c));
        assert_eq!(d.remaining(&c), Nanos(1));
        c.advance(Nanos(1));
        assert!(d.expired(&c));
        assert_eq!(d.remaining(&c), Nanos::ZERO);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut rng = SimRng::seed_from(7);
        let mut b = Backoff::new(Nanos(100), Nanos(350), 0.0, 4);
        assert_eq!(b.next_delay(&mut rng), Some(Nanos(100)));
        assert_eq!(b.next_delay(&mut rng), Some(Nanos(200)));
        assert_eq!(b.next_delay(&mut rng), Some(Nanos(350)), "capped");
        assert_eq!(b.next_delay(&mut rng), Some(Nanos(350)));
        assert_eq!(b.next_delay(&mut rng), None);
        b.reset();
        assert_eq!(b.next_delay(&mut rng), Some(Nanos(100)));
    }

    #[test]
    fn backoff_jitter_stays_in_band() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..100 {
            let mut b = Backoff::new(Nanos(1_000), Nanos(1_000_000), 0.5, 1);
            let d = b.next_delay(&mut rng).unwrap();
            assert!(d >= Nanos(1_000) && d < Nanos(1_501), "delay {d:?}");
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = || {
            let mut rng = SimRng::seed_from(42);
            let mut b = Backoff::new(Nanos(10), Nanos(10_000), 0.3, 6);
            let mut v = Vec::new();
            while let Some(d) = b.next_delay(&mut rng) {
                v.push(d);
            }
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_huge_attempt_counts_do_not_overflow() {
        let mut rng = SimRng::seed_from(1);
        let mut b = Backoff::new(Nanos(u64::MAX / 2), Nanos(u64::MAX), 0.0, 64);
        for _ in 0..64 {
            assert!(b.next_delay(&mut rng).is_some());
        }
    }
}
