//! Virtual time and CPU-work quantities.
//!
//! All simulated durations are expressed in integer nanoseconds ([`Nanos`]);
//! CPU work is expressed in clock cycles ([`Cycles`]) and converted to time
//! through a clock frequency ([`Freq`]). Keeping the two units distinct makes
//! it impossible to accidentally add "cycles" to "nanoseconds" without going
//! through a frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in, or span of, virtual time, in nanoseconds.
///
/// `Nanos` is used both as an instant (time since simulation start) and as a
/// duration; the arithmetic is identical and the simulation never needs
/// calendar time.
///
/// # Example
///
/// ```
/// use precursor_sim::time::Nanos;
/// let t = Nanos::from_micros(2) + Nanos(500);
/// assert_eq!(t, Nanos(2_500));
/// assert_eq!(t.as_micros_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant / empty duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from whole microseconds.
    pub fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// This quantity as floating-point microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This quantity as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// The larger of `self` and `other`.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// The smaller of `self` and `other`.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// An amount of CPU work in clock cycles.
///
/// Convert to time with [`Freq::cycles_to_nanos`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

/// A CPU clock frequency, used to convert [`Cycles`] to [`Nanos`].
///
/// # Example
///
/// ```
/// use precursor_sim::time::{Cycles, Freq, Nanos};
/// let f = Freq::ghz(2.0);
/// assert_eq!(f.cycles_to_nanos(Cycles(2_000)), Nanos(1_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Freq {
    hz: f64,
}

impl Freq {
    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn ghz(ghz: f64) -> Freq {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Freq { hz: ghz * 1e9 }
    }

    /// The frequency in hertz.
    pub fn hz(self) -> f64 {
        self.hz
    }

    /// Converts an amount of CPU work into wall time at this frequency,
    /// rounding to the nearest nanosecond.
    pub fn cycles_to_nanos(self, c: Cycles) -> Nanos {
        Nanos((c.0 as f64 / self.hz * 1e9).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors() {
        assert_eq!(Nanos::from_micros(3), Nanos(3_000));
        assert_eq!(Nanos::from_millis(3), Nanos(3_000_000));
        assert_eq!(Nanos::from_secs(3), Nanos(3_000_000_000));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos(100);
        let b = Nanos(40);
        assert_eq!(a + b, Nanos(140));
        assert_eq!(a - b, Nanos(60));
        assert_eq!(a * 3, Nanos(300));
        assert_eq!(a / 4, Nanos(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn nanos_display_scales_units() {
        assert_eq!(Nanos(5).to_string(), "5ns");
        assert_eq!(Nanos(1_500).to_string(), "1.500us");
        assert_eq!(Nanos(2_000_000).to_string(), "2.000ms");
        assert_eq!(Nanos(3_000_000_000).to_string(), "3.000s");
    }

    #[test]
    fn freq_round_trips() {
        let f = Freq::ghz(3.7);
        let c = Cycles(13_100);
        let n = f.cycles_to_nanos(c);
        // 13_100 / 3.7 ≈ 3_540.5 ns
        assert_eq!(n, Nanos(3_541));
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn freq_rejects_zero() {
        let _ = Freq::ghz(0.0);
    }
}
