//! Running summary statistics.
//!
//! [`Summary`] keeps Welford's online running mean plus the extrema; it
//! backs the "average of 8 repetitions" reporting used throughout the
//! paper's evaluation (§5.2).

/// Online mean / extrema accumulator.
///
/// # Example
///
/// ```
/// use precursor_sim::stats::Summary;
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.add(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!((s.min(), s.max()), (2.0, 9.0));
/// assert_eq!(s.relative_spread(), 1.4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Summary {
        Summary {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, v: f64) {
        self.n += 1;
        self.mean += (v - self.mean) / self.n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (zero when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (zero when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Relative spread `(max - min) / mean`; zero when empty or mean is zero.
    pub fn relative_spread(&self) -> f64 {
        let m = self.mean();
        if self.n == 0 || m == 0.0 {
            0.0
        } else {
            (self.max - self.min) / m
        }
    }
}

/// Computes throughput in operations per second.
///
/// # Example
///
/// ```
/// use precursor_sim::stats::throughput_ops_per_sec;
/// use precursor_sim::time::Nanos;
/// assert_eq!(throughput_ops_per_sec(1_000, Nanos::from_millis(1)), 1_000_000.0);
/// ```
pub fn throughput_ops_per_sec(ops: u64, elapsed: crate::time::Nanos) -> f64 {
    if elapsed == crate::time::Nanos::ZERO {
        0.0
    } else {
        ops as f64 / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.relative_spread(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut s = Summary::new();
        s.add(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn welford_matches_naive() {
        let vals = [1.0, 2.5, -3.0, 10.0, 0.0, 4.25];
        let mut s = Summary::new();
        for &v in &vals {
            s.add(v);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!((s.min(), s.max()), (-3.0, 10.0));
    }

    #[test]
    fn spread() {
        let mut s = Summary::new();
        s.add(90.0);
        s.add(110.0);
        assert!((s.relative_spread() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn throughput() {
        assert_eq!(throughput_ops_per_sec(500, Nanos::from_secs(2)), 250.0);
        assert_eq!(throughput_ops_per_sec(500, Nanos::ZERO), 0.0);
    }
}
