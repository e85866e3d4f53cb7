//! Log-bucketed latency histograms.
//!
//! [`Histogram`] records nanosecond samples into buckets whose width grows
//! geometrically (HdrHistogram-style: linear sub-buckets inside power-of-two
//! ranges), giving ≤ ~1.6 % relative error across the full `u64` range with a
//! few KiB of memory — plenty for reproducing the paper's CDFs (Figure 7).

use crate::time::Nanos;

const SUB_BUCKET_BITS: u32 = 5; // 32 linear sub-buckets per octave
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// A latency histogram with geometric buckets.
///
/// # Example
///
/// ```
/// use precursor_sim::histogram::Histogram;
/// use precursor_sim::time::Nanos;
///
/// let mut h = Histogram::new();
/// for i in 1..=100u64 {
///     h.record(Nanos(i * 1_000));
/// }
/// let p50 = h.percentile(50.0);
/// assert!(p50 >= Nanos(48_000) && p50 <= Nanos(55_000));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    // For v ≥ SUB_BUCKETS: each octave above the first holds SUB_BUCKETS
    // linear sub-buckets of width 2^shift, where shift = msb - SUB_BUCKET_BITS.
    let msb = 63 - v.leading_zeros();
    let shift = (msb - SUB_BUCKET_BITS) as u64;
    let sub = (v >> shift) - SUB_BUCKETS;
    (SUB_BUCKETS + shift * SUB_BUCKETS + sub) as usize
}

fn bucket_low(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_BUCKETS {
        return idx;
    }
    let k = idx - SUB_BUCKETS;
    let shift = k / SUB_BUCKETS;
    let sub = k % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << shift
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Nanos) {
        let idx = bucket_index(v.0);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v.0 as u128;
        self.min = self.min.min(v.0);
        self.max = self.max.max(v.0);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the recorded samples (not bucketed).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, or zero when empty.
    pub fn min(&self) -> Nanos {
        if self.total == 0 {
            Nanos::ZERO
        } else {
            Nanos(self.min)
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Nanos {
        Nanos(self.max)
    }

    /// Arithmetic mean of the recorded samples (exact, not bucketed).
    pub fn mean(&self) -> Nanos {
        if self.total == 0 {
            Nanos::ZERO
        } else {
            Nanos((self.sum / self.total as u128) as u64)
        }
    }

    /// The value at percentile `p` (0–100), approximated by the lower bound
    /// of the containing bucket (≤ ~3 % relative error for values ≥ 32).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Nanos {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.total == 0 {
            return Nanos::ZERO;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        if rank >= self.total {
            return Nanos(self.max);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to observed extremes for tighter edges.
                return Nanos(bucket_low(idx).clamp(self.min, self.max));
            }
        }
        Nanos(self.max)
    }

    /// Cumulative-distribution points `(value, cumulative fraction)` for
    /// every nonempty bucket — the series plotted in the paper's Figure 7.
    pub fn cdf(&self) -> Vec<(Nanos, f64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Nanos(bucket_low(idx).clamp(self.min, self.max)),
                seen as f64 / self.total as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_nondecreasing() {
        let mut prev = 0;
        for v in 0..200_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index decreased at {v}");
            prev = idx;
        }
    }

    #[test]
    fn bucket_low_is_lower_bound() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
        ] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            assert!(low <= v, "low {low} > value {v}");
            // relative error bound ~ 1/32 per octave boundary
            if v >= 32 {
                assert!((v - low) as f64 / v as f64 <= 1.0 / 16.0, "v={v} low={low}");
            }
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Nanos::ZERO);
        assert_eq!(h.percentile(99.0), Nanos::ZERO);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(Nanos(10));
        h.record(Nanos(20));
        h.record(Nanos(30));
        assert_eq!(h.mean(), Nanos(20));
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos(i));
        }
        let p50 = h.percentile(50.0).0 as f64;
        let p99 = h.percentile(99.0).0 as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.07, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.07, "p99 {p99}");
        assert_eq!(h.percentile(100.0), Nanos(10_000));
        assert_eq!(h.percentile(0.0), h.percentile(f64::MIN_POSITIVE));
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = Histogram::new();
        for i in [5u64, 5, 7, 100, 10_000, 10_000, 500_000] {
            h.record(Nanos(i));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(Nanos(100));
        let mut b = Histogram::new();
        b.record(Nanos(1_000_000));
        b.record(Nanos(50));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Nanos(50));
        assert!(a.max() >= Nanos(1_000_000));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn min_max_tracked() {
        let mut h = Histogram::new();
        h.record(Nanos(42));
        h.record(Nanos(4_242));
        assert_eq!(h.min(), Nanos(42));
        assert_eq!(h.max(), Nanos(4_242));
    }
}
