//! Zipfian key-popularity generators (YCSB's `ZipfianGenerator` and its
//! scrambled variant), after Gray et al., "Quickly generating
//! billion-record synthetic databases".
//!
//! The Precursor paper evaluates the *uniform* distribution; these are
//! provided so the harness covers the full YCSB configuration space (and
//! the skewed ablation bench uses them).

use precursor_sim::rng::{splitmix64, SimRng};

/// Standard YCSB Zipfian constant.
pub const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// Draws items in `[0, n)` with Zipfian popularity (item 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Creates a generator over `n` items with skew `theta` (0 < θ < 1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "n must be positive");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    /// With the standard YCSB constant θ = 0.99.
    pub fn ycsb(n: u64) -> Zipfian {
        Zipfian::new(n, YCSB_ZIPFIAN_CONSTANT)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next item (0 = most popular).
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
    }
}

/// Scrambled Zipfian: Zipfian popularity spread over the key space by a
/// hash, as YCSB does, so the popular keys are not clustered.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled generator over `n` items with the YCSB constant.
    pub fn new(n: u64) -> ScrambledZipfian {
        ScrambledZipfian {
            inner: Zipfian::ycsb(n),
        }
    }

    /// Draws the next item id in `[0, n)`.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let raw = self.inner.next(rng);
        let mut h = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = splitmix64(&mut h);
        h % self.inner.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeta_matches_harmonic_sum() {
        assert!((zeta(1, 0.99) - 1.0).abs() < 1e-12);
        let z3 = 1.0 + 1.0 / 2f64.powf(0.5) + 1.0 / 3f64.powf(0.5);
        assert!((zeta(3, 0.5) - z3).abs() < 1e-12);
    }

    #[test]
    fn values_stay_in_range() {
        let z = Zipfian::ycsb(1000);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100_000 {
            assert!(z.next(&mut rng) < 1000);
        }
    }

    #[test]
    fn item_zero_is_most_popular() {
        let z = Zipfian::ycsb(1000);
        let mut rng = SimRng::seed_from(2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "item 0 must be the mode");
        // Zipf(0.99): item 0 should take a noticeable share
        assert!(counts[0] as f64 / 200_000.0 > 0.05);
    }

    #[test]
    fn skew_is_much_heavier_than_uniform() {
        let z = Zipfian::ycsb(10_000);
        let mut rng = SimRng::seed_from(3);
        let mut top100 = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.next(&mut rng) < 100 {
                top100 += 1;
            }
        }
        // Under uniform, top-100 of 10k keys would get ≈1 %; Zipf gets far
        // more.
        assert!(
            top100 as f64 / total as f64 > 0.3,
            "top-100 share {}",
            top100 as f64 / total as f64
        );
    }

    #[test]
    fn scrambled_spreads_the_mode() {
        let s = ScrambledZipfian::new(1000);
        let mut rng = SimRng::seed_from(4);
        let mut counts = vec![0u64; 1000];
        for _ in 0..200_000 {
            counts[s.next(&mut rng) as usize] += 1;
        }
        // the hottest item is no longer id 0, but skew persists
        let (mode, &max) = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        assert!(max as f64 / 200_000.0 > 0.05);
        // mode being exactly 0 is possible but astronomically unlikely
        assert_ne!(mode, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipfian::ycsb(100);
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        for _ in 0..1000 {
            assert_eq!(z.next(&mut a), z.next(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ = Zipfian::new(10, 1.5);
    }
}
