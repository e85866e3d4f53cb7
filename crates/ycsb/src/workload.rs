//! Workload specifications and operation generation.
//!
//! Mirrors the paper's YCSB setup (§5.2): uniform key popularity over a
//! loaded keyspace, read/update mixes A/B/C plus "update-mostly", fixed
//! value sizes, 16-byte keys.

use precursor_sim::rng::SimRng;

use crate::zipfian::ScrambledZipfian;

/// Key popularity distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// All keys equally likely — the paper's configuration.
    Uniform,
    /// YCSB scrambled Zipfian (θ = 0.99).
    Zipfian,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read the key.
    Read,
    /// Update the key with a fresh value.
    Update,
}

/// A workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Fraction of reads in `[0, 1]`; the rest are updates.
    pub read_ratio: f64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Number of keys in the loaded keyspace.
    pub key_count: u64,
    /// Popularity distribution.
    pub distribution: Distribution,
}

impl WorkloadSpec {
    /// YCSB workload A: 50 % read / 50 % update.
    pub fn workload_a(value_size: usize, key_count: u64) -> WorkloadSpec {
        WorkloadSpec {
            read_ratio: 0.5,
            value_size,
            key_count,
            distribution: Distribution::Uniform,
        }
    }

    /// YCSB workload B: 95 % read / 5 % update.
    pub fn workload_b(value_size: usize, key_count: u64) -> WorkloadSpec {
        WorkloadSpec {
            read_ratio: 0.95,
            value_size,
            key_count,
            distribution: Distribution::Uniform,
        }
    }

    /// YCSB workload C: read-only.
    pub fn workload_c(value_size: usize, key_count: u64) -> WorkloadSpec {
        WorkloadSpec {
            read_ratio: 1.0,
            value_size,
            key_count,
            distribution: Distribution::Uniform,
        }
    }

    /// The paper's "update-mostly" mix: 5 % read / 95 % update.
    pub fn update_mostly(value_size: usize, key_count: u64) -> WorkloadSpec {
        WorkloadSpec {
            read_ratio: 0.05,
            value_size,
            key_count,
            distribution: Distribution::Uniform,
        }
    }

    /// A custom read ratio with uniform popularity.
    pub fn with_read_ratio(read_ratio: f64, value_size: usize, key_count: u64) -> WorkloadSpec {
        assert!((0.0..=1.0).contains(&read_ratio), "read ratio in [0,1]");
        WorkloadSpec {
            read_ratio,
            value_size,
            key_count,
            distribution: Distribution::Uniform,
        }
    }
}

/// The fixed key length (YCSB-style 16-byte keys).
pub const KEY_LEN: usize = 16;

/// Deterministic 16-byte key for record `id` ("userXXXXXXXXXXXX": the last
/// twelve decimal digits of `id`).
pub fn key_bytes(id: u64) -> [u8; KEY_LEN] {
    let mut key = *b"user000000000000";
    let mut rest = id;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// Deterministic value bytes for record `id` at a given size and version:
/// byte `i` is the low byte of `(s + i) · 31`, where
/// `s = id · 0x9E37_79B9_7F4A_7C15 ⊕ version`.
pub fn value_bytes(id: u64, version: u64, size: usize) -> Vec<u8> {
    let mut value = Vec::with_capacity(size);
    value_bytes_into(&mut value, id, version, size);
    value
}

/// [`value_bytes`] into a buffer the caller reuses (its contents are
/// replaced).
pub fn value_bytes_into(out: &mut Vec<u8>, id: u64, version: u64, size: usize) {
    // The low byte of a sum or product depends only on the operands' low
    // bytes, so the sequence is computed in `u8`.
    let seed = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version) as u8;
    out.clear();
    out.extend((0..size).map(|i| seed.wrapping_add(i as u8).wrapping_mul(31)));
}

/// Generates the operation stream for one client.
#[derive(Debug, Clone)]
pub struct OpGenerator {
    spec: WorkloadSpec,
    rng: SimRng,
    zipf: Option<ScrambledZipfian>,
}

impl OpGenerator {
    /// Creates a generator with its own deterministic stream.
    pub fn new(spec: WorkloadSpec, rng: SimRng) -> OpGenerator {
        let zipf = match spec.distribution {
            Distribution::Uniform => None,
            Distribution::Zipfian => Some(ScrambledZipfian::new(spec.key_count)),
        };
        OpGenerator { spec, rng, zipf }
    }

    /// The generator [`new`](Self::new) would build from this one's spec on
    /// `rng`, without computing its popularity constants again (a Zipfian
    /// over `n` keys costs `n` `powf` calls to build).
    pub fn with_rng(&self, rng: SimRng) -> OpGenerator {
        OpGenerator {
            spec: self.spec.clone(),
            rng,
            zipf: self.zipf.clone(),
        }
    }

    /// The workload this generator draws from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draws the next operation: kind + key id.
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let kind = if self.rng.gen_bool(self.spec.read_ratio) {
            OpKind::Read
        } else {
            OpKind::Update
        };
        let key = if let Some(z) = &self.zipf {
            z.next(&mut self.rng)
        } else {
            self.rng.gen_range(self.spec.key_count)
        };
        (kind, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bytes_are_unique_and_fixed_length() {
        let a = key_bytes(1);
        let b = key_bytes(2);
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.starts_with(b"user"));
        assert_eq!(&key_bytes(599_999)[..], b"user000000599999");
    }

    #[test]
    fn key_and_value_bytes_keep_their_formulas() {
        let key = |id: u64| {
            let mut key = *b"user000000000000";
            let digits = format!("{id:012}");
            key[4..].copy_from_slice(&digits.as_bytes()[digits.len() - 12..]);
            key
        };
        let value = |id: u64, version: u64, size: usize| {
            let seed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version;
            (0..size)
                .map(|i| seed.wrapping_add(i as u64).wrapping_mul(31) as u8)
                .collect::<Vec<u8>>()
        };
        for id in [0, 7, 599_999, 999_999_999_999, 1_000_000_000_007, u64::MAX] {
            assert_eq!(key_bytes(id), key(id), "id {id}");
            for size in 0..=4097 {
                assert_eq!(value_bytes(id, 3, size), value(id, 3, size), "id {id}");
            }
        }
    }

    #[test]
    fn with_rng_draws_what_new_draws_on_that_stream() {
        for distribution in [Distribution::Uniform, Distribution::Zipfian] {
            let spec = WorkloadSpec {
                distribution,
                ..WorkloadSpec::workload_a(32, 20_000)
            };
            let template = OpGenerator::new(spec.clone(), SimRng::seed_from(1));
            let mut cloned = template.with_rng(SimRng::seed_from(11));
            let mut fresh = OpGenerator::new(spec, SimRng::seed_from(11));
            for _ in 0..10_000 {
                assert_eq!(cloned.next_op(), fresh.next_op(), "{distribution:?}");
            }
        }
    }

    #[test]
    fn value_bytes_depend_on_version() {
        let v1 = value_bytes(7, 0, 64);
        let v2 = value_bytes(7, 1, 64);
        assert_eq!(v1.len(), 64);
        assert_ne!(v1, v2);
        assert_eq!(v1, value_bytes(7, 0, 64));
    }

    #[test]
    fn read_ratio_is_respected() {
        let spec = WorkloadSpec::workload_b(32, 1000);
        let mut g = OpGenerator::new(spec, SimRng::seed_from(5));
        let n = 100_000;
        let reads = (0..n)
            .filter(|_| matches!(g.next_op().0, OpKind::Read))
            .count();
        let ratio = reads as f64 / n as f64;
        assert!((ratio - 0.95).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn workload_c_is_read_only() {
        let mut g = OpGenerator::new(WorkloadSpec::workload_c(32, 10), SimRng::seed_from(6));
        assert!((0..10_000).all(|_| g.next_op().0 == OpKind::Read));
    }

    #[test]
    fn update_mostly_is_mostly_updates() {
        let mut g = OpGenerator::new(WorkloadSpec::update_mostly(32, 10), SimRng::seed_from(7));
        let updates = (0..10_000)
            .filter(|_| g.next_op().0 == OpKind::Update)
            .count();
        assert!(updates > 9_300);
    }

    #[test]
    fn uniform_keys_cover_the_space() {
        let mut g = OpGenerator::new(WorkloadSpec::workload_c(32, 64), SimRng::seed_from(8));
        let mut seen = [false; 64];
        for _ in 0..10_000 {
            let (_, k) = g.next_op();
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipfian_spec_draws_in_range() {
        let spec = WorkloadSpec {
            distribution: Distribution::Zipfian,
            ..WorkloadSpec::workload_a(32, 500)
        };
        let mut g = OpGenerator::new(spec, SimRng::seed_from(9));
        for _ in 0..10_000 {
            let (_, k) = g.next_op();
            assert!(k < 500);
        }
    }

    #[test]
    #[should_panic(expected = "read ratio")]
    fn rejects_bad_ratio() {
        let _ = WorkloadSpec::with_read_ratio(1.5, 32, 10);
    }
}
