//! Trusted monotonic counters.
//!
//! SGX provides monotonic counters and trusted time to detect state rollback
//! and forking when data is persisted (§2.1). Precursor is an in-memory
//! store, so the paper only notes that prior prevention techniques "can be
//! integrated into our design"; this module provides that integration point.

/// A trusted monotonic counter: reads never observe a smaller value than any
/// earlier read, and increments are atomic with respect to the model.
///
/// # Fork surface
///
/// The type derives [`Clone`] *deliberately*: a Byzantine host controls the
/// platform services the counter runs on, and SGX's counters have known
/// weaknesses (service replacement, NVRAM wear-out resets) that amount to
/// an attacker keeping a *copy* of the counter state. Cloning a counter and
/// restoring an old sealed snapshot against the clone models exactly that
/// defeat: the restore succeeds, and detection falls to the *clients* —
/// their `store_seq` regression check and the cross-client fork audit (see
/// `precursor::client`). The byzantine test suite stages rollback and fork
/// attacks this way.
///
/// # Example
///
/// ```
/// use precursor_sgx::counters::MonotonicCounter;
/// let mut c = MonotonicCounter::new();
/// assert_eq!(c.increment(), 1);
/// assert_eq!(c.increment(), 2);
/// assert_eq!(c.read(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MonotonicCounter {
    value: u64,
}

impl MonotonicCounter {
    /// Creates a counter at zero.
    pub fn new() -> MonotonicCounter {
        MonotonicCounter { value: 0 }
    }

    /// Increments and returns the new value.
    pub fn increment(&mut self) -> u64 {
        self.value += 1;
        self.value
    }

    /// Reads the current value.
    pub fn read(&self) -> u64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increments_monotonically() {
        let mut c = MonotonicCounter::new();
        let mut prev = c.read();
        for _ in 0..100 {
            let v = c.increment();
            assert!(v > prev);
            prev = v;
        }
    }

    #[test]
    fn cloned_counter_models_a_forked_platform() {
        // The attacker's copy diverges from the genuine counter: state
        // sealed at version 1 is current for the clone but stale for the
        // genuine counter — a fork only clients can detect.
        let mut genuine = MonotonicCounter::new();
        genuine.increment(); // version 1 sealed here
        let forked = genuine.clone();
        genuine.increment(); // genuine moves on to version 2
        assert_eq!(genuine.read(), 2, "genuine counter: version 1 is stale");
        assert_eq!(forked.read(), 1, "forked copy still at version 1");
    }
}
