//! Ring-buffered structured-event tracer stamped with sim virtual time.
//!
//! Events carry only `&'static str` labels and integer payloads, so
//! recording never allocates per-event beyond the bounded ring and the
//! whole stream is deterministic for a fixed seed. A running FNV-1a
//! digest is folded over *every* recorded event — including ones later
//! evicted from the ring — so determinism tests can pin the digest of
//! arbitrarily long traces without retaining them.

use std::collections::VecDeque;

use precursor_sim::time::Nanos;

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp (client clock or server logical poll time).
    pub at: Nanos,
    /// Pipeline stage that emitted the event (e.g. `"ingress"`, `"exec"`).
    pub stage: &'static str,
    /// Event name within the stage (e.g. `"validate"`, `"seal"`).
    pub event: &'static str,
    /// First payload word (typically a client or op identifier).
    pub a: u64,
    /// Second payload word (typically a length, status or cycle count).
    pub b: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A bounded, deterministic event ring.
///
/// When disabled (the default), [`Tracer::record`] is a single branch
/// and no state changes, so instrumented hot paths stay zero-cost.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    ring: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
    digest: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Tracer {
    /// A tracer that ignores every [`record`](Self::record) call.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            cap: 0,
            ring: VecDeque::new(),
            recorded: 0,
            dropped: 0,
            digest: FNV_OFFSET,
        }
    }

    /// A tracer retaining the most recent `cap` events.
    pub fn enabled(cap: usize) -> Self {
        Self {
            enabled: true,
            cap: cap.max(1),
            ring: VecDeque::with_capacity(cap.clamp(1, 4096)),
            recorded: 0,
            dropped: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Record one event. No-op when disabled.
    pub fn record(&mut self, at: Nanos, stage: &'static str, event: &'static str, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        let mut h = self.digest;
        h = fnv1a(h, &at.0.to_le_bytes());
        h = fnv1a(h, stage.as_bytes());
        h = fnv1a(h, event.as_bytes());
        h = fnv1a(h, &a.to_le_bytes());
        h = fnv1a(h, &b.to_le_bytes());
        self.digest = h;
        self.recorded += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent {
            at,
            stage,
            event,
            a,
            b,
        });
    }

    /// Total events recorded since creation (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Running FNV-1a digest over every recorded event. Stable across
    /// ring eviction; equal digests ⇒ identical event streams (modulo
    /// hash collisions).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The retained (most recent) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        let base = t.digest();
        t.record(Nanos(1), "s", "e", 1, 2);
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.digest(), base);
    }

    #[test]
    fn digest_survives_eviction() {
        let mut small = Tracer::enabled(2);
        let mut big = Tracer::enabled(1024);
        for i in 0..100 {
            small.record(Nanos(i), "stage", "ev", i, i * 2);
            big.record(Nanos(i), "stage", "ev", i, i * 2);
        }
        assert_eq!(small.digest(), big.digest());
        assert_eq!(small.recorded(), 100);
        assert_eq!(small.dropped(), 98);
        assert_eq!(small.events().count(), 2);
    }
}
