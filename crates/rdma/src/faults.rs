//! Deterministic, seeded fault injection for the simulated transports.
//!
//! Real RDMA deployments lose frames to link errors, see QPs transition to
//! error, and suffer DMA into untrusted memory being corrupted by a hostile
//! host — exactly the faults Precursor's client-side integrity checks and
//! the recovery protocol must survive. A [`FaultPlan`] describes *which*
//! faults to inject (exact scripted rules and/or probabilistic rates); a
//! [`FaultInjector`] executes the plan, driven by a [`SimRng`] so every
//! chaos run replays bit-identically from its seed.
//!
//! The model holds only the traffic the store generates ([`FaultSite`]):
//! the one-sided WRITEs of a
//! [`connect_pair_faulty`](crate::qp::connect_pair_faulty) pair (the
//! injector is shared by its two endpoints), and the durable writes and
//! migration shipments the server and cluster pass through
//! [`FaultInjector::on_durable_write`]. Each event may trigger at most one
//! [`FaultAction`] — a drop, a bit flip or a QP error; everything injected
//! is recorded in a log the chaos harness can audit ("every injected fault
//! ended in recovery or a typed error").

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use precursor_sim::rng::SimRng;

/// Which transport event stream a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A one-sided WRITE (ring frames and payloads travel this way).
    Write,
    /// A sealed snapshot being written to untrusted durable storage — the
    /// host can kill the process mid-write, leaving a torn blob.
    SnapshotSeal,
    /// A journal group-commit flush to untrusted durable storage — same
    /// mid-write kill surface as [`FaultSite::SnapshotSeal`].
    JournalFlush,
    /// The prefix-truncation step of a journal compaction: the host kills
    /// the process *after* the snapshot sealed but *before* (or while) the
    /// journal prefix is cut. Any damage verdict at this site models that
    /// death — the snapshot and the whole journal both survive, so
    /// recovery must reach the same state digest either way.
    CompactTruncate,
    /// A cluster migration segment being shipped from the source node to
    /// the destination. `Drop` models the source process dying mid-transfer
    /// (the segment never lands, the migration aborts before its fence);
    /// `Corrupt` models host tampering with the sealed segment in transit
    /// (the destination's GCM open rejects it).
    MigrateShip,
}

/// Which direction of a pair a fault applies to. Endpoint *A* is the first
/// element returned by the pair constructor; Precursor wires the client as
/// *A* and the server as *B*, so `AtoB` faults hit requests and `BtoA`
/// faults hit replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDir {
    /// Events originated by endpoint A.
    AtoB,
    /// Events originated by endpoint B.
    BtoA,
    /// Events from either endpoint.
    Any,
}

impl FaultDir {
    fn matches(self, from_a: bool) -> bool {
        match self {
            FaultDir::AtoB => from_a,
            FaultDir::BtoA => !from_a,
            FaultDir::Any => true,
        }
    }
}

/// What to do to a matched event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultAction {
    /// Discard the write silently (a durable write tears).
    Drop,
    /// Flip one random bit of the delivered bytes.
    Corrupt,
    /// Transition the owning queue pair to the error state.
    QpError,
}

/// A scripted one-shot fault: fires on the `at`-th matching event
/// (1-based) at `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// Event stream to match.
    pub site: FaultSite,
    /// Direction filter. With [`FaultDir::Any`] the `at` index counts all
    /// events at the site; otherwise it counts only events in that
    /// direction.
    pub dir: FaultDir,
    /// Action to inject.
    pub action: FaultAction,
    /// 1-based index of the matching event to fire on.
    pub at: u64,
}

/// A probabilistic fault: fires on each matching event with probability
/// `prob`, drawn from the injector's seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRate {
    /// Event stream to match.
    pub site: FaultSite,
    /// Direction filter.
    pub dir: FaultDir,
    /// Action to inject.
    pub action: FaultAction,
    /// Per-event probability in `[0, 1]`.
    pub prob: f64,
}

/// A declarative fault schedule: scripted rules checked first, then rates
/// in declaration order. At most one action fires per event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    rates: Vec<FaultRate>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a scripted one-shot rule.
    pub fn rule(mut self, site: FaultSite, dir: FaultDir, action: FaultAction, at: u64) -> Self {
        self.rules.push(FaultRule {
            site,
            dir,
            action,
            at,
        });
        self
    }

    /// Adds a probabilistic rate.
    pub fn rate(mut self, site: FaultSite, dir: FaultDir, action: FaultAction, prob: f64) -> Self {
        self.rates.push(FaultRate {
            site,
            dir,
            action,
            prob: prob.clamp(0.0, 1.0),
        });
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.rates.is_empty()
    }
}

/// One injected fault, as recorded in the injector's audit log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Event stream the fault hit.
    pub site: FaultSite,
    /// Whether endpoint A originated the event.
    pub from_a: bool,
    /// Action taken.
    pub action: FaultAction,
    /// 1-based index of the event among all events at this site.
    pub event: u64,
}

/// Verdict for a one-sided WRITE passed through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteVerdict {
    /// Place the (possibly corrupted) bytes in peer memory.
    Deliver,
    /// The write is lost: bytes never land, yet posting reports success —
    /// the silent loss the client's deadline must catch.
    Drop,
    /// The QP transitions to the error state; the post fails.
    Error,
}

/// Verdict for a durable write (snapshot seal / journal flush) passed
/// through the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableVerdict {
    /// Every byte reached durable storage.
    Complete,
    /// The process died mid-write: only the first `n` bytes landed.
    Torn(usize),
    /// All bytes landed but bit `i` of the write flipped.
    Corrupt(usize),
}

/// Executes a [`FaultPlan`] against the WRITE, durable-write and
/// migration event streams.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    totals: HashMap<FaultSite, u64>,
    by_dir: HashMap<(FaultSite, bool), u64>,
    log: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Creates an injector executing `plan` with randomness seeded from
    /// `seed`. Identical plans + seeds + event streams inject identical
    /// faults.
    pub fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector {
            plan,
            rng: SimRng::seed_from(seed),
            totals: HashMap::new(),
            by_dir: HashMap::new(),
            log: Vec::new(),
        }
    }

    /// Convenience: a shareable injector handle as the transport
    /// constructors expect it.
    pub fn shared(plan: FaultPlan, seed: u64) -> Arc<Mutex<FaultInjector>> {
        Arc::new(Mutex::new(FaultInjector::new(plan, seed)))
    }

    /// The audit log of every fault injected so far.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> usize {
        self.log.len()
    }

    fn pick(&mut self, site: FaultSite, from_a: bool) -> Option<FaultAction> {
        let total = {
            let c = self.totals.entry(site).or_insert(0);
            *c += 1;
            *c
        };
        let directional = {
            let c = self.by_dir.entry((site, from_a)).or_insert(0);
            *c += 1;
            *c
        };
        let mut hit = None;
        for r in &self.plan.rules {
            if r.site != site || !r.dir.matches(from_a) {
                continue;
            }
            let n = if r.dir == FaultDir::Any {
                total
            } else {
                directional
            };
            if n == r.at {
                hit = Some(r.action);
                break;
            }
        }
        if hit.is_none() {
            for r in &self.plan.rates {
                if r.site != site || !r.dir.matches(from_a) {
                    continue;
                }
                // Always draw so the RNG stream is independent of earlier
                // hits — keeps replays stable under plan tweaks.
                let fire = self.rng.gen_bool(r.prob);
                if fire && hit.is_none() {
                    hit = Some(r.action);
                }
            }
        }
        if let Some(action) = hit {
            self.log.push(InjectedFault {
                site,
                from_a,
                action,
                event: total,
            });
        }
        hit
    }

    fn flip_bit(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        let pos = self.rng.gen_range(data.len() as u64) as usize;
        let bit = self.rng.gen_range(8) as u8;
        data[pos] ^= 1 << bit;
    }

    /// Passes a one-sided WRITE through the plan, possibly corrupting the
    /// bytes in place.
    pub fn on_write(&mut self, from_a: bool, data: &mut [u8]) -> WriteVerdict {
        match self.pick(FaultSite::Write, from_a) {
            None => WriteVerdict::Deliver,
            Some(FaultAction::Drop) => WriteVerdict::Drop,
            Some(FaultAction::Corrupt) => {
                self.flip_bit(data);
                WriteVerdict::Deliver
            }
            Some(FaultAction::QpError) => WriteVerdict::Error,
        }
    }

    /// Passes a `len`-byte durable write (snapshot seal or journal flush)
    /// through the plan. `Drop` models the host killing the process
    /// mid-write: only a strict prefix of the bytes lands. `Corrupt` lands
    /// every byte but flips one bit. `QpError` kills the writer before the
    /// first byte: nothing lands.
    ///
    /// Durable-write sites have their own event counters, and the RNG is
    /// only drawn when a rule fires (or a rate targets the site), so adding
    /// these sites leaves every pre-existing seeded schedule untouched.
    pub fn on_durable_write(&mut self, site: FaultSite, len: usize) -> DurableVerdict {
        debug_assert!(matches!(
            site,
            FaultSite::SnapshotSeal
                | FaultSite::JournalFlush
                | FaultSite::CompactTruncate
                | FaultSite::MigrateShip
        ));
        match self.pick(site, true) {
            None => DurableVerdict::Complete,
            Some(FaultAction::Drop) => {
                // Strictly partial: at least the last byte is lost.
                let keep = if len == 0 {
                    0
                } else {
                    self.rng.gen_range(len as u64) as usize
                };
                DurableVerdict::Torn(keep)
            }
            Some(FaultAction::Corrupt) => {
                let bit = if len == 0 {
                    0
                } else {
                    self.rng.gen_range(len as u64 * 8) as usize
                };
                DurableVerdict::Corrupt(bit)
            }
            Some(FaultAction::QpError) => DurableVerdict::Torn(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_injects() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 1);
        for i in 0..100u8 {
            let mut d = vec![i];
            assert_eq!(inj.on_write(i % 2 == 0, &mut d), WriteVerdict::Deliver);
            assert_eq!(d, vec![i]);
            assert_eq!(
                inj.on_durable_write(FaultSite::JournalFlush, 64),
                DurableVerdict::Complete
            );
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn scripted_rule_fires_on_exact_event() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::AtoB, FaultAction::Drop, 3);
        let mut inj = FaultInjector::new(plan, 7);
        let mut verdicts = Vec::new();
        for _ in 0..5 {
            let mut d = vec![0u8; 4];
            verdicts.push(inj.on_write(true, &mut d));
        }
        assert_eq!(
            verdicts,
            vec![
                WriteVerdict::Deliver,
                WriteVerdict::Deliver,
                WriteVerdict::Drop,
                WriteVerdict::Deliver,
                WriteVerdict::Deliver,
            ]
        );
        assert_eq!(inj.injected(), 1);
        assert_eq!(inj.log()[0].action, FaultAction::Drop);
    }

    #[test]
    fn directional_rules_count_per_direction() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::BtoA, FaultAction::Drop, 2);
        let mut inj = FaultInjector::new(plan, 7);
        let mut d = vec![1u8];
        // A→B events do not advance the B→A counter.
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(inj.on_write(false, &mut d), WriteVerdict::Deliver);
        assert_eq!(inj.on_write(false, &mut d), WriteVerdict::Drop);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::Any, FaultAction::Corrupt, 1);
        let mut inj = FaultInjector::new(plan, 3);
        let orig = vec![0u8; 32];
        let mut d = orig.clone();
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        let flipped: u32 = d.iter().zip(&orig).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn qp_error_action_fails_only_its_write() {
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::Any, FaultAction::QpError, 2);
        let mut inj = FaultInjector::new(plan, 5);
        let mut d = vec![0u8];
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Error);
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
    }

    #[test]
    fn durable_write_faults_tear_and_corrupt() {
        let plan = FaultPlan::none()
            .rule(FaultSite::JournalFlush, FaultDir::Any, FaultAction::Drop, 2)
            .rule(
                FaultSite::SnapshotSeal,
                FaultDir::Any,
                FaultAction::Corrupt,
                1,
            );
        let mut inj = FaultInjector::new(plan, 9);
        assert_eq!(
            inj.on_durable_write(FaultSite::JournalFlush, 64),
            DurableVerdict::Complete
        );
        match inj.on_durable_write(FaultSite::JournalFlush, 64) {
            DurableVerdict::Torn(n) => assert!(n < 64, "torn write keeps a strict prefix"),
            v => panic!("expected torn, got {v:?}"),
        }
        match inj.on_durable_write(FaultSite::SnapshotSeal, 8) {
            DurableVerdict::Corrupt(bit) => assert!(bit < 64),
            v => panic!("expected corrupt, got {v:?}"),
        }
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn durable_sites_have_independent_counters() {
        // A Write-site rule must not fire on journal-flush events and the
        // new sites must not advance the Write counter — pre-existing
        // seeded schedules stay byte-identical.
        let plan = FaultPlan::none().rule(FaultSite::Write, FaultDir::Any, FaultAction::Drop, 2);
        let mut inj = FaultInjector::new(plan, 9);
        let mut d = vec![0u8; 4];
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_eq!(
            inj.on_durable_write(FaultSite::JournalFlush, 32),
            DurableVerdict::Complete
        );
        assert_eq!(
            inj.on_write(true, &mut d),
            WriteVerdict::Drop,
            "write counter unaffected by durable events"
        );
    }

    #[test]
    fn rates_are_deterministic_per_seed() {
        let plan =
            || FaultPlan::none().rate(FaultSite::Write, FaultDir::Any, FaultAction::Drop, 0.3);
        let run = |seed| {
            let mut inj = FaultInjector::new(plan(), seed);
            (0..200)
                .map(|_| {
                    let mut d = vec![0u8; 8];
                    inj.on_write(true, &mut d) == WriteVerdict::Drop
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds give different schedules");
        let drops = run(11).iter().filter(|&&d| d).count();
        assert!((30..90).contains(&drops), "~30% of 200, got {drops}");
    }

    #[test]
    fn first_matching_rule_wins_over_rates() {
        let plan = FaultPlan::none()
            .rule(FaultSite::Write, FaultDir::Any, FaultAction::Corrupt, 1)
            .rate(FaultSite::Write, FaultDir::Any, FaultAction::Drop, 1.0);
        let mut inj = FaultInjector::new(plan, 1);
        let mut d = vec![0u8; 4];
        assert_eq!(inj.on_write(true, &mut d), WriteVerdict::Deliver);
        assert_ne!(d, vec![0u8; 4], "corrupted, not dropped");
        let mut d2 = vec![0u8; 4];
        assert_eq!(
            inj.on_write(true, &mut d2),
            WriteVerdict::Drop,
            "rate applies after"
        );
    }
}
