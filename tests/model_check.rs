//! Explicit-state model checker for the failover lifecycle, as a client of
//! the scenario harness (`tests/scenario/mod.rs`).
//!
//! A state is one row — one node of three replicas under immediate group
//! commit, two keys, no ops of its own — whose event schedule is the
//! explored prefix: `Submit(k)` puts without waiting, `Pump` moves the
//! group and client 0 one step, replica 0 is partitioned and healed or
//! rolled back by its host, the journal compacts, and the primary's machine
//! is lost with a plain or a staged promotion (`FailNode`). Every state is
//! rebuilt from its prefix and checked by the harness's seven oracles and
//! its catch-up rule after every event, then closed — drained under a
//! fair schedule and read back. Depth-first search deduplicates states by
//! [`Harness::fingerprint`] plus the budgets left, so it exhausts the
//! bounded space instead of enumerating redundant interleavings.
//!
//! A counterexample is the failing prefix printed with `{:?}`: a
//! `Vec<Event>` a reader can paste into the row. The failing run itself
//! goes to `PRECURSOR_AUDIT_DIR` like any sweep's. The self-tests seed both
//! [`ProtocolBug`]s and require a counterexample that rebuilds to the same
//! violation and that the honest protocol passes.
//!
//! One knob, `PRECURSOR_MC_DEPTH` (default 9, nightly 12), bounds the
//! schedule length; a schedule holds at most `depth / 4` submits, twice as
//! many pumps and two compactions.

use std::collections::HashSet;

use precursor::ProtocolBug;
use precursor_storage::stable_key_hash;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{dump, Event, Harness, Scenario, Violation};
use Event::*;

const KEYS: u8 = 2;
// Unique states a run may visit; the nightly bound needs under 3 %.
const STATES: usize = 1_000_000;
// Failovers per schedule.
const CRASHES: usize = 1;
// Compactions per schedule: the second cut follows a committed one, so
// oracle 5 restores a fold or a carried base.
const COMPACTS: usize = 2;
// Catch-up records a staged promotion drains per pump.
const STAGED: usize = 2;

fn depth() -> usize {
    let depth = std::env::var("PRECURSOR_MC_DEPTH").ok();
    depth.and_then(|d| d.parse().ok()).unwrap_or(9)
}

// The explorer's row with `schedule` as its events.
fn row(schedule: &[Event], bug: Option<ProtocolBug>) -> Scenario {
    Scenario {
        replicas: 3,
        keys: KEYS,
        ops: 0,
        events: schedule.iter().map(|&e| (0, e)).collect(),
        bug,
        ..Scenario::journaled(0)
    }
}

// The budgets a schedule has used.
#[derive(Debug, Default, Hash)]
struct Used {
    pumps: usize,
    submits: usize,
    // Keys `0..keys` were submitted to.
    keys: u8,
    crashes: usize,
    compacts: usize,
    partitioned: bool,
    partitions: usize,
    rolled: bool,
}

impl Used {
    fn of(schedule: &[Event]) -> Used {
        let mut u = Used::default();
        for e in schedule {
            match e {
                Pump => u.pumps += 1,
                Submit(k) => (u.submits, u.keys) = (u.submits + 1, u.keys.max(k + 1)),
                PartitionReplica => (u.partitioned, u.partitions) = (true, u.partitions + 1),
                HealReplica => u.partitioned = false,
                RollbackReplica => u.rolled = true,
                Compact { .. } => u.compacts += 1,
                // The promoted primary's replica links start healthy.
                FailNode { .. } => (u.crashes, u.partitioned) = (u.crashes + 1, false),
                _ => {}
            }
        }
        u
    }

    // The events enabled after the schedule, in a fixed exploration order.
    fn enabled(&self, h: &Harness, depth: usize) -> Vec<Event> {
        let ops = depth / 4;
        let mut out = Vec::new();
        if self.pumps < 2 * ops {
            out.push(Pump);
        }
        if self.submits < ops {
            // Keys no submit touched yet are interchangeable: try one.
            out.extend((0..KEYS.min(self.keys + 1)).map(Submit));
        }
        if self.crashes == 0 {
            if !self.partitioned && self.partitions == 0 {
                out.push(PartitionReplica);
            }
            if self.partitioned {
                out.push(HealReplica);
            }
            if !self.rolled && h.group().replica_journal_len(0) > 0 {
                out.push(RollbackReplica);
            }
        }
        let p = h.group().primary();
        let quiescent = p.journal_committed_seq() >= p.journal_last_seq();
        if self.compacts < COMPACTS && p.journal_last_seq() > p.journal_base_seq() && quiescent {
            out.push(Compact {
                node: 0,
                crash: None,
            });
        }
        if self.crashes < CRASHES {
            for batch in [usize::MAX, STAGED] {
                out.push(FailNode { node: 0, batch });
            }
        }
        out
    }
}

struct Counterexample {
    schedule: Vec<Event>,
    violation: Violation,
}

// Depth-first search over every schedule of at most `depth` events; returns
// the unique states it visited.
fn explore(depth: usize, bug: Option<ProtocolBug>) -> Result<usize, Counterexample> {
    let mut seen = HashSet::new();
    let mut stack = vec![Vec::new()];
    while let Some(schedule) = stack.pop() {
        assert!(
            seen.len() < STATES,
            "{STATES} states do not exhaust depth {depth}"
        );
        let found = |violation| Counterexample {
            schedule: schedule.clone(),
            violation,
        };
        let mut h = row(&schedule, bug).build();
        h.play().map_err(found)?;
        let used = Used::of(&schedule);
        if !seen.insert(stable_key_hash(&(h.fingerprint(), &used))) {
            continue;
        }
        let next = (schedule.len() < depth).then(|| used.enabled(&h, depth));
        h.close().map_err(found)?;
        for e in next.into_iter().flatten().rev() {
            stack.push([schedule.as_slice(), &[e]].concat());
        }
    }
    Ok(seen.len())
}

#[test]
fn bounded_state_space_is_exhausted_with_zero_violations() {
    let depth = depth();
    let states = explore(depth, None).unwrap_or_else(|cex| {
        let what = format!("{}\nschedule: {:?}", cex.violation.what, cex.schedule);
        dump("model-check", &cex.violation.run, &what);
        panic!("invariant violated: {what}")
    });
    println!("model-check: {states} unique states exhausted at depth {depth}");
    assert!(
        states > 200,
        "{states} states: the bounds or the dedup broke"
    );
}

// The explorer finds a counterexample to the seeded bug naming
// `invariant`; its schedule rebuilds to the same violation, and the honest
// protocol passes it.
fn finds(bug: ProtocolBug, invariant: &str) {
    let cex = explore(depth(), Some(bug)).expect_err("a counterexample");
    let (schedule, what) = (cex.schedule, cex.violation.what);
    println!("counterexample ({what}): {schedule:?}");
    assert!(what.contains(invariant), "{what}");
    let replayed = row(&schedule, Some(bug)).run().expect_err("it rebuilds");
    assert!(replayed.what.contains(invariant), "{}", replayed.what);
    let honest = row(&schedule, None).run();
    honest.unwrap_or_else(|v| panic!("the honest protocol fails it: {}", v.what));
}

#[test]
fn seeded_promote_without_quorum_bug_yields_replayable_counterexample() {
    // The bug lies about staleness; the client's rollback check exposes it.
    finds(
        ProtocolBug::PromoteWithoutQuorum,
        "unflagged stale promotion",
    );
}

#[test]
fn seeded_skip_quarantine_bug_yields_replayable_counterexample() {
    finds(
        ProtocolBug::SkipRollbackQuarantine,
        "rolled-back replica not quarantined",
    );
}

#[test]
fn compaction_waits_for_a_staged_catch_up_to_drain() {
    // Until a staged promotion drains, the group's root recovers the empty
    // store; a cut here sealed the applied prefix and changed recovery.
    let schedule = vec![
        Pump,
        Pump,
        Pump,
        Pump,
        Submit(0),
        Submit(0),
        Submit(0),
        Pump,
        RollbackReplica,
        FailNode {
            node: 0,
            batch: STAGED,
        },
        Pump,
        Compact {
            node: 0,
            crash: None,
        },
    ];
    let run = row(&schedule, None).run();
    run.unwrap_or_else(|v| panic!("{}", v.what));
}
