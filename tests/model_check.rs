//! Explicit-state model checker for the failover and migration lifecycles,
//! as a client of the scenario harness (`tests/scenario/mod.rs`).
//!
//! A state is a row — two keys under immediate group commit, no ops of its
//! own — whose event schedule is the explored prefix. `Submit(k)` puts
//! without waiting and `Pump` moves every group, an in-flight migration
//! and client 0 one step in both rows:
//!
//! * **failover** — one node of three replicas: replica 0 is partitioned
//!   and healed or rolled back by its host, the journal compacts, and the
//!   primary's machine is lost with a plain or a staged promotion
//!   (`FailNode`). Of what a second promotion needs to show a lost
//!   session the row lacks only the crash budget: under its immediate
//!   commit one `Pump` acks a put, so the oracles see the loss at R = 2
//!   or 3 alike, while `batched(4, 2)` needs more pumps before the ack.
//!   The schedule is pinned as a replay test;
//! * **migration** — two nodes of one replica each: the hot key's ring
//!   segment moves to the other node clean or with its first shipment torn
//!   or corrupted (`Migrate`), and either node's process crashes
//!   (`Restart`) or its machine is lost (`FailNode`); past the default
//!   depth either node's journal also compacts.
//!
//! Every state is rebuilt from its prefix and checked by the harness's
//! seven oracles and its catch-up rule after every event, then closed —
//! drained under a fair schedule and read back. Depth-first search
//! deduplicates states by [`Harness::fingerprint`] plus the budgets left,
//! so it exhausts the bounded space instead of enumerating redundant
//! interleavings.
//!
//! A counterexample is the failing prefix printed with `{:?}`: a
//! `Vec<Event>` a reader can paste into the row. The failing run itself
//! goes to `PRECURSOR_AUDIT_DIR` like any sweep's. The self-tests seed both
//! [`ProtocolBug`]s and require a counterexample that rebuilds to the same
//! violation and that the honest protocol passes.
//!
//! One knob, `PRECURSOR_MC_DEPTH` (default 9, nightly 12), bounds the
//! schedule length; a schedule holds at most `depth / 4` submits, twice as
//! many pumps, two compactions, one crash and two migrations. The unique
//! states each row reaches at the default depth are
//! `bench_results/explorer.csv`, and exhausting a row there must visit
//! exactly that many: a change in reachable protocol state is a change to
//! that file.

use std::collections::HashSet;

use precursor::ProtocolBug;
use precursor_storage::stable_key_hash;

#[path = "scenario/mod.rs"]
mod scenario;
use precursor::HostMove;
use scenario::{dump, Event, Harness, Pick, Scenario, Violation};
use Event::*;

const KEYS: u8 = 2;
// Unique states a run may visit; the nightly migration row needs 60 %.
const STATES: usize = 1_000_000;
// Failovers and restarts per schedule. A second one waits for a node that
// has lost its quorum to answer `Unavailable`; until then
// `two_failovers_keep_a_session_that_saw_an_ack` replays the two-crash
// schedule the failover row would reach.
const CRASHES: usize = 1;
// Compactions per schedule: the second cut follows a committed one, so
// oracle 5 restores a fold or a carried base.
const COMPACTS: usize = 2;
// Catch-up records a staged promotion drains per pump.
const STAGED: usize = 2;
// Migrations per schedule: an aborted one can be retried.
const MIGRATES: usize = 2;
// The depth without `PRECURSOR_MC_DEPTH`. Beyond it the migration row also
// compacts either node: at depth 9 that is 58 007 states, slow in a debug
// build, and at depth 12 599 915.
const DEFAULT_DEPTH: usize = 9;

fn depth() -> usize {
    let depth = std::env::var("PRECURSOR_MC_DEPTH").ok();
    depth.and_then(|d| d.parse().ok()).unwrap_or(DEFAULT_DEPTH)
}

// The rows the explorer walks.
#[derive(Debug, Clone, Copy)]
enum Row {
    Failover,
    Migration,
}

impl Row {
    // The row with `schedule` as its events.
    fn with(self, schedule: &[Event], bug: Option<ProtocolBug>) -> Scenario {
        let (nodes, replicas) = match self {
            Row::Failover => (1, 3),
            Row::Migration => (2, 1),
        };
        Scenario {
            nodes,
            replicas,
            keys: KEYS,
            ops: 0,
            events: schedule.iter().map(|&e| (0, e)).collect(),
            bug,
            ..Scenario::journaled(0)
        }
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
    migrates: usize,
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
                Migrate { .. } => u.migrates += 1,
                Restart(_) => u.crashes += 1,
                // The promoted primary's replica links start healthy.
                FailNode { .. } => (u.crashes, u.partitioned) = (u.crashes + 1, false),
                _ => {}
            }
        }
        u
    }

    // The events enabled after the schedule, in a fixed exploration order.
    fn enabled(&self, row: Row, h: &Harness, depth: usize) -> Vec<Event> {
        let ops = depth / 4;
        let mut out = Vec::new();
        if self.pumps < 2 * ops {
            out.push(Pump);
        }
        if self.submits < ops {
            // Keys no submit touched yet are interchangeable: try one.
            out.extend((0..KEYS.min(self.keys + 1)).map(Submit));
        }
        match row {
            Row::Failover => self.failover(h, &mut out),
            Row::Migration => self.migration(h, depth, &mut out),
        }
        out
    }

    // The failover row's own events: replica faults, compaction, and a
    // plain or staged promotion.
    fn failover(&self, h: &Harness, out: &mut Vec<Event>) {
        if self.crashes == 0 {
            if !self.partitioned && self.partitions == 0 {
                out.push(PartitionReplica);
            }
            if self.partitioned {
                out.push(HealReplica);
            }
            if !self.rolled && !h.group().replica_log(0).bytes().is_empty() {
                out.push(RollbackReplica);
            }
        }
        self.compact(h, 0, out);
        if self.crashes < CRASHES {
            for batch in [usize::MAX, STAGED] {
                out.push(FailNode { node: 0, batch });
            }
        }
    }

    // The migration row's own events: a clean, torn or corrupted
    // migration, either node's restart or promotion, and past the default
    // depth either node's compaction.
    fn migration(&self, h: &Harness, depth: usize, out: &mut Vec<Event>) {
        if self.migrates < MIGRATES {
            for fault in [None, Some(HostMove::Drop), Some(HostMove::Corrupt)] {
                out.push(Migrate {
                    key: Pick::Hot,
                    fault,
                });
            }
        }
        if depth > DEFAULT_DEPTH {
            for node in 0..h.cluster.node_count() {
                self.compact(h, node, out);
            }
        }
        if self.crashes < CRASHES {
            for node in 0..h.cluster.node_count() {
                out.push(Restart(node));
                out.push(FailNode {
                    node,
                    batch: usize::MAX,
                });
            }
        }
    }

    // A compaction of `node`, when it has committed journal to cut.
    fn compact(&self, h: &Harness, node: usize, out: &mut Vec<Event>) {
        let p = h.cluster.node(node);
        let Some(journal) = p.journal() else {
            return;
        };
        let quiescent = p.journal_committed_seq() >= journal.last_seq();
        if self.compacts < COMPACTS && journal.last_seq() > journal.log().base_seq() && quiescent {
            out.push(Compact { node, crash: None });
        }
    }
}

struct Counterexample {
    schedule: Vec<Event>,
    violation: Violation,
}

// Depth-first search over every schedule of `row` of at most `depth`
// events; returns the unique states it visited.
fn explore(row: Row, depth: usize, bug: Option<ProtocolBug>) -> Result<usize, Counterexample> {
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
        let mut h = row.with(&schedule, bug).build();
        h.play().map_err(found)?;
        let used = Used::of(&schedule);
        if !seen.insert(stable_key_hash(&(h.fingerprint(), &used))) {
            continue;
        }
        let next = (schedule.len() < depth).then(|| used.enabled(row, &h, depth));
        h.close().map_err(found)?;
        for e in next.into_iter().flatten().rev() {
            stack.push([schedule.as_slice(), &[e]].concat());
        }
    }
    Ok(seen.len())
}

// Exhausts `row` at the configured depth with zero violations.
fn exhaust(row: Row) {
    let depth = depth();
    let states = explore(row, depth, None).unwrap_or_else(|cex| {
        let what = format!("{}\nschedule: {:?}", cex.violation.what, cex.schedule);
        dump("model-check", &cex.violation.run, &what);
        panic!("{row:?} row: invariant violated: {what}")
    });
    println!("model-check: {row:?} row, {states} unique states exhausted at depth {depth}");
    assert!(
        states > 200,
        "{states} states: the bounds or the dedup broke"
    );
    if depth == DEFAULT_DEPTH {
        let line = format!("{},{depth},{states}", format!("{row:?}").to_lowercase());
        let reach = include_str!("../bench_results/explorer.csv");
        assert!(
            reach.lines().any(|l| l == line),
            "{line} is not in bench_results/explorer.csv: the reachable state changed"
        );
    }
}

#[test]
fn bounded_state_space_is_exhausted_with_zero_violations() {
    exhaust(Row::Failover);
}

#[test]
fn migration_row_is_exhausted_with_zero_violations() {
    exhaust(Row::Migration);
}

// The explorer finds a counterexample to the seeded bug naming
// `invariant`; its schedule rebuilds to the same violation, and the honest
// protocol passes it.
fn finds(bug: ProtocolBug, invariant: &str) {
    let cex = explore(Row::Failover, depth(), Some(bug)).expect_err("a counterexample");
    let (schedule, what) = (cex.schedule, cex.violation.what);
    println!("counterexample ({what}): {schedule:?}");
    assert!(what.contains(invariant), "{what}");
    let replayed = Row::Failover.with(&schedule, Some(bug)).run();
    let replayed = replayed.expect_err("it rebuilds");
    assert!(replayed.what.contains(invariant), "{}", replayed.what);
    let honest = Row::Failover.with(&schedule, None).run();
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
    let run = Row::Failover.with(&schedule, None).run();
    run.unwrap_or_else(|v| panic!("{}", v.what));
}

#[test]
fn a_restarted_node_resumes_a_window_behind_an_in_flight_op() {
    // The first submit is redirected by the fence that moved its key away
    // and back: the redirect consumed its oid, which no journal record
    // holds. The restarted owner recovered a window behind the second
    // submit, still in flight, and rejected every op of the session as a
    // replay until the session's first request, sealed under its new key,
    // moved the window up to its own oid.
    let moved = Migrate {
        key: Pick::Hot,
        fault: None,
    };
    let schedule = vec![Submit(0), moved, moved, Pump, Submit(0), Restart(1)];
    let run = Row::Migration.with(&schedule, None).run();
    run.unwrap_or_else(|v| panic!("{}", v.what));
}

#[test]
fn two_failovers_keep_a_session_that_saw_an_ack() {
    // Client 0's put is acked under the row's immediate commit, then the
    // primary's machine is lost twice. The first promotion recovers the
    // client's window from the journal; unless the epoch-base snapshot it
    // seals carries that window, the second promotion forgets a session
    // that saw an ack, and the harness flags the refused reconnect as an
    // unflagged stale promotion.
    let fail = FailNode {
        node: 0,
        batch: usize::MAX,
    };
    let schedule = vec![Submit(0), Pump, fail, fail];
    let run = Row::Failover.with(&schedule, None).run();
    let run = run.unwrap_or_else(|v| panic!("{}", v.what));
    assert_eq!(run.failovers.len(), 2);
}
