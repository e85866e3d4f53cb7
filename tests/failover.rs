//! Replicated-journal failover suite: quorum group commit, deterministic
//! failover, and cross-replica rollback/fork detection.
//!
//! The safety oracles, checked across every scenario and seed:
//!
//! * **No lost acked writes** — an operation whose reply was released by
//!   the group-commit gate survives any minority of node failures: after
//!   failover the promoted replica's journal replays it bit-identically
//!   (store evidence re-derived and checked record by record).
//! * **At-most-once across failover** — clients resynchronise their `oid`
//!   from the reconnect bundle; a mutation acked before the crash is
//!   re-acknowledged, never re-applied.
//! * **No undetected rollback/fork** — a replica whose journal rolled
//!   back behind its own acknowledgements is quarantined and never
//!   promoted; divergent replica journals fail the cross-replica audit;
//!   a stale promotion after majority loss is flagged and caught by the
//!   clients' own `max_store_seq` check.
//!
//! The seeded sweep is the failover row of the scenario harness
//! (`tests/scenario/mod.rs`); the scripted tests build their group there.

use std::collections::HashMap;

use precursor::wire::Status;
use precursor::{CompactOutcome, GroupCommitPolicy, StoreError};

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{sweep, Event, Harness, Run, Scenario};

const PUMP_BOUND: usize = 400;

// One node of R replicas under `policy`, one client connected.
fn group(seed: u64, replicas: usize, policy: GroupCommitPolicy) -> Harness {
    Scenario {
        replicas,
        journal: Some(policy),
        ..Scenario::new(seed)
    }
    .build()
}

#[test]
fn quorum_commit_releases_replies_and_replicas_converge() {
    let mut h = group(7, 3, GroupCommitPolicy::batched(4, 2));
    assert_eq!(h.group().quorum(), 3, "majority of 4 nodes (primary + 3)");

    for i in 0u8..12 {
        let c = h.put(0, &[i], &[i; 48]).expect("put completes");
        assert_eq!(c.status, Status::Ok);
    }
    // Drain the pipeline: every group flushed, committed and released.
    for _ in 0..8 {
        h.group_mut().pump();
    }
    let (group, primary) = (h.group(), h.group().primary());
    assert!(group.committed_bytes() > 0, "groups committed by quorum");
    assert_eq!(primary.gated_replies(), 0, "no replies stuck");
    let stats = primary.journal().expect("journal attached").stats();
    assert!(stats.flushes > 0 && stats.bytes_sealed > 0);
    let flushes = primary.metrics().counter("journal.group_commit_flushes");
    assert_eq!(flushes, stats.flushes);
    // All healthy replicas converge on the full journal.
    let full = primary.journal().expect("journal").log();
    for i in 0..3 {
        assert_eq!(group.replica_log(i), full, "replica {i} caught up");
    }
    group
        .audit_replicas()
        .expect("no fork among honest replicas");
    assert_eq!(primary.metrics().counter("server.reports_dropped"), 0);
}

#[test]
fn replies_stay_gated_without_quorum_and_release_on_heal() {
    let mut h = group(11, 2, GroupCommitPolicy::batched(1, 0));
    assert_eq!(h.group().quorum(), 2, "2 replicas + primary → quorum 2");
    h.put(0, b"warm", b"up").expect("healthy put");

    // Partition every replica: flushed groups can no longer reach quorum.
    h.group_mut().partition_replica(0);
    h.group_mut().partition_replica(1);
    let oid = h.session(0).put(b"stuck", b"value").expect("submit");
    for _ in 0..40 {
        h.group_mut().pump();
        h.session(0).poll_replies();
    }
    assert!(
        h.session(0).take_completed(oid).is_none(),
        "reply must be gated"
    );
    assert!(h.group().primary().gated_replies() > 0);

    // Heal one replica: quorum is reachable again and the reply releases.
    h.group_mut().heal_replica(0);
    let c = h.complete(0, 0, oid).expect("released after heal");
    assert_eq!(c.status, Status::Ok);
    assert_eq!(h.group().primary().gated_replies(), 0);
}

#[test]
fn lagging_replica_does_not_stall_quorum() {
    let mut h = group(13, 3, GroupCommitPolicy::batched(2, 1));
    h.group_mut().lag_replica(0, 50);
    for i in 0u8..10 {
        h.put(0, &[i], &[i; 32]).expect("put with lagging replica");
    }
    assert!(
        h.group().replica_log(0).end() < h.group().replica_log(1).end(),
        "lagged replica trails"
    );
    assert!(h.group().metrics().gauge("replica.lag_records") > 0);
}

#[test]
fn failover_preserves_state_at_most_once_and_client_checks_pass() {
    let mut h = group(17, 3, GroupCommitPolicy::batched(4, 2));
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for i in 0u8..16 {
        let v = vec![i ^ 0x5a; 24 + i as usize];
        h.put(0, &[i], &v).expect("put");
        model.insert(vec![i], v);
    }
    h.put(0, &[3], b"overwritten").expect("overwrite");
    model.insert(vec![3], b"overwritten".to_vec());
    let oid = h.session(0).delete(&[7]).expect("submit delete");
    h.complete(0, 0, oid).expect("delete");
    model.remove(&vec![7u8]);

    let pre_seq = h.group().primary().mutation_seq();
    let pre_digest = h.group().primary().state_digest();
    let report = h.group_mut().fail_primary(usize::MAX).expect("failover");
    assert!(!report.stale, "no majority loss → nothing rolled back");
    assert!(report.quarantined.is_empty());
    assert!(report.recovery.replayed > 0);
    assert!(!report.recovery.truncated);
    // Bit-identical replay: the promoted node re-derived the same history.
    assert_eq!(h.group().primary().mutation_seq(), pre_seq);
    assert_eq!(h.group().primary().state_digest(), pre_digest);
    assert_eq!(h.group().primary().len(), model.len());
    assert_eq!(h.group().metrics().counter("failover.count"), 1);

    h.reconnect(0, 0).expect("reconnect");
    for (k, v) in &model {
        let c = h.get(0, k).expect("acked write survives");
        assert_eq!(c.value.as_deref(), Some(v.as_slice()), "key {k:?}");
    }
    let c = h.get(0, &[7]);
    assert!(
        matches!(c, Err(StoreError::NotFound)) || matches!(c, Ok(ref r) if r.value.is_none()),
        "acked delete survives"
    );
    // At-most-once window survived: new mutations execute exactly once.
    h.put(0, b"after", b"failover").expect("post-failover put");
    assert!(
        h.session(0).poisoned().is_none(),
        "no false rollback/fork alarm"
    );
}

// The first promotion restores client 0's window from the journal; its
// epoch-base snapshot must carry that window even though the client has not
// re-attested yet, or the second promotion forgets a session that saw an
// ack and the reconnect is refused.
#[test]
fn a_second_failover_keeps_a_session_that_saw_an_ack() {
    let mut h = group(43, 2, GroupCommitPolicy::batched(4, 2));
    h.put(0, b"acked", b"before both failovers").expect("put");
    for _ in 0..8 {
        h.group_mut().pump();
    }
    for round in 0..2 {
        let report = h.group_mut().fail_primary(usize::MAX).expect("failover");
        assert!(!report.stale, "failover {round} lost nothing committed");
    }
    h.reconnect(0, 0)
        .expect("the session outlives both promotions");
    let c = h.get(0, b"acked").expect("get");
    assert_eq!(c.value.as_deref(), Some(&b"before both failovers"[..]));
}

#[test]
fn staged_rollback_replica_is_quarantined_and_never_promoted() {
    let mut h = group(19, 3, GroupCommitPolicy::batched(2, 1));
    for i in 0u8..12 {
        h.put(0, &[i], &[i; 40]).expect("put");
    }
    // Replica 0 stages a rollback: discards half its journal while its
    // acknowledgements stand.
    let keep = h.group().replica_log(0).bytes().len() / 2;
    h.group_mut().rollback_replica(0, keep);

    let report = h.group_mut().fail_primary(usize::MAX).expect("failover");
    assert_eq!(report.quarantined, vec![0], "rollback detected");
    assert_ne!(report.promoted, 0, "rolled-back replica never promoted");
    assert!(!report.stale);
    assert!(h.group().metrics().counter("replica.rollback_detected") >= 1);
}

#[test]
fn all_rolled_back_survivors_fail_failover_with_rollback_detected() {
    let mut h = group(23, 2, GroupCommitPolicy::batched(1, 0));
    for i in 0u8..6 {
        h.put(0, &[i], &[i; 16]).expect("put");
    }
    h.group_mut().rollback_replica(0, 0);
    h.group_mut().rollback_replica(1, 0);
    assert_eq!(
        h.group_mut().fail_primary(usize::MAX).unwrap_err(),
        StoreError::RollbackDetected
    );
    assert!(h.group().replica_quarantined(0) && h.group().replica_quarantined(1));
}

#[test]
fn tampered_replica_journal_fails_cross_replica_audit() {
    let mut h = group(29, 3, GroupCommitPolicy::batched(2, 1));
    for i in 0u8..8 {
        h.put(0, &[i], &[i; 32]).expect("put");
    }
    h.group().audit_replicas().expect("honest replicas agree");
    h.group_mut().tamper_replica(1, 37);
    assert_eq!(
        h.group().audit_replicas().unwrap_err(),
        StoreError::ForkDetected,
        "divergent prefixes are a fork"
    );
}

#[test]
fn stale_promotion_after_majority_loss_is_flagged_and_caught_by_client() {
    let mut h = group(31, 3, GroupCommitPolicy::batched(1, 0));
    for i in 0u8..6 {
        h.put(0, &[i], &[i; 24]).expect("put");
    }
    // Replica 0 falls far behind; replicas 1 and 2 keep the quorum alive
    // for another batch of acked writes, then the majority dies.
    h.group_mut().lag_replica(0, 10_000);
    for i in 6u8..12 {
        h.put(0, &[i], &[i; 24]).expect("put past lagged replica");
    }
    h.group_mut().crash_replica(1);
    h.group_mut().crash_replica(2);

    let report = h.group_mut().fail_primary(usize::MAX).expect("promotion");
    assert_eq!(report.promoted, 0);
    assert!(
        report.stale,
        "promotion behind the committed watermark must be flagged"
    );

    // The client's own rollback check (max_store_seq survives reconnect)
    // catches the stale state on the first acknowledged reply.
    h.reconnect(0, 0).expect("reconnect");
    let outcome = h.get(0, &[0]);
    assert_eq!(outcome.unwrap_err(), StoreError::RollbackDetected);
}

#[test]
fn staged_promotion_serves_reads_during_catchup_and_mutations_get_busy() {
    let mut h = group(41, 3, GroupCommitPolicy::immediate());
    for i in 0u8..24 {
        h.put(0, &[i], &[i ^ 0x33; 40]).expect("put");
    }
    let pre_digest = h.group().primary().state_digest();

    // Staged promotion: one catch-up record per pump tick, so the window
    // where the survivor serves while still draining is wide.
    let report = h.group_mut().fail_primary(1).expect("staged promotion");
    assert!(
        report.recovery.catchup_pending > 0,
        "tail queued for background replay"
    );
    assert!(h.group().primary().in_catchup());
    h.reconnect(0, 0).expect("reconnect");

    // Let a few records apply, then read from the applied prefix while
    // the queue is still draining.
    for _ in 0..6 {
        h.group_mut().pump();
    }
    assert!(h.group().primary().in_catchup(), "queue still draining");

    // The pre-crash client observed the full history: its own
    // `max_store_seq` check must reject the partially-replayed prefix.
    let stale_read = h.get(0, &[0]);
    assert_eq!(
        stale_read.unwrap_err(),
        StoreError::RollbackDetected,
        "old client sees past its watermark only after the drain"
    );

    // A fresh client has no such watermark and is served immediately
    // from the applied prefix.
    let fresh = h.connect(43).expect("fresh connect");
    let c = h.get(fresh, &[0]).expect("read during catch-up");
    assert_eq!(c.value.as_deref(), Some(&[0x33u8; 40][..]));
    let metrics = h.group().primary().metrics();
    let served = metrics.counter("replica.catchup_reads_served");
    assert!(served >= 1, "catch-up read counted");

    // Mutations are refused with Busy backpressure until the drain ends:
    // accepting one would interleave new writes with the unreplayed tail.
    assert!(h.group().primary().in_catchup(), "still draining");
    let oid = h.session(fresh).put(b"early", b"write").expect("submit");
    let c = h.complete(fresh, 0, oid).expect("busy reply released");
    assert_eq!(c.status, Status::Busy);
    assert_eq!(c.error, Some(StoreError::Busy));

    // Drain fully: lag hits zero and the replayed state matches the
    // pre-crash digest bit-identically.
    for _ in 0..PUMP_BOUND {
        if !h.group().primary().in_catchup() {
            break;
        }
        h.group_mut().pump();
    }
    assert!(!h.group().primary().in_catchup(), "catch-up drains");
    assert_eq!(h.group().metrics().gauge("replica.lag_records"), 0);
    assert_eq!(h.group().primary().state_digest(), pre_digest);
    assert!(h.group().catchup_error().is_none());

    // The refused mutation now succeeds with a fresh oid, and the old
    // client (poisoned by its staleness check) re-attests and reads the
    // complete history.
    let c = h.put(fresh, b"early", b"write").expect("retry after drain");
    assert_eq!(c.status, Status::Ok);
    assert!(h.session(fresh).poisoned().is_none());
    h.reconnect(0, 0).expect("re-attest");
    let c = h.get(0, &[5]).expect("full history visible");
    assert_eq!(c.value.as_deref(), Some(&[5u8 ^ 0x33; 40][..]));
    assert!(h.session(0).poisoned().is_none());
}

#[test]
fn journal_replay_recovery_reproduces_live_state_without_snapshot() {
    let mut h = group(37, 0, GroupCommitPolicy::immediate());
    for i in 0u8..20 {
        h.put(0, &[i], &[i; 33]).expect("put");
    }
    h.delete(0, &[4]).expect("delete");
    let server = h.group().primary();
    let live = (server.len(), server.mutation_seq(), server.state_digest());

    let report = h.group_mut().restart().expect("replay succeeds");
    assert!(!report.snapshot_restored);
    assert!(!report.truncated);
    assert_eq!(report.skipped, 0);
    let recovered = h.group().primary();
    assert_eq!(
        (
            recovered.len(),
            recovered.mutation_seq(),
            recovered.state_digest()
        ),
        live,
        "replay reconstructs the state digest bit-identically"
    );
}

// --- the ≥20-seed failover-under-load sweep -----------------------------

// Three replicas under batched group commit, 48 ops with a rota chosen by
// the seed — plain crash / a replica lagging from op 12 to 36 / a staged
// rollback right before the crash / a compaction at op 24 — then the
// primary's machine is lost and a replica promoted.
fn failover(seed: u64) -> Scenario {
    let mut events = match seed % 4 {
        1 => vec![(12, Event::LagReplica), (36, Event::HealReplica)],
        2 => vec![(48, Event::RollbackReplica)],
        3 => vec![(
            24,
            Event::Compact {
                node: 0,
                crash: None,
            },
        )],
        _ => Vec::new(),
    };
    let batch = usize::MAX;
    events.push((48, Event::FailNode { node: 0, batch }));
    Scenario {
        replicas: 3,
        journal: Some(GroupCommitPolicy::batched(4, 2)),
        ops: 48,
        events,
        ..Scenario::new(seed)
    }
}

fn check_failover(run: &Run) {
    let f = &run.failovers[0];
    if run.seed % 4 == 2 {
        assert_eq!(f.quarantined, vec![0], "rollback caught");
        assert_ne!(f.promoted, 0);
    } else {
        assert!(f.quarantined.is_empty());
    }
    assert!(!f.stale, "no majority loss in this sweep");
    // A false rollback/fork alarm already fails the fault-free row.
    assert_eq!(f.after, f.before, "bit-identical replay of the history");
    if run.seed % 4 == 3 {
        let cut = &run.compactions[0].outcome;
        assert!(
            matches!(cut, CompactOutcome::Compacted { truncated_records, .. } if *truncated_records > 0),
            "drained journal must compact: {cut:?}"
        );
    }
}

#[test]
fn failover_chaos_sweep_20_seeds() {
    sweep("failover", failover, check_failover);
}

#[test]
fn failover_sweep_runs_are_deterministic() {
    for seed in [0u64, 1, 2, 7, 13] {
        let run = failover(seed).run_ok();
        check_failover(&run);
        assert_eq!(run, failover(seed).run_ok(), "seed {seed}");
    }
}
