//! Byzantine-host test suite: the machine *outside* the enclave is actively
//! malicious. The scripted scenarios exercise each attack [`HostMove`] of
//! the deterministic host one at a time and assert the client-side
//! detection pipeline (reply epoch, MAC chain, store-mutation sequence,
//! cross-client fork audit) catches it — the forged and replayed `NotMine`
//! redirects of DESIGN §18 included. The seeded sweeps are rows of the one
//! scenario harness (`tests/scenario/mod.rs`): all classes mixed on every
//! node of a 1-, 2- or 4-node cluster, a hot range migrating on the larger
//! ones, with zero undetected violations and bit-identical replay.

use precursor::cluster::MigrationOutcome;
use precursor::wire::Status;
use precursor::{
    fork_audit, Config, HostFilter, HostMove, HostPlan, HostSite, PrecursorClient,
    PrecursorCluster, PrecursorServer, SecurityAudit, StoreError,
};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{sweep, Event, Pick, Scenario};

// --- scripted single-class scenarios ------------------------------------

// A plan mounting `mv` on the `at`-th reply record of client 0.
fn on_reply(mv: HostMove, at: u64) -> HostPlan {
    HostPlan::none().rule(HostSite::Reply, HostFilter::Client(0), mv, at)
}

// The moves `server`'s host made, in order.
fn moves(server: &PrecursorServer) -> Vec<HostMove> {
    server.host_log().iter().map(|a| a.mv).collect()
}

#[test]
fn tampered_untrusted_payload_is_detected_on_read() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // The Tamper rule counts *poll sweeps*: sweep 1 services the put (and
    // registers its payload range with the host); the attack fires at the
    // start of sweep 2, before the get executes.
    let tamper = HostPlan::none().rule(HostSite::Sweep, HostFilter::Any, HostMove::Tamper, 2);
    server.set_host_plan(tamper, 7);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();

    client
        .put_sync(&mut server, b"victim", b"payload-bytes")
        .unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"victim"),
        Err(StoreError::IntegrityViolation),
        "MAC under K_operation catches the flipped payload bit"
    );
    assert_eq!(moves(&server), [HostMove::Tamper]);
    // The session itself is healthy — payload tampering is detected per
    // read, not a transport-integrity failure.
    assert!(client.poisoned().is_none());
    // Overwriting heals the key.
    client.put_sync(&mut server, b"victim", b"fresh").unwrap();
    assert_eq!(client.get_sync(&mut server, b"victim").unwrap(), b"fresh");
}

#[test]
fn replayed_stale_control_reply_is_dropped_and_the_op_recovers() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    // Substitute the 3rd reply record written for client 0 with a stale
    // captured one (the 1st — the oldest same-length capture).
    server.set_host_plan(on_reply(HostMove::Replay, 3), 11);
    let mut client = PrecursorClient::connect(&mut server, 2).unwrap();

    client.put_sync(&mut server, b"a", b"1").unwrap();
    client.put_sync(&mut server, b"b", b"2").unwrap();
    // Reply 3 is substituted: the client drops the stale reply_seq, times
    // out, retransmits, and the server re-acks from its at-most-once window
    // (the re-push bypasses the host) — the op completes untainted.
    client.put_sync(&mut server, b"c", b"3").unwrap();

    assert_eq!(moves(&server), [HostMove::Replay]);
    assert_eq!(client.security_audit().stale_replies, 1);
    assert!(
        client.retransmits() >= 1,
        "recovery went through retransmit"
    );
    assert!(client.poisoned().is_none());
    assert_eq!(client.get_sync(&mut server, b"c").unwrap(), b"3");
}

#[test]
fn reordered_replies_are_reconciled_without_poisoning() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    server.set_host_plan(on_reply(HostMove::Reorder, 1), 13);
    let mut client = PrecursorClient::connect(&mut server, 3).unwrap();

    // Drive the two puts asynchronously so the host can hold reply 1
    // and swap it with reply 2 (same length — same opcode and key length).
    let o1 = client.put(b"r1", b"x").unwrap();
    server.poll();
    assert_eq!(client.poll_replies(), 0, "reply 1 is held by the host");
    let o2 = client.put(b"r2", b"y").unwrap();
    server.poll();
    assert_eq!(
        client.poll_replies(),
        2,
        "swap delivered both, out of order"
    );

    let c2 = client.take_completed(o2).expect("newer op completed");
    let c1 = client.take_completed(o1).expect("older op completed");
    assert_eq!(c2.status, Status::Ok);
    assert_eq!(c1.status, Status::Ok);
    let audit = client.security_audit();
    assert_eq!(audit.reorder_suspected, 1, "late reply matched a known gap");
    assert_eq!(audit.chain_resyncs, 1, "chain resynced across the gap");
    assert_eq!(audit.chain_breaks, 0);
    assert!(client.poisoned().is_none());
    // The chain is consistent again: contiguous traffic keeps verifying.
    client.put_sync(&mut server, b"r3", b"z").unwrap();
    assert_eq!(client.get_sync(&mut server, b"r3").unwrap(), b"z");
}

#[test]
fn duplicated_reply_record_completes_the_op_exactly_once() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    server.set_host_plan(on_reply(HostMove::Duplicate, 1), 17);
    let mut client = PrecursorClient::connect(&mut server, 4).unwrap();

    let o1 = client.put(b"dup", b"once").unwrap();
    server.poll();
    let popped = client.poll_replies();
    assert!(popped >= 1, "at least the original record arrives");
    let done = client.take_all_completed();
    assert_eq!(done.len(), 1, "the duplicate must not double-complete");
    assert_eq!(done[0].oid, o1);
    assert_eq!(done[0].status, Status::Ok);
    assert!(client.security_audit().stale_replies <= 1);
    assert_eq!(moves(&server), [HostMove::Duplicate]);
    assert!(client.poisoned().is_none());
    assert_eq!(client.get_sync(&mut server, b"dup").unwrap(), b"once");
}

#[test]
fn forged_reply_header_breaks_the_mac_chain_and_quarantines() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let bundle = server.add_client([7; 16]).expect("connects");
    // Keep a handle on the reply ring *before* the client consumes it: the
    // host owns this memory and can write anything into it.
    let spy_ring = bundle.reply_ring.clone();
    let mut client = PrecursorClient::from_bundle(bundle, cost.clone(), SimRng::seed_from(3));

    let oid = client.put(b"k", b"v").unwrap();
    server.poll();
    // Flip the clear status byte of the queued reply record (offset 4: right
    // after the 4-byte length prefix). GCM does not cover the clear header —
    // only the per-session MAC chain binds it.
    spy_ring.with_mut(|buf| buf[4] ^= 1);

    assert_eq!(client.poll_replies(), 1);
    assert_eq!(client.poisoned(), Some(StoreError::SessionPoisoned));
    assert_eq!(client.security_audit().chain_breaks, 1);
    assert!(
        client.take_completed(oid).is_none(),
        "a chain-breaking reply must not complete the op"
    );
    // Quarantine blocks every operation until re-attestation.
    assert_eq!(client.get(b"k"), Err(StoreError::SessionPoisoned));

    // Fresh attestation clears the quarantine; the interrupted op is
    // re-issued and re-acked from the at-most-once window.
    let reissued = client.reconnect(&mut server).expect("re-attests");
    assert_eq!(reissued, 1);
    assert!(client.poisoned().is_none());
    assert_eq!(client.epoch(), 2, "reconnect advances the reply epoch");
    server.poll();
    client.poll_replies();
    let done = client
        .take_completed(oid)
        .expect("re-acked after reconnect");
    assert_eq!(done.status, Status::Ok);
    assert_eq!(client.get_sync(&mut server, b"k").unwrap(), b"v");
}

// Moves the ring segment of `key` to node `to` and runs the fence.
fn migrate(cluster: &mut PrecursorCluster, key: &[u8], to: u16) {
    assert!(cluster.start_migration(key, to).expect("start"));
    while !matches!(cluster.pump_migration(8), MigrationOutcome::Fenced(_)) {}
}

#[test]
fn forged_redirect_breaks_the_mac_chain_and_is_never_followed() {
    // DESIGN §18 matrix, forged redirect: on a 2-node cluster the host
    // rewrites the clear status of a queued reply to NotMine.
    let mut h = Scenario {
        nodes: 2,
        ..Scenario::new(0xf0)
    }
    .build();
    let key = [3u8];
    let home = h.cluster.meta().lookup(&key).0;
    let bundle = h.cluster.node_mut(home as usize).add_client([9; 16]);
    let bundle = bundle.expect("connects");
    // The reply ring is host memory: keep a handle on it.
    let spy_ring = bundle.reply_ring.clone();
    let mut client =
        PrecursorClient::from_bundle(bundle, CostModel::default(), SimRng::seed_from(5));

    let oid = client.put(&key, b"v").unwrap();
    h.cluster.poll_all();
    spy_ring.with_mut(|buf| buf[4] = Status::NotMine as u8);

    assert_eq!(client.poll_replies(), 1);
    assert_eq!(client.poisoned(), Some(StoreError::SessionPoisoned));
    let audit = client.security_audit();
    assert_eq!(audit.chain_breaks, 1);
    assert_eq!(
        audit.not_mine_replies, 0,
        "the forged status is never acted on"
    );
    assert!(client.take_completed(oid).is_none(), "no hint to follow");

    // No re-route: the op is re-acked at the same node after re-attesting,
    // the ring never moved, and the other node never saw the key.
    client.reconnect(h.cluster.node_mut(home as usize)).unwrap();
    h.cluster.poll_all();
    client.poll_replies();
    let done = client.take_completed(oid).expect("re-acked at the owner");
    assert_eq!((done.status, done.redirect), (Status::Ok, None));
    assert_eq!(h.cluster.meta().ring().epoch(), 1);
    assert!(h.cluster.node(1 - home as usize).is_empty());
    let routed = h.clients[0].get_sync(&mut h.cluster, &key);
    assert_eq!(routed.unwrap(), b"v");
    assert_eq!(h.clients[0].stats().redirects, 0);
}

#[test]
fn replayed_stale_redirect_is_ignored_and_the_op_completes_at_the_owner() {
    // DESIGN §18 matrix, stale redirect: the range moves A → B and back;
    // the host then replays the redirect A sealed after the first move.
    let mut h = Scenario {
        nodes: 2,
        ..Scenario::new(0x57a1e)
    }
    .build();
    let key = [3u8];
    let a = h.cluster.meta().lookup(&key).0;
    h.clients[0].put_sync(&mut h.cluster, &key, b"v").unwrap();
    migrate(&mut h.cluster, &key, 1 - a);

    // The stale cache routes to A, which redirects to B.
    let (node, oid) = h.clients[0].submit_get(&mut h.cluster, &key).unwrap();
    assert_eq!(node, a);
    let first = h.complete(0, node, oid).unwrap();
    assert_eq!(first.status, Status::NotMine);
    assert_eq!(h.clients[0].note_redirect(&h.cluster, &first), Some(1 - a));
    assert_eq!(h.clients[0].stats().refreshes, 1);

    // Back to A; the next op learns it through one fresh redirect.
    migrate(&mut h.cluster, &key, a);
    assert_eq!(h.clients[0].get_sync(&mut h.cluster, &key).unwrap(), b"v");
    let stats = h.clients[0].stats();
    assert_eq!(stats.refreshes, 2);

    // The replay carries an epoch older than the cache: ignored.
    h.clients[0].note_redirect(&h.cluster, &first);
    assert_eq!(h.clients[0].stats().refreshes, stats.refreshes);
    let (node, oid) = h.clients[0].submit_get(&mut h.cluster, &key).unwrap();
    assert_eq!(node, a, "routed to the owner");
    let done = h.complete(0, node, oid).unwrap();
    assert_eq!(
        (done.status, done.value.as_deref()),
        (Status::Ok, Some(&b"v"[..]))
    );
}

#[test]
fn rolled_back_host_is_rejected_by_counter_and_detected_by_client() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut client = PrecursorClient::connect(&mut server, 5).unwrap();
    client.put_sync(&mut server, b"k1", b"v1").unwrap();

    let mut counter = MonotonicCounter::new();
    let stale = server.snapshot(&mut counter);
    // A Byzantine host "forks" the trusted counter by saving a copy — the
    // real counter keeps advancing with the fresh snapshot below.
    let forked_counter = counter.clone();
    client.put_sync(&mut server, b"k2", b"v2").unwrap();
    let fresh = server.snapshot(&mut counter);

    // Layer 1: an honest restore of the stale snapshot fails the monotonic
    // counter check outright.
    assert!(matches!(
        PrecursorServer::restore(Config::default(), &cost, &stale, &counter),
        Err(StoreError::SnapshotRejected)
    ));

    // Layer 2: the host restores the stale snapshot against its forked
    // counter copy — the enclave-side check passes, so only the *client*
    // can catch it, via the store-mutation sequence in every reply.
    let mut rolled =
        PrecursorServer::restore(Config::default(), &cost, &stale, &forked_counter).unwrap();
    rolled.note_attack(HostMove::Rollback, Some(client.client_id()));
    client.reconnect(&mut rolled).expect("session resumes");

    let err = client.get_sync(&mut rolled, b"k2");
    assert_eq!(err, Err(StoreError::RollbackDetected));
    assert_eq!(client.poisoned(), Some(StoreError::RollbackDetected));
    assert_eq!(client.security_audit().rollback_regressions, 1);
    assert_eq!(moves(&rolled), [HostMove::Rollback]);
    assert_eq!(client.put(b"x", b"y"), Err(StoreError::RollbackDetected));

    // Recovery: the operator restores the *fresh* snapshot under the true
    // counter; re-attestation clears the quarantine and state lines up.
    let mut good = PrecursorServer::restore(Config::default(), &cost, &fresh, &counter).unwrap();
    client.reconnect(&mut good).expect("re-attests");
    assert!(client.poisoned().is_none());
    assert_eq!(client.get_sync(&mut good, b"k2").unwrap(), b"v2");
    assert_eq!(client.get_sync(&mut good, b"k1").unwrap(), b"v1");
}

#[test]
fn forked_views_are_detected_by_cross_client_audit() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut a = PrecursorClient::connect(&mut server, 6).unwrap(); // client 0
    let mut b = PrecursorClient::connect(&mut server, 7).unwrap(); // client 1
    a.put_sync(&mut server, b"a:seed", b"1").unwrap();
    b.put_sync(&mut server, b"b:seed", b"2").unwrap();
    // No overlapping store_seq observations yet: the audit passes.
    fork_audit(&a, &b).expect("no fork before the split");

    // The host snapshots once and boots *two* replicas from it, steering
    // each client to a different one (a classic fork/split-brain attack).
    let mut counter = MonotonicCounter::new();
    let snap = server.snapshot(&mut counter);
    let mut s1 = PrecursorServer::restore(Config::default(), &cost, &snap, &counter).unwrap();
    let mut s2 = PrecursorServer::restore(Config::default(), &cost, &snap, &counter).unwrap();
    s1.note_attack(HostMove::Fork, Some(a.client_id()));
    s2.note_attack(HostMove::Fork, Some(b.client_id()));

    a.reconnect(&mut s1).expect("a lands on replica 1");
    // On replica 2 the host replays a's re-attestation itself so client b's
    // slot lines up (sessions resume in ascending id order).
    s2.reconnect_client(a.client_id(), [0x44; 16])
        .expect("host fills a's slot on the fork");
    b.reconnect(&mut s2).expect("b lands on replica 2");

    // The replicas now diverge: the same mutation sequence number commits
    // *different* operations on each side.
    a.put_sync(&mut s1, b"a:post", b"va").unwrap();
    b.put_sync(&mut s2, b"b:post", b"vb").unwrap();
    assert!(a.poisoned().is_none() && b.poisoned().is_none());
    assert_eq!(a.max_store_seq(), b.max_store_seq());

    // Epoch-exchange audit: the clients compare (store_seq, digest)
    // observations out of band and catch the divergence.
    assert_eq!(fork_audit(&a, &b), Err(StoreError::ForkDetected));
    assert_eq!(moves(&s1), [HostMove::Fork]);
    // A client that learns of the fork quarantines itself until it can
    // re-attest against a host both parties trust.
    a.quarantine(StoreError::ForkDetected);
    assert_eq!(a.put(b"z", b"z"), Err(StoreError::ForkDetected));
}

#[test]
fn a_restored_window_moves_only_for_the_clients_own_request() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut a = PrecursorClient::connect(&mut server, 9).unwrap();
    a.put_sync(&mut server, b"k1", b"v1").unwrap();
    let mut counter = MonotonicCounter::new();
    let snap = server.snapshot(&mut counter);
    let seq = server.mutation_seq();
    // The get consumes an oid no snapshot holds, and the put is still in
    // the ring when the host goes down: the restored window lags the put.
    assert_eq!(a.get_sync(&mut server, b"k1").unwrap(), b"v1");
    let put = a.put(b"k2", b"v2").unwrap();

    let mut restored = PrecursorServer::restore(Config::default(), &cost, &snap, &counter).unwrap();
    // The host re-attests a's slot itself first: nothing it passes or
    // holds moves the window, so the session still waits for a's own
    // first request.
    restored
        .reconnect_client(a.client_id(), [0x45; 16])
        .expect("host re-attests a's slot");
    assert_eq!(a.reconnect(&mut restored), Ok(1), "the put is re-issued");
    restored.poll();
    a.poll_replies();
    let done = a.take_completed(put).expect("the re-issued put completes");
    assert_eq!(done.status, Status::Ok);
    // Acked because it ran, once, here — not re-acknowledged from an
    // earlier op's cached status.
    assert_eq!(restored.mutation_seq(), seq + 1);
    assert_eq!(a.get_sync(&mut restored, b"k2").unwrap(), b"v2");
    assert!(a.poisoned().is_none());
}

// --- backpressure and resource containment ------------------------------

#[test]
fn pool_quota_yields_busy_backpressure_not_starvation() {
    let cost = CostModel::default();
    let config = Config {
        pool_quota_bytes: 2048,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 8).unwrap();

    // Each 1000-byte value lands in a 1024-byte pool slot (value + MAC tag,
    // rounded to the power-of-two size class).
    client.put_sync(&mut server, b"q1", &[1u8; 1000]).unwrap();
    client.put_sync(&mut server, b"q2", &[2u8; 1000]).unwrap();
    assert_eq!(server.pool_usage(client.client_id()), 2048);

    // The third put would exceed the quota: the server answers Busy with a
    // retry hint instead of admitting unbounded allocation.
    assert_eq!(
        client.put_sync(&mut server, b"q3", &[3u8; 1000]),
        Err(StoreError::Busy)
    );
    assert_eq!(client.security_audit().busy_replies, 1);
    assert!(
        client.poisoned().is_none(),
        "Busy is backpressure, not an attack"
    );

    // Freeing capacity lifts the backpressure; the at-most-once window is
    // undisturbed by the rejected oid.
    client.delete_sync(&mut server, b"q1").unwrap();
    client.put_sync(&mut server, b"q3", &[3u8; 1000]).unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"q3").unwrap(),
        vec![3u8; 1000]
    );
}

#[test]
fn flooding_client_cannot_starve_an_honest_neighbor() {
    // An adversarial tenant saturates its own request ring every round; the
    // per-client poll budget with round-robin fairness must keep the honest
    // client's throughput within 2x of its flood-free baseline.
    fn honest_ops(rounds: usize, with_flooder: bool) -> (usize, usize) {
        let cost = CostModel::default();
        let mut server = PrecursorServer::new(Config::default(), &cost);
        let mut honest = PrecursorClient::connect(&mut server, 11).unwrap();
        let mut flooder = with_flooder.then(|| PrecursorClient::connect(&mut server, 12).unwrap());
        let budget = server.config().poll_budget_per_client;
        let mut completed = 0usize;
        let mut max_flood_reports_per_sweep = 0usize;
        for round in 0..rounds {
            if let Some(f) = flooder.as_mut() {
                // Stuff the flooder's ring with as many requests as fit.
                for i in 0..4 * budget {
                    let key = format!("f:{:03}", i % 64);
                    if f.put(key.as_bytes(), b"flood").is_err() {
                        break;
                    }
                }
            }
            let key = format!("h:{:04}", round % 16);
            let oid = honest.put(key.as_bytes(), b"steady").unwrap();
            server.poll();
            honest.poll_replies();
            if honest.take_completed(oid).is_some() {
                completed += 1;
            }
            if let Some(f) = flooder.as_mut() {
                f.poll_replies();
                f.take_all_completed();
            }
            let flood_reports = server
                .take_reports()
                .iter()
                .filter(|r| r.client_id == 1)
                .count();
            max_flood_reports_per_sweep = max_flood_reports_per_sweep.max(flood_reports);
            if let Some(f) = flooder.as_mut() {
                // Drain the flooder's retry machinery without advancing time.
                let _ = f.pump_timeouts();
            }
        }
        (completed, max_flood_reports_per_sweep)
    }

    const ROUNDS: usize = 30;
    let (baseline, _) = honest_ops(ROUNDS, false);
    let (flooded, max_flood) = honest_ops(ROUNDS, true);
    assert_eq!(
        baseline, ROUNDS,
        "flood-free baseline completes every round"
    );
    assert!(
        flooded * 2 >= baseline,
        "flooding reduced honest throughput more than 2x: {flooded} vs {baseline}"
    );
    let budget = Config::default().poll_budget_per_client;
    assert!(
        max_flood > 0 && max_flood <= budget,
        "per-sweep budget must cap the flooder: saw {max_flood}, budget {budget}"
    );
}

#[test]
fn thousand_client_churn_returns_all_memory() {
    let cost = CostModel::default();
    let config = Config {
        max_clients: 1100,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);

    // Warm up the pool's size classes so growth settles before we measure.
    for i in 0..10u32 {
        let mut c = PrecursorClient::connect(&mut server, 10_000 + u64::from(i)).unwrap();
        c.put_sync(&mut server, format!("warm:{i}").as_bytes(), &[0u8; 1024])
            .unwrap();
        server.revoke_client(c.client_id());
    }
    server.take_reports();
    let warm = server.pool_stats();
    assert_eq!(warm.bytes_in_use, 0, "warmup left bytes behind");

    for i in 0..1000u32 {
        let mut c = PrecursorClient::connect(&mut server, 20_000 + u64::from(i)).unwrap();
        c.put_sync(
            &mut server,
            format!("churn:{i}").as_bytes(),
            &[i as u8; 1024],
        )
        .unwrap();
        server.revoke_client(c.client_id());
        if i % 100 == 0 {
            server.take_reports();
        }
    }
    server.take_reports();

    let after = server.pool_stats();
    assert_eq!(after.bytes_in_use, 0, "revocation must reclaim pool slots");
    assert_eq!(
        after.grow_events, warm.grow_events,
        "steady-state churn must not grow the pool"
    );
    assert!(after.frees >= 1000, "every churned slot was freed");
    assert_eq!(server.len(), 0);
    assert_eq!(server.client_count(), 0);

    // The server remains fully serviceable after the churn.
    let mut fresh = PrecursorClient::connect(&mut server, 99_999).unwrap();
    fresh.put_sync(&mut server, b"post-churn", b"ok").unwrap();
    assert_eq!(fresh.get_sync(&mut server, b"post-churn").unwrap(), b"ok");
}

#[test]
fn report_buffer_is_bounded_and_counts_drops() {
    let cost = CostModel::default();
    let config = Config {
        max_buffered_reports: 8,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 13).unwrap();
    for i in 0..20u32 {
        client
            .put_sync(&mut server, format!("k{i}").as_bytes(), b"v")
            .unwrap();
    }
    let reports = server.take_reports();
    assert_eq!(reports.len(), 8, "buffer capped at max_buffered_reports");
    assert_eq!(
        server.reports_dropped(),
        12,
        "oldest reports dropped, counted"
    );
}

// --- seeded adversarial sweeps -----------------------------------------

fn mixed_plan() -> HostPlan {
    use {HostFilter::Any, HostMove::*, HostSite::*};
    HostPlan::none()
        .rate(Sweep, Any, Tamper, 0.04)
        .rate(Reply, Any, Replay, 0.08)
        .rate(Reply, Any, Reorder, 0.05)
        .rate(Reply, Any, Duplicate, 0.05)
}

// The Byzantine row: `host` on every node, 64-byte values (equal
// lengths keep reply records swappable by Reorder) over 12 keys, and on
// more than one node the hot range migrating at mid-run.
fn byzantine(seed: u64, nodes: usize, ops: usize, host: HostPlan) -> Scenario {
    let migrate = Event::Migrate {
        key: Pick::Hot,
        fault: None,
    };
    Scenario {
        nodes,
        keys: 12,
        ops,
        host,
        events: (nodes > 1)
            .then_some((ops / 2, migrate))
            .into_iter()
            .collect(),
        ..Scenario::new(seed)
    }
}

#[test]
fn seeded_byzantine_sweep_has_zero_undetected_violations() {
    let runs = sweep(
        "byzantine",
        |seed| byzantine(seed, 1, 100, mixed_plan()),
        |_| {},
    );
    assert!(
        runs.iter().any(|r| !r.host.is_empty()),
        "the host never mounted anything"
    );
    assert!(
        runs.iter().any(|r| r.detected() > 0),
        "attacks were mounted but nothing was detected"
    );
}

#[test]
fn byzantine_host_on_every_node_of_a_migrating_cluster() {
    // ROADMAP 3 (ii): the mixed adversary on every node while the hot
    // range fences under load. At least one replay must hit the reply
    // stream of a node that also sealed NotMine redirects.
    for nodes in [2, 4] {
        let runs = sweep(
            &format!("byzantine-n{nodes}"),
            |seed| byzantine(seed, nodes, 100, mixed_plan()),
            |run| assert_eq!((run.fences.len(), run.aborts.len()), (1, 0)),
        );
        let replay_on_redirecting_node = runs.iter().any(|run| {
            let replays = run.host.iter().filter(|(_, a)| a.mv == HostMove::Replay);
            replays.into_iter().any(|(node, _)| run.not_mine(*node) > 0)
        });
        assert!(replay_on_redirecting_node, "nodes={nodes}");
    }
}

#[test]
fn byzantine_runs_are_deterministic() {
    let a = byzantine(0xb1ce, 1, 120, mixed_plan()).run_ok();
    assert_eq!(a, byzantine(0xb1ce, 1, 120, mixed_plan()).run_ok());
    assert!(!a.host.is_empty(), "the mixed plan mounted attacks");
    let a = byzantine(0xb1ce, 4, 120, mixed_plan()).run_ok();
    assert_eq!(a, byzantine(0xb1ce, 4, 120, mixed_plan()).run_ok());
}

#[test]
fn adversary_free_run_triggers_no_detections() {
    // With an empty plan the detection machinery must be invisible: no
    // stale replies, no resyncs, no quarantine — every audit stays zeroed
    // (and the harness fails any op that is not served first time).
    let run = byzantine(0xc1ea, 1, 150, HostPlan::none()).run_ok();
    let zeroed = |(_, _, a): &(usize, usize, SecurityAudit)| *a == SecurityAudit::default();
    assert!(run.audits.iter().all(zeroed));
    assert_eq!(run.retransmits, 0);
    assert!(run.host.is_empty());
}
