//! Fast-path equivalence harness: the tests that make the hot-path
//! batching campaign safe to ship.
//!
//! The fast path (`Config::with_fast_path`) changes *when* work happens —
//! adaptive per-client poll budgets, one batched seal/MAC pass per client
//! sweep run, lazy credit write-back, reply-frame arena reuse — but must
//! never change *what* happens on the wire. This suite pins that claim
//! from three directions:
//!
//! 1. **Byte equivalence**: on a fixed seeded pipelined schedule, the raw
//!    reply stream every client pops (folded into
//!    [`PrecursorClient::reply_frames_digest`]) and the completion
//!    outcomes are bit-identical between knobs-off and knobs-on runs —
//!    sealed controls, MAC chains, payloads, everything.
//! 2. **Linearizability**: the Wing–Gong checker accepts every knobs-on
//!    history over shards {1, 2, 4} × seeded sweeps, same harness as the
//!    knobs-off suite in `tests/linearizability.rs`.
//! 3. **Controller properties**: the adaptive budget stays inside
//!    `[poll_budget_min, poll_budget_max]`, is left alone by idle polls
//!    (which visit no ring), halves on a visit that pops nothing,
//!    converges to the ceiling under saturation, and cannot starve an honest
//!    client behind a flooder (the PR-2 2x fairness bound re-asserted with
//!    every knob on). Credit elision never livelocks a producer: the first
//!    empty sweep flushes the deferred write-back.
//!
//! Environment knobs (same conventions as the chaos/byzantine suites):
//!
//! * `PRECURSOR_SWEEP_SEEDS` — seeds per shard count (default 20).
//! * `PRECURSOR_SHARDS` — an extra shard count to sweep beyond {1, 2, 4}.

use std::collections::HashMap;
use std::fmt::Write as _;

use precursor::wire::Status;
use precursor::{Config, PrecursorClient, PrecursorServer};
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;
use precursor_storage::stable_key_hash;

// The Wing–Gong checker, shared with the linearizability suite.
#[path = "wing_gong/mod.rs"]
mod wing_gong;
use wing_gong::{check_history, HistOp, Kind};

const CLIENTS: usize = 4;
const ROUNDS: usize = 10;
const KEYS: u64 = 6;

fn sweep_seeds() -> u64 {
    std::env::var("PRECURSOR_SWEEP_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4];
    if let Some(extra) = std::env::var("PRECURSOR_SHARDS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        if extra > 0 && !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

fn config_for(shards: usize, fast: bool) -> Config {
    let config = Config {
        shards,
        max_clients: CLIENTS + 1,
        ..Config::default()
    };
    if fast {
        config.with_fast_path()
    } else {
        config
    }
}

// Everything one seeded run exposes to the equivalence checks.
struct RunOut {
    history: Vec<HistOp>,
    // Per-client fold over every raw reply record, in pop order.
    frame_digests: Vec<u64>,
    // Fold over op outcomes and report tuples — attribution-free (no
    // meters), so it must match between fast and plain runs.
    outcome_digest: u64,
    batched_ops: u64,
    credits_elided: u64,
    budget_adjustments: u64,
    reports_dropped: u64,
    credit_writes: u64,
}

// Runs the fixed seeded pipelined workload of `tests/linearizability.rs`
// (each round pipelines 2–3 ops per client before any polling, so rounds
// form real in-sweep batches) and records both the byte-level witnesses
// and the semantic history.
fn run_schedule(config: Config, seed: u64) -> RunOut {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(config, &cost);
    let mut clients: Vec<PrecursorClient> = (0..CLIENTS)
        .map(|i| {
            PrecursorClient::connect(&mut server, seed ^ ((i as u64 + 1) << 16)).expect("connect")
        })
        .collect();
    let mut rng = SimRng::seed_from(seed ^ 0x11ea);
    let mut history: Vec<HistOp> = Vec::new();
    let mut trace = String::new();
    let mut step = 0u64;
    let mut put_counter = 0u64;

    for _round in 0..ROUNDS {
        let mut pending: Vec<HashMap<u64, usize>> = vec![HashMap::new(); CLIENTS];
        for (c, client) in clients.iter_mut().enumerate() {
            let depth = 2 + rng.gen_range(2) as usize;
            for _ in 0..depth {
                let key = rng.gen_range(KEYS) as u8;
                let (oid, kind) = match rng.gen_range(4) {
                    0 | 1 => {
                        put_counter += 1;
                        let mut val = put_counter.to_le_bytes().to_vec();
                        val.push(c as u8);
                        let oid = client.put(&[key], &val).expect("put send");
                        (oid, Kind::Put(val))
                    }
                    2 => (client.get(&[key]).expect("get send"), Kind::Get(None)),
                    _ => (
                        client.delete(&[key]).expect("delete send"),
                        Kind::Delete(false),
                    ),
                };
                history.push(HistOp {
                    key,
                    kind,
                    invoke: step,
                    response: u64::MAX,
                });
                step += 1;
                pending[c].insert(oid, history.len() - 1);
            }
        }
        // Drain the round: sweep until the server finds nothing, letting
        // clients consume replies (and free credits) between sweeps.
        loop {
            let n = server.poll();
            for client in clients.iter_mut() {
                client.poll_replies();
            }
            if n == 0 {
                break;
            }
        }
        for (c, client) in clients.iter_mut().enumerate() {
            let mut completions = client.take_all_completed();
            completions.sort_by_key(|comp| comp.oid);
            for comp in completions {
                let i = pending[c].remove(&comp.oid).expect("completion known");
                assert!(
                    comp.error.is_none(),
                    "fault-free run must not error: {:?}",
                    comp.error
                );
                let _ = write!(
                    trace,
                    "c{c}:oid{}:{:?}:{:?};",
                    comp.oid, comp.status, comp.value
                );
                match &mut history[i].kind {
                    Kind::Put(_) => assert_eq!(comp.status, Status::Ok),
                    Kind::Get(obs) => match comp.status {
                        Status::Ok => *obs = Some(comp.value.clone().expect("get value")),
                        Status::NotFound => *obs = None,
                        s => panic!("unexpected get status {s:?}"),
                    },
                    Kind::Delete(existed) => match comp.status {
                        Status::Ok => *existed = true,
                        Status::NotFound => *existed = false,
                        s => panic!("unexpected delete status {s:?}"),
                    },
                }
                history[i].response = step;
                step += 1;
            }
            assert!(pending[c].is_empty(), "round must drain fully");
        }
        // Drain the report buffer every round so `reports_dropped` stays a
        // liveness signal, not a buffer-sizing artifact. Meters are cost
        // attribution (they legitimately differ under batching) — fold
        // only the attribution-free tuple fields.
        for r in server.take_reports() {
            let _ = write!(
                trace,
                "report:{}:{:?}:{:?}:{}:{};",
                r.client_id, r.opcode, r.status, r.value_len, r.shard
            );
        }
    }
    for client in &clients {
        assert!(
            client.poisoned().is_none(),
            "fast path must not trip the Byzantine detectors"
        );
        let audit = client.security_audit();
        assert_eq!(audit.chain_breaks, 0, "reply MAC chain must stay intact");
    }
    let metrics = server.metrics().clone();
    RunOut {
        history,
        frame_digests: clients
            .iter()
            .map(PrecursorClient::reply_frames_digest)
            .collect(),
        outcome_digest: stable_key_hash(&trace),
        batched_ops: metrics.counter("seal.batched_ops"),
        credits_elided: metrics.counter("server.credits_elided"),
        budget_adjustments: metrics.counter("server.budget_adjustments"),
        reports_dropped: metrics.counter("server.reports_dropped"),
        credit_writes: server.credit_writes(),
    }
}

// --- 1. byte equivalence ------------------------------------------------

#[test]
fn batched_sealing_is_byte_identical_on_the_wire() {
    // Same seed, same schedule, knobs off vs every knob on: each client
    // must pop a bit-identical reply stream (sealed controls, MAC chains,
    // payloads) and observe identical outcomes. Batching is pure cost
    // attribution.
    for shards in [1usize, 4] {
        for seed in [3u64, 7, 0xFA57] {
            let plain = run_schedule(config_for(shards, false), seed);
            let fast = run_schedule(config_for(shards, true), seed);
            assert_eq!(
                plain.frame_digests, fast.frame_digests,
                "shards={shards} seed={seed}: reply bytes diverged under the fast path"
            );
            assert_eq!(
                plain.outcome_digest, fast.outcome_digest,
                "shards={shards} seed={seed}: outcomes diverged under the fast path"
            );
            // The equivalence is only meaningful if the fast run actually
            // exercised the batch machinery.
            assert!(
                fast.batched_ops > 0,
                "shards={shards} seed={seed}: pipelined rounds must form seal batches"
            );
            assert_eq!(plain.batched_ops, 0, "knobs off must never batch");
        }
    }
}

#[test]
fn fast_runs_reproduce_bit_identically() {
    // Determinism survives the fast path: same (config, seed) → identical
    // wire bytes, outcomes, and counter totals across repeated runs.
    for seed in [7u64, 21] {
        let a = run_schedule(config_for(2, true), seed);
        let b = run_schedule(config_for(2, true), seed);
        assert_eq!(a.frame_digests, b.frame_digests);
        assert_eq!(a.outcome_digest, b.outcome_digest);
        assert_eq!(a.batched_ops, b.batched_ops);
        assert_eq!(a.credits_elided, b.credits_elided);
        assert_eq!(a.budget_adjustments, b.budget_adjustments);
        assert_eq!(a.credit_writes, b.credit_writes);
    }
}

// --- 2. linearizability with every knob on ------------------------------

#[test]
fn fast_path_histories_are_linearizable() {
    let seeds = sweep_seeds();
    let mut violations = Vec::new();
    let mut ops_checked = 0usize;
    for shards in shard_counts() {
        for seed in 0..seeds {
            let run = run_schedule(
                config_for(shards, true),
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (shards as u64) << 48,
            );
            ops_checked += run.history.len();
            if let Err(e) = check_history(&run.history) {
                violations.push(format!("shards={shards} seed={seed}: {e}"));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "fast-path linearizability violations:\n{}",
        violations.join("\n")
    );
    assert!(ops_checked > 0);
}

// --- 3. liveness and counters under load --------------------------------

#[test]
fn credit_elision_never_livelocks_and_counters_fire() {
    // ≥20 seeded runs with every knob on: each round must drain fully (the
    // harness asserts it — a livelocked producer would leave `pending`
    // nonempty), the elision/batching/adaptation counters must fire, no
    // report may be dropped, and elision must actually reduce the posted
    // credit WRITEs against the knobs-off run.
    let seeds = sweep_seeds();
    for seed in 0..seeds {
        let seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xe11d;
        let fast = run_schedule(config_for(2, true), seed);
        assert!(fast.batched_ops > 0, "seed {seed}: no seal batches formed");
        assert!(
            fast.credits_elided > 0,
            "seed {seed}: no credit WRITE was elided"
        );
        assert!(
            fast.budget_adjustments > 0,
            "seed {seed}: the budget controller never adapted"
        );
        assert_eq!(
            fast.reports_dropped, 0,
            "seed {seed}: fast path dropped reports"
        );
        // Deferral must never post *more* writes than the eager path; the
        // strict reduction is pinned by the burst test below (a round-
        // drained schedule merely moves each write to the idle sweep).
        let plain = run_schedule(config_for(2, false), seed);
        assert!(
            fast.credit_writes <= plain.credit_writes,
            "seed {seed}: elision increased credit WRITEs ({} vs {})",
            fast.credit_writes,
            plain.credit_writes
        );
    }
}

#[test]
fn lazy_credit_writeback_reduces_posted_writes() {
    // Isolate the elision knob: identical static budget (16/sweep), one
    // 96-op backlog drained over six sweeps. Eager posts a credit WRITE
    // per consuming sweep; lazy batches them under the 4 KiB threshold.
    fn burst(lazy: bool) -> (u64, u64) {
        let cost = CostModel::default();
        let mut config = Config {
            max_clients: 2,
            poll_budget_per_client: 16,
            ..Config::default()
        };
        if lazy {
            config.lazy_credit_bytes = 4096;
        }
        let mut server = PrecursorServer::new(config, &cost);
        let mut client = PrecursorClient::connect(&mut server, 0xC4ED).expect("connect");
        for i in 0..96u32 {
            client
                .put(format!("k{i:03}").as_bytes(), &[i as u8; 64])
                .expect("put send");
        }
        loop {
            let n = server.poll();
            client.poll_replies();
            if n == 0 {
                break;
            }
        }
        client.take_all_completed();
        server.take_reports();
        (server.credit_writes(), server.credits_elided())
    }
    let (eager_writes, eager_elided) = burst(false);
    let (lazy_writes, lazy_elided) = burst(true);
    assert_eq!(eager_elided, 0, "knob off must never elide");
    assert!(lazy_elided > 0, "lazy run never elided a write");
    assert!(
        lazy_writes < eager_writes,
        "lazy credits must post fewer WRITEs: {lazy_writes} vs {eager_writes}"
    );
}

#[test]
fn parked_producer_is_unblocked_within_one_idle_sweep() {
    // A tiny request ring makes the client live off credit write-backs.
    // With lazy credits on, a full ring plus an idle server would deadlock
    // if elision could defer forever — the rule "the first sweep that pops
    // nothing flushes" must unpark the producer. Checked with every knob
    // on and with elision alone on the default configuration.
    let tiny = Config {
        ring_bytes: 2048,
        max_clients: 2,
        ..Config::default()
    };
    let lazy_only = Config {
        lazy_credit_bytes: 4096,
        ..tiny.clone()
    };
    for config in [tiny.with_fast_path(), lazy_only] {
        parked_producer_unblocks(config);
    }
}

fn parked_producer_unblocks(config: Config) {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 0xFA57).expect("connect");
    let mut sent = 0usize;
    let mut ring_full_seen = false;
    while sent < 200 {
        match client.put(format!("k:{:02}", sent % 32).as_bytes(), &[7u8; 64]) {
            Ok(_) => sent += 1,
            Err(precursor::StoreError::RingFull) => {
                ring_full_seen = true;
                // One sweep consumes the backlog; the *next* (empty) sweep
                // must flush any deferred credit write-back so the
                // producer's view of the ring frees up.
                while server.poll() > 0 {
                    client.poll_replies();
                }
                client.poll_replies();
                client.take_all_completed();
                server.take_reports();
                assert!(
                    client.put(b"probe", b"x").is_ok(),
                    "producer stayed parked after an idle sweep: deferred \
                     credit write-back was never flushed"
                );
                sent += 1;
            }
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
    }
    assert!(
        ring_full_seen,
        "ring must fill at least once for the test to bite"
    );
    assert!(server.credits_elided() > 0, "elision never engaged");
}

// --- 4. budget-controller properties ------------------------------------

#[test]
fn adaptive_budget_stays_inside_bounds_and_converges() {
    let cost = CostModel::default();
    let config = config_for(1, true);
    let (min, max) = (config.poll_budget_min, config.poll_budget_max);
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 0xB0D6).expect("connect");
    let id = client.client_id();

    let in_bounds = |server: &PrecursorServer| {
        let b = server.poll_budget_of(id);
        assert!((min..=max).contains(&b), "budget {b} left [{min}, {max}]");
        b
    };

    // Phase 1 — idle: sweeps are doorbell-driven, so a poll with nothing
    // written visits no ring and never consults the controller.
    let mut last_adjustments = 0;
    let (swept, adjusted) = (server.rings_swept(), server.budget_adjustments());
    for _ in 0..32 {
        server.poll();
        in_bounds(&server);
    }
    assert_eq!(server.rings_swept(), swept, "idle poll visited a ring");
    assert_eq!(
        server.budget_adjustments(),
        adjusted,
        "idle poll adjusted a budget"
    );

    // A visit that pops nothing still backs off. One small put is consumed
    // under the lazy-credit threshold (partial run: budget holds, credit
    // deferred); the next sweep's flush visit finds the ring empty and
    // halves.
    client.put(b"b:one", b"load").expect("put send");
    assert_eq!(server.poll(), 1);
    let held = in_bounds(&server);
    assert_eq!(server.credit_pending(), 1, "credit WRITE was not deferred");
    assert_eq!(server.poll(), 0);
    assert_eq!(server.credit_pending(), 0, "flush visit did not happen");
    assert_eq!(server.rings_swept(), swept + 2);
    assert_eq!(
        in_bounds(&server),
        (held / 2).max(min),
        "empty visit halves"
    );
    client.poll_replies();
    client.take_all_completed();
    server.take_reports();

    // Phase 2 — saturation: a ring refilled past the budget every sweep
    // doubles toward `max`, then holds.
    for round in 0..48 {
        loop {
            let key = format!("b:{:03}", round % 64);
            if client.put(key.as_bytes(), b"load").is_err() {
                break;
            }
        }
        server.poll();
        client.poll_replies();
        client.take_all_completed();
        server.take_reports();
        let _ = client.pump_timeouts();
        if in_bounds(&server) == max {
            last_adjustments = server.budget_adjustments();
        }
    }
    assert_eq!(
        server.poll_budget_of(id),
        max,
        "saturating load must converge to the ceiling"
    );
    assert!(last_adjustments > 0, "controller never reached the ceiling");
}

#[test]
fn fast_flooder_cannot_starve_an_honest_neighbor() {
    // The PR-2 fairness bound, re-asserted with every fast-path knob on:
    // an adversarial tenant saturating its ring every round must not push
    // the honest client below half its flood-free throughput, and the
    // adaptive budget may never exceed the static PR-2 cap.
    fn honest_ops(rounds: usize, with_flooder: bool) -> (usize, usize) {
        let cost = CostModel::default();
        let config = Config {
            max_clients: 3,
            ..Config::default()
        }
        .with_fast_path();
        let static_cap = Config::default().poll_budget_per_client;
        let mut server = PrecursorServer::new(config, &cost);
        let mut honest = PrecursorClient::connect(&mut server, 11).expect("connect");
        let mut flooder =
            with_flooder.then(|| PrecursorClient::connect(&mut server, 12).expect("connect"));
        let mut completed = 0usize;
        let mut max_flood_reports_per_sweep = 0usize;
        for round in 0..rounds {
            if let Some(f) = flooder.as_mut() {
                for i in 0..4 * static_cap {
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
            for c in [Some(&mut honest), flooder.as_mut()].into_iter().flatten() {
                let budget = server.poll_budget_of(c.client_id());
                assert!(
                    budget <= static_cap,
                    "adaptive budget {budget} exceeded the static fairness cap {static_cap}"
                );
                let _ = c.pump_timeouts();
            }
        }
        (completed, max_flood_reports_per_sweep)
    }

    const FLOOD_ROUNDS: usize = 30;
    let (baseline, _) = honest_ops(FLOOD_ROUNDS, false);
    let (flooded, max_flood) = honest_ops(FLOOD_ROUNDS, true);
    assert_eq!(
        baseline, FLOOD_ROUNDS,
        "flood-free baseline completes every round"
    );
    assert!(
        flooded * 2 >= baseline,
        "fast path let a flooder starve the honest client: {flooded} vs {baseline}"
    );
    assert!(
        max_flood > 0 && max_flood <= Config::default().poll_budget_per_client,
        "per-sweep budget must cap the flooder: saw {max_flood}"
    );
}
