//! Log-compaction suite: the journal prefix behind the committed
//! watermark is replaced by a sealed snapshot without ever changing what
//! recovery reconstructs.
//!
//! The oracles, checked across seeds and crash points:
//!
//! * **Cut-invariance** — recovery from the compacted `(snapshot, tail)`
//!   pair reproduces, bit for bit, the digest that recovery from the
//!   uncompacted journal produces, no matter where the watermark fell.
//! * **Crash-safety** — a host crash at either durable-write point inside
//!   compaction (snapshot seal, prefix truncate) leaves a state whose
//!   recovery digest is unchanged: an unreadable seal aborts the cut with
//!   the counter untouched; a death between seal-commit and truncate
//!   leaves the committed snapshot plus the whole journal.
//! * **No stale pairs** — a replica offered a doctored cut (a delta of an
//!   older chain spliced in, two deltas swapped, a delta dropped under the
//!   kept manifest, the pre-fold base behind the current manifest, the
//!   last byte truncated, a flipped bit in the manifest or in a carried
//!   delta) refuses it and never holds its bytes; one left behind the cut
//!   is repaired by a peer with that peer's own older root and log tail,
//!   over its own link, so a partition holds the repair back until it
//!   heals. Restore and recovery reject the same blobs.
//! * **Incremental ≡ cold** — a snapshot that sealed only a delta of the
//!   keys written since the previous cut, or folded its chain into a new
//!   base, restores to exactly what a full seal of the same state restores
//!   to, across puts, overwrites, deletes, revocation evictions and
//!   torn-seal retries.
//! * **O(written)** — a cut after *k* distinct-key mutations seals at most
//!   *k* entries plus its manifest, the same bytes whatever the store's
//!   size, and an aborted seal leaves them dirty for the retry.
//! * **Authentic or aborted** — compaction commits a cut only when the
//!   bytes the host persisted are, bit for bit, the bytes the enclave
//!   sealed. It checks that by tag, without decrypting: one damaged byte
//!   anywhere in a range the cut wrote, or a blob one byte short or long,
//!   aborts it with the counter, the journal and the dirty set untouched.
//! * **Bounded growth** — after a 10k-op compacting run the journal holds
//!   exactly the tail appended since the last cut.
//!
//! Nodes and clients are built by the scenario harness
//! (`tests/scenario/mod.rs`), whose seed count widens the incremental ≡
//! cold and the damage sweeps (default 20 seeds; nightly runs 100). The
//! compaction-crash sweep is its row in `tests/chaos.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

use precursor::HostMove::Link;
use precursor::{
    CompactOutcome, Config, DurableLog, GroupCommitPolicy, HostFilter, HostMove, HostPlan,
    HostSite, LinkMode, PrecursorClient, PrecursorServer, ReplicaGroup, StoreError,
};
use precursor_sgx::counters::MonotonicCounter;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::{sweep_seeds, Event, Harness, Scenario};

const PUMP_BOUND: usize = 400;

// A journaled server's durable log.
fn log(server: &PrecursorServer) -> &DurableLog {
    server.journal().expect("journal attached").log()
}

// Bytes a compaction cut off a journaled server's log.
fn trimmed(server: &PrecursorServer) -> u64 {
    log(server).trimmed()
}

// A journaled node of three replicas, immediate group commit.
fn replicated(seed: u64) -> Harness {
    Scenario {
        replicas: 3,
        ..Scenario::journaled(seed)
    }
    .build()
}

// --- cut-invariance: random watermarks -----------------------------------

// A seeded journaled run cut at random watermarks (under the immediate
// policy every applied op is committed, so a cut lands wherever it is
// asked for): the harness checks every cut leaves the recovery digest
// unchanged and every acked write reads back afterwards.
#[test]
fn compaction_at_random_watermarks_reproduces_uncompacted_recovery_digest() {
    for seed in 0..10u64 {
        let mut rng = SimRng::seed_from(seed ^ 0xc0ffee);
        let cut = Event::Compact {
            node: 0,
            crash: None,
        };
        let cuts = (1..120).filter(|_| rng.gen_range(8) == 0);
        let run = Scenario {
            keys: 16,
            ops: 120,
            events: cuts.map(|i| (i, cut)).collect(),
            ..Scenario::journaled(seed)
        }
        .run_ok();
        // Every cut compacts or skips; the node's `journal.compactions`
        // counter and trimmed bytes move exactly with the compacted ones.
        let (mut cuts, mut trimmed) = (0, 0);
        for c in &run.compactions {
            let cut = match c.outcome {
                CompactOutcome::Compacted {
                    truncated_records: 1..,
                    ..
                } => 1,
                CompactOutcome::Skipped => 0,
                ref other => panic!("seed {seed}: unexpected {other:?}"),
            };
            assert_eq!(c.cuts, cuts + cut, "seed {seed}: journal.compactions");
            assert_eq!(c.trimmed_bytes > trimmed, cut == 1, "seed {seed}: trimmed");
            (cuts, trimmed) = (c.cuts, c.trimmed_bytes);
        }
        assert!(cuts > 0, "seed {seed}");
    }
}

// --- crash points inside compaction --------------------------------------

#[test]
fn torn_seal_aborts_compaction_with_counter_and_recovery_unchanged() {
    let mut h = Scenario::journaled(47).build();
    for i in 0u8..8 {
        h.put(0, &[i], &[i; 32]).expect("put");
    }
    // The compaction's snapshot seal is torn mid-write: the enclave
    // cannot read back what it wrote and aborts before the commit point.
    h.host(0)
        .arm(HostSite::SnapshotSeal, HostFilter::Any, HostMove::Drop);
    let group = h.group_mut();
    let before = group.probe_recovery().expect("recovery from current root");
    assert!(matches!(group.compact(), CompactOutcome::Aborted));
    let server = group.primary();
    assert_eq!(
        group.snapshot_counter().read(),
        0,
        "abort never advances the counter"
    );
    assert_eq!(trimmed(server), 0, "journal untouched");
    assert!(!server.journal_wedged(), "abort is recoverable in place");
    assert_eq!(server.metrics().counter("journal.compaction_aborts"), 1);
    let after = group.probe_recovery().expect("recovery from current root");
    assert_eq!(before, after, "aborted compaction changed recovery");

    // With the armed tear spent the same cut commits cleanly.
    let CompactOutcome::Compacted { .. } = group.compact() else {
        panic!("clean retry must compact");
    };
    assert_eq!(before, group.probe_recovery().expect("compacted root"));
}

#[test]
fn crash_between_seal_commit_and_truncate_recovers_to_same_digest() {
    let mut h = Scenario::journaled(53).build();
    for i in 0u8..8 {
        h.put(0, &[i], &[i ^ 0x11; 32]).expect("put");
    }
    // The process dies after the counter advanced but before (or while)
    // the prefix cut hit disk: the journal wedges untruncated and the
    // committed snapshot is now the only unsealable one.
    h.host(0)
        .arm(HostSite::CompactTruncate, HostFilter::Any, HostMove::Drop);
    let group = h.group_mut();
    let before = group.probe_recovery().expect("recovery from current root");
    let CompactOutcome::Wedged { base_seq, .. } = group.compact() else {
        panic!("truncate crash must wedge");
    };
    let server = group.primary();
    assert_eq!(
        group.snapshot_counter().read(),
        1,
        "seal committed before the crash"
    );
    assert!(server.journal_wedged(), "no appends after a torn truncate");
    assert_eq!(trimmed(server), 0, "prefix never cut");
    assert!(base_seq > 0);
    assert_eq!(server.metrics().counter("journal.compaction_wedges"), 1);
    let live = server.state_digest();

    // Recovery from the committed snapshot plus the *whole* journal —
    // exactly what the restarting host finds — reaches the pre-crash
    // digest: records at or below the snapshot watermark are skipped.
    let report = group.restart().expect("snapshot + whole journal recovers");
    assert!(report.snapshot_restored);
    assert!(report.skipped > 0, "pre-watermark records skipped");
    assert_eq!(group.primary().state_digest(), before);
    assert_eq!(group.primary().state_digest(), live);
}

// --- shipped compacted pairs ---------------------------------------------

// A replica that lagged behind the cut receives the (snapshot, tail) pair
// and adopts it after validating seal, version, epoch and watermark; a
// later failover promotes it and recovers from its own validated base.
#[test]
fn lagging_replica_adopts_compacted_pair_and_failover_recovers_from_it() {
    let mut h = replicated(59);
    for i in 0u8..8 {
        h.put(0, &[i], &[i; 24]).expect("put");
    }
    // Replica 0 partitions; the remaining quorum keeps committing.
    h.group_mut().host_move(0, Link(LinkMode::Partitioned));
    for i in 8u8..24 {
        h.put(0, &[i], &[i; 24]).expect("put past partition");
    }
    let cluster = h.group_mut();
    for _ in 0..8 {
        cluster.pump();
    }
    let CompactOutcome::Compacted { .. } = cluster.compact() else {
        panic!("drained journal must compact");
    };

    cluster.host_move(0, Link(LinkMode::Healthy));
    for _ in 0..PUMP_BOUND {
        cluster.pump();
    }
    assert!(
        cluster.replica_log(0).cut().is_some(),
        "healed replica adopted the shipped pair"
    );
    assert!(cluster.metrics().counter("replica.compact_ships") >= 1);
    assert_eq!(cluster.metrics().gauge("replica.lag_records"), 0);
    assert_eq!(
        cluster.replica_log(0).end(),
        log(cluster.primary()).end(),
        "pair + tail covers the full logical stream"
    );

    let pre_digest = cluster.primary().state_digest();
    let report = cluster.fail_primary(usize::MAX).expect("failover succeeds");
    assert_eq!(report.promoted, 0, "equal coverage, first candidate wins");
    assert!(report.recovery.snapshot_restored, "recovered from own base");
    assert!(!report.stale);
    assert_eq!(cluster.primary().state_digest(), pre_digest);

    h.reconnect(0, 0).expect("reconnect");
    let c = h.get(0, &[20]).expect("read after failover");
    assert_eq!(c.value.as_deref(), Some(&[20u8; 24][..]));
}

// What a host can do to a chained blob without the sealing key, given an
// older blob of the same store from before a fold: each entry is one
// doctored copy of `new`. A layout is the byte range of every part, the
// base first (`PrecursorServer::snapshot_parts`); `new` holds two deltas,
// the first carried from the cut before, and `old` a base and a delta as
// long as `new`'s, so only the rows can tell them apart.
type Layout = Vec<Range<usize>>;

fn chain_attacks(
    old: &[u8],
    old_layout: &Layout,
    new: &[u8],
    new_layout: &Layout,
) -> Vec<(&'static str, Vec<u8>)> {
    let [base, first, second] = &new_layout[..] else {
        panic!("a base and two deltas: {new_layout:?}");
    };
    let (old_base, old_first) = (&old_layout[0], &old_layout[1]);
    assert_eq!(old_base.len(), base.len(), "same-length bases");
    assert_eq!(old_first.len(), first.len(), "same-length first deltas");
    assert_eq!(first.end, second.start);
    let replaced =
        |at: &Range<usize>, with: &[u8]| [&new[..at.start], with, &new[at.end..]].concat();
    let splice = replaced(first, &old[old_first.clone()]);
    let swap = [
        &new[..first.start],
        &new[second.clone()],
        &new[first.clone()],
        &new[second.end..],
    ]
    .concat();
    let dropped = [&new[..first.start], &new[first.end..]].concat();
    let pre_fold_base = replaced(base, &old[old_base.clone()]);
    let mut manifest_bit = new.to_vec();
    manifest_bit[4 + 12 + 5] ^= 0x10;
    let mut carried_bit = new.to_vec();
    carried_bit[first.start] ^= 0x01;

    vec![
        ("a delta of an older chain spliced in", splice),
        ("two deltas swapped", swap),
        ("a delta dropped, the manifest kept", dropped),
        (
            "the pre-fold base behind the current manifest",
            pre_fold_base,
        ),
        ("last byte truncated", new[..new.len() - 1].to_vec()),
        ("bit flipped in the manifest", manifest_bit),
        ("bit flipped in a carried delta", carried_bit),
    ]
}

#[test]
fn bit_flipped_compacted_snapshot_is_refused_and_repaired_from_a_peer() {
    let cost = CostModel::default();
    for attack in 0..7 {
        let mut h = replicated(61);
        for i in 0u8..8 {
            h.put(0, &[i], &[i; 24]).expect("put");
        }
        h.group_mut().host_move(0, Link(LinkMode::Partitioned));
        for i in 8u8..24 {
            h.put(0, &[i], &[i; 24]).expect("put past partition");
        }
        // Six cuts: a walk, two deltas (the old chain), a fold of 16
        // overwrites, two deltas (the new chain). Every overwrite keeps a
        // value's length, so the two chains' parts line up byte for byte.
        let mut blobs = Vec::new();
        for writes in [
            &[][..],
            &[3],
            &[5],
            &[8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23],
            &[3],
            &[5],
        ] {
            for &i in writes {
                h.put(0, &[i], &[0xe0 ^ i ^ blobs.len() as u8; 24])
                    .expect("overwrite");
            }
            let cluster = h.group_mut();
            for _ in 0..8 {
                cluster.pump();
            }
            let CompactOutcome::Compacted { snapshot, .. } = cluster.compact() else {
                panic!("cut {} must compact", blobs.len() + 1);
            };
            blobs.push(snapshot.to_vec());
        }
        let cluster = h.group_mut();
        let folds = cluster.primary().metrics().counter("snapshot.folds");
        assert_eq!(folds, 1, "the fourth cut folds");
        let layout = |version: usize, blobs: &[Vec<u8>]| {
            let parts = cluster
                .primary()
                .snapshot_parts(version as u64, &blobs[version - 1]);
            parts.expect("own snapshot opens")
        };
        let (old, new) = (&blobs[2], &blobs[5]);
        let attacks = chain_attacks(old, &layout(3, &blobs), new, &layout(6, &blobs));
        let (what, doctored) = attacks.into_iter().nth(attack).expect("seven attacks");

        // Restore and recovery refuse the doctored blob at the current
        // counter value (and accept the honest one).
        let snap_counter = cluster.snapshot_counter();
        assert_eq!(snap_counter.read(), 6);
        let epoch_counter = MonotonicCounter::new();
        assert!(PrecursorServer::restore(Config::default(), &cost, new, snap_counter).is_ok());
        assert_eq!(
            PrecursorServer::restore(Config::default(), &cost, &doctored, snap_counter)
                .unwrap_err(),
            StoreError::SnapshotRejected,
            "{what}: restore"
        );
        assert_eq!(
            PrecursorServer::recover(
                Config::default(),
                &cost,
                Some(&doctored),
                snap_counter,
                &DurableLog::default(),
                &epoch_counter
            )
            .unwrap_err(),
            StoreError::SnapshotRejected,
            "{what}: recover"
        );

        // The untrusted host doctors the cut it ships before any replica
        // has taken it: every replica refuses cut 6, so every honest peer
        // holds cut 5 — the sealed blob held by the enclave is untouched.
        cluster.rewrite_compacted_snapshot(|blob| *blob = doctored.clone());
        cluster.host_move(0, Link(LinkMode::Healthy));
        cluster.pump();
        assert_eq!(
            cluster.metrics().counter("replica.snapshot_rejected"),
            3,
            "{what}: every replica refused the doctored cut at the adoption gate"
        );
        let honest = |cluster: &ReplicaGroup, i: usize| {
            let root = cluster
                .replica_root(i)
                .map(|(at, blob)| (*at, blob.to_vec()));
            assert_ne!(root.as_ref().map(|(_, b)| b), Some(&doctored), "{what}");
            root
        };
        for i in 1..3 {
            assert_eq!(honest(cluster, i), Some((5, blobs[4].clone())), "{what}");
        }
        assert_eq!(honest(cluster, 0), None, "{what}: nothing adopted");

        // Replica 0 is behind the cut it refused: only a peer's repair
        // reaches it, and only over its own link.
        cluster.host_move(0, Link(LinkMode::Partitioned));
        for _ in 0..PUMP_BOUND {
            cluster.pump();
        }
        assert!(cluster.metrics().counter("replica.repairs") > 0, "{what}");
        assert_eq!(
            honest(cluster, 0),
            None,
            "{what}: no repair through a partition"
        );
        assert_eq!(cluster.replica_log(0).cut(), None, "{what}");
        cluster.host_move(0, Link(LinkMode::Healthy));
        for _ in 0..PUMP_BOUND {
            cluster.pump();
        }
        assert_eq!(
            honest(cluster, 0),
            Some((5, blobs[4].clone())),
            "{what}: repaired to the peer's root, cut 5"
        );
        let (repaired, donor) = (cluster.replica_log(0), cluster.replica_log(1));
        assert_eq!(
            (repaired.trimmed(), repaired.cut()),
            (donor.trimmed(), donor.cut()),
            "{what}: the repaired log starts at the peer's cut"
        );
        assert!(repaired.trimmed() < trimmed(cluster.primary()), "{what}");
        assert_eq!(cluster.metrics().gauge("replica.lag_records"), 0);
        assert_eq!(cluster.replica_log(0).end(), log(cluster.primary()).end());

        // The repaired replica is a fully valid promotion target.
        let pre_digest = cluster.primary().state_digest();
        let report = cluster.fail_primary(usize::MAX).expect("failover succeeds");
        assert_eq!(report.promoted, 0, "{what}: equal coverage, first wins");
        assert!(!report.stale);
        assert_eq!(cluster.primary().state_digest(), pre_digest);
    }
}

// --- bounded growth ------------------------------------------------------

// Bytes of a cut frame ahead of the manifest: its tag and four words.
const CUT_HEADER: usize = 33;

#[test]
fn ten_thousand_op_compacting_run_bounds_journal_to_tail_since_last_cut() {
    for replicas in [0, 2] {
        compacting_run(replicas);
    }
}

// A 10k-put run on a node of `replicas` replicas, cut every 512 puts. With
// replicas, each cut is pumped to drain: every replica then holds the
// primary's log and its committed cut, and its link delivered that cut as
// the manifest and the one part the cut sealed, never the whole blob.
fn compacting_run(replicas: usize) {
    let mut h = Scenario {
        replicas,
        ..Scenario::journaled(67)
    }
    .build();
    let delivered = |g: &ReplicaGroup| -> Vec<u64> {
        let links = (0..replicas).map(|i| g.replica_link(i).stats());
        links.map(|stats| stats.bytes_to_replica).collect()
    };
    // Bytes of every cut's whole blob; of its frame to a replica holding
    // the cut before (header, manifest, the part it sealed); and of what
    // each replica's link delivered while a cut drained.
    let (mut whole, mut new_parts) = (0usize, 0usize);
    let mut received = vec![0u64; replicas];

    let mut rng = SimRng::seed_from(0x7777);
    let mut compactions = 0u64;
    let mut end_at_last_cut = 0u64;
    // The base bytes of the last cut, and how many cuts carried it or
    // folded their chain into a new one.
    let mut base = Vec::new();
    let (mut carried, mut folded) = (0u64, 0u64);
    for i in 0..10_000u64 {
        let k = [(i % 64) as u8, (i / 64 % 64) as u8];
        let mut v = vec![0u8; 16 + (rng.next_u32() % 48) as usize];
        rng.fill_bytes(&mut v);
        h.put(0, &k, &v).expect("put");
        if (i + 1) % 512 == 0 {
            let folds = h.group().primary().metrics().counter("snapshot.folds");
            let before = delivered(h.group());
            let snapshot = match h.group_mut().compact() {
                CompactOutcome::Compacted { snapshot, .. } => snapshot.to_vec(),
                other => panic!("op {i}: unexpected {other:?}"),
            };
            compactions += 1;
            if replicas > 0 {
                drain_cut(h.group_mut(), i);
                let after = delivered(h.group());
                for r in 0..replicas {
                    received[r] += after[r] - before[r];
                }
            }
            let group = h.group();
            let server = group.primary();
            end_at_last_cut = log(server).end();
            let version = group.snapshot_counter().read();
            let layout = server.snapshot_parts(version, &snapshot).expect("opens");
            let this_base = snapshot[layout[0].clone()].to_vec();
            let mut sealed = layout[0].len();
            if server.metrics().counter("snapshot.folds") > folds {
                folded += 1;
                assert_eq!(layout.len(), 1, "op {i}: a fold leaves no chain");
            } else if compactions > 1 {
                carried += 1;
                assert_eq!(this_base, base, "op {i}: the base is carried");
                assert!(layout.len() > 1, "op {i}: the cut appended a delta");
                sealed = layout.last().expect("a delta").len();
            }
            base = this_base;
            whole += snapshot.len();
            new_parts += CUT_HEADER + layout[0].start + sealed;
        }
    }

    let group = h.group_mut();
    let server = group.primary();
    let physical = log(server).bytes().len() as u64;
    let logical_end = log(server).end();
    assert_eq!(compactions, 10_000 / 512);
    assert_eq!(
        physical,
        logical_end - end_at_last_cut,
        "journal holds exactly the tail appended since the last cut"
    );
    assert_eq!(trimmed(server), end_at_last_cut);
    assert!(
        physical < logical_end / 10,
        "bounded: {physical} physical vs {logical_end} logical bytes"
    );
    assert_eq!(server.metrics().counter("journal.compactions"), compactions);
    assert!(server.metrics().counter("journal.truncated_records") >= 9_000);
    // Only the first cut walked the table: every later one carried the
    // base by reference or folded the chain into a new one, and the honest
    // host's copy of each shared every part: nothing was duplicated.
    assert_eq!(server.metrics().counter("snapshot.table_walks"), 1);
    assert_eq!(carried + folded, compactions - 1);
    assert!(
        carried > 0 && folded > 0,
        "{carried} carried, {folded} folded"
    );
    assert_eq!(server.metrics().counter("snapshot.bytes_copied"), 0);
    for (r, &bytes) in received.iter().enumerate() {
        println!(
            "replica {r}: {bytes} B of cut frames; new parts {new_parts} B, whole blobs {whole} B"
        );
        assert!(
            bytes <= new_parts as u64,
            "replica {r}: {bytes} B received for the cuts, {new_parts} B of new parts"
        );
    }
    assert!(
        new_parts < whole / 2,
        "{new_parts} B of new parts, {whole} B of blobs"
    );

    // The bounded journal still recovers the full state.
    let CompactOutcome::Compacted { .. } = group.compact() else {
        panic!("final cut must compact");
    };
    let digest = group.probe_recovery().expect("bounded journal recovers");
    assert_eq!(digest, group.primary().state_digest());
}

// Pumps `group` until every replica took the cut it just made, then checks
// that each holds the primary's log (start, anchor and bytes) and its
// committed cut as its root.
fn drain_cut(group: &mut ReplicaGroup, op: u64) {
    let holds = |g: &ReplicaGroup, i: usize| {
        let primary = g.primary();
        g.replica_log(i) == log(primary)
            && g.replica_root(i).map(|(_, root)| root) == primary.committed_snapshot()
    };
    for _ in 0..8 {
        if (0..group.replica_count()).all(|i| holds(group, i)) {
            return;
        }
        group.pump();
    }
    for i in 0..group.replica_count() {
        assert_eq!(
            group.replica_log(i),
            log(group.primary()),
            "op {op}: replica {i}'s log"
        );
        assert!(holds(group, i), "op {op}: replica {i}'s root");
    }
}

// --- incremental seals -----------------------------------------------------

// One seeded interleaving of puts, overwrites, deletes, tenant revocations,
// compactions and torn-seal retries. After every committed cut, the
// incremental blob and a cold full seal of the same state (taken by a
// fresh server restored from that blob, which has nothing cached) must
// restore to the same keys, values and digest — and both to the live
// state. The action trace rides in every assertion so a red seed is
// replayable from the log alone.
fn incremental_vs_cold_run(seed: u64) {
    let cost = CostModel::default();
    // Client 0 is the owner, clients 1–3 the tenants.
    let mut h = Scenario {
        clients: 4,
        ..Scenario::journaled(seed)
    }
    .build();
    let config = h.group().primary().config().clone();
    let owner = h.session(0).client_id();
    let mut tenants: Vec<Option<usize>> = (1..4).map(Some).collect();

    let mut rng = SimRng::seed_from(seed ^ 0x5e6);
    // key → (value, last writer's client id)
    let mut model: BTreeMap<Vec<u8>, (Vec<u8>, u32)> = BTreeMap::new();
    let mut trace = format!("seed {seed} shards {};", config.shards);
    let mut cuts = 0u32;
    for step in 0..160u32 {
        let key = vec![b'k', (rng.next_u32() % 48) as u8];
        let mut value = vec![0u8; 1 + rng.gen_range(120) as usize];
        rng.fill_bytes(&mut value);
        let mut compacted = None;
        match rng.gen_range(20) {
            0..=8 => {
                let _ = write!(trace, "{step}:put:{};", key[1]);
                h.put(0, &key, &value).expect("put");
                model.insert(key, (value, owner));
            }
            9..=11 => {
                let _ = write!(trace, "{step}:del:{};", key[1]);
                h.delete(0, &key).expect("delete");
                model.remove(&key);
            }
            12..=13 => {
                let t = rng.gen_range(3) as usize;
                if let Some(tenant) = tenants[t] {
                    let _ = write!(trace, "{step}:tput{t}:{};", key[1]);
                    h.put(tenant, &key, &value).expect("tenant put");
                    model.insert(key, (value, h.session(tenant).client_id()));
                }
            }
            14 => {
                let t = rng.gen_range(3) as usize;
                if let Some(tenant) = tenants[t].take() {
                    let _ = write!(trace, "{step}:revoke{t};");
                    let id = h.session(tenant).client_id();
                    h.group_mut().primary_mut().revoke_client(id);
                    model.retain(|_, (_, writer)| *writer != id);
                }
            }
            15 => {
                let _ = write!(trace, "{step}:get:{};", key[1]);
                h.get(0, &key).expect("get");
            }
            16..=18 => {
                let _ = write!(trace, "{step}:compact;");
                match h.group_mut().compact() {
                    CompactOutcome::Compacted { snapshot, .. } => {
                        compacted = Some(snapshot.to_vec());
                    }
                    CompactOutcome::Skipped => {}
                    other => panic!("{trace} unexpected {other:?}"),
                }
            }
            _ => {
                // The host tears the seal; the cut aborts and is retried.
                let _ = write!(trace, "{step}:torn-retry;");
                let seal = HostSite::SnapshotSeal;
                h.host(0).arm(seal, HostFilter::Any, HostMove::Drop);
                let version = h.group().snapshot_counter().read();
                let torn = h.group_mut().compact();
                // A skipped cut leaves nothing armed behind.
                h.host(0).disarm(seal);
                let group = h.group_mut();
                match torn {
                    CompactOutcome::Aborted => {
                        assert_eq!(group.snapshot_counter().read(), version, "{trace}");
                        let CompactOutcome::Compacted { snapshot, .. } = group.compact() else {
                            panic!("{trace} retry of an aborted cut must commit");
                        };
                        compacted = Some(snapshot.to_vec());
                    }
                    CompactOutcome::Skipped => {}
                    other => panic!("{trace} unexpected {other:?}"),
                }
            }
        }
        let Some(incremental) = compacted else {
            continue;
        };
        cuts += 1;

        let group = h.group();
        let snap_counter = group.snapshot_counter();
        let warm = PrecursorServer::restore(config.clone(), &cost, &incremental, snap_counter)
            .unwrap_or_else(|e| panic!("{trace} incremental blob restores: {e:?}"));
        let mut cold_counter = MonotonicCounter::new();
        let mut cold_source =
            PrecursorServer::restore(config.clone(), &cost, &incremental, snap_counter)
                .expect("restores twice");
        let cold_blob = cold_source.snapshot(&mut cold_counter);
        let (mut cold, _) = PrecursorServer::recover(
            config.clone(),
            &cost,
            Some(&cold_blob),
            &cold_counter,
            &DurableLog::default(),
            &MonotonicCounter::new(),
        )
        .unwrap_or_else(|e| panic!("{trace} cold full seal recovers: {e:?}"));

        let recovered = group.probe_recovery().expect("recovery from current root");
        let server = group.primary();
        assert_eq!(recovered, server.state_digest(), "{trace} live digest");
        assert_eq!(recovered, warm.state_digest(), "{trace} restored digest");
        assert_eq!(recovered, cold.state_digest(), "{trace} cold digest");
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        assert_eq!(server.live_keys(), keys, "{trace} live keys");
        assert_eq!(warm.live_keys(), keys, "{trace} incremental keys");
        assert_eq!(cold.live_keys(), keys, "{trace} cold keys");
        let mut reader = PrecursorClient::connect(&mut cold, seed ^ 0xc01d).expect("reader");
        for (key, (value, _)) in &model {
            let got = reader.get_sync(&mut cold, key);
            assert_eq!(got.as_ref(), Ok(value), "{trace} value of {key:?}");
        }
    }
    assert!(cuts >= 5, "{trace} only {cuts} cuts");
    let metrics = h.group().primary().metrics();
    let carried = metrics.counter("snapshot.bytes_carried");
    assert!(carried > 0, "{trace} no cut ever carried a part");
}

#[test]
fn incremental_snapshots_match_a_cold_full_seal_across_seeds() {
    for seed in 0..sweep_seeds() {
        incremental_vs_cold_run(seed);
    }
}

// --- authenticate-only validation: what the host persisted ----------------

// Two servers absorb one seeded stream of puts and deletes; `b` never
// compacts. Every round, before `a`'s cut is allowed to commit, the host
// persists it damaged three ways — one byte at a random offset of a random
// range the cut wrote, the blob one byte short, the blob one byte long —
// and each must abort with nothing moved. The clean retry then has to carry
// every mutation of the round (the aborts left the dirty set alone) and
// recover to the digest of the journal that was never cut.
fn damaged_cut_run(seed: u64) {
    let cost = CostModel::default();
    let mut a = Scenario::journaled(seed).build();
    let mut b = Scenario::journaled(seed).build();
    let config = a.group().primary().config().clone();

    let mut rng = SimRng::seed_from(seed ^ 0xd0c7);
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut trace = format!("seed {seed} shards {};", config.shards);
    let mut aborts = 0u64;
    for round in 0..5u32 {
        // The first cut walks the table; later ones seal a handful of keys.
        for _ in 0..if round == 0 {
            60
        } else {
            1 + rng.gen_range(12)
        } {
            let key = vec![b'k', (rng.next_u32() % 80) as u8];
            if rng.gen_range(4) == 0 && model.remove(&key).is_some() {
                let _ = write!(trace, "del:{};", key[1]);
                a.delete(0, &key).expect("delete a");
                b.delete(0, &key).expect("delete b");
            } else {
                let mut value = vec![0u8; 1 + rng.gen_range(150) as usize];
                rng.fill_bytes(&mut value);
                let _ = write!(trace, "put:{};", key[1]);
                a.put(0, &key, &value).expect("put a");
                b.put(0, &key, &value).expect("put b");
                model.insert(key, value);
            }
        }

        let (group, reference) = (a.group_mut(), b.group());
        let version = group.snapshot_counter().read();
        let cut_at = trimmed(group.primary());
        for damage in ["byte", "short", "long"] {
            let pick = rng.next_u64();
            let mask = 1 + rng.gen_range(255) as u8;
            let mut at = String::new();
            let outcome = group.compact_via(|blob, written| match damage {
                "byte" => {
                    let range = &written[pick as usize % written.len()];
                    let offset = range.start + (pick >> 32) as usize % range.len();
                    blob[offset] ^= mask;
                    at = format!("{offset}^{mask:#x} in {range:?} of {}", written.len());
                }
                "short" => {
                    blob.pop();
                }
                _ => blob.push(mask),
            });
            let _ = write!(trace, "{round}:{damage}:{at};");
            assert_eq!(outcome, CompactOutcome::Aborted, "{trace}");
            aborts += 1;
            assert_eq!(
                group.snapshot_counter().read(),
                version,
                "{trace} counter moved"
            );
            let server = group.primary();
            assert_eq!(trimmed(server), cut_at, "{trace} journal cut");
            assert!(!server.journal_wedged(), "{trace}");
        }
        let aborted = group
            .primary()
            .metrics()
            .counter("journal.compaction_aborts");
        assert_eq!(aborted, aborts);

        let _ = write!(trace, "{round}:clean;");
        let CompactOutcome::Compacted { snapshot, .. } = group.compact() else {
            panic!("{trace} clean retry must commit");
        };
        let snap_a = group.snapshot_counter();
        assert_eq!(snap_a.read(), version + 1, "{trace}");
        let mut restored =
            PrecursorServer::restore(config.clone(), &cost, &snapshot.to_vec(), snap_a)
                .unwrap_or_else(|e| panic!("{trace} retried blob restores: {e:?}"));
        let keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        assert_eq!(restored.live_keys(), keys, "{trace} restored keys");
        let mut reader = PrecursorClient::connect(&mut restored, seed ^ 0x4ead).expect("reader");
        for (key, value) in &model {
            let got = reader.get_sync(&mut restored, key);
            assert_eq!(got.as_ref(), Ok(value), "{trace} value of {key:?}");
        }
        assert_eq!(
            group.probe_recovery().expect("compacted pair recovers"),
            reference
                .probe_recovery()
                .expect("uncompacted reference recovery"),
            "{trace} compacted pair diverged from the journal never cut"
        );
    }
}

#[test]
fn damaged_persisted_cut_aborts_and_the_clean_retry_carries_every_mutation() {
    for seed in 0..sweep_seeds() {
        damaged_cut_run(seed);
    }
}

// Length and FNV-1a digest of the first, full cut of the seeded 10k-key
// store below, pinned when the snapshot became a sealed base plus a chain
// of deltas: a table walk seals the base as one message.
const FULL_CUT_LEN: usize = 1_220_166;
const FULL_CUT_FNV: u64 = 0xfaf9_0070_ae2f_7147;

fn fnv1a(bytes: &[u8]) -> u64 {
    let fold = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, fold)
}

fn user(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

// A journaled server loaded with `keys` keys of 32 B (every entry the same
// size), its client and its snapshot counter, after the first cut; and
// that cut's flat blob.
fn loaded(keys: u32) -> (PrecursorServer, PrecursorClient, MonotonicCounter, Vec<u8>) {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    server.attach_journal(GroupCommitPolicy::immediate(), &mut MonotonicCounter::new());
    let mut client = PrecursorClient::connect(&mut server, 71).expect("connect");
    for i in 0..keys {
        client
            .put_sync(&mut server, &user(i), &[i as u8; 32])
            .expect("load");
    }
    let mut snap_counter = MonotonicCounter::new();
    let CompactOutcome::Compacted { snapshot, .. } = server.compact_journal(&mut snap_counter)
    else {
        panic!("loaded store compacts");
    };
    (server, client, snap_counter, snapshot.to_vec())
}

// k = 61 distinct keys: overwrites, deletes and fresh inserts.
const K: u64 = 61;

fn write_k(server: &mut PrecursorServer, client: &mut PrecursorClient) {
    for i in 0..K as u32 {
        let k = user(i * 163);
        match i % 3 {
            0 => client.put_sync(server, &k, &[0xab; 32]).expect("put"),
            1 => client.delete_sync(server, &k).expect("delete"),
            _ => client
                .put_sync(server, &user(20_000 + i), &[0xcd; 32])
                .expect("put"),
        };
    }
}

// The plaintext bytes of the manifest framed at the front of `blob`, whose
// parts start at `parts_at`: the frame is its length, the nonce and the
// tag around it.
fn manifest_len(parts_at: usize) -> u64 {
    (parts_at - 4 - 12 - 16) as u64
}

fn bytes_sealed(server: &PrecursorServer) -> u64 {
    server.metrics().counter("snapshot.bytes_sealed")
}

#[test]
fn cut_after_k_mutations_seals_at_most_k_entries_and_an_abort_keeps_them_dirty() {
    let cost = CostModel::default();
    let (mut server, mut client, mut snap_counter, full) = loaded(10_000);
    let walks = |s: &PrecursorServer| s.metrics().counter("snapshot.table_walks");
    let carried = |s: &PrecursorServer| s.metrics().counter("snapshot.bytes_carried");

    // The first cut has nothing to carry: the table walk seals every
    // entry into one base.
    assert_eq!(
        (full.len(), fnv1a(&full)),
        (FULL_CUT_LEN, FULL_CUT_FNV),
        "a full cut's flat blob changed"
    );
    let layout = server.snapshot_parts(1, &full).expect("opens");
    assert_eq!(layout.len(), 1, "a walk seals a base and no delta");
    // Every entry is the same size; a delta record adds its kind byte.
    let entry = layout[0].len() as u64 / 10_000;
    assert_eq!(entry * 10_000, layout[0].len() as u64);
    assert_eq!((walks(&server), carried(&server)), (1, 0));
    let bytes_cold = bytes_sealed(&server);

    write_k(&mut server, &mut client);

    // Torn seal: the work was done (≤ k entries), nothing committed, and
    // the dirty set survives for the retry.
    let seal = HostSite::SnapshotSeal;
    server.set_host_plan(
        HostPlan::none().rule(seal, HostFilter::Any, HostMove::Drop, 1),
        71,
    );
    assert_eq!(
        server.compact_journal(&mut snap_counter),
        CompactOutcome::Aborted
    );
    let torn = bytes_sealed(&server) - bytes_cold;

    let CompactOutcome::Compacted { snapshot, .. } = server.compact_journal(&mut snap_counter)
    else {
        panic!("retry commits");
    };
    let snapshot = snapshot.to_vec();
    let retried = server.snapshot_parts(2, &snapshot).expect("opens");
    let manifest = manifest_len(retried[0].start);
    assert_eq!(
        bytes_sealed(&server) - bytes_cold - torn,
        torn,
        "the retry re-seals the same keys"
    );
    assert!(
        torn <= K * (entry + 1) + manifest,
        "{torn} bytes sealed for {K} writes of {entry}-byte entries"
    );
    assert_eq!(retried.len(), 2, "the base and one delta");
    assert!(
        snapshot[retried[0].clone()] == full[layout[0].clone()],
        "the base is carried"
    );
    assert_eq!(torn, retried[1].len() as u64 + manifest);
    assert_eq!(
        carried(&server),
        2 * layout[0].len() as u64,
        "both attempts carried the base"
    );
    assert_eq!(walks(&server), 1);
    assert!(
        torn * 50 < bytes_cold,
        "{torn} of {bytes_cold} bytes sealed"
    );

    // The retried blob carries every one of the k mutations.
    let mut restored = PrecursorServer::restore(Config::default(), &cost, &snapshot, &snap_counter)
        .expect("retried blob restores");
    assert_eq!(restored.state_digest(), server.state_digest());
    assert_eq!(restored.live_keys(), server.live_keys());
    let mut reader = PrecursorClient::connect(&mut restored, 72).expect("reader");
    assert_eq!(
        reader.get_sync(&mut restored, &user(0)).unwrap(),
        [0xab; 32]
    );
    assert_eq!(
        reader.get_sync(&mut restored, &user(163)),
        Err(StoreError::NotFound)
    );
    assert_eq!(
        reader.get_sync(&mut restored, &user(20_002)).unwrap(),
        [0xcd; 32]
    );
    assert_eq!(
        reader.get_sync(&mut restored, &user(9_999)).unwrap(),
        [15; 32]
    );

    // A cut with nothing new past the journal watermark is skipped; a lone
    // write seals one record.
    client
        .put_sync(&mut server, &user(5), &[1; 32])
        .expect("put");
    let before = bytes_sealed(&server);
    let CompactOutcome::Compacted { snapshot, .. } = server.compact_journal(&mut snap_counter)
    else {
        panic!("one new record compacts");
    };
    let layout = server.snapshot_parts(3, &snapshot.to_vec()).expect("opens");
    assert_eq!(layout.len(), 3);
    assert_eq!(layout[2].len() as u64, entry + 1, "one record");
    assert_eq!(
        bytes_sealed(&server) - before,
        entry + 1 + manifest_len(layout[0].start)
    );
}

// What a cut seals is what was written, not what the store holds: the
// same 61 writes after a committed cut seal the same bytes in a 10k-key
// store and in one four times its size.
#[test]
fn an_incremental_cut_seals_the_same_bytes_whatever_the_store_size() {
    let mut sealed = Vec::new();
    for keys in [10_000, 40_000] {
        let (mut server, mut client, mut snap_counter, full) = loaded(keys);
        let base = server.snapshot_parts(1, &full).expect("opens")[0].len() as u64;
        let entry = base / u64::from(keys);
        let before = bytes_sealed(&server);
        write_k(&mut server, &mut client);
        let CompactOutcome::Compacted { snapshot, .. } = server.compact_journal(&mut snap_counter)
        else {
            panic!("the incremental cut commits");
        };
        let layout = server.snapshot_parts(2, &snapshot.to_vec()).expect("opens");
        let manifest = manifest_len(layout[0].start);
        let bytes = bytes_sealed(&server) - before;
        assert!(
            bytes <= K * (entry + 1) + manifest,
            "{keys} keys: {bytes} bytes sealed for {K} writes"
        );
        sealed.push((bytes, manifest));
    }
    let [(small, small_manifest), (large, large_manifest)] = sealed[..] else {
        unreachable!()
    };
    assert!(
        small.abs_diff(large) <= small_manifest.abs_diff(large_manifest),
        "{small} bytes sealed on 10k keys, {large} on 40k"
    );
}
