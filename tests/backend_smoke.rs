//! Cross-backend smoke test: every [`TrustedKv`] implementor — Precursor
//! client-encryption (one node and two), Precursor server-encryption, and
//! ShieldStore — is instantiated through the trait and driven through one
//! mixed
//! GET/SET/DELETE sequence. The observable results (per-op status and
//! value, final store size, per-op report stream) must be identical across
//! backends: the trait contract, not any particular implementation, defines
//! the semantics.

use precursor::backend::{KvCompleted, KvOp, KvStatus, PrecursorBackend, Transport, TrustedKv};
use precursor::{Config, EncryptionMode};
use precursor_shieldstore::backend::ShieldBackend;
use precursor_shieldstore::server::ShieldConfig;
use precursor_sim::CostModel;

fn backends() -> Vec<Box<dyn TrustedKv>> {
    let cost = CostModel::default();
    let client_enc = Config {
        mode: EncryptionMode::ClientSide,
        ..Config::default()
    };
    let server_enc = Config {
        mode: EncryptionMode::ServerSide,
        ..Config::default()
    };
    vec![
        Box::new(PrecursorBackend::new(client_enc.clone(), &cost)),
        Box::new(PrecursorBackend::new(server_enc, &cost)),
        Box::new(ShieldBackend::new(ShieldConfig::default(), &cost)),
        Box::new(PrecursorBackend::with_nodes(2, client_enc, &cost)),
    ]
}

// The observable outcome of one op, comparable across backends.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    op: KvOp,
    status: KvStatus,
    value: Option<Vec<u8>>,
}

fn observe(done: KvCompleted) -> Observed {
    Observed {
        op: done.op,
        status: done.status,
        value: done.value,
    }
}

// One mixed GET/SET/DELETE script over two clients. Returns every op's
// observable outcome in script order plus the final store size.
fn run_script(kv: &mut dyn TrustedKv) -> (Vec<Observed>, usize) {
    let c0 = kv.connect(7).expect("connect c0");
    let c1 = kv.connect(1007).expect("connect c1");
    let script: &[(usize, KvOp, &[u8], &[u8])] = &[
        (c0, KvOp::Put, b"alpha", b"value-one"),
        (c0, KvOp::Get, b"alpha", b""),
        (c1, KvOp::Get, b"alpha", b""),
        (c1, KvOp::Put, b"alpha", b"value-two-longer"),
        (c0, KvOp::Get, b"alpha", b""),
        (c0, KvOp::Get, b"missing", b""),
        (c1, KvOp::Put, b"beta", b"b"),
        (c0, KvOp::Delete, b"alpha", b""),
        (c1, KvOp::Get, b"alpha", b""),
        (c0, KvOp::Delete, b"alpha", b""),
        (c1, KvOp::Get, b"beta", b""),
    ];
    let mut observed = Vec::new();
    for &(client, op, key, value) in script {
        let done = kv.op_sync(client, op, key, value).expect("op completes");
        observed.push(observe(done));
    }
    (observed, kv.store_len())
}

#[test]
fn mixed_sequence_is_identical_across_backends() {
    let mut results = Vec::new();
    for mut kv in backends() {
        let name = kv.name();
        results.push((name, run_script(kv.as_mut())));
    }
    let (baseline_name, baseline) = &results[0];
    for (name, outcome) in &results[1..] {
        assert_eq!(
            outcome, baseline,
            "{name} observable results diverge from {baseline_name}"
        );
    }
    // Sanity on the shared expectation itself, not just cross-agreement.
    let (ops, len) = baseline;
    assert_eq!(*len, 1, "only `beta` should survive the script");
    assert_eq!(ops[0].status, KvStatus::Ok);
    assert_eq!(ops[1].value.as_deref(), Some(&b"value-one"[..]));
    assert_eq!(ops[4].value.as_deref(), Some(&b"value-two-longer"[..]));
    assert_eq!(ops[5].status, KvStatus::NotFound);
    assert_eq!(ops[8].status, KvStatus::NotFound);
    assert_eq!(ops[9].status, KvStatus::NotFound, "double delete");
    assert_eq!(ops[10].value.as_deref(), Some(&b"b"[..]));
}

#[test]
fn report_stream_matches_across_backends() {
    let mut streams = Vec::new();
    for mut kv in backends() {
        let c0 = kv.connect(3).expect("connect");
        for (op, key, value) in [
            (KvOp::Put, &b"k1"[..], &b"v1"[..]),
            (KvOp::Get, b"k1", b""),
            (KvOp::Delete, b"k1", b""),
            (KvOp::Get, b"k1", b""),
        ] {
            kv.op_sync(c0, op, key, value).expect("op completes");
        }
        let reports: Vec<(KvOp, KvStatus, usize)> = kv
            .take_reports()
            .into_iter()
            .map(|r| (r.op, r.status, r.value_len))
            .collect();
        streams.push((kv.name(), reports));
    }
    let (_, baseline) = &streams[0];
    assert_eq!(
        baseline
            .iter()
            .map(|(op, status, _)| (*op, *status))
            .collect::<Vec<_>>(),
        vec![
            (KvOp::Put, KvStatus::Ok),
            (KvOp::Get, KvStatus::Ok),
            (KvOp::Delete, KvStatus::Ok),
            (KvOp::Get, KvStatus::NotFound),
        ]
    );
    for (name, stream) in &streams[1..] {
        assert_eq!(stream, baseline, "{name} report stream diverges");
    }
}

#[test]
fn metrics_are_equivalent_across_backends() {
    // The same seeded script must land the same op and status counts in
    // every backend's registry (the namespace is backend-neutral), and
    // each registry must conserve cycles: the per-stage histogram sums
    // add up to the `stage.total_ns` sum exactly, with no residual.
    let mut counts = Vec::new();
    for mut kv in backends() {
        let name = kv.name();
        run_script(kv.as_mut());
        let m = kv.metrics();
        counts.push((
            name,
            (
                m.counter("ops.put"),
                m.counter("ops.get"),
                m.counter("ops.delete"),
                m.counter("status.ok"),
                m.counter("status.not_found"),
            ),
        ));
        let stage_total: u128 = [
            "stage.client_cpu_ns",
            "stage.server_critical_ns",
            "stage.server_overhead_ns",
            "stage.enclave_ns",
            "stage.network_ns",
        ]
        .iter()
        .map(|s| m.histogram(s).map_or(0, |h| h.sum()))
        .sum();
        let total = m.histogram("stage.total_ns").expect("total histogram");
        assert_eq!(
            stage_total,
            total.sum(),
            "{name}: stage sums must equal the end-to-end sum exactly"
        );
        // One total sample per processed op.
        let ops = m.counter("ops.put") + m.counter("ops.get") + m.counter("ops.delete");
        assert_eq!(total.count(), ops, "{name}: one sample per op");
    }
    let (baseline_name, baseline) = &counts[0];
    assert_eq!(baseline.0 + baseline.1 + baseline.2, 11, "script length");
    for (name, c) in &counts[1..] {
        assert_eq!(
            c, baseline,
            "{name} op/status counts diverge from {baseline_name}"
        );
    }
}

#[test]
fn transports_are_declared_correctly() {
    let kinds: Vec<(String, Transport)> = backends()
        .iter()
        .map(|kv| (kv.name().to_string(), kv.transport()))
        .collect();
    assert_eq!(
        kinds,
        vec![
            ("Precursor".to_string(), Transport::Rdma),
            ("Precursor server-encryption".to_string(), Transport::Rdma),
            ("ShieldStore".to_string(), Transport::Tcp),
            ("Precursor".to_string(), Transport::Rdma),
        ]
    );
}

#[test]
fn meters_flow_through_the_trait() {
    for mut kv in backends() {
        let c = kv.connect(9).expect("connect");
        kv.take_client_meter(c);
        kv.op_sync(c, KvOp::Put, b"metered", b"payload-bytes")
            .expect("put");
        let meter = kv.take_client_meter(c);
        assert!(
            meter.counters().tx_bytes > 0,
            "{}: client meter should record transmitted bytes",
            kv.name()
        );
        let reports = kv.take_reports();
        assert_eq!(reports.len(), 1, "{}", kv.name());
        assert_eq!(reports[0].shard, 0, "single-shard/shardless backends");
        assert!(reports[0].node < 2, "{}", kv.name());
    }
}

#[test]
fn migrating_two_node_backend_matches_one_node_through_redirects() {
    // `alpha`'s ring segment changes owner every ~18 sweeps, so clients
    // keep meeting fences that postdate their location caches: `op_sync`
    // follows the sealed redirects and the script cannot tell.
    let cost = CostModel::default();
    let mut one = PrecursorBackend::new(Config::default(), &cost);
    let mut two = PrecursorBackend::with_nodes(2, Config::default(), &cost);
    two.enable_migration(b"alpha", 2);
    for round in 0..6 {
        assert_eq!(run_script(&mut one), run_script(&mut two), "round {round}");
    }
    let m = two.metrics();
    assert!(m.counter("cluster.migrations_fenced") > 1);
    assert!(
        m.counter("cluster.redirects") > 0,
        "no fence was ever observed"
    );
    assert_eq!(
        m.counter("status.not_mine"),
        m.counter("cluster.redirects"),
        "every redirect is one sealed NotMine visit"
    );
    assert_eq!(one.metrics().counter("cluster.redirects"), 0);
}

#[test]
fn journaled_backend_seals_mutations_and_matches_plain_outcomes() {
    let cost = CostModel::default();
    let mut plain = PrecursorBackend::new(Config::default(), &cost);
    let mut journaled = PrecursorBackend::new(Config::default(), &cost);
    journaled.enable_durability(precursor::GroupCommitPolicy::batched(32, 0));

    let (plain_obs, plain_len) = run_script(&mut plain);
    let (journ_obs, journ_len) = run_script(&mut journaled);
    assert_eq!(plain_obs, journ_obs, "journaling must not change outcomes");
    assert_eq!(plain_len, journ_len);

    // The journal really engaged: group flushes happened, bytes sealed,
    // nothing left gated, and no reports were dropped.
    let m = journaled.metrics();
    assert!(m.counter("journal.group_commit_flushes") > 0);
    assert!(m.counter("journal.bytes_sealed") > 0);
    assert_eq!(journaled.server().gated_replies(), 0);
    assert_eq!(m.counter("server.reports_dropped"), 0);
    assert!(plain.metrics().counter("journal.group_commit_flushes") == 0);
}

#[test]
fn three_node_backend_journals_and_compacts_every_node_and_reports_node_zero() {
    let cost = CostModel::default();
    let mut kv = PrecursorBackend::with_nodes(3, Config::default(), &cost);
    // Every node opens the first epoch of its own counter; node 0's is
    // the one returned.
    let epoch = kv.enable_durability(precursor::GroupCommitPolicy::immediate());
    assert_eq!(epoch, 1);
    assert_eq!(kv.server().journal().map(|j| j.epoch()), Some(1));
    let (_, len) = run_script(&mut kv);

    let records = kv.server().journal().expect("journal").last_seq();
    let outcome = kv.compact_now();
    let precursor::CompactOutcome::Compacted {
        truncated_records,
        base_seq,
        ..
    } = outcome
    else {
        panic!("node 0 journaled the connects, so its cut commits: {outcome:?}");
    };
    assert_eq!((truncated_records, base_seq), (records, records));
    assert_eq!(
        kv.server().journal().expect("journal").log().base_seq(),
        records
    );
    // The script's keys spread over the ring: more than one node had
    // something to cut, and every node cut all of it (one flush a record
    // under the immediate policy).
    let m = kv.metrics();
    assert!(m.counter("journal.compactions") > 1);
    assert_eq!(
        m.counter("journal.truncated_records"),
        m.counter("journal.group_commit_flushes")
    );
    assert_eq!(kv.store_len(), len);
}
