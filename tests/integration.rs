//! End-to-end integration tests across the workspace crates: full protocol
//! round trips through the simulated RDMA rings, the enclave model, the
//! payload pool and both encryption modes.

use std::sync::Arc;

use precursor::wire::Status;
use precursor::{
    Config, EncryptionMode, HostFilter, HostMove, HostPlan, HostSite, PrecursorClient,
    PrecursorServer, StoreError,
};
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

fn setup(mode: EncryptionMode) -> (PrecursorServer, PrecursorClient) {
    let cost = CostModel::default();
    let config = Config {
        mode,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let client = PrecursorClient::connect(&mut server, 7).unwrap();
    (server, client)
}

#[test]
fn put_get_roundtrip_client_encryption() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"key-1", b"value-1").unwrap();
    assert_eq!(client.get_sync(&mut server, b"key-1").unwrap(), b"value-1");
    assert_eq!(server.len(), 1);
}

#[test]
fn put_get_roundtrip_server_encryption() {
    let (mut server, mut client) = setup(EncryptionMode::ServerSide);
    client.put_sync(&mut server, b"key-1", b"value-1").unwrap();
    assert_eq!(client.get_sync(&mut server, b"key-1").unwrap(), b"value-1");
}

#[test]
fn get_missing_key_is_not_found() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    assert_eq!(
        client.get_sync(&mut server, b"nope"),
        Err(StoreError::NotFound)
    );
}

#[test]
fn overwrite_returns_latest_value() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"k", b"v1").unwrap();
    client
        .put_sync(&mut server, b"k", b"v2-different-length")
        .unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"k").unwrap(),
        b"v2-different-length"
    );
    assert_eq!(server.len(), 1, "overwrite must not duplicate the key");
}

#[test]
fn delete_removes_key() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"k", b"v").unwrap();
    client.delete_sync(&mut server, b"k").unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"k"),
        Err(StoreError::NotFound)
    );
    assert_eq!(
        client.delete_sync(&mut server, b"k"),
        Err(StoreError::NotFound)
    );
    assert!(server.is_empty());
}

#[test]
fn values_of_every_paper_size_roundtrip() {
    // The value sizes swept in Figure 5.
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    for size in [16usize, 64, 128, 512, 1024, 4096, 16384] {
        let key = format!("key-{size}");
        let value: Vec<u8> = (0..size).map(|i| (i * 131 + size) as u8).collect();
        client
            .put_sync(&mut server, key.as_bytes(), &value)
            .unwrap();
        assert_eq!(
            client.get_sync(&mut server, key.as_bytes()).unwrap(),
            value,
            "size {size}"
        );
    }
}

#[test]
fn empty_and_tiny_values_roundtrip() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"empty", b"").unwrap();
    assert_eq!(client.get_sync(&mut server, b"empty").unwrap(), b"");
    client.put_sync(&mut server, b"one", b"x").unwrap();
    assert_eq!(client.get_sync(&mut server, b"one").unwrap(), b"x");
}

#[test]
fn pipelined_requests_complete_in_order() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    // queue several puts before the server polls once
    let mut oids = Vec::new();
    for i in 0..20u32 {
        let key = format!("k{i}");
        let value = format!("v{i}");
        oids.push(client.put(key.as_bytes(), value.as_bytes()).unwrap());
    }
    assert_eq!(client.in_flight(), 20);
    server.poll();
    assert_eq!(client.poll_replies(), 20);
    for oid in oids {
        let c = client.take_completed(oid).unwrap();
        assert_eq!(c.status, Status::Ok);
    }
    // now pipelined reads
    let mut gets = Vec::new();
    for i in 0..20u32 {
        gets.push((i, client.get(format!("k{i}").as_bytes()).unwrap()));
    }
    server.poll();
    client.poll_replies();
    for (i, oid) in gets {
        let c = client.take_completed(oid).unwrap();
        assert_eq!(c.value.unwrap(), format!("v{i}").as_bytes());
    }
}

#[test]
fn many_clients_share_the_store() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut clients: Vec<PrecursorClient> = (0..10)
        .map(|i| PrecursorClient::connect(&mut server, i).unwrap())
        .collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let key = format!("client-{i}-key");
        c.put_sync(&mut server, key.as_bytes(), format!("value-{i}").as_bytes())
            .unwrap();
    }
    assert_eq!(server.len(), 10);
    // every client can read every other client's (shared-namespace) keys
    for i in 0..10 {
        let key = format!("client-{i}-key");
        let got = clients[(i + 3) % 10]
            .get_sync(&mut server, key.as_bytes())
            .unwrap();
        assert_eq!(got, format!("value-{i}").as_bytes());
    }
}

#[test]
fn ring_wraparound_survives_thousands_of_ops() {
    let cost = CostModel::default();
    let config = Config {
        ring_bytes: 4096, // tiny rings to force wraparound constantly
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    for i in 0..5_000u32 {
        let key = format!("k{}", i % 37);
        let value = format!("v{i}");
        client
            .put_sync(&mut server, key.as_bytes(), value.as_bytes())
            .unwrap();
    }
    for i in 4_963..5_000u32 {
        let key = format!("k{}", i % 37);
        assert_eq!(
            client.get_sync(&mut server, key.as_bytes()).unwrap(),
            format!("v{i}").as_bytes()
        );
    }
}

#[test]
fn ring_full_surfaces_backpressure_and_recovers() {
    let cost = CostModel::default();
    let config = Config {
        ring_bytes: 2048,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    // fill the ring without letting the server drain
    let mut sent = 0u32;
    loop {
        match client.put(format!("k{sent}").as_bytes(), &[7u8; 64]) {
            Ok(_) => sent += 1,
            Err(StoreError::RingFull) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(sent < 1000, "ring never filled");
    }
    // drain and retry: the same op succeeds now
    server.poll();
    client.poll_replies();
    client
        .put(format!("k{sent}").as_bytes(), &[7u8; 64])
        .expect("credits freed after poll");
}

#[test]
fn pool_grows_via_ocall_under_load() {
    let cost = CostModel::default();
    let config = Config {
        pool_bytes: 64 * 1024, // small pool: must grow
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    for i in 0..64u32 {
        let key = format!("k{i}");
        client
            .put_sync(&mut server, key.as_bytes(), &vec![i as u8; 4096])
            .unwrap();
    }
    assert!(
        server.pool_stats().grow_events > 0,
        "pool should have grown at least once"
    );
    // everything still readable after growth
    for i in 0..64u32 {
        let key = format!("k{i}");
        assert_eq!(
            client.get_sync(&mut server, key.as_bytes()).unwrap(),
            vec![i as u8; 4096]
        );
    }
}

#[test]
fn pool_slots_fit_ciphertext_and_tag_of_power_of_two_values() {
    // A 4 KiB value is stored as 4 096 B of ciphertext ‖ a 16-byte CMAC
    // tag: it takes a 4 608-byte slot, not the 8 KiB a power-of-two class
    // would round it up to.
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    for i in 0..1000u32 {
        client
            .put_sync(&mut server, format!("k{i}").as_bytes(), &[i as u8; 4096])
            .unwrap();
    }
    let stats = server.pool_stats();
    assert_eq!(stats.allocations, 1000);
    assert!(
        stats.bytes_in_use <= 1000 * 4608,
        "{} bytes in use",
        stats.bytes_in_use
    );
    assert_eq!(
        client.get_sync(&mut server, b"k999").unwrap(),
        [999u32 as u8; 4096]
    );
}

#[test]
fn rings_hold_what_is_in_flight_not_their_capacity() {
    // 50 clients on 1 MiB rings: a 10 k-key bulk load through client 0,
    // then 20 k closed-loop ops across the fleet. A ring page is resident
    // only while it may hold a non-zero byte (plus one spare per ring).
    const CLIENTS: usize = 50;
    const PAGE: usize = 4096;
    let cost = CostModel::default();
    let config = Config {
        max_clients: CLIENTS + 1,
        ..Config::default()
    };
    assert_eq!(config.ring_bytes, 1 << 20);
    let mut server = PrecursorServer::new(config.clone(), &cost);
    let mut reply_rings = Vec::new();
    let mut clients: Vec<PrecursorClient> = (0..CLIENTS)
        .map(|i| {
            let bundle = server.add_client([i as u8 + 1; 16]).expect("connects");
            reply_rings.push(bundle.reply_ring.clone());
            let cost = Arc::clone(server.cost());
            PrecursorClient::from_bundle(bundle, cost, SimRng::seed_from(i as u64))
        })
        .collect();
    let key = |i: u32| format!("key-{i:05}");

    // Half the request ring, the largest window the credit protocol
    // sustains without a drain, pushed then drained: wider than the
    // driver's bulk load (one sweep's budget), to stress the ring.
    clients[0].put(key(0).as_bytes(), &[0; 32]).unwrap();
    let frame = clients[0].take_meter().counters().tx_bytes as usize;
    let span = (4 + frame).next_multiple_of(8);
    let batch = config.ring_bytes / (2 * span);
    let bound = (batch * span).div_ceil(PAGE) * PAGE + PAGE;
    let request_ring = server.request_ring(0).expect("client 0").clone();
    let mut most = 0;
    for i in 1..10_000u32 {
        if (i as usize).is_multiple_of(batch) {
            while server.poll() > 0 {
                clients[0].poll_replies();
            }
            clients[0].poll_replies();
            assert!(clients[0]
                .take_all_completed()
                .iter()
                .all(|c| c.status == Status::Ok));
        }
        clients[0].put(key(i).as_bytes(), &[i as u8; 32]).unwrap();
        most = most.max(request_ring.resident_bytes());
    }
    assert!(most <= bound, "{most} B resident, bound {bound} B");
    while server.poll() > 0 {
        clients[0].poll_replies();
    }
    clients[0].poll_replies();
    clients[0].take_all_completed();
    assert_eq!(server.len(), 10_000);

    // Closed loop: every client keeps one op in flight, 400 rounds.
    for round in 0..400u32 {
        for (c, client) in clients.iter_mut().enumerate() {
            let k = key((round * 131 + c as u32 * 197) % 10_000);
            if c % 10 == 0 {
                client.put(k.as_bytes(), &[round as u8; 32]).unwrap();
            } else {
                client.get(k.as_bytes()).unwrap();
            }
        }
        while server.poll() > 0 {}
        for client in &mut clients {
            assert_eq!(client.poll_replies(), 1);
            let done = client.take_all_completed();
            assert_eq!(done[0].status, Status::Ok);
        }
    }
    for (i, reply_ring) in reply_rings.iter().enumerate() {
        let request = server.request_ring(i as u32).unwrap().resident_bytes();
        assert!(request <= 2 * PAGE, "request ring {i}: {request} B");
        let reply = reply_ring.resident_bytes();
        assert!(reply <= 2 * PAGE, "reply ring {i}: {reply} B");
    }
}

#[test]
fn table_growth_preserves_all_entries() {
    let cost = CostModel::default();
    let config = Config {
        initial_table_slots: 64, // grows many times
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    for i in 0..2_000u32 {
        client
            .put_sync(
                &mut server,
                &i.to_le_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
    }
    assert_eq!(server.len(), 2_000);
    for i in (0..2_000u32).step_by(97) {
        assert_eq!(
            client.get_sync(&mut server, &i.to_le_bytes()).unwrap(),
            format!("value-{i}").as_bytes()
        );
    }
}

#[test]
fn oversized_items_rejected_cleanly() {
    let cost = CostModel::default();
    let config = Config {
        max_value_bytes: 1024,
        max_key_bytes: 16,
        ..Config::default()
    };
    let mut server = PrecursorServer::new(config, &cost);
    let mut client = PrecursorClient::connect(&mut server, 1).unwrap();
    // oversize value
    assert!(client.put_sync(&mut server, b"k", &[0u8; 4096]).is_err());
    // oversize key
    assert!(client.put_sync(&mut server, &[0u8; 64], b"v").is_err());
    // store still healthy afterwards
    client.put_sync(&mut server, b"ok", b"fine").unwrap();
    assert_eq!(client.get_sync(&mut server, b"ok").unwrap(), b"fine");
}

#[test]
fn mixed_workload_both_modes_agree() {
    // Same operation sequence against both modes must produce identical
    // visible results.
    let (mut s1, mut c1) = setup(EncryptionMode::ClientSide);
    let (mut s2, mut c2) = setup(EncryptionMode::ServerSide);
    let ops: Vec<(u8, u32)> = (0..300u32).map(|i| ((i % 3) as u8, i % 41)).collect();
    for &(kind, k) in &ops {
        let key = format!("key-{k}");
        match kind {
            0 => {
                let v = format!("val-{k}");
                c1.put_sync(&mut s1, key.as_bytes(), v.as_bytes()).unwrap();
                c2.put_sync(&mut s2, key.as_bytes(), v.as_bytes()).unwrap();
            }
            1 => {
                let r1 = c1.get_sync(&mut s1, key.as_bytes());
                let r2 = c2.get_sync(&mut s2, key.as_bytes());
                assert_eq!(r1, r2, "get {key} diverged");
            }
            _ => {
                let r1 = c1.delete_sync(&mut s1, key.as_bytes());
                let r2 = c2.delete_sync(&mut s2, key.as_bytes());
                assert_eq!(r1.is_ok(), r2.is_ok(), "delete {key} diverged");
            }
        }
    }
    assert_eq!(s1.len(), s2.len());
}

#[test]
fn server_audit_confirms_intact_storage() {
    let (mut server, mut client) = setup(EncryptionMode::ClientSide);
    client.put_sync(&mut server, b"k", b"v").unwrap();
    assert_eq!(server.audit_key(b"k"), Some(true));
    assert_eq!(server.audit_key(b"missing"), None);
}

// ---------------------------------------------------------------------------
// Doorbell-driven sweeps: a poll visits exactly the rings a delivered
// WRITE marked (plus budget-capped rings), on the N = 1 and N = 4
// instances of the sweep.
// ---------------------------------------------------------------------------

fn on_one_and_four_shards(test: impl Fn(Config)) {
    for shards in [1, 4] {
        test(Config::sharded(shards));
    }
}

#[test]
fn idle_and_unmarked_rings_are_never_visited() {
    on_one_and_four_shards(|config| {
        let mut server = PrecursorServer::new(config, &CostModel::default());
        // The very first client request WRITE vanishes silently.
        let drop = HostPlan::none().rule(HostSite::Write, HostFilter::AtoB, HostMove::Drop, 1);
        server.set_host_plan(drop, 7);
        let mut fleet: Vec<_> = (0..32)
            .map(|i| PrecursorClient::connect(&mut server, i).unwrap())
            .collect();
        let oid = fleet[0].put(b"k", b"v").unwrap();
        for _ in 0..100 {
            assert_eq!(server.poll(), 0);
        }
        assert_eq!(server.rings_swept(), 0, "idle ring or lost WRITE visited");
        // The retransmission is a delivered WRITE: one mark, one visit.
        fleet[0].complete_sync(&mut server, oid).unwrap();
        assert_eq!(fleet[0].retransmits(), 1);
        assert_eq!(server.rings_swept(), 1);
    });
}

#[test]
fn budget_capped_ring_drains_by_remark_beside_an_honest_neighbour() {
    on_one_and_four_shards(|config| {
        let config = Config {
            poll_budget_per_client: 16,
            ..config
        };
        let mut server = PrecursorServer::new(config, &CostModel::default());
        let mut honest = PrecursorClient::connect(&mut server, 1).unwrap();
        let mut flooder = PrecursorClient::connect(&mut server, 2).unwrap();
        for i in 0..64u8 {
            flooder.put(&[i], b"flood").unwrap();
        }
        // One burst, no further flooder WRITE: four budget-capped visits
        // drain it (each re-marks the ring), a fifth finds it empty, and
        // then the mark is gone. The honest client is served every sweep —
        // well inside the PR-2 2x fairness bound.
        for (flood_taken, visits) in [(16, 2), (16, 2), (16, 2), (16, 2), (0, 2), (0, 1)] {
            let swept = server.rings_swept();
            let oid = honest.put(b"h", b"steady").unwrap();
            assert_eq!(server.poll(), flood_taken + 1);
            assert_eq!(server.rings_swept() - swept, visits, "one visit per ring");
            honest.poll_replies();
            assert!(honest.take_completed(oid).is_some(), "honest op starved");
        }
    });
}

#[test]
fn revoked_clients_are_skipped_and_pruned() {
    on_one_and_four_shards(|config| {
        let mut server = PrecursorServer::new(config, &CostModel::default());
        let mut marked = PrecursorClient::connect(&mut server, 2).unwrap();
        // `marked` has a delivered, unswept WRITE: a pending doorbell.
        marked.put(b"b", b"v").unwrap();
        server.revoke_client(marked.client_id());
        // The sweep drops the revoked client's mark without a visit.
        assert_eq!(server.poll(), 0);
        assert_eq!(server.rings_swept(), 0, "revoked ring was visited");
    });
}

#[test]
fn parked_producer_is_unblocked_by_the_consuming_sweeps_credit_write() {
    on_one_and_four_shards(|config| {
        // A tiny request ring makes the producer live off credit
        // write-backs: the sweep that consumes the backlog posts the one
        // credit WRITE that frees the producer's view of the ring.
        let config = Config {
            ring_bytes: 2048,
            ..config
        };
        let mut server = PrecursorServer::new(config, &CostModel::default());
        let mut client = PrecursorClient::connect(&mut server, 0xFA57).unwrap();
        let mut consuming_visits = 0;
        for sent in 0..200 {
            let key = format!("k:{:02}", sent % 32);
            match client.put(key.as_bytes(), &[7u8; 64]) {
                Ok(_) => {}
                Err(StoreError::RingFull) => {
                    let swept = server.rings_swept();
                    assert!(server.poll() > 0, "backlog not consumed");
                    consuming_visits += server.rings_swept() - swept;
                    client.poll_replies();
                    client.take_all_completed();
                    server.take_reports();
                    client
                        .put(key.as_bytes(), &[7u8; 64])
                        .expect("producer stayed parked after the consuming sweep");
                }
                Err(e) => panic!("unexpected send error: {e:?}"),
            }
        }
        assert!(consuming_visits > 0, "ring never filled");
        assert_eq!(server.credit_writes(), consuming_visits);
    });
}

// ---------------------------------------------------------------------------
// Backend-neutral suite: the same integration-level expectations expressed
// once against `dyn TrustedKv` and run over every implementor, so any
// future backend inherits them for free.
// ---------------------------------------------------------------------------

mod trait_generic {
    use precursor::backend::{KvOp, KvStatus, PrecursorBackend, TrustedKv};
    use precursor::{Config, EncryptionMode};
    use precursor_shieldstore::backend::ShieldBackend;
    use precursor_shieldstore::server::ShieldConfig;
    use precursor_sim::CostModel;

    fn implementors() -> Vec<Box<dyn TrustedKv>> {
        let cost = CostModel::default();
        vec![
            Box::new(PrecursorBackend::new(Config::default(), &cost)),
            Box::new(PrecursorBackend::new(
                Config {
                    mode: EncryptionMode::ServerSide,
                    ..Config::default()
                },
                &cost,
            )),
            Box::new(ShieldBackend::new(ShieldConfig::default(), &cost)),
        ]
    }

    fn roundtrip_suite(kv: &mut dyn TrustedKv) {
        let name = kv.name();
        let c = kv.connect(7).expect("connect");

        // put → get returns the value
        let put = kv.op_sync(c, KvOp::Put, b"key-1", b"value-1").unwrap();
        assert_eq!(put.status, KvStatus::Ok, "{name}: put");
        let got = kv.op_sync(c, KvOp::Get, b"key-1", b"").unwrap();
        assert_eq!(got.value.as_deref(), Some(&b"value-1"[..]), "{name}: get");
        assert_eq!(kv.store_len(), 1, "{name}");

        // missing key
        let miss = kv.op_sync(c, KvOp::Get, b"nope", b"").unwrap();
        assert_eq!(miss.status, KvStatus::NotFound, "{name}: missing get");

        // overwrite keeps one live key and returns the latest value
        kv.op_sync(c, KvOp::Put, b"key-1", b"v2-different-length")
            .unwrap();
        let got = kv.op_sync(c, KvOp::Get, b"key-1", b"").unwrap();
        assert_eq!(
            got.value.as_deref(),
            Some(&b"v2-different-length"[..]),
            "{name}: overwrite"
        );
        assert_eq!(kv.store_len(), 1, "{name}: overwrite must not duplicate");

        // delete removes the key; a second delete reports NotFound
        let del = kv.op_sync(c, KvOp::Delete, b"key-1", b"").unwrap();
        assert_eq!(del.status, KvStatus::Ok, "{name}: delete");
        let gone = kv.op_sync(c, KvOp::Get, b"key-1", b"").unwrap();
        assert_eq!(gone.status, KvStatus::NotFound, "{name}: deleted get");
        let again = kv.op_sync(c, KvOp::Delete, b"key-1", b"").unwrap();
        assert_eq!(again.status, KvStatus::NotFound, "{name}: double delete");
        assert_eq!(kv.store_len(), 0, "{name}");
    }

    #[test]
    fn every_backend_passes_the_roundtrip_suite() {
        for mut kv in implementors() {
            roundtrip_suite(kv.as_mut());
        }
    }

    #[test]
    fn every_backend_isolates_clients_by_session() {
        for mut kv in implementors() {
            let name = kv.name();
            let c0 = kv.connect(1).expect("connect");
            let c1 = kv.connect(2).expect("connect");
            assert_eq!(kv.clients(), 2, "{name}");
            kv.op_sync(c0, KvOp::Put, b"shared", b"from-c0").unwrap();
            let got = kv.op_sync(c1, KvOp::Get, b"shared", b"").unwrap();
            assert_eq!(
                got.value.as_deref(),
                Some(&b"from-c0"[..]),
                "{name}: one store, many sessions"
            );
        }
    }
}
