//! Rogue-client and raw-RDMA adversarial tests (§3.9): clients that deviate
//! from the protocol — writing garbage into their rings, forging headers,
//! violating flow control — must not crash the server or affect other
//! clients; access control at the verbs layer must hold.

use precursor::wire::Status;
use precursor::{Config, PrecursorClient, PrecursorServer};
use precursor_sim::CostModel;

fn server_with_attacker_bundle() -> (PrecursorServer, precursor::server::ClientBundle) {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let bundle = server.add_client([66; 16]).expect("attacker connects");
    (server, bundle)
}

// Writes a framed ring record (len prefix + payload) at offset 0 of the
// attacker's own request ring, like a client that bypasses the library.
fn raw_ring_write(bundle: &mut precursor::server::ClientBundle, payload: &[u8]) {
    let mut record = Vec::with_capacity(4 + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(payload);
    bundle
        .qp
        .post_write(bundle.request_ring_rkey, 0, &record, false)
        .expect("attacker may write its own ring");
}

#[test]
fn garbage_record_yields_error_reply_not_crash() {
    let (mut server, mut bundle) = server_with_attacker_bundle();
    raw_ring_write(
        &mut bundle,
        &[0xDE, 0xAD, 0xBE, 0xEF, 0x42, 0x42, 0x42, 0x42],
    );
    let processed = server.poll();
    assert_eq!(processed, 1, "server consumed the garbage record");
    let reports = server.take_reports();
    assert_eq!(reports[0].status, Status::Error);
    // the server keeps serving
    assert_eq!(server.poll(), 0);
}

#[test]
fn garbage_does_not_affect_other_clients() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut honest = PrecursorClient::connect(&mut server, 1).expect("honest client");
    let mut attacker = server.add_client([66; 16]).expect("attacker connects");

    honest.put_sync(&mut server, b"k", b"v").unwrap();
    raw_ring_write(&mut attacker, &[0xFF; 64]);
    server.poll();
    server.take_reports();

    assert_eq!(honest.get_sync(&mut server, b"k").unwrap(), b"v");
}

#[test]
fn oversized_length_prefix_wedges_only_the_attacker() {
    let (mut server, mut bundle) = server_with_attacker_bundle();
    // a length prefix pointing far beyond the ring: the consumer treats it
    // as a torn write and waits — the attacker starves itself, nobody else
    let bogus = (u32::MAX - 9).to_le_bytes();
    bundle
        .qp
        .post_write(bundle.request_ring_rkey, 0, &bogus, false)
        .expect("write");
    assert_eq!(
        server.poll(),
        0,
        "record never completes; nothing processed"
    );

    let cost_default = CostModel::default();
    let _ = cost_default; // server still healthy for a fresh client:
    let mut honest = PrecursorClient::connect(&mut server, 2).expect("connect");
    honest.put_sync(&mut server, b"k", b"v").unwrap();
    assert_eq!(honest.get_sync(&mut server, b"k").unwrap(), b"v");
}

#[test]
fn wedged_client_is_revoked_reconnects_and_resumes() {
    // End-to-end recovery from the wedge above: the operator revokes the
    // wedged session (reclaiming its rings and pool slots), the same
    // principal re-attests through `reconnect_client`, and the revived
    // session operates normally — with honest clients never noticing.
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut honest = PrecursorClient::connect(&mut server, 1).expect("honest");
    honest.put_sync(&mut server, b"k", b"v").unwrap();

    let mut bundle = server.add_client([66; 16]).expect("wedger connects");
    let wedged_id = bundle.client_id;
    let bogus = (u32::MAX - 9).to_le_bytes();
    bundle
        .qp
        .post_write(bundle.request_ring_rkey, 0, &bogus, false)
        .expect("write");
    assert_eq!(server.poll(), 0, "wedged ring yields nothing");

    server.revoke_client(wedged_id);
    assert_eq!(
        honest.get_sync(&mut server, b"k").unwrap(),
        b"v",
        "honest client unaffected by the revocation"
    );

    let bundle = server
        .reconnect_client(wedged_id, [67; 16])
        .expect("re-attests");
    assert_eq!(bundle.client_id, wedged_id);
    let mut revived = PrecursorClient::from_bundle(
        bundle,
        std::sync::Arc::clone(server.cost()),
        precursor_sim::rng::SimRng::seed_from(9),
    );
    revived.put_sync(&mut server, b"w", b"back").unwrap();
    assert_eq!(revived.get_sync(&mut server, b"w").unwrap(), b"back");
    assert!(revived.poisoned().is_none());

    // The fresh ring consumer is clean: the old wedge is gone for good.
    assert_eq!(server.poll(), 0);
    assert_eq!(honest.get_sync(&mut server, b"k").unwrap(), b"v");
}

#[test]
fn forged_client_id_is_rejected() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut victim = PrecursorClient::connect(&mut server, 1).expect("victim");
    victim.put_sync(&mut server, b"mine", b"secret").unwrap();
    server.take_reports();

    // Attacker crafts a structurally valid frame claiming the victim's id,
    // but can only seal with its *own* session key.
    let mut attacker = server.add_client([66; 16]).expect("attacker connects");
    use precursor::wire::{request_aad, request_nonce, Opcode, RequestControl, RequestFrame};
    use precursor_crypto::gcm;
    let control = RequestControl {
        oid: 2, // guess the victim's next sequence number
        key: b"mine".to_vec(),
        k_op: None,
        payload_nonce: None,
    };
    let iv = request_nonce(2);
    let victim_id = victim.client_id();
    let sealed = gcm::seal(
        &attacker.session_key,
        &iv,
        &request_aad(Opcode::Get, victim_id),
        &control.encode(),
    );
    let frame = RequestFrame {
        opcode: Opcode::Get,
        client_id: victim_id, // forged
        iv,
        sealed_control: sealed,
        mac: precursor_crypto::Tag::default(),
        payload: Vec::new(),
    };
    raw_ring_write(&mut attacker, &frame.encode());
    server.poll();
    let reports = server.take_reports();
    // The frame arrived on the *attacker's* ring with a mismatched client
    // id → structurally rejected before any key material is touched.
    assert_eq!(reports[0].status, Status::Error);
}

#[test]
fn wrong_session_key_with_correct_id_fails_authentication() {
    let (mut server, mut attacker) = server_with_attacker_bundle();
    use precursor::wire::{request_aad, request_nonce, Opcode, RequestControl, RequestFrame};
    use precursor_crypto::{gcm, Key128};
    let control = RequestControl {
        oid: 1,
        key: b"x".to_vec(),
        k_op: None,
        payload_nonce: None,
    };
    let iv = request_nonce(1);
    // correct client id, but sealed under a made-up key
    let sealed = gcm::seal(
        &Key128::from_bytes([0xEE; 16]),
        &iv,
        &request_aad(Opcode::Get, attacker.client_id),
        &control.encode(),
    );
    let frame = RequestFrame {
        opcode: Opcode::Get,
        client_id: attacker.client_id,
        iv,
        sealed_control: sealed,
        mac: precursor_crypto::Tag::default(),
        payload: Vec::new(),
    };
    raw_ring_write(&mut attacker, &frame.encode());
    server.poll();
    let reports = server.take_reports();
    assert_eq!(
        reports[0].status,
        Status::Error,
        "GCM authentication failed in the enclave"
    );
}

#[test]
fn stolen_rkey_values_resolve_within_the_attacker_connection_only() {
    // rkeys are connection-scoped (RC semantics): the numeric value of the
    // victim's rkey, presented on the attacker's QP, resolves against the
    // *attacker's* registrations — it can never address the victim's ring.
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut victim = PrecursorClient::connect(&mut server, 1).expect("victim");
    let victim_rkey_lookalike = {
        // A second bundle's rkeys carry the same numeric ids as the first's.
        let mut attacker = server.add_client([66; 16]).expect("attacker");
        victim.put_sync(&mut server, b"mine", b"intact").unwrap();
        server.take_reports();
        // "Steal" the victim's request-ring rkey *value* by symmetry: the
        // attacker's own request_ring_rkey has the same id.
        let stolen = attacker.request_ring_rkey;
        attacker
            .qp
            .post_write(stolen, 0, &[0xEEu8; 16], false)
            .expect("resolves against the attacker's own registration");
        server.poll();
        for r in server.take_reports() {
            // anything it produced came from the *attacker's* ring
            assert_eq!(r.client_id, attacker.client_id);
        }
        stolen
    };
    let _ = victim_rkey_lookalike;
    // the victim's data and session are untouched
    assert_eq!(victim.get_sync(&mut server, b"mine").unwrap(), b"intact");
}

#[test]
fn flow_control_violation_overwrites_only_own_unread_data() {
    // §3.9: "clients could deviate from the flow control and overwrite
    // their request before being read by the server ... producing garbage
    // data" — the damage is confined to the rogue client's own requests.
    let (mut server, mut bundle) = server_with_attacker_bundle();
    // a valid-looking record followed by an overlapping overwrite
    raw_ring_write(&mut bundle, &[1u8; 32]);
    raw_ring_write(&mut bundle, &[2u8; 16]); // overwrites the first header
    server.poll();
    for r in server.take_reports() {
        assert_eq!(r.status, Status::Error, "garbage decodes to errors only");
    }
    // server remains healthy
    let mut honest = PrecursorClient::connect(&mut server, 3).expect("connect");
    honest.put_sync(&mut server, b"ok", b"fine").unwrap();
}
