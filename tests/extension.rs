//! Tests of the small-value in-enclave extension (the paper's §5.2 future
//! work: "one could as an alternative store the value directly inside the
//! trusted memory... where the key-value store switches to this
//! optimization for small values").

use precursor::{Config, PrecursorClient, PrecursorServer, StoreError};
use precursor_sim::meter::Stage;
use precursor_sim::CostModel;

fn setup_inlining() -> (PrecursorServer, PrecursorClient) {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::with_small_value_inlining(), &cost);
    let client = PrecursorClient::connect(&mut server, 5).unwrap();
    (server, client)
}

#[test]
fn small_values_roundtrip_when_inlined() {
    let (mut server, mut client) = setup_inlining();
    for len in [0usize, 1, 16, 32, 55, 56] {
        let key = format!("k{len}");
        let value = vec![len as u8; len];
        client
            .put_sync(&mut server, key.as_bytes(), &value)
            .unwrap();
        assert_eq!(
            client.get_sync(&mut server, key.as_bytes()).unwrap(),
            value,
            "len {len}"
        );
    }
}

#[test]
fn large_values_still_use_the_pool() {
    let (mut server, mut client) = setup_inlining();
    let value = vec![7u8; 4096];
    client.put_sync(&mut server, b"big", &value).unwrap();
    assert_eq!(client.get_sync(&mut server, b"big").unwrap(), value);
    // pool was used for the large value
    assert!(server.pool_stats().allocations >= 1);
}

#[test]
fn threshold_boundary_is_exact() {
    let (mut server, mut client) = setup_inlining();
    let before = server.pool_stats().allocations;
    client.put_sync(&mut server, b"at", &[1u8; 56]).unwrap(); // inlined
    assert_eq!(server.pool_stats().allocations, before, "56 B is inlined");
    client.put_sync(&mut server, b"above", &[1u8; 57]).unwrap(); // pooled
    assert_eq!(
        server.pool_stats().allocations,
        before + 1,
        "57 B uses the pool"
    );
}

#[test]
fn inlined_values_are_immune_to_untrusted_tampering() {
    // The attack surface of §2.3 is *untrusted* memory; an inlined value
    // lives in the EPC, so the rogue admin cannot reach it at all.
    let (mut server, mut client) = setup_inlining();
    client.put_sync(&mut server, b"small", b"secret").unwrap();
    assert!(
        !server.corrupt_stored_payload(b"small"),
        "no untrusted bytes to corrupt"
    );
    assert_eq!(client.get_sync(&mut server, b"small").unwrap(), b"secret");
}

#[test]
fn pooled_values_remain_tamperable_and_detected() {
    let (mut server, mut client) = setup_inlining();
    client
        .put_sync(&mut server, b"big", &vec![9u8; 500])
        .unwrap();
    assert!(server.corrupt_stored_payload(b"big"));
    assert_eq!(
        client.get_sync(&mut server, b"big"),
        Err(StoreError::IntegrityViolation)
    );
}

#[test]
fn overwrite_across_the_threshold_both_directions() {
    let (mut server, mut client) = setup_inlining();
    // small -> large
    client.put_sync(&mut server, b"k", b"tiny").unwrap();
    client
        .put_sync(&mut server, b"k", &vec![2u8; 1000])
        .unwrap();
    assert_eq!(client.get_sync(&mut server, b"k").unwrap(), vec![2u8; 1000]);
    // large -> small (old pool slot must be freed)
    let in_use_before = server.pool_stats().bytes_in_use;
    client.put_sync(&mut server, b"k", b"tiny-again").unwrap();
    assert!(server.pool_stats().bytes_in_use < in_use_before);
    assert_eq!(client.get_sync(&mut server, b"k").unwrap(), b"tiny-again");
}

#[test]
fn delete_works_for_inlined_values() {
    let (mut server, mut client) = setup_inlining();
    client.put_sync(&mut server, b"k", b"v").unwrap();
    client.delete_sync(&mut server, b"k").unwrap();
    assert_eq!(
        client.get_sync(&mut server, b"k"),
        Err(StoreError::NotFound)
    );
}

#[test]
fn audit_covers_inlined_values() {
    let (mut server, mut client) = setup_inlining();
    client.put_sync(&mut server, b"k", b"v").unwrap();
    assert_eq!(server.audit_key(b"k"), Some(true));
}

#[test]
fn inlined_get_serves_from_the_enclave() {
    // With inlining, the value bytes cross the enclave boundary on the way
    // out — measurable on the meter (the trade-off §5.2 mentions: saves the
    // untrusted read, spends enclave copies).
    let (mut server, mut client) = setup_inlining();
    client.put_sync(&mut server, b"k", &[1u8; 48]).unwrap();
    server.take_reports();
    client.get(b"k").unwrap();
    server.poll();
    let report = server.take_reports().pop().unwrap();
    client.poll_replies();
    assert!(
        report.meter.counters().enclave_bytes >= 48,
        "inlined get moves the value across the boundary: {} bytes",
        report.meter.counters().enclave_bytes
    );
    assert!(report.meter.get(Stage::Enclave) > precursor_sim::Nanos::ZERO);
}

#[test]
fn disabled_by_default_matches_paper_configuration() {
    let cost = CostModel::default();
    let mut server = PrecursorServer::new(Config::default(), &cost);
    let mut client = PrecursorClient::connect(&mut server, 5).unwrap();
    let before = server.pool_stats().allocations;
    client.put_sync(&mut server, b"k", b"x").unwrap(); // 1-byte value
    assert_eq!(
        server.pool_stats().allocations,
        before + 1,
        "without the extension even tiny values use the pool"
    );
}

#[test]
fn inlined_values_are_charged_to_the_epc_working_set() {
    // The in-enclave pool is an enclave region of its own, resized with the
    // pool: the same 1 500 puts of 48 B values (64 B stored with their MAC)
    // take at least their bytes' pages, and at most twice that (the pool
    // doubles), beyond the working set of a store that keeps them outside.
    const PUTS: u64 = 1_500;
    let cost = CostModel::default();
    let pages = |config: Config| {
        let mut server = PrecursorServer::new(config, &cost);
        let mut client = PrecursorClient::connect(&mut server, 5).unwrap();
        for i in 0..PUTS {
            client
                .put_sync(&mut server, format!("key{i}").as_bytes(), &[i as u8; 48])
                .unwrap();
        }
        server.sgx_report().working_set_pages
    };
    let outside = pages(Config::default());
    let inlined = pages(Config::with_small_value_inlining());
    let stored = (PUTS * 64).div_ceil(cost.page_bytes);
    assert!(
        (stored..=2 * stored).contains(&(inlined - outside)),
        "{inlined} pages inlined, {outside} outside, {stored} of stored values"
    );
}
