//! Routing hints, location caches and the migration fence.

use super::*;
use precursor_rdma::replica::LinkMode;

#[test]
fn owner_hint_roundtrips() {
    for (epoch, owner) in [(1u64, 0u16), (7, 3), (0xffff_ffff, 65535)] {
        let hint = encode_owner_hint(epoch, owner);
        assert_eq!(decode_owner_hint(hint), (epoch, owner));
    }
}

#[test]
fn location_cache_ignores_stale_hints() {
    let mut cache = LocationCache::new();
    cache.learn(PlacementRing::new(2, 8)); // epoch 1
    assert_eq!(cache.epoch(), 1);
    assert!(!cache.is_stale_for(encode_owner_hint(1, 0)));
    assert!(cache.is_stale_for(encode_owner_hint(2, 1)));
    // An older ring never replaces a newer cache entry.
    let mut newer = PlacementRing::new(2, 8);
    newer.reassign_point(0, 1); // epoch 2
    cache.learn(newer);
    assert_eq!(cache.epoch(), 2);
    cache.learn(PlacementRing::new(2, 8));
    assert_eq!(cache.epoch(), 2);
}

#[test]
fn fence_leaves_no_copy_behind_to_resurrect() {
    let mut cluster = PrecursorCluster::new(2, Config::default(), &CostModel::default());
    let mut client = ClusterClient::connect(&mut cluster, 1).expect("connect");
    client.put_sync(&mut cluster, b"k", b"v").expect("put");
    let home = cluster.meta().lookup(b"k").0;
    let migrate = |cluster: &mut PrecursorCluster, to: u16| {
        assert!(cluster.start_migration(b"k", to).expect("start"));
        while !matches!(cluster.pump_migration(8), MigrationOutcome::Fenced(_)) {}
    };
    migrate(&mut cluster, 1 - home);
    assert_eq!(cluster.node(home as usize).len(), 0, "source evicts");
    client.delete_sync(&mut cluster, b"k").expect("delete");
    // Back home: the key was deleted at its owner and must stay so.
    migrate(&mut cluster, home);
    assert_eq!(
        client.get_sync(&mut cluster, b"k"),
        Err(StoreError::NotFound)
    );
}

// Two nodes and the keys `keys` of one ring segment, acked at its
// owner `home`.
fn range_of(keys: usize) -> (PrecursorCluster, ClusterClient, Vec<Vec<u8>>, u16) {
    let mut cluster = PrecursorCluster::new(2, Config::default(), &CostModel::default());
    let mut client = ClusterClient::connect(&mut cluster, 1).expect("connect");
    let point = cluster.meta().ring().point_of(b"k0");
    let range: Vec<Vec<u8>> = (0..)
        .map(|i| format!("k{i}").into_bytes())
        .filter(|k| cluster.meta().ring().point_of(k) == point)
        .take(keys)
        .collect();
    for key in &range {
        client.put_sync(&mut cluster, key, key).expect("put");
    }
    let home = cluster.meta().lookup(b"k0").0;
    (cluster, client, range, home)
}

// The in-flight link, for the host's hand on it.
fn in_flight(cluster: &mut PrecursorCluster) -> &mut Migration {
    cluster
        .migration
        .as_mut()
        .expect("a migration is in flight")
}

// The part at `position` of the migration in flight, sealed as its
// source seals it, over the plaintext the destination opened at
// `opened`: byte for byte the part that was shipped there.
fn part(cluster: &mut PrecursorCluster, position: u32, opened: usize) -> Vec<u8> {
    let key = cluster.transfer_key.clone();
    let m = in_flight(cluster);
    let (nonce, aad) = m.name(position, false);
    key.seal(&nonce, &aad, &m.parts[opened])
}

// The host pushes `frame` into the link ahead of the migration's next
// part: it must not open in that part's place, and the next pump
// delivers it first.
fn host_pushes(cluster: &mut PrecursorCluster, frame: &[u8]) {
    let key = cluster.transfer_key.clone();
    let m = in_flight(cluster);
    m.link.send_to_replica(frame);
    m.link.pump();
    assert!(!m.receive(&key, false), "a part opened out of its place");
    m.link.send_to_replica(frame);
}

// The migration aborted with nothing installed and the source still
// the sole owner serving every key; a clean retry fences.
fn aborted_then_retried(
    (mut cluster, mut client, range, home): (PrecursorCluster, ClusterClient, Vec<Vec<u8>>, u16),
    outcome: MigrationOutcome,
) {
    assert!(matches!(outcome, MigrationOutcome::Aborted(ref r) if r.keys_moved == 0));
    assert!(!cluster.migration_in_flight());
    assert_eq!(
        cluster.node(1 - home as usize).len(),
        0,
        "nothing installed"
    );
    for key in &range {
        assert_eq!(cluster.meta().lookup(key).0, home, "source still owns");
        assert!(cluster.node(home as usize).owns_key(key));
        assert!(!cluster.node(1 - home as usize).owns_key(key));
        assert_eq!(client.get_sync(&mut cluster, key).as_ref(), Ok(key));
    }
    assert!(cluster.start_migration(&range[0], 1 - home).expect("retry"));
    let fenced = loop {
        match cluster.pump_migration(1) {
            MigrationOutcome::Shipping { .. } => {}
            end => break end,
        }
    };
    assert!(matches!(fenced, MigrationOutcome::Fenced(ref r) if r.keys_moved == range.len()));
    for key in &range {
        assert_eq!(client.get_sync(&mut cluster, key).as_ref(), Ok(key));
    }
    assert_eq!(cluster.node(home as usize).len(), 0, "source evicts");
}

#[test]
fn a_part_out_of_its_place_aborts_the_migration() {
    // A reordered part: one sealed for position 2 arrives at 1.
    let (mut cluster, client, range, home) = range_of(3);
    assert!(cluster.start_migration(&range[0], 1 - home).expect("start"));
    cluster.pump_migration(1);
    let early = part(&mut cluster, 2, 0);
    host_pushes(&mut cluster, &early);
    let outcome = cluster.pump_migration(1);
    aborted_then_retried((cluster, client, range, home), outcome);

    // A replayed part: part 0 again, byte for byte, at position 1.
    let (mut cluster, client, range, home) = range_of(3);
    assert!(cluster.start_migration(&range[0], 1 - home).expect("start"));
    cluster.pump_migration(1);
    let replay = part(&mut cluster, 0, 0);
    host_pushes(&mut cluster, &replay);
    let outcome = cluster.pump_migration(1);
    aborted_then_retried((cluster, client, range, home), outcome);

    // A part of an earlier, aborted migration of the same range, from
    // and to the same nodes under the same ring epoch.
    let (mut cluster, client, range, home) = range_of(3);
    assert!(cluster.start_migration(&range[0], 1 - home).expect("start"));
    cluster.pump_migration(1);
    let foreign = part(&mut cluster, 0, 0);
    cluster.abort_migration().expect("in flight");
    assert!(cluster.start_migration(&range[0], 1 - home).expect("again"));
    host_pushes(&mut cluster, &foreign);
    let outcome = cluster.pump_migration(1);
    aborted_then_retried((cluster, client, range, home), outcome);

    // The last position dropped: the range is empty at the start, a
    // key is written while the migration is in flight, and the host
    // drops the fence part that carries it.
    let (mut cluster, mut client, range, home) = range_of(1);
    client.delete_sync(&mut cluster, &range[0]).expect("delete");
    assert!(cluster.start_migration(&range[0], 1 - home).expect("start"));
    client
        .put_sync(&mut cluster, &range[0], &range[0])
        .expect("put");
    in_flight(&mut cluster).link.set_mode(LinkMode::Partitioned);
    let outcome = cluster.pump_migration(1);
    aborted_then_retried((cluster, client, range, home), outcome);
}
