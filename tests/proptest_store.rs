//! Property-based end-to-end tests: random operation sequences executed
//! against the full Precursor stack must agree with the reference model,
//! in every encryption mode and with the small-value extension. The store
//! cases are fault-free single-client rows of the scenario harness
//! (`tests/scenario/mod.rs`): its model checks every completion and the
//! node's key count after every op, and the closing read-back plus the
//! enclave's storage audit check every live key. With no fault plan and no
//! adversary, any op that does not succeed on its first attempt — a false
//! integrity alarm, a Busy, a lost session — fails the row.

use precursor::Config;

#[path = "scenario/mod.rs"]
mod scenario;
use scenario::Scenario;

// One fault-free single-client row: `ops` ops with 0–199-byte values over
// 24 keys, on one node of `config`.
fn store(seed: u64, ops: usize, config: Config) -> Scenario {
    Scenario {
        config,
        ops,
        value_len: 0..200,
        ..Scenario::new(seed)
    }
}

// `cases` runs of 1..=max_ops ops.
fn run_cases(seed: u64, cases: u64, max_ops: usize, config: Config) {
    for seed in seed..seed + cases {
        let ops = 1 + (seed as usize).wrapping_mul(7919) % max_ops;
        store(seed, ops, config.clone()).run_ok();
    }
}

#[test]
fn store_row_fails_on_a_spurious_busy() {
    // A pool quota below one value's slot refuses every put with Busy
    // backpressure: a fault-free row reports the first one, it does not
    // retry it.
    let config = Config {
        pool_quota_bytes: 1,
        ..Config::default()
    };
    let busy = store(0xb5, 20, config).run();
    let v = busy.expect_err("Busy is a violation");
    assert!(v.what.contains("fault-free op saw"), "{}", v.what);
}

#[test]
fn store_matches_model_client_encryption() {
    run_cases(0xc11e47, 24, 59, Config::default());
}

#[test]
fn store_matches_model_server_encryption() {
    run_cases(0x5e12e4, 24, 59, Config::server_encryption());
}

#[test]
fn store_matches_model_with_small_value_inlining() {
    run_cases(0x1417e, 24, 59, Config::with_small_value_inlining());
}

#[test]
fn store_matches_model_tiny_rings() {
    // Tiny rings force constant wraparound and credit churn.
    let config = Config {
        ring_bytes: 2048,
        ..Config::default()
    };
    run_cases(0x7193, 24, 39, config);
}

#[test]
fn store_matches_model_multi_shard() {
    // The full stack with a partitioned table + handoff queues must stay
    // indistinguishable from the sequential model.
    run_cases(0x54a2d, 24, 59, Config::sharded(4));
}

// --- shard-routing properties -------------------------------------------

mod shard_routing {
    use precursor::wire::shard_of_key;
    use precursor_sim::rng::SimRng;
    use precursor_storage::{shard_of_hash, stable_key_hash, RobinHoodMap, ShardedRobinHoodMap};

    fn random_key(rng: &mut SimRng) -> Vec<u8> {
        let mut k = vec![0u8; 1 + rng.gen_range(32) as usize];
        rng.fill_bytes(&mut k);
        k
    }

    #[test]
    fn every_key_routes_to_exactly_one_in_range_shard() {
        let mut rng = SimRng::seed_from(0x50571);
        for _ in 0..2_000 {
            let key = random_key(&mut rng);
            let hash = stable_key_hash(key.as_slice());
            for shards in [1usize, 2, 3, 4, 7, 8, 16] {
                let s = shard_of_hash(hash, shards);
                assert!(s < shards, "{s} out of range for {shards}");
                // Routing is a pure function of (hash, shards): the wire
                // helper, fed the same bytes, lands on the same shard.
                assert_eq!(s, shard_of_key(&key, shards));
            }
        }
    }

    #[test]
    fn routing_is_stable_under_insert_delete_resize() {
        // Grow a sharded map through several resizes, with interleaved
        // deletes; each key's shard assignment never moves.
        let mut rng = SimRng::seed_from(0xe512e);
        let mut map: ShardedRobinHoodMap<Vec<u8>, u64> = ShardedRobinHoodMap::with_capacity(4, 16);
        let mut homes: Vec<(Vec<u8>, usize)> = Vec::new();
        for i in 0..3_000u64 {
            let key = random_key(&mut rng);
            let home = map.shard_of(&key);
            map.insert(key.clone(), i);
            homes.push((key, home));
            if i % 5 == 0 {
                let (victim, victim_home) =
                    homes[rng.gen_range(homes.len() as u64) as usize].clone();
                assert_eq!(map.shard_of(&victim), victim_home);
                map.remove(&victim);
            }
        }
        for (key, home) in &homes {
            assert_eq!(map.shard_of(key), *home, "resize moved a key's shard");
        }
    }

    #[test]
    fn sharded_map_aggregates_match_unsharded_oracle() {
        let mut rng = SimRng::seed_from(0x0ac1e);
        for shards in [1usize, 2, 4, 8] {
            let mut sharded: ShardedRobinHoodMap<Vec<u8>, u64> =
                ShardedRobinHoodMap::with_capacity(shards, 64);
            let mut oracle: RobinHoodMap<Vec<u8>, u64> = RobinHoodMap::with_capacity(64);
            for i in 0..1_200u64 {
                let key = random_key(&mut rng);
                match rng.gen_range(4) {
                    0 => {
                        sharded.remove(&key);
                        oracle.remove(&key);
                    }
                    _ => {
                        sharded.insert(key.clone(), i);
                        oracle.insert(key, i);
                    }
                }
                assert_eq!(sharded.len(), oracle.len());
            }
            assert_eq!(
                sharded.state_digest(),
                oracle.state_digest(),
                "{shards}-shard digest must equal the unsharded oracle"
            );
            for (k, v) in oracle.iter() {
                assert_eq!(sharded.get(k), Some(v));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-format round-trip properties: every frame/control codec in
// `precursor::wire` and `precursor_shieldstore::wire` must decode its own
// encoding back to the identical value, must reject every truncation that
// cuts structure, and must never silently accept a bit-flipped buffer as
// the original message.
// ---------------------------------------------------------------------------

mod wire_roundtrip {
    use precursor::wire::{Opcode, ReplyControl, ReplyFrame, RequestControl, RequestFrame, Status};
    use precursor_crypto::keys::{Key256, Nonce12, Nonce8, Tag};
    use precursor_shieldstore::wire as shield;
    use precursor_sim::rng::SimRng;

    const CASES: u64 = 300;

    fn bytes(rng: &mut SimRng, max: u64) -> Vec<u8> {
        let mut v = vec![0u8; rng.gen_range(max) as usize];
        rng.fill_bytes(&mut v);
        v
    }

    fn array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
        let mut a = [0u8; N];
        rng.fill_bytes(&mut a);
        a
    }

    fn opcode(rng: &mut SimRng) -> Opcode {
        match rng.gen_range(3) {
            0 => Opcode::Put,
            1 => Opcode::Get,
            _ => Opcode::Delete,
        }
    }

    fn status(rng: &mut SimRng) -> Status {
        match rng.gen_range(5) {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::Replay,
            3 => Status::Error,
            _ => Status::Busy,
        }
    }

    fn request_frame(rng: &mut SimRng) -> RequestFrame {
        RequestFrame {
            opcode: opcode(rng),
            client_id: rng.next_u32(),
            iv: Nonce12::from_bytes(array(rng)),
            sealed_control: bytes(rng, 120),
            mac: Tag::from_bytes(array(rng)),
            payload: bytes(rng, 300),
        }
    }

    fn reply_frame(rng: &mut SimRng) -> ReplyFrame {
        ReplyFrame {
            status: status(rng),
            opcode: opcode(rng),
            reply_seq: u64::from(rng.next_u32()),
            sealed_control: bytes(rng, 120),
            payload: bytes(rng, 300),
        }
    }

    fn request_control(rng: &mut SimRng) -> RequestControl {
        let with_key_material = rng.gen_range(2) == 0;
        RequestControl {
            oid: u64::from(rng.next_u32()),
            key: bytes(rng, 60),
            k_op: with_key_material.then(|| Key256::from_bytes(array(rng))),
            payload_nonce: with_key_material.then(|| Nonce8::from_bytes(array(rng))),
        }
    }

    fn reply_control(rng: &mut SimRng) -> ReplyControl {
        let with_get_fields = rng.gen_range(2) == 0;
        ReplyControl {
            oid: u64::from(rng.next_u32()),
            k_op: with_get_fields.then(|| Key256::from_bytes(array(rng))),
            payload_nonce: with_get_fields.then(|| Nonce8::from_bytes(array(rng))),
            mac: with_get_fields.then(|| Tag::from_bytes(array(rng))),
            epoch: rng.next_u32(),
            store_seq: u64::from(rng.next_u32()),
            store_digest: array(rng),
            chain: Tag::from_bytes(array(rng)),
            retry_after_ns: u64::from(rng.next_u32()),
        }
    }

    // Truncating strictly inside the encoding must never decode to the
    // original message; flipping one bit must either be rejected or decode
    // to something observably different.
    fn assert_rejects_corruption<T, D>(original: &T, encoded: &[u8], rng: &mut SimRng, decode: D)
    where
        T: PartialEq + std::fmt::Debug,
        D: Fn(&[u8]) -> Option<T>,
    {
        if !encoded.is_empty() {
            let cut = (rng.gen_range(encoded.len() as u64)) as usize;
            if let Some(t) = decode(&encoded[..cut]) {
                assert_ne!(&t, original, "truncation at {cut} reproduced the frame");
            }
            let mut flipped = encoded.to_vec();
            let bit = rng.gen_range(8 * encoded.len() as u64) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Some(t) = decode(&flipped) {
                assert_ne!(&t, original, "bit flip {bit} went unnoticed");
            }
        }
    }

    #[test]
    fn precursor_request_frames_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F0);
        for _ in 0..CASES {
            let frame = request_frame(&mut rng);
            let encoded = frame.encode();
            assert_eq!(RequestFrame::decode(&encoded).unwrap(), frame);
            assert_rejects_corruption(&frame, &encoded, &mut rng, |b| RequestFrame::decode(b).ok());
        }
    }

    #[test]
    fn precursor_reply_frames_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F1);
        for _ in 0..CASES {
            let frame = reply_frame(&mut rng);
            let encoded = frame.encode();
            assert_eq!(ReplyFrame::decode(&encoded).unwrap(), frame);
            assert_rejects_corruption(&frame, &encoded, &mut rng, |b| ReplyFrame::decode(b).ok());
        }
    }

    #[test]
    fn precursor_request_controls_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F2);
        for _ in 0..CASES {
            let control = request_control(&mut rng);
            let encoded = control.encode();
            assert_eq!(RequestControl::decode(&encoded).unwrap(), control);
            assert_eq!(
                encoded.len(),
                RequestControl::encoded_len(control.key.len(), control.k_op.is_some()),
                "encoded_len must predict the encoding"
            );
            assert_rejects_corruption(&control, &encoded, &mut rng, |b| {
                RequestControl::decode(b).ok()
            });
        }
    }

    #[test]
    fn precursor_reply_controls_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F3);
        for _ in 0..CASES {
            let control = reply_control(&mut rng);
            let encoded = control.encode();
            assert_eq!(ReplyControl::decode(&encoded).unwrap(), control);
            assert_rejects_corruption(&control, &encoded, &mut rng, |b| {
                ReplyControl::decode(b).ok()
            });
        }
    }

    fn shield_op(rng: &mut SimRng) -> shield::ShieldOp {
        match rng.gen_range(3) {
            0 => shield::ShieldOp::Put,
            1 => shield::ShieldOp::Get,
            _ => shield::ShieldOp::Delete,
        }
    }

    #[test]
    fn shield_requests_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F4);
        for _ in 0..CASES {
            let op = shield_op(&mut rng);
            let oid = u64::from(rng.next_u32());
            let key = bytes(&mut rng, 60);
            let value = bytes(&mut rng, 300);
            let encoded = shield::encode_request(op, oid, &key, &value);
            let (d_op, d_oid, d_key, d_value) =
                shield::decode_request(&encoded).expect("roundtrip");
            assert_eq!(
                (d_op, d_oid, d_key, d_value),
                (op, oid, &key[..], &value[..])
            );

            let original = (op, oid, key.clone(), value.clone());
            assert_rejects_corruption(&original, &encoded, &mut rng, |b| {
                shield::decode_request(b).map(|(o, i, k, v)| (o, i, k.to_vec(), v.to_vec()))
            });
        }
    }

    #[test]
    fn shield_replies_roundtrip() {
        let mut rng = SimRng::seed_from(0x11F5);
        for _ in 0..CASES {
            let status = match rng.gen_range(3) {
                0 => shield::ShieldStatus::Ok,
                1 => shield::ShieldStatus::NotFound,
                _ => shield::ShieldStatus::Error,
            };
            let value = bytes(&mut rng, 300);
            let encoded = shield::encode_reply(status, &value);
            let (d_status, d_value) = shield::decode_reply(&encoded).expect("roundtrip");
            assert_eq!((d_status, d_value), (status, &value[..]));

            let original = (status, value.clone());
            assert_rejects_corruption(&original, &encoded, &mut rng, |b| {
                shield::decode_reply(b).map(|(s, v)| (s, v.to_vec()))
            });
        }
    }

    #[test]
    fn shield_sealed_framing_roundtrips() {
        let mut rng = SimRng::seed_from(0x11F6);
        for _ in 0..CASES {
            let iv = Nonce12::from_bytes(array(&mut rng));
            let sealed = bytes(&mut rng, 200);
            let framed = shield::frame_sealed(&iv, &sealed);
            let (d_iv, d_sealed) = shield::unframe_sealed(&framed).expect("roundtrip");
            assert_eq!((d_iv, d_sealed), (iv, &sealed[..]));
            assert!(
                shield::unframe_sealed(&framed[..rng.gen_range(12) as usize]).is_none(),
                "a frame shorter than the IV must be rejected"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Journal framing properties: the sealed journal must recover exactly the
// records it flushed, and any single bit-flip or truncation of the durable
// bytes must yield a strict authenticated *prefix* of the original record
// stream — never divergent content, never a record past the damage.
// ---------------------------------------------------------------------------

mod journal_framing {
    use precursor_crypto::keys::Key128;
    use precursor_journal::{recover, GroupCommitPolicy, Journal, JournalRecord};
    use precursor_sim::rng::SimRng;

    const CASES: u64 = 150;

    fn key(rng: &mut SimRng) -> Key128 {
        let mut k = [0u8; 16];
        rng.fill_bytes(&mut k);
        Key128::from_bytes(k)
    }

    // Builds a journal with a random record stream and random group-commit
    // boundaries; returns the durable bytes plus the appended records.
    fn build(rng: &mut SimRng, journal_key: &Key128, epoch: u64) -> (Vec<u8>, Vec<JournalRecord>) {
        let mut journal = Journal::new(
            journal_key.clone(),
            epoch,
            GroupCommitPolicy::batched(1 + rng.gen_range(4) as usize, 0),
        );
        let n = 1 + rng.gen_range(16);
        let mut records = Vec::new();
        for i in 0..n {
            let kind = 1 + (rng.next_u32() % 4) as u8;
            let mut body = vec![0u8; rng.gen_range(80) as usize];
            rng.fill_bytes(&mut body);
            let seq = journal.append(kind, &body, i);
            records.push(JournalRecord { seq, kind, body });
            if journal.should_flush(i) || rng.gen_range(3) == 0 {
                journal.flush();
            }
        }
        journal.flush();
        (journal.durable().to_vec(), records)
    }

    #[test]
    fn flushed_records_recover_bit_identically() {
        let mut rng = SimRng::seed_from(0x10A1);
        for case in 0..CASES {
            let k = key(&mut rng);
            let epoch = 1 + rng.gen_range(8);
            let (bytes, records) = build(&mut rng, &k, epoch);
            let rec = recover(&k, epoch, &bytes);
            assert_eq!(rec.records, records, "case {case}: lossless roundtrip");
            assert_eq!(rec.valid_len, bytes.len());
            assert!(!rec.truncated);

            // A different epoch's genesis chain authenticates nothing: two
            // epochs can never be spliced.
            let other = recover(&k, epoch + 1, &bytes);
            assert!(other.records.is_empty(), "case {case}: epoch splice");
        }
    }

    #[test]
    fn any_single_bit_flip_truncates_to_an_authentic_prefix() {
        let mut rng = SimRng::seed_from(0x10A2);
        for case in 0..CASES {
            let k = key(&mut rng);
            let (bytes, records) = build(&mut rng, &k, 1);
            let mut damaged = bytes.clone();
            let bit = rng.gen_range(damaged.len() as u64 * 8) as usize;
            damaged[bit / 8] ^= 1 << (bit % 8);

            let rec = recover(&k, 1, &damaged);
            assert!(rec.truncated, "case {case}: flip at bit {bit} undetected");
            assert!(
                rec.records.len() < records.len(),
                "case {case}: damaged stream cannot recover every record"
            );
            assert_eq!(
                rec.records,
                records[..rec.records.len()],
                "case {case}: recovered records must be a prefix, never divergent"
            );
        }
    }

    #[test]
    fn any_truncation_recovers_a_prefix_and_nothing_past_the_cut() {
        let mut rng = SimRng::seed_from(0x10A3);
        for case in 0..CASES {
            let k = key(&mut rng);
            let (bytes, records) = build(&mut rng, &k, 1);
            let cut = rng.gen_range(bytes.len() as u64) as usize;
            let rec = recover(&k, 1, &bytes[..cut]);
            assert!(rec.valid_len <= cut);
            assert_eq!(
                rec.records,
                records[..rec.records.len()],
                "case {case}: torn tail must replay as a prefix"
            );
            assert!(
                rec.records.len() < records.len(),
                "case {case}: a strict cut loses at least the last record"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Placement-ring properties (the cluster metadata plane): the client's
// location cache may lag the authoritative ring arbitrarily but, after any
// invalidation/learn sequence, agrees with it the moment it refreshes;
// node join/leave moves only the expected share of keys (and only to/from
// the joining/leaving node); and across every interleaving of a live
// migration no key is ever unowned or dual-owned.
// ---------------------------------------------------------------------------

mod placement_ring {
    use precursor::cluster::{encode_owner_hint, MigrationOutcome};
    use precursor::{ClusterClient, Config, LocationCache, PlacementRing, PrecursorCluster};
    use precursor_sim::rng::SimRng;
    use precursor_sim::CostModel;

    fn sample_keys(rng: &mut SimRng, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let mut k = vec![0u8; 1 + rng.gen_range(24) as usize];
                rng.fill_bytes(&mut k);
                k
            })
            .collect()
    }

    #[test]
    fn cache_agrees_with_meta_after_any_invalidation_sequence() {
        // The authoritative ring mutates randomly (join / leave / point
        // reassignment); the cache randomly learns snapshots, sees sealed
        // hints (fresh and replayed-stale), or is dropped entirely. The
        // cache epoch never runs ahead of the authority, stale hints never
        // regress it, and whenever it refreshes (or its epoch matches) its
        // routing agrees with the authority on every sampled key.
        let mut rng = SimRng::seed_from(0x9_1a6);
        let keys = sample_keys(&mut rng, 48);
        for _case in 0..12 {
            let mut ring = PlacementRing::new(3, 8);
            let mut next_node: u16 = 3;
            let mut cache = LocationCache::new();
            cache.learn(ring.clone());
            for _step in 0..160 {
                match rng.gen_range(6) {
                    0 => {
                        ring.join(next_node, 1 + rng.gen_range(8) as u32);
                        next_node += 1;
                    }
                    1 => {
                        let owners = ring.owners();
                        if owners.len() > 1 {
                            let victim = owners[rng.gen_range(owners.len() as u64) as usize];
                            ring.leave(victim);
                        }
                    }
                    2 => {
                        let idx = rng.gen_range(ring.point_count() as u64) as usize;
                        let owners = ring.owners();
                        let to = owners[rng.gen_range(owners.len() as u64) as usize];
                        ring.reassign_point(idx, to);
                    }
                    3 => cache.learn(ring.clone()),
                    4 => cache.invalidate(),
                    _ => {
                        // A sealed hint: current epoch, or a replayed old
                        // one. A hint at most reports staleness — only a
                        // learn changes routing — and a stale hint must
                        // not look newer than the cache.
                        let current = encode_owner_hint(ring.epoch(), 0);
                        let old_epoch = 1 + rng.gen_range(ring.epoch());
                        let replay = encode_owner_hint(old_epoch, 0);
                        assert_eq!(cache.is_stale_for(current), cache.epoch() < ring.epoch());
                        if old_epoch <= cache.epoch() {
                            assert!(!cache.is_stale_for(replay));
                        }
                    }
                }
                assert!(cache.epoch() <= ring.epoch(), "cache ran ahead");
                if cache.epoch() == ring.epoch() {
                    for key in &keys {
                        assert_eq!(cache.route(key), Some(ring.owner_of(key)));
                    }
                }
            }
            // Final refresh: total agreement, always.
            cache.learn(ring.clone());
            for key in &keys {
                assert_eq!(cache.route(key), Some(ring.owner_of(key)));
            }
        }
    }

    #[test]
    fn join_and_leave_move_only_the_expected_share() {
        let mut rng = SimRng::seed_from(0x10_ca7e);
        let keys = sample_keys(&mut rng, 600);
        for nodes in [2u16, 3, 5, 8] {
            let vnodes = 32u32;
            let mut ring = PlacementRing::new(nodes, vnodes);
            let before: Vec<u16> = keys.iter().map(|k| ring.owner_of(k)).collect();

            // Join: keys may move only TO the new node, and the moved
            // share stays near K/(N+1) (generous 3x bound, and > 0).
            ring.join(nodes, vnodes);
            let mut moved = 0usize;
            for (key, prev) in keys.iter().zip(&before) {
                let now = ring.owner_of(key);
                if now != *prev {
                    assert_eq!(now, nodes, "join moved a key between old nodes");
                    moved += 1;
                }
            }
            assert!(moved > 0, "join of an equal-weight node must take keys");
            let expected = keys.len() / (nodes as usize + 1);
            assert!(
                moved <= 3 * expected,
                "join moved {moved} keys, expected about {expected} (nodes={nodes})"
            );

            // Leave of that node: exactly its keys move, each to some
            // surviving node; everything else stays put.
            let at_join: Vec<u16> = keys.iter().map(|k| ring.owner_of(k)).collect();
            ring.leave(nodes);
            let mut returned = 0usize;
            for (key, prev) in keys.iter().zip(&at_join) {
                let now = ring.owner_of(key);
                if *prev == nodes {
                    assert_ne!(now, nodes, "leave left a key on the departed node");
                    returned += 1;
                } else {
                    assert_eq!(now, *prev, "leave moved a surviving node's key");
                }
            }
            assert_eq!(
                returned, moved,
                "leave must orphan exactly the join's share"
            );
        }
    }

    #[test]
    fn no_key_is_unowned_or_dual_owned_across_migration_interleavings() {
        // Drive real migrations over a live cluster with random pump batch
        // sizes (including mid-stream aborts); between every step, every
        // sampled key must be owned by exactly one node — that node's
        // routing gate accepts it — and that node is the one the metadata
        // service names.
        let cost = CostModel::default();
        for seed in 0..6u64 {
            let mut rng = SimRng::seed_from(seed ^ 0x0e_11e5);
            let config = Config {
                max_clients: 2,
                ..Config::default()
            };
            let mut cluster = PrecursorCluster::new(3, config, &cost);
            let mut client = ClusterClient::connect(&mut cluster, seed ^ 0xc1).expect("connect");
            let keys = sample_keys(&mut rng, 40);
            for (i, key) in keys.iter().enumerate() {
                client
                    .put_sync(&mut cluster, key, &(i as u64).to_le_bytes())
                    .expect("seed put");
            }
            let check = |cluster: &PrecursorCluster, keys: &[Vec<u8>]| {
                for key in keys {
                    let owners: Vec<u16> = (0..cluster.node_count())
                        .filter(|&n| cluster.node(n).owns_key(key))
                        .map(|n| n as u16)
                        .collect();
                    assert_eq!(owners.len(), 1, "key owned by {owners:?}");
                    assert_eq!(owners[0], cluster.meta().lookup(key).0);
                }
            };
            check(&cluster, &keys);
            for round in 0..4 {
                let pick = &keys[rng.gen_range(keys.len() as u64) as usize];
                let from = cluster.meta().lookup(pick).0;
                let to = (from + 1 + rng.gen_range(2) as u16) % 3;
                if from == to {
                    continue;
                }
                assert!(cluster.start_migration(pick, to).expect("start"));
                check(&cluster, &keys); // streaming has not moved ownership
                let abort_at = if round == 1 {
                    Some(rng.gen_range(3))
                } else {
                    None
                };
                let mut pumps = 0u64;
                while cluster.migration_in_flight() {
                    if abort_at == Some(pumps) {
                        cluster.abort_migration().expect("in flight");
                        break;
                    }
                    let batch = 1 + rng.gen_range(3) as usize;
                    match cluster.pump_migration(batch) {
                        MigrationOutcome::Aborted(_) => panic!("fault-free pump aborted"),
                        MigrationOutcome::Idle
                        | MigrationOutcome::Shipping { .. }
                        | MigrationOutcome::Fenced(_) => {}
                    }
                    pumps += 1;
                    check(&cluster, &keys); // never unowned/dual-owned mid-flight
                }
                check(&cluster, &keys);
            }
            // The data survived every fence: reads through fresh routing
            // return the seeded values.
            for (i, key) in keys.iter().enumerate() {
                let got = client.get_sync(&mut cluster, key).expect("read back");
                assert_eq!(got, (i as u64).to_le_bytes());
            }
        }
    }
}
