//! Multi-node Precursor: placement metadata, client-side location caching,
//! and live key-range migration (DESIGN.md §18).
//!
//! The cluster is a set of [`ReplicaGroup`] nodes — each a full
//! [`PrecursorServer`] primary with its own shards and rings, the trusted
//! counters and (optionally) journal and replicas that outlive it — plus a
//! metadata plane:
//!
//! * [`PlacementRing`] — weighted consistent-hash placement; each mutation
//!   bumps a ring **epoch**.
//! * [`MetaService`] — the authoritative ring. Clients fetch snapshots
//!   from it; nodes get their view installed by the cluster.
//! * [`LocationCache`] — the client's possibly-stale ring copy. A request
//!   routed by a stale cache reaches a node that no longer owns the key
//!   and is answered with a sealed [`Status::NotMine`] redirect whose
//!   owner hint (epoch + node) rides the reply MAC chain — the host
//!   cannot forge a redirect to misroute a client, and a replayed stale
//!   redirect carries an old epoch the cache ignores.
//! * [`ClusterClient`] — per-node [`PrecursorClient`] sessions behind one
//!   routing facade; redirect retries use a fresh `oid` on the owner's
//!   session, so the per-node at-most-once windows are never violated.
//!
//! Live migration is push-model: the source streams sealed range segments
//! (GCM under the attested inter-node transfer key) over a
//! [`ReplicaLink`] while it keeps serving the range; the destination
//! stages decoded entries without serving them (its own routing view still
//! assigns the range to the source). The **fence** is the single commit
//! point: the source re-ships the delta (keys mutated since their segment
//! shipped), the authoritative fence key-list drops deletions, the staged
//! entries install at the destination — each install journaled there and
//! the journal committed (flushed; with replicas, held by a quorum) — the
//! reassigned ring (epoch+1) is applied to the metadata service and every
//! node view in one step, and the source evicts its now-unreachable
//! copies. A source crash mid-transfer ([`FaultSite::MigrateShip`]) or a
//! destination whose installs do not commit aborts before the flip: the
//! destination discards its staging and the source remains the sole owner,
//! so no key is ever unowned or dual-owned.
//!
//! A node fails in one of two ways, and the cluster follows either with
//! the authoritative routing view: [`PrecursorCluster::restart_node`]
//! (process crash, disk survives — the group recovers its primary from its
//! own root) and [`PrecursorCluster::fail_node`] (machine lost — a replica
//! is promoted inside the group). Clients re-attest through
//! [`ClusterClient::reconnect_node`].

mod client;
mod ring;

pub use client::{ClusterClient, RouteStats, MAX_REDIRECTS};
pub use ring::PlacementRing;

use std::collections::BTreeMap;

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::Key128;
use precursor_crypto::Nonce12;
use precursor_obs::MetricsRegistry;
use precursor_rdma::faults::{DurableVerdict, FaultInjector, FaultPlan, FaultSite};
use precursor_rdma::replica::ReplicaLink;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

use crate::config::Config;
use crate::error::StoreError;
use crate::replication::{FailoverReport, ReplicaGroup};
use crate::server::{PrecursorServer, RecoveryReport};
use crate::snapshot::SnapshotEntry;
#[allow(unused_imports)] // doc links
use crate::wire::Status;
#[allow(unused_imports)] // doc links
use crate::PrecursorClient;
use precursor_journal::GroupCommitPolicy;

// A node's installed routing view: its id plus the ring it believes
// authoritative. Owned by PrecursorServer (see `install_routing`).
#[derive(Debug)]
pub(crate) struct NodeRouting {
    pub(crate) node: u16,
    pub(crate) ring: PlacementRing,
}

/// Packs a routing-epoch + owner-node pair into the `retry_after_ns` slot
/// of a sealed `NotMine` reply: epoch in the high 48 bits, node in the low
/// 16. The field is covered by `chain_input`, so the hint inherits the
/// reply MAC chain's authenticity.
pub fn encode_owner_hint(epoch: u64, owner: u16) -> u64 {
    debug_assert!(epoch < 1 << 48, "ring epoch overflows the hint encoding");
    (epoch << 16) | owner as u64
}

/// Unpacks an owner hint into `(ring_epoch, owner_node)`.
pub fn decode_owner_hint(hint: u64) -> (u64, u16) {
    (hint >> 16, (hint & 0xffff) as u16)
}

/// The authoritative metadata service: owns the placement ring. Clients
/// fetch snapshots; the cluster applies ring mutations (migration fences,
/// joins, leaves) here and to every node view in the same step.
#[derive(Debug)]
pub struct MetaService {
    ring: PlacementRing,
}

impl MetaService {
    /// Wraps an initial ring.
    pub fn new(ring: PlacementRing) -> MetaService {
        MetaService { ring }
    }

    /// Authoritative lookup: `key → (owner node, ring epoch)`.
    pub fn lookup(&self, key: &[u8]) -> (u16, u64) {
        (self.ring.owner_of(key), self.ring.epoch())
    }

    /// The authoritative ring.
    pub fn ring(&self) -> &PlacementRing {
        &self.ring
    }

    /// A snapshot of the ring for a client location cache.
    pub fn snapshot(&self) -> PlacementRing {
        self.ring.clone()
    }

    // Applies a mutated ring (the migration fence's commit step).
    pub(crate) fn apply(&mut self, ring: PlacementRing) {
        debug_assert!(ring.epoch() > self.ring.epoch());
        self.ring = ring;
    }
}

/// A client's possibly-stale copy of the placement ring, stamped with the
/// epoch it was fetched at. Sealed `NotMine` hints carrying a newer epoch
/// invalidate it; hints carrying an older epoch (replays of pre-migration
/// redirects) are ignored.
#[derive(Debug, Default)]
pub struct LocationCache {
    ring: Option<PlacementRing>,
}

impl LocationCache {
    /// An empty cache (routes nothing until it learns a ring).
    pub fn new() -> LocationCache {
        LocationCache::default()
    }

    /// The epoch of the cached ring, or 0 when empty.
    pub fn epoch(&self) -> u64 {
        self.ring.as_ref().map_or(0, PlacementRing::epoch)
    }

    /// Adopts `ring` if it is newer than the cached one.
    pub fn learn(&mut self, ring: PlacementRing) {
        if ring.epoch() > self.epoch() {
            self.ring = Some(ring);
        }
    }

    /// Routes `key` through the cached ring, if any.
    pub fn route(&self, key: &[u8]) -> Option<u16> {
        self.ring.as_ref().map(|r| r.owner_of(key))
    }

    /// Whether a sealed owner hint proves this cache stale (the hint's
    /// epoch is newer than the cached ring's).
    pub fn is_stale_for(&self, hint: u64) -> bool {
        let (epoch, _) = decode_owner_hint(hint);
        epoch > self.epoch()
    }

    /// Drops the cached ring.
    pub fn invalidate(&mut self) {
        self.ring = None;
    }
}

/// What one [`PrecursorCluster::pump_migration`] call observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// No migration in flight.
    Idle,
    /// Still streaming segments: `shipped` of `total` keys sent so far.
    Shipping {
        /// Keys shipped so far (including this pump).
        shipped: usize,
        /// Keys in the range snapshot taken at migration start.
        total: usize,
    },
    /// The fence committed: the destination is now authoritative.
    Fenced(MigrationReport),
    /// The migration aborted before its ring flip (source crash, tampered
    /// segment, or installs that did not commit at the destination); the
    /// source remains the sole owner.
    Aborted(MigrationReport),
}

/// Summary of one finished (fenced or aborted) migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    /// Source node.
    pub from: u16,
    /// Destination node.
    pub to: u16,
    /// Ring point (segment) being moved.
    pub point: usize,
    /// Keys installed at the destination by the fence (0 if aborted).
    pub keys_moved: usize,
    /// Sealed segments shipped (bulk stream + fence delta).
    pub segments: u64,
    /// Keys the fence had to re-ship because they mutated (or appeared)
    /// after their bulk segment was sent.
    pub delta_reshipped: usize,
    /// Whether the migration aborted before the fence.
    pub aborted: bool,
}

// In-flight migration state. `staged` lives at the destination side of the
// link but is keyed here for determinism (BTreeMap: sorted iteration).
#[derive(Debug)]
struct Migration {
    from: u16,
    to: u16,
    point: usize,
    keys: Vec<Vec<u8>>, // range snapshot at start, sorted
    next: usize,
    staged: BTreeMap<Vec<u8>, SnapshotEntry>,
    link: ReplicaLink,
    segments: u64,
}

impl Migration {
    fn report(&self, aborted: bool) -> MigrationReport {
        MigrationReport {
            from: self.from,
            to: self.to,
            point: self.point,
            keys_moved: if aborted { 0 } else { self.staged.len() },
            segments: self.segments,
            delta_reshipped: 0,
            aborted,
        }
    }
}

/// N simulated Precursor nodes — replica groups — behind one
/// placement/metadata plane, with live key-range migration between them.
/// See the [module docs](self).
#[derive(Debug)]
pub struct PrecursorCluster {
    groups: Vec<ReplicaGroup>,
    meta: MetaService,
    migration: Option<Migration>,
    // Attested node-to-node session key sealing migration segments
    // (modelled: in the real system it comes out of mutual enclave
    // attestation between source and destination).
    transfer_key: GcmKey,
    transfer_seq: u64,
    migrate_faults: Option<FaultInjector>,
    migrations_completed: u64,
    migrations_aborted: u64,
    keys_moved: u64,
}

fn segment_aad(from: u16, to: u16, epoch: u64) -> [u8; 12] {
    let mut aad = [0u8; 12];
    aad[..2].copy_from_slice(&from.to_le_bytes());
    aad[2..4].copy_from_slice(&to.to_le_bytes());
    aad[4..].copy_from_slice(&epoch.to_le_bytes());
    aad
}

impl PrecursorCluster {
    /// Default virtual points per node on the placement ring.
    pub const DEFAULT_VNODES: u32 = 32;

    /// Builds a cluster of `nodes` bare servers (no journal, no replicas)
    /// sharing `config` (cloned per node) over an equally-weighted ring.
    /// With `nodes == 1` the single node owns the whole ring, the
    /// `NotMine` gate never fires, and every observable is bit-identical
    /// to a standalone [`PrecursorServer`] (pinned by the golden digest in
    /// `tests/determinism.rs`).
    ///
    /// # Panics
    ///
    /// If `nodes` is 0 or exceeds `u16::MAX`.
    pub fn new(nodes: usize, config: Config, cost: &CostModel) -> PrecursorCluster {
        Self::of(nodes, || ReplicaGroup::new(config.clone(), cost))
    }

    /// As [`new`](Self::new), every node a journaled primary with
    /// `replicas` replicas behind it (see [`ReplicaGroup::with_replicas`]):
    /// a node that dies ([`fail_node`](Self::fail_node)) keeps its ranges.
    ///
    /// # Panics
    ///
    /// If `nodes` is 0 or exceeds `u16::MAX`.
    pub fn replicated(
        nodes: usize,
        config: Config,
        cost: &CostModel,
        replicas: usize,
        policy: GroupCommitPolicy,
    ) -> PrecursorCluster {
        Self::of(nodes, || {
            ReplicaGroup::with_replicas(config.clone(), cost, replicas, policy)
        })
    }

    fn of(nodes: usize, group: impl Fn() -> ReplicaGroup) -> PrecursorCluster {
        assert!(nodes > 0 && nodes <= u16::MAX as usize);
        let ring = PlacementRing::new(nodes as u16, Self::DEFAULT_VNODES);
        let groups = (0..nodes)
            .map(|i| {
                let mut g = group();
                g.primary_mut().install_routing(i as u16, ring.clone());
                g
            })
            .collect();
        // Deterministic attested transfer key: seeded independently of
        // every other RNG stream in the simulation.
        let mut rng = SimRng::seed_from(0x7472_616e_7366_6572);
        PrecursorCluster {
            groups,
            meta: MetaService::new(ring),
            migration: None,
            transfer_key: GcmKey::new(&Key128::generate(&mut rng)),
            transfer_seq: 0,
            migrate_faults: None,
            migrations_completed: 0,
            migrations_aborted: 0,
            keys_moved: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.groups.len()
    }

    /// Every node's primary, in node order.
    pub fn nodes(&self) -> impl Iterator<Item = &PrecursorServer> + Clone {
        self.groups.iter().map(ReplicaGroup::primary)
    }

    /// Shared reference to node `i`'s primary.
    pub fn node(&self, i: usize) -> &PrecursorServer {
        self.groups[i].primary()
    }

    /// Mutable reference to node `i`'s primary (clients connect to it).
    pub fn node_mut(&mut self, i: usize) -> &mut PrecursorServer {
        self.groups[i].primary_mut()
    }

    /// Node `i` as a replica group: its counters, journal and replicas.
    pub fn group(&self, i: usize) -> &ReplicaGroup {
        &self.groups[i]
    }

    /// Mutable reference to node `i`'s replica group.
    pub fn group_mut(&mut self, i: usize) -> &mut ReplicaGroup {
        &mut self.groups[i]
    }

    /// The metadata service.
    pub fn meta(&self) -> &MetaService {
        &self.meta
    }

    /// Pumps every node once, in node order; returns records processed.
    pub fn poll_all(&mut self) -> usize {
        self.groups.iter_mut().map(ReplicaGroup::pump).sum()
    }

    /// Process crash at node `i`, disk survives: the group recovers its
    /// primary from its own root and durable journal
    /// ([`ReplicaGroup::restart`]) and the authoritative routing view is
    /// installed on it.
    ///
    /// # Errors
    ///
    /// As [`ReplicaGroup::restart`].
    pub fn restart_node(&mut self, i: usize) -> Result<RecoveryReport, StoreError> {
        let report = self.groups[i].restart()?;
        self.rejoin(i);
        Ok(report)
    }

    /// Node `i`'s machine is lost: a replica is promoted inside the group
    /// ([`ReplicaGroup::fail_primary`], draining `batch` catch-up records
    /// per pump; `usize::MAX` replays fully before it serves) and the
    /// authoritative routing view is installed on it, so the node's ranges
    /// stay where the ring says they are.
    ///
    /// # Errors
    ///
    /// As [`ReplicaGroup::fail_primary`] — [`StoreError::SessionLost`] for
    /// a node without replicas.
    pub fn fail_node(&mut self, i: usize, batch: usize) -> Result<FailoverReport, StoreError> {
        let report = self.groups[i].fail_primary(batch)?;
        self.rejoin(i);
        Ok(report)
    }

    // A new primary at node `i` joins the cluster under the authoritative
    // ring. A migration it was a party to loses its stream with the dead
    // process and aborts — the source stays the sole owner.
    fn rejoin(&mut self, i: usize) {
        let ring = self.meta.snapshot();
        self.groups[i].primary_mut().install_routing(i as u16, ring);
        let party = |m: &Migration| m.from as usize == i || m.to as usize == i;
        if self.migration.as_ref().is_some_and(party) {
            self.abort_migration();
        }
    }

    /// Installs a fault plan driving [`FaultSite::MigrateShip`] — the
    /// chaos hook modelling a source crash (Drop → torn transfer) or host
    /// tampering (Corrupt) during segment shipping.
    pub fn set_migrate_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.migrate_faults = Some(FaultInjector::new(plan, seed));
    }

    /// Every node's registry merged (the backend-neutral `ops.*` /
    /// `status.*` / `stage.*_ns` namespace sums over nodes), plus the
    /// migration plane's own `cluster.*` counters.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::default();
        for node in self.nodes() {
            m.merge(node.metrics());
        }
        m.inc("cluster.migrations_fenced", self.migrations_completed);
        m.inc("cluster.migrations_aborted", self.migrations_aborted);
        m.inc("cluster.keys_moved", self.keys_moved);
        m
    }

    /// Whether a migration is currently streaming.
    pub fn migration_in_flight(&self) -> bool {
        self.migration.is_some()
    }

    /// Starts migrating the ring segment owning `key` from its current
    /// owner to node `to`. Returns `Ok(false)` if `to` already owns the
    /// segment (no-op).
    ///
    /// # Errors
    ///
    /// [`StoreError::Busy`] if a migration is already in flight;
    /// [`StoreError::MalformedFrame`] if `to` is not a cluster node.
    pub fn start_migration(&mut self, key: &[u8], to: u16) -> Result<bool, StoreError> {
        if self.migration.is_some() {
            return Err(StoreError::Busy);
        }
        if to as usize >= self.groups.len() {
            return Err(StoreError::MalformedFrame);
        }
        let point = self.meta.ring().point_of(key);
        let from = self.meta.ring().point_owner(point);
        if from == to {
            return Ok(false);
        }
        // Range snapshot: the segment's keys as they exist at the source
        // right now. Keys created later are picked up by the fence delta;
        // keys deleted later are dropped by the fence list.
        let keys = self.keys_in(from, point);
        self.migration = Some(Migration {
            from,
            to,
            point,
            keys,
            next: 0,
            staged: BTreeMap::new(),
            link: ReplicaLink::new(),
            segments: 0,
        });
        Ok(true)
    }

    /// Streams up to `batch` sealed segments; once the bulk stream is
    /// done, commits the fence (delta re-ship + staged install + ring
    /// flip on the metadata service and every node view, in one step).
    /// The source keeps serving the range the whole time; only the fence
    /// changes ownership.
    pub fn pump_migration(&mut self, batch: usize) -> MigrationOutcome {
        let Some(mut m) = self.migration.take() else {
            return MigrationOutcome::Idle;
        };
        let mut shipped_now = 0usize;
        while shipped_now < batch && m.next < m.keys.len() {
            let key = m.keys[m.next].clone();
            m.next += 1;
            let Some(entry) = self.node(m.from as usize).export_entry(&key) else {
                continue; // deleted since the range snapshot
            };
            match self.ship_segment(&mut m, &entry) {
                ShipResult::Delivered => {
                    shipped_now += 1;
                }
                ShipResult::SourceCrashed | ShipResult::Tampered => {
                    // No fence was written: the source remains the sole
                    // owner, the destination discards its staging.
                    let report = m.report(true);
                    self.migrations_aborted += 1;
                    return MigrationOutcome::Aborted(report);
                }
            }
        }
        if m.next < m.keys.len() {
            let out = MigrationOutcome::Shipping {
                shipped: m.next,
                total: m.keys.len(),
            };
            self.migration = Some(m);
            return out;
        }
        match self.fence(m) {
            Ok(report) => {
                self.migrations_completed += 1;
                self.keys_moved += report.keys_moved as u64;
                MigrationOutcome::Fenced(report)
            }
            Err(report) => {
                self.migrations_aborted += 1;
                MigrationOutcome::Aborted(report)
            }
        }
    }

    /// Aborts an in-flight migration (chaos harness hook): the staged
    /// entries are discarded and the source stays the sole owner.
    pub fn abort_migration(&mut self) -> Option<MigrationReport> {
        let m = self.migration.take()?;
        self.migrations_aborted += 1;
        Some(m.report(true))
    }

    // Seals one entry and pushes it through the inter-node link, applying
    // the MigrateShip fault site to the sealed bytes.
    fn ship_segment(&mut self, m: &mut Migration, entry: &SnapshotEntry) -> ShipResult {
        let mut plain = Vec::new();
        entry.encode_into(&mut plain);
        let seq = self.transfer_seq;
        self.transfer_seq += 1;
        let aad = segment_aad(m.from, m.to, self.meta.ring().epoch());
        let mut sealed = self
            .transfer_key
            .seal(&Nonce12::from_counter(seq), &aad, &plain);
        if let Some(f) = &mut self.migrate_faults {
            match f.on_durable_write(FaultSite::MigrateShip, sealed.len()) {
                DurableVerdict::Complete => {}
                DurableVerdict::Torn(_) => return ShipResult::SourceCrashed,
                DurableVerdict::Corrupt(bit) => {
                    let byte = bit / 8;
                    if byte < sealed.len() {
                        sealed[byte] ^= 1 << (bit % 8);
                    }
                }
            }
        }
        let mut frame = Vec::with_capacity(8 + sealed.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&sealed);
        m.link.send_to_replica(&frame);
        m.link.pump();
        m.segments += 1;
        while let Some(rx) = m.link.recv_at_replica() {
            if rx.len() < 8 {
                return ShipResult::Tampered;
            }
            let rx_seq = u64::from_le_bytes(rx[..8].try_into().expect("8 bytes"));
            let opened = self
                .transfer_key
                .open(&Nonce12::from_counter(rx_seq), &aad, &rx[8..]);
            let Ok(bytes) = opened else {
                // Authentication failure: a tampered segment never
                // installs; the migration aborts and can be retried.
                return ShipResult::Tampered;
            };
            let mut pos = 0usize;
            let Ok(decoded) = SnapshotEntry::decode_from(&bytes, &mut pos) else {
                return ShipResult::Tampered;
            };
            m.staged.insert(decoded.key.clone(), decoded);
        }
        ShipResult::Delivered
    }

    // The keys of ring segment `point` node `node` holds right now, sorted.
    fn keys_in(&self, node: u16, point: usize) -> Vec<Vec<u8>> {
        let mut keys = self.node(node as usize).live_keys();
        keys.retain(|k| self.meta.ring().point_of(k) == point);
        keys
    }

    // The fence: re-ship the mutation delta, reconcile deletions against
    // the authoritative fence key-list, install the staged entries at the
    // destination, commit them there, and flip ownership everywhere in one
    // step.
    fn fence(&mut self, mut m: Migration) -> Result<MigrationReport, MigrationReport> {
        let current = self.keys_in(m.from, m.point);
        // Delta: keys that mutated (or appeared) after their bulk segment
        // shipped go through the same sealed-segment path, so the fault
        // site also covers the fence window.
        let mut delta = 0usize;
        for key in &current {
            let entry = self
                .node(m.from as usize)
                .export_entry(key)
                .expect("live key exports");
            let changed = match m.staged.get(key) {
                Some(staged) => {
                    staged.stored_bytes != entry.stored_bytes
                        || staged.storage_seq != entry.storage_seq
                }
                None => true,
            };
            if changed {
                delta += 1;
                match self.ship_segment(&mut m, &entry) {
                    ShipResult::Delivered => {}
                    ShipResult::SourceCrashed | ShipResult::Tampered => {
                        return Err(m.report(true));
                    }
                }
            }
        }
        // Deletions since the range snapshot: the fence list is
        // authoritative, staged leftovers are dropped.
        m.staged.retain(|k, _| current.binary_search(k).is_ok());

        // Install at the destination (sorted order: BTreeMap) over a clean
        // range: whatever it still holds there was left by a fence that
        // journaled installs and never flipped the ring, or by evictions
        // that never reached its disk before a restart — keys deleted
        // since would come back to life under this install.
        let report = m.report(true);
        let moved = m.staged.len();
        for key in self.keys_in(m.to, m.point) {
            self.node_mut(m.to as usize).evict_entry(&key);
        }
        for (_, entry) in m.staged {
            self.node_mut(m.to as usize)
                .install_migrated(entry)
                .expect("staged entry installs");
        }
        // The installs are journaled; the ring flips only once they are
        // committed, so a destination rebuilt from its journal — all a
        // promoted replica ever holds — has the range it is about to own.
        if !self.groups[m.to as usize].commit_journal() {
            return Err(report);
        }
        let mut ring = self.meta.snapshot();
        ring.reassign_point(m.point, m.to);
        self.meta.apply(ring.clone());
        for (i, group) in self.groups.iter_mut().enumerate() {
            group.primary_mut().install_routing(i as u16, ring.clone());
        }
        // The source's copies are unreachable from here on; left in place
        // they would come back to life — deleted keys included — the next
        // time the segment migrates to this node.
        for key in &current {
            self.node_mut(m.from as usize).evict_entry(key);
        }
        Ok(MigrationReport {
            keys_moved: moved,
            delta_reshipped: delta,
            aborted: false,
            ..report
        })
    }
}

enum ShipResult {
    Delivered,
    SourceCrashed,
    Tampered,
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
