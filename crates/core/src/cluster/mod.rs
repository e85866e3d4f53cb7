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
//! Live migration is push-model: while the source keeps serving the range
//! it ships it over a [`ReplicaLink`] as sealed parts in the snapshot
//! chain's record format (an entry or a tombstone), one per batch of the
//! keys the range held at the start, and notes every key of the range
//! written since (the *moving set*). The **fence** is the single commit
//! point: the moving set ships as one last part, the destination applies
//! all parts as one chain (a key's newest record wins) and installs the
//! live entries in key order over a clean range, journaled and committed
//! (flushed; with replicas, held by a quorum); then the reassigned ring
//! (epoch+1) reaches the metadata service and every node view in one step,
//! and the source evicts its copies. The destination derives each part's
//! nonce and AAD itself (source, destination, ring epoch, migration
//! ordinal, position, fence or not), so a dropped, replayed, reordered,
//! torn, corrupted ([`HostSite::MigrateShip`]) or foreign part fails to
//! open. That, a crashed party, or installs that do not commit abort the
//! migration before the flip: the source stays the sole owner, so no key
//! is ever unowned or dual-owned.
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

use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::Key128;
use precursor_crypto::Nonce12;
use precursor_obs::MetricsRegistry;
use precursor_rdma::host::{DurableVerdict, HostSite};
use precursor_rdma::replica::ReplicaLink;
use precursor_sim::rng::SimRng;
use precursor_sim::CostModel;

use crate::config::Config;
use crate::error::StoreError;
use crate::replication::{FailoverReport, ReplicaGroup};
use crate::server::{PrecursorServer, RecoveryReport};
use crate::snapshot::{Chain, DirtyKeys, SnapshotEntry};
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
    /// Still streaming parts: `shipped` of `total` keys sent so far.
    Shipping {
        /// Keys shipped so far (including this pump).
        shipped: usize,
        /// Keys in the range snapshot taken at migration start.
        total: usize,
    },
    /// The fence committed: the destination is now authoritative.
    Fenced(MigrationReport),
    /// The migration aborted before its ring flip (a crashed party, a part
    /// that did not open, or installs that did not commit at the
    /// destination); the source remains the sole owner.
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
    /// Whether the migration aborted before the fence.
    pub aborted: bool,
}

/// The moving set: the keys of ring segment `point` its source wrote since
/// a migration of it started — noted by the source's table inserts and
/// removals — which the fence part carries.
#[derive(Debug)]
pub(crate) struct MovingRange {
    ring: PlacementRing,
    point: usize,
    keys: DirtyKeys,
}

impl MovingRange {
    /// Notes `key`, whose stable hash is `hash`, if it is in the segment.
    pub(crate) fn note(&mut self, hash: u64, key: &[u8]) {
        if self.ring.point_of_hash(hash) == self.point {
            self.keys.insert(key);
        }
    }
}

// In-flight migration state: the source's stream position, the link, and
// the parts the destination has opened.
#[derive(Debug)]
struct Migration {
    from: u16,
    to: u16,
    point: usize,
    // The ring epoch and the cluster's migration count at the start: with
    // `from` and `to`, they name every part of this migration.
    epoch: u64,
    ordinal: u64,
    keys: Vec<Vec<u8>>, // the range at the start, sorted
    next: usize,
    link: ReplicaLink,
    sent: u32, // parts the source sealed: the next one's position
    // The plaintext of every part the destination opened, in order.
    parts: Vec<Vec<u8>>,
}

impl Migration {
    fn report(&self, keys_moved: usize, aborted: bool) -> MigrationReport {
        MigrationReport {
            from: self.from,
            to: self.to,
            point: self.point,
            keys_moved,
            aborted,
        }
    }

    // The nonce and AAD of the part at `position` (`last`: the fence
    // part). The nonce is unique under the transfer key — no two
    // migrations share an ordinal, aborted ones included — and the AAD
    // binds the rest of the part's name.
    fn name(&self, position: u32, last: bool) -> (Nonce12, [u8; 25]) {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.ordinal.to_le_bytes());
        nonce[8..].copy_from_slice(&position.to_le_bytes());
        let mut aad = [0u8; 25];
        aad[..2].copy_from_slice(&self.from.to_le_bytes());
        aad[2..4].copy_from_slice(&self.to.to_le_bytes());
        aad[4..12].copy_from_slice(&self.epoch.to_le_bytes());
        aad[12..24].copy_from_slice(&nonce);
        aad[24] = u8::from(last);
        (Nonce12::from_bytes(nonce), aad)
    }

    // The destination drains the link: every frame must open as the part
    // at the next position (the fence part when `last`). Returns whether
    // all of them opened and, when `last`, whether the fence part came.
    fn receive(&mut self, key: &GcmKey, last: bool) -> bool {
        let opened = self.parts.len();
        while let Some(frame) = self.link.recv_at_replica() {
            let (nonce, aad) = self.name(self.parts.len() as u32, last);
            match key.open(&nonce, &aad, &frame) {
                Ok(part) => self.parts.push(part),
                Err(_) => return false,
            }
        }
        !last || self.parts.len() > opened
    }

    // The entries the opened parts leave live, applied as one chain, in key
    // order; `None` when an authentic part does not parse.
    fn entries(&self) -> Option<Vec<SnapshotEntry>> {
        let chain = Chain::decode(self.parts.iter().map(Vec::as_slice)).ok()?;
        let decoded = chain.live().map(|e| SnapshotEntry::decode_from(e, &mut 0));
        let mut entries = decoded.collect::<Result<Vec<_>, _>>().ok()?;
        entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        Some(entries)
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
    // Attested node-to-node session key sealing migration parts (modelled:
    // in the real system it comes out of mutual enclave attestation
    // between source and destination).
    transfer_key: GcmKey,
    // Migrations started: the next one's ordinal.
    migrations_started: u64,
    migrations_completed: u64,
    migrations_aborted: u64,
    keys_moved: u64,
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
            migrations_started: 0,
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
        // The segment's keys as the source holds them now; every write to
        // the segment from here on goes into the moving set.
        let (ring, keys) = (self.meta.snapshot(), DirtyKeys::default());
        let moving = MovingRange { ring, point, keys };
        self.node_mut(from as usize).track_moving(Some(moving));
        self.migration = Some(Migration {
            from,
            to,
            point,
            epoch: self.meta.ring().epoch(),
            ordinal: self.migrations_started,
            keys: self.keys_in(from, point),
            next: 0,
            link: ReplicaLink::new(),
            sent: 0,
            parts: Vec::new(),
        });
        self.migrations_started += 1;
        Ok(true)
    }

    /// Seals the next `batch` keys of the range as one part and ships it;
    /// once the range is shipped, commits the fence (the moving set's
    /// part, the chain applied and installed at the destination, and the
    /// ring flip on the metadata service and every node view, in one
    /// step). The source keeps serving the range the whole time; only the
    /// fence changes ownership.
    pub fn pump_migration(&mut self, batch: usize) -> MigrationOutcome {
        let Some(mut m) = self.migration.take() else {
            return MigrationOutcome::Idle;
        };
        // Keys deleted since the start ship as tombstones and do not count
        // against the batch.
        let (mut part, mut stored) = (Vec::new(), 0);
        let source = self.node(m.from as usize);
        while stored < batch && m.next < m.keys.len() {
            stored += source.encode_records([&m.keys[m.next]], &mut part);
            m.next += 1;
        }
        if !part.is_empty() && !self.ship(&mut m, &part, false) {
            return MigrationOutcome::Aborted(self.abort(m));
        }
        if m.next < m.keys.len() {
            let out = MigrationOutcome::Shipping {
                shipped: m.next,
                total: m.keys.len(),
            };
            self.migration = Some(m);
            return out;
        }
        self.fence(m)
    }

    /// Aborts an in-flight migration (chaos harness hook): the parts the
    /// destination holds are discarded and the source stays the sole
    /// owner.
    pub fn abort_migration(&mut self) -> Option<MigrationReport> {
        let m = self.migration.take()?;
        Some(self.abort(m))
    }

    // Ends `m` before its ring flip: the source stops noting writes.
    fn abort(&mut self, m: Migration) -> MigrationReport {
        self.node_mut(m.from as usize).track_moving(None);
        self.migrations_aborted += 1;
        m.report(0, true)
    }

    // Seals `part` at the next position, lets the source node's host
    // damage it at the MigrateShip site (Drop tears it short — a source
    // crash mid-write; Corrupt flips one of its bits — tampering in
    // transit), pushes it through the link and lets the destination
    // receive: whether everything it received opened.
    fn ship(&mut self, m: &mut Migration, part: &[u8], last: bool) -> bool {
        let (nonce, aad) = m.name(m.sent, last);
        let mut sealed = self.transfer_key.seal(&nonce, &aad, part);
        m.sent += 1;
        if let Some(mut host) = self.node(m.from as usize).host() {
            match host.on_durable_write(HostSite::MigrateShip, sealed.len()) {
                DurableVerdict::Complete => {}
                DurableVerdict::Torn(keep) => sealed.truncate(keep),
                DurableVerdict::Corrupt(bit) => sealed[bit / 8] ^= 1 << (bit % 8),
            }
        }
        m.link.send_to_replica(&sealed);
        m.link.pump();
        m.receive(&self.transfer_key, last)
    }

    // The keys of ring segment `point` node `node` holds right now, sorted.
    fn keys_in(&self, node: u16, point: usize) -> Vec<Vec<u8>> {
        let ring = self.meta.ring();
        self.node(node as usize)
            .keys_where(|k| ring.point_of(k) == point)
    }

    // The fence: ship the moving set's part, apply the chain at the
    // destination, install its entries over a clean range, commit them
    // there, and flip ownership everywhere in one step.
    fn fence(&mut self, mut m: Migration) -> MigrationOutcome {
        let source = self.node_mut(m.from as usize);
        let moving = source.track_moving(None).expect("the source notes writes");
        let mut part = Vec::new();
        source.encode_records(moving.keys.iter(), &mut part);
        let entries = self.ship(&mut m, &part, true).then(|| m.entries());
        let Some(Some(entries)) = entries else {
            return MigrationOutcome::Aborted(self.abort(m));
        };

        // Install at the destination (key order) over a clean range:
        // whatever it still holds there was left by a fence that journaled
        // installs and never flipped the ring, or by evictions that never
        // reached its disk before a restart — keys deleted since would come
        // back to life under this install.
        for key in self.keys_in(m.to, m.point) {
            self.node_mut(m.to as usize).evict_entry(&key);
        }
        let moved: Vec<Vec<u8>> = entries.iter().map(|e| e.key.clone()).collect();
        for entry in entries {
            self.node_mut(m.to as usize)
                .install_migrated(entry)
                .expect("an opened entry installs");
        }
        // The installs are journaled; the ring flips only once they are
        // committed, so a destination rebuilt from its journal — all a
        // promoted replica ever holds — has the range it is about to own.
        if !self.groups[m.to as usize].commit_journal() {
            return MigrationOutcome::Aborted(self.abort(m));
        }
        let mut ring = self.meta.snapshot();
        ring.reassign_point(m.point, m.to);
        self.meta.apply(ring.clone());
        for (i, group) in self.groups.iter_mut().enumerate() {
            group.primary_mut().install_routing(i as u16, ring.clone());
        }
        // The source's copies — exactly the keys the chain leaves live —
        // are unreachable from here on; left in place they would come back
        // to life, deleted keys included, the next time the segment
        // migrates to this node.
        for key in &moved {
            self.node_mut(m.from as usize).evict_entry(key);
        }
        self.migrations_completed += 1;
        self.keys_moved += moved.len() as u64;
        MigrationOutcome::Fenced(m.report(moved.len(), false))
    }
}

#[cfg(test)]
mod tests;
