//! The weighted consistent-hash placement ring.
//!
//! Placement maps every key to exactly one node: each node contributes
//! `weight` virtual points to a 64-bit hash ring, and a key belongs to the
//! first point at or clockwise-after its hash. The point hashes are fixed
//! at creation (derived from `(node, vnode)` identity), so membership of a
//! ring *segment* — the arc ending at one point — never changes; only the
//! point's owner does. That makes a key-range migration a single-point
//! ownership reassignment, and makes node join/leave move only the
//! expected `K/N` share of keys.
//!
//! Every mutation bumps the ring `epoch`. The epoch rides in sealed
//! `NotMine` redirect hints and stamps client location caches, so a stale
//! cache is detected (and refreshed) on first contact with any node that
//! has seen a newer ring.
//!
//! A ring's points are shared, copy-on-write: cloning a ring (a client
//! learning a snapshot, a node installing one) copies a pointer, and only a
//! mutation copies the points. Every location cache of one epoch holds the
//! same point array.

use std::sync::Arc;

use precursor_storage::stable_key_hash;

// One virtual point: `hash` is derived from the immutable `(node, vnode)`
// identity at creation and never changes; `owner` starts as that node and
// is reassigned by migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RingPoint {
    hash: u64,
    owner: u16,
    node: u16,
    vnode: u32,
}

fn point_hash(node: u16, vnode: u32) -> u64 {
    let mut bytes = [0u8; 14];
    bytes[..8].copy_from_slice(b"ringpt\x00\x00");
    bytes[8..10].copy_from_slice(&node.to_le_bytes());
    bytes[10..14].copy_from_slice(&vnode.to_le_bytes());
    stable_key_hash(&bytes[..])
}

/// Weighted consistent-hash ring mapping `key → node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementRing {
    points: Arc<[RingPoint]>,
    epoch: u64,
}

impl PlacementRing {
    /// A ring with `nodes` equally-weighted nodes, `vnodes` virtual points
    /// each. Epoch starts at 1 (0 is "no ring" in caches).
    ///
    /// # Panics
    ///
    /// If `nodes == 0` or `vnodes == 0`.
    pub fn new(nodes: u16, vnodes: u32) -> PlacementRing {
        let weights: Vec<(u16, u32)> = (0..nodes).map(|n| (n, vnodes)).collect();
        PlacementRing::with_weights(&weights)
    }

    /// A ring from explicit `(node, weight)` pairs, where weight is the
    /// number of virtual points the node contributes.
    ///
    /// # Panics
    ///
    /// If the pairs contribute no points at all.
    fn with_weights(weights: &[(u16, u32)]) -> PlacementRing {
        let mut points = Vec::new();
        for &(node, weight) in weights {
            for vnode in 0..weight {
                points.push(RingPoint {
                    hash: point_hash(node, vnode),
                    owner: node,
                    node,
                    vnode,
                });
            }
        }
        assert!(
            !points.is_empty(),
            "placement ring needs at least one point"
        );
        points.sort_unstable_by_key(|p| (p.hash, p.node, p.vnode));
        PlacementRing {
            points: points.into(),
            epoch: 1,
        }
    }

    /// The ring epoch: bumped by every mutation (join, leave, reassign).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of virtual points on the ring.
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// The owner of virtual point `idx` (in ring order).
    ///
    /// # Panics
    ///
    /// If `idx` is out of range.
    pub fn point_owner(&self, idx: usize) -> u16 {
        self.points[idx].owner
    }

    /// The index of the virtual point owning `key` — the first point at or
    /// clockwise-after the key's hash. Point hashes are immutable, so two
    /// rings that differ only in ownership agree on `point_of` for every
    /// key; that is what lets a migration reason about "the keys of point
    /// `i`" across the fence.
    pub fn point_of(&self, key: &[u8]) -> usize {
        self.point_of_hash(stable_key_hash(key))
    }

    // `point_of` for a key whose stable hash is `h`.
    pub(crate) fn point_of_hash(&self, h: u64) -> usize {
        match self.points.binary_search_by(|p| p.hash.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0, // wrap
            Err(i) => i,
        }
    }

    /// The node owning `key`.
    pub fn owner_of(&self, key: &[u8]) -> u16 {
        self.owner_of_hash(stable_key_hash(key))
    }

    /// The node owning the key whose stable hash
    /// ([`stable_key_hash`]) is `hash` — for a caller that already hashed
    /// the key to route it.
    pub fn owner_of_hash(&self, hash: u64) -> u16 {
        self.points[self.point_of_hash(hash)].owner
    }

    /// Adds `node` with `weight` virtual points and bumps the epoch. Keys
    /// can only move *to* the new node (arcs its points split), so the
    /// expected movement is `K·weight / total_points`.
    pub fn join(&mut self, node: u16, weight: u32) {
        let mut points = self.points.to_vec();
        points.extend((0..weight).map(|vnode| RingPoint {
            hash: point_hash(node, vnode),
            owner: node,
            node,
            vnode,
        }));
        points.sort_unstable_by_key(|p| (p.hash, p.node, p.vnode));
        self.points = points.into();
        self.epoch += 1;
    }

    /// Removes every point currently *owned* by `node` and bumps the
    /// epoch. Orphaned keys fall to each removed arc's successor point, so
    /// only the leaving node's share moves.
    ///
    /// # Panics
    ///
    /// If removing the node would empty the ring.
    pub fn leave(&mut self, node: u16) {
        let points: Vec<RingPoint> = self
            .points
            .iter()
            .copied()
            .filter(|p| p.owner != node)
            .collect();
        assert!(!points.is_empty(), "cannot remove the last node");
        self.points = points.into();
        self.epoch += 1;
    }

    /// Reassigns virtual point `idx` to node `to` and bumps the epoch —
    /// the commit step of a key-range migration. Only the keys of that
    /// point move; every other key's owner is untouched.
    ///
    /// # Panics
    ///
    /// If `idx` is out of range.
    pub fn reassign_point(&mut self, idx: usize, to: u16) {
        Arc::make_mut(&mut self.points)[idx].owner = to;
        self.epoch += 1;
    }

    /// The distinct owners present on the ring, sorted.
    pub fn owners(&self) -> Vec<u16> {
        let mut owners: Vec<u16> = self.points.iter().map(|p| p.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_has_exactly_one_owner() {
        let ring = PlacementRing::new(4, 16);
        for i in 0..512u32 {
            let key = i.to_le_bytes();
            let owner = ring.owner_of(&key);
            assert!(owner < 4);
            assert_eq!(ring.point_owner(ring.point_of(&key)), owner);
        }
    }

    #[test]
    fn reassign_moves_only_the_point_keys() {
        let mut ring = PlacementRing::new(3, 16);
        let hot = b"hot-key";
        let point = ring.point_of(hot);
        let from = ring.owner_of(hot);
        let to = (from + 1) % 3;
        let before: Vec<u16> = (0..512u32)
            .map(|i| ring.owner_of(&i.to_le_bytes()))
            .collect();
        ring.reassign_point(point, to);
        assert_eq!(ring.owner_of(hot), to);
        for (i, prev) in before.iter().enumerate() {
            let key = (i as u32).to_le_bytes();
            let now = ring.owner_of(&key);
            if ring.point_of(&key) == point {
                assert_eq!(now, to);
            } else {
                assert_eq!(now, *prev, "key {i} moved outside the segment");
            }
        }
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut ring = PlacementRing::new(2, 8);
        assert_eq!(ring.epoch(), 1);
        ring.join(2, 8);
        assert_eq!(ring.epoch(), 2);
        ring.reassign_point(0, 1);
        assert_eq!(ring.epoch(), 3);
        ring.leave(2);
        assert_eq!(ring.epoch(), 4);
    }
}
