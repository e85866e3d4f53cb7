//! Binary Merkle tree over bucket MACs.
//!
//! ShieldStore chains encrypted entries per bucket and keeps a MAC per
//! entry; the bucket MACs are hashed up a tree whose root lives in the
//! enclave. Updating a bucket costs one path of SHA-256 recomputations;
//! verifying a bucket costs the same path plus the comparison with the root.

use precursor_crypto::sha256;

/// A complete binary Merkle tree over `n` leaves (power of two), storing all
/// levels. Leaf values are 32-byte digests of whatever the caller hashes
/// (here: a bucket's MAC list).
///
/// # Example
///
/// ```
/// use precursor_shieldstore::merkle::MerkleTree;
/// let mut t = MerkleTree::new(8);
/// let root_before = t.root();
/// t.update(3, [7u8; 32]);
/// assert_ne!(t.root(), root_before);
/// assert!(t.verify(3, [7u8; 32]));
/// assert!(!t.verify(3, [8u8; 32]));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    // levels[0] = leaves, levels.last() = [root]
    levels: Vec<Vec<[u8; 32]>>,
}

fn parent_hash(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(a);
    buf[32..].copy_from_slice(b);
    sha256::digest(&buf)
}

impl MerkleTree {
    /// Builds a tree of `leaves` zeroed leaves.
    ///
    /// # Panics
    ///
    /// Panics unless `leaves` is a power of two ≥ 2.
    pub fn new(leaves: usize) -> MerkleTree {
        assert!(
            leaves >= 2 && leaves.is_power_of_two(),
            "leaves must be a power of two"
        );
        let mut levels = vec![vec![[0u8; 32]; leaves]];
        while levels.last().expect("nonempty").len() > 1 {
            let below = levels.last().expect("nonempty");
            let mut level = Vec::with_capacity(below.len() / 2);
            for pair in below.chunks(2) {
                level.push(parent_hash(&pair[0], &pair[1]));
            }
            levels.push(level);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.levels[0].len()
    }

    /// Tree height (number of hash levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// The current root digest.
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().expect("nonempty")[0]
    }

    /// The current value of leaf `index` (ShieldStore keeps the whole leaf
    /// level inside the enclave, so a get compares against it directly).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn leaf(&self, index: usize) -> [u8; 32] {
        self.levels[0][index]
    }

    /// Replaces leaf `index` and recomputes the path to the root. Returns
    /// the number of hash computations performed (for cost accounting).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn update(&mut self, index: usize, leaf: [u8; 32]) -> usize {
        self.levels[0][index] = leaf;
        let mut idx = index;
        let mut hashes = 0;
        for lvl in 0..self.height() {
            let pair = idx & !1;
            let h = parent_hash(&self.levels[lvl][pair], &self.levels[lvl][pair + 1]);
            idx /= 2;
            self.levels[lvl + 1][idx] = h;
            hashes += 1;
        }
        hashes
    }

    /// Verifies that leaf `index` currently holds `leaf` *and* that the path
    /// to the root is consistent (recomputing it), as the enclave does per
    /// get. Returns `false` on any mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn verify(&self, index: usize, leaf: [u8; 32]) -> bool {
        if self.levels[0][index] != leaf {
            return false;
        }
        let mut idx = index;
        let mut h = leaf;
        for lvl in 0..self.height() {
            let pair = idx & !1;
            let (a, b) = if idx.is_multiple_of(2) {
                (h, self.levels[lvl][pair + 1])
            } else {
                (self.levels[lvl][pair], h)
            };
            h = parent_hash(&a, &b);
            idx /= 2;
            if self.levels[lvl + 1][idx] != h {
                return false;
            }
        }
        h == self.root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_is_consistent() {
        let t = MerkleTree::new(16);
        assert_eq!(t.leaves(), 16);
        assert_eq!(t.height(), 4);
        assert!(t.verify(0, [0u8; 32]));
        assert!(t.verify(15, [0u8; 32]));
    }

    #[test]
    fn update_changes_root_and_verifies() {
        let mut t = MerkleTree::new(8);
        let r0 = t.root();
        let hashes = t.update(5, [1u8; 32]);
        assert_eq!(hashes, 3);
        assert_ne!(t.root(), r0);
        assert!(t.verify(5, [1u8; 32]));
        assert!(t.verify(0, [0u8; 32]), "untouched leaves still verify");
    }

    #[test]
    fn updates_commute_to_same_root() {
        let mut a = MerkleTree::new(8);
        a.update(1, [1u8; 32]);
        a.update(6, [2u8; 32]);
        let mut b = MerkleTree::new(8);
        b.update(6, [2u8; 32]);
        b.update(1, [1u8; 32]);
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let mut t = MerkleTree::new(4);
        t.update(2, [9u8; 32]);
        assert!(!t.verify(2, [8u8; 32]));
        assert!(!t.verify(1, [9u8; 32]));
    }

    #[test]
    fn tampered_internal_node_detected() {
        let mut t = MerkleTree::new(8);
        t.update(0, [5u8; 32]);
        // simulate memory corruption of an internal node
        t.levels[1][0][0] ^= 1;
        assert!(!t.verify(0, [5u8; 32]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = MerkleTree::new(6);
    }
}
