//! A binary Merkle hash tree over storage cells.
//!
//! The paper's adversary is honest-but-curious: it reads transcripts but
//! serves cells faithfully. A production deployment must also survive an
//! *active* server that corrupts, swaps, or rolls back cells. The standard
//! remedy is a Merkle tree: the client keeps only the 32-byte root; every
//! downloaded cell comes with its `O(log n)` sibling path, which the client
//! verifies before trusting the cell, and every upload updates the root.
//! Combined with per-cell AEAD ([`crate::aead`]) this upgrades any scheme in
//! this workspace from honest-but-curious to active security at
//! `O(log n)` hashes (not blocks!) per access — the blocks-moved overhead
//! that the paper's theorems count is unchanged.
//!
//! Leaves are hashed with a `0x00` domain-separation prefix and interior
//! nodes with `0x01` (the standard second-preimage defence); an odd node at
//! any level is promoted by hashing with an empty right sibling.

use crate::sha256::digest as sha256;

/// A 32-byte node digest.
pub type Digest = [u8; 32];

/// A sibling on the leaf-to-root authentication path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNode {
    /// The sibling digest.
    pub digest: Digest,
    /// True if the sibling sits to the right of the running hash.
    pub sibling_on_right: bool,
}

/// An authentication path for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf: usize,
    /// Leaf-to-root siblings.
    pub path: Vec<PathNode>,
}

fn hash_leaf(data: &[u8]) -> Digest {
    let mut input = Vec::with_capacity(data.len() + 1);
    input.push(0x00);
    input.extend_from_slice(data);
    sha256(&input)
}

fn hash_interior(left: &Digest, right: &Digest) -> Digest {
    let mut input = [0u8; 65];
    input[0] = 0x01;
    input[1..33].copy_from_slice(left);
    input[33..].copy_from_slice(right);
    sha256(&input)
}

/// The digest of an absent right sibling (odd level widths).
fn empty_digest() -> Digest {
    sha256(&[0x02])
}

/// A Merkle tree over `n` cells, stored level by level (level 0 = leaves).
///
/// In deployment the *tree* lives on the untrusted server and only the
/// *root* is trusted client state; [`MerkleTree::verify`] is the pure
/// client-side check that needs nothing but the root.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf digests; last level has exactly one node.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds the tree over the given cells.
    ///
    /// # Panics
    /// Panics if `cells` is empty.
    pub fn build<C: AsRef<[u8]>>(cells: &[C]) -> Self {
        Self::from_leaves(cells.iter().map(|c| hash_leaf(c.as_ref())).collect())
    }

    /// The leaf digest of `cell`, for [`MerkleTree::from_leaves`].
    pub fn leaf(cell: &[u8]) -> Digest {
        hash_leaf(cell)
    }

    /// Builds the tree over leaf digests computed one by one with
    /// [`MerkleTree::leaf`] — for a caller that sees the cells stream past
    /// and never holds them together.
    ///
    /// # Panics
    /// Panics if `leaves` is empty.
    pub fn from_leaves(leaves: Vec<Digest>) -> Self {
        assert!(!leaves.is_empty(), "need at least one cell");
        let mut levels = vec![leaves];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let next: Vec<Digest> = prev
                .chunks(2)
                .map(|pair| match pair {
                    [l, r] => hash_interior(l, r),
                    [l] => hash_interior(l, &empty_digest()),
                    _ => unreachable!("chunks(2)"),
                })
                .collect();
            levels.push(next);
        }
        Self { levels }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// True if the tree has no leaves (never: `build` requires one).
    pub fn is_empty(&self) -> bool {
        self.levels[0].is_empty()
    }

    /// The root digest — the client's entire trusted state.
    pub fn root(&self) -> Digest {
        *self.levels.last().expect("non-empty").first().expect("root")
    }

    /// Tree height (number of levels above the leaves).
    pub fn height(&self) -> usize {
        self.levels.len() - 1
    }

    /// Produces the authentication path for `leaf`.
    ///
    /// # Panics
    /// Panics if `leaf` is out of range.
    pub fn prove(&self, leaf: usize) -> MerkleProof {
        assert!(leaf < self.len(), "leaf {leaf} out of range");
        let mut path = Vec::with_capacity(self.height());
        let mut index = leaf;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_on_right = index.is_multiple_of(2);
            let sibling_index = if sibling_on_right { index + 1 } else { index - 1 };
            let digest = level.get(sibling_index).copied().unwrap_or_else(empty_digest);
            path.push(PathNode { digest, sibling_on_right });
            index /= 2;
        }
        MerkleProof { leaf, path }
    }

    /// Client-side verification: checks that `cell` at `proof.leaf` is
    /// consistent with the trusted `root`. Pure function of its inputs.
    pub fn verify(root: &Digest, cell: &[u8], proof: &MerkleProof) -> bool {
        let mut acc = hash_leaf(cell);
        let mut index = proof.leaf;
        for node in &proof.path {
            // The path's left/right flags must agree with the leaf index;
            // otherwise a valid-looking path could authenticate a different
            // position (cell-swap attack).
            if node.sibling_on_right != index.is_multiple_of(2) {
                return false;
            }
            acc = if node.sibling_on_right {
                hash_interior(&acc, &node.digest)
            } else {
                hash_interior(&node.digest, &acc)
            };
            index /= 2;
        }
        acc == *root
    }

    /// Replaces leaf `leaf` with the digest of `cell` and recomputes the
    /// path to the root. `O(log n)` hashes.
    ///
    /// # Panics
    /// Panics if `leaf` is out of range.
    pub fn update(&mut self, leaf: usize, cell: &[u8]) {
        assert!(leaf < self.len(), "leaf {leaf} out of range");
        let mut index = leaf;
        self.levels[0][index] = hash_leaf(cell);
        for level in 1..self.levels.len() {
            let child = index & !1;
            let left = self.levels[level - 1][child];
            let right = self.levels[level - 1]
                .get(child + 1)
                .copied()
                .unwrap_or_else(empty_digest);
            index /= 2;
            self.levels[level][index] = hash_interior(&left, &right);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 8]).collect()
    }

    #[test]
    fn proofs_verify_for_all_leaves() {
        for n in [1usize, 2, 3, 7, 8, 9, 100] {
            let data = cells(n);
            let tree = MerkleTree::build(&data);
            let root = tree.root();
            for (i, cell) in data.iter().enumerate() {
                let proof = tree.prove(i);
                assert!(MerkleTree::verify(&root, cell, &proof), "n = {n}, leaf {i}");
            }
        }
    }

    #[test]
    fn wrong_cell_fails_verification() {
        let data = cells(16);
        let tree = MerkleTree::build(&data);
        let root = tree.root();
        let proof = tree.prove(5);
        assert!(!MerkleTree::verify(&root, &[0xFFu8; 8], &proof));
    }

    #[test]
    fn swapped_cell_fails_verification() {
        // Serving leaf 3's cell with leaf 5's proof (or vice versa) must
        // fail — this is the attack address-binding defends against.
        let data = cells(16);
        let tree = MerkleTree::build(&data);
        let root = tree.root();
        let proof5 = tree.prove(5);
        assert!(!MerkleTree::verify(&root, &data[3], &proof5));
    }

    #[test]
    fn tampered_path_fails_verification() {
        let data = cells(8);
        let tree = MerkleTree::build(&data);
        let root = tree.root();
        let mut proof = tree.prove(2);
        proof.path[1].digest[0] ^= 1;
        assert!(!MerkleTree::verify(&root, &data[2], &proof));
    }

    #[test]
    fn flipped_direction_flag_fails_verification() {
        let data = cells(8);
        let tree = MerkleTree::build(&data);
        let root = tree.root();
        let mut proof = tree.prove(2);
        proof.path[0].sibling_on_right = !proof.path[0].sibling_on_right;
        assert!(!MerkleTree::verify(&root, &data[2], &proof));
    }

    #[test]
    fn update_changes_root_and_reverifies() {
        let data = cells(10);
        let mut tree = MerkleTree::build(&data);
        let old_root = tree.root();
        tree.update(7, b"new cell");
        let new_root = tree.root();
        assert_ne!(old_root, new_root);
        // New value verifies against new root.
        assert!(MerkleTree::verify(&new_root, b"new cell", &tree.prove(7)));
        // Old value still verifies against OLD root (rollback detection:
        // a server replaying the old cell fails against the new root).
        assert!(!MerkleTree::verify(&new_root, &data[7], &tree.prove(7)));
        assert!(MerkleTree::verify(&old_root, &data[7], &{
            let fresh = MerkleTree::build(&data);
            fresh.prove(7)
        }));
    }

    #[test]
    fn update_matches_rebuild() {
        let mut data = cells(13);
        let mut tree = MerkleTree::build(&data);
        for (i, new) in [(0usize, b"aa".as_slice()), (6, b"bb".as_slice()), (12, b"cc".as_slice())]
        {
            data[i] = new.to_vec();
            tree.update(i, new);
            let rebuilt = MerkleTree::build(&data);
            assert_eq!(tree.root(), rebuilt.root(), "after updating leaf {i}");
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::build(&[b"only"]);
        assert_eq!(tree.height(), 0);
        assert!(MerkleTree::verify(&tree.root(), b"only", &tree.prove(0)));
    }

    #[test]
    fn leaf_and_interior_domains_are_separated() {
        // A leaf whose content equals an interior node's input must not
        // collide: hash_leaf and hash_interior use distinct prefixes.
        let a = hash_leaf(b"x");
        let b = hash_leaf(b"y");
        let interior = hash_interior(&a, &b);
        let mut fake_leaf = Vec::new();
        fake_leaf.extend_from_slice(&a);
        fake_leaf.extend_from_slice(&b);
        assert_ne!(hash_leaf(&fake_leaf), interior);
    }

    #[test]
    fn height_grows_logarithmically() {
        assert_eq!(MerkleTree::build(&cells(2)).height(), 1);
        assert_eq!(MerkleTree::build(&cells(8)).height(), 3);
        assert_eq!(MerkleTree::build(&cells(9)).height(), 4);
        assert_eq!(MerkleTree::build(&cells(1024)).height(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prove_out_of_range_panics() {
        MerkleTree::build(&cells(4)).prove(4);
    }
}
