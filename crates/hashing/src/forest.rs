//! The oblivious two-choice forest (Section 7.2).
//!
//! Buckets are the `n` leaves of `Θ(n / log n)` complete binary trees, each
//! with `L = Θ(log n)` leaves and therefore `Θ(log log n)` depth. A bucket's
//! storage is the path from its leaf up to its tree root, *plus* a single
//! client-resident **super root** shared by all buckets. Each node stores up
//! to `t = Θ(1)` entries, so the server stores `Θ(n)` cells total — beating
//! the naive `Θ(n log log n)` padding of plain two-choice hashing while
//! still hiding per-bucket loads (every bucket occupies exactly
//! `depth` equal-sized cells).
//!
//! The storing algorithm `S` places a new key into the *lowest* node with a
//! free slot on either of its two PRF-chosen paths, overflowing into the
//! super root; Theorem 7.2 shows the super root holds more than
//! `Φ(n) = ω(log n)` keys only with negligible probability.
//!
//! The mapping `Π(u) = {F(k1,u), F(k2,u)}` is [`TwoChoice`], defined once
//! here and held by both [`ObliviousForest`] and the DP-KVS client.

use dps_crypto::chacha::{self, KEY_LEN, NONCE_LEN};
use dps_crypto::hmac::hmac_sha256;
use dps_crypto::prf::reduce;

/// The mapping function `Π(u) = {F(k1,u), F(k2,u)}` of Section 7.2: a key's
/// two candidate buckets.
///
/// `F` is the ChaCha20 block function under a 32-byte key derived once from
/// the master key, `HMAC-SHA256(master, "bucket-choice")`. One block at
/// counter 0 with nonce `u ‖ 0⁴` (little-endian) yields 64 pseudorandom
/// bytes; its words 0–1 and words 2–3 are two disjoint 64-bit outputs, so
/// they play `F(k1,u)` and `F(k2,u)` for independent `k1`, `k2`. Each is
/// reduced into `[0, n)` by multiply-shift ([`reduce`]). One evaluation is
/// one scalar ChaCha20 block and allocates nothing.
#[derive(Clone)]
pub struct TwoChoice {
    key: [u8; KEY_LEN],
}

impl std::fmt::Debug for TwoChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "TwoChoice(..)")
    }
}

impl TwoChoice {
    /// Derives the mapping's key from `master_key`.
    pub fn new(master_key: &[u8]) -> Self {
        Self { key: hmac_sha256(master_key, b"bucket-choice") }
    }

    /// `Π(key)` over `n` buckets: the two candidate buckets, each in
    /// `[0, n)`. They may coincide (probability ≈ `1/n`).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn buckets(&self, key: u64, n: usize) -> (usize, usize) {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&key.to_le_bytes());
        let block = chacha::block(&self.key, 0, &nonce);
        let word =
            |i: usize| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let n = n as u64;
        (reduce(word(0), n) as usize, reduce(word(1), n) as usize)
    }
}

/// A stored key-value entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key (from the large universe `U`).
    pub key: u64,
    /// The value payload.
    pub value: Vec<u8>,
}

/// Where an inserted key was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Stored in a server-side tree node at the given height (0 = leaf).
    Node {
        /// Global node id.
        node: usize,
        /// Height in the tree (0 = leaf level).
        height: usize,
    },
    /// Stored in the client-resident super root.
    SuperRoot,
}

/// Errors from forest operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestError {
    /// Both paths and the super root are full — the mapping scheme failed.
    /// Theorem 7.2: probability negligible for `Φ(n) = ω(log n)`.
    Full,
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForestError::Full => write!(f, "both candidate paths and the super root are full"),
        }
    }
}

impl std::error::Error for ForestError {}

/// Geometry of the forest: tree shape and capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestGeometry {
    /// Number of buckets `n` (= leaves addressable by the mapping function).
    pub n_buckets: usize,
    /// Leaves per tree `L` (power of two, `Θ(log n)`).
    pub leaves_per_tree: usize,
    /// Entries per node `t` (`Θ(1)`).
    pub node_capacity: usize,
    /// Entries the client-side super root may hold (`Φ(n) = ω(log n)`).
    pub super_root_capacity: usize,
}

impl ForestGeometry {
    /// The parameters Theorem 7.5 recommends: `L` the power of two nearest
    /// `log2 n`, `t = 3`, `Φ(n) = log2(n)^2` (an `ω(log n)` function with
    /// good constants at practical sizes).
    pub fn recommended(n: usize) -> Self {
        assert!(n > 0, "need at least one bucket");
        let log_n = (n.max(2) as f64).log2();
        let leaves_per_tree = (log_n.round() as usize).next_power_of_two().max(4);
        let super_root_capacity = ((log_n * log_n).ceil() as usize).max(16);
        Self { n_buckets: n, leaves_per_tree, node_capacity: 3, super_root_capacity }
    }

    /// Number of trees `R = ceil(n / L)`.
    pub fn num_trees(&self) -> usize {
        self.n_buckets.div_ceil(self.leaves_per_tree)
    }

    /// Nodes in one complete binary tree with `L` leaves.
    pub fn nodes_per_tree(&self) -> usize {
        2 * self.leaves_per_tree - 1
    }

    /// Total server-side nodes — `Θ(n)`, the storage claim of Theorem 7.2.
    pub fn total_nodes(&self) -> usize {
        self.num_trees() * self.nodes_per_tree()
    }

    /// Path length from a leaf to its tree root (number of server nodes per
    /// bucket) — `Θ(log log n)`, the bandwidth claim of Theorem 7.5.
    pub fn depth(&self) -> usize {
        self.leaves_per_tree.trailing_zeros() as usize + 1
    }

    /// Total entry slots on the server.
    pub fn server_slots(&self) -> usize {
        self.total_nodes() * self.node_capacity
    }

    /// The server node ids on the path of `bucket`, ordered leaf to root
    /// (`result[h]` has height `h`). The super root is not included — it
    /// lives on the client.
    ///
    /// # Panics
    /// Panics if `bucket >= n_buckets`.
    pub fn bucket_path(&self, bucket: usize) -> Vec<usize> {
        assert!(bucket < self.n_buckets, "bucket {bucket} out of range");
        let tree = bucket / self.leaves_per_tree;
        let base = tree * self.nodes_per_tree();
        // Heap layout within a tree: root at 0, children of i at 2i+1, 2i+2,
        // leaves at L-1 .. 2L-2.
        let mut local = self.leaves_per_tree - 1 + (bucket % self.leaves_per_tree);
        let mut path = Vec::with_capacity(self.depth());
        loop {
            path.push(base + local);
            if local == 0 {
                break;
            }
            local = (local - 1) / 2;
        }
        path
    }

    /// Height of a node given its global id (0 = leaf).
    pub fn node_height(&self, node: usize) -> usize {
        let local = node % self.nodes_per_tree();
        // Heap index i is at depth floor(log2(i+1)) from the root; height =
        // (levels - 1) - depth.
        let depth_from_root = (usize::BITS - 1 - (local + 1).leading_zeros()) as usize;
        (self.depth() - 1) - depth_from_root
    }
}

/// Picks the placement for a new entry given the loads of the two candidate
/// paths (leaf-to-root order): the lowest height with a free slot on either
/// path; ties go to the less-loaded node, then to path `a`. Returns
/// `(path_choice, height)` with `0 = a`, `1 = b`, or `None` if both paths
/// are full. This pure function is shared by the in-memory forest and the
/// DP-KVS client, guaranteeing identical placement decisions.
pub fn choose_slot(
    loads_a: &[usize],
    loads_b: &[usize],
    capacity: usize,
) -> Option<(usize, usize)> {
    debug_assert_eq!(loads_a.len(), loads_b.len());
    for h in 0..loads_a.len() {
        let free_a = loads_a[h] < capacity;
        let free_b = loads_b[h] < capacity;
        match (free_a, free_b) {
            (true, true) => return Some((usize::from(loads_b[h] < loads_a[h]), h)),
            (true, false) => return Some((0, h)),
            (false, true) => return Some((1, h)),
            (false, false) => {}
        }
    }
    None
}

/// In-memory oblivious two-choice forest.
///
/// This is both the reference implementation measured by experiment E10/E16
/// and the plaintext logic that the DP-KVS client executes over downloaded
/// (decrypted) paths.
#[derive(Debug, Clone)]
pub struct ObliviousForest {
    geometry: ForestGeometry,
    nodes: Vec<Vec<Entry>>,
    super_root: Vec<Entry>,
    choice: TwoChoice,
    len: usize,
}

impl ObliviousForest {
    /// Creates an empty forest whose mapping function is keyed by
    /// `master_key` ([`TwoChoice::new`]).
    pub fn new(geometry: ForestGeometry, master_key: &[u8]) -> Self {
        Self {
            nodes: vec![Vec::new(); geometry.total_nodes()],
            super_root: Vec::new(),
            choice: TwoChoice::new(master_key),
            geometry,
            len: 0,
        }
    }

    /// The forest geometry.
    pub fn geometry(&self) -> &ForestGeometry {
        &self.geometry
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The two candidate buckets for `key`: `Π(u) = {F(k1,u), F(k2,u)}`.
    pub fn buckets_for(&self, key: u64) -> (usize, usize) {
        self.choice.buckets(key, self.geometry.n_buckets)
    }

    fn find(&self, key: u64) -> Option<(Option<usize>, usize)> {
        // Returns (node id or None for super root, slot index).
        let (a, b) = self.buckets_for(key);
        for node in self
            .geometry
            .bucket_path(a)
            .into_iter()
            .chain(self.geometry.bucket_path(b))
        {
            if let Some(slot) = self.nodes[node].iter().position(|e| e.key == key) {
                return Some((Some(node), slot));
            }
        }
        self.super_root
            .iter()
            .position(|e| e.key == key)
            .map(|slot| (None, slot))
    }

    /// Looks up `key`.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.find(key).map(|(node, slot)| match node {
            Some(node) => self.nodes[node][slot].value.as_slice(),
            None => self.super_root[slot].value.as_slice(),
        })
    }

    /// Inserts or updates `key`. New keys are placed by the storing
    /// algorithm `S`; existing keys are updated in place.
    pub fn insert(&mut self, key: u64, value: Vec<u8>) -> Result<Placement, ForestError> {
        if let Some((node, slot)) = self.find(key) {
            return Ok(match node {
                Some(node) => {
                    self.nodes[node][slot].value = value;
                    Placement::Node { node, height: self.geometry.node_height(node) }
                }
                None => {
                    self.super_root[slot].value = value;
                    Placement::SuperRoot
                }
            });
        }

        let (a, b) = self.buckets_for(key);
        let path_a = self.geometry.bucket_path(a);
        let path_b = self.geometry.bucket_path(b);
        let loads_a: Vec<usize> = path_a.iter().map(|&id| self.nodes[id].len()).collect();
        let loads_b: Vec<usize> = path_b.iter().map(|&id| self.nodes[id].len()).collect();

        match choose_slot(&loads_a, &loads_b, self.geometry.node_capacity) {
            Some((which, height)) => {
                let node = if which == 0 { path_a[height] } else { path_b[height] };
                self.nodes[node].push(Entry { key, value });
                self.len += 1;
                Ok(Placement::Node { node, height })
            }
            None => {
                if self.super_root.len() < self.geometry.super_root_capacity {
                    self.super_root.push(Entry { key, value });
                    self.len += 1;
                    Ok(Placement::SuperRoot)
                } else {
                    Err(ForestError::Full)
                }
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        let (node, slot) = self.find(key)?;
        self.len -= 1;
        Some(match node {
            Some(node) => self.nodes[node].swap_remove(slot).value,
            None => self.super_root.swap_remove(slot).value,
        })
    }

    /// Current super-root load — the quantity bounded by Theorem 7.2.
    pub fn super_root_load(&self) -> usize {
        self.super_root.len()
    }

    /// Number of *filled* (at-capacity) nodes at each height — the empirical
    /// `H_i` compared against `β_i` in experiment E10.
    pub fn filled_per_height(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.geometry.depth()];
        for (id, node) in self.nodes.iter().enumerate() {
            if node.len() >= self.geometry.node_capacity {
                counts[self.geometry.node_height(id)] += 1;
            }
        }
        counts
    }

    /// Number of entries stored at each height.
    pub fn entries_per_height(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.geometry.depth()];
        for (id, node) in self.nodes.iter().enumerate() {
            counts[self.geometry.node_height(id)] += node.len();
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> ForestGeometry {
        ForestGeometry {
            n_buckets: 32,
            leaves_per_tree: 8,
            node_capacity: 2,
            super_root_capacity: 16,
        }
    }

    /// Pearson's χ² statistic of `counts` against a uniform expectation.
    fn chi_square(counts: &[u64]) -> f64 {
        let expected = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// Each of the two choices is uniform over `[0, n)`, for a power of two
    /// and for a size the multiply-shift does not divide evenly. The
    /// threshold is χ²'s 99.9 % point at 15 and 16 degrees of freedom
    /// (37.7, 39.3).
    #[test]
    fn two_choice_marginals_are_uniform() {
        let choice = TwoChoice::new(b"marginals");
        for n in [16usize, 17] {
            let (mut first, mut second) = (vec![0u64; n], vec![0u64; n]);
            for key in 0..(1000 * n) as u64 {
                let (a, b) = choice.buckets(key, n);
                first[a] += 1;
                second[b] += 1;
            }
            for (which, counts) in [("first", &first), ("second", &second)] {
                let stat = chi_square(counts);
                assert!(stat < 40.0, "n {n}: {which} choice χ² {stat:.1}");
            }
        }
    }

    /// The pair `(a, b)` is uniform over `[0, 16)²`: a joint χ² over the 256
    /// cells (threshold 330, χ²'s 99.9 % point at 255 degrees of freedom),
    /// so the two choices are independent and coincide with probability
    /// ≈ `1/n`.
    #[test]
    fn two_choice_pairs_are_jointly_uniform() {
        let n = 16usize;
        let trials = 100 * n * n;
        let choice = TwoChoice::new(b"joint");
        let mut counts = vec![0u64; n * n];
        for key in 0..trials as u64 {
            let (a, b) = choice.buckets(key, n);
            counts[a * n + b] += 1;
        }
        let stat = chi_square(&counts);
        assert!(stat < 330.0, "joint χ² {stat:.1}");
        // P(a = b) = 1/16: 1600 of 25 600 expected, standard deviation ≈ 39.
        let equal: u64 = (0..n).map(|a| counts[a * n + a]).sum();
        assert!(equal.abs_diff((trials / n) as u64) < 200, "a = b for {equal} of {trials} keys");
    }

    /// The mapping is keyed: two master keys send keys to different
    /// buckets, one master key always to the same ones, and the forest
    /// uses exactly [`TwoChoice`].
    #[test]
    fn two_choice_depends_on_the_master_key() {
        let n = 1 << 20;
        let (one, other) = (TwoChoice::new(b"one"), TwoChoice::new(b"other"));
        let moved = (0..64u64)
            .filter(|&key| one.buckets(key, n) != other.buckets(key, n))
            .count();
        assert_eq!(moved, 64, "over 2^40 pairs, a collision would be a bug");
        let again = TwoChoice::new(b"one");
        assert!((0..64u64).all(|key| one.buckets(key, n) == again.buckets(key, n)));
        let forest = ObliviousForest::new(small_geometry(), b"one");
        assert!((0..64u64).all(|key| forest.buckets_for(key) == one.buckets(key, 32)));
    }

    #[test]
    fn geometry_counts() {
        let g = small_geometry();
        assert_eq!(g.num_trees(), 4);
        assert_eq!(g.nodes_per_tree(), 15);
        assert_eq!(g.total_nodes(), 60);
        assert_eq!(g.depth(), 4);
        assert_eq!(g.server_slots(), 120);
    }

    #[test]
    fn geometry_handles_non_divisible_n() {
        let g = ForestGeometry { n_buckets: 33, ..small_geometry() };
        assert_eq!(g.num_trees(), 5);
        // Bucket 32 lives in the fifth tree.
        let path = g.bucket_path(32);
        assert!(path.iter().all(|&id| (4 * 15..5 * 15).contains(&id)));
    }

    #[test]
    fn bucket_path_shape() {
        let g = small_geometry();
        for bucket in 0..g.n_buckets {
            let path = g.bucket_path(bucket);
            assert_eq!(path.len(), g.depth());
            for (h, &node) in path.iter().enumerate() {
                assert_eq!(g.node_height(node), h, "bucket {bucket} height {h}");
            }
            // Path must end at the tree root (local index 0).
            assert_eq!(path.last().unwrap() % g.nodes_per_tree(), 0);
        }
    }

    #[test]
    fn paths_in_same_tree_share_root() {
        let g = small_geometry();
        let p0 = g.bucket_path(0);
        let p7 = g.bucket_path(7);
        assert_eq!(p0.last(), p7.last(), "same tree, same root");
        let p8 = g.bucket_path(8);
        assert_ne!(p0.last(), p8.last(), "different trees");
    }

    #[test]
    fn sibling_leaves_share_parent() {
        let g = small_geometry();
        let p0 = g.bucket_path(0);
        let p1 = g.bucket_path(1);
        assert_ne!(p0[0], p1[0]);
        assert_eq!(p0[1], p1[1]);
    }

    #[test]
    fn choose_slot_prefers_lowest_height() {
        // Height 0 full on both paths; height 1 free on b only.
        assert_eq!(choose_slot(&[2, 2, 0], &[2, 1, 0], 2), Some((1, 1)));
        // Tie at height 0: less-loaded node wins.
        assert_eq!(choose_slot(&[1, 0], &[0, 0], 2), Some((1, 0)));
        assert_eq!(choose_slot(&[0, 0], &[0, 0], 2), Some((0, 0)));
        // Everything full.
        assert_eq!(choose_slot(&[2, 2], &[2, 2], 2), None);
    }

    #[test]
    fn insert_then_get_round_trips() {
        let mut f = ObliviousForest::new(small_geometry(), b"test-key");
        for key in 0..20u64 {
            f.insert(key, vec![key as u8; 8]).unwrap();
        }
        assert_eq!(f.len(), 20);
        for key in 0..20u64 {
            assert_eq!(f.get(key), Some(vec![key as u8; 8].as_slice()), "key {key}");
        }
        assert_eq!(f.get(999), None);
    }

    #[test]
    fn insert_is_upsert() {
        let mut f = ObliviousForest::new(small_geometry(), b"test-key");
        f.insert(7, vec![1]).unwrap();
        f.insert(7, vec![2]).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(7), Some([2u8].as_slice()));
    }

    #[test]
    fn remove_deletes() {
        let mut f = ObliviousForest::new(small_geometry(), b"test-key");
        f.insert(1, vec![9]).unwrap();
        assert_eq!(f.remove(1), Some(vec![9]));
        assert_eq!(f.get(1), None);
        assert_eq!(f.remove(1), None);
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn placements_fill_bottom_up() {
        let mut f = ObliviousForest::new(small_geometry(), b"test-key");
        // With 32 buckets and capacity 2, early inserts must land at low heights.
        let mut heights = Vec::new();
        for key in 0..16u64 {
            match f.insert(key, vec![0]).unwrap() {
                Placement::Node { height, .. } => heights.push(height),
                Placement::SuperRoot => heights.push(usize::MAX),
            }
        }
        assert!(
            heights.iter().filter(|&&h| h == 0).count() >= 12,
            "most early inserts should land at leaves: {heights:?}"
        );
    }

    #[test]
    fn overflow_lands_in_super_root_then_fails() {
        // Tiny forest: 2 buckets in one tree of 2 leaves, capacity 1,
        // super root capacity 1 -> 4 entries fit (3 nodes + 1 super root).
        let g = ForestGeometry {
            n_buckets: 2,
            leaves_per_tree: 2,
            node_capacity: 1,
            super_root_capacity: 1,
        };
        let mut f = ObliviousForest::new(g, b"k");
        let mut placements = Vec::new();
        let mut err = None;
        for key in 0..64u64 {
            match f.insert(key, vec![]) {
                Ok(p) => placements.push(p),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(ForestError::Full));
        assert_eq!(placements.len(), 4, "3 node slots + 1 super-root slot");
        assert_eq!(f.super_root_load(), 1);
        // All stored keys still retrievable after the failed insert.
        for p in 0..4u64 {
            assert!(f.get(p).is_some());
        }
    }

    #[test]
    fn recommended_geometry_scales() {
        let g = ForestGeometry::recommended(1 << 14);
        assert!(g.leaves_per_tree.is_power_of_two());
        assert_eq!(g.leaves_per_tree, 16); // log2(2^14) = 14 -> 16
        assert!(g.super_root_capacity >= 14 * 14);
        // Server storage stays linear: slots within a small constant of n.
        assert!(g.server_slots() <= 8 * (1 << 14));
    }

    #[test]
    fn filled_and_entry_histograms_are_consistent() {
        let mut f = ObliviousForest::new(small_geometry(), b"hist");
        for key in 0..40u64 {
            f.insert(key, vec![]).unwrap();
        }
        let entries = f.entries_per_height();
        let on_server: usize = entries.iter().sum();
        assert_eq!(on_server + f.super_root_load(), 40);
        let filled = f.filled_per_height();
        for (h, &count) in filled.iter().enumerate() {
            assert!(count * f.geometry().node_capacity <= entries[h] + count, "height {h}");
        }
    }

    /// The paper's headline property at reference scale: inserting n keys
    /// into an n-bucket forest never overflows the recommended super root.
    #[test]
    fn full_load_fits_whp_at_small_scale() {
        let n = 1 << 10;
        let g = ForestGeometry::recommended(n);
        let mut f = ObliviousForest::new(g, b"load-test");
        for key in 0..n as u64 {
            f.insert(key, vec![])
                .unwrap_or_else(|e| panic!("key {key}: {e}"));
        }
        assert!(
            f.super_root_load() <= g.super_root_capacity,
            "super root load {} over capacity {}",
            f.super_root_load(),
            g.super_root_capacity
        );
    }
}
