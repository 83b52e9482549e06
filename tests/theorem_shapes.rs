//! Integration tests asserting the *shapes* the paper's theorems predict,
//! measured across crates (theory formulas vs simulated structures).

use dp_storage::hashing::forest::{ForestGeometry, ObliviousForest};
use dp_storage::hashing::theory::{beta_closed, i_star};

/// Lemma 7.3 / Theorem 7.2: the forest's empirical filled-node counts are
/// dominated by a constant multiple of the β_i envelope, and the decay is
/// sharp (each level at most half the previous).
#[test]
fn forest_fill_decays_like_beta() {
    let n = 1 << 14;
    let geometry = ForestGeometry::recommended(n);
    let mut forest = ObliviousForest::new(geometry, b"beta-shape");
    for key in 0..n as u64 {
        forest.insert(key, Vec::new()).unwrap();
    }
    let filled = forest.filled_per_height();
    // Leaf level has many filled nodes; the decay must be strictly sharp.
    for h in 1..filled.len() {
        if filled[h - 1] >= 8 {
            assert!(
                filled[h] * 2 <= filled[h - 1],
                "fill counts must at least halve per level: {filled:?}"
            );
        }
    }
    // β_0 envelope sanity: the number of filled leaves is below c·β_0 for a
    // small constant (β's constants are loose in the safe direction).
    let beta0 = beta_closed(n as f64, 0);
    assert!((filled[0] as f64) < 40.0 * beta0, "filled leaves {} vs β_0 = {beta0}", filled[0]);
}

/// The i* height where β drops below Φ is Θ(log log n): it must grow by at
/// most 1 when n quadruples.
#[test]
fn i_star_grows_doubly_logarithmically() {
    let phi = |n: f64| n.log2() * n.log2();
    let mut prev = 0;
    for exp in [10u32, 12, 14, 16, 18, 20] {
        let n = (1u64 << exp) as f64;
        let i = i_star(n, phi(n)).unwrap_or(0);
        assert!(i >= prev, "i* must be non-decreasing");
        assert!(i - prev <= 1, "i* must grow very slowly: {prev} -> {i} at n = 2^{exp}");
        prev = i;
    }
    assert!(prev <= 6, "i* must stay tiny at n = 2^20");
}

/// Theorem 7.2 at scale: full load with zero failures across seeds, super
/// root under Φ(n).
#[test]
fn forest_full_load_never_fails_across_seeds() {
    let n = 1 << 12;
    let geometry = ForestGeometry::recommended(n);
    for seed in 0..8 {
        let mut forest = ObliviousForest::new(geometry, format!("s{seed}").as_bytes());
        for key in 0..n as u64 {
            forest
                .insert(key, Vec::new())
                .unwrap_or_else(|e| panic!("seed {seed}, key {key}: {e}"));
        }
        assert!(
            forest.super_root_load() <= geometry.super_root_capacity,
            "seed {seed}: super root {} over Φ = {}",
            forest.super_root_load(),
            geometry.super_root_capacity
        );
    }
}

/// The forest uses Θ(n) server cells — concretely, under 4n for every
/// recommended geometry across three orders of magnitude.
#[test]
fn forest_storage_is_linear() {
    for exp in [8u32, 12, 16, 20] {
        let n = 1usize << exp;
        let g = ForestGeometry::recommended(n);
        let cells = g.total_nodes();
        assert!(cells <= 4 * n, "n = 2^{exp}: {cells} cells is not O(n)");
        assert!(cells >= n, "must at least cover the buckets");
    }
}
