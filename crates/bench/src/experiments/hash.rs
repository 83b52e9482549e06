//! Experiments E9, E10, E16 (hashing separations and the oblivious forest).

use dps_analysis::stats;
use dps_crypto::ChaChaRng;
use dps_hashing::classic::{max_load, one_choice_loads, two_choice_loads};
use dps_hashing::forest::{ForestGeometry, ObliviousForest, Placement};
use dps_hashing::theory::beta_closed;

use crate::table::{f1, f3, Table};
use crate::Verdict;

/// E9 — Theorem A.1: one choice gives max load Θ(log n / log log n); two
/// choices give Θ(log log n).
pub fn run_e9(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] = if fast {
        &[1 << 12, 1 << 16]
    } else {
        &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20]
    };
    let seeds = if fast { 5 } else { 20 };
    let mut t = Table::new(
        "E9 (Thm A.1): one-choice vs two-choice max load, n balls into n bins",
        &["n", "one-choice mean", "two-choice mean", "ln n/ln ln n", "log2 log2 n"],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let mut one = Vec::new();
        let mut two = Vec::new();
        for seed in 0..seeds {
            let mut rng = ChaChaRng::seed_from_u64(900 + seed as u64);
            one.push(f64::from(max_load(&one_choice_loads(n, n, &mut rng))));
            two.push(f64::from(max_load(&two_choice_loads(n, n, &mut rng))));
        }
        let ln_n = (n as f64).ln();
        let log_log = (n as f64).log2().log2();
        let (one, two) = (stats::mean(&one), stats::mean(&two));
        t.row(vec![n.to_string(), f3(one), f3(two), f3(ln_n / ln_n.ln()), f3(log_log)]);
        rows.push((n, one, two, log_log));
    }
    t.print();
    let separated: Vec<_> = rows.iter().copied().filter(|r| r.0 >= 1 << 12).collect();
    vec![
        Verdict::at_every(
            "Thm A.1: from n = 2^12 on, the two-choice mean max load is below the one-choice \
             mean divided by 1.8",
            &separated,
            |(_, one, two, _)| format!("{:.2}×", one / two),
            |&(_, one, two, _)| two * 1.8 < one,
        ),
        Verdict::at_every(
            "Thm A.1: the two-choice mean max load stays within log₂log₂n + 1: Θ(log log n)",
            &rows,
            |(_, _, two, ll)| format!("{two:.2} vs {ll:.2}"),
            |&(_, _, two, ll)| two <= ll + 1.0,
        ),
    ]
}

/// Inserts keys `0..n` into a fresh forest keyed by `seed`, stopping at the
/// first failure. Returns whether one failed, the forest, and the most
/// entries any server node took.
fn fill(geometry: ForestGeometry, seed: &[u8]) -> (bool, ObliviousForest, usize) {
    let mut forest = ObliviousForest::new(geometry, seed);
    let mut node_loads = vec![0usize; geometry.total_nodes()];
    for key in 0..geometry.n_buckets as u64 {
        match forest.insert(key, Vec::new()) {
            Ok(Placement::Node { node, .. }) => node_loads[node] += 1,
            Ok(Placement::SuperRoot) => {}
            Err(_) => return (true, forest, node_loads.into_iter().max().unwrap_or(0)),
        }
    }
    (false, forest, node_loads.into_iter().max().unwrap_or(0))
}

/// E10 — Theorem 7.2 + Lemma 7.3: the forest's per-level fill counts track
/// the β_i recursion; the super root stays under Φ(n); server storage is
/// Θ(n) vs Θ(n log log n) for naive padding.
pub fn run_e10(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] =
        if fast { &[1 << 10, 1 << 14] } else { &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18] };
    let seeds = if fast { 5 } else { 20 };

    let mut t = Table::new(
        "E10 (Thm 7.2): oblivious two-choice forest at full load (n keys into n buckets)",
        &[
            "n",
            "super-root mean",
            "super-root max",
            "Phi(n) cap",
            "max node load (t = 3)",
            "server cells / n",
            "naive padding cells / n",
            "failures",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let geometry = ForestGeometry::recommended(n);
        let mut loads = Vec::new();
        let mut max_node = 0;
        let mut failures = 0u32;
        for seed in 0..seeds {
            let (failed, forest, node) = fill(geometry, format!("seed-{seed}").as_bytes());
            failures += u32::from(failed);
            loads.push(forest.super_root_load() as f64);
            max_node = max_node.max(node);
        }
        // Naive alternative: pad every one of n buckets to the two-choice
        // worst case O(log log n) (we charge log2 log2 n + 2 slots).
        let naive_per_bucket = (n as f64).log2().log2().ceil() + 2.0;
        let super_root_max = loads.iter().copied().fold(0.0, f64::max);
        let cells = geometry.total_nodes() as f64 / n as f64;
        t.row(vec![
            n.to_string(),
            f1(stats::mean(&loads)),
            f1(super_root_max),
            geometry.super_root_capacity.to_string(),
            max_node.to_string(),
            f3(cells),
            f3(naive_per_bucket),
            failures.to_string(),
        ]);
        rows.push((geometry, super_root_max, max_node, cells, naive_per_bucket, failures));
    }
    t.print();

    // β_i tracking at one representative size.
    let n = if fast { 1 << 14 } else { 1 << 16 };
    let filled = fill(ForestGeometry::recommended(n), b"beta-track")
        .1
        .filled_per_height();
    let mut t = Table::new(
        format!("E10b (Lemma 7.3): filled nodes per height vs beta_i envelope (n = {n})"),
        &["height i", "filled nodes H_i", "beta_i (theory envelope)"],
    );
    for (i, &h) in filled.iter().enumerate() {
        t.row(vec![i.to_string(), h.to_string(), f1(beta_closed(n as f64, i as u32).max(0.0))]);
    }
    t.print();
    let beta0 = beta_closed(n as f64, 0);

    vec![
        Verdict::at_every(
            format!(
                "Thm 7.2: at full load over {seeds} seeds, no insert fails, no server node holds \
                 more than its t entries, and the super root stays within Φ(n), at every n"
            ),
            &rows,
            |(g, sr, node, .., f)| {
                let cap = g.super_root_capacity;
                format!("{f} failures, node ≤ {node}, super root {sr:.0}/{cap}")
            },
            |&(g, sr, node, .., f)| {
                f == 0 && node <= g.node_capacity && sr <= g.super_root_capacity as f64
            },
        ),
        Verdict::at_every(
            "Thm 7.2: the forest's server cells stay within [n, 4n], below naive log log n \
             padding, at every n",
            &rows,
            |r| format!("{:.3}n", r.3),
            |&(.., cells, naive, _)| (1.0..=4.0).contains(&cells) && cells < naive,
        ),
        Verdict::new(
            format!(
                "Lemma 7.3 (n = {n}): filled nodes at least halve per height wherever the height \
                 below has ≥ 8, and the filled leaves stay under 40·β₀"
            ),
            format!("H = {filled:?}, 40·β₀ = {:.0}", 40.0 * beta0),
            filled.windows(2).all(|w| w[0] < 8 || w[1] * 2 <= w[0])
                && (filled[0] as f64) < 40.0 * beta0,
        ),
    ]
}

/// E16 — ablation: forest geometry (node capacity t, leaves per tree L) vs
/// super-root pressure and failure rate.
pub fn run_e16(fast: bool) -> Vec<Verdict> {
    let n = 1 << 14;
    let seeds = if fast { 5 } else { 15 };
    let mut t = Table::new(
        "E16 (ablation): forest geometry vs super-root load (n = 2^14 keys)",
        &[
            "node capacity t",
            "leaves/tree L",
            "server cells / n",
            "max node load",
            "super-root mean",
            "failures",
        ],
    );
    let phi = ForestGeometry::recommended(n).super_root_capacity;
    let log_l = (n as f64).log2().round() as usize; // ~14 -> 16
    let mut rows = Vec::new();
    for capacity in [1usize, 2, 3, 4] {
        for leaves in [
            log_l.next_power_of_two() / 2,
            log_l.next_power_of_two(),
            log_l.next_power_of_two() * 2,
        ] {
            let geometry = ForestGeometry {
                n_buckets: n,
                leaves_per_tree: leaves,
                node_capacity: capacity,
                super_root_capacity: 4096, // generous: we want to *see* the pressure
            };
            let mut loads = Vec::new();
            let mut max_node = 0;
            let mut failures = 0u32;
            for seed in 0..seeds {
                let (failed, forest, node) =
                    fill(geometry, format!("e16-{capacity}-{leaves}-{seed}").as_bytes());
                failures += u32::from(failed);
                loads.push(forest.super_root_load() as f64);
                max_node = max_node.max(node);
            }
            let mean = stats::mean(&loads);
            t.row(vec![
                capacity.to_string(),
                leaves.to_string(),
                f3(geometry.total_nodes() as f64 / n as f64),
                max_node.to_string(),
                f1(mean),
                failures.to_string(),
            ]);
            rows.push((capacity, max_node, mean, failures));
        }
    }
    t.print();
    vec![Verdict::new(
        format!(
            "Thm 7.2 across geometries: at n = 2^14 every geometry swept, t = 1 included, stores \
             all n keys with no failure, no node over its t entries, and a mean super-root load \
             within Φ(n) = {phi}"
        ),
        format!(
            "largest super-root mean {:.1}, {} geometries with a node over t, {} failures",
            rows.iter().map(|r| r.2).fold(0.0, f64::max),
            rows.iter().filter(|&&(t, node, ..)| node > t).count(),
            rows.iter().map(|r| r.3).sum::<u32>()
        ),
        rows.iter()
            .all(|&(t, node, mean, failures)| failures == 0 && node <= t && mean <= phi as f64),
    )]
}
