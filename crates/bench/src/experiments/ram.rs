//! Experiments E5, E7, E8, E15 (DP-RAM overhead, lower bound, stash, ablation).

use dps_analysis::bounds;
use dps_analysis::stats;
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_oram::{PathOram, PathOramConfig};
use dps_server::SimServer;
use dps_workloads::generators::{database, uniform_ram};

use crate::table::{f1, f3, Table};

/// E5 — Theorem 6.1 vs Path ORAM: DP-RAM moves 3 blocks over 2 round trips
/// at every n; Path ORAM grows as Θ(log n) (and Θ(log n) round trips with a
/// recursive position map).
pub fn run_e5(fast: bool) {
    let sizes: &[usize] =
        if fast { &[1 << 8, 1 << 12] } else { &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16] };
    let block = 64;
    let queries = if fast { 200 } else { 500 };
    let mut t = Table::new(
        "E5 (Thm 6.1): DP-RAM O(1) overhead vs Path ORAM Theta(log n)",
        &[
            "n",
            "DP-RAM blocks/q",
            "DP-RAM RTs",
            "PathORAM blocks/q",
            "PathORAM RTs (recursive)",
            "win factor",
        ],
    );
    for &n in sizes {
        let db = database(n, block);
        let mut rng = ChaChaRng::seed_from_u64(5);
        let trace = uniform_ram(n, queries, 0.3, &mut rng);

        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        let before = ram.server_stats();
        for q in &trace {
            match q.op {
                dps_workloads::Op::Read => {
                    ram.read(q.index, &mut rng).unwrap();
                }
                dps_workloads::Op::Write => {
                    ram.write(q.index, vec![0u8; block], &mut rng).unwrap();
                }
            }
        }
        let d = ram.server_stats().since(&before);
        let ram_blocks = (d.downloads + d.uploads) as f64 / queries as f64;
        let ram_rts = d.round_trips as f64 / queries as f64;

        let mut oram =
            PathOram::setup(PathOramConfig::recommended(n, block), &db, SimServer::new(), &mut rng);
        let before = oram.server_stats();
        for q in &trace {
            oram.read(q.index, &mut rng).unwrap();
        }
        let d = oram.server_stats().since(&before);
        let oram_blocks = (d.downloads + d.uploads) as f64 / queries as f64;
        let oram_rts = oram.recursive_round_trips(block / 8);

        t.row(vec![
            n.to_string(),
            f3(ram_blocks),
            f3(ram_rts),
            f1(oram_blocks),
            oram_rts.to_string(),
            format!("{:.1}x", oram_blocks / ram_blocks),
        ]);
    }
    t.print();
    println!("  shape check: DP-RAM columns are flat in n; Path ORAM grows logarithmically — the separation the paper claims.");
}

/// E7 — Theorem 3.7: the DP-RAM lower bound curve vs the construction's
/// measured bandwidth. At ε = Θ(log n) the bound collapses below the
/// construction's constant 3 blocks/query, certifying optimality.
pub fn run_e7(_fast: bool) {
    let n = 1 << 14;
    let alpha = 0.0;
    let mut t = Table::new(
        "E7 (Thm 3.7): DP-RAM lower bound log_c((1-alpha)n/e^eps) vs measured 3 blocks/q (n = 2^14)",
        &["epsilon", "c = 2", "c = 4", "c = 16", "construction blocks/q"],
    );
    let ln_n = (n as f64).ln();
    for epsilon in [0.0, 1.0, ln_n / 2.0, ln_n, 2.0 * ln_n] {
        t.row(vec![
            f3(epsilon),
            f3(bounds::thm_3_7_ram_ops(n, epsilon, alpha, 2)),
            f3(bounds::thm_3_7_ram_ops(n, epsilon, alpha, 4)),
            f3(bounds::thm_3_7_ram_ops(n, epsilon, alpha, 16)),
            "3.000".into(),
        ]);
    }
    t.print();
    let eps_needed = bounds::thm_3_7_epsilon_for_constant_overhead(n, alpha, 2, 3.0);
    println!(
        "  shape check: the bound exceeds 3 until ε ≈ {eps_needed:.2} = Θ(log n) — constant overhead requires ε = Ω(log n)."
    );
}

/// E8 — Lemma D.1: max-over-time stash occupancy concentrates at O(Φ(n)).
pub fn run_e8(fast: bool) {
    let sizes: &[usize] =
        if fast { &[1 << 10, 1 << 12] } else { &[1 << 10, 1 << 12, 1 << 14, 1 << 16] };
    let seeds = if fast { 10 } else { 30 };
    let queries = if fast { 2_000 } else { 10_000 };
    let mut t = Table::new(
        "E8 (Lemma D.1): client stash stays O(Phi(n)) whp (Phi = log2(n)^2)",
        &["n", "Phi(n) = p*n", "mean max-stash", "p99 max-stash", "worst seed"],
    );
    for &n in sizes {
        let config = DpRamConfig::recommended(n);
        let db = database(n, 16);
        let mut maxes = Vec::with_capacity(seeds);
        for seed in 0..seeds {
            let mut rng = ChaChaRng::seed_from_u64(800 + seed as u64);
            let mut ram = DpRam::setup(config, &db, SimServer::new(), &mut rng).unwrap();
            for _ in 0..queries {
                let i = rng.gen_index(n);
                ram.read(i, &mut rng).unwrap();
            }
            maxes.push(ram.max_stash_size() as f64);
        }
        t.row(vec![
            n.to_string(),
            f1(config.expected_stash()),
            f1(stats::mean(&maxes)),
            f1(stats::quantile(&maxes, 0.99)),
            f1(maxes.iter().copied().fold(0.0, f64::max)),
        ]);
    }
    t.print();
    println!(
        "  shape check: max stash tracks Φ(n) with small constant — client storage is Φ(n) whp."
    );
}

/// E15 — ablation: the stash-probability dial. Larger p means more client
/// storage and more decoy traffic (better privacy), same bandwidth.
pub fn run_e15(fast: bool) {
    let n = 1 << 12;
    let queries = if fast { 2_000 } else { 8_000 };
    let db = database(n, 16);
    let mut t = Table::new(
        "E15 (ablation): stash probability p vs client storage and decoy rate (n = 4096)",
        &["p*n (Phi)", "mean stash", "max stash", "decoy download rate", "analytic eps bound"],
    );
    for phi in [1.0, 16.0, 64.0, 256.0] {
        let p = phi / n as f64;
        let config = DpRamConfig { n, stash_probability: p };
        let mut rng = ChaChaRng::seed_from_u64(15);
        let mut ram = DpRam::setup(config, &db, SimServer::new(), &mut rng).unwrap();
        let mut decoys = 0u32;
        let mut stash_acc = stats::Accumulator::new();
        for _ in 0..queries {
            let i = rng.gen_index(n);
            let (_, trace) = ram
                .query_traced(i, dps_workloads::Op::Read, None, &mut rng)
                .unwrap();
            if trace.download != i {
                decoys += 1;
            }
            stash_acc.push(ram.stash_size() as f64);
        }
        t.row(vec![
            f1(phi),
            f1(stash_acc.mean()),
            f1(stash_acc.max()),
            f3(f64::from(decoys) / queries as f64),
            f1(config.epsilon_upper_bound()),
        ]);
    }
    t.print();
    println!("  shape check: decoy rate ≈ p (privacy improves with p) while storage grows as p·n — the trade Theorem 6.1 pins at Φ(n) = ω(log n).");
}
