//! Experiments E5, E7, E8, E15 (DP-RAM overhead, lower bound, stash, ablation).

use dps_analysis::bounds;
use dps_analysis::stats;
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_oram::{PathOram, PathOramConfig};
use dps_server::{AccessEvent, SimServer, Storage};
use dps_workloads::generators::{database, uniform_ram};

use crate::table::{f1, f3, Table};
use crate::Verdict;

/// E5 — Theorem 6.1 vs Path ORAM: DP-RAM moves 3 blocks over 2 round trips
/// at every n; Path ORAM grows as Θ(log n) (and Θ(log n) round trips with a
/// recursive position map).
pub fn run_e5(fast: bool) -> Vec<Verdict> {
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
            "DP-RAM queries [D d, D o | U o]",
            "PathORAM blocks/q",
            "PathORAM RTs (recursive)",
            "win factor",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let db = database(n, block);
        let mut rng = ChaChaRng::seed_from_u64(5);
        let trace = uniform_ram(n, queries, 0.3, &mut rng);

        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        let before = ram.server_stats();
        ram.server_mut().start_recording();
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
        // Section 6.1's view of one query: a download flight of the read
        // address and the overwrite address, then one upload to the latter.
        let transcript = ram.server_mut().take_transcript();
        let batches: Vec<&[AccessEvent]> = transcript.batches().collect();
        let shaped = batches
            .chunks(2)
            .filter(|q| {
                matches!(q, [
                    [AccessEvent::Download(_), AccessEvent::Download(o)],
                    [AccessEvent::Upload(u)],
                ] if o == u)
            })
            .count();

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
            format!("{shaped}/{queries}"),
            f1(oram_blocks),
            oram_rts.to_string(),
            format!("{:.1}x", oram_blocks / ram_blocks),
        ]);
        rows.push((n, ram_blocks, ram_rts, shaped, oram_blocks));
    }
    t.print();
    vec![
        Verdict::at_every(
            "Thm 6.1: every DP-RAM query, read or write, downloads its address and the overwrite \
             address in one flight, then uploads the overwrite address: 3 blocks in 2 round \
             trips, at every n",
            &rows,
            |(_, b, r, s, _)| format!("{b:.3} blocks, {r:.3} RTs, {s}/{queries} shaped"),
            |&(_, b, r, s, _)| b == 3.0 && r == 2.0 && s == queries,
        ),
        Verdict::at_every(
            "Path ORAM moves exactly 2·(log₂ n + 1) blocks per query: Θ(log n)",
            &rows,
            |(n, .., o)| format!("{o:.1} at n = {n}"),
            |&(n, .., o)| o == 2.0 * (n.ilog2() + 1) as f64,
        ),
    ]
}

/// E7 — Theorem 3.7: the DP-RAM lower bound curve vs the construction's
/// measured bandwidth. At ε = Θ(log n) the bound collapses below the
/// construction's constant 3 blocks/query, certifying optimality.
pub fn run_e7(_fast: bool) -> Vec<Verdict> {
    let n = 1 << 14;
    let alpha = 0.0;
    let mut t = Table::new(
        "E7 (Thm 3.7): DP-RAM lower bound log_c((1-alpha)n/e^eps) vs measured 3 blocks/q (n = 2^14)",
        &["epsilon", "c = 2", "c = 4", "c = 16", "construction blocks/q"],
    );
    let ln_n = (n as f64).ln();
    let mut rows = Vec::new();
    for epsilon in [0.0, 1.0, ln_n / 2.0, ln_n, 2.0 * ln_n] {
        let bound = [2, 4, 16].map(|c| bounds::thm_3_7_ram_ops(n, epsilon, alpha, c));
        t.row(vec![f3(epsilon), f3(bound[0]), f3(bound[1]), f3(bound[2]), "3.000".into()]);
        rows.push((epsilon, bound));
    }
    t.print();
    let eps_needed = bounds::thm_3_7_epsilon_for_constant_overhead(n, alpha, 2, 3.0);
    let show = |(e, b): &(f64, [f64; 3])| format!("ε {e:.2}: {:.3}/{:.3}/{:.3}", b[0], b[1], b[2]);
    let constant: Vec<_> = rows.iter().copied().filter(|r| r.0 <= 1.0).collect();
    let logarithmic: Vec<_> = rows.iter().copied().filter(|r| r.0 >= ln_n).collect();
    vec![
        Verdict::at_every(
            "Thm 3.7: at constant ε ∈ {0, 1} the bound exceeds the construction's 3 blocks/q \
             for c = 2, 4 and 16: constant overhead is impossible",
            &constant,
            show,
            |(_, b)| b.iter().all(|&b| b > 3.0),
        ),
        Verdict::at_every(
            "Thm 3.7: at ε ≥ ln n the bound is at most 3 for c = 2, 4 and 16",
            &logarithmic,
            show,
            |(_, b)| b.iter().all(|&b| b <= 3.0),
        ),
        Verdict::new(
            "Thm 3.7: the ε where the c = 2 bound reaches 3 lies in (ln n / 2, ln n]: constant \
             overhead needs ε = Θ(log n)",
            format!("ε = {eps_needed:.2}, ln n = {ln_n:.2}"),
            eps_needed > ln_n / 2.0 && eps_needed <= ln_n,
        ),
    ]
}

/// E8 — Lemma D.1: max-over-time stash occupancy concentrates at O(Φ(n)).
pub fn run_e8(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] =
        if fast { &[1 << 10, 1 << 12] } else { &[1 << 10, 1 << 12, 1 << 14, 1 << 16] };
    let seeds = if fast { 10 } else { 30 };
    let queries = if fast { 2_000 } else { 10_000 };
    let mut t = Table::new(
        "E8 (Lemma D.1): client stash stays O(Phi(n)) whp (Phi = log2(n)^2)",
        &["n", "Phi(n) = p*n", "mean max-stash", "p99 max-stash", "worst seed"],
    );
    let mut rows = Vec::new();
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
        let worst = maxes.iter().copied().fold(0.0, f64::max);
        t.row(vec![
            n.to_string(),
            f1(config.expected_stash()),
            f1(stats::mean(&maxes)),
            f1(stats::quantile(&maxes, 0.99)),
            f1(worst),
        ]);
        rows.push((config.expected_stash(), worst));
    }
    t.print();
    vec![Verdict::at_every(
        format!("Lemma D.1: over {seeds} seeds the worst max-stash stays ≤ 2·Φ(n) at every n"),
        &rows,
        |(phi, w)| format!("{w:.0} vs Φ {phi:.0}"),
        |&(phi, w)| w <= 2.0 * phi,
    )]
}

/// E15 — ablation: the stash-probability dial. Larger p means more client
/// storage and more decoy traffic (better privacy), same bandwidth.
pub fn run_e15(fast: bool) -> Vec<Verdict> {
    let n = 1 << 12;
    let queries = if fast { 2_000 } else { 8_000 };
    let db = database(n, 16);
    let mut t = Table::new(
        "E15 (ablation): stash probability p vs client storage and decoy rate (n = 4096)",
        &["p*n (Phi)", "mean stash", "max stash", "decoy download rate", "analytic eps bound"],
    );
    let mut rows = Vec::new();
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
        let rate = f64::from(decoys) / queries as f64;
        let eps = config.epsilon_upper_bound();
        t.row(vec![f1(phi), f1(stash_acc.mean()), f1(stash_acc.max()), f3(rate), f1(eps)]);
        rows.push((phi, p, stash_acc.mean(), rate, eps));
    }
    t.print();
    let se = |p: f64| (p * (1.0 - p) / queries as f64).sqrt();
    vec![
        Verdict::at_every(
            "Thm 6.1 dial: the decoy download rate is p ± 4 binomial standard errors, and the \
             mean stash Φ = p·n ± 4·√Φ, at every p",
            &rows,
            |(phi, p, m, r, _)| format!("Φ {phi}: rate {r:.4} vs {p:.4}, stash {m:.1}"),
            |&(phi, p, m, r, _)| {
                (r - p).abs() <= 4.0 * se(p) && (m - phi).abs() <= 4.0 * phi.sqrt()
            },
        ),
        Verdict::at_every(
            "Thm 6.1 dial: the analytic ε bound falls as p grows",
            &rows.windows(2).collect::<Vec<_>>(),
            |w| format!("{:.1} > {:.1}", w[0].4, w[1].4),
            |w| w[1].4 < w[0].4,
        ),
    ]
}
