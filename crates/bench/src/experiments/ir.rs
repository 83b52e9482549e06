//! Experiments E1–E4 (DP-IR bounds and construction) and E13 (multi-server).

use dps_analysis::bounds;
use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::multi_server::{MultiServerDpIr, MultiServerDpIrConfig};
use dps_core::strawman::InsecureStrawmanIr;
use dps_crypto::ChaChaRng;
use dps_pir::{FullScanPir, XorPir};
use dps_server::SimServer;
use dps_workloads::generators::database;

use crate::experiments::audit::epsilon_interval;
use crate::table::{ci, f1, f3, Table};
use crate::Verdict;

/// E1 — Theorem 3.3: errorless schemes touch ≥ (1−δ)·n records. We measure
/// the errorless baselines (full-scan PIR, 2-server XOR PIR) and verify
/// they sit at the bound; no errorless scheme in this workspace beats it.
pub fn run_e1(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] = if fast { &[1 << 10, 1 << 12] } else { &[1 << 10, 1 << 12, 1 << 14] };
    let mut t = Table::new(
        "E1 (Thm 3.3): errorless retrieval touches >= (1-delta)*n records",
        &["n", "bound (delta=0)", "full-scan PIR ops/q", "2-server XOR PIR ops/q"],
    );
    let queries = 20;
    let mut rows = Vec::new();
    for &n in sizes {
        let db = database(n, 64);
        let mut rng = ChaChaRng::seed_from_u64(1);

        let mut scan = FullScanPir::setup(&db, SimServer::new());
        for q in 0..queries {
            scan.query(q % n).unwrap();
        }
        let scan_ops = scan.server_stats().operations() as f64 / queries as f64;

        let mut xor = XorPir::setup(&db);
        for q in 0..queries {
            xor.query(q % n, &mut rng).unwrap();
        }
        let xor_ops = xor.total_stats().operations() as f64 / queries as f64;

        let bound = bounds::thm_3_3_errorless_ir_ops(n, 0.0);
        t.row(vec![n.to_string(), f1(bound), f1(scan_ops), f1(xor_ops)]);
        rows.push((bound, scan_ops, xor_ops));
    }
    t.print();
    vec![Verdict::at_every(
        "Thm 3.3: per query, full-scan PIR touches exactly the δ = 0 bound n and 2-server \
         XOR PIR n ± 5 % in total, at every n",
        &rows,
        |(b, s, x)| format!("{s:.1}/{x:.1} of {b:.0}"),
        |&(b, s, x)| s == b && (x - b).abs() <= 0.05 * b,
    )]
}

/// E2 — Theorem 3.4 vs Theorem 5.1: the construction's download count K
/// tracks the lower bound within a constant for every ε; at ε = ln n it is
/// O(1).
pub fn run_e2(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] = if fast {
        &[1 << 10, 1 << 14, 1 << 18]
    } else {
        &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    };
    let alpha = 0.1;
    let mut t = Table::new(
        "E2 (Thm 3.4 + 5.1): DP-IR downloads vs lower bound (alpha = 0.1)",
        &["n", "epsilon", "lower bound", "construction K", "Thm 5.1 K", "ratio"],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let ln_n = (n as f64).ln();
        for epsilon in [2.0, ln_n / 2.0, ln_n] {
            let lb = bounds::thm_3_4_ir_ops(n, epsilon, alpha, 0.0);
            let k = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap().k;
            let formula = bounds::thm_5_1_download_count(n, epsilon, alpha);
            let ratio = if lb > 0.0 { k as f64 / lb } else { f64::NAN };
            let (k_s, formula_s) = (k.to_string(), formula.to_string());
            t.row(vec![n.to_string(), f3(epsilon), f1(lb), k_s, formula_s, f3(ratio)]);
            rows.push((lb, k as f64, formula as f64));
        }
    }
    t.print();
    vec![
        Verdict::at_every(
            "Thm 3.4 + 5.1: the construction's K lies in [bound/2, 4·max(bound, 1)] at every \
             (n, ε)",
            &rows,
            |(lb, k, _)| format!("{k}/{lb:.1}"),
            |&(lb, k, _)| k <= 4.0 * lb.max(1.0) && k >= lb / 2.0,
        ),
        Verdict::at_every(
            "Thm 5.1: DpIrConfig's K equals bounds::thm_5_1_download_count at every row",
            &rows,
            |(_, k, formula)| format!("{k}/{formula}"),
            |&(_, k, formula)| k == formula,
        ),
    ]
}

/// E3 — Theorem 5.1 headline: at ε = Θ(log n) the construction moves O(1)
/// blocks regardless of n, plus an empirical (ε̂, δ̂) audit at small n.
pub fn run_e3(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] =
        if fast { &[1 << 10, 1 << 14] } else { &[1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18] };
    let alpha = 0.1;
    let mut t = Table::new(
        "E3 (Thm 5.1): constant overhead at epsilon = ln(n) (alpha = 0.1)",
        &["n", "epsilon = ln n", "K (blocks/query)", "measured blocks/query", "errorless bound"],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let epsilon = (n as f64).ln();
        let config = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap();
        let db = database(n, 64);
        let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
        let mut rng = ChaChaRng::seed_from_u64(3);
        let queries = 200;
        let before = ir.server_stats();
        for q in 0..queries {
            ir.query(q % n, &mut rng).unwrap();
        }
        let per_query = ir.server_stats().since(&before).downloads as f64 / queries as f64;
        let errorless = bounds::thm_3_3_errorless_ir_ops(n, 0.0);
        t.row(vec![n.to_string(), f3(epsilon), config.k.to_string(), f3(per_query), f1(errorless)]);
        rows.push((config.k as f64, per_query, errorless));
    }
    t.print();

    // Empirical privacy audit at small n: adjacent single-query sequences.
    let n = 16;
    let alpha = 0.25;
    let config = DpIrConfig::with_epsilon(n, 2.0, alpha).unwrap();
    let trials = if fast { 40_000 } else { 400_000 };
    let view = |query: usize, seed_base: u64| {
        move |trial: usize| {
            let mut rng = ChaChaRng::seed_from_u64(seed_base + trial as u64);
            let db = database(n, 8);
            let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
            let (_, set) = ir.query_traced(query, &mut rng).unwrap();
            set.into_iter().flat_map(|x| (x as u32).to_le_bytes()).collect()
        }
    };
    let report = dps_analysis::audit_views(trials, 40, view(3, 10), view(7, 20_000_000));
    let mut t = Table::new(
        "E3b: DP-IR empirical privacy (n = 16, alpha = 0.25)",
        &[
            "analytic epsilon",
            "empirical epsilon-hat",
            "eps-hat CI (95 %, all views)",
            "delta-hat at analytic eps",
            "views (Q1/Q2)",
        ],
    );
    let epsilon = config.epsilon();
    let interval = epsilon_interval(&report);
    let delta = report.delta_at(epsilon);
    let (s1, s2) = report.support_sizes();
    t.row(vec![
        f3(epsilon),
        f3(report.epsilon_hat()),
        ci(interval),
        format!("{delta:.2e}"),
        format!("{s1}/{s2}"),
    ]);
    t.print();

    vec![
        Verdict::at_every(
            "Thm 5.1: at ε = ln n, K ≤ 2 and exactly K blocks are downloaded per query, at every n",
            &rows,
            |(k, m, _)| format!("K {k}, {m:.3}"),
            |&(k, m, _)| k <= 2.0 && m == k,
        ),
        Verdict::at_every(
            "Thm 5.1 vs 3.3: at ε = ln n DP-IR moves ≥ 100× fewer blocks per query than the \
             errorless bound n, at every n",
            &rows,
            |(_, m, e)| format!("{m:.3} vs {e:.0}"),
            |&(_, m, e)| m * 100.0 <= e,
        ),
        Verdict::new(
            format!(
                "Thm 5.1 audit (n = 16, α = 0.25): ε = {epsilon:.3} is at or above the lower end \
                 of ε̂'s 95 % CI over all views, and δ̂ at ε is under 0.04, the sampling-noise \
                 slack of tests/privacy_audits.rs"
            ),
            format!("ε̂ {:.3}, CI {}, δ̂(ε) = {delta:.2e}", report.epsilon_hat(), ci(interval)),
            interval.is_some_and(|i| i.lo <= epsilon) && delta < 0.04,
        ),
    ]
}

/// E4 — Section 4: the strawman's δ approaches (n−1)/n. The distinguishing
/// event is "queried-record absent from the download set".
pub fn run_e4(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] = if fast { &[8, 64, 512] } else { &[8, 64, 512, 4096] };
    let trials = if fast { 20_000 } else { 100_000 };
    let mut t = Table::new(
        "E4 (Sec 4): the strawman is insecure — delta >= (n-1)/n",
        &["n", "Pr[B_i absent | query i]", "Pr[B_i absent | query j]", "delta lower bound (n-1)/n"],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let db = database(n, 8);
        let mut ir = InsecureStrawmanIr::setup(&db, SimServer::new());
        let mut rng = ChaChaRng::seed_from_u64(4);
        let absent_i = (0..trials)
            .filter(|_| !ir.query_traced(0, &mut rng).unwrap().1.contains(&0))
            .count();
        let absent_j = (0..trials)
            .filter(|_| !ir.query_traced(1, &mut rng).unwrap().1.contains(&0))
            .count();
        let (pi, pj) = (absent_i as f64 / trials as f64, absent_j as f64 / trials as f64);
        let bound = bounds::strawman_delta(n);
        t.row(vec![n.to_string(), f3(pi), f3(pj), f3(bound)]);
        rows.push((pi, pj, bound));
    }
    t.print();
    let se = |p: f64| (p * (1.0 - p) / trials as f64).sqrt();
    vec![Verdict::at_every(
        "Sec 4: δ ≥ (n−1)/n: the strawman's record is never absent under its own query, and \
         absent under another's with probability (n−1)/n ± 4 binomial standard errors",
        &rows,
        |(pi, pj, b)| format!("{pi:.3}/{pj:.4} vs {b:.4}"),
        |&(pi, pj, b)| pi == 0.0 && (pj - b).abs() <= 4.0 * se(b),
    )]
}

/// E13 — Theorem C.1: multi-server DP-IR cost vs the corruption-fraction
/// bound.
pub fn run_e13(fast: bool) -> Vec<Verdict> {
    let n = 1 << 12;
    let d = 4;
    let alpha = 0.1;
    let queries = if fast { 50 } else { 200 };
    let db = database(n, 64);
    let mut t = Table::new(
        "E13 (Thm C.1): multi-server DP-IR, D = 4, n = 4096, alpha = 0.1",
        &["corrupted t", "epsilon vs t-adversary", "bound ops/query", "measured total ops/query"],
    );
    let mut rows = Vec::new();
    for corrupted in [1usize, 2, 3] {
        let t_frac = corrupted as f64 / d as f64;
        // Budget the scheme for the strongest adversary it must resist.
        let k = 4;
        let config = MultiServerDpIrConfig { n, servers: d, k, alpha };
        let eps = config.epsilon_against(corrupted);
        let bound = bounds::thm_c1_multi_server_ops(n, eps, alpha, 0.0, t_frac);
        let mut ir = MultiServerDpIr::setup(config, &db).unwrap();
        let mut rng = ChaChaRng::seed_from_u64(13);
        let before = ir.total_stats();
        for q in 0..queries {
            ir.query(q % n, &mut rng).unwrap();
        }
        let measured = ir.total_stats().since(&before).operations() as f64 / queries as f64;
        t.row(vec![format!("{corrupted}/{d}"), f3(eps), f1(bound), f1(measured)]);
        rows.push((eps, bound, measured));
    }
    t.print();
    vec![
        Verdict::at_every(
            "Thm C.1: the measured total ops/query sit at or above the bound at every t",
            &rows,
            |(_, b, m)| format!("{m:.1} vs {b:.1}"),
            |&(_, b, m)| m >= b,
        ),
        Verdict::at_every(
            "Thm C.1: at the same cost, ε against a t-adversary grows with t",
            &rows.windows(2).collect::<Vec<_>>(),
            |w| format!("{:.3} < {:.3}", w[0].0, w[1].0),
            |w| w[0].0 < w[1].0,
        ),
    ]
}
