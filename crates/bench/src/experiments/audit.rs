//! Experiments E6, E12, E14: Monte-Carlo privacy audits of the stateful
//! schemes on worst-case adjacent sequences.

use dps_analysis::composition::{basic, PrivacyBudget};
use dps_analysis::{audit_views, AuditReport, Interval};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_core::dp_ram_ro::DpRamReadOnly;
use dps_crypto::ChaChaRng;
use dps_server::SimServer;
use dps_workloads::adjacency::{ram_op_pair, ram_read_pair};
use dps_workloads::{Op, RamQuery};

use crate::table::{ci, f3, Table};
use crate::Verdict;

/// ε̂'s 95 % confidence interval, Bonferroni-corrected over the views: ε̂
/// is the worst log-ratio over every view, so the plain 95 % interval of
/// the view that attains it covers less often than 95 %.
pub(crate) fn epsilon_interval(report: &AuditReport) -> Option<Interval> {
    let (s1, s2) = report.support_sizes();
    report.epsilon_hat_interval(1.0 - 0.05 / s1.max(s2).max(1) as f64)
}

/// The columns of an audit of adjacent pairs against one `bound` column.
const PAIR_COLUMNS: [&str; 6] = [
    "pair",
    "epsilon-hat",
    "eps-hat CI (95 %, all views)",
    "delta-hat @ eps-hat",
    "views Q1/Q2",
    "bound",
];

/// Adds one audited pair to `t` and returns the upper end of its ε̂
/// interval.
fn pair_row(t: &mut Table, pair: &str, report: &AuditReport, bound: f64) -> Option<f64> {
    let (s1, s2) = report.support_sizes();
    let interval = epsilon_interval(report);
    t.row(vec![
        pair.into(),
        f3(report.epsilon_hat()),
        ci(interval),
        format!("{:.2e}", report.delta_at(report.epsilon_hat())),
        format!("{s1}/{s2}"),
        f3(bound),
    ]);
    interval.map(|i| i.hi)
}

/// Encodes a sequence of `(download, overwrite)` pairs as a view.
fn encode_ram_views(traces: &[(usize, usize)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(traces.len() * 8);
    for &(d, o) in traces {
        out.extend_from_slice(&(d as u32).to_le_bytes());
        out.extend_from_slice(&(o as u32).to_le_bytes());
    }
    out
}

/// Runs a fresh DP-RAM on `queries` and returns the adversary's view.
fn ram_view(n: usize, p: f64, queries: &[RamQuery], seed: u64) -> Vec<u8> {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let db: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
    let mut ram =
        DpRam::setup(DpRamConfig { n, stash_probability: p }, &db, SimServer::new(), &mut rng)
            .unwrap();
    let mut traces = Vec::with_capacity(queries.len());
    for q in queries {
        let new_value = (q.op == Op::Write).then(|| vec![0xAA; 4]);
        let (_, t) = ram.query_traced(q.index, q.op, new_value, &mut rng).unwrap();
        traces.push((t.download, t.overwrite));
    }
    encode_ram_views(&traces)
}

/// E6 — Theorem 6.1: empirical `(ε̂, δ̂)` of DP-RAM on worst-case adjacent
/// sequences (small n so the view space is resolvable).
pub fn run_e6(fast: bool) -> Vec<Verdict> {
    let n = 4;
    let p = 0.5;
    let trials = if fast { 60_000 } else { 400_000 };
    let mut t = Table::new(
        "E6 (Thm 6.1): DP-RAM empirical privacy, n = 4, p = 0.5, adjacent length-2 sequences",
        &PAIR_COLUMNS,
    );
    let bound = DpRamConfig { n, stash_probability: p }.epsilon_upper_bound();

    // Read-vs-read pair: Q1 = [a, a], Q2 = [a, b at k=1].
    let pair = ram_read_pair(2, 1, 0, 1);
    let report = audit_views(
        trials,
        40,
        |trial| ram_view(n, p, &pair.q1, 2 * trial as u64),
        |trial| ram_view(n, p, &pair.q2, 2 * trial as u64 + 1),
    );
    let read_hi = pair_row(&mut t, "read a/read b", &report, bound);
    // Op-flip pair: read vs write at the same index.
    let pair = ram_op_pair(2, 0, 0);
    let report = audit_views(
        trials,
        40,
        |trial| ram_view(n, p, &pair.q1, 900_000_000 + 2 * trial as u64),
        |trial| ram_view(n, p, &pair.q2, 900_000_001 + 2 * trial as u64),
    );
    let op_hi = pair_row(&mut t, "read a/write a", &report, bound);
    t.print();
    vec![Verdict::at_every(
        format!(
            "Thm 6.1: for the read pair and the op-flip pair, the upper end of ε̂'s 95 % CI over \
             all views is at most the analytic bound {bound:.3}"
        ),
        &[read_hi, op_hi],
        |hi| hi.map_or("unresolved".into(), f3),
        |hi| hi.is_some_and(|hi| hi <= bound),
    )]
}

/// E12 — Theorem 7.1: DP-KVS empirical privacy on adjacent key sequences,
/// including the hit-vs-miss pair (the adversary must not learn whether a
/// lookup hit).
pub fn run_e12(fast: bool) -> Vec<Verdict> {
    let trials = if fast { 30_000 } else { 150_000 };
    // Tiny geometry: 2 buckets in one tree so bucket ids are resolvable.
    let config = DpKvsConfig {
        geometry: dps_hashing::ForestGeometry {
            n_buckets: 2,
            leaves_per_tree: 2,
            node_capacity: 2,
            super_root_capacity: 8,
        },
        value_size: 4,
        stash_probability: 0.5,
    };
    // Theorem 7.1's arithmetic: an op is 4 bucket queries of a DP-RAM over
    // the bucket repertoire, composed.
    let per_query =
        DpRamConfig { n: config.geometry.n_buckets, stash_probability: config.stash_probability }
            .epsilon_upper_bound();
    let budget = basic(PrivacyBudget::pure(per_query), 4).epsilon;

    let kvs_view = |key: u64, seed: u64| -> Vec<u8> {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut kvs = DpKvs::setup(config.clone(), SimServer::new(), &mut rng).unwrap();
        kvs.put(1, vec![0u8; 4], &mut rng).unwrap();
        let (_, t) = kvs.get_traced(key, &mut rng).unwrap();
        vec![
            t.retrieve_a.download as u8,
            t.retrieve_a.overwrite as u8,
            t.retrieve_b.download as u8,
            t.retrieve_b.overwrite as u8,
            t.update_a.download as u8,
            t.update_a.overwrite as u8,
            t.update_b.download as u8,
            t.update_b.overwrite as u8,
        ]
    };

    let mut t = Table::new(
        "E12 (Thm 7.1): DP-KVS empirical privacy, 2-bucket forest, single get",
        &PAIR_COLUMNS,
    );
    // Present key vs absent key (hit vs miss).
    let report = audit_views(
        trials,
        30,
        |trial| kvs_view(1, 2 * trial as u64),
        |trial| kvs_view(0xdead_beef, 2 * trial as u64 + 1),
    );
    let hit_miss_hi = pair_row(&mut t, "get(present)/get(absent)", &report, budget);
    // Two different keys.
    let report = audit_views(
        trials,
        30,
        |trial| kvs_view(7, 5_000_000_000 + 2 * trial as u64),
        |trial| kvs_view(9, 5_000_000_001 + 2 * trial as u64),
    );
    let keys_hi = pair_row(&mut t, "get(k1)/get(k2)", &report, budget);
    t.print();
    vec![Verdict::at_every(
        format!(
            "Thm 7.1: for the hit-vs-miss pair and the two-key pair, the upper end of ε̂'s 95 % \
             CI over all views is at most the composed budget 4·ε(bucket DP-RAM) = {budget:.3}"
        ),
        &[hit_miss_hi, keys_hi],
        |hi| hi.map_or("unresolved".into(), f3),
        |hi| hi.is_some_and(|hi| hi <= budget),
    )]
}

/// E14 — Section 6 discussion: the retrieval-only DP-RAM needs no
/// encryption; its view distribution is the static-stash mechanism whose ε
/// we can compute exactly, and the audit confirms it on plaintext data.
pub fn run_e14(fast: bool) -> Vec<Verdict> {
    let n = 8;
    let p = 0.5;
    let trials = if fast { 60_000 } else { 300_000 };
    let db: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
    let view = |index: usize, seed: u64| -> Vec<u8> {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut ram = DpRamReadOnly::setup(&db, p, SimServer::new(), &mut rng);
        let (_, addr) = ram.query_traced(index, &mut rng).unwrap();
        vec![addr as u8]
    };
    let report = audit_views(
        trials,
        40,
        |trial| view(2, 2 * trial as u64),
        |trial| view(5, 2 * trial as u64 + 1),
    );
    let mut rng = ChaChaRng::seed_from_u64(0);
    let mut ram = DpRamReadOnly::setup(&db, p, SimServer::new(), &mut rng);
    let analytic = ram.epsilon();
    for i in 0..n {
        ram.read(i, &mut rng).unwrap();
    }
    let uploads = ram.server_stats().uploads;
    let mut t = Table::new(
        "E14 (Sec 6): retrieval-only DP-RAM, plaintext data, no encryption (n = 8, p = 0.5)",
        &[
            "analytic epsilon",
            "epsilon-hat",
            "eps-hat CI (95 %, all views)",
            "delta-hat @ analytic eps",
            "uploads over n reads",
        ],
    );
    let interval = epsilon_interval(&report);
    t.row(vec![
        f3(analytic),
        f3(report.epsilon_hat()),
        ci(interval),
        format!("{:.2e}", report.delta_at(analytic)),
        uploads.to_string(),
    ]);
    t.print();
    vec![Verdict::new(
        format!(
            "Sec 6: the closed-form ε = {analytic:.3} of the static-stash mechanism lies inside \
             ε̂'s 95 % CI over all views, and the scheme uploads nothing: no encryption needed"
        ),
        format!("CI {}, {uploads} uploads", ci(interval)),
        interval.is_some_and(|i| i.lo <= analytic && analytic <= i.hi) && uploads == 0,
    )]
}
