//! Experiments E18–E22: the workspace's extensions beyond the paper's
//! headline constructions — round-trip/latency modeling, batched DP-IR,
//! the D-server oblivious baseline, active-security hardening, and the
//! choice of mapping scheme.

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dps_core::multi_server::{MultiServerDpIr, MultiServerDpIrConfig};
use dps_crypto::ChaChaRng;
use dps_oram::{RecursiveOramConfig, RecursivePathOram, SquareRootOram};
use dps_pir::MultiServerXorPir;
use dps_server::{CostStats, NetworkModel, ServerError, SimServer, Storage, Verified};
use dps_workloads::generators::database;

use crate::experiments::compare::timed;
use crate::table::{f1, f3, Table};
use crate::Verdict;

/// E18 — round trips decide wall-clock: DP-RAM's O(1) round trips vs the
/// recursion's Θ(log n) and the square-root ORAM's epoch shuffles, costed
/// under three network models. This quantifies the paper's remark that
/// recursive position maps cost "logarithmic ... client-to-server
/// roundtrips".
pub fn run_e18(fast: bool) -> Vec<Verdict> {
    let n = if fast { 1 << 10 } else { 1 << 14 };
    let block = 256;
    let ops = if fast { 64 } else { 256 };
    let db = database(n, block);
    let mut rng = ChaChaRng::seed_from_u64(18);

    let mut t = Table::new(
        format!("E18: round trips -> modeled latency, n = {n}, {block}-byte blocks, {ops} ops"),
        &["scheme", "RT/op", "blocks/op", "us/op DC", "us/op WAN", "us/op mobile"],
    );
    let models = [NetworkModel::datacenter(), NetworkModel::wan(), NetworkModel::mobile()];
    let mut push = |name: &str, stats: CostStats| {
        let us = models.map(|m| m.per_query_us(&stats, ops));
        let rts = stats.round_trips as f64 / ops as f64;
        let mut cells = vec![
            name.to_string(),
            f3(rts),
            f1((stats.downloads + stats.uploads) as f64 / ops as f64),
        ];
        cells.extend(us.iter().map(|&u| f1(u)));
        t.row(cells);
        (rts, us)
    };

    let mut ram =
        DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
    let before = ram.server_stats();
    (0..ops).for_each(|i| drop(ram.read(i % n, &mut rng).unwrap()));
    let (ram_rts, ram_us) = push("DP-RAM", ram.server_stats().since(&before));

    let mut oram =
        RecursivePathOram::setup(RecursiveOramConfig::recommended(n, block), &db, &mut rng);
    let before = oram.total_stats();
    (0..ops).for_each(|i| drop(oram.read(i % n, &mut rng).unwrap()));
    let levels = oram.levels();
    let name = format!("recursive Path ORAM ({levels} levels)");
    let (rec_rts, rec_us) = push(&name, oram.total_stats().since(&before));

    let mut oram = SquareRootOram::setup(&db, SimServer::new(), &mut rng);
    let before = oram.server_stats();
    (0..ops).for_each(|i| drop(oram.read(i % n, &mut rng).unwrap()));
    push("square-root ORAM", oram.server_stats().since(&before));
    t.print();
    let rt_ratio = rec_rts / ram_rts;
    vec![Verdict::new(
        "recursive position maps cost round trips: the recursion pays exactly 2·levels RT/op, \
         and its modeled WAN and mobile µs/op are at least DP-RAM's times the RT/op ratio",
        format!(
            "{rec_rts:.3} RT/op over {levels} levels; WAN {:.2}×, mobile {:.2}× vs RT ratio \
             {rt_ratio:.2}",
            rec_us[1] / ram_us[1],
            rec_us[2] / ram_us[2]
        ),
        rec_rts == 2.0 * levels as f64
            && rec_us[1] >= ram_us[1] * rt_ratio
            && rec_us[2] >= ram_us[2] * rt_ratio,
    )]
}

/// E19 — batched DP-IR: one round trip for the whole batch and sublinear
/// union growth, with per-query ε unchanged (the privacy is checked by the
/// `batched_ir` unit suite; here we measure the cost side).
pub fn run_e19(fast: bool) -> Vec<Verdict> {
    let n = if fast { 1 << 10 } else { 1 << 12 };
    let alpha = 0.1;
    let epsilon = (n as f64).ln() - 2.0; // K > 1 so dedup has something to merge
    let db = database(n, 64);
    let trials = if fast { 40 } else { 200 };
    let mut rng = ChaChaRng::seed_from_u64(19);

    let config = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap();
    let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
    let k = ir.config().k;

    let mut t = Table::new(
        format!(
            "E19: batched DP-IR, n = {n}, K = {k}, eps = {epsilon:.2} — union size and round trips vs batch size"
        ),
        &["m", "naive blocks (m*K)", "measured union", "predicted union", "RT (batched)", "RT (naive)"],
    );
    let mut rows = Vec::new();
    for m in [1usize, 4, 16, 64, 256] {
        let indices: Vec<usize> = (0..m).map(|j| (j * 37) % n).collect();
        let mut total_union = 0usize;
        let before = ir.server_stats();
        for _ in 0..trials {
            let (_, union) = ir.query_batch_traced(&indices, &mut rng).unwrap();
            total_union += union.len();
        }
        let diff = ir.server_stats().since(&before);
        let union = total_union as f64 / trials as f64;
        let predicted = ir.expected_union_size(m);
        let rts = diff.round_trips as f64 / trials as f64;
        t.row(vec![
            m.to_string(),
            (m * k).to_string(),
            f1(union),
            f1(predicted),
            f3(rts),
            m.to_string(),
        ]);
        rows.push((m, union, predicted, rts));
    }
    t.print();
    vec![Verdict::at_every(
        "batched DP-IR: at every batch size m the union is at most m·K and within 2 % of \
         n(1 − (1 − K/n)^m), and the whole batch is 1 round trip",
        &rows,
        |(m, u, p, rts)| format!("m {m}: {u:.1} vs {p:.1} in {rts:.3} RT"),
        |&(m, u, p, rts)| u <= (m * k) as f64 && (u - p).abs() <= 0.02 * p && rts == 1.0,
    )]
}

/// E20 — the multi-server spectrum: fully oblivious D-server XOR PIR pays
/// Θ(n) total server work at every D, while the Appendix C DP relaxation
/// pays O(K·D) — the separation Theorem C.1 prices.
pub fn run_e20(fast: bool) -> Vec<Verdict> {
    let n = if fast { 1 << 10 } else { 1 << 12 };
    let db = database(n, 64);
    let queries = if fast { 30 } else { 100 };
    let mut rng = ChaChaRng::seed_from_u64(20);
    let k = 4;

    let mut t = Table::new(
        format!("E20: D-server oblivious PIR vs multi-server DP-IR, n = {n}"),
        &["scheme", "D", "ops/query (total)", "ops/query/server", "privacy"],
    );
    // (oblivious?, D, ops per query per server)
    let mut rows = Vec::new();
    for d in [2usize, 4, 8] {
        let mut pir = MultiServerXorPir::setup(d, &db);
        let before = pir.total_stats();
        for q in 0..queries {
            pir.query(q % n, &mut rng).unwrap();
        }
        let ops = pir.total_stats().since(&before).operations() as f64 / queries as f64;
        t.row(vec![
            "XOR PIR (CGKS)".into(),
            d.to_string(),
            f1(ops),
            f1(ops / d as f64),
            format!("IT-private vs {} colluding", d - 1),
        ]);
        rows.push((true, d, ops / d as f64));
    }
    for d in [2usize, 4, 8] {
        let mut dp =
            MultiServerDpIr::setup(MultiServerDpIrConfig { n, servers: d, k, alpha: 0.1 }, &db)
                .unwrap();
        let before = dp.total_stats();
        for q in 0..queries {
            dp.query(q % n, &mut rng).unwrap();
        }
        let ops = dp.total_stats().since(&before).operations() as f64 / queries as f64;
        t.row(vec![
            "DP-IR (App. C)".into(),
            d.to_string(),
            f1(ops),
            f1(ops / d as f64),
            "eps = Theta(log n) per Thm C.1".into(),
        ]);
        rows.push((false, d, ops / d as f64));
    }
    t.print();
    let half = n as f64 / 2.0;
    vec![Verdict::at_every(
        format!(
            "Thm C.1's trade: at every D oblivious XOR PIR does n/2 ± 5 % ops per server, \
             multi-server DP-IR exactly K = {k}"
        ),
        &rows,
        |(oblivious, d, o)| format!("{} D {d}: {o:.1}", if *oblivious { "XOR" } else { "DP" }),
        |&(oblivious, _, o)| {
            if oblivious {
                (o - half).abs() <= 0.05 * half
            } else {
                o == k as f64
            }
        },
    )]
}

/// What a seeded run leaves behind: every answer, the server's charges, its
/// view, and its final cells.
type Run = (Vec<Option<Vec<u8>>>, CostStats, Vec<u8>, Vec<Vec<u8>>);

fn observe<S: Storage>(answers: Vec<Option<Vec<u8>>>, server: &mut S) -> Run {
    let (stats, view) = (server.stats(), server.take_transcript().canonical_encoding());
    let every: Vec<usize> = (0..server.capacity()).collect();
    (answers, stats, view, server.read_batch(&every).unwrap())
}

/// DP-RAM over `server` from a fixed seed: `steps` reads and writes (40 %)
/// at n = 64 with a heavy stash (p = 0.3). Returns the scheme, its run and
/// its µs per step.
fn dp_ram_run<S: Storage>(server: S, steps: usize) -> (DpRam<S>, Run, f64) {
    let n = 64;
    let mut rng = ChaChaRng::seed_from_u64(61);
    let config = DpRamConfig { n, stash_probability: 0.3 };
    let mut ram = DpRam::setup(config, &database(n, 16), server, &mut rng).unwrap();
    ram.server_mut().start_recording();
    let mut answers = Vec::new();
    let us = timed(steps, |step| {
        let i = rng.gen_index(n);
        if rng.gen_bool(0.4) {
            ram.write(i, vec![step as u8; 16], &mut rng).unwrap();
        } else {
            answers.push(Some(ram.read(i, &mut rng).unwrap()));
        }
    });
    let run = observe(answers, ram.server_mut());
    (ram, run, us)
}

/// DP-KVS over `server` from a fixed seed: `steps` puts, removes and gets
/// over 48 keys in a 64-bucket forest.
fn dp_kvs_run<S: Storage>(server: S, steps: usize) -> (Run, f64) {
    let mut rng = ChaChaRng::seed_from_u64(71);
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(64, 8), server, &mut rng).unwrap();
    kvs.server_mut().start_recording();
    let mut answers = Vec::new();
    let us = timed(steps, |step| {
        let key = rng.gen_range(48) * 7 + 1;
        match rng.gen_index(4) {
            0 | 1 => kvs.put(key, vec![step as u8; 8], &mut rng).unwrap(),
            2 => answers.push(kvs.remove(key, &mut rng).unwrap()),
            _ => answers.push(kvs.get(key, &mut rng).unwrap()),
        }
    });
    (observe(answers, kvs.server_mut()), us)
}

/// E21 — hardening is free in blocks *and* round trips: a scheme over
/// [`Verified`] storage makes the requests of the same scheme over the plain
/// store. From one seed, DP-RAM and DP-KVS give the same answers, charges,
/// transcript and final cells either way, so Theorems 6.1 and 7.1 carry
/// over unchanged; the price is client-side hashing, and Verified *detects*
/// the tampering the paper's model assumes away.
pub fn run_e21(fast: bool) -> Vec<Verdict> {
    let steps = if fast { 2_000 } else { 8_000 };
    let (_, ram_plain, ram_us) = dp_ram_run(SimServer::new(), steps);
    let (mut ram, ram_hardened, ram_hardened_us) =
        dp_ram_run(Verified::new(SimServer::new()), steps);
    // Flip a bit of every cell behind Verified's back: whatever the next
    // read downloads, it must be refused.
    let inner = ram.server_mut().inner_mut();
    for addr in 0..inner.capacity() {
        let mut cell = inner.read(addr).unwrap();
        cell[0] ^= 1;
        inner.write(addr, cell).unwrap();
    }
    let detected = matches!(
        ram.read(0, &mut ChaChaRng::seed_from_u64(21)),
        Err(DpRamError::Server(ServerError::Integrity { .. }))
    );
    let (kvs_plain, kvs_us) = dp_kvs_run(SimServer::new(), steps);
    let (kvs_hardened, kvs_hardened_us) = dp_kvs_run(Verified::new(SimServer::new()), steps);

    let mut t = Table::new(
        format!("E21: plain vs Verified storage from one seed, {steps} ops, 64 records/buckets"),
        &[
            "scheme",
            "cells/op",
            "RT/op",
            "us/op",
            "bytes/cell",
            "run = plain run",
            "detects tampering?",
        ],
    );
    let yes = |b: bool| if b { "yes" } else { "NO" };
    let (ram_same, kvs_same) = (ram_plain == ram_hardened, kvs_plain == kvs_hardened);
    let model = "no (honest-but-curious model)";
    for (scheme, run, us, same, detects) in [
        ("DP-RAM", &ram_plain, ram_us, "-", model),
        ("DP-RAM over Verified", &ram_hardened, ram_hardened_us, yes(ram_same), yes(detected)),
        ("DP-KVS", &kvs_plain, kvs_us, "-", model),
        ("DP-KVS over Verified", &kvs_hardened, kvs_hardened_us, yes(kvs_same), "not run"),
    ] {
        let s = &run.1;
        t.row(vec![
            scheme.into(),
            f3((s.downloads + s.uploads) as f64 / steps as f64),
            f3(s.round_trips as f64 / steps as f64),
            f3(us),
            (s.bytes_up / s.uploads).to_string(),
            same.into(),
            detects.into(),
        ]);
    }
    t.print();
    vec![
        Verdict::new(
            "Thm 6.1 + 7.1 hold over Verified storage: from one seed, DP-RAM and DP-KVS over \
             Verified give the plain scheme's answers, CostStats, transcript and final cells",
            format!("DP-RAM {}, DP-KVS {}", yes(ram_same), yes(kvs_same)),
            ram_same && kvs_same,
        ),
        Verdict::new(
            "beyond the model: once every cell is corrupted out of band, DP-RAM over Verified \
             refuses its next read with an Integrity error",
            format!("detected: {detected}"),
            detected,
        ),
    ]
}

/// E22 — mapping-scheme ablation: why §7.2 builds on two-choice loads
/// rather than cuckoo hashing. Cuckoo lookups touch 2 cells (vs the
/// forest's Θ(log log n) path) but cap utilization near 50%, fail outright
/// past their threshold, and leak history through eviction-chain lengths;
/// the forest packs n keys into ~2n cells with zero failures (E10's verdict
/// at the same n) and its placement is a pure function of visible path
/// loads. Both modes run at n = 2^14: the 50 % threshold is asymptotic, and
/// at n = 2^12 cuckoo still stores 1.1·n keys in 2n cells.
pub fn run_e22(fast: bool) -> Vec<Verdict> {
    use dps_hashing::{CuckooTable, ForestGeometry};

    let n = 1 << 14;
    let seeds = if fast { 5 } else { 20 };

    let mut t = Table::new(
        format!(
            "E22: two-choice forest vs cuckoo hashing as the DP-KVS mapping scheme, n = {n} keys"
        ),
        &[
            "scheme",
            "server cells / n",
            "keys stored / n",
            "lookup cells",
            "max eviction chain",
            "failures",
        ],
    );
    let geometry = ForestGeometry::recommended(n);
    t.row(vec![
        "two-choice forest".into(),
        f3(geometry.total_nodes() as f64 / n as f64),
        "see E10".into(),
        format!("{} (path)", geometry.depth()),
        "n/a (no evictions)".into(),
        "see E10".into(),
    ]);

    // Cuckoo at the same server-cell budget (~2n cells => n/table): n keys
    // is exactly the 50% load threshold; 1.1*n keys is past it. The forest
    // would absorb the same 10% overload into its shared upper levels.
    let mut past_threshold_failures = 0;
    for (label, keys) in [("cuckoo (2 tables), n keys", n), ("cuckoo, 1.1*n keys", n + n / 10)] {
        let buckets_per_table = n; // 2n cells, matching the forest's ~1.94n
        let mut rng = ChaChaRng::seed_from_u64(22);
        let mut stored = 0usize;
        let mut max_chain = 0usize;
        let mut failures = 0u32;
        for seed in 0..seeds as u64 {
            let mut cuckoo = CuckooTable::new(buckets_per_table, 32, &seed.to_le_bytes());
            for k in 0..keys as u64 {
                if cuckoo
                    .insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d), Vec::new(), &mut rng)
                    .is_err()
                {
                    failures += 1;
                    break;
                }
            }
            stored += cuckoo.len();
            max_chain = max_chain.max(cuckoo.max_eviction_chain());
        }
        t.row(vec![
            label.into(),
            "2.000".into(),
            f3(stored as f64 / (seeds as f64 * keys as f64)),
            "2 (flat)".into(),
            max_chain.to_string(),
            failures.to_string(),
        ]);
        past_threshold_failures = failures;
    }
    t.print();
    vec![Verdict::new(
        format!(
            "Sec 7.2: cuckoo hashing saturates at n = {n}: past its 50 % load threshold \
             (1.1·n keys in 2n cells) it fails in a majority of {seeds} seeds"
        ),
        format!("{past_threshold_failures} of {seeds} seeds fail"),
        2 * past_threshold_failures as usize > seeds,
    )]
}
