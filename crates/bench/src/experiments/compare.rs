//! Experiment E17: end-to-end throughput and cost of every scheme at one
//! reference size.

use std::time::Instant;

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_oram::{
    LinearOram, OramKvs, PathOram, PathOramConfig, RecursiveOramConfig, RecursivePathOram,
    SquareRootOram,
};
use dps_pir::FullScanPir;
use dps_server::{CostStats, SimServer, Storage};
use dps_workloads::generators::database;

use crate::table::{f3, Table};
use crate::Verdict;

/// Runs `op` on `0..count`, returning the microseconds per call.
pub(crate) fn timed(count: usize, op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    (0..count).for_each(op);
    start.elapsed().as_secs_f64() * 1e6 / count as f64
}

/// E17 — the whole menagerie at n = 2^12 (fast: 2^10), 1 KiB blocks:
/// microseconds, blocks and round trips per operation, privacy notion,
/// client state.
pub fn run_e17(fast: bool) -> Vec<Verdict> {
    let n = if fast { 1 << 10 } else { 1 << 12 };
    let block = 1024;
    let ops = if fast { 100 } else { 300 };
    // The O(n)-per-access baselines run only a few operations.
    let few = 10.min(ops);
    let db = database(n, block);
    let mut rng = ChaChaRng::seed_from_u64(17);
    // (scheme, privacy, µs/op, server charges, operations, client state)
    let mut rows: Vec<(&str, &str, f64, CostStats, usize, String)> = Vec::new();

    let mut server = SimServer::new();
    server.init(db.clone());
    let before = server.stats();
    let us = timed(ops, |i| drop(server.read(i % n).unwrap()));
    rows.push(("plaintext", "none", us, server.stats().since(&before), ops, "0".into()));

    let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
    let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
    let before = ir.server_stats();
    let us = timed(ops, |i| drop(ir.query(i % n, &mut rng).unwrap()));
    let d = ir.server_stats().since(&before);
    rows.push(("DP-IR (alpha=0.1)", "eps = ln n, erroring", us, d, ops, "0".into()));

    let mut ram =
        DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
    let before = ram.server_stats();
    let us = timed(ops, |i| drop(ram.read(i % n, &mut rng).unwrap()));
    let client = format!("{} blocks", ram.stash_size());
    let d = ram.server_stats().since(&before);
    rows.push(("DP-RAM", "eps = O(log n), errorless", us, d, ops, client));

    let mut oram =
        PathOram::setup(PathOramConfig::recommended(n, block), &db, SimServer::new(), &mut rng);
    let before = oram.server_stats();
    let us = timed(ops, |i| drop(oram.read(i % n, &mut rng).unwrap()));
    let client = format!("{} blocks + posmap", oram.stash_size());
    rows.push(("Path ORAM", "oblivious", us, oram.server_stats().since(&before), ops, client));

    // Recursive Path ORAM (position map in ORAMs — the small-client cost).
    let mut oram =
        RecursivePathOram::setup(RecursiveOramConfig::recommended(n, block), &db, &mut rng);
    let before = oram.total_stats();
    let us = timed(ops, |i| drop(oram.read(i % n, &mut rng).unwrap()));
    let client = format!("{} posmap entries", oram.client_map_len());
    let d = oram.total_stats().since(&before);
    rows.push(("recursive Path ORAM", "oblivious, small client", us, d, ops, client));

    // Square-root ORAM (amortized Θ(√n)).
    let mut oram = SquareRootOram::setup(&db, SimServer::new(), &mut rng);
    let before = oram.server_stats();
    let us = timed(ops, |i| drop(oram.read(i % n, &mut rng).unwrap()));
    let d = oram.server_stats().since(&before);
    rows.push(("square-root ORAM", "oblivious, amortized", us, d, ops, "O(1) keys".into()));

    let mut oram = LinearOram::setup(&db, SimServer::new(), &mut rng);
    let before = oram.server_stats();
    let us = timed(few, |i| drop(oram.read(i % n, &mut rng).unwrap()));
    rows.push((
        "linear ORAM",
        "oblivious",
        us,
        oram.server_stats().since(&before),
        few,
        "0".into(),
    ));

    let mut pir = FullScanPir::setup(&db, SimServer::new());
    let before = pir.server_stats();
    let us = timed(few, |i| drop(pir.query(i % n).unwrap()));
    let d = pir.server_stats().since(&before);
    rows.push(("full-scan PIR", "oblivious, stateless", us, d, few, "0".into()));

    // DP-KVS and ORAM-KVS (smaller value size; keyed workload).
    let value = 64;
    let keys = (n / 4) as u64;
    let mut kvs =
        DpKvs::setup(DpKvsConfig::recommended(n, value), SimServer::new(), &mut rng).unwrap();
    for k in 0..keys {
        kvs.put(k, vec![0u8; value], &mut rng).unwrap();
    }
    let before = kvs.server_stats();
    let us = timed(ops, |i| drop(kvs.get(i as u64 % keys, &mut rng).unwrap()));
    let client = format!("{} cells", kvs.client_cells());
    let d = kvs.server_stats().since(&before);
    rows.push(("DP-KVS", "eps = O(log n), large universe", us, d, ops, client));

    let mut okvs = OramKvs::new(n, value, &mut rng);
    for k in 0..keys {
        okvs.put(k, vec![0u8; value], &mut rng).unwrap();
    }
    let before = okvs.server_stats();
    let us = timed(ops, |i| drop(okvs.get(i as u64 % keys, &mut rng).unwrap()));
    let d = okvs.server_stats().since(&before);
    rows.push(("ORAM-KVS", "oblivious, large universe", us, d, ops, "directory (O(n))".into()));

    let mut t = Table::new(
        format!("E17: end-to-end comparison, n = {n}, {block}-byte blocks, {ops} ops"),
        &["scheme", "privacy", "us/op", "blocks/op", "round trips/op", "client state"],
    );
    let per_op = |d: &CostStats, count: usize| {
        ((d.downloads + d.uploads) as f64 / count as f64, d.round_trips as f64 / count as f64)
    };
    for (scheme, privacy, us, d, count, client) in &rows {
        let (blocks, rts) = per_op(d, *count);
        t.row(vec![
            scheme.to_string(),
            privacy.to_string(),
            f3(*us),
            f3(blocks),
            f3(rts),
            client.clone(),
        ]);
    }
    t.print();

    let blocks = |scheme: &str| {
        let (_, _, _, d, count, _) = rows.iter().find(|r| r.0 == scheme).expect("a row");
        per_op(d, *count).0
    };
    let oblivious = [
        "Path ORAM",
        "recursive Path ORAM",
        "square-root ORAM",
        "linear ORAM",
        "full-scan PIR",
        "ORAM-KVS",
    ];
    let cheapest = oblivious.map(blocks).into_iter().fold(f64::INFINITY, f64::min);
    let scans = blocks("linear ORAM").min(blocks("full-scan PIR"));
    let dp = ["DP-IR (alpha=0.1)", "DP-RAM", "DP-KVS"].map(blocks);
    vec![
        Verdict::new(
            format!(
                "Thm 5.1 + 6.1: at n = {n}, DP-IR and DP-RAM move fewer blocks per op than every \
                 oblivious scheme (DP-KVS against ORAM-KVS is E11's verdict)"
            ),
            format!("{:.1} and {:.1} vs at least {cheapest:.1}", dp[0], dp[1]),
            dp[0] < cheapest && dp[1] < cheapest,
        ),
        Verdict::new(
            format!(
                "at n = {n} every DP scheme, DP-KVS included, moves at least 10× fewer blocks per \
                 op than full-scan PIR and linear ORAM"
            ),
            format!("at most {:.1} vs at least {scans:.1}", dp[2].max(dp[1]).max(dp[0])),
            dp.iter().all(|&b| b * 10.0 <= scans),
        ),
    ]
}
