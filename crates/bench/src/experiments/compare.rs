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
use dps_server::{SimServer, Storage};
use dps_workloads::generators::database;

use crate::table::{f1, f3, Table};

/// E17 — the whole menagerie at n = 2^12 (fast: 2^10), 1 KiB blocks:
/// microseconds and blocks per operation, privacy notion, client state.
pub fn run_e17(fast: bool) {
    let n = if fast { 1 << 10 } else { 1 << 12 };
    let block = 1024;
    let ops = if fast { 100 } else { 300 };
    let db = database(n, block);
    let mut rng = ChaChaRng::seed_from_u64(17);

    let mut t = Table::new(
        format!("E17: end-to-end comparison, n = {n}, {block}-byte blocks, {ops} ops"),
        &["scheme", "privacy", "us/op", "blocks/op", "round trips/op", "client state"],
    );

    // Plaintext: direct reads, no privacy.
    {
        let mut server = SimServer::new();
        server.init(db.clone());
        let start = Instant::now();
        for i in 0..ops {
            server.read(i % n).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        t.row(vec![
            "plaintext".into(),
            "none".into(),
            f3(us),
            "1.0".into(),
            "1.0".into(),
            "0".into(),
        ]);
    }

    // DP-IR at ε = ln n.
    {
        let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
        let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
        let before = ir.server_stats();
        let start = Instant::now();
        for i in 0..ops {
            ir.query(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = ir.server_stats().since(&before);
        t.row(vec![
            "DP-IR (alpha=0.1)".into(),
            "eps = ln n, erroring".into(),
            f3(us),
            f3(d.downloads as f64 / ops as f64),
            f3(d.round_trips as f64 / ops as f64),
            "0".into(),
        ]);
    }

    // DP-RAM.
    {
        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        let before = ram.server_stats();
        let start = Instant::now();
        for i in 0..ops {
            ram.read(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = ram.server_stats().since(&before);
        t.row(vec![
            "DP-RAM".into(),
            "eps = O(log n), errorless".into(),
            f3(us),
            f3((d.downloads + d.uploads) as f64 / ops as f64),
            f3(d.round_trips as f64 / ops as f64),
            format!("{} blocks", ram.stash_size()),
        ]);
    }

    // Path ORAM.
    {
        let mut oram =
            PathOram::setup(PathOramConfig::recommended(n, block), &db, SimServer::new(), &mut rng);
        let before = oram.server_stats();
        let start = Instant::now();
        for i in 0..ops {
            oram.read(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = oram.server_stats().since(&before);
        t.row(vec![
            "Path ORAM".into(),
            "oblivious".into(),
            f3(us),
            f1((d.downloads + d.uploads) as f64 / ops as f64),
            format!("{}", oram.recursive_round_trips(block / 8)),
            format!("{} blocks + posmap", oram.stash_size()),
        ]);
    }

    // Recursive Path ORAM (position map in ORAMs — the small-client cost).
    {
        let mut oram =
            RecursivePathOram::setup(RecursiveOramConfig::recommended(n, block), &db, &mut rng);
        let before = oram.total_stats();
        let start = Instant::now();
        for i in 0..ops {
            oram.read(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = oram.total_stats().since(&before);
        t.row(vec![
            "recursive Path ORAM".into(),
            "oblivious, small client".into(),
            f3(us),
            f1((d.downloads + d.uploads) as f64 / ops as f64),
            format!("{}", oram.round_trips_per_access()),
            format!("{} posmap entries", oram.client_map_len()),
        ]);
    }

    // Square-root ORAM (amortized Θ(√n)).
    {
        let mut oram = SquareRootOram::setup(&db, SimServer::new(), &mut rng);
        let before = oram.server_stats();
        let start = Instant::now();
        for i in 0..ops {
            oram.read(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = oram.server_stats().since(&before);
        t.row(vec![
            "square-root ORAM".into(),
            "oblivious, amortized".into(),
            f3(us),
            f1((d.downloads + d.uploads) as f64 / ops as f64),
            f3(d.round_trips as f64 / ops as f64),
            "O(1) keys".into(),
        ]);
    }

    // Linear ORAM (only a few ops — it is O(n) per access).
    {
        let lin_ops = 10.min(ops);
        let mut oram = LinearOram::setup(&db, SimServer::new(), &mut rng);
        let before = oram.server_stats();
        let start = Instant::now();
        for i in 0..lin_ops {
            oram.read(i % n, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / lin_ops as f64;
        let d = oram.server_stats().since(&before);
        t.row(vec![
            "linear ORAM".into(),
            "oblivious".into(),
            f1(us),
            f1((d.downloads + d.uploads) as f64 / lin_ops as f64),
            "2.0".into(),
            "0".into(),
        ]);
    }

    // Full-scan PIR (few ops).
    {
        let pir_ops = 10.min(ops);
        let mut pir = FullScanPir::setup(&db, SimServer::new());
        let before = pir.server_stats();
        let start = Instant::now();
        for i in 0..pir_ops {
            pir.query(i % n).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / pir_ops as f64;
        let d = pir.server_stats().since(&before);
        t.row(vec![
            "full-scan PIR".into(),
            "oblivious, stateless".into(),
            f1(us),
            f1(d.downloads as f64 / pir_ops as f64),
            "1.0".into(),
            "0".into(),
        ]);
    }

    // DP-KVS and ORAM-KVS (smaller value size; keyed workload).
    {
        let value = 64;
        let mut kvs =
            DpKvs::setup(DpKvsConfig::recommended(n, value), SimServer::new(), &mut rng).unwrap();
        for k in 0..(n / 4) as u64 {
            kvs.put(k, vec![0u8; value], &mut rng).unwrap();
        }
        let before = kvs.server_stats();
        let start = Instant::now();
        for k in 0..ops as u64 {
            kvs.get(k % (n / 4) as u64, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = kvs.server_stats().since(&before);
        t.row(vec![
            "DP-KVS".into(),
            "eps = O(log n), large universe".into(),
            f3(us),
            f3((d.downloads + d.uploads) as f64 / ops as f64),
            f3(d.round_trips as f64 / ops as f64),
            format!("{} cells", kvs.client_cells()),
        ]);

        let mut okvs = OramKvs::new(n, value, &mut rng);
        for k in 0..(n / 4) as u64 {
            okvs.put(k, vec![0u8; value], &mut rng).unwrap();
        }
        let before = okvs.server_stats();
        let start = Instant::now();
        for k in 0..ops as u64 {
            okvs.get(k % (n / 4) as u64, &mut rng).unwrap();
        }
        let us = start.elapsed().as_micros() as f64 / ops as f64;
        let d = okvs.server_stats().since(&before);
        t.row(vec![
            "ORAM-KVS".into(),
            "oblivious, large universe".into(),
            f3(us),
            f1((d.downloads + d.uploads) as f64 / ops as f64),
            "2.0".into(),
            "directory (O(n))".into(),
        ]);
    }

    t.print();
    println!("  shape check: the DP family sits a large constant factor below the oblivious family in blocks/op, and orders of magnitude below PIR/linear ORAM — privacy bought back with eps = Θ(log n).");
}
