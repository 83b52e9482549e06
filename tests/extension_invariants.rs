//! Integration invariants for the extension modules: batched DP-IR,
//! square-root / recursive ORAM, composition accounting, and the latency
//! model — checked across crate boundaries.

use dp_storage::analysis::composition::{basic, PrivacyBudget};
use dp_storage::core::batched_ir::BatchedDpIr;
use dp_storage::core::dp_ir::{DpIr, DpIrConfig};
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::oram::{
    PathOram, PathOramConfig, RecursiveOramConfig, RecursivePathOram, SquareRootOram,
};
use dp_storage::server::{NetworkModel, SimServer};
use dp_storage::workloads::generators::database;

/// Batched DP-IR must agree record-for-record with single-query DP-IR: the
/// batch is a packaging of Algorithm 1, not a different scheme.
#[test]
fn batched_ir_matches_single_query_semantics() {
    let n = 128;
    let db = database(n, 16);
    let config = DpIrConfig::with_epsilon(n, 4.0, 0.1).unwrap();
    let mut single = DpIr::setup(config, &db, SimServer::new()).unwrap();
    let mut batched = BatchedDpIr::setup(config, &db, SimServer::new()).unwrap();
    let mut rng = ChaChaRng::seed_from_u64(1);

    for round in 0..30 {
        let indices: Vec<usize> = (0..8).map(|j| (round * 8 + j) % n).collect();
        let batch_results = batched.query_batch(&indices, &mut rng).unwrap();
        for (j, result) in batch_results.iter().enumerate() {
            if let Some(record) = result {
                assert_eq!(*record, db[indices[j]], "round {round} slot {j}");
            }
            // Cross-check the same index through the single-query API.
            if let Some(record) = single.query(indices[j], &mut rng).unwrap() {
                assert_eq!(record, db[indices[j]]);
            }
        }
    }
}

/// All three ORAM variants return identical data under the same logical
/// workload — the baselines disagree only in cost, never in semantics.
#[test]
fn oram_variants_agree_on_contents() {
    let n = 80;
    let db = database(n, 16);
    let mut rng = ChaChaRng::seed_from_u64(2);
    let mut path =
        PathOram::setup(PathOramConfig::recommended(n, 16), &db, SimServer::new(), &mut rng);
    let mut recursive = RecursivePathOram::setup(
        RecursiveOramConfig { n, block_size: 16, bucket_size: 4, pack: 8, client_map_limit: 8 },
        &db,
        &mut rng,
    );
    let mut sqrt = SquareRootOram::setup(&db, SimServer::new(), &mut rng);
    let mut reference = db.clone();

    for step in 0u32..200 {
        let i = rng.gen_index(n);
        if rng.gen_bool(0.4) {
            let v = vec![(step % 256) as u8; 16];
            path.write(i, v.clone(), &mut rng).unwrap();
            recursive.write(i, v.clone(), &mut rng).unwrap();
            sqrt.write(i, v.clone(), &mut rng).unwrap();
            reference[i] = v;
        } else {
            assert_eq!(path.read(i, &mut rng).unwrap(), reference[i], "path, step {step}");
            assert_eq!(
                recursive.read(i, &mut rng).unwrap(),
                reference[i],
                "recursive, step {step}"
            );
            assert_eq!(sqrt.read(i, &mut rng).unwrap(), reference[i], "sqrt, step {step}");
        }
    }
}

/// The round-trip hierarchy the paper's comparison rests on:
/// DP-RAM-style O(1) < client-posmap Path ORAM (2) < recursive Path ORAM
/// (2·levels), measured, not assumed.
#[test]
fn round_trip_hierarchy_is_measured() {
    let n = 1 << 10;
    let db = database(n, 32);
    let mut rng = ChaChaRng::seed_from_u64(3);

    let mut path =
        PathOram::setup(PathOramConfig::recommended(n, 32), &db, SimServer::new(), &mut rng);
    let mut recursive = RecursivePathOram::setup(
        RecursiveOramConfig { n, block_size: 32, bucket_size: 4, pack: 8, client_map_limit: 8 },
        &db,
        &mut rng,
    );

    let before = path.server_stats();
    path.read(0, &mut rng).unwrap();
    let path_rt = path.server_stats().since(&before).round_trips;

    let before = recursive.total_stats();
    recursive.read(0, &mut rng).unwrap();
    let rec_rt = recursive.total_stats().since(&before).round_trips;

    assert_eq!(path_rt, 2);
    assert_eq!(rec_rt, recursive.round_trips_per_access() as u64);
    assert!(rec_rt >= 2 * 3, "1024 blocks at pack 8 needs >= 3 levels");

    // And the latency model orders them accordingly on a WAN.
    let wan = NetworkModel::wan();
    let path_us = wan
        .estimate_us(&dp_storage::server::CostStats { round_trips: path_rt, ..Default::default() });
    let rec_us = wan
        .estimate_us(&dp_storage::server::CostStats { round_trips: rec_rt, ..Default::default() });
    assert!(rec_us > path_us);
}

/// Theorem 7.1's composition arithmetic, cross-checked against the live
/// DP-KVS: a KVS op issues 4 bucket queries, so its budget is exactly
/// `basic(per_query, 4)` — and the underlying bucket repertoire size is
/// what the per-query ε is logarithmic in.
#[test]
fn kvs_budget_composes_from_bucket_queries() {
    let n = 256;
    let mut rng = ChaChaRng::seed_from_u64(4);
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(n, 8), SimServer::new(), &mut rng).unwrap();

    // The four bucket queries of an op share one flight: one download
    // request, one upload request.
    kvs.put(1, vec![0u8; 8], &mut rng).unwrap();
    let before = kvs.server_stats();
    kvs.get(1, &mut rng).unwrap();
    let rt = kvs.server_stats().since(&before).round_trips;
    assert_eq!(rt, 2, "4 bucket queries in one flight");

    let per_bucket_query = PrivacyBudget::pure((n as f64).ln());
    let per_op = basic(per_bucket_query, 4);
    assert!((per_op.epsilon - 4.0 * (n as f64).ln()).abs() < 1e-12);
    assert_eq!(per_op.delta, 0.0);
}

/// Square-root ORAM's amortized cost formula is honest: measured blocks
/// per query over whole epochs match `amortized_blocks_per_query`.
#[test]
fn square_root_amortization_formula_is_exact_over_epochs() {
    let n = 144; // s = 12
    let db = database(n, 16);
    let mut rng = ChaChaRng::seed_from_u64(5);
    let mut oram = SquareRootOram::setup(&db, SimServer::new(), &mut rng);
    let s = oram.shelter_size();
    let queries = 4 * s; // exactly 4 epochs
    let before = oram.server_stats();
    for q in 0..queries {
        oram.read(q % n, &mut rng).unwrap();
    }
    let diff = oram.server_stats().since(&before);
    let measured = (diff.downloads + diff.uploads) as f64 / queries as f64;
    let predicted = oram.amortized_blocks_per_query();
    // Shelter scans grow 0..s-1 within an epoch (avg (s-1)/2 + 2 per query
    // vs the formula's worst-case s + 2), so measured <= predicted and
    // within the scan-averaging slack of s/2 + 1.
    assert!(measured <= predicted, "{measured} > {predicted}");
    assert!(predicted - measured <= s as f64 / 2.0 + 1.5, "{measured} too far below {predicted}");
}
