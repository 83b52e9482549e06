//! Integration invariants for the extension modules: square-root /
//! recursive ORAM — checked across crate boundaries.

use dp_storage::crypto::ChaChaRng;
use dp_storage::oram::{
    PathOram, PathOramConfig, RecursiveOramConfig, RecursivePathOram, SquareRootOram,
};
use dp_storage::server::SimServer;
use dp_storage::workloads::generators::database;

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
