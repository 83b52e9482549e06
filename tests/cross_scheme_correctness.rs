//! Cross-crate integration: every storage scheme in the workspace must
//! agree with a plain in-memory reference under one shared random workload.

use dp_storage::core::dp_ir::{DpIr, DpIrConfig};
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::core::dp_ram_ro::DpRamReadOnly;
use dp_storage::core::multi_server::{MultiServerDpIr, MultiServerDpIrConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::oram::{LinearOram, OramKvs, PathOram, PathOramConfig};
use dp_storage::pir::{FullScanPir, XorPir};
use dp_storage::server::{SimServer, Verified};
use dp_storage::workloads::generators::{database, payload_for};

const N: usize = 64;
const BLOCK: usize = 32;

/// Read-only schemes: every successful retrieval must return the exact
/// stored record.
#[test]
fn retrieval_schemes_agree_on_static_database() {
    let db = database(N, BLOCK);
    let mut rng = ChaChaRng::seed_from_u64(1);

    let mut dp_ir =
        DpIr::setup(DpIrConfig::with_epsilon(N, 4.0, 0.1).unwrap(), &db, SimServer::new()).unwrap();
    let mut multi =
        MultiServerDpIr::setup(MultiServerDpIrConfig { n: N, servers: 3, k: 4, alpha: 0.1 }, &db)
            .unwrap();
    let mut scan = FullScanPir::setup(&db, SimServer::new());
    let mut xor = XorPir::setup(&db);
    let mut ro = DpRamReadOnly::setup(&db, 0.3, SimServer::new(), &mut rng);

    for step in 0..200 {
        let i = step % N;
        let expected = payload_for(i as u64, BLOCK);
        if let Some(got) = dp_ir.query(i, &mut rng).unwrap() {
            assert_eq!(got, expected, "DP-IR step {step}");
        }
        if let Some(got) = multi.query(i, &mut rng).unwrap() {
            assert_eq!(got, expected, "multi-server step {step}");
        }
        assert_eq!(scan.query(i).unwrap(), expected, "full-scan step {step}");
        assert_eq!(xor.query(i, &mut rng).unwrap(), expected, "xor-pir step {step}");
        assert_eq!(ro.read(i, &mut rng).unwrap(), expected, "ro-ram step {step}");
    }
}

/// Mutable schemes: DP-RAM (plain, and hardened by verified storage), Path
/// ORAM and linear ORAM must all track the same reference array under the
/// same logical workload.
#[test]
fn mutable_schemes_agree_under_shared_workload() {
    let db = database(N, BLOCK);
    let mut rng = ChaChaRng::seed_from_u64(2);

    let mut reference = db.clone();
    let mut dp_ram =
        DpRam::setup(DpRamConfig::recommended(N), &db, SimServer::new(), &mut rng).unwrap();
    let verified = Verified::new(SimServer::new());
    let mut hardened = DpRam::setup(DpRamConfig::recommended(N), &db, verified, &mut rng).unwrap();
    let mut path =
        PathOram::setup(PathOramConfig::recommended(N, BLOCK), &db, SimServer::new(), &mut rng);
    let mut linear = LinearOram::setup(&db, SimServer::new(), &mut rng);

    for step in 0u32..300 {
        let i = rng.gen_index(N);
        if rng.gen_bool(0.4) {
            let value = vec![(step % 256) as u8; BLOCK];
            dp_ram.write(i, value.clone(), &mut rng).unwrap();
            hardened.write(i, value.clone(), &mut rng).unwrap();
            path.write(i, value.clone(), &mut rng).unwrap();
            linear.write(i, value.clone(), &mut rng).unwrap();
            reference[i] = value;
        } else {
            assert_eq!(dp_ram.read(i, &mut rng).unwrap(), reference[i], "DP-RAM step {step}");
            assert_eq!(hardened.read(i, &mut rng).unwrap(), reference[i], "hardened step {step}");
            assert_eq!(path.read(i, &mut rng).unwrap(), reference[i], "PathORAM step {step}");
            assert_eq!(linear.read(i, &mut rng).unwrap(), reference[i], "linear step {step}");
        }
    }
}

/// Key-value schemes: DP-KVS and ORAM-KVS must both track a HashMap
/// reference, including misses and deletions.
#[test]
fn kvs_schemes_agree_under_shared_workload() {
    let mut rng = ChaChaRng::seed_from_u64(3);
    let value_size = 16;
    let mut dp_kvs =
        DpKvs::setup(DpKvsConfig::recommended(N, value_size), SimServer::new(), &mut rng).unwrap();
    let mut oram_kvs = OramKvs::new(N, value_size, &mut rng);
    let mut reference: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();

    let keys: Vec<u64> = (0..40u64).map(|i| i * 0x1234_5678 + 5).collect();
    for step in 0u32..250 {
        let key = keys[rng.gen_index(keys.len())];
        match rng.gen_index(3) {
            0 => {
                let value = vec![(step % 256) as u8; value_size];
                dp_kvs.put(key, value.clone(), &mut rng).unwrap();
                oram_kvs.put(key, value.clone(), &mut rng).unwrap();
                reference.insert(key, value);
            }
            _ => {
                let expected = reference.get(&key).cloned();
                assert_eq!(dp_kvs.get(key, &mut rng).unwrap(), expected, "DP-KVS step {step}");
                assert_eq!(oram_kvs.get(key, &mut rng).unwrap(), expected, "ORAM-KVS step {step}");
            }
        }
    }
    assert_eq!(dp_kvs.len(), reference.len());
}

/// The umbrella crate's doc-quickstart path works end to end.
#[test]
fn umbrella_reexports_work() {
    let mut rng = dp_storage::crypto::ChaChaRng::seed_from_u64(7);
    let n = 256;
    let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    let server = dp_storage::server::SimServer::new();
    let mut ram = dp_storage::core::dp_ram::DpRam::setup(
        dp_storage::core::dp_ram::DpRamConfig::recommended(n),
        &blocks,
        server,
        &mut rng,
    )
    .unwrap();
    let value = ram.read(42, &mut rng).unwrap();
    assert_eq!(value, vec![42u8; 32]);
}
