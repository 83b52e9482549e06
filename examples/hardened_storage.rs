//! Active-security hardening: DP-RAM against a server that lies.
//!
//! The paper's model is honest-but-curious: the server observes access
//! patterns but stores faithfully. A real deployment also needs to
//! *detect* a server that corrupts, swaps, or rolls back cells. Hardening
//! is not a second scheme: wrap the storage in `Verified` (a Merkle root in
//! client state, every downloaded cell checked against it) and run the
//! plain `DpRam` over it. This example runs all three attacks and shows
//! that what the paper counts (blocks moved and round trips per query) is
//! unchanged.
//!
//! ```text
//! cargo run --release --example hardened_storage
//! ```

use dp_storage::core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::{ServerError, SimServer, Storage, Verified};

/// Hardened DP-RAM is DP-RAM over verified storage.
fn hardened(
    config: DpRamConfig,
    db: &[Vec<u8>],
    rng: &mut ChaChaRng,
) -> DpRam<Verified<SimServer>> {
    DpRam::setup(config, db, Verified::new(SimServer::new()), rng).expect("valid parameters")
}

fn main() {
    let mut rng = ChaChaRng::seed_from_u64(7);
    let n = 1024;
    let block = 256;
    let db: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; block]).collect();

    // Use p = 0 for the demo so reads deterministically hit their own
    // address (makes the attacked cell easy to target). Production uses
    // DpRamConfig::recommended(n).
    let config = DpRamConfig { n, stash_probability: 0.0 };

    // ---- Cost parity with the paper's scheme ----
    let mut plain = DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng)
        .expect("valid parameters");
    let mut ram = hardened(DpRamConfig::recommended(n), &db, &mut rng);
    for i in 0..200 {
        plain.read(i % n, &mut rng).unwrap();
        ram.read(i % n, &mut rng).unwrap();
    }
    let (d1, d2) = (plain.server_stats(), ram.server_stats());
    println!("200 reads each:");
    println!(
        "  DP-RAM              : {} downloads, {} uploads, {} round trips",
        d1.downloads, d1.uploads, d1.round_trips
    );
    println!(
        "  DP-RAM over Verified: {} downloads, {} uploads, {} round trips  (the same requests)",
        d2.downloads, d2.uploads, d2.round_trips
    );

    // The lying server: whatever goes through `inner_mut` bypasses the root.

    // ---- Attack 1: bit-flip corruption ----
    let mut ram = hardened(config, &db, &mut rng);
    let victim = 77;
    let mut corrupted = ram.server_mut().inner_mut().read(victim).unwrap();
    corrupted[30] ^= 0x40;
    ram.server_mut().inner_mut().write(victim, corrupted).unwrap();
    report("bit-flip corruption", ram.read(victim, &mut rng));

    // ---- Attack 2: cell swap (authentic ciphertexts, wrong places) ----
    let mut ram = hardened(config, &db, &mut rng);
    let a = ram.server_mut().inner_mut().read(10).unwrap();
    let b = ram.server_mut().inner_mut().read(20).unwrap();
    ram.server_mut().inner_mut().write(10, b).unwrap();
    ram.server_mut().inner_mut().write(20, a).unwrap();
    report("cell swap", ram.read(10, &mut rng));

    // ---- Attack 3: rollback (replay a stale-but-authentic cell) ----
    let mut ram = hardened(config, &db, &mut rng);
    let stale = ram.server_mut().inner_mut().read(5).unwrap();
    ram.write(5, vec![0xAA; block], &mut rng).unwrap(); // client updates...
    ram.server_mut().inner_mut().write(5, stale).unwrap(); // ...server replays
    report("rollback/replay", ram.read(5, &mut rng));

    println!("\nall three active attacks surfaced as typed errors; an unhardened client would have read wrong data (or garbage) silently trusted.");
}

fn report(attack: &str, outcome: Result<Vec<u8>, DpRamError>) {
    match outcome {
        Err(DpRamError::Server(ServerError::Integrity { addr })) => {
            println!("attack '{attack}': DETECTED at address {addr} (by the Merkle root)");
        }
        Err(other) => println!("attack '{attack}': rejected with {other}"),
        Ok(_) => println!("attack '{attack}': NOT DETECTED — data silently served!"),
    }
}
