//! Active-security hardening: DP-RAM against a server that lies.
//!
//! The paper's model is honest-but-curious: the server observes access
//! patterns but stores faithfully. A real deployment also needs to
//! *detect* a server that corrupts, swaps, or rolls back cells. This
//! example runs the hardened DP-RAM (address-bound ChaCha20-Poly1305 AEAD
//! plus a Merkle root in client state) through all three attacks and shows
//! that the overhead the paper counts (blocks moved per query) is
//! unchanged.
//!
//! ```text
//! cargo run --release --example hardened_storage
//! ```

use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::core::hardened_ram::{HardenedDpRam, HardenedRamError};
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::{SimServer, Storage};

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
    let mut hardened =
        HardenedDpRam::setup(DpRamConfig::recommended(n), &db, &mut rng).expect("valid parameters");
    let (b1, b2) = (plain.server_stats(), hardened.server_stats());
    for i in 0..200 {
        plain.read(i % n, &mut rng).unwrap();
        hardened.read(i % n, &mut rng).unwrap();
    }
    let (d1, d2) = (plain.server_stats().since(&b1), hardened.server_stats().since(&b2));
    println!("200 reads each:");
    println!(
        "  paper DP-RAM   : {} downloads, {} uploads, {} round trips",
        d1.downloads, d1.uploads, d1.round_trips
    );
    println!(
        "  hardened DP-RAM: {} downloads, {} uploads, {} round trips  (same cells; downloads not coalesced)",
        d2.downloads, d2.uploads, d2.round_trips
    );

    // ---- Attack 1: bit-flip corruption ----
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).expect("valid parameters");
    let victim = 77;
    let cell = ram.server_mut().adversary_cells_mut().read(victim).unwrap();
    let mut corrupted = cell.clone();
    corrupted[30] ^= 0x40;
    ram.server_mut()
        .adversary_cells_mut()
        .write(victim, corrupted)
        .unwrap();
    report("bit-flip corruption", ram.read(victim, &mut rng));

    // ---- Attack 2: cell swap (authentic ciphertexts, wrong places) ----
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).expect("valid parameters");
    let a = ram.server_mut().adversary_cells_mut().read(10).unwrap();
    let b = ram.server_mut().adversary_cells_mut().read(20).unwrap();
    ram.server_mut().adversary_cells_mut().write(10, b).unwrap();
    ram.server_mut().adversary_cells_mut().write(20, a).unwrap();
    report("cell swap", ram.read(10, &mut rng));

    // ---- Attack 3: rollback (replay a stale-but-authentic cell) ----
    let mut ram = HardenedDpRam::setup(config, &db, &mut rng).expect("valid parameters");
    let stale = ram.server_mut().adversary_cells_mut().read(5).unwrap();
    ram.write(5, vec![0xAA; block], &mut rng).unwrap(); // client updates...
    ram.server_mut().adversary_cells_mut().write(5, stale).unwrap(); // ...server replays
    report("rollback/replay", ram.read(5, &mut rng));

    println!("\nall three active attacks surfaced as typed errors; an unhardened client would have read wrong data (or garbage) silently trusted.");
}

fn report(attack: &str, outcome: Result<Vec<u8>, HardenedRamError>) {
    match outcome {
        Err(HardenedRamError::Tampering { addr, detected_by }) => {
            println!("attack '{attack}': DETECTED at address {addr} (by {detected_by:?})");
        }
        Err(other) => println!("attack '{attack}': rejected with {other}"),
        Ok(_) => println!("attack '{attack}': NOT DETECTED — data silently served!"),
    }
}
