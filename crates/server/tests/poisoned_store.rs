//! The poisoning contract of the durable [`DiskStore`], where the cache's
//! dirty set is all that is left.
//!
//! After its first I/O error a store is *poisoned*: every dirty cell is
//! still served (the cache holds the only readable copy; whether its record
//! became durable is "state unknown"), a clean miss fails with
//! [`ServerError::Interrupted`] instead of touching the failing arena file,
//! and every mutation is refused. The other suites poison a store through a
//! write; this test reaches the branch a write does not: a clean miss whose
//! read fails, on a file that does not lend (the simulated disk), with the
//! store itself doing no I/O.

use dps_server::{CrashSim, DiskFile, DiskOptions, DiskStore, ServerError, Storage, Vfs};

const CELLS: usize = 16;
const LEN: usize = 8;

fn cells() -> Vec<Vec<u8>> {
    (0..CELLS).map(|i| vec![i as u8; LEN]).collect()
}

fn opts(cache_bytes: usize) -> DiskOptions {
    DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes }
}

#[test]
fn a_failed_read_of_a_file_that_does_not_lend_poisons_the_store_typed() {
    let sim = CrashSim::new(5);
    let mut store = DiskStore::open_on(sim.clone(), opts(4 * LEN)).expect("open");
    store.init(cells());
    store.write(3, vec![0xD3; LEN]).unwrap();
    assert_eq!(store.cache_resident(), 1, "the acknowledged cell waits for write-back");
    // Crash the simulated disk through a second file: the store does no I/O.
    let mut bystander = sim.clone().open("bystander").expect("open bystander");
    sim.plan_crash(sim.events(), 0);
    assert!(bystander.write_at(0, b"x").is_err());
    assert!(sim.crashed() && !store.is_poisoned());
    // A never-read clean cell: its read fails, typed, and poisons.
    assert_eq!(store.read(9), Err(ServerError::Interrupted));
    assert!(store.is_poisoned());
    assert_eq!(store.cache_resident(), 1, "the failed read changed what the cache holds");
    assert_eq!(store.read(3).unwrap(), vec![0xD3; LEN], "the dirty cell is still served");
    assert_eq!(store.read(10), Err(ServerError::Interrupted));
    assert_eq!(store.write(5, vec![1; LEN]), Err(ServerError::Interrupted));
}
