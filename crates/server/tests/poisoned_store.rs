//! The poisoning contract of the durable [`DiskStore`], at the two places
//! where the cache's dirty set is all that is left.
//!
//! After its first I/O error a store is *poisoned*: every dirty cell is
//! still served (the cache holds the only readable copy; whether its record
//! became durable is "state unknown"), a clean miss fails with
//! [`ServerError::Interrupted`] instead of touching the failing arena file,
//! and every mutation is refused. The other suites poison a store through a
//! write; these two tests reach the branches a write does not:
//!
//! - a clean miss whose read fails, on a file that does not lend (the
//!   simulated disk), with the store itself doing no I/O;
//! - a re-stride that fails part-way: until its snapshot is durable the open
//!   window's dirty cells exist nowhere the store may read but in the
//!   cache, so the cache must still hold them — in a bounded cache, an
//!   identity mirror, and a mirror the re-stride downgrades to bounded.

use dps_server::{
    CrashSim, DiskFile, DiskOptions, DiskStore, ServerError, Storage, SyncPolicy, Vfs,
};

const CELLS: usize = 16;
const LEN: usize = 8;

fn cells() -> Vec<Vec<u8>> {
    (0..CELLS).map(|i| vec![i as u8; LEN]).collect()
}

fn opts(cache_bytes: usize) -> DiskOptions {
    DiskOptions {
        sync: SyncPolicy::Always,
        wal_checkpoint_bytes: 1 << 20,
        cache_bytes,
        wal_group_commit: 8,
    }
}

#[test]
fn a_failed_read_of_a_file_that_does_not_lend_poisons_the_store_typed() {
    let sim = CrashSim::new(5);
    let mut store = DiskStore::open_on(sim.clone(), opts(4 * LEN)).expect("open");
    store.init(cells());
    store.write(3, vec![0xD3; LEN]).unwrap();
    assert_eq!((store.pending_batches(), store.cache_resident()), (1, 1));
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

/// Two dirty cells in an open window, then a 12-byte write that widens the
/// stride, with the crash swept through every I/O event of the re-stride.
/// Returns how many reads landed before the snapshot.
fn restride_crash_sweep(cache_bytes: usize) -> usize {
    let dirty = [(2, vec![0xD2; LEN]), (11, vec![0xDB; LEN])];
    let wide = vec![0x66; 12];
    let set_up = |sim: &CrashSim| {
        let mut store = DiskStore::open_on(sim.clone(), opts(cache_bytes)).expect("open");
        store.init(cells());
        for (addr, bytes) in &dirty {
            store.write(*addr, bytes.clone()).unwrap();
        }
        store
    };
    // A run without a crash says where the re-stride's events are.
    let sim = CrashSim::new(7);
    let mut store = set_up(&sim);
    let (first, stamp) = (sim.events(), store.checkpoint_stamp());
    store.write(6, wide.clone()).unwrap();
    assert_eq!((store.cell_stride(), store.checkpoint_stamp()), (12, stamp + 1));
    let last = sim.events();

    let mut before_snapshot = 0;
    for k in 0..=last - first {
        let sim = CrashSim::new(7);
        let mut store = set_up(&sim);
        sim.plan_crash(first + k, 500);
        let written = store.write(6, wide.clone());
        assert_eq!(written.is_err(), first + k < last, "crash point {k}");
        for (addr, bytes) in &dirty {
            let got = store.read(*addr);
            if store.checkpoint_stamp() == stamp {
                assert_eq!(got.as_ref(), Ok(bytes), "crash point {k}, cell {addr}, no snapshot");
                before_snapshot += 1;
            } else {
                assert!(
                    got.as_ref() == Ok(bytes) || got == Err(ServerError::Interrupted),
                    "crash point {k}, cell {addr} after the snapshot: {got:?}"
                );
            }
        }
    }
    before_snapshot
}

#[test]
fn a_failed_restride_keeps_serving_the_windows_dirty_cells() {
    // Bounded throughout: 4 slots at stride 8, 2 at stride 12.
    let bounded = restride_crash_sweep(4 * LEN);
    // An identity mirror at either stride.
    let identity = restride_crash_sweep(1 << 20);
    // A mirror at stride 8 that the re-stride downgrades to bounded.
    let downgraded = restride_crash_sweep(CELLS * LEN);
    // 22 crash points fall before the snapshot is durable — the target
    // arena's `set_len`, 16 cells and the batch's, its sync, and the meta
    // file's `set_len`, write and sync — and each reads both dirty cells.
    assert_eq!((bounded, identity, downgraded), (44, 44, 44));
}
