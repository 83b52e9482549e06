//! Correctness suite for the larger-than-RAM [`DiskStore`] under a bounded
//! cache: RAM holds what the disk lacks.
//!
//! Every test here runs a database that is much bigger than the cell
//! cache (`DiskOptions::cache_bytes` sized to a handful of cells), so the
//! cache is the *dirty set* — cells written since the last write-back — and
//! everything else is served by the miss path: lent out of the mapped arena
//! on real files, read with one positioned read on a disk that does not
//! lend (the simulated one); the randomized programs run on both. The
//! oracle is [`SimServer`], whose equivalence to the original reference
//! model is pinned by `store_equivalence`:
//! results, errors, the paper-model `CostStats` currencies (compared via
//! [`CostStats::sans_cache`]) and the final cell-by-cell state must be
//! bit-identical. Randomized programs cover ragged set-ups, over-long
//! writes refused around dirty cells, zero-length cells, batches wider
//! than the cache, and checkpoints; focused tests make hits and misses, a
//! batch's dirty set outgrowing the budget and the deferred write-back
//! (acknowledged cells wait in the cache until a checkpoint or budget
//! pressure, then leave it) legible. Some tests keep
//! the names they had when the cache also kept clean cells and evicted
//! them; each now asserts that nothing is evicted.
//!
//! [`CostStats::sans_cache`]: dps_server::CostStats::sans_cache

use dps_server::{
    CrashSim, DiskOptions, DiskStore, RealVfs, ServerError, SimOp, SimServer, Storage, Vfs,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const CAPACITY: usize = 96;
const CELL_LEN: usize = 16;
/// Four dirty cells out of 96 before a commit writes back.
const TINY_CACHE: usize = 4 * CELL_LEN;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dps_bounded_cache_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A 1 MiB log: no program fills it, and every case zero-fills a fresh one
/// on each disk (the default's 8 MiB would be most of the suite's time).
fn tiny_cache_opts() -> DiskOptions {
    DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes: TINY_CACHE }
}

fn cell(byte: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

/// One step of a random program. Addresses reach slightly out of bounds so
/// error paths stay equivalent too; `WriteOdd` lengths of 0 exercise
/// zero-length cells, and `WriteTooLong` cells past `CELL_LEN` are refused
/// while dirty cells wait in the cache.
#[derive(Debug, Clone)]
enum Op {
    Read(Vec<usize>),
    Write(Vec<(usize, u8)>),
    WriteOdd(usize, u8, usize),
    WriteTooLong(usize, u8, usize),
    Checkpoint,
}

fn arb_op() -> impl Strategy<Value = Op> {
    let addrs = proptest::collection::vec(0usize..CAPACITY + 2, 0..8);
    let writes = proptest::collection::vec((0usize..CAPACITY + 2, any::<u8>()), 0..8);
    (0u8..8, addrs, writes, 0usize..CAPACITY + 2, any::<u8>(), 0usize..2 * CELL_LEN).prop_map(
        |(variant, addrs, writes, addr, byte, len)| match variant {
            0..=2 => Op::Read(addrs),
            3 | 4 => Op::Write(writes),
            5 => Op::WriteOdd(addr, byte, len % (CELL_LEN + 1)),
            6 => Op::WriteTooLong(addr, byte, CELL_LEN + 1 + len),
            _ => Op::Checkpoint,
        },
    )
}

fn step<V: Vfs>(op: &Op, disk: &mut DiskStore<V>, oracle: &mut SimServer) {
    match op {
        Op::Read(addrs) => {
            assert_eq!(disk.read_batch(addrs), oracle.read_batch(addrs));
        }
        Op::Write(writes) => {
            let w = |&(a, b): &(usize, u8)| (a, cell(b, CELL_LEN));
            assert_eq!(
                disk.write_batch(writes.iter().map(w).collect()),
                oracle.write_batch(writes.iter().map(w).collect()),
            );
        }
        Op::WriteOdd(addr, byte, len) => {
            assert_eq!(
                disk.write(*addr, cell(*byte, *len)),
                oracle.write(*addr, cell(*byte, *len)),
            );
        }
        // Refused alike, charged nothing, and the cache holds what it held;
        // the cells are compared at the end.
        Op::WriteTooLong(addr, byte, len) => {
            let (before, resident) = (disk.stats(), disk.cache_resident());
            let refused = disk.write(*addr, cell(*byte, *len));
            assert_eq!(refused, oracle.write(*addr, cell(*byte, *len)));
            assert!(refused.is_err(), "an over-long cell was stored");
            assert_eq!((disk.stats(), disk.cache_resident()), (before, resident));
        }
        Op::Checkpoint => {
            disk.checkpoint().expect("checkpoint on a healthy store");
            assert_eq!(disk.cache_resident(), 0, "a checkpoint writes every dirty cell back");
        }
    }
}

/// Runs `ops` on both miss paths against the one oracle: real files,
/// which lend a clean miss out of the mapped arena, and the simulated disk
/// (nothing crashing), which does not lend and so is read.
fn run_case(ragged: bool, ops: &[Op]) {
    let tmp = TempDir::new();
    let vfs = RealVfs::new(&tmp.0).expect("create store directory");
    run_case_on(vfs, ragged, ops);
    run_case_on(CrashSim::new(1), ragged, ops);
}

/// Set-up at `CELL_LEN`: every cell full, or — `ragged` — cell `i` cut to
/// `i mod (CELL_LEN + 1)` bytes (zero-length ones included) but the last.
fn run_case_on<V: Vfs>(vfs: V, ragged: bool, ops: &[Op]) {
    let mut disk = DiskStore::open_on(vfs, tiny_cache_opts()).expect("open disk store");
    let mut oracle = SimServer::new();
    let len = |i: usize| if ragged && i + 1 < CAPACITY { i % (CELL_LEN + 1) } else { CELL_LEN };
    let cells: Vec<Vec<u8>> = (0..CAPACITY).map(|i| cell(i as u8, len(i))).collect();
    disk.init(cells.clone());
    oracle.init(cells);
    assert_eq!(disk.cell_stride(), CELL_LEN);
    for op in ops {
        step(op, &mut disk, &mut oracle);
        assert_eq!(
            disk.stats().sans_cache(),
            oracle.stats(),
            "model currencies diverged after {op:?}"
        );
    }
    // Final state: every cell identical, and the stride set-up fixed.
    for addr in 0..CAPACITY {
        assert_eq!(disk.read(addr), oracle.read(addr), "cell {addr} diverged");
    }
    assert_eq!(disk.stored_bytes(), oracle.stored_bytes());
    assert_eq!(disk.cell_stride(), CELL_LEN);
    // The budget holds at rest: after a batch the cache holds at most the
    // dirty cells that fit it (a commit past it writes them all back).
    assert!(
        disk.cache_resident() <= (TINY_CACHE / disk.cell_stride().max(1)).max(1),
        "cache residency {} exceeds its budget at rest",
        disk.cache_resident()
    );
    assert_eq!(disk.stats().cache_evictions, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Randomized programs over a store set up with every cell: nearly
    /// every read is a miss, and a write is written back once a few are
    /// dirty.
    #[test]
    fn tiny_cache_matches_simserver_initialized(
        ops in proptest::collection::vec(arb_op(), 0..48),
    ) {
        run_case(false, &ops);
    }

    /// Randomized programs from a ragged set-up: short and zero-length
    /// cells stay equivalent while dirty ones wait for write-back.
    #[test]
    fn tiny_cache_matches_simserver_ragged(
        ops in proptest::collection::vec(arb_op(), 0..48),
    ) {
        run_case(true, &ops);
    }
}

/// The metrics tell the truth: with nothing dirty, a DB ≫ cache scan is
/// all misses on every sweep, and no read takes a slot — so nothing is
/// ever evicted. On a disk that does not lend (the simulated one, nothing
/// crashing): real files answer a clean miss out of the mapped arena —
/// `mapped_store` pins that side.
#[test]
fn evictions_are_observed_when_db_exceeds_cache() {
    let mut disk =
        DiskStore::open_on(CrashSim::new(1), tiny_cache_opts()).expect("open disk store");
    disk.init((0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect());
    for _ in 0..3 {
        for addr in 0..CAPACITY {
            assert_eq!(disk.read(addr).unwrap(), cell(addr as u8, CELL_LEN));
        }
    }
    let stats = disk.stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.cache_evictions),
        (3 * CAPACITY as u64, 0, 0),
        "every clean read is a miss: {stats}"
    );
    assert_eq!(disk.cache_resident(), 0, "a clean read took a slot");
}

/// Dirty cells stay until write-back: one batch wider than the cache
/// budget pushes its dirty set past it (the cells exist nowhere else until
/// the record is durable), and the commit that makes the batch durable
/// writes them all back and empties the cache. Every read agrees before
/// and after.
#[test]
fn dirty_pins_overshoot_and_drain_on_commit() {
    let budget_slots = TINY_CACHE / CELL_LEN; // 4
    let dirty = 3 * budget_slots; // 12 cells in one batch
    let tmp = TempDir::new();
    let mut disk = DiskStore::open_with(&tmp.0, tiny_cache_opts()).expect("open disk store");
    disk.init((0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect());
    for addr in 0..budget_slots {
        disk.write(CAPACITY - 1 - addr, cell(0xB0 | addr as u8, CELL_LEN))
            .unwrap();
    }
    assert_eq!(disk.cache_resident(), budget_slots, "a full budget writes nothing back");
    let wal = disk.wal_bytes();
    let batch: Vec<_> = (0..dirty).map(|a| (a, cell(0xC0 | a as u8, CELL_LEN))).collect();
    disk.write_batch(batch).unwrap();
    assert!(disk.wal_bytes() > wal, "the batch is one durable record");
    assert_eq!(disk.cache_resident(), 0, "the covering commit writes back and empties the cache");
    for addr in 0..dirty {
        assert_eq!(disk.read(addr).unwrap(), cell(0xC0 | addr as u8, CELL_LEN));
    }
    for addr in 0..budget_slots {
        assert_eq!(disk.read(CAPACITY - 1 - addr).unwrap(), cell(0xB0 | addr as u8, CELL_LEN));
    }
}

/// Zero-length cells take no cache slot, survive the write-backs around
/// them, and stay distinct from the full cells beside them.
#[test]
fn zero_length_cells_are_cache_free_and_exact() {
    let tmp = TempDir::new();
    let mut disk = DiskStore::open_with(&tmp.0, tiny_cache_opts()).expect("open disk store");
    disk.init(vec![cell(0xAA, CELL_LEN); CAPACITY]);
    for addr in (0..CAPACITY).step_by(2) {
        disk.write(addr, Vec::new()).unwrap();
    }
    assert_eq!(disk.cache_resident(), 0, "empty payloads must not occupy slots");
    for addr in (1..CAPACITY).step_by(2) {
        disk.write(addr, cell(addr as u8, CELL_LEN)).unwrap();
    }
    for addr in 0..CAPACITY {
        if addr % 2 == 0 {
            assert_eq!(disk.read(addr).unwrap(), Vec::<u8>::new());
        } else {
            assert_eq!(disk.read(addr).unwrap(), cell(addr as u8, CELL_LEN));
        }
    }
    assert_eq!(
        disk.read(CAPACITY + 1),
        Err(ServerError::OutOfBounds { addr: CAPACITY + 1, capacity: CAPACITY })
    );
}

/// Acknowledged cells wait in the cache, not in the arena: with the CI
/// leg's 4 KiB cache under a store 16× its size, every read — a hit on a
/// waiting dirty cell, a miss around them — equals the oracle, the arena is
/// not written while the dirty cells fit the budget, and once they do not,
/// write-back drains them and the reads still agree. (The simulated disk is
/// used for its event log; nothing crashes here.)
#[test]
fn reads_match_the_oracle_while_dirty_cells_wait_for_write_back() {
    const CACHE: usize = 4096;
    const LEN: usize = 64;
    const CELLS: usize = 16 * CACHE / LEN; // 1024 cells, 64 of them cacheable
    let sim = CrashSim::new(1);
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes: CACHE };
    let arena_writes = |sim: &CrashSim| {
        let log = sim.event_log();
        let writes = log
            .iter()
            .filter(|e| e.file.starts_with("arena.") && matches!(e.op, SimOp::Write { .. }));
        writes.count()
    };
    let mut disk = DiskStore::open_on(sim.clone(), opts).expect("open disk store");
    let mut oracle = SimServer::new();
    let cells: Vec<Vec<u8>> = (0..CELLS).map(|i| cell(i as u8, LEN)).collect();
    disk.init(cells.clone());
    oracle.init(cells);
    let after_init = arena_writes(&sim);

    // 40 acknowledged writes scattered over the store: inside the budget
    // of 64 slots, so they stay dirty and the arena keeps its old bytes.
    let scattered = |i: usize| (i * 389) % CELLS;
    for i in 0..40 {
        let write = (scattered(i), cell(0xD0 ^ i as u8, LEN));
        assert_eq!(disk.write(write.0, write.1.clone()), oracle.write(write.0, write.1));
    }
    assert_eq!(arena_writes(&sim), after_init, "write-back ran inside the budget");
    // Two sweeps of the whole store: the waiting cells must answer from the
    // cache, never from the arena's stale copy, and the misses around them
    // take no slot.
    for _ in 0..2 {
        for addr in 0..CELLS {
            assert_eq!(disk.read(addr), oracle.read(addr), "cell {addr} while dirty cells wait");
        }
    }
    assert_eq!(arena_writes(&sim), after_init, "a read wrote a dirty cell back");
    assert_eq!(disk.cache_resident(), 40, "the cache holds the dirty cells and nothing else");

    // Past the budget the next commit writes everything back and the
    // cache empties; the arena now serves the same cells.
    for i in 40..80 {
        let write = (scattered(i), cell(0xD0 ^ i as u8, LEN));
        assert_eq!(disk.write(write.0, write.1.clone()), oracle.write(write.0, write.1));
    }
    assert!(arena_writes(&sim) > after_init, "pressure never triggered write-back");
    assert!(disk.cache_resident() <= CACHE / LEN + 1);
    for addr in 0..CELLS {
        assert_eq!(disk.read(addr), oracle.read(addr), "cell {addr} after write-back");
    }
    assert_eq!(disk.stats().sans_cache(), oracle.stats());
}
