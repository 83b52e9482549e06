//! The lending path of the durable store, pinned against the oracle.
//!
//! On real files a clean cache miss is not read into a slot: the arena
//! file lends the cell out of a read-only mapping
//! ([`DiskFile::lend`](dps_server::DiskFile::lend)). This suite drives a
//! [`DiskStore`] on [`RealVfs`](dps_server::RealVfs) with a cache of a few
//! cells — so nearly every read is such a miss — through seeded programs
//! of everything that can move bytes under a mapping or move the mapping
//! itself: single and batched writes, zero-length cells,
//! checkpoints (write-back *inside* the mapped range), set-ups at a wider
//! stride (a new, longer arena file becomes the active one), over-long
//! writes (refused, so nothing moves), and drop + reopen. After every step
//! the answer and the paper-model currencies
//! ([`CostStats::sans_cache`](dps_server::CostStats::sans_cache)) must
//! equal [`SimServer`]'s; the cache counters must say what happened —
//! a lent read is a miss that evicts nothing and leaves nothing resident.
//!
//! The read path of a file that does not lend (one positioned read into a
//! scratch buffer) is `bounded_cache`'s and `crash_recovery`'s; the
//! mapping's own length rules are unit tests beside the `unsafe` they
//! protect.

use dps_crypto::rng::splitmix64;
use dps_server::{DiskOptions, DiskStore, SimServer, Storage};

const CAPACITY: usize = 160;
const CELL_LEN: usize = 24;
/// Four resident cells out of 160.
const CACHE: usize = 4 * CELL_LEN;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dps_mapped_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Splitmix64, the repo's seeded-test generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn cell(byte: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

/// A 1 MiB log: no program fills it, and every case zero-fills a fresh one.
fn opts() -> DiskOptions {
    DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes: CACHE }
}

/// Initial contents: full-width cells, with every 11th shorter and every
/// 17th empty (a zero-length cell is a value too, and is neither a hit nor
/// a miss).
fn initial() -> Vec<Vec<u8>> {
    (0..CAPACITY)
        .map(|i| match i {
            _ if i % 17 == 0 => Vec::new(),
            _ if i % 11 == 0 => cell(i as u8, CELL_LEN / 2),
            _ => cell(i as u8, CELL_LEN),
        })
        .collect()
}

/// Drops the store and opens the directory again (every acknowledged
/// upload is already durable). The counters restart on both sides so they
/// stay comparable.
fn reopen(disk: DiskStore, oracle: &mut SimServer, dir: &TempDir) -> DiskStore {
    drop(disk);
    oracle.reset_stats();
    DiskStore::open_with(&dir.0, opts()).expect("reopen")
}

fn assert_same_state(disk: &mut DiskStore, oracle: &mut SimServer, when: &str) {
    for addr in 0..CAPACITY {
        assert_eq!(disk.read(addr), oracle.read(addr), "cell {addr} {when}");
    }
    assert_eq!(disk.stored_bytes(), oracle.stored_bytes(), "{when}");
    assert_eq!(disk.stats().sans_cache(), oracle.stats(), "{when}");
}

fn run_program(seed: u64) {
    let dir = TempDir::new(&format!("seed{seed}"));
    let mut rng = Rng(seed);
    let mut disk = DiskStore::open_with(&dir.0, opts()).expect("open");
    let mut oracle = SimServer::new();
    disk.init(initial());
    oracle.init(initial());

    // A read-only pass over cells that were never cached: every non-empty
    // one is a miss answered by the mapping — no slot, no eviction, no
    // system call — with the bytes `init` stored (the oracle's).
    let mut order: Vec<usize> = (0..CAPACITY).collect();
    for i in (1..CAPACITY).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut non_empty = 0;
    for batch in order.chunks(16) {
        let got = disk.read_batch(batch);
        assert_eq!(got, oracle.read_batch(batch));
        non_empty += got.unwrap().iter().filter(|c| !c.is_empty()).count() as u64;
    }
    let stats = disk.stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.cache_evictions),
        (non_empty, 0, 0),
        "a lent read is a miss and nothing else: {stats}"
    );
    assert_eq!(disk.cache_resident(), 0, "a read-only store keeps nothing resident");
    assert_eq!(stats.sans_cache(), oracle.stats());

    let mut stride = CELL_LEN;
    for step in 0..400 {
        let what = rng.below(100);
        let label = format!("seed {seed} step {step} (op {what})");
        match what {
            // Reads, reaching one past the end so the error path agrees.
            0..=39 => {
                let addrs: Vec<usize> =
                    (0..rng.below(20)).map(|_| rng.below(CAPACITY + 1)).collect();
                let (evictions, resident) = (disk.stats().cache_evictions, disk.cache_resident());
                assert_eq!(disk.read_batch(&addrs), oracle.read_batch(&addrs), "{label}");
                assert_eq!(disk.stats().cache_evictions, evictions, "a read evicted: {label}");
                assert_eq!(disk.cache_resident(), resident, "a read took a slot: {label}");
            }
            // One cell, any length up to the stride (0 included).
            40..=59 => {
                let (addr, len) = (rng.below(CAPACITY), rng.below(stride + 1));
                let bytes = cell(rng.next() as u8, len);
                assert_eq!(disk.write(addr, bytes.clone()), oracle.write(addr, bytes), "{label}");
            }
            // A batch: more cells than the cache has slots.
            60..=79 => {
                let batch: Vec<(usize, Vec<u8>)> = (0..1 + rng.below(12))
                    .map(|_| {
                        let len = if rng.below(6) == 0 { 0 } else { stride };
                        (rng.below(CAPACITY), cell(rng.next() as u8, len))
                    })
                    .collect();
                assert_eq!(disk.write_batch(batch.clone()), oracle.write_batch(batch), "{label}");
            }
            // Write-back lands inside the mapped range of the active arena.
            80..=93 => disk.checkpoint().expect("checkpoint"),
            // Set-up again, wider: the image goes to the other arena file at
            // the new stride, that file becomes the active one and is mapped
            // at its own (longer) length by the next miss.
            94 | 95 => {
                stride += 1 + rng.below(9);
                let cells: Vec<Vec<u8>> = (0..CAPACITY)
                    .map(|i| cell(rng.next() as u8, if i % 13 == 0 { i % stride } else { stride }))
                    .collect();
                disk.init(cells.clone());
                oracle.init(cells);
                assert_eq!(disk.cell_stride(), stride, "{label}");
            }
            // A cell past the stride: refused alike, and the mapping, the
            // stride and the counters stay where they were.
            96 => {
                let (addr, len) = (rng.below(CAPACITY), stride + 1 + rng.below(9));
                let bytes = cell(rng.next() as u8, len);
                let before = disk.stats();
                let refused = disk.write(addr, bytes.clone());
                assert_eq!(refused, oracle.write(addr, bytes), "{label}");
                assert!(refused.is_err(), "an over-long cell was stored: {label}");
                assert_eq!((disk.stats(), disk.cell_stride()), (before, stride), "{label}");
            }
            _ => {
                disk = reopen(disk, &mut oracle, &dir);
                assert_eq!(disk.cell_stride(), stride, "{label}");
            }
        }
        assert_eq!(disk.stats().sans_cache(), oracle.stats(), "{label}");
        if step % 50 == 49 {
            assert_same_state(&mut disk, &mut oracle, &label);
        }
    }
    assert_same_state(&mut disk, &mut oracle, "at the end");
    let mut disk = reopen(disk, &mut oracle, &dir);
    assert_same_state(&mut disk, &mut oracle, "after the last reopen");
}

#[test]
fn seeded_programs_match_simserver_through_the_mapping() {
    for seed in 1..=8 {
        run_program(seed);
    }
}

/// A checkpoint writes dirty cells back with `pwrite` *inside* the range
/// the arena is mapped over, and the mapping is kept: the next lend must
/// show the written-back bytes, not what the page held when it was mapped.
#[test]
fn a_written_back_cell_is_lent_with_its_new_bytes() {
    let dir = TempDir::new("coherent");
    let mut disk = DiskStore::open_with(&dir.0, opts()).expect("open");
    disk.init(initial());
    // Map the arena and touch the pages the writes will land in.
    let victims = [1, 2, 3, 50, 51, 52, 100, 159];
    for addr in victims {
        assert_eq!(disk.read(addr).unwrap(), initial()[addr]);
    }
    // Eight dirty cells over a budget of four: the commit that goes over
    // writes all of them back and empties the cache, so all eight reads
    // below are lent.
    let batch: Vec<_> = victims
        .iter()
        .map(|&a| (a, cell(0xA0 ^ a as u8, CELL_LEN)))
        .collect();
    disk.write_batch(batch.clone()).unwrap();
    assert_eq!(disk.cache_resident(), 0, "write-back leaves nothing resident");
    let misses = disk.stats().cache_misses;
    for (addr, bytes) in &batch {
        assert_eq!(&disk.read(*addr).unwrap(), bytes, "cell {addr} after write-back");
    }
    assert_eq!(disk.stats().cache_misses, misses + 8, "the reads above did not reach the mapping");
    assert_eq!(disk.stats().cache_evictions, 0);
}
