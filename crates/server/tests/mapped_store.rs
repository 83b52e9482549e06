//! The lending path of the durable store, pinned against the oracle.
//!
//! On real files a clean cache miss is not read into a slot: the arena
//! file lends the cell out of a read-only mapping
//! ([`DiskFile::lend`](dps_server::DiskFile::lend)). This suite drives a
//! [`DiskStore`] on [`RealVfs`](dps_server::RealVfs) with a cache of a few
//! cells — so nearly every read is such a miss — through seeded programs
//! of everything that can move bytes under a mapping or move the mapping
//! itself: single and batched writes, checkpoints (write-back *inside* the
//! mapped range), set-ups at a wider stride (a new, longer arena file
//! becomes the active one), set-ups of two cell lengths and writes of a
//! cell longer or shorter than the stride (refused, so nothing moves), and
//! drop + reopen. After every step
//! the answer and the paper-model currencies
//! ([`CostStats::sans_cache`](dps_server::CostStats::sans_cache)) must
//! equal [`SimServer`]'s; the cache counters must say what happened —
//! a lent read is a miss that evicts nothing and leaves nothing resident.
//!
//! The read path of a file that does not lend (one positioned read into a
//! scratch buffer) is `bounded_cache`'s and `crash_recovery`'s; the
//! mapping's own length rules are unit tests beside the `unsafe` they
//! protect.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use dps_crypto::rng::splitmix64;
use dps_server::disk::RealFile;
use dps_server::{
    DiskFile, DiskOptions, DiskStore, RealVfs, ServerError, SimServer, Storage, Transcript, Vfs,
};

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

/// Initial contents: a cell of the stride at every address.
fn initial() -> Vec<Vec<u8>> {
    (0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect()
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
    assert_eq!(disk.cell_stride(), oracle.cell_stride(), "{when}");
    assert_eq!(disk.stats().sans_cache(), oracle.stats(), "{when}");
}

fn run_program(seed: u64) {
    let dir = TempDir::new(&format!("seed{seed}"));
    let mut rng = Rng(seed);
    let mut disk = DiskStore::open_with(&dir.0, opts()).expect("open");
    let mut oracle = SimServer::new();
    disk.init(initial());
    oracle.init(initial());

    // A read-only pass over cells that were never cached: every one is a
    // miss answered by the mapping — no slot, no eviction, no system call —
    // with the bytes `init` stored (the oracle's).
    let mut order: Vec<usize> = (0..CAPACITY).collect();
    for i in (1..CAPACITY).rev() {
        order.swap(i, rng.below(i + 1));
    }
    for batch in order.chunks(16) {
        assert_eq!(disk.read_batch(batch), oracle.read_batch(batch));
    }
    let stats = disk.stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.cache_evictions),
        (CAPACITY as u64, 0, 0),
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
            // One cell, of the stride but one time in four, when any length
            // up to one past it (0 included) is drawn and refused alike.
            40..=59 => {
                let addr = rng.below(CAPACITY);
                let len = if rng.below(4) == 0 { rng.below(stride + 2) } else { stride };
                let bytes = cell(rng.next() as u8, len);
                assert_eq!(disk.write(addr, bytes.clone()), oracle.write(addr, bytes), "{label}");
            }
            // A batch: more cells than the cache has slots (refused whole
            // when one of them is empty).
            60..=79 => {
                let batch: Vec<(usize, Vec<u8>)> = (0..1 + rng.below(12))
                    .map(|_| {
                        let len = if rng.below(24) == 0 { 0 } else { stride };
                        (rng.below(CAPACITY), cell(rng.next() as u8, len))
                    })
                    .collect();
                assert_eq!(disk.write_batch(batch.clone()), oracle.write_batch(batch), "{label}");
            }
            // Write-back lands inside the mapped range of the active arena.
            80..=93 => disk.checkpoint().expect("checkpoint"),
            // Set-up again, wider: the image goes to the other arena file at
            // the new stride, that file becomes the active one and is mapped
            // at its own (longer) length by the next miss. First a set-up of
            // two lengths, which panics on both and moves nothing.
            94 | 95 => {
                let odd = rng.below(CAPACITY);
                let ragged: Vec<Vec<u8>> = (0..CAPACITY)
                    .map(|i| cell(i as u8, if i == odd { stride + 1 } else { stride }))
                    .collect();
                for refused in [
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        disk.init(ragged.clone())
                    })),
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        oracle.init(ragged.clone())
                    })),
                ] {
                    assert!(refused.is_err(), "a ragged set-up was taken: {label}");
                }
                assert_eq!(disk.cell_stride(), stride, "{label}");
                stride += 1 + rng.below(9);
                let cells: Vec<Vec<u8>> =
                    (0..CAPACITY).map(|_| cell(rng.next() as u8, stride)).collect();
                disk.init(cells.clone());
                oracle.init(cells);
                assert_eq!(disk.cell_stride(), stride, "{label}");
            }
            // A cell past the stride or short of it: refused alike, and the
            // mapping, the stride and the counters stay where they were.
            96 => {
                let addr = rng.below(CAPACITY);
                let len =
                    if rng.below(2) == 0 { stride + 1 + rng.below(9) } else { rng.below(stride) };
                let bytes = cell(rng.next() as u8, len);
                let before = disk.stats();
                let refused = disk.write(addr, bytes.clone());
                assert_eq!(refused, oracle.write(addr, bytes), "{label}");
                assert!(refused.is_err(), "a cell of another length was stored: {label}");
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

/// Real files that log every prefetch hint the store gives them and pass
/// it on to the mapping (`forward`) or drop it: the same store with and
/// without the hint. Once `fail` is set, writes and syncs fail.
#[derive(Debug)]
struct Hinted {
    vfs: RealVfs,
    forward: bool,
    hints: Arc<Mutex<Vec<(u64, usize)>>>,
    fail: Arc<AtomicBool>,
}

#[derive(Debug)]
struct HintedFile {
    file: RealFile,
    forward: bool,
    hints: Arc<Mutex<Vec<(u64, usize)>>>,
    fail: Arc<AtomicBool>,
}

impl Vfs for Hinted {
    type File = HintedFile;

    fn open(&mut self, name: &str) -> io::Result<HintedFile> {
        Ok(HintedFile {
            file: self.vfs.open(name)?,
            forward: self.forward,
            hints: Arc::clone(&self.hints),
            fail: Arc::clone(&self.fail),
        })
    }
}

impl HintedFile {
    fn check(&self) -> io::Result<()> {
        match self.fail.load(Ordering::Relaxed) {
            true => Err(io::Error::other("injected")),
            false => Ok(()),
        }
    }
}

impl DiskFile for HintedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.check()?;
        self.file.write_at(offset, buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.check()?;
        self.file.sync()
    }

    fn file_len(&self) -> io::Result<u64> {
        self.file.file_len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn lend(&self, offset: u64, len: usize) -> Option<&[u8]> {
        self.file.lend(offset, len)
    }

    fn prefetch(&self, offset: u64, len: usize) {
        self.hints.lock().unwrap().push((offset, len));
        if self.forward {
            self.file.prefetch(offset, len);
        }
    }
}

/// The prefetch before a batch read is invisible to the model: over a
/// store holding dirty cells and lent clean ones, a store whose hints
/// reach the mapping answers, charges, records and counts cache hits and
/// misses exactly like one whose hints are dropped, and like the oracle. A
/// hint goes to each clean cell of the batch up to its first address out
/// of range, in order, and to nothing on a poisoned store, which still
/// serves its hits and fails its misses typed.
#[test]
fn the_prefetch_hint_changes_no_answer_charge_transcript_or_fault() {
    let dirs = [TempDir::new("hinted"), TempDir::new("unhinted")];
    let hints = [(); 2].map(|()| Arc::new(Mutex::new(Vec::new())));
    let fail = Arc::new(AtomicBool::new(false));
    let mut disks: Vec<DiskStore<Hinted>> = (0..2)
        .map(|i| {
            let vfs = RealVfs::new(&dirs[i].0).expect("store directory");
            let hinted = Hinted {
                vfs,
                forward: i == 0,
                hints: Arc::clone(&hints[i]),
                fail: Arc::clone(&fail),
            };
            DiskStore::open_on(hinted, opts()).expect("open")
        })
        .collect();
    let mut oracle = SimServer::new();
    oracle.init(initial());
    let dirty = [7, 70, 150];
    for disk in &mut disks {
        disk.init(initial());
        for &addr in &dirty {
            disk.write(addr, cell(0xD0 ^ addr as u8, CELL_LEN)).unwrap();
        }
        assert_eq!(disk.cache_resident(), dirty.len(), "the writes wait in the cache");
        disk.start_recording();
    }
    for &addr in &dirty {
        oracle.write(addr, cell(0xD0 ^ addr as u8, CELL_LEN)).unwrap();
    }
    oracle.start_recording();
    let hinted_cells = |batch: &[usize]| -> Vec<(u64, usize)> {
        let clean = batch.iter().take_while(|&&addr| addr < CAPACITY);
        let clean = clean.filter(|addr| !dirty.contains(addr));
        clean.map(|&addr| ((addr * CELL_LEN) as u64, CELL_LEN)).collect()
    };
    let take_hints = |i: usize| std::mem::take(&mut *hints[i].lock().unwrap());

    // A batch of dirty and clean cells, each kind twice, and then one that
    // fails at an address out of range mid-way with the partial charge.
    let batches: [&[usize]; 2] = [&[7, 3, 70, 3, 120, 150, 7, 0], &[3, 70, CAPACITY + 3, 120]];
    for batch in batches {
        let want = oracle.read_batch(batch);
        for (i, disk) in disks.iter_mut().enumerate() {
            assert_eq!(disk.read_batch(batch), want, "store {i}, batch {batch:?}");
            assert_eq!(take_hints(i), hinted_cells(batch), "store {i}, batch {batch:?}");
        }
        assert_eq!(disks[0].stats(), disks[1].stats(), "batch {batch:?}");
        assert_eq!(disks[0].stats().sans_cache(), oracle.stats(), "batch {batch:?}");
    }
    assert!(batches[1].iter().any(|&addr| addr >= CAPACITY));
    let stats = disks[0].stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (5, 5), "{stats}");
    let transcript: Transcript = oracle.take_transcript();
    for disk in &mut disks {
        assert_eq!(disk.take_transcript(), transcript);
    }

    // Poisoned: a failed commit, then hits served, misses refused typed and
    // charged alike, and not one hint.
    fail.store(true, Ordering::Relaxed);
    for (i, disk) in disks.iter_mut().enumerate() {
        assert_eq!(disk.write(5, cell(0xEE, CELL_LEN)), Err(ServerError::Interrupted));
        assert!(disk.is_poisoned(), "store {i}");
        take_hints(i);
        disk.reset_stats();
        assert_eq!(disk.read_batch(&[7, 70]), oracle.read_batch(&[7, 70]), "store {i}");
        assert_eq!(disk.read_batch(&[150, 3, 0]), Err(ServerError::Interrupted), "store {i}");
        assert_eq!(take_hints(i), [], "store {i}: a poisoned store hints nothing");
    }
    assert_eq!(disks[0].stats(), disks[1].stats());
    assert_eq!((disks[0].stats().downloads, disks[0].stats().round_trips), (3, 1));
}
