//! Observational equivalence of every [`Storage`] backend against the old
//! per-cell `Vec<Vec<u8>>` model.
//!
//! Each program of batched reads, writes and XORs — including failing
//! operations (an address out of range, a cell longer than the stride set-up
//! fixed) and the zero-copy variants — runs against
//! the real implementations (the flat-arena [`SimServer`] and the durable
//! tempdir-backed [`DiskStore`]: one model, [`Accounted`], over two
//! backends — and the [`Verified`] integrity decorator over the first) and
//! the reference oracle: the cells returned, the `CostStats` charged, and
//! the recorded transcript must be byte-identical for all of them. A last
//! case substitutes a faulting backend to pin what the model charges when
//! the backend, not the request, is at fault.

use dps_server::{
    AccessEvent, Accounted, CellBackend, CellStore, CostStats, DiskOptions, DiskStore, ServerError,
    SimServer, Storage, Transcript, Verified,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The old storage model, reimplemented verbatim as the test oracle: cells
/// as individually boxed vectors, with the original charging and recording
/// order.
#[derive(Default)]
struct ReferenceServer {
    cells: Vec<Vec<u8>>,
    /// The longest cell of set-up: no upload may exceed it.
    stride: usize,
    stats: CostStats,
    transcript: Option<Transcript>,
}

impl ReferenceServer {
    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.stride = cells.iter().map(Vec::len).max().unwrap_or(0);
        self.cells = cells;
    }

    fn start_recording(&mut self) {
        self.transcript = Some(Transcript::new());
    }

    fn take_transcript(&mut self) -> Transcript {
        self.transcript.take().unwrap_or_default()
    }

    fn check(&self, addr: usize) -> Result<(), ServerError> {
        if addr < self.cells.len() {
            Ok(())
        } else {
            Err(ServerError::OutOfBounds { addr, capacity: self.cells.len() })
        }
    }

    fn record(&mut self, events: Vec<AccessEvent>) {
        if let Some(t) = self.transcript.as_mut() {
            t.push_batch(events);
        }
    }

    fn read_batch(&mut self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, ServerError> {
        let mut out = Vec::with_capacity(addrs.len());
        for &addr in addrs {
            self.check(addr)?;
            let cell = &self.cells[addr];
            self.stats.downloads += 1;
            self.stats.bytes_down += cell.len() as u64;
            out.push(cell.clone());
        }
        self.stats.round_trips += 1;
        self.record(addrs.iter().map(|&a| AccessEvent::Download(a)).collect());
        Ok(out)
    }

    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError> {
        for (addr, cell) in &writes {
            self.check(*addr)?;
            if cell.len() > self.stride {
                let (addr, len, stride) = (*addr, cell.len(), self.stride);
                return Err(ServerError::CellTooLong { addr, len, stride });
            }
        }
        let events = writes.iter().map(|&(a, _)| AccessEvent::Upload(a)).collect();
        for (addr, cell) in writes {
            self.stats.uploads += 1;
            self.stats.bytes_up += cell.len() as u64;
            self.cells[addr] = cell;
        }
        self.stats.round_trips += 1;
        self.record(events);
        Ok(())
    }

    /// The XOR of the cells zero-padded to the longest.
    fn xor_cells(&mut self, addrs: &[usize]) -> Result<Vec<u8>, ServerError> {
        let mut result: Vec<u8> = Vec::new();
        for &addr in addrs {
            self.check(addr)?;
            let cell = &self.cells[addr];
            self.stats.computed += 1;
            if result.len() < cell.len() {
                result.resize(cell.len(), 0);
            }
            for (x, y) in result.iter_mut().zip(cell) {
                *x ^= y;
            }
        }
        self.stats.bytes_down += result.len() as u64;
        self.stats.round_trips += 1;
        self.record(addrs.iter().map(|&a| AccessEvent::Compute(a)).collect());
        Ok(result)
    }
}

/// One step of a random server program. Addresses range a little beyond
/// the capacity so out-of-bounds behavior is exercised too; cell lengths
/// are uniform (`CELL_LEN`, the stride) except for `WriteOdd`, which
/// exercises the short-cell paths, and `WriteTooLong`, whose batch carries
/// one cell past the stride and must be refused whole.
#[derive(Debug, Clone)]
enum Op {
    ReadBatch(Vec<usize>),
    /// Issued through `read_batch_with` on the arena server.
    ReadZeroCopy(Vec<usize>),
    /// Issued through single-cell `read` on the arena server. (The name is
    /// that of a deleted spelling; the variant keeps its selector index so
    /// every seeded program is the one it was.)
    ReadInto(usize),
    WriteBatch(Vec<(usize, u8)>),
    /// Issued through `write_batch_strided` on the arena server.
    WriteStrided(Vec<(usize, u8)>),
    /// Issued through `write_from` on the arena server.
    WriteFrom(usize, u8),
    /// A write of a length up to the stride (short-cell paths).
    WriteOdd(usize, u8, usize),
    Xor(Vec<usize>),
    /// `WriteBatch` with one cell `CELL_LEN + .1` bytes long at position
    /// `.2` (mod the batch's length + 1) of it.
    WriteTooLong(Vec<(usize, u8)>, usize, usize),
}

const CAPACITY: usize = 12;
const CELL_LEN: usize = 10;

fn cell(byte: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

fn arb_addr() -> impl Strategy<Value = usize> {
    0usize..CAPACITY + 2
}

/// `writes` followed by itself reversed, every cell with its own content:
/// each address at least twice in one batch, so "later wins" decides the
/// final cell. A DP-KVS flight uploads such batches (its two buckets share
/// upper path nodes, and its update pass rewrites the retrieval pass's).
fn duplicated(writes: &[(usize, u8)]) -> Vec<(usize, u8)> {
    let twice = writes.iter().chain(writes.iter().rev());
    twice
        .enumerate()
        .map(|(i, &(addr, byte))| (addr, byte.wrapping_add(i as u8)))
        .collect()
}

/// `writes` at `CELL_LEN`, with one cell `extra` bytes longer for `addr`
/// slipped in at a position `addr` also picks.
fn too_long_batch(writes: &[(usize, u8)], extra: usize, addr: usize) -> Vec<(usize, Vec<u8>)> {
    let mut batch: Vec<(usize, Vec<u8>)> =
        writes.iter().map(|&(a, b)| (a, cell(b, CELL_LEN))).collect();
    batch.insert(addr % (batch.len() + 1), (addr, cell(0xEE, CELL_LEN + extra)));
    batch
}

/// A wide duplicate-address batch (72 cells): each address six times.
fn wide_duplicates(addr: usize, byte: u8) -> Vec<(usize, u8)> {
    (0..6 * CAPACITY)
        .map(|i| ((addr + 5 * i) % CAPACITY, byte.wrapping_add(i as u8)))
        .collect()
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored proptest has no `prop_oneof!`; a selector byte picks the
    // variant from one tuple of raw ingredients.
    let addrs = proptest::collection::vec(arb_addr(), 0..5);
    let writes = proptest::collection::vec((arb_addr(), any::<u8>()), 0..5);
    (0u8..11, addrs, writes, arb_addr(), any::<u8>(), 0usize..20).prop_map(
        |(variant, addrs, writes, addr, byte, n)| match variant {
            0 => Op::ReadBatch(addrs),
            1 => Op::ReadZeroCopy(addrs),
            2 => Op::ReadInto(addr),
            3 => Op::WriteBatch(writes),
            4 => Op::WriteStrided(writes),
            5 => Op::WriteFrom(addr, byte),
            6 => Op::WriteOdd(addr, byte, n % (CELL_LEN + 1)),
            7 => Op::WriteStrided(duplicated(&writes)),
            8 => Op::WriteStrided(wide_duplicates(addr, byte)),
            9 => Op::Xor(addrs),
            _ => Op::WriteTooLong(writes, 1 + n % 4, addr),
        },
    )
}

/// Applies `op` to both servers and asserts identical observable results.
fn step<S: Storage>(op: &Op, arena: &mut S, reference: &mut ReferenceServer) {
    match op {
        Op::ReadBatch(addrs) => {
            assert_eq!(arena.read_batch(addrs), reference.read_batch(addrs));
        }
        Op::ReadZeroCopy(addrs) => {
            let mut seen = Vec::new();
            let got = arena.read_batch_with(addrs, |i, cell| seen.push((i, cell.to_vec())));
            match reference.read_batch(addrs) {
                Ok(cells) => {
                    assert_eq!(got, Ok(()));
                    let expected: Vec<(usize, Vec<u8>)> = cells.into_iter().enumerate().collect();
                    assert_eq!(seen, expected);
                }
                Err(e) => assert_eq!(got, Err(e)),
            }
        }
        Op::ReadInto(addr) => {
            let expected = reference.read_batch(&[*addr]).map(|mut cells| cells.remove(0));
            assert_eq!(arena.read(*addr), expected);
        }
        Op::WriteBatch(writes) => {
            let w = |(a, b): &(usize, u8)| (*a, cell(*b, CELL_LEN));
            assert_eq!(
                arena.write_batch(writes.iter().map(w).collect()),
                reference.write_batch(writes.iter().map(w).collect()),
            );
        }
        Op::WriteStrided(writes) => {
            let addrs: Vec<usize> = writes.iter().map(|&(a, _)| a).collect();
            let mut flat = Vec::new();
            for &(_, b) in writes {
                flat.extend_from_slice(&cell(b, CELL_LEN));
            }
            let got = arena.write_batch_strided(&addrs, &flat);
            let expected = reference
                .write_batch(writes.iter().map(|&(a, b)| (a, cell(b, CELL_LEN))).collect());
            assert_eq!(got, expected);
        }
        Op::WriteFrom(addr, byte) => {
            assert_eq!(
                arena.write_from(*addr, &cell(*byte, CELL_LEN)),
                reference.write_batch(vec![(*addr, cell(*byte, CELL_LEN))]),
            );
        }
        Op::WriteOdd(addr, byte, len) => {
            assert_eq!(
                arena.write(*addr, cell(*byte, *len)),
                reference.write_batch(vec![(*addr, cell(*byte, *len))]),
            );
        }
        // Cells of unequal length (`WriteOdd`) fold zero-padded.
        Op::Xor(addrs) => {
            assert_eq!(arena.xor_cells(addrs), reference.xor_cells(addrs));
        }
        // The same refusal on both sides, and nothing charged for it; the
        // transcript and the cells are compared at the end of the program.
        Op::WriteTooLong(writes, extra, addr) => {
            let batch = too_long_batch(writes, *extra, *addr);
            let before = arena.stats();
            let refused = arena.write_batch(batch.clone());
            assert_eq!(refused, reference.write_batch(batch));
            assert!(refused.is_err(), "an over-long cell was stored");
            assert_eq!(arena.stats(), before, "a refused batch was charged");
        }
    }
}

fn run_program<S: Storage>(arena: &mut S, ops: &[Op]) {
    let mut reference = ReferenceServer::default();
    let cells: Vec<Vec<u8>> = (0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect();
    arena.init(cells.clone());
    reference.init(cells);
    arena.start_recording();
    reference.start_recording();

    for op in ops {
        step(op, arena, &mut reference);
        // The cache counters are observability, not part of the paper's
        // cost model, and the reference oracle has no cache: compare the
        // model currencies only.
        assert_eq!(arena.stats().sans_cache(), reference.stats, "stats diverged after {op:?}");
    }

    assert_eq!(
        arena.take_transcript().canonical_encoding(),
        reference.take_transcript().canonical_encoding(),
        "transcripts diverged"
    );
    // Final cell-by-cell state match.
    assert_eq!(arena.stored_bytes(), reference.cells.iter().map(|c| c.len() as u64).sum());
    for addr in 0..CAPACITY {
        let got = arena.read_batch(&[addr]).map(|mut v| v.pop().unwrap());
        let expected = reference.read_batch(&[addr]).map(|mut v| v.pop().unwrap());
        assert_eq!(got, expected, "cell {addr} diverged");
    }
}

/// A unique throwaway directory for one `DiskStore` case, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dps_store_equiv_{}_{}",
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

/// Runs the program against every real backend: the flat-arena server
/// and the durable disk store (syncing, as it always does; the crash suite
/// owns durability, this suite owns observational equivalence). The
/// disk store runs twice: once with its default cache budget and once
/// with a budget of a few cells, so lent misses, a batch whose dirty cells
/// outgrow the budget and the write-back that empties it are all inside
/// the equivalence check. Last, the integrity
/// decorator over the first.
fn run_all_backends(ops: &[Op]) {
    run_program(&mut SimServer::new(), ops);
    // A 1 MiB log: no program fills it, and every case zero-fills two.
    let tmp = TempDir::new();
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, ..DiskOptions::default() };
    let mut disk = DiskStore::open_with(&tmp.0, opts).expect("create disk store");
    run_program(&mut disk, ops);
    let tmp = TempDir::new();
    let opts = DiskOptions {
        cache_bytes: 3 * CELL_LEN, // DB ≫ cache: 3 dirty of 12 cells
        ..opts
    };
    let mut disk = DiskStore::open_with(&tmp.0, opts).expect("create small-cache disk store");
    run_program(&mut disk, ops);
    // To an honest server a `Verified` store is the server it wraps: cells,
    // charges, view and errors. Its programs leave the XOR out — it folds
    // client-side from verified downloads and is charged for those, the one
    // documented difference (pinned in `verified.rs`).
    let no_folds: Vec<Op> = ops
        .iter()
        .filter(|op| !matches!(op, Op::Xor(_)))
        .cloned()
        .collect();
    run_program(&mut Verified::new(SimServer::new()), &no_folds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random programs over servers set up with every cell. (Set-up writes
    /// every cell and no write takes one away: there is no other kind.)
    #[test]
    fn backends_match_reference_initialized(ops in proptest::collection::vec(arb_op(), 0..40)) {
        run_all_backends(&ops);
    }
}

/// A `DiskStore` must also *reopen* into the reference state: after any
/// program, a fresh store on the same directory serves identical cells.
#[test]
fn disk_store_reopens_into_reference_state() {
    let ops = vec![
        Op::WriteBatch(vec![(0, 1), (5, 2)]),
        Op::WriteOdd(3, 9, 7),
        Op::WriteStrided(vec![(1, 4), (2, 5)]),
        Op::WriteTooLong(vec![(1, 6), (2, 6)], 7, 3),
        Op::WriteOdd(4, 8, 0),
        // Duplicate addresses in one WAL record: replay is "later wins" too.
        Op::WriteStrided(duplicated(&[(6, 1), (2, 7), (6, 3)])),
    ];
    let tmp = TempDir::new();
    let opts = DiskOptions::default();
    let cells: Vec<Vec<u8>> = (0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect();
    let mut reference = ReferenceServer::default();
    reference.init(cells.clone());
    {
        let mut disk = DiskStore::open_with(&tmp.0, opts).expect("create disk store");
        disk.init(cells);
        for op in &ops {
            step(op, &mut disk, &mut reference);
        }
    }
    let mut disk = DiskStore::open_with(&tmp.0, opts).expect("reopen disk store");
    assert_eq!(disk.cell_stride(), CELL_LEN, "a refused write moved the geometry");
    for addr in 0..CAPACITY {
        let got = disk.read_batch(&[addr]).map(|mut v| v.pop().unwrap());
        let expected = reference.read_batch(&[addr]).map(|mut v| v.pop().unwrap());
        assert_eq!(got, expected, "cell {addr} diverged after reopen");
    }
}

/// A memory backend whose `fail_at`-th backend call (`get` and `put`
/// counted together, from 0) faults, and only that one.
#[derive(Debug, Default)]
struct FlakyBackend {
    cells: CellStore,
    calls: usize,
    fail_at: usize,
}

impl FlakyBackend {
    fn tick(&mut self) -> Result<(), ServerError> {
        self.calls += 1;
        if self.calls - 1 == self.fail_at {
            return Err(ServerError::Interrupted);
        }
        Ok(())
    }
}

impl CellBackend for FlakyBackend {
    fn capacity(&self) -> usize {
        self.cells.capacity()
    }
    fn stride(&self) -> usize {
        self.cells.stride()
    }
    fn stored_bytes(&self) -> u64 {
        self.cells.stored_bytes()
    }
    fn reset(&mut self, contents: CellStore) {
        CellBackend::reset(&mut self.cells, contents);
    }
    fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
        self.tick()?;
        CellBackend::get(&mut self.cells, addr)
    }
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), ServerError> {
        self.tick()?;
        self.cells.put(items)
    }
}

/// Runs `op` through the `Storage` surface, returning what it downloaded.
fn apply<S: Storage>(op: &Op, server: &mut S) -> Result<Vec<Vec<u8>>, ServerError> {
    let w = |(a, b): &(usize, u8)| (*a, cell(*b, CELL_LEN));
    match op {
        Op::ReadBatch(addrs) | Op::ReadZeroCopy(addrs) => server.read_batch(addrs),
        Op::ReadInto(addr) => server.read(*addr).map(|c| vec![c]),
        Op::WriteBatch(writes) => server
            .write_batch(writes.iter().map(w).collect())
            .map(|()| Vec::new()),
        Op::WriteStrided(writes) => {
            let addrs: Vec<usize> = writes.iter().map(|&(a, _)| a).collect();
            let flat: Vec<u8> = writes.iter().flat_map(|&(_, b)| cell(b, CELL_LEN)).collect();
            server.write_batch_strided(&addrs, &flat).map(|()| Vec::new())
        }
        Op::WriteFrom(addr, byte) => server
            .write_from(*addr, &cell(*byte, CELL_LEN))
            .map(|()| Vec::new()),
        Op::WriteOdd(addr, byte, len) => {
            server.write(*addr, cell(*byte, *len)).map(|()| Vec::new())
        }
        Op::Xor(addrs) => server.xor_cells(addrs).map(|x| vec![x]),
        Op::WriteTooLong(writes, extra, addr) => server
            .write_batch(too_long_batch(writes, *extra, *addr))
            .map(|()| Vec::new()),
    }
}

/// The accounting rule when the *backend* faults, for a fault at every
/// backend call of a fixed program: the failed call is charged exactly the
/// cells it visited before the fault — no round trip, no transcript batch,
/// no upload — stores nothing, and the server carries on as if the call
/// had never been made. (What a `DiskStore` does on a poisoned cache miss.)
#[test]
fn a_backend_fault_charges_the_cells_visited_before_it_and_nothing_else() {
    let program = [
        Op::ReadBatch(vec![3, 0, 7]),
        Op::WriteStrided(duplicated(&[(1, 9), (4, 2)])),
        Op::Xor(vec![2, 1, 5]),
        Op::WriteFrom(6, 3),
        Op::WriteBatch(vec![(0, 1), (11, 2)]),
        Op::ReadZeroCopy(vec![0, 11, 6]),
    ];
    let db: Vec<Vec<u8>> = (0..CAPACITY).map(|i| cell(i as u8, CELL_LEN)).collect();
    let every: Vec<usize> = (0..CAPACITY).collect();
    let backend_calls = {
        let mut never = Accounted::over(FlakyBackend { fail_at: usize::MAX, ..Default::default() });
        never.init(db.clone());
        program
            .iter()
            .for_each(|op| drop(apply(op, &mut never).unwrap()));
        never.calls
    };
    assert_eq!(backend_calls, 12, "3 + 1 + 3 + 1 + 1 + 3 gets and puts");

    for n in 0..backend_calls {
        let mut flaky = Accounted::over(FlakyBackend { fail_at: n, ..Default::default() });
        // The twin skips the call that faults; `partial` is what that call
        // is allowed to leave behind.
        let mut twin = SimServer::new();
        let (mut partial, mut faults) = (CostStats::default(), 0);
        flaky.init(db.clone());
        twin.init(db.clone());
        flaky.start_recording();
        twin.start_recording();
        for op in &program {
            let (before, calls_before) = (flaky.stats(), flaky.calls);
            match apply(op, &mut flaky) {
                Err(ServerError::Interrupted) => {
                    let visited = (n - calls_before) as u64;
                    let expected = match op {
                        Op::Xor(_) => CostStats { computed: visited, ..CostStats::default() },
                        _ => CostStats {
                            downloads: visited,
                            bytes_down: visited * CELL_LEN as u64,
                            ..CostStats::default()
                        },
                    };
                    partial = flaky.stats().since(&before);
                    faults += 1;
                    assert_eq!(partial, expected, "fault {n} in {op:?}");
                }
                got => assert_eq!(got, apply(op, &mut twin), "fault {n}, {op:?}"),
            }
            assert_eq!(flaky.stats(), twin.stats().plus(&partial), "fault {n} after {op:?}");
        }
        assert_eq!(faults, 1, "fault {n} must fire exactly once");
        assert_eq!(
            flaky.take_transcript().canonical_encoding(),
            twin.take_transcript().canonical_encoding(),
            "fault {n}: the failed call left a transcript batch"
        );
        assert_eq!(flaky.read_batch(&every), twin.read_batch(&every), "fault {n}: cells diverged");
    }
}
