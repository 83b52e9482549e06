//! The balls-and-bins server of Definition 3.1, written once.
//!
//! [`Accounted`] is the model: what one batch costs ([`CostStats`]: cells,
//! bytes, round trips — the currencies of Theorems 3.3/3.4, 5.1, 6.1 and
//! 7.1) and what the adversary sees of it ([`Transcript`]). It holds the
//! only implementation of the three data primitives of [`Storage`]
//! (download, upload, XOR fold) — bounds check, the length check, charging,
//! the partial charge a mid-batch failure leaves behind, the round trip,
//! the transcript batch — over a [`CellBackend`], which only keeps cells:
//!
//! - [`SimServer`] is `Accounted<CellStore>`, the in-process simulator;
//! - [`DiskStore`](crate::DiskStore) is `Accounted<DiskBackend>`, the
//!   durable store (cache + WAL + checkpoints behind `get`/`put`).
//!
//! # What a backend must guarantee
//!
//! - Every cell holds a value: set-up writes them all and a write replaces
//!   one (NOTES.md, entry 14), so `get` has no "never written" answer — it
//!   returns the cell or faults.
//! - `put` is **all-or-nothing** — on `Err` no cell of the batch is
//!   visible to a later `get` that succeeds — and **later wins**: a batch
//!   naming an address twice leaves the last value.
//! - `Ok` from `put` means *stored*: as durable as the backend ever makes
//!   a cell (a [`DiskStore`](crate::DiskStore) has synced its WAL record),
//!   so there is no later barrier to wait for.
//!
//! # What the model does with a backend fault
//!
//! A failed call charges exactly the cells it visited before the fault,
//! no round trip, and records no transcript batch — the same rule as for
//! an out-of-range address mid-batch. Addresses are bounds-checked, and
//! uploaded cells held to the stride, before the backend is asked, so on a
//! faulting backend `OutOfBounds` and `WrongCellLength` win over
//! `Interrupted`.
//!
//! # A cell is its stride
//!
//! Definition 3.1's server holds blocks of one size. [`Storage::init_with`]
//! takes cells of one length, which becomes the stride (a list of two
//! lengths panics, [`CellStore::collect`]), and no write changes it: an
//! upload naming a cell of any other length is refused whole as
//! [`ServerError::WrongCellLength`] — nothing stored, charged or recorded,
//! exactly like `OutOfBounds` — in the same pass that checks its addresses,
//! [`check_upload`]. So a backend never sees a cell that is not its slot's
//! length, and every implementation that forwards to this model refuses
//! identically without code of its own; a client that cannot frame a batch
//! applies the same function to refuse it (NOTES.md, entries 13 and 21).

use std::ops::{Deref, DerefMut};

use crate::stats::{CacheTelemetry, CostStats};
use crate::storage::Storage;
use crate::store::{xor_fold, CellStore};
use crate::transcript::{AccessEvent, Transcript};

/// Errors returned by server operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// An address outside `[0, capacity)` was touched.
    OutOfBounds {
        /// The offending address.
        addr: usize,
        /// The server's capacity in cells.
        capacity: usize,
    },
    /// An upload named a cell whose length is not the stride set-up fixed;
    /// the whole batch was refused.
    WrongCellLength {
        /// The address the cell was meant for.
        addr: usize,
        /// The cell's length in bytes.
        len: usize,
        /// The server's stride in bytes.
        stride: usize,
    },
    /// The operation was cut off mid-flight by infrastructure failure
    /// (e.g. the network connection carrying it dropped before the
    /// acknowledgement arrived): whether it was applied server-side is
    /// unknown, and the caller must re-verify before retrying anything
    /// non-idempotent. The in-memory simulator never returns this; it is
    /// how a network-backed [`Storage`] surfaces a cut
    /// connection, and a durable one a failing disk, as a typed error
    /// instead of a panic.
    Interrupted,
    /// The cell a download returned is not the one the client last stored
    /// there (corrupted, swapped or rolled back): it failed the root check
    /// of a [`Verified`](crate::Verified) store. Raised client-side, after
    /// the round trip; no server sends it.
    Integrity {
        /// The address whose cell did not verify.
        addr: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::OutOfBounds { addr, capacity } => {
                write!(f, "address {addr} out of bounds (capacity {capacity})")
            }
            ServerError::WrongCellLength { addr, len, stride } => {
                write!(f, "cell of {len} bytes for address {addr} is not the stride ({stride})")
            }
            ServerError::Interrupted => {
                write!(f, "operation interrupted mid-flight; application state unknown")
            }
            ServerError::Integrity { addr } => {
                write!(f, "cell {addr} failed integrity verification")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// What [`Accounted`] needs from the thing that keeps the cells. See the
/// [module docs](self) for the guarantees an implementation owes.
///
/// Addresses handed to `get`, `put` and `prefetch` are already
/// bounds-checked against [`CellBackend::capacity`], and cells handed to
/// `put` are [`CellBackend::stride`] long; a backend may panic on any
/// other.
pub trait CellBackend: std::fmt::Debug + Send {
    /// Number of cell slots.
    fn capacity(&self) -> usize;

    /// The length of every cell: the one of the last `reset` (0 before
    /// any), unchanged by every `put`.
    fn stride(&self) -> usize;

    /// Replaces the contents with `contents` — its geometry and the arena
    /// image, already laid out at its stride by the one builder
    /// ([`CellStore::collect`]), so a backend moves the image to where it
    /// keeps cells and copies nothing. The only call that sets the stride.
    /// Set-up, like [`Storage::init_with`]: infallible in its signature, so
    /// a backend that cannot complete it panics.
    fn reset(&mut self, contents: CellStore);

    /// The cell at `addr`, or `Err` if the backend could not produce it.
    fn get(&mut self, addr: usize) -> Result<&[u8], ServerError>;

    /// Stores every `(addr, cell)` of `items`, in order, or none of them.
    /// An iterator rather than a slice so that a backend which needs no
    /// second pass (the memory arena) stores without allocating.
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), ServerError>;

    /// A hint before a batch read visits `addrs` — the batch's addresses up
    /// to the first one out of range, in order: the backend may start
    /// bringing their bytes into the CPU cache, so that the misses overlap
    /// instead of stalling one after another inside the visits. It changes
    /// no answer, counter or fault, and does no I/O. The default does
    /// nothing.
    fn prefetch(&self, _addrs: &[usize]) {}

    /// Monotone run-time counters of the backend's cell cache, surfaced as
    /// the `cache_*` fields of [`CostStats`]. Not part of the paper's cost
    /// model.
    fn telemetry(&self) -> CacheTelemetry {
        CacheTelemetry::default()
    }
}

/// A passive storage server (Definition 3.1) over the backend `B`: the
/// cost model and the adversary's view, once (see the [module docs](self)).
///
/// Cells are opaque byte strings. The server never interprets them; the
/// only operations are batched downloads and uploads (plus the PIR-style
/// [`Storage::xor_cells_into`] active operation). Each batch counts as one
/// round trip. [`Storage::read_batch_with`] hands out slices borrowed from
/// the backend — no per-cell heap traffic — and is the hot path every
/// scheme in this workspace uses.
///
/// The backend's own operational surface (for a
/// [`DiskStore`](crate::DiskStore): checkpoints, poison state) is
/// reachable through `Deref`.
#[derive(Debug, Clone, Default)]
pub struct Accounted<B> {
    cells: B,
    stats: CostStats,
    transcript: Option<Transcript>,
    /// The backend's telemetry as of the last [`Storage::reset_stats`].
    telemetry_base: CacheTelemetry,
}

/// The in-process simulator: the model over a flat memory arena
/// ([`CellStore`]).
pub type SimServer = Accounted<CellStore>;

/// The model's upload rule, for a store of `capacity` cells of `stride`
/// bytes: every address in range and every cell exactly the stride long,
/// checked in batch order, so the first violation is the error. What
/// [`Accounted`] refuses a batch with before its backend is asked, and what
/// a client that holds no cells refuses one with by itself.
pub fn check_upload<'a>(
    capacity: usize,
    stride: usize,
    cells: impl Iterator<Item = (usize, &'a [u8])>,
) -> Result<(), ServerError> {
    for (addr, cell) in cells {
        if addr >= capacity {
            return Err(ServerError::OutOfBounds { addr, capacity });
        }
        if cell.len() != stride {
            return Err(ServerError::WrongCellLength { addr, len: cell.len(), stride });
        }
    }
    Ok(())
}

impl<B: CellBackend> Accounted<B> {
    /// The model over an already-built backend, counters at zero.
    pub fn over(cells: B) -> Self {
        Self {
            cells,
            stats: CostStats::default(),
            transcript: None,
            telemetry_base: CacheTelemetry::default(),
        }
    }

    /// Creates an empty server with no cells. Call [`Storage::init`] (or a
    /// scheme's setup) to populate it.
    pub fn new() -> Self
    where
        B: Default,
    {
        Self::default()
    }

    #[inline]
    fn check(&self, addr: usize) -> Result<(), ServerError> {
        let capacity = self.cells.capacity();
        if addr < capacity {
            Ok(())
        } else {
            Err(ServerError::OutOfBounds { addr, capacity })
        }
    }

    /// Records one round trip's events, building them only when a
    /// transcript is actually being captured (the common no-transcript case
    /// pays nothing).
    fn record_with(&mut self, events: impl FnOnce() -> Vec<AccessEvent>) {
        if let Some(t) = self.transcript.as_mut() {
            t.push_batch(events());
        }
    }

    /// Hands the cells at `addrs` to `visit`, in order, until one is out
    /// of bounds or the backend faults, after passing the addresses it will
    /// reach to [`CellBackend::prefetch`]. Returns the number of cells
    /// visited, the bytes they hold, and how the walk ended: the caller
    /// charges the visited cells *before* it propagates the error, which is
    /// the partial-charge rule of a mid-batch failure.
    ///
    /// The counts are locals, not `self.stats`, so that the loop carries
    /// them in registers. Never inlined: the loop (with the backend's `get`
    /// and the visitor inlined into it) gets a function and a register
    /// allocation of its own whatever the call site looks like, at one call
    /// per batch — measured against inlining it into the callers, which
    /// made the disk store's warm read loop spill.
    #[inline(never)]
    fn walk(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> (u64, u64, Result<(), ServerError>) {
        let capacity = self.cells.capacity();
        let in_range = addrs
            .iter()
            .position(|&addr| addr >= capacity)
            .unwrap_or(addrs.len());
        self.cells.prefetch(&addrs[..in_range]);
        let (mut cells, mut bytes) = (0, 0);
        for (i, &addr) in addrs.iter().enumerate() {
            let cell = match self.check(addr).and_then(|()| self.cells.get(addr)) {
                Ok(cell) => cell,
                Err(e) => return (cells, bytes, Err(e)),
            };
            cells += 1;
            bytes += cell.len() as u64;
            visit(i, cell);
        }
        (cells, bytes, Ok(()))
    }
}

impl<B> Deref for Accounted<B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.cells
    }
}

impl<B> DerefMut for Accounted<B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.cells
    }
}

impl<B: CellBackend> Storage for Accounted<B> {
    /// Initialization is not charged to the query-cost counters (the paper
    /// treats setup separately from per-query overhead).
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        self.cells.reset(CellStore::collect(capacity, produce));
    }

    fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    fn cell_stride(&self) -> usize {
        self.cells.stride()
    }

    fn start_recording(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Transcript::new());
        }
    }

    fn take_transcript(&mut self) -> Transcript {
        self.transcript.take().unwrap_or_default()
    }

    fn stats(&self) -> CostStats {
        let cache = self.cells.telemetry();
        CostStats {
            cache_hits: cache.hits - self.telemetry_base.hits,
            cache_misses: cache.misses - self.telemetry_base.misses,
            ..self.stats
        }
    }

    fn reset_stats(&mut self) {
        self.stats = CostStats::default();
        self.telemetry_base = self.cells.telemetry();
    }

    #[inline]
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        let (cells, bytes, walked) = self.walk(addrs, visit);
        self.stats.downloads += cells;
        self.stats.bytes_down += bytes;
        walked?;
        self.stats.round_trips += 1;
        self.record_with(|| addrs.iter().map(|&a| AccessEvent::Download(a)).collect());
        Ok(())
    }

    /// Nothing is stored unless every address is in range and every cell
    /// is the stride's length ([`check_upload`]), and nothing is charged
    /// unless the backend took the batch.
    #[inline]
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError> {
        check_upload(self.cells.capacity(), self.cells.stride(), cells.clone())?;
        self.cells.put(cells.clone())?;
        for (_, cell) in cells.clone() {
            self.stats.uploads += 1;
            self.stats.bytes_up += cell.len() as u64;
        }
        self.stats.round_trips += 1;
        self.record_with(|| cells.map(|(addr, _)| AccessEvent::Upload(addr)).collect());
        Ok(())
    }

    /// XOR runs u64-chunked over slices borrowed from the backend, with no
    /// allocation once `acc` has capacity. The fold is one stride long (no
    /// cells fold to nothing), which is the length charged.
    #[inline]
    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        acc.clear();
        let (cells, _, walked) = self.walk(addrs, |_, cell| xor_fold(acc, cell));
        self.stats.computed += cells;
        walked?;
        self.stats.bytes_down += acc.len() as u64;
        self.stats.round_trips += 1;
        self.record_with(|| addrs.iter().map(|&a| AccessEvent::Compute(a)).collect());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with(n: usize) -> SimServer {
        let mut s = SimServer::new();
        s.init((0..n).map(|i| vec![i as u8; 4]).collect());
        s
    }

    #[test]
    fn read_returns_stored_cell() {
        let mut s = server_with(8);
        assert_eq!(s.read(3).unwrap(), vec![3u8; 4]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = server_with(8);
        s.write(5, vec![9u8; 4]).unwrap();
        assert_eq!(s.read(5).unwrap(), vec![9u8; 4]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut s = server_with(4);
        assert_eq!(s.read(4), Err(ServerError::OutOfBounds { addr: 4, capacity: 4 }));
        assert_eq!(s.write(9, vec![]), Err(ServerError::OutOfBounds { addr: 9, capacity: 4 }));
    }

    #[test]
    fn stats_track_ops_bytes_and_round_trips() {
        let mut s = server_with(8);
        s.read_batch(&[0, 1, 2]).unwrap();
        s.write(3, vec![0u8; 4]).unwrap();
        let stats = s.stats();
        assert_eq!(stats.downloads, 3);
        assert_eq!(stats.uploads, 1);
        assert_eq!(stats.bytes_down, 12);
        assert_eq!(stats.bytes_up, 4);
        assert_eq!(stats.round_trips, 2);
    }

    #[test]
    fn transcript_records_exact_view() {
        let mut s = server_with(4);
        s.start_recording();
        s.read_batch(&[2, 0]).unwrap();
        s.write(1, vec![0u8; 4]).unwrap();
        let t = s.take_transcript();
        let batches: Vec<Vec<AccessEvent>> = t.batches().map(|b| b.to_vec()).collect();
        assert_eq!(
            batches,
            vec![
                vec![AccessEvent::Download(2), AccessEvent::Download(0)],
                vec![AccessEvent::Upload(1)],
            ]
        );
        // Recording stops after take_transcript: a second take is empty.
        s.read(0).unwrap();
        assert_eq!(s.take_transcript().round_trips(), 0);
    }

    #[test]
    fn xor_cells_computes_parity_and_charges_ops() {
        let mut s = SimServer::new();
        s.init(vec![vec![0b1010], vec![0b0110], vec![0b0001]]);
        let before = s.stats();
        let x = s.xor_cells(&[0, 1, 2]).unwrap();
        assert_eq!(x, vec![0b1101]);
        let diff = s.stats().since(&before);
        assert_eq!(diff.computed, 3);
        assert_eq!(diff.round_trips, 1);
    }

    #[test]
    fn xor_cells_empty_set_is_empty() {
        let mut s = server_with(2);
        assert_eq!(s.xor_cells(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn failed_batch_mutates_nothing() {
        let mut s = server_with(2);
        let before_stats = s.stats();
        // Second write is out of bounds, or longer or shorter than the
        // stride: the whole batch must be rejected without applying the
        // first write — and whichever refusal comes first in the batch is
        // the error.
        let out_of_bounds = ServerError::OutOfBounds { addr: 7, capacity: 2 };
        let too_long = ServerError::WrongCellLength { addr: 1, len: 5, stride: 4 };
        let too_short = ServerError::WrongCellLength { addr: 1, len: 3, stride: 4 };
        for (batch, refusal) in [
            (vec![(0, vec![9u8; 4]), (7, vec![1u8; 4])], out_of_bounds.clone()),
            (vec![(0, vec![9u8; 4]), (1, vec![1u8; 5])], too_long.clone()),
            (vec![(0, vec![9u8; 4]), (1, vec![1u8; 3])], too_short.clone()),
            (vec![(1, vec![1u8; 5]), (7, vec![1u8; 4])], too_long),
            (vec![(1, vec![1u8; 3]), (7, vec![1u8; 4])], too_short),
            (vec![(7, vec![1u8; 4]), (1, vec![1u8; 5])], out_of_bounds),
        ] {
            assert_eq!(s.write_batch(batch), Err(refusal));
        }
        assert_eq!(s.read(0).unwrap(), vec![0u8; 4]);
        assert_eq!(s.cell_stride(), 4);
        // Only the successful read above should have been charged.
        assert_eq!(s.stats().since(&before_stats).uploads, 0);
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut s = server_with(2);
        s.read(0).unwrap();
        s.reset_stats();
        assert_eq!(s.stats(), CostStats::default());
    }

    #[test]
    fn read_batch_with_visits_cells_in_order() {
        let mut s = server_with(8);
        let before = s.stats();
        let mut seen = Vec::new();
        s.read_batch_with(&[5, 1, 5], |i, cell| seen.push((i, cell.to_vec())))
            .unwrap();
        assert_eq!(seen, vec![(0, vec![5u8; 4]), (1, vec![1u8; 4]), (2, vec![5u8; 4])]);
        let diff = s.stats().since(&before);
        assert_eq!(diff.downloads, 3);
        assert_eq!(diff.bytes_down, 12);
        assert_eq!(diff.round_trips, 1);
    }

    #[test]
    fn write_from_and_strided_match_owning_writes() {
        let mut s = server_with(8);
        s.write_from(1, &[9u8; 4]).unwrap();
        assert_eq!(s.read(1).unwrap(), vec![9u8; 4]);

        let flat = [7u8, 7, 7, 7, 8, 8, 8, 8];
        s.write_batch_strided(&[2, 3], &flat).unwrap();
        assert_eq!(s.read(2).unwrap(), vec![7u8; 4]);
        assert_eq!(s.read(3).unwrap(), vec![8u8; 4]);
        // Same stats accounting as the owning write path.
        let mut reference = server_with(8);
        reference.write(1, vec![9u8; 4]).unwrap();
        reference
            .write_batch(vec![(2, vec![7u8; 4]), (3, vec![8u8; 4])])
            .unwrap();
        let mut lhs = s.stats();
        let mut rhs = reference.stats();
        // Cancel the three verification reads done above.
        lhs.downloads = 0;
        lhs.bytes_down = 0;
        lhs.round_trips -= 3;
        rhs.downloads = 0;
        rhs.bytes_down = 0;
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn strided_write_out_of_bounds_mutates_nothing() {
        let mut s = server_with(2);
        let err = s.write_batch_strided(&[0, 9], &[1u8, 1, 1, 1, 2, 2, 2, 2]);
        assert!(err.is_err());
        assert_eq!(s.read(0).unwrap(), vec![0u8; 4]);
        assert_eq!(s.stats().uploads, 0);
    }

    #[test]
    fn xor_cells_into_reuses_scratch() {
        let mut s = SimServer::new();
        s.init(vec![vec![0b1010], vec![0b0110], vec![0b0001]]);
        let mut acc = vec![0xFFu8; 16]; // stale contents must be cleared
        s.xor_cells_into(&[0, 1, 2], &mut acc).unwrap();
        assert_eq!(acc, vec![0b1101]);
    }

    #[test]
    fn zero_copy_paths_record_same_transcript_as_owning() {
        let mut a = server_with(4);
        a.start_recording();
        a.read_batch(&[2, 0]).unwrap();
        a.write(1, vec![0u8; 4]).unwrap();
        a.write_batch(vec![(2, vec![1u8; 4]), (3, vec![2u8; 4])])
            .unwrap();
        let view_a = a.take_transcript().canonical_encoding();

        let mut b = server_with(4);
        b.start_recording();
        b.read_batch_with(&[2, 0], |_, _| {}).unwrap();
        b.write_from(1, &[0u8; 4]).unwrap();
        b.write_batch_strided(&[2, 3], &[1, 1, 1, 1, 2, 2, 2, 2])
            .unwrap();
        let view_b = b.take_transcript().canonical_encoding();
        assert_eq!(view_a, view_b);
    }

    /// The stride is set-up's one cell length, and only set-up moves it.
    #[test]
    fn cell_stride_tracks_arena_geometry() {
        let mut s = server_with(4);
        assert_eq!(s.cell_stride(), 4);
        assert!(s.write(0, vec![0u8; 1]).is_err());
        assert_eq!(s.cell_stride(), 4, "a shorter write is refused, not laid out");
        assert!(s.write(0, vec![0u8; 7]).is_err());
        assert_eq!(s.cell_stride(), 4, "a longer write is refused, not laid out");
        let mut empty = SimServer::new();
        assert_eq!(empty.cell_stride(), 0);
        empty.init(vec![vec![2; 7]; 3]);
        assert_eq!(empty.cell_stride(), 7);
        empty.init(vec![Vec::new(); 3]);
        assert_eq!((empty.capacity(), empty.cell_stride()), (3, 0), "empty cells are uniform");
    }

    /// A set-up of two cell lengths panics and leaves the server as it was.
    #[test]
    fn a_ragged_set_up_panics_and_keeps_the_old_contents() {
        let mut s = server_with(4);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.init(vec![vec![1; 4], vec![2; 3]]);
        }));
        assert!(refused.is_err());
        assert_eq!((s.capacity(), s.cell_stride()), (4, 4));
        assert_eq!(s.read(3).unwrap(), vec![3u8; 4]);
    }

    /// The lifted rule is the model's: the first violation in batch order.
    #[test]
    fn check_upload_is_the_rule_write_cells_applies() {
        let batches: [&[(usize, &[u8])]; 5] = [
            &[],
            &[(0, &[1; 4]), (3, &[2; 4])],
            &[(0, &[1; 4]), (4, &[2; 3])],
            &[(0, &[1; 3]), (4, &[2; 4])],
            &[(1, &[]), (2, &[1; 4])],
        ];
        for batch in batches {
            let mut s = server_with(4);
            let rule = check_upload(4, 4, batch.iter().copied());
            assert_eq!(s.write_cells(batch.iter().copied()), rule, "{batch:?}");
        }
    }
}
