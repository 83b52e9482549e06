//! Flat-arena cell storage.
//!
//! [`CellStore`] keeps every cell in a single contiguous `Vec<u8>` arena
//! sliced at a fixed *stride* (the longest cell of set-up), next to a
//! `CellIndex`: the per-cell length table. Every cell holds a value — set-up
//! writes them all, and no write takes one away (NOTES.md, entry 14). Reads
//! hand out `&[u8]` slices straight into the arena — no allocation, no copy
//! — which is what makes the server's zero-copy API
//! ([`Storage::read_batch_with`](crate::Storage::read_batch_with)) possible.
//!
//! Cells are *usually* uniform-length (every scheme in this workspace pads
//! cells to equal length for length-indistinguishability), but the store
//! keeps the per-cell model exactly: shorter cells record their true
//! length. No write changes the stride: the model refuses a cell longer
//! than it ([`ServerError::CellTooLong`]) before the store is asked
//! (NOTES.md, entry 13).
//!
//! The index is its own type because the durable backend
//! ([`crate::disk`]) keeps the same table resident over payloads that live
//! in a file: both backends answer "how long is this cell" from the one
//! implementation.

use crate::server::{CellBackend, ServerError};

/// The always-resident per-cell table of a backend: slot width, true
/// length of every cell, and the running total of stored bytes.
#[derive(Debug, Clone, Default)]
pub(crate) struct CellIndex {
    /// Slot width in bytes.
    stride: usize,
    /// Actual byte length of each cell (≤ `stride`).
    lens: Vec<u32>,
    /// Sum of `lens`.
    stored: u64,
}

impl CellIndex {
    /// `lens.len()` cells at the longest one's width.
    pub fn all_written(lens: Vec<u32>) -> Self {
        let stride = lens.iter().copied().max().unwrap_or(0) as usize;
        Self::from_parts(stride, lens)
    }

    /// Adopts a decoded table.
    pub fn from_parts(stride: usize, lens: Vec<u32>) -> Self {
        let stored = lens.iter().map(|&len| len as u64).sum();
        Self { stride, lens, stored }
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.lens.len()
    }

    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total bytes of cell content (slack between a cell's length and the
    /// stride is not counted).
    #[inline]
    pub fn stored_bytes(&self) -> u64 {
        self.stored
    }

    /// The length of the cell at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn len_of(&self, addr: usize) -> usize {
        self.lens[addr] as usize
    }

    /// Records that the cell at `addr` now holds `len` bytes.
    ///
    /// # Panics
    /// Panics if `len` exceeds the stride: the model refuses such a cell
    /// before a backend sees it, and a backend called around the model must
    /// not lay it over the next slot.
    #[inline]
    pub fn record(&mut self, addr: usize, len: usize) {
        assert!(len <= self.stride, "cell longer than its slot");
        self.stored = self.stored - self.len_of(addr) as u64 + len as u64;
        self.lens[addr] = len as u32;
    }

    /// The length table, for snapshots.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }
}

/// Contiguous fixed-stride storage for variable-length cells.
#[derive(Debug, Clone, Default)]
pub struct CellStore {
    /// The arena: `capacity * stride` bytes, cell `i` at `i * stride`.
    data: Vec<u8>,
    index: CellIndex,
}

impl CellStore {
    /// An empty store with no cells.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store holding `cells`. The stride is the longest cell's
    /// length.
    pub fn from_cells(cells: &[Vec<u8>]) -> Self {
        Self::collect(cells.len(), |sink| cells.iter().for_each(|cell| sink(cell)))
    }

    /// Builds a store of `capacity` cells from a producer that hands each
    /// cell to the sink in address order — the one "cells → strided image"
    /// builder behind both backends'
    /// [`Storage::init_with`](crate::Storage::init_with). Each cell is
    /// copied once, to where it stays: the cells are appended back to back into an arena
    /// reserved from `capacity` × the first cell's length, and while every
    /// cell has that length — every scheme's do — the appended bytes *are*
    /// the image. Only a ragged list pays a second pass that re-lays the
    /// cells out at the longest one's stride.
    ///
    /// # Panics
    /// Panics if the producer hands over any number of cells but `capacity`.
    pub fn collect(capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Self {
        let mut data = Vec::new();
        let mut lens = Vec::with_capacity(capacity);
        produce(&mut |cell| {
            if lens.is_empty() {
                data.reserve_exact(capacity.saturating_mul(cell.len()));
            }
            data.extend_from_slice(cell);
            lens.push(u32::try_from(cell.len()).expect("cell longer than 4 GiB"));
        });
        assert_eq!(lens.len(), capacity, "set-up produced a different number of cells");
        let index = CellIndex::all_written(lens);
        let stride = index.stride();
        if data.len() != capacity * stride {
            let packed = std::mem::replace(&mut data, vec![0u8; capacity * stride]);
            let mut at = 0;
            for (slot, &len) in data.chunks_exact_mut(stride).zip(index.lens()) {
                slot[..len as usize].copy_from_slice(&packed[at..at + len as usize]);
                at += len as usize;
            }
        }
        Self { data, index }
    }

    /// The arena image (`capacity × stride` bytes) and the cell table, for
    /// a backend that keeps them apart.
    pub(crate) fn into_parts(self) -> (Vec<u8>, CellIndex) {
        (self.data, self.index)
    }

    /// Number of cell slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.index.capacity()
    }

    /// True if the store holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Current slot width in bytes.
    #[inline]
    pub fn stride(&self) -> usize {
        self.index.stride()
    }

    /// The cell at `addr`. The returned slice borrows the arena directly:
    /// zero-copy.
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn get(&self, addr: usize) -> &[u8] {
        let start = addr * self.index.stride();
        &self.data[start..start + self.index.len_of(addr)]
    }

    /// Stores `bytes` at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is out of range, or if `bytes` is longer than the
    /// stride (the model refuses such a cell before it gets here).
    #[inline]
    pub fn set(&mut self, addr: usize, bytes: &[u8]) {
        assert!(addr < self.capacity(), "cell address {addr} out of range");
        self.index.record(addr, bytes.len());
        let start = addr * self.stride();
        self.data[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Total bytes of cell content (the server-storage measure; slack
    /// between a cell's length and the stride is not counted, matching the
    /// per-cell model).
    pub fn stored_bytes(&self) -> u64 {
        self.index.stored_bytes()
    }
}

/// The memory backend of [`SimServer`](crate::SimServer): nothing can
/// fault, nothing is deferred, and `put` never allocates.
impl CellBackend for CellStore {
    fn capacity(&self) -> usize {
        CellStore::capacity(self)
    }

    fn stride(&self) -> usize {
        CellStore::stride(self)
    }

    fn stored_bytes(&self) -> u64 {
        CellStore::stored_bytes(self)
    }

    fn reset(&mut self, contents: CellStore) {
        *self = contents;
    }

    #[inline]
    fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
        Ok(CellStore::get(self, addr))
    }

    #[inline]
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), ServerError> {
        for (addr, cell) in items {
            self.set(addr, cell);
        }
        Ok(())
    }
}

/// XORs `cell` into the prefix of `acc`, first growing `acc` with zeros to
/// `cell`'s length if it is shorter. Folded over cells from an empty `acc`
/// this is the XOR of the cells zero-padded to the longest — the PIR
/// convention, whatever lengths set-up left the cells at.
pub(crate) fn xor_fold(acc: &mut Vec<u8>, cell: &[u8]) {
    if acc.len() < cell.len() {
        acc.resize(cell.len(), 0);
    }
    xor_slices(&mut acc[..cell.len()], cell);
}

/// XORs `src` into `acc` (`acc[i] ^= src[i]`), eight bytes at a time over
/// the aligned prefix. Both slices must have equal length.
fn xor_slices(acc: &mut [u8], src: &[u8]) {
    debug_assert_eq!(acc.len(), src.len(), "XOR over unequal cells");
    let mut acc_chunks = acc.chunks_exact_mut(8);
    let mut src_chunks = src.chunks_exact(8);
    for (a, s) in (&mut acc_chunks).zip(&mut src_chunks) {
        let v = u64::from_le_bytes(a[..8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
        a.copy_from_slice(&v.to_le_bytes());
    }
    for (a, s) in acc_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        *a ^= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cells_round_trips() {
        let cells = vec![vec![1u8, 2, 3], vec![], vec![9u8; 3]];
        let store = CellStore::from_cells(&cells);
        assert_eq!(store.capacity(), 3);
        assert_eq!(store.stride(), 3);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(store.get(i), cell.as_slice());
        }
    }

    /// The builder's image is the one `set` lays out cell by cell, whether
    /// the appended bytes were the image already (uniform cells) or had to
    /// be re-laid at the stride of a longer cell that came last.
    #[test]
    fn collect_lays_out_what_per_cell_writes_do() {
        let (word, over) = (vec![1; 64], vec![2; 65]);
        for lens in [vec![], vec![0, 0], vec![4, 4, 4], vec![4, 0, 4, 9], vec![9, 4, 0], word, over]
        {
            let cells: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| vec![i as u8 + 1; len])
                .collect();
            let built = CellStore::from_cells(&cells);
            let mut written = CellStore::from_cells(&vec![vec![0; built.stride()]; cells.len()]);
            cells
                .iter()
                .enumerate()
                .for_each(|(i, cell)| written.set(i, cell));
            assert_eq!(built.stride(), written.stride(), "{lens:?}");
            assert_eq!(built.stored_bytes(), written.stored_bytes(), "{lens:?}");
            assert_eq!(built.data, written.data, "{lens:?}");
            assert_eq!(built.index.lens(), written.index.lens(), "{lens:?}");
        }
    }

    #[test]
    #[should_panic(expected = "different number of cells")]
    fn collect_holds_the_producer_to_its_count() {
        CellStore::collect(3, |sink| sink(&[1, 2]));
    }

    /// Called around the model, the store still never lays a cell over its
    /// neighbour's slot, in release builds too.
    #[test]
    #[should_panic(expected = "cell longer than its slot")]
    fn a_cell_longer_than_the_stride_is_never_laid_down() {
        CellStore::from_cells(&[vec![1u8; 4], vec![2u8; 4]]).set(0, &[3u8; 5]);
    }

    #[test]
    fn shorter_write_shrinks_reported_length() {
        let mut store = CellStore::from_cells(&[vec![5u8; 8]]);
        store.set(0, &[1u8]);
        assert_eq!(store.get(0), &[1u8]);
        assert_eq!(store.stored_bytes(), 1);
    }

    #[test]
    fn stored_bytes_sums_true_lengths() {
        let store = CellStore::from_cells(&[vec![0u8; 4], vec![0u8; 2], vec![]]);
        assert_eq!(store.stored_bytes(), 6);
    }

    #[test]
    fn xor_slices_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let a: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 91 + 3) as u8).collect();
            let expected: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let mut acc = a.clone();
            xor_slices(&mut acc, &b);
            assert_eq!(acc, expected, "len {len}");
        }
    }

    /// Cells of any lengths, in any order, fold to their XOR zero-padded to
    /// the longest.
    #[test]
    fn xor_fold_pads_shorter_cells_with_zeros() {
        let cells: Vec<Vec<u8>> = [12, 20, 0, 7, 20].iter().map(|&n| (1..=n).collect()).collect();
        let mut padded = vec![0u8; 20];
        for cell in &cells {
            padded.iter_mut().zip(cell).for_each(|(p, c)| *p ^= c);
        }
        for order in [[0, 1, 2, 3, 4], [2, 4, 3, 1, 0]] {
            let mut acc = Vec::new();
            order.iter().for_each(|&i| xor_fold(&mut acc, &cells[i]));
            assert_eq!(acc, padded, "{order:?}");
        }
    }
}
