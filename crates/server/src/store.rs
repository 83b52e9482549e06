//! Flat-arena cell storage.
//!
//! [`CellStore`] keeps every cell in a single contiguous `Vec<u8>` arena
//! sliced at a fixed *stride*, and every cell is exactly one stride long:
//! Definition 3.1's server holds blocks of one size, and every scheme here
//! pads its cells to one length for length-indistinguishability, so the
//! geometry — `(capacity, stride)` — is the whole of the store's metadata.
//! Set-up fixes the stride at its cells' one length and refuses a list of
//! two ([`CellStore::collect`]); the model refuses an upload of any other
//! length ([`ServerError::WrongCellLength`](crate::ServerError)) before the
//! store is asked (NOTES.md, entries 13 and 21). Every cell holds a value —
//! set-up writes them all, and no write takes one away (NOTES.md, entry 14).
//! Reads hand out `&[u8]` slices straight into the arena — no allocation,
//! no copy — which is what makes the server's zero-copy API
//! ([`Storage::read_batch_with`](crate::Storage::read_batch_with)) possible.

use crate::server::{CellBackend, ServerError};

/// Contiguous fixed-stride storage for cells of one length.
#[derive(Debug, Clone, Default)]
pub struct CellStore {
    /// The arena: `capacity * stride` bytes, cell `i` at `i * stride`.
    data: Vec<u8>,
    capacity: usize,
    stride: usize,
}

impl CellStore {
    /// An empty store with no cells.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a store holding `cells`, at their one length.
    ///
    /// # Panics
    /// Panics if the cells differ in length.
    pub fn from_cells(cells: &[Vec<u8>]) -> Self {
        Self::collect(cells.len(), |sink| cells.iter().for_each(|cell| sink(cell)))
    }

    /// Builds a store of `capacity` cells from a producer that hands each
    /// cell to the sink in address order — the one "cells → strided image"
    /// builder behind both backends'
    /// [`Storage::init_with`](crate::Storage::init_with). The first cell's
    /// length is the stride; the arena is reserved from `capacity` × the
    /// stride and each cell is copied once, to where it stays: the cells
    /// appended back to back *are* the image.
    ///
    /// # Panics
    /// Panics if the producer hands over any number of cells but
    /// `capacity`, or a cell whose length is not the first one's (set-up is
    /// infallible in its signature; a store of no cells, or of empty ones,
    /// is uniform).
    pub fn collect(capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Self {
        let (mut data, mut count, mut stride) = (Vec::new(), 0usize, 0usize);
        produce(&mut |cell| {
            if count == 0 {
                stride = cell.len();
                data.reserve_exact(capacity.saturating_mul(stride));
            }
            assert!(
                cell.len() == stride,
                "set-up cells differ in length: cell {count} is {} bytes, cell 0 {stride}",
                cell.len()
            );
            data.extend_from_slice(cell);
            count += 1;
        });
        assert_eq!(count, capacity, "set-up produced a different number of cells");
        Self { data, capacity, stride }
    }

    /// The arena image (`capacity × stride` bytes), for a backend that
    /// keeps it elsewhere.
    pub(crate) fn into_image(self) -> Vec<u8> {
        self.data
    }

    /// Number of cell slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if the store holds no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity == 0
    }

    /// The length of every cell, in bytes.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The cell at `addr`. The returned slice borrows the arena directly:
    /// zero-copy.
    ///
    /// # Panics
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn get(&self, addr: usize) -> &[u8] {
        assert!(addr < self.capacity, "cell address {addr} out of range");
        &self.data[addr * self.stride..(addr + 1) * self.stride]
    }

    /// Stores `bytes` at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` is out of range, or if `bytes` is not the stride's
    /// length (the model refuses such a cell before it gets here).
    #[inline]
    pub fn set(&mut self, addr: usize, bytes: &[u8]) {
        assert!(addr < self.capacity, "cell address {addr} out of range");
        assert!(bytes.len() == self.stride, "cell is not its slot's length");
        self.data[addr * self.stride..(addr + 1) * self.stride].copy_from_slice(bytes);
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

/// XORs `cell` into `acc`, which an empty `acc` takes its length from.
/// Folded over cells from an empty `acc` this is the XOR of the cells — all
/// one length, the stride — and over no cells it is empty.
///
/// # Panics
/// Panics if `cell`'s length is neither `acc`'s nor the first of the fold.
pub(crate) fn xor_fold(acc: &mut Vec<u8>, cell: &[u8]) {
    if acc.is_empty() {
        acc.resize(cell.len(), 0);
    }
    assert!(acc.len() == cell.len(), "XOR over cells of unequal length");
    xor_slices(acc, cell);
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
        let cells = vec![vec![1u8, 2, 3], vec![0; 3], vec![9u8; 3]];
        let store = CellStore::from_cells(&cells);
        assert_eq!(store.capacity(), 3);
        assert_eq!(store.stride(), 3);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(store.get(i), cell.as_slice());
        }
    }

    /// The builder's image is the one `set` lays out cell by cell, for
    /// every uniform list — none, empty cells, short and word-long ones.
    #[test]
    fn collect_lays_out_what_per_cell_writes_do() {
        for (n, len) in [(0, 0), (2, 0), (3, 4), (4, 9), (3, 64), (2, 65)] {
            let cells: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8 + 1; len]).collect();
            let built = CellStore::from_cells(&cells);
            let mut written = CellStore::from_cells(&vec![vec![0; len]; n]);
            cells
                .iter()
                .enumerate()
                .for_each(|(i, cell)| written.set(i, cell));
            assert_eq!(built.stride(), written.stride(), "{n} × {len}");
            assert_eq!(built.data, written.data, "{n} × {len}");
        }
    }

    /// A list of two lengths is refused wherever the odd cell stands,
    /// naming its address.
    #[test]
    fn collect_refuses_cells_of_two_lengths() {
        for lens in [vec![4, 0], vec![0, 4], vec![4, 4, 5], vec![9, 4, 9]] {
            let cells: Vec<Vec<u8>> = lens.iter().map(|&len| vec![1; len]).collect();
            let refused = std::panic::catch_unwind(|| CellStore::from_cells(&cells));
            let message = *refused
                .expect_err("a ragged list was laid out")
                .downcast::<String>()
                .unwrap();
            let odd = lens.iter().position(|&len| len != lens[0]).unwrap();
            assert!(message.starts_with("set-up cells differ in length"), "{message}");
            assert!(message.contains(&format!("cell {odd} ")), "{message}");
        }
    }

    #[test]
    #[should_panic(expected = "different number of cells")]
    fn collect_holds_the_producer_to_its_count() {
        CellStore::collect(3, |sink| sink(&[1, 2]));
    }

    /// Called around the model, the store still never lays a cell over its
    /// neighbour's slot, nor a short one into its own, in release builds
    /// too.
    #[test]
    #[should_panic(expected = "cell is not its slot's length")]
    fn a_cell_longer_than_the_stride_is_never_laid_down() {
        CellStore::from_cells(&[vec![1u8; 4], vec![2u8; 4]]).set(0, &[3u8; 5]);
    }

    #[test]
    #[should_panic(expected = "cell is not its slot's length")]
    fn a_cell_shorter_than_the_stride_is_never_laid_down() {
        CellStore::from_cells(&[vec![1u8; 4], vec![2u8; 4]]).set(0, &[3u8; 3]);
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

    /// The fold takes its length from the first cell: no cells fold to
    /// nothing, and a cell of another length is refused, not padded.
    #[test]
    fn xor_fold_sizes_from_the_first_cell_and_refuses_another_length() {
        let mut acc = Vec::new();
        for cell in [[1u8, 2, 3], [4, 5, 6], [1, 1, 1]] {
            xor_fold(&mut acc, &cell);
        }
        assert_eq!(acc, [4, 6, 4]);
        let refused = std::panic::catch_unwind(move || xor_fold(&mut acc, &[1, 2]));
        assert!(refused.is_err(), "a shorter cell was folded");
    }
}
