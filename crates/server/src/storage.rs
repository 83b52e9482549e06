//! The storage-server trait: Definition 3.1, and nothing else.
//!
//! The paper's server has two operations — download the cell at an
//! address, upload a cell to an address — and every bound this workspace
//! reproduces counts those. [`Storage`] is that interface: one download
//! primitive ([`Storage::read_batch_with`]), one upload primitive
//! ([`Storage::write_cells`]), the XOR compute extension the lower bounds
//! of Theorems 3.3/3.4 allow ([`Storage::xor_cells_into`]), and the set-up
//! and bookkeeping around them. Set-up has one primitive too,
//! [`Storage::init_with`]: the caller *produces* the cells, one borrowed
//! slice at a time in address order, into the store's sink, so the
//! database crosses every layer once — into the wire frame, into the arena
//! image — and is never gathered into a vector of owned cells on the way
//! (NOTES.md, entry 11). Everything else — `init`, `read`, `write_batch`,
//! `write_batch_strided`, … — is a *provided* spelling that makes exactly
//! one call to one primitive, so an implementor writes 10 small methods
//! and cannot disagree with another about what a spelling costs. Set-up is
//! also the only thing that sets the stride, and a cell is its stride:
//! set-up takes cells of one length, and an upload of a cell of any other
//! is refused ([`ServerError::WrongCellLength`]; NOTES.md, entries 13 and
//! 21), so a store's bytes are `capacity × stride` and need no method of
//! their own. There is no combined read+write request: in every
//! construction here the upload re-encrypts what the same request
//! downloaded, so it cannot be sent before the download's answer is in
//! (NOTES.md, entry 4).
//!
//! Every scheme drives its server through this trait, so the in-process
//! [`SimServer`](crate::SimServer), the durable
//! [`DiskStore`](crate::DiskStore) and a network-backed server are
//! interchangeable at setup time. The first two are one implementation,
//! [`Accounted`](crate::Accounted), over two cell backends; any other
//! implementation (a network client, a fault injector) forwards to one and
//! is required to be *observationally equivalent* to it: identical cells,
//! identical [`CostStats`] charging (down to the partial charges of a
//! mid-batch failure), and an identical [`Transcript`]. The
//! `store_equivalence` property suite pins that contract against an
//! independent per-cell oracle. One exception, on one method: the
//! integrity decorator [`Verified`](crate::Verified) cannot vouch for a
//! fold the server computed, so its `xor_cells_into` downloads the cells
//! and folds them client-side — charged, and seen, as a download.

use crate::server::ServerError;
use crate::stats::CostStats;
use crate::transcript::Transcript;

/// A passive balls-and-bins storage server (Definition 3.1), plus the
/// PIR-style XOR compute extension.
///
/// `Default` is deliberately *not* a supertrait — a network-backed server
/// has no meaningful "from nothing" constructor. The convenience
/// constructors that mint internal servers (`OramKvs::new_on`,
/// `RecursivePathOram::setup_on`, `ReplicatedServers::replicate_on`, …)
/// take a local `S: Storage + Default` bound instead; backends without a
/// `Default` use the `*_with` variants that accept a server or factory.
pub trait Storage: std::fmt::Debug + Send {
    /// Replaces the server contents with `capacity` cells (uncharged
    /// setup): the set-up primitive. `produce` is called once and hands
    /// each cell, in address order, to the sink it is given — borrowed, so
    /// a scheme lends `&blocks[i]`, or slices of a ciphertext chunk it
    /// reuses, and every layer underneath copies a cell once, to where it
    /// must end up (the wire frame, the arena image). Knowing `capacity` up
    /// front is what lets the image be reserved exactly. The cells' one
    /// length becomes the stride, which no later upload changes.
    ///
    /// # Panics
    /// Infallible in its signature like the rest of set-up: panics if the
    /// store cannot complete it, if `produce` hands over any number of
    /// cells but `capacity`, or if two of them differ in length.
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8])));

    /// Number of cell slots.
    fn capacity(&self) -> usize;

    /// The cell stride set-up fixed: the length of every cell (0 before
    /// any init).
    fn cell_stride(&self) -> usize;

    /// Starts recording the adversarial transcript.
    fn start_recording(&mut self);

    /// Stops recording and returns the transcript captured so far.
    fn take_transcript(&mut self) -> Transcript;

    /// Cumulative cost counters.
    fn stats(&self) -> CostStats;

    /// Resets cost counters.
    fn reset_stats(&mut self);

    /// Downloads the cells at `addrs` in one round trip, handing each cell
    /// to `visit` (batch position, cell bytes) as a borrowed slice.
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError>;

    /// Uploads `cells` — `(address, contents)` pairs, applied in order —
    /// in one round trip: the one upload primitive. All-or-nothing (on
    /// `Err` — an address out of range, a cell whose length is not the
    /// stride, a fault — no cell of the batch is stored and none is
    /// charged); an address
    /// named twice keeps its last value and is charged, and recorded in the
    /// transcript, each time; an empty batch is still a round trip. `Clone`
    /// because an implementation may need more than one pass (bounds before
    /// storing, charging after), and every caller's iterator is a cheap
    /// view of cells it already holds.
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError>;

    /// XORs the cells at `addrs` into `acc` (cleared first), charging one
    /// compute operation per cell: one stride of bytes, or none for no
    /// addresses.
    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError>;

    /// [`Storage::init_with`] for cells the caller already owns.
    #[inline]
    fn init(&mut self, cells: Vec<Vec<u8>>) {
        self.init_with(cells.len(), |sink| cells.into_iter().for_each(|cell| sink(&cell)));
    }

    /// Returns true if no cells are allocated.
    #[inline]
    fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Downloads the cells at `addrs` in one round trip, owning copies.
    #[inline]
    fn read_batch(&mut self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, ServerError> {
        let mut out = Vec::with_capacity(addrs.len());
        self.read_batch_with(addrs, |_, cell| out.push(cell.to_vec()))?;
        Ok(out)
    }

    /// Downloads a single cell (one round trip).
    #[inline]
    fn read(&mut self, addr: usize) -> Result<Vec<u8>, ServerError> {
        Ok(self.read_batch(&[addr])?.pop().expect("one cell requested"))
    }

    /// Uploads a single owned cell (one round trip).
    #[inline]
    fn write(&mut self, addr: usize, cell: Vec<u8>) -> Result<(), ServerError> {
        self.write_cells(std::iter::once((addr, cell.as_slice())))
    }

    /// Uploads a single borrowed cell (one round trip).
    #[inline]
    fn write_from(&mut self, addr: usize, cell: &[u8]) -> Result<(), ServerError> {
        self.write_cells(std::iter::once((addr, cell)))
    }

    /// Uploads the given cells in one round trip.
    #[inline]
    fn write_batch(&mut self, writes: Vec<(usize, Vec<u8>)>) -> Result<(), ServerError> {
        self.write_cells(writes.iter().map(|(addr, cell)| (*addr, cell.as_slice())))
    }

    /// Uploads equal-length cells packed back-to-back in `flat` in one
    /// round trip.
    ///
    /// # Panics
    /// Panics if `flat.len()` is not a multiple of `addrs.len()`.
    #[inline]
    fn write_batch_strided(&mut self, addrs: &[usize], flat: &[u8]) -> Result<(), ServerError> {
        if addrs.is_empty() {
            assert!(flat.is_empty(), "flat bytes without addresses");
        } else {
            assert_eq!(flat.len() % addrs.len(), 0, "flat length not a multiple of cell count");
        }
        let stride = flat.len().checked_div(addrs.len()).unwrap_or(0);
        let cell = |(i, &addr): (usize, &usize)| (addr, &flat[i * stride..(i + 1) * stride]);
        self.write_cells(addrs.iter().enumerate().map(cell))
    }

    /// XORs the cells at `addrs` together, returning the result.
    #[inline]
    fn xor_cells(&mut self, addrs: &[usize]) -> Result<Vec<u8>, ServerError> {
        let mut out = Vec::new();
        self.xor_cells_into(addrs, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SimServer;

    /// Drives a server purely through the trait, as a generic scheme would.
    fn exercise<S: Storage>(server: &mut S) {
        server.init((0..8).map(|i| vec![i as u8; 4]).collect());
        assert_eq!(server.capacity(), 8);
        assert!(!server.is_empty());
        server.start_recording();
        assert_eq!(server.read(3).unwrap(), vec![3u8; 4]);
        server.write(5, vec![9u8; 4]).unwrap();
        let cells = server.read_batch(&[5, 0]).unwrap();
        assert_eq!(cells, vec![vec![9u8; 4], vec![0u8; 4]]);
        let x = server.xor_cells(&[0, 1]).unwrap();
        assert_eq!(x, vec![1u8; 4]);
        let t = server.take_transcript();
        assert_eq!(t.round_trips(), 4);
        assert!(server.stats().operations() > 0);
        server.reset_stats();
        assert_eq!(server.stats(), CostStats::default());
    }

    #[test]
    fn sim_server_implements_the_trait_faithfully() {
        exercise(&mut SimServer::new());
    }

    /// A wrapper written against the trait as an outsider would write one:
    /// the 10 required methods, nothing else. Counts the calls reaching
    /// each data primitive as (downloads, uploads, XOR folds), and the
    /// set-ups.
    #[derive(Debug, Default)]
    struct Counting {
        inner: SimServer,
        calls: (u32, u32, u32),
        setups: u32,
    }

    impl Storage for Counting {
        fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
            self.setups += 1;
            self.inner.init_with(capacity, produce);
        }
        fn capacity(&self) -> usize {
            self.inner.capacity()
        }
        fn cell_stride(&self) -> usize {
            self.inner.cell_stride()
        }
        fn start_recording(&mut self) {
            self.inner.start_recording();
        }
        fn take_transcript(&mut self) -> Transcript {
            self.inner.take_transcript()
        }
        fn stats(&self) -> CostStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
        fn read_batch_with(
            &mut self,
            addrs: &[usize],
            visit: impl FnMut(usize, &[u8]),
        ) -> Result<(), ServerError> {
            self.calls.0 += 1;
            self.inner.read_batch_with(addrs, visit)
        }
        fn write_cells<'a>(
            &mut self,
            cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
        ) -> Result<(), ServerError> {
            self.calls.1 += 1;
            self.inner.write_cells(cells)
        }
        fn xor_cells_into(
            &mut self,
            addrs: &[usize],
            acc: &mut Vec<u8>,
        ) -> Result<(), ServerError> {
            self.calls.2 += 1;
            self.inner.xor_cells_into(addrs, acc)
        }
    }

    #[test]
    fn a_wrapper_of_the_required_methods_passes_for_the_server() {
        exercise(&mut Counting::default());
    }

    /// Every provided spelling is exactly one call to one primitive — so a
    /// wrapper that charges, faults or frames per primitive call treats all
    /// spellings alike — and one round trip on the server underneath.
    #[test]
    fn every_provided_method_is_one_call_to_one_primitive() {
        let mut s = Counting::default();
        s.init((0..8).map(|i| vec![i as u8; 4]).collect());
        assert_eq!((s.setups, s.calls), (1, (0, 0, 0)), "init");
        assert_eq!(s.read_batch(&[0, 7]).unwrap(), vec![vec![0; 4], vec![7; 4]]);
        s.calls = (0, 0, 0);
        s.reset_stats();

        s.write(1, vec![1; 4]).unwrap();
        assert_eq!(s.calls, (0, 1, 0), "write");
        s.write_from(2, &[2; 4]).unwrap();
        assert_eq!(s.calls, (0, 2, 0), "write_from");
        s.write_batch(vec![(3, vec![3; 4]), (4, vec![4; 4])]).unwrap();
        assert_eq!(s.calls, (0, 3, 0), "write_batch");
        s.write_batch_strided(&[5, 6], &[9; 8]).unwrap();
        assert_eq!(s.calls, (0, 4, 0), "write_batch_strided");
        assert_eq!(s.read(1).unwrap(), vec![1; 4]);
        assert_eq!(s.calls, (1, 4, 0), "read");
        assert_eq!(s.read_batch(&[3, 4]).unwrap(), vec![vec![3; 4], vec![4; 4]]);
        assert_eq!(s.calls, (2, 4, 0), "read_batch");
        assert_eq!(s.xor_cells(&[1, 2]).unwrap(), vec![3; 4]);
        assert_eq!(s.calls, (2, 4, 1), "xor_cells");
        assert_eq!(s.stats().round_trips, 7);
    }
}
