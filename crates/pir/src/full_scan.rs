//! Trivial single-server PIR: download the whole database.
//!
//! Both client and server are stateless; the transcript is the same for
//! every query, so this is perfectly oblivious — and maximally expensive.
//! It is the errorless baseline of experiment E1 (Theorem 3.3 says no
//! errorless DP-IR can asymptotically beat it in the balls-and-bins model).

use dps_server::{ServerError, SimServer, Storage};

/// A stateless full-download PIR client bound to a server.
#[derive(Debug)]
pub struct FullScanPir<S: Storage = SimServer> {
    server: S,
    n: usize,
    /// Cached `[0, n)` address list: the scan is the same every query, so
    /// it is built once at setup instead of reallocated per query.
    addrs: Vec<usize>,
}

impl<S: Storage> FullScanPir<S> {
    /// Stores the (public, plaintext) database on the server.
    pub fn setup(blocks: &[Vec<u8>], mut server: S) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        server.init_with(blocks.len(), |sink| blocks.iter().for_each(|b| sink(b)));
        let n = blocks.len();
        Self { server, n, addrs: (0..n).collect() }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the PIR holds no records. Derived from the actual record
    /// count rather than hard-coded (setup currently guarantees `n > 0`,
    /// but this method must not silently lie if that invariant changes).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Retrieves record `index` by downloading all `n` records through
    /// the zero-copy read path: only the requested record is copied out of
    /// the server arena; the other `n − 1` cells are never cloned. The
    /// database is public, so a record comes back as stored, whatever its
    /// length.
    #[inline]
    pub fn query(&mut self, index: usize) -> Result<Vec<u8>, ServerError> {
        assert!(index < self.n, "index out of range");
        let mut out = Vec::new();
        self.server.read_batch_with(&self.addrs, |i, cell| {
            if i == index {
                out.extend_from_slice(cell);
            }
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::{Accounted, CellBackend, CellStore};

    fn build(n: usize) -> FullScanPir {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        FullScanPir::setup(&blocks, SimServer::new())
    }

    #[test]
    fn returns_requested_record() {
        let mut pir = build(16);
        for i in [0usize, 7, 15] {
            assert_eq!(pir.query(i).unwrap(), vec![i as u8; 4]);
        }
    }

    #[test]
    fn touches_all_records() {
        let mut pir = build(32);
        let before = pir.server_stats();
        pir.query(3).unwrap();
        assert_eq!(pir.server_stats().since(&before).downloads, 32);
    }

    /// A memory backend that answers a download of `lie`'s address with
    /// `lie`'s bytes, of any length, whatever it stores: the server, not
    /// the client, chooses what a download returns.
    #[derive(Debug, Default)]
    struct Lying {
        cells: CellStore,
        lie: Option<(usize, Vec<u8>)>,
    }

    impl CellBackend for Lying {
        fn capacity(&self) -> usize {
            self.cells.capacity()
        }
        fn stride(&self) -> usize {
            self.cells.stride()
        }
        fn reset(&mut self, contents: CellStore) {
            self.cells = contents;
        }
        fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
            match &self.lie {
                Some((at, cell)) if *at == addr => Ok(cell),
                _ => Ok(self.cells.get(addr)),
            }
        }
        fn put<'a>(
            &mut self,
            items: impl Iterator<Item = (usize, &'a [u8])>,
        ) -> Result<(), ServerError> {
            self.cells.put(items)
        }
    }

    /// A record the server returns at another length than it stores —
    /// shorter, longer, empty — comes back as returned: the data is
    /// public, so the client has nothing to check it against. Its
    /// neighbours are unaffected, and a store holds no such record: an
    /// upload of one is refused.
    #[test]
    fn scan_returns_mutated_record_lengths_as_stored() {
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 6]).collect();
        let mut pir = FullScanPir::setup(&blocks, Accounted::over(Lying::default()));
        for (addr, len) in [(3, 2), (6, 10), (6, 0)] {
            pir.server_mut().lie = Some((addr, vec![9u8; len]));
            assert_eq!(pir.query(addr).unwrap(), vec![9u8; len]);
            assert_eq!(pir.query(5).unwrap(), vec![5u8; 6]);
        }
        assert!(pir.server_mut().write(3, vec![8u8; 2]).is_err());
        assert!(pir.server_mut().write(3, vec![8u8; 10]).is_err());
        pir.server_mut().lie = None;
        assert_eq!(pir.query(3).unwrap(), vec![3u8; 6]);
        assert_eq!(pir.query(7).unwrap(), vec![7u8; 6]);
    }

    #[test]
    fn transcript_is_query_independent() {
        let mut a = build(8);
        a.server_mut().start_recording();
        a.query(0).unwrap();
        let view_a = a.server_mut().take_transcript().canonical_encoding();

        let mut b = build(8);
        b.server_mut().start_recording();
        b.query(7).unwrap();
        let view_b = b.server_mut().take_transcript().canonical_encoding();
        assert_eq!(view_a, view_b, "full scan must be perfectly oblivious");
    }
}
