//! Trivial single-server PIR: download the whole database.
//!
//! Both client and server are stateless; the transcript is the same for
//! every query, so this is perfectly oblivious — and maximally expensive.
//! It is the errorless baseline of experiment E1 (Theorem 3.3 says no
//! errorless DP-IR can asymptotically beat it in the balls-and-bins model).

use dps_server::{ServerError, SimServer, Storage, WorkerPool};

/// A stateless full-download PIR client bound to a server.
///
/// With a non-sequential [`WorkerPool`] ([`FullScanPir::with_pool`]) and
/// uniform record sizes, each query downloads the database through the
/// bulk [`Storage::read_batch_strided`] path: one copy of the whole
/// database into a flat scratch. Stats and transcript are identical
/// either way; the answer is always the same.
#[derive(Debug)]
pub struct FullScanPir<S: Storage = SimServer> {
    server: S,
    n: usize,
    /// Cached `[0, n)` address list: the scan is the same every query, so
    /// it is built once at setup instead of reallocated per query.
    addrs: Vec<usize>,
    /// Worker pool gating the bulk strided scan (sequential default).
    pool: WorkerPool,
    /// Uniform record length, when the database has one (required for the
    /// strided bulk path).
    record_len: Option<usize>,
    /// Reusable flat scratch for the bulk strided scan.
    scan_scratch: Vec<u8>,
}

impl<S: Storage> FullScanPir<S> {
    /// Stores the (public, plaintext) database on the server.
    pub fn setup(blocks: &[Vec<u8>], mut server: S) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let first_len = blocks[0].len();
        let record_len = blocks.iter().all(|b| b.len() == first_len).then_some(first_len);
        server.init(blocks.to_vec());
        let n = blocks.len();
        Self {
            server,
            n,
            addrs: (0..n).collect(),
            pool: WorkerPool::single(),
            record_len,
            scan_scratch: Vec::new(),
        }
    }

    /// Sets the worker pool. A non-sequential pool opts queries into the
    /// bulk strided scan (requires uniform record sizes; ragged databases
    /// keep the per-cell path). The pool acts as the opt-in switch only:
    /// no backend in this workspace fans the copy out, so on a
    /// [`SimServer`] the bulk path only adds copying and is not worth
    /// enabling.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
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

    /// Retrieves record `index` by downloading all `n` records. The
    /// default scan uses the zero-copy read path: only the requested
    /// record is copied out of the server arena; the other `n − 1` cells
    /// are never cloned. With a non-sequential pool (and uniform records)
    /// the scan instead bulk-copies through the backend's fanned
    /// [`Storage::read_batch_strided`].
    #[inline]
    pub fn query(&mut self, index: usize) -> Result<Vec<u8>, ServerError> {
        assert!(index < self.n, "index out of range");
        // The bulk path assumes the records still have their uniform
        // setup-time length — PIR databases are static, but `server_mut`
        // could have rewritten a cell, so verify cheaply and fall back to
        // the per-cell path (which handles any lengths) when in doubt.
        if let (false, Some(len)) = (self.pool.is_sequential(), self.record_len) {
            // Shrunk cells lower stored_bytes; grown cells raise the arena
            // stride — either mismatch routes to the fallback.
            if self.server.stored_bytes() == (self.n * len) as u64
                && self.server.cell_stride() == len
            {
                // The guard above means every cell is exactly `len` bytes,
                // so the strided read overwrites the whole scratch — no
                // zeroing needed on reuse.
                self.scan_scratch.resize(self.n * len, 0);
                self.server
                    .read_batch_strided(&self.addrs, &mut self.scan_scratch)?;
                return Ok(self.scan_scratch[index * len..(index + 1) * len].to_vec());
            }
        }
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

    /// The pooled bulk scan returns the same records with the same stats
    /// and transcript as the default zero-copy path.
    #[test]
    fn pooled_scan_matches_default() {
        let blocks: Vec<Vec<u8>> = (0..24).map(|i| vec![i as u8; 8]).collect();
        let mut reference = FullScanPir::setup(&blocks, SimServer::new());
        let mut pooled =
            FullScanPir::setup(&blocks, SimServer::new()).with_pool(WorkerPool::new(4));
        for i in 0..24 {
            let want = reference.query(i).unwrap();
            assert_eq!(pooled.query(i).unwrap(), want, "record {i}");
        }
        assert_eq!(reference.server_stats(), pooled.server_stats());
    }

    /// If a record is rewritten to a different length behind the client's
    /// back, the pooled bulk path detects the layout change and falls
    /// back to the per-cell path — answers stay identical to the default.
    #[test]
    fn pooled_scan_falls_back_on_mutated_record_lengths() {
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 6]).collect();
        let mut pooled =
            FullScanPir::setup(&blocks, SimServer::new()).with_pool(WorkerPool::new(4));
        // Shrink one record.
        pooled.server_mut().write(3, vec![9u8; 2]).unwrap();
        assert_eq!(pooled.query(3).unwrap(), vec![9u8; 2]);
        assert_eq!(pooled.query(5).unwrap(), vec![5u8; 6]);
        // Grow one record past the uniform length.
        pooled.server_mut().write(3, vec![8u8; 10]).unwrap();
        assert_eq!(pooled.query(3).unwrap(), vec![8u8; 10]);
        assert_eq!(pooled.query(7).unwrap(), vec![7u8; 6]);
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
