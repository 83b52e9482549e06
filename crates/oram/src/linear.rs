//! The trivial linear-scan ORAM.
//!
//! Touches every cell on every access: perfectly oblivious (the transcript
//! is constant), `Θ(n)` overhead, no client state beyond the key. This is
//! the degenerate point the DP-IR lower bound (Theorem 3.3) says *errorless*
//! schemes cannot beat, so it doubles as the errorless baseline in E1.

use dps_crypto::{BlockCipher, ChaChaRng, CIPHERTEXT_OVERHEAD};
use dps_server::{SimServer, Storage};

/// A linear-scan ORAM client.
///
/// Every access re-encrypts the whole database, so this is the workspace's
/// most keystream-bound scheme. The scan runs as flat batch phases — bulk
/// download into a strided scratch, one batch decrypt, one batch re-encrypt,
/// strided upload — on [`BlockCipher`]'s 8-lane batch entry points. Nonces
/// are pre-drawn in cell order, so the upload is byte-identical to a
/// per-cell loop over the same RNG stream.
///
/// Memory profile: the batch phases hold the whole database (ciphertext,
/// plaintext, and re-encrypted forms — ~3× the DB size in reusable
/// scratch) for the duration of one access, where the former streaming
/// scan held a single plaintext block. The plaintext scratch is zeroed
/// before each access returns; the client is trusted in this model, so
/// the trade is residency, not privacy.
#[derive(Debug)]
pub struct LinearOram<S: Storage = SimServer> {
    n: usize,
    block_size: usize,
    cipher: BlockCipher,
    server: S,
    /// Cached full-scan address list `[0, n)` (every access touches all).
    addrs: Vec<usize>,
    /// Reusable flat download scratch (all `n` ciphertexts, strided).
    ct_flat: Vec<u8>,
    /// Reusable flat plaintext scratch (all `n` blocks, strided).
    pt_flat: Vec<u8>,
    /// Reusable flat upload scratch for the strided write-back.
    enc_flat: Vec<u8>,
}

/// Errors from linear ORAM operations.
#[derive(Debug)]
pub enum LinearOramError {
    /// Index out of range.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Capacity.
        n: usize,
    },
    /// Storage or decryption failure.
    Storage(String),
}

impl std::fmt::Display for LinearOramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearOramError::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range (n = {n})")
            }
            LinearOramError::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl std::error::Error for LinearOramError {}

impl<S: Storage> LinearOram<S> {
    /// Encrypts `blocks` onto the server.
    pub fn setup(blocks: &[Vec<u8>], mut server: S, rng: &mut ChaChaRng) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let block_size = blocks[0].len();
        assert!(blocks.iter().all(|b| b.len() == block_size), "uniform block size required");
        let cipher = BlockCipher::generate(rng);
        let cells = blocks.iter().map(|b| cipher.encrypt(b, rng).0).collect();
        server.init(cells);
        let n = blocks.len();
        Self {
            n,
            block_size,
            cipher,
            server,
            addrs: (0..n).collect(),
            ct_flat: Vec::new(),
            pt_flat: Vec::new(),
            enc_flat: Vec::new(),
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (setup requires at least one block).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Accesses block `index`: downloads **all** cells, re-encrypts and
    /// re-uploads all of them (applying `new_value` if given), and returns
    /// the block's (old) value.
    pub fn access(
        &mut self,
        index: usize,
        new_value: Option<Vec<u8>>,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<u8>, LinearOramError> {
        if index >= self.n {
            return Err(LinearOramError::IndexOutOfRange { index, n: self.n });
        }
        if let Some(v) = &new_value {
            assert_eq!(v.len(), self.block_size, "block size mismatch");
        }
        // Flat batch scan: bulk-download every ciphertext, batch-decrypt
        // the whole database, apply the overwrite, then batch re-encrypt
        // and upload. Nonces are pre-drawn in cell order, so the upload is
        // byte-identical to a per-cell loop over the same RNG stream.
        let ct_stride = self.block_size + CIPHERTEXT_OVERHEAD;
        self.ct_flat.resize(self.n * ct_stride, 0);
        // The server chooses each cell's length: copy only cells of the
        // expected one, and report the first that is not once the round
        // trip is over (the transcript keeps its shape).
        let mut wrong_length = None;
        let ct_flat = &mut self.ct_flat;
        self.server
            .read_batch_with(&self.addrs, |i, cell| {
                if cell.len() == ct_stride {
                    ct_flat[i * ct_stride..(i + 1) * ct_stride].copy_from_slice(cell);
                } else if wrong_length.is_none() {
                    wrong_length = Some((i, cell.len()));
                }
            })
            .map_err(|e| LinearOramError::Storage(e.to_string()))?;
        self.pt_flat.resize(self.n * self.block_size, 0);
        let decrypted = match wrong_length {
            Some((addr, len)) => Err(format!("cell {addr} has {len} bytes, expected {ct_stride}")),
            None => self
                .cipher
                .decrypt_batch_to_slices(&self.ct_flat, self.n, &mut self.pt_flat)
                .map_err(|e| e.to_string()),
        };
        if let Err(message) = decrypted {
            // Scrub the partially decrypted blocks on the error paths too —
            // no plaintext may outlive the call in the reusable scratch.
            self.pt_flat.fill(0);
            return Err(LinearOramError::Storage(message));
        }
        let slot = &mut self.pt_flat[index * self.block_size..(index + 1) * self.block_size];
        let old = slot.to_vec();
        if let Some(v) = &new_value {
            slot.copy_from_slice(v);
        }
        let nonces = rng.draw_nonces(self.n);
        self.enc_flat.resize(self.n * ct_stride, 0);
        self.cipher
            .encrypt_batch_with_nonces(&nonces, &self.pt_flat, &mut self.enc_flat);
        // Unlike the former streaming scan (one plaintext block resident
        // at a time), the batch phases hold the whole decrypted database
        // for the duration of the access. Scrub it before returning so no
        // plaintext outlives the call in the reusable scratch.
        self.pt_flat.fill(0);
        self.server
            .write_batch_strided(&self.addrs, &self.enc_flat)
            .map_err(|e| LinearOramError::Storage(e.to_string()))?;
        Ok(old)
    }

    /// Reads block `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, LinearOramError> {
        self.access(index, None, rng)
    }

    /// Overwrites block `index`.
    pub fn write(
        &mut self,
        index: usize,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<u8>, LinearOramError> {
        self.access(index, Some(value), rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::{Accounted, CellBackend, CellStore, ServerError};

    fn build(n: usize) -> (LinearOram, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let oram = LinearOram::setup(&blocks, SimServer::new(), &mut rng);
        (oram, rng)
    }

    #[test]
    fn read_write_round_trip() {
        let (mut oram, mut rng) = build(10);
        assert_eq!(oram.read(3, &mut rng).unwrap(), vec![3u8; 8]);
        oram.write(3, vec![0xFF; 8], &mut rng).unwrap();
        assert_eq!(oram.read(3, &mut rng).unwrap(), vec![0xFF; 8]);
    }

    #[test]
    fn every_access_touches_all_cells() {
        let (mut oram, mut rng) = build(16);
        let before = oram.server_stats();
        oram.read(0, &mut rng).unwrap();
        let diff = oram.server_stats().since(&before);
        assert_eq!(diff.downloads, 16);
        assert_eq!(diff.uploads, 16);
    }

    #[test]
    fn transcript_is_query_independent() {
        // Perfect obliviousness: identical views for different queries.
        let (mut a, mut rng_a) = build(8);
        a.server.start_recording();
        a.read(1, &mut rng_a).unwrap();
        let view_a = a.server.take_transcript().canonical_encoding();

        let (mut b, mut rng_b) = build(8);
        b.server.start_recording();
        b.read(6, &mut rng_b).unwrap();
        let view_b = b.server.take_transcript().canonical_encoding();
        assert_eq!(view_a, view_b);
    }

    #[test]
    fn out_of_range() {
        let (mut oram, mut rng) = build(4);
        assert!(matches!(oram.read(4, &mut rng), Err(LinearOramError::IndexOutOfRange { .. })));
    }

    /// The bytes a seed produces are pinned: the constant was recorded at
    /// the commit before the worker pool and its chunked helpers were
    /// deleted, and must hold under every `DPS_FORCE_ISA` tier. FNV-1a-64
    /// over the outputs, the paper's six cost counters, the transcript and
    /// every server cell in address order.
    #[test]
    fn seeded_run_matches_the_recorded_digest() {
        let blocks: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 24]).collect();
        let mut rng = ChaChaRng::seed_from_u64(99);
        let mut oram = LinearOram::setup(&blocks, SimServer::new(), &mut rng);
        oram.server.start_recording();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |bytes: &[u8]| {
            for &byte in bytes {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for i in [3usize, 0, 15, 3] {
            absorb(&oram.read(i, &mut rng).unwrap());
        }
        absorb(&oram.write(7, vec![0xEE; 24], &mut rng).unwrap());
        absorb(&oram.read(7, &mut rng).unwrap());
        let s = oram.server_stats();
        for counter in [s.downloads, s.uploads, s.computed, s.round_trips, s.bytes_down, s.bytes_up]
        {
            absorb(&counter.to_le_bytes());
        }
        absorb(&oram.server.take_transcript().canonical_encoding());
        for addr in 0..16 {
            absorb(&oram.server.read(addr).unwrap());
        }
        assert_eq!(digest, 0xcf9e_e5f3_fe02_c5ae, "outputs, stats, transcript and server cells");
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

    /// The server chooses the length of the cells it returns. One of the
    /// wrong length is a typed error after a full-shape round trip — never
    /// an index past the scratch, never a stale slot decrypted as current —
    /// and the client works again once the server stops lying.
    #[test]
    fn wrong_length_cell_is_a_typed_error() {
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 8]).collect();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut oram = LinearOram::setup(&blocks, Accounted::over(Lying::default()), &mut rng);
        let good = oram.server.read(5).unwrap();
        for bad_len in [good.len() + 1, good.len() - 1, good.len() - 5, 0] {
            oram.server.lie = Some((5, vec![0xA5; bad_len]));
            let before = oram.server_stats();
            match oram.read(2, &mut rng) {
                Err(LinearOramError::Storage(message)) => assert_eq!(
                    message,
                    format!("cell 5 has {bad_len} bytes, expected {}", good.len())
                ),
                other => panic!("length {bad_len}: expected a storage error, got {other:?}"),
            }
            let moved = oram.server_stats().since(&before);
            assert_eq!((moved.downloads, moved.uploads, moved.round_trips), (8, 0, 1));
            assert!(oram.pt_flat.iter().all(|&b| b == 0), "plaintext scratch scrubbed");
        }
        oram.server.lie = None;
        assert_eq!(oram.read(2, &mut rng).unwrap(), vec![2u8; 8]);
        assert_eq!(oram.read(5, &mut rng).unwrap(), vec![5u8; 8]);
    }
}
