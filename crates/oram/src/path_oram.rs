//! Path ORAM (Stefanov et al., CCS 2013).
//!
//! The canonical low-overhead ORAM and the scheme the paper's DP-RAM is
//! measured against. Server storage is a complete binary tree of height `L`
//! (`2^{L+1} - 1` buckets of `Z` slots); the client holds a position map
//! (`n` leaf labels) and a stash. Every access reads one root-to-leaf path,
//! remaps the block to a fresh random leaf, and greedily writes the path
//! back — `2·Z·(L+1)` blocks of bandwidth over 2 round trips, `Θ(log n)`
//! overhead.

use dps_crypto::{BlockCipher, ChaChaRng};
use dps_server::cells::{decode_bucket, encode_bucket, encode_bucket_into, Slot};
use dps_server::{SimServer, Storage};

/// Configuration for [`PathOram`].
#[derive(Debug, Clone, Copy)]
pub struct PathOramConfig {
    /// Number of logical blocks.
    pub n: usize,
    /// Block payload size in bytes.
    pub block_size: usize,
    /// Slots per bucket (`Z`; 4 is the standard stash-safe choice).
    pub bucket_size: usize,
}

impl PathOramConfig {
    /// Standard parameters: `Z = 4`.
    pub fn recommended(n: usize, block_size: usize) -> Self {
        Self { n, block_size, bucket_size: 4 }
    }
}

/// Errors from Path ORAM operations.
#[derive(Debug)]
pub enum OramError {
    /// Block index out of `[0, n)`.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Capacity.
        n: usize,
    },
    /// A value of the wrong byte length was written.
    BadBlockSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// Server or decryption failure (corrupted state).
    Storage(String),
}

impl std::fmt::Display for OramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OramError::IndexOutOfRange { index, n } => {
                write!(f, "block index {index} out of range (n = {n})")
            }
            OramError::BadBlockSize { got, expected } => {
                write!(f, "block has {got} bytes, expected {expected}")
            }
            OramError::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl std::error::Error for OramError {}

/// A Path ORAM client bound to a simulated server.
#[derive(Debug)]
pub struct PathOram<S: Storage = SimServer> {
    config: PathOramConfig,
    /// Tree height: leaves are at level `height`, `2^height` of them.
    height: u32,
    cipher: BlockCipher,
    position: Vec<usize>,
    stash: std::collections::HashMap<u64, Vec<u8>>,
    server: S,
    /// Reusable root-to-leaf address scratch (read order; reversed for the
    /// bottom-up eviction upload).
    path_scratch: Vec<usize>,
    evict_addrs: Vec<usize>,
    /// Reusable plaintext / bucket-encode / encryption scratch buffers.
    pt_scratch: Vec<u8>,
    bucket_scratch: Vec<u8>,
    enc_cell: Vec<u8>,
    enc_flat: Vec<u8>,
}

impl<S: Storage> PathOram<S> {
    /// Builds the ORAM over `blocks`, encrypting and uploading the initial
    /// tree, and returns the client.
    ///
    /// # Panics
    /// Panics if `blocks.len() != config.n`, `n == 0`, or any block has the
    /// wrong size.
    pub fn setup(
        config: PathOramConfig,
        blocks: &[Vec<u8>],
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> Self {
        assert_eq!(blocks.len(), config.n, "block count mismatch");
        assert!(config.n > 0, "need at least one block");
        assert!(config.bucket_size > 0, "bucket size must be positive");
        for b in blocks {
            assert_eq!(b.len(), config.block_size, "block size mismatch");
        }

        let height = usize::BITS - 1 - config.n.next_power_of_two().leading_zeros();
        let num_buckets = (1usize << (height + 1)) - 1;
        let cipher = BlockCipher::generate(rng);

        // Assign random leaves, then build the tree bottom-up by evicting
        // every block along its own path (greedy initial packing); blocks
        // that do not fit go to the stash, exactly as during operation.
        let position: Vec<usize> = (0..config.n).map(|_| rng.gen_index(1usize << height)).collect();

        let mut buckets: Vec<Vec<Slot>> = vec![Vec::new(); num_buckets];
        let mut stash = std::collections::HashMap::new();
        for (index, block) in blocks.iter().enumerate() {
            let leaf = position[index];
            let mut placed = false;
            // Deepest-first placement along the block's path.
            for level in (0..=height).rev() {
                let b = Self::bucket_index(leaf, level, height);
                if buckets[b].len() < config.bucket_size {
                    buckets[b].push(Slot { id: index as u64, payload: block.clone() });
                    placed = true;
                    break;
                }
            }
            if !placed {
                stash.insert(index as u64, block.clone());
            }
        }

        let cells: Vec<Vec<u8>> = buckets
            .iter()
            .map(|slots| {
                let plain = encode_bucket(slots, config.bucket_size, config.block_size);
                cipher.encrypt(&plain, rng).0
            })
            .collect();
        server.init(cells);

        Self {
            config,
            height,
            cipher,
            position,
            stash,
            server,
            path_scratch: Vec::new(),
            evict_addrs: Vec::new(),
            pt_scratch: Vec::new(),
            bucket_scratch: Vec::new(),
            enc_cell: Vec::new(),
            enc_flat: Vec::new(),
        }
    }

    /// The bucket id at `level` on the path to `leaf` (level 0 = root).
    fn bucket_index(leaf: usize, level: u32, height: u32) -> usize {
        ((1usize << level) - 1) + (leaf >> (height - level))
    }

    /// Number of levels in the tree (`L + 1`).
    pub fn levels(&self) -> usize {
        self.height as usize + 1
    }

    /// Blocks moved per access: `2 · Z · (L+1)` (path down + path up).
    pub fn blocks_per_access(&self) -> usize {
        2 * self.config.bucket_size * self.levels()
    }

    /// Round trips per access with the position map held recursively in
    /// smaller ORAMs, as small-client deployments require: each recursion
    /// level packs `pack` positions per block, giving
    /// `2 · (1 + ceil(log_pack n))` round trips. With the in-client map
    /// (this implementation) each access is 2 round trips.
    pub fn recursive_round_trips(&self, pack: usize) -> usize {
        assert!(pack >= 2);
        let mut levels = 0usize;
        let mut remaining = self.config.n;
        while remaining > 1 {
            remaining = remaining.div_ceil(pack);
            levels += 1;
        }
        2 * (levels + 1)
    }

    /// Current stash occupancy (blocks buffered client-side).
    pub fn stash_size(&self) -> usize {
        self.stash.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Reads block `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, OramError> {
        self.access(index, None, rng)
    }

    /// Overwrites block `index` with `value` and returns the old value.
    pub fn write(
        &mut self,
        index: usize,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<u8>, OramError> {
        if value.len() != self.config.block_size {
            return Err(OramError::BadBlockSize {
                got: value.len(),
                expected: self.config.block_size,
            });
        }
        self.access(index, Some(value), rng)
    }

    fn access(
        &mut self,
        index: usize,
        new_value: Option<Vec<u8>>,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<u8>, OramError> {
        if index >= self.config.n {
            return Err(OramError::IndexOutOfRange { index, n: self.config.n });
        }

        let leaf = self.position[index];
        self.position[index] = rng.gen_index(1usize << self.height);

        // Round trip 1: read the whole path into the stash. Each borrowed
        // bucket ciphertext is decrypted into the reusable plaintext
        // scratch and decoded from there — no per-bucket allocation beyond
        // the stash entries themselves.
        self.path_scratch.clear();
        self.path_scratch
            .extend((0..=self.height).map(|level| Self::bucket_index(leaf, level, self.height)));
        {
            let cipher = &self.cipher;
            let stash = &mut self.stash;
            let pt = &mut self.pt_scratch;
            let (bucket_size, block_size) = (self.config.bucket_size, self.config.block_size);
            let mut failure: Option<String> = None;
            self.server
                .read_batch_with(&self.path_scratch, |_, cell| {
                    if let Err(e) = cipher.decrypt_into(cell, pt) {
                        failure.get_or_insert(e.to_string());
                        return;
                    }
                    match decode_bucket(pt, bucket_size, block_size) {
                        Ok(slots) => {
                            for slot in slots {
                                stash.insert(slot.id, slot.payload);
                            }
                        }
                        Err(e) => {
                            failure.get_or_insert(e.to_string());
                        }
                    }
                })
                .map_err(|e| OramError::Storage(e.to_string()))?;
            if let Some(e) = failure {
                return Err(OramError::Storage(e));
            }
        }

        let current = self
            .stash
            .get(&(index as u64))
            .cloned()
            .ok_or_else(|| OramError::Storage(format!("block {index} missing from path")))?;
        if let Some(value) = new_value {
            self.stash.insert(index as u64, value);
        }

        // Round trip 2: greedy bottom-up eviction along the same path,
        // each bucket encoded and encrypted through reusable scratch into
        // one flat strided upload.
        self.evict_addrs.clear();
        self.enc_flat.clear();
        for level in (0..=self.height).rev() {
            let bucket_id = Self::bucket_index(leaf, level, self.height);
            let mut chosen: Vec<u64> = Vec::with_capacity(self.config.bucket_size);
            for (&id, _) in self.stash.iter() {
                if chosen.len() == self.config.bucket_size {
                    break;
                }
                let block_leaf = self.position[id as usize];
                if Self::bucket_index(block_leaf, level, self.height) == bucket_id {
                    chosen.push(id);
                }
            }
            let slots: Vec<Slot> = chosen
                .iter()
                .map(|id| Slot {
                    id: *id,
                    payload: self.stash.remove(id).expect("chosen from stash"),
                })
                .collect();
            encode_bucket_into(
                &slots,
                self.config.bucket_size,
                self.config.block_size,
                &mut self.bucket_scratch,
            );
            self.cipher
                .encrypt_into(&self.bucket_scratch, &mut self.enc_cell, rng);
            self.enc_flat.extend_from_slice(&self.enc_cell);
            self.evict_addrs.push(bucket_id);
        }
        self.server
            .write_batch_strided(&self.evict_addrs, &self.enc_flat)
            .map_err(|e| OramError::Storage(e.to_string()))?;

        Ok(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> (PathOram, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 16]).collect();
        let oram = PathOram::setup(
            PathOramConfig::recommended(n, 16),
            &blocks,
            SimServer::new(),
            &mut rng,
        );
        (oram, rng)
    }

    #[test]
    fn read_returns_initial_contents() {
        let (mut oram, mut rng) = build(64, 1);
        for i in [0usize, 1, 31, 63] {
            assert_eq!(oram.read(i, &mut rng).unwrap(), vec![(i % 251) as u8; 16]);
        }
    }

    #[test]
    fn write_then_read() {
        let (mut oram, mut rng) = build(32, 2);
        let old = oram.write(5, vec![0xEE; 16], &mut rng).unwrap();
        assert_eq!(old, vec![5u8; 16]);
        assert_eq!(oram.read(5, &mut rng).unwrap(), vec![0xEE; 16]);
    }

    #[test]
    fn random_workload_matches_reference() {
        let (mut oram, mut rng) = build(50, 3);
        let mut reference: Vec<Vec<u8>> = (0..50).map(|i| vec![(i % 251) as u8; 16]).collect();
        for step in 0..500 {
            let i = rng.gen_index(50);
            if rng.gen_bool(0.5) {
                let new = vec![(step % 256) as u8; 16];
                oram.write(i, new.clone(), &mut rng).unwrap();
                reference[i] = new;
            } else {
                assert_eq!(oram.read(i, &mut rng).unwrap(), reference[i], "step {step}");
            }
        }
    }

    #[test]
    fn stash_stays_small() {
        let (mut oram, mut rng) = build(256, 4);
        let mut max_stash = 0;
        for _ in 0..2000 {
            let i = rng.gen_index(256);
            oram.read(i, &mut rng).unwrap();
            max_stash = max_stash.max(oram.stash_size());
        }
        // With Z = 4 the stash is O(log n) whp; 60 is a generous envelope.
        assert!(max_stash < 60, "stash grew to {max_stash}");
    }

    #[test]
    fn bandwidth_is_z_times_path_both_ways() {
        let (mut oram, mut rng) = build(128, 5);
        let before = oram.server_stats();
        oram.read(0, &mut rng).unwrap();
        let diff = oram.server_stats().since(&before);
        let levels = oram.levels() as u64;
        assert_eq!(diff.downloads, levels);
        assert_eq!(diff.uploads, levels);
        assert_eq!(diff.round_trips, 2);
        assert_eq!(oram.blocks_per_access(), 8 * oram.levels());
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut oram, mut rng) = build(8, 6);
        assert!(matches!(
            oram.read(8, &mut rng),
            Err(OramError::IndexOutOfRange { index: 8, n: 8 })
        ));
    }

    #[test]
    fn wrong_block_size_rejected() {
        let (mut oram, mut rng) = build(8, 7);
        assert!(matches!(
            oram.write(0, vec![0u8; 5], &mut rng),
            Err(OramError::BadBlockSize { got: 5, expected: 16 })
        ));
    }

    #[test]
    fn recursive_round_trips_grow_logarithmically() {
        let (oram, _) = build(1 << 10, 8);
        // pack = 256 positions/block: ceil(log_256 1024) = 2 levels -> 6 RTs.
        assert_eq!(oram.recursive_round_trips(256), 6);
        let (big, _) = build(1 << 12, 9);
        assert!(big.recursive_round_trips(4) > big.recursive_round_trips(256));
    }

    #[test]
    fn non_power_of_two_n() {
        let (mut oram, mut rng) = build(100, 10);
        for i in [0usize, 57, 99] {
            assert_eq!(oram.read(i, &mut rng).unwrap(), vec![(i % 251) as u8; 16]);
        }
    }
}
