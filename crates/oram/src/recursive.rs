//! Recursive Path ORAM: the position map stored in smaller ORAMs.
//!
//! The paper's comparison against prior DP-RAM work (\[50\], built on Path
//! ORAM \[48\]) hinges on *round trips*: "for their scheme to achieve even
//! client storage of `O(√n)`, their construction recursively stores
//! position maps which costs both logarithmic overhead and client-to-server
//! roundtrips". [`crate::PathOram`] keeps its position map client-side
//! (`n` words of client state), so its 2-round-trip cost understates what a
//! small-client deployment pays. This module implements the real recursion:
//! the `n`-entry position map is packed `pack` leaf labels per block into a
//! second Path ORAM, whose own (smaller) map is packed into a third, and so
//! on until the top map fits in client memory. Every logical access then
//! walks the whole chain — `2·(1 + ⌈log_pack n⌉)` round trips — which is the
//! `Θ(log n)` round-trip cost DP-RAM's `O(1)` beats (experiment E5).
//!
//! Each stored block carries its current leaf label alongside the payload
//! so that eviction never needs a position-map lookup (the standard
//! recursion-safe layout).

use std::collections::HashMap;

use dps_crypto::{BlockCipher, ChaChaRng};
use dps_server::cells::{decode_bucket, encode_bucket, encode_bucket_into, Slot};
use dps_server::{SimServer, Storage};

use crate::path_oram::OramError;

/// Bytes used to encode one leaf label inside a payload.
const LEAF_BYTES: usize = 4;

/// One Path ORAM tree whose position map lives *outside* it: callers pass
/// the block's current leaf and its replacement on every access.
#[derive(Debug)]
struct TreeLayer<S: Storage> {
    n: usize,
    /// Payload bytes per logical block (excluding the attached leaf label).
    payload_size: usize,
    bucket_size: usize,
    height: u32,
    cipher: BlockCipher,
    /// Stash entries: block id → (current leaf, payload).
    stash: HashMap<u64, (usize, Vec<u8>)>,
    server: S,
    /// Reusable scratch buffers for the zero-copy access path.
    path_scratch: Vec<usize>,
    evict_addrs: Vec<usize>,
    pt_scratch: Vec<u8>,
    bucket_scratch: Vec<u8>,
    enc_cell: Vec<u8>,
    enc_flat: Vec<u8>,
}

impl<S: Storage> TreeLayer<S> {
    /// Builds the layer over `blocks`, assigning each a random leaf.
    /// Returns the layer and the assigned leaves (the caller must store
    /// them — that is the whole point of the recursion).
    fn setup(
        blocks: &[Vec<u8>],
        bucket_size: usize,
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> (Self, Vec<usize>) {
        assert!(!blocks.is_empty());
        let n = blocks.len();
        let payload_size = blocks[0].len();
        let height = usize::BITS - 1 - n.next_power_of_two().leading_zeros();
        let num_buckets = (1usize << (height + 1)) - 1;
        let cipher = BlockCipher::generate(rng);

        let positions: Vec<usize> = (0..n).map(|_| rng.gen_index(1usize << height)).collect();
        let mut buckets: Vec<Vec<Slot>> = vec![Vec::new(); num_buckets];
        let mut stash = HashMap::new();
        for (index, block) in blocks.iter().enumerate() {
            let leaf = positions[index];
            let mut placed = false;
            for level in (0..=height).rev() {
                let b = Self::bucket_index(leaf, level, height);
                if buckets[b].len() < bucket_size {
                    buckets[b]
                        .push(Slot { id: index as u64, payload: Self::attach_leaf(leaf, block) });
                    placed = true;
                    break;
                }
            }
            if !placed {
                stash.insert(index as u64, (leaf, block.clone()));
            }
        }

        let stored_size = LEAF_BYTES + payload_size;
        let cells: Vec<Vec<u8>> = buckets
            .iter()
            .map(|slots| {
                let plain = encode_bucket(slots, bucket_size, stored_size);
                cipher.encrypt(&plain, rng).0
            })
            .collect();
        server.init(cells);

        (
            Self {
                n,
                payload_size,
                bucket_size,
                height,
                cipher,
                stash,
                server,
                path_scratch: Vec::new(),
                evict_addrs: Vec::new(),
                pt_scratch: Vec::new(),
                bucket_scratch: Vec::new(),
                enc_cell: Vec::new(),
                enc_flat: Vec::new(),
            },
            positions,
        )
    }

    fn attach_leaf(leaf: usize, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(LEAF_BYTES + payload.len());
        out.extend_from_slice(&(leaf as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn split_leaf(stored: &[u8]) -> (usize, Vec<u8>) {
        let leaf = u32::from_le_bytes(stored[..LEAF_BYTES].try_into().expect("leaf prefix"));
        (leaf as usize, stored[LEAF_BYTES..].to_vec())
    }

    fn bucket_index(leaf: usize, level: u32, height: u32) -> usize {
        ((1usize << level) - 1) + (leaf >> (height - level))
    }

    fn num_leaves(&self) -> usize {
        1usize << self.height
    }

    /// Accesses block `index`, whose current leaf is `old_leaf`, remapping
    /// it to `new_leaf`. `mutate` rewrites the payload in place. Returns the
    /// payload *before* mutation.
    fn access(
        &mut self,
        index: usize,
        old_leaf: usize,
        new_leaf: usize,
        mutate: impl FnOnce(&mut Vec<u8>),
        rng: &mut ChaChaRng,
    ) -> Result<Vec<u8>, OramError> {
        debug_assert!(index < self.n);
        let stored_size = LEAF_BYTES + self.payload_size;

        // Round trip 1: path down into the stash, decrypting each borrowed
        // bucket slice through the reusable plaintext scratch.
        self.path_scratch.clear();
        self.path_scratch.extend(
            (0..=self.height).map(|level| Self::bucket_index(old_leaf, level, self.height)),
        );
        {
            let cipher = &self.cipher;
            let stash = &mut self.stash;
            let pt = &mut self.pt_scratch;
            let bucket_size = self.bucket_size;
            let mut failure: Option<String> = None;
            self.server
                .read_batch_with(&self.path_scratch, |_, cell| {
                    if let Err(e) = cipher.decrypt_into(cell, pt) {
                        failure.get_or_insert(e.to_string());
                        return;
                    }
                    match decode_bucket(pt, bucket_size, stored_size) {
                        Ok(slots) => {
                            for slot in slots {
                                let (leaf, payload) = Self::split_leaf(&slot.payload);
                                stash.insert(slot.id, (leaf, payload));
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

        let entry = self
            .stash
            .get_mut(&(index as u64))
            .ok_or_else(|| OramError::Storage(format!("block {index} missing from path")))?;
        let before = entry.1.clone();
        entry.0 = new_leaf;
        mutate(&mut entry.1);

        // Round trip 2: greedy bottom-up eviction along the old path, into
        // one flat strided upload.
        self.evict_addrs.clear();
        self.enc_flat.clear();
        for level in (0..=self.height).rev() {
            let bucket_id = Self::bucket_index(old_leaf, level, self.height);
            let chosen: Vec<u64> = self
                .stash
                .iter()
                .filter(|(_, (leaf, _))| Self::bucket_index(*leaf, level, self.height) == bucket_id)
                .map(|(&id, _)| id)
                .take(self.bucket_size)
                .collect();
            let slots: Vec<Slot> = chosen
                .iter()
                .map(|id| {
                    let (leaf, payload) = self.stash.remove(id).expect("chosen from stash");
                    Slot { id: *id, payload: Self::attach_leaf(leaf, &payload) }
                })
                .collect();
            encode_bucket_into(&slots, self.bucket_size, stored_size, &mut self.bucket_scratch);
            self.cipher
                .encrypt_into(&self.bucket_scratch, &mut self.enc_cell, rng);
            self.enc_flat.extend_from_slice(&self.enc_cell);
            self.evict_addrs.push(bucket_id);
        }
        self.server
            .write_batch_strided(&self.evict_addrs, &self.enc_flat)
            .map_err(|e| OramError::Storage(e.to_string()))?;

        Ok(before)
    }
}

/// Configuration for [`RecursivePathOram`].
#[derive(Debug, Clone, Copy)]
pub struct RecursiveOramConfig {
    /// Number of logical data blocks.
    pub n: usize,
    /// Data block payload size in bytes.
    pub block_size: usize,
    /// Slots per bucket (`Z`).
    pub bucket_size: usize,
    /// Leaf labels packed per position-map block.
    pub pack: usize,
    /// Recursion stops once a map has at most this many entries; the final
    /// map is held client-side.
    pub client_map_limit: usize,
}

impl RecursiveOramConfig {
    /// Standard parameters: `Z = 4`, 64 labels per map block, client map
    /// capped at 64 entries.
    pub fn recommended(n: usize, block_size: usize) -> Self {
        Self { n, block_size, bucket_size: 4, pack: 64, client_map_limit: 64 }
    }
}

/// Path ORAM with the position map stored recursively in smaller ORAMs —
/// the small-client deployment whose `Θ(log n)` round trips the paper's
/// DP-RAM comparison targets.
#[derive(Debug)]
pub struct RecursivePathOram<S: Storage = SimServer> {
    config: RecursiveOramConfig,
    /// `layers[0]` stores data; `layers[j]` stores the position map of
    /// `layers[j-1]`, packed `pack` labels per block.
    layers: Vec<TreeLayer<S>>,
    /// Positions of the top layer's blocks, held client-side.
    client_map: Vec<usize>,
}

impl RecursivePathOram {
    /// Builds the recursion over in-process [`SimServer`]s (one per
    /// layer). See [`RecursivePathOram::setup_on`] for other backends.
    ///
    /// # Panics
    /// Panics on empty input, non-uniform block sizes, or `pack < 2`.
    pub fn setup(config: RecursiveOramConfig, blocks: &[Vec<u8>], rng: &mut ChaChaRng) -> Self {
        Self::setup_on(config, blocks, rng)
    }
}

impl<S: Storage> RecursivePathOram<S> {
    /// Builds the recursion over default-constructed servers of type `S`
    /// (one per layer). Use [`RecursivePathOram::setup_with`] to configure
    /// each layer's server.
    ///
    /// # Panics
    /// Panics on empty input, non-uniform block sizes, or `pack < 2`.
    pub fn setup_on(config: RecursiveOramConfig, blocks: &[Vec<u8>], rng: &mut ChaChaRng) -> Self
    where
        S: Default,
    {
        Self::setup_with(config, blocks, rng, |_| S::default())
    }

    /// Builds the recursion bottom-up over `blocks` with a caller-supplied
    /// server factory: `make(j)` builds the server backing layer `j`
    /// (layer 0 stores data, higher layers the position maps). Cost
    /// counters aggregate over all of them.
    ///
    /// # Panics
    /// Panics on empty input, non-uniform block sizes, or `pack < 2`.
    pub fn setup_with(
        config: RecursiveOramConfig,
        blocks: &[Vec<u8>],
        rng: &mut ChaChaRng,
        mut make: impl FnMut(usize) -> S,
    ) -> Self {
        assert_eq!(blocks.len(), config.n, "block count mismatch");
        assert!(config.n > 0, "need at least one block");
        assert!(config.pack >= 2, "pack must be at least 2");
        for b in blocks {
            assert_eq!(b.len(), config.block_size, "block size mismatch");
        }

        let (layer0, mut positions) = TreeLayer::setup(blocks, config.bucket_size, make(0), rng);
        let mut layers = vec![layer0];

        while positions.len() > config.client_map_limit {
            let packed: Vec<Vec<u8>> = positions
                .chunks(config.pack)
                .map(|chunk| {
                    let mut block = vec![0u8; LEAF_BYTES * config.pack];
                    for (i, &leaf) in chunk.iter().enumerate() {
                        block[i * LEAF_BYTES..(i + 1) * LEAF_BYTES]
                            .copy_from_slice(&(leaf as u32).to_le_bytes());
                    }
                    block
                })
                .collect();
            let (layer, next_positions) =
                TreeLayer::setup(&packed, config.bucket_size, make(layers.len()), rng);
            layers.push(layer);
            positions = next_positions;
        }

        Self { config, layers, client_map: positions }
    }

    /// Number of recursion levels (1 data layer + position-map layers).
    pub fn levels(&self) -> usize {
        self.layers.len()
    }

    /// Entries the client holds (top position map) — the `O(1)`-ish client
    /// state that the recursion buys.
    pub fn client_map_len(&self) -> usize {
        self.client_map.len()
    }

    /// Round trips per access: 2 per layer.
    pub fn round_trips_per_access(&self) -> usize {
        2 * self.layers.len()
    }

    /// Aggregated cost counters over all layers' servers.
    pub fn total_stats(&self) -> dps_server::CostStats {
        self.layers
            .iter()
            .fold(dps_server::CostStats::default(), |acc, l| acc.plus(&l.server.stats()))
    }

    fn read_label(block: &[u8], offset: usize) -> usize {
        u32::from_le_bytes(
            block[offset * LEAF_BYTES..(offset + 1) * LEAF_BYTES]
                .try_into()
                .expect("label slot"),
        ) as usize
    }

    fn write_label(block: &mut [u8], offset: usize, leaf: usize) {
        block[offset * LEAF_BYTES..(offset + 1) * LEAF_BYTES]
            .copy_from_slice(&(leaf as u32).to_le_bytes());
    }

    /// Reads block `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, OramError> {
        self.access(index, None, rng)
    }

    /// Overwrites block `index`, returning the previous value.
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

        // indices[j] = block of layer j on the lookup chain.
        let levels = self.layers.len();
        let mut indices = Vec::with_capacity(levels);
        let mut idx = index;
        for _ in 0..levels {
            indices.push(idx);
            idx /= self.config.pack;
        }

        // Top of the chain: the client-held map covers the last layer.
        let top = levels - 1;
        let top_idx = indices[top];
        let mut old_leaf = self.client_map[top_idx];
        let mut new_leaf = rng.gen_index(self.layers[top].num_leaves());
        self.client_map[top_idx] = new_leaf;

        // Walk the position-map layers top-down, extracting the child's
        // old leaf and installing its replacement.
        for j in (1..levels).rev() {
            let child_offset = indices[j - 1] % self.config.pack;
            let child_new_leaf = rng.gen_index(self.layers[j - 1].num_leaves());
            let (head, tail) = self.layers.split_at_mut(j);
            let _ = head; // layer j accessed below; split only for borrow clarity
            let old_block = tail[0].access(
                indices[j],
                old_leaf,
                new_leaf,
                |block| Self::write_label(block, child_offset, child_new_leaf),
                rng,
            )?;
            old_leaf = Self::read_label(&old_block, child_offset);
            new_leaf = child_new_leaf;
        }

        // Finally the data layer.
        self.layers[0].access(
            index,
            old_leaf,
            new_leaf,
            |block| {
                if let Some(v) = new_value {
                    *block = v;
                }
            },
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, pack: usize, limit: usize, seed: u64) -> (RecursivePathOram, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 16]).collect();
        let config = RecursiveOramConfig {
            n,
            block_size: 16,
            bucket_size: 4,
            pack,
            client_map_limit: limit,
        };
        let oram = RecursivePathOram::setup(config, &blocks, &mut rng);
        (oram, rng)
    }

    #[test]
    fn recursion_depth_matches_pack() {
        // n = 256, pack = 4, limit = 4: maps of 256 -> 64 -> 16 -> 4.
        let (oram, _) = build(256, 4, 4, 1);
        assert_eq!(oram.levels(), 4);
        assert!(oram.client_map_len() <= 4);
        assert_eq!(oram.round_trips_per_access(), 8);
    }

    #[test]
    fn no_recursion_when_map_fits() {
        let (oram, _) = build(16, 4, 64, 2);
        assert_eq!(oram.levels(), 1);
        assert_eq!(oram.round_trips_per_access(), 2);
    }

    #[test]
    fn read_returns_initial_contents() {
        let (mut oram, mut rng) = build(128, 8, 8, 3);
        for i in [0usize, 17, 127] {
            assert_eq!(oram.read(i, &mut rng).unwrap(), vec![(i % 251) as u8; 16]);
        }
    }

    #[test]
    fn write_then_read() {
        let (mut oram, mut rng) = build(64, 4, 8, 4);
        let old = oram.write(9, vec![0xEE; 16], &mut rng).unwrap();
        assert_eq!(old, vec![9u8; 16]);
        assert_eq!(oram.read(9, &mut rng).unwrap(), vec![0xEE; 16]);
    }

    #[test]
    fn random_workload_matches_reference() {
        let (mut oram, mut rng) = build(60, 4, 8, 5);
        let mut reference: Vec<Vec<u8>> = (0..60).map(|i| vec![(i % 251) as u8; 16]).collect();
        for step in 0..400 {
            let i = rng.gen_index(60);
            if rng.gen_bool(0.5) {
                let v = vec![(step % 256) as u8; 16];
                oram.write(i, v.clone(), &mut rng).unwrap();
                reference[i] = v;
            } else {
                assert_eq!(oram.read(i, &mut rng).unwrap(), reference[i], "step {step}");
            }
        }
    }

    #[test]
    fn round_trips_are_counted_per_layer() {
        let (mut oram, mut rng) = build(256, 4, 4, 6);
        let before = oram.total_stats();
        oram.read(0, &mut rng).unwrap();
        let diff = oram.total_stats().since(&before);
        assert_eq!(diff.round_trips, oram.round_trips_per_access() as u64);
    }

    #[test]
    fn deeper_recursion_costs_more_round_trips() {
        let (shallow, _) = build(1 << 10, 256, 256, 7);
        let (deep, _) = build(1 << 10, 4, 4, 8);
        assert!(deep.round_trips_per_access() > shallow.round_trips_per_access());
    }

    #[test]
    fn out_of_range_and_bad_size_rejected() {
        let (mut oram, mut rng) = build(32, 4, 8, 9);
        assert!(matches!(
            oram.read(32, &mut rng),
            Err(OramError::IndexOutOfRange { index: 32, n: 32 })
        ));
        assert!(matches!(
            oram.write(0, vec![1u8; 3], &mut rng),
            Err(OramError::BadBlockSize { got: 3, expected: 16 })
        ));
    }

    #[test]
    fn long_workload_with_deep_recursion_stays_correct() {
        let (mut oram, mut rng) = build(300, 4, 4, 10);
        for round in 0..3 {
            for i in 0..300 {
                let expected = if round == 0 {
                    vec![(i % 251) as u8; 16]
                } else {
                    vec![((i + round - 1) % 256) as u8; 16]
                };
                assert_eq!(oram.read(i, &mut rng).unwrap(), expected, "round {round}, i {i}");
                oram.write(i, vec![((i + round) % 256) as u8; 16], &mut rng)
                    .unwrap();
            }
        }
    }
}
