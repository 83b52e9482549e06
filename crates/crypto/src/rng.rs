//! Deterministic ChaCha20-based CSPRNG.
//!
//! Every scheme in this workspace draws its private randomness from a
//! [`ChaChaRng`] passed in explicitly. This keeps experiments exactly
//! reproducible from a seed (required by the Monte-Carlo privacy auditor,
//! which compares transcript *distributions*) while remaining a
//! cryptographically strong generator, matching the paper's assumption that
//! scheme randomness is unpredictable to the adversary.
//!
//! The stream is the ChaCha20 keystream under the generator's key, from
//! block 0 of an all-zero nonce, the nonce incremented at each counter
//! wrap. It is buffered up to eight blocks (512 B) at a time: the first
//! refill after seeding computes one block, each later one twice the last,
//! up to eight on the SSE2 and AVX2 tiers (through
//! [`chacha::xor_keystream`]'s wide passes) and one on the portable tier;
//! the blocks just below the counter wrap are computed one at a time.
//! Every byte, and so every coin and seeded transcript, is the one a
//! block-at-a-time generator gives (`refill` has the rule).

use crate::chacha;
use crate::isa::{self, IsaTier};

/// SplitMix64's output function at `x + γ` (γ = `0x9e37_79b9_7f4a_7c15`):
/// a fast, well-mixed `u64 -> u64` permutation. The workspace's one seeded
/// mixer: it expands [`ChaChaRng::seed_from_u64`]'s seed, and test and
/// fault-injection harnesses use it as a stateless hash or, called on a
/// state advanced by γ after each output, as the SplitMix64 generator.
/// Not a cryptographic function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Keystream blocks the generator buffers at most: one 8-lane pass on the
/// AVX2 tier, two 4-lane passes on the SSE2 tier.
const WIDE_BLOCKS: usize = chacha::WIDE_LANES;

/// The most blocks one refill computes on the running tier: [`WIDE_BLOCKS`]
/// where a 4-lane pass costs less than four scalar blocks (SSE2 and AVX2),
/// one on the portable tier, whose 4-lane pass is four scalar blocks
/// (NOTES.md entries 26 and 27).
fn max_refill_blocks() -> usize {
    if isa::tier() >= IsaTier::Sse2 {
        WIDE_BLOCKS
    } else {
        1
    }
}

/// A deterministic cryptographically strong random number generator.
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; chacha::KEY_LEN],
    nonce: [u8; chacha::NONCE_LEN],
    /// The block after the last one buffered.
    counter: u32,
    buffer: [u8; WIDE_BLOCKS * chacha::BLOCK_LEN],
    /// Bytes of keystream in `buffer`: a whole number of blocks, 0 before
    /// the first refill.
    filled: usize,
    offset: usize,
}

impl ChaChaRng {
    /// Creates a generator from a full 256-bit key.
    pub fn from_key(key: [u8; chacha::KEY_LEN]) -> Self {
        Self {
            key,
            nonce: [0; chacha::NONCE_LEN],
            counter: 0,
            buffer: [0; WIDE_BLOCKS * chacha::BLOCK_LEN],
            filled: 0,
            offset: 0,
        }
    }

    /// Creates a generator from a 64-bit seed, expanded with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut key = [0u8; chacha::KEY_LEN];
        let mut state = seed;
        for chunk in key.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(state).to_le_bytes());
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Self::from_key(key)
    }

    /// A generator whose next block is `counter`, as if `counter` blocks
    /// had been drawn: reaches the counter wrap without drawing 256 GiB.
    #[cfg(test)]
    fn at_counter(key: [u8; chacha::KEY_LEN], counter: u32) -> Self {
        Self { counter, ..Self::from_key(key) }
    }

    /// Derives an independent child generator. Used to give each component
    /// of a composite scheme (e.g. the DP-RAM inside DP-KVS) its own stream.
    pub fn fork(&mut self) -> Self {
        let mut key = [0u8; chacha::KEY_LEN];
        self.fill_bytes(&mut key);
        Self::from_key(key)
    }

    /// Buffers the next keystream blocks: twice as many as the last
    /// refill, from one block up to [`max_refill_blocks`], so a fresh
    /// generator computes no block it does not draw from, and a long-lived
    /// one on a wide tier draws from [`chacha::xor_keystream`]'s wide
    /// passes. The stream is the one a block at a time gives, byte for
    /// byte: a wide refill only runs while its blocks lie below the counter
    /// wrap (`counter <= u32::MAX - blocks`); the last blocks before the
    /// wrap, and the wrap with its nonce roll, are one scalar block each.
    fn refill(&mut self) {
        let blocks = (2 * self.filled / chacha::BLOCK_LEN).clamp(1, max_refill_blocks());
        if blocks > 1 && self.counter <= u32::MAX - blocks as u32 {
            self.filled = blocks * chacha::BLOCK_LEN;
            let wide = &mut self.buffer[..self.filled];
            wide.fill(0);
            chacha::xor_keystream(&self.key, self.counter, &self.nonce, wide);
            self.counter += blocks as u32;
        } else {
            self.buffer[..chacha::BLOCK_LEN].copy_from_slice(&chacha::block(
                &self.key,
                self.counter,
                &self.nonce,
            ));
            self.filled = chacha::BLOCK_LEN;
            self.counter = self.counter.wrapping_add(1);
            if self.counter == 0 {
                // 256 GiB of output consumed: roll the nonce to keep the
                // stream non-repeating. Unreachable in practice but cheap
                // to handle.
                for byte in self.nonce.iter_mut() {
                    *byte = byte.wrapping_add(1);
                    if *byte != 0 {
                        break;
                    }
                }
            }
        }
        self.offset = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut done = 0;
        while done < dest.len() {
            if self.offset == self.filled {
                self.refill();
            }
            let take = (self.filled - self.offset).min(dest.len() - done);
            dest[done..done + take].copy_from_slice(&self.buffer[self.offset..self.offset + take]);
            self.offset += take;
            done += take;
        }
    }

    /// The next `N` bytes: read straight out of the buffer when it holds
    /// them, else through [`ChaChaRng::fill_bytes`].
    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        match self.buffer[..self.filled].get(self.offset..self.offset + N) {
            Some(bytes) => {
                out.copy_from_slice(bytes);
                self.offset += N;
            }
            None => self.fill_bytes(&mut out),
        }
        out
    }

    /// Draws `count` nonces, in order: the nonces the batch entry points
    /// take ([`crate::cipher::BlockCipher::encrypt_batch_with_nonces`],
    /// [`crate::aead::AeadCipher::seal_batch_with_nonces`]). Their output
    /// is byte-identical to a loop that draws one nonce per cell from the
    /// same stream and seals it with
    /// [`crate::cipher::BlockCipher::encrypt_into`].
    pub fn draw_nonces(&mut self, count: usize) -> Vec<chacha::Nonce> {
        let mut nonces = vec![chacha::Nonce::default(); count];
        self.fill_nonces(&mut nonces);
        nonces
    }

    /// [`ChaChaRng::draw_nonces`] into a buffer the caller keeps: the same
    /// bytes and the same next state as [`ChaChaRng::fill_bytes`], no
    /// allocation. After the buffered blocks are drained, the whole blocks
    /// before the counter wrap are [`chacha::xor_keystream`] over zeros,
    /// which runs them through the wide cores; the tail, and the wrap with
    /// its nonce roll, go through `fill_bytes`.
    pub fn fill_nonces(&mut self, nonces: &mut [chacha::Nonce]) {
        let dest = nonces.as_flattened_mut();
        let take = (self.filled - self.offset).min(dest.len());
        dest[..take].copy_from_slice(&self.buffer[self.offset..self.offset + take]);
        self.offset += take;
        let blocks =
            ((dest.len() - take) / chacha::BLOCK_LEN).min((u32::MAX - self.counter) as usize);
        let (bulk, tail) = dest[take..].split_at_mut(blocks * chacha::BLOCK_LEN);
        bulk.fill(0);
        chacha::xor_keystream(&self.key, self.counter, &self.nonce, bulk);
        self.counter += blocks as u32;
        self.fill_bytes(tail);
    }

    /// Returns a uniformly random `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    /// Returns a uniformly random `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    /// Returns a uniformly random integer in `[0, n)` with no modulo bias
    /// (rejection sampling): a draw below `2^64 mod n` is rejected. That
    /// threshold is below `n`, so it is computed only for a draw below `n`
    /// — the same draws are accepted, without a second division per call.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range requires a non-empty range");
        loop {
            let r = self.next_u64();
            if r >= n || r >= n.wrapping_neg() % n {
                return r % n;
            }
        }
    }

    /// Returns a uniformly random index in `[0, n)`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.gen_f64() < p
    }

    /// Fisher–Yates shuffle of `slice`.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Samples `k` distinct values uniformly from `[0, n)` using Floyd's
    /// algorithm (O(k) expected work, independent of `n`).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from [0, {n})");
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.gen_index(j + 1);
            let v = if chosen.insert(t) { t } else { j };
            if v != t {
                chosen.insert(v);
            }
            out.push(v);
        }
        out
    }
}

impl std::fmt::Debug for ChaChaRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("ChaChaRng")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values from the canonical splitmix64.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = ChaChaRng::seed_from_u64(42);
        let mut b = ChaChaRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaChaRng::seed_from_u64(1);
        let mut b = ChaChaRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = ChaChaRng::seed_from_u64(7);
        let mut child = parent.fork();
        assert_ne!(parent.next_u64(), child.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        for n in [1u64, 2, 3, 7, 100, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.gen_range(n) < n);
            }
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = ChaChaRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = ChaChaRng::seed_from_u64(11);
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(0.0));
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = ChaChaRng::seed_from_u64(13);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "frequency {freq} too far from 0.3");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ChaChaRng::seed_from_u64(17);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = ChaChaRng::seed_from_u64(19);
        for (k, n) in [(0, 10), (1, 1), (5, 10), (10, 10), (32, 1000)] {
            let sample = rng.sample_distinct(k, n);
            assert_eq!(sample.len(), k);
            let set: std::collections::HashSet<_> = sample.iter().copied().collect();
            assert_eq!(set.len(), k, "sample must be distinct");
            assert!(sample.iter().all(|&v| v < n));
        }
    }

    /// Floyd sampling must be uniform over subsets: check single-element
    /// marginals are flat.
    #[test]
    fn sample_distinct_marginals_uniform() {
        let mut rng = ChaChaRng::seed_from_u64(23);
        let n = 10;
        let k = 3;
        let trials = 30_000;
        let mut counts = vec![0u32; n];
        for _ in 0..trials {
            for v in rng.sample_distinct(k, n) {
                counts[v] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "element {i}: count {c}, deviation {dev:.3}");
        }
    }

    /// The bulk wide-core nonce draw — into a fresh `Vec` or into a buffer
    /// the caller keeps — is byte-identical to drawing nonces one at a time,
    /// leaves the generator in the same state (subsequent output matches),
    /// and handles every buffer-offset alignment.
    #[test]
    fn draw_nonces_matches_sequential_draws() {
        for misalign in [0usize, 1, 5, 12, 63] {
            for count in [0usize, 1, 4, 5, 21, 100] {
                let mut bulk = ChaChaRng::seed_from_u64(41);
                let mut filling = ChaChaRng::seed_from_u64(41);
                let mut seq = ChaChaRng::seed_from_u64(41);
                let mut skip = vec![0u8; misalign];
                bulk.fill_bytes(&mut skip);
                filling.fill_bytes(&mut skip);
                seq.fill_bytes(&mut skip);
                let nonces = bulk.draw_nonces(count);
                let mut filled = vec![[0xEEu8; 12]; count];
                filling.fill_nonces(&mut filled);
                let expected: Vec<[u8; 12]> = (0..count)
                    .map(|_| {
                        let mut n = [0u8; 12];
                        seq.fill_bytes(&mut n);
                        n
                    })
                    .collect();
                assert_eq!(nonces, expected, "misalign {misalign}, count {count}");
                assert_eq!(filled, expected, "misalign {misalign}, count {count}");
                let next = seq.next_u64();
                assert_eq!(bulk.next_u64(), next, "misalign {misalign}, count {count}");
                assert_eq!(filling.next_u64(), next, "misalign {misalign}, count {count}");
            }
        }
    }

    /// Near the counter wrap the bulk draw stops at the last block before
    /// it and leaves the wrap to `fill_bytes`: the nonces, the rolled
    /// stream nonce and the next output match sequential draws.
    #[test]
    fn fill_nonces_matches_sequential_draws_across_the_counter_wrap() {
        for misalign in [0usize, 7] {
            let mut bulk = ChaChaRng::seed_from_u64(43);
            bulk.counter = u32::MAX - 3;
            let mut skip = vec![0u8; misalign];
            bulk.fill_bytes(&mut skip);
            let mut seq = bulk.clone();
            let mut nonces = vec![[0u8; 12]; 40];
            bulk.fill_nonces(&mut nonces);
            for (i, nonce) in nonces.iter().enumerate() {
                let mut expected = [0u8; 12];
                seq.fill_bytes(&mut expected);
                assert_eq!(*nonce, expected, "misalign {misalign}, nonce {i}");
            }
            assert_ne!(seq.nonce, [0u8; 12], "the draw crossed the wrap");
            assert_eq!((bulk.nonce, bulk.counter), (seq.nonce, seq.counter), "misalign {misalign}");
            assert_eq!(bulk.next_u64(), seq.next_u64(), "misalign {misalign}");
        }
    }

    /// The stream by definition: one [`chacha::block`] per 64 bytes,
    /// the nonce incremented at each counter wrap.
    struct Reference {
        key: [u8; chacha::KEY_LEN],
        nonce: [u8; chacha::NONCE_LEN],
        counter: u32,
        block: [u8; chacha::BLOCK_LEN],
        offset: usize,
    }

    impl Reference {
        fn at_counter(key: [u8; chacha::KEY_LEN], counter: u32) -> Self {
            let nonce = [0; chacha::NONCE_LEN];
            Self { key, nonce, counter, block: [0; chacha::BLOCK_LEN], offset: chacha::BLOCK_LEN }
        }

        fn bytes(&mut self, dest: &mut [u8]) {
            for byte in dest {
                if self.offset == chacha::BLOCK_LEN {
                    self.block = chacha::block(&self.key, self.counter, &self.nonce);
                    self.counter = self.counter.wrapping_add(1);
                    if self.counter == 0 {
                        let mut wide = [0u8; 16];
                        wide[..chacha::NONCE_LEN].copy_from_slice(&self.nonce);
                        let rolled = u128::from_le_bytes(wide) + 1;
                        self.nonce
                            .copy_from_slice(&rolled.to_le_bytes()[..chacha::NONCE_LEN]);
                    }
                    self.offset = 0;
                }
                *byte = self.block[self.offset];
                self.offset += 1;
            }
        }

        fn u64(&mut self) -> u64 {
            let mut bytes = [0u8; 8];
            self.bytes(&mut bytes);
            u64::from_le_bytes(bytes)
        }

        /// `gen_range`'s rule with the threshold computed for every draw.
        fn eager_range(&mut self, n: u64) -> u64 {
            let threshold = n.wrapping_neg() % n;
            loop {
                let r = self.u64();
                if r >= threshold {
                    return r % n;
                }
            }
        }
    }

    /// The buffered generator is the block-at-a-time stream, byte for byte,
    /// under every mix of calls, whatever the refill width of the running
    /// tier — from a fresh key and from a few blocks below the counter
    /// wrap, where wide refills stop and the nonce rolls.
    #[test]
    fn the_stream_is_the_block_at_a_time_reference() {
        for seed in 0..24u64 {
            let mut script = ChaChaRng::seed_from_u64(1000 + seed);
            let mut key = [0u8; chacha::KEY_LEN];
            script.fill_bytes(&mut key);
            let start = match seed % 3 {
                0 => 0,
                1 => u32::MAX - 2 - (seed % 7) as u32,
                _ => u32::MAX - 40 - (seed % 11) as u32,
            };
            let mut rng = ChaChaRng::at_counter(key, start);
            let mut reference = Reference::at_counter(key, start);
            for step in 0..400 {
                let label = format!("seed {seed} step {step}");
                match script.gen_index(8) {
                    0 => assert_eq!(rng.next_u64(), reference.u64(), "{label}"),
                    1 => {
                        let mut bytes = [0u8; 4];
                        reference.bytes(&mut bytes);
                        assert_eq!(rng.next_u32(), u32::from_le_bytes(bytes), "{label}");
                    }
                    2 => {
                        let len = script.gen_index(201);
                        let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                        rng.fill_bytes(&mut got);
                        reference.bytes(&mut want);
                        assert_eq!(got, want, "{label}");
                    }
                    3 => {
                        let count = 1 + script.gen_index(40);
                        let mut want = vec![[0u8; chacha::NONCE_LEN]; count];
                        reference.bytes(want.as_flattened_mut());
                        assert_eq!(rng.draw_nonces(count), want, "{label}");
                    }
                    4 => {
                        let n = 1 + script.gen_index(1 << 20);
                        assert_eq!(rng.gen_index(n) as u64, reference.eager_range(n as u64));
                    }
                    5 => {
                        let p = script.gen_f64();
                        let want = (reference.u64() >> 11) as f64 / (1u64 << 53) as f64;
                        assert_eq!(rng.gen_bool(p), want < p, "{label}");
                    }
                    6 => {
                        let mut child_key = [0u8; chacha::KEY_LEN];
                        reference.bytes(&mut child_key);
                        let mut child = rng.fork();
                        let mut want = Reference::at_counter(child_key, 0);
                        for _ in 0..20 {
                            assert_eq!(child.next_u64(), want.u64(), "{label}");
                        }
                    }
                    _ => {
                        for _ in 0..script.gen_index(40) {
                            assert_eq!(rng.next_u64(), reference.u64(), "{label}");
                        }
                    }
                }
            }
            if start > u32::MAX - 64 {
                assert_ne!(reference.nonce, [0; chacha::NONCE_LEN], "seed {seed}: no wrap");
            }
            let (mut got, mut want) = ([0u8; 1024], [0u8; 1024]);
            rng.fill_bytes(&mut got);
            reference.bytes(&mut want);
            assert_eq!(got, want, "seed {seed}: the streams continue alike");
        }
    }

    /// `gen_range` computes its rejection threshold only for a draw below
    /// `n`: draw for draw it accepts, rejects and returns what the rule
    /// that computes it every time does — at 2^63 + 1, where about half of
    /// all draws are rejected, too.
    #[test]
    fn gen_range_lazy_threshold_matches_the_eager_rule() {
        for n in [1u64, 3, 1 << 18, (1 << 63) + 1, u64::MAX] {
            let mut rng = ChaChaRng::seed_from_u64(n);
            let mut key = [0u8; chacha::KEY_LEN];
            ChaChaRng::seed_from_u64(n).fill_bytes(&mut key);
            let mut lazy = ChaChaRng::from_key(key);
            let mut eager = Reference::at_counter(key, 0);
            let draws = 2000;
            for i in 0..draws {
                assert_eq!(lazy.gen_range(n), eager.eager_range(n), "n {n}, draw {i}");
            }
            let consumed = eager.counter as u64 * 8 - (chacha::BLOCK_LEN - eager.offset) as u64 / 8;
            if n == (1 << 63) + 1 {
                assert!(consumed > draws * 3 / 2, "n {n}: {consumed} words for {draws} draws");
            }
            assert_eq!(lazy.next_u64(), eager.u64(), "n {n}: the same draws were rejected");
            assert!(rng.gen_range(n) < n);
        }
    }

    #[test]
    fn fill_bytes_across_block_boundaries() {
        let mut a = ChaChaRng::seed_from_u64(29);
        let mut b = ChaChaRng::seed_from_u64(29);
        let mut buf_a = [0u8; 200];
        a.fill_bytes(&mut buf_a);
        let mut buf_b = [0u8; 200];
        for chunk in buf_b.chunks_mut(7) {
            b.fill_bytes(chunk);
        }
        assert_eq!(buf_a, buf_b, "chunked fills must match one-shot fill");
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn sample_distinct_rejects_oversample() {
        let mut rng = ChaChaRng::seed_from_u64(31);
        rng.sample_distinct(11, 10);
    }
}
