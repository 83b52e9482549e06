//! DP-RAM: errorless differentially private RAM (Section 6,
//! Algorithms 2–3; Theorem 6.1).
//!
//! The server stores `n` IND-CPA ciphertexts `A[i] = Enc(K, B_i)`. The
//! client keeps a *probabilistic stash*: at setup, and after every query,
//! each queried record is (re)admitted to the stash independently with
//! probability `p`. A query for record `i` runs two phases:
//!
//! * **Download phase.** If `B_i` is stashed, download a uniformly random
//!   cell (a decoy) and take the record from the stash; otherwise download
//!   `A[i]` and decrypt it.
//! * **Overwrite phase.** With probability `p`, put the (possibly updated)
//!   record back in the stash and touch a uniformly random cell: download
//!   it, re-encrypt it with fresh randomness, upload it. Otherwise download
//!   `A[i]` (discarded) and upload a fresh encryption of the record to
//!   `A[i]`.
//!
//! Both addresses are functions of stash *membership* and the client's
//! coins only — never of downloaded bytes — so a query draws its coins
//! first and then makes **two requests**: one download of `A[d_j]` and
//! `A[o_j]`, one upload of `A[o_j]`. The stash changes only after the
//! upload succeeded, so a failed request costs the client nothing it held
//! (`NOTES.md` records the deviation from the paper's three sequential
//! steps).
//!
//! Every query therefore moves **exactly 2 downloads + 1 upload** — `O(1)`
//! overhead — and the adversary's view per query is a pair of addresses
//! `(d_j, o_j)` whose distribution Theorem 6.1 shows satisfies
//! `ε = O(log(n/p))` pure DP (the proof isolates at most 3 positions of any
//! adjacent pair whose factors differ, each bounded by `(n/p)` or `(n²/p)`).
//! With `p = Φ(n)/n`, `Φ(n) = ω(log n)`, the stash stays `O(Φ(n))` whp
//! (Lemma D.1) and `ε = O(log n)` — optimal by Theorem 3.7.

use std::collections::HashMap;

use dps_crypto::{BlockCipher, ChaChaRng};
use dps_server::{ServerError, SimServer, Storage};
use dps_workloads::Op;

use crate::bucket_ram::init_encrypted;

/// The typed per-query adversarial view: the download-phase address and the
/// overwrite-phase address — the pair `(d_j, o_j)` of Section 6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RamQueryTrace {
    /// Address downloaded in the download phase.
    pub download: usize,
    /// Address touched (download + fresh upload) in the overwrite phase.
    pub overwrite: usize,
}

/// Parameters of a DP-RAM instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpRamConfig {
    /// Number of records `n`.
    pub n: usize,
    /// Stash probability `p`: each queried record re-enters the client
    /// stash with this probability. Theorem 6.1 wants `p = Φ(n)/n` for some
    /// `Φ(n) = ω(log n)`.
    pub stash_probability: f64,
}

impl DpRamConfig {
    /// The parameters Theorem 6.1 recommends: `p = Φ(n)/n` with
    /// `Φ(n) = log₂(n)²` (an `ω(log n)` function with good constants),
    /// clamped below 1.
    pub fn recommended(n: usize) -> Self {
        assert!(n > 0, "need at least one record");
        let log_n = (n.max(2) as f64).log2();
        let p = (log_n * log_n / n as f64).min(0.5);
        Self { n, stash_probability: p }
    }

    /// `Φ(n) = p·n`: the expected stash size.
    pub fn expected_stash(&self) -> f64 {
        self.stash_probability * self.n as f64
    }

    /// The analytic privacy budget per the Section 6 proof: each of the at
    /// most 3 differing factors is bounded by `n²/p` (Lemma 6.4) or `n/p`
    /// (Lemma 6.5), so `ε ≤ 3·ln(n²/p) + 3·ln(n/p)`. This is the proof's
    /// *upper bound*; the auditor (experiment E6) measures how loose it is.
    pub fn epsilon_upper_bound(&self) -> f64 {
        let n = self.n as f64;
        let p = self.stash_probability;
        3.0 * ((n * n / p).ln() + (n / p).ln())
    }
}

/// Errors from DP-RAM operations.
#[derive(Debug)]
pub enum DpRamError {
    /// Record index out of `[0, n)`.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Database size.
        n: usize,
    },
    /// Invalid parameters or setup input.
    InvalidConfig(String),
    /// A write with the wrong block length.
    BadBlockSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// Server failure.
    Server(ServerError),
    /// Decryption failure — corrupted server state.
    Crypto(String),
}

impl std::fmt::Display for DpRamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpRamError::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range (n = {n})")
            }
            DpRamError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DpRamError::BadBlockSize { got, expected } => {
                write!(f, "block has {got} bytes, expected {expected}")
            }
            DpRamError::Server(e) => write!(f, "server failure: {e}"),
            DpRamError::Crypto(msg) => write!(f, "crypto failure: {msg}"),
        }
    }
}

impl std::error::Error for DpRamError {}

impl From<ServerError> for DpRamError {
    fn from(e: ServerError) -> Self {
        DpRamError::Server(e)
    }
}

/// A DP-RAM client bound to a storage server (any [`Storage`]
/// implementation; defaults to the in-process [`SimServer`]).
#[derive(Debug)]
pub struct DpRam<S: Storage = SimServer> {
    config: DpRamConfig,
    block_size: usize,
    cipher: BlockCipher,
    stash: HashMap<usize, Vec<u8>>,
    server: S,
    /// High-water mark of the stash, for Lemma D.1 experiments.
    max_stash: usize,
    /// Reusable ciphertext/plaintext scratch: cells are copied here from
    /// the server arena and decrypted in place (zero per-query allocation).
    cell_scratch: Vec<u8>,
    /// The same for the overwrite phase's cell, when it is a decoy to
    /// refresh.
    refresh_scratch: Vec<u8>,
    /// Reusable encryption output scratch for the overwrite phase.
    enc_scratch: Vec<u8>,
}

impl<S: Storage> DpRam<S> {
    /// Algorithm 2 (`DP-RAM.Setup`): samples a key, uploads
    /// `A[i] = Enc(K, B_i)` for every record, and stashes each record
    /// independently with probability `p`.
    pub fn setup(
        config: DpRamConfig,
        blocks: &[Vec<u8>],
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> Result<Self, DpRamError> {
        if config.n == 0 {
            return Err(DpRamError::InvalidConfig("n must be positive".into()));
        }
        if blocks.len() != config.n {
            return Err(DpRamError::InvalidConfig(format!(
                "expected {} blocks, got {}",
                config.n,
                blocks.len()
            )));
        }
        if !(0.0..=1.0).contains(&config.stash_probability) {
            return Err(DpRamError::InvalidConfig(format!(
                "stash probability must be in [0, 1], got {}",
                config.stash_probability
            )));
        }
        let block_size = blocks[0].len();
        if blocks.iter().any(|b| b.len() != block_size) {
            return Err(DpRamError::InvalidConfig("blocks must have uniform size".into()));
        }

        let cipher = BlockCipher::generate(rng);
        init_encrypted(&mut server, &cipher, rng, config.n, block_size, |i| &blocks[i]);

        let mut stash = HashMap::new();
        for (i, block) in blocks.iter().enumerate() {
            if rng.gen_bool(config.stash_probability) {
                stash.insert(i, block.clone());
            }
        }
        let max_stash = stash.len();
        Ok(Self {
            config,
            block_size,
            cipher,
            stash,
            server,
            max_stash,
            cell_scratch: Vec::new(),
            refresh_scratch: Vec::new(),
            enc_scratch: Vec::new(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> DpRamConfig {
        self.config
    }

    /// Record payload size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Current stash occupancy (client storage in blocks).
    pub fn stash_size(&self) -> usize {
        self.stash.len()
    }

    /// Largest stash occupancy seen since setup (Lemma D.1 measure).
    pub fn max_stash_size(&self) -> usize {
        self.max_stash
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Reads record `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, DpRamError> {
        Ok(self.query_traced(index, Op::Read, None, rng)?.0)
    }

    /// Overwrites record `index` with `value`.
    pub fn write(
        &mut self,
        index: usize,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<(), DpRamError> {
        self.query_traced(index, Op::Write, Some(value), rng)?;
        Ok(())
    }

    /// Algorithm 3 (`DP-RAM.Query`) with the typed transcript returned:
    /// executes one query and reports the `(download, overwrite)` address
    /// pair the adversary observes. Returns the record's value *after* the
    /// query (for reads this is the current value; for writes, the new one).
    pub fn query_traced(
        &mut self,
        index: usize,
        op: Op,
        new_value: Option<Vec<u8>>,
        rng: &mut ChaChaRng,
    ) -> Result<(Vec<u8>, RamQueryTrace), DpRamError> {
        if index >= self.config.n {
            return Err(DpRamError::IndexOutOfRange { index, n: self.config.n });
        }
        if let Some(v) = &new_value {
            if v.len() != self.block_size {
                return Err(DpRamError::BadBlockSize { got: v.len(), expected: self.block_size });
            }
        }
        debug_assert!(
            (op == Op::Write) == new_value.is_some(),
            "write iff a new value is supplied"
        );

        // ---- Plan: both addresses follow from stash membership and the
        // coins alone, so they are fixed before any byte is requested.
        let n = self.config.n;
        let stashed = self.stash.contains_key(&index);
        let download = if stashed { rng.gen_index(n) } else { index };
        let stash = rng.gen_bool(self.config.stash_probability);
        let overwrite = if stash { rng.gen_index(n) } else { index };

        // ---- One download: A[d_j] and A[o_j]. A cell whose bytes the query
        // discards (a decoy download, the write-back's own cell) is not
        // copied out of the server's buffer.
        let (downloaded, refreshed) = (&mut self.cell_scratch, &mut self.refresh_scratch);
        self.server.read_batch_with(&[download, overwrite], |i, cell| {
            let (wanted, scratch) =
                if i == 0 { (!stashed, &mut *downloaded) } else { (stash, &mut *refreshed) };
            if wanted {
                scratch.clear();
                scratch.extend_from_slice(cell);
            }
        })?;

        // ---- Download phase ----
        if !stashed {
            self.cipher
                .decrypt_in_place(&mut self.cell_scratch)
                .map_err(|e| DpRamError::Crypto(e.to_string()))?;
        }
        let current = match (new_value, self.stash.get(&index)) {
            (Some(value), _) => value,
            // The downloaded cell was a decoy; the record is client-held.
            (None, Some(held)) => held.clone(),
            (None, None) => self.cell_scratch.clone(),
        };

        // ---- Overwrite phase ----
        if stash {
            // The record goes to the stash; refresh a random cell so the
            // adversary sees the same (download, upload) shape either way.
            self.cipher
                .decrypt_in_place(&mut self.refresh_scratch)
                .map_err(|e| DpRamError::Crypto(e.to_string()))?;
            self.cipher
                .encrypt_into(&self.refresh_scratch, &mut self.enc_scratch, rng);
        } else {
            self.cipher.encrypt_into(&current, &mut self.enc_scratch, rng);
        }
        self.server.write_from(overwrite, &self.enc_scratch)?;

        // ---- Commit: the stash changes only once the upload succeeded, so
        // a failed request leaves the client holding what it held before.
        if stash {
            self.stash.insert(index, current.clone());
            self.max_stash = self.max_stash.max(self.stash.len());
        } else if stashed {
            self.stash.remove(&index);
        }

        Ok((current, RamQueryTrace { download, overwrite }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![(i % 251) as u8; 16]).collect()
    }

    fn build(n: usize, p: f64, seed: u64) -> (DpRam, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let ram = DpRam::setup(
            DpRamConfig { n, stash_probability: p },
            &blocks(n),
            SimServer::new(),
            &mut rng,
        )
        .unwrap();
        (ram, rng)
    }

    #[test]
    fn reads_return_initial_contents() {
        let (mut ram, mut rng) = build(64, 0.2, 1);
        for i in [0usize, 13, 63] {
            assert_eq!(ram.read(i, &mut rng).unwrap(), vec![(i % 251) as u8; 16]);
        }
    }

    #[test]
    fn write_then_read() {
        let (mut ram, mut rng) = build(32, 0.3, 2);
        ram.write(7, vec![0xAB; 16], &mut rng).unwrap();
        assert_eq!(ram.read(7, &mut rng).unwrap(), vec![0xAB; 16]);
    }

    /// Errorless correctness under a long random read/write workload,
    /// cross-checked against a plain in-memory model.
    #[test]
    fn random_workload_matches_reference() {
        let (mut ram, mut rng) = build(40, 0.25, 3);
        let mut reference = blocks(40);
        for step in 0u32..2000 {
            let i = rng.gen_index(40);
            if rng.gen_bool(0.4) {
                let v = vec![(step % 256) as u8; 16];
                ram.write(i, v.clone(), &mut rng).unwrap();
                reference[i] = v;
            } else {
                assert_eq!(ram.read(i, &mut rng).unwrap(), reference[i], "step {step}");
            }
        }
    }

    /// Theorem 6.1's headline: every query costs exactly 2 downloads and
    /// 1 upload, independent of n, the query, and history.
    #[test]
    fn constant_overhead_invariant() {
        for n in [8usize, 256, 4096] {
            let (mut ram, mut rng) = build(n, 0.3, 4);
            for _ in 0..50 {
                let before = ram.server_stats();
                let i = rng.gen_index(n);
                ram.read(i, &mut rng).unwrap();
                let diff = ram.server_stats().since(&before);
                assert_eq!(diff.downloads, 2, "n = {n}");
                assert_eq!(diff.uploads, 1, "n = {n}");
                assert_eq!(diff.round_trips, 2, "n = {n}");
            }
        }
    }

    /// Lemma D.1: stash stays near p·n.
    #[test]
    fn stash_concentrates_around_expectation() {
        let n = 2048;
        let p = 0.05;
        let (mut ram, mut rng) = build(n, p, 5);
        for _ in 0..5000 {
            let i = rng.gen_index(n);
            ram.read(i, &mut rng).unwrap();
        }
        let expected = p * n as f64;
        let max = ram.max_stash_size() as f64;
        assert!(
            max < 3.0 * expected + 20.0,
            "max stash {max} too far above expectation {expected}"
        );
    }

    /// The transcript marginal of Lemma 6.5: Pr[o_j = q_j] = (1-p) + p/n,
    /// and every other address has probability p/n.
    #[test]
    fn overwrite_marginal_matches_lemma_6_5() {
        let n = 16;
        let p = 0.4;
        let trials = 20_000;
        let mut self_hits = 0u32;
        let (mut ram, mut rng) = build(n, p, 6);
        for _ in 0..trials {
            let (_, trace) = ram.query_traced(3, Op::Read, None, &mut rng).unwrap();
            if trace.overwrite == 3 {
                self_hits += 1;
            }
        }
        let freq = f64::from(self_hits) / trials as f64;
        let predicted = (1.0 - p) + p / n as f64;
        assert!(
            (freq - predicted).abs() < 0.02,
            "Pr[o = q] measured {freq:.4}, Lemma 6.5 predicts {predicted:.4}"
        );
    }

    /// Download-phase marginal: for a fresh record (not yet queried), the
    /// download address equals the query unless the record was stashed at
    /// setup, in which case it is uniform: Pr[d = q] = (1-p) + p/n.
    #[test]
    fn download_marginal_matches_lemma_6_4_case_3() {
        let n = 16;
        let p = 0.4;
        let trials = 4000u32;
        let mut self_hits = 0u32;
        for seed in 0..trials {
            let (mut ram, mut rng) = build(n, p, 1000 + u64::from(seed));
            let (_, trace) = ram.query_traced(5, Op::Read, None, &mut rng).unwrap();
            if trace.download == 5 {
                self_hits += 1;
            }
        }
        let freq = f64::from(self_hits) / f64::from(trials);
        let predicted = (1.0 - p) + p / n as f64;
        assert!(
            (freq - predicted).abs() < 0.03,
            "Pr[d = q] measured {freq:.4}, predicted {predicted:.4}"
        );
    }

    #[test]
    fn reads_and_writes_have_identical_trace_shape() {
        // The adversary must not learn the op; both ops yield one download
        // then one (download, upload) — checked via server transcript.
        let (mut ram, mut rng) = build(16, 0.3, 7);
        ram.server_mut().start_recording();
        ram.read(2, &mut rng).unwrap();
        let read_view = ram.server_mut().take_transcript();
        ram.server_mut().start_recording();
        ram.write(2, vec![1u8; 16], &mut rng).unwrap();
        let write_view = ram.server_mut().take_transcript();
        let shape = |t: &dps_server::Transcript| -> Vec<Vec<char>> {
            t.batches()
                .map(|b| {
                    b.iter()
                        .map(|e| match e {
                            dps_server::AccessEvent::Download(_) => 'D',
                            dps_server::AccessEvent::Upload(_) => 'U',
                            dps_server::AccessEvent::Compute(_) => 'C',
                        })
                        .collect()
                })
                .collect()
        };
        assert_eq!(shape(&read_view), shape(&write_view));
    }

    #[test]
    fn p_zero_is_plaintext_like_but_errorless() {
        // p = 0: never stash; every query touches exactly its own address.
        let (mut ram, mut rng) = build(8, 0.0, 8);
        for i in 0..8 {
            let (_, trace) = ram.query_traced(i, Op::Read, None, &mut rng).unwrap();
            assert_eq!(trace.download, i);
            assert_eq!(trace.overwrite, i);
        }
    }

    #[test]
    fn p_one_always_decoys_after_first_touch() {
        let (mut ram, mut rng) = build(8, 1.0, 9);
        // After the first query, record 0 is always stashed, so subsequent
        // downloads for it are decoys with probability 1 - 1/n of differing.
        ram.read(0, &mut rng).unwrap();
        let mut decoys = 0;
        for _ in 0..100 {
            let (_, t) = ram.query_traced(0, Op::Read, None, &mut rng).unwrap();
            if t.download != 0 {
                decoys += 1;
            }
        }
        assert!(decoys > 70, "with p = 1 most downloads must be decoys: {decoys}");
    }

    #[test]
    fn validation_errors() {
        let mut rng = ChaChaRng::seed_from_u64(10);
        assert!(DpRam::setup(
            DpRamConfig { n: 0, stash_probability: 0.1 },
            &[],
            SimServer::new(),
            &mut rng
        )
        .is_err());
        assert!(DpRam::setup(
            DpRamConfig { n: 2, stash_probability: 1.5 },
            &blocks(2),
            SimServer::new(),
            &mut rng
        )
        .is_err());
        let (mut ram, mut rng) = build(4, 0.2, 11);
        assert!(matches!(ram.read(4, &mut rng), Err(DpRamError::IndexOutOfRange { .. })));
        assert!(matches!(
            ram.write(0, vec![0u8; 3], &mut rng),
            Err(DpRamError::BadBlockSize { got: 3, expected: 16 })
        ));
    }

    #[test]
    fn recommended_config_scales() {
        let c = DpRamConfig::recommended(1 << 16);
        assert!(c.stash_probability > 0.0 && c.stash_probability < 0.01);
        let phi = c.expected_stash();
        assert!((phi - 256.0).abs() < 1.0, "Φ(2^16) = 16² = 256, got {phi}");
        assert!(c.epsilon_upper_bound() > 0.0);
    }
}
