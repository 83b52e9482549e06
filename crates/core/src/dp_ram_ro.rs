//! Retrieval-only DP-RAM over *public* data — no encryption, no
//! computational assumptions (Section 6, "Discussion about encryption").
//!
//! When only retrievals are permitted, the overwrite phase of DP-RAM can be
//! skipped entirely and records can be stored in plaintext: the scheme then
//! provides differentially private access against computationally
//! *unbounded* adversaries. The stash is populated at setup (each record
//! independently with probability `p`) and never changes; a query for a
//! stashed record downloads a uniform decoy, otherwise it downloads the
//! record itself — one download, one round trip, statistical DP with
//! `ε = ln((1−p+p/n) / (p/n)) = O(log(n/p))`.
//!
//! This is the bridge between DP-IR (stateless, needs error) and DP-RAM
//! (stateful, errorless): client state is the second way around the
//! errorless lower bound of Theorem 3.3.

use std::collections::HashMap;

use dps_crypto::ChaChaRng;
use dps_server::{ServerError, SimServer, Storage};

/// A retrieval-only DP-RAM over plaintext public data.
#[derive(Debug)]
pub struct DpRamReadOnly<S: Storage = SimServer> {
    n: usize,
    stash_probability: f64,
    stash: HashMap<usize, Vec<u8>>,
    server: S,
}

impl<S: Storage> DpRamReadOnly<S> {
    /// Stores `blocks` in plaintext and stashes each independently with
    /// probability `p`.
    ///
    /// # Panics
    /// Panics if `blocks` is empty or `p ∉ [0, 1]`.
    pub fn setup(blocks: &[Vec<u8>], p: f64, mut server: S, rng: &mut ChaChaRng) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        server.init_with(blocks.len(), |sink| blocks.iter().for_each(|b| sink(b)));
        let mut stash = HashMap::new();
        for (i, b) in blocks.iter().enumerate() {
            if rng.gen_bool(p) {
                stash.insert(i, b.clone());
            }
        }
        Self { n: blocks.len(), stash_probability: p, stash, server }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stash occupancy (client storage in blocks).
    pub fn stash_size(&self) -> usize {
        self.stash.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// The analytic pure-DP budget of the static-stash mechanism:
    /// `ε = ln(((1−p) + p/n) / (p/n))`. For `p = Φ(n)/n` this is
    /// `O(log(n² / Φ(n))) = O(log n)`.
    pub fn epsilon(&self) -> f64 {
        let n = self.n as f64;
        let p = self.stash_probability;
        if p == 0.0 {
            return f64::INFINITY;
        }
        (((1.0 - p) + p / n) / (p / n)).ln()
    }

    /// Retrieves record `index`, returning the value and the downloaded
    /// address (the adversary's whole per-query view).
    pub fn query_traced(
        &mut self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> Result<(Vec<u8>, usize), ServerError> {
        if index >= self.n {
            return Err(ServerError::OutOfBounds { addr: index, capacity: self.n });
        }
        if let Some(v) = self.stash.get(&index) {
            // Decoy download, discarded without leaving the server arena.
            let decoy = rng.gen_index(self.n);
            self.server.read_batch_with(&[decoy], |_, _| {})?;
            Ok((v.clone(), decoy))
        } else {
            let mut out = Vec::new();
            self.server
                .read_batch_with(&[index], |_, cell| out.extend_from_slice(cell))?;
            Ok((out, index))
        }
    }

    /// Retrieves record `index`.
    pub fn read(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, ServerError> {
        Ok(self.query_traced(index, rng)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, p: f64, seed: u64) -> (DpRamReadOnly, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let ram = DpRamReadOnly::setup(&blocks, p, SimServer::new(), &mut rng);
        (ram, rng)
    }

    #[test]
    fn always_correct() {
        let (mut ram, mut rng) = build(32, 0.5, 1);
        for _ in 0..200 {
            let i = rng.gen_index(32);
            assert_eq!(ram.read(i, &mut rng).unwrap(), vec![i as u8; 8]);
        }
    }

    #[test]
    fn one_download_one_round_trip() {
        let (mut ram, mut rng) = build(64, 0.3, 2);
        let before = ram.server_stats();
        ram.read(5, &mut rng).unwrap();
        let diff = ram.server_stats().since(&before);
        assert_eq!(diff.downloads, 1);
        assert_eq!(diff.uploads, 0);
        assert_eq!(diff.round_trips, 1);
    }

    #[test]
    fn no_uploads_ever_no_ciphertexts() {
        // Public data: the server stores exactly the plaintext blocks.
        let (mut ram, mut rng) = build(8, 0.5, 3);
        for _ in 0..50 {
            ram.read(rng.gen_index(8), &mut rng).unwrap();
        }
        assert_eq!(ram.server_stats().uploads, 0);
    }

    #[test]
    fn a_bad_index_is_out_of_bounds_and_requests_nothing() {
        let (mut ram, mut rng) = build(8, 0.5, 6);
        let before = ram.server_stats();
        assert_eq!(ram.read(8, &mut rng), Err(ServerError::OutOfBounds { addr: 8, capacity: 8 }));
        assert_eq!(ram.server_stats(), before);
    }

    /// The mechanism's marginal: over fresh setups,
    /// Pr[view = q | query q] = (1-p) + p/n.
    #[test]
    fn view_marginal_matches_formula() {
        let n = 16;
        let p = 0.5;
        let trials = 4000u32;
        let mut self_hits = 0u32;
        for seed in 0..trials {
            let (mut ram, mut rng) = build(n, p, 100 + u64::from(seed));
            let (_, view) = ram.query_traced(3, &mut rng).unwrap();
            if view == 3 {
                self_hits += 1;
            }
        }
        let freq = f64::from(self_hits) / f64::from(trials);
        let predicted = (1.0 - p) + p / n as f64;
        assert!((freq - predicted).abs() < 0.03, "measured {freq:.4}, predicted {predicted:.4}");
    }

    #[test]
    fn epsilon_formula() {
        let (ram, _) = build(1024, 0.25, 4);
        // ε = ln((0.75 + 0.25/1024) / (0.25/1024)) ≈ ln(3073+..) ≈ 8.03
        let eps = ram.epsilon();
        assert!((eps - 8.03).abs() < 0.05, "epsilon = {eps}");
        let (ram0, _) = build(8, 0.0, 5);
        assert!(ram0.epsilon().is_infinite(), "p = 0 gives no privacy");
    }
}
