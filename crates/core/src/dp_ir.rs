//! DP-IR: differentially private information retrieval (Section 5,
//! Algorithm 1; Theorem 5.1).
//!
//! Client and server are both stateless; the database is public plaintext.
//! A query for record `i` downloads a set `T` of `K` records: with
//! probability `1 − α` the set contains `i` plus `K − 1` uniform decoys;
//! with probability `α` (the *error* case) all `K` records are uniform
//! decoys and the query returns nothing. Theorem 5.1: this is `ε`-DP with
//!
//! ```text
//! e^ε = (1 − α)·n / (α·K) + 1
//! ```
//!
//! and matches the Theorem 3.4 lower bound `Ω((1 − α − δ)·n / e^ε)` for all
//! `ε ≥ 0`. Fixing `ε = Θ(log n)` gives `K = O(1)`: constant overhead, the
//! best privacy constant-overhead schemes can have.
//!
//! [`DpIr`] is the one client. A query is a batch of one: batches and
//! records sealed at rest are the methods in [`crate::batched_ir`], and
//! every spelling runs the same sampler and the same read path.

use std::collections::BTreeSet;

use dps_crypto::ChaChaRng;
use dps_server::{ServerError, SimServer, Storage};

use crate::batched_ir::SealedStore;

/// Parameters of a DP-IR instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpIrConfig {
    /// Number of database records `n`.
    pub n: usize,
    /// Error probability `α ∈ (0, 1]`: the query fails (returns `None`)
    /// with this probability, independent of the query and data.
    pub alpha: f64,
    /// Number of records downloaded per query `K ∈ [1, n]`.
    pub k: usize,
}

/// Errors from DP-IR operations.
#[derive(Debug)]
pub enum DpIrError {
    /// Query index out of `[0, n)`.
    IndexOutOfRange {
        /// Requested index.
        index: usize,
        /// Database size.
        n: usize,
    },
    /// Parameters outside their valid domain.
    InvalidConfig(String),
    /// Underlying server failure.
    Server(ServerError),
    /// Sealed-cell authentication or decryption failure (stores set up
    /// with [`DpIr::setup_sealed`] only).
    Crypto(String),
}

impl std::fmt::Display for DpIrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpIrError::IndexOutOfRange { index, n } => {
                write!(f, "index {index} out of range (n = {n})")
            }
            DpIrError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DpIrError::Server(e) => write!(f, "server failure: {e}"),
            DpIrError::Crypto(msg) => write!(f, "sealed-cell crypto failure: {msg}"),
        }
    }
}

impl std::error::Error for DpIrError {}

impl From<ServerError> for DpIrError {
    fn from(e: ServerError) -> Self {
        DpIrError::Server(e)
    }
}

impl DpIrConfig {
    /// Builds a configuration achieving privacy budget `epsilon` with error
    /// probability `alpha`, using the download count of Theorem 5.1:
    /// `K = ⌈(1 − α)·n / (e^ε − 1)⌉`, clamped to `[1, n]`.
    pub fn with_epsilon(n: usize, epsilon: f64, alpha: f64) -> Result<Self, DpIrError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpIrError::InvalidConfig(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        let raw = (1.0 - alpha) * n as f64 / (epsilon.exp() - 1.0);
        Self::with_download_count(n, (raw.ceil() as usize).clamp(1, n.max(1)), alpha)
    }

    /// Builds a configuration with an explicit download count `k`.
    pub fn with_download_count(n: usize, k: usize, alpha: f64) -> Result<Self, DpIrError> {
        let config = Self { n, alpha, k };
        config.check()?;
        Ok(config)
    }

    /// The one domain check, for the constructors and both set-ups (the
    /// fields are public): `K ∈ [1, n]`, so Algorithm 1's rejection loop
    /// can find `K` distinct addresses, and `α ∈ (0, 1]`.
    fn check(&self) -> Result<(), DpIrError> {
        let Self { n, alpha, k } = *self;
        if n == 0 {
            return Err(DpIrError::InvalidConfig("n must be positive".into()));
        }
        if k == 0 || k > n {
            return Err(DpIrError::InvalidConfig(format!("k must be in [1, n = {n}], got {k}")));
        }
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(DpIrError::InvalidConfig(format!("alpha must be in (0, 1], got {alpha}")));
        }
        Ok(())
    }

    /// The analytic privacy budget of this configuration (proof of
    /// Theorem 5.1): `ε = ln((1 − α)·n / (α·K) + 1)`.
    pub fn epsilon(&self) -> f64 {
        ((1.0 - self.alpha) * self.n as f64 / (self.alpha * self.k as f64) + 1.0).ln()
    }
}

/// A stateless DP-IR client bound to a server storing public records — or,
/// with [`DpIr::setup_sealed`], records sealed at rest.
#[derive(Debug)]
pub struct DpIr<S: Storage = SimServer> {
    pub(crate) config: DpIrConfig,
    pub(crate) server: S,
    /// `Some` when records are sealed at rest (AEAD under address AAD).
    pub(crate) sealed: Option<SealedStore>,
    /// The last batch's draw: scratch that keeps its capacity, so a query
    /// builds no tree and allocates only its answer. Not client state in
    /// the paper's sense — every query overwrites it.
    pub(crate) batch: Batch,
}

/// Algorithm 1: draws the download set for `index` into `set`, sorted and
/// distinct, and returns whether the real record is in it. One `gen_bool`,
/// then one `gen_index` per attempt until `K` distinct addresses are held —
/// the coin order every seeded transcript in this workspace depends on.
fn draw_download_set(
    config: &DpIrConfig,
    index: usize,
    rng: &mut ChaChaRng,
    set: &mut Vec<usize>,
) -> bool {
    set.clear();
    // r > alpha: the real record is included.
    let success = !rng.gen_bool(config.alpha);
    if success {
        set.push(index);
    }
    while set.len() < config.k {
        // Uniform from [n] \ T by rejection (K ≤ n guarantees progress;
        // expected iterations ≤ n/(n-K+1)).
        let j = rng.gen_index(config.n);
        if let Err(at) = set.binary_search(&j) {
            set.insert(at, j);
        }
    }
    success
}

/// A batch's download sets, drawn independently and merged: what the
/// server is asked for, and which answers come out of it.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    /// The union of the download sets, sorted and distinct.
    pub(crate) union: Vec<usize>,
    /// One query's download set.
    draw: Vec<usize>,
    /// `(position in union, query)` for each query that drew its real
    /// record, sorted.
    pub(crate) hits: Vec<(usize, usize)>,
}

impl Batch {
    /// Draws the download set of each of `indices` in order, with
    /// [`draw_download_set`]'s coins.
    pub(crate) fn draw(&mut self, config: &DpIrConfig, indices: &[usize], rng: &mut ChaChaRng) {
        self.union.clear();
        self.hits.clear();
        // The first set is drawn straight into the union, so a batch of one
        // copies and sorts nothing.
        for (query, &index) in indices.iter().enumerate() {
            let set = if query == 0 { &mut self.union } else { &mut self.draw };
            if draw_download_set(config, index, rng, set) {
                self.hits.push((index, query));
            }
            if query > 0 {
                self.union.extend_from_slice(&self.draw);
            }
        }
        if indices.len() > 1 {
            self.union.sort_unstable();
            self.union.dedup();
        }
        for hit in &mut self.hits {
            hit.0 = self.union.binary_search(&hit.0).expect("real index in union");
        }
        self.hits.sort_unstable();
    }

    /// `(slot in hits, query)` of each hit whose record is the union's
    /// cell at `pos`.
    pub(crate) fn hits_at(&self, pos: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let start = self.hits.partition_point(|&(at, _)| at < pos);
        let at_pos = self.hits[start..].iter().take_while(move |&&(at, _)| at == pos);
        (start..).zip(at_pos).map(|(slot, &(_, query))| (slot, query))
    }
}

/// The set-up check both set-ups share: a valid configuration, `n`
/// records, all of one length — which it returns.
pub(crate) fn check_setup(config: &DpIrConfig, blocks: &[Vec<u8>]) -> Result<usize, DpIrError> {
    config.check()?;
    if blocks.len() != config.n {
        return Err(DpIrError::InvalidConfig(format!(
            "expected {} blocks, got {}",
            config.n,
            blocks.len()
        )));
    }
    let record_len = blocks[0].len();
    if blocks.iter().any(|b| b.len() != record_len) {
        return Err(DpIrError::InvalidConfig("records must all be of one length".into()));
    }
    Ok(record_len)
}

impl<S: Storage> DpIr<S> {
    /// Stores the public database on the server. DP-IR needs no setup
    /// secret: records are stored in the clear (retrieval privacy, not
    /// content privacy, is the goal — Section 5).
    pub fn setup(config: DpIrConfig, blocks: &[Vec<u8>], mut server: S) -> Result<Self, DpIrError> {
        check_setup(&config, blocks)?;
        server.init_with(blocks.len(), |sink| blocks.iter().for_each(|b| sink(b)));
        Ok(Self { config, server, sealed: None, batch: Batch::default() })
    }

    /// The configuration in force.
    pub fn config(&self) -> DpIrConfig {
        self.config
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        &mut self.server
    }

    /// Algorithm 1: build the download set for query `index`. Exposed for
    /// the privacy auditor, which needs the typed transcript without
    /// touching the server.
    pub fn sample_download_set(
        &self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> (BTreeSet<usize>, bool) {
        let mut batch = Batch::default();
        batch.draw(&self.config, &[index], rng);
        (batch.union.into_iter().collect(), !batch.hits.is_empty())
    }

    /// Queries record `index`. Returns `Some(record)` with probability
    /// `1 − α`, `None` (the error case) with probability `α`.
    pub fn query(
        &mut self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> Result<Option<Vec<u8>>, DpIrError> {
        let mut answer = None;
        self.read(&[index], rng, |_, record| answer = Some(record.to_vec()))?;
        Ok(answer)
    }

    /// Like [`DpIr::query`] but also returns the download set — the random
    /// variable `IR(i)` of Section 3.2.
    pub fn query_traced(
        &mut self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> Result<(Option<Vec<u8>>, BTreeSet<usize>), DpIrError> {
        let answer = self.query(index, rng)?;
        Ok((answer, self.batch.union.iter().copied().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, epsilon: f64, alpha: f64) -> DpIr {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 8]).collect();
        let config = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap();
        DpIr::setup(config, &blocks, SimServer::new()).unwrap()
    }

    #[test]
    fn k_formula_matches_theorem_5_1() {
        // K = ceil((1-α)n / (e^ε - 1)).
        let c = DpIrConfig::with_epsilon(1024, (1024f64).ln(), 0.1).unwrap();
        let expected = ((0.9_f64 * 1024.0) / (1024.0 - 1.0)).ceil() as usize;
        assert_eq!(c.k, expected);
        assert_eq!(c.k, 1, "ε = ln n gives constant K");
    }

    #[test]
    fn epsilon_shrinks_as_k_grows() {
        let n = 4096;
        let eps_small_k = DpIrConfig::with_download_count(n, 2, 0.1).unwrap().epsilon();
        let eps_big_k = DpIrConfig::with_download_count(n, 512, 0.1).unwrap().epsilon();
        assert!(eps_big_k < eps_small_k);
    }

    #[test]
    fn query_returns_record_on_success() {
        let mut ir = build(128, 5.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut successes = 0;
        for _ in 0..200 {
            if let Some(block) = ir.query(17, &mut rng).unwrap() {
                assert_eq!(block, vec![17u8; 8]);
                successes += 1;
            }
        }
        // ~90% success rate.
        assert!((150..=200).contains(&successes), "successes = {successes}");
    }

    #[test]
    fn error_rate_matches_alpha() {
        let mut ir = build(64, 4.0, 0.25);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let trials = 4000;
        let errors = (0..trials)
            .filter(|_| ir.query(0, &mut rng).unwrap().is_none())
            .count();
        let rate = errors as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "error rate {rate}");
    }

    #[test]
    fn download_set_size_is_exactly_k() {
        let mut ir = build(256, 3.0, 0.1);
        let k = ir.config().k;
        assert!(k > 1);
        let mut rng = ChaChaRng::seed_from_u64(3);
        for _ in 0..100 {
            let (_, set) = ir.query_traced(9, &mut rng).unwrap();
            assert_eq!(set.len(), k);
        }
    }

    #[test]
    fn success_implies_real_index_in_set() {
        let mut ir = build(64, 3.0, 0.3);
        let mut rng = ChaChaRng::seed_from_u64(4);
        for _ in 0..300 {
            let (result, set) = ir.query_traced(11, &mut rng).unwrap();
            if result.is_some() {
                assert!(set.contains(&11));
            }
        }
    }

    #[test]
    fn per_query_cost_is_k_blocks_one_round_trip() {
        let mut ir = build(512, 4.0, 0.1);
        let k = ir.config().k as u64;
        let mut rng = ChaChaRng::seed_from_u64(5);
        let before = ir.server_stats();
        ir.query(0, &mut rng).unwrap();
        let diff = ir.server_stats().since(&before);
        assert_eq!(diff.downloads, k);
        assert_eq!(diff.round_trips, 1);
        assert_eq!(diff.uploads, 0, "DP-IR never uploads");
    }

    #[test]
    fn stateless_between_queries() {
        // Two queries for the same index are i.i.d.: no client state may
        // couple them. We check the download sets differ across calls
        // (overwhelmingly likely with K > 1 decoys from n = 512).
        let mut ir = build(512, 4.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(6);
        let (_, s1) = ir.query_traced(0, &mut rng).unwrap();
        let (_, s2) = ir.query_traced(0, &mut rng).unwrap();
        assert_ne!(s1, s2);
    }

    /// `query` draws into the sorted scratch and `query_traced` builds its
    /// set from it: same answers, same server view, same coins — and the
    /// coins are Algorithm 1's as it was first written (a `BTreeSet` filled
    /// by rejection), so no seeded transcript anywhere moved.
    #[test]
    fn query_and_query_traced_draw_the_same_coins() {
        let (mut plain, mut traced) = (build(256, 3.0, 0.2), build(256, 3.0, 0.2));
        let config = plain.config();
        assert!(config.k > 1);
        plain.server_mut().start_recording();
        traced.server_mut().start_recording();
        let mut rngs = [11u64; 3].map(ChaChaRng::seed_from_u64);
        let [rng_plain, rng_traced, rng_tree] = &mut rngs;
        for q in 0..1000 {
            let index = (q * 37) % config.n;
            let answer = plain.query(index, rng_plain).unwrap();
            let (traced_answer, set) = traced.query_traced(index, rng_traced).unwrap();
            assert_eq!(answer, traced_answer);

            let mut tree = BTreeSet::new();
            if !rng_tree.gen_bool(config.alpha) {
                tree.insert(index);
            }
            while tree.len() < config.k {
                tree.insert(rng_tree.gen_index(config.n));
            }
            assert_eq!(set, tree, "query {q}");
        }
        assert_eq!(
            plain.server_mut().take_transcript().canonical_encoding(),
            traced.server_mut().take_transcript().canonical_encoding()
        );
        assert_eq!(plain.server_stats(), traced.server_stats());
        let next = rngs.map(|mut rng| rng.next_u64());
        assert_eq!(next[0], next[1]);
        assert_eq!(next[0], next[2]);
    }

    #[test]
    fn config_validation() {
        assert!(DpIrConfig::with_epsilon(0, 1.0, 0.1).is_err());
        assert!(DpIrConfig::with_epsilon(8, 1.0, 0.0).is_err());
        assert!(DpIrConfig::with_epsilon(8, 1.0, 1.5).is_err());
        assert!(DpIrConfig::with_epsilon(8, -1.0, 0.1).is_err());
        assert!(DpIrConfig::with_download_count(8, 0, 0.1).is_err());
        assert!(DpIrConfig::with_download_count(8, 9, 0.1).is_err());
        // The fields are public, so `setup` checks what it is handed; with
        // K > n Algorithm 1's rejection loop would never end. Never queried.
        let blocks = vec![vec![0u8; 8]; 4];
        for config in [
            DpIrConfig { n: 4, alpha: 0.1, k: 5 },
            DpIrConfig { n: 4, alpha: 0.1, k: 0 },
            DpIrConfig { n: 4, alpha: 0.0, k: 2 },
            DpIrConfig { n: 4, alpha: 1.5, k: 2 },
            DpIrConfig { n: 4, alpha: f64::NAN, k: 2 },
            DpIrConfig { n: 0, alpha: 0.1, k: 1 },
        ] {
            let blocks = &blocks[..config.n];
            assert!(
                matches!(
                    DpIr::setup(config, blocks, SimServer::new()),
                    Err(DpIrError::InvalidConfig(_))
                ),
                "{config:?}"
            );
        }
    }

    #[test]
    fn out_of_range_query_rejected() {
        let mut ir = build(16, 3.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(7);
        assert!(matches!(
            ir.query(16, &mut rng),
            Err(DpIrError::IndexOutOfRange { index: 16, n: 16 })
        ));
    }

    #[test]
    fn small_epsilon_forces_large_k() {
        // ε -> 0 means K -> n: privacy at PIR cost, matching Theorem 3.4.
        let c = DpIrConfig::with_epsilon(100, 0.01, 0.1).unwrap();
        assert_eq!(c.k, 100);
    }

    /// Decoys are uniform: every record appears in the download set with
    /// roughly equal frequency when querying a fixed index.
    #[test]
    fn decoys_are_uniform() {
        let mut ir = build(32, 2.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(8);
        let trials = 3000;
        let mut counts = [0u32; 32];
        for _ in 0..trials {
            let (_, set) = ir.query_traced(0, &mut rng).unwrap();
            for j in set {
                counts[j] += 1;
            }
        }
        // Index 0 is included almost always; others roughly uniformly.
        let others: Vec<u32> = counts[1..].to_vec();
        let mean = others.iter().sum::<u32>() as f64 / others.len() as f64;
        for (j, &c) in others.iter().enumerate() {
            let dev = (c as f64 - mean).abs() / mean;
            assert!(dev < 0.25, "record {}: count {c} vs mean {mean:.1}", j + 1);
        }
        assert!(counts[0] as f64 > mean, "queried record must dominate");
    }
}
