//! ⚠️ The *insecure* strawman construction of Section 4. **Do not use.**
//!
//! The tempting idea: to get `ε = Θ(log n)` it suffices for the real record
//! to be downloaded with probability a `poly(n)` factor larger than any
//! other record — so query the real record with probability 1 and every
//! other record independently with probability `1/n`. Expected `O(1)`
//! bandwidth, perfect correctness, no client state.
//!
//! The paper shows this is only `(ε, δ)`-DP with `δ ≥ (n−1)/n`: the event
//! "record `B_i` was *not* downloaded" has probability 0 under query `i`
//! but probability `(1 − 1/n)^{... }≈ (n−1)/n` under any other query, and no
//! multiplicative factor can cover a zero-probability event — the slack
//! must all be absorbed by `δ`. An adversary observing that event learns
//! with certainty that `i` was not the query.
//!
//! The module exists so experiment E4 can *measure* the failure; the type
//! is named loudly to keep it out of production code paths.

use std::collections::BTreeSet;

use dps_crypto::ChaChaRng;
use dps_server::{ServerError, SimServer, Storage};

/// The insecure strawman scheme. Exists only to demonstrate its own
/// insecurity (Section 4); use [`crate::dp_ir::DpIr`] instead.
#[derive(Debug)]
pub struct InsecureStrawmanIr<S: Storage = SimServer> {
    n: usize,
    server: S,
}

impl<S: Storage> InsecureStrawmanIr<S> {
    /// Stores the public database.
    pub fn setup(blocks: &[Vec<u8>], mut server: S) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let n = blocks.len();
        server.init_with(n, |sink| blocks.iter().for_each(|b| sink(b)));
        Self { n, server }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.server.stats()
    }

    /// Samples the download set without touching the server (for audits):
    /// the real index with probability 1, every other independently with
    /// probability `1/n`.
    pub fn sample_download_set(&self, index: usize, rng: &mut ChaChaRng) -> BTreeSet<usize> {
        let p = 1.0 / self.n as f64;
        let mut set = BTreeSet::new();
        set.insert(index);
        for j in 0..self.n {
            if j != index && rng.gen_bool(p) {
                set.insert(j);
            }
        }
        set
    }

    /// Queries record `index` — always correct, expected `O(1)` bandwidth,
    /// and **no privacy** (δ → 1; see module docs).
    pub fn query(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, ServerError> {
        Ok(self.query_traced(index, rng)?.0)
    }

    /// Like [`InsecureStrawmanIr::query`], also returning the download set.
    pub fn query_traced(
        &mut self,
        index: usize,
        rng: &mut ChaChaRng,
    ) -> Result<(Vec<u8>, BTreeSet<usize>), ServerError> {
        assert!(index < self.n, "index out of range");
        let set = self.sample_download_set(index, rng);
        let addrs: Vec<usize> = set.iter().copied().collect();
        let pos = addrs.binary_search(&index).expect("real index always in set");
        // Zero-copy scan: only the real record leaves the server arena.
        let mut out = Vec::new();
        self.server.read_batch_with(&addrs, |i, cell| {
            if i == pos {
                out.extend_from_slice(cell);
            }
        })?;
        Ok((out, set))
    }
}

impl InsecureStrawmanIr {
    /// The paper's lower bound on this scheme's δ: `(n−1)/n`.
    pub fn delta_lower_bound(n: usize) -> f64 {
        (n as f64 - 1.0) / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> InsecureStrawmanIr {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        InsecureStrawmanIr::setup(&blocks, SimServer::new())
    }

    #[test]
    fn always_correct() {
        let mut ir = build(32);
        let mut rng = ChaChaRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(ir.query(7, &mut rng).unwrap(), vec![7u8; 4]);
        }
    }

    #[test]
    fn expected_bandwidth_is_constant() {
        let mut ir = build(256);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let before = ir.server_stats();
        let trials = 500;
        for _ in 0..trials {
            ir.query(0, &mut rng).unwrap();
        }
        let per_query = ir.server_stats().since(&before).downloads as f64 / trials as f64;
        // E[|T|] = 1 + (n-1)/n ≈ 2.
        assert!((per_query - 2.0).abs() < 0.2, "per-query downloads {per_query}");
    }

    /// The attack the paper describes: Pr[B_i ∉ IR(i)] = 0 while
    /// Pr[B_i ∉ IR(j)] ≈ (n−1)/n, so observing "i absent" reveals the
    /// query with certainty. This *is* the insecurity — measured.
    #[test]
    fn absence_event_identifies_the_query() {
        let mut ir = build(64);
        let mut rng = ChaChaRng::seed_from_u64(3);
        let trials = 2000;

        let absent_under_i = (0..trials)
            .filter(|_| !ir.query_traced(5, &mut rng).unwrap().1.contains(&5))
            .count();
        assert_eq!(absent_under_i, 0, "real record is always downloaded");

        let absent_under_j = (0..trials)
            .filter(|_| !ir.query_traced(9, &mut rng).unwrap().1.contains(&5))
            .count();
        let rate = absent_under_j as f64 / trials as f64;
        let bound = InsecureStrawmanIr::delta_lower_bound(64);
        assert!(rate > bound - 0.05, "absence rate {rate} should approach (n-1)/n = {bound}");
    }

    #[test]
    fn delta_bound_approaches_one() {
        assert!(InsecureStrawmanIr::delta_lower_bound(2) >= 0.5);
        assert!(InsecureStrawmanIr::delta_lower_bound(1_000_000) > 0.999);
    }
}
