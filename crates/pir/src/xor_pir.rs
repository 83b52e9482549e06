//! 2-server XOR PIR (Chor, Goldreich, Kushilevitz, Sudan — FOCS 1995).
//!
//! The database is replicated on two non-colluding servers. To fetch record
//! `i` the client samples a uniform subset `S ⊆ [n]`, asks server 0 for the
//! XOR of `S` and server 1 for the XOR of `S Δ {i}`, and XORs the two
//! answers. Each server individually sees a uniformly random subset —
//! information-theoretic privacy — but must compute over ~`n/2` records,
//! which is exactly the `Θ(n)` server work the paper's multi-server DP-IR
//! relaxation (Appendix C) trades privacy to escape.

use dps_crypto::ChaChaRng;
use dps_server::{ReplicatedServers, ServerError, SimServer, Storage};

/// A 2-server XOR PIR client.
#[derive(Debug)]
pub struct XorPir<S: Storage = SimServer> {
    servers: ReplicatedServers<S>,
    n: usize,
    /// Reusable answer scratch, one per server, for the zero-alloc XOR path.
    answers: [Vec<u8>; 2],
}

impl XorPir {
    /// Replicates the (public, plaintext) database onto two in-process
    /// [`SimServer`]s.
    pub fn setup(blocks: &[Vec<u8>]) -> Self {
        Self::setup_on(blocks)
    }
}

impl<S: Storage> XorPir<S> {
    /// [`XorPir::setup`] over default-constructed backends of type `S`.
    /// Use [`XorPir::setup_with`] to configure each server.
    pub fn setup_on(blocks: &[Vec<u8>]) -> Self
    where
        S: Default,
    {
        Self::setup_with(blocks, |_| S::default())
    }

    /// [`XorPir::setup`] with a caller-supplied server factory (`make(i)`
    /// builds server `i`, e.g. a connection to the `i`-th daemon).
    pub fn setup_with(blocks: &[Vec<u8>], make: impl FnMut(usize) -> S) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        let size = blocks[0].len();
        assert!(blocks.iter().all(|b| b.len() == size), "uniform block size required");
        Self {
            servers: ReplicatedServers::replicate_with(2, blocks, make),
            n: blocks.len(),
            answers: [Vec::new(), Vec::new()],
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (setup requires at least one record).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total cost across both servers.
    pub fn total_stats(&self) -> dps_server::CostStats {
        self.servers.total_stats()
    }

    /// Access to the underlying server pool (transcript control).
    pub fn servers_mut(&mut self) -> &mut ReplicatedServers<S> {
        &mut self.servers
    }

    /// Retrieves record `index`.
    pub fn query(&mut self, index: usize, rng: &mut ChaChaRng) -> Result<Vec<u8>, ServerError> {
        assert!(index < self.n, "index out of range");
        // Uniform subset S: include each record with probability 1/2.
        let s0: Vec<usize> = (0..self.n).filter(|_| rng.gen_bool(0.5)).collect();
        // S Δ {i} for server 1.
        let mut s1 = s0.clone();
        match s1.binary_search(&index) {
            Ok(pos) => {
                s1.remove(pos);
            }
            Err(pos) => s1.insert(pos, index),
        }
        // Both scans always run to completion and errors propagate in
        // server order afterwards, so per-server stats and transcripts keep
        // their shape on error paths. An empty subset yields an empty
        // answer, which XORs as all-zeroes.
        let [answer0, answer1] = &mut self.answers;
        let results = [
            self.servers.server_mut(0).xor_cells_into(&s0, answer0),
            self.servers.server_mut(1).xor_cells_into(&s1, answer1),
        ];
        for result in results {
            result?;
        }
        let mut out = Vec::new();
        for answer in &self.answers {
            if answer.len() > out.len() {
                out.resize(answer.len(), 0);
            }
            for (x, y) in out.iter_mut().zip(answer.iter()) {
                *x ^= y;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> XorPir {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8, (i * 7) as u8]).collect();
        XorPir::setup(&blocks)
    }

    #[test]
    fn returns_requested_record() {
        let mut pir = build(32);
        let mut rng = ChaChaRng::seed_from_u64(1);
        for i in 0..32 {
            assert_eq!(pir.query(i, &mut rng).unwrap(), vec![i as u8, (i * 7) as u8]);
        }
    }

    #[test]
    fn servers_each_see_random_subsets() {
        // Marginal inclusion frequency of every record at each server should
        // be ~1/2 regardless of the queried index.
        let mut pir = build(16);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let trials = 2000;
        let mut inclusion = [0u32; 16];
        for _ in 0..trials {
            pir.servers_mut().start_recording_all();
            pir.query(3, &mut rng).unwrap();
            let transcripts = pir.servers_mut().take_transcripts();
            for addr in transcripts[0].downloaded_addresses() {
                inclusion[addr] += 1;
            }
        }
        for (i, &c) in inclusion.iter().enumerate() {
            let f = c as f64 / trials as f64;
            assert!((f - 0.5).abs() < 0.06, "record {i} inclusion {f}");
        }
    }

    /// Both scans run before an error propagates: with replica 0 too
    /// small for the subset, the query returns its error and replica 1 has
    /// still computed over its own subset.
    #[test]
    fn failed_scan_on_one_replica_still_scans_the_other() {
        let mut pir = build(32);
        let mut rng = ChaChaRng::seed_from_u64(4);
        pir.servers_mut().server_mut(0).init(vec![vec![0; 2]]);
        let before = pir.servers_mut().server(1).stats().computed;
        assert!(matches!(pir.query(9, &mut rng), Err(ServerError::OutOfBounds { .. })));
        assert!(pir.servers_mut().server(1).stats().computed > before);
    }

    #[test]
    fn total_work_is_linear() {
        let mut pir = build(64);
        let mut rng = ChaChaRng::seed_from_u64(3);
        let before = pir.total_stats();
        for _ in 0..20 {
            pir.query(0, &mut rng).unwrap();
        }
        let diff = pir.total_stats().since(&before);
        let per_query = diff.computed as f64 / 20.0;
        assert!((per_query - 64.0).abs() < 10.0, "expected ~n = 64 ops/query, got {per_query}");
    }
}
