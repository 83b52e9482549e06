//! Batched and sealed DP-IR: the [`DpIr`] methods for many retrievals in
//! one round trip, and for records sealed at rest — and the one read path
//! every query runs, a single query being a batch of one.
//!
//! The paper's motivating deployments ("large-scale storage infrastructure
//! with highly frequent access requests", Section 1) rarely issue queries
//! one at a time. A batch of `m` queries samples the `m` download sets
//! *independently* with Algorithm 1, then issues their **union** to the
//! server in a single round trip.
//!
//! Two properties make this more than a convenience wrapper:
//!
//! * **Privacy is unchanged.** Definition 2.1's adjacency changes a single
//!   query; only that query's download set is affected (the other `m − 1`
//!   sets are sampled independently of it), and the union is
//!   post-processing, so the batch transcript is `ε`-DP with the *same*
//!   `ε = ln((1 − α)n/(αK) + 1)` as a single query — batching is free
//!   privacy-wise.
//! * **Bandwidth sublinearity.** Duplicate decoys collapse: the union's
//!   expected size is `n·(1 − (1 − K/n)^m) ≤ m·K`, with real savings once
//!   `m·K` approaches `n` — and the whole batch costs one round trip
//!   instead of `m`.
//!
//! Sealing ([`DpIr::setup_sealed`]) changes nothing about the privacy
//! argument (the transcript is still exactly the union download set), but
//! it adds confidentiality and tamper/swap detection against the storage
//! backend. A query's needed cells are opened in one call to
//! [`AeadCipher`]'s 8-lane batch core.

use std::collections::BTreeSet;

use dps_crypto::aead::{address_aad, AeadCipher};
use dps_crypto::{ChaChaRng, AEAD_OVERHEAD};

use crate::dp_ir::{check_setup, Batch, DpIr, DpIrConfig, DpIrError};
use dps_server::Storage;

/// A batch's answers, one per query: `Some(record)`, or `None` in the
/// error case.
type Answers = Vec<Option<Vec<u8>>>;

/// Key, layout and open scratch of a sealed-at-rest record store.
#[derive(Debug)]
pub(crate) struct SealedStore {
    cipher: AeadCipher,
    /// Uniform sealed-cell length (`record_len + AEAD_OVERHEAD`).
    ct_stride: usize,
    /// Reusable flat scratch for the needed cells' ciphertexts, one per hit.
    ct_scratch: Vec<u8>,
    /// Reusable flat scratch for the opened plaintexts.
    pt_scratch: Vec<u8>,
    /// Reusable scratch for the needed cells' address AADs.
    aads: Vec<[u8; 16]>,
}

impl SealedStore {
    /// Downloads `batch.union` in one round trip, copying the cell of each
    /// hit into its slot, then opens them as one batch — per-cell address
    /// AADs, wide AEAD core — and hands each hit's plaintext to `answer`.
    /// The server chooses each cell's length: copy only cells of the
    /// sealed stride, and report the first that is not once the round trip
    /// is over (the transcript keeps its shape).
    fn read<S: Storage>(
        &mut self,
        server: &mut S,
        batch: &Batch,
        mut answer: impl FnMut(usize, &[u8]),
    ) -> Result<(), DpIrError> {
        let stride = self.ct_stride;
        let ct_scratch = &mut self.ct_scratch;
        ct_scratch.resize(batch.hits.len() * stride, 0);
        let mut wrong_length = None;
        server.read_batch_with(&batch.union, |pos, cell| {
            for (slot, _) in batch.hits_at(pos) {
                if cell.len() == stride {
                    ct_scratch[slot * stride..(slot + 1) * stride].copy_from_slice(cell);
                } else {
                    wrong_length.get_or_insert((batch.union[pos], cell.len()));
                }
            }
        })?;
        if let Some((addr, len)) = wrong_length {
            return Err(DpIrError::Crypto(format!(
                "cell {addr} has {len} bytes, expected {stride}"
            )));
        }
        self.aads.clear();
        let addrs = batch.hits.iter().map(|&(pos, _)| batch.union[pos]);
        self.aads.extend(addrs.map(|addr| address_aad(addr, 0)));
        let pt_stride = stride - AEAD_OVERHEAD;
        self.pt_scratch.resize(batch.hits.len() * pt_stride, 0);
        self.cipher
            .open_batch_to_slices(&self.aads, &self.ct_scratch, &mut self.pt_scratch)
            .map_err(|e| DpIrError::Crypto(e.to_string()))?;
        for (slot, &(_, query)) in batch.hits.iter().enumerate() {
            answer(query, &self.pt_scratch[slot * pt_stride..(slot + 1) * pt_stride]);
        }
        Ok(())
    }
}

impl<S: Storage> DpIr<S> {
    /// Like [`DpIr::setup`], but seals every record onto the server under
    /// a fresh AEAD key with [`address_aad`]`(i, 0)` bound to cell `i`, so
    /// the backend holds only ciphertext and any moved or corrupted cell
    /// fails authentication at query time. The sealing runs through the
    /// wide batch core.
    pub fn setup_sealed(
        config: DpIrConfig,
        blocks: &[Vec<u8>],
        mut server: S,
        rng: &mut ChaChaRng,
    ) -> Result<Self, DpIrError> {
        let record_len = check_setup(&config, blocks)?;
        let cipher = AeadCipher::generate(rng);
        let nonces = rng.draw_nonces(blocks.len());
        let aads: Vec<[u8; 16]> = (0..blocks.len()).map(|i| address_aad(i, 0)).collect();
        let flat_pt: Vec<u8> = blocks.iter().flatten().copied().collect();
        let ct_stride = record_len + AEAD_OVERHEAD;
        let mut flat_ct = vec![0u8; blocks.len() * ct_stride];
        cipher.seal_batch_with_nonces(&nonces, &aads, &flat_pt, &mut flat_ct);
        server.init_with(blocks.len(), |sink| flat_ct.chunks_exact(ct_stride).for_each(sink));
        let store = SealedStore {
            cipher,
            ct_stride,
            ct_scratch: Vec::new(),
            pt_scratch: Vec::new(),
            aads: Vec::new(),
        };
        Ok(Self { config, server, sealed: Some(store), batch: Batch::default() })
    }

    /// True when records are sealed at rest.
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Expected union size for a batch of `m`:
    /// `n·(1 − (1 − K/n)^m)` — the dedup-savings curve experiments plot.
    pub fn expected_union_size(&self, m: usize) -> f64 {
        let n = self.config.n as f64;
        let k = self.config.k as f64;
        n * (1.0 - (1.0 - k / n).powi(m as i32))
    }

    /// Answers a batch of queries in one round trip. `results[j]` is
    /// `Some(record)` with probability `1 − α` per query, independently.
    pub fn query_batch(
        &mut self,
        indices: &[usize],
        rng: &mut ChaChaRng,
    ) -> Result<Answers, DpIrError> {
        let mut results = vec![None; indices.len()];
        self.read(indices, rng, |query, record| results[query] = Some(record.to_vec()))?;
        Ok(results)
    }

    /// [`DpIr::query_batch`] returning the union download set — the batch
    /// transcript.
    pub fn query_batch_traced(
        &mut self,
        indices: &[usize],
        rng: &mut ChaChaRng,
    ) -> Result<(Answers, BTreeSet<usize>), DpIrError> {
        let results = self.query_batch(indices, rng)?;
        Ok((results, self.batch.union.iter().copied().collect()))
    }

    /// The one read path: checks `indices`, draws their download sets
    /// into the batch scratch, downloads the union in one round trip and
    /// hands `answer(j, record)` the record of each query `j` that drew
    /// its real one — a plain cell as the server returned it, a sealed one
    /// opened. Only the answers the caller keeps allocate.
    pub(crate) fn read(
        &mut self,
        indices: &[usize],
        rng: &mut ChaChaRng,
        mut answer: impl FnMut(usize, &[u8]),
    ) -> Result<(), DpIrError> {
        let n = self.config.n;
        if let Some(&index) = indices.iter().find(|&&index| index >= n) {
            return Err(DpIrError::IndexOutOfRange { index, n });
        }
        let Self { config, server, sealed, batch } = self;
        batch.draw(config, indices, rng);
        match sealed {
            None => server.read_batch_with(&batch.union, |pos, cell| {
                for (_, query) in batch.hits_at(pos) {
                    answer(query, cell);
                }
            })?,
            Some(store) => store.read(server, batch, answer)?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::SimServer;

    fn build(n: usize, epsilon: f64, alpha: f64) -> DpIr {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 8]).collect();
        let config = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap();
        DpIr::setup(config, &blocks, SimServer::new()).unwrap()
    }

    #[test]
    fn batch_returns_correct_records() {
        let mut ir = build(128, 4.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let indices = [3usize, 77, 3, 120];
        for _ in 0..50 {
            let results = ir.query_batch(&indices, &mut rng).unwrap();
            for (j, result) in results.iter().enumerate() {
                if let Some(block) = result {
                    assert_eq!(*block, vec![(indices[j] % 251) as u8; 8], "slot {j}");
                }
            }
        }
    }

    /// A query is a batch of one: on two instances from one seed,
    /// `query(i)` and `query_batch(&[i])` give the same answers, the same
    /// transcript, the same costs and leave the RNG at the same place — on
    /// a plain store and on a sealed one.
    #[test]
    fn a_batch_of_one_draws_dp_irs_download_set() {
        let pairs = [
            (build(64, 2.0, 0.25), build(64, 2.0, 0.25)),
            (build_sealed(64, 2.0, 0.25, 9).0, build_sealed(64, 2.0, 0.25, 9).0),
        ];
        for (mut single, mut batched) in pairs {
            assert!(single.config().k > 1);
            single.server_mut().start_recording();
            batched.server_mut().start_recording();
            let (mut ours, mut theirs) = (ChaChaRng::seed_from_u64(3), ChaChaRng::seed_from_u64(3));
            let mut answered = 0;
            for q in 0..1000 {
                let index = (q * 37) % 64;
                let answer = single.query(index, &mut ours).unwrap();
                let answers = batched.query_batch(&[index], &mut theirs).unwrap();
                assert_eq!(answers, vec![answer.clone()], "query {q}");
                answered += usize::from(answer.is_some());
            }
            assert!(answered > 600, "{answered} of 1000 answered");
            assert_eq!(
                single.server_mut().take_transcript().canonical_encoding(),
                batched.server_mut().take_transcript().canonical_encoding()
            );
            assert_eq!(single.server_stats(), batched.server_stats());
            assert_eq!(ours.next_u64(), theirs.next_u64(), "rng position");
        }
    }

    #[test]
    fn whole_batch_is_one_round_trip() {
        let mut ir = build(256, 4.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let before = ir.server_stats();
        ir.query_batch(&[1, 2, 3, 4, 5, 6, 7, 8], &mut rng).unwrap();
        let diff = ir.server_stats().since(&before);
        assert_eq!(diff.round_trips, 1);
        assert_eq!(diff.uploads, 0);
    }

    #[test]
    fn union_dedup_saves_bandwidth() {
        // With m·K comparable to n, the union is measurably smaller than
        // m·K and tracks the analytic expectation.
        let mut ir = build(64, 2.0, 0.25); // K sizeable relative to n
        let k = ir.config().k;
        let m = 16;
        let mut rng = ChaChaRng::seed_from_u64(3);
        let indices: Vec<usize> = (0..m).collect();
        let trials = 300;
        let mut total = 0usize;
        for _ in 0..trials {
            let (_, union) = ir.query_batch_traced(&indices, &mut rng).unwrap();
            total += union.len();
        }
        let mean = total as f64 / trials as f64;
        let predicted = ir.expected_union_size(m);
        assert!(mean < (m * k) as f64 * 0.95, "no dedup savings: {mean} vs {}", m * k);
        assert!(
            (mean - predicted).abs() / predicted < 0.1,
            "union size {mean:.1} vs predicted {predicted:.1}"
        );
    }

    #[test]
    fn per_query_error_rate_is_alpha() {
        let mut ir = build(64, 4.0, 0.3);
        let mut rng = ChaChaRng::seed_from_u64(4);
        let trials = 1000;
        let mut errors = [0u32; 4];
        for _ in 0..trials {
            let results = ir.query_batch(&[0, 1, 2, 3], &mut rng).unwrap();
            for (j, r) in results.iter().enumerate() {
                if r.is_none() {
                    errors[j] += 1;
                }
            }
        }
        for (j, &e) in errors.iter().enumerate() {
            let rate = f64::from(e) / trials as f64;
            assert!((rate - 0.3).abs() < 0.05, "slot {j}: error rate {rate}");
        }
    }

    /// Adjacency locality: replacing one query re-randomizes only that
    /// query's contribution. We verify the *union* still contains each
    /// successful real index — the structural fact behind the ε-preservation
    /// argument.
    #[test]
    fn success_implies_membership_in_union() {
        let mut ir = build(64, 3.0, 0.3);
        let mut rng = ChaChaRng::seed_from_u64(5);
        for _ in 0..200 {
            let indices = [7usize, 21, 42];
            let (results, union) = ir.query_batch_traced(&indices, &mut rng).unwrap();
            for (j, r) in results.iter().enumerate() {
                if r.is_some() {
                    assert!(union.contains(&indices[j]));
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut ir = build(16, 3.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(6);
        let (results, union) = ir.query_batch_traced(&[], &mut rng).unwrap();
        assert!(results.is_empty());
        assert!(union.is_empty());
    }

    #[test]
    fn out_of_range_rejected_before_any_download() {
        let mut ir = build(16, 3.0, 0.1);
        let mut rng = ChaChaRng::seed_from_u64(7);
        let before = ir.server_stats();
        assert!(matches!(
            ir.query_batch(&[3, 99], &mut rng),
            Err(DpIrError::IndexOutOfRange { index: 99, n: 16 })
        ));
        assert_eq!(ir.server_stats().since(&before).downloads, 0);
    }

    fn build_sealed(n: usize, epsilon: f64, alpha: f64, seed: u64) -> (DpIr, ChaChaRng) {
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 8]).collect();
        let config = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap();
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let ir = DpIr::setup_sealed(config, &blocks, SimServer::new(), &mut rng).unwrap();
        (ir, rng)
    }

    /// Sealed stores return the same records as plaintext stores and hold
    /// only ciphertext server-side.
    #[test]
    fn sealed_batch_returns_correct_records() {
        let (mut ir, mut rng) = build_sealed(128, 4.0, 0.1, 11);
        assert!(ir.is_sealed());
        // No stored cell equals any plaintext record (all sealed).
        let plain = vec![5u8; 8];
        assert!(ir.server_mut().read(5).unwrap() != plain);
        let indices = [5usize, 90, 5, 127];
        for _ in 0..30 {
            let results = ir.query_batch(&indices, &mut rng).unwrap();
            for (j, result) in results.iter().enumerate() {
                if let Some(block) = result {
                    assert_eq!(*block, vec![(indices[j] % 251) as u8; 8], "slot {j}");
                }
            }
        }
    }

    /// The bytes a seed produces are pinned: the constant was recorded at
    /// the commit before the worker pool and its chunked helpers were
    /// deleted, and must hold under every `DPS_FORCE_ISA` tier. FNV-1a-64
    /// over 20 batches' results and union sets, the paper's six cost
    /// counters, the transcript and every sealed cell in address order.
    #[test]
    fn sealed_seeded_run_matches_the_recorded_digest() {
        let (mut ir, mut rng) = build_sealed(64, 3.0, 0.2, 7);
        ir.server_mut().start_recording();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut absorb = |bytes: &[u8]| {
            for &byte in bytes {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for _ in 0..20 {
            let (results, union) = ir.query_batch_traced(&[1, 17, 40, 17, 63], &mut rng).unwrap();
            for result in results {
                match result {
                    Some(record) => {
                        absorb(&[1]);
                        absorb(&record);
                    }
                    None => absorb(&[0]),
                }
            }
            for addr in union {
                absorb(&(addr as u64).to_le_bytes());
            }
        }
        let s = ir.server_stats();
        for counter in [s.downloads, s.uploads, s.computed, s.round_trips, s.bytes_down, s.bytes_up]
        {
            absorb(&counter.to_le_bytes());
        }
        absorb(&ir.server_mut().take_transcript().canonical_encoding());
        for addr in 0..64 {
            absorb(&ir.server_mut().read(addr).unwrap());
        }
        assert_eq!(
            digest, 0x64d6_2841_667d_f1a2,
            "results, unions, stats, transcript and sealed cells"
        );
    }

    /// A cell moved to a different address fails authentication (the
    /// address AAD binds position), surfacing as a Crypto error.
    #[test]
    fn sealed_detects_swapped_cells() {
        let (mut ir, mut rng) = build_sealed(32, 4.0, 0.05, 13);
        let a = ir.server_mut().read(3).unwrap();
        let b = ir.server_mut().read(9).unwrap();
        ir.server_mut().write(3, b).unwrap();
        ir.server_mut().write(9, a).unwrap();
        // Query index 3 repeatedly; as soon as a query succeeds (downloads
        // and opens the real record), the swap must be detected.
        let mut detected = false;
        for _ in 0..100 {
            match ir.query_batch(&[3], &mut rng) {
                Err(DpIrError::Crypto(_)) => {
                    detected = true;
                    break;
                }
                Ok(results) => assert!(results[0].is_none(), "swapped cell must not open"),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(detected, "swap never detected across 100 queries");
    }

    /// Both set-ups reject ragged record sizes with the same typed error.
    #[test]
    fn sealed_requires_uniform_records() {
        let blocks = vec![vec![1u8; 8], vec![2u8; 9]];
        let config = DpIrConfig::with_epsilon(2, 1.0, 0.3).unwrap();
        let mut rng = ChaChaRng::seed_from_u64(1);
        assert!(matches!(
            DpIr::setup_sealed(config, &blocks, SimServer::new(), &mut rng),
            Err(DpIrError::InvalidConfig(_))
        ));
        assert!(matches!(
            DpIr::setup(config, &blocks, SimServer::new()),
            Err(DpIrError::InvalidConfig(_))
        ));
    }

    /// Sealing does not change the transcript shape: the union download
    /// set remains the whole observable access pattern.
    #[test]
    fn sealed_transcript_is_still_the_union() {
        let (mut ir, mut rng) = build_sealed(64, 3.0, 0.2, 21);
        ir.server_mut().start_recording();
        let (_, union) = ir.query_batch_traced(&[5, 40], &mut rng).unwrap();
        let transcript = ir.server_mut().take_transcript();
        let downloaded: std::collections::BTreeSet<usize> =
            transcript.downloaded_addresses().into_iter().collect();
        assert_eq!(downloaded, union);
    }

    #[test]
    fn expected_union_size_is_monotone_and_bounded() {
        let ir = build(128, 3.0, 0.1);
        let k = ir.config().k as f64;
        assert!((ir.expected_union_size(1) - k).abs() < k * 0.15);
        let mut prev = 0.0;
        for m in [1usize, 2, 4, 8, 16, 64] {
            let e = ir.expected_union_size(m);
            assert!(e >= prev, "must be monotone in m");
            assert!(e <= 128.0, "can never exceed n");
            prev = e;
        }
    }
}
