//! Property-based tests for the crypto substrate.

use dps_crypto::{BlockCipher, ChaChaRng, Prf};
use proptest::prelude::*;

proptest! {
    // The PRP-bijection and Merkle properties walk whole domains per case;
    // 64 cases keeps this suite CI-friendly without weakening coverage of
    // the short-input edge cases (empty, single-byte, block-boundary).
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encryption round-trips for arbitrary plaintexts.
    #[test]
    fn cipher_round_trip(plaintext in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let ct = cipher.encrypt(&plaintext, &mut rng);
        let mut back = Vec::new();
        cipher.decrypt_into(&ct.0, &mut back).unwrap();
        prop_assert_eq!(back, plaintext);
    }

    /// The in-place / into-scratch crypto paths agree exactly with the
    /// owning paths: `encrypt_into` output decrypts via `decrypt_to_slice`
    /// and `decrypt_into`, owned `encrypt` output decrypts via
    /// `decrypt_in_place`, and a reused scratch buffer never leaks state
    /// between calls.
    #[test]
    fn in_place_crypto_matches_owning(
        pt_a in proptest::collection::vec(any::<u8>(), 0..300),
        pt_b in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let mut ct_scratch = Vec::new();
        let mut pt_scratch = vec![0xEEu8; 64]; // stale contents must be cleared
        for pt in [&pt_a, &pt_b, &pt_a] {
            // encrypt_into -> decrypt_to_slice
            cipher.encrypt_into(pt, &mut ct_scratch, &mut rng);
            let mut slot = vec![0xEEu8; pt.len()];
            prop_assert_eq!(cipher.decrypt_to_slice(&ct_scratch, &mut slot).unwrap(), pt.len());
            prop_assert_eq!(&slot, pt);
            // encrypt_into -> decrypt_into (scratch reuse)
            cipher.decrypt_into(&ct_scratch.clone(), &mut pt_scratch).unwrap();
            prop_assert_eq!(&pt_scratch, pt);
            // encrypt (owned) -> decrypt_in_place
            let mut buf = cipher.encrypt(pt, &mut rng).0;
            cipher.decrypt_in_place(&mut buf).unwrap();
            prop_assert_eq!(&buf, pt);
        }
    }

    /// `decrypt_in_place` detects corruption and leaves the buffer intact
    /// on failure.
    #[test]
    fn decrypt_in_place_rejects_corruption(
        len in 0usize..128,
        pos_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let mut buf = cipher.encrypt(&vec![3u8; len], &mut rng).0;
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1;
        let before = buf.clone();
        prop_assert!(cipher.decrypt_in_place(&mut buf).is_err());
        prop_assert_eq!(buf, before);
    }

    /// Ciphertext length depends only on plaintext length.
    #[test]
    fn ciphertext_length_is_deterministic(len in 0usize..300, seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let a = cipher.encrypt(&vec![0u8; len], &mut rng);
        let b = cipher.encrypt(&vec![0xFF; len], &mut rng);
        prop_assert_eq!(a.len(), b.len());
    }

    /// Any single-byte corruption is detected.
    #[test]
    fn corruption_detected(len in 1usize..128, pos_frac in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let mut ct = cipher.encrypt(&vec![7u8; len], &mut rng);
        let pos = ((ct.0.len() - 1) as f64 * pos_frac) as usize;
        ct.0[pos] ^= 1;
        prop_assert!(cipher.decrypt_into(&ct.0, &mut Vec::new()).is_err());
    }

    /// SHA-256 incremental hashing is split-invariant.
    #[test]
    fn sha256_split_invariant(data in proptest::collection::vec(any::<u8>(), 0..400), split_frac in 0.0f64..1.0) {
        let split = (data.len() as f64 * split_frac) as usize;
        let mut h = dps_crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), dps_crypto::sha256::digest(&data));
    }

    /// gen_range stays in range and gen_index covers [0, n).
    #[test]
    fn rng_range_bounds(n in 1u64..=u64::MAX, seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        for _ in 0..8 {
            prop_assert!(rng.gen_range(n) < n);
        }
    }

    /// sample_distinct returns exactly k distinct in-range values.
    #[test]
    fn sample_distinct_invariants(k in 0usize..64, extra in 0usize..64, seed in any::<u64>()) {
        let n = k + extra.max(1);
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let sample = rng.sample_distinct(k, n);
        prop_assert_eq!(sample.len(), k);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(sample.iter().all(|&v| v < n));
    }

    /// Shuffle preserves the multiset.
    #[test]
    fn shuffle_is_permutation(mut v in proptest::collection::vec(any::<u16>(), 0..80), seed in any::<u64>()) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    /// PRF range reduction is in range for arbitrary inputs.
    #[test]
    fn prf_range(input in proptest::collection::vec(any::<u8>(), 0..64), n in 1u64..1_000_000) {
        let prf = dps_crypto::HmacPrf::new(b"prop-key");
        prop_assert!(prf.eval_range(&input, n) < n);
    }

    /// AEAD round-trips for arbitrary plaintexts and associated data.
    #[test]
    fn aead_round_trip(
        plaintext in proptest::collection::vec(any::<u8>(), 0..256),
        aad in proptest::collection::vec(any::<u8>(), 0..48),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = dps_crypto::AeadCipher::generate(&mut rng);
        let mut sealed = vec![0u8; plaintext.len() + dps_crypto::AEAD_OVERHEAD];
        cipher.seal_with_nonce_into(&rng.draw_nonces(1)[0], &aad, &plaintext, &mut sealed);
        let mut back = vec![0u8; plaintext.len()];
        prop_assert_eq!(cipher.open_to_slice(&aad, &sealed, &mut back).unwrap(), plaintext.len());
        prop_assert_eq!(back, plaintext);
    }

    /// AEAD rejects any single-byte corruption of ciphertext or AAD.
    #[test]
    fn aead_rejects_corruption(
        len in 1usize..96,
        pos_frac in 0.0f64..1.0,
        flip_aad in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = dps_crypto::AeadCipher::generate(&mut rng);
        let mut aad = vec![1u8, 2, 3];
        let mut sealed = vec![0u8; len + dps_crypto::AEAD_OVERHEAD];
        cipher.seal_with_nonce_into(&rng.draw_nonces(1)[0], &aad, &vec![9u8; len], &mut sealed);
        if flip_aad {
            aad[1] ^= 1;
        } else {
            let pos = ((sealed.len() - 1) as f64 * pos_frac) as usize;
            sealed[pos] ^= 1;
        }
        prop_assert!(cipher.open_to_slice(&aad, &sealed, &mut vec![0u8; len]).is_err());
    }

    /// The wide multi-block keystream (8, then 4, consecutive counters per
    /// pass) is byte-identical to a scalar per-block reference for lengths
    /// spanning sub-block tails through several 512-byte stripes. Run under
    /// each `DPS_FORCE_ISA` tier (as CI does), this pins the avx2, sse2 and
    /// portable cores byte-identical to one another via the shared scalar
    /// reference.
    #[test]
    fn wide_keystream_matches_scalar_blocks(
        len in 0usize..=1024,
        counter in any::<u32>(),
        key in proptest::array::uniform32(any::<u8>()),
        nonce_seed in any::<u64>(),
    ) {
        use dps_crypto::chacha;
        let mut nonce = [0u8; 12];
        ChaChaRng::seed_from_u64(nonce_seed).fill_bytes(&mut nonce);
        let original: Vec<u8> = (0..len).map(|i| (i * 29 % 251) as u8).collect();
        let mut data = original.clone();
        chacha::xor_keystream(&key, counter, &nonce, &mut data);
        let mut expected = original;
        for (j, chunk) in expected.chunks_mut(chacha::BLOCK_LEN).enumerate() {
            let ks = chacha::block(&key, counter.wrapping_add(j as u32), &nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        prop_assert_eq!(data, expected);
    }

    /// The strided multi-cell keystream entry point (up to 8 different
    /// nonces per pass) equals a per-cell `xor_keystream` loop for every
    /// cell-count remainder class of both group widths (1..=8 and beyond),
    /// sub-block cell lengths, and misaligned in-slot byte offsets.
    #[test]
    fn wide_batch_strided_matches_per_cell(
        cells in 0usize..18,
        len in 0usize..300,
        offset in 0usize..8,
        pad in 0usize..20,
        key in proptest::array::uniform32(any::<u8>()),
        seed in any::<u64>(),
    ) {
        use dps_crypto::chacha;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let stride = offset + len + pad;
        let nonces = rng.draw_nonces(cells);
        let original: Vec<u8> = (0..cells * stride).map(|i| (i * 31 % 251) as u8).collect();
        let mut batch = original.clone();
        chacha::xor_keystream_batch_strided(&key, 1, &nonces, &mut batch, stride, offset, len);
        let mut expected = original;
        for (i, nonce) in nonces.iter().enumerate() {
            let start = i * stride + offset;
            chacha::xor_keystream(&key, 1, nonce, &mut expected[start..start + len]);
        }
        prop_assert_eq!(batch, expected);
    }

    /// `Poly1305xN` at both widths equals scalar `Poly1305` in every lane,
    /// under a random key per lane, for one message of 0..=1024 bytes and
    /// for the AEAD's shape `update(a) + pad16 + update(b)`. The cell-count
    /// remainder classes of the 8 → 4 → scalar grouping are covered through
    /// the real entry point by `cipher_batch_matches_sequential`.
    #[test]
    fn poly1305_batch_matches_scalar(
        len in 0usize..=1024,
        split_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let split = (len as f64 * split_frac) as usize;
        poly1305_lanes_check::<8>(&mut rng, len, split);
        poly1305_lanes_check::<4>(&mut rng, len, split);
    }

    /// The batch cipher entry points are byte-identical to sequential
    /// per-cell loops over the same pre-drawn nonces, and round-trip, up to
    /// 20 cells and past DP-KVS's 219-byte cell body.
    #[test]
    fn cipher_batch_matches_sequential(
        cells in 0usize..=20,
        pt_stride in 0usize..=300,
        seed in any::<u64>(),
    ) {
        use dps_crypto::CIPHERTEXT_OVERHEAD;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        let plaintexts: Vec<u8> = (0..cells * pt_stride).map(|i| (i * 7 % 251) as u8).collect();
        let nonces = rng.draw_nonces(cells);
        let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
        let mut batch = vec![0u8; cells * ct_stride];
        cipher.encrypt_batch_with_nonces(&nonces, &plaintexts, &mut batch);
        let mut seq = vec![0u8; cells * ct_stride];
        for i in 0..cells {
            cipher.encrypt_with_nonce_into(
                &nonces[i],
                &plaintexts[i * pt_stride..(i + 1) * pt_stride],
                &mut seq[i * ct_stride..(i + 1) * ct_stride],
            );
        }
        prop_assert_eq!(&batch, &seq);
        let mut back = vec![0u8; cells * pt_stride];
        cipher.decrypt_batch_to_slices(&batch, cells, &mut back).unwrap();
        prop_assert_eq!(back, plaintexts);
    }

    /// The batch AEAD entry points are byte-identical to sequential
    /// per-cell seals over the same nonces and AADs, and open correctly, up
    /// to 20 cells and 300-byte bodies.
    #[test]
    fn aead_batch_matches_sequential(
        cells in 0usize..=20,
        pt_stride in 0usize..=300,
        seed in any::<u64>(),
    ) {
        use dps_crypto::aead::address_aad;
        use dps_crypto::AEAD_OVERHEAD;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = dps_crypto::AeadCipher::generate(&mut rng);
        let plaintexts: Vec<u8> = (0..cells * pt_stride).map(|i| (i * 11 % 251) as u8).collect();
        let nonces = rng.draw_nonces(cells);
        let aads: Vec<[u8; 16]> = (0..cells).map(|i| address_aad(i, 1)).collect();
        let ct_stride = pt_stride + AEAD_OVERHEAD;
        let mut batch = vec![0u8; cells * ct_stride];
        cipher.seal_batch_with_nonces(&nonces, &aads, &plaintexts, &mut batch);
        let mut seq = vec![0u8; cells * ct_stride];
        for i in 0..cells {
            cipher.seal_with_nonce_into(
                &nonces[i],
                &aads[i],
                &plaintexts[i * pt_stride..(i + 1) * pt_stride],
                &mut seq[i * ct_stride..(i + 1) * ct_stride],
            );
        }
        prop_assert_eq!(&batch, &seq);
        let mut back = vec![0u8; cells * pt_stride];
        cipher.open_batch_to_slices(&aads, &batch, &mut back).unwrap();
        prop_assert_eq!(back, plaintexts);
    }

    /// Poly1305 incremental absorption is split-invariant.
    #[test]
    fn poly1305_split_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..200),
        split_frac in 0.0f64..1.0,
        key in proptest::array::uniform32(any::<u8>()),
    ) {
        let split = (data.len() as f64 * split_frac) as usize;
        let mut p = dps_crypto::poly1305::Poly1305::new(&key);
        p.update(&data[..split]);
        p.update(&data[split..]);
        prop_assert_eq!(p.finalize(), dps_crypto::poly1305::poly1305(&key, &data));
    }

    /// The small-domain PRP is a bijection on [0, m) and invertible.
    #[test]
    fn prp_bijection(m in 1u64..2048, tweak in any::<u64>()) {
        let prp = dps_crypto::SmallDomainPrp::new(b"prop", tweak, m);
        let mut seen = vec![false; m as usize];
        for x in 0..m {
            let y = prp.permute(x);
            prop_assert!(y < m);
            prop_assert!(!seen[y as usize], "duplicate image {}", y);
            seen[y as usize] = true;
            prop_assert_eq!(prp.invert(y), x);
        }
    }

    /// Merkle proofs verify for every leaf, and any leaf substitution or
    /// wrong-position serve fails.
    #[test]
    fn merkle_soundness(
        cells in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..40),
        pick_frac in 0.0f64..1.0,
    ) {
        use dps_crypto::merkle::MerkleTree;
        let tree = MerkleTree::build(&cells);
        let root = tree.root();
        let i = ((cells.len() - 1) as f64 * pick_frac) as usize;
        let proof = tree.prove(i);
        prop_assert!(MerkleTree::verify(&root, &cells[i], &proof));
        // Substituted content fails (unless identical content).
        let mut other = cells[i].clone();
        other.push(0xA5);
        prop_assert!(!MerkleTree::verify(&root, &other, &proof));
        // Serving a different leaf's content under this proof fails unless
        // the cells are byte-identical.
        let j = (i + 1) % cells.len();
        if cells[j] != cells[i] {
            prop_assert!(!MerkleTree::verify(&root, &cells[j], &proof));
        }
    }

    /// Merkle incremental update equals a full rebuild.
    #[test]
    fn merkle_update_matches_rebuild(
        mut cells in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..32),
        pick_frac in 0.0f64..1.0,
        new_cell in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        use dps_crypto::merkle::MerkleTree;
        let mut tree = MerkleTree::build(&cells);
        let i = ((cells.len() - 1) as f64 * pick_frac) as usize;
        cells[i] = new_cell.clone();
        tree.update(i, &new_cell);
        prop_assert_eq!(tree.root(), MerkleTree::build(&cells).root());
    }
}

/// One case of `poly1305_batch_matches_scalar` at `L` lanes: random keys and
/// `len`-byte messages per lane, tagged whole and split at `split` around a
/// `pad16`, each lane against the scalar form.
fn poly1305_lanes_check<const L: usize>(rng: &mut ChaChaRng, len: usize, split: usize) {
    use dps_crypto::poly1305::{poly1305, Poly1305, Poly1305xN};
    let mut keys = [[0u8; 32]; L];
    let mut msgs = vec![vec![0u8; len]; L];
    for (key, msg) in keys.iter_mut().zip(&mut msgs) {
        rng.fill_bytes(key);
        rng.fill_bytes(msg);
    }
    let mut whole = Poly1305xN::<L>::new(keys.each_ref());
    whole.update(std::array::from_fn(|l| msgs[l].as_slice()));
    let mut split_mac = Poly1305xN::<L>::new(keys.each_ref());
    split_mac.update(std::array::from_fn(|l| &msgs[l][..split]));
    split_mac.pad16();
    split_mac.update(std::array::from_fn(|l| &msgs[l][split..]));
    for (l, (whole_tag, split_tag)) in whole.finalize().iter().zip(split_mac.finalize()).enumerate()
    {
        assert_eq!(*whole_tag, poly1305(&keys[l], &msgs[l]), "lane {l} of {L}, len {len}");
        let mut scalar = Poly1305::new(&keys[l]);
        scalar.update(&msgs[l][..split]);
        scalar.pad16();
        scalar.update(&msgs[l][split..]);
        assert_eq!(split_tag, scalar.finalize(), "lane {l} of {L}, len {len}, split {split}");
    }
}

/// DP-KVS's batch shape, 10 and 20 cells of 219-byte bodies: sealed as a
/// batch it equals the per-cell loop, and with one byte flipped in any one
/// cell — nonce, body or tag, by turns — the batch open fails exactly as
/// the per-cell loop does, with the first failing cell's error.
#[test]
fn block_cipher_batch_at_the_kvs_cell_size() {
    use dps_crypto::{CryptoError, CIPHERTEXT_OVERHEAD};
    let mut rng = ChaChaRng::seed_from_u64(219);
    let cipher = BlockCipher::generate(&mut rng);
    let pt_stride = 219;
    let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
    for cells in [10usize, 20] {
        let plaintexts: Vec<u8> = (0..cells * pt_stride).map(|i| (i * 13 % 251) as u8).collect();
        let nonces = rng.draw_nonces(cells);
        let mut sealed = vec![0u8; cells * ct_stride];
        cipher.encrypt_batch_with_nonces(&nonces, &plaintexts, &mut sealed);
        let open_each = |cts: &[u8]| -> Result<Vec<u8>, CryptoError> {
            let mut out = vec![0u8; cells * pt_stride];
            for (ct, pt) in cts.chunks_exact(ct_stride).zip(out.chunks_exact_mut(pt_stride)) {
                cipher.decrypt_to_slice(ct, pt)?;
            }
            Ok(out)
        };
        let open_batch = |cts: &[u8]| -> Result<Vec<u8>, CryptoError> {
            let mut out = vec![0u8; cells * pt_stride];
            cipher
                .decrypt_batch_to_slices(cts, cells, &mut out)
                .map(|()| out)
        };
        assert_eq!(open_each(&sealed).unwrap(), plaintexts, "{cells} cells");
        assert_eq!(open_batch(&sealed).unwrap(), plaintexts, "{cells} cells");
        for bad in 0..cells {
            let byte = [3, 12 + bad * 11 % pt_stride, ct_stride - 1][bad % 3];
            let mut corrupted = sealed.clone();
            corrupted[bad * ct_stride + byte] ^= 0x20;
            let each = open_each(&corrupted);
            assert!(each.is_err(), "{cells} cells, cell {bad}, byte {byte}");
            assert_eq!(open_batch(&corrupted), each, "{cells} cells, cell {bad}, byte {byte}");
        }
    }
}
