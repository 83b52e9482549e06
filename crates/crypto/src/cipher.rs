//! IND-CPA symmetric encryption: ChaCha20 in counter mode with a fresh
//! random 96-bit nonce per encryption.
//!
//! DP-RAM (Section 6) assumes an IND-CPA scheme `(Enc, Dec)`: every
//! overwrite uploads a *freshly randomized* ciphertext so the adversary
//! cannot tell whether the underlying block changed. Equal-length plaintexts
//! produce equal-length ciphertexts, which the balls-and-bins model requires
//! (all balls look alike).
//!
//! A 4-byte keyed integrity tag (truncated Poly1305 under a one-time key
//! derived RFC 8439-style from a separate MAC key and the nonce) is
//! appended so that tests and the simulated server can detect accidental
//! corruption; this is a robustness aid, not an authenticity claim (the
//! paper's adversary is honest-but-curious). The tag is not free: at
//! DP-KVS's 219 B node, an 8-cell group of
//! [`BlockCipher::encrypt_batch_with_nonces`] measured ≈ 2.2–2.3 µs on an
//! AVX2 Xeon, of which the keystream is ≈ 1.13–1.19 µs (half), the
//! [`Poly1305xN`] lane MAC ≈ 0.66–0.76 µs (a third) and the one-time keys
//! ≈ 0.29–0.39 µs. Before the MAC ran on vector lanes it was ≈ 1.2 µs of
//! ≈ 2.8–2.9 µs, as much as the keystream.

use crate::chacha;
use crate::poly1305::{Poly1305, Poly1305xN};
use crate::rng::ChaChaRng;

/// Length of the integrity tag appended to each ciphertext.
const TAG_LEN: usize = 4;

/// Errors produced by the crypto layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Ciphertext shorter than a nonce + tag, or truncated.
    Malformed,
    /// Integrity tag mismatch: wrong key or corrupted ciphertext.
    TagMismatch,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::Malformed => write!(f, "ciphertext is malformed"),
            CryptoError::TagMismatch => write!(f, "ciphertext integrity tag mismatch"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// A 256-bit symmetric key.
#[derive(Clone)]
pub struct Key {
    enc: [u8; chacha::KEY_LEN],
    mac: [u8; chacha::KEY_LEN],
}

impl Key {
    /// Samples a fresh random key.
    pub fn generate(rng: &mut ChaChaRng) -> Self {
        let mut enc = [0u8; chacha::KEY_LEN];
        let mut mac = [0u8; chacha::KEY_LEN];
        rng.fill_bytes(&mut enc);
        rng.fill_bytes(&mut mac);
        Self { enc, mac }
    }
}

impl std::fmt::Debug for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key(..)")
    }
}

/// An encrypted block: `nonce || body || tag`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ciphertext(pub Vec<u8>);

impl Ciphertext {
    /// Total length in bytes (what the server stores and transfers).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the ciphertext is empty (never the case for valid output).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The ciphertext expansion over the plaintext, in bytes.
pub const CIPHERTEXT_OVERHEAD: usize = chacha::NONCE_LEN + TAG_LEN;

/// ChaCha20-CTR cipher with per-encryption random nonces.
#[derive(Clone, Debug)]
pub struct BlockCipher {
    key: Key,
}

impl BlockCipher {
    /// Creates a cipher from an existing key.
    pub fn new(key: Key) -> Self {
        Self { key }
    }

    /// Samples a fresh key and builds a cipher from it.
    pub fn generate(rng: &mut ChaChaRng) -> Self {
        Self::new(Key::generate(rng))
    }

    /// Encrypts `plaintext` with a fresh random nonce drawn from `rng`.
    /// Calling this twice on the same plaintext yields different
    /// ciphertexts (IND-CPA re-randomization).
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut ChaChaRng) -> Ciphertext {
        let mut out = Vec::new();
        self.encrypt_into(plaintext, &mut out, rng);
        Ciphertext(out)
    }

    /// Encrypts `plaintext` into `out` (cleared first) with a fresh random
    /// nonce. Performs no heap allocation once `out` has capacity for
    /// `plaintext.len() + CIPHERTEXT_OVERHEAD` bytes — the hot-path form of
    /// [`BlockCipher::encrypt`] for callers with a reusable scratch buffer.
    pub fn encrypt_into(&self, plaintext: &[u8], out: &mut Vec<u8>, rng: &mut ChaChaRng) {
        let mut nonce = [0u8; chacha::NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        out.clear();
        out.reserve(plaintext.len() + CIPHERTEXT_OVERHEAD);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        chacha::xor_keystream(&self.key.enc, 0, &nonce, &mut out[chacha::NONCE_LEN..]);
        let tag = self.tag(out);
        out.extend_from_slice(&tag);
    }

    /// Deterministic slice-form encryption: writes `nonce || body || tag`
    /// into `out`, which must be exactly `plaintext.len() +
    /// CIPHERTEXT_OVERHEAD` bytes. This is the batch primitive — the
    /// caller draws every nonce up front
    /// ([`ChaChaRng::draw_nonces`](crate::rng::ChaChaRng::draw_nonces)) and
    /// the cells are encrypted into disjoint slots, producing output
    /// byte-identical to a sequential [`BlockCipher::encrypt_into`] loop
    /// over the same RNG stream.
    ///
    /// # Panics
    /// Panics if `out.len() != plaintext.len() + CIPHERTEXT_OVERHEAD`.
    pub fn encrypt_with_nonce_into(
        &self,
        nonce: &[u8; chacha::NONCE_LEN],
        plaintext: &[u8],
        out: &mut [u8],
    ) {
        assert_eq!(
            out.len(),
            plaintext.len() + CIPHERTEXT_OVERHEAD,
            "output slot must be plaintext + overhead"
        );
        let body_end = chacha::NONCE_LEN + plaintext.len();
        out[..chacha::NONCE_LEN].copy_from_slice(nonce);
        out[chacha::NONCE_LEN..body_end].copy_from_slice(plaintext);
        chacha::xor_keystream(&self.key.enc, 0, nonce, &mut out[chacha::NONCE_LEN..body_end]);
        let tag = self.tag(&out[..body_end]);
        out[body_end..].copy_from_slice(&tag);
    }

    /// Decrypts a ciphertext, verifying its integrity tag.
    pub fn decrypt(&self, ciphertext: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        self.decrypt_into(&ciphertext.0, &mut out)?;
        Ok(out)
    }

    /// Decrypts raw ciphertext bytes into `out` (cleared first), verifying
    /// the integrity tag. Performs no heap allocation once `out` has
    /// capacity — the zero-copy read path hands borrowed cell slices
    /// straight to this.
    pub fn decrypt_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CryptoError> {
        if data.len() < CIPHERTEXT_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let (body, tag) = data.split_at(data.len() - TAG_LEN);
        if self.tag(body) != tag {
            return Err(CryptoError::TagMismatch);
        }
        let nonce: [u8; chacha::NONCE_LEN] =
            body[..chacha::NONCE_LEN].try_into().expect("nonce prefix");
        out.clear();
        out.extend_from_slice(&body[chacha::NONCE_LEN..]);
        chacha::xor_keystream(&self.key.enc, 0, &nonce, out);
        Ok(())
    }

    /// Deterministic slice-form decryption: verifies the tag and writes the
    /// plaintext into the first `data.len() - CIPHERTEXT_OVERHEAD` bytes of
    /// `out`, returning that length. `out` is untouched on error. The
    /// parallel-batch counterpart of [`BlockCipher::encrypt_with_nonce_into`].
    ///
    /// # Panics
    /// Panics if `out` is shorter than the plaintext.
    pub fn decrypt_to_slice(&self, data: &[u8], out: &mut [u8]) -> Result<usize, CryptoError> {
        if data.len() < CIPHERTEXT_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let (body, tag) = data.split_at(data.len() - TAG_LEN);
        if self.tag(body) != tag {
            return Err(CryptoError::TagMismatch);
        }
        let nonce: [u8; chacha::NONCE_LEN] =
            body[..chacha::NONCE_LEN].try_into().expect("nonce prefix");
        let pt_len = body.len() - chacha::NONCE_LEN;
        out[..pt_len].copy_from_slice(&body[chacha::NONCE_LEN..]);
        chacha::xor_keystream(&self.key.enc, 0, &nonce, &mut out[..pt_len]);
        Ok(pt_len)
    }

    /// Decrypts `buf` in place: on success `buf` holds the plaintext (the
    /// nonce prefix and tag suffix are stripped); on failure `buf` is
    /// unchanged. No heap allocation ever.
    pub fn decrypt_in_place(&self, buf: &mut Vec<u8>) -> Result<(), CryptoError> {
        if buf.len() < CIPHERTEXT_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let body_len = buf.len() - TAG_LEN;
        let (body, tag) = buf.split_at(body_len);
        if self.tag(body) != tag {
            return Err(CryptoError::TagMismatch);
        }
        let nonce: [u8; chacha::NONCE_LEN] =
            buf[..chacha::NONCE_LEN].try_into().expect("nonce prefix");
        chacha::xor_keystream(&self.key.enc, 0, &nonce, &mut buf[chacha::NONCE_LEN..body_len]);
        buf.copy_within(chacha::NONCE_LEN..body_len, 0);
        buf.truncate(body_len - chacha::NONCE_LEN);
        Ok(())
    }

    /// Encrypts `nonces.len()` equal-length plaintexts packed back-to-back
    /// in `plaintexts` into equal-length `nonce || body || tag` slots of
    /// `out`, one pre-drawn nonce per cell. Byte-identical to a
    /// [`BlockCipher::encrypt_with_nonce_into`] loop over the cells, but
    /// runs the wide keystream across cells (different nonces per
    /// permutation pass when cells are short) and batches the Poly1305
    /// one-time-key derivation and tag arithmetic in groups of 8, then 4,
    /// cells at a time.
    ///
    /// # Panics
    /// Panics if `plaintexts.len()` is not `nonces.len()` equal strides or
    /// `out.len() != nonces.len() * (stride + CIPHERTEXT_OVERHEAD)`.
    pub fn encrypt_batch_with_nonces(
        &self,
        nonces: &[chacha::Nonce],
        plaintexts: &[u8],
        out: &mut [u8],
    ) {
        let cells = nonces.len();
        if cells == 0 {
            assert!(plaintexts.is_empty() && out.is_empty(), "bytes without nonces");
            return;
        }
        assert_eq!(plaintexts.len() % cells, 0, "plaintext length not a multiple of cell count");
        let pt_stride = plaintexts.len() / cells;
        let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
        assert_eq!(out.len(), cells * ct_stride, "output must hold every ciphertext");

        // Lay out nonce || plaintext per slot, then encrypt every body in
        // one wide strided pass.
        for (i, nonce) in nonces.iter().enumerate() {
            let slot = &mut out[i * ct_stride..(i + 1) * ct_stride];
            slot[..chacha::NONCE_LEN].copy_from_slice(nonce);
            slot[chacha::NONCE_LEN..chacha::NONCE_LEN + pt_stride]
                .copy_from_slice(&plaintexts[i * pt_stride..(i + 1) * pt_stride]);
        }
        chacha::xor_keystream_batch_strided(
            &self.key.enc,
            0,
            nonces,
            out,
            ct_stride,
            chacha::NONCE_LEN,
            pt_stride,
        );

        // Tag phase: derive a group's one-time keys per wide pass and run
        // the group's tags on the Poly1305 lanes, 8 then 4 cells at a
        // time.
        let msg_len = ct_stride - TAG_LEN;
        let mut cell = 0;
        while cell + 8 <= cells {
            let (_, tags) = self.group_tags::<8>(out, cell, ct_stride, msg_len);
            for (l, full_tag) in tags.iter().enumerate() {
                let base = (cell + l) * ct_stride;
                out[base + msg_len..base + ct_stride].copy_from_slice(&full_tag[..TAG_LEN]);
            }
            cell += 8;
        }
        while cell + 4 <= cells {
            let (_, tags) = self.group_tags::<4>(out, cell, ct_stride, msg_len);
            for (l, full_tag) in tags.iter().enumerate() {
                let base = (cell + l) * ct_stride;
                out[base + msg_len..base + ct_stride].copy_from_slice(&full_tag[..TAG_LEN]);
            }
            cell += 4;
        }
        for i in cell..cells {
            let base = i * ct_stride;
            let tag = self.tag(&out[base..base + msg_len]);
            out[base + msg_len..base + ct_stride].copy_from_slice(&tag);
        }
    }

    /// Computes the full (untruncated) Poly1305 tags of the `N` cells
    /// starting at `cell`, laid out in `flat` at `ct_stride`: nonces are
    /// read from the slot prefixes, the `N` one-time keys derive in wide
    /// ChaCha passes ([`chacha::blocks_each`], one 8-lane AVX2 pass when
    /// `N = 8` and the tier allows), and the `N` tags run on the lanes of
    /// [`Poly1305xN`]. Returns the group's nonces alongside the tags.
    fn group_tags<const N: usize>(
        &self,
        flat: &[u8],
        cell: usize,
        ct_stride: usize,
        msg_len: usize,
    ) -> ([chacha::Nonce; N], [[u8; 16]; N]) {
        let nonces: [chacha::Nonce; N] = std::array::from_fn(|l| {
            flat[(cell + l) * ct_stride..(cell + l) * ct_stride + chacha::NONCE_LEN]
                .try_into()
                .expect("nonce prefix")
        });
        let nonce_refs: [&chacha::Nonce; N] = std::array::from_fn(|l| &nonces[l]);
        let mut otk_blocks = [[0u8; chacha::BLOCK_LEN]; N];
        chacha::blocks_each(&self.key.mac, &[0; N], &nonce_refs, &mut otk_blocks);
        let otks: [[u8; 32]; N] =
            std::array::from_fn(|l| otk_blocks[l][..32].try_into().expect("32-byte prefix"));
        let mut mac = Poly1305xN::<N>::new(std::array::from_fn(|l| &otks[l]));
        mac.update(std::array::from_fn(|l| {
            let base = (cell + l) * ct_stride;
            &flat[base..base + msg_len]
        }));
        (nonces, mac.finalize())
    }

    /// Verifies and decrypts the `N` cells starting at `cell` of a strided
    /// batch: checks every truncated tag (constant-time within the group),
    /// copies the bodies into their plaintext slots and strips the
    /// keystream in one wide strided pass. The group engine behind
    /// [`BlockCipher::decrypt_batch_to_slices`].
    fn decrypt_group<const N: usize>(
        &self,
        ciphertexts: &[u8],
        cell: usize,
        ct_stride: usize,
        msg_len: usize,
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        let pt_stride = msg_len - chacha::NONCE_LEN;
        let (group_nonces, tags) = self.group_tags::<N>(ciphertexts, cell, ct_stride, msg_len);
        // Constant-time within the group: every lane's truncated tag is
        // compared and the differences folded into one value, tested once,
        // so the time to the verdict does not depend on which lane failed.
        let mut diff = 0u8;
        for (l, full_tag) in tags.iter().enumerate() {
            let base = (cell + l) * ct_stride;
            let stored = &ciphertexts[base + msg_len..base + ct_stride];
            diff |= full_tag[..TAG_LEN]
                .iter()
                .zip(stored)
                .fold(0u8, |acc, (a, b)| acc | (a ^ b));
        }
        if diff != 0 {
            return Err(CryptoError::TagMismatch);
        }
        for l in 0..N {
            let base = (cell + l) * ct_stride;
            out[(cell + l) * pt_stride..(cell + l + 1) * pt_stride]
                .copy_from_slice(&ciphertexts[base + chacha::NONCE_LEN..base + msg_len]);
        }
        let group_out = &mut out[cell * pt_stride..(cell + N) * pt_stride];
        chacha::xor_keystream_batch_strided(
            &self.key.enc,
            0,
            &group_nonces,
            group_out,
            pt_stride,
            0,
            pt_stride,
        );
        Ok(())
    }

    /// Decrypts `cells` equal-length ciphertexts packed back-to-back in
    /// `ciphertexts` into the equal-length plaintext slots of `out`,
    /// verifying every tag (8, then 4, cells' tags checked per lane pass).
    /// On failure, returns the error of the lowest-indexed bad cell
    /// and the contents of `out` are unspecified. The batch twin of
    /// [`BlockCipher::decrypt_to_slice`].
    ///
    /// # Panics
    /// Panics if the flat lengths are inconsistent with `cells`.
    pub fn decrypt_batch_to_slices(
        &self,
        ciphertexts: &[u8],
        cells: usize,
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        if cells == 0 {
            assert!(ciphertexts.is_empty() && out.is_empty(), "bytes without cells");
            return Ok(());
        }
        assert_eq!(ciphertexts.len() % cells, 0, "ciphertext length not a multiple of cell count");
        let ct_stride = ciphertexts.len() / cells;
        if ct_stride < CIPHERTEXT_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let pt_stride = ct_stride - CIPHERTEXT_OVERHEAD;
        assert_eq!(out.len(), cells * pt_stride, "output must hold every plaintext");
        let msg_len = ct_stride - TAG_LEN;

        let mut cell = 0;
        while cell + 8 <= cells {
            self.decrypt_group::<8>(ciphertexts, cell, ct_stride, msg_len, out)?;
            cell += 8;
        }
        while cell + 4 <= cells {
            self.decrypt_group::<4>(ciphertexts, cell, ct_stride, msg_len, out)?;
            cell += 4;
        }
        for i in cell..cells {
            let ct = &ciphertexts[i * ct_stride..(i + 1) * ct_stride];
            self.decrypt_to_slice(ct, &mut out[i * pt_stride..(i + 1) * pt_stride])?;
        }
        Ok(())
    }

    /// Truncated Poly1305 over `nonce || body` under a one-time key derived
    /// from the MAC key and the nonce (the RFC 8439 §2.6 construction, but
    /// keyed by the independent MAC key so it never overlaps the
    /// encryption keystream).
    fn tag(&self, nonce_and_body: &[u8]) -> [u8; TAG_LEN] {
        let nonce: [u8; chacha::NONCE_LEN] = nonce_and_body[..chacha::NONCE_LEN]
            .try_into()
            .expect("nonce prefix");
        let block = chacha::block(&self.key.mac, 0, &nonce);
        let one_time_key: [u8; 32] = block[..32].try_into().expect("32-byte prefix");
        let mut mac = Poly1305::new(&one_time_key);
        mac.update(nonce_and_body);
        let digest = mac.finalize();
        digest[..TAG_LEN].try_into().expect("tag prefix")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher(seed: u64) -> (BlockCipher, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cipher = BlockCipher::generate(&mut rng);
        (cipher, rng)
    }

    #[test]
    fn round_trip() {
        let (cipher, mut rng) = cipher(1);
        for len in [0usize, 1, 16, 64, 65, 1000, 4096] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = cipher.encrypt(&plaintext, &mut rng);
            assert_eq!(cipher.decrypt(&ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn fresh_randomness_per_encryption() {
        let (cipher, mut rng) = cipher(2);
        let pt = vec![0xabu8; 64];
        let c1 = cipher.encrypt(&pt, &mut rng);
        let c2 = cipher.encrypt(&pt, &mut rng);
        assert_ne!(c1, c2, "re-encryption must re-randomize");
        assert_eq!(cipher.decrypt(&c1).unwrap(), cipher.decrypt(&c2).unwrap());
    }

    #[test]
    fn equal_length_plaintexts_give_equal_length_ciphertexts() {
        let (cipher, mut rng) = cipher(3);
        let a = cipher.encrypt(&[0u8; 128], &mut rng);
        let b = cipher.encrypt(&[0xffu8; 128], &mut rng);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 128 + CIPHERTEXT_OVERHEAD);
    }

    #[test]
    fn wrong_key_is_rejected() {
        let (cipher_a, mut rng) = cipher(4);
        let (cipher_b, _) = cipher(5);
        let ct = cipher_a.encrypt(b"secret", &mut rng);
        assert_eq!(cipher_b.decrypt(&ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn corruption_is_detected() {
        let (cipher, mut rng) = cipher(6);
        let mut ct = cipher.encrypt(b"some block contents", &mut rng);
        let mid = ct.0.len() / 2;
        ct.0[mid] ^= 0x01;
        assert_eq!(cipher.decrypt(&ct), Err(CryptoError::TagMismatch));
    }

    /// The batch entry points are byte-identical to per-cell loops for
    /// every cell count remainder class and stride.
    #[test]
    fn batch_matches_sequential_loop() {
        let (cipher, mut rng) = cipher(8);
        for cells in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17] {
            for pt_stride in [0usize, 1, 16, 33, 64, 100, 256, 300] {
                let plaintexts: Vec<u8> =
                    (0..cells * pt_stride).map(|i| (i * 17 % 251) as u8).collect();
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
                assert_eq!(batch, seq, "cells {cells} stride {pt_stride}");
                let mut back = vec![0u8; cells * pt_stride];
                cipher.decrypt_batch_to_slices(&batch, cells, &mut back).unwrap();
                assert_eq!(back, plaintexts, "cells {cells} stride {pt_stride}");
            }
        }
    }

    /// Batch decryption reports corruption in any cell (8-cell group,
    /// 4-cell group, and scalar remainder cells alike).
    #[test]
    fn batch_decrypt_detects_corruption_everywhere() {
        let (cipher, mut rng) = cipher(9);
        let cells = 13;
        let pt_stride = 40;
        let plaintexts = vec![0xCDu8; cells * pt_stride];
        let nonces = rng.draw_nonces(cells);
        let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
        let mut cts = vec![0u8; cells * ct_stride];
        cipher.encrypt_batch_with_nonces(&nonces, &plaintexts, &mut cts);
        let mut out = vec![0u8; cells * pt_stride];
        for bad_cell in 0..cells {
            let mut corrupted = cts.clone();
            corrupted[bad_cell * ct_stride + 20] ^= 1;
            assert_eq!(
                cipher.decrypt_batch_to_slices(&corrupted, cells, &mut out),
                Err(CryptoError::TagMismatch),
                "cell {bad_cell}"
            );
        }
        assert!(cipher.decrypt_batch_to_slices(&cts, cells, &mut out).is_ok());
    }

    /// A stride shorter than the overhead is malformed, matching the
    /// sequential `decrypt_to_slice` error for the first cell.
    #[test]
    fn batch_decrypt_short_stride_is_malformed() {
        let (cipher, _) = cipher(10);
        let data = vec![0u8; 2 * (CIPHERTEXT_OVERHEAD - 1)];
        assert_eq!(cipher.decrypt_batch_to_slices(&data, 2, &mut []), Err(CryptoError::Malformed));
    }

    #[test]
    fn truncated_ciphertext_is_malformed() {
        let (cipher, _) = cipher(7);
        assert_eq!(
            cipher.decrypt(&Ciphertext(vec![0u8; CIPHERTEXT_OVERHEAD - 1])),
            Err(CryptoError::Malformed)
        );
    }
}
