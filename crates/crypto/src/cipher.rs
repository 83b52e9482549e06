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
//! paper's adversary is honest-but-curious).
//!
//! [`BlockCipher`] supplies only its parameters — that tag, its MAC key,
//! the body keystream from block 0 — to the crate's one sealed-cell engine,
//! which [`crate::aead::AeadCipher`] shares: every method here is a thin
//! wrapper over the engine's one-cell seal and open or its batch pair. The
//! tag is not free: at DP-KVS's 219 B node, an 8-cell group of
//! [`BlockCipher::encrypt_batch_with_nonces`] measured ≈ 2.2–2.3 µs on an
//! AVX2 Xeon, of which the keystream is ≈ 1.13–1.19 µs (half), the
//! Poly1305 lane MAC ≈ 0.66–0.76 µs (a third) and the one-time keys
//! ≈ 0.29–0.39 µs.

use crate::chacha;
use crate::rng::ChaChaRng;
use crate::seal::{Engine, TagMessage};

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

    /// The shared cell engine with this cipher's parameters: a 4-byte tag
    /// over `nonce || body` under the separate MAC key (so it never
    /// overlaps the encryption keystream), the body keystream from block 0.
    fn engine(&self) -> Engine<'_> {
        Engine {
            enc: &self.key.enc,
            mac: &self.key.mac,
            counter: 0,
            tag_len: TAG_LEN,
            message: TagMessage::NonceBody,
        }
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
        out.resize(plaintext.len() + CIPHERTEXT_OVERHEAD, 0);
        self.encrypt_with_nonce_into(&nonce, plaintext, out);
    }

    /// Deterministic slice-form encryption: writes `nonce || body || tag`
    /// into `out`, which must be exactly `plaintext.len() +
    /// CIPHERTEXT_OVERHEAD` bytes. The caller draws the nonce
    /// ([`ChaChaRng::draw_nonces`](crate::rng::ChaChaRng::draw_nonces));
    /// over the same RNG stream the output is byte-identical to
    /// [`BlockCipher::encrypt_into`].
    ///
    /// # Panics
    /// Panics if `out.len() != plaintext.len() + CIPHERTEXT_OVERHEAD`.
    pub fn encrypt_with_nonce_into(&self, nonce: &chacha::Nonce, plaintext: &[u8], out: &mut [u8]) {
        self.engine().seal_into(nonce, &[], plaintext, out);
    }

    /// Decrypts raw ciphertext bytes into `out` (cleared first), verifying
    /// the integrity tag. Performs no heap allocation once `out` has
    /// capacity — the zero-copy read path hands borrowed cell slices
    /// straight to this.
    pub fn decrypt_into(&self, data: &[u8], out: &mut Vec<u8>) -> Result<(), CryptoError> {
        out.clear();
        out.resize(data.len().saturating_sub(CIPHERTEXT_OVERHEAD), 0);
        self.decrypt_to_slice(data, out).map(drop)
    }

    /// Deterministic slice-form decryption: verifies the tag and writes the
    /// plaintext into the first `data.len() - CIPHERTEXT_OVERHEAD` bytes of
    /// `out`, returning that length. `out` is untouched on error. The
    /// counterpart of [`BlockCipher::encrypt_with_nonce_into`].
    ///
    /// # Panics
    /// Panics if `out` is shorter than the plaintext.
    pub fn decrypt_to_slice(&self, data: &[u8], out: &mut [u8]) -> Result<usize, CryptoError> {
        self.engine().open_into(&[], data, out)
    }

    /// Decrypts `buf` in place: on success `buf` holds the plaintext (the
    /// nonce prefix and tag suffix are stripped); on failure `buf` is
    /// unchanged. No heap allocation ever.
    pub fn decrypt_in_place(&self, buf: &mut Vec<u8>) -> Result<(), CryptoError> {
        let pt_len = self.engine().open_in_place(&[], buf)?;
        buf.truncate(pt_len);
        Ok(())
    }

    /// Encrypts `nonces.len()` equal-length plaintexts packed back-to-back
    /// in `plaintexts` into equal-length `nonce || body || tag` slots of
    /// `out`, one pre-drawn nonce per cell: byte-identical to a
    /// [`BlockCipher::encrypt_with_nonce_into`] loop over the cells, on the
    /// engine's batch path (every cell's keystream packed onto full wide
    /// passes in one call, the tags on the Poly1305 lanes 8, then 4, cells
    /// at a time).
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
        self.engine().seal_batch(nonces, &[], plaintexts, out);
    }

    /// Decrypts `cells` equal-length ciphertexts packed back-to-back in
    /// `ciphertexts` into the equal-length plaintext slots of `out`,
    /// verifying every tag before any keystream is stripped: the tags in
    /// groups of 8, then 4, then one cell at a time, then every cell's
    /// keystream in one packed call. On failure, returns the error of the
    /// first failing group or cell, and the contents of `out` are
    /// unspecified. The batch twin of [`BlockCipher::decrypt_to_slice`].
    ///
    /// # Panics
    /// Panics if the flat lengths are inconsistent with `cells`.
    pub fn decrypt_batch_to_slices(
        &self,
        ciphertexts: &[u8],
        cells: usize,
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        self.engine().open_batch(&[], ciphertexts, cells, out)
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

    /// Decrypts an owned ciphertext through `decrypt_into`.
    fn decrypt(cipher: &BlockCipher, ct: &Ciphertext) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        cipher.decrypt_into(&ct.0, &mut out).map(|()| out)
    }

    #[test]
    fn round_trip() {
        let (cipher, mut rng) = cipher(1);
        for len in [0usize, 1, 16, 64, 65, 1000, 4096] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = cipher.encrypt(&plaintext, &mut rng);
            assert_eq!(decrypt(&cipher, &ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn fresh_randomness_per_encryption() {
        let (cipher, mut rng) = cipher(2);
        let pt = vec![0xabu8; 64];
        let c1 = cipher.encrypt(&pt, &mut rng);
        let c2 = cipher.encrypt(&pt, &mut rng);
        assert_ne!(c1, c2, "re-encryption must re-randomize");
        assert_eq!(decrypt(&cipher, &c1).unwrap(), decrypt(&cipher, &c2).unwrap());
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
        assert_eq!(decrypt(&cipher_b, &ct), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn corruption_is_detected() {
        let (cipher, mut rng) = cipher(6);
        let mut ct = cipher.encrypt(b"some block contents", &mut rng);
        let mid = ct.0.len() / 2;
        ct.0[mid] ^= 0x01;
        assert_eq!(decrypt(&cipher, &ct), Err(CryptoError::TagMismatch));
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
            decrypt(&cipher, &Ciphertext(vec![0u8; CIPHERTEXT_OVERHEAD - 1])),
            Err(CryptoError::Malformed)
        );
    }
}
