//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8) with associated data.
//!
//! The paper's model is an honest-but-curious server, so the base
//! [`crate::cipher::BlockCipher`] only needs IND-CPA. A production
//! deployment also wants protection against an *active* server that swaps,
//! rolls back, or corrupts cells. [`AeadCipher`] provides that hardening:
//! each cell is sealed with its address (and, optionally, a version counter)
//! as associated data, so a ciphertext moved to a different address fails
//! authentication. A sealed DP-IR store (`DpIr::setup_sealed`) opens its
//! cells this way: `batched_ir::tests::sealed_detects_swapped_cells` swaps
//! two cells and sees the open fail, and the batch tests below reject a
//! swapped AAD or a corrupted byte in every cell of a batch.
//!
//! [`AeadCipher`] runs on the crate's one sealed-cell engine, the
//! `nonce || body || tag` layout and batch path it shares with
//! [`crate::cipher::BlockCipher`], and supplies only the RFC's parameters:
//! the full 16-byte tag, the encryption key as MAC key (the one-time key
//! is keystream block 0), the body keystream from block 1, and the tag
//! message `aad || pad16 || body || pad16 || lens`.

use crate::chacha;
use crate::cipher::CryptoError;
use crate::poly1305::TAG_LEN;
use crate::rng::ChaChaRng;
use crate::seal::{Engine, TagMessage};

/// Ciphertext expansion of [`AeadCipher`]: nonce plus Poly1305 tag.
pub const AEAD_OVERHEAD: usize = chacha::NONCE_LEN + TAG_LEN;

/// ChaCha20-Poly1305 AEAD cipher with per-encryption random nonces.
#[derive(Clone)]
pub struct AeadCipher {
    key: [u8; chacha::KEY_LEN],
}

impl std::fmt::Debug for AeadCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AeadCipher(..)")
    }
}

impl AeadCipher {
    /// Builds a cipher from an existing 256-bit key.
    pub fn new(key: [u8; chacha::KEY_LEN]) -> Self {
        Self { key }
    }

    /// Samples a fresh key.
    pub fn generate(rng: &mut ChaChaRng) -> Self {
        let mut key = [0u8; chacha::KEY_LEN];
        rng.fill_bytes(&mut key);
        Self { key }
    }

    /// The shared cell engine with RFC 8439 §2.8's parameters: the full
    /// tag, whose one-time key is block 0 of the encryption key's stream
    /// (§2.6), over `aad || pad16 || body || pad16 || lens`, and the body
    /// keystream from block 1.
    fn engine(&self) -> Engine<'_> {
        Engine {
            enc: &self.key,
            mac: &self.key,
            counter: 1,
            tag_len: TAG_LEN,
            message: TagMessage::Aead,
        }
    }

    /// Seals `plaintext` under `nonce`, binding `aad`: writes
    /// `nonce || body || tag` into `out`, which must be exactly
    /// `plaintext.len() + AEAD_OVERHEAD` bytes. The caller draws the nonce
    /// ([`ChaChaRng::draw_nonces`](crate::rng::ChaChaRng::draw_nonces)) and
    /// must never reuse one under a key.
    ///
    /// # Panics
    /// Panics if `out.len() != plaintext.len() + AEAD_OVERHEAD`.
    pub fn seal_with_nonce_into(
        &self,
        nonce: &chacha::Nonce,
        aad: &[u8],
        plaintext: &[u8],
        out: &mut [u8],
    ) {
        self.engine().seal_into(nonce, aad, plaintext, out);
    }

    /// Deterministic slice-form open: verifies the tag against `aad` and
    /// writes the plaintext into the first `data.len() - AEAD_OVERHEAD`
    /// bytes of `out`, returning that length. `out` is untouched on error.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the plaintext.
    pub fn open_to_slice(
        &self,
        aad: &[u8],
        data: &[u8],
        out: &mut [u8],
    ) -> Result<usize, CryptoError> {
        self.engine().open_into(aad, data, out)
    }

    /// Seals `nonces.len()` equal-length plaintexts packed back-to-back in
    /// `plaintexts` into `nonce || body || tag` slots of `out`, binding
    /// `aads[i]` to cell `i`: byte-identical to a
    /// [`AeadCipher::seal_with_nonce_into`] loop, on the engine's batch
    /// path (every cell's keystream packed onto full wide passes in one
    /// call, the tags on the Poly1305 lanes 8, then 4, cells at a time).
    ///
    /// # Panics
    /// Panics if `aads.len() != nonces.len()`, `plaintexts.len()` is not
    /// `nonces.len()` equal strides, or `out.len()` is not
    /// `nonces.len() * (stride + AEAD_OVERHEAD)`.
    pub fn seal_batch_with_nonces(
        &self,
        nonces: &[chacha::Nonce],
        aads: &[[u8; 16]],
        plaintexts: &[u8],
        out: &mut [u8],
    ) {
        assert_eq!(aads.len(), nonces.len(), "one aad per cell");
        self.engine().seal_batch(nonces, aads, plaintexts, out);
    }

    /// Opens `aads.len()` equal-length sealed cells packed back-to-back in
    /// `ciphertexts` into the plaintext slots of `out`. Every tag is
    /// verified before any keystream is stripped; a group of 8 or 4 cells
    /// passes only if every tag in it matches, compared in constant time
    /// across the group. On failure returns the first failing group's or
    /// cell's error, with the contents of `out` unspecified. The batch twin
    /// of [`AeadCipher::open_to_slice`].
    ///
    /// # Panics
    /// Panics if the flat lengths are inconsistent with `aads.len()`.
    pub fn open_batch_to_slices(
        &self,
        aads: &[[u8; 16]],
        ciphertexts: &[u8],
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        self.engine().open_batch(aads, ciphertexts, aads.len(), out)
    }
}

/// Encodes a storage address as associated data, binding a cell's
/// ciphertext to its location (and an optional version for rollback
/// detection).
pub fn address_aad(address: usize, version: u64) -> [u8; 16] {
    let mut aad = [0u8; 16];
    aad[..8].copy_from_slice(&(address as u64).to_le_bytes());
    aad[8..].copy_from_slice(&version.to_le_bytes());
    aad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| c.is_ascii_hexdigit()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Seals under a fresh nonce drawn from `rng`.
    fn seal(cipher: &AeadCipher, aad: &[u8], pt: &[u8], rng: &mut ChaChaRng) -> Vec<u8> {
        let mut out = vec![0u8; pt.len() + AEAD_OVERHEAD];
        cipher.seal_with_nonce_into(&rng.draw_nonces(1)[0], aad, pt, &mut out);
        out
    }

    /// Opens into a buffer of the plaintext's length.
    fn open(cipher: &AeadCipher, aad: &[u8], data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = vec![0u8; data.len().saturating_sub(AEAD_OVERHEAD)];
        cipher.open_to_slice(aad, data, &mut out).map(|_| out)
    }

    /// RFC 8439 §2.8.2: the complete AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("070000004041424344454647").try_into().unwrap();
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let cipher = AeadCipher::new(key);
        let mut sealed = vec![0u8; plaintext.len() + AEAD_OVERHEAD];
        cipher.seal_with_nonce_into(&nonce, &aad, plaintext, &mut sealed);

        let expected_ct = hex("d31a8d34648e60db7b86afbc53ef7ec2
             a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b
             1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58
             fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b
             6116");
        let expected_tag = hex("1ae10b594f09e26a7e902ecbd0600691");
        let body = &sealed[12..sealed.len() - 16];
        let tag = &sealed[sealed.len() - 16..];
        assert_eq!(body, expected_ct.as_slice());
        assert_eq!(tag, expected_tag.as_slice());

        assert_eq!(open(&cipher, &aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn round_trip_various_lengths() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let cipher = AeadCipher::generate(&mut rng);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sealed = seal(&cipher, b"aad", &pt, &mut rng);
            assert_eq!(sealed.len(), len + AEAD_OVERHEAD);
            assert_eq!(open(&cipher, b"aad", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let cipher = AeadCipher::generate(&mut rng);
        let sealed = seal(&cipher, &address_aad(7, 0), b"cell contents", &mut rng);
        assert_eq!(
            open(&cipher, &address_aad(8, 0), &sealed),
            Err(CryptoError::TagMismatch),
            "moved to a different address"
        );
        assert_eq!(
            open(&cipher, &address_aad(7, 1), &sealed),
            Err(CryptoError::TagMismatch),
            "rolled back to an older version"
        );
        assert!(open(&cipher, &address_aad(7, 0), &sealed).is_ok());
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let cipher = AeadCipher::generate(&mut rng);
        let sealed = seal(&cipher, b"", b"sixteen byte msg", &mut rng);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert_eq!(open(&cipher, b"", &bad), Err(CryptoError::TagMismatch), "flip at byte {i}");
        }
    }

    /// The batch seal/open entry points are byte-identical to per-cell
    /// loops across cell-count remainder classes and strides, with
    /// per-cell address AADs.
    #[test]
    fn batch_matches_sequential_loop() {
        let mut rng = ChaChaRng::seed_from_u64(8);
        let cipher = AeadCipher::generate(&mut rng);
        for cells in [1usize, 3, 4, 6, 7, 8, 9, 11, 12, 13, 16, 17] {
            for pt_stride in [0usize, 1, 15, 16, 17, 64, 100, 256] {
                let plaintexts: Vec<u8> =
                    (0..cells * pt_stride).map(|i| (i * 23 % 251) as u8).collect();
                let nonces = rng.draw_nonces(cells);
                let aads: Vec<[u8; 16]> =
                    (0..cells).map(|i| address_aad(i * 3 + 1, i as u64)).collect();
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
                assert_eq!(batch, seq, "cells {cells} stride {pt_stride}");
                let mut back = vec![0u8; cells * pt_stride];
                cipher.open_batch_to_slices(&aads, &batch, &mut back).unwrap();
                assert_eq!(back, plaintexts, "cells {cells} stride {pt_stride}");
            }
        }
    }

    /// Batch open rejects a swapped AAD or corrupted byte in any cell.
    #[test]
    fn batch_open_rejects_wrong_aad_and_corruption() {
        let mut rng = ChaChaRng::seed_from_u64(9);
        let cipher = AeadCipher::generate(&mut rng);
        let cells = 13;
        let pt_stride = 48;
        let plaintexts = vec![7u8; cells * pt_stride];
        let nonces = rng.draw_nonces(cells);
        let aads: Vec<[u8; 16]> = (0..cells).map(|i| address_aad(i, 0)).collect();
        let ct_stride = pt_stride + AEAD_OVERHEAD;
        let mut cts = vec![0u8; cells * ct_stride];
        cipher.seal_batch_with_nonces(&nonces, &aads, &plaintexts, &mut cts);
        let mut out = vec![0u8; cells * pt_stride];
        // Swap two cells' AADs: both verifications must fail.
        let mut swapped = aads.clone();
        swapped.swap(1, 4);
        assert_eq!(
            cipher.open_batch_to_slices(&swapped, &cts, &mut out),
            Err(CryptoError::TagMismatch)
        );
        // Corrupt each cell in turn (covers wide groups and the remainder).
        for bad_cell in 0..cells {
            let mut corrupted = cts.clone();
            corrupted[bad_cell * ct_stride + 5] ^= 1;
            assert_eq!(
                cipher.open_batch_to_slices(&aads, &corrupted, &mut out),
                Err(CryptoError::TagMismatch),
                "cell {bad_cell}"
            );
        }
        assert!(cipher.open_batch_to_slices(&aads, &cts, &mut out).is_ok());
    }

    #[test]
    fn truncation_is_malformed() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let cipher = AeadCipher::generate(&mut rng);
        assert_eq!(open(&cipher, b"", &[0u8; AEAD_OVERHEAD - 1]), Err(CryptoError::Malformed));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let a = AeadCipher::generate(&mut rng);
        let b = AeadCipher::generate(&mut rng);
        let sealed = seal(&a, b"x", b"data", &mut rng);
        assert_eq!(open(&b, b"x", &sealed), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn reencryption_randomizes() {
        let mut rng = ChaChaRng::seed_from_u64(6);
        let cipher = AeadCipher::generate(&mut rng);
        let s1 = seal(&cipher, b"a", b"same plaintext", &mut rng);
        let s2 = seal(&cipher, b"a", b"same plaintext", &mut rng);
        assert_ne!(s1, s2);
    }

    #[test]
    fn address_aad_is_injective_on_fields() {
        assert_ne!(address_aad(1, 0), address_aad(0, 1));
        assert_ne!(address_aad(3, 9), address_aad(9, 3));
        assert_eq!(address_aad(5, 7), address_aad(5, 7));
    }

    #[test]
    fn empty_aad_and_empty_plaintext() {
        let mut rng = ChaChaRng::seed_from_u64(7);
        let cipher = AeadCipher::generate(&mut rng);
        let sealed = seal(&cipher, b"", b"", &mut rng);
        assert_eq!(sealed.len(), AEAD_OVERHEAD);
        assert_eq!(open(&cipher, b"", &sealed).unwrap(), Vec::<u8>::new());
    }
}
