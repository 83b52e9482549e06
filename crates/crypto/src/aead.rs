//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8) with associated data.
//!
//! The paper's model is an honest-but-curious server, so the base
//! [`crate::cipher::BlockCipher`] only needs IND-CPA. A production
//! deployment also wants protection against an *active* server that swaps,
//! rolls back, or corrupts cells. [`AeadCipher`] provides that hardening:
//! each cell is sealed with its address (and, optionally, a version counter)
//! as associated data, so a ciphertext moved to a different address fails
//! authentication. See the `tamper_detection` integration tests for the
//! attack scenarios this defeats.

use crate::chacha;
use crate::cipher::CryptoError;
use crate::poly1305::{tags_equal, Poly1305, Poly1305xN, TAG_LEN};
use crate::rng::ChaChaRng;

/// Ciphertext expansion of [`AeadCipher`]: nonce plus Poly1305 tag.
pub const AEAD_OVERHEAD: usize = chacha::NONCE_LEN + TAG_LEN;

/// A sealed AEAD ciphertext: `nonce || body || tag`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sealed(pub Vec<u8>);

impl Sealed {
    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty (never the case for valid output).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

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

    /// RFC 8439 §2.6: the Poly1305 one-time key is the first 32 bytes of
    /// the ChaCha20 block at counter 0.
    fn one_time_key(&self, nonce: &[u8; chacha::NONCE_LEN]) -> [u8; 32] {
        let block = chacha::block(&self.key, 0, nonce);
        block[..32].try_into().expect("32-byte prefix")
    }

    fn tag(&self, nonce: &[u8; chacha::NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(&self.one_time_key(nonce));
        mac.update(aad);
        mac.pad16();
        mac.update(ciphertext);
        mac.pad16();
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Seals `plaintext` with a fresh random nonce, binding `aad`.
    pub fn seal(&self, aad: &[u8], plaintext: &[u8], rng: &mut ChaChaRng) -> Sealed {
        let mut nonce = [0u8; chacha::NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.seal_with_nonce(&nonce, aad, plaintext)
    }

    /// Deterministic slice-form seal: writes `nonce || body || tag` into
    /// `out`, which must be exactly `plaintext.len() + AEAD_OVERHEAD`
    /// bytes. The batch primitive: nonces are pre-drawn and the cells are
    /// sealed into disjoint slots, byte-identical to a sequential
    /// [`AeadCipher::seal`] loop over the same RNG stream.
    ///
    /// # Panics
    /// Panics if `out.len() != plaintext.len() + AEAD_OVERHEAD`.
    pub fn seal_with_nonce_into(
        &self,
        nonce: &[u8; chacha::NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut [u8],
    ) {
        assert_eq!(
            out.len(),
            plaintext.len() + AEAD_OVERHEAD,
            "output slot must be plaintext + overhead"
        );
        let body_end = chacha::NONCE_LEN + plaintext.len();
        out[..chacha::NONCE_LEN].copy_from_slice(nonce);
        out[chacha::NONCE_LEN..body_end].copy_from_slice(plaintext);
        chacha::xor_keystream(&self.key, 1, nonce, &mut out[chacha::NONCE_LEN..body_end]);
        let tag = self.tag(nonce, aad, &out[chacha::NONCE_LEN..body_end]);
        out[body_end..].copy_from_slice(&tag);
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
        if data.len() < AEAD_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let nonce: [u8; chacha::NONCE_LEN] =
            data[..chacha::NONCE_LEN].try_into().expect("nonce prefix");
        let body_len = data.len() - TAG_LEN;
        let tag: [u8; TAG_LEN] = data[body_len..].try_into().expect("16-byte tag");
        if !tags_equal(&self.tag(&nonce, aad, &data[chacha::NONCE_LEN..body_len]), &tag) {
            return Err(CryptoError::TagMismatch);
        }
        let pt_len = body_len - chacha::NONCE_LEN;
        out[..pt_len].copy_from_slice(&data[chacha::NONCE_LEN..body_len]);
        chacha::xor_keystream(&self.key, 1, &nonce, &mut out[..pt_len]);
        Ok(pt_len)
    }

    /// The shared `aad_len || ct_len` trailer block of the tag message for
    /// a 16-byte AAD and `pt_stride`-byte body (RFC 8439 §2.8 lengths).
    fn lens_block(pt_stride: usize) -> [u8; 16] {
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&16u64.to_le_bytes());
        lens[8..].copy_from_slice(&(pt_stride as u64).to_le_bytes());
        lens
    }

    /// Derives `N` one-time Poly1305 keys in wide ChaCha passes (one
    /// 8-lane AVX2 pass when `N = 8` and the tier allows).
    fn one_time_keys<const N: usize>(
        &self,
        nonces: &[&[u8; chacha::NONCE_LEN]; N],
    ) -> [[u8; 32]; N] {
        let mut blocks = [[0u8; chacha::BLOCK_LEN]; N];
        chacha::blocks_each(&self.key, &[0; N], nonces, &mut blocks);
        std::array::from_fn(|l| blocks[l][..32].try_into().expect("32-byte prefix"))
    }

    /// Computes the AEAD tags of cells `cell..cell + N` laid out in `flat`
    /// at `ct_stride` (nonces read from the slot prefixes, bodies of
    /// `pt_stride` bytes, `lens` the shared `aad_len || ct_len` block):
    /// wide passes for the `N` one-time keys, interleaved Poly1305 over
    /// `aad || pad16 || body || pad16 || lens` per lane. Returns the
    /// group's nonces alongside the tags.
    fn group_tags<const N: usize>(
        &self,
        flat: &[u8],
        aads: &[[u8; 16]],
        cell: usize,
        ct_stride: usize,
        pt_stride: usize,
        lens: &[u8; 16],
    ) -> ([chacha::Nonce; N], [[u8; TAG_LEN]; N]) {
        let body_end = chacha::NONCE_LEN + pt_stride;
        let nonces: [chacha::Nonce; N] = std::array::from_fn(|l| {
            flat[(cell + l) * ct_stride..(cell + l) * ct_stride + chacha::NONCE_LEN]
                .try_into()
                .expect("nonce prefix")
        });
        let nonce_refs: [&chacha::Nonce; N] = std::array::from_fn(|l| &nonces[l]);
        let otks = self.one_time_keys(&nonce_refs);
        let mut mac = Poly1305xN::<N>::new(std::array::from_fn(|l| &otks[l]));
        mac.update(std::array::from_fn(|l| &aads[cell + l][..]));
        // 16-byte aads are already block-aligned (pad16 is a no-op),
        // matching the scalar tag()'s update(aad); pad16() sequence.
        mac.update(std::array::from_fn(|l| {
            let base = (cell + l) * ct_stride;
            &flat[base + chacha::NONCE_LEN..base + body_end]
        }));
        mac.pad16();
        mac.update([lens.as_slice(); N]);
        (nonces, mac.finalize())
    }

    /// Verifies and opens the `N` cells starting at `cell` of a strided
    /// batch: checks every tag (constant-time per lane), copies the bodies
    /// into their plaintext slots and strips the keystream in one wide
    /// strided pass. The group engine behind
    /// [`AeadCipher::open_batch_to_slices`].
    fn open_group<const N: usize>(
        &self,
        aads: &[[u8; 16]],
        ciphertexts: &[u8],
        cell: usize,
        ct_stride: usize,
        lens: &[u8; 16],
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        let pt_stride = ct_stride - AEAD_OVERHEAD;
        let body_end = chacha::NONCE_LEN + pt_stride;
        let (group_nonces, tags) =
            self.group_tags::<N>(ciphertexts, aads, cell, ct_stride, pt_stride, lens);
        for (l, expected) in tags.iter().enumerate() {
            let base = (cell + l) * ct_stride;
            let stored: [u8; TAG_LEN] = ciphertexts[base + body_end..base + ct_stride]
                .try_into()
                .expect("16-byte tag");
            if !tags_equal(expected, &stored) {
                return Err(CryptoError::TagMismatch);
            }
        }
        for l in 0..N {
            let base = (cell + l) * ct_stride;
            out[(cell + l) * pt_stride..(cell + l + 1) * pt_stride]
                .copy_from_slice(&ciphertexts[base + chacha::NONCE_LEN..base + body_end]);
        }
        let group_out = &mut out[cell * pt_stride..(cell + N) * pt_stride];
        chacha::xor_keystream_batch_strided(
            &self.key,
            1,
            &group_nonces,
            group_out,
            pt_stride,
            0,
            pt_stride,
        );
        Ok(())
    }

    /// Seals `nonces.len()` equal-length plaintexts packed back-to-back in
    /// `plaintexts` into `nonce || body || tag` slots of `out`, binding
    /// `aads[i]` to cell `i`. Byte-identical to a
    /// [`AeadCipher::seal_with_nonce_into`] loop, but drives the wide
    /// keystream across cells and interleaves the tags' Poly1305
    /// arithmetic in groups of 8, then 4 (one-time keys also derived a
    /// group per pass).
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
        let cells = nonces.len();
        assert_eq!(aads.len(), cells, "one aad per cell");
        if cells == 0 {
            assert!(plaintexts.is_empty() && out.is_empty(), "bytes without nonces");
            return;
        }
        assert_eq!(plaintexts.len() % cells, 0, "plaintext length not a multiple of cell count");
        let pt_stride = plaintexts.len() / cells;
        let ct_stride = pt_stride + AEAD_OVERHEAD;
        assert_eq!(out.len(), cells * ct_stride, "output must hold every ciphertext");

        for (i, nonce) in nonces.iter().enumerate() {
            let slot = &mut out[i * ct_stride..(i + 1) * ct_stride];
            slot[..chacha::NONCE_LEN].copy_from_slice(nonce);
            slot[chacha::NONCE_LEN..chacha::NONCE_LEN + pt_stride]
                .copy_from_slice(&plaintexts[i * pt_stride..(i + 1) * pt_stride]);
        }
        chacha::xor_keystream_batch_strided(
            &self.key,
            1,
            nonces,
            out,
            ct_stride,
            chacha::NONCE_LEN,
            pt_stride,
        );

        let body_end = chacha::NONCE_LEN + pt_stride;
        let lens = Self::lens_block(pt_stride);
        let mut cell = 0;
        while cell + 8 <= cells {
            let (_, tags) = self.group_tags::<8>(out, aads, cell, ct_stride, pt_stride, &lens);
            for (l, tag) in tags.iter().enumerate() {
                let base = (cell + l) * ct_stride;
                out[base + body_end..base + ct_stride].copy_from_slice(tag);
            }
            cell += 8;
        }
        while cell + 4 <= cells {
            let (_, tags) = self.group_tags::<4>(out, aads, cell, ct_stride, pt_stride, &lens);
            for (l, tag) in tags.iter().enumerate() {
                let base = (cell + l) * ct_stride;
                out[base + body_end..base + ct_stride].copy_from_slice(tag);
            }
            cell += 4;
        }
        for (i, aad) in aads.iter().enumerate().skip(cell) {
            let base = i * ct_stride;
            let nonce: [u8; chacha::NONCE_LEN] = out[base..base + chacha::NONCE_LEN]
                .try_into()
                .expect("nonce prefix");
            let tag = self.tag(&nonce, aad, &out[base + chacha::NONCE_LEN..base + body_end]);
            out[base + body_end..base + ct_stride].copy_from_slice(&tag);
        }
    }

    /// Opens `aads.len()` equal-length sealed cells packed back-to-back in
    /// `ciphertexts` into the plaintext slots of `out`, verifying 8, then
    /// 4, tags per interleaved pass. Returns the lowest-indexed cell's
    /// error on failure, with the contents of `out` unspecified. The batch
    /// twin of [`AeadCipher::open_to_slice`].
    ///
    /// # Panics
    /// Panics if the flat lengths are inconsistent with `aads.len()`.
    pub fn open_batch_to_slices(
        &self,
        aads: &[[u8; 16]],
        ciphertexts: &[u8],
        out: &mut [u8],
    ) -> Result<(), CryptoError> {
        let cells = aads.len();
        if cells == 0 {
            assert!(ciphertexts.is_empty() && out.is_empty(), "bytes without cells");
            return Ok(());
        }
        assert_eq!(ciphertexts.len() % cells, 0, "ciphertext length not a multiple of cell count");
        let ct_stride = ciphertexts.len() / cells;
        if ct_stride < AEAD_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let pt_stride = ct_stride - AEAD_OVERHEAD;
        assert_eq!(out.len(), cells * pt_stride, "output must hold every plaintext");
        let lens = Self::lens_block(pt_stride);

        let mut cell = 0;
        while cell + 8 <= cells {
            self.open_group::<8>(aads, ciphertexts, cell, ct_stride, &lens, out)?;
            cell += 8;
        }
        while cell + 4 <= cells {
            self.open_group::<4>(aads, ciphertexts, cell, ct_stride, &lens, out)?;
            cell += 4;
        }
        for i in cell..cells {
            let ct = &ciphertexts[i * ct_stride..(i + 1) * ct_stride];
            self.open_to_slice(&aads[i], ct, &mut out[i * pt_stride..(i + 1) * pt_stride])?;
        }
        Ok(())
    }

    /// Seals with a caller-chosen nonce (test vectors; deterministic
    /// callers must guarantee nonce uniqueness themselves).
    pub fn seal_with_nonce(
        &self,
        nonce: &[u8; chacha::NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Sealed {
        let mut out = Vec::with_capacity(plaintext.len() + AEAD_OVERHEAD);
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        chacha::xor_keystream(&self.key, 1, nonce, &mut out[chacha::NONCE_LEN..]);
        let tag = self.tag(nonce, aad, &out[chacha::NONCE_LEN..]);
        out.extend_from_slice(&tag);
        Sealed(out)
    }

    /// Opens a sealed ciphertext, verifying the tag against `aad`.
    pub fn open(&self, aad: &[u8], sealed: &Sealed) -> Result<Vec<u8>, CryptoError> {
        let data = &sealed.0;
        if data.len() < AEAD_OVERHEAD {
            return Err(CryptoError::Malformed);
        }
        let nonce: [u8; chacha::NONCE_LEN] =
            data[..chacha::NONCE_LEN].try_into().expect("nonce prefix");
        let (body, tag_bytes) = data[chacha::NONCE_LEN..].split_at(data.len() - AEAD_OVERHEAD);
        let tag: [u8; TAG_LEN] = tag_bytes.try_into().expect("16-byte tag");
        if !tags_equal(&self.tag(&nonce, aad, body), &tag) {
            return Err(CryptoError::TagMismatch);
        }
        let mut plaintext = body.to_vec();
        chacha::xor_keystream(&self.key, 1, &nonce, &mut plaintext);
        Ok(plaintext)
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
        let sealed = cipher.seal_with_nonce(&nonce, &aad, plaintext);

        let expected_ct = hex("d31a8d34648e60db7b86afbc53ef7ec2
             a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b
             1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58
             fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b
             6116");
        let expected_tag = hex("1ae10b594f09e26a7e902ecbd0600691");
        let body = &sealed.0[12..sealed.0.len() - 16];
        let tag = &sealed.0[sealed.0.len() - 16..];
        assert_eq!(body, expected_ct.as_slice());
        assert_eq!(tag, expected_tag.as_slice());

        assert_eq!(cipher.open(&aad, &sealed).unwrap(), plaintext);
    }

    #[test]
    fn round_trip_various_lengths() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        let cipher = AeadCipher::generate(&mut rng);
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sealed = cipher.seal(b"aad", &pt, &mut rng);
            assert_eq!(sealed.len(), len + AEAD_OVERHEAD);
            assert_eq!(cipher.open(b"aad", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn wrong_aad_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let cipher = AeadCipher::generate(&mut rng);
        let sealed = cipher.seal(&address_aad(7, 0), b"cell contents", &mut rng);
        assert_eq!(
            cipher.open(&address_aad(8, 0), &sealed),
            Err(CryptoError::TagMismatch),
            "moved to a different address"
        );
        assert_eq!(
            cipher.open(&address_aad(7, 1), &sealed),
            Err(CryptoError::TagMismatch),
            "rolled back to an older version"
        );
        assert!(cipher.open(&address_aad(7, 0), &sealed).is_ok());
    }

    #[test]
    fn corruption_anywhere_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let cipher = AeadCipher::generate(&mut rng);
        let sealed = cipher.seal(b"", b"sixteen byte msg", &mut rng);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad.0[i] ^= 1;
            assert_eq!(cipher.open(b"", &bad), Err(CryptoError::TagMismatch), "flip at byte {i}");
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
        assert_eq!(
            cipher.open(b"", &Sealed(vec![0u8; AEAD_OVERHEAD - 1])),
            Err(CryptoError::Malformed)
        );
    }

    #[test]
    fn wrong_key_is_rejected() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let a = AeadCipher::generate(&mut rng);
        let b = AeadCipher::generate(&mut rng);
        let sealed = a.seal(b"x", b"data", &mut rng);
        assert_eq!(b.open(b"x", &sealed), Err(CryptoError::TagMismatch));
    }

    #[test]
    fn reencryption_randomizes() {
        let mut rng = ChaChaRng::seed_from_u64(6);
        let cipher = AeadCipher::generate(&mut rng);
        let s1 = cipher.seal(b"a", b"same plaintext", &mut rng);
        let s2 = cipher.seal(b"a", b"same plaintext", &mut rng);
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
        let sealed = cipher.seal(b"", b"", &mut rng);
        assert_eq!(sealed.len(), AEAD_OVERHEAD);
        assert_eq!(cipher.open(b"", &sealed).unwrap(), Vec::<u8>::new());
    }
}
