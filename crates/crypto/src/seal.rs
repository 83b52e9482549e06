//! The sealed-cell layout `nonce ‖ body ‖ tag` and the one engine that
//! seals and opens it, behind both [`crate::cipher::BlockCipher`] and
//! [`crate::aead::AeadCipher`].
//!
//! A cell is a fresh 96-bit nonce, the plaintext XORed with the ChaCha20
//! keystream of (encryption key, nonce) from a fixed block counter, and a
//! Poly1305 tag under the one-time key that ChaCha20 block 0 of (MAC key,
//! nonce) yields (RFC 8439 §2.6), truncated to the cipher's kept length.
//! The two ciphers differ only in the four values an [`Engine`] holds:
//!
//! | | `BlockCipher` | `AeadCipher` |
//! |---|---|---|
//! | kept tag bytes | 4 | 16 |
//! | body keystream counter | 0 | 1 |
//! | MAC key | its separate MAC key | the encryption key |
//! | tag message | `nonce ‖ body`, unpadded | `aad ‖ pad16 ‖ body ‖ pad16 ‖ lens` |
//!
//! Everything else is here once: the one-cell seal and open, and the batch
//! pair. A batch packs every cell's keystream blocks onto full wide ChaCha
//! passes in one call ([`chacha::xor_keystream_batch_strided`]), and runs
//! the tags in groups of 8, then 4 ([`Poly1305xN`], one-time keys from
//! [`chacha::blocks_each`]), then one at a time on the scalar
//! [`Poly1305`]. A batch open verifies every tag before it strips any
//! keystream: a group passes only if every lane's tag matches, folded into
//! one value and tested once. Batch output is byte-identical to the
//! one-cell loop over the same nonces.

use crate::chacha::{self, Nonce, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use crate::cipher::CryptoError;
use crate::poly1305::{Poly1305, Poly1305xN, TAG_LEN};

/// The message a cell's tag covers.
#[derive(Clone, Copy)]
pub(crate) enum TagMessage {
    /// The cell's `nonce ‖ body`, unpadded.
    NonceBody,
    /// RFC 8439 §2.8: `aad ‖ pad16 ‖ body ‖ pad16 ‖ le64(|aad|) ‖ le64(|body|)`.
    Aead,
}

/// One cipher's parameters of the shared cell layout.
pub(crate) struct Engine<'k> {
    /// Key of the body keystream.
    pub(crate) enc: &'k [u8; KEY_LEN],
    /// Key whose block 0 under a cell's nonce is the cell's one-time MAC key.
    pub(crate) mac: &'k [u8; KEY_LEN],
    /// Block counter the body keystream starts at.
    pub(crate) counter: u32,
    /// Bytes of the Poly1305 tag the cell keeps.
    pub(crate) tag_len: usize,
    /// What the tag covers.
    pub(crate) message: TagMessage,
}

/// The `le64(|aad|) ‖ le64(|body|)` block closing an AEAD tag message.
fn lens(aad_len: usize, body_len: usize) -> [u8; 16] {
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(body_len as u64).to_le_bytes());
    lens
}

/// Cell `i`'s associated data; a cipher that binds none passes no AADs.
fn aad_of(aads: &[[u8; 16]], i: usize) -> &[u8] {
    aads.get(i).map_or(&[], |aad| aad)
}

impl Engine<'_> {
    /// Bytes a sealed cell adds to its plaintext.
    fn overhead(&self) -> usize {
        NONCE_LEN + self.tag_len
    }

    /// The full tag of one cell whose `nonce ‖ body` is `msg`.
    fn tag(&self, aad: &[u8], msg: &[u8]) -> [u8; TAG_LEN] {
        let nonce: Nonce = msg[..NONCE_LEN].try_into().expect("nonce prefix");
        let block = chacha::block(self.mac, 0, &nonce);
        let mut mac = Poly1305::new(block[..32].try_into().expect("32-byte prefix"));
        match self.message {
            TagMessage::NonceBody => mac.update(msg),
            TagMessage::Aead => {
                let body = &msg[NONCE_LEN..];
                mac.update(aad);
                mac.pad16();
                mac.update(body);
                mac.pad16();
                mac.update(&lens(aad.len(), body.len()));
            }
        }
        mac.finalize()
    }

    /// The full tags of the `N` cells from `cell` of `flat` (slots of
    /// `ct_stride` bytes): the `N` one-time keys in wide ChaCha passes, the
    /// `N` tags on the lanes of [`Poly1305xN`]. AEAD cells bind 16-byte
    /// AADs, which are block-aligned, so no `pad16` follows them.
    fn group_tags<const N: usize>(
        &self,
        flat: &[u8],
        aads: &[[u8; 16]],
        cell: usize,
        ct_stride: usize,
    ) -> [[u8; TAG_LEN]; N] {
        let msg_len = ct_stride - self.tag_len;
        let msg = move |l: usize| &flat[(cell + l) * ct_stride..][..msg_len];
        let nonces: [Nonce; N] =
            std::array::from_fn(|l| msg(l)[..NONCE_LEN].try_into().expect("nonce prefix"));
        let mut blocks = [[0u8; BLOCK_LEN]; N];
        chacha::blocks_each(self.mac, &[0; N], &nonces.each_ref(), &mut blocks);
        let keys: [[u8; 32]; N] =
            std::array::from_fn(|l| blocks[l][..32].try_into().expect("32-byte prefix"));
        let mut mac = Poly1305xN::<N>::new(keys.each_ref());
        match self.message {
            TagMessage::NonceBody => mac.update(std::array::from_fn(msg)),
            TagMessage::Aead => {
                mac.update(std::array::from_fn(|l| &aads[cell + l][..]));
                mac.update(std::array::from_fn(|l| &msg(l)[NONCE_LEN..]));
                mac.pad16();
                mac.update([&lens(16, msg_len - NONCE_LEN)[..]; N]);
            }
        }
        mac.finalize()
    }

    /// Nonzero unless the kept prefix of `tag` equals `stored`, compared in
    /// constant time.
    fn diff(&self, tag: &[u8; TAG_LEN], stored: &[u8]) -> u8 {
        tag[..self.tag_len]
            .iter()
            .zip(stored)
            .fold(0, |acc, (a, b)| acc | (a ^ b))
    }

    /// Tags the laid-out, encrypted `slot` (`nonce ‖ body ‖ room for the tag`).
    fn tag_slot(&self, aad: &[u8], slot: &mut [u8]) {
        let msg_len = slot.len() - self.tag_len;
        let tag = self.tag(aad, &slot[..msg_len]);
        slot[msg_len..].copy_from_slice(&tag[..self.tag_len]);
    }

    /// Checks `data`'s tag against `aad` and returns its nonce and
    /// plaintext length.
    fn verify(&self, aad: &[u8], data: &[u8]) -> Result<(Nonce, usize), CryptoError> {
        if data.len() < self.overhead() {
            return Err(CryptoError::Malformed);
        }
        let (msg, stored) = data.split_at(data.len() - self.tag_len);
        if self.diff(&self.tag(aad, msg), stored) != 0 {
            return Err(CryptoError::TagMismatch);
        }
        Ok((msg[..NONCE_LEN].try_into().expect("nonce prefix"), msg.len() - NONCE_LEN))
    }

    /// Seals `plaintext` under `nonce` into `out`, which must be exactly
    /// `plaintext.len() + overhead()` bytes.
    pub(crate) fn seal_into(&self, nonce: &Nonce, aad: &[u8], plaintext: &[u8], out: &mut [u8]) {
        assert_eq!(
            out.len(),
            plaintext.len() + self.overhead(),
            "output slot must be plaintext + overhead"
        );
        let body_end = NONCE_LEN + plaintext.len();
        out[..NONCE_LEN].copy_from_slice(nonce);
        out[NONCE_LEN..body_end].copy_from_slice(plaintext);
        chacha::xor_keystream(self.enc, self.counter, nonce, &mut out[NONCE_LEN..body_end]);
        self.tag_slot(aad, out);
    }

    /// Verifies `data` and writes its plaintext into the front of `out`,
    /// returning its length; `out` is untouched on error.
    pub(crate) fn open_into(
        &self,
        aad: &[u8],
        data: &[u8],
        out: &mut [u8],
    ) -> Result<usize, CryptoError> {
        let (nonce, pt_len) = self.verify(aad, data)?;
        out[..pt_len].copy_from_slice(&data[NONCE_LEN..NONCE_LEN + pt_len]);
        chacha::xor_keystream(self.enc, self.counter, &nonce, &mut out[..pt_len]);
        Ok(pt_len)
    }

    /// [`Engine::open_into`] where the cell lies: the plaintext ends up at
    /// the front of `buf`, which is untouched on error.
    pub(crate) fn open_in_place(&self, aad: &[u8], buf: &mut [u8]) -> Result<usize, CryptoError> {
        let (nonce, pt_len) = self.verify(aad, buf)?;
        let body = NONCE_LEN..NONCE_LEN + pt_len;
        chacha::xor_keystream(self.enc, self.counter, &nonce, &mut buf[body.clone()]);
        buf.copy_within(body, 0);
        Ok(pt_len)
    }

    /// Seals `nonces.len()` equal-length plaintexts packed in `plaintexts`
    /// into equal slots of `out`, binding `aads[i]` (if any) to cell `i`.
    ///
    /// # Panics
    /// Panics if `plaintexts.len()` is not `nonces.len()` equal strides or
    /// `out.len()` is not `nonces.len() * (stride + overhead())`.
    pub(crate) fn seal_batch(
        &self,
        nonces: &[Nonce],
        aads: &[[u8; 16]],
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
        let ct_stride = pt_stride + self.overhead();
        assert_eq!(out.len(), cells * ct_stride, "output must hold every ciphertext");

        for (i, nonce) in nonces.iter().enumerate() {
            let slot = &mut out[i * ct_stride..(i + 1) * ct_stride];
            slot[..NONCE_LEN].copy_from_slice(nonce);
            slot[NONCE_LEN..NONCE_LEN + pt_stride]
                .copy_from_slice(&plaintexts[i * pt_stride..(i + 1) * pt_stride]);
        }
        chacha::xor_keystream_batch_strided(
            self.enc,
            self.counter,
            nonces,
            out,
            ct_stride,
            NONCE_LEN,
            pt_stride,
        );
        let mut cell = 0;
        while cell + 8 <= cells {
            self.seal_group::<8>(aads, cell, ct_stride, out);
            cell += 8;
        }
        while cell + 4 <= cells {
            self.seal_group::<4>(aads, cell, ct_stride, out);
            cell += 4;
        }
        for i in cell..cells {
            self.tag_slot(aad_of(aads, i), &mut out[i * ct_stride..(i + 1) * ct_stride]);
        }
    }

    /// Tags the `N` encrypted cells from `cell` on the lanes.
    fn seal_group<const N: usize>(
        &self,
        aads: &[[u8; 16]],
        cell: usize,
        ct_stride: usize,
        out: &mut [u8],
    ) {
        let tags = self.group_tags::<N>(out, aads, cell, ct_stride);
        for (l, tag) in tags.iter().enumerate() {
            let end = (cell + l + 1) * ct_stride;
            out[end - self.tag_len..end].copy_from_slice(&tag[..self.tag_len]);
        }
    }

    /// Opens `cells` equal-length sealed cells packed in `ciphertexts` into
    /// the equal plaintext slots of `out`, checking `aads[i]` (if any) for
    /// cell `i`. Every tag is verified first, in groups of 8, then 4, then
    /// one at a time; only then are the bodies copied out and the keystream
    /// of every cell stripped in one packed call. On failure returns the
    /// first failing group's or cell's error, with `out` unspecified.
    ///
    /// # Panics
    /// Panics if the flat lengths are inconsistent with `cells`.
    pub(crate) fn open_batch(
        &self,
        aads: &[[u8; 16]],
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
        if ct_stride < self.overhead() {
            return Err(CryptoError::Malformed);
        }
        let pt_stride = ct_stride - self.overhead();
        assert_eq!(out.len(), cells * pt_stride, "output must hold every plaintext");

        let mut cell = 0;
        while cell + 8 <= cells {
            self.verify_group::<8>(aads, ciphertexts, cell, ct_stride)?;
            cell += 8;
        }
        while cell + 4 <= cells {
            self.verify_group::<4>(aads, ciphertexts, cell, ct_stride)?;
            cell += 4;
        }
        for i in cell..cells {
            self.verify(aad_of(aads, i), &ciphertexts[i * ct_stride..(i + 1) * ct_stride])?;
        }
        for i in 0..cells {
            out[i * pt_stride..(i + 1) * pt_stride]
                .copy_from_slice(&ciphertexts[i * ct_stride + NONCE_LEN..][..pt_stride]);
        }
        chacha::xor_keystream_cells(
            self.enc,
            self.counter,
            cells,
            |i| {
                ciphertexts[i * ct_stride..][..NONCE_LEN]
                    .try_into()
                    .expect("nonce prefix")
            },
            out,
            pt_stride,
            0,
            pt_stride,
        );
        Ok(())
    }

    /// Verifies the `N` cells from `cell`. Every lane's tag difference is
    /// folded into one value, tested once, so the time to the verdict does
    /// not depend on which lane failed.
    fn verify_group<const N: usize>(
        &self,
        aads: &[[u8; 16]],
        ciphertexts: &[u8],
        cell: usize,
        ct_stride: usize,
    ) -> Result<(), CryptoError> {
        let msg_len = ct_stride - self.tag_len;
        let tags = self.group_tags::<N>(ciphertexts, aads, cell, ct_stride);
        let diff = tags.iter().enumerate().fold(0, |acc, (l, tag)| {
            let base = (cell + l) * ct_stride;
            acc | self.diff(tag, &ciphertexts[base + msg_len..base + ct_stride])
        });
        if diff != 0 {
            return Err(CryptoError::TagMismatch);
        }
        Ok(())
    }
}
