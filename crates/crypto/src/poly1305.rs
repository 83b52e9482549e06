//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Used by the crate's sealed-cell engine for both the ChaCha20-Poly1305
//! AEAD ([`crate::aead`]) and [`crate::cipher`]'s truncated integrity tag:
//! the scalar form for one cell, the lanes for groups of 4 or 8. The field
//! `GF(2^130 − 5)` has two representations here, one per shape of work.
//! Both fully reduce before serializing, so the limb radix is unobservable:
//! every form matches the RFC 8439 vectors, and the lane form equals the
//! scalar one bit for bit (the `*_matches_scalar` tests and the crypto
//! proptests pin it, under every `DPS_FORCE_ISA` tier in CI).
//!
//! * [`Poly1305`] tags one stream with 44/44/42-bit limbs ("donna-64"):
//!   three `u64` limbs, `u128` products, 9 wide multiplies per 16-byte
//!   block.
//! * [`Poly1305xN`] tags `N` equal-length streams in lock-step (4 or 8,
//!   the ChaCha lane groups that derive their one-time keys). Each lane
//!   holds five 26-bit limbs, stored limb-major (`h[limb][lane]`), so every
//!   product is one 32×32→64-bit lane multiply (`vpmuludq`) and each step
//!   of a block — message load, 25 products, carry chain — is a loop over
//!   the lanes. That absorb loop is one safe body, compiled twice: under
//!   `#[target_feature(enable = "avx2")]` (module `poly1305::avx2`, entered
//!   at the AVX2 [`crate::isa`] tier), where the lane loops become
//!   four-lane vector instructions, and plain below it.

/// Length of a Poly1305 key (`r || s`).
pub const KEY_LEN: usize = 32;

/// Length of a Poly1305 tag.
pub const TAG_LEN: usize = 16;

#[inline]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// 44-bit limb mask (limbs 0 and 1 of the radix-2^44 representation).
const M44: u64 = 0x0fff_ffff_ffff;
/// 42-bit limb mask (top limb; 44 + 44 + 42 = 130 bits).
const M42: u64 = 0x03ff_ffff_ffff;

/// Incremental Poly1305 state.
///
/// The one-shot [`poly1305`] helper suffices for most callers; the
/// incremental form lets the AEAD feed `aad || pad || ct || pad || lengths`
/// without concatenating buffers.
///
/// Internally the field arithmetic uses three 44/44/42-bit limbs in `u64`s
/// with `u128` products (the "donna-64" layout): 9 wide multiplies per
/// 16-byte block instead of the 25 narrow ones of the classic 26-bit-limb
/// form. The representation is invisible in the output — tags are fully
/// reduced before serialization, so they match any correct Poly1305
/// bit-for-bit (pinned by the RFC 8439 vectors below).
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r` in radix-2^44 limbs.
    r: [u64; 3],
    /// Precomputed `20·r1`, `20·r2` (the `5·4·r` folding constants).
    s: [u64; 2],
    /// The final added pad `s` from the key, as two little-endian words.
    pad: [u64; 2],
    /// Accumulator limbs.
    h: [u64; 3],
    buf: [u8; 16],
    buf_len: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material or the accumulator.
        write!(f, "Poly1305(..)")
    }
}

/// Splits a little-endian 16-byte value (`t0 || t1`) into 44/44/42-bit
/// limbs.
#[inline(always)]
fn limbs(t0: u64, t1: u64) -> [u64; 3] {
    [t0 & M44, ((t0 >> 44) | (t1 << 20)) & M44, (t1 >> 24) & M42]
}

/// The key's `r` as two little-endian words, clamped as RFC 8439 requires
/// (`r &= 0x0ffffffc0ffffffc0ffffffc0fffffff`); both forms split it into
/// their own limbs.
#[inline(always)]
fn clamped_r(key: &[u8; KEY_LEN]) -> (u64, u64) {
    (le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff, le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc)
}

/// The serial carry chain of [`mul_limbs`]: propagates the `u128` limb
/// products down to partially reduced 44/44/42 limbs (limb 1 may hold a
/// small excess carry, absorbed by the next step or by
/// [`finalize_limbs`]).
#[inline(always)]
fn carry_reduce(d0: u128, d1: u128, d2: u128) -> [u64; 3] {
    let mut c = (d0 >> 44) as u64;
    let mut h0 = (d0 as u64) & M44;
    let d1 = d1 + u128::from(c);
    c = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & M44;
    let d2 = d2 + u128::from(c);
    c = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & M42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= M44;
    [h0, h1 + c, h2]
}

/// `a · r mod p` on 44/44/42 limbs: the 9 schoolbook products (with the
/// `20·` folding constants `s` standing in for the wrapped high limbs),
/// each ≲ 2^94, then one carry chain. The core of [`block_step`] without
/// the message add.
#[inline(always)]
fn mul_limbs(a: [u64; 3], r: &[u64; 3], s: &[u64; 2]) -> [u64; 3] {
    let d0 = u128::from(a[0]) * u128::from(r[0])
        + u128::from(a[1]) * u128::from(s[1])
        + u128::from(a[2]) * u128::from(s[0]);
    let d1 = u128::from(a[0]) * u128::from(r[1])
        + u128::from(a[1]) * u128::from(r[0])
        + u128::from(a[2]) * u128::from(s[1]);
    let d2 = u128::from(a[0]) * u128::from(r[2])
        + u128::from(a[1]) * u128::from(r[1])
        + u128::from(a[2]) * u128::from(r[0]);
    carry_reduce(d0, d1, d2)
}

/// One Poly1305 block step on radix-2^44 limbs: `h = (h + m) · r mod p`.
#[inline(always)]
fn block_step(h: &mut [u64; 3], r: &[u64; 3], s: &[u64; 2], m: &[u8; 16], hibit: u64) {
    let m = limbs(le64(&m[0..8]), le64(&m[8..16]));
    *h = mul_limbs([h[0] + m[0], h[1] + m[1], h[2] + (m[2] | hibit)], r, s);
}

/// Final reduction and serialization, shared by the scalar form and the
/// lanes ([`finalize_lane`]): fully reduces `h mod 2^130 − 5`, adds the key
/// pad and returns the 16-byte tag.
#[inline(always)]
fn finalize_limbs(mut h: [u64; 3], pad: [u64; 2]) -> [u8; TAG_LEN] {
    // Fully carry h.
    let mut c = h[1] >> 44;
    h[1] &= M44;
    h[2] += c;
    c = h[2] >> 42;
    h[2] &= M42;
    h[0] += c * 5;
    c = h[0] >> 44;
    h[0] &= M44;
    h[1] += c;
    c = h[1] >> 44;
    h[1] &= M44;
    h[2] += c;
    c = h[2] >> 42;
    h[2] &= M42;
    h[0] += c * 5;
    c = h[0] >> 44;
    h[0] &= M44;
    h[1] += c;

    // Compute g = h + 5 − 2^130 and select it when non-negative.
    let mut g0 = h[0] + 5;
    c = g0 >> 44;
    g0 &= M44;
    let mut g1 = h[1] + c;
    c = g1 >> 44;
    g1 &= M44;
    let g2 = h[2].wrapping_add(c).wrapping_sub(1 << 42);

    // mask = all-ones iff g >= 0 (no borrow out of the top limb).
    let mask = (g2 >> 63).wrapping_sub(1);
    h[0] = (h[0] & !mask) | (g0 & mask);
    h[1] = (h[1] & !mask) | (g1 & mask);
    h[2] = (h[2] & !mask) | (g2 & mask);

    // h = (h + pad) mod 2^128, still in limb form.
    let p = limbs(pad[0], pad[1]);
    h[0] += p[0];
    c = h[0] >> 44;
    h[0] &= M44;
    h[1] += p[1] + c;
    c = h[1] >> 44;
    h[1] &= M44;
    h[2] = (h[2] + p[2] + c) & M42;

    // Serialize as two little-endian 64-bit words.
    let t0 = h[0] | (h[1] << 44);
    let t1 = (h[1] >> 20) | (h[2] << 24);
    let mut tag = [0u8; TAG_LEN];
    tag[..8].copy_from_slice(&t0.to_le_bytes());
    tag[8..].copy_from_slice(&t1.to_le_bytes());
    tag
}

impl Poly1305 {
    /// Initializes the authenticator from a 32-byte one-time key `r || s`.
    /// `r` is clamped as RFC 8439 requires.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let (lo, hi) = clamped_r(key);
        let r = limbs(lo, hi);
        Self {
            r,
            s: [r[1] * 20, r[2] * 20],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// One 16-byte block; `hibit` is `1 << 40` (the 2^128 marker in the
    /// top limb) for full message blocks and `0` for the final padded
    /// partial block.
    fn block(&mut self, m: &[u8; 16], hibit: u64) {
        let (r, s) = (self.r, self.s);
        block_step(&mut self.h, &r, &s, m, hibit);
    }

    /// Absorbs `data` into the authenticator.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.block(&block, 1 << 40);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let block: [u8; 16] = data[..16].try_into().expect("16-byte chunk");
            self.block(&block, 1 << 40);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pads the absorbed length up to a 16-byte boundary with zeros (the
    /// AEAD's `pad16`). A multiple-of-16 length absorbs nothing.
    pub fn pad16(&mut self) {
        if self.buf_len > 0 {
            let zeros = [0u8; 16];
            let pad = 16 - self.buf_len;
            self.update(&zeros[..pad]);
        }
    }

    /// Finalizes and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zeros, hibit = 0.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.block(&block, 0);
        }
        finalize_limbs(self.h, self.pad)
    }
}

/// One-shot Poly1305 over `msg` with the one-time key `key`.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
}

/// 26-bit limb mask of the lane form.
const M26: u64 = 0x03ff_ffff;
/// The 2^128 marker of a full message block, in the lane form's top limb.
const HIBIT26: u64 = 1 << 24;

/// One limb row of the lane form: a `u64` per lane.
type Row<const L: usize> = [u64; L];

/// Splits each lane's little-endian 16-byte value (`lo || hi`) into five
/// rows of 26-bit limbs, or-ing `top` into the last (which holds bits
/// 104..128, so it is below 2^24 before `top`).
#[inline(always)]
fn limb_rows<const L: usize>(lo: Row<L>, hi: Row<L>, top: u64) -> [Row<L>; 5] {
    [
        std::array::from_fn(|l| lo[l] & M26),
        std::array::from_fn(|l| (lo[l] >> 26) & M26),
        std::array::from_fn(|l| ((lo[l] >> 52) | (hi[l] << 12)) & M26),
        std::array::from_fn(|l| (hi[l] >> 14) & M26),
        std::array::from_fn(|l| (hi[l] >> 40) | top),
    ]
}

/// One 32×32→64-bit product. Both factors are limbs below 2^32 (the
/// bounds at [`absorb`]), so the truncations are exact, and a row of these
/// compiles to `pmuludq` / `vpmuludq`. Debug builds check the bound.
#[inline(always)]
fn mul32(a: u64, b: u64) -> u64 {
    debug_assert!(a >> 32 == 0 && b >> 32 == 0, "a limb reached a 32-bit multiply at 2^32");
    u64::from(a as u32) * u64::from(b as u32)
}

/// `Σ_k a[k]·b[k]` lane by lane: one limb of a field product, accumulated
/// a whole row at a time.
#[inline(always)]
fn dot<const L: usize>(a: &[Row<L>; 5], b: [&Row<L>; 5]) -> Row<L> {
    let mut d = [0; L];
    for (x, y) in a.iter().zip(b) {
        d = std::array::from_fn(|l| d[l] + mul32(x[l], y[l]));
    }
    d
}

/// `LANES` Poly1305 authenticators in lock-step, in radix 2^26 and
/// limb-major: lane `l`'s state lives in column `l` of each limb row, so
/// every step of an absorbed block is an operation on whole rows.
/// [`Poly1305x4`] pairs with the 4-lane ChaCha one-time-key
/// derivation, [`Poly1305x8`] with the 8-lane one
/// ([`crate::chacha::blocks_each`]).
///
/// All lanes must absorb the same number of bytes per
/// [`Poly1305xN::update`] call (the batch paths tag equal-length cells,
/// so this costs nothing), which keeps the shared block buffer fill
/// identical across lanes. Lane `l`'s tag equals a scalar [`Poly1305`]
/// run over the concatenation of the `msgs[l]` slices.
#[derive(Clone)]
pub struct Poly1305xN<const LANES: usize> {
    /// Clamped `r`, 26-bit limbs: `r[limb][lane]`.
    r: [Row<LANES>; 5],
    /// `5·r1 … 5·r4`: a product that wraps past 2^130 folds back times 5.
    r5: [Row<LANES>; 4],
    /// The key pads `s`, one per lane, as two little-endian words.
    pad: [[u64; 2]; LANES],
    /// Accumulators, 26-bit limbs: `h[limb][lane]`.
    h: [Row<LANES>; 5],
    buf: [[u8; 16]; LANES],
    buf_len: usize,
}

/// Four lock-step authenticators, matching 4-lane one-time keys.
pub type Poly1305x4 = Poly1305xN<4>;
/// Eight lock-step authenticators, matching 8-lane one-time keys.
pub type Poly1305x8 = Poly1305xN<8>;

impl<const LANES: usize> std::fmt::Debug for Poly1305xN<LANES> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material or the accumulators.
        write!(f, "Poly1305x{LANES}(..)")
    }
}

/// The lane kernel: `h = (h + m) · r mod 2^130 − 5` for each 16-byte block
/// of the `msgs` (equal lengths, multiples of 16), in every lane. `hibit`
/// is [`HIBIT26`] for message blocks and 0 for the padded final block.
/// Safe code whose every step is a loop over the lanes of a row, written
/// as `array::from_fn`, which the vectorizer takes whole (`array::map` over
/// the message words stayed scalar and made the AVX2 kernel ≈ 1.4× slower):
/// the AVX2 tier runs it compiled under `#[target_feature]`, every other
/// tier as it stands. Both compilations hold the whole block loop, so no
/// block pays a call.
///
/// Bounds, which keep every factor of [`mul32`] below 2^32:
/// - after a carry pass `h0, h2, h3, h4 < 2^26` and `h1 < 2^26 + 2^12`,
///   and a message limb is below 2^26 (the top one below 2^25 with the
///   marker), so each `a_k = h_k + m_k < 2^28`;
/// - `r_k < 2^26`, so `5·r_k < 2^28.4`;
/// - each `d_k` sums five products below 2^28 · 2^28.4, so `d_k < 2^61`;
/// - the carry out of `d4` is below 2^35, so folding it back times 5
///   leaves `h0 < 2^38`, whose carry into `h1` is below 2^12: the `h1`
///   bound of the first line.
#[inline(always)]
fn absorb<const L: usize>(mac: &mut Poly1305xN<L>, msgs: [&[u8]; L], hibit: u64) {
    let (r, s) = (&mac.r, &mac.r5);
    let mut h = mac.h;
    for b in (0..msgs[0].len() / 16).map(|b| 16 * b) {
        let lo: Row<L> = std::array::from_fn(|l| le64(&msgs[l][b..b + 8]));
        let hi: Row<L> = std::array::from_fn(|l| le64(&msgs[l][b + 8..b + 16]));
        for (hk, mk) in h.iter_mut().zip(limb_rows(lo, hi, hibit)) {
            *hk = std::array::from_fn(|l| hk[l] + mk[l]);
        }
        let d = [
            dot(&h, [&r[0], &s[3], &s[2], &s[1], &s[0]]),
            dot(&h, [&r[1], &r[0], &s[3], &s[2], &s[1]]),
            dot(&h, [&r[2], &r[1], &r[0], &s[3], &s[2]]),
            dot(&h, [&r[3], &r[2], &r[1], &r[0], &s[3]]),
            dot(&h, [&r[4], &r[3], &r[2], &r[1], &r[0]]),
        ];
        let mut c = [0; L];
        for (hk, dk) in h.iter_mut().zip(d) {
            let t: Row<L> = std::array::from_fn(|l| dk[l] + c[l]);
            *hk = std::array::from_fn(|l| t[l] & M26);
            c = std::array::from_fn(|l| t[l] >> 26);
        }
        let h0: Row<L> = std::array::from_fn(|l| h[0][l] + 5 * c[l]);
        h[1] = std::array::from_fn(|l| h[1][l] + (h0[l] >> 26));
        h[0] = std::array::from_fn(|l| h0[l] & M26);
    }
    mac.h = h;
}

/// One lane's tag: its 26-bit limbs regrouped as 44/44/42 (unnormalized,
/// within the bounds [`finalize_limbs`] carries from: the limbs are below
/// 2^53, 2^61 and 2^43), then the scalar form's full reduction and pad.
fn finalize_lane(h: [u64; 5], pad: [u64; 2]) -> [u8; TAG_LEN] {
    let l0 = h[0] + (h[1] << 26);
    let l1 = (l0 >> 44) + (h[2] << 8) + (h[3] << 34);
    let l2 = (l1 >> 44) + (h[4] << 16);
    finalize_limbs([l0 & M44, l1 & M44, l2], pad)
}

/// The AVX2 compilation of the lane kernel. AVX2 is not part of the
/// x86-64 baseline, so this module is compiled on every x86-64 target but
/// its `#[target_feature(enable = "avx2")]` body is only ever entered when
/// the [`crate::isa`] dispatch tier is [`crate::isa::IsaTier::Avx2`]. That tier is
/// returned only when `is_x86_feature_detected!("avx2")` held at detection
/// (`DPS_FORCE_ISA` can pin a tier below the detected one, never above),
/// so the lone `unsafe` call below cannot execute an unsupported
/// instruction. The body is the safe [`absorb`]: no intrinsics, no
/// pointers, nothing but the feature set differs from the plain
/// compilation.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod avx2 {
    use super::Poly1305xN;
    use crate::isa::{self, IsaTier};

    #[target_feature(enable = "avx2")]
    fn absorb_avx2<const L: usize>(mac: &mut Poly1305xN<L>, msgs: [&[u8]; L], hibit: u64) {
        super::absorb(mac, msgs, hibit);
    }

    /// Runs the AVX2 compilation of [`super::absorb`] and returns true on
    /// the AVX2 tier; returns false, having done nothing, below it.
    #[allow(unsafe_code)]
    pub(super) fn absorb<const L: usize>(
        mac: &mut Poly1305xN<L>,
        msgs: [&[u8]; L],
        hibit: u64,
    ) -> bool {
        if isa::tier() != IsaTier::Avx2 {
            return false;
        }
        // SAFETY: the tier guard above: `isa::tier()` is `Avx2` only if the
        // CPU reported AVX2 at detection, the one feature `absorb_avx2`
        // enables.
        unsafe { absorb_avx2(mac, msgs, hibit) };
        true
    }
}

impl<const LANES: usize> Poly1305xN<LANES> {
    /// Initializes `LANES` authenticators from as many one-time keys.
    pub fn new(keys: [&[u8; KEY_LEN]; LANES]) -> Self {
        let r = keys.map(clamped_r);
        let r = limb_rows(r.map(|(lo, _)| lo), r.map(|(_, hi)| hi), 0);
        Self {
            r,
            r5: std::array::from_fn(|k| r[k + 1].map(|x| 5 * x)),
            pad: keys.map(|k| [le64(&k[16..24]), le64(&k[24..32])]),
            h: [[0; LANES]; 5],
            buf: [[0; 16]; LANES],
            buf_len: 0,
        }
    }

    /// Absorbs every 16-byte block of `msgs` (equal lengths, multiples of
    /// 16) through [`absorb`]: its AVX2 compilation on that tier, the plain
    /// one below it.
    fn blocks(&mut self, msgs: [&[u8]; LANES], hibit: u64) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if avx2::absorb(self, msgs, hibit) {
            return;
        }
        absorb(self, msgs, hibit);
    }

    /// Absorbs one equal-length slice into each lane.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn update(&mut self, msgs: [&[u8]; LANES]) {
        let len = msgs.first().map_or(0, |m| m.len());
        assert!(msgs.iter().all(|m| m.len() == len), "lanes must absorb equal lengths");
        let mut off = 0;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(len);
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[self.buf_len..self.buf_len + take].copy_from_slice(&msg[..take]);
            }
            self.buf_len += take;
            off = take;
            if self.buf_len == 16 {
                let blocks = self.buf;
                self.blocks(blocks.each_ref().map(|b| b.as_slice()), HIBIT26);
                self.buf_len = 0;
            }
        }
        let end = off + (len - off) / 16 * 16;
        if end > off {
            self.blocks(msgs.map(|m| &m[off..end]), HIBIT26);
        }
        if end < len {
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[..len - end].copy_from_slice(&msg[end..]);
            }
            self.buf_len = len - end;
        }
    }

    /// Pads every lane's absorbed length up to a 16-byte boundary with
    /// zeros (the AEAD's `pad16`; a no-op on aligned lengths).
    pub fn pad16(&mut self) {
        if self.buf_len > 0 {
            let zeros = [0u8; 16];
            let pad = 16 - self.buf_len;
            self.update([&zeros[..pad]; LANES]);
        }
    }

    /// Finalizes all lanes, returning their tags in lane order: the padded
    /// final block (if any) through the kernel, then the full reduction per
    /// lane.
    pub fn finalize(mut self) -> [[u8; TAG_LEN]; LANES] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zeros, hibit = 0.
            for buf in &mut self.buf {
                buf[self.buf_len] = 1;
                buf[self.buf_len + 1..].fill(0);
            }
            let blocks = self.buf;
            self.blocks(blocks.each_ref().map(|b| b.as_slice()), 0);
        }
        std::array::from_fn(|l| finalize_lane(self.h.map(|row| row[l]), self.pad[l]))
    }
}

/// Constant-time 16-byte tag comparison.
pub fn tags_equal(a: &[u8; TAG_LEN], b: &[u8; TAG_LEN]) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
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

    /// RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        let tag = poly1305(&key, msg);
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    /// RFC 8439 §A.3 test vector 1: all-zero key and message.
    #[test]
    fn rfc8439_a3_vector_1() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(poly1305(&key, &msg), [0u8; 16]);
    }

    /// RFC 8439 §A.3 test vector 2: r = 0, s = key stream; tag = last
    /// 16 bytes of the text processed... simplified: tag equals s when
    /// r = 0 regardless of the message? No — with r = 0 the accumulator
    /// stays 0 so the tag is exactly s.
    #[test]
    fn zero_r_gives_tag_s() {
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&hex("36e5f6b5c5e06070f0efca96227a863e"));
        let msg = b"Any submission to the IETF intended by the Contributor";
        assert_eq!(poly1305(&key, msg).to_vec(), hex("36e5f6b5c5e06070f0efca96227a863e"));
    }

    /// The RFC 8439 §A.3 vector 3 key: r from the vector, s = 0.
    fn a3_vector_3_key() -> [u8; 32] {
        let mut key = [0u8; 32];
        key[..16].copy_from_slice(&hex("36e5f6b5c5e06070f0efca96227a863e"));
        key
    }

    /// The RFC 8439 §A.3 vector 3 message.
    const A3_VECTOR_3_MSG: &[u8] = b"Any submission to the IETF intended by the Contributor for publication as all or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF sessions, as well as written and electronic communications made at any time or place, which are addressed to";

    /// RFC 8439 §A.3 test vector 3: s = 0, message of 0xFF exercising
    /// carry propagation.
    #[test]
    fn rfc8439_a3_vector_3() {
        let tag = poly1305(&a3_vector_3_key(), A3_VECTOR_3_MSG);
        assert_eq!(tag.to_vec(), hex("f3477e7cd95417af89a6b8794c310cf0"));
    }

    /// RFC 8439 §A.3 vector 10-ish: wraparound at 2^130 - 5. Message block
    /// 0xFFFF..FF with r = 2: (2^128 - 1 + 2^128)·2 mod p exercises the
    /// final-subtraction path.
    #[test]
    fn full_block_of_ones_with_tiny_r() {
        let mut key = [0u8; 32];
        key[0] = 2; // r = 2 (survives clamping)
        let msg = [0xffu8; 16];
        // h = (2^129 - 1)·2 mod (2^130 - 5) = 2^130 - 2 mod p = 3.
        let tag = poly1305(&key, &msg);
        let mut expected = [0u8; 16];
        expected[0] = 3;
        assert_eq!(tag, expected);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let msg: Vec<u8> = (0..217).map(|i| (i * 7 % 256) as u8).collect();
        let one_shot = poly1305(&key, &msg);
        for split in [0usize, 1, 15, 16, 17, 100, 216, 217] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), one_shot, "split at {split}");
        }
        // Byte-at-a-time.
        let mut p = Poly1305::new(&key);
        for b in &msg {
            p.update(std::slice::from_ref(b));
        }
        assert_eq!(p.finalize(), one_shot);
    }

    #[test]
    fn pad16_absorbs_to_boundary() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        // update(7 bytes) + pad16 == update(7 bytes ++ 9 zeros).
        let mut a = Poly1305::new(&key);
        a.update(&[1, 2, 3, 4, 5, 6, 7]);
        a.pad16();
        a.update(b"tail");
        let mut b = Poly1305::new(&key);
        b.update(&[1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        b.update(b"tail");
        assert_eq!(a.finalize(), b.finalize());
        // Already aligned: pad16 is a no-op.
        let mut c = Poly1305::new(&key);
        c.update(&[9u8; 32]);
        c.pad16();
        let mut d = Poly1305::new(&key);
        d.update(&[9u8; 32]);
        assert_eq!(c.finalize(), d.finalize());
    }

    #[test]
    fn different_messages_different_tags() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        assert_ne!(poly1305(&key, b"message one"), poly1305(&key, b"message two"));
    }

    /// Four lock-step lanes produce exactly the four scalar tags, across
    /// message lengths with and without trailing partial blocks.
    #[test]
    fn x4_matches_scalar() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 76, 100, 255, 256, 1024] {
            let keys: [[u8; 32]; 4] = std::array::from_fn(|l| {
                let mut k = [0u8; 32];
                for (i, b) in k.iter_mut().enumerate() {
                    *b = (l * 37 + i * 11 + 5) as u8;
                }
                k
            });
            let msgs: [Vec<u8>; 4] = std::array::from_fn(|l| {
                (0..len).map(|i| ((l + 1) * (i + 3) % 251) as u8).collect()
            });
            let mut mac = Poly1305x4::new([&keys[0], &keys[1], &keys[2], &keys[3]]);
            mac.update(std::array::from_fn(|l| msgs[l].as_slice()));
            let tags = mac.finalize();
            for l in 0..4 {
                assert_eq!(tags[l], poly1305(&keys[l], &msgs[l]), "lane {l}, len {len}");
            }
        }
    }

    /// Eight lock-step lanes produce exactly the eight scalar tags,
    /// across message lengths with and without trailing partial blocks.
    #[test]
    fn x8_matches_scalar() {
        for len in [0usize, 1, 15, 16, 17, 31, 33, 64, 76, 100, 255, 256, 1024] {
            let keys: [[u8; 32]; 8] = std::array::from_fn(|l| {
                let mut k = [0u8; 32];
                for (i, b) in k.iter_mut().enumerate() {
                    *b = (l * 41 + i * 13 + 9) as u8;
                }
                k
            });
            let msgs: [Vec<u8>; 8] = std::array::from_fn(|l| {
                (0..len).map(|i| ((l + 2) * (i + 5) % 251) as u8).collect()
            });
            let mut mac = Poly1305x8::new(std::array::from_fn(|l| &keys[l]));
            mac.update(std::array::from_fn(|l| msgs[l].as_slice()));
            let tags = mac.finalize();
            for l in 0..8 {
                assert_eq!(tags[l], poly1305(&keys[l], &msgs[l]), "lane {l}, len {len}");
            }
        }
    }

    /// Tags every lane's message with `Poly1305xN::<L>` and checks each
    /// lane against scalar [`poly1305`]; returns the lane tags.
    fn lanes_match_scalar<const L: usize>(
        keys: [&[u8; 32]; L],
        msgs: [&[u8]; L],
    ) -> [[u8; TAG_LEN]; L] {
        let mut mac = Poly1305xN::<L>::new(keys);
        mac.update(msgs);
        let tags = mac.finalize();
        for l in 0..L {
            assert_eq!(
                tags[l],
                poly1305(keys[l], msgs[l]),
                "lane {l} of {L}, len {}",
                msgs[l].len()
            );
        }
        tags
    }

    /// A key whose clamped `r` is the largest the clamp allows: every
    /// limb of `r` (and so of `5·r`) at its maximum.
    fn max_r_key(s: u8) -> [u8; 32] {
        let mut key = [0xffu8; 32];
        key[16..].fill(s);
        key
    }

    /// The largest limbs the lanes can meet: all-`0xff` messages up to
    /// 1024 B (every message limb at its maximum, the accumulator pushed to
    /// its carry bounds each block) under keys with maximal clamped `r`,
    /// in every lane of both widths. A limb at 2^32 reaching a 32-bit
    /// multiply, or a carry dropped at the 2^130 − 5 wrap, breaks the
    /// match (and debug builds trip [`mul32`]'s check first).
    #[test]
    fn lanes_survive_maximal_limbs() {
        let msg = [0xffu8; 1024];
        let keys: [[u8; 32]; 8] =
            std::array::from_fn(|l| max_r_key(if l % 2 == 0 { 0xff } else { 0 }));
        for len in [0usize, 1, 15, 16, 17, 63, 64, 231, 255, 256, 1000, 1024] {
            lanes_match_scalar::<8>(keys.each_ref(), [&msg[..len]; 8]);
            lanes_match_scalar::<4>(std::array::from_fn(|l| &keys[l]), [&msg[..len]; 4]);
        }
    }

    /// [`full_block_of_ones_with_tiny_r`] in every lane: the
    /// final-subtraction path must select `h − p` per lane.
    #[test]
    fn lanes_wrap_at_the_modulus() {
        let mut key = [0u8; 32];
        key[0] = 2;
        let mut expected = [0u8; 16];
        expected[0] = 3;
        let msg = [0xffu8; 16];
        assert_eq!(lanes_match_scalar::<8>([&key; 8], [&msg[..]; 8]), [expected; 8]);
        assert_eq!(lanes_match_scalar::<4>([&key; 4], [&msg[..]; 4]), [expected; 4]);
    }

    /// Lanes at opposite extremes side by side: lane 0 under the zero key,
    /// the last lane under maximal `r` and `s`, the rest between, all over
    /// all-`0xff` messages — no lane's carries may leak into another's.
    #[test]
    fn mixed_lanes_stay_independent() {
        let msg = [0xffu8; 1024];
        let keys: [[u8; 32]; 8] = std::array::from_fn(|l| match l {
            0 => [0u8; 32],
            7 => max_r_key(0xff),
            _ => std::array::from_fn(|i| (l * 59 + i * 17 + 3) as u8),
        });
        for len in [16usize, 100, 231, 1024] {
            lanes_match_scalar::<8>(keys.each_ref(), [&msg[..len]; 8]);
            let keys4 = [&keys[0], &keys[1], &keys[6], &keys[7]];
            lanes_match_scalar::<4>(keys4, [&msg[..len]; 4]);
        }
    }

    /// RFC 8439 §A.3 vector 3 through every lane of x8 and x4.
    #[test]
    fn rfc8439_a3_vector_3_through_lanes() {
        let key = a3_vector_3_key();
        let expected: [u8; 16] = hex("f3477e7cd95417af89a6b8794c310cf0").try_into().unwrap();
        let tags8 = lanes_match_scalar::<8>([&key; 8], [A3_VECTOR_3_MSG; 8]);
        let tags4 = lanes_match_scalar::<4>([&key; 4], [A3_VECTOR_3_MSG; 4]);
        assert_eq!(tags8, [expected; 8]);
        assert_eq!(tags4, [expected; 4]);
    }

    /// RFC 8439 §2.5.2 through the lanes: every lane of an x8 and of an x4
    /// run over the RFC message reproduces the published tag.
    #[test]
    fn rfc8439_vector_x8() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let msg: &[u8] = b"Cryptographic Forum Research Group";
        let expected: [u8; 16] = hex("a8061dc1305136c6c22b8baf0c0127a9").try_into().unwrap();
        assert_eq!(lanes_match_scalar::<8>([&key; 8], [msg; 8]), [expected; 8]);
        assert_eq!(lanes_match_scalar::<4>([&key; 4], [msg; 4]), [expected; 4]);
    }

    /// Split updates and pad16 agree with scalar split updates and pad16.
    #[test]
    fn x4_incremental_and_pad16_match_scalar() {
        let keys: [[u8; 32]; 4] =
            std::array::from_fn(|l| std::array::from_fn(|i| (l * 91 + i * 7 + 1) as u8));
        let msg_a: Vec<u8> = (0..23).map(|i| (i * 3) as u8).collect();
        let msg_b: Vec<u8> = (0..40).map(|i| (i * 5 + 1) as u8).collect();
        let mut mac = Poly1305x4::new([&keys[0], &keys[1], &keys[2], &keys[3]]);
        mac.update([&msg_a; 4]);
        mac.pad16();
        mac.update([&msg_b; 4]);
        let tags = mac.finalize();
        for (l, key) in keys.iter().enumerate() {
            let mut scalar = Poly1305::new(key);
            scalar.update(&msg_a);
            scalar.pad16();
            scalar.update(&msg_b);
            assert_eq!(tags[l], scalar.finalize(), "lane {l}");
        }
    }

    /// A batch of strided cells tagged in groups of 8, then 4, then one at
    /// a time — the grouping the batch ciphers use — equals a scalar
    /// per-cell loop, for every cell-count remainder class of both widths.
    #[test]
    fn batch_matches_scalar_loop() {
        fn tag_group<const L: usize>(keys: &[[u8; 32]], cells: &[&[u8]]) -> Vec<[u8; TAG_LEN]> {
            let mut mac = Poly1305xN::<L>::new(std::array::from_fn(|l| &keys[l]));
            mac.update(std::array::from_fn(|l| cells[l]));
            mac.finalize().to_vec()
        }
        for cells in [0usize, 1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 15, 16, 17] {
            for (stride, len) in [(80usize, 76usize), (48, 48), (20, 0), (33, 17)] {
                let keys: Vec<[u8; 32]> = (0..cells)
                    .map(|c| std::array::from_fn(|i| (c * 53 + i * 13 + 2) as u8))
                    .collect();
                let flat: Vec<u8> = (0..cells * stride).map(|i| (i * 7 % 251) as u8).collect();
                let msgs: Vec<&[u8]> =
                    (0..cells).map(|c| &flat[c * stride..c * stride + len]).collect();
                let mut tags = Vec::with_capacity(cells);
                let mut done = 0;
                while cells - done >= 8 {
                    tags.extend(tag_group::<8>(&keys[done..], &msgs[done..]));
                    done += 8;
                }
                while cells - done >= 4 {
                    tags.extend(tag_group::<4>(&keys[done..], &msgs[done..]));
                    done += 4;
                }
                tags.extend((done..cells).map(|c| poly1305(&keys[c], msgs[c])));
                for (i, key) in keys.iter().enumerate() {
                    let base = i * stride;
                    assert_eq!(
                        tags[i],
                        poly1305(key, &flat[base..base + len]),
                        "cell {i} of {cells}, stride {stride}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn x4_rejects_unequal_lane_lengths() {
        let key = [1u8; 32];
        let mut mac = Poly1305x4::new([&key; 4]);
        mac.update([&[1u8, 2][..], &[1u8][..], &[1u8, 2][..], &[1u8, 2][..]]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn x8_rejects_unequal_lane_lengths() {
        let key = [1u8; 32];
        let mut mac = Poly1305x8::new([&key; 8]);
        let mut msgs = [&[1u8, 2][..]; 8];
        msgs[5] = &[1u8][..];
        mac.update(msgs);
    }

    #[test]
    fn tags_equal_is_exact() {
        let a = [7u8; 16];
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[15] ^= 1;
        assert!(!tags_equal(&a, &b));
    }
}
