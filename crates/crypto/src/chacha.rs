//! The ChaCha20 stream cipher core (RFC 8439).
//!
//! This is the single primitive from which both the IND-CPA cipher
//! ([`crate::cipher`]) and the deterministic CSPRNG ([`crate::rng`]) are
//! built. The implementation follows RFC 8439 §2.3 exactly and is verified
//! against the RFC's test vectors.
//!
//! Three permutation cores share the RFC semantics and are selected at
//! runtime through the [`crate::isa`] dispatch table:
//!
//! * the scalar core ([`block`]) permutes one 64-byte block at a time;
//! * the **4-lane wide core** permutes 4 independent blocks per pass in a
//!   structure-of-arrays state (`[[u32; 4]; 16]`, word-major). On x86-64
//!   it runs as explicit SSE2 intrinsics (module `sse2`); everywhere else
//!   (and under `DPS_FORCE_ISA=portable`) a 4-lane pass is the scalar core
//!   once per lane, which measured faster than a lane-loop form of the
//!   wide core (NOTES.md entry 27) — no unstable SIMD APIs, no `unsafe`;
//! * the **8-lane wide core** (module `avx2`, `[[u32; 8]; 16]` over
//!   `__m256i`) doubles the lane width when `is_x86_feature_detected!("avx2")`
//!   reports AVX2 at runtime. On every other tier, an 8-lane group
//!   ([`blocks_each`]) decomposes into two byte-identical 4-lane passes,
//!   so the same code compiles and runs on aarch64 unchanged.
//!
//! The wide cores back [`xor_keystream`] (consecutive counters of one
//! stream) and [`xor_keystream_batch_strided`] (the blocks of many cells,
//! each under its own nonce, the shape batch re-encryption produces). Both
//! are one engine, which packs a call's (cell, block) pairs onto full
//! passes of the widest core, one counter and nonce per lane, so that only
//! a call's last pass runs with idle lanes. Every tier is byte-identical
//! to the scalar core: the lanes compute exactly the blocks the scalar
//! loop would, in the same positions — the cross-tier proptests (run once
//! per `DPS_FORCE_ISA` tier in CI) pin this.

use crate::isa::{self, IsaTier};

/// Size of a ChaCha20 key in bytes.
pub const KEY_LEN: usize = 32;
/// Size of a ChaCha20 nonce in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// A ChaCha20 nonce: the per-cell randomness unit a batch call takes
/// pre-drawn, so that the RNG stream is consumed in cell order whatever
/// the lane width.
pub type Nonce = [u8; NONCE_LEN];
/// Size of one keystream block in bytes.
pub const BLOCK_LEN: usize = 64;
/// The widest lane count any tier permutes per pass (the AVX2 8-lane
/// core). Batch calls walk their cells in groups of this many so a
/// full-width pass is never fragmented; narrower tiers split the same work
/// into 4-lane passes with byte-identical output.
pub const WIDE_LANES: usize = 8;
/// Lane count of the mid-tier (SSE2 / portable) wide core.
const LANES4: usize = 4;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Parses key and nonce into the 16-word initial state (counter word left
/// at 0).
#[inline(always)]
fn init_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    state[13..].copy_from_slice(&nonce_words(nonce));
    state
}

/// A nonce as state words 13–15.
#[inline(always)]
fn nonce_words(nonce: &[u8; NONCE_LEN]) -> [u32; 3] {
    std::array::from_fn(|i| {
        u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"))
    })
}

/// The 20 ChaCha rounds (RFC 8439 §2.3).
#[inline(always)]
fn permute(working: &mut [u32; 16]) {
    for _ in 0..10 {
        // Column rounds.
        quarter_round(working, 0, 4, 8, 12);
        quarter_round(working, 1, 5, 9, 13);
        quarter_round(working, 2, 6, 10, 14);
        quarter_round(working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(working, 0, 5, 10, 15);
        quarter_round(working, 1, 6, 11, 12);
        quarter_round(working, 2, 7, 8, 13);
        quarter_round(working, 3, 4, 9, 14);
    }
}

/// The keystream block of one initial state: permute, add the state back,
/// serialize little-endian.
#[inline(always)]
fn keystream_block(state: &[u32; 16]) -> [u8; BLOCK_LEN] {
    let mut working = *state;
    permute(&mut working);
    let mut out = [0u8; BLOCK_LEN];
    for (i, (word, s)) in working.iter().zip(state).enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.wrapping_add(*s).to_le_bytes());
    }
    out
}

/// A wide core's state: 16 state words × `L` blocks (structure-of-arrays,
/// word-major): `state[w][l]` is word `w` of lane `l`'s block.
type Wide4State = [[u32; LANES4]; 16];
/// The 8-lane twin of [`Wide4State`], consumed by the AVX2 core.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
type Wide8State = [[u32; WIDE_LANES]; 16];

/// Lane `l`'s own 16-word state out of a wide state.
#[inline(always)]
fn lane_state<const L: usize>(init: &[[u32; L]; 16], l: usize) -> [u32; 16] {
    std::array::from_fn(|w| init[w][l])
}

/// Where each lane of a wide pass XORs its keystream block: lane `l` at
/// `starts[l]`, `lens[l]` bytes (at most a block); a lane of length 0
/// idles.
#[derive(Clone, Copy)]
struct Lanes<const L: usize> {
    starts: [usize; L],
    lens: [usize; L],
}

impl<const L: usize> Lanes<L> {
    /// Lane `l` at `first + l * step`, `len` bytes each.
    #[inline(always)]
    fn stride(first: usize, step: usize, len: usize) -> Self {
        Lanes { starts: std::array::from_fn(|l| first + l * step), lens: [len; L] }
    }
}

/// SSE2 wide core: the x86-64 4-lane tier. SSE2 is part of the x86-64
/// baseline ABI (statically enabled on every rustc x86-64 target unless
/// explicitly disabled, which the `cfg` guard respects), so the lone
/// `unsafe` block below — required only because `#[target_feature]`
/// functions are formally unsafe to call — can never execute an
/// unsupported instruction. All intrinsics used are value operations
/// except the unaligned load/stores through pointers derived from
/// exclusively borrowed, length-checked slices.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{Lanes, Wide4State, BLOCK_LEN, LANES4};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_or_si128, _mm_set_epi32, _mm_slli_epi32,
        _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    #[target_feature(enable = "sse2")]
    #[inline]
    #[allow(unsafe_code)]
    fn load(w: &[u32; LANES4]) -> __m128i {
        // SAFETY: `w` is 16 valid bytes; `_mm_loadu_si128` has no
        // alignment requirement. One `movdqu` instead of a 4-way
        // insert chain — this runs 32 times per pass (state init +
        // feed-forward).
        unsafe { _mm_loadu_si128(w.as_ptr().cast::<__m128i>()) }
    }

    /// Permute + feed-forward + transpose, all in vector registers:
    /// returns `[lane][tile]`, where tile `t` holds lane words
    /// `4t..4t + 4` (16 contiguous keystream bytes).
    #[target_feature(enable = "sse2")]
    fn keystream_tiles(init: &Wide4State) -> [[__m128i; 4]; LANES4] {
        macro_rules! rotl {
            ($v:expr, $n:literal) => {
                _mm_or_si128(_mm_slli_epi32::<$n>($v), _mm_srli_epi32::<{ 32 - $n }>($v))
            };
        }
        let mut x: [__m128i; 16] = std::array::from_fn(|w| load(&init[w]));
        macro_rules! quarter {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 16);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 12);
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 8);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 7);
            };
        }
        for _ in 0..10 {
            // Column rounds.
            quarter!(0, 4, 8, 12);
            quarter!(1, 5, 9, 13);
            quarter!(2, 6, 10, 14);
            quarter!(3, 7, 11, 15);
            // Diagonal rounds.
            quarter!(0, 5, 10, 15);
            quarter!(1, 6, 11, 12);
            quarter!(2, 7, 8, 13);
            quarter!(3, 4, 9, 14);
        }
        for w in 0..16 {
            x[w] = _mm_add_epi32(x[w], load(&init[w]));
        }
        let mut out = [[_mm_set_epi32(0, 0, 0, 0); 4]; LANES4];
        for tile in 0..4 {
            let [r0, r1, r2, r3] = [x[4 * tile], x[4 * tile + 1], x[4 * tile + 2], x[4 * tile + 3]];
            let t0 = _mm_unpacklo_epi32(r0, r1);
            let t1 = _mm_unpackhi_epi32(r0, r1);
            let t2 = _mm_unpacklo_epi32(r2, r3);
            let t3 = _mm_unpackhi_epi32(r2, r3);
            out[0][tile] = _mm_unpacklo_epi64(t0, t2);
            out[1][tile] = _mm_unpackhi_epi64(t0, t2);
            out[2][tile] = _mm_unpacklo_epi64(t1, t3);
            out[3][tile] = _mm_unpackhi_epi64(t1, t3);
        }
        out
    }

    #[target_feature(enable = "sse2")]
    #[allow(unsafe_code)]
    fn wide_core_impl(init: &Wide4State, out: &mut [[u32; 16]; LANES4]) {
        let tiles = keystream_tiles(init);
        for (lane_words, lane_tiles) in out.iter_mut().zip(&tiles) {
            for (tile, &v) in lane_tiles.iter().enumerate() {
                // SAFETY: `lane_words[4 * tile..4 * tile + 4]` is 16
                // valid, exclusively borrowed bytes; `_mm_storeu_si128`
                // has no alignment requirement.
                unsafe {
                    _mm_storeu_si128(lane_words[4 * tile..].as_mut_ptr().cast::<__m128i>(), v);
                }
            }
        }
    }

    #[target_feature(enable = "sse2")]
    fn xor_at_impl(init: &Wide4State, flat: &mut [u8], lanes: &Lanes<LANES4>) {
        let tiles = keystream_tiles(init);
        xor_tiles(&tiles, flat, lanes);
    }

    /// XORs lane `l`'s keystream block `tiles[l]` where `lanes` puts it:
    /// a full block in registers, a shorter one through a stack copy.
    #[target_feature(enable = "sse2")]
    #[inline]
    #[allow(unsafe_code)]
    fn xor_tiles(tiles: &[[__m128i; 4]; LANES4], flat: &mut [u8], lanes: &Lanes<LANES4>) {
        for (l, lane_tiles) in tiles.iter().enumerate() {
            let chunk = &mut flat[lanes.starts[l]..][..lanes.lens[l]];
            if chunk.len() == BLOCK_LEN {
                for (tile, &v) in lane_tiles.iter().enumerate() {
                    let sub = &mut chunk[16 * tile..16 * tile + 16];
                    // SAFETY: `sub` is 16 valid, exclusively borrowed
                    // bytes; the unaligned load/store intrinsics have no
                    // alignment requirement.
                    unsafe {
                        let ptr = sub.as_mut_ptr().cast::<__m128i>();
                        _mm_storeu_si128(ptr, _mm_xor_si128(_mm_loadu_si128(ptr), v));
                    }
                }
            } else if !chunk.is_empty() {
                let mut ks = [0u8; BLOCK_LEN];
                for (tile, &v) in lane_tiles.iter().enumerate() {
                    let sub = &mut ks[16 * tile..16 * tile + 16];
                    // SAFETY: as above, for the 16 bytes of `sub`.
                    unsafe { _mm_storeu_si128(sub.as_mut_ptr().cast::<__m128i>(), v) };
                }
                super::xor_bytes(chunk, &ks);
            }
        }
    }

    #[allow(unsafe_code)]
    pub(super) fn wide_core(init: &Wide4State, out: &mut [[u32; 16]; LANES4]) {
        // SAFETY: guarded by `cfg(target_feature = "sse2")` above, so the
        // required feature is statically enabled for this compilation.
        unsafe { wide_core_impl(init, out) }
    }

    /// XORs each lane's keystream block where `lanes` puts it.
    #[allow(unsafe_code)]
    pub(super) fn xor_at(init: &Wide4State, flat: &mut [u8], lanes: &Lanes<LANES4>) {
        // SAFETY: as for `wide_core` — sse2 is statically enabled here.
        unsafe { xor_at_impl(init, flat, lanes) }
    }
}

/// AVX2 wide core: the x86-64 8-lane tier. Unlike [`sse2`], AVX2 is *not*
/// part of the baseline ABI, so this module is compiled on every x86-64
/// target but only ever *entered* when the [`crate::isa`] dispatch tier
/// is [`IsaTier::Avx2`] — and the public wrappers re-assert
/// `is_x86_feature_detected!("avx2")` (a cached atomic load) before the
/// lone `unsafe` call into each `#[target_feature(enable = "avx2")]`
/// body, so an unsupported instruction can never execute regardless of
/// caller discipline. The 16/12/8/7-bit rotates use `vpshufb`
/// byte-shuffles where a shuffle beats shift+shift+or (16 and 8), the
/// standard AVX2 ChaCha20 formulation. All remaining intrinsics are value
/// operations except the unaligned load/stores through pointers derived
/// from exclusively borrowed, length-checked slices.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod avx2 {
    use super::{Lanes, Wide8State, BLOCK_LEN, WIDE_LANES};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_or_si256, _mm256_permute2x128_si256,
        _mm256_set_epi8, _mm256_shuffle_epi8, _mm256_slli_epi32, _mm256_srli_epi32,
        _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpackhi_epi64, _mm256_unpacklo_epi32,
        _mm256_unpacklo_epi64, _mm256_xor_si256,
    };

    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    fn load(w: &[u32; WIDE_LANES]) -> __m256i {
        // SAFETY: `w` is 32 valid bytes; `_mm256_loadu_si256` has no
        // alignment requirement. One `vmovdqu` instead of an 8-way
        // insert chain — this runs 32 times per pass (state init +
        // feed-forward).
        unsafe { _mm256_loadu_si256(w.as_ptr().cast::<__m256i>()) }
    }

    /// `vpshufb` mask rotating each 32-bit element left by 16 bits
    /// (per-dword byte order [2,3,0,1]; same pattern in both 128-bit
    /// halves, as `_mm256_shuffle_epi8` shuffles them independently).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rot16_mask() -> __m256i {
        _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, // upper half
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, // lower half
        )
    }

    /// `vpshufb` mask rotating each 32-bit element left by 8 bits
    /// (per-dword byte order [3,0,1,2]).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn rot8_mask() -> __m256i {
        _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, // upper half
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, // lower half
        )
    }

    /// Transposes 8 word-rows (each holding one state word for lanes
    /// 0..8) into 8 lane-rows of 8 consecutive words, entirely in
    /// registers: 32-bit unpacks, 64-bit unpacks, then cross-half
    /// permutes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose8(r: [__m256i; 8]) -> [__m256i; 8] {
        let a0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let a1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let a2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let a3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let a4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let a5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let a6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let a7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let b0 = _mm256_unpacklo_epi64(a0, a2);
        let b1 = _mm256_unpackhi_epi64(a0, a2);
        let b2 = _mm256_unpacklo_epi64(a1, a3);
        let b3 = _mm256_unpackhi_epi64(a1, a3);
        let b4 = _mm256_unpacklo_epi64(a4, a6);
        let b5 = _mm256_unpackhi_epi64(a4, a6);
        let b6 = _mm256_unpacklo_epi64(a5, a7);
        let b7 = _mm256_unpackhi_epi64(a5, a7);
        [
            _mm256_permute2x128_si256::<0x20>(b0, b4),
            _mm256_permute2x128_si256::<0x20>(b1, b5),
            _mm256_permute2x128_si256::<0x20>(b2, b6),
            _mm256_permute2x128_si256::<0x20>(b3, b7),
            _mm256_permute2x128_si256::<0x31>(b0, b4),
            _mm256_permute2x128_si256::<0x31>(b1, b5),
            _mm256_permute2x128_si256::<0x31>(b2, b6),
            _mm256_permute2x128_si256::<0x31>(b3, b7),
        ]
    }

    /// Permute + feed-forward + transpose, all in vector registers:
    /// returns `[lane][half]`, where half `h` holds lane words
    /// `8h..8h + 8` (32 contiguous keystream bytes).
    #[target_feature(enable = "avx2")]
    fn keystream_tiles(init: &Wide8State) -> [[__m256i; 2]; WIDE_LANES] {
        let r16 = rot16_mask();
        let r8 = rot8_mask();
        let mut x: [__m256i; 16] = std::array::from_fn(|w| load(&init[w]));
        macro_rules! rotl {
            ($v:expr, $n:literal) => {
                _mm256_or_si256(_mm256_slli_epi32::<$n>($v), _mm256_srli_epi32::<{ 32 - $n }>($v))
            };
        }
        macro_rules! quarter {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), r16);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm256_xor_si256(x[$b], x[$c]), 12);
                x[$a] = _mm256_add_epi32(x[$a], x[$b]);
                x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), r8);
                x[$c] = _mm256_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm256_xor_si256(x[$b], x[$c]), 7);
            };
        }
        for _ in 0..10 {
            // Column rounds.
            quarter!(0, 4, 8, 12);
            quarter!(1, 5, 9, 13);
            quarter!(2, 6, 10, 14);
            quarter!(3, 7, 11, 15);
            // Diagonal rounds.
            quarter!(0, 5, 10, 15);
            quarter!(1, 6, 11, 12);
            quarter!(2, 7, 8, 13);
            quarter!(3, 4, 9, 14);
        }
        for w in 0..16 {
            x[w] = _mm256_add_epi32(x[w], load(&init[w]));
        }
        let lo = transpose8([x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]]);
        let hi = transpose8([x[8], x[9], x[10], x[11], x[12], x[13], x[14], x[15]]);
        std::array::from_fn(|l| [lo[l], hi[l]])
    }

    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    fn wide_core_impl(init: &Wide8State, out: &mut [[u32; 16]; WIDE_LANES]) {
        let tiles = keystream_tiles(init);
        for (lane_words, lane_tiles) in out.iter_mut().zip(&tiles) {
            for (half, &v) in lane_tiles.iter().enumerate() {
                // SAFETY: `lane_words[8 * half..8 * half + 8]` is 32
                // valid, exclusively borrowed bytes; `_mm256_storeu_si256`
                // has no alignment requirement.
                unsafe {
                    _mm256_storeu_si256(lane_words[8 * half..].as_mut_ptr().cast::<__m256i>(), v);
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn xor_at_impl(init: &Wide8State, flat: &mut [u8], lanes: &Lanes<WIDE_LANES>) {
        let tiles = keystream_tiles(init);
        xor_tiles(&tiles, flat, lanes);
    }

    /// XORs lane `l`'s keystream block `tiles[l]` where `lanes` puts it:
    /// a full block in registers, a shorter one through a stack copy.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(unsafe_code)]
    fn xor_tiles(tiles: &[[__m256i; 2]; WIDE_LANES], flat: &mut [u8], lanes: &Lanes<WIDE_LANES>) {
        for (l, lane_tiles) in tiles.iter().enumerate() {
            let chunk = &mut flat[lanes.starts[l]..][..lanes.lens[l]];
            if chunk.len() == BLOCK_LEN {
                for (half, &v) in lane_tiles.iter().enumerate() {
                    let sub = &mut chunk[32 * half..32 * half + 32];
                    // SAFETY: `sub` is 32 valid, exclusively borrowed
                    // bytes; the unaligned load/store intrinsics have no
                    // alignment requirement.
                    unsafe {
                        let ptr = sub.as_mut_ptr().cast::<__m256i>();
                        _mm256_storeu_si256(ptr, _mm256_xor_si256(_mm256_loadu_si256(ptr), v));
                    }
                }
            } else if !chunk.is_empty() {
                let mut ks = [0u8; BLOCK_LEN];
                for (half, &v) in lane_tiles.iter().enumerate() {
                    let sub = &mut ks[32 * half..32 * half + 32];
                    // SAFETY: as above, for the 32 bytes of `sub`.
                    unsafe { _mm256_storeu_si256(sub.as_mut_ptr().cast::<__m256i>(), v) };
                }
                super::xor_bytes(chunk, &ks);
            }
        }
    }

    /// Runtime guard shared by the public wrappers: proves to the
    /// `unsafe` call sites that every instruction the AVX2 bodies may
    /// use is supported. `is_x86_feature_detected!` caches its CPUID
    /// result, so this is one relaxed atomic load per pass.
    fn assert_avx2() {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "chacha::avx2 entered on a CPU without AVX2 (dispatch bug)"
        );
    }

    /// Permutes 8 interleaved blocks into lane-major keystream words.
    #[allow(unsafe_code)]
    pub(super) fn wide_core(init: &Wide8State, out: &mut [[u32; 16]; WIDE_LANES]) {
        assert_avx2();
        // SAFETY: `assert_avx2` above verified AVX2 support at runtime.
        unsafe { wide_core_impl(init, out) }
    }

    /// XORs each lane's keystream block where `lanes` puts it, keeping a
    /// full block in vector registers end to end (permute, feed-forward,
    /// transpose, XOR).
    #[allow(unsafe_code)]
    pub(super) fn xor_at(init: &Wide8State, flat: &mut [u8], lanes: &Lanes<WIDE_LANES>) {
        assert_avx2();
        // SAFETY: `assert_avx2` above verified AVX2 support at runtime.
        unsafe { xor_at_impl(init, flat, lanes) }
    }
}

/// Builds a wide initial state: constants and key splatted across the
/// lanes, per-lane counters in word 12, per-lane nonces in words 13–15.
#[inline]
fn wide_init<const L: usize>(
    key: &[u8; KEY_LEN],
    counters: &[u32; L],
    nonces: &[&[u8; NONCE_LEN]; L],
) -> [[u32; L]; 16] {
    let mut init = [[0u32; L]; 16];
    for (w, c) in CONSTANTS.iter().enumerate() {
        init[w] = [*c; L];
    }
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        init[4 + i] = [word; L];
    }
    init[12] = *counters;
    for (l, nonce) in nonces.iter().enumerate() {
        for (i, word) in nonce_words(nonce).into_iter().enumerate() {
            init[13 + i][l] = word;
        }
    }
    init
}

/// The portable tier's wide pass: each live lane's block on the scalar
/// core ([`keystream_block`]), XORed where `lanes` puts it; an idle lane
/// costs nothing.
fn portable_xor_at<const L: usize>(init: &[[u32; L]; 16], flat: &mut [u8], lanes: &Lanes<L>) {
    for l in 0..L {
        if lanes.lens[l] > 0 {
            let chunk = &mut flat[lanes.starts[l]..][..lanes.lens[l]];
            xor_bytes(chunk, &keystream_block(&lane_state(init, l)));
        }
    }
}

/// One 4-lane pass of [`xor_keystream_cells`]: SSE2 intrinsics at
/// [`IsaTier::Sse2`] and above, otherwise the scalar core lane by lane.
#[inline]
fn wide4_xor_at(tier: IsaTier, init: &Wide4State, flat: &mut [u8], lanes: &Lanes<LANES4>) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier >= IsaTier::Sse2 {
        sse2::xor_at(init, flat, lanes);
        return;
    }
    let _ = tier; // portable fallback (non-x86 targets / forced tier)
    portable_xor_at(init, flat, lanes);
}

/// Serializes lane-major keystream words to little-endian blocks.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn serialize_blocks<const L: usize>(words: &[[u32; 16]; L]) -> [[u8; BLOCK_LEN]; L] {
    let mut out = [[0u8; BLOCK_LEN]; L];
    for (lane, lane_words) in out.iter_mut().zip(words) {
        for (i, word) in lane_words.iter().enumerate() {
            lane[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
    }
    out
}

/// Computes 4 keystream blocks in one interleaved pass: output `l` is
/// [`block`]`(key, counters[l], nonces[l])`. One 4-lane group of the
/// batch one-time-key derivation ([`blocks_each`]).
fn blocks4(
    key: &[u8; KEY_LEN],
    counters: &[u32; 4],
    nonces: &[&[u8; NONCE_LEN]; 4],
) -> [[u8; BLOCK_LEN]; 4] {
    let init = wide_init(key, counters, nonces);
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if isa::tier() >= IsaTier::Sse2 {
        let mut words = [[0u32; 16]; LANES4];
        sse2::wide_core(&init, &mut words);
        return serialize_blocks(&words);
    }
    std::array::from_fn(|l| keystream_block(&lane_state(&init, l)))
}

/// Computes [`WIDE_LANES`] = 8 keystream blocks: output `l` is
/// [`block`]`(key, counters[l], nonces[l])`. On the AVX2 tier this is one
/// 8-lane pass; on every other tier it decomposes into two byte-identical
/// 4-lane passes, so [`blocks_each`] can group by 8 unconditionally.
fn blocks8(
    key: &[u8; KEY_LEN],
    counters: &[u32; WIDE_LANES],
    nonces: &[&[u8; NONCE_LEN]; WIDE_LANES],
) -> [[u8; BLOCK_LEN]; WIDE_LANES] {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if isa::tier() == IsaTier::Avx2 {
        let init = wide_init(key, counters, nonces);
        let mut words = [[0u32; 16]; WIDE_LANES];
        avx2::wide_core(&init, &mut words);
        return serialize_blocks(&words);
    }
    let mut out = [[0u8; BLOCK_LEN]; WIDE_LANES];
    for half in 0..2 {
        let c: [u32; LANES4] = std::array::from_fn(|l| counters[LANES4 * half + l]);
        let n: [&[u8; NONCE_LEN]; LANES4] = std::array::from_fn(|l| nonces[LANES4 * half + l]);
        out[LANES4 * half..LANES4 * (half + 1)].copy_from_slice(&blocks4(key, &c, &n));
    }
    out
}

/// Computes one keystream block per (counter, nonce) pair: `out[i]` is
/// [`block`]`(key, counters[i], nonces[i])` for any pair count,
/// decomposed into 8-lane passes (one AVX2 pass, or two 4-lane passes
/// below that tier), a 4-lane pass, and a scalar tail. This is the shape
/// the batch tag paths use to derive one Poly1305 one-time key per cell.
///
/// # Panics
/// Panics if `counters`, `nonces` and `out` differ in length.
pub fn blocks_each(
    key: &[u8; KEY_LEN],
    counters: &[u32],
    nonces: &[&[u8; NONCE_LEN]],
    out: &mut [[u8; BLOCK_LEN]],
) {
    assert_eq!(counters.len(), nonces.len(), "one counter per nonce");
    assert_eq!(out.len(), nonces.len(), "one output block per nonce");
    let mut i = 0;
    while i + WIDE_LANES <= nonces.len() {
        let c: [u32; WIDE_LANES] = counters[i..i + WIDE_LANES].try_into().expect("8 counters");
        let n: [&[u8; NONCE_LEN]; WIDE_LANES] = std::array::from_fn(|l| nonces[i + l]);
        out[i..i + WIDE_LANES].copy_from_slice(&blocks8(key, &c, &n));
        i += WIDE_LANES;
    }
    while i + LANES4 <= nonces.len() {
        let c: [u32; LANES4] = counters[i..i + LANES4].try_into().expect("4 counters");
        let n: [&[u8; NONCE_LEN]; LANES4] = std::array::from_fn(|l| nonces[i + l]);
        out[i..i + LANES4].copy_from_slice(&blocks4(key, &c, &n));
        i += LANES4;
    }
    for j in i..nonces.len() {
        out[j] = block(key, counters[j], nonces[j]);
    }
}

/// XORs `data` (at most one block) with the leading bytes of `ks`, eight
/// bytes at a time, then byte by byte for the last `data.len() % 8`.
#[inline(always)]
fn xor_bytes(data: &mut [u8], ks: &[u8; BLOCK_LEN]) {
    let words = data.len() / 8 * 8;
    let (head, tail) = data.split_at_mut(words);
    for (d, k) in head.chunks_exact_mut(8).zip(ks.chunks_exact(8)) {
        let x = u64::from_le_bytes((&*d).try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(k.try_into().expect("8 bytes"));
        d.copy_from_slice(&x.to_le_bytes());
    }
    for (d, k) in tail.iter_mut().zip(&ks[words..]) {
        *d ^= k;
    }
}

/// Computes one 64-byte ChaCha20 keystream block for the given key, block
/// counter and nonce (RFC 8439 §2.3).
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let mut state = init_state(key, nonce);
    state[12] = counter;
    keystream_block(&state)
}

/// XORs `data` in place with the ChaCha20 keystream starting at block
/// `counter`. This is both encryption and decryption (RFC 8439 §2.4).
///
/// The one-cell case of the engine behind [`xor_keystream_batch_strided`]:
/// its blocks go through the widest core the tier has, 8 or 4 consecutive
/// counters per pass; the last 3 to 7 blocks take one more pass with idle
/// lanes (on the AVX2 tier a 4-lane one for 3 or 4), and the last one or
/// two, or a stream of at most two blocks, run on the scalar core. Output
/// is byte-identical for every length on every tier.
pub fn xor_keystream(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    let len = data.len();
    xor_keystream_cells(key, counter, 1, |_| nonce, data, len, 0, len);
}

/// XORs one equal-length region of many cells with per-cell keystreams in
/// one call: cell `i` occupies `flat[i * stride..(i + 1) * stride]`, and
/// its region `[offset, offset + len)` is XORed with the keystream of
/// (`key`, `counter`, `nonces[i]`) — exactly what a [`xor_keystream`] loop
/// over the cells would do, byte for byte.
///
/// This is the batch re-encryption fast path: the batch's keystream
/// blocks are packed onto full passes of the widest core, whatever the
/// cell count and length, so ten cells of four blocks take five 8-lane
/// passes.
///
/// # Panics
/// Panics if `flat.len() != nonces.len() * stride` or
/// `offset + len > stride`.
pub fn xor_keystream_batch_strided(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonces: &[Nonce],
    flat: &mut [u8],
    stride: usize,
    offset: usize,
    len: usize,
) {
    xor_keystream_cells(key, counter, nonces.len(), |i| &nonces[i], flat, stride, offset, len);
}

/// At most this many blocks left over after the wide passes run on the
/// scalar core: one wide pass costs about as much as two scalar blocks
/// (NOTES.md entries 24 and 27).
const SCALAR_BLOCKS: usize = 2;

/// [`xor_keystream_batch_strided`] over `cells` cells whose nonces
/// `nonce(i)` hands out, so that a caller can read them where they lie
/// (the batch open reads them from the sealed cells).
///
/// Block `j` of cell `i` is keystream block `counter + j` of `nonce(i)`,
/// XORed into `flat[i * stride + offset + 64 j..]`: a full block except
/// for each cell's sub-block tail, which is XORed eight bytes at a time.
/// These (cell, block) pairs go onto passes of the widest core the tier
/// has, 8 lanes on the AVX2 tier and 4 below it ([`Batch::wide_passes`]),
/// so that only the batch's last pass or two run short: on the AVX2 tier
/// a last pass of at most four blocks is a 4-lane one, and at most
/// [`SCALAR_BLOCKS`] blocks left run on the scalar core.
///
/// # Panics
/// Panics if `flat.len() != cells * stride` or `offset + len > stride`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn xor_keystream_cells<'n>(
    key: &[u8; KEY_LEN],
    counter: u32,
    cells: usize,
    nonce: impl Fn(usize) -> &'n Nonce,
    flat: &mut [u8],
    stride: usize,
    offset: usize,
    len: usize,
) {
    assert_eq!(flat.len(), cells * stride, "flat must hold one stride per nonce");
    assert!(offset + len <= stride, "cell region must fit its stride");
    if len == 0 || cells == 0 {
        return;
    }
    let batch =
        Batch { key, counter, nonce, cells, stride, offset, len, blocks: len.div_ceil(BLOCK_LEN) };
    let tier = isa::tier();
    let narrow = |init: &Wide4State, flat: &mut [u8], lanes: &Lanes<LANES4>| {
        wide4_xor_at(tier, init, flat, lanes)
    };
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier == IsaTier::Avx2 {
        return batch.wide_passes::<WIDE_LANES>(flat, avx2::xor_at, narrow);
    }
    batch.wide_passes::<LANES4>(flat, narrow, narrow);
}

/// The shape of a [`xor_keystream_cells`] call.
struct Batch<'k, F> {
    key: &'k [u8; KEY_LEN],
    counter: u32,
    /// Cell `i`'s nonce.
    nonce: F,
    cells: usize,
    stride: usize,
    offset: usize,
    len: usize,
    /// Keystream blocks per cell.
    blocks: usize,
}

impl<'n, F: Fn(usize) -> &'n Nonce> Batch<'_, F> {
    /// Where block `j` of `cell` is XORed: its start in `flat` and its
    /// length (a full block but for the cell's tail).
    #[inline(always)]
    fn target(&self, cell: usize, j: usize) -> (usize, usize) {
        let done = j * BLOCK_LEN;
        (cell * self.stride + self.offset + done, (self.len - done).min(BLOCK_LEN))
    }

    /// Runs the batch on `pass`, one `L`-lane pass of the wide core, and
    /// `narrow`, one 4-lane pass, then the scalar core. Three kinds of
    /// pass, so that the regular shapes rewrite only what differs between
    /// their passes:
    ///
    /// 1. each whole group of `L` cells, one pass per block index: block
    ///    `j` of every cell of the group (the group's nonces set once, the
    ///    counter word splatted per pass);
    /// 2. each remaining cell's whole stripes of `L` consecutive full
    ///    blocks (its nonce splatted once) — a long single stream is all
    ///    stripes;
    /// 3. the blocks left after that, fewer than `L` per remaining cell,
    ///    in cell order, each lane with its own counter and nonce: `L` to
    ///    a pass while more than `L / 2` are left, then 4 to a pass while
    ///    more than [`SCALAR_BLOCKS`] are; a last pass runs with idle
    ///    lanes (length 0).
    ///
    /// Ten cells of four blocks take four passes of the first kind and one
    /// of the third; one cell of 219 bytes takes one 4-lane pass.
    #[inline(always)]
    fn wide_passes<const L: usize>(
        &self,
        flat: &mut [u8],
        mut pass: impl FnMut(&[[u32; L]; 16], &mut [u8], &Lanes<L>),
        narrow: impl FnMut(&Wide4State, &mut [u8], &Lanes<LANES4>),
    ) {
        let grouped = self.cells / L * L;
        let striped = self.len / BLOCK_LEN / L * L;
        let mut rest = (grouped..self.cells)
            .flat_map(move |cell| (striped..self.blocks).map(move |j| (cell, j)));
        let mut left = (self.cells - grouped) * (self.blocks - striped);
        if grouped + striped > 0 {
            let mut init = wide_init(self.key, &[self.counter; L], &[&[0; NONCE_LEN]; L]);
            for first in (0..grouped).step_by(L) {
                for l in 0..L {
                    self.set_nonce(&mut init, l, first + l);
                }
                for j in 0..self.blocks {
                    init[12] = [self.counter.wrapping_add(j as u32); L];
                    let (first, len) = self.target(first, j);
                    pass(&init, flat, &Lanes::stride(first, self.stride, len));
                }
            }
            for cell in (grouped..self.cells).filter(|_| striped > 0) {
                let words = nonce_words((self.nonce)(cell));
                for (w, word) in words.into_iter().enumerate() {
                    init[13 + w] = [word; L];
                }
                for j in (0..striped).step_by(L) {
                    init[12] = std::array::from_fn(|l| self.counter.wrapping_add((j + l) as u32));
                    let (first, len) = self.target(cell, j);
                    pass(&init, flat, &Lanes::stride(first, BLOCK_LEN, len));
                }
            }
        }
        self.packed(flat, &mut rest, &mut left, (L / 2).max(SCALAR_BLOCKS), pass);
        self.packed(flat, &mut rest, &mut left, SCALAR_BLOCKS, narrow);
        if left > 0 {
            let mut state = init_state(self.key, &[0; NONCE_LEN]);
            for (cell, j) in rest {
                state[12] = self.counter.wrapping_add(j as u32);
                state[13..].copy_from_slice(&nonce_words((self.nonce)(cell)));
                let (start, len) = self.target(cell, j);
                xor_bytes(&mut flat[start..][..len], &keystream_block(&state));
            }
        }
    }

    /// Passes of the third kind: while more than `until` of the `left`
    /// pairs of `rest` are left, each lane of a `pass` takes the next one.
    #[inline(always)]
    fn packed<const L: usize>(
        &self,
        flat: &mut [u8],
        rest: &mut impl Iterator<Item = (usize, usize)>,
        left: &mut usize,
        until: usize,
        mut pass: impl FnMut(&[[u32; L]; 16], &mut [u8], &Lanes<L>),
    ) {
        if *left <= until {
            return;
        }
        let mut init = wide_init(self.key, &[self.counter; L], &[&[0; NONCE_LEN]; L]);
        // The nonce words of the last cell parsed: consecutive lanes mostly
        // share a cell.
        let mut parsed = (usize::MAX, [0; 3]);
        while *left > until {
            let (mut starts, mut lens) = ([0; L], [0; L]);
            for l in 0..L.min(*left) {
                let (cell, j) = rest.next().expect("pairs left");
                if parsed.0 != cell {
                    parsed = (cell, nonce_words((self.nonce)(cell)));
                }
                init[12][l] = self.counter.wrapping_add(j as u32);
                for (w, word) in parsed.1.into_iter().enumerate() {
                    init[13 + w][l] = word;
                }
                (starts[l], lens[l]) = self.target(cell, j);
            }
            *left -= L.min(*left);
            pass(&init, flat, &Lanes { starts, lens });
        }
    }

    /// Sets lane `l`'s nonce words to `cell`'s nonce.
    #[inline(always)]
    fn set_nonce<const L: usize>(&self, init: &mut [[u32; L]; 16], l: usize, cell: usize) {
        for (w, word) in nonce_words((self.nonce)(cell)).into_iter().enumerate() {
            init[13 + w][l] = word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8439 §2.3.2: ChaCha20 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("000000090000004a00000000").try_into().unwrap();
        let expected = hex("10f1e7e4d13b5915500fdd1fa32071c4 c7d1f4c733c068030422aa9ac3d46c4e
             d2826446079faa0914c2d705d98b02a2 b5129cd1de164eb9cbd083e8a2503c4e");
        assert_eq!(block(&key, 1, &nonce).to_vec(), expected);
    }

    /// RFC 8439 §2.4.2: ChaCha20 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        xor_keystream(&key, 1, &nonce, &mut data);
        let expected = hex("6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42 874d");
        assert_eq!(data, expected);
    }

    /// Round-trip: XORing twice with the same keystream restores the input.
    #[test]
    fn keystream_round_trip() {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let original: Vec<u8> = (0..=255).collect();
        let mut data = original.clone();
        xor_keystream(&key, 0, &nonce, &mut data);
        assert_ne!(data, original);
        xor_keystream(&key, 0, &nonce, &mut data);
        assert_eq!(data, original);
    }

    /// Distinct counters produce distinct keystream blocks.
    #[test]
    fn counter_separates_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        assert_ne!(block(&key, 0, &nonce), block(&key, 1, &nonce));
    }

    /// Distinct nonces produce distinct keystream blocks.
    #[test]
    fn nonce_separates_blocks() {
        let key = [1u8; 32];
        assert_ne!(block(&key, 0, &[0u8; 12]), block(&key, 0, &[1u8; 12]));
    }

    /// An asymmetric per-lane test state: every word of every lane
    /// differs, so transpose bugs cannot cancel.
    fn asymmetric_init<const L: usize>() -> [[u32; L]; 16] {
        let mut init = [[0u32; L]; 16];
        for (w, row) in init.iter_mut().enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                *v = (w as u32).wrapping_mul(0x9e37_79b9) ^ (l as u32) << 13;
            }
        }
        init
    }

    /// The scalar core's block in every lane of `init`: the oracle the
    /// wide cores are pinned against.
    fn scalar_lanes<const L: usize>(init: &[[u32; L]; 16]) -> [[u8; BLOCK_LEN]; L] {
        std::array::from_fn(|l| keystream_block(&lane_state(init, l)))
    }

    /// Runs one `L`-lane XOR pass over zeros, each lane at its own start
    /// and length (full, partial, one byte, idle). Checks that lane `l`'s
    /// bytes are the first bytes of `expected[l]` and nothing else was
    /// touched.
    fn check_xor_at<const L: usize>(
        init: &[[u32; L]; 16],
        expected: &[[u8; BLOCK_LEN]; L],
        pass: impl Fn(&[[u32; L]; 16], &mut [u8], &Lanes<L>),
    ) {
        let lens: [usize; L] = std::array::from_fn(|l| [64, 27, 0, 64, 1, 63, 8, 64][l % 8]);
        let starts: [usize; L] = std::array::from_fn(|l| 80 * l + l % 3);
        let mut flat = vec![0u8; 80 * L];
        pass(init, &mut flat, &Lanes { starts, lens });
        let mut want = vec![0u8; 80 * L];
        for (l, block) in expected.iter().enumerate() {
            want[starts[l]..][..lens[l]].copy_from_slice(&block[..lens[l]]);
        }
        assert_eq!(flat, want, "{L} lanes");
    }

    /// The 4-lane passes of the running tier — SSE2 intrinsics, or the
    /// scalar core lane by lane on the portable tier — compute the scalar
    /// core's block in every lane of an asymmetric state, as words and
    /// XORed in place.
    #[test]
    fn wide_cores_agree() {
        let init: Wide4State = asymmetric_init();
        let expected = scalar_lanes(&init);
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        {
            let mut dispatched = [[0u32; 16]; LANES4];
            sse2::wide_core(&init, &mut dispatched);
            assert_eq!(serialize_blocks(&dispatched), expected);
        }
        check_xor_at(&init, &expected, |init, flat, lanes| {
            wide4_xor_at(isa::tier(), init, flat, lanes)
        });
        check_xor_at(&init, &expected, portable_xor_at);
    }

    /// The AVX2 core computes the scalar core's block in every lane of an
    /// asymmetric 8-lane state, as words and XORed in place (skipped where
    /// the CPU lacks AVX2; the portable pass still runs).
    #[test]
    fn wide8_cores_agree() {
        let init: [[u32; WIDE_LANES]; 16] = asymmetric_init();
        let expected = scalar_lanes(&init);
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut dispatched = [[0u32; 16]; WIDE_LANES];
            avx2::wide_core(&init, &mut dispatched);
            assert_eq!(serialize_blocks(&dispatched), expected);
            check_xor_at(&init, &expected, avx2::xor_at);
        }
        check_xor_at(&init, &expected, portable_xor_at);
    }

    /// RFC 8439 §2.3.2 through the wide cores: every lane of [`blocks4`]
    /// and [`blocks8`] reproduces the published block when fed the
    /// vector's inputs, and mixed-lane calls agree with the scalar core
    /// lane by lane.
    #[test]
    fn rfc8439_block_vector_wide_lanes() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("000000090000004a00000000").try_into().unwrap();
        let expected = block(&key, 1, &nonce);
        let all4 = blocks4(&key, &[1; 4], &[&nonce; 4]);
        for (l, lane) in all4.iter().enumerate() {
            assert_eq!(lane, &expected, "blocks4 lane {l}");
        }
        let all8 = blocks8(&key, &[1; WIDE_LANES], &[&nonce; WIDE_LANES]);
        for (l, lane) in all8.iter().enumerate() {
            assert_eq!(lane, &expected, "blocks8 lane {l}");
        }
        // Mixed counters and nonces: each lane must match its scalar twin.
        let other_nonce = [7u8; 12];
        let counters = [0u32, 1, u32::MAX, 5];
        let nonces = [&nonce, &other_nonce, &nonce, &other_nonce];
        let mixed = blocks4(&key, &counters, &nonces);
        for l in 0..4 {
            assert_eq!(mixed[l], block(&key, counters[l], nonces[l]), "lane {l}");
        }
        let counters8 = [0u32, 1, u32::MAX, 5, 2, u32::MAX - 1, 9, 1 << 30];
        let nonces8 = [
            &nonce,
            &other_nonce,
            &nonce,
            &other_nonce,
            &other_nonce,
            &nonce,
            &other_nonce,
            &nonce,
        ];
        let mixed8 = blocks8(&key, &counters8, &nonces8);
        for l in 0..WIDE_LANES {
            assert_eq!(mixed8[l], block(&key, counters8[l], nonces8[l]), "lane {l}");
        }
    }

    /// [`blocks_each`] equals a scalar [`block`] loop for every count,
    /// covering the 8-lane groups, the 4-lane group and the scalar tail.
    #[test]
    fn blocks_each_matches_scalar_loop() {
        let key = [0x21u8; 32];
        for count in 0..=20usize {
            let nonce_bufs: Vec<Nonce> = (0..count)
                .map(|i| {
                    let mut n = [0u8; NONCE_LEN];
                    n[0] = i as u8;
                    n[7] = 0x30 | i as u8;
                    n
                })
                .collect();
            let nonces: Vec<&Nonce> = nonce_bufs.iter().collect();
            let counters: Vec<u32> = (0..count).map(|i| i as u32 * 3).collect();
            let mut out = vec![[0u8; BLOCK_LEN]; count];
            blocks_each(&key, &counters, &nonces, &mut out);
            for i in 0..count {
                assert_eq!(out[i], block(&key, counters[i], nonces[i]), "count {count} lane {i}");
            }
        }
    }

    /// RFC 8439 §2.4.2 through the wide batch path: eight cells each
    /// holding the RFC plaintext, encrypted per-cell at counter 1 under
    /// the RFC nonce, must all equal the published ciphertext.
    #[test]
    fn rfc8439_encrypt_vector_wide_batch() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expected = {
            let mut data = plaintext.to_vec();
            xor_keystream(&key, 1, &nonce, &mut data);
            data
        };
        let stride = plaintext.len();
        let cells = WIDE_LANES;
        let mut flat: Vec<u8> = plaintext.iter().copied().cycle().take(cells * stride).collect();
        xor_keystream_batch_strided(&key, 1, &[nonce; WIDE_LANES], &mut flat, stride, 0, stride);
        for (l, cell) in flat.chunks(stride).enumerate() {
            assert_eq!(cell, expected.as_slice(), "cell {l}");
        }
    }

    /// The wide multi-block fast path agrees with a scalar per-block
    /// reference at every length from 0 to 600 bytes: empty, sub-block,
    /// the scalar one- or two-block path, a last pass with idle lanes
    /// after zero, one or two full passes, and every block boundary
    /// between them.
    #[test]
    fn wide_keystream_matches_scalar_reference() {
        let key = [0x42u8; 32];
        let nonce = [9u8; 12];
        for len in (0usize..=600).chain([767, 960, 1024]) {
            let original: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut data = original.clone();
            xor_keystream(&key, 7, &nonce, &mut data);
            // Scalar reference: XOR block-by-block via `block`.
            let mut expected = original.clone();
            for (j, chunk) in expected.chunks_mut(BLOCK_LEN).enumerate() {
                let ks = block(&key, 7 + j as u32, &nonce);
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            assert_eq!(data, expected, "len {len}");
        }
    }

    /// Counter wraparound behaves identically on the wide and scalar
    /// paths, through full passes and through both ways a stream ends:
    /// starting at `u32::MAX - 1`, a 2-block stream wraps between two
    /// scalar blocks, and a 3- or 4-block (or partial) one inside its one
    /// pass with idle lanes.
    #[test]
    fn wide_keystream_counter_wraps() {
        let key = [3u8; 32];
        let nonce = [1u8; 12];
        for len in [6 * BLOCK_LEN, 13 * BLOCK_LEN, 65, 100, 128, 150, 192, 255, 2 * 256 + 129] {
            let mut wide = vec![0u8; len];
            xor_keystream(&key, u32::MAX - 1, &nonce, &mut wide);
            let mut scalar = vec![0u8; len];
            for (j, chunk) in scalar.chunks_mut(BLOCK_LEN).enumerate() {
                let ks = block(&key, (u32::MAX - 1).wrapping_add(j as u32), &nonce);
                chunk.copy_from_slice(&ks[..chunk.len()]);
            }
            assert_eq!(wide, scalar, "len {len}");
        }
    }

    /// The strided batch path equals a per-cell loop for every cell count
    /// (covering all remainders mod 8 and mod 4) and offset/length
    /// combination.
    #[test]
    fn batch_strided_matches_per_cell_loop() {
        let key = [0x5au8; 32];
        for cells in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17] {
            for (stride, offset, len) in [
                (80usize, 12usize, 64usize),
                (48, 0, 48),
                (100, 12, 77),
                (300, 12, 280),
                (600, 20, 513),
                (16, 4, 0),
            ] {
                let nonces: Vec<Nonce> = (0..cells)
                    .map(|i| {
                        let mut n = [0u8; NONCE_LEN];
                        n[0] = i as u8;
                        n[5] = 0xA0 | i as u8;
                        n
                    })
                    .collect();
                let original: Vec<u8> = (0..cells * stride).map(|i| (i * 13 % 251) as u8).collect();
                let mut batch = original.clone();
                xor_keystream_batch_strided(&key, 1, &nonces, &mut batch, stride, offset, len);
                let mut expected = original.clone();
                for (i, nonce) in nonces.iter().enumerate() {
                    let base = i * stride + offset;
                    xor_keystream(&key, 1, nonce, &mut expected[base..base + len]);
                }
                assert_eq!(
                    batch, expected,
                    "cells {cells} stride {stride} offset {offset} len {len}"
                );
            }
        }
    }
}
