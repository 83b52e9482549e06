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
//!   (and under `DPS_FORCE_ISA=portable`) as plain lane loops — no
//!   unstable SIMD APIs, no `unsafe`;
//! * the **8-lane wide core** (module `avx2`, `[[u32; 8]; 16]` over
//!   `__m256i`) doubles the lane width when `is_x86_feature_detected!("avx2")`
//!   reports AVX2 at runtime. On every other tier, an 8-lane group
//!   ([`blocks_each`]) decomposes into two byte-identical 4-lane passes,
//!   so the same code compiles and runs on aarch64 unchanged.
//!
//! The wide cores back [`xor_keystream`] (consecutive counters of one
//! stream, 8 or 4 per pass) and [`xor_keystream_batch_strided`] (one block
//! each of 8 or 4 *different* nonce streams, the shape batch re-encryption
//! of short cells produces). Every tier is byte-identical to the scalar
//! core: the lanes compute exactly the blocks the scalar loop would, in
//! the same positions — the cross-tier proptests (run once per
//! `DPS_FORCE_ISA` tier in CI) pin this.

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
/// at 0); shared by [`block`] and [`xor_keystream`] so multi-block calls
/// parse the inputs once.
#[inline(always)]
fn init_state(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        state[4 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for (i, chunk) in nonce.chunks_exact(4).enumerate() {
        state[13 + i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    state
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

/// A wide core's state: 16 state words × `L` blocks (structure-of-arrays,
/// word-major): `state[w][l]` is word `w` of lane `l`'s block.
type Wide4State = [[u32; LANES4]; 16];
/// The 8-lane twin of [`Wide4State`], consumed by the AVX2 core.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
type Wide8State = [[u32; WIDE_LANES]; 16];

/// Portable wide core, generic over the lane count: permutes `L`
/// interleaved blocks and returns the feed-forward sum
/// `permute(init) + init`, word-major.
///
/// Each quarter-round is one loop over the lanes whose body is that
/// lane's eight steps. This form is the fallback for every other target
/// (and for `DPS_FORCE_ISA=portable`), and the cross-check oracle the
/// `wide_cores_agree` tests pin the intrinsic paths against. On x86-64
/// the [`sse2`] / [`avx2`] twins — explicit intrinsics, same arithmetic —
/// stay dispatched because they win: a lane-innermost safe body was
/// 4–20 % slower than them on the batch and keystream paths at both
/// tiers, and rustc 1.95's LLVM keeps this one scalar, a `rol` per lane
/// per rotate (NOTES.md, entry 17).
fn wide_core_portable<const L: usize>(init: &[[u32; L]; 16]) -> [[u32; L]; 16] {
    #[inline(always)]
    // One lane index walks four rows of `x` at once.
    #[allow(clippy::needless_range_loop)]
    fn quarter<const L: usize>(x: &mut [[u32; L]; 16], a: usize, b: usize, c: usize, d: usize) {
        for l in 0..L {
            x[a][l] = x[a][l].wrapping_add(x[b][l]);
            x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
            x[c][l] = x[c][l].wrapping_add(x[d][l]);
            x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
            x[a][l] = x[a][l].wrapping_add(x[b][l]);
            x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
            x[c][l] = x[c][l].wrapping_add(x[d][l]);
            x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
        }
    }

    let mut x = *init;
    for _ in 0..10 {
        // Column rounds.
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (row, start) in x.iter_mut().zip(init) {
        for (word, s) in row.iter_mut().zip(start) {
            *word = word.wrapping_add(*s);
        }
    }
    x
}

/// Transposes a word-major feed-forward sum (as the portable core returns
/// it) into lane-major keystream words.
fn lane_major<const L: usize>(summed: &[[u32; L]; 16]) -> [[u32; 16]; L] {
    let mut out = [[0u32; 16]; L];
    for (w, row) in summed.iter().enumerate() {
        for (l, lane) in out.iter_mut().enumerate() {
            lane[w] = row[l];
        }
    }
    out
}

/// SSE2 wide core: the x86-64 4-lane tier. SSE2 is part of the x86-64
/// baseline ABI (statically enabled on every rustc x86-64 target unless
/// explicitly disabled, which the `cfg` guard respects), so the lone
/// `unsafe` block below — required only because `#[target_feature]`
/// functions are formally unsafe to call — can never execute an
/// unsupported instruction. All intrinsics used are value operations
/// (no pointers), stable since Rust 1.27.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{Wide4State, LANES4};
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
        for (lane_words, lane_tiles) in out.iter_mut().zip(tiles) {
            for (tile, v) in lane_tiles.into_iter().enumerate() {
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
    #[allow(unsafe_code)]
    fn xor_lanes_impl(init: &Wide4State, lanes: [&mut [u8]; LANES4]) {
        let tiles = keystream_tiles(init);
        for (lane, lane_tiles) in lanes.into_iter().zip(tiles) {
            assert_eq!(lane.len(), super::BLOCK_LEN, "lane must be one full block");
            for (tile, v) in lane_tiles.into_iter().enumerate() {
                let chunk = &mut lane[16 * tile..16 * tile + 16];
                // SAFETY: `chunk` is 16 valid, exclusively borrowed bytes;
                // the unaligned load/store intrinsics have no alignment
                // requirement.
                unsafe {
                    let ptr = chunk.as_mut_ptr().cast::<__m128i>();
                    _mm_storeu_si128(ptr, _mm_xor_si128(_mm_loadu_si128(ptr), v));
                }
            }
        }
    }

    #[allow(unsafe_code)]
    pub(super) fn wide_core(init: &Wide4State, out: &mut [[u32; 16]; LANES4]) {
        // SAFETY: guarded by `cfg(target_feature = "sse2")` above, so the
        // required feature is statically enabled for this compilation.
        unsafe { wide_core_impl(init, out) }
    }

    #[allow(unsafe_code)]
    pub(super) fn xor_lanes(init: &Wide4State, lanes: [&mut [u8]; LANES4]) {
        // SAFETY: as for `wide_core` — sse2 is statically enabled here.
        unsafe { xor_lanes_impl(init, lanes) }
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
    use super::{Wide8State, BLOCK_LEN, WIDE_LANES};
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
        for (lane_words, lane_tiles) in out.iter_mut().zip(tiles) {
            for (half, v) in lane_tiles.into_iter().enumerate() {
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
    #[allow(unsafe_code)]
    fn xor_stripes_impl(init: &Wide8State, flat: &mut [u8], first: usize, stride: usize) {
        debug_assert!(stride >= BLOCK_LEN, "lanes must not overlap");
        let tiles = keystream_tiles(init);
        for (lane, lane_tiles) in tiles.into_iter().enumerate() {
            let chunk = &mut flat[first + lane * stride..][..BLOCK_LEN];
            for (half, v) in lane_tiles.into_iter().enumerate() {
                let sub = &mut chunk[32 * half..32 * half + 32];
                // SAFETY: `sub` is 32 valid, exclusively borrowed bytes;
                // the unaligned load/store intrinsics have no alignment
                // requirement.
                unsafe {
                    let ptr = sub.as_mut_ptr().cast::<__m256i>();
                    _mm256_storeu_si256(ptr, _mm256_xor_si256(_mm256_loadu_si256(ptr), v));
                }
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

    /// XORs lane `l`'s keystream block into the 64-byte region at
    /// `flat[first + l * stride..]`, keeping the data in vector
    /// registers end to end (permute, feed-forward, transpose, XOR).
    #[allow(unsafe_code)]
    pub(super) fn xor_stripes(init: &Wide8State, flat: &mut [u8], first: usize, stride: usize) {
        assert_avx2();
        // SAFETY: `assert_avx2` above verified AVX2 support at runtime.
        unsafe { xor_stripes_impl(init, flat, first, stride) }
    }
}

/// Builds a wide initial state: constants and key splatted across the
/// lanes, per-lane counters in word 12, per-lane nonces in words 13–15.
/// Batch loops build this once and only rewrite word 12 between passes.
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
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            init[13 + i][l] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
    }
    init
}

/// Permutes the 4 interleaved blocks of `init` and returns the keystream
/// as lane-major `u32` words (feed-forward included), dispatching on the
/// resolved tier: SSE2 intrinsics at [`IsaTier::Sse2`] and above,
/// otherwise the portable core.
#[inline]
fn wide4_words_from_init(tier: IsaTier, init: &Wide4State) -> [[u32; 16]; LANES4] {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier >= IsaTier::Sse2 {
        let mut out = [[0u32; 16]; LANES4];
        sse2::wide_core(init, &mut out);
        return out;
    }
    let _ = tier; // portable fallback (non-x86 targets / forced tier)
    lane_major(&wide_core_portable(init))
}

/// XORs each lane's 64-byte keystream block straight into `lanes[l]`
/// (which must be exactly [`BLOCK_LEN`] bytes). On the SSE2 tier the data
/// rides vector registers end to end: permute, feed-forward, transpose,
/// XOR.
#[inline]
fn wide4_xor_lanes(tier: IsaTier, init: &Wide4State, lanes: [&mut [u8]; LANES4]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier >= IsaTier::Sse2 {
        sse2::xor_lanes(init, lanes);
        return;
    }
    let _ = tier; // portable fallback (non-x86 targets / forced tier)
    let words = lane_major(&wide_core_portable(init));
    for (lane, lane_words) in lanes.into_iter().zip(&words) {
        xor_full_block(lane, lane_words);
    }
}

/// Reborrows 4 equal-length disjoint regions of `flat`, starting at
/// `first` and separated by `stride` bytes (`len <= stride`).
#[inline]
fn lanes_mut(flat: &mut [u8], first: usize, stride: usize, len: usize) -> [&mut [u8]; LANES4] {
    let (_, tail) = flat.split_at_mut(first);
    let (c0, tail) = tail.split_at_mut(stride);
    let (c1, tail) = tail.split_at_mut(stride);
    let (c2, tail) = tail.split_at_mut(stride);
    [&mut c0[..len], &mut c1[..len], &mut c2[..len], &mut tail[..len]]
}

/// Runs the 4-lane wide core once: lane `l` computes the keystream block
/// for (`counters[l]`, `nonces[l]`) under `key`. Returns the keystream as
/// lane-major `u32` words (lane `l`, word `w` — already including the
/// final feed-forward addition), ready to XOR or serialize.
#[inline]
fn wide4_keystream_words(
    tier: IsaTier,
    key: &[u8; KEY_LEN],
    counters: &[u32; LANES4],
    nonces: &[&[u8; NONCE_LEN]; LANES4],
) -> [[u32; 16]; LANES4] {
    wide4_words_from_init(tier, &wide_init(key, counters, nonces))
}

/// Serializes lane-major keystream words to little-endian blocks.
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
    let tier = isa::tier();
    serialize_blocks(&wide4_keystream_words(tier, key, counters, nonces))
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
    let tier = isa::tier();
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier == IsaTier::Avx2 {
        let init = wide_init(key, counters, nonces);
        let mut words = [[0u32; 16]; WIDE_LANES];
        avx2::wide_core(&init, &mut words);
        return serialize_blocks(&words);
    }
    let mut out = [[0u8; BLOCK_LEN]; WIDE_LANES];
    for half in 0..2 {
        let c: [u32; LANES4] = std::array::from_fn(|l| counters[LANES4 * half + l]);
        let n: [&[u8; NONCE_LEN]; LANES4] = std::array::from_fn(|l| nonces[LANES4 * half + l]);
        let blocks = serialize_blocks(&wide4_keystream_words(tier, key, &c, &n));
        out[LANES4 * half..LANES4 * (half + 1)].copy_from_slice(&blocks);
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

/// XORs one full 64-byte block with precomputed keystream words.
#[inline(always)]
fn xor_full_block(chunk: &mut [u8], words: &[u32; 16]) {
    for (i, word) in words.iter().enumerate() {
        let lane = &mut chunk[4 * i..4 * i + 4];
        let mixed = u32::from_le_bytes(lane.try_into().expect("4-byte lane")) ^ word;
        lane.copy_from_slice(&mixed.to_le_bytes());
    }
}

/// XORs a sub-block tail with precomputed keystream words.
#[inline(always)]
fn xor_partial_block(tail: &mut [u8], words: &[u32; 16]) {
    for (i, byte) in tail.iter_mut().enumerate() {
        *byte ^= words[i / 4].to_le_bytes()[i % 4];
    }
}

/// Computes one 64-byte ChaCha20 keystream block for the given key, block
/// counter and nonce (RFC 8439 §2.3).
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let mut state = init_state(key, nonce);
    state[12] = counter;
    let mut working = state;
    permute(&mut working);

    let mut out = [0u8; BLOCK_LEN];
    for (i, word) in working.iter().enumerate() {
        let sum = word.wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&sum.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream starting at block
/// `counter`. This is both encryption and decryption (RFC 8439 §2.4).
///
/// Fast paths, widest first: on the AVX2 tier, runs of 8 full blocks go
/// through the 8-lane core (8 consecutive counters permuted per pass);
/// runs of 4 full blocks go through the 4-lane core; the 1–3 block
/// remainder keeps the scalar single-parse path, and only a sub-block
/// tail falls back to byte granularity. Output is byte-identical for
/// every length on every tier.
pub fn xor_keystream(
    key: &[u8; KEY_LEN],
    mut counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    let tier = isa::tier();
    let mut rest: &mut [u8] = data;
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier == IsaTier::Avx2 {
        let stripe = WIDE_LANES * BLOCK_LEN;
        let full = rest.len() / stripe * stripe;
        if full > 0 {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(full);
            rest = tail;
            // Parse key and nonce into the wide state once; only the
            // counter word changes between passes.
            let mut init = wide_init(key, &[0; WIDE_LANES], &[nonce; WIDE_LANES]);
            for chunk in head.chunks_exact_mut(stripe) {
                init[12] = std::array::from_fn(|l| counter.wrapping_add(l as u32));
                avx2::xor_stripes(&init, chunk, 0, BLOCK_LEN);
                counter = counter.wrapping_add(WIDE_LANES as u32);
            }
        }
    }
    let mut quads = rest.chunks_exact_mut(LANES4 * BLOCK_LEN);
    if quads.len() > 0 {
        let mut init = wide_init(key, &[0; LANES4], &[nonce; LANES4]);
        for quad in &mut quads {
            init[12] = [
                counter,
                counter.wrapping_add(1),
                counter.wrapping_add(2),
                counter.wrapping_add(3),
            ];
            wide4_xor_lanes(tier, &init, lanes_mut(quad, 0, BLOCK_LEN, BLOCK_LEN));
            counter = counter.wrapping_add(LANES4 as u32);
        }
    }
    let rest = quads.into_remainder();
    if rest.is_empty() {
        return;
    }
    let mut state = init_state(key, nonce);
    let mut chunks = rest.chunks_exact_mut(BLOCK_LEN);
    for chunk in &mut chunks {
        state[12] = counter;
        let mut working = state;
        permute(&mut working);
        for (i, word) in working.iter().enumerate() {
            let ks = word.wrapping_add(state[i]);
            let lane = &mut chunk[4 * i..4 * i + 4];
            let mixed = u32::from_le_bytes(lane.try_into().expect("4-byte lane")) ^ ks;
            lane.copy_from_slice(&mixed.to_le_bytes());
        }
        counter = counter.wrapping_add(1);
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        state[12] = counter;
        let mut working = state;
        permute(&mut working);
        for (i, byte) in tail.iter_mut().enumerate() {
            let ks = working[i / 4].wrapping_add(state[i / 4]);
            *byte ^= ks.to_le_bytes()[i % 4];
        }
    }
}

/// XORs one equal-length region of many cells with per-cell keystreams in
/// one call: cell `i` occupies `flat[i * stride..(i + 1) * stride]`, and
/// its region `[offset, offset + len)` is XORed with the keystream of
/// (`key`, `counter`, `nonces[i]`) — exactly what a [`xor_keystream`] loop
/// over the cells would do, byte for byte.
///
/// This is the batch re-encryption fast path: when `len` is shorter than
/// the active tier's full stripe (8 or 4 blocks), that many *different*
/// cells' keystreams are permuted per pass (same block index, one nonce
/// per lane), so short-cell batches vectorize as well as long streams.
/// Longer cells instead use the intra-cell wide path of
/// [`xor_keystream`], which is equally wide. Group remainders step down
/// 8 → 4 → scalar, so every cell count vectorizes as far as it can.
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
    assert_eq!(flat.len(), nonces.len() * stride, "flat must hold one stride per nonce");
    assert!(offset + len <= stride, "cell region must fit its stride");
    if len == 0 || nonces.is_empty() {
        return;
    }
    let tier = isa::tier();
    let group_lanes = if tier == IsaTier::Avx2 { WIDE_LANES } else { LANES4 };
    if len >= group_lanes * BLOCK_LEN {
        // Long cells: each cell's own keystream already fills the widest
        // core the tier offers.
        for (i, nonce) in nonces.iter().enumerate() {
            let base = i * stride + offset;
            xor_keystream(key, counter, nonce, &mut flat[base..base + len]);
        }
        return;
    }
    let full_blocks = len / BLOCK_LEN;
    let tail = len % BLOCK_LEN;
    let mut cell = 0;
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    if tier == IsaTier::Avx2 {
        while cell + WIDE_LANES <= nonces.len() {
            let lane_nonces: [&Nonce; WIDE_LANES] = std::array::from_fn(|l| &nonces[cell + l]);
            // One state parse per 8-cell group; only the counter word
            // changes between block indices.
            let mut init = wide_init(key, &[counter; WIDE_LANES], &lane_nonces);
            for j in 0..full_blocks {
                init[12] = [counter.wrapping_add(j as u32); WIDE_LANES];
                let first = cell * stride + offset + j * BLOCK_LEN;
                avx2::xor_stripes(&init, flat, first, stride);
            }
            if tail > 0 {
                init[12] = [counter.wrapping_add(full_blocks as u32); WIDE_LANES];
                let mut words = [[0u32; 16]; WIDE_LANES];
                avx2::wide_core(&init, &mut words);
                for (l, lane_words) in words.iter().enumerate() {
                    let base = (cell + l) * stride + offset + full_blocks * BLOCK_LEN;
                    xor_partial_block(&mut flat[base..base + tail], lane_words);
                }
            }
            cell += WIDE_LANES;
        }
    }
    while cell + LANES4 <= nonces.len() {
        let lane_nonces = [&nonces[cell], &nonces[cell + 1], &nonces[cell + 2], &nonces[cell + 3]];
        // One state parse per 4-cell group; only the counter word changes
        // between block indices.
        let mut init = wide_init(key, &[counter; LANES4], &lane_nonces);
        for j in 0..full_blocks {
            init[12] = [counter.wrapping_add(j as u32); LANES4];
            let first = cell * stride + offset + j * BLOCK_LEN;
            wide4_xor_lanes(tier, &init, lanes_mut(flat, first, stride, BLOCK_LEN));
        }
        if tail > 0 {
            init[12] = [counter.wrapping_add(full_blocks as u32); LANES4];
            let words = wide4_words_from_init(tier, &init);
            for (l, lane_words) in words.iter().enumerate() {
                let base = (cell + l) * stride + offset + full_blocks * BLOCK_LEN;
                xor_partial_block(&mut flat[base..base + tail], lane_words);
            }
        }
        cell += LANES4;
    }
    for (i, nonce) in nonces.iter().enumerate().skip(cell) {
        let base = i * stride + offset;
        xor_keystream(key, counter, nonce, &mut flat[base..base + len]);
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

    /// The portable and SSE2 4-lane cores compute identical feed-forward
    /// sums for asymmetric per-lane states.
    #[test]
    fn wide_cores_agree() {
        let init: Wide4State = asymmetric_init();
        let portable_lane_major = lane_major(&wide_core_portable(&init));
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        {
            let mut dispatched = [[0u32; 16]; LANES4];
            sse2::wide_core(&init, &mut dispatched);
            assert_eq!(portable_lane_major, dispatched);
        }
        // Sanity even where only the portable core exists: the sum differs
        // from the raw input (the permutation actually ran).
        assert_ne!(portable_lane_major[0][0], init[0][0]);
    }

    /// The portable 8-lane and AVX2 cores compute identical feed-forward
    /// sums for asymmetric per-lane states (skipped where the CPU lacks
    /// AVX2; the portable side still runs as a compile check).
    #[test]
    fn wide8_cores_agree() {
        let init: [[u32; WIDE_LANES]; 16] = asymmetric_init();
        let portable_lane_major = lane_major(&wide_core_portable(&init));
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut dispatched = [[0u32; 16]; WIDE_LANES];
            avx2::wide_core(&init, &mut dispatched);
            assert_eq!(portable_lane_major, dispatched);
        }
        assert_ne!(portable_lane_major[0][0], init[0][0]);
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
    /// reference across every length class (empty, sub-block, block
    /// boundaries, 4- and 8-block stripe boundaries, long).
    #[test]
    fn wide_keystream_matches_scalar_reference() {
        let key = [0x42u8; 32];
        let nonce = [9u8; 12];
        for len in
            [0usize, 1, 63, 64, 65, 127, 128, 255, 256, 257, 320, 511, 512, 513, 767, 960, 1024]
        {
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
    /// paths, through both the 8- and 4-block stripe stages.
    #[test]
    fn wide_keystream_counter_wraps() {
        let key = [3u8; 32];
        let nonce = [1u8; 12];
        for blocks in [6usize, 13] {
            let mut wide = vec![0u8; blocks * BLOCK_LEN];
            xor_keystream(&key, u32::MAX - 1, &nonce, &mut wide);
            let mut scalar = vec![0u8; blocks * BLOCK_LEN];
            for (j, chunk) in scalar.chunks_mut(BLOCK_LEN).enumerate() {
                let ks = block(&key, (u32::MAX - 1).wrapping_add(j as u32), &nonce);
                chunk.copy_from_slice(&ks);
            }
            assert_eq!(wide, scalar, "blocks {blocks}");
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
