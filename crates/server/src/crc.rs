//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), the checksum of
//! every WAL header, WAL record and metadata snapshot ([`crate::wal`]).
//! Implemented here because the workspace deliberately has no external
//! dependencies.
//!
//! Two bodies compute the same function, so the on-disk format does not
//! depend on which one ran:
//!
//! - **slicing-by-8** — eight table lookups per 8-byte word; compiles and
//!   runs everywhere, and hashes every part shorter than 64 bytes and
//!   every tail shorter than 16;
//! - **carry-less folding** (module `clmul`) — four 128-bit accumulators
//!   folded forward 64 bytes at a time with `PCLMULQDQ`, reduced to one,
//!   then to 32 bits by a Barrett reduction (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel, 2009). About fourteen times the table's throughput on a
//!   4.9 KB WAL record (NOTES.md, entry 19).
//!
//! The fold runs on the [`IsaTier::Avx2`] dispatch tier of
//! [`dps_crypto::isa`] when the CPU also reports `pclmulqdq` and `sse4.1`;
//! `DPS_FORCE_ISA=sse2` or `portable` pins the table, which is how one
//! machine tests both. Non-x86 targets compile the table only.
//!
//! # Safety audit
//!
//! One `unsafe` block: the call into the `#[target_feature(enable =
//! "pclmulqdq,sse4.1")]` body. The guard in front of it — the dispatch
//! tier is `Avx2` (which [`dps_crypto::isa`] resolves only after detecting
//! AVX2, and an override can only lower) and `is_x86_feature_detected!`
//! reports both enabled features — is the whole argument: the body is safe
//! code that reads its input through slice indexing, so nothing but the
//! instruction set differs from a safe function.
//!
//! [`IsaTier::Avx2`]: dps_crypto::isa::IsaTier::Avx2

/// Table 0 is the classic byte-at-a-time table; table `k` maps byte `b` to
/// the CRC of `b` followed by `k` zero bytes, which lets eight input bytes
/// be folded with eight independent lookups instead of a chain of eight.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 (IEEE) over the concatenation of `parts`, without materialising
/// the concatenation.
pub(crate) fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        if part.len() >= clmul::FOLD_MIN {
            if let Some(folded) = clmul::update(c, part) {
                c = folded;
                continue;
            }
        }
        c = update_table(c, part);
    }
    !c
}

/// Advances the CRC register `c` over `bytes`, slicing-by-8.
fn update_table(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less body. The constants are `x^k mod P(x)` for the shifts
/// each fold spans, bit-reflected and shifted left by one to match the
/// reflected operands (`P(x)` is the CRC-32 polynomial).
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod clmul {
    use dps_crypto::isa::{self, IsaTier};
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest part the carry-less body takes: its four accumulators
    /// start from the first 64 bytes.
    pub(super) const FOLD_MIN: usize = 64;

    /// Fold 512 bits forward: `x^(4·128+32)`, `x^(4·128-32)`.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold 128 bits forward: `x^(128+32)`, `x^(128-32)`.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// Fold 64 bits to 32: `x^64`.
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P(x)` and `floor(x^64 / P(x))`, both reflected.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Advances the CRC register `c` over `bytes` (at least 64 of them)
    /// and returns it, or returns `None`, having done nothing, where the
    /// fold may not run.
    #[allow(unsafe_code)]
    pub(super) fn update(c: u32, bytes: &[u8]) -> Option<u32> {
        if isa::tier() != IsaTier::Avx2
            || !std::arch::is_x86_feature_detected!("pclmulqdq")
            || !std::arch::is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (folded, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the guard above: the tier is `Avx2` and the CPU reports
        // `pclmulqdq` and `sse4.1`, the two features `fold` enables.
        let c = unsafe { fold(c, folded) };
        Some(super::update_table(c, tail))
    }

    /// The 16 bytes at the front of `b`, little-endian.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(b[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `x` carried 128 (with `K3K4`) or 512 (with `K1K2`) bits forward,
    /// plus `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The register after `c` absorbs `bytes`, whose length is a multiple
    /// of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= 64 && bytes.len().is_multiple_of(16));
        let (head, rest) = bytes.split_at(64);
        let mut acc = [load(head), load(&head[16..]), load(&head[32..]), load(&head[48..])];
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(c as i32));

        let k = _mm_set_epi64x(K2, K1);
        let mut lines = rest.chunks_exact(64);
        for line in &mut lines {
            for (i, x) in acc.iter_mut().enumerate() {
                *x = fold_into(*x, k, load(&line[16 * i..]));
            }
        }

        let k = _mm_set_epi64x(K4, K3);
        let mut x = acc[0];
        for &next in &acc[1..] {
            x = fold_into(x, k, next);
        }
        for block in lines.remainder().chunks_exact(16) {
            x = fold_into(x, k, load(block));
        }

        // 128 → 64 bits: the low half carried forward by K4 onto the high
        // half; then 64 → 32: the low word carried forward by K5.
        let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k));
        let low32 = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5));
        let x = _mm_xor_si128(_mm_srli_si128::<4>(x), t);

        // Barrett: q = (x mod x^32) · µ, then x − (q mod x^32) · P; the
        // remainder is the second 32-bit word.
        let pm = _mm_set_epi64x(MU, P);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pm);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), pm);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop both bodies replaced: the oracle for an
    /// on-disk format that must not move.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        !c
    }

    fn data(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_right(13) as u8)
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926, the classic check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
        // The same value as the fold's tail: 64 zero bytes, then the vector.
        let mut long = vec![0u8; 64];
        long.extend_from_slice(b"123456789");
        assert_eq!(crc32(&[&long]), crc32_bytewise(&[&long]));
    }

    /// Every length up to 1 KiB — each count of 64-byte lines, 16-byte
    /// blocks and tail bytes the fold distinguishes — and every split into
    /// two or three parts near the 16- and 64-byte boundaries, where a
    /// part switches between the fold and the table.
    #[test]
    fn crc32_matches_the_bytewise_oracle_at_every_length_and_split() {
        let bytes = data(1024);
        for len in 0..=bytes.len() {
            let whole = &bytes[..len];
            assert_eq!(crc32(&[whole]), crc32_bytewise(&[whole]), "len {len}");
        }
        let edges: Vec<usize> = [0, 16, 64, 128, 192]
            .iter()
            .flat_map(|&b: &usize| b.saturating_sub(2)..=b + 2)
            .collect();
        for len in [63, 64, 65, 127, 128, 144, 200, 257, 400] {
            let whole = &bytes[..len];
            let want = crc32_bytewise(&[whole]);
            for &a in edges.iter().filter(|&&a| a <= len) {
                assert_eq!(crc32(&[&whole[..a], &whole[a..]]), want, "len {len} at {a}");
                for b in edges.iter().map(|e| a + e).filter(|&b| b <= len) {
                    let parts: [&[u8]; 3] = [&whole[..a], &whole[a..b], &whole[b..]];
                    assert_eq!(crc32(&parts), want, "len {len} at {a}, {b}");
                }
            }
        }
    }

    proptest! {
        /// Same polynomial, same values, whatever the length and however
        /// the input is split into parts (a part boundary falls inside an
        /// 8-byte word almost always, and inside a 64-byte line of the
        /// fold most of the time).
        #[test]
        fn crc32_slicing_matches_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..=16 << 10),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut start = 0;
            for cut in cuts {
                parts.push(&data[start..cut]);
                start = cut;
            }
            parts.push(&data[start..]);
            let want = crc32_bytewise(&[&data]);
            prop_assert_eq!(crc32(&parts), want);
            prop_assert_eq!(crc32(&[&data]), want);
            prop_assert_eq!(update_table(!0, &data), !want);
            prop_assert_eq!(crc32_bytewise(&parts), want);
        }
    }
}
