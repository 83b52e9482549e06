//! Pseudorandom functions over arbitrary byte-string inputs.
//!
//! [`HmacPrf`] instantiates a PRF `F` as HMAC-SHA256 truncated to 64 bits.
//! It keys cuckoo hashing's two hash functions and the rounds of the
//! small-domain PRP. Section 7.2's mapping `Π(u) = {F(key1, u), F(key2, u)}`
//! is not built here: `dps_hashing::forest::TwoChoice` evaluates it as one
//! ChaCha20 block. Both reduce 64-bit outputs into `[0, n)` with
//! [`reduce`].

use crate::hmac::{hmac_sha256, HmacKey};

/// Reduces a 64-bit PRF output into `[0, n)` by multiply-shift
/// (`floor(x · n / 2^64)`, Lemire's reduction without rejection). Like a
/// modulo it is not exactly uniform: for a uniform `x`, each value in
/// `[0, n)` has probability within `1 / 2^64` of `1 / n`, so the total
/// variation distance from uniform is at most `n / 2^64`. That is
/// negligible for every `n` this workspace uses.
///
/// # Panics
/// Panics if `n == 0`.
pub fn reduce(x: u64, n: u64) -> u64 {
    assert!(n > 0, "range must be non-empty");
    ((u128::from(x) * u128::from(n)) >> 64) as u64
}

/// A keyed pseudorandom function mapping byte strings to 64-bit outputs.
pub trait Prf {
    /// Evaluates the PRF on `input`.
    fn eval(&self, input: &[u8]) -> u64;

    /// Evaluates the PRF and reduces the output into `[0, n)` with
    /// [`reduce`], whose bias is at most `n / 2^64`.
    fn eval_range(&self, input: &[u8], n: u64) -> u64 {
        reduce(self.eval(input), n)
    }
}

/// HMAC-SHA256-based PRF. The HMAC pad states are precomputed once per
/// key, so each evaluation costs only the message compressions.
#[derive(Clone)]
pub struct HmacPrf {
    key: Vec<u8>,
    mac: HmacKey,
}

impl std::fmt::Debug for HmacPrf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "HmacPrf(..)")
    }
}

impl HmacPrf {
    /// Creates a PRF keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        Self { key: key.to_vec(), mac: HmacKey::new(key) }
    }

    /// Derives an independent PRF from this one using a domain-separation
    /// label. Used to obtain cuckoo hashing's two hash functions and the
    /// PRP's round functions from a single master key.
    pub fn derive(&self, label: &[u8]) -> Self {
        let mut input = Vec::with_capacity(label.len() + 7);
        input.extend_from_slice(b"derive:");
        input.extend_from_slice(label);
        Self::new(&hmac_sha256(&self.key, &input))
    }
}

impl Prf for HmacPrf {
    fn eval(&self, input: &[u8]) -> u64 {
        let digest = self.mac.mac(input);
        u64::from_le_bytes(digest[..8].try_into().expect("8-byte prefix"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let prf = HmacPrf::new(b"key");
        assert_eq!(prf.eval(b"input"), prf.eval(b"input"));
    }

    #[test]
    fn input_separation() {
        let prf = HmacPrf::new(b"key");
        assert_ne!(prf.eval(b"a"), prf.eval(b"b"));
    }

    #[test]
    fn derived_prfs_are_independent() {
        let master = HmacPrf::new(b"master");
        let f1 = master.derive(b"1");
        let f2 = master.derive(b"2");
        assert_ne!(f1.eval(b"x"), f2.eval(b"x"));
        assert_ne!(f1.eval(b"x"), master.eval(b"x"));
    }

    #[test]
    fn range_is_respected() {
        let prf = HmacPrf::new(b"key");
        for i in 0u64..200 {
            let v = prf.eval_range(&i.to_le_bytes(), 17);
            assert!(v < 17);
        }
    }

    /// Outputs over a range should be roughly uniform: a chi-squared-style
    /// sanity check with loose tolerance.
    #[test]
    fn range_roughly_uniform() {
        let prf = HmacPrf::new(b"uniformity");
        let buckets = 16usize;
        let trials = 16_000u64;
        let mut counts = vec![0u64; buckets];
        for i in 0..trials {
            counts[prf.eval_range(&i.to_le_bytes(), buckets as u64) as usize] += 1;
        }
        let expected = trials as f64 / buckets as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {b} count {c} deviates {dev:.3} from uniform");
        }
    }
}
