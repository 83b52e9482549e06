//! Trace generators for overhead and throughput experiments.

use crate::query::{IrQuery, KvsQuery, Op, RamQuery};
use crate::zipf::Zipf;
use dps_crypto::ChaChaRng;

/// `l` independent uniform IR queries over `[0, n)`.
pub fn uniform_ir(n: usize, l: usize, rng: &mut ChaChaRng) -> Vec<IrQuery> {
    (0..l).map(|_| IrQuery(rng.gen_index(n))).collect()
}

/// `l` RAM queries with uniform indices and the given write fraction.
pub fn uniform_ram(n: usize, l: usize, write_fraction: f64, rng: &mut ChaChaRng) -> Vec<RamQuery> {
    (0..l)
        .map(|_| {
            let op = if rng.gen_bool(write_fraction) { Op::Write } else { Op::Read };
            RamQuery { index: rng.gen_index(n), op }
        })
        .collect()
}

/// `l` RAM queries with Zipf(θ) indices and the given write fraction.
pub fn zipf_ram(
    n: usize,
    l: usize,
    theta: f64,
    write_fraction: f64,
    rng: &mut ChaChaRng,
) -> Vec<RamQuery> {
    let z = Zipf::new(n, theta);
    (0..l)
        .map(|_| {
            let op = if rng.gen_bool(write_fraction) { Op::Write } else { Op::Read };
            RamQuery { index: z.sample(rng), op }
        })
        .collect()
}

/// A universe of `count` distinct random 64-bit keys — the "large universe
/// `U`" of the KVS primitive (collisions across `u64` are negligible but we
/// deduplicate anyway so tests can rely on distinctness).
pub fn key_universe(count: usize, rng: &mut ChaChaRng) -> Vec<u64> {
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let k = rng.next_u64();
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// `l` KVS queries over the given key set: writes with probability
/// `write_fraction`, and reads of *absent* keys (uniform random keys, almost
/// surely never inserted) with probability `miss_fraction`.
pub fn kvs_trace(
    keys: &[u64],
    l: usize,
    write_fraction: f64,
    miss_fraction: f64,
    rng: &mut ChaChaRng,
) -> Vec<KvsQuery> {
    assert!(!keys.is_empty(), "need at least one key");
    (0..l)
        .map(|_| {
            if rng.gen_bool(miss_fraction) {
                // A fresh random key: a miss with probability 1 - count/2^64.
                KvsQuery::read(rng.next_u64())
            } else {
                let key = keys[rng.gen_index(keys.len())];
                let op = if rng.gen_bool(write_fraction) { Op::Write } else { Op::Read };
                KvsQuery { key, op }
            }
        })
        .collect()
}

/// Deterministic payload for record `index`: distinct per index and
/// verifiable by tests without storing a mirror.
pub fn payload_for(index: u64, block_size: usize) -> Vec<u8> {
    let mut out = vec![0u8; block_size];
    let seed = index.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes();
    for (i, byte) in out.iter_mut().enumerate() {
        *byte = seed[i % 8] ^ (i as u8);
    }
    out
}

/// An initial database of `n` blocks of `block_size` bytes with
/// per-index-distinct contents.
pub fn database(n: usize, block_size: usize) -> Vec<Vec<u8>> {
    (0..n as u64).map(|i| payload_for(i, block_size)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ir_in_range() {
        let mut rng = ChaChaRng::seed_from_u64(1);
        assert!(uniform_ir(10, 100, &mut rng).iter().all(|q| q.0 < 10));
    }

    #[test]
    fn write_fraction_respected() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let trace = uniform_ram(100, 10_000, 0.25, &mut rng);
        let writes = trace.iter().filter(|q| q.op == Op::Write).count();
        let frac = writes as f64 / trace.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn zipf_ram_skews_to_low_ranks() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let trace = zipf_ram(1000, 10_000, 1.1, 0.0, &mut rng);
        let low = trace.iter().filter(|q| q.index < 10).count();
        assert!(low > 1000, "Zipf trace should concentrate: {low} hits in top-10");
    }

    #[test]
    fn key_universe_is_distinct() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        let keys = key_universe(1000, &mut rng);
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn kvs_trace_misses_use_fresh_keys() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        let keys = key_universe(50, &mut rng);
        let key_set: std::collections::HashSet<_> = keys.iter().copied().collect();
        let trace = kvs_trace(&keys, 5000, 0.3, 0.5, &mut rng);
        let misses = trace.iter().filter(|q| !key_set.contains(&q.key)).count();
        let frac = misses as f64 / trace.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "miss fraction {frac}");
        // Misses must be reads (you cannot write a key you do not hold).
        assert!(trace
            .iter()
            .filter(|q| !key_set.contains(&q.key))
            .all(|q| q.op == Op::Read));
    }

    #[test]
    fn payloads_are_distinct_and_sized() {
        let a = payload_for(1, 64);
        let b = payload_for(2, 64);
        assert_eq!(a.len(), 64);
        assert_ne!(a, b);
        assert_eq!(a, payload_for(1, 64), "payloads are deterministic");
    }

    #[test]
    fn database_shape() {
        let db = database(16, 32);
        assert_eq!(db.len(), 16);
        assert!(db.iter().all(|b| b.len() == 32));
    }
}
