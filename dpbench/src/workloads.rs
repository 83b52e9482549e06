//! The four workloads: their parameters, the scheme clients that run them,
//! and the shadow model every answer is checked against.
//!
//! The model holds no database. A DP-RAM or DP-KVS value is a function of
//! (index or key, version) and the model keeps only the version counters;
//! a DP-IR record is a function of its index.

use std::collections::HashMap;
use std::time::Instant;

use dps_core::{DpIr, DpIrConfig, DpKvs, DpKvsConfig, DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_server::{CostStats, Storage};
use dps_workloads::generators::{key_universe, kvs_trace, payload_for, uniform_ir, zipf_ram};
use dps_workloads::{IrQuery, KvsQuery, Op, RamQuery};

/// Workload names, in the order they run and report.
pub const NAMES: [&str; 4] = ["ram_durable", "ir_cold", "kvs_local", "kvs_durable"];

/// `--quick` divides every size and count by this (harness smoke only).
const QUICK_DIVISOR: usize = 16;

/// DP-IR's error probability α: the share of queries answered `None`.
const IR_ALPHA: f64 = 0.05;
/// DP-IR's download count K.
const IR_K: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    Ram,
    Ir,
    Kvs,
}

/// One workload's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub scheme: Scheme,
    /// Runs over `RemoteServer` → `NetDaemon` → `DiskStore`; otherwise on
    /// an in-process `SimServer`.
    pub durable: bool,
    /// Records (DP-RAM, DP-IR) or key capacity (DP-KVS).
    pub n: usize,
    /// Record or value size in bytes.
    pub value_len: usize,
    /// Keys inserted before timing starts (DP-KVS only).
    pub loaded: usize,
    /// Length of the generated op trace; a run that outlasts it wraps.
    pub trace_len: usize,
    /// Untimed ops run before the timed phase, part of set-up.
    pub warmup_ops: usize,
    /// `DiskOptions::cache_bytes`; `None` keeps the shipped default.
    pub cache_bytes: Option<usize>,
}

impl Spec {
    pub fn named(name: &str, quick: bool) -> Option<Spec> {
        let base = match name {
            "ram_durable" => Spec {
                name: "ram_durable",
                scheme: Scheme::Ram,
                durable: true,
                n: 1 << 16,
                value_len: 256,
                loaded: 0,
                trace_len: 80_000,
                warmup_ops: 2_000,
                cache_bytes: None,
            },
            "ir_cold" => Spec {
                name: "ir_cold",
                scheme: Scheme::Ir,
                durable: true,
                n: 1 << 18,
                value_len: 256,
                loaded: 0,
                trace_len: 600_000,
                warmup_ops: 16_000,
                // The 64 MiB database is 16x the cache.
                cache_bytes: Some(4 << 20),
            },
            "kvs_local" => Spec {
                name: "kvs_local",
                scheme: Scheme::Kvs,
                durable: false,
                n: 1 << 13,
                value_len: 64,
                loaded: 4096,
                trace_len: 400_000,
                warmup_ops: 8_000,
                cache_bytes: None,
            },
            "kvs_durable" => Spec {
                name: "kvs_durable",
                scheme: Scheme::Kvs,
                durable: true,
                n: 1 << 13,
                value_len: 64,
                loaded: 4096,
                trace_len: 15_000,
                warmup_ops: 400,
                cache_bytes: None,
            },
            _ => return None,
        };
        Some(if quick { base.quick() } else { base })
    }

    fn quick(self) -> Spec {
        let d = QUICK_DIVISOR;
        Spec {
            n: self.n / d,
            loaded: self.loaded / d,
            trace_len: self.trace_len / d,
            warmup_ops: self.warmup_ops / d,
            cache_bytes: self.cache_bytes.map(|c| c / d),
            ..self
        }
    }

    /// The scheme's proven cells per op (Thms 5.1, 6.1, 7.1) and the most
    /// round trips it may take to move them; the run asserts both.
    pub fn paper_cost(&self) -> (f64, f64) {
        match self.scheme {
            Scheme::Ram => (3.0, 3.0),
            Scheme::Ir => (IR_K as f64, 1.0),
            Scheme::Kvs => {
                let depth = DpKvsConfig::recommended(self.n, self.value_len).geometry.depth();
                ((4 * 3 * depth) as f64, 12.0)
            }
        }
    }

    /// The share of ops that may answer "no record" by design.
    pub fn by_design_miss_rate(&self) -> f64 {
        if self.scheme == Scheme::Ir {
            IR_ALPHA
        } else {
            0.0
        }
    }
}

/// The value the model expects under `id` after `version` overwrites.
fn value(id: u64, version: u32, len: usize) -> Vec<u8> {
    payload_for(id ^ u64::from(version).wrapping_mul(0xd6e8_feb8_6659_fd93), len)
}

/// One op's timing and verdict. Only the scheme call sits between `start`
/// and `end`; building the value to write and checking the answer do not.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub start: Instant,
    pub end: Instant,
    /// The op returned no error and the value the model expects.
    pub ok: bool,
}

/// A scheme client bound to a backend, its op trace and its shadow model.
pub trait Client {
    /// Runs op `i` of the trace (wrapping) and checks its answer.
    fn step(&mut self, i: usize) -> Step;
    /// The backend's cost counters.
    fn stats(&self) -> CostStats;
    /// Ops so far that answered "no record" by design (DP-IR's α).
    fn by_design_misses(&self) -> u64 {
        0
    }
}

/// Generates the workload's trace from `seed`, sets the scheme up on
/// `server` and loads it, ready for op 0.
pub fn client<S: Storage + 'static>(
    spec: &Spec,
    seed: u64,
    server: S,
) -> Result<Box<dyn Client>, String> {
    let mut trace_rng = ChaChaRng::seed_from_u64(seed);
    // The scheme's own coins are a separate stream of the same seed.
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x5eed_c11e_17c0_1175);
    let fail = |e: &dyn std::fmt::Display| format!("{} set-up: {e}", spec.name);
    match spec.scheme {
        Scheme::Ram => {
            let trace = zipf_ram(spec.n, spec.trace_len, 0.99, 0.5, &mut trace_rng);
            let blocks: Vec<Vec<u8>> =
                (0..spec.n as u64).map(|i| value(i, 0, spec.value_len)).collect();
            let ram = DpRam::setup(DpRamConfig::recommended(spec.n), &blocks, server, &mut rng)
                .map_err(|e| fail(&e))?;
            let versions = vec![0; spec.n];
            Ok(Box::new(RamClient { ram, rng, trace, versions, len: spec.value_len }))
        }
        Scheme::Ir => {
            let trace = uniform_ir(spec.n, spec.trace_len, &mut trace_rng);
            let blocks: Vec<Vec<u8>> =
                (0..spec.n as u64).map(|i| value(i, 0, spec.value_len)).collect();
            let config =
                DpIrConfig::with_download_count(spec.n, IR_K, IR_ALPHA).map_err(|e| fail(&e))?;
            let ir = DpIr::setup(config, &blocks, server).map_err(|e| fail(&e))?;
            Ok(Box::new(IrClient { ir, rng, trace, nones: 0, len: spec.value_len }))
        }
        Scheme::Kvs => {
            let keys = key_universe(spec.loaded, &mut trace_rng);
            let trace = kvs_trace(&keys, spec.trace_len, 0.25, 0.25, &mut trace_rng);
            let config = DpKvsConfig::recommended(spec.n, spec.value_len);
            let mut kvs = DpKvs::setup(config, server, &mut rng).map_err(|e| fail(&e))?;
            for &key in &keys {
                kvs.put(key, value(key, 0, spec.value_len), &mut rng)
                    .map_err(|e| fail(&e))?;
            }
            let versions = keys.into_iter().map(|k| (k, 0)).collect();
            Ok(Box::new(KvsClient { kvs, rng, trace, versions, len: spec.value_len }))
        }
    }
}

struct RamClient<S: Storage> {
    ram: DpRam<S>,
    rng: ChaChaRng,
    trace: Vec<RamQuery>,
    versions: Vec<u32>,
    len: usize,
}

impl<S: Storage> Client for RamClient<S> {
    fn step(&mut self, i: usize) -> Step {
        let RamQuery { index, op } = self.trace[i % self.trace.len()];
        let version = &mut self.versions[index];
        match op {
            Op::Read => {
                let start = Instant::now();
                let got = self.ram.read(index, &mut self.rng);
                let end = Instant::now();
                let ok = got.is_ok_and(|v| v == value(index as u64, *version, self.len));
                Step { start, end, ok }
            }
            Op::Write => {
                let new = value(index as u64, *version + 1, self.len);
                let start = Instant::now();
                let done = self.ram.write(index, new, &mut self.rng);
                let end = Instant::now();
                *version += u32::from(done.is_ok());
                Step { start, end, ok: done.is_ok() }
            }
        }
    }

    fn stats(&self) -> CostStats {
        self.ram.server_stats()
    }
}

struct IrClient<S: Storage> {
    ir: DpIr<S>,
    rng: ChaChaRng,
    trace: Vec<IrQuery>,
    nones: u64,
    len: usize,
}

impl<S: Storage> Client for IrClient<S> {
    fn step(&mut self, i: usize) -> Step {
        let IrQuery(index) = self.trace[i % self.trace.len()];
        let start = Instant::now();
        let got = self.ir.query(index, &mut self.rng);
        let end = Instant::now();
        let ok = match got {
            Ok(Some(record)) => record == value(index as u64, 0, self.len),
            Ok(None) => {
                self.nones += 1;
                true
            }
            Err(_) => false,
        };
        Step { start, end, ok }
    }

    fn stats(&self) -> CostStats {
        self.ir.server_stats()
    }

    fn by_design_misses(&self) -> u64 {
        self.nones
    }
}

struct KvsClient<S: Storage> {
    kvs: DpKvs<S>,
    rng: ChaChaRng,
    trace: Vec<KvsQuery>,
    /// Version of every stored key; a key absent here must read as absent.
    versions: HashMap<u64, u32>,
    len: usize,
}

impl<S: Storage> Client for KvsClient<S> {
    fn step(&mut self, i: usize) -> Step {
        let KvsQuery { key, op } = self.trace[i % self.trace.len()];
        match op {
            Op::Read => {
                let start = Instant::now();
                let got = self.kvs.get(key, &mut self.rng);
                let end = Instant::now();
                let expected = self.versions.get(&key).map(|&v| value(key, v, self.len));
                Step { start, end, ok: got.is_ok_and(|v| v == expected) }
            }
            Op::Write => {
                let version = self.versions.entry(key).or_insert(0);
                let new = value(key, *version + 1, self.len);
                let start = Instant::now();
                let done = self.kvs.put(key, new, &mut self.rng);
                let end = Instant::now();
                *version += u32::from(done.is_ok());
                Step { start, end, ok: done.is_ok() }
            }
        }
    }

    fn stats(&self) -> CostStats {
        self.kvs.server_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::SimServer;

    #[test]
    fn values_differ_by_id_and_by_version() {
        assert_ne!(value(1, 0, 64), value(2, 0, 64));
        assert_ne!(value(1, 0, 64), value(1, 1, 64));
        assert_eq!(value(9, 3, 256), value(9, 3, 256));
        assert_eq!(value(5, 0, 256), payload_for(5, 256));
    }

    /// The model catches a wrong answer: where it disagrees with the store
    /// about an index, reads of that index fail and no others do.
    #[test]
    fn shadow_model_flags_a_wrong_value() {
        let blocks: Vec<Vec<u8>> = (0..16).map(|i| value(i, 0, 32)).collect();
        let mut rng = ChaChaRng::seed_from_u64(4);
        let ram = DpRam::setup(DpRamConfig::recommended(16), &blocks, SimServer::new(), &mut rng)
            .unwrap();
        let trace = vec![RamQuery::read(0), RamQuery::read(1), RamQuery::write(0)];
        let mut versions = vec![0; 16];
        versions[0] = 7;
        let mut c = RamClient { ram, rng, trace, versions, len: 32 };
        assert!(!c.step(0).ok, "index 0 holds version 0, the model says 7");
        assert!(c.step(1).ok);
        assert!(c.step(2).ok, "the write brings store and model back together");
        assert!(c.step(3).ok, "op 3 wraps to the read of index 0");
    }

    #[test]
    fn every_workload_verifies_on_the_simulator() {
        for name in NAMES {
            let spec = Spec::named(name, true).unwrap();
            let mut c = client(&spec, 3, SimServer::new()).unwrap();
            assert!((0..300).all(|i| c.step(i).ok), "{name}");
        }
    }
}
