//! DP-KVS: differentially private key-value storage (Section 7;
//! Theorem 7.5).
//!
//! Keys come from a large universe `U` (here `u64`); lookups of absent keys
//! must return "not present" without revealing the miss. The construction
//! composes two pieces, exactly as Section 7.1 prescribes:
//!
//! 1. **Mapping scheme** — the oblivious two-choice forest of Section 7.2
//!    ([`dps_hashing::forest`]): `Π(u) = {F(k1,u), F(k2,u)}`
//!    ([`TwoChoice`], one ChaCha20 block per key) picks two leaf buckets; a
//!    bucket's storage is its leaf-to-root path (`Θ(log log n)` nodes of
//!    `t` entries) plus a client-resident super root.
//! 2. **Bucketed DP-RAM** — [`crate::bucket_ram`] (Appendix E) stores the
//!    forest's nodes as equal-size encrypted cells and serves bucket
//!    queries with the two-phase stash dance of Section 6.
//!
//! Every KVS operation performs `2·k(n) = 4` bucket queries (two
//! retrievals, then two updates of which at most one is real — reads and
//! misses issue the same four), so the transcript shape is independent of
//! the op, the key, and whether it hits — or fails: an operation that ends
//! in an error still runs its remaining updates as fakes. The four queries
//! are one flight `[a, b, a, b]` of the bucketed DP-RAM, i.e. **2 round
//! trips** per operation (one download, one upload). Bandwidth is
//! `O(s(n)) = O(log log n)` node cells per operation; server storage is
//! `O(n)` cells; privacy is `ε = O(k(n)·log n) = O(log n)` with
//! `δ = negl(n)` from the mapping-scheme failure probability
//! (Theorem 7.1 + Theorem 7.2).

use dps_crypto::ChaChaRng;
use dps_hashing::forest::{choose_slot, ForestGeometry, TwoChoice};
use dps_server::cells::{edit_in_place, encode_bucket, probe, SlotEdit, SlotError};
use dps_server::{SimServer, Storage};

use crate::bucket_ram::{BucketRam, BucketRamError, BucketTrace};

/// Parameters of a DP-KVS instance.
#[derive(Debug, Clone)]
pub struct DpKvsConfig {
    /// Forest geometry (buckets, tree shape, node capacity, super root).
    pub geometry: ForestGeometry,
    /// Value payload size in bytes (all values are padded/validated to
    /// this, keeping cells equal-length).
    pub value_size: usize,
    /// Stash probability of the underlying bucketed DP-RAM.
    pub stash_probability: f64,
}

impl DpKvsConfig {
    /// Recommended parameters for capacity `n`: the Theorem 7.5 geometry
    /// plus the Theorem 6.1 stash probability over the bucket repertoire.
    pub fn recommended(n: usize, value_size: usize) -> Self {
        let geometry = ForestGeometry::recommended(n);
        let b = geometry.n_buckets.max(2) as f64;
        let p = (b.log2() * b.log2() / b).min(0.5);
        Self { geometry, value_size, stash_probability: p }
    }

    /// Node cell size in bytes (slot-encoded node).
    pub fn cell_size(&self) -> usize {
        dps_server::cells::encoded_len(self.geometry.node_capacity, self.value_size)
    }
}

/// Errors from DP-KVS operations.
#[derive(Debug)]
pub enum DpKvsError {
    /// A value of the wrong byte length was supplied.
    BadValueSize {
        /// Provided length.
        got: usize,
        /// Configured length.
        expected: usize,
    },
    /// The mapping scheme failed: both paths and the super root are full.
    /// Theorem 7.2: negligible probability under recommended geometry.
    CapacityExhausted,
    /// Underlying bucketed DP-RAM failure.
    Ram(BucketRamError),
    /// Corrupted node cell (failed slot decoding) — invariant violation.
    CorruptNode(String),
}

impl std::fmt::Display for DpKvsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpKvsError::BadValueSize { got, expected } => {
                write!(f, "value has {got} bytes, expected {expected}")
            }
            DpKvsError::CapacityExhausted => {
                write!(f, "mapping scheme full (paths and super root exhausted)")
            }
            DpKvsError::Ram(e) => write!(f, "bucket RAM failure: {e}"),
            DpKvsError::CorruptNode(msg) => write!(f, "corrupt node cell: {msg}"),
        }
    }
}

impl std::error::Error for DpKvsError {}

impl From<BucketRamError> for DpKvsError {
    fn from(e: BucketRamError) -> Self {
        DpKvsError::Ram(e)
    }
}

/// The adversarial view of one KVS operation: four bucket-query traces
/// (two retrievals, two updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvsOpTrace {
    /// Retrieval of the first candidate bucket.
    pub retrieve_a: BucketTrace,
    /// Retrieval of the second candidate bucket.
    pub retrieve_b: BucketTrace,
    /// Update pass over the first candidate bucket.
    pub update_a: BucketTrace,
    /// Update pass over the second candidate bucket.
    pub update_b: BucketTrace,
}

/// The node the single real update (if any) of an operation edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Site {
    /// The node at `height` of the path retrieval `query` (0 or 1) read.
    Path { query: usize, height: usize },
    /// The client-resident super root.
    SuperRoot,
}

/// What an operation does to its key.
#[derive(Debug, Clone, Copy)]
enum Op<'v> {
    Get,
    Put(&'v [u8]),
    Remove,
}

fn corrupt(e: SlotError) -> DpKvsError {
    DpKvsError::CorruptNode(e.to_string())
}

/// Reads one retrieved path where it lies, leaf to root: fills `loads` with
/// its node loads and returns the height and stored value of the first node
/// holding `key`.
fn scan_path<'c>(
    config: &DpKvsConfig,
    cells: &'c [u8],
    key: u64,
    loads: &mut Vec<usize>,
) -> Result<Option<(usize, &'c [u8])>, DpKvsError> {
    let (capacity, value_size) = (config.geometry.node_capacity, config.value_size);
    let mut found = None;
    loads.clear();
    for (height, node) in cells.chunks_exact(config.cell_size()).enumerate() {
        let (load, stored) = probe(node, capacity, value_size, key).map_err(corrupt)?;
        loads.push(load);
        found = found.or(stored.map(|stored| (height, stored)));
    }
    Ok(found)
}

/// The one real update of an operation whose key lives at `site`; `None`
/// makes all four bucket queries fake.
fn decide<'v>(
    geometry: &ForestGeometry,
    op: Op<'v>,
    site: Option<Site>,
    loads: &[Vec<usize>; 2],
    super_root_load: usize,
) -> Result<Option<(Site, SlotEdit<'v>)>, DpKvsError> {
    Ok(match (op, site) {
        (Op::Get, _) | (Op::Remove, None) => None,
        (Op::Remove, Some(site)) => Some((site, SlotEdit::Remove)),
        // Existing key: in-place update wherever it lives.
        (Op::Put(value), Some(site)) => Some((site, SlotEdit::Update(value))),
        // New key: the storing algorithm S (shared with the in-memory forest
        // via `choose_slot`).
        (Op::Put(value), None) => {
            let site = match choose_slot(&loads[0], &loads[1], geometry.node_capacity) {
                Some((query, height)) => Site::Path { query, height },
                None if super_root_load < geometry.super_root_capacity => Site::SuperRoot,
                None => return Err(DpKvsError::CapacityExhausted),
            };
            Some((site, SlotEdit::Insert(value)))
        }
    })
}

/// A DP-KVS client bound to a simulated server.
#[derive(Debug)]
pub struct DpKvs<S: Storage = SimServer> {
    config: DpKvsConfig,
    ram: BucketRam<S>,
    choice: TwoChoice,
    super_root: Vec<(u64, Vec<u8>)>,
    len: usize,
    /// Scratch: the node loads of an operation's two paths, leaf to root.
    loads: [Vec<usize>; 2],
}

impl<S: Storage> DpKvs<S> {
    /// Sets up an empty DP-KVS: allocates the forest's node cells (all
    /// vacant), keys the mapping function from a fresh 32-byte master key,
    /// and initializes the bucketed DP-RAM over the path repertoire.
    pub fn setup(config: DpKvsConfig, server: S, rng: &mut ChaChaRng) -> Result<Self, DpKvsError> {
        let geometry = config.geometry;
        let empty_node = encode_bucket(&[], geometry.node_capacity, config.value_size);
        let buckets: Vec<Vec<usize>> = (0..geometry.n_buckets)
            .map(|b| geometry.bucket_path(b))
            .collect();
        let ram = BucketRam::setup_with(
            geometry.total_nodes(),
            |_| &empty_node,
            buckets,
            config.stash_probability,
            server,
            rng,
        )?;

        let mut master_key = [0u8; 32];
        rng.fill_bytes(&mut master_key);
        Ok(Self {
            choice: TwoChoice::new(&master_key),
            config,
            ram,
            super_root: Vec::new(),
            len: 0,
            loads: Default::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &DpKvsConfig {
        &self.config
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current super-root load (client-side entries).
    pub fn super_root_load(&self) -> usize {
        self.super_root.len()
    }

    /// Client-side storage in cells: stashed bucket cells plus the super
    /// root (in node-cell equivalents).
    pub fn client_cells(&self) -> usize {
        self.ram.stashed_cell_count() + self.super_root.len()
    }

    /// Server cost counters.
    pub fn server_stats(&self) -> dps_server::CostStats {
        self.ram.server_stats()
    }

    /// Mutable access to the underlying server (transcript control).
    pub fn server_mut(&mut self) -> &mut S {
        self.ram.server_mut()
    }

    /// Node cells moved per operation: 4 bucket queries, each touching
    /// `3·depth` cells (2 downloads + 1 upload per phase-pair) —
    /// `O(log log n)` total.
    pub fn cells_per_op(&self) -> usize {
        4 * 3 * self.config.geometry.depth()
    }

    /// `Π(key)`: the two candidate buckets.
    pub fn buckets_for(&self, key: u64) -> (usize, usize) {
        self.choice.buckets(key, self.config.geometry.n_buckets)
    }

    /// The shared four-query engine: one flight `[a, b, a, b]` of the
    /// bucketed DP-RAM — two requests. Queries 0 and 1 retrieve the two
    /// paths; where `key` lives — first path, second path, super root —
    /// decides the operation's one real update and its result value;
    /// queries 2 and 3 are the update pass, at most one of them real,
    /// editing the encoded node where it lies in the flight's arena.
    ///
    /// The transcript shape does not depend on the outcome: a corrupt node
    /// or an exhausted mapping scheme turns the remaining updates into
    /// fakes and is returned after the upload. Client state (`len`, the
    /// super root) changes only once the flight succeeded.
    fn operate(
        &mut self,
        key: u64,
        op: Op<'_>,
        rng: &mut ChaChaRng,
    ) -> Result<(Option<Vec<u8>>, KvsOpTrace), DpKvsError> {
        let (a, b) = self.buckets_for(key);
        let Self { config, ram, super_root, loads, len, .. } = self;
        let (capacity, value_size) = (config.geometry.node_capacity, config.value_size);
        let cell_size = config.cell_size();

        let (mut site, mut value, mut plan, mut failure) = (None, None, None, None);
        let flight = ram.query_batch(
            &[a, b, a, b],
            |query, cells| {
                if failure.is_some() {
                    return;
                }
                let mut step = || match (query, plan) {
                    (0 | 1, _) => {
                        let on_path = scan_path(config, cells, key, &mut loads[query])?;
                        let mut hit = on_path.map(|(height, v)| (Site::Path { query, height }, v));
                        if query == 1 {
                            let held = super_root.iter().find(|(k, _)| *k == key);
                            hit = hit.or(held.map(|(_, v)| (Site::SuperRoot, v.as_slice())));
                        }
                        if let (None, Some((at, stored))) = (site, hit) {
                            site = Some(at);
                            // A put returns nothing: it needs no copy.
                            value = (!matches!(op, Op::Put(_))).then(|| stored.to_vec());
                        }
                        if query == 1 {
                            plan = decide(&config.geometry, op, site, loads, super_root.len())?;
                        }
                        Ok(())
                    }
                    (_, Some((Site::Path { query: path, height }, edit))) if query == path + 2 => {
                        let node = &mut cells[height * cell_size..][..cell_size];
                        edit_in_place(node, capacity, value_size, key, edit).map_err(corrupt)
                    }
                    _ => Ok(()),
                };
                failure = step().err();
            },
            rng,
        )?;
        let [retrieve_a, retrieve_b, update_a, update_b] = [0, 1, 2, 3].map(|j| flight.trace(j));
        if let Some(e) = failure {
            return Err(e);
        }

        // Commit the client side of the operation.
        if let Some((site, edit)) = plan {
            match edit {
                SlotEdit::Insert(_) => *len += 1,
                SlotEdit::Remove => *len -= 1,
                SlotEdit::Update(_) => {}
            }
            if site == Site::SuperRoot {
                match edit {
                    SlotEdit::Update(new) => {
                        if let Some(entry) = super_root.iter_mut().find(|(k, _)| *k == key) {
                            entry.1.copy_from_slice(new);
                        }
                    }
                    SlotEdit::Insert(new) => super_root.push((key, new.to_vec())),
                    SlotEdit::Remove => super_root.retain(|(k, _)| *k != key),
                }
            }
        }
        Ok((value, KvsOpTrace { retrieve_a, retrieve_b, update_a, update_b }))
    }

    /// Looks up `key`. Hits and misses have identical transcript shapes.
    pub fn get(&mut self, key: u64, rng: &mut ChaChaRng) -> Result<Option<Vec<u8>>, DpKvsError> {
        Ok(self.get_traced(key, rng)?.0)
    }

    /// [`DpKvs::get`] with the typed adversarial trace.
    pub fn get_traced(
        &mut self,
        key: u64,
        rng: &mut ChaChaRng,
    ) -> Result<(Option<Vec<u8>>, KvsOpTrace), DpKvsError> {
        self.operate(key, Op::Get, rng)
    }

    /// Inserts or updates `key`.
    pub fn put(&mut self, key: u64, value: Vec<u8>, rng: &mut ChaChaRng) -> Result<(), DpKvsError> {
        self.put_traced(key, value, rng).map(|_| ())
    }

    /// [`DpKvs::put`] with the typed adversarial trace.
    pub fn put_traced(
        &mut self,
        key: u64,
        value: Vec<u8>,
        rng: &mut ChaChaRng,
    ) -> Result<KvsOpTrace, DpKvsError> {
        if value.len() != self.config.value_size {
            return Err(DpKvsError::BadValueSize {
                got: value.len(),
                expected: self.config.value_size,
            });
        }
        Ok(self.operate(key, Op::Put(&value), rng)?.1)
    }

    /// Removes `key`, returning its value (an extension beyond the paper's
    /// read/overwrite interface; same four-query transcript shape).
    pub fn remove(&mut self, key: u64, rng: &mut ChaChaRng) -> Result<Option<Vec<u8>>, DpKvsError> {
        Ok(self.operate(key, Op::Remove, rng)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize, seed: u64) -> (DpKvs, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let kvs = DpKvs::setup(DpKvsConfig::recommended(n, 8), SimServer::new(), &mut rng).unwrap();
        (kvs, rng)
    }

    #[test]
    fn put_get_round_trip() {
        let (mut kvs, mut rng) = build(64, 1);
        kvs.put(0xfeed_f00d, vec![7u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.get(0xfeed_f00d, &mut rng).unwrap(), Some(vec![7u8; 8]));
        assert_eq!(kvs.len(), 1);
    }

    #[test]
    fn missing_key_returns_none() {
        let (mut kvs, mut rng) = build(64, 2);
        assert_eq!(kvs.get(42, &mut rng).unwrap(), None);
    }

    #[test]
    fn update_in_place() {
        let (mut kvs, mut rng) = build(64, 3);
        kvs.put(5, vec![1u8; 8], &mut rng).unwrap();
        kvs.put(5, vec![2u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.len(), 1);
        assert_eq!(kvs.get(5, &mut rng).unwrap(), Some(vec![2u8; 8]));
    }

    #[test]
    fn remove_round_trip() {
        let (mut kvs, mut rng) = build(64, 4);
        kvs.put(9, vec![3u8; 8], &mut rng).unwrap();
        assert_eq!(kvs.remove(9, &mut rng).unwrap(), Some(vec![3u8; 8]));
        assert_eq!(kvs.get(9, &mut rng).unwrap(), None);
        assert_eq!(kvs.remove(9, &mut rng).unwrap(), None);
        assert_eq!(kvs.len(), 0);
    }

    #[test]
    fn many_keys_round_trip() {
        let (mut kvs, mut rng) = build(128, 5);
        for k in 0..100u64 {
            kvs.put(k * 0x9e3779b9, vec![(k % 251) as u8; 8], &mut rng)
                .unwrap();
        }
        assert_eq!(kvs.len(), 100);
        for k in 0..100u64 {
            assert_eq!(
                kvs.get(k * 0x9e3779b9, &mut rng).unwrap(),
                Some(vec![(k % 251) as u8; 8]),
                "key {k}"
            );
        }
    }

    /// Random mixed workload against a HashMap reference, including misses.
    #[test]
    fn random_workload_matches_reference() {
        let (mut kvs, mut rng) = build(64, 6);
        let mut reference = std::collections::HashMap::new();
        let keys: Vec<u64> = (0..48).map(|i| i * 7 + 1).collect();
        for step in 0u32..400 {
            let key = keys[rng.gen_index(keys.len())];
            match rng.gen_index(4) {
                0 => {
                    let v = vec![(step % 256) as u8; 8];
                    kvs.put(key, v.clone(), &mut rng).unwrap();
                    reference.insert(key, v);
                }
                1 => {
                    assert_eq!(
                        kvs.remove(key, &mut rng).unwrap(),
                        reference.remove(&key),
                        "step {step}"
                    );
                }
                _ => {
                    assert_eq!(
                        kvs.get(key, &mut rng).unwrap(),
                        reference.get(&key).cloned(),
                        "step {step}"
                    );
                }
            }
            assert_eq!(kvs.len(), reference.len(), "step {step}");
        }
    }

    /// Transcript-shape invariance: hits, misses, puts and removes all
    /// issue exactly 4 bucket queries in 2 round trips, and move the same
    /// number of cells.
    #[test]
    fn op_cost_is_shape_invariant() {
        let (mut kvs, mut rng) = build(64, 7);
        kvs.put(1, vec![0u8; 8], &mut rng).unwrap();
        let depth = kvs.config().geometry.depth() as u64;
        let check = |kvs: &mut DpKvs, rng: &mut ChaChaRng, label: &str| {
            let before = kvs.server_stats();
            match label {
                "hit" => {
                    kvs.get(1, rng).unwrap();
                }
                "miss" => {
                    kvs.get(0xdead, rng).unwrap();
                }
                "put" => {
                    kvs.put(2, vec![1u8; 8], rng).unwrap();
                }
                _ => {
                    kvs.remove(0xbeef, rng).unwrap();
                }
            }
            let diff = kvs.server_stats().since(&before);
            assert_eq!(diff.downloads, 4 * 2 * depth, "{label}");
            assert_eq!(diff.uploads, 4 * depth, "{label}");
            assert_eq!(diff.round_trips, 2, "{label}");
        };
        check(&mut kvs, &mut rng, "hit");
        check(&mut kvs, &mut rng, "miss");
        check(&mut kvs, &mut rng, "put");
        check(&mut kvs, &mut rng, "removemiss");
    }

    #[test]
    fn value_size_is_enforced() {
        let (mut kvs, mut rng) = build(64, 8);
        assert!(matches!(
            kvs.put(1, vec![0u8; 5], &mut rng),
            Err(DpKvsError::BadValueSize { got: 5, expected: 8 })
        ));
    }

    #[test]
    fn fills_to_capacity_whp() {
        // Insert n keys into an n-bucket forest — Theorem 7.2 says this
        // succeeds whp with the recommended geometry.
        let n = 256;
        let (mut kvs, mut rng) = build(n, 9);
        for k in 0..n as u64 {
            kvs.put(k.wrapping_mul(0x2545f491_4f6cdd1d), vec![0u8; 8], &mut rng)
                .unwrap_or_else(|e| panic!("insert {k} failed: {e}"));
        }
        assert_eq!(kvs.len(), n);
        assert!(
            kvs.super_root_load() <= kvs.config().geometry.super_root_capacity,
            "super root over capacity"
        );
    }

    #[test]
    fn super_root_overflow_is_reported() {
        // Degenerate geometry to force overflow deterministically.
        let mut rng = ChaChaRng::seed_from_u64(10);
        let config = DpKvsConfig {
            geometry: dps_hashing::ForestGeometry {
                n_buckets: 2,
                leaves_per_tree: 2,
                node_capacity: 1,
                super_root_capacity: 1,
            },
            value_size: 4,
            stash_probability: 0.2,
        };
        let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
        let mut full = false;
        for k in 0..32u64 {
            let before = kvs.server_stats();
            let outcome = kvs.put(k, vec![0u8; 4], &mut rng);
            // The server must not learn the outcome from the cell count:
            // the failing put runs its fake updates and its upload too.
            let moved = kvs.server_stats().since(&before);
            assert_eq!((moved.downloads + moved.uploads) as usize, kvs.cells_per_op(), "key {k}");
            assert_eq!(moved.round_trips, 2, "key {k}");
            match outcome {
                Ok(()) => {}
                Err(DpKvsError::CapacityExhausted) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(full, "tiny forest must eventually overflow");
        // Everything stored before the overflow is still retrievable.
        for k in 0..kvs.len() as u64 {
            assert!(kvs.get(k, &mut rng).unwrap().is_some(), "key {k}");
        }
    }

    #[test]
    fn client_cells_stay_bounded() {
        let (mut kvs, mut rng) = build(128, 11);
        for k in 0..128u64 {
            kvs.put(k, vec![0u8; 8], &mut rng).unwrap();
        }
        for _ in 0..200 {
            let k = rng.gen_range(128);
            kvs.get(k, &mut rng).unwrap();
        }
        // Stashed cells ≈ p·b·depth in expectation; generous envelope.
        let depth = kvs.config().geometry.depth();
        let expected = kvs.config().stash_probability * 128.0 * depth as f64;
        assert!(
            (kvs.client_cells() as f64) < 6.0 * expected + kvs.super_root_load() as f64 + 20.0,
            "client cells {} too large (expected ~{expected})",
            kvs.client_cells()
        );
    }

    /// The bytes a seed produces are pinned, and must hold under every
    /// `DPS_FORCE_ISA` tier. FNV-1a-64 over every server cell in address
    /// order after 600 mixed operations, then the client RNG's next output
    /// and the client's cell count.
    ///
    /// The constants were first recorded with per-cell
    /// `encrypt_into`/`decrypt_into` calls, before the flight's crypto was
    /// batched. They were re-recorded when the mapping `Π` moved from two
    /// HMAC-SHA256 PRFs to one ChaCha20 block ([`TwoChoice`]): the same
    /// master key now sends each key to other buckets, so other cells are
    /// written and other buckets stashed, which moves all three values.
    /// The new values were computed against both the padded 4-lane
    /// keystream remainder and the scalar one it replaced, and agree on
    /// every tier. They did not move when a flight began sealing only the
    /// last upload slot of each address: that slot keeps its plaintext and
    /// its nonce, every slot still draws one, and the server keeps only
    /// the last slot.
    #[test]
    fn seeded_run_is_byte_identical_to_the_per_cell_cipher() {
        let mut rng = ChaChaRng::seed_from_u64(77);
        let mut kvs =
            DpKvs::setup(DpKvsConfig::recommended(256, 16), SimServer::new(), &mut rng).unwrap();
        for step in 0u32..600 {
            let k = rng.gen_range(300);
            match step % 4 {
                0 => kvs.put(k, vec![step as u8; 16], &mut rng).unwrap(),
                1 => drop(kvs.remove(k, &mut rng).unwrap()),
                _ => drop(kvs.get(k, &mut rng).unwrap()),
            }
        }
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for addr in 0..kvs.server_mut().capacity() {
            for byte in kvs.server_mut().read(addr).unwrap() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(digest, 0xd41a_ae3c_23c6_bd4a, "server cells");
        assert_eq!(rng.next_u64(), 0xe711_0f41_faca_1b75, "client RNG position");
        assert_eq!(kvs.client_cells(), 176);
    }
}
