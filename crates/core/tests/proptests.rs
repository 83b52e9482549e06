//! Property-based tests for the paper's constructions: correctness against
//! reference models under arbitrary operation programs, and structural
//! invariants of the typed transcripts.

use std::collections::HashSet;

use dps_analysis::stats::chi_square_two_sample;
use dps_core::bucket_ram::{BucketRam, BucketRamError, BucketTrace, Flight};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::{BlockCipher, ChaChaRng};
use dps_server::{AccessEvent, Accounted, CellBackend, CellStore, SimServer, Storage};
use dps_workloads::Op;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DP-RAM matches a plain array under arbitrary read/write programs,
    /// for arbitrary stash probabilities.
    #[test]
    fn dp_ram_matches_reference(
        ops in proptest::collection::vec((0usize..16, any::<bool>(), any::<u8>()), 1..80),
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let n = 16;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 4]).collect();
        let mut reference = blocks.clone();
        let mut ram = DpRam::setup(
            DpRamConfig { n, stash_probability: p },
            &blocks,
            SimServer::new(),
            &mut rng,
        ).unwrap();
        for (step, (i, is_write, byte)) in ops.into_iter().enumerate() {
            if is_write {
                let value = vec![byte; 4];
                ram.write(i, value.clone(), &mut rng).unwrap();
                reference[i] = value;
            } else {
                prop_assert_eq!(ram.read(i, &mut rng).unwrap(), reference[i].clone(), "step {}", step);
            }
        }
    }

    /// DP-RAM trace addresses are always in range and the overwrite-phase
    /// invariant holds: when the record is not re-stashed, the overwrite
    /// address equals the query.
    #[test]
    fn dp_ram_trace_invariants(
        queries in proptest::collection::vec(0usize..8, 1..40),
        seed in any::<u64>(),
    ) {
        let n = 8;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; 4]).collect();
        let mut ram = DpRam::setup(
            DpRamConfig { n, stash_probability: 0.5 },
            &blocks,
            SimServer::new(),
            &mut rng,
        ).unwrap();
        for q in queries {
            let stashed_before = ram.stash_size();
            let (_, trace) = ram.query_traced(q, Op::Read, None, &mut rng).unwrap();
            prop_assert!(trace.download < n);
            prop_assert!(trace.overwrite < n);
            // If the stash did not grow and did not hold q before, both
            // phases must touch q itself (no decoys possible).
            let _ = stashed_before;
        }
    }

    /// DP-KVS matches a HashMap under arbitrary put/get/remove programs
    /// with keys from a large universe.
    #[test]
    fn dp_kvs_matches_reference(
        ops in proptest::collection::vec((0u8..3, 0u64..40), 1..60),
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut kvs = DpKvs::setup(
            DpKvsConfig::recommended(64, 4),
            SimServer::new(),
            &mut rng,
        ).unwrap();
        let mut model: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
        for (step, (kind, key)) in ops.into_iter().enumerate() {
            let key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15); // spread over U
            match kind {
                0 => {
                    let value = vec![(step % 256) as u8; 4];
                    kvs.put(key, value.clone(), &mut rng).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    prop_assert_eq!(kvs.remove(key, &mut rng).unwrap(), model.remove(&key), "step {}", step);
                }
                _ => {
                    prop_assert_eq!(kvs.get(key, &mut rng).unwrap(), model.get(&key).cloned(), "step {}", step);
                }
            }
            prop_assert_eq!(kvs.len(), model.len(), "step {}", step);
        }
    }

    /// Bucketed DP-RAM with overlapping buckets preserves cell consistency
    /// under arbitrary update programs.
    #[test]
    fn bucket_ram_overlap_consistency(
        ops in proptest::collection::vec((0usize..4, 0usize..3, any::<u8>(), any::<bool>()), 1..50),
        p in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 4]).collect();
        let buckets = vec![
            vec![0usize, 4, 5],
            vec![1, 4, 5],
            vec![2, 4, 5],
            vec![3, 4, 5],
        ];
        let mut model = cells.clone();
        let mut ram = BucketRam::setup(cells, buckets.clone(), p, SimServer::new(), &mut rng).unwrap();
        for (step, (b, pos, byte, is_write)) in ops.into_iter().enumerate() {
            if is_write {
                ram.query(b, |c| c[pos * 4..][..4].fill(byte), &mut rng).unwrap();
                model[buckets[b][pos]] = vec![byte; 4];
            } else {
                let (contents, trace) = ram.query(b, |_| {}, &mut rng).unwrap();
                let expected: Vec<u8> = buckets[b].iter().flat_map(|&c| model[c].clone()).collect();
                prop_assert_eq!(contents, expected, "step {}", step);
                prop_assert!(trace.download < 4 && trace.overwrite < 4);
            }
        }
    }

    /// DP-IR download sets always have exactly K elements, contain the
    /// query iff the trial succeeded, and stay in range.
    #[test]
    fn dp_ir_download_set_invariants(
        query in 0usize..32,
        k in 1usize..32,
        alpha in 0.01f64..1.0,
        seed in any::<u64>(),
    ) {
        use dps_core::dp_ir::{DpIr, DpIrConfig};
        let n = 32;
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let blocks: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; 4]).collect();
        let config = DpIrConfig::with_download_count(n, k, alpha).unwrap();
        let ir = DpIr::setup(config, &blocks, SimServer::new()).unwrap();
        let (set, success) = ir.sample_download_set(query, &mut rng);
        prop_assert_eq!(set.len(), k);
        if success {
            prop_assert!(set.contains(&query));
        }
        prop_assert!(set.iter().all(|&x| x < n));
    }
}

/// A finished flight of `k` queries, owned: each query's post-update
/// contents and trace.
fn owned(flight: Flight<'_>, k: usize) -> Vec<(Vec<u8>, BucketTrace)> {
    (0..k)
        .map(|j| (flight.contents(j).to_vec(), flight.trace(j)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Flights of the bucketed DP-RAM over overlapping repertoires — the
    /// 4-bucket fixture, a 2-bucket forest (so `[a, b, a, b]` flights with
    /// `a == b` are common) and random ones — with repeated buckets and
    /// random updates: every query sees, and returns, what a sequential run
    /// over a plain cell array would; the recorded transcript is one
    /// download batch and one upload batch spelling out the returned
    /// traces; and after every flight all of the logical contents match.
    #[test]
    fn bucket_ram_flights_match_sequential_model(
        shape in 0usize..3,
        raw_buckets in proptest::collection::vec(proptest::collection::vec(0usize..8, 1..4), 1..6),
        flights in proptest::collection::vec(
            proptest::collection::vec((0usize..60, 0usize..6, any::<u8>(), any::<bool>()), 1..7),
            1..8,
        ),
        p in 0usize..3,
        seed in any::<u64>(),
    ) {
        let buckets: Vec<Vec<usize>> = match shape {
            0 => vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]],
            1 => {
                let forest = dps_hashing::ForestGeometry {
                    n_buckets: 2,
                    leaves_per_tree: 2,
                    node_capacity: 1,
                    super_root_capacity: 1,
                };
                (0..2).map(|b| forest.bucket_path(b)).collect()
            }
            _ => raw_buckets
                .into_iter()
                .map(|mut cells| {
                    cells.sort_unstable();
                    cells.dedup();
                    cells
                })
                .collect(),
        };
        let mut model: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 4]).collect();
        let view = |model: &[Vec<u8>], bucket: usize| -> Vec<u8> {
            buckets[bucket].iter().flat_map(|&c| model[c].clone()).collect()
        };
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let p = [0.0, 0.5, 1.0][p];
        let server = Accounted::over(LastUpload::default());
        let mut ram =
            BucketRam::setup(model.clone(), buckets.clone(), p, server, &mut rng).unwrap();

        for (step, flight) in flights.into_iter().enumerate() {
            let queried: Vec<usize> = flight.iter().map(|&(b, ..)| b % buckets.len()).collect();
            // (contents handed to the update, model view before it, model view after it)
            let mut seen = Vec::new();
            ram.server_mut().start_recording();
            let update = |j: usize, contents: &mut [u8]| {
                let (_, position, byte, is_write) = flight[j];
                let (handed, before) = (contents.to_vec(), view(&model, queried[j]));
                if is_write {
                    let position = position % buckets[queried[j]].len();
                    contents[position * 4..][..4].fill(byte);
                    model[buckets[queried[j]][position]] = vec![byte; 4];
                }
                seen.push((handed, before, view(&model, queried[j])));
            };
            let out = owned(ram.query_batch(&queried, update, &mut rng).unwrap(), queried.len());
            let transcript = ram.server_mut().take_transcript();

            prop_assert_eq!(seen.len(), queried.len());
            for (j, (handed, before, after)) in seen.iter().enumerate() {
                prop_assert_eq!(handed, before, "step {}, query {} saw stale cells", step, j);
                prop_assert_eq!(&out[j].0, after, "step {}, query {} returned", step, j);
            }

            let traces: Vec<BucketTrace> = out.iter().map(|(_, trace)| *trace).collect();
            let downloads: Vec<AccessEvent> = traces
                .iter()
                .flat_map(|t| buckets[t.download].iter().chain(&buckets[t.overwrite]))
                .map(|&c| AccessEvent::Download(c))
                .collect();
            let uploads: Vec<AccessEvent> = traces
                .iter()
                .flat_map(|t| &buckets[t.overwrite])
                .map(|&c| AccessEvent::Upload(c))
                .collect();
            let batches: Vec<&[AccessEvent]> = transcript.batches().collect();
            prop_assert_eq!(batches, vec![&downloads[..], &uploads[..]], "step {}", step);
            assert_copies_at_repeats(&ram.server_mut().batch);

            let every: Vec<usize> = (0..buckets.len()).collect();
            let all = ram.query_batch(&every, |_, _| {}, &mut rng).unwrap();
            for b in every {
                prop_assert_eq!(all.contents(b), view(&model, b), "step {}, bucket {}", step, b);
            }
            assert_copies_at_repeats(&ram.server_mut().batch);
        }
    }
}

/// A cell store that keeps a copy of the last upload batch it stored.
#[derive(Debug, Default)]
struct LastUpload {
    cells: CellStore,
    batch: Vec<(usize, Vec<u8>)>,
}

impl CellBackend for LastUpload {
    fn capacity(&self) -> usize {
        self.cells.capacity()
    }
    fn stride(&self) -> usize {
        self.cells.stride()
    }
    fn reset(&mut self, contents: CellStore) {
        self.cells = contents;
    }
    fn get(&mut self, addr: usize) -> Result<&[u8], dps_server::ServerError> {
        CellBackend::get(&mut self.cells, addr)
    }
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), dps_server::ServerError> {
        self.batch.clear();
        self.batch
            .extend(items.map(|(addr, cell)| (addr, cell.to_vec())));
        self.cells
            .put(self.batch.iter().map(|(addr, cell)| (*addr, cell.as_slice())))
    }
}

/// A flight seals only the last upload slot of each address: every earlier
/// slot of it is a byte copy of that one, slots of distinct addresses
/// differ, and so the upload holds one ciphertext per distinct address.
fn assert_copies_at_repeats(upload: &[(usize, Vec<u8>)]) {
    for (slot, (addr, cell)) in upload.iter().enumerate() {
        let last = upload.iter().rposition(|(other, _)| other == addr).unwrap();
        assert_eq!(cell, &upload[last].1, "slot {slot} is not a copy of slot {last}");
        for (other, earlier) in &upload[..slot] {
            assert!(other == addr || earlier != cell, "cells {other} and {addr} share bytes");
        }
    }
    let addrs: HashSet<usize> = upload.iter().map(|&(addr, _)| addr).collect();
    let ciphertexts: HashSet<&Vec<u8>> = upload.iter().map(|(_, cell)| cell).collect();
    assert_eq!(ciphertexts.len(), addrs.len());
}

/// One flight `[x, y]` and two one-element flights show the server the same
/// distribution of `(d_1, o_1, d_2, o_2)`: only the grouping into requests
/// differs. χ² homogeneity test on the 4-bucket fixture at `p = 0.5`, for
/// `x == y` and `x != y`, stratified by the stash at setup: no bucket
/// stashed (so `x` is not), every bucket stashed (so `x` is), mixed.
#[test]
fn flight_and_sequential_queries_share_one_view_distribution() {
    const TRIALS: u64 = 8_000;
    let fixture = |seed: u64| {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
        let buckets = vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
        let ram = BucketRam::setup(cells, buckets, 0.5, SimServer::new(), &mut rng).unwrap();
        (ram, rng)
    };
    let category = |views: &[BucketTrace]| {
        views
            .iter()
            .fold(0, |acc, t| (acc * 4 + t.download) * 4 + t.overwrite)
    };

    for (x, y) in [(2, 2), (1, 3)] {
        // [stratum][sample][category]
        let mut counts = vec![vec![vec![0u64; 256]; 2]; 3];
        for trial in 0..TRIALS {
            let seed = (trial << 8) | (x * 4 + y) as u64;
            let (mut batched, mut rng) = fixture(seed);
            let stratum = match batched.stashed_bucket_count() {
                0 => 0,
                4 => 1,
                _ => 2,
            };
            let flight = batched.query_batch(&[x, y], |_, _| {}, &mut rng).unwrap();
            counts[stratum][0][category(&[flight.trace(0), flight.trace(1)])] += 1;

            // The twin starts from the same stash; its coins are its own.
            let (mut sequential, _) = fixture(seed);
            let mut rng = ChaChaRng::seed_from_u64(!seed);
            let first = sequential.query(x, |_| {}, &mut rng).unwrap().1;
            let second = sequential.query(y, |_| {}, &mut rng).unwrap().1;
            counts[stratum][1][category(&[first, second])] += 1;
        }
        for (stratum, samples) in counts.iter().enumerate() {
            assert!(samples[0].iter().sum::<u64>() > 300, "stratum {stratum} too thin");
            let test = chi_square_two_sample(&samples[0], &samples[1], 10);
            assert!(test.dof >= 3, "flight [{x}, {y}], stratum {stratum}: {test:?}");
            assert!(!test.exceeds(3.09), "flight [{x}, {y}], stratum {stratum}: {test:?}");
        }
    }
}

const SWEEP_P: f64 = 0.5;

/// One seeded flight `[a, b, a, b]` of the two sweeps below, at `p = 0.5`
/// over 5-cell buckets (0 to 40 downloaded cells), whose third query
/// rewrites cell 1 of `a`.
struct SweepCase {
    seed: u64,
    /// Root-to-leaf paths of a binary tree under a two-cell trunk: a
    /// bucket's last cell is its own, so late slots hold fresh addresses.
    buckets: Vec<Vec<usize>>,
    cells: Vec<Vec<u8>>,
    flight: [usize; 4],
    /// What the server holds after a sequential run of the flight.
    after: Vec<Vec<u8>>,
    /// The `(d_j, o_j)` of the flight and the (server address, in the
    /// decrypt set) of every download position — the downloaded bucket of
    /// every query that is not stashed, `bucket(o_j)` of every query whose
    /// stash coin came up — replayed from the coins in the order set-up and
    /// the plan step draw them (NOTES entries 1 and 3).
    traces: Vec<BucketTrace>,
    positions: Vec<(usize, bool)>,
}

impl SweepCase {
    fn new(seed: u64) -> Self {
        let buckets: Vec<Vec<usize>> =
            (0..8).map(|i| vec![15, 14, 12 + i / 4, 8 + i / 2, i]).collect();
        let cells: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
        let (a, b) = (seed as usize % 8, seed as usize / 4);
        let flight = [a, b, a, b];
        let mut after = cells.clone();
        after[buckets[a][1]] = vec![0xAB; 8];

        // Cipher key, one nonce per cell, one stash coin per bucket; then
        // Algorithm 3's draws for each query of the flight.
        let mut coins = ChaChaRng::seed_from_u64(seed);
        BlockCipher::generate(&mut coins);
        coins.draw_nonces(cells.len());
        let stashed_at_setup: Vec<bool> = buckets.iter().map(|_| coins.gen_bool(SWEEP_P)).collect();
        let mut plans: Vec<(bool, bool, BucketTrace)> = Vec::new();
        for (j, &bucket) in flight.iter().enumerate() {
            let stashed = match flight[..j].iter().rposition(|&earlier| earlier == bucket) {
                Some(i) => plans[i].1,
                None => stashed_at_setup[bucket],
            };
            let download = if stashed { coins.gen_index(buckets.len()) } else { bucket };
            let stash = coins.gen_bool(SWEEP_P);
            let overwrite = if stash { coins.gen_index(buckets.len()) } else { bucket };
            plans.push((stashed, stash, BucketTrace { download, overwrite }));
        }
        let mut positions: Vec<(usize, bool)> = Vec::new();
        for &(stashed, stash, trace) in &plans {
            positions.extend(buckets[trace.download].iter().map(|&c| (c, !stashed)));
            positions.extend(buckets[trace.overwrite].iter().map(|&c| (c, stash)));
        }
        let traces = plans.iter().map(|&(_, _, trace)| trace).collect();
        Self { seed, buckets, cells, flight, after, traces, positions }
    }

    fn build<S: Storage>(&self, server: S) -> (BucketRam<S>, ChaChaRng) {
        let mut rng = ChaChaRng::seed_from_u64(self.seed);
        let (cells, buckets) = (self.cells.clone(), self.buckets.clone());
        (BucketRam::setup(cells, buckets, SWEEP_P, server, &mut rng).unwrap(), rng)
    }

    fn run<S: Storage>(
        &self,
        ram: &mut BucketRam<S>,
        rng: &mut ChaChaRng,
    ) -> Result<Vec<(Vec<u8>, BucketTrace)>, BucketRamError> {
        let update = |j: usize, contents: &mut [u8]| {
            if j == 2 {
                contents[8..16].fill(0xAB);
            }
        };
        Ok(owned(ram.query_batch(&self.flight, update, rng)?, 4))
    }

    fn view(&self, model: &[Vec<u8>], bucket: usize) -> Vec<u8> {
        self.buckets[bucket]
            .iter()
            .flat_map(|&c| model[c].clone())
            .collect()
    }

    /// `out` is what a sequential run returns, and every bucket now reads
    /// as that run leaves it.
    fn check<S: Storage>(
        &self,
        out: Vec<(Vec<u8>, BucketTrace)>,
        ram: &mut BucketRam<S>,
        rng: &mut ChaChaRng,
    ) {
        let seed = self.seed;
        for (j, (contents, _)) in out.iter().enumerate() {
            let model = if j < 2 { &self.cells } else { &self.after };
            assert_eq!(contents, &self.view(model, self.flight[j]), "seed {seed}, query {j}");
        }
        let every: Vec<usize> = (0..self.buckets.len()).collect();
        let all = ram.query_batch(&every, |_, _| {}, rng).unwrap();
        for bucket in every {
            let expected = self.view(&self.after, bucket);
            assert_eq!(all.contents(bucket), expected, "seed {seed}, bucket {bucket}");
        }
    }

    /// The flight failed on `addr` after its download alone, and left the
    /// client as it was.
    fn assert_failed_on<S: Storage>(
        &self,
        outcome: Result<Vec<(Vec<u8>, BucketTrace)>, BucketRamError>,
        addr: usize,
        ram: &BucketRam<S>,
        before: (dps_server::CostStats, usize, usize),
        at: usize,
    ) {
        let seed = self.seed;
        match outcome {
            Err(BucketRamError::Crypto(message)) => assert!(
                message.starts_with(&format!("cell {addr}: ")),
                "seed {seed}, position {at}: {message}"
            ),
            other => panic!("seed {seed}, position {at}: expected a crypto error, got {other:?}"),
        }
        let moved = ram.server_stats().since(&before.0);
        assert_eq!(
            (moved.downloads, moved.uploads, moved.round_trips),
            (self.positions.len() as u64, 0, 1),
            "seed {seed}, position {at}"
        );
        assert_eq!(
            (ram.stashed_bucket_count(), ram.stashed_cell_count()),
            (before.1, before.2),
            "seed {seed}, position {at}: a failed flight must leave the stash alone"
        );
    }
}

fn client_state<S: Storage>(ram: &BucketRam<S>) -> (dps_server::CostStats, usize, usize) {
    (ram.server_stats(), ram.stashed_bucket_count(), ram.stashed_cell_count())
}

/// Tamper sweep over a flight's decrypt set — the cells its plans say will
/// be read. The set is opened by one batch decrypt of its *distinct*
/// ciphertexts (a cell of the set downloaded twice holds one slot; 8 cells
/// per wide pass, then 4, then one by one), so every download position is
/// tried: a flipped bit in a server cell of the set fails the flight before
/// anything is uploaded or the client changes, names the cell, and the
/// flight succeeds once the cell is restored; a flipped bit in a cell the
/// flight downloads only outside the set (a decoy) goes unnoticed, as it
/// always did — batching neither widens nor narrows what is verified.
#[test]
fn flight_verifies_exactly_its_decrypt_set() {
    let mut lane_classes = [0u32; 3]; // first failing cell in an 8-group, the 4-group, the tail
    let mut unnoticed = 0u32;
    for seed in 0..32u64 {
        let case = SweepCase::new(seed);
        let (mut ram, mut rng) = case.build(SimServer::new());
        let out = case.run(&mut ram, &mut rng).unwrap();
        let traces: Vec<BucketTrace> = out.iter().map(|(_, trace)| *trace).collect();
        assert_eq!(traces, case.traces, "seed {seed}: the replayed coins are the flight's");
        case.check(out, &mut ram, &mut rng);

        // One slot per distinct address of the set, in download order: the
        // server is honest within a flight, so both copies are byte-equal.
        let mut slots: Vec<usize> = Vec::new();
        for &(addr, read) in &case.positions {
            if read && !slots.contains(&addr) {
                slots.push(addr);
            }
        }
        for (at, &(addr, _)) in case.positions.iter().enumerate() {
            let (mut ram, mut rng) = case.build(SimServer::new());
            let good = ram.server_mut().read(addr).unwrap();
            let mut bad = good.clone();
            bad[at % good.len()] ^= 1 << (at % 8);
            ram.server_mut().write(addr, bad.clone()).unwrap();
            let before = client_state(&ram);

            // The batch fails at the slot holding `addr`.
            let Some(slot) = slots.iter().position(|&cell| cell == addr) else {
                let out = case.run(&mut ram, &mut rng).unwrap();
                // A decoy stays as it was; a written-back cell was replaced.
                if ram.server_mut().read(addr).unwrap() == bad {
                    ram.server_mut().write(addr, good).unwrap();
                }
                case.check(out, &mut ram, &mut rng);
                unnoticed += 1;
                continue;
            };
            let lane_class = match slot {
                _ if slot < slots.len() / 8 * 8 => 0,
                _ if slot < slots.len() / 4 * 4 => 1,
                _ => 2,
            };
            lane_classes[lane_class] += 1;
            let outcome = case.run(&mut ram, &mut rng);
            case.assert_failed_on(outcome, addr, &ram, before, at);
            ram.server_mut().write(addr, good).unwrap();
            let out = case.run(&mut ram, &mut rng).unwrap();
            case.check(out, &mut ram, &mut rng);
        }
    }
    assert!(lane_classes.iter().all(|&hits| hits > 20), "lane classes hit: {lane_classes:?}");
    assert!(unnoticed > 20, "decoy-only positions tried: {unnoticed}");
}

/// A server written against `Storage`'s required methods that lies on one
/// delivery: the cell at download position `lie_at` of a `read_batch_with`
/// arrives with one bit flipped; every other delivery — of the same address
/// in the same request too — and the stored cell are as they should be.
#[derive(Debug, Default)]
struct Liar {
    inner: SimServer,
    lie_at: Option<usize>,
}

impl Storage for Liar {
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        self.inner.init_with(capacity, produce);
    }
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }
    fn cell_stride(&self) -> usize {
        self.inner.cell_stride()
    }
    fn start_recording(&mut self) {
        self.inner.start_recording();
    }
    fn take_transcript(&mut self) -> dps_server::Transcript {
        self.inner.take_transcript()
    }
    fn stats(&self) -> dps_server::CostStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), dps_server::ServerError> {
        let lie_at = self.lie_at;
        self.inner.read_batch_with(addrs, |i, cell| {
            if lie_at == Some(i) {
                let mut bad = cell.to_vec();
                bad[i % cell.len()] ^= 1 << (i % 8);
                visit(i, &bad);
            } else {
                visit(i, cell);
            }
        })
    }
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), dps_server::ServerError> {
        self.inner.write_cells(cells)
    }
    fn xor_cells_into(
        &mut self,
        addrs: &[usize],
        acc: &mut Vec<u8>,
    ) -> Result<(), dps_server::ServerError> {
        self.inner.xor_cells_into(addrs, acc)
    }
}

/// A byte-equal twin shares its first copy's decrypt slot (NOTES entry 9);
/// a twin that is *not* byte-equal must not. Over the sweep's flights, for
/// every address the flight downloads more than once, the server lies on
/// only the second delivery, then on only the first: whichever copy it is,
/// a position in the decrypt set fails the flight with the cell named,
/// nothing uploaded and the stash untouched; a position outside it goes
/// unnoticed; and once the server is honest again the flight returns what
/// the sequential run returns.
#[test]
fn a_lie_on_one_copy_of_a_cell_is_caught() {
    let mut caught = [0u32; 2]; // lies on a first, a later delivery, the other copy in the set too
    for seed in 0..32u64 {
        let case = SweepCase::new(seed);
        let (mut ram, mut rng) = case.build(Liar::default());
        let out = case.run(&mut ram, &mut rng).unwrap();
        case.check(out, &mut ram, &mut rng);

        for (at, &(addr, read)) in case.positions.iter().enumerate() {
            let copies: Vec<usize> = (0..case.positions.len())
                .filter(|&i| case.positions[i].0 == addr)
                .collect();
            if copies.len() < 2 {
                continue;
            }
            let (mut ram, mut rng) = case.build(Liar::default());
            ram.server_mut().lie_at = Some(at);
            let before = client_state(&ram);
            let outcome = case.run(&mut ram, &mut rng);
            ram.server_mut().lie_at = None;
            if read {
                case.assert_failed_on(outcome, addr, &ram, before, at);
                if copies.iter().any(|&i| i != at && case.positions[i].1) {
                    caught[usize::from(at != copies[0])] += 1;
                }
                let out = case.run(&mut ram, &mut rng).unwrap();
                case.check(out, &mut ram, &mut rng);
            } else {
                case.check(outcome.unwrap(), &mut ram, &mut rng);
            }
        }
    }
    assert!(
        caught.iter().all(|&lies| lies > 20),
        "lies caught on (first, later) copies: {caught:?}"
    );
}
