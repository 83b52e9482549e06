//! Crash-recovery property suite for the durable [`DiskStore`].
//!
//! The contract under test (the tentpole of the durability work):
//!
//! - **Atomic batches.** For a randomized program of mutating batches, a
//!   crash injected at *any* I/O event — with the crashing write torn to a
//!   prefix and the unsynced window reordered ([`Tear::Prefix`]), and again
//!   with every unsynced write cut into 512-byte sectors that land or not
//!   on their own ([`Tear::Sectors`]) — leaves the store recoverable to
//!   the in-memory oracle's state at a batch boundary: pre-batch or
//!   post-batch, never a torn mixture.
//! - **Acknowledged batches survive.** Every batch whose call returned
//!   `Ok` before the crash is present in the recovered state (its WAL
//!   record was fsynced before the acknowledgement).
//! - **Recovery never panics and never silently loses data.** Crashes
//!   during recovery's own replay checkpoint re-recover identically;
//!   genuine corruption (bit rot) surfaces as [`DiskError::Corrupt`].
//!
//! Seeds derive from `DPS_CRASH_SEED` (pinned in CI) so failures
//! reproduce exactly.

use dps_crypto::rng::splitmix64;
use dps_server::{
    CrashSim, DiskError, DiskFile, DiskOptions, DiskStore, RealVfs, ServerError, SimEvent, SimOp,
    SimServer, Storage, Tear, Vfs,
};

fn base_seed() -> u64 {
    dps_server::settings::from_env("DPS_CRASH_SEED").unwrap_or(0xD15C_5EED)
}

fn seeds(offset: u64, count: u64) -> Vec<u64> {
    let base = base_seed();
    (offset..offset + count)
        .map(|i| base.wrapping_add(i.wrapping_mul(0x9E37_79B9)))
        .collect()
}

/// Tiny deterministic generator (splitmix64 stream).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One server round trip of the randomized program. Only valid operations
/// are generated (bounds-correct, cells of the stride of the set-up before
/// them) plus `Refused`, a batch with one cell longer or shorter than the
/// stride, and `RaggedInit`, a set-up of two cell lengths, which the store
/// refuses (the set-up by panicking) before it does any I/O: invalid-op
/// equivalence is the `store_equivalence` suite's job; this suite is about
/// durability.
// Variants mirror the `Storage` methods they drive (`write_batch`, ...).
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone)]
enum Batch {
    Init(Vec<Vec<u8>>),
    WriteOwned(Vec<(usize, Vec<u8>)>),
    WriteStrided(Vec<usize>, Vec<u8>),
    WriteFrom(usize, Vec<u8>),
    Checkpoint,
    /// A `write_batch` and the refusal it must get.
    Refused(Vec<(usize, Vec<u8>)>, ServerError),
    /// A set-up whose cells differ in length, which must panic.
    RaggedInit(Vec<Vec<u8>>),
}

fn cell(rng: &mut Rng, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next() as u8).collect()
}

fn gen_writes(rng: &mut Rng, capacity: usize, stride: u64) -> Vec<(usize, Vec<u8>)> {
    let n = rng.below(4) as usize;
    (0..n)
        .map(|_| (rng.below(capacity as u64) as usize, cell(rng, stride)))
        .collect()
}

/// A set-up of `capacity` cells of one length up to 10 bytes (0 included),
/// and the stride it fixes.
fn set_up(rng: &mut Rng, capacity: usize) -> (Batch, u64) {
    let stride = rng.below(11);
    let cells: Vec<Vec<u8>> = (0..capacity).map(|_| cell(rng, stride)).collect();
    (Batch::Init(cells), stride)
}

fn gen_program(rng: &mut Rng) -> Vec<Batch> {
    let mut capacity = 6 + rng.below(6) as usize;
    let (first, mut stride) = set_up(rng, capacity);
    let mut batches = vec![first];
    for _ in 0..6 + rng.below(4) {
        let batch = match rng.below(11) {
            // A second set-up over the store: a geometry checkpoint inside
            // the sweep, at a new capacity and stride.
            0 => {
                capacity = 4 + rng.below(8) as usize;
                let (batch, new_stride) = set_up(rng, capacity);
                stride = new_stride;
                batch
            }
            1 => Batch::Checkpoint,
            2 | 3 => {
                let n = 1 + rng.below(4) as usize;
                let addrs: Vec<usize> =
                    (0..n).map(|_| rng.below(capacity as u64) as usize).collect();
                let flat = (0..n * stride as usize).map(|_| rng.next() as u8).collect();
                Batch::WriteStrided(addrs, flat)
            }
            4 => {
                let addr = rng.below(capacity as u64) as usize;
                Batch::WriteFrom(addr, cell(rng, stride))
            }
            5 if rng.below(4) == 0 => {
                let (Batch::Init(mut cells), _) = set_up(rng, capacity) else { unreachable!() };
                let odd = rng.below(capacity as u64) as usize;
                cells[odd].push(0xEE);
                Batch::RaggedInit(cells)
            }
            5 => {
                let mut writes = gen_writes(rng, capacity, stride);
                let addr = rng.below(capacity as u64) as usize;
                // Longer, or — where there is room — shorter.
                let len = match rng.below(2) {
                    0 if stride > 0 => rng.below(stride),
                    _ => stride + 1 + rng.below(4),
                } as usize;
                let at = rng.below(writes.len() as u64 + 1) as usize;
                writes.insert(at, (addr, vec![0xEE; len]));
                let refusal = ServerError::WrongCellLength { addr, len, stride: stride as usize };
                Batch::Refused(writes, refusal)
            }
            _ => Batch::WriteOwned(gen_writes(rng, capacity, stride)),
        };
        batches.push(batch);
    }
    batches
}

/// The crash fired inside this batch (it returned the typed interruption).
struct Crashed;

fn apply_disk(store: &mut DiskStore<CrashSim>, batch: &Batch) -> Result<(), Crashed> {
    let result = match batch {
        Batch::Init(cells) => return disk_setup(store.try_init(cells.clone())),
        Batch::Checkpoint => return disk_setup(store.checkpoint()),
        Batch::WriteOwned(writes) => store.write_batch(writes.clone()),
        Batch::WriteStrided(addrs, flat) => store.write_batch_strided(addrs, flat),
        Batch::WriteFrom(addr, cell) => store.write_from(*addr, cell),
        // Refused by the model before the store is asked — on a poisoned
        // store too — so it can neither crash nor be interrupted.
        Batch::Refused(writes, refusal) => {
            assert_eq!(store.write_batch(writes.clone()), Err(refusal.clone()));
            return Ok(());
        }
        Batch::RaggedInit(cells) => {
            ragged_init_panics(|| drop(store.try_init(cells.clone())));
            return Ok(());
        }
    };
    match result {
        Ok(()) => Ok(()),
        Err(ServerError::Interrupted) => Err(Crashed),
        Err(e) => panic!("program generated an invalid batch: {e}"),
    }
}

fn disk_setup(result: Result<(), DiskError>) -> Result<(), Crashed> {
    match result {
        Ok(()) => Ok(()),
        Err(DiskError::Io { .. }) => Err(Crashed),
        Err(e) => panic!("setup hit non-I/O error: {e}"),
    }
}

/// Runs a set-up of two cell lengths, which must panic.
fn ragged_init_panics(init: impl FnOnce()) {
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(init));
    assert!(panicked.is_err(), "a set-up of two cell lengths was taken");
}

fn apply_oracle(oracle: &mut SimServer, batch: &Batch) {
    match batch {
        Batch::Init(cells) => oracle.init(cells.clone()),
        Batch::RaggedInit(cells) => ragged_init_panics(|| oracle.init(cells.clone())),
        Batch::Refused(writes, refusal) => {
            assert_eq!(oracle.write_batch(writes.clone()), Err(refusal.clone()));
        }
        Batch::Checkpoint => {}
        Batch::WriteOwned(writes) => oracle.write_batch(writes.clone()).unwrap(),
        Batch::WriteStrided(addrs, flat) => oracle.write_batch_strided(addrs, flat).unwrap(),
        Batch::WriteFrom(addr, cell) => oracle.write_from(*addr, cell).unwrap(),
    }
}

/// The logical contents of a store: capacity plus per-cell values.
type State = (usize, Vec<Vec<u8>>);

fn state_of(store: &mut impl Storage) -> State {
    let capacity = store.capacity();
    let cells = (0..capacity)
        .map(|addr| {
            store
                .read(addr)
                .unwrap_or_else(|e| panic!("state probe failed: {e}"))
        })
        .collect();
    (capacity, cells)
}

fn opts_for(seed: u64) -> DiskOptions {
    // Vary the auto-checkpoint threshold so some seeds sweep crashes
    // through mid-program light checkpoints and others through a long WAL.
    let wal_checkpoint_bytes = match seed % 3 {
        0 => 96,
        1 => 1 << 20,
        _ => 256,
    };
    // Sweep the cache budget too: the env-aware default, which the CI
    // small-cache leg pins tiny, plus two hard-coded tiny budgets that
    // force misses and write-backs inside the crash schedule.
    let cache_bytes = match (seed / 3) % 3 {
        0 => DiskOptions::default().cache_bytes,
        1 => 256,
        _ => 64,
    };
    DiskOptions { wal_checkpoint_bytes, cache_bytes }
}

/// Runs the program with no crash plan, recording the oracle state at
/// every batch boundary and the total I/O event count.
fn baseline(seed: u64, program: &[Batch]) -> (Vec<State>, u64) {
    let sim = CrashSim::new(seed);
    let mut store =
        DiskStore::open_on(sim.clone(), opts_for(seed)).expect("clean open must succeed");
    let mut oracle = SimServer::new();
    let mut snaps = vec![state_of(&mut oracle)];
    for batch in program {
        let (events, stats) = (sim.events(), store.stats());
        assert!(apply_disk(&mut store, batch).is_ok(), "no crash planned");
        if let Batch::Refused(..) | Batch::RaggedInit(..) = batch {
            // No I/O, so no crash point; no charge either.
            assert_eq!((sim.events(), store.stats()), (events, stats), "{batch:?}");
        }
        apply_oracle(&mut oracle, batch);
        snaps.push(state_of(&mut oracle));
    }
    assert_eq!(state_of(&mut store), *snaps.last().unwrap(), "live store drifted from oracle");
    (snaps, sim.events())
}

fn open_recovered(sim: &CrashSim, seed: u64, context: &str) -> DiskStore<CrashSim> {
    reopen(sim, opts_for(seed), context)
}

fn reopen(sim: &CrashSim, opts: DiskOptions, context: &str) -> DiskStore<CrashSim> {
    match DiskStore::open_on(sim.clone(), opts) {
        Ok(store) => store,
        Err(e) => panic!("{context}: recovery must always succeed after a pure crash: {e}"),
    }
}

/// Recovery must land on a batch boundary in the *committed-prefix* range:
/// no earlier than `acked` (every batch that returned `Ok` had its record
/// synced first) and no later than `acked + 1` (the one in-flight batch
/// whose record may have reached the torn WAL tail).
fn assert_at_boundary(got: &State, snaps: &[State], acked: usize, context: &str) {
    let hi = (acked + 1).min(snaps.len() - 1);
    assert!(
        snaps[acked..=hi].contains(got),
        "{context}: recovered state is not at a committed batch boundary \
         (acked {acked}: got capacity {}, allowed capacities {:?})",
        got.0,
        snaps[acked..=hi].iter().map(|s| s.0).collect::<Vec<_>>(),
    );
}

/// The main sweep: for every seed, run the randomized program once to
/// completion, then re-run it with a crash injected at every single I/O
/// event — once tearing like a pipe (cycling torn-write fractions), once
/// like a disk (sector subsets) — recover, and check the contract.
/// A sub-sweep re-crashes *during recovery itself* (checkpoint-during-
/// replay) and requires the second recovery to land on the same boundary.
fn sweep(seed_offset: u64, seed_count: u64) {
    for seed in seeds(seed_offset, seed_count) {
        let program = gen_program(&mut Rng(seed));
        let (snaps, total_events) = baseline(seed, &program);
        // (An upload costs one WAL write and one sync, so a short program
        // is a dozen events plus its checkpoints.)
        assert!(total_events > 12, "seed {seed}: program did almost no I/O ({total_events})");
        for sectors in [false, true] {
            sweep_crash_points(seed, &program, &snaps, total_events, sectors);
        }
    }
}

fn sweep_crash_points(
    seed: u64,
    program: &[Batch],
    snaps: &[State],
    total_events: u64,
    sectors: bool,
) {
    let mut mid_program_crashes = 0u64;
    for k in 0..=total_events {
        let tear = if sectors {
            Tear::Sectors
        } else {
            Tear::Prefix([0u16, 333, 667, 1000][(k % 4) as usize])
        };
        let sim = CrashSim::new(seed);
        sim.plan_crash_tearing(k, tear);
        let mut crashed = false;
        let mut acked = 0usize;
        match DiskStore::open_on(sim.clone(), opts_for(seed)) {
            Err(DiskError::Corrupt { detail }) => {
                panic!("seed {seed} k={k}: crash during open misreported as corruption: {detail}")
            }
            Err(DiskError::Io { .. }) => crashed = true,
            Ok(mut store) => {
                for batch in program {
                    match apply_disk(&mut store, batch) {
                        Ok(()) => acked += 1,
                        Err(Crashed) => {
                            crashed = true;
                            break;
                        }
                    }
                }
            }
        }
        if !crashed {
            // Either the crash hit a post-acknowledgement auto
            // checkpoint (the batch legitimately returned Ok — it is
            // durable either way), or the plan never fired at all
            // (k == total_events): both must recover to the final
            // acknowledged state.
            assert!(
                sim.crashed() || k == total_events,
                "crash at event {k} of {total_events} never fired"
            );
            acked = program.len();
        }
        if sim.crashed() {
            mid_program_crashes += 1;
        }
        let context = format!("seed {seed} k={k} {tear:?}");

        // Occasionally crash a second time, mid-recovery, to cover
        // checkpoint-during-replay; otherwise recover once.
        if k % 5 == 0 {
            sim.recover();
            let again =
                if sectors { Tear::Sectors } else { Tear::Prefix([0, 500][(k % 2) as usize]) };
            sim.plan_crash_tearing(sim.events() + k % 13, again);
            match DiskStore::open_on(sim.clone(), opts_for(seed)) {
                Ok(mut store) => assert_at_boundary(&state_of(&mut store), snaps, acked, &context),
                Err(DiskError::Io { .. }) => {
                    sim.recover();
                    let context = format!("{context} double-crash");
                    let mut store = open_recovered(&sim, seed, &context);
                    assert_at_boundary(&state_of(&mut store), snaps, acked, &context);
                }
                Err(DiskError::Corrupt { detail }) => {
                    panic!("{context}: recovery crash misreported as corruption: {detail}")
                }
            }
        } else {
            sim.recover();
            let mut store = open_recovered(&sim, seed, &context);
            assert_at_boundary(&state_of(&mut store), snaps, acked, &context);
        }
    }
    assert_eq!(
        mid_program_crashes, total_events,
        "seed {seed}: every in-range crash point must actually crash the run"
    );
}

// The 32 acceptance seeds, split four ways so `cargo test` fans them out.

#[test]
fn crash_sweep_recovers_to_a_batch_boundary_seeds_0_7() {
    sweep(0, 8);
}

#[test]
fn crash_sweep_recovers_to_a_batch_boundary_seeds_8_15() {
    sweep(8, 8);
}

#[test]
fn crash_sweep_recovers_to_a_batch_boundary_seeds_16_23() {
    sweep(16, 8);
}

#[test]
fn crash_sweep_recovers_to_a_batch_boundary_seeds_24_31() {
    sweep(24, 8);
}

/// Focused fsync-acknowledgement check: once a specific write returns
/// `Ok`, *every* later crash point must preserve it (the sweep above
/// checks this generically; this test makes the guarantee legible).
#[test]
fn acknowledged_write_survives_every_later_crash() {
    let seed = base_seed() ^ 0xACED;
    let marker = vec![0xA5u8; 8];
    let opts = opts_for(seed);

    // Dry run to learn the event counts.
    let sim = CrashSim::new(seed);
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..8).map(|i| vec![i as u8; 8]).collect());
    store.write(3, marker.clone()).unwrap();
    let acked_at = sim.events();
    for i in 0..16 {
        store.write(i % 8, vec![i as u8; 8]).unwrap();
    }
    let total = sim.events();

    for k in acked_at..=total {
        let sim = CrashSim::new(seed);
        sim.plan_crash(k, (k % 1000) as u16);
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        store.init((0..8).map(|i| vec![i as u8; 8]).collect());
        store.write(3, marker.clone()).unwrap();
        // Cell 3 after recovery must equal its latest *acknowledged*
        // write, or the one write that was interrupted mid-flight
        // (`Interrupted` = application state unknown) — nothing else, and
        // never absent or torn.
        let mut allowed = vec![marker.clone()];
        for i in 0..16u64 {
            let cell = vec![i as u8; 8];
            let targets_3 = i % 8 == 3;
            match store.write((i % 8) as usize, cell.clone()) {
                Ok(()) => {
                    if targets_3 {
                        allowed = vec![cell];
                    }
                }
                Err(_) => {
                    if targets_3 {
                        allowed.push(cell);
                    }
                    break;
                }
            }
        }
        sim.recover();
        let mut store = open_recovered(&sim, seed, &format!("acked k={k}"));
        let got = store
            .read(3)
            .expect("acknowledged cell must exist after recovery");
        assert!(allowed.contains(&got), "k={k}: cell 3 lost or torn: {got:?} not in {allowed:?}");
    }
}

/// A crash that leaves records in the WAL, then crashes *again* at every
/// point of the recovery replay + checkpoint: recovery must be idempotent.
#[test]
fn recovery_replay_survives_its_own_crashes() {
    let seed = base_seed() ^ 0x2EC0;
    let sim = CrashSim::new(seed);
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, ..DiskOptions::default() };
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..6).map(|i| vec![i as u8; 6]).collect());
    store
        .write_batch(vec![(0, vec![9; 6]), (5, vec![8; 6])])
        .unwrap();
    store.write(2, vec![7; 6]).unwrap();
    drop(store);
    // Power loss with a populated WAL: the arena pwrites were never
    // synced, so recovery must rebuild cells 0/5/2 from the log.
    sim.recover();
    let base_events = sim.events();

    let expected = {
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        let state = state_of(&mut store);
        assert_eq!(state.1[0], [9u8; 6]);
        assert_eq!(state.1[5], [8u8; 6]);
        assert_eq!(state.1[2], [7u8; 6]);
        state
    };
    let replay_events = sim.events() - base_events;
    assert!(replay_events > 0, "recovery should have done I/O");

    for j in 0..replay_events {
        // Rebuild the same pre-recovery disk image, then crash mid-replay.
        let sim = CrashSim::new(seed);
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        store.init((0..6).map(|i| vec![i as u8; 6]).collect());
        store
            .write_batch(vec![(0, vec![9; 6]), (5, vec![8; 6])])
            .unwrap();
        store.write(2, vec![7; 6]).unwrap();
        drop(store);
        sim.recover();
        sim.plan_crash(sim.events() + j, 500);
        match DiskStore::open_on(sim.clone(), opts) {
            Ok(mut store) => assert_eq!(state_of(&mut store), expected, "j={j}"),
            Err(DiskError::Io { .. }) => {
                sim.recover();
                let mut store = open_recovered(&sim, seed, &format!("replay j={j}"));
                assert_eq!(state_of(&mut store), expected, "j={j} after second recovery");
            }
            Err(DiskError::Corrupt { detail }) => {
                panic!("j={j}: replay crash misreported as corruption: {detail}")
            }
        }
    }
}

/// Bit rot in a complete mid-log record is *typed corruption*, not a
/// silent truncation — exercised both on the simulator and on real files.
#[test]
fn bit_flipped_wal_record_is_typed_corruption() {
    let seed = base_seed() ^ 0xB17F;
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, ..DiskOptions::default() };

    // Two complete records in the WAL; flip one payload bit of the first.
    let sim = CrashSim::new(seed);
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..4).map(|i| vec![i as u8; 8]).collect());
    let wal_before = store.wal_bytes();
    store.write(1, vec![0xEE; 8]).unwrap();
    store.write(2, vec![0xDD; 8]).unwrap();
    assert!(store.wal_bytes() > wal_before);
    drop(store);
    sim.recover();
    // Offset: WAL header (20 bytes) + record header (8) + into the payload.
    sim.corrupt_byte("wal", wal_before + 8 + 3, 0x10);
    match DiskStore::open_on(sim.clone(), opts) {
        Err(DiskError::Corrupt { .. }) => {}
        other => panic!("corrupted record must surface as Corrupt, got {other:?}"),
    }

    // Flipping the record's own CRC field is equally fatal.
    let sim = CrashSim::new(seed);
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..4).map(|i| vec![i as u8; 8]).collect());
    let wal_before = store.wal_bytes();
    store.write(1, vec![0xEE; 8]).unwrap();
    store.write(2, vec![0xDD; 8]).unwrap();
    drop(store);
    sim.recover();
    sim.corrupt_byte("wal", wal_before + 4, 0x01); // crc field of record 1
    assert!(matches!(DiskStore::open_on(sim.clone(), opts), Err(DiskError::Corrupt { .. })));
}

#[test]
fn bit_flipped_wal_record_is_typed_corruption_on_real_files() {
    let dir = std::env::temp_dir().join(format!("dps_crash_corrupt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, ..DiskOptions::default() };
    let wal_before;
    {
        let mut store = DiskStore::open_with(&dir, opts).unwrap();
        store.init((0..4).map(|i| vec![i as u8; 8]).collect());
        wal_before = store.wal_bytes();
        store.write(1, vec![0xEE; 8]).unwrap();
        store.write(2, vec![0xDD; 8]).unwrap();
    }
    let wal_path = dir.join("wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[wal_before as usize + 8 + 3] ^= 0x10;
    std::fs::write(&wal_path, &bytes).unwrap();
    assert!(matches!(DiskStore::open_with(&dir, opts), Err(DiskError::Corrupt { .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stride-0 store is first-class: its empty cells are logged,
/// checkpointed and recovered, and a cell with a byte is refused before any
/// I/O.
#[test]
fn zero_length_cells_survive_restart() {
    let seed = base_seed() ^ 0x0CE1;
    let sim = CrashSim::new(seed);
    let opts = opts_for(seed);
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init(vec![Vec::new(); 3]);
    store.write(1, Vec::new()).unwrap(); // an empty cell via the WAL
    store.checkpoint().unwrap();
    let events = sim.events();
    let refused = Err(ServerError::WrongCellLength { addr: 0, len: 1, stride: 0 });
    assert_eq!(store.write(0, vec![7]), refused);
    assert_eq!(sim.events(), events, "a refused cell reached the disk");
    store
        .write_batch(vec![(0, Vec::new()), (2, Vec::new())])
        .unwrap(); // post-checkpoint
    drop(store);
    sim.recover();
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    let state = state_of(&mut store);
    assert_eq!(
        state,
        (3, vec![Vec::new(); 3]),
        "zero-length cells must stay empty values through WAL replay"
    );
    assert_eq!(store.cell_stride(), 0);
}

/// After the crash fires, the store is poisoned: mutations fail fast with
/// the typed interruption and nothing further reaches the files. Reads
/// keep serving *cache hits* (including the interrupted write's applied
/// cell — "state unknown" allows either value), but a cache miss would
/// have to touch the failing file, so it surfaces the same typed error.
#[test]
fn crashed_store_poisons_until_reopen() {
    let seed = base_seed() ^ 0x9015;
    let sim = CrashSim::new(seed);
    // A 2-slot cache (below the 16-byte database) so the store runs
    // bounded — with an identity-mode budget every read is a hit and the
    // miss expectation below could never fire.
    let opts = DiskOptions { cache_bytes: 8, ..opts_for(seed) };
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..4).map(|i| vec![i as u8; 4]).collect());
    sim.plan_crash(sim.events(), 0);
    assert_eq!(store.write(0, vec![9; 4]), Err(ServerError::Interrupted));
    assert!(store.is_poisoned());
    assert_eq!(store.write(1, vec![9; 4]), Err(ServerError::Interrupted));
    assert_eq!(store.write_batch_strided(&[0], &[1, 2, 3, 4]), Err(ServerError::Interrupted));
    // Cell 0 was applied to the cache before the commit failed: a hit,
    // serving the in-flight value. Cell 1 was rejected before it was
    // applied and is not resident: a miss, typed error.
    assert_eq!(store.read(0).unwrap(), vec![9u8; 4]);
    assert_eq!(store.read(1), Err(ServerError::Interrupted));
    drop(store);
    sim.recover();
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    assert_eq!(state_of(&mut store), (4, (0..4).map(|i| vec![i as u8; 4]).collect()));
}

// ---------------------------------------------------------------------------
// The preallocated, recycled log (invariants I1–I4 of `dps_server::disk`) and
// write-back deferred to the checkpoint.
// ---------------------------------------------------------------------------

/// What survived on the simulated disk (call after [`CrashSim::recover`]).
fn durable_file(sim: &CrashSim, name: &str) -> Vec<u8> {
    let file = sim.clone().open(name).unwrap();
    let mut bytes = vec![0u8; file.file_len().unwrap() as usize];
    assert_eq!(file.read_at(0, &mut bytes).unwrap(), bytes.len());
    bytes
}

const WAL_HEADER: usize = 20;
const SECTOR: usize = dps_server::crashsim::SECTOR as usize;

/// I1, with fixed-size cells and a batch of two: the batch's one WAL
/// write is cut so that (for some seeds) only its second sector lands.
/// Recovery must not restart the log under the stamp those bytes carry, and
/// whatever is acknowledged afterwards — records of exactly the torn
/// batch's length — and however the next crash falls, the batch that was
/// never acknowledged never becomes visible.
#[test]
fn a_torn_window_is_not_resurrected_by_later_records_of_its_length() {
    let cell = |byte: u8| vec![byte; 300];
    let opts = DiskOptions { wal_checkpoint_bytes: 8192, cache_bytes: 1 << 20 };
    let mut tails_without_heads = 0;
    for seed in seeds(100, 48) {
        let sim = CrashSim::new(seed);
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        store.init((0..8).map(cell).collect());
        let stamp = store.checkpoint_stamp();
        // Batch [A, B]: one record of 637 bytes at offset 20, so it spans
        // sectors 0 and 1 of the log.
        sim.plan_crash_tearing(sim.events(), Tear::Sectors);
        let torn = vec![(0, cell(0xA0)), (1, cell(0xB0))];
        assert_eq!(store.write_batch(torn), Err(ServerError::Interrupted));
        drop(store);
        sim.recover();
        let wal = durable_file(&sim, "wal");
        let head = wal[WAL_HEADER..SECTOR].iter().any(|&b| b != 0);
        let tail = wal[SECTOR..].iter().any(|&b| b != 0);

        let context = format!("seed {seed} head={head} tail={tail}");
        let mut store = reopen(&sim, opts, &context);
        // Both sectors landed: the in-flight batch is whole and may stand
        // (`Interrupted` = state unknown). Otherwise it is gone.
        let (cell_0, cell_1) = if head && tail { (0xA0, 0xB0) } else { (0, 1) };
        assert_eq!(store.read(0).unwrap(), cell(cell_0), "{context}");
        assert_eq!(store.read(1).unwrap(), cell(cell_1), "{context}");
        if head != tail {
            // Bytes of this generation sit behind the header: the log
            // restarted under a stamp they were not written under.
            assert_eq!(store.checkpoint_stamp(), stamp + 1, "{context}");
            tails_without_heads += u32::from(tail);
        }

        // [A', C']: an acknowledged batch of the same record length.
        store
            .write_batch(vec![(0, cell(0xA1)), (2, cell(0xC1))])
            .unwrap();
        // A second crash, this one leaving nothing of its batch.
        sim.plan_crash(sim.events(), 0);
        let lost = vec![(3, cell(0xD1)), (4, cell(0xE1))];
        assert_eq!(store.write_batch(lost), Err(ServerError::Interrupted));
        drop(store);
        sim.recover();
        let mut store = reopen(&sim, opts, &context);
        let got: Vec<u8> = state_of(&mut store)
            .1
            .into_iter()
            .map(|c| {
                assert!(c.len() == 300 && c.iter().all(|&b| b == c[0]), "{context}: torn cell");
                c[0]
            })
            .collect();
        assert_eq!(
            got,
            [0xA1, cell_1, 0xC1, 3, 4, 5, 6, 7],
            "{context}: a never-acknowledged batch became visible"
        );
    }
    assert!(tails_without_heads > 0, "no seed landed the batch's tail without its head");
}

/// Two checkpoints in a row leave the previous generations' records behind
/// the header; a reopen ignores them (they do not validate under the
/// snapshot's stamp) and finds an empty log.
#[test]
fn stale_generations_behind_the_header_are_ignored() {
    let seed = base_seed() ^ 0x57A1;
    let sim = CrashSim::new(seed);
    let opts = DiskOptions { wal_checkpoint_bytes: 4096, cache_bytes: 1 << 20 };
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..6).map(|i| vec![i as u8; 16]).collect());
    for addr in 0..4 {
        store.write(addr, vec![0xF0 | addr as u8; 16]).unwrap();
    }
    store.checkpoint().unwrap();
    // A shorter generation: the tail of the previous one stays readable
    // as bytes, right behind this generation's one record.
    store.write(5, vec![0x55; 16]).unwrap();
    store.checkpoint().unwrap();
    store.checkpoint().unwrap();
    assert_eq!(store.wal_bytes(), WAL_HEADER as u64);
    let expected = state_of(&mut store);
    drop(store);
    sim.recover();
    let wal = durable_file(&sim, "wal");
    assert_eq!(wal.len(), 4096, "the log keeps its preallocated length");
    assert!(wal[WAL_HEADER..].iter().any(|&b| b != 0), "stale records are still there");
    let mut store = reopen(&sim, opts, "stale generations");
    assert_eq!(store.wal_bytes(), WAL_HEADER as u64);
    assert_eq!(state_of(&mut store), expected);
    // And the log is usable: a write lands and survives another restart.
    store.write(0, vec![0x77; 16]).unwrap();
    drop(store);
    sim.recover();
    let mut store = reopen(&sim, opts, "stale generations, second reopen");
    assert_eq!(store.read(0).unwrap(), vec![0x77; 16]);
    assert_eq!(store.read(5).unwrap(), vec![0x55; 16]);
}

/// A store whose log is shorter than the budget (here: the budget was
/// raised) grows it at its next checkpoint. A crash at every event of that
/// checkpoint — each zero-filling chunk, their sync, the header rewrite,
/// its sync — in both tear modes recovers, to the same cells, without a
/// `Corrupt`.
#[test]
fn crash_anywhere_in_preallocation_or_header_rewrite_recovers() {
    let seed = base_seed() ^ 0x9A11;
    let small = DiskOptions { wal_checkpoint_bytes: 64, cache_bytes: 1 << 20 };
    let big = DiskOptions { wal_checkpoint_bytes: 200_000, ..small };
    // A directory with a short log holding one record; reopening it under
    // the big budget replays the record and checkpoints, which is where
    // the log is grown.
    let build = || {
        let sim = CrashSim::new(seed);
        let mut store = DiskStore::open_on(sim.clone(), small).unwrap();
        store.init((0..8).map(|i| vec![i as u8; 8]).collect());
        store.write(1, vec![0xEE; 8]).unwrap();
        drop(store);
        sim
    };
    let sim = build();
    let before = sim.events();
    let mut store = DiskStore::open_on(sim.clone(), big).unwrap();
    let expected = state_of(&mut store);
    assert_eq!(expected.1[1], [0xEE; 8]);
    let log = sim.event_log();
    let grown: Vec<&SimEvent> = log[before as usize..]
        .iter()
        .filter(|e| e.file == "wal")
        .collect();
    let chunks = grown
        .iter()
        .filter(|e| matches!(e.op, SimOp::Write { len, .. } if len > 20));
    assert_eq!(chunks.count(), 4, "200 000 bytes are zero-filled in four chunks of ≤ 64 KiB");
    assert_eq!(
        grown.last().map(|e| e.op),
        Some(SimOp::Sync),
        "the header rewrite is synced last: {grown:?}"
    );
    assert_eq!(sim.durable_len("wal"), 200_000);
    let after = sim.events();

    for k in before..after {
        for tear in [Tear::Prefix((k % 3 * 500) as u16), Tear::Sectors] {
            let sim = build();
            sim.plan_crash_tearing(k, tear);
            let context = format!("k={k} {tear:?}");
            match DiskStore::open_on(sim.clone(), big) {
                Err(DiskError::Io { .. }) => {}
                other => {
                    panic!("{context}: the planned crash did not interrupt the open: {other:?}")
                }
            }
            sim.recover();
            let mut store = reopen(&sim, big, &context);
            assert_eq!(state_of(&mut store), expected, "{context}");
            // The recovered store finishes what the crash interrupted.
            assert_eq!(sim.durable_len("wal"), 200_000, "{context}");
        }
    }
}

/// A record that does not fit what is left of the preallocated log still
/// commits (the file grows) and recovers, wherever the crash falls.
#[test]
fn a_record_larger_than_the_remaining_log_commits_and_recovers() {
    let seed = base_seed() ^ 0xB16;
    let opts = DiskOptions { wal_checkpoint_bytes: 256, cache_bytes: 1 << 20 };
    let batch = || {
        (0..3)
            .map(|i| (i, vec![0xC0 | i as u8; 100]))
            .collect::<Vec<_>>()
    };
    let build = || {
        let sim = CrashSim::new(seed);
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        store.init((0..4).map(|i| vec![i as u8; 100]).collect());
        (sim, store)
    };
    let (sim, mut store) = build();
    let old = state_of(&mut store);
    let before = sim.events();
    store.write_batch(batch()).unwrap();
    let new = state_of(&mut store);
    assert!(sim.durable_len("wal") > 256 + 100, "a 349-byte record outgrows a 256-byte log");
    let after = sim.events();
    drop(store);

    for k in before..=after {
        for tear in [Tear::Prefix((k % 3 * 500) as u16), Tear::Sectors] {
            let (sim, mut store) = build();
            sim.plan_crash_tearing(k, tear);
            let acked = store.write_batch(batch()).is_ok();
            // The record's write and its sync are the first two events;
            // from then on the batch is acknowledged, whatever happens to
            // the checkpoint its size triggers.
            assert_eq!(acked, k >= before + 2, "k={k} {tear:?}");
            drop(store);
            sim.recover();
            let mut store = reopen(&sim, opts, &format!("k={k} {tear:?}"));
            let got = state_of(&mut store);
            assert!(got == new || (!acked && got == old), "k={k} {tear:?}: {got:?}");
        }
    }
}

/// The events of one `checkpoint()` after writing `addrs` (one cell each)
/// into a store of `capacity` cells of `cell_len` bytes — having checked
/// that the writes themselves touched nothing but the log.
fn checkpoint_events(
    cache_bytes: usize,
    cell_len: usize,
    capacity: usize,
    addrs: &[usize],
) -> Vec<SimEvent> {
    let sim = CrashSim::new(base_seed());
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes };
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..capacity).map(|i| vec![i as u8; cell_len]).collect());
    let mark = sim.events() as usize;
    for (i, &addr) in addrs.iter().enumerate() {
        store.write(addr, vec![0x80 | i as u8; cell_len]).unwrap();
    }
    // An acknowledged upload is one write and one sync, both on the log.
    let log = sim.event_log();
    assert_eq!(log.len() - mark, 2 * addrs.len());
    for pair in log[mark..].chunks(2) {
        assert_eq!(pair[0].file, "wal");
        assert!(matches!(pair[0].op, SimOp::Write { .. }));
        assert_eq!(pair[1], SimEvent { file: "wal".into(), op: SimOp::Sync });
    }
    let mark = sim.events() as usize;
    store.checkpoint().unwrap();
    let events = sim.event_log()[mark..].to_vec();
    // Every cell reads back, from the cache now and from the arena after
    // a restart.
    let expected = state_of(&mut store);
    drop(store);
    sim.recover();
    assert_eq!(state_of(&mut reopen(&sim, opts, "after write-back")), expected);
    events
}

/// Between checkpoints the arena is not touched; at the checkpoint the
/// dirty cells are written back in ascending address order, one write per
/// run (identity mode bridges gaps of up to a page), without overlap, all
/// before the arena sync, which precedes the snapshot, which precedes the
/// header rewrite.
#[test]
fn write_back_waits_for_the_checkpoint_and_runs_in_address_order() {
    let addrs = [40, 3, 41, 17, 3, 63, 18];
    let arena_writes = |events: &[SimEvent]| -> Vec<(u64, u64)> {
        events
            .iter()
            .filter(|e| e.file.starts_with("arena."))
            .filter_map(|e| match e.op {
                SimOp::Write { offset, len } => Some((offset, len)),
                _ => None,
            })
            .collect()
    };
    let position = |events: &[SimEvent], what: &dyn Fn(&SimEvent) -> bool| {
        events
            .iter()
            .position(what)
            .expect("event missing from the checkpoint")
    };

    // Bounded cache (16 of 64 cells, the 6 dirty ones within budget):
    // one write per run of adjacent cells.
    let bounded = checkpoint_events(16 * 32, 32, 64, &addrs);
    assert_eq!(
        arena_writes(&bounded),
        vec![(3 * 32, 32), (17 * 32, 64), (40 * 32, 64), (63 * 32, 32)]
    );
    // Identity cache, 32-byte cells: every gap is under a page, so the
    // whole dirty range goes out as one write.
    let identity = checkpoint_events(1 << 20, 32, 64, &addrs);
    assert_eq!(arena_writes(&identity), vec![(3 * 32, 61 * 32)]);
    // Identity cache, 1 KiB cells: a one-cell gap (1 KiB) is bridged, a
    // 14-cell gap is not.
    let wide = checkpoint_events(1 << 20, 1024, 32, &[20, 3, 5]);
    assert_eq!(arena_writes(&wide), vec![(3 * 1024, 3 * 1024), (20 * 1024, 1024)]);

    for events in [&bounded, &identity, &wide] {
        let writes = arena_writes(events);
        assert!(writes.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0), "overlap: {writes:?}");
        let last_arena_write = events
            .iter()
            .rposition(|e| e.file.starts_with("arena.") && matches!(e.op, SimOp::Write { .. }))
            .unwrap();
        let arena_sync = position(events, &|e| e.file.starts_with("arena.") && e.op == SimOp::Sync);
        let first_meta = position(events, &|e| e.file.starts_with("meta."));
        let meta_sync = position(events, &|e| e.file.starts_with("meta.") && e.op == SimOp::Sync);
        let header = position(events, &|e| e.file == "wal");
        assert!(last_arena_write < arena_sync, "{events:?}");
        assert!(arena_sync < first_meta, "{events:?}");
        assert!(meta_sync < header, "{events:?}");
        // The log restarts with one header write and one sync: nothing
        // is truncated, nothing synced twice.
        assert_eq!(
            events[header..],
            [
                SimEvent { file: "wal".into(), op: SimOp::Write { offset: 0, len: 20 } },
                SimEvent { file: "wal".into(), op: SimOp::Sync },
            ]
        );
    }
}

/// A poisoned store issues no I/O at all — in particular it never writes
/// its waiting dirty cells back — even once the disk works again.
#[test]
fn a_poisoned_store_never_writes_back() {
    let sim = CrashSim::new(base_seed() ^ 0x7015);
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 16, cache_bytes: 1 << 20 };
    let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
    store.init((0..8).map(|i| vec![i as u8; 8]).collect());
    store.write(2, vec![0xD1; 8]).unwrap(); // acknowledged, waiting dirty
    sim.plan_crash(sim.events(), 0);
    assert_eq!(store.write(3, vec![0xD2; 8]), Err(ServerError::Interrupted));
    assert!(store.is_poisoned());
    // The machine comes back; the store object does not.
    sim.recover();
    let mark = sim.events();
    assert!(store.checkpoint().is_err());
    assert_eq!(store.write(4, vec![0xD3; 8]), Err(ServerError::Interrupted));
    assert_eq!(store.read(2).unwrap(), vec![0xD1; 8], "hits keep serving");
    drop(store);
    assert_eq!(sim.events(), mark, "a poisoned store touched its files");
    let mut store = reopen(&sim, opts, "after poison");
    assert_eq!(store.read(2).unwrap(), vec![0xD1; 8]);
    assert_eq!(store.read(3).unwrap(), vec![3; 8]);
}

/// A freshly created store on real files: every file is there, and holds
/// its acknowledged write, after the process that made it is gone. (What
/// makes the *entries* durable — the directory sync on creation — is
/// observed by a unit test next to `RealVfs`; no crash simulator models
/// directory entries.)
#[test]
fn a_new_directory_is_complete_before_the_first_acknowledgement() {
    let dir = std::env::temp_dir().join(format!("dps_crash_newdir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DiskOptions { wal_checkpoint_bytes: 1 << 16, ..opts_for(0) };
    {
        let mut store = DiskStore::open_on(RealVfs::new(&dir).unwrap(), opts).unwrap();
        store.init(vec![vec![1; 4], vec![2; 4]]);
        store.write(0, vec![9; 4]).unwrap();
    }
    for name in ["arena.0", "arena.1", "meta.0", "meta.1", "wal"] {
        assert!(dir.join(name).is_file(), "{name} missing");
    }
    assert_eq!(std::fs::metadata(dir.join("wal")).unwrap().len(), opts.wal_checkpoint_bytes);
    let mut store = DiskStore::open_with(&dir, opts).unwrap();
    assert_eq!(store.read(0).unwrap(), vec![9; 4]);
    let _ = std::fs::remove_dir_all(&dir);
}
