//! Failure injection across crates: corrupted server state, active-server
//! attacks, and capacity exhaustion must all surface as *typed errors* —
//! never as silent wrong answers or panics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dp_storage::core::bucket_ram::{BucketRam, BucketRamError};
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig, DpKvsError};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dp_storage::core::{DpIr, DpIrConfig};
use dp_storage::crypto::merkle::MerkleTree;
use dp_storage::crypto::ChaChaRng;
use dp_storage::net::chaos::FaultStorage;
use dp_storage::net::{NetDaemon, RemoteServer};
use dp_storage::oram::path_oram::OramError;
use dp_storage::oram::{LinearOram, PathOram, PathOramConfig, SquareRootOram};
use dp_storage::pir::FullScanPir;
use dp_storage::server::{
    CostStats, DiskOptions, DiskStore, ServerError, SimServer, Storage, Transcript, Verified,
};
use dp_storage::workloads::generators::database;

const N: usize = 64;
const BLOCK: usize = 32;

/// DP-RAM with a corrupted server cell: the integrity tag inside the
/// IND-CPA ciphertext rejects the cell instead of decrypting garbage.
#[test]
fn dp_ram_detects_corrupted_ciphertext() {
    let mut rng = ChaChaRng::seed_from_u64(1);
    let db = database(N, BLOCK);
    // p = 0 pins reads to their own address, so the corrupted cell is hit.
    let mut ram =
        DpRam::setup(DpRamConfig { n: N, stash_probability: 0.0 }, &db, SimServer::new(), &mut rng)
            .unwrap();

    let cell = ram.server_mut().read(9).unwrap();
    let mut bad = cell;
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    ram.server_mut().write(9, bad).unwrap();

    match ram.read(9, &mut rng) {
        Err(DpRamError::Crypto(_)) => {}
        other => panic!("corruption must be a crypto error, got {other:?}"),
    }
}

/// Path ORAM with a corrupted bucket: typed storage error.
#[test]
fn path_oram_detects_corrupted_bucket() {
    let mut rng = ChaChaRng::seed_from_u64(3);
    let db = database(N, BLOCK);
    let mut oram =
        PathOram::setup(PathOramConfig::recommended(N, BLOCK), &db, SimServer::new(), &mut rng);
    // Corrupt the root bucket — every path includes it.
    let cell = oram.server_mut().read(0).unwrap();
    let mut bad = cell;
    bad[10] ^= 0xFF;
    oram.server_mut().write(0, bad).unwrap();
    assert!(oram.read(0, &mut rng).is_err());
}

/// DP-KVS with a corrupted node cell: typed error from the bucket RAM.
#[test]
fn dp_kvs_detects_corrupted_node() {
    let mut rng = ChaChaRng::seed_from_u64(4);
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(N, 8), SimServer::new(), &mut rng).unwrap();
    kvs.put(42, vec![7u8; 8], &mut rng).unwrap();
    // Corrupt every server cell: whatever path the next get touches fails.
    let capacity = kvs.server_mut().capacity();
    for addr in 0..capacity {
        let cell = kvs.server_mut().read(addr).unwrap();
        let mut bad = cell;
        bad[0] ^= 1;
        kvs.server_mut().write(addr, bad).unwrap();
    }
    assert!(kvs.get(42, &mut rng).is_err(), "corrupted nodes must not decrypt");
}

/// The first key from 42 on whose two candidate buckets differ. The tests
/// below corrupt one path and need the other one clean; the mapping is
/// keyed at set-up, so which key qualifies depends on the seed.
fn key_with_two_paths<S: Storage>(kvs: &DpKvs<S>) -> u64 {
    (42..)
        .find(|&key| {
            let (a, b) = kvs.buckets_for(key);
            a != b
        })
        .expect("some key has two distinct paths")
}

/// The crypto error names the corrupted cell by its server address — the
/// first bad one in download order when there are several. With `p = 0`
/// nothing is ever stashed, so a `get` downloads the key's own two paths,
/// first path first.
#[test]
fn dp_kvs_names_the_corrupted_node() {
    let mut rng = ChaChaRng::seed_from_u64(4);
    let config = DpKvsConfig { stash_probability: 0.0, ..DpKvsConfig::recommended(N, 8) };
    let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
    let key = key_with_two_paths(&kvs);
    kvs.put(key, vec![7u8; 8], &mut rng).unwrap();
    let (a, b) = kvs.buckets_for(key);
    let geometry = kvs.config().geometry;
    // One node of the first path, and the leaf of the second.
    let (first, second) = (geometry.bucket_path(a)[1], geometry.bucket_path(b)[0]);
    for addr in [second, first] {
        let mut bad = kvs.server_mut().read(addr).unwrap();
        bad[20] ^= 0x10;
        kvs.server_mut().write(addr, bad).unwrap();
    }
    match kvs.get(key, &mut rng) {
        Err(DpKvsError::Ram(BucketRamError::Crypto(message))) => {
            assert_eq!(message, format!("cell {first}: ciphertext integrity tag mismatch"));
        }
        other => panic!("corruption must be a crypto error, got {other:?}"),
    }
}

/// The verified store catches an adversary that rewrites both the cells
/// and the (untrusted) Merkle tree.
#[test]
fn verified_server_defeats_tree_rewriting_adversary() {
    let cells: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
    let mut server = Verified::new(SimServer::new());
    server.init(cells.clone());

    let mut forged = cells;
    forged[11] = vec![0xEE; 8];
    server.inner_mut().write(11, forged[11].clone()).unwrap();
    server.adversary_replace_tree(MerkleTree::build(&forged));

    assert_eq!(server.read(11), Err(ServerError::Integrity { addr: 11 }));
    // With the whole (untrusted) tree forged, proofs for untouched cells
    // no longer chain to the trusted root either — conservative rejection
    // is the correct behavior, not a false negative.
    assert_eq!(server.read(3), Err(ServerError::Integrity { addr: 3 }));
}

/// What a lying server can do to a cell it stores.
#[derive(Debug, Clone, Copy)]
enum Attack {
    /// Flip a bit.
    Corrupt,
    /// Trade it with another cell: both authentic, both in the wrong place.
    Swap,
    /// Serve the cell it held before the client's last upload: authentic
    /// and in the right place, so a per-cell tag passes and only a root can
    /// object.
    Rollback,
}

const ATTACKS: [Attack; 3] = [Attack::Corrupt, Attack::Swap, Attack::Rollback];

/// Mounts `attack` on cell `target` of `store` — behind a [`Verified`]
/// root's back when that is its `inner_mut`. `other` is the cell a swap
/// trades with; `stale` is what `target` held before the client last
/// rewrote it, which a rollback serves again.
fn mount<S: Storage>(
    attack: Attack,
    store: &mut S,
    stale: Vec<u8>,
    (target, other): (usize, usize),
) {
    let held = store.read(target).unwrap();
    let served = match attack {
        Attack::Corrupt => {
            let mut bad = held;
            bad[20] ^= 2;
            bad
        }
        Attack::Swap => {
            let traded = store.read(other).unwrap();
            store.write(other, held).unwrap();
            traded
        }
        Attack::Rollback => {
            assert_ne!(stale, held, "the client's rewrite left the cell alone");
            stale
        }
    };
    store.write(target, served).unwrap();
}

/// The seat users put the server in: a daemon over a durable store, reached
/// over loopback TCP. Every scheme set-up replaces its contents.
struct DurableDaemon {
    daemon: Option<NetDaemon>,
    dir: std::path::PathBuf,
}

impl DurableDaemon {
    fn spawn(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("dps_attack_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DiskOptions::default();
        let store = DiskStore::open_with(&dir, opts).expect("create disk store");
        Self { daemon: Some(NetDaemon::spawn(store).expect("spawn daemon")), dir }
    }

    fn connect(&self) -> RemoteServer {
        let daemon = self.daemon.as_ref().expect("running until dropped");
        RemoteServer::connect(daemon.local_addr()).expect("connect")
    }
}

impl Drop for DurableDaemon {
    fn drop(&mut self) {
        self.daemon.take().expect("dropped once").shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Hardened DP-RAM is `DpRam` over [`Verified`] storage: all three active
/// attacks are `Integrity` at the attacked address, on the simulator and
/// against a durable daemon. Without the root the rollback is *served*: the
/// stale cell decrypts, and the client reads a value it had overwritten.
#[test]
fn hardened_ram_attack_matrix() {
    let daemon = DurableDaemon::spawn("ram");
    ram_attack_matrix(SimServer::new);
    ram_attack_matrix(|| daemon.connect());
}

fn ram_attack_matrix<S: Storage>(store: impl Fn() -> S) {
    let db = database(N, BLOCK);
    // p = 0: record i lives at address i and every query downloads it.
    let config = DpRamConfig { n: N, stash_probability: 0.0 };
    let fresh = vec![0xAB; BLOCK];
    for (seed, attack) in (5..).zip(ATTACKS) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut ram = DpRam::setup(config, &db, Verified::new(store()), &mut rng).unwrap();
        let stale = ram.server_mut().inner_mut().read(7).unwrap();
        ram.write(7, fresh.clone(), &mut rng).unwrap();
        mount(attack, ram.server_mut().inner_mut(), stale, (7, 9));
        assert!(
            matches!(
                ram.read(7, &mut rng),
                Err(DpRamError::Server(ServerError::Integrity { addr: 7 }))
            ),
            "{attack:?}"
        );
    }

    let mut rng = ChaChaRng::seed_from_u64(7);
    let mut plain = DpRam::setup(config, &db, store(), &mut rng).unwrap();
    let stale = plain.server_mut().read(7).unwrap();
    plain.write(7, fresh, &mut rng).unwrap();
    mount(Attack::Rollback, plain.server_mut(), stale, (7, 9));
    assert_eq!(plain.read(7, &mut rng).unwrap(), db[7], "the overwritten value, silently");
}

/// The same matrix through DP-KVS: the attacked cell is the first node a
/// `get` of the key downloads (`p = 0`: its own two paths, first path
/// first), the swap partner the leaf of its second path (a key with two
/// distinct paths, [`key_with_two_paths`]).
#[test]
fn hardened_kvs_attack_matrix() {
    let daemon = DurableDaemon::spawn("kvs");
    kvs_attack_matrix(SimServer::new);
    kvs_attack_matrix(|| daemon.connect());
}

fn kvs_attack_matrix<S: Storage>(store: impl Fn() -> S) {
    let config = DpKvsConfig { stash_probability: 0.0, ..DpKvsConfig::recommended(N, 8) };
    for (seed, attack) in (20..).zip(ATTACKS) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut kvs = DpKvs::setup(config.clone(), Verified::new(store()), &mut rng).unwrap();
        let key = key_with_two_paths(&kvs);
        kvs.put(key, vec![7u8; 8], &mut rng).unwrap();
        let (a, b) = kvs.buckets_for(key);
        let geometry = kvs.config().geometry;
        let (target, other) = (geometry.bucket_path(a)[0], geometry.bucket_path(b)[0]);
        let stale = kvs.server_mut().inner_mut().read(target).unwrap();
        kvs.put(key, vec![8u8; 8], &mut rng).unwrap();
        mount(attack, kvs.server_mut().inner_mut(), stale, (target, other));
        match kvs.get(key, &mut rng) {
            Err(DpKvsError::Ram(BucketRamError::Server(ServerError::Integrity { addr }))) => {
                assert_eq!(addr, target, "{attack:?}");
            }
            other => panic!("{attack:?} must be an integrity error, got {other:?}"),
        }
    }
}

/// And through Path ORAM, on the root bucket — first on every path, and
/// rewritten by every access.
#[test]
fn hardened_path_oram_attack_matrix() {
    let daemon = DurableDaemon::spawn("path");
    path_oram_attack_matrix(SimServer::new);
    path_oram_attack_matrix(|| daemon.connect());
}

fn path_oram_attack_matrix<S: Storage>(store: impl Fn() -> S) {
    let db = database(N, BLOCK);
    let config = PathOramConfig::recommended(N, BLOCK);
    for (seed, attack) in (30..).zip(ATTACKS) {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut oram = PathOram::setup(config, &db, Verified::new(store()), &mut rng);
        let stale = oram.server_mut().inner_mut().read(0).unwrap();
        oram.write(3, vec![0xCD; BLOCK], &mut rng).unwrap();
        mount(attack, oram.server_mut().inner_mut(), stale, (0, 1));
        match oram.read(3, &mut rng) {
            Err(OramError::Storage(message)) => {
                assert_eq!(message, ServerError::Integrity { addr: 0 }.to_string(), "{attack:?}");
            }
            other => panic!("{attack:?} must be an integrity error, got {other:?}"),
        }
    }
}

/// After a detected attack the client state is still usable for other
/// addresses (errors are per-access, not poisoning).
#[test]
fn detection_does_not_poison_other_addresses() {
    let db = database(N, BLOCK);
    let mut rng = ChaChaRng::seed_from_u64(8);
    let config = DpRamConfig { n: N, stash_probability: 0.0 };
    let mut ram = DpRam::setup(config, &db, Verified::new(SimServer::new()), &mut rng).unwrap();
    let mut bad = ram.server_mut().inner_mut().read(30).unwrap();
    bad[15] ^= 4;
    ram.server_mut().inner_mut().write(30, bad).unwrap();
    assert!(ram.read(30, &mut rng).is_err());
    for i in [0usize, 5, 29, 31, 63] {
        assert_eq!(
            ram.read(i, &mut rng).unwrap(),
            db[i],
            "untampered address {i} must still read correctly"
        );
    }
}

/// A request that fails must not cost the hardened DP-RAM a stashed
/// record either: the client copy may be the only current one, and the
/// server's cell for it is authentic, root-consistent and *stale* — it
/// would be served without any error.
#[test]
fn hardened_ram_failed_request_loses_no_stashed_record() {
    let db = database(N, BLOCK);
    let mut rng = ChaChaRng::seed_from_u64(12);
    // p = 1: every record is client-held and every query stashes again.
    let config = DpRamConfig { n: N, stash_probability: 1.0 };
    let mut ram = DpRam::setup(config, &db, Verified::new(SimServer::new()), &mut rng).unwrap();
    let value = vec![0xC7; BLOCK];
    ram.write(7, value.clone(), &mut rng).unwrap();

    // The adversary corrupts every cell, so the decoy download fails...
    let all: Vec<usize> = (0..N).collect();
    let cells = ram.server_mut().inner_mut();
    let saved = cells.read_batch(&all).unwrap();
    let corrupt = saved.iter().map(|c| c.iter().map(|b| b ^ 1).collect());
    cells
        .write_batch(all.iter().copied().zip(corrupt).collect())
        .unwrap();
    assert!(matches!(
        ram.read(7, &mut rng),
        Err(DpRamError::Server(ServerError::Integrity { .. }))
    ));

    // ...then restores them: the retried read must see the written value.
    let cells = ram.server_mut().inner_mut();
    cells
        .write_batch(all.iter().copied().zip(saved).collect())
        .unwrap();
    assert_eq!(ram.read(7, &mut rng).unwrap(), value);
}

/// The length a [`Resizing`] server gives a cell of `len` stored bytes: as
/// stored, then the four wrong lengths of the test below.
const RESIZE: [fn(usize) -> usize; 5] =
    [|len| len, |len| len + 5, |len| len + 1, |len| len.saturating_sub(5), |_| 0];

/// `cell` cut or padded to the length `RESIZE[mode]` gives it.
fn resized(cell: &[u8], mode: usize) -> Vec<u8> {
    let mut out = cell.to_vec();
    out.resize(RESIZE[mode](cell.len()), 0xA5);
    out
}

/// A server that stores honestly and answers every download with cells of
/// the wrong length: the length of a returned cell is the server's to
/// choose. `mode` is shared with the test, which holds no other handle on a
/// server once a client owns it.
#[derive(Debug)]
struct Resizing {
    inner: SimServer,
    mode: Arc<AtomicUsize>,
}

impl Storage for Resizing {
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
    fn take_transcript(&mut self) -> Transcript {
        self.inner.take_transcript()
    }
    fn stats(&self) -> CostStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        let mode = self.mode.load(Ordering::Relaxed);
        self.inner
            .read_batch_with(addrs, |i, cell| visit(i, &resized(cell, mode)))
    }
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError> {
        self.inner.write_cells(cells)
    }
    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        self.inner.xor_cells_into(addrs, acc)
    }
}

/// An operation on wrong-length cells may fail — with the client's typed
/// error, since it returned at all — or answer; an answer must be right.
fn right_or_err<T: PartialEq + std::fmt::Debug, E>(client: &str, result: Result<T, E>, right: &T) {
    if let Ok(got) = result {
        assert_eq!(&got, right, "{client}");
    }
}

/// A cell of the wrong length from the server is a typed error in every
/// client that decrypts, and the stored bytes in the two that serve public
/// data — never a panic, never an index past a scratch buffer. Every
/// returned cell is made 5 longer, 1 longer, 5 shorter and empty in turn;
/// writes store the value already there, so the right answers never move.
#[test]
fn wrong_length_cells_are_typed_errors_in_every_client() {
    let db = database(N, BLOCK);
    let mode = Arc::new(AtomicUsize::new(0));
    let server = || Resizing { inner: SimServer::new(), mode: Arc::clone(&mode) };
    let mut rng = ChaChaRng::seed_from_u64(13);

    let mut ram = DpRam::setup(DpRamConfig::recommended(N), &db, server(), &mut rng).unwrap();
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(N, BLOCK), server(), &mut rng).unwrap();
    for (key, value) in db.iter().enumerate() {
        kvs.put(key as u64, value.clone(), &mut rng).unwrap();
    }
    let mut path = PathOram::setup(PathOramConfig::recommended(N, BLOCK), &db, server(), &mut rng);
    let mut sqrt = SquareRootOram::setup(&db, server(), &mut rng);
    let mut linear = LinearOram::setup(&db, server(), &mut rng);
    let mut scan = FullScanPir::setup(&db, server());
    let config = DpIrConfig::with_epsilon(N, 4.0, 0.1).unwrap();
    let mut plain = DpIr::setup(config, &db, server()).unwrap();
    let mut sealed = DpIr::setup_sealed(config, &db, server(), &mut rng).unwrap();

    for wrong in 1..RESIZE.len() {
        mode.store(wrong, Ordering::Relaxed);
        for op in 0..8 {
            let i = (op * 11 + wrong) % N;
            let (record, write) = (&db[i], op % 2 == 1);
            if write {
                right_or_err("DpRam", ram.write(i, record.clone(), &mut rng), &());
                right_or_err("DpKvs", kvs.put(i as u64, record.clone(), &mut rng), &());
                right_or_err("PathOram", path.write(i, record.clone(), &mut rng), record);
                right_or_err("SquareRootOram", sqrt.write(i, record.clone(), &mut rng), record);
                right_or_err("LinearOram", linear.write(i, record.clone(), &mut rng), record);
            } else {
                right_or_err("DpRam", ram.read(i, &mut rng), record);
                right_or_err("DpKvs", kvs.get(i as u64, &mut rng), &Some(record.clone()));
                right_or_err("PathOram", path.read(i, &mut rng), record);
                right_or_err("SquareRootOram", sqrt.read(i, &mut rng), record);
                right_or_err("LinearOram", linear.read(i, &mut rng), record);
            }
            // Public data: the answer is the cell as the server returned it.
            let returned = resized(record, wrong);
            assert_eq!(scan.query(i).unwrap(), returned, "FullScanPir");
            let answers = plain.query_batch(&[i], &mut rng).unwrap();
            assert!(answers[0].as_ref().is_none_or(|a| *a == returned), "DpIr");
            if let Ok(answers) = sealed.query_batch(&[i], &mut rng) {
                assert!(answers[0].as_ref().is_none_or(|a| a == record), "sealed DpIr");
            }
        }
    }
}

/// Which of an operation's two storage calls the injected faults hit: the
/// download (index 0) or the upload (index 1).
#[derive(Default)]
struct FailedCalls([u32; 2]);

impl FailedCalls {
    /// Repeats `attempt` until the storage acknowledges it. `round_trips`
    /// reads the server's counter, which a [`FaultStorage`] advances only
    /// for the calls it let through — so its growth over a failed attempt
    /// names the call that failed.
    fn retry<C, T, E: std::fmt::Debug>(
        &mut self,
        client: &mut C,
        round_trips: impl Fn(&C) -> u64,
        interrupted: impl Fn(&E) -> bool,
        mut attempt: impl FnMut(&mut C) -> Result<T, E>,
    ) -> T {
        loop {
            let before = round_trips(client);
            match attempt(client) {
                Ok(value) => return value,
                Err(e) => {
                    assert!(interrupted(&e), "only the injected fault may fail: {e:?}");
                    self.0[(round_trips(client) - before) as usize] += 1;
                }
            }
        }
    }

    fn assert_both_calls_hit(&self) {
        assert!(self.0[0] > 0 && self.0[1] > 0, "faults at (download, upload): {:?}", self.0);
    }
}

/// A failed `Storage` call must not cost DP-RAM a stashed record: the
/// client copy may be the only current one. Every failed attempt is
/// retried, and every acknowledged value must read back at the end. Run
/// over a [`Verified`] store as well, where it is also the commit rule of
/// the root: an upload that was not acknowledged must leave the root
/// describing the cells the server still holds, or an honest server starts
/// failing verification (any error but the injected one fails the run).
#[test]
fn dp_ram_failed_requests_lose_no_record() {
    let faulty = || FaultStorage::new(SimServer::new(), 9, 300);
    dp_ram_loses_no_record(faulty(), |server| server.set_armed(false));
    dp_ram_loses_no_record(Verified::new(faulty()), |server| server.inner_mut().set_armed(false));
}

fn dp_ram_loses_no_record<S: Storage>(server: S, disarm: impl Fn(&mut S)) {
    let mut rng = ChaChaRng::seed_from_u64(9);
    let db = database(N, BLOCK);
    let config = DpRamConfig { n: N, stash_probability: 0.5 };
    let mut ram = DpRam::setup(config, &db, server, &mut rng).unwrap();
    let mut model = db;
    let mut failed = FailedCalls::default();
    let interrupted = |e: &DpRamError| matches!(e, DpRamError::Server(ServerError::Interrupted));
    let round_trips = |ram: &DpRam<_>| ram.server_stats().round_trips;
    for step in 0..400u32 {
        let i = rng.gen_index(N);
        if rng.gen_bool(0.5) {
            let value = vec![step as u8; BLOCK];
            failed.retry(&mut ram, round_trips, interrupted, |ram| {
                ram.write(i, value.clone(), &mut rng)
            });
            model[i] = value;
        } else {
            let got = failed.retry(&mut ram, round_trips, interrupted, |ram| ram.read(i, &mut rng));
            assert_eq!(got, model[i], "step {step}");
        }
    }
    failed.assert_both_calls_hit();
    disarm(ram.server_mut());
    for (i, expected) in model.iter().enumerate() {
        assert_eq!(&ram.read(i, &mut rng).unwrap(), expected, "record {i}");
    }
}

/// The same for a flight of the bucketed DP-RAM over overlapping buckets.
#[test]
fn bucket_ram_failed_requests_lose_no_cell() {
    let mut rng = ChaChaRng::seed_from_u64(10);
    let cells: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 8]).collect();
    let buckets = vec![vec![0, 4, 5], vec![1, 4, 5], vec![2, 4, 5], vec![3, 4, 5]];
    let server = FaultStorage::new(SimServer::new(), 10, 300);
    let mut ram = BucketRam::setup(cells.clone(), buckets.clone(), 0.5, server, &mut rng).unwrap();
    let mut model = cells;
    let mut failed = FailedCalls::default();
    let interrupted =
        |e: &BucketRamError| matches!(e, BucketRamError::Server(ServerError::Interrupted));
    let round_trips = |ram: &BucketRam<_>| ram.server_stats().round_trips;
    for step in 0..400u32 {
        let flight = [rng.gen_index(4), rng.gen_index(4)];
        let position = rng.gen_index(3);
        let value = vec![step as u8; 8];
        // Query 0 reads its bucket; query 1 rewrites one cell of its own.
        let read = failed.retry(&mut ram, round_trips, interrupted, |ram| {
            let update = |query: usize, contents: &mut [u8]| {
                if query == 1 {
                    contents[position * 8..][..8].copy_from_slice(&value);
                }
            };
            Ok(ram.query_batch(&flight, update, &mut rng)?.contents(0).to_vec())
        });
        let expected = buckets[flight[0]]
            .iter()
            .map(|&c| &model[c][..])
            .collect::<Vec<_>>();
        assert_eq!(read, expected.concat(), "step {step}");
        model[buckets[flight[1]][position]] = value;
    }
    failed.assert_both_calls_hit();
    ram.server_mut().set_armed(false);
    for (b, bucket) in buckets.iter().enumerate() {
        let expected = bucket
            .iter()
            .map(|&c| &model[c][..])
            .collect::<Vec<_>>()
            .concat();
        assert_eq!(ram.query(b, |_| {}, &mut rng).unwrap().0, expected, "bucket {b}");
    }
}

/// The same for DP-KVS, whose client state is the bucket stash plus the
/// key count and the super root.
#[test]
fn dp_kvs_failed_requests_lose_no_key() {
    let mut rng = ChaChaRng::seed_from_u64(11);
    let config = DpKvsConfig { stash_probability: 0.5, ..DpKvsConfig::recommended(N, 8) };
    let server = FaultStorage::new(SimServer::new(), 11, 300);
    let mut kvs = DpKvs::setup(config, server, &mut rng).unwrap();
    let mut model = std::collections::HashMap::new();
    let mut failed = FailedCalls::default();
    let interrupted = |e: &DpKvsError| {
        matches!(e, DpKvsError::Ram(BucketRamError::Server(ServerError::Interrupted)))
    };
    let round_trips = |kvs: &DpKvs<_>| kvs.server_stats().round_trips;
    for step in 0..400u32 {
        let key = rng.gen_range(48) * 7 + 1;
        match rng.gen_index(4) {
            0 | 1 => {
                let value = vec![step as u8; 8];
                failed.retry(&mut kvs, round_trips, interrupted, |kvs| {
                    kvs.put(key, value.clone(), &mut rng)
                });
                model.insert(key, value);
            }
            2 => {
                let got = failed
                    .retry(&mut kvs, round_trips, interrupted, |kvs| kvs.remove(key, &mut rng));
                assert_eq!(got, model.remove(&key), "step {step}");
            }
            _ => {
                let got =
                    failed.retry(&mut kvs, round_trips, interrupted, |kvs| kvs.get(key, &mut rng));
                assert_eq!(got, model.get(&key).cloned(), "step {step}");
            }
        }
        assert_eq!(kvs.len(), model.len(), "step {step}");
    }
    failed.assert_both_calls_hit();
    kvs.server_mut().set_armed(false);
    for (key, value) in &model {
        assert_eq!(kvs.get(*key, &mut rng).unwrap().as_ref(), Some(value), "key {key}");
    }
}
