//! Observational equivalence of [`RemoteServer`] against a local
//! [`SimServer`] over loopback TCP.
//!
//! The wire must be invisible: for any program of batched reads, writes
//! and XOR folds — including failing operations — a
//! `RemoteServer` talking to a [`NetDaemon`] must return identical cells
//! and errors, charge identical model-level [`CostStats`] (the new
//! `wire_*` counters are the only permitted difference, checked via
//! [`CostStats::sans_wire`]), and record an identical transcript to the
//! in-process server the daemon wraps. On top, every batch operation must
//! cost exactly **one** wire round trip regardless of batch size — the
//! property that makes the paper's round-trip accounting meaningful on a
//! real network.
//!
//! The second half runs every scheme family (DP-RAM, DP-KVS, DP-IR,
//! linear/path ORAM, full-scan and 2-server XOR PIR) twice from identical
//! seeds — once on an in-process server, once through the wire — and
//! requires bit-identical answers and model stats, with zero call-site
//! changes beyond the server argument.

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dps_crypto::merkle::MerkleTree;
use dps_crypto::ChaChaRng;
use dps_net::{FaultStorage, NetDaemon, RemoteServer};
use dps_oram::{LinearOram, PathOram, PathOramConfig};
use dps_pir::{FullScanPir, XorPir};
use dps_server::{
    AccessEvent, CostStats, DiskOptions, DiskStore, ServerError, SimServer, Storage, Verified,
};
use dps_workloads::generators::database;
use proptest::prelude::*;

/// Builds a daemon-backed remote and an identically configured local
/// twin, runs `f` on both, and shuts the daemon down.
fn with_pair<R>(f: impl FnOnce(SimServer, RemoteServer) -> R) -> R {
    let local = SimServer::new();
    let served = SimServer::new();
    let daemon = NetDaemon::spawn(served).expect("spawn daemon");
    let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
    let out = f(local, remote);
    daemon.shutdown();
    out
}

fn cell(byte: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte.wrapping_add(i as u8)).collect()
}

/// A fixed single-client program touching every `Storage` entry point,
/// error paths included, applied step-by-step to both servers with the
/// results compared after each step.
fn run_program(local: &mut SimServer, remote: &mut RemoteServer) {
    const N: usize = 12;
    const LEN: usize = 8;

    // A first set-up: errors must match.
    local.init(vec![cell(0xE0, LEN / 2); N]);
    remote.init(vec![cell(0xE0, LEN / 2); N]);
    assert_eq!(remote.capacity(), local.capacity());
    assert_eq!(Storage::read(remote, 2), Storage::read(local, 2));
    assert_eq!(
        Storage::read(remote, N + 3),
        Err(ServerError::OutOfBounds { addr: N + 3, capacity: N })
    );
    assert_eq!(Storage::write(remote, 0, cell(1, 3)), Storage::write(local, 0, cell(1, 3)));
    assert_eq!(Storage::read(remote, 0), Storage::read(local, 0));
    // Partial failure: addresses 1 and 0 handed out, then out-of-bounds.
    let bad = vec![1, 0, 99];
    assert_eq!(Storage::read_batch(remote, &bad), Storage::read_batch(local, &bad));

    // Set-up again, at the full width, transcripts recording.
    let cells: Vec<Vec<u8>> = (0..N as u8).map(|i| cell(i, LEN)).collect();
    local.init(cells.clone());
    remote.init(cells.clone());
    local.start_recording();
    remote.start_recording();

    // A cell longer or shorter than the stride is refused whole on both
    // sides alike — nothing stored, charged or seen — and the connection
    // keeps serving: in-band when the batch has one length, by the client
    // when it has two and no frame carries it.
    let before = Storage::stats(remote).sans_wire();
    for len in [LEN + 1, LEN - 1] {
        let wrong = Err(ServerError::WrongCellLength { addr: 7, len, stride: LEN });
        let ragged = vec![(2usize, cell(0xF0, LEN)), (7, cell(0xF1, len))];
        assert_eq!(remote.write_batch(ragged.clone()), wrong);
        assert_eq!(local.write_batch(ragged), wrong);
        let uniform = vec![(7usize, cell(0xF1, len)), (2, cell(0xF0, len))];
        assert_eq!(remote.write_batch(uniform.clone()), wrong);
        assert_eq!(local.write_batch(uniform), wrong);
    }
    assert_eq!(Storage::stats(remote).sans_wire(), before);
    assert_eq!(Storage::stats(local), before);
    assert_eq!(remote.take_transcript().round_trips(), 0);
    assert_eq!(local.take_transcript().round_trips(), 0);
    assert_eq!(Storage::read_batch(remote, &[2, 7]), Ok(vec![cells[2].clone(), cells[7].clone()]));
    assert_eq!(Storage::read_batch(local, &[2, 7]), Ok(vec![cells[2].clone(), cells[7].clone()]));
    assert_eq!(remote.cell_stride(), LEN);
    local.start_recording();
    remote.start_recording();

    let addrs = vec![0, 5, 11, 5];
    assert_eq!(Storage::read_batch(remote, &addrs), Storage::read_batch(local, &addrs));

    let writes = vec![(3, cell(0xA0, LEN)), (8, cell(0xB0, LEN))];
    assert_eq!(remote.write_batch(writes.clone()), local.write_batch(writes));

    let strided_addrs = vec![1, 6, 10];
    let strided_flat: Vec<u8> = (0..3).flat_map(|i| cell(0xC0 + i, LEN)).collect();
    assert_eq!(
        remote.write_batch_strided(&strided_addrs, &strided_flat),
        local.write_batch_strided(&strided_addrs, &strided_flat)
    );
    // Duplicate addresses in one strided upload are "later wins" on the
    // wire as in process: a DP-KVS flight uploads the path nodes its two
    // buckets share, and the nodes its update pass rewrites, more than once.
    let dup_addrs = vec![6, 1, 6, 9, 1, 6];
    let dup_flat: Vec<u8> = (0..6).flat_map(|i| cell(0x30 + i, LEN)).collect();
    assert_eq!(
        remote.write_batch_strided(&dup_addrs, &dup_flat),
        local.write_batch_strided(&dup_addrs, &dup_flat)
    );
    let winners = Ok(vec![cell(0x35, LEN), cell(0x34, LEN), cell(0x33, LEN)]);
    assert_eq!(Storage::read_batch(remote, &[6, 1, 9]), winners);
    assert_eq!(Storage::read_batch(local, &[6, 1, 9]), winners);
    // Empty strided batch still costs (and records) a round trip.
    assert_eq!(remote.write_batch_strided(&[], &[]), local.write_batch_strided(&[], &[]));

    assert_eq!(remote.write_from(4, &cell(0xD0, LEN)), local.write_from(4, &cell(0xD0, LEN)));

    assert_eq!(remote.xor_cells(&[0, 1, 2, 3]), local.xor_cells(&[0, 1, 2, 3]));
    assert_eq!(remote.xor_cells(&[]), local.xor_cells(&[]));

    // Failing writes charge identical partial stats and mutate nothing.
    let failing = vec![(0usize, cell(9, LEN)), (N + 1, cell(9, LEN))];
    assert_eq!(remote.write_batch(failing.clone()), local.write_batch(failing));
    assert_eq!(remote.xor_cells(&[1, N + 5]), local.xor_cells(&[1, N + 5]));

    // Full final state: cells, geometry, model stats, transcript.
    let every: Vec<usize> = (0..N).collect();
    assert_eq!(Storage::read_batch(remote, &every), Storage::read_batch(local, &every));
    assert_eq!(remote.cell_stride(), local.cell_stride());
    assert_eq!(Storage::stats(remote).sans_wire(), Storage::stats(local));
    assert_eq!(
        remote.take_transcript().canonical_encoding(),
        local.take_transcript().canonical_encoding()
    );
    // Taking the transcript stopped the recording: a second take is empty.
    assert_eq!(Storage::read(remote, 0), Storage::read(local, 0));
    assert_eq!(remote.take_transcript().round_trips(), 0);
}

#[test]
fn raw_storage_programs_match_for_every_config() {
    with_pair(|mut local, mut remote| {
        run_program(&mut local, &mut remote);
    });
}

/// Every batch operation is exactly one framed exchange, no matter the
/// batch size.
#[test]
fn batch_operations_are_single_wire_round_trips() {
    const N: usize = 300;
    const LEN: usize = 16;
    with_pair(|_, mut remote| {
        remote.init((0..N).map(|i| cell(i as u8, LEN)).collect());
        let addrs: Vec<usize> = (0..N).collect();
        let flat: Vec<u8> = addrs.iter().flat_map(|&a| cell(a as u8 ^ 0x77, LEN)).collect();

        let mut trips = remote.wire_stats().wire_round_trips;
        let mut one_trip = |remote: &mut RemoteServer, what: &str| {
            let now = remote.wire_stats().wire_round_trips;
            assert_eq!(now - trips, 1, "{what} must be exactly one wire round trip");
            trips = now;
        };

        Storage::read_batch(&mut remote, &addrs).unwrap();
        one_trip(&mut remote, "read_batch");
        remote.write_batch_strided(&addrs, &flat).unwrap();
        one_trip(&mut remote, "write_batch_strided");
        remote
            .write_batch(vec![(0, cell(1, LEN)), (N - 1, cell(2, LEN))])
            .unwrap();
        one_trip(&mut remote, "write_batch");
        remote.xor_cells(&addrs).unwrap();
        one_trip(&mut remote, "xor_cells");

        // The wire moved real bytes both ways, and the model round-trip
        // counter agrees with the wire counter for pure data traffic.
        let stats = Storage::stats(&remote);
        assert!(stats.wire_bytes_up > (N * LEN) as u64);
        assert!(stats.wire_bytes_down > (N * LEN) as u64);
    });
}

/// A cell is its stride, on every server: the simulator, the durable store
/// (bounded and identity cache), the wire to either, and the integrity
/// decorator over the first and the last. A set-up of two cell lengths
/// panics and leaves the old contents (over the wire the daemon closes the
/// connection, counted as a protocol error, and the infallible set-up
/// panics on the cut). An upload with a cell shorter or longer than the
/// stride — alone, among cells of the stride, or among cells of its own
/// length — gives the one error, and the same model stats, transcript and
/// cells, everywhere.
#[test]
fn ragged_set_ups_and_wrong_length_uploads_are_refused_alike_on_every_server() {
    let want = refusals(&mut set_up_refusing(SimServer::new()));
    let mut stored = refusal_db();
    stored[5] = cell(0xD0, REFUSAL_LEN);
    assert_eq!(want.3, stored, "only the upload of the stride was stored");
    assert_eq!(want.1.uploads, 1);
    let verified = refusals(&mut set_up_refusing(Verified::new(SimServer::new())));
    assert_eq!(verified, want, "Verified<SimServer>");
    for cache_bytes in [16, 1 << 30] {
        let dir = Scratch::new();
        let local = refusals(&mut set_up_refusing(dir.open(cache_bytes)));
        assert_eq!(local, want, "DiskStore, {cache_bytes} B");
        let dir = Scratch::new();
        let daemon = NetDaemon::spawn(dir.open(cache_bytes)).expect("spawn daemon");
        assert_eq!(refused_over_the_wire(&daemon), want, "→ DiskStore, {cache_bytes} B");
        daemon.shutdown();
    }
    let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
    assert_eq!(refused_over_the_wire(&daemon), want, "RemoteServer → SimServer");
    let mut verified = Verified::new(RemoteServer::connect(daemon.local_addr()).expect("connect"));
    verified.init(refusal_db());
    assert_eq!(refusals(&mut verified), want, "Verified<RemoteServer>");
    daemon.shutdown();
}

const REFUSAL_LEN: usize = 12;

fn refusal_db() -> Vec<Vec<u8>> {
    (0..6).map(|i| cell(i, REFUSAL_LEN)).collect()
}

/// Each upload's answer, the model stats, the view, every cell.
type Refusals = (Vec<Result<(), ServerError>>, CostStats, Vec<u8>, Vec<Vec<u8>>);

/// `server` set up with [`refusal_db`], after which a set-up of two cell
/// lengths panicked.
fn set_up_refusing<S: Storage>(mut server: S) -> S {
    server.init(refusal_db());
    ragged_set_up_panics(&mut server);
    server
}

fn ragged_set_up_panics<S: Storage>(server: &mut S) {
    let ragged = vec![cell(1, REFUSAL_LEN), cell(2, REFUSAL_LEN - 1), cell(3, REFUSAL_LEN)];
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        server.init(ragged);
    }));
    assert!(panicked.is_err(), "a ragged set-up was taken");
}

/// One upload at the stride, then uploads with a cell shorter or longer
/// (alone, among cells of the stride, among cells of its own length), on a
/// recording server.
fn refusals<S: Storage>(server: &mut S) -> Refusals {
    server.reset_stats();
    server.start_recording();
    let mut uploads = vec![vec![(5, cell(0xD0, REFUSAL_LEN))]];
    for len in [REFUSAL_LEN - 1, REFUSAL_LEN + 1, 0] {
        uploads.push(vec![(4, cell(0xA0, len))]);
        let stride = REFUSAL_LEN;
        uploads.push(vec![(1, cell(0xB0, stride)), (4, cell(0xB1, len)), (9, cell(0xB2, stride))]);
        uploads.push(vec![(2, cell(0xC0, len)), (3, cell(0xC1, len))]);
    }
    let answers = uploads
        .into_iter()
        .map(|batch| server.write_batch(batch))
        .collect();
    let stats = server.stats().sans_wire().sans_cache();
    let view = server.take_transcript().canonical_encoding();
    let every: Vec<usize> = (0..server.capacity()).collect();
    (answers, stats, view, server.read_batch(&every).expect("every cell"))
}

/// [`set_up_refusing`] and [`refusals`] through `daemon`: the ragged set-up
/// costs its connection, so the refusals run on a second one.
fn refused_over_the_wire(daemon: &NetDaemon) -> Refusals {
    let connect = || RemoteServer::connect(daemon.local_addr()).expect("connect");
    let errors = daemon.metrics().protocol_errors;
    set_up_refusing(connect());
    assert_eq!(daemon.metrics().protocol_errors, errors + 1, "the ragged set-up closed nothing");
    refusals(&mut connect())
}

/// The provided spellings of an upload, as a caller picks one.
#[derive(Debug, Clone, Copy)]
enum Spelling {
    Write,
    WriteFrom,
    Batch,
    Strided,
}

fn upload<S: Storage>(server: &mut S, how: Spelling, cells: &[(usize, Vec<u8>)]) {
    match how {
        Spelling::Write => server.write(cells[0].0, cells[0].1.clone()),
        Spelling::WriteFrom => server.write_from(cells[0].0, &cells[0].1),
        Spelling::Batch => server.write_batch(cells.to_vec()),
        Spelling::Strided => {
            let addrs: Vec<usize> = cells.iter().map(|(a, _)| *a).collect();
            let flat: Vec<u8> = cells.iter().flat_map(|(_, c)| c.clone()).collect();
            server.write_batch_strided(&addrs, &flat)
        }
    }
    .unwrap();
}

/// What an upload leaves behind: every cell, the model stats, the view.
type Observed = (Vec<Vec<u8>>, dps_server::CostStats, Vec<u8>);

/// Issues one upload on a fresh 8-cell pair and returns what it left
/// behind (checked equal between the remote and its local twin) and the
/// bytes the upload put on the wire.
fn upload_outcome(how: Spelling, cells: &[(usize, Vec<u8>)]) -> (Observed, u64) {
    fn observe<S: Storage>(server: &mut S) -> Observed {
        let stats = server.stats().sans_wire();
        let view = server.take_transcript().canonical_encoding();
        (server.read_batch(&[0, 1, 2, 3, 4, 5, 6, 7]).unwrap(), stats, view)
    }
    with_pair(|mut local, mut remote| {
        local.init((0..8).map(|i| cell(i, 8)).collect());
        remote.init((0..8).map(|i| cell(i, 8)).collect());
        local.start_recording();
        remote.start_recording();
        let before = remote.wire_stats().wire_bytes_up;
        upload(&mut remote, how, cells);
        let wire_up = remote.wire_stats().wire_bytes_up - before;
        upload(&mut local, how, cells);
        let seen = observe(&mut remote);
        assert_eq!(seen, observe(&mut local), "{how:?} diverged from SimServer");
        (seen, wire_up)
    })
}

/// An upload is one request whatever it was called: the same cells issued
/// through different provided methods leave the same cells, charge, view
/// and *bytes on the wire*, because there is one frame, the strided one. A
/// batch of two cell lengths has none: no upload is sent for it, only the
/// two geometry queries its refusal takes.
#[test]
fn every_upload_spelling_is_the_same_request() {
    use dps_net::Request;
    let strided_frame = |cells: &[(usize, Vec<u8>)]| {
        let addrs = cells.iter().map(|(a, _)| *a).collect();
        let flat = cells.iter().flat_map(|(_, c)| c.clone()).collect();
        let request = Request::WriteBatchStrided { addrs, flat };
        request.encode_framed_v2(1).unwrap().len() as u64
    };

    let three = [(1, cell(0x10, 8)), (6, cell(0x20, 8)), (3, cell(0x30, 8))];
    let as_batch = upload_outcome(Spelling::Batch, &three);
    assert_eq!(as_batch, upload_outcome(Spelling::Strided, &three));
    assert_eq!(as_batch.1, strided_frame(&three));

    let one = [(4, cell(0x40, 8))];
    let as_write = upload_outcome(Spelling::Write, &one);
    for how in [Spelling::WriteFrom, Spelling::Batch, Spelling::Strided] {
        assert_eq!(upload_outcome(how, &one), as_write, "{how:?} vs write");
    }
    assert_eq!(as_write.1, strided_frame(&one));

    // Cells of two lengths cannot be packed at one stride.
    let ragged = vec![(2, cell(0x50, 8)), (5, cell(0x60, 5))];
    with_pair(|_, mut remote| {
        remote.init((0..8).map(|i| cell(i, 8)).collect());
        let before = remote.wire_stats();
        let refused = Err(ServerError::WrongCellLength { addr: 5, len: 5, stride: 8 });
        assert_eq!(remote.write_batch(ragged), refused);
        let queries = [Request::Capacity, Request::CellStride];
        let sent = queries.map(|q| q.encode_framed_v2(1).unwrap().len() as u64);
        let wire = remote.wire_stats().since(&before);
        assert_eq!((wire.wire_round_trips, wire.wire_bytes_up), (2, sent.iter().sum()));
    });
}

/// Set-up streams as `InitChunk` frames; the outcome must not depend on
/// where the frames end — same cells, same geometry, untouched model
/// stats — with a tiny bound forcing one cell per frame to exercise the
/// seams.
#[test]
fn chunked_init_is_equivalent_to_single_frame_init() {
    const N: usize = 40;
    const LEN: usize = 24;
    let cells: Vec<Vec<u8>> = (0..N as u8).map(|i| cell(i, LEN)).collect();
    with_pair(|mut local, remote| {
        let mut remote = remote.with_init_chunk_bytes(1); // 1 cell per frame
        local.init(cells.clone());
        remote.init(cells.clone());
        assert!(remote.wire_stats().wire_round_trips >= N as u64, "must have chunked");
        assert_eq!(remote.capacity(), local.capacity());
        assert_eq!(remote.cell_stride(), local.cell_stride());
        let every: Vec<usize> = (0..N).collect();
        assert_eq!(
            Storage::read_batch(&mut remote, &every),
            Storage::read_batch(&mut local, &every)
        );
        // Init is uncharged setup whatever the framing.
        assert_eq!(Storage::stats(&remote).sans_wire(), Storage::stats(&local));

        // Re-init over the wire replaces the contents like a local
        // re-init would, chunked or not.
        let smaller: Vec<Vec<u8>> = (0..8u8).map(|i| cell(i ^ 0xF0, LEN)).collect();
        local.init(smaller.clone());
        remote.init(smaller);
        assert_eq!(remote.capacity(), 8);
        assert_eq!(Storage::read(&mut remote, 3), Storage::read(&mut local, 3));
    });
}

// ---- Set-up equivalence: the primitive and its provided spelling. ------

/// Everything a set-up leaves behind, as any `Storage` shows it.
#[derive(Debug, PartialEq)]
struct Contents {
    capacity: usize,
    stride: usize,
    cells: Vec<Vec<u8>>,
}

fn contents<S: Storage>(server: &mut S) -> Contents {
    let capacity = server.capacity();
    let every: Vec<usize> = (0..capacity).collect();
    Contents {
        capacity,
        stride: server.cell_stride(),
        cells: server.read_batch(&every).expect("every cell is written"),
    }
}

/// Replaces what `server` holds with `cells` — through the provided `init`,
/// or by lending each cell to the primitive — and returns what that left,
/// having checked that set-up is uncharged and unseen.
fn set_up<S: Storage>(server: &mut S, cells: &[Vec<u8>], provided: bool) -> Contents {
    server.init(vec![vec![0xEE; 3]; 5]);
    server.reset_stats();
    server.start_recording();
    if provided {
        server.init(cells.to_vec());
    } else {
        server.init_with(cells.len(), |sink| cells.iter().for_each(|c| sink(c)));
    }
    assert_eq!(server.stats().sans_wire().sans_cache(), CostStats::default());
    assert_eq!(server.take_transcript().round_trips(), 0);
    contents(server)
}

/// The `InitChunk` frames a set-up of `cells` (of one length) takes when a
/// frame is shipped at `bound` bytes: header and prelude are 34 bytes, a
/// cell is its bytes, and a frame always takes one cell.
fn init_frames(bound: usize, cells: &[Vec<u8>]) -> u64 {
    let (mut frames, mut len, mut held) = (1, 34, 0);
    for cell in cells {
        if held > 0 && len >= bound {
            (frames, len, held) = (frames + 1, 34, 0);
        }
        len += cell.len();
        held += 1;
    }
    frames
}

/// A scratch directory for one store, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new() -> Self {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dps_loopback_setup_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    /// A 1 MiB log: no set-up here fills it, and each one zero-fills it.
    fn open(&self, cache_bytes: usize) -> DiskStore {
        let opts = DiskOptions { wal_checkpoint_bytes: 1 << 20, cache_bytes };
        DiskStore::open_with(&self.0, opts).expect("open disk store")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `init(cells)` and the primitive leave the same store behind — geometry,
/// every cell, no charge, no view — on the simulator, the
/// durable store (bounded and identity cache; again after drop and reopen),
/// the wire to a durable daemon with frames shipped at `bound` bytes, the
/// integrity decorator and the fault injector.
fn set_up_is_the_same_everywhere(cells: &[Vec<u8>], bound: usize) {
    let want = Contents {
        capacity: cells.len(),
        stride: cells.first().map_or(0, Vec::len),
        cells: cells.to_vec(),
    };
    let mut roots = Vec::new();
    for provided in [true, false] {
        assert_eq!(set_up(&mut SimServer::new(), cells, provided), want);
        assert_eq!(set_up(&mut FaultStorage::new(SimServer::new(), 7, 0), cells, provided), want);
        let mut verified = Verified::new(SimServer::new());
        assert_eq!(set_up(&mut verified, cells, provided), want);
        roots.push(verified.trusted_root());

        for cache_bytes in [64, 1 << 30] {
            let dir = Scratch::new();
            let mut store = dir.open(cache_bytes);
            assert_eq!(set_up(&mut store, cells, provided), want);
            drop(store);
            assert_eq!(contents(&mut dir.open(cache_bytes)), want, "after reopen");

            let dir = Scratch::new();
            let daemon = NetDaemon::spawn(dir.open(cache_bytes)).expect("spawn daemon");
            let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
            let mut remote = remote.with_init_chunk_bytes(bound);
            assert_eq!(set_up(&mut remote, cells, provided), want);
            let before = remote.wire_stats().wire_round_trips;
            remote.init_with(cells.len(), |sink| cells.iter().for_each(|c| sink(c)));
            assert_eq!(remote.wire_stats().wire_round_trips - before, init_frames(bound, cells));
            drop(remote);
            daemon.shutdown();
            assert_eq!(contents(&mut dir.open(cache_bytes)), want, "behind the daemon, reopened");
        }
    }
    assert_eq!(roots[0], roots[1]);
    if !cells.is_empty() {
        assert_eq!(roots[0], MerkleTree::build(cells).root());
    }
}

/// The lists set-up's layers each have a seam for (the name is from when
/// set-up took cells of several lengths; it takes one now): nothing at
/// all, nothing in any cell, cells larger than a frame, and a frame filled
/// to the byte.
#[test]
fn set_up_is_the_same_everywhere_for_ragged_cell_lists() {
    let uniform: Vec<Vec<u8>> = (0..40u8).map(|i| cell(i, 24)).collect();
    // 34 + 2 × 8 = 50: the second cell fills a 50-byte frame exactly.
    let words: Vec<Vec<u8>> = (1..6u8).map(|i| cell(i, 8)).collect();
    let outsize: Vec<Vec<u8>> = (5..10u8).map(|i| cell(i, 100)).collect();
    for bound in [1, 50, 51, 1 << 20] {
        set_up_is_the_same_everywhere(&[], bound);
        set_up_is_the_same_everywhere(&vec![vec![]; 3], bound);
        set_up_is_the_same_everywhere(&uniform, bound);
        set_up_is_the_same_everywhere(&words, bound);
        set_up_is_the_same_everywhere(&outsize, bound);
    }
    // The same seams at the frame size production ships: cells that each
    // end a 1 MiB frame on the byte, and 1.5 MiB cells.
    let exact: Vec<Vec<u8>> = (1..4u8).map(|i| cell(i, (1 << 20) - 34)).collect();
    assert_eq!(init_frames(1 << 20, &exact), 3);
    set_up_is_the_same_everywhere(&exact, 1 << 20);
    let big: Vec<Vec<u8>> = (1..3u8).map(|i| cell(i, 3 << 19)).collect();
    set_up_is_the_same_everywhere(&big, 1 << 20);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn set_up_is_the_same_everywhere_for_any_cell_list(
        (n, len) in (0usize..24, 0usize..40),
        bound in 1usize..200,
    ) {
        let cells: Vec<Vec<u8>> = (0..n).map(|i| cell(i as u8, len)).collect();
        set_up_is_the_same_everywhere(&cells, bound);
    }
}

// ---- Scheme-level equivalence: zero call-site changes. -----------------

/// Runs `scheme` once against an in-process `SimServer` and once against
/// a remote daemon, comparing whatever the closure returns.
fn scheme_matches<R: PartialEq + std::fmt::Debug>(
    scheme: impl Fn(&'static str) -> R + Copy,
) -> (R, R) {
    let local = scheme("local");
    let remote = scheme("remote");
    assert_eq!(remote, local);
    (local, remote)
}

/// The two backends behind one generic entry point: schemes only see
/// `impl Storage`.
// The size skew is the remote's client-side machinery; test-only, and
// schemes need it by value (`impl Storage`), so boxing doesn't fit.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Local(SimServer),
    Remote(RemoteServer, NetDaemon),
}

fn backend(kind: &str) -> Backend {
    match kind {
        "local" => Backend::Local(SimServer::new()),
        _ => {
            let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
            let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
            Backend::Remote(remote, daemon)
        }
    }
}

macro_rules! run_scheme {
    ($kind:expr, |$server:ident| $body:expr) => {
        match backend($kind) {
            Backend::Local($server) => $body,
            Backend::Remote($server, _daemon) => $body,
        }
    };
}

#[test]
fn dp_ram_is_bit_identical_over_the_wire() {
    let n = 64;
    let db = database(n, 32);
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut rng = ChaChaRng::seed_from_u64(11);
            let mut ram = DpRam::setup(DpRamConfig::recommended(n), &db, server, &mut rng).unwrap();
            ram.server_mut().start_recording();
            let mut out = Vec::new();
            for i in 0..n {
                out.push(ram.read(i % n, &mut rng).unwrap());
                if i % 3 == 0 {
                    ram.write(i, vec![i as u8; 32], &mut rng).unwrap();
                }
            }
            (
                out,
                ram.server_stats().sans_wire(),
                ram.server_mut().take_transcript().canonical_encoding(),
            )
        })
    };
    scheme_matches(run);
}

/// A hardened scheme on the path users run — `DpRam<Verified<RemoteServer>>`
/// → `NetDaemon<DiskStore>`. Integrity is checked client-side, under
/// `Storage`, so the daemon sees and charges exactly what a `SimServer` does
/// for the plain scheme from the same seed; and once another connection overwrites
/// a cell, a query fails — with `Integrity` at that address — exactly when
/// its flight downloads the cell, decoy or not.
#[test]
fn hardened_dp_ram_is_the_plain_scheme_to_a_durable_daemon_and_catches_its_lies() {
    let n = 64;
    let db = database(n, 32);
    fn run<S: Storage>(db: &[Vec<u8>], server: S) -> (DpRam<S>, ChaChaRng, Observed) {
        let mut rng = ChaChaRng::seed_from_u64(77);
        let config = DpRamConfig { n: db.len(), stash_probability: 0.3 };
        let mut ram = DpRam::setup(config, db, server, &mut rng).unwrap();
        ram.server_mut().start_recording();
        let mut out = Vec::new();
        for i in 0..2 * db.len() {
            out.push(ram.read(i % db.len(), &mut rng).unwrap());
            if i % 3 == 0 {
                ram.write(i % db.len(), vec![i as u8; 32], &mut rng).unwrap();
            }
        }
        let stats = ram.server_stats().sans_wire().sans_cache();
        let view = ram.server_mut().take_transcript().canonical_encoding();
        (ram, rng, (out, stats, view))
    }

    let dir = std::env::temp_dir().join(format!("dps_loopback_hardened_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DiskOptions::default();
    let store = DiskStore::open_with(&dir, opts).expect("create disk store");
    let daemon = NetDaemon::spawn(store).expect("spawn daemon");
    let connect = || RemoteServer::connect(daemon.local_addr()).expect("connect");
    let (mut ram, mut rng, seen) = run(&db, Verified::new(connect()));
    assert_eq!(seen, run(&db, SimServer::new()).2);

    let victim = 17;
    connect().write(victim, vec![0x5A; 48]).unwrap();
    let mut detected = 0;
    for step in 0..200 {
        ram.server_mut().start_recording();
        let outcome = ram.read(rng.gen_index(n), &mut rng);
        let view = ram.server_mut().take_transcript();
        let downloaded = view.events().any(|e| e == AccessEvent::Download(victim));
        match outcome {
            Ok(_) => assert!(!downloaded, "step {step}: the overwritten cell was served"),
            Err(DpRamError::Server(ServerError::Integrity { addr })) => {
                assert!(downloaded && addr == victim, "step {step}: blamed {addr}");
                detected += 1;
            }
            Err(other) => panic!("step {step}: {other}"),
        }
    }
    assert!(detected > 0, "no flight reached the overwritten cell");

    drop(ram);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn dp_kvs_is_bit_identical_over_the_wire() {
    let n = 64;
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut rng = ChaChaRng::seed_from_u64(22);
            let mut kvs = DpKvs::setup(DpKvsConfig::recommended(n, 16), server, &mut rng).unwrap();
            let keys: Vec<u64> = (0..12u64).map(|k| k * 0x9e37_79b9 + 1).collect();
            for &k in &keys {
                kvs.put(k, vec![(k % 251) as u8; 16], &mut rng).unwrap();
            }
            let mut out = Vec::new();
            for &k in &keys {
                out.push(kvs.get(k, &mut rng).unwrap());
            }
            out.push(kvs.get(0xDEAD_BEEF, &mut rng).unwrap()); // miss
            (out, kvs.server_stats().sans_wire())
        })
    };
    scheme_matches(run);
}

#[test]
fn dp_ir_is_bit_identical_over_the_wire() {
    let n = 128;
    let db = database(n, 24);
    let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut rng = ChaChaRng::seed_from_u64(33);
            let mut ir = DpIr::setup(config, &db, server).unwrap();
            let out: Vec<_> = (0..n).map(|i| ir.query(i, &mut rng).unwrap()).collect();
            (out, ir.server_stats().sans_wire())
        })
    };
    scheme_matches(run);
}

#[test]
fn linear_oram_is_bit_identical_over_the_wire() {
    let n = 32;
    let db = database(n, 16);
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut rng = ChaChaRng::seed_from_u64(44);
            let mut oram = LinearOram::setup(&db, server, &mut rng);
            let mut out = Vec::new();
            for i in 0..n {
                out.push(oram.read(i, &mut rng).unwrap());
                oram.write(i, vec![i as u8 ^ 0x3C; 16], &mut rng).unwrap();
            }
            for i in 0..n {
                out.push(oram.read(i, &mut rng).unwrap());
            }
            (out, oram.server_stats().sans_wire())
        })
    };
    scheme_matches(run);
}

#[test]
fn path_oram_is_bit_identical_over_the_wire() {
    let n = 64;
    let db = database(n, 16);
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut rng = ChaChaRng::seed_from_u64(55);
            let mut oram =
                PathOram::setup(PathOramConfig::recommended(n, 16), &db, server, &mut rng);
            let mut out = Vec::new();
            for i in 0..n {
                out.push(oram.read(i, &mut rng).unwrap());
                if i % 2 == 0 {
                    oram.write(i, vec![i as u8; 16], &mut rng).unwrap();
                }
            }
            (out, oram.server_stats().sans_wire())
        })
    };
    scheme_matches(run);
}

#[test]
fn full_scan_pir_is_bit_identical_over_the_wire() {
    let n = 64;
    let db = database(n, 32);
    let run = |kind: &'static str| {
        run_scheme!(kind, |server| {
            let mut pir = FullScanPir::setup(&db, server);
            let out: Vec<_> = (0..n).map(|i| pir.query(i).unwrap()).collect();
            (out, pir.server_stats().sans_wire())
        })
    };
    scheme_matches(run);
}

#[test]
fn xor_pir_is_bit_identical_over_the_wire() {
    let n = 64;
    let db = database(n, 32);
    let local = {
        let mut pir: XorPir<SimServer> = XorPir::setup_with(&db, |_| SimServer::new());
        let mut rng = ChaChaRng::seed_from_u64(66);
        let out: Vec<_> = (0..n).map(|i| pir.query(i, &mut rng).unwrap()).collect();
        (out, pir.total_stats().sans_wire())
    };
    let remote = {
        // Two replicas on two independent daemons, like a real 2-server
        // deployment; the factory hands XorPir one connection per replica.
        let daemons: Vec<NetDaemon> = (0..2)
            .map(|_| NetDaemon::spawn(SimServer::new()).expect("spawn daemon"))
            .collect();
        let mut pir: XorPir<RemoteServer> = XorPir::setup_with(&db, |i| {
            RemoteServer::connect(daemons[i].local_addr()).expect("connect")
        });
        let mut rng = ChaChaRng::seed_from_u64(66);
        let out: Vec<_> = (0..n).map(|i| pir.query(i, &mut rng).unwrap()).collect();
        (out, pir.total_stats().sans_wire())
    };
    assert_eq!(remote, local);
}
