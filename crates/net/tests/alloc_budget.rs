//! Allocation budgets, counted by a process-wide allocator.
//!
//! **The data path does not materialise**: a steady-state exchange costs
//! the whole process — client and daemon threads together — no allocator
//! call.
//!
//! This is the regression test for "one buffer in, one buffer out": a
//! `ReadBatch` is parsed where the socket put it and answered straight
//! into the connection's send buffer; the client frames a request from the
//! caller's slices and visits the response in its receive buffer. Any
//! per-request `Vec` that grows back on either end (an owned frame, a
//! `Vec<Vec<u8>>` of cells, an address copy) shows up here as a count, not
//! as a timing.
//!
//! **The parser allocates in proportion to its input**: for every message,
//! every proper prefix of its encoding is a typed error, and every
//! single-byte corruption — the count fields among them — is a typed error
//! or the value that encodes to exactly those bytes, never a panic and
//! never an allocation that a count, rather than the bytes present, sized.
//! A cell list whose `count × stride` overflows or disagrees with its body
//! is refused before anything is allocated, and so is one of more cells
//! than the bytes present pay an owned `Vec` for — a list of empty cells
//! among them, whose count no byte pays for.
//!
//! **An answer costs the client what it asked for**: a peer that answers
//! any call with a `Cells` frame of the most empty cells a frame may name
//! (25 bytes) gets a typed error back, and the client allocates nothing
//! that count sized.
//!
//! **Set-up holds the database at most twice, and once when it returns**:
//! the bytes the process has requested and not given back — client and
//! daemon threads together — rise by at most 2.25 × the database while a
//! scheme is set up through `RemoteServer → NetDaemon<DiskStore>` (the
//! chunks the daemon received plus the image they are laid into; on the
//! client one frame), and are back within 1 MiB of where they were, plus
//! the identity-mode slab where there is one, when `setup` returns. A
//! clone of the caller's blocks, a `Vec` per received cell or an image
//! copied into the slab each show up as a whole database more. So does a
//! half-finished chunked init that outlives the next request.
//!
//! Its own test binary, with one test, because the counters are
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_net::wire::{frame_v2, read_frame_v2, visit_cells};
use dps_net::{NetDaemon, RemoteServer, Request, Response, WireError};
use dps_server::{
    AccessEvent, CostStats, DiskOptions, DiskStore, ServerError, SimServer, Storage, Transcript,
};
use dps_workloads::generators::database;

/// Calls that hand out or move memory (`alloc`, `alloc_zeroed`,
/// `realloc`); frees are not counted.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// The largest single request since it was last zeroed.
static LARGEST: AtomicU64 = AtomicU64::new(0);

/// Bytes requested and not yet given back (requested sizes: a `Vec` that
/// doubled counts its capacity), and their high-water mark since it was
/// last set.
static LIVE: AtomicU64 = AtomicU64::new(0);
static HIGH_WATER: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

fn took(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    HIGH_WATER.fetch_max(live, Ordering::Relaxed);
}

fn gave_back(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed atomics and
// touch no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        took(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        took(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        took(new_size);
        gave_back(layout.size());
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        gave_back(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CELLS: usize = 64;
const RECORD: usize = 256;
const EXCHANGES: u64 = 1_000;

#[test]
fn the_data_path_and_the_parser_keep_to_their_allocation_budgets() {
    a_steady_state_exchange_costs_no_allocator_call();
    the_parser_allocates_in_proportion_to_its_input();
    an_answer_costs_the_client_what_it_asked_for();
    set_up_holds_the_database_twice_at_most_and_once_when_it_returns();
    an_abandoned_chunked_init_is_freed_by_the_next_request();
}

const MIB: u64 = 1 << 20;

/// A durable daemon on a scratch directory (removed by the caller) and a
/// client of it.
fn durable_pair(tag: &str, cache_bytes: usize) -> (std::path::PathBuf, NetDaemon, RemoteServer) {
    let dir = std::env::temp_dir().join(format!("dps_alloc_budget_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DiskOptions { cache_bytes, ..DiskOptions::default() };
    let store = DiskStore::open_with(&dir, opts).expect("create disk store");
    let daemon = NetDaemon::spawn(store).expect("spawn daemon");
    let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
    (dir, daemon, remote)
}

/// What a set-up of `cells` cells cost the allocator, held to the budget.
struct SetUpCost {
    /// How far the live bytes rose at their highest while it ran.
    high: u64,
    /// How much higher they stand after it.
    left: u64,
    /// Allocator calls it made.
    calls: u64,
}

impl SetUpCost {
    fn of<T>(setup: impl FnOnce() -> T) -> (T, Self) {
        let (before, calls) = (LIVE.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
        HIGH_WATER.store(before, Ordering::Relaxed);
        let out = setup();
        let cost = SetUpCost {
            high: HIGH_WATER.load(Ordering::Relaxed) - before,
            left: LIVE.load(Ordering::Relaxed).saturating_sub(before),
            calls: CALLS.load(Ordering::Relaxed) - calls,
        };
        (out, cost)
    }

    /// `db` bytes in `cells` cells went to the server, which keeps `kept`
    /// of them in memory: at most 2.25 × `db` were held at once, `kept`
    /// plus 1 MiB are held now, and no layer allocated per cell.
    fn check(&self, what: &str, (db, cells): (u64, usize), kept: u64) {
        let SetUpCost { high, left, calls } = *self;
        println!("{what}: {db} bytes in {cells} cells; live bytes +{high} at most, +{left} after; {calls} calls");
        assert!(4 * high <= 9 * db, "{what} held {high} bytes over a {db}-byte database");
        assert!(left <= kept + MIB, "{what} left {left} bytes held, the store keeps {kept}");
        assert!(calls <= cells as u64 / 8, "{what} made {calls} allocator calls for {cells} cells");
    }
}

fn set_up_holds_the_database_twice_at_most_and_once_when_it_returns() {
    const N: usize = 1 << 15;
    let blocks = database(N, RECORD); // 8 MiB, the caller's: part of the baseline

    // DP-IR, a store with a bounded cache: nothing of the image stays.
    let (dir, daemon, remote) = durable_pair("ir", 1 << 18);
    let config = DpIrConfig::with_epsilon(N, (N as f64).ln(), 0.1).expect("config");
    let (ir, cost) = SetUpCost::of(|| DpIr::setup(config, &blocks, remote).expect("setup"));
    cost.check("DpIr::setup", ((N * RECORD) as u64, N), 0);
    drop(ir);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(dir);

    // DP-RAM, identity mode: the image stays, once, as the slab.
    let (dir, daemon, remote) = durable_pair("ram", 1 << 30);
    let mut rng = ChaChaRng::seed_from_u64(5);
    let config = DpRamConfig::recommended(N);
    let (ram, cost) =
        SetUpCost::of(|| DpRam::setup(config, &blocks, remote, &mut rng).expect("setup"));
    let db = (N * (RECORD + dps_crypto::CIPHERTEXT_OVERHEAD)) as u64;
    cost.check("DpRam::setup", (db, N), db);
    drop(ram);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

fn an_abandoned_chunked_init_is_freed_by_the_next_request() {
    let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
    let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
    assert_eq!(remote.request(&Request::Ping), Ok(Response::Pong));
    let chunk = Request::InitChunk { done: false, cells: vec![vec![7u8; RECORD]; 1 << 13] };

    let before = LIVE.load(Ordering::Relaxed);
    assert_eq!(remote.request(&chunk), Ok(Response::Ok));
    let pending = LIVE.load(Ordering::Relaxed) - before;
    assert!(pending >= 2 * MIB, "the daemon keeps the chunk it acknowledged ({pending} bytes)");
    assert_eq!(remote.request(&Request::Ping), Ok(Response::Pong));
    let left = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert!(left <= MIB / 8, "{left} bytes of an abandoned init survive the next request");
    drop(remote);
    daemon.shutdown();
}

fn a_steady_state_exchange_costs_no_allocator_call() {
    let mut server = SimServer::new();
    server.init((0..CELLS).map(|i| vec![i as u8; RECORD]).collect());
    let daemon = NetDaemon::spawn(server).expect("spawn daemon");
    let mut remote = RemoteServer::connect(daemon.local_addr()).expect("connect");

    // The shapes `ir_cold` and `kvs_durable` put on the wire.
    let read_addrs: Vec<usize> = (0..16).collect();
    let write_addrs: Vec<usize> = (32..52).collect();
    let flat = vec![0xA5u8; write_addrs.len() * RECORD];
    let mut seen = 0usize;
    let mut exchange = |remote: &mut RemoteServer| {
        remote
            .read_batch_with(&read_addrs, |_, cell| seen += cell.len())
            .expect("download");
        remote.write_batch_strided(&write_addrs, &flat).expect("upload");
    };

    // Warm-up: buffers reach their steady size.
    for _ in 0..100 {
        exchange(&mut remote);
    }
    let before = CALLS.load(Ordering::Relaxed);
    for _ in 0..EXCHANGES {
        exchange(&mut remote);
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    let per_exchange = calls as f64 / (2 * EXCHANGES) as f64;
    println!(
        "allocator calls per exchange: {per_exchange:.2} ({calls} over {} exchanges)",
        2 * EXCHANGES
    );
    assert_eq!(calls, 0, "{per_exchange:.2} allocator calls per exchange, budget none");

    assert_eq!(seen, (100 + EXCHANGES as usize) * read_addrs.len() * RECORD);
    assert_eq!(remote.read(40).expect("read back"), vec![0xA5u8; RECORD]);
    drop(remote);
    daemon.shutdown();
}

/// One of every request and response, small enough to corrupt exhaustively.
fn every_message() -> (Vec<Request>, Vec<Response>) {
    let cells = || vec![vec![1u8, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
    let empty = || vec![vec![]; 3];
    let mut transcript = Transcript::new();
    transcript.push_batch(vec![AccessEvent::Download(3), AccessEvent::Upload(1)]);
    transcript.push_batch(vec![]);
    transcript.push_batch(vec![AccessEvent::Compute(9)]);
    let requests = vec![
        Request::Ping,
        Request::InitChunk { done: true, cells: cells() },
        Request::InitChunk { done: false, cells: cells() },
        Request::InitChunk { done: true, cells: empty() },
        Request::Capacity,
        Request::CellStride,
        Request::StartRecording,
        Request::TakeTranscript,
        Request::Stats,
        Request::ResetStats,
        Request::ReadBatch { addrs: vec![0, 9, 3] },
        Request::WriteBatchStrided { addrs: vec![1, 2], flat: vec![7; 8] },
        Request::XorCells { addrs: vec![1, 2, 3] },
    ];
    let responses = vec![
        Response::Ok,
        Response::Pong,
        Response::Number(u64::MAX),
        Response::Stats(CostStats { downloads: 1, bytes_up: 9, ..Default::default() }),
        Response::TranscriptData(transcript),
        Response::Cells(cells()),
        Response::Cells(empty()),
        Response::Bytes(vec![0xAB; 7]),
        Response::Fail(ServerError::OutOfBounds { addr: 12, capacity: 10 }),
        Response::Fail(ServerError::Interrupted),
        Response::Fail(ServerError::Integrity { addr: 7 }),
        Response::Fail(ServerError::WrongCellLength { addr: 5, len: 9, stride: 8 }),
    ];
    (requests, responses)
}

/// Decodes `input` with `decode` and holds the outcome to the contract:
/// the largest allocation is a small multiple of the input (an owned cell
/// costs a 24-byte `Vec`, which at least 3 bytes of the input pay for;
/// nothing costs more), and a value that decodes is the one `input`
/// encodes.
fn decode_within_budget<T>(
    input: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, dps_net::WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> bool {
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = decode(input);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 8 * input.len() as u64 + 64,
        "a {}-byte input made the parser request {largest} bytes at once: {input:02x?}",
        input.len()
    );
    let _ = visit_cells(input, |_, _| {});
    match decoded {
        Ok(value) => {
            assert_eq!(encode(&value), input, "a non-canonical encoding decoded");
            true
        }
        Err(_) => false,
    }
}

/// A peer that answers every request with a `Cells` frame naming the most
/// empty cells a frame may (2^25, in 25 bytes): every call the client makes
/// fails typed — the `Storage` ones by panicking, as wire failures do — and
/// none of them allocates anything near the 768 MiB that an owned copy of
/// that list would take.
fn an_answer_costs_the_client_what_it_asked_for() {
    use std::io::Write;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut answer = vec![0x8A];
        answer.extend_from_slice(&(1u64 << 25).to_le_bytes());
        answer.extend_from_slice(&0u64.to_le_bytes());
        while let Ok(Some((id, _))) = read_frame_v2(&mut stream) {
            let sent = stream.write_all(&frame_v2(id, &answer).expect("frame"));
            if sent.is_err() {
                break;
            }
        }
    });
    let mut remote = RemoteServer::connect(addr).expect("connect");
    let costs = |what: &str, call: &mut dyn FnMut() -> bool| {
        LARGEST.store(0, Ordering::Relaxed);
        assert!(call(), "{what} took the hostile answer");
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest <= MIB, "{what} allocated {largest} bytes at once for a 25-byte answer");
    };
    let mismatch = |expected| WireError::CellCountMismatch { got: 1 << 25, expected };
    let named = Err(WireError::BadPayload("unexpected Cells response").into());
    costs("ping", &mut || remote.ping() == named);
    costs("request(Ping)", &mut || remote.request(&Request::Ping) == Err(mismatch(0).into()));
    let read = Request::ReadBatch { addrs: vec![0, 1, 2] };
    costs("request(ReadBatch)", &mut || remote.request(&read) == Err(mismatch(3).into()));
    costs("try_read_batch_with", &mut || {
        remote.try_read_batch_with(&[0, 1, 2], |_, _| {}) == Err(mismatch(3).into())
    });

    let mut panics = |what: &str, call: &mut dyn FnMut(&mut RemoteServer)| {
        costs(what, &mut || {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let refused = catch_unwind(AssertUnwindSafe(|| call(&mut remote))).is_err();
            std::panic::set_hook(hook);
            refused
        });
    };
    panics("capacity", &mut |r| {
        r.capacity();
    });
    panics("write_batch_strided", &mut |r| drop(r.write_batch_strided(&[1, 2], &[7; 16])));
    panics("xor_cells_into", &mut |r| drop(r.xor_cells_into(&[1, 2], &mut Vec::new())));
    panics("init", &mut |r| r.init(vec![vec![1u8; 8]; 4]));
    drop(remote);
    peer.join().expect("peer");
}

fn the_parser_allocates_in_proportion_to_its_input() {
    fn sweep<T: std::fmt::Debug>(
        message: &T,
        decode: impl Fn(&[u8]) -> Result<T, dps_net::WireError> + Copy,
        encode: impl Fn(&T) -> Vec<u8> + Copy,
        seed: &mut u64,
    ) {
        let bytes = encode(message);
        assert!(decode_within_budget(&bytes, decode, encode), "{message:?} does not round-trip");
        for cut in 0..bytes.len() {
            assert!(
                !decode_within_budget(&bytes[..cut], decode, encode),
                "{message:?}: the {cut}-byte prefix decoded"
            );
        }
        for at in 0..bytes.len() {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let random = (*seed >> 56) as u8;
            for value in [bytes[at] ^ 0x01, bytes[at] ^ 0x80, 0xFF, random] {
                let mut corrupt = bytes.clone();
                corrupt[at] = value;
                decode_within_budget(&corrupt, decode, encode);
            }
        }
    }
    let (requests, responses) = every_message();
    let mut seed = 0x5EED;
    for request in &requests {
        sweep(request, Request::decode, Request::encode, &mut seed);
    }
    for response in &responses {
        sweep(response, Response::decode, Response::encode, &mut seed);
    }

    // Each cell list — the `InitChunk` request (0x13, here with `done`),
    // the `Cells` answer (0x8A) — with a `count × stride` that overflows, or
    // that claims more or fewer bytes than the body holds.
    let hostile = |head: &[u8], count: u64, stride: u64, body: usize| {
        let mut payload = head.to_vec();
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&stride.to_le_bytes());
        payload.resize(payload.len() + body, 0xC5);
        payload
    };
    let cases = [(1 << 20, 1 << 60, 8), (1 << 24, 1 << 8, 64), (3, 4, 11), (3, 4, 13)];
    for (count, stride, body) in cases {
        let request = hostile(&[0x13, 1], count, stride, body);
        assert!(matches!(Request::decode(&request), Err(WireError::BadPayload(_))));
        assert!(!decode_within_budget(&request, Request::decode, Request::encode));
        let response = hostile(&[0x8A], count, stride, body);
        assert!(matches!(Response::decode(&response), Err(WireError::BadPayload(_))));
        assert!(!decode_within_budget(&response, Response::decode, Response::encode));
    }
}
