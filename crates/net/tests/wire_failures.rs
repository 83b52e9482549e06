//! Wire-protocol failure modes: what happens when the bytes are wrong.
//!
//! Three layers of defense are pinned here:
//!
//! * **Codec totality** — `decode(encode(x)) == x` for arbitrary requests
//!   and responses (proptest), and the decoders never panic or allocate
//!   unboundedly on arbitrary byte soup, corrupt headers, truncated
//!   frames or oversized length prefixes.
//! * **Daemon resilience** — a connection sending garbage, a truncated
//!   frame, a hostile length prefix or the retired `DPS1` framing is
//!   dropped, while the daemon keeps serving other connections.
//! * **Client failure surfacing** — a peer that vanishes mid-batch
//!   produces a typed [`WireError`] through the fallible
//!   [`RemoteServer::try_call`] API and [`ServerError::Interrupted`]
//!   through the [`Storage`] data operations; a peer that breaks the
//!   protocol panics the [`Storage`] surface (never a wrong answer).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use dps_net::wire::{frame_v2, read_frame_v2, visit_cells, HEADER2_LEN, MAGIC2, MAX_FRAME};
use dps_net::{DaemonLimits, NetDaemon, RemoteError, RemoteServer, Request, Response, WireError};
use dps_server::{ServerError, SimServer, Storage};
use proptest::prelude::*;

/// Frames `payload` under an arbitrary request id.
fn frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    frame_v2(1, payload)
}

/// Splits one frame off the front of `buf`, returning `(payload, rest)`:
/// the buffer-level use of [`read_frame_v2`].
fn deframe(mut buf: &[u8]) -> Result<(Vec<u8>, &[u8]), WireError> {
    match read_frame_v2(&mut buf)? {
        Some((_, payload)) => Ok((payload, buf)),
        None => Err(WireError::Truncated { expected: HEADER2_LEN, got: 0 }),
    }
}

// ---- Codec proptests ---------------------------------------------------

/// Ingredient-tuple strategy (the vendored proptest has no `prop_oneof!`):
/// a selector byte picks the request variant.
/// A cell list of one stride: up to five cells of up to 23 bytes (0
/// included), each of its own bytes.
fn arb_cells() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (0usize..6, 0usize..24, proptest::collection::vec(any::<u8>(), 6 * 24)).prop_map(
        |(n, stride, bytes)| {
            bytes
                .chunks_exact(24)
                .take(n)
                .map(|c| c[..stride].to_vec())
                .collect()
        },
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    let addrs = proptest::collection::vec(0usize..10_000, 0..8);
    let cells = arb_cells();
    (0u8..11, addrs, cells, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..48)).prop_map(
        |(variant, addrs, cells, done, flat)| match variant {
            0 => Request::Ping,
            1 => Request::InitChunk { done, cells },
            2 => Request::Capacity,
            3 => Request::CellStride,
            4 => Request::StartRecording,
            5 => Request::TakeTranscript,
            6 => Request::Stats,
            7 => Request::ResetStats,
            8 => Request::ReadBatch { addrs },
            9 => Request::WriteBatchStrided { addrs, flat },
            _ => Request::XorCells { addrs },
        },
    )
}

fn arb_response() -> impl Strategy<Value = Response> {
    let cells = arb_cells();
    let events = proptest::collection::vec((0u8..3, 0usize..10_000), 0..10);
    (0u8..8, cells, events, any::<u64>(), 0usize..10_000).prop_map(
        |(variant, cells, events, v, n)| match variant {
            0 => Response::Ok,
            1 => Response::Pong,
            2 => Response::Number(v),
            3 => Response::Stats(dps_server::CostStats {
                downloads: v,
                uploads: v ^ 0xFF,
                bytes_down: v >> 3,
                round_trips: v % 997,
                wire_round_trips: v % 31,
                wire_bytes_up: v % 7919,
                ..Default::default()
            }),
            4 => {
                let mut t = dps_server::Transcript::new();
                // Split the events into two batches to exercise batch
                // framing, not just flat event lists.
                let half = events.len() / 2;
                for chunk in [&events[..half], &events[half..]] {
                    t.push_batch(
                        chunk
                            .iter()
                            .map(|&(tag, addr)| match tag {
                                0 => dps_server::AccessEvent::Download(addr),
                                1 => dps_server::AccessEvent::Upload(addr),
                                _ => dps_server::AccessEvent::Compute(addr),
                            })
                            .collect(),
                    );
                }
                Response::TranscriptData(t)
            }
            5 => Response::Cells(cells),
            6 => Response::Bytes(cells.into_iter().flatten().collect()),
            _ => Response::Fail(match v % 4 {
                0 => ServerError::OutOfBounds { addr: n, capacity: n / 2 },
                1 => ServerError::Integrity { addr: n },
                2 => ServerError::WrongCellLength { addr: n, len: n / 3 + 1, stride: n / 3 },
                _ => ServerError::Interrupted,
            }),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode ∘ encode = id, through the frame layer too.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let framed = frame(&req.encode()).unwrap();
        let (payload, rest) = deframe(&framed).unwrap();
        assert!(rest.is_empty());
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let framed = frame(&resp.encode()).unwrap();
        let (payload, _) = deframe(&framed).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
        // The zero-copy cells walk agrees with the owning decoder.
        let mut walked = Vec::new();
        let was_cells = visit_cells(&payload, |i, c| walked.push((i, c.to_vec()))).unwrap();
        if let Response::Cells(cells) = &resp {
            assert!(was_cells);
            let expect: Vec<_> = cells.iter().cloned().enumerate().collect();
            assert_eq!(walked, expect);
        } else {
            assert!(!was_cells);
        }
    }

    /// Arbitrary byte soup must produce a typed error or a value — never
    /// a panic, never an unbounded allocation (the `count` guard).
    #[test]
    fn decoders_are_total_on_garbage(blob in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Request::decode(&blob);
        let _ = Response::decode(&blob);
        let _ = deframe(&blob);
        let _ = visit_cells(&blob, |_, _| {});
    }

    /// Any single-bit corruption of the 4 magic bytes is caught at the
    /// header, before the payload is even looked at.
    #[test]
    fn corrupt_magic_never_passes(bit in 0u32..32) {
        let mut framed = frame(&Request::Ping.encode()).unwrap();
        framed[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert!(matches!(deframe(&framed), Err(WireError::BadMagic { .. })));
    }

    /// Any truncation of a frame is `Truncated`, at every cut point.
    #[test]
    fn truncation_is_always_detected(cut in 0usize..20) {
        let framed = frame(&Request::ReadBatch { addrs: vec![1, 2, 3] }.encode()).unwrap();
        let cut = cut.min(framed.len() - 1);
        assert!(matches!(deframe(&framed[..cut]), Err(WireError::Truncated { .. })));
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut framed = frame(&Request::Ping.encode()).unwrap();
    for huge in [MAX_FRAME as u32 + 1, u32::MAX] {
        framed[4..8].copy_from_slice(&huge.to_le_bytes());
        assert_eq!(deframe(&framed), Err(WireError::BadLength { len: u64::from(huge) }));
    }
}

// ---- Daemon resilience -------------------------------------------------

fn daemon_with_cells(n: usize) -> NetDaemon {
    let mut server = SimServer::new();
    server.init((0..n).map(|i| vec![i as u8; 8]).collect());
    NetDaemon::spawn(server).expect("spawn daemon")
}

/// Reads until EOF; returns how many bytes the peer sent before closing.
fn drain(stream: &mut TcpStream) -> usize {
    let mut total = 0;
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return total,
            Ok(n) => total += n,
            Err(_) => return total,
        }
    }
}

fn assert_still_serving(addr: SocketAddr) {
    let mut ok = RemoteServer::connect(addr).expect("connect");
    ok.ping().expect("daemon must still answer");
    assert_eq!(Storage::read(&mut ok, 1).unwrap(), vec![1u8; 8]);
}

#[test]
fn daemon_drops_garbage_connections_and_keeps_serving() {
    let daemon = daemon_with_cells(4);
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    bad.write_all(b"GET / HTTP/1.1\r\n\r\n this is not the protocol")
        .unwrap();
    assert_eq!(drain(&mut bad), 0, "garbage must be answered with a close, not bytes");
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

#[test]
fn daemon_rejects_oversized_length_prefix() {
    let daemon = daemon_with_cells(4);
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC2.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB claim
    bad.write_all(&header).unwrap();
    assert_eq!(drain(&mut bad), 0, "hostile length prefix must close the connection");
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

/// The retired one-in-flight framing — `"DPS1"`, payload length, payload:
/// an 8-byte header — is what any unknown magic is: a protocol error that
/// costs its sender the connection and nobody else anything.
#[test]
fn daemon_rejects_dps1_frames_and_keeps_serving() {
    let daemon = daemon_with_cells(4);
    let before = daemon.metrics().protocol_errors;
    let payload = Request::Ping.encode();
    let mut old = b"DPS1".to_vec();
    old.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    old.extend_from_slice(&payload);
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    bad.write_all(&old).unwrap();
    assert_eq!(drain(&mut bad), 0, "a DPS1 frame must be answered with a close, not a Pong");
    assert_eq!(daemon.metrics().protocol_errors, before + 1);
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

#[test]
fn daemon_survives_truncated_frame_then_disconnect() {
    let daemon = daemon_with_cells(4);
    {
        let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
        let framed = frame(&Request::ReadBatch { addrs: vec![0, 1, 2] }.encode()).unwrap();
        bad.write_all(&framed[..framed.len() / 2]).unwrap();
        // Drop mid-frame: the handler sees Truncated and closes quietly.
    }
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

#[test]
fn daemon_refuses_contract_violating_strided_writes() {
    // flat length not a multiple of the address count would panic an
    // in-process caller; over the wire it must only cost the offender its
    // connection.
    let daemon = daemon_with_cells(4);
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let evil = Request::WriteBatchStrided { addrs: vec![0, 1], flat: vec![9u8; 7] };
    bad.write_all(&frame(&evil.encode()).unwrap()).unwrap();
    assert_eq!(drain(&mut bad), 0, "contract violation must close, not crash");
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

/// A small `ReadBatch` frame must not make the daemon copy out (and
/// charge) an answer that cannot fit a frame: it is refused before the
/// store is touched, like a write that would blow the allocation budget.
#[test]
fn daemon_refuses_a_read_batch_whose_answer_cannot_fit_a_frame() {
    let mut server = SimServer::new();
    server.init(vec![vec![0xAB; 1 << 20]]);
    let daemon = NetDaemon::spawn(server).expect("spawn daemon");
    let before = daemon.metrics().protocol_errors;
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let evil = Request::ReadBatch { addrs: vec![0; 300] }; // 300 MiB > MAX_FRAME
    bad.write_all(&frame(&evil.encode()).unwrap()).unwrap();
    assert_eq!(drain(&mut bad), 0, "an unanswerable read must close, not allocate");
    assert_eq!(daemon.metrics().protocol_errors, before + 1);

    let mut ok = RemoteServer::connect(daemon.local_addr()).expect("connect");
    assert_eq!(ok.stats().downloads, 0, "the refused batch must not have touched the store");
    assert_eq!(Storage::read(&mut ok, 0).unwrap(), vec![0xAB; 1 << 20]);
    daemon.shutdown();
}

/// Allocation amplification attacks are stopped: a tiny frame must not be
/// able to make the daemon allocate far beyond its budget. A 17-byte frame
/// of the retired empty-init opcode claiming 2^40 cells is an unknown
/// opcode and closes the connection; a set-up chunk that claims 64 Ki + 1
/// cells of 4 KiB — 256 MiB — over a body of 580 KiB disagrees with its
/// body and closes it too, and so does a set-up of one length past
/// [`DaemonLimits`]; and a write of a cell far longer than the stride, or
/// one byte longer or shorter, is refused in-band as `WrongCellLength` —
/// the model allocates nothing for it, and the connection keeps serving.
#[test]
fn daemon_budget_stops_allocation_amplification() {
    let mut server = SimServer::new();
    server.init((0..64).map(|i| vec![i as u8; 8]).collect());
    let limits = DaemonLimits { max_stored_bytes: 1 << 20, ..Default::default() }; // 1 MiB budget
    let daemon = NetDaemon::bind_with("127.0.0.1:0", server, limits).expect("bind");
    let before = daemon.metrics().protocol_errors;

    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut init_empty = vec![0x03];
    init_empty.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bad.write_all(&frame(&init_empty).unwrap()).unwrap();
    assert_eq!(drain(&mut bad), 0, "a retired opcode must close, not allocate");

    // Stride amplification: the bytes of 64 Ki one-byte cells and one
    // 4 KiB cell (~580 KiB, what a set-up of two lengths once sent), under
    // a head claiming 64 Ki + 1 cells of the long one's stride.
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut evil = vec![0x13, 1];
    evil.extend_from_slice(&((1u64 << 16) + 1).to_le_bytes());
    evil.extend_from_slice(&4096u64.to_le_bytes());
    evil.resize(evil.len() + (1 << 16) + 4096, 0);
    bad.write_all(&frame(&evil).unwrap()).unwrap();
    assert_eq!(drain(&mut bad), 0, "stride amplification must close, not allocate");
    assert_eq!(daemon.metrics().protocol_errors, before + 2);

    // One length, past the budget: 300 cells of 4 KiB project 1.2 MB.
    let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
    let evil = Request::InitChunk { done: true, cells: vec![vec![0u8; 4096]; 300] };
    bad.write_all(&frame(&evil.encode()).unwrap()).unwrap();
    assert_eq!(drain(&mut bad), 0, "an over-budget set-up must close, not allocate");
    assert_eq!(daemon.metrics().protocol_errors, before + 3);

    // A 512 KiB cell against the 8-byte stride of the 64-cell store, and
    // cells one byte off it: the model refuses each before the store is
    // asked, and says so in-band.
    let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
    for (addrs, len) in [(vec![0], 1 << 19), (vec![1, 2], 9), (vec![3], 7)] {
        let flat = vec![0u8; addrs.len() * len];
        let wrong = ServerError::WrongCellLength { addr: addrs[0], len, stride: 8 };
        let evil = Request::WriteBatchStrided { addrs, flat };
        assert_eq!(remote.request(&evil), Err(RemoteError::Server(wrong)));
    }
    assert_eq!(remote.request(&Request::CellStride), Ok(Response::Number(8)));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(64)));
    assert_eq!(daemon.metrics().protocol_errors, before + 3, "the refusals kept the connection");
    let stats = remote.request(&Request::Stats);
    assert!(matches!(stats, Ok(Response::Stats(s)) if s.uploads == 0 && s.round_trips == 0));

    // In-budget traffic still works, and the daemon survived all of it.
    assert_still_serving(daemon.local_addr());
    daemon.shutdown();
}

/// The stored-bytes query (`0x05`), the upload frame of cells of several
/// lengths (`0x0D`) and the set-up chunk that gave each cell a length of
/// its own (`0x12`) are retired: a frame of any of them — the last two as
/// their last client wrote them — closes its connection like any unknown
/// opcode, and the daemon serves everyone else.
#[test]
fn retired_ragged_cell_opcodes_close_the_connection() {
    let daemon = daemon_with_cells(4);
    // `0x0D` with two cells, (6, [1]) and (7, [2, 3]).
    let mut write_batch = vec![0x0D];
    for v in [2u64, 6, 1] {
        write_batch.extend_from_slice(&v.to_le_bytes());
    }
    write_batch.push(1);
    for v in [7u64, 2] {
        write_batch.extend_from_slice(&v.to_le_bytes());
    }
    write_batch.extend_from_slice(&[2, 3]);
    // `0x12`, a whole set-up of one 8-byte cell behind its length.
    let mut init_chunk = vec![0x12, 1];
    for v in [1u64, 8] {
        init_chunk.extend_from_slice(&v.to_le_bytes());
    }
    init_chunk.extend_from_slice(&[5; 8]);
    for (i, payload) in [vec![0x05], write_batch, init_chunk].iter().enumerate() {
        let errors = daemon.metrics().protocol_errors;
        let mut bad = TcpStream::connect(daemon.local_addr()).unwrap();
        bad.write_all(&frame(payload).unwrap()).unwrap();
        assert_eq!(drain(&mut bad), 0, "retired opcode {:#04x} answered", payload[0]);
        assert_eq!(daemon.metrics().protocol_errors, errors + 1, "frame {i}");
        assert_still_serving(daemon.local_addr());
    }
    daemon.shutdown();
}

/// A set-up has one stride: its first chunk's, which each chunk states
/// once for all its cells (a frame cannot hold cells of two lengths). A
/// chunk of another — longer or shorter, the run's `done` chunk or one
/// before it — closes the connection before anything is laid out: the store
/// keeps what it held, the daemon counts a protocol error and serves
/// everyone else.
#[test]
fn a_ragged_set_up_closes_the_connection_wherever_the_odd_cell_arrives() {
    let daemon = daemon_with_cells(4);
    let chunk = |done, cells| Request::InitChunk { done, cells };
    let eights = || chunk(false, vec![vec![5u8; 8]; 3]);
    let runs = [
        vec![eights(), chunk(true, vec![vec![5u8; 9]])],
        vec![eights(), chunk(true, vec![vec![5u8; 7]; 2])],
        vec![eights(), eights(), chunk(false, vec![vec![5u8; 9]])],
        vec![eights(), chunk(true, vec![vec![]])],
        vec![chunk(false, vec![vec![]; 2]), chunk(true, vec![vec![5u8; 1]])],
    ];
    for (i, run) in runs.iter().enumerate() {
        let errors = daemon.metrics().protocol_errors;
        let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
        let (last, first) = run.split_last().unwrap();
        for (id, request) in first.iter().enumerate() {
            raw.write_all(&request.encode_framed_v2(id as u64).unwrap())
                .unwrap();
            let (_, payload) = read_frame_v2(&mut raw).unwrap().expect("the run's first chunks");
            assert_eq!(Response::decode(&payload), Ok(Response::Ok), "run {i}");
        }
        raw.write_all(&last.encode_framed_v2(9).unwrap()).unwrap();
        assert_eq!(drain(&mut raw), 0, "run {i}: a ragged set-up must close, not answer");
        assert_eq!(daemon.metrics().protocol_errors, errors + 1, "run {i}");
        let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
        assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(4)), "run {i}");
        assert_still_serving(daemon.local_addr());
    }
    daemon.shutdown();
}

/// Within-budget chunked inits pass the same budget check cumulatively:
/// the accumulated total is what counts, not each chunk alone.
#[test]
fn daemon_budget_applies_across_init_chunks() {
    let limits = DaemonLimits { max_stored_bytes: 4096, ..Default::default() };
    let daemon = NetDaemon::bind_with("127.0.0.1:0", SimServer::new(), limits).expect("bind");

    // 8 cells of 64 B ≈ 8 × (64+16) = 640 projected bytes per chunk;
    // seven chunks in, the cumulative projection crosses 4096 and the
    // connection must drop mid-stream.
    let mut client = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut closed = false;
    for _ in 0..16 {
        let chunk = Request::InitChunk { done: false, cells: vec![vec![0u8; 64]; 8] };
        if client.write_all(&frame(&chunk.encode()).unwrap()).is_err() {
            closed = true;
            break;
        }
        let mut reader = &client;
        match read_frame_v2(&mut reader) {
            Ok(Some(_)) => {}
            _ => {
                closed = true;
                break;
            }
        }
    }
    assert!(closed, "cumulative chunked init must eventually breach the budget");
    daemon.shutdown();
}

/// A chunked init is contiguous: any other request on the connection ends
/// a half-finished one, so a later stream starts from nothing instead of
/// being spliced behind the stale prefix — and an init the client abandoned
/// never becomes the store.
#[test]
fn a_half_finished_chunked_init_ends_at_the_next_request() {
    let daemon = daemon_with_cells(4);
    let remote = RemoteServer::connect(daemon.local_addr()).expect("connect");
    let chunk = |done, byte: u8, n| Request::InitChunk { done, cells: vec![vec![byte; 8]; n] };

    assert_eq!(remote.request(&chunk(false, 0xAA, 3)), Ok(Response::Ok));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(4)), "not applied");
    assert_eq!(remote.request(&chunk(false, 0xBB, 2)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(true, 0xCC, 1)), Ok(Response::Ok));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(3)));
    assert_eq!(
        remote.request(&Request::ReadBatch { addrs: vec![0, 1, 2] }),
        Ok(Response::Cells(vec![vec![0xBB; 8], vec![0xBB; 8], vec![0xCC; 8]]))
    );

    // A failing request ends one as well; a lone `done` chunk is a whole
    // set-up, and ends nothing but its own run.
    assert_eq!(remote.request(&chunk(false, 0xDD, 5)), Ok(Response::Ok));
    assert!(remote.request(&Request::ReadBatch { addrs: vec![99] }).is_err());
    assert_eq!(remote.request(&chunk(true, 0xEE, 1)), Ok(Response::Ok));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(1)));
    assert_eq!(remote.request(&chunk(true, 0x11, 2)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(true, 0xFF, 1)), Ok(Response::Ok));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(1)));

    // A chunk of no cells has no stride to disagree with: it may end a run
    // of 8-byte cells, and a run that begins with one takes its stride from
    // the first chunk with cells in it.
    assert_eq!(remote.request(&chunk(false, 0x22, 2)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(true, 0, 0)), Ok(Response::Ok));
    assert_eq!(remote.request(&Request::Capacity), Ok(Response::Number(2)));
    assert_eq!(remote.request(&chunk(false, 0, 0)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(false, 0x33, 1)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(false, 0, 0)), Ok(Response::Ok));
    assert_eq!(remote.request(&chunk(true, 0x44, 1)), Ok(Response::Ok));
    assert_eq!(
        remote.request(&Request::ReadBatch { addrs: vec![0, 1] }),
        Ok(Response::Cells(vec![vec![0x33; 8], vec![0x44; 8]]))
    );
    drop(remote);
    daemon.shutdown();
}

// ---- Client-side failure surfacing -------------------------------------

/// A one-connection fake peer running `behavior`, for client-side tests.
fn fake_peer(behavior: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            behavior(stream);
        }
    });
    addr
}

/// Reads one full v2 frame off the socket (header + payload), returning
/// its request id so the fake peer can respond at a protocol-meaningful
/// boundary with a correctly (or deliberately wrongly) tagged answer.
fn swallow_request(stream: &mut TcpStream) -> u64 {
    let mut header = [0u8; HEADER2_LEN];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    let id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    id
}

#[test]
fn mid_batch_connection_drop_is_a_truncated_error() {
    let addr = fake_peer(|mut stream| {
        let id = swallow_request(&mut stream);
        // Answer with the first half of a valid Cells response, then die.
        let full = frame_v2(id, &Response::Cells(vec![vec![7u8; 64]; 8]).encode()).unwrap();
        stream.write_all(&full[..full.len() / 2]).unwrap();
        // stream drops here: connection reset mid-frame.
    });
    let remote = RemoteServer::connect(addr).unwrap();
    let err = remote
        .try_call(&Request::ReadBatch { addrs: (0..8).collect() })
        .unwrap_err();
    assert!(
        matches!(err, RemoteError::Wire(WireError::Truncated { .. } | WireError::Io(_))),
        "mid-frame drop must surface as Truncated/Io, got {err:?}"
    );
}

/// Sixteen hostile bytes: a well-formed header announcing the largest
/// frame there is, ten bytes of it, then nothing. The client's buffer
/// follows the bytes that arrive, so this is a cut stream like any other —
/// `Truncated` on the typed surface, `Interrupted` on `Storage` — and not
/// a 256 MiB reservation (the capacity itself is pinned by a unit test in
/// `client.rs`, where the buffer is visible).
#[test]
fn a_hostile_length_prefix_is_a_cut_stream_not_a_reservation() {
    let hostile = || {
        fake_peer(|mut stream| {
            let id = swallow_request(&mut stream);
            let mut bytes = frame_v2(id, &[0x8A; 10]).unwrap();
            bytes[4..8].copy_from_slice(&(MAX_FRAME as u32).to_le_bytes());
            stream.write_all(&bytes).unwrap();
        })
    };
    let remote = RemoteServer::connect(hostile()).unwrap();
    assert_eq!(
        remote.try_read_batch(&[0]),
        Err(RemoteError::Wire(WireError::Truncated { expected: MAX_FRAME, got: 10 }))
    );
    let mut remote = RemoteServer::connect(hostile()).unwrap();
    assert_eq!(remote.read_batch_with(&[0], |_, _| {}), Err(ServerError::Interrupted));
}

#[test]
fn peer_vanishing_before_responding_is_truncated_at_zero() {
    let addr = fake_peer(|mut stream| {
        swallow_request(&mut stream);
        // Close without responding at a clean frame boundary.
    });
    let remote = RemoteServer::connect(addr).unwrap();
    let err = remote.try_call(&Request::Capacity).unwrap_err();
    assert_eq!(err, RemoteError::Wire(WireError::Truncated { expected: HEADER2_LEN, got: 0 }));
}

/// A peer that answers with something that is not the protocol is not a
/// storage outcome the scheme could handle: the `Storage` surface panics.
#[test]
fn storage_surface_panics_rather_than_fabricating_answers() {
    let addr = fake_peer(|mut stream| {
        let id = swallow_request(&mut stream);
        let mut framed = frame_v2(id, &Response::Cells(vec![vec![7u8; 4]]).encode()).unwrap();
        framed[0] ^= 0xFF;
        stream.write_all(&framed).unwrap();
        let mut sink = [0u8; 1];
        let _ = stream.read(&mut sink);
    });
    let mut remote = RemoteServer::connect(addr).unwrap();
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Storage::read(&mut remote, 0)));
    assert!(result.is_err(), "a broken wire must panic the Storage surface");
}

/// A cut connection is not a protocol violation: once the daemon is gone
/// the data operations return the typed `Interrupted` (application state
/// unknown), and a scheme running over the connection fails its operation
/// instead of unwinding the process.
#[test]
fn a_cut_connection_is_interrupted_on_the_storage_surface() {
    use dps_core::dp_ram::{DpRam, DpRamConfig};
    use dps_crypto::ChaChaRng;

    let daemon = daemon_with_cells(4);
    let mut remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    assert_eq!(Storage::read(&mut remote, 1).unwrap(), vec![1u8; 8]);
    daemon.shutdown();
    assert_eq!(remote.read_batch_with(&[0, 1], |_, _| {}), Err(ServerError::Interrupted));
    assert_eq!(remote.write_from(0, &[9u8; 8]), Err(ServerError::Interrupted));

    let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let mut rng = ChaChaRng::seed_from_u64(7);
    let db: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
    let mut ram = DpRam::setup(DpRamConfig::recommended(16), &db, remote, &mut rng).unwrap();
    assert_eq!(ram.read(3, &mut rng).unwrap(), db[3]);
    daemon.shutdown();
    assert!(ram.read(3, &mut rng).is_err(), "a daemon restart must fail the read, not abort");
}

/// A structurally valid `Cells` response carrying the *wrong number* of
/// cells must panic, not fire the visitor a different number of times
/// than the Storage contract promises (one visit per requested address).
#[test]
fn wrong_cell_count_panics_rather_than_skipping_visits() {
    for wrong_count in [2usize, 5] {
        let addr = fake_peer(move |mut stream| {
            let id = swallow_request(&mut stream);
            let short = Response::Cells(vec![vec![7u8; 4]; wrong_count]).encode();
            stream.write_all(&frame_v2(id, &short).unwrap()).unwrap();
            let mut sink = [0u8; 1];
            let _ = stream.read(&mut sink);
        });
        let mut remote = RemoteServer::connect(addr).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Storage::read_batch(&mut remote, &[0, 1, 2]) // 3 requested
        }));
        assert!(result.is_err(), "a {wrong_count}-cell answer to a 3-cell request must panic");
    }
}

#[test]
fn corrupt_response_magic_is_a_bad_magic_error() {
    let addr = fake_peer(|mut stream| {
        let id = swallow_request(&mut stream);
        let mut framed = frame_v2(id, &Response::Pong.encode()).unwrap();
        framed[0] ^= 0xFF;
        stream.write_all(&framed).unwrap();
        // Hold the socket open briefly so the client reads our bytes
        // rather than a reset.
        let mut sink = [0u8; 1];
        let _ = stream.read(&mut sink);
    });
    let remote = RemoteServer::connect(addr).unwrap();
    let err = remote.try_call(&Request::Ping).unwrap_err();
    assert!(matches!(err, RemoteError::Wire(WireError::BadMagic { .. })), "got {err:?}");
}

/// A response tagged with an id that matches no in-flight request is a
/// protocol violation the client surfaces typed, never misdelivers.
#[test]
fn unknown_response_id_is_a_typed_error() {
    let addr = fake_peer(|mut stream| {
        let id = swallow_request(&mut stream);
        let framed = frame_v2(id + 999, &Response::Pong.encode()).unwrap();
        stream.write_all(&framed).unwrap();
        let mut sink = [0u8; 1];
        let _ = stream.read(&mut sink);
    });
    let remote = RemoteServer::connect(addr).unwrap();
    let err = remote.try_call(&Request::Ping).unwrap_err();
    assert!(matches!(err, RemoteError::Wire(WireError::UnknownRequestId(_))), "got {err:?}");
}

/// The typed surface turns a short `Cells` answer into a typed
/// [`WireError::CellCountMismatch`] instead of the panic the infallible
/// `Storage` surface throws.
#[test]
fn short_cells_answer_is_typed_on_the_fallible_surface() {
    let addr = fake_peer(|mut stream| {
        let id = swallow_request(&mut stream);
        let short = Response::Cells(vec![vec![7u8; 4]; 2]).encode();
        stream.write_all(&frame_v2(id, &short).unwrap()).unwrap();
        let mut sink = [0u8; 1];
        let _ = stream.read(&mut sink);
    });
    let remote = RemoteServer::connect(addr).unwrap();
    let err = remote.try_read_batch(&[0, 1, 2]).unwrap_err();
    assert_eq!(err, RemoteError::Wire(WireError::CellCountMismatch { got: 2, expected: 3 }));
}
