//! The borrowed data path, pinned by what it must not change.
//!
//! The daemon serves a request out of the buffer the socket was read into
//! and writes the answer straight into the connection's send buffer; the
//! client frames a request from the caller's slices and reads the answer
//! where it arrived. Three things that rebuild could have broken are held
//! here:
//!
//! * **The bytes** — golden frames recorded before it are still what the
//!   owned encoders, the client's borrowed framing and the daemon's
//!   in-place answers produce.
//! * **Roll-back** — a download that fails mid-batch leaves the model's
//!   partial charge and not one stray byte in the response stream.
//! * **Reading only what is needed** — a connection's thread reads only
//!   once it holds no complete frame, one read at a time, and blocks in
//!   the next read with half a frame buffered; that loses nothing and
//!   answers nothing twice, whatever the segmentation.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use dps_net::wire::{read_frame_v2, HEADER2_LEN};
use dps_net::{NetDaemon, RemoteServer, Request, Response};
use dps_server::{ServerError, SimServer, Storage};

// ---- Wire bytes are frozen ---------------------------------------------

// Recorded at the parent of the borrowed data path (commit 37dab29) from
// `encode_framed_v2`, ids 7–11; cell `i` is `[i, 0x10 + i]`. (Id 9 was
// the upload frame of cells of several lengths, opcode 0x0D, since retired:
// a cell is its stride. `CELLS` was re-recorded when the answer came to
// state one stride for its cells, opcode 0x8A; the one recorded first gave
// each cell a length of its own, opcode 0x87, since retired.)
const READ_BATCH: &str = "445053322100000007000000000000000c0300000000000000010000000000000002000000000000000300000000000000";
const WRITE_STRIDED: &str = "445053322500000008000000000000000f0200000000000000040000000000000005000000000000000400000000000000aaaabbbb";
const XOR_CELLS: &str = "44505332210000000a00000000000000110300000000000000010000000000000002000000000000000300000000000000";
const CELLS: &str =
    "445053321700000007000000000000008a03000000000000000200000000000000011102120313";
const BYTES: &str = "445053320b0000000a000000000000008802000000000000000010";
const FAIL: &str = "44505332120000000b00000000000000890009000000000000000400000000000000";

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn cell(i: u8) -> Vec<u8> {
    vec![i, 0x10 + i]
}

#[test]
fn golden_frames_from_the_owned_encoders() {
    let requests = [
        (READ_BATCH, 7, Request::ReadBatch { addrs: vec![1, 2, 3] }),
        (
            WRITE_STRIDED,
            8,
            Request::WriteBatchStrided { addrs: vec![4, 5], flat: vec![0xAA, 0xAA, 0xBB, 0xBB] },
        ),
        (XOR_CELLS, 10, Request::XorCells { addrs: vec![1, 2, 3] }),
    ];
    for (golden, id, request) in requests {
        assert_eq!(request.encode_framed_v2(id).unwrap(), unhex(golden), "{request:?}");
        // Appending behind queued bytes writes the same frame.
        let mut out = vec![0xEE; 5];
        request.encode_framed_into(id, &mut out).unwrap();
        assert_eq!(out[5..], unhex(golden));
        assert_eq!(Request::decode(&unhex(golden)[HEADER2_LEN..]).unwrap(), request);
    }
    let responses = [
        (CELLS, 7, Response::Cells(vec![cell(1), cell(2), cell(3)])),
        (BYTES, 10, Response::Bytes(vec![0x00, 0x10])),
        (FAIL, 11, Response::Fail(ServerError::OutOfBounds { addr: 9, capacity: 4 })),
    ];
    for (golden, id, response) in responses {
        assert_eq!(response.encode_framed_v2(id).unwrap(), unhex(golden), "{response:?}");
        assert_eq!(Response::decode(&unhex(golden)[HEADER2_LEN..]).unwrap(), response);
    }
}

/// The client frames its three data primitives from the caller's slices;
/// a fake daemon records what actually crossed the socket.
#[test]
fn golden_frames_from_the_clients_borrowed_framing() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (seen, frames) = mpsc::channel::<Vec<u8>>();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(Some((id, payload))) = read_frame_v2(&mut stream) {
            let answer = match id {
                7 => unhex(CELLS),
                10 => unhex(BYTES),
                8 => Response::Ok.encode_framed_v2(id).unwrap(),
                _ => Response::Pong.encode_framed_v2(id).unwrap(),
            };
            // Re-framing what was read is exact: the header is magic,
            // length and id, and all three were just validated.
            seen.send(dps_net::wire::frame_v2(id, &payload).unwrap())
                .unwrap();
            stream.write_all(&answer).unwrap();
        }
    });

    let mut remote = RemoteServer::connect(addr).unwrap();
    for _ in 1..7 {
        remote.ping().unwrap(); // ids 1–6: the goldens start at 7
    }
    let mut got = Vec::new();
    remote
        .read_batch_with(&[1, 2, 3], |_, c| got.push(c.to_vec()))
        .unwrap();
    assert_eq!(got, vec![cell(1), cell(2), cell(3)]);
    remote
        .write_batch_strided(&[4, 5], &[0xAA, 0xAA, 0xBB, 0xBB])
        .unwrap();
    remote.ping().unwrap(); // id 9, the retired frame's
    assert_eq!(remote.xor_cells(&[1, 2, 3]).unwrap(), vec![0x00, 0x10]);
    drop(remote);
    peer.join().unwrap();

    let ping = Request::Ping.encode();
    let sent: Vec<Vec<u8>> = frames
        .iter()
        .skip(6)
        .filter(|frame| frame[HEADER2_LEN..] != ping[..])
        .collect();
    let golden = [READ_BATCH, WRITE_STRIDED, XOR_CELLS].map(unhex);
    assert_eq!(sent, golden);
}

/// The daemon writes `Cells` cell by cell into its send buffer, folds
/// `Bytes` into a scratch and rolls a failed walk back to a `Fail`: byte
/// for byte what the owned encoder made of the same answers.
#[test]
fn golden_frames_from_the_daemons_in_place_answers() {
    let mut server = SimServer::new();
    server.init((0..4).map(cell).collect());
    let daemon = NetDaemon::spawn(server).unwrap();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();

    let out_of_bounds = Request::ReadBatch { addrs: vec![9] }
        .encode_framed_v2(11)
        .unwrap();
    let burst = [unhex(READ_BATCH), unhex(XOR_CELLS), out_of_bounds].concat();
    raw.write_all(&burst).unwrap();
    let expect = [unhex(CELLS), unhex(BYTES), unhex(FAIL)].concat();
    let mut got = vec![0u8; expect.len()];
    raw.read_exact(&mut got).unwrap();
    assert_eq!(got, expect);
    daemon.shutdown();
}

// ---- Roll-back is exact ------------------------------------------------

/// Four cells, `cell(0)` to `cell(3)`.
fn four_cells() -> SimServer {
    let mut server = SimServer::new();
    server.init((0..4).map(cell).collect());
    server
}

#[test]
fn a_failed_walk_is_rolled_back_and_still_charged() {
    let daemon = NetDaemon::spawn(four_cells()).unwrap();
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();

    // One burst: the first batch dies on its second address, after the
    // first cell's bytes were already appended to the send buffer.
    let burst = [
        Request::ReadBatch { addrs: vec![0, 9, 2] }
            .encode_framed_v2(1)
            .unwrap(),
        Request::ReadBatch { addrs: vec![3] }
            .encode_framed_v2(2)
            .unwrap(),
        Request::Ping.encode_framed_v2(3).unwrap(),
    ]
    .concat();
    raw.write_all(&burst).unwrap();
    let mut answers = Vec::new();
    for _ in 0..3 {
        // A stray cell byte between frames would be a bad magic here.
        let (id, payload) = read_frame_v2(&mut raw).unwrap().expect("answer");
        answers.push((id, Response::decode(&payload).unwrap()));
    }
    assert_eq!(
        answers,
        vec![
            (1, Response::Fail(ServerError::OutOfBounds { addr: 9, capacity: 4 })),
            (2, Response::Cells(vec![cell(3)])),
            (3, Response::Pong),
        ]
    );

    // The model charged what it visited — exactly what a local server
    // charges for the same two calls.
    let mut oracle = four_cells();
    let out_of_bounds = ServerError::OutOfBounds { addr: 9, capacity: 4 };
    assert_eq!(oracle.read_batch(&[0, 9, 2]), Err(out_of_bounds));
    assert_eq!(oracle.read_batch(&[3]).unwrap(), vec![cell(3)]);
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    assert_eq!(remote.stats().sans_wire(), oracle.stats());
    assert_eq!(oracle.stats().downloads, 2, "one cell of the failed batch, one of the good one");
    daemon.shutdown();
}

// ---- Segmentation -------------------------------------------------------

fn daemon_with(cells: usize) -> NetDaemon {
    let mut server = SimServer::new();
    server.init((0..cells).map(|i| vec![i as u8; 8]).collect());
    NetDaemon::spawn(server).unwrap()
}

/// More than three full read chunks land on the socket at once: the
/// daemon must keep reading past every chunk until the burst is answered.
#[test]
fn a_burst_of_several_read_chunks_is_answered_completely_and_in_order() {
    const FRAMES: u64 = 300;
    const BATCH: usize = 90;
    let daemon = daemon_with(BATCH);
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    let addrs: Vec<usize> = (0..BATCH).collect();
    let mut burst = Vec::new();
    for id in 0..FRAMES {
        Request::ReadBatch { addrs: addrs.clone() }
            .encode_framed_into(id, &mut burst)
            .unwrap();
    }
    assert!(burst.len() > 3 * 64 * 1024);
    raw.write_all(&burst).unwrap();

    let expect = Response::Cells((0..BATCH).map(|i| vec![i as u8; 8]).collect()).encode();
    for id in 0..FRAMES {
        let (got, payload) = read_frame_v2(&mut raw).unwrap().expect("answer");
        assert_eq!(got, id, "answers out of order");
        assert_eq!(payload, expect, "answer {id}");
    }
    daemon.shutdown();
}

/// A frame cut in two at every byte offset: the first read is short and
/// leaves half a frame buffered, and the next read must bring the rest.
/// Each frame is answered once — the `Ping` behind it would otherwise read
/// a duplicate.
#[test]
fn a_frame_split_at_every_offset_is_answered_once() {
    let daemon = daemon_with(4);
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let frame = Request::ReadBatch { addrs: vec![1, 2, 3] }
        .encode_framed_v2(5)
        .unwrap();
    let ping = Request::Ping.encode_framed_v2(6).unwrap();
    let cells = Response::Cells(vec![vec![1; 8], vec![2; 8], vec![3; 8]]).encode();
    for cut in 1..frame.len() {
        raw.write_all(&frame[..cut]).unwrap();
        std::thread::yield_now();
        std::thread::sleep(Duration::from_millis(1));
        raw.write_all(&frame[cut..]).unwrap();
        assert_eq!(read_frame_v2(&mut raw).unwrap(), Some((5, cells.clone())), "cut {cut}");
        raw.write_all(&ping).unwrap();
        let pong = Response::Pong.encode();
        assert_eq!(read_frame_v2(&mut raw).unwrap(), Some((6, pong)), "cut {cut}");
    }
    daemon.shutdown();
}

/// Data and FIN arrive together: the request is answered before the
/// next read sees the end of stream, and then the connection closes.
#[test]
fn data_followed_by_fin_is_answered_then_closed() {
    let daemon = daemon_with(4);
    let mut raw = TcpStream::connect(daemon.local_addr()).unwrap();
    let frame = Request::ReadBatch { addrs: vec![3] }
        .encode_framed_v2(9)
        .unwrap();
    raw.write_all(&frame).unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    raw.read_to_end(&mut got).unwrap();
    assert_eq!(got, Response::Cells(vec![vec![3; 8]]).encode_framed_v2(9).unwrap());
    daemon.shutdown();
}
