//! Daemon-side pipelining: any number of tagged requests in flight per
//! connection, each answered under its own id, in order. The client has
//! one request in flight, so these tests drive raw sockets.
//!
//! * **Reassembly** — the connection threads' partial-frame buffers
//!   reassemble requests that arrive in arbitrary byte-level chunks,
//!   interleaved across many sockets (proptest) — also when the live
//!   connections sit around freed slots of the daemon's registry —
//!   answering every frame under its own id.
//! * **What the server sees of a pipelined window**: the transcript
//!   recorded daemon-side is the one the same requests leave on a local
//!   oracle.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use dps_net::wire::{frame_v2, read_frame_v2};
use dps_net::{NetDaemon, RemoteServer, Request, Response};
use dps_server::{DiskOptions, DiskStore, SimServer, Storage};
use proptest::prelude::*;

const N: usize = 32;
const LEN: usize = 16;

fn cell(i: usize) -> Vec<u8> {
    (0..LEN).map(|k| (i as u8).wrapping_add(k as u8)).collect()
}

fn daemon_with_cells() -> NetDaemon {
    let mut server = SimServer::new();
    dps_server::Storage::init(&mut server, (0..N).map(cell).collect());
    NetDaemon::spawn(server).expect("spawn daemon")
}

/// A pipelined window seen where the server sits: one burst of a download,
/// a strided upload and an XOR (addresses repeated within and across
/// them), written to a raw socket in one write and answered by a durable
/// daemon whose 4 KiB cache holds half of the 8 KiB database. Recording,
/// transcript and stats go over a client on a second connection. The
/// answers come back under their own ids, in order; they, the daemon-side
/// transcript and the paper-model costs are what a local oracle gives for
/// the same requests made one at a time.
#[test]
fn a_pipelined_window_leaves_the_oracles_transcript() {
    const CELL: usize = 256;
    let cells: Vec<Vec<u8>> = (0..N).map(|i| vec![i as u8; CELL]).collect();
    let dir = std::env::temp_dir().join(format!("dps_pipelining_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store =
        DiskStore::open_with(&dir, DiskOptions { cache_bytes: 4096, ..Default::default() })
            .expect("open disk store");
    store.init(cells.clone());
    let daemon = NetDaemon::spawn(store).expect("spawn daemon");
    let mut remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let mut sock = TcpStream::connect(daemon.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    let flat: Vec<u8> = (0..3u8).flat_map(|i| vec![0xA0 + i; CELL]).collect();
    let window = [
        Request::ReadBatch { addrs: vec![3, 7, 3, 30] },
        Request::WriteBatchStrided { addrs: vec![7, 12, 7], flat: flat.clone() },
        Request::XorCells { addrs: vec![3, 7, 12, 7] },
        Request::ReadBatch { addrs: vec![12, 7, 3] },
    ];
    remote.start_recording();
    let burst: Vec<u8> = (1..)
        .zip(&window)
        .flat_map(|(id, request)| frame_v2(id, &request.encode()).unwrap())
        .collect();
    sock.write_all(&burst).unwrap();
    let answers: Vec<Response> = (1..=window.len() as u64)
        .map(|id| {
            let (got, payload) = read_frame_v2(&mut sock).unwrap().expect("answer");
            assert_eq!(got, id, "answers come back under their own ids, in order");
            Response::decode(&payload).unwrap()
        })
        .collect();
    let transcript = remote.take_transcript();
    let stats = Storage::stats(&remote);

    let mut oracle = SimServer::new();
    oracle.init(cells);
    oracle.start_recording();
    let first = Response::Cells(oracle.read_batch(&[3, 7, 3, 30]).unwrap());
    oracle.write_batch_strided(&[7, 12, 7], &flat).unwrap();
    let fold = Response::Bytes(oracle.xor_cells(&[3, 7, 12, 7]).unwrap());
    let last = Response::Cells(oracle.read_batch(&[12, 7, 3]).unwrap());
    assert_eq!(answers, vec![first, Response::Ok, fold, last]);
    assert_eq!(transcript, oracle.take_transcript());
    assert_eq!(stats.sans_wire().sans_cache(), oracle.stats());
    // The bounded cache was in the path: a clean read is a miss there.
    assert!(stats.cache_misses > 0, "{stats:?}");

    drop((sock, remote));
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

const SOCKETS: usize = 3;
const REQUESTS: usize = 4;

/// One `Ping` exchange on a raw socket, under id 0.
fn ping(mut sock: &TcpStream) {
    let frame = Request::Ping.encode_framed_v2(0).unwrap();
    sock.write_all(&frame).unwrap();
    assert_eq!(read_frame_v2(&mut sock).unwrap(), Some((0, Response::Pong.encode())));
}

/// The real sockets of a run. With `holes`, two decoys are connected
/// between each pair of real ones and closed again, and two more real
/// sockets are opened once the daemon has seen the closes: they take the
/// first two freed slots of the daemon's registry, and two holes stay in
/// front of the last real socket — so a connection's slot is not its
/// position among the live ones.
fn connect(daemon: &NetDaemon, holes: bool) -> Vec<TcpStream> {
    let open = || TcpStream::connect(daemon.local_addr()).unwrap();
    if !holes {
        return (0..SOCKETS).map(|_| open()).collect();
    }
    let mut real = vec![open()];
    let mut decoys = Vec::new();
    for _ in 1..SOCKETS {
        decoys.extend([open(), open()]);
        real.push(open());
    }
    drop(decoys);
    // After the first exchange every connection made so far is accepted;
    // by the second the decoys' threads have had time to see their
    // hang-ups.
    ping(&real[0]);
    ping(&real[0]);
    real.extend([open(), open()]);
    real
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-level chunking proptest: several raw sockets send their
    /// request streams in arbitrary small chunks, interleaved
    /// round-robin, so the daemon's per-connection assemblers constantly
    /// hold partial frames from many peers at once — once on a fresh registry,
    /// once with live connections around reused slots. Every socket must
    /// still get exactly its own answers, under its own ids, in order.
    #[test]
    fn interleaved_partial_frames_across_many_sockets(
        chunks in proptest::collection::vec(1usize..9, 4..24),
    ) {
        for holes in [false, true] {
            let daemon = daemon_with_cells();
            let mut socks = connect(&daemon, holes);
            let sockets = socks.len();

            // Per-socket byte stream: REQUESTS framed read-batches.
            let streams: Vec<Vec<u8>> = (0..sockets)
                .map(|s| {
                    let mut bytes = Vec::new();
                    for r in 0..REQUESTS {
                        let req = Request::ReadBatch { addrs: vec![(s + 2 * r) % N] };
                        let id = (s * REQUESTS + r) as u64 + 1;
                        bytes.extend_from_slice(&frame_v2(id, &req.encode()).unwrap());
                    }
                    bytes
                })
                .collect();

            // Round-robin: send the next chunk of each socket's stream, with
            // chunk sizes cycling through the proptest-chosen lengths.
            let mut offsets = vec![0usize; sockets];
            let mut k = 0usize;
            while offsets.iter().zip(&streams).any(|(&o, s)| o < s.len()) {
                for s in 0..sockets {
                    if offsets[s] >= streams[s].len() {
                        continue;
                    }
                    let take = chunks[k % chunks.len()].min(streams[s].len() - offsets[s]);
                    k += 1;
                    socks[s].write_all(&streams[s][offsets[s]..offsets[s] + take]).unwrap();
                    socks[s].flush().unwrap();
                    offsets[s] += take;
                }
            }

            // Each socket gets its own four answers, in order.
            for (s, sock) in socks.iter().enumerate() {
                for r in 0..REQUESTS {
                    let expected = vec![cell((s + 2 * r) % N)];
                    let (id, payload) = read_frame_v2(&mut &*sock).unwrap().expect("response");
                    prop_assert_eq!(id, (s * REQUESTS + r) as u64 + 1);
                    prop_assert_eq!(Response::decode(&payload).unwrap(), Response::Cells(expected));
                }
            }
            drop(socks);
            daemon.shutdown();
        }
    }
}
