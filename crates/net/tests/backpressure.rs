//! Slow-reader backpressure: a connection whose unsent answers pass the
//! daemon's cap must stop serving *its own* buffered frames and block in
//! its write (bounding the daemon's memory at the cap plus one answer),
//! keep every other connection flowing, and resume losslessly once the
//! slow reader drains.
//!
//! The slow reader is a raw socket that writes a whole window of request
//! frames in one burst: the client keeps one request in flight, and the
//! daemon's pipelined surface is what is under test.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dps_net::wire::{frame_v2, read_frame_v2};
use dps_net::{DaemonLimits, NetDaemon, RemoteServer, Request, Response, WireError};
use dps_server::SimServer;

const N: usize = 64;
const LEN: usize = 4096;
const WINDOW: usize = 40; // ~40 × 256 KiB of responses vs a 64 KiB cap

fn cell(i: usize) -> Vec<u8> {
    (0..LEN).map(|k| (i as u8).wrapping_add(k as u8)).collect()
}

fn database_daemon(limits: DaemonLimits) -> NetDaemon {
    let mut server = SimServer::new();
    dps_server::Storage::init(&mut server, (0..N).map(cell).collect());
    // Every ~256 KiB answer passes the 64 KiB cap on unsent bytes: the
    // connection's thread writes it out before it serves the next frame.
    NetDaemon::bind_with("127.0.0.1:0", server, limits).expect("bind")
}

fn await_stall(daemon: &NetDaemon) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if daemon.metrics().read_stalls > 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A raw peer of `daemon` that has written `WINDOW` whole-database reads,
/// under ids `1..=WINDOW`, in one burst, and read nothing yet.
fn slow_reader(daemon: &NetDaemon) -> TcpStream {
    let mut sock = TcpStream::connect(daemon.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let read_all = Request::ReadBatch { addrs: (0..N).collect() }.encode();
    let burst: Vec<u8> = (1..=WINDOW as u64)
        .flat_map(|id| frame_v2(id, &read_all).unwrap())
        .collect();
    sock.write_all(&burst).unwrap();
    sock
}

/// Reads the next answer off `sock`: it must be the whole database, under
/// `id`.
fn read_database(sock: &mut TcpStream, id: u64) {
    let (got, payload) = read_frame_v2(sock).unwrap().expect("answer");
    assert_eq!(got, id, "answers come back under their own ids, in order");
    let expected: Vec<Vec<u8>> = (0..N).map(cell).collect();
    assert_eq!(Response::decode(&payload).unwrap(), Response::Cells(expected));
}

/// Pile up far more response bytes than the cap while refusing to read,
/// observe the read stall, then drain everything and verify not a byte was
/// lost.
#[test]
fn slow_reader_is_stalled_and_resumed_losslessly() {
    let daemon = database_daemon(DaemonLimits::default());
    let mut sock = slow_reader(&daemon);

    // The daemon must hit the cap and stop serving the slow socket's
    // frames — that stall is exactly what bounds its memory: at most the
    // cap plus one answer is ever queued, never the full ~10 MiB backlog.
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");

    // A second connection is unaffected while the first is stalled.
    let bystander = RemoteServer::connect(daemon.local_addr()).unwrap();
    bystander.ping().unwrap();
    assert_eq!(bystander.try_read_batch(&[3]).unwrap(), vec![cell(3)]);
    drop(bystander);

    // Drain: exactly WINDOW answers, each complete and correct.
    for id in 1..=WINDOW as u64 {
        read_database(&mut sock, id);
    }

    // The connection resumed: it serves fresh traffic after the stall.
    let id = WINDOW as u64 + 1;
    let fresh = Request::ReadBatch { addrs: vec![7] }.encode();
    sock.write_all(&frame_v2(id, &fresh).unwrap()).unwrap();
    let (got, payload) = read_frame_v2(&mut sock).unwrap().expect("answer");
    assert_eq!(got, id);
    assert_eq!(Response::decode(&payload).unwrap(), Response::Cells(vec![cell(7)]));
    assert!(daemon.metrics().read_stalls >= 1);
    drop(sock);
    daemon.shutdown();
}

/// Graceful shutdown must flush every response already queued or
/// buffered: a peer that sent a window and read nothing yet gets every
/// answer, bit-exact, while the daemon is shutting down.
#[test]
fn graceful_shutdown_flushes_queued_responses() {
    // The responses (~10 MiB against a ~KiB socket buffer) are still
    // overwhelmingly unanswered or unsent daemon-side when shutdown
    // begins.
    let daemon = database_daemon(DaemonLimits::default());
    let mut sock = slow_reader(&daemon);
    // Read the first answer so the window is known to have reached the
    // daemon, then give it a beat to stall on the next.
    read_database(&mut sock, 1);
    std::thread::sleep(Duration::from_millis(200));

    // Shut down with the queue loaded; drain concurrently peer-side.
    let handle = std::thread::spawn(move || daemon.shutdown());
    for id in 2..=WINDOW as u64 {
        read_database(&mut sock, id);
    }
    handle.join().unwrap();
    // The daemon is gone: fresh traffic fails, it does not hang.
    let ping = frame_v2(WINDOW as u64 + 1, &Request::Ping.encode()).unwrap();
    let answered = sock.write_all(&ping).is_ok() && matches!(read_frame_v2(&mut sock), Ok(Some(_)));
    assert!(!answered, "a shut-down daemon answered");
}

/// Shutting down while a connection sits in a backpressure stall: every
/// frame the daemon *received* is answered during the drain (its thread
/// keeps writing as the peer reads), and anything it never read is cut off
/// at the peer — successes form a prefix, nothing hangs, nothing panics.
#[test]
fn graceful_shutdown_drains_a_stalled_connection() {
    let daemon = database_daemon(DaemonLimits::default());
    let mut sock = slow_reader(&daemon);
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");

    let handle = std::thread::spawn(move || daemon.shutdown());
    let expected = Response::Cells((0..N).map(cell).collect());
    let mut failed = false;
    let mut successes = 0u64;
    for id in 1..=WINDOW as u64 {
        match read_frame_v2(&mut sock) {
            Ok(Some((got, payload))) => {
                assert!(!failed, "a response arrived after the connection died");
                assert_eq!(got, id);
                assert_eq!(Response::decode(&payload).unwrap(), expected);
                successes += 1;
            }
            Err(WireError::Io(std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)) => {
                panic!("the drain hung")
            }
            Ok(None) | Err(_) => failed = true,
        }
    }
    assert!(successes >= 1, "the drain must flush at least the already-answered frames");
    handle.join().unwrap();
}

/// A slow reader that hangs up mid-stall must not leak its connection:
/// the daemon drops it and keeps serving.
#[test]
fn disconnecting_mid_stall_is_cleaned_up() {
    let daemon = database_daemon(DaemonLimits::default());
    let sock = slow_reader(&daemon);
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");
    drop(sock); // vanish with the queue full

    let survivor = RemoteServer::connect(daemon.local_addr()).unwrap();
    survivor.ping().unwrap();
    assert_eq!(survivor.try_read_batch(&[1]).unwrap(), vec![cell(1)]);
    drop(survivor);
    daemon.shutdown();
}

/// The drain is bounded even with no write deadline: a peer that sent a
/// window and never reads leaves its thread blocked in a write, and
/// shutdown cuts it off once the daemon's 5 s drain deadline passes,
/// returning within that deadline plus slack.
#[test]
fn shutdown_cuts_off_a_peer_that_never_reads() {
    let limits = DaemonLimits { write_stall_timeout: None, ..Default::default() };
    let daemon = database_daemon(limits);
    let sock = slow_reader(&daemon);
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");

    let started = Instant::now();
    daemon.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5 + 2), "shutdown took {took:?}");
    drop(sock);
}
