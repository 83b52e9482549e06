//! Slow-reader backpressure: a connection whose queued response bytes
//! exceed [`DaemonLimits::max_queued_bytes`] must stall *its own* reads
//! (bounding the daemon's memory at the cap plus one read burst), keep
//! every other connection flowing, and resume losslessly once the slow
//! reader drains.

use std::time::{Duration, Instant};

use dps_net::{DaemonLimits, NetDaemon, RemoteServer, Request, Response};
use dps_server::SimServer;

const N: usize = 64;
const LEN: usize = 4096;

fn cell(i: usize) -> Vec<u8> {
    (0..LEN).map(|k| (i as u8).wrapping_add(k as u8)).collect()
}

fn small_queue_daemon() -> NetDaemon {
    let mut server = SimServer::new();
    dps_server::Storage::init(&mut server, (0..N).map(cell).collect());
    // A 16 KiB queue cap against ~256 KiB responses: the very first
    // response the socket can't absorb whole pauses the connection.
    let limits = DaemonLimits { max_queued_bytes: 16 * 1024, ..Default::default() };
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

/// Pile up far more response bytes than the cap while refusing to read,
/// observe the read stall, then drain everything and verify not a byte was
/// lost.
#[test]
fn slow_reader_is_stalled_and_resumed_losslessly() {
    const WINDOW: usize = 40; // ~40 × 256 KiB of responses vs a 16 KiB cap
    let daemon = small_queue_daemon();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();

    let all: Vec<usize> = (0..N).collect();
    let tickets: Vec<_> = (0..WINDOW)
        .map(|_| {
            remote
                .submit(&Request::ReadBatch { addrs: all.clone() })
                .unwrap()
        })
        .collect();

    // The daemon must hit the cap and stop reading the slow socket —
    // that stall is exactly what bounds its memory: at most the cap plus
    // one read burst is ever queued, never the full ~10 MiB backlog.
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");

    // A second connection is unaffected while the first is stalled.
    let bystander = RemoteServer::connect(daemon.local_addr()).unwrap();
    bystander.ping().unwrap();
    assert_eq!(bystander.try_read_batch(&[3]).unwrap(), vec![cell(3)]);
    drop(bystander);

    // Drain: every stalled response arrives complete and in match.
    let expected: Vec<Vec<u8>> = (0..N).map(cell).collect();
    for ticket in tickets {
        match remote.wait(ticket).unwrap() {
            Response::Cells(cells) => assert_eq!(cells, expected),
            other => panic!("expected Cells, got {other:?}"),
        }
    }
    assert_eq!(remote.inflight(), 0);

    // The connection resumed: it serves fresh traffic after the stall.
    assert_eq!(remote.try_read_batch(&[7]).unwrap(), vec![cell(7)]);
    assert!(daemon.metrics().read_stalls >= 1);
    drop(remote);
    daemon.shutdown();
}

/// Graceful shutdown must flush every response already queued or
/// buffered: a client that submitted a window and read nothing yet gets
/// every answer, bit-exact, while the daemon is shutting down.
#[test]
fn graceful_shutdown_flushes_queued_responses() {
    const WINDOW: usize = 40;
    let mut server = SimServer::new();
    dps_server::Storage::init(&mut server, (0..N).map(cell).collect());
    // Default (large) queue cap: nothing pauses, so the daemon reads and
    // answers the whole window; the responses (~10 MiB against a ~KiB
    // socket buffer) are still overwhelmingly queued daemon-side when
    // shutdown begins.
    let daemon = NetDaemon::spawn(server).expect("spawn");
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let all: Vec<usize> = (0..N).collect();
    let requests = vec![Request::ReadBatch { addrs: all }; WINDOW];
    let tickets = remote.submit_all(&requests).unwrap();
    // Redeem the first ticket so the window is known to have reached the
    // daemon, then give it a beat to answer the rest into its queue.
    let expected: Vec<Vec<u8>> = (0..N).map(cell).collect();
    let mut tickets = tickets.into_iter();
    match remote.wait(tickets.next().unwrap()).unwrap() {
        Response::Cells(cells) => assert_eq!(cells, expected),
        other => panic!("expected Cells, got {other:?}"),
    }
    std::thread::sleep(Duration::from_millis(200));

    // Shut down with the queue loaded; drain concurrently client-side.
    let handle = std::thread::spawn(move || daemon.shutdown());
    for ticket in tickets {
        match remote.wait(ticket).unwrap() {
            Response::Cells(cells) => assert_eq!(cells, expected),
            other => panic!("expected Cells, got {other:?}"),
        }
    }
    assert_eq!(remote.inflight(), 0);
    handle.join().unwrap();
    // The daemon is gone: fresh traffic fails typed, it does not hang.
    assert!(remote.try_call(&Request::Ping).is_err());
}

/// Shutting down while a connection sits in a backpressure stall: every
/// frame the daemon *received* is answered during the drain (the cap is
/// released frame by frame), and anything it never read fails typed at
/// the client — successes form a prefix, nothing hangs, nothing panics.
#[test]
fn graceful_shutdown_drains_a_stalled_connection() {
    const WINDOW: usize = 40;
    let daemon = small_queue_daemon();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let all: Vec<usize> = (0..N).collect();
    let requests = vec![Request::ReadBatch { addrs: all }; WINDOW];
    let tickets = remote.submit_all(&requests).unwrap();
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");

    let handle = std::thread::spawn(move || daemon.shutdown());
    let expected: Vec<Vec<u8>> = (0..N).map(cell).collect();
    let mut failed = false;
    let mut successes = 0usize;
    for ticket in tickets {
        match remote.wait(ticket) {
            Ok(Response::Cells(cells)) => {
                assert!(!failed, "a response arrived after the connection died");
                assert_eq!(cells, expected);
                successes += 1;
            }
            Ok(other) => panic!("expected Cells, got {other:?}"),
            Err(dps_net::RemoteError::Wire(_)) => failed = true,
            Err(other) => panic!("expected a wire error, got {other:?}"),
        }
    }
    assert!(successes >= 1, "the drain must flush at least the already-answered frames");
    handle.join().unwrap();
}

/// A slow reader that hangs up mid-stall must not leak its connection:
/// the daemon drops it and keeps serving.
#[test]
fn disconnecting_mid_stall_is_cleaned_up() {
    let daemon = small_queue_daemon();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let all: Vec<usize> = (0..N).collect();
    for _ in 0..40 {
        remote
            .submit(&Request::ReadBatch { addrs: all.clone() })
            .unwrap();
    }
    assert!(await_stall(&daemon), "queue cap never triggered a read stall");
    drop(remote); // vanish with the queue full

    let survivor = RemoteServer::connect(daemon.local_addr()).unwrap();
    survivor.ping().unwrap();
    assert_eq!(survivor.try_read_batch(&[1]).unwrap(), vec![cell(1)]);
    drop(survivor);
    daemon.shutdown();
}
