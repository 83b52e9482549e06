//! A closed connection keeps nothing: once its thread has ended, the
//! daemon holds no descriptor, no socket handle and no registry entry for
//! it, however many connections came and went before.
//!
//! Its own test binary, with one test, because the descriptor count it
//! reads is process-wide.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dps_net::wire::read_frame_v2;
use dps_net::{NetDaemon, Request, Response};
use dps_server::SimServer;

/// The process's open descriptors, as `/proc/self/fd` lists them.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// 50 connect → ping → close cycles: after each, once the daemon counts no
/// open connection, the process holds as many descriptors as it did after
/// the first.
#[test]
fn a_closed_connection_leaves_no_descriptor_and_no_entry() {
    const CYCLES: u64 = 50;
    let daemon = NetDaemon::spawn(SimServer::new()).unwrap();
    let mut after_first = None;
    for id in 1..=CYCLES {
        let mut sock = TcpStream::connect(daemon.local_addr()).unwrap();
        sock.write_all(&Request::Ping.encode_framed_v2(id).unwrap())
            .unwrap();
        let (got, payload) = read_frame_v2(&mut sock).unwrap().expect("answer");
        assert_eq!((got, Response::decode(&payload).unwrap()), (id, Response::Pong));
        drop(sock);

        let deadline = Instant::now() + Duration::from_secs(10);
        while daemon.metrics().open_connections != 0 {
            assert!(Instant::now() < deadline, "cycle {id}: the connection never left");
            std::thread::sleep(Duration::from_millis(1));
        }
        let fds = open_fds();
        assert_eq!(*after_first.get_or_insert(fds), fds, "cycle {id} left a descriptor");
    }
    assert_eq!(daemon.metrics().connections, CYCLES);
    daemon.shutdown();
}
