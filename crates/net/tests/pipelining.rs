//! Wire-protocol pipelining: N tagged requests in flight per
//! connection, responses matched by id, completion order-independent.
//!
//! Two layers are pinned here:
//!
//! * **Client-side matching** — `submit`/`wait` redeem tickets in any
//!   order; responses arriving before their `wait` are stashed, never
//!   dropped or misdelivered, and the in-flight high-water mark lands in
//!   `CostStats::wire_inflight_max`.
//! * **Daemon-side reassembly** — the event loop's partial-frame buffers
//!   reassemble requests that arrive in arbitrary byte-level chunks,
//!   interleaved across many sockets (proptest), answering every frame
//!   under its own id.

use std::io::Write;
use std::net::TcpStream;

use dps_net::wire::{frame_v2, read_frame_v2};
use dps_net::{NetDaemon, RemoteServer, Request, Response, WireError};
use dps_server::SimServer;
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

/// Submit a window of reads, redeem the tickets in *reverse* order: every
/// response must land on its own ticket, and the high-water mark must
/// record the full window.
#[test]
fn out_of_order_waits_are_matched_by_id() {
    let daemon = daemon_with_cells();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();

    const WINDOW: usize = 8;
    let tickets: Vec<_> = (0..WINDOW)
        .map(|i| {
            remote
                .submit(&Request::ReadBatch { addrs: vec![i, i + 1] })
                .unwrap()
        })
        .collect();
    assert_eq!(remote.inflight(), WINDOW);

    for (i, ticket) in tickets.into_iter().enumerate().rev() {
        match remote.wait(ticket).unwrap() {
            Response::Cells(cells) => {
                assert_eq!(cells, vec![cell(i), cell(i + 1)], "ticket {i} got the wrong cells");
            }
            other => panic!("expected Cells, got {other:?}"),
        }
    }
    assert_eq!(remote.inflight(), 0);
    let stats = remote.wire_stats();
    assert_eq!(stats.wire_inflight_max, WINDOW as u64);
    assert_eq!(stats.wire_round_trips, WINDOW as u64);
    drop(remote);
    daemon.shutdown();
}

/// A ticket can be redeemed exactly once; a second wait on the same
/// ticket is a typed protocol error, not a hang or a misdelivery.
#[test]
fn a_ticket_redeems_exactly_once() {
    let daemon = daemon_with_cells();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let ticket = remote.submit(&Request::Capacity).unwrap();
    assert_eq!(remote.wait(ticket).unwrap(), Response::Number(N as u64));
    match remote.wait(ticket) {
        Err(dps_net::RemoteError::Wire(WireError::UnknownRequestId(id))) => {
            assert_eq!(id, ticket.id());
        }
        other => panic!("double wait must be UnknownRequestId, got {other:?}"),
    }
    drop(remote);
    daemon.shutdown();
}

/// `submit_all` is one burst write but semantically per-request submits:
/// every ticket redeems to its own response, and the window lands in the
/// in-flight high-water mark.
#[test]
fn a_burst_submit_matches_per_request_submits() {
    let daemon = daemon_with_cells();
    let remote = RemoteServer::connect(daemon.local_addr()).unwrap();
    let requests: Vec<_> = (0..6).map(|i| Request::ReadBatch { addrs: vec![i] }).collect();
    let tickets = remote.submit_all(&requests).unwrap();
    assert_eq!(remote.inflight(), 6);
    for (i, ticket) in tickets.into_iter().enumerate().rev() {
        assert_eq!(remote.wait(ticket).unwrap(), Response::Cells(vec![cell(i)]));
    }
    assert_eq!(remote.wire_stats().wire_inflight_max, 6);
    drop(remote);
    daemon.shutdown();
}

const SOCKETS: usize = 3;
const REQUESTS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte-level chunking proptest: several raw sockets send their
    /// request streams in arbitrary small chunks, interleaved
    /// round-robin, so the daemon's per-connection assemblers constantly
    /// hold partial frames from many peers at once. Every socket must
    /// still get exactly its own answers, under its own ids, in order.
    #[test]
    fn interleaved_partial_frames_across_many_sockets(
        chunks in proptest::collection::vec(1usize..9, 4..24),
    ) {
        let daemon = daemon_with_cells();
        let mut socks: Vec<TcpStream> = (0..SOCKETS)
            .map(|_| TcpStream::connect(daemon.local_addr()).unwrap())
            .collect();

        // Per-socket byte stream: REQUESTS framed read-batches.
        let streams: Vec<Vec<u8>> = (0..SOCKETS)
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
        let mut offsets = [0usize; SOCKETS];
        let mut k = 0usize;
        while offsets.iter().zip(&streams).any(|(&o, s)| o < s.len()) {
            for s in 0..SOCKETS {
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
