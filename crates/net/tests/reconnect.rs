//! Client resilience: deadlines, reconnect/backoff, replay semantics
//! and stash bounds.
//!
//! The contracts pinned here:
//!
//! * An expired read deadline is the *typed* [`RemoteError::TimedOut`] —
//!   never a hang, never a panic on the fallible surface.
//! * Under a [`ReconnectPolicy`], a dropped connection is redialed and
//!   only the **idempotent** in-flight requests are replayed, in
//!   submission order with their original ids; a non-idempotent request
//!   caught in flight surfaces [`RemoteError::Interrupted`] and is never
//!   resubmitted — the at-most-once guarantee a write needs when the
//!   client cannot know whether the server applied it.
//! * Backoff delays are deterministic in the jitter seed, land in
//!   `[d/2, d]` of the capped exponential nominal, and exhaust into the
//!   original fault instead of retrying forever.
//! * The pipelining stash is bounded by frames and bytes; exceeding
//!   either cap is the typed [`WireError::StashOverflow`].

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dps_net::wire::{frame_v2, read_frame_v2};
use dps_net::{
    NetDaemon, ReconnectPolicy, RemoteError, RemoteServer, Request, Response, Ticket, Timeouts,
    WireError,
};
use dps_server::{ServerError, SimServer, Storage};

/// A fast-dialing policy for tests: total worst-case backoff well under
/// a second.
fn quick_policy(seed: u64) -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        jitter_seed: seed,
    }
}

fn opcode_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "Ping",
        Request::ReadBatch { .. } => "ReadBatch",
        Request::WriteBatch { .. } => "WriteBatch",
        _ => "Other",
    }
}

/// Answers one request frame on a scripted fake-daemon connection.
fn answer(stream: &mut TcpStream, id: u64, request: &Request) {
    let response = match request {
        Request::Ping => Response::Pong,
        Request::ReadBatch { addrs } => {
            Response::Cells(addrs.iter().map(|_| vec![0xAB; 4]).collect())
        }
        _ => Response::Ok,
    };
    stream
        .write_all(&frame_v2(id, &response.encode()).expect("frame response"))
        .expect("write response");
}

#[test]
fn read_deadline_is_a_typed_timeout() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Accept, then answer nothing for longer than the client waits.
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_millis(400));
        drop(stream);
    });
    let timeouts = Timeouts { read: Some(Duration::from_millis(50)), ..Timeouts::default() };
    let remote = RemoteServer::connect_with(addr, timeouts).unwrap();
    let err = remote.try_call(&Request::Ping).unwrap_err();
    assert_eq!(err, RemoteError::TimedOut);
    hold.join().unwrap();
}

#[test]
fn connecting_to_a_dead_port_fails_fast() {
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
        // listener drops here: nothing is accepting on this port
    };
    let timeouts = Timeouts::all(Duration::from_millis(250));
    assert!(RemoteServer::connect_with(addr, timeouts).is_err());
}

/// The heart of the replay contract, observed from the server side: a
/// scripted fake daemon swallows a pipelined window of [read, write,
/// read] and cuts the connection, then records exactly which frames the
/// client resubmits on the replacement connection.
#[test]
fn reconnect_replays_only_idempotent_frames_in_order() {
    type Log = Arc<Mutex<Vec<(usize, u64, &'static str)>>>;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log: Log = Log::default();
    let server = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || {
            // Connection 0: swallow the whole window, answer nothing, cut.
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..3 {
                let (id, payload) = read_frame_v2(&mut stream).unwrap().expect("request frame");
                let request = Request::decode(&payload).unwrap();
                log.lock().unwrap().push((0, id, opcode_name(&request)));
            }
            drop(stream);
            // Connection 1 (the client's redial): answer until EOF.
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(Some((id, payload))) = read_frame_v2(&mut stream) {
                let request = Request::decode(&payload).unwrap();
                log.lock().unwrap().push((1, id, opcode_name(&request)));
                answer(&mut stream, id, &request);
            }
        })
    };

    let remote = RemoteServer::connect(addr)
        .unwrap()
        .with_reconnect(quick_policy(3));
    let read_a = remote.submit(&Request::ReadBatch { addrs: vec![0] }).unwrap();
    let write = remote
        .submit(&Request::WriteBatch { writes: vec![(0, vec![9u8; 4])] })
        .unwrap();
    let read_b = remote.submit(&Request::ReadBatch { addrs: vec![1] }).unwrap();

    // Both reads complete transparently through the reconnect…
    match remote.wait(read_a).unwrap() {
        Response::Cells(cells) => assert_eq!(cells, vec![vec![0xAB; 4]]),
        other => panic!("expected Cells, got {other:?}"),
    }
    // …the write surfaces the typed ambiguity…
    assert_eq!(remote.wait(write).unwrap_err(), RemoteError::Interrupted);
    match remote.wait(read_b).unwrap() {
        Response::Cells(cells) => assert_eq!(cells, vec![vec![0xAB; 4]]),
        other => panic!("expected Cells, got {other:?}"),
    }
    // …and the client kept serving on the replacement connection.
    remote.ping().unwrap();
    assert_eq!(remote.wire_stats().wire_reconnects, 1);
    drop(remote);
    server.join().unwrap();

    let log = log.lock().unwrap();
    let replayed: Vec<_> = log.iter().filter(|entry| entry.0 == 1).collect();
    // The replacement connection saw the two reads first — original ids,
    // submission order — then the post-recovery ping. The write was
    // submitted exactly once in the whole run: at-most-once, observed.
    assert_eq!(replayed[0], &(1, read_a.id(), "ReadBatch"));
    assert_eq!(replayed[1], &(1, read_b.id(), "ReadBatch"));
    assert!(replayed.iter().all(|entry| entry.2 != "WriteBatch"));
    assert_eq!(log.iter().filter(|entry| entry.2 == "WriteBatch").count(), 1);
}

/// The same ambiguity through the bare `Storage` surface: an interrupted
/// write maps to the typed [`ServerError::Interrupted`] instead of a
/// panic, and the connection works again afterwards.
#[test]
fn interrupted_write_is_a_typed_server_error_on_the_storage_surface() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        // Connection 0: swallow the write, cut before answering.
        let (mut stream, _) = listener.accept().unwrap();
        let _ = read_frame_v2(&mut stream).unwrap().expect("request frame");
        drop(stream);
        // Connection 1: behave.
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(Some((id, payload))) = read_frame_v2(&mut stream) {
            let request = Request::decode(&payload).unwrap();
            answer(&mut stream, id, &request);
        }
    });
    let mut remote = RemoteServer::connect(addr)
        .unwrap()
        .with_reconnect(quick_policy(4));
    let err = remote.write_batch(vec![(0, vec![1u8; 4])]).unwrap_err();
    assert_eq!(err, ServerError::Interrupted);
    remote.ping().unwrap();
    drop(remote);
    server.join().unwrap();
}

/// When every redial fails, the client gives up after
/// `max_attempts` and surfaces the original connection fault typed —
/// bounded, not an infinite retry loop.
#[test]
fn exhausted_reconnect_surfaces_the_original_fault() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (id, payload) = read_frame_v2(&mut stream).unwrap().expect("request frame");
        answer(&mut stream, id, &Request::decode(&payload).unwrap());
        // Die completely: connection AND listener.
        drop(stream);
        drop(listener);
    });
    let remote = RemoteServer::connect(addr)
        .unwrap()
        .with_reconnect(quick_policy(5));
    remote.ping().unwrap();
    server.join().unwrap();
    let err = remote.ping().unwrap_err();
    assert!(
        matches!(err, RemoteError::Wire(WireError::Io(_) | WireError::Truncated { .. })),
        "got {err:?}"
    );
}

#[test]
fn backoff_is_deterministic_jittered_and_capped() {
    let policy = ReconnectPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(80),
        jitter_seed: 7,
    };
    let twin = policy;
    for attempt in 0..8 {
        let delay = policy.delay_for(attempt);
        // Deterministic: same policy, same attempt, same delay.
        assert_eq!(delay, twin.delay_for(attempt));
        // Jittered into [nominal/2, nominal] of the capped exponential.
        let nominal = (policy.base_delay * 2u32.pow(attempt)).min(policy.max_delay);
        assert!(delay <= nominal, "attempt {attempt}: {delay:?} > {nominal:?}");
        assert!(delay >= nominal / 2, "attempt {attempt}: {delay:?} < {:?}", nominal / 2);
    }
    // A different seed decorrelates the schedule.
    let other = ReconnectPolicy { jitter_seed: 8, ..policy };
    assert!((0..8).any(|attempt| other.delay_for(attempt) != policy.delay_for(attempt)));
}

#[test]
fn stash_is_bounded_by_frames_and_bytes() {
    let mut base = SimServer::new();
    base.init((0..4).map(|i| vec![i as u8; 64]).collect());
    let daemon = NetDaemon::spawn(base).unwrap();

    // Frame cap: waiting on the *last* of three pings forces the first
    // two responses into the stash; a one-frame cap trips on the second.
    let remote = RemoteServer::connect(daemon.local_addr())
        .unwrap()
        .with_stash_limits(1, 1 << 20);
    let tickets: Vec<Ticket> = (0..3).map(|_| remote.submit(&Request::Ping).unwrap()).collect();
    let err = remote.wait_payload(tickets[2]).unwrap_err();
    assert!(
        matches!(err, RemoteError::Wire(WireError::StashOverflow { frames: 2, .. })),
        "got {err:?}"
    );

    // Byte cap: one stashed 64-byte cell blows an 8-byte budget.
    let remote = RemoteServer::connect(daemon.local_addr())
        .unwrap()
        .with_stash_limits(1024, 8);
    let first = remote.submit(&Request::ReadBatch { addrs: vec![0] }).unwrap();
    let second = remote.submit(&Request::Ping).unwrap();
    let _ = first; // never redeemed: its response must be stashed
    let err = remote.wait_payload(second).unwrap_err();
    assert!(matches!(err, RemoteError::Wire(WireError::StashOverflow { .. })), "got {err:?}");
    daemon.shutdown();
}
