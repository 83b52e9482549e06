//! Client resilience: deadlines, reconnect/backoff and replay semantics.
//!
//! The contracts pinned here:
//!
//! * An expired read deadline is the *typed* [`RemoteError::TimedOut`] —
//!   never a hang, never a panic on the fallible surface — and the late
//!   answer of the request it abandoned is dropped: the next call gets
//!   its own answer.
//! * Under a [`ReconnectPolicy`], a dropped connection is redialed and
//!   the request in flight is re-sent under its original id only if it is
//!   **idempotent**; a non-idempotent request caught in flight surfaces
//!   [`RemoteError::Interrupted`] and is never re-sent — the at-most-once
//!   guarantee a write needs when the client cannot know whether the
//!   server applied it.
//! * Backoff delays are deterministic in the jitter seed, land in
//!   `[d/2, d]` of the capped exponential nominal, and exhaust into the
//!   original fault instead of retrying forever.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dps_net::wire::{frame_v2, read_frame_v2};
use dps_net::{ReconnectPolicy, RemoteError, RemoteServer, Request, Response, Timeouts, WireError};
use dps_server::{ServerError, Storage};

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
        Request::WriteBatchStrided { .. } => "WriteBatchStrided",
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

/// What a scripted fake daemon saw: `(connection, request id, opcode)`
/// per request frame.
type Log = Arc<Mutex<Vec<(usize, u64, &'static str)>>>;

/// A fake daemon that logs the one request of its first connection and
/// cuts it unanswered, then logs and answers every request of its second
/// (the client's redial) until EOF.
fn cut_once(listener: TcpListener, log: Log) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (id, payload) = read_frame_v2(&mut stream).unwrap().expect("request frame");
        log.lock()
            .unwrap()
            .push((0, id, opcode_name(&Request::decode(&payload).unwrap())));
        drop(stream);
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(Some((id, payload))) = read_frame_v2(&mut stream) {
            let request = Request::decode(&payload).unwrap();
            log.lock().unwrap().push((1, id, opcode_name(&request)));
            answer(&mut stream, id, &request);
        }
    })
}

/// The replay contract for a read, observed from the server side: a read
/// whose connection is cut before its answer is re-sent once, under its
/// original id, on the replacement connection, and completes
/// transparently.
#[test]
fn a_cut_read_is_replayed_once_under_its_original_id() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = Log::default();
    let server = cut_once(listener, Arc::clone(&log));

    let remote = RemoteServer::connect(addr)
        .unwrap()
        .with_reconnect(quick_policy(3));
    assert_eq!(remote.try_read_batch(&[0]).unwrap(), vec![vec![0xAB; 4]]);
    remote.ping().unwrap();
    assert_eq!(remote.wire_stats().wire_reconnects, 1);
    drop(remote);
    server.join().unwrap();

    let log = log.lock().unwrap();
    let id = log[0].1;
    assert_eq!(log[0], (0, id, "ReadBatch"));
    assert_eq!(log[1], (1, id, "ReadBatch"), "the read is replayed under its original id");
    assert_eq!(log[2].2, "Ping");
    assert_eq!(log.len(), 3, "{log:?}");
}

/// The replay contract for a write: a write whose connection is cut
/// before its answer is never re-sent — the fake daemon sees exactly one
/// `WriteBatchStrided` in the whole run — and the caller gets the typed
/// ambiguity on a connection that works again.
#[test]
fn a_cut_write_is_never_re_sent() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = Log::default();
    let server = cut_once(listener, Arc::clone(&log));

    let remote = RemoteServer::connect(addr)
        .unwrap()
        .with_reconnect(quick_policy(3));
    let write = Request::WriteBatchStrided { addrs: vec![0], flat: vec![9u8; 4] };
    assert_eq!(remote.request(&write).unwrap_err(), RemoteError::Interrupted);
    remote.ping().unwrap();
    assert_eq!(remote.wire_stats().wire_reconnects, 1);
    drop(remote);
    server.join().unwrap();

    let log = log.lock().unwrap();
    let writes = log.iter().filter(|entry| entry.2 == "WriteBatchStrided").count();
    assert_eq!(writes, 1, "{log:?}");
    assert_eq!(log[0].2, "WriteBatchStrided");
    assert_eq!(log[1..].iter().map(|entry| entry.2).collect::<Vec<_>>(), ["Ping"]);
}

/// A read that timed out is abandoned, but its answer may still come. It
/// comes under an older id than the next request's, so the client drops
/// it: the next call gets its own cells, not the late ones.
#[test]
fn the_late_answer_of_an_abandoned_request_is_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (late_sent, late) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        // Every answer's cells are filled with its request id.
        let cells = |id: u64| Response::Cells(vec![vec![id as u8; 4]]).encode();
        let (mut stream, _) = listener.accept().unwrap();
        let (first, _) = read_frame_v2(&mut stream).unwrap().expect("request frame");
        // Answer past the client's 50 ms deadline.
        std::thread::sleep(Duration::from_millis(150));
        stream
            .write_all(&frame_v2(first, &cells(first)).unwrap())
            .unwrap();
        late_sent.send(()).unwrap();
        while let Ok(Some((id, _))) = read_frame_v2(&mut stream) {
            stream.write_all(&frame_v2(id, &cells(id)).unwrap()).unwrap();
        }
    });
    let timeouts = Timeouts { read: Some(Duration::from_millis(50)), ..Timeouts::default() };
    let remote = RemoteServer::connect_with(addr, timeouts).unwrap();
    assert_eq!(remote.try_read_batch(&[0]).unwrap_err(), RemoteError::TimedOut);
    // The late answer is on its way before the next request is.
    late.recv().unwrap();
    assert_eq!(remote.try_read_batch(&[0]).unwrap(), vec![vec![2u8; 4]]);
    assert_eq!(remote.try_read_batch(&[0]).unwrap(), vec![vec![3u8; 4]]);
    drop(remote);
    server.join().unwrap();
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
