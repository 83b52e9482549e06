//! The TCP storage daemon: one blocking thread per connection.
//!
//! [`NetDaemon`] owns any [`Storage`] backend — the
//! in-memory [`SimServer`](dps_server::SimServer) or the durable
//! [`DiskStore`](dps_server::DiskStore) — and serves the full trait
//! surface over the wire protocol of [`crate::wire`]. An accept thread
//! admits connections and gives each one a thread of its own, which
//! blocks: it reads, serves every complete frame it holds, writes the
//! answers, and reads again. A client keeps one request in flight
//! (NOTES.md, entry 20), so a connection is a ping-pong of request and
//! answer, and its thread sleeps in `read` exactly while its peer is busy.
//! The store sits behind one lock, held for one request, so requests are
//! served one at a time, as they always were (NOTES.md, entry 28).
//! Each connection thread owns two buffers — one in, one out, and nothing
//! in between:
//!
//! ```text
//!            blocking read                complete frame, borrowed
//!   socket ───────────────▶ in-buffer ─────────────────────────▶ dispatch ◀── store lock,
//!      ▲                 (FrameAssembler:                           │          one request
//!      │                  frames are served                         │ answer appended
//!      │                  where the kernel                          ▼ in place
//!      │                  put them)                             out-buffer
//!      │                                                        (one Vec<u8>)
//!      │                                                            │
//!      └───── blocking write ◀── no complete frame left, or past the cap
//! ```
//!
//! A request is parsed where the socket put it (`RequestView`, borrowed
//! from the in-buffer) and its answer is written once, where the socket
//! will take it: a `ReadBatch` streams the store's cells straight into the
//! out-buffer behind a reserved frame header, a strided upload hands the
//! store slices of the frame. Per request the daemon allocates nothing and
//! copies each byte once in each direction. Three rules keep the borrows
//! honest (NOTES.md, entry 7): a borrowed frame is valid until the
//! in-buffer is next filled; dispatch finishes with a frame before the
//! in-buffer is touched again; an answer is appended to the out-buffer,
//! never inserted — if a download fails mid-batch the out-buffer is
//! truncated back to where that answer began and the `Fail` takes its
//! place.
//!
//! A thread reads only once it holds no complete frame, and then one
//! `read` of up to 64 KiB: a burst of pipelined frames is served from what
//! that read brought, and whatever is left of it waits in the kernel for
//! the next read. Each response echoes the id of its request, and the
//! out-buffer preserves arrival order per connection.
//!
//! # Backpressure
//!
//! The blocking write is the backpressure: a thread that cannot write does
//! not read. It writes its out-buffer when no complete frame is left in
//! the in-buffer — one `write` for everything a burst produced — or, before
//! it serves the next buffered frame, as soon as the unsent answers pass
//! 64 KiB; that second case is counted in [`DaemonMetrics::read_stalls`].
//! A slow or stalled reader therefore costs the daemon at most that cap
//! plus one answer, besides the frames its in-buffer already holds, and it
//! stalls its own thread and no other. Both buffers follow the traffic:
//! they grow with what a connection actually sends and receives, and a
//! drained buffer larger than 64 KiB is handed back, so an idle connection
//! pins a few KiB and one huge frame does not pin its size for good.
//!
//! # Deadlines
//!
//! The deadlines are the socket's own timeouts.
//! [`DaemonLimits::idle_timeout`] is the read timeout: a read that waits
//! that long for a byte reaps slowloris peers — connected but never
//! sending a full frame — and counts in [`DaemonMetrics::idle_reaped`].
//! [`DaemonLimits::write_stall_timeout`] is the write timeout: a write
//! that cannot hand the kernel one byte for that long reaps a
//! backpressured peer that refuses to drain its answers, and counts in
//! [`DaemonMetrics::stall_reaped`]. Each clock runs only while its thread
//! waits on the socket, so a slow store call delays a peer's answer but
//! never counts against it, and other connections are unaffected.
//! [`DaemonLimits::max_connections`] bounds the threads against
//! connection floods.
//!
//! # Hostile peers
//!
//! Protocol errors (bad magic, oversized length prefix, malformed body)
//! close the offending connection — there is no way to resynchronize a
//! corrupt byte stream — but never take the daemon down; queued
//! responses for earlier valid requests are flushed first, then the
//! connection closes. Other connections and future connects are
//! unaffected. Model-level failures ([`dps_server::ServerError`]) are
//! answered in-band with [`Response::Fail`] and leave the connection
//! open — among them a write of a cell of another length than the stride,
//! which the model refuses (`WrongCellLength`) before the store allocates or
//! stores anything: no write can change the arena's geometry. So are the failures
//! of a durable store whose disk has failed (it *poisons*): a refused
//! upload and a read that would touch the dead arena are `Fail(Interrupted)`,
//! its waiting dirty cells are still served, and the peer can still ping.
//! Nothing stands between a store call and its answer: an upload's `Ok` is
//! already a synced commit, so a response is the acknowledgement as it
//! stands. A store call that panics takes its connection's thread down and
//! poisons the store lock, so every later request's thread follows it: a
//! store left halfway through a call serves no one.
//!
//! The frame layer caps what one frame can make the daemon read
//! ([`crate::wire::MAX_FRAME`]); [`DaemonLimits`] caps what a set-up can
//! make it *allocate*. A chunked init whose flat-arena footprint
//! (`cells × stride`) passes the budget is rejected by closing the
//! connection before the chunk is kept. Legitimate deployments size
//! [`DaemonLimits::max_stored_bytes`] to the machine. A set-up has one
//! stride (NOTES.md, entries 21 and 29): each chunk states it once, for all
//! its cells, and a chunk that states another than the run's first closes
//! the connection the same way, where a local caller's set-up would have
//! panicked.
//!
//! # Set-up
//!
//! The one request that is not served out of the in-buffer alone is a
//! chunked init: its frames arrive over many reads, and the store takes
//! a database whole (a crash must find the old one or the new one). A
//! chunk's cells are one flat run of `count × stride` bytes, and the
//! connection keeps those bytes, and nothing per cell, end to end in one
//! buffer — checked against the same budget before each chunk is kept —
//! and on `done` feeds them, and the last frame where it lies, cell by cell
//! to [`Storage::init_with`]: the database is in memory twice while the
//! store lays out its image, once (or, behind a bounded cache, not at all)
//! when the answer leaves. A run of chunks is contiguous; any other request
//! on the connection abandons and frees it.

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dps_server::Storage;

use crate::wire::{
    begin_frame, end_frame, frame_into, put_cells_open, put_fold, Addrs, Cells, FrameAssembler,
    RequestView, Response, WireError, MAX_FRAME, READ_CHUNK,
};

/// Per-cell bookkeeping bytes used when projecting an allocation from a
/// cell count: a 4-byte cache page-table entry and 12 bytes of slack (the
/// store keeps no table of its own: every cell is the stride long).
const CELL_OVERHEAD: u64 = 16;

/// Unsent answer bytes past which a connection's thread stops serving
/// buffered frames and writes (see the module docs): one read's worth.
const MAX_UNSENT: usize = READ_CHUNK;

/// How long a stopping daemon lets its connections answer what they hold
/// and flush it before cutting off peers that will not take their answers
/// (see [`NetDaemon::shutdown`]).
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Resource bounds a daemon enforces against its peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonLimits {
    /// Upper bound on the storage arena a set-up may cause the server to
    /// allocate, in bytes (projected as `capacity × (stride + per-cell
    /// bookkeeping)`). A chunked init that would exceed it closes
    /// the connection instead of allocating. Set-up is the only request it
    /// guards: no other request allocates arena, because no write can
    /// change the stride. Default: 4 GiB.
    pub max_stored_bytes: u64,
    /// Connections a daemon keeps open at once, each served by a thread of
    /// its own. Accepts beyond the cap are closed immediately (counted in
    /// [`DaemonMetrics::accept_rejects`]), so a connection flood cannot
    /// exhaust the threads or the fd table. Default: 256 — the store serves
    /// one request at a time, so more connections add waiting, not work,
    /// and 256 sockets sit well inside the common 1024-descriptor soft
    /// limit.
    pub max_connections: usize,
    /// Reap a connection whose thread has waited this long to read a byte
    /// from it. This is the slowloris bound: a peer that connects and
    /// trickles (or sends nothing) cannot hold a thread forever. `None`
    /// disables idle reaping. Default: 60 s.
    pub idle_timeout: Option<Duration>,
    /// Reap a connection whose thread has waited this long for the socket
    /// to take a single byte of its answers — a backpressured peer that
    /// refuses to drain. `None` disables stall reaping. Default: 60 s.
    pub write_stall_timeout: Option<Duration>,
}

impl Default for DaemonLimits {
    fn default() -> Self {
        Self {
            max_stored_bytes: 1 << 32,
            max_connections: 256,
            idle_timeout: Some(Duration::from_secs(60)),
            write_stall_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// A snapshot of the daemon's counters, for observability and for the
/// backpressure tests. Taken with [`NetDaemon::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonMetrics {
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Connections open now: accepted, and their thread not yet ended.
    pub open_connections: u64,
    /// Times a connection's thread stopped serving its buffered frames to
    /// write out answers whose unsent bytes had passed the cap (see the
    /// module docs).
    pub read_stalls: u64,
    /// Connections closed for violating the wire protocol (corrupt
    /// framing, malformed bodies, or requests that break caller
    /// contracts / the allocation budget).
    pub protocol_errors: u64,
    /// Connections reaped by [`DaemonLimits::idle_timeout`].
    pub idle_reaped: u64,
    /// Connections reaped by [`DaemonLimits::write_stall_timeout`].
    pub stall_reaped: u64,
    /// Accepts closed immediately because the daemon was already at
    /// [`DaemonLimits::max_connections`].
    pub accept_rejects: u64,
}

#[derive(Debug, Default)]
struct MetricsInner {
    connections: AtomicU64,
    read_stalls: AtomicU64,
    protocol_errors: AtomicU64,
    idle_reaped: AtomicU64,
    stall_reaped: AtomicU64,
    accept_rejects: AtomicU64,
}

/// A running TCP storage daemon. Dropping it (or calling
/// [`NetDaemon::shutdown`]) stops it *gracefully*: no new connections are
/// accepted, requests already received are answered, and queued responses
/// are flushed (bounded by an internal drain deadline and the write-stall
/// timeout) before the sockets close.
#[derive(Debug)]
pub struct NetDaemon {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<MetricsInner>,
    live: Arc<Live>,
    acceptor: Option<JoinHandle<()>>,
}

impl NetDaemon {
    /// Serves `server` on an OS-assigned loopback port (the test/bench
    /// configuration) with default [`DaemonLimits`]. Query the actual
    /// address with [`NetDaemon::local_addr`]. Any [`Storage`] backend
    /// works: an in-memory [`SimServer`](dps_server::SimServer) or a
    /// durable [`DiskStore`](dps_server::DiskStore).
    pub fn spawn<S: Storage + 'static>(server: S) -> std::io::Result<Self> {
        Self::bind("127.0.0.1:0", server)
    }

    /// Serves `server` on `addr` with default [`DaemonLimits`].
    pub fn bind<S: Storage + 'static>(
        addr: impl ToSocketAddrs,
        server: S,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, server, DaemonLimits::default())
    }

    /// Serves `server` on `addr`, enforcing `limits` per request.
    pub fn bind_with<S: Storage + 'static>(
        addr: impl ToSocketAddrs,
        server: S,
        limits: DaemonLimits,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(MetricsInner::default());
        let live = Arc::new(Live::default());
        let acceptor = {
            let (stop, metrics, live) =
                (Arc::clone(&stop), Arc::clone(&metrics), Arc::clone(&live));
            let store = Arc::new(Mutex::new(server));
            std::thread::Builder::new()
                .name("dps-net-accept".into())
                .spawn(move || accept_loop(&listener, &store, limits, &stop, &metrics, &live))?
        };
        Ok(Self { local_addr, stop, metrics, live, acceptor: Some(acceptor) })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the counters.
    pub fn metrics(&self) -> DaemonMetrics {
        DaemonMetrics {
            connections: self.metrics.connections.load(Ordering::Relaxed),
            open_connections: self.live.count() as u64,
            read_stalls: self.metrics.read_stalls.load(Ordering::Relaxed),
            protocol_errors: self.metrics.protocol_errors.load(Ordering::Relaxed),
            idle_reaped: self.metrics.idle_reaped.load(Ordering::Relaxed),
            stall_reaped: self.metrics.stall_reaped.load(Ordering::Relaxed),
            accept_rejects: self.metrics.accept_rejects.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and waits for every connection's thread to end,
    /// draining first: buffered requests are answered and queued responses
    /// flushed before the sockets close. Peers that will not drain their
    /// responses are cut off after an internal deadline, so shutdown always
    /// completes. When it returns the store has been dropped.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept thread re-checks the flag after every accept; a
        // connect to the listener wakes it. A wildcard bind address
        // (0.0.0.0/[::]) is not connectable, so aim the wake-up at
        // loopback on the same port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(2));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // No connection can be admitted any more: wind the live ones down.
        self.live.drain();
    }
}

impl Drop for NetDaemon {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// The accept thread: gives every connection up to
/// [`DaemonLimits::max_connections`] a thread of its own, until it sees the
/// stop flag. A thread that cannot be started drops its seat and its
/// socket with its closure: the connection closes, uncounted. A started
/// thread's handle is dropped, not kept: the stop waits on the registry
/// instead, which a thread leaves as its last act, so a closed connection
/// keeps no handle either (a panic still reports through the panic hook).
fn accept_loop<S: Storage + 'static>(
    listener: &TcpListener,
    store: &Arc<Mutex<S>>,
    limits: DaemonLimits,
    stop: &AtomicBool,
    metrics: &Arc<MetricsInner>,
    live: &Arc<Live>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let sock = Arc::new(stream);
        let Some(seat) = live.seat(&sock, limits.max_connections) else {
            bump(&metrics.accept_rejects);
            continue;
        };
        let (store, conn_metrics) = (Arc::clone(store), Arc::clone(metrics));
        let spawned = std::thread::Builder::new()
            .name("dps-net-conn".into())
            .spawn(move || {
                // Locals drop in reverse: the socket and the store go before
                // the seat, so an empty registry means every connection's
                // socket is closed and its hold on the store given up.
                let _seat = seat;
                let (sock, store, metrics) = (sock, store, conn_metrics);
                serve(&sock, &store, limits, &metrics);
            });
        if spawned.is_ok() {
            bump(&metrics.connections);
        }
    }
}

/// Locks `mutex`, whatever a panic left behind: the registry's entries are
/// each written in one step, so there is no half-done state to fear.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sockets of the connections being served, so that a stop can reach
/// them. An entry goes when its connection's thread ends, and with it the
/// last handle on the socket: a closed connection keeps nothing here.
#[derive(Debug, Default)]
struct Live {
    socks: Mutex<Vec<Option<Arc<TcpStream>>>>,
    /// Signalled whenever an entry goes.
    left: Condvar,
}

/// A connection's entry in [`Live`], removed when it drops.
#[derive(Debug)]
struct Seat {
    live: Arc<Live>,
    idx: usize,
}

impl Drop for Seat {
    fn drop(&mut self) {
        lock(&self.live.socks)[self.idx] = None;
        self.live.left.notify_all();
    }
}

impl Live {
    /// Connections with an entry.
    fn count(&self) -> usize {
        lock(&self.socks).iter().flatten().count()
    }

    /// Enters `sock`, unless `max` connections already have an entry.
    fn seat(self: &Arc<Self>, sock: &Arc<TcpStream>, max: usize) -> Option<Seat> {
        let mut socks = lock(&self.socks);
        if socks.iter().flatten().count() >= max {
            return None;
        }
        let idx = socks.iter().position(Option::is_none).unwrap_or_else(|| {
            socks.push(None);
            socks.len() - 1
        });
        socks[idx] = Some(Arc::clone(sock));
        Some(Seat { live: Arc::clone(self), idx })
    }

    /// Winds every connection down: `shutdown(Read)` on each socket, so
    /// each thread answers the complete frames it holds, flushes and ends;
    /// after [`DRAIN_TIMEOUT`], `shutdown(Both)` on any still here — a
    /// thread blocked writing to a peer that will not read — and a wait for
    /// the last thread to end.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut socks = lock(&self.socks);
        let shut = |socks: &[Option<Arc<TcpStream>>], how| {
            socks.iter().flatten().for_each(|sock| drop(sock.shutdown(how)));
        };
        shut(&socks, Shutdown::Read);
        while socks.iter().any(Option::is_some) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else { break };
            socks = self
                .left
                .wait_timeout(socks, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        shut(&socks, Shutdown::Both);
        while socks.iter().any(Option::is_some) {
            socks = self.left.wait(socks).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a connection's thread serves it with (see the module diagram).
#[derive(Debug, Default)]
struct Conn {
    /// The in-buffer: the socket is read into it, requests are served out
    /// of it.
    assembler: FrameAssembler,
    /// The out-buffer: framed answers, appended as they are produced.
    out: Vec<u8>,
    /// The chunks of a chunked init that has not seen `done` yet.
    pending: PendingInit,
    scratch: Scratch,
}

/// What serving a request needs besides its frame, reused by every request
/// of the connection, so that the hot requests allocate nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The addresses of the `ReadBatch` / `XorCells` being served.
    addrs: Vec<usize>,
    /// The fold of the `XorCells` being served.
    fold: Vec<u8>,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A read or write that ran out its socket timeout: `WouldBlock` on Linux,
/// `TimedOut` elsewhere.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A connection's thread: serve every complete frame, write the answers,
/// read — until the peer hangs up (or a stop shuts the socket's read
/// side), breaks the protocol, misses a deadline or fails.
fn serve<S: Storage>(
    mut sock: &TcpStream,
    store: &Mutex<S>,
    limits: DaemonLimits,
    metrics: &MetricsInner,
) {
    let set_up = sock
        .set_nodelay(true)
        .and_then(|()| sock.set_read_timeout(limits.idle_timeout))
        .and_then(|()| sock.set_write_timeout(limits.write_stall_timeout));
    if set_up.is_err() {
        return;
    }
    let mut conn = Conn::default();
    loop {
        let served = conn.serve_frames(store, limits);
        match served {
            Err(_) => bump(&metrics.protocol_errors),
            Ok(true) => bump(&metrics.read_stalls),
            Ok(false) => {}
        }
        // The answers to the frames before a violation still leave.
        if let Err(e) = sock.write_all(&conn.out) {
            if timed_out(&e) {
                bump(&metrics.stall_reaped);
            }
            return;
        }
        // Start over at the front, and give an outsize buffer back (one
        // huge answer must not pin its size for the life of the
        // connection).
        conn.out.clear();
        conn.out.shrink_to(READ_CHUNK);
        match served {
            Err(_) => return,
            Ok(true) => continue,
            Ok(false) => {}
        }
        match conn.assembler.fill_from(&mut sock) {
            // End of stream: every complete frame has been answered.
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                if timed_out(&e) {
                    bump(&metrics.idle_reaped);
                }
                return;
            }
        }
    }
}

impl Conn {
    /// Serves the complete frames in the in-buffer: parse in place,
    /// dispatch under the store lock, append the answer to the out-buffer
    /// under the frame's request id. `Ok(true)` means it stopped early,
    /// the unsent answers past [`MAX_UNSENT`], leaving any further frames
    /// in the in-buffer.
    ///
    /// The frame is borrowed from the in-buffer, which nothing touches
    /// until its answer is complete. `Err` is a protocol violation, the
    /// answers before it standing: a corrupt frame, or a structurally
    /// valid one whose contents break a caller contract (e.g. a strided
    /// write with a non-multiple flat length) or would blow the allocation
    /// budget. A local caller would have panicked; over the wire the
    /// daemon must stay up, so the connection is dropped instead.
    fn serve_frames<S: Storage>(
        &mut self,
        store: &Mutex<S>,
        limits: DaemonLimits,
    ) -> Result<bool, WireError> {
        while let Some((id, payload)) = self.assembler.next_frame()? {
            let request = RequestView::parse(payload)?;
            let mut store = store
                .lock()
                .expect("a store call panicked on another connection");
            let (pending, scratch) = (&mut self.pending, &mut self.scratch);
            dispatch(&mut *store, limits, pending, scratch, request, id, &mut self.out)?;
            if self.out.len() > MAX_UNSENT {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Per-connection state of a chunked init that has not seen its `done`
/// frame: the cells of the chunks as they arrived, end to end in one
/// buffer — one allocation however many cells it holds, grown by exactly
/// what each chunk adds (a large buffer is remapped by the allocator, not
/// copied) — their count, and the run's one stride, that of its first chunk
/// with a cell in it. The frame carrying `done` is not kept at all (it is
/// fed to the store where it lies), and a stream is contiguous: any other
/// request on the connection drops it.
#[derive(Debug, Default)]
struct PendingInit {
    flat: Vec<u8>,
    count: usize,
    stride: Option<usize>,
}

impl PendingInit {
    /// Whether `more` may join the run: its stride is the run's (a chunk
    /// of no cells has none), and the run with it projects an arena
    /// footprint within `budget` — the flat store allocates `capacity ×
    /// stride`, which also bounds what is kept here until `done`.
    fn admit(&self, more: Cells<'_>, budget: u64) -> Result<(), WireError> {
        let stride = self.stride.unwrap_or(more.stride);
        if more.n > 0 && more.stride != stride {
            return Err(WireError::BadPayload("set-up cells differ in length"));
        }
        let count = self.count.saturating_add(more.n) as u64;
        let per_cell = (stride as u64).saturating_add(CELL_OVERHEAD);
        if count.saturating_mul(per_cell) > budget {
            return Err(WireError::BadPayload("allocation exceeds daemon budget"));
        }
        Ok(())
    }

    /// Copies the bytes of `more` out of its frame, behind what is already
    /// kept.
    fn keep(&mut self, more: Cells<'_>) {
        if more.n > 0 {
            self.stride = Some(more.stride);
        }
        self.count += more.n;
        self.flat.reserve_exact(more.body.len());
        self.flat.extend_from_slice(more.body);
    }

    /// Set-up: the kept cells, then `last` straight from its frame, go to
    /// the store one by one in address order. Until the store has laid
    /// them into its image the database is held twice — here and there —
    /// and once when this returns.
    fn feed<S: Storage>(self, last: Cells<'_>, server: &mut S) {
        let kept =
            Cells { n: self.count, stride: self.stride.unwrap_or(last.stride), body: &self.flat };
        server.init_with(kept.n + last.n, |sink| kept.iter().chain(last.iter()).for_each(sink));
    }
}

/// Decodes a request's addresses into the connection's scratch (which
/// keeps its capacity between requests, up to a bound: one outsize list is
/// not kept for the life of the connection).
fn load<'s>(into: &'s mut Vec<usize>, addrs: Addrs<'_>) -> &'s [usize] {
    into.clear();
    into.shrink_to(READ_CHUNK);
    into.extend(addrs.iter());
    into
}

/// Executes one request against the server and appends its framed answer
/// to `out`. `Err` means the request violated a caller contract the
/// in-process API enforces by panicking (or the daemon's allocation
/// budget); `out` is then as it was, and the connection's thread closes
/// the connection in response.
///
/// The caller holds the store lock for the call.
fn dispatch<S: Storage>(
    server: &mut S,
    limits: DaemonLimits,
    pending: &mut PendingInit,
    scratch: &mut Scratch,
    request: RequestView<'_>,
    id: u64,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let ok_or_fail = |done: Result<(), dps_server::ServerError>| {
        done.map_or_else(Response::Fail, |()| Response::Ok)
    };
    if !matches!(request, RequestView::InitChunk { .. }) {
        // A chunked init is contiguous: whatever else arrives ends (and
        // frees) a half-finished one instead of letting a later stream be
        // spliced behind its prefix.
        *pending = PendingInit::default();
    }
    let response = match request {
        RequestView::Ping => Response::Pong,
        RequestView::InitChunk { done, cells } => {
            pending.admit(cells, limits.max_stored_bytes)?;
            if done {
                std::mem::take(pending).feed(cells, server);
            } else {
                pending.keep(cells);
            }
            Response::Ok
        }
        RequestView::Capacity => Response::Number(server.capacity() as u64),
        RequestView::CellStride => Response::Number(server.cell_stride() as u64),
        RequestView::StartRecording => {
            server.start_recording();
            Response::Ok
        }
        RequestView::TakeTranscript => Response::TranscriptData(server.take_transcript()),
        RequestView::Stats => Response::Stats(server.stats()),
        RequestView::ResetStats => {
            server.reset_stats();
            Response::Ok
        }
        RequestView::ReadBatch { addrs } => {
            // Every cell is the stride long, so this is the answer's size:
            // one that cannot fit a frame is refused before the store is
            // touched, not after it has been copied out cell by cell.
            let stride = server.cell_stride();
            if addrs.len().saturating_mul(stride) > MAX_FRAME - 17 {
                return Err(WireError::BadPayload("answer exceeds the frame cap"));
            }
            // The cells go from the store into the out-buffer, once, end
            // to end. If the walk fails the model has charged the cells it
            // visited; their bytes are rolled back and the failure is the
            // answer.
            let mark = begin_frame(out);
            put_cells_open(out, addrs.len(), stride);
            match server.read_batch_with(load(&mut scratch.addrs, addrs), |_, cell| {
                out.extend_from_slice(cell)
            }) {
                Ok(()) => return end_frame(out, mark, id),
                Err(e) => {
                    out.truncate(mark);
                    Response::Fail(e)
                }
            }
        }
        RequestView::WriteBatchStrided { addrs, flat } => {
            // The in-process API asserts that the address count divides
            // the flat bytes (none without addresses); a remote peer must
            // not be able to panic the daemon.
            let n = addrs.len();
            if flat.len().checked_rem(n).unwrap_or(flat.len()) != 0 {
                return Err(WireError::BadPayload("flat length not a multiple of cell count"));
            }
            // Straight off the frame: nothing between the in-buffer and
            // the store.
            let cells = Cells { n, stride: flat.len().checked_div(n).unwrap_or(0), body: flat };
            ok_or_fail(server.write_cells(addrs.iter().zip(cells.iter())))
        }
        RequestView::XorCells { addrs } => {
            match server.xor_cells_into(load(&mut scratch.addrs, addrs), &mut scratch.fold) {
                Ok(()) => {
                    return frame_into(out, id, |buf| {
                        put_fold(buf, &scratch.fold);
                        Ok(())
                    })
                }
                Err(e) => Response::Fail(e),
            }
        }
    };
    response.encode_framed_into(id, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;
    use dps_server::SimServer;

    /// A chunked init grows the connection's receive buffer to a frame and
    /// its pending state to the database; once `done` is served the first is
    /// back at its idle size and the second is gone.
    #[test]
    fn set_up_leaves_the_connection_as_it_found_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::default();
        let store = Mutex::new(SimServer::new());
        let serve = |conn: &mut Conn, client: &mut TcpStream, request: Request, id: u64| {
            client.write_all(&request.encode_framed_v2(id).unwrap()).unwrap();
            conn.out.clear();
            while conn.out.is_empty() {
                assert_ne!(conn.assembler.fill_from(&mut &stream).unwrap(), 0);
                let stalled = conn.serve_frames(&store, DaemonLimits::default()).unwrap();
                assert!(!stalled);
            }
        };

        let chunk = |done| Request::InitChunk { done, cells: vec![vec![9u8; 1 << 10]; 1 << 10] };
        serve(&mut conn, &mut client, chunk(false), 1);
        serve(&mut conn, &mut client, chunk(false), 2);
        assert_eq!(conn.pending.count, 2 << 10);
        assert_eq!(conn.pending.flat.len(), 2 << 20, "the cells' bytes, and nothing per cell");
        serve(&mut conn, &mut client, chunk(true), 3);
        assert_eq!((conn.pending.count, conn.pending.flat.capacity()), (0, 0));
        assert!(conn.assembler.capacity() <= READ_CHUNK, "{}", conn.assembler.capacity());
        assert_eq!(store.lock().unwrap().capacity(), 3 << 10);
    }
}
