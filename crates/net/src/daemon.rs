//! The readiness-based TCP storage daemon.
//!
//! [`NetDaemon`] owns any [`Storage`] backend — the
//! in-memory [`SimServer`](dps_server::SimServer) or the durable
//! [`DiskStore`](dps_server::DiskStore) — and serves the full trait
//! surface over the wire protocol of [`crate::wire`]. One event-loop
//! thread multiplexes every connection through one `poll(2)` per turn —
//! no thread per connection, so the accept rate and the connection count
//! stop being thread-spawn bound. Nothing is registered with the kernel:
//! each turn the loop builds its `pollfd` array afresh from the
//! connection slab — the listener first (until the drain begins), then
//! every live connection with the interests its state implies: read
//! unless paused or closing, write while answers are unsent. A
//! connection's interests therefore live in one place, its state (NOTES.md,
//! entry 15); building the array is one walk of the slab, as the deadline
//! scan already is, and the two `Vec`s it fills keep their capacity, so a
//! steady-state turn allocates nothing.
//! Each connection is a small non-blocking state machine around two
//! buffers — one in, one out, and nothing in between:
//!
//! ```text
//!            one read                     complete frame, borrowed
//!   socket ───────────▶ in-buffer ──────────────────────────────▶ dispatch
//!      ▲             (FrameAssembler:                                │
//!      │              frames are served                              │ answer appended
//!      │ stop reading where the kernel                               ▼ in place
//!      │ while unsent  put them)                                 out-buffer
//!      │ bytes are                                               (one Vec<u8>)
//!      │ over the cap                                                │
//!      └────────────────────◀── backpressure ──◀─────────────────────┤
//!                                                    one write ──▶ socket
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
//! A wake-up costs one `read` in the common case: a read that comes back
//! shorter than the room it was offered has emptied the socket, and since
//! `poll(2)` is level-triggered the next bytes raise a new event — so the
//! loop does not ask the kernel for a `WouldBlock`. A read that filled
//! its room keeps reading (and makes the in-buffer offer more next time,
//! up to 64 KiB a read).
//!
//! Each response echoes the id of its request, and the out-buffer
//! preserves arrival order per connection.
//!
//! # Backpressure
//!
//! Answers wait in the connection's out-buffer and drain as the socket
//! accepts them. A connection whose unsent bytes exceed
//! [`DaemonLimits::max_queued_bytes`] is *paused*: the daemon stops
//! reading from (and stops serving frames of) that socket until the
//! out-buffer fully drains, then resumes. A slow or stalled reader
//! therefore costs the daemon at most `max_queued_bytes` plus one read
//! burst of buffered memory — never an unbounded queue — and never stalls
//! other connections. Pauses are observable as
//! [`DaemonMetrics::read_stalls`]. Both buffers follow the traffic: they
//! grow with what a connection actually sends and receives, and a drained
//! buffer larger than 64 KiB is handed back, so an idle connection pins a
//! few KiB and one huge frame does not pin its size for good.
//!
//! # Deadlines
//!
//! The event loop keeps a coarse timer: each connection carries a
//! last-activity stamp and a last-write-progress stamp, checked on every
//! poll wake-up (the poll timeout shrinks to the nearest deadline, so
//! reaping happens on time, not on the next unrelated event). The loop
//! reads the clock twice a turn, when `poll` returns and after the turn's
//! last step; progress made in a turn counts as of its end, so a deadline
//! fires at most one turn late, never early.
//! [`DaemonLimits::idle_timeout`] reaps slowloris peers — connected but
//! never sending a full frame — and [`DaemonLimits::write_stall_timeout`]
//! reaps backpressured peers that refuse to drain their responses.
//! Reaped connections are counted in [`DaemonMetrics::idle_reaped`] and
//! [`DaemonMetrics::stall_reaped`]; other connections are unaffected.
//! [`DaemonLimits::max_connections`] bounds the slab itself against
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
//! stands.
//!
//! The frame layer caps what one frame can make the daemon read
//! ([`crate::wire::MAX_FRAME`]); [`DaemonLimits`] caps what a set-up can
//! make it *allocate*. A chunked init whose flat-arena footprint
//! (`cells × stride`) passes the budget is rejected by closing the
//! connection before the chunk is kept. Legitimate deployments size
//! [`DaemonLimits::max_stored_bytes`] to the machine. A set-up's cells
//! have the first cell's length (NOTES.md, entry 21): a chunk holding a
//! cell of another, in the same frame or a later one, closes the connection
//! the same way, where a local caller's set-up would have panicked.
//!
//! # Set-up
//!
//! The one request that is not served out of the in-buffer alone is a
//! chunked init: its frames arrive over many wake-ups, and the store takes
//! a database whole (a crash must find the old one or the new one). The
//! connection keeps the chunks' wire bytes end to end in one buffer —
//! checked against the same budget before each is kept — and on `done`
//! feeds them, and the last frame where it lies, cell by cell to
//! [`Storage::init_with`]: the database is in memory twice while the store
//! lays out its image, once (or, behind a bounded cache, not at all) when
//! the answer leaves. A run of chunks is contiguous; any other request on
//! the connection abandons and frees it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dps_server::Storage;

use crate::sys::{self, timeout_ms_until, PollFd};
use crate::wire::{
    begin_frame, end_frame, frame_into, put_bytes, put_cells_open, put_fold, Addrs, Cells,
    CellsBuf, FrameAssembler, RequestView, Response, WireError, MAX_FRAME, READ_CHUNK,
};

/// Per-cell bookkeeping bytes used when projecting an allocation from a
/// cell count: a 4-byte cache page-table entry and 12 bytes of slack (the
/// store keeps no table of its own: every cell is the stride long).
const CELL_OVERHEAD: u64 = 16;

/// The token of the listening socket's entry in a turn's `pollfd` array;
/// a connection's token is its slab index plus one.
const LISTENER: usize = 0;

/// Poll timeout: the upper bound on shutdown latency when the wake-up
/// connect cannot reach the listener. Timer deadlines (idle and
/// write-stall reaping) shorten individual waits below this; they never
/// lengthen them.
const POLL_TIMEOUT_MS: i32 = 500;

/// How long a stopping daemon keeps flushing queued responses before
/// giving up on peers that will not drain them (see
/// [`NetDaemon::shutdown`]).
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
    /// Per-connection backpressure threshold: once a connection's unsent
    /// response bytes exceed this, the daemon stops reading from that
    /// socket until its out-buffer drains (see the module docs). A single
    /// response larger than the cap is still buffered whole — the cap
    /// bounds what a slow reader can pile up, not what one request may
    /// answer. Default: 4 MiB.
    pub max_queued_bytes: usize,
    /// Connections a daemon keeps open at once. Accepts beyond the cap
    /// are closed immediately (counted in
    /// [`DaemonMetrics::accept_rejects`]), so a connection flood cannot
    /// exhaust the slab or the fd table. Default: 1024.
    pub max_connections: usize,
    /// Reap a connection that has shown no activity — no bytes read from
    /// it, no response bytes accepted by it — for this long. This is the
    /// slowloris bound: a peer that connects and trickles (or sends
    /// nothing) cannot hold a slab slot forever. `None` disables idle
    /// reaping. Default: 60 s.
    pub idle_timeout: Option<Duration>,
    /// Reap a connection that has queued responses but has not accepted a
    /// single byte of them for this long — a backpressured peer that
    /// refuses to drain. Measured from the last write progress (or from
    /// when the queue became non-empty), independently of
    /// [`DaemonLimits::idle_timeout`]. `None` disables stall reaping.
    /// Default: 60 s.
    pub write_stall_timeout: Option<Duration>,
}

impl Default for DaemonLimits {
    fn default() -> Self {
        Self {
            max_stored_bytes: 1 << 32,
            max_queued_bytes: 1 << 22,
            max_connections: 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            write_stall_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// A snapshot of the daemon's event-loop counters, for observability and
/// for the backpressure tests. Taken with [`NetDaemon::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonMetrics {
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Times a connection's reads were paused because its queued response
    /// bytes exceeded [`DaemonLimits::max_queued_bytes`].
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
/// [`NetDaemon::shutdown`]) stops the event loop *gracefully*: no new
/// connections are accepted, requests already received are answered, and
/// queued responses are flushed (bounded by an internal drain deadline
/// and the write-stall timeout) before the sockets close.
#[derive(Debug)]
pub struct NetDaemon {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<MetricsInner>,
    event_loop: Option<JoinHandle<()>>,
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
        let event_loop = {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            std::thread::Builder::new()
                .name("dps-net-loop".into())
                .spawn(move || event_loop(listener, server, limits, &stop, &metrics))?
        };
        Ok(Self { local_addr, stop, metrics, event_loop: Some(event_loop) })
    }

    /// The address the daemon is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the event-loop counters.
    pub fn metrics(&self) -> DaemonMetrics {
        DaemonMetrics {
            connections: self.metrics.connections.load(Ordering::Relaxed),
            read_stalls: self.metrics.read_stalls.load(Ordering::Relaxed),
            protocol_errors: self.metrics.protocol_errors.load(Ordering::Relaxed),
            idle_reaped: self.metrics.idle_reaped.load(Ordering::Relaxed),
            stall_reaped: self.metrics.stall_reaped.load(Ordering::Relaxed),
            accept_rejects: self.metrics.accept_rejects.load(Ordering::Relaxed),
        }
    }

    /// Stops the event loop and joins it, draining first: buffered
    /// requests are answered and queued responses flushed before the
    /// sockets close. Peers that will not drain their responses are cut
    /// off after an internal deadline, so shutdown always completes.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The loop re-checks the flag after every poll wake-up; a
        // connect to the listener wakes it immediately, and the poll
        // timeout bounds the join even if the wake-up cannot connect. A
        // wildcard bind address (0.0.0.0/[::]) is not connectable, so
        // aim the wake-up at loopback on the same port.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, std::time::Duration::from_secs(2));
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetDaemon {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// Per-connection state machine (see the module diagram).
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// The in-buffer: the socket is read into it, requests are served out
    /// of it.
    assembler: FrameAssembler,
    /// The out-buffer: framed answers, appended as they are produced;
    /// `out[out_pos..]` is still to be written.
    out: Vec<u8>,
    out_pos: usize,
    /// The chunks of a chunked init that has not seen `done` yet.
    pending: PendingInit,
    /// Backpressured: reads and frame processing are suspended until the
    /// out-buffer drains.
    paused: bool,
    /// Flush the out-buffer, then close (peer EOF or protocol violation).
    closing: bool,
    /// Remove this connection after the current event.
    dead: bool,
    /// Last time the peer showed life: bytes read from it, or response
    /// bytes it accepted. Drives [`DaemonLimits::idle_timeout`].
    last_activity: Instant,
    /// Last time an answer byte left for the peer (reset when the
    /// out-buffer turns non-empty). Drives
    /// [`DaemonLimits::write_stall_timeout`].
    last_write_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            assembler: FrameAssembler::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: PendingInit::default(),
            paused: false,
            closing: false,
            dead: false,
            last_activity: now,
            last_write_progress: now,
        }
    }

    /// Answer bytes not yet accepted by the socket.
    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// What this connection waits for, derived from its state alone: to
    /// read unless paused or closing, to write while answers are unsent.
    /// A live connection always waits for something — a paused one has
    /// unsent bytes, and a closing one with none is already dead.
    fn pollfd(&self) -> PollFd {
        PollFd::new(self.stream.as_raw_fd(), !self.paused && !self.closing, self.unsent() > 0)
    }
}

/// What serving a request needs besides its connection, owned by the loop
/// and reused by every request of every connection, so that the hot
/// requests allocate nothing.
#[derive(Debug, Default)]
struct Scratch {
    /// The addresses of the `ReadBatch` / `XorCells` being served.
    addrs: Vec<usize>,
    /// The fold of the `XorCells` being served.
    fold: Vec<u8>,
}

/// The daemon thread: one `poll(2)` per turn, one server, many connection
/// state machines.
fn event_loop<S: Storage>(
    listener: TcpListener,
    mut server: S,
    limits: DaemonLimits,
    stop: &AtomicBool,
    metrics: &MetricsInner,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let mut conns: Vec<Option<Conn>> = Vec::new();
    // This turn's `pollfd` array and, entry for entry, whose it is.
    let mut fds: Vec<PollFd> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();
    let mut scratch = Scratch::default();
    // Set once the stop flag is seen: the drain deadline after which
    // still-undrained connections are cut off and the loop returns.
    let mut drain_until: Option<Instant> = None;
    // Two clock readings per turn. `turn`, taken when `poll(2)` returns,
    // stamps every connection's progress in the turn; `now`, taken after
    // its last step, reaps, ends a drain and times the next `poll`.
    let mut now = Instant::now();
    loop {
        let timeout = {
            let mut next = next_deadline(&conns, limits);
            if let Some(deadline) = drain_until {
                next = Some(next.map_or(deadline, |d| d.min(deadline)));
            }
            timeout_ms_until(next, now, POLL_TIMEOUT_MS)
        };
        // The listener's entry comes first: accepts fill slots that have
        // no entry further down, and a slot freed later in the turn stays
        // empty until the next array is built, so an entry only ever
        // serves the connection it was built from.
        fds.clear();
        tokens.clear();
        if drain_until.is_none() {
            fds.push(PollFd::new(listener.as_raw_fd(), true, false));
            tokens.push(LISTENER);
        }
        for (idx, conn) in conns.iter().enumerate() {
            if let Some(conn) = conn {
                fds.push(conn.pollfd());
                tokens.push(idx + 1);
            }
        }
        if sys::wait(&mut fds, timeout).is_err() {
            return;
        }
        let turn = Instant::now();
        if drain_until.is_none() && stop.load(Ordering::SeqCst) {
            drain_until = Some(turn + DRAIN_TIMEOUT);
            begin_drain(&mut conns, &mut server, &mut scratch, limits, metrics, turn);
        }
        for (pfd, &token) in fds.iter().zip(&tokens) {
            let (readable, writable) = (pfd.readable(), pfd.writable());
            if !readable && !writable {
                continue;
            }
            if token == LISTENER {
                if drain_until.is_none() {
                    accept_ready(&listener, &mut conns, limits, metrics, turn);
                }
                continue;
            }
            let idx = token - 1;
            // A drain that began this turn may have closed it already;
            // skip its slot.
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else { continue };
            if writable && !conn.dead {
                flush_conn(conn, &mut server, &mut scratch, limits, metrics, turn);
            }
            if readable && !conn.dead {
                fill_conn(conn, &mut server, &mut scratch, limits, metrics, turn);
                // Opportunistic flush: most responses leave in the same
                // turn that produced them, without another `poll`.
                flush_conn(conn, &mut server, &mut scratch, limits, metrics, turn);
            }
            settle_conn(&mut conns, idx);
        }
        now = Instant::now();
        reap_deadlines(&mut conns, limits, metrics, turn, now);
        if let Some(deadline) = drain_until {
            // Drained, or out of patience with peers that will not drain.
            if conns.iter().all(Option::is_none) || now >= deadline {
                return;
            }
        }
    }
}

/// The nearest timer deadline across all live connections, if any timer
/// is armed: idle reaping measures from the last peer activity,
/// write-stall reaping from the last write progress of a non-empty
/// out-buffer.
fn next_deadline(conns: &[Option<Conn>], limits: DaemonLimits) -> Option<Instant> {
    let mut next: Option<Instant> = None;
    let mut fold = |deadline: Instant| {
        next = Some(next.map_or(deadline, |cur| cur.min(deadline)));
    };
    for conn in conns.iter().flatten() {
        if let Some(t) = limits.idle_timeout {
            if !conn.closing {
                fold(conn.last_activity + t);
            }
        }
        if let Some(t) = limits.write_stall_timeout {
            if conn.unsent() > 0 {
                fold(conn.last_write_progress + t);
            }
        }
    }
    next
}

/// Closes every connection whose idle or write-stall deadline has
/// passed by `now`, the end of the turn that began at `turn`. Progress
/// stamped `turn` counts as of `now`, so a turn longer than a timeout
/// does not reap the peers it served. Reaping is an immediate close — a
/// peer that earned a deadline has shown it will not make progress, so
/// there is nothing to flush to it that would not stall again.
fn reap_deadlines(
    conns: &mut [Option<Conn>],
    limits: DaemonLimits,
    metrics: &MetricsInner,
    turn: Instant,
    now: Instant,
) {
    if limits.idle_timeout.is_none() && limits.write_stall_timeout.is_none() {
        return;
    }
    for idx in 0..conns.len() {
        let Some(conn) = conns[idx].as_mut() else { continue };
        if conn.dead {
            continue;
        }
        for stamp in [&mut conn.last_activity, &mut conn.last_write_progress] {
            if *stamp == turn {
                *stamp = now;
            }
        }
        let stalled = conn.unsent() > 0
            && limits
                .write_stall_timeout
                .is_some_and(|t| now.duration_since(conn.last_write_progress) >= t);
        // A draining (closing) connection no longer reads, so only the
        // stall deadline applies to it.
        let idle = !conn.closing
            && limits
                .idle_timeout
                .is_some_and(|t| now.duration_since(conn.last_activity) >= t);
        if stalled {
            metrics.stall_reaped.fetch_add(1, Ordering::Relaxed);
        } else if idle {
            metrics.idle_reaped.fetch_add(1, Ordering::Relaxed);
        } else {
            continue;
        }
        conn.dead = true;
        settle_conn(conns, idx);
    }
}

/// Turns the loop toward shutdown: answer every request already buffered
/// (the backpressure cap is released frame by frame — drain work is
/// bounded by bytes already received), then mark every connection
/// flush-then-close. The loop stops accepting by leaving the listener out
/// of its next array.
fn begin_drain<S: Storage>(
    conns: &mut [Option<Conn>],
    server: &mut S,
    scratch: &mut Scratch,
    limits: DaemonLimits,
    metrics: &MetricsInner,
    now: Instant,
) {
    for idx in 0..conns.len() {
        let Some(conn) = conns[idx].as_mut() else { continue };
        // Un-pause repeatedly: each pass decodes buffered frames until
        // the cap re-pauses it, until the assembler holds no complete
        // frame. Everything received gets its answer queued.
        while conn.paused && !conn.dead {
            conn.paused = false;
            process_frames(conn, server, scratch, limits, metrics, now);
        }
        if !conn.dead {
            conn.closing = true;
            if conn.unsent() == 0 {
                conn.dead = true;
            } else {
                flush_conn(conn, server, scratch, limits, metrics, now);
            }
        }
        settle_conn(conns, idx);
    }
}

/// Accepts every pending connection on the ready listener; accepts over
/// [`DaemonLimits::max_connections`] are closed on the spot (the backlog
/// still drains, so the flood cannot park connections there either).
fn accept_ready(
    listener: &TcpListener,
    conns: &mut Vec<Option<Conn>>,
    limits: DaemonLimits,
    metrics: &MetricsInner,
    now: Instant,
) {
    let mut live = conns.iter().filter(|c| c.is_some()).count();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if live >= limits.max_connections {
                    metrics.accept_rejects.fetch_add(1, Ordering::Relaxed);
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                // Linear free-slot scan: connection counts here are far
                // below where a free list would matter.
                let idx = match conns.iter().position(Option::is_none) {
                    Some(idx) => idx,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                metrics.connections.fetch_add(1, Ordering::Relaxed);
                conns[idx] = Some(Conn::new(stream, now));
                live += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Reads what the socket has into the in-buffer, serving complete frames
/// as they close — until a read comes back short (the socket is empty; the
/// next bytes raise a new level-triggered event, so there is no need to
/// ask for a `WouldBlock`), the peer hangs up, or backpressure pauses the
/// connection. A read that filled all the room it was offered keeps
/// reading.
fn fill_conn<S: Storage>(
    conn: &mut Conn,
    server: &mut S,
    scratch: &mut Scratch,
    limits: DaemonLimits,
    metrics: &MetricsInner,
    now: Instant,
) {
    while !conn.paused && !conn.closing && !conn.dead {
        match conn.assembler.fill_from(&mut &conn.stream) {
            Ok(0) => {
                // Clean EOF: answer nothing further, flush what's queued.
                conn.closing = true;
                if conn.unsent() == 0 {
                    conn.dead = true;
                }
                return;
            }
            Ok(_) => {
                conn.last_activity = now;
                process_frames(conn, server, scratch, limits, metrics, now);
                if !conn.assembler.filled() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Serves the complete frames in the connection's in-buffer: parse in
/// place, dispatch, append the answer to the out-buffer under the frame's
/// request id. Stops early when the unsent bytes cross the backpressure
/// cap (leaving any further frames in the in-buffer for the resume).
fn process_frames<S: Storage>(
    conn: &mut Conn,
    server: &mut S,
    scratch: &mut Scratch,
    limits: DaemonLimits,
    metrics: &MetricsInner,
    now: Instant,
) {
    while !conn.closing && !conn.dead {
        let was_drained = conn.unsent() == 0;
        // The frame is borrowed from the in-buffer, which nothing touches
        // until the answer is complete; a violation is acted on after the
        // borrow ends. A structurally valid frame whose contents violate a
        // caller contract (e.g. a strided write with a non-multiple flat
        // length) or would blow the allocation budget is a violation too:
        // a local caller would have panicked; over the wire the daemon
        // must stay up, so the connection is dropped instead.
        let served = match conn.assembler.next_frame() {
            Ok(Some((id, payload))) => RequestView::parse(payload).and_then(|request| {
                dispatch(server, limits, &mut conn.pending, scratch, request, id, &mut conn.out)
            }),
            Ok(None) => return,
            Err(e) => Err(e),
        };
        if served.is_err() {
            return violation(conn, metrics);
        }
        if was_drained {
            // The stall clock measures from when there was first
            // something to write, not from the last time long ago the
            // out-buffer happened to be busy.
            conn.last_write_progress = now;
        }
        if conn.unsent() > limits.max_queued_bytes {
            conn.paused = true;
            metrics.read_stalls.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Marks a protocol violation: flush whatever is queued, then close.
fn violation(conn: &mut Conn, metrics: &MetricsInner) {
    metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
    conn.closing = true;
    if conn.unsent() == 0 {
        conn.dead = true;
    }
}

/// Writes the out-buffer until the socket would block or it is empty — one
/// `write` for everything a burst of pipelined requests produced.
/// Draining it resumes a backpressured connection (its buffered frames are
/// processed immediately, and anything they answer is written in the same
/// pass) and completes a closing one.
fn flush_conn<S: Storage>(
    conn: &mut Conn,
    server: &mut S,
    scratch: &mut Scratch,
    limits: DaemonLimits,
    metrics: &MetricsInner,
    now: Instant,
) {
    loop {
        while conn.unsent() > 0 {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    // Write progress doubles as peer activity: a peer
                    // that only downloads for minutes on end is alive,
                    // not idle.
                    conn.last_write_progress = now;
                    conn.last_activity = now;
                    conn.out_pos += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // Answers are only ever appended, so the written
                    // prefix is dropped here, once it outweighs what is
                    // left: each byte moves at most once.
                    if conn.out_pos >= conn.unsent().max(READ_CHUNK) {
                        conn.out.drain(..conn.out_pos);
                        conn.out_pos = 0;
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        // Drained: start over at the front, and give an outsize buffer
        // back (one huge answer must not pin its size for the life of the
        // connection).
        conn.out.clear();
        conn.out.shrink_to(READ_CHUNK);
        conn.out_pos = 0;
        if conn.closing {
            conn.dead = true;
            return;
        }
        if !conn.paused {
            return;
        }
        // Backpressure released: pick the buffered frames back up.
        conn.paused = false;
        process_frames(conn, server, scratch, limits, metrics, now);
        if conn.unsent() == 0 {
            if conn.closing {
                conn.dead = true;
            }
            return;
        }
        // New responses came out of the buffered frames — write them now.
    }
}

/// Removes the connection if it died (dropping it closes the socket).
fn settle_conn(conns: &mut [Option<Conn>], idx: usize) {
    if conns[idx].as_ref().is_some_and(|conn| conn.dead) {
        conns[idx] = None;
    }
}

/// Per-connection state of a chunked init that has not seen its `done`
/// frame: the chunk bodies as they arrived, end to end in one buffer of
/// wire bytes — read back through the parser's own `Cells` view, never a
/// value per cell — and the run's stride, its first cell's length. The
/// frame carrying `done` is not kept at all (it is fed to the store where
/// it lies), and a stream is contiguous: any other request on the
/// connection drops it.
#[derive(Debug, Default)]
struct PendingInit {
    kept: CellsBuf,
    stride: Option<usize>,
}

impl PendingInit {
    /// The run's stride once `more` joins it — `None` while it has no
    /// cell — or a violation if a cell of `more` has another length.
    fn stride_with(&self, more: Cells<'_>) -> Result<Option<usize>, WireError> {
        let mut lens = more.iter().map(<[u8]>::len);
        let stride = self.stride.or_else(|| lens.clone().next());
        if lens.any(|len| Some(len) != stride) {
            return Err(WireError::BadPayload("set-up cells differ in length"));
        }
        Ok(stride)
    }

    /// Projected arena footprint of the run with `more` joined, whose
    /// cells are `stride` long: the flat store allocates `capacity ×
    /// stride`. It also bounds what is kept here until `done`: `count × 8`
    /// bytes plus the cells' own.
    fn projected_bytes(&self, more: Cells<'_>, stride: Option<usize>) -> u64 {
        let count = (self.kept.cells().len() + more.len()) as u64;
        let stride = stride.unwrap_or(0) as u64;
        count.saturating_mul(stride.saturating_add(CELL_OVERHEAD))
    }

    /// Copies `more`, whose cells are `stride` long, out of its frame,
    /// behind what is already kept.
    fn keep(&mut self, more: Cells<'_>, stride: Option<usize>) {
        self.stride = stride;
        self.kept.push(more);
    }

    /// Set-up: the kept cells, then `last` straight from its frame, go to
    /// the store one by one in address order. Until the store has laid
    /// them into its image the database is held twice — here and there —
    /// and once when this returns.
    fn feed<S: Storage>(self, last: Cells<'_>, server: &mut S) {
        let kept = self.kept.cells();
        server.init_with(kept.len() + last.len(), |sink| {
            kept.iter().chain(last.iter()).for_each(sink)
        });
    }
}

/// Decodes a request's addresses into the loop's scratch (which keeps its
/// capacity between requests, up to a bound: one outsize list is not kept
/// for the life of the daemon).
fn load<'s>(into: &'s mut Vec<usize>, addrs: Addrs<'_>) -> &'s [usize] {
    into.clear();
    into.shrink_to(READ_CHUNK);
    into.extend(addrs.iter());
    into
}

/// Executes one request against the server and appends its framed answer
/// to `out`. `Err` means the request violated a caller contract the
/// in-process API enforces by panicking (or the daemon's allocation
/// budget); `out` is then as it was, and the event loop closes the
/// connection in response.
///
/// The loop thread owns the server outright — no locks.
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
            let stride = pending.stride_with(cells)?;
            if pending.projected_bytes(cells, stride) > limits.max_stored_bytes {
                return Err(WireError::BadPayload("allocation exceeds daemon budget"));
            }
            if done {
                std::mem::take(pending).feed(cells, server);
            } else {
                pending.keep(cells, stride);
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
            // Every cell is the stride long, so this bounds the answer:
            // one that cannot fit a frame is refused before the store is
            // touched, not after it has been copied out cell by cell.
            if addrs.len().saturating_mul(server.cell_stride() + 8) > MAX_FRAME - 9 {
                return Err(WireError::BadPayload("answer exceeds the frame cap"));
            }
            // The cells go from the store into the out-buffer, once. If the
            // walk fails the model has charged the cells it visited; their
            // bytes are rolled back and the failure is the answer.
            let mark = begin_frame(out);
            put_cells_open(out, addrs.len());
            match server
                .read_batch_with(load(&mut scratch.addrs, addrs), |_, cell| put_bytes(out, cell))
            {
                Ok(()) => return end_frame(out, mark, id),
                Err(e) => {
                    out.truncate(mark);
                    Response::Fail(e)
                }
            }
        }
        RequestView::WriteBatchStrided { addrs, flat } => {
            // The in-process API asserts these; a remote peer must not be
            // able to panic the event loop.
            if addrs.len() == 0 {
                if !flat.is_empty() {
                    return Err(WireError::BadPayload("flat bytes without addresses"));
                }
            } else if flat.len() % addrs.len() != 0 {
                return Err(WireError::BadPayload("flat length not a multiple of cell count"));
            }
            let stride = flat.len().checked_div(addrs.len()).unwrap_or(0);
            // Straight off the frame: nothing between the in-buffer and
            // the store.
            let cell = |(i, addr)| (addr, &flat[i * stride..(i + 1) * stride]);
            ok_or_fail(server.write_cells(addrs.iter().enumerate().map(cell)))
        }
        RequestView::XorCells { addrs } => {
            match server.xor_cells_into(load(&mut scratch.addrs, addrs), &mut scratch.fold) {
                Ok(()) => return frame_into(out, id, |buf| put_fold(buf, &scratch.fold)),
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
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream, Instant::now());
        let (mut server, mut scratch) = (SimServer::new(), Scratch::default());
        let metrics = MetricsInner::default();
        let mut serve = |conn: &mut Conn, client: &mut TcpStream, request: Request, id: u64| {
            client.write_all(&request.encode_framed_v2(id).unwrap()).unwrap();
            let answered = conn.out.len();
            while conn.out.len() == answered {
                fill_conn(
                    conn,
                    &mut server,
                    &mut scratch,
                    DaemonLimits::default(),
                    &metrics,
                    Instant::now(),
                );
                assert!(!conn.dead && !conn.closing);
            }
        };

        let chunk = |done| Request::InitChunk { done, cells: vec![vec![9u8; 1 << 10]; 1 << 10] };
        serve(&mut conn, &mut client, chunk(false), 1);
        serve(&mut conn, &mut client, chunk(false), 2);
        assert_eq!(conn.pending.kept.cells().len(), 2 << 10);
        serve(&mut conn, &mut client, chunk(true), 3);
        assert_eq!(conn.pending.kept.cells().len(), 0);
        assert!(conn.assembler.capacity() <= READ_CHUNK, "{}", conn.assembler.capacity());
        assert_eq!(server.capacity(), 3 << 10);
    }
}
