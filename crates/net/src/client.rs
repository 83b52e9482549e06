//! The remote storage client.
//!
//! [`RemoteServer`] speaks the [`crate::wire`] protocol over one TCP
//! connection and implements [`Storage`], so every scheme in this
//! workspace runs against a network daemon with zero call-site changes —
//! `DpRam::setup(cfg, &db, RemoteServer::connect(addr)?, &mut rng)` is the
//! whole migration. Each required `Storage` method is exactly one framed
//! request/response exchange, written once in the `impl Storage` below; in
//! particular the three data primitives (`read_batch_with`, `write_cells`,
//! `xor_cells_into`) stay single round trips no matter the batch size, so
//! the paper's round-trip accounting carries over to the wire unchanged.
//! An upload travels as `WriteBatchStrided` whichever spelling the caller
//! used: a cell is its stride (NOTES.md, entry 21), so every scheme's batch
//! has one cell length. A batch of two lengths has no frame and is not
//! sent: the client fetches the store's geometry (`Capacity`, `CellStride`)
//! over its fallible exchange and returns the model's own refusal
//! ([`check_upload`]), as an in-process server would.
//!
//! # One request in flight
//!
//! An exchange frames its request into the send buffer under a fresh id,
//! writes it, and reads the one answer, which must echo that id. No scheme
//! could use a second request in flight: each uploads what the same flight
//! downloaded, so its next request waits for an answer (NOTES.md, entries
//! 1 and 20). Ids rise per connection, so an answer with an *older* id is
//! the late answer of a request abandoned on an expired deadline, and is
//! dropped; any other id is [`WireError::UnknownRequestId`].
//!
//! # Cost accounting
//!
//! The client counts what it actually puts on the wire — framed exchanges
//! and their encoded bytes, headers included — and folds those counters
//! into the `wire_*` fields of the [`CostStats`] returned by
//! [`Storage::stats`]. The model-level fields come from the daemon, so
//! `remote.stats().sans_wire()` is bit-comparable with a local server's
//! stats; the loopback equivalence suite pins exactly that.
//!
//! # Failure model
//!
//! Model-level failures ([`ServerError`]) travel in-band and are returned
//! exactly like a local server would. A *connection* fault — the peer
//! gone, the stream cut mid-frame, a deadline expired — is infrastructure
//! failure with the application state unknown, which is what
//! [`ServerError::Interrupted`] means: the fallible `Storage` methods
//! (the three data primitives) return it, so a daemon restart fails the
//! scheme's current operation instead of aborting the process, and the
//! scheme's client state is untouched and the operation retryable once a
//! connection is back (see NOTES.md, entry 1). *Protocol violations* — a
//! corrupt response, a `Cells` response with the wrong cell count, an
//! answer under an id that was not sent — mean the peer is not a
//! conforming daemon; the trait surface panics on them. So do the metadata
//! methods with infallible signatures (`init_with`, `capacity`, `stats`,
//! …) on any wire failure. Callers that need to observe transport faults
//! in full (tests, reconnect logic) use the typed inherent surface instead
//! — [`RemoteServer::request`] / [`RemoteServer::try_call`] for any
//! [`Request`], [`RemoteServer::try_read_batch_with`] for the download
//! with its cell-count check — which returns [`RemoteError`], wire-level
//! misbehavior included ([`WireError::CellCountMismatch`],
//! [`WireError::UnknownRequestId`], …), instead of panicking.
//!
//! # Resilience
//!
//! Two opt-in layers harden a client against a faulty network. First,
//! [`RemoteServer::connect_with`] applies [`Timeouts`] — connect, read
//! and write deadlines — so no call blocks forever on a stalled peer; an
//! expired deadline is connection-fatal ([`RemoteError::TimedOut`]),
//! because a byte stream cut mid-frame cannot be resynchronized. Second,
//! [`RemoteServer::with_reconnect`] installs a [`ReconnectPolicy`]:
//! connection faults redial the same peer under capped exponential
//! backoff with deterministic jitter, then re-send the request in flight
//! if it is idempotent (a read, an XOR fold, a pure query) — so a
//! read-only workload rides out connection resets with no caller-visible
//! failure beyond latency and a bumped `wire_reconnects` counter. A
//! request that is *not* safe to replay (a write, an init, a transcript
//! take) surfaces [`RemoteError::Interrupted`] instead — mapped to
//! [`ServerError::Interrupted`] on the `Storage` surface — and the caller
//! decides whether to re-verify and re-issue: the server may or may not
//! have applied it, and the client refuses to guess.
//!
//! # Size limits
//!
//! Set-up ([`Storage::init_with`], and `init` through it) has no size
//! limit and no size-dependent path: every database streams as `InitChunk`
//! frames of about [`DEFAULT_INIT_CHUNK_BYTES`], each framed cell by cell
//! from the caller's slices and acknowledged before the next is built, so
//! the client holds one frame of it at a time whatever its size (only a
//! single cell larger than [`crate::wire::MAX_FRAME`] cannot be sent).
//! Individual *query* batches, by contrast, are bounded by
//! [`crate::wire::MAX_FRAME`] (256 MiB per frame) — chunking those would
//! break the one-round-trip-per-batch accounting the equivalence suite
//! pins, and no scheme in this workspace comes within two orders of
//! magnitude of the cap. A batch that large panics with a typed
//! [`WireError::BadLength`] message rather than degrading silently.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use dps_crypto::rng::splitmix64;
use dps_server::{check_upload, CostStats, ServerError, Storage, Transcript};

use crate::wire::{
    begin_init_chunk, end_init_chunk, frame_into, one_length, put_read_batch, put_write_cells,
    put_xor_cells, FrameAssembler, Request, Response, ResponseView, WireError, HEADER2_LEN,
    MAX_CELLS, READ_CHUNK,
};

/// A wire-level or model-level failure of a remote call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The transport or codec failed; the connection is unusable (unless
    /// a [`ReconnectPolicy`] already replaced it — then this is the error
    /// that exhausted the policy).
    Wire(WireError),
    /// A connect/read/write deadline ([`Timeouts`]) expired. The
    /// connection is unusable: a timeout can strike mid-frame, and a
    /// byte stream cut mid-frame cannot be resynchronized.
    TimedOut,
    /// The connection died while a non-idempotent request (a write, an
    /// init, a transcript take) was in flight, and a [`ReconnectPolicy`]
    /// re-established the session *without* replaying it: whether the
    /// server applied it is unknown, and blindly replaying could apply
    /// it twice. The connection is usable again; the caller decides
    /// whether to re-issue.
    Interrupted,
    /// The server executed the operation and reported a model error; the
    /// connection remains usable.
    Server(ServerError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Wire(e) => write!(f, "wire: {e}"),
            RemoteError::TimedOut => write!(f, "wire: deadline expired"),
            RemoteError::Interrupted => {
                write!(f, "wire: connection lost with a non-idempotent request in flight")
            }
            RemoteError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        match e {
            // A blocking socket under a read/write deadline reports the
            // expiry as TimedOut or WouldBlock depending on the platform.
            WireError::Io(std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) => {
                RemoteError::TimedOut
            }
            e => RemoteError::Wire(e),
        }
    }
}

/// Connect/read/write deadlines for a [`RemoteServer`] (see
/// [`RemoteServer::connect_with`]). `None` fields block indefinitely —
/// the default, matching plain [`RemoteServer::connect`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeouts {
    /// Deadline for establishing the TCP connection (initially and on
    /// every reconnect dial).
    pub connect: Option<Duration>,
    /// Deadline for each socket read while waiting on a response.
    pub read: Option<Duration>,
    /// Deadline for each socket write.
    pub write: Option<Duration>,
}

impl Timeouts {
    /// The same deadline for connect, read and write.
    pub fn all(deadline: Duration) -> Self {
        Self { connect: Some(deadline), read: Some(deadline), write: Some(deadline) }
    }
}

/// Opt-in transparent reconnection for a [`RemoteServer`] (see
/// [`RemoteServer::with_reconnect`]): when the connection faults, dial
/// the same peer up to [`ReconnectPolicy::max_attempts`] times under
/// capped exponential backoff with deterministic jitter, then re-send the
/// request in flight under its original id if it is idempotent (a read,
/// an XOR fold, a pure query). A non-idempotent request is *not*
/// re-sent; it surfaces as [`RemoteError::Interrupted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Dial attempts per outage before giving up and surfacing the
    /// original fault.
    pub max_attempts: u32,
    /// Backoff before the first dial; doubles each attempt.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Seed for the jitter: the backoff for attempt `k` lands
    /// deterministically in `[d/2, d]` where `d = min(base·2^k, max)`,
    /// so failure runs reproduce exactly while still decorrelating
    /// retries across differently seeded clients.
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            jitter_seed: 0x5EED_D1A1,
        }
    }
}

impl ReconnectPolicy {
    /// The deterministic backoff before dial `attempt` (0-based).
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let capped = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_delay);
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        let span = nanos / 2;
        if span == 0 {
            return capped;
        }
        let jitter = splitmix64(self.jitter_seed ^ (u64::from(attempt) << 32));
        Duration::from_nanos(nanos - span + jitter % (span + 1))
    }
}

/// Whether blindly re-executing `request` cannot change server state or
/// the caller-observable outcome — the requests a reconnect may replay.
/// Deliberately strict: uploads, inits, recording toggles, transcript
/// takes and stat resets all mutate something, so they are excluded even
/// where a replay would *often* be harmless. (Replaying a read does still
/// advance the server's cost counters and any active transcript; callers
/// comparing those across a faulty run must treat them as monotone rather
/// than exact.) Exhaustive, so a new request cannot be added without
/// deciding which side it is on.
fn idempotent(request: &Request) -> bool {
    match request {
        Request::Ping
        | Request::Capacity
        | Request::CellStride
        | Request::Stats
        | Request::ReadBatch { .. }
        | Request::XorCells { .. } => true,
        Request::InitChunk { .. }
        | Request::StartRecording
        | Request::TakeTranscript
        | Request::ResetStats
        | Request::WriteBatchStrided { .. } => false,
    }
}

/// A [`Storage`] backend living on the far side of a TCP connection.
///
/// See the [module docs](self) for the round-trip and failure contracts.
#[derive(Debug)]
pub struct RemoteServer {
    /// `RefCell` (not a bare stream) so a reconnect can swap in a fresh
    /// socket behind the `&self` call surface.
    stream: RefCell<TcpStream>,
    /// The receive buffer: the answer is visited where it lies. Sized by
    /// bytes received, never by what a header announces. Reset together
    /// with `stream` on reconnect, which discards any bytes of a partially
    /// received frame — a cut byte stream cannot be resumed.
    rx: RefCell<FrameAssembler>,
    /// The send buffer every request is framed in, kept between requests.
    /// An idempotent request in flight stays in it until its answer is
    /// read, so a reconnect re-sends it from here.
    tx: RefCell<Vec<u8>>,
    peer: SocketAddr,
    timeouts: Timeouts,
    reconnect: Option<ReconnectPolicy>,
    /// An `InitChunk` frame of set-up is shipped once it holds this many
    /// bytes (see [`RemoteServer::with_init_chunk_bytes`]).
    init_chunk_bytes: usize,
    // Interior mutability because half the `Storage` surface is `&self`
    // (`stats`, `capacity`, …) but still performs an exchange.
    // `Cell`/`RefCell` are `Send` (the trait's bound) without the cost of
    // atomics; the connection itself serializes all exchanges anyway.
    /// Next request id to assign: ids rise, so an older one in an answer
    /// belongs to a request already given up on.
    next_id: Cell<u64>,
    wire_round_trips: Cell<u64>,
    wire_bytes_up: Cell<u64>,
    wire_bytes_down: Cell<u64>,
    wire_reconnects: Cell<u64>,
}

/// The request in flight: its id, and whether a reconnect may re-send it
/// ([`idempotent`]'s verdict).
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    replayable: bool,
}

/// The size at which set-up ships an `InitChunk` frame: 1 MiB. The frame
/// is all of the database the client holds at once, and the unit in which
/// the daemon receives, keeps and later releases it — large enough that
/// its round trip is noise beside copying it, small enough to be neither
/// side's high-water mark. (Shrinking the frame is not where set-up's
/// memory went — NOTES.md, entry 11.)
pub const DEFAULT_INIT_CHUNK_BYTES: usize = 1 << 20;

/// Maps a remote result onto the `Storage` error surface: model errors
/// pass through; a request interrupted by a reconnect, an expired
/// deadline and a cut connection all map to the typed
/// [`ServerError::Interrupted`] (application state unknown; the scheme
/// decides whether to re-issue); protocol violations panic (see the
/// module docs).
fn model<T>(result: Result<T, RemoteError>) -> Result<T, ServerError> {
    match result {
        Ok(v) => Ok(v),
        Err(RemoteError::Server(e)) => Err(e),
        Err(RemoteError::Interrupted | RemoteError::TimedOut) => Err(ServerError::Interrupted),
        Err(RemoteError::Wire(e)) if RemoteServer::connection_fault(&e) => {
            Err(ServerError::Interrupted)
        }
        Err(RemoteError::Wire(e)) => panic!("dps_net wire failure: {e}"),
    }
}

/// Establishes one configured socket to `addr`: nodelay, deadlines
/// applied.
fn dial(addr: &SocketAddr, timeouts: &Timeouts) -> std::io::Result<TcpStream> {
    let stream = match timeouts.connect {
        Some(deadline) => TcpStream::connect_timeout(addr, deadline)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeouts.read)?;
    stream.set_write_timeout(timeouts.write)?;
    Ok(stream)
}

impl RemoteServer {
    /// Connects to a [`crate::NetDaemon`] (or anything speaking the same
    /// protocol) at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, Timeouts::default())
    }

    /// [`RemoteServer::connect`] with connect/read/write deadlines. Each
    /// deadline expiry on an established connection surfaces as
    /// [`RemoteError::TimedOut`] ([`ServerError::Interrupted`] on the
    /// `Storage` data operations); an expired *connect* deadline surfaces
    /// here as `io::ErrorKind::TimedOut`.
    pub fn connect_with(addr: impl ToSocketAddrs, timeouts: Timeouts) -> std::io::Result<Self> {
        let mut last_err = None;
        let mut dialed = None;
        for candidate in addr.to_socket_addrs()? {
            match dial(&candidate, &timeouts) {
                Ok(stream) => {
                    dialed = Some(stream);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(stream) = dialed else {
            return Err(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
            }));
        };
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream: RefCell::new(stream),
            rx: RefCell::new(FrameAssembler::new()),
            tx: RefCell::new(Vec::new()),
            peer,
            timeouts,
            reconnect: None,
            init_chunk_bytes: DEFAULT_INIT_CHUNK_BYTES,
            next_id: Cell::new(1),
            wire_round_trips: Cell::new(0),
            wire_bytes_up: Cell::new(0),
            wire_bytes_down: Cell::new(0),
            wire_reconnects: Cell::new(0),
        })
    }

    /// Opts in to transparent reconnection under `policy` (see
    /// [`ReconnectPolicy`]): connection-level faults — the socket
    /// erroring, the peer vanishing mid-frame, a deadline expiring — tear
    /// the session down, redial the same peer under backoff, and re-send
    /// the request in flight if it is idempotent. Protocol violations
    /// (corrupt magic, unknown ids) still surface immediately:
    /// reconnecting cannot repair a peer that speaks the protocol wrongly.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Test hook: sets the size at which set-up ships an `InitChunk` frame
    /// (a frame always takes at least one cell, so `1` forces one cell per
    /// frame). [`DEFAULT_INIT_CHUNK_BYTES`] suits any database.
    pub fn with_init_chunk_bytes(mut self, bytes: usize) -> Self {
        self.init_chunk_bytes = bytes.max(1);
        self
    }

    /// The daemon's address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Round-trips the connection without touching any cell.
    pub fn ping(&self) -> Result<(), RemoteError> {
        self.ask(&Request::Ping, |response| match response {
            ResponseView::Pong => Ok(()),
            other => Err(unexpected(&other)),
        })
    }

    /// The client-side wire counters alone (every model-level field
    /// zero): framed exchanges and framed bytes since construction or the
    /// last [`Storage::reset_stats`]. No exchange is performed.
    pub fn wire_stats(&self) -> CostStats {
        CostStats {
            wire_round_trips: self.wire_round_trips.get(),
            wire_bytes_up: self.wire_bytes_up.get(),
            wire_bytes_down: self.wire_bytes_down.get(),
            wire_reconnects: self.wire_reconnects.get(),
            ..CostStats::default()
        }
    }

    // ---- recovery ------------------------------------------------------

    /// Whether a reconnect could plausibly cure `fault`: socket-level
    /// errors and cut streams, yes; protocol violations, never.
    fn connection_fault(fault: &WireError) -> bool {
        matches!(fault, WireError::Io(_) | WireError::Truncated { .. })
    }

    /// Handles one connection outage while `pending` is in flight (framed
    /// in `framed` if it is replayable): if a [`ReconnectPolicy`] is set
    /// and `fault` is a connection-level fault, redials under backoff and
    /// re-sends the request if it is replayable. Returns `Ok(())` once the
    /// request is on the replacement connection;
    /// [`RemoteError::Interrupted`] once the connection is back without
    /// it; or the classified original fault if recovery is off the table
    /// or every dial attempt failed.
    fn recover(
        &self,
        fault: WireError,
        framed: &[u8],
        pending: Pending,
    ) -> Result<(), RemoteError> {
        let classified = RemoteError::from(fault.clone());
        let Some(policy) = self.reconnect else { return Err(classified) };
        if !Self::connection_fault(&fault) {
            return Err(classified);
        }
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(policy.delay_for(attempt));
            let Ok(stream) = dial(&self.peer, &self.timeouts) else { continue };
            *self.stream.borrow_mut() = stream;
            *self.rx.borrow_mut() = FrameAssembler::new();
            self.wire_reconnects.set(self.wire_reconnects.get() + 1);
            if !pending.replayable {
                return Err(RemoteError::Interrupted);
            }
            // A replacement that dies mid-replay burns another attempt:
            // sending an idempotent request twice is safe.
            if self.send(framed).is_ok() {
                return Ok(());
            }
        }
        Err(classified)
    }

    /// Dial attempts this client may spend per outage *episode* — and,
    /// by reuse, outage episodes one call may survive before giving up.
    fn recovery_budget(&self) -> u32 {
        self.reconnect.map_or(0, |p| p.max_attempts)
    }

    /// Writes one pre-framed buffer, counting its bytes on success.
    fn send(&self, framed: &[u8]) -> Result<(), WireError> {
        self.stream.borrow_mut().write_all(framed)?;
        self.wire_bytes_up
            .set(self.wire_bytes_up.get() + framed.len() as u64);
        Ok(())
    }

    // ---- the exchange --------------------------------------------------

    /// The one exchange every request goes through: `encode` finishes a
    /// request frame in `tx` under a fresh id, the frame is written, and
    /// the answer is handed to `take` where it lies in the receive buffer.
    /// `replayable` is [`idempotent`]'s verdict on the request. `tx` comes
    /// back empty, and an outsize one is given back.
    ///
    /// `take` runs with the receive buffer borrowed: it must not call
    /// back into this client.
    fn exchange_in<T>(
        &self,
        tx: &mut Vec<u8>,
        replayable: bool,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> Result<(), WireError>,
        take: impl FnOnce(&[u8]) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        let pending = Pending { id: self.next_id.get(), replayable };
        self.next_id.set(pending.id + 1);
        let answer = encode(pending.id, tx)
            .map_err(RemoteError::from)
            .and_then(|()| self.round_trip(tx, pending, take));
        tx.clear();
        tx.shrink_to(READ_CHUNK);
        answer
    }

    /// Sends the frame in `tx` and reads frames until the answer to
    /// `pending` arrives, recovering from connection faults as far as the
    /// policy allows. An answer under an older id is a late one to a
    /// request abandoned on an expired deadline, and is dropped; an answer
    /// under a newer id is a protocol violation.
    fn round_trip<T>(
        &self,
        tx: &mut Vec<u8>,
        pending: Pending,
        take: impl FnOnce(&[u8]) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        let mut fault = self.send(tx).err();
        if !pending.replayable {
            // Nothing re-sends it, so its buffer goes back before the
            // wait: set-up's 1 MiB frames are freed while the daemon lays
            // them out.
            tx.clear();
            tx.shrink_to(READ_CHUNK);
        }
        let mut episodes = 0u32;
        loop {
            if let Some(cut) = fault.take() {
                episodes += 1;
                if episodes > self.recovery_budget() {
                    return Err(cut.into());
                }
                self.recover(cut, tx, pending)?;
            }
            let mut rx = self.rx.borrow_mut();
            match rx.next_frame() {
                Ok(Some((id, payload))) => {
                    self.wire_round_trips.set(self.wire_round_trips.get() + 1);
                    self.wire_bytes_down
                        .set(self.wire_bytes_down.get() + (HEADER2_LEN + payload.len()) as u64);
                    if id == pending.id {
                        return take(payload);
                    }
                    if id > pending.id {
                        return Err(WireError::UnknownRequestId(id).into());
                    }
                }
                // The buffer grows with the bytes that arrive, never to
                // the length a header announces.
                Ok(None) => match rx.fill_from(&mut &*self.stream.borrow()) {
                    Ok(0) => fault = Some(rx.truncated()),
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => fault = Some(e.into()),
                },
                Err(e) => fault = Some(e),
            }
        }
    }

    /// [`RemoteServer::exchange_in`] on the client's own send buffer, the
    /// answer parsed where it lies: a model failure (`Fail`) never reaches
    /// `take`.
    fn call<T>(
        &self,
        replayable: bool,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> Result<(), WireError>,
        take: impl FnOnce(ResponseView<'_>) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        let tx = &mut *self.tx.borrow_mut();
        tx.clear();
        self.exchange_in(tx, replayable, encode, |payload| match ResponseView::parse(payload)? {
            ResponseView::Fail(e) => Err(RemoteError::Server(e)),
            response => take(response),
        })
    }

    /// Performs one framed exchange, returning the raw response payload.
    /// The wire counters are exact by construction: one fault-free
    /// `try_call`, one wire round trip.
    pub fn try_call(&self, request: &Request) -> Result<Vec<u8>, RemoteError> {
        let tx = &mut *self.tx.borrow_mut();
        tx.clear();
        let encode = |id, out: &mut Vec<u8>| request.encode_framed_into(id, out);
        self.exchange_in(tx, idempotent(request), encode, |payload| Ok(payload.to_vec()))
    }

    /// [`RemoteServer::try_call`] plus response decoding, with in-band
    /// server failures separated from wire failures. A `Cells` answer is
    /// owned only once its count is the one the request asked for — one
    /// cell per address of a `ReadBatch`, none for any other request — and
    /// is [`WireError::CellCountMismatch`] otherwise: what an answer makes
    /// this side allocate is what this side asked for.
    pub fn request(&self, request: &Request) -> Result<Response, RemoteError> {
        let asked = match request {
            Request::ReadBatch { addrs } => addrs.len(),
            _ => 0,
        };
        self.ask(request, |response| match response {
            ResponseView::Cells(cells) if cells.n != asked => {
                Err(WireError::CellCountMismatch { got: cells.n, expected: asked }.into())
            }
            response => Ok(response.into_owned()),
        })
    }

    /// [`RemoteServer::call`] of an owned `request`.
    fn ask<T>(
        &self,
        request: &Request,
        take: impl FnOnce(ResponseView<'_>) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        self.call(idempotent(request), |id, tx| request.encode_framed_into(id, tx), take)
    }

    /// One exchange of a hot request, borrowed on both sides: `body`
    /// writes the request straight from the caller's slices into the send
    /// buffer (through the encoders the owned [`Request`] uses), and
    /// `take` reads the answer in the receive buffer. A model failure
    /// (`Fail`) never reaches `take`. `replayable` is [`idempotent`]'s
    /// verdict on the request `body` writes.
    fn exchange<T>(
        &self,
        replayable: bool,
        body: impl FnOnce(&mut Vec<u8>),
        take: impl FnOnce(ResponseView<'_>) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        self.call(
            replayable,
            |id, tx| {
                frame_into(tx, id, |buf| {
                    body(buf);
                    Ok(())
                })
            },
            take,
        )
    }

    fn expect_ok(&self, request: &Request) -> Result<(), RemoteError> {
        self.ask(request, |response| match response {
            ResponseView::Ok => Ok(()),
            other => Err(unexpected(&other)),
        })
    }

    fn expect_number(&self, request: &Request) -> Result<u64, RemoteError> {
        self.ask(request, |response| match response {
            ResponseView::Number(v) => Ok(v),
            other => Err(unexpected(&other)),
        })
    }

    /// [`Storage::init_with`] as frames. The sink appends each cell's bytes
    /// to an `InitChunk` frame open in the send buffer — the one copy this
    /// side of the wire — and a frame that has reached `init_chunk_bytes`
    /// (or [`MAX_CELLS`]) is shipped, and acknowledged, before the next cell
    /// goes in: no frame exceeds the bound by more than one cell. A frame
    /// states its first cell's length as the stride of all, so its size is
    /// known there and its buffer reserved once, exactly (NOTES.md, entries
    /// 21 and 29); a cell of another length opens a frame of its own, which
    /// the daemon refuses. The last frame carries `done` (an empty database
    /// is that frame alone). The sink cannot fail, so the first failure is
    /// latched: the cells after it are dropped, nothing more is sent, and
    /// the caller gets the error once the producer returns. A producer that
    /// miscounted panics before `done` is sent, so the daemon keeps what it
    /// had.
    fn send_init(
        &self,
        capacity: usize,
        produce: impl FnOnce(&mut dyn FnMut(&[u8])),
    ) -> Result<(), RemoteError> {
        let tx = &mut *self.tx.borrow_mut();
        begin_init_chunk(tx);
        let (mut shape, mut total, mut sent) = ((0usize, 0usize), 0usize, Ok(()));
        produce(&mut |cell| {
            let (cells, stride) = shape;
            let full = tx.len() >= self.init_chunk_bytes || cells == MAX_CELLS;
            if sent.is_ok() && cells > 0 && (full || cell.len() != stride) {
                sent = self.ship_init_chunk(tx, shape, false);
                begin_init_chunk(tx);
                shape.0 = 0;
            }
            if sent.is_ok() {
                if shape.0 == 0 {
                    // As many cells as reach the bound, or as remain.
                    shape.1 = cell.len();
                    let fit = self.init_chunk_bytes.saturating_sub(tx.len());
                    let left = capacity.saturating_sub(total).max(1);
                    tx.reserve_exact(fit.div_ceil(shape.1.max(1)).clamp(1, left) * shape.1);
                }
                tx.extend_from_slice(cell);
                shape.0 += 1;
            }
            total += 1;
        });
        assert_eq!(total, capacity, "set-up produced a different number of cells");
        let done = sent.and_then(|()| self.ship_init_chunk(tx, shape, true));
        tx.clear();
        tx.shrink_to(READ_CHUNK);
        done
    }

    /// Seals the `InitChunk` frame open in `tx` (`shape.0` cells of
    /// `shape.1` bytes), sends it and waits for its `Ok`; `tx` comes back empty.
    fn ship_init_chunk(
        &self,
        tx: &mut Vec<u8>,
        shape: (usize, usize),
        done: bool,
    ) -> Result<(), RemoteError> {
        self.exchange_in(
            tx,
            false,
            |id, tx| end_init_chunk(tx, id, done, shape),
            |payload| match ResponseView::parse(payload)? {
                ResponseView::Ok => Ok(()),
                ResponseView::Fail(e) => Err(RemoteError::Server(e)),
                other => Err(unexpected(&other)),
            },
        )
    }

    /// The download hot path with its failures typed: a response with the
    /// wrong cell count comes back as [`WireError::CellCountMismatch`],
    /// and no cell of a malformed or miscounted response is visited. The
    /// request is framed from `addrs` and the cells are visited in the
    /// receive buffer — nothing is copied on the way in or out — so
    /// `visit` must not call back into this client.
    pub fn try_read_batch_with(
        &self,
        addrs: &[usize],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), RemoteError> {
        self.exchange(
            true,
            |buf| put_read_batch(buf, addrs),
            |response| match response {
                // The count check keeps the Storage contract honest (one
                // visit per requested address, in order) even against a
                // non-conforming peer — a broken wire must never silently
                // fabricate or skip cells.
                ResponseView::Cells(cells) if cells.n != addrs.len() => {
                    Err(WireError::CellCountMismatch { got: cells.n, expected: addrs.len() }.into())
                }
                ResponseView::Cells(cells) => {
                    cells.iter().enumerate().for_each(|(i, cell)| visit(i, cell));
                    Ok(())
                }
                other => Err(unexpected(&other)),
            },
        )
    }

    /// The answer to an upload whose cells differ in length, which no frame
    /// carries: the model's refusal of it ([`check_upload`]) under the
    /// store's geometry, fetched over the fallible exchange.
    fn refuse_unframed<'a>(
        &self,
        cells: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), RemoteError> {
        let capacity = self.expect_number(&Request::Capacity)? as usize;
        let stride = self.expect_number(&Request::CellStride)? as usize;
        match check_upload(capacity, stride, cells) {
            Err(refused) => Err(RemoteError::Server(refused)),
            Ok(()) => unreachable!("cells of two lengths are not all the stride's"),
        }
    }

    /// [`RemoteServer::try_read_batch_with`], owning copies.
    pub fn try_read_batch(&self, addrs: &[usize]) -> Result<Vec<Vec<u8>>, RemoteError> {
        let mut out = Vec::with_capacity(addrs.len());
        self.try_read_batch_with(addrs, |_, cell| out.push(cell.to_vec()))?;
        Ok(out)
    }
}

/// "The response kind was wrong": a protocol violation, named from the
/// answer where it lies — nothing of it is copied.
fn unexpected(response: &ResponseView<'_>) -> RemoteError {
    WireError::BadPayload(match response {
        ResponseView::Ok => "unexpected Ok response",
        ResponseView::Pong => "unexpected Pong response",
        ResponseView::Number(_) => "unexpected Number response",
        ResponseView::Stats(_) => "unexpected Stats response",
        ResponseView::TranscriptData(_) => "unexpected Transcript response",
        ResponseView::Cells(_) => "unexpected Cells response",
        ResponseView::Bytes(_) => "unexpected Bytes response",
        ResponseView::Fail(_) => "unexpected Fail response",
    })
    .into()
}

/// A set-up or bookkeeping exchange on the `Storage` surface, whose
/// signature has no error to return: any failure panics (module docs).
fn infallible<T>(what: &str, result: Result<T, RemoteError>) -> T {
    model(result).unwrap_or_else(|e| panic!("{what} is infallible: {e}"))
}

/// Each method is one framed exchange, its failures mapped as the module
/// docs' failure model says.
impl Storage for RemoteServer {
    /// Uncharged setup however many frames it takes: model stats and
    /// transcript are untouched; only the wire counters see the frames.
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        infallible("init", self.send_init(capacity, produce));
    }

    fn capacity(&self) -> usize {
        infallible("capacity", self.expect_number(&Request::Capacity)) as usize
    }

    fn cell_stride(&self) -> usize {
        infallible("cell_stride", self.expect_number(&Request::CellStride)) as usize
    }

    fn start_recording(&mut self) {
        infallible("start_recording", self.expect_ok(&Request::StartRecording));
    }

    fn take_transcript(&mut self) -> Transcript {
        let taken = self.ask(&Request::TakeTranscript, |response| match response {
            ResponseView::TranscriptData(t) => Ok(t),
            other => Err(unexpected(&other)),
        });
        infallible("take_transcript", taken)
    }

    /// Server-side model counters plus this client's wire counters (the
    /// stats exchange itself included).
    fn stats(&self) -> CostStats {
        let stats = self.ask(&Request::Stats, |response| match response {
            ResponseView::Stats(s) => Ok(s.plus(&self.wire_stats())),
            other => Err(unexpected(&other)),
        });
        infallible("stats", stats)
    }

    /// Wire counters restart *after* the reset exchange, so they count
    /// exchanges since the reset — mirroring the server-side counters.
    fn reset_stats(&mut self) {
        infallible("reset_stats", self.expect_ok(&Request::ResetStats));
        self.wire_round_trips.set(0);
        self.wire_bytes_up.set(0);
        self.wire_bytes_down.set(0);
        self.wire_reconnects.set(0);
    }

    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        model(self.try_read_batch_with(addrs, visit))
    }

    /// One frame whichever spelling the caller used — the strided one,
    /// written from the caller's slices into the send buffer, once — or, for
    /// cells of two lengths, none and the model's refusal (module docs).
    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError> {
        let Some(shape) = one_length(cells.clone()) else {
            return model(self.refuse_unframed(cells));
        };
        model(self.exchange(
            false,
            |buf| put_write_cells(buf, shape, cells),
            |response| match response {
                ResponseView::Ok => Ok(()),
                other => Err(unexpected(&other)),
            },
        ))
    }

    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        model(self.exchange(
            true,
            |buf| put_xor_cells(buf, addrs),
            |response| match response {
                ResponseView::Bytes(fold) => {
                    acc.clear();
                    acc.extend_from_slice(fold);
                    Ok(())
                }
                other => Err(unexpected(&other)),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_v2, read_frame_v2, MAX_FRAME};

    /// The receive buffer grows with the bytes received — at most one
    /// growth step ahead — never to the length a header announces: a
    /// hostile 16-byte prefix claiming [`MAX_FRAME`] costs a few KiB.
    #[test]
    fn a_hostile_length_prefix_does_not_size_the_receive_buffer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let (id, _) = read_frame_v2(&mut stream).unwrap().expect("request");
            let mut bytes = frame_v2(id, &[0x8A; 10]).unwrap();
            bytes[4..8].copy_from_slice(&(MAX_FRAME as u32).to_le_bytes());
            stream.write_all(&bytes).unwrap();
        });
        let remote = RemoteServer::connect(addr).unwrap();
        assert_eq!(
            remote.try_call(&Request::ReadBatch { addrs: vec![0] }),
            Err(RemoteError::Wire(WireError::Truncated { expected: MAX_FRAME, got: 10 }))
        );
        assert!(remote.rx.borrow().capacity() <= 2 * READ_CHUNK);
        peer.join().unwrap();
    }

    /// Set-up crosses the wire in frames of the bound plus at most one
    /// cell — the last one carrying `done` — each built in a buffer of
    /// exactly that size, and leaves both of the client's buffers at their
    /// idle size.
    #[test]
    fn set_up_ships_bounded_frames_and_gives_its_buffers_back() {
        const CELL: usize = 1000;
        const CELLS: usize = 3 * 1024 + 5;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut frames = Vec::new();
            while let Some((id, payload)) = read_frame_v2(&mut stream).unwrap() {
                let Request::InitChunk { done, cells } = Request::decode(&payload).unwrap() else {
                    panic!("set-up sends InitChunk frames only")
                };
                frames.push((payload.len(), done, cells.len()));
                stream
                    .write_all(&Response::Ok.encode_framed_v2(id).unwrap())
                    .unwrap();
            }
            frames
        });
        let mut remote = RemoteServer::connect(addr).unwrap();
        let cell = [0x5Au8; CELL];
        remote.init_with(CELLS, |sink| (0..CELLS).for_each(|_| sink(&cell)));
        assert!(remote.tx.borrow().capacity() <= READ_CHUNK);
        assert!(remote.rx.borrow().capacity() <= READ_CHUNK);
        drop(remote);

        let frames = peer.join().unwrap();
        assert_eq!(frames.len(), 3, "{frames:?}");
        assert_eq!(frames.iter().map(|f| f.2).sum::<usize>(), CELLS);
        for (i, &(len, done, _)) in frames.iter().enumerate() {
            assert!(len <= DEFAULT_INIT_CHUNK_BYTES + CELL, "frame {i} is {len} bytes");
            assert_eq!(done, i == 2, "only the last frame carries done");
        }
    }
}
