//! The length-prefixed binary wire protocol.
//!
//! Every frame ("DPS2") carries a `request_id` in its header, so a client
//! may keep many tagged requests in flight on one connection
//! (*pipelining*); the server echoes the id on the matching response, and
//! responses may be consumed in any order:
//!
//! ```text
//! +----------------+----------------+--------------------+-----------+----------------+
//! | magic (u32 LE) |  len (u32 LE)  | request_id (u64 LE)| opcode u8 | body (len-1 B) |
//! +----------------+----------------+--------------------+-----------+----------------+
//! |<------------------ 16-byte header ----------------->|<---- payload (len B) ----->|
//! ```
//!
//! A stream that opens with any other magic is not this protocol and is
//! rejected at its first four bytes ([`WireError::BadMagic`]) — the
//! retired one-in-flight framing with its 8-byte header included, which no
//! client has dialled since pipelining. `len` counts the payload bytes
//! (opcode included) and is capped at [`MAX_FRAME`]; a peer announcing
//! more is rejected *before* any allocation, so a corrupt or hostile
//! length prefix cannot balloon memory. (Requests whose *execution* would
//! allocate far beyond their encoded size — `init_empty` capacities,
//! flat-arena stride amplification — are bounded separately by
//! [`crate::DaemonLimits`].) All integers are little-endian; addresses
//! travel as `u64` and are checked back into `usize` on decode. A
//! [`Request`] frame carries one [`Storage`](dps_server::Storage)
//! operation — batch reads, strided batch writes and XOR partials each fit
//! in a single frame, which is what keeps every batch operation a single
//! round trip on the wire.
//!
//! Encoding is hand-rolled (no serde in this offline workspace) but
//! property-pinned: `decode(encode(x)) == x` for arbitrary requests and
//! responses, and corrupt headers (bad magic, oversized or truncated
//! lengths, unknown opcodes, trailing bytes) are rejected with a typed
//! [`WireError`] — see `tests/wire_failures.rs`.

use std::io::Read;

use dps_server::{AccessEvent, CostStats, ServerError, Transcript};

/// Frame magic: `"DPS2"` little-endian. A connection that opens with
/// anything else is dropped at the first header.
pub const MAGIC2: u32 = u32::from_le_bytes(*b"DPS2");

/// Bytes of frame header (magic + payload length + request id).
pub const HEADER2_LEN: usize = 16;

/// Maximum payload bytes per frame (256 MiB). Caps what a length prefix
/// can make the receiver allocate; large databases still fit one `Init`
/// frame comfortably.
pub const MAX_FRAME: usize = 1 << 28;

/// Errors raised by the frame codec and message (de)serialization.
///
/// Carries [`std::io::ErrorKind`] rather than [`std::io::Error`] so the
/// type stays `Clone + PartialEq` for assertions in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed (or a buffer ended) in the middle of a frame.
    Truncated {
        /// Bytes the decoder still needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The frame header did not start with [`MAGIC2`].
    BadMagic {
        /// The four bytes actually found.
        found: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME`] (or is zero).
    BadLength {
        /// The announced payload length.
        len: u64,
    },
    /// The payload's first byte is not a known opcode.
    UnknownOpcode(u8),
    /// The body is structurally invalid for its opcode.
    BadPayload(&'static str),
    /// A `Cells` response carried the wrong number of cells for the batch
    /// that was requested — a non-conforming peer, surfaced typed on the
    /// fallible client paths (the infallible [`Storage`](dps_server::Storage)
    /// surface panics with it instead).
    CellCountMismatch {
        /// Cells the peer answered with.
        got: usize,
        /// Cells the request asked for.
        expected: usize,
    },
    /// A v2 response carried a request id that matches no in-flight
    /// request on this connection.
    UnknownRequestId(u64),
    /// The client's out-of-order response stash hit its frame or byte
    /// cap: the peer answered so far ahead of the tickets being redeemed
    /// that buffering any more would grow without bound. See
    /// `RemoteServer::with_stash_limits`.
    StashOverflow {
        /// Stashed response frames at the time of the overflow.
        frames: usize,
        /// Stashed response bytes at the time of the overflow.
        bytes: usize,
    },
    /// The underlying socket failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            WireError::BadLength { len } => {
                write!(f, "bad frame length {len} (max {MAX_FRAME})")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            WireError::CellCountMismatch { got, expected } => {
                write!(f, "cell count mismatch: got {got}, requested {expected}")
            }
            WireError::UnknownRequestId(id) => {
                write!(f, "response id {id} matches no in-flight request")
            }
            WireError::StashOverflow { frames, bytes } => {
                write!(f, "response stash overflow: {frames} frames / {bytes} bytes unclaimed")
            }
            WireError::Io(kind) => write!(f, "socket error: {kind}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

// ---- Frame layer -------------------------------------------------------

/// Wraps an encoded payload (opcode + body) in a frame header tagged with
/// `id`.
///
/// Returns [`WireError::BadLength`] when the payload is empty or exceeds
/// [`MAX_FRAME`].
pub fn frame_v2(id: u64, payload: &[u8]) -> Result<Vec<u8>, WireError> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(WireError::BadLength { len: payload.len() as u64 });
    }
    let mut out = Vec::with_capacity(HEADER2_LEN + payload.len());
    out.extend_from_slice(&MAGIC2.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Fills in the frame header of a buffer whose first [`HEADER2_LEN`]
/// bytes were reserved by the caller and whose remainder is the payload —
/// the in-place twin of [`frame_v2`]: one allocation, no payload copy,
/// what [`Request::encode_framed_v2`]/[`Response::encode_framed_v2`] use
/// on the hot path.
pub fn seal_frame_v2(buf: &mut [u8], id: u64) -> Result<(), WireError> {
    let len = buf.len().saturating_sub(HEADER2_LEN);
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::BadLength { len: len as u64 });
    }
    buf[0..4].copy_from_slice(&MAGIC2.to_le_bytes());
    buf[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&id.to_le_bytes());
    Ok(())
}

/// Reads one frame, returning `(request_id, payload)`. `Ok(None)` means
/// the peer closed cleanly *between* frames; closing mid-frame is
/// [`WireError::Truncated`].
pub fn read_frame_v2(r: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>, WireError> {
    let mut header = [0u8; HEADER2_LEN];
    // Validate magic and length as soon as the first 8 bytes are in, so a
    // foreign or corrupt header is `BadMagic` even when the peer sends
    // fewer than 16 bytes total.
    let mut filled = 0;
    while filled < 8 {
        let n = r.read(&mut header[filled..8])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(WireError::Truncated { expected: HEADER2_LEN, got: filled });
        }
        filled += n;
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC2 {
        return Err(WireError::BadMagic { found: magic });
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::BadLength { len: len as u64 });
    }
    while filled < HEADER2_LEN {
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            return Err(WireError::Truncated { expected: HEADER2_LEN, got: filled });
        }
        filled += n;
    }
    let id = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut payload[filled..])?;
        if n == 0 {
            return Err(WireError::Truncated { expected: len, got: filled });
        }
        filled += n;
    }
    Ok(Some((id, payload)))
}

/// One complete frame pulled out of a [`FrameAssembler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// The request id to echo on the response.
    pub id: u64,
    /// The encoded payload (opcode + body).
    pub payload: Vec<u8>,
}

/// Incremental frame decoder for readiness-based I/O: bytes arrive in
/// arbitrary slices ([`FrameAssembler::push`]), complete frames come out
/// ([`FrameAssembler::next_frame`]) as soon as they are whole.
///
/// Corrupt headers are rejected as soon as the header bytes are present:
/// a bad magic or an oversized length prefix fails *before* the payload
/// arrives, so a hostile peer cannot make the assembler buffer toward a
/// bogus length.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    start: usize,
}

impl FrameAssembler {
    /// A fresh assembler with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet consumed by a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pulls the next complete frame, if the buffered bytes hold one.
    /// `Ok(None)` means "need more bytes"; errors are unrecoverable for
    /// the stream (there is no way to resynchronize a corrupt framing).
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes"));
        if magic != MAGIC2 {
            return Err(WireError::BadMagic { found: magic });
        }
        if avail.len() < 8 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_FRAME {
            return Err(WireError::BadLength { len: len as u64 });
        }
        if avail.len() < HEADER2_LEN + len {
            return Ok(None);
        }
        let id = u64::from_le_bytes(avail[8..16].try_into().expect("8 bytes"));
        let frame = WireFrame { id, payload: avail[HEADER2_LEN..HEADER2_LEN + len].to_vec() };
        self.start += HEADER2_LEN + len;
        // Compact: cheap when fully drained, bounded otherwise.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

// ---- Body primitives ---------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_addrs(buf: &mut Vec<u8>, addrs: &[usize]) {
    put_u64(buf, addrs.len() as u64);
    for &a in addrs {
        put_u64(buf, a as u64);
    }
}

fn put_cells(buf: &mut Vec<u8>, cells: &[Vec<u8>]) {
    put_u64(buf, cells.len() as u64);
    for cell in cells {
        put_bytes(buf, cell);
    }
}

fn put_writes(buf: &mut Vec<u8>, writes: &[(usize, Vec<u8>)]) {
    put_u64(buf, writes.len() as u64);
    for (addr, cell) in writes {
        put_u64(buf, *addr as u64);
        put_bytes(buf, cell);
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &CostStats) {
    for v in [
        s.downloads,
        s.uploads,
        s.computed,
        s.bytes_down,
        s.bytes_up,
        s.round_trips,
        s.wire_round_trips,
        s.wire_bytes_up,
        s.wire_bytes_down,
        s.wire_reconnects,
        s.wire_inflight_max,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
    ] {
        put_u64(buf, v);
    }
}

fn put_transcript(buf: &mut Vec<u8>, t: &Transcript) {
    put_u64(buf, t.round_trips() as u64);
    for batch in t.batches() {
        put_u64(buf, batch.len() as u64);
        for event in batch {
            let (tag, addr): (u8, usize) = match *event {
                AccessEvent::Download(a) => (0, a),
                AccessEvent::Upload(a) => (1, a),
                AccessEvent::Compute(a) => (2, a),
            };
            buf.push(tag);
            put_u64(buf, addr as u64);
        }
    }
}

/// A bounds-checked cursor over a received body.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated { expected: n, got: self.buf.len() });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A `u64` that must fit a `usize` (addresses, counts).
    fn size(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::BadPayload("value overflows usize"))
    }

    /// A count that must be plausible for the bytes remaining (each
    /// element needs at least `min_elem_bytes`), so a corrupt count can't
    /// trigger a huge allocation before the body runs dry.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.size()?;
        if n > self.buf.len() / min_elem_bytes.max(1) {
            return Err(WireError::BadPayload("count exceeds remaining body"));
        }
        Ok(n)
    }

    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.count(1)?;
        self.take(len)
    }

    fn addrs(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.size()?);
        }
        Ok(out)
    }

    fn cells(&mut self) -> Result<Vec<Vec<u8>>, WireError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.bytes()?.to_vec());
        }
        Ok(out)
    }

    fn writes(&mut self) -> Result<Vec<(usize, Vec<u8>)>, WireError> {
        let n = self.count(16)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let addr = self.size()?;
            out.push((addr, self.bytes()?.to_vec()));
        }
        Ok(out)
    }

    fn stats(&mut self) -> Result<CostStats, WireError> {
        Ok(CostStats {
            downloads: self.u64()?,
            uploads: self.u64()?,
            computed: self.u64()?,
            bytes_down: self.u64()?,
            bytes_up: self.u64()?,
            round_trips: self.u64()?,
            wire_round_trips: self.u64()?,
            wire_bytes_up: self.u64()?,
            wire_bytes_down: self.u64()?,
            wire_reconnects: self.u64()?,
            wire_inflight_max: self.u64()?,
            cache_hits: self.u64()?,
            cache_misses: self.u64()?,
            cache_evictions: self.u64()?,
        })
    }

    fn transcript(&mut self) -> Result<Transcript, WireError> {
        let batches = self.count(8)?;
        let mut t = Transcript::new();
        for _ in 0..batches {
            let events = self.count(9)?;
            let mut batch = Vec::with_capacity(events);
            for _ in 0..events {
                let tag = self.u8()?;
                let addr = self.size()?;
                batch.push(match tag {
                    0 => AccessEvent::Download(addr),
                    1 => AccessEvent::Upload(addr),
                    2 => AccessEvent::Compute(addr),
                    _ => return Err(WireError::BadPayload("unknown access-event tag")),
                });
            }
            t.push_batch(batch);
        }
        Ok(t)
    }

    /// The body must be fully consumed; trailing garbage is corruption.
    fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::BadPayload("trailing bytes after message"))
        }
    }
}

// ---- Messages ----------------------------------------------------------

// 0x09, 0x0E, 0x10 and 0x84 are retired (recording-state query, one-cell
// write, combined read+write, boolean response): never reuse them.
mod op {
    pub const PING: u8 = 0x01;
    pub const INIT: u8 = 0x02;
    pub const INIT_EMPTY: u8 = 0x03;
    pub const CAPACITY: u8 = 0x04;
    pub const STORED_BYTES: u8 = 0x05;
    pub const CELL_STRIDE: u8 = 0x06;
    pub const START_RECORDING: u8 = 0x07;
    pub const TAKE_TRANSCRIPT: u8 = 0x08;
    pub const STATS: u8 = 0x0A;
    pub const RESET_STATS: u8 = 0x0B;
    pub const READ_BATCH: u8 = 0x0C;
    pub const WRITE_BATCH: u8 = 0x0D;
    pub const WRITE_BATCH_STRIDED: u8 = 0x0F;
    pub const XOR_CELLS: u8 = 0x11;
    pub const INIT_CHUNK: u8 = 0x12;

    pub const R_OK: u8 = 0x81;
    pub const R_PONG: u8 = 0x82;
    pub const R_NUMBER: u8 = 0x83;
    pub const R_STATS: u8 = 0x85;
    pub const R_TRANSCRIPT: u8 = 0x86;
    pub const R_CELLS: u8 = 0x87;
    pub const R_BYTES: u8 = 0x88;
    pub const R_FAIL: u8 = 0x89;
}

/// One client request: the required [`Storage`](dps_server::Storage)
/// surface (the upload primitive has two frames, chosen by the cells),
/// plus chunked init and a connectivity `Ping`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// [`Storage::init`](dps_server::Storage::init).
    Init {
        /// The cells replacing the server contents.
        cells: Vec<Vec<u8>>,
    },
    /// One slice of a chunked [`Storage::init`](dps_server::Storage::init)
    /// whose whole-database `Init` frame would exceed [`MAX_FRAME`]. The
    /// daemon accumulates chunks in arrival order and applies the
    /// (uncharged) init when `done` arrives; the client sends these
    /// automatically above its chunking threshold.
    InitChunk {
        /// True on the final chunk: apply the accumulated cells.
        done: bool,
        /// The next cells, in address order.
        cells: Vec<Vec<u8>>,
    },
    /// [`Storage::init_empty`](dps_server::Storage::init_empty).
    InitEmpty {
        /// Cell slots to reserve.
        capacity: usize,
    },
    /// [`Storage::capacity`](dps_server::Storage::capacity).
    Capacity,
    /// [`Storage::stored_bytes`](dps_server::Storage::stored_bytes).
    StoredBytes,
    /// [`Storage::cell_stride`](dps_server::Storage::cell_stride).
    CellStride,
    /// [`Storage::start_recording`](dps_server::Storage::start_recording).
    StartRecording,
    /// [`Storage::take_transcript`](dps_server::Storage::take_transcript).
    TakeTranscript,
    /// [`Storage::stats`](dps_server::Storage::stats).
    Stats,
    /// [`Storage::reset_stats`](dps_server::Storage::reset_stats).
    ResetStats,
    /// [`Storage::read_batch_with`](dps_server::Storage::read_batch_with)
    /// and everything layered on it — one frame per batch.
    ReadBatch {
        /// Addresses to download.
        addrs: Vec<usize>,
    },
    /// [`Storage::write_cells`](dps_server::Storage::write_cells) when
    /// the cells differ in length: the general upload frame.
    WriteBatch {
        /// `(address, cell)` pairs to upload.
        writes: Vec<(usize, Vec<u8>)>,
    },
    /// [`Storage::write_cells`](dps_server::Storage::write_cells) when
    /// all cells have one length — every scheme's upload, one frame for
    /// the whole batch.
    WriteBatchStrided {
        /// Destination addresses.
        addrs: Vec<usize>,
        /// Equal-length cells packed back-to-back.
        flat: Vec<u8>,
    },
    /// [`Storage::xor_cells_into`](dps_server::Storage::xor_cells_into):
    /// the server folds the XOR and returns only the result.
    XorCells {
        /// Addresses to fold.
        addrs: Vec<usize>,
    },
}

impl Request {
    /// Encodes into a payload (opcode + body), without the frame header.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes straight into a ready-to-send frame ([`HEADER2_LEN`] bytes
    /// of header followed by the payload) with a single allocation and no
    /// payload copy. The header carries `id`, which the server echoes on
    /// the matching response.
    pub fn encode_framed_v2(&self, id: u64) -> Result<Vec<u8>, WireError> {
        let mut buf = vec![0u8; HEADER2_LEN];
        self.encode_into(&mut buf);
        seal_frame_v2(&mut buf, id)?;
        Ok(buf)
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Ping => buf.push(op::PING),
            Request::Init { cells } => {
                buf.push(op::INIT);
                put_cells(buf, cells);
            }
            Request::InitChunk { done, cells } => {
                buf.push(op::INIT_CHUNK);
                buf.push(u8::from(*done));
                put_cells(buf, cells);
            }
            Request::InitEmpty { capacity } => {
                buf.push(op::INIT_EMPTY);
                put_u64(buf, *capacity as u64);
            }
            Request::Capacity => buf.push(op::CAPACITY),
            Request::StoredBytes => buf.push(op::STORED_BYTES),
            Request::CellStride => buf.push(op::CELL_STRIDE),
            Request::StartRecording => buf.push(op::START_RECORDING),
            Request::TakeTranscript => buf.push(op::TAKE_TRANSCRIPT),
            Request::Stats => buf.push(op::STATS),
            Request::ResetStats => buf.push(op::RESET_STATS),
            Request::ReadBatch { addrs } => {
                buf.push(op::READ_BATCH);
                put_addrs(buf, addrs);
            }
            Request::WriteBatch { writes } => {
                buf.push(op::WRITE_BATCH);
                put_writes(buf, writes);
            }
            Request::WriteBatchStrided { addrs, flat } => {
                buf.push(op::WRITE_BATCH_STRIDED);
                put_addrs(buf, addrs);
                put_bytes(buf, flat);
            }
            Request::XorCells { addrs } => {
                buf.push(op::XOR_CELLS);
                put_addrs(buf, addrs);
            }
        }
    }

    /// Decodes a payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload);
        let opcode = r.u8()?;
        let req = match opcode {
            op::PING => Request::Ping,
            op::INIT => Request::Init { cells: r.cells()? },
            op::INIT_CHUNK => {
                let done = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("done byte not 0/1")),
                };
                Request::InitChunk { done, cells: r.cells()? }
            }
            op::INIT_EMPTY => Request::InitEmpty { capacity: r.size()? },
            op::CAPACITY => Request::Capacity,
            op::STORED_BYTES => Request::StoredBytes,
            op::CELL_STRIDE => Request::CellStride,
            op::START_RECORDING => Request::StartRecording,
            op::TAKE_TRANSCRIPT => Request::TakeTranscript,
            op::STATS => Request::Stats,
            op::RESET_STATS => Request::ResetStats,
            op::READ_BATCH => Request::ReadBatch { addrs: r.addrs()? },
            op::WRITE_BATCH => Request::WriteBatch { writes: r.writes()? },
            op::WRITE_BATCH_STRIDED => {
                Request::WriteBatchStrided { addrs: r.addrs()?, flat: r.bytes()?.to_vec() }
            }
            op::XOR_CELLS => Request::XorCells { addrs: r.addrs()? },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with nothing to return (writes, init, control ops).
    Ok,
    /// Answer to [`Request::Ping`].
    Pong,
    /// A scalar (capacity, stored bytes, cell stride).
    Number(u64),
    /// The server-side cost counters.
    Stats(CostStats),
    /// The recorded transcript.
    TranscriptData(Transcript),
    /// Downloaded cells, in request order.
    Cells(Vec<Vec<u8>>),
    /// Raw bytes (an XOR fold result).
    Bytes(Vec<u8>),
    /// The operation failed with a model-level error; the connection
    /// stays usable (wire-level failures close it instead).
    Fail(ServerError),
}

impl Response {
    /// Encodes into a payload (opcode + body), without the frame header.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Encodes straight into a ready-to-send frame ([`HEADER2_LEN`] bytes
    /// of header followed by the payload) with a single allocation and no
    /// payload copy, echoing the id of the request this response answers.
    pub fn encode_framed_v2(&self, id: u64) -> Result<Vec<u8>, WireError> {
        let mut buf = vec![0u8; HEADER2_LEN];
        self.encode_into(&mut buf);
        seal_frame_v2(&mut buf, id)?;
        Ok(buf)
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Ok => buf.push(op::R_OK),
            Response::Pong => buf.push(op::R_PONG),
            Response::Number(v) => {
                buf.push(op::R_NUMBER);
                put_u64(buf, *v);
            }
            Response::Stats(s) => {
                buf.push(op::R_STATS);
                put_stats(buf, s);
            }
            Response::TranscriptData(t) => {
                buf.push(op::R_TRANSCRIPT);
                put_transcript(buf, t);
            }
            Response::Cells(cells) => {
                buf.push(op::R_CELLS);
                put_cells(buf, cells);
            }
            Response::Bytes(b) => {
                buf.push(op::R_BYTES);
                put_bytes(buf, b);
            }
            Response::Fail(e) => {
                buf.push(op::R_FAIL);
                match e {
                    ServerError::OutOfBounds { addr, capacity } => {
                        buf.push(0);
                        put_u64(buf, *addr as u64);
                        put_u64(buf, *capacity as u64);
                    }
                    ServerError::Uninitialized { addr } => {
                        buf.push(1);
                        put_u64(buf, *addr as u64);
                    }
                    ServerError::Interrupted => buf.push(2),
                }
            }
        }
    }

    /// Decodes a payload produced by [`Response::encode`].
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload);
        let opcode = r.u8()?;
        let resp = match opcode {
            op::R_OK => Response::Ok,
            op::R_PONG => Response::Pong,
            op::R_NUMBER => Response::Number(r.u64()?),
            op::R_STATS => Response::Stats(r.stats()?),
            op::R_TRANSCRIPT => Response::TranscriptData(r.transcript()?),
            op::R_CELLS => Response::Cells(r.cells()?),
            op::R_BYTES => Response::Bytes(r.bytes()?.to_vec()),
            op::R_FAIL => Response::Fail(match r.u8()? {
                0 => {
                    let addr = r.size()?;
                    ServerError::OutOfBounds { addr, capacity: r.size()? }
                }
                1 => ServerError::Uninitialized { addr: r.size()? },
                2 => ServerError::Interrupted,
                _ => return Err(WireError::BadPayload("unknown server-error tag")),
            }),
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Zero-copy walk of a `Cells` response: hands each cell to `visit`
/// (batch position, bytes) as a slice borrowed from `payload`, without
/// materializing a `Vec<Vec<u8>>`. Returns `Ok(false)` untouched when the
/// payload is some *other* response kind (the caller decodes it normally
/// — e.g. a [`Response::Fail`]).
///
/// This is the client's download hot path: one frame, one pass, no
/// per-cell allocation.
pub fn visit_cells(payload: &[u8], mut visit: impl FnMut(usize, &[u8])) -> Result<bool, WireError> {
    let mut r = Reader::new(payload);
    if r.u8()? != op::R_CELLS {
        return Ok(false);
    }
    let n = r.count(8)?;
    for i in 0..n {
        visit(i, r.bytes()?);
    }
    r.finish()?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = Request::Ping.encode();
        let framed = frame_v2(1, &payload).unwrap();
        assert_eq!(framed.len(), HEADER2_LEN + payload.len());
        let mut rest = &framed[..];
        let (_, got) = read_frame_v2(&mut rest).unwrap().unwrap();
        assert_eq!(got, payload);
        assert!(rest.is_empty());
    }

    #[test]
    fn deframe_rejects_corrupt_headers() {
        let framed = frame_v2(1, &Request::Capacity.encode()).unwrap();
        let deframe = |mut buf: &[u8]| read_frame_v2(&mut buf);
        // Bad magic.
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(deframe(&bad), Err(WireError::BadMagic { .. })));
        // Oversized length prefix.
        let mut bad = framed.clone();
        bad[4..8].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(deframe(&bad), Err(WireError::BadLength { len: MAX_FRAME as u64 + 1 }));
        // Truncated payload.
        assert!(matches!(deframe(&framed[..framed.len() - 1]), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn empty_frames_are_invalid() {
        assert_eq!(frame_v2(1, &[]), Err(WireError::BadLength { len: 0 }));
    }

    #[test]
    fn request_roundtrip_covers_every_variant() {
        let reqs = vec![
            Request::Ping,
            Request::Init { cells: vec![vec![1, 2], vec![], vec![3]] },
            Request::InitChunk { done: false, cells: vec![vec![4; 3]] },
            Request::InitChunk { done: true, cells: vec![] },
            Request::InitEmpty { capacity: 77 },
            Request::Capacity,
            Request::StoredBytes,
            Request::CellStride,
            Request::StartRecording,
            Request::TakeTranscript,
            Request::Stats,
            Request::ResetStats,
            Request::ReadBatch { addrs: vec![0, 9, 3] },
            Request::WriteBatch { writes: vec![(4, vec![8; 5]), (0, vec![])] },
            Request::WriteBatchStrided { addrs: vec![1, 2], flat: vec![7; 8] },
            Request::XorCells { addrs: vec![1, 2, 3] },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_covers_every_variant() {
        let mut t = Transcript::new();
        t.push_batch(vec![AccessEvent::Download(3), AccessEvent::Upload(1)]);
        t.push_batch(vec![AccessEvent::Compute(9)]);
        let resps = vec![
            Response::Ok,
            Response::Pong,
            Response::Number(u64::MAX),
            Response::Stats(CostStats {
                downloads: 1,
                bytes_up: 9,
                wire_round_trips: 2,
                wire_reconnects: 5,
                ..Default::default()
            }),
            Response::TranscriptData(t),
            Response::Cells(vec![vec![0; 4], vec![1; 4]]),
            Response::Bytes(vec![0xAB; 7]),
            Response::Fail(ServerError::OutOfBounds { addr: 12, capacity: 10 }),
            Response::Fail(ServerError::Uninitialized { addr: 3 }),
            Response::Fail(ServerError::Interrupted),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Capacity.encode();
        payload.push(0);
        assert_eq!(
            Request::decode(&payload),
            Err(WireError::BadPayload("trailing bytes after message"))
        );
    }

    #[test]
    fn corrupt_counts_cannot_force_allocation() {
        // A Cells response whose count field claims 2^60 entries but whose
        // body ends immediately must fail on the count check, not OOM.
        let mut payload = vec![super::op::R_CELLS];
        put_u64(&mut payload, 1 << 60);
        assert_eq!(
            Response::decode(&payload),
            Err(WireError::BadPayload("count exceeds remaining body"))
        );
    }

    #[test]
    fn visit_cells_borrows_in_order() {
        let payload = Response::Cells(vec![vec![5; 3], vec![9; 3]]).encode();
        let mut seen = Vec::new();
        assert!(visit_cells(&payload, |i, c| seen.push((i, c.to_vec()))).unwrap());
        assert_eq!(seen, vec![(0, vec![5; 3]), (1, vec![9; 3])]);
        // Non-Cells payloads are left for the ordinary decoder.
        assert!(!visit_cells(&Response::Ok.encode(), |_, _| {}).unwrap());
    }

    #[test]
    fn unknown_opcodes_are_typed_errors() {
        assert_eq!(Request::decode(&[0x7F]), Err(WireError::UnknownOpcode(0x7F)));
        assert_eq!(Response::decode(&[0x20]), Err(WireError::UnknownOpcode(0x20)));
    }

    #[test]
    fn v2_frame_roundtrip_preserves_the_id() {
        let req = Request::ReadBatch { addrs: vec![4, 2] };
        let framed = req.encode_framed_v2(0xDEAD_BEEF_F00D).unwrap();
        assert_eq!(framed, frame_v2(0xDEAD_BEEF_F00D, &req.encode()).unwrap());
        let mut cursor = &framed[..];
        let (id, payload) = read_frame_v2(&mut cursor).unwrap().unwrap();
        assert_eq!(id, 0xDEAD_BEEF_F00D);
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// A well-formed frame of the retired framing: `"DPS1"`, payload
    /// length, payload — an 8-byte header with no request id.
    fn dps1_ping() -> Vec<u8> {
        let payload = Request::Ping.encode();
        let mut framed = b"DPS1".to_vec();
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }

    #[test]
    fn read_frame_v2_rejects_v1_magic() {
        let found = u32::from_le_bytes(*b"DPS1");
        assert_eq!(read_frame_v2(&mut &dps1_ping()[..]), Err(WireError::BadMagic { found }));
    }

    #[test]
    fn assembler_rejects_dps1_frames() {
        let mut asm = FrameAssembler::new();
        asm.push(&dps1_ping());
        let found = u32::from_le_bytes(*b"DPS1");
        assert_eq!(asm.next_frame(), Err(WireError::BadMagic { found }));
    }

    #[test]
    fn assembler_handles_arbitrary_chunking() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&Request::Ping.encode_framed_v2(6).unwrap());
        stream.extend_from_slice(&Request::Capacity.encode_framed_v2(7).unwrap());
        stream.extend_from_slice(
            &Request::ReadBatch { addrs: vec![1, 2, 3] }
                .encode_framed_v2(8)
                .unwrap(),
        );
        // Push one byte at a time: frames must pop out exactly at their
        // completion points, in order, with ids intact.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            asm.push(&[b]);
            while let Some(frame) = asm.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(asm.buffered(), 0);
        assert_eq!(
            got,
            vec![
                WireFrame { id: 6, payload: Request::Ping.encode() },
                WireFrame { id: 7, payload: Request::Capacity.encode() },
                WireFrame { id: 8, payload: Request::ReadBatch { addrs: vec![1, 2, 3] }.encode() },
            ]
        );
    }

    #[test]
    fn assembler_rejects_bad_headers_before_the_payload_arrives() {
        let mut asm = FrameAssembler::new();
        asm.push(b"HTTP");
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic { .. })));

        let mut asm = FrameAssembler::new();
        asm.push(&MAGIC2.to_le_bytes());
        asm.push(&(MAX_FRAME as u32 + 1).to_le_bytes());
        // Oversized claim dies at 8 header bytes, long before any payload.
        assert_eq!(asm.next_frame(), Err(WireError::BadLength { len: MAX_FRAME as u64 + 1 }));
    }
}
