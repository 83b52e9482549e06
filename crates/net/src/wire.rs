//! The length-prefixed binary wire protocol.
//!
//! Every frame ("DPS2") carries a `request_id` in its header, and the
//! server echoes it on the matching response. The daemon answers any
//! number of tagged requests in flight on one connection (*pipelining*),
//! in order; [`crate::RemoteServer`] keeps one in flight and checks that
//! its answer carries its id:
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
//! more is rejected *before* any allocation, and a peer announcing less
//! than that still only gets buffer for the bytes it actually sends: both
//! ends receive through a [`FrameAssembler`], whose buffer follows the
//! bytes received, never the length announced. So a corrupt or hostile
//! length prefix cannot balloon memory on either side. (A set-up whose
//! *execution* would allocate far beyond its encoded size — flat-arena
//! stride amplification — is bounded separately by
//! [`crate::DaemonLimits`]; no other request can allocate.) All integers are little-endian; addresses
//! travel as `u64` and are checked back into `usize` on decode. A
//! [`Request`] frame carries one [`Storage`](dps_server::Storage)
//! operation — batch reads, strided batch writes and XOR partials each fit
//! in a single frame, which is what keeps every batch operation a single
//! round trip on the wire. No cell carries a length of its own: a cell list
//! (`Cells`, `InitChunk`) is a count, one stride and `count × stride` bytes
//! (NOTES.md, entry 29).
//!
//! There is one encoder and one parser per message. Both work on borrowed
//! parts — the parser hands out views into the payload it validated
//! (`RequestView`, `ResponseView`), the encoders take slices and iterators
//! — which is what lets the daemon serve a request out of its receive
//! buffer and write the answer into its send buffer, and the client frame
//! a request from the caller's slices; the owned [`Request`] / [`Response`]
//! are thin wrappers (`decode` is parse-then-own, `encode` lends its
//! fields).
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
/// can make the receiver allocate. Set-up is not bounded by it: the client
/// streams a database of any size as `InitChunk` frames of about 1 MiB.
pub const MAX_FRAME: usize = 1 << 28;

/// Most cells one cell list may name: as many addresses as a frame holds.
/// It bounds a list of empty cells (stride 0); its body bounds any other.
pub(crate) const MAX_CELLS: usize = MAX_FRAME / 8;

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
    /// A response carried a request id that is not the one sent: newer
    /// than the request in flight on this connection. (An older id is the
    /// late answer of an abandoned request, which the client drops.)
    UnknownRequestId(u64),
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
                write!(f, "response id {id} is not the id of the request in flight")
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

/// Reserves a frame header at the end of `out` and returns where it
/// starts: the payload is appended behind it and [`end_frame`] fills the
/// header in. Together they frame a message *in place* — in a connection's
/// send buffer, behind whatever is already queued there.
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let mark = out.len();
    out.extend_from_slice(&[0u8; HEADER2_LEN]);
    mark
}

/// Seals the frame opened at `mark` by [`begin_frame`] under `id`. A
/// payload that is empty or over [`MAX_FRAME`] is [`WireError::BadLength`],
/// and `out` is rolled back to `mark`: a refused frame leaves no bytes
/// behind.
pub(crate) fn end_frame(out: &mut Vec<u8>, mark: usize, id: u64) -> Result<(), WireError> {
    seal_frame_v2(&mut out[mark..], id).inspect_err(|_| out.truncate(mark))
}

/// Appends one frame to `out`: header, then whatever `body` writes. If
/// `body` or the seal fails, `out` is rolled back to where it was.
pub(crate) fn frame_into(
    out: &mut Vec<u8>,
    id: u64,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let mark = begin_frame(out);
    body(out).inspect_err(|_| out.truncate(mark))?;
    end_frame(out, mark, id)
}

/// Reads one frame, returning `(request_id, payload)`. `Ok(None)` means
/// the peer closed cleanly *between* frames; closing mid-frame is
/// [`WireError::Truncated`]. Reads exactly the frame's bytes and no more,
/// so it can be called on a stream again — what a test relay wants; a
/// connection's own receive path keeps a [`FrameAssembler`] instead.
pub fn read_frame_v2(r: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>, WireError> {
    let mut asm = FrameAssembler::new();
    loop {
        if let Some((id, payload)) = asm.next_frame()? {
            return Ok(Some((id, payload.to_vec())));
        }
        let missing = asm.missing() as u64;
        if asm.fill_from(&mut r.by_ref().take(missing))? == 0 {
            return if asm.buffered() == 0 { Ok(None) } else { Err(asm.truncated()) };
        }
    }
}

/// Most bytes one `read` is offered, and the size above which a drained
/// buffer is handed back to the allocator instead of kept.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// A fresh receive buffer's size.
const FIRST_BUFFER: usize = 4 * 1024;

/// Least room a `read` is offered; with less the buffer is compacted or
/// grown first.
const MIN_SPARE: usize = 512;

/// The receive side of a connection: one buffer the socket is read
/// *into* ([`FrameAssembler::fill_from`]) and complete frames are borrowed
/// *out of* ([`FrameAssembler::next_frame`]) — no copy in between.
///
/// A borrowed payload is valid until the assembler is next filled, which
/// the borrow checker enforces. The buffer is sized by what the connection
/// has actually received, never by what a header announces: it starts
/// small, grows (to 64 KiB, then by at most 64 KiB a step) only when a read
/// filled the room it was offered or a frame in progress needs it, and a
/// drained buffer larger than that is released — so a thousand idle
/// connections pin a few KiB each, and one 32 MiB frame does not pin
/// 32 MiB for the life of its connection.
///
/// Corrupt headers are rejected as soon as the header bytes are present:
/// a bad magic fails at 4 bytes and an oversized length prefix at 8,
/// *before* the payload arrives, so a hostile peer cannot make the
/// assembler buffer toward a bogus length.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    /// Initialised throughout; `buf[start..end]` is received and not yet
    /// handed out, `buf[end..]` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The last read filled all the room it was offered.
    filled: bool,
}

/// Validates as much of a frame header as `avail` holds and returns
/// `(id, payload length)` once all of it is there.
fn parse_header(avail: &[u8]) -> Result<Option<(u64, usize)>, WireError> {
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
    if avail.len() < HEADER2_LEN {
        return Ok(None);
    }
    Ok(Some((u64::from_le_bytes(avail[8..16].try_into().expect("8 bytes")), len)))
}

impl FrameAssembler {
    /// A fresh assembler with nothing buffered (and nothing allocated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered and not yet consumed by a frame.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Issues one `read` into the buffer's spare room and returns what it
    /// returned (`Ok(0)` is the reader's end of stream). Frames handed out
    /// before this call are gone after it: the room is made by recycling
    /// a drained buffer, else by moving the unconsumed tail to the front
    /// (at most once per consumed frame), else by growing.
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.make_room();
        let offered = (self.buf.len() - self.end).min(READ_CHUNK);
        let room = &mut self.buf[self.end..self.end + offered];
        let n = r.read(room)?;
        self.filled = n == room.len();
        self.end += n;
        Ok(n)
    }

    fn make_room(&mut self) {
        self.recycle();
        let live = self.end - self.start;
        if self.start > 0 && self.buf.len() - self.end < MIN_SPARE {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, live);
        }
        let len = self.buf.len();
        let target = if len - self.end < MIN_SPARE {
            // The frame in progress has outgrown the buffer.
            len + len.clamp(FIRST_BUFFER, READ_CHUNK)
        } else if self.filled {
            // The sender has more than this buffer takes in one read:
            // offer a full chunk from now on.
            len.max(READ_CHUNK)
        } else {
            len
        };
        self.buf.resize(target, 0);
    }

    /// Compaction when it is free: a drained buffer starts over at its
    /// front, and gives an outsize allocation back.
    fn recycle(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_CHUNK {
                self.buf = Vec::new();
            }
        }
    }

    /// Pulls the next complete frame, if the buffered bytes hold one, as
    /// `(request id, payload)` borrowed from the buffer. `Ok(None)` means
    /// "need more bytes"; errors are unrecoverable for the stream (there
    /// is no way to resynchronize a corrupt framing).
    pub fn next_frame(&mut self) -> Result<Option<(u64, &[u8])>, WireError> {
        self.recycle();
        let avail = &self.buf[self.start..self.end];
        let Some((id, len)) = parse_header(avail)? else { return Ok(None) };
        if avail.len() < HEADER2_LEN + len {
            return Ok(None);
        }
        let payload = self.start + HEADER2_LEN;
        self.start = payload + len;
        Ok(Some((id, &self.buf[payload..self.start])))
    }

    /// How far the frame in progress has come, as `(expected, got)` bytes:
    /// of its header while that is incomplete, of its payload after. Only
    /// meaningful when [`FrameAssembler::next_frame`] just returned
    /// `Ok(None)`.
    fn progress(&self) -> (usize, usize) {
        let avail = &self.buf[self.start..self.end];
        match parse_header(avail) {
            Ok(Some((_, len))) => (len, avail.len() - HEADER2_LEN),
            _ => (HEADER2_LEN, avail.len().min(HEADER2_LEN)),
        }
    }

    /// Bytes still missing from the frame in progress (from its header,
    /// while that is incomplete).
    fn missing(&self) -> usize {
        let (expected, got) = self.progress();
        expected - got
    }

    /// What the stream ending *now* means: the frame in progress is cut
    /// short, in its header or in its payload. (With nothing buffered the
    /// cut fell between frames: `expected` a header, `got` nothing.)
    pub fn truncated(&self) -> WireError {
        let (expected, got) = self.progress();
        WireError::Truncated { expected, got }
    }

    /// Bytes the receive buffer currently owns.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
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

/// `n` addresses: the count, then each as a `u64`.
fn put_addrs(buf: &mut Vec<u8>, n: usize, addrs: impl Iterator<Item = usize>) {
    put_u64(buf, n as u64);
    for a in addrs {
        put_u64(buf, a as u64);
    }
}

/// A cell list: its count, its one stride, then the cells end to end.
fn put_cells(buf: &mut Vec<u8>, cells: &[Vec<u8>]) -> Result<(), WireError> {
    let (n, stride) = one_length(cells.iter().map(|cell| (0, &cell[..])))
        .ok_or(WireError::BadPayload("cells differ in length"))?;
    put_u64(buf, n as u64);
    put_u64(buf, stride as u64);
    cells.iter().for_each(|cell| buf.extend_from_slice(cell));
    Ok(())
}

// ---- Message bodies ----------------------------------------------------
//
// One encoder per message shape, over borrowed parts: the owned
// `Request`/`Response` encoders call these with views of their fields, the
// client frames its hot requests from the caller's slices through them,
// and the daemon writes its hot answers with them straight into a
// connection's send buffer.

pub(crate) fn put_read_batch(buf: &mut Vec<u8>, addrs: &[usize]) {
    buf.push(op::READ_BATCH);
    put_addrs(buf, addrs.len(), addrs.iter().copied());
}

pub(crate) fn put_xor_cells(buf: &mut Vec<u8>, addrs: &[usize]) {
    buf.push(op::XOR_CELLS);
    put_addrs(buf, addrs.len(), addrs.iter().copied());
}

/// The strided upload frame: `n` addresses, then `flat_len` bytes given
/// as the pieces they are held in.
fn put_write_strided<'a>(
    buf: &mut Vec<u8>,
    n: usize,
    addrs: impl Iterator<Item = usize>,
    flat_len: usize,
    flat: impl Iterator<Item = &'a [u8]>,
) {
    buf.push(op::WRITE_BATCH_STRIDED);
    put_addrs(buf, n, addrs);
    put_u64(buf, flat_len as u64);
    flat.for_each(|piece| buf.extend_from_slice(piece));
}

/// How many cells an upload has and their one length, or `None` if two of
/// them differ in length: such a batch has no frame. Every scheme's
/// uploads have one length; so do none, and one.
pub(crate) fn one_length<'a>(
    cells: impl Iterator<Item = (usize, &'a [u8])>,
) -> Option<(usize, usize)> {
    let mut shape = (0, 0);
    for (_, cell) in cells {
        if shape.0 > 0 && cell.len() != shape.1 {
            return None;
        }
        shape = (shape.0 + 1, cell.len());
    }
    Some(shape)
}

/// An upload of `n` cells of `len` bytes each ([`one_length`]'s answer),
/// framed from the cells alone: the strided frame, the one upload frame.
pub(crate) fn put_write_cells<'a>(
    buf: &mut Vec<u8>,
    (n, len): (usize, usize),
    cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
) {
    let addrs = cells.clone().map(|(addr, _)| addr);
    put_write_strided(buf, n, addrs, n * len, cells.map(|(_, cell)| cell));
}

/// Starts `out` over as one open `InitChunk` frame: the cells' bytes
/// follow, end to end, and [`end_init_chunk`] fills in what is only known
/// once the last one is in.
pub(crate) fn begin_init_chunk(out: &mut Vec<u8>) {
    out.clear();
    begin_frame(out);
    out.push(op::INIT_CHUNK);
    out.push(0);
    put_u64(out, 0);
    put_u64(out, 0);
}

/// Seals the `InitChunk` frame [`begin_init_chunk`] opened in `out` under
/// `id`: its `done` byte, the count of the `cells` of `stride` bytes
/// appended since, the frame header.
pub(crate) fn end_init_chunk(
    out: &mut Vec<u8>,
    id: u64,
    done: bool,
    (cells, stride): (usize, usize),
) -> Result<(), WireError> {
    out[HEADER2_LEN + 1] = u8::from(done);
    out[HEADER2_LEN + 2..HEADER2_LEN + 10].copy_from_slice(&(cells as u64).to_le_bytes());
    out[HEADER2_LEN + 10..HEADER2_LEN + 18].copy_from_slice(&(stride as u64).to_le_bytes());
    end_frame(out, 0, id)
}

/// Opens a `Cells` answer of `n` cells of `stride` bytes; their bytes
/// follow, end to end.
pub(crate) fn put_cells_open(buf: &mut Vec<u8>, n: usize, stride: usize) {
    buf.push(op::R_CELLS);
    put_u64(buf, n as u64);
    put_u64(buf, stride as u64);
}

/// A `Bytes` answer (an XOR fold).
pub(crate) fn put_fold(buf: &mut Vec<u8>, fold: &[u8]) {
    buf.push(op::R_BYTES);
    put_bytes(buf, fold);
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
#[derive(Clone)]
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

    /// An address list, validated: `count × 8` bytes, every value a
    /// `usize`.
    fn addrs(&mut self) -> Result<Addrs<'a>, WireError> {
        let n = self.count(8)?;
        let raw = self.take(n * 8)?;
        let mut check = Reader::new(raw);
        for _ in 0..n {
            check.size()?;
        }
        Ok(Addrs(raw))
    }

    /// A cell list, validated: a count of at most [`MAX_CELLS`], one
    /// stride, and `count × stride` bytes, checked once.
    fn cells(&mut self) -> Result<Cells<'a>, WireError> {
        let (n, stride) = (self.size()?, self.size()?);
        let len = (n.checked_mul(stride))
            .filter(|_| n <= MAX_CELLS)
            .ok_or(WireError::BadPayload("cell list overflows a frame"))?;
        if len > self.buf.len() {
            return Err(WireError::BadPayload("cell list exceeds remaining body"));
        }
        Ok(Cells { n, stride, body: self.take(len)? })
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

// ---- Borrowed views ----------------------------------------------------
//
// What the parser hands out: slices of the payload it validated, so that
// walking them afterwards cannot fail. The owned `Request`/`Response` are
// `parse(..).into_owned()`.

/// A validated address list, still in wire form.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Addrs<'a>(&'a [u8]);

impl<'a> Addrs<'a> {
    pub(crate) fn len(&self) -> usize {
        self.0.len() / 8
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = usize> + Clone + 'a {
        self.0
            .chunks_exact(8)
            .map(|raw| u64::from_le_bytes(raw.try_into().expect("8 bytes")) as usize)
    }
}

/// A validated cell list, still in wire form: `n` cells of `stride` bytes,
/// end to end in `body` (`n × stride` bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cells<'a> {
    pub(crate) n: usize,
    pub(crate) stride: usize,
    pub(crate) body: &'a [u8],
}

impl<'a> Cells<'a> {
    /// The cells in order: `n` of them at any stride, empty ones at 0.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + Clone + 'a {
        let Cells { n, stride, body } = *self;
        (0..n).map(move |i| &body[i * stride..(i + 1) * stride])
    }

    /// Refuses a list whose owned form, a 24-byte `Vec` per cell, would
    /// take more than 8 bytes per byte of the `payload` it came in: cells
    /// shorter than 3 bytes (empty ones above all) do not pay for theirs.
    fn ownable(self, payload: &[u8]) -> Result<(), WireError> {
        let fits = self.n.saturating_mul(size_of::<Vec<u8>>()) <= 8 * payload.len();
        fits.then_some(())
            .ok_or(WireError::BadPayload("cell list too long to own"))
    }
}

/// A [`Request`] parsed in place: scalars decoded, variable-length parts
/// borrowed from the payload. The daemon dispatches on this, so a request
/// is served out of the buffer the socket was read into.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RequestView<'a> {
    Ping,
    InitChunk { done: bool, cells: Cells<'a> },
    Capacity,
    CellStride,
    StartRecording,
    TakeTranscript,
    Stats,
    ResetStats,
    ReadBatch { addrs: Addrs<'a> },
    WriteBatchStrided { addrs: Addrs<'a>, flat: &'a [u8] },
    XorCells { addrs: Addrs<'a> },
}

impl<'a> RequestView<'a> {
    /// The one request parser: every bound check — counts against the
    /// bytes that remain, `usize` overflow, the 0/1 `done` byte, trailing
    /// bytes — happens here, before anything is allocated or served.
    pub(crate) fn parse(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let opcode = r.u8()?;
        let req = match opcode {
            op::PING => RequestView::Ping,
            op::INIT_CHUNK => {
                let done = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::BadPayload("done byte not 0/1")),
                };
                RequestView::InitChunk { done, cells: r.cells()? }
            }
            op::CAPACITY => RequestView::Capacity,
            op::CELL_STRIDE => RequestView::CellStride,
            op::START_RECORDING => RequestView::StartRecording,
            op::TAKE_TRANSCRIPT => RequestView::TakeTranscript,
            op::STATS => RequestView::Stats,
            op::RESET_STATS => RequestView::ResetStats,
            op::READ_BATCH => RequestView::ReadBatch { addrs: r.addrs()? },
            op::WRITE_BATCH_STRIDED => {
                RequestView::WriteBatchStrided { addrs: r.addrs()?, flat: r.bytes()? }
            }
            op::XOR_CELLS => RequestView::XorCells { addrs: r.addrs()? },
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(req)
    }

    fn into_owned(self) -> Request {
        match self {
            RequestView::Ping => Request::Ping,
            RequestView::InitChunk { done, cells } => {
                Request::InitChunk { done, cells: cells.iter().map(<[u8]>::to_vec).collect() }
            }
            RequestView::Capacity => Request::Capacity,
            RequestView::CellStride => Request::CellStride,
            RequestView::StartRecording => Request::StartRecording,
            RequestView::TakeTranscript => Request::TakeTranscript,
            RequestView::Stats => Request::Stats,
            RequestView::ResetStats => Request::ResetStats,
            RequestView::ReadBatch { addrs } => {
                Request::ReadBatch { addrs: addrs.iter().collect() }
            }
            RequestView::WriteBatchStrided { addrs, flat } => {
                Request::WriteBatchStrided { addrs: addrs.iter().collect(), flat: flat.to_vec() }
            }
            RequestView::XorCells { addrs } => Request::XorCells { addrs: addrs.iter().collect() },
        }
    }
}

/// A [`Response`] parsed in place: the two bulk answers (`Cells`, `Bytes`)
/// borrowed from the payload, everything else decoded. The client reads
/// its hot answers through this, in its receive buffer.
#[derive(Debug, Clone)]
pub(crate) enum ResponseView<'a> {
    Ok,
    Pong,
    Number(u64),
    Stats(CostStats),
    TranscriptData(Transcript),
    Cells(Cells<'a>),
    Bytes(&'a [u8]),
    Fail(ServerError),
}

impl<'a> ResponseView<'a> {
    /// The one response parser (see [`RequestView::parse`]).
    pub(crate) fn parse(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let opcode = r.u8()?;
        let resp = match opcode {
            op::R_OK => ResponseView::Ok,
            op::R_PONG => ResponseView::Pong,
            op::R_NUMBER => ResponseView::Number(r.u64()?),
            op::R_STATS => ResponseView::Stats(r.stats()?),
            op::R_TRANSCRIPT => ResponseView::TranscriptData(r.transcript()?),
            op::R_CELLS => ResponseView::Cells(r.cells()?),
            op::R_BYTES => ResponseView::Bytes(r.bytes()?),
            op::R_FAIL => ResponseView::Fail(match r.u8()? {
                0 => {
                    let addr = r.size()?;
                    ServerError::OutOfBounds { addr, capacity: r.size()? }
                }
                2 => ServerError::Interrupted,
                3 => ServerError::Integrity { addr: r.size()? },
                4 => {
                    let (addr, len) = (r.size()?, r.size()?);
                    ServerError::WrongCellLength { addr, len, stride: r.size()? }
                }
                _ => return Err(WireError::BadPayload("unknown server-error tag")),
            }),
            other => return Err(WireError::UnknownOpcode(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    pub(crate) fn into_owned(self) -> Response {
        match self {
            ResponseView::Ok => Response::Ok,
            ResponseView::Pong => Response::Pong,
            ResponseView::Number(v) => Response::Number(v),
            ResponseView::Stats(s) => Response::Stats(s),
            ResponseView::TranscriptData(t) => Response::TranscriptData(t),
            ResponseView::Cells(cells) => {
                Response::Cells(cells.iter().map(<[u8]>::to_vec).collect())
            }
            ResponseView::Bytes(b) => Response::Bytes(b.to_vec()),
            ResponseView::Fail(e) => Response::Fail(e),
        }
    }
}

// ---- Messages ----------------------------------------------------------

// Retired, never reuse: 0x02 whole-database init, 0x03 empty init, 0x05
// stored-bytes query, 0x09 recording-state query, 0x0D upload of cells of
// several lengths, 0x0E one-cell write, 0x10 read+write, 0x12 and 0x87 the
// set-up chunk and `Cells` answer with a length per cell, 0x84 boolean
// response, and tag 1 (a never-written cell) of the `R_FAIL` body.
mod op {
    pub const PING: u8 = 0x01;
    pub const CAPACITY: u8 = 0x04;
    pub const CELL_STRIDE: u8 = 0x06;
    pub const START_RECORDING: u8 = 0x07;
    pub const TAKE_TRANSCRIPT: u8 = 0x08;
    pub const STATS: u8 = 0x0A;
    pub const RESET_STATS: u8 = 0x0B;
    pub const READ_BATCH: u8 = 0x0C;
    pub const WRITE_BATCH_STRIDED: u8 = 0x0F;
    pub const XOR_CELLS: u8 = 0x11;
    pub const INIT_CHUNK: u8 = 0x13;

    pub const R_OK: u8 = 0x81;
    pub const R_PONG: u8 = 0x82;
    pub const R_NUMBER: u8 = 0x83;
    pub const R_STATS: u8 = 0x85;
    pub const R_TRANSCRIPT: u8 = 0x86;
    pub const R_BYTES: u8 = 0x88;
    pub const R_FAIL: u8 = 0x89;
    pub const R_CELLS: u8 = 0x8A;
}

/// One client request: the required [`Storage`](dps_server::Storage)
/// surface (set-up in chunks, the upload primitive in one frame of cells of
/// one length), plus a connectivity `Ping`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// One slice of a set-up
    /// ([`Storage::init_with`](dps_server::Storage::init_with)): the one
    /// set-up frame, in which the client sends every database, about 1 MiB
    /// at a time. The daemon keeps the chunks of an uninterrupted run in
    /// arrival order and applies the (uncharged) init when `done` arrives;
    /// any other request in between abandons the run.
    InitChunk {
        /// True on the final chunk: apply the accumulated cells.
        done: bool,
        /// The next cells, in address order, of one length.
        cells: Vec<Vec<u8>>,
    },
    /// [`Storage::capacity`](dps_server::Storage::capacity).
    Capacity,
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
    /// [`Storage::write_cells`](dps_server::Storage::write_cells): the
    /// upload frame, cells of one length — every scheme's upload, one frame
    /// for the whole batch.
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
    /// Panics on cells of two lengths, which have no encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf).unwrap_or_else(|e| panic!("{e}"));
        buf
    }

    /// Encodes straight into a ready-to-send frame ([`HEADER2_LEN`] bytes
    /// of header followed by the payload) with a single allocation and no
    /// payload copy. The header carries `id`, which the server echoes on
    /// the matching response. Cells of two lengths are `BadPayload`.
    pub fn encode_framed_v2(&self, id: u64) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.encode_framed_into(id, &mut buf)?;
        Ok(buf)
    }

    /// [`Request::encode_framed_v2`] appended to `out` — behind whatever
    /// it already holds — instead of into a buffer of its own. On `Err`
    /// `out` is as it was.
    pub fn encode_framed_into(&self, id: u64, out: &mut Vec<u8>) -> Result<(), WireError> {
        frame_into(out, id, |buf| self.encode_into(buf))
    }

    fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::Ping => buf.push(op::PING),
            Request::InitChunk { done, cells } => {
                buf.push(op::INIT_CHUNK);
                buf.push(u8::from(*done));
                put_cells(buf, cells)?;
            }
            Request::Capacity => buf.push(op::CAPACITY),
            Request::CellStride => buf.push(op::CELL_STRIDE),
            Request::StartRecording => buf.push(op::START_RECORDING),
            Request::TakeTranscript => buf.push(op::TAKE_TRANSCRIPT),
            Request::Stats => buf.push(op::STATS),
            Request::ResetStats => buf.push(op::RESET_STATS),
            Request::ReadBatch { addrs } => put_read_batch(buf, addrs),
            Request::WriteBatchStrided { addrs, flat } => {
                let pieces = std::iter::once(flat.as_slice());
                put_write_strided(buf, addrs.len(), addrs.iter().copied(), flat.len(), pieces);
            }
            Request::XorCells { addrs } => put_xor_cells(buf, addrs),
        }
        Ok(())
    }

    /// Decodes a payload produced by [`Request::encode`], allocating at
    /// most 8 bytes per payload byte: more cells than one per 3 bytes are
    /// `BadPayload` here, where the daemon, reading in place, takes them.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let request = RequestView::parse(payload)?;
        if let RequestView::InitChunk { cells, .. } = request {
            cells.ownable(payload)?;
        }
        Ok(request.into_owned())
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with nothing to return (writes, init, control ops).
    Ok,
    /// Answer to [`Request::Ping`].
    Pong,
    /// A scalar (capacity, cell stride).
    Number(u64),
    /// The server-side cost counters.
    Stats(CostStats),
    /// The recorded transcript.
    TranscriptData(Transcript),
    /// Downloaded cells, in request order, of one length.
    Cells(Vec<Vec<u8>>),
    /// Raw bytes (an XOR fold result).
    Bytes(Vec<u8>),
    /// The operation failed with a model-level error; the connection
    /// stays usable (wire-level failures close it instead).
    Fail(ServerError),
}

impl Response {
    /// Encodes into a payload (opcode + body), without the frame header.
    /// Panics on cells of two lengths, which have no encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf).unwrap_or_else(|e| panic!("{e}"));
        buf
    }

    /// Encodes straight into a ready-to-send frame ([`HEADER2_LEN`] bytes
    /// of header followed by the payload) with a single allocation and no
    /// payload copy, echoing the id of the request this response answers.
    /// Cells of two lengths are `BadPayload`.
    pub fn encode_framed_v2(&self, id: u64) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        self.encode_framed_into(id, &mut buf)?;
        Ok(buf)
    }

    /// [`Response::encode_framed_v2`] appended to `out` — a connection's
    /// send buffer, behind the answers already queued there — instead of
    /// into a buffer of its own. On `Err` `out` is as it was.
    pub fn encode_framed_into(&self, id: u64, out: &mut Vec<u8>) -> Result<(), WireError> {
        frame_into(out, id, |buf| self.encode_into(buf))
    }

    fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), WireError> {
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
                put_cells(buf, cells)?;
            }
            Response::Bytes(b) => put_fold(buf, b),
            Response::Fail(e) => {
                buf.push(op::R_FAIL);
                match e {
                    ServerError::OutOfBounds { addr, capacity } => {
                        buf.push(0);
                        put_u64(buf, *addr as u64);
                        put_u64(buf, *capacity as u64);
                    }
                    ServerError::Interrupted => buf.push(2),
                    ServerError::Integrity { addr } => {
                        buf.push(3);
                        put_u64(buf, *addr as u64);
                    }
                    ServerError::WrongCellLength { addr, len, stride } => {
                        buf.push(4);
                        for v in [addr, len, stride] {
                            put_u64(buf, *v as u64);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Decodes a payload produced by [`Response::encode`], allocating at
    /// most 8 bytes per payload byte, as [`Request::decode`] does; a client
    /// checks a `Cells` answer's count against its request instead.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let response = ResponseView::parse(payload)?;
        if let ResponseView::Cells(cells) = response {
            cells.ownable(payload)?;
        }
        Ok(response.into_owned())
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
    let cells = r.cells()?;
    r.finish()?;
    cells.iter().enumerate().for_each(|(i, cell)| visit(i, cell));
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
            Request::InitChunk { done: true, cells: vec![vec![1, 2], vec![3, 4], vec![5, 6]] },
            Request::InitChunk { done: false, cells: vec![vec![4; 3]] },
            Request::InitChunk { done: false, cells: vec![vec![]; 4] },
            Request::InitChunk { done: true, cells: vec![] },
            Request::Capacity,
            Request::CellStride,
            Request::StartRecording,
            Request::TakeTranscript,
            Request::Stats,
            Request::ResetStats,
            Request::ReadBatch { addrs: vec![0, 9, 3] },
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
            Response::Cells(vec![vec![]; 3]),
            Response::Cells(vec![]),
            Response::Bytes(vec![0xAB; 7]),
            Response::Fail(ServerError::OutOfBounds { addr: 12, capacity: 10 }),
            Response::Fail(ServerError::Interrupted),
            Response::Fail(ServerError::Integrity { addr: 7 }),
            Response::Fail(ServerError::WrongCellLength { addr: 5, len: 9, stride: 8 }),
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

    /// A cell list's head — `count`, `stride` — behind `prefix`, then
    /// `body`.
    fn cell_list(prefix: &[u8], count: u64, stride: u64, body: &[u8]) -> Vec<u8> {
        let mut payload = prefix.to_vec();
        put_u64(&mut payload, count);
        put_u64(&mut payload, stride);
        payload.extend_from_slice(body);
        payload
    }

    /// A cell-list payload through the owned decoder of its message.
    fn decode(payload: &[u8]) -> Result<(), WireError> {
        match payload[0] {
            op::R_CELLS => Response::decode(payload).map(|_| ()),
            _ => Request::decode(payload).map(|_| ()),
        }
    }

    /// A cell-list payload through the parser the daemon and the client's
    /// data paths read it with, which allocates nothing.
    fn parse(payload: &[u8]) -> Result<(), WireError> {
        match payload[0] {
            op::R_CELLS => ResponseView::parse(payload).map(|_| ()),
            _ => RequestView::parse(payload).map(|_| ()),
        }
    }

    /// In both cell lists — the `Cells` answer and the `InitChunk` request
    /// — a count past [`MAX_CELLS`], a `count × stride` that overflows, and
    /// a body longer or shorter than `count × stride` are each a typed
    /// error, found before anything is allocated. [`MAX_CELLS`] empty cells
    /// parse in place, and are too many to own.
    #[test]
    fn corrupt_counts_cannot_force_allocation() {
        for prefix in [&[op::R_CELLS][..], &[op::INIT_CHUNK, 1]] {
            let refused = |count, stride, body: &[u8], why| {
                let payload = cell_list(prefix, count, stride, body);
                assert_eq!(parse(&payload), Err(WireError::BadPayload(why)), "{payload:02x?}");
                assert_eq!(decode(&payload), Err(WireError::BadPayload(why)), "{payload:02x?}");
            };
            refused(1 << 60, 0, &[], "cell list overflows a frame");
            refused(MAX_CELLS as u64 + 1, 0, &[], "cell list overflows a frame");
            refused(1 << 20, 1 << 60, &[7; 8], "cell list overflows a frame");
            refused(4, u64::MAX, &[], "cell list overflows a frame");
            let most = cell_list(prefix, MAX_CELLS as u64, 0, &[]);
            assert_eq!(parse(&most), Ok(()));
            assert_eq!(decode(&most), Err(WireError::BadPayload("cell list too long to own")));
            refused(3, 4, &[7; 11], "cell list exceeds remaining body");
            refused(3, 4, &[7; 13], "trailing bytes after message");
            refused(0, 4, &[7; 4], "trailing bytes after message");
            refused(2, 0, &[7], "trailing bytes after message");
            assert_eq!(decode(&cell_list(prefix, 3, 4, &[7; 12])), Ok(()));
        }
    }

    /// The owned decoders allocate at most 8 bytes per payload byte: one
    /// 24-byte `Vec` per cell, so a list of cells shorter than 3 bytes is
    /// owned only up to one cell per 3 payload bytes. The parser takes it
    /// whole, and cells of 3 bytes or more always pay for their `Vec`s.
    #[test]
    fn owned_decoders_own_what_their_payload_pays_for() {
        for stride in 0..5 {
            for n in [0, 1, 2, 3, 5, 6, 8, 9, 17, 18, 19, 100] {
                let cells = vec![vec![7u8; stride]; n];
                let chunk = Request::InitChunk { done: true, cells: cells.clone() };
                for payload in [Response::Cells(cells).encode(), chunk.encode()] {
                    let paid = 24 * n <= 8 * payload.len();
                    assert!(paid || stride < 3, "{n} cells of {stride} bytes");
                    assert_eq!(parse(&payload), Ok(()));
                    let why = Err(WireError::BadPayload("cell list too long to own"));
                    assert_eq!(decode(&payload), if paid { Ok(()) } else { why });
                }
            }
        }
    }

    #[test]
    fn a_ragged_cell_list_has_no_encoding() {
        let ragged = vec![vec![1u8; 3], vec![2u8; 4]];
        let why = Err(WireError::BadPayload("cells differ in length"));
        let mut out = vec![0xEE; 3];
        assert_eq!(Response::Cells(ragged.clone()).encode_framed_into(5, &mut out), why);
        let chunk = Request::InitChunk { done: true, cells: ragged };
        assert_eq!(chunk.encode_framed_into(5, &mut out), why);
        assert_eq!(out, vec![0xEE; 3], "a refused frame leaves no bytes behind");
    }

    #[test]
    fn visit_cells_borrows_in_order() {
        let payload = Response::Cells(vec![vec![5; 3], vec![9; 3]]).encode();
        assert_eq!(payload.len(), 1 + 8 + 8 + 6, "one stride for the list, no length per cell");
        let mut seen = Vec::new();
        assert!(visit_cells(&payload, |i, c| seen.push((i, c.to_vec()))).unwrap());
        assert_eq!(seen, vec![(0, vec![5; 3]), (1, vec![9; 3])]);
        // Non-Cells payloads are left for the ordinary decoder.
        assert!(!visit_cells(&Response::Ok.encode(), |_, _| {}).unwrap());
    }

    /// A list of stride 0 has no bytes, and still `count` cells.
    #[test]
    fn a_stride_0_cells_answer_is_visited_count_times() {
        let payload = cell_list(&[op::R_CELLS], 5, 0, &[]);
        let mut seen = Vec::new();
        assert!(visit_cells(&payload, |i, c| seen.push((i, c.len()))).unwrap());
        assert_eq!(seen, (0..5).map(|i| (i, 0)).collect::<Vec<_>>());
        assert_eq!(Response::decode(&payload), Ok(Response::Cells(vec![vec![]; 5])));
    }

    /// Retired opcodes among them: the whole-database init (0x02), the
    /// empty init (0x03), the stored-bytes query (0x05), the upload frame
    /// of cells of several lengths (0x0D) and the set-up chunk that gave
    /// each cell a length (0x12) are unknown now, whatever follows them; so
    /// are the `Cells` answer that did the same (0x87) and the retired
    /// failure tag of a never-written cell.
    #[test]
    fn unknown_opcodes_are_typed_errors() {
        for op in [0x7F, 0x02, 0x03, 0x05, 0x0D, 0x12] {
            let payload = [&[op][..], &1u64.to_le_bytes()].concat();
            assert_eq!(Request::decode(&payload[..1]), Err(WireError::UnknownOpcode(op)));
            assert_eq!(Request::decode(&payload), Err(WireError::UnknownOpcode(op)));
        }
        assert_eq!(Response::decode(&[0x20]), Err(WireError::UnknownOpcode(0x20)));
        // The retired `Cells` answer, as its last daemon wrote one cell.
        let old_cells = [&[0x87][..], &1u64.to_le_bytes(), &1u64.to_le_bytes(), &[9]].concat();
        assert_eq!(Response::decode(&old_cells), Err(WireError::UnknownOpcode(0x87)));
        assert_eq!(visit_cells(&old_cells, |_, _| {}), Ok(false));
        // The retired failure tag: what any unknown tag is.
        let never_written = [&[op::R_FAIL, 1][..], &3u64.to_le_bytes()].concat();
        assert_eq!(
            Response::decode(&never_written),
            Err(WireError::BadPayload("unknown server-error tag"))
        );
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

    /// Feeds `bytes` to the assembler the way a socket would: one `read`.
    fn feed(asm: &mut FrameAssembler, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            asm.fill_from(&mut bytes).unwrap();
        }
    }

    /// Every frame the assembler holds, owned.
    fn drain(asm: &mut FrameAssembler) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some((id, payload)) = asm.next_frame().unwrap() {
            out.push((id, payload.to_vec()));
        }
        out
    }

    #[test]
    fn assembler_rejects_dps1_frames() {
        let mut asm = FrameAssembler::new();
        feed(&mut asm, &dps1_ping());
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
        // Feed one byte at a time: frames must pop out exactly at their
        // completion points, in order, with ids intact.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            feed(&mut asm, &[b]);
            got.append(&mut drain(&mut asm));
        }
        assert_eq!(asm.buffered(), 0);
        assert_eq!(
            got,
            vec![
                (6, Request::Ping.encode()),
                (7, Request::Capacity.encode()),
                (8, Request::ReadBatch { addrs: vec![1, 2, 3] }.encode()),
            ]
        );
    }

    #[test]
    fn assembler_rejects_bad_headers_before_the_payload_arrives() {
        let mut asm = FrameAssembler::new();
        feed(&mut asm, b"HTTP");
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic { .. })));

        let mut asm = FrameAssembler::new();
        feed(&mut asm, &MAGIC2.to_le_bytes());
        assert_eq!(asm.next_frame(), Ok(None));
        feed(&mut asm, &(MAX_FRAME as u32 + 1).to_le_bytes());
        // Oversized claim dies at 8 header bytes, long before any payload.
        assert_eq!(asm.next_frame(), Err(WireError::BadLength { len: MAX_FRAME as u64 + 1 }));
    }

    /// A seeded mix of frames from one byte to several read chunks long.
    fn frame_mix(seed: u64, frames: usize) -> (Vec<u8>, Vec<(u64, Vec<u8>)>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        for id in 0..frames as u64 {
            let len = match next() % 10 {
                0 => 1,
                1..=6 => 1 + next() % 300,
                7 | 8 => 1 + next() % 6000,
                _ => READ_CHUNK + next() % (2 * READ_CHUNK),
            };
            let payload: Vec<u8> = (0..len).map(|i| (i as u64 ^ id) as u8).collect();
            stream.extend_from_slice(&frame_v2(id, &payload).unwrap());
            expect.push((id, payload));
        }
        (stream, expect)
    }

    #[test]
    fn assembler_byte_at_a_time_equals_one_shot() {
        let (stream, expect) = frame_mix(0xF00D, 200);

        let mut one_shot = FrameAssembler::new();
        let mut got = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            one_shot.fill_from(&mut rest).unwrap();
            got.append(&mut drain(&mut one_shot));
        }
        assert_eq!(got, expect);

        let mut trickle = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            feed(&mut trickle, &[b]);
            got.append(&mut drain(&mut trickle));
        }
        assert_eq!(got, expect);
        assert_eq!(trickle.buffered(), 0);
    }

    #[test]
    fn a_partial_frame_survives_compaction_and_growth() {
        // A run of small frames walks `start` up the buffer; the big frame
        // behind them is cut mid-payload again and again, so its head is
        // moved to the front (compaction) and the buffer grown around it.
        let small = frame_v2(1, &[7u8; 100]).unwrap();
        let big_payload: Vec<u8> = (0..3 * READ_CHUNK).map(|i| (i % 251) as u8).collect();
        let big = frame_v2(2, &big_payload).unwrap();
        let mut stream = Vec::new();
        for _ in 0..30 {
            stream.extend_from_slice(&small);
        }
        stream.extend_from_slice(&big);
        stream.extend_from_slice(&small);

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in stream.chunks(1000) {
            feed(&mut asm, piece);
            got.append(&mut drain(&mut asm));
        }
        assert_eq!(got.len(), 32);
        assert!(got[..30].iter().all(|f| *f == (1, vec![7u8; 100])));
        assert_eq!(got[30], (2, big_payload));
        assert_eq!(got[31], (1, vec![7u8; 100]));
    }

    #[test]
    fn a_drained_outsize_buffer_is_released() {
        let mut asm = FrameAssembler::new();
        feed(&mut asm, &frame_v2(1, &vec![1u8; 4 * READ_CHUNK]).unwrap());
        assert!(asm.capacity() > 4 * READ_CHUNK);
        assert_eq!(drain(&mut asm).len(), 1);
        assert_eq!(asm.capacity(), 0, "a drained buffer above READ_CHUNK goes back");

        // An ordinary one is kept: the steady state allocates nothing.
        feed(&mut asm, &frame_v2(2, &[2u8; 100]).unwrap());
        let kept = asm.capacity();
        assert_eq!(drain(&mut asm).len(), 1);
        feed(&mut asm, &frame_v2(3, &[3u8; 100]).unwrap());
        assert_eq!(asm.capacity(), kept);
        assert!(kept <= READ_CHUNK);
    }

    /// The buffer follows the bytes received, not the length announced.
    #[test]
    fn a_header_cannot_make_the_assembler_reserve_its_length() {
        let mut header = frame_v2(1, &[0u8; 1]).unwrap();
        header[4..8].copy_from_slice(&(MAX_FRAME as u32).to_le_bytes());
        let mut asm = FrameAssembler::new();
        feed(&mut asm, &header[..HEADER2_LEN]);
        assert_eq!(asm.next_frame(), Ok(None));
        // The header is in and valid; room is made for the next read now.
        feed(&mut asm, &header[HEADER2_LEN..]);
        assert_eq!(asm.next_frame(), Ok(None));
        assert!(asm.capacity() <= 2 * READ_CHUNK);
        assert_eq!(asm.truncated(), WireError::Truncated { expected: MAX_FRAME, got: 1 });
        // The exact-read wrapper neither: it is the same assembler.
        assert_eq!(
            read_frame_v2(&mut &header[..]),
            Err(WireError::Truncated { expected: MAX_FRAME, got: 1 })
        );
    }
}
