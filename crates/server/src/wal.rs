//! On-disk record formats for the durable [`DiskStore`](crate::DiskStore):
//! a checksummed write-ahead log plus double-buffered metadata snapshots.
//!
//! Everything here is pure codec — no I/O. [`crate::disk`] decides *when*
//! bytes are written and synced; this module decides *what* they look like
//! and how damaged inputs are classified (torn tail vs. corruption).
//!
//! ## WAL layout
//!
//! ```text
//! header  : magic "DPSW" | version u32 | stamp u64 | crc u32      (20 bytes)
//! record* : len u32 | crc u32 | payload (len bytes)
//! payload : tag u8 (=1) | n u32 | addr u64 ×n | len u32 ×n | cell bytes
//! rest    : zeros (never written) or bytes of older generations
//! ```
//!
//! All integers are little-endian. Each record's CRC covers
//! `stamp ‖ len ‖ payload`, binding the record to the checkpoint
//! generation it extends. The file is **preallocated and recycled**
//! ([`crate::disk`] never truncates it: a checkpoint rewrites the header
//! and the next generation overwrites the old records in place), so the
//! stamp in the CRC is what ends the log: the record region is read under
//! the newest snapshot's stamp and stops at the first record that does not
//! validate under it — stale bytes never do. A record is one commit (one
//! upload batch, `RecordBuilder`), written by one `write`.
//! What an invalid record means — the torn tail of the append a crash
//! interrupted, or a rotted acknowledged record — is `scan_records`'
//! decision; the records it returns borrow the log bytes it was given, so
//! recovery holds a log of `B` bytes once, not twice.
//!
//! Every CRC here is CRC-32 (IEEE) from the private `crc` module, whose
//! table and carry-less bodies agree on every input: which one ran never
//! shows in a file (`a_record_crc_is_the_one_format_2_always_wrote` pins
//! one record's value).
//!
//! ## Metadata snapshot layout
//!
//! ```text
//! magic "DPSM" | version u32 | stamp u64 | active u8 | capacity u64 |
//! stride u64 | len u32 ×capacity | crc u32
//! ```
//!
//! A snapshot is valid only if the magic, version, structural lengths, and
//! trailing CRC all check out, and its arena (`capacity × stride` bytes)
//! has a size `usize` can hold; recovery picks the valid snapshot with the
//! highest stamp out of the two alternating slots. Every cell holds a value,
//! so the table has a length per cell and nothing else: format 1 also
//! carried a bitmap of the cells ever written, and a format-1 directory is
//! refused, not migrated (NOTES.md, entry 14). Every cell is one stride
//! long, so every length in the table is the stride: it is written so, and
//! a checksum-valid table that says otherwise — written when cells could
//! differ — is refused as corrupt, never adopted or wiped (NOTES.md, entry
//! 21). The bytes are format 2's; so are a WAL record's length fields,
//! which recovery holds to the stride the same way.

use std::fmt;

use crate::crc::crc32;

/// Magic prefix of the write-ahead log file.
pub(crate) const WAL_MAGIC: [u8; 4] = *b"DPSW";
/// Magic prefix of a metadata snapshot file.
pub(crate) const META_MAGIC: [u8; 4] = *b"DPSM";
/// On-disk format version (shared by the WAL and metadata snapshots).
pub(crate) const FORMAT_VERSION: u32 = 2;
/// Size in bytes of the WAL file header.
pub(crate) const WAL_HEADER_LEN: usize = 20;
/// Size in bytes of a WAL record header (`len u32 | crc u32`).
pub(crate) const RECORD_HEADER_LEN: usize = 8;
/// Upper bound on a single WAL record payload; anything larger is treated
/// as corruption rather than an allocation request.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 30;
/// Payload tag for a cell-write batch record.
pub(crate) const RECORD_TAG_WRITES: u8 = 1;

/// Error surfaced by the durable store when the disk misbehaves.
///
/// `Corrupt` means the on-disk state is internally inconsistent in a way
/// that crash recovery is *not* allowed to paper over (e.g. a complete WAL
/// record whose checksum fails); `Io` wraps an operating-system error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The on-disk state fails validation and cannot be recovered safely.
    Corrupt {
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// An underlying I/O operation failed.
    Io {
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// Human-readable context for the failed operation.
        detail: String,
    },
}

impl DiskError {
    pub(crate) fn corrupt(detail: impl Into<String>) -> Self {
        DiskError::Corrupt { detail: detail.into() }
    }
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Corrupt { detail } => write!(f, "corrupt store: {detail}"),
            DiskError::Io { kind, detail } => write!(f, "disk i/o error ({kind:?}): {detail}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<std::io::Error> for DiskError {
    fn from(e: std::io::Error) -> Self {
        DiskError::Io { kind: e.kind(), detail: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// WAL header
// ---------------------------------------------------------------------------

/// Classification of the bytes at the head of the WAL file. The header is
/// advisory — what the log holds is decided by scanning the record region
/// under the newest snapshot's stamp — but it tells recovery how far the
/// last reset got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalHeader {
    /// A structurally valid header carrying the given generation stamp.
    Valid(u64),
    /// Fewer than [`WAL_HEADER_LEN`] bytes: the log was never set up (or,
    /// in a directory of the truncating era, a reset was interrupted).
    /// Nothing can be behind it.
    TooShort,
    /// A full-length header that fails magic/version/CRC validation: an
    /// interrupted preallocation (zeros), a torn header rewrite, or rot.
    Corrupt,
}

/// Encode the WAL file header for generation `stamp`.
pub(crate) fn encode_wal_header(stamp: u64) -> [u8; WAL_HEADER_LEN] {
    let mut out = [0u8; WAL_HEADER_LEN];
    out[0..4].copy_from_slice(&WAL_MAGIC);
    out[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&stamp.to_le_bytes());
    let crc = crc32(&[&out[0..16]]);
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Classify the head of the WAL file (see [`WalHeader`]).
pub(crate) fn decode_wal_header(bytes: &[u8]) -> WalHeader {
    if bytes.len() < WAL_HEADER_LEN {
        return WalHeader::TooShort;
    }
    let head = &bytes[..WAL_HEADER_LEN];
    if head[0..4] != WAL_MAGIC || head[4..8] != FORMAT_VERSION.to_le_bytes() {
        return WalHeader::Corrupt;
    }
    let crc = u32::from_le_bytes(head[16..20].try_into().unwrap());
    if crc != crc32(&[&head[0..16]]) {
        return WalHeader::Corrupt;
    }
    WalHeader::Valid(u64::from_le_bytes(head[8..16].try_into().unwrap()))
}

// ---------------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------------

/// The one record encoder: collects the cell writes of a commit (one
/// upload batch, in order) and frames them as **one** CRC'd record. The
/// three sections of the payload grow separately because a batch arrives
/// as a single-pass iterator and the format keeps addresses, lengths and
/// cell bytes apart; [`RecordBuilder::finish`] joins them. Every buffer
/// keeps its capacity across commits.
#[derive(Debug, Default)]
pub(crate) struct RecordBuilder {
    addrs: Vec<u8>,
    lens: Vec<u8>,
    cells: Vec<u8>,
    record: Vec<u8>,
}

impl RecordBuilder {
    /// Appends one cell write.
    pub fn push(&mut self, addr: usize, cell: &[u8]) {
        self.addrs.extend_from_slice(&(addr as u64).to_le_bytes());
        self.lens.extend_from_slice(&(cell.len() as u32).to_le_bytes());
        self.cells.extend_from_slice(cell);
    }

    /// Whether no write has been collected.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Size of the record [`RecordBuilder::finish`] would produce.
    pub fn record_len(&self) -> usize {
        RECORD_HEADER_LEN + 1 + 4 + self.addrs.len() + self.lens.len() + self.cells.len()
    }

    /// Frames everything collected as one record (`len | crc | payload`)
    /// bound to generation `stamp`, and starts over. The returned bytes
    /// live until the next call.
    pub fn finish(&mut self, stamp: u64) -> &[u8] {
        let payload_len = (self.record_len() - RECORD_HEADER_LEN) as u32;
        let out = &mut self.record;
        out.clear();
        out.extend_from_slice(&payload_len.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        out.push(RECORD_TAG_WRITES);
        out.extend_from_slice(&(self.lens.len() as u32 / 4).to_le_bytes());
        out.extend_from_slice(&self.addrs);
        out.extend_from_slice(&self.lens);
        out.extend_from_slice(&self.cells);
        let crc = record_crc(stamp, payload_len, &out[RECORD_HEADER_LEN..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        self.addrs.clear();
        self.lens.clear();
        self.cells.clear();
        &self.record
    }
}

fn record_crc(stamp: u64, payload_len: u32, payload: &[u8]) -> u32 {
    crc32(&[&stamp.to_le_bytes(), &payload_len.to_le_bytes(), payload])
}

/// One batch of cell writes as a complete WAL record — what a commit of
/// exactly that batch appends.
#[cfg(test)]
pub(crate) fn encode_record(stamp: u64, writes: &[(usize, &[u8])]) -> Vec<u8> {
    let mut builder = RecordBuilder::default();
    for (addr, cell) in writes {
        builder.push(*addr, cell);
    }
    builder.finish(stamp).to_vec()
}

/// Result of scanning the record region of the WAL: the records borrow
/// the bytes scanned, so recovery holds the log once.
#[derive(Debug)]
pub(crate) struct WalScan<'a> {
    /// Complete, checksum-valid records in append order, each the cell
    /// writes of one commit.
    pub records: Vec<Vec<(usize, &'a [u8])>>,
    /// Whether anything but zeros follows the last valid record: a torn
    /// append, or (in a recycled log) records of older generations — the
    /// two are indistinguishable, so the log may only be restarted under a
    /// new stamp (see [`crate::disk`], invariant I1).
    pub torn: bool,
}

/// The record at `pos`, if one validates under `stamp`: a plausible length
/// that stays inside `bytes` and a matching CRC. Returns the payload.
fn valid_record(stamp: u64, bytes: &[u8], pos: usize) -> Option<&[u8]> {
    let header = bytes.get(pos..pos.checked_add(RECORD_HEADER_LEN)?)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_RECORD_LEN {
        return None;
    }
    let body = pos + RECORD_HEADER_LEN;
    let payload = bytes.get(body..body.checked_add(len as usize)?)?;
    (crc == record_crc(stamp, len, payload)).then_some(payload)
}

/// Scan `bytes` (the WAL contents *after* the header) for records bound to
/// generation `stamp`.
///
/// The log ends at the first record that does not validate under `stamp`
/// (implausible length, runs past the file, bad CRC). In a preallocated,
/// recycled file that is the normal end — zeros or an older generation's
/// bytes follow — and also what an interrupted append leaves, so it is a
/// *torn tail* and is discarded. The exception: if the invalid record's
/// length field points at a record that **does** validate under `stamp`,
/// an append that was acknowledged (a later one completed behind it) has
/// rotted, and that is [`DiskError::Corrupt`] — never silently truncated.
/// A rotted *final* record cannot be told from a torn one and is
/// discarded; a preallocated file has no length to say the append
/// completed. A record whose CRC validates but whose payload does not
/// parse was never written by this code and is `Corrupt` as well.
pub(crate) fn scan_records(stamp: u64, bytes: &[u8]) -> Result<WalScan<'_>, DiskError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(payload) = valid_record(stamp, bytes, pos) {
        records.push(decode_record_payload(payload, pos)?);
        pos += RECORD_HEADER_LEN + payload.len();
    }
    if let Some(len) = bytes.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len.try_into().unwrap());
        if len <= MAX_RECORD_LEN
            && valid_record(stamp, bytes, pos + RECORD_HEADER_LEN + len as usize).is_some()
        {
            return Err(DiskError::corrupt(format!(
                "WAL record at offset {pos} fails its checksum in front of a valid record"
            )));
        }
    }
    let torn = bytes[pos..].iter().any(|&b| b != 0);
    Ok(WalScan { records, torn })
}

fn decode_record_payload(payload: &[u8], pos: usize) -> Result<Vec<(usize, &[u8])>, DiskError> {
    let bad = || DiskError::corrupt(format!("WAL record at offset {pos} has a malformed payload"));
    if payload.is_empty() || payload[0] != RECORD_TAG_WRITES {
        return Err(bad());
    }
    if payload.len() < 5 {
        return Err(bad());
    }
    let n = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
    let addrs_end = 5usize
        .checked_add(n.checked_mul(8).ok_or_else(bad)?)
        .ok_or_else(bad)?;
    let lens_end = addrs_end
        .checked_add(n.checked_mul(4).ok_or_else(bad)?)
        .ok_or_else(bad)?;
    if lens_end > payload.len() {
        return Err(bad());
    }
    let mut writes = Vec::with_capacity(n);
    let mut data_pos = lens_end;
    for i in 0..n {
        let addr = u64::from_le_bytes(payload[5 + i * 8..5 + i * 8 + 8].try_into().unwrap());
        let len = u32::from_le_bytes(
            payload[addrs_end + i * 4..addrs_end + i * 4 + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        let end = data_pos.checked_add(len).ok_or_else(bad)?;
        if end > payload.len() {
            return Err(bad());
        }
        writes.push((addr as usize, &payload[data_pos..end]));
        data_pos = end;
    }
    if data_pos != payload.len() {
        return Err(bad());
    }
    Ok(writes)
}

// ---------------------------------------------------------------------------
// Metadata snapshots
// ---------------------------------------------------------------------------

/// A decoded checkpoint metadata snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Meta {
    /// Monotonic checkpoint generation stamp.
    pub stamp: u64,
    /// Which arena slot (`arena.0` / `arena.1`) holds the checkpointed cells.
    pub active: usize,
    /// Number of cells.
    pub capacity: usize,
    /// Arena stride in bytes: the length of every cell.
    pub stride: usize,
}

const META_FIXED_LEN: usize = 4 + 4 + 8 + 1 + 8 + 8;

/// Encode a metadata snapshot, including its trailing CRC: its table gives
/// every cell the stride.
///
/// # Panics
/// Panics if a store of cells has a stride a `u32` cannot hold (a cell of
/// 4 GiB or more has no length in this format).
pub(crate) fn encode_meta(meta: &Meta) -> Vec<u8> {
    let len = || u32::try_from(meta.stride).expect("a cell of 4 GiB or more");
    encode_meta_table(meta, (0..meta.capacity).map(|_| len()))
}

/// A snapshot of `meta` with the length table `lens` (`meta.capacity` of
/// them).
fn encode_meta_table(meta: &Meta, lens: impl ExactSizeIterator<Item = u32>) -> Vec<u8> {
    let mut out = Vec::with_capacity(META_FIXED_LEN + lens.len() * 4 + 4);
    out.extend_from_slice(&META_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.stamp.to_le_bytes());
    out.push(meta.active as u8);
    out.extend_from_slice(&(meta.capacity as u64).to_le_bytes());
    out.extend_from_slice(&(meta.stride as u64).to_le_bytes());
    for len in lens {
        out.extend_from_slice(&len.to_le_bytes());
    }
    let crc = crc32(&[&out]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A snapshot whose table holds `lens` — what only a store of unequal
/// cells ever wrote.
#[cfg(test)]
pub(crate) fn encode_meta_with_lens(meta: &Meta, lens: &[u32]) -> Vec<u8> {
    assert_eq!(lens.len(), meta.capacity);
    encode_meta_table(meta, lens.iter().copied())
}

/// The format version a file declares, if it starts with the snapshot
/// magic: how recovery tells a snapshot of another format from a damaged
/// one.
pub(crate) fn meta_version(bytes: &[u8]) -> Option<u32> {
    let head = bytes.get(..8)?;
    (head[..4] == META_MAGIC).then(|| u32::from_le_bytes(head[4..8].try_into().unwrap()))
}

/// Decode and validate a metadata snapshot. Returns `Ok(None)` for
/// anything that is not a complete, structurally consistent,
/// checksum-valid snapshot — recovery treats such a slot as absent and
/// falls back to the other one — and `Err`, naming the cell and both
/// lengths, for a valid one whose table gives a cell another length than
/// the stride.
pub(crate) fn decode_meta(bytes: &[u8]) -> Result<Option<Meta>, String> {
    let Some((meta, table)) = decode_meta_parts(bytes) else { return Ok(None) };
    let lens = table
        .chunks_exact(4)
        .map(|len| u32::from_le_bytes(len.try_into().unwrap()));
    match lens.enumerate().find(|&(_, len)| len as usize != meta.stride) {
        Some((addr, len)) => Err(format!(
            "snapshot gives cell {addr} a length of {len} bytes, not the stride of {}",
            meta.stride
        )),
        None => Ok(Some(meta)),
    }
}

/// The fields of a snapshot that checks out, and its length table.
fn decode_meta_parts(bytes: &[u8]) -> Option<(Meta, &[u8])> {
    if bytes.len() < META_FIXED_LEN + 4 {
        return None;
    }
    if bytes[0..4] != META_MAGIC || bytes[4..8] != FORMAT_VERSION.to_le_bytes() {
        return None;
    }
    let stamp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let active = bytes[16] as usize;
    if active > 1 {
        return None;
    }
    let capacity = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
    let stride = u64::from_le_bytes(bytes[25..33].try_into().unwrap());
    if capacity > u64::MAX / 8 || capacity > usize::MAX as u64 / 8 {
        return None;
    }
    let capacity = capacity as usize;
    let stride = usize::try_from(stride).ok()?;
    // An arena no address arithmetic can span is structural corruption.
    capacity.checked_mul(stride)?;
    let expect = META_FIXED_LEN + capacity * 4 + 4;
    if bytes.len() != expect {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[expect - 4..].try_into().unwrap());
    if crc != crc32(&[&bytes[..expect - 4]]) {
        return None;
    }
    Some((Meta { stamp, active, capacity, stride }, &bytes[META_FIXED_LEN..expect - 4]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wal_header_round_trip() {
        let h = encode_wal_header(42);
        assert_eq!(decode_wal_header(&h), WalHeader::Valid(42));
        assert_eq!(decode_wal_header(&h[..19]), WalHeader::TooShort);
        let mut bad = h;
        bad[9] ^= 1;
        assert_eq!(decode_wal_header(&bad), WalHeader::Corrupt);
        assert_eq!(decode_wal_header(&[0u8; 64]), WalHeader::Corrupt);
    }

    #[test]
    fn record_round_trip_including_empty_cells() {
        let writes: Vec<(usize, &[u8])> = vec![(3, b"abc"), (0, b""), (7, b"zzzz")];
        let mut bytes = encode_record(9, &writes);
        bytes.extend_from_slice(&encode_record(9, &[(1, b"x")]));
        let scan = scan_records(9, &bytes).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], writes);
        assert_eq!(scan.records[1], vec![(1, &b"x"[..])]);
    }

    #[test]
    fn a_batch_is_one_record_that_reads_back_in_order() {
        let mut batch = RecordBuilder::default();
        let writes: [(usize, &[u8]); 4] = [(3, b"abc"), (0, b""), (3, b"later"), (9, b"z")];
        for (addr, cell) in writes {
            batch.push(addr, cell);
        }
        let len = batch.record_len();
        let record = batch.finish(5).to_vec();
        assert_eq!(record.len(), len);
        let scan = scan_records(5, &record).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, vec![writes.to_vec()]);
        // The builder starts over: the next record carries none of this one.
        assert!(batch.is_empty());
        batch.push(1, b"x");
        assert_eq!(batch.finish(5), &encode_record(5, &[(1, b"x")])[..]);
    }

    /// A record's bytes are the on-disk format: this CRC was computed by
    /// the table-only code that wrote the first format-2 logs, so a log
    /// written then still validates whichever CRC body runs now (the
    /// 256-byte payload is long enough for the carry-less one).
    #[test]
    fn a_record_crc_is_the_one_format_2_always_wrote() {
        let record = encode_record(7, &[(1, &[0xA1; 8]), (4, &[0xA4; 219])]);
        assert_eq!(record.len(), RECORD_HEADER_LEN + 256);
        assert_eq!(u32::from_le_bytes(record[4..8].try_into().unwrap()), 0x7410_3E07);
        assert_eq!(scan_records(7, &record).unwrap().records.len(), 1);
    }

    #[test]
    fn torn_tail_is_discarded_but_bad_crc_is_corruption() {
        let rec = encode_record(1, &[(2, b"hello")]);
        let full = encode_record(1, &[(0, b"first")]);

        // Truncated tail: every strict prefix of the second record is torn.
        for cut in 0..rec.len() {
            let mut bytes = full.clone();
            bytes.extend_from_slice(&rec[..cut]);
            let scan = scan_records(1, &bytes).unwrap();
            assert_eq!(scan.records, vec![vec![(0, &b"first"[..])]], "cut={cut}");
            assert_eq!(scan.torn, cut != 0, "cut={cut}");
        }

        // Complete *last* record, flipped payload bit: in a preallocated
        // log nothing says the append completed, so it is a torn tail.
        let mut bytes = full.clone();
        let mut bad = rec.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        bytes.extend_from_slice(&bad);
        let scan = scan_records(1, &bytes).unwrap();
        assert_eq!((scan.records.len(), scan.torn), (1, true));

        // The same record with a valid one behind it was acknowledged:
        // typed corruption, whether the payload or the CRC field rotted.
        bytes.extend_from_slice(&full);
        assert!(matches!(scan_records(1, &bytes), Err(DiskError::Corrupt { .. })));
        bytes[full.len() + last] ^= 0x80;
        assert_eq!(scan_records(1, &bytes).unwrap().records.len(), 3);
        bytes[full.len() + 5] ^= 0x01;
        assert!(matches!(scan_records(1, &bytes), Err(DiskError::Corrupt { .. })));

        // Records of another generation never validate: to the scan they
        // are the bytes a recycled log has behind its end.
        let scan = scan_records(2, &full).unwrap();
        assert_eq!((scan.records.len(), scan.torn), (0, true));
    }

    #[test]
    fn checksum_valid_but_malformed_payload_is_corruption() {
        // A record whose CRC matches was written whole; if its payload does
        // not parse, no crash explains it.
        let payload = [7u8, 0, 0, 0, 0]; // unknown tag
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&record_crc(3, payload.len() as u32, &payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(scan_records(3, &bytes), Err(DiskError::Corrupt { .. })));
    }

    proptest! {
        /// valid prefix ‖ arbitrary bytes: the scan yields exactly the
        /// prefix's records (or typed corruption), never a record made of
        /// the arbitrary bytes — unless they hold a record valid under the
        /// stamp, which is then the log's honest continuation.
        #[test]
        fn scan_never_reads_a_record_out_of_garbage(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..64, proptest::collection::vec(any::<u8>(), 0..24)), 0..4),
                0..5),
            garbage in proptest::collection::vec(any::<u8>(), 0..200),
            stale_generation in proptest::collection::vec(
                (0usize..64, proptest::collection::vec(any::<u8>(), 0..24)), 0..4),
            continuation in any::<bool>(),
        ) {
            let stamp = 11;
            let encode = |stamp: u64, batch: &[(usize, Vec<u8>)]| {
                let writes: Vec<(usize, &[u8])> =
                    batch.iter().map(|(a, c)| (*a, c.as_slice())).collect();
                encode_record(stamp, &writes)
            };
            let mut bytes = Vec::new();
            for batch in &batches {
                bytes.extend_from_slice(&encode(stamp, batch));
            }
            // What a recycled log has behind its end: a record of an older
            // generation, then anything at all.
            bytes.extend_from_slice(&encode(stamp - 1, &stale_generation));
            bytes.extend_from_slice(&garbage);
            if continuation {
                bytes.extend_from_slice(&encode(stamp, &stale_generation));
            }
            match scan_records(stamp, &bytes) {
                Ok(scan) => {
                    let want: Vec<Vec<(usize, &[u8])>> = batches
                        .iter()
                        .map(|batch| batch.iter().map(|(a, c)| (*a, c.as_slice())).collect())
                        .collect();
                    prop_assert_eq!(scan.records, want);
                }
                // Only a valid record under the stamp behind the invalid
                // one can turn the end of the log into corruption.
                Err(DiskError::Corrupt { .. }) => prop_assert!(continuation),
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }

    #[test]
    fn meta_round_trip_and_validation() {
        let meta = Meta { stamp: 7, active: 1, capacity: 70, stride: 16 };
        let bytes = encode_meta(&meta);
        assert_eq!(bytes, encode_meta_with_lens(&meta, &[16; 70]), "every length is the stride");
        assert_eq!(decode_meta(&bytes), Ok(Some(meta.clone())));

        let mut flipped = bytes.clone();
        flipped[40] ^= 4;
        assert_eq!(decode_meta(&flipped), Ok(None));
        assert_eq!(decode_meta(&bytes[..bytes.len() - 1]), Ok(None));
        assert_eq!(decode_meta(&[]), Ok(None));

        // A valid table with a length other than the stride, shorter or
        // longer, is refused naming the cell; an arena whose size
        // overflows is structural corruption.
        for len in [0, 15, 17] {
            let mut lens = [16; 70];
            lens[33] = len;
            let refused = decode_meta(&encode_meta_with_lens(&meta, &lens)).unwrap_err();
            let named = format!("cell 33 a length of {len} bytes, not the stride of 16");
            assert!(refused.contains(&named), "{refused}");
        }
        let vast = Meta { capacity: 2, stride: 1 << 63, ..meta };
        let vast = encode_meta_with_lens(&vast, &[0; 2]);
        assert_eq!(decode_meta(&vast), Ok(None));
        assert_eq!(meta_version(&vast), Some(FORMAT_VERSION));
        assert_eq!(meta_version(&bytes[..7]), None);
    }
}
