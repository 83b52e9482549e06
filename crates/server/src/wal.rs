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
//! payload : tag u8 (=1) | n u32 | addr u64 ×n | cell bytes (n × stride)
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
//! A record's cells carry no lengths: each is the stride of the snapshot
//! whose stamp its CRC binds, which is sound because only a set-up's
//! geometry checkpoint changes the stride and every checkpoint bumps the
//! stamp (NOTES.md, entry 29). A checksum-valid record that is not `n`
//! addresses and `n` strides of bytes is corrupt.
//!
//! Every CRC here is CRC-32 (IEEE) from the private `crc` module, whose
//! table and carry-less bodies agree on every input: which one ran never
//! shows in a file (`a_record_crc_is_the_one_format_3_always_wrote` pins
//! one record's value).
//!
//! ## Metadata snapshot layout
//!
//! ```text
//! magic "DPSM" | version u32 | stamp u64 | active u8 | capacity u64 |
//! stride u64 | crc u32                                            (37 bytes)
//! ```
//!
//! A snapshot is valid only if the magic, version, length and trailing CRC
//! all check out, and its arena (`capacity × stride` bytes) has a size
//! `usize` can hold; recovery picks the valid snapshot with the highest
//! stamp out of the two alternating slots. Format 1 also carried a bitmap
//! of the cells ever written, and format 2 a length per cell; a directory
//! of either is refused, not migrated (NOTES.md, entries 14 and 29).

use std::fmt;

use crate::crc::crc32;

/// Magic prefix of the write-ahead log file.
pub(crate) const WAL_MAGIC: [u8; 4] = *b"DPSW";
/// Magic prefix of a metadata snapshot file.
pub(crate) const META_MAGIC: [u8; 4] = *b"DPSM";
/// On-disk format version (shared by the WAL and metadata snapshots).
pub(crate) const FORMAT_VERSION: u32 = 3;
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
/// two sections of the payload grow separately because a batch arrives
/// as a single-pass iterator and the format keeps addresses and cell bytes
/// apart; [`RecordBuilder::finish`] joins them. Every buffer keeps its
/// capacity across commits.
#[derive(Debug, Default)]
pub(crate) struct RecordBuilder {
    addrs: Vec<u8>,
    cells: Vec<u8>,
    record: Vec<u8>,
}

impl RecordBuilder {
    /// Appends one cell write; the cell is the store's stride long.
    pub fn push(&mut self, addr: usize, cell: &[u8]) {
        self.addrs.extend_from_slice(&(addr as u64).to_le_bytes());
        self.cells.extend_from_slice(cell);
    }

    /// Whether no write has been collected.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Size of the record [`RecordBuilder::finish`] would produce.
    pub fn record_len(&self) -> usize {
        RECORD_HEADER_LEN + 1 + 4 + self.addrs.len() + self.cells.len()
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
        out.extend_from_slice(&(self.addrs.len() as u32 / 8).to_le_bytes());
        out.extend_from_slice(&self.addrs);
        out.extend_from_slice(&self.cells);
        let crc = record_crc(stamp, payload_len, &out[RECORD_HEADER_LEN..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        self.addrs.clear();
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
/// generation `stamp`, whose cells are `stride` bytes each.
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
/// parse — `n` addresses and `n × stride` bytes — was never written by
/// this code and is `Corrupt` as well.
pub(crate) fn scan_records(
    stamp: u64,
    stride: usize,
    bytes: &[u8],
) -> Result<WalScan<'_>, DiskError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(payload) = valid_record(stamp, bytes, pos) {
        records.push(decode_record_payload(payload, stride, pos)?);
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

fn decode_record_payload(
    payload: &[u8],
    stride: usize,
    pos: usize,
) -> Result<Vec<(usize, &[u8])>, DiskError> {
    let bad = || DiskError::corrupt(format!("WAL record at offset {pos} has a malformed payload"));
    let (tag, rest) = payload.split_first().ok_or_else(bad)?;
    if *tag != RECORD_TAG_WRITES || rest.len() < 4 {
        return Err(bad());
    }
    let (n, rest) = rest.split_at(4);
    let n = u32::from_le_bytes(n.try_into().unwrap()) as usize;
    let addrs_len = n.checked_mul(8).ok_or_else(bad)?;
    let cells_len = n.checked_mul(stride).ok_or_else(bad)?;
    if addrs_len.checked_add(cells_len) != Some(rest.len()) {
        return Err(bad());
    }
    let (addrs, cells) = rest.split_at(addrs_len);
    let cell = |i: usize| &cells[i * stride..(i + 1) * stride];
    let addr = |raw: &[u8]| u64::from_le_bytes(raw.try_into().unwrap()) as usize;
    Ok(addrs
        .chunks_exact(8)
        .enumerate()
        .map(|(i, raw)| (addr(raw), cell(i)))
        .collect())
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

/// Bytes of a metadata snapshot, its CRC included.
const META_LEN: usize = 4 + 4 + 8 + 1 + 8 + 8 + 4;

/// Encode a metadata snapshot, including its trailing CRC.
pub(crate) fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut out = Vec::with_capacity(META_LEN);
    out.extend_from_slice(&META_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.stamp.to_le_bytes());
    out.push(meta.active as u8);
    out.extend_from_slice(&(meta.capacity as u64).to_le_bytes());
    out.extend_from_slice(&(meta.stride as u64).to_le_bytes());
    let crc = crc32(&[&out]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The format version a file declares, if it starts with the snapshot
/// magic: how recovery tells a snapshot of another format from a damaged
/// one.
pub(crate) fn meta_version(bytes: &[u8]) -> Option<u32> {
    let head = bytes.get(..8)?;
    (head[..4] == META_MAGIC).then(|| u32::from_le_bytes(head[4..8].try_into().unwrap()))
}

/// Decode and validate a metadata snapshot. Returns `None` for anything
/// that is not a complete, structurally consistent, checksum-valid
/// snapshot of this format — recovery treats such a slot as absent and
/// falls back to the other one.
pub(crate) fn decode_meta(bytes: &[u8]) -> Option<Meta> {
    if bytes.len() != META_LEN
        || bytes[0..4] != META_MAGIC
        || bytes[4..8] != FORMAT_VERSION.to_le_bytes()
    {
        return None;
    }
    let crc = u32::from_le_bytes(bytes[META_LEN - 4..].try_into().unwrap());
    if crc != crc32(&[&bytes[..META_LEN - 4]]) {
        return None;
    }
    let stamp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let active = bytes[16] as usize;
    let capacity = usize::try_from(u64::from_le_bytes(bytes[17..25].try_into().unwrap())).ok()?;
    let stride = usize::try_from(u64::from_le_bytes(bytes[25..33].try_into().unwrap())).ok()?;
    // An arena no address arithmetic can span is structural corruption.
    (active <= 1 && capacity.checked_mul(stride).is_some()).then_some(Meta {
        stamp,
        active,
        capacity,
        stride,
    })
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
        let writes: Vec<(usize, &[u8])> = vec![(3, b"abc"), (0, b"def"), (7, b"zzz")];
        let mut bytes = encode_record(9, &writes);
        bytes.extend_from_slice(&encode_record(9, &[(1, b"xyz")]));
        let scan = scan_records(9, 3, &bytes).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0], writes);
        assert_eq!(scan.records[1], vec![(1, &b"xyz"[..])]);
        // At stride 0 a record is its addresses.
        let empty = encode_record(9, &[(5, b""), (2, b"")]);
        assert_eq!(empty.len(), RECORD_HEADER_LEN + 1 + 4 + 16);
        let scan = scan_records(9, 0, &empty).unwrap();
        assert_eq!(scan.records, vec![vec![(5, &b""[..]), (2, &b""[..])]]);
    }

    #[test]
    fn a_batch_is_one_record_that_reads_back_in_order() {
        let mut batch = RecordBuilder::default();
        let writes: [(usize, &[u8]); 4] = [(3, b"abc"), (0, b"def"), (3, b"ghi"), (9, b"zzz")];
        for (addr, cell) in writes {
            batch.push(addr, cell);
        }
        let len = batch.record_len();
        let record = batch.finish(5).to_vec();
        assert_eq!(record.len(), len);
        assert_eq!(len, RECORD_HEADER_LEN + 1 + 4 + 4 * 8 + 4 * 3, "no length per cell");
        let scan = scan_records(5, 3, &record).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records, vec![writes.to_vec()]);
        // The builder starts over: the next record carries none of this one.
        assert!(batch.is_empty());
        batch.push(1, b"xyz");
        assert_eq!(batch.finish(5), &encode_record(5, &[(1, b"xyz")])[..]);
    }

    /// A record's bytes are the on-disk format: this CRC is CRC-32 (IEEE)
    /// of the record as format 3 lays it out, as an independent
    /// implementation (zlib's `crc32`) computes it, so a log written by any
    /// build of format 3 validates whichever CRC body runs now (the
    /// 257-byte payload is long enough for the carry-less one).
    #[test]
    fn a_record_crc_is_the_one_format_3_always_wrote() {
        let record = encode_record(7, &[(1, &[0xA1; 118]), (4, &[0xA4; 118])]);
        assert_eq!(record.len(), RECORD_HEADER_LEN + 257);
        assert_eq!(u32::from_le_bytes(record[4..8].try_into().unwrap()), 0x38D0_DF9B);
        assert_eq!(scan_records(7, 118, &record).unwrap().records.len(), 1);
    }

    #[test]
    fn torn_tail_is_discarded_but_bad_crc_is_corruption() {
        let rec = encode_record(1, &[(2, b"hello")]);
        let full = encode_record(1, &[(0, b"first")]);
        fn scan_records(stamp: u64, bytes: &[u8]) -> Result<WalScan<'_>, DiskError> {
            super::scan_records(stamp, 5, bytes)
        }

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
        assert!(matches!(scan_records(3, 0, &bytes), Err(DiskError::Corrupt { .. })));

        // Read under another stride than its cells', a record is `n`
        // addresses and the wrong number of bytes: corrupt, never cells
        // cut at the wrong places.
        let record = encode_record(4, &[(1, &[0xA1; 8]), (2, &[0xA2; 8])]);
        assert_eq!(scan_records(4, 8, &record).unwrap().records.len(), 1);
        for stride in [0, 4, 7, 9, 16, usize::MAX] {
            let refused = scan_records(4, stride, &record).unwrap_err();
            assert!(refused.to_string().contains("malformed payload"), "{stride}: {refused}");
        }
    }

    proptest! {
        /// valid prefix ‖ arbitrary bytes: the scan yields exactly the
        /// prefix's records (or typed corruption), never a record made of
        /// the arbitrary bytes — unless they hold a record valid under the
        /// stamp, which is then the log's honest continuation.
        #[test]
        fn scan_never_reads_a_record_out_of_garbage(
            stride in 0usize..24,
            batches in proptest::collection::vec(
                proptest::collection::vec((0usize..64, any::<u8>()), 0..4),
                0..5),
            garbage in proptest::collection::vec(any::<u8>(), 0..200),
            stale_generation in proptest::collection::vec((0usize..64, any::<u8>()), 0..4),
            continuation in any::<bool>(),
        ) {
            let stamp = 11;
            let cells = |batch: &[(usize, u8)]| -> Vec<(usize, Vec<u8>)> {
                batch.iter().map(|&(a, byte)| (a, vec![byte; stride])).collect()
            };
            let encode = |stamp: u64, batch: &[(usize, u8)]| {
                let batch = cells(batch);
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
            match scan_records(stamp, stride, &bytes) {
                Ok(scan) => {
                    let want: Vec<Vec<(usize, Vec<u8>)>> =
                        batches.iter().map(|batch| cells(batch)).collect();
                    let got: Vec<Vec<(usize, Vec<u8>)>> = scan
                        .records
                        .iter()
                        .map(|record| record.iter().map(|(a, c)| (*a, c.to_vec())).collect())
                        .collect();
                    prop_assert_eq!(got, want);
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
        assert_eq!(bytes.len(), META_LEN, "the geometry is the whole snapshot");
        assert_eq!(decode_meta(&bytes), Some(meta.clone()));

        let mut flipped = bytes.clone();
        flipped[30] ^= 4;
        assert_eq!(decode_meta(&flipped), None);
        assert_eq!(decode_meta(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_meta(&[bytes.clone(), vec![0]].concat()), None);
        assert_eq!(decode_meta(&[]), None);

        // An arena whose size overflows, or a slot that does not exist, is
        // structural corruption.
        let vast = encode_meta(&Meta { capacity: 2, stride: 1 << 63, ..meta });
        assert_eq!(decode_meta(&vast), None);
        assert_eq!(decode_meta(&encode_meta(&Meta { active: 2, ..meta })), None);
        assert_eq!(meta_version(&vast), Some(FORMAT_VERSION));
        assert_eq!(meta_version(&bytes[..7]), None);
    }
}
