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
//! decision.
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
//! refused, not migrated (NOTES.md, entry 14).

use std::fmt;

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
// CRC-32 (IEEE 802.3 polynomial, slicing-by-8; implemented here because the
// container is offline and the workspace deliberately has no external deps).
// ---------------------------------------------------------------------------

/// Table 0 is the classic byte-at-a-time table; table `k` maps byte `b` to
/// the CRC of `b` followed by `k` zero bytes, which lets eight input bytes
/// be folded with eight independent lookups instead of a chain of eight.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE) over the concatenation of `parts`, without materialising
/// the concatenation.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
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

    /// The writes collected, in order.
    pub fn writes(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut cells = &self.cells[..];
        self.addrs
            .chunks_exact(8)
            .zip(self.lens.chunks_exact(4))
            .map(move |(addr, len)| {
                let (cell, rest) =
                    cells.split_at(u32::from_le_bytes(len.try_into().unwrap()) as usize);
                cells = rest;
                (u64::from_le_bytes(addr.try_into().unwrap()) as usize, cell)
            })
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

/// Result of scanning the record region of the WAL.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Complete, checksum-valid records in append order, each the cell
    /// writes of one commit.
    pub records: Vec<Vec<(usize, Vec<u8>)>>,
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
pub(crate) fn scan_records(stamp: u64, bytes: &[u8]) -> Result<WalScan, DiskError> {
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

fn decode_record_payload(payload: &[u8], pos: usize) -> Result<Vec<(usize, Vec<u8>)>, DiskError> {
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
        writes.push((addr as usize, payload[data_pos..end].to_vec()));
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
    /// Arena stride in bytes.
    pub stride: usize,
    /// Per-cell stored lengths.
    pub lens: Vec<u32>,
}

const META_FIXED_LEN: usize = 4 + 4 + 8 + 1 + 8 + 8;

/// Encode a metadata snapshot, including its trailing CRC.
pub(crate) fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut out = Vec::with_capacity(META_FIXED_LEN + meta.lens.len() * 4 + 4);
    out.extend_from_slice(&META_MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&meta.stamp.to_le_bytes());
    out.push(meta.active as u8);
    out.extend_from_slice(&(meta.capacity as u64).to_le_bytes());
    out.extend_from_slice(&(meta.stride as u64).to_le_bytes());
    for len in &meta.lens {
        out.extend_from_slice(&len.to_le_bytes());
    }
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
/// snapshot — recovery treats such a slot as absent and falls back to the
/// other one.
pub(crate) fn decode_meta(bytes: &[u8]) -> Option<Meta> {
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
    let mut lens = Vec::with_capacity(capacity);
    let mut pos = META_FIXED_LEN;
    for _ in 0..capacity {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        if len as usize > stride {
            return None;
        }
        lens.push(len);
        pos += 4;
    }
    Some(Meta { stamp, active, capacity, stride, lens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop slicing-by-8 replaced: the oracle for an
    /// on-disk format that must not move.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
        }
        !c
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926, the classic check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    proptest! {
        /// Same polynomial, same values, whatever the length and however
        /// the input is split into parts (a part boundary falls inside an
        /// 8-byte word almost always).
        #[test]
        fn crc32_slicing_matches_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..9001),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut parts: Vec<&[u8]> = Vec::new();
            let mut start = 0;
            for cut in cuts {
                parts.push(&data[start..cut]);
                start = cut;
            }
            parts.push(&data[start..]);
            let want = crc32_bytewise(&[&data]);
            prop_assert_eq!(crc32(&parts), want);
            prop_assert_eq!(crc32(&[&data]), want);
            prop_assert_eq!(crc32_bytewise(&parts), want);
        }
    }

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
        assert_eq!(
            scan.records[0],
            vec![(3, b"abc".to_vec()), (0, Vec::new()), (7, b"zzzz".to_vec())]
        );
        assert_eq!(scan.records[1], vec![(1, b"x".to_vec())]);
    }

    #[test]
    fn a_batch_is_one_record_that_reads_back_in_order() {
        let mut batch = RecordBuilder::default();
        let writes: [(usize, &[u8]); 4] = [(3, b"abc"), (0, b""), (3, b"later"), (9, b"z")];
        for (addr, cell) in writes {
            batch.push(addr, cell);
        }
        assert_eq!(batch.writes().collect::<Vec<_>>(), writes);
        let len = batch.record_len();
        let record = batch.finish(5).to_vec();
        assert_eq!(record.len(), len);
        let scan = scan_records(5, &record).unwrap();
        assert!(!scan.torn);
        let owned: Vec<(usize, Vec<u8>)> = writes.iter().map(|(a, c)| (*a, c.to_vec())).collect();
        assert_eq!(scan.records, vec![owned]);
        // The builder starts over: the next record carries none of this one.
        assert!(batch.is_empty());
        assert_eq!(batch.writes().count(), 0);
        batch.push(1, b"x");
        assert_eq!(batch.finish(5), &encode_record(5, &[(1, b"x")])[..]);
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
            assert_eq!(scan.records, vec![vec![(0, b"first".to_vec())]], "cut={cut}");
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
                    prop_assert_eq!(scan.records, batches.clone());
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
        let meta = Meta {
            stamp: 7,
            active: 1,
            capacity: 70,
            stride: 16,
            lens: (0..70).map(|i| (i % 17) as u32).collect(),
        };
        let bytes = encode_meta(&meta);
        assert_eq!(decode_meta(&bytes), Some(meta.clone()));

        let mut flipped = bytes.clone();
        flipped[40] ^= 4;
        assert_eq!(decode_meta(&flipped), None);
        assert_eq!(decode_meta(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_meta(&[]), None);

        // A stored length exceeding the stride is structural corruption,
        // and so is an arena whose size overflows.
        let mut wide = meta.clone();
        wide.lens[0] = 17;
        assert_eq!(decode_meta(&encode_meta(&wide)), None);
        let vast = Meta { capacity: 2, stride: 1 << 63, lens: vec![0; 2], ..meta };
        assert_eq!(decode_meta(&encode_meta(&vast)), None);
        assert_eq!(meta_version(&encode_meta(&vast)), Some(FORMAT_VERSION));
        assert_eq!(meta_version(&bytes[..7]), None);
    }
}
