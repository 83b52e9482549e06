//! Durable, crash-safe storage backend: [`DiskStore`].
//!
//! `DiskStore` is the model of [`crate::server`] ([`Accounted`]) over
//! [`DiskBackend`], a write-ahead-logged, file-backed
//! [`CellBackend`] that serves databases **larger than RAM**. Bounds
//! checks, cost counters and the transcript are the model's; this module
//! only keeps cells — `get` and `put`. Every cell is one stride long
//! (NOTES.md, entry 21), so the geometry — capacity and stride — is all the
//! metadata there is; cell *payloads* live in the arena file, and RAM holds
//! only what the arena lacks (`cache.rs`, NOTES.md entry 12):
//!
//! - a read **hit** is a *dirty* cell — written since the last write-back —
//!   and hands out a slice borrowed straight from the cache slab, the same
//!   zero-copy surface as [`SimServer`](crate::SimServer);
//! - a read **miss** is a *clean* cell, so the active arena file has its
//!   bytes, and the file is asked to [lend](DiskFile::lend) them:
//!   production's [`RealFile`] answers with a slice of a read-only shared
//!   mapping of the arena — no system call, no copy here; the only copy is
//!   the one the caller's visitor makes (the daemon's, straight into its
//!   send buffer). A file that does not lend (the crash simulator,
//!   `dpbench`'s timed VFS) is read instead: one `pread`-style
//!   [`DiskFile::read_at`] into a scratch buffer the backend owns, which
//!   only has to outlive the one cell the model hands to its visitor before
//!   the next `get`. Either way a clean cell takes no slot, and which path
//!   runs is decided by the file type, not by an option (NOTES.md, entry
//!   10). The lent path is prefetched per batch: before the model visits a
//!   batch, [`CellBackend::prefetch`] hands the file
//!   ([`DiskFile::prefetch`]) each clean cell it will lend, so the batch's
//!   cache misses overlap instead of stalling one by one inside the copy
//!   (a hint: no I/O, no counter; NOTES.md, entry 26);
//! - when [`DiskOptions::cache_bytes`] covers the whole database the cache
//!   is instead an *identity* mirror of the arena, and every read is a hit;
//! - hits and misses are counted here ([`CacheTelemetry`]; a lent read is a
//!   miss — it was not served from this program's cache) and surfaced as the
//!   `cache_*` counters in [`CostStats`](crate::CostStats) (excluded from the
//!   paper's cost model — compare with
//!   [`CostStats::sans_cache`](crate::CostStats::sans_cache)).
//!
//! ## Mutation: an acknowledgement is a synced commit
//!
//! Every non-empty upload is applied to the cache as *dirty* cells and
//! *committed* before `put` returns: the batch is framed as **one**
//! checksummed WAL record, written with **one** `write_at` at the log's
//! end and fsynced. `Ok` therefore always means durable — for an
//! in-process caller and for the network daemon's client alike, whose
//! response leaves only after the call returned (every durability point
//! syncs; no option skips or defers it — NOTES.md, entries 14 and 18). That
//! write and that sync are all the I/O an acknowledged upload costs: the
//! log file is preallocated to [`DiskOptions::wal_checkpoint_bytes`] and
//! recycled, so the write lands in blocks the file already owns and the
//! sync flushes data only — no file size for the filesystem to journal.
//!
//! A cell therefore moves through two states. *WAL-durable*: its record's
//! fsync has completed — what `Ok` promises. *In the arena*: written back to
//! its slot of the arena file — which no acknowledgement waits for. A
//! WAL-durable cell stays dirty — resident, and never read from the
//! arena's stale bytes — until `write_back` copies it out, which happens in
//! two places only: inside a checkpoint, and after a commit that leaves
//! more dirty cells than the byte budget has slots. Write-back empties a
//! bounded cache: from then on the arena serves those cells.
//! Write-back runs only between batches, so the arena never holds bytes
//! that no durable WAL record covers; it sorts the dirty cells by address
//! and issues one write per run of adjacent cells — in identity mode,
//! where the slab *is* the arena image, also across gaps of up to one page
//! (`WRITE_BACK_GAP`) of clean bytes, which the kernel would write back
//! with their neighbours anyway.
//!
//! Recovery always lands on a batch boundary of the committed prefix — the
//! acked-prefix contract that `crash_recovery` sweeps; a batch is one
//! record, so it is kept or lost whole.
//!
//! A *checkpoint* makes the arena authoritative again and recycles the
//! log: write back every dirty cell, sync the arena, write a metadata
//! snapshot (the geometry) with a bumped generation stamp, then rewrite
//! the WAL header with the new stamp — one write, one sync; the old generation's records stay where they are
//! and are overwritten as the new one grows. Snapshots alternate between
//! two metadata files and — for the geometry checkpoint of a set-up, the
//! only thing that changes capacity or stride — between two arena files, so
//! a torn write can never damage the checkpoint being superseded.
//!
//! ## Recovery, and what makes a recycled log sound
//!
//! [`DiskStore::open`] picks the newest valid snapshot, scans the log's
//! record region **under that snapshot's stamp**, replays the records that
//! validate *in place* over the arena (replay is idempotent, so a crash
//! mid-recovery just re-runs it) and folds them into a fresh checkpoint.
//! Four invariants carry this; each has a test in `crash_recovery` or
//! [`crate::wal`].
//!
//! - **I1 — stale bytes never validate.** A record's CRC covers the stamp
//!   it was written under, and the log restarts at offset 20 only under a
//!   stamp no byte of the record region was ever written under: every
//!   checkpoint bumps it, and recovery, when it finds an empty log with
//!   anything but zeros behind it, restarts through a checkpoint too
//!   instead of reusing the stamp — the bytes may be a torn append of this
//!   very generation, and a later record of the same length in front of
//!   them could make its tail readable again.
//! - **I2 — one CRC'd unit per commit.** A batch is one record and one
//!   write, so a torn write damages one record — the last — and cannot
//!   leave a valid record behind an invalid one.
//! - **I3 — the log ends at the first record that does not validate**
//!   under the snapshot's stamp. That is a *torn tail*, discarded —
//!   unless a record that does validate follows where its length field
//!   points, which by I1 and I2 can only mean an acknowledged record
//!   rotted: [`DiskError::Corrupt`]. The price of having no file length
//!   to consult: a rotted *final* record is indistinguishable from a torn
//!   append and is discarded like one.
//! - **I4 — the header is advisory.** Older than the snapshot (the crash
//!   fell between the snapshot and the header rewrite), torn, or zeros (an
//!   interrupted preallocation), with no valid record behind it: an empty
//!   log, and the header is rewritten — through a checkpoint whenever a
//!   record may already have been written under the current stamp (I1).
//!   An invalid or older header in front of a record that validates, or a
//!   valid header *newer* than every snapshot, is `Corrupt`.
//!
//! A log shorter than the budget (records of the current stamp behind the
//! header, no preallocation behind them) reads the same way and is grown to
//! the preallocated size at its next checkpoint. (The truncate-and-append
//! version of this store wrote such logs; its directories are on-disk
//! format 1, and refused.)
//!
//! **Another format is refused, never wiped.** A snapshot file that carries
//! the snapshot magic under another format version — a directory written
//! before format 2 dropped the init bitmap, or before format 3 dropped the
//! length of each cell from snapshots and WAL records — makes `open` fail
//! with [`DiskError::Corrupt`] naming both versions when no snapshot of
//! this format decodes, and no file is touched. Without that check such a
//! directory with no usable log would look fresh, and the fresh store's
//! first checkpoint would empty its arena. There is no migration: no such
//! directory was ever deployed (NOTES.md, entries 14 and 29). A WAL
//! record's cells are the stride of the snapshot whose stamp it carries
//! (the stride changes only at a set-up's geometry checkpoint, which bumps
//! the stamp), so a checksum-valid record that is not `n` addresses and
//! `n` strides of bytes is corrupt too.
//!
//! All I/O goes through the [`Vfs`]/[`DiskFile`] traits; production uses
//! [`RealVfs`] (plain files + `pwrite`), tests use
//! [`crate::CrashSim`], a deterministic crash-injection implementation.
//!
//! ## Failure semantics
//!
//! The first I/O error *poisons* the store: the failing operation returns
//! [`ServerError::Interrupted`] (matching the network client's typed
//! surface for "application state unknown") and every later mutation fails
//! fast the same way (after the model's bounds check: an out-of-range
//! address is `OutOfBounds`, and a cell of another length than the stride
//! `WrongCellLength`, on a poisoned store too). Reads keep serving **cache
//! hits** (every dirty cell: the acknowledged ones, and the cells of the
//! batch whose commit failed — "state unknown" allows either value, and in
//! identity mode every cell), but a cache *miss* would have to touch the failing
//! arena file — lent or read — so it also returns `Interrupted` instead of
//! handing back bytes of unknown provenance; and a poisoned store never
//! writes back. The recovery path is to drop the store and `open` the
//! directory again. Behind the network daemon every one of these answers
//! travels in-band: a refused upload or a failed miss is a
//! `Fail(Interrupted)` response on a connection that stays up, and hits and
//! pings are still served.
//!
//! One failure has no typed surface on real files: a *media* error under a
//! mapped arena page reaches the process as `SIGBUS`, not as `EIO` from a
//! `pread`, and kills it. A daemon's client sees its connection close —
//! the same `Interrupted` — and the recovery is the same reopen (NOTES.md,
//! entry 10, states the trade). The mapping never covers bytes the file
//! does not have, so nothing this store does to its own files can raise it.

use std::io;
use std::path::{Path, PathBuf};

use crate::cache::CellCache;
use crate::mapping::MappedFile;
use crate::server::{Accounted, CellBackend, ServerError};
use crate::settings;
use crate::stats::CacheTelemetry;
use crate::store::CellStore;
use crate::wal::{
    decode_meta, decode_wal_header, encode_meta, encode_wal_header, meta_version, scan_records,
    DiskError, Meta, RecordBuilder, WalHeader, FORMAT_VERSION, WAL_HEADER_LEN,
};

/// One open file inside a [`Vfs`]: positioned reads/writes plus explicit
/// durability control. Implementations must make `write_at` all-or-error
/// at the API level (partial writes are modelled by the crash simulator,
/// not leaked to callers).
pub trait DiskFile: Send + std::fmt::Debug {
    /// Reads as many bytes as available at `offset` into `buf`, returning
    /// the count (short only at end-of-file).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes all of `buf` at `offset`, extending the file as needed.
    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()>;
    /// Forces all previous writes to stable storage (`fsync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Current file length in bytes.
    fn file_len(&self) -> io::Result<u64>;
    /// Truncates or extends the file to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Lends the `len` bytes at `offset` without copying them, when the
    /// file can: the bytes a `read_at` of the same range would return,
    /// borrowed for as long as the file is (every mutation is `&mut self`,
    /// so no lent slice is live across a write). `None` — the default —
    /// means "read it yourself": the range is not wholly inside the file,
    /// or this kind of file has nothing to lend from.
    fn lend(&self, _offset: u64, _len: usize) -> Option<&[u8]> {
        None
    }
    /// A hint that the `len` bytes at `offset` are about to be
    /// [lent](DiskFile::lend): a file that lends from memory may start
    /// bringing them into the CPU cache. No I/O, no fault, no effect on
    /// any value; the default does nothing.
    fn prefetch(&self, _offset: u64, _len: usize) {}
}

/// A minimal virtual filesystem: a namespace of [`DiskFile`]s. Opening a
/// name that does not exist creates an empty file.
pub trait Vfs: Send + std::fmt::Debug {
    /// The file handle type.
    type File: DiskFile;
    /// Opens (creating if absent) the file called `name` for read/write.
    fn open(&mut self, name: &str) -> io::Result<Self::File>;
}

/// The production [`Vfs`]: plain files in one directory.
#[derive(Debug)]
pub struct RealVfs {
    dir: PathBuf,
}

impl RealVfs {
    /// A VFS rooted at `dir`, creating the directory if needed.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Self { dir: dir.as_ref().to_path_buf() })
    }
}

impl Vfs for RealVfs {
    type File = RealFile;

    fn open(&mut self, name: &str) -> io::Result<RealFile> {
        let file = open_or_create(&self.dir, name, |dir| std::fs::File::open(dir)?.sync_all())?;
        Ok(RealFile { file: MappedFile::new(file) })
    }
}

/// Opens `dir/name` for read/write. A file that did not exist is created
/// and `sync_dir` is called on `dir` before it is handed out: until the
/// directory itself is synced the new entry can vanish in a power cut, and
/// with it every acknowledged write the file went on to hold.
fn open_or_create(
    dir: &Path,
    name: &str,
    sync_dir: impl FnOnce(&Path) -> io::Result<()>,
) -> io::Result<std::fs::File> {
    let path = dir.join(name);
    let mut options = std::fs::OpenOptions::new();
    options.read(true).write(true);
    match options.open(&path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let file = options.create(true).open(&path)?;
            sync_dir(dir)?;
            Ok(file)
        }
        opened => opened,
    }
}

/// A [`DiskFile`] over a real `std::fs::File` using positioned I/O, which
/// [lends](DiskFile::lend) out of a read-only shared mapping of the file.
///
/// The mapping is made at the first `lend` (a file nobody lends from — the
/// WAL, the snapshots, any file of an identity-mode store — is never
/// mapped) over the length the file has then, and never outlives those
/// bytes: `set_len` drops it first, a `write_at` that ends past it drops
/// it so the next `lend` maps the longer file. A `write_at` inside it
/// keeps it — `pwrite` and `MAP_SHARED` share the page cache, so the next
/// `lend` sees the written bytes. Those rules live with the `unsafe` they
/// protect, in the private `mapping` module (its safety audit and NOTES.md
/// entry 10 have the argument); this type only forwards.
#[derive(Debug)]
pub struct RealFile {
    file: MappedFile,
}

impl DiskFile for RealFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut done = 0;
        while done < buf.len() {
            match self.file.read_at(&mut buf[done..], offset + done as u64) {
                Ok(0) => break,
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        self.file.write_all_at(buf, offset)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn file_len(&self) -> io::Result<u64> {
        self.file.len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    #[inline]
    fn lend(&self, offset: u64, len: usize) -> Option<&[u8]> {
        self.file.lend(offset, len)
    }

    #[inline]
    fn prefetch(&self, offset: u64, len: usize) {
        self.file.prefetch(offset, len);
    }
}

/// Default cache budget when `DPS_CACHE_BYTES` is not set: generous (1 GiB
/// of payload), so small stores are mirrored whole (identity mode).
const DEFAULT_CACHE_BYTES: usize = 1 << 30;

/// Tuning knobs for [`DiskStore`]. None of them trades durability: every
/// durability point — a batch's commit, a checkpoint — syncs.
#[derive(Debug, Clone, Copy)]
pub struct DiskOptions {
    /// Once the WAL grows past this many bytes, the next commit triggers
    /// an automatic checkpoint that recycles it. It is also the size the
    /// log file is preallocated to (zero-filled once, never truncated), so
    /// that an append is an overwrite of allocated blocks. Defaults to
    /// 8 MiB.
    ///
    /// The budget is what a checkpoint's cost is spread over. In identity
    /// mode a checkpoint writes back at most the whole arena image, so the
    /// store writes at most ≈ `1 + image / budget` bytes per byte logged
    /// (DP-KVS's benchmark row, a 3.9 MB image: 3.08 traced at a 1 MiB
    /// budget, 1.55 at 8 MiB — NOTES.md, entry 19). In exchange, the file
    /// takes this much disk, set-up zero-fills it once, and recovery reads
    /// and scans at most this many bytes.
    pub wal_checkpoint_bytes: u64,
    /// Byte budget of the cell cache (payload bytes; a bounded cache's
    /// page table is always resident). Defaults to the `DPS_CACHE_BYTES` environment
    /// variable when set (a value that is not a number is a configuration
    /// error and panics, naming it), else 1 GiB. It means two things and
    /// nothing else: a budget that covers the whole database selects
    /// identity mode (every cell mirrored, reads never miss); a smaller one
    /// bounds the dirty set — a commit that leaves more dirty cells than it
    /// has room for writes them all back. It buys no clean-read hits on any
    /// [`Vfs`]: a clean cell never takes a slot, it is lent by the mapped
    /// arena (the kernel's page cache is the read cache) or read from the
    /// file.
    pub cache_bytes: usize,
}

impl Default for DiskOptions {
    fn default() -> Self {
        Self {
            wal_checkpoint_bytes: 8 << 20,
            cache_bytes: settings::from_env("DPS_CACHE_BYTES").unwrap_or(DEFAULT_CACHE_BYTES),
        }
    }
}

const ARENA_NAMES: [&str; 2] = ["arena.0", "arena.1"];
const META_NAMES: [&str; 2] = ["meta.0", "meta.1"];
const WAL_NAME: &str = "wal";

/// Write-back bridges a gap of at most this many clean bytes between two
/// dirty cells rather than issue a second write (identity mode only; see
/// the [module docs](self)). One page: the kernel writes pages back whole.
const WRITE_BACK_GAP: usize = 4096;

/// What the log is preallocated with, a chunk at a time.
static ZEROS: [u8; 64 << 10] = [0; 64 << 10];

/// A durable, crash-safe [`Storage`](crate::Storage): the model over
/// [`DiskBackend`] (see the [module docs](self) for the on-disk protocol).
/// The backend's operational surface — [`DiskBackend::checkpoint`],
/// [`DiskBackend::is_poisoned`], … — is callable on a `DiskStore`
/// directly.
pub type DiskStore<V = RealVfs> = Accounted<DiskBackend<V>>;

/// The durable [`CellBackend`]: cache + WAL + checkpoints over a [`Vfs`].
#[derive(Debug)]
pub struct DiskBackend<V: Vfs = RealVfs> {
    /// Number of cells.
    capacity: usize,
    /// The length of every cell, and the arena's slot width.
    stride: usize,
    /// The dirty cells, or the identity mirror (see [`crate::cache`]).
    cache: CellCache,
    telemetry: CacheTelemetry,
    // ---- files ----
    arena: [V::File; 2],
    meta: [V::File; 2],
    wal: V::File,
    /// Which arena slot the newest checkpoint points at.
    active: usize,
    /// Which meta slot holds the newest checkpoint (the next snapshot goes
    /// to the other one).
    meta_slot: usize,
    /// Current checkpoint generation stamp.
    stamp: u64,
    /// Bytes of committed WAL content (header + fsync-covered records):
    /// the *logical* end of the log, where the next record goes. The file
    /// behind it is longer (preallocated, never truncated).
    wal_len: u64,
    /// The record of the batch `put` is committing; empty between calls.
    batch: RecordBuilder,
    /// A clean miss of a file that does not lend is read into this (one
    /// cell at a time), and bounded write-back gathers a run of adjacent
    /// cells whose slots are not adjacent here.
    scratch: Vec<u8>,
    opts: DiskOptions,
    poisoned: bool,
}

impl DiskStore<RealVfs> {
    /// Opens (or creates) a durable store in `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, DiskError> {
        Self::open_with(dir, DiskOptions::default())
    }

    /// Opens (or creates) a durable store in `dir`.
    pub fn open_with(dir: impl AsRef<Path>, opts: DiskOptions) -> Result<Self, DiskError> {
        Self::open_on(RealVfs::new(dir)?, opts)
    }
}

impl<V: Vfs> DiskStore<V> {
    /// Opens (or creates) a durable store on an arbitrary [`Vfs`] —
    /// production directories and the crash simulator take the same path.
    /// See [`DiskBackend`]'s recovery rules in the [module docs](self).
    pub fn open_on(vfs: V, opts: DiskOptions) -> Result<Self, DiskError> {
        DiskBackend::recover(vfs, opts).map(Accounted::over)
    }
}

impl<V: Vfs> DiskBackend<V> {
    /// Recovery: pick the valid metadata snapshot with the highest stamp,
    /// adopt its metadata (the arena payload stays on disk and is served
    /// from there), then replay the WAL records that validate under
    /// that stamp into the active arena slot. Replay is idempotent — the
    /// same records pwrite the same bytes — so a crash during recovery
    /// re-runs it identically. Where the log ends, what is a torn tail and
    /// what is [`DiskError::Corrupt`] are invariants I1–I4 of the
    /// [module docs](self); a snapshot of another format is refused.
    fn recover(mut vfs: V, opts: DiskOptions) -> Result<Self, DiskError> {
        let arena = [vfs.open(ARENA_NAMES[0])?, vfs.open(ARENA_NAMES[1])?];
        let meta = [vfs.open(META_NAMES[0])?, vfs.open(META_NAMES[1])?];
        let wal = vfs.open(WAL_NAME)?;

        let mut best: Option<(usize, Meta)> = None;
        let mut foreign = None;
        for (slot, file) in meta.iter().enumerate() {
            let bytes = read_all(file)?;
            match decode_meta(&bytes) {
                Some(m) if best.as_ref().is_none_or(|(_, b)| m.stamp > b.stamp) => {
                    best = Some((slot, m));
                }
                Some(_) => {}
                None => {
                    let version = meta_version(&bytes).filter(|&v| v != FORMAT_VERSION);
                    foreign = foreign.or(version.map(|v| (slot, v)));
                }
            }
        }
        let wal_bytes = read_all(&wal)?;

        let Some((meta_slot, m)) = best else {
            if let Some((slot, version)) = foreign {
                return Err(DiskError::corrupt(format!(
                    "{} is an on-disk format {version} snapshot; this build reads format \
                     {FORMAT_VERSION} only and does not migrate",
                    META_NAMES[slot]
                )));
            }
            if wal_bytes.len() >= WAL_HEADER_LEN {
                return Err(DiskError::corrupt(
                    "WAL present but no valid metadata snapshot exists",
                ));
            }
            // Fresh store: no snapshot, no (meaningful) WAL. Write the
            // empty generation-1 checkpoint so the directory is
            // well-formed from the start.
            let mut store = Self::assemble(arena, meta, wal, 1, Meta::empty(), opts);
            store.geometry_checkpoint(&[])?;
            return Ok(store);
        };

        // The snapshot's arena must be fully present; its payload is read
        // lazily, so only the length is validated here (`decode_meta` has
        // checked that the product fits).
        let arena_len = (m.capacity * m.stride) as u64;
        let have = arena[m.active].file_len()?;
        if have < arena_len {
            return Err(DiskError::corrupt(format!(
                "arena slot {} holds {} bytes, snapshot expects {}",
                m.active, have, arena_len
            )));
        }

        let mut store = Self::assemble(arena, meta, wal, meta_slot, m, opts);
        let header = decode_wal_header(&wal_bytes);
        if let WalHeader::Valid(w) = header {
            if w > store.stamp {
                return Err(DiskError::corrupt(format!(
                    "WAL generation {w} is newer than newest snapshot {}",
                    store.stamp
                )));
            }
        }
        // I4: whatever the header says, the record region is read under
        // the snapshot's stamp, and its cells are the snapshot's stride.
        let records = wal_bytes.get(WAL_HEADER_LEN..).unwrap_or(&[]);
        let scan = scan_records(store.stamp, store.stride, records)?;
        store.wal_len = WAL_HEADER_LEN as u64;
        if !scan.records.is_empty() {
            if header != WalHeader::Valid(store.stamp) {
                // Records are only ever appended behind a durable header
                // of their own generation.
                return Err(DiskError::corrupt(
                    "WAL header fails validation in front of a valid record",
                ));
            }
            if let Some((addr, _)) = scan.records.iter().flatten().find(|w| w.0 >= store.capacity) {
                return Err(DiskError::corrupt(format!(
                    "WAL record writes cell {addr}, outside the snapshot's {} cells",
                    store.capacity
                )));
            }
            for (addr, bytes) in scan.records.iter().flatten() {
                store.replay(*addr, bytes)?;
            }
            // Fold the replayed records into a fresh checkpoint (this also
            // restarts the log). A crash in here leaves the old snapshot +
            // old WAL intact, so the next open replays identically.
            store.light_checkpoint()?;
        } else {
            match header {
                // An empty log of this generation with nothing behind it.
                WalHeader::Valid(w) if w == store.stamp && !scan.torn => {}
                // The checkpoint's header rewrite never happened (or the
                // log was never set up): no record was ever written under
                // this stamp, so the log may start under it.
                WalHeader::Valid(w) if w < store.stamp => store.reset_wal()?,
                WalHeader::TooShort => store.reset_wal()?,
                // A torn append of this generation may sit behind the
                // header (or the header itself is damaged): by I1 the log
                // restarts under a stamp those bytes were not written
                // under.
                WalHeader::Valid(_) | WalHeader::Corrupt => store.light_checkpoint()?,
            }
        }
        store.warm_cache()?;
        Ok(store)
    }

    /// Builds the in-memory store state for a decoded snapshot.
    fn assemble(
        arena: [V::File; 2],
        meta: [V::File; 2],
        wal: V::File,
        meta_slot: usize,
        m: Meta,
        opts: DiskOptions,
    ) -> Self {
        Self {
            cache: CellCache::new(m.capacity, m.stride, opts.cache_bytes),
            capacity: m.capacity,
            stride: m.stride,
            telemetry: CacheTelemetry::default(),
            arena,
            meta,
            wal,
            active: m.active,
            meta_slot,
            stamp: m.stamp,
            wal_len: 0,
            batch: RecordBuilder::default(),
            scratch: Vec::new(),
            opts,
            poisoned: false,
        }
    }

    /// Applies one recovered WAL write: pwrite into the active arena slot.
    /// Replay is not an observable operation (no stats, no transcript, no
    /// cache population), and it is idempotent — re-running it after a
    /// crash writes the same bytes.
    fn replay(&mut self, addr: usize, bytes: &[u8]) -> Result<(), DiskError> {
        if !bytes.is_empty() {
            self.arena[self.active].write_at(addr as u64 * self.stride as u64, bytes)?;
        }
        Ok(())
    }

    /// Replaces the contents with `cells`, like
    /// [`Storage::init`](crate::Storage::init), but with a typed error
    /// instead of a panic when the disk fails.
    ///
    /// # Panics
    /// Panics if the cells differ in length, as every set-up does.
    pub fn try_init(&mut self, cells: Vec<Vec<u8>>) -> Result<(), DiskError> {
        self.load(CellStore::from_cells(&cells))
    }

    /// Set-up: `contents` becomes the store, atomically — its image is
    /// complete before the geometry checkpoint writes it into the inactive
    /// arena slot and flips `active`, so a crash anywhere in here recovers
    /// to the old snapshot or to all of the new one.
    fn load(&mut self, contents: CellStore) -> Result<(), DiskError> {
        self.check_poisoned()?;
        (self.capacity, self.stride) = (contents.capacity(), contents.stride());
        let image = contents.into_image();
        // Every cached entry belongs to the contents being replaced.
        self.cache = CellCache::new(0, 0, self.opts.cache_bytes);
        let written = self.geometry_checkpoint(&image);
        // In identity mode the image in hand becomes the slab — moved, so
        // the database has one owner here — instead of being copied into
        // one or read back from the arena.
        self.cache = CellCache::over(self.capacity, self.stride, self.opts.cache_bytes, image);
        written.map_err(|e| self.poison(e))
    }

    /// Forces a checkpoint: writes every dirty cell back and syncs the
    /// arena, writes a metadata snapshot, restarts the WAL under the new
    /// stamp. Afterwards recovery needs no replay.
    pub fn checkpoint(&mut self) -> Result<(), DiskError> {
        self.check_poisoned()?;
        self.light_checkpoint().map_err(|e| self.poison(e))
    }

    /// Current checkpoint generation stamp (bumps on every checkpoint).
    pub fn checkpoint_stamp(&self) -> u64 {
        self.stamp
    }

    /// Bytes of committed WAL content (header plus fsync-covered records).
    pub fn wal_bytes(&self) -> u64 {
        self.wal_len
    }

    /// Whether a previous I/O failure has poisoned the store (all further
    /// mutations fail fast with [`ServerError::Interrupted`]; reads serve
    /// cache hits and fail on misses).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of cells the payload cache holds: the dirty ones, or every
    /// mirrored cell in identity mode.
    pub fn cache_resident(&self) -> usize {
        self.cache.resident()
    }

    fn check_poisoned(&self) -> Result<(), DiskError> {
        if self.poisoned {
            Err(DiskError::Io {
                kind: io::ErrorKind::Other,
                detail: "store poisoned by an earlier i/o failure; reopen to recover".into(),
            })
        } else {
            Ok(())
        }
    }

    fn poison(&mut self, e: DiskError) -> DiskError {
        self.poisoned = true;
        e
    }

    /// Cache-miss path. A non-resident cell is clean — a dirty one stays in
    /// the slab until written back — so the active arena file has its
    /// bytes, and a file that [lends](DiskFile::lend) hands them out as they
    /// lie: no copy here (the caller's visitor makes the only one). A file
    /// that does not lend is read with one positioned read into `scratch`,
    /// which `Accounted::walk` is done with before its next `get`. A failed
    /// or short read (the snapshot promised these bytes, so the arena file
    /// is inconsistent with the metadata) poisons the store.
    #[inline(never)]
    fn miss(&mut self, addr: usize) -> Result<&[u8], ServerError> {
        if self.poisoned {
            // The backing file is failing; a miss would return bytes of
            // unknown provenance. Hits keep working, misses fail typed.
            return Err(ServerError::Interrupted);
        }
        self.telemetry.misses += 1;
        let len = self.stride;
        let offset = addr as u64 * len as u64;
        // `arena` borrows one field shared and everything below touches
        // the others, which is what lets the lent (or read) slice leave a
        // `&mut self` method.
        let arena = &self.arena[self.active];
        if let Some(bytes) = arena.lend(offset, len) {
            return Ok(bytes);
        }
        if self.scratch.len() < len {
            self.scratch.resize(len, 0);
        }
        let buf = &mut self.scratch[..len];
        match arena.read_at(offset, buf) {
            Ok(got) if got == len => Ok(buf),
            _ => {
                self.poisoned = true;
                Err(ServerError::Interrupted)
            }
        }
    }

    /// Identity-mode warm-up: when the cache budget covers the whole
    /// database, bulk-read the active arena slot into the slab, whose
    /// every cell is resident. From then on reads are direct slab slices
    /// and misses cannot occur; bounded budgets skip this and serve misses
    /// from the arena file instead.
    fn warm_cache(&mut self) -> Result<(), DiskError> {
        if !self.cache.is_identity() {
            return Ok(());
        }
        let active = self.active;
        let slab = self.cache.slab_mut();
        if !slab.is_empty() {
            let want = slab.len();
            let got = self.arena[active].read_at(0, slab)?;
            if got < want {
                return Err(DiskError::corrupt(format!(
                    "arena warm-up read returned {got} of {want} bytes"
                )));
            }
        }
        Ok(())
    }

    /// The batch as one record, one write at the log's end, the covering
    /// fsync — and nothing else, unless the dirty cells have pushed the
    /// cache over its budget. A torn write can only ever lose the batch
    /// being committed, whole: it was never acknowledged.
    fn commit_batch(&mut self) -> Result<(), DiskError> {
        let record = self.batch.finish(self.stamp);
        self.wal.write_at(self.wal_len, record)?;
        self.wal.sync()?;
        self.wal_len += record.len() as u64;
        if self.cache.over_budget() {
            self.write_back()?;
        }
        Ok(())
    }

    /// Copies every dirty cell into the active arena slot, then empties a
    /// bounded cache (the arena serves those cells from here on):
    /// address-ascending, one write per run of adjacent cells (bridging
    /// gaps of clean bytes up to [`WRITE_BACK_GAP`] where the slab is the
    /// arena image). Only ever called once a batch's record is durable —
    /// every dirty cell is then covered by one, which is what allows the
    /// arena to hold it before the next snapshot.
    fn write_back(&mut self) -> Result<(), DiskError> {
        let stride = self.stride;
        let identity = self.cache.is_identity();
        let bridge = if identity { WRITE_BACK_GAP / stride.max(1) } else { 0 };
        self.cache.sort_dirty();
        let dirty = self.cache.dirty();
        let mut next = 0;
        while next < dirty.len() {
            let run = next;
            let (first, mut last) = (dirty[run], dirty[run]);
            next += 1;
            while next < dirty.len() && dirty[next] - last - 1 <= bridge {
                last = dirty[next];
                next += 1;
            }
            let bytes = if identity {
                &self.cache.slab()[first * stride..(last + 1) * stride]
            } else {
                self.scratch.clear();
                for &addr in &dirty[run..next] {
                    let slot = self.cache.slot(addr).expect("a dirty cell is resident");
                    self.scratch.extend_from_slice(self.cache.slot_bytes(slot));
                }
                &self.scratch[..]
            };
            if !bytes.is_empty() {
                self.arena[self.active].write_at((first * stride) as u64, bytes)?;
            }
        }
        self.cache.clean_all();
        Ok(())
    }

    /// After a successfully committed batch: checkpoint if the WAL has
    /// outgrown its budget. The batch is durable either way (its WAL
    /// record survives a failed checkpoint), so a checkpoint failure
    /// poisons the store but does not fail the batch.
    fn maybe_auto_checkpoint(&mut self) {
        if self.wal_len > self.opts.wal_checkpoint_bytes && !self.poisoned {
            if let Err(e) = self.light_checkpoint() {
                self.poison(e);
            }
        }
    }

    /// Checkpoint keeping the current arena slot: write the dirty cells
    /// back, sync the arena, snapshot meta, restart the WAL under the new
    /// stamp.
    fn light_checkpoint(&mut self) -> Result<(), DiskError> {
        self.write_back()?;
        self.arena[self.active].sync()?;
        self.write_meta(self.active)?;
        self.reset_wal()
    }

    /// Writes a complete arena image into the *other* slot and makes it
    /// the checkpoint — set-up's, where the whole image is already in the
    /// caller's hands. The slot the old snapshot points at is never
    /// modified before the new snapshot is durable.
    fn geometry_checkpoint(&mut self, image: &[u8]) -> Result<(), DiskError> {
        let target = 1 - self.active;
        self.arena[target].set_len(image.len() as u64)?;
        if !image.is_empty() {
            self.arena[target].write_at(0, image)?;
        }
        self.arena[target].sync()?;
        self.write_meta(target)?;
        self.active = target;
        // Durable WAL records from before the new snapshot are superseded
        // by the bumped stamp.
        self.reset_wal()
    }

    /// Writes the next-generation metadata snapshot (pointing at arena
    /// slot `active`) into the non-current meta slot and makes it durable.
    /// Only after this returns is the new checkpoint the recovery target.
    /// A stamp that cannot be bumped (only a hostile snapshot carries one)
    /// fails typed: a snapshot under a stamp no higher than the one it
    /// supersedes would not be recovered as the newest.
    fn write_meta(&mut self, active: usize) -> Result<(), DiskError> {
        let stamp = self
            .stamp
            .checked_add(1)
            .ok_or_else(|| DiskError::corrupt("checkpoint stamp exhausted"))?;
        let m = Meta { stamp, active, capacity: self.capacity, stride: self.stride };
        let bytes = encode_meta(&m);
        let slot = 1 - self.meta_slot;
        self.meta[slot].set_len(0)?;
        self.meta[slot].write_at(0, &bytes)?;
        self.meta[slot].sync()?;
        self.meta_slot = slot;
        self.stamp = stamp;
        Ok(())
    }

    /// Restarts the WAL as an empty log of the current generation: one
    /// header rewrite, one sync. The records behind the header stay; they
    /// carry older stamps and never validate again (I1). The first time
    /// the file is found shorter than the WAL budget it is grown to it
    /// with zeros, synced before the header goes in, and never truncated
    /// again.
    fn reset_wal(&mut self) -> Result<(), DiskError> {
        let mut len = self.wal.file_len()?;
        if len < self.opts.wal_checkpoint_bytes {
            while len < self.opts.wal_checkpoint_bytes {
                let chunk = (self.opts.wal_checkpoint_bytes - len).min(ZEROS.len() as u64);
                self.wal.write_at(len, &ZEROS[..chunk as usize])?;
                len += chunk;
            }
            self.wal.sync()?;
        }
        let header = encode_wal_header(self.stamp);
        self.wal.write_at(0, &header)?;
        self.wal.sync()?;
        self.wal_len = header.len() as u64;
        Ok(())
    }
}

impl Meta {
    /// The metadata of a brand-new empty store (the fresh-open path; the
    /// first checkpoint flips `active` to slot 0).
    fn empty() -> Self {
        Meta { stamp: 0, active: 1, capacity: 0, stride: 0 }
    }
}

fn read_all(file: &impl DiskFile) -> Result<Vec<u8>, DiskError> {
    let len = file.file_len()?;
    let mut buf = vec![
        0u8;
        usize::try_from(len).map_err(|_| DiskError::Io {
            kind: io::ErrorKind::OutOfMemory,
            detail: format!("file of {len} bytes does not fit in memory"),
        })?
    ];
    let got = file.read_at(0, &mut buf)?;
    buf.truncate(got);
    Ok(buf)
}

impl<V: Vfs> CellBackend for DiskBackend<V> {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn stride(&self) -> usize {
        self.stride
    }

    fn reset(&mut self, contents: CellStore) {
        self.load(contents).expect("DiskStore set-up: checkpoint failed");
    }

    /// Hits come straight from the cache slab. A miss is lent by the active
    /// arena file or costs one positioned read from it — or, on a poisoned
    /// store, is [`ServerError::Interrupted`].
    #[inline(always)]
    fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
        if self.cache.is_identity() {
            // Identity mode: the warm-up invariant makes the slab
            // authoritative for every cell, so this is a direct slice —
            // the mirror-read fast path.
            self.telemetry.hits += 1;
            return Ok(self.cache.slot_bytes(addr));
        }
        if let Some(slot) = self.cache.slot(addr) {
            self.telemetry.hits += 1;
            return Ok(self.cache.slot_bytes(slot));
        }
        self.miss(addr)
    }

    /// Prefetches the arena bytes of each cell of the batch that the miss
    /// path will lend: not resident, on a store that is not poisoned. An
    /// identity-mode store has no miss path.
    #[inline]
    fn prefetch(&self, addrs: &[usize]) {
        if self.cache.is_identity() || self.poisoned {
            return;
        }
        let arena = &self.arena[self.active];
        for &addr in addrs {
            if self.cache.slot(addr).is_none() {
                arena.prefetch(addr as u64 * self.stride as u64, self.stride);
            }
        }
    }

    /// One non-empty batch is one WAL record, written and synced before
    /// `put` returns: its cells are the stride's length (the model refused
    /// any that were not), so each fills the slot it overwrites. A batch whose
    /// commit fails poisons the store instead of being undone: from then
    /// on every `put` is refused and only a reopen recovers, which lands on
    /// a batch boundary.
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), ServerError> {
        if self.poisoned {
            return Err(ServerError::Interrupted);
        }
        // The items stream straight into the batch's record, and into the
        // cache as dirty cells: until it is written back the cache holds
        // the only readable copy of a cell, so a write always takes a slot.
        for (addr, cell) in items {
            self.batch.push(addr, cell);
            let slot = self.cache.dirty_slot(addr);
            self.cache.slot_bytes_mut(slot).copy_from_slice(cell);
        }
        if self.batch.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.commit_batch() {
            self.poison(e);
            return Err(ServerError::Interrupted);
        }
        self.maybe_auto_checkpoint();
        Ok(())
    }

    fn telemetry(&self) -> CacheTelemetry {
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crashsim::CrashSim;
    use crate::storage::Storage;
    use proptest::prelude::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dps_disk_unit_{}_{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn cells(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 8]).collect()
    }

    #[test]
    fn reopen_serves_same_cells() {
        let tmp = TempDir::new("reopen");
        {
            let mut store = DiskStore::open(&tmp.0).unwrap();
            store.init(cells(10));
            store.write(3, vec![0xAB; 8]).unwrap();
            store
                .write_batch(vec![(0, vec![1; 8]), (9, vec![2; 8])])
                .unwrap();
        }
        let mut store = DiskStore::open(&tmp.0).unwrap();
        assert_eq!(store.capacity(), 10);
        assert_eq!(store.read(3).unwrap(), vec![0xAB; 8]);
        assert_eq!(store.read(0).unwrap(), vec![1; 8]);
        assert_eq!(store.read(9).unwrap(), vec![2; 8]);
        assert_eq!(store.read(5).unwrap(), vec![5u8; 8]);
    }

    /// A snapshot of another on-disk format under a valid CRC: the fixed
    /// fields, then `tail` (format 1: a length per cell and the init words;
    /// format 2: a length per cell).
    fn old_snapshot(
        version: u32,
        (capacity, stride, stamp): (u64, u64, u64),
        tail: &[u8],
    ) -> Vec<u8> {
        use crate::crc::crc32;
        let mut meta = b"DPSM".to_vec();
        meta.extend_from_slice(&version.to_le_bytes());
        meta.extend_from_slice(&stamp.to_le_bytes());
        meta.push(0);
        meta.extend_from_slice(&capacity.to_le_bytes());
        meta.extend_from_slice(&stride.to_le_bytes());
        meta.extend_from_slice(tail);
        meta.extend_from_slice(&crc32(&[&meta]).to_le_bytes());
        meta
    }

    /// A directory of on-disk format `version` (1 or 2): a snapshot with
    /// its length table (and, in format 1, its init words) under that
    /// version and a valid CRC, its arena, and a log of the same version —
    /// in format 2 with one record of two cells, each behind its length.
    fn old_format_directory(dir: &Path, version: u32) {
        use crate::crc::crc32;
        std::fs::create_dir_all(dir).unwrap();
        let (capacity, stride, stamp) = (70u64, 3u64, 4u64);
        let mut tail: Vec<u8> = (0..capacity).flat_map(|_| 3u32.to_le_bytes()).collect();
        if version == 1 {
            [u64::MAX, 0x3F]
                .iter()
                .for_each(|w| tail.extend_from_slice(&w.to_le_bytes()));
        }
        let meta = old_snapshot(version, (capacity, stride, stamp), &tail);
        std::fs::write(dir.join(META_NAMES[0]), meta).unwrap();
        std::fs::write(dir.join(ARENA_NAMES[0]), vec![0x5A; 210]).unwrap();
        let mut wal = b"DPSW".to_vec();
        wal.extend_from_slice(&version.to_le_bytes());
        wal.extend_from_slice(&stamp.to_le_bytes());
        wal.extend_from_slice(&crc32(&[&wal]).to_le_bytes());
        if version == 2 {
            let mut payload = vec![1u8];
            payload.extend_from_slice(&2u32.to_le_bytes());
            [1u64, 4]
                .iter()
                .for_each(|a| payload.extend_from_slice(&a.to_le_bytes()));
            [3u32, 3]
                .iter()
                .for_each(|l| payload.extend_from_slice(&l.to_le_bytes()));
            payload.extend_from_slice(&[0xA1, 0xA1, 0xA1, 0xA4, 0xA4, 0xA4]);
            let len = (payload.len() as u32).to_le_bytes();
            wal.extend_from_slice(&len);
            wal.extend_from_slice(&crc32(&[&stamp.to_le_bytes(), &len, &payload]).to_le_bytes());
            wal.extend_from_slice(&payload);
        }
        wal.resize(4096, 0);
        std::fs::write(dir.join(WAL_NAME), wal).unwrap();
    }

    /// A directory of format 1 or of format 2 is refused, naming both
    /// versions, and no file that was there changes — with its log, and
    /// without one, where the fresh-store path would otherwise empty
    /// `arena.0` and rewrite `meta.0`.
    #[test]
    fn a_format_1_directory_is_refused_and_left_untouched() {
        for (version, keep_wal) in [(1, true), (1, false), (2, true), (2, false)] {
            let tmp = TempDir::new(&format!("format{version}_{keep_wal}"));
            old_format_directory(&tmp.0, version);
            if !keep_wal {
                std::fs::remove_file(tmp.0.join(WAL_NAME)).unwrap();
            }
            let names = ARENA_NAMES.iter().chain(&META_NAMES).chain([&WAL_NAME]);
            let before: Vec<(&str, Vec<u8>)> = names
                .filter_map(|&name| Some((name, std::fs::read(tmp.0.join(name)).ok()?)))
                .collect();
            assert_eq!(before.len(), 2 + usize::from(keep_wal));
            match DiskStore::open(&tmp.0).map(|_| ()) {
                Err(DiskError::Corrupt { detail }) => {
                    let named = [format!("format {version} "), format!("format {FORMAT_VERSION} ")];
                    assert!(named.iter().all(|v| detail.contains(v)), "{detail}")
                }
                other => panic!("a format-{version} directory opened: {other:?}"),
            }
            for (name, bytes) in before {
                assert_eq!(std::fs::read(tmp.0.join(name)).unwrap(), bytes, "{name} changed");
            }
        }
    }

    /// (The name is from when the reset truncated the file; what it pins
    /// is the logical length.)
    #[test]
    fn checkpoint_truncates_wal_and_bumps_stamp() {
        let tmp = TempDir::new("ckpt");
        let mut store = DiskStore::open(&tmp.0).unwrap();
        store.init(cells(4));
        let stamp = store.checkpoint_stamp();
        store.write(0, vec![9; 8]).unwrap();
        assert!(store.wal_bytes() > WAL_HEADER_LEN as u64);
        store.checkpoint().unwrap();
        assert_eq!(store.wal_bytes(), WAL_HEADER_LEN as u64);
        assert_eq!(store.checkpoint_stamp(), stamp + 1);
        drop(store);
        let mut store = DiskStore::open(&tmp.0).unwrap();
        assert_eq!(store.read(0).unwrap(), vec![9; 8]);
    }

    #[test]
    fn auto_checkpoint_bounds_the_wal() {
        let tmp = TempDir::new("auto");
        let opts = DiskOptions { wal_checkpoint_bytes: 128, ..DiskOptions::default() };
        let mut store = DiskStore::open_with(&tmp.0, opts).unwrap();
        store.init(cells(4));
        for i in 0..50 {
            store.write(i % 4, vec![i as u8; 8]).unwrap();
            assert!(store.wal_bytes() <= 128 + 64, "wal grew unboundedly");
        }
        assert!(store.checkpoint_stamp() > 1, "auto checkpoint never fired");
    }

    /// The shipped budget's cadence, so that changing the default shows in
    /// a test and not only in the benchmark: DP-KVS-sized commits (20 cells
    /// of 235 bytes, one 4873-byte record each) fill the default 8 MiB log
    /// in 1722 commits, and the commit that passes the budget checkpoints —
    /// once, and not before.
    #[test]
    fn the_default_log_checkpoints_once_it_passes_8_mib() {
        let mut store = DiskStore::open_on(CrashSim::new(5), DiskOptions::default()).unwrap();
        store.init(vec![vec![0u8; 235]; 64]);
        let stamp = store.checkpoint_stamp();
        let mut commits = 0usize;
        loop {
            let logged = store.wal_bytes();
            let batch = (0..20).map(|k| ((commits * 20 + k) % 64, vec![commits as u8; 235]));
            store.write_batch(batch.collect()).unwrap();
            commits += 1;
            if store.checkpoint_stamp() != stamp {
                assert!(logged <= 8 << 20 && logged + 4873 > 8 << 20, "early at {logged}");
                break;
            }
            assert_eq!(store.wal_bytes(), logged + 4873);
        }
        assert_eq!((commits, store.checkpoint_stamp()), (1722, stamp + 1));
        assert_eq!(store.wal_bytes(), WAL_HEADER_LEN as u64);
    }

    #[test]
    fn failed_batches_do_not_touch_the_wal() {
        let tmp = TempDir::new("failfwd");
        let mut store = DiskStore::open(&tmp.0).unwrap();
        store.init(cells(2));
        let wal = store.wal_bytes();
        assert!(matches!(
            store.write_batch(vec![(0, vec![1; 8]), (7, vec![2; 8])]),
            Err(ServerError::OutOfBounds { addr: 7, .. })
        ));
        assert_eq!(store.wal_bytes(), wal);
        assert_eq!(store.read(0).unwrap(), vec![0u8; 8]);
    }

    /// On a [`Vfs`] that does not lend (the simulated disk, nothing
    /// crashing): every clean read is one positioned read into the scratch
    /// buffer and takes no slot. Real files lend it — `mapped_store` has
    /// that.
    #[test]
    fn tiny_cache_evicts_but_serves_identically() {
        let sim = CrashSim::new(3);
        // Room for two 8-byte payloads; the store holds 64 cells.
        let opts = DiskOptions { cache_bytes: 16, ..DiskOptions::default() };
        {
            let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
            store.init(cells(64));
        }
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        for round in 0..3 {
            for addr in 0..64 {
                assert_eq!(store.read(addr).unwrap(), vec![addr as u8; 8], "round {round}");
            }
        }
        let stats = store.stats();
        assert_eq!(
            (stats.cache_misses, stats.cache_hits, stats.cache_evictions),
            (192, 0, 0),
            "every clean read is a miss: {stats:?}"
        );
        assert_eq!(store.cache_resident(), 0, "a clean read took a slot");
        // Writes also bound residency once committed.
        for addr in 0..64 {
            store.write(addr, vec![!addr as u8; 8]).unwrap();
        }
        assert!(store.cache_resident() <= 2, "budget exceeded after writes");
        assert_eq!(store.read(63).unwrap(), vec![!63u8; 8]);
    }

    /// B2's all-dirty case, closed by construction: a bounded cache whose
    /// every slot is dirty (budget = the dirty set) used to squeeze each
    /// clean miss through one over-budget slot. A clean miss needs no slot.
    #[test]
    fn all_dirty_cache_serves_clean_misses_without_a_slot() {
        let tmp = TempDir::new("alldirty");
        let opts = DiskOptions { cache_bytes: 4 * 8, ..DiskOptions::default() };
        let mut store = DiskStore::open_with(&tmp.0, opts).unwrap();
        store.init(cells(64));
        for addr in [5, 20, 40, 63] {
            store.write(addr, vec![0xD0 | addr as u8; 8]).unwrap();
        }
        assert_eq!(store.cache_resident(), 4, "four durable cells wait for write-back");
        store.reset_stats();
        for addr in 0..64 {
            let dirty = [5, 20, 40, 63].contains(&addr);
            let expect = if dirty { 0xD0 | addr as u8 } else { addr as u8 };
            // The arena still holds the old bytes of the dirty cells: they
            // must come from the slab.
            assert_eq!(store.read(addr).unwrap(), vec![expect; 8], "cell {addr}");
        }
        let stats = store.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.cache_evictions), (4, 60, 0));
        assert_eq!(store.cache_resident(), 4, "the dirty cells stay, nothing joins them");
    }

    /// A log shorter than the budget — a short `wal`, two records of the
    /// current stamp behind the header, no preallocation — as the
    /// truncate-and-append version of this store left every log.
    #[test]
    fn append_era_log_opens_and_serves_its_records() {
        use crate::wal::encode_record;
        let tmp = TempDir::new("appendera");
        let stamp = {
            let mut store = DiskStore::open(&tmp.0).unwrap();
            store.init(cells(6));
            store.checkpoint_stamp()
        };
        let mut wal = encode_wal_header(stamp).to_vec();
        wal.extend_from_slice(&encode_record(stamp, &[(1, &[0xA1; 8]), (4, &[0xA4; 8])]));
        wal.extend_from_slice(&encode_record(stamp, &[(1, &[0xB1; 8])]));
        std::fs::write(tmp.0.join(WAL_NAME), &wal).unwrap();

        let mut store = DiskStore::open(&tmp.0).unwrap();
        assert_eq!(store.read(1).unwrap(), vec![0xB1; 8], "later record wins");
        assert_eq!(store.read(4).unwrap(), vec![0xA4; 8]);
        assert_eq!(store.read(0).unwrap(), vec![0u8; 8]);
        // Replay folded the records into a checkpoint, whose reset grew
        // the log to the preallocated size.
        assert_eq!(store.checkpoint_stamp(), stamp + 1);
        assert_eq!(store.wal_bytes(), WAL_HEADER_LEN as u64);
        let on_disk = std::fs::metadata(tmp.0.join(WAL_NAME)).unwrap().len();
        assert_eq!(on_disk, DiskOptions::default().wal_checkpoint_bytes);
    }

    /// A valid record of a cell shorter or longer than the stride was
    /// never written by a store that holds cells to it: its payload is not
    /// `n` addresses and `n` strides of bytes, so it is `Corrupt`, and
    /// nothing is replayed.
    #[test]
    fn a_wal_record_of_another_length_is_corrupt() {
        use crate::wal::encode_record;
        for len in [0, 7, 9] {
            let tmp = TempDir::new(&format!("wrongrecord{len}"));
            let stamp = {
                let mut store = DiskStore::open(&tmp.0).unwrap();
                store.init(cells(6));
                store.checkpoint_stamp()
            };
            let mut wal = encode_wal_header(stamp).to_vec();
            wal.extend_from_slice(&encode_record(stamp, &[(1, &[0xA1; 8]), (4, &vec![0; len])]));
            std::fs::write(tmp.0.join(WAL_NAME), &wal).unwrap();
            let arenas = || ARENA_NAMES.map(|name| std::fs::read(tmp.0.join(name)).unwrap());
            let before = arenas();
            match DiskStore::open(&tmp.0).map(|_| ()) {
                Err(DiskError::Corrupt { detail }) => {
                    assert!(detail.contains("malformed payload"), "{detail}")
                }
                other => panic!("a {len}-byte record opened: {other:?}"),
            }
            assert_eq!(arenas(), before, "a {len}-byte record was replayed");
        }
    }

    /// I4's two `Corrupt` cases: a header from a generation no snapshot
    /// has reached, and a damaged header in front of a record that
    /// validates under the snapshot's stamp.
    #[test]
    fn header_newer_than_every_snapshot_or_rotted_before_a_record_is_corrupt() {
        use std::os::unix::fs::FileExt;
        let tmp = TempDir::new("hdr");
        let stamp = {
            let mut store = DiskStore::open(&tmp.0).unwrap();
            store.init(cells(4));
            store.write(2, vec![7; 8]).unwrap();
            store.checkpoint_stamp()
        };
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(tmp.0.join(WAL_NAME))
            .unwrap();
        wal.write_all_at(&encode_wal_header(stamp + 1), 0).unwrap();
        assert!(matches!(DiskStore::open(&tmp.0), Err(DiskError::Corrupt { .. })));
        wal.write_all_at(&[0u8; WAL_HEADER_LEN], 0).unwrap();
        assert!(matches!(DiskStore::open(&tmp.0), Err(DiskError::Corrupt { .. })));
        wal.write_all_at(&encode_wal_header(stamp - 1), 0).unwrap();
        assert!(matches!(DiskStore::open(&tmp.0), Err(DiskError::Corrupt { .. })));
        // With the header back the record is served.
        wal.write_all_at(&encode_wal_header(stamp), 0).unwrap();
        assert_eq!(DiskStore::open(&tmp.0).unwrap().read(2).unwrap(), vec![7; 8]);
    }

    #[test]
    fn creating_a_file_syncs_its_directory_and_reopening_does_not() {
        let tmp = TempDir::new("dirsync");
        std::fs::create_dir_all(&tmp.0).unwrap();
        let synced = std::cell::RefCell::new(Vec::new());
        let sync_dir = |dir: &Path| {
            // By the time the directory is synced the entry is in it.
            assert!(dir.join("wal").is_file());
            synced.borrow_mut().push(dir.to_path_buf());
            Ok(())
        };
        open_or_create(&tmp.0, "wal", sync_dir).unwrap();
        assert_eq!(*synced.borrow(), vec![tmp.0.clone()]);
        open_or_create(&tmp.0, "wal", sync_dir).unwrap();
        assert_eq!(synced.borrow().len(), 1, "an existing file needs no directory sync");
        // A failing directory sync fails the open: the store must not go
        // on to acknowledge writes into a file that may not survive.
        let failed = open_or_create(&tmp.0, "meta.0", |_| Err(io::Error::other("no sync")));
        assert!(failed.is_err());
        // The real thing, end to end: a fresh store opens (five files, five
        // directory syncs) and a second open finds them all.
        let dir = tmp.0.join("store");
        DiskStore::open(&dir).unwrap().init(cells(2));
        assert_eq!(DiskStore::open(&dir).unwrap().capacity(), 2);
    }

    #[test]
    fn poisoned_store_serves_hits_and_fails_misses_typed() {
        let sim = CrashSim::new(11);
        // Cache holds four 8-byte cells out of 8: the two acknowledged
        // writes below wait in it for write-back.
        let opts = DiskOptions { cache_bytes: 32, ..DiskOptions::default() };
        let mut store = DiskStore::open_on(sim.clone(), opts).unwrap();
        store.init(cells(8));
        store.write(0, vec![0xD0; 8]).unwrap();
        store.write(1, vec![0xD1; 8]).unwrap();
        assert_eq!(store.cache_resident(), 2);
        // Crash the disk under the commit of the third.
        sim.plan_crash(sim.events(), 0);
        assert_eq!(store.write(2, vec![0xD2; 8]), Err(ServerError::Interrupted));
        assert!(store.is_poisoned());
        // Hits keep serving — the interrupted batch's cell too ("state
        // unknown") — misses fail typed instead of touching the dead file,
        // further mutations fail fast.
        assert_eq!(store.read(0).unwrap(), vec![0xD0; 8]);
        assert_eq!(store.read(1).unwrap(), vec![0xD1; 8]);
        assert_eq!(store.read(2).unwrap(), vec![0xD2; 8]);
        assert_eq!(store.read(5), Err(ServerError::Interrupted));
        assert_eq!(store.write(0, vec![1; 8]), Err(ServerError::Interrupted));
    }

    /// A stride-0 store — every cell empty, which is uniform — takes no
    /// cache bytes and no arena bytes: the smallest budget mirrors it whole.
    /// Its writes are logged, its cells read back empty, across a
    /// checkpoint and a reopen, and a cell with a byte is refused.
    #[test]
    fn zero_length_cells_bypass_the_cache() {
        let tmp = TempDir::new("zerolen");
        let opts = DiskOptions { cache_bytes: 0, ..DiskOptions::default() };
        {
            let mut store = DiskStore::open_with(&tmp.0, opts).unwrap();
            store.init(vec![Vec::new(); 16]);
            assert_eq!((store.capacity(), store.cell_stride()), (16, 0));
            let wal = store.wal_bytes();
            store
                .write_batch(vec![(3, Vec::new()), (15, Vec::new())])
                .unwrap();
            assert!(store.wal_bytes() > wal, "an empty cell is a value, and is logged");
            assert_eq!(store.read_batch(&[3, 0]).unwrap(), vec![Vec::<u8>::new(); 2]);
            let refused = ServerError::WrongCellLength { addr: 3, len: 1, stride: 0 };
            assert_eq!(store.write(3, vec![5]), Err(refused));
            store.checkpoint().unwrap();
            store.write(7, Vec::new()).unwrap();
        }
        let mut store = DiskStore::open_with(&tmp.0, opts).unwrap();
        assert_eq!((store.capacity(), store.cell_stride()), (16, 0));
        assert_eq!(store.read_batch(&[7, 15]).unwrap(), vec![Vec::<u8>::new(); 2]);
        assert_eq!(store.xor_cells(&[1, 2]).unwrap(), Vec::<u8>::new());
        assert_eq!(
            std::fs::metadata(tmp.0.join(ARENA_NAMES[store.active]))
                .unwrap()
                .len(),
            0
        );
    }

    /// The strides the hostile snapshots draw from: the ones set-up makes,
    /// and ones whose arena no file of this test holds or no address
    /// arithmetic spans.
    const STRIDES: [usize; 8] = [0, 1, 8, 1 << 31, 1 << 32, 1 << 62, 1 << 63, usize::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CRC-valid snapshots no store writes — a stamp at the end of its
        /// range, an arena slot that does not exist, a geometry whose arena
        /// size overflows, an arena file a little shorter or longer than
        /// the geometry (capped at 4 KiB, so a vast geometry always finds
        /// its arena short). `open` never panics and never adopts a
        /// geometry its arena file does not hold; a store it opens takes a
        /// one-byte write, a checkpoint and a reopen without a panic, and
        /// never lets a snapshot's stamp go backwards.
        #[test]
        fn hostile_snapshots_are_refused_or_opened_whole(
            (stamp, near_max) in (any::<u64>(), 0u8..4),
            active in 0usize..=2,
            capacity in 0usize..64,
            stride in 0usize..STRIDES.len(),
            (delta, bounded) in (0u64..4, any::<bool>()),
        ) {
            let stride = STRIDES[stride];
            let stamp = if near_max > 0 { u64::MAX - stamp % 2 } else { stamp };
            let tmp = TempDir::new("hostile");
            std::fs::create_dir_all(&tmp.0).unwrap();
            let meta = Meta { stamp, active, capacity, stride };
            std::fs::write(tmp.0.join(META_NAMES[0]), encode_meta(&meta)).unwrap();
            let arena_len = (capacity as u64).wrapping_mul(stride as u64);
            let arena = std::fs::File::create(tmp.0.join(ARENA_NAMES[active.min(1)])).unwrap();
            arena.set_len(arena_len.saturating_add(delta).saturating_sub(1).min(4096)).unwrap();
            drop(arena);
            let opts = DiskOptions {
                wal_checkpoint_bytes: 4096,
                cache_bytes: if bounded { 16 } else { 1 << 20 },
            };

            if let Ok(mut store) = DiskStore::open_with(&tmp.0, opts) {
                let held = store.arena[store.active].file_len().unwrap();
                let spans = store.capacity() as u128 * store.cell_stride() as u128;
                prop_assert!(spans <= u128::from(held), "{meta:?} opened over {held} bytes");
                let before = store.checkpoint_stamp();
                let _ = store.write(0, vec![0xA5]);
                let checkpointed = store.checkpoint().is_ok();
                let after = store.checkpoint_stamp();
                prop_assert!(if checkpointed { after > before } else { after == before });
                drop(store);
                let reopened = DiskStore::open_with(&tmp.0, opts).map(|s| s.checkpoint_stamp());
                // (It may checkpoint once more — stale records behind the
                // restarted log, I1 — or find the stamp exhausted.)
                prop_assert!(!matches!(reopened, Ok(s) if s < after), "{reopened:?}");
            }
        }
    }
}
