//! A file that *lends*: [`MappedFile`] owns a `std::fs::File` together
//! with a lazily made read-only shared mapping of it, which is what lets
//! [`RealFile`](crate::disk::RealFile) answer
//! [`DiskFile::lend`](crate::DiskFile::lend) with a slice of the page cache
//! instead of copying through `pread`. This is one of the crate's two
//! audited unsafe modules (the other is the CRC's guarded carry-less
//! fold), in the posture of `dps_net::sys` and
//! `dps_crypto::chacha::sse2`: the two libc entry points it needs are
//! declared directly against the C library std already links. The file
//! handle and the pointer are both private to it, so every operation of
//! this process that could invalidate the mapping goes through a method
//! below.
//!
//! # Safety audit
//!
//! Four `unsafe` surfaces, each with a narrow contract:
//!
//! * **FFI declarations** — `mmap` and `munmap`, signatures transcribed
//!   from POSIX. `off_t` is declared as `c_long`, which is what it is on
//!   every LP64 unix and for glibc's non-LFS `mmap` symbol on 32-bit
//!   Linux; the offset passed is always 0. `PROT_READ` and `MAP_SHARED`
//!   are both 1 on Linux, macOS and the BSDs. `mmap` is called with a null
//!   hint, a non-zero length and a descriptor borrowed from a live `File`;
//!   `munmap` only ever with the exact `(ptr, len)` pair `mmap` returned,
//!   once, in `Drop`.
//! * **Mapping lifetime against file length** — touching a mapped page
//!   that lies wholly past end-of-file raises `SIGBUS`. A `Mapping` covers
//!   exactly the length the file had when it was made and is immutable
//!   afterwards; the only way this process can shorten the file is
//!   [`MappedFile::set_len`] (the `File` is never handed out, not even by
//!   reference — `File::set_len` takes `&self`), and it drops the mapping
//!   *before* the call (`mapped_len_never_exceeds_the_file` pins it). A
//!   file that grows leaves the mapping valid but short;
//!   [`MappedFile::write_all_at`] drops it so the next lend maps the file
//!   as it then is. The one assumption left to the operator is the one the
//!   WAL already makes: the store directory belongs to one process, and
//!   nobody truncates its files underneath it.
//! * **Aliasing** — the pages are mapped `PROT_READ`, so this process can
//!   only change them through a write on the file.
//!   [`MappedFile::lend`] ties the slice to `&self` and both mutations
//!   take `&mut self` (as every `DiskFile` mutation above them does): the
//!   borrow checker, not a convention, guarantees no lent slice is live
//!   across a write by this process. Writes that land *between* lends are
//!   seen by the next lend: `MAP_SHARED` and `pwrite` share the page cache
//!   on every unix with a unified buffer cache — Linux, macOS, FreeBSD.
//! * **`Send`/`Sync`** — the raw pointer makes `Mapping` neither by
//!   default. The mapping is process-wide, not thread-affine, and is only
//!   ever read, so moving it to another thread or sharing `&Mapping`
//!   between threads is sound; `RealFile` stays `Send + Sync` as it was.
//!
//! What this module does *not* turn into a typed error: an I/O error
//! while the kernel fills a mapped page (a media error under the arena) is
//! delivered as `SIGBUS` and kills the process, where `pread` would have
//! returned `EIO` and poisoned the store. NOTES.md entry 10 states the
//! trade.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_long, c_void};
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileExt;
use std::sync::OnceLock;

const PROT_READ: c_int = 1;
const MAP_SHARED: c_int = 1;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: c_long,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// The first `len` bytes of a file, mapped read-only and shared.
#[derive(Debug)]
struct Mapping {
    ptr: *const u8,
    len: usize,
}

impl Mapping {
    /// Maps `file` over its current length. `None` when there is nothing
    /// to map (an empty file) or the kernel refuses — the caller falls
    /// back to reading. Pages are faulted in on first touch (no
    /// `MAP_POPULATE`): a mapping nobody reads costs no memory.
    fn of(file: &File) -> Option<Self> {
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        if len == 0 {
            return None;
        }
        // SAFETY: a null hint lets the kernel pick the address, `len` is
        // non-zero, the descriptor is open for reading for the duration of
        // the call (borrowed from `file`), and the result is checked
        // against `MAP_FAILED` before it is used. The mapping does not
        // depend on the descriptor staying open afterwards.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_SHARED, file.as_raw_fd(), 0) };
        (ptr != MAP_FAILED).then_some(Self { ptr: ptr.cast(), len })
    }

    /// The mapped bytes: the file's content as of the last write to it.
    /// Sound only while the file is at least `len` bytes long, which is
    /// [`MappedFile`]'s to keep true (see the [safety audit](self)).
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is the page-aligned start of a live `len`-byte
        // `PROT_READ` mapping (unmapped only in `Drop`), `u8` has no
        // alignment or validity requirement, and `len <= isize::MAX`
        // because the kernel granted the mapping. The file is still at
        // least `len` bytes long and nothing in this process writes to it
        // while the returned borrow is live: *Mapping lifetime* and
        // *Aliasing* in the module docs.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: exactly the `(ptr, len)` pair `mmap` returned, unmapped
        // once; `&mut self` proves no slice from `bytes` is still
        // borrowed. The only failure `munmap` has is `EINVAL` for
        // arguments that are not a mapping, which these are.
        unsafe {
            munmap(self.ptr.cast_mut().cast(), self.len);
        }
    }
}

// SAFETY: `ptr` addresses process-wide read-only memory that this type
// owns until `Drop`; no field is thread-affine, so the value may move to
// another thread.
unsafe impl Send for Mapping {}
// SAFETY: `&Mapping` only permits reads of memory nothing in this process
// can write through the mapping (`PROT_READ`), so sharing it is sound.
unsafe impl Sync for Mapping {}

/// A `File` that can lend its bytes: positioned I/O under the names std
/// gives it, plus [`MappedFile::lend`].
///
/// The mapping is made at the first `lend` (a file nobody lends from is
/// never mapped) over the length the file has then, without
/// `MAP_POPULATE` — pages are faulted in as they are read, so a mapping
/// costs no memory until it is used.
#[derive(Debug)]
pub(crate) struct MappedFile {
    file: File,
    /// Unset: not tried since the file last changed length. `Some(None)`:
    /// tried, nothing to map (an empty file) or the kernel refused —
    /// `lend` answers `None` without asking again.
    map: OnceLock<Option<Mapping>>,
}

impl MappedFile {
    pub fn new(file: File) -> Self {
        Self { file, map: OnceLock::new() }
    }

    /// One `pread`: the count may be short.
    pub fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.file.read_at(buf, offset)
    }

    /// Writes all of `buf` at `offset`. A write that ends past the mapped
    /// length drops the mapping (the next `lend` maps the longer file);
    /// one inside it keeps it, and the next `lend` shows the new bytes.
    pub fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        if offset.saturating_add(buf.len() as u64) > self.mapped_len() as u64 {
            self.map.take();
        }
        self.file.write_all_at(buf, offset)
    }

    pub fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Current file length in bytes.
    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Truncates or extends the file, unmapping it first.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        // Before, not after: a mapped page past end-of-file is SIGBUS.
        self.map.take();
        self.file.set_len(len)
    }

    /// The `len` bytes at `offset`, borrowed from the mapping. `None`
    /// when the range is not wholly inside the mapped file, or nothing
    /// could be mapped.
    #[inline]
    pub fn lend(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let map = self.map.get_or_init(|| Mapping::of(&self.file)).as_ref()?;
        let start = usize::try_from(offset).ok()?;
        map.bytes().get(start..start.checked_add(len)?)
    }

    /// Bytes currently mapped (0 when nothing is).
    fn mapped_len(&self) -> usize {
        self.map.get().and_then(Option::as_ref).map_or(0, |m| m.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn create(tag: &str) -> (Self, MappedFile) {
            let path =
                std::env::temp_dir().join(format!("dps_mapping_unit_{}_{tag}", std::process::id()));
            let mut options = std::fs::OpenOptions::new();
            let file = options
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path);
            (TempFile(path), MappedFile::new(file.unwrap()))
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// The mapping never outlives the bytes it covers: `set_len` drops it
    /// first (shrink *and* grow), a write past its end drops it, a write
    /// inside it keeps it and is seen by the next lend.
    #[test]
    fn mapped_len_never_exceeds_the_file() {
        let (_tmp, mut file) = TempFile::create("maplen");
        let check = |file: &MappedFile| {
            assert!(file.mapped_len() as u64 <= file.len().unwrap());
        };
        assert_eq!(file.lend(0, 1), None, "an empty file lends nothing");
        assert_eq!(file.lend(0, 0), None, "not even nothing");
        file.write_all_at(&[7; 100], 0).unwrap();
        assert_eq!(file.lend(10, 90), Some(&[7u8; 90][..]), "the failed try is not sticky");
        assert_eq!(file.mapped_len(), 100);
        assert_eq!(file.lend(10, 91), None, "a range past the end is not lent");
        assert_eq!(file.lend(u64::MAX, 2), None);
        assert_eq!(file.lend(1, usize::MAX), None);
        // In range: the mapping stays and shows the new bytes (MAP_SHARED
        // and pwrite share the page cache).
        file.write_all_at(&[9; 50], 50).unwrap();
        assert_eq!(file.mapped_len(), 100);
        assert_eq!(file.lend(40, 20).unwrap(), [[7u8; 10], [9u8; 10]].concat());
        // Past the end: dropped, and the next lend maps the longer file.
        file.write_all_at(&[1; 20], 90).unwrap();
        assert_eq!(file.mapped_len(), 0);
        assert_eq!(file.lend(100, 10), Some(&[1u8; 10][..]));
        assert_eq!(file.mapped_len(), 110);
        // Shrink: unmapped before the file is cut, remapped shorter.
        file.set_len(30).unwrap();
        check(&file);
        assert_eq!(file.mapped_len(), 0);
        assert_eq!(file.lend(0, 31), None);
        assert_eq!(file.lend(0, 30), Some(&[7u8; 30][..]));
        check(&file);
        // Grow by set_len (a hole): unmapped, and the hole reads as zeros.
        file.set_len(3 * 4096 + 5).unwrap();
        check(&file);
        assert_eq!(file.lend(3 * 4096 - 5, 10), Some(&[0u8; 10][..]));
        file.set_len(0).unwrap();
        check(&file);
        assert_eq!(file.lend(0, 1), None);
    }

    #[test]
    fn a_refused_mapping_is_none_and_the_mapping_outlives_its_descriptor() {
        // A descriptor the kernel will not map (a directory: ENODEV).
        let dir = File::open(std::env::temp_dir()).unwrap();
        assert!(Mapping::of(&dir).is_none(), "a refused mmap is None, not a panic");
        let (_tmp, mut file) = TempFile::create("outlive");
        file.write_all_at(&[3; 5000], 0).unwrap();
        let map = Mapping::of(&file.file).expect("a non-empty regular file maps");
        drop(file);
        assert_eq!(map.bytes(), &[3u8; 5000][..]);
    }

    #[test]
    fn a_mapped_file_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MappedFile>();
    }
}
