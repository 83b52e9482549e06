//! The benchmark's one shim inside the program: a [`Vfs`] that times and
//! counts every call the durable store makes to its files.
//!
//! The seam is the `Vfs`/`DiskFile` pair the crash suites already pin, so
//! the store runs unmodified on top of it and every byte is forwarded
//! untouched. Counters are atomics because in the full-path configuration
//! the store lives on the daemon's event-loop thread while the benchmark
//! reads them from the client thread.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dps_server::{DiskFile, Vfs};

use crate::measure::since_epoch_ns;

/// Spans kept per probe; counters keep counting past it.
const MAX_SPANS: usize = 100_000;

/// One timed call: what ran, when, and the benchmark op that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op: u64,
}

/// Totals of the three calls that touch the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsCounts {
    pub reads: u64,
    pub read_ns: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub write_bytes: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
}

impl VfsCounts {
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            reads: self.reads - earlier.reads,
            read_ns: self.read_ns - earlier.read_ns,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_ns: self.write_ns - earlier.write_ns,
            write_bytes: self.write_bytes - earlier.write_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }
}

/// Shared between the shim (writer) and the benchmark (reader).
#[derive(Debug, Default)]
pub struct VfsProbe {
    reads: AtomicU64,
    read_ns: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
    write_bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_ns: AtomicU64,
    /// The op the closed-loop client is in; stamped on every span.
    current_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl VfsProbe {
    pub fn counts(&self) -> VfsCounts {
        VfsCounts {
            reads: self.reads.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            read_bytes: self.read_bytes.load(Relaxed),
            writes: self.writes.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            fsync_ns: self.fsync_ns.load(Relaxed),
        }
    }

    pub fn set_current_op(&self, op: u64) {
        self.current_op.store(op, Relaxed);
    }

    /// Drops the spans recorded so far (set-up and warm-up are not traced).
    pub fn clear_spans(&self) {
        self.spans.lock().expect("span buffer poisoned").clear();
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }

    fn record(
        &self,
        name: &'static str,
        start: Instant,
        calls: &AtomicU64,
        ns: &AtomicU64,
        bytes: Option<(&AtomicU64, usize)>,
    ) {
        let end = Instant::now();
        calls.fetch_add(1, Relaxed);
        ns.fetch_add((end - start).as_nanos() as u64, Relaxed);
        if let Some((total, n)) = bytes {
            total.fetch_add(n as u64, Relaxed);
        }
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                name,
                start_ns: since_epoch_ns(start),
                end_ns: since_epoch_ns(end),
                op: self.current_op.load(Relaxed),
            });
        }
    }
}

/// A [`Vfs`] forwarding to `inner`, reporting to a shared [`VfsProbe`].
#[derive(Debug)]
pub struct TimedVfs<V: Vfs> {
    inner: V,
    probe: Arc<VfsProbe>,
}

impl<V: Vfs> TimedVfs<V> {
    pub fn new(inner: V, probe: Arc<VfsProbe>) -> Self {
        Self { inner, probe }
    }
}

impl<V: Vfs> Vfs for TimedVfs<V> {
    type File = TimedFile<V::File>;

    fn open(&mut self, name: &str) -> io::Result<Self::File> {
        Ok(TimedFile { inner: self.inner.open(name)?, probe: Arc::clone(&self.probe) })
    }
}

#[derive(Debug)]
pub struct TimedFile<F: DiskFile> {
    inner: F,
    probe: Arc<VfsProbe>,
}

impl<F: DiskFile> DiskFile for TimedFile<F> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.read_at(offset, buf)?;
        let p = &self.probe;
        p.record("vfs.read", start, &p.reads, &p.read_ns, Some((&p.read_bytes, n)));
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        self.inner.write_at(offset, buf)?;
        let p = &self.probe;
        p.record("vfs.write", start, &p.writes, &p.write_ns, Some((&p.write_bytes, buf.len())));
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.sync()?;
        let p = &self.probe;
        p.record("vfs.fsync", start, &p.fsyncs, &p.fsync_ns, None);
        Ok(())
    }

    fn file_len(&self) -> io::Result<u64> {
        self.inner.file_len()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ScratchDir;
    use dps_server::{DiskOptions, DiskStore, RealVfs, Storage};

    /// The shim forwards byte-identically: what a store wrote through it is
    /// what a store reopened on the plain production VFS reads back.
    #[test]
    fn timed_vfs_forwards_byte_identically() {
        let dir = ScratchDir::new(&std::env::temp_dir()).unwrap();
        let cells: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 48]).collect();
        let probe = Arc::new(VfsProbe::default());
        {
            let vfs = TimedVfs::new(RealVfs::new(dir.path()).unwrap(), Arc::clone(&probe));
            let mut store = DiskStore::open_on(vfs, DiskOptions::default()).unwrap();
            store.init(cells.clone());
            store.write_from(7, &[0xAB; 48]).unwrap();
            store.write_batch_strided(&[1, 2], &[0xCD; 96]).unwrap();
        }
        let counts = probe.counts();
        assert!(counts.writes > 0 && counts.fsyncs > 0 && counts.write_bytes >= 64 * 48);
        assert!(!probe.take_spans().is_empty());

        let mut plain = DiskStore::open(dir.path()).unwrap();
        let mut expected = cells;
        expected[7] = vec![0xAB; 48];
        expected[1] = vec![0xCD; 48];
        expected[2] = vec![0xCD; 48];
        let all: Vec<usize> = (0..64).collect();
        assert_eq!(plain.read_batch(&all).unwrap(), expected);
    }
}
