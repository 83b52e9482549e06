//! Deterministic crash-injection filesystem for testing [`crate::DiskStore`].
//!
//! [`CrashSim`] implements [`Vfs`] over purely in-memory files, each with
//! two images: *visible* (what reads observe — the OS page cache) and
//! *durable* (what survives a crash — stable storage). Writes land in the
//! visible image immediately and are queued as *pending*; `sync` promotes
//! a file's pending operations to the durable image, modelling `fsync`.
//!
//! Every `write_at` / `set_len` / `sync` call is one numbered *I/O event*,
//! kept in a log ([`CrashSim::event_log`]) so a test can assert what was
//! written where and in which order. A test arms [`CrashSim::plan_crash`]
//! with an event number; when that event fires the simulator "loses
//! power", in one of two [`Tear`] modes:
//!
//! - [`Tear::Prefix`] — like a pipe: the crashing write persists only a
//!   prefix of its bytes (configurable per mille), and every *other*
//!   pending (unsynced) operation across all files persists or vanishes
//!   whole by an independent seeded coin flip — modelling the disk
//!   reordering writes inside the no-fsync window;
//! - [`Tear::Sectors`] — like a disk: every unsynced write, the crashing
//!   one included, is cut at the file's 512-byte sector boundaries and
//!   each sector lands or keeps its old bytes by its own seeded coin, so
//!   the tail of a write can be durable when its head is not;
//! - either way every subsequent operation fails with an I/O error, which
//!   [`crate::DiskStore`] surfaces as
//!   [`ServerError::Interrupted`](crate::ServerError) and poisons itself on.
//!
//! Not modelled: directory entries. A file exists from the moment it is
//! opened and survives every crash, so the simulator cannot show a store
//! losing a freshly created file whose directory was never synced
//! ([`RealVfs`](crate::RealVfs) syncs the directory on creation; a unit
//! test in [`crate::disk`] observes it).
//!
//! [`CrashSim::recover`] then plays the role of the machine rebooting:
//! visible images are reset to the durable ones and a fresh
//! [`DiskStore::open_on`](crate::DiskStore::open_on) runs real recovery.
//! Because the event count of a program run is deterministic, a test can
//! sweep *every* crash point of a workload exhaustively.

use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

use dps_crypto::rng::splitmix64;

use crate::disk::{DiskFile, Vfs};

#[derive(Debug, Clone)]
enum Pending {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

#[derive(Debug, Default)]
struct FileState {
    visible: Vec<u8>,
    durable: Vec<u8>,
    /// Unsynced operations in submission order, tagged with their event
    /// number (the coin-flip key at crash time).
    pending: Vec<(u64, Pending)>,
}

fn apply(image: &mut Vec<u8>, op: &Pending) {
    match op {
        Pending::Write { offset, data } => write_image(image, *offset, data),
        Pending::SetLen(len) => image.resize(*len as usize, 0),
    }
}

fn write_image(image: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if image.len() < end {
        image.resize(end, 0);
    }
    image[offset as usize..end].copy_from_slice(data);
}

#[derive(Debug)]
struct SimState {
    files: BTreeMap<String, FileState>,
    /// Every I/O event so far; its length is the next event's number.
    log: Vec<SimEvent>,
    plan: Option<CrashPlan>,
    crashed: bool,
    seed: u64,
}

/// When and how violently to crash (see [`CrashSim::plan_crash`]).
#[derive(Debug, Clone, Copy)]
struct CrashPlan {
    at_event: u64,
    tear: Tear,
}

/// How the unsynced window is cut up when the power goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tear {
    /// This many per mille of the crashing write's bytes persist, as a
    /// prefix; each other unsynced operation persists whole or not at all.
    Prefix(u16),
    /// Each 512-byte sector (by file offset) of each unsynced write —
    /// the crashing one too — persists or keeps its old bytes on its own.
    Sectors,
}

/// The sector size [`Tear::Sectors`] cuts writes at.
pub const SECTOR: u64 = 512;

/// One entry of the I/O event log: the event with number `n` is entry `n`
/// of [`CrashSim::event_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimEvent {
    /// The file the call was made on.
    pub file: String,
    /// What the call was.
    pub op: SimOp,
}

/// The kind of an I/O event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
    /// `write_at(offset, len bytes)`.
    Write {
        /// File offset of the first byte.
        offset: u64,
        /// Number of bytes.
        len: u64,
    },
    /// `set_len(len)`.
    SetLen(u64),
    /// `sync()`.
    Sync,
}

/// A deterministic crash-injection [`Vfs`]. Cloning shares the same
/// simulated disk, so a test can keep a handle while the store owns the
/// files.
#[derive(Debug, Clone)]
pub struct CrashSim {
    state: Arc<Mutex<SimState>>,
}

impl CrashSim {
    /// A fresh simulated disk. `seed` drives the persistence coin flips
    /// for unsynced writes at crash time.
    pub fn new(seed: u64) -> Self {
        CrashSim {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                log: Vec::new(),
                plan: None,
                crashed: false,
                seed,
            })),
        }
    }

    /// Total I/O events (writes, truncations, syncs) observed so far.
    pub fn events(&self) -> u64 {
        self.state.lock().unwrap().log.len() as u64
    }

    /// Every I/O event observed so far, in order (including the one a
    /// crash interrupted).
    pub fn event_log(&self) -> Vec<SimEvent> {
        self.state.lock().unwrap().log.clone()
    }

    /// Arms a [`Tear::Prefix`] crash at event number `at_event` (0-based;
    /// the event with that number is the one interrupted). If the event is
    /// a write, a `torn_per_mille`/1000 prefix of its bytes still reaches
    /// stable storage.
    pub fn plan_crash(&self, at_event: u64, torn_per_mille: u16) {
        self.plan_crash_tearing(at_event, Tear::Prefix(torn_per_mille));
    }

    /// Arms a crash at event number `at_event` with the given [`Tear`].
    pub fn plan_crash_tearing(&self, at_event: u64, tear: Tear) {
        let mut s = self.state.lock().unwrap();
        s.plan = Some(CrashPlan { at_event, tear });
    }

    /// Whether the armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().unwrap().crashed
    }

    /// Reboots the machine: every file's visible image is reset to its
    /// durable image, pending operations are dropped, and the crash plan
    /// is cleared (the event counter keeps counting, so a follow-up crash
    /// can be armed at an absolute event number).
    pub fn recover(&self) {
        let mut s = self.state.lock().unwrap();
        for file in s.files.values_mut() {
            file.visible = file.durable.clone();
            file.pending.clear();
        }
        s.plan = None;
        s.crashed = false;
    }

    /// XORs `mask` into the durable (and visible) byte of `name` at
    /// `offset` — bit-rot injection for corruption tests.
    ///
    /// # Panics
    /// Panics if the file or offset does not exist.
    pub fn corrupt_byte(&self, name: &str, offset: u64, mask: u8) {
        let mut s = self.state.lock().unwrap();
        let file = s.files.get_mut(name).expect("corrupt_byte: no such file");
        file.durable[offset as usize] ^= mask;
        file.visible[offset as usize] ^= mask;
    }

    /// Durable length of `name` (0 if never created).
    pub fn durable_len(&self, name: &str) -> u64 {
        let s = self.state.lock().unwrap();
        s.files.get(name).map_or(0, |f| f.durable.len() as u64)
    }
}

impl Vfs for CrashSim {
    type File = CrashFile;

    fn open(&mut self, name: &str) -> io::Result<CrashFile> {
        let mut s = self.state.lock().unwrap();
        if s.crashed {
            return Err(crash_error());
        }
        s.files.entry(name.to_string()).or_default();
        Ok(CrashFile { sim: self.clone(), name: name.to_string() })
    }
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: machine is down")
}

impl SimState {
    /// Counts one I/O event on `name`; if it is the planned crash point,
    /// persists a seeded part of the unsynced window (and of the crashing
    /// write `data`, if the event is one) and downs the machine.
    fn io_event(&mut self, name: &str, op: SimOp, data: &[u8]) -> io::Result<u64> {
        if self.crashed {
            return Err(crash_error());
        }
        let event = self.log.len() as u64;
        self.log.push(SimEvent { file: name.to_string(), op });
        let Some(plan) = self.plan else { return Ok(event) };
        if event < plan.at_event {
            return Ok(event);
        }
        // One coin per (event, sector); a whole operation flips sector 0's.
        let seed = self.seed;
        let lands = |event: u64, sector: u64| {
            splitmix64(seed ^ event ^ sector.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 1 == 0
        };
        for file in self.files.values_mut() {
            for (ev, op) in std::mem::take(&mut file.pending) {
                match (plan.tear, &op) {
                    (Tear::Sectors, Pending::Write { offset, data }) => {
                        write_sectors(&mut file.durable, *offset, data, |sector| lands(ev, sector));
                    }
                    // Whole operations made it to the platter or didn't —
                    // the disk was free to reorder them.
                    _ => {
                        if lands(ev, 0) {
                            apply(&mut file.durable, &op);
                        }
                    }
                }
            }
        }
        if let SimOp::Write { offset, .. } = op {
            let file = self.files.get_mut(name).expect("crashing write on open file");
            match plan.tear {
                Tear::Prefix(per_mille) => {
                    let keep = data.len() * per_mille as usize / 1000;
                    if keep > 0 {
                        write_image(&mut file.durable, offset, &data[..keep]);
                    }
                }
                Tear::Sectors => {
                    write_sectors(&mut file.durable, offset, data, |sector| lands(event, sector));
                }
            }
        }
        self.crashed = true;
        Err(crash_error())
    }
}

/// Applies the write `data` at `offset` to `image` sector by sector: the
/// part of the write inside file sector `s` is stored iff `lands(s)`.
fn write_sectors(image: &mut Vec<u8>, offset: u64, data: &[u8], lands: impl Fn(u64) -> bool) {
    let mut done = 0usize;
    while done < data.len() {
        let at = offset + done as u64;
        let in_sector = ((SECTOR - at % SECTOR) as usize).min(data.len() - done);
        if lands(at / SECTOR) {
            write_image(image, at, &data[done..done + in_sector]);
        }
        done += in_sector;
    }
}

/// One file of a [`CrashSim`] disk.
#[derive(Debug)]
pub struct CrashFile {
    sim: CrashSim,
    name: String,
}

impl DiskFile for CrashFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let s = self.sim.state.lock().unwrap();
        if s.crashed {
            return Err(crash_error());
        }
        let visible = &s.files[&self.name].visible;
        let start = (offset as usize).min(visible.len());
        let n = buf.len().min(visible.len() - start);
        buf[..n].copy_from_slice(&visible[start..start + n]);
        Ok(n)
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        let mut s = self.sim.state.lock().unwrap();
        let op = SimOp::Write { offset, len: buf.len() as u64 };
        let event = s.io_event(&self.name, op, buf)?;
        let op = Pending::Write { offset, data: buf.to_vec() };
        let file = s.files.get_mut(&self.name).expect("write on open file");
        apply(&mut file.visible, &op);
        file.pending.push((event, op));
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut s = self.sim.state.lock().unwrap();
        s.io_event(&self.name, SimOp::Sync, &[])?;
        let file = s.files.get_mut(&self.name).expect("sync on open file");
        for (_, op) in std::mem::take(&mut file.pending) {
            apply(&mut file.durable, &op);
        }
        Ok(())
    }

    fn file_len(&self) -> io::Result<u64> {
        let s = self.sim.state.lock().unwrap();
        if s.crashed {
            return Err(crash_error());
        }
        Ok(s.files[&self.name].visible.len() as u64)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut s = self.sim.state.lock().unwrap();
        let event = s.io_event(&self.name, SimOp::SetLen(len), &[])?;
        let op = Pending::SetLen(len);
        let file = s.files.get_mut(&self.name).expect("set_len on open file");
        apply(&mut file.visible, &op);
        file.pending.push((event, op));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(sim: &CrashSim, name: &str) -> CrashFile {
        sim.clone().open(name).unwrap()
    }

    #[test]
    fn unsynced_writes_are_visible_but_not_durable() {
        let sim = CrashSim::new(1);
        let mut f = open(&sim, "a");
        f.write_at(0, b"hello").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(sim.durable_len("a"), 0);
        f.sync().unwrap();
        assert_eq!(sim.durable_len("a"), 5);
    }

    #[test]
    fn crash_fails_all_subsequent_io_until_recover() {
        let sim = CrashSim::new(2);
        let mut f = open(&sim, "a");
        f.write_at(0, b"aa").unwrap();
        f.sync().unwrap();
        sim.plan_crash(sim.events(), 0);
        assert!(f.write_at(2, b"bb").is_err());
        assert!(sim.crashed());
        assert!(f.sync().is_err());
        assert!(f.read_at(0, &mut [0u8; 1]).is_err());
        sim.recover();
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"aa");
    }

    #[test]
    fn torn_write_persists_a_prefix() {
        let sim = CrashSim::new(3);
        let mut f = open(&sim, "a");
        f.write_at(0, b"base").unwrap();
        f.sync().unwrap();
        sim.plan_crash(sim.events(), 500); // half the crashing write lands
        assert!(f.write_at(0, b"XXXXXXXX").is_err());
        sim.recover();
        let mut buf = [0u8; 8];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"XXXX");
    }

    #[test]
    fn sector_tear_lands_whole_sectors_in_any_order() {
        // A four-sector write over synced 0xFF bytes, starting mid-sector:
        // every file sector ends up entirely old or entirely new, the
        // outcome is a function of the seed, and across seeds a later
        // sector lands while an earlier one does not.
        let outcome = |seed: u64| -> Vec<bool> {
            let sim = CrashSim::new(seed);
            let mut f = open(&sim, "a");
            f.write_at(0, &[0xFF; 4 * SECTOR as usize]).unwrap();
            f.sync().unwrap();
            sim.plan_crash_tearing(sim.events(), Tear::Sectors);
            assert!(f.write_at(100, &[0x11; 3 * SECTOR as usize]).is_err());
            sim.recover();
            let mut buf = vec![0u8; 4 * SECTOR as usize];
            assert_eq!(f.read_at(0, &mut buf).unwrap(), buf.len());
            assert!(buf[..100].iter().all(|&b| b == 0xFF), "bytes outside the write changed");
            assert!(buf[100 + 3 * SECTOR as usize..].iter().all(|&b| b == 0xFF));
            let written = &buf[100..100 + 3 * SECTOR as usize];
            (0..4u64)
                .map(|sector| {
                    let lo = (sector * SECTOR).saturating_sub(100) as usize;
                    let hi =
                        (((sector + 1) * SECTOR).saturating_sub(100) as usize).min(written.len());
                    let piece = &written[lo..hi];
                    assert!(
                        piece.iter().all(|&b| b == piece[0]),
                        "seed {seed}: sector {sector} is torn inside"
                    );
                    piece[0] == 0x11
                })
                .collect()
        };
        assert_eq!(outcome(7), outcome(7), "same seed, same sectors");
        let outcomes: Vec<Vec<bool>> = (0..32).map(outcome).collect();
        assert!(outcomes.iter().any(|o| !o[0] && o[3]), "never a tail without its head");
        assert!(outcomes.iter().any(|o| o[0] && !o[3]), "never a head without its tail");
    }

    #[test]
    fn sector_tear_also_cuts_the_unsynced_window() {
        // Two sectors written and never synced, then a crash on the sync:
        // for some seed exactly one of the two sectors is durable.
        let halves = (0..32u64).filter(|&seed| {
            let sim = CrashSim::new(seed);
            let mut f = open(&sim, "a");
            f.write_at(0, &[0xFF; 2 * SECTOR as usize]).unwrap();
            f.sync().unwrap();
            f.write_at(0, &[0x22; 2 * SECTOR as usize]).unwrap();
            sim.plan_crash_tearing(sim.events(), Tear::Sectors);
            assert!(f.sync().is_err());
            sim.recover();
            let mut buf = vec![0u8; 2 * SECTOR as usize];
            f.read_at(0, &mut buf).unwrap();
            buf[0] != buf[SECTOR as usize]
        });
        assert!(halves.count() > 0, "an unsynced write was never torn between its sectors");
    }

    #[test]
    fn the_event_log_names_every_call_in_order() {
        let sim = CrashSim::new(9);
        let mut a = open(&sim, "a");
        let mut b = open(&sim, "b");
        a.write_at(4, b"xyz").unwrap();
        b.set_len(10).unwrap();
        a.sync().unwrap();
        sim.plan_crash(sim.events(), 0);
        assert!(b.write_at(0, b"q").is_err());
        assert!(b.sync().is_err(), "the machine is down");
        let event = |file: &str, op| SimEvent { file: file.to_string(), op };
        assert_eq!(
            sim.event_log(),
            vec![
                event("a", SimOp::Write { offset: 4, len: 3 }),
                event("b", SimOp::SetLen(10)),
                event("a", SimOp::Sync),
                event("b", SimOp::Write { offset: 0, len: 1 }), // the interrupted one
            ]
        );
        assert_eq!(sim.events(), 4);
    }

    #[test]
    fn unsynced_window_persists_a_seeded_subset() {
        // With many pending one-byte writes, a crash should persist some
        // and drop others (for almost every seed), and the outcome must be
        // reproducible for a fixed seed.
        let outcome = |seed: u64| -> Vec<u8> {
            let sim = CrashSim::new(seed);
            let mut f = open(&sim, "a");
            f.write_at(0, &[0xFF; 16]).unwrap();
            f.sync().unwrap();
            for i in 0..16u64 {
                f.write_at(i, &[i as u8]).unwrap();
            }
            sim.plan_crash(sim.events(), 0);
            assert!(f.sync().is_err());
            sim.recover();
            let mut buf = [0u8; 16];
            assert_eq!(f.read_at(0, &mut buf).unwrap(), 16);
            buf.to_vec()
        };
        let a = outcome(7);
        assert_eq!(a, outcome(7), "same seed, same surviving subset");
        let survived = a.iter().filter(|&&b| b != 0xFF).count();
        assert!(survived > 0 && survived < 16, "subset neither empty nor full: {a:?}");
        assert_ne!(a, outcome(8), "different seed, different subset");
    }

    #[test]
    fn reopen_after_recover_sees_durable_contents() {
        let sim = CrashSim::new(4);
        let mut f = open(&sim, "a");
        f.write_at(0, b"keep").unwrap();
        f.sync().unwrap();
        f.write_at(0, b"lost").unwrap(); // never synced
        sim.plan_crash(u64::MAX, 0);
        drop(f);
        sim.recover();
        let f = open(&sim, "a");
        let mut buf = [0u8; 4];
        f.read_at(0, &mut buf).unwrap();
        // "lost" was pending and the plan never fired (recover dropped it).
        assert_eq!(&buf, b"keep");
    }

    #[test]
    fn set_len_truncates_visible_image() {
        let sim = CrashSim::new(5);
        let mut f = open(&sim, "a");
        f.write_at(0, b"0123456789").unwrap();
        f.set_len(4).unwrap();
        assert_eq!(f.file_len().unwrap(), 4);
        f.sync().unwrap();
        assert_eq!(sim.durable_len("a"), 4);
    }
}
