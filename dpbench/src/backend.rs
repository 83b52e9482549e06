//! The backends a workload runs on: the full path users run, and the
//! substitutions that add one layer at a time for the traced pass.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use dps_net::{DaemonMetrics, NetDaemon, RemoteServer};
use dps_server::{DiskOptions, DiskStore, RealVfs, SimServer};

use crate::vfs::{TimedVfs, VfsProbe};
use crate::workloads::{client, Client, Spec};

/// Where the storage lives, from the scheme's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `A0`: in-process `SimServer`.
    Sim,
    /// `A1`: `RemoteServer` → `NetDaemon<SimServer>` — adds wire and daemon.
    RemoteSim,
    /// `A2`: in-process `DiskStore` on the timed VFS — adds store and files.
    Disk,
    /// `A3`: `RemoteServer` → `NetDaemon<DiskStore>`, the path users run.
    /// `timed_vfs` puts the [`TimedVfs`] shim under the store.
    Full { timed_vfs: bool },
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "A0",
            Backend::RemoteSim => "A1",
            Backend::Disk => "A2",
            Backend::Full { timed_vfs: true } => "A3",
            Backend::Full { timed_vfs: false } => "full",
        }
    }
}

/// A unique directory under a root, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(root: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!("dpbench_{}_{}", std::process::id(), NEXT.fetch_add(1, Relaxed));
        let path = root.join(name);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Waits until the filesystem holding `dir` has written back everything
/// written before now (`sync -f`, one `syncfs`), so that a set-up or a timed
/// phase does not share the device with the write-back of a build, of an
/// earlier run's files or of a deleted store's blocks. The wait is no part
/// of the workload and is not timed. A run that cannot quiesce fails: its
/// fsync-bound numbers would be off by up to a factor of two with nothing
/// in the result to say so.
pub fn quiesce(dir: &Path) -> Result<(), String> {
    let status = std::process::Command::new("sync").arg("-f").arg(dir).status();
    match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(format!("sync -f {}: {s}", dir.display())),
        Err(e) => Err(format!("sync -f {}: {e}", dir.display())),
    }
}

/// Pins this thread, and with it every thread and process started later,
/// to the last CPU it may run on (`taskset -p`). Client and daemon take
/// turns in a closed loop, so one CPU loses them nothing; on two they hand
/// over either by a context switch or by waking a halted CPU, whichever way
/// the scheduler happened to place them, and on a virtual machine the
/// second costs three times the first: every timing came out in one of two
/// modes. A process left with more than one CPU fails, for the same reason
/// as in [`quiesce`]; starting it under `taskset -c <cpu>` also satisfies
/// this.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let allowed = crate::header::allowed_cpus();
    if let [_, .., last] = allowed[..] {
        let _ = std::process::Command::new("taskset")
            .args(["-p", "-c", &last.to_string(), &std::process::id().to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
    }
    match crate::header::allowed_cpus()[..] {
        // One CPU, or no `/proc` to tell (not Linux: nothing to pin with).
        [] | [_] => Ok(()),
        ref more => Err(format!(
            "could not pin to one CPU (taskset -p failed; still allowed {more:?}): run under \
             `taskset -c <cpu>`"
        )),
    }
}

/// A workload's client on one backend, with everything that must outlive
/// it. Fields drop in order: the client (and its connection) first, then
/// the daemon (which drains and joins its thread), then the directory.
pub struct Rig {
    pub client: Box<dyn Client>,
    daemon: Option<NetDaemon>,
    /// Present when the backend's store runs on the timed VFS.
    pub probe: Option<Arc<VfsProbe>>,
    _dir: Option<ScratchDir>,
}

impl Rig {
    /// Opens the backend, sets the scheme up on it and loads it: all of a
    /// workload's set-up except the warm-up ops.
    pub fn build(spec: &Spec, backend: Backend, seed: u64, scratch: &Path) -> Result<Rig, String> {
        let io = |e: std::io::Error| format!("{} on {}: {e}", spec.name, backend.label());
        let opts = DiskOptions {
            cache_bytes: spec.cache_bytes.unwrap_or(DiskOptions::default().cache_bytes),
            ..DiskOptions::default()
        };
        let serve = |daemon: std::io::Result<NetDaemon>| -> Result<_, String> {
            let daemon = daemon.map_err(io)?;
            let remote = RemoteServer::connect(daemon.local_addr()).map_err(io)?;
            Ok((client(spec, seed, remote)?, Some(daemon)))
        };
        let mut dir = None;
        let mut probe = None;
        let mut timed_store = || -> Result<_, String> {
            let d = dir.insert(ScratchDir::new(scratch).map_err(io)?);
            let p = probe.insert(Arc::new(VfsProbe::default()));
            let vfs = TimedVfs::new(RealVfs::new(d.path()).map_err(io)?, Arc::clone(p));
            DiskStore::open_on(vfs, opts).map_err(|e| format!("{}: {e}", spec.name))
        };
        let (client, daemon) = match backend {
            Backend::Sim => (client(spec, seed, SimServer::new())?, None),
            Backend::RemoteSim => serve(NetDaemon::spawn(SimServer::new()))?,
            Backend::Disk => (client(spec, seed, timed_store()?)?, None),
            Backend::Full { timed_vfs: true } => serve(NetDaemon::spawn(timed_store()?))?,
            Backend::Full { timed_vfs: false } => {
                let d = dir.insert(ScratchDir::new(scratch).map_err(io)?);
                let store = DiskStore::open_with(d.path(), opts)
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                serve(NetDaemon::spawn(store))?
            }
        };
        Ok(Rig { client, daemon, probe, _dir: dir })
    }

    /// The daemon's event-loop counters, when the backend has a daemon.
    pub fn daemon_metrics(&self) -> Option<DaemonMetrics> {
        self.daemon.as_ref().map(NetDaemon::metrics)
    }
}
