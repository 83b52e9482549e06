//! The plaintext reference every gated time is reported against.
//!
//! The paper asks what private access costs *over plaintext access*, so the
//! benchmark times plaintext access too: the cheapest store that gives a
//! caller the same service on the same machine. For the durable workloads
//! that is a flat file of cells behind a loopback socket, one exchange per
//! op, `pwrite` + `fdatasync` before a write is acknowledged; for the
//! in-process workload a hash map. It shares no code with the repository, so
//! every layer under test is in the numerator only and any gain or loss in
//! one of them moves the ratio.
//!
//! It runs in short turns between the workload's own, so a slow spell of the
//! machine lands on both alike and cancels in the ratio. On a shared virtual
//! machine that ratio is the only timing that repeats: one build's absolute
//! times moved by 20–50 % for minutes at a time, a uniform slowdown of
//! processor and disk together.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dps_crypto::ChaChaRng;

use crate::backend::ScratchDir;
use crate::measure::cpu_time;
use crate::workloads::{Scheme, Spec};

const READ: u8 = 0;
const WRITE: u8 = 1;

/// Serves one connection: `[op, cell index as u32]`, then the cell for a
/// write; answers a read with the cell and a write, once it is on disk,
/// with one byte.
fn serve(mut stream: TcpStream, file: File, cell_len: usize) {
    let mut head = [0u8; 5];
    let mut cell = vec![0u8; cell_len];
    while stream.read_exact(&mut head).is_ok() {
        let [op, index @ ..] = head;
        let offset = u64::from(u32::from_le_bytes(index)) * cell_len as u64;
        let done = if op == WRITE {
            stream
                .read_exact(&mut cell)
                .and_then(|()| file.write_all_at(&cell, offset))
                .and_then(|()| file.sync_data())
                .and_then(|()| stream.write_all(&[0]))
        } else {
            file.read_exact_at(&mut cell, offset)
                .and_then(|()| stream.write_all(&cell))
        };
        if done.is_err() {
            break;
        }
    }
}

enum Store {
    Memory(HashMap<u32, Vec<u8>>),
    /// Fields drop in order; [`Reference`]'s `Drop` closes the connection
    /// and joins the server before the directory goes.
    Remote {
        stream: TcpStream,
        server: Option<JoinHandle<()>>,
        _dir: ScratchDir,
    },
}

/// The reference store, its op trace, and what its turns have cost so far.
pub struct Reference {
    store: Store,
    /// `(cell, is a write)`, wrapping.
    trace: Vec<(u32, bool)>,
    next: usize,
    cell: Vec<u8>,
    pub ops: u64,
    pub wall: Duration,
    pub cpu: Duration,
}

impl Reference {
    /// A store of the workload's record count and size, filled, and a trace
    /// of uniformly drawn cells with the workload's share of writes.
    pub fn build(spec: &Spec, seed: u64, scratch: &Path) -> Result<Reference, String> {
        let io = |e: io::Error| format!("{} reference: {e}", spec.name);
        let cells = u32::try_from(spec.n).map_err(|e| format!("{} reference: {e}", spec.name))?;
        let write_share = match spec.scheme {
            Scheme::Ram => 0.5,
            Scheme::Ir => 0.0,
            Scheme::Kvs => 0.25,
        };
        let mut rng = ChaChaRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let trace = (0..1 << 16)
            .map(|_| (rng.gen_range(u64::from(cells)) as u32, rng.gen_bool(write_share)))
            .collect();
        let cell = vec![0x5a; spec.value_len];
        let store = if spec.durable {
            let dir = ScratchDir::new(scratch).map_err(io)?;
            let file = File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(dir.path().join("cells"))
                .map_err(io)?;
            // Written, not just sized, so that no later write allocates.
            file.write_all_at(&vec![0x5a; spec.n * spec.value_len], 0)
                .map_err(io)?;
            file.sync_all().map_err(io)?;
            let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
            let stream = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
            let (served, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            served.set_nodelay(true).map_err(io)?;
            let cell_len = spec.value_len;
            let server = std::thread::spawn(move || serve(served, file, cell_len));
            Store::Remote { stream, server: Some(server), _dir: dir }
        } else {
            Store::Memory((0..cells).map(|i| (i, cell.clone())).collect())
        };
        let zero = Duration::ZERO;
        Ok(Reference { store, trace, next: 0, cell, ops: 0, wall: zero, cpu: zero })
    }

    fn step(&mut self) -> io::Result<()> {
        let (index, write) = self.trace[self.next % self.trace.len()];
        self.next += 1;
        match &mut self.store {
            Store::Memory(map) => {
                if write {
                    map.insert(index, self.cell.clone());
                } else {
                    self.cell = map[&index].clone();
                }
            }
            Store::Remote { stream, .. } => {
                let mut head = [if write { WRITE } else { READ }, 0, 0, 0, 0];
                head[1..].copy_from_slice(&index.to_le_bytes());
                stream.write_all(&head)?;
                if write {
                    stream.write_all(&self.cell)?;
                    stream.read_exact(&mut [0])?;
                } else {
                    stream.read_exact(&mut self.cell)?;
                }
            }
        }
        Ok(())
    }

    /// One turn: ops back to back for `duration`, timed as a whole (an op
    /// of the in-memory store is shorter than reading the clock). Returns
    /// the turn's mean op time in nanoseconds.
    pub fn run(&mut self, duration: Duration) -> Result<f64, String> {
        let cpu_before = cpu_time();
        let started = Instant::now();
        let mut ops = 0u64;
        let wall = loop {
            for _ in 0..64 {
                self.step().map_err(|e| format!("reference store: {e}"))?;
            }
            ops += 64;
            let elapsed = started.elapsed();
            if elapsed >= duration {
                break elapsed;
            }
        };
        self.ops += ops;
        self.wall += wall;
        self.cpu += cpu_time().saturating_sub(cpu_before);
        Ok(wall.as_nanos() as f64 / ops as f64)
    }

    pub fn mean_us(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.ops.max(1) as f64
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        if let Store::Remote { stream, server, .. } = &mut self.store {
            // The server's next read sees the end of the stream and returns.
            let _ = stream.shutdown(Shutdown::Both);
            if let Some(server) = server.take() {
                let _ = server.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference is a store: what was written is what is read back, on
    /// both kinds, and a turn runs and accounts for its ops.
    #[test]
    fn reference_store_reads_back_what_it_wrote() {
        for name in ["ram_durable", "kvs_local"] {
            let spec = Spec::named(name, true).unwrap();
            let mut r = Reference::build(&spec, 1, &std::env::temp_dir()).unwrap();
            r.trace = vec![(7, true), (7, false), (8, false)];
            r.cell = vec![0xc3; spec.value_len];
            r.step().unwrap();
            r.cell.fill(0);
            r.step().unwrap();
            assert_eq!(r.cell, vec![0xc3; spec.value_len], "{name}");
            r.step().unwrap();
            assert_eq!(r.cell, vec![0x5a; spec.value_len], "{name}");
            let mean_ns = r.run(Duration::from_millis(20)).unwrap();
            assert!(mean_ns > 0.0 && r.ops >= 64 && r.wall >= Duration::from_millis(20));
        }
    }
}
