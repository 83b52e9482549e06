//! The balls-and-bins storage server model (Definition 3.1 of the paper).
//!
//! The paper's lower bounds and constructions all live in a model where the
//! server is *passive storage*: the client may only download the cell at an
//! address or upload a cell to an address. Everything the adversary learns
//! is the **transcript** — the sequence of addresses touched (cell contents
//! are ciphertexts, handled as opaque bytes here).
//!
//! [`Accounted`] is that model, written once ([`server`]): it stores opaque
//! cells in a [`CellBackend`], optionally records the full adversarial
//! transcript ([`transcript::Transcript`]), and keeps running cost counters
//! ([`stats::CostStats`]: operations, bytes, round trips) so that every
//! overhead claim in the paper is measurable. [`SimServer`] is the model
//! over a memory arena — the in-process simulation.
//!
//! For PIR-style baselines the model is extended with one *active* server
//! operation, [`Storage::xor_cells`], which models "the server operates on
//! these records" and is charged one operation per record touched — exactly
//! the accounting used by Theorems 3.3/3.4.
//!
//! [`multi::ReplicatedServers`] replicates a database over `D` servers for
//! the multi-server DP-IR setting of Appendix C.
//!
//! [`DiskStore`] is the same model over the durable backend, a
//! write-ahead-logged arena file, so a restarted daemon serves the same
//! cells ([`disk`] for the protocol, [`crashsim`] for the deterministic
//! crash-injection harness that pins its recovery guarantees).

// `deny` rather than `forbid`: the crate has two `unsafe` boundaries, each
// a private module with its safety audit in the module docs that `allow`s
// the lint for itself — `mapping` (`mmap`/`munmap` behind a read-only
// slice) and `crc` (one call into the CRC-32 carry-less fold, guarded by
// the `Avx2` dispatch tier and the detected `pclmulqdq`/`sse4.1` its
// `target_feature` body enables; the body is safe code). Everything else
// stays unsafe-free, and the row "Four audited unsafe modules" of
// `tests/one_way.rs` names any file that adds another exception.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod cells;
pub mod crashsim;
mod crc;
pub mod disk;
pub mod latency;
mod mapping;
pub mod multi;
pub mod server;
pub mod settings;
pub mod stats;
pub mod storage;
pub mod store;
pub mod transcript;
pub mod verified;
pub mod wal;

pub use crashsim::{CrashFile, CrashSim, SimEvent, SimOp, Tear};
pub use disk::{DiskBackend, DiskFile, DiskOptions, DiskStore, RealVfs, Vfs};
pub use latency::NetworkModel;
pub use multi::ReplicatedServers;
pub use server::{check_upload, Accounted, CellBackend, ServerError, SimServer};
pub use stats::{CacheTelemetry, CostStats};
pub use storage::Storage;
pub use store::CellStore;
pub use transcript::{AccessEvent, Transcript};
pub use verified::Verified;
pub use wal::DiskError;
