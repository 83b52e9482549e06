//! The constructions of *"What Storage Access Privacy is Achievable with
//! Small Overhead?"* (Patel, Persiano, Yeo — PODS 2019).
//!
//! Three differentially-private storage primitives, one insecure cautionary
//! tale, and a multi-server extension:
//!
//! * [`dp_ir`] — **DP-IR** (Section 5, Algorithm 1): stateless retrieval
//!   with error probability `α`, downloading
//!   `K = ⌈(1−α)·n / (e^ε − 1)⌉` blocks per query. Asymptotically optimal
//!   against the Theorem 3.4 lower bound; `O(1)` blocks at `ε = Θ(log n)`.
//! * [`strawman`] — the **insecure** construction of Section 4: query the
//!   real block always, every other block with probability `1/n`. Looks
//!   private, but is only `(ε, δ)`-DP with `δ ≥ (n−1)/n` — no privacy.
//!   Kept (clearly labeled) so the failure is reproducible.
//! * [`dp_ram`] — **DP-RAM** (Section 6, Algorithms 2–3): errorless
//!   stash-based reads and writes, exactly 2 downloads + 1 upload per
//!   query, `ε = O(log n)` with client stash `O(Φ(n))` whp.
//! * [`dp_ram_ro`] — the retrieval-only DP-RAM of the Section 6 discussion:
//!   no encryption, no overwrite phase; differentially private access to
//!   *public* data against computationally unbounded adversaries.
//! * [`bucket_ram`] — the Appendix E generalization: DP-RAM over a
//!   repertoire of (possibly overlapping) buckets of cells, with
//!   client-side overlap resolution.
//! * [`dp_kvs`] — **DP-KVS** (Section 7): the oblivious two-choice forest
//!   mapping scheme composed with bucketed DP-RAM; `O(log log n)` blocks
//!   per operation, `ε = O(log n)`, `O(n)` server storage.
//! * [`multi_server`] — multi-server DP-IR in the Appendix C model.
//! * [`batched_ir`] — an extension beyond the paper, as methods of the one
//!   DP-IR client [`DpIr`]: `m` queries answered by the union of their
//!   download sets in one round trip, with unchanged per-query `ε` and
//!   sublinear bandwidth, and records sealed at rest. A single query is a
//!   batch of one.
//!
//! Every construction is generic over `dps_server::Storage`, so the same
//! code runs against the in-process simulators and against a real
//! network daemon through `dps_net::RemoteServer` — the loopback
//! equivalence suite in `dps_net` pins the two bit-identical.
//!
//! **Hardening against a server that lies is not a scheme: wrap the
//! storage.** `DpRam::setup(config, &blocks, Verified::new(server), rng)`
//! (`dps_server::Verified`) checks every downloaded cell against a Merkle
//! root in client state — corruption, swaps and rollbacks are
//! `ServerError::Integrity` at the attacked address — with the transcript and
//! costs of Theorem 6.1 unchanged; likewise `DpKvs`, `DpIr` and the ORAMs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batched_ir;
pub mod bucket_ram;
pub mod dp_ir;
pub mod dp_kvs;
pub mod dp_ram;
pub mod dp_ram_ro;
pub mod multi_server;
pub mod strawman;

pub use dp_ir::{DpIr, DpIrConfig};
pub use dp_kvs::{DpKvs, DpKvsConfig};
pub use dp_ram::{DpRam, DpRamConfig};
