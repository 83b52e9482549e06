//! Oblivious RAM baselines.
//!
//! The paper positions its DP-RAM against ORAM: obliviousness costs
//! `Ω(log n)` overhead (Goldreich–Ostrovsky, Larsen–Nielsen) while DP-RAM
//! achieves `O(1)` at `ε = Θ(log n)`. To *measure* that separation we need a
//! faithful ORAM implementation, not a formula:
//!
//! * [`path_oram`] — Path ORAM (Stefanov et al., CCS'13), the scheme the
//!   paper's own DP-RAM comparison (\[50\] Root ORAM) starts from: binary
//!   tree of Z-slot buckets, client stash, client position map. Bandwidth is
//!   `2·Z·(L+1)` blocks per access over 2 round trips; with the position map
//!   stored recursively (as required for small-client deployments, see
//!   [`path_oram::PathOram::recursive_round_trips`]) the round trips grow to
//!   `Θ(log n)`.
//! * [`recursive`] — Path ORAM with the position map stored recursively in
//!   smaller ORAMs: the small-client deployment whose `Θ(log n)` round
//!   trips the paper's comparison against \[50\] is about.
//! * [`square_root`] — Goldreich's square-root ORAM: the classic `Θ(√n)`
//!   point between DP-RAM's `O(1)` and the linear scan.
//! * [`linear`] — the trivial linear-scan ORAM: perfectly oblivious,
//!   touching all `n` cells per access. The other end of the spectrum.
//! * [`kvs`] — an ORAM-backed key-value store: the "oblivious key-value
//!   storage built from ORAMs" that Theorem 7.5's `O(log log n)` overhead is
//!   exponentially better than.
//!
//! All ORAMs are generic over `dps_server::Storage` and run unmodified
//! against a network server via `dps_net::RemoteServer`; round-trip
//! counts (the measure the recursive comparison is about) then map
//! one-to-one onto framed wire exchanges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kvs;
pub mod linear;
pub mod path_oram;
pub mod recursive;
pub mod square_root;

pub use kvs::OramKvs;
pub use linear::LinearOram;
pub use path_oram::{PathOram, PathOramConfig};
pub use recursive::{RecursiveOramConfig, RecursivePathOram};
pub use square_root::SquareRootOram;
