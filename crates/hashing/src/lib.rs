//! Two-choice hashing, classic and oblivious (Section 7 of the paper).
//!
//! The DP-KVS construction needs a *mapping scheme* that assigns keys from a
//! large universe to buckets of server storage while hiding bucket loads.
//! Padding every bucket of plain two-choice hashing to its worst-case
//! `O(log log n)` size costs `O(n log log n)` storage; the paper's novel
//! alternative arranges buckets as paths through a forest of
//! `Θ(n / log n)` binary trees so buckets *share* storage, recovering `O(n)`
//! server cells (Theorem 7.2).
//!
//! * [`classic`] — plain one-choice and two-choice balls-in-bins processes,
//!   reproducing the `Θ(log n / log log n)` vs `Θ(log log n)` max-load
//!   separation (Theorem A.1) that motivates the construction;
//! * [`forest`] — the oblivious two-choice forest: geometry, the mapping
//!   function `Π` ([`forest::TwoChoice`]), the storing algorithm `S`,
//!   level-occupancy accounting, and an in-memory reference implementation
//!   used both by experiments and by the DP-KVS client;
//! * [`theory`] — the `β_i` recursion of Lemma 7.3 as executable formulas.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
pub mod cuckoo;
pub mod forest;
pub mod theory;

pub use cuckoo::CuckooTable;
pub use forest::{Entry, ForestGeometry, ObliviousForest, Placement};
