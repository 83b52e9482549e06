//! Experiment harness for the `dp-storage` reproduction.
//!
//! The paper is a theory paper with no empirical tables, so the
//! "evaluation" regenerated here is the set of quantitative claims its
//! theorems make. Each experiment function prints a self-describing table
//! of **paper-claim vs measured**; [`INDEX`] lists them, and the
//! `experiments` binary dispatches on its ids. Wall-clock numbers are the
//! end-to-end benchmark's business (`dpbench/`), not this crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

use experiments::{audit, compare, extensions, hash, ir, kvs, ram};

/// One row of [`INDEX`]: id, one-line title, runner (its argument is `fast`).
type Experiment = (&'static str, &'static str, fn(bool));

/// The experiment index, one `(id, one-line title, runner)` per experiment
/// (the runner's argument is `fast`). The one list [`run_all`], the binary's
/// dispatcher and its usage message read.
pub const INDEX: &[Experiment] = &[
    ("e1", "Thm 3.3: errorless retrieval touches >= (1-delta)*n records", ir::run_e1),
    ("e2", "Thm 3.4 + 5.1: DP-IR downloads vs the lower bound", ir::run_e2),
    ("e3", "Thm 5.1: constant overhead at epsilon = ln n, and an empirical audit", ir::run_e3),
    ("e4", "Sec 4: the strawman is insecure, delta >= (n-1)/n", ir::run_e4),
    ("e5", "Thm 6.1: DP-RAM O(1) overhead vs Path ORAM Theta(log n)", ram::run_e5),
    ("e6", "Thm 6.1: DP-RAM empirical privacy on adjacent sequences", audit::run_e6),
    ("e7", "Thm 3.7: the DP-RAM lower bound vs the measured blocks per query", ram::run_e7),
    ("e8", "Lemma D.1: the client stash stays O(Phi(n)) whp", ram::run_e8),
    ("e9", "Thm A.1: one-choice vs two-choice max load", hash::run_e9),
    ("e10", "Thm 7.2 + Lemma 7.3: the two-choice forest at full load", hash::run_e10),
    ("e11", "Thm 7.5: DP-KVS O(log log n) vs ORAM-KVS Theta(log n) cells per op", kvs::run_e11),
    ("e12", "Thm 7.1: DP-KVS empirical privacy, hit vs miss included", audit::run_e12),
    ("e13", "Thm C.1: multi-server DP-IR vs the corruption-fraction bound", ir::run_e13),
    ("e14", "Sec 6: retrieval-only DP-RAM on plaintext data", audit::run_e14),
    ("e15", "ablation: stash probability vs client storage and decoy rate", ram::run_e15),
    ("e16", "ablation: forest geometry vs super-root load", hash::run_e16),
    ("e17", "every scheme and baseline: us, blocks and round trips per op", compare::run_e17),
    ("e18", "round trips -> modeled latency under three network models", extensions::run_e18),
    ("e19", "batched DP-IR: union size and round trips vs batch size", extensions::run_e19),
    ("e20", "D-server oblivious PIR vs multi-server DP-IR", extensions::run_e20),
    ("e21", "honest-but-curious vs hardened DP-RAM", extensions::run_e21),
    ("e22", "two-choice forest vs cuckoo hashing as the DP-KVS mapping", extensions::run_e22),
];

/// Runs every experiment in order (fast mode trims trial counts so the
/// whole suite finishes in a couple of minutes).
pub fn run_all(fast: bool) {
    for (_, _, run) in INDEX {
        run(fast);
    }
}
