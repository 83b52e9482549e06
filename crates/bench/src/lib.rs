//! Experiment harness for the `dp-storage` reproduction.
//!
//! The paper is a theory paper with no empirical tables, so the
//! "evaluation" regenerated here is the set of quantitative claims its
//! theorems make. Each experiment prints a self-describing table of
//! **paper-claim vs measured** and returns its [`Verdict`]s: each claim,
//! naming its theorem and tolerance, checked against the numbers of that
//! table at the parameter points the table covers. [`INDEX`] lists the
//! experiments; the `experiments` binary dispatches on its ids and exits 1
//! on a false verdict, and `tests/verdicts.rs` asserts the fast-mode
//! verdicts of the cheap experiments. No verdict reads a wall-clock column:
//! timing is the end-to-end benchmark's business (`dpbench/`), not this
//! crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

use std::fmt;

use experiments::{audit, compare, extensions, hash, ir, kvs, ram};

/// One claim checked against the rows of the table printed above it.
#[derive(Debug)]
pub struct Verdict {
    /// The claim: the theorem it comes from, the parameter points it is
    /// evaluated at, and its tolerance.
    pub claim: String,
    /// What the rows measured.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub holds: bool,
}

impl Verdict {
    /// A verdict on `claim` from what was `measured`.
    pub fn new(claim: impl Into<String>, measured: impl Into<String>, holds: bool) -> Self {
        Self { claim: claim.into(), measured: measured.into(), holds }
    }

    /// A claim made at every row: `measured` lists `show` of each row, and
    /// the claim holds if `holds` does at all of them.
    pub fn at_every<R>(
        claim: impl Into<String>,
        rows: &[R],
        show: impl Fn(&R) -> String,
        holds: impl Fn(&R) -> bool,
    ) -> Self {
        let measured = rows.iter().map(show).collect::<Vec<_>>().join(", ");
        Self::new(claim, measured, rows.iter().all(holds))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.holds { "holds" } else { "FALSE" };
        write!(f, "[{mark}] {} — measured: {}", self.claim, self.measured)
    }
}

/// One row of [`INDEX`]: id, one-line title, runner (its argument is `fast`).
type Experiment = (&'static str, &'static str, fn(bool) -> Vec<Verdict>);

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
    ("e21", "honest-but-curious vs hardened storage, same seed", extensions::run_e21),
    ("e22", "two-choice forest vs cuckoo hashing as the DP-KVS mapping", extensions::run_e22),
];

/// Runs every experiment in order (fast mode trims trial counts so the
/// whole suite finishes in seconds), returning each id with its verdicts.
pub fn run_all(fast: bool) -> Vec<(&'static str, Vec<Verdict>)> {
    INDEX.iter().map(|(id, _, run)| (*id, run(fast))).collect()
}
