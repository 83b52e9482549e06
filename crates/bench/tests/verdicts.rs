//! The paper's claims, checked once: each test runs one experiment in fast
//! mode and asserts that it returns verdicts and that every one holds. The
//! claims themselves — theorem, parameter points, tolerance — live in the
//! experiments (`dps_bench::experiments`), next to the tables they are
//! computed from.
//!
//! E4, E6, E12, E16 and E17 take seconds to a minute each without
//! optimisation, so only the release `experiments --fast all` in CI runs
//! them; `tests/privacy_audits.rs` still audits the strawman (E4) and
//! DP-RAM (E6) here.

use dps_bench::INDEX;

fn holds(id: &str) {
    let (_, _, run) = INDEX.iter().find(|(known, ..)| *known == id).expect("indexed");
    let verdicts = run(true);
    assert!(!verdicts.is_empty(), "{id} returned no verdict");
    let false_ones: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.holds)
        .map(ToString::to_string)
        .collect();
    assert!(false_ones.is_empty(), "{id}:\n{}", false_ones.join("\n"));
}

/// One test per experiment, named by its id.
macro_rules! every_verdict_holds {
    ($($id:ident),*) => {$(
        #[test]
        fn $id() {
            holds(stringify!($id));
        }
    )*};
}

every_verdict_holds!(e1, e2, e3, e5, e7, e8, e9, e10, e11, e13, e14, e15, e18, e19, e20, e21, e22);
