//! Integration test keeping Theorem 5.1's download count in one formula
//! across crates: dps-core's `DpIrConfig` against dps-analysis's bound.

use dp_storage::analysis::bounds;
use dp_storage::core::dp_ir::DpIrConfig;

/// Theorem 5.1: DP-IR's download count matches the formula, and the
/// formula in dps-analysis stays in sync with dps-core.
#[test]
fn dp_ir_k_formula_in_sync_across_crates() {
    for n in [64usize, 1024, 65536] {
        for epsilon in [1.0, 3.0, (n as f64).ln()] {
            for alpha in [0.05, 0.25] {
                let core_k = DpIrConfig::with_epsilon(n, epsilon, alpha).unwrap().k;
                let analysis_k = bounds::thm_5_1_download_count(n, epsilon, alpha);
                assert_eq!(core_k, analysis_k, "n={n} eps={epsilon} alpha={alpha}");
            }
        }
    }
}
