//! Monte-Carlo estimation of `(ε, δ)` for transcript distributions.
//!
//! Definition 2.1 requires, for every pair of adjacent sequences `Q1, Q2`
//! and every event `S` over adversary views,
//! `Pr[S(Q1) ∈ S] ≤ e^ε · Pr[S(Q2) ∈ S] + δ`.
//!
//! For small instances the view space is enumerable, so we can estimate the
//! full view distribution under each sequence by replaying the scheme with
//! fresh randomness and histogramming canonical view encodings. From the
//! two histograms we report:
//!
//! * `ε̂` — the largest `|ln(p̂₁(v)/p̂₂(v))|` over views with enough mass on
//!   both sides to make the ratio statistically meaningful (pointwise DP;
//!   for finite view spaces the worst event ratio is attained pointwise
//!   when `δ = 0`);
//! * `δ̂(ε)` — `max` over both directions of `Σ_v max(0, p̂₁(v) − e^ε·p̂₂(v))`,
//!   the residual mass not covered by the multiplicative factor. Views seen
//!   under one sequence and never under the other contribute here — this is
//!   exactly how the Section 4 strawman's `δ → 1` shows up.
//!
//! Estimates are subject to sampling error `O(1/√trials)` per view; the
//! report carries the trial count and the support sizes so callers can
//! judge resolution. This is an *audit* (a lower bound on true `(ε, δ)`
//! failures, up to sampling noise), not a proof.

use std::collections::HashMap;

/// Result of a Monte-Carlo privacy audit.
#[derive(Debug, Clone)]
pub struct AuditReport {
    trials: usize,
    histogram_1: HashMap<Vec<u8>, u64>,
    histogram_2: HashMap<Vec<u8>, u64>,
    min_count: u64,
}

impl AuditReport {
    /// Number of trials per sequence.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Number of distinct views observed under each sequence.
    pub fn support_sizes(&self) -> (usize, usize) {
        (self.histogram_1.len(), self.histogram_2.len())
    }

    /// The empirical pointwise `ε̂`: the largest absolute log-likelihood
    /// ratio over views with at least `min_count` observations on both
    /// sides. Returns 0 if no view qualifies (e.g. disjoint supports — in
    /// that case all the distinguishing power is in `δ`, see
    /// [`AuditReport::delta_at`]).
    pub fn epsilon_hat(&self) -> f64 {
        let mut eps: f64 = 0.0;
        for (view, &c1) in &self.histogram_1 {
            let c2 = self.histogram_2.get(view).copied().unwrap_or(0);
            if c1 >= self.min_count && c2 >= self.min_count {
                let ratio = (c1 as f64 / c2 as f64).ln().abs();
                eps = eps.max(ratio);
            }
        }
        eps
    }

    /// A confidence interval for `ε̂` at the given confidence level: the
    /// [`crate::confidence::log_ratio_interval`] of the view attaining the
    /// worst empirical ratio. Returns `None` when no view clears the
    /// `min_count` floor on both sides (ε is then unresolved and all the
    /// signal is in δ).
    pub fn epsilon_hat_interval(&self, confidence: f64) -> Option<crate::confidence::Interval> {
        let mut worst: Option<(u64, u64, f64)> = None;
        for (view, &c1) in &self.histogram_1 {
            let c2 = self.histogram_2.get(view).copied().unwrap_or(0);
            if c1 >= self.min_count && c2 >= self.min_count {
                let ratio = (c1 as f64 / c2 as f64).ln().abs();
                if worst.is_none_or(|(_, _, w)| ratio > w) {
                    worst = Some((c1, c2, ratio));
                }
            }
        }
        let (c1, c2, _) = worst?;
        let interval =
            crate::confidence::log_ratio_interval(c1, c2, self.trials as u64, confidence)?;
        // ε is the magnitude of the log ratio; fold the signed interval.
        let (lo, hi) = (interval.lo, interval.hi);
        Some(if lo >= 0.0 {
            crate::confidence::Interval { lo, hi }
        } else if hi <= 0.0 {
            crate::confidence::Interval { lo: -hi, hi: -lo }
        } else {
            crate::confidence::Interval { lo: 0.0, hi: hi.max(-lo) }
        })
    }

    /// The empirical `δ̂` at privacy budget `epsilon`: residual mass beyond
    /// the `e^ε` multiplicative cover, maximized over both directions.
    pub fn delta_at(&self, epsilon: f64) -> f64 {
        let t = self.trials as f64;
        let factor = epsilon.exp();
        let direction = |h1: &HashMap<Vec<u8>, u64>, h2: &HashMap<Vec<u8>, u64>| -> f64 {
            let mut residual = 0.0;
            for (view, &c1) in h1 {
                let p1 = c1 as f64 / t;
                let p2 = h2.get(view).copied().unwrap_or(0) as f64 / t;
                residual += (p1 - factor * p2).max(0.0);
            }
            residual
        };
        direction(&self.histogram_1, &self.histogram_2)
            .max(direction(&self.histogram_2, &self.histogram_1))
    }

    /// Probability of the view `v` under each sequence, for inspection.
    pub fn view_probabilities(&self, view: &[u8]) -> (f64, f64) {
        let t = self.trials as f64;
        (
            self.histogram_1.get(view).copied().unwrap_or(0) as f64 / t,
            self.histogram_2.get(view).copied().unwrap_or(0) as f64 / t,
        )
    }
}

/// Runs the audit: `view_1(trial)` and `view_2(trial)` must execute the
/// scheme from a **fresh, independent** random state on adjacent sequences
/// `Q1` and `Q2` respectively, returning the canonical encoding of the
/// adversary's view.
///
/// `min_count` is the per-view observation floor for the `ε̂` estimate
/// (views rarer than this are still counted in `δ̂`).
pub fn audit_views(
    trials: usize,
    min_count: u64,
    mut view_1: impl FnMut(usize) -> Vec<u8>,
    mut view_2: impl FnMut(usize) -> Vec<u8>,
) -> AuditReport {
    assert!(trials > 0, "need at least one trial");
    let mut histogram_1: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut histogram_2: HashMap<Vec<u8>, u64> = HashMap::new();
    for t in 0..trials {
        *histogram_1.entry(view_1(t)).or_insert(0) += 1;
        *histogram_2.entry(view_2(t)).or_insert(0) += 1;
    }
    AuditReport { trials, histogram_1, histogram_2, min_count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_crypto::ChaChaRng;

    /// Identical distributions: ε̂ ≈ 0, δ̂ ≈ 0.
    #[test]
    fn identical_distributions_are_private() {
        let report = audit_views(
            20_000,
            20,
            |t| {
                let mut rng = ChaChaRng::seed_from_u64(t as u64);
                vec![rng.gen_index(4) as u8]
            },
            |t| {
                let mut rng = ChaChaRng::seed_from_u64((t + 1_000_000) as u64);
                vec![rng.gen_index(4) as u8]
            },
        );
        assert!(report.epsilon_hat() < 0.1, "ε̂ = {}", report.epsilon_hat());
        assert!(report.delta_at(0.1) < 0.02);
    }

    /// A known multiplicative gap: view 0 has probability 0.8 vs 0.4 —
    /// ratio 2, so ε̂ ≈ ln 2 ≈ 0.69.
    #[test]
    fn detects_known_epsilon() {
        let sample = |p: f64| {
            move |t: usize| {
                let mut rng = ChaChaRng::seed_from_u64((t as u64) << 1 | u64::from(p > 0.5));
                vec![u8::from(!rng.gen_bool(p))]
            }
        };
        let report = audit_views(50_000, 50, sample(0.8), sample(0.4));
        let eps = report.epsilon_hat();
        // max ratio is on view 1: 0.6/0.2 = 3 -> ln 3 ≈ 1.10.
        assert!((eps - 3f64.ln()).abs() < 0.1, "ε̂ = {eps}");
    }

    /// Disjoint supports: everything lands in δ.
    #[test]
    fn detects_catastrophic_delta() {
        let report = audit_views(5_000, 10, |_| vec![0u8], |_| vec![1u8]);
        assert_eq!(report.epsilon_hat(), 0.0, "no overlapping views");
        assert!((report.delta_at(10.0) - 1.0).abs() < 1e-9, "δ̂ must be 1");
    }

    /// δ decreases as ε grows.
    #[test]
    fn delta_monotone_in_epsilon() {
        let report = audit_views(
            20_000,
            20,
            |t| {
                let mut rng = ChaChaRng::seed_from_u64(t as u64);
                vec![u8::from(rng.gen_bool(0.7))]
            },
            |t| {
                let mut rng = ChaChaRng::seed_from_u64((t as u64) + 7_777_777);
                vec![u8::from(rng.gen_bool(0.3))]
            },
        );
        let d0 = report.delta_at(0.0);
        let d1 = report.delta_at(1.0);
        let d2 = report.delta_at(2.0);
        assert!(d0 >= d1 && d1 >= d2, "δ̂ must be monotone: {d0} {d1} {d2}");
    }

    /// The ε̂ interval brackets the true ε of a known mechanism.
    #[test]
    fn epsilon_interval_brackets_truth() {
        let sample = |p: f64| {
            move |t: usize| {
                let mut rng = ChaChaRng::seed_from_u64((t as u64) << 1 | u64::from(p > 0.5));
                vec![u8::from(!rng.gen_bool(p))]
            }
        };
        let report = audit_views(50_000, 50, sample(0.8), sample(0.4));
        let interval = report.epsilon_hat_interval(0.95).expect("resolved views");
        // True worst ratio: 0.6/0.2 = 3.
        assert!(interval.contains(3f64.ln()), "{interval:?} misses ln 3");
        assert!(interval.width() < 0.3, "interval too wide: {interval:?}");
    }

    /// Disjoint supports leave ε unresolved (interval is None).
    #[test]
    fn epsilon_interval_unresolved_on_disjoint_supports() {
        let report = audit_views(1_000, 10, |_| vec![0u8], |_| vec![1u8]);
        assert!(report.epsilon_hat_interval(0.95).is_none());
    }

    #[test]
    fn support_and_probability_accessors() {
        let report = audit_views(100, 5, |_| vec![7u8], |_| vec![7u8]);
        assert_eq!(report.support_sizes(), (1, 1));
        assert_eq!(report.view_probabilities(&[7u8]), (1.0, 1.0));
        assert_eq!(report.view_probabilities(&[8u8]), (0.0, 0.0));
        assert_eq!(report.trials(), 100);
    }
}
