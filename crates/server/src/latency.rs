//! A network-latency model over [`crate::stats::CostStats`].
//!
//! The paper's headline comparison against recursive Path ORAM is about
//! *round trips*: DP-RAM answers in `O(1)` round trips where the recursion
//! pays `Θ(log n)`. Operation counts alone hide that difference, so the
//! experiment tables convert a measured [`CostStats`] into estimated
//! wall-clock time under a parametric network: a fixed per-round-trip RTT
//! plus byte-rate transfer time. This is a *model*, not a measurement —
//! experiment E18 prints both the raw counters and the modeled latency so
//! readers can re-derive times under their own network assumptions.

use crate::stats::CostStats;

/// A simple two-parameter network model: latency + bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Round-trip time in microseconds.
    pub rtt_us: f64,
    /// Link throughput in bytes per microsecond (= MB/s).
    pub bytes_per_us: f64,
}

impl NetworkModel {
    /// A same-datacenter profile: 200 µs RTT, ~1.25 GB/s (10 Gb/s).
    pub fn datacenter() -> Self {
        Self { rtt_us: 200.0, bytes_per_us: 1250.0 }
    }

    /// A wide-area profile: 30 ms RTT, ~12.5 MB/s (100 Mb/s).
    pub fn wan() -> Self {
        Self { rtt_us: 30_000.0, bytes_per_us: 12.5 }
    }

    /// A mobile profile: 75 ms RTT, ~2.5 MB/s (20 Mb/s).
    pub fn mobile() -> Self {
        Self { rtt_us: 75_000.0, bytes_per_us: 2.5 }
    }

    /// Estimated wall-clock microseconds to execute the traffic summarized
    /// by `stats`: one RTT per round trip plus serialized transfer time.
    pub fn estimate_us(&self, stats: &CostStats) -> f64 {
        assert!(self.rtt_us >= 0.0 && self.bytes_per_us > 0.0, "invalid model");
        stats.round_trips as f64 * self.rtt_us + stats.bytes_total() as f64 / self.bytes_per_us
    }

    /// Modeled microseconds per query given a total over `queries` queries.
    pub fn per_query_us(&self, stats: &CostStats, queries: usize) -> f64 {
        assert!(queries > 0, "need at least one query");
        self.estimate_us(stats) / queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(round_trips: u64, bytes: u64) -> CostStats {
        CostStats { round_trips, bytes_down: bytes, ..Default::default() }
    }

    #[test]
    fn rtt_dominates_chatty_protocols() {
        let m = NetworkModel::wan();
        // 10 round trips of 1 KiB vs 1 round trip of 10 KiB.
        let chatty = m.estimate_us(&stats(10, 10 * 1024));
        let batched = m.estimate_us(&stats(1, 10 * 1024));
        assert!(chatty > 9.0 * batched / 1.1, "chatty {chatty} vs batched {batched}");
    }

    #[test]
    fn bandwidth_dominates_bulk_transfers() {
        let m = NetworkModel::datacenter();
        let bulk = m.estimate_us(&stats(1, 1 << 30)); // 1 GiB
        assert!(bulk > 100.0 * m.rtt_us);
    }

    #[test]
    fn estimate_is_linear() {
        let m = NetworkModel::datacenter();
        let one = m.estimate_us(&stats(1, 1000));
        let ten = m.estimate_us(&stats(10, 10_000));
        assert!((ten - 10.0 * one).abs() < 1e-9);
    }

    #[test]
    fn per_query_divides() {
        let m = NetworkModel::mobile();
        let total = stats(20, 2000);
        assert!((m.per_query_us(&total, 10) - m.estimate_us(&total) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn profiles_are_ordered_by_rtt() {
        assert!(NetworkModel::datacenter().rtt_us < NetworkModel::wan().rtt_us);
        assert!(NetworkModel::wan().rtt_us < NetworkModel::mobile().rtt_us);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn per_query_rejects_zero() {
        NetworkModel::datacenter().per_query_us(&CostStats::default(), 0);
    }
}
