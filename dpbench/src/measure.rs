//! The timed loop, the estimators and the process counters.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::workloads::Client;

/// Slices a run is cut into for the windowed estimators.
pub const SLICES: usize = 10;
/// A slice's tail percentile is only reported with at least this many
/// samples beyond it. (With 15 the p99 of the slowest workload, five slices
/// of 1 700 ops, spread 34 % between runs of one build.)
const TAIL_SAMPLES: f64 = 50.0;

/// Nanoseconds from the process-wide trace epoch (first use) to `t`.
pub fn since_epoch_ns(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `n` items cut into `slices` consecutive ranges of equal length (the
/// remainder, fewer than `slices` items, is left off the end).
fn slice_ranges(n: usize, slices: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let len = n / slices;
    (0..slices).map(move |s| s * len..(s + 1) * len)
}

/// A tail percentile as the median of that percentile over equal
/// consecutive slices of the run, so that one stall burst moves one slice
/// and not the metric. Uses [`SLICES`] slices when each keeps
/// [`TAIL_SAMPLES`] samples beyond the percentile, fewer otherwise. Returns
/// the estimate and the slice count.
pub fn sliced_percentile(lat_ns: &[u64], p: f64) -> (f64, usize) {
    let per_slice = TAIL_SAMPLES / (1.0 - p / 100.0);
    let slices = ((lat_ns.len() as f64 / per_slice) as usize).clamp(1, SLICES);
    let mut tails: Vec<f64> = slice_ranges(lat_ns.len(), slices)
        .map(|r| {
            let mut s = lat_ns[r].to_vec();
            s.sort_unstable();
            percentile(&s, p) as f64
        })
        .collect();
    (median(&mut tails), slices)
}

/// Ops per second of each turn of a phase, in run order: the turn's op
/// count over the wall time between its first op's start and its last op's
/// end. Their median, in the report's detail, is the rate between stalls;
/// `overhead_mean` is taken over the whole phase, stalls included.
pub fn turn_rates(phase: &Phase) -> Vec<f64> {
    phase
        .turns()
        .map(|r| {
            let start = phase.end_ns[r.start] - phase.lat_ns[r.start];
            let wall = phase.end_ns[r.end - 1] - start;
            r.len() as f64 * 1e9 / wall.max(1) as f64
        })
        .collect()
}

/// The `p`th latency percentile of each turn of a phase, in nanoseconds.
pub fn turn_percentiles(phase: &Phase, p: f64) -> Vec<f64> {
    phase
        .turns()
        .map(|r| {
            let mut s = phase.lat_ns[r].to_vec();
            s.sort_unstable();
            percentile(&s, p) as f64
        })
        .collect()
}

/// One timed phase of a closed-loop client.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-op latency, in op order.
    pub lat_ns: Vec<u64>,
    /// Per-op completion time since the trace epoch, in op order.
    pub end_ns: Vec<u64>,
    /// Index of the first op of every turn ([`run_phase`] call).
    pub turn_starts: Vec<usize>,
    /// Ops that returned an error or a wrong value.
    pub failed: u64,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Process CPU time (user + system, every thread) over the phase.
    pub cpu: Duration,
}

impl Phase {
    /// An empty phase with room for the fastest workload, so the vectors
    /// never grow mid-run; untouched pages cost nothing.
    pub fn new() -> Phase {
        let room = 1 << 23;
        Phase {
            lat_ns: Vec::with_capacity(room),
            end_ns: Vec::with_capacity(room),
            ..Phase::default()
        }
    }

    pub fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    pub fn mean_us(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e3 / self.lat_ns.len().max(1) as f64
    }

    /// The op ranges of the turns, in run order.
    pub fn turns(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let ends = self
            .turn_starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.lat_ns.len()]);
        self.turn_starts.iter().zip(ends).map(|(&start, end)| start..end)
    }
}

/// Runs ops `first_op, first_op + 1, …` back to back until `duration` has
/// passed (at least one op), adding them to `phase`. `before_op` sees each
/// op id before it starts.
pub fn run_phase(
    client: &mut dyn Client,
    first_op: usize,
    duration: Duration,
    phase: &mut Phase,
    mut before_op: impl FnMut(u64),
) {
    phase.turn_starts.push(phase.lat_ns.len());
    let cpu_before = cpu_time();
    let started = Instant::now();
    // Pins the trace epoch no later than the first op, if nothing has yet.
    since_epoch_ns(started);
    let deadline = started + duration;
    let mut op = first_op;
    loop {
        before_op(op as u64);
        let step = client.step(op);
        phase.lat_ns.push((step.end - step.start).as_nanos() as u64);
        phase.end_ns.push(since_epoch_ns(step.end));
        phase.failed += u64::from(!step.ok);
        op += 1;
        if step.end >= deadline {
            break;
        }
    }
    phase.wall += started.elapsed();
    phase.cpu += cpu_time().saturating_sub(cpu_before);
}

/// User + system CPU time of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`). Zero
/// where `/proc` is absent.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces:
    // state is the 1st, utime and stime the 12th and 13th.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set of this process (`VmHWM`), in KiB; zero where
/// `/proc` is absent.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sliced_percentile_ignores_one_stall_burst() {
        // Ten slices of 5000 samples at 100 ns; one slice holds a burst of
        // 600 stalled ops, which drags a whole-run p99 but not this one.
        let mut lat = vec![100u64; 50_000];
        for l in &mut lat[10_000..10_600] {
            *l = 1_000_000;
        }
        // 1.5 % of every slice sits at 150 ns: that is the true p99 tail.
        for s in 0..10 {
            for l in &mut lat[s * 5_000 + 2_000..s * 5_000 + 2_075] {
                *l = 150;
            }
        }
        let (p99, slices) = sliced_percentile(&lat, 99.0);
        assert_eq!(slices, 10);
        assert_eq!(p99, 150.0);
        let mut all = lat.clone();
        all.sort_unstable();
        assert_eq!(percentile(&all, 99.0), 1_000_000, "the burst drags the whole-run p99");
    }

    #[test]
    fn sliced_percentile_uses_fewer_slices_for_short_runs() {
        // 10 100 samples keep 50 beyond the p99 in two slices, not in three.
        let lat: Vec<u64> = (0..10_100).collect();
        assert_eq!(sliced_percentile(&lat, 99.0).1, 2);
        assert_eq!(sliced_percentile(&lat, 95.0).1, 10);
        assert_eq!(sliced_percentile(&[5, 6, 7], 99.0), (7.0, 1));
    }

    #[test]
    fn turns_are_rated_and_ranked_one_by_one() {
        // Three turns of 4, 2 and 3 ops of 1 µs back to back, with gaps
        // between the turns; the 3rd op of the first turn stalls 1 ms.
        let mut phase = Phase::default();
        let mut t = 5_000u64;
        for turn in [4, 2, 3] {
            phase.turn_starts.push(phase.lat_ns.len());
            t += 1_000_000;
            for _ in 0..turn {
                let lat = if phase.lat_ns.len() == 2 { 1_000_000 } else { 1_000 };
                t += lat;
                phase.lat_ns.push(lat);
                phase.end_ns.push(t);
            }
        }
        assert_eq!(phase.turns().collect::<Vec<_>>(), [0..4, 4..6, 6..9]);
        let mut rates = turn_rates(&phase);
        assert_eq!(rates[1..], [1e6, 1e6], "the gaps between turns are no part of any turn");
        assert!(rates[0] < 4_000.0, "the stall is part of the first: {rates:?}");
        assert_eq!(median(&mut rates), 1e6);
        assert_eq!(turn_percentiles(&phase, 50.0), [1_000.0; 3]);
        assert_eq!(turn_percentiles(&phase, 100.0), [1_000_000.0, 1_000.0, 1_000.0]);
    }

    #[test]
    fn process_counters_read_something_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_kib() > 0);
            let mut x = 0u64;
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_millis(60) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            assert!(cpu_time() >= Duration::from_millis(10), "{:?}", cpu_time());
        }
    }
}
