//! Setting a workload up on a backend, measuring it, and the end-to-end
//! pass built from the two.

use std::path::Path;
use std::time::{Duration, Instant};

use dps_net::DaemonMetrics;
use dps_server::CostStats;

use crate::backend::{quiesce, Backend, Rig};
use crate::json::Json;
use crate::measure::{self, Phase};
use crate::plain::Reference;
use crate::vfs::{Span, VfsCounts};
use crate::workloads::Spec;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one pass over one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Ops run, warm-up included, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Every check the run failed, in words.
    pub problems: Vec<String>,
    /// Sample counts and other context for the report file.
    pub detail: Vec<(&'static str, Json)>,
    /// `(config label, spans)` of the traced pass.
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

impl Outcome {
    /// No op failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// A backend set up and warmed, and what that cost.
pub struct Ready {
    pub rig: Rig,
    pub setup: Duration,
    pub warmup_failed: u64,
}

/// A workload's whole set-up on `backend`: generate the trace, open the
/// store, start the daemon, connect, set the scheme up, load it, and run
/// the warm-up ops.
pub fn set_up(spec: &Spec, backend: Backend, seed: u64, scratch: &Path) -> Result<Ready, String> {
    quiesce(scratch)?;
    let started = Instant::now();
    let mut rig = Rig::build(spec, backend, seed, scratch)?;
    let warmup_failed = (0..spec.warmup_ops).filter(|&i| !rig.client.step(i).ok).count() as u64;
    Ok(Ready { rig, setup: started.elapsed(), warmup_failed })
}

/// A timed phase and every counter's change across it.
pub struct Measured {
    pub backend: Backend,
    pub phase: Phase,
    pub stats: CostStats,
    pub vfs: VfsCounts,
    pub daemon: Option<DaemonMetrics>,
    pub spans: Vec<Span>,
    /// Ops of this client, warm-up included, that answered "no record" by
    /// design, and how many ops it ran in all.
    pub by_design_misses: u64,
    pub client_ops: u64,
}

/// A warmed rig being measured: one timed phase, or several rounds of one
/// that the traced pass interleaves with other rigs' rounds.
pub struct Session {
    backend: Backend,
    rig: Rig,
    stats_cost: CostStats,
    before: CostStats,
    vfs_before: VfsCounts,
    phase: Phase,
    warmup_ops: usize,
}

impl Session {
    pub fn begin(spec: &Spec, backend: Backend, rig: Rig) -> Session {
        // Reading a remote backend's counters is itself one exchange on the
        // wire; two back-to-back reads size it so it can be taken out.
        let stats_cost = {
            let first = rig.client.stats();
            rig.client.stats().since(&first)
        };
        if let Some(p) = &rig.probe {
            p.clear_spans();
        }
        let vfs_before = rig.probe.as_ref().map(|p| p.counts()).unwrap_or_default();
        let before = rig.client.stats();
        let warmup_ops = spec.warmup_ops;
        Session { backend, rig, stats_cost, before, vfs_before, phase: Phase::new(), warmup_ops }
    }

    /// Runs the next ops of the trace for `duration`.
    pub fn run(&mut self, duration: Duration) {
        let probe = self.rig.probe.clone();
        let first_op = self.warmup_ops + self.phase.lat_ns.len();
        measure::run_phase(self.rig.client.as_mut(), first_op, duration, &mut self.phase, |op| {
            if let Some(p) = &probe {
                p.set_current_op(op);
            }
        });
    }

    /// Reads every counter's change since `begin` and tears the rig down.
    pub fn finish(self) -> Measured {
        let Session { backend, rig, stats_cost, before, vfs_before, phase, warmup_ops } = self;
        let stats = rig.client.stats().since(&before).since(&stats_cost);
        let probe = rig.probe.as_ref();
        Measured {
            backend,
            stats,
            vfs: probe.map(|p| p.counts().since(&vfs_before)).unwrap_or_default(),
            daemon: rig.daemon_metrics(),
            spans: probe.map(|p| p.take_spans()).unwrap_or_default(),
            by_design_misses: rig.client.by_design_misses(),
            client_ops: warmup_ops as u64 + phase.ops(),
            phase,
        }
    }
}

/// The check both passes share: the by-design "no record" answers (DP-IR's
/// α) lie within six standard deviations of their expected count.
pub fn check_answers(spec: &Spec, m: &Measured, problems: &mut Vec<String>) {
    let label = m.backend.label();
    let rate = spec.by_design_miss_rate();
    let n = m.client_ops as f64;
    let slack = 6.0 * (n * rate * (1.0 - rate)).sqrt() + 1.0;
    if rate == 0.0 && m.by_design_misses > 0 || (m.by_design_misses as f64 - n * rate).abs() > slack
    {
        problems.push(format!(
            "{label}: {} of {} ops answered \"no record\", expected {:.0} ± {slack:.0}",
            m.by_design_misses,
            m.client_ops,
            n * rate
        ));
    }
}

/// Times the set-up is repeated in the end-to-end pass; `setup_s` is the
/// median and the last one is measured.
const SETUPS: usize = 3;

/// Turns the measured time is cut into. In each the workload runs first and
/// the plaintext reference after it, so that both see the same machine.
const TURNS: u32 = 20;
/// The reference's share of each turn.
const REFERENCE_SHARE: f64 = 0.2;

/// The end-to-end pass: the workload on the path users run, tracing off,
/// taking turns with the plaintext reference.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    duration: Duration,
    quick: bool,
    scratch: &Path,
) -> Result<Outcome, String> {
    let backend = if spec.durable { Backend::Full { timed_vfs: false } } else { Backend::Sim };
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..if quick { 1 } else { SETUPS } {
        drop(last.take());
        let ready = set_up(spec, backend, seed, scratch)?;
        setups.push(ready.setup.as_secs_f64());
        out.attempted += spec.warmup_ops as u64;
        out.failed += ready.warmup_failed;
        last = Some(ready.rig);
    }
    let mut reference = Reference::build(spec, seed, scratch)?;
    quiesce(scratch)?;
    let mut session = Session::begin(spec, backend, last.expect("at least one set-up"));
    let turn = duration / TURNS;
    let mut reference_ns = Vec::new();
    for _ in 0..TURNS {
        session.run(turn.mul_f64(1.0 - REFERENCE_SHARE));
        reference_ns.push(reference.run(turn.mul_f64(REFERENCE_SHARE))?);
    }
    let m = session.finish();
    let ops = m.phase.ops();
    out.attempted += ops;
    out.failed += m.phase.failed;
    check_answers(spec, &m, &mut out.problems);

    // The paper's overhead measure is exact, so the run holds the scheme to
    // it: cells per op as proven, and no more round trips than the scheme
    // takes today (fewer is a legitimate optimisation, more is not).
    let (cells, round_trips) = spec.paper_cost();
    if m.stats.operations() != cells as u64 * ops {
        let got = m.stats.operations() as f64 / ops as f64;
        out.problems
            .push(format!("cells_per_op is {got}, the scheme's proven cost is {cells}"));
    }
    if m.stats.round_trips > round_trips as u64 * ops {
        let got = m.stats.round_trips as f64 / ops as f64;
        out.problems
            .push(format!("round_trips_per_op is {got}, above {round_trips}"));
    }

    // A percentile's overhead is taken turn by turn, against the reference's
    // mean in the same turn, and the median turn is reported.
    let overhead = |p: f64| {
        let turns = measure::turn_percentiles(&m.phase, p);
        let mut ratios: Vec<f64> = turns.iter().zip(&reference_ns).map(|(t, r)| t / r).collect();
        measure::median(&mut ratios)
    };
    if m.phase.cpu.is_zero() || reference.cpu.is_zero() {
        // `/proc/self/stat` counts in ticks of 10 ms.
        out.problems
            .push("the run is too short to measure processor time".into());
    }
    let cpu_us_per_op = m.phase.cpu.as_secs_f64() * 1e6 / ops as f64;
    let reference_cpu_us = reference.cpu.as_secs_f64() * 1e6 / reference.ops as f64;
    let per_op = |total: u64| total as f64 / ops as f64;
    out.metrics = vec![
        metric("setup_s", "s", measure::median(&mut setups.clone())),
        metric("overhead_mean", "x", m.phase.mean_us() / reference.mean_us()),
        metric("overhead_p50", "x", overhead(50.0)),
        metric("overhead_p95", "x", overhead(95.0)),
        metric("overhead_cpu", "x", cpu_us_per_op / reference_cpu_us),
        metric("cells_per_op", "cells", per_op(m.stats.operations())),
        metric("bytes_per_op", "bytes", per_op(m.stats.bytes_total())),
        metric("round_trips_per_op", "count", per_op(m.stats.round_trips)),
        metric("peak_rss_mib", "MiB", measure::peak_rss_kib() as f64 / 1024.0),
    ];

    // The absolute times behind the ratios: this machine's, this minute's.
    let mut sorted = m.phase.lat_ns.clone();
    sorted.sort_unstable();
    let (p95_ns, p95_slices) = measure::sliced_percentile(&m.phase.lat_ns, 95.0);
    let (p99_ns, p99_slices) = measure::sliced_percentile(&m.phase.lat_ns, 99.0);
    let mut turn_rates = measure::turn_rates(&m.phase);
    out.detail = vec![
        ("ops_per_s", Json::Num(ops as f64 / m.phase.wall.as_secs_f64())),
        ("mean_us", Json::Num(m.phase.mean_us())),
        ("p50_us", Json::Num(measure::percentile(&sorted, 50.0) as f64 / 1e3)),
        ("p95_us", Json::Num(p95_ns / 1e3)),
        ("sliced_p99_us", Json::Num(p99_ns / 1e3)),
        ("max_us", Json::Num(*sorted.last().expect("at least one op") as f64 / 1e3)),
        ("cpu_us_per_op", Json::Num(cpu_us_per_op)),
        ("median_turn_ops_per_s", Json::Num(measure::median(&mut turn_rates))),
        ("reference_mean_us", Json::Num(reference.mean_us())),
        ("reference_cpu_us_per_op", Json::Num(reference_cpu_us)),
        ("timed_ops", Json::Int(ops)),
        ("timed_wall_s", Json::Num(m.phase.wall.as_secs_f64())),
        ("reference_ops", Json::Int(reference.ops)),
        (
            "whole_run_percentiles_us",
            Json::obj([50.0, 75.0, 90.0, 95.0, 99.0, 99.9].map(|p| {
                (format!("p{p}"), Json::Num(measure::percentile(&sorted, p) as f64 / 1e3))
            })),
        ),
        ("p95_slices", Json::Int(p95_slices as u64)),
        ("p99_slices", Json::Int(p99_slices as u64)),
        ("setups_s", Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect())),
        (
            "turn_reference_us",
            Json::Arr(reference_ns.iter().map(|ns| Json::Num(ns / 1e3)).collect()),
        ),
        ("by_design_no_record", Json::Int(m.by_design_misses)),
    ];
    Ok(out)
}
