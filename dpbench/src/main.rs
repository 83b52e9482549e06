//! `dpbench`: the repository's end-to-end benchmark.
//!
//! Four workloads on the path users run — scheme client → `RemoteServer` →
//! `NetDaemon` → `DiskStore` — each verified against a shadow model, its
//! times reported as multiples of plaintext access on the same machine, with
//! the paper's cost measure (cells, bytes and round trips per query) beside
//! them, and a separate traced pass that splits the time by layer.
//! See `../README.md` for the metrics and the method.

#![forbid(unsafe_code)]

mod backend;
mod header;
mod json;
mod measure;
mod plain;
mod run;
mod trace;
mod vfs;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Json;
use run::Outcome;
use workloads::Spec;

const USAGE: &str = "\
usage: dpbench [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>]
               [--out <file>] [--quick]

  --workload  ram_durable | ir_cold | kvs_local | kvs_durable; all four, each in
              its own process, when absent
  --seed      seed of the generated op trace and the schemes' coins (default 1)
  --seconds   measured time per workload (default 20; 0.5 with --quick)
  --trace     1 runs the traced pass and prints the per-layer metrics instead
              of the end-to-end ones (default 0)
  --out       also write the report (run header, metrics, detail) to <file>;
              with --trace the spans go to <file>.trace.json
  --quick     sizes and counts divided by 16: a harness smoke test, never for
              reported numbers

Scratch stores go under $DPBENCH_DIR (default ./.dpbench_scratch) and are
removed on exit.";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    quick: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed =
            Args { workload: None, seed: 1, seconds: 0.0, trace: false, out: None, quick: false };
        let mut seconds = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?),
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds: {s} is not in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--out" => parsed.out = Some(value()?.into()),
                "--quick" => parsed.quick = true,
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                    };
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        parsed.seconds = seconds.unwrap_or(if parsed.quick { 0.5 } else { 20.0 });
        Ok(parsed)
    }
}

fn scratch_root() -> PathBuf {
    std::env::var_os("DPBENCH_DIR").map_or_else(|| ".dpbench_scratch".into(), PathBuf::from)
}

/// The driver's result line: exactly these four keys.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))])));
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload, one pass, in this process.
fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let spec = Spec::named(name, args.quick)
        .ok_or(format!("unknown workload {name}; one of {}", workloads::NAMES.join(", ")))?;
    let scratch = scratch_root();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let header = header::header(args.seed, args.seconds, args.quick, &scratch, &[spec]);
    let duration = Duration::from_secs_f64(args.seconds);
    let outcome = if args.trace {
        trace::traced(&spec, args.seed, duration, &scratch)
    } else {
        run::end_to_end(&spec, args.seed, duration, args.quick, &scratch)
    };
    // Ours only if nothing else is in it.
    let _ = std::fs::remove_dir(&scratch);
    let outcome = outcome?;

    let pass = if args.trace { "traced pass" } else { "end to end" };
    eprintln!("{name}: {pass}, seed {}, {} s measured", args.seed, args.seconds);
    for m in &outcome.metrics {
        eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &outcome.detail {
        if let Json::Num(v) = value {
            eprintln!("  ({:<28}) {:>16.4}", name, v);
        }
    }
    eprintln!("  {:<30} {:>16} of {} attempted", "failed_ops", outcome.failed, outcome.attempted);
    for problem in &outcome.problems {
        eprintln!("  INCORRECT: {problem}");
    }

    let result = result_json(&outcome);
    if let Some(out) = &args.out {
        let report = Json::obj([
            ("header", header),
            ("workload", Json::str(name)),
            ("trace", Json::Bool(args.trace)),
            ("result", result.clone()),
            ("problems", Json::Arr(outcome.problems.iter().map(Json::str).collect())),
            ("detail", Json::obj(outcome.detail.clone())),
        ]);
        std::fs::write(out, format!("{report}\n"))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        if args.trace {
            let spans = PathBuf::from(format!("{}.trace.json", out.display()));
            trace::write_spans(&spans, name, &outcome.spans)
                .map_err(|e| format!("{}: {e}", spans.display()))?;
        }
    }
    println!("{result}");
    Ok(outcome.correct())
}

/// Every workload in turn, each in a child process of its own, so that peak
/// memory and allocator state are per workload and do not depend on order.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for name in workloads::NAMES {
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            child.arg("--quick");
        }
        if let Some(out) = &args.out {
            child.arg("--out").arg(format!("{}.{name}", out.display()));
        }
        let done = child
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= done.status.success();
        let stdout = String::from_utf8_lossy(&done.stdout);
        let line = stdout.lines().last().unwrap_or("null").to_string();
        println!("{{\"workload\": \"{name}\", \"result\": {line}}}");
        results.push((name, line));
    }
    if let Some(out) = &args.out {
        let specs: Vec<Spec> = workloads::NAMES
            .iter()
            .filter_map(|n| Spec::named(n, args.quick))
            .collect();
        let header = header::header(args.seed, args.seconds, args.quick, &scratch_root(), &specs);
        // The children's result lines are already JSON; splice them in.
        let results: Vec<String> = results
            .iter()
            .map(|(name, line)| format!("\"{name}\": {line}"))
            .collect();
        let report = format!(
            "{{\"header\": {header}, \"trace\": {}, \"results\": {{{}}}}}\n",
            args.trace,
            results.join(", ")
        );
        std::fs::write(out, report).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("dpbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread or child exists, so that all of them inherit it.
    let done = backend::pin_to_one_cpu().and_then(|()| match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    });
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("dpbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let driver =
            parse(&["--workload", "ir_cold", "--seed", "7", "--seconds", "10", "--trace", "0"]);
        let driver = driver.unwrap();
        assert_eq!(driver.workload.as_deref(), Some("ir_cold"));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 10.0, false));
        let quick = parse(&["--trace", "1", "--quick"]).unwrap();
        assert!(quick.trace && quick.quick && quick.seconds == 0.5);
        assert!(parse(&["--trace", "--quick"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    fn repository_file(name: &str) -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists, and
    /// the contract's workload names.
    fn contract(list: &str) -> Vec<(String, String)> {
        let Json::Obj(doc) = json::tests::parse(&repository_file("BENCHMARK.json")) else {
            panic!("BENCHMARK.json is not an object")
        };
        let field = |obj: &Json, key: &str| match obj {
            Json::Obj(fields) => match fields.iter().find(|(k, _)| k == key) {
                Some((_, Json::Str(s))) => s.clone(),
                _ => String::new(),
            },
            _ => panic!("{list} holds a non-object"),
        };
        match doc.iter().find(|(k, _)| k == list) {
            Some((_, Json::Arr(items))) => items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect(),
            _ => panic!("BENCHMARK.json has no list {list}"),
        }
    }

    fn reported(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn metric_value(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name}"))
            .value
    }

    #[test]
    fn workloads_are_the_contracts() {
        let names: Vec<String> = contract("workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, workloads::NAMES);
    }

    /// The whole harness on every workload, small: all answers verify, the
    /// paper's costs come out as proven, the same seed gives the same counts
    /// on a second run, and the metrics are the contract's `end_to_end` list,
    /// none of them zero.
    #[test]
    fn quick_run_of_every_workload_verifies_and_repeats_its_counts() {
        let scratch = std::env::temp_dir();
        // Long enough for the reference's fifth of it to use a few 10 ms
        // ticks of processor time.
        let duration = Duration::from_millis(600);
        let end_to_end = contract("end_to_end");
        for name in workloads::NAMES {
            let spec = Spec::named(name, true).unwrap();
            let first = run::end_to_end(&spec, 11, duration, true, &scratch).unwrap();
            let again = run::end_to_end(&spec, 11, duration, true, &scratch).unwrap();
            for outcome in [&first, &again] {
                assert_eq!(outcome.failed, 0, "{name}");
                assert!(outcome.problems.is_empty(), "{name}: {:?}", outcome.problems);
                assert!(outcome.attempted > spec.warmup_ops as u64, "{name}");
            }
            for count in ["cells_per_op", "bytes_per_op", "round_trips_per_op"] {
                assert_eq!(
                    metric_value(&first, count),
                    metric_value(&again, count),
                    "{name} {count}"
                );
            }
            assert_eq!(reported(&first), end_to_end, "{name}");
            assert!(first.metrics.iter().all(|m| m.value > 0.0), "{name}: {:?}", first.metrics);
        }
        let local = Spec::named("kvs_local", true).unwrap().paper_cost();
        assert_eq!(local, Spec::named("kvs_durable", true).unwrap().paper_cost());
    }

    /// The traced pass reports the contract's whole `per_layer` list on every
    /// workload, every value a number (a layer the workload does not cross
    /// reads 0; a difference of two runs may be negative).
    #[test]
    fn quick_traced_pass_reports_the_contracts_list_on_every_workload() {
        let scratch = std::env::temp_dir();
        let per_layer = contract("per_layer");
        for name in workloads::NAMES {
            let spec = Spec::named(name, true).unwrap();
            let outcome = trace::traced(&spec, 5, Duration::from_millis(200), &scratch).unwrap();
            assert_eq!(outcome.failed, 0, "{name}");
            assert!(outcome.problems.is_empty(), "{name}: {:?}", outcome.problems);
            assert_eq!(reported(&outcome), per_layer, "{name}");
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            if spec.durable {
                assert_eq!(metric_value(&outcome, "daemon.connections"), 1.0, "{name}");
                assert!(metric_value(&outcome, "net.round_trips_per_op") >= 1.0, "{name}");
            } else {
                assert_eq!(metric_value(&outcome, "net.us_per_op"), 0.0);
                assert_eq!(metric_value(&outcome, "trace.coverage"), 1.0);
            }
        }
    }

    /// The traced pass on the workload that crosses every layer: the exact
    /// metrics are exact and the spans land in a file.
    #[test]
    fn quick_traced_pass_counts_exactly_and_writes_its_spans() {
        let scratch = std::env::temp_dir();
        let spec = Spec::named("ram_durable", true).unwrap();
        let outcome = trace::traced(&spec, 5, Duration::from_millis(500), &scratch).unwrap();
        assert_eq!(metric_value(&outcome, "core.storage_calls_per_op"), 3.0);
        assert_eq!(metric_value(&outcome, "net.round_trips_per_op"), 3.0);
        assert_eq!(metric_value(&outcome, "cache.hit_ratio"), 1.0);
        assert!(metric_value(&outcome, "vfs.fsyncs_per_op") >= 1.0);
        assert!(metric_value(&outcome, "vfs.write_amp") >= 1.0);

        let labels: Vec<&str> = outcome.spans.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["A0", "A1", "A2", "A3", "full"]);
        let a3 = &outcome.spans[3].1;
        assert!(a3.iter().any(|s| s.name == "vfs.fsync") && a3.iter().any(|s| s.name == "op"));
        let dir = backend::ScratchDir::new(&scratch).unwrap();
        let file = dir.path().join("spans.json");
        trace::write_spans(&file, spec.name, &outcome.spans).unwrap();
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.starts_with("{\"workload\": \"ram_durable\""));
        assert_eq!(
            text.matches("\"config\"").count(),
            outcome.spans.iter().map(|s| s.1.len()).sum()
        );
    }

    /// Cargo reads profiles from the workspace root only, so this package
    /// repeats the repository's release profile; the two must not drift, or
    /// the measured code is not built the way the shipped binaries are.
    #[test]
    fn release_profile_matches_the_repository() {
        fn release_profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .filter(|l| !l.is_empty())
                .collect()
        }
        let ours = release_profile(&repository_file("dpbench/Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(&repository_file("Cargo.toml")));
    }
}
