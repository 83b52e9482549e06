//! `dpstore` — command-line front end for the dp-storage workspace.
//!
//! A small operator tool: spin up any scheme over synthetic data, measure
//! its costs, audit its privacy, or print the paper's bounds for your
//! parameters.
//!
//! ```text
//! dpstore demo-ram   [--n 4096] [--ops 500] [--block 256]
//! dpstore demo-kvs   [--n 1024] [--ops 300] [--value 64]
//! dpstore audit      [--scheme dp-ram|dp-ir|strawman] [--trials 60000]
//! dpstore bounds     [--n 4096] [--alpha 0.1] [--client 4]
//! ```

use dp_storage::analysis::confidence::wilson;
use dp_storage::analysis::{audit_views, bounds};
use dp_storage::core::dp_ir::{DpIr, DpIrConfig};
use dp_storage::core::dp_kvs::{DpKvs, DpKvsConfig};
use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::core::strawman::InsecureStrawmanIr;
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::SimServer;
use dp_storage::workloads::generators::database;
use dp_storage::workloads::Op;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "demo-ram" => demo_ram(&flags),
        "demo-kvs" => demo_kvs(&flags),
        "audit" => audit(&flags),
        "bounds" => print_bounds(&flags),
        other => {
            eprintln!("unknown command: {other}");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!("usage: dpstore <command> [flags]");
    eprintln!("  demo-ram   [--n N] [--ops K] [--block B]   run DP-RAM and report costs");
    eprintln!("  demo-kvs   [--n N] [--ops K] [--value B]   run DP-KVS and report costs");
    eprintln!("  audit      [--scheme S] [--trials T]       Monte-Carlo (eps, delta) audit");
    eprintln!("             S in {{dp-ram, dp-ir, strawman}}");
    eprintln!("  bounds     [--n N] [--alpha A] [--client C] print the paper's lower bounds");
    std::process::exit(2);
}

/// Minimal `--key value` flag parser (keeps the binary dependency-free).
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                eprintln!("expected --flag, got {key}");
                usage_and_exit();
            };
            let Some(value) = it.next() else {
                eprintln!("flag --{name} needs a value");
                usage_and_exit();
            };
            flags.push((name.to_string(), value.clone()));
        }
        Self(flags)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for --{name}: {v}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(default)
    }

    /// A size flag (`--n`, `--block`, `--value`): the schemes need at least
    /// one record, and at least one byte in each.
    fn positive(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.get(name, default) {
            0 => Err(format!("--{name} must be at least 1")),
            size => Ok(size),
        }
    }

    /// [`Flags::positive`], or the usage text and exit code 2.
    fn size(&self, name: &str, default: usize) -> usize {
        self.positive(name, default).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            usage_and_exit();
        })
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_string())
    }
}

fn demo_ram(flags: &Flags) {
    let n = flags.size("n", 4096);
    let ops: usize = flags.get("ops", 500);
    let block = flags.size("block", 256);

    let mut rng = ChaChaRng::seed_from_u64(flags.get("seed", 0u64));
    let db = database(n, block);
    let config = DpRamConfig::recommended(n);
    let mut ram = DpRam::setup(config, &db, SimServer::new(), &mut rng)
        .expect("valid recommended parameters");

    println!("DP-RAM over n = {n} records of {block} bytes");
    println!(
        "  stash probability p = {:.6} (expected stash {:.0} blocks)",
        config.stash_probability,
        config.expected_stash()
    );
    println!(
        "  privacy: pure eps-DP, eps = O(log n); proof bound {:.1}",
        config.epsilon_upper_bound()
    );

    let before = ram.server_stats();
    for i in 0..ops {
        if i % 4 == 0 {
            ram.write(i % n, vec![0xA5; block], &mut rng).expect("in range");
        } else {
            ram.read(i % n, &mut rng).expect("in range");
        }
    }
    let d = ram.server_stats().since(&before);
    println!("after {ops} ops (25% writes):");
    println!(
        "  {} downloads + {} uploads = {:.3} blocks/op, {:.3} round trips/op",
        d.downloads,
        d.uploads,
        (d.downloads + d.uploads) as f64 / ops as f64,
        d.round_trips as f64 / ops as f64
    );
    println!("  client stash: {} blocks (high water {})", ram.stash_size(), ram.max_stash_size());
}

fn demo_kvs(flags: &Flags) {
    let n = flags.size("n", 1024);
    let ops: usize = flags.get("ops", 300);
    let value = flags.size("value", 64);

    let mut rng = ChaChaRng::seed_from_u64(flags.get("seed", 0u64));
    let config = DpKvsConfig::recommended(n, value);
    let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).expect("valid parameters");
    println!("DP-KVS with capacity {n}, {value}-byte values");
    println!(
        "  forest: {} buckets, depth {} (= cells/bucket-query), {} server cells",
        kvs.config().geometry.n_buckets,
        kvs.config().geometry.depth(),
        kvs.config().geometry.total_nodes()
    );

    for k in 0..(n / 2) as u64 {
        kvs.put(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), vec![0u8; value], &mut rng)
            .expect("within capacity whp");
    }
    let before = kvs.server_stats();
    let mut hits = 0usize;
    for i in 0..ops as u64 {
        let key = (i % (n as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        if kvs.get(key, &mut rng).expect("healthy store").is_some() {
            hits += 1;
        }
    }
    let d = kvs.server_stats().since(&before);
    println!("after {} puts and {ops} gets ({hits} hits, misses indistinguishable):", n / 2);
    println!(
        "  {:.1} cells/op over {:.0} round trips/op; client holds {} cells",
        (d.downloads + d.uploads) as f64 / ops as f64,
        d.round_trips as f64 / ops as f64,
        kvs.client_cells()
    );
}

fn audit(flags: &Flags) {
    let trials: usize = flags.get("trials", 60_000);
    let scheme = flags.get_str("scheme", "dp-ram");
    println!("auditing {scheme} with {trials} trials per sequence (Definition 2.1 adjacency)...");

    let report = match scheme.as_str() {
        "dp-ram" => {
            let n = 4;
            let run = |query: usize, base: u64| {
                move |trial: usize| {
                    let mut rng = ChaChaRng::seed_from_u64(base + trial as u64);
                    let db = database(n, 4);
                    let mut ram = DpRam::setup(
                        DpRamConfig { n, stash_probability: 0.5 },
                        &db,
                        SimServer::new(),
                        &mut rng,
                    )
                    .expect("valid parameters");
                    let (_, t) = ram
                        .query_traced(query, Op::Read, None, &mut rng)
                        .expect("in range");
                    vec![t.download as u8, t.overwrite as u8]
                }
            };
            audit_views(trials, 40, run(0, 0), run(1, 1 << 40))
        }
        "dp-ir" => {
            let n = 8;
            let config = DpIrConfig::with_epsilon(n, 2.0, 0.25).expect("valid parameters");
            println!("  analytic eps = {:.3}", config.epsilon());
            let run = |query: usize, base: u64| {
                move |trial: usize| {
                    let mut rng = ChaChaRng::seed_from_u64(base + trial as u64);
                    let db = database(n, 4);
                    let mut ir = DpIr::setup(config, &db, SimServer::new()).expect("valid");
                    let (_, set) = ir.query_traced(query, &mut rng).expect("in range");
                    set.into_iter().map(|x| x as u8).collect()
                }
            };
            audit_views(trials, 40, run(1, 0), run(5, 1 << 40))
        }
        "strawman" => {
            let n = 16;
            let run = |query: usize, base: u64| {
                move |trial: usize| {
                    let mut rng = ChaChaRng::seed_from_u64(base + trial as u64);
                    let db = database(n, 4);
                    let mut ir = InsecureStrawmanIr::setup(&db, SimServer::new());
                    let (_, set) = ir.query_traced(query, &mut rng).expect("in range");
                    vec![u8::from(set.contains(&0))]
                }
            };
            audit_views(trials, 40, run(0, 0), run(3, 1 << 40))
        }
        other => {
            eprintln!("unknown scheme: {other}");
            usage_and_exit();
        }
    };

    let (s1, s2) = report.support_sizes();
    let eps = report.epsilon_hat();
    println!("  views observed: {s1} / {s2}");
    println!("  eps-hat = {eps:.3}");
    for budget in [eps, eps + 0.5, 10.0] {
        println!("  delta-hat at eps = {budget:.2}: {:.3e}", report.delta_at(budget));
    }
    // Error bar on the dominant view's probability, for calibration.
    let ci = wilson((trials as f64 / s1.max(1) as f64) as u64, trials as u64, 0.95);
    println!("  (per-view sampling resolution ~{:.1e} at 95% confidence)", ci.width());
    if scheme == "strawman" {
        println!("  verdict: delta stays ~1 at every eps — no privacy, as Section 4 proves.");
    } else {
        println!("  verdict: finite eps-hat, delta-hat ~ 0 — the scheme honors pure eps-DP.");
    }
}

fn print_bounds(flags: &Flags) {
    let n = flags.size("n", 4096);
    let alpha: f64 = flags.get("alpha", 0.1);
    let c: usize = flags.get("client", 4);
    println!("paper lower bounds at n = {n}, alpha = {alpha}, client storage c = {c}:");
    println!(
        "  Thm 3.3  errorless DP-IR:        >= {:.0} ops/query at every eps",
        bounds::thm_3_3_errorless_ir_ops(n, 0.0)
    );
    for eps in [1.0, (n as f64).ln() / 2.0, (n as f64).ln()] {
        println!(
            "  Thm 3.4  erroring DP-IR, eps = {eps:.2}:  >= {:.1} ops/query (construction K = {})",
            bounds::thm_3_4_ir_ops(n, eps, alpha, 0.0),
            bounds::thm_5_1_download_count(n, eps, alpha)
        );
    }
    for eps in [1.0, (n as f64).ln() / 2.0, (n as f64).ln()] {
        println!(
            "  Thm 3.7  DP-RAM, eps = {eps:.2}:          >= {:.2} blocks/query",
            bounds::thm_3_7_ram_ops(n, eps, 0.0, c)
        );
    }
    println!(
        "  => constant overhead (3 blocks/query) becomes feasible at eps >= {:.2} = Theta(log n)",
        bounds::thm_3_7_epsilon_for_constant_overhead(n, 0.0, c, 3.0)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// `demo-ram --n 0` used to reach `DpRamConfig::recommended`'s assert.
    #[test]
    fn size_flags_must_be_positive() {
        for name in ["n", "block", "value"] {
            let flag = format!("--{name}");
            assert!(flags(&[&flag, "0"]).positive(name, 7).is_err(), "{name} = 0");
            assert_eq!(flags(&[&flag, "1"]).positive(name, 7), Ok(1), "{name} = 1");
            assert_eq!(flags(&[]).positive(name, 7), Ok(7), "{name} defaulted");
        }
    }
}
