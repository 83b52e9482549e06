//! Experiment runner: regenerates every quantitative claim of the paper
//! and checks it.
//!
//! ```text
//! cargo run -p dps_bench --release --bin experiments -- all
//! cargo run -p dps_bench --release --bin experiments -- e5 e11
//! cargo run -p dps_bench --release --bin experiments -- --fast all
//! ```
//!
//! Each experiment prints its table; the verdicts follow, one line each.
//! Exits 1 if any verdict is false or an experiment returns none, 2 on an
//! unknown id. With no id it prints the index ([`dps_bench::INDEX`]) and
//! exits 2.

use dps_bench::INDEX;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();

    if ids.is_empty() {
        eprintln!("usage: experiments [--fast] <id|all>...");
        for (id, title, _) in INDEX {
            eprintln!("  {id:<4} {title}");
        }
        std::process::exit(2);
    }

    let mut results = Vec::new();
    for id in ids {
        if id == "all" {
            results.extend(dps_bench::run_all(fast));
        } else if let Some((known, _, run)) = INDEX.iter().find(|(known, ..)| *known == id) {
            results.push((*known, run(fast)));
        } else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }

    println!("\n## Verdicts\n");
    let mut false_ones = 0;
    for (id, verdicts) in &results {
        if verdicts.is_empty() {
            println!("{id:<4} [FALSE] the experiment returned no verdict");
            false_ones += 1;
        }
        for verdict in verdicts {
            println!("{id:<4} {verdict}");
            false_ones += usize::from(!verdict.holds);
        }
    }
    if false_ones > 0 {
        println!("\n{false_ones} false");
        std::process::exit(1);
    }
}
