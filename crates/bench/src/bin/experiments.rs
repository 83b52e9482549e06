//! Experiment runner: regenerates every quantitative claim of the paper.
//!
//! ```text
//! cargo run -p dps_bench --release --bin experiments -- all
//! cargo run -p dps_bench --release --bin experiments -- e5 e11
//! cargo run -p dps_bench --release --bin experiments -- --fast all
//! ```
//!
//! With no id it prints the index ([`dps_bench::INDEX`]) and exits 2.

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

    for id in ids {
        if id == "all" {
            dps_bench::run_all(fast);
        } else if let Some((_, _, run)) = INDEX.iter().find(|(known, _, _)| *known == id) {
            run(fast);
        } else {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
    }
}
