//! One way to do each thing (ROADMAP aim 2), guarded by name. Each row
//! names what a replaced design was called; its coming back fails tier-1
//! with the row's name, its hits and the NOTES.md entry that argues the
//! one way. `cargo test -q --test one_way` runs the table alone.
//!
//! A grep row is `git grep --no-index --exclude-standard` over its
//! arguments, written as a shell would (single quotes keep a pattern as is),
//! plus `:!tests/one_way.rs`: this table spells every forbidden name. The
//! `--no-index` form also runs in a copy without `.git` (`git archive`).
//! A row is live: its witness, a line the guard was written against, must
//! trip it, and every path it names must exist, because `git grep` over a
//! missing path finds nothing and exits as over a clean tree.

use std::fs;
use std::path::Path;
use std::process::Command;
use Expect::{AtMost, Files, Nothing, Std};

struct Row {
    name: &'static str,
    /// `git grep` arguments (empty for a std row).
    grep: &'static str,
    expect: Expect,
    /// `path: text`, a file that must trip the row.
    witness: &'static str,
    notes: &'static str,
}

enum Expect {
    /// No hit.
    Nothing,
    /// `-l`: exactly these files.
    Files(&'static [&'static str]),
    /// `-c`: at most this many matching lines.
    AtMost(usize),
    /// Not a grep: the hits this finds under a root must be none.
    Std(fn(&Path) -> Vec<String>),
}

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { name: "One copy of the cost model", notes: "2",
        expect: Files(&["crates/server/src/server.rs"]),
        grep: r"-lE 'stats\.(downloads|uploads|computed|round_trips|bytes_(up|down)) \+=' -- crates/server/src crates/net/src",
        witness: "crates/net/src/client.rs: self.stats.downloads += 1;" },
    Row { name: "The WAL is recycled, never truncated", notes: "5", expect: Nothing,
        grep: "-n 'wal.set_len(0)' -- crates/server/src/disk.rs",
        witness: "crates/server/src/disk.rs: self.wal.set_len(0)?;" },
    Row { name: "No implementor overrides a provided method", notes: "4", expect: Nothing,
        grep: r"-nE 'fn (init|write|write_from|write_batch|write_batch_strided|read|read_batch|xor_cells|is_empty)\(' -- crates/server/src/server.rs crates/server/src/verified.rs crates/net/src/client.rs crates/net/src/chaos.rs",
        witness: "crates/server/src/verified.rs: fn write_from(&mut self) {}" },
    // What is left: `try_call`, `try_read_batch_with`, `try_read_batch`.
    Row { name: "No fourth `try_*` twin on the client", notes: "4", expect: AtMost(3),
        grep: "-c 'pub fn try_' -- crates/net/src/client.rs",
        witness: "crates/net/src/client.rs: pub fn try_\npub fn try_\npub fn try_\npub fn try_" },
    Row { name: "One way to harden", notes: "8", expect: Nothing,
        grep: "-nE 'HardenedDpRam|HardenedRamError|TamperDetection|VerifiedServer|VerifiedError' -- crates src tests examples",
        witness: "src/lib.rs: pub struct VerifiedServer<S>(S);" },
    Row { name: "One DP-IR client", notes: "23", expect: Nothing,
        grep: "-nE 'BatchedDpIr|BatchOutcome' -- crates src tests examples",
        witness: "crates/core/src/batched_ir.rs: pub struct BatchedDpIr;" },
    Row { name: "One seal engine: one grouping loop and lane MAC", notes: "17", expect: Nothing,
        grep: r"-nE 'Poly1305xN::<|while cell \+ 8 <= cells' -- crates/crypto/src ':!crates/crypto/src/seal.rs' ':!crates/crypto/src/poly1305.rs'",
        witness: "crates/crypto/src/cipher.rs: while cell + 8 <= cells {" },
    Row { name: "One seal engine: no per-cipher group engine", notes: "17", expect: Nothing,
        grep: "-nE 'fn (group_tags|decrypt_group|open_group|one_time_keys|fill_bytes_bulk)' -- crates/crypto/src/cipher.rs crates/crypto/src/aead.rs crates/crypto/src/rng.rs",
        witness: "crates/crypto/src/aead.rs: fn open_group(&self) {}" },
    Row { name: "One seal engine: one sealed type, no wide blocks", notes: "17", expect: Nothing,
        grep: "-nE 'pub struct Sealed|pub fn blocks[48]' -- crates src tests examples",
        witness: "crates/crypto/src/chacha.rs: pub fn blocks8(key: &[u8; 32]) {}" },
    Row { name: "The daemon does not materialise", notes: "7", expect: Nothing,
        grep: r"-nE 'READ_CHUNK\]|VecDeque|IoSlice|write_vectored|Request::decode|server\.(read_batch|xor_cells|write_batch|write_batch_strided)\(' -- crates/net/src/daemon.rs",
        witness: "crates/net/src/daemon.rs: let queue: VecDeque<Vec<u8>> = VecDeque::new();" },
    Row { name: "The client does not copy on its data path", notes: "7", expect: Nothing,
        grep: r"-nE 'BufReader|addrs\.to_vec\(\)|Response::decode|unexpected\(&.*into_owned' -- crates/net/src/client.rs",
        witness: "crates/net/src/client.rs: let reader = BufReader::new(stream);" },
    Row { name: "Set-up does not materialise: no vector of vectors", notes: "11, 29",
        expect: Std(daemon_keeps_no_vec_of_vecs), grep: "",
        witness: "crates/net/src/daemon.rs: let cells: Vec<Vec<u8>> = Vec::new();" },
    Row { name: "Set-up does not materialise: no cloned input", notes: "11", expect: Nothing,
        grep: r"-nE '\.init\((blocks|cells)\.to_vec\(\)\)' -- crates/core/src crates/oram/src crates/pir/src",
        witness: "crates/core/src/dp_ram.rs: server.init(blocks.to_vec())?;" },
    Row { name: "A clean cell takes no slot", notes: "12", expect: Nothing,
        grep: "-nE 'refbit|clock_find_clean|fn refill|fn evict|enforce_budget|fn discard' -- crates/server/src",
        witness: "crates/server/src/cache.rs: fn evict(&mut self) {}" },
    Row { name: "The stride is set at set-up", notes: "13", expect: Nothing,
        grep: r"-nE 'fn restride|restride_apply|restride_inner|init_empty|InitEmpty|check_write_budget|op::INIT\b' -- crates/server/src crates/net/src",
        witness: "crates/server/src/store.rs: fn restride(&mut self, stride: usize) {}" },
    // `max_stored_bytes` and `WriteBatchStrided` are not matched.
    Row { name: "A cell is its stride", notes: "21, 29", expect: Nothing,
        grep: r"-nE 'fn stored_bytes|\.stored_bytes\(|StoredBytes|STORED_BYTES|WRITE_BATCH\b|WriteBatch\b|put_write_batch|CellIndex|len_of|CellTooLong|fn writes\(|CellsBuf|stride_with|encode_meta_with_lens|encode_meta_table|self\.lens\b|: u8 = 0x(12|87);' -- crates src tests examples",
        witness: "crates/net/src/wire.rs: pub struct CellsBuf;" },
    // `dpbench/` is the benchmark's, and not scanned.
    Row { name: "Every cell holds a value; every commit syncs", notes: "14, 18", expect: Nothing,
        grep: r"-nE 'Uninitialized|init_words|with_holes|is_initialized|SyncPolicy|want_sync|wal_group_commit|pending_batches|commit_pending|fn flush\(' -- crates src tests examples",
        witness: "crates/server/src/disk.rs: pub enum SyncPolicy { Always, Never }" },
    // The daemon still answers pipelined frames from any peer; its tests drive raw sockets.
    Row { name: "One request in flight", notes: "20", expect: Nothing,
        grep: r"-nE 'Ticket|submit_all|fn (submit|wait|wait_payload|inflight|with_stash_limits)\b|StashOverflow|outstanding|DEFAULT_STASH|wire_inflight_max' -- crates/net/src/client.rs crates/net/src/wire.rs crates/net/src/lib.rs crates/server/src",
        witness: "crates/net/src/client.rs: pub struct Ticket(u64);" },
    // Comments count too. The chaos proxy's relay sets its own listener non-blocking.
    Row { name: "The daemon blocks", notes: "28", expect: Nothing,
        grep: "-nE 'poll|PollFd|mod sys|epoll|set_nonblocking' -- crates/net/src/daemon.rs crates/net/src/lib.rs",
        witness: "crates/net/src/daemon.rs: let fds: Vec<PollFd> = Vec::new();" },
    // The four audited modules, and the counting allocators of the allocation budgets
    // (`GlobalAlloc` is an unsafe trait). A seventh file needs an audit, or a safe spelling.
    Row { name: "Four audited unsafe modules", notes: "10, 16, 19, 26",
        expect: Files(&[
            "crates/core/tests/flight_alloc_budget.rs", "crates/crypto/src/chacha.rs",
            "crates/crypto/src/poly1305.rs", "crates/net/tests/alloc_budget.rs",
            "crates/server/src/crc.rs", "crates/server/src/mapping.rs",
        ]),
        grep: r"-lE '^[[:space:]]*#!?\[allow\(unsafe_code\)\]|unsafe (fn|impl|\{)' -- crates src tests examples",
        witness: "crates/server/src/disk.rs: let v = unsafe { *ptr };" },
    Row { name: "Each claim is checked once", notes: "22", expect: Nothing,
        grep: "-n 'shape check' -- crates/bench/src",
        witness: "crates/bench/src/experiments.rs: // shape check: the overhead falls with n" },
    Row { name: "No client-side fan-out: no thread spawned", notes: "6", expect: Nothing,
        grep: "-nE 'thread::(spawn|scope|Builder)' -- crates/crypto/src crates/server/src crates/hashing/src crates/oram/src crates/pir/src crates/core/src crates/analysis/src crates/workloads/src",
        witness: "crates/crypto/src/seal.rs: std::thread::scope(|s| {});" },
    Row { name: "No client-side fan-out: no worker pool", notes: "6", expect: Nothing,
        grep: "-nE 'WorkerPool|with_pool|batch_crypto' -- crates src tests examples",
        witness: "crates/core/src/lib.rs: pub struct WorkerPool;" },
    Row { name: "One timing harness, and no per-crate example", notes: "6",
        expect: Std(no_second_harness), grep: "",
        witness: "BENCH_10.json: {}" },
];

/// `sed '/^#\[cfg(test)\]/,$d' crates/net/src/daemon.rs | grep -n 'Vec<Vec<u8>>'`.
fn daemon_keeps_no_vec_of_vecs(root: &Path) -> Vec<String> {
    let path = "crates/net/src/daemon.rs";
    match fs::read_to_string(root.join(path)) {
        Ok(text) => (text.lines().enumerate())
            .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
            .filter(|(_, line)| line.contains("Vec<Vec<u8>>"))
            .map(|(i, line)| format!("{path}:{}:{line}", i + 1))
            .collect(),
        Err(e) => vec![format!("{path}: {e}")],
    }
}

/// None of `BENCH_*.json`, `scripts/bench_compare.py`, `vendor/criterion`,
/// `crates/bench/benches` and `crates/*/examples` exists: the last per-crate
/// examples were a stray timing loop and a debugging loop.
fn no_second_harness(root: &Path) -> Vec<String> {
    let listed = |dir: &str| fs::read_dir(root.join(dir)).into_iter().flatten().flatten();
    let benches = listed(".").map(|e| e.file_name().to_string_lossy().into_owned());
    let examples =
        listed("crates").map(|e| format!("crates/{}/examples", e.file_name().to_string_lossy()));
    (benches.filter(|name| name.starts_with("BENCH_") && name.ends_with(".json")))
        .chain(
            ["scripts/bench_compare.py", "vendor/criterion", "crates/bench/benches"]
                .map(String::from),
        )
        .chain(examples)
        .filter(|path| root.join(path).exists())
        .collect()
}

/// The shell's words: spaces split them, single quotes keep text as is.
fn words(args: &str) -> Vec<String> {
    let (mut words, mut quoted) = (vec![String::new()], false);
    for c in args.chars() {
        match c {
            '\'' => quoted = !quoted,
            ' ' if !quoted => words.push(String::new()),
            c => words.last_mut().unwrap().push(c),
        }
    }
    words.retain(|word| !word.is_empty());
    words
}

/// The lines a row's check prints under `root`; a `git` exit of 2 or more
/// (a bad pattern exits 128) is an error.
fn hits(row: &Row, root: &Path) -> Result<Vec<String>, String> {
    if let Std(check) = row.expect {
        return Ok(check(root));
    }
    let out = Command::new("git")
        .args(["grep", "--no-index", "--exclude-standard"])
        .args(words(row.grep))
        .arg(":!tests/one_way.rs")
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run git: {e}"))?;
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    match out.status.code() {
        Some(0 | 1) => Ok(stdout.lines().map(String::from).collect()),
        _ => Err(format!("git grep {}: {}", out.status, stderr.trim())),
    }
}

/// `Err` names the row, what it found and the NOTES entry that says why.
fn verdict(row: &Row, root: &Path) -> Result<(), String> {
    let at = format!("{} (NOTES.md {})", row.name, row.notes);
    let hits = hits(row, root).map_err(|e| format!("{at}: {e}"))?;
    let count = |hit: &String| hit.rsplit(':').next()?.parse::<usize>().ok();
    let holds = match row.expect {
        Nothing | Std(_) => hits.is_empty(),
        Files(want) => hits == want,
        AtMost(most) => hits
            .iter()
            .map(count)
            .sum::<Option<usize>>()
            .is_some_and(|n| n <= most),
    };
    if holds {
        Ok(())
    } else {
        Err(format!("{at}:\n    {}", hits.join("\n    ")))
    }
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_guard_holds() {
    let failed: Vec<String> = ROWS
        .iter()
        .filter_map(|row| verdict(row, root()).err())
        .collect();
    assert!(failed.is_empty(), "{} guard(s) failed:\n{}", failed.len(), failed.join("\n"));
}

#[test]
fn every_witness_trips_its_row() {
    for (i, row) in ROWS.iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("one_way-{}-{i}", std::process::id()));
        let (path, text) = row.witness.split_once(": ").expect("a witness is `path: text`");
        fs::create_dir_all(dir.join(path).parent().unwrap()).unwrap();
        fs::write(dir.join(path), format!("{text}\n")).unwrap();
        let hits = hits(row, &dir);
        let tripped = verdict(row, &dir).is_err();
        fs::remove_dir_all(&dir).unwrap();
        let hits = hits.unwrap_or_else(|e| panic!("{}: {e}", row.name));
        assert!(
            hits.iter().any(|hit| hit.starts_with(path)),
            "{}: no hit on its witness",
            row.name
        );
        assert!(tripped, "{}: its witness passes", row.name);
    }
}

#[test]
fn every_path_a_row_names_exists() {
    for row in ROWS.iter().filter(|row| !row.grep.is_empty()) {
        let words = words(row.grep);
        let paths = words.iter().skip_while(|word| *word != "--").skip(1);
        for path in paths.map(|path| path.trim_start_matches(":!")) {
            assert!(root().join(path).exists(), "{}: `{path}` does not exist", row.name);
        }
    }
}

#[test]
fn a_git_error_fails_its_row() {
    let row = Row {
        name: "bad pattern",
        grep: "-nE '(' -- src",
        expect: Nothing,
        witness: "",
        notes: "",
    };
    let err = verdict(&row, root()).unwrap_err();
    assert!(err.contains("bad pattern") && err.contains("128"), "{err}");
}
