//! Fast bench smoke-run: one median ns/op figure per scheme, suitable for
//! CI and for tracking the perf trajectory across PRs.
//!
//! ```text
//! cargo run -p dps_bench --release --bin bench_smoke
//! cargo run -p dps_bench --release --bin bench_smoke -- --json BENCH_3.json
//! cargo run -p dps_bench --release --bin bench_smoke -- load --clients 8 --ops 5000
//! ```
//!
//! Unlike the full Criterion targets this finishes in a few seconds; the
//! `--json` flag emits one record per measurement —
//! `{"scheme": .., "shards": S, "threads": T, "median_ns": ..}` — so each
//! PR can record its numbers (`BENCH_<pr>.json`) and diff against the
//! previous ones. Single-config schemes carry `shards = threads = 1`,
//! keeping their rows comparable with the flat `{"scheme": ns}` maps of
//! BENCH_1/BENCH_2 (`shards` is constant 1 since the sharded server went;
//! the column stays so `scripts/bench_compare.py` still keys the older
//! snapshots, whose sharded rows it reports as `[gone]`); throughput
//! rows (`chacha_wide_throughput`, `linear_oram_reencrypt`) add a
//! `"bytes"` field recording the payload bytes per op, the closed-loop
//! network rows (`net_load_*`) add `"p95_ns"`, `"p99_ns"` and
//! `"ops_per_s"` tail-latency columns, and the durable-backend rows
//! (`disk_*`) add a `"policy"` column recording the fsync policy the
//! figure was measured under. When `DPS_FORCE_ISA` pins a crypto dispatch
//! tier, every row additionally carries an `"isa"` column naming it
//! (omitted on default runs, so checked-in baselines stay shape-stable);
//! an invalid override aborts the run with the crypto crate's error.
//!
//! The `load` subcommand runs just the closed-loop network load driver
//! with its knobs exposed (`--clients`, `--ops`, `--cells`, `--theta`,
//! `--writes`), for interactive latency exploration outside CI.

use std::time::{Duration, Instant};

use dps_workloads::generators::zipf_ram;
use dps_workloads::Op;

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_core::dp_ram_ro::DpRamReadOnly;
use dps_crypto::{BlockCipher, ChaChaRng, CIPHERTEXT_OVERHEAD};
use dps_net::{
    ChaosConfig, ChaosProxy, NetDaemon, ReconnectPolicy, RemoteError, RemoteServer, Request,
    Timeouts,
};
use dps_oram::{LinearOram, PathOram, PathOramConfig};
use dps_pir::{FullScanPir, XorPir};
use dps_server::batch_crypto::encrypt_batch_strided;
use dps_server::{DiskOptions, DiskStore, SimServer, Storage, SyncPolicy, WorkerPool};
use dps_workloads::generators::database;

/// One bench record: scheme name plus the threading configuration it ran
/// under (1 for the sequential baselines; `shards` is always 1). `threads`
/// counts the threads doing the work, whichever side they live on:
/// concurrent *client* threads for `net_load_*`, worker-*pool* width for
/// `par_encrypt_batch`, and the
/// in-flight request window for `remote_pipelined_read` (one client
/// thread, `threads` tagged requests outstanding). Throughput-oriented
/// rows additionally record `bytes` — the payload bytes one op moves
/// through the crypto core — and closed-loop load rows record tail
/// latency (`p95_ns`, `p99_ns`; `median_ns` is their p50) plus
/// `ops_per_s`; durable-backend rows record the fsync `policy` they ran
/// under; rows from a `DPS_FORCE_ISA`-pinned run record the forced tier
/// in `isa`; every extra column is omitted from the JSON when zero (or
/// empty), keeping legacy rows byte-stable.
#[derive(Default)]
struct Record {
    scheme: String,
    shards: usize,
    threads: usize,
    median_ns: u64,
    bytes: u64,
    p95_ns: u64,
    p99_ns: u64,
    ops_per_s: u64,
    policy: String,
    isa: String,
}

impl Record {
    fn single(scheme: &str, median_ns: u64) -> Self {
        Self { scheme: scheme.to_string(), shards: 1, threads: 1, median_ns, ..Self::default() }
    }

    fn throughput(scheme: &str, median_ns: u64, bytes: u64) -> Self {
        Self {
            scheme: scheme.to_string(),
            shards: 1,
            threads: 1,
            median_ns,
            bytes,
            ..Self::default()
        }
    }
}

/// The shared sampling protocol: runs `measure` once per sample (plus one
/// discarded warm-up sample) and returns the median of its ns/op results.
fn median_over_samples(samples: usize, mut measure: impl FnMut() -> u64) -> u64 {
    let mut medians = Vec::with_capacity(samples);
    for sample in 0..=samples {
        let ns = measure();
        if sample > 0 {
            medians.push(ns); // sample 0 is warm-up
        }
    }
    medians.sort_unstable();
    medians[medians.len() / 2]
}

/// Times `op` and returns the median ns/op over `samples` samples of
/// `iters` iterations each (after one warm-up sample).
fn median_ns(samples: usize, iters: usize, mut op: impl FnMut()) -> u64 {
    median_over_samples(samples, || {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_nanos() as u64 / iters as u64
    })
}

/// What one closed-loop load run measured: per-op latency percentiles
/// over every op of every client, plus aggregate throughput.
struct LoadSummary {
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    ops_per_s: u64,
}

/// `sorted` must be ascending; returns the `pct`-th percentile sample.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Closed-loop network load driver: `clients` threads each hold one
/// connection to a fresh loopback daemon over `n` cells of `block` bytes
/// and replay a private `zipf_ram` trace (Zipf(θ) indices,
/// `write_fraction` overwrites) one op at a time — the next op is issued
/// only once the previous response lands, so each recorded latency is a
/// full request/response round trip including the daemon's queueing under
/// whatever contention the other clients generate.
fn net_load(
    clients: usize,
    ops_per_client: usize,
    n: usize,
    block: usize,
    theta: f64,
    write_fraction: f64,
    chaos: Option<ChaosConfig>,
) -> LoadSummary {
    let db = database(n, block);
    let mut server = SimServer::new();
    server.init(db);
    let daemon = NetDaemon::spawn(server).expect("spawn load daemon");
    // With a chaos schedule, every client dials through a seeded
    // fault-injecting proxy and carries a reconnect policy; reads replay
    // transparently, interrupted writes are retried by the loop below —
    // the measured latencies then include redial + replay cost.
    let proxy = chaos
        .map(|config| ChaosProxy::spawn(daemon.local_addr(), config).expect("spawn chaos proxy"));
    let faulty = proxy.is_some();
    let addr = proxy.as_ref().map_or(daemon.local_addr(), |p| p.local_addr());

    // Traces are pre-drawn so trace generation never shows up in the
    // measured latencies.
    let traces: Vec<_> = (0..clients)
        .map(|c| {
            let mut rng = ChaChaRng::seed_from_u64(0xC0FFEE + c as u64);
            zipf_ram(n, ops_per_client, theta, write_fraction, &mut rng)
        })
        .collect();

    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(c, trace)| {
                scope.spawn(move || {
                    let remote = if faulty {
                        RemoteServer::connect_with(addr, Timeouts::all(Duration::from_secs(10)))
                            .expect("connect load client")
                            .with_reconnect(ReconnectPolicy {
                                jitter_seed: c as u64,
                                ..ReconnectPolicy::default()
                            })
                    } else {
                        RemoteServer::connect(addr).expect("connect load client")
                    };
                    let payload = vec![0x5Au8; block];
                    let mut lats = Vec::with_capacity(trace.len());
                    for q in trace {
                        let t = Instant::now();
                        match q.op {
                            Op::Read => {
                                remote.try_read_batch(&[q.index]).expect("load read");
                            }
                            Op::Write => loop {
                                let upload = Request::WriteBatchStrided {
                                    addrs: vec![q.index],
                                    flat: payload.clone(),
                                };
                                match remote.request(&upload) {
                                    Ok(_) => break,
                                    // A reset caught the write in flight:
                                    // ambiguous on a real system, safe to
                                    // re-issue for idempotent overwrites.
                                    Err(RemoteError::Interrupted) => continue,
                                    Err(e) => panic!("load write failed: {e}"),
                                }
                            },
                        }
                        lats.push(t.elapsed().as_nanos() as u64);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let wall_ns = start.elapsed().as_nanos() as u64;
    drop(proxy);
    daemon.shutdown();

    latencies.sort_unstable();
    let total_ops = (clients * ops_per_client) as u64;
    LoadSummary {
        p50_ns: percentile(&latencies, 50),
        p95_ns: percentile(&latencies, 95),
        p99_ns: percentile(&latencies, 99),
        ops_per_s: total_ops.saturating_mul(1_000_000_000) / wall_ns.max(1),
    }
}

/// `--flag value` parsing for the `load` subcommand, with a default.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| panic!("bad value for {name}: {e:?}"))
        })
        .unwrap_or(default)
}

/// The `load` subcommand: run one configurable closed-loop load and print
/// its latency profile, without the rest of the smoke suite.
fn run_load_command(args: &[String]) {
    let clients: usize = flag(args, "--clients", 4);
    let ops: usize = flag(args, "--ops", 2000);
    let cells: usize = flag(args, "--cells", 4096);
    let block: usize = flag(args, "--block", 256);
    let theta: f64 = flag(args, "--theta", 0.99);
    let writes: f64 = flag(args, "--writes", 0.1);
    println!(
        "net load: {clients} clients x {ops} ops, {cells} cells x {block} B, \
         Zipf(theta = {theta}), write fraction {writes}"
    );
    let s = net_load(clients, ops, cells, block, theta, writes, None);
    println!(
        "p50 {} ns   p95 {} ns   p99 {} ns   {} ops/s",
        s.p50_ns, s.p95_ns, s.p99_ns, s.ops_per_s
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("load") {
        run_load_command(&args[1..]);
        return;
    }
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "BENCH.json".into()));

    // Fail fast on a bad DPS_FORCE_ISA before measuring anything; record
    // the tier in every row when (and only when) the run is pinned.
    let isa_label = match dps_crypto::isa::try_tier() {
        Ok(tier) if std::env::var_os(dps_crypto::isa::FORCE_ISA_ENV).is_some() => {
            eprintln!("crypto dispatch tier pinned: {tier}");
            tier.name().to_string()
        }
        Ok(_) => String::new(),
        Err(err) => {
            eprintln!("{err}");
            std::process::exit(2);
        }
    };

    let mut results: Vec<Record> = Vec::new();
    let samples = 15;

    // DP-RAM (the paper's headline O(1) scheme), n = 1024, 256 B blocks.
    {
        let n = 1 << 10;
        let db = database(n, 256);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        let mut i = 0;
        results.push(Record::single(
            "dp_ram_read",
            median_ns(samples, 400, || {
                i = (i + 1) % n;
                ram.read(i, &mut rng).unwrap();
            }),
        ));
        let mut i = 0;
        results.push(Record::single(
            "dp_ram_write",
            median_ns(samples, 400, || {
                i = (i + 1) % n;
                ram.write(i, vec![0u8; 256], &mut rng).unwrap();
            }),
        ));
    }

    // Retrieval-only DP-RAM over public data.
    {
        let n = 1 << 12;
        let db = database(n, 256);
        let mut rng = ChaChaRng::seed_from_u64(2);
        let mut ram = DpRamReadOnly::setup(&db, 0.01, SimServer::new(), &mut rng);
        let mut i = 0;
        results.push(Record::single(
            "dp_ram_ro_read",
            median_ns(samples, 4000, || {
                i = (i + 1) % n;
                ram.read(i, &mut rng).unwrap();
            }),
        ));
    }

    // DP-KVS, n = 256 capacity, 64 B values.
    {
        let n = 1 << 8;
        let mut rng = ChaChaRng::seed_from_u64(3);
        let mut kvs =
            DpKvs::setup(DpKvsConfig::recommended(n, 64), SimServer::new(), &mut rng).unwrap();
        let keys: Vec<u64> = (0..(n / 4) as u64).map(|k| k * 0x9e37_79b9 + 1).collect();
        for &k in &keys {
            kvs.put(k, vec![0u8; 64], &mut rng).unwrap();
        }
        let mut i = 0;
        results.push(Record::single(
            "dp_kvs_get_hit",
            median_ns(samples, 60, || {
                i = (i + 1) % keys.len();
                kvs.get(keys[i], &mut rng).unwrap();
            }),
        ));
        let mut i = 0;
        results.push(Record::single(
            "dp_kvs_put_update",
            median_ns(samples, 60, || {
                i = (i + 1) % keys.len();
                kvs.put(keys[i], vec![1u8; 64], &mut rng).unwrap();
            }),
        ));
    }

    // DP-IR, n = 4096, K from eps = ln n.
    {
        let n = 1 << 12;
        let db = database(n, 256);
        let mut rng = ChaChaRng::seed_from_u64(4);
        let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
        let mut ir = DpIr::setup(config, &db, SimServer::new()).unwrap();
        let mut i = 0;
        results.push(Record::single(
            "dp_ir_query",
            median_ns(samples, 2000, || {
                i = (i + 1) % n;
                ir.query(i, &mut rng).unwrap();
            }),
        ));
    }

    // Path ORAM, n = 256, 64 B blocks.
    {
        let n = 1 << 8;
        let db = database(n, 64);
        let mut rng = ChaChaRng::seed_from_u64(5);
        let mut oram =
            PathOram::setup(PathOramConfig::recommended(n, 64), &db, SimServer::new(), &mut rng);
        let mut i = 0;
        results.push(Record::single(
            "path_oram_read",
            median_ns(samples, 150, || {
                i = (i + 1) % n;
                oram.read(i, &mut rng).unwrap();
            }),
        ));
    }

    // Linear ORAM (errorless baseline), n = 256, 64 B blocks.
    {
        let n = 1 << 8;
        let db = database(n, 64);
        let mut rng = ChaChaRng::seed_from_u64(6);
        let mut oram = LinearOram::setup(&db, SimServer::new(), &mut rng);
        let mut i = 0;
        results.push(Record::single(
            "linear_oram_read",
            median_ns(samples, 20, || {
                i = (i + 1) % n;
                oram.read(i, &mut rng).unwrap();
            }),
        ));
    }

    // Linear ORAM full-database re-encryption at production-ish scale:
    // n = 1024 cells of 256 B. One op = decrypt + re-encrypt the whole
    // database (the bytes figure), the workload the wide 4-lane core
    // exists for.
    {
        let n = 1 << 10;
        let block = 256;
        let db = database(n, block);
        let mut rng = ChaChaRng::seed_from_u64(9);
        let mut oram = LinearOram::setup(&db, SimServer::new(), &mut rng);
        let mut i = 0;
        results.push(Record::throughput(
            "linear_oram_reencrypt",
            median_ns(samples, 4, || {
                i = (i + 1) % n;
                oram.read(i, &mut rng).unwrap();
            }),
            2 * (n * (block + CIPHERTEXT_OVERHEAD)) as u64,
        ));
    }

    // Raw wide-keystream throughput: one op XORs a 4 KiB buffer (16
    // passes of the 4-lane core) — the denominator every keystream-bound
    // scheme above divides into.
    {
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut buf = vec![0u8; 4096];
        results.push(Record::throughput(
            "chacha_wide_throughput",
            median_ns(samples, 2000, || {
                dps_crypto::chacha::xor_keystream(&key, 0, &nonce, &mut buf);
                std::hint::black_box(&buf);
            }),
            4096,
        ));
    }

    // Full-scan PIR baseline, n = 1024, 256 B records.
    {
        let n = 1 << 10;
        let db = database(n, 256);
        let mut pir = FullScanPir::setup(&db, SimServer::new());
        let mut i = 0;
        results.push(Record::single(
            "full_scan_pir_query",
            median_ns(samples, 400, || {
                i = (i + 1) % n;
                pir.query(i).unwrap();
            }),
        ));
    }

    // 2-server XOR PIR, n = 1024, 256 B records.
    {
        let n = 1 << 10;
        let db = database(n, 256);
        let mut rng = ChaChaRng::seed_from_u64(7);
        let mut pir = XorPir::setup(&db);
        let mut i = 0;
        results.push(Record::single(
            "xor_pir_query",
            median_ns(samples, 300, || {
                i = (i + 1) % n;
                pir.query(i, &mut rng).unwrap();
            }),
        ));
    }

    // Durable backend (DiskStore): the strided-write / batched-read
    // surface against the WAL-backed arena in a
    // scratch directory. Fsync is off — recorded in the row's `policy`
    // column — so the figure tracks the WAL codec + pwrite path rather
    // than the device's flush latency; every strided write appends ~1 MiB
    // of WAL and immediately crosses the checkpoint threshold, so the
    // checkpoint cost is *included* in each op, not amortized away.
    {
        let n = 1 << 12;
        let block = 256;
        let db = database(n, block);
        let dir = std::env::temp_dir().join(format!("dps_bench_disk_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        let opts = DiskOptions { sync: SyncPolicy::Never, ..DiskOptions::default() };
        let mut store = DiskStore::open_with(&dir, opts).expect("open bench store");
        Storage::init(&mut store, db.clone());

        let addrs: Vec<usize> = (0..n).collect();
        let flat: Vec<u8> = db.iter().flatten().copied().collect();
        let ns = median_ns(samples, 10, || {
            store
                .write_batch_strided(&addrs, &flat)
                .expect("bench disk write");
        });
        results.push(Record {
            scheme: "disk_write_strided".to_string(),
            shards: 1,
            threads: 1,
            median_ns: ns / n as u64, // per cell
            policy: "fsync_off".to_string(),
            ..Record::default()
        });

        let batch = 64;
        let mut sink = 0u64;
        let mut i = 0;
        let ns = median_ns(samples, 40, || {
            let addrs: Vec<usize> = (0..batch).map(|k| (i * 13 + k * 7) % n).collect();
            i += 1;
            store
                .read_batch_with(&addrs, |_, cell| {
                    sink = sink.wrapping_add(u64::from(cell[0]));
                })
                .expect("bench disk read");
        });
        std::hint::black_box(sink);
        results.push(Record {
            scheme: "disk_read_batch".to_string(),
            shards: 1,
            threads: 1,
            median_ns: ns / batch as u64, // per cell
            policy: "fsync_off".to_string(),
            ..Record::default()
        });

        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Fsync-priced durable rows: the same DiskStore surface with
    // `SyncPolicy::Always`, on a small store and small batches so the
    // flush cost dominates the arithmetic. `fsync_always` commits (and
    // fsyncs) every batch; `group_commit` shares one fsync across a
    // 16-batch window — the delta between the two `disk_write_strided`
    // rows is exactly what the `wal_group_commit` knob buys. The read row
    // rides the same always-synced store: reads never fsync, so it should
    // track the `fsync_off` read row (cache ≥ DB here, all hits after the
    // first sweep).
    {
        let n = 256;
        let block = 256;
        let batch = 16;
        let db = database(n, block);
        let flat_all: Vec<u8> = db.iter().flatten().copied().collect();
        for (policy, window) in [("fsync_always", 1usize), ("group_commit", 16)] {
            let dir = std::env::temp_dir()
                .join(format!("dps_bench_disk_{policy}_{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create bench scratch dir");
            let opts = DiskOptions {
                sync: SyncPolicy::Always,
                wal_group_commit: window,
                ..DiskOptions::default()
            };
            let mut store = DiskStore::open_with(&dir, opts).expect("open bench store");
            Storage::init(&mut store, db.clone());

            let mut i = 0usize;
            let ns = median_ns(samples, 8, || {
                let start = (i * batch) % n;
                i += 1;
                let addrs: Vec<usize> = (start..start + batch).collect();
                store
                    .write_batch_strided(&addrs, &flat_all[start * block..(start + batch) * block])
                    .expect("bench durable write");
            });
            results.push(Record {
                scheme: "disk_write_strided".to_string(),
                shards: 1,
                threads: 1,
                median_ns: ns / batch as u64, // per cell
                policy: policy.to_string(),
                ..Record::default()
            });

            if window == 1 {
                let read_batch = 64;
                let mut sink = 0u64;
                let mut j = 0;
                let ns = median_ns(samples, 40, || {
                    let addrs: Vec<usize> = (0..read_batch).map(|k| (j * 13 + k * 7) % n).collect();
                    j += 1;
                    store
                        .read_batch_with(&addrs, |_, cell| {
                            sink = sink.wrapping_add(u64::from(cell[0]));
                        })
                        .expect("bench durable read");
                });
                std::hint::black_box(sink);
                results.push(Record {
                    scheme: "disk_read_batch".to_string(),
                    shards: 1,
                    threads: 1,
                    median_ns: ns / read_batch as u64, // per cell
                    policy: policy.to_string(),
                    ..Record::default()
                });
            }

            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // Remote storage over loopback TCP (dps_net): the zero-copy batch
    // surface with one framed request/response exchange per batch on
    // top. The wire cost — framing, syscalls and loopback latency
    // amortized over the batch — is the round-trip term of the paper's
    // overhead model made measurable.
    {
        let n = 1 << 12;
        let db = database(n, 256);
        let mut server = SimServer::new();
        server.init(db.clone());
        let daemon = NetDaemon::spawn(server).expect("spawn loopback daemon");
        let mut remote = RemoteServer::connect(daemon.local_addr()).expect("connect to daemon");

        // Batched zero-copy reads, 64 cells per round trip.
        let batch = 64;
        let mut sink = 0u64;
        let mut i = 0;
        let ns = median_ns(samples, 40, || {
            let addrs: Vec<usize> = (0..batch).map(|k| (i * 13 + k * 7) % n).collect();
            i += 1;
            remote
                .read_batch_with(&addrs, |_, cell| {
                    sink = sink.wrapping_add(u64::from(cell[0]));
                })
                .expect("bench remote read");
        });
        std::hint::black_box(sink);
        results.push(Record {
            scheme: "remote_read_batch".to_string(),
            shards: 1,
            threads: 1,
            median_ns: ns / batch as u64, // per cell
            ..Record::default()
        });

        // Single-cell tagged reads with a window of requests in
        // flight (wire v2 pipelining), swept over window sizes. At
        // one cell per request the fixed per-round-trip cost —
        // scheduler ping-pong between the client and the daemon
        // thread, the daemon wake-up — dominates the payload, which
        // is exactly the regime pipelining exists for: with window W
        // the whole window crosses each direction of the loopback in
        // one burst, so that fixed cost is paid once per *window*
        // instead of once per request. `threads` records the
        // in-flight window (one OS thread either way); the W = 1 row
        // is the one-in-flight baseline the W = 8 row's speedup is
        // read against.
        let small = 1;
        for window in [1usize, 8] {
            let mut sink = 0u64;
            let mut i = 0;
            let ns = median_ns(samples, 100, || {
                let requests: Vec<_> = (0..window)
                    .map(|w| {
                        let addrs: Vec<usize> =
                            (0..small).map(|k| ((i + w) * 13 + k * 7) % n).collect();
                        dps_net::Request::ReadBatch { addrs }
                    })
                    .collect();
                let tickets = remote.submit_all(&requests).expect("bench pipelined submit");
                i += window;
                for ticket in tickets {
                    let payload = remote.wait_payload(ticket).expect("bench pipelined wait");
                    let cells = dps_net::wire::visit_cells(&payload, |_, cell| {
                        sink = sink.wrapping_add(u64::from(cell[0]));
                    })
                    .expect("bench pipelined decode");
                    assert!(cells, "expected a Cells response");
                }
            });
            std::hint::black_box(sink);
            results.push(Record {
                scheme: "remote_pipelined_read".to_string(),
                shards: 1,
                threads: window, // in-flight window, not OS threads
                median_ns: ns / (window * small) as u64, // per cell
                ..Record::default()
            });
        }

        // Whole-database strided upload in one frame.
        let addrs: Vec<usize> = (0..n).collect();
        let flat: Vec<u8> = db.iter().flatten().copied().collect();
        let ns = median_ns(samples, 10, || {
            remote
                .write_batch_strided(&addrs, &flat)
                .expect("bench remote write");
        });
        results.push(Record {
            scheme: "remote_write_strided".to_string(),
            shards: 1,
            threads: 1,
            median_ns: ns / n as u64, // per cell
            ..Record::default()
        });

        drop(remote);
        daemon.shutdown();
    }

    // Deterministic parallel batch encryption (nonces pre-drawn on the
    // caller thread, cells fanned over the pool).
    {
        let cells = 256;
        let pt_len = 256;
        let mut rng = ChaChaRng::seed_from_u64(8);
        let cipher = BlockCipher::generate(&mut rng);
        let plaintexts: Vec<u8> = (0..cells * pt_len).map(|i| (i % 251) as u8).collect();
        let mut out = vec![0u8; cells * (pt_len + CIPHERTEXT_OVERHEAD)];
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let nonces = rng.draw_nonces(cells);
            let ns = median_ns(samples, 20, || {
                encrypt_batch_strided(&pool, &cipher, &nonces, &plaintexts, &mut out);
            });
            results.push(Record {
                scheme: "par_encrypt_batch".to_string(),
                shards: 1,
                threads,
                median_ns: ns / cells as u64, // per cell
                ..Record::default()
            });
        }
    }

    // Closed-loop load against one loopback daemon: C client threads
    // replaying Zipf read/write mixes, one op in flight per client. The
    // read-only mix isolates the round-trip floor; the mixed trace adds
    // write traffic on the hot Zipf head. `median_ns` is the per-op p50.
    {
        let n = 1 << 12;
        let ops = 1200;
        for (clients, write_fraction) in [(1usize, 0.0f64), (4, 0.0), (4, 0.2)] {
            let s = net_load(clients, ops, n, 256, 0.99, write_fraction, None);
            let scheme =
                if write_fraction == 0.0 { "net_load_zipf_read" } else { "net_load_zipf_mixed" };
            results.push(Record {
                scheme: scheme.to_string(),
                shards: 1,
                threads: clients,
                median_ns: s.p50_ns,
                p95_ns: s.p95_ns,
                p99_ns: s.p99_ns,
                ops_per_s: s.ops_per_s,
                ..Record::default()
            });
        }

        // The same mixed trace through a seeded chaos proxy cutting
        // connections roughly every 32 KiB per direction (~1% of ops hit
        // a reset): the price of fault tolerance — redial, backoff and
        // idempotent replay — paid inside the measured latencies.
        {
            let mut config = ChaosConfig::seeded(0xFA17).cuts_only();
            config.mean_gap_bytes = 32 * 1024;
            config.max_fatal = u64::MAX;
            let s = net_load(4, ops, n, 256, 0.99, 0.2, Some(config));
            results.push(Record {
                scheme: "net_load_zipf_faulty".to_string(),
                shards: 1,
                threads: 4,
                median_ns: s.p50_ns,
                p95_ns: s.p95_ns,
                p99_ns: s.p99_ns,
                ops_per_s: s.ops_per_s,
                ..Record::default()
            });
        }
    }

    for r in &mut results {
        r.isa.clone_from(&isa_label);
    }

    println!("{:<24} {:>6} {:>7}  median ns/op", "scheme", "shards", "threads");
    for r in &results {
        print!("{:<24} {:>6} {:>7}  {}", r.scheme, r.shards, r.threads, r.median_ns);
        if r.ops_per_s > 0 {
            print!("  (p95 {}, p99 {}, {} ops/s)", r.p95_ns, r.p99_ns, r.ops_per_s);
        }
        println!();
    }

    if let Some(path) = json_path {
        let mut json = String::from("[\n");
        for (i, r) in results.iter().enumerate() {
            let comma = if i + 1 == results.len() { "" } else { "," };
            let mut extra = String::new();
            for (name, value) in [
                ("bytes", r.bytes),
                ("p95_ns", r.p95_ns),
                ("p99_ns", r.p99_ns),
                ("ops_per_s", r.ops_per_s),
            ] {
                if value > 0 {
                    extra.push_str(&format!(", \"{name}\": {value}"));
                }
            }
            if !r.policy.is_empty() {
                extra.push_str(&format!(", \"policy\": \"{}\"", r.policy));
            }
            if !r.isa.is_empty() {
                extra.push_str(&format!(", \"isa\": \"{}\"", r.isa));
            }
            json.push_str(&format!(
                "  {{\"scheme\": \"{}\", \"shards\": {}, \"threads\": {}, \"median_ns\": {}{extra}}}{comma}\n",
                r.scheme, r.shards, r.threads, r.median_ns
            ));
        }
        json.push_str("]\n");
        std::fs::write(&path, json).expect("write bench json");
        eprintln!("wrote {path}");
    }
}
