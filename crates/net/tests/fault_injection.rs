//! Deterministic fault injection across the full stack.
//!
//! Two injectors, one contract. The [`ChaosProxy`] sits on the wire and
//! cuts, truncates, delays, stalls and splits the byte stream on a
//! schedule derived from a seed; [`FaultStorage`] sits below the model
//! and injects typed [`ServerError::Interrupted`] failures. Against
//! both, every scheme family must either finish **bit-identical** to a
//! fault-free run (after transparent reconnect/replay of idempotent
//! traffic) or surface a **typed** error on its fallible surface —
//! never a panic, never a hang.
//!
//! The daemon side of the failure model is pinned here too: slowloris
//! peers are reaped on `idle_timeout`, wedged writers on
//! `write_stall_timeout`, and the accept loop sheds load beyond
//! `max_connections` — each while an active bystander keeps flowing.
//!
//! Every sweep derives its seeds from `DPS_CHAOS_SEED` (pinned in CI) so
//! a failing schedule replays exactly.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig, DpRamError};
use dps_crypto::ChaChaRng;
use dps_net::{
    ChaosConfig, ChaosProxy, DaemonLimits, FaultStorage, NetDaemon, ReconnectPolicy, RemoteError,
    RemoteServer, Timeouts, WireError,
};
use dps_oram::{LinearOram, PathOram, PathOramConfig};
use dps_pir::{FullScanPir, XorPir};
use dps_server::{Accounted, CellBackend, CellStore, ServerError, SimServer, Storage};
use dps_workloads::generators::database;

const SEEDS: u64 = 32;

/// Base seed for every sweep: `DPS_CHAOS_SEED` when set (CI pins it), a
/// fixed default otherwise; a value that is not a number fails fast.
fn base_seed() -> u64 {
    dps_server::settings::from_env("DPS_CHAOS_SEED").unwrap_or(0xC0A0_5EED)
}

fn seeds(count: u64) -> impl Iterator<Item = u64> {
    let base = base_seed();
    (0..count).map(move |i| base.wrapping_add(i.wrapping_mul(0x9E37_79B9)))
}

/// Generous absolute deadlines plus a patient retry policy: under chaos
/// the client must always *finish*, quickly or not.
fn resilient(addr: SocketAddr, seed: u64) -> RemoteServer {
    RemoteServer::connect_with(addr, Timeouts::all(Duration::from_secs(5)))
        .expect("connect through proxy")
        .with_reconnect(ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: seed,
        })
}

/// Nonfatal schedule tuned for test runtime: frequent but brief delays,
/// stalls and flush splits.
fn gentle_chaos(seed: u64) -> ChaosConfig {
    let mut config = ChaosConfig::seeded(seed).nonfatal();
    config.mean_gap_bytes = 512;
    config.delay = Duration::from_micros(100);
    config.stall = Duration::from_millis(1);
    config
}

/// Connection-killing schedule: resets and truncations only.
fn cutting_chaos(seed: u64) -> ChaosConfig {
    let mut config = ChaosConfig::seeded(seed).cuts_only();
    config.mean_gap_bytes = 2048;
    config.max_fatal = 3;
    config
}

// ---- The proxy itself. -------------------------------------------------

#[test]
fn disarmed_proxy_is_transparent() {
    let daemon = NetDaemon::spawn(SimServer::new()).unwrap();
    let proxy = ChaosProxy::spawn(daemon.local_addr(), cutting_chaos(base_seed())).unwrap();
    proxy.set_armed(false);
    let mut remote = RemoteServer::connect(proxy.local_addr()).unwrap();
    let cells: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 16]).collect();
    remote.init(cells.clone());
    let every: Vec<usize> = (0..32).collect();
    assert_eq!(Storage::read_batch(&mut remote, &every).unwrap(), cells);
    remote.write(7, vec![0xEE; 16]).unwrap();
    assert_eq!(Storage::read(&mut remote, 7).unwrap(), vec![0xEE; 16]);
    let metrics = proxy.metrics();
    assert_eq!(metrics.faults_injected, 0, "disarmed proxy must not inject");
    assert!(metrics.bytes_relayed > 0);
    drop(remote);
    drop(proxy);
    daemon.shutdown();
}

/// Without a reconnect policy, cut connections must surface as typed
/// wire faults on the `try_*` surface — bounded time, no panic, no hang.
#[test]
fn raw_try_surface_stays_typed_under_cuts() {
    let mut server = SimServer::new();
    let cells: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 32]).collect();
    server.init(cells.clone());
    let daemon = NetDaemon::spawn(server).unwrap();
    let mut fatal_total = 0u64;
    for seed in seeds(8) {
        let mut config = cutting_chaos(seed);
        config.mean_gap_bytes = 256; // dense schedule: cut early and often
        config.max_fatal = 16;
        let proxy = ChaosProxy::spawn(daemon.local_addr(), config).unwrap();
        let timeouts = Timeouts::all(Duration::from_secs(2));
        let mut remote = RemoteServer::connect_with(proxy.local_addr(), timeouts).ok();
        for round in 0..60usize {
            let Some(client) = remote.as_ref() else { break };
            match client.try_read_batch(&[round % 64, (round * 7) % 64]) {
                Ok(got) => {
                    assert_eq!(got[0], cells[round % 64]);
                    assert_eq!(got[1], cells[(round * 7) % 64]);
                }
                Err(err) => {
                    assert!(
                        matches!(
                            err,
                            RemoteError::Wire(WireError::Io(_) | WireError::Truncated { .. })
                                | RemoteError::TimedOut
                        ),
                        "seed {seed}: untyped fault {err:?}"
                    );
                    // The old connection is dead; dial a fresh one. A
                    // failed dial means the proxy cut mid-handshake —
                    // acceptable, the seed is done.
                    remote = RemoteServer::connect_with(proxy.local_addr(), timeouts).ok();
                }
            }
        }
        fatal_total += proxy.metrics().fatal_injected;
    }
    assert!(fatal_total >= 1, "cut schedule never fired across 8 seeds");
    daemon.shutdown();
}

// ---- Scheme sweeps through the proxy. ----------------------------------

/// One backend per run: a local oracle, or a remote reached through a
/// chaos proxy with the given schedule.
// Test-only; schemes need the remote by value (`impl Storage`), so
// boxing the large variant doesn't fit.
#[allow(clippy::large_enum_variant)]
enum Backend {
    Local(SimServer),
    // Dropped client-first, then proxy, then daemon.
    Chaos(RemoteServer, ChaosProxy, NetDaemon),
}

fn backend(kind: &str, seed: u64, config: ChaosConfig) -> Backend {
    match kind {
        "local" => Backend::Local(SimServer::new()),
        _ => {
            let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
            let proxy = ChaosProxy::spawn(daemon.local_addr(), config).expect("spawn proxy");
            let remote = resilient(proxy.local_addr(), seed);
            Backend::Chaos(remote, proxy, daemon)
        }
    }
}

macro_rules! run_scheme {
    ($kind:expr, $seed:expr, $config:expr, |$server:ident| $body:expr) => {
        match backend($kind, $seed, $config) {
            Backend::Local($server) => $body,
            Backend::Chaos($server, _proxy, _daemon) => $body,
        }
    };
}

/// Sweeps one scheme family across `SEEDS` nonfatal chaos schedules:
/// delays, stalls and flush splits must be *invisible* — bit-identical
/// answers and model stats against the local oracle.
fn nonfatal_sweep<R: PartialEq + std::fmt::Debug>(
    family: &str,
    run: impl Fn(&'static str, u64) -> R,
) {
    for seed in seeds(SEEDS) {
        let local = run("local", seed);
        let chaos = run("chaos", seed);
        assert_eq!(chaos, local, "{family} diverged at seed {seed}");
    }
}

#[test]
fn dp_ram_is_bit_identical_through_nonfatal_chaos() {
    let n = 16;
    let db = database(n, 16);
    nonfatal_sweep("DpRam", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut ram = DpRam::setup(DpRamConfig::recommended(n), &db, server, &mut rng).unwrap();
            ram.server_mut().start_recording();
            let mut out = Vec::new();
            for i in 0..8 {
                out.push(ram.read((i * 3) % n, &mut rng).unwrap());
                if i % 3 == 0 {
                    ram.write(i, vec![i as u8; 16], &mut rng).unwrap();
                }
            }
            (
                out,
                ram.server_stats().sans_wire(),
                ram.server_mut().take_transcript().canonical_encoding(),
            )
        })
    });
}

#[test]
fn dp_kvs_is_bit_identical_through_nonfatal_chaos() {
    let n = 16;
    nonfatal_sweep("DpKvs", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut kvs = DpKvs::setup(DpKvsConfig::recommended(n, 16), server, &mut rng).unwrap();
            let keys: Vec<u64> = (0..6u64).map(|k| k * 0x9e37_79b9 + 1).collect();
            for &k in &keys {
                kvs.put(k, vec![(k % 251) as u8; 16], &mut rng).unwrap();
            }
            let mut out: Vec<_> = keys.iter().map(|&k| kvs.get(k, &mut rng).unwrap()).collect();
            out.push(kvs.get(0xDEAD_BEEF, &mut rng).unwrap()); // miss
            (out, kvs.server_stats().sans_wire())
        })
    });
}

#[test]
fn dp_ir_is_bit_identical_through_nonfatal_chaos() {
    let n = 32;
    let db = database(n, 16);
    let config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
    nonfatal_sweep("DpIr", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut ir = DpIr::setup(config, &db, server).unwrap();
            let out: Vec<_> = (0..8).map(|i| ir.query(i * 4 % n, &mut rng).unwrap()).collect();
            (out, ir.server_stats().sans_wire())
        })
    });
}

#[test]
fn linear_oram_is_bit_identical_through_nonfatal_chaos() {
    let n = 8;
    let db = database(n, 16);
    nonfatal_sweep("LinearOram", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut oram = LinearOram::setup(&db, server, &mut rng);
            let mut out = Vec::new();
            for i in 0..n {
                out.push(oram.read(i, &mut rng).unwrap());
                if i % 2 == 0 {
                    oram.write(i, vec![i as u8 ^ 0x3C; 16], &mut rng).unwrap();
                }
            }
            (out, oram.server_stats().sans_wire())
        })
    });
}

#[test]
fn path_oram_is_bit_identical_through_nonfatal_chaos() {
    let n = 16;
    let db = database(n, 16);
    nonfatal_sweep("PathOram", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut oram =
                PathOram::setup(PathOramConfig::recommended(n, 16), &db, server, &mut rng);
            let mut out = Vec::new();
            for i in 0..8 {
                out.push(oram.read(i, &mut rng).unwrap());
                if i % 2 == 0 {
                    oram.write(i, vec![i as u8; 16], &mut rng).unwrap();
                }
            }
            (out, oram.server_stats().sans_wire())
        })
    });
}

#[test]
fn full_scan_pir_is_bit_identical_through_nonfatal_chaos() {
    let n = 16;
    let db = database(n, 16);
    nonfatal_sweep("FullScanPir", |kind, seed| {
        run_scheme!(kind, seed, gentle_chaos(seed), |server| {
            let mut pir = FullScanPir::setup(&db, server);
            let out: Vec<_> = (0..8).map(|i| pir.query(i * 2 % n).unwrap()).collect();
            (out, pir.server_stats().sans_wire())
        })
    });
}

#[test]
fn xor_pir_is_bit_identical_through_nonfatal_chaos() {
    let n = 16;
    let db = database(n, 16);
    for seed in seeds(SEEDS) {
        let local = {
            let mut pir: XorPir<SimServer> = XorPir::setup_with(&db, |_| SimServer::new());
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let out: Vec<_> = (0..8).map(|i| pir.query(i * 2 % n, &mut rng).unwrap()).collect();
            (out, pir.total_stats().sans_wire())
        };
        let chaos = {
            // Two replicas, each behind its own chaos proxy.
            let daemons: Vec<NetDaemon> = (0..2)
                .map(|_| NetDaemon::spawn(SimServer::new()).expect("spawn daemon"))
                .collect();
            let proxies: Vec<ChaosProxy> = daemons
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    ChaosProxy::spawn(d.local_addr(), gentle_chaos(seed ^ (i as u64) << 56))
                        .expect("spawn proxy")
                })
                .collect();
            let mut pir: XorPir<RemoteServer> =
                XorPir::setup_with(&db, |i| resilient(proxies[i].local_addr(), seed));
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let out: Vec<_> = (0..8).map(|i| pir.query(i * 2 % n, &mut rng).unwrap()).collect();
            (out, pir.total_stats().sans_wire())
        };
        assert_eq!(chaos, local, "XorPir diverged at seed {seed}");
    }
}

/// Read-only query phases through *connection-killing* chaos with a
/// reconnect policy: every query rides idempotent frames, so the client
/// must recover transparently and the answers stay bit-identical. Setup
/// (non-idempotent init) runs with the proxy disarmed; model stats are
/// not compared — replays legitimately re-charge the server.
#[test]
fn read_schemes_recover_bit_identically_through_cuts() {
    let n = 32;
    let db = database(n, 16);
    let ir_config = DpIrConfig::with_epsilon(n, (n as f64).ln(), 0.1).unwrap();
    let mut fatal_total = 0u64;

    for seed in seeds(SEEDS) {
        // Local oracles, no wire.
        let ir_oracle: Vec<_> = {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let mut ir = DpIr::setup(ir_config, &db, SimServer::new()).unwrap();
            (0..8).map(|i| ir.query(i * 4 % n, &mut rng).unwrap()).collect()
        };
        let scan_oracle: Vec<_> = {
            let mut pir = FullScanPir::setup(&db, SimServer::new());
            (0..8).map(|i| pir.query(i * 2 % n).unwrap()).collect()
        };

        // The same programs through an armed cutting proxy.
        let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
        let proxy = ChaosProxy::spawn(daemon.local_addr(), cutting_chaos(seed)).expect("proxy");
        proxy.set_armed(false);
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut ir = DpIr::setup(ir_config, &db, resilient(proxy.local_addr(), seed)).unwrap();
        proxy.set_armed(true);
        let got: Vec<_> = (0..8).map(|i| ir.query(i * 4 % n, &mut rng).unwrap()).collect();
        assert_eq!(got, ir_oracle, "DpIr diverged through cuts at seed {seed}");
        if proxy.metrics().fatal_injected > 0 {
            assert!(
                ir.server_mut().wire_stats().wire_reconnects >= 1,
                "seed {seed}: a cut fired but the client never reconnected"
            );
        }
        fatal_total += proxy.metrics().fatal_injected;
        drop(ir);
        drop(proxy);
        daemon.shutdown();

        let daemon = NetDaemon::spawn(SimServer::new()).expect("spawn daemon");
        let proxy =
            ChaosProxy::spawn(daemon.local_addr(), cutting_chaos(seed ^ 0x5CA7)).expect("proxy");
        proxy.set_armed(false);
        let mut pir = FullScanPir::setup(&db, resilient(proxy.local_addr(), seed));
        proxy.set_armed(true);
        let got: Vec<_> = (0..8).map(|i| pir.query(i * 2 % n).unwrap()).collect();
        assert_eq!(got, scan_oracle, "FullScanPir diverged through cuts at seed {seed}");
        fatal_total += proxy.metrics().fatal_injected;
        drop(pir);
        drop(proxy);
        daemon.shutdown();
    }
    assert!(fatal_total >= 1, "no cut ever fired across the sweep");
}

/// Raw resilient reads through a dense cut schedule: reads are
/// idempotent, so *every* one must succeed bit-identical — the client
/// absorbs each cut with a replayed redial.
#[test]
fn resilient_raw_reads_survive_cuts_bit_identically() {
    let cells: Vec<Vec<u8>> = (0..64).map(|i| vec![i as u8; 32]).collect();
    let mut cut_seeds = 0u32;
    for seed in seeds(8) {
        let mut server = SimServer::new();
        server.init(cells.clone());
        let daemon = NetDaemon::spawn(server).unwrap();
        let mut config = cutting_chaos(seed);
        config.mean_gap_bytes = 256;
        config.max_fatal = 8;
        let proxy = ChaosProxy::spawn(daemon.local_addr(), config).unwrap();
        let mut remote = resilient(proxy.local_addr(), seed);
        for round in 0..40usize {
            let addrs = [round % 64, (round * 11) % 64];
            let got = Storage::read_batch(&mut remote, &addrs).unwrap();
            assert_eq!(got[0], cells[addrs[0]], "seed {seed} round {round}");
            assert_eq!(got[1], cells[addrs[1]], "seed {seed} round {round}");
        }
        if proxy.metrics().fatal_injected > 0 {
            cut_seeds += 1;
            assert!(remote.wire_stats().wire_reconnects >= 1);
        }
        drop(remote);
        drop(proxy);
        daemon.shutdown();
    }
    assert!(cut_seeds >= 1, "no seed ever cut the connection");
}

// ---- FaultStorage: model-level injection. ------------------------------

/// The wrapper against a mirror oracle: an op that returns `Ok` must
/// have exactly the effect the bare server would have; an injected
/// `Interrupted` must have *no* effect. Final states match.
#[test]
fn fault_storage_failures_are_typed_and_effect_free() {
    for seed in seeds(8) {
        let n = 32usize;
        let cells: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let mut wrapped = FaultStorage::new(SimServer::new(), seed, 300);
        let mut mirror = SimServer::new();
        wrapped.set_armed(false);
        wrapped.init(cells.clone());
        mirror.init(cells);
        wrapped.set_armed(true);

        for round in 0..50usize {
            let addr = (round * 7) % n;
            if round % 2 == 0 {
                let cell = vec![(round % 251) as u8; 8];
                match Storage::write(&mut wrapped, addr, cell.clone()) {
                    Ok(()) => Storage::write(&mut mirror, addr, cell).unwrap(),
                    Err(ServerError::Interrupted) => {} // injected: no effect
                    Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
                }
            } else {
                match Storage::read(&mut wrapped, addr) {
                    Ok(got) => assert_eq!(got, Storage::read(&mut mirror, addr).unwrap()),
                    Err(ServerError::Interrupted) => {}
                    Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
                }
            }
        }
        assert!(wrapped.injected() > 0, "seed {seed}: 300‰ never fired in 50 ops");

        // Disarmed, the final states must be indistinguishable.
        wrapped.set_armed(false);
        let every: Vec<usize> = (0..n).collect();
        assert_eq!(
            Storage::read_batch(&mut wrapped, &every).unwrap(),
            Storage::read_batch(&mut mirror, &every).unwrap()
        );
    }
}

/// A scheme above an interrupting server surfaces the typed
/// [`ServerError::Interrupted`] through its own error enum — the
/// fallible surface never panics on an injected fault.
#[test]
fn dp_ram_surfaces_injected_interrupts_as_typed_errors() {
    let n = 16;
    let db = database(n, 16);
    let mut tripped = false;
    for seed in seeds(8) {
        let mut server = FaultStorage::new(SimServer::new(), seed, 200);
        server.set_armed(false);
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut ram = DpRam::setup(DpRamConfig::recommended(n), &db, server, &mut rng).unwrap();
        ram.server_mut().set_armed(true);
        for i in 0..12 {
            let result = if i % 3 == 0 {
                ram.write(i % n, vec![i as u8; 16], &mut rng).map(|_| Vec::new())
            } else {
                ram.read(i % n, &mut rng)
            };
            if let Err(err) = result {
                assert!(
                    matches!(err, DpRamError::Server(ServerError::Interrupted)),
                    "seed {seed}: untyped scheme error {err:?}"
                );
                tripped = true;
                break; // post-fault state is allowed to be inconsistent
            }
        }
        if tripped {
            break;
        }
    }
    assert!(tripped, "200‰ injection never reached the scheme across 8 seeds");
}

// ---- Daemon deadlines and admission control. ---------------------------

fn await_metric(daemon: &NetDaemon, what: &str, get: impl Fn(&NetDaemon) -> u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if get(daemon) >= 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{what} never happened");
}

/// A slowloris peer — one byte, then silence — is reaped on
/// `idle_timeout` while an active bystander on the same daemon keeps
/// getting answers.
#[test]
fn slowloris_is_reaped_while_a_bystander_flows() {
    let mut server = SimServer::new();
    server.init((0..8).map(|i| vec![i as u8; 16]).collect());
    let limits =
        DaemonLimits { idle_timeout: Some(Duration::from_millis(200)), ..Default::default() };
    let daemon = NetDaemon::bind_with("127.0.0.1:0", server, limits).unwrap();

    let mut sloth = TcpStream::connect(daemon.local_addr()).unwrap();
    std::io::Write::write_all(&mut sloth, b"D").unwrap(); // a teasing first byte, then nothing
    sloth.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // The bystander stays active the whole time the sloth is dying.
    let bystander = RemoteServer::connect(daemon.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.metrics().idle_reaped == 0 {
        assert!(Instant::now() < deadline, "slowloris was never reaped");
        bystander.ping().unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }

    // The sloth's socket is dead: EOF or reset, never a hang.
    let mut buf = [0u8; 16];
    assert_eq!(sloth.read(&mut buf).unwrap_or(0), 0, "reaped socket still alive");
    // And the bystander never noticed.
    assert_eq!(bystander.try_read_batch(&[3]).unwrap(), vec![vec![3u8; 16]]);
    drop(bystander);
    daemon.shutdown();
}

/// A memory store that takes `delay` over every cell it reads.
#[derive(Debug, Default)]
struct SlowReads {
    cells: CellStore,
    delay: Duration,
}

impl CellBackend for SlowReads {
    fn capacity(&self) -> usize {
        self.cells.capacity()
    }
    fn stride(&self) -> usize {
        self.cells.stride()
    }
    fn reset(&mut self, contents: CellStore) {
        CellBackend::reset(&mut self.cells, contents);
    }
    fn get(&mut self, addr: usize) -> Result<&[u8], ServerError> {
        std::thread::sleep(self.delay);
        CellBackend::get(&mut self.cells, addr)
    }
    fn put<'a>(
        &mut self,
        items: impl Iterator<Item = (usize, &'a [u8])>,
    ) -> Result<(), ServerError> {
        self.cells.put(items)
    }
}

/// A store call longer than both timeouts — one read that the store takes
/// 600 ms over, against 200 ms deadlines — does not reap the peer it
/// served: the deadlines run only while the connection's thread waits on
/// its socket, so the peer is barely idle when it asks again.
#[test]
fn a_slow_store_call_does_not_reap_the_peer_it_served() {
    let delay = Duration::from_millis(600);
    let mut server = Accounted::over(SlowReads { delay, ..Default::default() });
    server.init((0..4).map(|i| vec![i as u8; 16]).collect());
    let limits = DaemonLimits {
        idle_timeout: Some(Duration::from_millis(200)),
        write_stall_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    };
    let daemon = NetDaemon::bind_with("127.0.0.1:0", server, limits).unwrap();

    let served = RemoteServer::connect(daemon.local_addr()).unwrap();
    let started = Instant::now();
    assert_eq!(served.try_read_batch(&[2]).unwrap(), vec![vec![2u8; 16]]);
    assert!(started.elapsed() >= delay, "the read did not take the slow call");
    // A second peer is served straight after the slow call.
    let next = RemoteServer::connect(daemon.local_addr()).unwrap();
    next.ping().unwrap();

    served.ping().unwrap();
    let metrics = daemon.metrics();
    assert_eq!((metrics.idle_reaped, metrics.stall_reaped), (0, 0));
    drop((served, next));
    daemon.shutdown();
}

/// A peer that requests a huge response window and then never drains its
/// socket is reaped on `write_stall_timeout` — distinct from idleness:
/// this peer *sent* traffic, it just won't read the answers.
#[test]
fn wedged_reader_is_reaped_on_the_write_stall_deadline() {
    const N: usize = 64;
    const LEN: usize = 4096;
    let mut server = SimServer::new();
    server.init((0..N).map(|i| vec![i as u8; LEN]).collect());
    let limits = DaemonLimits {
        write_stall_timeout: Some(Duration::from_millis(200)),
        idle_timeout: None, // isolate: only the stall deadline may fire
        ..Default::default()
    };
    let daemon = NetDaemon::bind_with("127.0.0.1:0", server, limits).unwrap();

    // A raw peer sends 40 reads in one burst: ~256 KiB per response
    // against a 64 KiB cap on unsent bytes. It never reads, so the socket
    // jams and write progress stops.
    let mut wedged = TcpStream::connect(daemon.local_addr()).unwrap();
    let read_all = dps_net::Request::ReadBatch { addrs: (0..N).collect() }.encode();
    let burst: Vec<u8> = (1..=40)
        .flat_map(|id| dps_net::wire::frame_v2(id, &read_all).unwrap())
        .collect();
    std::io::Write::write_all(&mut wedged, &burst).unwrap();
    await_metric(&daemon, "write-stall reap", |d| d.metrics().stall_reaped);

    let bystander = RemoteServer::connect(daemon.local_addr()).unwrap();
    assert_eq!(bystander.try_read_batch(&[5]).unwrap(), vec![vec![5u8; LEN]]);
    drop(bystander);
    drop(wedged);
    daemon.shutdown();
}

/// Admission control: beyond `max_connections` the daemon sheds new
/// peers at accept — existing connections are untouched, and a slot
/// freed by a disconnect is reusable.
#[test]
fn max_connections_sheds_load_beyond_the_cap() {
    let limits = DaemonLimits { max_connections: 2, ..Default::default() };
    let daemon = NetDaemon::bind_with("127.0.0.1:0", SimServer::new(), limits).unwrap();
    let first = RemoteServer::connect(daemon.local_addr()).unwrap();
    let second = RemoteServer::connect(daemon.local_addr()).unwrap();
    first.ping().unwrap();
    second.ping().unwrap();

    // The third TCP handshake may complete (listen backlog), but the
    // daemon drops it at accept: its first exchange fails typed.
    // (A failed dial is also a clean rejection.)
    if let Ok(shed) = RemoteServer::connect(daemon.local_addr()) {
        assert!(shed.try_call(&dps_net::Request::Ping).is_err());
    }
    await_metric(&daemon, "accept rejection", |d| d.metrics().accept_rejects);
    // Bystanders at the cap are unaffected.
    first.ping().unwrap();
    second.ping().unwrap();

    // Freeing a slot re-admits new peers.
    drop(second);
    let deadline = Instant::now() + Duration::from_secs(10);
    let readmitted = loop {
        assert!(Instant::now() < deadline, "freed slot was never re-admitted");
        if let Ok(client) = RemoteServer::connect(daemon.local_addr()) {
            if client.try_call(&dps_net::Request::Ping).is_ok() {
                break client;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    readmitted.ping().unwrap();
    drop(readmitted);
    drop(first);
    daemon.shutdown();
}
