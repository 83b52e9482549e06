//! Restart-over-the-wire: a daemon backed by a durable [`DiskStore`]
//! dies and a new one reopens the same directory — every client and
//! every scheme family must read back **bit-identical** state.
//!
//! The network topology is the realistic one: clients dial a stable
//! address (here a test-local [`Relay`]) that outlives any single daemon
//! process. Killing the daemon severs every relayed link, the relay is
//! retargeted at the replacement daemon's fresh ephemeral port, and the
//! reconnecting clients from the fault-injection stack heal
//! transparently on their next idempotent request — non-idempotent
//! requests are never silently replayed across the outage (see
//! `reconnect.rs`), so each test heals on a ping or lets a scheme whose
//! first post-restart wire op is a read do it on its own.
//!
//! Because the scheme state (keys, position maps, stashes) lives in the
//! client and the cells live in the reopened store, the combined system
//! must answer exactly like a restart-free run: every test compares
//! against a local [`SimServer`] oracle driven by the same seed.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_core::dp_ram::{DpRam, DpRamConfig};
use dps_crypto::ChaChaRng;
use dps_net::{NetDaemon, ReconnectPolicy, RemoteError, RemoteServer, Request, Timeouts};
use dps_oram::LinearOram;
use dps_pir::XorPir;
use dps_server::{
    CrashSim, DiskFile, DiskOptions, DiskStore, ServerError, SimServer, Storage, Vfs,
};
use dps_workloads::generators::database;

// ---- Scaffolding. ------------------------------------------------------

/// A self-cleaning scratch directory for one durable store.
#[derive(Debug)]
struct TempDir(PathBuf);

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    fn new(tag: &str) -> Self {
        let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("dps_restart_{tag}_{pid}_{n}", pid = std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tempdir");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Opens the durable store under test (every acknowledged upload is a
/// synced commit), with a checkpoint threshold small enough that restarts
/// exercise both WAL replay and checkpoint truncation. The cache budget is
/// inherited from `DPS_CACHE_BYTES` (the small-cache CI leg pins it tiny).
fn open_store(dir: &Path) -> DiskStore {
    let opts = DiskOptions { wal_checkpoint_bytes: 2048, ..DiskOptions::default() };
    DiskStore::open_with(dir, opts).expect("open durable store")
}

/// The reconnecting client of the fault-injection stack: absolute
/// deadlines plus patient redials, aimed at the relay's stable address.
fn resilient(addr: SocketAddr, seed: u64) -> RemoteServer {
    RemoteServer::connect_with(addr, Timeouts::all(Duration::from_secs(5)))
        .expect("connect through relay")
        .with_reconnect(ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
            jitter_seed: seed,
        })
}

/// A retargetable TCP relay: the stable address clients keep dialing
/// while daemon processes come and go behind it. Each accepted client is
/// paired with a fresh upstream connection to the *current* target;
/// [`Relay::retarget`] swings future links to a new daemon and severs
/// every existing one, so clients discover the restart as a dead socket
/// — exactly what a crashed server looks like from the outside.
#[derive(Debug)]
struct Relay {
    local_addr: SocketAddr,
    inner: Arc<RelayInner>,
    accept: Option<JoinHandle<()>>,
}

#[derive(Debug)]
struct RelayInner {
    target: Mutex<SocketAddr>,
    /// Clones of both sockets of every live link, kept so retarget and
    /// drop can sever them from outside the pump threads.
    links: Mutex<Vec<TcpStream>>,
    stop: AtomicBool,
}

impl Relay {
    fn spawn(target: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(RelayInner {
            target: Mutex::new(target),
            links: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("dps-relay".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if inner.stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(client) = conn else { continue };
                        let upstream_addr = *inner.target.lock().expect("relay lock");
                        // A dead target rejects the link outright; the
                        // reconnecting client backs off and redials.
                        let Ok(upstream) = TcpStream::connect(upstream_addr) else {
                            drop(client);
                            continue;
                        };
                        let _ = client.set_nodelay(true);
                        let _ = upstream.set_nodelay(true);
                        let (Ok(c2), Ok(u2)) = (client.try_clone(), upstream.try_clone()) else {
                            continue;
                        };
                        {
                            let mut links = inner.links.lock().expect("relay lock");
                            links.push(client.try_clone().expect("clone link"));
                            links.push(upstream.try_clone().expect("clone link"));
                        }
                        pump(client, u2);
                        pump(upstream, c2);
                    }
                })?
        };
        Ok(Self { local_addr, inner, accept: Some(accept) })
    }

    fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Points future links at `target` and severs every existing one.
    fn retarget(&self, target: SocketAddr) {
        *self.inner.target.lock().expect("relay lock") = target;
        for link in self.inner.links.lock().expect("relay lock").drain(..) {
            let _ = link.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; severing the links ends the pumps.
        let _ = TcpStream::connect(self.local_addr);
        for link in self.inner.links.lock().expect("relay lock").drain(..) {
            let _ = link.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// One direction of a relayed link: copy bytes until either side dies,
/// then sever both so the opposite pump exits too.
fn pump(mut src: TcpStream, mut dst: TcpStream) {
    std::thread::spawn(move || {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match src.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if dst.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = dst.shutdown(Shutdown::Both);
        let _ = src.shutdown(Shutdown::Both);
    });
}

/// Stops `daemon` gracefully, reopens the durable store it owned, and
/// serves it from a fresh daemon on a fresh port — the full process
/// restart, minus the process.
fn restart(daemon: NetDaemon, relay: &Relay, dir: &Path) -> NetDaemon {
    daemon.shutdown();
    let next = NetDaemon::spawn(open_store(dir)).expect("respawn daemon");
    relay.retarget(next.local_addr());
    next
}

// ---- Raw cells. --------------------------------------------------------

/// Every acknowledged cell survives the restart bit-identical, the
/// geometry set-up fixed survives with it (an address past it is still out
/// of bounds mid-batch, a cell longer or shorter than the stride still
/// refused), and the healed client keeps writing (and survives a *second*
/// restart).
#[test]
fn raw_cells_survive_a_daemon_restart() {
    let dir = TempDir::new("raw");
    let daemon = NetDaemon::spawn(open_store(dir.path())).expect("spawn daemon");
    let relay = Relay::spawn(daemon.local_addr()).expect("spawn relay");
    let mut remote = resilient(relay.local_addr(), 0x0DD_BA5E);

    remote.init((0..16).map(|i| vec![i as u8; 24]).collect());
    remote.write(0, vec![0xA5; 24]).unwrap();
    remote.write(3, (0..24).collect()).unwrap();
    remote.write(4, vec![0; 24]).unwrap();
    remote.write(15, vec![0x5A; 24]).unwrap();

    let daemon = restart(daemon, &relay, dir.path());
    remote.ping().expect("heal over idempotent traffic");

    assert_eq!((remote.capacity(), remote.cell_stride()), (16, 24));
    let got = remote.try_read_batch(&[0, 3, 4, 15, 7]).unwrap();
    assert_eq!(got[0], vec![0xA5; 24]);
    assert_eq!(got[1], (0..24).collect::<Vec<u8>>());
    assert_eq!(got[2], vec![0; 24]);
    assert_eq!(got[3], vec![0x5A; 24]);
    assert_eq!(got[4], vec![7; 24]);
    match remote.try_read_batch(&[7, 16]) {
        Err(RemoteError::Server(ServerError::OutOfBounds { addr: 16, capacity: 16 })) => {}
        other => panic!("the capacity must survive the restart, got {other:?}"),
    }
    for len in [25, 23] {
        let wrong = ServerError::WrongCellLength { addr: 7, len, stride: 24 };
        assert_eq!(remote.write(7, vec![7; len]), Err(wrong));
    }

    remote.write(7, vec![0x77; 24]).unwrap();
    let daemon = restart(daemon, &relay, dir.path());
    remote.ping().expect("heal after the second restart");
    assert_eq!(remote.try_read_batch(&[7]).unwrap(), vec![vec![0x77u8; 24]]);

    drop(remote);
    drop(relay);
    daemon.shutdown();
}

// ---- A store that dies under the daemon. -------------------------------

/// The disk fails under a serving daemon: the store poisons, and the
/// daemon keeps answering in-band. A refused upload and a clean read (which
/// would have to touch the dead arena) are `Fail(Interrupted)` responses,
/// the dirty cell is still served, and the connection stays up — a ping
/// answers, and nothing is counted as a protocol error.
#[test]
fn a_poisoned_store_behind_the_daemon_answers_in_band() {
    const LEN: usize = 8;
    let sim = CrashSim::new(7);
    let opts = DiskOptions { cache_bytes: 4 * LEN, ..DiskOptions::default() };
    let store = DiskStore::open_on(sim.clone(), opts).expect("open simulated store");
    let daemon = NetDaemon::spawn(store).expect("spawn daemon");
    let mut remote = RemoteServer::connect(daemon.local_addr()).expect("connect");

    remote.init((0..16).map(|i| vec![i as u8; LEN]).collect());
    // Acknowledged, and waiting dirty in the cache.
    remote.write(3, vec![0xD3; LEN]).unwrap();
    // Crash the simulated disk through a second file: the store does no I/O.
    let mut bystander = sim.clone().open("bystander").expect("open bystander");
    sim.plan_crash(sim.events(), 0);
    assert!(bystander.write_at(0, b"x").is_err());

    let upload = Request::WriteBatchStrided { addrs: vec![5], flat: vec![1; LEN] };
    match remote.request(&upload) {
        Err(RemoteError::Server(ServerError::Interrupted)) => {}
        other => panic!("the failed commit must be answered in-band, got {other:?}"),
    }
    assert_eq!(remote.try_read_batch(&[3]).unwrap(), vec![vec![0xD3; LEN]]);
    match remote.try_read_batch(&[9]) {
        Err(RemoteError::Server(ServerError::Interrupted)) => {}
        other => panic!("a clean read of a poisoned store must fail in-band, got {other:?}"),
    }
    remote.ping().expect("the connection stays up");
    assert_eq!(daemon.metrics().protocol_errors, 0);

    drop(remote);
    daemon.shutdown();
}

// ---- Scheme families. --------------------------------------------------

#[test]
fn dp_ram_reads_back_bit_identically_across_a_restart() {
    let n = 16;
    let db = database(n, 16);
    let seed = 0xD15C_0001u64;

    let oracle = {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut ram =
            DpRam::setup(DpRamConfig::recommended(n), &db, SimServer::new(), &mut rng).unwrap();
        let mut out = Vec::new();
        for i in 0..6 {
            out.push(ram.read((i * 3) % n, &mut rng).unwrap());
            if i % 2 == 0 {
                ram.write(i, vec![i as u8; 16], &mut rng).unwrap();
            }
        }
        for i in 0..6 {
            out.push(ram.read((i * 5) % n, &mut rng).unwrap());
        }
        out
    };

    let dir = TempDir::new("dpram");
    let daemon = NetDaemon::spawn(open_store(dir.path())).expect("spawn daemon");
    let relay = Relay::spawn(daemon.local_addr()).expect("spawn relay");
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let remote = resilient(relay.local_addr(), seed);
    let mut ram = DpRam::setup(DpRamConfig::recommended(n), &db, remote, &mut rng).unwrap();
    let mut out = Vec::new();
    for i in 0..6 {
        out.push(ram.read((i * 3) % n, &mut rng).unwrap());
        if i % 2 == 0 {
            ram.write(i, vec![i as u8; 16], &mut rng).unwrap();
        }
    }

    let daemon = restart(daemon, &relay, dir.path());
    ram.server_mut().ping().expect("heal over idempotent traffic");
    for i in 0..6 {
        out.push(ram.read((i * 5) % n, &mut rng).unwrap());
    }
    assert_eq!(out, oracle, "DpRam diverged across the restart");

    drop(ram);
    drop(relay);
    daemon.shutdown();
}

#[test]
fn dp_kvs_reads_back_bit_identically_across_a_restart() {
    let n = 16;
    let seed = 0xD15C_0002u64;
    let keys: Vec<u64> = (0..6u64).map(|k| k * 0x9e37_79b9 + 1).collect();

    let oracle = {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut kvs =
            DpKvs::setup(DpKvsConfig::recommended(n, 16), SimServer::new(), &mut rng).unwrap();
        for &k in &keys {
            kvs.put(k, vec![(k % 251) as u8; 16], &mut rng).unwrap();
        }
        let mut out: Vec<_> = keys.iter().map(|&k| kvs.get(k, &mut rng).unwrap()).collect();
        out.push(kvs.get(0xDEAD_BEEF, &mut rng).unwrap()); // miss
        out
    };

    let dir = TempDir::new("dpkvs");
    let daemon = NetDaemon::spawn(open_store(dir.path())).expect("spawn daemon");
    let relay = Relay::spawn(daemon.local_addr()).expect("spawn relay");
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let remote = resilient(relay.local_addr(), seed);
    let mut kvs = DpKvs::setup(DpKvsConfig::recommended(n, 16), remote, &mut rng).unwrap();
    for &k in &keys {
        kvs.put(k, vec![(k % 251) as u8; 16], &mut rng).unwrap();
    }

    let daemon = restart(daemon, &relay, dir.path());
    kvs.server_mut().ping().expect("heal over idempotent traffic");
    let mut out: Vec<_> = keys.iter().map(|&k| kvs.get(k, &mut rng).unwrap()).collect();
    out.push(kvs.get(0xDEAD_BEEF, &mut rng).unwrap());
    assert_eq!(out, oracle, "DpKvs diverged across the restart");

    drop(kvs);
    drop(relay);
    daemon.shutdown();
}

/// LinearOram has no explicit heal here on purpose: its first wire
/// operation after the restart is the bulk download of an access — an
/// idempotent read the reconnect policy replays on its own, after which
/// the re-upload rides the healed connection.
#[test]
fn linear_oram_reads_back_bit_identically_across_a_restart() {
    let n = 8;
    let db = database(n, 16);
    let seed = 0xD15C_0003u64;

    let oracle = {
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let mut oram = LinearOram::setup(&db, SimServer::new(), &mut rng);
        let mut out = Vec::new();
        for i in 0..n {
            out.push(oram.read(i, &mut rng).unwrap());
            if i % 2 == 0 {
                oram.write(i, vec![i as u8 ^ 0x3C; 16], &mut rng).unwrap();
            }
        }
        for i in 0..n {
            out.push(oram.read(n - 1 - i, &mut rng).unwrap());
        }
        out
    };

    let dir = TempDir::new("loram");
    let daemon = NetDaemon::spawn(open_store(dir.path())).expect("spawn daemon");
    let relay = Relay::spawn(daemon.local_addr()).expect("spawn relay");
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let remote = resilient(relay.local_addr(), seed);
    let mut oram = LinearOram::setup(&db, remote, &mut rng);
    let mut out = Vec::new();
    for i in 0..n {
        out.push(oram.read(i, &mut rng).unwrap());
        if i % 2 == 0 {
            oram.write(i, vec![i as u8 ^ 0x3C; 16], &mut rng).unwrap();
        }
    }

    let daemon = restart(daemon, &relay, dir.path());
    for i in 0..n {
        out.push(oram.read(n - 1 - i, &mut rng).unwrap());
    }
    assert_eq!(out, oracle, "LinearOram diverged across the restart");

    drop(oram);
    drop(relay);
    daemon.shutdown();
}

/// Two replicas, two durable stores, two relays — both daemons restart
/// and every XOR-PIR answer stays bit-identical.
#[test]
fn xor_pir_reads_back_bit_identically_across_replica_restarts() {
    let n = 16;
    let db = database(n, 16);
    let seed = 0xD15C_0004u64;

    let oracle = {
        let mut pir: XorPir<SimServer> = XorPir::setup_with(&db, |_| SimServer::new());
        let mut rng = ChaChaRng::seed_from_u64(seed);
        let out: Vec<_> = (0..8).map(|i| pir.query(i * 2 % n, &mut rng).unwrap()).collect();
        out
    };

    let dirs = [TempDir::new("xp0"), TempDir::new("xp1")];
    let mut daemons: Vec<NetDaemon> = dirs
        .iter()
        .map(|d| NetDaemon::spawn(open_store(d.path())).expect("spawn daemon"))
        .collect();
    let relays: Vec<Relay> = daemons
        .iter()
        .map(|d| Relay::spawn(d.local_addr()).expect("spawn relay"))
        .collect();
    let mut pir: XorPir<RemoteServer> =
        XorPir::setup_with(&db, |i| resilient(relays[i].local_addr(), seed ^ ((i as u64) << 56)));
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let mut out: Vec<_> = (0..4).map(|i| pir.query(i * 2 % n, &mut rng).unwrap()).collect();

    daemons = daemons
        .into_iter()
        .enumerate()
        .map(|(i, old)| {
            old.shutdown();
            let next = NetDaemon::spawn(open_store(dirs[i].path())).expect("respawn daemon");
            relays[i].retarget(next.local_addr());
            next
        })
        .collect();
    for i in 0..2 {
        pir.servers_mut().server_mut(i).ping().expect("heal replica");
    }
    out.extend((4..8).map(|i| pir.query(i * 2 % n, &mut rng).unwrap()));
    assert_eq!(out, oracle, "XorPir diverged across the replica restarts");

    drop(pir);
    drop(relays);
    for daemon in daemons {
        daemon.shutdown();
    }
}
