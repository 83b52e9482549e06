//! Deterministic fault injection for the network stack.
//!
//! Two harnesses live here, both driven by seeded [`splitmix64`] chains
//! so every failure run replays bit-identically from its seed:
//!
//! * [`ChaosProxy`] — a TCP relay that sits between a client and a
//!   [`crate::NetDaemon`] and injects *wire-level* faults at
//!   deterministic byte offsets: abrupt connection cuts (reset /
//!   truncate), forwarding delays, stalls, and frame-splitting flush
//!   boundaries. Schedules are keyed on cumulative relayed bytes, not
//!   wall-clock time, so the same seed fires the same faults at the same
//!   points in the conversation regardless of machine speed.
//! * [`FaultStorage`] — a [`Storage`] wrapper that injects *model-level*
//!   [`ServerError::Interrupted`] failures with seeded per-operation
//!   draws, without executing the failed operation. It exercises scheme
//!   error paths directly, with no sockets involved.
//!
//! Both default to **armed**; [`ChaosProxy::set_armed`] /
//! [`FaultStorage::set_armed`] let a test run non-idempotent setup
//! cleanly and then switch faults on for the measured phase. Disarmed
//! fault points are still consumed from the schedule, so arming late
//! never shifts where later faults land.
//!
//! # Fault realism
//!
//! The proxy stays inside safe, portable std, so a "reset" is
//! approximated by discarding whatever relay bytes are still buffered
//! and closing both directions of both sockets immediately; depending on
//! platform timing the victim observes `ECONNRESET` or a mid-frame EOF.
//! A "truncate" forwards a prefix of the pending bytes first, cutting
//! inside a frame more often than between frames. Either way the client
//! sees exactly the connection-fault class its reconnect machinery keys
//! on, which is the contract under test. Fatal faults debit a shared
//! [`ChaosConfig::max_fatal`] budget so a run cannot degrade into a
//! connection-killing loop that starves all progress.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dps_crypto::rng::splitmix64;
use dps_server::{CostStats, ServerError, Storage, Transcript};

/// A tiny seeded PRNG: [`splitmix64`] over a state advanced by γ after
/// each output (i.e. SplitMix64 proper).
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }
}

/// What to inject, and how often, for one [`ChaosProxy`]. Fault *kinds*
/// are picked by integer weights (a weight of 0 disables a kind); fault
/// *positions* are byte offsets into each relay direction, drawn
/// uniformly from `1..=2·mean_gap_bytes` so they average
/// `mean_gap_bytes` apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Root seed; every (connection, direction) relay derives its own
    /// independent schedule from this.
    pub seed: u64,
    /// Average relayed bytes between consecutive fault points (per
    /// direction). Clamped to at least 1.
    pub mean_gap_bytes: u64,
    /// Weight of abrupt connection cuts that discard pending bytes.
    pub reset_weight: u32,
    /// Weight of cuts that first forward a prefix of pending bytes —
    /// truncating mid-frame more often than between frames.
    pub truncate_weight: u32,
    /// Weight of short forwarding delays of [`ChaosConfig::delay`].
    pub delay_weight: u32,
    /// Weight of long forwarding stalls of [`ChaosConfig::stall`].
    pub stall_weight: u32,
    /// Weight of flush boundaries: the bytes before the fault point are
    /// written as their own segment, exercising frame reassembly from
    /// arbitrary splits.
    pub split_weight: u32,
    /// Sleep applied by a delay fault.
    pub delay: Duration,
    /// Sleep applied by a stall fault.
    pub stall: Duration,
    /// Total fatal faults (reset + truncate) the proxy may inject over
    /// its lifetime, shared across connections — the backstop that keeps
    /// a heavily faulted run making progress.
    pub max_fatal: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            mean_gap_bytes: 4096,
            reset_weight: 1,
            truncate_weight: 1,
            delay_weight: 2,
            stall_weight: 1,
            split_weight: 3,
            delay: Duration::from_micros(500),
            stall: Duration::from_millis(5),
            max_fatal: 4,
        }
    }
}

impl ChaosConfig {
    /// A schedule with the default fault mix under `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Keeps only the non-fatal kinds (delays, stalls, splits): the
    /// connection survives everything, so even non-idempotent traffic
    /// must finish bit-identical to a fault-free run.
    pub fn nonfatal(mut self) -> Self {
        self.reset_weight = 0;
        self.truncate_weight = 0;
        self
    }

    /// Keeps only the connection-cutting kinds (resets, truncates).
    pub fn cuts_only(mut self) -> Self {
        self.delay_weight = 0;
        self.stall_weight = 0;
        self.split_weight = 0;
        self
    }
}

/// The fault kinds a schedule can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Reset,
    Truncate,
    Delay,
    Stall,
    Split,
}

/// Counters a [`ChaosProxy`] accumulates over its lifetime (see
/// [`ChaosProxy::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosMetrics {
    /// Client connections accepted and relayed.
    pub connections: u64,
    /// Payload bytes forwarded, both directions summed.
    pub bytes_relayed: u64,
    /// Faults injected, fatal or not (disarmed points excluded).
    pub faults_injected: u64,
    /// Connection-cutting faults injected (bounded by
    /// [`ChaosConfig::max_fatal`]).
    pub fatal_injected: u64,
}

#[derive(Debug, Default)]
struct MetricsInner {
    connections: AtomicU64,
    bytes_relayed: AtomicU64,
    faults_injected: AtomicU64,
    fatal_injected: AtomicU64,
}

/// Shared relay state: the stop flag, the armed flag, the fatal budget
/// and the metrics.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    armed: AtomicBool,
    fatal_left: AtomicU64,
    metrics: MetricsInner,
}

/// A seeded fault-injecting TCP relay (see the [module docs](self)).
///
/// `ChaosProxy::spawn(upstream, config)` binds an ephemeral local port;
/// point clients at [`ChaosProxy::local_addr`] instead of the daemon and
/// every byte flows through the fault schedule. Dropping the proxy stops
/// the accept loop, severs live connections and joins all relay threads.
#[derive(Debug)]
pub struct ChaosProxy {
    local: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    relays: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// How often relay loops wake to poll the stop flag while idle.
const RELAY_TICK: Duration = Duration::from_millis(50);

impl ChaosProxy {
    /// Starts the relay in front of `upstream` (anything accepting TCP —
    /// normally a [`crate::NetDaemon`]'s listen address).
    pub fn spawn(upstream: impl ToSocketAddrs, config: ChaosConfig) -> std::io::Result<Self> {
        let upstream = upstream.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "upstream resolved to nothing")
        })?;
        let listener = TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            armed: AtomicBool::new(true),
            fatal_left: AtomicU64::new(config.max_fatal),
            metrics: MetricsInner::default(),
        });
        let relays: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let relays = Arc::clone(&relays);
            std::thread::spawn(move || accept_loop(&listener, upstream, config, &shared, &relays))
        };
        Ok(Self { local, shared, accept: Some(accept), relays })
    }

    /// The address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Arms or disarms injection. Disarmed, the proxy is a transparent
    /// relay; scheduled fault points are still consumed, so a later
    /// re-arm continues the same deterministic schedule.
    pub fn set_armed(&self, armed: bool) {
        self.shared.armed.store(armed, Ordering::SeqCst);
    }

    /// Lifetime counters so far.
    pub fn metrics(&self) -> ChaosMetrics {
        let m = &self.shared.metrics;
        ChaosMetrics {
            connections: m.connections.load(Ordering::SeqCst),
            bytes_relayed: m.bytes_relayed.load(Ordering::SeqCst),
            faults_injected: m.faults_injected.load(Ordering::SeqCst),
            fatal_injected: m.fatal_injected.load(Ordering::SeqCst),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles = std::mem::take(&mut *self.relays.lock().expect("relay registry poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    config: ChaosConfig,
    shared: &Arc<Shared>,
    relays: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_index = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(_) => break,
        };
        let Ok(server) = TcpStream::connect(upstream) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        shared.metrics.connections.fetch_add(1, Ordering::SeqCst);
        let conn = conn_index;
        conn_index += 1;
        let pairs = client
            .try_clone()
            .and_then(|c2| server.try_clone().map(|s2| (c2, s2)));
        let Ok((client2, server2)) = pairs else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            continue;
        };
        let mut handles = relays.lock().expect("relay registry poisoned");
        for (from, to, dir_salt) in [(client, server, 0x17u64), (server2, client2, 0x2Bu64)] {
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                relay(from, to, config, conn, dir_salt, &shared);
            }));
        }
    }
}

/// Pumps bytes one direction through the fault schedule until the
/// connection dies, a fatal fault fires, or the proxy stops.
fn relay(
    from: TcpStream,
    to: TcpStream,
    config: ChaosConfig,
    conn: u64,
    dir_salt: u64,
    shared: &Shared,
) {
    let mut from = from;
    let mut to = to;
    let _ = from.set_read_timeout(Some(RELAY_TICK));
    let mut rng = Rng::new(splitmix64(config.seed ^ (conn << 8) ^ dir_salt));
    let mean_gap = config.mean_gap_bytes.max(1);
    let draw_gap = |rng: &mut Rng| 1 + rng.next() % (2 * mean_gap);
    let mut offset = 0u64;
    let mut next_fault = draw_gap(&mut rng);
    let mut buf = vec![0u8; 64 * 1024];
    let sever = |from: &TcpStream, to: &TcpStream| {
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    };
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            sever(&from, &to);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate the half-close and let the other
                // direction drain on its own.
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                sever(&from, &to);
                return;
            }
        };
        let mut pos = 0usize;
        while pos < n {
            let until_fault =
                usize::try_from((next_fault - offset).min((n - pos) as u64)).unwrap_or(n - pos);
            if to.write_all(&buf[pos..pos + until_fault]).is_err() {
                sever(&from, &to);
                return;
            }
            pos += until_fault;
            offset += until_fault as u64;
            shared
                .metrics
                .bytes_relayed
                .fetch_add(until_fault as u64, Ordering::SeqCst);
            if offset < next_fault {
                continue;
            }
            next_fault = offset + draw_gap(&mut rng);
            if !shared.armed.load(Ordering::SeqCst) {
                continue;
            }
            match pick_fault(&mut rng, &config) {
                None => {}
                Some(Fault::Delay) => {
                    shared.metrics.faults_injected.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(config.delay);
                }
                Some(Fault::Stall) => {
                    shared.metrics.faults_injected.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(config.stall);
                }
                Some(Fault::Split) => {
                    // The segment boundary we just flushed at *is* the
                    // split; a short pause defeats TCP coalescing so the
                    // receiver really observes a partial frame.
                    shared.metrics.faults_injected.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(50));
                }
                Some(fatal @ (Fault::Reset | Fault::Truncate)) => {
                    if !debit_fatal(shared) {
                        continue;
                    }
                    shared.metrics.faults_injected.fetch_add(1, Ordering::SeqCst);
                    if fatal == Fault::Truncate {
                        // Forward a prefix of what is still pending so
                        // the cut lands mid-frame more often than not.
                        let rest = n - pos;
                        if rest > 0 {
                            let keep =
                                usize::try_from(rng.next() % (rest as u64 + 1)).unwrap_or(rest);
                            let _ = to.write_all(&buf[pos..pos + keep]);
                        }
                    }
                    sever(&from, &to);
                    return;
                }
            }
        }
    }
}

/// Draws a weighted fault kind; `None` when every weight is zero.
fn pick_fault(rng: &mut Rng, config: &ChaosConfig) -> Option<Fault> {
    let kinds = [
        (Fault::Reset, config.reset_weight),
        (Fault::Truncate, config.truncate_weight),
        (Fault::Delay, config.delay_weight),
        (Fault::Stall, config.stall_weight),
        (Fault::Split, config.split_weight),
    ];
    let total: u64 = kinds.iter().map(|(_, w)| u64::from(*w)).sum();
    if total == 0 {
        return None;
    }
    let mut draw = rng.next() % total;
    for (kind, weight) in kinds {
        let weight = u64::from(weight);
        if draw < weight {
            return Some(kind);
        }
        draw -= weight;
    }
    unreachable!("weighted draw out of range");
}

/// Spends one unit of the shared fatal budget; `false` when exhausted.
fn debit_fatal(shared: &Shared) -> bool {
    let spent = shared
        .fatal_left
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| left.checked_sub(1))
        .is_ok();
    if spent {
        shared.metrics.fatal_injected.fetch_add(1, Ordering::SeqCst);
    }
    spent
}

/// A [`Storage`] wrapper injecting seeded [`ServerError::Interrupted`]
/// failures on the three data primitives, *without* executing them — the
/// model-level twin of [`ChaosProxy`] (see the [module docs](self)): one
/// coin per round trip, whichever provided spelling the caller used.
/// Infallible surface methods (capacity, stats, recording control)
/// always pass through.
#[derive(Debug)]
pub struct FaultStorage<S> {
    inner: S,
    rng: Rng,
    fail_per_mille: u16,
    armed: bool,
    injected: u64,
}

impl<S: Storage> FaultStorage<S> {
    /// Wraps `inner`, failing roughly `fail_per_mille`/1000 of fallible
    /// operations (clamped to 1000) under `seed`.
    pub fn new(inner: S, seed: u64, fail_per_mille: u16) -> Self {
        Self {
            inner,
            rng: Rng::new(splitmix64(seed ^ 0xFA17_5707)),
            fail_per_mille: fail_per_mille.min(1000),
            armed: true,
            injected: 0,
        }
    }

    /// Arms or disarms injection; disarmed draws are still consumed so
    /// re-arming continues the same schedule.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped storage.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Draws the next per-operation outcome.
    fn trip(&mut self) -> Result<(), ServerError> {
        let draw = self.rng.next() % 1000;
        if self.armed && draw < u64::from(self.fail_per_mille) {
            self.injected += 1;
            return Err(ServerError::Interrupted);
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FaultStorage<S> {
    fn init_with(&mut self, capacity: usize, produce: impl FnOnce(&mut dyn FnMut(&[u8]))) {
        self.inner.init_with(capacity, produce);
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn cell_stride(&self) -> usize {
        self.inner.cell_stride()
    }

    fn start_recording(&mut self) {
        self.inner.start_recording();
    }

    fn take_transcript(&mut self) -> Transcript {
        self.inner.take_transcript()
    }

    fn stats(&self) -> CostStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn read_batch_with(
        &mut self,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        self.trip()?;
        self.inner.read_batch_with(addrs, visit)
    }

    fn write_cells<'a>(
        &mut self,
        cells: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    ) -> Result<(), ServerError> {
        self.trip()?;
        self.inner.write_cells(cells)
    }

    fn xor_cells_into(&mut self, addrs: &[usize], acc: &mut Vec<u8>) -> Result<(), ServerError> {
        self.trip()?;
        self.inner.xor_cells_into(addrs, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_pick_honors_zero_weights() {
        let config = ChaosConfig { reset_weight: 0, truncate_weight: 0, ..Default::default() };
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let fault = pick_fault(&mut rng, &config);
            assert!(!matches!(fault, Some(Fault::Reset | Fault::Truncate)), "{fault:?}");
        }
        let none = ChaosConfig {
            reset_weight: 0,
            truncate_weight: 0,
            delay_weight: 0,
            stall_weight: 0,
            split_weight: 0,
            ..Default::default()
        };
        assert_eq!(pick_fault(&mut rng, &none), None);
    }

    #[test]
    fn fault_storage_is_deterministic_and_armable() {
        let base = || {
            let mut s = dps_server::SimServer::default();
            s.init(vec![vec![1u8; 8]; 4]);
            s
        };
        let mut a = FaultStorage::new(base(), 42, 500);
        let mut b = FaultStorage::new(base(), 42, 500);
        let outcomes_a: Vec<bool> = (0..64).map(|_| a.read_batch(&[0, 1]).is_ok()).collect();
        let outcomes_b: Vec<bool> = (0..64).map(|_| b.read_batch(&[0, 1]).is_ok()).collect();
        assert_eq!(outcomes_a, outcomes_b);
        assert!(a.injected() > 0);
        assert!(outcomes_a.iter().any(|ok| *ok), "some operations must pass at 50%");
        let mut c = FaultStorage::new(base(), 42, 1000);
        c.set_armed(false);
        for _ in 0..32 {
            c.read_batch(&[0])
                .expect("disarmed wrapper must pass everything");
        }
        assert_eq!(c.injected(), 0);
    }

    /// One coin per round trip, whichever spelling asked for it: every
    /// provided method reaches the wrapper as one primitive call.
    #[test]
    fn every_spelling_draws_exactly_one_coin() {
        let mut inner = dps_server::SimServer::default();
        inner.init(vec![vec![1u8; 4]; 8]);
        let mut s = FaultStorage::new(inner, 7, 1000);
        let cut = Err(ServerError::Interrupted);
        let mut injected = 0;
        let mut one_more = |s: &FaultStorage<_>, what: &str| {
            injected += 1;
            assert_eq!(s.injected(), injected, "{what} must draw exactly one coin");
        };
        assert_eq!(s.write(1, vec![2; 4]), cut);
        one_more(&s, "write");
        assert_eq!(s.write_from(1, &[2; 4]), cut);
        one_more(&s, "write_from");
        assert_eq!(s.write_batch(vec![(1, vec![2; 4]), (2, vec![2; 4])]), cut);
        one_more(&s, "write_batch");
        assert_eq!(s.write_batch_strided(&[1, 2], &[2; 8]), cut);
        one_more(&s, "write_batch_strided");
        assert_eq!(s.read(1), Err(ServerError::Interrupted));
        one_more(&s, "read");
        assert_eq!(s.read_batch(&[1, 2]), Err(ServerError::Interrupted));
        one_more(&s, "read_batch");
        assert_eq!(s.xor_cells(&[1, 2]), Err(ServerError::Interrupted));
        one_more(&s, "xor_cells");
        // Nothing was executed: no charge, and the cells are as initialized.
        s.set_armed(false);
        assert_eq!(s.stats(), CostStats::default());
        assert_eq!(s.read_batch(&[1, 2]).unwrap(), vec![vec![1u8; 4]; 2]);
    }
}
