//! Readiness notification for the event-loop daemon: epoll on Linux, a
//! portable `poll(2)` fallback everywhere else (selectable at runtime for
//! tests). This is the crate's one audited unsafe module, mirroring the
//! vendored-dependency posture of `dps_crypto::chacha::sse2`: instead of
//! pulling in mio/tokio, the handful of libc entry points the loop needs
//! are declared directly against the C library std already links.
//!
//! # Safety audit
//!
//! Three `unsafe` surfaces, each with a narrow contract:
//!
//! * **FFI declarations** — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   `poll`, and `close`, with signatures transcribed from the Linux and
//!   POSIX manpages. All pointer arguments are non-null, properly aligned,
//!   and sized by the matching length argument at every call site below.
//! * **`EpollEvent` layout** — `#[repr(C, packed)]` on x86-64 (the kernel
//!   ABI packs it there), plain `#[repr(C)]` on every other architecture,
//!   matching the kernel's `__EPOLL_PACKED` definition.
//! * **File-descriptor lifetimes** — the [`Poller`] only stores the fds it
//!   *owns* (the epoll instance itself); socket fds are borrowed per call
//!   from `TcpStream`s/`TcpListener`s the daemon keeps alive for as long
//!   as they are registered, and every deregistration happens before the
//!   corresponding socket drops.

#![allow(unsafe_code)]

use std::collections::HashMap;
use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;

/// One readiness event: `token` is whatever the caller registered the fd
/// under. Errors and hang-ups are folded into `readable`/`writable` (a
/// subsequent read/write observes the failure and closes the connection),
/// which is the same collapse `poll(2)` consumers perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The registration token.
    pub token: usize,
    /// The fd is readable (or in an error/hang-up state a read reveals).
    pub readable: bool,
    /// The fd is writable (or in an error state a write reveals).
    pub writable: bool,
}

/// Which readiness backend the daemon's poller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PollBackend {
    /// epoll on Linux, `poll(2)` elsewhere — the production default.
    #[default]
    Auto,
    /// Force the portable `poll(2)` backend (tests exercise the fallback
    /// on Linux through this).
    Poll,
}

/// A readiness poller: register fds under tokens, wait for events.
/// Level-triggered in both backends, so a fd stays ready until drained —
/// which the daemon's read loop depends on (see the flags in `Epoll::ctl`).
#[derive(Debug)]
pub struct Poller {
    imp: Imp,
}

#[derive(Debug)]
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollSet),
}

impl Poller {
    /// Opens a poller on the requested backend.
    pub fn new(backend: PollBackend) -> io::Result<Self> {
        match backend {
            #[cfg(target_os = "linux")]
            PollBackend::Auto => Ok(Self { imp: Imp::Epoll(Epoll::new()?) }),
            #[cfg(not(target_os = "linux"))]
            PollBackend::Auto => Ok(Self { imp: Imp::Poll(PollSet::default()) }),
            PollBackend::Poll => Ok(Self { imp: Imp::Poll(PollSet::default()) }),
        }
    }

    /// Starts watching `fd` under `token` for the given interests.
    pub fn register(&mut self, fd: RawFd, token: usize, read: bool, write: bool) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(EPOLL_CTL_ADD, fd, token, read, write),
            Imp::Poll(p) => {
                p.entries.insert(token, PollEntry { fd, read, write });
                Ok(())
            }
        }
    }

    /// Changes the interest set of an already registered fd.
    pub fn reregister(
        &mut self,
        fd: RawFd,
        token: usize,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(EPOLL_CTL_MOD, fd, token, read, write),
            Imp::Poll(p) => {
                p.entries.insert(token, PollEntry { fd, read, write });
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Must be called before the fd is closed.
    pub fn deregister(&mut self, fd: RawFd, token: usize) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.ctl(EPOLL_CTL_DEL, fd, token, false, false),
            Imp::Poll(p) => {
                p.entries.remove(&token);
                Ok(())
            }
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout_ms`
    /// elapses (`-1` blocks indefinitely), appending events to `out`
    /// (cleared first). A timeout simply leaves `out` empty.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(e) => e.wait(out, timeout_ms),
            Imp::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}

/// Converts the nearest timer deadline into a [`Poller::wait`] timeout in
/// milliseconds: the time until `deadline`, rounded *up* (so a wake-up
/// never lands before the deadline it is meant to service), clamped to
/// `[0, cap_ms]`. `None` means "no timer armed" and yields `cap_ms`
/// unchanged — the coarse heartbeat the event loop always keeps so stop
/// flags are observed.
pub fn timeout_ms_until(
    deadline: Option<std::time::Instant>,
    now: std::time::Instant,
    cap_ms: i32,
) -> i32 {
    let Some(deadline) = deadline else { return cap_ms };
    let Some(until) = deadline.checked_duration_since(now) else { return 0 };
    let ms = until
        .as_millis()
        .saturating_add(u128::from(until.subsec_nanos() % 1_000_000 != 0));
    i32::try_from(ms).unwrap_or(i32::MAX).min(cap_ms).max(0)
}

// ---- poll(2) backend ---------------------------------------------------

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `struct pollfd` from `<poll.h>` — identical layout on every POSIX
/// platform this workspace targets.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[derive(Debug, Clone, Copy)]
struct PollEntry {
    fd: RawFd,
    read: bool,
    write: bool,
}

/// The fallback backend keeps the registration table in userspace and
/// rebuilds the `pollfd` array per wait — O(fds) per call, which is the
/// classic `poll(2)` cost model and fine for its role here (portability
/// and a second implementation to test the loop against).
#[derive(Debug, Default)]
struct PollSet {
    entries: HashMap<usize, PollEntry>,
    scratch: Vec<PollFd>,
    tokens: Vec<usize>,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: c_int) -> c_int;
}

impl PollSet {
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        self.scratch.clear();
        self.tokens.clear();
        for (&token, entry) in &self.entries {
            let mut events = 0;
            if entry.read {
                events |= POLLIN;
            }
            if entry.write {
                events |= POLLOUT;
            }
            // Register even zero-interest fds: POLLERR/POLLHUP are always
            // reported, which is how a paused connection's death is seen.
            self.scratch.push(PollFd { fd: entry.fd, events, revents: 0 });
            self.tokens.push(token);
        }
        if self.scratch.is_empty() {
            // Nothing to watch; honor the timeout so the caller's stop
            // flag is still checked periodically.
            if timeout_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
            }
            return Ok(());
        }
        // SAFETY: `scratch` is a live, initialized slice of `PollFd` of
        // exactly `len` entries, writable for the duration of the call.
        let n = unsafe {
            poll(self.scratch.as_mut_ptr(), self.scratch.len() as std::ffi::c_ulong, timeout_ms)
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (pfd, &token) in self.scratch.iter().zip(&self.tokens) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            let failed = r & (POLLERR | POLLHUP | POLLNVAL) != 0;
            out.push(Event {
                token,
                readable: r & POLLIN != 0 || failed,
                writable: r & POLLOUT != 0 || failed,
            });
        }
        Ok(())
    }
}

// ---- epoll backend (Linux) ---------------------------------------------

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: c_int = 3;

#[cfg(target_os = "linux")]
const EPOLLIN: u32 = 0x001;
#[cfg(target_os = "linux")]
const EPOLLOUT: u32 = 0x004;
#[cfg(target_os = "linux")]
const EPOLLERR: u32 = 0x008;
#[cfg(target_os = "linux")]
const EPOLLHUP: u32 = 0x010;
#[cfg(target_os = "linux")]
const EPOLLRDHUP: u32 = 0x2000;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// `struct epoll_event` with the kernel's ABI: packed on x86-64
/// (`__EPOLL_PACKED`), naturally aligned elsewhere (e.g. aarch64).
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

#[cfg(target_os = "linux")]
#[derive(Debug)]
struct Epoll {
    epfd: RawFd,
    scratch: Vec<EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Self> {
        // SAFETY: no pointers; returns a fresh fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self { epfd, scratch: vec![EpollEvent { events: 0, data: 0 }; 256] })
    }

    fn ctl(
        &mut self,
        op: c_int,
        fd: RawFd,
        token: usize,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        // Level-triggered on purpose — no EPOLLET. The daemon stops
        // reading a socket after a read that came back short, without
        // draining it to `WouldBlock`, and relies on the bytes that arrive
        // next raising a *new* event; `poll(2)` has no other mode. Under
        // edge triggering a peer whose next bytes landed between that read
        // and the next `epoll_wait` would never be heard again.
        let mut events = EPOLLERR | EPOLLHUP;
        if read {
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if write {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEvent { events, data: token as u64 };
        // SAFETY: `ev` is a live, properly laid out epoll_event; the
        // kernel copies it before returning (EPOLL_CTL_DEL ignores it).
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        // SAFETY: `scratch` is an initialized buffer of `len` events the
        // kernel fills up to the returned count.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                self.scratch.as_mut_ptr(),
                self.scratch.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.scratch[..n as usize] {
            let events = ev.events;
            let failed = events & (EPOLLERR | EPOLLHUP) != 0;
            out.push(Event {
                token: ev.data as usize,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0 || failed,
                writable: events & EPOLLOUT != 0 || failed,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `epfd` is the epoll fd this struct opened and owns.
        unsafe { close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// One round of readable/writable detection through a backend.
    fn exercise(backend: PollBackend) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();

        let mut poller = Poller::new(backend).unwrap();
        poller.register(served.as_raw_fd(), 7, true, true).unwrap();

        // A connected socket with an empty send buffer is writable.
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        // Once bytes arrive, it turns readable too.
        client.write_all(b"hi").unwrap();
        poller.reregister(served.as_raw_fd(), 7, true, false).unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 2];
        served.read_exact(&mut buf).unwrap();

        // Peer hang-up is reported (folded into readability).
        drop(client);
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        poller.deregister(served.as_raw_fd(), 7).unwrap();
    }

    #[test]
    fn auto_backend_reports_readiness() {
        exercise(PollBackend::Auto);
    }

    #[test]
    fn poll_backend_reports_readiness() {
        exercise(PollBackend::Poll);
    }

    #[test]
    fn timeout_ms_until_rounds_up_and_clamps() {
        use std::time::{Duration, Instant};
        let now = Instant::now();
        // No timer: the heartbeat cap passes through.
        assert_eq!(timeout_ms_until(None, now, 500), 500);
        // A deadline in the past (or right now) polls without blocking.
        assert_eq!(timeout_ms_until(Some(now), now, 500), 0);
        assert_eq!(timeout_ms_until(Some(now - Duration::from_secs(3)), now, 500), 0);
        // Sub-millisecond remainders round up, never down to a busy loop
        // of premature wake-ups.
        assert_eq!(timeout_ms_until(Some(now + Duration::from_micros(1)), now, 500), 1);
        assert_eq!(timeout_ms_until(Some(now + Duration::from_millis(7)), now, 500), 7);
        assert_eq!(timeout_ms_until(Some(now + Duration::from_micros(7_300)), now, 500), 8);
        // Far deadlines clamp to the heartbeat cap.
        assert_eq!(timeout_ms_until(Some(now + Duration::from_secs(60)), now, 500), 500);
    }
}
