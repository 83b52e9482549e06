//! Readiness for the event-loop daemon: one safe wrapper over `poll(2)`.
//! This is the crate's one audited unsafe module, mirroring the
//! vendored-dependency posture of `dps_crypto::chacha::sse2`: instead of
//! pulling in mio/tokio, the one libc entry point the loop needs is
//! declared directly against the C library std already links.
//!
//! Nothing is registered: the caller hands [`wait`] the whole array of
//! what it waits for, every time (the daemon builds it each turn from its
//! connections' states). `poll(2)` is level-triggered and has no other
//! mode, so a socket with unread bytes is reported on every call until it
//! is drained — the daemon's short-read rule rests on that (NOTES.md,
//! entry 7).
//!
//! # Safety audit
//!
//! One `unsafe` block, the call in [`wait`], with a narrow contract:
//!
//! * **The declaration** — `poll` is transcribed from POSIX, with `nfds`
//!   declared as Linux's `nfds_t` (`unsigned long`); this workspace builds
//!   and tests on Linux (x86-64, and aarch64 cross-checked in CI), where
//!   that type is exact.
//! * **The layout** — [`PollFd`] is `#[repr(C)]` `struct pollfd { int fd;
//!   short events; short revents; }`, identical on every POSIX platform.
//! * **The buffer** — pointer and length come from one `&mut [PollFd]`:
//!   live, initialised, exclusively borrowed for the call, and the kernel
//!   writes only the `revents` of those `len` entries.
//! * **File-descriptor lifetimes** — the fds are borrowed, never owned or
//!   closed here: the caller reads them from the `TcpListener` /
//!   `TcpStream`s it keeps alive across the call. A stale number could at
//!   worst report the wrong readiness (or `POLLNVAL`), not touch memory.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::RawFd;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// Reported whatever was asked for; folded into both directions, since the
/// next read or write observes the failure and closes the connection.
const FAILED: c_short = POLLERR | POLLHUP | POLLNVAL;

/// One entry of a [`wait`]: `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

impl PollFd {
    /// Waits on `fd` for the given interests.
    pub fn new(fd: RawFd, read: bool, write: bool) -> Self {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        Self { fd, events, revents: 0 }
    }

    /// After a [`wait`]: readable, or in an error / hang-up state a read
    /// reveals.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | FAILED) != 0
    }

    /// After a [`wait`]: writable, or in an error / hang-up state a write
    /// reveals.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | FAILED) != 0
    }
}

/// Blocks until at least one entry of `fds` is ready or `timeout_ms`
/// elapses (`-1` blocks indefinitely), then leaves each entry's readiness
/// in it. A timeout, or a signal (`EINTR`), is a wake-up with nothing
/// ready.
pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    // SAFETY: see the module's safety audit — `fds` is a live, initialised
    // and exclusively borrowed slice of `repr(C)` `pollfd`s, and `poll`
    // writes only the `revents` of its first `fds.len()` entries.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if n >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        fds.iter_mut().for_each(|pfd| pfd.revents = 0);
        return Ok(());
    }
    Err(err)
}

/// Converts the nearest timer deadline into a [`wait`] timeout in
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// Writable, then readable, then a peer hang-up seen with read
    /// interest.
    #[test]
    fn wait_reports_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        let fd = served.as_raw_fd();

        // A connected socket with an empty send buffer is writable, and
        // with nothing received it is not readable.
        let mut fds = [PollFd::new(fd, true, true)];
        wait(&mut fds, 1000).unwrap();
        assert!(fds[0].writable() && !fds[0].readable());

        // Once bytes arrive, it turns readable.
        client.write_all(b"hi").unwrap();
        let mut fds = [PollFd::new(fd, true, false)];
        wait(&mut fds, 1000).unwrap();
        assert!(fds[0].readable());
        let mut buf = [0u8; 2];
        served.read_exact(&mut buf).unwrap();

        // Peer hang-up is reported to read interest (and a read sees EOF).
        drop(client);
        let mut fds = [PollFd::new(fd, true, false)];
        wait(&mut fds, 1000).unwrap();
        assert!(fds[0].readable());
        assert_eq!(served.read(&mut buf).unwrap(), 0);
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
