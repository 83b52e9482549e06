//! Network-backed storage: the paper's server model on a real wire.
//!
//! The paper's schemes assume an *untrusted storage server reached over a
//! network*; everything else in this workspace simulates that server
//! in-process. This crate closes the gap with four pieces:
//!
//! * [`wire`] — a length-prefixed binary protocol carrying the required
//!   [`Storage`](dps_server::Storage) surface: one download request, one
//!   upload request (strided when the cells have one length, general
//!   otherwise), XOR partials, stats/transcript queries. One frame per
//!   request, one per response; batch operations are single round trips
//!   by construction. The frame header carries a request id, which the
//!   response echoes.
//! * [`daemon::NetDaemon`] — a blocking `std::net` TCP daemon wrapping
//!   any [`Storage`](dps_server::Storage) backend — the in-memory
//!   [`SimServer`](dps_server::SimServer) or the durable
//!   [`DiskStore`](dps_server::DiskStore) behind one lock held per
//!   request: an accept thread and one thread per connection, each with
//!   its own partial-frame buffer and a bounded response buffer, whose
//!   blocking write is the backpressure on a slow reader.
//! * [`client::RemoteServer`] — a client implementing `Storage`, so every
//!   scheme in `dps_core`/`dps_oram`/`dps_pir` runs against the daemon
//!   with zero call-site changes. It has one request in flight: every
//!   scheme's next request waits for the answer to the last. Its
//!   `request`/`try_call`/`try_read_batch_with` are where wire failures
//!   come back typed instead of as the `Storage` surface's panic.
//! * [`chaos`] — a deterministic fault-injection harness: a seeded TCP
//!   relay ([`chaos::ChaosProxy`]) cutting, delaying and splitting the
//!   byte stream at reproducible offsets, and a [`chaos::FaultStorage`]
//!   wrapper injecting typed model-level failures. Together with the
//!   client's [`client::Timeouts`] / [`client::ReconnectPolicy`] and the
//!   daemon's idle/stall deadlines, these make the stack's failure
//!   behavior a tested contract rather than an accident.
//!
//! The loopback equivalence suite (`tests/loopback_equivalence.rs`) pins
//! the whole stack observationally equivalent to a local
//! [`SimServer`](dps_server::SimServer): identical cells,
//! identical [`CostStats`](dps_server::CostStats) modulo the new `wire_*`
//! counters, identical transcripts — and exactly one wire round trip per
//! batch operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod wire;

pub use chaos::{ChaosConfig, ChaosMetrics, ChaosProxy, FaultStorage};
pub use client::{ReconnectPolicy, RemoteError, RemoteServer, Timeouts};
pub use daemon::{DaemonLimits, DaemonMetrics, NetDaemon};
pub use wire::{Request, Response, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use dps_server::{SimServer, Storage};

    #[test]
    fn loopback_smoke() {
        let daemon = NetDaemon::spawn(SimServer::new()).unwrap();
        let mut remote = RemoteServer::connect(daemon.local_addr()).unwrap();
        remote.ping().unwrap();
        remote.init((0..8).map(|i| vec![i as u8; 4]).collect());
        assert_eq!(remote.capacity(), 8);
        assert_eq!(remote.read(3).unwrap(), vec![3u8; 4]);
        remote.write(5, vec![9u8; 4]).unwrap();
        assert_eq!(remote.read(5).unwrap(), vec![9u8; 4]);
        let stats = remote.stats();
        assert_eq!(stats.downloads, 2);
        assert_eq!(stats.uploads, 1);
        assert!(stats.wire_round_trips > 0);
        drop(remote);
        daemon.shutdown();
    }
}
