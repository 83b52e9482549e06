//! Multiple non-colluding servers (Appendix C).
//!
//! The multi-server DP-IR lower bound considers `D` servers each storing a
//! replica of the database, of which an adversary corrupts a `t`-fraction
//! and observes only those servers' transcripts. [`ReplicatedServers`]
//! holds `D` independent [`SimServer`]s and exposes per-server access plus
//! a corruption-view helper for the auditor.

use crate::server::{ServerError, SimServer};
use crate::stats::CostStats;
use crate::storage::Storage;
use crate::transcript::Transcript;

/// `D` replicas of a database on independent passive servers.
#[derive(Debug, Clone)]
pub struct ReplicatedServers<S: Storage = SimServer> {
    servers: Vec<S>,
}

impl ReplicatedServers {
    /// Creates `d` in-process [`SimServer`]s each storing a replica of
    /// `cells`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn replicate(d: usize, cells: &[Vec<u8>]) -> Self {
        Self::replicate_on(d, cells)
    }

    /// The adversary's view when it corrupts exactly the servers in
    /// `corrupted`: the concatenation of those servers' transcripts (other
    /// servers are honest and reveal nothing). Transcripts must have been
    /// recorded via [`ReplicatedServers::start_recording_all`].
    pub fn corrupted_view(transcripts: &[Transcript], corrupted: &[usize]) -> Vec<u8> {
        let mut view = Vec::new();
        for &i in corrupted {
            view.extend_from_slice(&(i as u64).to_le_bytes());
            view.push(b':');
            view.extend_from_slice(&transcripts[i].canonical_encoding());
        }
        view
    }
}

impl<S: Storage> ReplicatedServers<S> {
    /// [`ReplicatedServers::replicate`] over default-constructed backends
    /// of type `S`. Use [`ReplicatedServers::replicate_with`] to configure
    /// each server (a store directory, a connection to its daemon).
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn replicate_on(d: usize, cells: &[Vec<u8>]) -> Self
    where
        S: Default,
    {
        Self::replicate_with(d, cells, |_| S::default())
    }

    /// [`ReplicatedServers::replicate`] with a caller-supplied factory:
    /// `make(i)` builds (empty, not yet set up) server `i`, which is then loaded
    /// with a replica of `cells`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn replicate_with(d: usize, cells: &[Vec<u8>], mut make: impl FnMut(usize) -> S) -> Self {
        assert!(d > 0, "need at least one server");
        let servers = (0..d)
            .map(|i| {
                let mut s = make(i);
                s.init_with(cells.len(), |sink| cells.iter().for_each(|cell| sink(cell)));
                s
            })
            .collect();
        Self { servers }
    }

    /// Number of servers.
    pub fn count(&self) -> usize {
        self.servers.len()
    }

    /// Mutable access to server `i`.
    pub fn server_mut(&mut self, i: usize) -> &mut S {
        &mut self.servers[i]
    }

    /// Shared access to server `i`.
    pub fn server(&self, i: usize) -> &S {
        &self.servers[i]
    }

    /// Starts transcript recording on every server.
    pub fn start_recording_all(&mut self) {
        for s in &mut self.servers {
            s.start_recording();
        }
    }

    /// Takes each server's transcript (index-aligned with server ids).
    pub fn take_transcripts(&mut self) -> Vec<Transcript> {
        self.servers.iter_mut().map(Storage::take_transcript).collect()
    }

    /// Sum of all servers' cost counters.
    pub fn total_stats(&self) -> CostStats {
        let mut total = CostStats::default();
        for s in &self.servers {
            let st = s.stats();
            total.downloads += st.downloads;
            total.uploads += st.uploads;
            total.computed += st.computed;
            total.bytes_down += st.bytes_down;
            total.bytes_up += st.bytes_up;
            total.round_trips += st.round_trips;
        }
        total
    }

    /// Resets every server's counters.
    pub fn reset_stats(&mut self) {
        for s in &mut self.servers {
            s.reset_stats();
        }
    }

    /// Downloads `addrs` from server `i` in one round trip.
    pub fn read_batch(&mut self, i: usize, addrs: &[usize]) -> Result<Vec<Vec<u8>>, ServerError> {
        self.servers[i].read_batch(addrs)
    }

    /// Downloads `addrs` from server `i` in one round trip, handing each
    /// cell to `visit` as a borrowed slice (zero-copy).
    pub fn read_batch_with(
        &mut self,
        i: usize,
        addrs: &[usize],
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), ServerError> {
        self.servers[i].read_batch_with(addrs, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ReplicatedServers {
        ReplicatedServers::replicate(3, &[vec![1u8], vec![2u8], vec![3u8], vec![4u8]])
    }

    #[test]
    fn replicas_hold_same_data() {
        let mut p = pool();
        for i in 0..3 {
            assert_eq!(p.read_batch(i, &[2]).unwrap(), vec![vec![3u8]]);
        }
    }

    #[test]
    fn per_server_costs_are_independent() {
        let mut p = pool();
        p.read_batch(0, &[0, 1]).unwrap();
        p.read_batch(2, &[3]).unwrap();
        assert_eq!(p.server(0).stats().downloads, 2);
        assert_eq!(p.server(1).stats().downloads, 0);
        assert_eq!(p.server(2).stats().downloads, 1);
        assert_eq!(p.total_stats().downloads, 3);
    }

    #[test]
    fn corrupted_view_depends_only_on_corrupted_servers() {
        let mut p = pool();
        p.start_recording_all();
        p.read_batch(0, &[0]).unwrap();
        p.read_batch(1, &[1]).unwrap();
        let t1 = p.take_transcripts();

        let mut q = pool();
        q.start_recording_all();
        q.read_batch(0, &[0]).unwrap();
        q.read_batch(1, &[3]).unwrap(); // differs only at honest server 1
        let t2 = q.take_transcripts();

        assert_eq!(
            ReplicatedServers::corrupted_view(&t1, &[0]),
            ReplicatedServers::corrupted_view(&t2, &[0]),
        );
        assert_ne!(
            ReplicatedServers::corrupted_view(&t1, &[0, 1]),
            ReplicatedServers::corrupted_view(&t2, &[0, 1]),
        );
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        ReplicatedServers::replicate(0, &[]);
    }
}
