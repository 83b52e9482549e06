//! Concurrency stress for the wire path: with many connections served
//! by their own daemon threads, *determinism may not depend on
//! who else is running*. Concurrent clients on disjoint address ranges
//! lose no writes, observe their own writes, and leave final cells and
//! aggregate model stats byte-identical across reruns; readers never see
//! a torn batch while writers rewrite the same range, because the store
//! sits behind one lock, held for one request at a time. Runs under both
//! `RUST_TEST_THREADS=1` and the default parallelism in CI.

use dps_net::{NetDaemon, RemoteServer};
use dps_server::{CostStats, SimServer, Storage};

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 64;
const N: usize = CLIENTS * PER_CLIENT;
const LEN: usize = 16;
const ROUNDS: usize = 25;

fn pattern(client: usize, round: usize, slot: usize) -> Vec<u8> {
    (0..LEN)
        .map(|b| (client * 31 + round * 7 + slot * 3 + b) as u8)
        .collect()
}

/// `CLIENTS` threads, each with its own connection, hammer disjoint
/// ranges with strided batch writes and read-your-writes checks; returns
/// the final cells and aggregate model stats seen by a fresh connection.
fn run_disjoint_writers() -> (Vec<Vec<u8>>, CostStats) {
    let mut server = SimServer::new();
    server.init((0..N).map(|_| vec![0u8; LEN]).collect());
    let daemon = NetDaemon::spawn(server).expect("spawn daemon");
    let addr = daemon.local_addr();

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let mut remote = RemoteServer::connect(addr).expect("connect");
                let base = client * PER_CLIENT;
                let addrs: Vec<usize> = (base..base + PER_CLIENT).collect();
                for round in 0..ROUNDS {
                    let flat: Vec<u8> = (0..PER_CLIENT)
                        .flat_map(|slot| pattern(client, round, slot))
                        .collect();
                    remote.write_batch_strided(&addrs, &flat).unwrap();
                    // Read-your-writes through the same connection.
                    let seen = Storage::read_batch(&mut remote, &addrs).unwrap().concat();
                    assert_eq!(seen, flat, "client {client} lost its round-{round} write");
                }
                // Each exchange is one wire round trip, and connections
                // count independently: 2 per round, nothing more.
                assert_eq!(remote.wire_stats().wire_round_trips, 2 * ROUNDS as u64);
            });
        }
    });

    let mut check = RemoteServer::connect(addr).expect("connect");
    let every: Vec<usize> = (0..N).collect();
    let cells = Storage::read_batch(&mut check, &every).unwrap();
    let stats = Storage::stats(&check).sans_wire();
    drop(check);
    daemon.shutdown();
    (cells, stats)
}

#[test]
fn disjoint_concurrent_writers_are_deterministic() {
    let (cells_a, stats_a) = run_disjoint_writers();
    let (cells_b, stats_b) = run_disjoint_writers();

    // Final contents: every client's last round survived, verbatim.
    for client in 0..CLIENTS {
        for slot in 0..PER_CLIENT {
            assert_eq!(
                cells_a[client * PER_CLIENT + slot],
                pattern(client, ROUNDS - 1, slot),
                "client {client} slot {slot} corrupted"
            );
        }
    }
    // And the whole run — cells *and* aggregate model stats (including
    // the fresh checker's own reads, identical in both runs) — is
    // byte-identical across reruns, whatever the interleaving was.
    assert_eq!(cells_a, cells_b);
    assert_eq!(stats_a, stats_b);
}

/// Readers scanning a whole range with single-batch reads must
/// never observe a torn write while a writer rewrites that same range
/// with single-batch strided writes: the store lock serializes the
/// two below the transport, whichever connection they arrive on.
#[test]
fn same_range_batches_are_never_torn() {
    const SPAN: usize = 32;
    let mut server = SimServer::new();
    server.init((0..256).map(|_| vec![0u8; LEN]).collect());
    let daemon = NetDaemon::spawn(server).expect("spawn daemon");
    let addr = daemon.local_addr();
    let addrs: Vec<usize> = (0..SPAN).collect();

    // Seed with round-0 so readers never see the init zeros.
    let seed: Vec<u8> = (0..SPAN).flat_map(|slot| pattern(0, 0, slot)).collect();
    let mut seeder = RemoteServer::connect(addr).expect("connect");
    seeder.write_batch_strided(&addrs, &seed).unwrap();
    drop(seeder);

    std::thread::scope(|scope| {
        let writer_addrs = addrs.clone();
        scope.spawn(move || {
            let mut remote = RemoteServer::connect(addr).expect("connect");
            for round in 1..ROUNDS {
                let flat: Vec<u8> = (0..SPAN).flat_map(|slot| pattern(0, round, slot)).collect();
                remote.write_batch_strided(&writer_addrs, &flat).unwrap();
            }
        });
        for _ in 0..2 {
            let reader_addrs = addrs.clone();
            scope.spawn(move || {
                let mut remote = RemoteServer::connect(addr).expect("connect");
                for _ in 0..ROUNDS {
                    let cells = Storage::read_batch(&mut remote, &reader_addrs).unwrap();
                    // Whatever round we caught, the batch is one
                    // consistent snapshot of it.
                    let slot0 = &cells[0];
                    let round = (0..ROUNDS)
                        .find(|&r| *slot0 == pattern(0, r, 0))
                        .expect("cell 0 holds some complete round");
                    for (slot, cell) in cells.iter().enumerate() {
                        assert_eq!(*cell, pattern(0, round, slot), "torn batch at slot {slot}");
                    }
                }
            });
        }
    });
    daemon.shutdown();
}
