//! Remote storage: the same DP-RAM, but the untrusted server lives on
//! the other side of a TCP connection — the deployment shape the paper
//! actually models.
//!
//! ```text
//! cargo run --release --example remote_storage
//! ```

use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::net::{NetDaemon, RemoteServer};
use dp_storage::server::SimServer;

fn main() {
    // 1. Server side: a storage daemon on a loopback port. In a
    //    real deployment this runs on the untrusted storage machine.
    let daemon = NetDaemon::spawn(SimServer::new()).expect("bind loopback daemon");
    println!("storage daemon listening on {}", daemon.local_addr());

    // 2. Client side: connect, and hand the connection to DP-RAM exactly
    //    where an in-process SimServer would go. Nothing else changes.
    let n = 1024;
    let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; 256]).collect();
    let mut rng = ChaChaRng::seed_from_u64(42);
    let server = RemoteServer::connect(daemon.local_addr()).expect("connect to daemon");
    let mut ram = DpRam::setup(DpRamConfig::recommended(n), &blocks, server, &mut rng)
        .expect("setup with valid parameters");

    // 3. Same constant-overhead accesses, now with real bytes on a real
    //    wire: each query is 2 downloads + 1 upload in 2 framed round
    //    trips (one batch down, one up), whatever the record index.
    let before = ram.server_stats();
    for i in [7usize, 99, 1023] {
        let value = ram.read(i, &mut rng).expect("read over the wire");
        assert_eq!(value, blocks[i]);
    }
    ram.write(512, vec![0xAB; 256], &mut rng)
        .expect("write over the wire");
    let cost = ram.server_stats().since(&before);

    // 4. The model counters match the in-process run bit-for-bit; the
    //    new wire_* counters show what the network actually carried.
    println!(
        "4 ops: {} downloads + {} uploads over {} model round trips",
        cost.downloads, cost.uploads, cost.round_trips
    );
    println!(
        "wire: {} framed exchanges, {} B up, {} B down",
        cost.wire_round_trips, cost.wire_bytes_up, cost.wire_bytes_down
    );
    // Two round trips per query, and data ops map one-to-one onto framed
    // exchanges; the only extra exchange in the window is the closing
    // stats query itself.
    assert_eq!(cost.round_trips, 4 * 2);
    assert_eq!(cost.round_trips, cost.wire_round_trips - 1);
    println!("model view identical to the in-process run: stats().sans_wire()");

    daemon.shutdown();
}
