//! Private publish-subscribe with DP-RAM — the pub/sub scenario from the
//! paper's introduction ([18]: Talek, a private publish-subscribe
//! protocol).
//!
//! Publishers write into per-topic mailboxes; subscribers poll them. The
//! storage provider must not learn which topic a client touches, nor
//! whether an access was a publish (write) or a poll (read). DP-RAM hides
//! both at constant overhead — and this example also demonstrates the
//! adversary's-eye view by recording the server transcript.
//!
//! ```text
//! cargo run --release --example private_pubsub
//! ```

use dp_storage::core::dp_ram::{DpRam, DpRamConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::{AccessEvent, SimServer, Storage};
use dp_storage::workloads::Op;

const MAILBOX_SIZE: usize = 512;
const TOPICS: usize = 256;

fn main() {
    // One mailbox per topic, all initially empty.
    let mailboxes: Vec<Vec<u8>> = vec![vec![0u8; MAILBOX_SIZE]; TOPICS];
    let mut rng = ChaChaRng::seed_from_u64(2024);
    let mut board =
        DpRam::setup(DpRamConfig::recommended(TOPICS), &mailboxes, SimServer::new(), &mut rng)
            .expect("setup");

    // Record the adversary's view while clients work.
    board.server_mut().start_recording();

    // Publisher posts to the "incident-42" topic (topic 42).
    let mut message = vec![0u8; MAILBOX_SIZE];
    message[..13].copy_from_slice(b"deploy frozen");
    board.write(42, message, &mut rng).expect("publish");

    // Unrelated subscribers poll other topics.
    for topic in [7usize, 99, 3, 200] {
        board.read(topic, &mut rng).expect("poll");
    }

    // The interested subscriber polls topic 42.
    let inbox = board.read(42, &mut rng).expect("poll");
    assert_eq!(&inbox[..13], b"deploy frozen");
    println!("subscriber received: {:?}", std::str::from_utf8(&inbox[..13]).unwrap());

    // What did the storage provider see? Addresses only — and thanks to
    // the stash + decoy dance, neither "topic 42 was hot" nor "the first
    // access was a write" is certain.
    let transcript = board.server_mut().take_transcript();
    println!("\nadversary transcript ({} round trips):", transcript.round_trips());
    for (i, batch) in transcript.batches().enumerate() {
        let rendered: Vec<String> = batch
            .iter()
            .map(|e| match e {
                AccessEvent::Download(a) => format!("down({a})"),
                AccessEvent::Upload(a) => format!("up({a})"),
                AccessEvent::Compute(a) => format!("compute({a})"),
            })
            .collect();
        println!("  rt{:02}: {}", i, rendered.join(" "));
    }
    println!(
        "\nevery operation shows the same down/down+up shape; decoys appear with probability p = {:.3}.",
        board.config().stash_probability
    );
    println!(
        "6 operations cost {} blocks total — constant per op (Theorem 6.1), ε = O(log n).",
        board.server_stats().downloads + board.server_stats().uploads
    );

    // Writes and reads are indistinguishable: run both and compare shapes.
    board.server_mut().start_recording();
    board.read(10, &mut rng).expect("poll");
    let read_view = board.server_mut().take_transcript();
    board.server_mut().start_recording();
    board
        .write(10, vec![1u8; MAILBOX_SIZE], &mut rng)
        .expect("publish");
    let write_view = board.server_mut().take_transcript();
    let shape = |t: &dp_storage::server::Transcript| {
        t.batches()
            .map(|b| {
                b.iter()
                    .map(|e| matches!(e, AccessEvent::Upload(_)))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&read_view), shape(&write_view));
    println!("verified: a publish and a poll produce identically-shaped transcripts.");

    let _ = Op::Read; // (re-exported workload types available for trace tooling)
}
