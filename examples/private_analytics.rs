//! The paper's motivating pipeline, end to end: differentially private
//! *access* to an outsourced database composed with a differentially
//! private *disclosure* of the computed statistic.
//!
//! Section 1: "suppose we wish to disclose a differentially private model
//! trained over a sample from the database. Obliviousness would
//! unnecessarily hide the identity of the entire retrieved sample at a
//! high cost yet the differential privacy would guarantee the privacy
//! about individuals in the sample."
//!
//! This example plays a health-analytics service:
//!  1. a hospital outsources `n` patient records to an untrusted store;
//!  2. an analyst samples records through **batched DP-IR** (ε_access =
//!     Θ(log n) per retrieval, one round trip for the whole sample, the
//!     server sees only a noised download set);
//!  3. the analyst releases the sample's mean biomarker through the
//!     **Laplace mechanism** (ε_release on the output side);
//!  4. composition accounting reports the total budget spent.
//!
//! ```text
//! cargo run --release --example private_analytics
//! ```

use dp_storage::analysis::composition::{basic, PrivacyBudget};
use dp_storage::analysis::LaplaceMechanism;
use dp_storage::core::dp_ir::{DpIr, DpIrConfig};
use dp_storage::crypto::ChaChaRng;
use dp_storage::server::SimServer;

/// A patient record: 8-byte id, 1-byte biomarker in [0, 100], padding.
fn record(id: u64, biomarker: u8) -> Vec<u8> {
    let mut r = vec![0u8; 64];
    r[..8].copy_from_slice(&id.to_le_bytes());
    r[8] = biomarker;
    r
}

fn biomarker(record: &[u8]) -> f64 {
    f64::from(record[8])
}

fn main() {
    let mut rng = ChaChaRng::seed_from_u64(2026);

    // 1. The outsourced database: n records, biomarkers drawn 20..80.
    let n = 4096;
    let db: Vec<Vec<u8>> = (0..n as u64)
        .map(|id| record(id, 20 + (rng.gen_range(61)) as u8))
        .collect();
    let true_mean = db.iter().map(|r| biomarker(r)).sum::<f64>() / n as f64;
    println!("outsourced {n} patient records (true mean biomarker {true_mean:.2})");

    // 2. DP-IR access: eps_access = ln n gives constant downloads/query.
    let alpha = 0.1;
    let access_config =
        DpIrConfig::with_epsilon(n, (n as f64).ln() - 2.0, alpha).expect("valid DP-IR parameters");
    let mut store = DpIr::setup(access_config, &db, SimServer::new())
        .expect("setup over the outsourced records");
    println!(
        "DP-IR access: eps = {:.2} per retrieval, K = {} blocks/query, error alpha = {alpha}",
        store.config().epsilon(),
        store.config().k
    );

    // 3. Sample m records in ONE round trip.
    let m = 256;
    let sample_ids: Vec<usize> = (0..m).map(|_| rng.gen_index(n)).collect();
    let before = store.server_stats();
    let results = store
        .query_batch(&sample_ids, &mut rng)
        .expect("indices validated above");
    let cost = store.server_stats().since(&before);
    let sample: Vec<f64> = results.iter().flatten().map(|r| biomarker(r)).collect();
    println!(
        "sampled {} of {m} requested records ({} lost to the designed alpha-error) — {} blocks, {} round trip(s)",
        sample.len(),
        m - sample.len(),
        cost.downloads,
        cost.round_trips
    );

    // 4. eps-DP disclosure of the sample mean. Sensitivity of a mean over
    //    |sample| values in [0, 100] is 100/|sample|.
    let eps_release = 0.5;
    let mechanism = LaplaceMechanism::new(100.0 / sample.len() as f64, eps_release);
    let sample_mean = sample.iter().sum::<f64>() / sample.len() as f64;
    let released = mechanism.release(sample_mean, &mut rng);
    println!(
        "released mean biomarker: {released:.2} (sample mean {sample_mean:.2}, true {true_mean:.2})"
    );
    println!(
        "release accuracy: ±{:.2} expected, ±{:.2} at 95% confidence",
        mechanism.expected_absolute_error(),
        mechanism.error_bound(0.05)
    );

    // 5. Composition accounting: the server-side view is eps_access-DP per
    //    changed retrieval (batching does not stack: only the changed
    //    query's download set moves); the published number costs
    //    eps_release. A single patient's record affects one retrieval and
    //    the release, so the per-patient budget is:
    let per_patient = basic(PrivacyBudget::pure(store.config().epsilon()), 1);
    let total = PrivacyBudget::pure(per_patient.epsilon + eps_release);
    println!(
        "per-patient budget: access {} + release ε = {eps_release} => total {total}",
        per_patient
    );
    println!(
        "(an oblivious scheme would need Ω(log n) = {:.0} blocks/query or Θ(n) server work to hide the sample identity the release does not even protect)",
        (n as f64).log2()
    );
}
