//! Experiment E11 (DP-KVS overhead vs ORAM-based KVS).

use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_crypto::ChaChaRng;
use dps_hashing::ForestGeometry;
use dps_oram::OramKvs;
use dps_server::SimServer;
use dps_workloads::generators::{key_universe, kvs_trace};
use dps_workloads::Op;

use crate::table::{f1, f3, Table};
use crate::Verdict;

/// E11 — Theorem 7.5: DP-KVS moves O(log log n) cells per op while an
/// ORAM-backed KVS moves Θ(log n) blocks; server storage stays O(n). The
/// constants matter at the sizes measured: 12·s(n) cells against
/// 2(log₂ n + 1) blocks puts DP-KVS above ORAM-KVS at every n swept.
pub fn run_e11(fast: bool) -> Vec<Verdict> {
    let sizes: &[usize] =
        if fast { &[1 << 8, 1 << 10] } else { &[1 << 8, 1 << 10, 1 << 12, 1 << 14] };
    let value = 32;
    let ops = if fast { 150 } else { 400 };
    let mut t = Table::new(
        "E11 (Thm 7.5): DP-KVS O(log log n) vs ORAM-KVS Theta(log n) (cells per op)",
        &[
            "n",
            "depth s(n)",
            "DP-KVS cells/op",
            "ORAM-KVS blocks/op",
            "DP-KVS server cells/n",
            "DP-KVS client cells",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = ChaChaRng::seed_from_u64(11);
        let keys = key_universe(n / 2, &mut rng);
        let trace = kvs_trace(&keys, ops, 0.3, 0.1, &mut rng);

        let config = DpKvsConfig::recommended(n, value);
        let depth = config.geometry.depth();
        let server_cells = config.geometry.total_nodes();
        let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
        for &k in keys.iter().take(n / 4) {
            kvs.put(k, vec![0u8; value], &mut rng).unwrap();
        }
        let before = kvs.server_stats();
        for q in &trace {
            match q.op {
                Op::Read => {
                    kvs.get(q.key, &mut rng).unwrap();
                }
                Op::Write => {
                    kvs.put(q.key, vec![1u8; value], &mut rng).unwrap();
                }
            }
        }
        let d = kvs.server_stats().since(&before);
        let kvs_cells = (d.downloads + d.uploads) as f64 / ops as f64;
        let client_cells = kvs.client_cells();

        let mut okvs = OramKvs::new(n, value, &mut rng);
        for &k in keys.iter().take(n / 4) {
            okvs.put(k, vec![0u8; value], &mut rng).unwrap();
        }
        let before = okvs.server_stats();
        for q in &trace {
            match q.op {
                Op::Read => {
                    okvs.get(q.key, &mut rng).unwrap();
                }
                Op::Write => {
                    okvs.put(q.key, vec![1u8; value], &mut rng).unwrap();
                }
            }
        }
        let d = okvs.server_stats().since(&before);
        let oram_blocks = (d.downloads + d.uploads) as f64 / ops as f64;

        t.row(vec![
            n.to_string(),
            depth.to_string(),
            f3(kvs_cells),
            f1(oram_blocks),
            f3(server_cells as f64 / n as f64),
            client_cells.to_string(),
        ]);
        rows.push((n, depth, kvs_cells, oram_blocks));
    }
    t.print();
    // The first n = 2^k where 12·s(n) < 2·(k + 1).
    let crossover = (1..64usize)
        .find(|&k| 12 * ForestGeometry::recommended(1 << k).depth() < 2 * (k + 1))
        .unwrap_or(64);
    let monotone = rows.windows(2).all(|w| w[0].1 <= w[1].1);
    vec![
        Verdict::at_every(
            "Thm 7.5: DP-KVS moves exactly 12·s(n) cells per op (4 bucket queries × 3 cells × \
             depth s(n)), with s(n) ≤ ⌈log₂log₂n⌉ + 1 and non-decreasing in n: O(log log n)",
            &rows,
            |(n, s, c, _)| format!("{c:.1} = 12·{s} at n = {n}"),
            |&(n, s, c, _)| {
                let loglog = (n as f64).log2().log2().ceil() as usize;
                c == 12.0 * s as f64 && s <= loglog + 1 && monotone
            },
        ),
        Verdict::at_every(
            "ORAM-KVS moves exactly 2·(log₂n + 1) blocks per op: Θ(log n)",
            &rows,
            |(n, _, _, o)| format!("{o:.1} at n = {n}"),
            |&(n, _, _, o)| o == 2.0 * (n.ilog2() + 1) as f64,
        ),
        Verdict::at_every(
            format!(
                "at every n measured DP-KVS moves more cells per op than ORAM-KVS moves blocks: \
                 DP-KVS is not below ORAM-KVS at these n; by the two formulas it first is at \
                 n = 2^{crossover}"
            ),
            &rows,
            |(_, _, c, o)| format!("{c:.0} vs {o:.0}"),
            |&(_, _, c, o)| c > o,
        ),
    ]
}
