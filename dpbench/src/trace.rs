//! The traced pass: per-layer metrics by substitution.
//!
//! The benchmark calls the storage layers but implements none of them, so a
//! layer's cost is the difference between two runs of the same ops that
//! differ by that layer: `A0` scheme on `SimServer`; `A1` adds wire and
//! daemon; `A2` adds the durable store (in-process, on the timed VFS); `A3`
//! is the full path on the timed VFS. Crypto and codec calls are timed on
//! their own, at the sizes the workload moves.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use dps_crypto::{BlockCipher, ChaChaRng, CIPHERTEXT_OVERHEAD};
use dps_net::wire::{visit_cells, HEADER2_LEN};
use dps_net::{Request, Response};

use crate::backend::{quiesce, Backend};
use crate::json::Json;
use crate::measure;
use crate::run::{check_answers, metric, set_up, Measured, Metric, Outcome, Session};
use crate::vfs::Span;
use crate::workloads::{Scheme, Spec};

/// Op spans kept per configuration (the VFS probe has its own cap).
const MAX_OP_SPANS: usize = 100_000;

/// Median over a few rounds of the mean time of one call, in nanoseconds.
fn time_ns(mut call: impl FnMut()) -> f64 {
    const SAMPLES: usize = 7;
    const CALLS: usize = 2_000;
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                call();
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    measure::median(&mut samples)
}

/// `(encrypt, decrypt)` time of one cell whose ciphertext is `cell_len`
/// bytes.
fn crypto_ns_per_cell(cell_len: usize) -> (f64, f64) {
    let mut rng = ChaChaRng::seed_from_u64(0xc0de);
    let cipher = BlockCipher::generate(&mut rng);
    let plain = vec![0x5a; cell_len.saturating_sub(CIPHERTEXT_OVERHEAD)];
    let mut sealed = Vec::new();
    let encrypt = time_ns(|| cipher.encrypt_into(black_box(&plain), &mut sealed, &mut rng));
    let mut buf = Vec::with_capacity(sealed.len());
    let decrypt = time_ns(|| {
        buf.clear();
        buf.extend_from_slice(&sealed);
        cipher
            .decrypt_in_place(black_box(&mut buf))
            .expect("own ciphertext");
    });
    (encrypt, decrypt)
}

/// Codec time of the workload's two exchanges, a read and a write of
/// `batch` cells of `cell_len` bytes: `(encode, decode)` nanoseconds for
/// the request and the response of each, summed per exchange.
#[derive(Default)]
struct CodecTimes {
    read_encode: f64,
    read_decode: f64,
    write_encode: f64,
    write_decode: f64,
}

fn codec_times(batch: usize, cell_len: usize) -> CodecTimes {
    let addrs: Vec<usize> = (0..batch).map(|i| i * 977).collect();
    let cells = vec![vec![0xa5u8; cell_len]; batch];
    let read_req = Request::ReadBatch { addrs: addrs.clone() };
    let read_resp = Response::Cells(cells);
    let write_req = Request::WriteBatchStrided { addrs, flat: vec![0xa5; batch * cell_len] };
    let write_resp = Response::Ok;

    let framed = |r: Result<Vec<u8>, dps_net::WireError>| r.expect("frame under the size cap");
    let read_req_frame = framed(read_req.encode_framed_v2(1));
    let read_resp_frame = framed(read_resp.encode_framed_v2(1));
    let write_req_frame = framed(write_req.encode_framed_v2(1));
    let write_resp_frame = framed(write_resp.encode_framed_v2(1));
    CodecTimes {
        read_encode: time_ns(|| drop(black_box(read_req.encode_framed_v2(7))))
            + time_ns(|| drop(black_box(read_resp.encode_framed_v2(7)))),
        read_decode: time_ns(|| drop(black_box(Request::decode(&read_req_frame[HEADER2_LEN..]))))
            + time_ns(|| {
                let _ = visit_cells(&read_resp_frame[HEADER2_LEN..], |_, cell| {
                    black_box(cell);
                });
            }),
        write_encode: time_ns(|| drop(black_box(write_req.encode_framed_v2(7))))
            + time_ns(|| drop(black_box(write_resp.encode_framed_v2(7)))),
        write_decode: time_ns(|| drop(black_box(Request::decode(&write_req_frame[HEADER2_LEN..]))))
            + time_ns(|| drop(black_box(Response::decode(&write_resp_frame[HEADER2_LEN..])))),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, from the configurations' runs: `A0, A1, A2, A3,
/// full`, or `A0` alone for an in-process workload. There the scheme is the
/// whole path, every substitution is `A0` again, and the layers below the
/// scheme come out as zero.
fn layers(spec: &Spec, runs: &[Measured], out: &mut Outcome) -> Vec<Metric> {
    let problems = &mut out.problems;
    let [a0, a1, a2, a3, full] = match runs {
        [a0, a1, a2, a3, full] => [a0, a1, a2, a3, full],
        _ => [&runs[0]; 5],
    };
    let per_op = |m: &Measured, total: u64| total as f64 / m.phase.ops() as f64;
    let core_us = a0.phase.mean_us();

    // The workload's shape, read off the simulator's counters.
    let cells_down = per_op(a0, a0.stats.downloads);
    let cells_up = per_op(a0, a0.stats.uploads);
    let calls = per_op(a0, a0.stats.round_trips);
    let batch = ((cells_down + cells_up) / calls).round().max(1.0);
    let cell_len = ratio(a0.stats.bytes_down as f64, a0.stats.downloads as f64).round() as usize;

    // DP-IR stores plaintext. DP-RAM and the bucketed DP-RAM under DP-KVS
    // follow Algorithm 3: of the two cells downloaded per cell uploaded one
    // is decrypted (the other is a decoy, or fetched only to be overwritten)
    // and the uploaded one is encrypted.
    let (encrypt_ns, decrypt_ns) =
        if spec.scheme == Scheme::Ir { (0.0, 0.0) } else { crypto_ns_per_cell(cell_len) };
    let crypto_us = (encrypt_ns + decrypt_ns) * cells_up / 1e3;

    let mut metrics = vec![
        metric("core.self_us_per_op", "us", core_us),
        metric("core.storage_calls_per_op", "count", calls),
        metric("crypto.encrypt_ns_per_cell", "ns", encrypt_ns),
        metric("crypto.decrypt_ns_per_cell", "ns", decrypt_ns),
        metric("crypto.est_us_per_op", "us", crypto_us),
        metric("crypto.share_of_core", "ratio", ratio(crypto_us, core_us)),
    ];
    let net_us = a1.phase.mean_us() - core_us;
    let wire_rt = per_op(a3, a3.stats.wire_round_trips);
    let codec =
        if spec.durable { codec_times(batch as usize, cell_len) } else { CodecTimes::default() };
    let (read_rt, write_rt) = (cells_down / batch, cells_up / batch);
    let encode_us = (codec.read_encode * read_rt + codec.write_encode * write_rt) / 1e3;
    let decode_us = (codec.read_decode * read_rt + codec.write_decode * write_rt) / 1e3;
    let frames = 2.0 * (read_rt + write_rt);

    let vfs_us = |m: &Measured| {
        let v = &m.vfs;
        [v.fsync_ns, v.write_ns, v.read_ns].map(|ns| per_op(m, ns) / 1e3)
    };
    let store_us = a2.phase.mean_us() - core_us - vfs_us(a2).iter().sum::<f64>();
    let [fsync_us, write_us, read_us] = vfs_us(a3);
    let full_us = a3.phase.mean_us();
    let residual = full_us - (core_us + net_us + store_us + fsync_us + write_us + read_us);
    let untraced_us = full.phase.mean_us();

    let daemon = a3.daemon.unwrap_or_default();
    let cache_reads = a3.stats.cache_hits + a3.stats.cache_misses;
    let hit_ratio = ratio(a3.stats.cache_hits as f64, cache_reads as f64);
    let v = &a3.vfs;

    // What must hold on this path whatever the machine (the issue's
    // paper-metric sanity list).
    if spec.scheme == Scheme::Ir {
        if v.fsyncs != 0 {
            problems.push(format!("read-only workload made {} fsyncs", v.fsyncs));
        }
        if hit_ratio >= 0.2 {
            problems.push(format!("cache.hit_ratio {hit_ratio:.3} on a database 16x the cache"));
        }
    } else if a3.stats.cache_misses != 0 {
        problems.push(format!(
            "{} cache misses with the cache above the database",
            a3.stats.cache_misses
        ));
    }
    // Counters that read zero on a healthy run are checked or kept as
    // context, not reported as metrics.
    if daemon.protocol_errors != 0 {
        problems.push(format!("daemon counted {} protocol errors", daemon.protocol_errors));
    }
    out.detail
        .push(("daemon.read_stalls", Json::Int(daemon.read_stalls)));

    metrics.extend([
        metric("net.us_per_op", "us", net_us),
        metric("net.us_per_round_trip", "us", ratio(net_us, wire_rt)),
        metric("net.round_trips_per_op", "count", wire_rt),
        metric("net.wire_bytes_up_per_op", "bytes", per_op(a3, a3.stats.wire_bytes_up)),
        metric("net.wire_bytes_down_per_op", "bytes", per_op(a3, a3.stats.wire_bytes_down)),
        metric("wire.encode_ns_per_frame", "ns", ratio(encode_us * 1e3, frames)),
        metric("wire.decode_ns_per_frame", "ns", ratio(decode_us * 1e3, frames)),
        metric("wire.share_of_net", "ratio", ratio(encode_us + decode_us, net_us)),
        metric("daemon.connections", "count", daemon.connections as f64),
        metric("store.self_us_per_op", "us", store_us),
        metric("vfs.fsync_us_per_op", "us", fsync_us),
        metric("vfs.write_us_per_op", "us", write_us),
        metric("vfs.read_us_per_op", "us", read_us),
        metric("vfs.fsyncs_per_op", "count", per_op(a3, v.fsyncs)),
        metric("vfs.writes_per_op", "count", per_op(a3, v.writes)),
        metric("vfs.reads_per_op", "count", per_op(a3, v.reads)),
        metric("vfs.write_bytes_per_op", "bytes", per_op(a3, v.write_bytes)),
        metric("vfs.read_bytes_per_op", "bytes", per_op(a3, v.read_bytes)),
        metric("vfs.write_amp", "ratio", ratio(v.write_bytes as f64, a3.stats.bytes_up as f64)),
        metric("cache.hit_ratio", "ratio", hit_ratio),
        metric("cache.misses_per_op", "count", per_op(a3, a3.stats.cache_misses)),
        metric("cache.evictions_per_op", "count", per_op(a3, a3.stats.cache_evictions)),
        metric("trace.full_us_per_op", "us", full_us),
        metric("trace.untraced_us_per_op", "us", untraced_us),
        metric("trace.residual_us_per_op", "us", residual),
        metric("trace.coverage", "ratio", 1.0 - ratio(residual, full_us)),
        metric("trace.overhead_pct", "%", 100.0 * ratio(full_us - untraced_us, untraced_us)),
    ]);
    metrics
}

/// Rounds each configuration's measuring time is cut into. The
/// configurations take turns round by round, so that a slow spell of the
/// machine (a busy neighbour, a write-back burst) lands on all of them
/// alike and cancels in their differences.
const ROUNDS: u32 = 8;

/// The traced pass: the same ops under each configuration, the measuring
/// time shared equally between them.
pub fn traced(
    spec: &Spec,
    seed: u64,
    duration: Duration,
    scratch: &Path,
) -> Result<Outcome, String> {
    let configs: &[Backend] = if spec.durable {
        &[
            Backend::Sim,
            Backend::RemoteSim,
            Backend::Disk,
            Backend::Full { timed_vfs: true },
            Backend::Full { timed_vfs: false },
        ]
    } else {
        &[Backend::Sim]
    };
    let mut out = Outcome::default();
    let mut sessions = Vec::new();
    for &backend in configs {
        let ready = set_up(spec, backend, seed, scratch)?;
        out.failed += ready.warmup_failed;
        sessions.push(Session::begin(spec, backend, ready.rig));
    }
    quiesce(scratch)?;
    for _ in 0..ROUNDS {
        for session in &mut sessions {
            session.run(duration / (ROUNDS * configs.len() as u32));
        }
    }
    let mut runs: Vec<Measured> = sessions.into_iter().map(Session::finish).collect();
    for m in &runs {
        out.attempted += m.client_ops;
        out.failed += m.phase.failed;
        check_answers(spec, m, &mut out.problems);
    }
    out.metrics = layers(spec, &runs, &mut out);
    for m in &mut runs {
        let label = m.backend.label();
        let ops = m.phase.lat_ns.iter().zip(&m.phase.end_ns).take(MAX_OP_SPANS);
        let mut spans: Vec<Span> = ops
            .enumerate()
            .map(|(i, (&lat, &end))| Span {
                name: "op",
                start_ns: end - lat,
                end_ns: end,
                op: (spec.warmup_ops + i) as u64,
            })
            .collect();
        spans.append(&mut m.spans);
        out.detail.push((
            label,
            Json::obj([
                ("timed_ops", Json::Int(m.phase.ops())),
                ("mean_us", Json::Num(m.phase.mean_us())),
                ("spans", Json::Int(spans.len() as u64)),
            ]),
        ));
        out.spans.push((label, spans));
    }
    Ok(out)
}

/// Writes the spans one per line: an `op` span per benchmark op and
/// configuration, and under the timed VFS one span per file call, whose
/// parent is the `op` span of the same configuration and op id.
pub fn write_spans(
    path: &Path,
    workload: &str,
    spans: &[(&str, Vec<Span>)],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"workload\": {}, \"spans\": [", Json::str(workload))?;
    let mut first = true;
    for (config, spans) in spans {
        for s in spans {
            let parent = if s.name == "op" { "null" } else { "\"op\"" };
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                w,
                "{sep}{{\"config\": \"{config}\", \"name\": \"{}\", \"op\": {}, \"parent\": \
                 {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_timings_measure_something() {
        let (encrypt, decrypt) = crypto_ns_per_cell(284);
        assert!(encrypt > 0.0 && decrypt > 0.0);
        let small = codec_times(1, 284);
        let large = codec_times(16, 256);
        assert!(large.read_encode > small.read_encode, "16 cells cost more to frame than one");
        assert!(small.write_decode > 0.0 && small.read_decode > 0.0);
    }
}
