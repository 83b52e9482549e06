//! Deterministic parallel batch crypto over the worker pool.
//!
//! A scheme that re-encrypts a batch of cells does three separable things:
//! draw per-cell randomness, transform bytes, and write results into a
//! flat strided scratch buffer (the shape
//! [`Storage::write_batch_strided`](crate::Storage::write_batch_strided)
//! consumes). Only the byte
//! transformation is compute-heavy, and every cell is independent — so
//! these helpers draw **all randomness up-front on the caller thread**
//! ([`ChaChaRng::draw_nonces`]) and fan the per-cell work across a
//! [`WorkerPool`] in contiguous chunks. The output is byte-identical to
//! the sequential loop for every pool width and chunking, which the
//! `parallel_crypto` test suite pins against `encrypt_into` /
//! `decrypt_in_place` / `seal_into` / `open_in_place` for every cipher.
//!
//! Each worker chunk runs the **wide** batch entry points
//! ([`BlockCipher::encrypt_batch_with_nonces`],
//! [`AeadCipher::seal_batch_with_nonces`], [`poly1305::poly1305_batch`]),
//! so intra-chunk crypto is SIMD-wide even on a sequential pool — the
//! single-core speedup compounds with thread fan-out instead of competing
//! with it. Chunk boundaries are aligned to [`chacha::WIDE_LANES`] (the
//! widest lane count any dispatch tier permutes per pass) so fan-out never
//! fragments a full 8-lane AVX2 group into narrower remainder passes, and
//! the fan-out itself is clamped to the machine's available parallelism —
//! a pool wider than the core count only adds spawn and scheduling
//! overhead to compute-bound work.
//!
//! Decryption reports the error of the **lowest-indexed** failing cell, so
//! error behavior is also independent of thread interleaving.

use dps_crypto::chacha;
use dps_crypto::poly1305;
use dps_crypto::{AeadCipher, BlockCipher, CryptoError, Nonce, AEAD_OVERHEAD, CIPHERTEXT_OVERHEAD};

use crate::pool::{split_ranges_aligned, Task, WorkerPool};

/// The number of worker threads a batch call actually fans out to: the
/// pool's width clamped to [`std::thread::available_parallelism`].
/// Batch crypto is compute-bound, so threads beyond the core count can
/// only time-slice against each other — the BENCH_8 `par_encrypt_batch`
/// rows showed per-cell cost *rising* with pool width on a 1-core box
/// before this clamp.
fn effective_threads(pool: &WorkerPool) -> usize {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
    pool.threads().min(cores)
}

/// Cell-range chunking shared by every batch helper: at most
/// [`effective_threads`] contiguous chunks, each starting on a
/// [`chacha::WIDE_LANES`] boundary.
fn cell_chunks(pool: &WorkerPool, cells: usize) -> Vec<std::ops::Range<usize>> {
    split_ranges_aligned(cells, effective_threads(pool), chacha::WIDE_LANES)
}

/// Splits `flat` into one `&mut` chunk per range of `ranges` (ranges are in
/// cell units; `stride` converts to bytes).
fn chunk_flat<'a>(
    mut flat: &'a mut [u8],
    ranges: &[std::ops::Range<usize>],
    stride: usize,
) -> Vec<&'a mut [u8]> {
    let mut chunks = Vec::with_capacity(ranges.len());
    for range in ranges {
        let bytes = (range.end - range.start) * stride;
        let (head, tail) = flat.split_at_mut(bytes);
        chunks.push(head);
        flat = tail;
    }
    chunks
}

/// Encrypts `cells` equal-length plaintexts packed in `plaintexts` into
/// equal-length ciphertext slots of `out`, one pre-drawn nonce per cell.
/// Byte-identical to calling [`BlockCipher::encrypt_into`] per cell with
/// the RNG the nonces were drawn from.
///
/// # Panics
/// Panics if `plaintexts.len()` is not `nonces.len()` plaintext strides, or
/// `out.len()` is not `nonces.len() * (stride + CIPHERTEXT_OVERHEAD)`.
pub fn encrypt_batch_strided(
    pool: &WorkerPool,
    cipher: &BlockCipher,
    nonces: &[Nonce],
    plaintexts: &[u8],
    out: &mut [u8],
) {
    let cells = nonces.len();
    if cells == 0 {
        assert!(plaintexts.is_empty() && out.is_empty(), "bytes without nonces");
        return;
    }
    assert_eq!(plaintexts.len() % cells, 0, "plaintext length not a multiple of cell count");
    let pt_stride = plaintexts.len() / cells;
    let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
    assert_eq!(out.len(), cells * ct_stride, "output must hold every ciphertext");

    let ranges = cell_chunks(pool, cells);
    let out_chunks = chunk_flat(out, &ranges, ct_stride);
    let tasks: Vec<Task<'_, ()>> = ranges
        .iter()
        .zip(out_chunks)
        .map(|(range, out_chunk)| {
            let range = range.clone();
            Box::new(move || {
                cipher.encrypt_batch_with_nonces(
                    &nonces[range.clone()],
                    &plaintexts[range.start * pt_stride..range.end * pt_stride],
                    out_chunk,
                );
            }) as Task<'_, ()>
        })
        .collect();
    pool.run(tasks);
}

/// Decrypts `cells` equal-length ciphertexts packed in `ciphertexts` into
/// the plaintext slots of `out`. On failure, returns the error of the
/// lowest-indexed bad cell (deterministic under any pool width); the
/// contents of `out` are then unspecified.
///
/// # Panics
/// Panics if the flat lengths are inconsistent with `cells`, or the
/// ciphertext stride is shorter than `CIPHERTEXT_OVERHEAD`.
pub fn decrypt_batch_strided(
    pool: &WorkerPool,
    cipher: &BlockCipher,
    ciphertexts: &[u8],
    cells: usize,
    out: &mut [u8],
) -> Result<(), CryptoError> {
    if cells == 0 {
        assert!(ciphertexts.is_empty() && out.is_empty(), "bytes without cells");
        return Ok(());
    }
    assert_eq!(ciphertexts.len() % cells, 0, "ciphertext length not a multiple of cell count");
    let ct_stride = ciphertexts.len() / cells;
    assert!(ct_stride >= CIPHERTEXT_OVERHEAD, "cells shorter than the ciphertext overhead");
    let pt_stride = ct_stride - CIPHERTEXT_OVERHEAD;
    assert_eq!(out.len(), cells * pt_stride, "output must hold every plaintext");

    let ranges = cell_chunks(pool, cells);
    let out_chunks = chunk_flat(out, &ranges, pt_stride);
    let tasks: Vec<Task<'_, Result<(), CryptoError>>> = ranges
        .iter()
        .zip(out_chunks)
        .map(|(range, out_chunk)| {
            let range = range.clone();
            Box::new(move || {
                cipher.decrypt_batch_to_slices(
                    &ciphertexts[range.start * ct_stride..range.end * ct_stride],
                    range.end - range.start,
                    out_chunk,
                )
            }) as Task<'_, Result<(), CryptoError>>
        })
        .collect();
    // Chunks are contiguous, each chunk reports its lowest-indexed cell
    // error, and results are in task order — so the first chunk error is
    // the lowest-indexed cell error overall.
    pool.run(tasks).into_iter().collect()
}

/// Seals `cells` equal-length plaintexts with per-cell associated data
/// (`aads[i]`, e.g. [`dps_crypto::aead::address_aad`]) into the slots of
/// `out`. Byte-identical to a sequential [`AeadCipher::seal_into`] loop.
///
/// # Panics
/// Panics on inconsistent flat lengths or `aads.len() != nonces.len()`.
pub fn seal_batch_strided(
    pool: &WorkerPool,
    cipher: &AeadCipher,
    nonces: &[Nonce],
    aads: &[[u8; 16]],
    plaintexts: &[u8],
    out: &mut [u8],
) {
    let cells = nonces.len();
    assert_eq!(aads.len(), cells, "one aad per cell");
    if cells == 0 {
        assert!(plaintexts.is_empty() && out.is_empty(), "bytes without nonces");
        return;
    }
    assert_eq!(plaintexts.len() % cells, 0, "plaintext length not a multiple of cell count");
    let pt_stride = plaintexts.len() / cells;
    let ct_stride = pt_stride + AEAD_OVERHEAD;
    assert_eq!(out.len(), cells * ct_stride, "output must hold every ciphertext");

    let ranges = cell_chunks(pool, cells);
    let out_chunks = chunk_flat(out, &ranges, ct_stride);
    let tasks: Vec<Task<'_, ()>> = ranges
        .iter()
        .zip(out_chunks)
        .map(|(range, out_chunk)| {
            let range = range.clone();
            Box::new(move || {
                cipher.seal_batch_with_nonces(
                    &nonces[range.clone()],
                    &aads[range.clone()],
                    &plaintexts[range.start * pt_stride..range.end * pt_stride],
                    out_chunk,
                );
            }) as Task<'_, ()>
        })
        .collect();
    pool.run(tasks);
}

/// Opens `cells` sealed ciphertexts with per-cell associated data into the
/// plaintext slots of `out`. Returns the lowest-indexed cell's error on
/// failure (deterministic under any pool width).
///
/// # Panics
/// Panics on inconsistent flat lengths or a stride shorter than
/// `AEAD_OVERHEAD`.
pub fn open_batch_strided(
    pool: &WorkerPool,
    cipher: &AeadCipher,
    aads: &[[u8; 16]],
    ciphertexts: &[u8],
    out: &mut [u8],
) -> Result<(), CryptoError> {
    let cells = aads.len();
    if cells == 0 {
        assert!(ciphertexts.is_empty() && out.is_empty(), "bytes without cells");
        return Ok(());
    }
    assert_eq!(ciphertexts.len() % cells, 0, "ciphertext length not a multiple of cell count");
    let ct_stride = ciphertexts.len() / cells;
    assert!(ct_stride >= AEAD_OVERHEAD, "cells shorter than the AEAD overhead");
    let pt_stride = ct_stride - AEAD_OVERHEAD;
    assert_eq!(out.len(), cells * pt_stride, "output must hold every plaintext");

    let ranges = cell_chunks(pool, cells);
    let out_chunks = chunk_flat(out, &ranges, pt_stride);
    let tasks: Vec<Task<'_, Result<(), CryptoError>>> = ranges
        .iter()
        .zip(out_chunks)
        .map(|(range, out_chunk)| {
            let range = range.clone();
            Box::new(move || {
                cipher.open_batch_to_slices(
                    &aads[range.clone()],
                    &ciphertexts[range.start * ct_stride..range.end * ct_stride],
                    out_chunk,
                )
            }) as Task<'_, Result<(), CryptoError>>
        })
        .collect();
    pool.run(tasks).into_iter().collect()
}

/// Computes one Poly1305 tag per message under per-cell one-time keys,
/// fanned across the pool. `messages` holds `keys.len()` equal-length
/// messages back-to-back; tag `i` lands in `tags[i]`. Identical to a
/// sequential [`Poly1305`] loop.
///
/// # Panics
/// Panics on inconsistent flat lengths.
pub fn poly1305_batch_strided(
    pool: &WorkerPool,
    keys: &[[u8; poly1305::KEY_LEN]],
    messages: &[u8],
    tags: &mut [[u8; poly1305::TAG_LEN]],
) {
    let cells = keys.len();
    assert_eq!(tags.len(), cells, "one tag slot per key");
    if cells == 0 {
        assert!(messages.is_empty(), "bytes without keys");
        return;
    }
    assert_eq!(messages.len() % cells, 0, "message length not a multiple of cell count");
    let stride = messages.len() / cells;

    let ranges = cell_chunks(pool, cells);
    let mut tag_chunks: Vec<&mut [[u8; poly1305::TAG_LEN]]> = Vec::with_capacity(ranges.len());
    let mut rest = tags;
    for range in &ranges {
        let (head, tail) = rest.split_at_mut(range.end - range.start);
        tag_chunks.push(head);
        rest = tail;
    }
    let tasks: Vec<Task<'_, ()>> = ranges
        .iter()
        .zip(tag_chunks)
        .map(|(range, tag_chunk)| {
            let range = range.clone();
            Box::new(move || {
                poly1305::poly1305_batch(
                    &keys[range.clone()],
                    &messages[range.start * stride..range.end * stride],
                    stride,
                    stride,
                    tag_chunk,
                );
            }) as Task<'_, ()>
        })
        .collect();
    pool.run(tasks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_crypto::ChaChaRng;

    #[test]
    fn empty_batches_are_noops() {
        let pool = WorkerPool::new(4);
        let mut rng = ChaChaRng::seed_from_u64(1);
        let cipher = BlockCipher::generate(&mut rng);
        encrypt_batch_strided(&pool, &cipher, &[], &[], &mut []);
        assert!(decrypt_batch_strided(&pool, &cipher, &[], 0, &mut []).is_ok());
        let aead = AeadCipher::generate(&mut rng);
        seal_batch_strided(&pool, &aead, &[], &[], &[], &mut []);
        assert!(open_batch_strided(&pool, &aead, &[], &[], &mut []).is_ok());
        poly1305_batch_strided(&pool, &[], &[], &mut []);
    }

    #[test]
    fn round_trips_across_pool_widths() {
        let mut rng = ChaChaRng::seed_from_u64(2);
        let cipher = BlockCipher::generate(&mut rng);
        let cells = 10;
        let pt_stride = 33;
        let plaintexts: Vec<u8> = (0..cells * pt_stride).map(|i| (i % 251) as u8).collect();
        for threads in [1usize, 2, 5] {
            let pool = WorkerPool::new(threads);
            let nonces = rng.draw_nonces(cells);
            let mut cts = vec![0u8; cells * (pt_stride + CIPHERTEXT_OVERHEAD)];
            encrypt_batch_strided(&pool, &cipher, &nonces, &plaintexts, &mut cts);
            let mut back = vec![0u8; cells * pt_stride];
            decrypt_batch_strided(&pool, &cipher, &cts, cells, &mut back).unwrap();
            assert_eq!(back, plaintexts, "threads = {threads}");
        }
    }

    #[test]
    fn corruption_reports_lowest_failing_cell_error() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        let cipher = BlockCipher::generate(&mut rng);
        let cells = 8;
        let pt_stride = 16;
        let plaintexts = vec![7u8; cells * pt_stride];
        let nonces = rng.draw_nonces(cells);
        let ct_stride = pt_stride + CIPHERTEXT_OVERHEAD;
        let mut cts = vec![0u8; cells * ct_stride];
        encrypt_batch_strided(&WorkerPool::single(), &cipher, &nonces, &plaintexts, &mut cts);
        cts[3 * ct_stride + 5] ^= 1; // corrupt cell 3
        let mut out = vec![0u8; cells * pt_stride];
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            assert_eq!(
                decrypt_batch_strided(&pool, &cipher, &cts, cells, &mut out),
                Err(CryptoError::TagMismatch),
                "threads = {threads}"
            );
        }
    }
}
