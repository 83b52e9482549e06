//! Allocation budgets of a DP-KVS operation and a DP-IR query, counted by a process-wide
//! allocator.
//!
//! **A flight does not materialise**: the four bucket queries of an
//! operation gather, edit and read their node cells in the flight's arena
//! (`bucket_ram.rs`); `DpKvs` finds its key, counts loads and applies its
//! one edit on the encoded node bytes where they lie; the upload's nonces
//! are drawn into the scratch; and a bucket the stash coin puts in the
//! stash takes the copies an earlier one let go of. What is left is the
//! value a `get` that hits returns — one allocator call — and nothing for
//! a miss or a `put`. A `Vec<Vec<u8>>` of cells, a decoded `Vec<Slot>` or a
//! per-flight nonce `Vec` that grows back shows up here as a count (20 or
//! more an operation), not as a timing.
//!
//! **A DP-IR query is a batch of one**: it draws its download set into the
//! client's sorted scratch and reads the union's cells where the server
//! lends them, so a hit allocates the record it returns and a miss
//! nothing. A `BTreeSet` union, an address copy or a results `Vec` on the
//! single-query path shows up here as a count.
//!
//! No count depends on the cipher's lane width: CI's ISA leg runs this
//! file on all three `DPS_FORCE_ISA` tiers against the same numbers.
//!
//! Its own test binary, with one test, because the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dps_core::dp_ir::{DpIr, DpIrConfig};
use dps_core::dp_kvs::{DpKvs, DpKvsConfig};
use dps_crypto::ChaChaRng;
use dps_server::SimServer;

/// Calls that hand out or move memory (`alloc`, `alloc_zeroed`,
/// `realloc`); frees are not counted.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed atomic and
// touches no memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const KEYS: u64 = 4096;
const VALUE: usize = 64;
const OPS: u64 = 2_000;

/// Allocator calls of `OPS` operations, and the most any one of them made.
fn count(mut op: impl FnMut(u64)) -> (u64, u64) {
    let (mut total, mut most) = (0, 0);
    for i in 0..OPS {
        let before = CALLS.load(Ordering::Relaxed);
        op(i);
        let calls = CALLS.load(Ordering::Relaxed) - before;
        total += calls;
        most = most.max(calls);
    }
    (total, most)
}

#[test]
fn a_steady_state_operation_allocates_its_result_and_nothing_else() {
    let mut rng = ChaChaRng::seed_from_u64(21);
    let config = DpKvsConfig::recommended(1 << 13, VALUE);
    let mut kvs = DpKvs::setup(config, SimServer::new(), &mut rng).unwrap();
    let key = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in 0..KEYS {
        kvs.put(key(i), vec![i as u8; VALUE], &mut rng).unwrap();
    }
    // Warm-up: the flight's buffers, the stash maps and the spare client
    // copies reach their size.
    for i in 0..KEYS {
        kvs.get(key(i), &mut rng).unwrap();
    }

    // Half hits, half misses.
    let mut hits = 0;
    let (gets, most_get) = count(|i| {
        let found = kvs.get(key(i * 7 % (2 * KEYS)), &mut rng).unwrap();
        hits += u64::from(found.is_some());
    });
    // The value a `put` is handed is the caller's allocation, made here
    // outside the count.
    let mut values: Vec<Vec<u8>> = (0..OPS).map(|i| vec![i as u8; VALUE]).collect();
    let (puts, most_put) = count(|i| {
        let value = std::mem::take(&mut values[i as usize]);
        kvs.put(key(i * 5 % KEYS), value, &mut rng).unwrap();
    });
    println!(
        "allocator calls over {OPS} gets ({hits} hits): {gets}, most {most_get}; \
         over {OPS} puts: {puts}, most {most_put}"
    );
    // The slack is for the stash's hash maps, which may grow at a point
    // that depends on the process's hash seed; one `Vec` an operation is
    // `OPS` calls.
    assert!(hits > OPS / 3 && hits < OPS);
    assert!(gets >= hits && gets - hits <= OPS / 100, "{gets} calls for {hits} hits");
    assert!(puts <= OPS / 100, "{puts} calls");
    assert!(most_get <= 2 && most_put <= 1, "most: get {most_get}, put {most_put}");

    // DP-IR at `ir_cold`'s K: every hit allocates its record, so the total
    // equals the hits only if a hit makes exactly one call and a miss none.
    let records: Vec<Vec<u8>> = (0..KEYS).map(|i| vec![i as u8; VALUE]).collect();
    let config = DpIrConfig::with_download_count(KEYS as usize, 16, 0.25).unwrap();
    let mut ir = DpIr::setup(config, &records, SimServer::new()).unwrap();
    // Warm-up: the scratch reaches its size.
    for i in 0..64 {
        ir.query(i, &mut rng).unwrap();
    }
    let mut hits = 0;
    let (queries, most_query) = count(|i| {
        let index = (i * 7 % KEYS) as usize;
        if let Some(record) = ir.query(index, &mut rng).unwrap() {
            assert_eq!(record, records[index]);
            hits += 1;
        }
    });
    println!(
        "allocator calls over {OPS} DP-IR queries ({hits} hits): {queries}, most {most_query}"
    );
    assert!(hits > OPS / 2 && hits < OPS);
    assert!(queries == hits && most_query == 1, "{queries} calls for {hits} hits");
}
