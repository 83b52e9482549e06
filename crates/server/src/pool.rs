//! A small std-only worker pool for deterministic batch fan-out.
//!
//! The parallel batch crypto helpers ([`crate::batch_crypto`]) split one
//! batch's work into independent chunks — per-cell encryptions — and run
//! the chunks on OS threads. Determinism is preserved by construction:
//! every chunk operates on disjoint data, all randomness is drawn up-front
//! on the caller thread, and [`WorkerPool::run`] returns results in task
//! order regardless of scheduling. No work-stealing, no shared queues: the
//! output of a pooled call is byte-identical to running the tasks in a
//! plain sequential loop.
//!
//! The pool is built on [`std::thread::scope`], so tasks may borrow from
//! the caller's stack (cell arenas, flat scratch buffers) without `Arc` or
//! copies. Threads are spawned per [`WorkerPool::run`] call; that cost is
//! a few microseconds, so callers hand it batches that are worth it and
//! keep small ones on a sequential pool.

/// A boxed unit of work handed to [`WorkerPool::run`].
pub type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

/// A fixed-width fan-out executor over OS threads.
///
/// `threads == 1` is the sequential identity: tasks run inline on the
/// caller thread in order, with no spawning. This makes thread-count
/// sweeps (`T ∈ {1, 4}`) trivially comparable — the `T = 1` column *is*
/// the sequential baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::single()
    }
}

impl WorkerPool {
    /// A pool fanning work across up to `threads` OS threads (clamped to at
    /// least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The sequential pool: everything runs inline on the caller thread.
    pub fn single() -> Self {
        Self { threads: 1 }
    }

    /// Maximum number of threads a [`WorkerPool::run`] call will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True if this pool never spawns (all work runs inline).
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Runs `tasks`, returning their results in task order.
    ///
    /// Tasks are distributed in contiguous runs (task `i` goes to worker
    /// `i / ceil(len / workers)`), so a caller that orders tasks by data
    /// locality keeps that locality per thread. The first run executes on
    /// the caller thread itself (spawning only `workers - 1` OS threads);
    /// results are concatenated in worker order, which equals task order.
    ///
    /// # Panics
    /// Propagates a panic from any task (after all workers have finished).
    pub fn run<'env, T: Send>(&self, mut tasks: Vec<Task<'env, T>>) -> Vec<T> {
        if self.threads <= 1 || tasks.len() <= 1 {
            return tasks.into_iter().map(|task| task()).collect();
        }
        let workers = self.threads.min(tasks.len());
        let per_worker = tasks.len().div_ceil(workers);
        let mut chunks: Vec<Vec<Task<'env, T>>> = Vec::with_capacity(workers);
        while !tasks.is_empty() {
            chunks.push(tasks.drain(..per_worker.min(tasks.len())).collect());
        }
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("at least one chunk");
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .map(|chunk| {
                    scope.spawn(move || chunk.into_iter().map(|task| task()).collect::<Vec<T>>())
                })
                .collect();
            let mut out: Vec<T> = first.into_iter().map(|task| task()).collect();
            for handle in handles {
                match handle.join() {
                    Ok(results) => out.extend(results),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        })
    }
}

/// Splits `len` items into at most `parts` contiguous ranges of
/// near-equal size (the first ranges are one longer when `len` does not
/// divide evenly). Returns no empty ranges; an empty input yields no
/// ranges at all.
pub fn split_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

/// Like [`split_ranges`], but every range boundary except the final end
/// is a multiple of `align`: `len` items split into at most `parts`
/// contiguous ranges whose starts are `align`-aligned (the last range
/// absorbs the remainder). Batch crypto chunks cells this way so a
/// worker's chunk never fragments a full wide-lane group — with
/// `align = 8`, every chunk but the last is a whole number of 8-cell
/// SIMD passes.
pub fn split_ranges_aligned(len: usize, parts: usize, align: usize) -> Vec<std::ops::Range<usize>> {
    let align = align.max(1);
    split_ranges(len.div_ceil(align), parts)
        .into_iter()
        .map(|r| (r.start * align)..(r.end * align).min(len))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_task_order() {
        for threads in [1usize, 2, 4, 9] {
            let pool = WorkerPool::new(threads);
            let tasks: Vec<Task<'_, usize>> = (0..17usize)
                .map(|i| Box::new(move || i * i) as Task<'_, usize>)
                .collect();
            let got = pool.run(tasks);
            let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn tasks_may_borrow_caller_data() {
        let data: Vec<u64> = (0..100).collect();
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, u64>> = split_ranges(data.len(), 4)
            .into_iter()
            .map(|r| {
                let slice = &data[r];
                Box::new(move || slice.iter().sum::<u64>()) as Task<'_, u64>
            })
            .collect();
        assert_eq!(pool.run(tasks).iter().sum::<u64>(), (0..100).sum::<u64>());
    }

    #[test]
    fn tasks_may_mutate_disjoint_chunks() {
        let mut data = [0u8; 64];
        let pool = WorkerPool::new(3);
        let tasks: Vec<Task<'_, ()>> = data
            .chunks_mut(16)
            .enumerate()
            .map(|(i, chunk)| Box::new(move || chunk.fill(i as u8 + 1)) as Task<'_, ()>)
            .collect();
        pool.run(tasks);
        for (i, chunk) in data.chunks(16).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8 + 1));
        }
    }

    #[test]
    fn zero_threads_clamps_to_sequential() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_sequential());
    }

    #[test]
    fn empty_task_list_is_fine() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<'_, u8>> = Vec::new();
        assert!(pool.run(tasks).is_empty());
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (len, parts) in [(0usize, 3usize), (1, 3), (7, 3), (9, 3), (10, 1), (5, 8)] {
            let ranges = split_ranges(len, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "len {len} parts {parts}");
                assert!(r.end > r.start, "no empty ranges");
                next = r.end;
            }
            assert_eq!(next, len, "len {len} parts {parts}");
            assert!(ranges.len() <= parts.max(1).min(len.max(1)));
        }
    }

    #[test]
    fn split_ranges_aligned_covers_exactly_on_boundaries() {
        for (len, parts, align) in [
            (0usize, 3usize, 8usize),
            (5, 3, 8),
            (8, 3, 8),
            (17, 2, 8),
            (24, 3, 8),
            (100, 4, 8),
            (100, 4, 4),
            (7, 4, 1),
            (9, 16, 8),
        ] {
            let ranges = split_ranges_aligned(len, parts, align);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "len {len} parts {parts} align {align}");
                assert!(r.end > r.start, "no empty ranges");
                assert_eq!(r.start % align, 0, "chunk starts on a lane-group boundary");
                next = r.end;
            }
            assert_eq!(next, len, "len {len} parts {parts} align {align}");
            assert!(ranges.len() <= parts);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Task<'_, ()>> = (0..4)
            .map(|i| Box::new(move || assert!(i < 3, "boom")) as Task<'_, ()>)
            .collect();
        pool.run(tasks);
    }
}
