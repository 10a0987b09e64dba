//! A std-only scoped thread pool with a *deterministic* data-parallel
//! surface: [`par_map`] and [`par_map_range`].
//!
//! The whole workspace promises that every artifact is a pure function of
//! the seed (`tests/determinism.rs`), so parallelism must never leak
//! scheduling order into results. Two rules make the output bit-identical
//! regardless of thread count:
//!
//! 1. **Static chunking** — work items are grouped into fixed-size chunks
//!    whose boundaries depend only on the input length (never on
//!    `IOTLAN_THREADS` or core count). Threads *claim* chunks dynamically,
//!    but a chunk's contents and identity are scheduling-independent.
//! 2. **Ordered results** — mapped results land in pre-assigned slots
//!    and come back in input order, so a caller that folds them (even
//!    non-commutatively, as string concatenation does) gets the same
//!    result at any thread count.
//!
//! A closure that needs randomness seeds a generator from its item's
//! index (`Rng::stream(seed, index)`), never from one shared across items.
//!
//! Thread count resolves, in priority order: the [`with_threads`] override
//! (scoped, test/bench-friendly), the `IOTLAN_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. `IOTLAN_THREADS=1`
//! runs everything inline on the calling thread — the serial reference the
//! equivalence suite compares against.
//!
//! The pool also keeps per-slot chunk/task/steal/busy totals ([`stats`]),
//! merged once per worker per region, for run manifests. Task counts are
//! conserved (sum over workers == items mapped) at any thread count; the
//! per-slot *split* is scheduling-dependent and reported as host-volatile
//! data only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Scoped thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] scopes so concurrently running tests cannot
/// observe each other's overrides.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Upper bound on chunk count, so tiny per-item workloads over huge inputs
/// don't drown in per-chunk bookkeeping.
const MAX_CHUNKS: usize = 1024;

/// The worker count [`par_map`] and friends will use right now.
pub fn thread_count() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::Acquire);
    if overridden > 0 {
        return overridden;
    }
    if let Ok(raw) = std::env::var("IOTLAN_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the pool's thread count pinned to `threads`.
///
/// Scopes are serialized through a global lock so parallel test binaries
/// can each compare `with_threads(1, …)` against `with_threads(8, …)`
/// without racing on the override. The override is restored even when `f`
/// panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "thread count must be positive");
    let _scope: MutexGuard<'_, ()> = match OVERRIDE_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Release);
        }
    }
    let previous = THREAD_OVERRIDE.swap(threads, Ordering::AcqRel);
    let _restore = Restore(previous);
    f()
}

// ---------------------------------------------------------------------------
// Worker accounting: who did how much work, and how it was claimed.

/// Cumulative per-worker-slot accounting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Chunks this worker slot claimed.
    pub chunks: u64,
    /// Items (tasks) this worker slot executed.
    pub tasks: u64,
    /// Chunks claimed out of round-robin order — chunk `i` "belongs" to
    /// slot `i % workers`; claiming someone else's chunk is a steal.
    pub steals: u64,
    /// Wall-clock nanoseconds spent executing chunks (not parked).
    pub busy_nanos: u64,
}

impl WorkerStats {
    fn absorb(&mut self, other: &WorkerStats) {
        self.chunks += other.chunks;
        self.tasks += other.tasks;
        self.steals += other.steals;
        self.busy_nanos += other.busy_nanos;
    }
}

/// Cumulative pool accounting since process start (or the last
/// [`reset_stats`]). Indexed by worker *slot*, not OS thread: slot `w` of a
/// 4-worker region and slot `w` of a later 8-worker region accumulate into
/// the same entry.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel regions executed (every `par_map*` call is one region,
    /// including ones that ran inline).
    pub regions: u64,
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    pub fn total_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.chunks).sum()
    }

    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    pub fn total_busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }

    fn absorb_slot(&mut self, slot: usize, stats: &WorkerStats) {
        if self.workers.len() <= slot {
            self.workers.resize(slot + 1, WorkerStats::default());
        }
        self.workers[slot].absorb(stats);
    }
}

static STATS: Mutex<PoolStats> = Mutex::new(PoolStats {
    regions: 0,
    workers: Vec::new(),
});

fn stats_lock() -> MutexGuard<'static, PoolStats> {
    match STATS.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Snapshot the cumulative worker accounting.
pub fn stats() -> PoolStats {
    stats_lock().clone()
}

/// Zero the cumulative worker accounting.
pub fn reset_stats() {
    *stats_lock() = PoolStats::default();
}

/// Count one parallel region (called once per `par_map_range`, on the
/// caller).
fn note_region() {
    stats_lock().regions += 1;
}

/// Merge one worker slot's region stats into the cumulative accounting.
/// Each worker merges exactly once, after its claim loop ends, so the
/// mutex is touched O(workers) times per region — never per item.
fn merge_worker_stats(slot: usize, worker: &WorkerStats) {
    stats_lock().absorb_slot(slot, worker);
}

/// Chunk size for an input of `len` items: a pure function of `len` —
/// never of the thread count, or chunk boundaries would move with it.
///
/// Inputs of up to [`MAX_CHUNKS`] items get single-item chunks, so every
/// item can be claimed by an idle worker on its own. Larger inputs
/// (households, flows) grow chunks just enough to bound per-chunk claim
/// overhead at [`MAX_CHUNKS`].
fn chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(1)
}

/// Number of chunks a `len`-item region schedules — like [`chunk_size`], a
/// pure function of the length, never the thread count. Exposed so the
/// worker-accounting invariants (chunk conservation across workers) can be
/// asserted externally.
pub fn chunk_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.div_ceil(chunk_size(len))
    }
}

/// `f(0), f(1), …, f(n-1)` evaluated across the pool, results in index
/// order. Bit-identical to the serial loop for every thread count.
///
/// A panic in any invocation of `f` propagates to the caller (the scope
/// join re-raises it) — workers never swallow failures.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = thread_count();
    let chunk = chunk_size(n);
    note_region();
    if threads <= 1 || n <= chunk {
        // Inline path: every item in order on the caller, all chunks
        // credited to worker slot 0.
        let started = Instant::now();
        let results = (0..n).map(&f).collect();
        let worker = WorkerStats {
            chunks: chunk_count(n) as u64,
            tasks: n as u64,
            steals: 0,
            busy_nanos: started.elapsed().as_nanos() as u64,
        };
        merge_worker_stats(0, &worker);
        return results;
    }

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        // Hand each chunk of the output vector to whichever worker claims
        // its index; the Mutex is uncontended (one claimant per chunk) and
        // exists only to move the `&mut` slice across threads safely.
        let slots: Vec<Mutex<&mut [Option<R>]>> =
            results.chunks_mut(chunk).map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let workers = threads.min(slots.len());
        std::thread::scope(|scope| {
            for worker_slot in 0..workers {
                let slots = &slots;
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut worker = WorkerStats::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(index) else { break };
                        let mut guard = match slot.lock() {
                            Ok(guard) => guard,
                            // A sibling worker panicked while holding nothing of
                            // ours; poisoning is irrelevant to the slice.
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        let started = Instant::now();
                        let base = index * chunk;
                        for (offset, out) in guard.iter_mut().enumerate() {
                            *out = Some(f(base + offset));
                        }
                        worker.chunks += 1;
                        worker.tasks += guard.len() as u64;
                        if index % workers != worker_slot {
                            worker.steals += 1;
                        }
                        worker.busy_nanos += started.elapsed().as_nanos() as u64;
                    }
                    merge_worker_stats(worker_slot, &worker);
                });
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("pool: chunk left a result slot empty"))
        .collect()
}

/// Map `f` over a slice across the pool; output order == input order.
/// Results may borrow from the input slice.
pub fn par_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &'a T) -> R + Sync,
{
    par_map_range(items.len(), |index| f(index, &items[index]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_range_matches_serial() {
        let serial: Vec<u64> = (0..5000).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = with_threads(threads, || {
                par_map_range(5000, |i| (i as u64).wrapping_mul(0x9e37))
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<String> = (0..500).map(|i| format!("item-{i}")).collect();
        let out = with_threads(4, || par_map(&items, |i, s| format!("{i}:{s}")));
        for (i, s) in out.iter().enumerate() {
            assert_eq!(s, &format!("{i}:item-{i}"));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(par_map_range(0, |i| i).is_empty());
        assert_eq!(par_map_range(1, |i| i + 7), vec![7]);
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, |_, v: &u8| *v).is_empty());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_range(200, |i| {
                    if i == 137 {
                        panic!("boom at {i}");
                    }
                    i
                })
            })
        });
        assert!(
            result.is_err(),
            "panic inside a worker must reach the caller"
        );
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let _ = std::panic::catch_unwind(|| with_threads(3, || panic!("x")));
        // Read under the scope lock: another test's open scope would show
        // its own override.
        let _scope = OVERRIDE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(THREAD_OVERRIDE.load(Ordering::Acquire), 0);
    }

    #[test]
    fn worker_stats_conserve_tasks() {
        for threads in [1, 3, 8] {
            with_threads(threads, || {
                reset_stats();
                let _ = par_map_range(5000, |i| i);
                let stats = stats();
                assert_eq!(stats.regions, 1);
                assert_eq!(stats.total_tasks(), 5000, "threads={threads}");
                assert_eq!(
                    stats.total_chunks(),
                    5000u64.div_ceil(chunk_size(5000) as u64),
                    "threads={threads}"
                );
                assert!(stats.workers.len() <= threads.max(1));
            });
        }
    }

    #[test]
    fn chunking_is_a_function_of_length_only() {
        for len in [0usize, 1, 15, 16, 17, 1000, 100_000] {
            let a = chunk_size(len);
            let b = with_threads(7, || chunk_size(len));
            assert_eq!(a, b);
            assert!(a >= 1);
        }
        // Large inputs cap the chunk count.
        assert!(2_000_000usize.div_ceil(chunk_size(2_000_000)) <= MAX_CHUNKS);
    }
}
