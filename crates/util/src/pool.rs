//! A std-only scoped thread pool with a *deterministic* data-parallel
//! surface: [`par_map`], [`par_map_range`] and [`par_map_reduce`].
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
//! 2. **Ordered reduction** — mapped results land in pre-assigned slots
//!    and are reduced strictly in input order, so even non-commutative
//!    reductions (string concatenation, confusion-matrix tallies) are
//!    stable.
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
//! Two observability primitives ride on the same structure (DESIGN.md §9):
//!
//! * **Lanes** — every chunk executes inside a deterministic
//!   `(region, slot)` lane ([`current_lane`]/[`lane_next_seq`]); telemetry
//!   records tagged with `(lane, seq)` sort into one canonical order that
//!   is independent of the thread count.
//! * **Worker accounting** — per-slot chunk/task/steal/busy totals
//!   ([`stats`]), merged once per worker per region, for run manifests.
//!   Task counts are conserved (sum over workers == items mapped) at any
//!   thread count; the per-slot *split* is scheduling-dependent and
//!   reported as host-volatile data only.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
// Lane context: the deterministic coordinate system for telemetry.
//
// A *lane* is `(region, slot)`: `region` is a serial id handed out per
// `par_map_range` call (in program order, so it is thread-count invariant),
// and `slot` is the chunk index within that region (a pure function of the
// input length). The calling thread outside any region sits on lane
// `(0, 0)`. Code that records ordered artifacts from inside pool workers
// (the telemetry trace buffers) tags each record with
// `(current_lane(), lane_next_seq())`; sorting by that key reconstructs one
// canonical order that cannot depend on which OS thread ran which chunk.

thread_local! {
    /// `((region, slot), next_seq)` for the current thread.
    static LANE: Cell<((u64, u64), u32)> = const { Cell::new(((0, 0), 0)) };
}

/// Serial region-id source. Region 0 is the implicit "outside any region"
/// lane of the calling thread; real regions start at 1.
static REGION_COUNTER: AtomicU64 = AtomicU64::new(1);

/// The lane the current thread is recording into.
pub fn current_lane() -> (u64, u64) {
    LANE.with(|lane| lane.get().0)
}

/// Claim the next per-lane sequence number on this thread. Each lane is
/// executed by exactly one thread, so the per-thread counter *is* the
/// lane's emission order.
pub fn lane_next_seq() -> u32 {
    LANE.with(|lane| {
        let (coords, seq) = lane.get();
        lane.set((coords, seq + 1));
        seq
    })
}

/// RAII guard restoring the previous lane (and its sequence counter).
pub struct LaneGuard {
    previous: ((u64, u64), u32),
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|lane| lane.set(self.previous));
    }
}

/// Enter lane `(region, slot)` with a fresh sequence counter; the previous
/// lane resumes (sequence intact) when the guard drops.
pub fn enter_lane(region: u64, slot: u64) -> LaneGuard {
    LANE.with(|lane| {
        let previous = lane.get();
        lane.set(((region, slot), 0));
        LaneGuard { previous }
    })
}

/// Reset the region counter and this thread's lane to the process-start
/// state. Deterministic-telemetry tests call this (via
/// `iotlan_telemetry::reset_all`) between repeated runs so region ids
/// replay identically.
pub fn reset_lane_state() {
    REGION_COUNTER.store(1, Ordering::SeqCst);
    LANE.with(|lane| lane.set(((0, 0), 0)));
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
    // The region id is claimed serially on the caller, before any worker
    // runs: region numbering is program order, never scheduling order.
    let region = REGION_COUNTER.fetch_add(1, Ordering::Relaxed);
    note_region();
    if threads <= 1 || n <= chunk {
        // Inline path: same chunk walk as the threaded path (identical
        // lanes, so telemetry recorded here merges byte-identically), all
        // chunks executed by worker slot 0.
        let mut results = Vec::with_capacity(n);
        let mut worker = WorkerStats::default();
        let started = Instant::now();
        for chunk_index in 0..n.div_ceil(chunk) {
            let _lane = enter_lane(region, chunk_index as u64);
            let base = chunk_index * chunk;
            let end = (base + chunk).min(n);
            for index in base..end {
                results.push(f(index));
            }
            worker.chunks += 1;
            worker.tasks += (end - base) as u64;
        }
        worker.busy_nanos = started.elapsed().as_nanos() as u64;
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
                        let _lane = enter_lane(region, index as u64);
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

/// Map-reduce with ordered reduction: each chunk folds its mapped items
/// into a fresh accumulator from `init`, then the per-chunk accumulators
/// merge strictly in chunk (== input) order. Safe for non-commutative
/// merges.
pub fn par_map_reduce<T, A, FMap, FMerge>(
    items: &[T],
    init: impl Fn() -> A + Sync,
    map: FMap,
    merge: FMerge,
) -> A
where
    T: Sync,
    A: Send,
    FMap: Fn(&mut A, usize, &T) + Sync,
    FMerge: Fn(&mut A, A),
{
    let n = items.len();
    let chunk = chunk_size(n);
    let chunk_count = n.div_ceil(chunk);
    let mut partials = par_map_range(chunk_count, |chunk_index| {
        let start = chunk_index * chunk;
        let end = (start + chunk).min(n);
        let mut acc = init();
        for index in start..end {
            map(&mut acc, index, &items[index]);
        }
        acc
    });
    let mut total = init();
    for partial in partials.drain(..) {
        merge(&mut total, partial);
    }
    total
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
    fn par_map_reduce_ordered_merge() {
        // String concatenation is non-commutative: any out-of-order merge
        // would scramble it.
        let items: Vec<usize> = (0..300).collect();
        let serial: String = items.iter().map(|i| format!("[{i}]")).collect();
        for threads in [1, 2, 8] {
            let joined = with_threads(threads, || {
                par_map_reduce(
                    &items,
                    String::new,
                    |acc, _, item| acc.push_str(&format!("[{item}]")),
                    |acc, part| acc.push_str(&part),
                )
            });
            assert_eq!(joined, serial, "threads={threads}");
        }
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
    fn lanes_merge_identically_across_thread_counts() {
        // Records tagged (lane, seq) and sorted must be byte-identical for
        // any worker count — the contract the telemetry tracer builds on.
        let run = |threads: usize| {
            with_threads(threads, || {
                let records = Mutex::new(Vec::new());
                let _ = par_map_range(700, |i| {
                    let lane = current_lane();
                    let seq = lane_next_seq();
                    records.lock().unwrap().push((lane, seq, i));
                });
                let mut records = records.into_inner().unwrap();
                records.sort();
                records
            })
        };
        let sorted_one = run(1);
        // Relabel regions: each run claims fresh region ids, so compare
        // shapes with the region offset removed.
        let normalize = |records: &[((u64, u64), u32, usize)]| {
            let base = records.first().map(|((r, _), _, _)| *r).unwrap_or(0);
            records
                .iter()
                .map(|((r, s), q, i)| ((r - base, *s), *q, *i))
                .collect::<Vec<_>>()
        };
        let base = normalize(&sorted_one);
        for threads in [2, 8] {
            assert_eq!(normalize(&run(threads)), base, "threads={threads}");
        }
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
    fn lane_guard_restores_outer_lane_and_seq() {
        LANE.with(|lane| lane.set(((0, 0), 0)));
        let outer_seq = lane_next_seq();
        {
            let _guard = enter_lane(42, 7);
            assert_eq!(current_lane(), (42, 7));
            assert_eq!(lane_next_seq(), 0, "fresh lane starts at seq 0");
            assert_eq!(lane_next_seq(), 1);
        }
        assert_eq!(current_lane(), (0, 0));
        assert_eq!(lane_next_seq(), outer_seq + 1, "outer seq resumes");
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
