//! Shared-memory parallelization of the blocking substrates — the paper's
//! future-work direction (§8: "massive parallelization of our approach
//! based on existing methods for parallelizing Sorted Neighborhood \[31,32\]
//! and Meta-blocking \[33\]"), realized as deterministic sharded execution
//! on crossbeam scoped threads.
//!
//! Every parallel substrate has **one** implementation that takes a
//! [`Parallelism`]: Token Blocking ([`TokenBlocking::par_build`]) and the
//! Neighbor List ([`NeighborList::par_build`]) here, and the progressive
//! methods' initializations and emission lists in `sper-core`. At one
//! worker each body runs the plain sequential loop (one chunk, no merge);
//! at more workers it fans out through the two primitives of this module,
//! and the result is **bit-identical** at every count (property-tested in
//! `tests/parallel_equivalence.rs`). Two ingredients make that possible:
//!
//! 1. **Deterministic shard layout.** Work is split into contiguous ranges
//!    of the profile/placement arrays — a pure function of the input and
//!    the worker count.
//! 2. **Order-restoring merges.** Shard outputs are read in shard order,
//!    so the merged result reproduces the sequential iteration order
//!    exactly. Token Blocking and the Neighbor List tokenize on the
//!    workers into worker-local vocabularies and publish them into the
//!    shared interner in shard order, which gives every token its
//!    one-worker id (see `token_blocking.rs`).
//!
//! Worker threads are spawned only here: [`Parallelism::steal_chunks`]
//! (work-stealing fan-out over index ranges) and
//! [`Parallelism::for_each_mut`] (in-place work on a few large items, such
//! as sorting runs or remapping chunks). Thread counts are validated at the API boundary:
//! [`Parallelism::new`] returns [`ZeroThreads`] instead of panicking when
//! the count is zero.
//!
//! [`TokenBlocking::par_build`]: crate::TokenBlocking::par_build
//! [`NeighborList::par_build`]: crate::NeighborList::par_build

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Below this work-item count the parallel engines run inline on the
/// calling thread: an OS-thread spawn/join costs tens of microseconds,
/// which dwarfs the sort/sweep/weighting of a small batch. Correctness is
/// unaffected either way (the parallel paths are bit-identical); this is
/// purely the spawn-overhead break-even guard, shared by every layer of
/// the engine (blocking substrates and the `sper-core` emission lists).
pub const MIN_PARALLEL_BATCH: usize = 2048;

/// The typed error of the parallel entry points: zero worker threads were
/// requested. (Seed versions of this API `assert!`ed instead; a zero
/// thread count is a configuration mistake, not a programming bug, so it
/// is reported as a value.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZeroThreads;

impl std::fmt::Display for ZeroThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("parallel execution needs at least one worker thread")
    }
}

impl std::error::Error for ZeroThreads {}

/// A validated worker-thread count for the parallel engine.
///
/// Construction is the only place a thread count can be zero, so every
/// consumer past [`Parallelism::new`] works with a guaranteed-positive
/// count — the engine never has to re-check.
///
/// ```
/// use sper_blocking::Parallelism;
///
/// assert_eq!(Parallelism::new(4).unwrap().get(), 4);
/// assert!(Parallelism::new(0).is_err());
/// assert!(Parallelism::SEQUENTIAL.is_sequential());
/// assert!(Parallelism::available().get() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// One worker: the sequential engine.
    pub const SEQUENTIAL: Parallelism = Parallelism(NonZeroUsize::MIN);

    /// Validates a worker-thread count.
    pub fn new(threads: usize) -> Result<Self, ZeroThreads> {
        NonZeroUsize::new(threads).map(Self).ok_or(ZeroThreads)
    }

    /// The machine's available parallelism (≥ 1; falls back to 1 when the
    /// runtime cannot report it). The CLI default for `--threads`. Probed
    /// once per process: the break-even guard consults it on every
    /// refill, and the probe reads cgroup files.
    pub fn available() -> Self {
        static AVAILABLE: OnceLock<NonZeroUsize> = OnceLock::new();
        Self(
            *AVAILABLE
                .get_or_init(|| std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)),
        )
    }

    /// The validated thread count.
    #[inline]
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// True for a single worker (the engine takes the sequential paths).
    #[inline]
    pub fn is_sequential(self) -> bool {
        self.get() == 1
    }

    /// Caps the worker count at `items` (spawning more workers than work
    /// items only adds join overhead) while staying ≥ 1.
    #[inline]
    pub fn capped(self, items: usize) -> Parallelism {
        Parallelism(NonZeroUsize::new(self.get().min(items)).unwrap_or(NonZeroUsize::MIN))
    }

    /// The spawn break-even guard: collapses to [`Self::SEQUENTIAL`] when
    /// `items` is below [`MIN_PARALLEL_BATCH`] (the fan-out would cost more
    /// than the work it distributes), and otherwise caps the requested
    /// count at the machine's [available parallelism](Self::available) —
    /// on an oversubscribed host, extra workers only add contention and
    /// join overhead without any speedup (results are bit-identical at
    /// every count, so this is purely a wall-clock guard).
    pub fn break_even(self, items: usize) -> Parallelism {
        if items < MIN_PARALLEL_BATCH {
            Self::SEQUENTIAL
        } else {
            self.capped(Self::available().get())
        }
    }

    /// Runs `f` on every element of `items` in place, spreading the
    /// elements over up to `self` scoped worker threads in contiguous
    /// groups (the calling thread takes the first group). With one
    /// effective worker — or a single element — everything runs inline on
    /// the calling thread, no spawn.
    ///
    /// This is the fan-out for a few large independent items, where
    /// stealing has nothing to balance: the blocking builds remap their
    /// tokenize chunks to published ids with it, and the emission list
    /// prepares the first sorted tier of each run of a refill.
    pub fn for_each_mut<T, F>(self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(&mut T) + Sync,
    {
        let workers = self.capped(items.len()).get();
        if workers == 1 {
            items.iter_mut().for_each(f);
            return;
        }
        let per_worker = items.len().div_ceil(workers);
        let f = &f;
        crossbeam::thread::scope(|scope| {
            let mut groups = items.chunks_mut(per_worker);
            let first = groups.next();
            for group in groups {
                scope.spawn(move |_| group.iter_mut().for_each(f));
            }
            first.into_iter().flatten().for_each(f);
        })
        .expect("in-place fan-out panicked");
    }

    /// Splits `0..len` into fine-grained chunks (about
    /// [`STEAL_OVERSUBSCRIPTION`] per worker, never smaller than
    /// `min_chunk` items) and lets the workers **steal** them from a
    /// shared lock-free queue: each worker claims the next unclaimed chunk
    /// with one atomic `fetch_add`, runs `f(&mut scratch, range)`, and
    /// moves on — a straggler chunk delays only its own worker while
    /// the rest drain the queue, unlike fixed per-worker ranges, where the
    /// slowest range sets the join time.
    ///
    /// Determinism: stealing reorders *execution*, never *output*. Chunk
    /// boundaries are a pure function of `(len, workers, min_chunk)`, each
    /// chunk's result is written into its own slot, and the returned `Vec`
    /// is in chunk order — so as long as `f` is a pure function of its
    /// range (the contract of every call site, property-tested by the
    /// emission-equivalence suites), the concatenated output is identical
    /// at every worker count and under every steal interleaving.
    ///
    /// `init` builds one per-worker scratch, reused across all chunks the
    /// worker claims (the spacc sweeps reuse one `O(|P|)` accumulator per
    /// worker instead of one per range). With one effective worker,
    /// everything runs inline on the calling thread — no spawn, and one
    /// chunk covering `0..len` (there is nobody to steal from), so a
    /// caller's chunk merge has a single input to pass through.
    ///
    /// Every fan-out records per-worker busy time: into the global
    /// metrics registry (`parallel.worker_busy_us` histogram,
    /// `parallel.fanout_workers` gauge) when metrics are enabled, and
    /// always into the slot [`take_last_fanout_stats`] reads. With
    /// `Debug`-level tracing on, each worker additionally closes one
    /// `parallel.worker` span (worker index, chunks claimed, busy µs) —
    /// the per-worker utilization lanes of the Chrome-trace export.
    pub fn steal_chunks<S, T, FI, F>(self, len: usize, min_chunk: usize, init: FI, f: F) -> Vec<T>
    where
        T: Send,
        FI: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Instant;

        let workers = self.capped(len.max(1)).get();
        let chunk = if workers == 1 {
            len.max(1)
        } else {
            len.div_ceil(workers * STEAL_OVERSUBSCRIPTION)
                .max(min_chunk.max(1))
        };
        let n_chunks = len.div_ceil(chunk).max(1);
        let workers = workers.min(n_chunks);
        let wall_start = Instant::now();

        if workers == 1 {
            let mut scratch = init();
            let mut results = Vec::with_capacity(n_chunks);
            let mut span = sper_obs::trace::SpanGuard::enter(
                sper_obs::trace::Level::Debug,
                "parallel.worker",
                || vec![("worker", sper_obs::FieldValue::from(0u64))],
            );
            let busy_start = Instant::now();
            for c in 0..n_chunks {
                let range = (c * chunk).min(len)..((c + 1) * chunk).min(len);
                results.push(f(&mut scratch, range));
            }
            let busy = busy_start.elapsed();
            span.record("chunks", n_chunks);
            span.record("busy_us", busy.as_micros() as u64);
            drop(span);
            record_fanout(
                wall_start.elapsed(),
                vec![WorkerStats {
                    worker: 0,
                    busy,
                    chunks: n_chunks,
                }],
            );
            return results;
        }

        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<(Vec<(usize, T)>, WorkerStats)> = Vec::with_capacity(workers);
        crossbeam::thread::scope(|scope| {
            let (next, f, init) = (&next, &f, &init);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move |_| {
                        let mut scratch = init();
                        let mut out: Vec<(usize, T)> = Vec::new();
                        let mut claimed = 0usize;
                        // A per-worker timeline span: closed right after
                        // the steal loop, it puts each worker's busy
                        // window on its own lane in a Chrome-trace view.
                        let mut span = sper_obs::trace::SpanGuard::enter(
                            sper_obs::trace::Level::Debug,
                            "parallel.worker",
                            || vec![("worker", sper_obs::FieldValue::from(w as u64))],
                        );
                        let busy_start = Instant::now();
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let range = (c * chunk).min(len)..((c + 1) * chunk).min(len);
                            out.push((c, f(&mut scratch, range)));
                            claimed += 1;
                        }
                        let busy = busy_start.elapsed();
                        span.record("chunks", claimed);
                        span.record("busy_us", busy.as_micros() as u64);
                        drop(span);
                        let stats = WorkerStats {
                            worker: w,
                            busy,
                            chunks: claimed,
                        };
                        (out, stats)
                    })
                })
                .collect();
            per_worker.extend(handles.into_iter().map(|h| h.join().unwrap()));
        })
        .expect("work-stealing fan-out panicked");

        // Per-chunk output slots restore chunk order regardless of which
        // worker executed which chunk.
        let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
        let mut stats = Vec::with_capacity(workers);
        for (results, worker_stats) in per_worker {
            for (c, result) in results {
                debug_assert!(slots[c].is_none(), "chunk {c} claimed twice");
                slots[c] = Some(result);
            }
            stats.push(worker_stats);
        }
        record_fanout(wall_start.elapsed(), stats);
        slots
            .into_iter()
            .map(|s| s.expect("every chunk claimed exactly once"))
            .collect()
    }
}

/// Publishes one fan-out's execution profile to the metrics registry and
/// the [`take_last_fanout_stats`] slot.
fn record_fanout(wall: std::time::Duration, workers: Vec<WorkerStats>) {
    if sper_obs::metrics::enabled() {
        let registry = sper_obs::metrics::global();
        registry
            .gauge("parallel.fanout_workers")
            .set(workers.len() as i64);
        for w in &workers {
            sper_obs::observe!("parallel.worker_busy_us", w.busy.as_micros() as f64);
        }
        let _ = registry;
    }
    LAST_FANOUT.set(Some(FanoutStats { wall, workers }));
}

/// Chunks per worker the work-stealing plan aims for: enough slack for
/// stealing to even out skewed ranges (one giant block landing in one
/// shard), few enough that per-chunk bookkeeping stays negligible.
pub const STEAL_OVERSUBSCRIPTION: usize = 8;

/// Default minimum items per work-stealing chunk for per-profile sweeps —
/// small enough that a handful of heavy neighborhoods cannot serialize a
/// whole fixed range, large enough that claim overhead stays invisible.
pub const STEAL_MIN_CHUNK: usize = 256;

/// Per-worker execution record of one work-stealing fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the fan-out (`0..workers`).
    pub worker: usize,
    /// Time the worker spent inside chunk bodies.
    pub busy: std::time::Duration,
    /// Chunks the worker claimed.
    pub chunks: usize,
}

/// One work-stealing fan-out's execution profile: wall-clock of the whole
/// fan-out plus every worker's busy time — what the bench harnesses turn
/// into per-thread utilization curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutStats {
    /// Wall-clock of the fan-out (spawn to last join).
    pub wall: std::time::Duration,
    /// Per-worker busy time and chunk counts, by worker index.
    pub workers: Vec<WorkerStats>,
}

impl FanoutStats {
    /// Per-worker utilization (`busy / wall`), by worker index — 1.0 is a
    /// fully busy worker, values near 0 are join/imbalance overhead.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64();
        self.workers
            .iter()
            .map(|w| {
                if wall > 0.0 {
                    (w.busy.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

thread_local! {
    /// The most recent [`Parallelism::steal_chunks`] fan-out profile of
    /// this thread, for bench introspection. Per calling thread, so a
    /// caller reads its own build's fan-out even while other threads run
    /// theirs (concurrent tests, for one).
    static LAST_FANOUT: std::cell::Cell<Option<FanoutStats>> = const { std::cell::Cell::new(None) };
}

/// Takes the execution profile of the most recent work-stealing fan-out
/// the calling thread started, if any ran since the last take. The bench
/// harnesses call this right after a timed build to record per-thread
/// utilization, and the equivalence walls to prove their builds really
/// fanned out; it is diagnostic state only — results never depend on it.
pub fn take_last_fanout_stats() -> Option<FanoutStats> {
    LAST_FANOUT.take()
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::SEQUENTIAL`] — opting *in* to threads is
    /// explicit, so libraries embedding the engine never surprise their
    /// host with a thread pool.
    fn default() -> Self {
        Self::SEQUENTIAL
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl TryFrom<usize> for Parallelism {
    type Error = ZeroThreads;

    fn try_from(threads: usize) -> Result<Self, ZeroThreads> {
        Self::new(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_boundary() {
        assert!(Parallelism::new(0).is_err());
        assert_eq!(Parallelism::new(3).unwrap().get(), 3);
        assert_eq!(Parallelism::default(), Parallelism::SEQUENTIAL);
        assert_eq!(Parallelism::new(8).unwrap().capped(2).get(), 2);
        assert_eq!(Parallelism::new(2).unwrap().capped(0).get(), 1);
        assert_eq!(Parallelism::try_from(5).unwrap().to_string(), "5");
        assert_eq!(
            ZeroThreads.to_string(),
            "parallel execution needs at least one worker thread"
        );
    }

    #[test]
    fn steal_chunks_partition_the_range_in_chunk_order() {
        // Regression: chunk bounds clamp to `len`, so awkward worker
        // counts never yield a backwards or overlapping range.
        for (len, workers) in [(2069usize, 47usize), (5, 4), (1, 8), (0, 3), (2049, 64)] {
            let ranges =
                Parallelism::new(workers)
                    .unwrap()
                    .steal_chunks(len, 1, || (), |(), range| range);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "gap/overlap at len {len}");
                assert!(r.start <= r.end && r.end <= len);
                next = r.end;
            }
            assert_eq!(next, len, "len {len}, workers {workers}");
        }
        // One worker: a single chunk, whatever the minimum chunk size.
        let one = Parallelism::SEQUENTIAL.steal_chunks(10_000, 1, || (), |(), range| range);
        assert_eq!(one, vec![0..10_000]);
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        for workers in [1usize, 2, 3, 8] {
            let mut items: Vec<Vec<u32>> = (0..7u32).map(|i| vec![i; 3]).collect();
            Parallelism::new(workers)
                .unwrap()
                .for_each_mut(&mut items, |v| v.iter_mut().for_each(|x| *x += 1));
            let expected: Vec<Vec<u32>> = (0..7u32).map(|i| vec![i + 1; 3]).collect();
            assert_eq!(items, expected, "workers = {workers}");
        }
        let mut empty: Vec<u8> = Vec::new();
        Parallelism::new(4)
            .unwrap()
            .for_each_mut(&mut empty, |_| unreachable!());
    }
}
