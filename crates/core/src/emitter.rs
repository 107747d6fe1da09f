//! The Comparison List (§5): a batch of comparisons sorted in non-increasing
//! matching likelihood, consumed from the front during the emission phase
//! and refilled by the owning method when it runs dry.
//!
//! [`EmissionList`] sorts each refill batch in place as contiguous runs,
//! one per worker ([`Parallelism::for_each_mut`]). A batch that sorts into
//! a single run — one worker, or a batch below the spawn break-even —
//! drains by cursor in `O(1)` per emission. Several runs drain through a
//! deterministic **tournament merge**: a max-heap over run fronts keyed by
//! the shared [`emission_order`], ties broken by run index.
//!
//! Because [`emission_order`] is a strict total order whenever weights are
//! non-NaN and pairs are distinct within a batch (true for every method in
//! this crate), the tournament merge emits the exact sequence a full sort
//! would — the worker count changes wall-clock time, never emission order.

use crate::Comparison;
use sper_blocking::Parallelism;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The canonical emission order of every best-first engine: non-increasing
/// weight, ties broken by ascending pair id — fully deterministic.
///
/// Returns [`Ordering::Less`] when `a` must be emitted before `b`.
#[inline]
pub fn emission_order(a: &Comparison, b: &Comparison) -> Ordering {
    b.weight
        .partial_cmp(&a.weight)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.pair.cmp(&b.pair))
}

/// One run's front in the tournament: the candidate comparison plus the
/// run it came from (the deterministic tie-break).
#[derive(Debug, Clone, Copy)]
struct RunFront {
    c: Comparison,
    run: usize,
}

impl PartialEq for RunFront {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RunFront {}

impl PartialOrd for RunFront {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RunFront {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: "greater" must mean "emits earlier".
        // `emission_order` returns Less for the earlier emission, so
        // reverse it; equal fronts resolve by the lower run index (the
        // earlier batch slice), keeping the merge a strict total order.
        emission_order(&self.c, &other.c)
            .reverse()
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// A drainable list of comparisons kept in non-increasing weight order —
/// the refill–sort–drain emission machinery of all advanced methods
/// (LS-PSN, GS-PSN, PBS, PPS).
///
/// [`refill`](Self::refill) keeps the batch in one allocation, sorts it as
/// one contiguous run per worker (up to the configured [`Parallelism`],
/// behind the spawn break-even guard), and drains a single run by cursor
/// or several through the tournament merge, which costs `O(log runs)` per
/// emission — the price of sorting several runs at once. The emitted
/// sequence is identical at every worker count.
#[derive(Debug, Clone, Default)]
pub struct EmissionList {
    items: Vec<Comparison>,
    /// Next position of a single-run batch; `items.len()` when the batch
    /// drains through the tournament instead.
    cursor: usize,
    /// Per-run `(cursor, end)` index pairs into `items` (several runs only).
    runs: Vec<(usize, usize)>,
    /// Tournament over the run fronts (several runs only).
    heap: BinaryHeap<RunFront>,
    par: Parallelism,
}

impl EmissionList {
    /// An empty list sorting its refills on up to `par` workers.
    pub fn new(par: Parallelism) -> Self {
        Self {
            par,
            ..Self::default()
        }
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// True when no comparison is left to emit.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.cursor >= self.items.len()
    }

    /// Number of comparisons left to emit.
    pub fn remaining(&self) -> usize {
        let in_runs: usize = self.runs.iter().map(|&(cursor, end)| end - cursor).sum();
        self.items.len() - self.cursor + in_runs
    }

    /// Replaces the contents with `batch`, resetting the drain. The batch
    /// is emitted in non-increasing weight, ties broken by pair id so that
    /// emission order is fully deterministic.
    pub fn refill(&mut self, batch: Vec<Comparison>) {
        // Per-batch (never per-pop) accounting keeps the drain loop clean.
        sper_obs::count!("emitter.refills");
        sper_obs::count!("emitter.refill_comparisons", batch.len() as u64);
        let par = self.par.break_even(batch.len());
        self.sort_runs(batch, par);
    }

    /// Sorts `batch` in place as one contiguous run per worker of `par`
    /// and seeds the tournament when there is more than one run.
    fn sort_runs(&mut self, mut batch: Vec<Comparison>, par: Parallelism) {
        self.heap.clear();
        self.runs.clear();
        self.cursor = 0;
        let run_len = batch.len().div_ceil(par.get()).max(1);
        if batch.len() <= run_len {
            // One run: sorted here, drained by cursor.
            batch.sort_by(emission_order);
        } else {
            let mut runs: Vec<&mut [Comparison]> = batch.chunks_mut(run_len).collect();
            par.for_each_mut(&mut runs, |run| run.sort_by(emission_order));
            for (run, start) in (0..batch.len()).step_by(run_len).enumerate() {
                self.runs.push((start, (start + run_len).min(batch.len())));
                self.heap.push(RunFront {
                    c: batch[start],
                    run,
                });
            }
            self.cursor = batch.len();
        }
        self.items = batch;
    }

    /// Removes and returns the best remaining comparison.
    pub fn remove_first(&mut self) -> Option<Comparison> {
        let Some(front) = self.heap.pop() else {
            // A single run: drain by cursor.
            let Some(&c) = self.items.get(self.cursor) else {
                // Release memory of fully drained batches.
                if !self.items.is_empty() {
                    self.items.clear();
                    self.runs.clear();
                    self.cursor = 0;
                }
                return None;
            };
            self.cursor += 1;
            return Some(c);
        };
        // Several runs: the tournament winner, then that run's next front.
        let (cursor, end) = &mut self.runs[front.run];
        *cursor += 1;
        if *cursor < *end {
            self.heap.push(RunFront {
                c: self.items[*cursor],
                run: front.run,
            });
        }
        Some(front.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::{Pair, ProfileId};

    fn cmp(a: u32, b: u32, w: f64) -> Comparison {
        Comparison::new(Pair::new(ProfileId(a), ProfileId(b)), w)
    }

    fn drain(list: &mut EmissionList) -> Vec<Comparison> {
        std::iter::from_fn(|| list.remove_first()).collect()
    }

    #[test]
    fn drains_in_descending_weight() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill(vec![cmp(0, 1, 0.2), cmp(2, 3, 0.9), cmp(4, 5, 0.5)]);
        let weights: Vec<f64> = drain(&mut list).iter().map(|c| c.weight).collect();
        assert_eq!(weights, vec![0.9, 0.5, 0.2]);
        assert!(list.is_empty());
    }

    #[test]
    fn ties_broken_by_pair_id() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill(vec![cmp(4, 5, 1.0), cmp(0, 1, 1.0), cmp(2, 3, 1.0)]);
        let pairs: Vec<Pair> = drain(&mut list).iter().map(|c| c.pair).collect();
        assert_eq!(
            pairs,
            vec![
                Pair::new(ProfileId(0), ProfileId(1)),
                Pair::new(ProfileId(2), ProfileId(3)),
                Pair::new(ProfileId(4), ProfileId(5)),
            ]
        );
    }

    #[test]
    fn refill_resets_cursor() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill(vec![cmp(0, 1, 1.0)]);
        assert!(list.remove_first().is_some());
        assert!(list.remove_first().is_none());
        list.refill(vec![cmp(2, 3, 0.5)]);
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().weight, 0.5);
    }

    #[test]
    fn nan_weights_do_not_panic() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill(vec![cmp(0, 1, f64::NAN), cmp(2, 3, 1.0)]);
        // Order with NaN is unspecified but draining must be total.
        assert_eq!(drain(&mut list).len(), 2);
    }

    /// A deterministic pseudo-random batch with heavy weight ties.
    fn tie_heavy_batch(n: u32) -> Vec<Comparison> {
        (0..n)
            .map(|i| {
                let a = i.wrapping_mul(2654435761) % 97;
                let b = (a + 1 + i % 7) % 97 + 97;
                cmp(a, b, f64::from(i % 5))
            })
            .collect()
    }

    #[test]
    fn several_runs_emit_exactly_the_single_run_sequence() {
        let mut one = EmissionList::new(Parallelism::SEQUENTIAL);
        one.refill(tie_heavy_batch(257));
        let expected = drain(&mut one);
        for threads in [2usize, 3, 4, 8] {
            let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
            // Force several runs below the spawn threshold so the
            // tournament merge itself is what this test exercises.
            list.sort_runs(tie_heavy_batch(257), Parallelism::new(threads).unwrap());
            assert_eq!(list.runs.len(), threads, "threads = {threads}");
            assert_eq!(list.remaining(), expected.len());
            assert_eq!(drain(&mut list), expected, "threads = {threads}");
            assert_eq!(list.remaining(), 0);
        }
    }

    #[test]
    fn handles_empty_and_tiny_batches_at_any_worker_count() {
        let mut list = EmissionList::new(Parallelism::new(4).unwrap());
        list.refill(Vec::new());
        assert!(list.is_empty());
        assert!(list.remove_first().is_none());
        list.sort_runs(vec![cmp(0, 1, 1.0)], Parallelism::new(8).unwrap());
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().pair.first, ProfileId(0));
        assert!(list.remove_first().is_none());
        assert!(list.is_empty());
    }

    #[test]
    fn refills_between_drains() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.sort_runs(tie_heavy_batch(10), Parallelism::new(3).unwrap());
        assert!(list.remove_first().is_some());
        // Refill mid-drain: previous contents replaced wholesale.
        list.sort_runs(
            vec![cmp(0, 1, 9.0), cmp(2, 3, 5.0)],
            Parallelism::new(2).unwrap(),
        );
        assert_eq!(list.remaining(), 2);
        assert_eq!(list.remove_first().unwrap().weight, 9.0);
        assert_eq!(list.remove_first().unwrap().weight, 5.0);
        assert!(list.remove_first().is_none());
        // And from the tournament back to a single run.
        list.refill(vec![cmp(4, 5, 1.0)]);
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().weight, 1.0);
    }

    #[test]
    fn keeps_its_configured_parallelism() {
        assert!(EmissionList::new(Parallelism::SEQUENTIAL)
            .parallelism()
            .is_sequential());
        let mut list = EmissionList::new(Parallelism::new(4).unwrap());
        assert_eq!(list.parallelism().get(), 4);
        list.refill(tie_heavy_batch(50));
        assert_eq!(list.remaining(), 50);
        let weights: Vec<f64> = drain(&mut list).iter().map(|c| c.weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]));
        assert!(list.is_empty());
    }
}
