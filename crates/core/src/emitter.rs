//! The Comparison List (§5): a batch of comparisons emitted in
//! non-increasing matching likelihood, consumed from the front during the
//! emission phase and refilled by the owning method when it runs dry.
//!
//! [`EmissionList`] orders a refill **lazily**: a method pays only for the
//! prefix it actually emits. A refill is a set of runs — one per
//! [`Parallelism::steal_chunks`] chunk of the producer, or a single batch
//! — kept in the producer's own allocations, never concatenated. Each run
//! sorts itself from the front by *incremental quicksort* (Paredes &
//! Navarro, "Optimal Incremental Sorting", ALENEX 2006): while the unsorted
//! front segment is longer than one tier, one partition pass splits off
//! its front around a sampled pivot and the split goes on the run's stack;
//! the front segment, now at most one tier, is sorted outright. The pivot
//! aims at an eighth of a long segment and at half of one within eight
//! tiers, so the first tier of `n` comparisons costs about `1.14 n`
//! comparisons and later tiers reuse the stacked splits.
//!
//! A single run drains by cursor. Several runs drain through a
//! deterministic **tournament merge**: a max-heap over run fronts keyed by
//! the shared [`emission_order`], ties broken by run index. Each run's
//! first tier is prepared at refill, on up to the configured workers
//! ([`Parallelism::for_each_mut`]), so the first emission waits for one
//! parallel pass instead of every run's partition steps in turn.
//!
//! Because [`emission_order`] is a strict total order whenever pairs are
//! distinct within a batch (true for every method in this crate),
//! partitioning, selection, sorting and the tournament each place every
//! comparison at its unique rank — the pivots, the run layout and the
//! worker count change wall-clock time, never emission order.

use crate::Comparison;
use sper_blocking::{weight_desc, Parallelism};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Comparisons a run sorts at a time: the longest front segment that is
/// sorted outright rather than split by a partition step first.
const TIER: usize = 4096;

/// Evenly spaced comparisons a partition step draws its pivot from.
const SAMPLE: usize = 65;

/// The canonical emission order of every best-first engine: non-increasing
/// weight, ties broken by ascending pair id — fully deterministic.
///
/// It is [`weight_desc`] over `(pair, weight)`, so the order is total on
/// any input: a NaN weight with its sign bit clear (such as [`f64::NAN`])
/// emits before every number, one with its sign bit set (the NaN that
/// `0.0 / 0.0` yields on x86-64) after every number, and `+0.0` before
/// `-0.0`. Among non-negative numbers the order is `f64`'s.
///
/// Returns [`Ordering::Less`] when `a` must be emitted before `b`.
#[inline]
pub fn emission_order(a: &Comparison, b: &Comparison) -> Ordering {
    weight_desc(&(a.pair, a.weight), &(b.pair, b.weight))
}

/// One incremental-quicksort step on a segment longer than one tier:
/// moves the segment's first `k` comparisons in emission order to its
/// front, in no particular order, and returns `k` (`0 < k < seg.len()`).
///
/// The step aims at rank `target`: an eighth of a segment longer than
/// eight tiers, so the passes before a first tier shrink fast, and half
/// of a shorter one, so that later tiers stay at least half full and each
/// is cut from a segment at most twice its size. The pivot is the sample
/// comparison whose expected rank is `target`, and one partition pass
/// splits the segment around it. When the pivot splits badly — a front
/// under a quarter of `target`, or over twice `target` or three quarters
/// of the segment — the guard, an exact selection at `target`, replaces
/// the split. Either way the front keeps at most three quarters of the
/// segment (a quarter above eight tiers), so a tier takes a bounded
/// number of steps on any input order, each no dearer than a partition
/// pass plus that selection.
fn split_front(seg: &mut [Comparison]) -> usize {
    let n = seg.len();
    let target = if n > 8 * TIER { n / 8 } else { n / 2 };
    let stride = n / SAMPLE;
    let mut sample: [Comparison; SAMPLE] = std::array::from_fn(|s| seg[s * stride + stride / 2]);
    let q = (target * (SAMPLE + 1) / n).max(1) - 1;
    let (_, &mut pivot, _) = sample.select_nth_unstable_by(q, emission_order);
    let mut k = 0;
    for i in 0..n {
        if emission_order(&seg[i], &pivot) == Ordering::Less {
            seg.swap(i, k);
            k += 1;
        }
    }
    if target / 4 <= k && k <= (2 * target).min(n - n / 4) {
        k
    } else {
        seg.select_nth_unstable_by(target, emission_order);
        target
    }
}

/// One run of a refill, sorted lazily from the front.
///
/// Invariants: `items[cursor..sorted]` is in emission order, and every
/// comparison before a stacked split emits before every comparison at or
/// after it (`sorted` itself is such a split).
#[derive(Debug, Clone, Default)]
struct Run {
    items: Vec<Comparison>,
    /// Next position to emit.
    cursor: usize,
    /// End of the sorted front.
    sorted: usize,
    /// Ends of the unsorted segments past `sorted`, nearest on top; an
    /// empty stack stands for the single segment `sorted..items.len()`.
    splits: Vec<usize>,
}

impl Run {
    fn new(items: Vec<Comparison>) -> Self {
        Self {
            items,
            ..Self::default()
        }
    }

    fn remaining(&self) -> usize {
        self.items.len() - self.cursor
    }

    /// The run's next comparison, sorting the next tier first when the
    /// sorted front is used up.
    fn front(&mut self) -> Option<Comparison> {
        if self.cursor == self.sorted && self.sorted < self.items.len() {
            self.sort_next_tier();
        }
        self.items.get(self.cursor).copied()
    }

    /// Splits the front off the next unsorted segment until it fits one
    /// tier, stacking the end of each remainder, then sorts it.
    fn sort_next_tier(&mut self) {
        let start = self.sorted;
        let mut end = self.splits.pop().unwrap_or(self.items.len());
        while end - start > TIER {
            let front = split_front(&mut self.items[start..end]);
            self.splits.push(end);
            end = start + front;
        }
        self.items[start..end].sort_unstable_by(emission_order);
        self.sorted = end;
    }
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
        // reverse it; equal fronts resolve by the lower run index, keeping
        // the merge a strict total order.
        emission_order(&self.c, &other.c)
            .reverse()
            .then_with(|| other.run.cmp(&self.run))
    }
}

/// A drainable list of comparisons emitted in non-increasing weight order
/// — the refill–drain emission machinery of all advanced methods (LS-PSN,
/// GS-PSN, PBS, PPS).
///
/// [`refill`](Self::refill) takes the producer's runs as they are and
/// sorts only what is emitted, one tier at a time. A single run drains by
/// cursor; several drain through the tournament merge, which costs
/// `O(log runs)` per emission. The emitted sequence is identical at every
/// worker count and for every split of a batch into runs.
#[derive(Debug, Clone, Default)]
pub struct EmissionList {
    /// The non-empty runs of the current refill.
    runs: Vec<Run>,
    /// Tournament over the run fronts (several runs only).
    heap: BinaryHeap<RunFront>,
    par: Parallelism,
}

impl EmissionList {
    /// An empty list preparing its refills on up to `par` workers.
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
        self.remaining() == 0
    }

    /// Number of comparisons left to emit.
    pub fn remaining(&self) -> usize {
        self.runs.iter().map(Run::remaining).sum()
    }

    /// Replaces the contents with the union of `runs`, resetting the
    /// drain. The union is emitted in non-increasing weight, ties broken
    /// by pair id, so emission order is fully deterministic and
    /// independent of how the batch is split into runs. A single batch is
    /// passed as `[batch]`.
    pub fn refill(&mut self, runs: impl IntoIterator<Item = Vec<Comparison>>) {
        self.heap.clear();
        self.runs.clear();
        self.runs
            .extend(runs.into_iter().filter(|r| !r.is_empty()).map(Run::new));
        let total = self.remaining();
        // Per-batch (never per-pop) accounting keeps the drain loop clean.
        sper_obs::count!("emitter.refills");
        sper_obs::count!("emitter.refill_comparisons", total as u64);
        // Every run's first tier now, on the workers: the first emission
        // then waits for one parallel pass, not for each run's partition
        // steps in turn.
        self.par
            .break_even(total)
            .for_each_mut(&mut self.runs, |run| {
                run.front();
            });
        if self.runs.len() > 1 {
            for (i, run) in self.runs.iter_mut().enumerate() {
                let c = run.front().expect("empty runs are dropped at refill");
                self.heap.push(RunFront { c, run: i });
            }
        }
    }

    /// Removes and returns the best remaining comparison.
    pub fn remove_first(&mut self) -> Option<Comparison> {
        let next = if let [run] = self.runs.as_mut_slice() {
            // A single run: drain by cursor.
            let c = run.front();
            run.cursor += usize::from(c.is_some());
            c
        } else if let Some(front) = self.heap.pop() {
            // Several runs: the tournament winner, then that run's next front.
            let run = &mut self.runs[front.run];
            run.cursor += 1;
            if let Some(c) = run.front() {
                self.heap.push(RunFront { c, run: front.run });
            }
            Some(front.c)
        } else {
            None
        };
        if next.is_none() {
            // Release the memory of a fully drained refill.
            self.runs.clear();
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sper_model::{Pair, ProfileId};

    fn cmp(a: u32, b: u32, w: f64) -> Comparison {
        Comparison::new(Pair::new(ProfileId(a), ProfileId(b)), w)
    }

    fn drain(list: &mut EmissionList) -> Vec<Comparison> {
        std::iter::from_fn(|| list.remove_first()).collect()
    }

    fn sorted(mut batch: Vec<Comparison>) -> Vec<Comparison> {
        batch.sort_by(emission_order);
        batch
    }

    /// Splits `batch` into runs at `cuts` (positions in `0..=len`, any
    /// order, repeats giving empty runs).
    fn split_at_cuts(batch: &[Comparison], mut cuts: Vec<usize>) -> Vec<Vec<Comparison>> {
        cuts.push(0);
        cuts.push(batch.len());
        cuts.sort_unstable();
        cuts.windows(2)
            .map(|w| batch[w[0]..w[1]].to_vec())
            .collect()
    }

    #[test]
    fn drains_in_descending_weight() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill([vec![cmp(0, 1, 0.2), cmp(2, 3, 0.9), cmp(4, 5, 0.5)]]);
        let weights: Vec<f64> = drain(&mut list).iter().map(|c| c.weight).collect();
        assert_eq!(weights, vec![0.9, 0.5, 0.2]);
        assert!(list.is_empty());
    }

    #[test]
    fn ties_broken_by_pair_id() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill([vec![cmp(4, 5, 1.0), cmp(0, 1, 1.0), cmp(2, 3, 1.0)]]);
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
        list.refill([vec![cmp(0, 1, 1.0)]]);
        assert!(list.remove_first().is_some());
        assert!(list.remove_first().is_none());
        list.refill([vec![cmp(2, 3, 0.5)]]);
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().weight, 0.5);
    }

    #[test]
    fn nan_weights_do_not_panic() {
        for n in [2u32, 100, 5_000, 50_000, 200_000] {
            // One NaN in three weights, alternately of either sign; the
            // rest tie-heavy numbers.
            let batch: Vec<Comparison> = tie_heavy_batch(n, 7, 3)
                .into_iter()
                .enumerate()
                .map(|(i, c)| match i % 6 {
                    1 => Comparison {
                        weight: f64::NAN,
                        ..c
                    },
                    4 => Comparison {
                        weight: -f64::NAN,
                        ..c
                    },
                    _ => c,
                })
                .collect();
            // NaNs with the sign bit clear first, then every number, then
            // NaNs with the sign bit set; within each group by
            // non-increasing weight, then pair.
            let group = |c: &Comparison| match (c.weight.is_nan(), c.weight.is_sign_negative()) {
                (true, false) => 0,
                (false, _) => 1,
                (true, true) => 2,
            };
            let mut expected = batch.clone();
            expected.sort_by(|a, b| {
                group(a)
                    .cmp(&group(b))
                    .then(b.weight.partial_cmp(&a.weight).unwrap_or(Ordering::Equal))
                    .then(a.pair.cmp(&b.pair))
            });
            let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
            list.refill(batch.chunks(batch.len().div_ceil(3)).map(<[_]>::to_vec));
            let bits = |cs: &[Comparison]| -> Vec<(Pair, u64)> {
                cs.iter().map(|c| (c.pair, c.weight.to_bits())).collect()
            };
            assert_eq!(bits(&drain(&mut list)), bits(&expected), "n = {n}");
        }
    }

    /// A deterministic pseudo-random batch of `n` distinct pairs with
    /// heavy weight ties (`ties` distinct weights).
    fn tie_heavy_batch(n: u32, ties: u32, salt: u32) -> Vec<Comparison> {
        (0..n)
            .map(|i| {
                let h = i.wrapping_add(salt).wrapping_mul(2654435761);
                // (i mod 97, 97 + i div 97) is injective in i.
                cmp(i % 97, 97 + i / 97, f64::from((h >> 7) % ties))
            })
            .collect()
    }

    #[test]
    fn several_runs_emit_exactly_the_single_run_sequence() {
        let batch = tie_heavy_batch(257, 5, 0);
        let expected = sorted(batch.clone());
        for n_runs in [2usize, 3, 4, 8] {
            let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
            list.refill(
                batch
                    .chunks(batch.len().div_ceil(n_runs))
                    .map(<[_]>::to_vec),
            );
            assert_eq!(list.runs.len(), n_runs, "runs = {n_runs}");
            assert_eq!(list.remaining(), expected.len());
            assert_eq!(drain(&mut list), expected, "runs = {n_runs}");
            assert_eq!(list.remaining(), 0);
        }
    }

    #[test]
    fn handles_empty_and_tiny_batches_at_any_worker_count() {
        let mut list = EmissionList::new(Parallelism::new(4).unwrap());
        list.refill([Vec::new()]);
        assert!(list.is_empty());
        assert!(list.remove_first().is_none());
        list.refill(Vec::<Vec<Comparison>>::new());
        assert!(list.is_empty());
        list.refill([Vec::new(), vec![cmp(0, 1, 1.0)], Vec::new()]);
        assert_eq!(list.remaining(), 1);
        assert_eq!(list.remove_first().unwrap().pair.first, ProfileId(0));
        assert!(list.remove_first().is_none());
        assert!(list.is_empty());
    }

    #[test]
    fn refills_between_drains() {
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        let batch = tie_heavy_batch(10, 5, 0);
        list.refill(batch.chunks(4).map(<[_]>::to_vec));
        assert!(list.remove_first().is_some());
        // Refill mid-drain: previous contents replaced wholesale.
        list.refill([vec![cmp(0, 1, 9.0)], vec![cmp(2, 3, 5.0)]]);
        assert_eq!(list.remaining(), 2);
        assert_eq!(list.remove_first().unwrap().weight, 9.0);
        assert_eq!(list.remove_first().unwrap().weight, 5.0);
        assert!(list.remove_first().is_none());
        // And from the tournament back to a single run.
        list.refill([vec![cmp(4, 5, 1.0)]]);
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
        list.refill([tie_heavy_batch(50, 5, 0)]);
        assert_eq!(list.remaining(), 50);
        let weights: Vec<f64> = drain(&mut list).iter().map(|c| c.weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]));
        assert!(list.is_empty());
    }

    #[test]
    fn a_long_run_sorts_one_tier_at_a_time() {
        let batch = tie_heavy_batch(5 * TIER as u32 + 17, 3, 0);
        let expected = sorted(batch.clone());
        let mut list = EmissionList::new(Parallelism::SEQUENTIAL);
        list.refill([batch]);
        // Only the first tier is sorted; the rest waits behind the splits.
        let run = &list.runs[0];
        assert!(run.sorted <= TIER && !run.splits.is_empty(), "{run:?}");
        assert_eq!(drain(&mut list), expected);
    }

    /// Drains `run` tier by tier, returning the drained sequence and the
    /// most partition steps one tier took.
    fn drain_counting_steps(mut run: Run) -> (Vec<Comparison>, usize) {
        let mut out = Vec::with_capacity(run.items.len());
        let mut most = 0;
        loop {
            let stacked = run.splits.len();
            let Some(c) = run.front() else { break };
            // A tier pops one stacked end (none from the fresh run's empty
            // stack) and pushes one per step.
            most = most.max(run.splits.len() + usize::from(stacked > 0) - stacked);
            out.push(c);
            run.cursor += 1;
        }
        (out, most)
    }

    /// Runs of 64 tiers in orders that defeat a sampled pivot or test its
    /// extremes: already in emission order, reversed, all weights equal
    /// (pair tie-break only), and a sawtooth whose period is the sample's
    /// stride, so every sampled comparison carries the same weight. Each
    /// step of the first tier keeps the guard's bounds, no tier takes more
    /// steps than the guard allows, and every run drains in full-sort
    /// order.
    #[test]
    fn adversarial_orders_keep_tier_steps_bounded() {
        let n = 64 * TIER as u32;
        let stride = n / SAMPLE as u32;
        let at = |i: u32, w: f64| cmp(i % 97, 97 + i / 97, w);
        let ordered = sorted(tie_heavy_batch(n, 1 << 20, 4));
        let mut reversed = ordered.clone();
        reversed.reverse();
        let orders = [
            ("emission order", ordered),
            ("reversed", reversed),
            ("equal weights", (0..n).map(|i| at(i, 1.0)).collect()),
            (
                "sawtooth",
                (0..n).map(|i| at(i, f64::from(i % stride))).collect(),
            ),
        ];
        // Steps above eight tiers keep at most a quarter of their segment,
        // the others at most three quarters.
        let max_steps = (n as usize / TIER).ilog2() as usize / 2 + 8;
        for (name, batch) in orders {
            let expected = sorted(batch.clone());
            let mut run = Run::new(batch);
            run.front();
            let mut ends = run.splits.clone();
            ends.push(run.sorted);
            for step in ends.windows(2) {
                let (seg, front) = (step[0], step[1]);
                let target = if seg > 8 * TIER { seg / 8 } else { seg / 2 };
                assert!(
                    target / 4 <= front && front <= (2 * target).min(seg - seg / 4),
                    "{name}: a step kept {front} of {seg}"
                );
            }
            assert!(run.sorted <= TIER, "{name}: {} sorted", run.sorted);
            let (drained, later) = drain_counting_steps(run);
            let most = later.max(ends.len() - 1);
            assert!(most <= max_steps, "{name}: a tier took {most} steps");
            assert_eq!(drained, expected, "{name}");
        }
    }

    proptest! {
        /// Every drained sequence equals the full sort of its refill's
        /// union: batches from empty up to about five tiers with heavy
        /// weight ties, split into 1–20 uneven runs (some empty), drained
        /// to a random cut-off, refilled mid-drain and drained again.
        #[test]
        fn lazy_runs_drain_in_full_sort_order(
            sizes in (0u8..3, 0usize..5 * TIER + 1, 0usize..5 * TIER + 1),
            ties in 1u32..9,
            cuts in (
                collection::vec(0u32..=u32::from(u16::MAX), 0..20),
                collection::vec(0u32..=u32::from(u16::MAX), 0..20),
            ),
            stop in 0u32..=u32::from(u16::MAX),
            threads in 1usize..4,
        ) {
            // A third of the cases stay below one tier.
            let (class, a, b) = sizes;
            let (a, b) = if class == 0 { (a % 300, b % 300) } else { (a, b) };
            let first = tie_heavy_batch(a as u32, ties, 1);
            let second = tie_heavy_batch(b as u32, ties, 2);
            let runs_of = |batch: &[Comparison], cuts: &[u32]| {
                let at = cuts.iter().map(|&c| (c as usize * batch.len()) >> 16).collect();
                split_at_cuts(batch, at)
            };

            // The first position where a drain leaves the sorted union.
            let diverges = |got: &[Comparison], want: &[Comparison]| {
                (got.len() != want.len() || got != want)
                    .then(|| got.iter().zip(want).position(|(a, b)| a != b))
            };

            let mut list = EmissionList::new(Parallelism::new(threads).unwrap());
            list.refill(runs_of(&first, &cuts.0));
            prop_assert_eq!(list.remaining(), first.len());
            let expected = sorted(first.clone());
            let stop = (stop as usize * (first.len() + 1)) >> 16;
            let prefix: Vec<Comparison> = (0..stop).map_while(|_| list.remove_first()).collect();
            prop_assert_eq!(diverges(&prefix, &expected[..stop]), None);
            prop_assert_eq!(list.remaining(), first.len() - stop);

            list.refill(runs_of(&second, &cuts.1));
            prop_assert_eq!(list.remaining(), second.len());
            prop_assert_eq!(diverges(&drain(&mut list), &sorted(second)), None);
            prop_assert!(list.is_empty());
        }
    }
}
