//! The sparse-accumulator weighting kernel: meta-blocking edge weights
//! without a materialized edge list.
//!
//! The batch route to edge weights — materialize every distinct comparison,
//! dedup it through a hash set, and merge-intersect the two profiles' block
//! lists per pair — is exactly the cost the paper argues progressive methods
//! should not pay (§3.2: "materializing and sorting all edges is
//! impractical for large datasets"). This module replaces it with the
//! SpGEMM-style *sparse accumulator* sweep:
//!
//! for each profile `i`, walk its blocks through the Profile-Index CSR and
//! scatter each block's `per_block` contribution into a **dense scratch
//! array** indexed by neighbor id, recording first-touched neighbors in a
//! **touched list**. After the walk, `scratch[j]` holds the full
//! accumulated weight of edge `(i, j)` and the touched list enumerates the
//! non-zero entries, so the reset costs `O(degree(i))` — no `HashMap`, no
//! per-pair `seen` set, no re-hashing, and every edge weight is produced
//! with `O(1)` amortized work per co-occurrence instead of an
//! `O(|B_i| + |B_j|)` merge per pair.
//!
//! Determinism is free: for a pair `(i, j)` the sweep adds the shared
//! blocks' contributions in ascending block-id order — the same order the
//! sorted-list merge of [`ProfileIndex::intersect`] visits them — so the
//! floating-point sums are **bit-identical** to the pairwise path, and the
//! first touch of `j` happens at the pair's *least common block* (the
//! LeCoBI witness, §5.2.1), which the kernel records per neighbor. That
//! least-common-block tag is what lets [`crate::BlockingGraph::build`]
//! restore the exact block-major first-occurrence edge order of the legacy
//! builder with one counting pass, and what PBS's block refills test
//! LeCoBI with; PPS scheduling reads whole neighborhoods.
//!
//! The kernel sweeps one substrate pair: a [`BlockCollection`] and the
//! CSR [`ProfileIndex`] built over it. Batch builds and stream epochs both
//! hand it that pair, since every epoch snapshots its blocks first.

use crate::block::{BlockCollection, BlockId};
use crate::profile_index::ProfileIndex;
use crate::weights::WeightingScheme;
use sper_model::{ErKind, ProfileId};

/// The accumulate kernel a sweep runs. There is one, the scalar loop of
/// [`WeightAccumulator`]; the type remains so a run record can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPath;

impl KernelPath {
    /// The kernel every sweep of this build runs.
    pub fn active() -> Self {
        KernelPath
    }

    /// Short name for run records: `"scalar"`.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// Which neighbors a sweep visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepDir {
    /// Every valid neighbor — PPS scheduling sees whole neighborhoods.
    Full,
    /// Only neighbors with a larger profile id — edge-producing consumers
    /// discover each edge exactly once, from its smaller endpoint.
    Forward,
}

/// The reusable sparse-accumulator scratch: one dense `f64` slot and one
/// least-common-block tag per profile, plus the touched list that makes
/// resets `O(degree)`.
///
/// Allocation happens once per worker; every sweep reuses the arrays. The
/// scratch is **transient by design**: it holds no information that is not
/// a pure function of the substrate it sweeps, so it is deliberately
/// excluded from persistence (`sper-store` rebuilds it on rehydration —
/// see DESIGN.md "Sparse-accumulator weighting").
#[derive(Debug, Clone)]
pub struct WeightAccumulator {
    /// Accumulated per-shared-block contribution, by neighbor id. `0.0`
    /// doubles as the "untouched" sentinel — every scheme's per-block
    /// contribution is strictly positive.
    acc: Vec<f64>,
    /// Least common (first shared) block id, by neighbor id; only valid
    /// for currently-touched neighbors.
    lcb: Vec<u32>,
    /// Ids of neighbors with non-zero accumulation, in discovery order.
    touched: Vec<u32>,
}

impl WeightAccumulator {
    /// A zeroed accumulator over `n_profiles` profiles.
    pub fn new(n_profiles: usize) -> Self {
        Self {
            acc: vec![0.0; n_profiles],
            lcb: vec![0; n_profiles],
            touched: Vec::new(),
        }
    }

    /// Number of profiles the scratch covers.
    pub fn n_profiles(&self) -> usize {
        self.acc.len()
    }

    // Private kernel core — the two public wrappers (`sweep`,
    // `sweep_forward`) are the real API.
    fn sweep_impl(
        &mut self,
        blocks: &BlockCollection,
        index: &ProfileIndex,
        scheme: WeightingScheme,
        i: ProfileId,
        dir: SweepDir,
        checked: Option<&[bool]>,
    ) {
        assert!(
            self.touched.is_empty(),
            "sweep on a non-reset scratch: {} touched entries would corrupt \
             every accumulated weight — call reset() between sweeps",
            self.touched.len()
        );
        let kind = blocks.kind();
        for &bid in index.blocks_of(i) {
            let contribution = scheme.per_block(index.cardinality(BlockId(bid)));
            let block = blocks.get(BlockId(bid));
            let mem = block.profiles();
            let n_first = block.first_source().len();
            // Valid co-occurrences: Dirty — everyone else in the block;
            // Clean-clean — the opposite source partition. The forward
            // sweep keeps only ids beyond `i`, exploiting the sorted
            // member partitions (and, for Clean-clean, the collection
            // invariant that every P1 id precedes every P2 id). The
            // co-occurrences come out as up to two `i`-free segments so
            // the kernels below need no per-lane `j == i` test: only the
            // Dirty full sweep has `i` inside its partition, and there it
            // is split out by binary search.
            let (left, right): (&[ProfileId], &[ProfileId]) = match kind {
                ErKind::Dirty => match dir {
                    SweepDir::Full => match mem.binary_search(&i) {
                        Ok(at) => (&mem[..at], &mem[at + 1..]),
                        Err(at) => (&mem[..at], &mem[at..]),
                    },
                    SweepDir::Forward => {
                        let beyond = mem.partition_point(|&p| p <= i);
                        (&mem[beyond..], &[][..])
                    }
                },
                ErKind::CleanClean => {
                    if mem[..n_first].binary_search(&i).is_ok() {
                        (&mem[n_first..], &[][..])
                    } else if dir == SweepDir::Forward {
                        // `i` is a P2 profile: every cross-source partner
                        // has a smaller id.
                        (&[][..], &[][..])
                    } else {
                        (&mem[..n_first], &[][..])
                    }
                }
            };
            if let Some(checked) = checked {
                // The filtered sweep (PPS emission, Alg. 6) keeps its own
                // loop, so the unfiltered one carries no per-id test.
                for &j in left.iter().chain(right) {
                    if checked[j.index()] {
                        continue;
                    }
                    if self.acc[j.index()] == 0.0 {
                        self.touched.push(j.0);
                        self.lcb[j.index()] = bid;
                    }
                    self.acc[j.index()] += contribution;
                }
            } else {
                for ids in [left, right] {
                    accumulate(
                        ids,
                        contribution,
                        bid,
                        &mut self.acc,
                        &mut self.lcb,
                        &mut self.touched,
                    );
                }
            }
        }
    }

    /// Accumulates the full valid neighborhood of `i`, optionally skipping
    /// already-`checked` profiles (PPS's emission phase, Alg. 6 lines
    /// 10–12). The scratch must be reset (fresh or [`Self::reset`]).
    ///
    /// # Panics
    ///
    /// Panics — in every build profile — when the scratch still holds
    /// touched entries from a previous sweep: accumulating on top of stale
    /// sums silently corrupts every weight, so the contract violation is a
    /// hard error rather than a `debug_assert!` that release builds skip.
    pub fn sweep(
        &mut self,
        blocks: &BlockCollection,
        index: &ProfileIndex,
        scheme: WeightingScheme,
        i: ProfileId,
        checked: Option<&[bool]>,
    ) {
        self.sweep_impl(blocks, index, scheme, i, SweepDir::Full, checked);
    }

    /// Accumulates only the neighbors of `i` with a **larger id** — the
    /// edge-discovery sweep: running it for every profile in ascending
    /// order visits each distinct edge exactly once, from its smaller
    /// endpoint, with the same accumulated weight either endpoint would
    /// compute.
    ///
    /// # Panics
    ///
    /// Panics when the scratch is not reset — see [`Self::sweep`].
    pub fn sweep_forward(
        &mut self,
        blocks: &BlockCollection,
        index: &ProfileIndex,
        scheme: WeightingScheme,
        i: ProfileId,
    ) {
        self.sweep_impl(blocks, index, scheme, i, SweepDir::Forward, None);
    }

    /// Neighbors touched by the last sweep, in discovery order: block by
    /// block in ascending block id, and within a block in ascending
    /// neighbor id — so the neighbors first touched in one block (those
    /// whose least common block it is) form one ascending run.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// True when the last sweep touched nothing (or after a reset).
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The raw accumulated contribution sum of neighbor `j` (zero when
    /// untouched).
    #[inline]
    pub fn raw(&self, j: ProfileId) -> f64 {
        self.acc[j.index()]
    }

    /// The least common block of `(i, j)` found by the last sweep — the
    /// LeCoBI witness. Only meaningful for touched neighbors.
    #[inline]
    pub fn least_common_block(&self, j: ProfileId) -> BlockId {
        debug_assert!(self.acc[j.index()] != 0.0, "lcb of an untouched neighbor");
        BlockId(self.lcb[j.index()])
    }

    /// Finalizes the accumulated sum of neighbor `j` into the edge weight
    /// of `(i, j)` — identical to [`ProfileIndex::weight`] bit for bit.
    #[inline]
    pub fn finalize(
        &self,
        index: &ProfileIndex,
        scheme: WeightingScheme,
        i: ProfileId,
        j: ProfileId,
    ) -> f64 {
        scheme.finalize(
            self.acc[j.index()],
            index.blocks_of(i).len(),
            index.blocks_of(j).len(),
            index.total_blocks(),
        )
    }

    /// Clears the touched entries — `O(degree)`, leaving the dense arrays
    /// zeroed for the next sweep.
    pub fn reset(&mut self) {
        clear_touched(&self.touched, &mut self.acc);
        self.touched.clear();
    }
}

/// The accumulate step of a sweep: adds one block's `contribution` to
/// `acc` for every id of `ids`, pushing first-touched ids onto `touched`
/// (in `ids` order) with `bid` as their least-common-block witness. The
/// scratch arrays come in as separate borrows, so a `touched` push cannot
/// alias them.
#[inline]
fn accumulate(
    ids: &[ProfileId],
    contribution: f64,
    bid: u32,
    acc: &mut [f64],
    lcb: &mut [u32],
    touched: &mut Vec<u32>,
) {
    for &j in ids {
        let slot = &mut acc[j.index()];
        if *slot == 0.0 {
            touched.push(j.0);
            lcb[j.index()] = bid;
        }
        *slot += contribution;
    }
}

/// Zeroes the touched slots of `acc` — the reset hot loop, unrolled
/// 4-wide for store-port ILP.
fn clear_touched(touched: &[u32], acc: &mut [f64]) {
    let mut chunks = touched.chunks_exact(4);
    for c in &mut chunks {
        acc[c[0] as usize] = 0.0;
        acc[c[1] as usize] = 0.0;
        acc[c[2] as usize] = 0.0;
        acc[c[3] as usize] = 0.0;
    }
    for &j in chunks.remainder() {
        acc[j as usize] = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;
    use crate::graph::BlockingGraph;
    use crate::token_blocking::TokenBlocking;
    use sper_model::ProfileCollectionBuilder;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn fig3_setup() -> (BlockCollection, ProfileIndex) {
        let mut blocks = TokenBlocking.build(&fig3_profiles());
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        (blocks, index)
    }

    #[test]
    fn sweep_weights_match_pairwise_merge() {
        let (blocks, index) = fig3_setup();
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        for scheme in WeightingScheme::ALL {
            for i in 0..blocks.n_profiles() as u32 {
                let i = pid(i);
                acc.sweep(&blocks, &index, scheme, i, None);
                for t in 0..acc.touched().len() {
                    let j = pid(acc.touched()[t]);
                    let sweep_w = acc.finalize(&index, scheme, i, j);
                    let merge_w = index.weight(i, j, scheme);
                    assert_eq!(
                        sweep_w.to_bits(),
                        merge_w.to_bits(),
                        "scheme {scheme}, pair ({i:?}, {j:?})"
                    );
                }
                acc.reset();
            }
        }
    }

    #[test]
    fn lcb_matches_intersect_witness() {
        let (blocks, index) = fig3_setup();
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        for i in 0..blocks.n_profiles() as u32 {
            let i = pid(i);
            acc.sweep(&blocks, &index, WeightingScheme::Arcs, i, None);
            for t in 0..acc.touched().len() {
                let j = pid(acc.touched()[t]);
                let expected = index.intersect(i, j).least_common.unwrap();
                assert_eq!(acc.least_common_block(j), expected);
            }
            acc.reset();
        }
    }

    #[test]
    fn forward_sweep_sees_only_larger_ids() {
        let (blocks, index) = fig3_setup();
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        for i in 0..blocks.n_profiles() as u32 {
            let i = pid(i);
            acc.sweep_forward(&blocks, &index, WeightingScheme::Cbs, i);
            for &j in acc.touched() {
                assert!(j > i.0, "forward sweep of {i:?} touched {j}");
                // Forward and full sweeps agree on the shared neighbors.
                assert_eq!(
                    acc.raw(pid(j)),
                    index.weight(i, pid(j), WeightingScheme::Cbs)
                );
            }
            acc.reset();
        }
    }

    #[test]
    fn reset_clears_scratch() {
        let (blocks, index) = fig3_setup();
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        acc.sweep(&blocks, &index, WeightingScheme::Arcs, pid(0), None);
        assert!(!acc.is_empty());
        acc.reset();
        assert!(acc.is_empty());
        for j in 0..acc.n_profiles() as u32 {
            assert_eq!(acc.raw(pid(j)), 0.0);
        }
    }

    #[test]
    fn checked_filter_suppresses_neighbors() {
        let (blocks, index) = fig3_setup();
        let mut checked = vec![false; blocks.n_profiles()];
        checked[1] = true;
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        acc.sweep(
            &blocks,
            &index,
            WeightingScheme::Arcs,
            pid(0),
            Some(&checked),
        );
        assert!(!acc.touched().contains(&1));
        acc.reset();
    }

    /// Sweeping on a non-reset scratch is a hard contract violation in every
    /// build profile — stale sums would silently corrupt every weight.
    #[test]
    #[should_panic(expected = "non-reset scratch")]
    fn sweep_on_dirty_scratch_panics() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "alpha beta")]);
        b.add_profile([("t", "alpha beta")]);
        let coll = b.build();
        let blocks = TokenBlocking.build(&coll);
        let index = ProfileIndex::build(&blocks);
        let mut acc = WeightAccumulator::new(blocks.n_profiles());
        acc.sweep(&blocks, &index, WeightingScheme::Cbs, pid(0), None);
        assert!(!acc.is_empty(), "first sweep must touch profile 1");
        // No reset: the second sweep must panic, not corrupt.
        acc.sweep(&blocks, &index, WeightingScheme::Cbs, pid(1), None);
    }

    /// Degenerate inputs sweep without panicking and build an empty graph.
    #[test]
    fn empty_and_single_profile() {
        let empty = ProfileCollectionBuilder::dirty().build();
        let mut one = ProfileCollectionBuilder::dirty();
        one.add_profile([("t", "lonely tokens here")]);
        let one = one.build();
        for coll in [empty, one] {
            let blocks = TokenBlocking.build(&coll);
            let index = ProfileIndex::build(&blocks);
            let n = blocks.n_profiles();
            let mut acc = WeightAccumulator::new(n);
            for i in 0..n as u32 {
                acc.sweep_forward(&blocks, &index, WeightingScheme::Ecbs, pid(i));
                assert!(acc.is_empty(), "no neighbors exist");
                acc.reset();
            }
            for scheme in WeightingScheme::ALL {
                assert_eq!(BlockingGraph::build(&blocks, scheme).num_edges(), 0);
            }
        }
    }

    #[test]
    fn clear_touched_zeroes_exactly_the_touched_slots() {
        let mut acc = vec![1.5; 32];
        // 6 ids: one full chunk plus a 2-id tail.
        let touched = [0u32, 3, 7, 12, 21, 31];
        clear_touched(&touched, &mut acc);
        for (j, &v) in acc.iter().enumerate() {
            let expect = if touched.contains(&(j as u32)) {
                0.0
            } else {
                1.5
            };
            assert_eq!(v, expect, "slot {j}");
        }
    }
}
