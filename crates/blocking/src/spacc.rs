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
//! least-common-block tag is what lets [`weighted_edge_list`] restore the
//! exact block-major first-occurrence edge order of the legacy builders
//! with one stable counting sort, and consumers that never need a
//! materialized graph (node-centric pruning, PBS block refills, PPS
//! scheduling) drain the scratch directly.
//!
//! The kernel sweeps one substrate pair: a [`BlockCollection`] and the
//! CSR [`ProfileIndex`] built over it. Batch builds and stream epochs both
//! hand it that pair, since every epoch snapshots its blocks first.

use crate::block::{BlockCollection, BlockId};
use crate::profile_index::ProfileIndex;
use crate::simd::KernelPath;
use crate::weights::{FinalizeTable, WeightingScheme};
use sper_model::{ErKind, Pair, ProfileId};

/// Reinterprets a sorted member partition as raw `u32` lanes for the SIMD
/// kernels — free because [`ProfileId`] is `repr(transparent)` over `u32`.
#[inline]
fn raw_ids(partition: &[ProfileId]) -> &[u32] {
    // SAFETY: `ProfileId` is `#[repr(transparent)]` over `u32`, so the two
    // slice types have identical layout, alignment, and validity.
    unsafe { std::slice::from_raw_parts(partition.as_ptr().cast::<u32>(), partition.len()) }
}

/// Which neighbors a sweep visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepDir {
    /// Every valid neighbor — node-centric consumers (PPS scheduling,
    /// WNP/CNP pruning) see whole neighborhoods.
    Full,
    /// Only neighbors with a larger profile id — edge-producing consumers
    /// discover each edge exactly once, from its smaller endpoint.
    Forward,
}

/// Cumulative statistics of an accumulator's lifetime, maintained with a
/// handful of plain `u64` adds per *sweep* (never per co-occurrence) so
/// the kernel's inner loop is untouched. Drained by the observability
/// layer at the end of a build or epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweeps run (full + forward).
    pub sweeps: u64,
    /// Scratch resets.
    pub resets: u64,
    /// Total neighbors touched across all sweeps (= sum of degrees seen).
    pub touched: u64,
}

impl SweepStats {
    /// The counters accumulated since `earlier` — how work-stealing chunks
    /// report per-chunk statistics from a per-worker scratch that lives
    /// across many chunks.
    pub fn delta_since(self, earlier: SweepStats) -> SweepStats {
        SweepStats {
            sweeps: self.sweeps - earlier.sweeps,
            resets: self.resets - earlier.resets,
            touched: self.touched - earlier.touched,
        }
    }
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
    /// Ids of neighbors with non-zero accumulation, in discovery order
    /// until [`Self::sort_touched`] is called.
    touched: Vec<u32>,
    /// One bit per profile — the dense drain path of
    /// [`Self::drain_ascending`] marks touched ids here and scans words
    /// ascending instead of sorting the touched list. All-zero between
    /// drains.
    mask: Vec<u64>,
    /// The accumulate-kernel implementation every sweep dispatches to.
    path: KernelPath,
    /// Lifetime sweep/reset counters (see [`SweepStats`]).
    stats: SweepStats,
}

impl WeightAccumulator {
    /// A zeroed accumulator over `n_profiles` profiles, sweeping with the
    /// process-wide dispatched kernel ([`KernelPath::active`]).
    pub fn new(n_profiles: usize) -> Self {
        Self::with_path(n_profiles, KernelPath::active())
    }

    /// A zeroed accumulator pinned to a specific kernel implementation —
    /// the equivalence suites compare paths inside one process with this.
    pub fn with_path(n_profiles: usize, path: KernelPath) -> Self {
        Self {
            acc: vec![0.0; n_profiles],
            lcb: vec![0; n_profiles],
            touched: Vec::new(),
            mask: vec![0; n_profiles.div_ceil(64)],
            path,
            stats: SweepStats::default(),
        }
    }

    /// The kernel implementation this scratch sweeps with.
    pub fn path(&self) -> KernelPath {
        self.path
    }

    /// Lifetime sweep statistics of this scratch.
    pub fn stats(&self) -> SweepStats {
        self.stats
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
             every accumulated weight — call reset() or drain_ascending() \
             between sweeps",
            self.touched.len()
        );
        // The vector accumulate kernels index the scratch unchecked; every
        // id they see is a member of `blocks`, hence below its profile count.
        assert!(
            blocks.n_profiles() <= self.acc.len(),
            "scratch covers {} profiles, the swept collection {}",
            self.acc.len(),
            blocks.n_profiles()
        );
        let path = self.path;
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
                // The filtered sweep (PPS emission, Alg. 6) stays scalar:
                // the `checked` test makes both the touched pushes and the
                // adds data-dependent per lane.
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
                path.accumulate(
                    raw_ids(left),
                    contribution,
                    bid,
                    &mut self.acc,
                    &mut self.lcb,
                    &mut self.touched,
                );
                path.accumulate(
                    raw_ids(right),
                    contribution,
                    bid,
                    &mut self.acc,
                    &mut self.lcb,
                    &mut self.touched,
                );
            }
        }
        self.stats.sweeps += 1;
        self.stats.touched += self.touched.len() as u64;
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

    /// Neighbors touched by the last sweep (discovery order until sorted).
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// True when the last sweep touched nothing (or after a reset).
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Sorts the touched list ascending by neighbor id — the edge-emission
    /// order of the graph builders.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// Sorts the touched list by `(least common block, neighbor id)` — the
    /// order in which a materialized graph's adjacency visits the
    /// neighborhood (edges are stored in block-major first-occurrence
    /// order, and within one block a node's partners appear in ascending id
    /// order). Node-centric consumers that must reproduce the adjacency
    /// float-summation order (WNP's local mean) sort with this.
    pub fn sort_touched_by_adjacency(&mut self) {
        let lcb = &self.lcb;
        self.touched.sort_unstable_by_key(|&j| (lcb[j as usize], j));
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
    /// zeroed for the next sweep. The clear runs through the chunked
    /// scatter loop of [`crate::simd`].
    pub fn reset(&mut self) {
        crate::simd::clear_touched(&self.touched, &mut self.acc);
        self.touched.clear();
        self.stats.resets += 1;
    }

    /// Emits every touched neighbor in **ascending id order** — `f(j,
    /// accumulated, least_common_block)` — and resets the scratch, fused
    /// into one pass. This replaces the `sort_touched` → iterate →
    /// `reset` sequence on the edge-emission hot path.
    ///
    /// The ordering strategy is adaptive:
    ///
    /// * **dense** neighborhoods (the overwhelmingly common case: the
    ///   touched count rivals the profile count / 64) set one bit per
    ///   neighbor in a reusable per-scratch bitmap and scan its words
    ///   ascending with `trailing_zeros` — `O(degree + |P|/64)`, no sort,
    ///   and the `acc` clear rides the same cache lines the scan reads;
    /// * **sparse** neighborhoods fall back to the unstable sort the old
    ///   path used — `O(degree · log degree)` but without scanning a
    ///   bitmap that is mostly zeros.
    ///
    /// Both strategies visit exactly the touched ids in exactly ascending
    /// order, so the emission sequence is independent of the cutover.
    pub fn drain_ascending(&mut self, mut f: impl FnMut(u32, f64, u32)) {
        let words = self.acc.len().div_ceil(64);
        if self.touched.len() >= words / 8 {
            let (touched, mask) = (&self.touched, &mut self.mask);
            debug_assert!(mask.len() >= words);
            for &j in touched {
                mask[(j / 64) as usize] |= 1u64 << (j % 64);
            }
            for w in 0..words {
                let mut bits = self.mask[w];
                if bits == 0 {
                    continue;
                }
                self.mask[w] = 0;
                while bits != 0 {
                    let j = (w as u32) * 64 + bits.trailing_zeros();
                    bits &= bits - 1;
                    let sum = self.acc[j as usize];
                    self.acc[j as usize] = 0.0;
                    f(j, sum, self.lcb[j as usize]);
                }
            }
        } else {
            self.touched.sort_unstable();
            for t in 0..self.touched.len() {
                let j = self.touched[t];
                let sum = self.acc[j as usize];
                self.acc[j as usize] = 0.0;
                f(j, sum, self.lcb[j as usize]);
            }
        }
        self.touched.clear();
        self.stats.resets += 1;
    }
}

/// Streams every distinct weighted comparison of `blocks` to `emit` —
/// **zero materialization**: the only allocation alive is the reusable
/// scratch, so peak memory is `O(|P|)` regardless of how many edges the
/// collection entails.
///
/// Edges arrive in per-profile discovery order (ascending smaller
/// endpoint, then ascending larger endpoint), each tagged with its least
/// common block. Consumers that aggregate, prune, or top-k per node do not
/// care about the legacy block-major order; those that need it
/// (materialized-graph parity) use [`weighted_edge_list`], which restores
/// it with one counting pass over an edge buffer it must allocate anyway.
pub fn for_each_weighted_edge(
    blocks: &BlockCollection,
    index: &ProfileIndex,
    scheme: WeightingScheme,
    mut emit: impl FnMut(Pair, f64, BlockId),
) {
    let n = blocks.n_profiles();
    let table = FinalizeTable::build(index, scheme, n);
    let mut acc = WeightAccumulator::new(n);
    for i in 0..n {
        let i = ProfileId(i as u32);
        acc.sweep_forward(blocks, index, scheme, i);
        acc.drain_ascending(|j, sum, lcb| {
            emit(
                Pair::new(i, ProfileId(j)),
                table.weight(i.0, j, sum),
                BlockId(lcb),
            );
        });
    }
}

/// The sparse-accumulator replacement of the legacy edge-list builder:
/// produces every distinct weighted comparison of `blocks` in the exact
/// edge order of the seed seen-set builder (block-major first occurrence,
/// within a block in comparison-enumeration order), fanning the
/// per-profile sweeps out over work-stealing chunks of `par` workers.
///
/// The builder is a **two-pass counting scatter** — it never materializes
/// per-shard edge buffers (the old single-pass route pushed every edge
/// into a shard `Vec`, re-read it to histogram the least-common-block
/// tags, and re-read it again to scatter; three full passes over hundreds
/// of megabytes at scale):
///
/// 1. **Count** — every chunk forward-sweeps its profiles and histograms
///    the touched least-common-block tags (`O(|B|)` integers per chunk,
///    kilobytes). Combining the per-chunk histograms in chunk order gives
///    every `(chunk, block)` cell a private, precomputed destination range
///    in the output.
/// 2. **Scatter** — every chunk re-sweeps (sweeps are the cheap part of
///    the kernel), drains each neighborhood in ascending order, finalizes
///    the weights through the dispatched SIMD table kernel, and writes
///    each edge **directly into its final slot**.
///
/// Order and determinism: the destination ranges follow (block, chunk,
/// within-chunk discovery) order, and within one chunk edges arrive in
/// `(i, j)`-lexicographic order — together that is exactly the stable
/// counting sort by least common block the legacy builder's output order
/// demands, reproduced bit for bit at any worker count. Work-stealing only
/// changes *which thread* executes a chunk, never the chunk boundaries or
/// any destination index.
pub fn weighted_edge_list(
    blocks: &BlockCollection,
    index: &ProfileIndex,
    scheme: WeightingScheme,
    par: crate::Parallelism,
) -> Vec<(Pair, f64)> {
    let mut span = sper_obs::span!("blocking.weighted_edge_list", workers = par.get());
    let n = blocks.n_profiles();
    let n_blocks = index.total_blocks();
    let table = FinalizeTable::build(index, scheme, n);

    // Pass 1: per-chunk least-common-block histograms.
    let histograms: Vec<(Vec<u32>, SweepStats)> = par.steal_chunks(
        n,
        crate::parallel::STEAL_MIN_CHUNK,
        || WeightAccumulator::new(n),
        |acc, range, _chunk| {
            let before = acc.stats();
            let mut counts = vec![0u32; n_blocks];
            for i in range {
                let i = ProfileId(i as u32);
                acc.sweep_forward(blocks, index, scheme, i);
                for &j in acc.touched() {
                    counts[acc.least_common_block(ProfileId(j)).0 as usize] += 1;
                }
                acc.reset();
            }
            (counts, acc.stats().delta_since(before))
        },
    );

    // Destination ranges: block-major, then chunk order, then within-chunk
    // discovery order — the cursor table of chunk `c` starts where the
    // global block offset plus all earlier chunks' counts end.
    let mut totals = vec![0u32; n_blocks];
    for (counts, _) in &histograms {
        for (t, &c) in totals.iter_mut().zip(counts) {
            *t += c;
        }
    }
    let offsets = crate::block::prefix_offsets(&totals);
    let total = offsets[n_blocks] as usize;
    let mut running: Vec<u32> = offsets[..n_blocks].to_vec();
    let cursors: Vec<Vec<u32>> = histograms
        .iter()
        .map(|(counts, _)| {
            let snapshot = running.clone();
            for (r, &c) in running.iter_mut().zip(counts) {
                *r += c;
            }
            snapshot
        })
        .collect();

    // Pass 2: re-sweep and scatter straight into the final buffer. The
    // chunk layout is a pure function of `(n, crate::parallel::STEAL_MIN_CHUNK, par)`, so
    // pass 2 revisits exactly the profile ranges pass 1 counted.
    let mut out: Vec<(Pair, f64)> = Vec::with_capacity(total);
    struct OutPtr(*mut (Pair, f64));
    // SAFETY: the raw pointer is only used for disjoint writes — every
    // (chunk, block) cell owns the private index range
    // [cursors[chunk][block], cursors[chunk][block] + counts) computed
    // above, and chunks only advance their own cursors.
    unsafe impl Sync for OutPtr {}
    let out_ptr = OutPtr(out.as_mut_ptr());
    let out_ref = &out_ptr;
    let scatter_stats: Vec<SweepStats> = par.steal_chunks(
        n,
        crate::parallel::STEAL_MIN_CHUNK,
        || {
            (
                WeightAccumulator::new(n),
                Vec::<u32>::new(),
                Vec::<f64>::new(),
                Vec::<u32>::new(),
                Vec::<f64>::new(),
            )
        },
        |(acc, jbuf, sumbuf, lcbbuf, wbuf), range, chunk| {
            let before = acc.stats();
            let path = acc.path();
            let mut cursor = cursors[chunk].clone();
            for i in range {
                let i = ProfileId(i as u32);
                acc.sweep_forward(blocks, index, scheme, i);
                jbuf.clear();
                sumbuf.clear();
                lcbbuf.clear();
                acc.drain_ascending(|j, sum, lcb| {
                    jbuf.push(j);
                    sumbuf.push(sum);
                    lcbbuf.push(lcb);
                });
                table.weights_into(path, i.0, jbuf, sumbuf, wbuf);
                for ((&j, &lcb), &w) in jbuf.iter().zip(lcbbuf.iter()).zip(wbuf.iter()) {
                    let at = &mut cursor[lcb as usize];
                    // SAFETY: `*at` lies inside this (chunk, block) cell's
                    // private range — pass 2 re-sweeps the exact profile
                    // range pass 1 histogrammed, so the cell emits exactly
                    // its counted number of edges; all cells partition
                    // `0..total`, every slot is written exactly once, and
                    // the scope join below sequences the writes before
                    // `set_len`.
                    unsafe {
                        out_ref
                            .0
                            .add(*at as usize)
                            .write((Pair::new(i, ProfileId(j)), w));
                    }
                    *at += 1;
                }
            }
            acc.stats().delta_since(before)
        },
    );
    debug_assert_eq!(scatter_stats.len(), cursors.len());
    // SAFETY: pass 2 initialized every slot of `0..total` exactly once
    // (see the scatter-write justification above), and `(Pair, f64)` is
    // `Copy` with no drop obligations.
    unsafe {
        out.set_len(total);
    }

    if sper_obs::trace::enabled(sper_obs::Level::Debug) {
        let mut stats = SweepStats::default();
        for s in histograms
            .iter()
            .map(|(_, s)| s)
            .chain(scatter_stats.iter())
        {
            stats.sweeps += s.sweeps;
            stats.resets += s.resets;
            stats.touched += s.touched;
        }
        sper_obs::event!(
            sper_obs::Level::Debug,
            "spacc.sweep_stats",
            sweeps = stats.sweeps,
            resets = stats.resets,
            touched = stats.touched,
        );
    }

    span.record("edges", out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;
    use crate::token_blocking::TokenBlocking;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn fig3_setup() -> (BlockCollection, ProfileIndex) {
        let mut blocks = TokenBlocking::default().build(&fig3_profiles());
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

    #[test]
    fn edge_list_covers_all_distinct_comparisons() {
        let (blocks, index) = fig3_setup();
        let edges = weighted_edge_list(
            &blocks,
            &index,
            WeightingScheme::Arcs,
            crate::Parallelism::SEQUENTIAL,
        );
        // Fig. 3: complete graph over 6 nodes.
        assert_eq!(edges.len(), 15);
        // The zero-materialization stream covers the same edge set with the
        // same weights (different order: discovery vs block-major).
        let mut streamed = Vec::new();
        for_each_weighted_edge(&blocks, &index, WeightingScheme::Arcs, |p, w, lcb| {
            assert_eq!(index.intersect(p.first, p.second).least_common, Some(lcb));
            streamed.push((p, w));
        });
        let sort = |mut v: Vec<(Pair, f64)>| {
            v.sort_by_key(|e| e.0);
            v
        };
        assert_eq!(sort(streamed), sort(edges.clone()));
    }
}
