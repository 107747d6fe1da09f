//! Progressive Block Scheduling (PBS), §5.2.1, Algorithms 3–4.
//!
//! The block-centric equality-based method:
//!
//! 1. build a redundancy-positive block collection (Token Blocking
//!    Workflow);
//! 2. **Block Scheduling** — sort blocks by non-decreasing cardinality
//!    (small = distinctive = likely to contain duplicates, `w(b) = 1/‖b‖`);
//! 3. process one block at a time: discard repeated comparisons with the
//!    **LeCoBI** condition, weight the new ones from the Blocking Graph via
//!    the Profile Index, and emit them in non-increasing weight.

use crate::emitter::EmissionList;
use crate::{Comparison, ProgressiveEr};
use sper_blocking::{
    BlockCollection, BlockId, Parallelism, ProfileIndex, TokenBlockingWorkflow, WeightAccumulator,
    WeightingScheme,
};
use sper_model::{ErKind, Pair, ProfileCollection, ProfileId};

/// The advanced equality-based method with block-level scheduling.
#[derive(Debug)]
pub struct Pbs {
    blocks: BlockCollection,
    index: ProfileIndex,
    scheme: WeightingScheme,
    next_block: usize,
    list: EmissionList,
    /// Reusable sparse-accumulator scratch of the anchor-sweep refill
    /// (transient by design — never persisted, rebuilt on rehydration).
    acc: WeightAccumulator,
    /// Forward neighborhood volume per profile: the number of scratch
    /// updates a forward sweep of that profile costs. The refill's
    /// sweep-vs-merge break-even gate reads this.
    forward_volume: Vec<u64>,
}

impl Pbs {
    /// Initialization phase (Algorithm 3): runs the Token Blocking Workflow,
    /// schedules the blocks and prepares the first block's comparisons.
    ///
    /// ```
    /// use sper_blocking::WeightingScheme;
    /// use sper_core::pbs::Pbs;
    /// use sper_model::ProfileCollectionBuilder;
    ///
    /// let mut b = ProfileCollectionBuilder::dirty();
    /// b.add_profile([("name", "carl white ny tailor")]);
    /// b.add_profile([("name", "karl white ny tailor")]);
    /// let profiles = b.build();
    /// let best = Pbs::new(&profiles, WeightingScheme::Arcs)
    ///     .next()
    ///     .expect("the pair shares blocks");
    /// assert!(best.weight > 0.0);
    /// ```
    pub fn new(profiles: &ProfileCollection, scheme: WeightingScheme) -> Self {
        Self::with_workflow(profiles, scheme, &TokenBlockingWorkflow::default())
    }

    /// Like [`Self::new`] with an explicit blocking workflow configuration.
    pub fn with_workflow(
        profiles: &ProfileCollection,
        scheme: WeightingScheme,
        workflow: &TokenBlockingWorkflow,
    ) -> Self {
        Self::from_blocks(workflow.run(profiles), scheme)
    }

    /// Builds PBS from an existing redundancy-positive block collection
    /// (any schema-agnostic blocking method works, §5.2).
    pub fn from_blocks(blocks: BlockCollection, scheme: WeightingScheme) -> Self {
        Self::from_blocks_par(blocks, scheme, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::from_blocks`], weighting each large scheduled block's
    /// comparisons on up to `par` workers and preparing each refill on
    /// them. Emission order is identical at every worker count: the LeCoBI
    /// dedup is a per-pair predicate, so the union of the chunk batches is
    /// the block's comparison set whatever the chunking.
    pub fn from_blocks_par(
        mut blocks: BlockCollection,
        scheme: WeightingScheme,
        par: Parallelism,
    ) -> Self {
        blocks.retain_comparable();
        blocks.sort_by_cardinality(); // Block Scheduling
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        // One pass over the member CSR: how many scratch updates a forward
        // sweep of each profile would cost (Σ over its blocks of the
        // forward partition size) — the refill gate compares this against
        // the per-pair merge cost.
        let mut forward_volume = vec![0u64; n];
        for block in blocks.iter() {
            match blocks.kind() {
                ErKind::Dirty => {
                    let members = block.profiles();
                    for (x, &p) in members.iter().enumerate() {
                        forward_volume[p.index()] += (members.len() - 1 - x) as u64;
                    }
                }
                ErKind::CleanClean => {
                    let partners = block.second_source().len() as u64;
                    for &p in block.first_source() {
                        forward_volume[p.index()] += partners;
                    }
                }
            }
        }
        let mut this = Self {
            blocks,
            index,
            scheme,
            next_block: 0,
            list: EmissionList::new(par),
            acc: WeightAccumulator::new(n),
            forward_volume,
        };
        this.fill_next_block();
        this
    }

    /// The scheduled block collection.
    pub fn blocks(&self) -> &BlockCollection {
        &self.blocks
    }

    /// Number of blocks processed so far.
    pub fn blocks_processed(&self) -> usize {
        self.next_block
    }

    /// LeCoBI-filters and weights one block's comparison slice with
    /// per-pair merge intersections — the unit of work of the sharded
    /// refill (and the reference the anchor-sweep path is tested against:
    /// both produce the identical comparison sequence).
    fn weigh_pairs(
        index: &ProfileIndex,
        scheme: WeightingScheme,
        bid: BlockId,
        pairs: &[Pair],
    ) -> Vec<Comparison> {
        pairs
            .iter()
            // LeCoBI: keep the comparison only in its least common block.
            .filter(|pair| index.is_new_comparison(pair.first, pair.second, bid))
            .map(|&pair| {
                let w = index.weight(pair.first, pair.second, scheme);
                Comparison::new(pair, w)
            })
            .collect()
    }

    /// One block's non-repeated weighted comparisons via per-anchor
    /// sparse-accumulator sweeps — no `Vec<Pair>` materialization, no
    /// per-pair merge intersections when the sweep is cheaper.
    ///
    /// For each anchor (a member with in-block partners after it), either
    /// one forward sweep produces every partner's weight **and** LeCoBI
    /// witness in `O(forward_volume)` total, or — when the anchor sits in
    /// many large blocks but has few partners here — the classic per-pair
    /// merge path is cheaper and is taken instead. Both sides of the gate
    /// emit bit-identical comparisons, so the gate is purely a wall-clock
    /// heuristic.
    fn fill_block_sequential(&mut self, bid: BlockId, batch: &mut Vec<Comparison>) {
        let Self {
            blocks,
            index,
            acc,
            forward_volume,
            scheme,
            ..
        } = self;
        let scheme = *scheme;
        let kind = blocks.kind();
        let block = blocks.get(bid);
        let members = block.profiles();
        let mut anchor = |i: ProfileId, partners: &[ProfileId]| {
            if partners.is_empty() {
                return;
            }
            // Sweep cost ≈ forward_volume[i] scratch updates; per-pair cost
            // ≈ partners · (|B_i| + |B_j|) merge steps, lower-bounded by
            // partners · 2|B_i| on redundancy-positive collections.
            let merge_est =
                (partners.len() as u64).saturating_mul(2 * index.blocks_of(i).len() as u64);
            if forward_volume[i.index()] <= merge_est {
                acc.sweep_forward(blocks, index, scheme, i);
                for &j in partners {
                    // LeCoBI: keep the pair only where the sweep first saw
                    // it — its least common block.
                    if acc.least_common_block(j) == bid {
                        batch.push(Comparison::new(
                            Pair::new(i, j),
                            acc.finalize(index, scheme, i, j),
                        ));
                    }
                }
                acc.reset();
            } else {
                for &j in partners {
                    if index.is_new_comparison(i, j, bid) {
                        batch.push(Comparison::new(Pair::new(i, j), index.weight(i, j, scheme)));
                    }
                }
            }
        };
        match kind {
            ErKind::Dirty => {
                for x in 0..members.len().saturating_sub(1) {
                    anchor(members[x], &members[x + 1..]);
                }
            }
            ErKind::CleanClean => {
                let seconds = block.second_source();
                for &i in block.first_source() {
                    anchor(i, seconds);
                }
            }
        }
    }

    /// Loads the next block's non-repeated comparisons into the Comparison
    /// List (Algorithm 3 lines 4–12): anchor sweeps on the sequential
    /// path, the LeCoBI filter and edge weighting fanned out over the
    /// configured workers for super-break-even blocks. Returns false when
    /// no block is left.
    fn fill_next_block(&mut self) -> bool {
        while self.next_block < self.blocks.len() {
            let bid = BlockId(self.next_block as u32);
            self.next_block += 1;
            // Most token blocks are tiny; below the spawn break-even the
            // fan-out would cost more than the weighting it distributes.
            let cardinality = self.blocks.cardinality(bid) as usize;
            let par = self.list.parallelism().break_even(cardinality);
            if par.is_sequential() {
                let mut batch: Vec<Comparison> = Vec::new();
                self.fill_block_sequential(bid, &mut batch);
                if batch.is_empty() {
                    continue;
                }
                self.list.refill([batch]);
            } else {
                let kind = self.blocks.kind();
                let pairs = self.blocks.get(bid).comparisons(kind);
                let (index, scheme) = (&self.index, self.scheme);
                // Work-stealing chunks (no per-worker scratch: the LeCoBI
                // filter and weighting read shared state only); each
                // chunk's batch is a pure function of its pair range and
                // becomes one run of the Comparison List.
                let chunks = par.steal_chunks(
                    pairs.len(),
                    sper_blocking::STEAL_MIN_CHUNK,
                    || (),
                    |(), range| Self::weigh_pairs(index, scheme, bid, &pairs[range]),
                );
                if chunks.iter().all(Vec::is_empty) {
                    continue;
                }
                self.list.refill(chunks);
            }
            return true;
        }
        false
    }
}

impl Iterator for Pbs {
    type Item = Comparison;

    /// Emission phase (Algorithm 4): next best comparison of the current
    /// block, refilling from the next scheduled block when dry.
    fn next(&mut self) -> Option<Comparison> {
        loop {
            if let Some(c) = self.list.remove_first() {
                return Some(c);
            }
            if !self.fill_next_block() {
                return None;
            }
        }
    }
}

impl ProgressiveEr for Pbs {
    fn method_name(&self) -> &'static str {
        "PBS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::TokenBlocking;
    use sper_model::{Pair, ProfileCollectionBuilder, ProfileId};
    use std::collections::HashSet;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    /// PBS over the raw Fig. 3(b) blocks (no purging/filtering), matching
    /// Example 5 / Fig. 7.
    fn fig3_pbs() -> Pbs {
        let blocks = TokenBlocking.build(&fig3_profiles());
        Pbs::from_blocks(blocks, WeightingScheme::Arcs)
    }

    #[test]
    fn fig7_emission_order() {
        // Fig. 7: the singleton-comparison blocks (carl, ml, teacher) come
        // first; c12 and c45 are emitted once each (LeCoBI discards their
        // repeats in later blocks), and both precede any non-matching pair.
        let emissions: Vec<Comparison> = fig3_pbs().collect();
        let pairs: Vec<Pair> = emissions.iter().map(|c| c.pair).collect();
        let c12 = Pair::new(pid(0), pid(1));
        let c45 = Pair::new(pid(3), pid(4));
        let first_three: HashSet<Pair> = pairs[..3].iter().copied().collect();
        assert!(first_three.contains(&c12), "c12 among first emissions");
        assert!(first_three.contains(&c45), "c45 among first emissions");
        // No repeats at all: LeCoBI is exact.
        let distinct: HashSet<Pair> = pairs.iter().copied().collect();
        assert_eq!(distinct.len(), pairs.len());
        // Eventually all 15 co-occurring pairs are emitted exactly once.
        assert_eq!(pairs.len(), 15);
    }

    #[test]
    fn lecobi_example_from_paper() {
        // Example 5: c45 satisfies LeCoBI in its first block (ml or teacher,
        // whichever scheduled first) and is discarded afterwards.
        let pairs: Vec<Pair> = fig3_pbs().map(|c| c.pair).collect();
        let c45 = Pair::new(pid(3), pid(4));
        assert_eq!(pairs.iter().filter(|&&p| p == c45).count(), 1);
    }

    #[test]
    fn within_block_sorted_by_weight() {
        // Drive PBS one block at a time: inside each block's batch the
        // weights must drain in non-increasing order.
        let mut pbs = fig3_pbs();
        let mut current_block = pbs.blocks_processed();
        let mut prev = f64::INFINITY;
        while let Some(c) = pbs.next() {
            if pbs.blocks_processed() != current_block {
                current_block = pbs.blocks_processed();
                prev = f64::INFINITY;
            }
            assert!(c.weight <= prev + 1e-12, "within-block order violated");
            prev = c.weight;
            // All pairs share ≥ 1 block → strictly positive ARCS weights.
            assert!(c.weight > 0.0);
        }
    }

    #[test]
    fn matches_outrank_non_matches_early() {
        let truth = fig3_ground_truth();
        let first4: Vec<Pair> = fig3_pbs().take(4).map(|c| c.pair).collect();
        let hits = first4.iter().filter(|p| truth.is_match_pair(**p)).count();
        assert!(
            hits >= 2,
            "early emissions should be match-heavy: {first4:?}"
        );
    }

    #[test]
    fn full_workflow_constructor() {
        let profiles = fig3_profiles();
        let pbs = Pbs::new(&profiles, WeightingScheme::Arcs);
        let total = pbs.count();
        assert!(total > 0);
    }

    #[test]
    fn clean_clean_cross_source() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("t", "acme corp ltd")]);
        b.add_profile([("t", "zenith inc")]);
        b.start_second_source();
        b.add_profile([("t", "acme corporation ltd")]);
        b.add_profile([("t", "zenith incorporated")]);
        let coll = b.build();
        let pbs = Pbs::new(&coll, WeightingScheme::Arcs);
        for c in pbs {
            assert!(coll.is_valid_comparison(c.pair.first, c.pair.second));
        }
    }

    #[test]
    fn empty_input_terminates() {
        let coll = ProfileCollectionBuilder::dirty().build();
        let mut pbs = Pbs::new(&coll, WeightingScheme::Arcs);
        assert!(pbs.next().is_none());
    }

    #[test]
    fn anchor_sweep_and_merge_paths_emit_identically() {
        // Both sides of the refill gate — forward sparse-accumulator
        // sweeps and per-pair LeCoBI merges — must produce the same
        // comparison sequence with bit-equal weights for every block,
        // dirty and clean-clean, under every scheme.
        let dirty = {
            let mut b = ProfileCollectionBuilder::dirty();
            for i in 0..60u32 {
                let base = i % 24;
                b.add_profile([("t", format!("tok{} shared{} white", base, base % 5))]);
            }
            b.build()
        };
        let clean = {
            let mut b = ProfileCollectionBuilder::clean_clean();
            for i in 0..30u32 {
                b.add_profile([("t", format!("tok{} white", i % 12))]);
            }
            b.start_second_source();
            for i in 0..30u32 {
                b.add_profile([("t", format!("tok{} white", i % 10))]);
            }
            b.build()
        };
        for coll in [dirty, clean] {
            for scheme in WeightingScheme::ALL {
                let blocks = TokenBlocking.build(&coll);
                let mut pbs = Pbs::from_blocks(blocks, scheme);
                let kind = pbs.blocks.kind();
                for bid in 0..pbs.blocks.len() as u32 {
                    let bid = sper_blocking::BlockId(bid);
                    let mut swept = Vec::new();
                    pbs.fill_block_sequential(bid, &mut swept);
                    let pairs = pbs.blocks.get(bid).comparisons(kind);
                    let merged = Pbs::weigh_pairs(&pbs.index, scheme, bid, &pairs);
                    assert_eq!(swept.len(), merged.len(), "block {bid:?}");
                    for (a, b) in swept.iter().zip(&merged) {
                        assert_eq!(a.pair, b.pair, "block {bid:?}");
                        assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn works_with_all_schemes() {
        let profiles = fig3_profiles();
        for scheme in WeightingScheme::ALL {
            let blocks = TokenBlocking.build(&profiles);
            let n = Pbs::from_blocks(blocks, scheme).count();
            assert_eq!(n, 15, "scheme {scheme} must not change coverage");
        }
    }
}
