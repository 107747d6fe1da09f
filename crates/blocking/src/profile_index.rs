//! The Profile Index of §5.2.1: an inverted index from profiles to the ids
//! of the blocks that contain them.
//!
//! Implemented, as the paper prescribes, as a two-dimensional array whose
//! second dimension is sorted ascending, enabling
//!
//! * the **LeCoBI** (Least Common Block Index) condition — detecting
//!   repeated comparisons in `O(|B_i| + |B_j|)` by finding the least common
//!   block id, and
//! * **Edge Weighting** — counting/aggregating shared blocks by traversing
//!   the two sorted lists in parallel.
//!
//! Both operations are fused into a single merge pass ([`ProfileIndex::intersect`]).
//!
//! The layout is **CSR** (`offsets` + one packed `block_ids` array): one
//! allocation instead of `|P|`, sequential memory for the weighting
//! sweeps. Batch builds and every stream epoch build it the same way,
//! from the block collection the methods schedule.

use crate::block::{BlockCollection, BlockId};
use crate::weights::WeightingScheme;
use sper_model::ProfileId;

/// Result of intersecting two profiles' block lists in one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectStats {
    /// `|B_i ∩ B_j|` — number of shared blocks (the CBS weight).
    pub common: u32,
    /// `Σ 1/‖b_k‖` over shared blocks (the ARCS weight).
    pub arcs: f64,
    /// The least common block id, when any block is shared.
    pub least_common: Option<BlockId>,
}

/// Single-pass merge of two sorted block-id lists against the cardinality
/// table.
fn merge_intersect(a: &[u32], b: &[u32], cardinalities: &[u64]) -> IntersectStats {
    let mut ai = 0;
    let mut bi = 0;
    let mut stats = IntersectStats {
        common: 0,
        arcs: 0.0,
        least_common: None,
    };
    while ai < a.len() && bi < b.len() {
        match a[ai].cmp(&b[bi]) {
            std::cmp::Ordering::Less => ai += 1,
            std::cmp::Ordering::Greater => bi += 1,
            std::cmp::Ordering::Equal => {
                let id = a[ai];
                if stats.least_common.is_none() {
                    stats.least_common = Some(BlockId(id));
                }
                stats.common += 1;
                stats.arcs += 1.0 / cardinalities[id as usize].max(1) as f64;
                ai += 1;
                bi += 1;
            }
        }
    }
    stats
}

/// Frozen CSR inverted index: profile id → ascending block ids in one
/// packed array, plus cached block cardinalities.
#[derive(Debug, Clone)]
pub struct ProfileIndex {
    /// `blocks_of(p) = block_ids[offsets[p]..offsets[p+1]]`.
    offsets: Vec<u32>,
    /// Packed block ids, each profile's range sorted ascending (block ids
    /// in the collection's current — typically cardinality-sorted — order).
    block_ids: Vec<u32>,
    /// `‖b‖` per block id.
    cardinalities: Vec<u64>,
    total_blocks: usize,
}

impl ProfileIndex {
    /// Builds the index over the blocks' **current order** — callers that
    /// need the LeCoBI semantics ("block id = processing position") must
    /// sort the collection with [`BlockCollection::sort_by_cardinality`]
    /// first, as Algorithm 3 does.
    ///
    /// Two counting passes over the packed member array — no per-profile
    /// allocation.
    pub fn build(blocks: &BlockCollection) -> Self {
        let n_profiles = blocks.n_profiles();
        let mut counts = vec![0u32; n_profiles];
        let mut cardinalities = Vec::with_capacity(blocks.len());
        for block in blocks.iter() {
            cardinalities.push(block.cardinality(blocks.kind()));
            for &p in block.profiles() {
                counts[p.index()] += 1;
            }
        }
        let offsets = crate::block::prefix_offsets(&counts);
        // Fill: blocks are visited in ascending id order, so each profile's
        // range fills ascending — sorted by construction.
        let mut cursor = offsets.clone();
        let mut block_ids = vec![0u32; *offsets.last().unwrap() as usize];
        for (bid, block) in blocks.iter().enumerate() {
            for &p in block.profiles() {
                let at = &mut cursor[p.index()];
                block_ids[*at as usize] = bid as u32;
                *at += 1;
            }
        }
        Self {
            offsets,
            block_ids,
            cardinalities,
            total_blocks: blocks.len(),
        }
    }

    /// `|B|`: number of blocks indexed.
    pub fn total_blocks(&self) -> usize {
        self.total_blocks
    }

    /// Number of profiles indexed (including ones in no block).
    pub fn n_profiles(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `|B_i|`: the ids of the blocks containing `p`, ascending.
    #[inline]
    pub fn blocks_of(&self, p: ProfileId) -> &[u32] {
        &self.block_ids[self.offsets[p.index()] as usize..self.offsets[p.index() + 1] as usize]
    }

    /// `‖b‖` for a block id.
    #[inline]
    pub fn cardinality(&self, b: BlockId) -> u64 {
        self.cardinalities[b.index()]
    }

    /// Single-pass merge of the two sorted block lists, producing the shared
    /// count, the ARCS sum and the least common block id.
    pub fn intersect(&self, i: ProfileId, j: ProfileId) -> IntersectStats {
        merge_intersect(self.blocks_of(i), self.blocks_of(j), &self.cardinalities)
    }

    /// The **LeCoBI condition** (§5.2.1): a comparison between `i` and `j`
    /// encountered in block `current` is *new* iff `current` is the least
    /// common block of the two profiles. With blocks sorted by processing
    /// order, `X > current` is impossible for a genuine co-occurrence.
    ///
    /// This early-exits at the first shared id, without a full merge.
    /// When no block is shared, `current` cannot contain both — the
    /// comparison is treated as new so the caller's iteration stays total.
    #[inline]
    pub fn is_new_comparison(&self, i: ProfileId, j: ProfileId, current: BlockId) -> bool {
        let (a, b) = (self.blocks_of(i), self.blocks_of(j));
        let (mut ai, mut bi) = (0, 0);
        while ai < a.len() && bi < b.len() {
            match a[ai].cmp(&b[bi]) {
                std::cmp::Ordering::Less => ai += 1,
                std::cmp::Ordering::Greater => bi += 1,
                std::cmp::Ordering::Equal => return a[ai] == current.0,
            }
        }
        true
    }

    /// Edge weight of the comparison `(i, j)` under `scheme`, derived purely
    /// from the Profile Index (Algorithm 3 line 10).
    pub fn weight(&self, i: ProfileId, j: ProfileId, scheme: WeightingScheme) -> f64 {
        let (a, b) = (self.blocks_of(i), self.blocks_of(j));
        let stats = merge_intersect(a, b, &self.cardinalities);
        let acc = match scheme {
            WeightingScheme::Arcs => stats.arcs,
            _ => f64::from(stats.common),
        };
        scheme.finalize(acc, a.len(), b.len(), self.total_blocks)
    }

    /// Borrowed views of the raw CSR arrays `(offsets, block_ids,
    /// cardinalities)` — the persistence boundary (`sper-store`)
    /// serializes exactly these plus [`total_blocks`](Self::total_blocks).
    pub fn raw_parts(&self) -> (&[u32], &[u32], &[u64]) {
        (&self.offsets, &self.block_ids, &self.cardinalities)
    }

    /// Reassembles an index from raw CSR arrays — the inverse of
    /// [`raw_parts`](Self::raw_parts). Callers (the persistence layer)
    /// must validate untrusted input first; invariants are only
    /// debug-asserted here.
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        block_ids: Vec<u32>,
        cardinalities: Vec<u64>,
        total_blocks: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(block_ids.len() as u32));
        debug_assert_eq!(cardinalities.len(), total_blocks);
        Self {
            offsets,
            block_ids,
            cardinalities,
            total_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockCollection};
    use crate::fixtures::fig3_profiles;
    use crate::token_blocking::TokenBlocking;
    use sper_model::ErKind;
    use sper_text::TokenInterner;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    /// The Fig. 3(b) blocks, sorted by cardinality as PBS would.
    fn fig3_index() -> (BlockCollection, ProfileIndex) {
        let mut blocks = TokenBlocking.build(&fig3_profiles());
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        (blocks, index)
    }

    #[test]
    fn arcs_weights_match_fig3c() {
        let (_, index) = fig3_index();
        // Paper ids are 1-based; ours 0-based.
        let w12 = index.weight(pid(0), pid(1), WeightingScheme::Arcs);
        assert!(
            (w12 - (1.0 + 1.0 / 3.0 + 1.0 / 6.0 + 1.0 / 15.0)).abs() < 1e-12,
            "c12 should be ≈1.57, got {w12}"
        );
        let w45 = index.weight(pid(3), pid(4), WeightingScheme::Arcs);
        assert!(
            (w45 - (1.0 + 1.0 + 1.0 / 15.0)).abs() < 1e-12,
            "c45 should be ≈2.07, got {w45}"
        );
        let w23 = index.weight(pid(1), pid(2), WeightingScheme::Arcs);
        assert!(
            (w23 - (1.0 / 3.0 + 1.0 / 6.0 + 1.0 / 15.0)).abs() < 1e-12,
            "c23 should be ≈0.57, got {w23}"
        );
        let w16 = index.weight(pid(0), pid(5), WeightingScheme::Arcs);
        assert!(
            (w16 - (1.0 / 6.0 + 1.0 / 15.0)).abs() < 1e-12,
            "c16 should be ≈0.23, got {w16}"
        );
        let w46 = index.weight(pid(3), pid(5), WeightingScheme::Arcs);
        assert!((w46 - 1.0 / 15.0).abs() < 1e-12, "c46 should be ≈0.07");
    }

    #[test]
    fn cbs_counts_shared_blocks() {
        let (_, index) = fig3_index();
        // p1 & p2 share carl, ny, tailor, white.
        assert_eq!(index.weight(pid(0), pid(1), WeightingScheme::Cbs), 4.0);
        // p4 & p6 share only white.
        assert_eq!(index.weight(pid(3), pid(5), WeightingScheme::Cbs), 1.0);
    }

    #[test]
    fn lecobi_detects_repeats() {
        let (blocks, index) = fig3_index();
        // Find the least common block of p4 (id 3) and p5 (id 4): the
        // smallest-id block containing both — after cardinality sorting this
        // is "ml" or "teacher", whichever sorted first.
        let stats = index.intersect(pid(3), pid(4));
        let least = stats.least_common.unwrap();
        assert!(index.is_new_comparison(pid(3), pid(4), least));
        // Any later shared block must flag the comparison as repeated.
        for bid in 0..blocks.len() as u32 {
            let b = BlockId(bid);
            if b != least
                && blocks.get(b).profiles().contains(&pid(3))
                && blocks.get(b).profiles().contains(&pid(4))
            {
                assert!(!index.is_new_comparison(pid(3), pid(4), b));
            }
        }
    }

    #[test]
    fn intersect_disjoint_profiles() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("a"), vec![pid(0), pid(1)]),
            Block::new_dirty(it.intern("b"), vec![pid(2), pid(3)]),
        ];
        let coll = BlockCollection::new(ErKind::Dirty, 4, it, blocks);
        let index = ProfileIndex::build(&coll);
        let stats = index.intersect(pid(0), pid(2));
        assert_eq!(stats.common, 0);
        assert_eq!(stats.arcs, 0.0);
        assert!(stats.least_common.is_none());
    }

    #[test]
    fn block_lists_sorted_ascending() {
        let (_, index) = fig3_index();
        for p in 0..index.n_profiles() {
            let l = index.blocks_of(pid(p as u32));
            assert!(l.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::block::{Block, BlockCollection};
    use proptest::prelude::*;
    use sper_model::ErKind;
    use sper_text::TokenInterner;
    use std::collections::BTreeSet;

    fn arbitrary_blocks() -> impl Strategy<Value = BlockCollection> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..12, 2..6), 1..12).prop_map(
            |sets: Vec<BTreeSet<u32>>| {
                let it = TokenInterner::shared();
                let mut blocks: Vec<Block> = sets
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Block::new_dirty(
                            it.intern(&format!("k{i}")),
                            s.into_iter().map(ProfileId).collect(),
                        )
                    })
                    .collect();
                // Mimic block scheduling so LeCoBI semantics hold.
                blocks.sort_by_key(|b| b.cardinality(ErKind::Dirty));
                BlockCollection::new(ErKind::Dirty, 12, it, blocks)
            },
        )
    }

    proptest! {
        /// `intersect` agrees with a naive set intersection, and LeCoBI
        /// agrees with "first shared block" semantics.
        #[test]
        fn intersect_matches_naive(blocks in arbitrary_blocks(), i in 0u32..12, j in 0u32..12) {
            prop_assume!(i != j);
            let index = ProfileIndex::build(&blocks);
            let a: BTreeSet<u32> = index.blocks_of(ProfileId(i)).iter().copied().collect();
            let b: BTreeSet<u32> = index.blocks_of(ProfileId(j)).iter().copied().collect();
            let shared: Vec<u32> = a.intersection(&b).copied().collect();
            let stats = index.intersect(ProfileId(i), ProfileId(j));
            prop_assert_eq!(stats.common as usize, shared.len());
            let expected_arcs: f64 = shared
                .iter()
                .map(|&bid| 1.0 / index.cardinality(BlockId(bid)).max(1) as f64)
                .sum();
            prop_assert!((stats.arcs - expected_arcs).abs() < 1e-9);
            prop_assert_eq!(stats.least_common, shared.first().map(|&x| BlockId(x)));
            // LeCoBI: only the first shared block is "new".
            for &bid in &shared {
                let is_new = index.is_new_comparison(ProfileId(i), ProfileId(j), BlockId(bid));
                prop_assert_eq!(is_new, Some(bid) == shared.first().copied());
            }
        }

        /// Weights are symmetric and non-negative under every scheme.
        #[test]
        fn weights_symmetric(blocks in arbitrary_blocks(), i in 0u32..12, j in 0u32..12) {
            prop_assume!(i != j);
            let index = ProfileIndex::build(&blocks);
            for scheme in WeightingScheme::ALL {
                let w1 = index.weight(ProfileId(i), ProfileId(j), scheme);
                let w2 = index.weight(ProfileId(j), ProfileId(i), scheme);
                prop_assert!((w1 - w2).abs() < 1e-12);
                prop_assert!(w1 >= 0.0);
            }
        }
    }
}
