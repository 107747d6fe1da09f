//! Block Filtering (§7 workflow step 3, \[12\]).
//!
//! Retains every profile in a fraction (paper default 80 %) of its most
//! important — i.e., smallest-cardinality — blocks, then rebuilds the block
//! collection. This cheaply removes the least informative co-occurrences
//! before the blocking graph is formed.

use crate::block::{cardinality_of, csr_offset, BlockCollection, BlockId};
use sper_model::ProfileId;
use std::sync::Arc;

/// Marks a member slot the filter dropped. Ids index the per-profile
/// quota, so no collection that fits in memory has a profile with this id.
const DROPPED: ProfileId = ProfileId(u32::MAX);

/// Block Filtering operator.
#[derive(Debug, Clone, Copy)]
pub struct BlockFilter {
    ratio: f64,
}

impl BlockFilter {
    /// Creates a filter keeping each profile in `round(ratio · |B_i|)` of
    /// its smallest blocks (at least one).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio ≤ 1`.
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        Self { ratio }
    }

    /// The paper's default (0.8).
    pub fn paper_default() -> Self {
        Self::new(0.8)
    }

    /// Number of blocks a profile contained in `n_blocks` blocks keeps.
    pub fn keep_count(&self, n_blocks: usize) -> usize {
        if n_blocks == 0 {
            return 0;
        }
        (((self.ratio * n_blocks as f64).round()) as usize).clamp(1, n_blocks)
    }

    /// Applies filtering and rebuilds the collection, dropping blocks that
    /// no longer yield a valid comparison.
    ///
    /// Blocks rank by (‖b‖, position). One counting pass gives each
    /// profile its quota, `keep_count(|B_p|)`; a walk over the blocks in
    /// rank order keeps a member while its profile has quota left, since a
    /// profile's first `k` visits are exactly its `k` smallest-ranked
    /// blocks. The survivors are then packed in place in block order, so
    /// the source partition and ascending ids carry over.
    pub fn filter(&self, blocks: BlockCollection) -> BlockCollection {
        let mut span = sper_obs::span!("blocking.filter", blocks = blocks.len());
        let (kind, n_profiles) = (blocks.kind(), blocks.n_profiles());
        let interner = Arc::clone(blocks.interner());
        let mut order: Vec<(u64, u32)> = (0..blocks.len() as u32)
            .map(|i| (blocks.cardinality(BlockId(i)), i))
            .collect();
        order.sort_unstable();
        let (mut keys, mut offsets, mut members, mut n_firsts) = blocks.into_raw_parts();

        let mut quota = vec![0u32; n_profiles];
        for p in &members {
            quota[p.index()] += 1;
        }
        for q in &mut quota {
            *q = self.keep_count(*q as usize) as u32;
        }
        for &(_, i) in &order {
            let i = i as usize;
            for p in &mut members[offsets[i] as usize..offsets[i + 1] as usize] {
                let q = &mut quota[p.index()];
                if *q == 0 {
                    *p = DROPPED;
                } else {
                    *q -= 1;
                }
            }
        }

        // Pack the survivors into the front of the same arrays: every write
        // lands at or before the slot being read. `start` carries each
        // block's old offset, as `offsets[i]` may already be overwritten.
        let (mut kept, mut len, mut start) = (0, 0, 0);
        for i in 0..keys.len() {
            let (split, end) = (start + n_firsts[i] as usize, offsets[i + 1] as usize);
            let from = len;
            let mut n_first = 0;
            for slot in start..end {
                let p = members[slot];
                if p != DROPPED {
                    members[len] = p;
                    len += 1;
                    n_first += u32::from(slot < split);
                }
            }
            start = end;
            if cardinality_of(kind, len - from, n_first) == 0 {
                len = from;
                continue;
            }
            keys[kept] = keys[i];
            n_firsts[kept] = n_first;
            kept += 1;
            offsets[kept] = csr_offset(len);
        }
        keys.truncate(kept);
        offsets.truncate(kept + 1);
        members.truncate(len);
        n_firsts.truncate(kept);
        span.record("kept", kept);
        BlockCollection::from_raw_parts(
            kind, n_profiles, interner, keys, offsets, members, n_firsts,
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::Block;
    use sper_model::{ErKind, ProfileId, SourceId};
    use sper_text::TokenInterner;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    /// Block Filtering as §7 states it, one profile at a time: sort the
    /// profile's blocks by (‖b‖, position), keep the first `keep_count`
    /// of them, and rebuild every block from the memberships that
    /// survive. The reference the CSR body is tested against.
    pub(crate) fn reference_filter(
        filter: &BlockFilter,
        blocks: &BlockCollection,
    ) -> BlockCollection {
        let kind = blocks.kind();
        let mut blocks_of: Vec<Vec<u32>> = vec![Vec::new(); blocks.n_profiles()];
        for (bi, b) in blocks.iter().enumerate() {
            for &p in b.profiles() {
                blocks_of[p.index()].push(bi as u32);
            }
        }
        let mut kept: Vec<Vec<(ProfileId, SourceId)>> = vec![Vec::new(); blocks.len()];
        for (p, mine) in blocks_of.iter_mut().enumerate() {
            let p = pid(p as u32);
            mine.sort_by_key(|&bi| (blocks.cardinality(BlockId(bi)), bi));
            for &bi in &mine[..filter.keep_count(mine.len())] {
                let source = if blocks.get(BlockId(bi)).first_source().contains(&p) {
                    SourceId::FIRST
                } else {
                    SourceId::SECOND
                };
                kept[bi as usize].push((p, source));
            }
        }
        let rebuilt = blocks
            .iter()
            .zip(kept)
            .map(|(b, members)| Block::new(b.key, members))
            .filter(|b| b.cardinality(kind) > 0)
            .collect();
        BlockCollection::new(
            kind,
            blocks.n_profiles(),
            Arc::clone(blocks.interner()),
            rebuilt,
        )
    }

    #[test]
    fn keep_count_rounding() {
        let f = BlockFilter::paper_default();
        assert_eq!(f.keep_count(0), 0);
        assert_eq!(f.keep_count(1), 1);
        assert_eq!(f.keep_count(5), 4);
        assert_eq!(f.keep_count(10), 8);
        assert_eq!(BlockFilter::new(1.0).keep_count(7), 7);
    }

    #[test]
    fn drops_profile_from_largest_blocks() {
        let it = TokenInterner::shared();
        // p0 is in 5 blocks; with ratio 0.8 it keeps the 4 smallest, so it
        // must leave the biggest block ("huge").
        let mut blocks = vec![
            Block::new_dirty(it.intern("huge"), (0..6).map(pid).collect()),
            Block::new_dirty(it.intern("b1"), vec![pid(0), pid(1)]),
            Block::new_dirty(it.intern("b2"), vec![pid(0), pid(2)]),
            Block::new_dirty(it.intern("b3"), vec![pid(0), pid(3)]),
            Block::new_dirty(it.intern("b4"), vec![pid(0), pid(4)]),
        ];
        // Give the other profiles enough memberships that they also keep
        // their small blocks.
        blocks.push(Block::new_dirty(it.intern("b5"), vec![pid(1), pid(2)]));
        let coll = BlockCollection::new(ErKind::Dirty, 6, it, blocks);
        let filtered = BlockFilter::paper_default().filter(coll);
        // The block may also have degenerated and been dropped entirely.
        if let Some(b) = filtered.iter().find(|b| &*b.key_str() == "huge") {
            assert!(!b.profiles().contains(&pid(0)));
        }
        // The small blocks survive intact.
        assert!(filtered.iter().any(|b| &*b.key_str() == "b1"));
    }

    #[test]
    fn single_membership_always_kept() {
        let it = TokenInterner::shared();
        let blocks = vec![Block::new_dirty(it.intern("only"), vec![pid(0), pid(1)])];
        let coll = BlockCollection::new(ErKind::Dirty, 2, it, blocks);
        let filtered = BlockFilter::paper_default().filter(coll);
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered.get(crate::BlockId(0)).size(), 2);
    }

    #[test]
    fn clean_clean_sources_preserved() {
        let it = TokenInterner::shared();
        let blocks = vec![Block::new(
            it.intern("k"),
            vec![(pid(0), SourceId::FIRST), (pid(5), SourceId::SECOND)],
        )];
        let coll = BlockCollection::new(ErKind::CleanClean, 6, it, blocks);
        let filtered = BlockFilter::paper_default().filter(coll);
        assert_eq!(filtered.len(), 1);
        let b = filtered.get(crate::BlockId(0));
        assert_eq!(b.first_source(), &[pid(0)]);
        assert_eq!(b.second_source(), &[pid(5)]);
        assert_eq!(b.cardinality(ErKind::CleanClean), 1);
    }

    #[test]
    fn filtering_never_increases_comparisons() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("a"), (0..5).map(pid).collect()),
            Block::new_dirty(it.intern("b"), (2..8).map(pid).collect()),
            Block::new_dirty(it.intern("c"), vec![pid(0), pid(7)]),
        ];
        let coll = BlockCollection::new(ErKind::Dirty, 8, it, blocks);
        let before = coll.total_comparisons();
        let filtered = BlockFilter::paper_default().filter(coll);
        assert!(filtered.total_comparisons() <= before);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::reference_filter;
    use super::*;
    use crate::block::Block;
    use proptest::prelude::*;
    use sper_model::{ErKind, SourceId};
    use sper_text::TokenInterner;
    use std::collections::BTreeSet;

    const N_PROFILES: u32 = 16;

    /// Up to 24 blocks of 1–5 members over 16 profiles: at these sizes,
    /// equal cardinalities (ties in the block rank) are the common case.
    fn member_sets() -> impl Strategy<Value = Vec<BTreeSet<u32>>> {
        collection::vec(collection::btree_set(0..N_PROFILES, 1..6), 0..24)
    }

    /// The blocks as a collection of `kind`, with profiles below `n_first`
    /// in `P1` and the rest in `P2`.
    fn collection_of(kind: ErKind, n_first: u32, sets: &[BTreeSet<u32>]) -> BlockCollection {
        let it = TokenInterner::shared();
        let blocks = sets
            .iter()
            .enumerate()
            .map(|(i, set)| {
                let members = set
                    .iter()
                    .map(|&p| {
                        let source = if p < n_first {
                            SourceId::FIRST
                        } else {
                            SourceId::SECOND
                        };
                        (ProfileId(p), source)
                    })
                    .collect();
                Block::new(it.intern(&format!("k{i}")), members)
            })
            .collect();
        BlockCollection::new(kind, N_PROFILES as usize, it, blocks)
    }

    proptest! {
        /// The CSR body keeps exactly the memberships, blocks and source
        /// partitions of the per-profile reference, at the paper's ratio
        /// and around it, for Dirty and Clean-clean collections.
        #[test]
        fn csr_filter_equals_per_profile_reference(
            sets in member_sets(),
            split in 1..N_PROFILES,
        ) {
            for (kind, n_first) in [(ErKind::Dirty, N_PROFILES), (ErKind::CleanClean, split)] {
                let blocks = collection_of(kind, n_first, &sets);
                for ratio in [0.1, 0.5, 0.8, 1.0] {
                    let filter = BlockFilter::new(ratio);
                    let want = reference_filter(&filter, &blocks);
                    let got = filter.filter(blocks.clone());
                    let (want, got) = (want.raw_parts(), got.raw_parts());
                    prop_assert_eq!(got.keys, want.keys, "{:?} at {}", kind, ratio);
                    prop_assert_eq!(got.offsets, want.offsets, "{:?} at {}", kind, ratio);
                    prop_assert_eq!(got.members, want.members, "{:?} at {}", kind, ratio);
                    prop_assert_eq!(got.n_firsts, want.n_firsts, "{:?} at {}", kind, ratio);
                }
            }
        }
    }
}
