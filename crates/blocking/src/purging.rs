//! Block Purging (§7 workflow step 2, \[12\]).
//!
//! Discards over-large blocks that correspond to stop words: any block whose
//! size exceeds `ratio · |P|` (paper default 10 %) carries so little
//! discriminative information that its comparisons are mostly noise. For
//! RDF data this is what removes the URI-prefix blocks (`http`, `org`, …).

use crate::block::BlockCollection;

/// Block Purging operator.
#[derive(Debug, Clone, Copy)]
pub struct BlockPurger {
    ratio: f64,
}

impl BlockPurger {
    /// Creates a purger keeping only blocks with `size ≤ ratio · |P|`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio ≤ 1`.
    pub fn new(ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0, 1]");
        Self { ratio }
    }

    /// The paper's default (0.1).
    pub fn paper_default() -> Self {
        Self::new(0.1)
    }

    /// The size threshold for a collection of `n_profiles` profiles.
    /// Always at least 2, so tiny collections are not purged to nothing.
    pub fn max_block_size(&self, n_profiles: usize) -> usize {
        ((self.ratio * n_profiles as f64).floor() as usize).max(2)
    }

    /// Applies purging, preserving block order — an in-place CSR
    /// compaction, no block is rebuilt.
    pub fn purge(&self, mut blocks: BlockCollection) -> BlockCollection {
        let mut span = sper_obs::span!("blocking.purge", blocks = blocks.len());
        let max = self.max_block_size(blocks.n_profiles());
        blocks.retain(|b| b.size() <= max);
        span.record("kept", blocks.len());
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use sper_model::{ErKind, ProfileId};
    use sper_text::TokenInterner;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn purges_stop_word_blocks() {
        let it = TokenInterner::shared();
        // 20 profiles; ratio 0.1 → threshold max(2, 2) = 2.
        let blocks = vec![
            Block::new_dirty(it.intern("rare"), vec![pid(0), pid(1)]),
            Block::new_dirty(it.intern("the"), (0..15).map(pid).collect()),
        ];
        let coll = BlockCollection::new(ErKind::Dirty, 20, it, blocks);
        let purged = BlockPurger::paper_default().purge(coll);
        assert_eq!(purged.len(), 1);
        assert_eq!(&*purged.key_str(crate::BlockId(0)), "rare");
    }

    #[test]
    fn threshold_floor_is_two() {
        // With 5 profiles and ratio 0.1, 0.5 floors to 0 — but pairs must
        // survive, so the effective threshold is 2.
        let p = BlockPurger::paper_default();
        assert_eq!(p.max_block_size(5), 2);
        assert_eq!(p.max_block_size(1000), 100);
    }

    #[test]
    fn ratio_one_keeps_everything() {
        let it = TokenInterner::shared();
        let blocks = vec![Block::new_dirty(it.intern("k"), (0..10).map(pid).collect())];
        let coll = BlockCollection::new(ErKind::Dirty, 10, it, blocks);
        let purged = BlockPurger::new(1.0).purge(coll);
        assert_eq!(purged.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_panics() {
        BlockPurger::new(0.0);
    }
}
