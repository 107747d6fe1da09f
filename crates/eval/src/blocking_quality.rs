//! Classic blocking-quality metrics (\[19\], used throughout the
//! meta-blocking literature the paper builds on):
//!
//! * **PC** — Pairs Completeness: the fraction of true matches whose
//!   profiles co-occur in at least one block (the blocking recall ceiling
//!   every progressive method inherits — this is why PBS/PPS cap below
//!   100 % on cora, §7.1).
//! * **PQ** — Pairs Quality: true matches per distinct comparison
//!   (blocking precision).
//! * **RR** — Reduction Ratio: the fraction of the naïve quadratic
//!   comparison space the blocks eliminate.

use sper_blocking::BlockCollection;
use sper_model::{GroundTruth, Pair, ProfileCollection};
use std::collections::HashSet;

/// The quality metrics of a block collection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingQuality {
    /// Pairs Completeness ∈ \[0, 1\].
    pub pc: f64,
    /// Pairs Quality ∈ \[0, 1\].
    pub pq: f64,
    /// Reduction Ratio ∈ \[0, 1\].
    pub rr: f64,
    /// Distinct comparisons entailed by the blocks.
    pub distinct_comparisons: u64,
}

/// Computes PC / PQ / RR for `blocks` against `truth`.
pub fn blocking_quality(
    blocks: &BlockCollection,
    profiles: &ProfileCollection,
    truth: &GroundTruth,
) -> BlockingQuality {
    let kind = blocks.kind();
    let mut distinct: HashSet<Pair> = HashSet::new();
    for b in blocks.iter() {
        distinct.extend(b.comparisons(kind));
    }
    let covered = truth.pairs().filter(|p| distinct.contains(p)).count();
    let pc = if truth.num_matches() == 0 {
        1.0
    } else {
        covered as f64 / truth.num_matches() as f64
    };
    let pq = if distinct.is_empty() {
        0.0
    } else {
        covered as f64 / distinct.len() as f64
    };
    let naive = profiles.naive_comparisons();
    let rr = if naive == 0 {
        0.0
    } else {
        1.0 - distinct.len() as f64 / naive as f64
    };
    BlockingQuality {
        pc,
        pq,
        rr,
        distinct_comparisons: distinct.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::{BlockFilter, BlockPurger, TokenBlocking};

    #[test]
    fn fig3_raw_blocks_have_full_pc() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let blocks = TokenBlocking.build(&profiles);
        let q = blocking_quality(&blocks, &profiles, &truth);
        // Every pair co-occurs in "white" → all 15 distinct comparisons.
        assert_eq!(q.pc, 1.0);
        assert_eq!(q.distinct_comparisons, 15);
        assert!((q.pq - 4.0 / 15.0).abs() < 1e-12);
        assert_eq!(q.rr, 0.0, "complete graph saves nothing here");
    }

    #[test]
    fn purging_trades_pc_for_pq() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let raw = TokenBlocking.build(&profiles);
        let purged = BlockPurger::paper_default().purge(raw.clone());
        let q_raw = blocking_quality(&raw, &profiles, &truth);
        let q_purged = blocking_quality(&purged, &profiles, &truth);
        assert!(q_purged.pq >= q_raw.pq, "purging must not lower precision");
        assert!(q_purged.rr >= q_raw.rr);
        assert!(q_purged.pc <= q_raw.pc);
    }

    #[test]
    fn filtering_preserves_most_pc() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let raw = TokenBlocking.build(&profiles);
        let filtered = BlockFilter::paper_default().filter(raw);
        let q = blocking_quality(&filtered, &profiles, &truth);
        assert!(q.pc >= 0.75, "filtering is recall-friendly: {q:?}");
    }

    #[test]
    fn empty_blocks_metrics() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let empty = BlockCollection::empty(profiles.kind(), profiles.len());
        let q = blocking_quality(&empty, &profiles, &truth);
        assert_eq!(q.pc, 0.0);
        assert_eq!(q.pq, 0.0);
        assert_eq!(q.rr, 1.0);
    }
}
