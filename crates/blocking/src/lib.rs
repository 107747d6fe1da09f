#![deny(missing_docs)]
//! # sper-blocking
//!
//! The blocking substrates of schema-agnostic progressive ER:
//!
//! * [`token_blocking`] — schema-agnostic Standard (Token) Blocking \[18\]:
//!   one block per attribute-value token (§3, §7 workflow step 1).
//! * [`purging`] — Block Purging: drop stop-word blocks covering more than
//!   10 % of the profiles (§7 workflow step 2).
//! * [`filtering`] — Block Filtering: retain each profile in its 80 %
//!   smallest blocks (§7 workflow step 3).
//! * [`graph`] + [`weights`] — the Blocking Graph of Meta-blocking \[12\] with
//!   the ARCS / CBS / JS / ECBS edge-weighting schemes (§3.2).
//! * [`profile_index`] — the Profile Index of §5.2.1: profile → sorted block
//!   ids, supporting the LeCoBI repeated-comparison test and one-pass edge
//!   weighting.
//! * [`neighbor_list`] — the schema-agnostic Neighbor List and Position
//!   Index of §3.2/§5.1.
//! * [`suffix_forest`] — the suffix forest of Suffix Arrays Blocking,
//!   scheduled leaves-first for SA-PSAB (§4.2).
//! * [`spacc`] — the sparse-accumulator weighting kernel: per-profile
//!   neighborhood sweeps over a dense reusable scratch with a touched-list
//!   reset, producing every meta-blocking edge weight without a
//!   materialized edge list or per-pair merge intersections.
//! * [`parallel`] — the thread-count parameter ([`Parallelism`]) every
//!   substrate build takes, and the fan-out primitives behind it (the §8
//!   future-work direction); results are identical at every count.

pub mod block;
pub mod filtering;
pub mod fixtures;
pub mod graph;
pub mod legacy;
pub mod metablocking;
pub mod neighbor_list;
pub mod parallel;
pub mod profile_index;
pub mod purging;
pub mod simd;
pub mod spacc;
pub mod suffix_forest;
pub mod token_blocking;
pub mod weights;

pub use block::{Block, BlockCollection, BlockCsrParts, BlockId, BlockRef};
pub use filtering::BlockFilter;
pub use graph::BlockingGraph;
pub use metablocking::{prune, prune_blocks, weight_desc, PruningScheme};
pub use neighbor_list::{NeighborList, PositionIndex};
pub use parallel::{
    take_last_fanout_stats, FanoutStats, Parallelism, WorkerStats, ZeroThreads, MIN_PARALLEL_BATCH,
    STEAL_MIN_CHUNK, STEAL_OVERSUBSCRIPTION,
};
pub use profile_index::{IntersectStats, ProfileIndex};
pub use purging::BlockPurger;
pub use simd::KernelPath;
pub use spacc::WeightAccumulator;
pub use suffix_forest::{SuffixForest, SuffixNode};
pub use token_blocking::TokenBlocking;
// The string ↔ id boundary of the columnar core, re-exported so consumers
// of block collections don't need a direct sper-text dependency.
pub use sper_text::{TokenId, TokenInterner};
pub use weights::{FinalizeTable, WeightingScheme};

use sper_model::ProfileCollection;

/// The Token Blocking Workflow of §7: Token Blocking → Block Purging →
/// Block Filtering, with the paper's default parameters (purge blocks
/// covering > 10 % of profiles; keep each profile in 80 % of its smallest
/// blocks). This produces the redundancy-positive block collection consumed
/// by the equality-based progressive methods (PBS, PPS).
#[derive(Debug, Clone)]
pub struct TokenBlockingWorkflow {
    /// Block Purging size ratio (paper default 0.1).
    pub purge_ratio: f64,
    /// Block Filtering retain ratio (paper default 0.8).
    pub filter_ratio: f64,
}

impl Default for TokenBlockingWorkflow {
    fn default() -> Self {
        Self {
            purge_ratio: 0.1,
            filter_ratio: 0.8,
        }
    }
}

impl TokenBlockingWorkflow {
    /// Runs the three-step workflow on `profiles` on the calling thread.
    pub fn run(&self, profiles: &ProfileCollection) -> BlockCollection {
        self.par_run(profiles, Parallelism::SEQUENTIAL)
    }

    /// [`Self::run`] with Token Blocking on up to `par` workers
    /// ([`TokenBlocking::par_build`]); the blocks are identical at every
    /// worker count.
    pub fn par_run(&self, profiles: &ProfileCollection, par: Parallelism) -> BlockCollection {
        let blocks = TokenBlocking::default().par_build(profiles, par);
        let blocks = BlockPurger::new(self.purge_ratio).purge(blocks);
        BlockFilter::new(self.filter_ratio).filter(blocks)
    }
}

#[cfg(test)]
mod workflow_tests {
    use super::*;
    use sper_model::ProfileCollectionBuilder;

    #[test]
    fn workflow_produces_blocks() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("name", "carl white ny tailor")]);
        b.add_profile([("name", "karl white ny tailor")]);
        b.add_profile([("name", "hellen white ml teacher")]);
        let coll = b.build();
        let blocks = TokenBlockingWorkflow::default().run(&coll);
        assert!(!blocks.is_empty());
        // every kept block has at least one comparison
        for blk in blocks.iter() {
            assert!(blk.cardinality(blocks.kind()) > 0);
        }
    }
}
