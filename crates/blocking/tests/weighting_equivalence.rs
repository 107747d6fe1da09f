//! Sparse-accumulator kernel equivalence: the blocking graph that the
//! `spacc` sweeps build is observationally identical to both the legacy
//! interned edge-list builder (seen-set + per-pair merge intersection) and
//! the string-keyed seed weights — for all four weighting schemes, dirty
//! and clean-clean.
//!
//! What is pinned down:
//!
//! * **Edge lists** — `BlockingGraph::build` reproduces the legacy
//!   builder's exact edge *sequence* (pairs and weight bits), not merely
//!   its edge set, in the scheduled and the raw block order.
//! * **Weights** — every edge weight equals the naive string-keyed
//!   reference weight of the pair.
//! * **Filtered sweeps** — a sweep that skips `checked` profiles (PPS
//!   emission) is the unfiltered sweep with those profiles removed.
//! * **Degenerate inputs** — empty and single-profile collections build
//!   an empty graph without panicking.

use proptest::prelude::*;
use sper_blocking::legacy::{
    legacy_graph_edges, string_block_lists, string_token_blocking, string_weight,
};
use sper_blocking::{
    BlockingGraph, ProfileIndex, TokenBlocking, WeightAccumulator, WeightingScheme,
};
use sper_model::{Pair, ProfileCollection, ProfileCollectionBuilder, ProfileId};

/// Random collections over a tiny alphabet — small vocabularies maximize
/// token collisions, which is where blocking behavior lives. Half the
/// cases are Dirty (both vecs in one source), half Clean-clean (P1 | P2).
fn any_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        proptest::collection::vec("[a-e ]{1,10}", 1..13),
        0u8..2,
    )
        .prop_map(|(p1, p2, kind)| {
            let mut b = if kind == 0 {
                ProfileCollectionBuilder::dirty()
            } else {
                ProfileCollectionBuilder::clean_clean()
            };
            for v in p1 {
                b.add_profile([("t", v)]);
            }
            if kind != 0 {
                b.start_second_source();
            }
            for v in p2 {
                b.add_profile([("t", v)]);
            }
            b.build()
        })
}

fn assert_same_edges(a: &[(Pair, f64)], b: &[(Pair, f64)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: edge counts diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{ctx}: edge order diverged");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{ctx}: weight bits diverged at {:?}",
            x.0
        );
    }
}

proptest! {
    /// Graph edge list ≡ legacy edge list (sequence and weight bits) ≡
    /// string-keyed weights, for all four schemes, in both the scheduled
    /// (cardinality-sorted) and raw block orders.
    #[test]
    fn kernel_matches_legacy_and_string_weights(coll in any_collection()) {
        let sblocks = string_token_blocking(&coll);
        let slists = string_block_lists(&sblocks, coll.len());
        let mut blocks = TokenBlocking.build(&coll);
        for sort_by_cardinality in [false, true] {
            if sort_by_cardinality {
                blocks.sort_by_cardinality();
            }
            for scheme in WeightingScheme::ALL {
                let reference = legacy_graph_edges(&blocks, scheme);
                let edges: Vec<(Pair, f64)> = BlockingGraph::build(&blocks, scheme).edges().collect();
                assert_same_edges(
                    &edges,
                    &reference,
                    &format!("{scheme} ({:?}, sorted {sort_by_cardinality})", coll.kind()),
                );
                if !sort_by_cardinality {
                    // String-keyed blocks are key-sorted; compare weights in
                    // the matching (unsorted) block order only.
                    for &(pair, w) in &edges {
                        let sw = string_weight(
                            &sblocks, &slists, coll.kind(), pair.first, pair.second, scheme,
                        );
                        prop_assert!(
                            (w - sw).abs() < 1e-12,
                            "{scheme}: {pair:?} graph {w} vs string {sw}"
                        );
                    }
                }
            }
        }
    }

    /// For every scheme and any `checked` mask, `sweep(.., Some(mask))`
    /// touches exactly the unfiltered sweep's touched list with the masked
    /// ids removed, in the same order, with equal accumulated bits and
    /// least common blocks.
    #[test]
    fn filtered_sweep_is_the_unfiltered_sweep_minus_the_mask(
        coll in any_collection(),
        mask in 0u32..1 << 24,
    ) {
        let mut blocks = TokenBlocking.build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();
        // Bit `j` of `mask` marks profile `j` checked (`any_collection`
        // holds at most 24 profiles).
        let checked: Vec<bool> = (0..n).map(|j| mask >> j & 1 == 1).collect();
        let mut full = WeightAccumulator::new(n);
        let mut filtered = WeightAccumulator::new(n);
        for scheme in WeightingScheme::ALL {
            for i in 0..n as u32 {
                let i = ProfileId(i);
                full.sweep(&blocks, &index, scheme, i, None);
                filtered.sweep(&blocks, &index, scheme, i, Some(&checked));
                let expected: Vec<u32> = full
                    .touched()
                    .iter()
                    .copied()
                    .filter(|&j| !checked[j as usize])
                    .collect();
                prop_assert_eq!(filtered.touched(), &expected[..], "{} at {:?}", scheme, i);
                for &j in &expected {
                    let j = ProfileId(j);
                    prop_assert_eq!(filtered.raw(j).to_bits(), full.raw(j).to_bits());
                    prop_assert_eq!(filtered.least_common_block(j), full.least_common_block(j));
                }
                full.reset();
                filtered.reset();
            }
        }
    }
}

#[test]
fn empty_and_single_profile_regressions() {
    let empty = ProfileCollectionBuilder::dirty().build();
    let mut one = ProfileCollectionBuilder::dirty();
    one.add_profile([("t", "lonely tokens here")]);
    let one = one.build();
    for coll in [empty, one] {
        let blocks = TokenBlocking.build(&coll);
        for scheme in WeightingScheme::ALL {
            assert_eq!(BlockingGraph::build(&blocks, scheme).num_edges(), 0);
            assert!(legacy_graph_edges(&blocks, scheme).is_empty());
        }
    }
}
