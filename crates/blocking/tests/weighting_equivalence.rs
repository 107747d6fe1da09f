//! Sparse-accumulator kernel equivalence: the `spacc` sweep paths are
//! observationally identical to both the legacy interned edge-list builder
//! (seen-set + per-pair merge intersection) and the string-keyed seed
//! weights — for all four weighting schemes, dirty and clean-clean, at
//! 1–8 worker threads.
//!
//! What is pinned down:
//!
//! * **Edge lists** — `spacc::weighted_edge_list` (the engine inside
//!   `BlockingGraph::build`) reproduces the
//!   legacy builder's exact edge *sequence* (pairs and weight bits), not
//!   merely its edge set, at every thread count.
//! * **Weights** — every kernel edge weight equals the naive string-keyed
//!   reference weight of the pair.
//! * **Streaming** — `for_each_weighted_edge` (zero materialization)
//!   covers the same edges with the same weight bits and correct
//!   least-common-block witnesses.
//! * **Pruning** — `prune_blocks` (node-centric sweeps, no materialized
//!   graph) equals `prune` over the kernel-built graph for every pruning
//!   scheme, at every requested worker count.
//! * **Incremental substrates** — the growable `IncrementalProfileIndex` +
//!   live `[Block]` array drive the kernel to the frozen CSR results.
//! * **Degenerate inputs** — empty and single-profile collections take
//!   every path without panicking.

use proptest::prelude::*;
use sper_blocking::legacy::{
    legacy_graph_edges, string_block_lists, string_token_blocking, string_weight,
};
use sper_blocking::spacc::{for_each_weighted_edge, weighted_edge_list};
use sper_blocking::{
    prune, prune_blocks, Block, BlockingGraph, IncrementalProfileIndex, Parallelism, ProfileIndex,
    PruningScheme, TokenBlocking, WeightAccumulator, WeightingScheme,
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
    /// Kernel edge list ≡ legacy edge list (sequence and weight bits) ≡
    /// string-keyed weights, for all four schemes at 1–8 threads, in both
    /// the scheduled (cardinality-sorted) and raw block orders.
    #[test]
    fn kernel_matches_legacy_and_string_weights(
        coll in any_collection(),
        threads in 1usize..9,
        sort_flag in 0u8..2,
    ) {
        let sort_by_cardinality = sort_flag == 1;
        let mut blocks = TokenBlocking::default().build(&coll);
        if sort_by_cardinality {
            blocks.sort_by_cardinality();
        }
        let index = ProfileIndex::build(&blocks);
        let sblocks = string_token_blocking(&coll);
        let slists = string_block_lists(&sblocks, coll.len());
        let par = Parallelism::new(threads).expect("threads > 0");
        for scheme in WeightingScheme::ALL {
            let reference = legacy_graph_edges(&blocks, scheme);
            let kernel = weighted_edge_list(&blocks, &index, scheme, par);
            assert_same_edges(&kernel, &reference, &format!("{scheme} at {threads} threads"));
            if !sort_by_cardinality {
                // String-keyed blocks are key-sorted; compare weights in
                // the matching (unsorted) block order only.
                for &(pair, w) in &kernel {
                    let sw = string_weight(
                        &sblocks, &slists, coll.kind(), pair.first, pair.second, scheme,
                    );
                    prop_assert!(
                        (w - sw).abs() < 1e-12,
                        "{scheme}: {pair:?} kernel {w} vs string {sw}"
                    );
                }
            }
        }
    }

    /// The zero-materialization stream covers exactly the legacy edge set
    /// with identical weight bits, and every least-common-block witness
    /// agrees with the merge-based intersection.
    #[test]
    fn streaming_edges_match_legacy_set(coll in any_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        for scheme in [WeightingScheme::Arcs, WeightingScheme::Js] {
            let mut streamed = Vec::new();
            for_each_weighted_edge(&blocks, &index, scheme, |pair, w, lcb| {
                assert_eq!(
                    index.intersect(pair.first, pair.second).least_common,
                    Some(lcb),
                    "lcb witness diverged at {pair:?}"
                );
                streamed.push((pair, w));
            });
            let mut reference = legacy_graph_edges(&blocks, scheme);
            let key = |e: &(Pair, f64)| e.0;
            streamed.sort_by_key(key);
            reference.sort_by_key(key);
            assert_same_edges(&streamed, &reference, &format!("stream {scheme}"));
        }
    }

    /// Node-centric streaming pruning ≡ graph-based pruning for every
    /// pruning scheme, at one and at several requested workers.
    #[test]
    fn streaming_prune_matches_graph_prune(coll in any_collection(), threads in 1usize..5) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
        for scheme in [
            PruningScheme::Wep,
            PruningScheme::Cep { k: 5 },
            PruningScheme::Wnp,
            PruningScheme::Cnp { k: 2 },
        ] {
            let reference = prune(&graph, scheme);
            for par in [Parallelism::SEQUENTIAL, Parallelism::new(threads).unwrap()] {
                let streamed = prune_blocks(&blocks, WeightingScheme::Arcs, scheme, par);
                prop_assert_eq!(&streamed, &reference, "{} at {} threads", scheme.name(), par);
            }
        }
    }

    /// The growable streaming index + live block array drive the kernel to
    /// the frozen CSR pair's results: same touched sets, same weight bits.
    #[test]
    fn incremental_substrates_run_the_same_kernel(coll in any_collection()) {
        let blocks = TokenBlocking::default().build(&coll);
        let index = ProfileIndex::build(&blocks);
        let kind = blocks.kind();
        let mut inc = IncrementalProfileIndex::new_empty(blocks.n_profiles());
        for block in blocks.iter() {
            inc.push_block(block.profiles(), block.cardinality(kind));
        }
        let owned: Vec<Block> = blocks.clone().into_blocks();
        let mut frozen = WeightAccumulator::new(blocks.n_profiles());
        let mut live = WeightAccumulator::new(blocks.n_profiles());
        for scheme in WeightingScheme::ALL {
            for i in 0..blocks.n_profiles() as u32 {
                let i = ProfileId(i);
                frozen.sweep(kind, &blocks, &index, scheme, i, None);
                live.sweep(kind, owned.as_slice(), &inc, scheme, i, None);
                prop_assert_eq!(frozen.touched(), live.touched());
                for t in 0..frozen.touched().len() {
                    let j = ProfileId(frozen.touched()[t]);
                    prop_assert_eq!(
                        frozen.finalize(&index, scheme, i, j).to_bits(),
                        live.finalize(&inc, scheme, i, j).to_bits()
                    );
                }
                frozen.reset();
                live.reset();
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
        let blocks = TokenBlocking::default().build(&coll);
        let index = ProfileIndex::build(&blocks);
        for scheme in WeightingScheme::ALL {
            for threads in [1, 4] {
                let par = Parallelism::new(threads).unwrap();
                let edges = weighted_edge_list(&blocks, &index, scheme, par);
                assert!(edges.is_empty());
            }
            assert!(legacy_graph_edges(&blocks, scheme).is_empty());
            for pruning in [PruningScheme::Wnp, PruningScheme::Wep] {
                let par = Parallelism::new(4).unwrap();
                assert!(prune_blocks(&blocks, scheme, pruning, par).is_empty());
            }
        }
    }
}

/// The graph builders themselves stay pinned to the kernel output — the
/// public surface every downstream consumer (store codecs, golden
/// fixture, CLI snapshots) observes.
#[test]
fn graph_builders_expose_kernel_edges() {
    let mut b = ProfileCollectionBuilder::dirty();
    for i in 0..40u32 {
        b.add_profile([("t", format!("tok{} shared{} white", i % 16, i % 5))]);
    }
    let coll = b.build();
    let mut blocks = TokenBlocking::default().build(&coll);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    for scheme in WeightingScheme::ALL {
        let expected = weighted_edge_list(&blocks, &index, scheme, Parallelism::SEQUENTIAL);
        for threads in [1, 4] {
            let graph = BlockingGraph::build(&blocks, scheme, Parallelism::new(threads).unwrap());
            let got: Vec<(Pair, f64)> = graph.edges().collect();
            assert_same_edges(&got, &expected, "BlockingGraph::build");
        }
    }
}
