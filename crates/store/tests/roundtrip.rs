//! Round-trip property tests: every substrate codec reproduces the exact
//! arrays it serialized — bit-identical, for arbitrary collections and
//! both ER kinds — and whole snapshot files survive the byte layer.

use proptest::prelude::*;
use sper_blocking::{
    BlockId, BlockingGraph, NeighborList, Parallelism, ProfileIndex, TokenBlocking, WeightingScheme,
};
use sper_model::{ErKind, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use sper_store::{substrates, Snapshot, Store};
use sper_stream::IncrementalTokenBlocking;
use std::sync::Arc;

fn dirty_collection(values: Vec<String>) -> ProfileCollection {
    let mut b = ProfileCollectionBuilder::dirty();
    for v in values {
        b.add_profile([("t", v)]);
    }
    b.build()
}

fn clean_clean_collection(first: Vec<String>, second: Vec<String>) -> ProfileCollection {
    let mut b = ProfileCollectionBuilder::clean_clean();
    for v in first {
        b.add_profile([("t", v)]);
    }
    b.start_second_source();
    for v in second {
        b.add_profile([("t", v)]);
    }
    b.build()
}

/// Arbitrary collection of either ER kind: the leading flag picks Dirty
/// or Clean-clean (the vendored proptest has no `prop_oneof!`).
fn arbitrary_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        0u8..2,
        proptest::collection::vec("[a-e ]{1,8}", 1..12),
        proptest::collection::vec("[a-e ]{1,8}", 1..8),
    )
        .prop_map(|(kind, a, b)| {
            if kind == 0 {
                dirty_collection(a)
            } else {
                clean_clean_collection(a, b)
            }
        })
}

fn assert_profiles_equal(a: &ProfileCollection, b: &ProfileCollection) {
    assert_eq!(a.kind(), b.kind());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len_first(), b.len_first());
    for (pa, pb) in a.iter().zip(b.iter()) {
        assert_eq!(pa, pb);
    }
}

proptest! {
    /// The interner vocabulary round-trips with every id preserved.
    #[test]
    fn interner_round_trips(coll in arbitrary_collection()) {
        let blocks = TokenBlocking::default().build(&coll);
        let interner = blocks.interner();
        let back = substrates::decode_interner(&substrates::encode_interner(interner)).unwrap();
        prop_assert_eq!(back.len(), interner.len());
        for (i, s) in interner.strings().iter().enumerate() {
            prop_assert_eq!(&*back.resolve(sper_text::TokenId(i as u32)), &**s);
        }
    }

    /// Profile collections round-trip attribute for attribute, with the
    /// source partition preserved.
    #[test]
    fn profiles_round_trip(coll in arbitrary_collection()) {
        let back = substrates::decode_profiles(&substrates::encode_profiles(&coll)).unwrap();
        assert_profiles_equal(&coll, &back);
    }

    /// Block collections round-trip to bit-identical CSR columns.
    #[test]
    fn blocks_round_trip(coll in arbitrary_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let bytes = substrates::encode_blocks(&blocks);
        let back = substrates::decode_blocks(&bytes, Arc::clone(blocks.interner())).unwrap();
        let (a, b) = (blocks.raw_parts(), back.raw_parts());
        prop_assert_eq!(a.kind, b.kind);
        prop_assert_eq!(a.n_profiles, b.n_profiles);
        prop_assert_eq!(a.keys, b.keys);
        prop_assert_eq!(a.offsets, b.offsets);
        prop_assert_eq!(a.members, b.members);
        prop_assert_eq!(a.n_firsts, b.n_firsts);
    }

    /// Frozen profile indexes round-trip to bit-identical CSR arrays.
    #[test]
    fn profile_index_round_trips(coll in arbitrary_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let bytes = substrates::encode_profile_index(&index);
        let back = substrates::decode_profile_index(&bytes).unwrap();
        prop_assert_eq!(back.total_blocks(), index.total_blocks());
        let (ao, ab, ac) = index.raw_parts();
        let (bo, bb, bc) = back.raw_parts();
        prop_assert_eq!(ao, bo);
        prop_assert_eq!(ab, bb);
        prop_assert_eq!(ac, bc);
    }

    /// Growable (incremental) profile indexes round-trip list for list.
    #[test]
    fn incremental_index_round_trips(coll in arbitrary_collection()) {
        let inc = IncrementalTokenBlocking::from_collection(&coll);
        let index = inc.profile_index();
        let bytes = substrates::encode_incremental_index(index);
        let back = substrates::decode_incremental_index(&bytes).unwrap();
        prop_assert_eq!(back.total_blocks(), index.total_blocks());
        prop_assert_eq!(back.n_profiles(), index.n_profiles());
        prop_assert_eq!(back.block_lists(), index.block_lists());
        for i in 0..index.total_blocks() {
            prop_assert_eq!(back.cardinality(BlockId(i as u32)), index.cardinality(BlockId(i as u32)));
        }
    }

    /// Blocking graphs round-trip edge for edge (weights bit-exact) with
    /// the CSR adjacency rebuilt identically.
    #[test]
    fn graph_round_trips(coll in arbitrary_collection()) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
        let bytes = substrates::encode_graph(&graph);
        let back = substrates::decode_graph(&bytes).unwrap();
        prop_assert_eq!(back.num_nodes(), graph.num_nodes());
        prop_assert_eq!(back.num_edges(), graph.num_edges());
        for ((pa, wa), (pb, wb)) in graph.edges().zip(back.edges()) {
            prop_assert_eq!(pa, pb);
            prop_assert_eq!(wa.to_bits(), wb.to_bits());
        }
        for p in 0..graph.num_nodes() as u32 {
            let p = ProfileId(p);
            prop_assert_eq!(back.degree(p), graph.degree(p));
            prop_assert!(back.neighbors(p).eq(graph.neighbors(p)));
        }
    }

    /// Neighbor lists round-trip placement for placement, including the
    /// optional key column, with the position index rebuilt identically.
    #[test]
    fn neighbor_list_round_trips(coll in arbitrary_collection(), keep_keys in 0u8..2, seed in 0u64..16) {
        let nl = if keep_keys == 1 {
            NeighborList::build_with_keys(&coll, seed, Parallelism::SEQUENTIAL)
        } else {
            NeighborList::build(&coll, seed)
        };
        let bytes = substrates::encode_neighbor_list(&nl);
        let back = substrates::decode_neighbor_list(&bytes, Arc::clone(nl.interner())).unwrap();
        prop_assert_eq!(back.as_slice(), nl.as_slice());
        prop_assert_eq!(back.keys(), nl.keys());
        for p in coll.iter() {
            prop_assert_eq!(
                back.position_index().positions_of(p.id),
                nl.position_index().positions_of(p.id)
            );
        }
    }

    /// A full snapshot survives the byte layer: store → bytes → store →
    /// snapshot reproduces every bundled substrate.
    #[test]
    fn snapshot_file_round_trips(coll in arbitrary_collection(), seed in 0u64..8) {
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let interner = Arc::clone(blocks.interner());
        let index = ProfileIndex::build(&blocks);
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
        let nl = NeighborList::build(&coll, seed);

        let mut snapshot = Snapshot::new(Arc::clone(&interner));
        snapshot.profiles = Some(coll.clone());
        snapshot.blocks = Some(blocks.clone());
        snapshot.profile_index = Some(index.clone());
        snapshot.graph = Some(graph.clone());
        snapshot.neighbor_list = Some(nl.clone());

        let bytes = snapshot.to_store().unwrap().to_bytes();
        let back = Snapshot::from_store(&Store::from_bytes(&bytes).unwrap()).unwrap();

        assert_profiles_equal(&coll, back.profiles.as_ref().unwrap());
        let (a, b) = (blocks.raw_parts(), back.blocks.as_ref().unwrap().raw_parts());
        prop_assert_eq!(a.keys, b.keys);
        prop_assert_eq!(a.offsets, b.offsets);
        prop_assert_eq!(a.members, b.members);
        prop_assert_eq!(a.n_firsts, b.n_firsts);
        prop_assert_eq!(
            back.profile_index.as_ref().unwrap().raw_parts().1,
            index.raw_parts().1
        );
        prop_assert_eq!(back.graph.as_ref().unwrap().num_edges(), graph.num_edges());
        prop_assert_eq!(back.neighbor_list.as_ref().unwrap().as_slice(), nl.as_slice());
        // Keys of the reloaded blocks resolve through the reloaded
        // interner to the same strings.
        for (ka, kb) in a.keys.iter().zip(b.keys.iter()) {
            prop_assert_eq!(&*interner.resolve(*ka), &*back.interner().resolve(*kb));
        }
    }
}

/// A snapshot refuses to serialize a block collection keyed by a foreign
/// interner — the keys would resolve through the wrong vocabulary.
#[test]
fn snapshot_rejects_foreign_interner() {
    let coll = dirty_collection(vec!["a b".into(), "b c".into()]);
    let blocks = TokenBlocking::default().build(&coll);
    let mut snapshot = Snapshot::new(sper_text::TokenInterner::shared());
    snapshot.blocks = Some(blocks);
    assert!(matches!(
        snapshot.to_store(),
        Err(sper_store::StoreError::InternerMismatch { .. })
    ));
}

/// Dirty and Clean-clean kinds round-trip through the profile codec,
/// including an empty second source.
#[test]
fn clean_clean_empty_second_source_round_trips() {
    let mut b = ProfileCollectionBuilder::clean_clean();
    b.add_profile([("n", "solo")]);
    b.start_second_source();
    let coll = b.build();
    assert_eq!(coll.kind(), ErKind::CleanClean);
    let back = substrates::decode_profiles(&substrates::encode_profiles(&coll)).unwrap();
    assert_eq!(back.kind(), ErKind::CleanClean);
    assert_eq!(back.len_first(), 1);
    assert_eq!(back.len_second(), 0);
}

/// The empty collection's substrates all round-trip.
#[test]
fn empty_collection_round_trips() {
    let coll = ProfileCollectionBuilder::dirty().build();
    let blocks = TokenBlocking::default().build(&coll);
    let bytes = substrates::encode_blocks(&blocks);
    let back = substrates::decode_blocks(&bytes, Arc::clone(blocks.interner())).unwrap();
    assert!(back.is_empty());
    let nl = NeighborList::build(&coll, 0);
    let back = substrates::decode_neighbor_list(
        &substrates::encode_neighbor_list(&nl),
        Arc::clone(nl.interner()),
    )
    .unwrap();
    assert!(back.is_empty());
}
