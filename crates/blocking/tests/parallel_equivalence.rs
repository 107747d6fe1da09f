//! Parallel-engine equivalence: every substrate's one implementation gives
//! the same result at every worker count — and, transitively, the
//! string-keyed seed semantics preserved in [`sper_blocking::legacy`].
//!
//! What is pinned down:
//!
//! * **Multi-worker wall** — one deterministic collection of 2,700
//!   profiles (dirty and clean-clean), above every spawn break-even guard,
//!   run at 1, 2 and 4 workers through Token Blocking, the Neighbor List,
//!   `BlockingGraph::build` and `prune_blocks`. Each result equals the
//!   one-worker result and the legacy reference, and on a multi-core host
//!   the wall proves through `take_last_fanout_stats` that more than one
//!   worker ran — a guard change cannot silently make it sequential.
//! * **Weights** — `BlockingGraph::build` reproduces the naive
//!   string-keyed weight of every edge under all four weighting schemes
//!   at 1–8 requested workers, with the exact one-worker edge order.
//! * **Neighbor List** — `build_with_keys` is bit-identical to the
//!   one-worker build for any seed and worker count.
//! * **Degenerate inputs** — empty and single-profile collections take
//!   every build without panicking.
//!
//! The random collections of the property tests stay below the guards, so
//! their multi-worker requests run one worker; the wall is what exercises
//! the fan-outs and merges.

use proptest::prelude::*;
use sper_blocking::legacy::{
    legacy_graph_edges, string_block_lists, string_neighbor_list, string_token_blocking,
    string_weight,
};
use sper_blocking::{
    prune, prune_blocks, take_last_fanout_stats, BlockCollection, BlockingGraph, NeighborList,
    Parallelism, PruningScheme, TokenBlocking, WeightingScheme,
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

proptest! {
    /// Weight computation ≡ the string-keyed seed weights, for all four
    /// schemes at 1–8 requested workers: every edge carries the weight the
    /// naive legacy intersection computes, and the edge sequence equals
    /// the one-worker build's.
    #[test]
    fn weights_match_legacy_at_every_worker_count(coll in any_collection(), threads in 1usize..9) {
        let legacy = string_token_blocking(&coll);
        let lists = string_block_lists(&legacy, coll.len());
        // Key-sorted block order on both sides, so block ids line up.
        let blocks = TokenBlocking::default().build(&coll);
        let par = Parallelism::new(threads).expect("threads > 0");
        for scheme in WeightingScheme::ALL {
            let one: Vec<(Pair, f64)> =
                BlockingGraph::build(&blocks, scheme, Parallelism::SEQUENTIAL).edges().collect();
            let many: Vec<(Pair, f64)> = BlockingGraph::build(&blocks, scheme, par).edges().collect();
            prop_assert_eq!(many.len(), one.len());
            for ((pp, pw), (sp, sw)) in many.iter().zip(&one) {
                prop_assert_eq!(pp, sp, "edge order diverged under {}", scheme);
                prop_assert_eq!(pw.to_bits(), sw.to_bits());
                let expected = string_weight(
                    &legacy, &lists, coll.kind(), pp.first, pp.second, scheme,
                );
                prop_assert!(
                    (pw - expected).abs() < 1e-9,
                    "{scheme} weight of {:?} at {threads} threads: {pw} vs seed {expected}",
                    pp
                );
            }
        }
    }

    /// The Neighbor List is bit-identical at every worker count, for any
    /// seed.
    #[test]
    fn neighbor_list_matches_one_worker(
        coll in any_collection(),
        seed in 0u64..1000,
        threads in 1usize..9,
    ) {
        let one = NeighborList::build_with_keys(&coll, seed, Parallelism::SEQUENTIAL);
        let par = Parallelism::new(threads).expect("threads > 0");
        let many = NeighborList::build_with_keys(&coll, seed, par);
        prop_assert_eq!(many.as_slice(), one.as_slice());
        for i in 0..one.len() {
            prop_assert_eq!(many.key_at(i), one.key_at(i), "key at {}", i);
        }
    }
}

/// Profiles in the wall: above `MIN_PARALLEL_BATCH` (2,048), so Token
/// Blocking and the Neighbor List pass their break-even guard, and ten
/// `STEAL_MIN_CHUNK`s, so the per-profile sweeps split into several chunks.
const WALL_PROFILES: u32 = 2_700;

/// The wall's deterministic collection: entity triples (`ent`), mid-sized
/// groups (`grp`, `sec`) that overlap across entities, and one singleton
/// token per profile. The clean-clean variant puts the first 1,400
/// profiles in `P1`.
fn wall_collection(clean_clean: bool) -> ProfileCollection {
    let mut b = if clean_clean {
        ProfileCollectionBuilder::clean_clean()
    } else {
        ProfileCollectionBuilder::dirty()
    };
    for i in 0..WALL_PROFILES {
        if clean_clean && i == 1_400 {
            b.start_second_source();
        }
        b.add_profile([
            ("name", format!("ent{} grp{}", i / 3, i % 97)),
            ("misc", format!("sec{} uniq{}", (i * 7) % 211, i)),
        ]);
    }
    b.build()
}

/// Asserts that the calling thread's last fan-out ran on more than one
/// worker whenever the host can run more than one — the wall must not
/// turn sequential behind a guard change.
fn assert_fanned_out(what: &str, par: Parallelism) {
    let stats = take_last_fanout_stats();
    if par.is_sequential() || Parallelism::available().is_sequential() {
        return;
    }
    let workers = stats.map_or(0, |s| s.workers.len());
    assert!(
        workers > 1,
        "{what} at {par} threads ran {workers} worker(s) on a multi-core host"
    );
}

fn keys_and_members(blocks: &BlockCollection) -> Vec<(String, Vec<ProfileId>, usize)> {
    blocks
        .iter()
        .map(|b| {
            (
                b.key_str().to_string(),
                b.profiles().to_vec(),
                b.first_source().len(),
            )
        })
        .collect()
}

fn run_wall(clean_clean: bool) {
    let coll = wall_collection(clean_clean);
    let seed = 42;
    let legacy_blocks: Vec<(String, Vec<ProfileId>, usize)> = string_token_blocking(&coll)
        .into_iter()
        .map(|b| (b.key, b.members, b.n_first as usize))
        .collect();
    let (legacy_nl, legacy_keys) = string_neighbor_list(&coll, seed);

    let key_order = TokenBlocking::default().build(&coll);
    assert_eq!(keys_and_members(&key_order), legacy_blocks);
    let mut scheduled = key_order.clone();
    scheduled.sort_by_cardinality();
    // The edge order must hold in any block order, not only the scheduled
    // one.
    let orders = [&key_order, &scheduled];
    let legacy_edges: Vec<Vec<(Pair, f64)>> = orders
        .iter()
        .map(|blocks| legacy_graph_edges(blocks, WeightingScheme::Arcs))
        .collect();
    let legacy_graph = BlockingGraph::from_edges(coll.len(), legacy_edges[1].clone());
    let prunings = [
        PruningScheme::Wnp,
        PruningScheme::Cnp { k: 3 },
        PruningScheme::Cep { k: 5_000 },
    ];
    let legacy_pruned: Vec<Vec<(Pair, f64)>> =
        prunings.iter().map(|&s| prune(&legacy_graph, s)).collect();

    let mut one = None;
    for threads in [1, 2, 4] {
        let par = Parallelism::new(threads).expect("threads > 0");
        let label = |what: &str| format!("{what} (clean-clean {clean_clean}, {threads} threads)");

        let blocks = TokenBlocking::default().par_build(&coll, par);
        assert_fanned_out(&label("token blocking"), par);
        let blocks = keys_and_members(&blocks);
        assert_eq!(blocks, legacy_blocks, "{}", label("token blocking"));

        let nl = NeighborList::build_with_keys(&coll, seed, par);
        assert_fanned_out(&label("neighbor list"), par);
        assert_eq!(
            nl.as_slice(),
            legacy_nl.as_slice(),
            "{}",
            label("neighbor list")
        );
        let keys: Vec<String> = (0..nl.len())
            .map(|i| nl.key_at(i).expect("keys kept").to_string())
            .collect();
        assert_eq!(keys, legacy_keys, "{}", label("neighbor list keys"));

        let mut edges = Vec::new();
        for (blocks, legacy) in orders.iter().zip(&legacy_edges) {
            let graph = BlockingGraph::build(blocks, WeightingScheme::Arcs, par);
            assert_fanned_out(&label("blocking graph"), par);
            let graph: Vec<(Pair, f64)> = graph.edges().collect();
            assert_eq!(&graph, legacy, "{}", label("blocking graph"));
            edges.push(graph);
        }

        let mut pruned = Vec::new();
        for (scheme, legacy) in prunings.iter().zip(&legacy_pruned) {
            let kept = prune_blocks(&scheduled, WeightingScheme::Arcs, *scheme, par);
            assert_fanned_out(&label(&format!("prune {}", scheme.name())), par);
            assert_eq!(&kept, legacy, "{}", label(scheme.name()));
            pruned.push(kept);
        }

        let result = (blocks, nl.as_slice().to_vec(), edges, pruned);
        match &one {
            None => one = Some(result),
            Some(one) => assert!(one == &result, "{}", label("differs from one worker")),
        }
    }
}

#[test]
fn multi_worker_wall_dirty() {
    run_wall(false);
}

#[test]
fn multi_worker_wall_clean_clean() {
    run_wall(true);
}

#[test]
fn empty_collection_at_every_worker_count() {
    let empty = ProfileCollectionBuilder::dirty().build();
    for threads in 1..=8 {
        let par = Parallelism::new(threads).expect("threads > 0");
        let blocks = TokenBlocking::default().par_build(&empty, par);
        assert!(blocks.is_empty());
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, par);
        assert_eq!(graph.num_edges(), 0);
        assert_eq!(graph.num_nodes(), 0);
        let nl = NeighborList::par_build(&empty, 7, threads).expect("threads > 0");
        assert!(nl.is_empty());
    }
}

#[test]
fn single_profile_at_every_worker_count() {
    let mut b = ProfileCollectionBuilder::dirty();
    b.add_profile([("name", "solitary profile with several tokens")]);
    let one = b.build();
    let one_nl = NeighborList::build(&one, 7);
    for threads in 1..=8 {
        // One profile → no comparable blocks survive the cardinality
        // filter.
        let par = Parallelism::new(threads).expect("threads > 0");
        let blocks = TokenBlocking::default().par_build(&one, par);
        assert!(blocks.is_empty());
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Ecbs, par);
        assert_eq!(graph.num_edges(), 0);
        let nl = NeighborList::par_build(&one, 7, threads).expect("threads > 0");
        assert_eq!(nl.as_slice(), one_nl.as_slice());
    }
}
