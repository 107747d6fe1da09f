//! Method-level equivalence: the seven progressive methods, running on the
//! interned/CSR representation stack, emit exactly what the string-keyed
//! seed semantics entail — dirty and clean-clean.
//!
//! What is pinned down per method family:
//!
//! * **Equality-based (PBS, PPS)** — exhaustive cumulative emission *sets*
//!   equal the distinct valid comparisons of the string-keyed reference
//!   blocks (`sper_blocking::legacy`), with no pair emitted twice; PBS
//!   weights equal the naive string-keyed weight of the emitted pair.
//! * **Similarity-based (SA-PSN, LS-PSN, GS-PSN)** — the full emission
//!   *sequence* is identical when the method runs over the interned
//!   Neighbor List versus a list reconstructed from the string-keyed seed
//!   build (the lists themselves are bit-identical; this closes the loop
//!   at the method layer).
//! * **Hierarchy-based (SA-PSAB)** — block-level emission: the multiset of
//!   emitted pairs matches the suffix blocks' comparisons.
//! * **PSN** — schema-based baseline, unaffected by interning; smoke-tested
//!   for determinism.

use proptest::prelude::*;
use sper_blocking::legacy::{string_block_lists, string_neighbor_list, string_token_blocking};
use sper_blocking::{NeighborList, TokenInterner, WeightingScheme};
use sper_core::gs_psn::GsPsn;
use sper_core::ls_psn::LsPsn;
use sper_core::pbs::Pbs;
use sper_core::pps::Pps;
use sper_core::psn::Psn;
use sper_core::sa_psn::SaPsn;
use sper_core::{build_method, Comparison, MethodConfig, Parallelism, ProgressiveMethod};
use sper_model::{ErKind, Pair, ProfileCollection, ProfileCollectionBuilder};
use std::collections::HashSet;
use std::sync::Arc;

fn dirty_collection() -> impl Strategy<Value = ProfileCollection> {
    proptest::collection::vec("[a-e ]{1,10}", 2..18).prop_map(|values| {
        let mut b = ProfileCollectionBuilder::dirty();
        for v in values {
            b.add_profile([("t", v)]);
        }
        b.build()
    })
}

/// Half Dirty (both vecs in one source), half Clean-clean (P1 | P2).
fn any_collection() -> impl Strategy<Value = ProfileCollection> {
    (
        proptest::collection::vec("[a-e ]{1,10}", 1..9),
        proptest::collection::vec("[a-e ]{1,10}", 1..9),
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

/// The distinct valid comparisons entailed by the string-keyed reference
/// blocks — the eventual emission set of any exhaustive equality-based
/// method under seed semantics.
fn reference_pair_set(coll: &ProfileCollection) -> HashSet<Pair> {
    let blocks = string_token_blocking(coll);
    let mut pairs = HashSet::new();
    for b in &blocks {
        match coll.kind() {
            ErKind::Dirty => {
                for (i, &x) in b.members.iter().enumerate() {
                    for &y in &b.members[i + 1..] {
                        pairs.insert(Pair::new(x, y));
                    }
                }
            }
            ErKind::CleanClean => {
                let (firsts, seconds) = b.members.split_at(b.n_first as usize);
                for &x in firsts {
                    for &y in seconds {
                        pairs.insert(Pair::new(x, y));
                    }
                }
            }
        }
    }
    pairs
}

/// Rebuilds a [`NeighborList`] from the string-keyed seed build by
/// interning its placements — the "seed semantics" list the similarity
/// methods are compared against.
fn neighbor_list_from_seed_build(coll: &ProfileCollection, seed: u64) -> NeighborList {
    let (nl, keys) = string_neighbor_list(coll, seed);
    let interner = TokenInterner::shared();
    let placements: Vec<_> = keys
        .iter()
        .zip(&nl)
        .map(|(k, &p)| (interner.intern(k), p))
        .collect();
    NeighborList::from_sorted_placements(placements, Arc::clone(&interner), coll.len(), false)
}

fn pairs_of(emissions: &[Comparison]) -> Vec<Pair> {
    emissions.iter().map(|c| c.pair).collect()
}

proptest! {
    /// PBS (exhaustive, unpruned blocks): cumulative emission set equals
    /// the seed-semantics distinct-pair set, each pair exactly once, with
    /// the naive string-keyed weight.
    #[test]
    fn pbs_emissions_match_seed_semantics(coll in any_collection(), scheme_idx in 0usize..4) {
        let scheme = WeightingScheme::ALL[scheme_idx];
        let reference = reference_pair_set(&coll);
        let legacy_blocks = string_token_blocking(&coll);
        let lists = string_block_lists(&legacy_blocks, coll.len());

        let blocks = sper_blocking::TokenBlocking::default().build(&coll);
        let emissions: Vec<Comparison> = Pbs::from_blocks(blocks, scheme).collect();
        let pairs = pairs_of(&emissions);
        let distinct: HashSet<Pair> = pairs.iter().copied().collect();
        prop_assert_eq!(distinct.len(), pairs.len(), "LeCoBI must dedup exactly");
        prop_assert_eq!(&distinct, &reference);
        for c in &emissions {
            let expected = sper_blocking::legacy::string_weight(
                &legacy_blocks, &lists, coll.kind(), c.pair.first, c.pair.second, scheme,
            );
            prop_assert!((c.weight - expected).abs() < 1e-9,
                "weight of {:?}: {} vs seed {}", c.pair, c.weight, expected);
        }
    }

    /// PPS (kmax ≥ |P|, unpruned blocks): cumulative emission set equals
    /// the seed-semantics distinct-pair set, each pair at most once per
    /// scheduling rule.
    #[test]
    fn pps_emissions_match_seed_semantics(coll in any_collection()) {
        let reference = reference_pair_set(&coll);
        let blocks = sper_blocking::TokenBlocking::default().build(&coll);
        let kmax = coll.len().max(1);
        let emissions: Vec<Comparison> =
            Pps::from_blocks(blocks, WeightingScheme::Arcs, kmax).collect();
        let distinct: HashSet<Pair> = pairs_of(&emissions).iter().copied().collect();
        prop_assert_eq!(&distinct, &reference);
    }

    /// SA-PSN / LS-PSN / GS-PSN: identical emission sequences over the
    /// interned Neighbor List and the seed-semantics list.
    #[test]
    fn similarity_methods_match_seed_list(coll in any_collection(), seed in 0u64..100) {
        let interned_nl = NeighborList::build(&coll, seed);
        let seed_nl = neighbor_list_from_seed_build(&coll, seed);
        // The substrate itself is bit-identical...
        prop_assert_eq!(interned_nl.as_slice(), seed_nl.as_slice());

        // ...and so is every method's emission sequence on top of it.
        let a: Vec<Comparison> = SaPsn::from_neighbor_list(&coll, interned_nl.clone()).collect();
        let b: Vec<Comparison> = SaPsn::from_neighbor_list(&coll, seed_nl.clone()).collect();
        prop_assert_eq!(pairs_of(&a), pairs_of(&b));

        let a: Vec<Comparison> = LsPsn::from_neighbor_list(
            &coll, interned_nl.clone(), Default::default()).collect();
        let b: Vec<Comparison> = LsPsn::from_neighbor_list(
            &coll, seed_nl.clone(), Default::default()).collect();
        prop_assert_eq!(pairs_of(&a), pairs_of(&b));

        let a: Vec<Comparison> = GsPsn::from_neighbor_list(
            &coll, interned_nl, 5, Default::default()).collect();
        let b: Vec<Comparison> = GsPsn::from_neighbor_list(
            &coll, seed_nl, 5, Default::default()).collect();
        prop_assert_eq!(pairs_of(&a), pairs_of(&b));
    }

    /// SA-PSAB over the interned suffix forest is deterministic and emits
    /// exactly its forest's comparisons in forest order.
    #[test]
    fn sa_psab_emits_forest_comparisons(coll in dirty_collection()) {
        let forest = sper_blocking::SuffixForest::build(&coll, 3);
        let mut expected: Vec<Pair> = Vec::new();
        for node in forest.nodes() {
            expected.extend(node.block.comparisons(forest.kind()));
        }
        let emissions: Vec<Comparison> = sper_core::sa_psab::SaPsab::new(&coll, 3).collect();
        prop_assert_eq!(pairs_of(&emissions), expected);
    }

    /// PSN (schema-based baseline) is untouched by interning: same
    /// emission sequence run-to-run.
    #[test]
    fn psn_still_deterministic(coll in dirty_collection(), seed in 0u64..50) {
        let keys: Vec<String> = coll.iter().map(|p| p.concat_values().to_lowercase()).collect();
        let a: Vec<Comparison> = Psn::new(&coll, &keys, seed).collect();
        let b: Vec<Comparison> = Psn::new(&coll, &keys, seed).collect();
        prop_assert_eq!(pairs_of(&a), pairs_of(&b));
    }

    /// The parallel engine pins the sequential emission order for **all
    /// seven methods**: at any thread count in 1–8, `build_method` with
    /// `threads = t` produces the exact comparison sequence (pairs *and*
    /// weights) of the sequential engine. This is the property that makes
    /// `--threads` safe to default to the machine's parallelism.
    /// (These proptest collections sit below the spawn-threshold, so the
    /// per-refill fan-outs take their inline path here; the dedicated
    /// `parallel_paths_engage_above_spawn_threshold` test below covers the
    /// genuinely sharded execution.)
    #[test]
    fn all_methods_emit_identically_at_any_thread_count(
        coll in any_collection(),
        seed in 0u64..50,
        threads in 2usize..9,
    ) {
        // Raw token blocks (no purging/filtering) keep the equality-based
        // methods exhaustive on these tiny collections; small wmax keeps
        // GS-PSN bounded. PSN needs schema keys.
        let keys: Vec<String> =
            coll.iter().map(|p| p.concat_values().to_lowercase()).collect();
        let config_at = |t: usize| {
            let mut c = MethodConfig {
                seed,
                wmax: 4,
                ..MethodConfig::default()
            };
            c.workflow.purge_ratio = 1.0;
            c.workflow.filter_ratio = 1.0;
            c.threads = Parallelism::new(t).unwrap();
            c
        };
        for method in [
            ProgressiveMethod::Psn,
            ProgressiveMethod::SaPsn,
            ProgressiveMethod::SaPsab,
            ProgressiveMethod::LsPsn,
            ProgressiveMethod::GsPsn,
            ProgressiveMethod::Pbs,
            ProgressiveMethod::Pps,
        ] {
            if method.is_schema_based() && coll.kind() != ErKind::Dirty {
                continue;
            }
            let schema_keys = method.is_schema_based().then_some(&keys[..]);
            // Cap the naive exhaustive methods: their tails are long and
            // order-equivalence of a long prefix is the property we need.
            let budget = 500;
            let sequential: Vec<Comparison> =
                build_method(method, &coll, &config_at(1), schema_keys)
                    .take(budget)
                    .collect();
            let parallel: Vec<Comparison> =
                build_method(method, &coll, &config_at(threads), schema_keys)
                    .take(budget)
                    .collect();
            prop_assert_eq!(
                sequential.len(),
                parallel.len(),
                "{} length diverged at {} threads", method, threads
            );
            for (s, p) in sequential.iter().zip(&parallel) {
                prop_assert_eq!(s.pair, p.pair, "{} order diverged at {} threads", method, threads);
                prop_assert!(
                    (s.weight - p.weight).abs() < 1e-12,
                    "{} weight diverged at {} threads: {} vs {}",
                    method, threads, s.weight, p.weight
                );
            }
        }
    }
}

/// The deterministic 2,600-profile dirty collection of the walls below:
/// 1,300 token pairs plus a 70-profile hub block.
fn hub_collection() -> ProfileCollection {
    let mut b = ProfileCollectionBuilder::dirty();
    for i in 0..2_600u32 {
        let mut text = format!("t{}", i % 1_300);
        if i < 70 {
            text.push_str(" hub");
        }
        b.add_profile([("t", text)]);
    }
    b.build()
}

/// A full GS-PSN drain whose batch spans many sort tiers, as one run (one
/// worker) and as one run per work-stealing chunk (two workers): every
/// pair comes out once, in strictly increasing `emission_order`, and the
/// drain is exactly as long as `remaining()` promised after construction.
#[test]
fn gs_psn_full_drain_is_the_sorted_batch_at_every_worker_count() {
    let coll = hub_collection();
    let mut drains = Vec::new();
    for threads in [1usize, 2] {
        let nl = NeighborList::build(&coll, 42);
        let par = Parallelism::new(threads).unwrap();
        let gs = GsPsn::from_neighbor_list_par(&coll, nl, 64, Default::default(), par);
        let promised = gs.remaining();
        // Two workers split the batch into 16 runs; each must still span
        // several 4,096-comparison tiers.
        assert!(
            promised > 16 * 2 * 4_096,
            "batch of {promised} is too small"
        );
        let drain: Vec<Comparison> = gs.collect();
        assert_eq!(drain.len(), promised, "threads = {threads}");
        let distinct: HashSet<Pair> = drain.iter().map(|c| c.pair).collect();
        assert_eq!(distinct.len(), drain.len(), "threads = {threads}");
        assert!(
            drain
                .windows(2)
                .all(|w| sper_core::emission_order(&w[0], &w[1]).is_lt()),
            "threads = {threads}: drain is not strictly increasing"
        );
        drains.push(drain);
    }
    assert_eq!(drains[0], drains[1]);
}

/// Above the spawn break-even (`MIN_PARALLEL_BATCH`) the advanced methods
/// genuinely shard — parallel window weighting, per-block fan-out, sharded
/// refills — and the emission sequence must still match the sequential
/// engine exactly. 2 600 profiles put the iterated range, the hub block's
/// pair list (C(70,2) = 2 415 pairs) and the refill batches all above the
/// threshold.
#[test]
fn parallel_paths_engage_above_spawn_threshold() {
    let coll = hub_collection();
    let config_at = |t: usize| {
        let mut c = MethodConfig {
            wmax: 3,
            ..MethodConfig::default()
        };
        c.workflow.purge_ratio = 1.0;
        c.workflow.filter_ratio = 1.0;
        c.threads = Parallelism::new(t).unwrap();
        c
    };
    for method in [
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ] {
        // Past 1 300 singleton-block emissions so PBS reaches the hub
        // block's parallel refill inside the budget.
        let budget = 2_000;
        let sequential: Vec<Comparison> = build_method(method, &coll, &config_at(1), None)
            .take(budget)
            .collect();
        for threads in [2usize, 4] {
            let parallel: Vec<Comparison> = build_method(method, &coll, &config_at(threads), None)
                .take(budget)
                .collect();
            assert_eq!(
                sequential.len(),
                parallel.len(),
                "{method} length diverged at {threads} threads"
            );
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    s.pair, p.pair,
                    "{method} order diverged at {threads} threads"
                );
                assert!((s.weight - p.weight).abs() < 1e-12);
            }
        }
    }
}
