//! Cross-crate integration tests: structural invariants every progressive
//! method must uphold, checked on generated twins (not toy fixtures).

use sper::prelude::*;
use sper_datagen::DatasetKind;
use std::collections::HashSet;

fn small(kind: DatasetKind, scale: f64) -> GeneratedDataset {
    DatasetSpec::paper(kind).with_scale(scale).generate()
}

fn config() -> MethodConfig {
    MethodConfig::default()
}

/// Every method only emits valid comparisons: distinct profiles, and
/// cross-source pairs for Clean-clean tasks.
#[test]
fn emissions_are_valid_comparisons() {
    for (kind, scale) in [(DatasetKind::Census, 0.3), (DatasetKind::Movies, 0.01)] {
        let data = small(kind, scale);
        for method in ProgressiveMethod::SCHEMA_AGNOSTIC {
            let m = sper::core::build_method(method, &data.profiles, &config(), None);
            for c in m.take(500) {
                assert!(
                    data.profiles
                        .is_valid_comparison(c.pair.first, c.pair.second),
                    "{method} emitted invalid pair {:?} on {kind}",
                    c.pair
                );
            }
        }
    }
}

/// GS-PSN and PBS never emit the same comparison twice (the paper's
/// repeat-elimination claims); the naive SA-PSN does repeat.
#[test]
fn repeat_elimination_claims() {
    let data = small(DatasetKind::Census, 0.3);
    for method in [ProgressiveMethod::GsPsn, ProgressiveMethod::Pbs] {
        let m = sper::core::build_method(method, &data.profiles, &config(), None);
        let mut seen = HashSet::new();
        for c in m {
            assert!(seen.insert(c.pair), "{method} repeated {:?}", c.pair);
        }
    }
    let sa = sper::core::build_method(ProgressiveMethod::SaPsn, &data.profiles, &config(), None);
    let pairs: Vec<_> = sa.take(5_000).map(|c| c.pair).collect();
    let distinct: HashSet<_> = pairs.iter().copied().collect();
    assert!(distinct.len() < pairs.len(), "SA-PSN is expected to repeat");
}

/// Determinism: the same seed yields bit-identical emission sequences.
#[test]
fn deterministic_emission_sequences() {
    let data = small(DatasetKind::Restaurant, 0.5);
    for method in ProgressiveMethod::SCHEMA_AGNOSTIC {
        let collect = || {
            sper::core::build_method(method, &data.profiles, &config(), None)
                .take(300)
                .map(|c| (c.pair, c.weight.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect(), "{method} is not deterministic");
    }
}

/// Same Eventual Quality (§3.1) for the exhaustive similarity methods:
/// run to exhaustion, SA-PSN and LS-PSN emit the same set of distinct
/// pairs (every pair that ever co-occurs within any window).
#[test]
fn same_eventual_quality_similarity_methods() {
    let data = small(DatasetKind::Restaurant, 0.12);
    let cfg = config();
    let sa: HashSet<Pair> =
        sper::core::build_method(ProgressiveMethod::SaPsn, &data.profiles, &cfg, None)
            .map(|c| c.pair)
            .collect();
    let ls: HashSet<Pair> =
        sper::core::build_method(ProgressiveMethod::LsPsn, &data.profiles, &cfg, None)
            .map(|c| c.pair)
            .collect();
    assert_eq!(sa, ls, "exhaustive runs must agree on the compared pairs");
}

/// PBS covers exactly the distinct comparisons of its block collection,
/// each once — LeCoBI equivalence with a naive dedup.
#[test]
fn pbs_covers_block_comparisons_exactly_once() {
    let data = small(DatasetKind::Census, 0.25);
    let blocks = TokenBlocking.build(&data.profiles);
    let kind = data.profiles.kind();
    let mut expected: HashSet<Pair> = HashSet::new();
    for b in blocks.iter() {
        expected.extend(b.comparisons(kind));
    }
    let pbs = sper::core::pbs::Pbs::from_blocks(blocks, WeightingScheme::Arcs);
    let mut emitted: Vec<Pair> = pbs.map(|c| c.pair).collect();
    let emitted_set: HashSet<Pair> = emitted.iter().copied().collect();
    assert_eq!(emitted_set.len(), emitted.len(), "no repeats");
    emitted.sort();
    let mut expected: Vec<Pair> = expected.into_iter().collect();
    expected.sort();
    assert_eq!(emitted, expected, "exact coverage of ‖B‖'s distinct pairs");
}

/// The blocking-graph reference agrees with the lazy Profile-Index path on
/// generated data (not just the Fig. 3 fixture): every edge, bit for bit.
#[test]
fn lazy_weights_match_materialized_graph() {
    let data = small(DatasetKind::Restaurant, 0.2);
    let mut blocks = TokenBlocking.build(&data.profiles);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs);
    assert!(graph.num_edges() > 0);
    for (pair, w) in graph.edges() {
        let lazy = index.weight(pair.first, pair.second, WeightingScheme::Arcs);
        assert_eq!(lazy.to_bits(), w.to_bits(), "{pair:?}: {lazy} vs {w}");
    }
}

/// Ground truths generated by every twin are valid for their collections.
#[test]
fn generated_truth_is_consistent() {
    for kind in DatasetKind::ALL {
        let scale = if DatasetKind::STRUCTURED.contains(&kind) {
            0.2
        } else {
            0.01
        };
        let data = small(kind, scale);
        assert_eq!(data.truth.validate(&data.profiles), 0, "{kind}");
        assert!(
            data.truth.clean_sources_are_duplicate_free(&data.profiles),
            "{kind}"
        );
        if kind.has_schema_keys() {
            assert_eq!(
                data.schema_keys.as_ref().unwrap().len(),
                data.profiles.len(),
                "{kind}: one key per profile"
            );
        }
    }
}
