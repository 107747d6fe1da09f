//! Criterion micro-benchmarks: initialization phase per method, emission
//! throughput, weighting-scheme cost, blocking-workflow stages, and the
//! string-similarity match functions of §7.3.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sper_bench::paper_config;
use sper_blocking::{
    BlockFilter, BlockPurger, NeighborList, ProfileIndex, TokenBlocking, WeightingScheme,
};
use sper_core::{build_method, ProgressiveMethod};
use sper_datagen::{DatasetKind, DatasetSpec, GeneratedDataset};
use sper_model::ProfileId;
use sper_text::{jaccard_similarity_sorted, levenshtein};

fn small_twin() -> GeneratedDataset {
    DatasetSpec::paper(DatasetKind::Census).generate()
}

fn movies_twin() -> GeneratedDataset {
    DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(0.05)
        .generate()
}

/// Initialization-phase cost of every schema-agnostic method (Fig. 13e's
/// micro counterpart).
fn bench_init_phase(c: &mut Criterion) {
    let data = small_twin();
    let config = paper_config(DatasetKind::Census);
    let mut group = c.benchmark_group("init_phase");
    for method in ProgressiveMethod::SCHEMA_AGNOSTIC {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &method| {
                b.iter(|| {
                    let mut m =
                        build_method(method, &data.profiles, &config, data.schema_keys.as_deref());
                    black_box(m.next())
                });
            },
        );
    }
    group.finish();
}

/// Emission throughput: 1 000 emissions after initialization.
fn bench_emission(c: &mut Criterion) {
    let data = movies_twin();
    let config = paper_config(DatasetKind::Movies);
    let mut group = c.benchmark_group("emission_1k");
    for method in [
        ProgressiveMethod::SaPsn,
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(method.name()),
            &method,
            |b, &method| {
                b.iter_batched(
                    || build_method(method, &data.profiles, &config, data.schema_keys.as_deref()),
                    |mut m| {
                        for _ in 0..1_000 {
                            if m.next().is_none() {
                                break;
                            }
                        }
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// Edge-weighting cost per scheme over the Profile Index (the dense-array
/// design the paper prescribes).
fn bench_weighting(c: &mut Criterion) {
    let data = small_twin();
    let mut blocks = TokenBlocking.build(&data.profiles);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    let n = data.profiles.len() as u32;
    let pairs: Vec<(ProfileId, ProfileId)> = (0..1_000)
        .map(|i| (ProfileId(i % n), ProfileId((i * 7 + 1) % n)))
        .filter(|(a, b)| a != b)
        .collect();
    let mut group = c.benchmark_group("weighting_1k_pairs");
    for scheme in WeightingScheme::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &(i, j) in &pairs {
                        acc += index.weight(i, j, scheme);
                    }
                    black_box(acc)
                });
            },
        );
    }
    group.finish();
}

/// The three stages of the Token Blocking Workflow plus Neighbor List
/// construction.
fn bench_blocking(c: &mut Criterion) {
    let data = small_twin();
    let mut group = c.benchmark_group("blocking_workflow");
    group.bench_function("token_blocking", |b| {
        b.iter(|| black_box(TokenBlocking.build(&data.profiles)))
    });
    let blocks = TokenBlocking.build(&data.profiles);
    group.bench_function("purging", |b| {
        b.iter_batched(
            || blocks.clone(),
            |blocks| black_box(BlockPurger::paper_default().purge(blocks)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("filtering", |b| {
        b.iter_batched(
            || blocks.clone(),
            |blocks| black_box(BlockFilter::paper_default().filter(blocks)),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("neighbor_list", |b| {
        b.iter(|| black_box(NeighborList::build(&data.profiles, 42)))
    });
    group.finish();
}

/// Match-function costs: the expensive vs cheap functions of §7.3.
fn bench_match_functions(c: &mut Criterion) {
    let a = "the quick brown fox jumps over the lazy dog";
    let b_ = "the quack brown fox jumped over a lazy hog";
    let ta: Vec<&str> = {
        let mut v: Vec<&str> = a.split(' ').collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let tb: Vec<&str> = {
        let mut v: Vec<&str> = b_.split(' ').collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut group = c.benchmark_group("match_functions");
    group.bench_function("edit_distance", |bch| {
        bch.iter(|| black_box(levenshtein(black_box(a), black_box(b_))))
    });
    group.bench_function("jaccard", |bch| {
        bch.iter(|| black_box(jaccard_similarity_sorted(black_box(&ta), black_box(&tb))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Keep the whole suite to a few minutes: these are comparative
    // micro-benchmarks, not absolute measurements.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_init_phase,
        bench_emission,
        bench_weighting,
        bench_blocking,
        bench_match_functions
}
criterion_main!(benches);
