//! Interning perf harness: times the interned columnar paths against the
//! string-keyed seed paths (`sper_blocking::legacy`) and emits
//! `BENCH_interning.json` — the perf-trajectory baseline future PRs
//! compare against.
//!
//! ```text
//! cargo run -q --release -p sper-bench --bin bench_interning            # full run
//! cargo run -q --release -p sper-bench --bin bench_interning -- --quick # CI smoke
//! cargo run -q --release -p sper-bench --bin bench_interning -- --out x.json
//! ```
//!
//! Each measurement is the median of `iters` wall-clock runs (quick: 3,
//! full: 9) on the movies twin — the largest, most heterogeneous
//! generated dataset, where token-text costs dominate. Speedup =
//! string-keyed time / interned time; the acceptance bar for PR 2 was
//! ≥ 1.5× on token-blocking build or meta-blocking weighting.

use serde::Serialize;
use sper_blocking::{
    legacy, IncrementalProfileIndex, NeighborList, ProfileIndex, TokenBlocking, WeightingScheme,
};
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_model::ProfileId;
use sper_obs::{event, Level};
use std::time::Instant;

#[derive(Serialize)]
struct Measurement {
    name: String,
    /// What the interned path is measured against — the seed's
    /// string-keyed build where one exists, otherwise the seed's memory
    /// layout (the weighting path was already integer-keyed in the seed).
    baseline: String,
    interned_ms: f64,
    baseline_ms: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    dataset: String,
    n_profiles: usize,
    iters: usize,
    host: sper_obs::HostInfo,
    stamp: sper_obs::RunStamp,
    measurements: Vec<Measurement>,
}

fn median_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn main() {
    sper_bench::init_obs();
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_interning.json")
        .to_string();
    let iters = if quick { 3 } else { 9 };
    // Quick mode still needs enough volume for the ratios to mean
    // anything — token-text costs only dominate at scale.
    let scale = if quick { 0.1 } else { 0.5 };

    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(scale)
        .generate();
    let profiles = &data.profiles;
    event!(
        Level::Info,
        "bench_interning.start",
        dataset = "movies",
        profiles = profiles.len(),
        iters = iters,
    );

    let mut measurements = Vec::new();

    // --- Token Blocking build ---
    let interned = median_ms(iters, || {
        std::hint::black_box(TokenBlocking::default().build(profiles));
    });
    let string_keyed = median_ms(iters, || {
        std::hint::black_box(legacy::string_token_blocking(profiles));
    });
    measurements.push(Measurement {
        name: "token_blocking_build".into(),
        baseline: "string-keyed HashMap<String, Vec<_>> build (seed)".into(),
        interned_ms: interned,
        baseline_ms: string_keyed,
        speedup: string_keyed / interned,
    });

    // --- Meta-blocking edge weighting ---
    // The seed's profile index was already integer-keyed (Vec<Vec<u32>>),
    // so this row isolates the CSR layout change, not interning.
    let mut blocks = TokenBlocking::default().build(profiles);
    blocks.sort_by_cardinality();
    let csr = ProfileIndex::build(&blocks);
    let mut vec_of_vec = IncrementalProfileIndex::new_empty(blocks.n_profiles());
    for blk in blocks.iter() {
        vec_of_vec.push_block(blk.profiles(), blk.cardinality(blocks.kind()));
    }
    let n = profiles.len() as u32;
    let pairs: Vec<(ProfileId, ProfileId)> = (0..50_000u32)
        .map(|i| (ProfileId(i % n), ProfileId((i.wrapping_mul(7) + 1) % n)))
        .filter(|(a, b)| a != b)
        .collect();
    let weight_all = |idx: &dyn Fn(ProfileId, ProfileId) -> f64| {
        let mut acc = 0.0;
        for &(i, j) in &pairs {
            acc += idx(i, j);
        }
        std::hint::black_box(acc);
    };
    let interned = median_ms(iters, || {
        weight_all(&|i, j| csr.weight(i, j, WeightingScheme::Arcs));
    });
    let string_keyed = median_ms(iters, || {
        weight_all(&|i, j| vec_of_vec.weight(i, j, WeightingScheme::Arcs));
    });
    measurements.push(Measurement {
        name: "metablocking_weighting_50k_pairs".into(),
        baseline: "vec-of-vec profile-index layout (seed)".into(),
        interned_ms: interned,
        baseline_ms: string_keyed,
        speedup: string_keyed / interned,
    });

    // --- Neighbor List build ---
    let interned = median_ms(iters, || {
        std::hint::black_box(NeighborList::build(profiles, 42));
    });
    let string_keyed = median_ms(iters, || {
        std::hint::black_box(legacy::string_neighbor_list(profiles, 42));
    });
    measurements.push(Measurement {
        name: "neighbor_list_build".into(),
        baseline: "string-sorted owned placements (seed)".into(),
        interned_ms: interned,
        baseline_ms: string_keyed,
        speedup: string_keyed / interned,
    });

    let report = Report {
        dataset: "movies".into(),
        n_profiles: profiles.len(),
        iters,
        host: sper_bench::host_info(),
        stamp: sper_bench::run_stamp(),
        measurements,
    };
    for m in &report.measurements {
        println!(
            "{:<34} interned {:>9.3} ms   baseline {:>9.3} ms   speedup {:>5.2}x   ({})",
            m.name, m.interned_ms, m.baseline_ms, m.speedup, m.baseline
        );
    }
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    event!(Level::Info, "bench_interning.wrote", path = out.as_str());
}
