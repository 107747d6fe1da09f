//! Sparse-accumulator weighting perf harness: times the kernel
//! (`sper_blocking::spacc`) against the legacy seen-set + merge-intersect
//! edge-list builder for every weighting scheme at 1/2/4/8 worker
//! threads, tracking **peak bytes allocated** per path, and emits
//! `BENCH_weighting.json` — the weighting-curve baseline future PRs
//! compare against.
//!
//! ```text
//! cargo run -q --release -p sper-bench --bin bench_weighting            # full run
//! cargo run -q --release -p sper-bench --bin bench_weighting -- --quick # CI smoke
//! cargo run -q --release -p sper-bench --bin bench_weighting -- --out x.json
//! ```
//!
//! Each measurement is the median of `iters` wall-clock runs (quick: 3,
//! full: 5) on the movies twin. Per scheme the JSON records:
//!
//! * **baseline** — [`sper_blocking::legacy::legacy_graph_edges`], the
//!   pre-kernel builder (hashed `seen` set, `O(|B_i| + |B_j|)` merge per
//!   pair), with its peak allocation;
//! * **points** — the kernel edge list at 1/2/4/8 threads
//!   ([`sper_blocking::spacc::weighted_edge_list`], the engine inside
//!   `BlockingGraph::build`), each with speedup and peak allocation;
//! * **identical** — edge-sequence equality (pairs and weight bits) of the
//!   kernel output against the legacy builder at every thread count;
//!
//! plus one `methods` section asserting that all seven progressive methods
//! emit identical `(pair, weight)` sequences at 1 vs 4 worker threads now
//! that PBS/PPS run on the kernel.
//!
//! The report also records which SIMD kernel the dispatcher chose
//! (`kernel_path` — rerun under `SPER_NO_SIMD=1` for the forced-scalar
//! curve) and, per point, the per-worker utilization of the work-stealing
//! fan-out. Speedups only materialize on multi-core hosts; on a 1-core
//! container the multi-thread points still run their **identity checks**
//! but skip timing (`timed: false`, zeroed ms/speedup) instead of
//! committing scheduler noise as speedup numbers — the *sequential* point
//! is the honest single-core kernel-vs-legacy comparison either way.

use serde::Serialize;
use sper_bench::peak_bytes;
use sper_blocking::legacy::legacy_graph_edges;
use sper_blocking::spacc::weighted_edge_list;
use sper_blocking::{Parallelism, ProfileIndex, TokenBlocking, WeightingScheme};
use sper_core::{build_method, MethodConfig, ProgressiveMethod};
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_obs::{event, Level};
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    threads: usize,
    ms: f64,
    /// Legacy-baseline time / this time.
    speedup: f64,
    /// High-water allocation of one build, bytes.
    peak_bytes: usize,
    /// False when timing was skipped (multi-thread point on a 1-core
    /// host) — `ms`/`speedup` are zeroed, the identity check still ran.
    timed: bool,
    /// Per-worker busy-time / wall-time of the work-stealing fan-out
    /// (from the identity-check build).
    utilization: Vec<f64>,
}

#[derive(Serialize)]
struct SchemeCurve {
    scheme: String,
    baseline: String,
    baseline_ms: f64,
    baseline_peak_bytes: usize,
    /// Kernel edge sequence equals the legacy builder's (pairs and weight
    /// bits) at every thread count.
    identical: bool,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct MethodCheck {
    method: String,
    /// First `emissions` comparisons are identical at 1 vs 4 threads.
    identical: bool,
    emissions: usize,
}

#[derive(Serialize)]
struct Report {
    dataset: String,
    n_profiles: usize,
    iters: usize,
    host_parallelism: usize,
    host: sper_obs::HostInfo,
    stamp: sper_obs::RunStamp,
    /// The SIMD kernel the runtime dispatcher chose for this run
    /// (`avx2`/`sse2`/`scalar`; forced to `scalar` under `SPER_NO_SIMD=1`).
    kernel_path: &'static str,
    schemes: Vec<SchemeCurve>,
    methods: Vec<MethodCheck>,
}

const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

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
        .unwrap_or("BENCH_weighting.json")
        .to_string();
    let iters = if quick { 3 } else { 5 };
    let scale = if quick { 0.1 } else { 0.5 };

    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(scale)
        .generate();
    let profiles = &data.profiles;
    event!(
        Level::Info,
        "bench_weighting.start",
        dataset = "movies",
        profiles = profiles.len(),
        iters = iters,
        host_parallelism = Parallelism::available().get(),
    );

    let mut blocks = TokenBlocking::default().build(profiles);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);

    let mut schemes = Vec::new();
    for scheme in WeightingScheme::ALL {
        let (reference, baseline_peak) = peak_bytes(|| legacy_graph_edges(&blocks, scheme));
        let baseline_ms = median_ms(iters, || {
            std::hint::black_box(legacy_graph_edges(&blocks, scheme));
        });

        let mut identical = true;
        let mut points = Vec::new();
        let single_core = Parallelism::available().get() == 1;
        for &threads in &THREAD_STEPS {
            let par = Parallelism::new(threads).expect("threads > 0");
            // Drain stale fan-out stats so the utilization below belongs
            // to this build.
            let _ = sper_blocking::take_last_fanout_stats();
            let (edges, peak) = peak_bytes(|| weighted_edge_list(&blocks, &index, scheme, par));
            let utilization = sper_blocking::take_last_fanout_stats()
                .map(|s| {
                    s.utilization()
                        .iter()
                        .map(|u| (u * 1000.0).round() / 1000.0)
                        .collect()
                })
                .unwrap_or_default();
            identical &= edges.len() == reference.len()
                && edges
                    .iter()
                    .zip(&reference)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            // Multi-thread timings on a 1-core host are scheduler noise;
            // keep the identity check, skip the stopwatch.
            let timed = threads == 1 || !single_core;
            let (ms, speedup) = if timed {
                let ms = median_ms(iters, || {
                    std::hint::black_box(weighted_edge_list(&blocks, &index, scheme, par));
                });
                (ms, baseline_ms / ms)
            } else {
                (0.0, 0.0)
            };
            points.push(Point {
                threads,
                ms,
                speedup,
                peak_bytes: peak,
                timed,
                utilization,
            });
        }
        schemes.push(SchemeCurve {
            scheme: scheme.name().into(),
            baseline: "legacy seen-set + merge-intersect edge list".into(),
            baseline_ms,
            baseline_peak_bytes: baseline_peak,
            identical,
            points,
        });
    }

    // Method identity: every progressive method emits the same (pair,
    // weight-bits) sequence at 1 vs 4 worker threads on the kernel-backed
    // engine. Bounded drain keeps the harness fast; `remaining` is not
    // compared because similarity methods size their windows lazily.
    let emissions = if quick { 20_000 } else { 100_000 };
    let mut methods = Vec::new();
    // PSN needs one schema key per profile; the movies twin carries none,
    // so derive the usual concatenated-values key.
    let schema_keys: Vec<String> = data.schema_keys.clone().unwrap_or_else(|| {
        profiles
            .iter()
            .map(|p| p.concat_values().to_lowercase())
            .collect()
    });
    let all_methods = [ProgressiveMethod::Psn]
        .into_iter()
        .chain(ProgressiveMethod::SCHEMA_AGNOSTIC);
    for method in all_methods {
        let drain = |threads: usize| {
            let config = MethodConfig::default()
                .with_threads(Parallelism::new(threads).expect("threads > 0"));
            build_method(method, profiles, &config, Some(&schema_keys))
                .take(emissions)
                .collect::<Vec<_>>()
        };
        let (seq, par) = (drain(1), drain(4));
        let identical = seq.len() == par.len()
            && seq
                .iter()
                .zip(&par)
                .all(|(a, b)| a.pair == b.pair && a.weight.to_bits() == b.weight.to_bits());
        methods.push(MethodCheck {
            method: method.name().into(),
            identical,
            emissions: seq.len(),
        });
    }

    let report = Report {
        dataset: "movies".into(),
        n_profiles: profiles.len(),
        iters,
        host_parallelism: Parallelism::available().get(),
        host: sper_bench::host_info(),
        stamp: sper_bench::run_stamp(),
        kernel_path: sper_blocking::KernelPath::active().name(),
        schemes,
        methods,
    };
    println!("kernel dispatch: {}", report.kernel_path);
    for c in &report.schemes {
        println!(
            "{:<5} baseline {:>9.3} ms  peak {:>6.1} MiB   identical {}",
            c.scheme,
            c.baseline_ms,
            c.baseline_peak_bytes as f64 / (1024.0 * 1024.0),
            c.identical
        );
        for p in &c.points {
            if p.timed {
                println!(
                    "    {:>2} threads  {:>9.3} ms   speedup {:>6.2}x   peak {:>6.1} MiB",
                    p.threads,
                    p.ms,
                    p.speedup,
                    p.peak_bytes as f64 / (1024.0 * 1024.0)
                );
            } else {
                println!(
                    "    {:>2} threads  timing skipped (1-core host)   peak {:>6.1} MiB",
                    p.threads,
                    p.peak_bytes as f64 / (1024.0 * 1024.0)
                );
            }
        }
    }
    for m in &report.methods {
        println!(
            "{:<8} identical {}  ({} emissions)",
            m.method, m.identical, m.emissions
        );
    }
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    event!(Level::Info, "bench_weighting.wrote", path = out.as_str());
    // The identity checks are a CI gate, not just a record: a determinism
    // regression must fail the build, not merely write `false` into JSON.
    let broken = report
        .schemes
        .iter()
        .map(|c| (&c.scheme, c.identical))
        .chain(report.methods.iter().map(|m| (&m.method, m.identical)))
        .filter(|&(_, ok)| !ok)
        .map(|(name, _)| name.as_str())
        .collect::<Vec<_>>();
    if !broken.is_empty() {
        eprintln!("error: identity check failed for: {}", broken.join(", "));
        std::process::exit(1);
    }
}
