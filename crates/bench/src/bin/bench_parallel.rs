//! Parallel-engine perf harness: times each substrate's one implementation
//! at 1/2/4/8 worker threads and emits `BENCH_parallel.json` — the
//! scaling-trajectory baseline future PRs compare against.
//!
//! ```text
//! cargo run -q --release -p sper-bench --bin bench_parallel            # full run
//! cargo run -q --release -p sper-bench --bin bench_parallel -- --quick # CI smoke
//! cargo run -q --release -p sper-bench --bin bench_parallel -- --out x.json
//! ```
//!
//! Each measurement is the median of `iters` wall-clock runs (quick: 3,
//! full: 7) on the movies twin. The curves cover the four parallelized
//! layers of the engine, each against its own one-worker run:
//!
//! * **weight computation** — `BlockingGraph::build` (LeCoBI-sharded
//!   meta-blocking edge weighting);
//! * **token blocking** — `TokenBlocking::par_build` (per-range bucket
//!   indexes, concatenated in range order);
//! * **neighbor-list construction** — `NeighborList::par_build` (sharded
//!   tokenize/sort + tournament merge);
//! * **top-k scheduling** — `Pps::from_blocks_par` (parallel Algorithm-5
//!   initialization).
//!
//! Every worker count yields the one-worker result bit for bit, so the
//! JSON also records a cheap identity check per curve, plus the dispatched
//! SIMD kernel (`kernel_path`) and the per-worker utilization of each
//! work-stealing fan-out. Speedups only materialize on multi-core hosts:
//! on a 1-core container the multi-thread points keep their identity
//! checks but skip timing (`timed: false`, zeroed ms/speedup) instead of
//! committing scheduler noise as speedup numbers.

use serde::Serialize;
use sper_bench::peak_bytes;
use sper_blocking::{
    BlockCollection, BlockingGraph, NeighborList, Parallelism, TokenBlocking, WeightingScheme,
};
use sper_core::pps::Pps;
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_obs::{event, Level};
use std::time::Instant;

const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Point {
    threads: usize,
    ms: f64,
    /// Sequential-baseline time / this time.
    speedup: f64,
    /// High-water allocation of one build, bytes.
    peak_bytes: usize,
    /// False when timing was skipped (multi-thread point on a 1-core
    /// host) — `ms`/`speedup` are zeroed, the identity check still ran.
    timed: bool,
    /// Per-worker busy-time / wall-time of the work-stealing fan-out of
    /// the untimed build (empty for paths without stealing fan-outs).
    utilization: Vec<f64>,
}

#[derive(Serialize)]
struct Curve {
    name: String,
    baseline: String,
    baseline_ms: f64,
    /// Results verified identical to the one-worker result at every point.
    identical: bool,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct Report {
    dataset: String,
    n_profiles: usize,
    iters: usize,
    /// Worker threads the measuring machine can actually run — scaling is
    /// bounded by this, not by the requested thread count.
    host_parallelism: usize,
    host: sper_obs::HostInfo,
    stamp: sper_obs::RunStamp,
    /// The SIMD kernel the runtime dispatcher chose for this run
    /// (`avx2`/`sse2`/`scalar`; forced to `scalar` under `SPER_NO_SIMD=1`).
    kernel_path: &'static str,
    curves: Vec<Curve>,
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

fn curve(
    name: &str,
    baseline: &str,
    baseline_ms: f64,
    identical: bool,
    mut build_peak: impl FnMut(usize) -> usize,
    mut timed_ms: impl FnMut(usize) -> f64,
) -> Curve {
    let single_core = Parallelism::available().get() == 1;
    let points = THREAD_STEPS
        .iter()
        .map(|&threads| {
            // Drain stale fan-out stats so the utilization below belongs
            // to this curve's build.
            let _ = sper_blocking::take_last_fanout_stats();
            let peak = build_peak(threads);
            let utilization = sper_blocking::take_last_fanout_stats()
                .map(|s| {
                    s.utilization()
                        .iter()
                        .map(|u| (u * 1000.0).round() / 1000.0)
                        .collect()
                })
                .unwrap_or_default();
            // Multi-thread timings on a 1-core host are scheduler noise;
            // keep the identity check and peak, skip the stopwatch.
            let timed = threads == 1 || !single_core;
            let (ms, speedup) = if timed {
                let ms = timed_ms(threads);
                (ms, baseline_ms / ms)
            } else {
                (0.0, 0.0)
            };
            Point {
                threads,
                ms,
                speedup,
                peak_bytes: peak,
                timed,
                utilization,
            }
        })
        .collect();
    Curve {
        name: name.into(),
        baseline: baseline.into(),
        baseline_ms,
        identical,
        points,
    }
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
        .unwrap_or("BENCH_parallel.json")
        .to_string();
    let iters = if quick { 3 } else { 7 };
    // Quick mode still needs enough volume for per-thread scaling to mean
    // anything — spawn/join overhead dominates tiny inputs.
    let scale = if quick { 0.1 } else { 0.5 };

    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(scale)
        .generate();
    let profiles = &data.profiles;
    event!(
        Level::Info,
        "bench_parallel.start",
        dataset = "movies",
        profiles = profiles.len(),
        iters = iters,
        host_parallelism = Parallelism::available().get(),
    );

    let mut curves = Vec::new();

    let par = |threads: usize| Parallelism::new(threads).expect("threads > 0");

    // --- Meta-blocking edge weighting (the acceptance-bar curve) ---
    let mut blocks = TokenBlocking::default().build(profiles);
    blocks.sort_by_cardinality();
    let graph = |threads| BlockingGraph::build(&blocks, WeightingScheme::Arcs, par(threads));
    let sequential_graph = graph(1);
    let baseline_ms = median_ms(iters, || {
        std::hint::black_box(graph(1));
    });
    let identical = THREAD_STEPS.iter().all(|&t| {
        let g = graph(t);
        g.edges().zip(sequential_graph.edges()).all(|(a, b)| a == b)
            && g.num_edges() == sequential_graph.num_edges()
    });
    curves.push(curve(
        "edge_weighting",
        "one-worker BlockingGraph::build",
        baseline_ms,
        identical,
        |threads| peak_bytes(|| graph(threads)).1,
        |threads| {
            median_ms(iters, || {
                std::hint::black_box(graph(threads));
            })
        },
    ));

    // --- Token blocking ---
    let token_blocks = |threads| TokenBlocking::default().par_build(profiles, par(threads));
    let keys_and_members = |b: &BlockCollection| -> Vec<(String, Vec<_>)> {
        b.iter()
            .map(|blk| (blk.key_str().to_string(), blk.profiles().to_vec()))
            .collect()
    };
    let sequential_blocks = keys_and_members(&token_blocks(1));
    let baseline_ms = median_ms(iters, || {
        std::hint::black_box(token_blocks(1));
    });
    let identical = THREAD_STEPS
        .iter()
        .all(|&t| keys_and_members(&token_blocks(t)) == sequential_blocks);
    curves.push(curve(
        "token_blocking",
        "one-worker TokenBlocking::par_build",
        baseline_ms,
        identical,
        |threads| peak_bytes(|| token_blocks(threads)).1,
        |threads| {
            median_ms(iters, || {
                std::hint::black_box(token_blocks(threads));
            })
        },
    ));

    // --- Neighbor-list construction ---
    let sequential_nl = NeighborList::build(profiles, 42);
    let baseline_ms = median_ms(iters, || {
        std::hint::black_box(NeighborList::build(profiles, 42));
    });
    let identical = THREAD_STEPS.iter().all(|&t| {
        NeighborList::par_build(profiles, 42, t).unwrap().as_slice() == sequential_nl.as_slice()
    });
    curves.push(curve(
        "neighbor_list_build",
        "one-worker NeighborList::build",
        baseline_ms,
        identical,
        |threads| peak_bytes(|| NeighborList::par_build(profiles, 42, threads).unwrap()).1,
        |threads| {
            median_ms(iters, || {
                std::hint::black_box(NeighborList::par_build(profiles, 42, threads).unwrap());
            })
        },
    ));

    // --- PPS top-k scheduling (Algorithm-5 initialization) ---
    // Token blocking is built once outside the timed closures; the clone
    // per iteration is three memcpys of the CSR arrays, so the curve
    // isolates the (parallelized) scheduling init itself.
    let pps_blocks = TokenBlocking::default().build(profiles);
    let scheduled =
        || Pps::from_blocks(pps_blocks.clone(), WeightingScheme::Arcs, Pps::DEFAULT_KMAX);
    let sequential_order: Vec<_> = scheduled().sorted_profile_list().to_vec();
    let baseline_ms = median_ms(iters, || {
        std::hint::black_box(scheduled());
    });
    let identical = THREAD_STEPS.iter().all(|&t| {
        let pps = Pps::from_blocks_par(
            pps_blocks.clone(),
            WeightingScheme::Arcs,
            Pps::DEFAULT_KMAX,
            par(t),
        );
        pps.sorted_profile_list() == sequential_order.as_slice()
    });
    curves.push(curve(
        "pps_scheduling_init",
        "one-worker Pps::from_blocks",
        baseline_ms,
        identical,
        |threads| {
            peak_bytes(|| {
                Pps::from_blocks_par(
                    pps_blocks.clone(),
                    WeightingScheme::Arcs,
                    Pps::DEFAULT_KMAX,
                    par(threads),
                )
            })
            .1
        },
        |threads| {
            median_ms(iters, || {
                std::hint::black_box(Pps::from_blocks_par(
                    pps_blocks.clone(),
                    WeightingScheme::Arcs,
                    Pps::DEFAULT_KMAX,
                    par(threads),
                ));
            })
        },
    ));

    let report = Report {
        dataset: "movies".into(),
        n_profiles: profiles.len(),
        iters,
        host_parallelism: Parallelism::available().get(),
        host: sper_bench::host_info(),
        stamp: sper_bench::run_stamp(),
        kernel_path: sper_blocking::KernelPath::active().name(),
        curves,
    };
    println!("kernel dispatch: {}", report.kernel_path);
    for c in &report.curves {
        println!(
            "{:<22} baseline {:>9.3} ms   identical {}",
            c.name, c.baseline_ms, c.identical
        );
        for p in &c.points {
            if p.timed {
                println!(
                    "    {:>2} threads  {:>9.3} ms   speedup {:>5.2}x",
                    p.threads, p.ms, p.speedup
                );
            } else {
                println!("    {:>2} threads  timing skipped (1-core host)", p.threads);
            }
        }
    }
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    event!(Level::Info, "bench_parallel.wrote", path = out.as_str());
    // The per-curve identity checks are a CI gate: a bit-identity
    // regression must fail the build, not merely write `false` into JSON.
    let broken: Vec<&str> = report
        .curves
        .iter()
        .filter(|c| !c.identical)
        .map(|c| c.name.as_str())
        .collect();
    if !broken.is_empty() {
        eprintln!("error: identity check failed for: {}", broken.join(", "));
        std::process::exit(1);
    }
}
