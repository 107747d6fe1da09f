//! Observability overhead harness: runs the same progressive stream on
//! the movies twin twice — once with every probe dark, once with the
//! full live-introspection stack armed (Debug-level ring sink, metrics
//! registry, HTTP scrape listener) — and emits `BENCH_obs.json`.
//!
//! ```text
//! cargo run -q --release -p sper-bench --bin bench_obs            # full run
//! cargo run -q --release -p sper-bench --bin bench_obs -- --quick # CI smoke
//! cargo run -q --release -p sper-bench --bin bench_obs -- --out x.json
//! ```
//!
//! Two gates, one hard and one honest:
//!
//! * **identical** — the instrumented run's `(pair, weight-bits)` epoch
//!   sequence equals the dark run's, byte for byte. A mismatch exits
//!   non-zero: observability perturbing emission is a correctness bug,
//!   not a perf regression.
//! * **overhead** — instrumented wall-clock / dark wall-clock. The
//!   budget is ≤ 5%; a full (non-`--quick`) run over budget exits
//!   non-zero, quick runs only record the number (CI containers are too
//!   noisy for a tight timing gate on a small workload).

use serde::Serialize;
use sper_core::ProgressiveMethod;
use sper_datagen::{DatasetKind, DatasetSpec};
use sper_obs::{metrics, trace, BuildInfo, Level, RingSink, DEFAULT_RING_CAPACITY};
use sper_stream::{ProgressiveSession, SessionConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    dataset: String,
    n_profiles: usize,
    batches: usize,
    iters: usize,
    host: sper_obs::HostInfo,
    stamp: sper_obs::RunStamp,
    /// What the instrumented configuration armed.
    instrumented_with: &'static str,
    /// Median wall-clock of the dark run, ms.
    off_ms: f64,
    /// Median wall-clock of the instrumented run, ms.
    on_ms: f64,
    /// Median of the per-iteration instrumented/dark ratios (each pair
    /// runs back to back so container drift cancels) — 1.05 is the budget.
    overhead: f64,
    /// Instrumented and dark runs emitted identical (pair, weight-bits)
    /// epoch sequences.
    identical: bool,
    /// Comparisons emitted across all epochs (same in both runs when
    /// `identical`).
    emissions: usize,
    /// Records held by the flight-recorder ring after the instrumented
    /// runs, and how many older ones it evicted.
    ring_len: usize,
    ring_dropped: u64,
    /// Median wall-clock with the fault registry fully disarmed, ms.
    fault_unarmed_ms: f64,
    /// Median wall-clock with the registry armed on an inert site (a
    /// failpoint that no code path ever hits), ms.
    fault_armed_ms: f64,
    /// Median paired armed-inert/unarmed ratio. Armed-but-not-matching
    /// is the *expensive* side of the unarmed-failpoint claim (every hit
    /// site takes the registry lock instead of one relaxed load), so
    /// this bounds the cost of compiling failpoints in — 1.01 is the
    /// budget.
    fault_overhead: f64,
    /// The armed-inert run emitted the same stream as the dark run.
    fault_identical: bool,
}

/// Streams the rows in `batches` ingest/emit rounds and returns every
/// emitted comparison as comparable bits, epoch order preserved.
fn stream_once(
    rows: &[Vec<sper_model::Attribute>],
    batches: usize,
) -> Vec<(sper_model::Pair, u64)> {
    let mut session = ProgressiveSession::new(
        sper_model::ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(ProgressiveMethod::Pps),
    );
    let mut out = Vec::new();
    for batch in rows.chunks(rows.len().div_ceil(batches).max(1)) {
        session.ingest_batch(batch.to_vec());
        let outcome = session.emit_epoch(None);
        out.extend(
            outcome
                .comparisons
                .iter()
                .map(|c| (c.pair, c.weight.to_bits())),
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_obs.json")
        .to_string();
    // The workload is an *exhaustive* epoch drain (every comparison in
    // every epoch), which grows quadratically with scale — 0.2 keeps the
    // full run in minutes while still emitting ~16M comparisons per pass.
    let iters = if quick { 3 } else { 5 };
    let scale = if quick { 0.1 } else { 0.2 };
    let batches = 4;

    let data = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(scale)
        .generate();
    let rows: Vec<_> = data.profiles.iter().map(|p| p.attributes.clone()).collect();
    println!(
        "movies twin: {} profiles, {} batches, {} iters",
        rows.len(),
        batches,
        iters
    );

    // Identity first: one dark run vs one run under the full
    // live-introspection stack — the same shape `sper stream --listen`
    // arms: a Debug-level flight-recorder ring, the metrics registry,
    // and the HTTP scrape listener.
    assert!(!trace::enabled(Level::Error), "a trace sink leaked in");
    assert!(!metrics::enabled(), "metrics leaked in");
    let dark = stream_once(&rows, batches);

    let ring = Arc::new(RingSink::new(DEFAULT_RING_CAPACITY));
    let arm = || {
        trace::install_sink(ring.clone(), Level::Debug);
        metrics::set_enabled(true);
    };
    let disarm = || {
        trace::clear_sink();
        metrics::set_enabled(false);
    };
    let mut server = sper_obs::serve(
        "127.0.0.1:0",
        BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            kernel: "bench".to_string(),
        },
        Some(ring.clone()),
    )
    .expect("bind scrape listener");
    arm();
    let lit = stream_once(&rows, batches);
    let identical = dark == lit;

    // Timing is *paired*: each iteration runs dark then instrumented
    // back to back and contributes one overhead ratio, so slow drift on
    // a shared container (thermal, noisy neighbors) hits both sides of
    // every pair equally instead of biasing whichever phase ran later.
    // The listener thread stays up throughout — idle-blocked in accept,
    // it costs nothing — only the sink and the metrics switch toggle.
    let mut offs = Vec::with_capacity(iters);
    let mut ons = Vec::with_capacity(iters);
    let mut ratios = Vec::with_capacity(iters);
    for _ in 0..iters {
        disarm();
        let t0 = Instant::now();
        std::hint::black_box(stream_once(&rows, batches));
        let off = t0.elapsed().as_secs_f64() * 1e3;
        arm();
        let t0 = Instant::now();
        std::hint::black_box(stream_once(&rows, batches));
        let on = t0.elapsed().as_secs_f64() * 1e3;
        offs.push(off);
        ons.push(on);
        ratios.push(on / off);
    }
    server.shutdown();
    disarm();

    // Failpoint harness cost, measured from its expensive side: an
    // *armed* registry whose only site is never hit forces every real
    // site the stream touches through the slow registry path, so the
    // ratio upper-bounds what unarmed failpoints (one relaxed load per
    // site) can cost. Probes stay dark — this isolates the fault layer.
    assert!(!sper_obs::fault::armed(), "a fault schedule leaked in");
    sper_obs::fault::arm("bench.inert.site=err(io)").expect("inert schedule parses");
    let inert = stream_once(&rows, batches);
    let fault_identical = dark == inert;
    assert_eq!(
        sper_obs::fault::fired("bench.inert.site"),
        0,
        "the inert site must never fire"
    );
    sper_obs::fault::disarm();
    let mut fault_offs = Vec::with_capacity(iters);
    let mut fault_ons = Vec::with_capacity(iters);
    let mut fault_ratios = Vec::with_capacity(iters);
    for _ in 0..iters {
        sper_obs::fault::disarm();
        let t0 = Instant::now();
        std::hint::black_box(stream_once(&rows, batches));
        let off = t0.elapsed().as_secs_f64() * 1e3;
        sper_obs::fault::arm("bench.inert.site=err(io)").expect("inert schedule parses");
        let t0 = Instant::now();
        std::hint::black_box(stream_once(&rows, batches));
        let on = t0.elapsed().as_secs_f64() * 1e3;
        fault_offs.push(off);
        fault_ons.push(on);
        fault_ratios.push(on / off);
    }
    sper_obs::fault::disarm();

    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let (off_ms, on_ms) = (median(offs), median(ons));
    let overhead = median(ratios);
    let (fault_unarmed_ms, fault_armed_ms) = (median(fault_offs), median(fault_ons));
    let fault_overhead = median(fault_ratios);
    let report = Report {
        dataset: "movies".into(),
        n_profiles: rows.len(),
        batches,
        iters,
        host: sper_bench::host_info(),
        stamp: sper_bench::run_stamp(),
        instrumented_with: "ring sink (Debug) + metrics registry + scrape listener",
        off_ms,
        on_ms,
        overhead: (overhead * 10_000.0).round() / 10_000.0,
        identical,
        emissions: dark.len(),
        ring_len: ring.snapshot().len(),
        ring_dropped: ring.dropped(),
        fault_unarmed_ms,
        fault_armed_ms,
        fault_overhead: (fault_overhead * 10_000.0).round() / 10_000.0,
        fault_identical,
    };
    println!(
        "dark {:>9.3} ms   instrumented {:>9.3} ms   overhead {:>5.2}%   identical {}",
        report.off_ms,
        report.on_ms,
        (report.overhead - 1.0) * 100.0,
        report.identical
    );
    println!(
        "fault unarmed {:>9.3} ms   armed-inert {:>9.3} ms   overhead {:>5.2}%   identical {}",
        report.fault_unarmed_ms,
        report.fault_armed_ms,
        (report.fault_overhead - 1.0) * 100.0,
        report.fault_identical
    );
    if let Err(e) = std::fs::write(&out, serde::json::to_string(&report)) {
        eprintln!("error: {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    if !report.identical {
        eprintln!("error: instrumentation changed the emission stream");
        std::process::exit(1);
    }
    if !report.fault_identical {
        eprintln!("error: an armed (never-firing) fault schedule changed the emission stream");
        std::process::exit(1);
    }
    if !quick && report.overhead > 1.05 {
        eprintln!(
            "error: instrumentation overhead {:.2}% exceeds the 5% budget",
            (report.overhead - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    if !quick && report.fault_overhead > 1.01 {
        eprintln!(
            "error: failpoint overhead {:.2}% exceeds the 1% budget",
            (report.fault_overhead - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}
