//! Tracing must be a pure observer. This suite pins the PR 6 bar: every
//! progressive method emits an identical `(pair, weight-bits)` sequence
//! with tracing (and metrics) enabled vs disabled, at 1–8 worker threads —
//! and the trace produced along the way is well-formed.
//!
//! Everything runs inside one `#[test]` because the trace sink and the
//! metrics switch are process-global: phases must execute in a fixed
//! order, not interleaved by the test harness. A dedicated integration
//! test file keeps that global state isolated from every other suite.

use sper::obs;
use sper::prelude::*;
use std::sync::Arc;

const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];
const EMISSIONS: usize = 4_000;

/// The first `EMISSIONS` comparisons of `method`, as comparable bits.
fn drain(
    method: ProgressiveMethod,
    profiles: &ProfileCollection,
    schema_keys: Option<&[String]>,
    threads: usize,
) -> Vec<(Pair, u64)> {
    let config =
        MethodConfig::default().with_threads(Parallelism::new(threads).expect("threads > 0"));
    sper::core::build_method(method, profiles, &config, schema_keys)
        .take(EMISSIONS)
        .map(|c| (c.pair, c.weight.to_bits()))
        .collect()
}

/// Streams the collection in 3 batches and returns the per-epoch pair
/// sequences (order matters — epochs are emitted best-first).
fn stream_epochs(profiles: &ProfileCollection, method: ProgressiveMethod) -> Vec<Vec<Pair>> {
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::exhaustive(method),
    );
    let rows: Vec<_> = profiles.iter().map(|p| p.attributes.clone()).collect();
    let mut epochs = Vec::new();
    for batch in rows.chunks(rows.len().div_ceil(3).max(1)) {
        session.ingest_batch(batch.to_vec());
        let outcome = session.emit_epoch(None);
        epochs.push(outcome.comparisons.iter().map(|c| c.pair).collect());
    }
    epochs
}

#[test]
fn tracing_is_a_pure_observer() {
    let data = DatasetSpec::paper(DatasetKind::Census)
        .with_scale(0.4)
        .generate();
    let profiles = &data.profiles;
    let schema_keys = data.schema_keys.as_deref();
    let methods = [
        ProgressiveMethod::Psn,
        ProgressiveMethod::SaPsn,
        ProgressiveMethod::SaPsab,
        ProgressiveMethod::LsPsn,
        ProgressiveMethod::GsPsn,
        ProgressiveMethod::Pbs,
        ProgressiveMethod::Pps,
    ];

    // Phase 1: baselines with every probe disabled.
    assert!(!obs::trace::enabled(obs::Level::Error), "sink leaked in");
    assert!(!obs::metrics::enabled(), "metrics leaked in");
    let mut baseline = Vec::new();
    for method in methods {
        for threads in THREAD_STEPS {
            baseline.push(drain(method, profiles, schema_keys, threads));
        }
    }
    let stream_baseline = stream_epochs(profiles, ProgressiveMethod::Pps);

    // Phase 2: the same runs under a Debug-level capture sink with the
    // metrics registry switched on.
    let capture = Arc::new(obs::CaptureSink::new());
    obs::trace::install_sink(capture.clone(), obs::Level::Debug);
    obs::metrics::set_enabled(true);

    let mut it = baseline.iter();
    for method in methods {
        for threads in THREAD_STEPS {
            let traced = drain(method, profiles, schema_keys, threads);
            assert_eq!(
                &traced,
                it.next().expect("one baseline per run"),
                "{method:?} at {threads} threads: tracing changed the emission sequence"
            );
        }
    }
    assert_eq!(
        stream_epochs(profiles, ProgressiveMethod::Pps),
        stream_baseline,
        "tracing changed streamed epoch emissions"
    );

    // GS-PSN's and LS-PSN's builds again, each under a capture of its
    // own: the profile of `core.build_method` then holds that method's
    // initialization alone.
    let build_captures = [ProgressiveMethod::GsPsn, ProgressiveMethod::LsPsn].map(|method| {
        let capture = Arc::new(obs::CaptureSink::new());
        obs::trace::install_sink(capture.clone(), obs::Level::Debug);
        for threads in [1, 2] {
            drain(method, profiles, schema_keys, threads);
        }
        (method, capture)
    });

    // Token Blocking's and the Neighbor List's builds on their own, at one
    // worker and at two, over a collection above the spawn break-even, so
    // a multi-core host also runs the publish of the worker vocabularies.
    let movies = DatasetSpec::paper(DatasetKind::Movies)
        .with_scale(0.05)
        .generate();
    let phase_capture = Arc::new(obs::CaptureSink::new());
    obs::trace::install_sink(phase_capture.clone(), obs::Level::Debug);
    for threads in [1, 2] {
        let par = Parallelism::new(threads).expect("threads > 0");
        TokenBlocking.par_build(&movies.profiles, par);
        NeighborList::par_build(&movies.profiles, 7, threads).expect("threads > 0");
    }

    obs::metrics::set_enabled(false);
    obs::trace::clear_sink();

    // Phase 3: the capture actually observed the hot paths it claims to —
    // a sink that records nothing would make phase 2 vacuous.
    let names = capture.names();
    for expected in ["core.build_method", "stream.epoch"] {
        assert!(
            names.contains(&expected),
            "no {expected:?} span recorded (got {} records)",
            names.len()
        );
    }
    // And it observed them a lot: every method × thread-count build opens
    // a core.build_method span.
    let builds = names.iter().filter(|n| **n == "core.build_method").count();
    assert!(
        builds >= methods.len() * THREAD_STEPS.len(),
        "{builds} builds traced"
    );
    // Each step of the streamed epochs' snapshot has its own child span,
    // and together they cover the snapshot span within max(2 %, 2 ms).
    let records: Vec<obs::ProfileRecord> = capture.records().iter().map(Into::into).collect();
    let profile = obs::SpanProfile::from_records(&records);
    let snapshot = "stream.epoch;blocking.epoch_snapshot";
    for step in [
        "blocking.token_snapshot",
        "blocking.purge",
        "blocking.filter",
    ] {
        assert!(
            profile.stacks().contains_key(&format!("{snapshot};{step}")),
            "no {step:?} span inside the epoch snapshot"
        );
    }
    let parent = profile.stacks()[snapshot];
    let tolerance = (parent.total_ns / 50).max(2_000_000);
    assert!(
        parent.self_ns <= tolerance,
        "child spans leave {} of {} ns of the epoch snapshot uncovered",
        parent.self_ns,
        parent.total_ns
    );

    // GS-PSN's and LS-PSN's builds are the Neighbor List build, the
    // window pass and the first tier of its runs, each under its own span,
    // and together they cover the build within the same tolerance.
    for (method, capture) in build_captures {
        let records: Vec<obs::ProfileRecord> = capture.records().iter().map(Into::into).collect();
        let profile = obs::SpanProfile::from_records(&records);
        let build = "core.build_method";
        let prefix = match method {
            ProgressiveMethod::GsPsn => "core.gs_psn",
            _ => "core.ls_psn",
        };
        for step in [
            "blocking.nl_build".to_string(),
            format!("{prefix}.window_pass"),
            format!("{prefix}.first_tier"),
        ] {
            assert!(
                profile.stacks().contains_key(&format!("{build};{step}")),
                "no {step:?} span inside {method:?}'s build"
            );
        }
        let parent = profile.stacks()[build];
        let tolerance = (parent.total_ns / 50).max(2_000_000);
        assert!(
            parent.self_ns <= tolerance,
            "child spans leave {} of {} ns of {method:?}'s build uncovered",
            parent.self_ns,
            parent.total_ns
        );
    }

    // Each build is its phases — tokenize and intern, publish (on several
    // workers), then rank, sort, shuffle and Position Index (Neighbor
    // List) or sort and pack (Token Blocking) — and the phases cover the
    // build within max(2 %, 2 ms).
    let records: Vec<obs::ProfileRecord> = phase_capture.records().iter().map(Into::into).collect();
    let profile = obs::SpanProfile::from_records(&records);
    let fanned_out = !Parallelism::available().is_sequential();
    for (build, phases) in [
        (
            "blocking.token_build",
            &[
                "blocking.tokenize",
                "blocking.token_sort",
                "blocking.token_pack",
            ][..],
        ),
        (
            "blocking.nl_build",
            &[
                "blocking.tokenize",
                "blocking.rank",
                "blocking.nl_sort",
                "blocking.nl_shuffle",
                "blocking.position_index",
            ][..],
        ),
    ] {
        let publish = fanned_out.then_some("blocking.publish");
        for phase in phases.iter().copied().chain(publish) {
            assert!(
                profile.stacks().contains_key(&format!("{build};{phase}")),
                "no {phase:?} span inside {build:?}"
            );
        }
        let parent = profile.stacks()[build];
        let tolerance = (parent.total_ns / 50).max(2_000_000);
        assert!(
            parent.self_ns <= tolerance,
            "phase spans leave {} of {} ns of {build:?} uncovered",
            parent.self_ns,
            parent.total_ns
        );
    }

    // Phase 4: trace records render as parseable JSON lines with the
    // documented required keys, and the metrics registry exports cleanly.
    for record in capture.records() {
        let line = obs::trace::record_to_json(&record);
        let value = serde::json::parse(&line)
            .unwrap_or_else(|e| panic!("trace line is not valid JSON: {e:?}\n{line}"));
        for key in ["t", "kind", "level", "name", "thread", "depth"] {
            assert!(value.get(key).is_some(), "missing {key:?} in {line}");
        }
    }
    let json = obs::metrics::global().to_json();
    serde::json::parse(&json).expect("metrics JSON export parses");
    let prom = obs::metrics::global().to_prometheus();
    assert!(
        prom.contains("# TYPE session_epochs counter"),
        "prometheus dump missing session counters:\n{prom}"
    );
}
