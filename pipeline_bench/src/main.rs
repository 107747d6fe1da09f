//! End-to-end progressive-ER benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path pipeline_bench/Cargo.toml -- \
//!     --workload movies-batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs the same pipeline on generated twins: a batch
//! closed loop (build → first comparison → `10·|DP|` emissions, each
//! passed through the Jaccard match function) over the four advanced
//! methods, repeated until `--seconds` are spent, and a streaming closed
//! loop (PPS and LS-PSN sessions, mutations, compaction, checkpoints and
//! a resume), made in three interleaved passes. Workloads differ in
//! which twin and which phase carries the load. Times are the fastest
//! repetition of identical work (see `LAYERS.md` for why). `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! pipeline once untraced and once under an in-memory span capture and
//! prints the per-layer metrics (see `LAYERS.md`). The last stdout line
//! is the JSON result; the line before it stamps host, seed and sizes.

mod batch;
mod stats;
mod stream;
mod trace;

use batch::{peak_during, run_method, run_peak_bytes, BatchData, MethodRun};
use sper_blocking::{KernelPath, ProfileIndex};
use sper_core::{MethodConfig, Parallelism, ProgressiveMethod};
use sper_datagen::{DatasetKind, DatasetSpec, GeneratedDataset};
use sper_model::ProfileText;
use sper_text::{TokenInterner, Tokenizer};
use stats::{fastest, fastest_per_index, ledger_holds, percentile, reportable_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use stream::{run_session, SessionRun, StreamData};
use trace::{span, Capture, Captured};

/// Worker threads of every method and session (`MethodConfig.threads`).
const THREADS: usize = 2;
/// The batch methods: the paper's four advanced methods.
const METHODS: [ProgressiveMethod; 4] = ProgressiveMethod::ADVANCED;
/// The streamed methods: incremental token blocking and Neighbor List.
const SESSIONS: [ProgressiveMethod; 2] = [ProgressiveMethod::Pps, ProgressiveMethod::LsPsn];
/// Epochs per session.
const BATCHES: usize = 100;
/// Fewest and most builds per method in the measured run.
const MIN_BUILDS: usize = 3;
const MAX_BUILDS: usize = 60;
/// Passes of each session (and set-ups) in the measured run; each
/// epoch's latency is its fastest pass, `setup_s` the fastest set-up.
const PASSES: usize = 3;
/// Resumes per session pass in the measured run; `resume_s` sums the
/// per-session fastest resume.
const RESUMES: usize = 2;
/// Percentiles need this many samples beyond them to be reported.
const MIN_TAIL: usize = 10;
const MB: f64 = 1024.0 * 1024.0;

/// One workload: the batch twin and its scale, and the scale of the
/// movies twin the sessions stream (its first source is the base, the
/// second arrives in batches).
struct Workload {
    name: &'static str,
    batch: (DatasetKind, f64),
    stream_scale: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "movies-batch",
        batch: (DatasetKind::Movies, 0.5),
        stream_scale: 0.1,
    },
    Workload {
        name: "freebase-batch",
        batch: (DatasetKind::Freebase, 0.5),
        stream_scale: 0.1,
    },
    Workload {
        name: "movies-stream",
        batch: (DatasetKind::Movies, 0.1),
        stream_scale: 0.2,
    },
];

const USAGE: &str = "usage: pipeline-bench --workload <movies-batch|freebase-batch|movies-stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let name = get("--workload")?;
    Ok(Args {
        workload: WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or(format!("unknown workload {name}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// A workload's generated inputs.
struct Prepared {
    batch: GeneratedDataset,
    text: ProfileText,
    stream: StreamData,
}

impl Prepared {
    /// Generation + text extraction + P1/P2 split: the set-up `setup_s`
    /// times.
    fn new(w: &Workload, seed: u64) -> Self {
        let generate = |(kind, scale): (DatasetKind, f64)| {
            DatasetSpec::paper(kind)
                .with_scale(scale)
                .with_seed(seed)
                .generate()
        };
        let batch = generate(w.batch);
        let text = {
            let _s = span("bench.model.text_extract");
            ProfileText::extract(&batch.profiles)
        };
        let stream = StreamData::split(&generate((DatasetKind::Movies, w.stream_scale)).profiles);
        Self {
            batch,
            text,
            stream,
        }
    }

    fn data(&self) -> BatchData<'_> {
        BatchData {
            profiles: &self.batch.profiles,
            truth: &self.batch.truth,
            text: &self.text,
        }
    }
}

/// Attempted / failed operations, plus the metrics they qualify.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn absorb(&mut self, run: &SessionRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }
}

/// Runs one method, counting a panic or a bad output as a failure.
fn guarded_method(
    out: &mut Outcome,
    m: ProgressiveMethod,
    data: &BatchData<'_>,
    config: &MethodConfig,
) -> Option<MethodRun> {
    let run = catch_unwind(AssertUnwindSafe(|| run_method(m, data, config))).ok();
    let ok = run
        .as_ref()
        .is_some_and(|r| r.valid && r.emissions > 0 && r.first_emission_s.is_finite());
    out.check(ok, || format!("{m} batch run"));
    run.filter(|_| ok)
}

/// Runs one session, counting a panic as the failure of all its epochs.
fn guarded_session(
    out: &mut Outcome,
    m: ProgressiveMethod,
    prepared: &Prepared,
    config: &MethodConfig,
    seed: u64,
    dir: &Path,
    resumes: usize,
) -> Option<SessionRun> {
    let run = catch_unwind(AssertUnwindSafe(|| {
        run_session(m, &prepared.stream, config, BATCHES, seed, dir, resumes)
    }));
    match run {
        Ok(run) => {
            out.absorb(&run);
            Some(run)
        }
        Err(_) => {
            out.attempted += BATCHES as u64;
            out.failed += BATCHES as u64;
            eprintln!("FAILED: {m} session panicked");
            None
        }
    }
}

fn method_config(kind: DatasetKind) -> MethodConfig {
    sper_bench::paper_config(kind)
        .with_threads(Parallelism::new(THREADS).expect("THREADS is non-zero"))
}

/// The end-to-end run (`--trace 0`).
fn measured(args: &Args, dir: &Path, record: &mut Record) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let t = Instant::now();
    let p = Prepared::new(w, args.seed);
    let mut setup = vec![t.elapsed().as_secs_f64()];
    record.sizes(w, &p);
    let (batch_cfg, stream_cfg) = (method_config(w.batch.0), method_config(DatasetKind::Movies));

    // Set-ups, session passes and batch builds interleave: PASSES rounds
    // of (a set-up after the first, one pass of each session, then a
    // third of every method's build share).
    // Each method gets an equal share of `--seconds` and is rebuilt until
    // it has MIN_BUILDS builds and has spent its share, so sub-second
    // methods collect many more builds than GS-PSN's window pass.
    let data = p.data();
    let mut passes: BTreeMap<&str, Vec<SessionRun>> = BTreeMap::new();
    let mut runs: BTreeMap<&str, Vec<MethodRun>> = BTreeMap::new();
    let share = args.seconds / METHODS.len() as f64;
    let mut spent = [0.0; METHODS.len()];
    let mut builds = [0; METHODS.len()];
    for pass in 1..=PASSES {
        if pass > 1 {
            let t = Instant::now();
            let again = Prepared::new(w, args.seed);
            setup.push(t.elapsed().as_secs_f64());
            drop(again);
        }
        for m in SESSIONS {
            let run = guarded_session(&mut out, m, &p, &stream_cfg, args.seed, dir, RESUMES);
            passes.entry(m.name()).or_default().extend(run);
        }
        let budget = share * pass as f64 / PASSES as f64;
        let wants = |i: usize, spent: &[f64], builds: &[usize]| {
            (pass == PASSES && builds[i] < MIN_BUILDS)
                || (spent[i] < budget && builds[i] < MAX_BUILDS)
        };
        while (0..METHODS.len()).any(|i| wants(i, &spent, &builds)) {
            for (i, m) in METHODS.into_iter().enumerate() {
                if !wants(i, &spent, &builds) {
                    continue;
                }
                let t = Instant::now();
                if let Some(r) = guarded_method(&mut out, m, &data, &batch_cfg) {
                    runs.entry(m.name()).or_default().push(r);
                }
                spent[i] += t.elapsed().as_secs_f64();
                builds[i] += 1;
            }
        }
    }

    // Every build, pass and resume repeats identical work, so the fastest
    // repetition is the cost of that work with the least interference.
    out.metric("setup_s", fastest(&setup), "s");
    for m in METHODS {
        let reps = runs.get(m.name()).map_or(&[][..], Vec::as_slice);
        let stable = !reps.is_empty() && reps.iter().all(|r| r.digest == reps[0].digest);
        out.check(stable, || {
            format!("{m} emissions differ across the run's builds")
        });
        if let Some(r) = reps.first() {
            record.method(m, r, reps.len());
        }
        let first: Vec<f64> = reps.iter().map(|r| r.first_emission_s).collect();
        out.metric(format!("first_emission_s.{m}"), fastest(&first), "s");
    }
    for m in METHODS {
        let reps = runs.get(m.name()).map_or(&[][..], Vec::as_slice);
        let total: Vec<f64> = reps.iter().map(|r| r.total_s).collect();
        out.metric(format!("total_s.{m}"), fastest(&total), "s");
    }
    out.metric("peak_heap_mb", run_peak_bytes() as f64 / MB, "MB");
    for m in SESSIONS {
        let runs = passes.get(m.name()).map_or(&[][..], Vec::as_slice);
        let stable = runs.len() == PASSES && runs.iter().all(|r| r.digest == runs[0].digest);
        out.check(stable, || {
            format!("{m} session emissions differ across passes")
        });
        if let Some(r) = runs.first() {
            record.session(m.name(), r);
        }
    }
    for (name, p) in [("epoch_p50_ms", 50), ("epoch_p90_ms", 90)] {
        for m in SESSIONS {
            let runs = passes.get(m.name()).map_or(&[][..], Vec::as_slice);
            let per_pass: Vec<&[f64]> = runs.iter().map(|r| r.epoch_ms.as_slice()).collect();
            let epochs = fastest_per_index(&per_pass);
            let enough = reportable_percentile(epochs.len(), MIN_TAIL).is_some_and(|r| r >= p);
            out.check(enough, || {
                format!("{m}: {} epochs cannot report p{p}", epochs.len())
            });
            let value = if enough {
                percentile(&epochs, p)
            } else {
                f64::NAN
            };
            out.metric(format!("{name}.{m}"), value, "ms");
        }
    }
    let resume: f64 = SESSIONS
        .iter()
        .map(|m| {
            let runs = passes.get(m.name()).map_or(&[][..], Vec::as_slice);
            let all: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.resume_s.iter().copied())
                .collect();
            fastest(&all)
        })
        .sum();
    out.metric("resume_s", resume, "s");
    let success = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("success_rate", success, "ratio");
    out
}

/// Per-layer values gathered from one traced method run.
#[derive(Default)]
struct Layers {
    values: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    fn add(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Mean over the runs that exercised the layer.
    fn mean(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .map_or(f64::NAN, |v| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// The per-layer run (`--trace 1`).
fn traced(args: &Args, dir: &Path, record: &mut Record) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let capture = Capture::start();
    let p = Prepared::new(w, args.seed);
    let setup = capture.finish();
    record.sizes(w, &p);
    let data = p.data();
    let (batch_cfg, stream_cfg) = (method_config(w.batch.0), method_config(DatasetKind::Movies));

    // Standalone probes: outside the stage ledger.
    let capture = Capture::start();
    let (tokens, distinct_tokens) = tokenize_probe(&p);
    let blocks = batch_cfg.workflow.run(data.profiles);
    {
        let _s = span("bench.blocking.profile_index");
        std::hint::black_box(ProfileIndex::build(&blocks));
    }
    let probes = capture.finish();
    let quality = sper_eval::blocking_quality(&blocks, data.profiles, data.truth);
    let n_blocks = blocks.len();
    drop(blocks);

    // The same pipeline untraced, then traced: the overhead's base.
    let mut untraced_s = 0.0;
    let mut untraced_digest = BTreeMap::new();
    for m in SESSIONS {
        let t = Instant::now();
        if let Some(r) = guarded_session(&mut out, m, &p, &stream_cfg, args.seed, dir, 1) {
            untraced_digest.insert(format!("stream.{m}"), r.digest);
        }
        untraced_s += t.elapsed().as_secs_f64();
    }
    for m in METHODS {
        let t = Instant::now();
        if let Some(r) = guarded_method(&mut out, m, &data, &batch_cfg) {
            untraced_digest.insert(m.to_string(), r.digest);
        }
        untraced_s += t.elapsed().as_secs_f64();
    }

    let mut traced_s = 0.0;
    let mut layers = Layers::default();
    let mut ledgers: Vec<(String, u64, i64)> = Vec::new();
    let mut session_metrics = Vec::new();
    for m in SESSIONS {
        let capture = Capture::start();
        let t = Instant::now();
        let run = guarded_session(&mut out, m, &p, &stream_cfg, args.seed, dir, 1);
        traced_s += t.elapsed().as_secs_f64();
        let c = capture.finish();
        let (total, rem) = c.ledger("bench.session");
        ledgers.push((format!("stream.{m}"), total, rem));
        if let Some(run) = run {
            out.check(
                untraced_digest.get(&format!("stream.{m}")) == Some(&run.digest),
                || format!("{m}: traced and untraced sessions emit differently"),
            );
            record.session(m.name(), &run);
            session_metrics.push((m, run, c));
        }
    }
    let mut method_metrics = Vec::new();
    for m in METHODS {
        let capture = Capture::start();
        let t = Instant::now();
        let run = guarded_method(&mut out, m, &data, &batch_cfg);
        traced_s += t.elapsed().as_secs_f64();
        let c = capture.finish();
        let (total, rem) = c.ledger("bench.method");
        ledgers.push((m.to_string(), total, rem));
        collect_method_layers(&mut layers, &c);
        if let Some(run) = run {
            record.method(m, &run, 1);
            method_metrics.push((m, run, c));
        }
    }

    // Output identity: traced = untraced = the engine factory on one
    // thread.
    for (m, run, _) in &method_metrics {
        let sequential = method_config(w.batch.0).with_threads(Parallelism::SEQUENTIAL);
        let reference = catch_unwind(AssertUnwindSafe(|| {
            batch::reference_digest(*m, &data, &sequential)
        }))
        .ok();
        out.check(
            reference == Some(run.digest)
                && untraced_digest.get(&m.to_string()) == Some(&run.digest),
            || format!("{m}: traced, untraced and threads=1 emissions differ"),
        );
    }
    for (name, total, rem) in &ledgers {
        out.check(ledger_holds(*total, *rem), || {
            format!("{name}: stage ledger leaves {rem} ns of {total} ns unattributed")
        });
    }

    // text / blocking
    out.metric(
        "text.tokenize_ms",
        probes.total_ms("bench.text.tokenize"),
        "ms",
    );
    out.metric("text.tokens", tokens as f64, "count");
    out.metric("text.distinct_tokens", distinct_tokens as f64, "count");
    for (name, unit) in [
        ("blocking.token_blocking_ms", "ms"),
        ("blocking.token_blocking_peak_mb", "MB"),
        ("blocking.purge_ms", "ms"),
        ("blocking.filter_ms", "ms"),
    ] {
        out.metric(name, layers.mean(name), unit);
    }
    out.metric(
        "blocking.profile_index_ms",
        probes.total_ms("bench.blocking.profile_index"),
        "ms",
    );
    out.metric("blocking.blocks", n_blocks as f64, "count");
    out.metric(
        "blocking.comparisons",
        quality.distinct_comparisons as f64,
        "count",
    );
    out.metric("blocking.pc", quality.pc, "ratio");
    out.metric("blocking.pq", quality.pq, "ratio");
    for (name, unit) in [
        ("blocking.neighbor_list_ms", "ms"),
        ("blocking.neighbor_list_peak_mb", "MB"),
        ("blocking.parallel_utilization", "ratio"),
    ] {
        out.metric(name, layers.mean(name), unit);
    }

    // core / model, per method
    for (m, run, c) in &method_metrics {
        let n = run.emissions.max(1) as f64;
        out.metric(
            format!("core.init_ms.{m}"),
            c.total_ms("bench.core.init"),
            "ms",
        );
        out.metric(
            format!("core.init_peak_mb.{m}"),
            c.field_max("bench.core.init", "peak_bytes") / MB,
            "MB",
        );
        out.metric(
            format!("core.next_ms.{m}"),
            c.total_ms("bench.core.next"),
            "ms",
        );
        out.metric(
            format!("core.distinct_share.{m}"),
            run.distinct as f64 / n,
            "ratio",
        );
        out.metric(
            format!("core.match_yield.{m}"),
            run.true_matches as f64 / n,
            "ratio",
        );
        out.metric(
            format!("model.match_ms.{m}"),
            c.total_ms("bench.model.match"),
            "ms",
        );
        out.metric(format!("quality.recall.{m}"), run.recall, "ratio");
        out.metric(format!("quality.auc10.{m}"), run.auc10, "ratio");
    }
    out.metric(
        "model.text_extract_ms",
        setup.total_ms("bench.model.text_extract"),
        "ms",
    );

    // stream / store, per session
    for (m, run, c) in &session_metrics {
        for (metric, span_name) in [
            ("stream.open_ms", "bench.stream.open"),
            ("stream.ingest_ms", "bench.stream.ingest"),
            ("stream.mutate_ms", "bench.stream.mutate"),
            ("stream.compact_ms", "bench.stream.compact"),
        ] {
            out.metric(format!("{metric}.{m}"), c.total_ms(span_name), "ms");
        }
        out.metric(
            format!("stream.reprioritize_ms.{m}"),
            run.reprioritize_ms,
            "ms",
        );
        out.metric(format!("stream.emit_ms.{m}"), run.emit_ms, "ms");
        out.metric(
            format!("stream.suppressed_share.{m}"),
            run.suppressed as f64 / run.raw.max(1) as f64,
            "ratio",
        );
        out.metric(
            format!("stream.first_emission_ms.{m}"),
            run.first_emission_s * 1e3,
            "ms",
        );
        out.metric(format!("stream.session_ms.{m}"), run.wall_s * 1e3, "ms");
        out.metric(
            format!("store.checkpoint_ms.{m}"),
            c.total_ms("bench.store.checkpoint"),
            "ms",
        );
        out.metric(
            format!("store.checkpoint_bytes.{m}"),
            run.checkpoint_bytes as f64,
            "bytes",
        );
        out.metric(
            format!("store.checkpoint_peak_mb.{m}"),
            c.field_max("bench.store.checkpoint", "peak_bytes") / MB,
            "MB",
        );
        out.metric(
            format!("store.checkpoint_failures.{m}"),
            run.checkpoint_failures as f64,
            "count",
        );
        out.metric(
            format!("store.resume_read_ms.{m}"),
            c.total_ms("bench.store.resume_read"),
            "ms",
        );
        out.metric(
            format!("store.rehydrate_ms.{m}"),
            c.total_ms("bench.store.rehydrate"),
            "ms",
        );
    }

    out.metric("obs.trace_overhead", traced_s / untraced_s, "ratio");
    for (name, _, rem) in &ledgers {
        out.metric(
            format!("bench.unattributed_ms.{name}"),
            *rem as f64 / 1e6,
            "ms",
        );
    }
    out
}

/// Records the blocking and parallelism layers of one method's capture.
fn collect_method_layers(layers: &mut Layers, c: &Captured) {
    for (metric, span_name) in [
        (
            "blocking.token_blocking_ms",
            "bench.blocking.token_blocking",
        ),
        ("blocking.purge_ms", "bench.blocking.purge"),
        ("blocking.filter_ms", "bench.blocking.filter"),
        ("blocking.neighbor_list_ms", "bench.blocking.neighbor_list"),
    ] {
        if c.count(span_name) > 0 {
            layers.add(metric, c.total_ms(span_name));
        }
    }
    for (metric, span_name) in [
        (
            "blocking.token_blocking_peak_mb",
            "bench.blocking.token_blocking",
        ),
        (
            "blocking.neighbor_list_peak_mb",
            "bench.blocking.neighbor_list",
        ),
    ] {
        if c.count(span_name) > 0 {
            layers.add(metric, c.field_max(span_name, "peak_bytes") / MB);
        }
    }
    if c.count_field("bench.core.init", "utilization") > 0 {
        layers.add(
            "blocking.parallel_utilization",
            c.field_max("bench.core.init", "utilization"),
        );
    }
}

/// `Tokenizer::tokenize_ids_into` over every attribute value of the batch
/// twin into a fresh interner: (tokens, distinct tokens).
fn tokenize_probe(p: &Prepared) -> (usize, usize) {
    let _s = span("bench.text.tokenize");
    let interner = TokenInterner::new();
    let tokenizer = Tokenizer::default();
    let mut ids = Vec::new();
    let mut tokens = 0;
    for profile in p.batch.profiles.iter() {
        for attr in &profile.attributes {
            ids.clear();
            tokenizer.tokenize_ids_into(&attr.value, &interner, &mut ids);
            tokens += ids.len();
        }
    }
    (tokens, interner.len())
}

/// The self-describing stamp printed before the result line.
#[derive(Default)]
struct Record {
    fields: Vec<(String, String)>,
    methods: Vec<String>,
    sessions: Vec<String>,
}

impl Record {
    fn new(args: &Args) -> Self {
        let stamp = sper_bench::run_stamp();
        let mut r = Self::default();
        r.raw("workload", json_str(args.workload.name));
        r.raw("seed", args.seed.to_string());
        r.raw("trace", u8::from(args.trace).to_string());
        r.raw("seconds", args.seconds.to_string());
        r.raw("host", serde::json::to_string(&sper_bench::host_info()));
        r.raw("kernel_path", json_str(KernelPath::active().name()));
        r.raw("threads", THREADS.to_string());
        r.raw("run_stamp", serde::json::to_string(&stamp));
        r
    }

    fn raw(&mut self, key: &str, json: String) {
        self.fields.push((key.to_string(), json));
    }

    fn sizes(&mut self, w: &Workload, p: &Prepared) {
        let b = &p.batch.profiles;
        self.raw(
            "batch",
            format!(
                "{{\"twin\":{},\"scale\":{},\"p1\":{},\"p2\":{},\"matches\":{},\"budget\":{}}}",
                json_str(w.batch.0.name()),
                w.batch.1,
                b.len_first(),
                b.len_second(),
                p.batch.truth.num_matches(),
                p.data().budget(),
            ),
        );
        self.raw(
            "stream",
            format!(
                "{{\"twin\":{},\"scale\":{},\"p1\":{},\"p2\":{},\"batches\":{BATCHES}}}",
                json_str(DatasetKind::Movies.name()),
                w.stream_scale,
                p.stream.base.len(),
                p.stream.rows.len(),
            ),
        );
    }

    fn method(&mut self, m: ProgressiveMethod, r: &MethodRun, reps: usize) {
        eprintln!(
            "{m:>7}: first {:.3}s total {:.3}s recall@budget {:.4} AUC*@10 {:.4} reps {reps}",
            r.first_emission_s, r.total_s, r.recall, r.auc10
        );
        self.methods.push(format!(
            "{}:{{\"recall_at_budget\":{},\"auc_at_10\":{},\"emissions\":{},\"matcher_positives\":{},\"digest\":\"{:016x}\",\"reps\":{reps}}}",
            json_str(m.name()),
            r.recall,
            r.auc10,
            r.emissions,
            r.positives,
            r.digest
        ));
    }

    fn session(&mut self, m: &str, s: &SessionRun) {
        eprintln!(
            "{m:>7} session: wall {:.3}s first {:.3}s epochs {} resume {:?}",
            s.wall_s,
            s.first_emission_s,
            s.epoch_ms.len(),
            s.resume_s
        );
        self.sessions.push(format!(
            "{}:{{\"wall_s\":{},\"first_emission_s\":{},\"epochs\":{}}}",
            json_str(m),
            s.wall_s,
            s.first_emission_s,
            s.epoch_ms.len()
        ));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{\"record\":{");
        for (k, v) in &self.fields {
            let _ = write!(s, "{}:{v},", json_str(k));
        }
        let _ = write!(
            s,
            "\"methods\":{{{}}},\"sessions\":{{{}}}}}}}",
            self.methods.join(","),
            self.sessions.join(",")
        );
        s
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    serde::ser::write_json_str(s, &mut out);
    out
}

/// Where checkpoints go: inside the build directory of the checkout.
fn scratch_dir() -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(root).join(format!("pipeline-bench-{}", std::process::id()))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let dir = scratch_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut record = Record::new(&args);
    let wall = Instant::now();
    let (mut out, _) = peak_during(|| {
        if args.trace {
            traced(&args, &dir, &mut record)
        } else {
            measured(&args, &dir, &mut record)
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("wall {:.1}s", wall.elapsed().as_secs_f64());

    let mut metrics = String::new();
    for (name, value, unit) in std::mem::take(&mut out.metrics) {
        let value = if value.is_finite() {
            value
        } else {
            out.check(false, || format!("{name} was not measured"));
            0.0
        };
        let sep = if metrics.is_empty() { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(&name),
            json_str(unit)
        );
    }
    println!("{}", record.to_json());
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
}
