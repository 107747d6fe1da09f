//! `sper` — command-line progressive entity resolution over CSV files.
//!
//! ```text
//! sper resolve  <profiles.csv> [--method pps] [--budget 5000] [--threshold 0.5]
//! sper evaluate <profiles.csv> <matches.csv> [--method pps] [--ec-star 10]
//! sper generate <dataset> [--scale 1.0] [--out profiles.csv --truth matches.csv]
//! sper stream   <dataset|profiles.csv> [--method pps] [--batches 5]
//!               [--epoch-budget N] [--truth matches.csv] [--exhaustive]
//!               [--checkpoint run.sper] [--checkpoint-every N]
//!               [--on-checkpoint-failure abort|continue]
//!               [--mutations feed.txt] [--emit-pairs pairs.csv]
//! sper snapshot <dataset|profiles.csv> [--out snapshot.sper] [--with-graph]
//! sper snapshot <corrupt.sper> --salvage [--out salvaged.sper]
//! sper resume   <run.sper> [--epoch-budget N] [--checkpoint run.sper]
//!               [--emit-pairs pairs.csv]
//! sper report   --trace run.jsonl [--metrics run.json] [--recall recall.csv]
//!               [--out report.html] [--title NAME]
//! ```
//!
//! * `resolve` — emit likely matches best-first, scored with the Jaccard
//!   match function, until the comparison budget is spent.
//! * `evaluate` — given a ground-truth match file (`id,id` per line),
//!   report recall progressiveness and `AUC*`.
//! * `generate` — write one of the seven synthetic twins to CSV.
//! * `stream` — ingest-while-resolving: feed the profiles to a
//!   [`ProgressiveSession`] in batches and report each `ingest →
//!   reprioritize → emit` epoch; `--checkpoint` persists the session
//!   every `--checkpoint-every` epochs so a later `sper resume` continues
//!   exactly where the run stopped. `--mutations FILE` scripts
//!   update/delete operations against the stream (see [`load_mutations`]
//!   for the line format); `--emit-pairs FILE` dumps every emission as
//!   `first,second,weight-bits` for bit-exact diffing between runs.
//! * `snapshot` — build the columnar substrates (blocks, profile index,
//!   neighbor list, optionally the materialized blocking graph) and write
//!   them to a versioned, checksummed `.sper` store for instant reload.
//!   With `--salvage` the positional argument is instead a corrupted
//!   `.sper` file: every section whose CRC still validates is recovered
//!   and rewritten to `--out`, with a report of what was lost.
//! * `resume` — rehydrate a checkpointed session and drain its remaining
//!   emissions, bit-identical to what the original run would have emitted.
//!   When the checkpoint is corrupt, resume falls back to the rotated
//!   last-good `.prev` generation with a warning.
//!
//! Checkpoints are written with last-good rotation (`FILE` + `FILE.prev`)
//! through a retrying writer; `--on-checkpoint-failure continue` lets a
//! run outlive a dead checkpoint disk (the default, `abort`, stops it).
//! `--failpoints SPEC` (or the `SPER_FAILPOINTS` env var) arms the
//! deterministic fault-injection harness — see `sper_obs::fault` for the
//! grammar.
//!
//! Every failure path reports a typed error and a nonzero exit code:
//! usage errors exit 2, runtime errors (IO, corrupt stores, bad data)
//! exit 1. Salvage-with-losses and `.prev`-fallback resume succeed (exit
//! 0) with warnings: recovering *something* is these modes' job.
//!
//! * `report` — fuse a `--trace` JSONL and a `--metrics` JSON dump (plus
//!   an optional recall CSV) into one self-contained HTML file.
//!
//! Observability flags (valid after any subcommand): `-v`/`-vv` stream
//! human-readable progress to stderr, `--trace FILE` writes a
//! machine-readable JSON-lines trace, `--metrics FILE` dumps the metrics
//! registry on exit (Prometheus text format, or JSON when FILE ends in
//! `.json`). The stderr sink filters to its own `-v` level independently
//! of every other sink: `--trace` alone prints nothing to the terminal.
//!
//! Live introspection: `--listen ADDR` starts a scrape endpoint
//! (`/metrics`, `/healthz`, `/buildz`, `/tracez`) on a background thread
//! for the duration of the run; `--profile FILE` writes collapsed stacks
//! (flamegraph.pl/inferno format) and `--chrome-trace FILE` a Perfetto-
//! loadable trace-event JSON, both aggregated from the span stream;
//! `--progress` renders a single in-place status line on a TTY stderr.
//! None of it changes emissions: all output-producing paths are
//! bit-identical with observability on or off.

use sper::prelude::*;
use sper_model::io as model_io;
use sper_model::{Attribute, JaccardMatcher, ProfileId, ProfileText};
use sper_obs::{event, span, Level};
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The counting allocator behind the `--progress` peak-RSS readout and
/// the per-epoch `cli.epoch_alloc` trace events. Two relaxed atomic ops
/// per allocation — unobservable next to the allocation itself.
#[global_allocator]
static ALLOC: sper_obs::PeakAllocTracker = sper_obs::PeakAllocTracker::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut obs = match ObsSetup::from_args(&args) {
        Ok(obs) => obs,
        Err(err) => return failure(err),
    };
    let result = run(&args);
    if let Err(err) = obs.finish() {
        eprintln!("error: {err}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => failure(err),
    }
}

/// Reports `err` on stderr: a usage error exits 2 with the usage text,
/// any other error exits 1.
fn failure(err: CliError) -> ExitCode {
    eprintln!("error: {err}");
    if matches!(err, CliError::Usage(_)) {
        eprintln!();
        eprintln!("{USAGE}");
        ExitCode::from(2)
    } else {
        ExitCode::FAILURE
    }
}

/// The observability configuration of one invocation: sinks (and the
/// scrape server) installed up front, exports written after the
/// subcommand returns.
struct ObsSetup {
    metrics_out: Option<String>,
    profile_out: Option<String>,
    chrome_out: Option<String>,
    /// In-process record capture feeding `--profile`/`--chrome-trace`.
    capture: Option<Arc<sper_obs::CaptureSink>>,
    /// The `--listen` scrape server, held open for the whole run.
    server: Option<sper_obs::ObsServer>,
    /// The `--progress` status-line renderer, if active.
    progress: Option<ProgressLine>,
}

impl ObsSetup {
    /// Parses the observability flags (`-v`/`-vv`, `--trace`, `--metrics`,
    /// `--listen`, `--profile`, `--chrome-trace`, `--progress`),
    /// installing sinks, starting the scrape server, and enabling the
    /// metrics registry as requested.
    ///
    /// Each sink filters independently: the stderr sink shows exactly the
    /// `-v` level however detailed the global threshold is, while the
    /// trace file, the flight-recorder ring, and the profiler capture
    /// always get Debug detail. The global threshold is the most detailed
    /// level any installed sink wants.
    fn from_args(args: &[String]) -> Result<Self, CliError> {
        let verbosity = args
            .iter()
            .map(|a| match a.as_str() {
                "-v" => 1usize,
                "-vv" => 2,
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        // `sper report` *consumes* `--trace`/`--metrics` files; installing
        // the writer sinks would truncate its inputs. Only `-v` applies.
        let reading = args.first().map(String::as_str) == Some("report");
        let output = |name: &str| if reading { Ok(None) } else { flag(args, name) };
        let trace_path = output("--trace")?;
        let metrics_out = output("--metrics")?;
        let profile_out = output("--profile")?;
        let chrome_out = output("--chrome-trace")?;
        let listen = output("--listen")?;
        let progress_wanted = !reading && args.iter().any(|a| a == "--progress");

        let mut sinks: Vec<Arc<dyn sper_obs::Sink>> = Vec::new();
        if verbosity > 0 {
            let max = if verbosity >= 2 {
                Level::Debug
            } else {
                Level::Info
            };
            sinks.push(Arc::new(sper_obs::StderrSink::new(max)));
        }
        if let Some(path) = &trace_path {
            let sink = sper_obs::JsonLinesSink::create(Path::new(path))
                .map_err(CliError::io(path.as_str()))?;
            sinks.push(Arc::new(sink));
        }
        let capture = (profile_out.is_some() || chrome_out.is_some())
            .then(|| Arc::new(sper_obs::CaptureSink::new()));
        if let Some(capture) = &capture {
            sinks.push(Arc::clone(capture) as Arc<dyn sper_obs::Sink>);
        }
        let ring = listen
            .as_ref()
            .map(|_| Arc::new(sper_obs::RingSink::new(sper_obs::DEFAULT_RING_CAPACITY)));
        if let Some(ring) = &ring {
            sinks.push(Arc::clone(ring) as Arc<dyn sper_obs::Sink>);
        }
        if !sinks.is_empty() {
            // The machine-readable sinks want full Debug detail; stderr
            // keeps filtering itself to the `-v` level either way.
            let level = if verbosity >= 2 || sinks.len() > usize::from(verbosity > 0) {
                Level::Debug
            } else {
                Level::Info
            };
            let sink: Arc<dyn sper_obs::Sink> = if sinks.len() == 1 {
                sinks.pop().expect("one sink")
            } else {
                Arc::new(sper_obs::MultiSink::new(sinks))
            };
            sper_obs::trace::install_sink(sink, level);
        }
        let server = listen
            .map(|addr| {
                let build = sper_obs::BuildInfo {
                    version: env!("CARGO_PKG_VERSION").to_string(),
                    kernel: sper::blocking::KernelPath::active().name().to_string(),
                };
                let server = sper_obs::serve(addr.as_str(), build, ring.clone())
                    .map_err(CliError::io(addr.as_str()))?;
                // The one place the bound address is reported — tests and
                // scripts parse this line to find an ephemeral port.
                eprintln!("listening on {}", server.addr());
                Ok::<_, CliError>(server)
            })
            .transpose()?;
        // The scrape endpoint and the progress line both read the
        // registry, so either one turns it on.
        if metrics_out.is_some() || server.is_some() || progress_wanted {
            sper_obs::metrics::set_enabled(true);
        }
        // The progress line owns the terminal's current row: suppressed
        // when stderr is not a TTY (it would garble piped output) or when
        // `-v` already streams records onto the same stream.
        let progress = (progress_wanted && verbosity == 0 && std::io::stderr().is_terminal())
            .then(ProgressLine::start);
        Ok(Self {
            metrics_out,
            profile_out,
            chrome_out,
            capture,
            server,
            progress,
        })
    }

    /// Stops the live surfaces and writes every requested export: the
    /// metrics dump, the collapsed-stack profile, the Chrome trace.
    fn finish(&mut self) -> Result<(), CliError> {
        if let Some(progress) = self.progress.take() {
            progress.stop();
        }
        sper_obs::trace::clear_sink();
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        if let Some(capture) = &self.capture {
            let records: Vec<sper_obs::ProfileRecord> =
                capture.records().iter().map(Into::into).collect();
            if let Some(path) = &self.profile_out {
                let profile = sper_obs::SpanProfile::from_records(&records).with_threads(&records);
                std::fs::write(path, profile.to_collapsed())
                    .map_err(CliError::io(path.as_str()))?;
            }
            if let Some(path) = &self.chrome_out {
                std::fs::write(path, sper_obs::chrome_trace(&records))
                    .map_err(CliError::io(path.as_str()))?;
            }
        }
        if let Some(path) = &self.metrics_out {
            let registry = sper_obs::metrics::global();
            let text = if path.ends_with(".json") {
                registry.to_json()
            } else {
                registry.to_prometheus()
            };
            std::fs::write(path, text).map_err(CliError::io(path.as_str()))?;
        }
        Ok(())
    }
}

/// The `--progress` in-place status line: a background thread re-renders
/// one stderr row (epoch, pairs, throughput, peak RSS) from the metrics
/// registry a few times a second, and clears it on stop. Purely
/// observational — it only ever *reads* the registry and the allocator.
struct ProgressLine {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressLine {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sper-progress".to_string())
            .spawn(move || {
                let registry = sper_obs::metrics::global();
                let mut last_raw = 0u64;
                let mut last_t = Instant::now();
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                    let epoch = registry.gauge("session.epoch").get();
                    let raw = registry.counter("session.raw_emissions").get();
                    let emitted = registry.gauge("session.emitted_total").get();
                    let dt = last_t.elapsed().as_secs_f64();
                    let cps = if dt > 0.0 {
                        (raw.saturating_sub(last_raw)) as f64 / dt
                    } else {
                        0.0
                    };
                    last_raw = raw;
                    last_t = Instant::now();
                    let peak_mib = ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0);
                    // `\r` + clear-to-end keeps the line in place however
                    // much shorter the new render is.
                    eprint!(
                        "\repoch {epoch} · {emitted} pairs · {cps:.0} cmp/s · peak {peak_mib:.0} MiB\x1b[K"
                    );
                }
                eprint!("\r\x1b[K");
            })
            .expect("spawn progress thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Every way a `sper` invocation can fail, with the exit code it maps to.
#[derive(Debug)]
enum CliError {
    /// Bad command line (unknown subcommand, missing operand, bad flag
    /// value). Exit code 2, with usage.
    Usage(String),
    /// A filesystem operation failed. Exit code 1.
    Io {
        path: String,
        source: std::io::Error,
    },
    /// A `.sper` store failed to parse, validate, or write. Exit code 1.
    Store { path: String, source: StoreError },
    /// Input data (CSV, ground truth) failed to parse. Exit code 1.
    Data { path: String, detail: String },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Store { path, source } => write!(f, "{path}: {source}"),
            CliError::Data { path, detail } => write!(f, "{path}: {detail}"),
        }
    }
}

impl CliError {
    fn io(path: impl Into<String>) -> impl FnOnce(std::io::Error) -> Self {
        let path = path.into();
        move |source| CliError::Io { path, source }
    }

    fn store(path: impl Into<String>) -> impl FnOnce(StoreError) -> Self {
        let path = path.into();
        move |source| CliError::Store { path, source }
    }

    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }
}

const USAGE: &str = "usage:
  sper resolve  <profiles.csv> [--method psn|sa-psn|sa-psab|ls-psn|gs-psn|pbs|pps]
                [--budget N] [--threshold T] [--threads N]
  sper evaluate <profiles.csv> <matches.csv> [--method M] [--ec-star X] [--threads N]
  sper generate <census|restaurant|cora|cddb|movies|dbpedia|freebase>
                [--scale S] [--out FILE] [--truth FILE]
  sper stream   <dataset|profiles.csv> [--method M] [--batches N]
                [--epoch-budget N] [--scale S] [--truth FILE] [--exhaustive]
                [--threads N] [--checkpoint FILE] [--checkpoint-every N]
                [--on-checkpoint-failure abort|continue]
                [--mutations FILE] [--emit-pairs FILE]
  sper snapshot <dataset|profiles.csv> [--scale S] [--seed N] [--out FILE]
                [--with-graph]
  sper snapshot <corrupt.sper> --salvage [--out FILE]
  sper resume   <checkpoint.sper> [--epoch-budget N] [--threads N]
                [--checkpoint FILE] [--emit-pairs FILE]
  sper report   --trace FILE [--metrics FILE] [--recall FILE]
                [--out FILE] [--title NAME]

Observability (any subcommand): -v / -vv print progress to stderr,
--trace FILE writes a JSON-lines span/event trace, --metrics FILE dumps
the metrics registry on exit (Prometheus text, or JSON for *.json).
--listen ADDR serves /metrics /healthz /buildz /tracez while the run is
live (port 0 picks one; the bound address prints to stderr).
--profile FILE writes collapsed stacks (flamegraph.pl/inferno),
--chrome-trace FILE a Perfetto-loadable trace-event JSON.
--progress renders an in-place status line on a TTY stderr
(suppressed under -v). None of these change what gets emitted.

--threads defaults to the machine's available parallelism; results are
bit-identical at any thread count — with or without tracing. Checkpoints
and snapshots are versioned, checksummed binary stores (magic SPER);
`sper resume` continues a checkpointed stream bit-identically.

Fault tolerance: checkpoints rotate the previous generation to
FILE.prev and `sper resume` falls back to it when FILE is corrupt;
`sper snapshot FILE --salvage` recovers the CRC-valid sections of a
damaged store. --failpoints SPEC (or SPER_FAILPOINTS) arms deterministic
fault injection, e.g. 'store.rename=1*err(io);store.fsync=1in5*delay(50)'
(see the sper_obs::fault docs for sites, actions, and triggers).";

/// The value of the value flag `name`, `None` when it is absent. A flag
/// present without a value — last on the line, or followed by another
/// `--flag` — is a usage error: `--out --truth t.csv` must not write a
/// file named `--truth`, and a trailing `--emit-pairs` must not vanish.
fn flag(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if !value.starts_with("--") => Ok(Some(value.clone())),
        _ => Err(CliError::usage(format!("{name} needs a value"))),
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    flag(args, name)?
        .map(|s| {
            s.parse()
                .map_err(|e| CliError::usage(format!("{name}: {e}")))
        })
        .transpose()
}

/// `--threads N` (validated ≥ 1), defaulting to the machine's available
/// parallelism. Emission order does not depend on the choice.
fn parse_threads(args: &[String]) -> Result<Parallelism, CliError> {
    match parse_flag(args, "--threads")? {
        None => Ok(Parallelism::available()),
        Some(n) => Parallelism::new(n).map_err(|e| CliError::usage(format!("--threads: {e}"))),
    }
}

fn parse_method(s: &str) -> Result<ProgressiveMethod, CliError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "psn" => ProgressiveMethod::Psn,
        "sa-psn" => ProgressiveMethod::SaPsn,
        "sa-psab" => ProgressiveMethod::SaPsab,
        "ls-psn" => ProgressiveMethod::LsPsn,
        "gs-psn" => ProgressiveMethod::GsPsn,
        "pbs" => ProgressiveMethod::Pbs,
        "pps" => ProgressiveMethod::Pps,
        other => return Err(CliError::usage(format!("unknown method '{other}'"))),
    })
}

fn method_flag(args: &[String]) -> Result<ProgressiveMethod, CliError> {
    parse_method(&flag(args, "--method")?.unwrap_or_else(|| "pps".into()))
}

fn parse_dataset(s: &str) -> Result<DatasetKind, CliError> {
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == s.to_ascii_lowercase())
        .ok_or_else(|| CliError::usage(format!("unknown dataset '{s}'")))
}

/// Arms the fault-injection harness: `--failpoints SPEC` wins over the
/// `SPER_FAILPOINTS` environment variable. A malformed spec is a usage
/// error (exit 2) — a typo must not silently run an unfaulted schedule.
fn arm_failpoints(args: &[String]) -> Result<(), CliError> {
    match flag(args, "--failpoints")? {
        Some(spec) => sper_obs::fault::arm(&spec),
        None => sper_obs::fault::arm_from_env(),
    }
    .map(|_| ())
    .map_err(|e| CliError::usage(e.to_string()))
}

fn run(args: &[String]) -> Result<(), CliError> {
    arm_failpoints(args)?;
    match args.first().map(String::as_str) {
        Some("resolve") => resolve(args),
        Some("evaluate") => evaluate(args),
        Some("generate") => generate(args),
        Some("stream") => stream(args),
        Some("snapshot") => snapshot(args),
        Some("resume") => resume(args),
        Some("report") => report(args),
        _ => Err(CliError::usage("missing or unknown subcommand")),
    }
}

fn load_profiles(path: &str) -> Result<ProfileCollection, CliError> {
    let text = std::fs::read_to_string(path).map_err(CliError::io(path))?;
    model_io::read_csv(&text).map_err(|e| CliError::Data {
        path: path.into(),
        detail: e.to_string(),
    })
}

fn load_truth(path: &str, n_profiles: usize) -> Result<GroundTruth, CliError> {
    let text = std::fs::read(path).map_err(CliError::io(path))?;
    model_io::read_matches(&text[..], n_profiles).map_err(|e| CliError::Data {
        path: path.into(),
        detail: e.to_string(),
    })
}

/// Loads a dataset operand: a known twin name (generated, truth included)
/// or a CSV path (truth via `--truth`).
fn load_source(
    args: &[String],
    source: &str,
) -> Result<(ProfileCollection, Option<GroundTruth>), CliError> {
    match parse_dataset(source) {
        Ok(kind) => {
            let scale: f64 = parse_flag(args, "--scale")?.unwrap_or(1.0);
            let data = DatasetSpec::paper(kind).with_scale(scale).generate();
            Ok((data.profiles, Some(data.truth)))
        }
        Err(_) => {
            let profiles = load_profiles(source)?;
            let truth = flag(args, "--truth")?
                .map(|p| load_truth(&p, profiles.len()))
                .transpose()?;
            Ok((profiles, truth))
        }
    }
}

fn resolve(args: &[String]) -> Result<(), CliError> {
    let path = args
        .get(1)
        .ok_or_else(|| CliError::usage("resolve needs a CSV path"))?;
    let profiles = load_profiles(path)?;
    let method = method_flag(args)?;
    if method.is_schema_based() {
        return Err(CliError::usage(
            "PSN needs schema keys; use a schema-agnostic method",
        ));
    }
    let budget: u64 = parse_flag(args, "--budget")?.unwrap_or(10 * profiles.len() as u64);
    let threshold: f64 = parse_flag(args, "--threshold")?.unwrap_or(0.5);

    let threads = parse_threads(args)?;
    event!(
        Level::Info,
        "cli.resolve",
        profiles = profiles.len(),
        method = method.name(),
        budget = budget,
        threshold = threshold,
        threads = threads.get(),
    );
    let config = MethodConfig::default().with_threads(threads);
    let text = ProfileText::extract(&profiles);
    let matcher = JaccardMatcher::new(&text, threshold);
    let m = sper::core::build_method(method, &profiles, &config, None);

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // A closed downstream pipe (e.g. `| head`) is a normal way to stop a
    // progressive run early — treat it as success.
    let write_row = |out: &mut dyn Write, line: String| -> Result<bool, CliError> {
        match writeln!(out, "{line}") {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
            Err(e) => Err(CliError::Io {
                path: "<stdout>".into(),
                source: e,
            }),
        }
    };
    let mut emitted = 0u64;
    let mut declared = 0u64;
    let mut seen = std::collections::HashSet::new();
    if !write_row(&mut out, "profile_a,profile_b,jaccard".into())? {
        return Ok(());
    }
    for c in m {
        if emitted >= budget {
            break;
        }
        emitted += 1;
        if !seen.insert(c.pair) {
            continue;
        }
        let sim = matcher.similarity(c.pair.first, c.pair.second);
        if sim >= threshold {
            declared += 1;
            let row = format!("{},{},{sim:.4}", c.pair.first.0, c.pair.second.0);
            if !write_row(&mut out, row)? {
                return Ok(());
            }
        }
    }
    event!(
        Level::Info,
        "cli.resolve_done",
        emitted = emitted,
        declared = declared,
    );
    Ok(())
}

fn evaluate(args: &[String]) -> Result<(), CliError> {
    let path = args
        .get(1)
        .ok_or_else(|| CliError::usage("evaluate needs a profiles CSV path"))?;
    let matches_path = args
        .get(2)
        .ok_or_else(|| CliError::usage("evaluate needs a matches CSV path"))?;
    let profiles = load_profiles(path)?;
    let truth = load_truth(matches_path, profiles.len())?;
    let method = method_flag(args)?;
    let ec_star: f64 = parse_flag(args, "--ec-star")?.unwrap_or(10.0);

    let config = MethodConfig::default().with_threads(parse_threads(args)?);
    let result = run_progressive(
        || sper::core::build_method(method, &profiles, &config, None),
        &truth,
        RunOptions {
            max_ec_star: ec_star,
            stop_at_full_recall: true,
        },
    );
    println!("method        : {}", result.method);
    println!("|P|           : {}", profiles.len());
    println!("|DP|          : {}", truth.num_matches());
    println!("emissions     : {}", result.curve.emissions());
    println!("matches found : {}", result.curve.matches_found());
    println!("final recall  : {:.4}", result.curve.final_recall());
    println!("AUC*@{ec_star:<7}: {:.4}", result.auc(ec_star));
    println!("init time     : {:?}", result.init_time);
    Ok(())
}

/// Emits the per-epoch allocation sample (`cli.epoch_alloc`: this epoch's
/// peak heap bytes) and resets the high-water mark, so each epoch reports
/// its own peak rather than the run's running maximum. The run report
/// charts these events against the epoch wall-clock series.
fn record_epoch_alloc(epoch: usize) {
    event!(
        Level::Debug,
        "cli.epoch_alloc",
        epoch = epoch,
        peak_bytes = ALLOC.peak_bytes() as u64,
        live_bytes = ALLOC.live_bytes() as u64,
    );
    ALLOC.reset_peak();
}

/// The per-epoch CSV header every streaming-shaped subcommand shares.
const EPOCH_HEADER: &str =
    "epoch,ingested,profiles,new_emissions,suppressed,init_us,emit_us,wall_us,cps";

/// Prints the per-epoch CSV row every streaming-shaped subcommand shares.
fn print_epoch_row(outcome: &EpochOutcome) {
    let r = &outcome.report;
    println!(
        "{},{},{},{},{},{},{},{},{:.0}",
        r.epoch,
        r.ingested,
        r.profiles_total,
        r.new_emissions,
        r.suppressed,
        r.init_time.as_micros(),
        r.emission_time.as_micros(),
        r.wall_clock.as_micros(),
        r.comparisons_per_sec,
    );
}

/// One scripted mutation from a `--mutations` feed, bound to the batch it
/// fires after.
enum Mutation {
    /// `<batch> del <id>` — retract a previously ingested profile.
    Del(u32),
    /// `<batch> upd <id> k=v[;k=v…]` — amend: retract `<id>`, re-ingest
    /// the new attribute set under a fresh id.
    Upd(u32, Vec<Attribute>),
    /// `<batch> compact` — physically drop pending tombstones now.
    Compact,
}

/// Parses a `--mutations` feed into per-batch operation lists.
///
/// One operation per line, blank lines and `#` comments ignored:
///
/// ```text
/// <batch> del <id>
/// <batch> upd <id> <key>=<value>[;<key>=<value>…]
/// <batch> compact
/// ```
///
/// `<batch>` is the 0-based ingest batch the operation fires after —
/// mutations apply once that batch's rows are ingested, before the
/// epoch's emission. Ids are session profile ids (dense ingest order;
/// for Clean-clean streams the base `P1` occupies the low ids). Ids are
/// validated lazily at application time, so a feed may delete a profile
/// an earlier `upd` created.
fn load_mutations(path: &str, n_batches: usize) -> Result<Vec<Vec<Mutation>>, CliError> {
    let data = |detail: String| CliError::Data {
        path: path.into(),
        detail,
    };
    let text = std::fs::read_to_string(path).map_err(CliError::io(path))?;
    let mut ops: Vec<Vec<Mutation>> = (0..n_batches).map(|_| Vec::new()).collect();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| data(format!("line {}: {msg}: '{line}'", lineno + 1));
        let mut fields = line.splitn(3, char::is_whitespace);
        let batch: usize = fields
            .next()
            .expect("non-empty line")
            .parse()
            .map_err(|_| err("batch index is not a number"))?;
        if batch >= n_batches {
            return Err(data(format!(
                "line {}: batch {batch} out of range (--batches {n_batches})",
                lineno + 1
            )));
        }
        let op = match fields.next() {
            Some("del") => {
                let id = fields
                    .next()
                    .ok_or_else(|| err("del needs a profile id"))?
                    .trim()
                    .parse()
                    .map_err(|_| err("del id is not a number"))?;
                Mutation::Del(id)
            }
            Some("upd") => {
                let rest = fields
                    .next()
                    .ok_or_else(|| err("upd needs id and attributes"))?;
                let (id, spec) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err("upd needs attributes after the id"))?;
                let id = id.parse().map_err(|_| err("upd id is not a number"))?;
                let attrs: Vec<Attribute> = spec
                    .split(';')
                    .map(|kv| {
                        kv.split_once('=')
                            .map(|(k, v)| Attribute::new(k.trim(), v.trim()))
                            .ok_or_else(|| err("attribute is not key=value"))
                    })
                    .collect::<Result<_, _>>()?;
                Mutation::Upd(id, attrs)
            }
            Some("compact") => Mutation::Compact,
            _ => return Err(err("unknown operation (del, upd, compact)")),
        };
        ops[batch].push(op);
    }
    Ok(ops)
}

/// Applies one batch's scripted mutations to the session, validating ids
/// against the live collection (a typed error, never a panic, on a stale
/// or unknown id).
fn apply_mutations(
    session: &mut ProgressiveSession,
    ops: &[Mutation],
    path: &str,
) -> Result<(), CliError> {
    let check = |session: &ProgressiveSession, id: u32| -> Result<ProfileId, CliError> {
        let id = ProfileId(id);
        if id.index() >= session.profiles().len() {
            return Err(CliError::Data {
                path: path.into(),
                detail: format!("{id} was never ingested"),
            });
        }
        if session.is_retracted(id) {
            return Err(CliError::Data {
                path: path.into(),
                detail: format!("{id} is already retracted"),
            });
        }
        Ok(id)
    };
    for op in ops {
        match op {
            Mutation::Del(id) => session.retract(check(session, *id)?),
            Mutation::Upd(id, attrs) => {
                let new_id = session.amend(check(session, *id)?, attrs.clone());
                event!(
                    Level::Debug,
                    "cli.amend",
                    old = *id as u64,
                    new = new_id.0 as u64
                );
            }
            Mutation::Compact => {
                session.compact();
            }
        }
    }
    Ok(())
}

/// Ingest-while-resolving over a dataset name (generated twin, ground
/// truth included) or a profiles CSV (ground truth via `--truth`). With
/// `--checkpoint FILE`, the session is persisted every
/// `--checkpoint-every N` epochs (default every epoch), so `sper resume`
/// can continue the run bit-identically after a crash or budget stop.
/// `--mutations FILE` replays a scripted update/delete feed against the
/// stream (see [`load_mutations`]); `--emit-pairs FILE` records every
/// emission as `first,second,<weight bits as hex>` for bit-exact diffing.
fn stream(args: &[String]) -> Result<(), CliError> {
    let source = args
        .get(1)
        .ok_or_else(|| CliError::usage("stream needs a dataset name or CSV path"))?;
    let method = method_flag(args)?;
    if method.is_schema_based() {
        return Err(CliError::usage(
            "PSN needs schema keys; streaming is schema-agnostic",
        ));
    }
    let n_batches: usize = parse_flag(args, "--batches")?.unwrap_or(5);
    if n_batches == 0 {
        return Err(CliError::usage("--batches must be ≥ 1"));
    }
    let epoch_budget: Option<u64> = parse_flag(args, "--epoch-budget")?;
    let checkpoint_path = flag(args, "--checkpoint")?;
    let checkpoint_every: Option<usize> = parse_flag(args, "--checkpoint-every")?;
    if checkpoint_every == Some(0) {
        return Err(CliError::usage("--checkpoint-every must be ≥ 1"));
    }
    if checkpoint_path.is_none() && checkpoint_every.is_some() {
        return Err(CliError::usage(
            "--checkpoint-every needs --checkpoint FILE",
        ));
    }
    let checkpoint_every = checkpoint_every.unwrap_or(1);
    let on_failure = flag(args, "--on-checkpoint-failure")?;
    let on_checkpoint_failure = match &on_failure {
        None => OnCheckpointFailure::Abort,
        Some(s) => OnCheckpointFailure::parse(s).ok_or_else(|| {
            CliError::usage("--on-checkpoint-failure must be `abort` or `continue`")
        })?,
    };
    if checkpoint_path.is_none() && on_failure.is_some() {
        return Err(CliError::usage(
            "--on-checkpoint-failure needs --checkpoint FILE",
        ));
    }
    let mutations_path = flag(args, "--mutations")?;
    let emit_pairs_path = flag(args, "--emit-pairs")?;

    let (profiles, truth) = load_source(args, source)?;

    let session_config = if args.iter().any(|a| a == "--exhaustive") {
        SessionConfig::exhaustive(method)
    } else {
        SessionConfig::new(method)
    }
    .with_threads(parse_threads(args)?);
    // Dirty tasks stream every profile into an empty base. Clean-clean
    // tasks fix `P1` as the session base and stream only `P2` — appends to
    // a Clean-clean collection join the second source, so ids (and the
    // ground truth) line up with the batch collection.
    let (initial, rows): (ProfileCollection, Vec<Vec<Attribute>>) = match profiles.kind() {
        ErKind::Dirty => (
            ProfileCollectionBuilder::dirty().build(),
            profiles.iter().map(|p| p.attributes.clone()).collect(),
        ),
        ErKind::CleanClean => {
            let split = profiles.len_first();
            let mut b = ProfileCollectionBuilder::clean_clean();
            for p in profiles.iter().take(split) {
                b.add_attributes(p.attributes.clone());
            }
            b.start_second_source();
            (
                b.build(),
                profiles
                    .iter()
                    .skip(split)
                    .map(|p| p.attributes.clone())
                    .collect(),
            )
        }
    };
    event!(
        Level::Info,
        "cli.stream",
        profiles = rows.len(),
        batches = n_batches,
        base = initial.len(),
        method = method.name(),
        epoch_budget = epoch_budget.unwrap_or(u64::MAX),
    );
    let mut run_span = span!("cli.stream_run", method = method.name());
    let chunk = rows.len().div_ceil(n_batches).max(1);
    let batches: Vec<Vec<Vec<Attribute>>> = rows.chunks(chunk).map(|c| c.to_vec()).collect();
    let mutations = mutations_path
        .map(|path| Ok::<_, CliError>((load_mutations(&path, batches.len())?, path)))
        .transpose()?;
    let mut emit_pairs = emit_pairs_path
        .map(|path| {
            let f = std::fs::File::create(&path).map_err(CliError::io(path.as_str()))?;
            Ok::<_, CliError>((std::io::BufWriter::new(f), path))
        })
        .transpose()?;
    println!("{EPOCH_HEADER}");

    let mut session = ProgressiveSession::new(initial, session_config);
    let mut epochs: Vec<sper::eval::StreamEpoch> = Vec::new();
    let mut checkpointed_epoch = 0usize;
    // Checkpoints go through the self-healing writer: bounded retries
    // with jittered backoff, last-good rotation to FILE.prev, and the
    // `--on-checkpoint-failure` policy when retries run dry.
    let mut checkpointer = checkpoint_path
        .as_ref()
        .map(|p| CheckpointWriter::new(p).with_on_failure(on_checkpoint_failure));
    for (batch_no, batch) in batches.into_iter().enumerate() {
        session.ingest_batch(batch);
        if let Some((ops, path)) = &mutations {
            apply_mutations(&mut session, &ops[batch_no], path)?;
        }
        let outcome = session.emit_epoch(epoch_budget);
        record_epoch_alloc(outcome.report.epoch);
        print_epoch_row(&outcome);
        if let Some((w, path)) = emit_pairs.as_mut() {
            for c in &outcome.comparisons {
                writeln!(
                    w,
                    "{},{},{:016x}",
                    c.pair.first.0,
                    c.pair.second.0,
                    c.weight.to_bits()
                )
                .map_err(CliError::io(path.as_str()))?;
            }
        }
        epochs.push(sper::eval::StreamEpoch {
            profiles_total: outcome.report.profiles_total,
            pairs: outcome.comparisons.iter().map(|c| c.pair).collect(),
        });
        if let (Some(writer), Some(path)) = (checkpointer.as_mut(), checkpoint_path.as_ref()) {
            if outcome.report.epoch.is_multiple_of(checkpoint_every) {
                match writer.save(&session).map_err(CliError::store(path))? {
                    CheckpointOutcome::Saved => {
                        checkpointed_epoch = outcome.report.epoch;
                        event!(
                            Level::Info,
                            "cli.checkpoint",
                            path = path.as_str(),
                            epoch = outcome.report.epoch,
                        );
                    }
                    CheckpointOutcome::FailedContinuing => {
                        eprintln!(
                            "warning: checkpoint to {path} failed after retries; \
                             run continues (last good generation kept)"
                        );
                    }
                }
            }
        }
    }
    // The final state is always persisted, whatever the cadence — unless
    // the last epoch already was.
    if let (Some(writer), Some(path)) = (checkpointer.as_mut(), checkpoint_path.as_ref()) {
        if checkpointed_epoch != session.reports().len() {
            match writer.save(&session).map_err(CliError::store(path))? {
                CheckpointOutcome::Saved => {
                    event!(Level::Info, "cli.checkpoint_final", path = path.as_str());
                }
                CheckpointOutcome::FailedContinuing => {
                    eprintln!(
                        "warning: final checkpoint to {path} failed after retries; \
                         emissions above are complete, resume from the last good generation"
                    );
                }
            }
        }
    }
    if let Some((w, path)) = emit_pairs.as_mut() {
        w.flush().map_err(CliError::io(path.as_str()))?;
    }
    run_span.record("epochs", session.reports().len());
    run_span.record("emitted", session.emitted().len());
    drop(run_span);

    if mutations.is_some() {
        // Ground truth maps the *original* ids; deletes and amends leave
        // holes and fresh ids it knows nothing about, so per-epoch recall
        // is meaningless for a mutated stream.
        let retracted = (0..session.profiles().len() as u32)
            .filter(|&i| session.is_retracted(ProfileId(i)))
            .count();
        eprintln!(
            "(mutation feed active — recall skipped; {retracted} retracted, {} tombstones pending)",
            session.pending_tombstones(),
        );
    } else if let Some(truth) = truth {
        let recall = sper::eval::streaming_recall(&epochs, &truth);
        eprintln!();
        eprintln!("epoch  profiles  emissions  new_matches  recall");
        for m in &recall.epochs {
            eprintln!(
                "{:<5}  {:<8}  {:<9}  {:<11}  {:.4}",
                m.epoch, m.profiles_total, m.emissions_end, m.new_matches, m.recall
            );
        }
        eprintln!(
            "final recall {:.4} ({} matches) over {} emissions",
            recall.final_recall(),
            recall.curve.matches_found(),
            recall.curve.emissions(),
        );
    } else {
        eprintln!("(no ground truth — pass --truth FILE for per-epoch recall)");
    }
    Ok(())
}

/// Builds the columnar substrates for a collection and writes them to a
/// `.sper` snapshot: interner, profiles, cardinality-scheduled blocks,
/// profile index, neighbor list, and (with `--with-graph`) the
/// materialized blocking graph. Loading the file reproduces every array
/// bit for bit, skipping tokenization and sorting entirely.
fn snapshot(args: &[String]) -> Result<(), CliError> {
    if args.iter().any(|a| a == "--salvage") {
        return salvage(args);
    }
    let source = args
        .get(1)
        .ok_or_else(|| CliError::usage("snapshot needs a dataset name or CSV path"))?;
    let out = flag(args, "--out")?.unwrap_or_else(|| "snapshot.sper".into());
    let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(42);
    let (profiles, _truth) = load_source(args, source)?;

    let t0 = Instant::now();
    let mut blocks = TokenBlocking::default().build(&profiles);
    blocks.sort_by_cardinality();
    let index = ProfileIndex::build(&blocks);
    let nl = NeighborList::build(&profiles, seed);
    let build_time = t0.elapsed();

    let mut snapshot = Snapshot::new(std::sync::Arc::clone(blocks.interner()));
    if args.iter().any(|a| a == "--with-graph") {
        snapshot.graph = Some(BlockingGraph::build(
            &blocks,
            WeightingScheme::Arcs,
            Parallelism::SEQUENTIAL,
        ));
    }
    snapshot.profiles = Some(profiles);
    snapshot.blocks = Some(blocks);
    snapshot.profile_index = Some(index);
    snapshot.neighbor_list = Some(nl);

    let t1 = Instant::now();
    snapshot
        .write_to_path(Path::new(&out))
        .map_err(CliError::store(&out))?;
    let write_time = t1.elapsed();
    let size = std::fs::metadata(&out).map_err(CliError::io(&out))?.len();
    event!(
        Level::Info,
        "cli.snapshot",
        path = out.as_str(),
        bytes = size,
        sections = snapshot.describe().join(", "),
        build_us = build_time.as_micros() as u64,
        write_us = write_time.as_micros() as u64,
    );
    Ok(())
}

/// Recovers what survives of a damaged `.sper` store: every section whose
/// CRC-32 still validates and whose payload still decodes is kept, every
/// other one becomes a typed loss-report entry. Losing a section is exit 0
/// with a warning — losing *everything* (or the header) is exit 1.
fn salvage(args: &[String]) -> Result<(), CliError> {
    let source = args
        .get(1)
        .ok_or_else(|| CliError::usage("snapshot --salvage needs a .sper path"))?;
    let out = flag(args, "--out")?;
    let bytes = std::fs::read(source).map_err(CliError::io(source.as_str()))?;
    let (snapshot, report) = Snapshot::salvage(&bytes).map_err(CliError::store(source.as_str()))?;
    println!("{}", report.summary());
    for lost in &report.lost {
        eprintln!("warning: lost section {}: {}", lost.section, lost.reason);
        event!(
            Level::Warn,
            "cli.salvage_loss",
            path = source.as_str(),
            section = lost.section.as_str(),
            reason = lost.reason.as_str(),
        );
    }
    if report.recovered.is_empty() {
        return Err(CliError::Store {
            path: source.clone(),
            source: StoreError::Corrupt {
                section: "container".into(),
                detail: "no section survived salvage".into(),
            },
        });
    }
    if let Some(out) = out {
        snapshot
            .write_to_path(Path::new(&out))
            .map_err(CliError::store(&out))?;
        event!(
            Level::Info,
            "cli.salvage_out",
            path = out.as_str(),
            sections = snapshot.describe().join(", "),
        );
        eprintln!("recovered snapshot written to {out}");
    }
    Ok(())
}

/// Rehydrates a checkpointed session and drains its remaining emissions —
/// bit-identical to what the uninterrupted run would have emitted. With
/// `--epoch-budget N` the drain runs budgeted epochs until the method is
/// exhausted; `--checkpoint FILE` re-persists the final state. A corrupt
/// primary falls back to the rotated `FILE.prev` generation (exit 0, with
/// a warning).
fn resume(args: &[String]) -> Result<(), CliError> {
    let path = args
        .get(1)
        .ok_or_else(|| CliError::usage("resume needs a checkpoint path"))?;
    let epoch_budget: Option<u64> = parse_flag(args, "--epoch-budget")?;
    let checkpoint_out = flag(args, "--checkpoint")?;
    let emit_pairs_path = flag(args, "--emit-pairs")?;

    let t0 = Instant::now();
    let (checkpoint, used_prev) =
        CheckpointWriter::resume(Path::new(path)).map_err(CliError::store(path.as_str()))?;
    if used_prev {
        eprintln!("warning: {path} was unreadable; resumed from rotated {path}.prev");
    }
    let load_time = t0.elapsed();
    let mut state = checkpoint.state;
    if args.iter().any(|a| a == "--threads") {
        state.config.threads = parse_threads(args)?;
    }
    event!(
        Level::Info,
        "cli.resume",
        method = state.method.name(),
        profiles = state.profiles.len(),
        emitted = state.emitted.len(),
        epochs_done = state.reports.len(),
        load_us = load_time.as_micros() as u64,
    );
    let mut session = ProgressiveSession::rehydrate(state);
    let mut emit_pairs = emit_pairs_path
        .map(|path| {
            let f = std::fs::File::create(&path).map_err(CliError::io(path.as_str()))?;
            Ok::<_, CliError>((std::io::BufWriter::new(f), path))
        })
        .transpose()?;

    println!("{EPOCH_HEADER}");
    loop {
        let outcome = session.emit_epoch(epoch_budget);
        record_epoch_alloc(outcome.report.epoch);
        print_epoch_row(&outcome);
        if let Some((w, path)) = emit_pairs.as_mut() {
            for c in &outcome.comparisons {
                writeln!(
                    w,
                    "{},{},{:016x}",
                    c.pair.first.0,
                    c.pair.second.0,
                    c.weight.to_bits()
                )
                .map_err(CliError::io(path.as_str()))?;
            }
            // Flushed per epoch so a later kill loses at most the epoch
            // in flight — the fault-smoke harness diffs this file.
            w.flush().map_err(CliError::io(path.as_str()))?;
        }
        // An unbudgeted epoch is already exhaustive. A budgeted drain
        // loops while epochs fill their budget; the first epoch that
        // falls short ran the method dry (a rebuilt method re-emits
        // suppressed repeats forever, so `raw > 0` is not progress).
        let exhausted = epoch_budget.is_none_or(|b| outcome.report.new_emissions < b);
        if exhausted {
            break;
        }
    }
    event!(
        Level::Info,
        "cli.resume_done",
        emitted = session.emitted().len(),
        epochs = session.reports().len(),
    );
    if let Some(out) = checkpoint_out {
        match CheckpointWriter::new(&out)
            .save(&session)
            .map_err(CliError::store(&out))?
        {
            CheckpointOutcome::Saved => {
                event!(Level::Info, "cli.checkpoint_final", path = out.as_str());
            }
            // Unreachable with the default Abort policy, but the match
            // keeps the exit-code contract explicit.
            CheckpointOutcome::FailedContinuing => {
                eprintln!("warning: final checkpoint to {out} failed after retries");
            }
        }
    }
    Ok(())
}

/// Fuses a `--trace` JSONL, a `--metrics` JSON dump, and an optional
/// recall CSV into one self-contained HTML report (inline SVG charts, no
/// external assets of any kind — it renders from an archive or a mail
/// attachment).
fn report(args: &[String]) -> Result<(), CliError> {
    let trace_path = flag(args, "--trace")?
        .ok_or_else(|| CliError::usage("report needs --trace FILE (a JSON-lines trace)"))?;
    let out = flag(args, "--out")?.unwrap_or_else(|| "report.html".into());
    let trace_text =
        std::fs::read_to_string(&trace_path).map_err(CliError::io(trace_path.as_str()))?;
    let metrics_json = flag(args, "--metrics")?
        .map(|p| std::fs::read_to_string(&p).map_err(CliError::io(p.as_str())))
        .transpose()?;
    let recall_csv = flag(args, "--recall")?
        .map(|p| std::fs::read_to_string(&p).map_err(CliError::io(p.as_str())))
        .transpose()?;
    let title = flag(args, "--title")?.unwrap_or_else(|| {
        Path::new(&trace_path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "sper run".into())
    });
    let stamp = sper_obs::RunStamp::capture();
    let inputs = sper_obs::ReportInputs {
        title,
        trace: sper_obs::parse_trace(&trace_text),
        metrics_json,
        recall_csv,
        stamp: Some(format!("{} @ {}", stamp.timestamp, stamp.git_rev)),
    };
    let html = sper_obs::render_html(&inputs);
    std::fs::write(&out, &html).map_err(CliError::io(out.as_str()))?;
    event!(
        Level::Info,
        "cli.report",
        path = out.as_str(),
        records = inputs.trace.len(),
        bytes = html.len(),
    );
    eprintln!(
        "wrote {out} ({} records, {} bytes)",
        inputs.trace.len(),
        html.len()
    );
    Ok(())
}

fn generate(args: &[String]) -> Result<(), CliError> {
    let kind = parse_dataset(
        args.get(1)
            .ok_or_else(|| CliError::usage("generate needs a dataset name"))?,
    )?;
    let scale: f64 = parse_flag(args, "--scale")?.unwrap_or(1.0);
    let out = flag(args, "--out")?;
    let truth = flag(args, "--truth")?;
    let data = DatasetSpec::paper(kind).with_scale(scale).generate();
    event!(
        Level::Info,
        "cli.generate",
        dataset = kind.name(),
        profiles = data.profiles.len(),
        matches = data.truth.num_matches(),
    );
    match out {
        Some(path) => {
            let mut f = std::fs::File::create(&path).map_err(CliError::io(&path))?;
            model_io::write_csv(&data.profiles, &mut f).map_err(CliError::io(&path))?;
            event!(Level::Info, "cli.wrote_profiles", path = path.as_str());
        }
        None => {
            let stdout = std::io::stdout();
            model_io::write_csv(&data.profiles, &mut stdout.lock())
                .map_err(CliError::io("<stdout>"))?;
        }
    }
    if let Some(path) = truth {
        let mut f = std::fs::File::create(&path).map_err(CliError::io(&path))?;
        model_io::write_matches(&data.truth, &mut f).map_err(CliError::io(&path))?;
        event!(Level::Info, "cli.wrote_truth", path = path.as_str());
    }
    Ok(())
}
