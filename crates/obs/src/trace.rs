//! Span/event tracing with pluggable sinks.
//!
//! The hot-path contract: when no sink is installed (the default), every
//! [`span!`](crate::span) and [`event!`](crate::event) call site compiles
//! down to **one relaxed atomic load and a predictable branch** — field
//! expressions are never evaluated, nothing allocates, no lock is touched.
//! That is the "no-op sink" of the overhead budget: instrumentation is
//! free to sit on paths the emission-equivalence suites pin bit-identical.
//!
//! When a sink *is* installed, spans maintain a **thread-local span
//! stack**: each worker thread records its own depth independently, so
//! tracing observes the parallel engine without synchronizing it —
//! recording never orders threads against each other, which is why
//! enabling tracing cannot perturb the deterministic tournament merges
//! (see DESIGN.md "Observability").
//!
//! Three production sinks are provided:
//!
//! * [`JsonLinesSink`] — one JSON object per record, machine-readable
//!   (schema below);
//! * [`StderrSink`] — human-readable, level-filtered lines for `-v`;
//! * [`MultiSink`] — fan-out to several sinks.
//!
//! [`CaptureSink`] records into memory for tests.
//!
//! ## JSON-lines schema
//!
//! Every line is an object with required keys `t` (u64 nanoseconds since
//! the process epoch), `kind` (`"span"` or `"event"`), `level` (`"error"`
//! … `"trace"`), `name` (dotted static identifier), `thread` (u64 process
//! thread ordinal) and `depth` (u64 span-stack depth at emission). Span
//! records add `dur_ns` (u64). Records with fields add a flat `fields`
//! object whose values are numbers, strings or booleans.

use crate::clock::now_nanos;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Severity/verbosity of a record; also the global filter threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A failure the run cannot ignore.
    Error = 1,
    /// Something suspicious that does not stop the run.
    Warn = 2,
    /// Coarse progress: builds, epochs, store IO. The `-v` level.
    Info = 3,
    /// Per-phase internals: sweep statistics, CRC timings. `-vv`.
    Debug = 4,
    /// Reserved for the finest-grained future use.
    Trace = 5,
}

impl Level {
    /// Lowercase name, as emitted in JSON lines.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text (owned: recorded values outlive the call site).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// What a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A closed span: `t` is the start, `dur_ns` the elapsed time.
    Span,
    /// A point-in-time event.
    Event,
}

/// One trace record, handed to every installed [`Sink`].
#[derive(Debug, Clone)]
pub struct Record {
    /// Nanoseconds since the process epoch (span start / event time).
    pub t_ns: u64,
    /// Span or event.
    pub kind: RecordKind,
    /// Severity.
    pub level: Level,
    /// Dotted static name, e.g. `"blocking.token_build"`.
    pub name: &'static str,
    /// Process-local thread ordinal (0 = first observed thread).
    pub thread: u64,
    /// Span-stack depth of the emitting thread at emission time.
    pub depth: u64,
    /// Elapsed nanoseconds (spans only).
    pub dur_ns: Option<u64>,
    /// Attached key/value fields, in call-site order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A trace consumer. Implementations must be cheap and must never panic:
/// recording happens inside engine hot paths.
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn record(&self, record: &Record);
    /// Flushes any buffered output (end of run; optional).
    fn flush(&self) {}
}

/// Global trace threshold: 0 = off (the default), otherwise a
/// [`Level`] as `u8`.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The installed sink. Read under an `RwLock` only on the enabled path —
/// the disabled path never touches it.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// True when records at `level` are currently consumed — **the** hot-path
/// gate: one relaxed atomic load.
#[inline(always)]
pub fn enabled(level: Level) -> bool {
    level as u8 <= LEVEL.load(Ordering::Relaxed)
}

/// Installs `sink` and raises the threshold to `level`, replacing any
/// previous sink. The process trace epoch is pinned no later than here.
pub fn install_sink(sink: Arc<dyn Sink>, level: Level) {
    crate::clock::touch_epoch();
    *SINK.write().expect("trace sink lock poisoned") = Some(sink);
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Removes the sink (flushing it) and disables tracing.
pub fn clear_sink() {
    LEVEL.store(0, Ordering::Relaxed);
    let sink = SINK.write().expect("trace sink lock poisoned").take();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(sink) = SINK.read().expect("trace sink lock poisoned").as_ref() {
        sink.flush();
    }
}

/// Process-local thread ordinal: stable, small, allocation-free — unlike
/// `ThreadId`, it is meaningful in a JSON trace.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|&o| o)
}

thread_local! {
    /// The thread's open-span count — `Cell`, not a name stack: records
    /// need the depth, and names live in the guards themselves.
    static SPAN_DEPTH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Hands `record` to the sink (enabled path only).
fn emit(record: Record) {
    if let Some(sink) = SINK.read().expect("trace sink lock poisoned").as_ref() {
        sink.record(&record);
    }
}

/// Emits a point-in-time event. Prefer the [`event!`](crate::event)
/// macro, which skips field evaluation when `level` is disabled.
pub fn emit_event(level: Level, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled(level) {
        return;
    }
    emit(Record {
        t_ns: now_nanos(),
        kind: RecordKind::Event,
        level,
        name,
        thread: thread_ordinal(),
        depth: SPAN_DEPTH.with(|d| d.get()),
        dur_ns: None,
        fields,
    });
}

/// An open span: created by [`span!`](crate::span), closed (and recorded)
/// on drop. Inert — a zero-field struct holding `None` — when tracing was
/// disabled at entry.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    level: Level,
    t_ns: u64,
    start: std::time::Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// Opens a span at `level` if tracing is enabled; `fields` is only
    /// called (and the thread's span depth only grows) when it is.
    pub fn enter(
        level: Level,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) -> Self {
        if !enabled(level) {
            return Self { active: None };
        }
        SPAN_DEPTH.with(|d| d.set(d.get() + 1));
        Self {
            active: Some(ActiveSpan {
                name,
                level,
                t_ns: now_nanos(),
                start: std::time::Instant::now(),
                fields: fields(),
            }),
        }
    }

    /// An inert guard (used by the macro's disabled arm in const
    /// contexts; equivalent to an `enter` under a disabled level).
    pub fn disabled() -> Self {
        Self { active: None }
    }

    /// True when the span is recording (tracing was enabled at entry).
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a field discovered mid-span (e.g. an output count known
    /// only at the end of the measured scope). No-op on inert guards, so
    /// callers need not re-check [`enabled`].
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(active) = self.active.as_mut() {
            active.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get() - 1;
            d.set(depth);
            depth
        });
        let dur = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        emit(Record {
            t_ns: active.t_ns,
            kind: RecordKind::Span,
            level: active.level,
            name: active.name,
            thread: thread_ordinal(),
            depth,
            dur_ns: Some(dur),
            fields: active.fields,
        });
    }
}

/// Appends `value` to `out` as a JSON scalar.
fn json_value(out: &mut String, value: &FieldValue) {
    use std::fmt::Write as _;
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        // JSON has no Infinity/NaN literals; stringify the exceptional
        // values rather than emit an invalid document.
        FieldValue::F64(v) => json_string(out, &v.to_string()),
        FieldValue::Str(v) => json_string(out, v),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Appends `s` to `out` as a JSON string literal with escapes.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders one record as a JSON-lines line (no trailing newline).
pub fn record_to_json(record: &Record) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(128);
    let _ = write!(
        &mut line,
        "{{\"t\":{},\"kind\":\"{}\",\"level\":\"{}\",\"name\":",
        record.t_ns,
        match record.kind {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        },
        record.level.name(),
    );
    json_string(&mut line, record.name);
    let _ = write!(
        &mut line,
        ",\"thread\":{},\"depth\":{}",
        record.thread, record.depth
    );
    if let Some(dur) = record.dur_ns {
        let _ = write!(&mut line, ",\"dur_ns\":{dur}");
    }
    if !record.fields.is_empty() {
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in record.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            json_string(&mut line, key);
            line.push(':');
            json_value(&mut line, value);
        }
        line.push('}');
    }
    line.push('}');
    line
}

/// Machine-readable sink: one JSON object per record (see the module docs
/// for the schema), buffered, flushed on [`Sink::flush`] and drop.
pub struct JsonLinesSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonLinesSink {
    /// Creates (truncating) the trace file.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(std::io::BufWriter::new(std::fs::File::create(path)?)),
        })
    }
}

impl Sink for JsonLinesSink {
    fn record(&self, record: &Record) {
        let line = record_to_json(record);
        if let Ok(mut out) = self.out.lock() {
            // A full disk mid-trace must not take the engine down.
            let _ = writeln!(out, "{line}");
        }
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl std::fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonLinesSink")
    }
}

/// Human-readable sink for `-v`/`-vv`: `[elapsed] LEVEL name (dur) k=v …`
/// on stderr, filtered to its own maximum level (so a Debug-level trace
/// file and an Info-level console can coexist under [`MultiSink`]).
#[derive(Debug)]
pub struct StderrSink {
    max_level: Level,
}

impl StderrSink {
    /// A sink showing records up to `max_level`.
    pub fn new(max_level: Level) -> Self {
        Self { max_level }
    }
}

impl Sink for StderrSink {
    fn record(&self, record: &Record) {
        if record.level > self.max_level {
            return;
        }
        use std::fmt::Write as _;
        let mut line = String::with_capacity(96);
        let _ = write!(
            &mut line,
            "[{:>10.3}ms] {:<5} {}{}",
            record.t_ns as f64 / 1e6,
            record.level.name(),
            "  ".repeat(record.depth as usize),
            record.name,
        );
        if let Some(dur) = record.dur_ns {
            let _ = write!(&mut line, " ({:.3}ms)", dur as f64 / 1e6);
        }
        for (key, value) in &record.fields {
            let _ = write!(&mut line, " {key}={value}");
        }
        // A closed stderr loses the line; it must not panic the run.
        let _ = writeln!(std::io::stderr(), "{line}");
    }
}

/// Fan-out to several sinks, in order.
pub struct MultiSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl MultiSink {
    /// A sink broadcasting to `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for MultiSink {
    fn record(&self, record: &Record) {
        for sink in &self.sinks {
            sink.record(record);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

impl std::fmt::Debug for MultiSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiSink({} sinks)", self.sinks.len())
    }
}

/// In-memory sink for tests: records everything it sees.
#[derive(Debug, Default)]
pub struct CaptureSink {
    records: Mutex<Vec<Record>>,
}

impl CaptureSink {
    /// An empty capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("capture poisoned").clone()
    }

    /// Names of everything recorded so far, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.records
            .lock()
            .expect("capture poisoned")
            .iter()
            .map(|r| r.name)
            .collect()
    }
}

impl Sink for CaptureSink {
    fn record(&self, record: &Record) {
        self.records
            .lock()
            .expect("capture poisoned")
            .push(record.clone());
    }
}

/// Opens an Info-level span over the enclosing scope.
///
/// ```
/// # use sper_obs::span;
/// let mut span = span!("blocking.token_build", profiles = 42usize);
/// // … measured work …
/// span.record("blocks", 7usize); // fields discovered mid-scope
/// ```
///
/// With tracing disabled (the default), the call costs one relaxed atomic
/// load; field expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::trace::SpanGuard::enter(
            $crate::trace::Level::Info,
            $name,
            || vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),*],
        )
    };
}

/// Emits a point-in-time event at an explicit level.
///
/// ```
/// # use sper_obs::event;
/// # use sper_obs::trace::Level;
/// event!(Level::Debug, "cli.epoch_alloc", epoch = 3u64, peak_bytes = 4096u64);
/// ```
///
/// With `level` disabled (the default), the call costs one relaxed atomic
/// load; field expressions are not evaluated.
#[macro_export]
macro_rules! event {
    ($level:expr, $name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::enabled($level) {
            $crate::trace::emit_event(
                $level,
                $name,
                vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_valid_shape() {
        let record = Record {
            t_ns: 42,
            kind: RecordKind::Span,
            level: Level::Info,
            name: "a.b",
            thread: 1,
            depth: 2,
            dur_ns: Some(7),
            fields: vec![
                ("n", FieldValue::U64(3)),
                ("label", FieldValue::Str("x\"y".into())),
                ("ok", FieldValue::Bool(true)),
            ],
        };
        let line = record_to_json(&record);
        assert_eq!(
            line,
            "{\"t\":42,\"kind\":\"span\",\"level\":\"info\",\"name\":\"a.b\",\
             \"thread\":1,\"depth\":2,\"dur_ns\":7,\
             \"fields\":{\"n\":3,\"label\":\"x\\\"y\",\"ok\":true}}"
        );
    }

    #[test]
    fn non_finite_floats_become_strings() {
        let mut out = String::new();
        json_value(&mut out, &FieldValue::F64(f64::INFINITY));
        assert_eq!(out, "\"inf\"");
    }

    #[test]
    fn escapes_control_characters() {
        let mut out = String::new();
        json_string(&mut out, "a\nb\u{1}");
        assert_eq!(out, "\"a\\nb\\u0001\"");
    }

    #[test]
    fn disabled_guard_is_inert() {
        let guard = SpanGuard::disabled();
        assert!(!guard.is_active());
    }

    #[test]
    fn levels_order_by_verbosity() {
        assert!(Level::Error < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::Warn.name(), "warn");
    }
}
