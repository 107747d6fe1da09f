//! The span profiler: turns a span stream into a call-tree profile.
//!
//! The tracing layer emits spans **at close time** (see [`crate::trace`]):
//! each record carries its start timestamp, duration, thread ordinal and
//! the thread's span-stack depth. That is enough to reconstruct the call
//! tree without any extra bookkeeping on the hot path — within one
//! thread, spans close child-before-parent, so a span claims as children
//! every already-closed span at `depth + 1` that started inside it.
//!
//! The reconstructed tree yields per-stack **self time** (duration minus
//! children) and **total time**, exported in two interchange formats:
//!
//! * [`SpanProfile::to_collapsed`] — collapsed stacks
//!   (`frame;frame;frame <count>`), the input format of `flamegraph.pl`
//!   and inferno, with self-microseconds as the count unit;
//! * [`chrome_trace`] — Chrome trace-event JSON (the Perfetto / DevTools
//!   `traceEvents` schema): spans become complete (`"X"`) events on
//!   per-thread lanes, point events become instants, and
//!   `parallel.worker` spans additionally feed per-worker utilization
//!   counter lanes (the Chrome-trace view of
//!   `sper_blocking`'s `FanoutStats`).
//!
//! Records come either straight from a live capture
//! ([`ProfileRecord::from`] a [`Record`]) or from a trace JSON-lines file
//! via [`parse_trace`] — both feed the same aggregation.

use crate::trace::{FieldValue, Record, RecordKind};
use serde::json::{parse, Value};
use std::collections::BTreeMap;

/// One owned trace record, decoupled from the `&'static str` names of the
/// in-process [`Record`] so traces can be re-read from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Nanoseconds since the process epoch (span start / event time).
    pub t_ns: u64,
    /// Span or event.
    pub kind: RecordKind,
    /// Dotted name.
    pub name: String,
    /// Process-local thread ordinal.
    pub thread: u64,
    /// Span-stack depth at emission.
    pub depth: u64,
    /// Elapsed nanoseconds (spans only).
    pub dur_ns: Option<u64>,
    /// Attached fields, in call-site order.
    pub fields: Vec<(String, FieldValue)>,
}

impl From<&Record> for ProfileRecord {
    fn from(r: &Record) -> Self {
        Self {
            t_ns: r.t_ns,
            kind: r.kind,
            name: r.name.to_string(),
            thread: r.thread,
            depth: r.depth,
            dur_ns: r.dur_ns,
            fields: r
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

impl ProfileRecord {
    /// The value of field `key`, as `f64`, if present and numeric.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| match v {
                FieldValue::U64(n) => *n as f64,
                FieldValue::I64(n) => *n as f64,
                FieldValue::F64(n) => *n,
                FieldValue::Bool(b) => u8::from(*b) as f64,
                FieldValue::Str(s) => s.parse().unwrap_or(f64::NAN),
            })
    }

    /// The value of field `key`, as text, if present.
    pub fn field_str(&self, key: &str) -> Option<String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.to_string())
    }
}

/// Parses a JSON-lines trace (the [`crate::trace`] schema) into records.
/// Malformed or foreign lines are skipped, never fatal: a trace truncated
/// by a crash is exactly the input a profiler must accept.
pub fn parse_trace(text: &str) -> Vec<ProfileRecord> {
    text.lines().filter_map(parse_trace_line).collect()
}

fn parse_trace_line(line: &str) -> Option<ProfileRecord> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let v = parse(line).ok()?;
    let kind = match v.get("kind")?.as_str()? {
        "span" => RecordKind::Span,
        "event" => RecordKind::Event,
        _ => return None,
    };
    let fields = match v.get("fields") {
        Some(Value::Object(members)) => members
            .iter()
            .map(|(k, fv)| {
                let value = match fv {
                    Value::Number(_) => FieldValue::F64(fv.as_f64().unwrap_or(f64::NAN)),
                    Value::Bool(b) => FieldValue::Bool(*b),
                    Value::String(s) => FieldValue::Str(s.clone()),
                    _ => FieldValue::Str(String::new()),
                };
                (k.clone(), value)
            })
            .collect(),
        _ => Vec::new(),
    };
    Some(ProfileRecord {
        t_ns: v.get("t")?.as_u64()?,
        kind,
        name: v.get("name")?.as_str()?.to_string(),
        thread: v.get("thread")?.as_u64()?,
        depth: v.get("depth")?.as_u64()?,
        dur_ns: v.get("dur_ns").and_then(Value::as_u64),
        fields,
    })
}

/// Aggregated timing of one call stack (a path of span names).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Times this exact stack was observed.
    pub count: u64,
    /// Summed span duration.
    pub total_ns: u64,
    /// Summed duration minus child-span time — what the stack itself
    /// burned.
    pub self_ns: u64,
}

/// Aggregated timing of one span name across all stacks and threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    /// Completed spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Threads the name was observed on.
    pub threads: Vec<u64>,
}

/// A reconstructed call-tree profile over a span stream.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    /// Per-stack aggregates, keyed by the `;`-joined frame path
    /// (outermost first).
    stacks: BTreeMap<String, StackStats>,
    /// Flat per-name aggregates.
    names: BTreeMap<String, NameStats>,
    /// Spans consumed.
    n_spans: u64,
}

/// One reconstructed span while its ancestors are still open.
struct PendingSpan {
    name: String,
    depth: u64,
    start: u64,
    dur: u64,
    child_ns: u64,
    /// Flattened descendants as (relative path, stats) — lifted into the
    /// parent's path once it closes.
    subtree: Vec<(String, u64, u64)>,
}

impl SpanProfile {
    /// Builds the profile from records in emission order (the order a
    /// sink observed them, which within a thread is span-close order).
    /// Events are ignored; only spans carry time.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a ProfileRecord>) -> Self {
        let mut per_thread: BTreeMap<u64, Vec<PendingSpan>> = BTreeMap::new();
        let mut profile = SpanProfile::default();
        for r in records {
            if r.kind != RecordKind::Span {
                continue;
            }
            let dur = r.dur_ns.unwrap_or(0);
            profile.n_spans += 1;
            let pending = per_thread.entry(r.thread).or_default();
            // Claim every already-closed span one level deeper that
            // started inside this one: those are exactly the children
            // (earlier same-depth siblings claimed their own before they
            // closed).
            let mut children: Vec<PendingSpan> = Vec::new();
            let mut kept: Vec<PendingSpan> = Vec::new();
            for p in pending.drain(..) {
                if p.depth == r.depth + 1 && p.start >= r.t_ns {
                    children.push(p);
                } else {
                    kept.push(p);
                }
            }
            *pending = kept;
            let mut child_ns = 0u64;
            let mut subtree: Vec<(String, u64, u64)> = Vec::new();
            for child in children {
                child_ns += child.dur;
                let child_self = child.dur.saturating_sub(child.child_ns);
                subtree.push((child.name.clone(), child.dur, child_self));
                for (path, total, self_ns) in child.subtree {
                    subtree.push((format!("{};{path}", child.name), total, self_ns));
                }
            }
            pending.push(PendingSpan {
                name: r.name.clone(),
                depth: r.depth,
                start: r.t_ns,
                dur,
                child_ns,
                subtree,
            });
        }
        // Whatever was never claimed is a root (ordinarily depth-0 spans;
        // also orphans from a trace truncated mid-run).
        for pending in per_thread.into_values() {
            let thread_roots = pending;
            for root in thread_roots {
                let root_self = root.dur.saturating_sub(root.child_ns);
                profile.add_stack(root.name.clone(), root.name.clone(), root.dur, root_self);
                for (path, total, self_ns) in root.subtree {
                    let leaf = path.rsplit(';').next().unwrap_or(&path).to_string();
                    profile.add_stack(format!("{};{path}", root.name), leaf, total, self_ns);
                }
            }
        }
        profile
    }

    fn add_stack(&mut self, path: String, leaf: String, total_ns: u64, self_ns: u64) {
        let s = self.stacks.entry(path).or_default();
        s.count += 1;
        s.total_ns += total_ns;
        s.self_ns += self_ns;
        let n = self.names.entry(leaf).or_default();
        n.count += 1;
        n.total_ns += total_ns;
        n.self_ns += self_ns;
    }

    /// Records per-name thread coverage (separate pass: stacks merge
    /// across threads, names keep the set).
    pub fn with_threads<'a>(
        mut self,
        records: impl IntoIterator<Item = &'a ProfileRecord>,
    ) -> Self {
        for r in records {
            if r.kind != RecordKind::Span {
                continue;
            }
            if let Some(n) = self.names.get_mut(&r.name) {
                if !n.threads.contains(&r.thread) {
                    n.threads.push(r.thread);
                }
            }
        }
        self
    }

    /// Spans consumed.
    pub fn n_spans(&self) -> u64 {
        self.n_spans
    }

    /// Per-stack aggregates, keyed by `;`-joined path.
    pub fn stacks(&self) -> &BTreeMap<String, StackStats> {
        &self.stacks
    }

    /// Flat per-name aggregates.
    pub fn names(&self) -> &BTreeMap<String, NameStats> {
        &self.names
    }

    /// Names sorted by self time, heaviest first — the attribution table.
    pub fn hotspots(&self) -> Vec<(&str, &NameStats)> {
        let mut rows: Vec<(&str, &NameStats)> =
            self.names.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        rows
    }

    /// Renders collapsed stacks — one `frame;frame;frame <count>` line per
    /// stack, count in **self microseconds** — the input format of
    /// `flamegraph.pl` / inferno. Lines are sorted (deterministic output);
    /// stacks whose self time rounds to zero microseconds are elided
    /// (their frames still appear as prefixes of their children).
    pub fn to_collapsed(&self) -> String {
        let mut out = String::with_capacity(self.stacks.len() * 48);
        for (path, stats) in &self.stacks {
            let self_us = stats.self_ns / 1_000;
            if self_us == 0 {
                continue;
            }
            out.push_str(path);
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        out
    }
}

/// Renders a record stream as Chrome trace-event JSON (the
/// `chrome://tracing` / Perfetto `traceEvents` schema, loadable in
/// `ui.perfetto.dev`). Spans become complete (`ph:"X"`) events on their
/// thread's lane, point events become thread-scoped instants (`ph:"i"`),
/// and every `parallel.worker` span also emits a `ph:"C"` counter sample
/// (`worker_utilization`, percent busy) — the per-worker utilization
/// lanes of the work-stealing fan-outs.
pub fn chrome_trace(records: &[ProfileRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + records.len() * 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    // Process + thread metadata give the lanes stable names.
    sep(&mut out);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"sper\"}}",
    );
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in &threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"thread-{t}\"}}}}"
        );
    }
    for r in records {
        sep(&mut out);
        let ts = r.t_ns as f64 / 1_000.0;
        match r.kind {
            RecordKind::Span => {
                let dur = r.dur_ns.unwrap_or(0) as f64 / 1_000.0;
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                     \"cat\":\"span\",\"name\":",
                    r.thread
                );
                crate::trace::json_string(&mut out, &r.name);
                write_args(&mut out, &r.fields);
                out.push('}');
            }
            RecordKind::Event => {
                let _ = write!(
                    out,
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                     \"cat\":\"event\",\"name\":",
                    r.thread
                );
                crate::trace::json_string(&mut out, &r.name);
                write_args(&mut out, &r.fields);
                out.push('}');
            }
        }
        // A completed worker span doubles as a utilization sample: busy
        // time over span duration, on a counter lane per worker index.
        if r.kind == RecordKind::Span && r.name == "parallel.worker" {
            if let (Some(busy_us), Some(dur_ns)) = (r.field_f64("busy_us"), r.dur_ns) {
                if dur_ns > 0 {
                    let pct = (busy_us * 1_000.0 / dur_ns as f64 * 100.0).min(100.0);
                    let worker = r.field_f64("worker").unwrap_or(r.thread as f64) as u64;
                    let end_ts = (r.t_ns + dur_ns) as f64 / 1_000.0;
                    sep(&mut out);
                    let _ = write!(
                        out,
                        "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{end_ts:.3},\
                         \"name\":\"worker_utilization\",\
                         \"args\":{{\"w{worker}\":{pct:.1}}}}}"
                    );
                }
            }
        }
    }
    out.push_str("]}");
    out
}

fn write_args(out: &mut String, fields: &[(String, FieldValue)]) {
    if fields.is_empty() {
        return;
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::trace::json_string(out, k);
        out.push(':');
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::F64(n) if n.is_finite() => out.push_str(&format!("{n}")),
            FieldValue::F64(n) => crate::trace::json_string(out, &n.to_string()),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::Str(s) => crate::trace::json_string(out, s),
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, thread: u64, depth: u64, t: u64, dur: u64) -> ProfileRecord {
        ProfileRecord {
            t_ns: t,
            kind: RecordKind::Span,
            name: name.to_string(),
            thread,
            depth,
            dur_ns: Some(dur),
            fields: Vec::new(),
        }
    }

    /// Close order of:  root[0..100_000] { a[10_000..40_000] { b } , c }
    fn nested_stream() -> Vec<ProfileRecord> {
        vec![
            span("b", 0, 2, 15_000, 10_000),
            span("a", 0, 1, 10_000, 30_000),
            span("c", 0, 1, 50_000, 40_000),
            span("root", 0, 0, 0, 100_000),
        ]
    }

    #[test]
    fn reconstructs_nested_stacks() {
        let profile = SpanProfile::from_records(&nested_stream());
        let stacks = profile.stacks();
        assert_eq!(stacks["root"].total_ns, 100_000);
        assert_eq!(stacks["root"].self_ns, 30_000, "100 - (30 + 40)");
        assert_eq!(stacks["root;a"].self_ns, 20_000, "30 - 10");
        assert_eq!(stacks["root;a;b"].self_ns, 10_000);
        assert_eq!(stacks["root;c"].self_ns, 40_000);
        assert_eq!(profile.n_spans(), 4);
    }

    #[test]
    fn collapsed_output_is_flamegraph_grammar() {
        let profile = SpanProfile::from_records(&nested_stream());
        let collapsed = profile.to_collapsed();
        let expected = "root 30\nroot;a 20\nroot;a;b 10\nroot;c 40\n";
        assert_eq!(collapsed, expected);
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("stack<space>count");
            assert!(!stack.is_empty() && stack.split(';').all(|f| !f.is_empty()));
            let _: u64 = count.parse().expect("integer count");
        }
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        // Two depth-1 spans under one root: the second must not claim the
        // first's child.
        let records = vec![
            span("x", 0, 1, 0, 10_000),
            span("y", 0, 1, 20_000, 10_000),
            span("root", 0, 0, 0, 40_000),
        ];
        let profile = SpanProfile::from_records(&records);
        assert_eq!(profile.stacks()["root;x"].total_ns, 10_000);
        assert_eq!(profile.stacks()["root;y"].total_ns, 10_000);
        assert_eq!(profile.stacks()["root"].self_ns, 20_000);
    }

    #[test]
    fn threads_keep_independent_trees() {
        let records = vec![
            span("work", 0, 1, 0, 5_000),
            span("root", 0, 0, 0, 10_000),
            span("work", 1, 0, 0, 7_000),
        ];
        let profile = SpanProfile::from_records(&records).with_threads(&records);
        assert_eq!(profile.stacks()["root;work"].total_ns, 5_000);
        assert_eq!(profile.stacks()["work"].total_ns, 7_000);
        assert_eq!(profile.names()["work"].count, 2);
        assert_eq!(profile.names()["work"].threads, vec![0, 1]);
    }

    #[test]
    fn repeated_stacks_aggregate() {
        let records = vec![
            span("epoch", 0, 0, 0, 1_000_000),
            span("epoch", 0, 0, 2_000_000, 3_000_000),
        ];
        let profile = SpanProfile::from_records(&records);
        let s = profile.stacks()["epoch"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 4_000_000);
        assert_eq!(profile.hotspots()[0].0, "epoch");
    }

    #[test]
    fn parse_trace_round_trips_records() {
        let rec = Record {
            t_ns: 500,
            kind: RecordKind::Span,
            level: crate::trace::Level::Info,
            name: "stream.epoch",
            thread: 2,
            depth: 1,
            dur_ns: Some(9_000),
            fields: vec![("raw", FieldValue::U64(7))],
        };
        let line = crate::trace::record_to_json(&rec);
        let parsed = parse_trace(&format!("{line}\nnot json\n\n"));
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "stream.epoch");
        assert_eq!(parsed[0].dur_ns, Some(9_000));
        assert_eq!(parsed[0].field_f64("raw"), Some(7.0));
    }

    #[test]
    fn chrome_trace_golden() {
        let records = vec![
            span("root", 0, 0, 1_000, 2_000),
            ProfileRecord {
                t_ns: 1_500,
                kind: RecordKind::Event,
                name: "tick".to_string(),
                thread: 0,
                depth: 1,
                dur_ns: None,
                fields: vec![("n".to_string(), FieldValue::U64(3))],
            },
        ];
        let json = chrome_trace(&records);
        let expected = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"sper\"}},\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"thread-0\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"dur\":2.000,\"cat\":\"span\",\"name\":\"root\"},\
            {\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"cat\":\"event\",\"name\":\"tick\",\"args\":{\"n\":3}}\
            ]}";
        assert_eq!(json, expected);
        assert!(parse(&json).is_ok(), "well-formed JSON");
    }

    #[test]
    fn worker_spans_emit_utilization_counters() {
        let mut worker = span("parallel.worker", 3, 1, 0, 10_000_000);
        worker.fields = vec![
            ("worker".into(), FieldValue::U64(2)),
            ("busy_us".into(), FieldValue::U64(8_000)),
        ];
        let json = chrome_trace(&[worker]);
        assert!(json.contains("\"name\":\"worker_utilization\""), "{json}");
        assert!(json.contains("\"w2\":80.0"), "{json}");
        assert!(parse(&json).is_ok());
    }
}
