//! Span capture for the traced run: `bench.<layer>.<call>` spans around
//! the public engine calls, collected in memory by a
//! [`sper_obs::CaptureSink`] and reduced with
//! [`sper_obs::profile::SpanProfile`].

use crate::stats::ledger_remainder;
use sper_obs::profile::{ProfileRecord, SpanProfile};
use sper_obs::trace::{self, CaptureSink, Level, RecordKind, SpanGuard};
use std::sync::Arc;

/// Opens a benchmark span; inert (one atomic load) when no capture is
/// installed, so traced and untraced passes run the same code.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(Level::Info, name, Vec::new)
}

/// An installed in-memory capture; dropping the returned records ends it.
pub struct Capture(Arc<CaptureSink>);

impl Capture {
    /// Installs a fresh capture as the process trace sink.
    pub fn start() -> Self {
        let sink = Arc::new(CaptureSink::new());
        trace::install_sink(sink.clone(), Level::Info);
        Self(sink)
    }

    /// Uninstalls the capture and returns what it recorded.
    pub fn finish(self) -> Captured {
        trace::clear_sink();
        let records: Vec<ProfileRecord> = self.0.records().iter().map(Into::into).collect();
        let profile = SpanProfile::from_records(&records);
        Captured { records, profile }
    }
}

/// One capture's records and their call-tree profile.
pub struct Captured {
    records: Vec<ProfileRecord>,
    profile: SpanProfile,
}

impl Captured {
    /// Summed duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.profile
            .names()
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// Largest numeric field `key` over the spans called `name`.
    pub fn field_max(&self, name: &str, key: &str) -> f64 {
        self.spans(name)
            .filter_map(|r| r.field_f64(key))
            .fold(0.0, f64::max)
    }

    /// Spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans(name).count()
    }

    /// Spans called `name` that carry field `key`.
    pub fn count_field(&self, name: &str, key: &str) -> usize {
        self.spans(name)
            .filter(|r| r.field_f64(key).is_some())
            .count()
    }

    fn spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ProfileRecord> {
        self.records
            .iter()
            .filter(move |r| r.kind == RecordKind::Span && r.name == name)
    }

    /// The stage ledger of the root span `root`: its wall time and the
    /// part of it its direct `bench.*` child spans do not cover, both in
    /// nanoseconds.
    pub fn ledger(&self, root: &str) -> (u64, i64) {
        let total = self.profile.stacks().get(root).map_or(0, |s| s.total_ns);
        let prefix = format!("{root};");
        let parts: Vec<u64> = self
            .profile
            .stacks()
            .iter()
            .filter_map(|(path, s)| {
                let child = path.strip_prefix(&prefix)?;
                (child.starts_with("bench.") && !child.contains(';')).then_some(s.total_ns)
            })
            .collect();
        (total, ledger_remainder(total, &parts))
    }
}
