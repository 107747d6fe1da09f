//! Zero-overhead observability for the sper engine.
//!
//! Three layers, all **off by default** and all gated by a single relaxed
//! atomic load per call site so instrumentation can live on the engine's
//! hottest paths without perturbing them:
//!
//! * [`trace`] — [`span!`]/[`event!`] structured tracing with
//!   thread-local span stacks, monotonic timestamps and pluggable sinks
//!   (JSON-lines, human stderr, in-memory capture, fan-out);
//! * [`metrics`] — a global registry of counters, gauges and fixed-bucket
//!   histograms ([`count!`]/[`observe!`]), exportable as Prometheus text
//!   or JSON with deterministic ordering;
//! * [`profiling`] — [`PeakAllocTracker`], a counting global allocator
//!   for peak-heap measurement, [`HostInfo`], a host fingerprint
//!   stamped into bench baselines, and [`RunStamp`], artifact provenance.
//!
//! On top of the substrate, four introspection surfaces:
//!
//! * [`ring`] — [`RingSink`], the bounded drop-oldest flight recorder;
//! * [`serve()`] — a dependency-free HTTP scrape endpoint
//!   (`/metrics`, `/healthz`, `/buildz`, `/tracez`) for live runs;
//! * [`profile`] — the span profiler: call-tree reconstruction with
//!   collapsed-stack (flamegraph) and Chrome trace-event exports;
//! * [`report`] — a self-contained HTML run report fusing trace,
//!   metrics, and recall data with inline SVG charts;
//! * [`fault`] — the deterministic failpoint registry (`SPER_FAILPOINTS`)
//!   behind the engine's fault-injection harness, gated exactly like the
//!   macros: one relaxed load when unarmed.
//!
//! The crate's only dependency is the workspace's vendored `serde` (itself
//! dependency-free apart from its derive): obs must be embeddable under
//! every other crate in the graph without cycles. The profiler and the run
//! report read their JSON inputs back through `serde::json::parse`, whose
//! depth cap turns hostile nesting into a skipped input instead of a stack
//! overflow.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use sper_obs::trace::{CaptureSink, Level};
//!
//! let sink = Arc::new(CaptureSink::new());
//! sper_obs::trace::install_sink(sink.clone(), Level::Debug);
//! sper_obs::metrics::set_enabled(true);
//!
//! {
//!     let mut span = sper_obs::span!("demo.build", inputs = 3usize);
//!     sper_obs::count!("demo.widgets", 3u64);
//!     span.record("outputs", 3usize);
//! }
//!
//! assert_eq!(sink.names(), vec!["demo.build"]);
//! sper_obs::trace::clear_sink();
//! sper_obs::metrics::set_enabled(false);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod fault;
pub mod metrics;
pub mod profile;
pub mod profiling;
pub mod report;
pub mod ring;
pub mod serve;
pub mod trace;

pub use fault::{FaultAction, FaultSpecError, InjectedFault};
pub use metrics::MetricsRegistry;
pub use profile::{chrome_trace, parse_trace, ProfileRecord, SpanProfile};
pub use profiling::{HostInfo, PeakAllocTracker, RunStamp};
pub use report::{render_html, ReportInputs};
pub use ring::{RingSink, DEFAULT_RING_CAPACITY};
pub use serve::{serve, BuildInfo, ObsServer};
pub use trace::{
    CaptureSink, FieldValue, JsonLinesSink, Level, MultiSink, Record, RecordKind, Sink, SpanGuard,
    StderrSink,
};
