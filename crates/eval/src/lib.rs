//! # sper-eval
//!
//! Progressive-recall evaluation (§7 metrics):
//!
//! * [`curve::RecallCurve`] — recall as a function of the number of emitted
//!   comparisons, stored compactly as the emission index of every newly
//!   found match.
//! * [`auc`] — the paper's `AUC*_m@ec*`: area under the recall-vs-`ec*`
//!   curve, normalized by the ideal method (which reaches recall 1 at
//!   `ec* = 1`).
//! * [`runner`] — drives a progressive method against a ground truth,
//!   recording the curve, the initialization time and emission counts.
//! * [`timing`] — wall-clock experiments pairing methods with real match
//!   functions (Fig. 13).
//! * [`report`] — fixed-width table helpers for the bench binaries.
//! * [`oracle`] — extension: progressive ER with a perfect transitive
//!   oracle (the crowdsourced setting of §2).
//! * [`streaming`] — epoch-annotated recall curves for the
//!   ingest-while-resolving sessions of `sper-stream`.

#![forbid(unsafe_code)]

pub mod auc;
pub mod blocking_quality;
pub mod curve;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod streaming;
pub mod timing;

pub use auc::normalized_auc;
pub use blocking_quality::{blocking_quality, BlockingQuality};
pub use curve::RecallCurve;
pub use oracle::{run_with_oracle, OracleRunResult};
pub use runner::{run_progressive, RunOptions, RunResult};
pub use streaming::{streaming_recall, EpochMark, StreamEpoch, StreamingRecall};
pub use timing::{run_timed, TimedResult, TimingOptions};
