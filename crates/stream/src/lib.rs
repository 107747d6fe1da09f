#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # sper-stream
//!
//! Incremental **ingest-while-resolving** sessions: the long-lived service
//! primitive that turns the one-shot [`ProgressiveEr`] iterators of
//! `sper-core` into a streaming pipeline.
//!
//! Every batch method in this workspace freezes its `ProfileCollection` at
//! construction. This crate removes that constraint with three layers:
//!
//! 1. **Incremental substrates** ([`incremental`]) —
//!    [`IncrementalTokenBlocking`] and [`IncrementalNeighborList`] keep
//!    Token Blocking's blocks and the Neighbor List up to date under
//!    `add_profile` / `add_batch`, with amortized per-profile updates
//!    instead of full rebuilds, and materialize batch-identical snapshots
//!    on demand.
//!    Deletion is tombstone-based: the session keeps one retraction mark
//!    per profile and passes it to the substrates, whose snapshots filter
//!    marked rows lazily until a periodic `compact` pass physically drops
//!    them — emission is bit-identical throughout.
//! 2. **Resumable sessions** ([`session`]) — a [`ProgressiveSession`]
//!    wraps any schema-agnostic method and runs `ingest → reprioritize →
//!    emit` epochs, deduplicating emissions across epochs and reporting
//!    per-epoch statistics.
//! 3. **Harness integration** — the `sper stream` CLI subcommand, the
//!    [`sper_eval::streaming`] epoch-annotated recall curves (driven by
//!    [`run_streaming`]), criterion ingest/re-emission benches, and the
//!    `streaming_ingest` example.
//!
//! The core invariant (property-tested in `tests/equivalence.rs`) mirrors
//! the paper's *Same Eventual Quality* requirement (§3.1): after all
//! profiles are ingested, a session's cumulative emission set equals the
//! batch method's emission set on the final collection — streaming changes
//! latency, never eventual quality. See [`session`] for the exact
//! monotonicity conditions.
//!
//! ```
//! use sper_stream::{ProgressiveSession, SessionConfig};
//! use sper_core::ProgressiveMethod;
//! use sper_model::{Attribute, ProfileCollectionBuilder};
//!
//! let mut session = ProgressiveSession::new(
//!     ProfileCollectionBuilder::dirty().build(),
//!     SessionConfig::exhaustive(ProgressiveMethod::Pps),
//! );
//! session.ingest(vec![Attribute::new("name", "Carl White NY tailor")]);
//! session.ingest(vec![Attribute::new("name", "Karl White NY tailor")]);
//! let epoch = session.emit_epoch(None);
//! assert_eq!(epoch.report.new_emissions, 1);
//! ```
//!
//! [`ProgressiveEr`]: sper_core::ProgressiveEr

pub mod incremental;
pub mod session;

pub use incremental::{IncrementalNeighborList, IncrementalTokenBlocking};
pub use session::{
    run_streaming, CompactionPolicy, EpochOutcome, EpochReport, ProgressiveSession, SessionConfig,
    SessionState, SessionView,
};
