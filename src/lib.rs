//! # sper — Schema-agnostic Progressive Entity Resolution
//!
//! Façade crate re-exporting the whole workspace. See the README for a tour
//! and `DESIGN.md` for the system inventory.
//!
//! ```
//! use sper::prelude::*;
//!
//! let mut b = ProfileCollectionBuilder::dirty();
//! b.add_profile([("name", "Carl White"), ("job", "tailor")]);
//! b.add_profile([("fullname", "Karl White"), ("profession", "tailor")]);
//! let profiles = b.build();
//! assert_eq!(profiles.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub use sper_blocking as blocking;
pub use sper_core as core;
pub use sper_datagen as datagen;
pub use sper_eval as eval;
pub use sper_model as model;
pub use sper_obs as obs;
pub use sper_store as store;
pub use sper_stream as stream;
pub use sper_text as text;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use sper_blocking::{
        filtering::BlockFilter, graph::BlockingGraph, neighbor_list::NeighborList,
        profile_index::ProfileIndex, purging::BlockPurger, token_blocking::TokenBlocking,
        weights::WeightingScheme, BlockCollection, TokenBlockingWorkflow,
    };
    pub use sper_core::{
        gs_psn::GsPsn, ls_psn::LsPsn, pbs::Pbs, pps::Pps, psn::Psn, sa_psab::SaPsab, sa_psn::SaPsn,
        Comparison, MethodConfig, Parallelism, ProgressiveEr, ProgressiveMethod, ZeroThreads,
    };
    pub use sper_datagen::{DatasetKind, DatasetSpec, GeneratedDataset};
    pub use sper_eval::{
        auc::{mean_normalized_auc, normalized_auc},
        curve::RecallCurve,
        runner::{run_progressive, RunOptions, RunResult},
        timing::{run_timed, TimedResult, TimingOptions},
    };
    pub use sper_model::{
        ErKind, GroundTruth, MatchFunction, Pair, Profile, ProfileCollection,
        ProfileCollectionBuilder, ProfileId, SourceId,
    };
    pub use sper_store::{
        CheckpointOutcome, CheckpointWriter, OnCheckpointFailure, RetryPolicy, SalvageReport,
        SessionCheckpoint, Snapshot, StoreError,
    };
    pub use sper_stream::{
        run_streaming, EpochOutcome, EpochReport, ProgressiveSession, SessionConfig, SessionState,
    };
}
