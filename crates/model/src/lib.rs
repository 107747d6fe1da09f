//! # sper-model
//!
//! The entity-profile data model of schema-agnostic ER (§3 of the paper):
//!
//! * [`Profile`] — a uniquely identified set of attribute name–value pairs,
//!   the common denominator of relational rows, RDF resources, JSON objects
//!   and text snippets.
//! * [`ProfileCollection`] — the input of an ER task, either *Dirty*
//!   (one source with internal duplicates) or *Clean-clean* (two
//!   duplicate-free overlapping sources).
//! * [`GroundTruth`] — the known matches, stored as an equivalence relation
//!   (union–find) and enumerable as the set of duplicate pairs `DP`.
//! * [`MatchFunction`] — the binary match decision the progressive methods
//!   are decoupled from (§7.3): oracle, edit-distance and Jaccard matchers.

#![forbid(unsafe_code)]

pub mod comparison;
pub mod ground_truth;
pub mod io;
pub mod matcher;
pub mod profile;
pub mod union_find;

pub use comparison::Pair;
pub use ground_truth::GroundTruth;
pub use matcher::{EditDistanceMatcher, JaccardMatcher, MatchFunction, OracleMatcher, ProfileText};
pub use profile::{
    Attribute, ErKind, Profile, ProfileCollection, ProfileCollectionBuilder, ProfileId, SourceId,
};
pub use union_find::UnionFind;
