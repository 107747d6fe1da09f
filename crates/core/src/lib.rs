#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # sper-core
//!
//! The paper's primary contribution: schema-agnostic **Progressive Entity
//! Resolution** methods (§4–§5 of Simonini et al.).
//!
//! Every method implements [`ProgressiveEr`]: construction is the
//! *initialization phase* (build the data structures and the first batch of
//! best comparisons), and each [`Iterator::next`] call is one *emission
//! phase* — it returns the remaining comparison with the highest estimated
//! matching likelihood (§3.1).
//!
//! | Method | Kind | Principle | Module |
//! |---|---|---|---|
//! | `PSN` | schema-based baseline | similarity | [`psn`] |
//! | `SA-PSN` | naïve schema-agnostic | similarity | [`sa_psn`] |
//! | `SA-PSAB` | naïve schema-agnostic | equality (hierarchical) | [`sa_psab`] |
//! | `LS-PSN` | advanced | similarity (local window order) | [`ls_psn`] |
//! | `GS-PSN` | advanced | similarity (global order, `wmax`) | [`gs_psn`] |
//! | `PBS` | advanced | equality (block scheduling) | [`pbs`] |
//! | `PPS` | advanced | equality (profile scheduling) | [`pps`] |
//!
//! The *Same Eventual Quality* requirement (§3.1) holds exhaustively for
//! PSN / SA-PSN / SA-PSAB / LS-PSN; GS-PSN bounds its search to windows
//! `1..=wmax`, and PBS / PPS inherit meta-blocking's pruning (PPS emits at
//! most `Kmax` comparisons per scheduled profile) — exactly as in the paper.

pub mod emitter;
pub mod gs_psn;
pub mod ls_psn;
pub mod method;
pub mod pbs;
pub mod pps;
pub mod psn;
pub mod rcf;
pub mod sa_psab;
pub mod sa_psn;
pub(crate) mod scratch;

pub use emitter::{emission_order, EmissionList};
pub use method::{build_method, MethodConfig, ProgressiveMethod};
pub use rcf::{rcf_weight, NeighborWeighting};
// The thread-count boundary of the parallel engine, re-exported so method
// consumers don't need a direct sper-blocking dependency.
pub use sper_blocking::{Parallelism, ZeroThreads};

use sper_model::{ErKind, Pair, ProfileCollection, ProfileId};

/// The ids that are valid neighbors of the *iterated* profile `i` in the
/// similarity-based weighting passes (Algorithm 1 lines 10/14): Dirty ER
/// counts each pair from its larger endpoint only (`j < i`); Clean-clean
/// ER iterates `P1` profiles and accepts `P2` neighbors only, which are
/// the ids from `len_first` on because every collection numbers `P1`
/// first. One range per iterated profile keeps the probe loop free of
/// per-neighbor profile lookups.
#[inline]
pub(crate) fn similarity_neighbor_ids(
    profiles: &ProfileCollection,
    i: ProfileId,
) -> std::ops::Range<u32> {
    match profiles.kind() {
        ErKind::Dirty => 0..i.0,
        ErKind::CleanClean => profiles.len_first() as u32..profiles.len() as u32,
    }
}

/// Profiles iterated by the similarity-based weighting passes: all of them
/// for Dirty ER, only `P1` for Clean-clean ER.
#[inline]
pub(crate) fn iterated_profile_range(profiles: &ProfileCollection) -> std::ops::Range<u32> {
    match profiles.kind() {
        ErKind::Dirty => 0..profiles.len() as u32,
        ErKind::CleanClean => 0..profiles.len_first() as u32,
    }
}

/// A comparison emitted by a progressive method: the profile pair plus the
/// method's estimate of its matching likelihood (0 for the naïve methods,
/// which do not weight comparisons).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The unordered profile pair to compare.
    pub pair: Pair,
    /// Estimated matching likelihood (scheme-dependent scale).
    pub weight: f64,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(pair: Pair, weight: f64) -> Self {
        Self { pair, weight }
    }
}

/// A progressive ER method: an iterator over comparisons in non-increasing
/// estimated matching likelihood (within the method's ordering discipline).
pub trait ProgressiveEr: Iterator<Item = Comparison> {
    /// The method's canonical acronym (e.g. `"LS-PSN"`).
    fn method_name(&self) -> &'static str;
}

#[cfg(test)]
mod comparison_tests {
    use super::*;
    use sper_model::ProfileId;

    #[test]
    fn comparison_holds_pair_and_weight() {
        let c = Comparison::new(Pair::new(ProfileId(3), ProfileId(1)), 0.5);
        assert_eq!(c.pair.first, ProfileId(1));
        assert_eq!(c.weight, 0.5);
    }
}
