//! Global Schema-Agnostic PSN (GS-PSN), §5.1.2.
//!
//! GS-PSN removes LS-PSN's one weakness — the per-window (local) order that
//! re-emits pairs across windows — by accumulating co-occurrence frequencies
//! over **all** window sizes in `[1, wmax]` during initialization, then
//! emitting every comparison exactly once in one global order. The price is
//! the extra parameter `wmax` and `O(wmax · |p̄| · |P|)` space for the
//! precomputed Comparison List.

use crate::emitter::EmissionList;
use crate::rcf::NeighborWeighting;
use crate::scratch::CooccurrenceScratch;
use crate::{Comparison, ProgressiveEr};
use sper_blocking::neighbor_list::NeighborList;
use sper_blocking::Parallelism;
use sper_model::{Pair, ProfileCollection, ProfileId};

/// Accumulates co-occurrence frequencies over every window in `[1, wmax]`
/// for the profiles of `range` — the unit of work of the initialization
/// fan-out, on the dense scratch of the worker running it (touched-list
/// reset). The windows `1..=wmax` around a placement are exactly the
/// `wmax` positions on each side of it, so each placement scans two slices
/// of the Neighbor List; frequencies are counts, hence independent of the
/// scan order.
fn weight_all_windows_range(
    profiles: &ProfileCollection,
    nl: &NeighborList,
    wmax: usize,
    weighting: NeighborWeighting,
    range: std::ops::Range<u32>,
    scratch: &mut CooccurrenceScratch,
) -> Vec<Comparison> {
    let pi = nl.position_index();
    let list = nl.as_slice();
    let mut batch: Vec<Comparison> = Vec::new();
    for i in range {
        let i = ProfileId(i);
        let valid = crate::similarity_neighbor_ids(profiles, i);
        for &pos in pi.positions_of(i) {
            let pos = pos as usize;
            let before = &list[pos.saturating_sub(wmax)..pos];
            let after = &list[pos + 1..(pos + 1 + wmax).min(list.len())];
            for &j in before.iter().chain(after) {
                if valid.contains(&j.0) {
                    scratch.bump(j);
                }
            }
        }
        scratch.drain(|j, f| {
            let weight = weighting.weight(f, pi.num_positions(i), pi.num_positions(j));
            batch.push(Comparison::new(Pair::new(i, j), weight));
        });
    }
    batch
}

/// The advanced similarity-based method with a global execution order.
#[derive(Debug)]
pub struct GsPsn {
    list: EmissionList,
    wmax: usize,
    nl_len: usize,
}

impl GsPsn {
    /// Paper default for structured datasets (§7 parameter configuration).
    pub const WMAX_STRUCTURED: usize = 20;
    /// Paper default for large, heterogeneous datasets.
    pub const WMAX_HETEROGENEOUS: usize = 200;

    /// Initialization phase: one weighting pass accumulating co-occurrences
    /// over every window size in `[1, wmax]`; the Comparison List orders
    /// the result lazily, one tier at a time as it is emitted.
    ///
    /// ```
    /// use sper_core::gs_psn::GsPsn;
    /// use sper_model::ProfileCollectionBuilder;
    ///
    /// let mut b = ProfileCollectionBuilder::dirty();
    /// b.add_profile([("name", "carl white ny tailor")]);
    /// b.add_profile([("name", "karl white ny tailor")]);
    /// let profiles = b.build();
    /// let best = GsPsn::new(&profiles, 42, 5).next().expect("one pair exists");
    /// assert!(best.weight > 0.0);
    /// ```
    pub fn new(profiles: &ProfileCollection, seed: u64, wmax: usize) -> Self {
        Self::with_weighting(profiles, seed, wmax, NeighborWeighting::default())
    }

    /// Like [`Self::new`] with an explicit window weighting scheme.
    pub fn with_weighting(
        profiles: &ProfileCollection,
        seed: u64,
        wmax: usize,
        weighting: NeighborWeighting,
    ) -> Self {
        Self::from_neighbor_list(
            profiles,
            NeighborList::build(profiles, seed),
            wmax,
            weighting,
        )
    }

    /// Builds GS-PSN over an externally maintained Neighbor List — the
    /// streaming path (`sper-stream`).
    pub fn from_neighbor_list(
        profiles: &ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
    ) -> Self {
        Self::from_neighbor_list_par(profiles, nl, wmax, weighting, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::from_neighbor_list`], accumulating the `[1, wmax]`
    /// window weights on up to `par` workers (work-stealing profile
    /// ranges, per-worker frequency scratch) and preparing the first tier
    /// of each range's run on them. Emission order is identical at every
    /// worker count.
    pub fn from_neighbor_list_par(
        profiles: &ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
        par: Parallelism,
    ) -> Self {
        assert!(wmax >= 1, "wmax must be at least 1");
        assert_eq!(
            nl.position_index().n_profiles(),
            profiles.len(),
            "Neighbor List indexes a different profile count"
        );
        let wmax = wmax.min(nl.len().saturating_sub(1).max(1));

        let iterated = crate::iterated_profile_range(profiles);
        let nl_ref = &nl;
        // Work-stealing chunks with a per-worker frequency scratch; each
        // chunk's batch is a pure function of its profile range and becomes
        // one run of the Comparison List, which emits the union of the runs
        // in one order whatever the chunking.
        let chunks = par.steal_chunks(
            iterated.len(),
            sper_blocking::STEAL_MIN_CHUNK,
            || CooccurrenceScratch::new(profiles.len()),
            |scratch, range, _chunk| {
                weight_all_windows_range(
                    profiles,
                    nl_ref,
                    wmax,
                    weighting,
                    range.start as u32..range.end as u32,
                    scratch,
                )
            },
        );

        let mut list = EmissionList::new(par);
        let nl_len = nl.len();
        list.refill(chunks);
        Self { list, wmax, nl_len }
    }

    /// The effective `wmax` in use.
    pub fn wmax(&self) -> usize {
        self.wmax
    }

    /// Comparisons left to emit.
    pub fn remaining(&self) -> usize {
        self.list.remaining()
    }

    /// Length of the underlying Neighbor List.
    pub fn neighbor_list_len(&self) -> usize {
        self.nl_len
    }
}

impl Iterator for GsPsn {
    type Item = Comparison;

    /// Emission phase: returns the next best comparison, no repeats,
    /// until the precomputed list is exhausted. Most calls read the next
    /// slot of an already sorted tier; once a run's tier is used up, one
    /// call also selects and sorts that run's next tier (at most 4,096
    /// comparisons).
    fn next(&mut self) -> Option<Comparison> {
        self.list.remove_first()
    }
}

impl ProgressiveEr for GsPsn {
    fn method_name(&self) -> &'static str {
        "GS-PSN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_model::ProfileCollectionBuilder;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn emits_no_repeated_comparison() {
        let profiles = fig3_profiles();
        let gs = GsPsn::new(&profiles, 7, 5);
        let pairs: Vec<Pair> = gs.map(|c| c.pair).collect();
        let distinct: HashSet<Pair> = pairs.iter().copied().collect();
        assert_eq!(pairs.len(), distinct.len(), "GS-PSN never repeats");
    }

    #[test]
    fn weights_non_increasing_globally() {
        let profiles = fig3_profiles();
        let weights: Vec<f64> = GsPsn::new(&profiles, 7, 5).map(|c| c.weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn first_emission_is_a_match() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let first = GsPsn::new(&profiles, 7, 3).next().unwrap();
        assert!(truth.is_match_pair(first.pair));
    }

    #[test]
    fn finds_all_matches_with_generous_wmax() {
        let profiles = fig3_profiles();
        let truth = fig3_ground_truth();
        let found: HashSet<Pair> = GsPsn::new(&profiles, 7, 23)
            .map(|c| c.pair)
            .filter(|p| truth.is_match_pair(*p))
            .collect();
        assert_eq!(found.len(), truth.num_matches());
    }

    #[test]
    fn wmax_bounds_the_search() {
        let profiles = fig3_profiles();
        let narrow = GsPsn::new(&profiles, 7, 1).count();
        let wide = GsPsn::new(&profiles, 7, 10).count();
        assert!(narrow < wide, "larger windows see more pairs");
    }

    #[test]
    fn accumulates_across_windows() {
        // A pair co-occurring at distances 1 and 2 gets frequency ≥ 2 in a
        // wmax=2 run — more than any single-window LS-PSN pass would see.
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "aa ab ac")]);
        b.add_profile([("t", "aa ab ac")]);
        let coll = b.build();
        let c = GsPsn::new(&coll, 0, 5).next().unwrap();
        // With all 6 placements interleaved, the pair's accumulated RCF
        // approaches 1.
        assert!(c.weight > 0.5, "accumulated weight should be high: {c:?}");
    }

    #[test]
    fn clean_clean_valid_only() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("t", "alpha beta")]);
        b.add_profile([("t", "beta gamma")]);
        b.start_second_source();
        b.add_profile([("t", "alpha gamma")]);
        let coll = b.build();
        for c in GsPsn::new(&coll, 0, 10) {
            assert!(coll.is_valid_comparison(c.pair.first, c.pair.second));
        }
    }

    #[test]
    fn window_scan_counts_what_window_probes_count() {
        // Reference: Algorithm 1's probes at distances 1..=wmax on both
        // sides of every placement, validity read from the profile sources.
        let clean = {
            let mut b = ProfileCollectionBuilder::clean_clean();
            for v in ["alpha beta", "beta gamma", "gamma alpha beta"] {
                b.add_profile([("t", v)]);
            }
            b.start_second_source();
            for v in ["alpha gamma", "beta", "alpha beta gamma delta"] {
                b.add_profile([("t", v)]);
            }
            b.build()
        };
        for coll in [fig3_profiles(), clean] {
            let nl = NeighborList::build(&coll, 7);
            let pi = nl.position_index();
            let iterated = crate::iterated_profile_range(&coll);
            for wmax in [1usize, 2, 3, 5, 40] {
                let mut expected: HashMap<Pair, f64> = HashMap::new();
                for i in iterated.clone().map(ProfileId) {
                    for &pos in pi.positions_of(i) {
                        for w in 1..=wmax as isize {
                            for probe in [pos as isize + w, pos as isize - w] {
                                let Some(j) = nl.get(probe) else { continue };
                                let valid = match coll.kind() {
                                    sper_model::ErKind::Dirty => j < i,
                                    sper_model::ErKind::CleanClean => {
                                        coll.source_of(j) == sper_model::SourceId::SECOND
                                    }
                                };
                                if valid {
                                    *expected.entry(Pair::new(i, j)).or_default() += 1.0;
                                }
                            }
                        }
                    }
                }
                let mut scratch = CooccurrenceScratch::new(coll.len());
                let batch = weight_all_windows_range(
                    &coll,
                    &nl,
                    wmax,
                    NeighborWeighting::Frequency,
                    iterated.clone(),
                    &mut scratch,
                );
                let scanned: HashMap<Pair, f64> =
                    batch.iter().map(|c| (c.pair, c.weight)).collect();
                assert_eq!(scanned.len(), batch.len(), "one comparison per pair");
                assert_eq!(scanned, expected, "wmax = {wmax}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "wmax")]
    fn zero_wmax_panics() {
        let profiles = fig3_profiles();
        let _ = GsPsn::new(&profiles, 0, 0);
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(GsPsn::WMAX_STRUCTURED, 20);
        assert_eq!(GsPsn::WMAX_HETEROGENEOUS, 200);
    }
}
