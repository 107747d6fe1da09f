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
use sper_model::{ErKind, Pair, ProfileCollection, ProfileId};
use std::borrow::Cow;
use std::ops::Range;

/// The Neighbor List placements a window pass may count, in list order:
/// every placement for Dirty ER, only the `P2` placements for
/// Clean-clean ER, where a `P1` profile is never compared with its own
/// source.
struct Candidates<'a> {
    /// Profile id of each candidate placement.
    ids: Cow<'a, [ProfileId]>,
    /// `before[pos]`: the candidates at list positions below `pos`, for
    /// every `pos` in `0..=len`. Empty when every placement is a candidate.
    before: Vec<u32>,
}

impl<'a> Candidates<'a> {
    fn new(profiles: &ProfileCollection, list: &'a [ProfileId]) -> Self {
        match profiles.kind() {
            ErKind::Dirty => Self {
                ids: Cow::Borrowed(list),
                before: Vec::new(),
            },
            ErKind::CleanClean => {
                let second = profiles.len_first() as u32;
                let mut ids = Vec::new();
                let mut before = Vec::with_capacity(list.len() + 1);
                for &p in list {
                    before.push(ids.len() as u32);
                    if p.0 >= second {
                        ids.push(p);
                    }
                }
                before.push(ids.len() as u32);
                Self {
                    ids: Cow::Owned(ids),
                    before,
                }
            }
        }
    }

    /// The candidates at list positions `window`, in list order.
    #[inline]
    fn within(&self, window: Range<usize>) -> &[ProfileId] {
        if self.before.is_empty() {
            &self.ids[window]
        } else {
            &self.ids[self.before[window.start] as usize..self.before[window.end] as usize]
        }
    }
}

/// Accumulates co-occurrence frequencies over every window in `[1, wmax]`
/// for the profiles of `range` — the unit of work of the initialization
/// fan-out, on the dense scratch of the worker running it (touched-list
/// reset). The windows `1..=wmax` around a placement are exactly the
/// `wmax` positions on each side of it, so each placement scans the
/// candidates among them in ascending position order; frequencies are
/// counts, hence independent of the scan order. Returns the batch and the
/// number of candidate slots scanned.
fn weight_all_windows_range(
    profiles: &ProfileCollection,
    nl: &NeighborList,
    candidates: &Candidates<'_>,
    wmax: usize,
    weighting: NeighborWeighting,
    range: Range<u32>,
    scratch: &mut CooccurrenceScratch,
) -> (Vec<Comparison>, usize) {
    let pi = nl.position_index();
    let len = nl.len();
    let mut batch: Vec<Comparison> = Vec::new();
    let mut slots = 0;
    for i in range {
        let i = ProfileId(i);
        let valid = crate::similarity_neighbor_ids(profiles, i);
        for &pos in pi.positions_of(i) {
            let pos = pos as usize;
            // The slot at `pos` itself holds `i`, which `valid` excludes.
            let window = candidates.within(pos.saturating_sub(wmax)..(pos + 1 + wmax).min(len));
            slots += window.len();
            for &j in window {
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
    (batch, slots)
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
    /// worker count. The two phases run under the `core.gs_psn.window_pass`
    /// and `core.gs_psn.first_tier` spans.
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
        let nl_len = nl.len();
        let mut span = sper_obs::span!(
            "core.gs_psn.window_pass",
            placements = iterated
                .clone()
                .map(|i| nl.position_index().num_positions(ProfileId(i)))
                .sum::<usize>(),
            wmax = wmax,
        );
        let candidates = Candidates::new(profiles, nl.as_slice());
        // Work-stealing chunks with a per-worker frequency scratch; each
        // chunk's batch is a pure function of its profile range and becomes
        // one run of the Comparison List, which emits the union of the runs
        // in one order whatever the chunking.
        let chunks = par.steal_chunks(
            iterated.len(),
            sper_blocking::STEAL_MIN_CHUNK,
            || CooccurrenceScratch::new(profiles.len()),
            |scratch, range| {
                weight_all_windows_range(
                    profiles,
                    &nl,
                    &candidates,
                    wmax,
                    weighting,
                    range.start as u32..range.end as u32,
                    scratch,
                )
            },
        );
        span.record("slots", chunks.iter().map(|c| c.1).sum::<usize>());
        span.record(
            "comparisons",
            chunks.iter().map(|c| c.0.len()).sum::<usize>(),
        );
        // The Neighbor List is spent: freeing it inside the span keeps the
        // whole build under the init spans.
        drop(candidates);
        drop(nl);
        drop(span);

        let _span = sper_obs::span!("core.gs_psn.first_tier", runs = chunks.len());
        let mut list = EmissionList::new(par);
        list.refill(chunks.into_iter().map(|(batch, _)| batch));
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
    use proptest::prelude::*;
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

    /// Algorithm 1's probes at distances `1..=wmax` on both sides of
    /// every placement of every iterated profile, validity read from the
    /// profile sources: the co-occurrence count of each pair.
    fn probe_counts(
        coll: &ProfileCollection,
        nl: &NeighborList,
        wmax: usize,
    ) -> HashMap<Pair, f64> {
        let mut counts: HashMap<Pair, f64> = HashMap::new();
        for i in crate::iterated_profile_range(coll).map(ProfileId) {
            for &pos in nl.position_index().positions_of(i) {
                for w in 1..=wmax as isize {
                    for probe in [pos as isize + w, pos as isize - w] {
                        let Some(j) = nl.get(probe) else { continue };
                        let valid = match coll.kind() {
                            ErKind::Dirty => j < i,
                            ErKind::CleanClean => coll.source_of(j) == sper_model::SourceId::SECOND,
                        };
                        if valid {
                            *counts.entry(Pair::new(i, j)).or_default() += 1.0;
                        }
                    }
                }
            }
        }
        counts
    }

    const WORDS: [&str; 8] = [
        "amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heath",
    ];

    proptest! {
        /// The window pass over the candidate placements counts exactly
        /// what the probes count, one comparison per pair: Dirty and
        /// Clean-clean collections with sources skewed either way, `P2`
        /// sometimes without a placement, `P1` placements sometimes at
        /// both ends of the list (`aaaa` sorts first, `zzzz` last), and
        /// `wmax` from 1 to past the list length.
        #[test]
        fn window_scan_counts_what_window_probes_count(
            kind in 0u8..2,
            first in collection::vec(collection::vec(0..WORDS.len(), 0..5), 0..14),
            second in collection::vec(collection::vec(0..WORDS.len(), 0..5), 0..14),
            mute_second in 0u8..4,
            ends in (0u8..2, 0u8..2),
            seed in 0u64..u64::MAX,
            wmax in 0usize..60,
        ) {
            let (clean, mute_second) = (kind == 1, mute_second == 0);
            let text = |ids: &[usize]| ids.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
            let mut b = if clean {
                ProfileCollectionBuilder::clean_clean()
            } else {
                ProfileCollectionBuilder::dirty()
            };
            for (k, ids) in first.iter().enumerate() {
                let mut value = text(ids);
                if ends.0 == 1 && k == 0 {
                    value.push_str(" aaaa");
                }
                if ends.1 == 1 && k + 1 == first.len() {
                    value.push_str(" zzzz");
                }
                b.add_profile([("t", value)]);
            }
            if clean {
                b.start_second_source();
            }
            for ids in &second {
                b.add_profile([("t", if mute_second { String::new() } else { text(ids) })]);
            }
            let coll = b.build();
            let nl = NeighborList::build(&coll, seed);
            // A third of the cases reach past the list on both sides.
            let wmax = if wmax >= 40 { nl.len() + wmax - 39 } else { wmax + 1 };
            let mut scratch = CooccurrenceScratch::new(coll.len());
            let (batch, _) = weight_all_windows_range(
                &coll,
                &nl,
                &Candidates::new(&coll, nl.as_slice()),
                wmax,
                NeighborWeighting::Frequency,
                crate::iterated_profile_range(&coll),
                &mut scratch,
            );
            let scanned: HashMap<Pair, f64> = batch.iter().map(|c| (c.pair, c.weight)).collect();
            prop_assert_eq!(scanned.len(), batch.len(), "one comparison per pair");
            prop_assert_eq!(scanned, probe_counts(&coll, &nl, wmax));
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
