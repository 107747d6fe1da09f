//! Global Schema-Agnostic PSN (GS-PSN), §5.1.2.
//!
//! GS-PSN removes LS-PSN's one weakness — the per-window (local) order that
//! re-emits pairs across windows — by accumulating co-occurrence frequencies
//! over **all** window sizes in `[1, wmax]`, then emitting every comparison
//! exactly once in one global order. The paper pays for that order with the
//! extra parameter `wmax` and `O(wmax · |p̄| · |P|)` space: the Comparison
//! List of every weighted comparison, precomputed during initialization.
//!
//! The engine keeps the Neighbor List instead and emits in **bands**. A
//! band is one run of the window pass that keeps only the next `B`
//! comparisons of the global order: those after the previous band's last
//! one in [`emission_order`], and of those only the `B` best. Space is the
//! Neighbor List's `O(|p̄| · |P|)` plus the band: at most `2B` comparisons
//! per worker while it is cut, at most `B` per worker once cut, and just
//! what is left for a last band that takes all of it. Time is one window
//! pass per band. The first band holds `10 · |P|` comparisons, the CLI's
//! default budget and at least `ec* = 10` on any Clean-clean task; every
//! later band holds twice as many as the one before, or everything left
//! when that is at most twice as many. A budgeted run therefore makes one
//! pass, and a full drain of `N` comparisons about `log2(N / 10|P|)`. A
//! pass after the first also counts the comparisons from its band's start
//! on per weight bucket, so that the next band skips, from its first
//! comparison, every bucket below those known to hold enough of them. The
//! bands concatenate to the sequence a materialized Comparison List would
//! emit, bit for bit.

use crate::emitter::{emission_order, EmissionList};
use crate::rcf::NeighborWeighting;
use crate::scratch::CooccurrenceScratch;
use crate::{Comparison, ProgressiveEr};
use sper_blocking::neighbor_list::NeighborList;
use sper_blocking::Parallelism;
use sper_model::{ErKind, Pair, ProfileCollection, ProfileId};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// The Neighbor List placements a window pass may count, in list order:
/// every placement for Dirty ER, only the `P2` placements for
/// Clean-clean ER, where a `P1` profile is never compared with its own
/// source.
#[derive(Debug)]
struct Candidates {
    /// Profile id of each `P2` placement; empty for Dirty ER, whose
    /// candidates are the list itself.
    ids: Vec<ProfileId>,
    /// `before[pos]`: the `P2` placements at list positions below `pos`,
    /// for every `pos` in `0..=len`; empty for Dirty ER.
    before: Vec<u32>,
}

impl Candidates {
    fn new(profiles: &ProfileCollection, list: &[ProfileId]) -> Self {
        let mut candidates = Self {
            ids: Vec::new(),
            before: Vec::new(),
        };
        if profiles.kind() == ErKind::CleanClean {
            let second = profiles.len_first() as u32;
            candidates.before.reserve(list.len() + 1);
            for &p in list {
                candidates.before.push(candidates.ids.len() as u32);
                if p.0 >= second {
                    candidates.ids.push(p);
                }
            }
            candidates.before.push(candidates.ids.len() as u32);
        }
        candidates
    }

    /// The candidates at positions `window` of `list`, in list order.
    #[inline]
    fn within<'l>(&'l self, list: &'l [ProfileId], window: Range<usize>) -> &'l [ProfileId] {
        if self.before.is_empty() {
            &list[window]
        } else {
            &self.ids[self.before[window.start] as usize..self.before[window.end] as usize]
        }
    }
}

/// Each band after the first holds this many times the comparisons of the
/// one before.
const BAND_GROWTH: usize = 2;

/// What every band pass reads: the collection, its Neighbor List with
/// the candidate placements, and the window bound.
#[derive(Debug)]
struct Windows<'a> {
    profiles: &'a ProfileCollection,
    nl: NeighborList,
    candidates: Candidates,
    wmax: usize,
    weighting: NeighborWeighting,
}

impl<'a> Windows<'a> {
    fn new(
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
    ) -> Self {
        assert!(wmax >= 1, "wmax must be at least 1");
        assert_eq!(
            nl.position_index().n_profiles(),
            profiles.len(),
            "Neighbor List indexes a different profile count"
        );
        Self {
            profiles,
            wmax: wmax.min(nl.len().saturating_sub(1).max(1)),
            candidates: Candidates::new(profiles, nl.as_slice()),
            nl,
            weighting,
        }
    }

    /// Weighs every comparison of the iterated profiles `range` over the
    /// windows `1..=wmax` and hands each to `keep`. The windows around a
    /// placement are exactly the `wmax` positions on each side of it, so
    /// each placement scans the candidates among them in ascending
    /// position order into the worker's dense frequency scratch; a
    /// profile's comparisons then leave in first-touch order, each pair
    /// once. Frequencies are counts, hence independent of the scan order.
    /// Returns the candidate slots scanned and the comparisons weighed.
    fn scan(
        &self,
        range: Range<usize>,
        freq: &mut CooccurrenceScratch,
        mut keep: impl FnMut(Comparison),
    ) -> (usize, usize) {
        let pi = self.nl.position_index();
        let list = self.nl.as_slice();
        let (mut slots, mut weighed) = (0, 0);
        for i in range {
            let i = ProfileId(i as u32);
            let valid = crate::similarity_neighbor_ids(self.profiles, i);
            for &pos in pi.positions_of(i) {
                let pos = pos as usize;
                // The slot at `pos` itself holds `i`, which `valid` excludes.
                let window = pos.saturating_sub(self.wmax)..(pos + 1 + self.wmax).min(list.len());
                let window = self.candidates.within(list, window);
                slots += window.len();
                for &j in window {
                    if valid.contains(&j.0) {
                        freq.bump(j);
                    }
                }
            }
            let positions = pi.num_positions(i);
            freq.drain(|j, f| {
                weighed += 1;
                let weight = self.weighting.weight(f, positions, pi.num_positions(j));
                keep(Comparison::new(Pair::new(i, j), weight));
            });
        }
        (slots, weighed)
    }

    /// One band pass on up to `par` workers (work-stealing profile ranges,
    /// a frequency scratch per worker): the comparisons after `after` in
    /// emission order, all of them as one run per chunk when `size` is
    /// `None`, otherwise at least the `size` first, kept by a [`Keeper`]
    /// per worker (at most `size` per run, none below bucket `least`).
    /// With `count`, the keepers also count the comparisons after `after`
    /// per weight bucket, for the next band's `least`.
    ///
    /// The keepers share a floor, so what a chunk keeps depends on the
    /// steal schedule; the band does not. A comparison is dropped only
    /// when at least `size` comparisons after `after` are known to precede
    /// it, so the `size` first are never dropped, whichever worker saw
    /// which range when.
    fn band(
        &self,
        after: Option<Comparison>,
        size: Option<usize>,
        least: usize,
        count: bool,
        par: Parallelism,
    ) -> Pass {
        let band = Band {
            floor: Mutex::new(None),
            runs: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        };
        let chunks = par.steal_chunks(
            crate::iterated_profile_range(self.profiles).len(),
            sper_blocking::STEAL_MIN_CHUNK,
            || {
                let keeper = size.map(|size| Keeper {
                    band: &band,
                    after,
                    size,
                    least,
                    floor: None,
                    kept: Vec::new(),
                    counts: if count { vec![0; BUCKETS] } else { Vec::new() },
                });
                (CooccurrenceScratch::new(self.profiles.len()), keeper)
            },
            |(freq, keeper), range| {
                let mut run = Vec::new();
                let counts = match keeper {
                    Some(keeper) => {
                        keeper.floor = *band.floor.lock().expect(POISONED);
                        self.scan(range, freq, |c| keeper.offer(c))
                    }
                    None => self.scan(range, freq, |c| {
                        if after.is_none_or(|a| emission_order(&c, &a).is_gt()) {
                            run.push(c);
                        }
                    }),
                };
                (run, counts)
            },
        );
        let (slots, weighed) = chunks
            .iter()
            .fold((0, 0), |(s, w), (_, c)| (s + c.0, w + c.1));
        // Every keeper has handed its run over: the fan-out dropped them.
        let mut runs = band.runs.into_inner().expect(POISONED);
        runs.extend(
            chunks
                .into_iter()
                .map(|(run, _)| run)
                .filter(|run| !run.is_empty()),
        );
        Pass {
            runs,
            slots,
            weighed,
            counts: band.counts.into_inner().expect(POISONED),
        }
    }
}

/// What a band pass returns.
struct Pass {
    runs: Vec<Vec<Comparison>>,
    /// Candidate slots scanned.
    slots: usize,
    /// Comparisons weighed: all of them.
    weighed: usize,
    /// The candidates per weight bucket, summed over the keepers; empty
    /// when none counted.
    counts: Vec<u64>,
}

/// Weight buckets: the top 20 bits of a non-negative `f64` (the exponent
/// and 8 mantissa bits, 256 buckets per binade).
const BUCKETS: usize = 1 << 19;

/// The weight bucket of `w`: its top 20 bits, every negative weight in
/// bucket 0. Buckets follow [`f64::total_cmp`], so every comparison of a
/// lower bucket emits after every comparison of a higher one.
#[inline]
fn bucket(w: f64) -> usize {
    let bits = w.to_bits();
    if bits >> 63 == 1 {
        0
    } else {
        (bits >> 44) as usize
    }
}

/// Why a band's lock can be poisoned: a worker panicked holding it, and
/// the fan-out re-raises that panic.
const POISONED: &str = "a band worker panicked";

/// What the workers of one band pass share.
struct Band {
    /// A comparison at or after the floor has at least `size` kept
    /// comparisons before it: the earliest `size`-th best any worker has
    /// kept so far.
    floor: Mutex<Option<Comparison>>,
    /// The workers' kept comparisons, one run each.
    runs: Mutex<Vec<Vec<Comparison>>>,
    /// The workers' candidate counts per weight bucket, summed.
    counts: Mutex<Vec<u64>>,
}

/// One worker's part of a band pass: the comparisons it keeps, never more
/// than `2 · size`. Dropping it, when the worker's steal loop ends, cuts
/// them to the `size` first and moves them into the band's runs, so each
/// comparison is held once.
struct Keeper<'b> {
    band: &'b Band,
    /// The previous band's last comparison: only later ones are kept.
    after: Option<Comparison>,
    /// `B`: the comparisons the band needs.
    size: usize,
    /// Candidates of a lower weight bucket are dropped: at least `size`
    /// candidates of this bucket or a higher one are known to exist.
    least: usize,
    /// The band's floor, as of this worker's last read.
    floor: Option<Comparison>,
    kept: Vec<Comparison>,
    /// This worker's candidates per weight bucket; empty when not counted.
    counts: Vec<u32>,
}

impl Keeper<'_> {
    /// Keeps `c` when it comes after `after`, in bucket `least` or
    /// higher, and before the floor, counting every comparison after
    /// `after` by bucket in passes after the first. A keeper that reaches
    /// `2 · size` cuts itself to `size` and publishes the last comparison
    /// it kept as the floor, unless another worker's comes earlier.
    #[inline]
    fn offer(&mut self, c: Comparison) {
        // The first band's pass has no `after`, hence no `least` and no
        // counts.
        if let Some(after) = self.after {
            if emission_order(&c, &after).is_le() {
                return;
            }
            let b = bucket(c.weight);
            if let Some(n) = self.counts.get_mut(b) {
                // Saturating: an undercount only lowers the next `least`.
                *n = n.saturating_add(1);
            }
            if b < self.least {
                return;
            }
        }
        if self.floor.is_none_or(|f| emission_order(&c, &f).is_lt()) {
            let cap = self.size.saturating_mul(2);
            if self.kept.len() == self.kept.capacity() {
                // Doubling, but never past the cap.
                let grow = self.kept.len().max(1024).min(cap - self.kept.len());
                self.kept.reserve_exact(grow);
            }
            self.kept.push(c);
            if self.kept.len() == cap {
                let last = self.cut();
                let mut floor = self.band.floor.lock().expect(POISONED);
                if floor.is_none_or(|f| emission_order(&last, &f).is_lt()) {
                    *floor = Some(last);
                }
                self.floor = *floor;
            }
        }
    }

    /// Keeps the `size` first kept comparisons and returns the last of
    /// them.
    fn cut(&mut self) -> Comparison {
        let (_, &mut last, _) = self
            .kept
            .select_nth_unstable_by(self.size - 1, emission_order);
        self.kept.truncate(self.size);
        last
    }
}

impl Drop for Keeper<'_> {
    fn drop(&mut self) {
        if !self.counts.is_empty() {
            let mut counts = self
                .band
                .counts
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            counts.resize(BUCKETS, 0);
            for (sum, &n) in counts.iter_mut().zip(&self.counts) {
                *sum += u64::from(n);
            }
        }
        if self.kept.len() > self.size {
            self.cut();
        }
        if !self.kept.is_empty() {
            let kept = std::mem::take(&mut self.kept);
            let mut runs = self
                .band
                .runs
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            runs.push(kept);
        }
    }
}

/// The advanced similarity-based method with a global execution order.
#[derive(Debug)]
pub struct GsPsn<'a> {
    windows: Windows<'a>,
    par: Parallelism,
    /// The current band. Its runs may hold comparisons past the band's
    /// end; those are never emitted.
    list: EmissionList,
    /// Comparisons of the current band not yet emitted.
    in_band: usize,
    /// Comparisons not yet emitted, counted by the first pass.
    remaining: usize,
    /// The last comparison emitted: the next band starts after it.
    last: Option<Comparison>,
    /// Bands cut so far.
    bands: usize,
    /// `B` of the next band.
    band_size: usize,
    /// Comparisons the current band emits in all.
    band_len: usize,
    /// The comparisons from the current band's start on, per weight
    /// bucket, as its pass counted them; empty for the first band.
    counts: Vec<u64>,
}

impl<'a> GsPsn<'a> {
    /// Paper default for structured datasets (§7 parameter configuration).
    pub const WMAX_STRUCTURED: usize = 20;
    /// Paper default for large, heterogeneous datasets.
    pub const WMAX_HETEROGENEOUS: usize = 200;

    /// Initialization phase: builds the Neighbor List and cuts the first
    /// band, one window pass accumulating co-occurrences over every window
    /// size in `[1, wmax]`; the band is ordered lazily, one tier at a time
    /// as it is emitted.
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
    pub fn new(profiles: &'a ProfileCollection, seed: u64, wmax: usize) -> Self {
        Self::with_weighting(profiles, seed, wmax, NeighborWeighting::default())
    }

    /// Like [`Self::new`] with an explicit window weighting scheme.
    pub fn with_weighting(
        profiles: &'a ProfileCollection,
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
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
    ) -> Self {
        Self::from_neighbor_list_par(profiles, nl, wmax, weighting, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::from_neighbor_list`], running every band's window pass
    /// on up to `par` workers (work-stealing profile ranges, per-worker
    /// frequency scratch) and preparing the first tier of each band's runs
    /// on them. Emission order is identical at every worker count. Each
    /// band's two phases run under the `core.gs_psn.window_pass` (fields
    /// `band`, `placements`, `wmax`, `slots`, `comparisons`, `kept`) and
    /// `core.gs_psn.first_tier` (`band`, `runs`) spans; the first band's
    /// are part of this constructor, a later band's of the `next` call
    /// that needs it.
    pub fn from_neighbor_list_par(
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
        par: Parallelism,
    ) -> Self {
        let first_band = 10 * profiles.len();
        Self::with_first_band(profiles, nl, wmax, weighting, par, first_band)
    }

    /// The one constructor body, with the first band's size as a
    /// parameter so that the tests can cut bands of a few comparisons.
    fn with_first_band(
        profiles: &'a ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
        par: Parallelism,
        first_band: usize,
    ) -> Self {
        let mut gs = Self {
            windows: Windows::new(profiles, nl, wmax, weighting),
            par,
            list: EmissionList::new(par),
            in_band: 0,
            remaining: 0,
            last: None,
            bands: 0,
            band_size: first_band.max(1),
            band_len: 0,
            counts: Vec::new(),
        };
        gs.remaining = gs.cut_band(Some(gs.band_size));
        gs
    }

    /// Cuts the next band after the last comparison emitted, of `size`
    /// comparisons or of every one left (`None`, or fewer left than
    /// `size`), and hands it to the emission list. Returns the comparisons
    /// the pass weighed: all of them.
    fn cut_band(&mut self, size: Option<usize>) -> usize {
        // The spent band goes before the pass allocates the next one.
        self.list = EmissionList::new(self.par);
        let windows = &self.windows;
        let mut span = sper_obs::span!(
            "core.gs_psn.window_pass",
            band = self.bands,
            placements = crate::iterated_profile_range(windows.profiles)
                .map(|i| windows.nl.position_index().num_positions(ProfileId(i)))
                .sum::<usize>(),
            wmax = windows.wmax,
        );
        let least = size.map_or(0, |size| self.least_bucket(size));
        // Counting pays after the first band, whose pass sets the time to
        // the first emission, and while more comparisons are left than
        // there are buckets.
        let count = self.last.is_some() && self.remaining > BUCKETS;
        let Pass {
            runs,
            slots,
            weighed,
            counts,
        } = self.windows.band(self.last, size, least, count, self.par);
        // The runs hold at least the `size` first comparisons left, or all
        // of them when fewer are left.
        self.in_band = size
            .unwrap_or(usize::MAX)
            .min(runs.iter().map(Vec::len).sum());
        (self.band_len, self.counts) = (self.in_band, counts);
        span.record("slots", slots);
        span.record("comparisons", weighed);
        span.record("kept", self.in_band);
        drop(span);

        let _span = sper_obs::span!(
            "core.gs_psn.first_tier",
            band = self.bands,
            runs = runs.len()
        );
        self.list.refill(runs);
        self.bands += 1;
        self.band_size = self.band_size.saturating_mul(BAND_GROWTH);
        weighed
    }

    /// The highest weight bucket at or above which the current band's pass
    /// counted at least `size` comparisons besides the band itself: the
    /// next band, of `size`, needs none of a lower bucket. 0 when the pass
    /// did not count.
    fn least_bucket(&self, size: usize) -> usize {
        let need = (self.band_len as u64).saturating_add(size as u64);
        let mut above = 0;
        (0..self.counts.len())
            .rev()
            .find(|&b| {
                above += self.counts[b];
                above >= need
            })
            .unwrap_or(0)
    }

    /// The effective `wmax` in use.
    pub fn wmax(&self) -> usize {
        self.windows.wmax
    }

    /// Comparisons left to emit.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Length of the underlying Neighbor List.
    pub fn neighbor_list_len(&self) -> usize {
        self.windows.nl.len()
    }
}

impl Iterator for GsPsn<'_> {
    type Item = Comparison;

    /// Emission phase: returns the next best comparison, no repeats, until
    /// every comparison within `wmax` has been emitted. Most calls read
    /// the next slot of an already sorted tier; once a run's tier is used
    /// up, one call also sorts that run's next tier (at most 4,096
    /// comparisons), and once the band is used up, one call cuts the next
    /// band: one window pass.
    fn next(&mut self) -> Option<Comparison> {
        if self.in_band == 0 {
            if self.remaining == 0 {
                return None;
            }
            // A band of half or more of what is left would leave one more
            // band at most: one pass takes all of it instead.
            let size =
                (self.remaining > self.band_size.saturating_mul(2)).then_some(self.band_size);
            self.cut_band(size);
        }
        let c = self
            .list
            .remove_first()
            .expect("a band holds every comparison it emits");
        self.in_band -= 1;
        self.remaining -= 1;
        self.last = Some(c);
        Some(c)
    }
}

impl ProgressiveEr for GsPsn<'_> {
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

    /// A tie-heavy collection over [`WORDS`], Dirty or Clean-clean: one
    /// profile per word list of `first` (each `copies` times) and, in a
    /// second source for Clean-clean, of `second` (all without tokens
    /// when `mute_second`). `aaaa` on the first profile sorts first in
    /// the list and `zzzz` on the last sorts last, each when asked.
    fn tie_heavy(
        clean: bool,
        first: &[Vec<usize>],
        second: &[Vec<usize>],
        mute_second: bool,
        ends: (bool, bool),
        copies: usize,
    ) -> ProfileCollection {
        let text = |ids: &[usize]| ids.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
        let mut b = if clean {
            ProfileCollectionBuilder::clean_clean()
        } else {
            ProfileCollectionBuilder::dirty()
        };
        for (k, ids) in first.iter().enumerate() {
            let mut value = text(ids);
            if ends.0 && k == 0 {
                value.push_str(" aaaa");
            }
            if ends.1 && k + 1 == first.len() {
                value.push_str(" zzzz");
            }
            for _ in 0..copies {
                b.add_profile([("t", value.clone())]);
            }
        }
        if clean {
            b.start_second_source();
        }
        for ids in second {
            b.add_profile([(
                "t",
                if mute_second {
                    String::new()
                } else {
                    text(ids)
                },
            )]);
        }
        b.build()
    }

    /// `wmax` drawn from `0..60`: a third of the draws reach past the list
    /// on both sides.
    fn wmax_for(nl: &NeighborList, draw: usize) -> usize {
        if draw >= 40 {
            nl.len() + draw - 39
        } else {
            draw + 1
        }
    }

    /// The whole comparison set of one pass, in emission order: a band
    /// with no floor.
    fn one_pass(
        coll: &ProfileCollection,
        nl: NeighborList,
        wmax: usize,
        weighting: NeighborWeighting,
    ) -> Vec<Comparison> {
        let windows = Windows::new(coll, nl, wmax, weighting);
        let pass = windows.band(None, None, 0, false, Parallelism::SEQUENTIAL);
        let mut batch: Vec<Comparison> = pass.runs.into_iter().flatten().collect();
        assert_eq!(
            batch.len(),
            pass.weighed,
            "an unbounded band keeps everything"
        );
        batch.sort_by(emission_order);
        batch
    }

    proptest! {
        /// The window pass over the candidate placements counts exactly
        /// what the probes count, one comparison per pair: Dirty and
        /// Clean-clean collections with sources skewed either way, `P2`
        /// sometimes without a placement, `P1` placements sometimes at
        /// both ends of the list, and `wmax` from 1 to past the list
        /// length.
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
            let ends = (ends.0 == 1, ends.1 == 1);
            let coll = tie_heavy(kind == 1, &first, &second, mute_second == 0, ends, 1);
            let nl = NeighborList::build(&coll, seed);
            let wmax = wmax_for(&nl, wmax);
            let probes = probe_counts(&coll, &nl, wmax);
            let batch = one_pass(&coll, nl, wmax, NeighborWeighting::Frequency);
            let scanned: HashMap<Pair, f64> = batch.iter().map(|c| (c.pair, c.weight)).collect();
            prop_assert_eq!(scanned.len(), batch.len(), "one comparison per pair");
            prop_assert_eq!(scanned, probes);
        }

        /// Bands of 1 to 7 comparisons and up, cut on 1 to 4 workers over
        /// the same tie-heavy collections (a quarter of them with every
        /// first-source profile repeated into at least two steal chunks,
        /// so that several workers share the floor), concatenate to the one-pass batch in emission order,
        /// pairs and weight bits, and `remaining()` falls by one per
        /// emission.
        #[test]
        fn bands_concatenate_to_the_one_pass_order(
            kind in 0u8..2,
            first in collection::vec(collection::vec(0..WORDS.len(), 0..5), 0..14),
            second in collection::vec(collection::vec(0..WORDS.len(), 0..5), 0..14),
            mute_second in 0u8..4,
            ends in (0u8..2, 0u8..2),
            bulk in 0u8..4,
            seed in 0u64..u64::MAX,
            wmax in 0usize..60,
            rcf in 0u8..2,
            first_band in 1usize..8,
            threads in 1usize..5,
        ) {
            // Bulk: at least two steal chunks of first-source profiles,
            // under a narrower window to keep the case cheap.
            let bulk = bulk == 0;
            let copies = if bulk { (2 * sper_blocking::STEAL_MIN_CHUNK).div_ceil(first.len().max(1)) } else { 1 };
            let ends = (ends.0 == 1, ends.1 == 1);
            let coll = tie_heavy(kind == 1, &first, &second, mute_second == 0, ends, copies);
            let nl = NeighborList::build(&coll, seed);
            let wmax = if bulk { wmax % 20 + 1 } else { wmax_for(&nl, wmax) };
            let weighting = if rcf == 1 { NeighborWeighting::Rcf } else { NeighborWeighting::Frequency };
            let expected = one_pass(&coll, nl.clone(), wmax, weighting);
            let par = Parallelism::new(threads).unwrap();
            let mut gs = GsPsn::with_first_band(&coll, nl, wmax, weighting, par, first_band);
            let mut drained = Vec::new();
            loop {
                prop_assert_eq!(gs.remaining(), expected.len() - drained.len());
                let Some(c) = gs.next() else { break };
                drained.push(c);
            }
            let bits = |cs: &[Comparison]| -> Vec<(Pair, u64)> {
                cs.iter().map(|c| (c.pair, c.weight.to_bits())).collect()
            };
            prop_assert_eq!(bits(&drained), bits(&expected));
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
