//! The schema-agnostic Neighbor List and Position Index (§3.2, §5.1).
//!
//! The Neighbor List is the sorted list of profiles produced by ordering all
//! schema-agnostic blocking keys (attribute-value tokens) alphabetically;
//! every profile typically occupies multiple positions, one per distinct
//! token (Fig. 3(d)–(e)).
//!
//! When several profiles share a key, their relative order inside the run is
//! *coincidental proximity* (§4.1) — "relatively random". We model this with
//! a seeded shuffle of every equal-key run, keeping experiments
//! deterministic while avoiding the systematic bias that insertion order
//! (generation order ≈ duplicate adjacency) would introduce.
//!
//! The Position Index is the inverted index from profile ids to Neighbor
//! List positions that powers the weighted similarity-based methods
//! (LS-PSN/GS-PSN, §5.1.1): `PI[i]` lists the positions of `p_i`, ascending.
//! It is one offsets array plus one positions array (CSR), filled by a
//! count, a prefix sum and one pass in list order.
//!
//! Construction is interned: placements are `(TokenId, ProfileId)` pairs,
//! and the global alphabetical sort compares one precomputed `u32`
//! lexicographic rank per token instead of strings — the dominant
//! `O(‖NL‖ log ‖NL‖)` sort runs on 8-byte records. The resulting list is
//! bit-identical to the historical string-sorted build (the rank order *is*
//! the string order, and the run shuffles consume the RNG identically).
//!
//! With several workers, each tokenizes one contiguous profile range into
//! its own placement run and stable-sorts it; a deterministic tournament
//! merge keyed on `(rank, run index)` then yields the very sequence the
//! single-run sort produces, so the shuffle and the final list match
//! position for position at every worker count.

use crate::parallel::{Parallelism, ZeroThreads};
use crate::token_blocking::ProfileTokenizer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sper_model::{ProfileCollection, ProfileId};
use sper_text::{TokenId, TokenInterner, Tokenizer};
use std::sync::Arc;

/// Shuffles every equal-key run of rank-sorted placements with a seeded
/// RNG — the *coincidental proximity* of §4.1.
fn shuffle_equal_runs(placements: &mut [(TokenId, ProfileId)], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut start = 0;
    while start < placements.len() {
        let mut end = start + 1;
        while end < placements.len() && placements[end].0 == placements[start].0 {
            end += 1;
        }
        if end - start > 1 {
            placements[start..end].shuffle(&mut rng);
        }
        start = end;
    }
}

/// Deterministic k-way tournament merge of rank-sorted placement runs.
///
/// The tournament key is `(rank, run index)`: distinct token strings have
/// distinct ranks, and equal-rank ties resolve in run order — which is
/// global profile order, because runs hold contiguous profile ranges. The
/// output therefore equals a single stable sort of the concatenated runs.
/// A single run passes through untouched.
fn merge_ranked_runs(
    mut runs: Vec<Vec<(TokenId, ProfileId)>>,
    rank: &[u32],
) -> Vec<(TokenId, ProfileId)> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if runs.len() == 1 {
        return runs.pop().expect("one run");
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out: Vec<(TokenId, ProfileId)> = Vec::with_capacity(total);
    let mut cursors = vec![0usize; runs.len()];
    // Min-heap over run fronts: the tournament of the k candidates.
    let mut heap: BinaryHeap<Reverse<(u32, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| Reverse((rank[r[0].0.index()], i)))
        .collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let run = &runs[i];
        let at = cursors[i];
        out.push(run[at]);
        cursors[i] = at + 1;
        if at + 1 < run.len() {
            heap.push(Reverse((rank[run[at + 1].0.index()], i)));
        }
    }
    out
}

/// Inverted index: profile id → ascending Neighbor List positions, in
/// CSR form: the positions of profile `p` are
/// `positions[offsets[p]..offsets[p + 1]]`.
#[derive(Debug, Clone)]
pub struct PositionIndex {
    /// `n_profiles + 1` entries, non-decreasing from 0 to the list length.
    offsets: Vec<u32>,
    /// Every list position, grouped by profile, ascending within each.
    positions: Vec<u32>,
}

impl PositionIndex {
    /// A count, a prefix sum and one pass in list order, so each profile's
    /// positions come out ascending. The pass advances each profile's
    /// offset to the start of the next one's; one shift restores them.
    fn build(nl: &[ProfileId], n_profiles: usize) -> Self {
        let mut offsets = vec![0u32; n_profiles + 1];
        for &p in nl {
            offsets[p.index() + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut positions = vec![0u32; nl.len()];
        for (pos, &p) in nl.iter().enumerate() {
            let at = &mut offsets[p.index()];
            positions[*at as usize] = pos as u32;
            *at += 1;
        }
        offsets.copy_within(..n_profiles, 1);
        offsets[0] = 0;
        Self { offsets, positions }
    }

    /// The positions of profile `p`, ascending. Empty when the profile has
    /// no tokens.
    #[inline]
    pub fn positions_of(&self, p: ProfileId) -> &[u32] {
        &self.positions[self.offsets[p.index()] as usize..self.offsets[p.index() + 1] as usize]
    }

    /// Number of placements of `p` (its distinct-token count).
    #[inline]
    pub fn num_positions(&self, p: ProfileId) -> usize {
        (self.offsets[p.index() + 1] - self.offsets[p.index()]) as usize
    }

    /// Number of profiles indexed.
    pub fn n_profiles(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The schema-agnostic Neighbor List plus its Position Index.
#[derive(Debug, Clone)]
pub struct NeighborList {
    nl: Vec<ProfileId>,
    position_index: PositionIndex,
    interner: Arc<TokenInterner>,
    /// Interned blocking key per position; retained only when built with
    /// [`NeighborList::build_with_keys`].
    keys: Option<Vec<TokenId>>,
}

impl NeighborList {
    /// Builds the Neighbor List for `profiles` with the default tokenizer
    /// on the calling thread. Equal-key runs are shuffled with `seed`
    /// (coincidental proximity).
    pub fn build(profiles: &ProfileCollection, seed: u64) -> Self {
        Self::build_inner(profiles, seed, false, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::build`] on up to `par` workers, also retaining the
    /// blocking key of every position, for inspection and tests.
    pub fn build_with_keys(profiles: &ProfileCollection, seed: u64, par: Parallelism) -> Self {
        Self::build_inner(profiles, seed, true, par)
    }

    /// Builds the Neighbor List on up to `threads` workers, **bit-identical**
    /// to [`Self::build`] with the same `seed`.
    ///
    /// The requested count passes through the spawn break-even guard
    /// ([`Parallelism::break_even`]): collections smaller than
    /// [`crate::MIN_PARALLEL_BATCH`] profiles and hosts whose available
    /// parallelism is exhausted run one worker — the per-run sort and the
    /// tournament merge only pay for themselves when there are both enough
    /// placements and enough real cores.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroThreads`] when `threads == 0`.
    pub fn par_build(
        profiles: &ProfileCollection,
        seed: u64,
        threads: usize,
    ) -> Result<Self, ZeroThreads> {
        Ok(Self::build_inner(
            profiles,
            seed,
            false,
            Parallelism::new(threads)?,
        ))
    }

    fn build_inner(
        profiles: &ProfileCollection,
        seed: u64,
        keep_keys: bool,
        par: Parallelism,
    ) -> Self {
        let all = profiles.profiles();
        let par = par.break_even(all.len());
        let mut span = sper_obs::span!(
            "blocking.nl_build",
            profiles = all.len(),
            threads = par.get(),
        );
        let interner = TokenInterner::shared();
        let tokenizer = Tokenizer;
        // Map: one contiguous profile range per worker, tokenized into its
        // own run of (token, profile) placements — one per *distinct*
        // token per profile, in profile order.
        let per_worker = all.len().div_ceil(par.capped(all.len()).get());
        let mut runs: Vec<Vec<(TokenId, ProfileId)>> = par.steal_chunks(
            all.len(),
            per_worker,
            || ProfileTokenizer::new(&tokenizer, &interner, par),
            |tokens, range| {
                let mut placements: Vec<(TokenId, ProfileId)> = Vec::new();
                let mut ids: Vec<TokenId> = Vec::new();
                for p in &all[range] {
                    ids.clear();
                    tokens.tokenize(p, &mut ids);
                    ids.sort_unstable();
                    ids.dedup();
                    placements.extend(ids.iter().map(|&t| (t, p.id)));
                }
                placements
            },
        );
        // Alphabetical order via the lexicographic rank, computed once over
        // the complete vocabulary: ranks are a pure function of the token
        // *strings*, not of the concurrent id assignment order. Each run
        // stable-sorts on its own worker, so equal-key placements keep
        // their profile-id order — exactly what the string sort produced.
        let rank = interner.rank();
        par.for_each_mut(&mut runs, |run| run.sort_by_key(|&(t, _)| rank[t.index()]));
        let mut placements = merge_ranked_runs(runs, &rank);
        shuffle_equal_runs(&mut placements, seed);
        span.record("placements", placements.len());
        let nl = placements.iter().map(|&(_, p)| p).collect();
        let keys = keep_keys.then(|| placements.into_iter().map(|(k, _)| k).collect());
        Self::from_raw_parts(nl, keys, interner, all.len())
    }

    /// Length of the list (total placements, `|p̄|·|P|` on average).
    pub fn len(&self) -> usize {
        self.nl.len()
    }

    /// True when no profile produced any token.
    pub fn is_empty(&self) -> bool {
        self.nl.is_empty()
    }

    /// The profile at `position`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn profile_at(&self, position: usize) -> ProfileId {
        self.nl[position]
    }

    /// The profile at a possibly-out-of-range position (window probes walk
    /// off both ends).
    #[inline]
    pub fn get(&self, position: isize) -> Option<ProfileId> {
        if position < 0 {
            return None;
        }
        self.nl.get(position as usize).copied()
    }

    /// The underlying list.
    pub fn as_slice(&self) -> &[ProfileId] {
        &self.nl
    }

    /// The Position Index.
    pub fn position_index(&self) -> &PositionIndex {
        &self.position_index
    }

    /// The interner resolving this list's keys.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// The retained per-position keys (see [`Self::build_with_keys`]),
    /// when any.
    pub fn keys(&self) -> Option<&[TokenId]> {
        self.keys.as_deref()
    }

    /// Reassembles a list from its raw arrays — the inverse of
    /// [`as_slice`](Self::as_slice) + [`keys`](Self::keys), used by the
    /// persistence layer (`sper-store`) and by the streaming path
    /// (`sper-stream`), whose incremental list writes its placements in
    /// final order itself. The Position Index is rebuilt
    /// deterministically from the list, so a round-trip is bit-identical.
    /// Callers must validate untrusted input first (every profile id `<
    /// n_profiles`, `keys` — when kept — as long as `nl`); invariants are
    /// only debug-asserted here.
    pub fn from_raw_parts(
        nl: Vec<ProfileId>,
        keys: Option<Vec<TokenId>>,
        interner: Arc<TokenInterner>,
        n_profiles: usize,
    ) -> Self {
        debug_assert!(nl.iter().all(|p| p.index() < n_profiles));
        debug_assert!(keys.as_ref().is_none_or(|k| k.len() == nl.len()));
        let position_index = PositionIndex::build(&nl, n_profiles);
        Self {
            nl,
            position_index,
            interner,
            keys,
        }
    }

    /// The interned blocking key at `position`, when keys were retained.
    pub fn key_id_at(&self, position: usize) -> Option<TokenId> {
        self.keys.as_ref().map(|k| k[position])
    }

    /// The blocking key string at `position`, when keys were retained.
    pub fn key_at(&self, position: usize) -> Option<Arc<str>> {
        self.keys
            .as_ref()
            .map(|k| self.interner.resolve(k[position]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    #[test]
    fn fig3_neighbor_list_shape() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build_with_keys(&profiles, 7, Parallelism::SEQUENTIAL);
        // Fig. 3(d): 11 distinct keys; Fig. 3(e): 24 placements.
        assert_eq!(nl.len(), 24);
        // Keys are sorted alphabetically.
        let keys: Vec<String> = (0..nl.len())
            .map(|i| nl.key_at(i).unwrap().to_string())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // The first run is "carl" = {p1, p2} in some order.
        let mut first_two = vec![nl.profile_at(0), nl.profile_at(1)];
        first_two.sort_unstable();
        assert_eq!(first_two, vec![pid(0), pid(1)]);
        // The last placement before "wi" is the 6-profile "white" run.
        assert_eq!(nl.key_at(23).as_deref(), Some("wi"));
        let mut white_run: Vec<ProfileId> = (17..23).map(|i| nl.profile_at(i)).collect();
        white_run.sort_unstable();
        assert_eq!(white_run, (0..6).map(pid).collect::<Vec<_>>());
    }

    #[test]
    fn position_index_inverts_neighbor_list() {
        // Fig. 3, and a collection whose first and last profiles have no
        // tokens (empty rows at both ends of the index).
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        for text in ["", "carl white", "white tailor", "", "carl ny", ""] {
            b.add_profile([("t", text)]);
        }
        for profiles in [fig3_profiles(), b.build()] {
            let nl = NeighborList::build(&profiles, 3);
            let pi = nl.position_index();
            assert_eq!(pi.n_profiles(), profiles.len());
            for p in (0..profiles.len() as u32).map(pid) {
                for &pos in pi.positions_of(p) {
                    assert_eq!(nl.profile_at(pos as usize), p);
                }
                // Ascending.
                assert!(pi.positions_of(p).windows(2).all(|w| w[0] < w[1]));
                assert_eq!(pi.num_positions(p), pi.positions_of(p).len());
            }
            // Every position is owned by exactly one profile.
            let total: usize = (0..profiles.len() as u32)
                .map(|i| pi.num_positions(pid(i)))
                .sum();
            assert_eq!(total, nl.len());
        }
    }

    #[test]
    fn placements_equal_distinct_tokens() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 3);
        let pi = nl.position_index();
        // p1 (our p0): carl, white, ny, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(0)), 4);
        // p6 (our p5): emma, white, wi, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(5)), 4);
        // p2 (our p1): ny, carl, white, tailor → 4 placements.
        assert_eq!(pi.num_positions(pid(1)), 4);
    }

    #[test]
    fn different_seeds_permute_ties_only() {
        let profiles = fig3_profiles();
        let a = NeighborList::build_with_keys(&profiles, 1, Parallelism::SEQUENTIAL);
        let b = NeighborList::build_with_keys(&profiles, 2, Parallelism::SEQUENTIAL);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            // Same key sequence regardless of seed.
            assert_eq!(a.key_at(i), b.key_at(i));
        }
        // Same multiset of (key, profile) placements.
        let collect = |nl: &NeighborList| {
            let mut v: Vec<(String, ProfileId)> = (0..nl.len())
                .map(|i| (nl.key_at(i).unwrap().to_string(), nl.profile_at(i)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(collect(&a), collect(&b));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let profiles = fig3_profiles();
        let a = NeighborList::build(&profiles, 9);
        let b = NeighborList::build(&profiles, 9);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn out_of_range_probes() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 0);
        assert_eq!(nl.get(-1), None);
        assert_eq!(nl.get(nl.len() as isize), None);
        assert!(nl.get(0).is_some());
    }

    #[test]
    fn keys_not_retained_by_default() {
        let profiles = fig3_profiles();
        let nl = NeighborList::build(&profiles, 0);
        assert_eq!(nl.key_at(0), None);
        assert_eq!(nl.key_id_at(0), None);
    }

    #[test]
    fn tournament_merge_equals_one_stable_sort() {
        // Equal-key runs span run boundaries: the merge must tie-break by
        // run index (= profile order), as the single stable sort does.
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        for i in 0..97u32 {
            let base = i % 31;
            b.add_profile([("t", format!("tok{} shared{} common", base, base % 5))]);
        }
        let profiles = b.build();
        let interner = TokenInterner::shared();
        let tokenizer = Tokenizer;
        let mut placements: Vec<(TokenId, ProfileId)> = Vec::new();
        for p in profiles.iter() {
            let mut ids = Vec::new();
            for attr in &p.attributes {
                tokenizer.tokenize_ids_into(&attr.value, &interner, &mut ids);
            }
            ids.sort_unstable();
            ids.dedup();
            placements.extend(ids.iter().map(|&t| (t, p.id)));
        }
        let rank = interner.rank();
        let mut sorted = placements.clone();
        sorted.sort_by_key(|&(t, _)| rank[t.index()]);
        for runs in [2usize, 3, 5, 8] {
            let mut split: Vec<Vec<(TokenId, ProfileId)>> = placements
                .chunks(placements.len().div_ceil(runs))
                .map(<[_]>::to_vec)
                .collect();
            for run in &mut split {
                run.sort_by_key(|&(t, _)| rank[t.index()]);
            }
            assert_eq!(merge_ranked_runs(split, &rank), sorted, "runs = {runs}");
        }
    }

    #[test]
    fn par_build_break_even_guard_falls_back_to_sequential() {
        // Small inputs collapse to one worker before any spawn happens;
        // the guard also caps at the host's available parallelism, so the
        // request below never oversubscribes regardless of machine.
        let par = Parallelism::new(8).unwrap();
        assert!(par.break_even(10).is_sequential());
        assert!(par
            .break_even(crate::MIN_PARALLEL_BATCH - 1)
            .is_sequential());
        let big = par.break_even(crate::MIN_PARALLEL_BATCH);
        assert!(big.get() <= Parallelism::available().get());
    }

    #[test]
    fn par_build_edge_cases() {
        // Empty collection.
        let empty = sper_model::ProfileCollectionBuilder::dirty().build();
        let nl = NeighborList::par_build(&empty, 1, 4).unwrap();
        assert!(nl.is_empty());
        // Single profile.
        let mut b = sper_model::ProfileCollectionBuilder::dirty();
        b.add_profile([("t", "lonely profile tokens")]);
        let one = b.build();
        let seq = NeighborList::build(&one, 3);
        let par = NeighborList::par_build(&one, 3, 8).unwrap();
        assert_eq!(par.as_slice(), seq.as_slice());
        // Zero threads: typed error, no panic.
        assert!(NeighborList::par_build(&one, 3, 0).is_err());
    }
}
