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
//! Construction is interned, in phases, each under its own span:
//!
//! 1. **Tokenize and intern** (`blocking.tokenize`, plus
//!    `blocking.publish` on several workers): every profile's distinct
//!    token ids, in profile order — the placements.
//! 2. **Rank** (`blocking.rank`): the interner's lexicographic rank table,
//!    a pure function of the token strings.
//! 3. **Sort** (`blocking.nl_sort`): a counting sort of the placements by
//!    key rank — one counting pass, a prefix sum, and one scatter in
//!    profile order. Scattering in input order makes it the stable sort
//!    by rank, which is the historical stable sort by key string (the rank
//!    order *is* the string order), with no comparison at all.
//! 4. **Shuffle and Position Index** (`blocking.nl_shuffle`,
//!    `blocking.position_index`): each equal-key run is one rank's
//!    bucket, shuffled in rank order with one seeded RNG, as the
//!    string-sorted build shuffled its runs.
//!
//! Only the first phase fans out; its ids, and so every later array, are
//! the same at every worker count, and the list is bit-identical to the
//! historical string-sorted build.

use crate::block::prefix_offsets;
use crate::parallel::{Parallelism, ZeroThreads};
use crate::token_blocking::tokenize_profiles;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sper_model::{ProfileCollection, ProfileId};
use sper_text::{TokenId, TokenInterner};
use std::sync::Arc;

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
    /// parallelism is exhausted run one worker — the worker vocabularies
    /// and their publish only pay for themselves when there are both
    /// enough profiles and enough real cores. Only tokenizing fans out;
    /// rank, sort, shuffle and Position Index run on the calling thread.
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
        let tokens = tokenize_profiles(all, &interner, par);
        let rank = {
            let _span = sper_obs::span!("blocking.rank");
            interner.rank()
        };

        let sort_span = sper_obs::span!("blocking.nl_sort");
        // `starts[r]..starts[r + 1]`: the positions of the rank-`r` key.
        let mut counts = vec![0u32; rank.len()];
        for (_, ids) in tokens.iter() {
            for id in ids {
                counts[rank[id.index()] as usize] += 1;
            }
        }
        let starts = prefix_offsets(&counts);
        let mut cursor = counts;
        cursor.copy_from_slice(&starts[..rank.len()]);
        let mut nl = vec![ProfileId(0); *starts.last().expect("offsets start at 0") as usize];
        for (p, ids) in tokens.iter() {
            for id in ids {
                let at = &mut cursor[rank[id.index()] as usize];
                nl[*at as usize] = p;
                *at += 1;
            }
        }
        drop(tokens);
        drop(sort_span);

        let shuffle_span = sper_obs::span!("blocking.nl_shuffle");
        // Every equal-key run is one rank's bucket: shuffled in rank order
        // with one RNG — the *coincidental proximity* of §4.1.
        let mut rng = StdRng::seed_from_u64(seed);
        for run in starts.windows(2) {
            if run[1] - run[0] > 1 {
                nl[run[0] as usize..run[1] as usize].shuffle(&mut rng);
            }
        }
        let keys = keep_keys.then(|| {
            let mut by_rank = vec![TokenId(0); rank.len()];
            for (id, &r) in rank.iter().enumerate() {
                by_rank[r as usize] = TokenId(id as u32);
            }
            let mut keys = Vec::with_capacity(nl.len());
            for (key, run) in by_rank.iter().zip(starts.windows(2)) {
                keys.resize(run[1] as usize, *key);
            }
            keys
        });
        drop(shuffle_span);
        span.record("placements", nl.len());
        let _span = sper_obs::span!("blocking.position_index");
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
