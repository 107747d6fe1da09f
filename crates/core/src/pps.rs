//! Progressive Profile Scheduling (PPS), §5.2.2, Algorithms 5–6.
//!
//! The entity-centric equality-based method. Every profile gets a
//! **duplication likelihood** — the average weight of its incident blocking-
//! graph edges. The initialization phase emits the top-weighted comparison
//! of every node (deduplicated); the emission phase then walks the Sorted
//! Profile List in decreasing duplication likelihood, emitting each
//! profile's `Kmax` best comparisons among not-yet-checked neighbors.
//!
//! `checkedEntities` makes the order profile-centric: once a profile has
//! been scheduled, its comparisons are never produced again from the other
//! endpoint — "the previously examined profile's higher duplication
//! likelihood provides more reliable evidence" (§5.2.2).
//!
//! Both phases run the shared sparse-accumulator kernel
//! ([`sper_blocking::WeightAccumulator`]): dense per-neighbor scratch, a
//! touched list for `O(degree)` resets, weights bit-identical to the
//! materialized blocking graph's.

use crate::emitter::EmissionList;
use crate::{Comparison, ProgressiveEr};
use sper_blocking::{
    weight_desc, BlockCollection, Parallelism, ProfileIndex, TokenBlockingWorkflow,
    WeightAccumulator, WeightingScheme,
};
use sper_model::{Pair, ProfileCollection, ProfileId};
use std::collections::HashMap;

/// One initialization shard's output: `(profile, duplication likelihood)`
/// entries in profile order plus the per-profile top comparisons.
type InitShard = (Vec<(ProfileId, f64)>, Vec<Comparison>);

/// Algorithm 5 over one contiguous profile range — the unit of work of
/// both the sequential and the sharded initialization, running the shared
/// sparse-accumulator kernel with per-worker scratch.
fn init_range(
    blocks: &BlockCollection,
    index: &ProfileIndex,
    scheme: WeightingScheme,
    range: std::ops::Range<u32>,
    acc: &mut WeightAccumulator,
) -> InitShard {
    let mut likelihood: Vec<(ProfileId, f64)> = Vec::new();
    let mut tops: Vec<Comparison> = Vec::new();
    for i in range {
        let i = ProfileId(i);
        acc.sweep(blocks, index, scheme, i, None);
        if acc.is_empty() {
            continue;
        }
        let mut dup = 0.0;
        let mut top: Option<Comparison> = None;
        // Finalize weights, pick the best, reset scratch.
        for t in 0..acc.touched().len() {
            let j = ProfileId(acc.touched()[t]);
            let w = acc.finalize(index, scheme, i, j);
            dup += w;
            let cand = Comparison::new(Pair::new(i, j), w);
            let better = match &top {
                None => true,
                Some(best) => w > best.weight || (w == best.weight && cand.pair < best.pair),
            };
            if better {
                top = Some(cand);
            }
        }
        dup /= acc.touched().len() as f64;
        likelihood.push((i, dup));
        acc.reset();
        if let Some(best) = top {
            tops.push(best);
        }
    }
    (likelihood, tops)
}

/// The advanced equality-based method with profile-level scheduling.
#[derive(Debug)]
pub struct Pps {
    blocks: BlockCollection,
    index: ProfileIndex,
    scheme: WeightingScheme,
    kmax: usize,
    /// Profiles in non-increasing duplication likelihood.
    sorted_profiles: Vec<ProfileId>,
    profile_cursor: usize,
    checked: Vec<bool>,
    list: EmissionList,
    /// The reusable sparse-accumulator scratch of the emission phase
    /// (transient by design — never persisted, rebuilt on rehydration).
    acc: WeightAccumulator,
}

impl Pps {
    /// Default number of comparisons gathered per scheduled profile.
    ///
    /// Must exceed the largest expected equivalence-cluster size, otherwise
    /// PPS cannot reach full recall on cluster-heavy datasets (cora's
    /// clusters reach 30 duplicates); 50 is a safe default.
    pub const DEFAULT_KMAX: usize = 50;

    /// Initialization phase (Algorithm 5) with the default Token Blocking
    /// Workflow.
    ///
    /// ```
    /// use sper_blocking::WeightingScheme;
    /// use sper_core::pps::Pps;
    /// use sper_model::ProfileCollectionBuilder;
    ///
    /// let mut b = ProfileCollectionBuilder::dirty();
    /// b.add_profile([("name", "carl white ny tailor")]);
    /// b.add_profile([("name", "karl white ny tailor")]);
    /// let profiles = b.build();
    /// let best = Pps::new(&profiles, WeightingScheme::Arcs)
    ///     .next()
    ///     .expect("the pair shares blocks");
    /// assert!(best.weight > 0.0);
    /// ```
    pub fn new(profiles: &ProfileCollection, scheme: WeightingScheme) -> Self {
        Self::with_workflow(
            profiles,
            scheme,
            &TokenBlockingWorkflow::default(),
            Self::DEFAULT_KMAX,
        )
    }

    /// Like [`Self::new`] with explicit workflow and `Kmax`.
    pub fn with_workflow(
        profiles: &ProfileCollection,
        scheme: WeightingScheme,
        workflow: &TokenBlockingWorkflow,
        kmax: usize,
    ) -> Self {
        Self::from_blocks(workflow.run(profiles), scheme, kmax)
    }

    /// Builds PPS from an existing redundancy-positive block collection.
    pub fn from_blocks(blocks: BlockCollection, scheme: WeightingScheme, kmax: usize) -> Self {
        Self::from_blocks_par(blocks, scheme, kmax, Parallelism::SEQUENTIAL)
    }

    /// Like [`Self::from_blocks`], running the Algorithm-5 initialization
    /// (the top-k scheduling pass — PPS's dominant cost) over work-stealing
    /// profile ranges on up to `par` workers with per-worker scratch, and
    /// preparing each refill on them. The Sorted Profile List and the
    /// emission order are identical at every worker count.
    pub fn from_blocks_par(
        mut blocks: BlockCollection,
        scheme: WeightingScheme,
        kmax: usize,
        par: Parallelism,
    ) -> Self {
        assert!(kmax >= 1, "kmax must be at least 1");
        blocks.retain_comparable();
        // Deterministic block order (cardinality) keeps runs reproducible;
        // PPS itself is insensitive to block order.
        blocks.sort_by_cardinality();
        let index = ProfileIndex::build(&blocks);
        let n = blocks.n_profiles();

        let mut this = Self {
            blocks,
            index,
            scheme,
            kmax,
            sorted_profiles: Vec::new(),
            profile_cursor: 0,
            checked: vec![false; n],
            list: EmissionList::new(par),
            acc: WeightAccumulator::new(n),
        };
        this.initialize();
        this
    }

    /// Algorithm 5: per profile, accumulate neighborhood weights, record the
    /// duplication likelihood and the top comparison — over contiguous
    /// profile ranges on the configured workers.
    fn initialize(&mut self) {
        let n = self.checked.len();
        let par = self.list.parallelism();
        let (blocks, index, scheme) = (&self.blocks, &self.index, self.scheme);
        // Work-stealing chunks with one accumulator per worker; each
        // chunk's shard is a pure function of its profile range, so
        // concatenating in chunk order is independent of which worker ran
        // what.
        let shards: Vec<InitShard> = par.steal_chunks(
            n,
            sper_blocking::STEAL_MIN_CHUNK,
            || WeightAccumulator::new(n),
            |acc, range, _chunk| {
                init_range(
                    blocks,
                    index,
                    scheme,
                    range.start as u32..range.end as u32,
                    acc,
                )
            },
        );
        // Concatenating in chunk order restores the sequential profile
        // order of both outputs.
        let mut likelihood: Vec<(ProfileId, f64)> = Vec::with_capacity(n);
        let mut tops: Vec<Comparison> = Vec::new();
        for (l, t) in shards {
            likelihood.extend(l);
            tops.extend(t);
        }

        likelihood.sort_by(weight_desc);
        self.sorted_profiles = likelihood.into_iter().map(|(p, _)| p).collect();

        // Deduplicate the per-profile top comparisons (a pair can be the
        // top of both endpoints, with the same symmetric weight).
        let top_comparisons: HashMap<Pair, f64> =
            tops.into_iter().map(|c| (c.pair, c.weight)).collect();
        let batch: Vec<Comparison> = top_comparisons
            .into_iter()
            .map(|(pair, w)| Comparison::new(pair, w))
            .collect();
        self.list.refill([batch]);
    }

    /// Algorithm 6 lines 4–19: schedule the next profile and gather its
    /// `Kmax` best comparisons among unchecked neighbors.
    fn fill_from_next_profile(&mut self) -> bool {
        while self.profile_cursor < self.sorted_profiles.len() {
            let i = self.sorted_profiles[self.profile_cursor];
            self.profile_cursor += 1;
            self.checked[i.index()] = true;

            self.acc.sweep(
                &self.blocks,
                &self.index,
                self.scheme,
                i,
                Some(&self.checked),
            );
            if self.acc.is_empty() {
                continue;
            }
            let mut batch: Vec<Comparison> = Vec::with_capacity(self.acc.touched().len());
            for t in 0..self.acc.touched().len() {
                let j = ProfileId(self.acc.touched()[t]);
                let w = self.acc.finalize(&self.index, self.scheme, i, j);
                batch.push(Comparison::new(Pair::new(i, j), w));
            }
            self.acc.reset();
            // SortedStack semantics: keep only the Kmax best, selected
            // rather than sorted — the Comparison List orders them.
            if batch.len() > self.kmax {
                batch.select_nth_unstable_by(self.kmax, crate::emission_order);
                batch.truncate(self.kmax);
            }
            self.list.refill([batch]);
            return true;
        }
        false
    }

    /// The Sorted Profile List (for inspection/tests).
    pub fn sorted_profile_list(&self) -> &[ProfileId] {
        &self.sorted_profiles
    }

    /// `Kmax` in use.
    pub fn kmax(&self) -> usize {
        self.kmax
    }
}

impl Iterator for Pps {
    type Item = Comparison;

    /// Emission phase (Algorithm 6).
    fn next(&mut self) -> Option<Comparison> {
        loop {
            if let Some(c) = self.list.remove_first() {
                return Some(c);
            }
            if !self.fill_from_next_profile() {
                return None;
            }
        }
    }
}

impl ProgressiveEr for Pps {
    fn method_name(&self) -> &'static str {
        "PPS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::fixtures::{fig3_ground_truth, fig3_profiles};
    use sper_blocking::TokenBlocking;
    use sper_model::ProfileCollectionBuilder;
    use std::collections::HashSet;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    /// PPS over the raw Fig. 3(b) blocks, matching Example 6 / Fig. 8.
    fn fig3_pps(kmax: usize) -> Pps {
        let blocks = TokenBlocking::default().build(&fig3_profiles());
        Pps::from_blocks(blocks, WeightingScheme::Arcs, kmax)
    }

    #[test]
    fn fig8a_initial_comparison_list() {
        // Fig. 8(a): the initialization emits the per-node top comparisons
        // in decreasing weight: c45 (2.07), then c12 (1.57), then c23
        // (0.57), then p6's best (0.23).
        let mut pps = fig3_pps(2);
        let first = pps.next().unwrap();
        assert_eq!(first.pair, Pair::new(pid(3), pid(4)), "c45 first");
        assert!((first.weight - (2.0 + 1.0 / 15.0)).abs() < 1e-9);
        let second = pps.next().unwrap();
        assert_eq!(second.pair, Pair::new(pid(0), pid(1)), "c12 second");
    }

    #[test]
    fn fig8b_sorted_profile_list_orders_duplicated_profiles_first() {
        // Fig. 8(b): the teachers (p4, p5) and the Carls (p1, p2) lead; the
        // non-duplicated p6 comes last.
        let pps = fig3_pps(2);
        let order = pps.sorted_profile_list();
        assert_eq!(order.len(), 6);
        assert_eq!(
            *order.last().unwrap(),
            pid(5),
            "p6 has the lowest likelihood"
        );
        // The top-4 are exactly the two duplicate groups' leaders.
        let top4: HashSet<ProfileId> = order[..4].iter().copied().collect();
        assert_eq!(top4, [pid(0), pid(1), pid(3), pid(4)].into_iter().collect());
    }

    #[test]
    fn fig8d_checked_entities_suppress_processed_neighbors() {
        // Drain the 4 init emissions, then the first scheduled profile's
        // batch must not pair it with an already-checked profile.
        let mut pps = fig3_pps(2);
        for _ in 0..4 {
            assert!(pps.next().is_some());
        }
        let first_scheduled = pps.sorted_profile_list()[0];
        // Next emission comes from the first scheduled profile; none of its
        // comparisons may involve itself as an already-checked partner —
        // and subsequent batches must never re-pair with checked entities.
        let mut checked: HashSet<ProfileId> = HashSet::new();
        checked.insert(first_scheduled);
        // Remaining emissions.
        let rest: Vec<Comparison> = pps.collect();
        // The pairs from later profiles never touch earlier-checked ones
        // (beyond the profile scheduling them).
        // Reconstruct scheduling: emissions come in batches per profile in
        // sorted order; verifying the global invariant: each pair contains
        // at least one endpoint that was unchecked when emitted is implicit;
        // here we check the weaker, deterministic property that no pair is
        // emitted twice after initialization.
        let mut seen = HashSet::new();
        for c in &rest {
            assert!(seen.insert(c.pair), "repeat after init: {c:?}");
        }
    }

    #[test]
    fn kmax_caps_per_profile_emissions() {
        let total_k1: usize = fig3_pps(1).count();
        let total_k5: usize = fig3_pps(5).count();
        assert!(total_k1 < total_k5);
    }

    #[test]
    fn early_emissions_are_matches() {
        let truth = fig3_ground_truth();
        let first3: Vec<Comparison> = fig3_pps(2).take(3).collect();
        let hits = first3
            .iter()
            .filter(|c| truth.is_match_pair(c.pair))
            .count();
        assert!(hits >= 2, "PPS should front-load matches: {first3:?}");
    }

    #[test]
    fn full_workflow_constructor() {
        let profiles = fig3_profiles();
        let pps = Pps::new(&profiles, WeightingScheme::Arcs);
        assert!(pps.count() > 0);
    }

    #[test]
    fn clean_clean_valid_pairs_only() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("t", "acme corp ltd")]);
        b.add_profile([("t", "zenith inc co")]);
        b.start_second_source();
        b.add_profile([("t", "acme corporation ltd")]);
        b.add_profile([("t", "zenith incorporated co")]);
        let coll = b.build();
        let pps = Pps::new(&coll, WeightingScheme::Arcs);
        for c in pps {
            assert!(coll.is_valid_comparison(c.pair.first, c.pair.second));
        }
    }

    #[test]
    fn empty_input_terminates() {
        let coll = ProfileCollectionBuilder::dirty().build();
        let mut pps = Pps::new(&coll, WeightingScheme::Arcs);
        assert!(pps.next().is_none());
    }

    #[test]
    #[should_panic(expected = "kmax")]
    fn zero_kmax_panics() {
        fig3_pps(0);
    }

    #[test]
    fn duplication_likelihood_agrees_with_materialized_graph() {
        // The lazy accumulation must equal the BlockingGraph reference.
        use sper_blocking::BlockingGraph;
        let blocks = TokenBlocking::default().build(&fig3_profiles());
        let graph = BlockingGraph::build(&blocks, WeightingScheme::Arcs, Parallelism::SEQUENTIAL);
        let pps = Pps::from_blocks(blocks, WeightingScheme::Arcs, 2);
        // Reconstruct likelihood order from the graph and compare.
        let mut expected: Vec<(ProfileId, f64)> = (0..6)
            .map(|i| (pid(i), graph.duplication_likelihood(pid(i))))
            .collect();
        expected.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        let expected_order: Vec<ProfileId> = expected.into_iter().map(|(p, _)| p).collect();
        assert_eq!(pps.sorted_profile_list(), expected_order.as_slice());
    }
}
