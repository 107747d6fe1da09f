//! The string-keyed reference implementations that the interned columnar
//! core replaced.
//!
//! Kept (not dead code) as the oracle of the equivalence suites: the
//! property tests and walls of `sper-blocking` (`interned_equivalence.rs`,
//! `parallel_equivalence.rs`, `weighting_equivalence.rs`), `sper-core`
//! (`emission_equivalence.rs`) and the CLI's snapshot test assert that the
//! interned/CSR pipeline, the blocking graph built on the
//! sparse-accumulator kernel and the progressive methods are
//! observationally identical to these seed semantics: same blocks, same
//! edge weights and order, same Neighbor List.
//!
//! Nothing in the production pipeline calls into this module.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sper_model::{ErKind, Pair, ProfileCollection, ProfileId, SourceId};
use sper_text::{FxHashSet, Tokenizer};
use std::collections::HashMap;

use crate::block::BlockCollection;
use crate::profile_index::ProfileIndex;
use crate::weights::WeightingScheme;

/// A string-keyed block: the pre-interning representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringBlock {
    /// The blocking key, owned.
    pub key: String,
    /// Members, `P1` partition first, each partition ascending.
    pub members: Vec<ProfileId>,
    /// `|b ∩ P1|`.
    pub n_first: u32,
}

impl StringBlock {
    fn new(key: String, members: Vec<(ProfileId, SourceId)>) -> Self {
        let mut firsts: Vec<ProfileId> = Vec::new();
        let mut seconds: Vec<ProfileId> = Vec::new();
        for (p, s) in members {
            if s == SourceId::FIRST {
                firsts.push(p);
            } else {
                seconds.push(p);
            }
        }
        firsts.sort_unstable();
        firsts.dedup();
        seconds.sort_unstable();
        seconds.dedup();
        let n_first = firsts.len() as u32;
        firsts.extend(seconds);
        Self {
            key,
            members: firsts,
            n_first,
        }
    }

    /// `‖b‖` under `kind`.
    pub fn cardinality(&self, kind: ErKind) -> u64 {
        crate::block::cardinality_of(kind, self.members.len(), self.n_first)
    }
}

/// The seed's Token Blocking: `HashMap<String, Vec<members>>` with one
/// owned `String` per token per profile, output sorted by key.
pub fn string_token_blocking(profiles: &ProfileCollection) -> Vec<StringBlock> {
    let tokenizer = Tokenizer;
    let mut index: HashMap<String, Vec<(ProfileId, SourceId)>> = HashMap::new();
    let mut tokens: Vec<String> = Vec::new();
    for p in profiles.iter() {
        tokens.clear();
        for attr in &p.attributes {
            tokenizer.tokenize_into(&attr.value, &mut tokens);
        }
        tokens.sort_unstable();
        tokens.dedup();
        for tok in &tokens {
            index.entry(tok.clone()).or_default().push((p.id, p.source));
        }
    }
    let kind = profiles.kind();
    let mut blocks: Vec<StringBlock> = index
        .into_iter()
        .map(|(key, members)| StringBlock::new(key, members))
        .filter(|b| b.cardinality(kind) > 0)
        .collect();
    blocks.sort_by(|a, b| a.key.cmp(&b.key));
    blocks
}

/// The seed's per-profile block lists over string-keyed blocks (block id =
/// position in the key-sorted `blocks` slice), for reference weighting.
pub fn string_block_lists(blocks: &[StringBlock], n_profiles: usize) -> Vec<Vec<u32>> {
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_profiles];
    for (bid, block) in blocks.iter().enumerate() {
        for &p in &block.members {
            lists[p.index()].push(bid as u32);
        }
    }
    lists
}

/// Reference edge weight computed naively from string-keyed block lists
/// (set intersection, no merge fusion) — the semantics every fast path
/// must reproduce bit-for-bit.
pub fn string_weight(
    blocks: &[StringBlock],
    lists: &[Vec<u32>],
    kind: ErKind,
    i: ProfileId,
    j: ProfileId,
    scheme: WeightingScheme,
) -> f64 {
    let (a, b) = (&lists[i.index()], &lists[j.index()]);
    let shared: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
    let acc: f64 = shared
        .iter()
        .map(|&bid| scheme.per_block(blocks[bid as usize].cardinality(kind)))
        .sum();
    scheme.finalize(acc, a.len(), b.len(), blocks.len())
}

/// The pre-kernel edge-list builder: visit every comparison of every
/// block, dedup repeats through a hashed `seen` set, and merge-intersect
/// the two profiles' block lists per new pair (`O(|B_i| + |B_j|)` each).
///
/// This was `BlockingGraph::build` until the sparse-accumulator kernel
/// ([`crate::spacc`]) replaced it; it is kept as the order-and-weight
/// reference [`crate::BlockingGraph::build`] is property-tested against.
/// Its edges come out in (least common block, pair) order: each pair at
/// the first block, in id order, that both profiles share.
pub fn legacy_graph_edges(blocks: &BlockCollection, scheme: WeightingScheme) -> Vec<(Pair, f64)> {
    let index = ProfileIndex::build(blocks);
    let kind = blocks.kind();
    let mut seen: FxHashSet<Pair> = FxHashSet::default();
    let mut edges: Vec<(Pair, f64)> = Vec::new();
    for block in blocks.iter() {
        for pair in block.comparisons(kind) {
            if seen.insert(pair) {
                let w = index.weight(pair.first, pair.second, scheme);
                edges.push((pair, w));
            }
        }
    }
    edges
}

/// The seed's Neighbor List build: string placements, stable string sort,
/// one RNG threaded through the equal-key runs. Returns the list and (for
/// inspection) the key of every position.
pub fn string_neighbor_list(
    profiles: &ProfileCollection,
    seed: u64,
) -> (Vec<ProfileId>, Vec<String>) {
    let tokenizer = Tokenizer;
    let mut placements: Vec<(String, ProfileId)> = Vec::new();
    for p in profiles.iter() {
        let mut toks = Vec::new();
        for attr in &p.attributes {
            tokenizer.tokenize_into(&attr.value, &mut toks);
        }
        toks.sort_unstable();
        toks.dedup();
        for t in toks {
            placements.push((t, p.id));
        }
    }
    placements.sort_by(|a, b| a.0.cmp(&b.0));
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
    let nl = placements.iter().map(|&(_, p)| p).collect();
    let keys = placements.into_iter().map(|(k, _)| k).collect();
    (nl, keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;

    #[test]
    fn legacy_fig3_blocks() {
        let blocks = string_token_blocking(&fig3_profiles());
        let keys: Vec<&str> = blocks.iter().map(|b| b.key.as_str()).collect();
        assert_eq!(keys, vec!["carl", "ml", "ny", "tailor", "teacher", "white"]);
    }

    #[test]
    fn legacy_neighbor_list_is_sorted() {
        let (nl, keys) = string_neighbor_list(&fig3_profiles(), 7);
        assert_eq!(nl.len(), 24);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
