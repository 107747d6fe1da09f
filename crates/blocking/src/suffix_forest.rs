//! The suffix forest of Suffix Arrays Blocking (§4.2, Fig. 5).
//!
//! Every attribute-value token is converted into all of its suffixes with at
//! least `lmin` characters. Each distinct suffix indexes a block; the
//! blocks form trees (a suffix is the parent of the one-character-longer
//! suffixes ending with it) — one tree per distinct `lmin`-length suffix.
//!
//! SA-PSAB processes the forest *leaves first, root last*: nodes are
//! scheduled by decreasing suffix length (layer) and, within a layer, by
//! increasing number of comparisons (§4.2).
//!
//! Suffixes are interned: each distinct suffix string becomes one
//! [`TokenId`], the suffix → members index is a flat id-indexed `Vec`, and
//! per-profile dedup is a `u32` sort. `SuffixIter` yields borrowed slices,
//! so no suffix ever allocates a `String`.

use crate::block::{Block, BlockCollection};
use sper_model::{ErKind, ProfileCollection, ProfileId, SourceId};
use sper_text::{SuffixIter, TokenId, TokenInterner, Tokenizer};
use std::sync::Arc;

/// One node of the suffix forest: a suffix key with its block of profiles.
#[derive(Debug, Clone)]
pub struct SuffixNode {
    /// The interned suffix this node indexes.
    pub key: TokenId,
    /// Suffix length in characters (= layer; larger is deeper).
    pub suffix_len: u32,
    /// The block of profiles containing a token with this suffix.
    pub block: Block,
}

/// The suffix forest in SA-PSAB processing order.
#[derive(Debug, Clone)]
pub struct SuffixForest {
    kind: ErKind,
    n_profiles: usize,
    interner: Arc<TokenInterner>,
    /// Nodes sorted by (suffix_len desc, cardinality asc, key string asc).
    nodes: Vec<SuffixNode>,
}

impl SuffixForest {
    /// Builds the forest with minimum suffix length `lmin` (SA-PSAB's only
    /// configuration parameter).
    pub fn build(profiles: &ProfileCollection, lmin: usize) -> Self {
        Self::build_with_interner(profiles, lmin, TokenInterner::shared())
    }

    /// Like [`Self::build`] with an existing (possibly shared) interner.
    pub fn build_with_interner(
        profiles: &ProfileCollection,
        lmin: usize,
        interner: Arc<TokenInterner>,
    ) -> Self {
        // suffix id → members, flat-indexed; every suffix is interned under
        // one write lock for the whole build.
        let mut index: Vec<Vec<(ProfileId, SourceId)>> = Vec::new();
        let mut tokens: Vec<String> = Vec::new();
        let mut suffix_ids: Vec<TokenId> = Vec::new();
        interner.with_vocabulary(|vocab| {
            for p in profiles.iter() {
                tokens.clear();
                for attr in &p.attributes {
                    Tokenizer.tokenize_into(&attr.value, &mut tokens);
                }
                tokens.sort_unstable();
                tokens.dedup();
                // Every (profile, suffix) membership is recorded once.
                suffix_ids.clear();
                for t in &tokens {
                    for s in SuffixIter::new(t, lmin) {
                        suffix_ids.push(vocab.intern(s));
                    }
                }
                suffix_ids.sort_unstable();
                suffix_ids.dedup();
                if let Some(&max) = suffix_ids.last() {
                    if max.index() >= index.len() {
                        index.resize_with(max.index() + 1, Vec::new);
                    }
                }
                for &s in &suffix_ids {
                    index[s.index()].push((p.id, p.source));
                }
            }
        });

        let kind = profiles.kind();
        let mut nodes: Vec<SuffixNode> = index
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(id, members)| {
                let key = TokenId(id as u32);
                let suffix_len = interner.resolve(key).chars().count() as u32;
                SuffixNode {
                    block: Block::new(key, members),
                    key,
                    suffix_len,
                }
            })
            .filter(|n| n.block.cardinality(kind) > 0)
            .collect();

        // Leaves first (longest suffixes), then increasing comparisons
        // inside each layer; key string for determinism (interning order
        // must stay unobservable).
        let rank = interner.rank();
        nodes.sort_by(|a, b| {
            b.suffix_len
                .cmp(&a.suffix_len)
                .then_with(|| a.block.cardinality(kind).cmp(&b.block.cardinality(kind)))
                .then_with(|| rank[a.key.index()].cmp(&rank[b.key.index()]))
        });

        Self {
            kind,
            n_profiles: profiles.len(),
            interner,
            nodes,
        }
    }

    /// The task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// The interner resolving the suffix keys.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// The suffix string of a node.
    pub fn key_str(&self, node: &SuffixNode) -> Arc<str> {
        self.interner.resolve(node.key)
    }

    /// Number of nodes (suffix blocks) in processing order.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the forest has no comparable node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in SA-PSAB processing order.
    pub fn nodes(&self) -> &[SuffixNode] {
        &self.nodes
    }

    /// Converts the forest into a plain block collection (processing order
    /// preserved), e.g. to feed block-based analyses.
    pub fn into_block_collection(self) -> BlockCollection {
        let blocks = self.nodes.into_iter().map(|n| n.block).collect();
        BlockCollection::new(self.kind, self.n_profiles, self.interner, blocks)
    }

    /// Total comparisons entailed by the forest (with cross-node repeats).
    pub fn total_comparisons(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.block.cardinality(self.kind))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_model::ProfileCollectionBuilder;

    /// Fig. 5 workload: tokens gain, pain, join, coin across 4 profiles.
    fn fig5_profiles() -> ProfileCollection {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        b.add_profile([("w", "join")]);
        b.add_profile([("w", "coin")]);
        b.build()
    }

    fn keys(forest: &SuffixForest) -> Vec<String> {
        forest
            .nodes()
            .iter()
            .map(|n| forest.key_str(n).to_string())
            .collect()
    }

    #[test]
    fn fig5_suffix_tree_layers() {
        let forest = SuffixForest::build(&fig5_profiles(), 2);
        // Shared suffixes: ain{gain,pain}, oin{join,coin}, in{all 4}.
        // The 4-char suffixes are singletons → dropped.
        assert_eq!(keys(&forest), vec!["ain", "oin", "in"]);
        // Leaves (len 3) come before the root (len 2).
        let lens: Vec<u32> = forest.nodes().iter().map(|n| n.suffix_len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
    }

    #[test]
    fn within_layer_smaller_blocks_first() {
        let mut b = ProfileCollectionBuilder::dirty();
        // "xain" for 3 profiles, "yoin" for 2 → layer-3 nodes: ain(3), oin(2).
        b.add_profile([("w", "xain")]);
        b.add_profile([("w", "zain")]);
        b.add_profile([("w", "qain")]);
        b.add_profile([("w", "yoin")]);
        b.add_profile([("w", "woin")]);
        let forest = SuffixForest::build(&b.build(), 3);
        let layer3: Vec<String> = forest
            .nodes()
            .iter()
            .filter(|n| n.suffix_len == 3)
            .map(|n| forest.key_str(n).to_string())
            .collect();
        assert_eq!(layer3, vec!["oin", "ain"], "smaller node processed first");
    }

    #[test]
    fn whole_tokens_are_their_own_suffix() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("w", "coin")]);
        b.add_profile([("w", "coin")]);
        let forest = SuffixForest::build(&b.build(), 2);
        // coin, oin, in all shared by both profiles.
        assert_eq!(forest.len(), 3);
        assert_eq!(&*forest.key_str(&forest.nodes()[0]), "coin");
        assert_eq!(forest.total_comparisons(), 3);
    }

    #[test]
    fn clean_clean_cross_source_only() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("w", "gain")]);
        b.add_profile([("w", "pain")]);
        b.start_second_source();
        b.add_profile([("w", "rain")]);
        let coll = b.build();
        let forest = SuffixForest::build(&coll, 2);
        for node in forest.nodes() {
            assert!(node.block.cardinality(ErKind::CleanClean) > 0);
        }
        // "ain" spans sources; "in" too.
        assert!(keys(&forest).iter().any(|k| k == "ain"));
    }

    #[test]
    fn into_block_collection_preserves_order() {
        let forest = SuffixForest::build(&fig5_profiles(), 2);
        let expected = keys(&forest);
        let blocks = forest.into_block_collection();
        let got: Vec<String> = blocks.iter().map(|b| b.key_str().to_string()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn profile_once_per_suffix() {
        let mut b = ProfileCollectionBuilder::dirty();
        // "main" and "gain" share the suffixes ain/in; profile 0 has both
        // tokens but must appear once in each suffix block.
        b.add_profile([("w", "main gain")]);
        b.add_profile([("w", "pain")]);
        let forest = SuffixForest::build(&b.build(), 2);
        let ain = forest
            .nodes()
            .iter()
            .find(|n| &*forest.key_str(n) == "ain")
            .unwrap();
        assert_eq!(ain.block.size(), 2);
    }
}
