//! Schema-agnostic Standard Blocking, a.k.a. Token Blocking (§3, \[7\], \[18\]).
//!
//! Creates one block per distinct attribute-value token that stems from at
//! least two profiles (Dirty ER) or from both sources (Clean-clean ER) —
//! disregarding attribute names entirely, which is what makes the approach
//! schema-agnostic.
//!
//! The build is fully interned: tokens go straight from the normalization
//! buffer into [`TokenId`]s (no per-token `String`), per-profile dedup is a
//! `u32` sort, and the token → members index is a flat `Vec` indexed by id
//! instead of a string-keyed hash map. Output order (lexicographic by key)
//! and contents are identical to the historical string-keyed build.
//!
//! With several workers, each indexes one contiguous profile range and the
//! per-range indexes are concatenated bucket by bucket in range order —
//! which is profile order, so every merged bucket is exactly the one the
//! single-range loop builds.

use crate::block::{Block, BlockCollection};
use crate::parallel::Parallelism;
use sper_model::{Profile, ProfileCollection, ProfileId};
use sper_text::{FxHashMap, TokenId, TokenInterner, Tokenizer};
use std::sync::Arc;

/// Tokenizes profiles into interned ids for one worker of a blocking
/// fan-out (Token Blocking, the Neighbor List).
///
/// A lone worker interns every token directly — one interner lookup per
/// token. Concurrent workers would contend on the shared interner's lock
/// for every occurrence of Zipfian token traffic, so each keeps a local
/// token → id cache and touches the interner once per distinct token.
/// Ids are the same either way; only their assignment order differs, and
/// no output depends on it.
pub(crate) struct ProfileTokenizer<'a> {
    tokenizer: &'a Tokenizer,
    interner: &'a TokenInterner,
    cache: Option<FxHashMap<Box<str>, TokenId>>,
}

impl<'a> ProfileTokenizer<'a> {
    /// A tokenizer for one of `par` concurrent workers.
    pub(crate) fn new(
        tokenizer: &'a Tokenizer,
        interner: &'a TokenInterner,
        par: Parallelism,
    ) -> Self {
        Self {
            tokenizer,
            interner,
            cache: (!par.is_sequential()).then(FxHashMap::default),
        }
    }

    /// Appends the ids of every token of `p` to `ids` (not cleared, not
    /// deduplicated).
    pub(crate) fn tokenize(&mut self, p: &Profile, ids: &mut Vec<TokenId>) {
        let Self {
            tokenizer,
            interner,
            cache,
        } = self;
        for attr in &p.attributes {
            match cache {
                None => tokenizer.tokenize_ids_into(&attr.value, interner, ids),
                Some(cache) => tokenizer.for_each_token(&attr.value, |tok| {
                    let id = match cache.get(tok) {
                        Some(&id) => id,
                        None => {
                            let id = interner.intern(tok);
                            cache.insert(Box::from(tok), id);
                            id
                        }
                    };
                    ids.push(id);
                }),
            }
        }
    }
}

/// Token Blocking builder.
#[derive(Debug, Clone, Default)]
pub struct TokenBlocking;

impl TokenBlocking {
    /// Builds the block collection for `profiles` with a fresh interner on
    /// the calling thread.
    ///
    /// Blocks that cannot yield a valid comparison are dropped: singleton
    /// blocks in Dirty ER, single-source blocks in Clean-clean ER.
    pub fn build(&self, profiles: &ProfileCollection) -> BlockCollection {
        self.par_build(profiles, Parallelism::SEQUENTIAL)
    }

    /// [`Self::build`] on up to `par` workers. The request passes the
    /// spawn break-even guard ([`Parallelism::break_even`]) on the profile
    /// count; the result is identical at every worker count.
    pub fn par_build(&self, profiles: &ProfileCollection, par: Parallelism) -> BlockCollection {
        self.build_with_interner(profiles, TokenInterner::shared(), par)
    }

    /// Like [`Self::par_build`] with an existing (possibly shared) interner
    /// — ids already interned elsewhere are reused, new tokens append.
    pub fn build_with_interner(
        &self,
        profiles: &ProfileCollection,
        interner: Arc<TokenInterner>,
        par: Parallelism,
    ) -> BlockCollection {
        let all = profiles.profiles();
        let par = par.break_even(all.len());
        let mut span = sper_obs::span!(
            "blocking.token_build",
            profiles = all.len(),
            threads = par.get(),
        );
        // One contiguous profile range per worker, each indexed on its own:
        // token id → member profile ids, flat-indexed and grown as the
        // vocabulary grows. Profiles are visited in id order with all P1
        // profiles before P2 (the ProfileCollection invariant), so every
        // bucket is born deduplicated, ascending and source-partitioned.
        let per_worker = all.len().div_ceil(par.capped(all.len()).get());
        let indexes = par.steal_chunks(
            all.len(),
            per_worker,
            || ProfileTokenizer::new(&Tokenizer, &interner, par),
            |tokens, range| {
                let mut index: Vec<Vec<ProfileId>> = Vec::new();
                let mut ids: Vec<TokenId> = Vec::new();
                for p in &all[range] {
                    ids.clear();
                    tokens.tokenize(p, &mut ids);
                    // A profile enters each token block once, regardless of
                    // how many attributes repeat the token. All of this
                    // profile's pushes happen now, so a repeated token's
                    // bucket already ends with this profile — no sort.
                    if index.len() < interner.len() {
                        index.resize_with(interner.len(), Vec::new);
                    }
                    for &tok in &ids {
                        let bucket = &mut index[tok.index()];
                        if bucket.last() != Some(&p.id) {
                            bucket.push(p.id);
                        }
                    }
                }
                index
            },
        );
        // Concatenate the range indexes bucket by bucket in range order
        // (a single range passes through untouched).
        let mut indexes = indexes.into_iter();
        let mut index = indexes.next().unwrap_or_default();
        for other in indexes {
            if index.len() < other.len() {
                index.resize_with(other.len(), Vec::new);
            }
            for (bucket, members) in index.iter_mut().zip(other) {
                if bucket.is_empty() {
                    *bucket = members;
                } else {
                    bucket.extend(members);
                }
            }
        }

        let kind = profiles.kind();
        // First id of `P2`; every member below it belongs to `P1`.
        let boundary = ProfileId(profiles.len_first() as u32);
        let blocks: Vec<Block> = index
            .into_iter()
            .enumerate()
            .filter(|(_, members)| !members.is_empty())
            .map(|(id, members)| {
                let n_first = members.partition_point(|&p| p < boundary) as u32;
                Block::from_partitioned(TokenId(id as u32), members, n_first)
            })
            .filter(|b| b.cardinality(kind) > 0)
            .collect();
        let mut coll = BlockCollection::new(kind, profiles.len(), interner, blocks);
        // Deterministic lexicographic order, independent of interning order.
        coll.sort_by_key_str();
        span.record("blocks", coll.len());
        coll
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sper_model::ProfileCollectionBuilder;

    pub(crate) use crate::fixtures::fig3_profiles;

    #[test]
    fn fig3_token_blocks() {
        let coll = fig3_profiles();
        let blocks = TokenBlocking.build(&coll);
        let find = |key: &str| {
            blocks
                .iter()
                .find(|b| &*b.key_str() == key)
                .unwrap_or_else(|| panic!("missing block {key}"))
        };
        // Fig. 3(b): carl → {p1,p2}; ny → {p1,p2,p3}; tailor → {p1,p2,p3,p6};
        // ml → {p4,p5}; teacher → {p4,p5}; white → all six.
        assert_eq!(find("carl").size(), 2);
        assert_eq!(find("ny").size(), 3);
        assert_eq!(find("tailor").size(), 4);
        assert_eq!(find("ml").size(), 2);
        assert_eq!(find("teacher").size(), 2);
        assert_eq!(find("white").size(), 6);
        // Singleton tokens (carl_white, ellen, emma, hellen, karl_white,
        // wi) are dropped; exactly the six blocks of Fig. 3(b) remain.
        let mut keys: Vec<String> = blocks.iter().map(|b| b.key_str().to_string()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["carl", "ml", "ny", "tailor", "teacher", "white"]);
    }

    #[test]
    fn profile_enters_block_once() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("a", "white white white")]);
        b.add_profile([("b", "white")]);
        let blocks = TokenBlocking.build(&b.build());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.get(crate::BlockId(0)).size(), 2);
    }

    #[test]
    fn clean_clean_requires_both_sources() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("n", "alpha shared")]);
        b.add_profile([("n", "alpha other")]);
        b.start_second_source();
        b.add_profile([("n", "shared thing")]);
        let coll = b.build();
        let blocks = TokenBlocking.build(&coll);
        // "alpha" appears only in P1 → no block; "shared" spans sources.
        assert!(!blocks.iter().any(|b| &*b.key_str() == "alpha"));
        assert!(blocks.iter().any(|b| &*b.key_str() == "shared"));
    }

    #[test]
    fn deterministic_order() {
        let coll = fig3_profiles();
        let b1 = TokenBlocking.build(&coll);
        let b2 = TokenBlocking.build(&coll);
        let keys1: Vec<String> = b1.iter().map(|b| b.key_str().to_string()).collect();
        let keys2: Vec<String> = b2.iter().map(|b| b.key_str().to_string()).collect();
        assert_eq!(keys1, keys2);
        // Blocks come out in lexicographic key order.
        let mut sorted = keys1.clone();
        sorted.sort_unstable();
        assert_eq!(keys1, sorted);
    }

    #[test]
    fn shared_interner_reuses_ids() {
        let coll = fig3_profiles();
        let interner = TokenInterner::shared();
        let build = |par| TokenBlocking.build_with_interner(&coll, Arc::clone(&interner), par);
        let b1 = build(Parallelism::SEQUENTIAL);
        let b2 = build(Parallelism::new(4).unwrap());
        // Same vocabulary interned once; key ids stable across builds.
        let k1: Vec<_> = b1.iter().map(|b| b.key).collect();
        let k2: Vec<_> = b2.iter().map(|b| b.key).collect();
        assert_eq!(k1, k2);
    }

    #[test]
    fn empty_collection() {
        let coll = ProfileCollectionBuilder::dirty().build();
        let blocks = TokenBlocking.build(&coll);
        assert!(blocks.is_empty());
    }
}
