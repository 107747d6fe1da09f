//! Schema-agnostic Standard Blocking, a.k.a. Token Blocking (§3, \[7\], \[18\]).
//!
//! Creates one block per distinct attribute-value token that stems from at
//! least two profiles (Dirty ER) or from both sources (Clean-clean ER) —
//! disregarding attribute names entirely, which is what makes the approach
//! schema-agnostic.
//!
//! The build is fully interned and packs its CSR arrays directly:
//!
//! 1. **Tokenize and intern** (`blocking.tokenize`, plus
//!    `blocking.publish` on several workers): every profile's distinct
//!    token ids (`tokenize_profiles`).
//! 2. **Sort** (`blocking.token_sort`): one counting pass gives each token
//!    its member count and `P1` member count; the tokens that yield a
//!    comparison are the blocks, sorted by key string (an 8-byte prefix
//!    first: [`TokenInterner::sort_by_str`]).
//! 3. **Pack** (`blocking.token_pack`): a prefix sum over the kept tokens
//!    gives the block offsets, and one pass in profile order scatters each
//!    profile into its blocks — so every block is born deduplicated,
//!    ascending and source-partitioned (profiles are visited in id order
//!    with all `P1` profiles before `P2`, the `ProfileCollection`
//!    invariant).
//!
//! Output order (lexicographic by key) and contents are identical to the
//! historical string-keyed build, at every worker count.

use crate::block::{cardinality_of, prefix_offsets, BlockCollection};
use crate::parallel::{Parallelism, STEAL_MIN_CHUNK};
use sper_model::{Profile, ProfileCollection, ProfileId};
use sper_text::{TokenId, TokenInterner, Tokenizer, Vocabulary};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Every profile's distinct token ids, in profile order, as one CSR per
/// contiguous profile range (a tokenize chunk).
pub(crate) struct ProfileTokens {
    chunks: Vec<TokenChunk>,
}

/// The distinct token ids of profiles `start..start + offsets.len() - 1`:
/// profile `start + i` has `ids[offsets[i]..offsets[i + 1]]`.
struct TokenChunk {
    start: usize,
    offsets: Vec<u32>,
    ids: Vec<TokenId>,
}

impl ProfileTokens {
    /// `(profile, its distinct token ids)` in profile order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ProfileId, &[TokenId])> + '_ {
        self.chunks.iter().flat_map(|c| {
            c.offsets.windows(2).enumerate().map(move |(i, w)| {
                (
                    ProfileId((c.start + i) as u32),
                    &c.ids[w[0] as usize..w[1] as usize],
                )
            })
        })
    }
}

/// Tokenizes `profiles` into `vocab`, one distinct-id list per profile.
fn tokenize_range(profiles: &[Profile], start: usize, vocab: &mut Vocabulary) -> TokenChunk {
    let mut offsets = Vec::with_capacity(profiles.len() + 1);
    offsets.push(0u32);
    let mut ids = Vec::new();
    let mut own = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        debug_assert_eq!(p.id.index(), start + i, "profile ids are dense");
        own.clear();
        for attr in &p.attributes {
            Tokenizer.tokenize_ids_with(&attr.value, vocab, &mut own);
        }
        // A profile enters each token's block once, however many of its
        // attributes repeat the token.
        own.sort_unstable();
        own.dedup();
        ids.extend_from_slice(&own);
        offsets.push(u32::try_from(ids.len()).expect("fewer than 2^32 placements"));
    }
    TokenChunk {
        start,
        offsets,
        ids,
    }
}

/// Tokenizes every profile into ids of `interner` on up to `par` workers
/// — the first phase of Token Blocking and of the Neighbor List.
///
/// A lone worker interns straight into the shared vocabulary under one
/// write lock. Several workers steal profile chunks, and each interns
/// into a vocabulary of its own, lock-free; then the chunks' new tokens
/// are published into the shared vocabulary in chunk order and every
/// chunk's ids are remapped. A worker claims chunks in increasing order,
/// so a token new to its vocabulary in chunk `c` occurs in no earlier
/// chunk it ran, and every token appears in the published lists no later
/// than the chunk holding its first occurrence, in occurrence order: the
/// ids are the one-worker ids at every worker count. Each worker's
/// vocabulary is dropped when its steal loop ends; the strings it
/// allocated move into the shared vocabulary.
pub(crate) fn tokenize_profiles(
    profiles: &[Profile],
    interner: &TokenInterner,
    par: Parallelism,
) -> ProfileTokens {
    let mut span = sper_obs::span!("blocking.tokenize", profiles = profiles.len());
    if par.is_sequential() {
        let chunk = interner.with_vocabulary(|vocab| tokenize_range(profiles, 0, vocab));
        return ProfileTokens {
            chunks: vec![chunk],
        };
    }
    let workers = AtomicUsize::new(0);
    let mut chunks = par.steal_chunks(
        profiles.len(),
        STEAL_MIN_CHUNK,
        || (workers.fetch_add(1, Ordering::Relaxed), Vocabulary::new()),
        |(worker, vocab), range| {
            let known = vocab.len();
            let chunk = tokenize_range(&profiles[range.clone()], range.start, vocab);
            (*worker, vocab.strings()[known..].to_vec(), chunk)
        },
    );
    span.record("chunks", chunks.len());
    drop(span);

    let _span = sper_obs::span!("blocking.publish", chunks = chunks.len());
    // `remaps[w][local]`: the shared id of worker `w`'s local id.
    let mut remaps: Vec<Vec<TokenId>> = vec![Vec::new(); workers.into_inner()];
    interner.with_vocabulary(|shared| {
        for (worker, fresh, _) in &mut chunks {
            remaps[*worker].extend(fresh.drain(..).map(|s| shared.intern_shared(s)));
        }
    });
    par.for_each_mut(&mut chunks, |(worker, _, chunk)| {
        let remap = &remaps[*worker];
        for id in &mut chunk.ids {
            *id = remap[id.index()];
        }
    });
    ProfileTokens {
        chunks: chunks.into_iter().map(|(_, _, chunk)| chunk).collect(),
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
        let tokens = tokenize_profiles(all, &interner, par);

        let sort_span = sper_obs::span!("blocking.token_sort");
        let kind = profiles.kind();
        // Member counts per token: `P1` members, then all members.
        let mut firsts = vec![0u32; interner.len()];
        let mut profile_tokens = tokens.iter();
        for (_, ids) in profile_tokens.by_ref().take(profiles.len_first()) {
            for id in ids {
                firsts[id.index()] += 1;
            }
        }
        let mut sizes = firsts.clone();
        for (_, ids) in profile_tokens {
            for id in ids {
                sizes[id.index()] += 1;
            }
        }
        let mut keys: Vec<TokenId> = (0..sizes.len() as u32)
            .map(TokenId)
            .filter(|t| cardinality_of(kind, sizes[t.index()] as usize, firsts[t.index()]) > 0)
            .collect();
        // Deterministic lexicographic order, independent of interning order.
        interner.sort_by_str(&mut keys, |k| k);
        drop(sort_span);

        let _pack_span = sper_obs::span!("blocking.token_pack", blocks = keys.len());
        let offsets = prefix_offsets(&keys.iter().map(|k| sizes[k.index()]).collect::<Vec<_>>());
        let n_firsts: Vec<u32> = keys.iter().map(|k| firsts[k.index()]).collect();
        // `cursor[token]`: the next free member slot of the token's block
        // (`u32::MAX` for a token without one).
        let mut cursor = sizes;
        cursor.fill(u32::MAX);
        for (k, &start) in keys.iter().zip(&offsets) {
            cursor[k.index()] = start;
        }
        let mut members = vec![ProfileId(0); *offsets.last().expect("offsets start at 0") as usize];
        for (p, ids) in tokens.iter() {
            for id in ids {
                let at = &mut cursor[id.index()];
                if *at != u32::MAX {
                    members[*at as usize] = p;
                    *at += 1;
                }
            }
        }
        span.record("blocks", keys.len());
        BlockCollection::from_raw_parts(
            kind,
            profiles.len(),
            interner,
            keys,
            offsets,
            members,
            n_firsts,
        )
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
    fn key_order_is_string_order_not_id_order() {
        // Intern in reverse-alphabetical order: ids disagree with strings.
        let interner = TokenInterner::shared();
        for key in ["zeta", "white", "alpha"] {
            interner.intern(key);
        }
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("n", "alpha white zeta")]);
        b.add_profile([("n", "zeta white alpha")]);
        let blocks =
            TokenBlocking.build_with_interner(&b.build(), interner, Parallelism::SEQUENTIAL);
        let keys: Vec<String> = blocks.iter().map(|b| b.key_str().to_string()).collect();
        assert_eq!(keys, ["alpha", "white", "zeta"]);
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
