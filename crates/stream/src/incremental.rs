//! Incremental blocking substrates: the batch substrates of
//! `sper-blocking` (Token Blocking's block collection, the Neighbor List)
//! rebuilt as *updatable* structures supporting `add_profile` /
//! `add_batch` with amortized updates instead of full re-tokenization and
//! re-sorting per epoch. The Profile Index is not among them: PBS and PPS
//! read one built over each epoch's purged and filtered snapshot (§5.2).
//!
//! Both substrates guarantee **batching invariance**: the state after
//! ingesting a collection is a pure function of the final profile set,
//! independent of how the ingest was split into batches (property-tested
//! below). This is what makes the `ProgressiveSession` equivalence to the
//! batch methods possible at all.
//!
//! Both are plain token → members indexes and know nothing of the
//! **mutation model**: the session owns the one retraction mark per
//! profile id and passes it in. [`snapshot`]s filter marked members
//! lazily, and an explicit [`compact`] pass physically drops them. The
//! headline invariant (property-tested below and in
//! `tests/mutation_equivalence.rs`) is that a snapshot taken with the
//! marks — before *or* after compaction — equals the snapshot of a
//! substrate that never ingested the retracted profiles.
//! Ids are never renumbered or recycled: a retracted profile keeps its
//! dense id forever as an empty husk.
//!
//! [`snapshot`]: IncrementalTokenBlocking::snapshot
//! [`compact`]: IncrementalTokenBlocking::compact
//!
//! Both share one append-only [`TokenInterner`] *across epochs*: a token
//! seen in epoch 1 keeps its [`TokenId`] forever, so per-epoch work is
//! `u32`-keyed throughout and snapshots never re-hash token text. The
//! interner's concurrency guarantees make the same sharing safe when
//! ingest and snapshotting move to different threads.

use sper_blocking::block::cardinality_of;
use sper_blocking::{Block, BlockCollection, NeighborList, TokenId, TokenInterner};
use sper_model::{ErKind, Profile, ProfileCollection, ProfileId};
use sper_text::{FxHashMap, Tokenizer};
use std::sync::Arc;

/// Sentinel for "token has no block yet" in the id-indexed block map.
const NO_BLOCK: u32 = u32::MAX;

/// Deterministic 64-bit FNV-1a — used to derive per-run shuffle seeds that
/// are stable across processes and rustc versions (unlike
/// `DefaultHasher`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Updatable schema-agnostic Token Blocking (§3): one block per
/// attribute-value token, maintained under profile appends.
///
/// * [`Self::add_profile`] tokenizes one new profile straight into interned
///   ids and updates the id-indexed block map in `O(|tokens| · log)`
///   amortized — no other profile is touched, no `String` is allocated.
/// * [`Self::snapshot`] materializes a [`BlockCollection`] identical to
///   `TokenBlocking.build(..)` on the current collection (same
///   keys, same members, same key-sorted order), so every downstream
///   consumer (`Pbs::from_blocks`, `Pps::from_blocks`, purging, filtering)
///   works unchanged.
///
/// The live blocks keep *insertion order* (positions stable as blocks are
/// appended); the snapshot re-keys to the batch key-sorted order.
#[derive(Debug, Clone)]
pub struct IncrementalTokenBlocking {
    kind: ErKind,
    n_profiles: usize,
    interner: Arc<TokenInterner>,
    /// token id → insertion-order block position in `blocks` (`NO_BLOCK`
    /// when the token has none yet); flat-indexed, grown with the
    /// vocabulary.
    block_of_token: Vec<u32>,
    /// Blocks in insertion order (including not-yet-comparable singletons).
    blocks: Vec<Block>,
}

impl IncrementalTokenBlocking {
    /// An empty substrate for a task of the given kind, with its own
    /// interner.
    pub fn new(kind: ErKind) -> Self {
        Self {
            kind,
            n_profiles: 0,
            interner: TokenInterner::shared(),
            block_of_token: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Bootstraps from an existing collection (ingests every profile).
    pub fn from_collection(profiles: &ProfileCollection) -> Self {
        let mut this = Self::new(profiles.kind());
        for p in profiles.iter() {
            this.add_profile(p);
        }
        this
    }

    /// The task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// Number of profiles ingested.
    pub fn n_profiles(&self) -> usize {
        self.n_profiles
    }

    /// Number of distinct blocking keys seen (including singleton blocks
    /// the snapshot will drop).
    pub fn n_keys(&self) -> usize {
        self.blocks.len()
    }

    /// The live blocks in insertion order (inspection/tests).
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Ingests one profile. Ids must arrive densely (`0, 1, 2, …`) — the
    /// `ProfileCollection` invariant.
    ///
    /// # Panics
    ///
    /// Panics when `profile.id` is not the next dense id.
    pub fn add_profile(&mut self, profile: &Profile) {
        assert_eq!(
            profile.id.index(),
            self.n_profiles,
            "profiles must be ingested in dense id order"
        );
        self.n_profiles += 1;

        let mut tokens: Vec<TokenId> = Vec::new();
        self.interner.with_vocabulary(|vocab| {
            for attr in &profile.attributes {
                Tokenizer.tokenize_ids_with(&attr.value, vocab, &mut tokens);
            }
        });
        tokens.sort_unstable();
        tokens.dedup();
        if let Some(&max) = tokens.last() {
            if max.index() >= self.block_of_token.len() {
                self.block_of_token.resize(max.index() + 1, NO_BLOCK);
            }
        }

        for tok in tokens {
            match self.block_of_token[tok.index()] {
                NO_BLOCK => {
                    self.block_of_token[tok.index()] = self.blocks.len() as u32;
                    let mut block = Block::new(tok, Vec::new());
                    block.push_member(profile.id, profile.source);
                    self.blocks.push(block);
                }
                id => self.blocks[id as usize].push_member(profile.id, profile.source),
            }
        }
    }

    /// Ingests a batch of profiles.
    pub fn add_batch<'a>(&mut self, profiles: impl IntoIterator<Item = &'a Profile>) {
        for p in profiles {
            self.add_profile(p);
        }
    }

    /// Reassembles a substrate from its live blocks — the inverse of
    /// [`blocks`](Self::blocks), used by the persistence layer
    /// (`sper-store`) to restore checkpoints. The token → block map is
    /// rebuilt from the blocks' keys. Callers must validate untrusted input
    /// first (block keys resolvable by `interner`, members below
    /// `n_profiles`); invariants are only debug-asserted here.
    pub fn from_parts(
        kind: ErKind,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        blocks: Vec<Block>,
    ) -> Self {
        let max_token = blocks.iter().map(|b| b.key.index()).max();
        let mut block_of_token = vec![NO_BLOCK; max_token.map_or(0, |m| m + 1)];
        for (i, b) in blocks.iter().enumerate() {
            debug_assert_eq!(
                block_of_token[b.key.index()],
                NO_BLOCK,
                "one block per token"
            );
            block_of_token[b.key.index()] = i as u32;
        }
        Self {
            kind,
            n_profiles,
            interner,
            block_of_token,
            blocks,
        }
    }

    /// Physically drops every member marked in `retracted` (indexed by
    /// profile id): filters the blocks, drops the ones left empty,
    /// renumbers the insertion-order block positions (relative order
    /// preserved), and rebuilds the token → block map over them.
    ///
    /// Renumbering is invisible to every read path: snapshots re-key to
    /// key-sorted order anyway. Post-compaction, the substrate is
    /// member-for-member identical to one that never ingested the
    /// retracted profiles.
    pub fn compact(&mut self, retracted: &[bool]) {
        let old_blocks = std::mem::take(&mut self.blocks);
        for slot in &mut self.block_of_token {
            *slot = NO_BLOCK;
        }
        let mut blocks = Vec::with_capacity(old_blocks.len());
        for mut block in old_blocks {
            if block.profiles().iter().any(|p| retracted[p.index()]) {
                let Some(filtered) = filter_block(&block, retracted) else {
                    continue;
                };
                block = filtered;
            }
            self.block_of_token[block.key.index()] = blocks.len() as u32;
            blocks.push(block);
        }
        self.blocks = blocks;
    }

    /// Materializes the current blocks as a batch-identical
    /// [`BlockCollection`]: comparable blocks only, sorted by key string —
    /// exactly what `TokenBlocking.build(..)` produces on the
    /// same collection. Members marked in `retracted` (indexed by profile
    /// id) are filtered out lazily, so the snapshot is the same whether
    /// [`Self::compact`] already ran or not; `None` — nothing left to
    /// drop — skips the per-member lookups.
    ///
    /// One pass over the live blocks counts each block's surviving `P1`
    /// and `P2` members and selects the comparable ones; the selection is
    /// ordered by the interner's rank table (a `u32` per key) and packed
    /// straight from the live blocks.
    pub fn snapshot(&self, retracted: Option<&[bool]>) -> BlockCollection {
        let mut span = sper_obs::span!("blocking.token_snapshot", live_blocks = self.blocks.len());
        let live = |p: &&ProfileId| retracted.is_none_or(|r| !r[p.index()]);
        let rank = self.interner.rank();
        // (key rank, live block position, surviving P1 members)
        let mut selected: Vec<(u32, u32, u32)> = Vec::new();
        let mut total = 0;
        for (i, b) in self.blocks.iter().enumerate() {
            let n_first = b.first_source().iter().filter(live).count() as u32;
            let size = n_first as usize + b.second_source().iter().filter(live).count();
            if cardinality_of(self.kind, size, n_first) > 0 {
                selected.push((rank[b.key.index()], i as u32, n_first));
                total += size;
            }
        }
        // Keys are distinct, so their ranks are too: no ties.
        selected.sort_unstable_by_key(|&(r, ..)| r);
        let mut keys = Vec::with_capacity(selected.len());
        let mut offsets = Vec::with_capacity(selected.len() + 1);
        let mut members = Vec::with_capacity(total);
        let mut n_firsts = Vec::with_capacity(selected.len());
        offsets.push(0u32);
        for &(_, i, n_first) in &selected {
            let b = &self.blocks[i as usize];
            keys.push(b.key);
            n_firsts.push(n_first);
            members.extend(b.profiles().iter().filter(live));
            offsets.push(u32::try_from(members.len()).expect("CSR array exceeds u32::MAX entries"));
        }
        span.record("blocks", keys.len());
        BlockCollection::from_raw_parts(
            self.kind,
            self.n_profiles,
            Arc::clone(&self.interner),
            keys,
            offsets,
            members,
            n_firsts,
        )
    }
}

/// `block` without its retracted members (`None` when nothing survives)
/// — compaction's rewrite of a block that lost members. Partition order
/// is preserved, so the result is a valid partitioned-ascending block over
/// the survivors.
fn filter_block(block: &Block, retracted: &[bool]) -> Option<Block> {
    let live_first = block
        .first_source()
        .iter()
        .filter(|p| !retracted[p.index()])
        .count() as u32;
    let members: Vec<ProfileId> = block
        .profiles()
        .iter()
        .copied()
        .filter(|p| !retracted[p.index()])
        .collect();
    if members.is_empty() {
        return None;
    }
    Some(Block::from_partitioned(block.key, members, live_first))
}

/// One equal-key run of the incremental Neighbor List.
#[derive(Debug, Clone, Default)]
struct Run {
    /// Members in ascending id order (insertion order under streaming).
    members: Vec<ProfileId>,
    /// Cached coincidental-proximity permutation of the live members.
    order: Vec<ProfileId>,
    /// Whether the run gained members since `order` was drawn.
    dirty: bool,
    /// Retracted members among `members` when `order` was drawn.
    dead: usize,
}

impl Run {
    /// Redraws `order` over the members not marked in `retracted` (all of
    /// them for `None`), with the run's seed `seed ^ fnv1a(key)` — the one
    /// shuffle site of the list. A run of fewer than two live members has
    /// nothing to permute and skips the key lookup.
    fn redraw(
        &mut self,
        key: TokenId,
        seed: u64,
        interner: &TokenInterner,
        retracted: Option<&[bool]>,
        dead: usize,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        self.order.clear();
        match retracted {
            Some(r) if dead > 0 => self
                .order
                .extend(self.members.iter().filter(|p| !r[p.index()])),
            _ => self.order.extend_from_slice(&self.members),
        }
        if self.order.len() > 1 {
            let key_str = interner.resolve(key);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ fnv1a(key_str.as_bytes()));
            self.order.shuffle(&mut rng);
        }
        self.dirty = false;
        self.dead = dead;
    }
}

/// Updatable schema-agnostic Neighbor List (§3.2): the alphabetically
/// sorted token placements maintained under profile appends.
///
/// Equal-key runs get their *coincidental proximity* (§4.1) from a
/// per-run permutation seeded by `hash(seed, key)` over the sorted member
/// set — a canonical function of the final profile set, so the list is
/// **batching-invariant**: any ingest split yields the identical list.
/// (The batch [`NeighborList::build`] threads one RNG through all runs
/// instead; both are valid coincidental orders, and every set-level
/// guarantee of the similarity-based methods is order-independent.)
///
/// Runs are keyed by [`TokenId`] in a flat hash map. Their alphabetical
/// order is kept across epochs in a key list: the keys created since the
/// last [`snapshot`](Self::snapshot) are ordered by the interner's rank
/// table and merged in there, and [`compact`](Self::compact) drops the
/// keys of the runs it empties. The key list, the fresh keys and each
/// run's cached permutation are derived state:
/// [`from_parts`](Self::from_parts) rebuilds them, so they never enter a
/// checkpoint.
#[derive(Debug, Clone)]
pub struct IncrementalNeighborList {
    seed: u64,
    interner: Arc<TokenInterner>,
    n_profiles: usize,
    runs: FxHashMap<TokenId, Run>,
    /// The keys of `runs` as of the last snapshot, alphabetically.
    keys: Vec<TokenId>,
    /// The keys of `runs` created since the last snapshot.
    fresh: Vec<TokenId>,
    total_placements: usize,
}

impl IncrementalNeighborList {
    /// An empty list with the given tie-shuffling seed and its own
    /// interner.
    pub fn new(seed: u64) -> Self {
        Self::from_parts(seed, 0, TokenInterner::shared(), [])
    }

    /// Bootstraps from an existing collection (ingests every profile).
    pub fn from_collection(profiles: &ProfileCollection, seed: u64) -> Self {
        let mut this = Self::new(seed);
        for p in profiles.iter() {
            this.add_profile(p);
        }
        this
    }

    /// Reassembles a list from its per-token runs — the inverse of
    /// [`runs`](Self::runs), used by the persistence layer (`sper-store`)
    /// to restore checkpoints. Every key starts fresh and every run stale:
    /// the next [`snapshot`](Self::snapshot) orders the keys and draws
    /// each run's coincidental-proximity permutation — a pure function of
    /// the member set and `seed`, so restored snapshots are bit-identical
    /// to the uninterrupted session's. Callers must validate untrusted
    /// input first (one run per token); invariants are only
    /// debug-asserted here.
    pub fn from_parts(
        seed: u64,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        runs: impl IntoIterator<Item = (TokenId, Vec<ProfileId>)>,
    ) -> Self {
        let mut total_placements = 0;
        let mut fresh = Vec::new();
        let runs: FxHashMap<TokenId, Run> = runs
            .into_iter()
            .map(|(token, members)| {
                debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
                total_placements += members.len();
                fresh.push(token);
                let run = Run {
                    members,
                    dirty: true,
                    ..Run::default()
                };
                (token, run)
            })
            .collect();
        debug_assert_eq!(runs.len(), fresh.len(), "one run per token");
        Self {
            seed,
            interner,
            n_profiles,
            runs,
            keys: Vec::new(),
            fresh,
            total_placements,
        }
    }

    /// The shared interner.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// The tie-shuffling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of profiles ingested.
    pub fn n_profiles(&self) -> usize {
        self.n_profiles
    }

    /// The per-token equal-key runs (token, members in ascending id
    /// order), in unspecified iteration order — the persistence boundary
    /// (`sper-store`) serializes these.
    pub fn runs(&self) -> impl Iterator<Item = (TokenId, &[ProfileId])> {
        self.runs
            .iter()
            .map(|(&t, run)| (t, run.members.as_slice()))
    }

    /// Total placements (the Neighbor List length).
    pub fn len(&self) -> usize {
        self.total_placements
    }

    /// True when no profile produced any token.
    pub fn is_empty(&self) -> bool {
        self.total_placements == 0
    }

    /// Ingests one profile: one placement per distinct token, appended to
    /// that token's run. `O(|tokens|)` amortized; the run's cached
    /// permutation is invalidated lazily, and a new token's key waits
    /// among the fresh ones for the next snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `profile.id` is not the next dense id.
    pub fn add_profile(&mut self, profile: &Profile) {
        use std::collections::hash_map::Entry;
        assert_eq!(
            profile.id.index(),
            self.n_profiles,
            "profiles must be ingested in dense id order"
        );
        self.n_profiles += 1;
        let mut tokens: Vec<TokenId> = Vec::new();
        self.interner.with_vocabulary(|vocab| {
            for attr in &profile.attributes {
                Tokenizer.tokenize_ids_with(&attr.value, vocab, &mut tokens);
            }
        });
        tokens.sort_unstable();
        tokens.dedup();
        for tok in tokens {
            let run = match self.runs.entry(tok) {
                Entry::Occupied(run) => run.into_mut(),
                Entry::Vacant(slot) => {
                    self.fresh.push(tok);
                    slot.insert(Run::default())
                }
            };
            run.members.push(profile.id);
            run.dirty = true;
            self.total_placements += 1;
        }
    }

    /// Ingests a batch of profiles.
    pub fn add_batch<'a>(&mut self, profiles: impl IntoIterator<Item = &'a Profile>) {
        for p in profiles {
            self.add_profile(p);
        }
    }

    /// Physically drops every placement of a profile marked in
    /// `retracted` (indexed by profile id): filters each run's member set,
    /// drops the runs left empty together with their keys, and marks a
    /// changed run stale unless its cached permutation already left out
    /// exactly the members dropped. Marks only go from live to retracted
    /// until compaction drops the rows, so a run whose last draw counted as
    /// many retracted members as compaction drops was drawn over the very
    /// survivors. Run shuffles are a pure function of `(seed, key, member
    /// set)`, so every permutation is the one a list that never saw the
    /// retracted profiles would draw.
    pub fn compact(&mut self, retracted: &[bool]) {
        self.runs.retain(|_, run| {
            let before = run.members.len();
            run.members.retain(|p| !retracted[p.index()]);
            run.dirty |= before - run.members.len() != run.dead;
            run.dead = 0;
            !run.members.is_empty()
        });
        let runs = &self.runs;
        self.keys.retain(|k| runs.contains_key(k));
        self.fresh.retain(|k| runs.contains_key(k));
        self.total_placements = self.runs.values().map(|r| r.members.len()).sum();
    }

    /// Materializes the current placements as a [`NeighborList`]: the
    /// fresh keys are ordered by the interner's rank table and merged into
    /// the key list in one pass, and the list is written straight from the
    /// runs in key order. A run redraws its permutation only when it
    /// gained members or its count of retracted members changed since the
    /// last draw; the others copy their cached one. No re-tokenization and
    /// no placement-level sort.
    ///
    /// Members marked in `retracted` (indexed by profile id) are filtered
    /// lazily: a run is drawn over its *surviving* members, so the
    /// snapshot is bit-identical whether compaction already ran or not.
    /// `None` — nothing left to drop — skips the per-member lookups.
    pub fn snapshot(&mut self, retracted: Option<&[bool]>) -> NeighborList {
        let _span = sper_obs::span!("blocking.nl_snapshot", runs = self.runs.len());
        if !self.fresh.is_empty() {
            let rank = self.interner.rank();
            self.fresh.sort_unstable_by_key(|t| rank[t.index()]);
            merge_by_rank(&mut self.keys, &self.fresh, &rank);
            self.fresh.clear();
        }
        let mut nl: Vec<ProfileId> = Vec::with_capacity(self.total_placements);
        for &key in &self.keys {
            let run = self.runs.get_mut(&key).expect("every key has a run");
            let dead = retracted.map_or(0, |r| run.members.iter().filter(|p| r[p.index()]).count());
            if run.dirty || dead != run.dead {
                run.redraw(key, self.seed, &self.interner, retracted, dead);
            }
            nl.extend_from_slice(&run.order);
        }
        NeighborList::from_raw_parts(nl, None, Arc::clone(&self.interner), self.n_profiles)
    }
}

/// Merges `fresh` into `keys`, both ascending by `rank`, in place and in
/// one pass from the back. Keys are distinct tokens, so their ranks are
/// too: no ties.
fn merge_by_rank(keys: &mut Vec<TokenId>, fresh: &[TokenId], rank: &[u32]) {
    let mut old = keys.len();
    keys.extend_from_slice(fresh);
    for (at, &key) in fresh.iter().enumerate().rev() {
        let r = rank[key.index()];
        while old > 0 && rank[keys[old - 1].index()] > r {
            keys[old + at] = keys[old - 1];
            old -= 1;
        }
        keys[old + at] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_blocking::TokenBlocking;
    use sper_model::{Attribute, ProfileCollectionBuilder};

    fn collection(n: u32) -> ProfileCollection {
        let mut b = ProfileCollectionBuilder::dirty();
        for i in 0..n {
            let base = i % (n / 2).max(1);
            b.add_profile([
                ("name", format!("alpha{} beta{}", base, base % 5)),
                ("city", format!("town{}", base % 3)),
            ]);
        }
        b.build()
    }

    /// Retraction marks over `n` profiles with `ids` set — what a session
    /// passes to `snapshot` and `compact`.
    fn marks(n: usize, ids: &[u32]) -> Vec<bool> {
        let mut marks = vec![false; n];
        for &id in ids {
            marks[id as usize] = true;
        }
        marks
    }

    fn keys_and_members(blocks: &BlockCollection) -> Vec<(String, Vec<ProfileId>)> {
        blocks
            .iter()
            .map(|b| (b.key_str().to_string(), b.profiles().to_vec()))
            .collect()
    }

    #[test]
    fn snapshot_equals_batch_token_blocking() {
        let coll = collection(40);
        let batch = TokenBlocking.build(&coll);
        let inc = IncrementalTokenBlocking::from_collection(&coll);
        assert_eq!(
            keys_and_members(&inc.snapshot(None)),
            keys_and_members(&batch)
        );
    }

    #[test]
    fn blocking_is_batching_invariant() {
        let coll = collection(30);
        let all_at_once = IncrementalTokenBlocking::from_collection(&coll);
        for split in [1usize, 7, 13] {
            let mut inc = IncrementalTokenBlocking::new(ErKind::Dirty);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            assert_eq!(
                keys_and_members(&inc.snapshot(None)),
                keys_and_members(&all_at_once.snapshot(None)),
                "split = {split}"
            );
        }
    }

    #[test]
    fn neighbor_list_is_batching_invariant() {
        let coll = collection(30);
        let mut all_at_once = IncrementalNeighborList::from_collection(&coll, 42);
        let reference = all_at_once.snapshot(None);
        for split in [1usize, 4, 11] {
            let mut inc = IncrementalNeighborList::new(42);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            assert_eq!(
                inc.snapshot(None).as_slice(),
                reference.as_slice(),
                "split = {split}"
            );
        }
    }

    #[test]
    fn neighbor_list_placement_multiset_matches_batch() {
        // Same placements as the batch list (only run-internal order may
        // differ), hence identical position-index shape.
        let coll = collection(20);
        let batch = NeighborList::build(&coll, 42);
        let mut inc = IncrementalNeighborList::from_collection(&coll, 42);
        let snap = inc.snapshot(None);
        assert_eq!(snap.len(), batch.len());
        for p in coll.iter() {
            assert_eq!(
                snap.position_index().num_positions(p.id),
                batch.position_index().num_positions(p.id),
                "{}",
                p.id
            );
        }
        let mut a: Vec<ProfileId> = snap.as_slice().to_vec();
        let mut b: Vec<ProfileId> = batch.as_slice().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshots_share_the_substrate_interner() {
        // A snapshot reuses its substrate's token ids: no re-interning.
        let coll = collection(12);
        let blocks = IncrementalTokenBlocking::from_collection(&coll);
        assert!(Arc::ptr_eq(
            blocks.snapshot(None).interner(),
            blocks.interner()
        ));
        let mut nl = IncrementalNeighborList::from_collection(&coll, 7);
        let interner = Arc::clone(nl.interner());
        assert!(Arc::ptr_eq(nl.snapshot(None).interner(), &interner));
    }

    #[test]
    fn clean_clean_streaming_into_second_source() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("n", "acme corp")]);
        b.add_profile([("n", "zenith inc")]);
        b.start_second_source();
        let mut coll = b.build();
        let mut inc = IncrementalTokenBlocking::from_collection(&coll);
        let id = coll.append_profile(vec![Attribute::new("n", "acme corporation")]);
        inc.add_profile(coll.get(id));
        let snap = inc.snapshot(None);
        let batch = TokenBlocking.build(&coll);
        assert_eq!(keys_and_members(&snap), keys_and_members(&batch));
        // The "acme" block now yields exactly the one cross-source pair.
        let acme = snap.iter().find(|b| &*b.key_str() == "acme").unwrap();
        assert_eq!(acme.cardinality(ErKind::CleanClean), 1);
    }

    #[test]
    fn lazy_snapshot_equals_compacted_snapshot() {
        let coll = collection(30);
        let dead = marks(30, &[3, 7, 15]);
        let mut inc = IncrementalTokenBlocking::from_collection(&coll);
        let lazy = keys_and_members(&inc.snapshot(Some(&dead)));
        for (key, members) in &lazy {
            assert!(
                members.iter().all(|p| ![3, 7, 15].contains(&p.0)),
                "retracted member leaked into block {key}"
            );
        }
        inc.compact(&dead);
        assert_eq!(keys_and_members(&inc.snapshot(None)), lazy);
        // Compaction dropped the retracted rows physically.
        assert!(inc
            .blocks()
            .iter()
            .all(|b| !b.profiles().contains(&ProfileId(3))));
    }

    #[test]
    fn nl_lazy_snapshot_equals_compacted_snapshot() {
        let coll = collection(30);
        let dead = marks(30, &[2, 9]);
        let mut inc = IncrementalNeighborList::from_collection(&coll, 42);
        let lazy = inc.snapshot(Some(&dead));
        assert!(lazy.as_slice().iter().all(|p| p.0 != 2 && p.0 != 9));
        inc.compact(&dead);
        assert_eq!(lazy.as_slice(), inc.snapshot(None).as_slice());
    }

    #[test]
    fn retract_equals_never_ingested_husk() {
        // A substrate read with retraction marks — compacted or not —
        // snapshots identically to one whose ingest only ever saw empty
        // husks in the retracted slots (same dense ids, no attributes).
        let coll = collection(24);
        let dead = marks(24, &[1, 5, 12]);
        let mut husked = coll.clone();
        for id in [1u32, 5, 12] {
            husked.retract_profile(ProfileId(id));
        }
        let fresh = IncrementalTokenBlocking::from_collection(&husked);
        let mut mutated = IncrementalTokenBlocking::from_collection(&coll);
        let want = keys_and_members(&fresh.snapshot(None));
        assert_eq!(keys_and_members(&mutated.snapshot(Some(&dead))), want);
        mutated.compact(&dead);
        assert_eq!(keys_and_members(&mutated.snapshot(None)), want);

        let mut fresh_nl = IncrementalNeighborList::from_collection(&husked, 7);
        let mut mut_nl = IncrementalNeighborList::from_collection(&coll, 7);
        let want = fresh_nl.snapshot(None);
        assert_eq!(mut_nl.snapshot(Some(&dead)).as_slice(), want.as_slice());
        mut_nl.compact(&dead);
        assert_eq!(mut_nl.snapshot(None).as_slice(), want.as_slice());
    }

    #[test]
    fn compaction_emptied_key_is_recreated_by_later_ingest() {
        // "zed" belongs to p1 alone: compaction empties its run and drops
        // its key; p3 re-creates it as a fresh key after a snapshot that
        // ordered the others.
        let mut b = ProfileCollectionBuilder::dirty();
        for text in ["ash elm", "elm zed", "ash oak", "oak zed", "ash"] {
            b.add_profile([("t", text)]);
        }
        let coll = b.build();
        let mut nl = IncrementalNeighborList::new(5);
        nl.add_batch(&coll.profiles()[..3]);
        let dead = marks(5, &[1]);
        nl.snapshot(Some(&dead[..3]));
        nl.compact(&dead[..3]);
        let zed = nl.interner().intern("zed");
        assert!(nl.runs().all(|(t, _)| t != zed), "the zed run is gone");
        nl.snapshot(None);
        nl.add_batch(&coll.profiles()[3..]);
        let mut husked = coll.clone();
        husked.retract_profile(ProfileId(1));
        let want = IncrementalNeighborList::from_collection(&husked, 5).snapshot(None);
        let got = nl.snapshot(Some(&dead));
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(got.len(), 7);
    }

    #[test]
    #[should_panic(expected = "dense id order")]
    fn non_dense_ingest_panics() {
        let coll = collection(4);
        let mut inc = IncrementalTokenBlocking::new(ErKind::Dirty);
        inc.add_profile(coll.get(ProfileId(1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use sper_blocking::TokenBlocking;
    use sper_model::ProfileCollectionBuilder;

    fn arbitrary_collection() -> impl Strategy<Value = ProfileCollection> {
        proptest::collection::vec("[a-e ]{1,8}", 1..20).prop_map(|values| {
            let mut b = ProfileCollectionBuilder::dirty();
            for v in values {
                b.add_profile([("t", v)]);
            }
            b.build()
        })
    }

    /// A Dirty collection, or a Clean-clean one whose `P2` starts at the
    /// drawn split.
    fn arbitrary_dirty_or_clean_clean() -> impl Strategy<Value = ProfileCollection> {
        (
            proptest::collection::vec("[a-e ]{1,8}", 1..20),
            0usize..2,
            1usize..20,
        )
            .prop_map(|(values, clean_clean, split)| {
                let mut b = if clean_clean == 1 {
                    ProfileCollectionBuilder::clean_clean()
                } else {
                    ProfileCollectionBuilder::dirty()
                };
                let n = values.len();
                let split = split.min(n);
                for (i, v) in values.into_iter().enumerate() {
                    if clean_clean == 1 && i == split {
                        b.start_second_source();
                    }
                    b.add_profile([("t", v)]);
                }
                if clean_clean == 1 && split == n {
                    b.start_second_source();
                }
                b.build()
            })
    }

    /// The snapshot's CSR arrays.
    fn csr(blocks: &BlockCollection) -> (Vec<TokenId>, Vec<u32>, Vec<ProfileId>, Vec<u32>) {
        let parts = blocks.raw_parts();
        (
            parts.keys.to_vec(),
            parts.offsets.to_vec(),
            parts.members.to_vec(),
            parts.n_firsts.to_vec(),
        )
    }

    proptest! {
        /// The incremental snapshot equals batch Token Blocking for every
        /// collection and every batching of its ingest.
        #[test]
        fn snapshot_equivalence(coll in arbitrary_collection(), split in 1usize..8) {
            let batch = TokenBlocking.build(&coll);
            let mut inc = IncrementalTokenBlocking::new(ErKind::Dirty);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            let snap = inc.snapshot(None);
            prop_assert_eq!(snap.len(), batch.len());
            for (a, b) in snap.iter().zip(batch.iter()) {
                prop_assert_eq!(a.key_str(), b.key_str());
                prop_assert_eq!(a.profiles(), b.profiles());
            }
        }

        /// For any ingest split and retraction set, the snapshot read with
        /// the retraction marks — before and after compaction — equals the
        /// batch build over the collection with the retracted profiles
        /// emptied to husks: batch Token Blocking for the blocks, a fresh
        /// Neighbor List for the list.
        #[test]
        fn snapshot_with_tombstones_equals_batch_over_husks(
            coll in arbitrary_dirty_or_clean_clean(),
            split in 1usize..8,
            retract in proptest::collection::vec(0u32..20, 0..8),
            seed in 0u64..u64::MAX,
        ) {
            let mut dead = vec![false; coll.len()];
            let mut husked = coll.clone();
            for id in retract.into_iter().filter(|&id| (id as usize) < coll.len()) {
                if !dead[id as usize] {
                    dead[id as usize] = true;
                    husked.retract_profile(ProfileId(id));
                }
            }
            let mut inc = IncrementalTokenBlocking::new(coll.kind());
            let mut nl = IncrementalNeighborList::new(seed);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
                nl.add_batch(chunk);
            }
            // Same interner: the batch build adds no token, so key ids and
            // the whole CSR layout must agree.
            let batch = TokenBlocking.build_with_interner(
                &husked,
                Arc::clone(inc.interner()),
                sper_blocking::Parallelism::SEQUENTIAL,
            );
            let want = csr(&batch);
            prop_assert_eq!(&csr(&inc.snapshot(Some(&dead))), &want, "before compaction");
            inc.compact(&dead);
            prop_assert_eq!(&csr(&inc.snapshot(Some(&dead))), &want, "after compaction");
            prop_assert_eq!(&csr(&inc.snapshot(None)), &want, "after compaction, unmarked");

            let want = IncrementalNeighborList::from_collection(&husked, seed).snapshot(None);
            let lazy = nl.snapshot(Some(&dead));
            prop_assert_eq!(lazy.as_slice(), want.as_slice(), "NL before compaction");
            nl.compact(&dead);
            let compacted = nl.snapshot(Some(&dead));
            prop_assert_eq!(compacted.as_slice(), want.as_slice(), "NL after compaction");
            let unmarked = nl.snapshot(None);
            prop_assert_eq!(unmarked.as_slice(), want.as_slice(), "NL after compaction, unmarked");
        }

        /// A session's sequence of ingest chunks, retractions,
        /// compactions and one checkpoint round trip (`from_parts` over
        /// `runs()`): the snapshot equals a fresh list over the husked
        /// prefix after two steps in three and after the last, so some
        /// snapshots follow several changes, as an epoch's follows a
        /// batch's ingest and mutations. The collection is drawn twice
        /// over, so a key that compaction emptied is re-created by the
        /// later copy.
        #[test]
        fn snapshots_follow_every_step_of_a_session(
            values in proptest::collection::vec("[a-e ]{1,8}", 1..12),
            clean_clean in 0usize..2,
            split in 0usize..24,
            ops in proptest::collection::vec((0u8..4, 0u32..64), 1..32),
            seed in 0u64..u64::MAX,
        ) {
            let all: Vec<&String> = values.iter().chain(&values).collect();
            let split = (clean_clean == 1).then_some(split.min(all.len()));
            let prefix = |k: usize, dead: &[bool]| {
                let mut b = if split.is_some() {
                    ProfileCollectionBuilder::clean_clean()
                } else {
                    ProfileCollectionBuilder::dirty()
                };
                for (i, v) in all[..k].iter().enumerate() {
                    if split == Some(i) {
                        b.start_second_source();
                    }
                    let text = if dead[i] { String::new() } else { v.to_string() };
                    b.add_profile([("t", text)]);
                }
                if split.is_some_and(|s| s >= k) {
                    b.start_second_source();
                }
                b.build()
            };
            let full = prefix(all.len(), &vec![false; all.len()]);
            let mut nl = IncrementalNeighborList::new(seed);
            let (mut dead, mut pending, mut restored) = (Vec::new(), false, false);
            let last = ops.len() - 1;
            for (step, (op, arg)) in ops.into_iter().enumerate() {
                let k = dead.len();
                match op {
                    0 => {
                        let end = (k + 1 + arg as usize % 4).min(all.len());
                        nl.add_batch(&full.profiles()[k..end]);
                        dead.resize(end, false);
                    }
                    1 if k > 0 && !dead[arg as usize % k] => {
                        dead[arg as usize % k] = true;
                        pending = true;
                    }
                    2 => {
                        nl.compact(&dead);
                        pending = false;
                    }
                    3 if !restored => {
                        let runs: Vec<(TokenId, Vec<ProfileId>)> =
                            nl.runs().map(|(t, m)| (t, m.to_vec())).collect();
                        nl = IncrementalNeighborList::from_parts(
                            nl.seed(),
                            nl.n_profiles(),
                            Arc::clone(nl.interner()),
                            runs,
                        );
                        restored = true;
                    }
                    _ => {}
                }
                if arg % 3 == 0 && step < last {
                    continue;
                }
                // Marks are required while a retracted row is present, and
                // harmless once compaction dropped it.
                let marks = (pending || arg % 2 == 1).then_some(dead.as_slice());
                let got = nl.snapshot(marks);
                let want =
                    IncrementalNeighborList::from_collection(&prefix(dead.len(), &dead), seed)
                        .snapshot(None);
                prop_assert_eq!(got.as_slice(), want.as_slice(), "after op {} ({})", op, arg);
            }
        }

        /// The snapshot is the canonical list spelled out from the
        /// collection: the token strings in order, each run the live
        /// members in id order shuffled by `seed ^ fnv1a(token)`, runs of
        /// every length included.
        #[test]
        fn snapshot_is_the_canonical_list(
            coll in arbitrary_dirty_or_clean_clean(),
            retract in proptest::collection::vec(0u32..20, 0..8),
            seed in 0u64..u64::MAX,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut dead = vec![false; coll.len()];
            for id in retract.into_iter().filter(|&id| (id as usize) < coll.len()) {
                dead[id as usize] = true;
            }
            let mut runs: std::collections::BTreeMap<String, Vec<ProfileId>> = Default::default();
            for p in coll.iter().filter(|p| !dead[p.id.index()]) {
                let tokens: std::collections::BTreeSet<String> =
                    p.attributes.iter().flat_map(|a| Tokenizer.tokenize(&a.value)).collect();
                for token in tokens {
                    runs.entry(token).or_default().push(p.id);
                }
            }
            let mut want: Vec<ProfileId> = Vec::new();
            for (token, mut members) in runs {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ fnv1a(token.as_bytes()));
                members.shuffle(&mut rng);
                want.extend(members);
            }
            let got = IncrementalNeighborList::from_collection(&coll, seed).snapshot(Some(&dead));
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }

        /// The incremental Neighbor List is a pure function of the final
        /// profile set, whatever the batch split.
        #[test]
        fn neighbor_list_invariance(coll in arbitrary_collection(), split in 1usize..8) {
            let mut whole = IncrementalNeighborList::from_collection(&coll, 7);
            let mut inc = IncrementalNeighborList::new(7);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            let (inc_snap, whole_snap) = (inc.snapshot(None), whole.snapshot(None));
            prop_assert_eq!(inc_snap.as_slice(), whole_snap.as_slice());
        }
    }
}
