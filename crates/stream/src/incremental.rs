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
    tokenizer: Tokenizer,
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
            tokenizer: Tokenizer,
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
        for attr in &profile.attributes {
            self.tokenizer
                .tokenize_ids_into(&attr.value, &self.interner, &mut tokens);
        }
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
            tokenizer: Tokenizer,
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
#[derive(Debug, Clone)]
struct Run {
    /// Members in ascending id order (insertion order under streaming).
    members: Vec<ProfileId>,
    /// Cached coincidental-proximity permutation of `members`.
    order: Vec<ProfileId>,
    /// Whether `order` is stale.
    dirty: bool,
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
/// Runs are keyed by [`TokenId`] in a flat hash map; the alphabetical
/// order the Neighbor List requires is recovered at
/// [`snapshot`](Self::snapshot) time from one interner rank table.
#[derive(Debug, Clone)]
pub struct IncrementalNeighborList {
    seed: u64,
    tokenizer: Tokenizer,
    interner: Arc<TokenInterner>,
    n_profiles: usize,
    runs: FxHashMap<TokenId, Run>,
    total_placements: usize,
}

impl IncrementalNeighborList {
    /// An empty list with the given tie-shuffling seed and its own
    /// interner.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            tokenizer: Tokenizer,
            interner: TokenInterner::shared(),
            n_profiles: 0,
            runs: FxHashMap::default(),
            total_placements: 0,
        }
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
    /// to restore checkpoints. Every run starts stale: its coincidental-
    /// proximity permutation is recomputed at the next
    /// [`snapshot`](Self::snapshot) — a pure function of the member set
    /// and `seed`, so restored snapshots are bit-identical to the
    /// uninterrupted session's. Callers must validate untrusted input
    /// first; invariants are only debug-asserted here.
    pub fn from_parts(
        seed: u64,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        runs: impl IntoIterator<Item = (TokenId, Vec<ProfileId>)>,
    ) -> Self {
        let mut total_placements = 0;
        let runs: FxHashMap<TokenId, Run> = runs
            .into_iter()
            .map(|(token, members)| {
                debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
                total_placements += members.len();
                (
                    token,
                    Run {
                        members,
                        order: Vec::new(),
                        dirty: true,
                    },
                )
            })
            .collect();
        Self {
            seed,
            tokenizer: Tokenizer,
            interner,
            n_profiles,
            runs,
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
    /// permutation is invalidated lazily.
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
        for attr in &profile.attributes {
            self.tokenizer
                .tokenize_ids_into(&attr.value, &self.interner, &mut tokens);
        }
        tokens.sort_unstable();
        tokens.dedup();
        for tok in tokens {
            let run = self.runs.entry(tok).or_insert_with(|| Run {
                members: Vec::new(),
                order: Vec::new(),
                dirty: false,
            });
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
    /// drops runs left empty, and marks the changed runs dirty so the next
    /// [`Self::snapshot`] reshuffles them over the surviving members — the
    /// same permutation a list that never saw the retracted profiles would
    /// draw, because run shuffles are a pure function of `(seed, key,
    /// member set)`.
    pub fn compact(&mut self, retracted: &[bool]) {
        self.runs.retain(|_, run| {
            if run.members.iter().any(|p| retracted[p.index()]) {
                run.members.retain(|p| !retracted[p.index()]);
                run.dirty = true;
                run.order = Vec::new();
            }
            !run.members.is_empty()
        });
        self.total_placements = self.runs.values().map(|r| r.members.len()).sum();
    }

    /// Materializes the current placements as a [`NeighborList`]. Stale
    /// runs recompute their canonical permutation (amortized: a run is
    /// reshuffled only after it changed); assembling the flat list is
    /// `O(placements)` plus merging the epoch's new tokens into the
    /// interner's rank table — no re-tokenization and no placement-level
    /// sort.
    ///
    /// Members marked in `retracted` (indexed by profile id) are filtered
    /// lazily: a run still carrying dead placements is shuffled over its
    /// *surviving* member set into scratch (its cache is left untouched
    /// until [`Self::compact`]), so the snapshot is bit-identical whether
    /// compaction already ran or not. `None` — nothing left to drop —
    /// skips the per-member lookups.
    pub fn snapshot(&mut self, retracted: Option<&[bool]>) -> NeighborList {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let _span = sper_obs::span!("blocking.nl_snapshot", runs = self.runs.len());
        let seed = self.seed;
        let rank = self.interner.rank();
        let mut keys: Vec<TokenId> = self.runs.keys().copied().collect();
        keys.sort_unstable_by_key(|t| rank[t.index()]);
        let mut placements: Vec<(TokenId, ProfileId)> = Vec::with_capacity(self.total_placements);
        let mut scratch: Vec<ProfileId> = Vec::new();
        for key in keys {
            let run = self.runs.get_mut(&key).expect("run exists");
            if let Some(dead) = retracted.filter(|r| run.members.iter().any(|p| r[p.index()])) {
                // Lazy filtering: shuffle the survivors without touching
                // the run's cache — compact() will make this permanent.
                scratch.clear();
                scratch.extend(run.members.iter().copied().filter(|p| !dead[p.index()]));
                if scratch.is_empty() {
                    continue;
                }
                let key_str = self.interner.resolve(key);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ fnv1a(key_str.as_bytes()));
                scratch.shuffle(&mut rng);
                placements.extend(scratch.iter().map(|&p| (key, p)));
                continue;
            }
            if run.dirty {
                // Only stale runs pay the key resolution for their seed.
                let key_str = self.interner.resolve(key);
                run.order = run.members.clone();
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ fnv1a(key_str.as_bytes()));
                run.order.shuffle(&mut rng);
                run.dirty = false;
            }
            placements.extend(run.order.iter().map(|&p| (key, p)));
        }
        NeighborList::from_sorted_placements(
            placements,
            Arc::clone(&self.interner),
            self.n_profiles,
            false,
        )
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
