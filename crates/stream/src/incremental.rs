//! Incremental blocking substrates: the batch indexes of `sper-blocking`
//! (Token Blocking's block collection, the Profile Index, the Neighbor
//! List) rebuilt as *updatable* structures supporting `add_profile` /
//! `add_batch` with amortized index updates instead of full
//! re-tokenization and re-sorting per epoch.
//!
//! Both substrates guarantee **batching invariance**: the state after
//! ingesting a collection is a pure function of the final profile set,
//! independent of how the ingest was split into batches (property-tested
//! below). This is what makes the `ProgressiveSession` equivalence to the
//! batch methods possible at all.
//!
//! Since PR 8 both substrates also carry the **mutation model**: a
//! tombstone set marks retracted profiles, read paths ([`snapshot`]s)
//! filter tombstoned members lazily, and an explicit [`compact`] pass
//! physically drops them and rebuilds the affected index segments. The
//! headline invariant (property-tested in `tests/mutation_equivalence.rs`)
//! is that a snapshot taken with tombstones — before *or* after
//! compaction — equals the snapshot of a substrate that never ingested
//! the retracted profiles, modulo the monotone survivor-id bijection.
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
use sper_blocking::{
    Block, BlockCollection, BlockId, IncrementalProfileIndex, NeighborList, TokenId, TokenInterner,
};
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
///   ids and updates the id-indexed block map and the live
///   [`IncrementalProfileIndex`] in `O(|tokens| · log)` amortized — no
///   other profile is touched, no `String` is allocated.
/// * [`Self::snapshot`] materializes a [`BlockCollection`] identical to
///   `TokenBlocking::default().build(..)` on the current collection (same
///   keys, same members, same key-sorted order), so every downstream
///   consumer (`Pbs::from_blocks`, `Pps::from_blocks`, purging, filtering)
///   works unchanged.
///
/// The live index uses *insertion-order* block ids (stable as blocks are
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
    /// Live profile → block-ids index over insertion-order ids.
    index: IncrementalProfileIndex,
    /// All-time tombstone marks, indexed by profile id (`true` =
    /// retracted). Never cleared: ids are not recycled.
    tombstones: Vec<bool>,
    /// Tombstoned members still physically present in `blocks` — zero
    /// right after [`Self::compact`]; while zero, snapshots skip the
    /// tombstone lookups.
    pending: usize,
}

impl IncrementalTokenBlocking {
    /// An empty substrate for a task of the given kind, with its own
    /// interner.
    pub fn new(kind: ErKind) -> Self {
        Self::with_interner(kind, TokenInterner::shared())
    }

    /// An empty substrate sharing an existing interner (cross-substrate /
    /// cross-epoch id stability).
    pub fn with_interner(kind: ErKind, interner: Arc<TokenInterner>) -> Self {
        Self {
            kind,
            n_profiles: 0,
            tokenizer: Tokenizer::default(),
            interner,
            block_of_token: Vec::new(),
            blocks: Vec::new(),
            index: IncrementalProfileIndex::new_empty(0),
            tombstones: Vec::new(),
            pending: 0,
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

    /// The live profile → blocks index (insertion-order block ids).
    pub fn profile_index(&self) -> &IncrementalProfileIndex {
        &self.index
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
        self.index.add_profiles(1);
        self.tombstones.push(false);

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

        // Existing blocks must be updated in ascending insertion id so the
        // new profile's block list stays sorted; new keys then append with
        // ever-larger ids.
        let mut existing: Vec<u32> = Vec::new();
        let mut fresh: Vec<TokenId> = Vec::new();
        for tok in tokens {
            match self.block_of_token[tok.index()] {
                NO_BLOCK => fresh.push(tok),
                id => existing.push(id),
            }
        }
        existing.sort_unstable();
        for id in existing {
            let block = &mut self.blocks[id as usize];
            block.push_member(profile.id, profile.source);
            let cardinality = block.cardinality(self.kind);
            self.index.add_member(BlockId(id), profile.id, cardinality);
        }
        for tok in fresh {
            let id = self.blocks.len() as u32;
            let mut block = Block::new(tok, Vec::new());
            block.push_member(profile.id, profile.source);
            self.block_of_token[tok.index()] = id;
            self.index.push_block(&[profile.id], 0);
            self.blocks.push(block);
        }
    }

    /// Ingests a batch of profiles.
    pub fn add_batch<'a>(&mut self, profiles: impl IntoIterator<Item = &'a Profile>) {
        for p in profiles {
            self.add_profile(p);
        }
    }

    /// Reassembles a substrate from its live blocks and index — the
    /// inverse of [`blocks`](Self::blocks) +
    /// [`profile_index`](Self::profile_index), used by the persistence
    /// layer (`sper-store`) to restore checkpoints. The token → block map
    /// is rebuilt from the blocks' keys. Callers must validate untrusted
    /// input first (block keys resolvable by `interner`, index consistent
    /// with `blocks`); invariants are only debug-asserted here.
    pub fn from_parts(
        kind: ErKind,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        blocks: Vec<Block>,
        index: IncrementalProfileIndex,
    ) -> Self {
        debug_assert_eq!(index.total_blocks(), blocks.len());
        debug_assert_eq!(index.n_profiles(), n_profiles);
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
            tokenizer: Tokenizer::default(),
            interner,
            block_of_token,
            blocks,
            index,
            tombstones: vec![false; n_profiles],
            pending: 0,
        }
    }

    /// Retracts a profile: marks it tombstoned and retires it from the
    /// live profile → blocks index. Its memberships on the *block* side
    /// stay physically present (per-block cardinalities in the live index
    /// are stale to the same extent) until [`Self::compact`]; every
    /// [`Self::snapshot`] filters them out in the meantime, so read paths
    /// never see the profile again.
    ///
    /// # Panics
    ///
    /// Panics when the id was never ingested or is already tombstoned.
    pub fn retract(&mut self, id: ProfileId) {
        assert!(id.index() < self.n_profiles, "retract of unknown {id}");
        assert!(!self.tombstones[id.index()], "double retract of {id}");
        self.tombstones[id.index()] = true;
        self.pending += 1;
        self.index.retire(id);
    }

    /// True when the profile was retracted.
    #[inline]
    pub fn is_tombstoned(&self, id: ProfileId) -> bool {
        self.tombstones[id.index()]
    }

    /// All-time tombstoned ids, ascending.
    pub fn tombstoned_ids(&self) -> impl Iterator<Item = ProfileId> + '_ {
        self.tombstones
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| ProfileId(i as u32))
    }

    /// Tombstoned profiles not yet physically dropped by
    /// [`Self::compact`].
    pub fn pending_tombstones(&self) -> usize {
        self.pending
    }

    /// Re-applies persisted tombstone state after [`Self::from_parts`]:
    /// `tombstoned` is the all-time set, `pending` how many of them still
    /// have physical block memberships (zero when the checkpoint was taken
    /// post-compaction). Callers (the persistence layer) must validate
    /// untrusted input first.
    pub fn restore_tombstones(
        &mut self,
        tombstoned: impl IntoIterator<Item = ProfileId>,
        pending: usize,
    ) {
        for id in tombstoned {
            debug_assert!(id.index() < self.n_profiles);
            self.tombstones[id.index()] = true;
            self.index.retire(id);
        }
        self.pending = pending;
    }

    /// Physically drops every tombstoned member: filters the blocks,
    /// drops the ones left empty, renumbers the insertion-order block ids
    /// (relative order preserved), and rebuilds the token → block map and
    /// the live profile → blocks index over the new ids. Returns the
    /// number of tombstones that had pending memberships.
    ///
    /// Renumbering is invisible to every read path: snapshots re-key to
    /// key-sorted order anyway, and the live index is rebuilt in lockstep.
    /// Post-compaction, the substrate is member-for-member identical to
    /// one that never ingested the retracted profiles (the husk ids keep
    /// their — now empty — index slots so dense ids stay addressable).
    pub fn compact(&mut self) -> usize {
        if self.pending == 0 {
            return 0;
        }
        let old_blocks = std::mem::take(&mut self.blocks);
        for slot in &mut self.block_of_token {
            *slot = NO_BLOCK;
        }
        let mut index = IncrementalProfileIndex::new_empty(self.n_profiles);
        for (p, &dead) in self.tombstones.iter().enumerate() {
            if dead {
                index.retire(ProfileId(p as u32));
            }
        }
        let mut blocks = Vec::with_capacity(old_blocks.len());
        for mut block in old_blocks {
            if block.profiles().iter().any(|p| self.tombstones[p.index()]) {
                let Some(filtered) = filter_block(&block, &self.tombstones) else {
                    continue;
                };
                block = filtered;
            }
            let id = blocks.len() as u32;
            self.block_of_token[block.key.index()] = id;
            index.push_block(block.profiles(), block.cardinality(self.kind));
            blocks.push(block);
        }
        self.blocks = blocks;
        self.index = index;
        std::mem::take(&mut self.pending)
    }

    /// Materializes the current blocks as a batch-identical
    /// [`BlockCollection`]: comparable blocks only, sorted by key string —
    /// exactly what `TokenBlocking::default().build(..)` produces on the
    /// same collection. Tombstoned members are filtered out lazily, so the
    /// snapshot is the same whether [`Self::compact`] already ran or not.
    ///
    /// One pass over the live blocks counts each block's surviving `P1`
    /// and `P2` members and selects the comparable ones; the selection is
    /// ordered by the interner's rank table (a `u32` per key) and packed
    /// straight from the live blocks.
    pub fn snapshot(&self) -> BlockCollection {
        let mut span = sper_obs::span!("blocking.token_snapshot", live_blocks = self.blocks.len());
        let live = |p: &&ProfileId| self.pending == 0 || !self.tombstones[p.index()];
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

/// `block` without its tombstoned members (`None` when nothing survives)
/// — compaction's rewrite of a block that lost members. Partition order
/// is preserved, so the result is a valid partitioned-ascending block over
/// the survivors.
fn filter_block(block: &Block, tombstones: &[bool]) -> Option<Block> {
    let live_first = block
        .first_source()
        .iter()
        .filter(|p| !tombstones[p.index()])
        .count() as u32;
    let members: Vec<ProfileId> = block
        .profiles()
        .iter()
        .copied()
        .filter(|p| !tombstones[p.index()])
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
    /// All-time tombstone marks, indexed by profile id (`true` =
    /// retracted). Never cleared: ids are not recycled.
    tombstones: Vec<bool>,
    /// Tombstoned profiles whose placements are still physically present
    /// in `runs` — zero right after [`Self::compact`].
    pending: usize,
}

impl IncrementalNeighborList {
    /// An empty list with the given tie-shuffling seed and its own
    /// interner.
    pub fn new(seed: u64) -> Self {
        Self::with_interner(seed, TokenInterner::shared())
    }

    /// An empty list sharing an existing interner.
    pub fn with_interner(seed: u64, interner: Arc<TokenInterner>) -> Self {
        Self {
            seed,
            tokenizer: Tokenizer::default(),
            interner,
            n_profiles: 0,
            runs: FxHashMap::default(),
            total_placements: 0,
            tombstones: Vec::new(),
            pending: 0,
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
            tokenizer: Tokenizer::default(),
            interner,
            n_profiles,
            runs,
            total_placements,
            tombstones: vec![false; n_profiles],
            pending: 0,
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
        self.tombstones.push(false);
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

    /// Retracts a profile: marks it tombstoned. Its placements stay
    /// physically present in the runs until [`Self::compact`]; every
    /// [`Self::snapshot`] filters them out (and reshuffles the affected
    /// runs over the surviving member sets) in the meantime.
    ///
    /// # Panics
    ///
    /// Panics when the id was never ingested or is already tombstoned.
    pub fn retract(&mut self, id: ProfileId) {
        assert!(id.index() < self.n_profiles, "retract of unknown {id}");
        assert!(!self.tombstones[id.index()], "double retract of {id}");
        self.tombstones[id.index()] = true;
        self.pending += 1;
    }

    /// True when the profile was retracted.
    #[inline]
    pub fn is_tombstoned(&self, id: ProfileId) -> bool {
        self.tombstones[id.index()]
    }

    /// All-time tombstoned ids, ascending.
    pub fn tombstoned_ids(&self) -> impl Iterator<Item = ProfileId> + '_ {
        self.tombstones
            .iter()
            .enumerate()
            .filter(|(_, &t)| t)
            .map(|(i, _)| ProfileId(i as u32))
    }

    /// Tombstoned profiles not yet physically dropped by
    /// [`Self::compact`].
    pub fn pending_tombstones(&self) -> usize {
        self.pending
    }

    /// Re-applies persisted tombstone state after [`Self::from_parts`] —
    /// see `IncrementalTokenBlocking::restore_tombstones`.
    pub fn restore_tombstones(
        &mut self,
        tombstoned: impl IntoIterator<Item = ProfileId>,
        pending: usize,
    ) {
        for id in tombstoned {
            debug_assert!(id.index() < self.n_profiles);
            self.tombstones[id.index()] = true;
        }
        self.pending = pending;
    }

    /// Physically drops every tombstoned placement: filters each run's
    /// member set, drops runs left empty, and marks the changed runs dirty
    /// so the next [`Self::snapshot`] reshuffles them over the surviving
    /// members — the same permutation a list that never saw the retracted
    /// profiles would draw, because run shuffles are a pure function of
    /// `(seed, key, member set)`. Returns the number of tombstones that
    /// had pending placements.
    pub fn compact(&mut self) -> usize {
        if self.pending == 0 {
            return 0;
        }
        let tombstones = &self.tombstones;
        self.runs.retain(|_, run| {
            if run.members.iter().any(|p| tombstones[p.index()]) {
                run.members.retain(|p| !tombstones[p.index()]);
                run.dirty = true;
                run.order = Vec::new();
            }
            !run.members.is_empty()
        });
        self.total_placements = self.runs.values().map(|r| r.members.len()).sum();
        std::mem::take(&mut self.pending)
    }

    /// Materializes the current placements as a [`NeighborList`]. Stale
    /// runs recompute their canonical permutation (amortized: a run is
    /// reshuffled only after it changed); assembling the flat list is
    /// `O(placements)` plus merging the epoch's new tokens into the
    /// interner's rank table — no re-tokenization and no placement-level
    /// sort.
    ///
    /// Tombstoned members are filtered lazily: a run still carrying dead
    /// placements is shuffled over its *surviving* member set into scratch
    /// (its cache is left untouched until [`Self::compact`]), so the
    /// snapshot is bit-identical whether compaction already ran or not.
    pub fn snapshot(&mut self) -> NeighborList {
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
            if self.pending > 0 && run.members.iter().any(|p| self.tombstones[p.index()]) {
                // Lazy filtering: shuffle the survivors without touching
                // the run's cache — compact() will make this permanent.
                scratch.clear();
                scratch.extend(
                    run.members
                        .iter()
                        .copied()
                        .filter(|p| !self.tombstones[p.index()]),
                );
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
    use sper_blocking::{ProfileIndex, TokenBlocking};
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

    fn keys_and_members(blocks: &BlockCollection) -> Vec<(String, Vec<ProfileId>)> {
        blocks
            .iter()
            .map(|b| (b.key_str().to_string(), b.profiles().to_vec()))
            .collect()
    }

    #[test]
    fn snapshot_equals_batch_token_blocking() {
        let coll = collection(40);
        let batch = TokenBlocking::default().build(&coll);
        let inc = IncrementalTokenBlocking::from_collection(&coll);
        assert_eq!(keys_and_members(&inc.snapshot()), keys_and_members(&batch));
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
                keys_and_members(&inc.snapshot()),
                keys_and_members(&all_at_once.snapshot()),
                "split = {split}"
            );
        }
    }

    #[test]
    fn live_index_tracks_snapshot_membership() {
        let coll = collection(24);
        let inc = IncrementalTokenBlocking::from_collection(&coll);
        let index = inc.profile_index();
        // Every profile's live block list names blocks that do contain it.
        for p in coll.iter() {
            for &bid in index.blocks_of(p.id) {
                // Insertion-order ids address `blocks` directly.
                assert!(
                    inc.blocks()[bid as usize].profiles().contains(&p.id),
                    "block {bid} should contain {}",
                    p.id
                );
            }
        }
        // Intersections over the live index match a rebuilt batch index on
        // the same (insertion-ordered) blocks.
        let rebuilt = ProfileIndex::build(&BlockCollection::new(
            ErKind::Dirty,
            coll.len(),
            Arc::clone(inc.interner()),
            inc.blocks().to_vec(),
        ));
        for a in 0..coll.len() as u32 {
            for b in (a + 1)..coll.len() as u32 {
                let (a, b) = (ProfileId(a), ProfileId(b));
                assert_eq!(index.intersect(a, b), rebuilt.intersect(a, b));
            }
        }
    }

    #[test]
    fn neighbor_list_is_batching_invariant() {
        let coll = collection(30);
        let mut all_at_once = IncrementalNeighborList::from_collection(&coll, 42);
        let reference = all_at_once.snapshot();
        for split in [1usize, 4, 11] {
            let mut inc = IncrementalNeighborList::new(42);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            assert_eq!(
                inc.snapshot().as_slice(),
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
        let snap = inc.snapshot();
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
    fn shared_interner_across_substrates() {
        let coll = collection(12);
        let interner = TokenInterner::shared();
        let mut blocks =
            IncrementalTokenBlocking::with_interner(ErKind::Dirty, Arc::clone(&interner));
        let mut nl = IncrementalNeighborList::with_interner(7, Arc::clone(&interner));
        for p in coll.iter() {
            blocks.add_profile(p);
            nl.add_profile(p);
        }
        // One vocabulary: every block key resolves through the shared
        // interner, and the NL snapshot reuses the same ids.
        assert_eq!(blocks.interner().len(), interner.len());
        let snap = blocks.snapshot();
        assert!(std::sync::Arc::ptr_eq(snap.interner(), &interner));
        let list = nl.snapshot();
        assert!(std::sync::Arc::ptr_eq(list.interner(), &interner));
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
        let snap = inc.snapshot();
        let batch = TokenBlocking::default().build(&coll);
        assert_eq!(keys_and_members(&snap), keys_and_members(&batch));
        // The "acme" block now yields exactly the one cross-source pair.
        let acme = snap.iter().find(|b| &*b.key_str() == "acme").unwrap();
        assert_eq!(acme.cardinality(ErKind::CleanClean), 1);
    }

    #[test]
    fn lazy_snapshot_equals_compacted_snapshot() {
        let coll = collection(30);
        let mut inc = IncrementalTokenBlocking::from_collection(&coll);
        for id in [3u32, 7, 15] {
            inc.retract(ProfileId(id));
        }
        assert_eq!(inc.pending_tombstones(), 3);
        let lazy = keys_and_members(&inc.snapshot());
        for (key, members) in &lazy {
            assert!(
                members.iter().all(|p| ![3, 7, 15].contains(&p.0)),
                "tombstoned member leaked into block {key}"
            );
        }
        assert_eq!(inc.compact(), 3);
        assert_eq!(inc.pending_tombstones(), 0);
        assert_eq!(keys_and_members(&inc.snapshot()), lazy);
        // The live index retired the ids alongside.
        assert!(inc.profile_index().blocks_of(ProfileId(3)).is_empty());
        assert!(inc.is_tombstoned(ProfileId(3)));
        assert_eq!(inc.tombstoned_ids().count(), 3);
    }

    #[test]
    fn nl_lazy_snapshot_equals_compacted_snapshot() {
        let coll = collection(30);
        let mut inc = IncrementalNeighborList::from_collection(&coll, 42);
        for id in [2u32, 9] {
            inc.retract(ProfileId(id));
        }
        let lazy = inc.snapshot();
        assert!(lazy.as_slice().iter().all(|p| p.0 != 2 && p.0 != 9));
        assert_eq!(inc.compact(), 2);
        assert_eq!(inc.pending_tombstones(), 0);
        assert_eq!(lazy.as_slice(), inc.snapshot().as_slice());
    }

    #[test]
    fn retract_equals_never_ingested_husk() {
        // A substrate with retractions — compacted or not — snapshots
        // identically to one whose ingest only ever saw empty husks in the
        // retracted slots (same dense ids, no attributes).
        let coll = collection(24);
        let mut husked = coll.clone();
        for id in [1u32, 5, 12] {
            husked.retract_profile(ProfileId(id));
        }
        let fresh = IncrementalTokenBlocking::from_collection(&husked);
        let mut mutated = IncrementalTokenBlocking::from_collection(&coll);
        for id in [1u32, 5, 12] {
            mutated.retract(ProfileId(id));
        }
        let want = keys_and_members(&fresh.snapshot());
        assert_eq!(keys_and_members(&mutated.snapshot()), want);
        mutated.compact();
        assert_eq!(keys_and_members(&mutated.snapshot()), want);

        let mut fresh_nl = IncrementalNeighborList::from_collection(&husked, 7);
        let mut mut_nl = IncrementalNeighborList::from_collection(&coll, 7);
        for id in [1u32, 5, 12] {
            mut_nl.retract(ProfileId(id));
        }
        let want = fresh_nl.snapshot();
        assert_eq!(mut_nl.snapshot().as_slice(), want.as_slice());
        mut_nl.compact();
        assert_eq!(mut_nl.snapshot().as_slice(), want.as_slice());
    }

    #[test]
    #[should_panic(expected = "double retract")]
    fn double_retract_panics() {
        let coll = collection(6);
        let mut inc = IncrementalTokenBlocking::from_collection(&coll);
        inc.retract(ProfileId(0));
        inc.retract(ProfileId(0));
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
            let batch = TokenBlocking::default().build(&coll);
            let mut inc = IncrementalTokenBlocking::new(ErKind::Dirty);
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
            }
            let snap = inc.snapshot();
            prop_assert_eq!(snap.len(), batch.len());
            for (a, b) in snap.iter().zip(batch.iter()) {
                prop_assert_eq!(a.key_str(), b.key_str());
                prop_assert_eq!(a.profiles(), b.profiles());
            }
        }

        /// With retractions interleaved into any ingest split, the snapshot
        /// — before and after compaction — equals batch Token Blocking over
        /// the collection with the retracted profiles emptied to husks.
        #[test]
        fn snapshot_with_tombstones_equals_batch_over_husks(
            coll in arbitrary_dirty_or_clean_clean(),
            split in 1usize..8,
            retract in proptest::collection::vec(0u32..20, 0..8),
        ) {
            let mut retract: Vec<ProfileId> = retract
                .into_iter()
                .filter(|&id| (id as usize) < coll.len())
                .map(ProfileId)
                .collect();
            retract.sort_unstable();
            retract.dedup();
            let mut husked = coll.clone();
            for &id in &retract {
                husked.retract_profile(id);
            }
            let mut inc = IncrementalTokenBlocking::new(coll.kind());
            for chunk in coll.profiles().chunks(split) {
                inc.add_batch(chunk);
                // Retract every listed id as soon as it is ingested.
                for &id in &retract {
                    if id.index() < inc.n_profiles() && !inc.is_tombstoned(id) {
                        inc.retract(id);
                    }
                }
            }
            // Same interner: the batch build adds no token, so key ids and
            // the whole CSR layout must agree.
            let batch = TokenBlocking::default().build_with_interner(
                &husked,
                Arc::clone(inc.interner()),
                sper_blocking::Parallelism::SEQUENTIAL,
            );
            let want = csr(&batch);
            prop_assert_eq!(inc.pending_tombstones(), retract.len());
            prop_assert_eq!(&csr(&inc.snapshot()), &want, "before compaction");
            inc.compact();
            prop_assert_eq!(&csr(&inc.snapshot()), &want, "after compaction");
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
            let (inc_snap, whole_snap) = (inc.snapshot(), whole.snapshot());
            prop_assert_eq!(inc_snap.as_slice(), whole_snap.as_slice());
        }
    }
}
