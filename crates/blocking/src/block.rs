//! Blocks and block collections (§3 notation: `|b|`, `‖b‖`, `|B|`, `‖B‖`),
//! in the interned columnar representation.
//!
//! Keys are dense [`TokenId`]s (see [`sper_text::TokenInterner`]); a
//! [`BlockCollection`] stores its blocks in **CSR form** (compressed sparse
//! row): one packed member array plus per-block offsets, instead of one
//! heap allocation per block. [`Block`] remains as the *owned, growable*
//! building unit used by the streaming ingest path and the suffix forest;
//! collections pack those into CSR on construction.

use sper_model::{ErKind, Pair, ProfileId, SourceId};
use sper_text::{TokenId, TokenInterner};
use std::sync::Arc;

/// Identifier of a block inside a [`BlockCollection`]. After block
/// scheduling (sorting by cardinality), the id equals the processing
/// position — the property the LeCoBI condition relies on (§5.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Checked CSR offset: the packed arrays index with `u32`; past 4 G
/// entries the representation must fail loudly, not wrap into silent
/// corruption.
#[inline]
pub(crate) fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("CSR array exceeds u32::MAX entries")
}

/// Per-row counts → CSR offsets (exclusive prefix sums), overflow-checked.
/// The shared first half of every counting-scatter CSR build in this crate
/// (profile index, graph adjacency); scatter with a clone of the result as
/// the per-row cursor.
pub(crate) fn prefix_offsets(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    offsets.push(0u32);
    let mut acc = 0u64;
    for &c in counts {
        acc += u64::from(c);
        offsets.push(csr_offset(acc as usize));
    }
    offsets
}

/// Computes `‖b‖` from a member count and the `P1` partition size — for
/// blocks counted before they are packed (Block Filtering, streaming
/// snapshots).
#[inline]
pub fn cardinality_of(kind: ErKind, size: usize, n_first: u32) -> u64 {
    match kind {
        ErKind::Dirty => {
            let n = size as u64;
            n * n.saturating_sub(1) / 2
        }
        ErKind::CleanClean => {
            let n1 = u64::from(n_first);
            let n2 = size as u64 - n1;
            n1 * n2
        }
    }
}

/// Appends a member slice's valid comparisons to `out`.
fn push_comparisons(out: &mut Vec<Pair>, kind: ErKind, members: &[ProfileId], n_first: u32) {
    match kind {
        ErKind::Dirty => {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    out.push(Pair::new(a, b));
                }
            }
        }
        ErKind::CleanClean => {
            let (firsts, seconds) = members.split_at(n_first as usize);
            for &a in firsts {
                for &b in seconds {
                    out.push(Pair::new(a, b));
                }
            }
        }
    }
}

/// An owned block: the set of profiles indexed under one blocking key.
///
/// This is the *building* representation — the streaming substrates grow
/// blocks member by member, the suffix forest owns one per node. Query-side
/// consumers see [`BlockRef`] views into a CSR [`BlockCollection`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The interned blocking key (attribute-value token, suffix, …).
    pub key: TokenId,
    /// Member profiles, sorted ascending by id.
    profiles: Vec<ProfileId>,
    /// How many members belong to `SourceId::FIRST` (needed for the
    /// Clean-clean cardinality `|b ∩ P1| · |b ∩ P2|`). The members are
    /// stored with all `P1` profiles before all `P2` profiles.
    n_first: u32,
}

impl Block {
    /// Builds a block from `(profile, source)` members. Members are
    /// deduplicated and sorted with `P1` profiles first, each group in
    /// ascending id order.
    pub fn new(key: TokenId, members: Vec<(ProfileId, SourceId)>) -> Self {
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
            profiles: firsts,
            n_first,
        }
    }

    /// Builds a block from members that are **already** deduplicated,
    /// ascending within each source partition, with all `P1` members
    /// before any `P2` member — the invariant bucket construction over a
    /// [`ProfileCollection`](sper_model::ProfileCollection)'s id order produces naturally (its P1
    /// profiles precede its P2 profiles). Checked in debug builds.
    pub fn from_partitioned(key: TokenId, profiles: Vec<ProfileId>, n_first: u32) -> Self {
        debug_assert!(n_first as usize <= profiles.len());
        debug_assert!(profiles[..n_first as usize].windows(2).all(|w| w[0] < w[1]));
        debug_assert!(profiles[n_first as usize..].windows(2).all(|w| w[0] < w[1]));
        Self {
            key,
            profiles,
            n_first,
        }
    }

    /// Builds a Dirty-ER block (all members from the single source).
    pub fn new_dirty(key: TokenId, mut members: Vec<ProfileId>) -> Self {
        members.sort_unstable();
        members.dedup();
        let n_first = members.len() as u32;
        Self {
            key,
            profiles: members,
            n_first,
        }
    }

    /// Appends one member to a live block — the streaming ingest path
    /// (`sper-stream`), where profiles arrive in ascending id order and all
    /// `P1` profiles precede all `P2` profiles (the [`ProfileCollection`](sper_model::ProfileCollection)
    /// id-density invariant). Duplicate ids are ignored.
    ///
    /// # Panics
    ///
    /// Panics when the id order or source layout would be violated.
    pub fn push_member(&mut self, p: ProfileId, source: SourceId) {
        if source == SourceId::FIRST {
            assert!(
                self.profiles.len() == self.n_first as usize,
                "P1 members must be added before any P2 member"
            );
            match self.first_source().last() {
                Some(&last) if last == p => return,
                Some(&last) => assert!(last < p, "members must arrive in ascending id order"),
                None => {}
            }
            self.profiles.insert(self.n_first as usize, p);
            self.n_first += 1;
        } else {
            match self.second_source().last() {
                Some(&last) if last == p => return,
                Some(&last) => assert!(last < p, "members must arrive in ascending id order"),
                None => {}
            }
            self.profiles.push(p);
        }
    }

    /// Block size `|b|`: the number of profiles it contains.
    #[inline]
    pub fn size(&self) -> usize {
        self.profiles.len()
    }

    /// Members, `P1` profiles first.
    #[inline]
    pub fn profiles(&self) -> &[ProfileId] {
        &self.profiles
    }

    /// Members belonging to `P1`.
    pub fn first_source(&self) -> &[ProfileId] {
        &self.profiles[..self.n_first as usize]
    }

    /// Members belonging to `P2` (empty in Dirty ER).
    pub fn second_source(&self) -> &[ProfileId] {
        &self.profiles[self.n_first as usize..]
    }

    /// Block cardinality `‖b‖`: the number of comparisons the block yields —
    /// `C(|b|, 2)` for Dirty ER, `|b∩P1|·|b∩P2|` for Clean-clean ER
    /// (comparisons are only meaningful across sources).
    pub fn cardinality(&self, kind: ErKind) -> u64 {
        cardinality_of(kind, self.profiles.len(), self.n_first)
    }

    /// Iterates the block's valid comparisons: all unordered pairs for
    /// Dirty ER, cross-source pairs for Clean-clean ER.
    pub fn comparisons(&self, kind: ErKind) -> Vec<Pair> {
        let mut out = Vec::with_capacity(self.cardinality(kind) as usize);
        push_comparisons(&mut out, kind, &self.profiles, self.n_first);
        out
    }
}

/// A borrowed view of one block inside a CSR [`BlockCollection`].
#[derive(Debug, Clone, Copy)]
pub struct BlockRef<'a> {
    /// The interned blocking key.
    pub key: TokenId,
    interner: &'a TokenInterner,
    members: &'a [ProfileId],
    n_first: u32,
}

impl<'a> BlockRef<'a> {
    /// The key's string, resolved through the collection's interner.
    pub fn key_str(&self) -> Arc<str> {
        self.interner.resolve(self.key)
    }

    /// Block size `|b|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Members, `P1` profiles first.
    #[inline]
    pub fn profiles(&self) -> &'a [ProfileId] {
        self.members
    }

    /// Members belonging to `P1`.
    #[inline]
    pub fn first_source(&self) -> &'a [ProfileId] {
        &self.members[..self.n_first as usize]
    }

    /// Members belonging to `P2` (empty in Dirty ER).
    #[inline]
    pub fn second_source(&self) -> &'a [ProfileId] {
        &self.members[self.n_first as usize..]
    }

    /// Block cardinality `‖b‖`.
    pub fn cardinality(&self, kind: ErKind) -> u64 {
        cardinality_of(kind, self.members.len(), self.n_first)
    }

    /// The block's valid comparisons (see [`Block::comparisons`]).
    pub fn comparisons(&self, kind: ErKind) -> Vec<Pair> {
        let mut out = Vec::with_capacity(self.cardinality(kind) as usize);
        push_comparisons(&mut out, kind, self.members, self.n_first);
        out
    }

    /// Clones the view into an owned [`Block`].
    pub fn to_block(&self) -> Block {
        Block {
            key: self.key,
            profiles: self.members.to_vec(),
            n_first: self.n_first,
        }
    }
}

/// A set of blocks in CSR form, together with the task kind, profile count
/// and the token interner that resolves the keys.
///
/// Layout (`|B|` blocks, `Σ|b|` total memberships):
///
/// ```text
/// keys:     [TokenId; |B|]        block key, by block id
/// offsets:  [u32; |B| + 1]        members of block i = members[offsets[i]..offsets[i+1]]
/// members:  [ProfileId; Σ|b|]     packed, P1 partition first within each block
/// n_firsts: [u32; |B|]            |b ∩ P1| per block
/// ```
///
/// One contiguous member array instead of `|B|` separate `Vec`s: iteration
/// and cardinality math are sequential scans, clones are three `memcpy`s,
/// and reordering (block scheduling) is a gather pass.
///
/// ```
/// use sper_blocking::TokenBlocking;
/// use sper_model::ProfileCollectionBuilder;
///
/// let mut b = ProfileCollectionBuilder::dirty();
/// b.add_profile([("name", "carl white")]);
/// b.add_profile([("name", "karl white")]);
/// let blocks = TokenBlocking.build(&b.build());
/// // "carl"/"karl" are singletons (no comparison → dropped); the shared
/// // token "white" blocks both profiles together.
/// assert_eq!(blocks.len(), 1);
/// assert_eq!(blocks.total_comparisons(), 1);
/// let white = blocks.iter().next().unwrap();
/// assert_eq!(&*white.key_str(), "white");
/// assert_eq!(white.size(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockCollection {
    kind: ErKind,
    n_profiles: usize,
    interner: Arc<TokenInterner>,
    keys: Vec<TokenId>,
    offsets: Vec<u32>,
    members: Vec<ProfileId>,
    n_firsts: Vec<u32>,
}

impl BlockCollection {
    /// Packs owned blocks into CSR form, preserving their order.
    pub fn new(
        kind: ErKind,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        blocks: Vec<Block>,
    ) -> Self {
        let total: usize = blocks.iter().map(Block::size).sum();
        let mut keys = Vec::with_capacity(blocks.len());
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        let mut members = Vec::with_capacity(total);
        let mut n_firsts = Vec::with_capacity(blocks.len());
        offsets.push(0u32);
        for b in blocks {
            keys.push(b.key);
            n_firsts.push(b.n_first);
            members.extend_from_slice(&b.profiles);
            offsets.push(csr_offset(members.len()));
        }
        Self {
            kind,
            n_profiles,
            interner,
            keys,
            offsets,
            members,
            n_firsts,
        }
    }

    /// An empty collection with a fresh interner.
    pub fn empty(kind: ErKind, n_profiles: usize) -> Self {
        Self::new(kind, n_profiles, TokenInterner::shared(), Vec::new())
    }

    /// The task kind the blocks were built for.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Number of profiles in the underlying collection.
    pub fn n_profiles(&self) -> usize {
        self.n_profiles
    }

    /// The interner resolving this collection's keys.
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// `|B|`: the number of blocks.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total memberships `Σ|b|` (the packed member-array length).
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// The members of block `i`, `P1` partition first.
    #[inline]
    fn members_of(&self, i: usize) -> &[ProfileId] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The block with the given id.
    #[inline]
    pub fn get(&self, id: BlockId) -> BlockRef<'_> {
        let i = id.index();
        BlockRef {
            key: self.keys[i],
            interner: &self.interner,
            members: self.members_of(i),
            n_first: self.n_firsts[i],
        }
    }

    /// The interned key of a block.
    #[inline]
    pub fn key(&self, id: BlockId) -> TokenId {
        self.keys[id.index()]
    }

    /// The key string of a block, resolved through the interner.
    pub fn key_str(&self, id: BlockId) -> Arc<str> {
        self.interner.resolve(self.keys[id.index()])
    }

    /// `‖b‖` of block `id` under the collection's kind.
    #[inline]
    pub fn cardinality(&self, id: BlockId) -> u64 {
        let i = id.index();
        cardinality_of(
            self.kind,
            (self.offsets[i + 1] - self.offsets[i]) as usize,
            self.n_firsts[i],
        )
    }

    /// Iterates the blocks in id order.
    pub fn iter(&self) -> impl Iterator<Item = BlockRef<'_>> {
        (0..self.len()).map(move |i| self.get(BlockId(i as u32)))
    }

    /// Consumes the collection, materializing owned blocks (id order).
    pub fn into_blocks(self) -> Vec<Block> {
        (0..self.len())
            .map(|i| Block {
                key: self.keys[i],
                profiles: self.members_of(i).to_vec(),
                n_first: self.n_firsts[i],
            })
            .collect()
    }

    /// `‖B‖`: the aggregate cardinality (total comparisons, with repeats
    /// across blocks counted multiply).
    pub fn total_comparisons(&self) -> u64 {
        (0..self.len())
            .map(|i| self.cardinality(BlockId(i as u32)))
            .sum()
    }

    /// Average block size `|b̄|`.
    pub fn avg_block_size(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.members.len() as f64 / self.len() as f64
    }

    /// Rebuilds the CSR arrays in the order given by `order` (a permutation
    /// of block indices) — an `O(Σ|b|)` gather.
    fn permute(&mut self, order: &[u32]) {
        let mut keys = Vec::with_capacity(order.len());
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut members = Vec::with_capacity(self.members.len());
        let mut n_firsts = Vec::with_capacity(order.len());
        offsets.push(0u32);
        for &i in order {
            let i = i as usize;
            keys.push(self.keys[i]);
            n_firsts.push(self.n_firsts[i]);
            members.extend_from_slice(self.members_of(i));
            offsets.push(csr_offset(members.len()));
        }
        self.keys = keys;
        self.offsets = offsets;
        self.members = members;
        self.n_firsts = n_firsts;
    }

    /// Sorts blocks in non-decreasing cardinality — Block Scheduling
    /// (§5.2.1, Algorithm 3 line 2). Ties keep their previous relative
    /// order so results stay deterministic.
    pub fn sort_by_cardinality(&mut self) {
        let mut order: Vec<u32> = (0..self.len() as u32).collect();
        order.sort_by_key(|&i| self.cardinality(BlockId(i)));
        self.permute(&order);
    }

    /// Keeps only the blocks satisfying `pred`, preserving order — an
    /// in-place CSR compaction.
    pub fn retain(&mut self, mut pred: impl FnMut(BlockRef<'_>) -> bool) {
        let order: Vec<u32> = (0..self.len() as u32)
            .filter(|&i| pred(self.get(BlockId(i))))
            .collect();
        if order.len() != self.len() {
            self.permute(&order);
        }
    }

    /// Drops blocks that yield no valid comparison (singletons; single-
    /// source blocks in Clean-clean ER).
    pub fn retain_comparable(&mut self) {
        let kind = self.kind;
        self.retain(|b| b.cardinality(kind) > 0);
    }

    /// Borrowed views of the raw CSR arrays, in layout order — the
    /// persistence boundary (`sper-store`) serializes exactly these.
    pub fn raw_parts(&self) -> BlockCsrParts<'_> {
        BlockCsrParts {
            kind: self.kind,
            n_profiles: self.n_profiles,
            keys: &self.keys,
            offsets: &self.offsets,
            members: &self.members,
            n_firsts: &self.n_firsts,
        }
    }

    /// Consumes the collection into its owned CSR arrays `(keys, offsets,
    /// members, n_firsts)`, for passes that rewrite them in place (Block
    /// Filtering); [`from_raw_parts`](Self::from_raw_parts) reassembles.
    pub(crate) fn into_raw_parts(self) -> (Vec<TokenId>, Vec<u32>, Vec<ProfileId>, Vec<u32>) {
        (self.keys, self.offsets, self.members, self.n_firsts)
    }

    /// Reassembles a collection from raw CSR arrays — the inverse of
    /// [`raw_parts`](Self::raw_parts), also used by passes that pack CSR
    /// arrays directly (Block Filtering, streaming snapshots). Callers
    /// must validate untrusted input first (the persistence layer does);
    /// invariants are only debug-asserted here.
    pub fn from_raw_parts(
        kind: ErKind,
        n_profiles: usize,
        interner: Arc<TokenInterner>,
        keys: Vec<TokenId>,
        offsets: Vec<u32>,
        members: Vec<ProfileId>,
        n_firsts: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), keys.len() + 1);
        debug_assert_eq!(n_firsts.len(), keys.len());
        debug_assert_eq!(offsets.first().copied(), Some(0));
        debug_assert_eq!(offsets.last().copied(), Some(members.len() as u32));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            kind,
            n_profiles,
            interner,
            keys,
            offsets,
            members,
            n_firsts,
        }
    }
}

/// Borrowed raw CSR arrays of a [`BlockCollection`] (see
/// [`BlockCollection::raw_parts`]).
#[derive(Debug, Clone, Copy)]
pub struct BlockCsrParts<'a> {
    /// The task kind.
    pub kind: ErKind,
    /// Number of profiles in the underlying collection.
    pub n_profiles: usize,
    /// Block key per block id.
    pub keys: &'a [TokenId],
    /// CSR offsets into `members` (`|B| + 1` entries).
    pub offsets: &'a [u32],
    /// Packed members, `P1` partition first within each block.
    pub members: &'a [ProfileId],
    /// `|b ∩ P1|` per block id.
    pub n_firsts: &'a [u32],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProfileId {
        ProfileId(i)
    }

    fn coll(
        kind: ErKind,
        n: usize,
        it: &Arc<TokenInterner>,
        blocks: Vec<Block>,
    ) -> BlockCollection {
        BlockCollection::new(kind, n, Arc::clone(it), blocks)
    }

    #[test]
    fn dirty_cardinality_is_binomial() {
        let it = TokenInterner::shared();
        // Fig. 3b: |b_tailor| = 4 → ‖b_tailor‖ = C(4,2) = 6.
        let b = Block::new_dirty(it.intern("tailor"), vec![pid(0), pid(1), pid(2), pid(5)]);
        assert_eq!(b.size(), 4);
        assert_eq!(b.cardinality(ErKind::Dirty), 6);
        assert_eq!(b.comparisons(ErKind::Dirty).len(), 6);
    }

    #[test]
    fn clean_clean_cardinality_is_cross_product() {
        let it = TokenInterner::shared();
        let b = Block::new(
            it.intern("white"),
            vec![
                (pid(0), SourceId::FIRST),
                (pid(1), SourceId::FIRST),
                (pid(7), SourceId::SECOND),
            ],
        );
        assert_eq!(b.cardinality(ErKind::CleanClean), 2);
        let cmps = b.comparisons(ErKind::CleanClean);
        assert_eq!(cmps.len(), 2);
        assert!(cmps.contains(&Pair::new(pid(0), pid(7))));
        assert!(cmps.contains(&Pair::new(pid(1), pid(7))));
    }

    #[test]
    fn members_deduplicated_and_sorted() {
        let it = TokenInterner::shared();
        let b = Block::new_dirty(it.intern("k"), vec![pid(3), pid(1), pid(3)]);
        assert_eq!(b.profiles(), &[pid(1), pid(3)]);
    }

    #[test]
    fn single_source_block_yields_nothing_in_clean_clean() {
        let it = TokenInterner::shared();
        let b = Block::new(
            it.intern("k"),
            vec![(pid(0), SourceId::FIRST), (pid(1), SourceId::FIRST)],
        );
        assert_eq!(b.cardinality(ErKind::CleanClean), 0);
        assert!(b.comparisons(ErKind::CleanClean).is_empty());
    }

    #[test]
    fn collection_stats() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("a"), vec![pid(0), pid(1)]),
            Block::new_dirty(it.intern("b"), vec![pid(0), pid(1), pid(2)]),
        ];
        let coll = coll(ErKind::Dirty, 3, &it, blocks);
        assert_eq!(coll.len(), 2);
        assert_eq!(coll.total_comparisons(), 1 + 3);
        assert_eq!(coll.total_members(), 5);
        assert!((coll.avg_block_size() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn scheduling_sorts_by_cardinality() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("big"), vec![pid(0), pid(1), pid(2), pid(3)]),
            Block::new_dirty(it.intern("small"), vec![pid(0), pid(1)]),
        ];
        let mut coll = coll(ErKind::Dirty, 4, &it, blocks);
        coll.sort_by_cardinality();
        assert_eq!(&*coll.key_str(BlockId(0)), "small");
        assert_eq!(&*coll.key_str(BlockId(1)), "big");
    }

    #[test]
    fn push_member_matches_batch_construction() {
        let it = TokenInterner::shared();
        let k = it.intern("k");
        let mut streamed = Block::new_dirty(k, vec![]);
        for i in [1u32, 3, 3, 7] {
            streamed.push_member(pid(i), SourceId::FIRST);
        }
        assert_eq!(streamed, Block::new_dirty(k, vec![pid(1), pid(3), pid(7)]));

        let mut cc = Block::new(k, vec![]);
        cc.push_member(pid(0), SourceId::FIRST);
        cc.push_member(pid(2), SourceId::SECOND);
        cc.push_member(pid(5), SourceId::SECOND);
        let batch = Block::new(
            k,
            vec![
                (pid(0), SourceId::FIRST),
                (pid(2), SourceId::SECOND),
                (pid(5), SourceId::SECOND),
            ],
        );
        assert_eq!(cc, batch);
        assert_eq!(cc.cardinality(ErKind::CleanClean), 2);
    }

    #[test]
    #[should_panic(expected = "ascending id order")]
    fn push_member_rejects_out_of_order_ids() {
        let it = TokenInterner::shared();
        let mut b = Block::new_dirty(it.intern("k"), vec![pid(5)]);
        b.push_member(pid(2), SourceId::FIRST);
    }

    #[test]
    fn retain_comparable_drops_empty() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("single"), vec![pid(0)]),
            Block::new_dirty(it.intern("pair"), vec![pid(0), pid(1)]),
        ];
        let mut coll = coll(ErKind::Dirty, 2, &it, blocks);
        coll.retain_comparable();
        assert_eq!(coll.len(), 1);
        assert_eq!(&*coll.key_str(BlockId(0)), "pair");
        // CSR offsets compacted along with the blocks.
        assert_eq!(coll.total_members(), 2);
    }

    #[test]
    fn csr_round_trips_through_owned_blocks() {
        let it = TokenInterner::shared();
        let blocks = vec![
            Block::new_dirty(it.intern("a"), vec![pid(0), pid(2)]),
            Block::new_dirty(it.intern("b"), vec![pid(1), pid(2), pid(3)]),
        ];
        let coll = coll(ErKind::Dirty, 4, &it, blocks.clone());
        assert_eq!(coll.clone().into_blocks(), blocks);
        for (r, b) in coll.iter().zip(&blocks) {
            assert_eq!(r.to_block(), *b);
        }
    }
}
