//! Token interning: the string ↔ dense-id boundary of the columnar core.
//!
//! Every blocking substrate in the workspace (token blocks, suffix blocks,
//! Neighbor List placements) is keyed by attribute-value tokens. Interning
//! each distinct token string to a dense [`TokenId`] once moves every hot
//! path from string hashing/cloning to `u32` arithmetic, and lets the block
//! index be a flat `Vec` indexed by id — the same compact-integer idiom the
//! paper prescribes for profile ids (§5.1.1, §5.2.1), applied to tokens.
//!
//! One dictionary, [`Vocabulary`], maps tokens to ids everywhere: behind
//! the shared [`TokenInterner`], as a parallel build's worker-local
//! vocabulary, and as the matcher's private one. It keys a token of at
//! most 8 bytes by those bytes packed into a `u64` (99.5 % of freebase's
//! distinct tokens, 99.8 % of its occurrences), so a lookup hashes one
//! word and compares one word, with no pointer to follow; a longer token
//! is keyed by its text.
//!
//! The interner is **append-only** and **concurrent**: ids are never
//! reassigned or removed, so readers can cache ids across calls, and the
//! streaming substrates (`sper-stream`) can share one interner across
//! ingest epochs. Ids are assigned first-come; the blocking builds keep
//! them equal to one sequential pass at every worker count, but nothing
//! observable may depend on them — ordered outputs sort by the *resolved
//! string*, for which [`TokenInterner::rank`] provides a dense
//! lexicographic rank table.

use crate::fxhash::FxHashMap;
use std::sync::{Arc, RwLock};

/// Dense identifier of an interned token string.
///
/// Ids are dense (`0..len`), so token-keyed indexes are flat arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TokenId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Up to 8 bytes, little-endian, zero-padded: byte `i` in bits `8i..8i+8`.
#[inline]
fn load_le(b: &[u8]) -> u64 {
    debug_assert!(b.len() <= 8);
    let n = b.len();
    if n >= 4 {
        // Two overlapping 4-byte loads: bytes 0..4, and n-4..n shifted into
        // place; the overlap ORs equal bytes.
        let lo = u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let hi = u64::from(u32::from_le_bytes([b[n - 4], b[n - 3], b[n - 2], b[n - 1]]));
        lo | hi << (8 * (n - 4))
    } else if n > 0 {
        u64::from(b[0])
            | u64::from(b[n / 2]) << (8 * (n / 2))
            | u64::from(b[n - 1]) << (8 * (n - 1))
    } else {
        0
    }
}

/// The packed key of a token of at most 8 bytes whose last byte is not
/// NUL: zero padding then marks where it ends, so distinct such tokens
/// pack to distinct words. `None` sends a token to the text-keyed map.
#[inline]
fn short_key(token: &[u8]) -> Option<u64> {
    (token.len() <= 8 && token.last() != Some(&0)).then(|| load_le(token))
}

/// The first 8 bytes of `s`, zero-padded, as a big-endian word: comparing
/// two prefixes orders their strings unless the prefixes are equal (the
/// padding sorts below every byte but NUL, and a NUL there only ties).
#[inline]
fn prefix(s: &str) -> u64 {
    let b = s.as_bytes();
    load_le(&b[..b.len().min(8)]).swap_bytes()
}

/// OR-ing `0x20` into each byte lowercases an ASCII alphanumeric token:
/// it maps `A-Z` to `a-z` and leaves `a-z` and `0-9` (which have bit 5
/// set) as they are.
const LOWER: u64 = 0x2020_2020_2020_2020;

/// A token → [`TokenId`] dictionary with id-ordered strings: the one map
/// type behind every interning path.
///
/// A token of at most 8 bytes (not ending in NUL) is keyed by its bytes
/// packed into a `u64`, a longer one by its text; both maps hash with the
/// Fx hasher, whose rotated finish spreads packed keys over the buckets.
/// Ids are first-come and dense.
///
/// It is the [`TokenInterner`]'s table (reached through
/// [`TokenInterner::with_vocabulary`] for a batch of lookups under one
/// lock), a parallel build's worker-local dictionary (published into the
/// shared interner in a fixed order, see [`Self::intern_shared`]), and a
/// lock-free dictionary of its own where no id leaves the caller.
///
/// ```
/// use sper_text::{TokenId, Tokenizer, Vocabulary};
///
/// let mut vocab = Vocabulary::new();
/// let mut ids = Vec::new();
/// Tokenizer.tokenize_ids_with("Carl WHITE, carl", &mut vocab, &mut ids);
/// assert_eq!(ids, [TokenId(0), TokenId(1), TokenId(0)]);
/// assert_eq!(vocab.get("white"), Some(TokenId(1)));
/// assert_eq!(vocab.resolve(TokenId(1)), "white");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    /// Tokens of at most 8 bytes not ending in NUL, by packed bytes.
    short: FxHashMap<u64, TokenId>,
    /// Every other token, by its text (sharing the `strings` entry).
    long: FxHashMap<Arc<str>, TokenId>,
    /// Token text by id.
    strings: Vec<Arc<str>>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The token strings, indexed by id.
    pub fn strings(&self) -> &[Arc<str>] {
        &self.strings
    }

    /// The string of `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this vocabulary.
    pub fn resolve(&self, id: TokenId) -> &str {
        &self.strings[id.index()]
    }

    /// The id of `token`, if interned.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        match short_key(token.as_bytes()) {
            Some(key) => self.short.get(&key),
            None => self.long.get(token),
        }
        .copied()
    }

    /// Interns `token`, returning its id (a new one for a first sighting).
    pub fn intern(&mut self, token: &str) -> TokenId {
        match short_key(token.as_bytes()) {
            Some(key) => self.intern_short(key, || Arc::from(token)),
            None => self.intern_long(token, || Arc::from(token)),
        }
    }

    /// Interns a string another vocabulary allocated, keeping its
    /// allocation when the token is new here — how a worker-local
    /// vocabulary publishes its tokens into the shared one.
    pub fn intern_shared(&mut self, token: Arc<str>) -> TokenId {
        match short_key(token.as_bytes()) {
            Some(key) => self.intern_short(key, || token),
            None => self.intern_long(&Arc::clone(&token), || token),
        }
    }

    /// Interns a raw tokenizer token — a non-empty run of ASCII
    /// alphanumerics, not yet lowercased — as its lowercase form. `buf`
    /// receives the lowercased text of a token longer than 8 bytes.
    #[inline]
    pub(crate) fn intern_raw(&mut self, raw: &[u8], buf: &mut String) -> TokenId {
        debug_assert!(!raw.is_empty() && raw.iter().all(u8::is_ascii_alphanumeric));
        if raw.len() <= 8 {
            let key = load_le(raw) | LOWER >> (8 * (8 - raw.len()));
            return self.intern_short(key, || {
                let bytes = key.to_le_bytes();
                Arc::from(std::str::from_utf8(&bytes[..raw.len()]).expect("ASCII token"))
            });
        }
        buf.clear();
        buf.extend(raw.iter().map(|&b| char::from(b | 0x20)));
        let token: &str = buf;
        self.intern_long(token, || Arc::from(token))
    }

    #[inline]
    fn intern_short(&mut self, key: u64, text: impl FnOnce() -> Arc<str>) -> TokenId {
        let next = TokenId(self.strings.len() as u32);
        let id = *self.short.entry(key).or_insert(next);
        if id == next {
            self.strings.push(text());
        }
        id
    }

    fn intern_long(&mut self, token: &str, text: impl FnOnce() -> Arc<str>) -> TokenId {
        if let Some(&id) = self.long.get(token) {
            return id;
        }
        let id = TokenId(self.strings.len() as u32);
        let text = text();
        self.long.insert(Arc::clone(&text), id);
        self.strings.push(text);
        id
    }
}

/// Sorts `items` by the strings of their ids: by the big-endian 8-byte
/// [`prefix`] first, comparing strings only where prefixes are equal, so
/// most comparisons are one `u64` compare with no string to load.
fn sort_by_text<T: Copy>(strings: &[Arc<str>], items: &mut [T], id: impl Fn(T) -> usize) {
    let mut keyed: Vec<(u64, T)> = items
        .iter()
        .map(|&x| (prefix(&strings[id(x)]), x))
        .collect();
    keyed.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| strings[id(a.1)].cmp(&strings[id(b.1)]))
    });
    for (x, (_, sorted)) in items.iter_mut().zip(keyed) {
        *x = sorted;
    }
}

/// Append-only concurrent string interner: a [`Vocabulary`] behind a lock.
///
/// * [`intern`](Self::intern) takes `&self` — a read-lock fast path for
///   already-known tokens, a short write-lock only for new ones.
/// * [`with_vocabulary`](Self::with_vocabulary) holds the write lock
///   across a whole batch of lookups (a build's tokenize loop, a value's
///   tokens), so each token costs a map probe and no lock.
/// * [`resolve`](Self::resolve) returns the shared `Arc<str>`, so callers
///   keep zero-copy handles to token text.
///
/// Shared as `Arc<TokenInterner>` between every structure built over the
/// same vocabulary (block collections, neighbor lists, streaming epochs).
///
/// ```
/// use sper_text::TokenInterner;
///
/// let interner = TokenInterner::shared();
/// let carl = interner.intern("carl");
/// assert_eq!(interner.intern("carl"), carl, "idempotent");
/// assert_eq!(&*interner.resolve(carl), "carl");
/// // The rank table orders ids by their string, for text-ordered output.
/// let white = interner.intern("white");
/// let rank = interner.rank();
/// assert!(rank[carl.index()] < rank[white.index()]);
/// ```
#[derive(Debug, Default)]
pub struct TokenInterner {
    vocab: RwLock<Vocabulary>,
    /// Memoized lexicographic rank table, keyed by the vocabulary size it
    /// was computed for — append-only interning means equal size ⇒
    /// identical table, so steady-state `rank()` calls (e.g. one per
    /// streaming snapshot) are a read-lock and an `Arc` clone, and a grown
    /// vocabulary merges its new ids into this table.
    rank_cache: RwLock<(usize, Arc<Vec<u32>>)>,
}

/// Error of [`TokenInterner::from_strings`]: the input listed the same
/// token twice, which would make id lookups ambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateToken {
    /// The repeated token text.
    pub token: String,
    /// Index (= would-be id) of the second occurrence.
    pub index: usize,
}

impl std::fmt::Display for DuplicateToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "duplicate token {:?} at index {}",
            self.token, self.index
        )
    }
}

impl std::error::Error for DuplicateToken {}

impl TokenInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner behind an [`Arc`], ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Rebuilds an interner from its id-ordered vocabulary — the inverse
    /// of [`strings`](Self::strings), used by the persistence layer
    /// (`sper-store`) to restore snapshots with every id preserved.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateToken`] when the same string appears twice: ids
    /// could no longer round-trip through [`get`](Self::get).
    pub fn from_strings<S: AsRef<str>>(
        strings: impl IntoIterator<Item = S>,
    ) -> Result<Self, DuplicateToken> {
        let mut vocab = Vocabulary::new();
        for (i, s) in strings.into_iter().enumerate() {
            let s = s.as_ref();
            if vocab.intern(s).index() != i {
                return Err(DuplicateToken {
                    token: s.to_string(),
                    index: i,
                });
            }
        }
        Ok(Self {
            vocab: RwLock::new(vocab),
            rank_cache: RwLock::default(),
        })
    }

    /// Runs `f` with the vocabulary under the write lock — one lock for a
    /// whole batch of lookups. Other callers wait until `f` returns.
    pub fn with_vocabulary<R>(&self, f: impl FnOnce(&mut Vocabulary) -> R) -> R {
        f(&mut self.vocab.write().expect("interner poisoned"))
    }

    /// Interns `token`, returning its dense id (allocating a new one for a
    /// first sighting).
    pub fn intern(&self, token: &str) -> TokenId {
        if let Some(id) = self.get(token) {
            return id;
        }
        // `intern` re-checks: another writer may have interned it between
        // the locks.
        self.with_vocabulary(|vocab| vocab.intern(token))
    }

    /// The id of `token` if it has been interned.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        self.vocab.read().expect("interner poisoned").get(token)
    }

    /// The string of an interned id (zero-copy shared handle).
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this interner.
    pub fn resolve(&self, id: TokenId) -> Arc<str> {
        Arc::clone(&self.vocab.read().expect("interner poisoned").strings[id.index()])
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.vocab.read().expect("interner poisoned").len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned strings, indexed by id.
    pub fn strings(&self) -> Vec<Arc<str>> {
        self.vocab
            .read()
            .expect("interner poisoned")
            .strings
            .to_vec()
    }

    /// Sorts `items` by the strings of their token ids, `key(item)`: by
    /// an 8-byte prefix, then by text where prefixes tie. Items with
    /// distinct ids get one order, whatever order the ids were assigned in.
    pub fn sort_by_str<T: Copy>(&self, items: &mut [T], key: impl Fn(T) -> TokenId) {
        let vocab = self.vocab.read().expect("interner poisoned");
        sort_by_text(&vocab.strings, items, |x| key(x).index());
    }

    /// Lexicographic rank table: `rank[id] = r` iff the id's string is the
    /// `r`-th smallest interned string, so every downstream "order by token
    /// text" is a `u32` comparison.
    ///
    /// Memoized per vocabulary size and grown incrementally. Interning only
    /// appends, so the memoized table still orders its `n` ids; a call after
    /// `m` new tokens sorts only those — by their big-endian 8-byte prefix,
    /// comparing strings only on equal prefixes — and merges them into the
    /// memoized order: `O(m log m + m log n)` comparisons plus `O(n)`
    /// integer work, instead of re-sorting the vocabulary. Strings are
    /// distinct, so the merge has no ties and the table does not depend on
    /// the order in which ids were assigned.
    pub fn rank(&self) -> Arc<Vec<u32>> {
        let (known, memo) = {
            let cache = self.rank_cache.read().expect("interner poisoned");
            (cache.0, Arc::clone(&cache.1))
        };
        let vocab = self.vocab.read().expect("interner poisoned");
        let strings = &vocab.strings;
        let len = strings.len();
        if known == len {
            return memo;
        }
        // The memoized order, recovered by inverting its rank table.
        let mut order = vec![0u32; known];
        for (id, &r) in memo.iter().enumerate() {
            order[r as usize] = id as u32;
        }
        let mut fresh: Vec<u32> = (known as u32..len as u32).collect();
        sort_by_text(strings, &mut fresh, |id| id as usize);
        // `below[j]`: memoized strings sorting before `fresh[j]`. It never
        // decreases with `j`, so each search starts where the last ended.
        let key = |id: u32| {
            let s = &*strings[id as usize];
            (prefix(s), s)
        };
        let mut below = Vec::with_capacity(fresh.len());
        let mut lo = 0;
        for &id in &fresh {
            let k = key(id);
            lo += order[lo..].partition_point(|&o| key(o) < k);
            below.push(lo);
        }
        drop(vocab);
        // An old string moves up by the fresh strings sorting before it; a
        // fresh one sits after its `below` old strings and `j` fresh ones.
        let mut rank = vec![0u32; len];
        let mut j = 0;
        for (r, &id) in order.iter().enumerate() {
            while below.get(j).is_some_and(|&b| b <= r) {
                j += 1;
            }
            rank[id as usize] = (r + j) as u32;
        }
        for (j, (&id, &b)) in fresh.iter().zip(&below).enumerate() {
            rank[id as usize] = (b + j) as u32;
        }
        let rank = Arc::new(rank);
        let mut cache = self.rank_cache.write().expect("interner poisoned");
        // Keep whichever table covers more of the vocabulary.
        if len >= cache.0 {
            *cache = (len, Arc::clone(&rank));
        }
        rank
    }

    /// Compares two ids by their resolved strings (for deterministic,
    /// text-ordered output without materializing a rank table).
    pub fn cmp_str(&self, a: TokenId, b: TokenId) -> std::cmp::Ordering {
        let vocab = self.vocab.read().expect("interner poisoned");
        vocab.strings[a.index()].cmp(&vocab.strings[b.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let it = TokenInterner::new();
        let a = it.intern("carl");
        let b = it.intern("white");
        assert_eq!(a, TokenId(0));
        assert_eq!(b, TokenId(1));
        assert_eq!(it.intern("carl"), a);
        assert_eq!(it.len(), 2);
        assert_eq!(&*it.resolve(a), "carl");
        assert_eq!(it.get("white"), Some(b));
        assert_eq!(it.get("absent"), None);
    }

    #[test]
    fn rank_orders_by_string() {
        let it = TokenInterner::new();
        let z = it.intern("zeta");
        let a = it.intern("alpha");
        let m = it.intern("mid");
        let rank = it.rank();
        assert_eq!(rank[a.index()], 0);
        assert_eq!(rank[m.index()], 1);
        assert_eq!(rank[z.index()], 2);
        assert_eq!(it.cmp_str(a, z), std::cmp::Ordering::Less);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let it = TokenInterner::shared();
        let tokens: Vec<String> = (0..200).map(|i| format!("tok{}", i % 50)).collect();
        std::thread::scope(|scope| {
            for chunk in tokens.chunks(50) {
                let it = Arc::clone(&it);
                scope.spawn(move || {
                    for t in chunk {
                        it.intern(t);
                    }
                });
            }
        });
        assert_eq!(it.len(), 50);
        // Every token maps to the id whose resolution round-trips.
        for t in &tokens {
            let id = it.get(t).expect("interned");
            assert_eq!(&*it.resolve(id), t.as_str());
        }
    }

    #[test]
    fn from_strings_preserves_ids() {
        let original = TokenInterner::new();
        for t in ["zeta", "alpha", "mid"] {
            original.intern(t);
        }
        let strings = original.strings();
        let restored = TokenInterner::from_strings(strings.iter().map(|s| &**s)).unwrap();
        assert_eq!(restored.len(), original.len());
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(restored.get(s), Some(TokenId(i as u32)));
            assert_eq!(&*restored.resolve(TokenId(i as u32)), &**s);
        }
        assert_eq!(restored.rank(), original.rank());
        // Restored interners keep interning with the next dense id.
        assert_eq!(restored.intern("new-token"), TokenId(3));
    }

    #[test]
    fn from_strings_rejects_duplicates() {
        let err = TokenInterner::from_strings(["a", "b", "a"]).unwrap_err();
        assert_eq!(err.token, "a");
        assert_eq!(err.index, 2);
    }

    #[test]
    fn empty_interner() {
        let it = TokenInterner::new();
        assert!(it.is_empty());
        assert!(it.rank().is_empty());
    }

    /// The rank table a fresh interner over the same id-ordered
    /// vocabulary computes with one full sort.
    pub(super) fn full_sort_rank(strings: &[Arc<str>]) -> Arc<Vec<u32>> {
        TokenInterner::from_strings(strings.iter().map(|s| &**s))
            .expect("interned strings are distinct")
            .rank()
    }

    #[test]
    fn rank_while_other_threads_intern() {
        const ROUNDS: usize = 20;
        let words: Vec<String> = (0..2_000u32)
            .map(|i| format!("w{:x}", i.wrapping_mul(2_654_435_761) % 4_099))
            .collect();
        let it = TokenInterner::new();
        // Every round, both interning threads add a slice while the third
        // thread asks for the rank table.
        let barrier = std::sync::Barrier::new(3);
        let tables = std::thread::scope(|scope| {
            for half in words.chunks(words.len() / 2) {
                let (it, barrier) = (&it, &barrier);
                scope.spawn(move || {
                    for slice in half.chunks(half.len() / ROUNDS) {
                        barrier.wait();
                        for w in slice {
                            it.intern(w);
                        }
                    }
                });
            }
            let ranker = scope.spawn(|| {
                (0..ROUNDS)
                    .map(|_| {
                        barrier.wait();
                        it.rank()
                    })
                    .collect::<Vec<_>>()
            });
            ranker.join().expect("ranking thread panicked")
        });
        let strings = it.strings();
        for table in &tables {
            // Each table ranks exactly the vocabulary prefix it covered.
            assert_eq!(*table, full_sort_rank(&strings[..table.len()]));
        }
        assert_eq!(it.rank(), full_sort_rank(&strings));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::full_sort_rank;
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Tokens of 0–20 bytes that often share their first 8 bytes, around
    /// the packed-key boundary: exactly 8 bytes, 7, ending in NUL, with an
    /// inner NUL, and multi-byte — `intern` takes any `&str`.
    fn token() -> impl Strategy<Value = String> {
        const HEADS: [&str; 6] = ["abcdefgh", "abcdefg", "abc\0", "a\0b", "é東", ""];
        (0..HEADS.len(), "[a-e\0é]{0,6}").prop_map(|(i, tail)| format!("{}{tail}", HEADS[i]))
    }

    proptest! {
        /// Interleaved intern batches and `rank()` calls: every table
        /// equals a full sort of the vocabulary so far — whether
        /// the new tokens sort before, between or after the old ones, share
        /// an 8-byte prefix with them (the tie path of the prefix-keyed
        /// sort and merge), and when a call follows no growth at all.
        #[test]
        fn merged_rank_equals_a_full_sort(
            batches in proptest::collection::vec(
                proptest::collection::vec(token(), 0..12),
                1..10,
            ),
        ) {
            let it = TokenInterner::new();
            for batch in &batches {
                for token in batch {
                    it.intern(token);
                }
                let table = it.rank();
                prop_assert_eq!(&table, &full_sort_rank(&it.strings()));
                prop_assert_eq!(&it.rank(), &table, "no growth, same table");
            }
            let mut by_rank = it.strings();
            by_rank.sort();
            let mut ids: Vec<TokenId> = (0..it.len() as u32).map(TokenId).collect();
            it.sort_by_str(&mut ids, |id| id);
            let sorted: Vec<Arc<str>> = ids.iter().map(|&id| it.resolve(id)).collect();
            prop_assert_eq!(sorted, by_rank);
        }

        /// Ids, `get`, `resolve`, `from_strings` and publishing through
        /// `intern_shared` agree with a first-come `HashMap` across several
        /// rounds of table growth.
        #[test]
        fn ids_agree_with_a_first_come_map(
            tokens in proptest::collection::vec(token(), 0..400),
        ) {
            let it = TokenInterner::new();
            let mut reference: HashMap<String, u32> = HashMap::new();
            for t in &tokens {
                let next = reference.len() as u32;
                let want = *reference.entry(t.clone()).or_insert(next);
                prop_assert_eq!(it.intern(t), TokenId(want), "{:?}", t);
            }
            prop_assert_eq!(it.len(), reference.len());
            for (s, &id) in &reference {
                prop_assert_eq!(it.get(s), Some(TokenId(id)));
                prop_assert_eq!(&*it.resolve(TokenId(id)), s.as_str());
                // One byte longer or shorter: the same packed word would
                // alias these without the trailing-NUL rule.
                for probe in [format!("{s}\0"), s.chars().skip(1).collect()] {
                    prop_assert_eq!(
                        it.get(&probe),
                        reference.get(&probe).map(|&id| TokenId(id)),
                        "{:?}", probe
                    );
                }
            }
            let strings = it.strings();
            let restored = TokenInterner::from_strings(strings.iter().map(|s| &**s))
                .expect("distinct strings");
            let mut published = Vocabulary::new();
            for (i, s) in strings.iter().enumerate() {
                prop_assert_eq!(restored.get(s), Some(TokenId(i as u32)));
                prop_assert_eq!(published.intern_shared(Arc::clone(s)), TokenId(i as u32));
                prop_assert_eq!(published.intern_shared(Arc::from(&**s)), TokenId(i as u32));
            }
        }
    }
}
