//! Token interning: the string ↔ dense-id boundary of the columnar core.
//!
//! Every blocking substrate in the workspace (token blocks, suffix blocks,
//! Neighbor List placements) is keyed by attribute-value tokens. Interning
//! each distinct token string to a dense [`TokenId`] once moves every hot
//! path from string hashing/cloning to `u32` arithmetic, and lets the block
//! index be a flat `Vec` indexed by id — the same compact-integer idiom the
//! paper prescribes for profile ids (§5.1.1, §5.2.1), applied to tokens.
//!
//! The interner is **append-only** and **concurrent**: ids are never
//! reassigned or removed, so readers can cache ids across calls, the
//! parallel blocking workers (`sper-blocking::parallel`) can intern from
//! many threads, and the streaming substrates (`sper-stream`) can share one
//! interner across ingest epochs. Id assignment order is an implementation
//! detail (first-come); nothing observable may depend on it — ordered
//! outputs sort by the *resolved string*, for which [`TokenInterner::rank`]
//! provides a dense lexicographic rank table.

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

#[derive(Debug, Default)]
struct Inner {
    /// Fx-hashed: tokens are trusted in-process data, hashed once per
    /// intern call — the fast hash is the point of the exercise.
    map: FxHashMap<Arc<str>, TokenId>,
    strings: Vec<Arc<str>>,
}

/// Append-only concurrent string interner.
///
/// * [`intern`](Self::intern) takes `&self` — a read-lock fast path for
///   already-known tokens (the overwhelmingly common case after warm-up),
///   a short write-lock only for genuinely new tokens.
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
    inner: RwLock<Inner>,
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
        let mut inner = Inner::default();
        for (i, s) in strings.into_iter().enumerate() {
            let s: Arc<str> = Arc::from(s.as_ref());
            if inner.map.contains_key(&s) {
                return Err(DuplicateToken {
                    token: s.to_string(),
                    index: i,
                });
            }
            inner.map.insert(Arc::clone(&s), TokenId(i as u32));
            inner.strings.push(s);
        }
        Ok(Self {
            inner: RwLock::new(inner),
            rank_cache: RwLock::default(),
        })
    }

    /// Interns `token`, returning its dense id (allocating a new one for a
    /// first sighting).
    pub fn intern(&self, token: &str) -> TokenId {
        if let Some(&id) = self.inner.read().expect("interner poisoned").map.get(token) {
            return id;
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        // Re-check: another writer may have interned it between the locks.
        if let Some(&id) = inner.map.get(token) {
            return id;
        }
        let id = TokenId(inner.strings.len() as u32);
        let s: Arc<str> = Arc::from(token);
        inner.strings.push(Arc::clone(&s));
        inner.map.insert(s, id);
        id
    }

    /// The id of `token` if it has been interned.
    pub fn get(&self, token: &str) -> Option<TokenId> {
        self.inner
            .read()
            .expect("interner poisoned")
            .map
            .get(token)
            .copied()
    }

    /// The string of an interned id (zero-copy shared handle).
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this interner.
    pub fn resolve(&self, id: TokenId) -> Arc<str> {
        Arc::clone(&self.inner.read().expect("interner poisoned").strings[id.index()])
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner poisoned").strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned strings, indexed by id.
    pub fn strings(&self) -> Vec<Arc<str>> {
        self.inner
            .read()
            .expect("interner poisoned")
            .strings
            .clone()
    }

    /// Lexicographic rank table: `rank[id] = r` iff the id's string is the
    /// `r`-th smallest interned string, so every downstream "order by token
    /// text" is a `u32` comparison.
    ///
    /// Memoized per vocabulary size and grown incrementally. Interning only
    /// appends, so the memoized table still orders its `n` ids; a call after
    /// `m` new tokens sorts only those and merges them into the memoized
    /// order — `O(m log m + m log n)` string comparisons plus `O(n)` integer
    /// work, instead of re-sorting the vocabulary. Strings are distinct, so
    /// the merge has no ties and the table does not depend on the order in
    /// which ids were assigned.
    pub fn rank(&self) -> Arc<Vec<u32>> {
        let (known, memo) = {
            let cache = self.rank_cache.read().expect("interner poisoned");
            (cache.0, Arc::clone(&cache.1))
        };
        let inner = self.inner.read().expect("interner poisoned");
        let strings = &inner.strings;
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
        fresh.sort_unstable_by(|&a, &b| strings[a as usize].cmp(&strings[b as usize]));
        // `below[j]`: memoized strings sorting before `fresh[j]`. It never
        // decreases with `j`, so each search starts where the last ended.
        let mut below = Vec::with_capacity(fresh.len());
        let mut lo = 0;
        for &id in &fresh {
            let s = &strings[id as usize];
            lo += order[lo..].partition_point(|&o| strings[o as usize] < *s);
            below.push(lo);
        }
        drop(inner);
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
        let inner = self.inner.read().expect("interner poisoned");
        inner.strings[a.index()].cmp(&inner.strings[b.index()])
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

    proptest! {
        /// Interleaved intern batches and `rank()` calls: every table
        /// equals a full sort of the vocabulary so far — whether
        /// the new tokens sort before, between or after the old ones, and
        /// when a call follows no growth at all.
        #[test]
        fn merged_rank_equals_a_full_sort(
            batches in proptest::collection::vec(
                proptest::collection::vec("[a-e]{0,4}", 0..8),
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
        }
    }
}
