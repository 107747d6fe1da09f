//! Match functions (§7.3).
//!
//! Progressive methods are decoupled from the match function: they only
//! decide the *order* of comparisons; a [`MatchFunction`] decides whether an
//! emitted pair actually matches. The paper evaluates with an expensive
//! function (edit distance, `O(s·t)`) and a cheap one (Jaccard, `O(s+t)`),
//! plus the implicit oracle (ground truth) for recall curves.

use crate::ground_truth::GroundTruth;
use crate::profile::{Profile, ProfileCollection, ProfileId};
use sper_text::{jaccard_similarity_sorted, levenshtein, TokenId, TokenInterner, Tokenizer};

/// Every profile's token set, extracted up front so the `O(s+t)` cost the
/// timing experiments measure is a pure comparison cost (as in the paper,
/// where profile strings exist up front).
///
/// One CSR: profile `p`'s distinct tokens are
/// `tokens[offsets[p]..offsets[p + 1]]`, in ascending [`TokenId`] order.
/// The ids come from an interner local to [`Self::extract`] that is
/// dropped before it returns, so only the equality and order of ids inside
/// one `ProfileText` mean anything. Id ↔ string is a bijection, so every
/// intersection count, union count and similarity equals the one over the
/// token strings.
#[derive(Debug, Clone)]
pub struct ProfileText {
    offsets: Vec<u32>,
    tokens: Vec<TokenId>,
}

impl ProfileText {
    /// Extracts the token sets of all profiles of `collection`.
    pub fn extract(collection: &ProfileCollection) -> Self {
        let interner = TokenInterner::new();
        let mut offsets = Vec::with_capacity(collection.len() + 1);
        offsets.push(0);
        let mut tokens = Vec::new();
        let mut set = Vec::new();
        for p in collection.iter() {
            set.clear();
            for attr in &p.attributes {
                Tokenizer.tokenize_ids_into(&attr.value, &interner, &mut set);
            }
            set.sort_unstable();
            set.dedup();
            tokens.extend_from_slice(&set);
            offsets.push(u32::try_from(tokens.len()).expect("fewer than 2^32 profile tokens"));
        }
        Self { offsets, tokens }
    }

    /// The distinct tokens of profile `id`, ascending.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn tokens(&self, id: ProfileId) -> &[TokenId] {
        let i = id.index();
        &self.tokens[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A binary match function over profile pairs.
pub trait MatchFunction {
    /// Decides whether the two profiles match.
    fn matches(&self, a: ProfileId, b: ProfileId) -> bool;

    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;
}

/// Oracle matcher: answers from the ground truth. Used for recall-
/// progressiveness experiments where we only care how early true matches
/// are emitted.
#[derive(Debug, Clone)]
pub struct OracleMatcher<'a> {
    truth: &'a GroundTruth,
}

impl<'a> OracleMatcher<'a> {
    /// Wraps a ground truth.
    pub fn new(truth: &'a GroundTruth) -> Self {
        Self { truth }
    }
}

impl MatchFunction for OracleMatcher<'_> {
    #[inline]
    fn matches(&self, a: ProfileId, b: ProfileId) -> bool {
        self.truth.is_match(a, b)
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// The expensive match function: normalized edit distance over each
/// profile's values joined by spaces, `O(s·t)` per comparison.
#[derive(Debug)]
pub struct EditDistanceMatcher {
    /// Concatenated attribute values per profile.
    concat: Vec<String>,
    /// Similarity threshold in `\[0, 1\]`; `≥ threshold` is a match.
    pub threshold: f64,
}

impl EditDistanceMatcher {
    /// Creates the matcher over `collection`'s profiles with the given
    /// similarity threshold.
    pub fn new(collection: &ProfileCollection, threshold: f64) -> Self {
        let concat = collection.iter().map(Profile::concat_values).collect();
        Self { concat, threshold }
    }

    /// Raw similarity in `\[0, 1\]` between two profiles.
    pub fn similarity(&self, a: ProfileId, b: ProfileId) -> f64 {
        let sa = &self.concat[a.index()];
        let sb = &self.concat[b.index()];
        let max = sa.chars().count().max(sb.chars().count());
        if max == 0 {
            return 1.0;
        }
        1.0 - levenshtein(sa, sb) as f64 / max as f64
    }
}

impl MatchFunction for EditDistanceMatcher {
    fn matches(&self, a: ProfileId, b: ProfileId) -> bool {
        self.similarity(a, b) >= self.threshold
    }

    fn name(&self) -> &'static str {
        "edit-distance"
    }
}

/// The cheap match function: Jaccard similarity of token sets, `O(s+t)` per
/// comparison as one merge of two sorted id lists.
#[derive(Debug)]
pub struct JaccardMatcher<'a> {
    text: &'a ProfileText,
    /// Similarity threshold in `\[0, 1\]`; `≥ threshold` is a match.
    pub threshold: f64,
}

impl<'a> JaccardMatcher<'a> {
    /// Creates the matcher with the given similarity threshold.
    pub fn new(text: &'a ProfileText, threshold: f64) -> Self {
        Self { text, threshold }
    }

    /// Raw similarity in `\[0, 1\]` between two profiles.
    pub fn similarity(&self, a: ProfileId, b: ProfileId) -> f64 {
        jaccard_similarity_sorted(self.text.tokens(a), self.text.tokens(b))
    }
}

impl MatchFunction for JaccardMatcher<'_> {
    fn matches(&self, a: ProfileId, b: ProfileId) -> bool {
        self.similarity(a, b) >= self.threshold
    }

    fn name(&self) -> &'static str {
        "jaccard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::Pair;
    use crate::profile::ProfileCollectionBuilder;

    fn fixture() -> (ProfileCollection, GroundTruth) {
        let mut b = ProfileCollectionBuilder::dirty();
        let a = b.add_profile([("name", "Carl White"), ("job", "tailor")]);
        let c = b.add_profile([("fullname", "Karl White"), ("prof", "tailor")]);
        let d = b.add_profile([("title", "database systems tutorial")]);
        let coll = b.build();
        let gt = GroundTruth::from_pairs(3, [Pair::new(a, c)]);
        let _ = d;
        (coll, gt)
    }

    #[test]
    fn oracle_reflects_truth() {
        let (_, gt) = fixture();
        let m = OracleMatcher::new(&gt);
        assert!(m.matches(ProfileId(0), ProfileId(1)));
        assert!(!m.matches(ProfileId(0), ProfileId(2)));
        assert_eq!(m.name(), "oracle");
    }

    #[test]
    fn edit_distance_close_pair() {
        let (coll, _) = fixture();
        let m = EditDistanceMatcher::new(&coll, 0.7);
        // "Carl White tailor" vs "Karl White tailor": one edit in 17 chars.
        assert_eq!(m.similarity(ProfileId(0), ProfileId(1)), 1.0 - 1.0 / 17.0);
        assert!(m.matches(ProfileId(0), ProfileId(1)));
        assert!(!m.matches(ProfileId(0), ProfileId(2)));
        assert!(m.similarity(ProfileId(0), ProfileId(0)) >= 1.0 - 1e-12);
    }

    #[test]
    fn jaccard_close_pair() {
        let (coll, _) = fixture();
        let text = ProfileText::extract(&coll);
        let m = JaccardMatcher::new(&text, 0.4);
        // {carl, white, tailor} vs {karl, white, tailor}: 2/4 = 0.5.
        assert_eq!(m.similarity(ProfileId(0), ProfileId(1)), 0.5);
        assert!(m.matches(ProfileId(0), ProfileId(1)));
        assert!(!m.matches(ProfileId(0), ProfileId(2)));
    }

    #[test]
    fn thresholds_are_inclusive() {
        let (coll, _) = fixture();
        let text = ProfileText::extract(&coll);
        let m = JaccardMatcher::new(&text, 0.5);
        assert!(m.matches(ProfileId(0), ProfileId(1)));
        let strict = JaccardMatcher::new(&text, 0.5 + 1e-9);
        assert!(!strict.matches(ProfileId(0), ProfileId(1)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::profile::ProfileCollectionBuilder;
    use proptest::prelude::*;
    use sper_text::jaccard_similarity;

    /// A cell: words, punctuation only, empty, or multi-byte text.
    fn cell() -> impl Strategy<Value = String> {
        (
            0u8..4,
            "[a-dA-D0-2 ]{1,12}",
            "[ ,.;:/_-]{1,4}",
            "[a-cé東ß ]{1,6}",
        )
            .prop_map(|(kind, words, punctuation, multi_byte)| match kind {
                0 => words,
                1 => punctuation,
                2 => String::new(),
                _ => multi_byte,
            })
    }

    /// A Dirty or Clean-clean collection of up to 8 + 8 profiles.
    fn collection() -> impl Strategy<Value = ProfileCollection> {
        let rows = || collection::vec(collection::vec(cell(), 0..4), 0..8);
        (0u8..2, rows(), rows()).prop_map(|(clean, first, second)| {
            let add = |b: &mut ProfileCollectionBuilder, rows: Vec<Vec<String>>| {
                for row in rows {
                    b.add_profile(
                        row.into_iter()
                            .enumerate()
                            .map(|(i, v)| (format!("a{i}"), v)),
                    );
                }
            };
            if clean == 0 {
                let mut b = ProfileCollectionBuilder::dirty();
                add(&mut b, first);
                return b.build();
            }
            let mut b = ProfileCollectionBuilder::clean_clean();
            add(&mut b, first);
            b.start_second_source();
            add(&mut b, second);
            b.build()
        })
    }

    proptest! {
        /// Jaccard over interned ids is the hash-set reference over the
        /// token strings, bit for bit, and every id list is strictly
        /// ascending.
        #[test]
        fn id_jaccard_equals_the_string_reference(coll in collection()) {
            let text = ProfileText::extract(&coll);
            let m = JaccardMatcher::new(&text, 0.5);
            let strings: Vec<Vec<String>> = coll
                .iter()
                .map(|p| p.attributes.iter().flat_map(|a| Tokenizer.tokenize(&a.value)).collect())
                .collect();
            for p in coll.iter() {
                prop_assert!(text.tokens(p.id).windows(2).all(|w| w[0] < w[1]));
            }
            for a in coll.iter() {
                for b in coll.iter() {
                    let want = jaccard_similarity(&strings[a.id.index()], &strings[b.id.index()]);
                    prop_assert_eq!(m.similarity(a.id, b.id).to_bits(), want.to_bits());
                }
            }
        }
    }
}
