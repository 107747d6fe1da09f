//! Match functions (§7.3).
//!
//! Progressive methods are decoupled from the match function: they only
//! decide the *order* of comparisons; a [`MatchFunction`] decides whether an
//! emitted pair actually matches. The paper evaluates with an expensive
//! function (edit distance, `O(s·t)`) and a cheap one (Jaccard, `O(s+t)`),
//! plus the implicit oracle (ground truth) for recall curves.

use crate::ground_truth::GroundTruth;
use crate::profile::{Profile, ProfileCollection, ProfileId};
use sper_text::{jaccard_similarity_sorted, levenshtein, Tokenizer};

/// Pre-extracted textual representations of every profile, shared by the
/// string-based matchers so the `O(s·t)` / `O(s+t)` costs measured in the
/// timing experiments are pure comparison costs (as in the paper, where
/// profile strings exist up front).
#[derive(Debug, Clone)]
pub struct ProfileText {
    /// Concatenated attribute values per profile.
    pub concat: Vec<String>,
    /// Sorted, deduplicated token set per profile.
    pub token_sets: Vec<Vec<String>>,
}

impl ProfileText {
    /// Extracts texts for all profiles of `collection`.
    pub fn extract(collection: &ProfileCollection) -> Self {
        let tokenizer = Tokenizer;
        let mut concat = Vec::with_capacity(collection.len());
        let mut token_sets = Vec::with_capacity(collection.len());
        for p in collection.iter() {
            concat.push(p.concat_values());
            token_sets.push(p.token_set(&tokenizer));
        }
        Self { concat, token_sets }
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

/// The expensive match function: normalized edit distance over concatenated
/// values, `O(s·t)` per comparison.
#[derive(Debug)]
pub struct EditDistanceMatcher<'a> {
    text: &'a ProfileText,
    /// Similarity threshold in `\[0, 1\]`; `≥ threshold` is a match.
    pub threshold: f64,
}

impl<'a> EditDistanceMatcher<'a> {
    /// Creates the matcher with the given similarity threshold.
    pub fn new(text: &'a ProfileText, threshold: f64) -> Self {
        Self { text, threshold }
    }

    /// Raw similarity in `\[0, 1\]` between two profiles.
    pub fn similarity(&self, a: ProfileId, b: ProfileId) -> f64 {
        let sa = &self.text.concat[a.index()];
        let sb = &self.text.concat[b.index()];
        let max = sa.chars().count().max(sb.chars().count());
        if max == 0 {
            return 1.0;
        }
        1.0 - levenshtein(sa, sb) as f64 / max as f64
    }
}

impl MatchFunction for EditDistanceMatcher<'_> {
    fn matches(&self, a: ProfileId, b: ProfileId) -> bool {
        self.similarity(a, b) >= self.threshold
    }

    fn name(&self) -> &'static str {
        "edit-distance"
    }
}

/// The cheap match function: Jaccard similarity of token sets, `O(s+t)` per
/// comparison thanks to pre-sorted token sets.
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
        jaccard_similarity_sorted(
            &self.text.token_sets[a.index()],
            &self.text.token_sets[b.index()],
        )
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

/// Convenience: extract text and apply a matcher to two loose profiles,
/// bypassing collections (used in doctests and examples).
pub fn profile_jaccard(a: &Profile, b: &Profile) -> f64 {
    let tokenizer = Tokenizer;
    jaccard_similarity_sorted(&a.token_set(&tokenizer), &b.token_set(&tokenizer))
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
        let text = ProfileText::extract(&coll);
        let m = EditDistanceMatcher::new(&text, 0.7);
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

    #[test]
    fn profile_jaccard_helper() {
        let (coll, _) = fixture();
        let j = profile_jaccard(coll.get(ProfileId(0)), coll.get(ProfileId(1)));
        assert!((j - 0.5).abs() < 1e-12);
    }
}
