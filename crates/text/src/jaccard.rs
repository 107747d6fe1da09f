//! Jaccard similarity — the paper's *cheap* match function (§7.3, \[26\]).
//!
//! `J(A, B) = |A ∩ B| / |A ∪ B]` over token sets. Complexity `O(s + t)` for
//! pre-sorted inputs, matching the paper's stated cost.

use std::collections::HashSet;

/// Jaccard similarity of two token multisets, treated as sets.
///
/// Both empty → `1.0` (identical empties); one empty → `0.0`.
///
/// # Examples
///
/// ```
/// use sper_text::jaccard_similarity;
/// let a = ["carl", "white", "tailor"];
/// let b = ["karl", "white", "tailor"];
/// assert!((jaccard_similarity(&a, &b) - 0.5).abs() < 1e-9); // 2 shared / 4 union
/// ```
pub fn jaccard_similarity<S: AsRef<str>>(a: &[S], b: &[S]) -> f64 {
    let sa: HashSet<&str> = a.iter().map(AsRef::as_ref).collect();
    let sb: HashSet<&str> = b.iter().map(AsRef::as_ref).collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Jaccard similarity over **sorted, deduplicated** slices, computed by a
/// single linear merge — the `O(s + t)` fast path of the match function,
/// over token strings or over interned token ids alike: only equality and
/// order of the elements matter.
///
/// # Panics
///
/// Debug-asserts that inputs are sorted and deduplicated.
pub fn jaccard_similarity_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(
        a.windows(2).all(|w| w[0] < w[1]),
        "input `a` must be sorted+dedup"
    );
    debug_assert!(
        b.windows(2).all(|w| w[0] < w[1]),
        "input `b` must be sorted+dedup"
    );
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let mut i = 0;
    let mut j = 0;
    let mut inter = 0usize;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets() {
        assert_eq!(jaccard_similarity(&["a", "b"], &["b", "a"]), 1.0);
    }

    #[test]
    fn disjoint_sets() {
        assert_eq!(jaccard_similarity(&["a"], &["b"]), 0.0);
    }

    #[test]
    fn empty_handling() {
        assert_eq!(jaccard_similarity::<&str>(&[], &[]), 1.0);
        assert_eq!(jaccard_similarity(&["a"], &[]), 0.0);
    }

    #[test]
    fn multiset_duplicates_ignored() {
        assert_eq!(jaccard_similarity(&["a", "a", "b"], &["a", "b", "b"]), 1.0);
    }

    #[test]
    fn sorted_variant_matches() {
        let a = vec!["alpha", "beta", "gamma"];
        let b = vec!["beta", "delta", "gamma"];
        assert_eq!(
            jaccard_similarity(&a, &b),
            jaccard_similarity_sorted(&a, &b)
        );
        // Any ordered element type: the same sets as ids.
        assert_eq!(jaccard_similarity_sorted(&[0u32, 1, 2], &[1, 2, 3]), 0.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn token_set() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::btree_set("[a-e]{1,3}", 0..8)
            .prop_map(|s: BTreeSet<String>| s.into_iter().collect())
    }

    proptest! {
        /// Sorted fast path agrees with the hash-set reference on all inputs.
        #[test]
        fn sorted_agrees_with_reference(a in token_set(), b in token_set()) {
            let fast = jaccard_similarity_sorted(&a, &b);
            let slow = jaccard_similarity(&a, &b);
            prop_assert!((fast - slow).abs() < 1e-12);
        }

        /// Range, symmetry, and identity.
        #[test]
        fn axioms(a in token_set(), b in token_set()) {
            let j = jaccard_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&j));
            prop_assert_eq!(j, jaccard_similarity(&b, &a));
            prop_assert_eq!(jaccard_similarity(&a, &a), 1.0);
        }
    }
}
