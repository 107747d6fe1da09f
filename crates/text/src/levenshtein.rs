//! Edit-distance match functions.
//!
//! The paper's time-efficiency evaluation (§7.3) pairs every progressive
//! method with an *expensive* match function — edit distance \[25\] — and a
//! *cheap* one — Jaccard similarity \[26\]. This module provides plain
//! Levenshtein, the Damerau variant (the paper cites Bard's
//! Damerau–Levenshtein work), a bounded early-exit variant, and a normalized
//! similarity in `\[0, 1\]`.
//!
//! Complexity is `O(s·t)` time, `O(min(s, t))` space (two rolling rows).

/// Classic Levenshtein distance (insertions, deletions, substitutions).
///
/// # Examples
///
/// ```
/// use sper_text::levenshtein;
/// assert_eq!(levenshtein("kitten", "sitting"), 3);
/// assert_eq!(levenshtein("", "abc"), 3);
/// assert_eq!(levenshtein("same", "same"), 0);
/// ```
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let short: Vec<char> = short.chars().collect();
    if short.is_empty() {
        return long.chars().count();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    let mut long_len = 0usize;
    for (i, lc) in long.chars().enumerate() {
        long_len = i + 1;
        curr[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    if long_len == 0 {
        return short.len();
    }
    prev[short.len()]
}

/// Levenshtein distance with an upper bound: returns `None` as soon as the
/// distance provably exceeds `bound`, saving work for dissimilar pairs.
///
/// # Examples
///
/// ```
/// use sper_text::levenshtein_bounded;
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
/// assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
/// ```
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Ordered by char count: a byte-longer string can hold fewer chars.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > bound {
        return None;
    }
    if short.is_empty() {
        return (long.len() <= bound).then_some(long.len());
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut curr: Vec<usize> = vec![0; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i + 1;
        let mut row_min = curr[0];
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            row_min = row_min.min(curr[j + 1]);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[short.len()];
    (d <= bound).then_some(d)
}

/// Damerau–Levenshtein distance (adds adjacent transpositions), the
/// "spelling-error tolerant" metric of reference \[25\].
///
/// This is the *optimal string alignment* variant: each substring may be
/// edited at most once, which is the standard choice for record linkage.
///
/// # Examples
///
/// ```
/// use sper_text::damerau_levenshtein;
/// assert_eq!(damerau_levenshtein("ca", "ac"), 1); // one transposition
/// assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
/// ```
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let w = b.len() + 1;
    // Three rolling rows are needed for the transposition lookback.
    let mut prev2: Vec<usize> = vec![0; w];
    let mut prev: Vec<usize> = (0..w).collect();
    let mut curr: Vec<usize> = vec![0; w];
    for i in 1..=a.len() {
        curr[0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            curr[j] = (prev[j - 1] + cost).min(prev[j] + 1).min(curr[j - 1] + 1);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                curr[j] = curr[j].min(prev2[j - 2] + 1);
            }
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Normalized Levenshtein similarity: `1 − d(a, b) / max(|a|, |b|)`, in
/// `\[0, 1\]`; `1.0` for two empty strings.
///
/// # Examples
///
/// ```
/// use sper_text::normalized_levenshtein;
/// assert!((normalized_levenshtein("carl", "karl") - 0.75).abs() < 1e-9);
/// assert_eq!(normalized_levenshtein("", ""), 1.0);
/// ```
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let max = la.max(lb);
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_distances() {
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("book", "back"), 2);
        assert_eq!(levenshtein("a", ""), 1);
        assert_eq!(levenshtein("", ""), 0);
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("kitten", "sitting"), ("abc", "ya"), ("", "xyz")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
        }
    }

    #[test]
    fn bounded_agrees_with_unbounded() {
        let cases = [("kitten", "sitting"), ("carl", "karl"), ("ny", "nyc")];
        for (a, b) in cases {
            let d = levenshtein(a, b);
            assert_eq!(levenshtein_bounded(a, b, d), Some(d));
            if d > 0 {
                assert_eq!(levenshtein_bounded(a, b, d - 1), None);
            }
        }
    }

    #[test]
    fn bounded_orders_by_chars_not_bytes() {
        // 6 bytes but 3 chars against 5 bytes and 5 chars.
        assert_eq!(levenshtein_bounded("ééé", "abcde", 10), Some(5));
        assert_eq!(levenshtein_bounded("abcde", "ééé", 10), Some(5));
        assert_eq!(levenshtein_bounded("ééé", "abcde", 4), None);
    }

    #[test]
    fn bounded_length_prefilter() {
        // Length difference alone exceeds the bound — must bail immediately.
        assert_eq!(levenshtein_bounded("ab", "abcdefgh", 3), None);
    }

    #[test]
    fn damerau_transposition_is_one() {
        assert_eq!(damerau_levenshtein("abcd", "abdc"), 1);
        // Plain Levenshtein needs two edits for the same pair.
        assert_eq!(levenshtein("abcd", "abdc"), 2);
    }

    #[test]
    fn damerau_reduces_to_levenshtein_without_transpositions() {
        for (a, b) in [("kitten", "sitting"), ("", "abc"), ("book", "back")] {
            assert_eq!(damerau_levenshtein(a, b), levenshtein(a, b));
        }
    }

    #[test]
    fn normalized_range() {
        assert_eq!(normalized_levenshtein("same", "same"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
    }

    #[test]
    fn unicode_chars_counted_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(damerau_levenshtein("über", "ubër"), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Triangle inequality: d(a,c) ≤ d(a,b) + d(b,c).
        #[test]
        fn triangle_inequality(
            a in "[a-c]{0,8}",
            b in "[a-c]{0,8}",
            c in "[a-c]{0,8}",
        ) {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        /// Identity of indiscernibles and symmetry.
        #[test]
        fn metric_axioms(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
            if a != b {
                prop_assert!(levenshtein(&a, &b) > 0);
            }
        }

        /// Distance bounded by the longer length; Damerau ≤ Levenshtein.
        #[test]
        fn bounds(a in "[a-z]{0,10}", b in "[a-z]{0,10}") {
            let d = levenshtein(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            prop_assert!(damerau_levenshtein(&a, &b) <= d);
            let n = normalized_levenshtein(&a, &b);
            prop_assert!((0.0..=1.0).contains(&n));
        }

        /// The bounded variant agrees with the exact distance whenever the
        /// bound is large enough, and returns None otherwise — also when
        /// multi-byte chars make byte and char lengths disagree.
        #[test]
        fn bounded_consistency(
            a in "[a-zéß東😀]{0,10}",
            b in "[a-zéß東😀]{0,10}",
            bound in 0usize..12,
        ) {
            let d = levenshtein(&a, &b);
            match levenshtein_bounded(&a, &b, bound) {
                Some(got) => {
                    prop_assert_eq!(got, d);
                    prop_assert!(d <= bound);
                }
                None => prop_assert!(d > bound),
            }
        }
    }
}
