//! Attribute-value tokenization — the source of schema-agnostic blocking keys.
//!
//! Token Blocking (§3, \[18\]) creates one block per distinct attribute-value
//! token. A token is a maximal run of ASCII letters and digits, lowercased;
//! every other character separates tokens — punctuation, whitespace, and
//! every non-ASCII character (so `café` yields `caf`). Every token is
//! therefore `[a-z0-9]+`. Like the paper's workflow, the tokenizer keeps
//! every token, however short.
//!
//! The scan runs over bytes, not chars: a multi-byte UTF-8 character has
//! no byte in the ASCII range, so each of its bytes separates exactly as
//! the character does, and a token's bytes are lowercased by setting bit
//! 5 (`b | 0x20` maps `A-Z` to `a-z` and leaves `a-z` and `0-9` alone).
//!
//! For RDF-style values (URIs), splitting on non-alphanumeric boundaries
//! yields the URI path fragments; the prefix fragments (`http`, `www`, domain parts) become
//! extremely frequent tokens that Block Purging later removes — exactly the
//! noise mechanism the paper describes for freebase (§7.2).

use crate::interner::{TokenId, TokenInterner, Vocabulary};

/// `ALNUM[b]`: byte `b` is an ASCII letter or digit.
const ALNUM: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).is_ascii_alphanumeric();
        b += 1;
    }
    table
};

/// Calls `f` with every raw token of `value` — each maximal run of ASCII
/// alphanumeric bytes, not yet lowercased — in order of appearance.
#[inline]
fn for_each_raw(value: &str, mut f: impl FnMut(&[u8])) {
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !ALNUM[usize::from(bytes[i])] {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && ALNUM[usize::from(bytes[i])] {
            i += 1;
        }
        f(&bytes[start..i]);
    }
}

/// Splits attribute values into normalized tokens.
///
/// # Examples
///
/// ```
/// use sper_text::Tokenizer;
/// let t = Tokenizer;
/// assert_eq!(
///     t.tokenize("Emma White, WI Tailor"),
///     vec!["emma", "white", "wi", "tailor"]
/// );
/// // URI values decompose into their fragments:
/// assert_eq!(
///     t.tokenize("http://kb.org/resource/Carl_White"),
///     vec!["http", "kb", "org", "resource", "carl", "white"]
/// );
/// // A non-ASCII character separates tokens:
/// assert_eq!(t.tokenize("Café München"), vec!["caf", "m", "nchen"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// Tokenizes `value`, returning owned normalized tokens in order of
    /// appearance (duplicates preserved — block construction dedups later).
    pub fn tokenize(&self, value: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(value, &mut out);
        out
    }

    /// Tokenizes `value` appending into `out` (which is *not* cleared), so a
    /// profile's tokens across all attributes can accumulate in one buffer.
    pub fn tokenize_into(&self, value: &str, out: &mut Vec<String>) {
        for_each_raw(value, |raw| {
            out.push(raw.iter().map(|&b| char::from(b | 0x20)).collect());
        });
    }

    /// Tokenizes `value` straight into ids of `vocab`, appending to `out`
    /// (which is *not* cleared) — the hot path of every build. A token of
    /// at most 8 bytes is lowercased and looked up as one packed word; no
    /// per-token `String` is created.
    pub fn tokenize_ids_with(&self, value: &str, vocab: &mut Vocabulary, out: &mut Vec<TokenId>) {
        let mut buf = String::new();
        for_each_raw(value, |raw| out.push(vocab.intern_raw(raw, &mut buf)));
    }

    /// [`Self::tokenize_ids_with`] against a shared interner, whose write
    /// lock it takes once for the whole value.
    pub fn tokenize_ids_into(&self, value: &str, interner: &TokenInterner, out: &mut Vec<TokenId>) {
        interner.with_vocabulary(|vocab| self.tokenize_ids_with(value, vocab, out));
    }
}

/// Convenience wrapper: [`Tokenizer::tokenize`].
pub fn tokenize_value(value: &str) -> Vec<String> {
    Tokenizer.tokenize(value)
}

/// Convenience wrapper: [`Tokenizer::tokenize_into`].
pub fn tokenize_value_into(value: &str, out: &mut Vec<String>) {
    Tokenizer.tokenize_into(value, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        assert_eq!(
            tokenize_value("Hellen White, ML teacher"),
            vec!["hellen", "white", "ml", "teacher"]
        );
    }

    #[test]
    fn underscore_splits_rdf_local_names() {
        // Fig. 3: Carl_White yields the tokens carl and white, which is why
        // the "white" block contains all six profiles.
        assert_eq!(tokenize_value(":Carl_White"), vec!["carl", "white"]);
    }

    #[test]
    fn uri_decomposes_into_fragments() {
        assert_eq!(
            tokenize_value("http://dbpedia.org/resource/Rome"),
            vec!["http", "dbpedia", "org", "resource", "rome"]
        );
    }

    #[test]
    fn empty_value_gives_no_tokens() {
        assert!(tokenize_value("").is_empty());
        assert!(tokenize_value("  ,,  ").is_empty());
        assert!(tokenize_value("東京 µß").is_empty());
    }

    #[test]
    fn accumulates_across_calls() {
        let t = Tokenizer;
        let mut out = Vec::new();
        t.tokenize_into("Carl", &mut out);
        t.tokenize_into("White", &mut out);
        assert_eq!(out, vec!["carl", "white"]);
    }

    #[test]
    fn duplicates_preserved() {
        assert_eq!(
            tokenize_value("white on white"),
            vec!["white", "on", "white"]
        );
    }

    #[test]
    fn ids_follow_the_strings_across_the_packed_boundary() {
        // 8 bytes is the longest packed key; 9 and more are keyed by text.
        let value = "ABCDEFGH abcdefgh ABCDEFGHI abcdefghi Ab9 aB9 abcdefgh1234";
        let mut vocab = Vocabulary::new();
        let mut ids = Vec::new();
        Tokenizer.tokenize_ids_with(value, &mut vocab, &mut ids);
        let t = |i| TokenId(i);
        assert_eq!(ids, [t(0), t(0), t(1), t(1), t(2), t(2), t(3)]);
        let strings: Vec<&str> = vocab.strings().iter().map(|s| &**s).collect();
        assert_eq!(
            strings,
            tokenize_value("abcdefgh abcdefghi ab9 abcdefgh1234")
        );
        for s in strings {
            assert_eq!(vocab.get(s).map(|id| vocab.resolve(id)), Some(s));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::normalize::normalize_token;
    use proptest::prelude::*;

    /// The char-level definition: split on every char that is not an ASCII
    /// alphanumeric, then normalize each piece.
    fn reference(value: &str) -> Vec<String> {
        value
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter_map(normalize_token)
            .collect()
    }

    proptest! {
        /// Every produced token is a non-empty run of lowercase ASCII
        /// letters and digits: a non-ASCII character separates tokens.
        #[test]
        fn tokens_are_normalized(s in "\\PC{0,64}") {
            for tok in tokenize_value(&s) {
                prop_assert!(!tok.is_empty());
                prop_assert!(tok.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
            }
        }

        /// The byte scan splits and lowercases exactly as the char split
        /// and `normalize_token` do, on multi-byte, mixed-case and
        /// punctuation-heavy input, and the interned ids resolve to the
        /// same strings.
        #[test]
        fn byte_scan_equals_the_char_reference(s in "\\PC{0,64}") {
            let expected = reference(&s);
            prop_assert_eq!(&tokenize_value(&s), &expected);
            let mut vocab = Vocabulary::new();
            let mut ids = Vec::new();
            Tokenizer.tokenize_ids_with(&s, &mut vocab, &mut ids);
            let resolved: Vec<&str> = ids.iter().map(|&id| vocab.resolve(id)).collect();
            prop_assert_eq!(resolved, expected);
        }

        /// Tokenizing the join of the tokens reproduces the tokens
        /// (idempotence of the pipeline on its own output), for ASCII input.
        #[test]
        fn idempotent_on_own_output(s in "[a-zA-Z0-9 ,./:-]{0,64}") {
            let once = tokenize_value(&s);
            let joined = once.join(" ");
            let twice = tokenize_value(&joined);
            prop_assert_eq!(once, twice);
        }
    }
}
