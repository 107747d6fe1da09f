//! Attribute-value tokenization — the source of schema-agnostic blocking keys.
//!
//! Token Blocking (§3, \[18\]) creates one block per distinct attribute-value
//! token. The tokenizer splits attribute values on non-alphanumeric
//! boundaries and normalizes each token; like the paper's workflow, it
//! keeps every token, however short.
//!
//! For RDF-style values (URIs), splitting on non-alphanumeric boundaries
//! yields the URI path fragments; the prefix fragments (`http`, `www`, domain parts) become
//! extremely frequent tokens that Block Purging later removes — exactly the
//! noise mechanism the paper describes for freebase (§7.2).

use crate::interner::{TokenId, TokenInterner};
use crate::normalize::normalize_token_into;

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

    /// Calls `f` with every normalized token of `value`, in order of
    /// appearance, without allocating per token — the primitive the owned
    /// and interned tokenization paths are built on. The `&str` argument
    /// is a reused buffer; callers must copy or intern what they keep.
    pub fn for_each_token(&self, value: &str, mut f: impl FnMut(&str)) {
        let mut buf = String::new();
        for raw in value.split(|c: char| !c.is_ascii_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            if !normalize_token_into(raw, &mut buf) {
                continue;
            }
            f(&buf);
        }
    }

    /// Tokenizes `value` appending into `out` (which is *not* cleared), so a
    /// profile's tokens across all attributes can accumulate in one buffer.
    pub fn tokenize_into(&self, value: &str, out: &mut Vec<String>) {
        self.for_each_token(value, |tok| out.push(tok.to_string()));
    }

    /// Tokenizes `value` straight into interned ids, appending to `out`
    /// (which is *not* cleared). The allocation-free hot path of the
    /// columnar core: each raw token is normalized into one reusable buffer
    /// and interned — no per-token `String` is ever created.
    pub fn tokenize_ids_into(&self, value: &str, interner: &TokenInterner, out: &mut Vec<TokenId>) {
        self.for_each_token(value, |tok| out.push(interner.intern(tok)));
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every produced token is non-empty and normalized (lowercase
        /// ASCII alphanumerics, non-ASCII kept as is).
        #[test]
        fn tokens_are_normalized(s in "\\PC{0,64}") {
            for tok in tokenize_value(&s) {
                prop_assert!(!tok.is_empty());
                prop_assert!(tok
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || !c.is_ascii()));
                // Edges are alphanumeric after normalization.
                prop_assert!(tok.chars().next().unwrap().is_ascii_alphanumeric()
                    || !tok.chars().next().unwrap().is_ascii());
            }
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
