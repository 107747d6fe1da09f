//! Token normalization.
//!
//! Schema-agnostic blocking treats every attribute-value token as a blocking
//! key (§3, Token Blocking). To make key equality meaningful across sources
//! with different casing/punctuation conventions, tokens are lowercased and
//! stripped of non-alphanumeric edges before being used as keys.
//!
//! The tokenizer (`tokenize.rs`) never calls this: it splits on every
//! character that is not an ASCII letter or digit — non-ASCII ones
//! included — so its pieces have no edges to strip, and it lowercases the
//! bytes itself. [`normalize_token`] is the char-level definition the
//! tokenizer is property-tested against: splitting a value on those
//! characters and normalizing each piece yields exactly its tokens, each
//! `[a-z0-9]+`.

/// Normalizes a raw token into a canonical blocking-key form.
///
/// Lowercases ASCII characters and trims leading/trailing characters that are
/// not ASCII alphanumeric. Interior punctuation is preserved (URIs keep their
/// internal structure, which matters for the RDF datasets where tokens are
/// URI fragments).
///
/// Returns `None` when nothing alphanumeric remains (pure punctuation).
///
/// # Examples
///
/// ```
/// use sper_text::normalize_token;
/// assert_eq!(normalize_token("Tailor,"), Some("tailor".to_string()));
/// assert_eq!(normalize_token("--"), None);
/// assert_eq!(normalize_token("NY"), Some("ny".to_string()));
/// ```
pub fn normalize_token(raw: &str) -> Option<String> {
    let trimmed = raw.trim_matches(|c: char| !c.is_ascii_alphanumeric());
    if trimmed.is_empty() {
        return None;
    }
    Some(trimmed.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercases() {
        assert_eq!(normalize_token("Carl"), Some("carl".into()));
        assert_eq!(normalize_token("WHITE"), Some("white".into()));
    }

    #[test]
    fn trims_punctuation_edges() {
        assert_eq!(normalize_token("(tailor)"), Some("tailor".into()));
        assert_eq!(normalize_token("'42'"), Some("42".into()));
    }

    #[test]
    fn keeps_interior_punctuation() {
        // URI-style tokens must keep their internal structure.
        assert_eq!(normalize_token("Karl_White"), Some("karl_white".into()));
    }

    #[test]
    fn rejects_pure_punctuation() {
        assert_eq!(normalize_token("---"), None);
        assert_eq!(normalize_token(""), None);
        assert_eq!(normalize_token("!!"), None);
    }

    #[test]
    fn idempotent() {
        for raw in ["Carl", "(tailor)", "Karl_White", "NY."] {
            if let Some(once) = normalize_token(raw) {
                assert_eq!(normalize_token(&once), Some(once.clone()));
            }
        }
    }
}
