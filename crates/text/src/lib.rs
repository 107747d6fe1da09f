#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! # sper-text
//!
//! Text-processing substrate for schema-agnostic entity resolution:
//! normalization, attribute-value tokenization (the schema-agnostic blocking
//! keys of Token Blocking), suffix extraction (Suffix Arrays Blocking), and
//! the string-similarity / phonetic functions used as match functions and as
//! schema-based blocking keys in the paper's evaluation (§7.3, footnote 6).
//!
//! Everything here is allocation-conscious: hot functions take `&str`/slices
//! and reusable buffers where it matters, following the Rust Performance Book
//! guidance on heap allocations. Tokens reach ids through one dictionary,
//! [`Vocabulary`], which keys a token of at most 8 bytes by its packed
//! bytes; the shared [`TokenInterner`] is a `Vocabulary` behind a lock.

pub mod fxhash;
pub mod interner;
pub mod jaccard;
pub mod levenshtein;
pub mod normalize;
pub mod soundex;
pub mod suffixes;
pub mod tokenize;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interner::{DuplicateToken, TokenId, TokenInterner, Vocabulary};
pub use jaccard::{jaccard_similarity, jaccard_similarity_sorted};
pub use levenshtein::{
    damerau_levenshtein, levenshtein, levenshtein_bounded, normalized_levenshtein,
};
pub use normalize::normalize_token;
pub use soundex::soundex;
pub use suffixes::{suffixes_of, SuffixIter};
pub use tokenize::{tokenize_value, tokenize_value_into, Tokenizer};
