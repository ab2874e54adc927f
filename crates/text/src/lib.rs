//! Text utilities for query-interface label processing.
//!
//! This crate implements the lexical machinery of §3.1 of *Meaningful
//! Labeling of Integrated Query Interfaces* (Dragut, Yu, Meng — VLDB 2006):
//!
//! 1. **Display normalization** (first normalization step): attached
//!    comments are removed (`Adults (18-64)` → `Adults`) and all
//!    non-alphanumeric characters are replaced by a space (`Price $` →
//!    `Price`). The result is used for *plain string comparisons*
//!    (`string_equal` in Definition 1 of the paper).
//! 2. **Content-word extraction** (second normalization step): labels are
//!    tokenized, lowercased, stemmed with the Porter stemming algorithm,
//!    reduced to their base form by a pluggable [`Lemmatizer`], and stripped
//!    of stop words. The resulting *content-word set* is the representation
//!    over which all semantic label relations (equality, synonymy,
//!    hypernymy) are computed.
//!
//! The Porter stemmer ([`porter::stem`]) is a complete from-scratch
//! implementation of Porter (1980); no external NLP crates are used.

pub mod normalize;
pub mod porter;
pub mod similarity;
pub mod stopwords;
pub mod token;

pub use normalize::{
    content_words, content_words_with, display_normalize, split_compound, token_words, ContentWord,
    IdentityLemmatizer, LabelText, Lemmatizer,
};
pub use porter::stem;
pub use similarity::{
    dice, jaccard, levenshtein, levenshtein_within, normalized_levenshtein, prefix_abbreviation,
};
pub use stopwords::is_stop_word;
pub use token::{token_slices, tokenize};
