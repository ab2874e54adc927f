//! The paper's two-step label normalization (§3.1).
//!
//! * Step 1 — [`display_normalize`]: strip attached comments and replace
//!   non-alphanumeric characters with spaces. The output is used for plain
//!   string comparison (`string_equal` in Definition 1).
//! * Step 2 — [`content_words`] / [`LabelText`]: tokenize, lowercase, stem
//!   (Porter), retrieve the base form of each token through a pluggable
//!   [`Lemmatizer`] (WordNet's role in the paper) and remove stop words.
//!   The result is the *content-word set* representation of a label, e.g.
//!   `Area of Study` ↦ `{area, study}`.

use crate::porter;
use crate::stopwords::is_stop_word;
use crate::token::{strip_comments, token_slices};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Supplies the base (dictionary) form of a token — the role WordNet's
/// morphological processor plays in the paper's pipeline. Implemented by
/// `qi-lexicon`; [`IdentityLemmatizer`] is the no-op fallback.
pub trait Lemmatizer {
    /// The base form of `token` (already lowercased), or `None` when the
    /// token is unknown / already in base form.
    fn lemma(&self, token: &str) -> Option<String>;

    /// True if `token` is a known word (a dictionary lemma or an
    /// inflection of one). Drives compound splitting: unknown tokens that
    /// decompose into two known words are split (`zipcode` → `zip code`),
    /// which is how `Zipcode` ends up *equal* to `Zip Code` at the
    /// content-word level. The default (no vocabulary) disables splitting.
    fn is_word(&self, _token: &str) -> bool {
        false
    }

    /// The longest token (in bytes) [`Lemmatizer::is_word`] can accept,
    /// or `None` when there is no such bound (the default). Compound
    /// splitting probes only split points whose halves both fit.
    fn max_word_len(&self) -> Option<usize> {
        None
    }
}

/// A [`Lemmatizer`] that knows no morphology: every token is its own base
/// form. Porter stemming still conflates regular inflection, so this is a
/// usable degraded mode when no lexicon is available.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityLemmatizer;

impl Lemmatizer for IdentityLemmatizer {
    fn lemma(&self, _token: &str) -> Option<String> {
        None
    }
}

/// First normalization step: remove attached comments, replace every
/// non-alphanumeric character with a space, and collapse whitespace.
///
/// ```
/// use qi_text::display_normalize;
/// assert_eq!(display_normalize("Adults (18-64)"), "Adults");
/// assert_eq!(display_normalize("Price $"), "Price");
/// assert_eq!(display_normalize("Make/Model"), "Make Model");
/// ```
pub fn display_normalize(label: &str) -> String {
    let stripped = strip_comments(label);
    let mut out = String::with_capacity(stripped.len());
    let mut pending_space = false;
    for ch in stripped.chars() {
        if ch.is_ascii_alphanumeric() {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(ch);
        } else {
            pending_space = true;
        }
    }
    out
}

/// One content word of a label: the lowercased surface token, its base form
/// (lemma), and its Porter stem. Two content words denote the same concept
/// when their [`key`](ContentWord::key)s match — the key is the Porter stem
/// of the lemma, which conflates both regular inflection (`Preferred` /
/// `Preference` → `prefer`) and irregular forms handled by the lemmatizer
/// (`Children` → `child`). The fields are shared strings, so a word copied
/// out of a memo clones no text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentWord {
    /// Lowercased surface token as it appeared in the label.
    pub surface: Arc<str>,
    /// Dictionary base form (from the lemmatizer, or the surface itself).
    pub lemma: Arc<str>,
    /// Porter stem of the lemma — the canonical comparison key.
    pub stem: Arc<str>,
}

impl ContentWord {
    /// Build a content word from a lowercased token.
    pub fn new(token: &str, lemmatizer: &dyn Lemmatizer) -> Self {
        let surface: Arc<str> = Arc::from(token);
        let lemma = match lemmatizer.lemma(token) {
            Some(lemma) => Arc::from(lemma),
            None => Arc::clone(&surface),
        };
        let stem = porter::stem(&lemma);
        let stem = if *stem == *lemma {
            Arc::clone(&lemma)
        } else {
            Arc::from(stem)
        };
        ContentWord {
            surface,
            lemma,
            stem,
        }
    }

    /// The canonical comparison key (Porter stem of the lemma).
    pub fn key(&self) -> &str {
        &self.stem
    }
}

/// Split an unknown token into two known words, if possible
/// (`zipcode` → `(zip, code)`). Both halves must be at least three
/// characters and recognized by the lemmatizer's vocabulary; known tokens
/// are never split. Only split points whose halves both fit within
/// [`Lemmatizer::max_word_len`] are probed, so a long token costs at most
/// twice that many probes, however long it is.
pub fn split_compound(token: &str, lemmatizer: &dyn Lemmatizer) -> Option<(String, String)> {
    if token.len() < 6 || lemmatizer.is_word(token) {
        return None;
    }
    let max = lemmatizer.max_word_len().unwrap_or(usize::MAX);
    let first = token.len().saturating_sub(max).max(3);
    let last = token.len().saturating_sub(3).min(max);
    for split in first..=last {
        if !token.is_char_boundary(split) {
            continue;
        }
        let (left, right) = token.split_at(split);
        if lemmatizer.is_word(left) && lemmatizer.is_word(right) {
            return Some((left.to_string(), right.to_string()));
        }
    }
    None
}

/// The content words one token contributes: the two halves of a
/// compound (see [`split_compound`]), else the token itself.
pub fn token_words(token: &str, lemmatizer: &dyn Lemmatizer) -> Vec<ContentWord> {
    match split_compound(token, lemmatizer) {
        Some((left, right)) => vec![
            ContentWord::new(&left, lemmatizer),
            ContentWord::new(&right, lemmatizer),
        ],
        None => vec![ContentWord::new(token, lemmatizer)],
    }
}

/// The tokens of a label that carry content: its word tokens (see
/// [`crate::tokenize`]) without stop words, or all of them when every
/// one is a stop word. Slices of `lowered`, the label ASCII-lowercased.
fn content_tokens(lowered: &str) -> impl Iterator<Item = &str> {
    let keep_all = token_slices(lowered).all(is_stop_word);
    token_slices(lowered).filter(move |t| keep_all || !is_stop_word(t))
}

/// Extract the content words of a label (second normalization step).
///
/// Stop words are removed; if removal would leave the label empty (labels
/// such as `From`, `To`, `Within` consist solely of function words), the
/// unfiltered tokens are kept instead, so that `From` and `To` remain
/// distinguishable at the equality level of consistency. Unknown tokens
/// that decompose into two known words are split (see [`split_compound`]).
pub fn content_words(label: &str, lemmatizer: &dyn Lemmatizer) -> Vec<ContentWord> {
    content_words_with(label, |token| token_words(token, lemmatizer))
}

/// [`content_words`] with each token's words supplied by `analyze`
/// (which must agree with [`token_words`]), so a caller can memoize the
/// per-token work. Words are kept in first-seen order, one per stem.
pub fn content_words_with<W: AsRef<[ContentWord]>>(
    label: &str,
    mut analyze: impl FnMut(&str) -> W,
) -> Vec<ContentWord> {
    let lowered = label.to_ascii_lowercase();
    let mut words: Vec<ContentWord> = Vec::new();
    for token in content_tokens(&lowered) {
        for word in analyze(token).as_ref() {
            if !words.iter().any(|w| w.stem == word.stem) {
                words.push(word.clone());
            }
        }
    }
    words
}

/// A fully normalized label: the raw text, its display-normalized form, and
/// its content-word set. This is the representation every semantic label
/// relation (Definition 1 of the paper) is computed over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelText {
    /// The label exactly as it appears on the source interface.
    pub raw: String,
    /// First-step normalization output, used for `string_equal`.
    pub display: String,
    /// Second-step normalization output (content-word set, order-preserving).
    pub words: Vec<ContentWord>,
}

impl LabelText {
    /// Normalize a raw label.
    pub fn new(raw: &str, lemmatizer: &dyn Lemmatizer) -> Self {
        let display = display_normalize(raw);
        let words = content_words(&display, lemmatizer);
        LabelText {
            raw: raw.to_string(),
            display,
            words,
        }
    }

    /// The set of canonical content-word keys, for set comparisons
    /// (`A equal B  ⇔  A.keys() == B.keys()`).
    pub fn keys(&self) -> BTreeSet<&str> {
        self.words.iter().map(|w| w.key()).collect()
    }

    /// Number of content words — the paper's *expressiveness* of a label
    /// (§4.2.1): more content words ⇒ more descriptive.
    pub fn expressiveness(&self) -> usize {
        self.words.len()
    }

    /// True if the label has no alphanumeric material at all.
    pub fn is_empty(&self) -> bool {
        self.display.is_empty()
    }

    /// Case-insensitive plain string comparison on display forms
    /// (`string_equal` of Definition 1).
    pub fn string_equal(&self, other: &LabelText) -> bool {
        self.display.eq_ignore_ascii_case(&other.display)
    }

    /// Content-word set equality (`equal` of Definition 1):
    /// `Type of Job` *equal* `Job Type`. Each label holds one word per
    /// stem, so equal counts plus containment is set equality.
    pub fn word_equal(&self, other: &LabelText) -> bool {
        self.words.len() == other.words.len()
            && (self.words.iter()).all(|w| other.words.iter().any(|o| o.stem == w.stem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(s: &str) -> LabelText {
        LabelText::new(s, &IdentityLemmatizer)
    }

    #[test]
    fn display_normalization_paper_examples() {
        assert_eq!(display_normalize("Adults (18-64)"), "Adults");
        assert_eq!(display_normalize("Price $"), "Price");
        assert_eq!(display_normalize("  Zip   Code: "), "Zip Code");
    }

    #[test]
    fn content_words_drop_stop_words() {
        let words = content_words("Area of Study", &IdentityLemmatizer);
        let keys: Vec<&str> = words.iter().map(|w| w.key()).collect();
        assert_eq!(keys, vec!["area", "studi"]);
    }

    #[test]
    fn question_label_reduces_to_single_content_word() {
        // §5.1.2: "Do you have any preferences?" ↦ {prefer}
        let words = content_words("Do you have any preferences?", &IdentityLemmatizer);
        let keys: Vec<&str> = words.iter().map(|w| w.key()).collect();
        assert_eq!(keys, vec!["prefer"]);
    }

    #[test]
    fn all_stop_word_label_falls_back_to_tokens() {
        let from = lt("From");
        let to = lt("To");
        assert_eq!(from.expressiveness(), 1);
        assert_eq!(to.expressiveness(), 1);
        assert!(!from.word_equal(&to), "From and To must stay distinct");
    }

    #[test]
    fn equal_is_order_insensitive() {
        // Definition 1: "Type of Job equals Job Type".
        assert!(lt("Type of Job").word_equal(&lt("Job Type")));
        assert!(!lt("Type of Job").word_equal(&lt("Job Category")));
    }

    #[test]
    fn stemming_conflates_inflection() {
        // Table 4: Preferred Airline ≍ Airline Preference.
        assert!(lt("Preferred Airline").word_equal(&lt("Airline Preference")));
    }

    #[test]
    fn string_equal_ignores_case_and_punctuation() {
        assert!(lt("zip code").string_equal(&lt("Zip Code:")));
        assert!(!lt("Zip Code").string_equal(&lt("Zip")));
    }

    #[test]
    fn duplicate_tokens_deduplicated() {
        let words = content_words("model model Model", &IdentityLemmatizer);
        assert_eq!(words.len(), 1);
    }

    #[test]
    fn expressiveness_counts_content_words() {
        assert_eq!(lt("Max. Number of Stops").expressiveness(), 3); // max, number, stop
        assert_eq!(lt("Class").expressiveness(), 1);
        assert_eq!(lt("Class of Ticket").expressiveness(), 2);
    }

    #[test]
    fn empty_label() {
        let e = lt("");
        assert!(e.is_empty());
        assert_eq!(e.expressiveness(), 0);
        let sym = lt("$$!");
        assert!(sym.is_empty());
    }

    #[test]
    fn lemmatizer_is_consulted() {
        struct ChildLemma;
        impl Lemmatizer for ChildLemma {
            fn lemma(&self, token: &str) -> Option<String> {
                (token == "children").then(|| "child".to_string())
            }
        }
        let a = LabelText::new("Children", &ChildLemma);
        let b = LabelText::new("Child", &ChildLemma);
        assert!(a.word_equal(&b));
    }
}

#[cfg(test)]
mod compound_tests {
    use super::*;

    /// A lemmatizer with a tiny vocabulary, for compound tests.
    struct Vocab(&'static [&'static str]);
    impl Lemmatizer for Vocab {
        fn lemma(&self, _token: &str) -> Option<String> {
            None
        }
        fn is_word(&self, token: &str) -> bool {
            self.0.contains(&token)
        }
    }

    #[test]
    fn splits_unknown_compounds() {
        let vocab = Vocab(&["zip", "code", "check", "out"]);
        assert_eq!(
            split_compound("zipcode", &vocab),
            Some(("zip".to_string(), "code".to_string()))
        );
        assert_eq!(split_compound("zip", &vocab), None, "too short");
        assert_eq!(split_compound("zipqqq", &vocab), None, "halves unknown");
    }

    #[test]
    fn known_words_are_never_split() {
        let vocab = Vocab(&["zipcode", "zip", "code"]);
        assert_eq!(split_compound("zipcode", &vocab), None);
    }

    #[test]
    fn compound_makes_labels_equal() {
        let vocab = Vocab(&["zip", "code"]);
        let a = LabelText::new("Zipcode", &vocab);
        let b = LabelText::new("Zip Code", &vocab);
        assert!(a.word_equal(&b), "{:?} vs {:?}", a.keys(), b.keys());
        assert_eq!(a.expressiveness(), 2);
    }

    #[test]
    fn identity_lemmatizer_disables_splitting() {
        assert_eq!(split_compound("zipcode", &IdentityLemmatizer), None);
    }

    /// A vocabulary of words up to `max` bytes that counts its probes.
    struct Bounded {
        max: usize,
        probes: std::cell::Cell<usize>,
    }
    impl Lemmatizer for Bounded {
        fn lemma(&self, _token: &str) -> Option<String> {
            None
        }
        fn is_word(&self, token: &str) -> bool {
            self.probes.set(self.probes.get() + 1);
            token.len() <= self.max && ["zip", "code", "zipzip"].contains(&token)
        }
        fn max_word_len(&self) -> Option<usize> {
            Some(self.max)
        }
    }

    /// Only split points whose halves fit the bound are probed, so a
    /// token of any length costs at most `2 × bound` probes.
    #[test]
    fn splitting_probes_only_halves_within_the_bound() {
        let vocab = Bounded {
            max: 6,
            probes: std::cell::Cell::new(0),
        };
        assert_eq!(
            split_compound("zipcode", &vocab),
            Some(("zip".to_string(), "code".to_string()))
        );
        assert_eq!(
            split_compound("zipzipcode", &vocab),
            Some(("zipzip".to_string(), "code".to_string()))
        );
        for len in [13, 100, 10_000] {
            vocab.probes.set(0);
            assert_eq!(split_compound(&"q".repeat(len), &vocab), None);
            assert_eq!(vocab.probes.get(), 1, "{len}: only the whole token");
        }
        vocab.probes.set(0);
        assert_eq!(split_compound("qqqqqqqqqqqq", &vocab), None);
        assert_eq!(vocab.probes.get(), 2, "one split point fits");
    }

    #[test]
    fn non_ascii_boundaries_are_safe() {
        let vocab = Vocab(&["zip", "code"]);
        assert_eq!(split_compound("ziﬁcode", &vocab), None);
    }
}
