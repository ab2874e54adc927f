//! A WordNet-style lexical database substrate.
//!
//! The paper relies on WordNet \[9\] for exactly three queries during label
//! processing:
//!
//! 1. **base forms** — the morphological reduction of a token to its
//!    dictionary form (`children` → `child`), used in the second
//!    normalization step (§3.1);
//! 2. **token synonymy** — `area` ∼ `field`, `study` ∼ `work`, used by the
//!    `synonym` label relation (Definition 1);
//! 3. **token hypernymy** — `location` ⊐ `area`, used by the
//!    `hypernym`/`hyponym` label relations (Definition 1) and the logical
//!    inference rules of §5.
//!
//! The original WordNet database is not redistributable inside this
//! reproduction, so this crate implements the same storage model from
//! scratch — synsets, a lemma index, a hypernym DAG between synsets, and a
//! Morphy-style rule lemmatizer with an exception list — and ships an
//! embedded lexicon ([`Lexicon::builtin`]) covering the full vocabulary of
//! the seven evaluation domains. `DESIGN.md` §3 documents why this
//! substitution preserves the paper's behaviour.
//!
//! # Example
//!
//! ```
//! use qi_lexicon::Lexicon;
//!
//! let lex = Lexicon::builtin();
//! assert!(lex.are_synonyms("area", "field"));
//! assert!(lex.is_hypernym_of("location", "city"));
//! assert_eq!(lex.base_form("children").as_deref(), Some("child"));
//! ```

pub mod builder;
pub mod builtin;
pub mod format;
pub mod morphy;
pub mod synset;

pub use builder::LexiconBuilder;
pub use synset::SynsetId;

use qi_runtime::{CacheStats, ShardedCache};
use qi_text::{ContentWord, LabelText};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Most normalized labels [`Lexicon::label_text`] keeps. A domain has at
/// most a few hundred distinct labels, so this holds the matcher → labeler
/// handoff of several domains while keeping the memo's footprint small.
pub const LABEL_TEXT_CAP: usize = 1024;

/// Most analyzed tokens the word memo under [`Lexicon::label_text`]
/// keeps. A pass over a drift corpus meets a few thousand distinct
/// tokens, most of them in runs of labels from one domain, so this
/// catches the repeats while keeping the memo's footprint small.
pub const WORD_CAP: usize = 1024;

/// Most morphological reductions [`Lexicon::base_form`] keeps. It is
/// keyed by every probed token and compound half: one cold pass over a
/// 100-domain drift corpus leaves about 11,000 entries, which fit, while
/// a long-running server stays bounded.
pub const BASE_FORM_CAP: usize = 16_384;

/// Most word → synset resolutions [`Lexicon::resolve`] keeps. One cold
/// pass over a 100-domain drift corpus leaves about 4,700 entries, which
/// fit, while a long-running server stays bounded.
pub const RESOLVE_CAP: usize = 8_192;

/// The lexical database: synsets, lemma index, hypernym DAG, morphology.
///
/// All queries take `&self`; the transitive-hypernymy and base-form
/// memo-caches are lock-striped ([`qi_runtime::ShardedCache`]), so one
/// instance can serve a whole evaluation run across threads without the
/// hot path serializing behind a single global lock.
#[derive(Debug)]
pub struct Lexicon {
    /// Synset membership: `synsets[id]` is the list of member lemmas.
    pub(crate) synsets: Vec<Vec<String>>,
    /// Lemma → synsets containing it.
    pub(crate) lemma_index: HashMap<String, Vec<SynsetId>>,
    /// Porter stem → lemmas sharing that stem (fallback resolution).
    pub(crate) stem_index: HashMap<String, Vec<String>>,
    /// `hypernyms[id]` = direct parent synsets of `id`.
    pub(crate) hypernyms: Vec<Vec<SynsetId>>,
    /// Irregular morphology: surface form → base form.
    pub(crate) exceptions: HashMap<String, String>,
    /// Memoized transitive-hypernymy answers.
    hypernym_cache: ShardedCache<(SynsetId, SynsetId), bool>,
    /// Memoized morphological reductions (`base_form` results, covering
    /// the Morphy detachment-rule walk), bounded by [`BASE_FORM_CAP`].
    base_form_cache: ShardedCache<String, Option<String>>,
    /// Memoized word → synset-id resolutions ([`Lexicon::resolve`]),
    /// bounded by [`RESOLVE_CAP`]. The matcher's candidate generator keys
    /// its synonym postings on these ids, so the same few hundred tokens
    /// resolve once per corpus instead of once per pairwise
    /// `are_synonyms` probe.
    resolve_cache: ShardedCache<String, Vec<SynsetId>>,
    /// Memoized §3.1 normalizations ([`Lexicon::label_text`]), bounded by
    /// [`LABEL_TEXT_CAP`].
    text_cache: ShardedCache<String, Arc<LabelText>>,
    /// Memoized token analyses (compound halves, base form, stem) for
    /// [`Lexicon::label_text`]'s misses, bounded by [`WORD_CAP`].
    word_cache: ShardedCache<String, Arc<[ContentWord]>>,
    /// The longest token [`qi_text::Lemmatizer::is_word`] can accept.
    max_word_len: usize,
}

impl Lexicon {
    /// An empty lexicon (no synsets, no morphology beyond the identity).
    pub fn empty() -> Self {
        LexiconBuilder::new().build()
    }

    /// The embedded lexicon covering the seven evaluation domains.
    pub fn builtin() -> Self {
        builtin::build()
    }

    /// Number of synsets.
    pub fn synset_count(&self) -> usize {
        self.synsets.len()
    }

    /// Number of distinct lemmas.
    pub fn lemma_count(&self) -> usize {
        self.lemma_index.len()
    }

    /// True if `word` is a known lemma (exact match, no morphology).
    pub fn is_lemma(&self, word: &str) -> bool {
        self.lemma_index.contains_key(word)
    }

    /// The members of a synset.
    pub fn synset_members(&self, id: SynsetId) -> &[String] {
        &self.synsets[id.0 as usize]
    }

    /// Morphological base form of `token` (lowercase), like WordNet's
    /// Morphy: exception list first, then detachment rules validated
    /// against the lemma index. Returns `None` when no reduction applies.
    /// Memoized — the same few hundred tokens are reduced once per
    /// cluster per domain otherwise.
    pub fn base_form(&self, token: &str) -> Option<String> {
        if let Some(hit) = self.base_form_cache.get(token) {
            return hit;
        }
        let reduced = self.base_form_uncached(token);
        self.base_form_cache
            .insert(token.to_string(), reduced.clone());
        reduced
    }

    fn base_form_uncached(&self, token: &str) -> Option<String> {
        if let Some(base) = self.exceptions.get(token) {
            return Some(base.clone());
        }
        if self.is_lemma(token) {
            return None; // already a base form
        }
        morphy::reduce(token, |candidate| self.is_lemma(candidate))
    }

    /// The two-step normalization (§3.1) of a raw label, memoized: the
    /// matcher, the labeler and the serve sidecar all normalize through
    /// here, so a label is normalized once however many fields and
    /// stages see it. Equal to `LabelText::new(raw, self)`. The memo
    /// keeps at most [`LABEL_TEXT_CAP`] labels; a miss takes each
    /// token's words from a second memo of at most [`WORD_CAP`] tokens,
    /// so a token repeated across labels is analyzed once.
    pub fn label_text(&self, raw: &str) -> Arc<LabelText> {
        if let Some(hit) = self.text_cache.get(raw) {
            return hit;
        }
        let display = qi_text::display_normalize(raw);
        let words = qi_text::content_words_with(&display, |token| self.token_words(token));
        let text = Arc::new(LabelText {
            raw: raw.to_string(),
            display,
            words,
        });
        self.text_cache.insert(raw.to_string(), Arc::clone(&text));
        text
    }

    /// `qi_text::token_words(token, self)`, memoized.
    fn token_words(&self, token: &str) -> Arc<[ContentWord]> {
        if let Some(hit) = self.word_cache.get(token) {
            return hit;
        }
        let words: Arc<[ContentWord]> = qi_text::token_words(token, self).into();
        self.word_cache
            .insert(token.to_string(), Arc::clone(&words));
        words
    }

    /// Per-cache hit/miss counters, keyed by stable cache names
    /// (`lexicon.base_form`, `lexicon.hypernym`, `lexicon.resolve`,
    /// `lexicon.text`, `lexicon.word`) — the telemetry registry records
    /// each under `cache.<name>.*`.
    pub fn named_cache_stats(&self) -> [(&'static str, CacheStats); 5] {
        [
            ("lexicon.base_form", self.base_form_cache.stats()),
            ("lexicon.hypernym", self.hypernym_cache.stats()),
            ("lexicon.resolve", self.resolve_cache.stats()),
            ("lexicon.text", self.text_cache.stats()),
            ("lexicon.word", self.word_cache.stats()),
        ]
    }

    /// Counters of the morphology (`base_form`) cache alone. It is
    /// probed once per token of every label `LabelText::new` normalizes,
    /// rather than once per scored candidate pair. Measured over
    /// `LabelText::new` on every label occurrence, its hit rate tracks
    /// vocabulary variety — the signal the drift checks compare against
    /// the cloned-corpus ceiling. The resolve and synonymy caches are
    /// flooded by pair-scoring probes of already-seen tokens and sit
    /// near 1.0 on any corpus shape.
    pub fn morph_cache_stats(&self) -> CacheStats {
        self.base_form_cache.stats()
    }

    /// Drop all memoized entries and reset hit/miss counters — used by
    /// determinism tests so a second run sees the same cold-cache world
    /// as the first.
    pub fn reset_caches(&self) {
        self.hypernym_cache.clear();
        self.base_form_cache.clear();
        self.resolve_cache.clear();
        self.text_cache.clear();
        self.word_cache.clear();
    }

    /// Resolve a word to the synsets it may denote: exact lemma match,
    /// else morphological base form, else lemmas sharing its Porter stem.
    /// Memoized — this is the hottest lexicon query on the matcher path
    /// (every synonym probe and every posting key resolves its tokens).
    pub fn resolve(&self, word: &str) -> Vec<SynsetId> {
        if let Some(hit) = self.resolve_cache.get(word) {
            return hit;
        }
        let ids = self.resolve_uncached(word);
        self.resolve_cache.insert(word.to_string(), ids.clone());
        ids
    }

    fn resolve_uncached(&self, word: &str) -> Vec<SynsetId> {
        if let Some(ids) = self.lemma_index.get(word) {
            return ids.clone();
        }
        if let Some(base) = self.base_form(word) {
            if let Some(ids) = self.lemma_index.get(&base) {
                return ids.clone();
            }
        }
        let stem = qi_text::stem(word);
        if let Some(lemmas) = self.stem_index.get(&stem) {
            let mut out: Vec<SynsetId> = Vec::new();
            for lemma in lemmas {
                if let Some(ids) = self.lemma_index.get(lemma) {
                    for id in ids {
                        if !out.contains(id) {
                            out.push(*id);
                        }
                    }
                }
            }
            return out;
        }
        Vec::new()
    }

    /// True if the two words share a synset (after resolution). Callers
    /// implementing Definition 1 check *equality* before synonymy, so the
    /// self-synonym case never decides a label relation.
    pub fn are_synonyms(&self, a: &str, b: &str) -> bool {
        let sa = self.resolve(a);
        if sa.is_empty() {
            return false;
        }
        let sb = self.resolve(b);
        sa.iter().any(|id| sb.contains(id))
    }

    /// True if `general` denotes a (transitive, strict) hypernym of
    /// `specific`: some synset of `specific` reaches some synset of
    /// `general` by one or more hypernym edges.
    pub fn is_hypernym_of(&self, general: &str, specific: &str) -> bool {
        let targets = self.resolve(general);
        if targets.is_empty() {
            return false;
        }
        let sources = self.resolve(specific);
        sources
            .iter()
            .any(|&src| targets.iter().any(|&dst| self.synset_hypernym(dst, src)))
    }

    /// True if synset `general` is a strict ancestor of synset `specific`
    /// in the hypernym DAG. Memoized.
    pub fn synset_hypernym(&self, general: SynsetId, specific: SynsetId) -> bool {
        if general == specific {
            return false;
        }
        if let Some(hit) = self.hypernym_cache.get(&(general, specific)) {
            return hit;
        }
        let mut visited: HashSet<SynsetId> = HashSet::new();
        let mut stack: Vec<SynsetId> = self.hypernyms[specific.0 as usize].clone();
        let mut found = false;
        while let Some(node) = stack.pop() {
            if node == general {
                found = true;
                break;
            }
            if visited.insert(node) {
                stack.extend_from_slice(&self.hypernyms[node.0 as usize]);
            }
        }
        self.hypernym_cache.insert((general, specific), found);
        found
    }

    /// All strict ancestors (transitive hypernym synsets) of a word.
    pub fn ancestors(&self, word: &str) -> Vec<SynsetId> {
        let mut visited: HashSet<SynsetId> = HashSet::new();
        let mut stack: Vec<SynsetId> = Vec::new();
        for id in self.resolve(word) {
            stack.extend_from_slice(&self.hypernyms[id.0 as usize]);
        }
        let mut out = Vec::new();
        while let Some(node) = stack.pop() {
            if visited.insert(node) {
                out.push(node);
                stack.extend_from_slice(&self.hypernyms[node.0 as usize]);
            }
        }
        out
    }

    /// All synonym lemmas of `word` (members of every synset the word
    /// resolves to, excluding the word itself), in synset/member order —
    /// a deterministic surface for seeded paraphrase walks, so corpus
    /// generators never iterate the hash-ordered indexes directly.
    pub fn synonyms(&self, word: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for id in self.resolve(word) {
            for lemma in self.synset_members(id) {
                if lemma != word && !out.contains(lemma) {
                    out.push(lemma.clone());
                }
            }
        }
        out
    }

    /// Lemmas of every strict ancestor synset of `word`, in
    /// [`Lexicon::ancestors`] order — the hypernym half of a drift walk.
    pub fn hypernym_lemmas(&self, word: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for id in self.ancestors(word) {
            for lemma in self.synset_members(id) {
                if lemma != word && !out.contains(lemma) {
                    out.push(lemma.clone());
                }
            }
        }
        out
    }

    /// Every lemma in synset build order, deduplicated — a deterministic
    /// vocabulary surface for seeded corpus generators (the hash-ordered
    /// `lemma_index` must never leak into anything seed-reproducible).
    pub fn lemmas_in_build_order(&self) -> Vec<String> {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut out: Vec<String> = Vec::new();
        for members in &self.synsets {
            for lemma in members {
                if seen.insert(lemma.as_str()) {
                    out.push(lemma.clone());
                }
            }
        }
        out
    }

    /// Irregular surface forms whose exception entry maps to `base`
    /// (`children` for `child`), sorted for determinism — the
    /// morphology-exception half of the stemmer's inverse families.
    pub fn surface_variants(&self, base: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .exceptions
            .iter()
            .filter(|(_, b)| b.as_str() == base)
            .map(|(surface, _)| surface.clone())
            .collect();
        out.sort();
        out
    }

    pub(crate) fn from_parts(
        synsets: Vec<Vec<String>>,
        hypernyms: Vec<Vec<SynsetId>>,
        exceptions: HashMap<String, String>,
    ) -> Self {
        let mut lemma_index: HashMap<String, Vec<SynsetId>> = HashMap::new();
        let mut stem_index: HashMap<String, Vec<String>> = HashMap::new();
        for (i, members) in synsets.iter().enumerate() {
            for lemma in members {
                lemma_index
                    .entry(lemma.clone())
                    .or_default()
                    .push(SynsetId(i as u32));
                let stem = qi_text::stem(lemma);
                match stem_index.entry(stem) {
                    Entry::Occupied(mut e) => {
                        if !e.get().contains(lemma) {
                            e.get_mut().push(lemma.clone());
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(vec![lemma.clone()]);
                    }
                }
            }
        }
        // `is_word` accepts lemmas, exception surfaces and Morphy
        // inflections of lemmas, which are at most the largest
        // detachment longer than their lemma.
        let longest_lemma = lemma_index.keys().map(String::len).max().unwrap_or(0);
        let longest_surface = exceptions.keys().map(String::len).max().unwrap_or(0);
        let max_word_len = (longest_lemma + morphy::MAX_DETACHMENT).max(longest_surface);
        Lexicon {
            synsets,
            lemma_index,
            stem_index,
            hypernyms,
            exceptions,
            hypernym_cache: ShardedCache::default(),
            base_form_cache: ShardedCache::bounded(BASE_FORM_CAP),
            resolve_cache: ShardedCache::bounded(RESOLVE_CAP),
            text_cache: ShardedCache::bounded(LABEL_TEXT_CAP),
            word_cache: ShardedCache::bounded(WORD_CAP),
            max_word_len,
        }
    }
}

impl qi_text::Lemmatizer for Lexicon {
    fn lemma(&self, token: &str) -> Option<String> {
        self.base_form(token)
    }

    fn is_word(&self, token: &str) -> bool {
        self.is_lemma(token) || self.base_form(token).is_some()
    }

    fn max_word_len(&self) -> Option<usize> {
        Some(self.max_word_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_text::Lemmatizer;

    fn sample() -> Lexicon {
        LexiconBuilder::new()
            .synset(&["area", "field", "region"])
            .synset(&["study", "work"])
            .synset(&["location"])
            .synset(&["city", "town"])
            .synset(&["child", "kid"])
            .hypernym("location", "area")
            .hypernym("area", "city")
            .exception("children", "child")
            .build()
    }

    #[test]
    fn synonyms_share_synset() {
        let lex = sample();
        assert!(lex.are_synonyms("area", "field"));
        assert!(lex.are_synonyms("field", "region"));
        assert!(!lex.are_synonyms("area", "study"));
    }

    #[test]
    fn unknown_words_are_not_synonyms() {
        let lex = sample();
        assert!(!lex.are_synonyms("zzz", "area"));
        assert!(!lex.are_synonyms("area", "zzz"));
        assert!(!lex.are_synonyms("zzz", "zzz"));
    }

    #[test]
    fn hypernymy_is_transitive_and_strict() {
        let lex = sample();
        assert!(lex.is_hypernym_of("location", "area"));
        assert!(lex.is_hypernym_of("location", "city"));
        assert!(lex.is_hypernym_of("area", "town")); // via synonym city
        assert!(!lex.is_hypernym_of("city", "location"));
        assert!(!lex.is_hypernym_of("area", "area")); // strict
        assert!(!lex.is_hypernym_of("area", "field")); // synonyms, not hypernyms
    }

    #[test]
    fn base_form_uses_exceptions_then_rules() {
        let lex = sample();
        assert_eq!(lex.base_form("children").as_deref(), Some("child"));
        assert_eq!(lex.base_form("cities").as_deref(), Some("city"));
        assert_eq!(lex.base_form("areas").as_deref(), Some("area"));
        assert_eq!(lex.base_form("city"), None); // already base
        assert_eq!(lex.base_form("qwerty"), None); // unknown
    }

    #[test]
    fn resolve_falls_back_to_morphology_and_stem() {
        let lex = sample();
        assert!(!lex.resolve("cities").is_empty());
        assert!(lex.are_synonyms("cities", "town"));
        assert!(lex.is_hypernym_of("location", "cities"));
    }

    #[test]
    fn lemmatizer_impl_delegates() {
        let lex = sample();
        assert_eq!(lex.lemma("children").as_deref(), Some("child"));
        assert_eq!(lex.lemma("child"), None);
    }

    #[test]
    fn empty_lexicon_answers_negatively() {
        let lex = Lexicon::empty();
        assert_eq!(lex.synset_count(), 0);
        assert!(!lex.are_synonyms("a", "b"));
        assert!(!lex.is_hypernym_of("a", "b"));
        assert_eq!(lex.base_form("children"), None);
    }

    #[test]
    fn ancestors_collects_transitive_closure() {
        let lex = sample();
        let city_ancestors = lex.ancestors("city");
        assert_eq!(city_ancestors.len(), 2); // {area-synset, location-synset}
        assert!(lex.ancestors("location").is_empty());
    }

    #[test]
    fn multi_sense_words_resolve_to_all_synsets() {
        let lex = LexiconBuilder::new()
            .synset(&["class", "category"])
            .synset(&["class", "course"])
            .build();
        assert_eq!(lex.resolve("class").len(), 2);
        assert!(lex.are_synonyms("class", "category"));
        assert!(lex.are_synonyms("class", "course"));
        assert!(!lex.are_synonyms("category", "course"));
    }
}

#[cfg(test)]
mod label_text_memo {
    use super::*;

    fn text_stats(lex: &Lexicon) -> CacheStats {
        lex.named_cache_stats()
            .into_iter()
            .find(|(name, _)| *name == "lexicon.text")
            .expect("lexicon.text is registered")
            .1
    }

    /// The memo returns `LabelText::new`'s normalization, cold and warm,
    /// on hostile strings too, and a repeat lookup shares the `Arc`.
    #[test]
    fn memo_equals_direct_normalization_and_shares_arcs() {
        let lex = Lexicon::builtin();
        let long = "Departure City ".repeat(1024 / 15 + 1)[..1024].to_string();
        let labels = [
            "",
            "   ",
            "$$!",
            "(--)",
            "Zipcode",
            "Area of Study",
            "Children (under 12)",
            "Prix du billet — é ß Ω 中 🚀",
            "\u{0301}\u{00a0}\t\u{7}",
            long.as_str(),
        ];
        for raw in labels {
            let cold = lex.label_text(raw);
            assert_eq!(*cold, qi_text::LabelText::new(raw, &lex), "{raw:?}");
            let warm = lex.label_text(raw);
            assert!(Arc::ptr_eq(&cold, &warm), "{raw:?} was normalized twice");
        }
        let stats = text_stats(&lex);
        assert_eq!((stats.hits, stats.misses), (10, 10));
    }

    /// Past the cap the memo drops entries, never holds more than
    /// `LABEL_TEXT_CAP`, keeps answering correctly and keeps its
    /// counters; `reset_caches` zeroes them.
    #[test]
    fn memo_is_bounded_and_keeps_counters_on_overflow() {
        let lex = Lexicon::builtin();
        for i in 0..5_000 {
            let raw = format!("Departure City {i}");
            let text = lex.label_text(&raw);
            assert_eq!(*text, qi_text::LabelText::new(&raw, &lex));
            assert!(text_stats(&lex).entries <= LABEL_TEXT_CAP, "after {i}");
        }
        let stats = text_stats(&lex);
        assert_eq!((stats.hits, stats.misses), (0, 5_000));
        let last = lex.label_text("Departure City 4999");
        assert_eq!(*last, qi_text::LabelText::new("Departure City 4999", &lex));
        assert_eq!(text_stats(&lex).hits, 1, "the newest entry survives");
        lex.reset_caches();
        assert_eq!(text_stats(&lex), CacheStats::default());
    }

    /// A stream of more than twice `BASE_FORM_CAP` distinct unknown
    /// tokens never grows the morphology memo past its cap, and every
    /// answer, known inflections included, equals the unmemoized one.
    #[test]
    fn base_form_memo_is_bounded() {
        let lex = Lexicon::builtin();
        for i in 0..2 * BASE_FORM_CAP + 1_000 {
            let token = match i % 500 {
                0 => "cities".to_string(),
                1 => "children".to_string(),
                _ => format!("zq{i}ings"),
            };
            assert_eq!(
                lex.base_form(&token),
                lex.base_form_uncached(&token),
                "{token}"
            );
            assert!(
                lex.morph_cache_stats().entries <= BASE_FORM_CAP,
                "after {i}"
            );
        }
        assert_eq!(lex.base_form("cities").as_deref(), Some("city"));
    }

    /// A stream of more than twice `RESOLVE_CAP` distinct unknown words
    /// never grows the resolution memo past its cap, and every answer,
    /// known words included, equals the unmemoized one.
    #[test]
    fn resolve_memo_is_bounded() {
        let lex = Lexicon::builtin();
        let resolve_entries = |lex: &Lexicon| {
            let stats = lex.named_cache_stats();
            let (_, resolve) = stats.iter().find(|(n, _)| *n == "lexicon.resolve").unwrap();
            resolve.entries
        };
        for i in 0..2 * RESOLVE_CAP + 1_000 {
            let word = match i % 500 {
                0 => "cities".to_string(),
                1 => "airline".to_string(),
                _ => format!("zq{i}ings"),
            };
            assert_eq!(lex.resolve(&word), lex.resolve_uncached(&word), "{word}");
            assert!(resolve_entries(&lex) <= RESOLVE_CAP, "after {i}");
        }
        assert!(!lex.resolve("airline").is_empty());
    }
}

#[cfg(test)]
mod compound_integration {
    use super::*;
    use qi_text::Lemmatizer;
    use std::time::{Duration, Instant};

    /// The splitting bound is the longest lemma plus Morphy's largest
    /// detachment (a doubled consonant plus `ing`), and a word that long
    /// exists.
    #[test]
    fn max_word_len_is_the_longest_inflection() {
        let lex = Lexicon::builtin();
        let longest = lex.lemma_index.keys().max_by_key(|l| l.len()).unwrap();
        let surface = lex.exceptions.keys().map(String::len).max().unwrap();
        assert_eq!(morphy::MAX_DETACHMENT, 4);
        let max = lex.max_word_len().expect("bounded");
        assert_eq!(max, (longest.len() + 4).max(surface));
        let last = &longest[longest.len() - 1..];
        let doubled = format!("{longest}{last}ing");
        assert!(lex.is_word(&doubled), "{doubled:?}");
        assert_eq!(doubled.len(), max);
    }

    /// A 64 KiB single-token label normalizes quickly and leaves at most
    /// two entries in the unbounded morphology cache: no split point of
    /// such a token has halves short enough to probe.
    #[test]
    fn a_64_kib_token_normalizes_in_linear_time() {
        let lex = Lexicon::builtin();
        let token: String = (0..64 * 1024)
            .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
            .collect();
        let before = lex.morph_cache_stats().entries;
        let started = Instant::now();
        let text = lex.label_text(&token);
        let elapsed = started.elapsed();
        assert_eq!(text.words.len(), 1);
        assert!(lex.morph_cache_stats().entries - before <= 2);
        assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    }

    /// The builtin lexicon splits `zipcode` via the compound rule, so
    /// `Zipcode` is *equal* to `Zip Code` (a ubiquitous real-Web variant).
    #[test]
    fn zipcode_equals_zip_code() {
        let lex = Lexicon::builtin();
        let a = qi_text::LabelText::new("Zipcode", &lex);
        let b = qi_text::LabelText::new("Zip Code", &lex);
        assert!(a.word_equal(&b), "{:?} vs {:?}", a.keys(), b.keys());
    }

    /// Known lemmas never split, even when halves happen to be words.
    #[test]
    fn known_lemmas_do_not_split() {
        let lex = Lexicon::builtin();
        // `mileage` is a lemma even though `mile` + `age` are both words.
        let m = qi_text::LabelText::new("Mileage", &lex);
        assert_eq!(m.expressiveness(), 1, "{:?}", m.keys());
    }
}
