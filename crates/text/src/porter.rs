//! A complete implementation of the Porter stemming algorithm.
//!
//! M. F. Porter, *An algorithm for suffix stripping*, Program 14(3), 1980.
//! The paper's normalization pipeline (§3.1, step 2) stems every extracted
//! token with this algorithm — e.g. both `Preference` and `Preferred` stem
//! to `prefer`, which is what makes `Preferred Airline` and
//! `Airline Preference` *equal* at the content-word level (Table 4 of the
//! paper).
//!
//! The implementation operates on lowercase ASCII words; non-ASCII input is
//! returned unchanged. All five steps (1a, 1b, 1c, 2, 3, 4, 5a, 5b) of the
//! original algorithm are implemented.

use qi_runtime::{CacheStats, ShardedCache};
use std::sync::OnceLock;

/// Most stems the process-wide memo keeps. One cold pass over a
/// 100-domain drift corpus leaves about 1,300 entries, which fit, while a
/// long-running server that meets new tokens on every ingest stays
/// bounded.
pub const STEM_CAP: usize = 4_096;

/// Process-wide stem memo-cache, bounded by [`STEM_CAP`]. The corpus
/// vocabulary is a few thousand distinct tokens stemmed millions of times
/// across clusters and domains, so the cache converges quickly and then
/// answers from a shard read lock. `stem` is pure, so memoization is
/// transparent.
fn stem_cache() -> &'static ShardedCache<String, String> {
    static CACHE: OnceLock<ShardedCache<String, String>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedCache::bounded(STEM_CAP))
}

/// Hit/miss counters of the stem memo-cache.
pub fn stem_cache_stats() -> CacheStats {
    stem_cache().stats()
}

/// Drop all memoized stems and reset the counters. The cache is
/// process-wide, so determinism tests reset it between runs to make the
/// second run's hit/miss sequence identical to the first's.
pub fn stem_cache_reset() {
    stem_cache().clear();
}

/// Stem a single lowercase word with the Porter algorithm (memoized).
///
/// ```
/// use qi_text::stem;
/// assert_eq!(stem("connections"), "connect");
/// assert_eq!(stem("preference"), "prefer");
/// assert_eq!(stem("preferred"), "prefer");
/// assert_eq!(stem("flying"), "fly");
/// ```
pub fn stem(word: &str) -> String {
    if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
        return word.to_string();
    }
    if let Some(hit) = stem_cache().get(word) {
        return hit;
    }
    let stemmed = stem_uncached(word);
    stem_cache().insert(word.to_string(), stemmed.clone());
    stemmed
}

/// The raw algorithm, no memoization.
fn stem_uncached(word: &str) -> String {
    let mut w: Vec<u8> = word.as_bytes().to_vec();
    step_1a(&mut w);
    step_1b(&mut w);
    step_1c(&mut w);
    step_2(&mut w);
    step_3(&mut w);
    step_4(&mut w);
    step_5a(&mut w);
    step_5b(&mut w);
    // Safety of from_utf8: we only ever shrink or append ASCII bytes.
    String::from_utf8(w).expect("porter stemmer produces ASCII")
}

/// True if `w[i]` is a consonant in Porter's sense: a letter other than
/// a/e/i/o/u, and other than `y` preceded by a consonant.
fn is_consonant(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                !is_consonant(w, i - 1)
            }
        }
        _ => true,
    }
}

/// Porter's measure *m* of the prefix `w[..len]`: the number of
/// vowel-consonant sequences `(VC)` in the form `[C](VC)^m[V]`.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Skip consonants: one full VC sequence seen.
        while i < len && is_consonant(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// `*v*` — the prefix `w[..len]` contains a vowel.
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(w, i))
}

/// `*d` — the prefix ends with a double consonant.
fn ends_double_consonant(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_consonant(w, len - 1)
}

/// `*o` — the prefix ends consonant-vowel-consonant where the final
/// consonant is not `w`, `x` or `y`.
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    let last = w[len - 1];
    is_consonant(w, len - 3)
        && !is_consonant(w, len - 2)
        && is_consonant(w, len - 1)
        && last != b'w'
        && last != b'x'
        && last != b'y'
}

fn ends_with(w: &[u8], suffix: &str) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix.as_bytes()
}

/// If the word ends with `suffix` and the measure of the stem before it is
/// `> min_measure`, replace the suffix with `replacement` and return true.
fn replace_if_measure(
    w: &mut Vec<u8>,
    suffix: &str,
    replacement: &str,
    min_measure: usize,
) -> bool {
    if !ends_with(w, suffix) {
        return false;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w, stem_len) > min_measure {
        w.truncate(stem_len);
        w.extend_from_slice(replacement.as_bytes());
        true
    } else {
        // Suffix matched but condition failed: the step still *consumed*
        // this suffix family (Porter's rules are first-match-wins).
        true
    }
}

fn step_1a(w: &mut Vec<u8>) {
    if ends_with(w, "sses") {
        w.truncate(w.len() - 2); // sses -> ss
    } else if ends_with(w, "ies") {
        w.truncate(w.len() - 2); // ies -> i
    } else if ends_with(w, "ss") {
        // unchanged
    } else if ends_with(w, "s") {
        w.truncate(w.len() - 1);
    }
}

fn step_1b(w: &mut Vec<u8>) {
    if ends_with(w, "eed") {
        let stem_len = w.len() - 3;
        if measure(w, stem_len) > 0 {
            w.truncate(w.len() - 1); // eed -> ee
        }
        return;
    }
    let removed = if ends_with(w, "ed") && has_vowel(w, w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if ends_with(w, "ing") && has_vowel(w, w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if !removed {
        return;
    }
    if ends_with(w, "at") || ends_with(w, "bl") || ends_with(w, "iz") {
        w.push(b'e');
    } else if ends_double_consonant(w, w.len()) {
        let last = w[w.len() - 1];
        if last != b'l' && last != b's' && last != b'z' {
            w.truncate(w.len() - 1);
        }
    } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
        w.push(b'e');
    }
}

fn step_1c(w: &mut [u8]) {
    if ends_with(w, "y") && has_vowel(w, w.len() - 1) {
        let n = w.len();
        w[n - 1] = b'i';
    }
}

fn step_2(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_measure(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step_3(w: &mut Vec<u8>) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, replacement) in RULES {
        if ends_with(w, suffix) {
            replace_if_measure(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step_4(w: &mut Vec<u8>) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
        "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    // "ion" needs a side condition: stem must end in s or t.
    if ends_with(w, "ion") {
        let stem_len = w.len() - 3;
        if stem_len > 0 && (w[stem_len - 1] == b's' || w[stem_len - 1] == b't') {
            if measure(w, stem_len) > 1 {
                w.truncate(stem_len);
            }
            return;
        }
    }
    // Longest-match-first among the plain suffixes.
    let mut best: Option<&str> = None;
    for suffix in SUFFIXES {
        if ends_with(w, suffix) && best.is_none_or(|b| suffix.len() > b.len()) {
            best = Some(suffix);
        }
    }
    if let Some(suffix) = best {
        let stem_len = w.len() - suffix.len();
        if measure(w, stem_len) > 1 {
            w.truncate(stem_len);
        }
    }
}

fn step_5a(w: &mut Vec<u8>) {
    if ends_with(w, "e") {
        let stem_len = w.len() - 1;
        let m = measure(w, stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w, stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step_5b(w: &mut Vec<u8>) {
    if measure(w, w.len()) > 1 && ends_double_consonant(w, w.len()) && w[w.len() - 1] == b'l' {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical examples from Porter's paper.
    #[test]
    fn porter_paper_examples() {
        for (input, expected) in [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ] {
            assert_eq!(stem(input), expected, "stem({input:?})");
        }
    }

    /// Examples load-bearing for the paper's label relations.
    #[test]
    fn label_vocabulary_examples() {
        assert_eq!(stem("preference"), stem("preferred"));
        assert_eq!(stem("adults"), "adult");
        assert_eq!(stem("seniors"), "senior");
        assert_eq!(stem("children"), "children"); // irregular: lemmatizer's job
        assert_eq!(stem("infants"), "infant");
        assert_eq!(stem("connections"), "connect");
        assert_eq!(stem("tickets"), "ticket");
        assert_eq!(stem("departing"), "depart");
        assert_eq!(stem("going"), "go");
        assert_eq!(stem("leaving"), "leav");
        assert_eq!(stem("keywords"), "keyword");
    }

    #[test]
    fn short_words_unchanged() {
        assert_eq!(stem("to"), "to");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("is"), "is");
    }

    #[test]
    fn non_lowercase_unchanged() {
        assert_eq!(stem("Adults"), "Adults");
        assert_eq!(stem("naïve"), "naïve");
        assert_eq!(stem("123"), "123");
    }

    #[test]
    fn idempotent_on_common_vocabulary() {
        // Porter is not idempotent in general, but it should be stable on
        // the short noun vocabulary of query-interface labels.
        for word in [
            "adult", "senior", "infant", "airline", "class", "ticket", "make", "model", "state",
            "city", "zip", "code", "price", "year", "job", "cabin",
        ] {
            let once = stem(word);
            assert_eq!(stem(&once), once, "stem not stable on {word:?}");
        }
    }

    #[test]
    fn measure_computation() {
        // m(tr) = 0, m(trouble without final e -> "troubl") etc.
        let w = b"tr".to_vec();
        assert_eq!(measure(&w, 2), 0);
        let w = b"trouble".to_vec();
        assert_eq!(measure(&w, 7), 1); // [tr](ou-bl)(e) : one VC sequence
        let w = b"oaten".to_vec();
        assert_eq!(measure(&w, 5), 2);
        let w = b"tree".to_vec();
        assert_eq!(measure(&w, 4), 0);
    }

    #[test]
    fn cvc_rule() {
        let w = b"hop".to_vec();
        assert!(ends_cvc(&w, 3));
        let w = b"snow".to_vec();
        assert!(!ends_cvc(&w, 4)); // ends in w
        let w = b"box".to_vec();
        assert!(!ends_cvc(&w, 3)); // ends in x
    }

    /// A stream of more than twice `STEM_CAP` distinct memoizable words
    /// never grows the process-wide memo past its cap, and every stem,
    /// known words included, equals the unmemoized one.
    #[test]
    fn stem_memo_is_bounded() {
        for i in 0..2 * STEM_CAP + 1_000 {
            let word = match i % 500 {
                0 => "connections".to_string(),
                1 => "preferred".to_string(),
                _ => {
                    // Lowercase letters only: other words bypass the memo.
                    let mut word = String::from("zq");
                    let mut n = i;
                    while n > 0 {
                        word.push(char::from(b'a' + (n % 26) as u8));
                        n /= 26;
                    }
                    word + "ings"
                }
            };
            assert_eq!(stem(&word), stem_uncached(&word), "{word}");
            assert!(stem_cache_stats().entries <= STEM_CAP, "after {i}");
        }
        assert_eq!(stem("preferred"), "prefer");
    }
}
