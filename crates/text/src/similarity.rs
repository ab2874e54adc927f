//! String- and token-level similarity measures.
//!
//! The paper's label relations are purely lexicon-driven; real matcher
//! front-ends (\[10, 23, 24\]) additionally use surface-string similarity
//! to catch misspellings and abbreviations WordNet cannot. This module
//! provides the standard measures the `qi-mapping` matcher (and user
//! code) can layer on top of Definition 1:
//!
//! * [`levenshtein`] / [`normalized_levenshtein`] / [`levenshtein_within`]
//!   — edit distance;
//! * [`jaccard`] / [`dice`] — token-set overlap;
//! * [`prefix_abbreviation`] — does one token abbreviate another
//!   (`qty` → `quantity`, `min` → `minimum`)?

use std::collections::BTreeSet;

/// Classic Levenshtein edit distance (two-row dynamic program), over
/// Unicode scalar values. ASCII inputs run directly on the byte slices,
/// skipping the per-call `Vec<char>` collection — token stems on the
/// matcher's fuzzy tier are almost always ASCII, and the allocation
/// dominated the DP for short strings.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a.is_ascii() && b.is_ascii() {
        return levenshtein_units(a.as_bytes(), b.as_bytes());
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_units(&a, &b)
}

fn levenshtein_units<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current: Vec<usize> = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current[j + 1] = substitution.min(prev[j + 1] + 1).min(current[j] + 1);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Whether `a` and `b` are at most `k` edits apart, i.e.
/// `levenshtein(a, b) <= k`. For `k` of 0 or 1 — the budgets a strict
/// similarity threshold leaves on short tokens — this is one linear pass
/// with no dynamic program and no allocation for ASCII inputs.
pub fn levenshtein_within(a: &str, b: &str, k: usize) -> bool {
    if k >= 2 {
        return levenshtein(a, b) <= k;
    }
    if a.is_ascii() && b.is_ascii() {
        return within_one_units(a.as_bytes(), b.as_bytes(), k);
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    within_one_units(&a, &b, k)
}

/// `levenshtein(a, b) <= k` for `k` of 0 or 1: past the common prefix,
/// the rest must be equal once the first unit of the longer side (of
/// both sides, for a substitution) is skipped.
fn within_one_units<T: PartialEq>(a: &[T], b: &[T], k: usize) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if long.len() - short.len() > k {
        return false;
    }
    let common = short.iter().zip(long).take_while(|(x, y)| x == y).count();
    if common == long.len() {
        return true;
    }
    let skip = usize::from(short.len() == long.len());
    k == 1 && short[common + skip..] == long[common + 1..]
}

/// Levenshtein similarity normalized to `[0, 1]`: `1.0` for equal
/// strings, `0.0` for maximally different ones.
pub fn normalized_levenshtein(a: &str, b: &str) -> f64 {
    let char_len = |s: &str| {
        if s.is_ascii() {
            s.len()
        } else {
            s.chars().count()
        }
    };
    let max_len = char_len(a).max(char_len(b));
    if max_len == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max_len as f64
}

/// Jaccard overlap of two token sets.
pub fn jaccard<'a, I, J>(a: I, b: J) -> f64
where
    I: IntoIterator<Item = &'a str>,
    J: IntoIterator<Item = &'a str>,
{
    let sa: BTreeSet<&str> = a.into_iter().collect();
    let sb: BTreeSet<&str> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    intersection as f64 / union as f64
}

/// Dice coefficient of two token sets (`2|A∩B| / (|A|+|B|)`).
pub fn dice<'a, I, J>(a: I, b: J) -> f64
where
    I: IntoIterator<Item = &'a str>,
    J: IntoIterator<Item = &'a str>,
{
    let sa: BTreeSet<&str> = a.into_iter().collect();
    let sb: BTreeSet<&str> = b.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let intersection = sa.intersection(&sb).count();
    2.0 * intersection as f64 / (sa.len() + sb.len()) as f64
}

/// True if `short` plausibly abbreviates `long`: a strict prefix of at
/// least 2 characters (`min` → `minimum`), or the consonant skeleton of
/// `long` (`qty` → `quantity`, `pwd` → `password`).
pub fn prefix_abbreviation(short: &str, long: &str) -> bool {
    if short.len() < 2 || short.len() >= long.len() {
        return false;
    }
    if long.starts_with(short) {
        return true;
    }
    // Consonant-skeleton check: the short form's characters appear in
    // order in the long form, starting at the first character.
    let mut long_chars = long.chars();
    let mut first = true;
    for c in short.chars() {
        let found = if first {
            first = false;
            long_chars.next() == Some(c)
        } else {
            long_chars.any(|lc| lc == c)
        };
        if !found {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn levenshtein_within_agrees_with_the_distance() {
        // Every pair of strings over a two-letter alphabet up to length
        // four, at every budget up to three, plus non-ASCII pairs.
        let mut strings = vec![String::new()];
        for len in 1..=4 {
            for bits in 0..1u32 << len {
                strings.push(
                    (0..len)
                        .map(|i| if bits >> i & 1 == 1 { 'b' } else { 'a' })
                        .collect(),
                );
            }
        }
        let pairs = strings
            .iter()
            .flat_map(|a| strings.iter().map(move |b| (a.as_str(), b.as_str())));
        let unicode = [
            ("café", "cafe"),
            ("café", "cafés"),
            ("ça", "ca"),
            ("née", "nee"),
            ("é", ""),
        ];
        for (a, b) in pairs.chain(unicode) {
            for k in 0..=3 {
                assert_eq!(
                    levenshtein_within(a, b, k),
                    levenshtein(a, b) <= k,
                    "{a:?} {b:?} {k}"
                );
            }
        }
    }

    #[test]
    fn normalized_levenshtein_bounds() {
        assert_eq!(normalized_levenshtein("", ""), 1.0);
        assert_eq!(normalized_levenshtein("abc", "abc"), 1.0);
        assert_eq!(normalized_levenshtein("abc", "xyz"), 0.0);
        let v = normalized_levenshtein("color", "colour");
        assert!((0.8..1.0).contains(&v), "{v}");
    }

    #[test]
    fn jaccard_and_dice() {
        assert_eq!(jaccard(["a", "b"], ["a", "b"]), 1.0);
        assert_eq!(jaccard(["a"], ["b"]), 0.0);
        assert!((jaccard(["a", "b"], ["b", "c"]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((dice(["a", "b"], ["b", "c"]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard([] as [&str; 0], [] as [&str; 0]), 1.0);
        assert_eq!(dice([] as [&str; 0], [] as [&str; 0]), 1.0);
    }

    #[test]
    fn abbreviations() {
        assert!(prefix_abbreviation("min", "minimum"));
        assert!(prefix_abbreviation("max", "maximum"));
        assert!(prefix_abbreviation("qty", "quantity"));
        assert!(prefix_abbreviation("pwd", "password"));
        assert!(!prefix_abbreviation("max", "minimum"));
        assert!(!prefix_abbreviation("m", "minimum"), "too short");
        assert!(!prefix_abbreviation("minimum", "min"), "wrong direction");
        assert!(!prefix_abbreviation("tyq", "quantity"), "order matters");
    }
}
