//! Morphy-style rule lemmatization.
//!
//! WordNet's morphological processor ("Morphy") reduces inflected forms to
//! base forms by (1) an exception list for irregulars and (2) a small set
//! of suffix-detachment rules whose output is accepted only if it is a
//! known lemma. The exception list lives in the [`crate::Lexicon`]; this
//! module implements the detachment rules.

/// Suffix detachment rules, tried in order. `(suffix, replacement)`.
///
/// These are WordNet's noun, verb and adjective rules merged into a single
/// list — query-interface labels do not carry part-of-speech information,
/// so, like the paper, we accept the first candidate validated by the
/// lemma index regardless of part of speech.
const RULES: &[(&str, &str)] = &[
    // noun rules
    ("ses", "s"),
    ("xes", "x"),
    ("zes", "z"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("men", "man"),
    ("ies", "y"),
    // verb rules
    ("es", "e"),
    ("es", ""),
    ("ed", "e"),
    ("ed", ""),
    ("ing", "e"),
    ("ing", ""),
    // adjective rules
    ("er", ""),
    ("est", ""),
    ("er", "e"),
    ("est", "e"),
    // plain plural last (most permissive)
    ("s", ""),
];

/// How much longer than its lemma a form [`reduce`] accepts can be: a
/// doubled consonant plus `ing`, more than any rule's net detachment.
pub const MAX_DETACHMENT: usize = 4;

/// Apply the detachment rules to `token`, returning the first candidate
/// accepted by `is_lemma`. Returns `None` when no rule produces a known
/// lemma.
pub fn reduce(token: &str, is_lemma: impl Fn(&str) -> bool) -> Option<String> {
    if token.len() < 3 {
        return None;
    }
    for (suffix, replacement) in RULES {
        if let Some(stripped) = token.strip_suffix(suffix) {
            let candidate = format!("{stripped}{replacement}");
            if !candidate.is_empty() && candidate != token && is_lemma(&candidate) {
                return Some(candidate);
            }
        }
    }
    // Doubled-consonant verb forms: "stopped" -> "stop", "stopping" -> "stop".
    for suffix in ["ed", "ing"] {
        if let Some(stripped) = token.strip_suffix(suffix) {
            let bytes = stripped.as_bytes();
            if bytes.len() >= 3 && bytes[bytes.len() - 1] == bytes[bytes.len() - 2] {
                let candidate = &stripped[..stripped.len() - 1];
                if is_lemma(candidate) {
                    return Some(candidate.to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn max_detachment_bounds_every_rule() {
        assert_eq!(MAX_DETACHMENT, "p".len() + "ing".len());
        for (suffix, replacement) in RULES {
            assert!(suffix.len().saturating_sub(replacement.len()) <= MAX_DETACHMENT);
        }
    }

    fn lemmas() -> HashSet<&'static str> {
        [
            "city", "area", "bus", "box", "church", "man", "leave", "go", "stop", "prefer",
            "depart", "large", "wish", "stay",
        ]
        .into_iter()
        .collect()
    }

    fn run(token: &str) -> Option<String> {
        let known = lemmas();
        reduce(token, |c| known.contains(c))
    }

    #[test]
    fn noun_plurals() {
        assert_eq!(run("cities").as_deref(), Some("city"));
        assert_eq!(run("areas").as_deref(), Some("area"));
        assert_eq!(run("buses").as_deref(), Some("bus"));
        assert_eq!(run("boxes").as_deref(), Some("box"));
        assert_eq!(run("churches").as_deref(), Some("church"));
        assert_eq!(run("men").as_deref(), Some("man"));
    }

    #[test]
    fn verb_forms() {
        assert_eq!(run("leaves").as_deref(), Some("leave"));
        assert_eq!(run("leaving").as_deref(), Some("leave"));
        assert_eq!(run("departed").as_deref(), Some("depart"));
        assert_eq!(run("departing").as_deref(), Some("depart"));
        assert_eq!(run("going").as_deref(), Some("go"));
        assert_eq!(run("preferred").as_deref(), Some("prefer"));
        assert_eq!(run("stopped").as_deref(), Some("stop"));
        assert_eq!(run("stopping").as_deref(), Some("stop"));
        assert_eq!(run("wishes").as_deref(), Some("wish"));
    }

    #[test]
    fn adjective_forms() {
        assert_eq!(run("larger").as_deref(), Some("large"));
        assert_eq!(run("largest").as_deref(), Some("large"));
    }

    #[test]
    fn unknown_or_short_tokens() {
        assert_eq!(run("qwerties"), None);
        assert_eq!(run("as"), None);
        assert_eq!(run(""), None);
    }

    #[test]
    fn no_self_loop() {
        // A token that is already a lemma is not "reduced" to itself.
        assert_eq!(run("go"), None);
    }
}
