//! Label tokenization.
//!
//! Query-interface labels are short natural-language phrases — `Departing
//! from`, `Max. Number of Stops`, `Adults (18-64)` — possibly decorated with
//! punctuation, parenthesized comments, or form markup residue. The
//! tokenizer splits a label into lowercase alphanumeric word tokens.

/// Split a label into lowercase word tokens.
///
/// A token is a maximal run of ASCII alphanumeric characters; everything
/// else (whitespace, punctuation, symbols) separates tokens. Tokens are
/// lowercased. Purely numeric tokens are kept: they matter for labels such
/// as `Room 1` and are later dropped by stop-word filtering only when
/// configured to do so.
///
/// ```
/// use qi_text::tokenize;
/// assert_eq!(tokenize("Max. Number of Stops"), vec!["max", "number", "of", "stops"]);
/// assert_eq!(tokenize("Departing from"), vec!["departing", "from"]);
/// assert_eq!(tokenize(""), Vec::<String>::new());
/// ```
pub fn tokenize(label: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// The word tokens of an already ASCII-lowercased label, as slices of
/// it: [`tokenize`] without a copy per token. `tokenize(label)` equals
/// `token_slices(&label.to_ascii_lowercase())`.
pub fn token_slices(lowered: &str) -> impl Iterator<Item = &str> {
    lowered
        .split(|ch: char| !ch.is_ascii_alphanumeric())
        .filter(|token| !token.is_empty())
}

/// Remove a parenthesized / bracketed trailing comment from a label.
///
/// The paper's first normalization step turns `Adults (18-64)` into
/// `Adults`. We strip *all* parenthesized and bracketed spans, wherever
/// they occur, since source interfaces also embed mid-label comments
/// (`Price ($) range`).
pub fn strip_comments(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut depth = 0usize;
    for ch in label.chars() {
        match ch {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_simple() {
        assert_eq!(tokenize("Adults"), vec!["adults"]);
    }

    #[test]
    fn tokenize_multiword() {
        assert_eq!(
            tokenize("Number of Connections"),
            vec!["number", "of", "connections"]
        );
    }

    #[test]
    fn tokenize_punctuation() {
        assert_eq!(tokenize("Make/Model"), vec!["make", "model"]);
        assert_eq!(tokenize("Price $"), vec!["price"]);
        assert_eq!(tokenize("Zip Code:"), vec!["zip", "code"]);
    }

    #[test]
    fn tokenize_question() {
        assert_eq!(
            tokenize("Do you have any preferences?"),
            vec!["do", "you", "have", "any", "preferences"]
        );
    }

    #[test]
    fn tokenize_keeps_numbers() {
        assert_eq!(tokenize("Room 1"), vec!["room", "1"]);
    }

    #[test]
    fn tokenize_empty_and_symbolic() {
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("$$ -- !!"), Vec::<String>::new());
    }

    #[test]
    fn strip_trailing_comment() {
        assert_eq!(strip_comments("Adults (18-64)"), "Adults ");
    }

    #[test]
    fn strip_nested_comment() {
        assert_eq!(strip_comments("A (b (c) d) E"), "A  E");
    }

    #[test]
    fn strip_unbalanced_is_lenient() {
        assert_eq!(strip_comments("A ) B"), "A  B");
        assert_eq!(strip_comments("A ( B"), "A ");
    }

    #[test]
    fn strip_brackets() {
        assert_eq!(strip_comments("Price [USD]"), "Price ");
    }
}
