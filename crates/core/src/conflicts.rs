//! Homonym detection and repair (§4.2.3).
//!
//! Two fields of one group must not end up with the same (or semantically
//! equivalent) labels. When a tuple-solution contains such a pair, the
//! repair looks for a source tuple that labels *both* clusters, agrees
//! with the solution on one of them, and supplies a non-similar label for
//! the other: designers of a single interface avoid evident ambiguities,
//! so that tuple's pair of labels is a safe replacement.

use crate::ctx::NamingCtx;
use crate::kernel::GroupRelation;
use qi_runtime::Symbol;
use std::collections::HashMap;

/// Columns of a solution whose labels are homonym-conflicted, in
/// buckets: labels identical up to word order and inflection (`Job Type`
/// / `Type of Job`). Synonym-level pairs (`Job Type` / `Employment Type`)
/// use visually distinct words and are acceptable on a form — the paper's
/// own repair example substitutes exactly such a synonym.
///
/// `a equal b` (or stronger) holds exactly when both labels survive
/// normalization non-empty and their content-word key sets match: string
/// equality (displays equal ignoring case) implies equal key sets,
/// because word analysis lowercases the display first. Key-set equality
/// is an equivalence, so every two columns of one bucket conflict and no
/// two columns of different buckets do. Each bucket holds at least two
/// columns, in ascending order; the buckets come in no particular order.
fn conflict_buckets(labels: &[Option<Symbol>], ctx: &NamingCtx<'_>) -> Vec<Vec<usize>> {
    let texts: Vec<_> = labels.iter().map(|l| l.map(|s| ctx.text_sym(s))).collect();
    let mut by_keys: HashMap<Vec<&str>, Vec<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        let Some(text) = text else { continue };
        if text.is_empty() {
            continue; // relate() treats empty labels as unrelated
        }
        by_keys
            .entry(text.keys().into_iter().collect())
            .or_default()
            .push(i);
    }
    by_keys.into_values().filter(|b| b.len() > 1).collect()
}

/// Attempt to repair every homonym conflict in `labels`. Returns
/// `Some(true)` when conflicts were found and all were repaired,
/// `Some(false)` when at least one conflict remains, and `None` when the
/// solution had no conflicts.
///
/// Pairs are repaired in the `(i, j)` order of a pairwise scan. Buckets
/// partition the columns and a repair reads and writes only its pair's
/// two columns, so walking each bucket's pairs in turn gives the same
/// labels as one global pass, without listing the pairs: a wide group
/// whose columns share few labels has millions.
pub fn repair_conflicts(
    labels: &mut [Option<Symbol>],
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
) -> Option<bool> {
    let buckets = conflict_buckets(labels, ctx);
    if buckets.is_empty() {
        return None;
    }
    let mut all_repaired = true;
    for bucket in &buckets {
        for (a, &i) in bucket.iter().enumerate() {
            for &j in &bucket[a + 1..] {
                if !repair_one(labels, i, j, relation, ctx) {
                    all_repaired = false;
                }
            }
        }
    }
    Some(all_repaired)
}

/// Repair a single conflicting pair by borrowing a disambiguating pair of
/// labels from a source tuple (§4.2.3's `Employment Type` example).
fn repair_one(
    labels: &mut [Option<Symbol>],
    i: usize,
    j: usize,
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
) -> bool {
    let (Some(li), Some(lj)) = (labels[i], labels[j]) else {
        return false;
    };
    for tuple in &relation.tuples {
        let (Some(ti), Some(tj)) = (tuple.labels[i], tuple.labels[j]) else {
            continue;
        };
        // The source itself must be unambiguous.
        if ctx.equal_sym(ti, tj) {
            continue;
        }
        // Case 1: the tuple agrees with the solution on column i and
        // offers a different label for column j.
        if ctx.equal_sym(ti, li) && !ctx.equal_sym(tj, li) {
            labels[j] = Some(tj);
            return true;
        }
        // Case 2: symmetric.
        if ctx.equal_sym(tj, lj) && !ctx.equal_sym(ti, lj) {
            labels[i] = Some(ti);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;
    use qi_mapping::ClusterId;

    fn cids(n: u32) -> Vec<ClusterId> {
        (0..n).map(ClusterId).collect()
    }

    fn syms(labels: &[Option<&str>], ctx: &NamingCtx<'_>) -> Vec<Option<Symbol>> {
        labels.iter().map(|l| l.map(|l| ctx.sym(l))).collect()
    }

    #[test]
    fn detects_equal_level_conflicts() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = syms(
            &[Some("Job Type"), Some("Type of Job"), Some("Company Name")],
            &ctx,
        );
        assert_eq!(conflict_buckets(&labels, &ctx), vec![vec![0, 1]]);
    }

    /// Labels whose displays are equal ignoring case always have equal
    /// content-word key sets, so bucketing on key sets alone finds every
    /// string-equal pair — on case, punctuation and stop-word variants
    /// and on labels that normalize to nothing.
    #[test]
    fn equal_displays_imply_equal_key_sets() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = [
            "Zip Code:",
            "ZIP-code",
            "zip code",
            "Zipcode",
            "Adults",
            "adults",
            "ADULTS",
            "of",
            "OF",
            "?",
            "(18-64)",
            "",
        ];
        let mut display_equal_pairs = 0;
        for a in labels {
            for b in labels {
                let (ta, tb) = (ctx.text_sym(ctx.sym(a)), ctx.text_sym(ctx.sym(b)));
                if ta.display.eq_ignore_ascii_case(&tb.display) {
                    display_equal_pairs += 1;
                    assert_eq!(ta.keys(), tb.keys(), "{a:?} vs {b:?}");
                }
            }
        }
        // Beyond the diagonal, ordered pairs within the classes
        // {Zip Code:, ZIP-code, zip code}, {Adults, adults, ADULTS},
        // {of, OF} and the empty {?, (18-64), ""}.
        assert_eq!(display_equal_pairs, labels.len() + 6 + 6 + 2 + 6);
        let row = syms(
            &[
                Some("Zip Code:"),
                Some("ZIP-code"),
                Some("?"),
                Some("(18-64)"),
            ],
            &ctx,
        );
        assert_eq!(conflict_buckets(&row, &ctx), vec![vec![0, 1]]);
    }

    #[test]
    fn no_conflict_in_clean_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let labels = syms(&[Some("Make"), Some("Model"), None], &ctx);
        assert!(conflict_buckets(&labels, &ctx).is_empty());
        let mut l = labels.clone();
        let relation = GroupRelation::from_rows(&cids(3), &[], &ctx);
        assert_eq!(repair_conflicts(&mut l, &relation, &ctx), None);
    }

    /// The paper's example: (Position Options, Job Type, Type of Job,
    /// Company Name) repaired to (…, Job Type, Employment Type, …) using
    /// a tuple (X, Job Type, Employment Type, X).
    #[test]
    fn paper_repair_example() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let solution = [
            Some("Position Options"),
            Some("Job Type"),
            Some("Type of Job"),
            Some("Company Name"),
        ];
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                solution.to_vec(),
                vec![None, Some("Job Type"), Some("Employment Type"), None],
            ],
            &ctx,
        );
        let mut labels = syms(&solution, &ctx);
        let outcome = repair_conflicts(&mut labels, &relation, &ctx);
        assert_eq!(outcome, Some(true));
        assert_eq!(labels[2], Some(ctx.sym("Employment Type")));
        assert_eq!(labels[1], Some(ctx.sym("Job Type")));
        assert!(conflict_buckets(&labels, &ctx).is_empty());
    }

    #[test]
    fn unrepairable_conflict_reports_false() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // No tuple labels both columns, so the conflict cannot be fixed.
        let relation = GroupRelation::from_rows(
            &cids(2),
            &[
                vec![Some("Job Type"), None],
                vec![None, Some("Type of Job")],
            ],
            &ctx,
        );
        let original = syms(&[Some("Job Type"), Some("Type of Job")], &ctx);
        let mut labels = original.clone();
        assert_eq!(repair_conflicts(&mut labels, &relation, &ctx), Some(false));
        // The solution is untouched.
        assert_eq!(labels, original);
    }

    #[test]
    fn ambiguous_source_tuples_are_skipped() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // The only both-columns tuple is itself ambiguous — useless.
        let row = [Some("Job Type"), Some("Type of Job")];
        let relation = GroupRelation::from_rows(&cids(2), &[row.to_vec()], &ctx);
        let mut labels = syms(&row, &ctx);
        assert_eq!(repair_conflicts(&mut labels, &relation, &ctx), Some(false));
    }
}
