//! Naming the fields of a group (§4.1–§4.3).
//!
//! `name_group` interns the group relation once ([`InternedRelation`])
//! and walks the relaxation ladder of Definition 2: at each consistency
//! level it partitions the group relation (§4.1.1); as soon as some
//! partition covers every (coverable) cluster it derives the
//! tuple-solutions with `Combine*`, keeps the best one (§4.2.1:
//! expressiveness, then frequency — or the most-general baseline
//! ordering), repairs its homonym conflicts (§4.2.3) and reports a
//! *consistent* naming. If no level produces a covering partition, the
//! greedy concatenation of §4.2.2 builds a *partially consistent* naming
//! instead.

use crate::combine::{
    combine_star, greedy_derivation, tuple_expressiveness, Derivation, TupleSolution,
};
use crate::conflicts::repair_conflicts;
use crate::consistency::ConsistencyLevel;
use crate::ctx::NamingCtx;
use crate::kernel::{GroupRelation, InternedRelation};
use crate::partition::{components, result_from_components, TuplePartition};
use crate::policy::{LabelSelection, NamingPolicy};
use qi_runtime::Symbol;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// The chosen naming solution for a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSolution {
    /// Labels per cluster column (`None` = no source ever labels it).
    pub labels: Vec<Option<Symbol>>,
    /// Relation tuples whose components were used.
    pub used_tuples: BTreeSet<usize>,
    /// Tuples of the partition that supplied the solution (empty for a
    /// partially consistent solution assembled across partitions).
    pub partition_tuples: Vec<usize>,
    /// Distinct content words across the labels.
    pub expressiveness: usize,
    /// Verbatim occurrences among the relation's tuples.
    pub frequency: usize,
    /// True if one interface supplied the whole solution (Definition 4).
    pub is_candidate: bool,
    /// Homonym repair outcome (`None` = no conflict found).
    pub conflict_repaired: Option<bool>,
}

/// The naming outcome for one group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupNaming {
    /// The best-ranked solution (all-null for a relation without tuples).
    pub best: GroupSolution,
    /// Level at which consistency was achieved; `None` for partially
    /// consistent outcomes.
    pub level: Option<ConsistencyLevel>,
    /// True when the labels form a consistent solution (Proposition 1).
    pub consistent: bool,
}

/// §4.2.1's ranking of two solutions by `(expressiveness, frequency)`
/// keys, then by labels: `Less` when `a` ranks before `b`.
fn rank_order(
    selection: LabelSelection,
    (ea, fa): (usize, usize),
    (eb, fb): (usize, usize),
    labels: impl FnOnce() -> Ordering,
) -> Ordering {
    match selection {
        LabelSelection::MostDescriptive => eb.cmp(&ea).then(fb.cmp(&fa)).then_with(labels),
        LabelSelection::MostGeneral => fb.cmp(&fa).then(ea.cmp(&eb)).then_with(labels),
    }
}

/// The best-ranked tuple-solution of a derivation and its rank key: the
/// first-encountered minimum under [`rank_order`], ties ordered by
/// spelling.
fn best_state(
    relation: &mut InternedRelation,
    derived: &Derivation,
    selection: LabelSelection,
) -> Option<((usize, usize), usize)> {
    let mut best: Option<((usize, usize), usize)> = None;
    for &s in derived.solutions() {
        let row = derived.row(s);
        let key = (relation.expressiveness(row), relation.frequency(row));
        if best.is_none_or(|(k, b)| {
            rank_order(selection, key, k, || relation.cmp_rows(row, derived.row(b))).is_lt()
        }) {
            best = Some((key, s));
        }
    }
    best
}

/// Solutions of one partition: the exhaustive `Combine*` enumeration for
/// normally sized groups, falling back to the linear-time spanning-tree
/// construction (§4.2.1) when the group is too wide for enumeration or
/// the state cap was reached without a complete tuple. Wide, loosely
/// consistent collections of clusters are exactly the root "group" the
/// paper accepts partially consistent solutions for (§4), so a single
/// greedy solution is adequate there.
fn partition_solutions(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Derivation {
    const MAX_EXHAUSTIVE_TUPLES: usize = 12;
    const MAX_EXHAUSTIVE_WIDTH: usize = 8;
    const ALWAYS_EXHAUSTIVE_WIDTH: usize = 6;
    if partition.covered.len() <= ALWAYS_EXHAUSTIVE_WIDTH
        || (partition.tuples.len() <= MAX_EXHAUSTIVE_TUPLES
            && partition.covered.len() <= MAX_EXHAUSTIVE_WIDTH)
    {
        let derived = combine_star(relation, partition, level, ctx);
        if !derived.solutions().is_empty() {
            return derived;
        }
    }
    greedy_derivation(relation, partition, level, ctx)
}

fn to_group_solution(solution: TupleSolution, partition_tuples: Vec<usize>) -> GroupSolution {
    GroupSolution {
        labels: solution.labels,
        used_tuples: solution.used_tuples,
        partition_tuples,
        expressiveness: solution.expressiveness,
        frequency: solution.frequency,
        is_candidate: solution.is_candidate,
        conflict_repaired: None,
    }
}

/// The best-ranked solution across the covering partitions at one level
/// (`None` when none of them yields a complete tuple). Only the winner is
/// materialized; ties keep the earlier solution, in partition order and
/// then derivation order.
fn best_consistent(
    relation: &mut InternedRelation,
    partitions: &[&TuplePartition],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    selection: LabelSelection,
) -> Option<GroupSolution> {
    // (rank key, label ids, materialized solution) of the best so far.
    let mut best: Option<((usize, usize), Vec<u32>, GroupSolution)> = None;
    for partition in partitions {
        let derived = partition_solutions(relation, partition, level, ctx);
        let Some((key, s)) = best_state(relation, &derived, selection) else {
            continue;
        };
        let row = derived.row(s);
        if best.as_ref().is_none_or(|(k, r, _)| {
            rank_order(selection, key, *k, || relation.cmp_rows(row, r)).is_lt()
        }) {
            let solution = derived.solution(s, relation, partition);
            best = Some((
                key,
                row.to_vec(),
                to_group_solution(solution, partition.tuples.clone()),
            ));
        }
    }
    best.map(|(_, _, solution)| solution)
}

/// Name the fields of one group (§4.1–§4.3).
pub fn name_group(
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
) -> GroupNaming {
    let null_solution = || GroupSolution {
        labels: vec![None; relation.width()],
        used_tuples: BTreeSet::new(),
        partition_tuples: Vec::new(),
        expressiveness: 0,
        frequency: 0,
        is_candidate: false,
        conflict_repaired: None,
    };
    if relation.tuples.is_empty() {
        // Nothing is labeled anywhere: the group keeps null labels.
        return GroupNaming {
            best: null_solution(),
            level: None,
            consistent: false,
        };
    }
    let mut interned = InternedRelation::new(relation, ctx);
    let mut last: Option<(ConsistencyLevel, Vec<usize>)> = None;
    for level in policy.levels() {
        let comps = components(&mut interned, level, ctx);
        let result = result_from_components(relation, level, &comps);
        last = Some((level, comps));
        if !result.has_full_cover() {
            continue;
        }
        let full: Vec<&TuplePartition> = result
            .full
            .iter()
            .map(|&pi| &result.partitions[pi])
            .collect();
        let Some(mut best) = best_consistent(&mut interned, &full, level, ctx, policy.selection)
        else {
            // A covering partition whose Combine* closure still cannot
            // produce a complete tuple (possible when the connecting
            // tuples disagree) — fall through to the next level.
            continue;
        };
        if policy.repair_conflicts {
            best.conflict_repaired = repair_conflicts(&mut best.labels, relation, ctx);
        }
        return GroupNaming {
            best,
            level: Some(level),
            consistent: true,
        };
    }
    // Partially consistent solution (§4.2.2).
    let max_level = *policy.levels().last().unwrap_or(&ConsistencyLevel::String);
    // The ladder normally ends at max_level, so its partitioning is
    // already in hand; recompute only under a non-standard ladder.
    let comps = match last {
        Some((level, comps)) if level == max_level => comps,
        _ => components(&mut interned, max_level, ctx),
    };
    let result = result_from_components(relation, max_level, &comps);
    // Each partition's top-ranked solution, with its non-null count and
    // label ids.
    let mut per_partition: Vec<(usize, Vec<u32>, GroupSolution)> = Vec::new();
    for partition in &result.partitions {
        let derived = partition_solutions(&mut interned, partition, max_level, ctx);
        if let Some((_, s)) = best_state(&mut interned, &derived, policy.selection) {
            let solution = derived.solution(s, &mut interned, partition);
            let row = derived.row(s);
            let width = row.iter().filter(|&&id| id != 0).count();
            let solution = to_group_solution(solution, partition.tuples.clone());
            per_partition.push((width, row.to_vec(), solution));
        }
    }
    // Greedy concatenation: start from the widest partial solution, fill
    // nulls from the next widest, repeat.
    per_partition
        .sort_by(|(na, a, _), (nb, b, _)| nb.cmp(na).then_with(|| interned.cmp_rows(a, b)));
    let per_partition: Vec<GroupSolution> = per_partition.into_iter().map(|(_, _, s)| s).collect();
    let mut merged: GroupSolution = match per_partition.first() {
        Some(first) => first.clone(),
        None => null_solution(),
    };
    merged.partition_tuples = Vec::new(); // spans partitions
    for other in per_partition.iter().skip(1) {
        if merged.labels.iter().all(Option::is_some) {
            break;
        }
        let mut added = false;
        for (slot, label) in merged.labels.iter_mut().zip(&other.labels) {
            if slot.is_none() && label.is_some() {
                *slot = *label;
                added = true;
            }
        }
        if added {
            merged.used_tuples.extend(other.used_tuples.iter().copied());
        }
    }
    merged.expressiveness = tuple_expressiveness(&merged.labels, ctx);
    merged.frequency = 0;
    merged.is_candidate = false;
    if policy.repair_conflicts {
        merged.conflict_repaired = repair_conflicts(&mut merged.labels, relation, ctx);
    }
    GroupNaming {
        best: merged,
        level: None,
        consistent: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;
    use qi_mapping::ClusterId;

    fn cids(n: u32) -> Vec<ClusterId> {
        (0..n).map(ClusterId).collect()
    }

    fn labels(solution: &GroupSolution, ctx: &NamingCtx<'_>) -> Vec<String> {
        ctx.spellings(&solution.labels)
            .into_iter()
            .map(|l| l.unwrap_or_else(|| "∅".to_string()))
            .collect()
    }

    /// Table 2 end-to-end: the group resolves at the string level to
    /// (Seniors, Adults, Children, Infants).
    #[test]
    fn table2_consistent_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                vec![None, Some("Adults"), Some("Children"), None],
                vec![None, Some("Adult"), Some("Child"), Some("Infant")],
                vec![None, Some("Adult"), Some("Child"), None],
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
                vec![None, Some("Adults"), Some("Children"), Some("Infants")],
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
            ],
            &ctx,
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        assert_eq!(naming.level, Some(ConsistencyLevel::String));
        assert_eq!(
            labels(&naming.best, &ctx),
            vec!["Seniors", "Adults", "Children", "Infants"]
        );
    }

    /// Table 3 end-to-end: partially consistent [State, City, Zip Code,
    /// Distance].
    #[test]
    fn table3_partially_consistent() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Zip Code"), Some("Distance")],
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Your Zip"), Some("Within")],
            ],
            &ctx,
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(!naming.consistent);
        assert_eq!(naming.level, None);
        let best = &naming.best;
        assert_eq!(
            best.labels[0].map(|l| ctx.spelling(l)).as_deref(),
            Some("State")
        );
        assert_eq!(
            best.labels[1].map(|l| ctx.spelling(l)).as_deref(),
            Some("City")
        );
        assert!(best.labels[2].is_some());
        assert!(best.labels[3].is_some());
    }

    /// Table 4 end-to-end: resolves at the equality level; the
    /// most-descriptive ranking prefers Max. Number of Stops over
    /// Number of Connections (§4.2.1).
    #[test]
    fn table4_equality_and_expressiveness() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("NonStop"), None, Some("Choose an Airline")],
                vec![
                    Some("Number of Connections"),
                    None,
                    Some("Airline Preference"),
                ],
                vec![None, Some("Class of Ticket"), Some("Preferred Airline")],
                vec![
                    Some("Max. Number of Stops"),
                    None,
                    Some("Airline Preference"),
                ],
                vec![None, Some("Class"), Some("Airline")],
            ],
            &ctx,
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        assert_eq!(naming.level, Some(ConsistencyLevel::Equality));
        let best = &naming.best;
        assert_eq!(
            best.labels[0].map(|l| ctx.spelling(l)).as_deref(),
            Some("Max. Number of Stops")
        );
        assert_eq!(
            best.labels[1].map(|l| ctx.spelling(l)).as_deref(),
            Some("Class of Ticket")
        );
    }

    #[test]
    fn most_general_baseline_prefers_frequent_short_labels() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(2),
            &[
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), Some("Model")],
                vec![Some("Vehicle Make"), Some("Vehicle Model")],
            ],
            &ctx,
        );
        let descriptive = name_group(&relation, &ctx, &NamingPolicy::default());
        assert_eq!(
            labels(&descriptive.best, &ctx),
            vec!["Vehicle Make", "Vehicle Model"]
        );
        let general = name_group(&relation, &ctx, &NamingPolicy::most_general_baseline());
        assert_eq!(labels(&general.best, &ctx), vec!["Make", "Model"]);
    }

    #[test]
    fn level_ladder_respects_policy_cap() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Only connectable at the equality level; neither tuple alone
        // covers all three columns.
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Salary"), None],
                vec![Some("Type of Job"), None, Some("Company")],
            ],
            &ctx,
        );
        let capped = NamingPolicy {
            max_level: ConsistencyLevel::String,
            ..NamingPolicy::default()
        };
        let naming = name_group(&relation, &ctx, &capped);
        assert!(!naming.consistent, "string level alone cannot connect");
        let full = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(full.consistent);
        assert_eq!(full.level, Some(ConsistencyLevel::Equality));
    }

    #[test]
    fn empty_relation_yields_null_solution() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(&cids(3), &[], &ctx);
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(!naming.consistent);
        assert_eq!(naming.best.labels, vec![None, None, None]);
    }

    #[test]
    fn uncoverable_column_does_not_block_consistency() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Column 2 is never labeled (the Figure 11 "No Label" field).
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("From"), Some("To"), None],
                vec![Some("From"), Some("To"), None],
            ],
            &ctx,
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        let best = &naming.best;
        assert_eq!(best.labels[2], None);
    }

    /// With the default most-descriptive ranking, the expressiveness
    /// criterion already prefers the conflict-free combination — the
    /// repaired labels emerge from `Combine*` itself.
    #[test]
    fn expressiveness_ranking_avoids_conflicts() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![Some("Job Type"), Some("Employment Type"), None],
            ],
            &ctx,
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        assert!(naming.consistent);
        let best = &naming.best;
        assert_eq!(
            best.labels[1].map(|l| ctx.spelling(l)).as_deref(),
            Some("Employment Type")
        );
        assert_eq!(best.conflict_repaired, None, "no conflict left to repair");
    }

    /// Frequency-first ranking picks the homonym-conflicted candidate;
    /// the §4.2.3 repair then swaps in the disambiguating label.
    #[test]
    fn conflict_repair_is_applied() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![Some("Job Type"), Some("Type of Job"), Some("Company Name")],
                vec![
                    Some("Job Type"),
                    Some("Employment Type"),
                    Some("Company Name"),
                ],
            ],
            &ctx,
        );
        let policy = NamingPolicy {
            selection: LabelSelection::MostGeneral,
            ..NamingPolicy::default()
        };
        let naming = name_group(&relation, &ctx, &policy);
        assert!(naming.consistent);
        let best = &naming.best;
        assert_eq!(best.conflict_repaired, Some(true));
        assert_eq!(
            best.labels[1].map(|l| ctx.spelling(l)).as_deref(),
            Some("Employment Type")
        );
    }
}
