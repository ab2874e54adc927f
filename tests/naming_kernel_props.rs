//! Randomized equivalence tests for the interned naming kernel —
//! dependency-free seeded loops (the in-repo [`SplitMix64`]), like
//! `tests/matcher_props.rs`, so they run under the default `cargo test -q`.
//!
//! The kernel ([`InternedRelation`]) runs Definition 2 consistency,
//! partitioning (§4.1.1), `Combine*` and the greedy construction
//! (Definitions 3–4, §4.2.1) on column-local label ids and bitmasks, and
//! `name_group` keeps only the best-ranked consistent solution. The
//! oracle below is the straightforward form over `String` rows: pairwise
//! `relate` probes, a `String`-keyed `Combine*`, every alternative ranked
//! by a stable sort and repaired. On random group relations the two must
//! agree exactly:
//!
//! 1. the connected components at every consistency level;
//! 2. the `Combine*` and greedy `TupleSolution` lists of every partition,
//!    in order;
//! 3. `name_group`'s best solution, level and consistency flag, under
//!    both label selections with conflict repair on and off.
//!
//! The relations cover case-variant labels (`Adults`/`adults` are
//! different labels), more than 64 tuples (bitmasks of several words), a
//! `Combine*` that reaches the state cap, all-null columns, labels that
//! normalize to nothing (`?`, `(18-64)`), punctuation variants that are
//! string-equal (`Zip Code:`, `ZIP-code`), and label pools that connect
//! at each of the three levels.

use qi_core::combine::{
    enumerate_solutions, greedy_solutions, tuple_expressiveness, TupleSolution, MAX_STATES,
};
use qi_core::conflicts::repair_conflicts;
use qi_core::kernel::InternedRelation;
use qi_core::partition::{components, result_from_components, TuplePartition};
use qi_core::solution::{name_group, GroupNaming, GroupSolution};
use qi_core::{ConsistencyLevel, LabelSelection, NamingCtx, NamingPolicy};
use qi_lexicon::Lexicon;
use qi_mapping::{ClusterId, GroupRelation};
use qi_runtime::SplitMix64;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// The oracle: group naming over `String` rows.
// ---------------------------------------------------------------------

/// Definition 2 on label rows.
fn rows_consistent(
    a: &[Option<String>],
    b: &[Option<String>],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> bool {
    a.iter().zip(b).any(|(la, lb)| match (la, lb) {
        (Some(la), Some(lb)) => level.admits(ctx.relate(la, lb)),
        _ => false,
    })
}

/// Component ids by pairwise closure: entry `i` is the smallest tuple
/// index of `i`'s component.
fn oracle_components(
    relation: &GroupRelation,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<usize> {
    let n = relation.tuples.len();
    let mut comp: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (&relation.tuples[i].labels, &relation.tuples[j].labels);
            if rows_consistent(a, b, level, ctx) && comp[i] != comp[j] {
                let (keep, drop) = (comp[i].min(comp[j]), comp[i].max(comp[j]));
                for c in comp.iter_mut().filter(|c| **c == drop) {
                    *c = keep;
                }
            }
        }
    }
    comp
}

fn combine(r: &[Option<String>], s: &[Option<String>]) -> Vec<Option<String>> {
    r.iter()
        .zip(s)
        .map(|(a, b)| a.clone().or_else(|| b.clone()))
        .collect()
}

fn oracle_enumerate(
    relation: &GroupRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    struct State {
        labels: Vec<Option<String>>,
        used: BTreeSet<usize>,
    }
    let members = &partition.tuples;
    let mut states: Vec<State> = Vec::new();
    let mut seen: BTreeSet<Vec<Option<String>>> = BTreeSet::new();
    for &t in members {
        let labels = relation.tuples[t].labels.clone();
        if seen.insert(labels.clone()) {
            states.push(State {
                labels,
                used: BTreeSet::from([t]),
            });
        }
    }
    let mut frontier: Vec<usize> = (0..states.len()).collect();
    while !frontier.is_empty() && states.len() < MAX_STATES {
        let mut next = Vec::new();
        for &si in &frontier {
            for &t in members {
                let state = &states[si];
                let other = &relation.tuples[t].labels;
                let adds = state
                    .labels
                    .iter()
                    .zip(other)
                    .any(|(a, b)| a.is_none() && b.is_some());
                if !adds || !rows_consistent(&state.labels, other, level, ctx) {
                    continue;
                }
                let combined = combine(&state.labels, other);
                if seen.insert(combined.clone()) {
                    let mut used = state.used.clone();
                    used.insert(t);
                    states.push(State {
                        labels: combined,
                        used,
                    });
                    next.push(states.len() - 1);
                    if states.len() >= MAX_STATES {
                        break;
                    }
                }
            }
            if states.len() >= MAX_STATES {
                break;
            }
        }
        frontier = next;
    }
    states
        .into_iter()
        .filter(|s| partition.covered.iter().all(|&c| s.labels[c].is_some()))
        .map(|s| TupleSolution {
            is_candidate: members
                .iter()
                .any(|&t| relation.tuples[t].labels == s.labels),
            frequency: relation
                .tuples
                .iter()
                .filter(|t| t.labels == s.labels)
                .count(),
            expressiveness: tuple_expressiveness(&s.labels, ctx),
            labels: s.labels,
            used_tuples: s.used,
        })
        .collect()
}

fn oracle_greedy_from(
    relation: &GroupRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    seed: usize,
) -> Option<TupleSolution> {
    let complete =
        |labels: &[Option<String>]| partition.covered.iter().all(|&col| labels[col].is_some());
    let mut remaining: Vec<usize> = partition
        .tuples
        .iter()
        .copied()
        .filter(|&t| t != seed)
        .collect();
    let mut labels = relation.tuples[seed].labels.clone();
    let mut used = BTreeSet::from([seed]);
    while !complete(&labels) {
        let mut best: Option<(usize, usize)> = None;
        for &t in &remaining {
            let other = &relation.tuples[t].labels;
            let gain = labels
                .iter()
                .zip(other)
                .filter(|(a, b)| a.is_none() && b.is_some())
                .count();
            if gain == 0 || !rows_consistent(&labels, other, level, ctx) {
                continue;
            }
            if best.is_none_or(|(g, bt)| (gain, usize::MAX - t) > (g, usize::MAX - bt)) {
                best = Some((gain, t));
            }
        }
        let (_, t) = best?;
        labels = combine(&labels, &relation.tuples[t].labels);
        used.insert(t);
        remaining.retain(|&x| x != t);
    }
    Some(TupleSolution {
        is_candidate: used.len() == 1,
        frequency: relation
            .tuples
            .iter()
            .filter(|t| t.labels == labels)
            .count(),
        expressiveness: tuple_expressiveness(&labels, ctx),
        labels,
        used_tuples: used,
    })
}

fn oracle_greedy(
    relation: &GroupRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    let mut seeds: Vec<usize> = partition.tuples.clone();
    seeds.sort_by_key(|&t| (usize::MAX - relation.tuples[t].non_null_count(), t));
    seeds.truncate(8);
    let mut out: Vec<TupleSolution> = Vec::new();
    let mut seen: BTreeSet<Vec<Option<String>>> = BTreeSet::new();
    for seed in seeds {
        if let Some(solution) = oracle_greedy_from(relation, partition, level, ctx, seed) {
            if seen.insert(solution.labels.clone()) {
                out.push(solution);
            }
        }
    }
    out
}

fn oracle_partition_solutions(
    relation: &GroupRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    if partition.covered.len() <= 6
        || (partition.tuples.len() <= 12 && partition.covered.len() <= 8)
    {
        let solutions = oracle_enumerate(relation, partition, level, ctx);
        if !solutions.is_empty() {
            return solutions;
        }
    }
    oracle_greedy(relation, partition, level, ctx)
}

fn to_group_solution(s: TupleSolution, partition_tuples: Vec<usize>) -> GroupSolution {
    GroupSolution {
        labels: s.labels,
        used_tuples: s.used_tuples,
        partition_tuples,
        expressiveness: s.expressiveness,
        frequency: s.frequency,
        is_candidate: s.is_candidate,
        conflict_repaired: None,
    }
}

fn rank(solutions: &mut [GroupSolution], selection: LabelSelection) {
    match selection {
        LabelSelection::MostDescriptive => solutions.sort_by(|a, b| {
            b.expressiveness
                .cmp(&a.expressiveness)
                .then(b.frequency.cmp(&a.frequency))
                .then(a.labels.cmp(&b.labels))
        }),
        LabelSelection::MostGeneral => solutions.sort_by(|a, b| {
            b.frequency
                .cmp(&a.frequency)
                .then(a.expressiveness.cmp(&b.expressiveness))
                .then(a.labels.cmp(&b.labels))
        }),
    }
}

/// `name_group` as it was over `String` rows: every alternative of every
/// covering partition, deduplicated, ranked, each repaired — and the
/// first one reported.
fn oracle_name_group(
    relation: &GroupRelation,
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
) -> GroupNaming {
    let null_solution = GroupSolution {
        labels: vec![None; relation.width()],
        used_tuples: BTreeSet::new(),
        partition_tuples: Vec::new(),
        expressiveness: 0,
        frequency: 0,
        is_candidate: false,
        conflict_repaired: None,
    };
    if relation.tuples.is_empty() {
        return GroupNaming {
            best: null_solution,
            level: None,
            consistent: false,
        };
    }
    for level in policy.levels() {
        let comps = oracle_components(relation, level, ctx);
        let result = result_from_components(relation, level, &comps);
        if !result.has_full_cover() {
            continue;
        }
        let mut alternatives: Vec<GroupSolution> = Vec::new();
        let mut seen: BTreeSet<Vec<Option<String>>> = BTreeSet::new();
        for &pi in &result.full {
            let partition = &result.partitions[pi];
            for s in oracle_partition_solutions(relation, partition, level, ctx) {
                if seen.insert(s.labels.clone()) {
                    alternatives.push(to_group_solution(s, partition.tuples.clone()));
                }
            }
        }
        if alternatives.is_empty() {
            continue;
        }
        rank(&mut alternatives, policy.selection);
        if policy.repair_conflicts {
            for alternative in &mut alternatives {
                alternative.conflict_repaired =
                    repair_conflicts(&mut alternative.labels, relation, ctx);
            }
        }
        return GroupNaming {
            best: alternatives.swap_remove(0),
            level: Some(level),
            consistent: true,
        };
    }
    // Partially consistent (§4.2.2): the best solution of every
    // partition at the last level, widest first, concatenated.
    let max_level = *policy.levels().last().unwrap();
    let comps = oracle_components(relation, max_level, ctx);
    let result = result_from_components(relation, max_level, &comps);
    let mut per_partition: Vec<GroupSolution> = Vec::new();
    for partition in &result.partitions {
        let mut ranked: Vec<GroupSolution> =
            oracle_partition_solutions(relation, partition, max_level, ctx)
                .into_iter()
                .map(|s| to_group_solution(s, partition.tuples.clone()))
                .collect();
        rank(&mut ranked, policy.selection);
        per_partition.extend(ranked.into_iter().next());
    }
    let width = |s: &GroupSolution| s.labels.iter().filter(|l| l.is_some()).count();
    per_partition.sort_by(|a, b| width(b).cmp(&width(a)).then(a.labels.cmp(&b.labels)));
    let mut merged = per_partition.first().cloned().unwrap_or(null_solution);
    merged.partition_tuples = Vec::new();
    for other in per_partition.iter().skip(1) {
        if merged.labels.iter().all(Option::is_some) {
            break;
        }
        let mut added = false;
        for (slot, label) in merged.labels.iter_mut().zip(&other.labels) {
            if slot.is_none() && label.is_some() {
                *slot = label.clone();
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

// ---------------------------------------------------------------------
// Random group relations.
// ---------------------------------------------------------------------

/// Label families: each column draws its labels from one family, so
/// tuples connect at every level — exact and case variants (string),
/// inflection and word-order variants (equality), lexicon synonyms —
/// and some labels are hypernyms, homonym-conflicted pairs, or normalize
/// to nothing.
const FAMILIES: &[&[&str]] = &[
    &["Adults", "adults", "Adult", "ADULTS"],
    &["Children", "Child", "children"],
    &["Infants", "Infant"],
    &["Seniors", "Senior"],
    &["Job Type", "Type of Job", "Employment Type"],
    &["Area of Study", "Field of Work", "Study Area"],
    &["Make", "make", "Vehicle Make", "Brand"],
    &["Model", "Vehicle Model"],
    &["Price", "Cost", "Ticket Price"],
    &["Class", "Class of Ticket", "Ticket Class"],
    &["Preferred Airline", "Airline Preference", "Airline"],
    &["Location", "Property Location"],
    &["Zip Code", "zip code", "Zip", "Zip Code:", "ZIP-code"],
    &["of", "", "?", "(18-64)"],
];

/// Families whose variants are lexicon synonyms only, so relations built
/// from them alone connect across dialects at the synonymy level.
const SYNONYM_FAMILIES: &[&[&str]] = &[
    &["Price", "Cost"],
    &["Make", "Brand"],
    &["Job Type", "Employment Type"],
    &["Area of Study", "Field of Work"],
];

fn cids(n: usize) -> Vec<ClusterId> {
    (0..n as u32).map(ClusterId).collect()
}

/// A random relation of up to `tuples` rows (all-null rows are dropped)
/// over `width` columns. Each column draws a few labels from one family,
/// now and then one from another; some columns are never labeled. Each
/// tuple mostly writes in one "dialect" (the same variant index in every
/// column), so tuples of one dialect connect at the string level and
/// different dialects only through equality or synonymy.
fn random_relation(rng: &mut SplitMix64, width: usize, tuples: usize) -> GroupRelation {
    // Now and then every column is a synonym family written in full, so
    // dialects meet only through synonymy.
    let synonyms_only = rng.gen_bool(0.25);
    let columns: Vec<(Vec<&str>, f64)> = (0..width)
        .map(|_| {
            let mut pool: Vec<&str> = if synonyms_only {
                SYNONYM_FAMILIES[rng.gen_range(SYNONYM_FAMILIES.len())].to_vec()
            } else {
                let family = FAMILIES[rng.gen_range(FAMILIES.len())];
                (0..1 + rng.gen_range(family.len()))
                    .map(|_| family[rng.gen_range(family.len())])
                    .collect()
            };
            if !synonyms_only && rng.gen_bool(0.2) {
                let other = FAMILIES[rng.gen_range(FAMILIES.len())];
                pool.push(other[rng.gen_range(other.len())]);
            }
            let fill = if rng.gen_bool(0.1) {
                0.0 // an all-null column
            } else {
                0.2 + 0.7 * rng.next_f64()
            };
            (pool, fill)
        })
        .collect();
    let dialects = 1 + rng.gen_range(4);
    let rows: Vec<Vec<Option<&str>>> = (0..tuples)
        .map(|_| {
            let dialect = rng.gen_range(dialects);
            columns
                .iter()
                .map(|(pool, fill)| {
                    let variant = if rng.gen_bool(0.15) {
                        rng.gen_range(pool.len())
                    } else {
                        dialect % pool.len()
                    };
                    rng.gen_bool(*fill).then(|| pool[variant])
                })
                .collect()
        })
        .collect();
    GroupRelation::from_rows(&cids(width), &rows)
}

/// A relation whose `Combine*` reaches [`MAX_STATES`]: one anchor column
/// shared by every tuple, and every other column filled by separate
/// tuples with several distinct labels, so the combinations multiply.
fn capped_relation(width: usize, per_column: usize) -> GroupRelation {
    let mut rows: Vec<Vec<Option<String>>> = Vec::new();
    for c in 1..width {
        for k in 0..per_column {
            let mut row = vec![None; width];
            row[0] = Some("Anchor".to_string());
            row[c] = Some(format!("Label {c} {k}"));
            rows.push(row);
        }
    }
    let rows: Vec<Vec<Option<&str>>> = rows
        .iter()
        .map(|r| r.iter().map(|l| l.as_deref()).collect())
        .collect();
    GroupRelation::from_rows(&cids(width), &rows)
}

const POLICIES: [(LabelSelection, bool); 4] = [
    (LabelSelection::MostDescriptive, true),
    (LabelSelection::MostDescriptive, false),
    (LabelSelection::MostGeneral, true),
    (LabelSelection::MostGeneral, false),
];

/// Check every kernel stage against the oracle on one relation. Returns
/// whether some `Combine*` enumeration reached the state cap.
fn assert_kernel_matches(relation: &GroupRelation, lexicon: &Lexicon, case: &str) -> bool {
    let ctx = NamingCtx::new(lexicon);
    let mut interned = InternedRelation::new(relation, &ctx);
    for level in ConsistencyLevel::LADDER {
        let expected = oracle_components(relation, level, &ctx);
        let comps = components(&mut interned, level, &ctx);
        assert_eq!(comps, expected, "{case}: components at {level}");
        let result = result_from_components(relation, level, &comps);
        for partition in &result.partitions {
            assert_eq!(
                enumerate_solutions(&mut interned, partition, level, &ctx),
                oracle_enumerate(relation, partition, level, &ctx),
                "{case}: Combine* of {:?} at {level}",
                partition.tuples
            );
            assert_eq!(
                greedy_solutions(&mut interned, partition, level, &ctx),
                oracle_greedy(relation, partition, level, &ctx),
                "{case}: greedy of {:?} at {level}",
                partition.tuples
            );
        }
    }
    for max_level in ConsistencyLevel::LADDER {
        for (selection, repair_conflicts) in POLICIES {
            let policy = NamingPolicy {
                max_level,
                selection,
                repair_conflicts,
                ..NamingPolicy::default()
            };
            assert_eq!(
                name_group(relation, &ctx, &policy),
                oracle_name_group(relation, &ctx, &policy),
                "{case}: name_group under {policy:?}"
            );
        }
    }
    ctx.combine_stats().1 > 0
}

/// Check `cases` random relations of up to `max_tuples` tuples; returns
/// the levels the default policy resolved them at.
fn random_cases(base: u64, cases: u64, max_tuples: usize) -> BTreeSet<Option<ConsistencyLevel>> {
    let lexicon = Lexicon::builtin();
    let mut levels = BTreeSet::new();
    for case in 0..cases {
        let mut rng = SplitMix64::new(base ^ case);
        let width = 1 + rng.gen_range(10);
        let tuples = 1 + rng.gen_range(max_tuples);
        let relation = random_relation(&mut rng, width, tuples);
        assert_kernel_matches(
            &relation,
            &lexicon,
            &format!("case {case} (base {base:#x})"),
        );
        let ctx = NamingCtx::new(&lexicon);
        levels.insert(name_group(&relation, &ctx, &NamingPolicy::default()).level);
    }
    levels
}

#[test]
fn kernel_matches_oracle_on_random_relations() {
    let levels = random_cases(0x6e61_6d69_6e67, 160, 14);
    // The pool connects groups at every level, and leaves some only
    // partially consistent.
    for level in [
        Some(ConsistencyLevel::String),
        Some(ConsistencyLevel::Equality),
        Some(ConsistencyLevel::Synonymy),
        None,
    ] {
        assert!(levels.contains(&level), "no case resolved at {level:?}");
    }
}

#[test]
fn kernel_matches_oracle_past_one_mask_word() {
    let lexicon = Lexicon::builtin();
    let mut checked = 0;
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(0x776f_7264 ^ case);
        let tuples = 80 + rng.gen_range(80);
        let width = 2 + rng.gen_range(4);
        let relation = random_relation(&mut rng, width, tuples);
        if relation.tuples.len() <= 64 {
            continue; // mostly all-null columns
        }
        assert_kernel_matches(&relation, &lexicon, &format!("many-tuple case {case}"));
        checked += 1;
    }
    assert!(
        checked >= 6,
        "only {checked} relations had more than 64 tuples"
    );
}

#[test]
fn kernel_matches_oracle_at_the_state_cap() {
    let lexicon = Lexicon::builtin();
    let relation = capped_relation(6, 6);
    assert!(
        assert_kernel_matches(&relation, &lexicon, "capped relation"),
        "the relation must reach MAX_STATES"
    );
}

#[test]
fn case_variants_get_distinct_ids() {
    let lexicon = Lexicon::builtin();
    let ctx = NamingCtx::new(&lexicon);
    let relation = GroupRelation::from_rows(
        &cids(2),
        &[
            vec![Some("Adults"), Some("Children")],
            vec![Some("adults"), Some("Children")],
            vec![Some("Adults"), None],
        ],
    );
    let interned = InternedRelation::new(&relation, &ctx);
    assert_ne!(interned.row(0)[0], interned.row(1)[0]);
    assert_eq!(interned.row(0)[0], interned.row(2)[0]);
    // Both spellings are solutions of their own, each counted once.
    assert_eq!(interned.frequency(interned.row(0)), 1);
    assert_kernel_matches(&relation, &lexicon, "case variants");
}

/// The full-budget run: many more and larger relations. Run it in
/// release mode: `cargo test -q --release --test naming_kernel_props --
/// --ignored`.
#[test]
#[ignore]
fn kernel_matches_oracle_full_budget() {
    random_cases(0x6675_6c6c, 1500, 24);
    let lexicon = Lexicon::builtin();
    for case in 0..30u64 {
        let mut rng = SplitMix64::new(0x0062_6967 ^ case);
        let tuples = 80 + rng.gen_range(200);
        let width = 2 + rng.gen_range(7);
        let relation = random_relation(&mut rng, width, tuples);
        assert_kernel_matches(&relation, &lexicon, &format!("large case {case}"));
    }
    for (width, per_column) in [(5, 9), (6, 6), (7, 4)] {
        assert_kernel_matches(
            &capped_relation(width, per_column),
            &lexicon,
            &format!("capped {width}x{per_column}"),
        );
    }
}
