//! Randomized equivalence tests for the interned naming kernel —
//! dependency-free seeded loops (the in-repo [`SplitMix64`]), like
//! `tests/matcher_props.rs`, so they run under the default `cargo test -q`.
//!
//! The kernel ([`InternedRelation`]) runs Definition 2 consistency,
//! partitioning (§4.1.1), `Combine*` and the greedy construction
//! (Definitions 3–4, §4.2.1) on column-local label ids and bitmasks, and
//! `name_group` keeps only the best-ranked consistent solution, all over
//! interned labels ([`Symbol`]s). The oracle below is the straightforward
//! form over `String` rows: pairwise `relate` probes, a `String`-keyed
//! `Combine*`, every alternative ranked by a stable sort on spellings,
//! its own expressiveness, and homonym repair that finds conflicts pair
//! by pair. On random group relations the two must agree exactly:
//!
//! 1. the connected components at every consistency level;
//! 2. the `Combine*` and greedy `TupleSolution` lists of every partition,
//!    in order;
//! 3. `name_group`'s best solution, level and consistency flag, under
//!    both label selections with conflict repair on and off.
//!
//! Each case's context interns the label pool in reverse spelling order
//! first, so symbol order is never spelling order: a tie-break that
//! compared symbols would disagree with the oracle.
//!
//! The relations cover case-variant labels (`Adults`/`adults` are
//! different labels), more than 64 tuples (bitmasks of several words), a
//! `Combine*` that reaches the state cap, all-null columns, labels that
//! normalize to nothing (`?`, `(18-64)`), punctuation variants that are
//! string-equal (`Zip Code:`, `ZIP-code`), label pools that connect at
//! each of the three levels, and wide groups that repeat a dozen labels
//! over hundreds of columns (many homonym conflicts in one solution).

use qi_core::combine::{enumerate_solutions, greedy_solutions, TupleSolution, MAX_STATES};
use qi_core::kernel::{GroupRelation, InternedRelation};
use qi_core::partition::{components, result_from_components, TuplePartition};
use qi_core::solution::{name_group, GroupNaming, GroupSolution};
use qi_core::{ConsistencyLevel, LabelRelation, LabelSelection, NamingCtx, NamingPolicy};
use qi_lexicon::Lexicon;
use qi_mapping::ClusterId;
use qi_runtime::{SplitMix64, Symbol};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// The oracle: group naming over `String` rows.
// ---------------------------------------------------------------------

type Row = Vec<Option<String>>;

/// The relation's tuples as rows of label strings.
fn string_rows(relation: &GroupRelation, ctx: &NamingCtx<'_>) -> Vec<Row> {
    (relation.tuples.iter())
        .map(|t| ctx.spellings(&t.labels))
        .collect()
}

fn relate(a: &str, b: &str, ctx: &NamingCtx<'_>) -> LabelRelation {
    ctx.relate_sym(ctx.sym(a), ctx.sym(b))
}

/// `a equal b` or stronger; a label is equal to itself.
fn equal(a: &str, b: &str, ctx: &NamingCtx<'_>) -> bool {
    a == b
        || matches!(
            relate(a, b, ctx),
            LabelRelation::StringEqual | LabelRelation::Equal
        )
}

/// Definition 2 on label rows.
fn rows_consistent(
    a: &[Option<String>],
    b: &[Option<String>],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> bool {
    a.iter().zip(b).any(|(la, lb)| match (la, lb) {
        (Some(la), Some(lb)) => level.admits(relate(la, lb, ctx)),
        _ => false,
    })
}

/// Component ids by pairwise closure: entry `i` is the smallest tuple
/// index of `i`'s component.
fn oracle_components(rows: &[Row], level: ConsistencyLevel, ctx: &NamingCtx<'_>) -> Vec<usize> {
    let n = rows.len();
    let mut comp: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rows_consistent(&rows[i], &rows[j], level, ctx) && comp[i] != comp[j] {
                let (keep, drop) = (comp[i].min(comp[j]), comp[i].max(comp[j]));
                for c in comp.iter_mut().filter(|c| **c == drop) {
                    *c = keep;
                }
            }
        }
    }
    comp
}

fn combine(r: &[Option<String>], s: &[Option<String>]) -> Row {
    r.iter()
        .zip(s)
        .map(|(a, b)| a.clone().or_else(|| b.clone()))
        .collect()
}

/// Distinct content-word stems across the non-null labels of a row
/// (§4.2.1's expressiveness).
fn oracle_expressiveness(labels: &[Option<String>], ctx: &NamingCtx<'_>) -> usize {
    let mut stems: BTreeSet<String> = BTreeSet::new();
    for label in labels.iter().flatten() {
        for word in &ctx.text_sym(ctx.sym(label)).words {
            stems.insert(word.stem.to_string());
        }
    }
    stems.len()
}

/// Homonym-conflicted column pairs, probed pair by pair in `(i, j)`
/// order: both labels non-empty and `equal`.
fn oracle_find_conflicts(labels: &[Option<String>], ctx: &NamingCtx<'_>) -> Vec<(usize, usize)> {
    let nonempty: Vec<Option<&str>> = (labels.iter())
        .map(|l| {
            l.as_deref()
                .filter(|l| !ctx.text_sym(ctx.sym(l)).is_empty())
        })
        .collect();
    let mut pairs = Vec::new();
    for i in 0..labels.len() {
        for j in (i + 1)..labels.len() {
            if let (Some(a), Some(b)) = (nonempty[i], nonempty[j]) {
                if equal(a, b, ctx) {
                    pairs.push((i, j));
                }
            }
        }
    }
    pairs
}

/// §4.2.3's repair, conflict by conflict in order: borrow a pair of
/// labels from the first source tuple that labels both columns
/// unambiguously and agrees with the solution on one of them.
fn oracle_repair_conflicts(
    labels: &mut [Option<String>],
    rows: &[Row],
    ctx: &NamingCtx<'_>,
) -> Option<bool> {
    let conflicts = oracle_find_conflicts(labels, ctx);
    if conflicts.is_empty() {
        return None;
    }
    let mut all_repaired = true;
    for (i, j) in conflicts {
        let (Some(li), Some(lj)) = (labels[i].clone(), labels[j].clone()) else {
            all_repaired = false;
            continue;
        };
        let mut repaired = false;
        for row in rows {
            let (Some(ti), Some(tj)) = (&row[i], &row[j]) else {
                continue;
            };
            if equal(ti, tj, ctx) {
                continue;
            }
            if equal(ti, &li, ctx) && !equal(tj, &li, ctx) {
                labels[j] = Some(tj.clone());
                repaired = true;
                break;
            }
            if equal(tj, &lj, ctx) && !equal(ti, &lj, ctx) {
                labels[i] = Some(ti.clone());
                repaired = true;
                break;
            }
        }
        all_repaired &= repaired;
    }
    Some(all_repaired)
}

/// A solution over `String` rows.
#[derive(Clone)]
struct Solution {
    labels: Row,
    used_tuples: BTreeSet<usize>,
    is_candidate: bool,
    expressiveness: usize,
    frequency: usize,
    partition_tuples: Vec<usize>,
    conflict_repaired: Option<bool>,
}

impl Solution {
    fn new(
        labels: Row,
        used_tuples: BTreeSet<usize>,
        is_candidate: bool,
        rows: &[Row],
        ctx: &NamingCtx<'_>,
    ) -> Self {
        Solution {
            is_candidate,
            frequency: rows.iter().filter(|r| **r == labels).count(),
            expressiveness: oracle_expressiveness(&labels, ctx),
            labels,
            used_tuples,
            partition_tuples: Vec::new(),
            conflict_repaired: None,
        }
    }

    fn symbols(&self, ctx: &NamingCtx<'_>) -> Vec<Option<Symbol>> {
        (self.labels.iter())
            .map(|l| l.as_deref().map(|l| ctx.sym(l)))
            .collect()
    }

    fn tuple(&self, ctx: &NamingCtx<'_>) -> TupleSolution {
        TupleSolution {
            labels: self.symbols(ctx),
            used_tuples: self.used_tuples.clone(),
            is_candidate: self.is_candidate,
            expressiveness: self.expressiveness,
            frequency: self.frequency,
        }
    }

    fn group(&self, ctx: &NamingCtx<'_>) -> GroupSolution {
        GroupSolution {
            labels: self.symbols(ctx),
            used_tuples: self.used_tuples.clone(),
            partition_tuples: self.partition_tuples.clone(),
            expressiveness: self.expressiveness,
            frequency: self.frequency,
            is_candidate: self.is_candidate,
            conflict_repaired: self.conflict_repaired,
        }
    }
}

fn oracle_enumerate(
    rows: &[Row],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<Solution> {
    struct State {
        labels: Row,
        used: BTreeSet<usize>,
    }
    let members = &partition.tuples;
    let mut states: Vec<State> = Vec::new();
    let mut seen: BTreeSet<Row> = BTreeSet::new();
    for &t in members {
        let labels = rows[t].clone();
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
                let other = &rows[t];
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
        .map(|s| {
            let is_candidate = members.iter().any(|&t| rows[t] == s.labels);
            Solution::new(s.labels, s.used, is_candidate, rows, ctx)
        })
        .collect()
}

fn oracle_greedy_from(
    rows: &[Row],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    seed: usize,
) -> Option<Solution> {
    let complete =
        |labels: &[Option<String>]| partition.covered.iter().all(|&col| labels[col].is_some());
    let mut remaining: Vec<usize> = partition
        .tuples
        .iter()
        .copied()
        .filter(|&t| t != seed)
        .collect();
    let mut labels = rows[seed].clone();
    let mut used = BTreeSet::from([seed]);
    while !complete(&labels) {
        let mut best: Option<(usize, usize)> = None;
        for &t in &remaining {
            let other = &rows[t];
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
        labels = combine(&labels, &rows[t]);
        used.insert(t);
        remaining.retain(|&x| x != t);
    }
    let is_candidate = used.len() == 1;
    Some(Solution::new(labels, used, is_candidate, rows, ctx))
}

fn oracle_greedy(
    rows: &[Row],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<Solution> {
    let non_null = |t: usize| rows[t].iter().filter(|l| l.is_some()).count();
    let mut seeds: Vec<usize> = partition.tuples.clone();
    seeds.sort_by_key(|&t| (usize::MAX - non_null(t), t));
    seeds.truncate(8);
    let mut out: Vec<Solution> = Vec::new();
    let mut seen: BTreeSet<Row> = BTreeSet::new();
    for seed in seeds {
        if let Some(solution) = oracle_greedy_from(rows, partition, level, ctx, seed) {
            if seen.insert(solution.labels.clone()) {
                out.push(solution);
            }
        }
    }
    out
}

fn oracle_partition_solutions(
    rows: &[Row],
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<Solution> {
    if partition.covered.len() <= 6
        || (partition.tuples.len() <= 12 && partition.covered.len() <= 8)
    {
        let solutions = oracle_enumerate(rows, partition, level, ctx);
        if !solutions.is_empty() {
            return solutions;
        }
    }
    oracle_greedy(rows, partition, level, ctx)
}

fn rank(solutions: &mut [Solution], selection: LabelSelection) {
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
    let rows = string_rows(relation, ctx);
    let null_solution = Solution::new(
        vec![None; relation.width()],
        BTreeSet::new(),
        false,
        &[],
        ctx,
    );
    if rows.is_empty() {
        return GroupNaming {
            best: null_solution.group(ctx),
            level: None,
            consistent: false,
        };
    }
    for level in policy.levels() {
        let comps = oracle_components(&rows, level, ctx);
        let result = result_from_components(relation, level, &comps);
        if !result.has_full_cover() {
            continue;
        }
        let mut alternatives: Vec<Solution> = Vec::new();
        let mut seen: BTreeSet<Row> = BTreeSet::new();
        for &pi in &result.full {
            let partition = &result.partitions[pi];
            for mut s in oracle_partition_solutions(&rows, partition, level, ctx) {
                if seen.insert(s.labels.clone()) {
                    s.partition_tuples = partition.tuples.clone();
                    alternatives.push(s);
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
                    oracle_repair_conflicts(&mut alternative.labels, &rows, ctx);
            }
        }
        return GroupNaming {
            best: alternatives[0].group(ctx),
            level: Some(level),
            consistent: true,
        };
    }
    // Partially consistent (§4.2.2): the best solution of every
    // partition at the last level, widest first, concatenated.
    let max_level = *policy.levels().last().unwrap();
    let comps = oracle_components(&rows, max_level, ctx);
    let result = result_from_components(relation, max_level, &comps);
    let mut per_partition: Vec<Solution> = Vec::new();
    for partition in &result.partitions {
        let mut ranked = oracle_partition_solutions(&rows, partition, max_level, ctx);
        for s in &mut ranked {
            s.partition_tuples = partition.tuples.clone();
        }
        rank(&mut ranked, policy.selection);
        per_partition.extend(ranked.into_iter().next());
    }
    let width = |s: &Solution| s.labels.iter().filter(|l| l.is_some()).count();
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
    merged.expressiveness = oracle_expressiveness(&merged.labels, ctx);
    merged.frequency = 0;
    merged.is_candidate = false;
    if policy.repair_conflicts {
        merged.conflict_repaired = oracle_repair_conflicts(&mut merged.labels, &rows, ctx);
    }
    GroupNaming {
        best: merged.group(ctx),
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

/// Labels the wide groups repeat over hundreds of columns: equality
/// classes of two and three spellings, string-equal variants, a synonym
/// pair and a label that normalizes to nothing.
const WIDE_LABELS: [&str; 12] = [
    "Job Type",
    "Type of Job",
    "Employment Type",
    "Adults",
    "adults",
    "Adult",
    "Zip Code",
    "Zip Code:",
    "ZIP-code",
    "Price",
    "Cost",
    "?",
];

fn cids(n: usize) -> Vec<ClusterId> {
    (0..n as u32).map(ClusterId).collect()
}

/// A context whose interner already holds every pooled label, in
/// reverse spelling order, so symbol order is never spelling order.
fn reversed_ctx(lexicon: &Lexicon) -> NamingCtx<'_> {
    let ctx = NamingCtx::new(lexicon);
    let mut pool: Vec<&str> = (FAMILIES.iter().chain(SYNONYM_FAMILIES))
        .flat_map(|family| family.iter().copied())
        .chain(WIDE_LABELS)
        .collect();
    pool.sort_unstable();
    for label in pool.iter().rev() {
        ctx.sym(label);
    }
    ctx
}

/// A random relation of up to `tuples` rows (all-null rows are dropped)
/// over `width` columns. Each column draws a few labels from one family,
/// now and then one from another; some columns are never labeled. Each
/// tuple mostly writes in one "dialect" (the same variant index in every
/// column), so tuples of one dialect connect at the string level and
/// different dialects only through equality or synonymy.
fn random_relation(
    rng: &mut SplitMix64,
    width: usize,
    tuples: usize,
    ctx: &NamingCtx<'_>,
) -> GroupRelation {
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
    GroupRelation::from_rows(&cids(width), &rows, ctx)
}

/// A wide group: every cell of `tuples` rows over `width` columns is
/// null or one of [`WIDE_LABELS`], so whichever solution wins repeats
/// labels across many columns and conflict repair has a long list of
/// overlapping pairs to work through in order.
fn wide_relation(
    rng: &mut SplitMix64,
    width: usize,
    tuples: usize,
    ctx: &NamingCtx<'_>,
) -> GroupRelation {
    let rows: Vec<Vec<Option<&str>>> = (0..tuples)
        .map(|_| {
            (0..width)
                .map(|_| {
                    rng.gen_bool(0.7)
                        .then(|| WIDE_LABELS[rng.gen_range(WIDE_LABELS.len())])
                })
                .collect()
        })
        .collect();
    GroupRelation::from_rows(&cids(width), &rows, ctx)
}

/// A relation whose `Combine*` reaches [`MAX_STATES`]: one anchor column
/// shared by every tuple, and every other column filled by separate
/// tuples with several distinct labels, so the combinations multiply.
fn capped_relation(width: usize, per_column: usize, ctx: &NamingCtx<'_>) -> GroupRelation {
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
    GroupRelation::from_rows(&cids(width), &rows, ctx)
}

const POLICIES: [(LabelSelection, bool); 4] = [
    (LabelSelection::MostDescriptive, true),
    (LabelSelection::MostDescriptive, false),
    (LabelSelection::MostGeneral, true),
    (LabelSelection::MostGeneral, false),
];

/// Check every kernel stage against the oracle on one relation, built
/// with `ctx`. Returns whether some `Combine*` enumeration reached the
/// state cap.
fn assert_kernel_matches(relation: &GroupRelation, ctx: &NamingCtx<'_>, case: &str) -> bool {
    let rows = string_rows(relation, ctx);
    let tuples = |solutions: Vec<Solution>| -> Vec<TupleSolution> {
        solutions.iter().map(|s| s.tuple(ctx)).collect()
    };
    let mut interned = InternedRelation::new(relation, ctx);
    for level in ConsistencyLevel::LADDER {
        let expected = oracle_components(&rows, level, ctx);
        let comps = components(&mut interned, level, ctx);
        assert_eq!(comps, expected, "{case}: components at {level}");
        let result = result_from_components(relation, level, &comps);
        for partition in &result.partitions {
            assert_eq!(
                enumerate_solutions(&mut interned, partition, level, ctx),
                tuples(oracle_enumerate(&rows, partition, level, ctx)),
                "{case}: Combine* of {:?} at {level}",
                partition.tuples
            );
            assert_eq!(
                greedy_solutions(&mut interned, partition, level, ctx),
                tuples(oracle_greedy(&rows, partition, level, ctx)),
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
                name_group(relation, ctx, &policy),
                oracle_name_group(relation, ctx, &policy),
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
        let ctx = reversed_ctx(&lexicon);
        let relation = random_relation(&mut rng, width, tuples, &ctx);
        assert_kernel_matches(&relation, &ctx, &format!("case {case} (base {base:#x})"));
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
        let ctx = reversed_ctx(&lexicon);
        let relation = random_relation(&mut rng, width, tuples, &ctx);
        if relation.tuples.len() <= 64 {
            continue; // mostly all-null columns
        }
        assert_kernel_matches(&relation, &ctx, &format!("many-tuple case {case}"));
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
    let ctx = reversed_ctx(&lexicon);
    let relation = capped_relation(6, 6, &ctx);
    assert!(
        assert_kernel_matches(&relation, &ctx, "capped relation"),
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
        &ctx,
    );
    let interned = InternedRelation::new(&relation, &ctx);
    assert_ne!(interned.row(0)[0], interned.row(1)[0]);
    assert_eq!(interned.row(0)[0], interned.row(2)[0]);
    // Both spellings are solutions of their own, each counted once.
    assert_eq!(interned.frequency(interned.row(0)), 1);
    assert_kernel_matches(&relation, &ctx, "case variants");
}

/// Check `cases` wide groups of 300 columns over a dozen labels; returns
/// how many of them had a homonym conflict repaired.
fn wide_cases(base: u64, cases: u64) -> usize {
    let lexicon = Lexicon::builtin();
    let mut repaired = 0;
    for case in 0..cases {
        let mut rng = SplitMix64::new(base ^ case);
        let tuples = 2 + rng.gen_range(5);
        let ctx = reversed_ctx(&lexicon);
        let relation = wide_relation(&mut rng, 300, tuples, &ctx);
        assert_kernel_matches(
            &relation,
            &ctx,
            &format!("wide case {case} (base {base:#x})"),
        );
        let naming = name_group(&relation, &ctx, &NamingPolicy::default());
        repaired += usize::from(naming.best.conflict_repaired.is_some());
    }
    repaired
}

#[test]
fn kernel_matches_oracle_on_wide_repeated_labels() {
    let repaired = wide_cases(0x7769_6465, 2);
    assert_eq!(repaired, 2, "every wide case must repeat labels");
}

/// The full-budget run: many more and larger relations. Run it in
/// release mode: `cargo test -q --release --test naming_kernel_props --
/// --ignored`.
#[test]
#[ignore]
fn kernel_matches_oracle_full_budget() {
    random_cases(0x6675_6c6c, 1500, 24);
    wide_cases(0x0077_6964_6521, 40);
    let lexicon = Lexicon::builtin();
    for case in 0..30u64 {
        let mut rng = SplitMix64::new(0x0062_6967 ^ case);
        let tuples = 80 + rng.gen_range(200);
        let width = 2 + rng.gen_range(7);
        let ctx = reversed_ctx(&lexicon);
        let relation = random_relation(&mut rng, width, tuples, &ctx);
        assert_kernel_matches(&relation, &ctx, &format!("large case {case}"));
    }
    for (width, per_column) in [(5, 9), (6, 6), (7, 4)] {
        let ctx = reversed_ctx(&lexicon);
        assert_kernel_matches(
            &capped_relation(width, per_column, &ctx),
            &ctx,
            &format!("capped {width}x{per_column}"),
        );
    }
}
