//! `Combine`, `Combine*` and tuple-solutions (Definitions 3–4).
//!
//! `Combine(r, s)` overlays two consistent tuples, keeping `r`'s non-null
//! components and filling `r`'s nulls from `s`. `Combine*` iterates the
//! operator over a partition until every derivable tuple is produced; the
//! tuples without null components (on the columns the partition covers)
//! are the *tuple-solutions*, and those that already existed verbatim in
//! the group relation are *candidate solutions*.
//!
//! Both run on the rows of an [`InternedRelation`]: label ids, with
//! consistency read from its bitmasks.

use crate::consistency::ConsistencyLevel;
use crate::ctx::NamingCtx;
use crate::kernel::{bits, InternedRelation, RowIndex};
use crate::partition::TuplePartition;
use qi_runtime::Symbol;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A consistent naming solution for a set of cluster columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleSolution {
    /// Labels per column; non-null on every covered column.
    pub labels: Vec<Option<Symbol>>,
    /// Indices of the relation tuples that contributed components.
    pub used_tuples: BTreeSet<usize>,
    /// True if the solution is a single source tuple (Definition 4's
    /// *candidate solution*).
    pub is_candidate: bool,
    /// Number of distinct content words across all labels (§4.2.1:
    /// *expressiveness*; more ⇒ more descriptive).
    pub expressiveness: usize,
    /// How many relation tuples equal this solution verbatim (§4.2.1:
    /// *frequency of occurrence*, meaningful for candidates).
    pub frequency: usize,
}

/// `Combine(r, s)` on interned rows: non-null components of `r`, plus
/// `s`'s where `r` is null (Definition 3). Writes into `out`.
pub(crate) fn combine(r: &[u32], s: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.extend(r.iter().zip(s).map(|(&a, &b)| if a != 0 { a } else { b }));
}

/// Safety valve for `Combine*`: the paper's operator is exponential in
/// pathological relations; real group relations are tiny, but the
/// enumeration is capped to keep worst-case inputs bounded.
pub const MAX_STATES: usize = 4096;

/// Rows derived by `Combine` from a partition's member tuples, each with
/// the step that produced it, and which of them are tuple-solutions.
pub(crate) struct Derivation {
    width: usize,
    /// Row-major label ids, one row per state.
    rows: Vec<u32>,
    /// Per state: the state it was combined from (`u32::MAX` for a member
    /// tuple taken as is) and the tuple combined in.
    steps: Vec<(u32, u32)>,
    /// States that are tuple-solutions, in output order.
    solutions: Vec<usize>,
    /// Built by the greedy construction: a solution is a candidate iff it
    /// is a single source tuple. (Under `Combine*` a candidate is any
    /// solution equal to a member tuple.)
    greedy: bool,
}

impl Derivation {
    fn new(width: usize, greedy: bool) -> Self {
        Derivation {
            width,
            rows: Vec::new(),
            steps: Vec::new(),
            solutions: Vec::new(),
            greedy,
        }
    }

    fn push(&mut self, row: &[u32], from: u32, tuple: usize) -> usize {
        self.rows.extend_from_slice(row);
        self.steps.push((from, tuple as u32));
        self.steps.len() - 1
    }

    /// The tuple-solution states, in output order.
    pub(crate) fn solutions(&self) -> &[usize] {
        &self.solutions
    }

    /// State `s`'s label ids.
    pub(crate) fn row(&self, s: usize) -> &[u32] {
        &self.rows[s * self.width..(s + 1) * self.width]
    }

    /// The relation tuples whose components state `s` combines.
    fn used(&self, mut s: usize) -> BTreeSet<usize> {
        let mut used = BTreeSet::new();
        loop {
            let (from, tuple) = self.steps[s];
            used.insert(tuple as usize);
            if from == u32::MAX {
                return used;
            }
            s = from as usize;
        }
    }

    /// Materialize state `s` as a [`TupleSolution`].
    pub(crate) fn solution(
        &self,
        s: usize,
        relation: &mut InternedRelation,
        partition: &TuplePartition,
    ) -> TupleSolution {
        let row = self.row(s);
        let frequency = relation.frequency(row);
        let is_candidate = if self.greedy {
            self.steps[s].0 == u32::MAX
        } else {
            frequency > 0 && partition.tuples.iter().any(|&t| relation.row(t) == row)
        };
        TupleSolution {
            labels: (row.iter().enumerate())
                .map(|(c, &id)| relation.sym(c, id))
                .collect(),
            used_tuples: self.used(s),
            is_candidate,
            expressiveness: relation.expressiveness(row),
            frequency,
        }
    }

    /// Materialize every tuple-solution.
    pub(crate) fn all_solutions(
        &self,
        relation: &mut InternedRelation,
        partition: &TuplePartition,
    ) -> Vec<TupleSolution> {
        self.solutions
            .iter()
            .map(|&s| self.solution(s, relation, partition))
            .collect()
    }
}

fn member_mask(relation: &InternedRelation, partition: &TuplePartition) -> Vec<u64> {
    let mut mask = vec![0u64; relation.words()];
    for &t in &partition.tuples {
        mask[t / 64] |= 1 << (t % 64);
    }
    mask
}

fn complete(row: &[u32], partition: &TuplePartition) -> bool {
    partition.covered.iter().all(|&c| row[c] != 0)
}

/// Into `out`, the member tuples a row can be combined with at `level`:
/// those that add information (non-null where the row is null) and are
/// consistent with the row, as a bitmask. `scratch` is working space.
fn extensions(
    relation: &mut InternedRelation,
    row: &[u32],
    members: &[u64],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    out: &mut Vec<u64>,
    scratch: &mut Vec<u64>,
) {
    out.clear();
    out.resize(members.len(), 0);
    for (c, &id) in row.iter().enumerate() {
        if id == 0 {
            relation.or_nonnull(c, out);
        }
    }
    scratch.clear();
    scratch.resize(members.len(), 0);
    relation.or_consistent(level, row, ctx, scratch);
    for ((a, c), m) in out.iter_mut().zip(scratch.iter()).zip(members) {
        *a &= c & m;
    }
}

/// `Combine*` over a partition (Definition 4): every row derivable from
/// the member tuples, explored breadth-first from each member tuple and
/// deduplicated by row, only combining operands consistent at `level`
/// (Definition 3 requires it). The solutions are the states complete on
/// the partition's covered columns. Records the explored states (and
/// whether [`MAX_STATES`] cut the search) in `ctx`.
pub(crate) fn combine_star(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Derivation {
    let width = relation.width();
    let members = member_mask(relation, partition);
    let mut out = Derivation::new(width, false);
    let mut seen = RowIndex::default();
    for &t in &partition.tuples {
        if seen.insert(&mut out.rows, width, relation.row(t)).is_some() {
            out.steps.push((u32::MAX, t as u32));
        }
    }
    let mut frontier: Vec<usize> = (0..out.steps.len()).collect();
    let (mut state, mut combined) = (Vec::with_capacity(width), Vec::with_capacity(width));
    let (mut candidates, mut scratch) = (Vec::new(), Vec::new());
    while !frontier.is_empty() && out.steps.len() < MAX_STATES {
        let mut next = Vec::new();
        for &si in &frontier {
            state.clear();
            state.extend_from_slice(out.row(si));
            extensions(
                relation,
                &state,
                &members,
                level,
                ctx,
                &mut candidates,
                &mut scratch,
            );
            for t in bits(&candidates) {
                combine(&state, relation.row(t), &mut combined);
                if seen.insert(&mut out.rows, width, &combined).is_some() {
                    out.steps.push((si as u32, t as u32));
                    next.push(out.steps.len() - 1);
                    if out.steps.len() >= MAX_STATES {
                        break;
                    }
                }
            }
            if out.steps.len() >= MAX_STATES {
                break;
            }
        }
        frontier = next;
    }
    ctx.record_combine(out.steps.len(), out.steps.len() >= MAX_STATES);
    out.solutions = (0..out.steps.len())
        .filter(|&s| complete(out.row(s), partition))
        .collect();
    out
}

/// Enumerate the tuple-solutions derivable from a partition with
/// `Combine*` (Definition 4), complete on the partition's covered
/// columns, in derivation order.
pub fn enumerate_solutions(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    combine_star(relation, partition, level, ctx).all_solutions(relation, partition)
}

/// Several greedy solutions, seeded from each of the widest member tuples
/// (deduplicated by row). Gives the ranking stage alternatives to choose
/// from even when exhaustive enumeration is off the table.
pub(crate) fn greedy_derivation(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Derivation {
    const MAX_SEEDS: usize = 8;
    let non_null = |t: usize| relation.row(t).iter().filter(|&&id| id != 0).count();
    let mut seeds: Vec<usize> = partition.tuples.clone();
    seeds.sort_by_key(|&t| (usize::MAX - non_null(t), t));
    seeds.truncate(MAX_SEEDS);
    let members = member_mask(relation, partition);
    let mut out = Derivation::new(relation.width(), true);
    let mut seen: Vec<u32> = Vec::new();
    let mut seen_index = RowIndex::default();
    for seed in seeds {
        if let Some(s) = greedy_from(relation, partition, &members, level, ctx, seed, &mut out) {
            if seen_index
                .insert(&mut seen, out.width, out.row(s))
                .is_some()
            {
                out.solutions.push(s);
            }
        }
    }
    out
}

/// [`greedy_derivation`], materialized.
pub fn greedy_solutions(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<TupleSolution> {
    greedy_derivation(relation, partition, level, ctx).all_solutions(relation, partition)
}

/// Greedy linear-time solution for a partition (§4.2.1: "if the time to
/// retrieve a consistent solution is an issue then one can always be
/// found in linear time by applying the Combine operator along a spanning
/// tree of the connected component"). Starts from `seed` and repeatedly
/// combines in the consistent member tuple that fills the most nulls
/// (ties: the lowest tuple index). Appends its steps to `out`; returns the
/// final state when it is complete on the covered columns.
fn greedy_from(
    relation: &mut InternedRelation,
    partition: &TuplePartition,
    members: &[u64],
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
    seed: usize,
    out: &mut Derivation,
) -> Option<usize> {
    let mut remaining = members.to_vec();
    remaining[seed / 64] &= !(1 << (seed % 64));
    let mut labels = relation.row(seed).to_vec();
    let mut state = out.push(&labels, u32::MAX, seed);
    let mut combined = Vec::with_capacity(labels.len());
    let (mut candidates, mut scratch) = (Vec::new(), Vec::new());
    while !complete(&labels, partition) {
        // Best consistent extension: adds the most nulls.
        extensions(
            relation,
            &labels,
            &remaining,
            level,
            ctx,
            &mut candidates,
            &mut scratch,
        );
        let mut best: Option<(usize, usize)> = None; // (gain, tuple)
        for t in bits(&candidates) {
            let gain = labels
                .iter()
                .zip(relation.row(t))
                .filter(|(&a, &b)| a == 0 && b != 0)
                .count();
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, t));
            }
        }
        let (_, t) = best?; // no consistent extension left
        combine(&labels, relation.row(t), &mut combined);
        std::mem::swap(&mut labels, &mut combined);
        state = out.push(&labels, state as u32, t);
        remaining[t / 64] &= !(1 << (t % 64));
    }
    Some(state)
}

/// Distinct content words across the non-null labels of a row (§4.2.1).
pub fn tuple_expressiveness(labels: &[Option<Symbol>], ctx: &NamingCtx<'_>) -> usize {
    let mut keys: BTreeSet<Arc<str>> = BTreeSet::new();
    for &label in labels.iter().flatten() {
        for word in &ctx.text_sym(label).words {
            keys.insert(word.stem.clone());
        }
    }
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::GroupRelation;
    use crate::partition::partition_tuples;
    use qi_lexicon::Lexicon;
    use qi_mapping::ClusterId;

    fn cids(n: u32) -> Vec<ClusterId> {
        (0..n).map(ClusterId).collect()
    }

    #[test]
    fn combine_overlays() {
        // (Seniors, Adults, ∅) ⊕ (∅, Adult, Infants), as column-local ids.
        let mut out = Vec::new();
        combine(&[1, 1, 0], &[0, 2, 1], &mut out);
        assert_eq!(out, vec![1, 1, 1], "r wins where both are non-null");
    }

    /// §4.1: Combine(british, economytravel) = (Seniors, Adults, Children,
    /// Infants) — the paper's flagship example.
    #[test]
    fn table2_combined_solution() {
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
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        let full = &result.partitions[result.full[0]];
        let mut interned = InternedRelation::new(&relation, &ctx);
        let solutions = enumerate_solutions(&mut interned, full, ConsistencyLevel::String, &ctx);
        let expected: Vec<Option<Symbol>> = ["Seniors", "Adults", "Children", "Infants"]
            .iter()
            .map(|s| Some(ctx.sym(s)))
            .collect();
        assert!(
            solutions.iter().any(|s| s.labels == expected),
            "expected solution not derived: {solutions:?}"
        );
        // No solution is a candidate (no single interface covers all 4).
        assert!(solutions.iter().all(|s| !s.is_candidate));
    }

    #[test]
    fn candidate_solutions_and_frequency() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(2),
            &[
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), Some("Model")],
                vec![Some("Make"), None],
            ],
            &ctx,
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(result.has_full_cover());
        let full = &result.partitions[result.full[0]];
        let mut interned = InternedRelation::new(&relation, &ctx);
        let solutions = enumerate_solutions(&mut interned, full, ConsistencyLevel::String, &ctx);
        let full_solution = solutions
            .iter()
            .find(|s| s.labels.iter().all(Option::is_some))
            .unwrap();
        assert!(full_solution.is_candidate);
        assert_eq!(full_solution.frequency, 2);
    }

    /// §4.2.1's expressiveness example: (Max. Number of Stops, Class of
    /// Ticket, Preferred Airline) beats (Number of Connections, Class of
    /// Ticket, Airline Preference).
    #[test]
    fn expressiveness_prefers_descriptive() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let row = |labels: [&str; 3]| labels.map(|l| Some(ctx.sym(l)));
        let a = row([
            "Max. Number of Stops",
            "Class of Ticket",
            "Preferred Airline",
        ]);
        let b = row([
            "Number of Connections",
            "Class of Ticket",
            "Airline Preference",
        ]);
        assert!(tuple_expressiveness(&a, &ctx) > tuple_expressiveness(&b, &ctx));
    }

    #[test]
    fn incomplete_partition_yields_partial_column_solutions() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Column 2 is labeled only by a tuple disconnected from the
        // {State, City} partition.
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                vec![Some("State"), Some("City"), None],
                vec![Some("State"), None, None],
                vec![None, None, Some("Zip")],
            ],
            &ctx,
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(!result.has_full_cover());
        let p = result
            .partitions
            .iter()
            .find(|p| p.covered.contains(&0))
            .unwrap();
        let mut interned = InternedRelation::new(&relation, &ctx);
        let solutions = enumerate_solutions(&mut interned, p, ConsistencyLevel::String, &ctx);
        // The solution is complete on columns {0,1} and null on column 2.
        assert!(solutions
            .iter()
            .any(|s| s.labels[0].is_some() && s.labels[1].is_some() && s.labels[2].is_none()));
    }

    #[test]
    fn expressiveness_of_empty_row() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        assert_eq!(tuple_expressiveness(&[None, None], &ctx), 0);
    }
}
