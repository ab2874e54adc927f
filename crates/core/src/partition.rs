//! Graph-closure partitioning of group-relation tuples (§4.1.1).
//!
//! Each tuple is a vertex; an edge joins two tuples consistent at the
//! current level (Definition 2). Connected components are the *maximal
//! partitions*: within one partition a consistent solution can be
//! assembled by `Combine*`; the union of the members' non-null columns is
//! the set of clusters the partition can name (Proposition 1).

use crate::consistency::ConsistencyLevel;
use crate::ctx::NamingCtx;
use crate::kernel::{bits, GroupRelation, InternedRelation};
use std::collections::BTreeSet;

/// One maximal partition of consistent tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuplePartition {
    /// Indices into `GroupRelation::tuples`, ascending.
    pub tuples: Vec<usize>,
    /// Cluster columns covered by at least one member tuple.
    pub covered: BTreeSet<usize>,
}

impl TuplePartition {
    /// Does this partition cover every column of a width-`n` relation?
    pub fn covers_all(&self, n: usize) -> bool {
        self.covered.len() == n
    }
}

/// The partitions of a group relation at one consistency level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionResult {
    /// Level the graph was built at.
    pub level: ConsistencyLevel,
    /// All partitions (connected components), ordered by smallest member
    /// tuple index.
    pub partitions: Vec<TuplePartition>,
    /// Columns labeled by at least one tuple. Columns outside this set are
    /// unlabeled in every source and can never receive a label (the
    /// Real Estate "No Label" field of Figure 11) — they are excluded from
    /// the full-cover requirement.
    pub coverable: BTreeSet<usize>,
    /// Indices (into `partitions`) of partitions covering all coverable
    /// clusters — the partitions that *supply a consistent solution*
    /// (Prop. 1).
    pub full: Vec<usize>,
}

impl PartitionResult {
    /// True if some partition covers every cluster of the group.
    pub fn has_full_cover(&self) -> bool {
        !self.full.is_empty()
    }
}

/// Partition the tuples of `relation` at `level`.
pub fn partition_tuples(
    relation: &GroupRelation,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> PartitionResult {
    let comp = components(&mut InternedRelation::new(relation, ctx), level, ctx);
    result_from_components(relation, level, &comp)
}

fn find(parent: &mut Vec<usize>, x: usize) -> usize {
    if parent[x] != x {
        let root = find(parent, parent[x]);
        parent[x] = root;
    }
    parent[x]
}

/// Canonicalize a union-find forest: entry `i` becomes the smallest
/// tuple index of `i`'s component.
fn canonicalize(parent: &mut Vec<usize>) -> Vec<usize> {
    let n = parent.len();
    let mut smallest: Vec<usize> = (0..n).collect();
    let mut comp: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        let root = find(parent, i);
        // Ascending scan: the first member of a component to reach its
        // root *is* the smallest member.
        if smallest[root] > i {
            smallest[root] = i;
        }
        comp.push(smallest[root].min(root));
    }
    // A root larger than its smallest member records itself on first
    // touch; fix those entries up with a second pass.
    for entry in comp.iter_mut() {
        if smallest[*entry] < *entry {
            *entry = smallest[*entry];
        }
    }
    comp
}

/// The canonical component ids of a partitioning: `comp[i]` is the
/// smallest tuple index in tuple `i`'s connected component.
pub fn components(
    relation: &mut InternedRelation,
    level: ConsistencyLevel,
    ctx: &NamingCtx<'_>,
) -> Vec<usize> {
    let n = relation.len();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut neighbours = vec![0u64; relation.words()];
    for t in 0..n {
        // Union tuple `t` with every tuple consistent with it at `level`.
        neighbours.fill(0);
        let row = relation.row(t).to_vec();
        relation.or_consistent(level, &row, ctx, &mut neighbours);
        for u in bits(&neighbours) {
            let ru = find(&mut parent, u);
            let rt = find(&mut parent, t);
            if ru != rt {
                parent[ru] = rt;
            }
        }
    }
    canonicalize(&mut parent)
}

/// Assemble the full [`PartitionResult`] from canonical component ids.
pub fn result_from_components(
    relation: &GroupRelation,
    level: ConsistencyLevel,
    comp: &[usize],
) -> PartitionResult {
    let mut groups: Vec<(usize, TuplePartition)> = Vec::new();
    for (i, &root) in comp.iter().enumerate() {
        let labels = &relation.tuples[i].labels;
        let covered = (0..labels.len()).filter(|&c| labels[c].is_some());
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, p)) => {
                p.tuples.push(i);
                p.covered.extend(covered);
            }
            None => {
                groups.push((
                    root,
                    TuplePartition {
                        tuples: vec![i],
                        covered: covered.collect(),
                    },
                ));
            }
        }
    }
    let partitions: Vec<TuplePartition> = groups.into_iter().map(|(_, p)| p).collect();
    let coverable: BTreeSet<usize> = partitions
        .iter()
        .flat_map(|p| p.covered.iter().copied())
        .collect();
    let full = partitions
        .iter()
        .enumerate()
        .filter(|(_, p)| p.covered == coverable && !coverable.is_empty())
        .map(|(i, _)| i)
        .collect();
    PartitionResult {
        level,
        partitions,
        coverable,
        full,
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

    /// Table 2 / Figure 4 of the paper: at the string level the airline
    /// passenger group partitions into {aa, british, economytravel,
    /// vacations} and {airfareplanet, airtravel}; only the former covers
    /// all four clusters.
    #[test]
    fn figure4_partitions() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(4),
            &[
                // aa
                vec![None, Some("Adults"), Some("Children"), None],
                // airfareplanet
                vec![None, Some("Adult"), Some("Child"), Some("Infant")],
                // airtravel
                vec![None, Some("Adult"), Some("Child"), None],
                // british
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
                // economytravel
                vec![None, Some("Adults"), Some("Children"), Some("Infants")],
                // vacations
                vec![Some("Seniors"), Some("Adults"), Some("Children"), None],
            ],
            &ctx,
        );
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert_eq!(result.partitions.len(), 2);
        let sizes: BTreeSet<usize> = result.partitions.iter().map(|p| p.tuples.len()).collect();
        assert_eq!(sizes, BTreeSet::from([2, 4]));
        // Exactly one partition covers all clusters (Prop. 1 ⇒ a
        // consistent solution exists).
        assert_eq!(result.full.len(), 1);
        let full = &result.partitions[result.full[0]];
        assert_eq!(full.tuples.len(), 4);
        assert!(full.covers_all(4));
        assert!(result.has_full_cover());
    }

    /// Table 3: two disconnected sub-relations, neither covering all four
    /// clusters — no consistent solution, at any level.
    #[test]
    fn table3_no_full_cover() {
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
        for level in ConsistencyLevel::LADDER {
            let result = partition_tuples(&relation, level, &ctx);
            assert!(!result.has_full_cover(), "level {level}");
            assert!(result.partitions.len() >= 2);
        }
    }

    /// Table 4: string level leaves singletons; the equality level glues
    /// the middle tuples into a full-cover partition.
    #[test]
    fn table4_equality_rescues() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(
            &cids(3),
            &[
                // aa
                vec![Some("NonStop"), None, Some("Choose an Airline")],
                // airfare
                vec![
                    Some("Number of Connections"),
                    None,
                    Some("Airline Preference"),
                ],
                // alldest
                vec![None, Some("Class of Ticket"), Some("Preferred Airline")],
                // cheap
                vec![
                    Some("Max. Number of Stops"),
                    None,
                    Some("Airline Preference"),
                ],
                // msn
                vec![None, Some("Class"), Some("Airline")],
            ],
            &ctx,
        );
        let string_level = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(!string_level.has_full_cover());
        let equality = partition_tuples(&relation, ConsistencyLevel::Equality, &ctx);
        assert!(equality.has_full_cover());
        let full = &equality.partitions[equality.full[0]];
        // airfare, alldest, cheap link up (Airline Preference ≍ Preferred
        // Airline, shared Airline Preference string).
        assert!(full.tuples.contains(&1));
        assert!(full.tuples.contains(&2));
        assert!(full.tuples.contains(&3));
    }

    #[test]
    fn empty_relation() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let relation = GroupRelation::from_rows(&cids(2), &[], &ctx);
        let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
        assert!(result.partitions.is_empty());
        assert!(!result.has_full_cover());
    }
}
