//! Group relations (§4 of the paper).
//!
//! The clusters of a group are organized in an *(n+1)-ary relation*: one
//! column per cluster plus the interface name, one tuple per source
//! interface recording the labels that interface supplies for the group's
//! clusters (Tables 2–4 of the paper). All-null tuples are discarded.

use crate::cluster::{ClusterId, Mapping};
use qi_schema::SchemaTree;

/// One tuple of a group relation: the labels one interface supplies for
/// the clusters of the group (`None` = the paper's null entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupTuple {
    /// Source schema index.
    pub schema: usize,
    /// Labels, parallel to [`GroupRelation::clusters`].
    pub labels: Vec<Option<String>>,
}

impl GroupTuple {
    /// Number of non-null components.
    pub fn non_null_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Column indices with non-null labels.
    pub fn covered_columns(&self) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|_| i))
            .collect()
    }
}

/// The group relation of one group of clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRelation {
    /// The group's clusters (column order).
    pub clusters: Vec<ClusterId>,
    /// Tuples, one per interface that labels at least one cluster.
    pub tuples: Vec<GroupTuple>,
}

impl GroupRelation {
    /// Build the group relation for `clusters` from the source schemas.
    ///
    /// For every schema, the tuple's entry for cluster `C` is the label of
    /// the schema's member field in `C`, or null when the schema has no
    /// member or the member is unlabeled. Schemas contributing only nulls
    /// are omitted.
    pub fn build(clusters: &[ClusterId], mapping: &Mapping, schemas: &[SchemaTree]) -> Self {
        let mut tuples = Vec::new();
        for (schema_idx, schema) in schemas.iter().enumerate() {
            let labels: Vec<Option<String>> = clusters
                .iter()
                .map(|&cid| {
                    mapping
                        .cluster(cid)
                        .member_of(schema_idx)
                        .and_then(|field| schema.node(field.node).label.clone())
                })
                .collect();
            if labels.iter().any(Option::is_some) {
                tuples.push(GroupTuple {
                    schema: schema_idx,
                    labels,
                });
            }
        }
        GroupRelation {
            clusters: clusters.to_vec(),
            tuples,
        }
    }

    /// Construct a relation directly from rows of optional label strings.
    /// Tuples are attributed to schemas `0..rows.len()` in order; all-null
    /// rows are dropped. Used heavily by tests mirroring the paper's
    /// tables.
    pub fn from_rows(clusters: &[ClusterId], rows: &[Vec<Option<&str>>]) -> Self {
        let tuples = rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(Option::is_some))
            .map(|(i, row)| {
                assert_eq!(row.len(), clusters.len(), "row arity mismatch");
                GroupTuple {
                    schema: i,
                    labels: row.iter().map(|l| l.map(str::to_string)).collect(),
                }
            })
            .collect();
        GroupRelation {
            clusters: clusters.to_vec(),
            tuples,
        }
    }

    /// Number of clusters (columns).
    pub fn width(&self) -> usize {
        self.clusters.len()
    }

    /// Column index of a cluster.
    pub fn column_of(&self, cluster: ClusterId) -> Option<usize> {
        self.clusters.iter().position(|&c| c == cluster)
    }

    /// The tuple supplied by a given schema, if any.
    pub fn tuple_of_schema(&self, schema: usize) -> Option<&GroupTuple> {
        self.tuples.iter().find(|t| t.schema == schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FieldRef;
    use qi_schema::spec::{leaf, node, unlabeled_leaf};

    fn cid(i: u32) -> ClusterId {
        ClusterId(i)
    }

    /// Rebuild Table 2 of the paper from actual schema trees.
    #[test]
    fn build_from_schemas_matches_table2_shape() {
        // Two of the airline interfaces: `british` labels three concepts,
        // `economytravel` labels three (overlapping on Adults/Children).
        let british = SchemaTree::build(
            "british",
            vec![node(
                "Passengers",
                vec![leaf("Seniors"), leaf("Adults"), leaf("Children")],
            )],
        )
        .unwrap();
        let economy = SchemaTree::build(
            "economytravel",
            vec![node(
                "Travelers",
                vec![leaf("Adults"), leaf("Children"), leaf("Infants")],
            )],
        )
        .unwrap();
        let bl = british.descendant_leaves(qi_schema::NodeId::ROOT);
        let el = economy.descendant_leaves(qi_schema::NodeId::ROOT);
        let mapping = Mapping::from_clusters(vec![
            ("c_Senior".to_string(), vec![FieldRef::new(0, bl[0])]),
            (
                "c_Adult".to_string(),
                vec![FieldRef::new(0, bl[1]), FieldRef::new(1, el[0])],
            ),
            (
                "c_Child".to_string(),
                vec![FieldRef::new(0, bl[2]), FieldRef::new(1, el[1])],
            ),
            ("c_Infant".to_string(), vec![FieldRef::new(1, el[2])]),
        ]);
        let schemas = vec![british, economy];
        mapping.validate(&schemas).unwrap();
        let gr = GroupRelation::build(&[cid(0), cid(1), cid(2), cid(3)], &mapping, &schemas);
        assert_eq!(gr.width(), 4);
        assert_eq!(gr.tuples.len(), 2);
        let b = gr.tuple_of_schema(0).unwrap();
        assert_eq!(
            b.labels,
            vec![
                Some("Seniors".to_string()),
                Some("Adults".to_string()),
                Some("Children".to_string()),
                None
            ]
        );
        assert_eq!(b.non_null_count(), 3);
        assert_eq!(b.covered_columns(), vec![0, 1, 2]);
        let e = gr.tuple_of_schema(1).unwrap();
        assert_eq!(e.non_null_count(), 3);
        assert_eq!(e.covered_columns(), vec![1, 2, 3]);
    }

    #[test]
    fn unlabeled_members_contribute_nulls() {
        let a = SchemaTree::build("a", vec![unlabeled_leaf(), leaf("B")]).unwrap();
        let al = a.descendant_leaves(qi_schema::NodeId::ROOT);
        let mapping = Mapping::from_clusters(vec![
            ("c_0".to_string(), vec![FieldRef::new(0, al[0])]),
            ("c_1".to_string(), vec![FieldRef::new(0, al[1])]),
        ]);
        let schemas = vec![a];
        let gr = GroupRelation::build(&[cid(0), cid(1)], &mapping, &schemas);
        assert_eq!(gr.tuples.len(), 1);
        assert_eq!(gr.tuples[0].labels[0], None);
        assert_eq!(gr.tuples[0].labels[1], Some("B".to_string()));
    }

    #[test]
    fn all_null_tuples_are_dropped() {
        let a = SchemaTree::build("a", vec![unlabeled_leaf()]).unwrap();
        let al = a.descendant_leaves(qi_schema::NodeId::ROOT);
        let mapping =
            Mapping::from_clusters(vec![("c_0".to_string(), vec![FieldRef::new(0, al[0])])]);
        let schemas = vec![a];
        let gr = GroupRelation::build(&[cid(0)], &mapping, &schemas);
        assert!(gr.tuples.is_empty());
    }

    #[test]
    fn from_rows_mirrors_paper_tables() {
        // Table 3 of the paper.
        let gr = GroupRelation::from_rows(
            &[cid(0), cid(1), cid(2), cid(3)],
            &[
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Zip Code"), Some("Distance")],
                vec![Some("State"), Some("City"), None, None],
                vec![None, None, Some("Your Zip"), Some("Within")],
            ],
        );
        assert_eq!(gr.tuples.len(), 4);
        assert_eq!(gr.column_of(cid(2)), Some(2));
        assert_eq!(gr.column_of(ClusterId(9)), None);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn from_rows_checks_arity() {
        let _ = GroupRelation::from_rows(&[cid(0), cid(1)], &[vec![Some("A")]]);
    }
}
