//! Compact, serializable labeling-decision provenance.
//!
//! The labeler's diagnostics become one flat [`LabelDecision`] record
//! per integrated-tree node — stable enough to persist in a snapshot
//! section, serve over HTTP (`GET /domains/{d}/explain`) and print from
//! `qi explain` and `qi label --explain`. Each record names the node
//! (id + label path), the rule that fired, the chosen label, and every
//! candidate that was considered with its score and accept/reject
//! verdict.
//!
//! Rule strings are a small closed vocabulary:
//!
//! * `group:<level>` — a consistent group solution at a Definition 2
//!   level (`string`/`equality`/`synonymy`), with `+conflict-repaired`
//!   or `+conflict-unrepaired` appended when homonym repair ran;
//! * `group:partial` — the §4.2.2 partially consistent fallback;
//! * `isolated:most-descriptive` / `isolated:most-general` — the §4.4
//!   election under the active [`NamingPolicy`];
//! * `internal:LI1`..`internal:LI7` — the inference rule that produced
//!   the chosen internal-node candidate (`+weak` appended when only
//!   Definition 5 generality holds, not Definition 6 consistency);
//! * `internal:blocked-by-ancestor` — every candidate duplicates an
//!   ancestor label (§7);
//! * `internal:no-candidates` / `unlabeled:no-source-label` — nothing
//!   to decide.

use crate::labeler::LabeledInterface;
use crate::policy::{LabelSelection, NamingPolicy};
use qi_schema::{NodeId, SchemaTree};

/// One candidate label considered for a node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionCandidate {
    /// The candidate label text.
    pub label: String,
    /// Occurrence frequency (source interfaces supplying the label).
    pub frequency: u64,
    /// True when this candidate became the node's label.
    pub accepted: bool,
    /// Score detail, e.g. `LI2 expressiveness=2` for internal-node
    /// candidates; empty when the rule carries no extra score.
    pub note: String,
}

/// Why one integrated-tree node carries (or lacks) its label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelDecision {
    /// Arena id of the node in the labeled integrated tree.
    pub node: u32,
    /// Slash-joined label path from the root (unlabeled ancestors
    /// render as `n<id>`).
    pub path: String,
    /// The rule that fired (see the module docs for the vocabulary).
    pub rule: String,
    /// The assigned label, if any.
    pub chosen: Option<String>,
    /// Every candidate considered, in evaluation order.
    pub candidates: Vec<DecisionCandidate>,
}

/// Slash-joined label path of a node (root excluded).
fn node_path(tree: &SchemaTree, id: NodeId) -> String {
    let mut parts: Vec<String> = tree
        .path_to_root(id)
        .into_iter()
        .filter(|&p| p != NodeId::ROOT)
        .map(|p| segment(tree, p))
        .collect();
    parts.reverse();
    parts.push(segment(tree, id));
    parts.join("/")
}

fn segment(tree: &SchemaTree, id: NodeId) -> String {
    match &tree.node(id).label {
        Some(label) => label.clone(),
        None => id.to_string(),
    }
}

/// Distill the labeler's full diagnostics into one flat decision list,
/// ordered by node id: group fields first-come, isolated elections,
/// then internal nodes.
pub fn decisions(labeled: &LabeledInterface, policy: &NamingPolicy) -> Vec<LabelDecision> {
    let tree = &labeled.tree;
    let mut out: Vec<LabelDecision> = Vec::new();

    // Group fields: the chosen solution per column, with every source
    // label of that column as a candidate.
    for group in &labeled.report.groups {
        let mut rule = match group.level {
            Some(level) => format!("group:{level}"),
            // `name_group` reports a level exactly when it is consistent.
            None => "group:partial".to_string(),
        };
        match group.conflict_repaired {
            Some(true) => rule.push_str("+conflict-repaired"),
            Some(false) => rule.push_str("+conflict-unrepaired"),
            None => {}
        }
        for (column, &leaf) in group.leaves.iter().enumerate() {
            let chosen = group.labels.get(column).cloned().flatten();
            let options = group
                .column_options
                .get(column)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let candidates = options
                .iter()
                .map(|(label, count)| DecisionCandidate {
                    label: label.clone(),
                    frequency: *count as u64,
                    accepted: chosen.as_deref() == Some(label.as_str()),
                    note: String::new(),
                })
                .collect();
            out.push(LabelDecision {
                node: leaf.0,
                path: node_path(tree, leaf),
                rule: if chosen.is_some() {
                    rule.clone()
                } else {
                    "unlabeled:no-source-label".to_string()
                },
                chosen,
                candidates,
            });
        }
    }

    // Isolated clusters: the §4.4 election.
    let election = match policy.selection {
        LabelSelection::MostDescriptive => "isolated:most-descriptive",
        LabelSelection::MostGeneral => "isolated:most-general",
    };
    for isolated in &labeled.report.isolated {
        out.push(LabelDecision {
            node: isolated.leaf.0,
            path: node_path(tree, isolated.leaf),
            rule: if isolated.chosen.is_some() {
                election.to_string()
            } else {
                "unlabeled:no-source-label".to_string()
            },
            chosen: isolated.chosen.clone(),
            candidates: isolated
                .occurrences
                .iter()
                .map(|(label, frequency)| DecisionCandidate {
                    label: label.clone(),
                    frequency: *frequency as u64,
                    accepted: isolated.chosen.as_deref() == Some(label.as_str()),
                    note: String::new(),
                })
                .collect(),
        });
    }

    // Internal nodes: candidate sets with LI rules and the phase-3
    // verdict.
    for (&id, decision) in &labeled.internal {
        let rule = match decision.chosen_candidate() {
            Some(chosen) if decision.def6_consistent => format!("internal:{}", chosen.rule),
            Some(chosen) => format!("internal:{}+weak", chosen.rule),
            None if decision.candidates.is_empty() => "internal:no-candidates".to_string(),
            None => "internal:blocked-by-ancestor".to_string(),
        };
        out.push(LabelDecision {
            node: id.0,
            path: node_path(tree, id),
            rule,
            chosen: decision.chosen_candidate().map(|c| c.label.to_string()),
            candidates: (decision.candidates.iter().enumerate())
                .map(|(index, c)| DecisionCandidate {
                    label: c.label.to_string(),
                    frequency: c.frequency as u64,
                    accepted: decision.chosen == Some(index),
                    note: format!("{} expressiveness={}", c.rule, c.expressiveness),
                })
                .collect(),
        });
    }

    out.sort_by_key(|d| d.node);
    out
}

/// Render decisions as aligned text for `qi explain`. `filter` keeps
/// only nodes whose path contains the needle (case-insensitive).
pub fn render(decisions: &[LabelDecision], filter: Option<&str>) -> String {
    let needle = filter.map(str::to_ascii_lowercase);
    let mut out = String::new();
    for decision in decisions {
        if let Some(needle) = &needle {
            if !decision.path.to_ascii_lowercase().contains(needle) {
                continue;
            }
        }
        out.push_str(&format!(
            "n{} {}\n  rule: {}\n  label: {}\n",
            decision.node,
            decision.path,
            decision.rule,
            decision.chosen.as_deref().unwrap_or("(unlabeled)"),
        ));
        for candidate in &decision.candidates {
            out.push_str(&format!(
                "  {} {:?} freq={}{}\n",
                if candidate.accepted {
                    "accepted"
                } else {
                    "rejected"
                },
                candidate.label,
                candidate.frequency,
                if candidate.note.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", candidate.note)
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Labeler, NamingPolicy};
    use qi_lexicon::Lexicon;
    use qi_mapping::{expand_one_to_many, FieldRef, Mapping};
    use qi_schema::spec::{leaf, node};
    use qi_schema::SchemaTree;

    fn fixture() -> Vec<LabelDecision> {
        let a = SchemaTree::build(
            "a",
            vec![node("Passengers", vec![leaf("Adults"), leaf("Children")])],
        )
        .unwrap();
        let b = SchemaTree::build(
            "b",
            vec![
                node("Travelers", vec![leaf("Adults"), leaf("Children")]),
                leaf("Promo Code"),
            ],
        )
        .unwrap();
        let al = a.descendant_leaves(qi_schema::NodeId::ROOT);
        let bl = b.descendant_leaves(qi_schema::NodeId::ROOT);
        let mut mapping = Mapping::from_clusters(vec![
            (
                "adult".to_string(),
                vec![FieldRef::new(0, al[0]), FieldRef::new(1, bl[0])],
            ),
            (
                "child".to_string(),
                vec![FieldRef::new(0, al[1]), FieldRef::new(1, bl[1])],
            ),
            ("promo".to_string(), vec![FieldRef::new(1, bl[2])]),
        ]);
        let mut schemas = vec![a, b];
        expand_one_to_many(&mut schemas, &mut mapping);
        let integrated = qi_merge::merge(&schemas, &mapping);
        let lexicon = Lexicon::builtin();
        let policy = NamingPolicy::default();
        let labeled = Labeler::new(&lexicon, policy).label(&schemas, &mapping, &integrated);
        decisions(&labeled, &policy)
    }

    #[test]
    fn every_labeled_node_has_a_decision_with_a_rule() {
        let decisions = fixture();
        assert!(!decisions.is_empty());
        for decision in &decisions {
            assert!(!decision.rule.is_empty());
            assert!(!decision.path.is_empty());
            if let Some(chosen) = &decision.chosen {
                assert!(
                    decision.candidates.iter().any(|c| c.accepted),
                    "chosen {chosen} but no accepted candidate: {decision:?}"
                );
            }
        }
        // Group fields carry a group rule with the consistency level.
        assert!(
            decisions.iter().any(|d| d.rule.starts_with("group:")),
            "{decisions:?}"
        );
        // The internal node's decision names its LI rule.
        assert!(
            decisions.iter().any(|d| d.rule.starts_with("internal:LI")),
            "{decisions:?}"
        );
    }

    #[test]
    fn rejected_alternatives_are_recorded() {
        let decisions = fixture();
        // The Passengers/Travelers internal node considered both source
        // section labels; exactly one was accepted.
        let internal = decisions
            .iter()
            .find(|d| d.rule.starts_with("internal:LI"))
            .expect("internal decision");
        assert!(internal.candidates.iter().any(|c| c.accepted));
        assert!(
            internal.candidates.iter().any(|c| !c.accepted),
            "expected a rejected alternative: {internal:?}"
        );
        assert!(internal.candidates.iter().all(|c| !c.note.is_empty()));
    }

    #[test]
    fn render_filters_by_path() {
        let decisions = fixture();
        let all = render(&decisions, None);
        assert!(all.contains("rule: "));
        assert!(all.contains("accepted"));
        let filtered = render(&decisions, Some("promo"));
        assert!(filtered.contains("Promo Code"), "{filtered}");
        assert!(!filtered.contains("Adults"), "{filtered}");
        assert!(render(&decisions, Some("zzz-no-such-node")).is_empty());
    }
}
