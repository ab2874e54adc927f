//! Labeling isolated clusters (§4.4).
//!
//! An isolated cluster (`C_int`) is the only field under its internal
//! node, so its label needs no correlation with siblings. The paper adapts
//! WISE-Integrator's representative-attribute-name (RAN) algorithm \[12\]:
//! build hypernymy hierarchies over the cluster's member labels, take the
//! hierarchy roots (the most general labels), and elect a winner — by the
//! *most descriptive* rule here, rather than \[12\]'s majority rule.
//!
//! Instance rules refine the election: LI7 discards labels that are really
//! values of sibling fields (§6.1.2); LI6 lets a descriptive hyponym
//! replace a generic root whose observed domain it contains (§6.1.1 —
//! `Flight Class` over `Class`).

use crate::ctx::NamingCtx;
use crate::instances::{instances_subset, label_is_instance_of};
use crate::policy::{LabelSelection, NamingPolicy};
use crate::report::{InferenceRule, LiUsage};
use qi_runtime::Symbol;

/// One label observed on the cluster's member fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelOccurrence {
    /// The interned raw label.
    pub label: Symbol,
    /// Number of interfaces supplying this label for the cluster.
    pub frequency: usize,
    /// Union of the instance domains of the fields carrying this label.
    pub domain: Vec<String>,
}

/// Elect a label for an isolated cluster. Returns `None` when no member
/// field is labeled.
pub fn label_isolated_cluster(
    occurrences: &[LabelOccurrence],
    ctx: &NamingCtx<'_>,
    policy: &NamingPolicy,
    usage: &mut LiUsage,
) -> Option<Symbol> {
    let mut candidates: Vec<&LabelOccurrence> = occurrences
        .iter()
        .filter(|o| !ctx.text_sym(o.label).is_empty())
        .collect();
    if candidates.is_empty() {
        return None;
    }
    // LI7: discard labels that occur among the instances of another
    // member field of the cluster.
    if policy.use_instances && candidates.len() > 1 {
        let all: Vec<&LabelOccurrence> = candidates.clone();
        let before = candidates.len();
        candidates.retain(|cand| {
            !all.iter().any(|other| {
                other.label != cand.label
                    && label_is_instance_of(&ctx.spelling(cand.label), &other.domain)
            })
        });
        if candidates.len() < before {
            usage.record(InferenceRule::Li7);
        }
        if candidates.is_empty() {
            candidates = all; // never discard everything
        }
    }
    // Roots of the hypernymy hierarchy: labels that are not a (strict)
    // hyponym of any other candidate.
    let roots: Vec<&LabelOccurrence> = candidates
        .iter()
        .copied()
        .filter(|cand| {
            !candidates
                .iter()
                .any(|other| ctx.hypernym_sym(other.label, cand.label))
        })
        .collect();
    let roots = if roots.is_empty() {
        candidates.clone()
    } else {
        roots
    };
    // LI6: a root whose observed domain is contained in a descendant's
    // domain is semantically bounded to that descendant — substitute the
    // most descriptive such hyponym.
    let mut finalists: Vec<&LabelOccurrence> = Vec::new();
    for root in &roots {
        let mut chosen: &LabelOccurrence = root;
        if policy.use_instances && !root.domain.is_empty() {
            let mut bounded: Vec<&LabelOccurrence> = candidates
                .iter()
                .copied()
                .filter(|h| {
                    ctx.hypernym_sym(root.label, h.label)
                        && instances_subset(&root.domain, &h.domain)
                })
                .collect();
            if !bounded.is_empty() {
                order(&mut bounded, ctx, policy.selection);
                chosen = bounded[0];
                usage.record(InferenceRule::Li6);
            }
        }
        if !finalists.iter().any(|f| f.label == chosen.label) {
            finalists.push(chosen);
        }
    }
    order(&mut finalists, ctx, policy.selection);
    Some(finalists[0].label)
}

/// Order candidates per the selection policy: most-descriptive =
/// (expressiveness desc, frequency desc); most-general = (frequency desc,
/// expressiveness asc) — \[12\]'s majority rule. Ties go to the first
/// spelling.
fn order(candidates: &mut [&LabelOccurrence], ctx: &NamingCtx<'_>, selection: LabelSelection) {
    let spelling = |o: &LabelOccurrence| ctx.spelling(o.label);
    match selection {
        LabelSelection::MostDescriptive => candidates.sort_by(|a, b| {
            ctx.expressiveness_sym(b.label)
                .cmp(&ctx.expressiveness_sym(a.label))
                .then(b.frequency.cmp(&a.frequency))
                .then_with(|| spelling(a).cmp(&spelling(b)))
        }),
        LabelSelection::MostGeneral => candidates.sort_by(|a, b| {
            b.frequency
                .cmp(&a.frequency)
                .then(
                    ctx.expressiveness_sym(a.label)
                        .cmp(&ctx.expressiveness_sym(b.label)),
                )
                .then_with(|| spelling(a).cmp(&spelling(b)))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;

    /// An occurrence spelled `label`, elected against a context that
    /// interns it when the election runs.
    struct Occ {
        label: &'static str,
        frequency: usize,
        domain: Vec<String>,
    }

    fn occ(label: &'static str, frequency: usize) -> Occ {
        occ_dom(label, frequency, &[])
    }

    fn occ_dom(label: &'static str, frequency: usize, domain: &[&str]) -> Occ {
        Occ {
            label,
            frequency,
            domain: domain.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Elect over `occurrences`; returns the winner's spelling and the
    /// inference rules used.
    fn elect(occurrences: &[Occ], policy: &NamingPolicy) -> (Option<String>, LiUsage) {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let occurrences: Vec<LabelOccurrence> = occurrences
            .iter()
            .map(|o| LabelOccurrence {
                label: ctx.sym(o.label),
                frequency: o.frequency,
                domain: o.domain.clone(),
            })
            .collect();
        let mut usage = LiUsage::default();
        let chosen = label_isolated_cluster(&occurrences, &ctx, policy, &mut usage);
        (chosen.map(|s| ctx.spelling(s).to_string()), usage)
    }

    fn run(occurrences: &[Occ], policy: &NamingPolicy) -> Option<String> {
        elect(occurrences, policy).0
    }

    /// §4.4's example: labels {Class, Class of Ticket, Preferred Cabin,
    /// Flight Class} → hierarchies rooted at Class and Preferred Cabin;
    /// Preferred Cabin wins as the more descriptive root.
    #[test]
    fn paper_example_preferred_cabin() {
        let occurrences = vec![
            occ("Class", 3),
            occ("Class of Ticket", 2),
            occ("Preferred Cabin", 1),
            occ("Flight Class", 1),
        ];
        assert_eq!(
            run(&occurrences, &NamingPolicy::default()).as_deref(),
            Some("Preferred Cabin")
        );
    }

    /// The \[12\] baseline elects the majority root instead.
    #[test]
    fn most_general_baseline_prefers_majority_root() {
        let occurrences = vec![
            occ("Class", 3),
            occ("Class of Ticket", 2),
            occ("Preferred Cabin", 1),
            occ("Flight Class", 1),
        ];
        assert_eq!(
            run(&occurrences, &NamingPolicy::most_general_baseline()).as_deref(),
            Some("Class")
        );
    }

    /// §6.1.1 / LI6: Class's domain equals Flight Class's domain, so
    /// Class is bounded to the descriptive hyponym.
    #[test]
    fn li6_bounds_generic_root_to_descriptive_hyponym() {
        let occurrences = vec![
            occ_dom("Class", 3, &["Economy", "Business", "First"]),
            occ_dom("Class of Tickets", 1, &["Economy", "Business"]),
            occ_dom("Flight Class", 2, &["Economy", "Business", "First"]),
        ];
        let (chosen, usage) = elect(&occurrences, &NamingPolicy::default());
        assert_eq!(chosen.as_deref(), Some("Flight Class"));
        assert_eq!(usage.count(InferenceRule::Li6), 1);
    }

    /// §6.1.2 / LI7: a label that is a value of a sibling field is
    /// discarded.
    #[test]
    fn li7_discards_value_labels() {
        let occurrences = vec![
            occ_dom("Format", 2, &["Hardcover", "Paperback"]),
            occ("Hardcover", 1),
        ];
        let (chosen, usage) = elect(&occurrences, &NamingPolicy::default());
        assert_eq!(chosen.as_deref(), Some("Format"));
        assert_eq!(usage.count(InferenceRule::Li7), 1);
    }

    #[test]
    fn li7_respects_policy_switch() {
        let policy = NamingPolicy {
            use_instances: false,
            ..NamingPolicy::default()
        };
        let occurrences = vec![
            occ_dom("Format", 1, &["Hardcover", "Paperback"]),
            occ("Hardcover", 3),
        ];
        // Without LI7, Hardcover is a root (unrelated to Format) and, at
        // equal expressiveness, its higher frequency wins.
        assert_eq!(run(&occurrences, &policy).as_deref(), Some("Hardcover"));
    }

    #[test]
    fn empty_and_blank_labels() {
        assert_eq!(run(&[], &NamingPolicy::default()), None);
        let occurrences = vec![occ("$$", 1)];
        assert_eq!(run(&occurrences, &NamingPolicy::default()), None);
    }

    #[test]
    fn single_label_is_elected() {
        let occurrences = vec![occ("Garage", 4)];
        assert_eq!(
            run(&occurrences, &NamingPolicy::default()).as_deref(),
            Some("Garage")
        );
    }

    #[test]
    fn ties_break_deterministically() {
        let occurrences = vec![occ("Beta", 1), occ("Alpha", 1)];
        assert_eq!(
            run(&occurrences, &NamingPolicy::default()).as_deref(),
            Some("Alpha")
        );
    }
}
