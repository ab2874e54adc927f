//! Policy ablations (the design choices DESIGN.md calls out).
//!
//! * **Ablation A** — most-descriptive (the paper, §3.2.1) vs
//!   most-general (\[12\]'s strategy): how many field/internal labels
//!   change, and what happens to expressiveness.
//! * **Ablation B** — the consistency-level ladder of Definition 2:
//!   string-only, string+equality, full ladder; how many groups reach a
//!   consistent solution at each cap.
//! * **Ablation C** — instance rules (LI6/LI7) on vs off.

use qi_core::{ConsistencyClass, Labeler, NamingPolicy};
use qi_datasets::Domain;
use qi_lexicon::Lexicon;

/// Result of comparing two policies on one domain.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Domain name.
    pub domain: String,
    /// Short names of the two policies.
    pub left: String,
    /// Ditto.
    pub right: String,
    /// Fields whose final labels differ.
    pub differing_fields: usize,
    /// Internal nodes whose final labels differ.
    pub differing_internal: usize,
    /// Total labeled fields (for the ratio).
    pub total_fields: usize,
    /// Mean content-word count of field labels under the left policy.
    pub left_expressiveness: f64,
    /// Ditto, right policy.
    pub right_expressiveness: f64,
    /// Consistency classes under both policies.
    pub classes: (ConsistencyClass, ConsistencyClass),
}

/// Count of groups solved consistently under a policy.
#[derive(Debug, Clone)]
pub struct LadderPoint {
    /// Domain name.
    pub domain: String,
    /// Policy cap description.
    pub cap: String,
    /// Groups with a consistent solution.
    pub consistent_groups: usize,
    /// Total groups reported.
    pub total_groups: usize,
}

fn label_set(domain: &Domain, lexicon: &Lexicon, policy: NamingPolicy) -> LabeledRun {
    let prepared = domain.prepare();
    let labeler = Labeler::new(lexicon, policy);
    let labeled = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
    let fields: Vec<Option<String>> = labeled.tree.leaves().map(|l| l.label.clone()).collect();
    let internal: Vec<Option<String>> = labeled
        .tree
        .internal_nodes()
        .map(|n| n.label.clone())
        .collect();
    LabeledRun {
        fields,
        internal,
        class: labeled
            .report
            .class
            .unwrap_or(ConsistencyClass::Inconsistent),
        consistent_groups: labeled
            .report
            .groups
            .iter()
            .filter(|g| g.consistent)
            .count(),
        total_groups: labeled.report.groups.len(),
    }
}

struct LabeledRun {
    fields: Vec<Option<String>>,
    internal: Vec<Option<String>>,
    class: ConsistencyClass,
    consistent_groups: usize,
    total_groups: usize,
}

fn mean_expressiveness(labels: &[Option<String>], lexicon: &Lexicon) -> f64 {
    let mut sum = 0usize;
    let mut count = 0usize;
    for label in labels.iter().flatten() {
        sum += lexicon.label_text(label).expressiveness();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// Ablation A/C: compare two policies on one domain.
pub fn compare_policies(
    domain: &Domain,
    lexicon: &Lexicon,
    left: (&str, NamingPolicy),
    right: (&str, NamingPolicy),
) -> PolicyComparison {
    let l = label_set(domain, lexicon, left.1);
    let r = label_set(domain, lexicon, right.1);
    let differing_fields = l
        .fields
        .iter()
        .zip(&r.fields)
        .filter(|(a, b)| a != b)
        .count();
    let differing_internal = l
        .internal
        .iter()
        .zip(&r.internal)
        .filter(|(a, b)| a != b)
        .count();
    PolicyComparison {
        domain: domain.name.clone(),
        left: left.0.to_string(),
        right: right.0.to_string(),
        differing_fields,
        differing_internal,
        total_fields: l.fields.len(),
        left_expressiveness: mean_expressiveness(&l.fields, lexicon),
        right_expressiveness: mean_expressiveness(&r.fields, lexicon),
        classes: (l.class, r.class),
    }
}

/// The concrete label differences two policies produce on one domain —
/// a [`qi_schema::diff`] of the two labeled integrated trees.
pub fn policy_label_diff(
    domain: &Domain,
    lexicon: &Lexicon,
    left: NamingPolicy,
    right: NamingPolicy,
) -> Vec<qi_schema::diff::Difference> {
    let prepared = domain.prepare();
    let l = Labeler::new(lexicon, left).label(
        &prepared.schemas,
        &prepared.mapping,
        &prepared.integrated,
    );
    let r = Labeler::new(lexicon, right).label(
        &prepared.schemas,
        &prepared.mapping,
        &prepared.integrated,
    );
    qi_schema::diff::diff(&l.tree, &r.tree)
}

/// Ablation B: how far each consistency-level cap gets on one domain.
pub fn ladder_sweep(domain: &Domain, lexicon: &Lexicon) -> Vec<LadderPoint> {
    use qi_core::ConsistencyLevel;
    ConsistencyLevel::LADDER
        .iter()
        .map(|&cap| {
            let policy = NamingPolicy {
                max_level: cap,
                ..NamingPolicy::default()
            };
            let run = label_set(domain, lexicon, policy);
            LadderPoint {
                domain: domain.name.clone(),
                cap: cap.to_string(),
                consistent_groups: run.consistent_groups,
                total_groups: run.total_groups,
            }
        })
        .collect()
}

/// The four ablation reports (A, B, B′, C) over the builtin corpus, as
/// `qi eval ablation` prints them.
pub fn render_report(lexicon: &Lexicon) -> String {
    use std::fmt::Write;
    let domains = qi_datasets::all_domains();
    let mut out = String::new();
    let ladder = |out: &mut String, domain: &Domain| {
        for point in ladder_sweep(domain, lexicon) {
            let _ = writeln!(
                out,
                "{:<12} cap={:<9} consistent groups {:>2}/{:<2}",
                point.domain, point.cap, point.consistent_groups, point.total_groups
            );
        }
    };
    out.push_str("== Ablation A: most-descriptive (paper) vs most-general ([12]) ==\n");
    for domain in &domains {
        let cmp = compare_policies(
            domain,
            lexicon,
            ("descriptive", NamingPolicy::default()),
            ("general", NamingPolicy::most_general_baseline()),
        );
        let _ = writeln!(
            out,
            "{:<12} fields changed {:>2}/{:<2}  internal changed {:>2}  expressiveness {:.2} vs {:.2}  class {} vs {}",
            cmp.domain,
            cmp.differing_fields,
            cmp.total_fields,
            cmp.differing_internal,
            cmp.left_expressiveness,
            cmp.right_expressiveness,
            cmp.classes.0,
            cmp.classes.1
        );
    }
    out.push_str("\n   e.g. the exact Real Estate label changes:\n");
    if let Some(re) = domains.iter().find(|d| d.name == "Real Estate") {
        for difference in policy_label_diff(
            re,
            lexicon,
            NamingPolicy::default(),
            NamingPolicy::most_general_baseline(),
        ) {
            let _ = writeln!(out, "     {difference}");
        }
    }
    out.push_str("\n== Ablation B: consistency-level ladder (Definition 2) ==\n");
    for domain in &domains {
        ladder(&mut out, domain);
    }
    out.push_str("\n== Ablation B': the ladder on a purpose-built domain ==\n");
    out.push_str("   (3 equality-level groups + 3 synonymy-level groups;\n");
    out.push_str("    no group is solvable by plain string comparison)\n");
    ladder(&mut out, &qi_datasets::generate_ladder(3, 3));
    out.push_str("\n== Ablation C: instance rules (LI6/LI7) on vs off ==\n");
    let instances_off = NamingPolicy {
        use_instances: false,
        ..NamingPolicy::default()
    };
    for domain in &domains {
        let cmp = compare_policies(
            domain,
            lexicon,
            ("instances on", NamingPolicy::default()),
            ("instances off", instances_off),
        );
        let _ = writeln!(
            out,
            "{:<12} fields changed {:>2}/{:<2}  internal changed {:>2}",
            cmp.domain, cmp.differing_fields, cmp.total_fields, cmp.differing_internal
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptive_beats_general_on_expressiveness() {
        let lexicon = Lexicon::builtin();
        let domain = qi_datasets::auto::domain();
        let cmp = compare_policies(
            &domain,
            &lexicon,
            ("descriptive", NamingPolicy::default()),
            ("general", NamingPolicy::most_general_baseline()),
        );
        assert!(
            cmp.left_expressiveness >= cmp.right_expressiveness,
            "descriptive {} < general {}",
            cmp.left_expressiveness,
            cmp.right_expressiveness
        );
        assert!(cmp.total_fields > 0);
    }

    /// The purpose-built ladder domain climbs exactly one rung per level:
    /// nothing at string, the equality groups at equality, everything at
    /// synonymy.
    #[test]
    fn ladder_domain_climbs_by_level() {
        let lexicon = Lexicon::builtin();
        let domain = qi_datasets::generate_ladder(3, 3);
        let points = ladder_sweep(&domain, &lexicon);
        let consistent: Vec<usize> = points.iter().map(|p| p.consistent_groups).collect();
        assert_eq!(consistent, vec![0, 3, 6], "{points:?}");
    }

    #[test]
    fn policy_diff_lists_only_label_changes() {
        let lexicon = Lexicon::builtin();
        let domain = qi_datasets::real_estate::domain();
        let differences = policy_label_diff(
            &domain,
            &lexicon,
            NamingPolicy::default(),
            NamingPolicy::most_general_baseline(),
        );
        assert!(
            !differences.is_empty(),
            "policies should disagree somewhere"
        );
        // Policies change labels only — never the structure.
        for difference in &differences {
            assert!(
                matches!(difference, qi_schema::diff::Difference::Label { .. }),
                "unexpected structural difference: {difference}"
            );
        }
    }

    #[test]
    fn ladder_is_monotone() {
        let lexicon = Lexicon::builtin();
        for domain in [qi_datasets::airline::domain(), qi_datasets::job::domain()] {
            let points = ladder_sweep(&domain, &lexicon);
            assert_eq!(points.len(), 3);
            for pair in points.windows(2) {
                assert!(
                    pair[0].consistent_groups <= pair[1].consistent_groups,
                    "{}: {} then {}",
                    pair[0].domain,
                    pair[0].consistent_groups,
                    pair[1].consistent_groups
                );
            }
        }
    }
}
