//! Candidate labels for internal nodes (§5, logical inferences LI1–LI5).
//!
//! For a global internal node with descendant-cluster set `X`, every
//! *labeled* internal node of a source schema whose descendant clusters
//! (its *bag*) fall inside `X` contributes a *potential label*. Candidates
//! are derived from potentials by:
//!
//! * **LI2** — the bags of all source nodes carrying (an equal form of)
//!   the label union to exactly `X` (Figure 8, left: `Location`);
//! * **LI3/LI4** — a label absorbs the coverage of labels it is a hypernym
//!   of; hierarchy roots whose propagated coverage reaches `X` are
//!   candidates (Figure 8, middle: `Do you have any preferences?`);
//! * **LI5** — the uncovered remainder `Z` is *characterized by* a subset
//!   `W` of the covered fields (instances of `Z` ⊆ instances of `W`, or a
//!   source node over `W ∪ Z` whose label's content words come from `W`'s
//!   field labels), so the label's meaning extends over `Z` (Figure 8,
//!   right: `Car Information` covering `Keywords`);
//! * **LI1** — reconciles structural generality with lexical hypernymy:
//!   labels of nodes with nested bags where the *smaller* node's label is
//!   the lexical hypernym are semantically equivalent in the domain
//!   (`Location` ≡ `Property Location`).

use crate::ctx::NamingCtx;
use crate::instances::instances_subset;
use crate::relations::LabelRelation;
use crate::report::{InferenceRule, LiUsage};
use qi_mapping::ClusterId;
use qi_runtime::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A potential label: one labeled source internal node whose bag is
/// contained in the global node's descendant clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PotentialLabel {
    /// The source node's interned label.
    pub label: Symbol,
    /// Source schema index.
    pub schema: usize,
    /// Clusters covered by the source node's descendant fields.
    pub bag: BTreeSet<ClusterId>,
}

/// A candidate label for a global internal node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateLabel {
    /// The elected raw form of the label (a lease on the naming context's
    /// interner arena — cloning is a reference-count bump).
    pub label: Arc<str>,
    /// Schemas whose internal nodes supplied (an equal form of) it.
    pub schemas: BTreeSet<usize>,
    /// The inference rule that established full coverage.
    pub rule: InferenceRule,
    /// Content-word count (most-descriptive election).
    pub expressiveness: usize,
    /// How many source internal nodes carry the label.
    pub frequency: usize,
    /// Clusters directly covered by the label's source nodes (before
    /// LI3–LI5 extension) — the structural evidence for Definition 5
    /// generality comparisons.
    pub coverage: BTreeSet<ClusterId>,
}

/// Per-cluster side information needed by LI5.
#[derive(Debug, Clone, Default)]
pub struct ClusterInfo {
    /// Union of instance domains of the cluster's fields.
    pub instances: Vec<String>,
    /// Interned labels of the cluster's fields (across schemas).
    pub field_labels: Vec<Symbol>,
}

/// Equivalence class of equal potential labels. Variants are interned
/// symbols, so membership tests inside the class are integer compares.
struct LabelClass {
    /// Interned label variants with occurrence counts; `variants[0]` is
    /// the representative (most frequent, then lexicographically first —
    /// ties broken on spelling, not symbol order, so results do not
    /// depend on interning order).
    variants: Vec<(Symbol, usize)>,
    schemas: BTreeSet<usize>,
    direct: BTreeSet<ClusterId>,
    coverage: BTreeSet<ClusterId>,
    absorbed: usize,
}

impl LabelClass {
    fn representative(&self) -> Symbol {
        self.variants[0].0
    }

    fn frequency(&self) -> usize {
        self.variants.iter().map(|(_, n)| n).sum()
    }
}

/// Derive the candidate labels for a global internal node.
///
/// * `x` — the node's descendant-cluster set;
/// * `potentials` — labeled source internal nodes with `bag ⊆ x` (callers
///   pre-filter; entries with empty bags or labels are ignored);
/// * `info` — per-cluster instances and field labels (LI5);
/// * `usage` — LI counters (Figure 10), incremented per candidate
///   produced.
///
/// Returns the candidates and, parallel to them, their interned labels
/// (the naming memo's own ids, which phase 3 compares as integers and
/// which never leave the run).
pub fn find_candidates(
    x: &BTreeSet<ClusterId>,
    potentials: &[PotentialLabel],
    info: &BTreeMap<ClusterId, ClusterInfo>,
    ctx: &NamingCtx<'_>,
    usage: &mut LiUsage,
) -> (Vec<CandidateLabel>, Vec<Symbol>) {
    let mut classes: Vec<LabelClass> = Vec::new();
    for potential in potentials {
        if potential.bag.is_empty()
            || !potential.bag.is_subset(x)
            || ctx.text_sym(potential.label).is_empty()
        {
            continue;
        }
        let psym = potential.label;
        match classes
            .iter_mut()
            .find(|c| ctx.equal_sym(c.representative(), psym))
        {
            Some(class) => {
                class.schemas.insert(potential.schema);
                class.direct.extend(potential.bag.iter().copied());
                match class.variants.iter_mut().find(|(v, _)| *v == psym) {
                    Some((_, n)) => *n += 1,
                    None => class.variants.push((psym, 1)),
                }
            }
            None => classes.push(LabelClass {
                variants: vec![(psym, 1)],
                schemas: BTreeSet::from([potential.schema]),
                direct: potential.bag.clone(),
                coverage: potential.bag.clone(),
                absorbed: 0,
            }),
        }
    }
    for class in &mut classes {
        class.variants.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(ctx.spelling(a.0).cmp(&ctx.spelling(b.0)))
        });
        class.coverage = class.direct.clone();
    }
    // LI3/LI4 fixpoint: a class absorbs the coverage of classes its
    // representative is a hypernym of.
    loop {
        let mut changed = false;
        for i in 0..classes.len() {
            for j in 0..classes.len() {
                if i == j {
                    continue;
                }
                let (rep_i, rep_j) = (classes[i].representative(), classes[j].representative());
                if !ctx.hypernym_sym(rep_i, rep_j) {
                    continue;
                }
                let addition: Vec<ClusterId> = classes[j]
                    .coverage
                    .difference(&classes[i].coverage)
                    .copied()
                    .collect();
                if !addition.is_empty() {
                    classes[i].coverage.extend(addition);
                    classes[i].absorbed += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut candidates: Vec<(CandidateLabel, Symbol)> = Vec::new();
    for class in &classes {
        let rule = if &class.direct == x {
            Some(InferenceRule::Li2)
        } else if &class.coverage == x {
            Some(if class.absorbed <= 1 {
                InferenceRule::Li3
            } else {
                InferenceRule::Li4
            })
        } else if li5_extends(x, &class.coverage, potentials, info, ctx) {
            Some(InferenceRule::Li5)
        } else {
            None
        };
        if let Some(rule) = rule {
            usage.record(rule);
            let rep = class.representative();
            let candidate = CandidateLabel {
                label: ctx.spelling(rep),
                schemas: class.schemas.clone(),
                rule,
                expressiveness: ctx.expressiveness_sym(rep),
                frequency: class.frequency(),
                coverage: class.direct.clone(),
            };
            candidates.push((candidate, rep));
        }
    }
    // LI1: collapse candidates that are semantically equivalent in the
    // domain (nested coverage + reverse lexical hypernymy). Keep the
    // more descriptive form.
    collapse_equivalent(&mut candidates, &classes, ctx, usage);
    candidates.sort_by(|(a, _), (b, _)| {
        b.expressiveness
            .cmp(&a.expressiveness)
            .then(b.frequency.cmp(&a.frequency))
            .then(a.label.cmp(&b.label))
    });
    candidates.into_iter().unzip()
}

/// LI5: is `X − coverage` characterized by the covered fields?
fn li5_extends(
    x: &BTreeSet<ClusterId>,
    coverage: &BTreeSet<ClusterId>,
    potentials: &[PotentialLabel],
    info: &BTreeMap<ClusterId, ClusterInfo>,
    ctx: &NamingCtx<'_>,
) -> bool {
    if coverage.is_empty() || coverage == x || !coverage.is_subset(x) {
        return false;
    }
    let z: BTreeSet<ClusterId> = x.difference(coverage).copied().collect();
    // Condition 1: instances of Z ⊆ instances of the covered fields.
    let z_instances: Vec<String> = z
        .iter()
        .flat_map(|c| info.get(c).map(|i| i.instances.clone()).unwrap_or_default())
        .collect();
    let y_instances: Vec<String> = coverage
        .iter()
        .flat_map(|c| info.get(c).map(|i| i.instances.clone()).unwrap_or_default())
        .collect();
    let all_z_have_instances = !z.is_empty()
        && z.iter().all(|c| {
            info.get(c)
                .map(|i| !i.instances.is_empty())
                .unwrap_or(false)
        });
    if all_z_have_instances && instances_subset(&z_instances, &y_instances) {
        return true;
    }
    // Condition 2: some source node spans W ∪ Z (W ⊆ coverage, W ≠ ∅) and
    // its label's content words all come from W's field labels.
    for potential in potentials {
        if !potential.bag.is_subset(x) || !potential.bag.is_superset(&z) {
            continue;
        }
        let w: BTreeSet<ClusterId> = potential.bag.difference(&z).copied().collect();
        if w.is_empty() || !w.is_subset(coverage) {
            continue;
        }
        let mut w_words: BTreeSet<Arc<str>> = BTreeSet::new();
        for cluster in &w {
            if let Some(ci) = info.get(cluster) {
                for &label in &ci.field_labels {
                    for word in &ctx.text_sym(label).words {
                        w_words.insert(word.stem.clone());
                    }
                }
            }
        }
        let label_words = ctx.text_sym(potential.label);
        if !label_words.words.is_empty()
            && label_words.words.iter().all(|w| w_words.contains(&w.stem))
        {
            return true;
        }
    }
    false
}

/// LI1 collapse: if candidate `a`'s class coverage is contained in `b`'s
/// and `a`'s label is a lexical hypernym of `b`'s, the two labels are
/// semantically equivalent in the domain — keep one.
fn collapse_equivalent(
    candidates: &mut Vec<(CandidateLabel, Symbol)>,
    classes: &[LabelClass],
    ctx: &NamingCtx<'_>,
    usage: &mut LiUsage,
) {
    let coverage_of = |sym: Symbol| -> Option<&BTreeSet<ClusterId>> {
        classes
            .iter()
            .find(|c| c.representative() == sym)
            .map(|c| &c.coverage)
    };
    let mut removed: BTreeSet<usize> = BTreeSet::new();
    for i in 0..candidates.len() {
        for j in 0..candidates.len() {
            if i == j || removed.contains(&i) || removed.contains(&j) {
                continue;
            }
            let ((a, a_sym), (b, b_sym)) = (&candidates[i], &candidates[j]);
            let (Some(cov_a), Some(cov_b)) = (coverage_of(*a_sym), coverage_of(*b_sym)) else {
                continue;
            };
            // a's bag ⊆ b's bag and a's label lexically ⊒ b's label ⇒
            // equivalent (LI1). Prefer the more descriptive label.
            if cov_a.is_subset(cov_b) && ctx.hypernym_sym(*a_sym, *b_sym) {
                usage.record(InferenceRule::Li1);
                let drop = if a.expressiveness >= b.expressiveness {
                    j
                } else {
                    i
                };
                removed.insert(drop);
            }
        }
    }
    let mut index = 0usize;
    candidates.retain(|_| {
        let keep = !removed.contains(&index);
        index += 1;
        keep
    });
}

/// Definition 5: label `la` (of a node covering `bag_a`) is *semantically
/// at least as general as* `lb` (covering `bag_b`) — lexically (equal,
/// synonym or hypernym), or because `bag_b ⊆ bag_a`.
pub fn at_least_as_general(
    la: Symbol,
    bag_a: &BTreeSet<ClusterId>,
    lb: Symbol,
    bag_b: &BTreeSet<ClusterId>,
    ctx: &NamingCtx<'_>,
) -> bool {
    matches!(
        ctx.relate_sym(la, lb),
        LabelRelation::StringEqual
            | LabelRelation::Equal
            | LabelRelation::Synonym
            | LabelRelation::Hypernym
    ) || bag_b.is_subset(bag_a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_lexicon::Lexicon;

    fn set(ids: &[u32]) -> BTreeSet<ClusterId> {
        ids.iter().map(|&i| ClusterId(i)).collect()
    }

    fn pot(label: &'static str, schema: usize, bag: &[u32]) -> (&'static str, usize, Vec<u32>) {
        (label, schema, bag.to_vec())
    }

    /// Candidates for `x`; potentials and field labels are interned
    /// against a fresh context.
    fn run(
        x: &BTreeSet<ClusterId>,
        potentials: &[(&str, usize, Vec<u32>)],
        field_info: &[(u32, &[&str], &[&str])],
    ) -> (Vec<CandidateLabel>, LiUsage) {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let potentials: Vec<PotentialLabel> = potentials
            .iter()
            .map(|(label, schema, bag)| PotentialLabel {
                label: ctx.sym(label),
                schema: *schema,
                bag: set(bag),
            })
            .collect();
        let info: BTreeMap<ClusterId, ClusterInfo> = field_info
            .iter()
            .map(|&(cluster, instances, labels)| {
                let info = ClusterInfo {
                    instances: instances.iter().map(|s| s.to_string()).collect(),
                    field_labels: labels.iter().map(|l| ctx.sym(l)).collect(),
                };
                (ClusterId(cluster), info)
            })
            .collect();
        let mut usage = LiUsage::default();
        let (candidates, _) = find_candidates(x, &potentials, &info, &ctx, &mut usage);
        (candidates, usage)
    }

    /// Figure 8 (left): the same label `Location` on several sources
    /// unions to the full leaf set — LI2.
    #[test]
    fn li2_overlapping_coverage() {
        // X = {State, City, Zip} = {0,1,2}.
        let x = set(&[0, 1, 2]);
        let potentials = vec![
            pot("Location", 0, &[0, 1]),
            pot("Location", 1, &[1, 2]),
            pot("Address", 2, &[0]),
        ];
        let (candidates, usage) = run(&x, &potentials, &[]);
        let location = candidates.iter().find(|c| &*c.label == "Location").unwrap();
        assert_eq!(location.rule, InferenceRule::Li2);
        assert_eq!(location.schemas, BTreeSet::from([0, 1]));
        assert_eq!(usage.count(InferenceRule::Li2), 1);
        // Address covers only {0} and cannot be extended — no candidate.
        assert!(candidates.iter().all(|c| &*c.label != "Address"));
    }

    /// Figure 8 (middle): "Do you have any preferences?" is a hypernym of
    /// both specific preference labels; its propagated coverage reaches X
    /// — LI3/LI4.
    #[test]
    fn li3_li4_hypernym_hierarchy() {
        let x = set(&[0, 1]);
        let potentials = vec![
            pot("Do you have any preferences?", 0, &[0]),
            pot("Airline Preferences", 1, &[0]),
            pot("What are your service preferences?", 2, &[1]),
        ];
        let (candidates, usage) = run(&x, &potentials, &[]);
        let general = candidates
            .iter()
            .find(|c| &*c.label == "Do you have any preferences?")
            .expect("hierarchy root must be a candidate");
        assert!(matches!(
            general.rule,
            InferenceRule::Li3 | InferenceRule::Li4
        ));
        assert!(usage.count(InferenceRule::Li3) + usage.count(InferenceRule::Li4) >= 1);
    }

    /// Figure 8 (right) / LI5 condition 2: `Car Information` covers
    /// {Make, Model, From, To}; `Keywords` is characterized by
    /// {Make, Model} via a source node labeled "Make/Model" spanning
    /// {Make, Model, Keywords}.
    #[test]
    fn li5_extend_label_meaning() {
        // Clusters: 0=Make, 1=Model, 2=From, 3=To, 4=Keywords.
        let x = set(&[0, 1, 2, 3, 4]);
        let info: [(u32, &[&str], &[&str]); 2] = [(0, &[], &["Make"]), (1, &[], &["Model"])];
        let potentials = vec![
            pot("Car Information", 0, &[0, 1, 2, 3]),
            pot("Make/Model", 1, &[0, 1, 4]),
        ];
        let (candidates, usage) = run(&x, &potentials, &info);
        let car_info = candidates
            .iter()
            .find(|c| &*c.label == "Car Information")
            .expect("LI5 must extend Car Information over Keywords");
        assert_eq!(car_info.rule, InferenceRule::Li5);
        assert_eq!(usage.count(InferenceRule::Li5), 1);
    }

    /// LI5 condition 1: Z's instances are a subset of the covered fields'
    /// instances.
    #[test]
    fn li5_instance_subset() {
        let x = set(&[0, 1]);
        let info: [(u32, &[&str], &[&str]); 2] = [
            (0, &["red", "blue", "green"], &["Color"]),
            (1, &["red", "blue"], &["Shade"]),
        ];
        let potentials = vec![pot("Appearance", 0, &[0])];
        let (candidates, usage) = run(&x, &potentials, &info);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].rule, InferenceRule::Li5);
        assert_eq!(usage.count(InferenceRule::Li5), 1);
    }

    /// LI1: Location (small bag, lexical hypernym) and Property Location
    /// (larger bag) are semantically equivalent; the more descriptive
    /// label survives.
    #[test]
    fn li1_collapses_equivalent_candidates() {
        let x = set(&[0, 1, 2]);
        let potentials = vec![
            pot("Location", 0, &[0, 1]),
            pot("Location", 1, &[2]),
            pot("Property Location", 2, &[0, 1, 2]),
        ];
        let (candidates, usage) = run(&x, &potentials, &[]);
        assert_eq!(usage.count(InferenceRule::Li1), 1);
        assert_eq!(candidates.len(), 1);
        assert_eq!(&*candidates[0].label, "Property Location");
    }

    #[test]
    fn equal_label_variants_are_one_class() {
        let x = set(&[0, 1]);
        let potentials = vec![pot("Job Type", 0, &[0]), pot("Type of Job", 1, &[1])];
        let (candidates, _) = run(&x, &potentials, &[]);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].rule, InferenceRule::Li2);
        assert_eq!(candidates[0].frequency, 2);
    }

    #[test]
    fn no_potentials_no_candidates() {
        let x = set(&[0, 1]);
        let (candidates, usage) = run(&x, &[], &[]);
        assert!(candidates.is_empty());
        assert_eq!(usage.total(), 0);
    }

    #[test]
    fn bag_outside_x_is_ignored() {
        let x = set(&[0]);
        let potentials = vec![pot("Wide", 0, &[0, 7])];
        let (candidates, _) = run(&x, &potentials, &[]);
        assert!(candidates.is_empty());
    }

    #[test]
    fn generality_definition5() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let general = |la: &str, bag_a: &[u32], lb: &str, bag_b: &[u32]| {
            at_least_as_general(ctx.sym(la), &set(bag_a), ctx.sym(lb), &set(bag_b), &ctx)
        };
        // Lexical: Location ⊒ Property Location, Class ⊒ Flight Class,
        // and a label is as general as itself.
        assert!(general("Location", &[0], "Property Location", &[1, 2]));
        assert!(general("Class", &[0], "Flight Class", &[1]));
        assert!(general("Location", &[0], "Location", &[1]));
        assert!(!general("Flight Class", &[0], "Class", &[1]));
        // Structural: unrelated labels, but bag containment.
        assert!(general("Search", &[0, 1, 2], "Make", &[1]));
        assert!(!general("Make", &[1], "Search Area", &[0, 2]));
    }
}
