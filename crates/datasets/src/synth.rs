//! Synthetic domain generator for scale benchmarks.
//!
//! Generates parameterized domains with the statistical properties the
//! naming algorithm is sensitive to: grouped concepts, label-variant
//! families that connect at the string / equality levels (shared variants
//! and word-order permutations), unlabeled fields, and partial coverage
//! per interface. Deterministic for a given seed.

use crate::domain::Domain;
use crate::spec::FieldSpec;
use qi_runtime::SplitMix64;
use qi_schema::{NodeId, SchemaTree};

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// RNG seed (same seed ⇒ same domain).
    pub seed: u64,
    /// Number of interfaces.
    pub interfaces: usize,
    /// Number of concepts (clusters).
    pub concepts: usize,
    /// Number of semantic groups the concepts are partitioned into.
    pub groups: usize,
    /// Probability an interface carries a given concept.
    pub coverage: f64,
    /// Probability a carried field is unlabeled.
    pub unlabeled_prob: f64,
    /// Probability a group node carries a label.
    pub group_label_prob: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 42,
            interfaces: 20,
            concepts: 24,
            groups: 6,
            coverage: 0.6,
            unlabeled_prob: 0.2,
            group_label_prob: 0.7,
        }
    }
}

/// A generated domain plus its configuration.
#[derive(Debug, Clone)]
pub struct SynthDomain {
    /// Generator parameters.
    pub config: SynthConfig,
    /// The generated domain (schemas + ground-truth mapping).
    pub domain: Domain,
}

impl SynthDomain {
    /// Generate a domain.
    pub fn generate(config: SynthConfig) -> SynthDomain {
        let mut rng = SplitMix64::new(config.seed);
        let nouns = [
            "city", "state", "price", "date", "name", "type", "size", "color", "year", "code",
            "rating", "count", "area", "level", "brand", "style",
        ];
        // Label variant families per concept: a base two-word label, its
        // word-order permutation (equality level) and a prefixed variant.
        let variants: Vec<[String; 3]> = (0..config.concepts)
            .map(|i| {
                let noun = nouns[i % nouns.len()];
                let idx = i / nouns.len();
                let qualifier = format!("item{idx}");
                [
                    format!("{qualifier} {noun}"),
                    format!("{noun} of {qualifier}"),
                    format!("preferred {qualifier} {noun}"),
                ]
            })
            .collect();
        // Partition concepts into groups round-robin.
        let group_of = |concept: usize| concept % config.groups.max(1);
        let mut names: Vec<String> = Vec::with_capacity(config.interfaces);
        let mut specs_per_iface: Vec<Vec<FieldSpec>> = Vec::with_capacity(config.interfaces);
        for iface in 0..config.interfaces {
            names.push(format!("synth{iface:03}"));
            let mut groups: Vec<Vec<FieldSpec>> = vec![Vec::new(); config.groups.max(1)];
            for concept in 0..config.concepts {
                let carried = rng.gen_bool(config.coverage)
                    // Guarantee coverage: the first interfaces carry
                    // everything labeled with the base variant.
                    || iface < 2;
                if !carried {
                    continue;
                }
                let concept_key = format!("c{concept}");
                let spec = if iface >= 2 && rng.gen_bool(config.unlabeled_prob) {
                    FieldSpec::Field {
                        concepts: vec![concept_key],
                        label: None,
                        instances: Vec::new(),
                    }
                } else {
                    let variant = if iface < 2 { 0 } else { rng.gen_range(3) };
                    FieldSpec::Field {
                        concepts: vec![concept_key],
                        label: Some(variants[concept][variant].clone()),
                        instances: Vec::new(),
                    }
                };
                groups[group_of(concept)].push(spec);
            }
            // Every interface carries at least one field (an empty search
            // form is not a query interface).
            if groups.iter().all(Vec::is_empty) {
                groups[0].push(FieldSpec::Field {
                    concepts: vec!["c0".to_string()],
                    label: Some(variants[0][0].clone()),
                    instances: Vec::new(),
                });
            }
            let mut specs: Vec<FieldSpec> = Vec::new();
            for (gi, members) in groups.into_iter().enumerate() {
                match members.len() {
                    0 => {}
                    1 => specs.extend(members),
                    _ => {
                        let label = if rng.gen_bool(config.group_label_prob) {
                            Some(format!("section {gi} options"))
                        } else {
                            None
                        };
                        specs.push(FieldSpec::Group {
                            label,
                            children: members,
                        });
                    }
                }
            }
            specs_per_iface.push(specs);
        }
        let interfaces: Vec<(&str, Vec<FieldSpec>)> = names
            .iter()
            .map(String::as_str)
            .zip(specs_per_iface)
            .collect();
        SynthDomain {
            domain: Domain::from_interfaces("Synthetic", interfaces),
            config,
        }
    }
}

/// Noun pairs that are synonyms in the builtin lexicon — the raw material
/// for synonymy-level label variants.
const SYNONYM_NOUNS: &[(&str, &str)] = &[
    ("city", "town"),
    ("state", "province"),
    ("price", "cost"),
    ("brand", "make"),
    ("area", "region"),
    ("author", "writer"),
];

/// Generate a *ladder domain*: every group requires a specific rung of
/// Definition 2's relaxation ladder.
///
/// Each group has three concepts. Interface `lad-a` labels columns
/// {0, 1} with `partN <noun>`; interface `lad-b` labels columns {1, 2}
/// with either the word-order permutation `<noun> of partN`
/// (connectable at the *equality* level) or the synonym-noun variant
/// `partN <synonym>` (connectable only at the *synonymy* level);
/// interface `lad-c` carries all three columns unlabeled, so the merge
/// forms one three-field group while the group relation stays sparse.
/// At the string level no partition covers a full group, so the ladder
/// sweep shows 0 → equality-groups → all.
pub fn generate_ladder(equality_groups: usize, synonymy_groups: usize) -> Domain {
    let total = equality_groups + synonymy_groups;
    assert!(total > 0, "need at least one group");
    assert!(
        total <= SYNONYM_NOUNS.len(),
        "at most {} groups supported",
        SYNONYM_NOUNS.len()
    );
    let mut iface_a: Vec<FieldSpec> = Vec::new();
    let mut iface_b: Vec<FieldSpec> = Vec::new();
    let mut iface_c: Vec<FieldSpec> = Vec::new();
    #[allow(clippy::needless_range_loop)] // `group` is also interpolated into names
    for group in 0..total {
        let (noun, synonym) = SYNONYM_NOUNS[group];
        let concept = |col: usize| format!("g{group}c{col}");
        let variant_a = |qual: &str| format!("part{group} {qual} {noun}");
        let variant_b = |qual: &str| format!("{noun} {qual} of part{group}");
        let variant_c = |qual: &str| format!("part{group} {qual} {synonym}");
        let quals = ["alpha", "beta", "gamma"];
        // lad-a: columns {0, 1}, variant A.
        iface_a.push(FieldSpec::Group {
            label: Some(format!("section {group}")),
            children: (0..2)
                .map(|col| FieldSpec::Field {
                    concepts: vec![concept(col)],
                    label: Some(variant_a(quals[col])),
                    instances: Vec::new(),
                })
                .collect(),
        });
        // lad-b: columns {1, 2}, variant B (equality) or C (synonymy).
        let use_synonym = group >= equality_groups;
        iface_b.push(FieldSpec::Group {
            label: Some(format!("section {group}")),
            children: (1..3)
                .map(|col| FieldSpec::Field {
                    concepts: vec![concept(col)],
                    label: Some(if use_synonym {
                        variant_c(quals[col])
                    } else {
                        variant_b(quals[col])
                    }),
                    instances: Vec::new(),
                })
                .collect(),
        });
        // lad-c: all three columns, unlabeled (group-shape evidence only).
        iface_c.push(FieldSpec::Group {
            label: None,
            children: (0..3)
                .map(|col| FieldSpec::Field {
                    concepts: vec![concept(col)],
                    label: None,
                    instances: Vec::new(),
                })
                .collect(),
        });
    }
    Domain::from_interfaces(
        "Ladder",
        vec![("lad-a", iface_a), ("lad-b", iface_b), ("lad-c", iface_c)],
    )
}

/// Replicate a schema corpus `k`× with per-replica vocabulary renaming,
/// for matcher scaling benchmarks.
///
/// Replica 0 is the input corpus verbatim. In every later replica `r`
/// the digits of `r` are appended to each maximal alphanumeric token
/// run of every label (`Departure City` → `Departure7 City7` for
/// replica 7) and `__r{r}` to the schema name. The tokenizer treats a
/// maximal alphanumeric run as one token, so each renamed token
/// carries a replica-specific stem and misses the lexicon entirely:
/// under the default **non-fuzzy** matcher no label of one replica can
/// match a label of another (string, word-set, stem and synonym tiers
/// all fail on the digit suffix), and every stem / synset posting list
/// stays confined to one replica. Candidate-generation work in an
/// indexed matcher therefore scales *linearly* in `k` while the raw
/// pair space a naive matcher scans scales *quadratically* — the
/// regime the `cluster_scaled` benchmark stages measure. (A fuzzy
/// matcher with a low similarity floor may still connect long renamed
/// twins like `departure1`/`departure2`; scaling runs use the default
/// configuration.)
///
/// Renaming rewrites stop words and lexicon lemmas too, so the
/// *internal* cluster structure of a renamed replica is not byte-for-
/// byte the base clustering — synonym- and stopword-dependent matches
/// dissolve. All renamed replicas are isomorphic to each other, and
/// no cluster ever spans two replicas.
///
/// **Cache note.** The renaming also means the corpus *vocabulary*
/// grows linearly in `k`: every replica's surfaces miss the
/// per-occurrence lexicon caches once each, so renamed replicas are a
/// matcher-*throughput* baseline, not a cache ceiling. The cache
/// ceiling the drift benchmarks compare against is built from
/// *verbatim* clones — what naive corpus scaling would actually
/// produce, where every surface repeats and per-occurrence lookups hit
/// on all but the first copy (see
/// `tests/drift.rs::verbatim_clones_are_the_cache_ceiling_drift_sits_below`). This split is deliberate: perturbing the
/// suffixes here to make replicas cache-friendly would break the
/// disjoint-vocabulary property the scaling stages rely on.
pub fn replicate_schemas(schemas: &[SchemaTree], k: usize) -> Vec<SchemaTree> {
    let mut out: Vec<SchemaTree> = Vec::with_capacity(schemas.len() * k);
    out.extend_from_slice(schemas);
    for r in 1..k {
        let suffix = r.to_string();
        for tree in schemas {
            let mut replica = SchemaTree::new(&format!("{}__r{r}", tree.name()));
            copy_renamed(tree, NodeId::ROOT, &mut replica, NodeId::ROOT, &suffix);
            out.push(replica);
        }
    }
    out
}

/// Recursively copy `src`'s subtree under `dst_parent`, renaming labels.
fn copy_renamed(
    src: &SchemaTree,
    src_id: NodeId,
    dst: &mut SchemaTree,
    dst_parent: NodeId,
    suffix: &str,
) {
    for &child in src.children(src_id) {
        let node = src.node(child);
        let label = node.label.as_deref().map(|l| rename_tokens(l, suffix));
        let dst_id = if node.is_leaf() {
            dst.add_leaf(dst_parent, label.as_deref())
        } else {
            dst.add_internal(dst_parent, label.as_deref())
        };
        copy_renamed(src, child, dst, dst_id, suffix);
    }
}

/// Append `suffix` to every maximal alphanumeric run in `label`.
fn rename_tokens(label: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(label.len() + suffix.len() * 4);
    let mut in_run = false;
    for ch in label.chars() {
        if in_run && !ch.is_ascii_alphanumeric() {
            out.push_str(suffix);
        }
        in_run = ch.is_ascii_alphanumeric();
        out.push(ch);
    }
    if in_run {
        out.push_str(suffix);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_tokens_suffixes_each_run() {
        assert_eq!(rename_tokens("Departure City", "7"), "Departure7 City7");
        assert_eq!(rename_tokens("Zip Code:", "12"), "Zip12 Code12:");
        assert_eq!(rename_tokens("", "3"), "");
    }

    #[test]
    fn replicated_corpus_clusters_independently() {
        let lex = qi_lexicon::Lexicon::builtin();
        let base = crate::airline::domain().schemas;
        let replicated = replicate_schemas(&base, 3);
        assert_eq!(replicated.len(), base.len() * 3);
        // Replica 0 is the base corpus verbatim.
        assert_eq!(&replicated[..base.len()], &base[..]);
        let base_map = qi_mapping::matcher::match_by_labels(&base, &lex);
        let rep_map = qi_mapping::matcher::match_by_labels(&replicated, &lex);
        // Renamed replicas are isomorphic to each other: the replicated
        // clustering is replica 0's verbatim clustering plus (k − 1)
        // independent copies of one renamed replica's clustering.
        let r1_map =
            qi_mapping::matcher::match_by_labels(&replicated[base.len()..2 * base.len()], &lex);
        assert_eq!(rep_map.len(), base_map.len() + 2 * r1_map.len());
        // Disjoint replica vocabularies: no cluster spans two replicas.
        for cluster in &rep_map.clusters {
            let replica = cluster.members[0].schema / base.len();
            assert!(
                cluster
                    .members
                    .iter()
                    .all(|m| m.schema / base.len() == replica),
                "cluster crosses replica boundary"
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SynthDomain::generate(SynthConfig::default());
        let b = SynthDomain::generate(SynthConfig::default());
        assert_eq!(a.domain.schemas, b.domain.schemas);
        assert_eq!(a.domain.mapping, b.domain.mapping);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthDomain::generate(SynthConfig::default());
        let b = SynthDomain::generate(SynthConfig {
            seed: 7,
            ..SynthConfig::default()
        });
        assert_ne!(a.domain.schemas, b.domain.schemas);
    }

    #[test]
    fn respects_counts_and_prepares() {
        let config = SynthConfig {
            interfaces: 10,
            concepts: 12,
            groups: 4,
            ..SynthConfig::default()
        };
        let synth = SynthDomain::generate(config);
        assert_eq!(synth.domain.schemas.len(), 10);
        assert_eq!(synth.domain.mapping.len(), 12);
        let prepared = synth.domain.prepare();
        prepared.mapping.validate(&prepared.schemas).unwrap();
        assert_eq!(prepared.integrated.tree.leaves().count(), 12);
    }

    #[test]
    fn ladder_domain_shape() {
        let domain = generate_ladder(2, 2);
        assert_eq!(domain.schemas.len(), 3);
        assert_eq!(domain.mapping.len(), 12); // 4 groups × 3 concepts
        let prepared = domain.prepare();
        let partition = prepared.integrated.partition();
        assert_eq!(partition.groups.len(), 4);
        for group in &partition.groups {
            assert_eq!(group.clusters.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn ladder_rejects_empty() {
        let _ = generate_ladder(0, 0);
    }

    #[test]
    fn every_concept_is_labeled_somewhere() {
        let synth = SynthDomain::generate(SynthConfig::default());
        for cluster in &synth.domain.mapping.clusters {
            let labeled = cluster
                .members
                .iter()
                .any(|m| synth.domain.schemas[m.schema].node(m.node).label.is_some());
            assert!(labeled, "{} never labeled", cluster.concept);
        }
    }
}
