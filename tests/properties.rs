//! Randomized property tests over the core data structures and
//! invariants: the text pipeline, Definition 1 relations, the memoizing
//! naming context, histogram quantiles, the merge substrate and the
//! naming algorithm on randomly generated domains.
//!
//! Dependency-free, in the style of `tests/matcher_props.rs`: every
//! property is a plain `#[test]` looping over cases, and case `c` of a
//! property with base seed `B` draws its inputs from
//! `SplitMix64::new(B ^ c)`, so a failure message's case number is
//! enough to replay it. Inputs that once broke an invariant are kept as
//! literals in [`REGRESSIONS`] and replayed before the random cases.

use qi::{Lexicon, NamingPolicy};
use qi_core::{ctx::NamingCtx, relations::relate, Labeler};
use qi_datasets::{SynthConfig, SynthDomain};
use qi_runtime::SplitMix64;
use qi_schema::NodeId;
use qi_text::{display_normalize, stem, tokenize, LabelText};

/// Cases per text, relation, context and histogram property.
const CASES: u64 = 256;

/// Random synthetic domains per merge and naming property (each also
/// replays [`REGRESSIONS`] first).
const SYNTH_CASES: u64 = 24;

/// Synthetic domain configurations that once broke an invariant; every
/// synthetic-domain property runs them before its random cases.
const REGRESSIONS: &[SynthConfig] = &[SynthConfig {
    seed: 4788076064470418072,
    interfaces: 3,
    concepts: 4,
    groups: 1,
    coverage: 0.3,
    unlabeled_prob: 0.0,
    group_label_prob: 0.7,
}];

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const LETTERS_AND_SPACE: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz ";

/// Multi-byte, combining, non-breaking and control characters that
/// [`arbitrary_string`] mixes into its printable ASCII.
const HOSTILE_CHARS: &[char] = &[
    'é', 'ß', 'Ω', '中', 'क', '🚀', '\u{0301}', '\u{00a0}', '\u{2028}', '\t', '\u{7}', '\u{1b}',
];

/// One explicitly seeded generator per case: `(case, SplitMix64::new(base ^ case))`.
fn cases(base: u64, count: u64) -> impl Iterator<Item = (u64, SplitMix64)> {
    (0..count).map(move |case| (case, SplitMix64::new(base ^ case)))
}

/// `min..=max` characters drawn uniformly from `class` — the regex
/// `[class]{min,max}`.
fn class_string(rng: &mut SplitMix64, class: &str, min: usize, max: usize) -> String {
    let class: Vec<char> = class.chars().collect();
    let len = min + rng.gen_range(max - min + 1);
    (0..len)
        .map(|_| class[rng.gen_range(class.len())])
        .collect()
}

/// Up to `max` arbitrary characters — the regex `.{0,max}`: printable
/// ASCII, with about one character in five taken from [`HOSTILE_CHARS`].
fn arbitrary_string(rng: &mut SplitMix64, max: usize) -> String {
    let len = rng.gen_range(max + 1);
    (0..len)
        .map(|_| {
            if rng.gen_range(5) == 0 {
                HOSTILE_CHARS[rng.gen_range(HOSTILE_CHARS.len())]
            } else {
                char::from(b' ' + rng.gen_range(95) as u8)
            }
        })
        .collect()
}

/// [`REGRESSIONS`], then [`SYNTH_CASES`] small random configurations.
fn synth_configs(base: u64) -> Vec<SynthConfig> {
    let random = cases(base, SYNTH_CASES).map(|(_, mut rng)| SynthConfig {
        seed: rng.next_u64(),
        interfaces: 3 + rng.gen_range(7),
        concepts: 4 + rng.gen_range(12),
        groups: 1 + rng.gen_range(4),
        coverage: 0.3 + 0.6 * rng.next_f64(),
        unlabeled_prob: 0.4 * rng.next_f64(),
        group_label_prob: 0.7,
    });
    REGRESSIONS.iter().cloned().chain(random).collect()
}

/// The arbitrary-string generator really produces every hostile
/// character, so the "arbitrary input" properties below keep seeing
/// non-ASCII text.
#[test]
fn arbitrary_strings_include_hostile_characters() {
    let drawn: String = cases(0x0100_0000_0000, CASES)
        .map(|(_, mut rng)| arbitrary_string(&mut rng, 24))
        .collect();
    assert!(!drawn.is_ascii(), "arbitrary strings are all ASCII");
    for hostile in HOSTILE_CHARS {
        assert!(drawn.contains(*hostile), "{hostile:?} never drawn");
    }
}

/// The stemmer never panics, never grows a word, and is deterministic
/// on arbitrary (including non-ASCII) input.
#[test]
fn porter_stem_total_and_shrinking() {
    for (case, mut rng) in cases(0x0200_0000_0000, CASES) {
        let word = arbitrary_string(&mut rng, 24);
        let once = stem(&word);
        assert!(
            once.len() <= word.len().max(2) + 1,
            "case {case}: {word:?} grew to {once:?}"
        );
        assert_eq!(stem(&word), once, "case {case}: {word:?}");
    }
}

/// Lowercase ASCII words stem to lowercase ASCII.
#[test]
fn porter_stem_preserves_ascii() {
    for (case, mut rng) in cases(0x0300_0000_0000, CASES) {
        let word = class_string(&mut rng, LOWER, 1, 16);
        let stemmed = stem(&word);
        assert!(
            stemmed.bytes().all(|b| b.is_ascii_lowercase()),
            "case {case}: {word:?} stemmed to {stemmed:?}"
        );
        assert!(
            !stemmed.is_empty(),
            "case {case}: {word:?} stemmed to nothing"
        );
    }
}

/// Tokenization yields lowercase alphanumeric tokens only, and display
/// normalization is idempotent.
#[test]
fn tokenize_and_normalize_shape() {
    for (case, mut rng) in cases(0x0400_0000_0000, CASES) {
        let label = arbitrary_string(&mut rng, 48);
        for token in tokenize(&label) {
            assert!(!token.is_empty(), "case {case}: {label:?}");
            assert!(
                token.chars().all(|c| c.is_ascii_alphanumeric()),
                "case {case}: {label:?} gave token {token:?}"
            );
            assert!(
                !token.chars().any(|c| c.is_ascii_uppercase()),
                "case {case}: {label:?} gave token {token:?}"
            );
        }
        let display = display_normalize(&label);
        assert_eq!(
            display_normalize(&display),
            display,
            "case {case}: {label:?}"
        );
    }
}

/// The lexicon's label-text memo is `LabelText::new`: on every label of
/// the seven builtin domains, on seeded drift labels and on arbitrary
/// (hostile) strings, looked up cold and again warm, on one lexicon
/// whose memo overflows along the way.
#[test]
fn label_text_memo_matches_direct_normalization() {
    let lexicon = Lexicon::builtin();
    let drift = qi_datasets::generate_drift_corpus(
        &qi_datasets::DriftConfig {
            domains: 4,
            interfaces: 10,
            ..qi_datasets::DriftConfig::default()
        },
        &lexicon,
    );
    let mut labels: Vec<String> = qi_datasets::all_domains()
        .iter()
        .chain(&drift)
        .flat_map(|d| &d.schemas)
        .flat_map(|s| s.nodes().filter_map(|n| n.label.clone()))
        .collect();
    for (_, mut rng) in cases(0x0480_0000_0000, CASES) {
        labels.push(arbitrary_string(&mut rng, 40));
    }
    assert!(
        labels.len() > qi_lexicon::LABEL_TEXT_CAP,
        "the memo must overflow"
    );
    for pass in ["cold", "warm"] {
        for raw in &labels {
            let memo = lexicon.label_text(raw);
            assert_eq!(*memo, LabelText::new(raw, &lexicon), "{pass}: {raw:?}");
        }
    }
}

/// Definition 1 relations are antisymmetric under flip: computing in the
/// opposite order yields the flipped relation.
#[test]
fn relations_flip_symmetry() {
    let lexicon = Lexicon::builtin();
    for (case, mut rng) in cases(0x0500_0000_0000, CASES) {
        let a = class_string(&mut rng, LETTERS_AND_SPACE, 1, 20);
        let b = class_string(&mut rng, LETTERS_AND_SPACE, 1, 20);
        let ta = LabelText::new(&a, &lexicon);
        let tb = LabelText::new(&b, &lexicon);
        let ab = relate(&ta, &tb, &lexicon);
        let ba = relate(&tb, &ta, &lexicon);
        assert_eq!(ab.flip(), ba, "case {case}: {a:?} vs {b:?}");
    }
}

/// A label always relates to itself at the string-equal level (unless
/// empty).
#[test]
fn relations_reflexive() {
    let lexicon = Lexicon::builtin();
    for (case, mut rng) in cases(0x0600_0000_0000, CASES) {
        let a = class_string(&mut rng, LETTERS_AND_SPACE, 1, 20);
        let ta = LabelText::new(&a, &lexicon);
        let expected = if ta.is_empty() {
            qi_core::LabelRelation::Unrelated
        } else {
            qi_core::LabelRelation::StringEqual
        };
        assert_eq!(relate(&ta, &ta, &lexicon), expected, "case {case}: {a:?}");
    }
}

/// The memoizing context agrees with the direct computation.
#[test]
fn ctx_matches_direct() {
    let lexicon = Lexicon::builtin();
    for (case, mut rng) in cases(0x0700_0000_0000, CASES) {
        let a = class_string(&mut rng, LETTERS_AND_SPACE, 1, 16);
        let b = class_string(&mut rng, LETTERS_AND_SPACE, 1, 16);
        let ctx = NamingCtx::new(&lexicon);
        let direct = relate(
            &LabelText::new(&a, &lexicon),
            &LabelText::new(&b, &lexicon),
            &lexicon,
        );
        assert_eq!(ctx.relate(&a, &b), direct, "case {case}: {a:?} vs {b:?}");
        assert_eq!(
            ctx.relate(&a, &b),
            direct,
            "case {case}: cached {a:?} vs {b:?}"
        );
    }
}

/// Histogram quantiles against a sorted-vector oracle on random u64
/// samples: the estimate is always ≥ the true order statistic, and both
/// fall in the same log-linear bucket (bounded relative error).
#[test]
fn histogram_quantiles_match_sorted_oracle() {
    use qi_runtime::histogram::{bucket_index, bucket_upper};

    for (case, mut rng) in cases(0x0800_0000_0000, CASES) {
        let len = 1 + rng.gen_range(63);
        let q = rng.next_f64();
        // Mix magnitudes: tiny values, mid-range, and full-width u64s,
        // so both the linear low buckets and log high buckets are hit.
        let samples: Vec<u64> = (0..len)
            .map(|_| {
                let raw = rng.next_u64();
                match raw % 3 {
                    0 => raw % 1000,
                    1 => raw % 1_000_000_000,
                    _ => raw,
                }
            })
            .collect();

        let hist = qi_runtime::Histogram::new();
        for &value in &samples {
            hist.record(value);
        }
        let data = hist.data();

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(data.count(), len as u64, "case {case}: count");
        assert_eq!(data.max, *sorted.last().unwrap(), "case {case}: max");
        let sum: u64 = samples.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        assert_eq!(data.sum, sum, "case {case}: sum");

        // The oracle order statistic: the same "smallest value with
        // rank ≥ ceil(q·count)" definition the histogram implements,
        // evaluated exactly on the sorted samples.
        let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
        let truth = sorted[rank - 1];
        let estimate = data.quantile(q);
        assert!(
            estimate >= truth,
            "case {case}: q={q} estimate {estimate} < true order statistic {truth}"
        );
        assert_eq!(
            estimate,
            bucket_upper(bucket_index(truth)).min(data.max),
            "case {case}: estimate must be the truth's own bucket upper bound (clamped to max)"
        );

        // Merging two disjoint halves reproduces the whole.
        let left = qi_runtime::Histogram::new();
        let right = qi_runtime::Histogram::new();
        for (i, &value) in samples.iter().enumerate() {
            if i % 2 == 0 {
                left.record(value)
            } else {
                right.record(value)
            }
        }
        left.absorb(&right.data());
        assert_eq!(
            left.data(),
            data,
            "case {case}: absorb of a split must equal the whole"
        );
    }
}

/// Merge invariants on random domains: every cluster appears as exactly
/// one integrated leaf, the tree validates, and the partition classes
/// cover the clusters disjointly.
#[test]
fn merge_invariants() {
    for config in synth_configs(0x0900_0000_0000) {
        let synth = SynthDomain::generate(config.clone());
        let prepared = synth.domain.prepare();
        prepared.mapping.validate(&prepared.schemas).unwrap();
        prepared.integrated.tree.validate().unwrap();
        let leaves = prepared.integrated.tree.leaves().count();
        assert_eq!(leaves, prepared.mapping.len(), "{config:?}");
        // Each cluster maps to exactly one leaf.
        for cluster in &prepared.mapping.clusters {
            assert!(
                prepared.integrated.leaf_of_cluster(cluster.id).is_some(),
                "{config:?}: cluster {:?} has no leaf",
                cluster.id
            );
        }
        // Partition classes are disjoint and complete.
        let partition = prepared.integrated.partition();
        let grouped: usize = partition.groups.iter().map(|g| g.clusters.len()).sum();
        assert_eq!(
            grouped + partition.root.len() + partition.isolated.len(),
            prepared.mapping.len(),
            "{config:?}"
        );
    }
}

/// The merge never loses leaves and never duplicates them: walking the
/// integrated tree meets every cluster at most once.
#[test]
fn merge_preserves_leaf_multiplicity() {
    for config in synth_configs(0x0a00_0000_0000) {
        let synth = SynthDomain::generate(config.clone());
        let prepared = synth.domain.prepare();
        let mut seen = std::collections::BTreeSet::new();
        for leaf in prepared.integrated.tree.descendant_leaves(NodeId::ROOT) {
            let cluster = prepared.integrated.cluster_of_leaf(leaf).unwrap();
            assert!(seen.insert(cluster), "{config:?}: cluster duplicated");
        }
    }
}

/// Naming invariants on random domains: assigned field labels come from
/// the cluster's own members; the report classification exists; label
/// assignment is deterministic.
#[test]
fn naming_invariants() {
    let lexicon = Lexicon::builtin();
    let labeler = Labeler::new(&lexicon, NamingPolicy::default());
    for config in synth_configs(0x0b00_0000_0000) {
        let synth = SynthDomain::generate(config.clone());
        let prepared = synth.domain.prepare();
        let a = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        let b = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        assert_eq!(a.tree, b.tree, "{config:?}: nondeterministic labeling");
        assert!(a.report.class.is_some(), "{config:?}");
        for leaf in a.tree.leaves() {
            let Some(label) = &leaf.label else { continue };
            let cluster = a.leaf_cluster[&leaf.id];
            let members = &prepared.mapping.cluster(cluster).members;
            let sourced = members
                .iter()
                .any(|m| prepared.schemas[m.schema].node(m.node).label.as_ref() == Some(label));
            assert!(
                sourced,
                "{config:?}: label {label:?} not sourced from its cluster"
            );
        }
    }
}

/// FldAcc is 100% whenever every cluster has at least one labeled member
/// (the synthetic generator guarantees it).
#[test]
fn synthetic_fields_all_labeled() {
    let lexicon = Lexicon::builtin();
    let labeler = Labeler::new(&lexicon, NamingPolicy::default());
    for config in synth_configs(0x0c00_0000_0000) {
        let synth = SynthDomain::generate(config.clone());
        let prepared = synth.domain.prepare();
        let labeled = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        for leaf in labeled.tree.leaves() {
            assert!(
                leaf.label.is_some(),
                "{config:?}: cluster {} unlabeled despite labeled members",
                prepared
                    .mapping
                    .cluster(labeled.leaf_cluster[&leaf.id])
                    .concept
            );
        }
    }
}

/// The regression corpus on its own, through merge validation, leaf
/// count, deterministic labeling, report classification and full field
/// coverage — so a regression case fails under a name of its own.
#[test]
fn regression_corpus_replays() {
    assert!(!REGRESSIONS.is_empty(), "regression corpus lost its cases");
    let lexicon = Lexicon::builtin();
    let labeler = Labeler::new(&lexicon, NamingPolicy::default());
    for config in REGRESSIONS {
        let synth = SynthDomain::generate(config.clone());
        let prepared = synth.domain.prepare();
        prepared.mapping.validate(&prepared.schemas).unwrap();
        prepared.integrated.tree.validate().unwrap();
        assert_eq!(
            prepared.integrated.tree.leaves().count(),
            prepared.mapping.len(),
            "{config:?}"
        );
        let a = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        let b = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        assert_eq!(a.tree, b.tree, "nondeterministic labeling on {config:?}");
        assert!(a.report.class.is_some(), "{config:?}");
        for leaf in a.tree.leaves() {
            assert!(leaf.label.is_some(), "{config:?}: unlabeled cluster");
        }
    }
}
