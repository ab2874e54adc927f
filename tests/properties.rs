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
use qi_text::{
    display_normalize, is_stop_word, split_compound, stem, token_slices, tokenize, ContentWord,
    LabelText, Lemmatizer,
};
use std::collections::BTreeSet;

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

/// The second normalization step as first written: owned tokens,
/// stop words dropped unless that leaves nothing, compounds split, and
/// one word per stem kept through a set — the reference for the slice
/// tokenizer and linear dedup `LabelText::new` now uses.
fn reference_words(display: &str, lexicon: &Lexicon) -> Vec<ContentWord> {
    let tokens = tokenize(display);
    let filtered: Vec<&String> = tokens.iter().filter(|t| !is_stop_word(t)).collect();
    let chosen = if filtered.is_empty() {
        tokens.iter().collect()
    } else {
        filtered
    };
    let mut words = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for token in chosen {
        let parts = match split_compound(token, lexicon) {
            Some((left, right)) => vec![left, right],
            None => vec![token.clone()],
        };
        for part in parts {
            let word = ContentWord::new(&part, lexicon);
            if seen.insert(word.stem.to_string()) {
                words.push(word);
            }
        }
    }
    words
}

/// The counters of one of the lexicon's named caches.
fn lexicon_cache(lexicon: &Lexicon, name: &str) -> qi_runtime::CacheStats {
    let (_, stats) = (lexicon.named_cache_stats().into_iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is registered"));
    stats
}

/// Labels of two or three random lowercase tokens, some of them builtin
/// lemmas (so compounds split) and most of them unknown: enough distinct
/// tokens to overflow the word memo several times.
fn random_token_labels(base: u64, count: u64, lexicon: &Lexicon) -> Vec<String> {
    let lemmas: Vec<String> = lexicon
        .lemmas_in_build_order()
        .into_iter()
        .filter(|l| l.bytes().all(|b| b.is_ascii_lowercase()))
        .collect();
    cases(base, count)
        .map(|(_, mut rng)| {
            let tokens: Vec<String> = (0..2 + rng.gen_range(2))
                .map(|_| match rng.gen_range(4) {
                    0 => lemmas[rng.gen_range(lemmas.len())].clone(),
                    1 => {
                        let a = &lemmas[rng.gen_range(lemmas.len())];
                        let b = &lemmas[rng.gen_range(lemmas.len())];
                        format!("{a}{b}")
                    }
                    _ => class_string(&mut rng, LOWER, 3, 12),
                })
                .collect();
            tokens.join(" ")
        })
        .collect()
}

/// The lexicon's label-text memo is `LabelText::new`, and that is the
/// reference normalization: on every label of the seven builtin domains,
/// on seeded drift labels, on labels of random tokens and on arbitrary
/// (hostile) strings, looked up cold and again warm, on one lexicon
/// whose label memo and word memo both overflow along the way. The slice
/// tokenizer equals `tokenize` on the arbitrary strings.
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
    labels.extend(random_token_labels(0x0480_0000_0001, 1_500, &lexicon));
    for (case, mut rng) in cases(0x0480_0000_0000, CASES) {
        let label = arbitrary_string(&mut rng, 40);
        let lowered = label.to_ascii_lowercase();
        let slices: Vec<&str> = token_slices(&lowered).collect();
        assert_eq!(slices, tokenize(&label), "case {case}: {label:?}");
        labels.push(label);
    }
    assert!(
        labels.len() > qi_lexicon::LABEL_TEXT_CAP,
        "the label memo must overflow"
    );
    for pass in ["cold", "warm"] {
        for raw in &labels {
            let memo = lexicon.label_text(raw);
            let direct = LabelText::new(raw, &lexicon);
            assert_eq!(*memo, direct, "{pass}: {raw:?}");
            let reference = reference_words(&direct.display, &lexicon);
            assert_eq!(direct.words, reference, "{pass}: {raw:?}");
        }
    }
    let words = lexicon_cache(&lexicon, "lexicon.word");
    assert!(
        words.misses > 2 * qi_lexicon::WORD_CAP as u64,
        "the word memo must overflow: {words:?}"
    );
    assert!(words.entries <= qi_lexicon::WORD_CAP, "{words:?}");
}

/// Two fresh lexicons fed the same overflowing label stream evict the
/// same entries, so their bounded memos report identical counters: the
/// shard a key lands in does not depend on the process or the instance.
#[test]
fn bounded_memo_counters_are_repeatable() {
    let counters = || {
        let lexicon = Lexicon::builtin();
        let labels = random_token_labels(0x0490_0000_0000, 1_200, &lexicon);
        // Each label comes back at a distance that straddles the caps.
        for (i, raw) in labels.iter().enumerate() {
            lexicon.label_text(raw);
            lexicon.label_text(&labels[i / 2]);
        }
        ["lexicon.text", "lexicon.word"].map(|name| lexicon_cache(&lexicon, name))
    };
    let first = counters();
    let [text, words] = first;
    assert!(text.misses > qi_lexicon::LABEL_TEXT_CAP as u64, "{text:?}");
    assert!(words.misses > qi_lexicon::WORD_CAP as u64, "{words:?}");
    assert!(text.hits > 0 && words.hits > 0, "{text:?} {words:?}");
    assert_eq!(counters(), first);
}

/// The lexicon with its compound-splitting bound taken away.
struct Unbounded<'a>(&'a Lexicon);

impl Lemmatizer for Unbounded<'_> {
    fn lemma(&self, token: &str) -> Option<String> {
        self.0.lemma(token)
    }

    fn is_word(&self, token: &str) -> bool {
        self.0.is_word(token)
    }
}

/// Probing only the split points whose halves fit the lexicon's longest
/// word splits exactly as probing all of them, on compounds of long
/// lemmas with inflections and random padding around the bound.
#[test]
fn bounded_compound_splitting_equals_unbounded() {
    let lexicon = Lexicon::builtin();
    let bound = lexicon
        .max_word_len()
        .expect("the lexicon bounds its words");
    let mut lemmas: Vec<String> = lexicon
        .lemmas_in_build_order()
        .into_iter()
        .filter(|l| l.len() >= 3 && l.bytes().all(|b| b.is_ascii_lowercase()))
        .collect();
    lemmas.sort_by_key(|l| std::cmp::Reverse(l.len()));
    assert!(lemmas[0].len() < bound, "{} vs {bound}", lemmas[0]);
    let long = &lemmas[..40];
    let mut split = 0;
    for (case, mut rng) in cases(0x04a0_0000_0000, 4 * CASES) {
        let half = |rng: &mut SplitMix64| {
            let pool = if rng.gen_bool(0.5) { long } else { &lemmas[..] };
            let lemma = &pool[rng.gen_range(pool.len())];
            let last = &lemma[lemma.len() - 1..];
            let suffix = ["", "s", "es", "ed", "ing", "er", "est"][rng.gen_range(7)];
            let doubled = if rng.gen_bool(0.2) { last } else { "" };
            let pad = if rng.gen_bool(0.3) {
                class_string(rng, LOWER, 1, bound)
            } else {
                String::new()
            };
            format!("{lemma}{doubled}{suffix}{pad}")
        };
        let token = format!("{}{}", half(&mut rng), half(&mut rng));
        let bounded = split_compound(&token, &lexicon);
        assert_eq!(
            bounded,
            split_compound(&token, &Unbounded(&lexicon)),
            "case {case}: {token:?} (bound {bound})"
        );
        split += usize::from(bounded.is_some());
    }
    assert!(split > CASES as usize / 4, "only {split} tokens split");
}

/// Content-word set equality without sets is still set equality: it
/// agrees with comparing `keys()` on every pair of builtin labels and of
/// seeded arbitrary strings.
#[test]
fn word_equal_is_key_set_equality() {
    let lexicon = Lexicon::builtin();
    let mut raws: BTreeSet<String> = qi_datasets::all_domains()
        .iter()
        .flat_map(|d| &d.schemas)
        .flat_map(|s| s.nodes().filter_map(|n| n.label.clone()))
        .collect();
    for (_, mut rng) in cases(0x04b0_0000_0000, CASES) {
        raws.insert(arbitrary_string(&mut rng, 24));
        raws.insert(class_string(&mut rng, LETTERS_AND_SPACE, 1, 20));
    }
    let texts: Vec<LabelText> = raws.iter().map(|r| LabelText::new(r, &lexicon)).collect();
    let keys: Vec<BTreeSet<&str>> = texts.iter().map(LabelText::keys).collect();
    let mut equal = 0;
    for (a, ta) in texts.iter().enumerate() {
        for (b, tb) in texts.iter().enumerate() {
            let expected = keys[a] == keys[b];
            assert_eq!(ta.word_equal(tb), expected, "{:?} vs {:?}", ta.raw, tb.raw);
            equal += usize::from(expected && a != b);
        }
    }
    assert!(equal > 0, "some distinct labels must be word-equal");
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
        let (sa, sb) = (ctx.sym(&a), ctx.sym(&b));
        assert_eq!(
            ctx.relate_sym(sa, sb),
            direct,
            "case {case}: {a:?} vs {b:?}"
        );
        assert_eq!(
            ctx.relate_sym(sa, sb),
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
