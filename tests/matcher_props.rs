//! Randomized property tests for the clustering engines — dependency-free
//! (driven by the in-repo [`SplitMix64`] PRNG, so they run under the
//! default `cargo test -q`, like `tests/properties.rs`).
//!
//! Four invariants:
//!
//! 1. **Engine equivalence** — the indexed candidate-generation engine
//!    produces the *identical* `Mapping` (cluster ids, concepts, member
//!    order) as the naive reference double loop, on arbitrary randomized
//!    corpora, fuzzy tier on and off, and on a ~100× replicated corpus.
//! 2. **Schema invariant** — no cluster ever holds two fields of one
//!    schema ([`Mapping::validate`]'s `DuplicateSchema` check).
//! 3. **Order invariance on collision-free corpora** — when label
//!    matching restricts to an equivalence relation with at most one
//!    field per class per schema (single distinct non-synonym words), the
//!    clustering is invariant under permutation of the schema input
//!    order. (This is deliberately *not* asserted for general corpora:
//!    with multi-sense synonymy the greedy merge order is load-bearing —
//!    different schema orders can legitimately resolve clashes
//!    differently.)
//! 4. **Exact delta replay** — appending schemas one at a time through
//!    `delta_match_carried`, chaining each returned carry, gives the full
//!    re-match's mapping at every incremental step, and falls back only
//!    when the append changed the old partition.

use qi_datasets::{generate_drift_corpus, replicate_schemas, DriftConfig};
use qi_lexicon::Lexicon;
use qi_mapping::matcher::{
    match_by_labels_naive, match_by_labels_stats, match_by_labels_with, MatcherConfig,
};
use qi_mapping::{
    delta_match_carried, match_with_carry, DeltaOutcome, FallbackReason, FieldRef, Mapping,
};
use qi_runtime::SplitMix64;
use qi_schema::spec::{leaf, unlabeled_leaf, NodeSpec};
use qi_schema::SchemaTree;

/// Label pool exercising every match tier: exact strings, punctuation
/// variants, word-order permutations, lexicon synonyms, abbreviations,
/// typos and stop words.
const LABEL_POOL: &[&str] = &[
    "Departure City",
    "City of Departure",
    "departure city:",
    "Destination City",
    "Arrival City",
    "Town of Departure",
    "Quantity",
    "Qty",
    "Address",
    "Adress",
    "Make",
    "Brand",
    "Model",
    "Price",
    "Cost",
    "Ticket Price",
    "Price of Ticket",
    "Class of Ticket",
    "Ticket Class",
    "Number of Stops",
    "Type of Job",
    "Job Type",
    "Area of Study",
    "Field of Work",
    "Zip Code",
    "zip code",
    "State",
    "Province",
    "Author",
    "Writer",
];

fn random_corpus(rng: &mut SplitMix64) -> Vec<SchemaTree> {
    let n_schemas = 3 + rng.gen_range(6);
    (0..n_schemas)
        .map(|s| {
            let n_fields = 2 + rng.gen_range(11);
            let specs: Vec<NodeSpec> = (0..n_fields)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        unlabeled_leaf()
                    } else {
                        leaf(LABEL_POOL[rng.gen_range(LABEL_POOL.len())])
                    }
                })
                .collect();
            SchemaTree::build(&format!("schema-{s}"), specs).unwrap()
        })
        .collect()
}

fn cluster(schemas: &[SchemaTree], lexicon: &Lexicon, config: MatcherConfig) -> Mapping {
    match_by_labels_with(schemas, lexicon, config)
}

#[test]
fn indexed_equals_naive_on_random_corpora() {
    let lexicon = Lexicon::builtin();
    for seed in 0..16u64 {
        let mut rng = SplitMix64::new(seed);
        let schemas = random_corpus(&mut rng);
        for fuzzy in [false, true] {
            let config = MatcherConfig {
                fuzzy,
                ..MatcherConfig::default()
            };
            let indexed = cluster(&schemas, &lexicon, config);
            let naive = match_by_labels_naive(&schemas, &lexicon, config).0;
            assert_eq!(indexed, naive, "seed={seed} fuzzy={fuzzy}");
        }
    }
}

#[test]
fn no_cluster_holds_two_fields_of_one_schema() {
    let lexicon = Lexicon::builtin();
    for seed in 100..116u64 {
        let mut rng = SplitMix64::new(seed);
        let schemas = random_corpus(&mut rng);
        for fuzzy in [false, true] {
            let config = MatcherConfig {
                fuzzy,
                ..MatcherConfig::default()
            };
            let mapping = cluster(&schemas, &lexicon, config);
            mapping
                .validate(&schemas)
                .unwrap_or_else(|e| panic!("seed={seed} fuzzy={fuzzy}: {e:?}"));
        }
    }
}

/// A cluster partition keyed by schema *name* (stable under input
/// reordering) instead of schema index.
fn partition_by_name(mapping: &Mapping, schemas: &[SchemaTree]) -> Vec<Vec<(String, u32)>> {
    let mut clusters: Vec<Vec<(String, u32)>> = mapping
        .clusters
        .iter()
        .map(|c| {
            let mut members: Vec<(String, u32)> = c
                .members
                .iter()
                .map(|m| (schemas[m.schema].name().to_string(), m.node.index() as u32))
                .collect();
            members.sort();
            members
        })
        .collect();
    clusters.sort();
    clusters
}

#[test]
fn clustering_invariant_under_schema_order_on_collision_free_corpora() {
    // Single distinct non-synonym words: label matching degenerates to
    // exact equality (an equivalence relation), and each schema carries
    // a concept at most once, so no merge can ever clash — the regime
    // where order invariance genuinely holds.
    let lexicon = Lexicon::builtin();
    let concepts: Vec<String> = (0..12).map(|i| format!("concept{i}")).collect();
    for seed in 200..208u64 {
        let mut rng = SplitMix64::new(seed);
        let n_schemas = 3 + rng.gen_range(4);
        let mut schemas: Vec<SchemaTree> = (0..n_schemas)
            .map(|s| {
                let specs: Vec<NodeSpec> = concepts
                    .iter()
                    .filter(|_| rng.gen_bool(0.6))
                    .map(|c| leaf(c))
                    .collect();
                let specs = if specs.is_empty() {
                    vec![leaf(&concepts[0])]
                } else {
                    specs
                };
                SchemaTree::build(&format!("schema-{s}"), specs).unwrap()
            })
            .collect();
        let reference = partition_by_name(
            &cluster(&schemas, &lexicon, MatcherConfig::default()),
            &schemas,
        );
        for _ in 0..4 {
            // Fisher–Yates shuffle of the schema order.
            for i in (1..schemas.len()).rev() {
                let j = rng.gen_range(i + 1);
                schemas.swap(i, j);
            }
            let shuffled = partition_by_name(
                &cluster(&schemas, &lexicon, MatcherConfig::default()),
                &schemas,
            );
            assert_eq!(shuffled, reference, "seed={seed}");
        }
    }
}

/// The telemetry cross-engine invariant: both engines report identical
/// `pairs_accepted` and `clusters_merged` on arbitrary corpora. The
/// indexed candidate set is a superset of the matching pairs and both
/// engines merge accepted pairs in ascending `(i, j)` order with the
/// same clash predicate, so the *outcome* counters must agree even
/// though `pairs_scored` legitimately differs (that difference is the
/// whole point of candidate generation).
#[test]
fn engines_report_identical_outcome_counters() {
    let lexicon = Lexicon::builtin();
    for seed in 300..316u64 {
        let mut rng = SplitMix64::new(seed);
        let schemas = random_corpus(&mut rng);
        for fuzzy in [false, true] {
            let config = MatcherConfig {
                fuzzy,
                ..MatcherConfig::default()
            };
            let (indexed, indexed_stats) = match_by_labels_stats(&schemas, &lexicon, config);
            let (naive, naive_stats) = match_by_labels_naive(&schemas, &lexicon, config);
            assert_eq!(indexed, naive, "seed={seed} fuzzy={fuzzy}");
            assert_eq!(
                indexed_stats.pairs_accepted, naive_stats.pairs_accepted,
                "seed={seed} fuzzy={fuzzy}: {indexed_stats:?} vs {naive_stats:?}"
            );
            assert_eq!(
                indexed_stats.clusters_merged, naive_stats.clusters_merged,
                "seed={seed} fuzzy={fuzzy}: {indexed_stats:?} vs {naive_stats:?}"
            );
            // Sanity on both engines' internal ordering of volumes.
            for stats in [&indexed_stats, &naive_stats] {
                assert!(stats.pairs_scored >= stats.pairs_accepted, "{stats:?}");
                assert!(stats.pairs_accepted >= stats.clusters_merged, "{stats:?}");
                assert_eq!(
                    stats.fields_total,
                    stats.fields_labeled + unlabeled(&schemas)
                );
            }
            // The naive reference scores every labeled pair; the indexed
            // engine must never score more than that.
            assert!(
                indexed_stats.pairs_scored <= naive_stats.pairs_scored,
                "seed={seed} fuzzy={fuzzy}: {indexed_stats:?} vs {naive_stats:?}"
            );
        }
    }
}

fn unlabeled(schemas: &[qi_schema::SchemaTree]) -> u64 {
    schemas
        .iter()
        .flat_map(|s| s.leaves())
        .filter(|l| l.label.is_none())
        .count() as u64
}

/// Outcome-counter agreement exactly on the fuzzy decision boundary:
/// 10-character labels two edits apart have normalized Levenshtein
/// similarity exactly 0.8, so with `min_similarity: 0.8` every accept /
/// reject sits on the `>=` threshold — the regime where the indexed
/// engine's length-blocked fuzzy tier is most likely to diverge from
/// the naive double loop if its blocking were unsound.
#[test]
fn engines_agree_on_fuzzy_boundary_corpora() {
    // Pairwise distances within this pool: 1 edit (0.9), 2 edits (0.8,
    // on the boundary) and 3+ edits (below it).
    let pool: &[&str] = &[
        "departure1",
        "departure2",
        "departvre1",
        "abcdefghij",
        "abcdefghxy",
        "abcdefgxyz",
        "abcdwfghij",
        "zbcdefghij",
    ];
    let lexicon = Lexicon::builtin();
    let config = MatcherConfig {
        fuzzy: true,
        min_similarity: 0.8,
        ..MatcherConfig::default()
    };
    for seed in 400..412u64 {
        let mut rng = SplitMix64::new(seed);
        let n_schemas = 3 + rng.gen_range(5);
        let schemas: Vec<SchemaTree> = (0..n_schemas)
            .map(|s| {
                let n_fields = 2 + rng.gen_range(6);
                let specs: Vec<NodeSpec> = (0..n_fields)
                    .map(|_| leaf(pool[rng.gen_range(pool.len())]))
                    .collect();
                SchemaTree::build(&format!("schema-{s}"), specs).unwrap()
            })
            .collect();
        let (indexed, indexed_stats) = match_by_labels_stats(&schemas, &lexicon, config);
        let (naive, naive_stats) = match_by_labels_naive(&schemas, &lexicon, config);
        assert_eq!(indexed, naive, "seed={seed}");
        assert_eq!(
            indexed_stats.pairs_accepted, naive_stats.pairs_accepted,
            "seed={seed}: {indexed_stats:?} vs {naive_stats:?}"
        );
        assert_eq!(
            indexed_stats.clusters_merged, naive_stats.clusters_merged,
            "seed={seed}: {indexed_stats:?} vs {naive_stats:?}"
        );
    }
}

/// Cross-engine equivalence on realistic-drift corpora, swept across
/// paraphrase and field add/drop rates. The drift generator produces
/// exactly the label population the indexed engine's posting lists are
/// weakest on — synonym walks, morphological variants and single-edit
/// typos mixed in one corpus — so beyond cluster equality both engines
/// must attribute every accept to the same tier: the per-tier
/// `accepted_*` counters are part of the cross-engine invariant.
///
/// Each sweep point also runs at `min_similarity: 0.8`, where
/// 10-character drifted twins sit exactly on the `>=` threshold — the
/// regime in which unsound fuzzy blocking would diverge first.
#[test]
fn drift_corpora_indexed_equals_naive_across_rates() {
    let lexicon = Lexicon::builtin();
    // (paraphrase_prob, coverage): none→heavy paraphrasing crossed with
    // high→low field coverage (coverage is the add/drop knob — fields
    // absent below it, novel site-specific fields added on top).
    let sweeps = [(0.0, 0.95), (0.25, 0.7), (0.6, 0.45)];
    for (i, &(paraphrase_prob, coverage)) in sweeps.iter().enumerate() {
        let config = DriftConfig {
            seed: 0x5EED_0000 + i as u64,
            domains: 2,
            interfaces: 6,
            concepts: 10,
            paraphrase_prob,
            coverage,
            ..DriftConfig::default()
        };
        let corpus = generate_drift_corpus(&config, &lexicon);
        let mut synonym_accepts = 0u64;
        for domain in &corpus {
            for min_similarity in [0.85, 0.8] {
                let config = MatcherConfig {
                    fuzzy: true,
                    min_similarity,
                    ..MatcherConfig::default()
                };
                let (indexed, indexed_stats) =
                    match_by_labels_stats(&domain.schemas, &lexicon, config);
                let (naive, naive_stats) = match_by_labels_naive(&domain.schemas, &lexicon, config);
                let ctx = format!(
                    "sweep={i} domain={} min_similarity={min_similarity}",
                    domain.name
                );
                assert_eq!(indexed, naive, "{ctx}");
                indexed.validate(&domain.schemas).expect("valid mapping");
                for (label, a, b) in [
                    (
                        "pairs_accepted",
                        indexed_stats.pairs_accepted,
                        naive_stats.pairs_accepted,
                    ),
                    (
                        "clusters_merged",
                        indexed_stats.clusters_merged,
                        naive_stats.clusters_merged,
                    ),
                    (
                        "accepted_string",
                        indexed_stats.accepted_string,
                        naive_stats.accepted_string,
                    ),
                    (
                        "accepted_word_set",
                        indexed_stats.accepted_word_set,
                        naive_stats.accepted_word_set,
                    ),
                    (
                        "accepted_synonym",
                        indexed_stats.accepted_synonym,
                        naive_stats.accepted_synonym,
                    ),
                    (
                        "accepted_fuzzy",
                        indexed_stats.accepted_fuzzy,
                        naive_stats.accepted_fuzzy,
                    ),
                ] {
                    assert_eq!(a, b, "{ctx}: {label}: {indexed_stats:?} vs {naive_stats:?}");
                }
                synonym_accepts += indexed_stats.accepted_synonym;
            }
        }
        // The heavy-paraphrase sweep point must actually reach the
        // synonym tier, or the sweep silently degenerated.
        if paraphrase_prob > 0.5 {
            assert!(synonym_accepts > 0, "sweep={i} never hit the synonym tier");
        }
    }
}

#[test]
fn scaled_100x_indexed_equals_naive() {
    // A small base corpus keeps the naive O(n²) reference tractable in
    // debug builds while the 100× replication still yields a corpus two
    // orders of magnitude beyond anything the seed benchmark clustered.
    let lexicon = Lexicon::builtin();
    let base = vec![
        SchemaTree::build(
            "a",
            vec![
                leaf("Departure City"),
                leaf("Quantity"),
                leaf("Make"),
                leaf("Class of Ticket"),
                unlabeled_leaf(),
            ],
        )
        .unwrap(),
        SchemaTree::build(
            "b",
            vec![
                leaf("City of Departure"),
                leaf("Qty"),
                leaf("Brand"),
                leaf("Ticket Class"),
            ],
        )
        .unwrap(),
        SchemaTree::build(
            "c",
            vec![leaf("departure city:"), leaf("Adress"), leaf("Model")],
        )
        .unwrap(),
    ];
    let scaled = replicate_schemas(&base, 100);
    assert_eq!(scaled.len(), 300);
    for fuzzy in [false, true] {
        let config = MatcherConfig {
            fuzzy,
            ..MatcherConfig::default()
        };
        let indexed = cluster(&scaled, &lexicon, config);
        let naive = match_by_labels_naive(&scaled, &lexicon, config).0;
        assert_eq!(indexed, naive, "fuzzy={fuzzy}");
        indexed.validate(&scaled).expect("valid scaled mapping");
        if !fuzzy {
            // Replica vocabularies are disjoint under the non-fuzzy
            // matcher: no cluster crosses replicas. (The fuzzy tier may
            // legitimately connect long renamed twins like
            // `departure1` / `departure2` — similarity 0.9.)
            for c in &indexed.clusters {
                let replica = c.members[0].schema / base.len();
                assert!(c.members.iter().all(|m| m.schema / base.len() == replica));
            }
        }
    }
}

/// Both engines on one corpus and configuration: equal mappings, and
/// equal outcome and per-tier accept counters.
fn assert_engines_agree(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    config: MatcherConfig,
    ctx: &str,
) {
    let (indexed, indexed_stats) = match_by_labels_stats(schemas, lexicon, config);
    let (naive, naive_stats) = match_by_labels_naive(schemas, lexicon, config);
    assert_eq!(indexed, naive, "{ctx}");
    let outcome = |s: &qi_mapping::MatchStats| {
        [
            s.pairs_accepted,
            s.clusters_merged,
            s.accepted_string,
            s.accepted_word_set,
            s.accepted_synonym,
            s.accepted_fuzzy,
        ]
    };
    assert_eq!(
        outcome(&indexed_stats),
        outcome(&naive_stats),
        "{ctx}: {indexed_stats:?} vs {naive_stats:?}"
    );
    assert!(
        indexed_stats.pairs_scored <= naive_stats.pairs_scored,
        "{ctx}"
    );
    assert!(
        indexed_stats.label_pairs_scored <= indexed_stats.pairs_scored,
        "{ctx}"
    );
}

/// Labels that differ only in case, punctuation or non-ASCII letters.
/// The indexed engine groups fields by their ASCII-lowercased display
/// form; display normalization keeps only ASCII alphanumerics, so
/// `Größe` and `größe` share a key while `GRÖSSE` and `Strasse` do not.
/// Whatever the grouping, both engines must agree.
#[test]
fn case_variant_and_non_ascii_labels_indexed_equals_naive() {
    let pool: &[&str] = &[
        "Zip Code",
        "ZIP code:",
        "zip-code",
        "Zipcode",
        "Größe",
        "GRÖSSE",
        "größe",
        "Straße",
        "Strasse",
        "STRASSE",
        "Departure City",
        "DEPARTURE CITY",
        "city of departure",
        "Qty",
        "QTY",
        "Quantity",
        "Adress",
        "ADDRESS",
        "Ünits",
        "units",
    ];
    let lexicon = Lexicon::builtin();
    for seed in 500..516u64 {
        let mut rng = SplitMix64::new(seed);
        let n_schemas = 3 + rng.gen_range(6);
        let schemas: Vec<SchemaTree> = (0..n_schemas)
            .map(|s| {
                let n_fields = 2 + rng.gen_range(9);
                let specs: Vec<NodeSpec> = (0..n_fields)
                    .map(|_| leaf(pool[rng.gen_range(pool.len())]))
                    .collect();
                SchemaTree::build(&format!("schema-{s}"), specs).unwrap()
            })
            .collect();
        for fuzzy in [false, true] {
            let config = MatcherConfig {
                fuzzy,
                ..MatcherConfig::default()
            };
            assert_engines_agree(
                &schemas,
                &lexicon,
                config,
                &format!("seed={seed} fuzzy={fuzzy}"),
            );
        }
    }
}

/// Indexed against naive on a drift corpus of the benchmark pipeline's
/// shape (100 domains × 20 interfaces, fuzzy tier on). Slow in debug
/// builds, so it is ignored by default and run in release mode by
/// `scripts/check.sh`:
/// `cargo test -q --release --test matcher_props -- --ignored`.
#[test]
#[ignore]
fn full_size_drift_corpus_indexed_equals_naive() {
    let lexicon = Lexicon::builtin();
    let corpus = generate_drift_corpus(
        &DriftConfig {
            seed: 1,
            domains: 100,
            interfaces: 20,
            ..DriftConfig::default()
        },
        &lexicon,
    );
    let config = MatcherConfig {
        fuzzy: true,
        ..MatcherConfig::default()
    };
    for domain in &corpus {
        assert_engines_agree(&domain.schemas, &lexicon, config, &domain.name);
    }
}

/// Labels the delta sweep adds to [`LABEL_POOL`]: synonyms that bridge
/// two old clusters (`Work` ~ `Job`, `Study`; `Fare` ~ `Ticket`,
/// `Price`), stem variants that send two new fields of one schema to
/// one cluster (`Makes`, `Models`), and 10-character twins that push
/// the fuzzy tier past sound signature blocking at 0.8.
const DELTA_EXTRA: &[&str] = &[
    "Job",
    "Study",
    "Work",
    "Ticket",
    "Fare",
    "Makes",
    "Models",
    "departure1",
    "departvre1",
    "abcdefghij",
    "abcdefghxy",
];

/// A mapping's clusters restricted to the fields of the first
/// `schemas` schemas, empty clusters dropped.
fn restricted(mapping: &Mapping, schemas: usize) -> Vec<Vec<FieldRef>> {
    mapping
        .clusters
        .iter()
        .map(|c| {
            c.members
                .iter()
                .copied()
                .filter(|m| m.schema < schemas)
                .collect::<Vec<_>>()
        })
        .filter(|members| !members.is_empty())
        .collect()
}

#[test]
fn delta_chain_equals_full_rematch() {
    let lexicon = Lexicon::builtin();
    let pool: Vec<&str> = LABEL_POOL.iter().chain(DELTA_EXTRA).copied().collect();
    let fuzzy = |min_similarity| MatcherConfig {
        fuzzy: true,
        min_similarity,
        ..MatcherConfig::default()
    };
    // Strict, fuzzy, fuzzy on the 0.8 boundary (sound until a
    // 10-character stem arrives), and fuzzy with unsound blocking.
    let configs = [
        MatcherConfig::default(),
        fuzzy(0.85),
        fuzzy(0.8),
        fuzzy(0.3),
    ];
    let (mut incremental, mut bridges) = (0u32, 0u32);
    for seed in 0..12u64 {
        for (c, &config) in configs.iter().enumerate() {
            let mut rng = SplitMix64::new(0xDE17_A000 ^ (seed << 4) ^ c as u64);
            let mut schema = |s: usize| {
                let n_fields = 1 + rng.gen_range(8);
                let specs: Vec<NodeSpec> = (0..n_fields)
                    .map(|_| {
                        if rng.gen_bool(0.1) {
                            unlabeled_leaf()
                        } else {
                            leaf(pool[rng.gen_range(pool.len())])
                        }
                    })
                    .collect();
                SchemaTree::build(&format!("schema-{s}"), specs).unwrap()
            };
            let mut schemas = vec![schema(0), schema(1)];
            let (mut mapping, mut carry) = match_with_carry(&schemas, &lexicon, config);
            assert_eq!(mapping, cluster(&schemas, &lexicon, config));
            for step in 2..12 {
                schemas.push(schema(step));
                let full = cluster(&schemas, &lexicon, config);
                let context = format!("seed={seed} config={config:?} step={step}");
                match delta_match_carried(&schemas, &mapping, &lexicon, config, Some(&carry)) {
                    DeltaOutcome::Incremental(delta) => {
                        assert_eq!(delta.mapping, full, "{context}");
                        incremental += 1;
                        mapping = delta.mapping;
                        carry = delta.carry;
                    }
                    DeltaOutcome::Fallback(reason) => {
                        assert_eq!(reason, FallbackReason::Bridge, "{context}");
                        assert_ne!(
                            restricted(&full, step),
                            restricted(&mapping, step),
                            "{context}: fell back although the old partition survived"
                        );
                        bridges += 1;
                        (mapping, carry) = match_with_carry(&schemas, &lexicon, config);
                        assert_eq!(mapping, full, "{context}");
                    }
                }
            }
        }
    }
    // Both outcomes must occur, or the sweep stopped exercising one.
    assert!(incremental >= 200, "only {incremental} incremental steps");
    assert!(bridges >= 5, "only {bridges} bridge fallbacks");
}
