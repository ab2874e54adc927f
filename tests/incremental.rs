//! Incremental-ingest equivalence property: replaying a randomized
//! ingest sequence through the delta path ([`ingest_interface`], which
//! scores only the new interface against existing clusters, extends the
//! merge and relabels over the carried naming memo) must produce artifacts
//! byte-identical — through the snapshot encoding — to forcing a full
//! rebuild ([`ingest_interface_full`]) at every step.
//!
//! The label pool is engineered to exercise every delta outcome: exact
//! joins into existing clusters, morphological variants accepted by the
//! stem/synonym tiers, novel labels that become new singletons, and
//! colliding pairs (`Make` + `Makes` in one interface) that the delta
//! matcher's replay resolves through the same-schema clash, as the full
//! matcher does. Equivalence is a theorem for the delta path and
//! trivial for the fallback path (an append that changes the old
//! clusters), so it must hold on *every* step regardless of which path
//! ran.
//!
//! The suite runs in debug in every `cargo test`.

use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
use qi_runtime::{SplitMix64, Telemetry};
use qi_serve::{build_artifact, ingest_interface, ingest_interface_full, DomainArtifact, Snapshot};

/// Snapshot bytes of a single domain — the equivalence oracle. The
/// format persists everything observable (schemas, clusters, labeled
/// tree, symbols, decisions) and excludes the non-semantic carry state
/// (`version`, delta caches).
fn snapshot_bytes(policy: NamingPolicy, artifact: &DomainArtifact) -> Vec<u8> {
    Snapshot {
        policy,
        domains: vec![artifact.clone()],
    }
    .to_bytes()
}

/// Labels spanning joins, variants, singletons, and guard-tripping
/// collisions against the Auto corpus.
const POOL: &[&str] = &[
    "Make",
    "Model",
    "Price",
    "Mileage",
    "Body Style",
    "Color",
    "Year",
    "Zip Code",
    "Makes",
    "Car Model",
    "Maximum Price",
    "Warranty Months",
    "Dealer Name",
    "Fuel Type",
    "Transmission",
    "Seller Rating",
    "Interior Color",
    "Down Payment",
];

fn random_interface(rng: &mut SplitMix64, index: usize) -> qi_schema::SchemaTree {
    let count = 2 + (rng.next_u64() % 4) as usize;
    let mut picked: Vec<&str> = Vec::new();
    while picked.len() < count {
        let label = POOL[(rng.next_u64() % POOL.len() as u64) as usize];
        if !picked.contains(&label) {
            picked.push(label);
        }
    }
    let mut text = format!("interface extra{index}\n");
    for label in picked {
        text.push_str("- ");
        text.push_str(label);
        text.push('\n');
    }
    qi_schema::text_format::parse(&text).expect("generated interface parses")
}

#[test]
fn random_ingest_sequences_match_full_rebuild_byte_for_byte() {
    let lexicon = Lexicon::builtin();
    let policy = NamingPolicy::default();
    let mut delta_ingests = 0;
    for seed in 0..6u64 {
        let mut rng = SplitMix64::new(0x1abe_11ab ^ seed);
        let telemetry = Telemetry::new();
        let base = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
        let mut incremental = base.clone();
        let mut full = base;
        for step in 0..5usize {
            let interface = random_interface(&mut rng, step);
            incremental = ingest_interface(
                &incremental,
                interface.clone(),
                &lexicon,
                policy,
                &telemetry,
            );
            full = ingest_interface_full(&full, interface, &lexicon, policy, &telemetry);
            assert_eq!(
                snapshot_bytes(policy, &incremental),
                snapshot_bytes(policy, &full),
                "seed {seed} step {step}: incremental and full rebuild diverged"
            );
        }
        delta_ingests += telemetry
            .snapshot()
            .counters
            .get("serve.ingest.delta")
            .copied()
            .unwrap_or(0);
    }
    // The property is vacuous if every step fell back to a full
    // rebuild; most steps must actually take the delta path.
    assert!(
        delta_ingests >= 10,
        "only {delta_ingests} of 30 ingests took the delta path"
    );
}

/// Drifted-interface ingest: the base artifact is built from the first
/// 8 interfaces of a drift domain, then the *next* 8 interfaces of the
/// same domain — paraphrased, morphologically varied, typo'd,
/// group-reshuffled variants of the same concepts — are ingested one at
/// a time. The drift generator emits interfaces in one seeded stream,
/// so generating the domain at 8 and at 16 interfaces yields an
/// identical prefix (asserted below); the tail is therefore a genuine
/// drifted continuation, not a differently-seeded stranger.
///
/// Whatever mix of delta-path ingests and guard fallbacks the drift
/// labels provoke, every step must equal the full rebuild byte for
/// byte, and every recorded fallback must carry a known
/// `FallbackReason` counter.
#[test]
fn drifted_interface_ingest_matches_full_rebuild() {
    let lexicon = Lexicon::builtin();
    let policy = NamingPolicy::default();
    let mut delta_ingests = 0u64;
    let mut fallbacks = 0u64;
    for seed in 0..4u64 {
        let config = qi_datasets::DriftConfig {
            seed: 0xD81F_7E57 ^ seed,
            domains: 1,
            interfaces: 8,
            concepts: 10,
            ..qi_datasets::DriftConfig::default()
        };
        let extended = qi_datasets::DriftConfig {
            interfaces: 16,
            ..config
        };
        let base_domain = qi_datasets::generate_drift_corpus(&config, &lexicon).remove(0);
        let full_domain = qi_datasets::generate_drift_corpus(&extended, &lexicon).remove(0);
        for (i, schema) in base_domain.schemas.iter().enumerate() {
            assert_eq!(
                qi_schema::text_format::render(schema),
                qi_schema::text_format::render(&full_domain.schemas[i]),
                "seed {seed}: interface stream not prefix-stable at {i}"
            );
        }

        let telemetry = Telemetry::new();
        let base = build_artifact(&base_domain, &lexicon, policy, &telemetry);
        let mut incremental = base.clone();
        let mut full = base;
        for (step, interface) in full_domain.schemas[base_domain.schemas.len()..]
            .iter()
            .enumerate()
        {
            incremental = ingest_interface(
                &incremental,
                interface.clone(),
                &lexicon,
                policy,
                &telemetry,
            );
            full = ingest_interface_full(&full, interface.clone(), &lexicon, policy, &telemetry);
            assert_eq!(
                snapshot_bytes(policy, &incremental),
                snapshot_bytes(policy, &full),
                "seed {seed} drifted step {step}: incremental and full rebuild diverged"
            );
        }

        let counters = telemetry.snapshot().counters;
        delta_ingests += counters.get("serve.ingest.delta").copied().unwrap_or(0);
        let known = [
            "serve.ingest.fallback.base_mismatch",
            "serve.ingest.fallback.bridge",
        ];
        for (name, &count) in &counters {
            if name.starts_with("serve.ingest.fallback.") {
                assert!(
                    known.contains(&name.as_str()),
                    "seed {seed}: unknown fallback reason counter {name}"
                );
                fallbacks += count;
            }
        }
        // Accounting: each of the 8 delta-capable ingests is classified
        // as exactly one of delta / full (the forced-full oracle calls
        // bypass classification); fallbacks are full rebuilds with a
        // reason.
        let full_ingests = counters.get("serve.ingest.full").copied().unwrap_or(0);
        let deltas = counters.get("serve.ingest.delta").copied().unwrap_or(0);
        assert_eq!(
            deltas + full_ingests,
            8,
            "seed {seed}: ingest accounting off: {counters:?}"
        );
    }
    // The sweep is vacuous if the drifted tail never takes the delta
    // path *and* never trips a guard — either would mean the drift
    // labels stopped interacting with existing clusters.
    assert!(
        delta_ingests + fallbacks > 0,
        "no delta ingests and no fallbacks across all seeds"
    );
}

#[test]
fn guard_fallbacks_still_match_full_rebuild() {
    let lexicon = Lexicon::builtin();
    let policy = NamingPolicy::default();
    let telemetry = Telemetry::new();
    let counter = |name: &str| {
        let counters = telemetry.snapshot().counters;
        counters.get(name).copied().unwrap_or(0)
    };
    let fallbacks = || {
        let counters = telemetry.snapshot().counters;
        counters
            .iter()
            .filter(|(name, _)| name.starts_with("serve.ingest.fallback."))
            .map(|(_, &n)| n)
            .sum::<u64>()
    };

    // `Work` is a synonym of both `Job` and `Study`, which are not
    // synonyms of each other, so an interface with a `Work` field unites
    // two old clusters: the partition changes, the delta path must refuse
    // and fall back, and the result must still equal the full rebuild
    // bit for bit.
    let parse = |text: &str| qi_schema::text_format::parse(text).unwrap();
    let schemas = vec![
        parse("interface a\n- Job\n- Salary\n"),
        parse("interface b\n- Study\n- Salary\n"),
    ];
    let domain = qi_datasets::Domain {
        name: "Bridged".to_string(),
        mapping: qi_mapping::match_by_labels(&schemas, &lexicon),
        schemas,
    };
    let base = build_artifact(&domain, &lexicon, policy, &telemetry);
    // Warm up: the first ingest always rebuilds fully and captures the
    // delta carry state for the next one.
    let warm = ingest_interface(
        &base,
        parse("interface warm\n- Salary\n- City\n"),
        &lexicon,
        policy,
        &telemetry,
    );
    assert!(warm.delta.is_some());
    let bridge = parse("interface bridge\n- Work\n- City\n");
    let incremental = ingest_interface(&warm, bridge.clone(), &lexicon, policy, &telemetry);
    let full = ingest_interface_full(&warm, bridge, &lexicon, policy, &telemetry);
    assert_eq!(
        snapshot_bytes(policy, &incremental),
        snapshot_bytes(policy, &full)
    );
    assert!(fallbacks() >= 1, "no fallback recorded");
    assert_eq!(counter("serve.ingest.fallback.bridge"), fallbacks());

    // Two fields of one interface matching the same existing cluster
    // (`Make` exactly, `Makes` via stemming) used to need a guard; the
    // replay resolves the clash exactly, so this now takes the delta
    // path and still equals the full rebuild.
    let base = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
    let warm = ingest_interface(
        &base,
        parse("interface warm\n- Color\n- Price\n"),
        &lexicon,
        policy,
        &telemetry,
    );
    let (deltas, before) = (counter("serve.ingest.delta"), fallbacks());
    let tricky = parse("interface tricky\n- Make\n- Makes\n");
    let incremental = ingest_interface(&warm, tricky.clone(), &lexicon, policy, &telemetry);
    let full = ingest_interface_full(&warm, tricky, &lexicon, policy, &telemetry);
    assert_eq!(
        snapshot_bytes(policy, &incremental),
        snapshot_bytes(policy, &full)
    );
    assert_eq!(counter("serve.ingest.delta"), deltas + 1);
    assert_eq!(fallbacks(), before);
}

/// Symbol ids follow first-seen order, so a memo carried across ingests
/// hands out other ids than a fresh one. Labeling over a memo that
/// interned every label of the domain in reverse spelling order must
/// give exactly what a fresh memo gives: every tie-break (group ties,
/// the partial-consistency sort, isolated elections, the internal-node
/// representative) orders by spelling, never by symbol.
#[test]
fn symbol_order_never_reaches_the_output() {
    use qi_core::{LabeledInterface, Labeler, NamingCtx, NamingMemo};
    use std::sync::Arc;

    /// Everything a labeling run reports.
    fn observable(labeled: &LabeledInterface) -> String {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}",
            labeled.tree, labeled.leaf_cluster, labeled.report, labeled.internal
        )
    }

    let lexicon = Lexicon::builtin();
    let drift = qi_datasets::DriftConfig {
        seed: 7,
        domains: 6,
        ..qi_datasets::DriftConfig::default()
    };
    let domains = qi_datasets::all_domains()
        .into_iter()
        .chain(qi_datasets::generate_drift_corpus(&drift, &lexicon));
    for domain in domains {
        let prepared = domain.prepare();
        let mut labels: Vec<&str> = (prepared.schemas.iter())
            .flat_map(|schema| schema.nodes().filter_map(|n| n.label.as_deref()))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        for policy in [
            NamingPolicy::default(),
            NamingPolicy::most_general_baseline(),
        ] {
            let reversed = Arc::new(NamingMemo::default());
            let ctx = NamingCtx::with_memo(&lexicon, Arc::clone(&reversed));
            for label in labels.iter().rev() {
                ctx.sym(label);
            }
            let label = |labeler: Labeler| {
                labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated)
            };
            let fresh = label(Labeler::new(&lexicon, policy));
            let carried = label(Labeler::new(&lexicon, policy).with_memo(reversed));
            assert_eq!(
                observable(&carried),
                observable(&fresh),
                "{} under {policy:?}",
                domain.name
            );
        }
    }
}
