//! The per-domain serving artifact: everything the pipeline computed for
//! one domain, in the form the server reads and the snapshot persists.

use qi_core::{ConsistencyClass, Labeler, LiUsage, NamingMemo, NamingPolicy};
use qi_datasets::Domain;
use qi_lexicon::Lexicon;
use qi_mapping::{
    ClusterId, DeltaOutcome, FallbackReason, Integrated, Mapping, MatchCarry, MatcherConfig,
};
use qi_merge::MergeState;
use qi_runtime::{Category, Interner, Severity, Telemetry};
use qi_schema::{NodeId, SchemaTree};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One domain's fully built serving state.
///
/// Holds the *raw* source interfaces and clusters (what a rebuild needs)
/// alongside the pipeline outputs (what a read query needs): the labeled
/// integrated tree, the leaf→cluster correspondence, the naming report
/// digest, and the lexical sidecar — every distinct source label's
/// normalized content-word keys plus the interned symbol table they are
/// stored against.
#[derive(Debug, Clone)]
pub struct DomainArtifact {
    /// Display name (Table 6 row).
    pub name: String,
    /// Raw source interfaces (pre 1:m expansion).
    pub schemas: Vec<SchemaTree>,
    /// Raw clusters (possibly 1:m, as ground truth or matcher output).
    pub mapping: Mapping,
    /// The labeled integrated interface.
    pub labeled: SchemaTree,
    /// Integrated leaf → cluster correspondence.
    pub leaf_cluster: BTreeMap<NodeId, ClusterId>,
    /// Definition 8 classification of the labeled tree.
    pub class: Option<ConsistencyClass>,
    /// Inference-rule usage for this domain (Figure 10 slice).
    pub li_usage: LiUsage,
    /// Fields left unlabeled (no source label anywhere).
    pub unlabeled_fields: usize,
    /// Internal nodes that received a label.
    pub labeled_internal: usize,
    /// Interned string table, in symbol order: every distinct source
    /// label followed by every normalized key, first-encounter order.
    pub symbols: Vec<String>,
    /// Distinct source label → its normalized content-word keys, as
    /// indices into [`DomainArtifact::symbols`]. Sorted by label symbol.
    pub normalized: Vec<(u32, Vec<u32>)>,
    /// Per-node labeling-decision provenance, sorted by node id. Empty
    /// for artifacts loaded from snapshots that predate the
    /// `decisions/` section.
    pub decisions: Vec<qi_core::LabelDecision>,
    /// Monotonic rebuild counter: bumped on every ingest swap, `0` for a
    /// freshly built or snapshot-loaded artifact. Response caches key on
    /// it; it is deliberately *not* persisted (a snapshot round-trip must
    /// be byte-identical regardless of ingest history).
    pub version: u64,
    /// Incremental-ingest carry state. `Some` exactly when
    /// [`DomainArtifact::mapping`] is label-matcher output under the
    /// default configuration — the precondition of the delta-clustering
    /// equivalence argument. `None` for ground-truth corpus builds and
    /// snapshot loads, whose first ingest therefore takes the full
    /// rebuild path (and captures carry state for the next one).
    pub delta: Option<Arc<DeltaState>>,
}

/// What an incremental ingest carries over from the previous build: the
/// matcher's state, the merge folds, and the naming memo the labeler
/// warmed. The labeler itself re-runs in full over the memo.
#[derive(Debug, Clone)]
pub struct DeltaState {
    merge_state: MergeState,
    memo: Arc<NamingMemo>,
    match_carry: MatchCarry,
}

impl DomainArtifact {
    /// URL-safe identifier: lowercase, spaces → `_` (matches the corpus
    /// export directory naming).
    pub fn slug(&self) -> String {
        slug_of(&self.name)
    }

    /// Resolve a symbol index into its string.
    pub fn symbol(&self, index: u32) -> &str {
        &self.symbols[index as usize]
    }

    /// The normalized content-word keys of a source label, if the label
    /// occurs in this domain.
    pub fn normalized_keys(&self, label: &str) -> Option<Vec<&str>> {
        self.normalized
            .iter()
            .find(|(sym, _)| self.symbol(*sym) == label)
            .map(|(_, keys)| keys.iter().map(|&k| self.symbol(k)).collect())
    }

    /// Number of source interfaces.
    pub fn interfaces(&self) -> usize {
        self.schemas.len()
    }
}

/// The slug of a display name.
pub fn slug_of(name: &str) -> String {
    name.replace(' ', "_").to_lowercase()
}

/// Run the full pipeline on one domain and package the serving artifact.
pub fn build_artifact(
    domain: &Domain,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> DomainArtifact {
    build_artifact_with(domain, lexicon, policy, telemetry, None)
}

/// [`build_artifact`], optionally capturing the incremental-ingest carry
/// state around `match_carry`, the matcher carry of the run that produced
/// `domain.mapping` (so capture is only possible for matcher output —
/// ground-truth corpus builds never capture). A capturing build is an
/// ingest, and times its stages under `serve.ingest.*`.
fn build_artifact_with(
    domain: &Domain,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
    match_carry: Option<MatchCarry>,
) -> DomainArtifact {
    let _span = telemetry.timed("serve.build_artifact");
    let ingest = match_carry.is_some();
    let merge = ingest.then(|| telemetry.span("serve.ingest.merge"));
    let prepared = domain.prepare();
    let merge_state = ingest.then(|| MergeState::capture(&prepared.schemas, &prepared.mapping));
    drop(merge);
    let delta = match_carry
        .zip(merge_state)
        .map(|(match_carry, merge_state)| DeltaState {
            merge_state,
            memo: Arc::new(NamingMemo::default()),
            match_carry,
        });
    assemble(
        domain.clone(),
        Some((&prepared.schemas, &prepared.mapping)),
        &prepared.integrated,
        delta,
        None,
        lexicon,
        policy,
        telemetry,
    )
}

/// The labeling half of every artifact build: label → provenance →
/// sidecar, packaged with the raw `domain` the artifact keeps. The
/// labeler reads `expanded` (the 1:1 form) when given, else `domain`
/// itself, and runs over `delta`'s naming memo, or a fresh one. With
/// `delta` set the build is an ingest and times each stage under
/// `serve.ingest.*`. `sidecar_base` replays a previous artifact's
/// sidecar. The artifact's version is 0.
#[allow(clippy::too_many_arguments)]
fn assemble(
    domain: Domain,
    expanded: Option<(&[SchemaTree], &Mapping)>,
    integrated: &Integrated,
    delta: Option<DeltaState>,
    sidecar_base: Option<SidecarBase<'_>>,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> DomainArtifact {
    let stage = |name| delta.is_some().then(|| telemetry.span(name));
    let memo = (delta.as_ref()).map_or_else(Default::default, |state| Arc::clone(&state.memo));
    let (schemas, mapping) = expanded.unwrap_or((&domain.schemas, &domain.mapping));
    let labeler = Labeler::new(lexicon, policy)
        .with_telemetry(telemetry.clone())
        .with_memo(memo);
    let label = stage("serve.ingest.label");
    let labeled = labeler.label(schemas, mapping, integrated);
    drop(label);
    let provenance = stage("serve.ingest.provenance");
    let decisions = qi_core::provenance::decisions(&labeled, &policy);
    drop(provenance);
    let sidecar_span = stage("serve.ingest.sidecar");
    let (symbols, normalized) = sidecar(&domain.schemas, lexicon, sidecar_base);
    drop(sidecar_span);
    DomainArtifact {
        name: domain.name,
        schemas: domain.schemas,
        mapping: domain.mapping,
        labeled: labeled.tree,
        leaf_cluster: labeled.leaf_cluster,
        class: labeled.report.class,
        li_usage: labeled.report.li_usage,
        unlabeled_fields: labeled.report.unlabeled_fields,
        labeled_internal: labeled.report.labeled_internal,
        symbols,
        normalized,
        decisions,
        version: 0,
        delta: delta.map(Arc::new),
    }
}

/// Lexical sidecar: normalize every distinct source label once and
/// intern both the labels and their content-word keys so the snapshot
/// stores each distinct string exactly once. Interning is first-encounter
/// in schema order, so a schema's contribution depends only on the
/// schemas before it — `base` replays a previous run's table and resumes
/// at schema `from`, reproducing the batch result byte-for-byte.
/// A previous sidecar run to replay: its interned symbols, its
/// normalized entries, and the schema index to resume from.
type SidecarBase<'a> = (&'a [String], &'a [(u32, Vec<u32>)], usize);

fn sidecar(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    base: Option<SidecarBase<'_>>,
) -> (Vec<String>, Vec<(u32, Vec<u32>)>) {
    let interner = Interner::new();
    let mut normalized: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let from = match base {
        Some((symbols, entries, from)) => {
            for symbol in symbols {
                interner.intern(symbol);
            }
            normalized.extend(entries.iter().cloned());
            from
        }
        None => 0,
    };
    for schema in &schemas[from..] {
        for node in schema.nodes() {
            let Some(label) = &node.label else { continue };
            let sym = interner.intern(label);
            if normalized.contains_key(&sym.0) {
                continue;
            }
            let text = lexicon.label_text(label);
            let keys: Vec<u32> = text
                .keys()
                .into_iter()
                .map(|k| interner.intern(k).0)
                .collect();
            normalized.insert(sym.0, keys);
        }
    }
    let symbols: Vec<String> = (0..interner.len() as u32)
        .map(|i| interner.resolve(qi_runtime::Symbol(i)).to_string())
        .collect();
    (symbols, normalized.into_iter().collect())
}

/// Build the artifacts of the whole builtin seven-domain corpus, in
/// Table 6 order.
pub fn build_corpus_artifacts(
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> Vec<DomainArtifact> {
    qi_datasets::all_domains()
        .iter()
        .map(|d| build_artifact(d, lexicon, policy, telemetry))
        .collect()
}

/// Add one interface to a domain and rebuild its artifact.
///
/// When the artifact carries [`DeltaState`] (its mapping is matcher
/// output), the delta path runs: the new interface's fields are scored
/// against old clusters only, the merge folds are extended rather than
/// recomputed, and the labeler re-runs over the domain's carried naming
/// memo, so only labels it has never seen are normalized and related
/// from scratch. The result is byte-identical (through the
/// snapshot encoding) to a full rebuild; an append that changes the old
/// clusters falls back to the full path automatically. Either way the
/// rebuild touches *only* this domain — callers swap the result in behind
/// the store's lock while readers keep serving the old artifact.
pub fn ingest_interface(
    artifact: &DomainArtifact,
    interface: SchemaTree,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> DomainArtifact {
    let span = telemetry.timed("serve.ingest");
    let delta_attempt = artifact.delta.as_deref().and_then(|state| {
        try_delta_ingest(artifact, state, &interface, lexicon, policy, telemetry)
    });
    let rebuilt = match delta_attempt {
        Some(rebuilt) => {
            telemetry.add("serve.ingest.delta", 1);
            rebuilt
        }
        None => {
            telemetry.add("serve.ingest.full", 1);
            ingest_interface_full(artifact, interface, lexicon, policy, telemetry)
        }
    };
    drop(span);
    rebuilt
}

/// The unconditional O(domain) rebuild: re-cluster everything with the
/// label-similarity matcher, re-merge and re-label. Public so the
/// equivalence tests and the ingest bench can force it; [`ingest_interface`]
/// uses it as the fallback. The rebuilt artifact captures fresh delta
/// carry state from the same matcher run, so the *next* ingest takes the
/// incremental path.
pub fn ingest_interface_full(
    artifact: &DomainArtifact,
    interface: SchemaTree,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> DomainArtifact {
    let mut schemas = artifact.schemas.clone();
    schemas.push(interface);
    let span = telemetry.span("serve.ingest.match");
    let (mapping, carry) =
        qi_mapping::match_with_carry(&schemas, lexicon, MatcherConfig::default());
    drop(span);
    let domain = Domain {
        name: artifact.name.clone(),
        schemas,
        mapping,
    };
    let mut rebuilt = build_artifact_with(&domain, lexicon, policy, telemetry, Some(carry));
    rebuilt.version = artifact.version + 1;
    rebuilt
}

/// The incremental ingest path. Returns `None` (with a reason counter
/// bumped) when a guard fires, leaving the caller to run the full
/// rebuild.
fn try_delta_ingest(
    artifact: &DomainArtifact,
    state: &DeltaState,
    interface: &SchemaTree,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    telemetry: &Telemetry,
) -> Option<DomainArtifact> {
    let span = telemetry.timed("serve.ingest.delta_path");
    let mut schemas = artifact.schemas.clone();
    schemas.push(interface.clone());
    let matching = telemetry.span("serve.ingest.match");
    let outcome = qi_mapping::delta_match_carried(
        &schemas,
        &artifact.mapping,
        lexicon,
        MatcherConfig::default(),
        Some(&state.match_carry),
    );
    drop(matching);
    let delta = match outcome {
        DeltaOutcome::Incremental(delta) => delta,
        DeltaOutcome::Fallback(reason) => {
            telemetry.add(fallback_counter(reason), 1);
            telemetry.event(
                Severity::Info,
                Category::Ingest,
                "ingest.delta_fallback",
                || {
                    vec![
                        ("domain", artifact.name.as_str().into()),
                        ("reason", fallback_counter(reason).into()),
                    ]
                },
            );
            return None;
        }
    };
    telemetry.add("serve.ingest.pairs_scored", delta.pairs_scored);
    let merge = telemetry.span("serve.ingest.merge");
    // Matcher output is a partition (no field in two clusters), so there
    // is nothing for 1:m expansion to do.
    let mapping = delta.mapping;
    let mut merge_state = state.merge_state.clone();
    merge_state.extend(&schemas, &mapping);
    let integrated = merge_state.finish(&schemas, &mapping);
    drop(merge);
    let sidecar_base = (
        &artifact.symbols[..],
        &artifact.normalized[..],
        artifact.schemas.len(),
    );
    let rebuilt = assemble(
        Domain {
            name: artifact.name.clone(),
            schemas,
            mapping,
        },
        None,
        &integrated,
        Some(DeltaState {
            merge_state,
            memo: Arc::clone(&state.memo),
            match_carry: delta.carry,
        }),
        Some(sidecar_base),
        lexicon,
        policy,
        telemetry,
    );
    drop(span);
    Some(DomainArtifact {
        version: artifact.version + 1,
        ..rebuilt
    })
}

/// Telemetry counter name of a delta-clustering fallback reason.
fn fallback_counter(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::BaseMismatch => "serve.ingest.fallback.base_mismatch",
        FallbackReason::Bridge => "serve.ingest.fallback.bridge",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_carries_pipeline_outputs() {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let domain = qi_datasets::auto::domain();
        let artifact = build_artifact(&domain, &lexicon, NamingPolicy::default(), &telemetry);
        assert_eq!(artifact.name, "Auto");
        assert_eq!(artifact.slug(), "auto");
        assert_eq!(artifact.interfaces(), domain.schemas.len());
        assert!(artifact.labeled.leaves().all(|l| l.label.is_some()));
        assert_eq!(
            artifact.leaf_cluster.len(),
            artifact.labeled.leaves().count()
        );
        assert!(artifact.class.is_some());
        // Every cluster referenced by a leaf resolves to a concept.
        for &cluster in artifact.leaf_cluster.values() {
            assert!(cluster.index() < artifact.mapping.len());
        }
        // The sidecar covers every distinct source label.
        for schema in &artifact.schemas {
            for node in schema.nodes() {
                if let Some(label) = &node.label {
                    assert!(
                        artifact.normalized_keys(label).is_some(),
                        "missing normalized entry for {label:?}"
                    );
                }
            }
        }
        // Symbol table indices are in range.
        for (sym, keys) in &artifact.normalized {
            assert!((*sym as usize) < artifact.symbols.len());
            for &k in keys {
                assert!((k as usize) < artifact.symbols.len());
            }
        }
        // Provenance: decisions are sorted by node, each names a rule,
        // and every decision's node exists in the labeled tree.
        assert!(!artifact.decisions.is_empty());
        let node_count = artifact.labeled.nodes().count() as u32;
        for pair in artifact.decisions.windows(2) {
            assert!(pair[0].node <= pair[1].node);
        }
        for decision in &artifact.decisions {
            assert!(!decision.rule.is_empty());
            assert!(decision.node < node_count, "{decision:?}");
        }
    }

    #[test]
    fn ingest_adds_an_interface_and_relabels() {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let domain = qi_datasets::auto::domain();
        let artifact = build_artifact(&domain, &lexicon, NamingPolicy::default(), &telemetry);
        let extra =
            qi_schema::text_format::parse("interface extra\n- Make\n- Model\n- Price\n").unwrap();
        let rebuilt = ingest_interface(
            &artifact,
            extra,
            &lexicon,
            NamingPolicy::default(),
            &telemetry,
        );
        assert_eq!(rebuilt.interfaces(), artifact.interfaces() + 1);
        assert_eq!(rebuilt.name, artifact.name);
        assert!(rebuilt.labeled.leaves().count() > 0);
        // Matcher-based re-clustering may leave unlabeled singletons (the
        // ground truth no longer covers the grown domain), but the report
        // must agree with the tree about how many.
        assert_eq!(
            rebuilt.unlabeled_fields,
            rebuilt
                .labeled
                .leaves()
                .filter(|l| l.label.is_none())
                .count()
        );
        assert!(
            rebuilt
                .labeled
                .leaves()
                .filter(|l| l.label.is_some())
                .count()
                > 0
        );
    }

    #[test]
    fn slug_normalizes_names() {
        assert_eq!(slug_of("Real Estate"), "real_estate");
        assert_eq!(slug_of("Auto"), "auto");
    }

    /// The artifact a delta ingest produces is byte-identical (through
    /// the snapshot encoding) to the full-rebuild artifact, and the
    /// delta/full paths fire in the documented order: ground-truth base
    /// → full, matcher-derived base → delta.
    #[test]
    fn delta_ingest_matches_full_rebuild_bytes() {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::new();
        let policy = NamingPolicy::default();
        let base = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
        assert!(base.delta.is_none(), "ground-truth build must not capture");

        // First ingest: no carry state → full rebuild, which captures.
        let extra1 = qi_schema::text_format::parse("interface e1\n- Make\n- Mileage\n").unwrap();
        let v1 = ingest_interface(&base, extra1, &lexicon, policy, &telemetry);
        assert!(v1.delta.is_some(), "full ingest must capture carry state");
        assert_eq!(v1.version, 1);
        let counter = |name: &str| {
            telemetry
                .snapshot()
                .counters
                .get(name)
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(counter("serve.ingest.full"), 1);
        assert_eq!(counter("serve.ingest.delta"), 0);

        // Second ingest: carry state present → delta path, identical
        // bytes to forcing the full path from the same base.
        let extra2 =
            qi_schema::text_format::parse("interface e2\n- Model\n- Body Style\n").unwrap();
        let incremental = ingest_interface(&v1, extra2.clone(), &lexicon, policy, &telemetry);
        assert_eq!(counter("serve.ingest.delta"), 1);
        let full = ingest_interface_full(&v1, extra2, &lexicon, policy, &telemetry);
        assert_eq!(incremental.version, 2);
        let encode = |artifact: &DomainArtifact| {
            crate::snapshot::Snapshot {
                policy,
                domains: vec![artifact.clone()],
            }
            .to_bytes()
        };
        assert_eq!(
            encode(&incremental),
            encode(&full),
            "delta and full ingest artifacts diverge"
        );
    }
}
