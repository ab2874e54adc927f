//! Incremental (delta) clustering: append one new interface to an
//! existing matcher-derived mapping without re-scoring the old corpus.
//!
//! # Exact replay
//!
//! The indexed engine ([`crate::index`]) merges every accepted field
//! pair `(i, j)`, `i < j`, in ascending order through a schema-bitset
//! union-find; its output is a function of that pair sequence alone. A
//! [`MatchCarry`] keeps the sequence (the *pair log*) from the run that
//! produced the mapping, together with the engine's own distinct-label
//! state. Appending one interface changes the sequence in exactly one
//! way:
//!
//! 1. Old–old verdicts are unchanged: the predicate is pure and an old
//!    field's label key is unchanged, so the old pairs are the log.
//! 2. New–new pairs are never scored (all new fields share the appended
//!    schema, and same-schema pairs are skipped).
//! 3. Every other pair is `(i, n)` with `i` old and `n` new, judged in
//!    the orientation `(label(i), label(n))`, because the appended schema
//!    comes last.
//!
//! So the delta matcher normalizes only the new labels, extends the
//! carried word relation by the new words, scores each new *distinct*
//! label against the old distinct labels the batch engine's candidate
//! rule admits in the `(old, new)` orientation (every word of the old
//! label has a partner in the new one), expands the accepted label pairs
//! to field pairs `(i, n)`, merges them into the log and replays the
//! union-find over it. The replay *is* the full matcher's merge
//! sequence, so its partition is the full re-run's by construction —
//! including whatever the same-schema clash check decides when two new
//! fields reach one cluster, or a new field reaches two.
//!
//! # The one residual guard
//!
//! The replayed partition is exact, but downstream state (the merge
//! folds) can only be *extended*: it assumes every old cluster survives
//! with its members. So the outcome is
//! [`DeltaOutcome::Incremental`] exactly when the replayed partition
//! restricted to the old fields equals the base — each new field then
//! either joined one old cluster or stands alone — and
//! [`FallbackReason::Bridge`] when the append changed the old partition
//! (a new field united two old clusters, or its early union made a
//! later old union clash). [`FallbackReason::BaseMismatch`] reports a
//! base that is not the carry's partition.

use crate::cluster::{Cluster, ClusterId, FieldRef, Mapping};
use crate::index::{
    indexed_run, label_key, pack, unpack, Field, Prepared, SchemaUnionFind, NO_LABEL,
};
use crate::matcher::{cluster_numbering, collect_fields, emit_clusters, MatchStats, MatcherConfig};
use qi_lexicon::Lexicon;
use qi_schema::{NodeId, SchemaTree};
use qi_text::LabelText;
use std::collections::HashMap;
use std::sync::Arc;

/// The indexed engine's state after matching a corpus, kept so the next
/// append replays it instead of re-matching: the fields, each field's
/// distinct label and cluster, the pair log, and the distinct labels in
/// prepared form with the relation of their words.
#[derive(Debug, Clone)]
pub struct MatchCarry {
    config: MatcherConfig,
    /// Number of schemas the carry covers (`fields` spans exactly these).
    schema_count: usize,
    /// Every field, in matcher order.
    fields: Vec<FieldRef>,
    /// Per field: its distinct label id, or `NO_LABEL`.
    label_of: Vec<u32>,
    /// Per field: its cluster's index in the matcher's mapping.
    cluster_of: Vec<u32>,
    clusters: usize,
    /// Every accepted field pair `(i, j)`, `i < j`, packed, ascending:
    /// the union-find's merge sequence.
    log: Vec<u64>,
    /// The distinct labels. An append shares them when it brings no new
    /// label key and extends a copy otherwise, so the carry it started
    /// from stays valid for another append.
    labels: Arc<LabelIndex>,
}

/// A carry's distinct labels with their word relation and label keys.
#[derive(Debug, Clone)]
struct LabelIndex {
    prepared: Prepared,
    /// Label key → distinct label id.
    by_key: HashMap<Arc<str>, u32>,
}

impl MatchCarry {
    /// Derive the carry for a corpus from scratch (one matcher run).
    pub fn build(schemas: &[SchemaTree], lexicon: &Lexicon, config: MatcherConfig) -> Self {
        match_with_carry(schemas, lexicon, config).1
    }

    fn label_count(&self) -> u32 {
        self.labels.prepared.label_count()
    }

    /// Whether `base` is this carry's mapping: the same clusters in the
    /// same order, each listing its members in field order.
    fn partition_is(&self, base: &Mapping) -> bool {
        if base.clusters.len() != self.clusters {
            return false;
        }
        let mut seen = vec![0usize; self.clusters];
        for (field, &k) in self.fields.iter().zip(self.cluster_of.iter()) {
            let k = k as usize;
            if base.clusters[k].members.get(seen[k]) != Some(field) {
                return false;
            }
            seen[k] += 1;
        }
        base.clusters
            .iter()
            .zip(&seen)
            .all(|(c, &n)| c.members.len() == n)
    }
}

/// Match `schemas` like [`crate::match_by_labels_with`] (the same
/// mapping) and keep the run's state as the carry for the next append.
pub fn match_with_carry(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> (Mapping, MatchCarry) {
    let fields = collect_fields(schemas, lexicon);
    let run = indexed_run(&fields, lexicon, config, &mut MatchStats::default(), true);
    let mapping = emit_clusters(&fields, &run.roots);
    let (cluster_of, clusters) = cluster_numbering(&run.roots);
    let carry = MatchCarry {
        config,
        schema_count: schemas.len(),
        fields: fields.iter().map(|(f, _)| *f).collect(),
        label_of: run.label_of,
        cluster_of,
        clusters,
        log: run.log,
        labels: Arc::new(LabelIndex {
            prepared: run.prepared,
            by_key: run.by_key.into_iter().map(|(k, l)| (k.into(), l)).collect(),
        }),
    };
    (mapping, carry)
}

/// Result of attempting a delta update.
#[derive(Debug, Clone)]
pub enum DeltaOutcome {
    /// The old partition survived the append; `mapping` is bit-identical
    /// to what a full re-match of all schemas would produce.
    Incremental(Box<DeltaMapping>),
    /// The caller must run the full matcher.
    Fallback(FallbackReason),
}

/// The incrementally updated mapping plus what changed.
#[derive(Debug, Clone)]
pub struct DeltaMapping {
    /// The complete new mapping (old clusters with appended members,
    /// then new singletons in field order).
    pub mapping: Mapping,
    /// Predicate evaluations: `(old, new)` pairs of distinct labels
    /// scored (a new field sharing an old label's key needs no score
    /// against it).
    pub pairs_scored: u64,
    /// Accepted field pairs `(old, new)` merged into the pair log.
    pub pairs_accepted: u64,
    /// Matcher carry covering the appended corpus, for the next append.
    pub carry: MatchCarry,
}

/// Why the delta path refused and a full rebuild is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The base mapping is not the matcher's mapping of the old schemas.
    BaseMismatch,
    /// The append changed the partition of the old fields.
    Bridge,
}

impl FallbackReason {
    /// Stable label for telemetry counters.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::BaseMismatch => "base_mismatch",
            FallbackReason::Bridge => "bridge",
        }
    }
}

/// Append the last schema of `schemas` to `base` (the matcher output for
/// `schemas[..len-1]` under `config`). Returns the updated mapping or a
/// fallback verdict. Without a carry this first re-matches the old
/// schemas to build one.
pub fn delta_match(
    schemas: &[SchemaTree],
    base: &Mapping,
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> DeltaOutcome {
    delta_match_carried(schemas, base, lexicon, config, None)
}

/// [`delta_match`] with an optional [`MatchCarry`] from the previous
/// match over `schemas[..len-1]`. A valid carry (same config, covering
/// exactly the old schemas) is replayed instead of re-matching the old
/// corpus; the carry's provenance is a caller contract (it must come
/// from these schemas). A successful outcome includes the updated carry
/// for the next append.
pub fn delta_match_carried(
    schemas: &[SchemaTree],
    base: &Mapping,
    lexicon: &Lexicon,
    config: MatcherConfig,
    carry: Option<&MatchCarry>,
) -> DeltaOutcome {
    let new_schema = schemas.len() - 1;
    let built;
    let carry = match carry.filter(|c| c.config == config && c.schema_count == new_schema) {
        Some(carry) => carry,
        None => {
            built = MatchCarry::build(&schemas[..new_schema], lexicon, config);
            &built
        }
    };
    if !carry.partition_is(base) {
        return DeltaOutcome::Fallback(FallbackReason::BaseMismatch);
    }
    carry.append(&schemas[new_schema], base, lexicon)
}

impl MatchCarry {
    /// The fields of `tree`, appended as schema `self.schema_count`, with
    /// every field's label id (old fields first) and the label index: a
    /// new field takes the id of the old label sharing its key, or a
    /// fresh id prepared after the old labels, its new words related to
    /// every word of the index.
    fn extend_labels(
        &self,
        tree: &SchemaTree,
        lexicon: &Lexicon,
    ) -> (Vec<Field>, Vec<u32>, Arc<LabelIndex>) {
        let schema = self.schema_count;
        let old_labels = self.label_count();
        let new_fields: Vec<Field> = tree
            .descendant_leaves(NodeId::ROOT)
            .into_iter()
            .map(|leaf| {
                let label = tree.node(leaf).label.as_deref();
                let label = label.map(|raw| lexicon.label_text(raw));
                (FieldRef::new(schema, leaf), label)
            })
            .collect();
        let mut label_of: Vec<u32> = Vec::with_capacity(self.fields.len() + new_fields.len());
        label_of.extend_from_slice(&self.label_of);
        let mut by_key: HashMap<Arc<str>, u32> = HashMap::new();
        let mut fresh: Vec<&LabelText> = Vec::new();
        for (_, label) in &new_fields {
            let id = match label.as_deref().filter(|l| !l.is_empty()) {
                None => NO_LABEL,
                Some(label) => {
                    let key = label_key(label);
                    let known = self.labels.by_key.get(key.as_str()).copied();
                    known.unwrap_or_else(|| {
                        *by_key.entry(key.into()).or_insert_with(|| {
                            fresh.push(label);
                            old_labels + fresh.len() as u32 - 1
                        })
                    })
                }
            };
            label_of.push(id);
        }
        let mut labels = Arc::clone(&self.labels);
        if !fresh.is_empty() {
            let index = Arc::make_mut(&mut labels);
            index.prepared.extend(&fresh, lexicon);
            index.by_key.extend(by_key);
        }
        (new_fields, label_of, labels)
    }

    /// Append `tree` as schema `self.schema_count` to `base` (this
    /// carry's mapping).
    fn append(&self, tree: &SchemaTree, base: &Mapping, lexicon: &Lexicon) -> DeltaOutcome {
        let schema = self.schema_count;
        let old_len = self.fields.len();
        let old_labels = self.label_count();
        let (new_fields, label_of, labels) = self.extend_labels(tree, lexicon);

        // Score each new distinct label against the old ones it can
        // match, in the (old, new) orientation.
        let mut probes: Vec<u32> = label_of[old_len..]
            .iter()
            .copied()
            .filter(|&l| l != NO_LABEL)
            .collect();
        probes.sort_unstable();
        probes.dedup();
        let mut pairs_scored = 0u64;
        let mut hits: Vec<u32> = Vec::new();
        let mut accepts: HashMap<u32, Vec<u32>> = HashMap::with_capacity(probes.len());
        for &p in &probes {
            labels.prepared.covered_by(p, old_labels, &mut hits);
            // A label shared with old fields accepts them unscored.
            let mut accepted: Vec<u32> = (p < old_labels).then_some(p).into_iter().collect();
            for &a in &hits {
                pairs_scored += 1;
                if labels.prepared.tier(a, p).is_some() {
                    accepted.push(a);
                }
            }
            accepts.insert(p, accepted);
        }

        // Expand to field pairs (i, n): each old label's new partners,
        // then one pass over the old fields in order.
        let mut partners: Vec<Vec<u32>> = vec![Vec::new(); old_labels as usize];
        for (n, &p) in label_of.iter().enumerate().skip(old_len) {
            for &a in accepts.get(&p).into_iter().flatten() {
                partners[a as usize].push(n as u32);
            }
        }
        let mut log: Vec<u64> = Vec::with_capacity(self.log.len() + 64);
        log.extend_from_slice(&self.log);
        for (i, &l) in label_of[..old_len].iter().enumerate() {
            if l != NO_LABEL {
                log.extend(partners[l as usize].iter().map(|&n| pack(i as u32, n)));
            }
        }
        let pairs_accepted = (log.len() - self.log.len()) as u64;
        // Two sorted runs: the stable sort merges them in linear time.
        log.sort();

        let schemas = self.fields.iter().chain(new_fields.iter().map(|(f, _)| f));
        let mut uf = SchemaUnionFind::new(schemas.map(|f| f.schema), schema + 1);
        for &packed in &log {
            let (i, j) = unpack(packed);
            uf.merge(i, j);
        }

        // The old partition must have survived: old cluster k ↔ one root.
        let mut cluster_at = vec![u32::MAX; label_of.len()];
        let mut root_of = vec![usize::MAX; self.clusters];
        for (i, &k) in self.cluster_of.iter().enumerate() {
            let root = uf.find(i);
            match (cluster_at[root], root_of[k as usize]) {
                (u32::MAX, usize::MAX) => {
                    cluster_at[root] = k;
                    root_of[k as usize] = root;
                }
                (at, of) if at == k && of == root => {}
                _ => return DeltaOutcome::Fallback(FallbackReason::Bridge),
            }
        }

        // Each new field joined the old cluster of its root, or stands
        // alone (two new fields share a schema, so never a component).
        let mut mapping = base.clone();
        let mut cluster_of: Vec<u32> = Vec::with_capacity(label_of.len());
        cluster_of.extend_from_slice(&self.cluster_of);
        for (k, (field, label)) in new_fields.iter().enumerate() {
            let id = match cluster_at[uf.find(old_len + k)] {
                u32::MAX => {
                    let id = ClusterId(mapping.clusters.len() as u32);
                    let concept = match label {
                        Some(label) => label.display.clone(),
                        None => format!("unlabeled_{}", id.0),
                    };
                    mapping.clusters.push(Cluster {
                        id,
                        concept,
                        members: vec![*field],
                    });
                    id
                }
                old => {
                    mapping.clusters[old as usize].members.push(*field);
                    ClusterId(old)
                }
            };
            cluster_of.push(id.0);
        }

        let carry = MatchCarry {
            config: self.config,
            schema_count: schema + 1,
            fields: self
                .fields
                .iter()
                .chain(new_fields.iter().map(|(f, _)| f))
                .copied()
                .collect(),
            label_of,
            cluster_of,
            clusters: mapping.clusters.len(),
            log,
            labels,
        };
        DeltaOutcome::Incremental(Box::new(DeltaMapping {
            mapping,
            pairs_scored,
            pairs_accepted,
            carry,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::{match_by_labels, match_by_labels_with};
    use qi_schema::spec::{leaf, unlabeled_leaf};

    fn base_corpus() -> Vec<SchemaTree> {
        vec![
            SchemaTree::build(
                "a",
                vec![leaf("Make"), leaf("Model"), leaf("Price"), unlabeled_leaf()],
            )
            .unwrap(),
            SchemaTree::build("b", vec![leaf("Brand"), leaf("Model"), leaf("Zip Code")]).unwrap(),
            SchemaTree::build("c", vec![leaf("Manufacturer"), leaf("zip code:")]).unwrap(),
        ]
    }

    fn assert_incremental_equals_full(schemas: Vec<SchemaTree>, extra: SchemaTree) {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig::default();
        let base = match_by_labels(&schemas, &lexicon);
        let mut all = schemas;
        all.push(extra);
        let full = match_by_labels(&all, &lexicon);
        match delta_match(&all, &base, &lexicon, config) {
            DeltaOutcome::Incremental(delta) => {
                assert_eq!(delta.mapping, full, "delta must match the full re-run");
            }
            DeltaOutcome::Fallback(reason) => panic!("unexpected fallback: {reason:?}"),
        }
    }

    #[test]
    fn join_and_singleton_appends_match_full_rerun() {
        let extra =
            SchemaTree::build("d", vec![leaf("Model"), leaf("Mileage"), unlabeled_leaf()]).unwrap();
        assert_incremental_equals_full(base_corpus(), extra);
    }

    #[test]
    fn synonym_join_matches_full_rerun() {
        // `Manufacturer` joins the Make/Brand/Manufacturer cluster via
        // the synset postings, not string equality.
        let extra = SchemaTree::build("d", vec![leaf("Manufacturer"), leaf("Color")]).unwrap();
        assert_incremental_equals_full(base_corpus(), extra);
    }

    #[test]
    fn all_new_fields_match_full_rerun() {
        let extra = SchemaTree::build("d", vec![leaf("Transmission"), leaf("Doors")]).unwrap();
        assert_incremental_equals_full(base_corpus(), extra);
    }

    #[test]
    fn clash_blocked_bridge_is_incremental() {
        // Schema `a` holds Make and Brand apart (same-schema clash), so
        // a new `Manufacturer` matching both joins Make's cluster first
        // and the clash keeps Brand out: the old partition survives.
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("Make"), leaf("Brand")]).unwrap(),
            SchemaTree::build("b", vec![leaf("Price")]).unwrap(),
        ];
        let extra = SchemaTree::build("c", vec![leaf("Manufacturer")]).unwrap();
        assert_incremental_equals_full(schemas, extra);
    }

    #[test]
    fn shared_join_is_incremental() {
        // Two new same-schema fields both match the Model cluster; the
        // replay lets the first join and the clash keeps the second a
        // singleton, exactly as the full run does.
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("Model")]).unwrap(),
            SchemaTree::build("b", vec![leaf("Model")]).unwrap(),
        ];
        let extra = SchemaTree::build("c", vec![leaf("Model"), leaf("model:")]).unwrap();
        assert_incremental_equals_full(schemas, extra);
    }

    #[test]
    fn bridge_between_old_clusters_falls_back() {
        // `Work` is a synonym of both `Job` and `Study`, which are not
        // synonyms of each other: the new field unites two
        // schema-disjoint old clusters, changing the old partition.
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("Job")]).unwrap(),
            SchemaTree::build("b", vec![leaf("Study")]).unwrap(),
        ];
        let lexicon = Lexicon::builtin();
        let base = match_by_labels(&schemas, &lexicon);
        assert_eq!(base.len(), 2);
        let mut all = schemas;
        all.push(SchemaTree::build("c", vec![leaf("Work")]).unwrap());
        assert_eq!(match_by_labels(&all, &lexicon).len(), 1);
        match delta_match(&all, &base, &lexicon, MatcherConfig::default()) {
            DeltaOutcome::Fallback(FallbackReason::Bridge) => {}
            other => panic!("expected bridge fallback, got {other:?}"),
        }
    }

    /// The carry chains: each step's carry replays the next append,
    /// and a carry built by the full run agrees with the chained one.
    #[test]
    fn chained_carries_match_full_reruns() {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig::default();
        let mut schemas = base_corpus();
        let (mut mapping, mut carry) = match_with_carry(&schemas, &lexicon, config);
        let extras = [
            vec![leaf("Make"), leaf("Makes"), leaf("Colour")],
            vec![leaf("Brand"), leaf("Color"), unlabeled_leaf()],
            vec![leaf("Zip"), leaf("Model"), leaf("Mileage")],
            vec![leaf("Odometer"), leaf("Price"), leaf("Cost")],
        ];
        for (k, fields) in extras.into_iter().enumerate() {
            schemas.push(SchemaTree::build(&format!("x{k}"), fields).unwrap());
            let full = match_by_labels_with(&schemas, &lexicon, config);
            match delta_match_carried(&schemas, &mapping, &lexicon, config, Some(&carry)) {
                DeltaOutcome::Incremental(delta) => {
                    assert_eq!(delta.mapping, full, "step {k}");
                    mapping = delta.mapping;
                    carry = delta.carry;
                }
                DeltaOutcome::Fallback(reason) => {
                    assert_eq!(reason, FallbackReason::Bridge, "step {k}");
                    (mapping, carry) = match_with_carry(&schemas, &lexicon, config);
                    assert_eq!(mapping, full, "step {k}");
                }
            }
        }
    }

    /// Appending leaves the carry appended to intact, so one carry can
    /// take several appends: two different drift interfaces appended to
    /// one base, and a third appended to one of the results, each equal
    /// a full re-match, and neither the base nor that result gains a
    /// label.
    #[test]
    fn appends_to_a_shared_carry_leave_it_intact() {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig::default();
        let corpus = qi_datasets::generate_drift_corpus(
            &qi_datasets::DriftConfig {
                seed: 0x5EED_0023,
                domains: 1,
                interfaces: 8,
                ..qi_datasets::DriftConfig::default()
            },
            &lexicon,
        );
        let (base, rest) = corpus[0].schemas.split_at(5);
        let with = |schemas: &[SchemaTree], extra: &SchemaTree| {
            let mut schemas = schemas.to_vec();
            schemas.push(extra.clone());
            schemas
        };
        let append = |mapping: &Mapping, carry: &MatchCarry, schemas: &[SchemaTree]| {
            match delta_match_carried(schemas, mapping, &lexicon, config, Some(carry)) {
                DeltaOutcome::Incremental(delta) => {
                    assert_eq!(delta.mapping, match_by_labels(schemas, &lexicon));
                    assert!(
                        delta.carry.label_count() > carry.label_count(),
                        "the append brought no new label, so nothing was copied"
                    );
                    delta
                }
                DeltaOutcome::Fallback(reason) => panic!("unexpected fallback: {reason:?}"),
            }
        };
        let (mapping, carry) = match_with_carry(base, &lexicon, config);
        let labels = carry.label_count();
        let base_x = with(base, &rest[0]);
        let x = append(&mapping, &carry, &base_x);
        let x_labels = x.carry.label_count();
        append(&mapping, &carry, &with(base, &rest[1]));
        append(&x.mapping, &x.carry, &with(&base_x, &rest[2]));
        assert_eq!(carry.label_count(), labels);
        assert_eq!(x.carry.label_count(), x_labels);
    }

    /// The candidate rule on the delta path is exact: on drift domains,
    /// at both fuzzy thresholds, with the fuzzy tier on and off, every
    /// old label that `tier` accepts against a new label is among that
    /// label's candidates, and the rule leaves most old labels out.
    #[test]
    fn delta_candidates_cover_every_accepted_pair() {
        let lexicon = Lexicon::builtin();
        let corpus = qi_datasets::generate_drift_corpus(
            &qi_datasets::DriftConfig {
                seed: 0x5EED_0022,
                domains: 3,
                interfaces: 8,
                ..qi_datasets::DriftConfig::default()
            },
            &lexicon,
        );
        let (mut accepted, mut kept, mut old) = (0, 0, 0);
        for domain in &corpus {
            for min_similarity in [0.85, 0.8] {
                for fuzzy in [false, true] {
                    let config = MatcherConfig {
                        fuzzy,
                        min_similarity,
                        ..MatcherConfig::default()
                    };
                    for k in 1..domain.schemas.len() {
                        let carry = MatchCarry::build(&domain.schemas[..k], &lexicon, config);
                        let (_, label_of, labels) =
                            carry.extend_labels(&domain.schemas[k], &lexicon);
                        let mut probes = label_of[carry.fields.len()..].to_vec();
                        probes.retain(|&l| l != NO_LABEL);
                        probes.sort_unstable();
                        probes.dedup();
                        let mut hits = Vec::new();
                        for p in probes {
                            labels
                                .prepared
                                .covered_by(p, carry.label_count(), &mut hits);
                            kept += hits.len();
                            for a in (0..carry.label_count()).filter(|&a| a != p) {
                                old += 1;
                                if labels.prepared.tier(a, p).is_some() {
                                    accepted += 1;
                                    assert!(
                                        hits.binary_search(&a).is_ok(),
                                        "old {a} -> new {p} accepted but not a candidate \
                                         at {config:?}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(accepted > 0, "no old label accepted a new one");
        assert!(kept * 4 < old, "the rule pruned little: {kept} of {old}");
    }

    /// A chain whose second append brings a 14-character stem: at 0.85,
    /// signature blocking stops being sound mid-chain, and the next
    /// append's distance-2 twin (first two characters edited, so it
    /// shares no signature posting) must still be found. Every step is
    /// incremental and equals a full re-match.
    #[test]
    fn chain_through_a_blocking_regime_flip_matches_full_reruns() {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig {
            fuzzy: true,
            min_similarity: 0.85,
            ..MatcherConfig::default()
        };
        let mut schemas = base_corpus();
        let (mut mapping, mut carry) = match_with_carry(&schemas, &lexicon, config);
        let extras = [
            vec![leaf("Make"), leaf("Adress")],
            vec![leaf("abcdefghijklmn"), leaf("Colour")],
            vec![leaf("xycdefghijklmn"), leaf("Color"), leaf("Qty")],
            vec![leaf("abcdefghijklmn"), leaf("Zip")],
        ];
        let mut regimes = Vec::new();
        for (k, fields) in extras.into_iter().enumerate() {
            schemas.push(SchemaTree::build(&format!("x{k}"), fields).unwrap());
            let full = match_by_labels_with(&schemas, &lexicon, config);
            match delta_match_carried(&schemas, &mapping, &lexicon, config, Some(&carry)) {
                DeltaOutcome::Incremental(delta) => {
                    assert_eq!(delta.mapping, full, "step {k}");
                    mapping = delta.mapping;
                    carry = delta.carry;
                }
                DeltaOutcome::Fallback(reason) => panic!("step {k}: unexpected {reason:?}"),
            }
            regimes.push(carry.labels.prepared.all_pairs());
        }
        assert_eq!(regimes, [false, true, true, true]);
        // The twins found each other after the flip.
        let twins = mapping
            .clusters
            .iter()
            .find(|c| c.concept == "abcdefghijklmn")
            .unwrap();
        assert_eq!(twins.members.len(), 3);
    }

    #[test]
    fn base_mismatch_falls_back() {
        let schemas = base_corpus();
        let lexicon = Lexicon::builtin();
        // Ground-truth-style base covering only part of the fields.
        let a_leaves = schemas[0].descendant_leaves(qi_schema::NodeId::ROOT);
        let base = Mapping::from_clusters(vec![(
            "c_Make".to_string(),
            vec![FieldRef::new(0, a_leaves[0])],
        )]);
        let mut all = schemas;
        all.push(SchemaTree::build("d", vec![leaf("Make")]).unwrap());
        match delta_match(&all, &base, &lexicon, MatcherConfig::default()) {
            DeltaOutcome::Fallback(FallbackReason::BaseMismatch) => {}
            other => panic!("expected base-mismatch fallback, got {other:?}"),
        }
    }

    #[test]
    fn fuzzy_config_matches_full_rerun() {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig {
            fuzzy: true,
            ..MatcherConfig::default()
        };
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("Quantity"), leaf("Address")]).unwrap(),
            SchemaTree::build("b", vec![leaf("Price")]).unwrap(),
        ];
        let base = match_by_labels_with(&schemas, &lexicon, config);
        let mut all = schemas;
        all.push(SchemaTree::build("c", vec![leaf("Qty"), leaf("Adress")]).unwrap());
        let full = match_by_labels_with(&all, &lexicon, config);
        match delta_match(&all, &base, &lexicon, config) {
            DeltaOutcome::Incremental(delta) => assert_eq!(delta.mapping, full),
            DeltaOutcome::Fallback(reason) => panic!("unexpected fallback: {reason:?}"),
        }
    }

    #[test]
    fn unsound_blocking_regime_scores_all_pairs_and_agrees() {
        let lexicon = Lexicon::builtin();
        let config = MatcherConfig {
            fuzzy: true,
            min_similarity: 0.3,
            ..MatcherConfig::default()
        };
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("abcdefghij")]).unwrap(),
            SchemaTree::build("b", vec![leaf("Price")]).unwrap(),
        ];
        let base = match_by_labels_with(&schemas, &lexicon, config);
        let mut all = schemas;
        all.push(SchemaTree::build("c", vec![leaf("xycdefghij")]).unwrap());
        let full = match_by_labels_with(&all, &lexicon, config);
        match delta_match(&all, &base, &lexicon, config) {
            DeltaOutcome::Incremental(delta) => assert_eq!(delta.mapping, full),
            DeltaOutcome::Fallback(reason) => panic!("unexpected fallback: {reason:?}"),
        }
    }
}
