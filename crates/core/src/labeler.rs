//! The three-phase naming algorithm (§6, Definition 8).
//!
//! * **Phase 1** (bottom-up): build the group relations and name every
//!   group (§4), elect labels for isolated clusters (§4.4), and derive the
//!   candidate-label sets of all internal nodes (§5, LI1–LI5).
//! * **Phase 2**: determine the consistency level the schema tree admits —
//!   consistent, weakly consistent or inconsistent (Definition 8,
//!   Propositions 1–2).
//! * **Phase 3** (top-down): assign each node a label from its candidate
//!   set complying with the established level: internal-node labels must
//!   differ from their ancestors' labels, be at least as general as their
//!   descendants' (Definition 5 via [`internal::at_least_as_general`]),
//!   and — for full consistency — be consistent with the solutions chosen
//!   for their descendant groups (Definitions 6–7).

use crate::ctx::{NamingCtx, NamingMemo};
use crate::internal::{self, CandidateLabel, ClusterInfo, PotentialLabel};
use crate::isolated::{label_isolated_cluster, LabelOccurrence};
use crate::kernel::{GroupRelation, LabelSymbols};
use crate::policy::NamingPolicy;
use crate::report::{ConsistencyClass, GroupOutcome, NamingReport};
use crate::solution::{name_group, GroupNaming};
use qi_lexicon::Lexicon;
use qi_mapping::{ClusterId, Integrated, Mapping};
use qi_runtime::Symbol;
use qi_schema::{NodeId, SchemaTree};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The naming algorithm, configured once per domain run.
pub struct Labeler<'a> {
    lexicon: &'a Lexicon,
    policy: NamingPolicy,
    /// Worker count for phase-1 group naming: `1` = sequential (the
    /// default), `0` = one worker per hardware thread (clamped), `n` = at
    /// most `n` workers. Parallelism never changes the output — groups
    /// are named independently and collected in order.
    threads: usize,
    /// Metrics registry for per-phase timings, conflict counters and
    /// naming-cache stats. The default disabled handle costs one pointer
    /// check per phase boundary — nothing inside the phase loops.
    telemetry: qi_runtime::Telemetry,
    /// Naming memo the run's [`NamingCtx`] starts from and adds to; a
    /// fresh one per run when unset.
    memo: Option<Arc<NamingMemo>>,
}

/// The labeled integrated interface plus the full naming report.
#[derive(Debug, Clone)]
pub struct LabeledInterface {
    /// The integrated schema tree with labels assigned.
    pub tree: SchemaTree,
    /// Leaf → cluster correspondence (copied from the input).
    pub leaf_cluster: BTreeMap<NodeId, ClusterId>,
    /// What happened: consistency class, group outcomes, LI usage.
    pub report: NamingReport,
    /// Why each internal node got (or failed to get) its label.
    pub internal: BTreeMap<NodeId, InternalDecision>,
}

/// How the label assignment went for one internal node (phase 3).
///
/// No candidates means no source interface labels a node covering this
/// field set; candidates but no choice means every one of them duplicates
/// an ancestor's label — the "candidate promoted to its ancestors"
/// failure (§7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalDecision {
    /// The node's candidate labels (§5, LI1–LI5), best first.
    pub candidates: Vec<CandidateLabel>,
    /// Index into `candidates` of the assigned label, if any.
    pub chosen: Option<usize>,
    /// Definition 6 held for the chosen label against every descendant
    /// group's chosen solution (full vertical consistency).
    pub def6_consistent: bool,
}

impl InternalDecision {
    /// The candidate that became the node's label.
    pub fn chosen_candidate(&self) -> Option<&CandidateLabel> {
        self.chosen.map(|index| &self.candidates[index])
    }
}

/// Everything phase 1 computed for one group of the integrated interface.
struct GroupWork {
    /// The group's clusters, in column order.
    clusters: Vec<ClusterId>,
    /// The integrated leaves, parallel to `clusters`.
    leaves: Vec<NodeId>,
    /// The internal node the group hangs off (`None` for the root group).
    parent: Option<NodeId>,
    relation: GroupRelation,
    naming: GroupNaming,
}

impl<'a> Labeler<'a> {
    /// Create a labeler over a lexicon with the given policy.
    pub fn new(lexicon: &'a Lexicon, policy: NamingPolicy) -> Self {
        Labeler {
            lexicon,
            policy,
            threads: 1,
            telemetry: qi_runtime::Telemetry::off(),
            memo: None,
        }
    }

    /// Fan phase-1 group naming out over up to `threads` workers
    /// (`0` = hardware parallelism). Output is identical to a sequential
    /// run.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Record per-phase span timings, group/conflict counters and
    /// naming-cache stats into `telemetry` on every [`Labeler::label`]
    /// call. The default is the disabled registry.
    pub fn with_telemetry(mut self, telemetry: qi_runtime::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Run over `memo` instead of a fresh naming memo. The memo is
    /// output-neutral (see [`NamingMemo`]); an incremental ingest carries
    /// one per domain so a relabel of the grown domain finds most label
    /// normalizations and pairwise relations already computed. Labels
    /// the run sees for the first time are added to it.
    pub fn with_memo(mut self, memo: Arc<NamingMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The active policy.
    pub fn policy(&self) -> &NamingPolicy {
        &self.policy
    }

    /// Run the naming algorithm.
    ///
    /// `schemas` and `mapping` must be in 1:1 form (after
    /// [`qi_mapping::expand_one_to_many`]); `integrated` is the output of
    /// [`qi_merge::merge`] (or any tree whose leaves map to clusters).
    pub fn label(
        &self,
        schemas: &[SchemaTree],
        mapping: &Mapping,
        integrated: &Integrated,
    ) -> LabeledInterface {
        let run_span = self.telemetry.timed("label");
        let ctx = match &self.memo {
            Some(memo) => NamingCtx::with_memo(self.lexicon, Arc::clone(memo)),
            None => NamingCtx::new(self.lexicon),
        };
        // Each source label is interned once; the naming layer below
        // speaks symbols, and strings are made again only for the tree
        // and the report.
        let symbols = LabelSymbols::new(schemas, &ctx);
        let mut report = NamingReport::default();
        let mut tree = integrated.tree.clone();
        let partition = integrated.partition();

        // ---------- Phase 1a: name the groups -------------------------------
        // Groups are independent: each worker builds the relation and names
        // the group against the shared (Sync) context; results come back in
        // input order, so the parallel run is byte-identical to sequential.
        // The children of the root are treated as one special group for
        // which partially consistent solutions are accepted (§4).
        let mut specs: Vec<(Vec<ClusterId>, Vec<NodeId>, Option<NodeId>)> = partition
            .groups
            .iter()
            .map(|g| (g.clusters.clone(), g.leaves.clone(), Some(g.parent)))
            .collect();
        if !partition.root.is_empty() {
            let clusters: Vec<ClusterId> = partition.root.iter().map(|&(_, c)| c).collect();
            let leaves: Vec<NodeId> = partition.root.iter().map(|&(l, _)| l).collect();
            specs.push((clusters, leaves, None));
        }
        let phase_span = self.telemetry.timed("label.phase1.groups");
        let groups: Vec<GroupWork> =
            qi_runtime::parallel_map(&specs, self.threads, |_, (clusters, leaves, parent)| {
                let relation = GroupRelation::build(clusters, mapping, &symbols);
                let naming = name_group(&relation, &ctx, &self.policy);
                GroupWork {
                    clusters: clusters.clone(),
                    leaves: leaves.clone(),
                    parent: *parent,
                    relation,
                    naming,
                }
            });
        drop(phase_span);

        // ---------- Phase 1b: isolated clusters ------------------------------
        let phase_span = self.telemetry.timed("label.phase1.isolated");
        for &(leaf, cluster) in &partition.isolated {
            let occurrences = isolated_occurrences(schemas, mapping, &symbols, cluster, &ctx);
            let chosen =
                label_isolated_cluster(&occurrences, &ctx, &self.policy, &mut report.li_usage)
                    .map(|sym| ctx.spelling(sym).to_string());
            report.isolated.push(crate::report::IsolatedOutcome {
                leaf,
                chosen: chosen.clone(),
                occurrences: occurrences
                    .iter()
                    .map(|o| (ctx.spelling(o.label).to_string(), o.frequency))
                    .collect(),
            });
            tree.set_label(leaf, chosen);
        }
        drop(phase_span);

        // ---------- Phase 1c: candidate labels for internal nodes -----------
        let phase_span = self.telemetry.timed("label.phase1.candidates");
        let potentials = collect_potentials(schemas, mapping, &symbols);
        let info = collect_cluster_info(schemas, mapping, &symbols);
        // Each node's candidates, with their symbols beside them.
        let mut candidate_sets: BTreeMap<NodeId, (Vec<CandidateLabel>, Vec<Symbol>)> =
            BTreeMap::new();
        let mut node_clusters: BTreeMap<NodeId, BTreeSet<ClusterId>> = BTreeMap::new();
        for internal in integrated.tree.internal_nodes() {
            let x: BTreeSet<ClusterId> = integrated
                .tree
                .descendant_leaves(internal.id)
                .into_iter()
                .filter_map(|l| integrated.cluster_of_leaf(l))
                .collect();
            let candidates =
                internal::find_candidates(&x, &potentials, &info, &ctx, &mut report.li_usage);
            node_clusters.insert(internal.id, x);
            candidate_sets.insert(internal.id, candidates);
        }
        drop(phase_span);

        // ---------- Phase 3a: assign group-field labels ----------------------
        let phase_span = self.telemetry.timed("label.phase3.groups");
        for group in &groups {
            let best = &group.naming.best;
            let labels = ctx.spellings(&best.labels);
            for (leaf, label) in group.leaves.iter().zip(&labels) {
                tree.set_label(*leaf, label.clone());
            }
            // Per column: the distinct source labels the solution chose
            // among, with occurrence counts (provenance candidates).
            let column_options: Vec<Vec<(String, usize)>> = (0..group.clusters.len())
                .map(|column| {
                    let mut options: Vec<(Symbol, usize)> = Vec::new();
                    for tuple in &group.relation.tuples {
                        let Some(label) = tuple.labels[column] else {
                            continue;
                        };
                        match options.iter_mut().find(|(l, _)| *l == label) {
                            Some((_, n)) => *n += 1,
                            None => options.push((label, 1)),
                        }
                    }
                    (options.into_iter())
                        .map(|(label, n)| (ctx.spelling(label).to_string(), n))
                        .collect()
                })
                .collect();
            report.groups.push(GroupOutcome {
                description: group
                    .clusters
                    .iter()
                    .map(|&c| mapping.cluster(c).concept.clone())
                    .collect::<Vec<_>>()
                    .join(", "),
                level: group.naming.level,
                consistent: group.naming.consistent,
                labels,
                conflict_repaired: best.conflict_repaired,
                leaves: group.leaves.clone(),
                column_options,
            });
        }
        drop(phase_span);

        // ---------- Phase 3b: assign internal-node labels (top-down) --------
        let phase_span = self.telemetry.timed("label.phase3.internal");
        // For Definition 6 checks: which group hangs under which internal
        // node (descendant groups = groups whose parent is a descendant-or-
        // self of the node).
        // Ancestor labels are tracked as interned symbols: the Prop. 2
        // duplication check and the Definition 5 parent lookup become
        // integer comparisons / cache probes instead of String compares.
        let mut assigned: BTreeMap<NodeId, Symbol> = BTreeMap::new();
        let mut decisions: BTreeMap<NodeId, InternalDecision> = BTreeMap::new();
        let mut weakly = 0usize;
        for id in integrated.tree.preorder() {
            if id == NodeId::ROOT || integrated.tree.node(id).is_leaf() {
                continue;
            }
            let (candidates, syms) = candidate_sets
                .remove(&id)
                .expect("phase 1c derives candidates for every internal node");
            let mut decision = InternalDecision {
                candidates,
                chosen: None,
                def6_consistent: false,
            };
            if decision.candidates.is_empty() {
                report.internal_without_candidates += 1;
                decisions.insert(id, decision);
                continue;
            }
            let path: Vec<NodeId> = integrated.tree.path_to_root(id);
            let ancestor_labels: Vec<Symbol> = path
                .iter()
                .filter_map(|p| assigned.get(p).copied())
                .collect();
            let parent_label: Option<(Symbol, &BTreeSet<ClusterId>)> = path
                .iter()
                .find_map(|p| assigned.get(p).map(|&l| (l, &node_clusters[p])));
            let descendant_groups: Vec<&GroupWork> = groups
                .iter()
                .filter(|g| match g.parent {
                    Some(p) => p == id || integrated.tree.path_to_root(p).contains(&id),
                    None => false,
                })
                .collect();
            let x = &node_clusters[&id];
            // Score every candidate: must not duplicate an ancestor label;
            // prefer Definition 6 consistency with the chosen group
            // solutions, then Definition 5 generality wrt the parent.
            let candidates = &decision.candidates;
            let mut best: Option<(bool, bool, usize)> = None;
            for (index, (candidate, &sym)) in candidates.iter().zip(&syms).enumerate() {
                if ancestor_labels.iter().any(|&al| ctx.equal_sym(al, sym)) {
                    continue; // Le − L_path(e) requirement (Prop. 2)
                }
                let def6 = descendant_groups
                    .iter()
                    .all(|g| candidate_consistent_with_group(candidate, g));
                let generality_ok = match parent_label {
                    Some((pl, pbag)) => {
                        internal::at_least_as_general(pl, pbag, sym, x, &ctx)
                            || internal::at_least_as_general(
                                pl,
                                pbag,
                                sym,
                                &candidate.coverage,
                                &ctx,
                            )
                    }
                    None => true,
                };
                let better = match best {
                    None => true,
                    Some((b_def6, b_gen, b)) => {
                        let b_cand = &candidates[b];
                        (
                            def6,
                            generality_ok,
                            candidate.expressiveness,
                            candidate.frequency,
                        ) > (b_def6, b_gen, b_cand.expressiveness, b_cand.frequency)
                    }
                };
                if better {
                    best = Some((def6, generality_ok, index));
                }
            }
            match best {
                Some((def6, _generality, index)) => {
                    assigned.insert(id, syms[index]);
                    tree.set_label(id, Some(candidates[index].label.to_string()));
                    report.labeled_internal += 1;
                    decision.chosen = Some(index);
                    decision.def6_consistent = def6;
                    if !def6 {
                        weakly += 1;
                    }
                }
                None => report.unlabeled_internal_with_candidates += 1,
            }
            decisions.insert(id, decision);
        }
        drop(phase_span);

        // ---------- Phase 2 (final): classify (Definition 8) ----------------
        let phase_span = self.telemetry.timed("label.phase2.classify");
        // Regular groups must have consistent solutions; the root group may
        // be partially consistent (§4). Internal nodes with candidates must
        // all be labeled.
        let groups_ok = groups
            .iter()
            .filter(|g| g.parent.is_some())
            .all(|g| g.naming.consistent || g.relation.tuples.is_empty());
        let class = if !groups_ok || report.unlabeled_internal_with_candidates > 0 {
            ConsistencyClass::Inconsistent
        } else if weakly > 0 {
            ConsistencyClass::WeaklyConsistent
        } else {
            ConsistencyClass::Consistent
        };
        report.class = Some(class);
        drop(phase_span);

        // ---------- Field accounting -----------------------------------------
        for leaf in tree.leaves() {
            if leaf.label.is_none() {
                report.unlabeled_fields += 1;
                if !leaf.instances().is_empty() {
                    report.unlabeled_fields_with_instances += 1;
                }
            }
        }

        report.naming_cache = ctx.cache_stats();
        drop(run_span);
        self.record_telemetry(&report, &ctx);

        LabeledInterface {
            tree,
            leaf_cluster: integrated.leaf_cluster.clone(),
            report,
            internal: decisions,
        }
    }

    /// Copy the run's counters and cache stats into the registry. One
    /// pointer check and out when telemetry is off — the phase loops
    /// above never touch the registry directly.
    fn record_telemetry(&self, report: &NamingReport, ctx: &NamingCtx) {
        let telemetry = &self.telemetry;
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.add("labeler.groups_named", report.groups.len() as u64);
        telemetry.add(
            "labeler.groups_consistent",
            report.groups.iter().filter(|g| g.consistent).count() as u64,
        );
        telemetry.add(
            "labeler.conflicts_repaired",
            report
                .groups
                .iter()
                .filter(|g| g.conflict_repaired == Some(true))
                .count() as u64,
        );
        telemetry.add(
            "labeler.conflicts_unrepaired",
            report
                .groups
                .iter()
                .filter(|g| g.conflict_repaired == Some(false))
                .count() as u64,
        );
        telemetry.add("labeler.internal_labeled", report.labeled_internal as u64);
        telemetry.add(
            "labeler.internal_without_candidates",
            report.internal_without_candidates as u64,
        );
        telemetry.add(
            "labeler.internal_blocked",
            report.unlabeled_internal_with_candidates as u64,
        );
        telemetry.add("labeler.unlabeled_fields", report.unlabeled_fields as u64);
        let (states, capped) = ctx.combine_stats();
        telemetry.add("labeler.combine.states", states);
        telemetry.add("labeler.combine.capped", capped);
        // Only the per-run naming-ctx caches belong to this labeler; the
        // shared lexicon/stemmer caches are recorded as per-domain deltas
        // by the eval runner to avoid double-counting across runs.
        for (name, stats) in ctx.named_cache_stats() {
            telemetry.record_cache(name, &stats);
        }
    }
}

/// Definition 6: a candidate label is consistent with a group's chosen
/// solution when one of its originating schemas supplies a tuple inside
/// the partition that produced the solution (schemas supplying no tuple
/// are vacuously consistent).
fn candidate_consistent_with_group(candidate: &CandidateLabel, group: &GroupWork) -> bool {
    let solution = &group.naming.best;
    if !group.naming.consistent {
        // Partially consistent solutions span partitions; full Definition
        // 6 consistency is unattainable (the node can only be weakly
        // consistent through this group).
        return false;
    }
    candidate.schemas.iter().any(|&schema| {
        match group
            .relation
            .tuples
            .iter()
            .position(|t| t.schema == schema)
        {
            Some(idx) => solution.partition_tuples.contains(&idx),
            None => true, // no tuple — no conflicting evidence
        }
    })
}

/// Label occurrences of an isolated cluster's member fields, grouped by
/// spelling up to ASCII case (the first spelling seen names the group).
fn isolated_occurrences(
    schemas: &[SchemaTree],
    mapping: &Mapping,
    symbols: &LabelSymbols,
    cluster: ClusterId,
    ctx: &NamingCtx<'_>,
) -> Vec<LabelOccurrence> {
    let mut occurrences: Vec<LabelOccurrence> = Vec::new();
    for member in &mapping.cluster(cluster).members {
        let Some(label) = symbols.get(member.schema, member.node) else {
            continue;
        };
        let node = schemas[member.schema].node(member.node);
        let instances = node.instances().to_vec();
        match occurrences
            .iter_mut()
            .find(|o| ctx.spelling(o.label).eq_ignore_ascii_case(node.label_str()))
        {
            Some(o) => {
                o.frequency += 1;
                for i in instances {
                    if !o.domain.contains(&i) {
                        o.domain.push(i);
                    }
                }
            }
            None => occurrences.push(LabelOccurrence {
                label,
                frequency: 1,
                domain: instances,
            }),
        }
    }
    occurrences
}

/// All labeled source internal nodes as potential labels (bags computed
/// against the mapping).
fn collect_potentials(
    schemas: &[SchemaTree],
    mapping: &Mapping,
    symbols: &LabelSymbols,
) -> Vec<PotentialLabel> {
    // Reverse index: field → cluster.
    let mut field_cluster: BTreeMap<(usize, NodeId), ClusterId> = BTreeMap::new();
    for cluster in &mapping.clusters {
        for &member in &cluster.members {
            field_cluster.insert((member.schema, member.node), cluster.id);
        }
    }
    let mut potentials = Vec::new();
    for (schema_idx, tree) in schemas.iter().enumerate() {
        for internal in tree.internal_nodes() {
            let Some(label) = symbols.get(schema_idx, internal.id) else {
                continue;
            };
            let bag: BTreeSet<ClusterId> = tree
                .descendant_leaves(internal.id)
                .into_iter()
                .filter_map(|l| field_cluster.get(&(schema_idx, l)).copied())
                .collect();
            if !bag.is_empty() {
                potentials.push(PotentialLabel {
                    label,
                    schema: schema_idx,
                    bag,
                });
            }
        }
    }
    potentials
}

/// Per-cluster instances and field labels (LI5–LI7 side information).
fn collect_cluster_info(
    schemas: &[SchemaTree],
    mapping: &Mapping,
    symbols: &LabelSymbols,
) -> BTreeMap<ClusterId, ClusterInfo> {
    let mut info: BTreeMap<ClusterId, ClusterInfo> = BTreeMap::new();
    for cluster in &mapping.clusters {
        let entry = info.entry(cluster.id).or_default();
        for &member in &cluster.members {
            if let Some(label) = symbols.get(member.schema, member.node) {
                if !entry.field_labels.contains(&label) {
                    entry.field_labels.push(label);
                }
            }
            let node = schemas[member.schema].node(member.node);
            for instance in node.instances() {
                if !entry.instances.contains(instance) {
                    entry.instances.push(instance.clone());
                }
            }
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_mapping::{expand_one_to_many, FieldRef};
    use qi_schema::spec::{leaf, node, select};

    fn field(schemas: &[SchemaTree], schema: usize, label: &str) -> FieldRef {
        let tree = &schemas[schema];
        let id = tree
            .descendant_leaves(NodeId::ROOT)
            .into_iter()
            .find(|&l| tree.node(l).label_str() == label)
            .unwrap_or_else(|| panic!("{label} not found in schema {schema}"));
        FieldRef::new(schema, id)
    }

    /// An airline micro-domain exercising groups, isolated clusters and
    /// internal-node labeling in one run.
    fn airline_fixture() -> (Vec<SchemaTree>, Mapping, Integrated) {
        let a = SchemaTree::build(
            "british",
            vec![
                node(
                    "How many passengers?",
                    vec![leaf("Seniors"), leaf("Adults"), leaf("Children")],
                ),
                node("Service", vec![select("Class", &["Economy", "First"])]),
            ],
        )
        .unwrap();
        let b = SchemaTree::build(
            "economytravel",
            vec![
                node(
                    "Passengers",
                    vec![leaf("Adults"), leaf("Children"), leaf("Infants")],
                ),
                node(
                    "Preferences",
                    vec![select("Class of Ticket", &["Economy", "First"])],
                ),
            ],
        )
        .unwrap();
        let schemas = vec![a, b];
        let mut mapping = Mapping::from_clusters(vec![
            ("c_Senior".to_string(), vec![field(&schemas, 0, "Seniors")]),
            (
                "c_Adult".to_string(),
                vec![field(&schemas, 0, "Adults"), field(&schemas, 1, "Adults")],
            ),
            (
                "c_Child".to_string(),
                vec![
                    field(&schemas, 0, "Children"),
                    field(&schemas, 1, "Children"),
                ],
            ),
            ("c_Infant".to_string(), vec![field(&schemas, 1, "Infants")]),
            (
                "c_Class".to_string(),
                vec![
                    field(&schemas, 0, "Class"),
                    field(&schemas, 1, "Class of Ticket"),
                ],
            ),
        ]);
        let mut schemas = schemas;
        expand_one_to_many(&mut schemas, &mut mapping);
        mapping.validate(&schemas).unwrap();
        let integrated = qi_merge::merge(&schemas, &mapping);
        (schemas, mapping, integrated)
    }

    #[test]
    fn end_to_end_airline_micro_domain() {
        let (schemas, mapping, integrated) = airline_fixture();
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::default());
        let labeled = labeler.label(&schemas, &mapping, &integrated);
        // Passenger group gets the intersect-and-union solution.
        let mut leaf_labels: Vec<String> = labeled
            .tree
            .leaves()
            .map(|l| l.label_str().to_string())
            .collect();
        leaf_labels.sort();
        for expected in ["Seniors", "Adults", "Children", "Infants"] {
            assert!(
                leaf_labels.iter().any(|l| l == expected),
                "missing {expected} in {leaf_labels:?}"
            );
        }
        // The isolated class cluster is labeled (most descriptive:
        // Class of Ticket).
        assert!(
            leaf_labels.iter().any(|l| l == "Class of Ticket"),
            "isolated cluster unlabeled: {leaf_labels:?}"
        );
        // The passenger internal node receives a candidate label.
        let internal_labels: Vec<String> = labeled
            .tree
            .internal_nodes()
            .filter_map(|n| n.label.clone())
            .collect();
        assert!(
            !internal_labels.is_empty(),
            "no internal node labeled: {}",
            labeled.tree.render()
        );
        assert!(labeled.report.class.is_some());
        assert_eq!(labeled.report.unlabeled_fields, 0);
    }

    #[test]
    fn unlabeled_everywhere_field_stays_unlabeled() {
        // A cluster whose members are unlabeled in all sources (the
        // Figure 11 "No Label" case).
        let a = SchemaTree::build(
            "a",
            vec![node(
                "Lease Rate",
                vec![leaf("From"), qi_schema::spec::unlabeled_leaf()],
            )],
        )
        .unwrap();
        let schemas = vec![a];
        let al = schemas[0].descendant_leaves(NodeId::ROOT);
        let mapping = Mapping::from_clusters(vec![
            ("c_From".to_string(), vec![FieldRef::new(0, al[0])]),
            ("c_To".to_string(), vec![FieldRef::new(0, al[1])]),
        ]);
        let integrated = qi_merge::merge(&schemas, &mapping);
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::default());
        let labeled = labeler.label(&schemas, &mapping, &integrated);
        assert_eq!(labeled.report.unlabeled_fields, 1);
        // The labeled sibling still gets its label.
        assert!(labeled.tree.leaves().any(|l| l.label_str() == "From"));
    }

    #[test]
    fn report_counts_groups() {
        let (schemas, mapping, integrated) = airline_fixture();
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::default());
        let labeled = labeler.label(&schemas, &mapping, &integrated);
        assert!(!labeled.report.groups.is_empty());
        let passenger_group = labeled
            .report
            .groups
            .iter()
            .find(|g| g.description.contains("c_Adult"))
            .expect("passenger group reported");
        assert!(passenger_group.consistent);
    }

    /// The blocked-by-ancestor decision (§7's "promoted to its
    /// ancestors") is recorded: the nested fare pair's only candidate is
    /// claimed by the enclosing Fare section.
    #[test]
    fn blocked_candidate_is_recorded() {
        use qi_schema::spec::unlabeled_node as gu;
        let s1 = SchemaTree::build(
            "s1",
            vec![g_fare(vec![leaf("Lowest"), leaf("Highest")]), leaf("Promo")],
        )
        .unwrap();
        let s2 = SchemaTree::build(
            "s2",
            vec![g_fare(vec![
                leaf("Lowest"),
                leaf("Highest"),
                leaf("Currency"),
            ])],
        )
        .unwrap();
        let s3 = SchemaTree::build(
            "s3",
            vec![g_fare(vec![
                gu(vec![leaf("Lowest"), leaf("Highest")]),
                leaf("Currency"),
            ])],
        )
        .unwrap();
        fn g_fare(children: Vec<qi_schema::NodeSpec>) -> qi_schema::NodeSpec {
            node("Fare", children)
        }
        let schemas = vec![s1, s2, s3];
        let mapping = Mapping::from_clusters(vec![
            (
                "min".to_string(),
                vec![
                    field(&schemas, 0, "Lowest"),
                    field(&schemas, 1, "Lowest"),
                    field(&schemas, 2, "Lowest"),
                ],
            ),
            (
                "max".to_string(),
                vec![
                    field(&schemas, 0, "Highest"),
                    field(&schemas, 1, "Highest"),
                    field(&schemas, 2, "Highest"),
                ],
            ),
            (
                "currency".to_string(),
                vec![
                    field(&schemas, 1, "Currency"),
                    field(&schemas, 2, "Currency"),
                ],
            ),
            ("promo".to_string(), vec![field(&schemas, 0, "Promo")]),
        ]);
        let integrated = qi_merge::merge(&schemas, &mapping);
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::default());
        let labeled = labeler.label(&schemas, &mapping, &integrated);
        // Exactly one node is blocked: it has candidates but no choice.
        let blocked: Vec<_> = labeled
            .internal
            .values()
            .filter(|d| d.chosen.is_none() && !d.candidates.is_empty())
            .collect();
        assert_eq!(blocked.len(), 1, "{:?}", labeled.internal);
        assert_eq!(
            labeled.report.class,
            Some(crate::ConsistencyClass::Inconsistent)
        );
        // The enclosing section got the contested label.
        assert!(labeled
            .tree
            .internal_nodes()
            .any(|n| n.label_str() == "Fare"));
    }

    /// Decisions for labeled nodes carry the Definition 6 verdict.
    #[test]
    fn decisions_record_def6_verdict() {
        let (schemas, mapping, integrated) = airline_fixture();
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::default());
        let labeled = labeler.label(&schemas, &mapping, &integrated);
        for (id, decision) in &labeled.internal {
            if let Some(chosen) = decision.chosen_candidate() {
                assert_eq!(
                    labeled.tree.node(*id).label.as_deref(),
                    Some(&*chosen.label),
                    "decision and tree disagree"
                );
            }
        }
        assert!(labeled
            .internal
            .values()
            .any(|d| d.chosen.is_some() && d.def6_consistent));
    }

    /// A run over the memo a base run warmed produces exactly what a
    /// cold batch `label` over the grown domain produces, and finds most
    /// label normalizations already in the memo.
    #[test]
    fn carried_memo_run_matches_batch_relabel() {
        let lexicon = Lexicon::builtin();
        let mut schemas = vec![
            SchemaTree::build(
                "a",
                vec![
                    node("Passengers", vec![leaf("Adults"), leaf("Children")]),
                    leaf("Departure Date"),
                    node("Route", vec![leaf("From"), leaf("To")]),
                ],
            )
            .unwrap(),
            SchemaTree::build(
                "b",
                vec![
                    node("Travelers", vec![leaf("Adults"), leaf("Infants")]),
                    leaf("Airline"),
                    node("Route", vec![leaf("From"), leaf("To")]),
                ],
            )
            .unwrap(),
        ];
        let base_mapping = qi_mapping::match_by_labels(&schemas, &lexicon);
        let base_integrated = qi_merge::merge(&schemas, &base_mapping);
        let memo = Arc::new(NamingMemo::default());
        Labeler::new(&lexicon, NamingPolicy::default())
            .with_memo(Arc::clone(&memo))
            .label(&schemas, &base_mapping, &base_integrated);

        schemas.push(
            SchemaTree::build(
                "c",
                vec![node("Who Flies", vec![leaf("Adults"), leaf("Seniors")])],
            )
            .unwrap(),
        );
        let config = qi_mapping::MatcherConfig::default();
        let delta = match qi_mapping::delta_match(&schemas, &base_mapping, &lexicon, config) {
            qi_mapping::DeltaOutcome::Incremental(d) => d,
            other => panic!("expected incremental append, got {other:?}"),
        };
        let integrated = qi_merge::merge(&schemas, &delta.mapping);
        let cold_telemetry = qi_runtime::Telemetry::new();
        let batch = Labeler::new(&lexicon, NamingPolicy::default())
            .with_telemetry(cold_telemetry.clone())
            .label(&schemas, &delta.mapping, &integrated);
        let warm_telemetry = qi_runtime::Telemetry::new();
        let incremental = Labeler::new(&lexicon, NamingPolicy::default())
            .with_telemetry(warm_telemetry.clone())
            .with_memo(memo)
            .label(&schemas, &delta.mapping, &integrated);
        assert_eq!(incremental.tree, batch.tree);
        assert_eq!(incremental.leaf_cluster, batch.leaf_cluster);
        assert_eq!(incremental.internal, batch.internal);
        assert_eq!(incremental.report.class, batch.report.class);
        assert_eq!(incremental.report.li_usage, batch.report.li_usage);
        assert_eq!(incremental.report.groups, batch.report.groups);
        assert_eq!(incremental.report.isolated, batch.report.isolated);
        assert_eq!(
            incremental.report.unlabeled_fields,
            batch.report.unlabeled_fields
        );
        assert_eq!(
            incremental.report.labeled_internal,
            batch.report.labeled_internal
        );
        // The carried memo was really used: the warm run normalizes
        // fewer labels from scratch than the cold one.
        let misses = |telemetry: &qi_runtime::Telemetry| {
            telemetry.snapshot().counters["cache.naming.texts.misses"]
        };
        let (warm, cold) = (misses(&warm_telemetry), misses(&cold_telemetry));
        assert!(warm < cold, "warm run missed {warm}, cold run {cold}");
    }

    #[test]
    fn policy_accessor() {
        let lexicon = Lexicon::builtin();
        let labeler = Labeler::new(&lexicon, NamingPolicy::most_general_baseline());
        assert_eq!(
            labeler.policy().selection,
            crate::policy::LabelSelection::MostGeneral
        );
    }
}
