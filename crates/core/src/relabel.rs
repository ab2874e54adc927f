//! Carryable phase-1 labeling state: what [`crate::Labeler::label_with`]
//! caches between runs so an incremental ingest relabels only the parts
//! of the integrated interface whose inputs actually changed.
//!
//! Phase 1 of the naming algorithm is the expensive part — group-relation
//! construction and naming, isolated-cluster election, and the LI1–LI5
//! candidate search per internal node. Each of those computations reads a
//! bounded slice of the domain:
//!
//! * a **group**'s relation and naming depend only on the member fields
//!   of its clusters (a schema contributing no labeled field to the group
//!   produces an all-null tuple, which `GroupRelation::build` omits);
//! * an **isolated** cluster's occurrence list depends only on its own
//!   members;
//! * an **internal node**'s candidate set over coverage `x` depends only
//!   on potential labels with `bag ⊆ x` and on the [`ClusterInfo`] of
//!   clusters in `x` (both the candidate-class construction and the LI5
//!   extension filter on containment).
//!
//! So after an append-one-interface ingest, a cached entry is valid
//! exactly when its key clusters are disjoint from the *dirty* set (old
//! clusters that gained a member) and — for internal nodes — no potential
//! label of the appended schema has its bag inside `x`. Keys mentioning a
//! newly created cluster miss naturally: new cluster ids did not exist in
//! the previous run. An entry that is not valid is recomputed from
//! scratch exactly as a batch run computes it — a touched group is
//! rebuilt by `GroupRelation::build` and named by
//! [`crate::solution::name_group`] — over the carried [`NamingMemo`], so
//! its label normalizations and pairwise relations are mostly memo hits.
//! Phases 2 and 3 re-run in full; they are cheap tree walks over phase-1
//! output.
//!
//! Labels are cached as plain `String`s, not interned symbols: the naming
//! context (and its symbol table) lives only for one run, so reused
//! candidates are re-interned on the way back in.

use crate::ctx::NamingMemo;
use crate::internal::CandidateLabel;
use crate::report::{InferenceRule, LiUsage};
use crate::solution::GroupNaming;
use qi_mapping::{ClusterId, GroupRelation};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What changed between the cached run and the current one: the
/// append-one-interface delta computed by the incremental matcher.
#[derive(Debug, Clone, Default)]
pub struct RelabelDelta {
    /// Old clusters that gained a member from the appended interface.
    pub dirty: BTreeSet<ClusterId>,
    /// Index of the appended schema.
    pub new_schema: usize,
}

impl RelabelDelta {
    /// True when none of `clusters` was touched by the append.
    pub(crate) fn clean(&self, clusters: &[ClusterId]) -> bool {
        clusters.iter().all(|c| !self.dirty.contains(c))
    }
}

/// Cached phase-1 state of one labeling run, reusable by the next run
/// via [`crate::Labeler::label_with`].
#[derive(Debug, Clone, Default)]
pub struct RelabelCache {
    /// Group key (clusters in column order) → relation + naming.
    pub(crate) groups: HashMap<Vec<ClusterId>, CachedGroup>,
    /// Internal-node coverage (sorted) → candidate set + LI usage.
    pub(crate) internal: HashMap<Vec<ClusterId>, CachedInternal>,
    /// Isolated cluster → elected label + occurrence list + LI usage.
    pub(crate) isolated: HashMap<ClusterId, CachedIsolated>,
    /// The naming memo (interner + normalized-text + relation caches)
    /// warmed by the run that produced this cache. Carried into the next
    /// run so an incremental relabel does not re-stem and re-relate the
    /// whole domain's labels from scratch. Output-neutral: see
    /// [`NamingMemo`].
    pub(crate) memo: Arc<NamingMemo>,
}

impl RelabelCache {
    /// Number of cached entries, by section — (groups, internal,
    /// isolated). Diagnostic only.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.groups.len(), self.internal.len(), self.isolated.len())
    }

    /// The naming memo warmed by the producing run.
    pub(crate) fn memo(&self) -> Arc<NamingMemo> {
        Arc::clone(&self.memo)
    }
}

#[derive(Debug, Clone)]
pub(crate) struct CachedGroup {
    pub relation: GroupRelation,
    pub naming: GroupNaming,
}

#[derive(Debug, Clone)]
pub(crate) struct CachedIsolated {
    pub chosen: Option<String>,
    pub occurrences: Vec<(String, usize)>,
    pub usage: LiUsage,
}

#[derive(Debug, Clone)]
pub(crate) struct CachedInternal {
    pub candidates: Vec<StoredCandidate>,
    pub usage: LiUsage,
}

/// A [`CandidateLabel`] with its context-relative pieces flattened out,
/// so it can outlive the naming context that produced it.
#[derive(Debug, Clone)]
pub(crate) struct StoredCandidate {
    pub label: String,
    pub schemas: BTreeSet<usize>,
    pub rule: InferenceRule,
    pub expressiveness: usize,
    pub frequency: usize,
    pub coverage: BTreeSet<ClusterId>,
}

impl StoredCandidate {
    pub(crate) fn from_candidate(candidate: &CandidateLabel) -> Self {
        StoredCandidate {
            label: candidate.label.to_string(),
            schemas: candidate.schemas.clone(),
            rule: candidate.rule,
            expressiveness: candidate.expressiveness,
            frequency: candidate.frequency,
            coverage: candidate.coverage.clone(),
        }
    }

    /// Re-intern into the current run's naming context.
    pub(crate) fn to_candidate(&self, ctx: &crate::ctx::NamingCtx) -> CandidateLabel {
        let sym = ctx.sym(&self.label);
        CandidateLabel {
            label: ctx.spelling(sym),
            sym,
            schemas: self.schemas.clone(),
            rule: self.rule,
            expressiveness: self.expressiveness,
            frequency: self.frequency,
            coverage: self.coverage.clone(),
        }
    }
}
