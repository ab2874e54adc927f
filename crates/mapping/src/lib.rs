//! Semantic correspondences between query-interface fields.
//!
//! This crate implements §2.1–§2.2 and §3 (Preliminaries) of the paper:
//!
//! * [`Cluster`]s record which fields of different schemas are semantically
//!   equivalent; a [`Mapping`] is the set of clusters for one domain.
//! * [`expand_one_to_many`] reduces 1:m matchings to 1:1 by turning the
//!   coarse-grained field into an internal node (the `Passengers` example
//!   of Figure 2 / Table 1), harvesting its label as an internal-node
//!   candidate.
//! * [`Integrated`] ties the merged schema tree to the clusters and
//!   partitions them into `C_groups` / `C_root` / `C_int`.
//! * [`matcher`] derives clusters from label similarity when ground truth
//!   is absent (used by the synthetic corpus).

pub mod cluster;
pub mod clusters_format;
pub mod delta;
mod index;
pub mod integrated;
pub mod matcher;
pub mod quality;

pub use cluster::{
    expand_one_to_many, Cluster, ClusterId, ExpansionOutcome, FieldRef, Mapping, MappingError,
};
pub use delta::{
    delta_match, delta_match_carried, match_with_carry, DeltaMapping, DeltaOutcome, FallbackReason,
    MatchCarry,
};
pub use integrated::{ClusterClass, ClusterPartition, GroupId, Integrated, IntegratedGroup};
pub use matcher::{
    labels_match, labels_match_with, match_by_labels, match_by_labels_naive, match_by_labels_stats,
    match_by_labels_with, match_tier_with, MatchStats, MatchTier, MatcherConfig,
};
pub use quality::{pairwise_quality, MatchQuality};
