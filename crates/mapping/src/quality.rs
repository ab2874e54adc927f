//! Matching quality: compare a derived mapping against ground truth.
//!
//! The paper assumes perfect clusters; when the [`crate::matcher`] derives
//! them instead, these pairwise precision/recall metrics quantify the
//! damage — the standard evaluation for interface matching (\[10, 24\]).

use crate::cluster::{FieldRef, Mapping};
use crate::index::pack;
use std::cmp::Ordering;

/// Pairwise matching quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchQuality {
    /// Fraction of derived co-cluster pairs that are true pairs.
    pub precision: f64,
    /// Fraction of true co-cluster pairs that were derived.
    pub recall: f64,
    /// True/derived/correct pair counts, for reporting.
    pub truth_pairs: usize,
    /// Number of derived pairs.
    pub derived_pairs: usize,
    /// Number of derived pairs that are correct.
    pub correct_pairs: usize,
}

impl MatchQuality {
    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Every co-cluster pair of `mapping` as packed `(lo, hi)` indices into
/// `fields` (sorted, holding every member), sorted and deduplicated. A
/// member listed twice in one cluster pairs with itself, as a pair of
/// equal `FieldRef`s does.
fn pairs(mapping: &Mapping, fields: &[FieldRef]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for cluster in &mapping.clusters {
        ids.clear();
        ids.extend(
            cluster
                .members
                .iter()
                .map(|f| fields.partition_point(|g| g < f) as u32),
        );
        ids.sort_unstable();
        for (i, &a) in ids.iter().enumerate() {
            out.extend(ids[i + 1..].iter().map(|&b| pack(a, b)));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Pairwise precision/recall of `derived` against `truth`.
pub fn pairwise_quality(derived: &Mapping, truth: &Mapping) -> MatchQuality {
    let mut fields: Vec<FieldRef> = [derived, truth]
        .iter()
        .flat_map(|m| &m.clusters)
        .flat_map(|c| c.members.iter().copied())
        .collect();
    fields.sort_unstable();
    fields.dedup();
    let truth_pairs = pairs(truth, &fields);
    let derived_pairs = pairs(derived, &fields);
    let (mut x, mut y, mut correct) = (0, 0, 0);
    while x < derived_pairs.len() && y < truth_pairs.len() {
        match derived_pairs[x].cmp(&truth_pairs[y]) {
            Ordering::Less => x += 1,
            Ordering::Greater => y += 1,
            Ordering::Equal => {
                correct += 1;
                x += 1;
                y += 1;
            }
        }
    }
    let ratio = |n: usize| {
        if n == 0 {
            1.0
        } else {
            correct as f64 / n as f64
        }
    };
    MatchQuality {
        precision: ratio(derived_pairs.len()),
        recall: ratio(truth_pairs.len()),
        truth_pairs: truth_pairs.len(),
        derived_pairs: derived_pairs.len(),
        correct_pairs: correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_runtime::SplitMix64;
    use qi_schema::NodeId;
    use std::collections::BTreeSet;

    fn field(schema: usize, node: u32) -> FieldRef {
        FieldRef::new(schema, NodeId(node))
    }

    fn mapping(clusters: &[&[FieldRef]]) -> Mapping {
        Mapping::from_clusters(
            clusters
                .iter()
                .enumerate()
                .map(|(i, m)| (format!("c{i}"), m.to_vec())),
        )
    }

    #[test]
    fn identical_mappings_are_perfect() {
        let truth = mapping(&[&[field(0, 1), field(1, 1)], &[field(0, 2), field(1, 2)]]);
        let q = pairwise_quality(&truth, &truth);
        assert_eq!(q.precision, 1.0);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.f1(), 1.0);
        assert_eq!(q.truth_pairs, 2);
    }

    #[test]
    fn singletons_only_give_full_precision_zero_recall() {
        let truth = mapping(&[&[field(0, 1), field(1, 1)]]);
        let derived = mapping(&[&[field(0, 1)], &[field(1, 1)]]);
        let q = pairwise_quality(&derived, &truth);
        assert_eq!(q.precision, 1.0); // vacuous: no derived pairs
        assert_eq!(q.recall, 0.0);
        assert_eq!(q.f1(), 0.0);
    }

    #[test]
    fn over_merging_hurts_precision() {
        let truth = mapping(&[&[field(0, 1), field(1, 1)], &[field(0, 2), field(1, 2)]]);
        let derived = mapping(&[&[field(0, 1), field(1, 1), field(0, 2), field(1, 2)]]);
        let q = pairwise_quality(&derived, &truth);
        assert!(q.precision < 1.0, "precision {}", q.precision);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.derived_pairs, 6);
        assert_eq!(q.correct_pairs, 2);
    }

    #[test]
    fn partial_splits_hurt_recall() {
        let truth = mapping(&[&[field(0, 1), field(1, 1), field(2, 1)]]);
        let derived = mapping(&[&[field(0, 1), field(1, 1)], &[field(2, 1)]]);
        let q = pairwise_quality(&derived, &truth);
        assert_eq!(q.precision, 1.0);
        assert!((q.recall - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_truth_is_vacuously_recalled() {
        let truth = mapping(&[&[field(0, 1)]]);
        let derived = mapping(&[&[field(0, 1)]]);
        let q = pairwise_quality(&derived, &truth);
        assert_eq!(q.recall, 1.0);
        assert_eq!(q.precision, 1.0);
    }

    /// The set-of-pairs definition the merge walk must reproduce.
    fn reference(derived: &Mapping, truth: &Mapping) -> MatchQuality {
        let pairs = |mapping: &Mapping| {
            let mut out = BTreeSet::new();
            for cluster in &mapping.clusters {
                for (i, &a) in cluster.members.iter().enumerate() {
                    for &b in &cluster.members[i + 1..] {
                        out.insert(if a < b { (a, b) } else { (b, a) });
                    }
                }
            }
            out
        };
        let (derived, truth) = (pairs(derived), pairs(truth));
        let correct = derived.intersection(&truth).count();
        let ratio = |n: usize| {
            if n == 0 {
                1.0
            } else {
                correct as f64 / n as f64
            }
        };
        MatchQuality {
            precision: ratio(derived.len()),
            recall: ratio(truth.len()),
            truth_pairs: truth.len(),
            derived_pairs: derived.len(),
            correct_pairs: correct,
        }
    }

    /// Up to five clusters over a 12-field universe, so clusters overlap
    /// (a field in several clusters, as before 1:m expansion), members
    /// repeat, and some mappings have no pair at all.
    fn random_mapping(rng: &mut SplitMix64) -> Mapping {
        let clusters: Vec<Vec<FieldRef>> = (0..rng.gen_range(6))
            .map(|_| {
                (0..rng.gen_range(6))
                    .map(|_| field(rng.gen_range(3), rng.gen_range(4) as u32))
                    .collect()
            })
            .collect();
        let refs: Vec<&[FieldRef]> = clusters.iter().map(Vec::as_slice).collect();
        mapping(&refs)
    }

    #[test]
    fn merge_walk_equals_pair_set_reference() {
        let (mut empty, mut repeated, mut partial) = (0, 0, 0);
        for case in 0..512u64 {
            let mut rng = SplitMix64::new(0x9A1E_0020 ^ case);
            let derived = random_mapping(&mut rng);
            let truth = random_mapping(&mut rng);
            let got = pairwise_quality(&derived, &truth);
            assert_eq!(got, reference(&derived, &truth), "case {case}");
            if got.derived_pairs == 0 {
                assert_eq!(got.precision, 1.0, "case {case}");
            }
            if got.truth_pairs == 0 {
                assert_eq!(got.recall, 1.0, "case {case}");
            }
            empty += (got.derived_pairs == 0 || got.truth_pairs == 0) as usize;
            partial += (got.precision > 0.0 && got.precision < 1.0) as usize;
            repeated += derived.clusters.iter().any(|c| {
                let mut m = c.members.clone();
                m.sort_unstable();
                m.windows(2).any(|w| w[0] == w[1])
            }) as usize;
        }
        // The generator must reach every shape it is meant to cover.
        assert!(
            empty > 0 && repeated > 0 && partial > 0,
            "{empty} {repeated} {partial}"
        );
    }
}
