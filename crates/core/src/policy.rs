//! Naming policy: the configuration and ablation axes of the algorithm.

use crate::consistency::ConsistencyLevel;

/// How to pick one label (or solution) among semantically acceptable
/// alternatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelSelection {
    /// The paper's choice (§3.2.1): prefer the most descriptive label —
    /// more distinct content words first, frequency as tie-break.
    #[default]
    MostDescriptive,
    /// The WISE-Integrator \[12\] baseline: prefer the most general label —
    /// majority rule first, fewer content words as tie-break.
    MostGeneral,
}

/// Configuration of a naming run.
///
/// The defaults reproduce the paper; the other settings are ablation
/// axes (`qi_eval::ablation`, `cargo run -p qi-eval --bin ablation`):
///
/// * `max_level` — how far down the relaxation ladder of Definition 2 the
///   group-naming search may go (ablation B);
/// * `selection` — most-descriptive vs most-general (ablation A, §3.2.1
///   and §6.1.1);
/// * `use_instances` — whether the LI6/LI7 instance rules run (§6.1);
/// * `repair_conflicts` — whether homonym conflicts are repaired (§4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamingPolicy {
    /// Deepest consistency level to try.
    pub max_level: ConsistencyLevel,
    /// Label-selection strategy.
    pub selection: LabelSelection,
    /// Enable instance-based inference rules (LI6, LI7).
    pub use_instances: bool,
    /// Enable homonym conflict repair.
    pub repair_conflicts: bool,
}

impl Default for NamingPolicy {
    fn default() -> Self {
        NamingPolicy {
            max_level: ConsistencyLevel::Synonymy,
            selection: LabelSelection::MostDescriptive,
            use_instances: true,
            repair_conflicts: true,
        }
    }
}

impl NamingPolicy {
    /// The WISE-Integrator-style baseline configuration: most-general
    /// labels, no conflict repair (renaming is delegated to a designer in
    /// the classic methodologies — §8).
    pub fn most_general_baseline() -> Self {
        NamingPolicy {
            max_level: ConsistencyLevel::Synonymy,
            selection: LabelSelection::MostGeneral,
            use_instances: false,
            repair_conflicts: false,
        }
    }

    /// The consistency levels this policy permits, in relaxation order.
    pub fn levels(&self) -> Vec<ConsistencyLevel> {
        ConsistencyLevel::LADDER
            .into_iter()
            .filter(|&l| l <= self.max_level)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_paper() {
        let p = NamingPolicy::default();
        assert_eq!(p.max_level, ConsistencyLevel::Synonymy);
        assert_eq!(p.selection, LabelSelection::MostDescriptive);
        assert!(p.use_instances);
        assert!(p.repair_conflicts);
        assert_eq!(p.levels().len(), 3);
    }

    #[test]
    fn level_ladder_is_truncated() {
        let p = NamingPolicy {
            max_level: ConsistencyLevel::String,
            ..NamingPolicy::default()
        };
        assert_eq!(p.levels(), vec![ConsistencyLevel::String]);
        let p = NamingPolicy {
            max_level: ConsistencyLevel::Equality,
            ..NamingPolicy::default()
        };
        assert_eq!(
            p.levels(),
            vec![ConsistencyLevel::String, ConsistencyLevel::Equality]
        );
    }

    #[test]
    fn baseline_flips_selection() {
        let b = NamingPolicy::most_general_baseline();
        assert_eq!(b.selection, LabelSelection::MostGeneral);
        assert!(!b.use_instances);
        assert!(!b.repair_conflicts);
    }
}
