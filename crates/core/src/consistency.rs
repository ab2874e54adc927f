//! The three levels of naming consistency (Definition 2).
//!
//! Two tuples of a group relation are consistent at a level when they
//! share at least one cluster column whose labels relate at that level.
//! Levels are cumulative when *relaxing*: the algorithm first demands
//! plain string equality; failing that it accepts content-word equality;
//! failing that, synonymy (§4.1, "the general directions of the
//! algorithm").

//!
//! Consistency itself is evaluated on interned relations: see
//! [`crate::kernel::InternedRelation::consistent`].

use crate::relations::LabelRelation;

/// Consistency level of Definition 2, in relaxation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConsistencyLevel {
    /// Plain string comparison on display-normalized labels.
    String,
    /// Content-word set equality.
    Equality,
    /// Definition 1 synonymy.
    Synonymy,
}

impl ConsistencyLevel {
    /// The relaxation ladder, strongest first.
    pub const LADDER: [ConsistencyLevel; 3] = [
        ConsistencyLevel::String,
        ConsistencyLevel::Equality,
        ConsistencyLevel::Synonymy,
    ];

    /// Does `rel` satisfy this level (cumulatively)?
    pub fn admits(self, rel: LabelRelation) -> bool {
        match self {
            ConsistencyLevel::String => rel == LabelRelation::StringEqual,
            ConsistencyLevel::Equality => {
                matches!(rel, LabelRelation::StringEqual | LabelRelation::Equal)
            }
            ConsistencyLevel::Synonymy => matches!(
                rel,
                LabelRelation::StringEqual | LabelRelation::Equal | LabelRelation::Synonym
            ),
        }
    }
}

impl std::fmt::Display for ConsistencyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyLevel::String => write!(f, "string"),
            ConsistencyLevel::Equality => write!(f, "equality"),
            ConsistencyLevel::Synonymy => write!(f, "synonymy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::NamingCtx;
    use crate::kernel::{GroupRelation, InternedRelation};
    use qi_lexicon::Lexicon;
    use qi_mapping::ClusterId;

    /// Definition 2 on a two-tuple relation.
    fn tuples_consistent(
        a: &[Option<&str>],
        b: &[Option<&str>],
        level: ConsistencyLevel,
        ctx: &NamingCtx<'_>,
    ) -> bool {
        let clusters: Vec<ClusterId> = (0..a.len() as u32).map(ClusterId).collect();
        let relation = GroupRelation::from_rows(&clusters, &[a.to_vec(), b.to_vec()], ctx);
        let mut interned = InternedRelation::new(&relation, ctx);
        let forward = interned.consistent(0, 1, level, ctx);
        assert_eq!(forward, interned.consistent(1, 0, level, ctx), "symmetric");
        forward
    }

    #[test]
    fn ladder_order() {
        assert!(ConsistencyLevel::String < ConsistencyLevel::Equality);
        assert!(ConsistencyLevel::Equality < ConsistencyLevel::Synonymy);
        assert_eq!(ConsistencyLevel::LADDER.len(), 3);
    }

    #[test]
    fn admits_is_cumulative() {
        use LabelRelation::*;
        assert!(ConsistencyLevel::String.admits(StringEqual));
        assert!(!ConsistencyLevel::String.admits(Equal));
        assert!(ConsistencyLevel::Equality.admits(StringEqual));
        assert!(ConsistencyLevel::Equality.admits(Equal));
        assert!(!ConsistencyLevel::Equality.admits(Synonym));
        assert!(ConsistencyLevel::Synonymy.admits(Synonym));
        assert!(!ConsistencyLevel::Synonymy.admits(Hypernym));
    }

    /// Table 2: british and economytravel are string-level consistent via
    /// the shared labels Adults and Children.
    #[test]
    fn table2_string_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let british = [Some("Seniors"), Some("Adults"), Some("Children"), None];
        let economy = [None, Some("Adults"), Some("Children"), Some("Infants")];
        assert!(tuples_consistent(
            &british,
            &economy,
            ConsistencyLevel::String,
            &ctx
        ));
        // aa vs airtravel share no label (aa: Adults/Children; airtravel
        // after expansion: all nulls — modeled here with distinct labels).
        let aa = [None, Some("Adults"), Some("Children"), None];
        let airfareplanet = [None, Some("Adult"), Some("Child"), Some("Infant")];
        assert!(!tuples_consistent(
            &aa,
            &airfareplanet,
            ConsistencyLevel::String,
            &ctx
        ));
        // …but Adult/Adults are content-word equal, so the equality level
        // connects them.
        assert!(tuples_consistent(
            &aa,
            &airfareplanet,
            ConsistencyLevel::Equality,
            &ctx
        ));
    }

    /// Table 4: Preferred Airline vs Airline Preference is equality-level.
    #[test]
    fn table4_equality_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let alldest = [None, Some("Class of Ticket"), Some("Preferred Airline")];
        let cheap = [
            Some("Max. Number of Stops"),
            None,
            Some("Airline Preference"),
        ];
        assert!(!tuples_consistent(
            &alldest,
            &cheap,
            ConsistencyLevel::String,
            &ctx
        ));
        assert!(tuples_consistent(
            &alldest,
            &cheap,
            ConsistencyLevel::Equality,
            &ctx
        ));
    }

    #[test]
    fn synonymy_level() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        let a = [Some("Area of Study"), None];
        let b = [Some("Field of Work"), Some("Company")];
        assert!(!tuples_consistent(&a, &b, ConsistencyLevel::Equality, &ctx));
        assert!(tuples_consistent(&a, &b, ConsistencyLevel::Synonymy, &ctx));
    }

    #[test]
    fn disjoint_columns_never_consistent() {
        let lex = Lexicon::builtin();
        let ctx = NamingCtx::new(&lex);
        // Table 3: {State, City} rows vs {Zip, Distance} rows share no
        // column.
        let a = [Some("State"), Some("City"), None, None];
        let b = [None, None, Some("Zip Code"), Some("Distance")];
        for level in ConsistencyLevel::LADDER {
            assert!(!tuples_consistent(&a, &b, level, &ctx));
        }
    }
}
