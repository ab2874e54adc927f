//! Meaningful labeling of integrated query interfaces.
//!
//! This crate is the paper's primary contribution (Dragut, Yu, Meng —
//! VLDB 2006): given the source query interfaces of a domain, the cluster
//! mapping between their fields, and the integrated schema tree produced
//! by the structural merge, assign a label to every node of the integrated
//! interface such that
//!
//! * fields within a group carry mutually consistent labels (*horizontal
//!   consistency*, §4), and
//! * internal-node labels are consistent with each other and with their
//!   descendant groups (*vertical consistency*, §5).
//!
//! The crate is organized module-per-concept:
//!
//! | module | paper |
//! |---|---|
//! | [`relations`] | Definition 1 — `string_equal`/`equal`/`synonym`/`hypernym` |
//! | [`ctx`] | normalization + relation memoization |
//! | [`kernel`] | §4 group relations over interned labels; label-id rows, consistency as bitmasks |
//! | [`consistency`] | Definition 2 — the three consistency levels |
//! | [`combine`] | Definitions 3–4 — `Combine`, `Combine*`, tuple-solutions |
//! | [`partition`] | §4.1.1 — graph closure into maximal partitions |
//! | [`solution`] | §4.2 — consistent & partially consistent naming |
//! | [`conflicts`] | §4.2.3 — homonym detection and repair |
//! | [`isolated`] | §4.4 — RAN-style labeling of isolated clusters |
//! | [`internal`] | §5 — candidate labels for internal nodes, LI1–LI5 |
//! | [`instances`] | §6.1 — LI6/LI7 instance-based refinements |
//! | [`labeler`] | §6 — the three-phase naming algorithm, Definition 8 |
//! | [`provenance`] | why each node got its label, one record per node |
//! | [`policy`] | configuration & ablation axes |
//! | [`report`] | naming outcome, consistency class, LI usage (Fig. 10) |
//!
//! # Quick start
//!
//! ```
//! use qi_core::{Labeler, NamingPolicy};
//! use qi_lexicon::Lexicon;
//! use qi_mapping::{expand_one_to_many, Mapping, FieldRef};
//! use qi_schema::{SchemaTree, spec::{leaf, node}};
//!
//! // Two tiny airline interfaces.
//! let a = SchemaTree::build("british", vec![node(
//!     "Passengers", vec![leaf("Seniors"), leaf("Adults"), leaf("Children")],
//! )]).unwrap();
//! let b = SchemaTree::build("economytravel", vec![node(
//!     "Travelers", vec![leaf("Adults"), leaf("Children"), leaf("Infants")],
//! )]).unwrap();
//! let (al, bl) = (a.descendant_leaves(qi_schema::NodeId::ROOT),
//!                 b.descendant_leaves(qi_schema::NodeId::ROOT));
//! let mut mapping = Mapping::from_clusters(vec![
//!     ("c_Senior".into(), vec![FieldRef::new(0, al[0])]),
//!     ("c_Adult".into(),  vec![FieldRef::new(0, al[1]), FieldRef::new(1, bl[0])]),
//!     ("c_Child".into(),  vec![FieldRef::new(0, al[2]), FieldRef::new(1, bl[1])]),
//!     ("c_Infant".into(), vec![FieldRef::new(1, bl[2])]),
//! ]);
//! let mut schemas = vec![a, b];
//! expand_one_to_many(&mut schemas, &mut mapping);
//! let integrated = qi_merge::merge(&schemas, &mapping);
//!
//! let lexicon = Lexicon::builtin();
//! let labeler = Labeler::new(&lexicon, NamingPolicy::default());
//! let labeled = labeler.label(&schemas, &mapping, &integrated);
//!
//! // The intersect-and-union strategy of §4.1 finds the consistent
//! // solution (Seniors, Adults, Children, Infants).
//! let labels: Vec<String> = labeled.tree.leaves()
//!     .map(|l| l.label_str().to_string()).collect();
//! assert_eq!(labels, vec!["Seniors", "Adults", "Children", "Infants"]);
//! ```

pub mod combine;
pub mod conflicts;
pub mod consistency;
pub mod ctx;
pub mod instances;
pub mod internal;
pub mod isolated;
pub mod kernel;
pub mod labeler;
pub mod partition;
pub mod policy;
pub mod provenance;
pub mod relations;
pub mod report;
pub mod solution;

pub use consistency::ConsistencyLevel;
pub use ctx::{NamingCtx, NamingMemo};
pub use labeler::{InternalDecision, LabeledInterface, Labeler};
pub use policy::{LabelSelection, NamingPolicy};
pub use provenance::{DecisionCandidate, LabelDecision};
pub use relations::LabelRelation;
pub use report::{ConsistencyClass, InferenceRule, LiUsage, NamingReport};
