//! Integration tests reproducing every worked example of the paper —
//! Tables 1–5 and Figures 2, 4, 6, 8, 9, 11 — from the public API and the
//! evaluation corpus.

use qi::{ConsistencyLevel, Lexicon, NamingPolicy};
use qi_core::kernel::{GroupRelation, LabelSymbols};
use qi_core::{
    ctx::NamingCtx, partition::partition_tuples, solution::name_group, InferenceRule, Labeler,
};
use qi_datasets::PreparedDomain;
use qi_schema::NodeId;

fn labeled(prepared: &PreparedDomain, lexicon: &Lexicon) -> qi::LabeledInterface {
    let labeler = Labeler::new(lexicon, NamingPolicy::default());
    labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated)
}

/// The group relation over the clusters of `concepts`, built from the
/// domain's labels as a labeling run builds it.
fn concept_relation(
    prepared: &PreparedDomain,
    concepts: &[&str],
    ctx: &NamingCtx<'_>,
) -> GroupRelation {
    let clusters: Vec<_> = concepts
        .iter()
        .map(|c| prepared.mapping.by_concept(c).unwrap().id)
        .collect();
    let symbols = LabelSymbols::new(&prepared.schemas, ctx);
    GroupRelation::build(&clusters, &prepared.mapping, &symbols)
}

/// The labels schema `name` supplies to `relation`, as strings.
fn row_of(
    prepared: &PreparedDomain,
    relation: &GroupRelation,
    name: &str,
    ctx: &NamingCtx<'_>,
) -> Vec<Option<String>> {
    let idx = prepared
        .schemas
        .iter()
        .position(|s| s.name() == name)
        .unwrap();
    let tuple = relation.tuples.iter().find(|t| t.schema == idx).unwrap();
    ctx.spellings(&tuple.labels)
}

/// Table 1 / Figure 2: `airtravel`'s 1:m `Passengers` field is expanded
/// into an internal node whose label becomes an internal-node candidate
/// and which leaves the passenger clusters in clean 1:1 form.
#[test]
fn table1_passengers_expansion() {
    let domain = qi_datasets::airline::domain();
    let prepared = domain.prepare();
    prepared.mapping.validate(&prepared.schemas).unwrap();
    let airtravel_idx = prepared
        .schemas
        .iter()
        .position(|s| s.name() == "airtravel")
        .unwrap();
    let airtravel = &prepared.schemas[airtravel_idx];
    // After expansion there is an internal node labeled Passengers with
    // four unlabeled leaf children.
    let passengers = airtravel
        .internal_nodes()
        .find(|n| n.label_str() == "Passengers")
        .expect("expanded Passengers node");
    assert_eq!(airtravel.children(passengers.id).len(), 4);
    // Each child sits in a distinct passenger cluster.
    for concept in ["adult", "senior", "child", "infant"] {
        let cluster = prepared.mapping.by_concept(concept).unwrap();
        assert!(
            cluster.member_of(airtravel_idx).is_some(),
            "{concept} lost airtravel's member"
        );
    }
}

/// Table 2: the group relation of the passenger group, rebuilt from the
/// corpus schemas, contains the paper's exact rows for `british` and
/// `economytravel`.
#[test]
fn table2_group_relation_rows() {
    let prepared = qi_datasets::airline::domain().prepare();
    let lexicon = Lexicon::builtin();
    let ctx = NamingCtx::new(&lexicon);
    let relation = concept_relation(&prepared, &["senior", "adult", "child", "infant"], &ctx);
    let by_name = |name: &str| row_of(&prepared, &relation, name, &ctx);
    assert_eq!(
        by_name("british"),
        vec![
            Some("Seniors".to_string()),
            Some("Adults".to_string()),
            Some("Children".to_string()),
            None
        ]
    );
    assert_eq!(
        by_name("economytravel"),
        vec![
            None,
            Some("Adults".to_string()),
            Some("Children".to_string()),
            Some("Infants".to_string())
        ]
    );
    // §4.1: the intersect-and-union of those rows is the group's
    // consistent solution.
    let naming = name_group(&relation, &ctx, &NamingPolicy::default());
    assert!(naming.consistent);
    assert_eq!(naming.level, Some(ConsistencyLevel::String));
    let labels: Vec<String> = ctx
        .spellings(&naming.best.labels)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(labels, vec!["Seniors", "Adults", "Children", "Infants"]);
}

/// Figure 4: at the string level the passenger group relation splits into
/// partitions, at least one of which covers all four clusters.
#[test]
fn figure4_partition_graph() {
    let prepared = qi_datasets::airline::domain().prepare();
    let lexicon = Lexicon::builtin();
    let ctx = NamingCtx::new(&lexicon);
    let relation = concept_relation(&prepared, &["senior", "adult", "child", "infant"], &ctx);
    let result = partition_tuples(&relation, ConsistencyLevel::String, &ctx);
    assert!(result.partitions.len() >= 2, "heterogeneous labels split");
    assert!(result.has_full_cover(), "Proposition 1 holds");
}

/// Table 3: the auto location group relation carries the paper's rows and
/// the four clusters form a single group of the integrated interface.
#[test]
fn table3_auto_location_rows() {
    let prepared = qi_datasets::auto::domain().prepare();
    let lexicon = Lexicon::builtin();
    let ctx = NamingCtx::new(&lexicon);
    let relation = concept_relation(&prepared, &["state", "city", "zip", "distance"], &ctx);
    let by_name = |name: &str| row_of(&prepared, &relation, name, &ctx);
    let s = |v: &str| Some(v.to_string());
    assert_eq!(by_name("100auto"), vec![s("State"), s("City"), None, None]);
    assert_eq!(
        by_name("Ads4autos"),
        vec![None, None, s("Zip Code"), s("Distance")]
    );
    assert_eq!(
        by_name("CarMarket"),
        vec![s("State"), s("City"), None, None]
    );
    assert_eq!(
        by_name("cars-1"),
        vec![None, None, s("Your Zip"), s("Within")]
    );
}

/// Table 4: the service-preference rows, and the §4.2.1 expressiveness
/// election in the final integrated interface.
#[test]
fn table4_service_preferences() {
    let prepared = qi_datasets::airline::domain().prepare();
    let lexicon = Lexicon::builtin();
    let ctx = NamingCtx::new(&lexicon);
    let relation = concept_relation(&prepared, &["stops", "class", "airline"], &ctx);
    let by_name = |name: &str| row_of(&prepared, &relation, name, &ctx);
    let s = |v: &str| Some(v.to_string());
    assert_eq!(
        by_name("aa"),
        vec![s("NonStop"), None, s("Choose an Airline")]
    );
    assert_eq!(
        by_name("alldest"),
        vec![None, s("Class of Ticket"), s("Preferred Airline")]
    );
    assert_eq!(
        by_name("cheap"),
        vec![s("Max. Number of Stops"), None, s("Airline Preference")]
    );
    assert_eq!(by_name("msn"), vec![None, s("Class"), s("Airline")]);
}

/// Table 5 / Figure 6: the integrated Auto tree puts `Car Information`
/// above the `Make/Model` and `Year Range` groups, with `Keywords` inside
/// the model group.
#[test]
fn figure6_auto_integrated_tree() {
    let prepared = qi_datasets::auto::domain().prepare();
    let lexicon = Lexicon::builtin();
    let labeled = labeled(&prepared, &lexicon);
    let find_leaf = |concept: &str| {
        let cluster = prepared.mapping.by_concept(concept).unwrap().id;
        prepared.integrated.leaf_of_cluster(cluster).unwrap()
    };
    let make = find_leaf("make");
    let keyword = find_leaf("keyword");
    let year = find_leaf("year_from");
    let model_node = labeled.tree.lca(&[make, keyword]);
    assert_eq!(labeled.tree.node(model_node).label_str(), "Make/Model");
    let year_node = labeled.tree.lca(&[year, find_leaf("year_to")]);
    assert_eq!(labeled.tree.node(year_node).label_str(), "Year Range");
    let car_info = labeled.tree.lca(&[make, year]);
    assert_eq!(labeled.tree.node(car_info).label_str(), "Car Information");
    assert_ne!(car_info, NodeId::ROOT);
}

/// Figure 8 (middle): the hotels amenity node is labeled by the hypernym
/// question form, absorbed through LI3/LI4.
#[test]
fn figure8_preferences_hierarchy() {
    let prepared = qi_datasets::hotels::domain().prepare();
    let lexicon = Lexicon::builtin();
    let labeled = labeled(&prepared, &lexicon);
    let pool = prepared.mapping.by_concept("pool").unwrap().id;
    let breakfast = prepared.mapping.by_concept("breakfast").unwrap().id;
    let pool_leaf = prepared.integrated.leaf_of_cluster(pool).unwrap();
    let breakfast_leaf = prepared.integrated.leaf_of_cluster(breakfast).unwrap();
    // One amenity group spanning all four amenity concepts.
    let parent = labeled.tree.parent(pool_leaf).unwrap();
    assert_eq!(labeled.tree.parent(breakfast_leaf), Some(parent));
    // "Do you have any preferences?" earns candidacy only by absorbing
    // the specific preference labels through the hypernym hierarchy.
    let candidates = &labeled.internal[&parent].candidates;
    let question = candidates
        .iter()
        .find(|c| &*c.label == "Do you have any preferences?")
        .expect("hierarchy root must be a candidate");
    assert!(matches!(
        question.rule,
        InferenceRule::Li3 | InferenceRule::Li4
    ));
    assert!(labeled.tree.node(parent).label.is_some());
    assert!(
        labeled.report.li_usage.count(InferenceRule::Li3)
            + labeled.report.li_usage.count(InferenceRule::Li4)
            > 0,
        "hypernym-hierarchy inference unused"
    );
}

/// Figure 9 / LI6–LI7 fire on the corpus: the hotel-chain cluster bounds
/// `Chain` to `Hotel Chain` via equal instance domains, and the Book
/// `Hardcover` field label is discarded as a value of `Format`.
#[test]
fn figure9_instance_rules_fire() {
    let lexicon = Lexicon::builtin();
    let hotels = labeled(&qi_datasets::hotels::domain().prepare(), &lexicon);
    assert!(
        hotels.report.li_usage.count(InferenceRule::Li6) > 0,
        "LI6 never fired on hotels"
    );
    let book_prepared = qi_datasets::book::domain().prepare();
    let book = labeled(&book_prepared, &lexicon);
    assert!(
        book.report.li_usage.count(InferenceRule::Li7) > 0,
        "LI7 never fired on book"
    );
    // The isolated format field is labeled, and not by the value label.
    let format = book_prepared.mapping.by_concept("format").unwrap().id;
    let leaf = book_prepared.integrated.leaf_of_cluster(format).unwrap();
    let label = book.tree.node(leaf).label_str();
    assert!(
        label == "Format" || label == "Binding",
        "format labeled {label:?}"
    );
}

/// Figure 11: the integrated Real Estate interface keeps the Lease Rate
/// field unlabeled (no source ever labels it), labels its sibling `To`,
/// and labels the isolated `Garage` cluster.
#[test]
fn figure11_real_estate() {
    let prepared = qi_datasets::real_estate::domain().prepare();
    let lexicon = Lexicon::builtin();
    let labeled = labeled(&prepared, &lexicon);
    let lease_from = prepared.mapping.by_concept("lease_from").unwrap().id;
    let lease_from_leaf = prepared.integrated.leaf_of_cluster(lease_from).unwrap();
    assert!(labeled.tree.node(lease_from_leaf).label.is_none());
    let lease_to = prepared.mapping.by_concept("lease_to").unwrap().id;
    let lease_to_leaf = prepared.integrated.leaf_of_cluster(lease_to).unwrap();
    assert_eq!(labeled.tree.node(lease_to_leaf).label_str(), "To");
    // Same group (siblings).
    assert_eq!(
        labeled.tree.parent(lease_from_leaf),
        labeled.tree.parent(lease_to_leaf)
    );
    let garage = prepared.mapping.by_concept("garage").unwrap().id;
    let garage_leaf = prepared.integrated.leaf_of_cluster(garage).unwrap();
    assert!(labeled.tree.node(garage_leaf).label.is_some());
    assert_eq!(
        labeled.report.class,
        Some(qi::ConsistencyClass::WeaklyConsistent)
    );
}

/// §1 / §4.2.3: the Job integrated interface never shows two equal-level
/// labels (the `Job Type` / `Type of Job` homonym is avoided or
/// repaired).
#[test]
fn job_homonyms_resolved() {
    let prepared = qi_datasets::job::domain().prepare();
    let lexicon = Lexicon::builtin();
    let out = labeled(&prepared, &lexicon);
    let ctx = NamingCtx::new(&lexicon);
    let labels: Vec<String> = out.tree.leaves().filter_map(|l| l.label.clone()).collect();
    for i in 0..labels.len() {
        for j in (i + 1)..labels.len() {
            assert!(
                !ctx.equal_sym(ctx.sym(&labels[i]), ctx.sym(&labels[j])),
                "homonym pair survived: {:?} / {:?}",
                labels[i],
                labels[j]
            );
        }
    }
}

// ---------------------------------------------------------------------
// The query engine over the paper's own examples: the same artifacts
// the pipeline builds, interrogated through the composable /query
// syntax (tree structure × lexicon relations × labeling provenance).

fn airline_query(text: &str) -> Vec<qi_query::QueryMatch> {
    let lexicon = Lexicon::builtin();
    let telemetry = qi_runtime::Telemetry::off();
    let artifact = qi_serve::build_artifact(
        &qi_datasets::airline::domain(),
        &lexicon,
        NamingPolicy::default(),
        &telemetry,
    );
    qi_serve::run_query(
        &[&artifact],
        &lexicon,
        text,
        &qi_serve::PageParams::default(),
    )
    .unwrap_or_else(|e| panic!("{text}: {e}"))
    .matches
}

/// Table 1 / Figure 2 as a query: traversing down from the expanded
/// `Passengers` internal node yields exactly the four passenger-kind
/// fields, in tree order.
#[test]
fn figure2_passenger_expansion_answers_a_traverse_query() {
    let fields = airline_query("traverse fields from (label = \"Passengers\")");
    let labels: Vec<&str> = fields.iter().map(|m| m.label.as_deref().unwrap()).collect();
    assert_eq!(labels, ["Adults", "Seniors", "Children", "Infants"]);
    assert!(fields.iter().all(|m| m.path.starts_with("Passengers/")));
}

/// Definition 1 as a query predicate: `traveler` never appears in any
/// airline label, but the lexicon's synonymy reaches the `Passengers`
/// group the internal-node labeler named.
#[test]
fn definition1_synonymy_reaches_the_passengers_group() {
    let groups = airline_query("find groups where label synonym-of \"traveler\"");
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].label.as_deref(), Some("Passengers"));
    assert!(
        groups[0]
            .rule
            .as_deref()
            .unwrap()
            .starts_with("internal:LI"),
        "the group was named by an internal-node rule: {:?}",
        groups[0].rule
    );
}

/// §4.2 / Figure 10: the internal-node labeling rules fire across the
/// airline tree and are queryable by the rule that produced each label;
/// the strict-LI2 subset is strictly smaller than all internal rules.
#[test]
fn figure10_internal_rules_are_queryable_provenance() {
    let li2 = airline_query("find nodes where rule = \"internal:LI2\"");
    assert!(!li2.is_empty());
    assert!(li2.iter().any(|m| m.label.as_deref() == Some("Passengers")));
    let all_internal = airline_query("find nodes where rule ~ \"internal:\"");
    assert!(
        all_internal.len() > li2.len(),
        "weak/blocked variants exist"
    );
}

/// Figure 9's committee loser is preserved as provenance: the cluster
/// label `Leaving from` lost the vote to `Departure City`, and the
/// rejected-candidate predicate finds the winner by naming the loser.
#[test]
fn figure9_rejected_candidates_are_queryable() {
    let fields = airline_query("find fields where rejected = \"Leaving from\"");
    assert_eq!(fields.len(), 1);
    assert_eq!(fields[0].label.as_deref(), Some("Departure City"));
}

/// §3.1: 1:m expansion leaves the four passenger leaves without source
/// labels of their own in some interfaces; the integrated tree still
/// carries unlabeled nodes, and the query engine can isolate them.
#[test]
fn unlabeled_nodes_are_queryable() {
    let unlabeled = airline_query("find nodes where unlabeled");
    assert!(!unlabeled.is_empty());
    assert!(unlabeled.iter().all(|m| m.label.is_none()));
    let labeled = airline_query("find nodes where labeled");
    assert!(labeled.len() > unlabeled.len());
    assert!(labeled.iter().all(|m| m.label.is_some()));
}
