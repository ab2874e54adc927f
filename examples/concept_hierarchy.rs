//! The paper's §9 claim: "our naming framework [is] also pervasive to
//! other integration areas (e.g. concept hierarchies, HTML tables,
//! ontologies)". This example applies the pipeline to two e-commerce
//! *category taxonomies* instead of query interfaces: leaf categories play
//! the role of fields, category sections play the role of groups.
//!
//! ```text
//! cargo run --example concept_hierarchy
//! ```

use qi::{integrate_and_label, NamingPolicy};
use qi_lexicon::LexiconBuilder;
use qi_mapping::{FieldRef, Mapping};
use qi_schema::{
    spec::{leaf, node},
    NodeId, SchemaTree,
};

fn field(schemas: &[SchemaTree], schema: usize, label: &str) -> FieldRef {
    let tree = &schemas[schema];
    let id = tree
        .descendant_leaves(NodeId::ROOT)
        .into_iter()
        .find(|&l| tree.node(l).label_str() == label)
        .unwrap_or_else(|| panic!("{label} not found"));
    FieldRef::new(schema, id)
}

fn main() {
    // Store 1's taxonomy.
    let shop_a = SchemaTree::build(
        "shop-a",
        vec![
            node(
                "Computers",
                vec![leaf("Laptops"), leaf("Desktops"), leaf("Monitors")],
            ),
            node("Audio", vec![leaf("Headphones"), leaf("Speakers")]),
        ],
    )
    .unwrap();
    // Store 2's taxonomy: different names, extra category.
    let shop_b = SchemaTree::build(
        "shop-b",
        vec![
            node(
                "Computing Equipment",
                vec![leaf("Notebooks"), leaf("Desktops"), leaf("Displays")],
            ),
            node(
                "Sound",
                vec![
                    leaf("Headphones"),
                    leaf("Loudspeakers"),
                    leaf("Microphones"),
                ],
            ),
        ],
    )
    .unwrap();
    let taxonomies = vec![shop_a, shop_b];

    // Category correspondences (what an ontology matcher would produce).
    let mapping = Mapping::from_clusters(vec![
        (
            "laptop".to_string(),
            vec![
                field(&taxonomies, 0, "Laptops"),
                field(&taxonomies, 1, "Notebooks"),
            ],
        ),
        (
            "desktop".to_string(),
            vec![
                field(&taxonomies, 0, "Desktops"),
                field(&taxonomies, 1, "Desktops"),
            ],
        ),
        (
            "monitor".to_string(),
            vec![
                field(&taxonomies, 0, "Monitors"),
                field(&taxonomies, 1, "Displays"),
            ],
        ),
        (
            "headphones".to_string(),
            vec![
                field(&taxonomies, 0, "Headphones"),
                field(&taxonomies, 1, "Headphones"),
            ],
        ),
        (
            "speakers".to_string(),
            vec![
                field(&taxonomies, 0, "Speakers"),
                field(&taxonomies, 1, "Loudspeakers"),
            ],
        ),
        (
            "microphones".to_string(),
            vec![field(&taxonomies, 1, "Microphones")],
        ),
    ]);

    // A domain lexicon for the taxonomy vocabulary.
    let lexicon = LexiconBuilder::new()
        .synset(&["laptop", "notebook"])
        .synset(&["desktop"])
        .synset(&["monitor", "display", "screen"])
        .synset(&["computer"])
        .synset(&["computing", "computer"])
        .synset(&["equipment", "gear"])
        .synset(&["audio", "sound"])
        .synset(&["headphone"])
        .synset(&["speaker", "loudspeaker"])
        .synset(&["microphone"])
        .hypernym("computer", "laptop")
        .hypernym("computer", "desktop")
        .build();

    let policy = NamingPolicy::default();
    let labeled = integrate_and_label(taxonomies, mapping, &lexicon, policy);
    println!("Integrated category taxonomy:\n");
    println!("{}", labeled.tree.render());
    println!(
        "consistency class: {}",
        labeled.report.class.expect("classified")
    );
    println!("\nWhy each label was chosen:\n");
    let decisions = qi_core::provenance::decisions(&labeled, &policy);
    println!("{}", qi_core::provenance::render(&decisions, None));
}
