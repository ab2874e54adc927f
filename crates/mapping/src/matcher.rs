//! A label-similarity matcher deriving clusters when ground truth is
//! absent.
//!
//! The paper assumes the clusters are given ("we assume the semantic
//! relationships between the attributes ... have been already computed",
//! §2.1, citing \[10, 23, 24\]). The curated corpus ships ground-truth
//! clusters; this module provides a matcher for the synthetic corpus and
//! for users bringing their own interfaces: fields across schemas are
//! clustered by union-find over label similarity (string equality,
//! content-word-set equality, or token-wise synonymy against the
//! lexicon), with the constraint that two fields of the *same* schema are
//! never merged (intra-interface labels are assumed distinct concepts).
//!
//! Two equivalent engines implement the clustering. The default is the
//! indexed candidate-generation engine of [`crate::index`] — it scores
//! distinct labels instead of fields, decides each pair of distinct
//! content words once, and scores only the label pairs whose every word
//! has a related word on the other side, feeding a schema-bitset
//! union-find. The original brute-force double loop is kept as a
//! reference implementation ([`match_by_labels_naive`]); both produce
//! bit-identical [`Mapping`]s, which the test suite asserts on
//! randomized corpora.

use crate::cluster::{FieldRef, Mapping};
use crate::index::{indexed_run, Field};
use qi_lexicon::Lexicon;
use qi_schema::{NodeId, SchemaTree};
use qi_text::{levenshtein_within, prefix_abbreviation, ContentWord, LabelText};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Matcher configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatcherConfig {
    /// Enable the fuzzy token tier: abbreviations (`qty` ~ `quantity`)
    /// and near-identical spellings (`adress` ~ `address`). Off by
    /// default — fuzzy matching trades precision for recall.
    pub fuzzy: bool,
    /// Minimum normalized Levenshtein similarity for the fuzzy tier.
    pub min_similarity: f64,
    /// Worker threads for the fuzzy word-pair evaluations of the indexed
    /// engine's word relation (`0` = use the hardware, clamped by
    /// `qi-runtime`). They only fan out on corpora large enough to repay
    /// the spawn cost, and the result is identical for every worker
    /// count.
    pub threads: usize,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            fuzzy: false,
            min_similarity: 0.85,
            threads: 0,
        }
    }
}

/// Which tier of the match predicate accepted a label pair. The tiers
/// are ordered from cheapest to most expensive evidence; classification
/// is the *weakest sufficient* tier — a pair is `Fuzzy` only if at least
/// one token connection genuinely required the fuzzy tier, `Synonym`
/// only if at least one token needed the lexicon (and none needed
/// fuzzy), and so on. The drift benchmarks and `DriftReport` use these
/// to prove a corpus exercises the expensive scoring paths instead of
/// short-circuiting on identical strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchTier {
    /// Display strings are ASCII-case-equal.
    String,
    /// Content-word key sets are equal (covers reordered words and
    /// morphological variants that stem together).
    WordSet,
    /// At least one token connection needed lexicon synonymy.
    Synonym,
    /// At least one token connection needed the fuzzy tier
    /// (abbreviation or bounded edit distance).
    Fuzzy,
}

/// Operational counters of one matcher run. Always collected — every
/// field is a plain `u64` bumped on paths that already do real work, so
/// the cost is a handful of register increments per stage, not an
/// atomic or a lock. [`MatchStats::record`] copies the totals into a
/// [`qi_runtime::Telemetry`] registry at the run boundary.
///
/// Cross-engine invariant (asserted by `tests/matcher_props.rs`): the
/// indexed and naive engines report identical `pairs_accepted`,
/// per-tier `accepted_*` counters, and
/// `clusters_merged` on every corpus — the indexed candidate set holds
/// every matching pair and both engines merge accepted pairs
/// in ascending `(i, j)` order with the same clash predicate.
/// `pairs_scored` legitimately differs (that gap is the work the index
/// saves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Fields collected across all schemas.
    pub fields_total: u64,
    /// Fields carrying a non-empty normalized label.
    pub fields_labeled: u64,
    /// Distinct stem keys the indexed engine posts words under.
    pub stem_buckets: u64,
    /// Distinct synset ids the indexed engine posts words under.
    pub synset_buckets: u64,
    /// Distinct fuzzy signature characters the indexed engine posts
    /// words under.
    pub fuzzy_buckets: u64,
    /// Most words in one posting list over all three families.
    pub max_bucket_size: u64,
    /// Field pairs whose verdict the engine decided. The indexed engine
    /// decides a field pair by scoring its pair of distinct labels, or
    /// without scoring when both fields share a label key.
    pub pairs_scored: u64,
    /// Evaluations of the match predicate: one per scored field pair in
    /// the naive engine, one per scored (ordered) pair of distinct labels
    /// in the indexed engine. The gap to `pairs_scored` is the work label
    /// deduplication saves.
    pub label_pairs_scored: u64,
    /// Pairs the predicate accepted.
    pub pairs_accepted: u64,
    /// Accepted pairs whose display strings were equal
    /// ([`MatchTier::String`]).
    pub accepted_string: u64,
    /// Accepted pairs with equal content-word key sets
    /// ([`MatchTier::WordSet`]).
    pub accepted_word_set: u64,
    /// Accepted pairs that needed lexicon synonymy
    /// ([`MatchTier::Synonym`]).
    pub accepted_synonym: u64,
    /// Accepted pairs that needed the fuzzy tier ([`MatchTier::Fuzzy`]).
    pub accepted_fuzzy: u64,
    /// Accepted pairs that actually united two components (root merges
    /// not blocked by the same-schema clash check).
    pub clusters_merged: u64,
    /// Whether word blocking fell back to all word pairs: signature
    /// postings cannot find every fuzzy partner at this threshold.
    pub streaming_fallback: bool,
    /// Always 0: candidates are exact in both blocking regimes, so no
    /// label pairs are streamed through scoring blocks.
    pub streaming_blocks: u64,
}

impl MatchStats {
    /// Copy the totals into a telemetry registry under `matcher.*`:
    /// volumes as counters, index shape as gauges. A disabled registry
    /// makes this a no-op after one pointer check.
    pub fn record(&self, telemetry: &qi_runtime::Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.add("matcher.fields_total", self.fields_total);
        telemetry.add("matcher.fields_labeled", self.fields_labeled);
        telemetry.add("matcher.pairs_scored", self.pairs_scored);
        telemetry.add("matcher.label_pairs_scored", self.label_pairs_scored);
        telemetry.add("matcher.pairs_accepted", self.pairs_accepted);
        telemetry.add("matcher.accepted.string", self.accepted_string);
        telemetry.add("matcher.accepted.word_set", self.accepted_word_set);
        telemetry.add("matcher.accepted.synonym", self.accepted_synonym);
        telemetry.add("matcher.accepted.fuzzy", self.accepted_fuzzy);
        telemetry.add("matcher.clusters_merged", self.clusters_merged);
        telemetry.add(
            "matcher.streaming_fallbacks",
            u64::from(self.streaming_fallback),
        );
        telemetry.gauge("matcher.postings.stem_buckets", self.stem_buckets);
        telemetry.gauge("matcher.postings.synset_buckets", self.synset_buckets);
        telemetry.gauge("matcher.postings.fuzzy_buckets", self.fuzzy_buckets);
        telemetry.gauge_max("matcher.postings.max_bucket_size", self.max_bucket_size);
    }

    /// Bump the accept counters for one accepted pair.
    pub(crate) fn count_accept(&mut self, tier: MatchTier) {
        self.pairs_accepted += 1;
        match tier {
            MatchTier::String => self.accepted_string += 1,
            MatchTier::WordSet => self.accepted_word_set += 1,
            MatchTier::Synonym => self.accepted_synonym += 1,
            MatchTier::Fuzzy => self.accepted_fuzzy += 1,
        }
    }

    /// Accumulate another run's counters into this one — used when a
    /// sharded pipeline matches many domains independently and reports
    /// one corpus-wide total. Volume counters add; index-shape gauges
    /// take the max; the streaming flag ORs.
    pub fn absorb(&mut self, other: &MatchStats) {
        self.fields_total += other.fields_total;
        self.fields_labeled += other.fields_labeled;
        self.stem_buckets = self.stem_buckets.max(other.stem_buckets);
        self.synset_buckets = self.synset_buckets.max(other.synset_buckets);
        self.fuzzy_buckets = self.fuzzy_buckets.max(other.fuzzy_buckets);
        self.max_bucket_size = self.max_bucket_size.max(other.max_bucket_size);
        self.pairs_scored += other.pairs_scored;
        self.label_pairs_scored += other.label_pairs_scored;
        self.pairs_accepted += other.pairs_accepted;
        self.accepted_string += other.accepted_string;
        self.accepted_word_set += other.accepted_word_set;
        self.accepted_synonym += other.accepted_synonym;
        self.accepted_fuzzy += other.accepted_fuzzy;
        self.clusters_merged += other.clusters_merged;
        self.streaming_fallback |= other.streaming_fallback;
        self.streaming_blocks += other.streaming_blocks;
    }
}

/// Union-find with path compression.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// True when two normalized labels should fall into the same cluster:
/// string-equal, content-word-set equal, or pairwise token synonymy with
/// equal cardinality (a lightweight version of Definition 1's `synonym`).
pub fn labels_match(a: &LabelText, b: &LabelText, lexicon: &Lexicon) -> bool {
    labels_match_with(a, b, lexicon, MatcherConfig::default())
}

/// [`labels_match`] with an explicit configuration.
pub fn labels_match_with(
    a: &LabelText,
    b: &LabelText,
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> bool {
    match_tier_with(a, b, lexicon, config).is_some()
}

/// The match predicate with its verdict classified by [`MatchTier`]:
/// `None` when the pair does not match, otherwise the weakest tier whose
/// evidence sufficed. Boolean-equivalent to the original predicate —
/// per token, `∃wb (key ∨ synonym ∨ fuzzy)` distributes over the
/// disjunction, so probing the cheap evidence first can never change
/// whether a token (and hence the pair) matches, only which tier gets
/// the credit.
pub fn match_tier_with(
    a: &LabelText,
    b: &LabelText,
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> Option<MatchTier> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    if a.string_equal(b) {
        return Some(MatchTier::String);
    }
    if a.word_equal(b) {
        return Some(MatchTier::WordSet);
    }
    if a.words.len() != b.words.len() {
        return None;
    }
    fn form(w: &ContentWord) -> (&str, &str) {
        (&w.lemma, &w.stem)
    }
    let mut needed_synonym = false;
    let mut needed_fuzzy = false;
    for wa in &a.words {
        if b.words.iter().any(|wb| wa.key() == wb.key()) {
            continue;
        }
        if b.words
            .iter()
            .any(|wb| lexicon.are_synonyms(&wa.lemma, &wb.lemma))
        {
            needed_synonym = true;
            continue;
        }
        if config.fuzzy
            && b.words
                .iter()
                .any(|wb| fuzzy_token_match(form(wa), form(wb), config))
        {
            needed_fuzzy = true;
            continue;
        }
        return None;
    }
    if needed_fuzzy {
        Some(MatchTier::Fuzzy)
    } else if needed_synonym {
        Some(MatchTier::Synonym)
    } else {
        // Every token key-matched yet the key sets were unequal — only
        // reachable when the labels' deduplicated stems coincide as sets
        // but `word_equal` said no (it cannot: equal cardinality plus a
        // total key-injection forces set equality). Kept as a defensive
        // classification rather than an unreachable!().
        Some(MatchTier::WordSet)
    }
}

/// Fuzzy token tier on two words given as `(lemma, stem)`: abbreviation
/// in either direction, or near-identical stems.
pub(crate) fn fuzzy_token_match(a: (&str, &str), b: (&str, &str), config: MatcherConfig) -> bool {
    let ((lemma_a, stem_a), (lemma_b, stem_b)) = (a, b);
    if prefix_abbreviation(lemma_a, lemma_b) || prefix_abbreviation(lemma_b, lemma_a) {
        return true;
    }
    // `normalized_levenshtein(stem_a, stem_b) >= min_similarity`, as an
    // edit budget: the accepted distances `d` are those with
    // `1 - d / max_len >= min_similarity`, evaluated with that same
    // expression so the two can never disagree. It falls as `d` grows, so
    // they run from 0 up to a budget, usually 0 or 1 on short stems,
    // which `levenshtein_within` checks in a linear pass. The length
    // difference is a lower bound on the distance.
    let (la, lb) = (char_len(stem_a), char_len(stem_b));
    let max_len = la.max(lb);
    if max_len == 0 {
        return 1.0 >= config.min_similarity;
    }
    let accepts = |d: usize| 1.0 - d as f64 / max_len as f64 >= config.min_similarity;
    match (0..=max_len).take_while(|&d| accepts(d)).last() {
        Some(budget) => la.abs_diff(lb) <= budget && levenshtein_within(stem_a, stem_b, budget),
        None => false,
    }
}

/// The length of `s` in characters.
pub(crate) fn char_len(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// Derive a [`Mapping`] by clustering similarly labeled fields across
/// schemas. Unlabeled fields become singleton clusters.
pub fn match_by_labels(schemas: &[SchemaTree], lexicon: &Lexicon) -> Mapping {
    match_by_labels_with(schemas, lexicon, MatcherConfig::default())
}

/// [`match_by_labels`] with an explicit configuration.
pub fn match_by_labels_with(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> Mapping {
    match_by_labels_stats(schemas, lexicon, config).0
}

/// [`match_by_labels_with`], additionally returning the run's
/// [`MatchStats`].
pub fn match_by_labels_stats(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> (Mapping, MatchStats) {
    cluster_fields(schemas, lexicon, |fields, stats| {
        indexed_run(fields, lexicon, config, stats, false).roots
    })
}

/// [`match_by_labels_stats`] on the quadratic reference engine: the
/// equivalence oracle the indexed engine is tested against.
#[doc(hidden)]
pub fn match_by_labels_naive(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    config: MatcherConfig,
) -> (Mapping, MatchStats) {
    cluster_fields(schemas, lexicon, |fields, stats| {
        naive_components(fields, lexicon, config, stats)
    })
}

/// Collect the fields of `schemas`, cluster them with `engine` (which
/// returns each field's union-find root) and emit the mapping with the
/// run's stats.
fn cluster_fields(
    schemas: &[SchemaTree],
    lexicon: &Lexicon,
    engine: impl FnOnce(&[Field], &mut MatchStats) -> Vec<usize>,
) -> (Mapping, MatchStats) {
    let fields = collect_fields(schemas, lexicon);
    let mut stats = MatchStats {
        fields_total: fields.len() as u64,
        fields_labeled: fields
            .iter()
            .filter(|(_, l)| l.as_ref().is_some_and(|l| !l.is_empty()))
            .count() as u64,
        ..MatchStats::default()
    };
    let roots = engine(&fields, &mut stats);
    (emit_clusters(&fields, &roots), stats)
}

/// Collect all fields with their normalized labels, in schema order then
/// leaf preorder — the field order every downstream determinism claim is
/// stated against. Each distinct label is looked up once, in the
/// lexicon's memo, so a label repeated across fields is normalized once
/// and shared.
pub(crate) fn collect_fields(schemas: &[SchemaTree], lexicon: &Lexicon) -> Vec<Field> {
    let mut fields: Vec<Field> = Vec::new();
    let mut texts: HashMap<&str, Arc<LabelText>> = HashMap::new();
    for (schema_idx, tree) in schemas.iter().enumerate() {
        for leaf in tree.descendant_leaves(NodeId::ROOT) {
            let label = tree.node(leaf).label.as_deref().map(|raw| {
                let text = texts.entry(raw).or_insert_with(|| lexicon.label_text(raw));
                Arc::clone(text)
            });
            fields.push((FieldRef::new(schema_idx, leaf), label));
        }
    }
    fields
}

/// The reference clustering: compare every cross-schema pair in
/// ascending `(i, j)` order, rescanning the whole field list for the
/// same-schema clash check on each tentative merge. O(n²) comparisons,
/// O(n) per merge — kept verbatim as the equivalence oracle for the
/// indexed engine.
fn naive_components(
    fields: &[Field],
    lexicon: &Lexicon,
    config: MatcherConfig,
    stats: &mut MatchStats,
) -> Vec<usize> {
    let mut uf = UnionFind::new(fields.len());
    for i in 0..fields.len() {
        let Some(label_i) = &fields[i].1 else {
            continue;
        };
        for j in (i + 1)..fields.len() {
            if fields[i].0.schema == fields[j].0.schema {
                continue;
            }
            let Some(label_j) = &fields[j].1 else {
                continue;
            };
            stats.pairs_scored += 1;
            stats.label_pairs_scored += 1;
            let Some(tier) = match_tier_with(label_i, label_j, lexicon, config) else {
                continue;
            };
            stats.count_accept(tier);
            // Merging must not put two fields of one schema in a cluster.
            let ri = uf.find(i);
            let rj = uf.find(j);
            if ri == rj {
                continue;
            }
            let schemas_i: HashSet<usize> = (0..fields.len())
                .filter(|&k| uf.find(k) == ri)
                .map(|k| fields[k].0.schema)
                .collect();
            let clash = (0..fields.len())
                .filter(|&k| uf.find(k) == rj)
                .any(|k| schemas_i.contains(&fields[k].0.schema));
            if !clash {
                uf.union(i, j);
                stats.clusters_merged += 1;
            }
        }
    }
    (0..fields.len()).map(|i| uf.find(i)).collect()
}

/// Emit clusters in first-member order: the partition (and the concept
/// naming) depends only on which fields share a root, so both engines
/// and the delta matcher funnel through this numbering.
pub(crate) fn emit_clusters(fields: &[Field], roots: &[usize]) -> Mapping {
    let (cluster_of, count) = cluster_numbering(roots);
    let mut members: Vec<Vec<FieldRef>> = vec![Vec::new(); count];
    let mut first_label: Vec<Option<&LabelText>> = vec![None; count];
    for (&k, (field, label)) in cluster_of.iter().zip(fields) {
        let k = k as usize;
        if members[k].is_empty() {
            first_label[k] = label.as_deref();
        }
        members[k].push(*field);
    }
    Mapping::from_clusters(members.into_iter().enumerate().map(|(i, m)| {
        let concept = first_label[i]
            .map(|l| l.display.clone())
            .unwrap_or_else(|| format!("unlabeled_{i}"));
        (concept, m)
    }))
}

/// Number the components of `roots` (union-find roots, each below
/// `roots.len()`) in order of their first field: each field's cluster
/// index, and the cluster count.
pub(crate) fn cluster_numbering(roots: &[usize]) -> (Vec<u32>, usize) {
    let mut number = vec![u32::MAX; roots.len()];
    let mut count = 0u32;
    let cluster_of = roots
        .iter()
        .map(|&root| {
            if number[root] == u32::MAX {
                number[root] = count;
                count += 1;
            }
            number[root]
        })
        .collect();
    (cluster_of, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_schema::spec::{leaf, unlabeled_leaf};

    fn lt(s: &str, lex: &Lexicon) -> LabelText {
        LabelText::new(s, lex)
    }

    #[test]
    fn labels_match_levels() {
        let lex = Lexicon::builtin();
        assert!(labels_match(
            &lt("Zip Code", &lex),
            &lt("zip code:", &lex),
            &lex
        ));
        assert!(labels_match(
            &lt("Type of Job", &lex),
            &lt("Job Type", &lex),
            &lex
        ));
        assert!(labels_match(
            &lt("Area of Study", &lex),
            &lt("Field of Work", &lex),
            &lex
        ));
        assert!(!labels_match(&lt("Make", &lex), &lt("Model", &lex), &lex));
        assert!(!labels_match(&lt("", &lex), &lt("Make", &lex), &lex));
    }

    #[test]
    fn cardinality_mismatch_is_not_synonymy() {
        let lex = Lexicon::builtin();
        assert!(!labels_match(
            &lt("Class", &lex),
            &lt("Class of Ticket", &lex),
            &lex
        ));
    }

    #[test]
    fn match_by_labels_clusters_across_schemas() {
        let lex = Lexicon::builtin();
        let a = SchemaTree::build("a", vec![leaf("Make"), leaf("Model")]).unwrap();
        let b = SchemaTree::build("b", vec![leaf("Brand"), leaf("Model")]).unwrap();
        let mapping = match_by_labels(&[a, b], &lex);
        assert_eq!(mapping.len(), 2); // {Make,Brand}, {Model,Model}
        let make = &mapping.clusters[0];
        assert_eq!(make.members.len(), 2);
    }

    #[test]
    fn same_schema_fields_never_merge() {
        let lex = Lexicon::builtin();
        // Both labels in schema `a` are synonyms, but they must stay apart.
        let a = SchemaTree::build("a", vec![leaf("Make"), leaf("Brand")]).unwrap();
        let b = SchemaTree::build("b", vec![leaf("Manufacturer")]).unwrap();
        let mapping = match_by_labels(&[a, b], &lex);
        // Manufacturer joins exactly one of Make/Brand; the other stays
        // its own cluster.
        assert_eq!(mapping.len(), 2);
        let sizes: Vec<usize> = mapping.clusters.iter().map(|c| c.members.len()).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        mapping
            .validate(&[
                SchemaTree::build("a", vec![leaf("Make"), leaf("Brand")]).unwrap(),
                SchemaTree::build("b", vec![leaf("Manufacturer")]).unwrap(),
            ])
            .unwrap();
    }

    #[test]
    fn fuzzy_tier_catches_abbreviations_and_typos() {
        let lex = Lexicon::builtin();
        let fuzzy = MatcherConfig {
            fuzzy: true,
            ..MatcherConfig::default()
        };
        // Abbreviation: `Qty` for `Quantity`.
        assert!(!labels_match(&lt("Qty", &lex), &lt("Quantity", &lex), &lex));
        assert!(labels_match_with(
            &lt("Qty", &lex),
            &lt("Quantity", &lex),
            &lex,
            fuzzy
        ));
        // Typo: `Adress` for `Address`.
        assert!(labels_match_with(
            &lt("Adress", &lex),
            &lt("Address", &lex),
            &lex,
            fuzzy
        ));
        // Still rejects genuinely different labels.
        assert!(!labels_match_with(
            &lt("Make", &lex),
            &lt("Model", &lex),
            &lex,
            fuzzy
        ));
    }

    /// The edit-budget form of the fuzzy tier equals its definition,
    /// abbreviation either way or `normalized_levenshtein >= threshold`,
    /// on every pair of a word list with typos, abbreviations, empty and
    /// non-ASCII stems, across thresholds from 0 to above 1.
    #[test]
    fn fuzzy_token_match_equals_its_definition() {
        let words = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "qty",
            "quantity",
            "adress",
            "address",
            "addresses",
            "color",
            "colour",
            "kolor",
            "xcolor",
            "abcdefghij",
            "xycdefghij",
            "abcdefghxy",
            "departure",
            "departvre",
            "café",
            "cafe",
            "cafés",
            "naïve",
            "naive",
            "zip",
        ];
        let thresholds = [
            0.0,
            0.3,
            0.5,
            2.0 / 3.0,
            0.8,
            0.8 + 1e-9,
            0.85,
            0.9,
            1.0,
            1.1,
        ];
        for min_similarity in thresholds {
            let config = MatcherConfig {
                fuzzy: true,
                min_similarity,
                ..MatcherConfig::default()
            };
            for a in words {
                for b in words {
                    let expected = prefix_abbreviation(a, b)
                        || prefix_abbreviation(b, a)
                        || qi_text::normalized_levenshtein(a, b) >= min_similarity;
                    let got = fuzzy_token_match((a, a), (b, b), config);
                    assert_eq!(got, expected, "{a:?} ~ {b:?} at {min_similarity}");
                }
            }
        }
    }

    #[test]
    fn fuzzy_matcher_improves_recall() {
        let lex = Lexicon::builtin();
        let a = SchemaTree::build("a", vec![leaf("Quantity"), leaf("Address")]).unwrap();
        let b = SchemaTree::build("b", vec![leaf("Qty"), leaf("Adress")]).unwrap();
        let strict = match_by_labels(&[a.clone(), b.clone()], &lex);
        assert_eq!(strict.len(), 4, "strict matcher keeps all apart");
        let fuzzy = match_by_labels_with(
            &[a, b],
            &lex,
            MatcherConfig {
                fuzzy: true,
                ..MatcherConfig::default()
            },
        );
        assert_eq!(fuzzy.len(), 2, "fuzzy matcher pairs them up");
    }

    #[test]
    fn unlabeled_fields_are_singletons() {
        let lex = Lexicon::builtin();
        let a = SchemaTree::build("a", vec![unlabeled_leaf()]).unwrap();
        let b = SchemaTree::build("b", vec![unlabeled_leaf()]).unwrap();
        let mapping = match_by_labels(&[a, b], &lex);
        assert_eq!(mapping.len(), 2);
    }

    /// Hand-built corpus exercising every match tier: exact strings,
    /// reordered words, synonyms, abbreviations, typos, unlabeled
    /// fields, and same-schema clash pressure.
    fn mixed_corpus() -> Vec<SchemaTree> {
        vec![
            SchemaTree::build(
                "airfare",
                vec![
                    leaf("Departure City"),
                    leaf("Destination City"),
                    leaf("Quantity"),
                    leaf("Class of Ticket"),
                    unlabeled_leaf(),
                ],
            )
            .unwrap(),
            SchemaTree::build(
                "flights",
                vec![
                    leaf("City of Departure"),
                    leaf("Qty"),
                    leaf("Adress"),
                    leaf("Make"),
                    leaf("Brand"),
                ],
            )
            .unwrap(),
            SchemaTree::build(
                "travel",
                vec![
                    leaf("departure city:"),
                    leaf("Address"),
                    leaf("Manufacturer"),
                    leaf("Ticket Class"),
                    unlabeled_leaf(),
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn indexed_engine_matches_naive_exactly() {
        let lex = Lexicon::builtin();
        let schemas = mixed_corpus();
        for fuzzy in [false, true] {
            let base = MatcherConfig {
                fuzzy,
                ..MatcherConfig::default()
            };
            let indexed = match_by_labels_with(&schemas, &lex, base);
            let naive = match_by_labels_naive(&schemas, &lex, base).0;
            assert_eq!(indexed, naive, "fuzzy={fuzzy}");
            indexed.validate(&schemas).expect("valid mapping");
        }
    }

    #[test]
    fn indexed_engine_matches_naive_with_low_similarity_floor() {
        // min_similarity low enough that signature blocking is
        // unsound; the word relation must fall back to all word pairs
        // and still agree with naive.
        let lex = Lexicon::builtin();
        let schemas = mixed_corpus();
        let config = MatcherConfig {
            fuzzy: true,
            min_similarity: 0.3,
            ..MatcherConfig::default()
        };
        let indexed = match_by_labels_with(&schemas, &lex, config);
        let naive = match_by_labels_naive(&schemas, &lex, config).0;
        assert_eq!(indexed, naive);
    }

    #[test]
    fn indexed_engine_matches_naive_at_fp_threshold_boundary() {
        // Regression: at min_similarity = 0.8 these 10-char stems differ
        // in their first two characters, so the pair shares no signature
        // bucket, yet its similarity 1 - 2/10 rounds to exactly 0.8 and
        // the fuzzy tier accepts it. The soundness check must classify
        // this regime as unsound and relate all word pairs —
        // a check using the rearranged (1 - 0.8)*10 < 2 expression kept
        // the buckets and silently dropped the match.
        let lex = Lexicon::builtin();
        let schemas = vec![
            SchemaTree::build("a", vec![leaf("abcdefghij")]).unwrap(),
            SchemaTree::build("b", vec![leaf("xycdefghij")]).unwrap(),
        ];
        let config = MatcherConfig {
            fuzzy: true,
            min_similarity: 0.8,
            ..MatcherConfig::default()
        };
        let indexed = match_by_labels_with(&schemas, &lex, config);
        let naive = match_by_labels_naive(&schemas, &lex, config).0;
        assert_eq!(indexed, naive);
        // Both engines must actually cluster the pair — otherwise this
        // test could pass with both of them missing the match.
        assert_eq!(indexed.len(), 1);
    }
}
