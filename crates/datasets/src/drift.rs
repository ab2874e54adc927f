//! Drift-aware synthetic corpus generator for honest scale benchmarks.
//!
//! [`crate::synth`]'s generators (and [`crate::replicate_schemas`])
//! scale a corpus by *cloning*: every replica repeats near-identical
//! strings, so scaled runs short-circuit on the string/word-set match
//! tiers and the interner and memo-caches absorb most of the work. Real
//! interface collections do not look like that — across sites in one
//! domain, labels are paraphrased (`price` / `cost`), inflected
//! (`rating` / `ratings`), abbreviated and misspelled, fields are
//! added and dropped per site, groups are reshuffled, and the
//! vocabulary keeps growing as domains are added (the hidden-web
//! surveys VIQI and the domain-specific integrator both document
//! exactly this variation).
//!
//! This module generates such corpora deterministically per
//! [`qi_runtime::SplitMix64`] seed:
//!
//! * **Label paraphrases** — synonym swaps walked from the
//!   [`Lexicon`]'s own synsets, plus occasional hypernym lifts from its
//!   ancestor DAG, so the synonym tier (and only the lexicon the
//!   matcher itself uses) decides which drifted labels reconnect.
//! * **Morphological variants** — inflections drawn from the stemmer's
//!   inverse families: irregular surfaces from the morphology
//!   exceptions ([`Lexicon::surface_variants`]) and suffix inflections
//!   filtered to stem back to the original, exercising the
//!   lemmatizer/stemmer instead of byte-equal strings.
//! * **Fuzzy drift** — single-edit typos and prefix abbreviations on
//!   long tokens, sized so the fuzzy tier's default 0.85 similarity
//!   floor is reachable; drift stages run the matcher with
//!   `fuzzy: true`.
//! * **Field add/drop** — per-interface coverage sampling plus novel
//!   site-specific fields that exist nowhere else in the domain.
//! * **Group reshuffles** — per-interface rotation of the
//!   concept→group assignment and of the group emission order.
//! * **Vocabulary growth** — a fraction of each domain's concepts use
//!   novel domain-local tokens, so corpus vocabulary grows with the
//!   domain count instead of repeating one fixed pool.
//!
//! [`DriftReport`] runs the matcher over a generated corpus and proves
//! the drift is real: nonzero synonym- and fuzzy-tier accepts, and a
//! morphology cache-hit rate ([`morph_probe`]) bounded away from the
//! ceiling the cloned corpora sit at (the cloned replicas repeat each
//! renamed surface dozens of times, so per-occurrence lookups almost
//! always hit).

use crate::domain::Domain;
use crate::spec::FieldSpec;
use qi_lexicon::Lexicon;
use qi_mapping::{match_by_labels_stats, MatchStats, MatcherConfig};
use qi_runtime::{CacheStats, SplitMix64};
use qi_schema::SchemaTree;
use qi_text::LabelText;

/// Drift generator configuration. All probabilities are per carried
/// field (label drift) or per interface (structural drift).
#[derive(Debug, Clone, PartialEq)]
pub struct DriftConfig {
    /// RNG seed (same seed ⇒ byte-identical corpus).
    pub seed: u64,
    /// Number of domains to generate.
    pub domains: usize,
    /// Interfaces per domain.
    pub interfaces: usize,
    /// Concepts (ground-truth clusters) per domain, excluding novel
    /// site-specific fields.
    pub concepts: usize,
    /// Semantic groups per domain.
    pub groups: usize,
    /// Probability an interface carries a given concept (field drop).
    pub coverage: f64,
    /// Probability a carried field is unlabeled.
    pub unlabeled_prob: f64,
    /// Probability a group node carries a label.
    pub group_label_prob: f64,
    /// Probability a label's head noun is swapped for a lexicon synonym.
    pub paraphrase_prob: f64,
    /// Probability the head noun is lifted to a lexicon hypernym.
    pub hypernym_prob: f64,
    /// Probability a token is replaced by a morphological variant that
    /// stems back to it.
    pub morph_prob: f64,
    /// Probability the label's longest token gets a typo or prefix
    /// abbreviation (the fuzzy tier's diet).
    pub fuzzy_prob: f64,
    /// Probability the label is emitted word-order permuted
    /// (`noun of qualifier`).
    pub reorder_prob: f64,
    /// Expected number of novel site-specific fields added per
    /// interface (field add).
    pub added_fields: f64,
    /// Probability an interface reshuffles its concept→group
    /// assignment and group order.
    pub reshuffle_prob: f64,
    /// Fraction of concepts drawing their head from novel domain-local
    /// vocabulary instead of the shared lexicon pool.
    pub vocab_growth: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            seed: 0xD81F,
            domains: 7,
            interfaces: 20,
            concepts: 24,
            groups: 6,
            coverage: 0.7,
            unlabeled_prob: 0.08,
            group_label_prob: 0.6,
            paraphrase_prob: 0.25,
            hypernym_prob: 0.04,
            morph_prob: 0.2,
            fuzzy_prob: 0.12,
            reorder_prob: 0.2,
            added_fields: 1.0,
            reshuffle_prob: 0.3,
            vocab_growth: 0.3,
        }
    }
}

/// Qualifier pool for two-word base labels. Plain adjectives/modifiers:
/// no stop words (they would vanish in normalization) and no lexicon
/// nouns (heads come from there).
const QUALIFIERS: &[&str] = &[
    "primary",
    "preferred",
    "exact",
    "local",
    "total",
    "current",
    "minimum",
    "maximum",
    "nearby",
    "desired",
    "starting",
    "ending",
];

/// Generate a drift corpus: `config.domains` independent domains, each
/// with ground-truth clusters by construction. Deterministic for a
/// given config; each domain's RNG stream is derived from the seed and
/// the domain index alone, so the corpus is stable under re-slicing.
pub fn generate_drift_corpus(config: &DriftConfig, lexicon: &Lexicon) -> Vec<Domain> {
    let heads = head_pool(lexicon);
    (0..config.domains)
        .map(|d| generate_drift_domain(config, d, &heads, lexicon))
        .collect()
}

/// The shared head-noun pool: single-token lowercase lexicon lemmas in
/// deterministic build order, stop words excluded.
fn head_pool(lexicon: &Lexicon) -> Vec<String> {
    lexicon
        .lemmas_in_build_order()
        .into_iter()
        .filter(|lemma| {
            lemma.len() >= 3
                && lemma.bytes().all(|b| b.is_ascii_lowercase())
                && !qi_text::is_stop_word(lemma)
        })
        .collect()
}

/// Generate one domain of the drift corpus.
fn generate_drift_domain(
    config: &DriftConfig,
    d: usize,
    heads: &[String],
    lexicon: &Lexicon,
) -> Domain {
    let mut rng = SplitMix64::new(
        config
            .seed
            .wrapping_add((d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    let groups = config.groups.max(1);

    // Concept vocabulary: distinct heads per concept (a seeded
    // without-replacement draw over the shared pool), with a
    // `vocab_growth` fraction replaced by novel domain-local tokens —
    // digit-bearing so the stemmer passes them through verbatim and a
    // single-edit typo stays a single-edit stem difference.
    let mut order: Vec<usize> = (0..heads.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(i + 1));
    }
    let concepts: Vec<(String, String)> = (0..config.concepts)
        .map(|c| {
            let qualifier = QUALIFIERS[rng.gen_range(QUALIFIERS.len())].to_string();
            let head = if rng.gen_bool(config.vocab_growth) || heads.is_empty() {
                format!("term{d}n{c}data")
            } else {
                heads[order[c % order.len()]].clone()
            };
            (qualifier, head)
        })
        .collect();

    let mut names: Vec<String> = Vec::with_capacity(config.interfaces);
    let mut specs_per_iface: Vec<Vec<FieldSpec>> = Vec::with_capacity(config.interfaces);
    for iface in 0..config.interfaces {
        names.push(format!("d{d}s{iface:03}"));
        // Group reshuffle: rotate the concept→group assignment and the
        // group emission order by a per-interface offset.
        let offset = if iface >= 2 && rng.gen_bool(config.reshuffle_prob) {
            rng.gen_range(groups)
        } else {
            0
        };
        let mut group_members: Vec<Vec<FieldSpec>> = vec![Vec::new(); groups];
        for (c, (qualifier, head)) in concepts.iter().enumerate() {
            // The first two interfaces carry every concept with its
            // base label: ground truth stays connected and every
            // concept is labeled somewhere.
            let carried = iface < 2 || rng.gen_bool(config.coverage);
            if !carried {
                continue;
            }
            let label = if iface < 2 {
                Some(format!("{qualifier} {head}"))
            } else if rng.gen_bool(config.unlabeled_prob) {
                None
            } else {
                Some(drift_label(qualifier, head, config, lexicon, &mut rng))
            };
            group_members[(c + offset) % groups].push(FieldSpec::Field {
                concepts: vec![format!("c{c}")],
                label,
                instances: Vec::new(),
            });
        }
        // Field add: novel site-specific fields nothing else shares.
        let mut added = config.added_fields;
        let mut k = 0;
        while added >= 1.0 || (added > 0.0 && rng.gen_bool(added)) {
            added -= 1.0;
            group_members[rng.gen_range(groups)].push(FieldSpec::Field {
                concepts: vec![format!("x{iface}n{k}")],
                label: Some(format!("site{d}q{iface}k{k} option")),
                instances: Vec::new(),
            });
            k += 1;
        }
        if group_members.iter().all(Vec::is_empty) {
            let (qualifier, head) = &concepts[0];
            group_members[0].push(FieldSpec::Field {
                concepts: vec!["c0".to_string()],
                label: Some(format!("{qualifier} {head}")),
                instances: Vec::new(),
            });
        }
        let mut specs: Vec<FieldSpec> = Vec::new();
        for gi in 0..groups {
            let members = std::mem::take(&mut group_members[(gi + offset) % groups]);
            match members.len() {
                0 => {}
                1 => specs.extend(members),
                _ => {
                    let label = if rng.gen_bool(config.group_label_prob) {
                        Some(format!("group {gi} options"))
                    } else {
                        None
                    };
                    specs.push(FieldSpec::Group {
                        label,
                        children: members,
                    });
                }
            }
        }
        specs_per_iface.push(specs);
    }
    let interfaces: Vec<(&str, Vec<FieldSpec>)> = names
        .iter()
        .map(String::as_str)
        .zip(specs_per_iface)
        .collect();
    Domain::from_interfaces(&format!("drift{d}"), interfaces)
}

/// Emit one drifted surface form of the `qualifier head` base label.
fn drift_label(
    qualifier: &str,
    head: &str,
    config: &DriftConfig,
    lexicon: &Lexicon,
    rng: &mut SplitMix64,
) -> String {
    let mut qualifier = qualifier.to_string();
    let mut head = head.to_string();
    // Paraphrase: swap the head for one of its lexicon synonyms; or,
    // rarely, lift it to a hypernym (a near-miss the matcher must NOT
    // reconnect — its synonym tier is not hypernymy).
    if rng.gen_bool(config.paraphrase_prob) {
        let synonyms = lexicon.synonyms(&head);
        if !synonyms.is_empty() {
            head = synonyms[rng.gen_range(synonyms.len())].clone();
        }
    } else if rng.gen_bool(config.hypernym_prob) {
        let ancestors = lexicon.hypernym_lemmas(&head);
        if !ancestors.is_empty() {
            head = ancestors[rng.gen_range(ancestors.len())].clone();
        }
    }
    // Morphology: inflect one of the tokens within its stem family.
    if rng.gen_bool(config.morph_prob) {
        if rng.gen_bool(0.5) {
            head = morph_variant(&head, lexicon, rng);
        } else {
            qualifier = morph_variant(&qualifier, lexicon, rng);
        }
    }
    // Fuzzy drift: typo or abbreviation on the longest token.
    if rng.gen_bool(config.fuzzy_prob) {
        if head.len() >= qualifier.len() {
            head = fuzz_token(&head, rng);
        } else {
            qualifier = fuzz_token(&qualifier, rng);
        }
    }
    if rng.gen_bool(config.reorder_prob) {
        format!("{head} of {qualifier}")
    } else {
        format!("{qualifier} {head}")
    }
}

/// A morphological variant of `token` that stems back to it: an
/// irregular surface from the morphology exceptions, or a suffix
/// inflection the Porter stemmer folds back onto the original stem.
/// Falls back to the token unchanged when no variant survives the
/// stem-preservation filter.
fn morph_variant(token: &str, lexicon: &Lexicon, rng: &mut SplitMix64) -> String {
    let stem = qi_text::stem(token);
    let mut candidates: Vec<String> = lexicon.surface_variants(token);
    for suffix in ["s", "es", "ing", "ed"] {
        let inflected = if matches!(suffix, "ing" | "ed") && token.ends_with('e') {
            format!("{}{suffix}", &token[..token.len() - 1])
        } else {
            format!("{token}{suffix}")
        };
        if qi_text::stem(&inflected) == stem && !candidates.contains(&inflected) {
            candidates.push(inflected);
        }
    }
    if candidates.is_empty() {
        token.to_string()
    } else {
        candidates[rng.gen_range(candidates.len())].clone()
    }
}

/// Fuzzy-tier drift: on tokens of ≥ 7 characters, a single-character
/// deletion or substitution (similarity ≥ 6/7 ≈ 0.857, above the
/// default 0.85 floor) or a ≥ 3-character prefix abbreviation. Shorter
/// tokens are returned unchanged — a one-edit typo on them would fall
/// below the floor and just produce noise the matcher is *supposed* to
/// reject.
fn fuzz_token(token: &str, rng: &mut SplitMix64) -> String {
    if token.len() < 7 || !token.is_ascii() {
        return token.to_string();
    }
    let mut bytes = token.as_bytes().to_vec();
    match rng.gen_range(3) {
        0 => {
            // Delete one interior character.
            let pos = 1 + rng.gen_range(bytes.len() - 2);
            bytes.remove(pos);
        }
        1 => {
            // Substitute one interior character with a letter that
            // differs from the original.
            let pos = 1 + rng.gen_range(bytes.len() - 2);
            let replacement = b'a'
                + ((bytes[pos].wrapping_sub(b'a') as usize + 1 + rng.gen_range(24)) % 26) as u8;
            bytes[pos] = replacement;
        }
        _ => {
            // Prefix abbreviation: keep the first 3–4 characters.
            bytes.truncate(3 + rng.gen_range(2));
        }
    }
    String::from_utf8(bytes).expect("ascii edits stay utf8")
}

/// Morphology-cache activity of normalizing every leaf label occurrence
/// of `schemas` with `LabelText::new`, from reset `lexicon` caches: one
/// `base_form` probe per token occurrence, so the hit rate reads
/// vocabulary repetition alone. It is measured apart from the matcher,
/// which normalizes each distinct label once through
/// `Lexicon::label_text` and so probes a corpus's repeats far less.
pub fn morph_probe<'a>(
    schemas: impl IntoIterator<Item = &'a SchemaTree>,
    lexicon: &Lexicon,
) -> CacheStats {
    lexicon.reset_caches();
    for schema in schemas {
        for label in schema.leaves().filter_map(|n| n.label.as_deref()) {
            std::hint::black_box(LabelText::new(label, lexicon));
        }
    }
    lexicon.morph_cache_stats()
}

/// Proof that a generated corpus exercises the matcher's expensive
/// paths: the matcher is run (per domain, ground truth ignored) and the
/// per-tier accept counters plus the lexicon cache delta are
/// aggregated. [`DriftReport::check`] turns the claim into an error
/// when the corpus degenerated into the cloned regime.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Domains matched.
    pub domains: usize,
    /// Interfaces across all domains.
    pub interfaces: u64,
    /// Distinct raw label strings across the corpus.
    pub distinct_labels: u64,
    /// Matcher counters aggregated over all domains.
    pub stats: MatchStats,
    /// Morphology (`base_form`) cache activity of [`morph_probe`] over
    /// the corpus: one `LabelText::new` per leaf label occurrence, so
    /// the cache is probed once per *token occurrence*. The
    /// resolve/synonymy caches are probed per scored candidate pair,
    /// which floods them with repeat lookups of already-cached tokens
    /// and pins their hit rate near 1.0 regardless of corpus shape. The
    /// morphology hit rate is therefore the one lexicon signal that
    /// tracks vocabulary variety.
    pub morph_cache: CacheStats,
}

impl DriftReport {
    /// Match every domain independently and aggregate the evidence.
    /// Run with `fuzzy: true` to exercise the fuzzy tier — the default
    /// matcher keeps it off. Resets `lexicon`'s caches (see
    /// [`morph_probe`]).
    pub fn compute(domains: &[Domain], lexicon: &Lexicon, config: MatcherConfig) -> DriftReport {
        let morph_cache = morph_probe(domains.iter().flat_map(|d| &d.schemas), lexicon);
        let mut stats = MatchStats::default();
        let mut interfaces = 0u64;
        let mut labels: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for domain in domains {
            interfaces += domain.schemas.len() as u64;
            for schema in &domain.schemas {
                for node in schema.nodes() {
                    if let Some(label) = node.label.as_deref() {
                        labels.insert(label);
                    }
                }
            }
            let (_, domain_stats) = match_by_labels_stats(&domain.schemas, lexicon, config);
            stats.absorb(&domain_stats);
        }
        DriftReport {
            domains: domains.len(),
            interfaces,
            distinct_labels: labels.len() as u64,
            stats,
            morph_cache,
        }
    }

    /// Hit rate of the morphology-cache activity attributed to the run.
    pub fn cache_hit_rate(&self) -> f64 {
        self.morph_cache.hit_rate()
    }

    /// Err when the corpus fails to exercise the drift paths: zero
    /// synonym-tier accepts, zero fuzzy-tier accepts (under a fuzzy
    /// config), or a lexicon cache-hit rate at or above
    /// `max_cache_hit_rate` (the cloned-corpus ceiling the generator
    /// exists to escape).
    pub fn check(&self, fuzzy: bool, max_cache_hit_rate: f64) -> Result<(), String> {
        if self.stats.accepted_synonym == 0 {
            return Err("drift corpus produced no synonym-tier accepts".to_string());
        }
        if fuzzy && self.stats.accepted_fuzzy == 0 {
            return Err("drift corpus produced no fuzzy-tier accepts".to_string());
        }
        let rate = self.cache_hit_rate();
        if rate >= max_cache_hit_rate {
            return Err(format!(
                "morphology cache-hit rate {rate:.4} not below the cloned-corpus ceiling \
                 {max_cache_hit_rate:.4}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DriftConfig {
        DriftConfig {
            domains: 3,
            interfaces: 8,
            concepts: 12,
            ..DriftConfig::default()
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let lex = Lexicon::builtin();
        let a = generate_drift_corpus(&small(), &lex);
        let b = generate_drift_corpus(&small(), &lex);
        assert_eq!(a.len(), b.len());
        for (da, db) in a.iter().zip(&b) {
            assert_eq!(da.schemas, db.schemas);
            assert_eq!(da.mapping, db.mapping);
        }
    }

    #[test]
    fn domain_stream_is_stable_under_reslicing() {
        // Domain d of a 3-domain corpus equals domain d of a 5-domain
        // corpus: per-domain RNG streams depend only on (seed, index).
        let lex = Lexicon::builtin();
        let three = generate_drift_corpus(&small(), &lex);
        let five = generate_drift_corpus(
            &DriftConfig {
                domains: 5,
                ..small()
            },
            &lex,
        );
        for (da, db) in three.iter().zip(&five) {
            assert_eq!(da.schemas, db.schemas);
        }
    }

    #[test]
    fn ground_truth_validates_and_prepares() {
        let lex = Lexicon::builtin();
        for domain in generate_drift_corpus(&small(), &lex) {
            let prepared = domain.prepare();
            prepared.mapping.validate(&prepared.schemas).unwrap();
            assert!(prepared.integrated.tree.leaves().count() >= 12);
        }
    }

    #[test]
    fn every_concept_is_labeled_somewhere() {
        let lex = Lexicon::builtin();
        for domain in generate_drift_corpus(&small(), &lex) {
            for cluster in &domain.mapping.clusters {
                let labeled = cluster
                    .members
                    .iter()
                    .any(|m| domain.schemas[m.schema].node(m.node).label.is_some());
                assert!(
                    labeled,
                    "{}: {} never labeled",
                    domain.name, cluster.concept
                );
            }
        }
    }

    #[test]
    fn morph_variants_stem_back() {
        let lex = Lexicon::builtin();
        let mut rng = SplitMix64::new(7);
        for token in ["rating", "city", "price", "child"] {
            let variant = morph_variant(token, &lex, &mut rng);
            assert_eq!(
                qi_text::stem(&variant),
                qi_text::stem(token),
                "{token} -> {variant}"
            );
        }
    }

    #[test]
    fn fuzz_token_stays_within_one_edit_or_abbreviates() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..200 {
            let fuzzed = fuzz_token("departure", &mut rng);
            let close = qi_text::normalized_levenshtein("departure", &fuzzed) >= 6.0 / 7.0;
            let abbrev = qi_text::prefix_abbreviation(&fuzzed, "departure");
            assert!(close || abbrev, "departure -> {fuzzed}");
        }
        // Short tokens are never fuzzed into noise.
        let mut rng = SplitMix64::new(12);
        assert_eq!(fuzz_token("city", &mut rng), "city");
    }

    #[test]
    fn report_shows_drift_exercised() {
        let lex = Lexicon::builtin();
        let corpus = generate_drift_corpus(&small(), &lex);
        let fresh = Lexicon::builtin();
        let report = DriftReport::compute(
            &corpus,
            &fresh,
            MatcherConfig {
                fuzzy: true,
                ..MatcherConfig::default()
            },
        );
        report.check(true, 1.0).unwrap();
        assert!(report.stats.accepted_synonym > 0);
        assert!(report.stats.accepted_fuzzy > 0);
        assert!(report.distinct_labels > 0);
    }
}
