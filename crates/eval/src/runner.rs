//! Whole-pipeline evaluation: one domain, or the whole corpus.
//!
//! The corpus sweep fans out over a bounded scoped pool
//! ([`qi_runtime::parallel_try_map`]): worker count is clamped to the
//! hardware (never one unbounded thread per domain), results come back
//! in input order, and a panicking domain is recorded in
//! [`CorpusEvaluation::failed`] instead of sinking the whole run.

use crate::metrics::{fields_accuracy, integrated_shape, internal_accuracy, DomainEvaluation};
use crate::panel::Panel;
use qi_core::{ConsistencyClass, Labeler, LiUsage, NamingPolicy};
use qi_datasets::Domain;
use qi_lexicon::Lexicon;
use qi_runtime::{parallel_try_map, resolve_threads, MetricsSnapshot, TelemetryMode};

/// Runtime options for an evaluation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Worker bound for the corpus fan-out (`0` = hardware parallelism,
    /// clamped; `1` = sequential). When more than one corpus worker is
    /// active, each domain runs its labeler single-threaded to avoid
    /// oversubscription; with one worker the labeler itself fans phase-1
    /// group naming out over this many threads.
    pub threads: usize,
    /// Telemetry collection mode. `Off` (the default) skips all metric
    /// recording at the cost of one pointer check per boundary; the
    /// other modes attach a [`MetricsSnapshot`] to every
    /// [`DomainEvaluation`] — each domain gets a *fresh* registry, so
    /// parallel sweeps attribute work deterministically.
    pub telemetry: TelemetryMode,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 0,
            telemetry: TelemetryMode::Off,
        }
    }
}

/// A domain whose evaluation panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainFailure {
    /// Display name of the domain.
    pub name: String,
    /// The panic message.
    pub error: String,
}

/// Corpus-level results: per-domain rows plus the aggregate LI usage
/// (Figure 10).
#[derive(Debug, Clone)]
pub struct CorpusEvaluation {
    /// One row per successfully evaluated domain, Table 6 order.
    pub domains: Vec<DomainEvaluation>,
    /// LI usage summed across domains.
    pub li_usage: LiUsage,
    /// Domains whose evaluation panicked; they contribute no row but do
    /// not abort the sweep.
    pub failed: Vec<DomainFailure>,
    /// Per-domain metrics merged in row order (empty when telemetry is
    /// off).
    pub metrics: MetricsSnapshot,
}

/// Run the full pipeline on one domain and compute its Table 6 row.
pub fn evaluate_domain(
    domain: &Domain,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    panel: Panel,
) -> DomainEvaluation {
    evaluate_domain_with(
        domain,
        lexicon,
        policy,
        panel,
        RunConfig {
            threads: 1,
            ..RunConfig::default()
        },
    )
}

/// [`evaluate_domain`] with explicit runtime options.
pub fn evaluate_domain_with(
    domain: &Domain,
    lexicon: &Lexicon,
    policy: NamingPolicy,
    panel: Panel,
    config: RunConfig,
) -> DomainEvaluation {
    // A fresh registry per domain: sequential recording inside one
    // domain is deterministic even when the corpus sweep runs domains
    // concurrently, and the merge happens in row order.
    let telemetry = config.telemetry.build();
    // The lexicon and the Porter stem cache outlive this run, so their
    // activity is attributed as a delta across it.
    let lexicon_before = lexicon.named_cache_stats();
    let stemmer_before = qi_text::porter::stem_cache_stats();

    let domain_span = telemetry.span("eval.domain");
    let source = domain.source_stats();
    let prepare_span = telemetry.span("eval.domain.prepare");
    let prepared = domain.prepare();
    drop(prepare_span);
    let labeler = Labeler::new(lexicon, policy)
        .with_threads(config.threads)
        .with_telemetry(telemetry.clone());
    let label_span = telemetry.span("eval.domain.label");
    let labeled = labeler.label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
    drop(label_span);
    let survey_span = telemetry.span("eval.domain.survey");
    let (ha, ha_star) = panel.survey(
        &prepared.name,
        &labeled,
        &prepared.schemas,
        &prepared.mapping,
    );
    drop(survey_span);
    drop(domain_span);

    if telemetry.is_enabled() {
        telemetry.incr("eval.domains");
        for ((name, after), (_, before)) in lexicon
            .named_cache_stats()
            .iter()
            .zip(lexicon_before.iter())
        {
            telemetry.record_cache(name, &after.delta_since(before));
        }
        telemetry.record_cache(
            "stemmer",
            &qi_text::porter::stem_cache_stats().delta_since(&stemmer_before),
        );
    }

    DomainEvaluation {
        name: prepared.name.clone(),
        source,
        shape: integrated_shape(&labeled),
        fld_acc: fields_accuracy(&labeled),
        int_acc: internal_accuracy(&labeled),
        ha,
        ha_star,
        class: labeled
            .report
            .class
            .unwrap_or(ConsistencyClass::Inconsistent),
        li_usage: labeled.report.li_usage,
        metrics: telemetry.snapshot(),
    }
}

/// Evaluate a set of domains on a bounded worker pool (hardware
/// parallelism by default).
pub fn evaluate_corpus(
    domains: &[Domain],
    lexicon: &Lexicon,
    policy: NamingPolicy,
    panel: Panel,
) -> CorpusEvaluation {
    evaluate_corpus_with(domains, lexicon, policy, panel, RunConfig::default())
}

/// [`evaluate_corpus`] with explicit runtime options.
pub fn evaluate_corpus_with(
    domains: &[Domain],
    lexicon: &Lexicon,
    policy: NamingPolicy,
    panel: Panel,
    config: RunConfig,
) -> CorpusEvaluation {
    let outer = resolve_threads(config.threads).min(domains.len().max(1));
    let per_domain = RunConfig {
        threads: if outer > 1 { 1 } else { config.threads },
        ..config
    };
    let results = parallel_try_map(domains, config.threads, |_, domain| {
        evaluate_domain_with(domain, lexicon, policy, panel, per_domain)
    });
    let mut rows: Vec<DomainEvaluation> = Vec::with_capacity(domains.len());
    let mut failed: Vec<DomainFailure> = Vec::new();
    for (domain, result) in domains.iter().zip(results) {
        match result {
            Ok(row) => rows.push(row),
            Err(error) => failed.push(DomainFailure {
                name: domain.name.clone(),
                error,
            }),
        }
    }
    let mut li_usage = LiUsage::default();
    let mut metrics = MetricsSnapshot::default();
    for row in &rows {
        li_usage.merge(&row.li_usage);
        metrics.merge(&row.metrics);
    }
    CorpusEvaluation {
        domains: rows,
        li_usage,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_core::InferenceRule;

    #[test]
    fn corpus_evaluation_has_seven_rows() {
        let domains = qi_datasets::all_domains();
        let lexicon = Lexicon::builtin();
        let result = evaluate_corpus(
            &domains,
            &lexicon,
            NamingPolicy::default(),
            Panel::default(),
        );
        assert_eq!(result.domains.len(), 7);
        assert!(result.failed.is_empty());
        for row in &result.domains {
            assert!(
                (0.0..=1.0).contains(&row.fld_acc),
                "{}: {}",
                row.name,
                row.fld_acc
            );
            assert!((0.0..=1.0).contains(&row.int_acc));
            assert!(row.shape.leaves > 0);
        }
        // Figure 10's headline: LI2 (and LI3/LI5 family) dominate.
        assert!(result.li_usage.total() > 0);
        assert!(
            result.li_usage.ratio(InferenceRule::Li2) > 0.3,
            "LI2 ratio {}",
            result.li_usage.ratio(InferenceRule::Li2)
        );
    }

    /// The determinism acceptance check: a parallel corpus run over all
    /// seven builtin domains is byte-identical (Debug form, which covers
    /// every Table 6 column and the LI counters) to a sequential one.
    #[test]
    fn parallel_matches_sequential() {
        let domains = qi_datasets::all_domains();
        let lexicon = Lexicon::builtin();
        let parallel = evaluate_corpus_with(
            &domains,
            &lexicon,
            NamingPolicy::default(),
            Panel::default(),
            RunConfig {
                threads: 0,
                ..RunConfig::default()
            },
        );
        let sequential = evaluate_corpus_with(
            &domains,
            &lexicon,
            NamingPolicy::default(),
            Panel::default(),
            RunConfig {
                threads: 1,
                ..RunConfig::default()
            },
        );
        assert!(parallel.failed.is_empty());
        assert!(sequential.failed.is_empty());
        assert_eq!(
            format!("{:?}", parallel.domains),
            format!("{:?}", sequential.domains)
        );
        assert_eq!(
            format!("{:?}", parallel.li_usage),
            format!("{:?}", sequential.li_usage)
        );
    }

    /// A domain that panics mid-pipeline is reported in `failed`; the
    /// healthy domains still produce their rows.
    #[test]
    fn panicking_domain_does_not_sink_the_corpus() {
        let mut domains = vec![qi_datasets::auto::domain()];
        // A mapping that references a non-existent source schema panics
        // during preparation.
        let mut broken = qi_datasets::job::domain();
        broken.name = "Broken".to_string();
        broken.mapping = qi_mapping::Mapping::from_clusters(vec![(
            "ghost".to_string(),
            vec![qi_mapping::FieldRef::new(99, qi_schema::NodeId::ROOT)],
        )]);
        domains.push(broken);
        domains.push(qi_datasets::job::domain());
        let lexicon = Lexicon::builtin();
        let result = evaluate_corpus(
            &domains,
            &lexicon,
            NamingPolicy::default(),
            Panel::default(),
        );
        assert_eq!(result.domains.len(), 2);
        assert_eq!(result.failed.len(), 1);
        assert_eq!(result.failed[0].name, "Broken");
        assert!(!result.failed[0].error.is_empty());
        assert_eq!(result.domains[0].name, domains[0].name);
        assert_eq!(result.domains[1].name, domains[2].name);
    }
}
