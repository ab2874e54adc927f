//! The metric catalogue and the one-line JSON result.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload of an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload of a traced run; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_ms", "ms"),
    ("text.stem_hit_ratio", "ratio"),
    ("lexicon.morph_hit_ratio", "ratio"),
    ("lexicon.resolve_hit_ratio", "ratio"),
    ("mapping.match_ms", "ms"),
    ("mapping.pairs_scored", "count"),
    ("mapping.accept_ratio", "ratio"),
    ("mapping.max_bucket_size", "count"),
    ("mapping.streaming_blocks", "count"),
    ("mapping.precision", "ratio"),
    ("mapping.recall", "ratio"),
    ("mapping.delta_pairs_scored", "count"),
    ("mapping.peak_rss_mib", "MiB"),
    ("merge.merge_ms", "ms"),
    ("core.label_ms", "ms"),
    ("core.phase1_groups_ms", "ms"),
    ("core.phase3_ms", "ms"),
    ("core.naming_cache_hit_ratio", "ratio"),
    ("core.provenance_ms", "ms"),
    ("core.groups_reused_share", "ratio"),
    ("core.fld_acc_truth", "ratio"),
    ("core.peak_rss_mib", "MiB"),
    ("eval.eval_ms", "ms"),
    ("eval.match_f1", "ratio"),
    ("eval.fld_acc", "ratio"),
    ("runtime.worker_busy_share", "ratio"),
    ("serve.snapshot.build_ms", "ms"),
    ("serve.snapshot.load_ms", "ms"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.ingest_ms", "ms"),
    ("serve.ingest.delta_share", "ratio"),
    ("serve.ingest.fallbacks", "count"),
    ("serve.ingest.full_over_delta", "ratio"),
    ("serve.ingest_p90_ms", "ms"),
    ("serve.ingest_read_p99_us", "us"),
    ("serve.store.cache_hit_ratio", "ratio"),
    ("serve.store.invalidations", "count"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.handler_p99_us", "us"),
    ("query.exec_ms", "ms"),
    ("query.scanned_per_match", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.failed_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("host.reference_us", "us"),
];

/// Metric values, operation counts and output-check failures of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Option<f64>>,
    /// Operations attempted and failed.
    pub tally: Tally,
    problems: Vec<String>,
}

impl Report {
    /// Record a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, Some(value));
    }

    /// Record a value that may be unavailable (reported as `null`).
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.values.insert(name, value);
    }

    /// Record an output check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Whether every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.tally.failed == 0
    }

    /// Failed output checks so far.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The result line over `catalogue`. A run that passed its checks
    /// must have measured every end-to-end metric; per-layer metrics a
    /// workload does not exercise read 0.
    pub fn to_json(&self, catalogue: &[(&'static str, &'static str)], end_to_end: bool) -> String {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(value) => *value,
                None if end_to_end && self.correct() => {
                    panic!("end-to-end metric {name} was not measured")
                }
                None if end_to_end => None,
                None => Some(0.0),
            };
            let value = match value {
                Some(v) if v.is_finite() => format!("{v:?}"),
                _ => "null".to_string(),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines, one per metric of `catalogue`.
    pub fn summary(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in catalogue {
            let value = self.values.get(name).copied().flatten();
            match value {
                Some(v) => out.push_str(&format!("  {name:<30} {v:>14.4} {unit}\n")),
                None => out.push_str(&format!("  {name:<30} {:>14} {unit}\n", "-")),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut report = Report::default();
        for &(name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        report.tally.record(true);
        let json = report.to_json(END_TO_END, true);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_failed_run_reports_what_it_did_not_measure_as_null() {
        let mut report = Report::default();
        report.check(false, || "server did not start".to_string());
        let json = report.to_json(END_TO_END, true);
        assert!(json.starts_with("{\"correct\": false"));
        assert!(json.contains("\"setup_s\": {\"value\": null"));
    }

    #[test]
    fn unavailable_values_are_null_and_unset_layers_zero() {
        let mut report = Report::default();
        report.set_opt("core.peak_rss_mib", None);
        let json = report.to_json(PER_LAYER, false);
        assert!(json.contains("\"core.peak_rss_mib\": {\"value\": null"));
        assert!(json.contains("\"mapping.match_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut report = Report::default();
        report.tally.record(true);
        assert!(report.correct());
        report.check(false, || "digest mismatch".to_string());
        assert!(!report.correct());
        assert_eq!(report.problems(), ["digest mismatch".to_string()]);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("\"name\"").count(),
            END_TO_END.len() + PER_LAYER.len() + 3,
            "BENCHMARK.json lists metrics the program does not report"
        );
    }
}
