//! Integration tests for the pipeline telemetry subsystem.
//!
//! Covers the ISSUE 3 acceptance properties end to end:
//!
//! 1. **Determinism** — a full seven-domain corpus run with `threads: 1`
//!    on the deterministic virtual clock produces *byte-identical*
//!    metrics JSON across two runs.
//! 2. **Cross-invariants** — for every cache, `hits + misses ==
//!    lookups`; the matcher scores at least as many candidates as it
//!    merges clusters; every span's child time fits inside its parent's.
//! 3. **Disabled mode** — the default `TelemetryMode::Off` run attaches
//!    no metrics anywhere and serializes to the empty document.
//! 4. **Schema golden** — the key set (names + types) of the emitted
//!    document matches `tests/golden/metrics_schema.txt`, so field
//!    renames can't slip through unnoticed.
//! 5. **Exporter goldens** — the Prometheus text rendering of the
//!    deterministic run matches `tests/golden/prometheus.txt` byte for
//!    byte, and the Chrome-trace rendering is byte-identical across
//!    runs (ISSUE 5). Regenerate goldens with
//!    `UPDATE_GOLDEN=1 cargo test --test telemetry`.
//! 6. **Overhead guard** (`#[ignore]`d, release only) — the matcher
//!    stage with telemetry off, timed in units of a reference workload
//!    run beside it, stays within 5 % of a committed ratio, and the full
//!    observability plane stays within 5 % of off. Run it
//!    as `cargo test -q --release --test telemetry -- --ignored
//!    --test-threads=1`.

use std::sync::Mutex;
use std::time::Instant;

use qi_core::NamingPolicy;
use qi_eval::{evaluate_corpus_with, Panel, RunConfig};
use qi_lexicon::Lexicon;
use qi_mapping::{match_by_labels_stats, MatcherConfig};
use qi_runtime::{
    Category, EventRecorder, MetricsSnapshot, Severity, Telemetry, TelemetryMode, TimeSeries,
};

/// The Porter stem cache is process-global and these tests both reset
/// it and assert on deltas attributed from it, so they must not overlap
/// in time. (Integration tests in one binary share the process.)
static STEM_CACHE_GUARD: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    STEM_CACHE_GUARD
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One seven-domain metrics document, built exactly like the CLI's
/// `qi eval --metrics` emission: the corpus evaluation's merged
/// snapshot plus a per-domain clustering probe (the evaluation itself
/// runs from ground-truth clusters, so the matcher is exercised
/// separately).
fn seven_domain_document(mode: TelemetryMode) -> MetricsSnapshot {
    qi_text::porter::stem_cache_reset();
    let lexicon = Lexicon::builtin();
    let domains = qi_datasets::all_domains();
    let result = evaluate_corpus_with(
        &domains,
        &lexicon,
        NamingPolicy::default(),
        Panel::default(),
        RunConfig {
            threads: 1,
            telemetry: mode,
        },
    );
    assert!(result.failed.is_empty(), "{:?}", result.failed);
    assert_eq!(result.domains.len(), 7);
    let probe = mode.build();
    for domain in &domains {
        let timer = probe.timed("eval.cluster");
        let (_, stats) = match_by_labels_stats(&domain.schemas, &lexicon, MatcherConfig::default());
        drop(timer);
        stats.record(&probe);
    }
    let mut merged = result.metrics.clone();
    merged.merge(&probe.snapshot());
    merged
}

#[test]
fn seven_domain_metrics_json_is_byte_identical_across_runs() {
    let _guard = lock();
    let first = seven_domain_document(TelemetryMode::Deterministic).to_json();
    let second = seven_domain_document(TelemetryMode::Deterministic).to_json();
    assert!(first.len() > 2, "document suspiciously small: {first}");
    assert_eq!(
        first, second,
        "deterministic runs must serialize identically"
    );
}

#[test]
fn counters_satisfy_cross_invariants() {
    let _guard = lock();
    let doc = seven_domain_document(TelemetryMode::Deterministic);

    // Every cache reports hits + misses == lookups.
    let mut caches = 0usize;
    for (name, lookups) in &doc.counters {
        let Some(cache) = name
            .strip_prefix("cache.")
            .and_then(|rest| rest.strip_suffix(".lookups"))
        else {
            continue;
        };
        caches += 1;
        let hits = doc.counters[&format!("cache.{cache}.hits")];
        let misses = doc.counters[&format!("cache.{cache}.misses")];
        assert_eq!(
            hits + misses,
            *lookups,
            "cache {cache}: {hits} + {misses} != {lookups}"
        );
    }
    // All eight instrumented caches are present: five lexicon memos, the
    // stemmer, and the two per-run naming-context caches.
    assert_eq!(caches, 8, "cache names: {:?}", doc.counters.keys());

    // The matcher scores at least as many candidates as it accepts, and
    // accepts at least as many pairs as it merges clusters (a merge
    // consumes an accepted pair; redundant pairs don't merge anything).
    let counter = |name: &str| {
        *doc.counters
            .get(name)
            .unwrap_or_else(|| panic!("missing counter {name}: {:?}", doc.counters.keys()))
    };
    let scored = counter("matcher.pairs_scored");
    let accepted = counter("matcher.pairs_accepted");
    let merged = counter("matcher.clusters_merged");
    assert!(scored >= accepted, "{scored} scored < {accepted} accepted");
    assert!(accepted >= merged, "{accepted} accepted < {merged} merged");
    assert!(merged > 0, "seven domains must merge some clusters");
    assert!(counter("matcher.fields_total") >= counter("matcher.fields_labeled"));

    // Spans nest: every child's accumulated time fits inside its
    // parent's. (The deterministic clock makes this exact, not racy.)
    let mut nested = 0usize;
    for (name, data) in &doc.spans {
        if let Some(parent) = doc.parent_span(name) {
            nested += 1;
            let parent_data = doc.spans[parent];
            assert!(
                data.total_ns <= parent_data.total_ns,
                "span {name} ({data:?}) exceeds parent {parent} ({parent_data:?})"
            );
        }
    }
    assert!(nested >= 3, "span names: {:?}", doc.spans.keys());

    // The labeler phase counters agree with the span structure: seven
    // domains, each entering every phase once.
    assert_eq!(doc.counters["eval.domains"], 7);
    assert_eq!(doc.spans["eval.domain"].count, 7);
    assert_eq!(doc.spans["label"].count, 7);
    assert_eq!(doc.spans["eval.cluster"].count, 7);

    // Every histogram fed by a `timed` guard shares one clock pair with
    // the same-named span: identical counts and identical total time.
    assert!(!doc.histograms.is_empty(), "{:?}", doc.histograms.keys());
    for (name, hist) in &doc.histograms {
        let span = doc
            .spans
            .get(name)
            .unwrap_or_else(|| panic!("histogram {name} has no matching span"));
        assert_eq!(hist.count(), span.count, "histogram {name} count");
        assert_eq!(hist.sum, span.total_ns, "histogram {name} sum");
        assert!(hist.quantile(0.50) <= hist.quantile(0.99), "{name}");
        assert!(hist.quantile(0.99) <= hist.max, "{name}");
    }
    assert!(
        doc.histograms.contains_key("label"),
        "labeler phases must publish latency histograms: {:?}",
        doc.histograms.keys()
    );
}

#[test]
fn disabled_mode_emits_nothing() {
    let _guard = lock();
    let lexicon = Lexicon::builtin();
    let domains = vec![qi_datasets::auto::domain(), qi_datasets::job::domain()];
    let result = evaluate_corpus_with(
        &domains,
        &lexicon,
        NamingPolicy::default(),
        Panel::default(),
        RunConfig {
            threads: 1,
            ..RunConfig::default()
        },
    );
    assert!(result.failed.is_empty());
    assert!(result.metrics.is_empty(), "{:?}", result.metrics);
    for row in &result.domains {
        assert!(row.metrics.is_empty(), "{}: {:?}", row.name, row.metrics);
    }
    assert_eq!(
        result.metrics.to_json(),
        "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"spans\":{}}"
    );
}

/// Compare `actual` against a committed golden file, rewriting the
/// golden when `UPDATE_GOLDEN=1` is set (same pattern as the snapshot
/// byte-layout golden).
fn assert_matches_golden(actual: &str, file: &str, what: &str) {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("writing golden file");
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("tests/golden/{file} is committed: {e}"));
    assert_eq!(
        actual, golden,
        "{what} drifted from tests/golden/{file}; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn metrics_schema_matches_golden() {
    let _guard = lock();
    let schema = seven_domain_document(TelemetryMode::Deterministic).schema();
    assert_matches_golden(&schema, "metrics_schema.txt", "metrics document schema");
}

#[test]
fn prometheus_exposition_matches_golden_and_is_deterministic() {
    let _guard = lock();
    let first = qi_runtime::prometheus_text(&seven_domain_document(TelemetryMode::Deterministic));
    let second = qi_runtime::prometheus_text(&seven_domain_document(TelemetryMode::Deterministic));
    assert_eq!(
        first, second,
        "deterministic runs must render identical Prometheus text"
    );
    assert_matches_golden(&first, "prometheus.txt", "Prometheus exposition");
}

/// A deterministic flight-recorder + time-series run: the virtual
/// clock advances a fixed step per reading, so two runs must serialize
/// the windowed history document byte-for-byte (the ISSUE 10
/// acceptance golden).
fn deterministic_history_document() -> String {
    let telemetry =
        qi_runtime::Telemetry::deterministic().attach_events(qi_runtime::EventRecorder::new(16));
    let series = qi_runtime::TimeSeries::new(1_000_000, 8);
    for window in 0..3u64 {
        for request in 0..=window {
            telemetry.incr("serve.requests");
            telemetry.observe("serve.latency", 1_000 * (request + 1));
        }
        telemetry.gauge("serve.queue.depth", window);
        telemetry.event(
            qi_runtime::Severity::Info,
            qi_runtime::Category::Cache,
            "cache.invalidate",
            || vec![("slug", "auto".into()), ("entries", window.into())],
        );
        series.tick(&telemetry);
    }
    series.history_json(8)
}

#[test]
fn metrics_history_matches_golden_and_is_byte_identical() {
    let first = deterministic_history_document();
    let second = deterministic_history_document();
    assert_eq!(
        first, second,
        "deterministic runs must serialize identical history documents"
    );
    // Counters become per-window increments: each window carries only
    // its own activity, and the recorder's bookkeeping counters flow
    // through the same delta pipeline.
    assert!(first.contains("\"serve.requests\":1"), "{first}");
    assert!(first.contains("\"serve.requests\":3"), "{first}");
    assert!(first.contains("\"events.emitted\":1"), "{first}");
    assert_matches_golden(&first, "metrics_history.json", "windowed metrics history");
}

#[test]
fn chrome_trace_is_byte_identical_across_deterministic_runs() {
    let _guard = lock();
    let first = qi_runtime::chrome_trace(&seven_domain_document(TelemetryMode::Deterministic));
    let second = qi_runtime::chrome_trace(&seven_domain_document(TelemetryMode::Deterministic));
    assert!(
        first.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{first}"
    );
    assert!(first.contains("\"name\":\"label\""), "{first}");
    assert_eq!(
        first, second,
        "deterministic runs must render identical Chrome traces"
    );
}

/// The telemetry-off `cluster` pass over the reference workload timed
/// around it ([`reference_ms`]): the median of that ratio over ten guard
/// runs of this code on a 2-vCPU Xeon VM (EXPERIMENTS.md, "Telemetry
/// overhead"). A host's speed moves the pass and the reference run
/// beside it the same way, so the ratio moves far less with the host than
/// a time does. It is a fixed constant, never re-recorded, so a slower
/// disabled path cannot move its own reference.
const CLUSTER_OVER_REFERENCE: f64 = 0.78;

/// Measured passes per telemetry mode. A median of seven keeps one slow
/// pass on a noisy host from deciding the observe-vs-off comparison.
const MEASURED_PASSES: usize = 7;

/// Words the reference workload builds labels from.
const REFERENCE_WORDS: &str = "departure arrival city date passengers class price make model \
                               year title author";

/// One run of a fixed reference workload that shares no code with the
/// program under test, in ms: label-like strings are built, lowercased,
/// split, counted in a hash map and sorted, the kind of work the
/// matcher does, with the same result every run.
fn reference_once_ms() -> f64 {
    let words: Vec<&str> = REFERENCE_WORDS.split_whitespace().collect();
    let start = Instant::now();
    let mut counts: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..4_000 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let a = words[(state >> 33) as usize % words.len()];
        let b = words[(state >> 45) as usize % words.len()];
        let label = format!("{a} Of {b} {}", state % 97).to_lowercase();
        for token in label.split_whitespace() {
            *counts.entry(token.to_string()).or_default() += 1;
        }
    }
    let mut keys: Vec<(&String, &u32)> = counts.iter().collect();
    keys.sort();
    std::hint::black_box(keys.len());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of three reference runs, in ms.
fn reference_ms() -> f64 {
    median_ms(&mut [(); 3].map(|_| reference_once_ms()))
}

/// Whether `value` exceeds `base` by more than 5 % *and* by more than
/// 0.5 ms. The absolute floor keeps single-core jitter on a
/// few-millisecond stage from reading as a regression.
fn exceeds(value: f64, base: f64) -> bool {
    let over = value - base;
    over > base * 0.05 && over > 0.5
}

fn median_ms(runs: &mut [f64]) -> f64 {
    runs.sort_by(f64::total_cmp);
    let mid = runs.len() / 2;
    if runs.len() % 2 == 1 {
        runs[mid]
    } else {
        (runs[mid - 1] + runs[mid]) / 2.0
    }
}

/// One timed `cluster` pass in ms: the label matcher against ground
/// truth in every builtin domain, with one event emit and one
/// time-series probe per domain inside the timed region (pointer checks
/// when the recorder and series are off).
fn cluster_pass(
    domains: &[qi_datasets::Domain],
    lexicon: &Lexicon,
    telemetry: &Telemetry,
    series: &TimeSeries,
) -> f64 {
    let start = Instant::now();
    for domain in domains {
        std::hint::black_box(qi_eval::matcher_eval::evaluate_matcher(domain, lexicon));
        telemetry.event(
            Severity::Debug,
            Category::Ingest,
            "bench.cluster.domain",
            || vec![("domain", domain.name.as_str().into())],
        );
        series.maybe_tick(telemetry);
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The disabled pipeline must not pay for instrumentation it does not
/// use, and the live observability plane (registry, flight recorder and
/// a 100 ms time series) must stay cheap. Telemetry off, on and observe
/// each get one discarded warm-up pass, then [`MEASURED_PASSES`] measured
/// passes, interleaved so a drifting CPU clock hits every mode alike. Each off
/// pass is bracketed by reference runs, which put it in host-independent
/// units for the comparison with the committed ratio.
#[test]
#[ignore = "timing guard: run in release with --ignored --test-threads=1"]
fn telemetry_overhead_stays_within_five_percent() {
    let _guard = lock();
    let lexicon = Lexicon::builtin();
    let domains = qi_datasets::all_domains();
    let modes = [
        ("telemetry off", Telemetry::off(), TimeSeries::off()),
        ("telemetry on", Telemetry::new(), TimeSeries::off()),
        (
            "observe on",
            Telemetry::new().attach_events(EventRecorder::new(4096)),
            TimeSeries::new(100_000_000, 64),
        ),
    ];
    for (_, telemetry, series) in &modes {
        cluster_pass(&domains, &lexicon, telemetry, series);
    }
    let mut runs = vec![Vec::new(); modes.len()];
    // Each off pass over the mean of the reference runs just before and
    // just after it, and every reference reading.
    let (mut off_ratios, mut references) = (Vec::new(), Vec::new());
    for _ in 0..MEASURED_PASSES {
        for (mode, ((_, telemetry, series), runs)) in modes.iter().zip(&mut runs).enumerate() {
            if mode > 0 {
                runs.push(cluster_pass(&domains, &lexicon, telemetry, series));
                continue;
            }
            let before = reference_ms();
            let pass = cluster_pass(&domains, &lexicon, telemetry, series);
            let after = reference_ms();
            runs.push(pass);
            off_ratios.push(pass * 2.0 / (before + after));
            references.extend([before, after]);
        }
    }
    let [off, on, observe] = [0, 1, 2].map(|i| median_ms(&mut runs[i]));
    let off_ratio = median_ms(&mut off_ratios);
    // Both ratios in this run's ms, so the 0.5 ms floor keeps its meaning.
    let reference = median_ms(&mut references);
    let (off_scaled, committed) = (off_ratio * reference, CLUSTER_OVER_REFERENCE * reference);

    println!(
        "{:<10} {:>14} {:>13} {:>13} {:>10} {:>10}",
        "stage", modes[0].0, modes[1].0, modes[2].0, "off / ref", "committed"
    );
    println!(
        "{:<10} {off:>11.3} ms {on:>10.3} ms {observe:>10.3} ms {off_ratio:>10.3} \
         {CLUSTER_OVER_REFERENCE:>10.3}   (reference run {reference:.3} ms)",
        "cluster"
    );
    let recorder_seq = modes[2].1.events().last_seq();
    assert!(
        recorder_seq > 0,
        "the observe run recorded no events, so it did not measure a live plane"
    );
    let mut failures = Vec::new();
    if exceeds(off_scaled, committed) {
        failures.push(format!(
            "telemetry-off cluster median {off_ratio:.3} reference runs ({off_scaled:.3} ms) \
             exceeds the committed {CLUSTER_OVER_REFERENCE:.3} ({committed:.3} ms) by more \
             than 5 % and 0.5 ms"
        ));
    }
    if exceeds(observe, off) {
        failures.push(format!(
            "observe-on cluster median {observe:.3} ms exceeds the telemetry-off run \
             {off:.3} ms by more than 5 % and 0.5 ms"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("; "));
}
