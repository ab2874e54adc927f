//! `pipeline_drift`: the batch pipeline over a drift corpus. Each domain
//! runs fuzzy matching → merge → label → provenance → eval, on
//! `WORKERS` workers, every pass starting from cold memo-caches, as a
//! fresh batch process would.

use crate::calibrate;
use crate::inputs::{digest_corpus, drift_corpus, drift_matcher, Digest};
use crate::probes::{self, counter, ms, ratio, span_ms, timed};
use crate::report::Report;
use crate::stats::{median, per_item_median, percentile, tail_percentile};
use crate::Args;
use qi_core::{Labeler, NamingPolicy};
use qi_datasets::{Domain, DriftReport};
use qi_lexicon::Lexicon;
use qi_mapping::{pairwise_quality, MatchStats};
use qi_runtime::{parallel_map, CacheStats, Telemetry};
use std::time::{Duration, Instant};

/// Domains in the corpus (20 interfaces each, the generator default).
const DOMAINS: usize = 100;
const INTERFACES: usize = 20;
/// Workers the domains are fanned out over. One, not two: on a 2-vCPU VM
/// a second worker sped a pass up anywhere from 1.15× to 1.6× from one
/// minute to the next, which moved every figure past its bound.
const WORKERS: usize = 1;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Tail percentile of per-domain latency.
const TAIL: f64 = 90.0;
/// The drift corpus must stay below this morphology-cache hit rate,
/// where verbatim-cloned corpora sit (see `DriftReport::check`).
const MAX_MORPH_HIT_RATE: f64 = 0.99;
const SALT: u64 = 0x9199;

/// One domain's trip through the pipeline.
struct DomainRun {
    /// Trip time, normalized by the reference runs around it.
    ns: u64,
    /// Those reference runs' mean raw time.
    reference_ns: u64,
    stats: MatchStats,
    correct_pairs: usize,
    derived_pairs: usize,
    truth_pairs: usize,
    fld_acc: f64,
    naming_cache: CacheStats,
}

/// One cold-cache pass over the corpus.
struct Pass {
    wall: Duration,
    domains: Vec<DomainRun>,
}

impl Pass {
    fn fields(&self) -> u64 {
        self.domains.iter().map(|d| d.stats.fields_total).sum()
    }
}

fn run_domain(domain: &Domain, lexicon: &Lexicon, telemetry: &Telemetry) -> DomainRun {
    let policy = NamingPolicy::default();
    let trip = || {
        let _span = telemetry.span("pipeline.domain");
        let (mapping, stats) = {
            let _span = telemetry.span("pipeline.domain.mapping");
            qi_mapping::match_by_labels_stats(&domain.schemas, lexicon, drift_matcher())
        };
        let prepared = {
            let _span = telemetry.span("pipeline.domain.merge");
            Domain {
                name: domain.name.clone(),
                schemas: domain.schemas.clone(),
                mapping: mapping.clone(),
            }
            .prepare()
        };
        let labeled = {
            let _span = telemetry.span("pipeline.domain.core");
            Labeler::new(lexicon, policy)
                .with_threads(1)
                .with_telemetry(telemetry.clone())
                .label(&prepared.schemas, &prepared.mapping, &prepared.integrated)
        };
        {
            let _span = telemetry.span("pipeline.domain.provenance");
            std::hint::black_box(qi_core::provenance::decisions(&labeled, &policy));
        }
        let (fld_acc, quality) = {
            let _span = telemetry.span("pipeline.domain.eval");
            std::hint::black_box((
                qi_eval::metrics::integrated_shape(&labeled),
                qi_eval::metrics::internal_accuracy(&labeled),
            ));
            (
                qi_eval::metrics::fields_accuracy(&labeled),
                pairwise_quality(&mapping, &domain.mapping),
            )
        };
        (stats, quality, fld_acc, labeled.report.naming_cache)
    };
    let ((stats, quality, fld_acc, naming_cache), timing) =
        calibrate::bracketed(calibrate::reference_ns, trip);
    DomainRun {
        ns: timing.normalized_ns(),
        reference_ns: timing.reference_ns,
        stats,
        correct_pairs: quality.correct_pairs,
        derived_pairs: quality.derived_pairs,
        truth_pairs: quality.truth_pairs,
        fld_acc,
        naming_cache,
    }
}

fn reset_caches(lexicon: &Lexicon) {
    lexicon.reset_caches();
    qi_text::porter::stem_cache_reset();
}

fn pass(corpus: &[Domain], lexicon: &Lexicon, telemetry: &Telemetry) -> Pass {
    reset_caches(lexicon);
    let (domains, wall) = timed(|| {
        parallel_map(corpus, WORKERS, |_, domain| {
            run_domain(domain, lexicon, telemetry)
        })
    });
    Pass { wall, domains }
}

/// Passes until `budget` is spent (at least one).
fn passes(
    corpus: &[Domain],
    lexicon: &Lexicon,
    telemetry: &Telemetry,
    budget: Duration,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < budget {
        out.push(pass(corpus, lexicon, telemetry));
    }
    out
}

/// The corpus's `DriftReport`, computed on one slice per worker, each
/// against a fresh lexicon of its own so its morphology-cache counts
/// start cold. Distinct labels are summed over the slices.
fn drift_report(corpus: &[Domain]) -> DriftReport {
    let slices: Vec<&[Domain]> = corpus.chunks(corpus.len().div_ceil(WORKERS)).collect();
    let reports = parallel_map(&slices, WORKERS, |_, slice| {
        DriftReport::compute(slice, &Lexicon::builtin(), drift_matcher())
    });
    let mut total = reports[0].clone();
    for report in &reports[1..] {
        total.domains += report.domains;
        total.interfaces += report.interfaces;
        total.distinct_labels += report.distinct_labels;
        total.stats.absorb(&report.stats);
        total.morph_cache = total.morph_cache.merge(&report.morph_cache);
    }
    total
}

/// A set-up: the lexicon and the corpus, with the generator's time.
fn setup(args: &Args) -> (Lexicon, Vec<Domain>, Duration) {
    let lexicon = Lexicon::builtin();
    let (corpus, generate) = timed(|| drift_corpus(args.seed, SALT, DOMAINS, INTERFACES, &lexicon));
    (lexicon, corpus, generate)
}

/// Run the workload into `report`.
pub fn run(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // One set-up alive at a time, so the peak RSS is the workload's.
        drop(built.take());
        let ((lexicon, corpus, generate), seconds) = calibrate::setup_seconds(|| setup(args));
        setups.push(seconds);
        generates.push(ms(generate));
        let mut digest = Digest::default();
        digest_corpus(&mut digest, &corpus);
        digests.push(digest.value());
        built = Some((lexicon, corpus));
    }
    let (lexicon, corpus) = built.expect("at least one setup");
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("corpus digest differs between setups of one seed: {digests:x?}")
    });
    eprintln!("pipeline_drift: inputs digest {:016x}", digests[0]);

    // The corpus must exercise the synonym and fuzzy tiers before any
    // timing counts.
    let verdict = drift_report(&corpus).check(true, MAX_MORPH_HIT_RATE);
    report.check(verdict.is_ok(), || {
        format!("drift corpus check: {}", verdict.clone().unwrap_err())
    });

    let off = Telemetry::off();
    if args.trace {
        let untraced = passes(&corpus, &lexicon, &off, args.seconds / 2);
        let registry = Telemetry::new();
        let traced = passes(&corpus, &lexicon, &registry, args.seconds / 2);
        tally(report, &traced);
        per_layer(
            args, report, &corpus, &lexicon, &untraced, &traced, &registry, &generates,
        );
    } else {
        let measured = passes(&corpus, &lexicon, &off, args.seconds);
        tally(report, &measured);
        end_to_end(report, &measured, &setups);
    }
}

fn tally(report: &mut Report, passes: &[Pass]) {
    for pass in passes {
        for domain in &pass.domains {
            report.tally.record(domain.stats.fields_total > 0);
        }
    }
}

/// Pooled pairwise quality and mean FldAcc of one pass.
fn quality(pass: &Pass) -> (f64, f64, f64) {
    let sum = |f: fn(&DomainRun) -> usize| pass.domains.iter().map(f).sum::<usize>() as f64;
    let correct = sum(|d| d.correct_pairs);
    let precision = ratio(correct, sum(|d| d.derived_pairs));
    let recall = ratio(correct, sum(|d| d.truth_pairs));
    let fld_acc = pass.domains.iter().map(|d| d.fld_acc).sum::<f64>() / pass.domains.len() as f64;
    (precision, recall, fld_acc)
}

/// Every pass does the same work from the same cold caches. Each
/// domain's trip is the median over passes of its normalized time (see
/// `calibrate`); latency percentiles are over those trips, and
/// throughput is a pass's fields over their sum.
fn end_to_end(report: &mut Report, passes: &[Pass], setups: &[f64]) {
    let trips: Vec<Vec<u64>> = passes
        .iter()
        .map(|p| p.domains.iter().map(|d| d.ns).collect())
        .collect();
    let typical = per_item_median(&trips);
    let pass_s = typical.iter().sum::<u64>() as f64 / 1e9;
    report.set("setup_s", median(setups));
    report.set_opt("peak_rss_mib", probes::peak_rss_mib());
    report.set("latency_p50_ms", percentile(&typical, 50.0) as f64 / 1e6);
    let tail = tail_percentile(typical.len(), TAIL);
    report.set("latency_tail_ms", percentile(&typical, tail) as f64 / 1e6);
    report.set("work_per_s", passes[0].fields() as f64 / pass_s);
    eprintln!(
        "pipeline_drift: {} passes of {} fields over {} domains, p{tail}; raw pass {:.0} ms, normalized {:.0} ms",
        passes.len(),
        passes[0].fields(),
        typical.len(),
        median(&passes.iter().map(|p| ms(p.wall)).collect::<Vec<_>>()),
        pass_s * 1e3
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    report: &mut Report,
    corpus: &[Domain],
    lexicon: &Lexicon,
    untraced: &[Pass],
    traced: &[Pass],
    registry: &Telemetry,
    generates: &[f64],
) {
    let snapshot = registry.snapshot();
    let n = traced.len() as f64;
    let per_pass = |name: &str| span_ms(&snapshot, name) / n;
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| ms(p.wall)).collect::<Vec<_>>());

    // Caches and matcher counters of the last pass (each pass is cold).
    let last = traced.last().expect("at least one traced pass");
    let stats = last
        .domains
        .iter()
        .fold(MatchStats::default(), |mut acc, d| {
            acc.absorb(&d.stats);
            acc
        });
    let naming = last
        .domains
        .iter()
        .fold(CacheStats::default(), |acc, d| acc.merge(&d.naming_cache));
    let (precision, recall, fld_acc) = quality(last);
    report.set(
        "eval.match_f1",
        ratio(2.0 * precision * recall, precision + recall),
    );
    report.set("eval.fld_acc", fld_acc);
    let resolve = lexicon
        .named_cache_stats()
        .into_iter()
        .find(|(name, _)| *name == "lexicon.resolve")
        .map(|(_, stats)| stats.hit_rate())
        .unwrap_or(0.0);
    report.set(
        "text.stem_hit_ratio",
        qi_text::porter::stem_cache_stats().hit_rate(),
    );
    report.set(
        "lexicon.morph_hit_ratio",
        lexicon.morph_cache_stats().hit_rate(),
    );
    report.set("lexicon.resolve_hit_ratio", resolve);
    report.set("mapping.pairs_scored", stats.pairs_scored as f64);
    report.set(
        "mapping.accept_ratio",
        ratio(stats.pairs_accepted as f64, stats.pairs_scored as f64),
    );
    report.set("mapping.max_bucket_size", stats.max_bucket_size as f64);
    report.set("mapping.streaming_blocks", stats.streaming_blocks as f64);
    report.set("mapping.precision", precision);
    report.set("mapping.recall", recall);
    report.set("core.naming_cache_hit_ratio", naming.hit_rate());

    report.set("mapping.match_ms", per_pass("pipeline.domain.mapping"));
    report.set("merge.merge_ms", per_pass("pipeline.domain.merge"));
    report.set("core.label_ms", per_pass("pipeline.domain.core"));
    report.set("core.phase1_groups_ms", per_pass("label.phase1.groups"));
    report.set(
        "core.phase3_ms",
        per_pass("label.phase3.groups") + per_pass("label.phase3.internal"),
    );
    report.set("core.provenance_ms", per_pass("pipeline.domain.provenance"));
    report.set("eval.eval_ms", per_pass("pipeline.domain.eval"));
    let reused = counter(&snapshot, "labeler.reuse.groups") as f64;
    let extended = counter(&snapshot, "labeler.extend.groups") as f64;
    report.set("core.groups_reused_share", ratio(reused, reused + extended));
    let busy = span_ms(&snapshot, "pipeline.domain");
    let walls: f64 = traced.iter().map(|p| ms(p.wall)).sum();
    report.set(
        "runtime.worker_busy_share",
        ratio(busy, WORKERS as f64 * walls),
    );
    report.set("datasets.generate_ms", median(generates));
    let references: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.domains.iter().map(|d| d.reference_ns as f64 / 1e3))
        .collect();
    report.set("host.reference_us", median(&references));
    report.set(
        "trace.overhead_pct",
        (wall(traced) / wall(untraced) - 1.0) * 100.0,
    );

    // Peak RSS per stage: match every domain, then merge and label
    // every domain, each stage from a reset high-water mark.
    reset_caches(lexicon);
    let (mappings, mapping_peak) = probes::stage_peak_rss_mib(|| {
        parallel_map(corpus, WORKERS, |_, d| {
            qi_mapping::match_by_labels_stats(&d.schemas, lexicon, drift_matcher()).0
        })
    });
    let (labeled, core_peak) = probes::stage_peak_rss_mib(|| {
        parallel_map(corpus, WORKERS, |i, d| {
            let prepared = Domain {
                name: d.name.clone(),
                schemas: d.schemas.clone(),
                mapping: mappings[i].clone(),
            }
            .prepare();
            Labeler::new(lexicon, NamingPolicy::default())
                .with_threads(1)
                .label(&prepared.schemas, &prepared.mapping, &prepared.integrated)
        })
    });
    drop((mappings, labeled));
    report.set_opt("mapping.peak_rss_mib", mapping_peak);
    report.set_opt("core.peak_rss_mib", core_peak);

    // The labeler on the generator's truth clusters: separates a FldAcc
    // gap of the matcher from one of the labeler.
    let truth = parallel_map(corpus, WORKERS, |_, d| {
        let prepared = d.prepare();
        let labeled = Labeler::new(lexicon, NamingPolicy::default())
            .with_threads(1)
            .label(&prepared.schemas, &prepared.mapping, &prepared.integrated);
        qi_eval::metrics::fields_accuracy(&labeled)
    });
    report.set(
        "core.fld_acc_truth",
        truth.iter().sum::<f64>() / truth.len() as f64,
    );
    report.set("loadgen.failed_share", report.tally.failed_share());

    match probes::write_chrome_trace(&args.workload, registry) {
        Ok(path) => eprintln!("pipeline_drift: chrome trace at {path}"),
        Err(e) => eprintln!("pipeline_drift: writing chrome trace: {e}"),
    }
}
