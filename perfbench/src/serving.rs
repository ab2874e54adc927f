//! The in-process server shared by the serve workloads, and
//! `serve_ingest`: drifted continuation interfaces POSTed into grown
//! drift domains over one closed-loop keep-alive connection, while one
//! open-loop reader connection GETs the same domains at a fixed rate.

use crate::calibrate;
use crate::inputs::{digest_corpus, drift_corpus, Digest};
use crate::loadgen::{self, get_request, post_request, Conn};
use crate::probes::{self, counter, histogram_us, ms, ratio, span_ms, timed};
use crate::report::Report;
use crate::stats::{median, per_item_median, percentile, tail_percentile};
use crate::Args;
use qi_core::NamingPolicy;
use qi_datasets::Domain;
use qi_lexicon::Lexicon;
use qi_mapping::{pairwise_quality, DeltaOutcome, Mapping, MatchCarry, MatcherConfig};
use qi_runtime::{SplitMix64, Telemetry};
use qi_schema::SchemaTree;
use qi_serve::{DomainArtifact, Server, ServerConfig, ServerHandle, Snapshot, Store};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server worker threads in both serve workloads.
pub const SERVER_WORKERS: usize = 2;

/// Start a server over `store` on an ephemeral port.
pub fn start(store: Arc<Store>, telemetry: Telemetry) -> std::io::Result<ServerHandle> {
    let config = ServerConfig {
        threads: SERVER_WORKERS,
        max_requests_per_conn: u64::MAX,
        ..ServerConfig::default()
    };
    Server::with_config(store, telemetry, config).start()
}

/// A domain over `schemas` clustered by the default label matcher, the
/// mapping a server's own ingests maintain.
pub fn matcher_domain(name: &str, schemas: Vec<SchemaTree>, lexicon: &Lexicon) -> Domain {
    let mapping = qi_mapping::match_by_labels(&schemas, lexicon);
    Domain {
        name: name.to_string(),
        schemas,
        mapping,
    }
}

/// The three cached read routes of a domain.
pub fn read_paths(slug: &str) -> [String; 3] {
    ["labels", "tree", "explain"].map(|route| format!("/domains/{slug}/{route}"))
}

/// Pairwise F1 of the served clusters (pooled over domains) and mean
/// FldAcc of the served labeled trees, against the generator's truth.
pub fn served_quality(served: &[(&DomainArtifact, &Mapping)]) -> (f64, f64) {
    let (mut correct, mut derived, mut truth) = (0usize, 0usize, 0usize);
    let mut fld_acc = 0.0;
    for (artifact, truth_mapping) in served {
        let quality = pairwise_quality(&artifact.mapping, truth_mapping);
        correct += quality.correct_pairs;
        derived += quality.derived_pairs;
        truth += quality.truth_pairs;
        let leaves: Vec<_> = artifact.labeled.leaves().collect();
        let ok = leaves
            .iter()
            .filter(|leaf| leaf.label.is_some() || !leaf.instances().is_empty())
            .count();
        fld_acc += ratio(ok as f64, leaves.len() as f64);
    }
    let precision = ratio(correct as f64, derived as f64);
    let recall = ratio(correct as f64, truth as f64);
    let f1 = ratio(2.0 * precision * recall, precision + recall);
    (f1, fld_acc / served.len().max(1) as f64)
}

/// Drift domains served.
const DOMAINS: usize = 32;
/// Interfaces a domain holds before the POSTs.
const BASE: usize = 40;
/// POSTs per domain in one round.
const POSTS: usize = 4;
/// Reader rate, GETs per second.
const READ_RATE: f64 = 500.0;
const SETUPS: usize = 5;
/// Tail percentile of POST round trips. Depending on the seed, 3–18 % of
/// the POSTs fall back to a full rebuild, about twice as slow as a delta
/// ingest, so p90 would jump between the two populations from seed to
/// seed; p75 stays among the delta ingests while fallbacks are rare, and
/// their cost shows in `latency_p50_ms` and `work_per_s`.
const TAIL: f64 = 75.0;
const SALT: u64 = 0x1495;

struct Post {
    slug: String,
    body: String,
}

struct IngestSetup {
    lexicon: Lexicon,
    /// Ground truth over each domain's base plus its POSTed interfaces.
    truths: Vec<Mapping>,
    base: Vec<DomainArtifact>,
    posts: Vec<Post>,
    digest: u64,
    generate: Duration,
}

/// The POST sequence comes from the generator alone: interfaces
/// `BASE..BASE + POSTS` of every domain, round-robin across domains.
/// Whichever of them the program under test ingests on the delta path
/// or by a full rebuild, the same requests are timed.
fn ingest_setup(args: &Args) -> IngestSetup {
    let policy = NamingPolicy::default();
    let off = Telemetry::off();
    let lexicon = Lexicon::builtin();
    let (corpus, generate) =
        timed(|| drift_corpus(args.seed, SALT, DOMAINS, BASE + POSTS, &lexicon));
    // Each domain is built from matcher clusters over its first BASE - 1
    // interfaces, then grown by one full ingest so it carries the delta
    // state a long-running server's domains have.
    let base: Vec<DomainArtifact> = corpus
        .iter()
        .map(|d| {
            let domain = matcher_domain(&d.name, d.schemas[..BASE - 1].to_vec(), &lexicon);
            let built = qi_serve::build_artifact(&domain, &lexicon, policy, &off);
            let grown = d.schemas[BASE - 1].clone();
            qi_serve::ingest_interface_full(&built, grown, &lexicon, policy, &off)
        })
        .collect();
    let mut posts = Vec::with_capacity(DOMAINS * POSTS);
    for k in BASE..BASE + POSTS {
        for (domain, artifact) in corpus.iter().zip(&base) {
            posts.push(Post {
                slug: artifact.slug(),
                body: qi_schema::text_format::render(&domain.schemas[k]),
            });
        }
    }
    let mut digest = Digest::default();
    digest_corpus(&mut digest, &corpus);
    for post in &posts {
        digest.feed(post.body.as_bytes());
    }
    IngestSetup {
        lexicon,
        truths: corpus.into_iter().map(|d| d.mapping).collect(),
        base,
        posts,
        digest: digest.value(),
        generate,
    }
}

/// Per-step timings of the in-process replay, taken in traced runs.
#[derive(Default)]
struct ReplayTimes {
    delta_ms: f64,
    full_ms: f64,
    match_ms: f64,
    steps: usize,
}

/// Replay the POST sequence in process through `ingest_interface`,
/// recording into `telemetry`. The last step of each domain is also
/// rebuilt by `ingest_interface_full` and must encode to the same
/// snapshot bytes. In traced runs every step also times the full
/// rebuild and the delta matcher.
fn replay(
    setup: &IngestSetup,
    report: &mut Report,
    telemetry: &Telemetry,
    times: Option<&mut ReplayTimes>,
) -> Vec<DomainArtifact> {
    let policy = NamingPolicy::default();
    let off = Telemetry::off();
    let lexicon = &setup.lexicon;
    let mut times = times;
    let mut finals = Vec::new();
    for base in &setup.base {
        let slug = base.slug();
        let bodies: Vec<&Post> = setup.posts.iter().filter(|p| p.slug == slug).collect();
        let mut current = base.clone();
        let mut carry = MatchCarry::build(&current.schemas, lexicon, MatcherConfig::default());
        for (i, post) in bodies.iter().enumerate() {
            let interface =
                qi_schema::text_format::parse(&post.body).expect("rendered interface parses");
            if let Some(times) = times.as_deref_mut() {
                let mut schemas = current.schemas.clone();
                schemas.push(interface.clone());
                let (outcome, match_time) = timed(|| {
                    qi_mapping::delta_match_carried(
                        &schemas,
                        &current.mapping,
                        lexicon,
                        MatcherConfig::default(),
                        Some(&carry),
                    )
                });
                carry = match outcome {
                    DeltaOutcome::Incremental(delta) => delta.carry,
                    DeltaOutcome::Fallback(_) => {
                        MatchCarry::build(&schemas, lexicon, MatcherConfig::default())
                    }
                };
                let (_, full_time) = timed(|| {
                    qi_serve::ingest_interface_full(
                        &current,
                        interface.clone(),
                        lexicon,
                        policy,
                        &off,
                    )
                });
                times.match_ms += ms(match_time);
                times.full_ms += ms(full_time);
            }
            let last = i + 1 == bodies.len();
            let full = last.then(|| {
                qi_serve::ingest_interface_full(&current, interface.clone(), lexicon, policy, &off)
            });
            let (next, delta_time) = timed(|| {
                qi_serve::ingest_interface(&current, interface, lexicon, policy, telemetry)
            });
            if let Some(times) = times.as_deref_mut() {
                times.delta_ms += ms(delta_time);
                times.steps += 1;
            }
            if let Some(full) = full {
                let encode = |a: &DomainArtifact| {
                    Snapshot {
                        policy,
                        domains: vec![a.clone()],
                    }
                    .to_bytes()
                };
                report.check(encode(&next) == encode(&full), || {
                    format!("{slug}: delta ingest differs from a full rebuild")
                });
            }
            current = next;
        }
        finals.push(current);
    }
    finals
}

/// The `/labels` body digest of each domain as a fresh server over
/// `artifacts` serves it.
fn served_labels(artifacts: Vec<DomainArtifact>) -> std::io::Result<Vec<(String, u64)>> {
    let slugs: Vec<String> = artifacts.iter().map(DomainArtifact::slug).collect();
    let store = Arc::new(Store::new(
        artifacts,
        Lexicon::builtin(),
        NamingPolicy::default(),
        Telemetry::off(),
    ));
    let mut handle = start(store, Telemetry::off())?;
    let labels = fetch_labels(handle.addr(), &slugs);
    handle.shutdown();
    labels
}

fn fetch_labels(
    addr: std::net::SocketAddr,
    slugs: &[String],
) -> std::io::Result<Vec<(String, u64)>> {
    let mut conn = Conn::connect(addr)?;
    slugs
        .iter()
        .map(|slug| {
            let response = conn.get(&format!("/domains/{slug}/labels"))?;
            Ok((slug.clone(), qi_serve::snapshot::fnv1a(&response.body)))
        })
        .collect()
}

/// What one round of POSTs beside reads observed.
#[derive(Default)]
struct Round {
    /// POST round trips, normalized by the reference runs around each.
    post_ns: Vec<u64>,
    /// Those reference runs' mean raw times.
    reference_ns: Vec<u64>,
    read_ns: Vec<u64>,
    late_ns: Vec<u64>,
}

/// One round: a fresh server over the base domains, every POST of the
/// sequence on one keep-alive connection (each sent after the previous
/// reply), and an open-loop reader beside it until the last reply.
fn round(
    setup: &IngestSetup,
    telemetry: &Telemetry,
    seed: u64,
    expected: &[(String, u64)],
    report: &mut Report,
) -> std::io::Result<Round> {
    qi_text::porter::stem_cache_reset();
    let store = Arc::new(Store::new(
        setup.base.clone(),
        Lexicon::builtin(),
        NamingPolicy::default(),
        telemetry.clone(),
    ));
    let mut handle = start(Arc::clone(&store), telemetry.clone())?;
    let addr = handle.addr();
    let paths: Vec<String> = setup
        .base
        .iter()
        .flat_map(|a| read_paths(&a.slug()))
        .collect();
    let templates: Vec<Vec<u8>> = paths.iter().map(|p| get_request(p)).collect();
    let mut warm = Conn::connect(addr)?;
    for path in &paths {
        warm.get(path)?;
    }
    // A POST runs on one of the server's workers, beside the reader and
    // the writer, on whichever core the scheduler picks.
    let cores = calibrate::busy_cores(1 + SERVER_WORKERS);
    let writing = AtomicBool::new(true);
    let mut out = Round::default();
    let (reads, writes) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = SplitMix64::new(seed);
            let period = 1e9 / READ_RATE;
            loadgen::open_loop(addr, 1, &templates, |i| {
                writing
                    .load(Ordering::Acquire)
                    .then(|| ((i as f64 * period) as u64, rng.gen_range(templates.len())))
            })
        });
        let writes = || -> std::io::Result<Vec<(calibrate::Timing, u16)>> {
            let mut conn = Conn::connect(addr)?;
            let mut results = Vec::with_capacity(setup.posts.len());
            for post in &setup.posts {
                let request =
                    post_request(&format!("/domains/{}/interfaces", post.slug), &post.body);
                let (response, timing) = calibrate::bracketed(
                    || calibrate::reference_cores_ns(cores, 1),
                    || conn.round_trip(&request),
                );
                results.push((timing, response?.status));
            }
            Ok(results)
        };
        let writes = writes();
        writing.store(false, Ordering::Release);
        (reader.join().expect("reader thread panicked"), writes)
    });
    let writes = writes?;
    let reads = reads?;
    for (timing, status) in &writes {
        report.tally.record(*status == 200);
        out.post_ns.push(timing.normalized_ns());
        out.reference_ns.push(timing.reference_ns);
    }
    for done in &reads.completed {
        report.tally.record(done.status == 200);
        out.read_ns.push(done.latency_ns());
        out.late_ns.push(done.late_ns());
    }
    for _ in 0..reads.unfinished {
        report.tally.record(false);
    }
    let slugs: Vec<String> = expected.iter().map(|(s, _)| s.clone()).collect();
    let served = fetch_labels(addr, &slugs)?;
    report.check(served == expected, || {
        "served /labels after the POSTs differ from the in-process replay".to_string()
    });
    handle.shutdown();
    Ok(out)
}

fn rounds(
    setup: &IngestSetup,
    telemetry: &Telemetry,
    args: &Args,
    budget: Duration,
    expected: &[(String, u64)],
    report: &mut Report,
) -> std::io::Result<Vec<Round>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < budget {
        let seed = args.seed.wrapping_add(out.len() as u64);
        out.push(round(setup, telemetry, seed, expected, report)?);
    }
    Ok(out)
}

fn merged(rounds: &[Round], pick: fn(&Round) -> &Vec<u64>) -> Vec<u64> {
    rounds
        .iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect()
}

/// Run `serve_ingest` into `report`.
pub fn run_ingest(args: &Args, report: &mut Report) {
    if let Err(e) = try_run_ingest(args, report) {
        report.check(false, || format!("serve_ingest: {e}"));
    }
}

fn try_run_ingest(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // One set-up alive at a time, so the peak RSS is the workload's.
        drop(built.take());
        let (setup, seconds) = calibrate::setup_seconds(|| ingest_setup(args));
        setups.push(seconds);
        digests.push(setup.digest);
        built = Some(setup);
    }
    let setup = built.expect("at least one setup");
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("inputs digest differs between setups of one seed: {digests:x?}")
    });
    eprintln!("serve_ingest: inputs digest {:016x}", digests[0]);

    let mut times = ReplayTimes::default();
    let replayed = Telemetry::new();
    let finals = replay(&setup, report, &replayed, args.trace.then_some(&mut times));
    let replayed = replayed.snapshot();
    let delta = counter(&replayed, "serve.ingest.delta") as f64;
    let full = counter(&replayed, "serve.ingest.full") as f64;
    let fallbacks: u64 = replayed
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.ingest.fallback."))
        .map(|(_, v)| v)
        .sum();
    eprintln!(
        "serve_ingest: {} POSTs per round, {full} of them full rebuilds",
        setup.posts.len()
    );
    let served: Vec<(&DomainArtifact, &Mapping)> = finals.iter().zip(&setup.truths).collect();
    let (f1, fld_acc) = served_quality(&served);
    let expected = served_labels(finals.clone())?;

    if args.trace {
        report.set("eval.match_f1", f1);
        report.set("eval.fld_acc", fld_acc);
        let off = Telemetry::off();
        let untraced = rounds(&setup, &off, args, args.seconds / 2, &expected, report)?;
        let registry = Telemetry::new();
        let traced = rounds(&setup, &registry, args, args.seconds / 2, &expected, report)?;
        let snapshot = registry.snapshot();
        let posts = merged(&traced, |r| &r.post_ns);
        let n = posts.len() as f64;
        let p50 = |rounds: &[Round]| percentile(&merged(rounds, |r| &r.post_ns), 50.0) as f64;
        report.set("datasets.generate_ms", ms(setup.generate));
        let references: Vec<f64> = merged(&traced, |r| &r.reference_ns)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        report.set("host.reference_us", median(&references));
        report.set(
            "mapping.match_ms",
            times.match_ms / times.steps.max(1) as f64,
        );
        report.set(
            "mapping.delta_pairs_scored",
            counter(&snapshot, "serve.ingest.pairs_scored") as f64 / n,
        );
        report.set("core.label_ms", span_ms(&snapshot, "label") / n);
        report.set(
            "core.phase1_groups_ms",
            span_ms(&snapshot, "label.phase1.groups") / n,
        );
        report.set(
            "core.phase3_ms",
            (span_ms(&snapshot, "label.phase3.groups")
                + span_ms(&snapshot, "label.phase3.internal"))
                / n,
        );
        let reused = counter(&snapshot, "labeler.reuse.groups") as f64;
        let extended = counter(&snapshot, "labeler.extend.groups") as f64;
        report.set("core.groups_reused_share", ratio(reused, reused + extended));
        report.set("serve.ingest_ms", span_ms(&snapshot, "serve.ingest") / n);
        // Outcomes of one pass over the POST sequence (the replay).
        report.set("serve.ingest.delta_share", ratio(delta, delta + full));
        report.set("serve.ingest.fallbacks", fallbacks as f64);
        report.set(
            "serve.ingest.full_over_delta",
            ratio(times.full_ms, times.delta_ms),
        );
        report.set("serve.ingest_p90_ms", percentile(&posts, 90.0) as f64 / 1e6);
        let reads = merged(&traced, |r| &r.read_ns);
        report.set(
            "serve.ingest_read_p99_us",
            percentile(&reads, 99.0) as f64 / 1e3,
        );
        let hits = counter(&snapshot, "serve.cache.hits") as f64;
        let misses = counter(&snapshot, "serve.cache.misses") as f64;
        report.set("serve.store.cache_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "serve.store.invalidations",
            counter(&snapshot, "serve.cache.invalidations") as f64 / traced.len() as f64,
        );
        report.set(
            "serve.queue_wait_p99_us",
            histogram_us(&snapshot, "serve.queue.wait", 0.99),
        );
        report.set(
            "serve.handler_p99_us",
            histogram_us(&snapshot, "serve.latency", 0.99),
        );
        let late = merged(&untraced, |r| &r.late_ns);
        report.set("loadgen.late_p99_us", percentile(&late, 99.0) as f64 / 1e3);
        report.set("loadgen.failed_share", report.tally.failed_share());
        report.set(
            "trace.overhead_pct",
            (p50(&traced) / p50(&untraced) - 1.0) * 100.0,
        );
        match probes::write_chrome_trace(&args.workload, &registry) {
            Ok(path) => eprintln!("serve_ingest: chrome trace at {path}"),
            Err(e) => eprintln!("serve_ingest: writing chrome trace: {e}"),
        }
    } else {
        let measured = rounds(
            &setup,
            &Telemetry::off(),
            args,
            args.seconds,
            &expected,
            report,
        )?;
        // Every round POSTs the same sequence into the same base. Each
        // POST's round trip is the median over rounds of its normalized
        // time (see `calibrate`); the percentiles are over those, and
        // throughput is the POST count over their sum. Work is counted
        // in POSTs: each one relabels its whole domain, so its cost
        // follows the domain's size, not the posted interface's.
        let trips: Vec<Vec<u64>> = measured.iter().map(|r| r.post_ns.clone()).collect();
        let typical = per_item_median(&trips);
        let round_s = typical.iter().sum::<u64>() as f64 / 1e9;
        let tail = tail_percentile(typical.len(), TAIL);
        report.set("setup_s", median(&setups));
        report.set_opt("peak_rss_mib", probes::peak_rss_mib());
        report.set("latency_p50_ms", percentile(&typical, 50.0) as f64 / 1e6);
        report.set("latency_tail_ms", percentile(&typical, tail) as f64 / 1e6);
        report.set("work_per_s", typical.len() as f64 / round_s);
        eprintln!(
            "serve_ingest: {} rounds of {} POSTs (p{tail} tail), {} reads",
            measured.len(),
            setup.posts.len(),
            merged(&measured, |r| &r.read_ns).len()
        );
    }
    Ok(())
}
