//! `serve_read`: a snapshot of drift domains served read-only. One
//! generator thread drives a closed loop over two keep-alive
//! connections, each keeping `DEPTH` pipelined requests in flight, as a
//! busy reverse proxy would: mostly cacheable
//! `GET /domains/{d}/labels|tree|explain` skewed across domains, plus a
//! fixed share of cursor-paged `/query` requests, which the server never
//! answers from its rendered cache.
//!
//! Latency counts from the send, behind up to `DEPTH - 1` earlier
//! requests on the same connection, so it is dominated by queueing:
//! `latency_p50_ms` is about `CONNECTIONS × DEPTH / work_per_s`, and a
//! change in per-request service time shows in the traced run's
//! `serve.handler_p99_us`. With one request in flight per connection the
//! round trip is mostly thread wake-ups, whose p50 moved by a fifth
//! between runs of the same code on a 2-vCPU VM: too unsteady to bound.
//!
//! The untraced run is cut into `WINDOW`-long windows that each replay
//! the same request sequence between readings of the reference workload
//! on every busy core (see `calibrate`), and each end-to-end figure is
//! the median over windows of its normalized value.

use crate::calibrate;
use crate::inputs::{digest_corpus, drift_corpus, Digest};
use crate::loadgen::{self, get_request, url_encode, Conn, LoopRun};
use crate::probes::{self, counter, histogram_us, ms, ratio, span_ms, timed};
use crate::report::Report;
use crate::serving::{matcher_domain, read_paths, served_quality, start, SERVER_WORKERS};
use crate::stats::{median, percentile, tail_percentile};
use crate::Args;
use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
use qi_mapping::Mapping;
use qi_runtime::{SplitMix64, Telemetry};
use qi_serve::{DomainArtifact, ServerHandle, Snapshot, Store};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOMAINS: usize = 16;
const INTERFACES: usize = 20;
const SETUPS: usize = 7;
const SALT: u64 = 0x4EAD;
/// Generator connections.
const CONNECTIONS: usize = 2;
/// Share of requests that are cursor-paged queries.
const QUERY_SHARE: f64 = 0.1;
/// Page size of the paged queries.
const QUERY_LIMIT: u64 = 20;
/// The fixed query set; each is requested from its second page on.
const QUERIES: &[&str] = &[
    "find fields",
    "find nodes where unlabeled",
    "find fields where label ~ \"e\"",
    "find nodes where rule ~ \"internal\"",
    "path to groups where labeled",
    "traverse nodes from (kind = group and labeled) where kind = field",
];
/// Requests each connection keeps in flight.
const DEPTH: usize = 16;
/// Tail percentile of request latency.
const TAIL: f64 = 90.0;
/// Zipf exponent of the domain skew.
const SKEW: f64 = 1.0;
/// Length of one measured window of the untraced run.
const WINDOW: Duration = Duration::from_millis(500);

/// The served corpus and what every request should answer.
struct ReadSetup {
    /// Ground-truth clusters by domain name.
    truths: BTreeMap<String, Mapping>,
    store: Arc<Store>,
    handle: ServerHandle,
    /// Request paths; the first `3 × DOMAINS` are the cached reads, the
    /// rest the cursor-paged queries.
    paths: Vec<String>,
    /// Body digest of each path, from the warm-up fetch.
    expected: Vec<u64>,
    digest: u64,
    generate: Duration,
    build: Duration,
    load: Duration,
    bytes: usize,
}

fn read_setup(args: &Args, telemetry: &Telemetry) -> std::io::Result<ReadSetup> {
    let policy = NamingPolicy::default();
    let off = Telemetry::off();
    let lexicon = Lexicon::builtin();
    let (corpus, generate) = timed(|| drift_corpus(args.seed, SALT, DOMAINS, INTERFACES, &lexicon));
    let (artifacts, build) = timed(|| {
        corpus
            .iter()
            .map(|d| {
                let domain = matcher_domain(&d.name, d.schemas.clone(), &lexicon);
                qi_serve::build_artifact(&domain, &lexicon, policy, &off)
            })
            .collect::<Vec<_>>()
    });
    let snapshot = Snapshot {
        policy,
        domains: artifacts,
    };
    let dir = probes::out_dir();
    std::fs::create_dir_all(&dir)?;
    let file = dir.join(format!("serve_read-{}.snap", std::process::id()));
    qi_serve::write_snapshot(&file, &snapshot)
        .map_err(|e| std::io::Error::other(format!("writing snapshot: {e}")))?;
    let bytes = std::fs::metadata(&file)?.len() as usize;
    drop(snapshot);
    let (store, load) = timed(|| {
        qi_serve::load_snapshot(&file)
            .map(|snapshot| Store::from_snapshot(snapshot, lexicon, telemetry.clone()))
    });
    std::fs::remove_file(&file)?;
    let store =
        Arc::new(store.map_err(|e| std::io::Error::other(format!("loading snapshot: {e}")))?);
    let handle = start(Arc::clone(&store), telemetry.clone())?;

    // Warm every cached route, and cut each query's second-page cursor.
    let mut conn = Conn::connect(handle.addr())?;
    let mut paths: Vec<String> = store.slugs().iter().flat_map(|s| read_paths(s)).collect();
    for query in QUERIES {
        let first = format!("/query?q={}&limit={QUERY_LIMIT}", url_encode(query));
        let page = String::from_utf8_lossy(&conn.get(&first)?.body).into_owned();
        let cursor = page
            .split("\"next_cursor\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .ok_or_else(|| std::io::Error::other(format!("query {query:?} has one page only")))?;
        paths.push(format!("{first}&cursor={cursor}"));
    }
    let mut expected = Vec::with_capacity(paths.len());
    for path in &paths {
        let response = conn.get(path)?;
        if response.status != 200 {
            return Err(std::io::Error::other(format!(
                "{path}: status {}",
                response.status
            )));
        }
        expected.push(qi_serve::snapshot::fnv1a(&response.body));
    }
    let mut digest = Digest::default();
    digest_corpus(&mut digest, &corpus);
    Ok(ReadSetup {
        truths: corpus.into_iter().map(|d| (d.name, d.mapping)).collect(),
        store,
        handle,
        paths,
        expected,
        digest: digest.value(),
        generate,
        build,
        load,
        bytes,
    })
}

/// The request mix: a cursor-paged query with probability
/// `QUERY_SHARE`, otherwise one of a domain's three cached routes, the
/// domain drawn from a Zipf distribution.
struct Mix {
    rng: SplitMix64,
    domain_cdf: Vec<f64>,
    reads: usize,
    queries: usize,
}

impl Mix {
    fn new(seed: u64, domains: usize, queries: usize) -> Mix {
        let weights: Vec<f64> = (1..=domains).map(|k| 1.0 / (k as f64).powf(SKEW)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let domain_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            rng: SplitMix64::new(seed),
            domain_cdf,
            reads: domains * 3,
            queries,
        }
    }

    fn next(&mut self) -> usize {
        if self.rng.gen_bool(QUERY_SHARE) {
            return self.reads + self.rng.gen_range(self.queries);
        }
        let u = self.rng.next_f64();
        let domain = self
            .domain_cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.domain_cdf.len() - 1);
        domain * 3 + self.rng.gen_range(3)
    }
}

/// Count a run's requests and check every response: a 200 whose body
/// digest equals the warm-up fetch of the same path.
fn check_run(run: &LoopRun, setup: &ReadSetup, report: &mut Report) {
    let mut first_bad = None;
    for done in &run.completed {
        let ok = done.status == 200 && done.digest == setup.expected[done.target];
        report.tally.record(ok);
        if !ok && first_bad.is_none() {
            first_bad = Some((done.target, done.status));
        }
    }
    for _ in 0..run.unfinished {
        report.tally.record(false);
    }
    if let Some((target, status)) = first_bad {
        report.check(false, || {
            format!(
                "{}: status {status} or its body changed",
                setup.paths[target]
            )
        });
    }
    report.check(run.unfinished == 0, || {
        format!("{} requests unanswered", run.unfinished)
    });
}

/// One closed-loop phase against `addr`.
fn phase(
    addr: SocketAddr,
    templates: &[Vec<u8>],
    mix: &mut Mix,
    duration: Duration,
) -> std::io::Result<LoopRun> {
    loadgen::closed_loop(addr, CONNECTIONS, DEPTH, templates, || mix.next(), duration)
}

fn latencies(run: &LoopRun) -> Vec<u64> {
    run.completed.iter().map(|c| c.latency_ns()).collect()
}

fn rate(run: &LoopRun) -> f64 {
    run.completed.len() as f64 / run.elapsed.as_secs_f64()
}

/// One measured window's figures, normalized by the reference readings
/// around it.
struct Window {
    requests: f64,
    raw_rate: f64,
    rate: f64,
    p50_ms: f64,
    /// The tail percentile reported.
    tail: f64,
    tail_ms: f64,
}

impl Window {
    fn of(run: &LoopRun, timing: calibrate::Timing) -> Window {
        let lat = latencies(run);
        let tail = tail_percentile(lat.len(), TAIL);
        let ms = |ns: u64| calibrate::normalize(ns, timing.reference_ns) as f64 / 1e6;
        Window {
            requests: lat.len() as f64,
            raw_rate: rate(run),
            rate: timing.normalized_rate(rate(run)),
            p50_ms: ms(percentile(&lat, 50.0)),
            tail,
            tail_ms: ms(percentile(&lat, tail)),
        }
    }
}

/// Every served artifact, in slug order (the order `/query` scans).
fn served(store: &Store) -> Vec<Arc<DomainArtifact>> {
    store.slugs().iter().filter_map(|s| store.get(s)).collect()
}

/// Traversal nodes the query engine scans per match over the query set,
/// run in process on the served artifacts without page or budget caps.
fn scanned_per_match(store: &Store) -> f64 {
    let artifacts = served(store);
    let refs: Vec<&DomainArtifact> = artifacts.iter().map(Arc::as_ref).collect();
    let params = qi_serve::PageParams {
        limit: u64::MAX,
        budget: u64::MAX,
        cursor: None,
    };
    let (mut scanned, mut matches) = (0u64, 0u64);
    for query in QUERIES {
        if let Ok(page) = qi_serve::run_query(&refs, store.lexicon(), query, &params) {
            scanned += page.scanned;
            matches += page.matches.len() as u64;
        }
    }
    ratio(scanned as f64, matches as f64)
}

/// Run `serve_read` into `report`.
pub fn run(args: &Args, report: &mut Report) {
    if let Err(e) = try_run(args, report) {
        report.check(false, || format!("serve_read: {e}"));
    }
}

fn try_run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let off = Telemetry::off();
    let mut setups = Vec::new();
    let mut digests = Vec::new();
    let mut built: Option<ReadSetup> = None;
    for _ in 0..SETUPS {
        if let Some(mut previous) = built.take() {
            previous.handle.shutdown();
        }
        let (setup, seconds) = calibrate::setup_seconds(|| read_setup(args, &off));
        let setup = setup?;
        setups.push(seconds);
        let mut digest = Digest::default();
        digest.feed(&setup.digest.to_le_bytes());
        for value in &setup.expected {
            digest.feed(&value.to_le_bytes());
        }
        digests.push(digest.value());
        built = Some(setup);
    }
    let mut setup = built.expect("at least one setup");
    report.check(digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("inputs or served bodies differ between setups of one seed: {digests:x?}")
    });
    eprintln!("serve_read: inputs digest {:016x}", setup.digest);
    let templates: Vec<Vec<u8>> = setup.paths.iter().map(|p| get_request(p)).collect();
    let mut mix = Mix::new(args.seed, DOMAINS, QUERIES.len());
    let addr = setup.handle.addr();

    if args.trace {
        let reference = calibrate::reference_cores_ns(
            calibrate::busy_cores(1 + SERVER_WORKERS),
            calibrate::REFERENCE_RUNS,
        );
        report.set("host.reference_us", reference as f64 / 1e3);
        let untraced = phase(addr, &templates, &mut mix, args.seconds / 2)?;
        check_run(&untraced, &setup, report);
        // The traced phase runs a second server over the same store with
        // a live registry.
        let registry = Telemetry::new();
        let mut traced_handle = start(Arc::clone(&setup.store), registry.clone())?;
        let traced = phase(traced_handle.addr(), &templates, &mut mix, args.seconds / 2)?;
        traced_handle.shutdown();
        check_run(&traced, &setup, report);
        let snapshot = registry.snapshot();
        let artifacts = served(&setup.store);
        let pairs: Vec<(&DomainArtifact, &Mapping)> = artifacts
            .iter()
            .map(|a| (a.as_ref(), &setup.truths[&a.name]))
            .collect();
        let (f1, fld_acc) = served_quality(&pairs);
        let hits = counter(&snapshot, "serve.cache.hits") as f64;
        let misses = counter(&snapshot, "serve.cache.misses") as f64;
        let executed = counter(&snapshot, "query.executed") as f64;
        report.set("datasets.generate_ms", ms(setup.generate));
        report.set("serve.snapshot.build_ms", ms(setup.build));
        report.set("serve.snapshot.load_ms", ms(setup.load));
        report.set("serve.snapshot.bytes", setup.bytes as f64);
        // No matching or labeling may happen on the read path: the server
        // matches only inside an ingest, and labels through the labeler.
        report.set("mapping.match_ms", span_ms(&snapshot, "serve.ingest"));
        report.set(
            "mapping.pairs_scored",
            (counter(&snapshot, "serve.ingest.pairs_scored")
                + counter(&snapshot, "matcher.pairs_scored")) as f64,
        );
        report.set("core.label_ms", span_ms(&snapshot, "label"));
        report.set("eval.match_f1", f1);
        report.set("eval.fld_acc", fld_acc);
        report.set("serve.store.cache_hit_ratio", ratio(hits, hits + misses));
        report.set(
            "serve.store.invalidations",
            counter(&snapshot, "serve.cache.invalidations") as f64,
        );
        report.set(
            "serve.queue_wait_p99_us",
            histogram_us(&snapshot, "serve.queue.wait", 0.99),
        );
        report.set(
            "serve.handler_p99_us",
            histogram_us(&snapshot, "serve.latency", 0.99),
        );
        report.set(
            "query.exec_ms",
            ratio(span_ms(&snapshot, "query.exec"), executed),
        );
        report.set("query.scanned_per_match", scanned_per_match(&setup.store));
        report.set("loadgen.failed_share", report.tally.failed_share());
        report.set(
            "trace.overhead_pct",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        );
        match probes::write_chrome_trace(&args.workload, &registry) {
            Ok(path) => eprintln!("serve_read: chrome trace at {path}"),
            Err(e) => eprintln!("serve_read: writing chrome trace: {e}"),
        }
    } else {
        // Windows that each replay the same request sequence from the
        // start, each between readings of the reference on every core
        // the server and the generator keep busy; every figure is the
        // median over windows of its normalized value (see `calibrate`).
        let cores = calibrate::busy_cores(1 + SERVER_WORKERS);
        let start = Instant::now();
        let mut windows = Vec::new();
        while windows.is_empty() || start.elapsed() < args.seconds {
            let mut mix = Mix::new(args.seed, DOMAINS, QUERIES.len());
            let (window, timing) = calibrate::bracketed(
                || calibrate::reference_cores_ns(cores, calibrate::REFERENCE_RUNS),
                || phase(addr, &templates, &mut mix, WINDOW),
            );
            let window = window?;
            check_run(&window, &setup, report);
            windows.push(Window::of(&window, timing));
        }
        let figure = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        report.set("setup_s", median(&setups));
        report.set_opt("peak_rss_mib", probes::peak_rss_mib());
        report.set("latency_p50_ms", figure(|w| w.p50_ms));
        report.set("latency_tail_ms", figure(|w| w.tail_ms));
        report.set("work_per_s", figure(|w| w.rate));
        eprintln!(
            "serve_read: {} windows of {:.0} requests, p{}; raw rate {:.0}/s",
            windows.len(),
            figure(|w| w.requests),
            windows.iter().map(|w| w.tail).fold(f64::INFINITY, f64::min),
            figure(|w| w.raw_rate)
        );
    }
    setup.handle.shutdown();
    Ok(())
}
