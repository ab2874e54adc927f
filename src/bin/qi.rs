//! `qi` — command-line front end for the query-interface labeling
//! library.
//!
//! ```text
//! qi help                         show usage
//! qi stem <word>...               Porter-stem words
//! qi relate <label-a> <label-b>   Definition 1 relation between labels
//! qi label [opts] <file>...       integrate + label interface files
//!     --lexicon <file>            use a custom lexicon (text format)
//!     --explain                   print the label-provenance narrative
//!     --html                      print the integrated form as HTML
//!     --most-general              use the \[12\]-style baseline policy
//! qi corpus export <dir>          write the 150-interface corpus + the
//!                                 builtin lexicon as text files
//! qi synth [--drift] [opts]       generate a synthetic (cloned or
//!                                 realistic-drift) corpus
//! qi eval table6|figure10|matcher|ablation|ablation-ladder
//!                                 regenerate evaluation artifacts
//! ```
//!
//! Interface files use the `qi-schema` text format (see
//! `qi_schema::text_format`); clusters are derived with the
//! label-similarity matcher.

use qi::{Lexicon, NamingPolicy};
use qi_serve::client::Connection;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{}", USAGE);
            Ok(())
        }
        Some("stem") => cmd_stem(&args[1..]),
        Some("relate") => cmd_relate(&args[1..]),
        Some("label") => cmd_label(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some(other) => Err(format!("unknown command {other:?}; try `qi help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
qi — meaningful labeling of integrated query interfaces (VLDB 2006)

usage:
  qi stem <word>...               Porter-stem words
  qi relate <label-a> <label-b>   Definition 1 relation between labels
  qi label [opts] <file>...       integrate + label interface files
      --lexicon <file>            custom lexicon (text format)
      --clusters <file>           ground-truth clusters (text format)
      --explain                   print label provenance
      --html                      print the integrated form as HTML
      --most-general              use the most-general baseline policy
      --metrics <file>            write a JSON metrics document
      --deterministic-timers      virtual span clock (byte-stable output)
  qi corpus export <dir>          dump the 150-interface corpus
  qi synth [opts]                 generate a synthetic corpus and print
                                  a per-corpus summary
      --drift                     realistic-drift generator (paraphrase,
                                  morphology, typos, field add/drop,
                                  group reshuffles) instead of
                                  suffix-renamed clones
      --seed <n>                  drift RNG seed (drift mode only)
      --domains <n>               domain count
      --clones <k>                replicas per domain (cloned mode)
      --export <dir>              write the interfaces as .qis files
      --report                    run the matcher and print per-tier
                                  accepts + the morphology cache rate
  qi eval <artifact> [opts]       table6 | table6-json | figure10 |
                                  matcher | ablation | ablation-ladder
      --metrics <file>            write corpus-run metrics as JSON
      --trace-out <file>          write a Chrome trace_event JSON file
      --deterministic-timers      virtual span clock (byte-stable output)
      --threads <n>               corpus worker bound (0 = hardware)
  qi explain <domain> [node-path] print labeling-decision provenance for
                                  a builtin corpus domain; the optional
                                  node-path filters by path substring
      --most-general              use the most-general baseline policy
  qi snapshot build <file>        run the pipeline over the builtin
                                  corpus and persist every artifact
      --most-general              use the most-general baseline policy
  qi snapshot info <file>         describe a snapshot file
  qi serve [opts]                 serve labels over HTTP/1.1
      --snapshot <file>           cold-start from a snapshot (otherwise
                                  the corpus pipeline runs at startup)
      --addr <host:port>          bind address (default 127.0.0.1:0)
      --threads <n>               worker threads (0 = hardware)
      --port-file <file>          write the bound address for scripts
      --metrics <file>            write server metrics as JSON on exit
      --access-log <sink>         per-request log: \"stderr\" or a file
      --slow-ms <n>               log span breakdowns of slow requests
      --events <n>                flight-recorder ring capacity
                                  (default 1024; 0 disables it)
      --history-interval-ms <n>   /metrics/history window width
                                  (default 1000)
      --history-windows <n>       retained history windows (default 64;
                                  0 disables the series)
  qi top [opts] <host:port>       live terminal dashboard: polls
                                  /metrics/history over one keep-alive
                                  connection and renders per-window
                                  req/s, latency quantiles, ingest,
                                  cache and event columns
      --interval-ms <n>           poll interval (default 1000)
      --iterations <n>            stop after n refreshes (default: run
                                  until interrupted)
      --windows <n>               windows to request and show
                                  (default 10)
      --raw                       append one summary line per poll
                                  instead of redrawing the screen
  qi query [opts] <query>...      run a tree/lexicon/provenance query
                                  (same syntax as GET /query) over the
                                  builtin corpus or a snapshot; extra
                                  words are joined with spaces, so
                                  `qi query find fields` works unquoted
      --snapshot <file>           query a snapshot instead of rebuilding
                                  the corpus pipeline
      --limit <n>                 page size (default 100, max 1000)
      --cursor <c>                resume from a previous page's cursor
      --budget <n>                traversal-node budget (default 100000)
      --format <json|text>        output format (default text); json is
                                  the same document /query serves
  qi fetch [--post] [--body <f>] [--data <s>] [--accept <type>]
           [--etag <tag>] [--include] [--keep-alive] [--repeat <n>]
           <url>                  tiny std-only HTTP client (probes);
                                  the url's path and query string are
                                  percent-encoded before sending, so
                                  spaces in ?q= survive; --body reads a
                                  POST body from a file (`-` = stdin)
                                  and --data passes one inline; --etag
                                  sends if-none-match and treats 304
                                  Not Modified as success, --include
                                  prints the response head; --repeat
                                  sends the request n times, and with
                                  --keep-alive all repeats share one
                                  connection (failing if the server
                                  answers connection: close); other
                                  non-2xx responses exit non-zero with
                                  the status line on stderr
";

/// Resolve the `--metrics` / `--deterministic-timers` pair into a
/// telemetry mode: no path means off, a path means wall-clock spans
/// unless the virtual clock was requested.
fn telemetry_mode(metrics_path: Option<&str>, deterministic: bool) -> qi_runtime::TelemetryMode {
    match (metrics_path, deterministic) {
        (None, _) => qi_runtime::TelemetryMode::Off,
        (Some(_), false) => qi_runtime::TelemetryMode::Wall,
        (Some(_), true) => qi_runtime::TelemetryMode::Deterministic,
    }
}

fn write_metrics(path: &str, snapshot: &qi_runtime::MetricsSnapshot) -> Result<(), String> {
    std::fs::write(path, format!("{}\n", snapshot.to_json()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "wrote {} counters, {} gauges, {} spans to {path}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.spans.len()
    );
    Ok(())
}

fn cmd_stem(words: &[String]) -> Result<(), String> {
    if words.is_empty() {
        return Err("usage: qi stem <word>...".to_string());
    }
    for word in words {
        println!("{word} -> {}", qi_text::stem(&word.to_lowercase()));
    }
    Ok(())
}

fn cmd_relate(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: qi relate <label-a> <label-b>".to_string());
    };
    let lexicon = Lexicon::builtin();
    let ta = lexicon.label_text(a);
    let tb = lexicon.label_text(b);
    let rel = qi_core::relations::relate(&ta, &tb, &lexicon);
    println!(
        "{a:?} ({}) vs {b:?} ({}) -> {rel:?}",
        ta.keys().into_iter().collect::<Vec<_>>().join(","),
        tb.keys().into_iter().collect::<Vec<_>>().join(","),
    );
    Ok(())
}

fn cmd_label(args: &[String]) -> Result<(), String> {
    let mut files: Vec<&str> = Vec::new();
    let mut lexicon_path: Option<&str> = None;
    let mut clusters_path: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut deterministic = false;
    let mut explain = false;
    let mut html = false;
    let mut policy = NamingPolicy::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--lexicon" => {
                lexicon_path = Some(
                    iter.next()
                        .ok_or("--lexicon needs a file argument")?
                        .as_str(),
                )
            }
            "--clusters" => {
                clusters_path = Some(
                    iter.next()
                        .ok_or("--clusters needs a file argument")?
                        .as_str(),
                )
            }
            "--metrics" => {
                metrics_path = Some(
                    iter.next()
                        .ok_or("--metrics needs a file argument")?
                        .as_str(),
                )
            }
            "--deterministic-timers" => deterministic = true,
            "--explain" => explain = true,
            "--html" => html = true,
            "--most-general" => policy = NamingPolicy::most_general_baseline(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => files.push(file),
        }
    }
    if files.is_empty() {
        return Err("usage: qi label [opts] <file>...".to_string());
    }
    let lexicon = match lexicon_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            qi_lexicon::format::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => Lexicon::builtin(),
    };
    let mut schemas = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        let tree = qi_schema::text_format::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        schemas.push(tree);
    }
    let telemetry = telemetry_mode(metrics_path, deterministic).build();
    let mapping = match clusters_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            qi_mapping::clusters_format::parse(&text, &schemas)
                .map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            let span = telemetry.span("pipeline.cluster");
            let (mapping, stats) = qi_mapping::match_by_labels_stats(
                &schemas,
                &lexicon,
                qi_mapping::MatcherConfig::default(),
            );
            drop(span);
            stats.record(&telemetry);
            mapping
        }
    };
    eprintln!(
        "matched {} fields into {} clusters",
        schemas.iter().map(|s| s.leaves().count()).sum::<usize>(),
        mapping.len()
    );
    let labeled =
        qi::integrate_and_label_with(schemas, mapping, &lexicon, policy, telemetry.clone());
    if html {
        print!("{}", qi_schema::html::render_form(&labeled.tree));
    } else {
        print!("{}", labeled.tree.render());
    }
    if let Some(class) = labeled.report.class {
        eprintln!("consistency class: {class}");
    }
    if explain {
        println!();
        let decisions = qi_core::provenance::decisions(&labeled, &policy);
        print!("{}", qi_core::provenance::render(&decisions, None));
    }
    if let Some(path) = metrics_path {
        write_metrics(path, &telemetry.snapshot())?;
    }
    Ok(())
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    let [action, dir] = args else {
        return Err("usage: qi corpus export <dir>".to_string());
    };
    if action != "export" {
        return Err(format!("unknown corpus action {action:?}"));
    }
    let root = Path::new(dir);
    std::fs::create_dir_all(root).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut written = 0usize;
    for domain in qi_datasets::all_domains() {
        let domain_dir = root.join(domain.name.replace(' ', "_").to_lowercase());
        std::fs::create_dir_all(&domain_dir).map_err(|e| e.to_string())?;
        for tree in &domain.schemas {
            let path = domain_dir.join(format!("{}.qis", tree.name()));
            std::fs::write(&path, qi_schema::text_format::render(tree))
                .map_err(|e| e.to_string())?;
            written += 1;
        }
    }
    let lexicon_path = root.join("lexicon.txt");
    std::fs::write(
        &lexicon_path,
        qi_lexicon::format::render(&Lexicon::builtin()),
    )
    .map_err(|e| e.to_string())?;
    println!(
        "wrote {written} interfaces and {} to {dir}",
        lexicon_path.display()
    );
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi synth [--drift] [--seed <n>] [--domains <n>] [--clones <k>] \
                 [--export <dir>] [--report]";
    let mut drift = false;
    let mut report = false;
    let mut seed: Option<u64> = None;
    let mut domains: Option<usize> = None;
    let mut clones = 2usize;
    let mut export: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--drift" => drift = true,
            "--report" => report = true,
            "--seed" => {
                seed = Some(
                    iter.next()
                        .ok_or("--seed needs a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--domains" => {
                domains = Some(
                    iter.next()
                        .ok_or("--domains needs a number")?
                        .parse()
                        .map_err(|e| format!("--domains: {e}"))?,
                )
            }
            "--clones" => {
                clones = iter
                    .next()
                    .ok_or("--clones needs a number")?
                    .parse()
                    .map_err(|e| format!("--clones: {e}"))?
            }
            "--export" => export = Some(iter.next().ok_or("--export needs a directory")?.clone()),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let lexicon = Lexicon::builtin();
    let corpus: Vec<qi_datasets::Domain> = if drift {
        let mut config = qi_datasets::DriftConfig::default();
        if let Some(seed) = seed {
            config.seed = seed;
        }
        if let Some(domains) = domains {
            config.domains = domains;
        }
        qi_datasets::generate_drift_corpus(&config, &lexicon)
    } else {
        if seed.is_some() {
            return Err("--seed only applies to --drift".to_string());
        }
        qi_datasets::all_domains()
            .into_iter()
            .take(domains.unwrap_or(usize::MAX))
            .map(|d| qi_datasets::Domain {
                name: format!("{}-x{clones}", d.name),
                schemas: qi_datasets::replicate_schemas(&d.schemas, clones),
                mapping: qi_mapping::Mapping::from_clusters(Vec::<(
                    String,
                    Vec<qi_mapping::FieldRef>,
                )>::new()),
            })
            .collect()
    };
    let interfaces: usize = corpus.iter().map(|d| d.schemas.len()).sum();
    let fields: usize = corpus
        .iter()
        .flat_map(|d| &d.schemas)
        .map(|s| s.leaves().count())
        .sum();
    println!(
        "{} corpus: {} domains, {interfaces} interfaces, {fields} fields",
        if drift { "drift" } else { "cloned" },
        corpus.len()
    );
    if let Some(dir) = export {
        let root = Path::new(&dir);
        std::fs::create_dir_all(root).map_err(|e| format!("creating {dir}: {e}"))?;
        let mut written = 0usize;
        for domain in &corpus {
            let domain_dir = root.join(domain.name.replace(' ', "_").to_lowercase());
            std::fs::create_dir_all(&domain_dir).map_err(|e| e.to_string())?;
            for tree in &domain.schemas {
                let path = domain_dir.join(format!("{}.qis", tree.name()));
                std::fs::write(&path, qi_schema::text_format::render(tree))
                    .map_err(|e| e.to_string())?;
                written += 1;
            }
        }
        println!("wrote {written} interfaces to {dir}");
    }
    if report {
        let config = qi_mapping::MatcherConfig {
            fuzzy: true,
            ..qi_mapping::MatcherConfig::default()
        };
        let report = qi_datasets::DriftReport::compute(&corpus, &lexicon, config);
        println!("distinct labels: {}", report.distinct_labels);
        println!(
            "accepts: string {}  word-set {}  synonym {}  fuzzy {}",
            report.stats.accepted_string,
            report.stats.accepted_word_set,
            report.stats.accepted_synonym,
            report.stats.accepted_fuzzy
        );
        println!("morphology cache-hit rate: {:.4}", report.cache_hit_rate());
    }
    Ok(())
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let usage =
        "usage: qi eval <table6|table6-json|figure10|matcher|ablation|ablation-ladder> [--metrics <file>] \
         [--trace-out <file>] [--deterministic-timers] [--threads <n>]";
    let mut artifact: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut trace_path: Option<&str> = None;
    let mut deterministic = false;
    let mut threads = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics" => {
                metrics_path = Some(
                    iter.next()
                        .ok_or("--metrics needs a file argument")?
                        .as_str(),
                )
            }
            "--trace-out" => {
                trace_path = Some(
                    iter.next()
                        .ok_or("--trace-out needs a file argument")?
                        .as_str(),
                )
            }
            "--deterministic-timers" => deterministic = true,
            "--threads" => {
                threads = iter
                    .next()
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if artifact.is_none() => artifact = Some(name),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let Some(artifact) = artifact else {
        return Err(usage.to_string());
    };
    let lexicon = Lexicon::builtin();
    let config = qi_eval::RunConfig {
        threads,
        telemetry: telemetry_mode(metrics_path.or(trace_path), deterministic),
    };
    let run_corpus = || {
        qi_eval::evaluate_corpus_with(
            &qi_datasets::all_domains(),
            &lexicon,
            NamingPolicy::default(),
            qi_eval::Panel::default(),
            config,
        )
    };
    // The corpus ships ground-truth clusters, so evaluation never runs
    // the matcher; a metrics run adds a cluster probe per domain so the
    // document also covers postings/candidate-pair statistics.
    let emit = |corpus_metrics: &qi_runtime::MetricsSnapshot| -> Result<(), String> {
        if metrics_path.is_none() && trace_path.is_none() {
            return Ok(());
        }
        let mut merged = corpus_metrics.clone();
        merged.merge(&cluster_probe(&lexicon, config.telemetry));
        if let Some(path) = metrics_path {
            write_metrics(path, &merged)?;
        }
        if let Some(path) = trace_path {
            std::fs::write(path, format!("{}\n", qi_runtime::chrome_trace(&merged)))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote a {}-span chrome trace to {path}", merged.spans.len());
        }
        Ok(())
    };
    match artifact {
        "table6" => {
            let result = run_corpus();
            print!("{}", qi_eval::table::render_table6(&result.domains));
            emit(&result.metrics)?;
        }
        "figure10" => {
            let result = run_corpus();
            print!("{}", qi_eval::table::render_figure10(&result.li_usage));
            emit(&result.metrics)?;
        }
        "table6-json" => {
            let result = run_corpus();
            println!("{}", qi_eval::json::corpus_to_json(&result));
            emit(&result.metrics)?;
        }
        "matcher" => {
            let reports: Vec<_> = qi_datasets::all_domains()
                .iter()
                .map(|d| qi_eval::matcher_eval::evaluate_matcher(d, &lexicon))
                .collect();
            print!("{}", qi_eval::matcher_eval::render(&reports));
            emit(&qi_runtime::MetricsSnapshot::default())?;
        }
        "ablation" => {
            print!("{}", qi_eval::ablation::render_report(&lexicon));
            emit(&qi_runtime::MetricsSnapshot::default())?;
        }
        "ablation-ladder" => {
            let domain = qi_datasets::generate_ladder(3, 3);
            for point in qi_eval::ablation::ladder_sweep(&domain, &lexicon) {
                println!(
                    "cap={:<9} consistent groups {}/{}",
                    point.cap, point.consistent_groups, point.total_groups
                );
            }
            emit(&qi_runtime::MetricsSnapshot::default())?;
        }
        other => return Err(format!("unknown artifact {other:?}")),
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi explain <domain> [node-path] [--most-general]";
    let mut domain_arg: Option<&str> = None;
    let mut filter: Option<&str> = None;
    let mut policy = NamingPolicy::default();
    for arg in args {
        match arg.as_str() {
            "--most-general" => policy = NamingPolicy::most_general_baseline(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            value if domain_arg.is_none() => domain_arg = Some(value),
            value if filter.is_none() => filter = Some(value),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let Some(domain_arg) = domain_arg else {
        return Err(usage.to_string());
    };
    let domains = qi_datasets::all_domains();
    let wanted = qi_serve::artifact::slug_of(domain_arg);
    let Some(domain) = domains
        .iter()
        .find(|d| qi_serve::artifact::slug_of(&d.name) == wanted)
    else {
        let known: Vec<String> = domains
            .iter()
            .map(|d| qi_serve::artifact::slug_of(&d.name))
            .collect();
        return Err(format!(
            "unknown domain {domain_arg:?}; builtin domains: {}",
            known.join(", ")
        ));
    };
    let lexicon = Lexicon::builtin();
    let telemetry = qi_runtime::Telemetry::off();
    let artifact = qi_serve::build_artifact(domain, &lexicon, policy, &telemetry);
    let text = qi_core::provenance::render(&artifact.decisions, filter);
    if text.is_empty() {
        return Err(match filter {
            Some(filter) => format!("no node path contains {filter:?} in domain {wanted}"),
            None => format!("domain {wanted} produced no labeling decisions"),
        });
    }
    eprintln!(
        "{} — {} decisions{}",
        domain.name,
        artifact.decisions.len(),
        filter
            .map(|f| format!(", filtered by {f:?}"))
            .unwrap_or_default()
    );
    print!("{text}");
    Ok(())
}

fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi snapshot <build|info> <file> [--most-general]";
    let mut action: Option<&str> = None;
    let mut file: Option<&str> = None;
    let mut policy = NamingPolicy::default();
    for arg in args {
        match arg.as_str() {
            "--most-general" => policy = NamingPolicy::most_general_baseline(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            value if action.is_none() => action = Some(value),
            value if file.is_none() => file = Some(value),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let (Some(action), Some(file)) = (action, file) else {
        return Err(usage.to_string());
    };
    match action {
        "build" => {
            let lexicon = Lexicon::builtin();
            let telemetry = qi_runtime::Telemetry::off();
            let domains = qi_serve::build_corpus_artifacts(&lexicon, policy, &telemetry);
            let snapshot = qi_serve::Snapshot { policy, domains };
            qi_serve::write_snapshot(Path::new(file), &snapshot).map_err(|e| e.to_string())?;
            let size = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
            println!(
                "wrote {} domains ({} bytes, format v{}) to {file}",
                snapshot.domains.len(),
                size,
                qi_serve::FORMAT_VERSION
            );
            Ok(())
        }
        "info" => {
            let snapshot = qi_serve::load_snapshot(Path::new(file)).map_err(|e| e.to_string())?;
            println!(
                "snapshot format v{}, {} domains",
                qi_serve::FORMAT_VERSION,
                snapshot.domains.len()
            );
            for artifact in &snapshot.domains {
                println!(
                    "  {:<14} {:>2} interfaces {:>3} clusters {:>3} leaves  {}",
                    artifact.slug(),
                    artifact.interfaces(),
                    artifact.mapping.len(),
                    artifact.leaf_cluster.len(),
                    artifact
                        .class
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "unclassified".to_string()),
                );
            }
            Ok(())
        }
        other => Err(format!("unknown snapshot action {other:?}; {usage}")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut snapshot_path: Option<&str> = None;
    let mut port_file: Option<&str> = None;
    let mut metrics_path: Option<&str> = None;
    let mut config = qi_serve::ServerConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--snapshot" => {
                snapshot_path = Some(iter.next().ok_or("--snapshot needs a file")?.as_str())
            }
            "--addr" => config.addr = iter.next().ok_or("--addr needs host:port")?.to_string(),
            "--threads" => {
                config.threads = iter
                    .next()
                    .ok_or("--threads needs a number")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--port-file" => {
                port_file = Some(iter.next().ok_or("--port-file needs a file")?.as_str())
            }
            "--metrics" => {
                metrics_path = Some(iter.next().ok_or("--metrics needs a file")?.as_str())
            }
            "--access-log" => {
                config.access_log =
                    Some(iter.next().ok_or("--access-log needs a sink")?.to_string())
            }
            "--slow-ms" => {
                config.slow_ms = Some(
                    iter.next()
                        .ok_or("--slow-ms needs a number")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                )
            }
            "--events" => {
                config.events_capacity = iter
                    .next()
                    .ok_or("--events needs a number")?
                    .parse()
                    .map_err(|e| format!("--events: {e}"))?
            }
            "--history-interval-ms" => {
                config.history_interval_ms = iter
                    .next()
                    .ok_or("--history-interval-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("--history-interval-ms: {e}"))?
            }
            "--history-windows" => {
                config.history_windows = iter
                    .next()
                    .ok_or("--history-windows needs a number")?
                    .parse()
                    .map_err(|e| format!("--history-windows: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?}; try `qi help`")),
        }
    }
    config.snapshot_path = snapshot_path.map(str::to_string);
    let lexicon = Lexicon::builtin();
    let telemetry = qi_runtime::Telemetry::new();
    let store = match snapshot_path {
        Some(path) => {
            let span = telemetry.timed("serve.cold_start.snapshot");
            let snapshot = qi_serve::load_snapshot(Path::new(path)).map_err(|e| e.to_string())?;
            drop(span);
            eprintln!("loaded {} domains from {path}", snapshot.domains.len());
            qi_serve::Store::from_snapshot(snapshot, lexicon, telemetry.clone())
        }
        None => {
            let span = telemetry.timed("serve.cold_start.rebuild");
            let policy = NamingPolicy::default();
            let domains = qi_serve::build_corpus_artifacts(&lexicon, policy, &telemetry);
            drop(span);
            eprintln!("built {} domains from the builtin corpus", domains.len());
            qi_serve::Store::new(domains, lexicon, policy, telemetry.clone())
        }
    };
    let server =
        qi_serve::Server::with_config(std::sync::Arc::new(store), telemetry.clone(), config);
    let mut handle = server
        .start()
        .map_err(|e| format!("starting server: {e}"))?;
    eprintln!("serving on http://{}", handle.addr());
    if let Some(path) = port_file {
        std::fs::write(path, format!("{}\n", handle.addr()))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    handle.wait();
    eprintln!("server stopped");
    if let Some(path) = metrics_path {
        write_metrics(path, &telemetry.snapshot())?;
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi query [--snapshot <file>] [--limit <n>] [--cursor <c>] \
                 [--budget <n>] [--format <json|text>] <query>...";
    let mut snapshot_path: Option<&str> = None;
    let mut params = qi_serve::PageParams::default();
    let mut json = false;
    let mut words: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--snapshot" => {
                snapshot_path = Some(iter.next().ok_or("--snapshot needs a file")?.as_str())
            }
            "--limit" => {
                params.limit = iter
                    .next()
                    .ok_or("--limit needs a number")?
                    .parse()
                    .map_err(|e| format!("--limit: {e}"))?
            }
            "--cursor" => {
                params.cursor = Some(iter.next().ok_or("--cursor needs a value")?.to_string())
            }
            "--budget" => {
                params.budget = iter
                    .next()
                    .ok_or("--budget needs a number")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--format" => match iter.next().ok_or("--format needs json or text")?.as_str() {
                "json" => json = true,
                "text" => json = false,
                other => return Err(format!("--format must be json or text, got {other:?}")),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => words.push(word),
        }
    }
    if words.is_empty() {
        return Err(usage.to_string());
    }
    // Join bare words so `qi query find fields where labeled` works
    // without shell quoting; quoted strings still pass through as one
    // argument each.
    let text = words.join(" ");
    let lexicon = Lexicon::builtin();
    let telemetry = qi_runtime::Telemetry::off();
    let artifacts = match snapshot_path {
        Some(path) => {
            qi_serve::load_snapshot(Path::new(path))
                .map_err(|e| e.to_string())?
                .domains
        }
        None => qi_serve::build_corpus_artifacts(&lexicon, NamingPolicy::default(), &telemetry),
    };
    let mut refs: Vec<&qi_serve::DomainArtifact> = artifacts.iter().collect();
    refs.sort_by_key(|a| a.slug());
    let page = qi_serve::run_query(&refs, &lexicon, &text, &params).map_err(|e| e.to_string())?;
    if json {
        println!("{}", qi_serve::page_json(&page));
        return Ok(());
    }
    for matched in &page.matches {
        println!(
            "{:<14} {:<5} {}  label={}  rule={}",
            matched.domain,
            matched.kind,
            matched.path,
            matched.label.as_deref().unwrap_or("-"),
            matched.rule.as_deref().unwrap_or("-"),
        );
    }
    eprintln!(
        "{} — {} matches, {} nodes scanned",
        page.canonical,
        page.matches.len(),
        page.scanned
    );
    if let Some(cursor) = &page.next_cursor {
        eprintln!("next cursor: {cursor}");
    }
    Ok(())
}

fn cmd_fetch(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi fetch [--post] [--body <file>] [--data <string>] [--accept <type>] \
         [--etag <tag>] [--include] [--keep-alive] [--repeat <n>] <url>";
    let mut url: Option<&str> = None;
    let mut post = false;
    let mut body_path: Option<&str> = None;
    let mut data: Option<&str> = None;
    let mut accept: Option<&str> = None;
    let mut etag: Option<&str> = None;
    let mut include = false;
    let mut keep_alive = false;
    let mut repeat: u32 = 1;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--post" => post = true,
            "--body" => body_path = Some(iter.next().ok_or("--body needs a file")?.as_str()),
            "--data" => data = Some(iter.next().ok_or("--data needs a string")?.as_str()),
            "--accept" => accept = Some(iter.next().ok_or("--accept needs a media type")?.as_str()),
            "--etag" => etag = Some(iter.next().ok_or("--etag needs a tag")?.as_str()),
            "--include" => include = true,
            "--keep-alive" => keep_alive = true,
            "--repeat" => {
                repeat = iter
                    .next()
                    .ok_or("--repeat needs a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            value if url.is_none() => url = Some(value),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let Some(url) = url else {
        return Err(usage.to_string());
    };
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// urls are supported, got {url:?}"))?;
    let (hostport, path) = match rest.split_once('/') {
        Some((hostport, path)) => (hostport, format!("/{path}")),
        None => (rest, "/".to_string()),
    };
    // Percent-encode the request target so shell-level conveniences like
    // `?q=find fields` survive the trip: servers reject raw spaces in
    // the request line. Bytes already legal in a target (including `%`,
    // so pre-encoded urls pass through untouched) are copied verbatim.
    let path = encode_target(&path);
    use std::io::Read;
    let body = match (body_path, data) {
        (Some(_), Some(_)) => return Err("--body and --data are mutually exclusive".to_string()),
        (Some("-"), None) => {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
        (Some(path), None) => std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?,
        (None, Some(data)) => data.as_bytes().to_vec(),
        (None, None) => Vec::new(),
    };
    let method = if post || body_path.is_some() || data.is_some() {
        "POST"
    } else {
        "GET"
    };
    let accept_header = accept
        .map(|media| format!("accept: {media}\r\n"))
        .unwrap_or_default();
    let etag_header = etag
        .map(|tag| format!("if-none-match: {tag}\r\n"))
        .unwrap_or_default();
    let persistence = if keep_alive { "keep-alive" } else { "close" };
    let request = {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {hostport}\r\n{accept_header}{etag_header}\
             content-length: {}\r\nconnection: {persistence}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(&body);
        request
    };

    let timeout = std::time::Duration::from_secs(10);
    let connect = || {
        Connection::connect(hostport, timeout).map_err(|e| format!("connecting to {hostport}: {e}"))
    };

    // One persistent connection with --keep-alive, one per request
    // without. Either way responses are framed by their
    // `content-length`. In keep-alive mode a response claiming
    // `connection: close` fails the probe: the whole point of the flag
    // is asserting the server reuses the connection.
    let mut persistent = if keep_alive { Some(connect()?) } else { None };
    for _ in 0..repeat {
        let mut fresh = None;
        let connection = match persistent.as_mut() {
            Some(connection) => connection,
            None => fresh.insert(connect()?),
        };
        connection
            .send(&request)
            .map_err(|e| format!("sending request: {e}"))?;
        let response = connection.read_response().map_err(|e| e.to_string())?;
        if keep_alive
            && response
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            return Err(format!(
                "--keep-alive: server answered `connection: close` ({})",
                response.status_line()
            ));
        }
        if include {
            println!("{}", response.head);
        }
        print!("{}", response.text());
        if !response.body.ends_with(b"\n") && !response.body.is_empty() {
            println!();
        }
        // `304 Not Modified` is the cache-validation success path: the
        // client's `--etag` still names the server's bytes, so there is
        // no body to print. Announce it so scripts can assert on it.
        if response.status == 304 {
            eprintln!("{}", response.status_line());
            continue;
        }
        if !(200..300).contains(&response.status) {
            // Surface the server's own status line before failing, so
            // scripts see *why* the probe was refused.
            eprintln!("{}", response.status_line());
            return Err(format!("{method} {url} -> {}", response.status));
        }
    }
    Ok(())
}

/// Percent-encode a request target (path + optional query string).
/// Bytes that are legal in a target — RFC 3986 unreserved characters
/// plus the reserved set and `%` itself — are copied verbatim, so an
/// already-encoded url round-trips unchanged; everything else (spaces,
/// quotes, control bytes, non-ASCII) becomes `%XX`.
fn encode_target(target: &str) -> String {
    let mut out = String::with_capacity(target.len());
    for byte in target.bytes() {
        let keep = byte.is_ascii_alphanumeric() || b"-._~:/?#[]@!$&'()*+,;=%".contains(&byte);
        if keep {
            out.push(byte as char);
        } else {
            out.push_str(&format!("%{byte:02X}"));
        }
    }
    out
}

/// `qi top`: a refreshing terminal dashboard over `/metrics/history`.
/// One keep-alive connection, one GET per refresh; every number on
/// screen is computed client-side from the returned window deltas.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let usage = "usage: qi top [--interval-ms <n>] [--iterations <n>] [--windows <n>] [--raw] \
                 <host:port>";
    let mut target: Option<&str> = None;
    let mut interval_ms: u64 = 1_000;
    let mut iterations: Option<u64> = None;
    let mut windows: u64 = 10;
    let mut raw = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--interval-ms" => {
                interval_ms = iter
                    .next()
                    .ok_or("--interval-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?
            }
            "--iterations" => {
                iterations = Some(
                    iter.next()
                        .ok_or("--iterations needs a number")?
                        .parse()
                        .map_err(|e| format!("--iterations: {e}"))?,
                )
            }
            "--windows" => {
                windows = iter
                    .next()
                    .ok_or("--windows needs a number")?
                    .parse()
                    .map_err(|e| format!("--windows: {e}"))?;
                if windows == 0 {
                    return Err("--windows must be at least 1".to_string());
                }
            }
            "--raw" => raw = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            value if target.is_none() => target = Some(value),
            extra => return Err(format!("unexpected argument {extra:?}; {usage}")),
        }
    }
    let Some(target) = target else {
        return Err(usage.to_string());
    };
    let hostport = target
        .strip_prefix("http://")
        .unwrap_or(target)
        .trim_end_matches('/');

    use std::io::Write;
    let mut connection = Connection::connect(hostport, std::time::Duration::from_secs(10))
        .map_err(|e| format!("connecting to {hostport}: {e}"))?;
    let request = format!(
        "GET /metrics/history?windows={windows} HTTP/1.1\r\nhost: {hostport}\r\n\
         content-length: 0\r\nconnection: keep-alive\r\n\r\n"
    )
    .into_bytes();

    let mut refreshed = 0u64;
    loop {
        connection
            .send(&request)
            .map_err(|e| format!("sending request: {e}"))?;
        let response = connection.read_response().map_err(|e| e.to_string())?;
        if response.status != 200 {
            return Err(format!("GET /metrics/history -> {}", response.status));
        }
        let text = std::str::from_utf8(&response.body)
            .map_err(|_| "history payload is not UTF-8".to_string())?;
        let doc = qi_runtime::json::parse(text).map_err(|e| format!("parsing history: {e}"))?;
        let rendered = render_top(hostport, &doc);
        if raw {
            // One summary line (the newest window) per refresh —
            // pipeable, and what the smoke tests assert on.
            println!("{}", rendered.lines().last().unwrap_or(""));
        } else {
            // ANSI clear + home, then the whole dashboard.
            print!("\x1b[2J\x1b[H{rendered}");
            let _ = std::io::stdout().flush();
        }
        refreshed += 1;
        if iterations.is_some_and(|n| refreshed >= n) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Render the `/metrics/history` document as the `qi top` dashboard:
/// a header plus one row per window, oldest first.
fn render_top(hostport: &str, doc: &qi_runtime::json::Json) -> String {
    use std::fmt::Write;
    let interval_ms = doc.u64_or_zero("interval_ns") / 1_000_000;
    let windows = doc
        .get("windows")
        .and_then(qi_runtime::json::Json::as_array)
        .unwrap_or(&[]);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qi top — {hostport} — {} window(s) of {interval_ms}ms",
        windows.len()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>9} {:>9} {:>5} {:>5} {:>7} {:>11} {:>12}",
        "window",
        "dur_s",
        "req/s",
        "p50_us",
        "p99_us",
        "err",
        "shed",
        "ingest",
        "cache_h/m",
        "events(+drop)"
    );
    for window in windows {
        let duration_s = window.u64_or_zero("duration_ns") as f64 / 1e9;
        let counters = window.get("counters");
        let count = |name: &str| counters.map_or(0, |c| c.u64_or_zero(name));
        let requests = count("serve.requests");
        let rate = if duration_s > 0.0 {
            requests as f64 / duration_s
        } else {
            0.0
        };
        let latency = window
            .get("histograms")
            .and_then(|h| h.get("serve.latency"));
        let quantile_us = |q: &str| latency.map_or(0, |l| l.u64_or_zero(q)) / 1_000;
        let _ = writeln!(
            out,
            "{:>6} {:>8.2} {:>8.1} {:>9} {:>9} {:>5} {:>5} {:>7} {:>5}/{:<5} {:>8}(+{})",
            window.u64_or_zero("index"),
            duration_s,
            rate,
            quantile_us("p50"),
            quantile_us("p99"),
            count("serve.errors"),
            count("serve.shed"),
            count("serve.requests.ingest"),
            count("serve.cache.hits"),
            count("serve.cache.misses"),
            count("events.emitted"),
            count("events.dropped"),
        );
    }
    if windows.is_empty() {
        out.push_str("(no windows yet — the first interval has not closed)\n");
    }
    out
}

/// Re-derive every domain's clusters with the indexed matcher purely to
/// collect matcher telemetry (postings bucket shape, candidate pair
/// volumes). The probe never feeds the evaluation — ground truth does —
/// so it runs only when a metrics document was requested.
fn cluster_probe(
    lexicon: &Lexicon,
    mode: qi_runtime::TelemetryMode,
) -> qi_runtime::MetricsSnapshot {
    let telemetry = mode.build();
    if !telemetry.is_enabled() {
        return qi_runtime::MetricsSnapshot::default();
    }
    for domain in qi_datasets::all_domains() {
        let span = telemetry.timed("eval.cluster");
        let (_, stats) = qi_mapping::match_by_labels_stats(
            &domain.schemas,
            lexicon,
            qi_mapping::MatcherConfig::default(),
        );
        drop(span);
        stats.record(&telemetry);
    }
    telemetry.snapshot()
}
