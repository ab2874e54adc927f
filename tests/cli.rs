//! End-to-end tests of the `qi` command-line binary.

use std::process::Command;

fn qi(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_qi"))
        .args(args)
        .output()
        .expect("run qi binary");
    (
        String::from_utf8_lossy(&output.stdout).to_string(),
        String::from_utf8_lossy(&output.stderr).to_string(),
        output.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = qi(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
    assert!(stdout.contains("qi label"));
}

#[test]
fn unknown_command_fails() {
    let (_, stderr, ok) = qi(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn stem_words() {
    let (stdout, _, ok) = qi(&["stem", "connections", "Preferred"]);
    assert!(ok);
    assert!(stdout.contains("connections -> connect"));
    assert!(stdout.contains("Preferred -> prefer"));
}

#[test]
fn relate_labels() {
    let (stdout, _, ok) = qi(&["relate", "Type of Job", "Job Type"]);
    assert!(ok);
    assert!(stdout.contains("Equal"));
    let (stdout, _, ok) = qi(&["relate", "Class", "Class of Tickets"]);
    assert!(ok);
    assert!(stdout.contains("Hypernym"));
}

#[test]
fn label_pipeline_from_files() {
    let dir = std::env::temp_dir().join(format!("qi-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.qis");
    let b = dir.join("b.qis");
    std::fs::write(
        &a,
        "interface a\n+ Passengers\n  - Adults\n  - Children\n- Promo Code\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "interface b\n+ Travelers\n  - Adults\n  - Children\n  - Infants\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = qi(&["label", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("Adults"), "{stdout}");
    assert!(stdout.contains("Infants"), "{stdout}");
    assert!(stderr.contains("clusters"), "{stderr}");
    // --html mode produces a form.
    let (html, _, ok) = qi(&["label", "--html", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(ok);
    assert!(html.contains("<form"), "{html}");
    assert!(html.contains("<fieldset>"));
    // --explain mode narrates.
    let (explained, _, ok) = qi(&[
        "label",
        "--explain",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(explained.contains("Naming explanation"), "{explained}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_export_writes_150_files() {
    let dir = std::env::temp_dir().join(format!("qi-corpus-test-{}", std::process::id()));
    let (stdout, stderr, ok) = qi(&["corpus", "export", dir.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote 150 interfaces"), "{stdout}");
    // Every exported interface parses back.
    let mut parsed = 0usize;
    for domain_dir in std::fs::read_dir(&dir).unwrap() {
        let domain_dir = domain_dir.unwrap().path();
        if !domain_dir.is_dir() {
            continue;
        }
        for file in std::fs::read_dir(&domain_dir).unwrap() {
            let text = std::fs::read_to_string(file.unwrap().path()).unwrap();
            qi_schema::text_format::parse(&text).unwrap();
            parsed += 1;
        }
    }
    assert_eq!(parsed, 150);
    // And the lexicon parses back too.
    let lexicon_text = std::fs::read_to_string(dir.join("lexicon.txt")).unwrap();
    qi_lexicon::format::parse(&lexicon_text).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_ladder_shows_progression() {
    let (stdout, _, ok) = qi(&["eval", "ablation-ladder"]);
    assert!(ok);
    assert!(
        stdout.contains("cap=string    consistent groups 0/6"),
        "{stdout}"
    );
    assert!(
        stdout.contains("cap=synonymy  consistent groups 6/6"),
        "{stdout}"
    );
}

#[test]
fn explain_names_the_fired_rule_and_rejected_candidates() {
    // Unfiltered: every decision of the Auto domain, one per node.
    let (stdout, stderr, ok) = qi(&["explain", "auto"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("Auto"), "{stderr}");
    assert!(stderr.contains("decisions"), "{stderr}");
    assert!(stdout.contains("rule: "), "{stdout}");

    // Filtered to one node: the year-range lower bound is named by the
    // group-label vote, which must show both the winner and the losers.
    let (stdout, stderr, ok) = qi(&["explain", "auto", "Year Range/From"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("rule: group:string"), "{stdout}");
    assert!(stdout.contains("accepted \"From\""), "{stdout}");
    assert!(stdout.contains("rejected \"Min\""), "{stdout}");
    assert!(stdout.contains("rejected \"Year\""), "{stdout}");

    // Unknown domains fail and list what exists; a filter matching no
    // node path fails too instead of printing an empty report.
    let (_, stderr, ok) = qi(&["explain", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("builtin domains"), "{stderr}");
    assert!(stderr.contains("auto"), "{stderr}");
    let (_, stderr, ok) = qi(&["explain", "auto", "no-such-node-path"]);
    assert!(!ok);
    assert!(stderr.contains("no node path"), "{stderr}");
}

/// A live in-process server over the auto domain, like `qi serve` would
/// run, for the client subcommands to probe.
fn serve_auto() -> qi_serve::ServerHandle {
    let lexicon = qi_lexicon::Lexicon::builtin();
    let telemetry = qi_runtime::Telemetry::new();
    let artifact = qi_serve::build_artifact(
        &qi_datasets::auto::domain(),
        &lexicon,
        qi_core::NamingPolicy::default(),
        &telemetry,
    );
    let store = std::sync::Arc::new(qi_serve::Store::new(
        vec![artifact],
        lexicon,
        qi_core::NamingPolicy::default(),
        telemetry.clone(),
    ));
    qi_serve::Server::with_config(store, telemetry, qi_serve::ServerConfig::default())
        .start()
        .expect("starting test server")
}

#[test]
fn fetch_reports_http_errors_with_a_nonzero_exit() {
    let mut handle = serve_auto();
    let addr = handle.addr();

    // 2xx: body on stdout, quiet stderr, success exit.
    let (stdout, stderr, ok) = qi(&["fetch", &format!("http://{addr}/healthz")]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("\"status\":\"ok\""), "{stdout}");

    // Content negotiation rides through --accept.
    let (stdout, stderr, ok) = qi(&[
        "fetch",
        "--accept",
        "text/plain",
        &format!("http://{addr}/metrics"),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("# TYPE "), "{stdout}");

    // Non-2xx: non-zero exit with the server's status line on stderr.
    let (_, stderr, ok) = qi(&["fetch", &format!("http://{addr}/domains/nope/labels")]);
    assert!(!ok, "a 404 probe must fail");
    assert!(stderr.contains("HTTP/1.1 404"), "{stderr}");
    assert!(stderr.contains("-> 404"), "{stderr}");

    handle.shutdown();
}

#[test]
fn keep_alive_fetch_and_top_print_one_result_per_request() {
    let mut handle = serve_auto();
    let addr = handle.addr();

    // --keep-alive sends every repeat over one socket and prints each body.
    let (stdout, stderr, ok) = qi(&[
        "fetch",
        "--keep-alive",
        "--repeat",
        "3",
        &format!("http://{addr}/healthz"),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.matches("\"status\":\"ok\"").count(), 3, "{stdout}");

    // `qi top --raw` prints one summary line per refresh.
    let (stdout, stderr, ok) = qi(&[
        "top",
        "--raw",
        "--iterations",
        "2",
        "--interval-ms",
        "50",
        &addr.to_string(),
    ]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout.lines().count(), 2, "{stdout}");

    handle.shutdown();
}

#[test]
fn label_with_explicit_clusters() {
    let dir = std::env::temp_dir().join(format!("qi-clusters-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.qis");
    let b = dir.join("b.qis");
    let clusters = dir.join("clusters.txt");
    std::fs::write(&a, "interface a\n- Departing from\n- Going to\n").unwrap();
    std::fs::write(&b, "interface b\n- From\n- To\n").unwrap();
    std::fs::write(
        &clusters,
        "cluster from\n  a: Departing from\n  b: From\ncluster to\n  a: Going to\n  b: To\n",
    )
    .unwrap();
    let (stdout, stderr, ok) = qi(&[
        "label",
        "--clusters",
        clusters.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {stderr}");
    // Two clusters — the heuristic matcher would have produced four,
    // since `From` and `Departing from` are not lexically related.
    assert!(stderr.contains("2 clusters"), "{stderr}");
    assert!(stdout.contains("Departing from"), "{stdout}");
    // Bad clusters file fails with a located error.
    std::fs::write(&clusters, "cluster x\n  a: Nope\n").unwrap();
    let (_, stderr, ok) = qi(&[
        "label",
        "--clusters",
        clusters.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
