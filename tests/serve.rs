//! End-to-end server tests over a real socket: consistent reads during
//! ingest, request-limit enforcement, keep-alive reuse, pipelining,
//! hot snapshot reload, and graceful shutdown.

use qi_core::NamingPolicy;
use qi_lexicon::Lexicon;
use qi_runtime::Telemetry;
use qi_serve::client::{Connection, Response};
use qi_serve::{build_artifact, Server, ServerConfig, Store};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn auto_store() -> Arc<Store> {
    let lexicon = Lexicon::builtin();
    let telemetry = Telemetry::off();
    let artifact = build_artifact(
        &qi_datasets::auto::domain(),
        &lexicon,
        NamingPolicy::default(),
        &telemetry,
    );
    Arc::new(Store::new(
        vec![artifact],
        lexicon,
        NamingPolicy::default(),
        telemetry,
    ))
}

fn start(store: Arc<Store>, config: ServerConfig) -> qi_serve::ServerHandle {
    Server::with_config(store, Telemetry::new(), config)
        .start()
        .expect("starting test server")
}

/// Raw one-shot HTTP exchange; returns (status, headers, body). Header
/// names come back lowercased for case-insensitive lookups.
fn exchange_full(addr: SocketAddr, raw: &[u8]) -> (u16, Vec<(String, String)>, String) {
    let mut connection =
        Connection::connect(addr, Duration::from_secs(10)).expect("connecting to test server");
    connection.send(raw).expect("sending request");
    parts(connection.read_response().expect("reading response"))
}

/// A framed response as (status, lowercased headers, body).
fn parts(response: Response) -> (u16, Vec<(String, String)>, String) {
    let headers = response
        .headers()
        .map(|(name, value)| (name.to_ascii_lowercase(), value.to_string()))
        .collect();
    (response.status, headers, response.text())
}

/// Raw one-shot HTTP exchange; returns (status, body).
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let (status, _, body) = exchange_full(addr, raw);
    (status, body)
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

#[test]
fn read_endpoints_serve_the_store() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(
        body.starts_with("{\"status\":\"ok\",\"domains\":1,"),
        "{body}"
    );

    let (status, body) = get(addr, "/domains");
    assert_eq!(status, 200);
    assert!(body.contains("\"slug\":\"auto\""), "{body}");

    let (status, body) = get(addr, "/domains/auto/labels");
    assert_eq!(status, 200);
    assert!(body.contains("\"cluster\":\"make\""), "{body}");

    let (status, body) = get(addr, "/domains/auto/tree");
    assert_eq!(status, 200);
    assert!(body.contains("interface"), "{body}");

    let (status, _) = get(addr, "/domains/unknown/labels");
    assert_eq!(status, 404);

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        body.starts_with('{') && body.contains("\"counters\""),
        "{body}"
    );
}

#[test]
fn concurrent_readers_never_see_a_torn_swap() {
    let config = ServerConfig {
        threads: 6,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    // The only two states a reader may ever observe: the full pre-swap
    // body and the full post-swap body.
    let (_, before) = get(addr, "/domains/auto/labels");
    let stop = AtomicBool::new(false);
    let torn = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    let mut bodies = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let (status, body) = get(addr, "/domains/auto/labels");
                        assert_eq!(status, 200);
                        bodies.push(body);
                    }
                    bodies
                })
            })
            .collect();

        let (status, _) = post(
            addr,
            "/domains/auto/interfaces",
            "interface extra\n- Make\n- Model\n- Price\n",
        );
        assert_eq!(status, 200, "ingest must succeed");
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect::<Vec<_>>()
    });
    let (_, after) = get(addr, "/domains/auto/labels");
    assert_ne!(before, after, "ingest must change the labels body");
    for body in &torn {
        assert!(
            body == &before || body == &after,
            "reader observed a torn response:\n{body}"
        );
    }
    // Sanity: the loop actually exercised readers during the swap.
    assert!(!torn.is_empty());
}

/// Value of a counter in the `/metrics` JSON body, 0 when absent.
fn counter_in(metrics_json: &str, name: &str) -> u64 {
    metrics_json
        .split(&format!("\"{name}\":"))
        .nth(1)
        .map(|rest| rest.chars().take_while(|c| c.is_ascii_digit()).collect())
        .and_then(|digits: String| digits.parse().ok())
        .unwrap_or(0)
}

#[test]
fn etag_revalidation_serves_304_until_ingest_bumps_the_version() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let (status, headers, body) = exchange_full(
        addr,
        b"GET /domains/auto/labels HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let etag = header(&headers, "etag")
        .expect("cached GET carries an ETag")
        .to_string();
    assert!(!body.is_empty());

    // Revalidating with the current ETag: 304, no body, ETag echoed.
    let conditional = format!(
        "GET /domains/auto/labels HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\
         connection: close\r\n\r\n"
    );
    let (status, headers, body) = exchange_full(addr, conditional.as_bytes());
    assert_eq!(status, 304);
    assert_eq!(header(&headers, "etag"), Some(etag.as_str()));
    assert!(body.is_empty(), "304 must not carry a body: {body}");

    // An ingest bumps the artifact version; the old validator stops
    // matching and the full new body comes back with a new ETag.
    let (status, _) = post(
        addr,
        "/domains/auto/interfaces",
        "interface extra\n- Make\n- Price\n",
    );
    assert_eq!(status, 200);
    let (status, headers, body) = exchange_full(addr, conditional.as_bytes());
    assert_eq!(status, 200);
    let fresh = header(&headers, "etag").expect("rebuilt GET carries an ETag");
    assert_ne!(fresh, etag, "version bump must change the ETag");
    assert!(!body.is_empty());
}

#[test]
fn repeated_reads_hit_the_rendered_response_cache() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let (_, first) = get(addr, "/domains/auto/labels");
    for _ in 0..3 {
        let (status, body) = get(addr, "/domains/auto/labels");
        assert_eq!(status, 200);
        assert_eq!(body, first, "cached body must be byte-identical");
    }
    let (_, listing) = get(addr, "/domains");
    let (_, again) = get(addr, "/domains");
    assert_eq!(listing, again);

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let hits = counter_in(&metrics, "serve.cache.hits");
    assert!(hits >= 4, "expected ≥4 cache hits, saw {hits}: {metrics}");
    assert!(counter_in(&metrics, "serve.cache.misses") >= 2);
}

#[test]
fn malformed_and_oversized_requests_get_4xx_not_a_hangup() {
    let config = ServerConfig {
        max_body: 64,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    let (status, _) = exchange(addr, b"TOTAL GARBAGE\r\n\r\n");
    assert_eq!(status, 400);

    let (status, _) = exchange(addr, b"GET / HTTP/9.9\r\n\r\n");
    assert_eq!(status, 400);

    let big = "x".repeat(1000);
    let (status, _) = post(addr, "/domains/auto/interfaces", &big);
    assert_eq!(status, 413);

    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    let (status, _) = exchange(addr, huge_header.as_bytes());
    assert_eq!(status, 431);

    let (status, _) = post(addr, "/domains/auto/interfaces", "not an interface");
    assert_eq!(status, 400);

    // The server is still healthy after all of that.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
}

#[test]
fn graceful_shutdown_finishes_in_flight_requests() {
    let mut handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let worker = std::thread::spawn(move || {
        post(
            addr,
            "/domains/auto/interfaces",
            "interface late\n- Make\n- Model\n",
        )
    });
    // Give the POST a moment to be accepted, then stop the server.
    std::thread::sleep(Duration::from_millis(30));
    handle.shutdown();
    let (status, body) = worker.join().unwrap();
    assert_eq!(status, 200, "in-flight ingest must complete: {body}");

    // After shutdown the port stops answering.
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300));
    if let Ok(mut stream) = refused {
        // A lingering accept backlog may take the connection, but nobody
        // serves it: expect EOF or an error, never a response.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
        let mut buf = Vec::new();
        let got = stream.read_to_end(&mut buf);
        assert!(
            got.is_err() || buf.is_empty(),
            "server answered after shutdown"
        );
    }
}

#[test]
fn metrics_content_negotiation_over_the_socket() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    // Default (no Accept header): sorted JSON document.
    let (status, headers, body) = exchange_full(
        addr,
        b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(
        body.starts_with('{') && body.contains("\"counters\""),
        "{body}"
    );

    // Prometheus scrapers send Accept: text/plain and get the
    // exposition-format text rendering instead.
    let (status, headers, body) = exchange_full(
        addr,
        b"GET /metrics HTTP/1.1\r\nhost: t\r\naccept: text/plain\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(
        body.contains("# TYPE qi_serve_http_metrics histogram"),
        "{body}"
    );
    assert!(body.contains("_bucket{le=\"+Inf\"}"), "{body}");
}

#[test]
fn every_response_carries_a_monotonic_request_id() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();
    let mut previous = 0u64;
    for path in ["/healthz", "/domains", "/metrics", "/nope"] {
        let (_, headers, _) = exchange_full(
            addr,
            format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes(),
        );
        let id: u64 = header(&headers, "x-qi-request-id")
            .unwrap_or_else(|| panic!("{path}: missing x-qi-request-id in {headers:?}"))
            .parse()
            .expect("request id is an integer");
        assert!(id > previous, "{path}: id {id} not after {previous}");
        previous = id;
    }
}

#[test]
fn explain_endpoint_serves_decision_provenance() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let (status, body) = get(addr, "/domains/auto/explain");
    assert_eq!(status, 200);
    assert!(body.contains("\"domain\":\"Auto\""), "{body}");
    assert!(body.contains("\"rule\":"), "{body}");
    assert!(body.contains("\"candidates\":"), "{body}");

    let (status, _) = get(addr, "/domains/unknown/explain");
    assert_eq!(status, 404);
}

/// A persistent connection: raw requests out, responses back one at a
/// time as (status, headers, body), with any pipelined surplus kept
/// buffered for the next read.
struct KeepAliveClient {
    connection: Connection,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        KeepAliveClient {
            connection: Connection::connect(addr, Duration::from_secs(10))
                .expect("connecting to test server"),
        }
    }

    fn send(&mut self, raw: &[u8]) {
        self.connection.send(raw).expect("sending request");
    }

    fn get(&mut self, path: &str) {
        self.send(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes());
    }

    /// Read exactly one response; panics on EOF mid-response.
    fn response(&mut self) -> (u16, Vec<(String, String)>, String) {
        parts(self.connection.read_response().expect("reading response"))
    }

    /// The connection reached EOF (with nothing buffered).
    fn at_eof(&mut self) -> bool {
        self.connection.at_eof()
    }
}

#[test]
fn keep_alive_connection_serves_many_requests_and_reports_reuse() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    for _ in 0..3 {
        client.get("/healthz");
        let (status, headers, body) = client.response();
        assert_eq!(status, 200);
        assert!(
            body.starts_with("{\"status\":\"ok\",\"domains\":1,"),
            "{body}"
        );
        assert_eq!(
            header(&headers, "connection"),
            Some("keep-alive"),
            "HTTP/1.1 responses must not close by default: {headers:?}"
        );
    }
    // The reactor's connection counters see one accept, two reuses.
    client.get("/metrics");
    let (status, _, metrics) = client.response();
    assert_eq!(status, 200);
    assert_eq!(counter_in(&metrics, "serve.conn.accepted"), 1);
    assert!(counter_in(&metrics, "serve.conn.reused") >= 2, "{metrics}");
}

#[test]
fn pipelined_requests_answer_in_order_on_one_socket() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    // Two requests in a single segment; responses must come back FIFO
    // even though the two handlers run on different workers.
    client.send(
        b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
          GET /domains HTTP/1.1\r\nhost: t\r\n\r\n",
    );
    let (status, _, first) = client.response();
    assert_eq!(status, 200);
    assert!(
        first.starts_with("{\"status\":\"ok\",\"domains\":1,"),
        "{first}"
    );
    let (status, _, second) = client.response();
    assert_eq!(status, 200);
    assert!(second.contains("\"slug\":\"auto\""), "{second}");

    client.get("/metrics");
    let (_, _, metrics) = client.response();
    assert!(
        counter_in(&metrics, "serve.conn.pipelined") >= 1,
        "{metrics}"
    );
}

/// More pipelined requests than the per-connection in-flight cap: the
/// surplus waits in the input buffer, and every completion batch must
/// dispatch more of it, since no further bytes arrive to wake the
/// connection. Alternating `Accept` headers make the order observable.
#[test]
fn a_thousand_pipelined_requests_all_answer_in_order() {
    const REQUESTS: usize = 1000;
    let handle = start(auto_store(), ServerConfig::default());
    let mut client = KeepAliveClient::connect(handle.addr());
    let mut writer = client.connection.stream().try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        let mut raw = Vec::new();
        for i in 0..REQUESTS {
            let accept = if i % 2 == 0 { "text/plain" } else { "*/*" };
            raw.extend_from_slice(
                format!("GET /healthz HTTP/1.1\r\nhost: t\r\naccept: {accept}\r\n\r\n").as_bytes(),
            );
        }
        writer.write_all(&raw).expect("sending pipelined requests");
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut last_id = 0u64;
    for i in 0..REQUESTS {
        let (status, headers, body) = client.response();
        assert_eq!(status, 200, "response {i}");
        if i % 2 == 0 {
            assert_eq!(body, "ok\n", "response {i} out of order");
        } else {
            assert!(
                body.starts_with("{\"status\":\"ok\""),
                "response {i}: {body}"
            );
        }
        let id: u64 = header(&headers, "x-qi-request-id")
            .and_then(|v| v.parse().ok())
            .expect("request id");
        assert!(
            i == 0 || id > last_id,
            "response {i}: id {id} after {last_id}"
        );
        last_id = id;
        assert!(Instant::now() < deadline, "stalled after {i} responses");
    }
    sender.join().unwrap();
}

#[test]
fn malformed_second_request_errors_only_after_the_first_answer() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    client.send(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\nTOTAL GARBAGE\r\n\r\n");
    let (status, headers, _) = client.response();
    assert_eq!(status, 200, "the valid first request must still answer");
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    let (status, headers, _) = client.response();
    assert_eq!(status, 400, "the garbage second request maps to 400");
    assert_eq!(
        header(&headers, "connection"),
        Some("close"),
        "a parse error must end the connection: {headers:?}"
    );
    assert!(client.at_eof(), "server must close after the error");
}

#[test]
fn idle_keep_alive_connections_are_closed_after_the_timeout() {
    let config = ServerConfig {
        idle_timeout_ms: 150,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    client.get("/healthz");
    let (status, _, _) = client.response();
    assert_eq!(status, 200);

    // Go quiet past the idle timeout: the server hangs up on us.
    assert!(client.at_eof(), "idle connection must be disconnected");

    let (_, metrics) = get(addr, "/metrics");
    assert!(
        counter_in(&metrics, "serve.conn.idle_closed") >= 1,
        "{metrics}"
    );
}

#[test]
fn request_cap_per_connection_closes_politely() {
    let config = ServerConfig {
        max_requests_per_conn: 2,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    let mut client = KeepAliveClient::connect(addr);
    client.get("/healthz");
    let (_, headers, _) = client.response();
    assert_eq!(header(&headers, "connection"), Some("keep-alive"));
    client.get("/healthz");
    let (status, headers, _) = client.response();
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "connection"),
        Some("close"),
        "the capping response must announce the close: {headers:?}"
    );
    assert!(client.at_eof());
}

#[test]
fn admin_reload_swaps_snapshots_under_live_keep_alive_traffic() {
    let lexicon = Lexicon::builtin();
    let telemetry = Telemetry::off();
    let policy = NamingPolicy::default();
    let auto = build_artifact(&qi_datasets::auto::domain(), &lexicon, policy, &telemetry);
    let book = build_artifact(&qi_datasets::book::domain(), &lexicon, policy, &telemetry);
    let snapshot = qi_serve::Snapshot {
        policy,
        domains: vec![auto, book],
    };
    let path = std::env::temp_dir().join(format!("qi-reload-{}.snap", std::process::id()));
    qi_serve::write_snapshot(&path, &snapshot).expect("writing reload snapshot");

    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    // A keep-alive connection opened *before* the reload...
    let mut survivor = KeepAliveClient::connect(addr);
    survivor.get("/domains");
    let (status, _, before) = survivor.response();
    assert_eq!(status, 200);
    assert!(before.contains("\"slug\":\"auto\""), "{before}");
    assert!(!before.contains("\"slug\":\"book\""), "{before}");

    let raw = path.to_string_lossy();
    let (status, reply) = post(addr, "/admin/reload", &raw);
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"domains\":2"), "{reply}");

    // ...keeps serving, and sees the swapped corpus.
    survivor.get("/domains");
    let (status, _, after) = survivor.response();
    assert_eq!(status, 200, "live connections must survive a reload");
    assert!(after.contains("\"slug\":\"book\""), "{after}");
    survivor.get("/domains/book/labels");
    let (status, _, labels) = survivor.response();
    assert_eq!(status, 200);
    assert!(labels.contains("\"domain\":\"Book\""), "{labels}");

    let _ = std::fs::remove_file(&path);
}

fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    body.split(&format!("\"{key}\":\""))
        .nth(1)
        .and_then(|rest| rest.split('"').next())
}

#[test]
fn query_endpoint_over_the_socket() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    // GET with a percent-encoded query string.
    let (status, body) = get(addr, "/query?q=find%20fields&limit=2");
    assert_eq!(status, 200);
    assert!(body.contains("\"query\":\"find fields\""), "{body}");
    assert!(body.contains("\"count\":2"), "{body}");
    assert!(body.contains("\"domain\":\"auto\""), "{body}");
    let cursor = json_str(&body, "next_cursor").expect("auto has more than 2 fields");

    // The cursor resumes the stream with different matches.
    let (status, second) = get(
        addr,
        &format!("/query?q=find%20fields&limit=2&cursor={cursor}"),
    );
    assert_eq!(status, 200);
    assert_ne!(body, second);

    // POST body carries the query text verbatim — no encoding needed.
    let (status, posted) = post(addr, "/query", "find fields where label ~ \"make\"");
    assert_eq!(status, 200);
    assert!(posted.contains("\"label\":\"Make\""), "{posted}");

    // Typed failures over the wire: parse error, starved budget.
    let (status, err) = get(addr, "/query?q=find%20widgets");
    assert_eq!(status, 400);
    assert!(err.contains("bad query"), "{err}");
    let (status, err) = get(addr, "/query?q=find%20fields&budget=1");
    assert_eq!(status, 422);
    assert!(err.contains("budget"), "{err}");

    // Cursorless GETs flow through the rendered-response cache: the
    // response carries an ETag and revalidation answers 304.
    let (status, headers, cached) = exchange_full(
        addr,
        b"GET /query?q=find%20fields HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    let etag = header(&headers, "etag").expect("cached query carries an etag");
    assert!(!cached.is_empty());
    let revalidate = format!(
        "GET /query?q=find%20fields HTTP/1.1\r\nhost: t\r\nif-none-match: {etag}\r\n\
         connection: close\r\n\r\n"
    );
    let (status, _, not_modified) = exchange_full(addr, revalidate.as_bytes());
    assert_eq!(status, 304);
    assert!(not_modified.is_empty());

    // Ingest bumps the store generation, so the outstanding page cursor
    // answers 410 Gone.
    let (status, _) = post(
        addr,
        "/domains/auto/interfaces",
        "interface extra\n- Make\n",
    );
    assert_eq!(status, 200);
    let (status, gone) = get(
        addr,
        &format!("/query?q=find%20fields&limit=2&cursor={cursor}"),
    );
    assert_eq!(status, 410);
    assert!(gone.contains("stale"), "{gone}");
}

#[test]
fn explain_pagination_over_the_socket() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    // The bare endpoint still answers the first page (cached path).
    let (status, full) = get(addr, "/domains/auto/explain");
    assert_eq!(status, 200);
    assert!(full.contains("\"rule\":"), "{full}");

    // Page through one decision at a time and count the stream.
    let total: usize = full
        .split("\"decisions\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|n| n.parse().ok())
        .expect("explain reports its decision total");
    let mut seen = 0usize;
    let mut cursor: Option<String> = None;
    loop {
        let path = match &cursor {
            Some(c) => format!("/domains/auto/explain?limit=1&cursor={c}"),
            None => "/domains/auto/explain?limit=1".to_string(),
        };
        let (status, page) = get(addr, &path);
        assert_eq!(status, 200, "{page}");
        assert!(page.contains("\"count\":1"), "{page}");
        seen += 1;
        match json_str(&page, "next_cursor") {
            Some(next) => cursor = Some(next.to_string()),
            None => break,
        }
    }
    assert_eq!(seen, total, "paged explain covers every decision");

    // A /query cursor pasted into explain names a different stream.
    let (_, page) = get(addr, "/query?q=find%20fields&limit=1");
    let foreign = json_str(&page, "next_cursor").unwrap();
    let (status, err) = get(addr, &format!("/domains/auto/explain?cursor={foreign}"));
    assert_eq!(status, 400);
    assert!(err.contains("different stream"), "{err}");
}

#[test]
fn healthz_serves_json_and_negotiates_plaintext() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();

    let (status, headers, body) = exchange_full(
        addr,
        b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    assert!(
        body.starts_with("{\"status\":\"ok\",\"domains\":1,"),
        "{body}"
    );
    assert!(body.contains("\"uptime_seconds\":"), "{body}");
    assert!(body.contains("\"generation\":0"), "{body}");
    assert!(body.contains("\"versions\":{\"auto\":"), "{body}");

    // Plain-text probes (load balancers, shell one-liners) keep the
    // old one-word body under content negotiation.
    let (status, headers, body) = exchange_full(
        addr,
        b"GET /healthz HTTP/1.1\r\nhost: t\r\naccept: text/plain\r\nconnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("text/plain"));
    assert_eq!(body, "ok\n");

    // An ingest bumps both the store generation and the domain version.
    let (status, _) = post(
        addr,
        "/domains/auto/interfaces",
        "interface extra\n- Make\n",
    );
    assert_eq!(status, 200);
    let (_, body) = get(addr, "/healthz");
    assert!(counter_in(&body, "generation") >= 1, "{body}");
}

#[test]
fn synthesized_error_responses_carry_request_ids() {
    let config = ServerConfig {
        max_body: 64,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    // Reactor-synthesized parse errors never reach a worker, but they
    // must still be attributable in the access log and client traces.
    for raw in [
        b"TOTAL GARBAGE\r\n\r\n".as_slice(),
        b"GET / HTTP/9.9\r\n\r\n".as_slice(),
    ] {
        let (status, headers, _) = exchange_full(addr, raw);
        assert_eq!(status, 400);
        let id: u64 = header(&headers, "x-qi-request-id")
            .unwrap_or_else(|| panic!("400 missing x-qi-request-id: {headers:?}"))
            .parse()
            .expect("request id is an integer");
        assert!(id > 0);
    }

    let big = "x".repeat(1000);
    let oversized = format!(
        "POST /domains/auto/interfaces HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{big}",
        big.len()
    );
    let (status, headers, _) = exchange_full(addr, oversized.as_bytes());
    assert_eq!(status, 413);
    assert!(header(&headers, "x-qi-request-id").is_some(), "{headers:?}");

    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n",
        "a".repeat(16 * 1024)
    );
    let (status, headers, _) = exchange_full(addr, huge_header.as_bytes());
    assert_eq!(status, 431);
    assert!(header(&headers, "x-qi-request-id").is_some(), "{headers:?}");
}

#[test]
fn connection_limit_shed_answers_503_with_a_request_id() {
    let config = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    // Fill the only slot; at the limit the reactor stops polling the
    // listener, so further connects queue in the accept backlog.
    let mut occupant = KeepAliveClient::connect(addr);
    occupant.get("/healthz");
    let (status, _, _) = occupant.response();
    assert_eq!(status, 200);

    // Two more connects queue behind the occupant. When the occupant
    // leaves, the reactor drains the backlog in one pass: the first
    // takes the freed slot, the second trips the limit and is shed
    // with a synthesized 503. Only read on it — the server never reads
    // a request on that path, and writing one could race the close
    // into a broken pipe.
    let survivor = TcpStream::connect(addr).expect("backlogged connect");
    let mut shed = TcpStream::connect(addr).expect("second backlogged connect");
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    drop(occupant);
    let mut raw = Vec::new();
    shed.read_to_end(&mut raw)
        .expect("reading the shed response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 503"), "{text}");
    assert!(
        text.to_ascii_lowercase().contains("x-qi-request-id: "),
        "shed 503 must carry a request id: {text}"
    );

    // Free the slot again: the server still serves, and counted the
    // reject. A fresh connect can itself race into the shed path (the
    // reset discards the 503 in flight), so retry until a slot is free.
    drop(survivor);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let metrics = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "server never freed a connection slot"
        );
        let mut stream = TcpStream::connect(addr).expect("reconnecting");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let sent = stream
            .write_all(b"GET /metrics HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
            .is_ok();
        let mut response = Vec::new();
        if sent && stream.read_to_end(&mut response).is_ok() {
            let text = String::from_utf8_lossy(&response).to_string();
            if text.starts_with("HTTP/1.1 200") {
                break text;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        counter_in(&metrics, "serve.conn.rejected") >= 1,
        "{metrics}"
    );
}

#[test]
fn metrics_history_and_debug_status_over_the_socket() {
    let config = ServerConfig {
        history_interval_ms: 25,
        history_windows: 8,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    // Generate traffic until at least one closed window recorded it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let doc = loop {
        assert!(
            std::time::Instant::now() < deadline,
            "no history window ever recorded traffic"
        );
        for _ in 0..3 {
            let (status, _) = get(addr, "/domains/auto/labels");
            assert_eq!(status, 200);
        }
        std::thread::sleep(Duration::from_millis(30));
        let (status, body) = get(addr, "/metrics/history");
        assert_eq!(status, 200);
        let doc = qi_runtime::json::parse(&body).expect("history parses");
        let recorded = doc
            .get("windows")
            .and_then(|w| w.as_array())
            .expect("history has a windows array")
            .iter()
            .any(|w| {
                w.get("counters")
                    .is_some_and(|c| c.u64_or_zero("serve.requests") > 0)
            });
        if recorded {
            break doc;
        }
    };
    assert_eq!(doc.u64_or_zero("interval_ns"), 25_000_000);
    assert_eq!(doc.u64_or_zero("capacity"), 8);
    let windows = doc.get("windows").and_then(|w| w.as_array()).unwrap();
    assert!(windows.len() <= 8);
    // Windows are oldest-first, contiguous, and non-overlapping.
    for pair in windows.windows(2) {
        assert_eq!(
            pair[1].u64_or_zero("index"),
            pair[0].u64_or_zero("index") + 1
        );
        assert!(pair[1].u64_or_zero("start_ns") >= pair[0].u64_or_zero("end_ns"));
    }

    // ?windows=1 returns exactly the newest window; out-of-range is 400.
    let (status, body) = get(addr, "/metrics/history?windows=1");
    assert_eq!(status, 200);
    let one = qi_runtime::json::parse(&body).unwrap();
    assert_eq!(
        one.get("windows").and_then(|w| w.as_array()).unwrap().len(),
        1
    );
    let (status, _) = get(addr, "/metrics/history?windows=9999");
    assert_eq!(status, 400);

    // /debug/status summarizes the same ring as rolling rates.
    let (status, body) = get(addr, "/debug/status");
    assert_eq!(status, 200);
    let status_doc = qi_runtime::json::parse(&body).expect("status parses");
    assert_eq!(
        status_doc.get("status").and_then(|s| s.as_str()),
        Some("ok")
    );
    assert!(body.contains("\"queue_depth\":"), "{body}");
    let rolling = status_doc.get("rolling").expect("status has rolling rates");
    assert!(rolling.u64_or_zero("requests") > 0, "{body}");
    assert!(body.contains("\"requests_per_sec\":"), "{body}");
    assert!(body.contains("\"events\":{\"enabled\":true"), "{body}");
}

/// One `/debug/events` page: returns (next_seq, dropped_watermark,
/// delivered seqs).
fn events_page(addr: SocketAddr, since: u64) -> (u64, u64, Vec<u64>) {
    let (status, body) = get(addr, &format!("/debug/events?since={since}&limit=16"));
    assert_eq!(status, 200, "{body}");
    let doc = qi_runtime::json::parse(&body).expect("events page parses");
    let seqs = doc
        .get("events")
        .and_then(|e| e.as_array())
        .expect("events page has an events array")
        .iter()
        .map(|event| event.u64_or_zero("seq"))
        .collect();
    (
        doc.u64_or_zero("next_seq"),
        doc.u64_or_zero("dropped_watermark"),
        seqs,
    )
}

#[test]
fn debug_events_cursor_resume_survives_ring_eviction_under_load() {
    const WRITERS: u64 = 4;
    const EVENTS_EACH: u64 = 100;
    const CAPACITY: usize = 32;
    let config = ServerConfig {
        events_capacity: CAPACITY,
        ..ServerConfig::default()
    };
    let handle = start(auto_store(), config);
    let addr = handle.addr();

    // Each parse failure emits exactly one `http.read_error` event, so
    // the writers produce a known total far beyond the ring capacity.
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..EVENTS_EACH {
                    let (status, _) = exchange(addr, b"TOTAL GARBAGE\r\n\r\n");
                    assert_eq!(status, 400);
                }
            })
        })
        .collect();

    // Page the recorder concurrently, resuming from `next_seq` each
    // time; the throttle guarantees the ring laps the cursor.
    let mut since = 0u64;
    let mut watermark = 0u64;
    let mut seen = std::collections::BTreeSet::new();
    let collect =
        |since: &mut u64, watermark: &mut u64, seen: &mut std::collections::BTreeSet<u64>| {
            let (next, mark, seqs) = events_page(addr, *since);
            *watermark = (*watermark).max(mark);
            let empty = seqs.is_empty();
            for seq in seqs {
                assert!(seen.insert(seq), "event {seq} delivered twice");
            }
            *since = next;
            empty
        };
    while !writers.iter().all(|w| w.is_finished()) {
        collect(&mut since, &mut watermark, &mut seen);
        std::thread::sleep(Duration::from_millis(2));
    }
    for writer in writers {
        writer.join().unwrap();
    }
    // Drain whatever the ring still holds.
    while !collect(&mut since, &mut watermark, &mut seen) {}

    let total = WRITERS * EVENTS_EACH;
    assert_eq!(
        since, total,
        "the cursor must end at the last emitted event"
    );
    // Eviction is capacity-driven: after `total` emits the ring holds
    // the newest `CAPACITY` events, everything older was dropped.
    assert_eq!(watermark, total - CAPACITY as u64, "drop watermark");
    // The acceptance property: every event was either delivered or is
    // provably below an observed drop watermark — the cursor never
    // silently skips a live event.
    for seq in 1..=total {
        assert!(
            seen.contains(&seq) || seq <= watermark,
            "event {seq} neither delivered nor accounted for by watermark {watermark}"
        );
    }
    // And everything above the final watermark was delivered.
    for seq in watermark + 1..=total {
        assert!(seen.contains(&seq), "live event {seq} lost on resume");
    }
    assert!(seen.iter().all(|seq| (1..=total).contains(seq)));
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let mut handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();
    let (status, body) = post(addr, "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting down"), "{body}");
    handle.wait();
}

/// One 200 KiB label (a single token, just under the 256 KiB body cap)
/// is ingested in bounded time, and the server keeps answering
/// `/healthz` on another connection while it works.
#[test]
fn a_huge_single_token_label_is_ingested_in_bounded_time() {
    let handle = start(auto_store(), ServerConfig::default());
    let addr = handle.addr();
    let token: String = (0..200 * 1024)
        .map(|i| char::from(b'a' + (i * 7 % 26) as u8))
        .collect();
    let body = format!("interface huge\n- Make\n- {token}\n");
    let started = Instant::now();
    let ingest = std::thread::spawn(move || post(addr, "/domains/auto/interfaces", &body));
    loop {
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "healthz while the ingest runs");
        if ingest.is_finished() {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the ingest is still running after {:?}",
            started.elapsed()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, response) = ingest.join().unwrap();
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"interfaces\":21"), "{response}");
}
