//! HTTP/1.1 request/response codec with incremental parsing.
//!
//! The parser is *incremental*: [`RequestBuf`] accumulates whatever
//! bytes the socket produced — a quarter of a header line, three
//! pipelined requests in one segment — and [`RequestBuf::next_request`]
//! yields complete requests as they materialize, leaving any trailing
//! bytes in place for the next call. That is exactly the shape a
//! readiness event loop needs: reads never block waiting for a request
//! boundary, and request boundaries never force a read.
//!
//! Hard limits keep a hostile peer from making the server allocate
//! without bound: the request line + headers are capped at
//! [`MAX_HEAD`], declared bodies at the caller's `max_body`.
//!
//! Header *names* are lowercased at parse time and matched
//! case-insensitively everywhere ([RFC 7230 §3.2]); header *values*
//! that carry case-insensitive tokens (`Connection`, `Accept` media
//! types) are compared through [`Request::header_has_token`] /
//! ASCII-case-folding helpers rather than raw string equality.
//!
//! [RFC 7230 §3.2]: https://datatracker.ietf.org/doc/html/rfc7230#section-3.2

use std::sync::Arc;

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// Raw query string (after `?`, percent-encoded), empty if absent.
    pub query: String,
    /// Minor HTTP version: `1` for `HTTP/1.1`, `0` for `HTTP/1.0`.
    /// Decides the keep-alive default (1.1 persists, 1.0 closes).
    pub version_minor: u8,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header; the name comparison is ASCII
    /// case-insensitive (parsed names are already lowercase, but
    /// callers may pass any casing).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether a comma-separated header value contains `token`,
    /// compared ASCII case-insensitively — `Connection: Keep-Alive`
    /// and `connection: keep-alive` are the same wire token.
    pub fn header_has_token(&self, name: &str, token: &str) -> bool {
        self.header(name)
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    }

    /// First value of a query-string parameter, percent-decoded (`+`
    /// also decodes to space). `?q=a%20b&limit=5` yields
    /// `query_param("q") == Some("a b")`. Returns `None` when the
    /// parameter is absent; an empty value decodes to `Some("")`.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k).as_deref() == Some(name)).then(|| {
                // An undecodable value is kept verbatim: the route
                // handler's own validation will reject it with context.
                percent_decode(v).unwrap_or_else(|| v.to_string())
            })
        })
    }

    /// HTTP/1.1 persistence semantics: keep-alive unless the request
    /// says `Connection: close`, except HTTP/1.0 which closes unless it
    /// says `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        if self.header_has_token("connection", "close") {
            return false;
        }
        if self.version_minor == 0 {
            return self.header_has_token("connection", "keep-alive");
        }
        true
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Request line or headers exceed [`MAX_HEAD`] → `431`.
    HeadTooLarge,
    /// Declared body exceeds the configured cap → `413`.
    BodyTooLarge,
    /// Anything else unparseable → `400`.
    Malformed(String),
    /// Socket error (including read timeout); the connection is dropped.
    Io(std::io::Error),
}

/// Per-connection input buffer feeding the incremental parser.
///
/// [`RequestBuf::extend`] appends raw socket bytes;
/// [`RequestBuf::next_request`] consumes exactly one complete request
/// from the front when one is available. Pipelined requests therefore
/// come out one `next_request` call at a time, and a request torn
/// across reads (mid-header-line, mid-body-byte) simply stays buffered
/// until the rest arrives.
#[derive(Debug, Default)]
pub struct RequestBuf {
    buf: Vec<u8>,
}

impl RequestBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        RequestBuf::default()
    }

    /// Append bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Parse one complete request off the front of the buffer.
    ///
    /// * `Ok(Some(request))` — a full head + body was present; those
    ///   bytes are consumed, trailing (pipelined) bytes remain.
    /// * `Ok(None)` — the buffered bytes are a valid *prefix* of a
    ///   request; call again after the next read.
    /// * `Err(_)` — the buffer can never become a valid request
    ///   (oversized head/body, malformed syntax). The connection should
    ///   answer the mapped status and close.
    pub fn next_request(&mut self, max_body: usize) -> Result<Option<Request>, RequestError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() >= MAX_HEAD {
                return Err(RequestError::HeadTooLarge);
            }
            return Ok(None);
        };
        if head_end > MAX_HEAD {
            return Err(RequestError::HeadTooLarge);
        }
        let (method, path, query, version_minor, headers) = parse_head(&self.buf[..head_end])?;
        let content_length = match headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        {
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length {v:?}")))?,
            None => 0,
        };
        if content_length > max_body {
            return Err(RequestError::BodyTooLarge);
        }
        let body_start = head_end + 4;
        let total = body_start + content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Request {
            method,
            path,
            query,
            version_minor,
            headers,
            body,
        }))
    }
}

/// Parse the request line + header block (everything before the blank
/// line, exclusive).
#[allow(clippy::type_complexity)]
fn parse_head(
    head: &[u8],
) -> Result<(String, String, String, u8, Vec<(String, String)>), RequestError> {
    let head_text = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line lacks a path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line lacks a version".into()))?;
    if parts.next().is_some() {
        return Err(RequestError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    }
    let version_minor = version
        .strip_prefix("HTTP/1.")
        .and_then(|minor| minor.parse::<u8>().ok())
        .ok_or_else(|| RequestError::Malformed(format!("bad request line {request_line:?}")))?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(RequestError::Malformed(format!("bad path {target:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path, query, version_minor, headers))
}

/// Percent-decode one query-string component; `+` decodes to space.
/// Returns `None` on truncated or non-hex escapes or non-UTF-8 results.
fn percent_decode(text: &str) -> Option<String> {
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'%' => {
                let hi = hex_digit(*raw.get(i + 1)?)?;
                let lo = hex_digit(*raw.get(i + 2)?)?;
                out.push(hi << 4 | lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (lowercase names), written after the
    /// standard block.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body. Shared so the rendered-response cache can hand
    /// the same immutable bytes to many concurrent requests without
    /// copying them per response.
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response::with_type(status, "application/json", body)
    }

    /// A response with an explicit `Content-Type` (e.g. the Prometheus
    /// text exposition's `text/plain; version=0.0.4`).
    pub fn with_type(status: u16, content_type: &'static str, body: String) -> Self {
        Response::bytes(status, content_type, Arc::new(body.into_bytes()))
    }

    /// A response over an already-rendered (possibly shared) body.
    pub fn bytes(status: u16, content_type: &'static str, body: Arc<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A JSON error response with a `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let body = qi_runtime::json::Obj::new().str("error", message).finish();
        Response::json(status, body)
    }

    /// Append an extra header (builder style).
    pub fn header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serialize the full HTTP/1.1 wire form — status line, headers,
    /// blank line, body — into one buffer. `keep_alive` selects the
    /// `Connection` framing: `keep-alive` leaves the connection open
    /// for the next pipelined request, `close` announces the server
    /// will close after this response. One contiguous buffer means the
    /// reactor's writable path costs a single `write(2)` however many
    /// responses are coalesced behind it.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(160 + self.body.len());
        use std::fmt::Write as _;
        let mut head = String::with_capacity(160);
        let _ = write!(
            head,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        out.extend_from_slice(head.as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Canonical reason phrase of the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete request through the reactor's parser.
    fn parse(raw: &str) -> Result<Request, RequestError> {
        let mut buf = RequestBuf::new();
        buf.extend(raw.as_bytes());
        buf.next_request(1024)
            .map(|request| request.expect("a complete request"))
    }

    #[test]
    fn parses_a_get_with_headers_and_query() {
        let req =
            parse("GET /domains/auto/labels?x=1 HTTP/1.1\r\nHost: h\r\nX-A: b\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/domains/auto/labels");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.query_param("x").as_deref(), Some("1"));
        assert_eq!(req.version_minor, 1);
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("x-a"), Some("b"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn query_params_percent_decode() {
        let req = parse("GET /query?q=find%20fields&limit=5&plus=a+b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("q").as_deref(), Some("find fields"));
        assert_eq!(req.query_param("limit").as_deref(), Some("5"));
        assert_eq!(req.query_param("plus").as_deref(), Some("a b"));
        assert_eq!(req.query_param("absent"), None);
        // Bare key with no `=` decodes to the empty string.
        let req = parse("GET /query?flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("flag").as_deref(), Some(""));
        // Truncated escapes keep the raw text rather than failing.
        let req = parse("GET /query?q=%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("q").as_deref(), Some("%zz"));
    }

    #[test]
    fn reads_a_content_length_body() {
        let req = parse("POST /d HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_oversized_bodies_and_heads() {
        assert!(matches!(
            parse("POST /d HTTP/1.1\r\ncontent-length: 9999\r\n\r\n"),
            Err(RequestError::BodyTooLarge)
        ));
        let huge = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        assert!(matches!(parse(&huge), Err(RequestError::HeadTooLarge)));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/9.9\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET nopath HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nbadheader\r\n\r\n",
            "POST / HTTP/1.1\r\ncontent-length: two\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(RequestError::Malformed(_))),
                "{raw:?} should be malformed"
            );
        }
        assert!(RequestBuf::new().next_request(1024).unwrap().is_none());
    }

    #[test]
    fn header_lookup_is_case_insensitive_per_rfc7230() {
        // Mixed-case names on the wire, mixed-case names at the call
        // site: both must resolve. RFC 7230 §3.2: field names are
        // case-insensitive.
        let req = parse(
            "GET / HTTP/1.1\r\nCoNNecTion: Keep-Alive\r\nACCEPT: TEXT/plain\r\n\
             If-None-Match: \"abc\"\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.header("connection"), Some("Keep-Alive"));
        assert_eq!(req.header("Connection"), Some("Keep-Alive"));
        assert_eq!(req.header("IF-NONE-MATCH"), Some("\"abc\""));
        assert!(req.header_has_token("connection", "keep-alive"));
        assert!(req.header_has_token("Accept", "text/plain"));
        assert!(!req.header_has_token("connection", "close"));

        // Content-Length in arbitrary case still frames the body.
        let req = parse("POST /d HTTP/1.1\r\nCONTENT-LENGTH: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn keep_alive_semantics_follow_version_and_connection() {
        let keep = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(keep.keep_alive(), "HTTP/1.1 defaults to keep-alive");
        let close = parse("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!close.keep_alive(), "Connection: Close wins, any case");
        let multi = parse("GET / HTTP/1.1\r\nconnection: x-stuff, CLOSE\r\n\r\n").unwrap();
        assert!(!multi.keep_alive(), "close as one of several tokens");
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_keep = parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(old_keep.keep_alive(), "HTTP/1.0 opts in explicitly");
    }

    #[test]
    fn incremental_parse_survives_any_read_boundary() {
        let wire = b"POST /d HTTP/1.1\r\ncontent-length: 5\r\nx-a: b\r\n\r\nhello";
        // Feed the request one byte at a time: the parser must report
        // "incomplete" at every prefix and produce the request exactly
        // once, at the final byte.
        let mut buf = RequestBuf::new();
        for (i, byte) in wire.iter().enumerate() {
            buf.extend(&[*byte]);
            let parsed = buf.next_request(1024).unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "byte {i}: request not complete yet");
            } else {
                let request = parsed.expect("final byte completes the request");
                assert_eq!(request.body, b"hello");
                assert_eq!(request.header("x-a"), Some("b"));
            }
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_segment() {
        let mut buf = RequestBuf::new();
        buf.extend(
            b"GET /a HTTP/1.1\r\nhost: h\r\n\r\nGET /b HTTP/1.1\r\nhost: h\r\n\r\n\
              POST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nxy",
        );
        let a = buf.next_request(1024).unwrap().expect("first request");
        assert_eq!(a.path, "/a");
        let b = buf.next_request(1024).unwrap().expect("second request");
        assert_eq!(b.path, "/b");
        let c = buf.next_request(1024).unwrap().expect("third request");
        assert_eq!((c.path.as_str(), c.body.as_slice()), ("/c", &b"xy"[..]));
        assert!(buf.next_request(1024).unwrap().is_none());
        assert!(buf.is_empty());
    }

    #[test]
    fn malformed_second_request_fails_only_after_the_first_parses() {
        let mut buf = RequestBuf::new();
        buf.extend(b"GET /ok HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n");
        let ok = buf.next_request(1024).unwrap().expect("valid first");
        assert_eq!(ok.path, "/ok");
        assert!(matches!(
            buf.next_request(1024),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_without_terminator_is_rejected_incrementally() {
        let mut buf = RequestBuf::new();
        buf.extend(format!("GET / HTTP/1.1\r\nx: {}", "a".repeat(MAX_HEAD)).as_bytes());
        assert!(matches!(
            buf.next_request(1024),
            Err(RequestError::HeadTooLarge)
        ));
    }

    #[test]
    fn serializes_responses_with_length_and_close() {
        let out = Response::json(200, "{\"ok\":true}".into()).serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
        let err = Response::error(404, "no such domain");
        assert_eq!(err.status, 404);
        assert_eq!(*err.body, b"{\"error\":\"no such domain\"}");
    }

    #[test]
    fn keep_alive_serialization_never_says_close() {
        let kept = Response::json(200, "{}".into()).serialize(true);
        let text = String::from_utf8(kept).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"), "{text}");
        assert!(!text.contains("connection: close"), "{text}");
    }

    #[test]
    fn extra_headers_and_content_types_serialize() {
        let out = Response::with_type(200, "text/plain; version=0.0.4", "x 1\n".into())
            .header("x-qi-request-id", "17".to_string())
            .serialize(false);
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("content-type: text/plain; version=0.0.4\r\n"),
            "{text}"
        );
        assert!(text.contains("x-qi-request-id: 17\r\n"), "{text}");
        // Extra headers stay inside the head, before the blank line.
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("x-qi-request-id"), "{head}");
        assert!(text.ends_with("x 1\n"));
    }
}
