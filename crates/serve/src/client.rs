//! Minimal HTTP/1.1 client: one `content-length`-framed response at a
//! time.
//!
//! The server frames every response with `content-length`, so a client
//! never needs EOF to find the end of a body: [`read_response`] reads
//! exactly one response off any [`Read`], and bytes past it (the next
//! pipelined response) stay in the caller's buffer for the next call.
//! A peer that hangs up mid-head or mid-body gives a typed
//! [`ClientError`], never a panic. [`Connection`] pairs that framing
//! with a TCP stream; `qi fetch`, `qi top` and the socket tests all use
//! it.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Status line and header lines, without the blank line that ends
    /// them.
    pub head: String,
    /// Exactly `content-length` bytes (empty when the header is absent).
    pub body: Vec<u8>,
}

impl Response {
    /// The status line, e.g. `HTTP/1.1 304 Not Modified`.
    pub fn status_line(&self) -> &str {
        self.head.lines().next().unwrap_or("")
    }

    /// Header `(name, value)` pairs in wire order, both trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.head.lines().skip(1).filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim(), value.trim()))
        })
    }

    /// First value of a header, matching its name case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find_map(|(n, v)| n.eq_ignore_ascii_case(name).then_some(v))
    }

    /// The body as text, with invalid UTF-8 replaced.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Why a response could not be read.
#[derive(Debug)]
pub enum ClientError {
    /// Socket error, including a read timeout.
    Io(io::Error),
    /// The peer closed before the blank line ending the head.
    TruncatedHead { received: usize },
    /// The peer closed before `content-length` body bytes arrived.
    TruncatedBody { expected: usize, received: usize },
    /// Unparseable status line or `content-length`.
    Malformed(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "reading response: {e}"),
            ClientError::TruncatedHead { received } => write!(
                f,
                "connection closed mid-head ({received} bytes, no header terminator)"
            ),
            ClientError::TruncatedBody { expected, received } => write!(
                f,
                "connection closed mid-body ({received} of {expected} bytes)"
            ),
            ClientError::Malformed(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Read more bytes into `buffered`; `Ok(false)` at EOF.
fn fill<R: Read + ?Sized>(reader: &mut R, buffered: &mut Vec<u8>) -> io::Result<bool> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                buffered.extend_from_slice(&chunk[..n]);
                return Ok(true);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Read one `content-length`-framed response. `buffered` carries bytes
/// already read from `reader`; on success the response is drained from
/// its front and any surplus stays for the next call.
pub fn read_response<R: Read + ?Sized>(
    reader: &mut R,
    buffered: &mut Vec<u8>,
) -> Result<Response, ClientError> {
    let mut scanned = 0;
    let head_len = loop {
        if let Some(pos) = buffered[scanned..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
        {
            break scanned + pos;
        }
        scanned = buffered.len().saturating_sub(3);
        if !fill(reader, buffered).map_err(ClientError::Io)? {
            return Err(ClientError::TruncatedHead {
                received: buffered.len(),
            });
        }
    };
    let head = String::from_utf8_lossy(&buffered[..head_len]).into_owned();
    let mut response = Response {
        status: 0,
        head,
        body: Vec::new(),
    };
    response.status = response
        .status_line()
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            ClientError::Malformed(format!("status line {:?}", response.status_line()))
        })?;
    let length: usize = match response.header("content-length") {
        Some(v) => v
            .parse()
            .map_err(|_| ClientError::Malformed(format!("content-length {v:?}")))?,
        None => 0,
    };
    let body_start = head_len + 4;
    let end = body_start
        .checked_add(length)
        .ok_or_else(|| ClientError::Malformed(format!("content-length {length}")))?;
    while buffered.len() < end {
        if !fill(reader, buffered).map_err(ClientError::Io)? {
            return Err(ClientError::TruncatedBody {
                expected: length,
                received: buffered.len() - body_start,
            });
        }
    }
    response.body = buffered[body_start..end].to_vec();
    buffered.drain(..end);
    Ok(response)
}

/// A client connection: a TCP stream plus the bytes read past the last
/// response.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buffered: Vec<u8>,
}

impl Connection {
    /// Connect to the first address of `addr` that accepts within
    /// `timeout`; reads and writes then time out after `timeout` too.
    pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<Connection> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "no address resolved");
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    return Ok(Connection {
                        stream,
                        buffered: Vec::new(),
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Write raw request bytes (one request or a pipelined batch).
    pub fn send(&mut self, raw: &[u8]) -> io::Result<()> {
        self.stream.write_all(raw)
    }

    /// Read the next response; see [`read_response`].
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        read_response(&mut self.stream, &mut self.buffered)
    }

    /// Whether the peer has closed with nothing left buffered. Blocks
    /// until the peer sends, closes or the read timeout passes; bytes
    /// that do arrive stay buffered.
    pub fn at_eof(&mut self) -> bool {
        self.buffered.is_empty() && matches!(fill(&mut self.stream, &mut self.buffered), Ok(false))
    }

    /// The underlying stream, e.g. to clone a second writer.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out at most `step` bytes per read, so framing sees heads
    /// and bodies torn across reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn read_all(wire: &[u8], step: usize) -> Vec<Result<Response, ClientError>> {
        let mut reader = Trickle { bytes: wire, step };
        let mut buffered = Vec::new();
        let mut out = Vec::new();
        loop {
            let result = read_response(&mut reader, &mut buffered);
            let done = result.is_err();
            out.push(result);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn pipelined_responses_read_back_one_at_a_time() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nx-a: 1\r\n\r\nhello\
                     HTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\nno\n";
        for step in [1, 3, 7, wire.len()] {
            let results = read_all(wire, step);
            assert_eq!(results.len(), 3, "step {step}");
            let first = results[0].as_ref().unwrap();
            assert_eq!(first.status, 200);
            assert_eq!(first.body, b"hello");
            assert_eq!(first.header("x-a"), Some("1"));
            let second = results[1].as_ref().unwrap();
            assert_eq!(second.status, 404);
            assert_eq!(second.status_line(), "HTTP/1.1 404 Not Found");
            assert_eq!(second.text(), "no\n");
            assert!(matches!(
                results[2],
                Err(ClientError::TruncatedHead { received: 0 })
            ));
        }
    }

    #[test]
    fn header_lookup_ignores_case_and_trims_values() {
        for name in ["content-length", "CONTENT-LENGTH", "Content-Length"] {
            let wire = format!("HTTP/1.1 200 OK\r\n{name}:   4  \r\nETag:  \"v1\" \r\n\r\nbody");
            let mut buffered = Vec::new();
            let response = read_response(&mut wire.as_bytes(), &mut buffered).unwrap();
            assert_eq!(response.body, b"body", "{name}");
            assert_eq!(response.header("etag"), Some("\"v1\""));
            assert_eq!(response.header("CONTENT-length"), Some("4"));
            assert!(buffered.is_empty());
        }
    }

    #[test]
    fn missing_length_means_an_empty_body() {
        let wire = b"HTTP/1.1 304 Not Modified\r\netag: x\r\n\r\nHTTP/1.1 200 OK\r\n\r\n";
        let mut buffered = Vec::new();
        let mut reader = &wire[..];
        let first = read_response(&mut reader, &mut buffered).unwrap();
        assert_eq!((first.status, first.body.len()), (304, 0));
        let second = read_response(&mut reader, &mut buffered).unwrap();
        assert_eq!((second.status, second.body.len()), (200, 0));
    }

    #[test]
    fn eof_mid_head_or_mid_body_is_a_typed_error() {
        let results = read_all(b"HTTP/1.1 200 OK\r\ncontent-le", 4);
        assert!(matches!(
            results[0],
            Err(ClientError::TruncatedHead { received: 27 })
        ));
        let results = read_all(b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc", 4);
        assert!(matches!(
            results[0],
            Err(ClientError::TruncatedBody {
                expected: 10,
                received: 3
            })
        ));
        let message = results[0].as_ref().unwrap_err().to_string();
        assert!(message.contains("mid-body"), "{message}");
    }

    #[test]
    fn malformed_status_or_length_is_a_typed_error() {
        let huge = format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", usize::MAX);
        for wire in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\ncontent-length: two\r\n\r\n",
            huge.as_bytes(),
        ] {
            let mut buffered = Vec::new();
            assert!(matches!(
                read_response(&mut &wire[..], &mut buffered),
                Err(ClientError::Malformed(_))
            ));
        }
    }

    #[test]
    fn connection_frames_responses_and_sees_the_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut request = [0u8; 64];
            let _ = stream.read(&mut request).unwrap();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 200 OK\r\n\r\n")
                .unwrap();
        });
        let mut connection = Connection::connect(addr, Duration::from_secs(10)).unwrap();
        connection.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(connection.read_response().unwrap().body, b"ok");
        assert!(!connection.at_eof(), "a response is still buffered");
        assert_eq!(connection.read_response().unwrap().status, 200);
        peer.join().unwrap();
        assert!(connection.at_eof());
    }
}
