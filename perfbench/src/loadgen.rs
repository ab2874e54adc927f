//! HTTP/1.1 load generation against the in-process server: a blocking
//! keep-alive connection for closed loops, and a single-threaded open
//! loop that sends on a schedule over up to two keep-alive connections
//! and times every request from when it was due.

use qi_runtime::netpoll::PollFd;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// A keep-alive `GET` request.
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
}

/// A keep-alive `POST` request carrying `body`.
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Percent-encode a query-string value.
pub fn url_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 3);
    for b in text.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Split one complete `content-length`-framed response off the front of
/// `buf`, returning it with the bytes it used. `Ok(None)` means more
/// bytes are needed.
fn parse_response(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("no status code"))?;
    let length = head
        .lines()
        .skip(1)
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = buf[head_end + 4..total].to_vec();
    Ok(Some((Response { status, body }, total)))
}

/// A blocking keep-alive connection for request/response round trips.
pub struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            inbuf: Vec::new(),
        })
    }

    /// Send one request and wait for its response.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.inbuf)? {
                self.inbuf.drain(..used);
                return Ok(response);
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.inbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// `GET path` on this connection.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.round_trip(&get_request(path))
    }
}

/// One request of a load loop that completed.
#[derive(Debug, Clone, Copy)]
pub struct Completed {
    /// Index of the request template that was sent.
    pub target: usize,
    /// When it was due, nanoseconds from the loop's start (in a closed
    /// loop, when it was sent).
    pub due_ns: u64,
    /// When it was handed to the socket.
    pub sent_ns: u64,
    /// When its response was fully read.
    pub done_ns: u64,
    /// Response status.
    pub status: u16,
    /// FNV-1a digest of the response body.
    pub digest: u64,
}

impl Completed {
    /// Latency counted from the due time, so generator stalls and queueing
    /// behind earlier requests are charged to the request.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// What a load loop observed.
#[derive(Debug, Default)]
pub struct LoopRun {
    /// Completed requests, in completion order.
    pub completed: Vec<Completed>,
    /// Requests sent but not answered before the drain deadline.
    pub unfinished: u64,
    /// Wall time from the start to the last response.
    pub elapsed: Duration,
}

/// Requests one connection may have in flight. The server stops parsing
/// a connection at 64 and parks the rest of its pipelined input, so the
/// open loop queues further requests on its own side, counting the wait
/// from their due time.
const MAX_IN_FLIGHT_PER_CONN: usize = 48;

/// How long in-flight requests get to finish once sending stops.
const DRAIN: Duration = Duration::from_secs(5);

struct LoopConn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    inflight: VecDeque<(usize, u64, u64)>,
}

impl LoopConn {
    fn connect(addr: SocketAddr) -> io::Result<LoopConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(LoopConn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn send(&mut self, request: &[u8], target: usize, due_ns: u64, now_ns: u64) {
        self.out.extend_from_slice(request);
        self.inflight.push_back((target, due_ns, now_ns));
    }

    fn idle(&self) -> bool {
        self.inflight.is_empty() && self.out_pos == self.out.len()
    }
}

/// The connections of one loop and the clock they are timed on.
struct Loop {
    conns: Vec<LoopConn>,
    start: Instant,
    run: LoopRun,
    chunk: Vec<u8>,
    fds: Vec<PollFd>,
}

impl Loop {
    fn connect(addr: SocketAddr, connections: usize) -> io::Result<Loop> {
        let conns = (0..connections.max(1))
            .map(|_| LoopConn::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Loop {
            fds: Vec::with_capacity(conns.len()),
            conns,
            start: Instant::now(),
            run: LoopRun::default(),
            chunk: vec![0u8; 64 * 1024],
        })
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn idle(&self) -> bool {
        self.conns.iter().all(LoopConn::idle)
    }

    /// Write what the sockets accept, wait up to `wait_ns` for any to be
    /// ready, then read every response that has arrived.
    fn step(&mut self, wait_ns: u64) -> io::Result<()> {
        for conn in self.conns.iter_mut().filter(|c| c.out_pos < c.out.len()) {
            flush(conn)?;
        }
        self.fds.clear();
        self.fds.extend(
            self.conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), true, c.out_pos < c.out.len())),
        );
        ppoll_ns(&mut self.fds, wait_ns.min(10_000_000))?;
        let start = self.start;
        let now_ns = || start.elapsed().as_nanos() as u64;
        for (conn, fd) in self.conns.iter_mut().zip(&self.fds) {
            if fd.readable() {
                read_ready(conn, &mut self.chunk, &now_ns, &mut self.run.completed)?;
            }
        }
        Ok(())
    }

    /// Let in-flight requests finish, count the ones that do not.
    fn drain(mut self) -> io::Result<LoopRun> {
        let deadline = self.now_ns() + DRAIN.as_nanos() as u64;
        while !self.idle() {
            let now = self.now_ns();
            if now >= deadline {
                self.run.unfinished = self.conns.iter().map(|c| c.inflight.len() as u64).sum();
                break;
            }
            self.step(deadline - now)?;
        }
        self.run.elapsed = self.start.elapsed();
        Ok(self.run)
    }
}

/// Drive an open loop: `plan(i)` gives the `i`-th request's due time
/// (nanoseconds from start, non-decreasing) and template index, or
/// `None` once the schedule is over. Each request is sent when due,
/// whatever the state of earlier ones, on the least busy of
/// `connections` keep-alive connections; it waits on the generator's
/// side only while every connection has `MAX_IN_FLIGHT_PER_CONN`
/// requests outstanding.
pub fn open_loop(
    addr: SocketAddr,
    connections: usize,
    templates: &[Vec<u8>],
    mut plan: impl FnMut(u64) -> Option<(u64, usize)>,
) -> io::Result<LoopRun> {
    let mut lp = Loop::connect(addr, connections)?;
    let mut due_count = 0u64;
    let mut next = plan(0);
    let mut queued: VecDeque<(usize, u64)> = VecDeque::new();
    while next.is_some() || !queued.is_empty() {
        let now = lp.now_ns();
        while let Some((due, target)) = next {
            if due > now {
                break;
            }
            queued.push_back((target, due));
            due_count += 1;
            next = plan(due_count);
        }
        while let Some(&(target, due)) = queued.front() {
            let Some(conn) = lp
                .conns
                .iter_mut()
                .filter(|c| c.inflight.len() < MAX_IN_FLIGHT_PER_CONN)
                .min_by_key(|c| c.inflight.len())
            else {
                break;
            };
            queued.pop_front();
            conn.send(&templates[target], target, due, now);
        }
        // Sleep until the next request is due, or, while requests wait
        // for a free connection, until a response frees one.
        let wait_ns = match next {
            Some((due, _)) if queued.is_empty() => due.saturating_sub(now),
            _ => 10_000_000,
        };
        lp.step(wait_ns)?;
    }
    lp.drain()
}

/// Drive a closed loop for `duration`: each of `connections` keep-alive
/// connections keeps `depth` requests in flight and sends the next as
/// soon as one is answered; `pick()` chooses each request's template.
/// Latency is counted from the send.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    depth: usize,
    templates: &[Vec<u8>],
    mut pick: impl FnMut() -> usize,
    duration: Duration,
) -> io::Result<LoopRun> {
    let mut lp = Loop::connect(addr, connections)?;
    let end = duration.as_nanos() as u64;
    loop {
        let now = lp.now_ns();
        if now >= end {
            break;
        }
        for conn in &mut lp.conns {
            while conn.inflight.len() < depth.min(MAX_IN_FLIGHT_PER_CONN) {
                let target = pick();
                conn.send(&templates[target], target, now, now);
            }
        }
        lp.step(end - now)?;
    }
    lp.drain()
}

fn flush(conn: &mut LoopConn) -> io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Ok(())
}

fn read_ready(
    conn: &mut LoopConn,
    chunk: &mut [u8],
    now_ns: &impl Fn() -> u64,
    completed: &mut Vec<Completed>,
) -> io::Result<()> {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) if conn.inflight.is_empty() => return Ok(()),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let done = now_ns();
    let mut offset = 0;
    while let Some((response, used)) = parse_response(&conn.inbuf[offset..])? {
        offset += used;
        let (target, due_ns, sent_ns) = conn.inflight.pop_front().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "response without a request")
        })?;
        completed.push(Completed {
            target,
            due_ns,
            sent_ns,
            done_ns: done,
            status: response.status,
            digest: qi_serve::snapshot::fnv1a(&response.body),
        });
    }
    conn.inbuf.drain(..offset);
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
}

/// Wait until an fd is ready or `wait_ns` passes, at nanosecond
/// resolution (`poll(2)` only takes milliseconds, too coarse for a
/// schedule with sub-millisecond gaps).
fn ppoll_ns(fds: &mut [PollFd], wait_ns: u64) -> io::Result<()> {
    let timeout = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as std::ffi::c_long,
        tv_nsec: (wait_ns % 1_000_000_000) as std::ffi::c_long,
    };
    // SAFETY: `PollFd` is `#[repr(C)]` with the layout of `struct
    // pollfd`, the pointer and length describe a live, exclusively
    // borrowed slice, `timeout` outlives the call, and a null signal
    // mask is allowed (it leaves the mask unchanged).
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_framed_responses_incrementally() {
        let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n";
        let (first, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"hello");
        let (second, rest) = parse_response(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(used + rest, wire.len());
        assert!(parse_response(&wire[..used - 1]).unwrap().is_none());
    }

    #[test]
    fn url_encoding_escapes_reserved_bytes() {
        assert_eq!(
            url_encode("find fields where label ~ \"date\""),
            "find%20fields%20where%20label%20~%20%22date%22"
        );
    }
}
