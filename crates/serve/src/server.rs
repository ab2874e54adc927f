//! Zero-dependency HTTP/1.1 server over the artifact [`Store`]: a
//! readiness event loop with keep-alive, pipelining and hot reload.
//!
//! # Architecture
//!
//! One *reactor* thread owns every socket. It runs a level-triggered
//! [`qi_runtime::netpoll`] loop over a nonblocking `TcpListener` and a
//! slab of nonblocking connections, parses HTTP/1.1 incrementally from
//! per-connection buffers ([`crate::http::RequestBuf`] — partial
//! reads, pipelined requests and keep-alive all fall out of the same
//! parser), and hands complete requests to a fixed worker pool through
//! a bounded [`JobQueue`]. Workers route and render responses, then
//! push the serialized bytes onto a completion queue and wake the
//! reactor, which splices them into the owning connection's write
//! buffer *in request order* (pipelined responses may complete out of
//! order; a per-connection sequence number restores FIFO) and writes
//! them back under writable readiness.
//!
//! Connection lifecycle: HTTP/1.1 requests keep the connection open by
//! default (`Connection: close`, HTTP/1.0, a parse error, or the
//! per-connection request cap end it); idle connections are closed
//! after [`ServerConfig::idle_timeout_ms`], half-sent requests after
//! [`ServerConfig::read_timeout_ms`] (with a `408`), and stalled
//! writers after [`ServerConfig::write_timeout_ms`]. When the request
//! queue is full the offending request is answered `503` directly from
//! the reactor (the connection survives — shedding is per request, not
//! per connection), and beyond [`ServerConfig::max_connections`] new
//! accepts are refused outright.
//!
//! Shutdown is graceful: the listener closes, already-parsed requests
//! finish and their responses flush, then the queue closes and the
//! workers drain.
//!
//! # Per-request observability
//!
//! Every request gets a monotonic id, echoed back in an
//! `x-qi-request-id` response header. Queue time is measured from
//! dispatch to worker pickup (`serve.queue.wait` histogram,
//! `serve.queue.depth` gauge); handler time feeds a per-route
//! `serve.http.{route}` span + latency histogram. Connection-level
//! counters: `serve.conn.accepted`, `serve.conn.reused` (requests
//! beyond a connection's first), `serve.conn.pipelined` (requests
//! parsed behind another in one read event), `serve.conn.idle_closed`,
//! `serve.conn.rejected`. With [`ServerConfig::access_log`] set, one
//! structured line per request is written to stderr or an append-only
//! file; with [`ServerConfig::slow_ms`] set, requests over the
//! threshold additionally log their full per-stage span breakdown.

use crate::artifact::DomainArtifact;
use crate::http::{Request, RequestError, Response};
use crate::queryapi::{self, PageParams, QueryError};
use crate::store::{Corpus, Rendered, Served, Store};
use qi_query::Cursor;
use qi_runtime::json::{Arr, Obj};
use qi_runtime::netpoll::{self, PollFd, Waker};
use qi_runtime::{
    resolve_threads, sync, Category, EventRecorder, JobQueue, Severity, Telemetry, TimeSeries,
};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Deref;
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Ceiling on requests a single connection may have in flight (queued
/// or executing) before the reactor stops parsing more of its buffer —
/// per-connection backpressure so one pipelining client cannot occupy
/// the whole worker queue.
const MAX_INFLIGHT_PER_CONN: usize = 64;

/// Stop buffering a connection's input beyond this many bytes while it
/// is at its in-flight cap.
const MAX_BUFFERED_INPUT: usize = 256 * 1024;

/// How long a closed-but-undrained connection may absorb stray request
/// bytes before being dropped (avoids an RST discarding the response).
const DRAIN_WINDOW: Duration = Duration::from_millis(250);

/// Byte budget for that drain.
const DRAIN_BUDGET: usize = 1 << 20;

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads (`0` → [`resolve_threads`] default, floored at 2
    /// so one slow ingest cannot starve every cached read).
    pub threads: usize,
    /// Bounded request queue depth; beyond it requests are shed with
    /// `503`.
    pub queue_depth: usize,
    /// Cap on request bodies, in bytes.
    pub max_body: usize,
    /// How long a partially received request may sit before the
    /// connection is answered `408` and closed, in milliseconds.
    pub read_timeout_ms: u64,
    /// How long a connection may stay write-blocked on an unread
    /// response before it is dropped, in milliseconds.
    pub write_timeout_ms: u64,
    /// How long an idle keep-alive connection (no request in progress)
    /// is retained, in milliseconds.
    pub idle_timeout_ms: u64,
    /// Requests served over one connection before the server closes it
    /// (`connection: close` on the final response). Bounds per-client
    /// resource pinning.
    pub max_requests_per_conn: u64,
    /// Concurrent-connection ceiling; accepts beyond it are refused
    /// with a best-effort `503`.
    pub max_connections: usize,
    /// Snapshot file `POST /admin/reload` re-reads when the request
    /// body names no other path.
    pub snapshot_path: Option<String>,
    /// Access-log sink: `None` disables it, `"stderr"` logs to stderr,
    /// anything else is an append-only file path.
    pub access_log: Option<String>,
    /// Log a per-stage span breakdown for requests at or above this
    /// many milliseconds (to the access-log sink, or stderr without
    /// one). `None` disables slow-request tracing.
    pub slow_ms: Option<u64>,
    /// Flight-recorder ring capacity (retained events); `0` disables
    /// the recorder entirely, leaving `Telemetry::event` a pointer
    /// check. Ignored when the server's telemetry registry already has
    /// a recorder attached (the caller's wins).
    pub events_capacity: usize,
    /// Target width of one `/metrics/history` window, in milliseconds.
    pub history_interval_ms: u64,
    /// Retained `/metrics/history` windows; `0` disables the series.
    pub history_windows: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 1024,
            max_body: 256 * 1024,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            idle_timeout_ms: 5_000,
            max_requests_per_conn: 10_000,
            max_connections: 1024,
            snapshot_path: None,
            access_log: None,
            slow_ms: None,
            events_capacity: 1024,
            history_interval_ms: 1_000,
            history_windows: 64,
        }
    }
}

/// Where access-log lines go.
enum AccessLog {
    /// No sink configured.
    Off,
    Stderr,
    File(Mutex<std::fs::File>),
}

impl AccessLog {
    fn open(sink: Option<&str>) -> io::Result<AccessLog> {
        match sink {
            None => Ok(AccessLog::Off),
            Some("stderr") => Ok(AccessLog::Stderr),
            Some(path) => Ok(AccessLog::File(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))),
        }
    }

    fn log(&self, line: &str) {
        match self {
            AccessLog::Off => {}
            AccessLog::Stderr => eprintln!("{line}"),
            AccessLog::File(file) => {
                if let Ok(mut file) = file.lock() {
                    let _ = writeln!(file, "{line}");
                }
            }
        }
    }

    /// Like [`AccessLog::log`], but slow-request breakdowns still land
    /// on stderr when no access log is configured.
    fn log_or_stderr(&self, line: &str) {
        match self {
            AccessLog::Off => eprintln!("{line}"),
            sink => sink.log(line),
        }
    }
}

/// One parsed request waiting for a worker.
struct Job {
    /// Connection slab slot + generation guarding stale completions.
    token: usize,
    generation: u64,
    /// Position in the connection's response order.
    seq: u64,
    /// Monotonic request id, echoed as `x-qi-request-id`.
    id: u64,
    /// Whether the response should be framed `connection: keep-alive`.
    keep_alive: bool,
    /// When the reactor enqueued the request.
    enqueued: Instant,
    request: Request,
}

/// A rendered response travelling back from a worker to the reactor.
struct Done {
    token: usize,
    generation: u64,
    seq: u64,
    /// Full serialized wire bytes (head + body).
    bytes: Vec<u8>,
    /// Close the connection once these bytes are written.
    close: bool,
    /// The handler asked the whole server to stop (admin shutdown).
    shutdown: bool,
}

/// Finished jobs on their way from the workers to the reactor. A worker
/// that panics mid-push leaves the queue whole (a `Vec::push` either
/// lands or not), so the lock is taken regardless of poisoning.
#[derive(Default)]
struct Completions(Mutex<Vec<Done>>);

impl Completions {
    fn push(&self, done: Done) {
        sync::lock(&self.0).push(done);
    }

    fn take(&self) -> Vec<Done> {
        std::mem::take(&mut *sync::lock(&self.0))
    }
}

/// A configured, not-yet-started server.
pub struct Server {
    store: Arc<Store>,
    telemetry: Telemetry,
    config: ServerConfig,
}

/// Handle to a running server: its bound address and a graceful-stop
/// switch. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Wrap a store with the default configuration.
    pub fn new(store: Arc<Store>, telemetry: Telemetry) -> Self {
        Server::with_config(store, telemetry, ServerConfig::default())
    }

    /// Wrap a store with an explicit configuration.
    pub fn with_config(store: Arc<Store>, telemetry: Telemetry, config: ServerConfig) -> Self {
        Server {
            store,
            telemetry,
            config,
        }
    }

    /// Bind the listener and start the reactor + worker pool in a
    /// background thread. The returned handle knows the bound address
    /// (useful with port `0`).
    pub fn start(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let access_log = AccessLog::open(self.config.access_log.as_deref())?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (waker, wake_rx) = netpoll::waker()?;
        let flag = Arc::clone(&shutdown);
        let reactor_waker = waker.clone();
        let thread = std::thread::Builder::new()
            .name("qi-serve".to_string())
            .spawn(move || run(listener, self, access_log, flag, reactor_waker, wake_rx))?;
        Ok(ServerHandle {
            addr,
            shutdown,
            waker,
            thread: Some(thread),
        })
    }
}

impl ServerHandle {
    /// The address the server is actually listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the server thread exits on its own (e.g. after a
    /// `POST /admin/shutdown`). Does not trigger a stop itself.
    pub fn wait(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }

    /// Request a graceful stop and wait for in-flight requests to
    /// drain. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Live-introspection state shared by the debug endpoints: the
/// windowed time-series ring behind `/metrics/history` and the server
/// start time behind the uptime fields.
struct Observe {
    series: TimeSeries,
    started: Instant,
}

impl Observe {
    /// A disabled instance for direct `handle` calls in tests.
    #[cfg(test)]
    fn off() -> Observe {
        Observe {
            series: TimeSeries::off(),
            started: Instant::now(),
        }
    }

    fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// A response completed (or synthesized) for one position in a
/// connection's pipeline.
struct Completed {
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    generation: u64,
    input: crate::http::RequestBuf,
    /// Serialized response bytes not yet written, and the write cursor
    /// into them.
    out: Vec<u8>,
    out_pos: usize,
    /// Out-of-order completed responses awaiting their turn.
    pending: BTreeMap<u64, Completed>,
    /// Next sequence number to assign at dispatch / next to splice.
    next_seq: u64,
    next_write: u64,
    /// Requests dispatched to workers, not yet completed.
    inflight: usize,
    /// Requests parsed on this connection so far.
    served: u64,
    /// Stop parsing new requests (close requested, error, shutdown).
    closing: bool,
    /// Close the socket once `out` is flushed and nothing is in flight.
    close_after_write: bool,
    /// Write side shut, absorbing stray bytes before the final close.
    draining: bool,
    drain_deadline: Instant,
    drain_budget: usize,
    /// Peer sent FIN; no more input will arrive.
    peer_closed: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            input: crate::http::RequestBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            pending: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            served: 0,
            closing: false,
            close_after_write: false,
            draining: false,
            drain_deadline: Instant::now(),
            drain_budget: DRAIN_BUDGET,
            peer_closed: false,
            last_activity: Instant::now(),
        }
    }

    fn has_unwritten(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Move any in-order completed responses into the write buffer.
    fn splice(&mut self) {
        while let Some(done) = self.pending.remove(&self.next_write) {
            self.out.extend_from_slice(&done.bytes);
            if done.close {
                self.closing = true;
                self.close_after_write = true;
            }
            self.next_write += 1;
        }
    }

    /// All dispatched work answered and flushed.
    fn quiescent(&self) -> bool {
        self.inflight == 0 && self.pending.is_empty() && !self.has_unwritten()
    }
}

/// What to do with a connection after an event.
#[derive(PartialEq)]
enum Disposition {
    Keep,
    Drop,
}

/// Reactor + worker pool; runs on the dedicated server thread until
/// shutdown.
fn run(
    listener: TcpListener,
    server: Server,
    access_log: AccessLog,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    wake_rx: netpoll::WakeReceiver,
) {
    let Server {
        store,
        telemetry,
        config,
    } = server;
    // Install the flight recorder unless the caller attached one of
    // their own (custom capacity or sampling) before starting.
    let telemetry =
        if config.events_capacity > 0 && telemetry.is_enabled() && !telemetry.events().is_enabled()
        {
            telemetry.attach_events(EventRecorder::new(config.events_capacity))
        } else {
            telemetry
        };
    let series = if telemetry.is_enabled() && config.history_windows > 0 {
        TimeSeries::new(
            config.history_interval_ms.saturating_mul(1_000_000),
            config.history_windows,
        )
    } else {
        TimeSeries::off()
    };
    let observe = Observe {
        series,
        started: Instant::now(),
    };
    // Floor of 2: with one worker a multi-millisecond ingest would
    // head-of-line block every cached read behind it.
    let workers = resolve_threads(config.threads).max(2);
    let queue: JobQueue<Job> = JobQueue::bounded(config.queue_depth);
    let completions = Completions::default();
    let next_id = AtomicU64::new(1);
    telemetry.gauge("serve.workers", workers as u64);
    // Pre-register the connection counters so a scrape sees the full
    // family even before the first keep-alive client shows up.
    for name in [
        "serve.conn.accepted",
        "serve.conn.reused",
        "serve.conn.pipelined",
        "serve.conn.idle_closed",
        "serve.conn.rejected",
        "serve.requests",
        "serve.errors",
        "serve.shed",
        "serve.panics",
        "events.emitted",
        "events.dropped",
        "query.executed",
        "query.parse_errors",
        "query.budget_exhausted",
        "query.stale_cursors",
        "query.cursor_resumed",
        "query.matches",
    ] {
        telemetry.add(name, 0);
    }

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    telemetry.observe("serve.queue.wait", job.enqueued.elapsed().as_nanos() as u64);
                    let depth = queue.len() as u64;
                    telemetry.gauge("serve.queue.depth", depth);
                    let done = handle_job(
                        job,
                        &store,
                        &telemetry,
                        &config,
                        &access_log,
                        &observe,
                        depth,
                    );
                    completions.push(done);
                    waker.wake();
                }
            });
        }

        let mut reactor = Reactor {
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_generation: 0,
            scratch: vec![0u8; 64 * 1024],
            queue: &queue,
            completions: &completions,
            next_id: &next_id,
            telemetry: &telemetry,
            config: &config,
            access_log: &access_log,
            observe: &observe,
            shutdown: &shutdown,
            wake_rx,
            shutting_down: false,
        };
        reactor.run();
        // Stop feeding, let workers drain what is already queued.
        queue.close();
    });
}

struct Reactor<'a> {
    /// Dropped (port closed) when shutdown begins.
    listener: Option<TcpListener>,
    /// Connection slab + free list; `live` counts occupied slots.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    next_generation: u64,
    /// Shared read scratch buffer.
    scratch: Vec<u8>,
    queue: &'a JobQueue<Job>,
    completions: &'a Completions,
    next_id: &'a AtomicU64,
    telemetry: &'a Telemetry,
    config: &'a ServerConfig,
    access_log: &'a AccessLog,
    observe: &'a Observe,
    shutdown: &'a AtomicBool,
    wake_rx: netpoll::WakeReceiver,
    shutting_down: bool,
}

impl Reactor<'_> {
    fn run(&mut self) {
        let mut pollfds: Vec<PollFd> = Vec::new();
        // pollfds[i] → what it watches: 0 = waker, 1 = listener,
        // 2+slot = connection slot.
        let mut slots: Vec<usize> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) && !self.shutting_down {
                self.begin_shutdown();
            }
            if self.shutting_down && self.live == 0 {
                break;
            }

            pollfds.clear();
            slots.clear();
            pollfds.push(PollFd::new(self.wake_rx.as_raw_fd(), true, false));
            slots.push(usize::MAX);
            if let Some(listener) = &self.listener {
                if self.live < self.config.max_connections {
                    pollfds.push(PollFd::new(listener.as_raw_fd(), true, false));
                    slots.push(usize::MAX - 1);
                }
            }
            let now = Instant::now();
            let mut timeout: Option<Duration> = None;
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let readable = conn.draining
                    || (!conn.closing
                        && conn.inflight + conn.pending.len() < MAX_INFLIGHT_PER_CONN
                        && conn.input.len() < MAX_BUFFERED_INPUT
                        && !conn.peer_closed);
                let writable = conn.has_unwritten();
                pollfds.push(PollFd::new(conn.stream.as_raw_fd(), readable, writable));
                slots.push(slot);
                if let Some(deadline) = self.deadline_of(conn) {
                    let wait = deadline.saturating_duration_since(now);
                    timeout = Some(timeout.map_or(wait, |t: Duration| t.min(wait)));
                }
            }
            // Wake in time to close the current time-series window even
            // on an otherwise idle server.
            if let Some(ns) = self.observe.series.ns_until_due(self.telemetry) {
                let wait = Duration::from_nanos(ns);
                timeout = Some(timeout.map_or(wait, |t: Duration| t.min(wait)));
            }

            match netpoll::poll_fds(&mut pollfds, timeout) {
                Ok(_) => {}
                Err(_) => continue,
            }

            self.observe.series.maybe_tick(self.telemetry);
            if pollfds[0].readable() {
                self.wake_rx.drain();
            }
            // Completions may be pending even without a wake edge (the
            // wake can coalesce with a previous drain), so always sweep.
            self.apply_completions();

            for (i, pollfd) in pollfds.iter().enumerate().skip(1) {
                if !pollfd.ready() {
                    continue;
                }
                match slots[i] {
                    s if s == usize::MAX - 1 => self.accept_ready(),
                    slot => {
                        let mut disposition = Disposition::Keep;
                        if pollfd.failed() {
                            disposition = Disposition::Drop;
                        } else {
                            if pollfd.readable() {
                                disposition = self.conn_readable(slot);
                            }
                            if disposition == Disposition::Keep && pollfd.writable() {
                                disposition = self.conn_writable(slot);
                            }
                        }
                        if disposition == Disposition::Drop {
                            self.remove(slot);
                        }
                    }
                }
            }

            self.expire_deadlines();
        }
    }

    /// The instant at which this connection needs attention absent any
    /// readiness: idle close, partial-request timeout, write stall, or
    /// end of its post-close drain window.
    fn deadline_of(&self, conn: &Conn) -> Option<Instant> {
        if conn.draining {
            return Some(conn.drain_deadline);
        }
        if conn.has_unwritten() {
            return Some(conn.last_activity + Duration::from_millis(self.config.write_timeout_ms));
        }
        if conn.inflight > 0 || !conn.pending.is_empty() {
            return None; // a worker owns the clock
        }
        if !conn.input.is_empty() {
            return Some(conn.last_activity + Duration::from_millis(self.config.read_timeout_ms));
        }
        Some(conn.last_activity + Duration::from_millis(self.config.idle_timeout_ms))
    }

    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        self.listener = None; // closes the port
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else {
                continue;
            };
            conn.closing = true;
            if conn.quiescent() && !conn.draining {
                self.remove(slot);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.live >= self.config.max_connections {
                        self.telemetry.incr("serve.conn.rejected");
                        // Even a synthesized rejection carries a
                        // request id, so the client can quote one when
                        // reporting it.
                        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                        let live = self.live as u64;
                        self.telemetry.event(
                            Severity::Warn,
                            Category::Shed,
                            "shed.connection_limit",
                            || vec![("request_id", id.into()), ("connections", live.into())],
                        );
                        let _ = stream.set_nodelay(true);
                        let mut stream = stream;
                        let _ = stream.write_all(
                            &Response::error(503, "too many connections")
                                .header("x-qi-request-id", id.to_string())
                                .serialize(false),
                        );
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.telemetry.incr("serve.conn.accepted");
                    let generation = self.next_generation;
                    self.next_generation += 1;
                    let conn = Conn::new(stream, generation);
                    let slot = match self.free.pop() {
                        Some(slot) => {
                            self.conns[slot] = Some(conn);
                            slot
                        }
                        None => {
                            self.conns.push(Some(conn));
                            self.conns.len() - 1
                        }
                    };
                    self.live += 1;
                    // A just-accepted socket usually has the request
                    // bytes already queued: read immediately instead of
                    // paying one extra poll round trip.
                    if self.conn_readable(slot) == Disposition::Drop {
                        self.remove(slot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn remove(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.live -= 1;
            self.free.push(slot);
        }
    }

    fn conn_readable(&mut self, slot: usize) -> Disposition {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Disposition::Keep;
        };
        if conn.draining {
            return Self::drain_readable(conn, &mut self.scratch);
        }
        let mut got_bytes = false;
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.input.extend(&self.scratch[..n]);
                    conn.last_activity = Instant::now();
                    got_bytes = true;
                    if n < self.scratch.len() {
                        break; // socket very likely drained
                    }
                    if conn.input.len() >= MAX_BUFFERED_INPUT {
                        break; // backpressure: parse what we have first
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Drop,
            }
        }
        if got_bytes {
            self.parse_and_dispatch(slot);
        }
        let Some(conn) = self.conns[slot].as_mut() else {
            return Disposition::Keep;
        };
        if conn.peer_closed {
            conn.closing = true;
            if conn.quiescent() {
                return Disposition::Drop;
            }
        }
        Disposition::Keep
    }

    /// Absorb (and discard) bytes on a connection whose response is
    /// already fully written and whose write side is shut.
    fn drain_readable(conn: &mut Conn, scratch: &mut [u8]) -> Disposition {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => return Disposition::Drop,
                Ok(n) => {
                    if n >= conn.drain_budget {
                        return Disposition::Drop;
                    }
                    conn.drain_budget -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Disposition::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Drop,
            }
        }
    }

    /// Pull every complete request out of a connection's input buffer
    /// and dispatch them to the worker queue.
    fn parse_and_dispatch(&mut self, slot: usize) {
        let mut parsed_this_event = 0u64;
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing
                || conn.inflight + conn.pending.len() >= MAX_INFLIGHT_PER_CONN
                || self.shutting_down
            {
                break;
            }
            match conn.input.next_request(self.config.max_body) {
                Ok(Some(request)) => {
                    parsed_this_event += 1;
                    self.dispatch(slot, request);
                }
                Ok(None) => break,
                Err(err) => {
                    self.read_error(slot, err);
                    break;
                }
            }
        }
        if parsed_this_event > 1 {
            self.telemetry
                .add("serve.conn.pipelined", parsed_this_event - 1);
        }
        // Synthesized responses (shed/error) may be writable right now.
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.splice();
            if conn.has_unwritten() && self.conn_writable(slot) == Disposition::Drop {
                self.remove(slot);
            }
        }
    }

    /// Hand one parsed request to the workers (or shed it with `503`).
    fn dispatch(&mut self, slot: usize, request: Request) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let conn = self.conns[slot].as_mut().expect("dispatch on live conn");
        conn.served += 1;
        if conn.served > 1 {
            self.telemetry.incr("serve.conn.reused");
        }
        let keep_alive = request.keep_alive()
            && conn.served < self.config.max_requests_per_conn
            && !self.shutting_down;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        if !keep_alive {
            // No request after this one will be answered; stop parsing.
            conn.closing = true;
        }
        let job = Job {
            token: slot,
            generation: conn.generation,
            seq,
            id,
            keep_alive,
            enqueued: Instant::now(),
            request,
        };
        match self.queue.push(job) {
            Ok(()) => {
                conn.inflight += 1;
                self.telemetry
                    .gauge_max("serve.queue.depth.max", self.queue.len() as u64);
            }
            Err(job) => {
                // Queue full: shed this request, keep the connection.
                self.telemetry.incr("serve.shed");
                let depth = self.queue.len() as u64;
                self.telemetry
                    .event(Severity::Warn, Category::Shed, "shed.queue_full", || {
                        vec![("request_id", job.id.into()), ("depth", depth.into())]
                    });
                let response = Response::error(503, "server is at capacity")
                    .header("x-qi-request-id", job.id.to_string());
                conn.pending.insert(
                    seq,
                    Completed {
                        bytes: response.serialize(job.keep_alive),
                        close: !job.keep_alive,
                    },
                );
            }
        }
    }

    /// A parse error: answer the mapped status at this pipeline
    /// position, then close.
    fn read_error(&mut self, slot: usize, err: RequestError) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (status, message) = match err {
            RequestError::HeadTooLarge => (431, "request head too large".to_string()),
            RequestError::BodyTooLarge => (413, "request body too large".to_string()),
            RequestError::Malformed(what) => (400, what),
            RequestError::Io(_) => (408, "timed out reading request".to_string()),
        };
        self.telemetry.incr("serve.errors.read");
        self.telemetry
            .event(Severity::Warn, Category::Http, "http.read_error", || {
                vec![
                    ("request_id", id.into()),
                    ("status", u64::from(status).into()),
                ]
            });
        let response = Response::error(status, &message).header("x-qi-request-id", id.to_string());
        self.access_log.log(&access_line(
            id,
            "-",
            "read_error",
            "-",
            status,
            response.body.len(),
            Duration::ZERO,
            Duration::ZERO,
        ));
        let conn = self.conns[slot].as_mut().expect("error on live conn");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.pending.insert(
            seq,
            Completed {
                bytes: response.serialize(false),
                close: true,
            },
        );
        conn.closing = true;
    }

    /// Move worker completions into their connections' write buffers
    /// and push bytes opportunistically.
    fn apply_completions(&mut self) {
        let done = self.completions.take();
        let mut touched: Vec<usize> = Vec::new();
        for done in done {
            if done.shutdown {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            let Some(conn) = self.conns.get_mut(done.token).and_then(Option::as_mut) else {
                continue; // connection died while the worker ran
            };
            if conn.generation != done.generation {
                continue; // slot was recycled
            }
            conn.inflight -= 1;
            conn.pending.insert(
                done.seq,
                Completed {
                    bytes: done.bytes,
                    close: done.close,
                },
            );
            conn.splice();
            if !touched.contains(&done.token) {
                touched.push(done.token);
            }
        }
        for slot in touched {
            if self.conn_writable(slot) == Disposition::Drop {
                self.remove(slot);
                continue;
            }
            // Requests buffered while the connection sat at the in-flight
            // cap get no new readable event; parse them now that this
            // batch freed slots.
            let freed = self.conns[slot].as_ref().is_some_and(|conn| {
                !conn.input.is_empty() && conn.inflight + conn.pending.len() < MAX_INFLIGHT_PER_CONN
            });
            if freed {
                self.parse_and_dispatch(slot);
            }
        }
        // The admin handler may have just requested shutdown; apply it
        // before the next poll so no new request slips in.
        if self.shutdown.load(Ordering::SeqCst) && !self.shutting_down {
            self.begin_shutdown();
        }
    }

    /// Flush as much of the write buffer as the socket accepts; decide
    /// the connection's fate when it empties.
    fn conn_writable(&mut self, slot: usize) -> Disposition {
        let Some(conn) = self.conns[slot].as_mut() else {
            return Disposition::Keep;
        };
        while conn.has_unwritten() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Disposition::Drop,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Disposition::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Disposition::Drop,
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write && conn.inflight == 0 && conn.pending.is_empty() {
            // Everything flushed; close politely. If the peer might
            // still be sending (e.g. the body we refused), absorb
            // briefly so our FIN-then-close never becomes an RST that
            // discards the response.
            if conn.peer_closed {
                return Disposition::Drop;
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.draining = true;
            conn.drain_deadline = Instant::now() + DRAIN_WINDOW;
            return Disposition::Keep;
        }
        if self.shutting_down {
            let conn = self.conns[slot].as_mut().expect("checked above");
            if conn.quiescent() && !conn.draining {
                return Disposition::Drop;
            }
        }
        Disposition::Keep
    }

    /// Close connections whose deadline passed: idle keep-alives,
    /// half-sent requests (`408`), stalled writers, expired drains.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            let Some(deadline) = self.deadline_of(conn) else {
                continue;
            };
            if now < deadline {
                continue;
            }
            let conn = self.conns[slot].as_mut().expect("checked above");
            if conn.draining || conn.has_unwritten() {
                // Drain window over / writer stalled: just drop.
                self.remove(slot);
            } else if !conn.input.is_empty() && !conn.closing {
                // Half a request arrived, then silence: answer 408.
                self.read_error(
                    slot,
                    RequestError::Io(io::Error::from(io::ErrorKind::TimedOut)),
                );
                let conn = self.conns[slot].as_mut().expect("still live");
                conn.splice();
                if self.conn_writable(slot) == Disposition::Drop {
                    self.remove(slot);
                }
            } else {
                if !conn.closing {
                    self.telemetry.incr("serve.conn.idle_closed");
                }
                self.remove(slot);
            }
        }
    }
}

/// Worker-side request execution: route, render, serialize.
#[allow(clippy::too_many_arguments)]
fn handle_job(
    job: Job,
    store: &Store,
    telemetry: &Telemetry,
    config: &ServerConfig,
    access_log: &AccessLog,
    observe: &Observe,
    queue_depth: u64,
) -> Done {
    let Job {
        token,
        generation,
        seq,
        id,
        keep_alive,
        enqueued,
        request,
    } = job;
    let queue_wait = enqueued.elapsed();
    let started = Instant::now();

    // With slow-request tracing on, handler spans go into a request-
    // local registry (so the breakdown is this request's alone), then
    // merge into the global one. The sibling shares the global clock
    // baseline and recorder, so events emitted mid-handler land in the
    // one flight recorder with consistent timestamps.
    let local = config
        .slow_ms
        .map(|_| telemetry.sibling().attach_events(telemetry.events()));
    let effective = local.as_ref().unwrap_or(telemetry);

    let parsed = Route::parse(&request);
    let (route, requests_key, span_key) = parsed.keys();
    telemetry.incr("serve.requests");
    telemetry.incr(requests_key);
    let timed = telemetry.timed(span_key);
    let response = catch_unwind(AssertUnwindSafe(|| {
        handle(
            parsed,
            &request,
            store,
            telemetry,
            effective,
            config,
            observe,
            queue_depth,
        )
    }))
    .unwrap_or_else(|_| {
        telemetry.incr("serve.panics");
        telemetry.event(Severity::Error, Category::Panic, "panic.request", || {
            vec![("request_id", id.into()), ("route", route.into())]
        });
        Response::error(500, "internal error")
    });
    drop(timed);
    let latency = started.elapsed();
    telemetry.observe("serve.latency", latency.as_nanos() as u64);
    if response.status >= 400 {
        telemetry.incr("serve.errors");
        telemetry.incr(&format!("serve.errors.{route}"));
    }
    let shutdown = route == "shutdown" && response.status == 200;
    // A successful shutdown response closes its connection regardless
    // of what the request asked for.
    let keep_alive = keep_alive && !shutdown;
    let response = response.header("x-qi-request-id", id.to_string());
    let bytes = response.serialize(keep_alive);

    access_log.log(&access_line(
        id,
        &request.method,
        route,
        &request.path,
        response.status,
        response.body.len(),
        latency,
        queue_wait,
    ));
    if let (Some(slow_ms), Some(local)) = (config.slow_ms, &local) {
        let snapshot = local.snapshot();
        if latency.as_millis() as u64 >= slow_ms {
            let mut stages = String::new();
            for (name, span) in &snapshot.spans {
                stages.push_str(&format!(" {name}={}us", span.total_ns / 1_000));
            }
            access_log.log_or_stderr(&format!(
                "slow req={id} route={route} latency_us={}{stages}",
                latency.as_micros()
            ));
            telemetry.event(Severity::Warn, Category::Slow, "slow.request", || {
                vec![
                    ("request_id", id.into()),
                    ("route", route.into()),
                    ("latency_us", (latency.as_micros() as u64).into()),
                ]
            });
        }
        telemetry.absorb(&snapshot);
    }

    Done {
        token,
        generation,
        seq,
        bytes,
        close: !keep_alive,
        shutdown,
    }
}

/// One structured access-log line.
#[allow(clippy::too_many_arguments)]
fn access_line(
    id: u64,
    method: &str,
    route: &str,
    path: &str,
    status: u16,
    bytes: usize,
    latency: Duration,
    queue_wait: Duration,
) -> String {
    format!(
        "req={id} method={method} route={route} path={path} status={status} bytes={bytes} \
         latency_us={} queue_wait_us={}",
        latency.as_micros(),
        queue_wait.as_micros()
    )
}

/// A request's endpoint, parsed once from its method and path. Domain
/// slugs borrow from the path.
#[derive(Debug, Clone, Copy)]
enum Route<'a> {
    Healthz,
    Metrics,
    MetricsHistory,
    DebugEvents,
    DebugStatus,
    Domains,
    Labels(&'a str),
    Tree(&'a str),
    Explain(&'a str),
    Query,
    Ingest(&'a str),
    Reload,
    Shutdown,
    Other,
}

/// A route's telemetry label and its pre-built `serve.requests.*` and
/// `serve.http.*` keys, so the per-request hot path allocates no key
/// strings.
macro_rules! route_keys {
    ($name:literal) => {
        (
            $name,
            concat!("serve.requests.", $name),
            concat!("serve.http.", $name),
        )
    };
}

impl<'a> Route<'a> {
    fn parse(request: &'a Request) -> Route<'a> {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Route::Healthz,
            ("GET", ["metrics"]) => Route::Metrics,
            ("GET", ["metrics", "history"]) => Route::MetricsHistory,
            ("GET", ["debug", "events"]) => Route::DebugEvents,
            ("GET", ["debug", "status"]) => Route::DebugStatus,
            ("GET", ["domains"]) => Route::Domains,
            ("GET", ["domains", domain, "labels"]) => Route::Labels(domain),
            ("GET", ["domains", domain, "tree"]) => Route::Tree(domain),
            ("GET", ["domains", domain, "explain"]) => Route::Explain(domain),
            ("GET" | "POST", ["query"]) => Route::Query,
            ("POST", ["domains", domain, "interfaces"]) => Route::Ingest(domain),
            ("POST", ["admin", "reload"]) => Route::Reload,
            ("POST", ["admin", "shutdown"]) => Route::Shutdown,
            _ => Route::Other,
        }
    }

    /// Stable route label for telemetry (no per-domain cardinality),
    /// with its `serve.requests.*` and `serve.http.*` keys.
    fn keys(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Route::Healthz => route_keys!("healthz"),
            Route::Metrics => route_keys!("metrics"),
            Route::MetricsHistory => route_keys!("metrics_history"),
            Route::DebugEvents => route_keys!("debug_events"),
            Route::DebugStatus => route_keys!("debug_status"),
            Route::Domains => route_keys!("domains"),
            Route::Labels(_) => route_keys!("labels"),
            Route::Tree(_) => route_keys!("tree"),
            Route::Explain(_) => route_keys!("explain"),
            Route::Query => route_keys!("query"),
            Route::Ingest(_) => route_keys!("ingest"),
            Route::Reload => route_keys!("reload"),
            Route::Shutdown => route_keys!("shutdown"),
            Route::Other => route_keys!("other"),
        }
    }
}

/// Route a parsed request to its handler.
///
/// `telemetry` is the server-global registry (what `GET /metrics`
/// reports); `effective` is where this request's pipeline spans land —
/// the same registry normally, a request-local one under slow-request
/// tracing.
#[allow(clippy::too_many_arguments)]
fn handle(
    route: Route<'_>,
    request: &Request,
    store: &Store,
    telemetry: &Telemetry,
    effective: &Telemetry,
    config: &ServerConfig,
    observe: &Observe,
    queue_depth: u64,
) -> Response {
    match route {
        Route::Healthz => healthz(request, store, observe),
        Route::Metrics => metrics(request, telemetry),
        Route::MetricsHistory => metrics_history(request, observe),
        Route::DebugEvents => debug_events(request, telemetry),
        Route::DebugStatus => debug_status(store, telemetry, observe, queue_depth),
        Route::Domains => {
            // The listing is rendered from the whole corpus, so its
            // ETag carries the corpus generation, not one artifact's.
            let corpus = store.corpus();
            let cell = &corpus.listing;
            respond_cached(request, telemetry, cell.get(), || {
                Ok(cell.get_or_init(|| Rendered::of(corpus.generation, &list_domains(&corpus))))
            })
        }
        Route::Labels(domain) => {
            domain_get(request, store, domain, telemetry, |s| &s.labels, labels)
        }
        Route::Tree(domain) => domain_get(request, store, domain, telemetry, |s| &s.tree, tree),
        // Explicit pagination parameters bypass the rendered body (each
        // page is its own body); the bare GET stays cached.
        Route::Explain(domain)
            if request.query_param("cursor").is_some()
                || request.query_param("limit").is_some() =>
        {
            explain_paged(request, store, domain, telemetry)
        }
        Route::Explain(domain) => {
            domain_get(request, store, domain, telemetry, |s| &s.explain, explain)
        }
        Route::Query => query_endpoint(request, store, telemetry),
        Route::Ingest(domain) => ingest(request, store, domain, effective),
        Route::Reload => reload(request, store, telemetry, config),
        Route::Shutdown => Response::json(200, Obj::new().str("status", "shutting down").finish()),
        Route::Other if !matches!(request.method.as_str(), "GET" | "POST") => {
            Response::error(405, "method not allowed")
        }
        Route::Other => Response::error(404, "no such resource"),
    }
}

/// `POST /admin/reload`: load a snapshot file and swap the whole store
/// to it without dropping a single live connection. The body may name
/// the snapshot path; empty falls back to the path the server was
/// started with ([`ServerConfig::snapshot_path`]).
fn reload(
    request: &Request,
    store: &Store,
    telemetry: &Telemetry,
    config: &ServerConfig,
) -> Response {
    let body = String::from_utf8_lossy(&request.body);
    let body_path = body.trim();
    let path = if body_path.is_empty() {
        match config.snapshot_path.as_deref() {
            Some(path) => path,
            None => return Response::error(
                400,
                "no snapshot path: server started without --snapshot and request body names none",
            ),
        }
    } else {
        body_path
    };
    let _span = telemetry.timed("serve.reload.load");
    let snapshot = match crate::snapshot::load_snapshot(Path::new(path)) {
        Ok(snapshot) => snapshot,
        Err(err) => return Response::error(400, &format!("loading snapshot {path:?}: {err}")),
    };
    let domains = store.reload(snapshot, telemetry);
    telemetry.incr("serve.reloads");
    telemetry.event(Severity::Info, Category::Reload, "reload.snapshot", || {
        vec![("path", path.into()), ("domains", (domains as u64).into())]
    });
    Response::json(
        200,
        Obj::new()
            .str("status", "reloaded")
            .str("path", path)
            .u64("domains", domains as u64)
            .finish(),
    )
}

/// `GET /metrics` with content negotiation: the Prometheus text
/// exposition when the `Accept` header asks for `text/plain`, sorted
/// JSON otherwise.
fn metrics(request: &Request, telemetry: &Telemetry) -> Response {
    let snapshot = telemetry.snapshot();
    // Media-type matching is case-insensitive (RFC 7231 §3.1.1.1).
    let wants_prometheus = request
        .header("accept")
        .is_some_and(|accept| accept.to_ascii_lowercase().contains("text/plain"));
    if wants_prometheus {
        Response::with_type(
            200,
            "text/plain; version=0.0.4",
            qi_runtime::prometheus_text(&snapshot),
        )
    } else {
        Response::json(200, snapshot.to_json())
    }
}

/// `GET /healthz` with content negotiation: a JSON liveness document
/// (uptime, store generation, per-domain artifact versions), or a bare
/// `ok` when the `Accept` header asks for `text/plain` (load-balancer
/// probes that only string-match).
fn healthz(request: &Request, store: &Store, observe: &Observe) -> Response {
    let wants_plain = request
        .header("accept")
        .is_some_and(|accept| accept.to_ascii_lowercase().contains("text/plain"));
    if wants_plain {
        return Response::with_type(200, "text/plain", "ok\n".to_string());
    }
    let corpus = store.corpus();
    Response::json(
        200,
        Obj::new()
            .str("status", "ok")
            .u64("domains", corpus.domains.len() as u64)
            .u64("uptime_seconds", observe.uptime_seconds())
            .u64("generation", corpus.generation)
            .raw("versions", domain_versions(&corpus).finish())
            .finish(),
    )
}

/// Slug → current artifact version, for `/healthz` and `/debug/status`.
fn domain_versions(corpus: &Corpus) -> Obj {
    let mut versions = Obj::new();
    for (slug, served) in &corpus.domains {
        versions.u64(slug, served.artifact.version);
    }
    versions
}

/// `GET /metrics/history?windows=N`: the retained time-series windows
/// (per-interval deltas of the cumulative registry), oldest first.
fn metrics_history(request: &Request, observe: &Observe) -> Response {
    let cap = (observe.series.capacity() as u64).max(1);
    let windows = match u64_param(request, "windows", cap, 1, cap) {
        Ok(windows) => windows,
        Err(response) => return response,
    };
    Response::json(200, observe.series.history_json(windows as usize))
}

/// `GET /debug/events?since=&category=&limit=`: a cursor-resumable
/// page of the flight recorder's retained events. Pass the returned
/// `next_seq` back as `since` to read strictly newer events; a
/// `dropped_watermark` above the cursor means the ring evicted events
/// the cursor never saw.
fn debug_events(request: &Request, telemetry: &Telemetry) -> Response {
    let recorder = telemetry.events();
    let since = match u64_param(request, "since", 0, 0, u64::MAX) {
        Ok(since) => since,
        Err(response) => return response,
    };
    let limit = match u64_param(request, "limit", 256, 1, 4096) {
        Ok(limit) => limit,
        Err(response) => return response,
    };
    let category = match request.query_param("category") {
        None => None,
        Some(name) if name.is_empty() => None,
        Some(name) => match Category::parse(&name) {
            Some(category) => Some(category),
            None => {
                return Response::error(400, &format!("bad category: {name:?} is not a category"))
            }
        },
    };
    let page = recorder.events_since(since, category, limit as usize);
    let mut events = Arr::new();
    for event in &page.events {
        events.raw(event.to_json());
    }
    Response::json(
        200,
        Obj::new()
            .bool("enabled", recorder.is_enabled())
            .u64("next_seq", page.next_seq)
            .u64("dropped_watermark", page.dropped_watermark)
            .u64("dropped", page.dropped)
            .raw("events", events.finish())
            .finish(),
    )
}

/// `GET /debug/status`: one-page live introspection — uptime, snapshot
/// versions, queue depth, recorder state, and rolling rates computed
/// over the retained time-series windows.
fn debug_status(
    store: &Store,
    telemetry: &Telemetry,
    observe: &Observe,
    queue_depth: u64,
) -> Response {
    let (requests, span_ns) = observe.series.rolling_sum("serve.requests");
    let (errors, _) = observe.series.rolling_sum("serve.errors");
    let (shed, _) = observe.series.rolling_sum("serve.shed");
    let seconds = span_ns as f64 / 1e9;
    let per_sec = |count: u64| {
        if span_ns == 0 {
            0.0
        } else {
            count as f64 / seconds
        }
    };
    let rate_of = |count: u64| {
        if requests == 0 {
            0.0
        } else {
            count as f64 / requests as f64
        }
    };
    let mut rolling = Obj::new();
    rolling
        .f64("window_seconds", seconds, 3)
        .u64("requests", requests)
        .f64("requests_per_sec", per_sec(requests), 3)
        .u64("errors", errors)
        .f64("error_rate", rate_of(errors), 4)
        .u64("shed", shed)
        .f64("shed_rate", rate_of(shed), 4);
    let recorder = telemetry.events();
    let recorder_page = recorder.events_since(u64::MAX, None, 0);
    let mut events = Obj::new();
    events
        .bool("enabled", recorder.is_enabled())
        .u64("last_seq", recorder.last_seq())
        .u64("dropped", recorder_page.dropped);
    let corpus = store.corpus();
    Response::json(
        200,
        Obj::new()
            .str("status", "ok")
            .u64("uptime_seconds", observe.uptime_seconds())
            .u64("generation", corpus.generation)
            .u64("domains", corpus.domains.len() as u64)
            .u64("queue_depth", queue_depth)
            .raw("versions", domain_versions(&corpus).finish())
            .raw("rolling", rolling.finish())
            .raw("events", events.finish())
            .finish(),
    )
}

/// Serve a per-domain GET from the body `cell` picks out of the
/// domain's [`Served`], rendering it from the artifact on a miss.
fn domain_get(
    request: &Request,
    store: &Store,
    domain: &str,
    telemetry: &Telemetry,
    cell: fn(&Served) -> &OnceLock<Rendered>,
    render: fn(&DomainArtifact) -> Response,
) -> Response {
    let corpus = store.corpus();
    let Some(served) = corpus.get(domain) else {
        return Response::error(404, "no such domain");
    };
    let cell = cell(served);
    respond_cached(request, telemetry, cell.get(), || {
        Ok(cell.get_or_init(|| Rendered::of(served.artifact.version, &render(&served.artifact))))
    })
}

/// Answer from a rendered body, counting a hit when `cached` holds one
/// and a miss when `fill` has to render (and store) it; `fill` may
/// answer an error instead. The answer is `304` without a body when
/// the client's `If-None-Match` already names the body's ETag, `200`
/// sharing the bytes otherwise; both carry the ETag.
fn respond_cached<R: Deref<Target = Rendered>>(
    request: &Request,
    telemetry: &Telemetry,
    cached: Option<R>,
    fill: impl FnOnce() -> Result<R, Response>,
) -> Response {
    let rendered = match cached {
        Some(rendered) => {
            telemetry.incr("serve.cache.hits");
            rendered
        }
        None => {
            telemetry.incr("serve.cache.misses");
            match fill() {
                Ok(rendered) => rendered,
                Err(response) => return response,
            }
        }
    };
    if request.header("if-none-match") == Some(rendered.etag.as_str()) {
        return Response::bytes(304, rendered.content_type, Arc::new(Vec::new()))
            .header("etag", rendered.etag.clone());
    }
    Response::bytes(200, rendered.content_type, Arc::clone(&rendered.body))
        .header("etag", rendered.etag.clone())
}

fn class_str(artifact: &DomainArtifact) -> String {
    artifact
        .class
        .map(|c| c.to_string())
        .unwrap_or_else(|| "unclassified".to_string())
}

fn summary(artifact: &DomainArtifact) -> String {
    Obj::new()
        .str("domain", &artifact.name)
        .str("slug", &artifact.slug())
        .u64("interfaces", artifact.interfaces() as u64)
        .u64("clusters", artifact.mapping.len() as u64)
        .u64("leaves", artifact.leaf_cluster.len() as u64)
        .str("class", &class_str(artifact))
        .finish()
}

fn list_domains(corpus: &Corpus) -> Response {
    let mut arr = Arr::new();
    for served in corpus.domains.values() {
        arr.raw(summary(&served.artifact));
    }
    Response::json(200, Obj::new().raw("domains", arr.finish()).finish())
}

fn labels(artifact: &DomainArtifact) -> Response {
    let mut arr = Arr::new();
    for (&node, &cluster) in &artifact.leaf_cluster {
        let leaf = artifact.labeled.node(node);
        let mut obj = Obj::new();
        obj.u64("node", node.0 as u64);
        match &leaf.label {
            Some(label) => obj.str("label", label),
            None => obj.raw("label", "null"),
        };
        obj.str("cluster", &artifact.mapping.cluster(cluster).concept);
        arr.raw(obj.finish());
    }
    Response::json(
        200,
        Obj::new()
            .str("domain", &artifact.name)
            .str("class", &class_str(artifact))
            .u64("unlabeled_fields", artifact.unlabeled_fields as u64)
            .u64("labeled_internal", artifact.labeled_internal as u64)
            .raw("labels", arr.finish())
            .finish(),
    )
}

fn tree(artifact: &DomainArtifact) -> Response {
    Response::json(
        200,
        Obj::new()
            .str("domain", &artifact.name)
            .str("class", &class_str(artifact))
            .str("tree", &qi_schema::text_format::render(&artifact.labeled))
            .finish(),
    )
}

/// `GET /domains/{d}/explain`: the per-node labeling-decision
/// provenance of the domain's current artifact, paginated with the
/// query engine's cursors. The bare GET renders the first page at the
/// default page size (and is the shape the rendered cache holds);
/// `?cursor=` / `?limit=` select other pages through [`explain_paged`].
fn explain(artifact: &DomainArtifact) -> Response {
    explain_page(artifact, 0, queryapi::DEFAULT_LIMIT as usize)
}

/// The tag hash pinning `/explain` cursors to this stream, so a query
/// cursor pasted into `/explain` (or vice versa) is rejected instead of
/// misread.
fn explain_hash() -> u64 {
    qi_query::query_hash("explain")
}

fn explain_page(artifact: &DomainArtifact, offset: usize, limit: usize) -> Response {
    let total = artifact.decisions.len();
    let end = offset.saturating_add(limit).min(total);
    let mut arr = Arr::new();
    for decision in artifact.decisions.get(offset..end).unwrap_or(&[]) {
        let mut candidates = Arr::new();
        for candidate in &decision.candidates {
            candidates.raw(
                Obj::new()
                    .str("label", &candidate.label)
                    .u64("frequency", candidate.frequency)
                    .bool("accepted", candidate.accepted)
                    .str("note", &candidate.note)
                    .finish(),
            );
        }
        let mut obj = Obj::new();
        obj.u64("node", decision.node as u64);
        obj.str("path", &decision.path);
        obj.str("rule", &decision.rule);
        match &decision.chosen {
            Some(label) => obj.str("label", label),
            None => obj.raw("label", "null"),
        };
        obj.raw("candidates", candidates.finish());
        arr.raw(obj.finish());
    }
    let mut obj = Obj::new();
    obj.str("domain", &artifact.name);
    obj.u64("decisions", total as u64);
    obj.u64("count", end.saturating_sub(offset) as u64);
    obj.raw("explain", arr.finish());
    if end < total {
        let cursor = Cursor {
            qhash: explain_hash(),
            slug: artifact.slug(),
            version: artifact.version,
            offset: end as u64,
        };
        obj.str("next_cursor", &cursor.encode());
    }
    Response::json(200, obj.finish())
}

/// `GET /domains/{d}/explain?cursor=…&limit=…`: an explicit page of the
/// decision list, outside the rendered body.
fn explain_paged(
    request: &Request,
    store: &Store,
    domain: &str,
    telemetry: &Telemetry,
) -> Response {
    let Some(artifact) = store.get(domain) else {
        return Response::error(404, "no such domain");
    };
    let limit = match u64_param(
        request,
        "limit",
        queryapi::DEFAULT_LIMIT,
        1,
        queryapi::MAX_LIMIT,
    ) {
        Ok(limit) => limit,
        Err(response) => return response,
    };
    let offset = match request.query_param("cursor") {
        None => 0,
        Some(text) => {
            const DIFFERENT: &str = "cursor was issued for a different stream";
            let slug = artifact.slug();
            let checked =
                queryapi::decode_cursor(&text, explain_hash(), DIFFERENT).and_then(|cursor| {
                    if cursor.slug != slug {
                        Err(QueryError::BadCursor(DIFFERENT))
                    } else if cursor.version != artifact.version {
                        Err(QueryError::StaleCursor)
                    } else {
                        Ok(cursor.offset as usize)
                    }
                });
            match checked {
                Ok(offset) => offset,
                Err(err) => return paged_error(&err, Stream::Explain(&slug), telemetry),
            }
        }
    };
    explain_page(&artifact, offset, limit as usize)
}

/// The two cursor-paged streams.
#[derive(Clone, Copy)]
enum Stream<'a> {
    /// `/query`.
    Query,
    /// `/domains/{slug}/explain`.
    Explain(&'a str),
}

/// Answer a failed cursor-paged read and count it: 400 for a bad query
/// or cursor, 410 for a stale cursor, 422 for an exhausted budget.
fn paged_error(err: &QueryError, stream: Stream<'_>, telemetry: &Telemetry) -> Response {
    let status = match err {
        QueryError::Parse(_) => {
            telemetry.incr("query.parse_errors");
            400
        }
        QueryError::BadCursor(_) => 400,
        QueryError::StaleCursor => {
            telemetry.incr("query.stale_cursors");
            telemetry.event(
                Severity::Warn,
                Category::Cursor,
                "cursor.stale",
                || match stream {
                    Stream::Query => vec![("stream", "query".into())],
                    Stream::Explain(slug) => {
                        vec![("stream", "explain".into()), ("slug", slug.into())]
                    }
                },
            );
            410
        }
        QueryError::BudgetExhausted { limit } => {
            telemetry.incr("query.budget_exhausted");
            let limit = *limit;
            telemetry.event(
                Severity::Warn,
                Category::Budget,
                "query.budget_exhausted",
                || vec![("limit", limit.into())],
            );
            422
        }
    };
    match (err, stream) {
        (QueryError::StaleCursor, Stream::Explain(_)) => Response::error(
            status,
            "cursor is stale: the domain was re-labeled since the page was cut",
        ),
        _ => Response::error(status, &err.to_string()),
    }
}

/// Parse an integer query parameter, defaulting when absent and
/// rejecting values outside `min..=max` with a 400.
fn u64_param(
    request: &Request,
    name: &str,
    default: u64,
    min: u64,
    max: u64,
) -> Result<u64, Response> {
    match request.query_param(name) {
        None => Ok(default),
        Some(text) => match text.parse::<u64>() {
            Ok(value) if (min..=max).contains(&value) => Ok(value),
            _ => Err(Response::error(
                400,
                &format!("bad {name}: expected an integer in {min}..={max}"),
            )),
        },
    }
}

/// `GET/POST /query`: parse, execute and paginate one query across the
/// served domains. `?q=` carries the text on GET; a POST body carries
/// it verbatim (no encoding needed). `?limit=`, `?budget=` and
/// `?cursor=` tune pagination; cursorless GET pages are kept on the
/// corpus they were cut from (`Corpus::queries`), so a repeated
/// dashboard query costs one pointer clone and revalidates with ETags.
fn query_endpoint(request: &Request, store: &Store, telemetry: &Telemetry) -> Response {
    let text = if request.method == "POST" && !request.body.is_empty() {
        match std::str::from_utf8(&request.body) {
            Ok(text) => text.trim().to_string(),
            Err(_) => return Response::error(400, "query body is not UTF-8"),
        }
    } else {
        match request.query_param("q") {
            Some(q) => q,
            None => return Response::error(400, "missing query: pass ?q= or a POST body"),
        }
    };
    let limit = match u64_param(
        request,
        "limit",
        queryapi::DEFAULT_LIMIT,
        1,
        queryapi::MAX_LIMIT,
    ) {
        Ok(limit) => limit,
        Err(response) => return response,
    };
    let budget = match u64_param(
        request,
        "budget",
        queryapi::DEFAULT_BUDGET,
        1,
        queryapi::DEFAULT_BUDGET,
    ) {
        Ok(budget) => budget,
        Err(response) => return response,
    };
    let params = PageParams {
        limit,
        budget,
        cursor: request.query_param("cursor"),
    };

    // Parse up front: a 400 should not cost a corpus walk, and the
    // page key is the canonical text (so whitespace variants of the
    // same query share one page).
    let canonical = match qi_query::parse(&text) {
        Ok(parsed) => parsed.to_string(),
        Err(err) => {
            telemetry.incr("query.parse_errors");
            return Response::error(400, &format!("bad query: {err}"));
        }
    };
    let corpus = store.corpus();
    let execute = || {
        let refs: Vec<&DomainArtifact> = corpus
            .domains
            .values()
            .map(|served| &*served.artifact)
            .collect();
        telemetry.incr("query.executed");
        let timed = telemetry.timed("query.exec");
        let result = queryapi::run_query(&refs, store.lexicon(), &text, &params);
        drop(timed);
        let page = result.map_err(|err| paged_error(&err, Stream::Query, telemetry))?;
        if params.cursor.is_some() {
            telemetry.incr("query.cursor_resumed");
        }
        telemetry.add("query.matches", page.matches.len() as u64);
        Ok(Response::json(200, queryapi::page_json(&page)))
    };
    if request.method != "GET" || params.cursor.is_some() {
        return execute().unwrap_or_else(|err| err);
    }
    let key = (canonical, limit, budget);
    let cached = corpus.queries.get(&key);
    respond_cached(request, telemetry, cached, || {
        let rendered = Arc::new(Rendered::of(corpus.generation, &execute()?));
        corpus.queries.insert(key, Arc::clone(&rendered));
        Ok(rendered)
    })
}

fn ingest(request: &Request, store: &Store, domain: &str, telemetry: &Telemetry) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "interface body is not UTF-8");
    };
    let interface = match qi_schema::text_format::parse(text) {
        Ok(interface) => interface,
        Err(err) => return Response::error(400, &format!("bad interface: {err}")),
    };
    match store.ingest_with(domain, interface, telemetry) {
        Some(artifact) => Response::json(200, summary(&artifact)),
        None => Response::error(404, "no such domain"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::build_artifact;
    use crate::http::reason;
    use qi_core::NamingPolicy;
    use qi_lexicon::Lexicon;

    fn request(method: &str, path: &str, body: &[u8]) -> Request {
        let (path, query) = match path.split_once('?') {
            Some((path, query)) => (path, query),
            None => (path, ""),
        };
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: query.to_string(),
            version_minor: 1,
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    /// Parse the request's route and handle it, as a worker does.
    fn handle_request(
        request: &Request,
        store: &Store,
        telemetry: &Telemetry,
        effective: &Telemetry,
        config: &ServerConfig,
        observe: &Observe,
        queue_depth: u64,
    ) -> Response {
        let route = Route::parse(request);
        handle(
            route,
            request,
            store,
            telemetry,
            effective,
            config,
            observe,
            queue_depth,
        )
    }

    fn auto_store() -> Store {
        let lexicon = Lexicon::builtin();
        let telemetry = Telemetry::off();
        let artifact = build_artifact(
            &qi_datasets::auto::domain(),
            &lexicon,
            NamingPolicy::default(),
            &telemetry,
        );
        Store::new(vec![artifact], lexicon, NamingPolicy::default(), telemetry)
    }

    #[test]
    fn routes_cover_the_api_surface() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let ok = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };

        let health = ok(&request("GET", "/healthz", b""));
        assert_eq!(health.status, 200);
        let text = String::from_utf8(health.body.to_vec()).unwrap();
        assert!(
            text.starts_with("{\"status\":\"ok\",\"domains\":1,"),
            "{text}"
        );
        assert!(text.contains("\"uptime_seconds\":"), "{text}");
        assert!(text.contains("\"generation\":0"), "{text}");
        assert!(text.contains("\"versions\":{\"auto\":"), "{text}");

        // The old probe body survives under `Accept: text/plain`.
        let mut plain = request("GET", "/healthz", b"");
        plain
            .headers
            .push(("accept".to_string(), "text/plain".to_string()));
        let probe = ok(&plain);
        assert_eq!(probe.status, 200);
        assert_eq!(probe.content_type, "text/plain");
        assert_eq!(*probe.body, b"ok\n");

        let domains = ok(&request("GET", "/domains", b""));
        assert_eq!(domains.status, 200);
        let text = String::from_utf8(domains.body.to_vec()).unwrap();
        assert!(text.contains("\"slug\":\"auto\""), "{text}");

        let labels = ok(&request("GET", "/domains/auto/labels", b""));
        assert_eq!(labels.status, 200);
        let text = String::from_utf8(labels.body.to_vec()).unwrap();
        assert!(text.contains("\"labels\":["), "{text}");

        let tree = ok(&request("GET", "/domains/Auto/tree", b""));
        assert_eq!(tree.status, 200);
        let text = String::from_utf8(tree.body.to_vec()).unwrap();
        assert!(text.contains("interface"), "{text}");

        let explain = ok(&request("GET", "/domains/auto/explain", b""));
        assert_eq!(explain.status, 200);
        let text = String::from_utf8(explain.body.to_vec()).unwrap();
        assert!(text.contains("\"rule\":"), "{text}");
        assert!(text.contains("\"accepted\":true"), "{text}");

        assert_eq!(ok(&request("GET", "/domains/nope/tree", b"")).status, 404);
        assert_eq!(
            ok(&request("GET", "/domains/nope/explain", b"")).status,
            404
        );
        assert_eq!(ok(&request("GET", "/nope", b"")).status, 404);
        assert_eq!(ok(&request("PUT", "/healthz", b"")).status, 405);
        assert_eq!(ok(&request("GET", "/metrics", b"")).status, 200);

        // The introspection surface answers even with everything
        // disabled: empty history, an empty event page, a status page.
        let history = ok(&request("GET", "/metrics/history", b""));
        assert_eq!(history.status, 200);
        assert_eq!(
            *history.body,
            b"{\"interval_ns\":0,\"capacity\":0,\"windows\":[]}"
        );
        let events = ok(&request("GET", "/debug/events", b""));
        assert_eq!(events.status, 200);
        let text = String::from_utf8(events.body.to_vec()).unwrap();
        assert!(text.contains("\"enabled\":false"), "{text}");
        assert_eq!(
            ok(&request("GET", "/debug/events?category=nope", b"")).status,
            400
        );
        let status = ok(&request("GET", "/debug/status", b""));
        assert_eq!(status.status, 200);
        let text = String::from_utf8(status.body.to_vec()).unwrap();
        assert!(text.contains("\"queue_depth\":0"), "{text}");
        assert!(text.contains("\"rolling\":{"), "{text}");
    }

    /// A worker panicking while it holds the completion queue must not
    /// stop the reactor from collecting later completions.
    #[test]
    fn completion_queue_survives_a_poisoned_lock() {
        let completions = Completions::default();
        let done = |seq| Done {
            token: 0,
            generation: 0,
            seq,
            bytes: b"ok".to_vec(),
            close: false,
            shutdown: false,
        };
        completions.push(done(0));
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _queue = completions.0.lock().unwrap();
                panic!("worker panics with the completion queue locked");
            });
            assert!(holder.join().is_err());
        });
        assert!(completions.0.is_poisoned());
        completions.push(done(1));
        let seqs: Vec<u64> = completions.take().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert!(completions.take().is_empty());
    }

    /// A panic while holding the store's locks must not disable the
    /// server: reads, ingests and reloads keep answering afterwards.
    #[test]
    fn requests_succeed_after_a_lock_holder_panics() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let send = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };
        let path = std::env::temp_dir().join(format!("qi-poison-{}.snap", std::process::id()));
        crate::snapshot::write_snapshot(&path, &store.snapshot()).unwrap();

        store.poison_locks();
        assert_eq!(
            send(&request("GET", "/domains/auto/labels", b"")).status,
            200
        );
        let body = b"interface extra\n- Make\n- Model\n";
        let ingest = send(&request("POST", "/domains/auto/interfaces", body));
        assert_eq!(
            ingest.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&ingest.body)
        );
        let reload = send(&request(
            "POST",
            "/admin/reload",
            path.to_string_lossy().as_bytes(),
        ));
        assert_eq!(
            reload.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&reload.body)
        );
        assert_eq!(send(&request("GET", "/domains/auto/tree", b"")).status, 200);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reload_without_a_path_is_a_client_error() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let response = handle_request(
            &request("POST", "/admin/reload", b""),
            &store,
            &telemetry,
            &telemetry,
            &config,
            &observe,
            0,
        );
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body.to_vec()).unwrap();
        assert!(text.contains("no snapshot path"), "{text}");

        let response = handle_request(
            &request("POST", "/admin/reload", b"/definitely/not/a/file.snap"),
            &store,
            &telemetry,
            &telemetry,
            &config,
            &observe,
            0,
        );
        assert_eq!(response.status, 400);
    }

    #[test]
    fn metrics_negotiates_prometheus_and_json() {
        let store = auto_store();
        let telemetry = Telemetry::deterministic();
        telemetry.incr("probe.hits");
        drop(telemetry.timed("probe.work"));
        let config = ServerConfig::default();

        let observe = Observe::off();
        let json = handle_request(
            &request("GET", "/metrics", b""),
            &store,
            &telemetry,
            &telemetry,
            &config,
            &observe,
            0,
        );
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, "application/json");
        assert!(json.body.starts_with(b"{"));

        // Accept matching is case-insensitive per RFC 7231.
        let mut req = request("GET", "/metrics", b"");
        req.headers
            .push(("accept".to_string(), "TEXT/Plain".to_string()));
        let prom = handle_request(&req, &store, &telemetry, &telemetry, &config, &observe, 0);
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(prom.body.to_vec()).unwrap();
        assert!(text.contains("qi_probe_hits_total 1"), "{text}");
        assert!(text.contains("# TYPE qi_probe_work histogram"), "{text}");
    }

    #[test]
    fn ingest_validates_and_rebuilds() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let before = store.get("auto").unwrap().interfaces();

        let observe = Observe::off();
        let bad = handle_request(
            &request("POST", "/domains/auto/interfaces", b"not an interface"),
            &store,
            &telemetry,
            &telemetry,
            &config,
            &observe,
            0,
        );
        assert_eq!(bad.status, 400);

        // An explicit "effective" registry receives the rebuild spans,
        // as under slow-request tracing.
        let local = Telemetry::deterministic();
        let good = handle_request(
            &request(
                "POST",
                "/domains/auto/interfaces",
                b"interface extra\n- Make\n- Model\n",
            ),
            &store,
            &telemetry,
            &local,
            &config,
            &observe,
            0,
        );
        assert_eq!(
            good.status,
            200,
            "{:?}",
            String::from_utf8(good.body.to_vec())
        );
        assert_eq!(store.get("auto").unwrap().interfaces(), before + 1);
        let snapshot = local.snapshot();
        assert!(snapshot.spans.contains_key("serve.ingest"));
        assert!(snapshot.spans.contains_key("serve.build_artifact"));

        let missing = handle_request(
            &request("POST", "/domains/zzz/interfaces", b"interface x\n- A\n"),
            &store,
            &telemetry,
            &telemetry,
            &config,
            &observe,
            0,
        );
        assert_eq!(missing.status, 404);
    }

    #[test]
    fn telemetry_labels_routes_without_domain_cardinality() {
        let route = |method: &str, path: &str| {
            let (name, requests_key, span_key) = Route::parse(&request(method, path, b"")).keys();
            assert_eq!(requests_key, format!("serve.requests.{name}"));
            assert_eq!(span_key, format!("serve.http.{name}"));
            name
        };
        assert_eq!(route("GET", "/domains/auto/labels"), "labels");
        assert_eq!(route("GET", "/domains/books/labels"), "labels");
        assert_eq!(route("GET", "/domains/auto/explain"), "explain");
        assert_eq!(route("POST", "/domains/auto/interfaces"), "ingest");
        assert_eq!(route("POST", "/admin/reload"), "reload");
        assert_eq!(route("GET", "/metrics/history"), "metrics_history");
        assert_eq!(route("DELETE", "/x"), "other");
        assert_eq!(route("GET", "/domains/auto/labels/extra"), "other");
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200u16, 400, 404, 405, 408, 410, 413, 422, 431, 500, 503] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
    }

    #[test]
    fn query_endpoint_executes_and_paginates() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let ok = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };

        // GET with an encoded query.
        let page = ok(&request("GET", "/query?q=find%20fields&limit=2", b""));
        assert_eq!(page.status, 200);
        let text = String::from_utf8(page.body.to_vec()).unwrap();
        assert!(text.contains("\"query\":\"find fields\""), "{text}");
        assert!(text.contains("\"count\":2"), "{text}");
        let cursor = text
            .split("\"next_cursor\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("auto has more than 2 fields");

        // Resuming with the cursor yields the next, different page.
        let next = ok(&request(
            "GET",
            &format!("/query?q=find%20fields&limit=2&cursor={cursor}"),
            b"",
        ));
        assert_eq!(next.status, 200);
        let next_text = String::from_utf8(next.body.to_vec()).unwrap();
        assert_ne!(text, next_text);

        // POST carries the query text verbatim in the body.
        let posted = ok(&request("POST", "/query", b"find fields where labeled"));
        assert_eq!(posted.status, 200);

        // Typed failures map to their statuses.
        assert_eq!(
            ok(&request("GET", "/query?q=find%20widgets", b"")).status,
            400
        );
        assert_eq!(ok(&request("GET", "/query", b"")).status, 400);
        assert_eq!(
            ok(&request("GET", "/query?q=find%20fields&limit=0", b"")).status,
            400
        );
        assert_eq!(
            ok(&request("GET", "/query?q=find%20fields&budget=1", b"")).status,
            422
        );
        assert_eq!(
            ok(&request("GET", "/query?q=find%20fields&cursor=zz", b"")).status,
            400
        );

        // A cursor outlives the artifact version it was cut from: 410.
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        assert_eq!(
            ok(&request(
                "GET",
                &format!("/query?q=find%20fields&limit=2&cursor={cursor}"),
                b"",
            ))
            .status,
            410
        );
    }

    #[test]
    fn query_endpoint_caches_cursorless_gets() {
        let store = auto_store();
        let telemetry = Telemetry::new();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let ok = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };

        let first = ok(&request("GET", "/query?q=find%20fields", b""));
        assert_eq!(first.status, 200);
        let etag = first
            .extra_headers
            .iter()
            .find(|(name, _)| *name == "etag")
            .map(|(_, value)| value.clone())
            .expect("cached query responses carry an etag");
        let again = ok(&request("GET", "/query?q=find%20fields", b""));
        assert_eq!(*first.body, *again.body);
        let snapshot = telemetry.snapshot();
        let hits = snapshot
            .counters
            .get("serve.cache.hits")
            .copied()
            .unwrap_or(0);
        assert!(hits >= 1, "repeat query must hit the rendered cache");

        // Revalidation with the entry's own ETag comes back 304.
        let mut revalidate = request("GET", "/query?q=find%20fields", b"");
        revalidate.headers.push(("if-none-match".to_string(), etag));
        let not_modified = ok(&revalidate);
        assert_eq!(not_modified.status, 304);
        assert!(not_modified.body.is_empty());
    }

    #[test]
    fn query_pages_stay_bounded_within_one_generation() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let ok = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };
        // Twice over more distinct (query, limit) keys than the cap:
        // the second pass hits what the first left and re-renders the
        // rest, and no ingest ever starts a new corpus.
        let distinct = 2 * crate::store::QUERY_PAGE_CAP as u64 + 8;
        for _ in 0..2 {
            for limit in 1..=distinct {
                let text = ["find fields", "find groups"][limit as usize % 2];
                let path = format!("/query?q={}&limit={limit}", text.replace(' ', "%20"));
                let cached = ok(&request("GET", &path, b""));
                let uncached = ok(&request(
                    "POST",
                    &format!("/query?limit={limit}"),
                    text.as_bytes(),
                ));
                assert_eq!(cached.status, 200);
                assert_eq!(*cached.body, *uncached.body, "{path}");
                let entries = store.corpus().queries.stats().entries;
                assert!(
                    entries <= crate::store::QUERY_PAGE_CAP,
                    "{entries} query pages after {path}"
                );
            }
        }
        assert_eq!(store.corpus().generation, 0);
    }

    #[test]
    fn explain_pagination_rides_the_cursor_machinery() {
        let store = auto_store();
        let telemetry = Telemetry::off();
        let config = ServerConfig::default();
        let observe = Observe::off();
        let ok = |req: &Request| {
            handle_request(req, &store, &telemetry, &telemetry, &config, &observe, 0)
        };

        let full = ok(&request("GET", "/domains/auto/explain", b""));
        assert_eq!(full.status, 200);
        let full_text = String::from_utf8(full.body.to_vec()).unwrap();
        let total: usize = full_text
            .split("\"decisions\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .and_then(|n| n.parse().ok())
            .expect("explain reports its total");
        assert!(total > 2, "auto has several decisions");

        // Walk the stream two decisions at a time and count them.
        let mut seen = 0usize;
        let mut cursor: Option<String> = None;
        loop {
            let path = match &cursor {
                Some(c) => format!("/domains/auto/explain?limit=2&cursor={c}"),
                None => "/domains/auto/explain?limit=2".to_string(),
            };
            let page = ok(&request("GET", &path, b""));
            assert_eq!(page.status, 200);
            let text = String::from_utf8(page.body.to_vec()).unwrap();
            let count: usize = text
                .split("\"count\":")
                .nth(1)
                .and_then(|rest| rest.split(&[',', '}'][..]).next())
                .and_then(|n| n.parse().ok())
                .unwrap();
            assert!(count <= 2);
            seen += count;
            match text
                .split("\"next_cursor\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
            {
                Some(next) => cursor = Some(next.to_string()),
                None => break,
            }
        }
        assert_eq!(seen, total, "paged explain covers every decision");

        // A query cursor pasted into explain is rejected.
        let q = ok(&request("GET", "/query?q=find%20fields&limit=1", b""));
        let q_text = String::from_utf8(q.body.to_vec()).unwrap();
        let q_cursor = q_text
            .split("\"next_cursor\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap();
        assert_eq!(
            ok(&request(
                "GET",
                &format!("/domains/auto/explain?cursor={q_cursor}"),
                b"",
            ))
            .status,
            400
        );

        // Re-labeling the domain invalidates outstanding explain cursors.
        let page = ok(&request("GET", "/domains/auto/explain?limit=1", b""));
        let text = String::from_utf8(page.body.to_vec()).unwrap();
        let stale = text
            .split("\"next_cursor\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap()
            .to_string();
        let extra = qi_schema::text_format::parse("interface extra\n- Make\n").unwrap();
        store.ingest("auto", extra).unwrap();
        assert_eq!(
            ok(&request(
                "GET",
                &format!("/domains/auto/explain?cursor={stale}"),
                b"",
            ))
            .status,
            410
        );
    }
}
