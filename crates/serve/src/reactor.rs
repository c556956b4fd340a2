//! The nonblocking reactor front door: an event loop over
//! `set_nonblocking` sockets with a fixed worker pool, HTTP/1.1 keep-alive
//! and pipelining, per-connection deadlines, and socket-layer admission
//! control.
//!
//! # Model
//!
//! A [`Reactor`] owns N worker threads. Accepted connections are admitted
//! through a connection cap (at the cap: fast `503` + `Retry-After`, the
//! batch queue's shed discipline extended to the socket layer) and assigned
//! round-robin. Each worker owns its connections outright — no cross-worker
//! locking on the request path — and drives every connection through a
//! small state machine:
//!
//! ```text
//! Reading ──parse──▶ Dispatched ──response──▶ Writing ──flush──▶ Reading (keep-alive)
//!    │                                            │
//!    └── deadline, partial bytes → 408 ───────────┴── close
//! ```
//!
//! *Reading* accumulates whatever fragments the kernel delivers into an
//! incremental [`RequestParser`] (requests may split at any byte boundary;
//! several pipelined requests may arrive in one read). *Dispatched* hands
//! the request to the [`Handler`] with a [`Completion`]; the handler either
//! answers inline (cheap routes) or completes later from its own threads
//! (simulation routes), waking the owning worker. *Writing* flushes the
//! response buffer as the socket drains. Pipelined requests are answered
//! strictly in order, one in flight at a time.
//!
//! Readiness without `epoll`: `std` exposes no portable readiness API, so
//! each worker polls its sockets with nonblocking reads and parks on a
//! condvar between passes — a brief spin for hot traffic, then
//! progressively longer parks bounded by the nearest connection deadline
//! (the timer-wheel role). New connections and handler completions notify
//! the condvar, so dispatch latency never waits out a park.
//!
//! Deadlines: a connection that sits past its read deadline with a partial
//! request buffered is answered `408 Request Timeout` and closed (slowloris
//! defense); an idle keep-alive connection with nothing buffered closes
//! silently. A stalled response write past the write deadline closes the
//! connection.
//!
//! Keep-alive is opt-in (`Connection: keep-alive` from the client): a
//! client that omits the header gets `Connection: close` and one request
//! per connection, so a client that reads responses to EOF still sees the
//! stream end.

use crate::http::{Request, RequestParser, Response};
use crate::metrics::ServerMetrics;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`ReactorConfig::max_conns`].
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Default [`ReactorConfig::read_deadline`]: generous for interactive
/// clients, hard enough that a slowloris costs one connection slot for ten
/// seconds, not forever.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// Default [`ReactorConfig::write_deadline`].
pub const DEFAULT_WRITE_DEADLINE: Duration = Duration::from_secs(10);

/// Socket read granularity per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reads drained from one socket per pass before yielding to the worker's
/// other connections — bounds how long one firehose peer can hog a worker.
const MAX_READS_PER_PASS: usize = 4;

/// Cap on coalesced (unflushed) response bytes per connection: past this,
/// flush before answering more pipelined requests, bounding memory when a
/// client pipelines far ahead of its reads.
const MAX_COALESCED_BYTES: usize = 256 * 1024;

/// No-progress passes spent spinning (`yield_now`) before parking at all —
/// keeps a hot request/response ping-pong at memory latency.
const SPIN_PASSES: u32 = 64;

/// First parking tier: short naps while traffic is merely pausing.
const SHORT_PARK: Duration = Duration::from_micros(50);

/// Second parking tier after [`LONG_PARK_AFTER`] idle passes: the quiescent
/// server burns ~200 wakeups/s per worker instead of 20k.
const LONG_PARK: Duration = Duration::from_millis(5);
const LONG_PARK_AFTER: u32 = 256;

/// Reactor tuning. Zero-valued fields select the documented defaults.
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {
    /// Event-loop worker threads (0 = min(available parallelism, 4)).
    pub workers: usize,
    /// Connection cap enforced at accept time; above it new connections are
    /// shed with a fast `503` + `Retry-After` (0 = [`DEFAULT_MAX_CONNS`]).
    pub max_conns: usize,
    /// How long a connection may take to deliver a complete request before
    /// the 408/close verdict (zero = [`DEFAULT_READ_DEADLINE`]).
    pub read_deadline: Duration,
    /// How long a response write may stall before the connection is dropped
    /// (zero = [`DEFAULT_WRITE_DEADLINE`]).
    pub write_deadline: Duration,
}

impl ReactorConfig {
    fn effective_workers(&self) -> usize {
        if self.workers != 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map_or(2, std::num::NonZeroUsize::get)
            .clamp(1, 4)
    }

    fn effective_max_conns(&self) -> usize {
        if self.max_conns == 0 {
            DEFAULT_MAX_CONNS
        } else {
            self.max_conns
        }
    }

    fn effective_read_deadline(&self) -> Duration {
        if self.read_deadline.is_zero() {
            DEFAULT_READ_DEADLINE
        } else {
            self.read_deadline
        }
    }

    fn effective_write_deadline(&self) -> Duration {
        if self.write_deadline.is_zero() {
            DEFAULT_WRITE_DEADLINE
        } else {
            self.write_deadline
        }
    }
}

/// What the reactor calls with each parsed request. Implementations either
/// answer inline (`completion.send(response)` before returning) or move the
/// [`Completion`] to another thread and answer later — the reactor worker
/// never blocks either way.
pub trait Handler: Send + Sync + 'static {
    /// Handle one request; `completion` must eventually receive the
    /// response (a dropped completion leaks the connection until its
    /// deadline — don't).
    fn handle(&self, request: Request, completion: Completion);
}

/// Where a dispatched request's response lands.
#[derive(Debug, Default)]
struct ResponseSlot {
    response: Mutex<Option<Response>>,
}

/// Wakes a specific reactor worker out of its park.
#[derive(Debug, Clone)]
struct Waker {
    shared: Arc<WorkerShared>,
}

impl Waker {
    fn wake(&self) {
        let mut inbox = self.shared.inbox.lock().expect("reactor inbox poisoned");
        inbox.notified = true;
        drop(inbox);
        self.shared.wake.notify_one();
    }
}

/// The write end of one request's response: filled exactly once, from any
/// thread; filling it wakes the connection's owning worker.
#[derive(Debug)]
pub struct Completion {
    slot: Arc<ResponseSlot>,
    waker: Waker,
}

impl Completion {
    /// Delivers the response for the request this completion was issued
    /// for. Consumes the completion — one request, one response.
    pub fn send(self, response: Response) {
        *self.slot.response.lock().expect("response slot poisoned") = Some(response);
        self.waker.wake();
    }
}

/// Mailbox shared between the acceptor and one worker.
#[derive(Debug, Default)]
struct WorkerShared {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct Inbox {
    conns: Vec<TcpStream>,
    notified: bool,
}

/// The running event loop: worker threads + the admission gate.
///
/// [`Reactor::accept`] feeds it connections (typically from a blocking
/// accept loop); [`Reactor::shutdown`] stops the workers and closes every
/// connection.
#[derive(Debug)]
pub struct Reactor {
    workers: Vec<Arc<WorkerShared>>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    max_conns: usize,
    next_worker: usize,
}

impl Reactor {
    /// Starts the worker pool. Connections arrive via [`Reactor::accept`].
    #[must_use]
    pub fn start(
        config: &ReactorConfig,
        handler: Arc<dyn Handler>,
        metrics: Arc<ServerMetrics>,
    ) -> Reactor {
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let mut threads = Vec::new();
        for i in 0..config.effective_workers() {
            let shared = Arc::new(WorkerShared::default());
            let mut worker = Worker {
                shared: Arc::clone(&shared),
                handler: Arc::clone(&handler),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                read_deadline: config.effective_read_deadline(),
                write_deadline: config.effective_write_deadline(),
                conns: Vec::new(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("sigcomp-reactor-{i}"))
                .spawn(move || worker.run())
                .expect("spawning a reactor worker");
            workers.push(shared);
            threads.push(thread);
        }
        Reactor {
            workers,
            threads,
            stop,
            metrics,
            max_conns: config.effective_max_conns(),
            next_worker: 0,
        }
    }

    /// Admits one accepted connection: at the connection cap it is shed
    /// with a fast `503` + `Retry-After: 1` and closed; below the cap it is
    /// switched to nonblocking and handed to the next worker round-robin.
    pub fn accept(&mut self, stream: TcpStream) {
        let open = self.metrics.conns_open.fetch_add(1, Ordering::Relaxed);
        if open as usize >= self.max_conns {
            self.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
            ServerMetrics::incr(&self.metrics.conns_shed);
            // Best-effort shed notice on the still-blocking socket; a fresh
            // socket's send buffer is empty, so this cannot stall the
            // acceptor meaningfully.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let mut stream = stream;
            let _ = stream.write_all(&Response::connection_cap(1).to_bytes(false));
            return;
        }
        ServerMetrics::incr(&self.metrics.conns_accepted);
        if stream.set_nonblocking(true).is_err() {
            self.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let _ = stream.set_nodelay(true);
        let shared = &self.workers[self.next_worker % self.workers.len()];
        self.next_worker = self.next_worker.wrapping_add(1);
        {
            let mut inbox = shared.inbox.lock().expect("reactor inbox poisoned");
            inbox.conns.push(stream);
            inbox.notified = true;
        }
        shared.wake.notify_one();
    }

    /// Stops every worker, closing all connections, and joins the threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for shared in &self.workers {
            let mut inbox = shared.inbox.lock().expect("reactor inbox poisoned");
            inbox.notified = true;
            drop(inbox);
            shared.wake.notify_one();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state machine phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Accumulating request bytes (includes parsing: every read drains the
    /// parser immediately).
    Reading,
    /// A request is with the handler; waiting for its [`Completion`].
    Dispatched,
    /// Flushing a serialized response.
    Writing,
}

/// What advancing a connection decided about its future.
enum Fate {
    Keep,
    Close,
}

struct Conn {
    stream: TcpStream,
    state: State,
    parser: RequestParser,
    /// Parsed-but-unanswered pipelined requests, served strictly in order.
    pending: VecDeque<Request>,
    /// Deferred parse error: emitted (then close) only after every request
    /// parsed *before* the framing broke has been answered.
    parse_error: Option<Response>,
    slot: Option<Arc<ResponseSlot>>,
    out: Vec<u8>,
    written: usize,
    /// Whether the connection stays open after the current response.
    keep_alive_after_write: bool,
    /// Keep-alive decision for the currently dispatched request.
    cur_keep_alive: bool,
    /// Peer sent EOF; close once the pipeline drains.
    eof: bool,
    deadline: Instant,
    req_started: Instant,
    /// Responses fully served on this connection.
    served: u64,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant, read_deadline: Duration) -> Conn {
        Conn {
            stream,
            state: State::Reading,
            parser: RequestParser::new(),
            pending: VecDeque::new(),
            parse_error: None,
            slot: None,
            out: Vec::new(),
            written: 0,
            keep_alive_after_write: false,
            cur_keep_alive: false,
            eof: false,
            deadline: now + read_deadline,
            req_started: now,
            served: 0,
        }
    }
}

struct Worker {
    shared: Arc<WorkerShared>,
    handler: Arc<dyn Handler>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    read_deadline: Duration,
    write_deadline: Duration,
    conns: Vec<Conn>,
}

impl Worker {
    fn run(&mut self) {
        let mut idle_passes: u32 = 0;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                let dropped = self.conns.len() as u64;
                self.conns.clear();
                self.metrics
                    .conns_open
                    .fetch_sub(dropped, Ordering::Relaxed);
                return;
            }
            self.drain_inbox();
            let now = Instant::now();
            let mut progress = false;
            let mut i = 0;
            while i < self.conns.len() {
                let (made_progress, fate) = self.advance(i, now);
                progress |= made_progress;
                match fate {
                    Fate::Keep => i += 1,
                    Fate::Close => {
                        self.conns.swap_remove(i);
                        self.metrics.conns_open.fetch_sub(1, Ordering::Relaxed);
                        progress = true;
                    }
                }
            }
            if progress {
                idle_passes = 0;
                continue;
            }
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes < SPIN_PASSES {
                std::thread::yield_now();
                continue;
            }
            let park = if idle_passes < LONG_PARK_AFTER {
                SHORT_PARK
            } else {
                LONG_PARK
            };
            // The timer-wheel bound: never park past the nearest deadline.
            let now = Instant::now();
            let until_deadline = self
                .conns
                .iter()
                .filter(|c| c.state != State::Dispatched)
                .map(|c| c.deadline.saturating_duration_since(now))
                .min();
            let timeout =
                until_deadline.map_or(park, |d| d.min(park).max(Duration::from_micros(10)));
            let mut inbox = self.shared.inbox.lock().expect("reactor inbox poisoned");
            if !inbox.notified {
                let (guard, _) = self
                    .shared
                    .wake
                    .wait_timeout(inbox, timeout)
                    .expect("reactor inbox poisoned");
                inbox = guard;
            }
            inbox.notified = false;
        }
    }

    fn drain_inbox(&mut self) {
        let mut fresh = {
            let mut inbox = self.shared.inbox.lock().expect("reactor inbox poisoned");
            std::mem::take(&mut inbox.conns)
        };
        if fresh.is_empty() {
            return;
        }
        let now = Instant::now();
        for stream in fresh.drain(..) {
            self.conns.push(Conn::new(stream, now, self.read_deadline));
        }
    }

    /// Runs one connection's state machine as far as it will go without
    /// blocking. Returns whether any progress happened and the
    /// connection's fate.
    fn advance(&mut self, idx: usize, now: Instant) -> (bool, Fate) {
        let mut progress = false;
        loop {
            let state = self.conns[idx].state;
            let step = match state {
                State::Reading => self.step_read(idx, now),
                State::Dispatched => self.step_dispatched(idx, now),
                State::Writing => self.step_write(idx, now),
            };
            match step {
                Step::Progress => progress = true,
                Step::Stuck => return (progress, Fate::Keep),
                Step::Close => return (true, Fate::Close),
            }
        }
    }

    /// Reading: drain the socket into the parser, the parser into the
    /// pending queue, and dispatch the next request if one is ready.
    fn step_read(&mut self, idx: usize, now: Instant) -> Step {
        let conn = &mut self.conns[idx];
        let mut buf = [0u8; READ_CHUNK];
        let mut read_any = false;
        if !conn.eof {
            for _ in 0..MAX_READS_PER_PASS {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.push(&buf[..n]);
                        read_any = true;
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return Step::Close,
                }
            }
        }
        if read_any {
            // Fresh bytes on an idle connection restart the request clock.
            conn.deadline = now + self.read_deadline;
        }
        // Drain complete requests (possibly several, pipelined).
        if conn.parse_error.is_none() {
            loop {
                match conn.parser.next_request() {
                    Ok(Some(request)) => conn.pending.push_back(request),
                    Ok(None) => break,
                    Err(e) => {
                        conn.parse_error = Some(Response::error(e.status(), &e.to_string()));
                        break;
                    }
                }
            }
        }
        if let Some(request) = conn.pending.pop_front() {
            return self.dispatch(idx, request, now);
        }
        let conn = &mut self.conns[idx];
        if let Some(error) = conn.parse_error.take() {
            return self.queue_response(idx, &error, false, now);
        }
        if conn.eof {
            if conn.parser.buffered() == 0 {
                // Clean close between requests: nothing to answer.
                return Step::Close;
            }
            // Truncated mid-request: name what broke, then close.
            let error = conn.parser.closed();
            let response = Response::error(error.status(), &error.to_string());
            return self.queue_response(idx, &response, false, now);
        }
        if now >= conn.deadline {
            if conn.parser.buffered() == 0 {
                // Idle keep-alive (or silent) connection: close without
                // ceremony — there is no request to answer.
                return Step::Close;
            }
            // The slowloris shape: bytes trickled in but no complete
            // request by the deadline.
            ServerMetrics::incr(&self.metrics.request_timeouts);
            return self.queue_response(idx, &Response::request_timeout(), false, now);
        }
        if read_any {
            Step::Progress
        } else {
            Step::Stuck
        }
    }

    /// Hands one request to the handler and parks the connection in
    /// `Dispatched` until the completion lands.
    fn dispatch(&mut self, idx: usize, request: Request, now: Instant) -> Step {
        let conn = &mut self.conns[idx];
        if conn.served > 0 {
            ServerMetrics::incr(&self.metrics.keepalive_reuses);
        }
        conn.cur_keep_alive = request.wants_keep_alive();
        conn.req_started = now;
        let slot = Arc::new(ResponseSlot::default());
        conn.slot = Some(Arc::clone(&slot));
        conn.state = State::Dispatched;
        let completion = Completion {
            slot,
            waker: Waker {
                shared: Arc::clone(&self.shared),
            },
        };
        self.handler.handle(request, completion);
        Step::Progress
    }

    /// Dispatched: poll the completion slot; no deadline — simulations may
    /// legitimately take a long time.
    fn step_dispatched(&mut self, idx: usize, now: Instant) -> Step {
        let response = {
            let conn = &self.conns[idx];
            let slot = conn.slot.as_ref().expect("dispatched without a slot");
            slot.response.lock().expect("response slot poisoned").take()
        };
        let Some(response) = response else {
            // While a slow handler runs, flush any pipelined responses
            // already queued so earlier requests are not held hostage.
            return self.flush_best_effort(idx);
        };
        let keep_alive = {
            let conn = &mut self.conns[idx];
            conn.slot = None;
            conn.cur_keep_alive && !conn.eof
        };
        self.queue_response(idx, &response, keep_alive, now)
    }

    /// Best-effort flush of coalesced output while the connection is
    /// otherwise parked (e.g. waiting on a slow dispatched handler).
    /// Never blocks; `WouldBlock` just leaves the rest for later.
    fn flush_best_effort(&mut self, idx: usize) -> Step {
        let conn = &mut self.conns[idx];
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return Step::Close,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
        if conn.written == conn.out.len() && !conn.out.is_empty() {
            conn.out.clear();
            conn.written = 0;
        }
        Step::Stuck
    }

    /// Serializes a response into the connection's output buffer. The
    /// buffer *appends*: pipelined responses coalesce and flush together in
    /// [`Worker::step_write`] — one syscall (and, with `TCP_NODELAY`, one
    /// packet) for a whole batch instead of one per response. Latency is
    /// observed here, when the response is ready, so coalesced responses
    /// are each charged their own handling time.
    fn queue_response(
        &mut self,
        idx: usize,
        response: &Response,
        keep_alive: bool,
        now: Instant,
    ) -> Step {
        ServerMetrics::incr(&self.metrics.http_requests);
        match response.status {
            200..=299 => ServerMetrics::incr(&self.metrics.http_2xx),
            400..=499 => ServerMetrics::incr(&self.metrics.http_4xx),
            _ => ServerMetrics::incr(&self.metrics.http_5xx),
        }
        let conn = &mut self.conns[idx];
        conn.out.extend_from_slice(&response.to_bytes(keep_alive));
        conn.keep_alive_after_write = keep_alive;
        conn.deadline = now + self.write_deadline;
        conn.state = State::Writing;
        self.metrics.observe_latency(conn.req_started.elapsed());
        conn.served += 1;
        Step::Progress
    }

    /// Writing: answer every already-parsed pipelined request first (their
    /// responses coalesce into the output buffer), then flush as much as
    /// the socket accepts.
    fn step_write(&mut self, idx: usize, now: Instant) -> Step {
        {
            let conn = &mut self.conns[idx];
            if conn.keep_alive_after_write && !conn.eof && conn.out.len() < MAX_COALESCED_BYTES {
                if let Some(request) = conn.pending.pop_front() {
                    return self.dispatch(idx, request, now);
                }
            }
        }
        let conn = &mut self.conns[idx];
        while conn.written < conn.out.len() {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => return Step::Close,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if now >= conn.deadline {
                        ServerMetrics::incr(&self.metrics.write_timeouts);
                        return Step::Close;
                    }
                    return Step::Stuck;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
        let _ = conn.stream.flush();
        conn.out.clear();
        conn.written = 0;
        if !conn.keep_alive_after_write {
            return Step::Close;
        }
        conn.state = State::Reading;
        conn.deadline = now + self.read_deadline;
        Step::Progress
    }
}

enum Step {
    /// The state machine moved; run it again.
    Progress,
    /// Nothing to do until the socket or a completion wakes us.
    Stuck,
    /// The connection is done (or broken): drop it.
    Close,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::{TcpListener, TcpStream};

    /// A handler that answers every request inline with its path.
    struct Echo;
    impl Handler for Echo {
        fn handle(&self, request: Request, completion: Completion) {
            completion.send(Response::json(
                200,
                format!("{{\"path\": \"{}\"}}\n", request.path),
            ));
        }
    }

    /// Reads one Content-Length-framed response off a keep-alive stream.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn keep_alive_and_pipelining_serve_in_order_on_one_connection() {
        let config = ReactorConfig::default();
        let metrics = Arc::new(ServerMetrics::default());
        let mut reactor = Reactor::start(&config, Arc::new(Echo), Arc::clone(&metrics));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.accept(server_side);

        let mut writer = client.try_clone().unwrap();
        // Two pipelined requests in a single segment, then a third alone.
        writer
            .write_all(
                b"GET /a HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
                  GET /b HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
            )
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        assert_eq!(
            read_response(&mut reader),
            (200, "{\"path\": \"/a\"}\n".into())
        );
        assert_eq!(
            read_response(&mut reader),
            (200, "{\"path\": \"/b\"}\n".into())
        );
        writer
            .write_all(b"GET /c HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        assert_eq!(
            read_response(&mut reader),
            (200, "{\"path\": \"/c\"}\n".into())
        );
        assert_eq!(metrics.conns_accepted.load(Ordering::Relaxed), 1);
        assert!(metrics.keepalive_reuses.load(Ordering::Relaxed) >= 2);
        reactor.shutdown();
    }

    #[test]
    fn slow_partial_requests_get_408_and_a_close() {
        let config = ReactorConfig {
            read_deadline: Duration::from_millis(80),
            ..ReactorConfig::default()
        };
        let metrics = Arc::new(ServerMetrics::default());
        let mut reactor = Reactor::start(&config, Arc::new(Echo), Arc::clone(&metrics));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.accept(server_side);

        let mut writer = client.try_clone().unwrap();
        writer.write_all(b"GET /slow HTT").unwrap(); // never finishes
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 408, "{body}");
        // ... and the connection is closed afterwards.
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert_eq!(metrics.request_timeouts.load(Ordering::Relaxed), 1);
        reactor.shutdown();
    }

    #[test]
    fn connections_over_the_cap_are_shed_with_503() {
        let config = ReactorConfig {
            max_conns: 1,
            ..ReactorConfig::default()
        };
        let metrics = Arc::new(ServerMetrics::default());
        let mut reactor = Reactor::start(&config, Arc::new(Echo), Arc::clone(&metrics));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let held = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.accept(server_side);

        let shed = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        reactor.accept(server_side);
        let mut reader = BufReader::new(shed);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 503, "{body}");
        assert_eq!(metrics.conns_shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.conns_accepted.load(Ordering::Relaxed), 1);
        drop(held);
        reactor.shutdown();
    }
}
