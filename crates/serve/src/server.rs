//! The TCP front-end: accept loop, the reactor event loop, and routing.
//!
//! Endpoints:
//!
//! | method | path        | body                | response |
//! |--------|-------------|---------------------|----------|
//! | GET    | `/healthz`  | —                   | `{"status": "ok"}` |
//! | GET    | `/metrics`  | —                   | counters + latency histogram |
//! | GET    | `/metrics.json` | —               | the full `sigcomp_obs` registry snapshot |
//! | POST   | `/simulate` | one job spec        | that job's metrics (batched + deduplicated) |
//! | POST   | `/sweep`    | a sweep spec        | poll ticket, or the full result with `"sync": true` |
//! | GET    | `/jobs/:id` | —                   | sweep ticket state / result |
//! | POST   | `/register` | fleet announcement  | worker joins the frontier's pool |
//! | POST   | `/heartbeat`| announcement + obs  | liveness refresh + worker obs snapshot |
//! | POST   | `/fleet/dispatch` | a job shard   | `sigcomp-fleet v1` report (cache entries + obs) |
//! | GET    | `/fleet`    | —                   | worker-pool status + merged worker obs |
//!
//! Connections are served by the nonblocking [`crate::reactor`], the one
//! connection model: a fixed worker pool drives per-connection state
//! machines with HTTP/1.1 keep-alive (for clients that ask for it),
//! pipelining, read/write deadlines, and an accept-gate connection cap.
//! Cheap routes (health, metrics, fleet registration, ticket polls, and
//! memoized `/simulate` hits) are answered inline on the event-loop worker;
//! simulation-bound routes are offloaded to a small dispatch pool so the
//! event loop never blocks — the real work stays serialized through the
//! [`Batcher`]'s dispatcher.

use crate::api::{job_spec_from_json, simulate_response, sweep_result_json, sweep_spec_from_json};
use crate::batch::{BatchConfig, Batcher, SubmitError};
use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::reactor::{Completion, Handler, Reactor, ReactorConfig};
use crate::registry::{SweepRegistry, SweepState};
use sigcomp::ProcessNode;
use sigcomp_explore::{encode_report, parse_dispatch, JobOutcome, JobSpec, TraceSource};
use sigcomp_fabric::pool::{self, DEFAULT_LIVENESS_TTL};
use sigcomp_fabric::proto;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default size of the reactor's dispatch pool — the threads that run
/// simulation-bound routes (`/simulate` misses, sync `/sweep`,
/// `/fleet/dispatch`) so the event loop never blocks.
const DEFAULT_DISPATCH_THREADS: usize = 16;

/// Server configuration. Zero-valued fields select the documented
/// defaults.
#[derive(Debug, Default)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (port `0` picks a free port).
    /// Empty string defaults to `127.0.0.1:7878`.
    pub addr: String,
    /// Batching scheduler tuning, including the shared on-disk result
    /// cache ([`BatchConfig::disk_cache`] — also consulted and filled by
    /// CLI sweeps pointed at the same directory) and the execution backend
    /// ([`BatchConfig::backend`]).
    pub batch: BatchConfig,
    /// Finished `/sweep` tickets retained for `GET /jobs/:id` polling
    /// before oldest-first eviction
    /// (0 = [`crate::registry::MAX_FINISHED_TICKETS`]).
    pub finished_tickets: usize,
    /// Reactor connection cap; above it new connections are shed with a
    /// fast `503` + `Retry-After`
    /// (0 = [`crate::reactor::DEFAULT_MAX_CONNS`]).
    pub max_conns: usize,
    /// Reactor per-connection read deadline: a partial request older than
    /// this is answered `408` and closed
    /// (zero = [`crate::reactor::DEFAULT_READ_DEADLINE`]).
    pub read_deadline: Duration,
    /// Reactor event-loop worker threads (0 = min(parallelism, 4)).
    pub reactor_workers: usize,
    /// Dispatch-pool threads for simulation-bound routes
    /// (0 = [`DEFAULT_DISPATCH_THREADS`]).
    pub dispatch_threads: usize,
}

/// Everything the request handlers share.
#[derive(Debug)]
struct Ctx {
    batcher: Batcher,
    registry: SweepRegistry,
    metrics: Arc<ServerMetrics>,
    started: Instant,
}

/// A bound (but not yet running) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    reactor_config: ReactorConfig,
    dispatch_threads: usize,
}

impl Server {
    /// Binds the listen socket and starts the batching dispatcher.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, ...).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let addr: &str = if config.addr.is_empty() {
            "127.0.0.1:7878"
        } else {
            &config.addr
        };
        let listener = TcpListener::bind(addr)?;
        // Make the Fleet backend runnable in-process: explore's backend
        // enum can name it, but only the fabric crate knows how to run it.
        // Installing here means any server (frontier or worker) can also
        // act as a fleet client of further workers.
        sigcomp_fabric::install();
        let metrics = Arc::new(ServerMetrics::default());
        // Alias the latency histogram into the process-wide observability
        // registry so GET /metrics.json exports it alongside the explore
        // counters. Only bound servers register — standalone ServerMetrics
        // (unit tests) stay isolated.
        metrics.register_global();
        let registry = if config.finished_tickets == 0 {
            SweepRegistry::default()
        } else {
            SweepRegistry::with_capacity(config.finished_tickets)
        };
        let ctx = Arc::new(Ctx {
            batcher: Batcher::new(config.batch, Arc::clone(&metrics)),
            registry,
            metrics,
            started: Instant::now(),
        });
        Ok(Server {
            listener,
            ctx,
            reactor_config: ReactorConfig {
                workers: config.reactor_workers,
                max_conns: config.max_conns,
                read_deadline: config.read_deadline,
                write_deadline: Duration::ZERO,
            },
            dispatch_threads: if config.dispatch_threads == 0 {
                DEFAULT_DISPATCH_THREADS
            } else {
                config.dispatch_threads
            },
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address, which cannot happen for a
    /// bound listener.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener is bound")
    }

    /// Runs the serve loop on the calling thread, forever (the CLI entry
    /// point).
    ///
    /// # Errors
    ///
    /// Returns only on a fatal listener error.
    pub fn run(self) -> io::Result<()> {
        let never = Arc::new(AtomicBool::new(false));
        self.serve(&never)
    }

    /// Runs the serve loop on a background thread and returns a handle that
    /// can stop it — the embedding used by tests and the load-generator
    /// example.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("sigcomp-serve-accept".into())
                .spawn(move || self.serve(&stop))
                .expect("spawning the accept thread")
        };
        ServerHandle {
            addr,
            stop,
            thread: Some(thread),
        }
    }

    fn serve(self, stop: &Arc<AtomicBool>) -> io::Result<()> {
        let pool = DispatchPool::start(Arc::clone(&self.ctx), self.dispatch_threads);
        let handler: Arc<dyn Handler> = Arc::new(ServeHandler {
            ctx: Arc::clone(&self.ctx),
            pool: Arc::clone(&pool.queue),
        });
        let mut reactor =
            Reactor::start(&self.reactor_config, handler, Arc::clone(&self.ctx.metrics));
        let result = loop {
            let (stream, _) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            if stop.load(Ordering::SeqCst) {
                break Ok(());
            }
            reactor.accept(stream);
        };
        reactor.shutdown();
        pool.shutdown();
        result
    }
}

/// A running background server. Dropping the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serve loop and joins the server thread. In-flight
    /// dispatched requests finish on the dispatch pool's (detached)
    /// threads; open reactor connections are closed.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------------
// Reactor dispatch: inline fast paths + a bounded pool for blocking routes.

/// The work queue feeding the dispatch pool.
#[derive(Debug, Default)]
struct DispatchQueue {
    state: Mutex<DispatchState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct DispatchState {
    jobs: VecDeque<(Request, Completion)>,
    shutdown: bool,
}

impl DispatchQueue {
    fn push(&self, request: Request, completion: Completion) {
        let mut state = self.state.lock().expect("dispatch queue poisoned");
        if state.shutdown {
            completion.send(Response::error(503, "server is shutting down"));
            return;
        }
        state.jobs.push_back((request, completion));
        drop(state);
        self.ready.notify_one();
    }
}

/// A fixed pool of threads running the simulation-bound routes. Threads
/// are detached on shutdown: they finish their in-flight request and exit.
#[derive(Debug)]
struct DispatchPool {
    queue: Arc<DispatchQueue>,
}

impl DispatchPool {
    fn start(ctx: Arc<Ctx>, threads: usize) -> DispatchPool {
        let queue = Arc::new(DispatchQueue::default());
        for i in 0..threads.max(1) {
            let queue = Arc::clone(&queue);
            let ctx = Arc::clone(&ctx);
            let spawned = std::thread::Builder::new()
                .name(format!("sigcomp-serve-dispatch-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut state = queue.state.lock().expect("dispatch queue poisoned");
                        loop {
                            if let Some(job) = state.jobs.pop_front() {
                                break Some(job);
                            }
                            if state.shutdown {
                                break None;
                            }
                            state = queue.ready.wait(state).expect("dispatch queue poisoned");
                        }
                    };
                    let Some((request, completion)) = job else {
                        return;
                    };
                    completion.send(route(&ctx, &request));
                });
            if let Err(e) = spawned {
                eprintln!("sigcomp-serve: could not spawn a dispatch thread: {e}");
            }
        }
        DispatchPool { queue }
    }

    fn shutdown(self) {
        let mut state = self.queue.state.lock().expect("dispatch queue poisoned");
        state.shutdown = true;
        drop(state);
        self.queue.ready.notify_all();
    }
}

/// The reactor's request handler: answer cheap routes inline on the
/// event-loop worker, offload anything that can block on a simulation.
#[derive(Debug)]
struct ServeHandler {
    ctx: Arc<Ctx>,
    pool: Arc<DispatchQueue>,
}

impl Handler for ServeHandler {
    fn handle(&self, request: Request, completion: Completion) {
        match fast_route(&self.ctx, &request) {
            Some(response) => completion.send(response),
            None => self.pool.push(request, completion),
        }
    }
}

/// Routes that never block: answered inline on the reactor worker.
/// `None` means "this can block — dispatch it".
fn fast_route(ctx: &Arc<Ctx>, request: &Request) -> Option<Response> {
    match (request.method.as_str(), request.path.as_str()) {
        // A memoized /simulate is the hot path at saturation: answer it
        // without leaving the event loop. Parse failures are also final —
        // no reason to burn a dispatch thread on them.
        ("POST", "/simulate") => match parse_body(request) {
            Ok(doc) => match job_spec_from_json(&doc) {
                Ok((spec, node)) => ctx
                    .batcher
                    .try_memo(spec)
                    .map(|result| Response::json(200, simulate_response(&spec, &result, node))),
                Err(message) => Some(Response::error(400, &message)),
            },
            Err(response) => Some(response),
        },
        // Sync sweeps and fleet dispatches block on the batcher; async
        // sweeps spawn a thread — all pool work.
        ("POST", "/sweep" | "/fleet/dispatch") => None,
        // Everything else — health, metrics, fleet registration,
        // heartbeats, ticket polls, 404/405 — is a lock-light lookup.
        _ => Some(route(ctx, request)),
    }
}

/// Maps one request to one response. Pure routing — no socket I/O — so the
/// whole surface is unit-testable without a listener.
fn route(ctx: &Arc<Ctx>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\": \"ok\"}\n"),
        ("GET", "/metrics") => Response::json(
            200,
            ctx.metrics.to_json(
                ctx.batcher.queue_depth(),
                ctx.batcher.memo_len(),
                ctx.started.elapsed(),
                &sigcomp_explore::cache_stats(),
                &pool::global().to_json(DEFAULT_LIVENESS_TTL),
            ),
        ),
        // The full observability registry — every counter, gauge, and
        // histogram in the process (explore's cache/replay metrics
        // included), in sigcomp_obs::Snapshot::to_json form.
        ("GET", "/metrics.json") => Response::json(200, sigcomp_obs::global().snapshot().to_json()),
        ("POST", "/simulate") => match parse_body(request) {
            Ok(doc) => match job_spec_from_json(&doc) {
                Ok((spec, node)) => match ctx.batcher.submit(spec) {
                    Ok(result) => Response::json(200, simulate_response(&spec, &result, node)),
                    Err(e) => submit_error_response(ctx, e),
                },
                Err(message) => Response::error(400, &message),
            },
            Err(response) => response,
        },
        ("POST", "/sweep") => match parse_body(request) {
            Ok(doc) => match sweep_spec_from_json(&doc) {
                Ok((spec, sync)) => handle_sweep(ctx, &spec, sync),
                Err(message) => Response::error(400, &message),
            },
            Err(response) => response,
        },
        ("POST", "/register") => match body_text(request) {
            Ok(text) => match proto::parse_register(text) {
                Ok((addr, capacity)) => {
                    pool::global().register(&addr, capacity);
                    Response::json(200, "{\"status\": \"ok\"}\n")
                }
                Err(message) => Response::error(400, &message),
            },
            Err(response) => response,
        },
        ("POST", "/heartbeat") => match body_text(request) {
            Ok(text) => match proto::parse_heartbeat(text) {
                Ok((addr, capacity, obs)) => {
                    pool::global().heartbeat(&addr, capacity, obs);
                    Response::json(200, "{\"status\": \"ok\"}\n")
                }
                Err(message) => Response::error(400, &message),
            },
            Err(response) => response,
        },
        ("POST", "/fleet/dispatch") => match body_text(request) {
            Ok(text) => match parse_dispatch(text) {
                Ok(jobs) => handle_fleet_dispatch(ctx, &jobs),
                Err(message) => Response::error(400, &message),
            },
            Err(response) => response,
        },
        ("GET", "/fleet") => Response::json(200, pool::global().to_json(DEFAULT_LIVENESS_TTL)),
        ("GET", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>() {
                Ok(id) => match ctx.registry.get(id) {
                    None => Response::error(404, &format!("no such job {id}")),
                    Some(SweepState::Running) => Response::json(200, "{\"status\": \"running\"}\n"),
                    Some(SweepState::Done(result)) => Response::json(200, result),
                    Some(SweepState::Failed(reason)) => Response::error(500, &reason),
                },
                Err(_) => Response::error(400, "job ids are decimal integers"),
            }
        }
        (
            _,
            "/healthz" | "/metrics" | "/metrics.json" | "/simulate" | "/sweep" | "/register"
            | "/heartbeat" | "/fleet/dispatch" | "/fleet",
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

fn handle_sweep(ctx: &Arc<Ctx>, spec: &sigcomp_explore::SweepSpec, sync: bool) -> Response {
    ServerMetrics::incr(&ctx.metrics.sweeps_submitted);
    let jobs = spec.enumerate();
    // The decoder guarantees a non-empty model axis (default paper-180nm).
    let node = spec.energy_model_axis()[0];
    if sync {
        return match run_sweep_through_batcher(ctx, &jobs, node) {
            Ok(body) => {
                ServerMetrics::incr(&ctx.metrics.sweeps_completed);
                Response::json(200, body)
            }
            Err(e) => {
                ServerMetrics::incr(&ctx.metrics.sweeps_failed);
                submit_error_response(ctx, e)
            }
        };
    }
    let id = ctx.registry.create();
    let ctx_for_job = Arc::clone(ctx);
    let spawned = std::thread::Builder::new()
        .name(format!("sigcomp-serve-sweep-{id}"))
        .spawn(
            move || match run_sweep_through_batcher(&ctx_for_job, &jobs, node) {
                Ok(body) => {
                    ServerMetrics::incr(&ctx_for_job.metrics.sweeps_completed);
                    ctx_for_job.registry.finish(id, body);
                }
                Err(e) => {
                    ServerMetrics::incr(&ctx_for_job.metrics.sweeps_failed);
                    ctx_for_job.registry.fail(id, e.to_string());
                }
            },
        );
    if spawned.is_err() {
        ServerMetrics::incr(&ctx.metrics.sweeps_failed);
        ctx.registry
            .fail(id, "could not spawn the sweep thread".into());
        return Response::error(500, "could not spawn the sweep thread");
    }
    Response::json(
        202,
        format!("{{\"job\": {id}, \"status\": \"running\", \"poll\": \"/jobs/{id}\"}}\n"),
    )
}

/// Runs `jobs` through the batcher (memo, dedup, disk cache and all),
/// answering in `jobs` order.
fn run_through_batcher(ctx: &Ctx, jobs: &[JobSpec]) -> Result<Vec<JobOutcome>, SubmitError> {
    let results = ctx.batcher.submit_many(jobs)?;
    Ok(jobs
        .iter()
        .zip(&results)
        .map(|(&spec, result)| JobOutcome {
            spec,
            metrics: result.metrics,
            from_cache: result.from_cache,
        })
        .collect())
}

fn run_sweep_through_batcher(
    ctx: &Arc<Ctx>,
    jobs: &[JobSpec],
    node: ProcessNode,
) -> Result<String, SubmitError> {
    Ok(sweep_result_json(&run_through_batcher(ctx, jobs)?, node))
}

/// Answers a frontier's job shard with the shared report: each job's
/// metrics as verbatim cache-entry text the frontier replicates into its
/// own store. Trace jobs are refused: the wire carries only their content
/// digest, and a server has no trace channel to resolve it.
fn handle_fleet_dispatch(ctx: &Arc<Ctx>, jobs: &[JobSpec]) -> Response {
    if let Some(job) = jobs
        .iter()
        .find(|j| matches!(j.source, TraceSource::File { .. }))
    {
        return Response::error(
            400,
            &format!(
                "job {:016x} is trace-sourced; the fleet protocol dispatches kernel jobs only",
                job.job_id()
            ),
        );
    }
    match run_through_batcher(ctx, jobs) {
        // The report is the sigcomp-fleet wire text, not JSON; the
        // frontier's parser reads the body and ignores Content-Type.
        Ok(outcomes) => Response::json(
            200,
            encode_report(&outcomes, &sigcomp_obs::global().snapshot()),
        ),
        Err(e) => submit_error_response(ctx, e),
    }
}

fn submit_error_response(ctx: &Ctx, e: SubmitError) -> Response {
    match e {
        SubmitError::ShuttingDown => Response::error(503, &e.to_string()),
        // Shed, don't stall: the queue is full, so tell the client when to
        // come back instead of tying up a dispatch thread. The hint
        // tracks the backlog actually queued ahead of the retry.
        SubmitError::Overloaded => {
            Response::error(503, &e.to_string()).with_retry_after(ctx.batcher.retry_after_hint())
        }
        SubmitError::SimulationFailed => Response::error(500, &e.to_string()),
    }
}

fn body_text(request: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "request body is not UTF-8"))
}

fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = body_text(request)?;
    Json::parse(text).map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ctx() -> Arc<Ctx> {
        let metrics = Arc::new(ServerMetrics::default());
        Arc::new(Ctx {
            batcher: Batcher::new(
                BatchConfig {
                    sim_workers: Some(1),
                    ..BatchConfig::default()
                },
                Arc::clone(&metrics),
            ),
            registry: SweepRegistry::default(),
            metrics,
            started: Instant::now(),
        })
    }

    fn get(ctx: &Arc<Ctx>, path: &str) -> Response {
        route(
            ctx,
            &Request {
                method: "GET".into(),
                path: path.into(),
                headers: Vec::new(),
                body: Vec::new(),
            },
        )
    }

    fn post(ctx: &Arc<Ctx>, path: &str, body: &str) -> Response {
        route(
            ctx,
            &Request {
                method: "POST".into(),
                path: path.into(),
                headers: Vec::new(),
                body: body.as_bytes().to_vec(),
            },
        )
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let ctx = test_ctx();
        assert_eq!(get(&ctx, "/healthz").status, 200);
        assert_eq!(get(&ctx, "/nope").status, 404);
        assert_eq!(post(&ctx, "/healthz", "").status, 405);
        assert_eq!(get(&ctx, "/register").status, 405);
        assert_eq!(get(&ctx, "/heartbeat").status, 405);
        assert_eq!(get(&ctx, "/fleet/dispatch").status, 405);
        assert_eq!(post(&ctx, "/fleet", "").status, 405);
        assert_eq!(get(&ctx, "/jobs/abc").status, 400);
        assert_eq!(get(&ctx, "/jobs/42").status, 404);
    }

    #[test]
    fn register_and_heartbeat_feed_the_worker_pool() {
        let ctx = test_ctx();
        // The pool is process-global; a unique address keeps this test
        // independent of anything else that touches it.
        let addr = "serve-route-test.invalid:19001";
        let r = post(&ctx, "/register", &proto::encode_register(addr, 4));
        assert_eq!(r.status, 200, "{}", r.body);
        let mut obs = sigcomp_obs::Snapshot::default();
        obs.parse_wire_line("counter route.test.beats 1").unwrap();
        let r = post(&ctx, "/heartbeat", &proto::encode_heartbeat(addr, 4, &obs));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(post(&ctx, "/register", "nonsense").status, 400);
        assert_eq!(post(&ctx, "/heartbeat", "nonsense").status, 400);
        let fleet = get(&ctx, "/fleet");
        assert_eq!(fleet.status, 200);
        let doc = Json::parse(&fleet.body).unwrap();
        let workers = doc.get("workers").and_then(Json::as_arr).unwrap();
        let me = workers
            .iter()
            .find(|w| w.get("addr").and_then(Json::as_str) == Some(addr))
            .expect("registered worker listed");
        assert_eq!(me.get("heartbeats").and_then(Json::as_u64), Some(1));
        assert_eq!(me.get("live").and_then(Json::as_bool), Some(true));
        // /metrics embeds the same pool document as its fleet section.
        let metrics = get(&ctx, "/metrics");
        assert_eq!(metrics.status, 200);
        let doc = Json::parse(&metrics.body).unwrap();
        assert!(doc.get("fleet").and_then(|f| f.get("workers")).is_some());
    }

    #[test]
    fn fleet_dispatch_round_trips_the_wire_protocol() {
        use sigcomp_explore::{encode_dispatch, parse_report};
        use std::collections::HashSet;
        let ctx = test_ctx();
        let spec = JobSpec {
            scheme: sigcomp::ExtScheme::ThreeBit,
            org: sigcomp_pipeline::OrgKind::ByteSerial,
            workload: sigcomp_workloads::suite_names()[0],
            size: sigcomp_workloads::WorkloadSize::Tiny,
            mem: sigcomp_explore::MemProfile::Paper,
            source: sigcomp_explore::TraceSource::Kernel,
        };
        let r = post(&ctx, "/fleet/dispatch", &encode_dispatch(&[spec]));
        assert_eq!(r.status, 200, "{}", r.body);
        let expected: HashSet<u64> = [spec.job_id()].into();
        let report = parse_report(&r.body, &expected).expect("verifiable report");
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.entries.len(), 1);
        assert_eq!(post(&ctx, "/fleet/dispatch", "garbage").status, 400);
        // The grammar carries trace jobs; this route refuses them by name.
        let trace = JobSpec {
            source: TraceSource::File { digest: 0xdead },
            ..spec
        };
        let r = post(&ctx, "/fleet/dispatch", &encode_dispatch(&[trace]));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("kernel jobs only"), "{}", r.body);
    }

    #[test]
    fn simulate_rejects_bad_bodies_cleanly() {
        let ctx = test_ctx();
        let r = post(&ctx, "/simulate", "{not json");
        assert_eq!(r.status, 400);
        assert!(r.body.contains("invalid JSON body"));
        let r = post(&ctx, "/simulate", "{\"workload\": \"nope\"}");
        assert_eq!(r.status, 400);
        assert!(r.body.contains("unknown workload"));
        let r = post(&ctx, "/sweep", "{\"orgs\": [42]}");
        assert_eq!(r.status, 400);
        assert!(r.body.contains("array of strings"));
        let r = post(
            &ctx,
            "/simulate",
            "{\"workload\": \"rawcaudio\", \"energy_model\": \"3nm\"}",
        );
        assert_eq!(r.status, 400);
        assert!(r.body.contains("unknown energy model"), "{}", r.body);
    }

    #[test]
    fn simulate_honors_the_requested_energy_model() {
        let ctx = test_ctx();
        let r = post(
            &ctx,
            "/simulate",
            "{\"workload\": \"rawcaudio\", \"size\": \"tiny\", \
             \"energy_model\": \"modern-7nm\"}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).unwrap();
        assert_eq!(
            doc.get("energy_model").and_then(Json::as_str),
            Some("modern-7nm")
        );
        assert!(doc.get("total_energy_saving").is_some(), "{}", r.body);
        assert!(doc.get("leakage_saving").is_some(), "{}", r.body);

        let r = post(
            &ctx,
            "/sweep",
            "{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \
             \"orgs\": [\"byte-serial\"], \"energy_model\": \"generic-45nm\", \
             \"sync\": true}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).unwrap();
        assert_eq!(
            doc.get("energy_model").and_then(Json::as_str),
            Some("generic-45nm")
        );
    }

    #[test]
    fn simulate_and_sync_sweep_round_trip() {
        let ctx = test_ctx();
        let r = post(
            &ctx,
            "/simulate",
            "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).unwrap();
        assert!(doc.get("cycles").and_then(Json::as_u64).unwrap() > 0);

        let r = post(
            &ctx,
            "/sweep",
            "{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \
             \"orgs\": [\"baseline32\", \"byte-serial\"], \"sync\": true}",
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let doc = Json::parse(&r.body).unwrap();
        assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn async_sweep_finishes_and_is_pollable() {
        let ctx = test_ctx();
        let r = post(
            &ctx,
            "/sweep",
            "{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \
             \"orgs\": [\"baseline32\"]}",
        );
        assert_eq!(r.status, 202, "{}", r.body);
        let id = Json::parse(&r.body)
            .unwrap()
            .get("job")
            .and_then(Json::as_u64)
            .unwrap();
        // Poll until the background sweep completes.
        let deadline = Instant::now() + Duration::from_mins(1);
        loop {
            let r = get(&ctx, &format!("/jobs/{id}"));
            assert_eq!(r.status, 200, "{}", r.body);
            let doc = Json::parse(&r.body).unwrap();
            match doc.get("status").and_then(Json::as_str) {
                Some("running") => {
                    assert!(Instant::now() < deadline, "sweep never finished");
                    std::thread::sleep(Duration::from_millis(20));
                }
                Some("done") => {
                    assert_eq!(doc.get("jobs").and_then(Json::as_u64), Some(1));
                    break;
                }
                other => panic!("unexpected status {other:?} in {}", r.body),
            }
        }
    }

    #[test]
    fn the_memo_fast_path_agrees_with_the_full_route() {
        let ctx = test_ctx();
        let body = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
        let request = Request {
            method: "POST".into(),
            path: "/simulate".into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        };
        // Cold: the fast path must miss (no memo entry yet) ...
        assert_eq!(fast_route(&ctx, &request), None);
        let cold = route(&ctx, &request);
        assert_eq!(cold.status, 200, "{}", cold.body);
        // ... warm: it must hit and answer byte-identically to what the
        // full route would say for the same (now memoized) repeat.
        let warm = route(&ctx, &request);
        let fast = fast_route(&ctx, &request).expect("memoized answer");
        assert_eq!(fast.status, 200);
        assert_eq!(fast.body, warm.body, "fast path must be bit-identical");
        assert!(fast.body.contains("\"from_cache\": true"), "{}", fast.body);
        // Decode errors are final inline answers, not pool work.
        let bad = Request {
            body: b"{not json".to_vec(),
            ..request.clone()
        };
        assert_eq!(fast_route(&ctx, &bad).map(|r| r.status), Some(400));
        // Sweeps always go to the pool.
        let sweep = Request {
            path: "/sweep".into(),
            ..request
        };
        assert_eq!(fast_route(&ctx, &sweep), None);
    }
}
