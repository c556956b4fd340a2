//! `serve-mix`: an open-loop `POST /simulate` timetable against an
//! in-process reactor server on loopback, over 2 keep-alive connections.
//!
//! A repetition binds the server, dials both connections and warms the
//! memo with one synchronous `POST /sweep` over the *prime set* (set-up;
//! every job simulates, which also gives `sim_minst_per_s`). Then:
//!
//! 1. *warm* passes repeat that sweep, every job a memo hit
//!    (`warm_sweep_s`);
//! 2. two open-loop segments at the frozen rates [`RATE_LO`] and
//!    [`RATE_HI`]: most requests repeat a primed configuration and are
//!    answered inline by the reactor; one in [`MISS_EVERY`] is a first-touch
//!    configuration that goes through the batcher and simulates, stalling
//!    the requests pipelined behind it on its connection;
//! 3. the [`LADDER`] of rising offered rates of primed configurations only,
//!    stopping at the first step that misses the latency limit, fails a
//!    request or leaves a backlog;
//! 4. more warm passes.
//!
//! The timetable is computed up front from the seed. Each request is timed
//! from its scheduled send time, so a stall is charged to every request
//! queued behind it; the generator's own lateness is reported, and a
//! repetition whose generator fell behind is rejected.

use crate::pins;
use crate::trace::{span, Tracer};
use crate::util::{fnv, median, peak_rss_mb, quantile, secs, Rep};
use sigcomp::{ExtScheme, ProcessNode};
use sigcomp_explore::{
    try_run_jobs, JobMetrics, JobOutcome, JobSpec, MemProfile, SweepOptions, SweepSpec, TraceSource,
};
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::api::{job_spec_from_json, simulate_response, sweep_result_json};
use sigcomp_serve::{BatchConfig, BatchedResult, Json, RequestParser, ServeConfig, Server};
use sigcomp_workloads::{suite_names, SmallRng, WorkloadSize};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Connections (and generator threads) the load comes over.
const CONNECTIONS: usize = 2;

/// One request in this many is a first-touch configuration. Odd, so
/// consecutive misses land on alternating connections.
const MISS_EVERY: usize = 101;

/// The two frozen offered rates (requests per second): about ¼ and ¾ of the
/// `max_rps` first measured on a 2-CPU host (4 k/s).
const RATE_LO: f64 = 1_000.0;
const RATE_HI: f64 = 3_000.0;

/// Length of each open-loop segment: long enough for its first-touch
/// requests (23 and 30) to cover every kernel at both sizes at least once,
/// and short enough that a run holds many repetitions.
const SEGMENT_LO: Duration = Duration::from_millis(2_300);
const SEGMENT_HI: Duration = Duration::from_millis(1_000);

/// Offered rates of the `max_rps` ladder, and the length of each step.
const LADDER: [f64; 4] = [1_000.0, 2_000.0, 3_000.0, 4_000.0];
const LADDER_STEP: Duration = Duration::from_millis(500);

/// The latency limit a ladder step must meet at p99.
const P99_LIMIT_MS: f64 = 50.0;

/// Longest the last response of a step may trail its send time before the
/// step counts as leaving a growing backlog.
const DRAIN_LIMIT_MS: f64 = 50.0;

/// A repetition whose generator sent its p99 request later than this is
/// rejected: its latencies would understate the load it claims.
const LAG_LIMIT_MS: f64 = 10.0;

/// Warm passes per repetition, each [`WARM_COPIES`] pipelined `/sweep`
/// requests: one warm sweep answers in under 2 ms, too short to time alone.
const WARM_PASSES: usize = 20;
const WARM_COPIES: usize = 10;

/// Response polling interval of the generator while a request is
/// outstanding: fast for the first [`FAST_POLL_FOR`] after it was sent (a
/// memo hit answers well inside that), slow once it is clearly stalled
/// behind a simulation, so polling does not starve the server. Blocking
/// reads with a timeout would round these waits up to the kernel tick.
const POLL: Duration = Duration::from_micros(50);
const SLOW_POLL: Duration = Duration::from_micros(500);
const FAST_POLL_FOR: Duration = Duration::from_micros(500);

/// How long a segment waits for stragglers after its last send.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// The seed's inputs: the primed sweep (the same for every seed) and the
/// first-touch list.
struct Inputs {
    /// The `POST /sweep` body that primes the memo.
    prime_body: String,
    /// Its jobs, in the server's enumeration order.
    prime: Vec<JobSpec>,
    /// First-touch configurations, each requested at most once: they cycle
    /// through every kernel, alternating tiny and default size, with the
    /// organization rotating fastest, so the simulation work a segment's
    /// misses cost barely depends on the seed.
    fresh: Vec<JobSpec>,
}

fn inputs(seed: u64) -> Inputs {
    let v = pins::variant(seed) as usize;
    // The primed sweep is the same for every seed, so the cold `/sweep`
    // behind `sim_minst_per_s` does the same work in every run (its cost
    // per instruction depends on the configurations); the seed varies the
    // first-touch list and the request sequence.
    let scheme = ExtScheme::ALL[0];
    let mem = MemProfile::ALL[0];
    let orgs: Vec<OrgKind> = (0..4).map(|j| OrgKind::ALL[2 * j]).collect();
    let sizes = [WorkloadSize::Tiny, WorkloadSize::Default];
    let prime = SweepSpec::paper(WorkloadSize::Default)
        .schemes(&[scheme])
        .orgs(&orgs)
        .mems(&[mem])
        .sizes(&sizes)
        .enumerate();
    let list = |ids: Vec<&str>| {
        ids.iter()
            .map(|id| format!("\"{id}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let prime_body = format!(
        "{{\"schemes\": [{}], \"orgs\": [{}], \"mems\": [{}], \"sizes\": [{}], \"sync\": true}}",
        list(vec![scheme.id()]),
        list(orgs.iter().map(|o| o.id()).collect()),
        list(vec![mem.id()]),
        list(sizes.iter().map(|s| s.name()).collect()),
    );
    let per_kernel = OrgKind::ALL.len() * ExtScheme::ALL.len() * MemProfile::ALL.len();
    let mut fresh = Vec::new();
    for i in 0..per_kernel {
        for (k, &workload) in suite_names().iter().enumerate() {
            for size in sizes {
                let spec = JobSpec {
                    org: OrgKind::ALL[(i + k) % OrgKind::ALL.len()],
                    scheme: ExtScheme::ALL[(i / 7 + v) % ExtScheme::ALL.len()],
                    mem: MemProfile::ALL[(i / 21 + v) % MemProfile::ALL.len()],
                    workload,
                    size,
                    source: TraceSource::Kernel,
                };
                if !prime.contains(&spec) {
                    fresh.push(spec);
                }
            }
        }
    }
    Inputs {
        prime_body,
        prime,
        fresh,
    }
}

fn simulate_request(spec: &JobSpec) -> Vec<u8> {
    let body = format!(
        "{{\"workload\": \"{}\", \"size\": \"{}\", \"scheme\": \"{}\", \"org\": \"{}\", \"mem\": \"{}\"}}",
        spec.workload,
        spec.size.name(),
        spec.scheme.id(),
        spec.org.id(),
        spec.mem.id()
    );
    post("/simulate", &body)
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A scheduled request: which configuration, and when it is due (offset
/// from the segment start).
#[derive(Clone, Copy)]
struct Planned {
    spec: JobSpec,
    due: Duration,
}

/// Lays out an open-loop segment: `rate` requests per second, evenly
/// spaced, for `length`; with a first-touch cursor, every `MISS_EVERY`-th
/// request takes the next first-touch configuration; the rest are a seeded
/// pick from the prime set.
fn timetable(
    rate: f64,
    length: Duration,
    inputs: &Inputs,
    mut fresh_next: Option<&mut usize>,
    rng: &mut SmallRng,
) -> Vec<Planned> {
    let n = (rate * length.as_secs_f64()).round() as usize;
    (0..n)
        .map(|i| {
            let spec = if let Some(next) = fresh_next
                .as_deref_mut()
                .filter(|_| i % MISS_EVERY == MISS_EVERY / 2)
            {
                *next += 1;
                inputs.fresh[*next - 1]
            } else {
                inputs.prime[rng.gen_range(0..inputs.prime.len())]
            };
            Planned {
                spec,
                due: Duration::from_secs_f64(i as f64 / rate),
            }
        })
        .collect()
}

/// What happened to one request.
#[derive(Clone, Copy)]
struct Outcome {
    /// Milliseconds from the due time to the complete response; infinite
    /// for a failed, refused or timed-out request.
    latency_ms: f64,
    /// Milliseconds the generator sent it late.
    lag_ms: f64,
    ok: bool,
    /// Digest of the response body with `from_cache` cleared.
    digest: u64,
    /// Seconds from the segment start to the complete response.
    done_s: f64,
}

/// One nonblocking keep-alive connection with an incremental response
/// parser.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn dial(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Pops one complete response off the buffer: `(status, body)`.
    fn pop_response(&mut self) -> Option<(u16, Vec<u8>)> {
        let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = std::str::from_utf8(&self.buf[..head_end]).ok()?;
        let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return None;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Some((status, body))
    }

    /// Writes all of `bytes`, waiting out a full send buffer; `false` once
    /// the peer is gone.
    fn send(&mut self, mut bytes: &[u8]) -> bool {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return false,
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads whatever has arrived without blocking; `false` once the peer
    /// is gone.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Sends `request` `copies` times back to back and waits for every
    /// response: `(status, body)` each, in order.
    fn exchange(&mut self, request: &[u8], copies: usize) -> Option<Vec<(u16, String)>> {
        if !self.send(&request.repeat(copies)) {
            return None;
        }
        let deadline = Instant::now() + RESPONSE_TIMEOUT * 6;
        let mut responses = Vec::with_capacity(copies);
        loop {
            let alive = self.fill();
            while let Some((status, body)) = self.pop_response() {
                responses.push((status, String::from_utf8_lossy(&body).into_owned()));
            }
            if responses.len() >= copies {
                return Some(responses);
            }
            if !alive || Instant::now() > deadline {
                return None;
            }
            std::thread::sleep(POLL);
        }
    }
}

fn body_digest(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    fnv(text
        .replacen("\"from_cache\": true", "\"from_cache\": false", 1)
        .as_bytes())
}

/// Drives one connection's share of a timetable from `start`: sends each
/// request when due (never waiting for responses), reads responses in
/// order, and times each from its due time.
fn drive(conn: &mut Conn, plan: &[(usize, Planned)], start: Instant) -> Vec<(usize, Outcome)> {
    let mut out = Vec::with_capacity(plan.len());
    // (timetable index, due, lag, sent at), oldest first.
    let mut in_flight: VecDeque<(usize, Duration, f64, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut alive = true;
    let mut deadline = None;
    while out.len() < plan.len() {
        while alive && next < plan.len() && plan[next].1.due <= start.elapsed() {
            let (index, planned) = plan[next];
            let lag_ms = (start.elapsed() - planned.due).as_secs_f64() * 1e3;
            if !conn.send(&simulate_request(&planned.spec)) {
                alive = false;
                break;
            }
            in_flight.push_back((index, planned.due, lag_ms, Instant::now()));
            next += 1;
        }
        while let Some((status, body)) = conn.pop_response() {
            let Some((index, due, lag_ms, _)) = in_flight.pop_front() else {
                alive = false;
                break;
            };
            let done = start.elapsed();
            let ok = status == 200;
            out.push((
                index,
                Outcome {
                    latency_ms: if ok {
                        done.saturating_sub(due).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    },
                    lag_ms,
                    ok,
                    digest: if ok { body_digest(&body) } else { 0 },
                    done_s: done.as_secs_f64(),
                },
            ));
        }
        if next == plan.len() && deadline.is_none() {
            deadline = Some(start.elapsed() + RESPONSE_TIMEOUT);
        }
        if !alive || deadline.is_some_and(|d| start.elapsed() > d) {
            // Everything unanswered, or never sent, failed.
            let failed = Outcome {
                latency_ms: f64::INFINITY,
                lag_ms: 0.0,
                ok: false,
                digest: 0,
                done_s: start.elapsed().as_secs_f64(),
            };
            out.extend(in_flight.drain(..).map(|(i, ..)| (i, failed)));
            out.extend(plan[next..].iter().map(|&(i, _)| (i, failed)));
            break;
        }
        alive = conn.fill();
        let until_due = plan
            .get(next)
            .map_or(Duration::MAX, |p| p.1.due.saturating_sub(start.elapsed()));
        let nap = match in_flight.front() {
            None => until_due,
            Some(&(.., sent)) if sent.elapsed() < FAST_POLL_FOR => until_due.min(POLL),
            Some(_) => until_due.min(SLOW_POLL),
        };
        if !nap.is_zero() && nap != Duration::MAX {
            std::thread::sleep(nap);
        }
    }
    out
}

/// Runs a timetable over the connections (request `i` on connection
/// `i % CONNECTIONS`) and returns the outcomes in timetable order.
fn run_plan(conns: &mut [Conn], plan: &[Planned]) -> Vec<Outcome> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut shares: Vec<Vec<(usize, Planned)>> = vec![Vec::new(); conns.len()];
    for (i, &p) in plan.iter().enumerate() {
        shares[i % conns.len()].push((i, p));
    }
    let results: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&shares)
            .map(|(conn, share)| scope.spawn(move || drive(conn, share, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.len()];
    for (i, o) in results.into_iter().flatten() {
        outcomes[i] = Some(o);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("every planned request has an outcome"))
        .collect()
}

/// The achieved rate of a ladder step that met its limits — no failure,
/// p99 within [`P99_LIMIT_MS`], last answer within [`DRAIN_LIMIT_MS`] of the
/// last send — or `None`.
fn step_rps(plan: &[Planned], outcomes: &[Outcome]) -> Option<f64> {
    let latencies: Vec<f64> = outcomes.iter().map(|o| o.latency_ms).collect();
    let last_due = plan.last().map_or(0.0, |p| p.due.as_secs_f64());
    let last_done = outcomes.iter().map(|o| o.done_s).fold(0.0, f64::max);
    let met = outcomes.iter().all(|o| o.ok)
        && quantile(&latencies, 0.99) <= P99_LIMIT_MS
        && (last_done - last_due) * 1e3 <= DRAIN_LIMIT_MS;
    met.then(|| outcomes.len() as f64 / last_done.max(1e-9))
}

/// Checks every answered body of a configuration against the first one
/// seen for it (for primed configurations: against a local run).
fn check_bodies(
    rep: &mut Rep,
    expected: &mut HashMap<u64, u64>,
    plan: &[Planned],
    outcomes: &[Outcome],
) {
    for (p, o) in plan.iter().zip(outcomes) {
        if !o.ok {
            continue;
        }
        let first = *expected.entry(p.spec.job_id()).or_insert(o.digest);
        rep.check(first == o.digest, || {
            format!(
                "{}: a response body differs from the first one",
                p.spec.label()
            )
        });
    }
}

/// One `serve-mix` repetition.
pub fn rep(seed: u64, tracer: Option<&Tracer>) -> Rep {
    let mut rep = Rep::default();
    let inputs = inputs(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e77_e000_0000_0001);
    let mut fresh_next = 0;
    let lo_plan = timetable(
        RATE_LO,
        SEGMENT_LO,
        &inputs,
        Some(&mut fresh_next),
        &mut rng,
    );
    let hi_plan = timetable(
        RATE_HI,
        SEGMENT_HI,
        &inputs,
        Some(&mut fresh_next),
        &mut rng,
    );
    let segment_fresh = fresh_next;
    // The ladder repeats primed configurations only: it measures the front
    // door (reactor, parse, memo). With first-touch stalls in it, whether
    // its top step met the limit flipped with the host's speed.
    let ladder: Vec<Vec<Planned>> = LADDER
        .iter()
        .map(|&rate| timetable(rate, LADDER_STEP, &inputs, None, &mut rng))
        .collect();

    // The expected answers, from a local run of the same jobs.
    let local = try_run_jobs(&inputs.prime, &SweepOptions::with_workers(CONNECTIONS))
        .expect("local backend");
    let expected_sweep = |from_cache: bool| {
        let outcomes: Vec<JobOutcome> = local
            .outcomes
            .iter()
            .map(|o| JobOutcome {
                from_cache,
                ..o.clone()
            })
            .collect();
        sweep_result_json(&outcomes, ProcessNode::Paper180nm)
    };
    let mut expected: HashMap<u64, u64> = local
        .outcomes
        .iter()
        .map(|o| {
            let result = BatchedResult {
                metrics: o.metrics,
                from_cache: false,
            };
            let body = simulate_response(&o.spec, &result, ProcessNode::Paper180nm);
            (o.spec.job_id(), body_digest(body.as_bytes()))
        })
        .collect();

    // Set-up: bind, dial, and warm the memo with the prime sweep.
    let started = Instant::now();
    let setup = span(tracer, "setup", "rep");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            sim_workers: Some(CONNECTIONS),
            ..BatchConfig::default()
        },
        reactor_workers: CONNECTIONS,
        dispatch_threads: CONNECTIONS,
        ..ServeConfig::default()
    })
    .expect("loopback bind")
    .spawn();
    let addr = server.addr();
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::dial(addr).expect("loopback connect"))
        .collect();
    let sweep_request = post("/sweep", &inputs.prime_body);
    let cold_started = Instant::now();
    let cold = {
        let _span = span(tracer, "serve.sweep.cold", "setup");
        conns[0].exchange(&sweep_request, 1)
    };
    let cold_s = secs(cold_started);
    drop(setup);
    rep.set("setup_s", secs(started));
    rep.attempted += inputs.prime.len() as u64 * (1 + (WARM_PASSES * WARM_COPIES) as u64);
    let cold_ok = cold.as_deref().is_some_and(|r| {
        r.iter()
            .all(|(s, b)| *s == 200 && *b == expected_sweep(false))
    });
    rep.check(cold_ok, || {
        "the cold /sweep answer differs from a local run".to_owned()
    });

    // Warm: the same sweep, answered from the memo. Half the passes run
    // here and half after the ladder, so they sample the host across the
    // repetition as its speed probe does.
    let warm_expected = expected_sweep(true);
    let mut warm_s = Vec::new();
    let mut warm_passes = |rep: &mut Rep, conn: &mut Conn| {
        for _ in 0..WARM_PASSES / 2 {
            let t = Instant::now();
            let warm = {
                let _span = span(tracer, "serve.sweep.warm", "rep");
                conn.exchange(&sweep_request, WARM_COPIES)
            };
            warm_s.push(secs(t) / WARM_COPIES as f64);
            let ok = warm.is_some_and(|r| r.iter().all(|(s, b)| *s == 200 && *b == warm_expected));
            rep.check(ok, || {
                "a warm /sweep answer differs from a local run".to_owned()
            });
        }
    };
    warm_passes(&mut rep, &mut conns[0]);
    if !cold_ok {
        rep.failed += inputs.prime.len() as u64;
    }

    // The open-loop segments.
    let mut lags: Vec<f64> = Vec::new();
    for (tag, plan) in [("lo", &lo_plan), ("hi", &hi_plan)] {
        let outcomes = {
            let _span = span(tracer, &format!("serve.segment.{tag}"), "rep");
            run_plan(&mut conns, plan)
        };
        check_bodies(&mut rep, &mut expected, plan, &outcomes);
        rep.attempted += plan.len() as u64;
        rep.failed += outcomes.iter().filter(|o| !o.ok).count() as u64;
        rep.latencies
            .entry(tag.to_owned())
            .or_default()
            .extend(outcomes.iter().map(|o| o.latency_ms));
        lags.extend(outcomes.iter().map(|o| o.lag_ms));
    }
    let lag_p99_ms = quantile(&lags, 0.99);
    if lag_p99_ms > LAG_LIMIT_MS {
        rep.set(crate::REJECTED, 1.0);
        rep.check(false, || {
            format!("the load generator fell behind: p99 send lag {lag_p99_ms:.2} ms")
        });
    }

    // The ladder: the highest offered rate meeting the limit. Its requests
    // probe overload and are not counted as operations.
    let mut max_rps = 0.0;
    for plan in &ladder {
        let outcomes = {
            let _span = span(tracer, "serve.ladder.step", "rep");
            run_plan(&mut conns, plan)
        };
        check_bodies(&mut rep, &mut expected, plan, &outcomes);
        match step_rps(plan, &outcomes) {
            Some(rps) => max_rps = rps,
            None => break,
        }
    }
    warm_passes(&mut rep, &mut conns[0]);

    let server_metrics = Conn::dial(addr)
        .ok()
        .and_then(|mut c| c.exchange(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n", 1))
        .and_then(|r| r.into_iter().next())
        .and_then(|(status, body)| (status == 200).then(|| Json::parse(&body).ok())?);
    drop(conns);
    server.shutdown();

    // The pinned totals: the prime set plus the segments' first-touch jobs.
    let segment_jobs = try_run_jobs(
        &inputs.fresh[..segment_fresh],
        &SweepOptions::with_workers(CONNECTIONS),
    )
    .expect("local backend");
    let all: Vec<JobOutcome> = local
        .outcomes
        .iter()
        .chain(&segment_jobs.outcomes)
        .cloned()
        .collect();
    crate::sweeps::sim_totals(&mut rep, &all);
    let prime_instructions: u64 = local.outcomes.iter().map(|o| o.metrics.instructions).sum();
    rep.set("pass.cold_s", cold_s);
    rep.set("sim_minst_per_s", prime_instructions as f64 / cold_s / 1e6);
    rep.set("warm_sweep_s", median(&warm_s));
    rep.set("max_rps", max_rps);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("loadgen.lag_p99_ms", lag_p99_ms);

    match &server_metrics {
        Some(metrics) => server_layers(&mut rep, metrics),
        None => rep.check(false, || "GET /metrics failed".to_owned()),
    }
    if let Some(tracer) = tracer {
        let metrics_of: HashMap<u64, JobMetrics> = local
            .outcomes
            .iter()
            .map(|o| (o.spec.job_id(), o.metrics))
            .collect();
        let simulated: Vec<JobSpec> = inputs
            .prime
            .iter()
            .chain(&inputs.fresh[..segment_fresh])
            .copied()
            .collect();
        serve_layers(&mut rep, tracer, &hi_plan, &metrics_of, &simulated);
    }
    rep
}

/// Counters the server itself reports on `/metrics`.
fn server_layers(rep: &mut Rep, metrics: &Json) {
    let batch = |key: &str| {
        metrics
            .get("batch")
            .and_then(|b| b.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let requested = batch("jobs_requested");
    let memo = batch("jobs_memo_hits");
    let batches = batch("batches_dispatched");
    rep.set("serve.memo_hit_ratio", memo / requested.max(1.0));
    rep.set("serve.batches", batches);
    rep.set("serve.mean_batch", (requested - memo) / batches.max(1.0));
    let conns_shed = metrics
        .get("reactor")
        .and_then(|r| r.get("conns_shed"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    rep.set("serve.shed", batch("jobs_shed") + conns_shed);
    let http = metrics.get("http");
    let latency = http.and_then(|h| h.get("latency"));
    let field = |key: &str| latency.and_then(|l| l.get(key)).and_then(Json::as_f64);
    rep.set("serve.server_p99_ms", field("p99").unwrap_or(0.0) / 1e3);
    rep.set("ledger.busy_s", field("sum").unwrap_or(0.0) / 1e6);
    rep.set(
        "serve.requests",
        http.and_then(|h| h.get("requests"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    );
}

/// The request path's layers, driven over the hi segment's own request
/// bytes, and the ledger against the server's handler time.
fn serve_layers(
    rep: &mut Rep,
    tracer: &Tracer,
    plan: &[Planned],
    metrics_of: &HashMap<u64, JobMetrics>,
    simulated: &[JobSpec],
) {
    let n = plan.len() as u64;
    let wire: Vec<u8> = plan
        .iter()
        .flat_map(|p| simulate_request(&p.spec))
        .collect();
    let mut bodies: Vec<Vec<u8>> = Vec::with_capacity(plan.len());
    tracer.time("serve.parse", "layers", n, || {
        let mut parser = RequestParser::new();
        for chunk in wire.chunks(16 * 1024) {
            parser.push(chunk);
            while let Ok(Some(request)) = parser.next_request() {
                bodies.push(request.body);
            }
        }
    });
    let mut specs = Vec::with_capacity(plan.len());
    tracer.time("serve.route", "layers", n, || {
        for body in &bodies {
            let text = std::str::from_utf8(body).expect("request bodies are UTF-8");
            let doc = Json::parse(text).expect("request bodies are JSON");
            specs.push(job_spec_from_json(&doc).expect("request bodies are valid"));
        }
    });
    tracer.time("serve.render", "layers", n, || {
        for (spec, node) in &specs {
            let result = BatchedResult {
                metrics: metrics_of.get(&spec.job_id()).copied().unwrap_or_default(),
                from_cache: true,
            };
            std::hint::black_box(simulate_response(spec, &result, *node));
        }
    });
    let per_request_ns = tracer.ns_per_unit("serve.parse")
        + tracer.ns_per_unit("serve.route")
        + tracer.ns_per_unit("serve.render");
    rep.set("serve.parse_ns_per_req", tracer.ns_per_unit("serve.parse"));
    rep.set("serve.route_ns_per_req", tracer.ns_per_unit("serve.route"));
    rep.set(
        "serve.render_us_per_req",
        tracer.ns_per_unit("serve.render") / 1e3,
    );

    // The ledger: the server's summed request time against parse + route +
    // render per request plus one worker's time to simulate every job the
    // server simulated. Queueing behind a stalled request is the residual.
    tracer.time("serve.simulate", "layers", simulated.len() as u64, || {
        try_run_jobs(simulated, &SweepOptions::with_workers(1)).expect("local backend")
    });
    let sim_s = tracer.total_s("serve.simulate");
    let requests = rep.metrics.get("serve.requests").copied().unwrap_or(0.0);
    let busy_s = rep.metrics.get("ledger.busy_s").copied().unwrap_or(0.0);
    let explained = requests * per_request_ns / 1e9 + sim_s;
    rep.set("ledger.explained_s", explained);
    rep.set(
        "ledger.residual_ratio",
        (busy_s - explained) / busy_s.max(1e-9),
    );
}
