//! The self-timed perf harness behind `repro bench` — the start of the
//! repo's tracked performance trajectory.
//!
//! Four phases, each timed with a monotonic clock:
//!
//! 1. **replay** — the golden conformance corpus replayed through one
//!    pipeline configuration straight from its decode-once arenas
//!    (one warm-up pass, then the fastest of [`REPLAY_PASSES`] timed
//!    passes): instructions per second of raw simulation, free of sweep
//!    machinery.
//! 2. **sweep** — a standard tiny design-space sweep, cache-cold (every
//!    job simulated; the fastest of [`COLD_PASSES`] passes, each against a
//!    fresh throwaway cache) and then cache-warm (every job loaded back),
//!    configurations per second each.
//! 3. **frontier** — repeated Pareto-frontier extraction over the sweep's
//!    config points: points per second of post-processing.
//! 4. **serve** — the HTTP front door at saturation: concurrent clients
//!    hammering a memoized `POST /simulate` against an in-process reactor
//!    server on pipelined keep-alive connections, reading responses back
//!    through the fabric's shared response parser. Requests per second and
//!    client-observed latency quantiles; the compare gate holds the rate
//!    against the baseline and the p99 under an absolute budget
//!    ([`SERVE_P99_BUDGET_US`]).
//!
//! [`run`] returns a [`BenchReport`]; [`BenchReport::to_json`] renders the
//! `sigcomp-bench v1` document that `BENCH_<label>.json` files carry, and
//! [`validate`] schema-checks such a document (CI runs it on every emitted
//! report, and `repro bench --check FILE` exposes it to hand-written
//! tooling). The process-global observability registry snapshot, merged
//! with the serve phase's server registry, rides along under `"obs"` so a
//! report also captures cache, replay and `serve.*` counters.

use crate::golden::{self, GOLDEN_WORKLOADS};
use sigcomp::{EnergyModel, ExtScheme};
use sigcomp_explore::{
    config_points, pareto_frontier, simulate_decoded, try_run_sweep, ExecBackend, JobSpec,
    MemProfile, ResultCache, SweepOptions, SweepSpec, TraceInput,
};
use sigcomp_fabric::{HttpClient, ResponseParser};
use sigcomp_obs::json::{Json, Layout, Writer};
use sigcomp_pipeline::OrgKind;
use sigcomp_workloads::WorkloadSize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The schema tag every report leads with; bump on incompatible changes.
pub const SCHEMA: &str = "sigcomp-bench v1";

/// Timed passes over the replay corpus; the fastest pass is reported. A
/// single pass of the tiny golden traces lasts about a millisecond, which
/// timer fixed costs and scheduler noise would dominate — and on shared
/// (virtualized) hosts, whole slow epochs lasting hundreds of milliseconds
/// appear and vanish. Spreading best-of sampling across a ~1 s window rides
/// out both and reports the true steady-state rate of the hot loop.
pub const REPLAY_PASSES: u32 = 1024;

/// Cache-cold sweep passes, each against a fresh throwaway cache; the
/// fastest is reported. One cold pass of the tiny sweep lasts well under a
/// tenth of a second, and single passes of one unchanged binary spread
/// over a factor of two on shared hosts.
pub const COLD_PASSES: u32 = 3;

/// Minimum untimed warm-up before the replay passes are timed: long enough
/// for the CPU frequency governor to ramp the measuring core, short enough
/// to stay negligible next to the sweep phase.
pub const WARMUP_FLOOR: std::time::Duration = std::time::Duration::from_millis(300);

/// What to measure and how to label it.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Shrink every phase (one replay workload, a two-organization sweep,
    /// fewer frontier iterations) for CI smoke runs.
    pub quick: bool,
    /// The `<label>` of `BENCH_<label>.json`; also recorded in the report.
    pub label: String,
    /// Replay pre-recorded `.sctrace` files from this golden-corpus
    /// directory instead of re-recording the kernels in memory.
    pub corpus: Option<PathBuf>,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            label: "local".to_owned(),
            corpus: None,
        }
    }
}

/// One timed phase: how much work, how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Work units processed (instructions, configurations, frontier points).
    pub units: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl Phase {
    /// Units per second; `0.0` when the phase was too fast to time.
    pub fn rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.units as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Everything `repro bench` measured, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The `--label` the run was tagged with.
    pub label: String,
    /// Whether the shrunk `--quick` phases were used.
    pub quick: bool,
    /// Golden workloads replayed.
    pub replay_workloads: u64,
    /// Replay phase: units are instructions.
    pub replay: Phase,
    /// Configurations in the sweep design space.
    pub sweep_configs: u64,
    /// Cache-cold sweep: units are configurations, all simulated; the
    /// fastest of [`COLD_PASSES`].
    pub sweep_cold: Phase,
    /// Cache-warm sweep: units are configurations, all loaded back.
    pub sweep_warm: Phase,
    /// Frontier extractions performed.
    pub frontier_iterations: u64,
    /// Frontier phase: units are points processed across all iterations.
    pub frontier: Phase,
    /// Serving front-door saturation through the reactor.
    pub serve: ServeBench,
    /// The process-global observability registry after the run, merged
    /// with the serve phase's server registry.
    pub obs: sigcomp_obs::Snapshot,
}

/// The serve phase's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ServeBench {
    /// Concurrent closed-loop clients.
    pub clients: u64,
    /// Requests each client wrote back-to-back per batch on its keep-alive
    /// connection.
    pub pipeline_depth: u64,
    /// Units are requests served over keep-alive connections.
    pub reactor: Phase,
    /// Client-observed p50 latency (µs) under the reactor, measured batch
    /// start → response read.
    pub reactor_p50_us: f64,
    /// Client-observed p95 latency (µs) under the reactor.
    pub reactor_p95_us: f64,
    /// Client-observed p99 latency (µs) under the reactor.
    pub reactor_p99_us: f64,
}

impl BenchReport {
    /// Cold-to-warm wall-clock ratio — how much the result cache buys.
    pub fn warm_speedup(&self) -> f64 {
        if self.sweep_warm.wall_s > 0.0 {
            self.sweep_cold.wall_s / self.sweep_warm.wall_s
        } else {
            0.0
        }
    }

    /// Renders the `sigcomp-bench v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Lines);
        w.key("schema").str(SCHEMA).key("label").str(&self.label);
        w.key("quick").raw(self.quick);
        w.key("replay").object(Layout::Inline);
        w.key("workloads").raw(self.replay_workloads);
        w.key("instructions").raw(self.replay.units);
        write_rate(&mut w, self.replay, "instructions_per_sec");
        w.end();
        w.key("sweep").object(Layout::Inline);
        w.key("configs").raw(self.sweep_configs);
        for (name, phase) in [("cold", self.sweep_cold), ("warm", self.sweep_warm)] {
            w.key(name).object(Layout::Inline);
            write_rate(&mut w, phase, "configs_per_sec");
            w.end();
        }
        w.key("warm_speedup").float(self.warm_speedup(), 2);
        w.end();
        w.key("frontier").object(Layout::Inline);
        w.key("iterations").raw(self.frontier_iterations);
        w.key("points").raw(self.frontier.units);
        write_rate(&mut w, self.frontier, "points_per_sec");
        w.end();
        let serve = &self.serve;
        w.key("serve").object(Layout::Inline);
        w.key("clients").raw(serve.clients);
        w.key("pipeline_depth").raw(serve.pipeline_depth);
        w.key("reactor").object(Layout::Inline);
        w.key("requests").raw(serve.reactor.units);
        write_rate(&mut w, serve.reactor, "req_per_sec");
        w.key("p50_us").float(serve.reactor_p50_us, 1);
        w.key("p95_us").float(serve.reactor_p95_us, 1);
        w.key("p99_us").float(serve.reactor_p99_us, 1);
        w.end().end();
        self.obs.write_json(w.key("obs"));
        w.end();
        out.push('\n');
        out
    }
}

/// Writes a phase's `wall_s` and its rate under `rate_key`.
fn write_rate(w: &mut Writer<'_>, phase: Phase, rate_key: &str) {
    w.key("wall_s").float(phase.wall_s, 6);
    w.key(rate_key).float(phase.rate(), 1);
}

/// Runs every phase and assembles the report.
///
/// The sweep phase uses a private throwaway cache directory under the
/// system temp dir (removed afterwards), never the user's `--cache`: a
/// benchmark that could hit a pre-warmed cache would not measure anything.
pub fn run(options: &BenchOptions) -> Result<BenchReport, String> {
    // Phase 1: golden-corpus replay.
    let workloads: &[&str] = if options.quick {
        &GOLDEN_WORKLOADS[..1]
    } else {
        GOLDEN_WORKLOADS
    };
    let mut inputs = Vec::with_capacity(workloads.len());
    for &workload in workloads {
        let input = if let Some(dir) = &options.corpus {
            golden::load_corpus_trace(dir, workload)?
        } else {
            let trace = golden::record_golden(workload)?;
            TraceInput::from_trace(workload, trace)
                .map_err(|e| format!("golden trace {workload}: {e}"))?
        };
        inputs.push(input);
    }
    // Raw simulation throughput: each decode-once arena replayed straight
    // through the models, single-threaded — no executor, no cache, no sweep
    // machinery (the sweep phase times those). An untimed warm-up ramps the
    // core, then the fastest of REPLAY_PASSES timed passes estimates the
    // steady state the sweep hot loop actually runs at.
    let replay_jobs: Vec<(JobSpec, &TraceInput)> = inputs
        .iter()
        .map(|input| {
            let spec = JobSpec {
                scheme: ExtScheme::ThreeBit,
                org: OrgKind::ALL[0],
                workload: input.name(),
                size: WorkloadSize::Tiny,
                mem: MemProfile::Paper,
                source: input.source(),
            };
            (spec, input)
        })
        .collect();
    let replay_pass = || -> u64 {
        replay_jobs
            .iter()
            .map(|(spec, input)| simulate_decoded(spec, input.decoded()).instructions)
            .sum()
    };
    // Warm up untimed until the clock governor has ramped this core to its
    // steady-state frequency — a single ~1 ms pass is far too short for
    // that, and timing against a half-ramped core understates the rate by
    // 30-40 % on idle machines.
    let warmup = Instant::now();
    while warmup.elapsed() < WARMUP_FLOOR {
        replay_pass();
    }
    let mut replay_instructions = 0u64;
    let mut best_pass_s = f64::INFINITY;
    for _ in 0..REPLAY_PASSES {
        let start = Instant::now();
        let pass_instructions = replay_pass();
        best_pass_s = best_pass_s.min(start.elapsed().as_secs_f64());
        replay_instructions = pass_instructions;
    }
    // The corpus is tiny (a pass lasts about a millisecond), so a sum over
    // passes is dominated by scheduler noise; the fastest pass is the stable
    // estimate of the steady-state rate the sweep hot loop runs at.
    let replay = Phase {
        units: replay_instructions,
        wall_s: best_pass_s,
    };

    // Phase 2: the standard sweep, cache-cold (best of COLD_PASSES, each
    // against a fresh cache) then cache-warm against the last cold one.
    let mut sweep_spec = SweepSpec::full(WorkloadSize::Tiny).mems(&[MemProfile::Paper]);
    if options.quick {
        sweep_spec = sweep_spec
            .schemes(&[ExtScheme::ThreeBit])
            .orgs(&OrgKind::ALL[..2]);
    }
    let cache_dir =
        std::env::temp_dir().join(format!("sigcomp-bench-cache-{}", std::process::id()));
    let timed_sweep = |what: &str| -> Result<(sigcomp_explore::SweepSummary, Phase), String> {
        let cache = ResultCache::open(&cache_dir)
            .map_err(|e| format!("cannot open the throwaway bench cache ({what}): {e}"))?;
        let sweep_options = SweepOptions {
            workers: None,
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        let start = Instant::now();
        let summary =
            try_run_sweep(&sweep_spec, &sweep_options).expect("the local backend never fails");
        let phase = Phase {
            units: summary.outcomes.len() as u64,
            wall_s: start.elapsed().as_secs_f64(),
        };
        Ok((summary, phase))
    };
    let passes = || {
        let mut cold: Option<(sigcomp_explore::SweepSummary, Phase)> = None;
        for _ in 0..COLD_PASSES {
            let _ = std::fs::remove_dir_all(&cache_dir);
            let (summary, phase) = timed_sweep("cold")?;
            if summary.cached() != 0 {
                return Err(format!(
                    "the cold sweep hit the cache ({} jobs) — the throwaway directory was not fresh",
                    summary.cached()
                ));
            }
            if cold
                .as_ref()
                .is_none_or(|(_, best)| phase.wall_s < best.wall_s)
            {
                cold = Some((summary, phase));
            }
        }
        let (cold_summary, sweep_cold) = cold.expect("COLD_PASSES is not zero");
        let (warm_summary, sweep_warm) = timed_sweep("warm")?;
        Ok((cold_summary, sweep_cold, warm_summary, sweep_warm))
    };
    let result = passes();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (cold_summary, sweep_cold, warm_summary, sweep_warm) = result?;
    if warm_summary.simulated() != 0 {
        return Err(format!(
            "the warm sweep missed the cache ({} jobs simulated)",
            warm_summary.simulated()
        ));
    }

    // Phase 3: repeated frontier extraction over the sweep's points.
    let points = config_points(&cold_summary.outcomes);
    let model = EnergyModel::default();
    let frontier_iterations: u64 = if options.quick { 50 } else { 500 };
    let start = Instant::now();
    for _ in 0..frontier_iterations {
        std::hint::black_box(pareto_frontier(std::hint::black_box(&points), &model));
    }
    let frontier = Phase {
        units: frontier_iterations * points.len() as u64,
        wall_s: start.elapsed().as_secs_f64(),
    };

    // Phase 4: the serving front door at saturation.
    let (serve, serve_obs) = bench_serve(options)?;
    let mut obs = sigcomp_obs::global().snapshot();
    obs.merge(&serve_obs)
        .map_err(|e| format!("serve bench: cannot merge the server's metrics: {e}"))?;

    Ok(BenchReport {
        label: options.label.clone(),
        quick: options.quick,
        replay_workloads: workloads.len() as u64,
        replay,
        sweep_configs: sweep_spec.len() as u64,
        sweep_cold,
        sweep_warm,
        frontier_iterations,
        frontier,
        serve,
        obs,
    })
}

/// The `/simulate` body every serve-phase request carries; the memo is
/// warmed with it before timing starts, so the measured window exercises
/// the steady-state serving path (parse → memo hit → respond), not the
/// first simulation.
const SERVE_BENCH_BODY: &str = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";

/// Times the reactor under a closed-loop client fleet on pipelined
/// keep-alive connections; also returns the server's own metrics.
fn bench_serve(options: &BenchOptions) -> Result<(ServeBench, sigcomp_obs::Snapshot), String> {
    use sigcomp_serve::{BatchConfig, ServeConfig, Server};

    let clients: usize = if options.quick { 4 } else { 8 };
    let depth: usize = if options.quick { 8 } else { 16 };
    let window = if options.quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            sim_workers: Some(2),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve bench: cannot bind: {e}"))?
    .spawn();
    let addr = server.addr();
    // Warm the memo (and the accept path) before the timed window.
    let warm = HttpClient::new(Duration::from_mins(1))
        .post(&addr.to_string(), "/simulate", SERVE_BENCH_BODY)
        .map_err(|e| format!("serve bench warm-up: {e}"))?;
    if warm.status != 200 {
        return Err(format!("serve bench warm-up answered {}", warm.status));
    }
    let latency = sigcomp_obs::Histogram::new(sigcomp_serve::metrics::LATENCY_BOUNDS_US);
    let started = Instant::now();
    let stop_at = started + window;
    let counts = std::thread::scope(|scope| -> Vec<Result<u64, String>> {
        let latency = &latency;
        (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    serve_client_pipelined(addr, SERVE_BENCH_BODY, depth, stop_at, latency)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("serve bench client panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let server_obs = server.snapshot();
    drop(server);
    let mut requests = 0;
    for count in counts {
        requests += count.map_err(|e| format!("serve bench client: {e}"))?;
    }
    let snap = latency.snapshot();
    let bench = ServeBench {
        clients: clients as u64,
        pipeline_depth: depth as u64,
        reactor: Phase {
            units: requests,
            wall_s,
        },
        reactor_p50_us: snap.quantile(0.50),
        reactor_p95_us: snap.quantile(0.95),
        reactor_p99_us: snap.quantile(0.99),
    };
    Ok((bench, server_obs))
}

/// A closed-loop client: one keep-alive connection for the whole window,
/// `depth` pipelined requests written back-to-back per batch, then all
/// `depth` responses read back in order through one [`ResponseParser`].
/// Each request in a batch is charged the full batch round-trip in the
/// latency histogram (a conservative upper bound). Returns its request
/// count.
fn serve_client_pipelined(
    addr: std::net::SocketAddr,
    body: &str,
    depth: usize,
    stop_at: Instant,
    latency: &sigcomp_obs::Histogram,
) -> Result<u64, String> {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let one = format!(
        "POST /simulate HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    let batch = one.repeat(depth);
    let mut parser = ResponseParser::new();
    let mut served = 0;
    while Instant::now() < stop_at {
        let sent = Instant::now();
        stream
            .write_all(batch.as_bytes())
            .map_err(|e| format!("send batch: {e}"))?;
        for _ in 0..depth {
            let response = parser
                .read_response(&mut stream)
                .map_err(|e| format!("read: {e}"))?;
            if response.status != 200 {
                return Err(format!("pipelined request answered {}", response.status));
            }
        }
        let elapsed = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        for _ in 0..depth {
            latency.observe(elapsed);
        }
        served += depth as u64;
    }
    Ok(served)
}

/// Fetches `key` out of `json`, naming the missing path on failure.
fn field<'j>(json: &'j Json, context: &str, key: &str) -> Result<&'j Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing key \"{context}{key}\""))
}

/// Requires `key` to be a non-negative number (all report rates and walls).
fn number(json: &Json, context: &str, key: &str) -> Result<(), String> {
    let value = field(json, context, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{context}{key}\" is not a number"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "\"{context}{key}\" is not a finite non-negative number"
        ));
    }
    Ok(())
}

/// Requires `key` to be an unsigned integer (all report counts).
fn unsigned(json: &Json, context: &str, key: &str) -> Result<(), String> {
    match field(json, context, key)?.as_u64() {
        Some(_) => Ok(()),
        None => Err(format!("\"{context}{key}\" is not an unsigned integer")),
    }
}

/// Schema-checks a `sigcomp-bench v1` document (`repro bench --check`).
///
/// # Errors
///
/// Returns a one-line description of the first violation: unparsable JSON,
/// a wrong or missing schema tag, or a missing/mistyped field.
pub fn validate(text: &str) -> Result<(), String> {
    let json = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match field(&json, "", "schema")?.as_str() {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("schema is \"{other}\", expected \"{SCHEMA}\"")),
        None => return Err("\"schema\" is not a string".to_owned()),
    }
    if field(&json, "", "label")?.as_str().is_none() {
        return Err("\"label\" is not a string".to_owned());
    }
    if field(&json, "", "quick")?.as_bool().is_none() {
        return Err("\"quick\" is not a boolean".to_owned());
    }

    let replay = field(&json, "", "replay")?;
    for key in ["workloads", "instructions"] {
        unsigned(replay, "replay.", key)?;
    }
    for key in ["wall_s", "instructions_per_sec"] {
        number(replay, "replay.", key)?;
    }

    let sweep = field(&json, "", "sweep")?;
    unsigned(sweep, "sweep.", "configs")?;
    for pass in ["cold", "warm"] {
        let obj = field(sweep, "sweep.", pass)?;
        let context = format!("sweep.{pass}.");
        for key in ["wall_s", "configs_per_sec"] {
            number(obj, &context, key)?;
        }
    }
    number(sweep, "sweep.", "warm_speedup")?;

    let frontier = field(&json, "", "frontier")?;
    for key in ["iterations", "points"] {
        unsigned(frontier, "frontier.", key)?;
    }
    for key in ["wall_s", "points_per_sec"] {
        number(frontier, "frontier.", key)?;
    }

    let serve = field(&json, "", "serve")?;
    for key in ["clients", "pipeline_depth"] {
        unsigned(serve, "serve.", key)?;
    }
    let reactor = field(serve, "serve.", "reactor")?;
    unsigned(reactor, "serve.reactor.", "requests")?;
    for key in ["wall_s", "req_per_sec", "p50_us", "p95_us", "p99_us"] {
        number(reactor, "serve.reactor.", key)?;
    }

    let obs = field(&json, "", "obs")?;
    for key in ["counters", "gauges", "histograms"] {
        field(obs, "obs.", key)?;
    }
    Ok(())
}

/// The default `compare` tolerance: a throughput metric may be up to this
/// many times slower than the baseline before it counts as a regression.
/// CI machines and checked-in baselines differ in raw speed, so the
/// comparison is meant to catch real cliffs (accidentally quadratic merges,
/// a cache that stopped hitting), not 10% noise — but since the replay path
/// went arena + table-dispatch the margin over the baseline is wide enough
/// to hold the gate at 2x.
pub const DEFAULT_MAX_SLOWDOWN: f64 = 2.0;

/// The absolute budget `compare` holds the serve phase's client-observed
/// p99 under: 250 ms, the same budget CI gives the open-loop `load_gen`
/// run. A bound relative to the baseline would not hold: the checked-in
/// baseline's p99 is under a millisecond, while a shared 2-vCPU host reads
/// 10–85 ms from run to run.
pub const SERVE_P99_BUDGET_US: f64 = 250_000.0;

/// Schema tag of the rolling `BENCH_trajectory.json` document.
pub const TRAJECTORY_SCHEMA: &str = "sigcomp-bench-trajectory v1";

/// Renders one compact trajectory row: the run's label, the commit it
/// measured, and the throughput metrics the compare gate watches.
/// Single-line on purpose — [`append_trajectory`] recovers existing rows
/// line-by-line.
#[must_use]
pub fn trajectory_row(report: &BenchReport, commit: &str) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object(Layout::Inline);
    w.key("label").str(&report.label).key("commit").str(commit);
    w.key("quick").raw(report.quick);
    for (key, value) in [
        ("replay_instructions_per_sec", report.replay.rate()),
        ("sweep_cold_configs_per_sec", report.sweep_cold.rate()),
        ("sweep_warm_configs_per_sec", report.sweep_warm.rate()),
        ("frontier_points_per_sec", report.frontier.rate()),
        ("serve_reactor_req_per_sec", report.serve.reactor.rate()),
        ("serve_reactor_p99_us", report.serve.reactor_p99_us),
    ] {
        w.key(key).float(value, 1);
    }
    w.end();
    out
}

/// Appends one [`trajectory_row`] to the rolling trajectory document,
/// creating it when absent, and returns the total row count. The document
/// is a plain JSON object (`{"schema": ..., "rows": [...]}`) with one row
/// per line, so history accumulates without ever re-serializing old rows.
///
/// # Errors
///
/// Fails when an existing file is unreadable, is not a
/// [`TRAJECTORY_SCHEMA`] document, or has lost its one-row-per-line shape
/// (better to stop than to silently drop history).
pub fn append_trajectory(path: &std::path::Path, row: &str) -> Result<usize, String> {
    let mut rows: Vec<String> = Vec::new();
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text)
                .map_err(|e| format!("trajectory {}: invalid JSON: {e}", path.display()))?;
            if doc.get("schema").and_then(Json::as_str) != Some(TRAJECTORY_SCHEMA) {
                return Err(format!(
                    "trajectory {}: not a \"{TRAJECTORY_SCHEMA}\" document",
                    path.display()
                ));
            }
            let declared = doc
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("trajectory {}: \"rows\" is not an array", path.display()))?
                .len();
            // Rows are emitted one per line, each starting with "label".
            rows.extend(
                text.lines()
                    .map(|line| line.trim().trim_end_matches(','))
                    .filter(|line| line.starts_with("{\"label\""))
                    .map(str::to_owned),
            );
            if rows.len() != declared {
                return Err(format!(
                    "trajectory {}: found {} row lines but \"rows\" declares {declared} — \
                     restore the one-row-per-line layout before appending",
                    path.display(),
                    rows.len()
                ));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("trajectory {}: {e}", path.display())),
    }
    rows.push(row.to_owned());

    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object(Layout::Lines);
    w.key("schema").str(TRAJECTORY_SCHEMA);
    w.key("rows").array(Layout::Lines);
    for row in &rows {
        w.raw(row);
    }
    w.end().end();
    out.push('\n');
    Json::parse(&out).map_err(|e| format!("trajectory row is not valid JSON: {e}"))?;
    std::fs::write(path, &out).map_err(|e| format!("trajectory {}: {e}", path.display()))?;
    Ok(rows.len())
}

/// Reads the `f64` at a dotted `path` (e.g. `"sweep.cold.configs_per_sec"`).
fn metric(json: &Json, path: &str) -> Result<f64, String> {
    let mut node = json;
    for key in path.split('.') {
        node = node
            .get(key)
            .ok_or_else(|| format!("missing key \"{path}\""))?;
    }
    node.as_f64()
        .ok_or_else(|| format!("\"{path}\" is not a number"))
}

/// Compares a fresh report against a baseline (`repro bench --compare`).
///
/// Both documents are schema-checked first. Shape metrics (the `quick`
/// flag, workload and configuration counts) must match exactly — comparing
/// differently-shaped runs would be meaningless. Throughput metrics may
/// regress by at most `max_slowdown`×, and the serve p99 must stay within
/// [`SERVE_P99_BUDGET_US`] whatever the baseline says.
///
/// Returns one summary line per gated metric on success.
///
/// # Errors
///
/// Every violation is returned, each naming the offending metric.
pub fn compare(
    current: &str,
    baseline: &str,
    max_slowdown: f64,
) -> Result<Vec<String>, Vec<String>> {
    validate(current).map_err(|e| vec![format!("current report: {e}")])?;
    validate(baseline).map_err(|e| vec![format!("baseline report: {e}")])?;
    let cur = Json::parse(current).expect("validated above");
    let base = Json::parse(baseline).expect("validated above");

    let mut violations = Vec::new();
    for path in [
        "replay.workloads",
        "sweep.configs",
        "frontier.iterations",
        "serve.clients",
        "serve.pipeline_depth",
    ] {
        match (metric(&cur, path), metric(&base, path)) {
            (Ok(c), Ok(b)) if c != b => violations.push(format!(
                "{path}: shape mismatch (baseline {b}, current {c}) — \
                 rerun with the baseline's bench flags"
            )),
            (Err(e), _) | (_, Err(e)) => violations.push(e),
            _ => {}
        }
    }
    let quick = |doc: &Json| doc.get("quick").and_then(Json::as_bool);
    if quick(&cur) != quick(&base) {
        violations
            .push("quick: shape mismatch (one report used --quick, the other did not)".to_owned());
    }
    if !violations.is_empty() {
        return Err(violations);
    }

    let mut lines = Vec::new();
    for path in [
        "replay.instructions_per_sec",
        "sweep.cold.configs_per_sec",
        "sweep.warm.configs_per_sec",
        "frontier.points_per_sec",
        "serve.reactor.req_per_sec",
    ] {
        let (c, b) = match (metric(&cur, path), metric(&base, path)) {
            (Ok(c), Ok(b)) => (c, b),
            (Err(e), _) | (_, Err(e)) => {
                violations.push(e);
                continue;
            }
        };
        if b <= 0.0 {
            // A zero baseline rate means the phase was too fast to time —
            // nothing to regress against.
            lines.push(format!("{path}: baseline rate is 0, skipped"));
            continue;
        }
        let floor = b / max_slowdown;
        if c < floor {
            violations.push(format!(
                "{path}: regression — current {c:.1}/s is below {floor:.1}/s \
                 (baseline {b:.1}/s, tolerance {max_slowdown}x)"
            ));
        } else {
            lines.push(format!(
                "{path}: ok ({c:.1}/s vs baseline {b:.1}/s, {:.2}x)",
                c / b
            ));
        }
    }
    let path = "serve.reactor.p99_us";
    match metric(&cur, path) {
        Ok(p99) if p99 > SERVE_P99_BUDGET_US => violations.push(format!(
            "{path}: over budget — current {p99:.0} us exceeds {SERVE_P99_BUDGET_US:.0} us"
        )),
        Ok(p99) => lines.push(format!(
            "{path}: ok ({p99:.0} us within the {SERVE_P99_BUDGET_US:.0} us budget)"
        )),
        Err(e) => violations.push(e),
    }
    if violations.is_empty() {
        Ok(lines)
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            label: "unit".to_owned(),
            quick: true,
            replay_workloads: 1,
            replay: Phase {
                units: 1000,
                wall_s: 0.5,
            },
            sweep_configs: 22,
            sweep_cold: Phase {
                units: 22,
                wall_s: 2.0,
            },
            sweep_warm: Phase {
                units: 22,
                wall_s: 0.25,
            },
            frontier_iterations: 50,
            frontier: Phase {
                units: 1100,
                wall_s: 0.1,
            },
            serve: ServeBench {
                clients: 4,
                pipeline_depth: 4,
                reactor: Phase {
                    units: 4000,
                    wall_s: 0.5,
                },
                reactor_p50_us: 120.0,
                reactor_p95_us: 480.0,
                reactor_p99_us: 900.0,
            },
            obs: sigcomp_obs::Snapshot::default(),
        }
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let report = sample_report();
        let json = report.to_json();
        validate(&json).expect("the emitted report must satisfy its own schema");
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(parsed.get("label").unwrap().as_str(), Some("unit"));
        let sweep = parsed.get("sweep").unwrap();
        assert_eq!(
            sweep.get("warm_speedup").unwrap().as_f64(),
            Some(8.0),
            "2.0 s cold over 0.25 s warm"
        );
    }

    #[test]
    fn rates_divide_units_by_wall_and_survive_zero_wall() {
        let phase = Phase {
            units: 1000,
            wall_s: 0.5,
        };
        assert_eq!(phase.rate(), 2000.0);
        let instant = Phase {
            units: 1000,
            wall_s: 0.0,
        };
        assert_eq!(instant.rate(), 0.0);
    }

    #[test]
    fn compare_accepts_identical_reports_and_names_regressions() {
        let json = sample_report().to_json();
        let lines = compare(&json, &json, DEFAULT_MAX_SLOWDOWN).expect("identical reports match");
        assert_eq!(lines.len(), 6, "one line per gated metric: {lines:?}");
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("serve.reactor.p99_us: ok")),
            "{lines:?}"
        );

        // A p99 past the absolute budget is a named violation even against
        // an identical baseline.
        let mut tail = sample_report();
        tail.serve.reactor_p99_us = SERVE_P99_BUDGET_US + 1.0;
        let violations =
            compare(&tail.to_json(), &tail.to_json(), DEFAULT_MAX_SLOWDOWN).expect_err("budget");
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("serve.reactor.p99_us: over budget"),
            "{violations:?}"
        );

        // A 100x-slower cold sweep must be called out by name.
        let mut slow = sample_report();
        slow.sweep_cold.wall_s *= 100.0;
        let violations =
            compare(&slow.to_json(), &json, DEFAULT_MAX_SLOWDOWN).expect_err("regression");
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("sweep.cold.configs_per_sec: regression")),
            "{violations:?}"
        );
        // The warm sweep was untouched, so it is not blamed.
        assert!(
            !violations.iter().any(|v| v.contains("sweep.warm")),
            "{violations:?}"
        );

        // Differently-shaped runs are a named shape error, not a rate diff.
        let mut reshaped = sample_report();
        reshaped.sweep_configs = 231;
        let violations =
            compare(&reshaped.to_json(), &json, DEFAULT_MAX_SLOWDOWN).expect_err("shape");
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("sweep.configs: shape mismatch")),
            "{violations:?}"
        );
        let mut full = sample_report();
        full.quick = false;
        let violations = compare(&full.to_json(), &json, DEFAULT_MAX_SLOWDOWN).expect_err("quick");
        assert!(
            violations.iter().any(|v| v.starts_with("quick:")),
            "{violations:?}"
        );

        // Garbage on either side is rejected with the side named.
        let violations = compare("not json", &json, DEFAULT_MAX_SLOWDOWN).expect_err("bad current");
        assert!(
            violations[0].starts_with("current report:"),
            "{violations:?}"
        );
    }

    #[test]
    fn trajectory_accumulates_one_row_per_run() {
        let dir = std::env::temp_dir().join(format!("sigcomp-trajectory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_trajectory.json");
        let _ = std::fs::remove_file(&path);

        let row = trajectory_row(&sample_report(), "abc123def456");
        assert_eq!(append_trajectory(&path, &row).unwrap(), 1);
        assert_eq!(append_trajectory(&path, &row).unwrap(), 2);

        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(TRAJECTORY_SCHEMA)
        );
        let rows = doc.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.get("label").and_then(Json::as_str), Some("unit"));
            assert_eq!(
                row.get("commit").and_then(Json::as_str),
                Some("abc123def456")
            );
            assert_eq!(
                row.get("replay_instructions_per_sec")
                    .and_then(Json::as_f64),
                Some(2000.0)
            );
            assert_eq!(
                row.get("serve_reactor_p99_us").and_then(Json::as_f64),
                Some(900.0)
            );
        }

        // A foreign or mangled file is refused, never overwritten.
        let foreign = dir.join("not-a-trajectory.json");
        std::fs::write(&foreign, "{\"schema\": \"something else\", \"rows\": []}").unwrap();
        let err = append_trajectory(&foreign, &row).unwrap_err();
        assert!(err.contains("not a"), "{err}");
        std::fs::write(&foreign, "mangled").unwrap();
        let err = append_trajectory(&foreign, &row).unwrap_err();
        assert!(err.contains("invalid JSON"), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validator_names_the_violation() {
        assert!(validate("not json")
            .unwrap_err()
            .starts_with("not valid JSON"));
        let wrong_schema = sample_report()
            .to_json()
            .replace(SCHEMA, "sigcomp-bench v0");
        assert_eq!(
            validate(&wrong_schema).unwrap_err(),
            format!("schema is \"sigcomp-bench v0\", expected \"{SCHEMA}\"")
        );
        let missing = sample_report()
            .to_json()
            .replace("\"instructions_per_sec\"", "\"renamed\"");
        assert_eq!(
            validate(&missing).unwrap_err(),
            "missing key \"replay.instructions_per_sec\""
        );
        let negative = sample_report()
            .to_json()
            .replace("\"warm_speedup\": 8.00", "\"warm_speedup\": -1");
        assert_eq!(
            validate(&negative).unwrap_err(),
            "\"sweep.warm_speedup\" is not a finite non-negative number"
        );
    }
}
