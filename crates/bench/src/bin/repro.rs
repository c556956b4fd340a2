//! `repro` — regenerate every table and figure of the paper, run
//! design-space sweeps (single-process or sharded across worker processes),
//! record/replay portable traces, and serve simulations over HTTP.
//!
//! ```text
//! repro [--size tiny|default|large] [table1|table2|table3|table4|table5|table6|
//!        fig4|fig6|fig8|fig10|bottleneck|sweep|energy|serve|bench|all]
//! repro trace record|replay|stat|golden …
//! repro worker --cache DIR [--workers N] [--traces a,b] [--obs-log FILE]
//! repro fleet serve|sweep|status …
//!
//! sweep options:
//!   --workers N          worker threads (default: available parallelism;
//!                        with --shards, threads per shard process)
//!   --shards N           fan the sweep out across N `repro worker` child
//!                        processes sharing the result cache; merged output
//!                        is byte-identical to the single-process run
//!                        (requires the cache: incompatible with --no-cache;
//!                        set REPRO_WORKER to interpose a worker launcher)
//!   --schemes a,b        extension schemes: 2bit,3bit,halfword (default: all)
//!   --orgs a,b           organizations by id, or "all" (default: all)
//!   --mems a,b           memory profiles: paper,small-l1,wide-l2,slow-memory
//!                        (default: paper)
//!   --traces a,b         recorded .sctrace files to sweep alongside kernels
//!   --energy-model a,b   process-node energy models the reports are
//!                        evaluated under: paper-180nm,generic-45nm,modern-7nm
//!                        (default: paper-180nm; post-processing only — the
//!                        exports use the first, the frontier is printed per
//!                        model)
//!   --cache DIR          result-cache directory (default: target/sweep-cache)
//!   --no-cache           disable the result cache
//!   --csv PATH           write per-job results as CSV
//!   --json PATH          write per-job results as JSON
//!   --obs-log FILE       stream observability span events as JSONL (sweep,
//!                        serve and bench; workers append to FILE.shard-<i>)
//!
//! energy (a per-preset comparison of the same sweep; accepts
//! --schemes/--orgs/--mems and the --workers/--cache options):
//!   repro [--size S] energy
//!
//! serve options (plus --workers/--cache/--no-cache as above):
//!   --addr HOST:PORT     listen address (default: 127.0.0.1:7878)
//!   --max-batch N        jobs coalesced per executor batch (default: 64)
//!   --backend B          where batches execute: local (default) or
//!                        subprocess[:SHARDS] — sharded `repro worker`
//!                        children merging through the shared cache
//!                        (requires --cache)
//!   --memo-cap N         in-memory result-memo entries retained (default
//!                        4096, oldest evicted first)
//!   --ticket-cap N       finished /sweep tickets retained for polling
//!                        (default 64, oldest evicted first)
//!   --max-conns N        reactor connection cap; above it new connections
//!                        are shed with a fast 503 + Retry-After
//!                        (default 1024)
//!   --read-deadline-ms N per-connection read deadline: a partial request
//!                        older than this is answered 408 and closed
//!                        (default 10000)
//!   --frontier HOST:PORT register with (and heartbeat to) this frontier so
//!                        it dispatches fleet shards here
//!   --self-addr H:P      the address advertised to the frontier (default:
//!                        the bound listen address)
//!   --heartbeat-ms N     heartbeat interval (default 2000)
//!
//! fleet (the frontier/worker topology over HTTP; see `sigcomp_fabric`):
//!   fleet serve …        a worker: `serve` plus registration — same options,
//!                        --frontier names the frontier to announce to
//!   fleet sweep …        run a sweep as the frontier of a worker fleet:
//!                        the sweep options above (cache required) plus
//!                          --fleet a:p,b:p   worker addresses to dispatch to
//!                                            (default: none — degrades to a
//!                                            local run over the same cache)
//!                          --timeout-ms N    per-dispatch timeout (60000)
//!                          --attempts N      dispatch attempts per worker
//!                                            before re-sharding its jobs (3)
//!   fleet status --frontier H:P   print a frontier's /fleet document
//!                        (workers, liveness, merged worker obs)
//!
//! bench (the self-timed perf harness; see `sigcomp_bench::perf`): replays
//! the golden corpus, runs the standard tiny sweep cache-cold and
//! cache-warm against a throwaway cache, and times repeated Pareto-frontier
//! extraction, writing a schema-checked `BENCH_<label>.json`:
//!   --quick              shrunk phases for CI smoke runs
//!   --label NAME         report label (default: local)
//!   --out PATH           report path (default: BENCH_<label>.json)
//!   --corpus DIR         replay a pre-recorded golden corpus directory
//!   --check FILE         only validate FILE against the report schema
//!   --compare FILE       diff the fresh report against baseline FILE:
//!                        shape metrics must match, throughput metrics may
//!                        regress at most 2x, the serve p99 must stay under
//!                        a 250 ms budget; each violation is named and the
//!                        exit code fails
//!   --trajectory PATH    rolling history document each measuring run
//!                        appends a compact row to
//!                        (default: BENCH_trajectory.json)
//!
//! worker (the pipe transport of a sharded sweep; normally spawned by
//! `repro sweep --shards` or `repro serve --backend subprocess`, not by
//! hand): reads a `sigcomp-fleet v1` dispatch body holding its shard's jobs
//! on stdin, runs them against the shared cache, and answers on stdout with
//! the same report a fleet worker sends over HTTP.
//!
//! trace subcommands:
//!   trace record WORKLOAD|--all --out PATH [--size S]
//!                        run kernels live and write .sctrace files
//!                        (--all writes <PATH>/<workload>.sctrace)
//!   trace replay FILE [--schemes a,b] [--orgs all|a,b] [--mems a,b]
//!                        replay a recorded trace through the models
//!   trace stat FILE      header, digest and instruction-mix summary
//!   trace golden DIR     regenerate the golden conformance corpus
//! ```
//!
//! With no subcommand (or `all`) every paper artefact is printed in paper
//! order (`all` does not include `sweep`, `serve`, `bench` or `trace`).

use sigcomp::analyzer::AnalyzerConfig;
use sigcomp::{EnergyModel, ExtScheme, ProcessNode, SigStats};
use sigcomp_bench::{
    activity_study, activity_table, bottleneck, cpi_study, figure, figure_orgs, golden, histogram,
    merged_stats, pattern_histogram_rows, perf, table1, table2, table3, table4,
};
use sigcomp_explore::{
    config_points, encode_report, frontier_table, parse_dispatch, static_prune, to_csv, to_json,
    try_run_jobs_traced, try_run_sweep, ExecBackend, FleetConfig, MemProfile, PruneReason,
    ResultCache, SubprocessConfig, SweepOptions, SweepSpec, TraceInput, TraceSource,
};
use sigcomp_fabric::client::HttpClient;
use sigcomp_fabric::worker::Heartbeater;
use sigcomp_isa::TraceReader;
use sigcomp_pipeline::OrgKind;
use sigcomp_serve::{BatchConfig, ServeConfig, Server};
use sigcomp_static::{
    analyze_program, program_from_records, verify_trace_against_bounds, EntryState, Width,
    WidthReport,
};
use sigcomp_workloads::{find, suite_names, WorkloadSize};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
usage: repro [--size tiny|default|large] \
[table1|table2|table3|table4|table5|table6|fig4|fig6|fig8|fig10|bottleneck|sweep|energy|serve|bench|all]
       repro trace record WORKLOAD|--all --out PATH [--size tiny|default|large]
       repro trace replay FILE [--schemes a,b] [--orgs all|a,b] [--mems a,b]
                   [--energy-model paper-180nm|generic-45nm|modern-7nm]
       repro trace stat FILE
       repro trace golden DIR
       repro analyze WORKLOAD|FILE.sctrace [--size tiny|default|large]
                   [--csv PATH] [--json PATH]
       repro worker --cache DIR [--workers N] [--traces a,b] [--obs-log FILE]
       repro fleet serve [serve options] [--frontier HOST:PORT]
       repro fleet sweep [sweep options] [--fleet a:p,b:p] [--timeout-ms N]
                   [--attempts N]
       repro fleet status --frontier HOST:PORT
sweep options: [--workers N] [--shards N] [--schemes 2bit,3bit,halfword]
[--orgs all|id,id,...] [--mems paper,small-l1,wide-l2,slow-memory]
[--traces f1.sctrace,f2.sctrace]
[--energy-model paper-180nm,generic-45nm,modern-7nm]
[--cache DIR] [--no-cache] [--csv PATH] [--json PATH] [--obs-log FILE]
[--static-prune PCT]
(--shards requires the cache: worker processes merge through it; set
REPRO_WORKER to interpose a worker launcher)
energy options: [--workers N] [--schemes a,b] [--orgs all|a,b] [--mems a,b]
[--cache DIR] [--no-cache]
serve options: [--addr HOST:PORT] [--max-batch N] [--backend local|subprocess[:N]]
[--memo-cap N] [--ticket-cap N] [--max-conns N] [--read-deadline-ms N]
[--workers N] [--cache DIR] [--no-cache]
[--obs-log FILE] [--frontier HOST:PORT] [--self-addr HOST:PORT]
[--heartbeat-ms N]
bench options: [--quick] [--label NAME] [--out PATH] [--corpus DIR]
[--compare BASELINE.json] [--trajectory PATH] [--obs-log FILE], or
`repro bench --check FILE` to schema-validate a report";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Reports a malformed invocation: the specific problem first, the usage
/// text after, and a failing exit code back to the shell.
fn fail(message: &str) -> ExitCode {
    eprintln!("repro: {message}");
    usage()
}

/// Options that only affect the `sweep` and `serve` subcommands.
#[derive(Default)]
struct SweepArgs {
    workers: Option<usize>,
    shards: Option<usize>,
    schemes: Option<Vec<ExtScheme>>,
    orgs: Option<Vec<OrgKind>>,
    mems: Option<Vec<MemProfile>>,
    traces: Option<Vec<String>>,
    energy_models: Option<Vec<ProcessNode>>,
    cache_dir: Option<String>,
    no_cache: bool,
    csv: Option<String>,
    json: Option<String>,
    addr: Option<String>,
    max_batch: Option<usize>,
    backend: Option<BackendChoice>,
    memo_cap: Option<usize>,
    ticket_cap: Option<usize>,
    max_conns: Option<usize>,
    read_deadline_ms: Option<u64>,
    obs_log: Option<String>,
    bench_quick: bool,
    bench_label: Option<String>,
    bench_out: Option<String>,
    bench_corpus: Option<String>,
    bench_check: Option<String>,
    bench_compare: Option<String>,
    bench_trajectory: Option<String>,
    fleet_workers: Option<Vec<String>>,
    frontier: Option<String>,
    self_addr: Option<String>,
    heartbeat_ms: Option<u64>,
    timeout_ms: Option<u64>,
    attempts: Option<u32>,
    static_prune: Option<f64>,
}

/// The `--backend` value of `repro serve`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendChoice {
    /// In-process threads (the default).
    Local,
    /// Sharded `repro worker` subprocesses.
    Subprocess(usize),
}

/// Parses a `--backend` value: `local`, `subprocess`, or `subprocess:N`.
fn parse_backend(raw: &str) -> Result<BackendChoice, String> {
    if raw == "local" {
        return Ok(BackendChoice::Local);
    }
    let shards = match raw.split_once(':') {
        None if raw == "subprocess" => {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        }
        Some(("subprocess", n)) => n.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
            format!(
                "invalid value '{raw}' for --backend \
                     (the shard count must be a positive integer)"
            )
        })?,
        _ => {
            return Err(format!(
                "invalid value '{raw}' for --backend (expected local or subprocess[:SHARDS])"
            ))
        }
    };
    Ok(BackendChoice::Subprocess(shards))
}

/// The worker executable the subprocess backend spawns: `REPRO_WORKER` when
/// set (to interpose a launcher — a container or ssh wrapper, say),
/// otherwise this very binary.
fn worker_program() -> Result<std::path::PathBuf, String> {
    if let Some(program) = std::env::var_os("REPRO_WORKER") {
        return Ok(std::path::PathBuf::from(program));
    }
    std::env::current_exe()
        .map_err(|e| format!("cannot locate the repro binary to spawn workers: {e}"))
}

/// Builds the subprocess backend config shared by `sweep --shards` and
/// `serve --backend subprocess`. When `obs_log` is set each worker also
/// streams its span events to `<obs_log>.shard-<i>`.
fn subprocess_backend(
    shards: usize,
    trace_paths: &[String],
    obs_log: Option<&str>,
) -> Result<ExecBackend, String> {
    let mut config = SubprocessConfig::new(shards, worker_program()?);
    config.trace_paths = trace_paths.to_vec();
    config.obs_log = obs_log.map(std::path::PathBuf::from);
    Ok(ExecBackend::Subprocess(config))
}

fn parse_list<T>(value: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    value.split(',').map(|part| parse(part.trim())).collect()
}

/// Opens the result cache named by `--cache`/`--no-cache` (shared, via the
/// same default directory, by CLI sweeps and a running server).
fn open_cache(args: &SweepArgs, what: &str) -> Option<ResultCache> {
    if args.no_cache {
        return None;
    }
    let dir = args.cache_dir.as_deref().unwrap_or("target/sweep-cache");
    match ResultCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("{what}: cannot open result cache at {dir}: {e}; caching disabled");
            None
        }
    }
}

/// Runs `repro sweep` (`fleet = false`) or `repro fleet sweep` (`fleet =
/// true` — this process is the frontier and the configured backend is the
/// worker fleet).
fn run_sweep_command(size: WorkloadSize, args: &SweepArgs, fleet: bool) -> ExitCode {
    let mut spec = SweepSpec::full(size).mems(&[MemProfile::Paper]);
    if let Some(schemes) = &args.schemes {
        spec = spec.schemes(schemes);
    }
    if let Some(orgs) = &args.orgs {
        spec = spec.orgs(orgs);
    }
    if let Some(mems) = &args.mems {
        spec = spec.mems(mems);
    }
    if let Some(models) = &args.energy_models {
        spec = spec.energy_models(models);
    }
    if let Some(paths) = &args.traces {
        let mut inputs = Vec::with_capacity(paths.len());
        for path in paths {
            match TraceInput::load(path) {
                Ok(input) => inputs.push(input),
                Err(e) => {
                    eprintln!("sweep: cannot read trace {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        spec = spec.trace_files(&inputs);
    }
    if spec.is_empty() {
        eprintln!("sweep: the requested design space is empty");
        return ExitCode::FAILURE;
    }

    let cache = open_cache(args, "sweep");
    let backend = if fleet {
        // The frontier replicates every worker's cache entries into this
        // cache and merges the sweep from it — exactly the subprocess
        // backend's merge discipline, so the output stays byte-identical.
        if args.no_cache {
            return fail("fleet sweep requires the result cache (drop --no-cache)");
        }
        if cache.is_none() {
            eprintln!("sweep: fleet sweep requires the result cache, which could not be opened");
            return ExitCode::FAILURE;
        }
        sigcomp_fabric::install();
        let defaults = FleetConfig::default();
        ExecBackend::Fleet(FleetConfig {
            workers: args.fleet_workers.clone().unwrap_or_default(),
            timeout_ms: args.timeout_ms.unwrap_or(defaults.timeout_ms),
            attempts: args.attempts.unwrap_or(defaults.attempts),
        })
    } else {
        match args.shards {
            None => ExecBackend::LocalThreads,
            Some(shards) => {
                // The shared cache directory is how worker processes publish
                // their results back; without it there is nothing to merge.
                if args.no_cache {
                    return fail("--shards requires the result cache (drop --no-cache)");
                }
                if cache.is_none() {
                    eprintln!(
                        "sweep: --shards requires the result cache, which could not be opened"
                    );
                    return ExitCode::FAILURE;
                }
                let trace_paths = args.traces.clone().unwrap_or_default();
                match subprocess_backend(shards, &trace_paths, args.obs_log.as_deref()) {
                    Ok(backend) => backend,
                    Err(e) => {
                        eprintln!("sweep: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    };
    let options = SweepOptions {
        workers: args.workers,
        cache,
        backend,
    };

    println!(
        "sweep: {} configurations at size {}",
        spec.len(),
        size.name()
    );
    let run = if let Some(threshold) = args.static_prune {
        // The static pre-screen. Kept jobs stay in enumeration order, so
        // their outcomes (and export rows) are byte-identical to the
        // corresponding rows of an unpruned run; pruned configurations are
        // reported here, never silently dropped.
        let jobs = spec.enumerate();
        let outcome = static_prune(&jobs, threshold);
        println!(
            "static prune (< {threshold} % predicted saving): kept {} of {} configurations",
            outcome.kept.len(),
            jobs.len()
        );
        for pruned in &outcome.pruned {
            let PruneReason::BelowThreshold { predicted_pct } = pruned.reason;
            println!(
                "  pruned {} (predicted saving {predicted_pct:.1} %)",
                pruned.spec.label()
            );
        }
        if outcome.kept.is_empty() {
            eprintln!("sweep: --static-prune removed every configuration");
            return ExitCode::FAILURE;
        }
        try_run_jobs_traced(&outcome.kept, spec.trace_inputs(), &options)
    } else {
        try_run_sweep(&spec, &options)
    };
    let summary = match run {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ran on {} {} in {:.2} s: {} simulated, {} from cache",
        summary.workers,
        if summary.backend == "subprocess" {
            "worker processes"
        } else {
            "workers"
        },
        summary.wall.as_secs_f64(),
        summary.simulated(),
        summary.cached()
    );
    let loads: Vec<String> = summary
        .worker_loads
        .iter()
        .map(|(jobs, steals)| format!("{jobs}/{steals}"))
        .collect();
    println!("worker loads (jobs/steals): {}", loads.join(" "));
    if options.cache.is_some() {
        let stats = sigcomp_explore::cache_stats();
        println!(
            "cache: {} hits, {} misses, {} retired, {} stores",
            stats.hits, stats.misses, stats.retired, stats.stores
        );
    }
    // The replay/cache counters are invariant across backends: a sharded run
    // merges its workers' registries, so this line must match the
    // single-process run byte for byte (CI pins that). Scheduling-dependent
    // counters (dedup, worker gauges) are deliberately left out.
    let totals: Vec<String> = sigcomp_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("replay.") || name.starts_with("explore.cache."))
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if !totals.is_empty() {
        println!("obs totals: {}", totals.join(" "));
    }
    println!();

    // One frontier per requested energy model; the axis is post-processing,
    // so every model reads the same simulated counters.
    let nodes = spec.energy_model_axis();
    let points = config_points(&summary.outcomes);
    for (i, &node) in nodes.iter().enumerate() {
        if nodes.len() > 1 {
            if i > 0 {
                println!();
            }
            println!("energy model: {node}");
        }
        print!("{}", frontier_table(&points, &node.model()));
    }

    // Exports are evaluated under the first requested model (the only one,
    // unless --energy-model named several).
    let model = nodes[0].model();
    type Serializer = fn(&[sigcomp_explore::JobOutcome], &EnergyModel) -> String;
    for (path, serialize, what) in [
        (args.csv.as_deref(), to_csv as Serializer, "CSV"),
        (args.json.as_deref(), to_json as Serializer, "JSON"),
    ] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, serialize(&summary.outcomes, &model)) {
                eprintln!("sweep: cannot write {what} to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {what} to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs one sweep and compares its energy/performance picture across every
/// process-node preset: the dynamic term is preset-independent (the paper's
/// number), while the leakage term rewards gated-off byte lanes more the
/// leakier the node — shifting which configurations are Pareto-optimal.
fn run_energy_command(size: WorkloadSize, args: &SweepArgs) -> ExitCode {
    let mut spec = SweepSpec::paper(size);
    if let Some(schemes) = &args.schemes {
        spec = spec.schemes(schemes);
    }
    if let Some(orgs) = &args.orgs {
        spec = spec.orgs(orgs);
    }
    if let Some(mems) = &args.mems {
        spec = spec.mems(mems);
    }
    if spec.is_empty() {
        eprintln!("energy: the requested design space is empty");
        return ExitCode::FAILURE;
    }
    let options = SweepOptions {
        workers: args.workers,
        cache: open_cache(args, "energy"),
        backend: ExecBackend::LocalThreads,
    };
    println!(
        "energy: {} configurations at size {}, compared across {} process-node presets",
        spec.len(),
        size.name(),
        ProcessNode::ALL.len()
    );
    let summary = try_run_sweep(&spec, &options).expect("the local backend never fails");
    let points = config_points(&summary.outcomes);
    let models: Vec<EnergyModel> = ProcessNode::ALL.iter().map(|n| n.model()).collect();

    // Per-preset frontier membership, computed on the shared points.
    let frontiers: Vec<Vec<String>> = models
        .iter()
        .map(|model| {
            sigcomp_explore::pareto_frontier(&points, model)
                .iter()
                .map(sigcomp_explore::ConfigPoint::label)
                .collect()
        })
        .collect();

    // Per-point figures computed once, before sorting and printing — the
    // comparators and row loop must not re-derive CPI, savings or labels.
    struct Row {
        label: String,
        cpi: f64,
        dynamic: f64,
        totals: Vec<f64>,
    }
    let mut rows: Vec<Row> = points
        .iter()
        .map(|p| Row {
            label: p.label(),
            cpi: p.cpi(),
            dynamic: p.dynamic_energy_saving(&EnergyModel::default()),
            totals: models.iter().map(|m| p.energy_saving(m)).collect(),
        })
        .collect();
    rows.sort_by(|a, b| {
        a.cpi
            .partial_cmp(&b.cpi)
            .expect("CPI is never NaN")
            .then_with(|| a.label.cmp(&b.label))
    });

    println!();
    println!("Total-energy saving by process node (* = Pareto-optimal under that node)");
    print!("{:<44} {:>8} {:>9}", "configuration", "CPI", "dynamic");
    for node in ProcessNode::ALL {
        print!(" {:>13}", node.id());
    }
    println!();
    for row in &rows {
        print!(
            "{:<44} {:>8.3} {:>8.1}%",
            row.label,
            row.cpi,
            row.dynamic * 100.0
        );
        for (ni, total) in row.totals.iter().enumerate() {
            let star = if frontiers[ni].contains(&row.label) {
                "*"
            } else {
                " "
            };
            print!(" {:>11.1}%{star}", total * 100.0);
        }
        println!();
    }
    println!();
    for (ni, node) in ProcessNode::ALL.iter().enumerate() {
        println!(
            "frontier under {:<13} ({} configurations): {}",
            node.id(),
            frontiers[ni].len(),
            frontiers[ni].join(", ")
        );
    }
    ExitCode::SUCCESS
}

/// Runs the HTTP serving front-end (blocks until the listener fails).
fn run_serve_command(args: &SweepArgs) -> ExitCode {
    let disk_cache = open_cache(args, "serve");
    let backend = match args.backend.unwrap_or(BackendChoice::Local) {
        BackendChoice::Local => ExecBackend::LocalThreads,
        BackendChoice::Subprocess(shards) => {
            if args.no_cache {
                return fail("--backend subprocess requires the result cache (drop --no-cache)");
            }
            if disk_cache.is_none() {
                eprintln!(
                    "serve: --backend subprocess requires the result cache, \
                     which could not be opened"
                );
                return ExitCode::FAILURE;
            }
            match subprocess_backend(shards, &[], args.obs_log.as_deref()) {
                Ok(backend) => backend,
                Err(e) => {
                    eprintln!("serve: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let config = ServeConfig {
        addr: args.addr.clone().unwrap_or_default(),
        batch: BatchConfig {
            max_batch: args.max_batch.unwrap_or(0),
            queue_capacity: 0,
            sim_workers: args.workers,
            disk_cache,
            backend,
            memo_capacity: args.memo_cap.unwrap_or(0),
        },
        finished_tickets: args.ticket_cap.unwrap_or(0),
        max_conns: args.max_conns.unwrap_or(0),
        read_deadline: std::time::Duration::from_millis(args.read_deadline_ms.unwrap_or(0)),
        ..ServeConfig::default()
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("serving on http://{addr}");
    println!("  GET  /healthz   liveness probe");
    println!("  GET  /metrics   request/batching/cache counters (+ fleet section)");
    println!("  GET  /metrics.json  full observability registry snapshot");
    println!("  POST /simulate  one configuration -> metrics (batched + deduplicated)");
    println!("  POST /sweep     a design-space slice -> poll ticket (or \"sync\": true)");
    println!("  GET  /jobs/:id  sweep progress and results");
    println!("  POST /register, POST /heartbeat, POST /fleet/dispatch, GET /fleet");
    println!("                  the sigcomp-fleet worker protocol");
    // A worker announces itself to its frontier and keeps heartbeating for
    // as long as it serves; the heartbeater thread dies with the process.
    let heartbeater = args.frontier.clone().map(|frontier| {
        let advertised = args.self_addr.clone().unwrap_or_else(|| addr.to_string());
        let interval = std::time::Duration::from_millis(args.heartbeat_ms.unwrap_or(2000).max(1));
        println!("fleet worker: announcing {advertised} to frontier {frontier}");
        Heartbeater::spawn(frontier, advertised, interval)
    });
    let result = server.run();
    if let Some(heartbeater) = heartbeater {
        heartbeater.stop();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a frontier's `/fleet` document: its known workers, their
/// liveness/capacity/dispatch counters, and the merged worker obs snapshot.
fn run_fleet_status_command(args: &SweepArgs) -> ExitCode {
    let Some(frontier) = &args.frontier else {
        return fail("fleet status requires --frontier HOST:PORT");
    };
    let timeout = std::time::Duration::from_millis(args.timeout_ms.unwrap_or(5_000));
    match HttpClient::new(timeout).get(frontier, "/fleet") {
        Ok(response) if response.status == 200 => {
            print!("{}", response.body);
            ExitCode::SUCCESS
        }
        Ok(response) => {
            eprintln!(
                "fleet status: {frontier} answered {}: {}",
                response.status,
                response.body.trim()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fleet status: cannot reach {frontier}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the self-timed perf harness (or, with `--check`, only the report
/// validator) and writes/validates `BENCH_<label>.json`.
fn run_bench_command(args: &SweepArgs) -> ExitCode {
    if let Some(path) = &args.bench_check {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match perf::validate(&text) {
            Ok(()) => {
                println!("{path}: valid {} report", perf::SCHEMA);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let options = perf::BenchOptions {
        quick: args.bench_quick,
        label: args
            .bench_label
            .clone()
            .unwrap_or_else(|| "local".to_owned()),
        corpus: args.bench_corpus.clone().map(std::path::PathBuf::from),
    };
    println!(
        "bench: label {}{}",
        options.label,
        if options.quick { " (quick)" } else { "" }
    );
    let report = match perf::run(&options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replay:   {} workloads, {} instructions in {:.2} s ({:.0} instructions/s)",
        report.replay_workloads,
        report.replay.units,
        report.replay.wall_s,
        report.replay.rate()
    );
    println!(
        "sweep:    {} configurations; cold {:.2} s ({:.1} configs/s), \
         warm {:.2} s ({:.1} configs/s), {:.1}x speedup",
        report.sweep_configs,
        report.sweep_cold.wall_s,
        report.sweep_cold.rate(),
        report.sweep_warm.wall_s,
        report.sweep_warm.rate(),
        report.warm_speedup()
    );
    println!(
        "frontier: {} iterations over {} points in {:.2} s ({:.0} points/s)",
        report.frontier_iterations,
        report.frontier.units / report.frontier_iterations.max(1),
        report.frontier.wall_s,
        report.frontier.rate()
    );
    println!(
        "serve:    {} clients x{} pipelined; reactor {} req in {:.2} s ({:.0} req/s, \
         p50 {:.0} us, p99 {:.0} us)",
        report.serve.clients,
        report.serve.pipeline_depth,
        report.serve.reactor.units,
        report.serve.reactor.wall_s,
        report.serve.reactor.rate(),
        report.serve.reactor_p50_us,
        report.serve.reactor_p99_us
    );

    let json = report.to_json();
    // Self-check before writing: an emitted report that fails its own
    // schema is a bug, not an artifact.
    if let Err(e) = perf::validate(&json) {
        eprintln!("bench: emitted report fails validation: {e}");
        return ExitCode::FAILURE;
    }
    let path = args
        .bench_out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", options.label));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");

    // The regression gate: diff the fresh report against a baseline. Any
    // violation (shape mismatch, a >2x throughput regression, or a serve
    // p99 over its absolute budget) is printed by name and fails the run —
    // this is what CI diffs against the checked-in baseline.
    if let Some(baseline_path) = &args.bench_compare {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("bench: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match perf::compare(&json, &baseline, perf::DEFAULT_MAX_SLOWDOWN) {
            Ok(lines) => {
                println!("compare vs {baseline_path}:");
                for line in lines {
                    println!("  {line}");
                }
            }
            Err(violations) => {
                for violation in violations {
                    eprintln!("bench: compare vs {baseline_path}: {violation}");
                }
                return ExitCode::FAILURE;
            }
        }
    }

    // Accumulate the perf trajectory: one compact row per measuring run,
    // appended to a rolling document CI archives alongside the full report.
    let trajectory_path = args
        .bench_trajectory
        .clone()
        .unwrap_or_else(|| "BENCH_trajectory.json".to_owned());
    let row = perf::trajectory_row(&report, &head_commit());
    match perf::append_trajectory(std::path::Path::new(&trajectory_path), &row) {
        Ok(rows) => println!("appended to {trajectory_path} ({rows} rows)"),
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The short commit hash of `HEAD`, or `"unknown"` outside a git checkout.
fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_owned())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Parses a `--size` value with the same named error as the global flag.
fn parse_size(raw: &str) -> Result<WorkloadSize, String> {
    WorkloadSize::parse(raw).ok_or_else(|| {
        format!("invalid value '{raw}' for --size (expected tiny, default or large)")
    })
}

/// Records one kernel execution to a `.sctrace` file.
fn record_one(workload: &str, size: WorkloadSize, path: &Path) -> Result<(u64, u64), String> {
    let benchmark = find(workload, size).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut writer = sigcomp_isa::TraceWriter::new();
    writer.set_meta("source", workload);
    writer.set_meta("size", size.name());
    let mut encode_error = None;
    benchmark
        .run_each(|rec| {
            if encode_error.is_none() {
                if let Err(e) = writer.push(rec) {
                    encode_error = Some(e);
                }
            }
        })
        .map_err(|e| format!("kernel {workload} failed: {e}"))?;
    if let Some(e) = encode_error {
        return Err(format!("encoding {workload}: {e}"));
    }
    writer
        .finish_to_path(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((writer.records(), writer.digest()))
}

fn trace_record(args: &[String]) -> ExitCode {
    let mut size = WorkloadSize::Default;
    let mut out: Option<String> = None;
    let mut all = false;
    let mut workload: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                let Some(raw) = it.next() else {
                    return fail("--size expects a value");
                };
                size = match parse_size(raw) {
                    Ok(s) => s,
                    Err(e) => return fail(&e),
                };
            }
            "--out" | "-o" => {
                let Some(value) = it.next() else {
                    return fail("--out expects a value");
                };
                out = Some(value.clone());
            }
            "--all" => all = true,
            other if other.starts_with('-') => {
                return fail(&format!("unknown option '{other}'"));
            }
            other => {
                if workload.replace(other.to_owned()).is_some() {
                    return fail("trace record expects exactly one workload");
                }
            }
        }
    }
    let Some(out) = out else {
        return fail("trace record requires --out PATH");
    };
    let targets: Vec<(String, std::path::PathBuf)> = match (all, workload) {
        (true, Some(_)) => return fail("--all and a workload name are mutually exclusive"),
        (false, None) => return fail("trace record expects a workload name or --all"),
        (true, None) => {
            let dir = Path::new(&out);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("trace record: cannot create {out}: {e}");
                return ExitCode::FAILURE;
            }
            suite_names()
                .iter()
                .map(|&name| (name.to_owned(), dir.join(format!("{name}.sctrace"))))
                .collect()
        }
        (false, Some(workload)) => vec![(workload, Path::new(&out).to_path_buf())],
    };
    for (workload, path) in &targets {
        match record_one(workload, size, path) {
            Ok((records, digest)) => println!(
                "recorded {workload} ({}): {records} records, digest {digest:016x} -> {}",
                size.name(),
                path.display()
            ),
            Err(e) => {
                eprintln!("trace record: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn trace_replay(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut schemes: Option<Vec<ExtScheme>> = None;
    let mut orgs: Option<Vec<OrgKind>> = None;
    let mut mems: Option<Vec<MemProfile>> = None;
    let mut node = ProcessNode::Paper180nm;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--energy-model" => {
                let Some(raw) = it.next() else {
                    return fail("--energy-model expects a value");
                };
                let Some(value) = ProcessNode::parse(raw) else {
                    let known: Vec<&str> = ProcessNode::ALL.iter().map(|n| n.id()).collect();
                    return fail(&format!(
                        "invalid value '{raw}' for --energy-model (expected one of {})",
                        known.join(", ")
                    ));
                };
                node = value;
            }
            "--schemes" => {
                let Some(raw) = it.next() else {
                    return fail("--schemes expects a value");
                };
                let Some(value) = parse_list(raw, ExtScheme::parse) else {
                    return fail(&format!("invalid value '{raw}' for --schemes"));
                };
                schemes = Some(value);
            }
            "--orgs" => {
                let Some(raw) = it.next() else {
                    return fail("--orgs expects a value");
                };
                if raw == "all" {
                    orgs = Some(OrgKind::ALL.to_vec());
                } else {
                    let Some(value) = parse_list(raw, OrgKind::parse) else {
                        return fail(&format!("invalid value '{raw}' for --orgs"));
                    };
                    orgs = Some(value);
                }
            }
            "--mems" => {
                let Some(raw) = it.next() else {
                    return fail("--mems expects a value");
                };
                let Some(value) = parse_list(raw, MemProfile::parse) else {
                    return fail(&format!("invalid value '{raw}' for --mems"));
                };
                mems = Some(value);
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown option '{other}'"));
            }
            other => {
                if file.replace(other.to_owned()).is_some() {
                    return fail("trace replay expects exactly one file");
                }
            }
        }
    }
    let Some(file) = file else {
        return fail("trace replay expects a .sctrace file");
    };
    let input = match TraceInput::load(&file) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("trace replay: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {} ({} records, digest {:016x})",
        input.name(),
        input.decoded().len(),
        input.digest()
    );
    let mut spec = SweepSpec::full(WorkloadSize::Tiny)
        .no_kernels()
        .trace_files(std::slice::from_ref(&input))
        .mems(&[MemProfile::Paper]);
    if let Some(schemes) = &schemes {
        spec = spec.schemes(schemes);
    }
    if let Some(orgs) = &orgs {
        spec = spec.orgs(orgs);
    }
    if let Some(mems) = &mems {
        spec = spec.mems(mems);
    }
    if spec.is_empty() {
        eprintln!("trace replay: the requested configuration set is empty");
        return ExitCode::FAILURE;
    }
    let summary =
        try_run_sweep(&spec, &SweepOptions::default()).expect("the local backend never fails");
    let model = node.model();
    let leaky = model.has_leakage();
    if leaky {
        println!("energy model: {node}");
    }
    print!(
        "{:<44} {:>16} {:>12} {:>12} {:>7} {:>8}",
        "configuration", "job id", "instructions", "cycles", "CPI", "saving"
    );
    if leaky {
        print!(" {:>8} {:>8}", "leakage", "total");
    }
    println!();
    for outcome in &summary.outcomes {
        print!(
            "{:<44} {:016x} {:>12} {:>12} {:>7.3} {:>7.1}%",
            outcome.spec.label(),
            outcome.spec.job_id(),
            outcome.metrics.instructions,
            outcome.metrics.cycles,
            outcome.cpi(),
            outcome.dynamic_energy_saving(&model) * 100.0
        );
        if leaky {
            print!(
                " {:>7.1}% {:>7.1}%",
                outcome.leakage_saving(&model) * 100.0,
                outcome.energy_saving(&model) * 100.0
            );
        }
        println!();
    }
    ExitCode::SUCCESS
}

fn trace_stat(args: &[String]) -> ExitCode {
    let [file] = args else {
        return fail("trace stat expects exactly one .sctrace file");
    };
    let mut reader = match TraceReader::open(file) {
        Ok(reader) => reader,
        Err(e) => {
            eprintln!("trace stat: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{file}:");
    println!("  records  {}", reader.records());
    println!("  digest   {:016x}", reader.declared_digest());
    for (key, value) in reader.meta().to_vec() {
        println!("  {key:<8} {value}");
    }
    let (mut loads, mut stores, mut branches, mut taken, mut writebacks) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut stats = SigStats::new();
    loop {
        match reader.next_record() {
            Ok(Some(rec)) => {
                stats.observe(&rec);
                if let Some(mem) = rec.mem {
                    if mem.is_store {
                        stores += 1;
                    } else {
                        loads += 1;
                    }
                }
                if let Some(branch) = rec.branch {
                    branches += 1;
                    taken += u64::from(branch.taken);
                }
                writebacks += u64::from(rec.writeback.is_some());
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("trace stat: {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("  loads      {loads}");
    println!("  stores     {stores}");
    println!("  branches   {branches} ({taken} taken)");
    println!("  writebacks {writebacks}");
    print!(
        "{}",
        histogram(
            "significant-byte patterns over the recorded operand values",
            "pattern",
            &pattern_histogram_rows(&stats)
        )
    );
    println!("  payload verified (count and digest match the header)");
    ExitCode::SUCCESS
}

fn trace_golden(args: &[String]) -> ExitCode {
    let [dir] = args else {
        return fail("trace golden expects exactly one output directory");
    };
    match golden::write_corpus(Path::new(dir)) {
        Ok(paths) => {
            for path in paths {
                println!("wrote {}", path.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace golden: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `repro analyze <workload|file.sctrace>`: builds the CFG, solves the
/// width fixpoint and prints the static significance picture without
/// simulating a cycle. Trace files are reconstructed from their recorded
/// (pc, word) pairs and analyzed under an unknown entry state — and since
/// the dynamic values are right there, every record is differentially
/// verified against the computed bounds on the spot.
fn run_analyze_command(args: &[String]) -> ExitCode {
    let mut target: Option<String> = None;
    let mut size = WorkloadSize::Default;
    let mut csv: Option<String> = None;
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                let Some(raw) = it.next() else {
                    return fail("--size expects a value");
                };
                size = match parse_size(raw) {
                    Ok(value) => value,
                    Err(e) => return fail(&e),
                };
            }
            "--csv" => {
                let Some(value) = it.next() else {
                    return fail("--csv expects a value");
                };
                csv = Some(value.clone());
            }
            "--json" => {
                let Some(value) = it.next() else {
                    return fail("--json expects a value");
                };
                json = Some(value.clone());
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown analyze option '{other}'"));
            }
            other => {
                if target.is_some() {
                    return fail("analyze expects exactly one workload or .sctrace file");
                }
                target = Some(other.to_owned());
            }
        }
    }
    let Some(target) = target else {
        return fail("analyze expects a workload name or a .sctrace file");
    };

    let is_trace = target.ends_with(".sctrace") || Path::new(&target).is_file();
    let report = if is_trace {
        let mut reader = match TraceReader::open(&target) {
            Ok(reader) => reader,
            Err(e) => {
                eprintln!("analyze: cannot read trace {target}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut records = Vec::new();
        loop {
            match reader.next_record() {
                Ok(Some(rec)) => records.push(rec),
                Ok(None) => break,
                Err(e) => {
                    eprintln!("analyze: {target}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let Some(program) = program_from_records(&records) else {
            eprintln!("analyze: {target}: the trace is empty, nothing to reconstruct");
            return ExitCode::FAILURE;
        };
        let analysis = analyze_program(&program, EntryState::Unknown);
        println!(
            "{target}: program reconstructed from {} records",
            records.len()
        );
        match verify_trace_against_bounds(&analysis, &records) {
            Ok(verified) => println!(
                "verified {} records ({} operand values) against the static bounds",
                verified.records, verified.values_checked
            ),
            Err(e) => {
                eprintln!("analyze: {target}: {e}");
                return ExitCode::FAILURE;
            }
        }
        WidthReport::from_analysis(&target, &analysis)
    } else {
        let Some(bench) = find(&target, size) else {
            return fail(&format!(
                "unknown workload '{target}' (expected one of {}, or an .sctrace file)",
                suite_names().join(", ")
            ));
        };
        let analysis = analyze_program(bench.program(), EntryState::KernelBoot);
        println!("{target} ({}): static width analysis", size.name());
        WidthReport::from_analysis(&target, &analysis)
    };

    println!(
        "  blocks        {} ({} reachable)",
        report.blocks, report.reachable_blocks
    );
    println!("  instructions  {}", report.instructions);
    println!("  operand slots {}", report.operand_slots());
    println!(
        "  mean bound    {:.2} bytes (predicted saving {:.1} %)",
        report.mean_bound_bytes(),
        report.predicted_saving() * 100.0
    );
    println!();
    print!(
        "{}",
        histogram(
            "Static width bounds (operand slots proven to fit k bytes)",
            "bound",
            &report.histogram_rows()
        )
    );
    println!();
    println!(
        "{:<10} {:>8} {:>14} {:>12}",
        "op", "count", "mean op bytes", "result bound"
    );
    for row in &report.per_op {
        println!(
            "{:<10} {:>8} {:>14.2} {:>12}",
            row.op.mnemonic(),
            row.count,
            row.mean_operand_bytes,
            row.result.map_or("-", Width::label)
        );
    }

    for (path, content, what) in [
        (csv.as_deref(), report.to_csv(), "CSV"),
        (json.as_deref(), report.to_json(), "JSON"),
    ] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("analyze: cannot write {what} to {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {what} to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs one shard of a sharded sweep (the pipe transport; see
/// `sigcomp_explore::backend`): reads a dispatch body holding exactly this
/// shard's jobs from stdin, runs them on the in-process executor against
/// the shared result cache, and answers on stdout with the report a fleet
/// worker would send over HTTP.
fn run_worker_command(args: &[String]) -> ExitCode {
    let mut cache_dir: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut trace_paths: Vec<String> = Vec::new();
    let mut obs_log: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache" => {
                let Some(value) = it.next() else {
                    return fail("--cache expects a value");
                };
                cache_dir = Some(value.clone());
            }
            "--workers" => {
                let Some(raw) = it.next() else {
                    return fail("--workers expects a value");
                };
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --workers (expected a positive integer)"
                    ));
                };
                workers = Some(value);
            }
            "--traces" => {
                let Some(raw) = it.next() else {
                    return fail("--traces expects a value");
                };
                trace_paths = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            "--obs-log" => {
                let Some(value) = it.next() else {
                    return fail("--obs-log expects a value");
                };
                obs_log = Some(value.clone());
            }
            other => return fail(&format!("unknown worker option '{other}'")),
        }
    }
    if let Some(path) = &obs_log {
        if let Err(e) = sigcomp_obs::global().open_jsonl_log(Path::new(path)) {
            eprintln!("worker: cannot open obs log {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(cache_dir) = cache_dir else {
        return fail("worker requires --cache DIR (the shared merge point)");
    };
    let cache = match ResultCache::open(&cache_dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("worker: cannot open result cache at {cache_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut traces = Vec::with_capacity(trace_paths.len());
    for path in &trace_paths {
        match TraceInput::load(path) {
            Ok(input) => traces.push(input),
            Err(e) => {
                eprintln!("worker: cannot read trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Drain stdin to EOF *before* simulating — the parent relies on this to
    // feed every worker without deadlocking against their reports.
    let mut body = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut body) {
        eprintln!("worker: cannot read the dispatch body from stdin: {e}");
        return ExitCode::FAILURE;
    }
    let jobs = match parse_dispatch(&body) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    for job in &jobs {
        if let TraceSource::File { digest } = job.source {
            if !traces.iter().any(|t| t.digest() == digest) {
                eprintln!(
                    "worker: no trace with digest {digest:016x} for job {} \
                     (pass its .sctrace file via --traces)",
                    job.label()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let options = SweepOptions {
        workers,
        cache: Some(cache),
        backend: ExecBackend::LocalThreads,
    };
    let summary = match try_run_jobs_traced(&jobs, &traces, &options) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("worker: {e}");
            return ExitCode::FAILURE;
        }
    };
    // This process ran only its shard, so its registry snapshot is exactly
    // the shard's delta for the parent to fold in.
    print!(
        "{}",
        encode_report(&summary.outcomes, &sigcomp_obs::global().snapshot())
    );
    ExitCode::SUCCESS
}

/// Dispatches `repro trace <subcommand> …`.
fn run_trace_command(args: &[String]) -> ExitCode {
    let Some(verb) = args.first() else {
        return fail("trace expects a subcommand (record, replay, stat or golden)");
    };
    let rest = &args[1..];
    match verb.as_str() {
        "record" => trace_record(rest),
        "replay" => trace_replay(rest),
        "stat" => trace_stat(rest),
        "golden" => trace_golden(rest),
        other => fail(&format!("unknown trace subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let mut size = WorkloadSize::Default;
    let mut commands: Vec<String> = Vec::new();
    let mut sweep_args = SweepArgs::default();

    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `trace` and `worker` own their own argument grammars (subcommand +
    // positional files / the worker's own flags), so they are dispatched
    // before the global flag loop.
    if argv.first().map(String::as_str) == Some("trace") {
        return run_trace_command(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("worker") {
        return run_worker_command(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("analyze") {
        return run_analyze_command(&argv[1..]);
    }
    // `fleet <verb>` reuses the global flag grammar (a fleet sweep takes
    // the same axes/cache/export flags as a plain sweep): the verb is
    // rewritten into an internal command name and the remaining arguments
    // fall through to the flag loop below.
    if argv.first().map(String::as_str) == Some("fleet") {
        let command = match argv.get(1).map(String::as_str) {
            Some("serve") => "fleet-serve",
            Some("sweep") => "fleet-sweep",
            Some("status") => "fleet-status",
            Some(other) => {
                return fail(&format!(
                    "unknown fleet subcommand '{other}' (expected serve, sweep or status)"
                ))
            }
            None => return fail("fleet expects a subcommand (serve, sweep or status)"),
        };
        commands.push(command.to_owned());
        argv.drain(..2);
    }

    let mut args = argv.into_iter();
    // An option's value: `--flag VALUE`. A missing value is reported by
    // name rather than as a generic usage failure.
    macro_rules! value_of {
        ($flag:expr) => {
            match args.next() {
                Some(value) => value,
                None => return fail(&format!("{} expects a value", $flag)),
            }
        };
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let raw = value_of!("--size");
                size = match parse_size(&raw) {
                    Ok(value) => value,
                    Err(e) => return fail(&e),
                };
            }
            "--workers" => {
                let raw = value_of!("--workers");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --workers (expected a positive integer)"
                    ));
                };
                sweep_args.workers = Some(value);
            }
            "--max-batch" => {
                let raw = value_of!("--max-batch");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --max-batch (expected a positive integer)"
                    ));
                };
                sweep_args.max_batch = Some(value);
            }
            "--shards" => {
                let raw = value_of!("--shards");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --shards (expected a positive integer)"
                    ));
                };
                sweep_args.shards = Some(value);
            }
            "--backend" => {
                let raw = value_of!("--backend");
                sweep_args.backend = match parse_backend(&raw) {
                    Ok(choice) => Some(choice),
                    Err(e) => return fail(&e),
                };
            }
            "--memo-cap" => {
                let raw = value_of!("--memo-cap");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --memo-cap (expected a positive integer)"
                    ));
                };
                sweep_args.memo_cap = Some(value);
            }
            "--ticket-cap" => {
                let raw = value_of!("--ticket-cap");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --ticket-cap (expected a positive integer)"
                    ));
                };
                sweep_args.ticket_cap = Some(value);
            }
            "--max-conns" => {
                let raw = value_of!("--max-conns");
                let Some(value) = raw.parse().ok().filter(|&n: &usize| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --max-conns (expected a positive integer)"
                    ));
                };
                sweep_args.max_conns = Some(value);
            }
            "--read-deadline-ms" => {
                let raw = value_of!("--read-deadline-ms");
                let Some(value) = raw.parse().ok().filter(|&n: &u64| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --read-deadline-ms \
                         (expected a positive integer)"
                    ));
                };
                sweep_args.read_deadline_ms = Some(value);
            }
            "--schemes" => {
                let raw = value_of!("--schemes");
                let Some(value) = parse_list(&raw, ExtScheme::parse) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --schemes (expected a comma-separated \
                         subset of 2bit, 3bit, halfword)"
                    ));
                };
                sweep_args.schemes = Some(value);
            }
            "--orgs" => {
                let raw = value_of!("--orgs");
                if raw == "all" {
                    sweep_args.orgs = Some(OrgKind::ALL.to_vec());
                } else {
                    let Some(value) = parse_list(&raw, OrgKind::parse) else {
                        let known: Vec<&str> = OrgKind::ALL.iter().map(|o| o.id()).collect();
                        return fail(&format!(
                            "invalid value '{raw}' for --orgs (expected 'all' or a \
                             comma-separated subset of {})",
                            known.join(", ")
                        ));
                    };
                    sweep_args.orgs = Some(value);
                }
            }
            "--mems" => {
                let raw = value_of!("--mems");
                let Some(value) = parse_list(&raw, MemProfile::parse) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --mems (expected a comma-separated \
                         subset of paper, small-l1, wide-l2, slow-memory)"
                    ));
                };
                sweep_args.mems = Some(value);
            }
            "--traces" => {
                let raw = value_of!("--traces");
                let paths: Vec<String> = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_owned)
                    .collect();
                if paths.is_empty() {
                    return fail(&format!(
                        "invalid value '{raw}' for --traces (expected a comma-separated \
                         list of .sctrace paths)"
                    ));
                }
                sweep_args.traces = Some(paths);
            }
            "--energy-model" => {
                let raw = value_of!("--energy-model");
                let Some(value) = parse_list(&raw, ProcessNode::parse) else {
                    let known: Vec<&str> = ProcessNode::ALL.iter().map(|n| n.id()).collect();
                    return fail(&format!(
                        "invalid value '{raw}' for --energy-model (expected a comma-separated \
                         subset of {})",
                        known.join(", ")
                    ));
                };
                sweep_args.energy_models = Some(value);
            }
            "--cache" => sweep_args.cache_dir = Some(value_of!("--cache")),
            "--no-cache" => sweep_args.no_cache = true,
            "--csv" => sweep_args.csv = Some(value_of!("--csv")),
            "--json" => sweep_args.json = Some(value_of!("--json")),
            "--addr" => sweep_args.addr = Some(value_of!("--addr")),
            "--obs-log" => sweep_args.obs_log = Some(value_of!("--obs-log")),
            "--quick" => sweep_args.bench_quick = true,
            "--label" => sweep_args.bench_label = Some(value_of!("--label")),
            "--out" => sweep_args.bench_out = Some(value_of!("--out")),
            "--corpus" => sweep_args.bench_corpus = Some(value_of!("--corpus")),
            "--check" => sweep_args.bench_check = Some(value_of!("--check")),
            "--compare" => sweep_args.bench_compare = Some(value_of!("--compare")),
            "--trajectory" => sweep_args.bench_trajectory = Some(value_of!("--trajectory")),
            "--fleet" => {
                let raw = value_of!("--fleet");
                let workers: Vec<String> = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                    .map(str::to_owned)
                    .collect();
                if workers.is_empty() {
                    return fail(&format!(
                        "invalid value '{raw}' for --fleet (expected a comma-separated \
                         list of host:port worker addresses)"
                    ));
                }
                sweep_args.fleet_workers = Some(workers);
            }
            "--frontier" => sweep_args.frontier = Some(value_of!("--frontier")),
            "--self-addr" => sweep_args.self_addr = Some(value_of!("--self-addr")),
            "--heartbeat-ms" => {
                let raw = value_of!("--heartbeat-ms");
                let Some(value) = raw.parse().ok().filter(|&n: &u64| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --heartbeat-ms (expected a positive integer)"
                    ));
                };
                sweep_args.heartbeat_ms = Some(value);
            }
            "--timeout-ms" => {
                let raw = value_of!("--timeout-ms");
                let Some(value) = raw.parse().ok().filter(|&n: &u64| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --timeout-ms (expected a positive integer)"
                    ));
                };
                sweep_args.timeout_ms = Some(value);
            }
            "--attempts" => {
                let raw = value_of!("--attempts");
                let Some(value) = raw.parse().ok().filter(|&n: &u32| n > 0) else {
                    return fail(&format!(
                        "invalid value '{raw}' for --attempts (expected a positive integer)"
                    ));
                };
                sweep_args.attempts = Some(value);
            }
            "--static-prune" => {
                let raw = value_of!("--static-prune");
                let Some(value) = raw
                    .parse()
                    .ok()
                    .filter(|&p: &f64| p.is_finite() && p >= 0.0)
                else {
                    return fail(&format!(
                        "invalid value '{raw}' for --static-prune \
                         (expected a non-negative saving percentage)"
                    ));
                };
                sweep_args.static_prune = Some(value);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return fail(&format!("unknown option '{other}'"));
            }
            // `trace` and `worker` own their own grammars (their option
            // flags would otherwise be misreported by this loop), so a
            // misplaced one gets a pointed error instead of
            // "unknown option '--out'".
            "trace" => {
                return fail(
                    "'trace' must be the first argument \
                     (e.g. `repro trace record rawcaudio --size tiny --out f.sctrace`)",
                );
            }
            "worker" => {
                return fail(
                    "'worker' must be the first argument \
                     (e.g. `repro worker --cache DIR`)",
                );
            }
            "analyze" => {
                return fail(
                    "'analyze' must be the first argument \
                     (e.g. `repro analyze rawcaudio --size tiny`)",
                );
            }
            "fleet" => {
                return fail(
                    "'fleet' must be the first argument \
                     (e.g. `repro fleet sweep --fleet host:port --cache DIR`)",
                );
            }
            other => commands.push(other.to_owned()),
        }
    }
    if commands.is_empty() {
        commands.push("all".to_owned());
    }

    // Subcommand-specific flags must not be silently ignored: a user who
    // passes `--csv` without `sweep` (or `--addr` without `serve`) would
    // otherwise believe the flag took effect.
    let runs = |command: &str| commands.iter().any(|c| c == command);
    let sweeps = runs("sweep") || runs("fleet-sweep");
    let serves = runs("serve") || runs("fleet-serve");
    if !runs("sweep") && sweep_args.shards.is_some() {
        return fail("--shards only applies to the sweep subcommand");
    }
    if !sweeps {
        for (set, flag) in [
            (sweep_args.traces.is_some(), "--traces"),
            (sweep_args.energy_models.is_some(), "--energy-model"),
            (sweep_args.csv.is_some(), "--csv"),
            (sweep_args.json.is_some(), "--json"),
            (sweep_args.static_prune.is_some(), "--static-prune"),
        ] {
            if set {
                return fail(&format!(
                    "{flag} only applies to the sweep and fleet sweep subcommands"
                ));
            }
        }
    }
    if !sweeps && !runs("energy") {
        for (set, flag) in [
            (sweep_args.schemes.is_some(), "--schemes"),
            (sweep_args.orgs.is_some(), "--orgs"),
            (sweep_args.mems.is_some(), "--mems"),
        ] {
            if set {
                return fail(&format!(
                    "{flag} only applies to the sweep, fleet sweep and energy subcommands"
                ));
            }
        }
    }
    if !serves {
        for (set, flag) in [
            (sweep_args.addr.is_some(), "--addr"),
            (sweep_args.max_batch.is_some(), "--max-batch"),
            (sweep_args.backend.is_some(), "--backend"),
            (sweep_args.memo_cap.is_some(), "--memo-cap"),
            (sweep_args.ticket_cap.is_some(), "--ticket-cap"),
            (sweep_args.max_conns.is_some(), "--max-conns"),
            (sweep_args.read_deadline_ms.is_some(), "--read-deadline-ms"),
            (sweep_args.self_addr.is_some(), "--self-addr"),
            (sweep_args.heartbeat_ms.is_some(), "--heartbeat-ms"),
        ] {
            if set {
                return fail(&format!(
                    "{flag} only applies to the serve and fleet serve subcommands"
                ));
            }
        }
    }
    if !serves && !runs("fleet-status") && sweep_args.frontier.is_some() {
        return fail("--frontier only applies to the serve and fleet status subcommands");
    }
    if !runs("fleet-sweep") && sweep_args.fleet_workers.is_some() {
        return fail("--fleet only applies to the fleet sweep subcommand");
    }
    if !runs("fleet-sweep") && sweep_args.attempts.is_some() {
        return fail("--attempts only applies to the fleet sweep subcommand");
    }
    if !runs("fleet-sweep") && !runs("fleet-status") && sweep_args.timeout_ms.is_some() {
        return fail("--timeout-ms only applies to the fleet sweep and fleet status subcommands");
    }
    if !runs("bench") {
        for (set, flag) in [
            (sweep_args.bench_quick, "--quick"),
            (sweep_args.bench_label.is_some(), "--label"),
            (sweep_args.bench_out.is_some(), "--out"),
            (sweep_args.bench_corpus.is_some(), "--corpus"),
            (sweep_args.bench_check.is_some(), "--check"),
            (sweep_args.bench_compare.is_some(), "--compare"),
            (sweep_args.bench_trajectory.is_some(), "--trajectory"),
        ] {
            if set {
                return fail(&format!("{flag} only applies to the bench subcommand"));
            }
        }
    }
    if !sweeps && !serves && !runs("bench") && sweep_args.obs_log.is_some() {
        return fail("--obs-log only applies to the sweep, serve and bench subcommands");
    }
    if !sweeps
        && !runs("energy")
        && !serves
        && (sweep_args.workers.is_some() || sweep_args.no_cache || sweep_args.cache_dir.is_some())
    {
        return fail(
            "--workers/--cache/--no-cache only apply to the sweep, energy and serve subcommands",
        );
    }

    // One JSONL event stream per process: opened up front so every
    // instrumented path of every requested subcommand feeds it.
    if let Some(path) = &sweep_args.obs_log {
        if let Err(e) = sigcomp_obs::global().open_jsonl_log(Path::new(path)) {
            eprintln!("repro: cannot open obs log {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The activity studies feed several tables; run them lazily and only once.
    let mut byte_rows = None;
    let mut half_rows = None;
    let mut byte_activity = |size: WorkloadSize| {
        byte_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_byte()))
            .clone()
    };
    let mut half_activity = |size: WorkloadSize| {
        half_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_halfword()))
            .clone()
    };

    for command in &commands {
        let expanded: Vec<&str> = if command == "all" {
            vec![
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "fig4",
                "fig6",
                "fig8",
                "fig10",
                "bottleneck",
            ]
        } else {
            vec![command.as_str()]
        };
        for cmd in expanded {
            match cmd {
                "table1" => print!("{}", table1(&merged_stats(&byte_activity(size)))),
                "table2" => print!("{}", table2()),
                "table3" => print!("{}", table3(&merged_stats(&byte_activity(size)))),
                "table4" => print!("{}", table4()),
                "table5" => print!(
                    "{}",
                    activity_table(&byte_activity(size), ExtScheme::ThreeBit)
                ),
                "table6" => print!(
                    "{}",
                    activity_table(&half_activity(size), ExtScheme::Halfword)
                ),
                "fig4" => {
                    let kinds = figure_orgs(4);
                    print!(
                        "{}",
                        figure(
                            "Figure 4: CPI of the byte-serial and halfword-serial pipelines",
                            &cpi_study(size, &kinds),
                            &kinds
                        )
                    );
                }
                "fig6" => {
                    let kinds = figure_orgs(6);
                    print!(
                        "{}",
                        figure(
                            "Figure 6: CPI of the byte semi-parallel pipeline",
                            &cpi_study(size, &kinds),
                            &kinds
                        )
                    );
                }
                "fig8" => {
                    let kinds = figure_orgs(8);
                    print!(
                        "{}",
                        figure(
                            "Figure 8: CPI of the byte-parallel skewed pipeline",
                            &cpi_study(size, &kinds),
                            &kinds
                        )
                    );
                }
                "fig10" => {
                    let kinds = figure_orgs(10);
                    print!(
                        "{}",
                        figure(
                            "Figure 10: CPI of the byte-parallel compressed and skewed+bypass pipelines",
                            &cpi_study(size, &kinds),
                            &kinds
                        )
                    );
                }
                "bottleneck" => print!("{}", bottleneck(size)),
                "sweep" => {
                    let code = run_sweep_command(size, &sweep_args, false);
                    if code != ExitCode::SUCCESS {
                        return code;
                    }
                }
                "fleet-sweep" => {
                    let code = run_sweep_command(size, &sweep_args, true);
                    if code != ExitCode::SUCCESS {
                        return code;
                    }
                }
                "fleet-status" => {
                    let code = run_fleet_status_command(&sweep_args);
                    if code != ExitCode::SUCCESS {
                        return code;
                    }
                }
                "energy" => {
                    let code = run_energy_command(size, &sweep_args);
                    if code != ExitCode::SUCCESS {
                        return code;
                    }
                }
                "serve" | "fleet-serve" => return run_serve_command(&sweep_args),
                "bench" => {
                    let code = run_bench_command(&sweep_args);
                    if code != ExitCode::SUCCESS {
                        return code;
                    }
                }
                other => return fail(&format!("unknown command '{other}'")),
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}
