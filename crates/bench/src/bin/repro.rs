//! `repro` — regenerate every table and figure of the paper, run
//! design-space sweeps (single-process or sharded across worker processes),
//! record/replay portable traces, and serve simulations over HTTP.
//!
//! `USAGE` below is the reference for every subcommand and option; `repro
//! --help` (or `--help` after any subcommand) prints it. Each option is one
//! entry of `OPTIONS`: its value grammar and the subcommands it applies to,
//! read by one parser, `parse`.
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

/// Reports a malformed invocation: the specific problem first, the usage
/// text after, and a failing exit code back to the shell.
fn fail(message: &str) -> ExitCode {
    eprintln!("repro: {message}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Reports a failure of a well-formed invocation: the message alone (no
/// usage text) and a failing exit code.
fn failure(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// A subcommand: what an option's scope is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    /// `table1` … `bottleneck` and `all`: the paper's artefacts.
    Paper,
    Sweep,
    FleetSweep,
    Energy,
    Serve,
    FleetServe,
    FleetStatus,
    Bench,
    TraceRecord,
    TraceReplay,
    TraceStat,
    TraceGolden,
    Analyze,
    Worker,
}

use Cmd::{
    Analyze, Bench, Energy, FleetServe, FleetStatus, FleetSweep, Paper, Serve, Sweep, TraceGolden,
    TraceRecord, TraceReplay, TraceStat, Worker,
};

impl Cmd {
    /// The subcommand's name as errors print it.
    fn name(self) -> &'static str {
        match self {
            Paper => "table/figure",
            Sweep => "sweep",
            FleetSweep => "fleet sweep",
            Energy => "energy",
            Serve => "serve",
            FleetServe => "fleet serve",
            FleetStatus => "fleet status",
            Bench => "bench",
            TraceRecord => "trace record",
            TraceReplay => "trace replay",
            TraceStat => "trace stat",
            TraceGolden => "trace golden",
            Analyze => "analyze",
            Worker => "worker",
        }
    }
}

/// The paper artefacts, in the order `all` prints them.
#[rustfmt::skip]
const PAPER: [&str; 11] = [
    "table1", "table2", "table3", "table4", "table5", "table6",
    "fig4", "fig6", "fig8", "fig10", "bottleneck",
];

/// The value grammar of one option.
#[derive(Clone, Copy)]
enum Kind {
    /// A switch: takes no value.
    Switch,
    /// Free text: a path, an address, a label.
    Text,
    /// A positive integer.
    Count,
    /// A non-empty comma list of free-text items, named for errors.
    List(&'static str),
    Size,
    Schemes,
    Orgs,
    Mems,
    Nodes,
    Backend,
    /// A non-negative saving percentage.
    Percent,
}

/// A parsed option value, typed by its option's `Kind`.
enum Value {
    Switch,
    Text(String),
    Count(usize),
    List(Vec<String>),
    Size(WorkloadSize),
    Schemes(Vec<ExtScheme>),
    Orgs(Vec<OrgKind>),
    Mems(Vec<MemProfile>),
    Nodes(Vec<ProcessNode>),
    Backend(BackendChoice),
    Percent(f64),
}

/// Joins `words` as prose: `a`, `a and b`, `a, b and c`.
fn prose(words: &[&str], conjunction: &str) -> String {
    match words.split_last() {
        Some((last, rest)) if !rest.is_empty() => {
            format!("{} {conjunction} {last}", rest.join(", "))
        }
        _ => words.concat(),
    }
}

/// The accepted ids of a comma-list option, for its error message.
fn subset<T: Copy>(all: &[T], id: fn(T) -> &'static str) -> String {
    let ids: Vec<&str> = all.iter().map(|&item| id(item)).collect();
    format!("comma-separated subset of {}", ids.join(", "))
}

impl Kind {
    /// Parses one option value, or says what was expected instead.
    fn parse(self, raw: &str) -> Result<Value, String> {
        fn list<T>(raw: &str, parse: fn(&str) -> Option<T>) -> Option<Vec<T>> {
            raw.split(',').map(|part| parse(part.trim())).collect()
        }
        match self {
            Kind::Switch => Ok(Value::Switch),
            Kind::Text => Ok(Value::Text(raw.to_owned())),
            Kind::Count => raw
                .parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .map(Value::Count)
                .ok_or_else(|| "expected a positive integer".to_owned()),
            Kind::List(what) => {
                let items: Vec<String> = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|item| !item.is_empty())
                    .map(str::to_owned)
                    .collect();
                if items.is_empty() {
                    return Err(format!("expected a comma-separated list of {what}"));
                }
                Ok(Value::List(items))
            }
            Kind::Size => WorkloadSize::parse(raw)
                .map(Value::Size)
                .ok_or_else(|| "expected tiny, default or large".to_owned()),
            Kind::Schemes => list(raw, ExtScheme::parse)
                .map(Value::Schemes)
                .ok_or_else(|| format!("expected a {}", subset(ExtScheme::ALL, ExtScheme::id))),
            Kind::Orgs if raw == "all" => Ok(Value::Orgs(OrgKind::ALL.to_vec())),
            Kind::Orgs => list(raw, OrgKind::parse).map(Value::Orgs).ok_or_else(|| {
                format!("expected 'all' or a {}", subset(OrgKind::ALL, OrgKind::id))
            }),
            Kind::Mems => list(raw, MemProfile::parse)
                .map(Value::Mems)
                .ok_or_else(|| format!("expected a {}", subset(MemProfile::ALL, MemProfile::id))),
            Kind::Nodes => list(raw, ProcessNode::parse)
                .map(Value::Nodes)
                .ok_or_else(|| format!("expected a {}", subset(ProcessNode::ALL, ProcessNode::id))),
            Kind::Backend => parse_backend(raw).map(Value::Backend),
            Kind::Percent => raw
                .parse()
                .ok()
                .filter(|&p: &f64| p.is_finite() && p >= 0.0)
                .map(Value::Percent)
                .ok_or_else(|| "expected a non-negative saving percentage".to_owned()),
        }
    }
}

/// One command-line option: its flag, value grammar and scope.
struct Opt {
    name: &'static str,
    /// A one-letter spelling (`-o` for `--out`).
    short: Option<&'static str>,
    kind: Kind,
    /// The subcommands it applies to.
    scope: &'static [Cmd],
}

const fn opt(name: &'static str, kind: Kind, scope: &'static [Cmd]) -> Opt {
    Opt {
        name,
        short: None,
        kind,
        scope,
    }
}

impl Opt {
    /// The error for this option given outside its scope.
    fn scope_error(&self) -> String {
        let names: Vec<&str> = self.scope.iter().map(|cmd| cmd.name()).collect();
        let noun = if names.len() == 1 {
            "subcommand"
        } else {
            "subcommands"
        };
        format!(
            "{} only applies to the {} {noun}",
            self.name,
            prose(&names, "and")
        )
    }
}

/// Every option `repro` takes; `USAGE` documents each one. `--help`/`-h`
/// is the only flag outside the table: every subcommand takes it.
#[rustfmt::skip]
const OPTIONS: &[Opt] = &[
    opt("--size", Kind::Size, &[
        Paper, Sweep, FleetSweep, Energy, Serve, FleetServe, FleetStatus, Bench, TraceRecord, Analyze,
    ]),
    opt("--workers",          Kind::Count,    &[Sweep, FleetSweep, Energy, Serve, FleetServe, Worker]),
    opt("--cache",            Kind::Text,     &[Sweep, FleetSweep, Energy, Serve, FleetServe, Worker]),
    opt("--no-cache",         Kind::Switch,   &[Sweep, FleetSweep, Energy, Serve, FleetServe]),
    opt("--shards",           Kind::Count,    &[Sweep]),
    opt("--schemes",          Kind::Schemes,  &[Sweep, FleetSweep, Energy, TraceReplay]),
    opt("--orgs",             Kind::Orgs,     &[Sweep, FleetSweep, Energy, TraceReplay]),
    opt("--mems",             Kind::Mems,     &[Sweep, FleetSweep, Energy, TraceReplay]),
    opt("--traces",           Kind::List(".sctrace paths"), &[Sweep, FleetSweep, Worker]),
    opt("--energy-model",     Kind::Nodes,    &[Sweep, FleetSweep, TraceReplay]),
    opt("--csv",              Kind::Text,     &[Sweep, FleetSweep, Analyze]),
    opt("--json",             Kind::Text,     &[Sweep, FleetSweep, Analyze]),
    opt("--static-prune",     Kind::Percent,  &[Sweep, FleetSweep]),
    opt("--obs-log",          Kind::Text,     &[Sweep, FleetSweep, Serve, FleetServe, Bench, Worker]),
    opt("--fleet",            Kind::List("host:port worker addresses"), &[FleetSweep]),
    opt("--timeout-ms",       Kind::Count,    &[FleetSweep, FleetStatus]),
    opt("--attempts",         Kind::Count,    &[FleetSweep]),
    opt("--addr",             Kind::Text,     &[Serve, FleetServe]),
    opt("--max-batch",        Kind::Count,    &[Serve, FleetServe]),
    opt("--backend",          Kind::Backend,  &[Serve, FleetServe]),
    opt("--memo-cap",         Kind::Count,    &[Serve, FleetServe]),
    opt("--ticket-cap",       Kind::Count,    &[Serve, FleetServe]),
    opt("--max-conns",        Kind::Count,    &[Serve, FleetServe]),
    opt("--read-deadline-ms", Kind::Count,    &[Serve, FleetServe]),
    opt("--self-addr",        Kind::Text,     &[Serve, FleetServe]),
    opt("--heartbeat-ms",     Kind::Count,    &[Serve, FleetServe]),
    opt("--frontier",         Kind::Text,     &[Serve, FleetServe, FleetStatus]),
    opt("--quick",            Kind::Switch,   &[Bench]),
    opt("--label",            Kind::Text,     &[Bench]),
    Opt { short: Some("-o"), ..opt("--out", Kind::Text, &[Bench, TraceRecord]) },
    opt("--corpus",           Kind::Text,     &[Bench]),
    opt("--check",            Kind::Text,     &[Bench]),
    opt("--compare",          Kind::Text,     &[Bench]),
    opt("--trajectory",       Kind::Text,     &[Bench]),
    opt("--all",              Kind::Switch,   &[TraceRecord]),
];

/// A parsed command line.
struct Invocation {
    /// The subcommands to run, in order, each with the word that named it
    /// (`table3`, `sweep`, …). A trace, analyze or worker run is one entry.
    commands: Vec<(Cmd, String)>,
    /// The positional arguments of a trace or analyze subcommand.
    args: Vec<String>,
    /// The options given (the last occurrence of a flag wins).
    values: Vec<(&'static Opt, Value)>,
}

impl Invocation {
    /// The value given for `flag`, if any.
    fn get(&self, flag: &str) -> Option<&Value> {
        debug_assert!(
            OPTIONS.iter().any(|o| o.name == flag),
            "{flag} is not in OPTIONS"
        );
        self.values
            .iter()
            .find(|(opt, _)| opt.name == flag)
            .map(|(_, value)| value)
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.get(flag) {
            Some(Value::Text(text)) => Some(text),
            _ => None,
        }
    }

    fn count(&self, flag: &str) -> Option<usize> {
        match self.get(flag) {
            Some(&Value::Count(n)) => Some(n),
            _ => None,
        }
    }

    /// A comma-list option's items (none when it was not given).
    fn list(&self, flag: &str) -> &[String] {
        match self.get(flag) {
            Some(Value::List(items)) => items,
            _ => &[],
        }
    }

    fn size(&self) -> WorkloadSize {
        match self.get("--size") {
            Some(&Value::Size(size)) => size,
            _ => WorkloadSize::Default,
        }
    }
}

/// Why a command line yields no `Invocation`.
#[derive(Debug, PartialEq)]
enum Stop {
    /// `--help` or `-h`: print the usage text and succeed.
    Help,
    /// A malformed invocation, named.
    Error(String),
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Stop::Error(message)
    }
}

/// The subcommand a word of the main command line names.
fn main_command(word: &str) -> Result<Cmd, String> {
    let example = match word {
        "sweep" => return Ok(Sweep),
        "energy" => return Ok(Energy),
        "serve" => return Ok(Serve),
        "bench" => return Ok(Bench),
        "all" => return Ok(Paper),
        _ if PAPER.contains(&word) => return Ok(Paper),
        "trace" => "trace record rawcaudio --size tiny --out f.sctrace",
        "worker" => "worker --cache DIR",
        "analyze" => "analyze rawcaudio --size tiny",
        "fleet" => "fleet sweep --fleet host:port --cache DIR",
        _ => return Err(format!("unknown command '{word}'")),
    };
    Err(format!(
        "'{word}' must be the first argument (e.g. `repro {example}`)"
    ))
}

/// The subcommand `trace VERB` or `fleet VERB` names.
fn group_verb(group: &str, verb: Option<&String>) -> Result<Cmd, Stop> {
    let verbs: &[(&str, Cmd)] = if group == "trace" {
        &[
            ("record", TraceRecord),
            ("replay", TraceReplay),
            ("stat", TraceStat),
            ("golden", TraceGolden),
        ]
    } else {
        &[
            ("serve", FleetServe),
            ("sweep", FleetSweep),
            ("status", FleetStatus),
        ]
    };
    let names: Vec<&str> = verbs.iter().map(|&(name, _)| name).collect();
    let names = prose(&names, "or");
    match verb.map(String::as_str) {
        Some("--help" | "-h") => Err(Stop::Help),
        Some(verb) => verbs
            .iter()
            .find(|&&(name, _)| name == verb)
            .map(|&(_, cmd)| cmd)
            .ok_or_else(|| {
                format!("unknown {group} subcommand '{verb}' (expected {names})").into()
            }),
        None => Err(format!("{group} expects a subcommand ({names})").into()),
    }
}

/// Parses `repro`'s arguments (without the program name) against
/// `OPTIONS`: each flag's value by its kind, then each flag's scope against
/// the subcommands named.
fn parse(argv: &[String]) -> Result<Invocation, Stop> {
    // A trace, analyze or worker run is the only command of its line and
    // takes positional arguments. On any other line every word names a
    // subcommand, and several may run in turn.
    let mut commands = Vec::new();
    let (alone, rest) = match argv.first().map(String::as_str) {
        Some("trace") => (Some(group_verb("trace", argv.get(1))?), &argv[2..]),
        Some("fleet") => {
            let cmd = group_verb("fleet", argv.get(1))?;
            commands.push((cmd, cmd.name().to_owned()));
            (None, &argv[2..])
        }
        Some("analyze") => (Some(Analyze), &argv[1..]),
        Some("worker") => (Some(Worker), &argv[1..]),
        _ => (None, argv),
    };
    commands.extend(alone.map(|cmd| (cmd, cmd.name().to_owned())));

    let mut args = Vec::new();
    let mut values: Vec<(&'static Opt, Value)> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Err(Stop::Help);
        }
        if !arg.starts_with('-') {
            match alone {
                Some(_) => args.push(arg.clone()),
                None => commands.push((main_command(arg)?, arg.clone())),
            }
            continue;
        }
        let Some(opt) = OPTIONS
            .iter()
            .find(|o| o.name == arg || o.short == Some(arg.as_str()))
        else {
            let whose = alone.map_or(String::new(), |cmd| format!("{} ", cmd.name()));
            return Err(format!("unknown {whose}option '{arg}'").into());
        };
        let value = if let Kind::Switch = opt.kind {
            Value::Switch
        } else {
            let raw = it
                .next()
                .ok_or_else(|| format!("{} expects a value", opt.name))?;
            opt.kind.parse(raw).map_err(|expected| {
                format!("invalid value '{raw}' for {} ({expected})", opt.name)
            })?
        };
        values.retain(|(given, _)| given.name != opt.name);
        values.push((opt, value));
    }
    if commands.is_empty() {
        commands.push((Paper, "all".to_owned()));
    }
    // A flag outside every subcommand named would be silently ignored: a
    // user who passes `--csv` without `sweep` would believe it took effect.
    if let Some((opt, _)) = values
        .iter()
        .find(|(opt, _)| !commands.iter().any(|(cmd, _)| opt.scope.contains(cmd)))
    {
        return Err(opt.scope_error().into());
    }
    Ok(Invocation {
        commands,
        args,
        values,
    })
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
    let shards = match raw.split_once(':') {
        None if raw == "local" => return Ok(BackendChoice::Local),
        None if raw == "subprocess" => {
            std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
        }
        Some(("subprocess", n)) => n
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or("the shard count must be a positive integer")?,
        _ => return Err("expected local or subprocess[:SHARDS]".to_owned()),
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

/// Checks that the result cache is in use for `what`, which merges worker
/// results through it: a usage error under `--no-cache`, a plain failure
/// when the cache could not be opened.
fn require_cache(
    inv: &Invocation,
    cache: Option<&ResultCache>,
    cmd: &str,
    what: &str,
) -> Result<(), ExitCode> {
    if inv.has("--no-cache") {
        return Err(fail(&format!(
            "{what} requires the result cache (drop --no-cache)"
        )));
    }
    if cache.is_none() {
        return Err(failure(&format!(
            "{cmd}: {what} requires the result cache, which could not be opened"
        )));
    }
    Ok(())
}

/// Builds the subprocess backend shared by `sweep --shards` and `serve
/// --backend subprocess` (`what`). Worker processes publish their results
/// through the result cache, so it is required. With `--obs-log` each
/// worker also streams its span events to `<obs_log>.shard-<i>`.
fn subprocess_backend(
    inv: &Invocation,
    cache: Option<&ResultCache>,
    cmd: &str,
    what: &str,
    shards: usize,
) -> Result<ExecBackend, ExitCode> {
    require_cache(inv, cache, cmd, what)?;
    let program = worker_program().map_err(|e| failure(&format!("{cmd}: {e}")))?;
    let mut config = SubprocessConfig::new(shards, program);
    config.trace_paths = inv.list("--traces").to_vec();
    config.obs_log = inv.text("--obs-log").map(std::path::PathBuf::from);
    Ok(ExecBackend::Subprocess(config))
}

/// Narrows `spec` to the `--schemes`, `--orgs` and `--mems` axes given.
fn with_axes(mut spec: SweepSpec, inv: &Invocation) -> SweepSpec {
    if let Some(Value::Schemes(schemes)) = inv.get("--schemes") {
        spec = spec.schemes(schemes);
    }
    if let Some(Value::Orgs(orgs)) = inv.get("--orgs") {
        spec = spec.orgs(orgs);
    }
    if let Some(Value::Mems(mems)) = inv.get("--mems") {
        spec = spec.mems(mems);
    }
    spec
}

/// Loads every `--traces` file, or reports the first that cannot be read.
fn load_traces(inv: &Invocation, cmd: &str) -> Result<Vec<TraceInput>, ExitCode> {
    inv.list("--traces")
        .iter()
        .map(|path| {
            TraceInput::load(path)
                .map_err(|e| failure(&format!("{cmd}: cannot read trace {path}: {e}")))
        })
        .collect()
}

/// Opens the result cache named by `--cache`/`--no-cache` (shared, via the
/// same default directory, by CLI sweeps and a running server).
fn open_cache(inv: &Invocation, what: &str) -> Option<ResultCache> {
    if inv.has("--no-cache") {
        return None;
    }
    let dir = inv.text("--cache").unwrap_or("target/sweep-cache");
    match ResultCache::open(dir) {
        Ok(cache) => Some(cache),
        Err(e) => {
            eprintln!("{what}: cannot open result cache at {dir}: {e}; caching disabled");
            None
        }
    }
}

/// Writes the `--csv` and `--json` exports requested, each rendered by
/// `render(json)`, and names every file written.
fn write_exports(inv: &Invocation, cmd: &str, render: impl Fn(bool) -> String) -> ExitCode {
    for (flag, what, json) in [("--csv", "CSV", false), ("--json", "JSON", true)] {
        if let Some(path) = inv.text(flag) {
            if let Err(e) = std::fs::write(path, render(json)) {
                return failure(&format!("{cmd}: cannot write {what} to {path}: {e}"));
            }
            println!("wrote {what} to {path}");
        }
    }
    ExitCode::SUCCESS
}

/// Runs `repro sweep` (`fleet = false`) or `repro fleet sweep` (`fleet =
/// true` — this process is the frontier and the configured backend is the
/// worker fleet).
fn run_sweep_command(size: WorkloadSize, inv: &Invocation, fleet: bool) -> ExitCode {
    let mut spec = with_axes(SweepSpec::full(size).mems(&[MemProfile::Paper]), inv);
    if let Some(Value::Nodes(models)) = inv.get("--energy-model") {
        spec = spec.energy_models(models);
    }
    match load_traces(inv, "sweep") {
        Ok(traces) => spec = spec.trace_files(&traces),
        Err(code) => return code,
    }
    if spec.is_empty() {
        return failure("sweep: the requested design space is empty");
    }

    let cache = open_cache(inv, "sweep");
    let backend = if fleet {
        // The frontier replicates every worker's cache entries into this
        // cache and merges the sweep from it — exactly the subprocess
        // backend's merge discipline, so the output stays byte-identical.
        if let Err(code) = require_cache(inv, cache.as_ref(), "sweep", "fleet sweep") {
            return code;
        }
        sigcomp_fabric::install();
        let defaults = FleetConfig::default();
        ExecBackend::Fleet(FleetConfig {
            workers: inv.list("--fleet").to_vec(),
            timeout_ms: inv
                .count("--timeout-ms")
                .map_or(defaults.timeout_ms, |ms| ms as u64),
            attempts: inv
                .count("--attempts")
                .map_or(defaults.attempts, |n| u32::try_from(n).unwrap_or(u32::MAX)),
        })
    } else if let Some(shards) = inv.count("--shards") {
        match subprocess_backend(inv, cache.as_ref(), "sweep", "--shards", shards) {
            Ok(backend) => backend,
            Err(code) => return code,
        }
    } else {
        ExecBackend::LocalThreads
    };
    let options = SweepOptions {
        workers: inv.count("--workers"),
        cache,
        backend,
    };

    println!(
        "sweep: {} configurations at size {}",
        spec.len(),
        size.name()
    );
    let run = if let Some(&Value::Percent(threshold)) = inv.get("--static-prune") {
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
            return failure("sweep: --static-prune removed every configuration");
        }
        try_run_jobs_traced(&outcome.kept, spec.trace_inputs(), &options)
    } else {
        try_run_sweep(&spec, &options)
    };
    let summary = match run {
        Ok(summary) => summary,
        Err(e) => return failure(&format!("sweep: {e}")),
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
    write_exports(inv, "sweep", |json| {
        if json {
            to_json(&summary.outcomes, &model)
        } else {
            to_csv(&summary.outcomes, &model)
        }
    })
}

/// Runs one sweep and compares its energy/performance picture across every
/// process-node preset: the dynamic term is preset-independent (the paper's
/// number), while the leakage term rewards gated-off byte lanes more the
/// leakier the node — shifting which configurations are Pareto-optimal.
fn run_energy_command(size: WorkloadSize, inv: &Invocation) -> ExitCode {
    let spec = with_axes(SweepSpec::paper(size), inv);
    if spec.is_empty() {
        return failure("energy: the requested design space is empty");
    }
    let options = SweepOptions {
        workers: inv.count("--workers"),
        cache: open_cache(inv, "energy"),
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
fn run_serve_command(inv: &Invocation) -> ExitCode {
    let disk_cache = open_cache(inv, "serve");
    let backend = match inv.get("--backend") {
        Some(&Value::Backend(BackendChoice::Subprocess(shards))) => {
            let what = "--backend subprocess";
            match subprocess_backend(inv, disk_cache.as_ref(), "serve", what, shards) {
                Ok(backend) => backend,
                Err(code) => return code,
            }
        }
        _ => ExecBackend::LocalThreads,
    };
    let millis = |flag: &str, default: usize| {
        std::time::Duration::from_millis(inv.count(flag).unwrap_or(default) as u64)
    };
    let config = ServeConfig {
        addr: inv.text("--addr").unwrap_or_default().to_owned(),
        batch: BatchConfig {
            max_batch: inv.count("--max-batch").unwrap_or(0),
            queue_capacity: 0,
            sim_workers: inv.count("--workers"),
            disk_cache,
            backend,
            memo_capacity: inv.count("--memo-cap").unwrap_or(0),
        },
        finished_tickets: inv.count("--ticket-cap").unwrap_or(0),
        max_conns: inv.count("--max-conns").unwrap_or(0),
        read_deadline: millis("--read-deadline-ms", 0),
        ..ServeConfig::default()
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => return failure(&format!("serve: cannot bind listener: {e}")),
    };
    let addr = server.local_addr();
    println!("serving on http://{addr}");
    println!("  GET  /healthz   liveness probe");
    println!("  GET  /metrics   request/batching/cache counters (+ fleet section)");
    println!("  GET  /metrics.json  process registry snapshot + the server's serve.* series");
    println!("  POST /simulate  one configuration -> metrics (batched + deduplicated)");
    println!("  POST /sweep     a design-space slice -> poll ticket (or \"sync\": true)");
    println!("  GET  /jobs/:id  sweep progress and results");
    println!("  POST /register, POST /heartbeat, POST /fleet/dispatch, GET /fleet");
    println!("                  the sigcomp-fleet worker protocol");
    // A worker announces itself to its frontier and keeps heartbeating for
    // as long as it serves; the heartbeater thread dies with the process.
    let heartbeater = inv.text("--frontier").map(|frontier| {
        let advertised = inv
            .text("--self-addr")
            .map_or_else(|| addr.to_string(), str::to_owned);
        let interval = millis("--heartbeat-ms", 2000);
        println!("fleet worker: announcing {advertised} to frontier {frontier}");
        Heartbeater::spawn(frontier.to_owned(), advertised, interval)
    });
    let result = server.run();
    if let Some(heartbeater) = heartbeater {
        heartbeater.stop();
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => failure(&format!("serve: listener failed: {e}")),
    }
}

/// Prints a frontier's `/fleet` document: its known workers, their
/// liveness/capacity/dispatch counters, and the merged worker obs snapshot.
fn run_fleet_status_command(inv: &Invocation) -> ExitCode {
    let Some(frontier) = inv.text("--frontier") else {
        return fail("fleet status requires --frontier HOST:PORT");
    };
    let timeout =
        std::time::Duration::from_millis(inv.count("--timeout-ms").unwrap_or(5_000) as u64);
    match HttpClient::new(timeout).get(frontier, "/fleet") {
        Ok(response) if response.status == 200 => {
            print!("{}", response.body);
            ExitCode::SUCCESS
        }
        Ok(response) => failure(&format!(
            "fleet status: {frontier} answered {}: {}",
            response.status,
            response.body.trim()
        )),
        Err(e) => failure(&format!("fleet status: cannot reach {frontier}: {e}")),
    }
}

/// Runs the self-timed perf harness (or, with `--check`, only the report
/// validator) and writes/validates `BENCH_<label>.json`.
fn run_bench_command(inv: &Invocation) -> ExitCode {
    if let Some(path) = inv.text("--check") {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return failure(&format!("bench: cannot read {path}: {e}")),
        };
        return match perf::validate(&text) {
            Ok(()) => {
                println!("{path}: valid {} report", perf::SCHEMA);
                ExitCode::SUCCESS
            }
            Err(e) => failure(&format!("bench: {path}: {e}")),
        };
    }

    let options = perf::BenchOptions {
        quick: inv.has("--quick"),
        label: inv.text("--label").unwrap_or("local").to_owned(),
        corpus: inv.text("--corpus").map(std::path::PathBuf::from),
    };
    println!(
        "bench: label {}{}",
        options.label,
        if options.quick { " (quick)" } else { "" }
    );
    let report = match perf::run(&options) {
        Ok(report) => report,
        Err(e) => return failure(&format!("bench: {e}")),
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
        return failure(&format!("bench: emitted report fails validation: {e}"));
    }
    let path = inv
        .text("--out")
        .map_or_else(|| format!("BENCH_{}.json", options.label), str::to_owned);
    if let Err(e) = std::fs::write(&path, &json) {
        return failure(&format!("bench: cannot write {path}: {e}"));
    }
    println!("wrote {path}");

    // The regression gate: diff the fresh report against a baseline. Any
    // violation (shape mismatch, a >2x throughput regression, or a serve
    // p99 over its absolute budget) is printed by name and fails the run —
    // this is what CI diffs against the checked-in baseline.
    if let Some(baseline_path) = inv.text("--compare") {
        let baseline = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => return failure(&format!("bench: cannot read baseline {baseline_path}: {e}")),
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
    let trajectory_path = inv.text("--trajectory").unwrap_or("BENCH_trajectory.json");
    let row = perf::trajectory_row(&report, &head_commit());
    match perf::append_trajectory(Path::new(trajectory_path), &row) {
        Ok(rows) => println!("appended to {trajectory_path} ({rows} rows)"),
        Err(e) => return failure(&format!("bench: {e}")),
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

fn trace_record(inv: &Invocation) -> ExitCode {
    let size = inv.size();
    let Some(out) = inv.text("--out") else {
        return fail("trace record requires --out PATH");
    };
    let targets: Vec<(String, std::path::PathBuf)> = match (inv.has("--all"), &inv.args[..]) {
        (_, [_, _, ..]) => return fail("trace record expects exactly one workload"),
        (true, [_]) => return fail("--all and a workload name are mutually exclusive"),
        (false, []) => return fail("trace record expects a workload name or --all"),
        (true, []) => {
            let dir = Path::new(out);
            if let Err(e) = std::fs::create_dir_all(dir) {
                return failure(&format!("trace record: cannot create {out}: {e}"));
            }
            suite_names()
                .iter()
                .map(|&name| (name.to_owned(), dir.join(format!("{name}.sctrace"))))
                .collect()
        }
        (false, [workload]) => vec![(workload.clone(), Path::new(out).to_path_buf())],
    };
    for (workload, path) in &targets {
        match record_one(workload, size, path) {
            Ok((records, digest)) => println!(
                "recorded {workload} ({}): {records} records, digest {digest:016x} -> {}",
                size.name(),
                path.display()
            ),
            Err(e) => return failure(&format!("trace record: {e}")),
        }
    }
    ExitCode::SUCCESS
}

fn trace_replay(inv: &Invocation) -> ExitCode {
    let file = match &inv.args[..] {
        [file] => file,
        [] => return fail("trace replay expects a .sctrace file"),
        _ => return fail("trace replay expects exactly one file"),
    };
    let node = match inv.get("--energy-model") {
        Some(Value::Nodes(nodes)) if nodes.len() > 1 => {
            let given: Vec<&str> = nodes.iter().map(|node| node.id()).collect();
            return fail(&format!(
                "invalid value '{}' for --energy-model (trace replay evaluates one model)",
                given.join(",")
            ));
        }
        Some(Value::Nodes(nodes)) => nodes[0],
        _ => ProcessNode::Paper180nm,
    };
    let input = match TraceInput::load(file) {
        Ok(input) => input,
        Err(e) => return failure(&format!("trace replay: cannot read {file}: {e}")),
    };
    println!(
        "replaying {} ({} records, digest {:016x})",
        input.name(),
        input.decoded().len(),
        input.digest()
    );
    let spec = SweepSpec::full(WorkloadSize::Tiny)
        .no_kernels()
        .trace_files(std::slice::from_ref(&input))
        .mems(&[MemProfile::Paper]);
    let spec = with_axes(spec, inv);
    if spec.is_empty() {
        return failure("trace replay: the requested configuration set is empty");
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
        Err(e) => return failure(&format!("trace stat: cannot read {file}: {e}")),
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
            Err(e) => return failure(&format!("trace stat: {file}: {e}")),
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
        Err(e) => failure(&format!("trace golden: {e}")),
    }
}

/// Runs `repro analyze <workload|file.sctrace>`: builds the CFG, solves the
/// width fixpoint and prints the static significance picture without
/// simulating a cycle. Trace files are reconstructed from their recorded
/// (pc, word) pairs and analyzed under an unknown entry state — and since
/// the dynamic values are right there, every record is differentially
/// verified against the computed bounds on the spot.
fn run_analyze_command(inv: &Invocation) -> ExitCode {
    let target = match &inv.args[..] {
        [target] => target.as_str(),
        [] => return fail("analyze expects a workload name or a .sctrace file"),
        _ => return fail("analyze expects exactly one workload or .sctrace file"),
    };
    let size = inv.size();

    let is_trace = target.ends_with(".sctrace") || Path::new(target).is_file();
    let report = if is_trace {
        let mut reader = match TraceReader::open(target) {
            Ok(reader) => reader,
            Err(e) => return failure(&format!("analyze: cannot read trace {target}: {e}")),
        };
        let mut records = Vec::new();
        loop {
            match reader.next_record() {
                Ok(Some(rec)) => records.push(rec),
                Ok(None) => break,
                Err(e) => return failure(&format!("analyze: {target}: {e}")),
            }
        }
        let Some(program) = program_from_records(&records) else {
            return failure(&format!(
                "analyze: {target}: the trace is empty, nothing to reconstruct"
            ));
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
            Err(e) => return failure(&format!("analyze: {target}: {e}")),
        }
        WidthReport::from_analysis(target, &analysis)
    } else {
        let Some(bench) = find(target, size) else {
            return fail(&format!(
                "unknown workload '{target}' (expected one of {}, or an .sctrace file)",
                suite_names().join(", ")
            ));
        };
        let analysis = analyze_program(bench.program(), EntryState::KernelBoot);
        println!("{target} ({}): static width analysis", size.name());
        WidthReport::from_analysis(target, &analysis)
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

    write_exports(inv, "analyze", |json| {
        if json {
            report.to_json()
        } else {
            report.to_csv()
        }
    })
}

/// Runs one shard of a sharded sweep (the pipe transport; see
/// `sigcomp_explore::backend`): reads a dispatch body holding exactly this
/// shard's jobs from stdin, runs them on the in-process executor against
/// the shared result cache, and answers on stdout with the report a fleet
/// worker would send over HTTP.
fn run_worker_command(inv: &Invocation) -> ExitCode {
    if let Some(arg) = inv.args.first() {
        return fail(&format!(
            "worker takes no positional argument (got '{arg}')"
        ));
    }
    let Some(cache_dir) = inv.text("--cache") else {
        return fail("worker requires --cache DIR (the shared merge point)");
    };
    let cache = match ResultCache::open(cache_dir) {
        Ok(cache) => cache,
        Err(e) => {
            return failure(&format!(
                "worker: cannot open result cache at {cache_dir}: {e}"
            ))
        }
    };
    let traces = match load_traces(inv, "worker") {
        Ok(traces) => traces,
        Err(code) => return code,
    };

    // Drain stdin to EOF *before* simulating — the parent relies on this to
    // feed every worker without deadlocking against their reports.
    let mut body = String::new();
    if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut body) {
        return failure(&format!(
            "worker: cannot read the dispatch body from stdin: {e}"
        ));
    }
    let jobs = match parse_dispatch(&body) {
        Ok(jobs) => jobs,
        Err(e) => return failure(&format!("worker: {e}")),
    };
    for job in &jobs {
        if let TraceSource::File { digest } = job.source {
            if !traces.iter().any(|t| t.digest() == digest) {
                return failure(&format!(
                    "worker: no trace with digest {digest:016x} for job {} \
                     (pass its .sctrace file via --traces)",
                    job.label()
                ));
            }
        }
    }

    let options = SweepOptions {
        workers: inv.count("--workers"),
        cache: Some(cache),
        backend: ExecBackend::LocalThreads,
    };
    let summary = match try_run_jobs_traced(&jobs, &traces, &options) {
        Ok(summary) => summary,
        Err(e) => return failure(&format!("worker: {e}")),
    };
    // This process ran only its shard, so its registry snapshot is exactly
    // the shard's delta for the parent to fold in.
    print!(
        "{}",
        encode_report(&summary.outcomes, &sigcomp_obs::global().snapshot())
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse(&argv) {
        Ok(inv) => inv,
        Err(Stop::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(Stop::Error(message)) => return fail(&message),
    };

    // One JSONL event stream per process: opened up front so every
    // instrumented path of every requested subcommand feeds it.
    if let Some(path) = inv.text("--obs-log") {
        if let Err(e) = sigcomp_obs::global().open_jsonl_log(Path::new(path)) {
            return failure(&format!("repro: cannot open obs log {path}: {e}"));
        }
    }

    // The activity studies feed several tables; run them lazily and only once.
    let size = inv.size();
    let mut byte_rows = None;
    let mut half_rows = None;
    let mut byte_activity = || {
        byte_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_byte()))
            .clone()
    };
    let mut half_activity = || {
        half_rows
            .get_or_insert_with(|| activity_study(size, &AnalyzerConfig::paper_halfword()))
            .clone()
    };
    let fig = |id: u32, title: &str| {
        let kinds = figure_orgs(id);
        figure(title, &cpi_study(size, &kinds), &kinds)
    };
    let mut artefact = |name: &str| match name {
        "table1" => table1(&merged_stats(&byte_activity())),
        "table2" => table2(),
        "table3" => table3(&merged_stats(&byte_activity())),
        "table4" => table4(),
        "table5" => activity_table(&byte_activity(), ExtScheme::ThreeBit),
        "table6" => activity_table(&half_activity(), ExtScheme::Halfword),
        "fig4" => fig(
            4,
            "Figure 4: CPI of the byte-serial and halfword-serial pipelines",
        ),
        "fig6" => fig(6, "Figure 6: CPI of the byte semi-parallel pipeline"),
        "fig8" => fig(8, "Figure 8: CPI of the byte-parallel skewed pipeline"),
        "fig10" => fig(
            10,
            "Figure 10: CPI of the byte-parallel compressed and skewed+bypass pipelines",
        ),
        "bottleneck" => bottleneck(size),
        other => unreachable!("'{other}' is not a paper artefact"),
    };

    for (cmd, word) in &inv.commands {
        let words: &[&str] = if word == "all" {
            &PAPER
        } else {
            &[word.as_str()]
        };
        for &word in words {
            let code = match cmd {
                Paper => {
                    print!("{}", artefact(word));
                    ExitCode::SUCCESS
                }
                Sweep => run_sweep_command(size, &inv, false),
                FleetSweep => run_sweep_command(size, &inv, true),
                FleetStatus => run_fleet_status_command(&inv),
                Energy => run_energy_command(size, &inv),
                Bench => run_bench_command(&inv),
                Serve | FleetServe => return run_serve_command(&inv),
                TraceRecord => return trace_record(&inv),
                TraceReplay => return trace_replay(&inv),
                TraceStat => return trace_stat(&inv.args),
                TraceGolden => return trace_golden(&inv.args),
                Analyze => return run_analyze_command(&inv),
                Worker => return run_worker_command(&inv),
            };
            if code != ExitCode::SUCCESS {
                return code;
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every subcommand, with the words that select it.
    const SUBCOMMANDS: [(Cmd, &[&str]); 14] = [
        (Paper, &["table1"]),
        (Sweep, &["sweep"]),
        (FleetSweep, &["fleet", "sweep"]),
        (Energy, &["energy"]),
        (Serve, &["serve"]),
        (FleetServe, &["fleet", "serve"]),
        (FleetStatus, &["fleet", "status"]),
        (Bench, &["bench"]),
        (TraceRecord, &["trace", "record"]),
        (TraceReplay, &["trace", "replay"]),
        (TraceStat, &["trace", "stat"]),
        (TraceGolden, &["trace", "golden"]),
        (Analyze, &["analyze"]),
        (Worker, &["worker"]),
    ];

    /// Parses `words` followed by `opt` with a value its kind accepts.
    fn parse_with(words: &[&str], opt: &Opt) -> Result<Invocation, Stop> {
        let value = match opt.kind {
            Kind::Switch => None,
            Kind::Text | Kind::List(_) => Some("x"),
            Kind::Count | Kind::Percent => Some("2"),
            Kind::Size => Some("tiny"),
            Kind::Schemes => Some("3bit"),
            Kind::Orgs => Some("all"),
            Kind::Mems => Some("paper"),
            Kind::Nodes => Some("modern-7nm"),
            Kind::Backend => Some("local"),
        };
        let argv: Vec<String> = words
            .iter()
            .chain([opt.name].iter())
            .chain(value.iter())
            .map(|&word| word.to_owned())
            .collect();
        parse(&argv)
    }

    #[test]
    fn option_names_are_unique() {
        let mut seen = BTreeSet::new();
        for opt in OPTIONS {
            for name in std::iter::once(opt.name).chain(opt.short) {
                assert!(seen.insert(name), "{name} is in OPTIONS twice");
            }
        }
    }

    #[test]
    fn usage_documents_exactly_the_options() {
        let documented: BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|word| word.starts_with("--"))
            .collect();
        let table: BTreeSet<&str> = OPTIONS.iter().map(|opt| opt.name).collect();
        assert_eq!(documented, table);
    }

    #[test]
    fn every_scope_names_a_real_subcommand() {
        for opt in OPTIONS {
            assert!(!opt.scope.is_empty(), "{} has no scope", opt.name);
            for cmd in opt.scope {
                let (_, words) = SUBCOMMANDS.iter().find(|(c, _)| c == cmd).unwrap();
                match parse_with(words, opt) {
                    Ok(inv) => assert_eq!(inv.commands[0].0, *cmd, "{}", opt.name),
                    Err(e) => panic!("{} in {}: {e:?}", opt.name, cmd.name()),
                }
            }
        }
    }

    #[test]
    fn options_outside_their_scope_are_named_errors() {
        for opt in OPTIONS {
            for (cmd, words) in SUBCOMMANDS {
                if !opt.scope.contains(&cmd) {
                    assert_eq!(
                        parse_with(words, opt).err(),
                        Some(Stop::Error(opt.scope_error())),
                        "{} in {}",
                        opt.name,
                        cmd.name()
                    );
                }
            }
        }
    }
}
