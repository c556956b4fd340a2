//! End-to-end and per-layer benchmark of the sigcomp workspace.
//!
//! ```text
//! e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `README.md` beside this crate) and prints, as the
//! last line of stdout, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero when any correctness check fails.
//!
//! Each repetition runs in a fresh child process (the same executable,
//! started with `--rep`), so process-global lazily built state can never
//! carry warm work from one repetition into the next, and `peak_rss_mb` is
//! the high-water mark of the process that ran the workload. Host-time
//! end-to-end figures are reported in reference time (see [`probe`]).

mod layers;
mod pins;
mod probe;
mod serve;
mod sweeps;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use util::{median, secs, Rep};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["sweep-kernels", "trace-replay", "serve-mix"];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("warm_sweep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms.lo", "ms"),
    ("p99_ms.lo", "ms"),
    ("p50_ms.hi", "ms"),
    ("p99_ms.hi", "ms"),
    ("max_rps", "1/s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A workload that does not exercise a
/// layer reports it as 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    add("workloads.build_ms", "ms");
    add("workloads.synth_ns_per_rec", "ns");
    add("isa.interp_ns_per_inst", "ns");
    add("isa.decode_ns_per_rec", "ns");
    add("isa.arena_iter_ns_per_rec", "ns");
    add("isa.arena_mb", "MB");
    for scheme in sigcomp::ExtScheme::ALL {
        add(&format!("core.cost_ns_per_rec.{}", scheme.id()), "ns");
    }
    add("core.analyzer_ns_per_rec", "ns");
    for org in sigcomp_pipeline::OrgKind::ALL {
        add(&format!("pipeline.observe_ns_per_rec.{}", org.id()), "ns");
    }
    for kind in ["access_ns_per_rec", "l1i_misses", "l1d_misses"] {
        for mem in sigcomp_explore::MemProfile::ALL {
            let unit = if kind == "access_ns_per_rec" {
                "ns"
            } else {
                "count"
            };
            add(&format!("mem.{kind}.{}", mem.id()), unit);
        }
    }
    for name in pins::SIM_NAMES {
        add(name, "count");
    }
    for (name, unit) in [
        ("explore.cache_store_us", "us"),
        ("explore.cache_load_us", "us"),
        ("explore.report_ms", "ms"),
        ("explore.worker_idle_ratio", "ratio"),
        ("explore.jobs_simulated", "count"),
        ("explore.jobs_cached", "count"),
        ("explore.dedup_followers", "count"),
        ("serve.parse_ns_per_req", "ns"),
        ("serve.route_ns_per_req", "ns"),
        ("serve.render_us_per_req", "us"),
        ("serve.memo_hit_ratio", "ratio"),
        ("serve.batches", "count"),
        ("serve.mean_batch", "count"),
        ("serve.shed", "count"),
        ("serve.server_p99_ms", "ms"),
        ("loadgen.lag_p99_ms", "ms"),
        ("ledger.busy_s", "s"),
        ("ledger.explained_s", "s"),
        ("ledger.residual_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("host.probe_ms", "ms"),
    ] {
        add(name, unit);
    }
    out
}

/// Repetitions per run: at least this many, more while `--seconds` lasts.
/// `serve-mix` pools tail latencies set by a few stalls per repetition, so
/// it always takes 8.
fn min_reps(workload: &str) -> usize {
    if workload == "serve-mix" {
        8
    } else {
        3
    }
}
const MAX_REPS: usize = 25;

/// The metric a repetition sets to 1 when it must be rejected, and how many
/// rejections a run replaces before a rejected repetition counts (its
/// failure then fails the run).
pub const REJECTED: &str = "rep.rejected";
const MAX_REJECTED: usize = 5;

/// A repetition that runs longer than this is killed and counted failed.
const REP_TIMEOUT: Duration = Duration::from_secs(120);

const USAGE: &str = "usage: e2e-bench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: sweep-kernels, trace-replay, serve-mix";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Some(index)` in a child process running one repetition.
    rep: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rep = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .copied()
                        .find(|w| w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: '{value}' is not 0 or 1")),
                });
            }
            "--rep" => rep = Some(number()? as usize),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        rep,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(index) = args.rep {
        print!("{}", run_rep(&args, index).emit());
        return ExitCode::SUCCESS;
    }
    let (correct, line) = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One repetition, in this (child) process.
fn run_rep(args: &Args, index: usize) -> Rep {
    let tracer = args.trace.then(|| trace::Tracer::new(args.workload));
    let first = index == 0;
    let probe_before = probe::measure();
    let mut rep = match args.workload {
        "sweep-kernels" => sweeps::kernels_rep(args.seed, first, tracer.as_ref()),
        "trace-replay" => sweeps::replay_rep(args.seed, tracer.as_ref()),
        "serve-mix" => serve::rep(args.seed, tracer.as_ref()),
        other => unreachable!("workload {other} was validated"),
    };
    rep.set(probe::METRIC, (probe_before + probe::measure()) / 2.0);
    if let Some(tracer) = &tracer {
        let path = std::path::PathBuf::from("target/e2e-bench/spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("e2e-bench: cannot write {}: {e}", path.display());
        }
    }
    rep
}

/// Runs one repetition in a fresh child process and parses its result.
fn spawn_rep(args: &Args, index: usize, traced: bool) -> Rep {
    let failed = |why: String| Rep {
        failures: vec![why],
        attempted: 1,
        failed: 1,
        ..Rep::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("cannot locate this executable: {e}")),
    };
    let mut child = match Command::new(exe)
        .args(["--workload", args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--rep", &index.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return failed(format!("cannot start repetition {index}: {e}")),
    };
    // Drain stdout on a thread so a chatty child cannot block on a full pipe
    // while the deadline below is enforced.
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > REP_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("repetition {index} timed out"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("waiting for repetition {index}: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    match status {
        Ok(status) if status.success() => {
            Rep::parse(&text).unwrap_or_else(|e| failed(format!("repetition {index}: {e}")))
        }
        Ok(status) => failed(format!("repetition {index} exited with {status}")),
        Err(why) => failed(why),
    }
}

/// Runs a repetition, replacing a rejected one (a repetition whose load
/// generator fell behind measured a lighter load than it claims) while the
/// run still has rejections to spare.
fn spawn_accepted(args: &Args, index: usize, traced: bool, rejected: &mut usize) -> Rep {
    loop {
        let rep = spawn_rep(args, index, traced);
        if rep.metrics.get(REJECTED) != Some(&1.0) || *rejected >= MAX_REJECTED {
            return rep;
        }
        *rejected += 1;
        eprintln!(
            "e2e-bench: {}: repetition rejected, retrying",
            args.workload
        );
    }
}

/// Cross-repetition correctness: every repetition's failures, identical
/// output digests, the reference digest, and the pinned `sim.*` totals.
fn cross_checks(workload: &str, seed: u64, reps: &[Rep]) -> Vec<String> {
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    let mut digests: BTreeMap<&str, &str> = BTreeMap::new();
    for rep in reps {
        for (name, value) in &rep.labels {
            // The reference run's CSV must match every repetition's.
            let name = if name == "digest.reference" {
                "digest.csv"
            } else {
                name.as_str()
            };
            if let Some(first) = digests.insert(name, value) {
                if first != value {
                    failures.push(format!("{name} differs across runs: {first} vs {value}"));
                }
            }
        }
    }
    let pin = pins::pinned(workload, seed);
    for rep in reps.iter().filter(|r| r.failed == 0) {
        for (name, &expected) in pins::SIM_NAMES.iter().zip(&pin) {
            let got = rep.metrics.get(*name).copied().unwrap_or(f64::NAN);
            if got != expected as f64 {
                failures.push(format!(
                    "{name} = {got} but {expected} is pinned for seed {seed}"
                ));
            }
        }
    }
    failures.sort();
    failures.dedup();
    failures
}

fn untraced_run(args: &Args) -> (bool, String) {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut rejected = 0;
    while reps.len() < MAX_REPS {
        let mut rep = spawn_accepted(args, reps.len(), false, &mut rejected);
        to_reference_time(args.workload, &mut rep);
        reps.push(rep);
        let elapsed = secs(started);
        let per_rep = elapsed / (reps.len() + rejected) as f64;
        if reps.len() >= min_reps(args.workload) && elapsed + per_rep > args.seconds {
            break;
        }
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, unit) in END_TO_END {
        let pooled: Vec<f64> = name
            .split_once("_ms.")
            .map(|(_, load)| {
                reps.iter()
                    .filter_map(|r| r.latencies.get(load))
                    .flatten()
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let value = if name == "ok_ratio" {
            (attempted - failed) as f64 / attempted.max(1) as f64
        } else if !pooled.is_empty() {
            // Request latencies pool across repetitions: the tail is set by
            // a few stalls per repetition, so pooling averages over more.
            util::quantile(&pooled, if name.starts_with("p50") { 0.5 } else { 0.99 })
        } else {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            median(&values)
        };
        metrics.push((name.to_owned(), value, unit));
    }
    let failures = cross_checks(args.workload, args.seed, &reps);
    finish(args, attempted, failed, &metrics, failures)
}

/// The reference-time scale of a repetition (see [`probe`]): the reference
/// probe time over the probe time measured around it.
fn reference_scale(rep: &Rep) -> f64 {
    rep.metrics
        .get(probe::METRIC)
        .map_or(f64::NAN, |probe_s| probe::REFERENCE_S / probe_s)
}

/// Converts a repetition's host-time end-to-end figures to reference time:
/// times are multiplied by its scale and rates divided by it.
fn to_reference_time(workload: &str, rep: &mut Rep) {
    let scale = reference_scale(rep);
    for (name, unit) in END_TO_END {
        // The serve ladder's top step is an offered rate, not one the host
        // speed sets.
        if workload == "serve-mix" && name == "max_rps" {
            continue;
        }
        if let Some(value) = rep.metrics.get_mut(name) {
            match unit {
                "s" | "ms" => *value *= scale,
                "Minst/s" | "1/s" => *value /= scale,
                _ => {}
            }
        }
    }
    for ms in rep.latencies.values_mut().flatten() {
        *ms *= scale;
    }
}

fn traced_run(args: &Args) -> (bool, String) {
    let mut rejected = 0;
    let untraced = spawn_accepted(args, 1, false, &mut rejected);
    let traced = spawn_accepted(args, 1, true, &mut rejected);
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    // The two cold passes ran in separate processes, possibly at different
    // host speeds: compare them in reference time.
    let cold = |rep: &Rep| {
        rep.metrics.get("pass.cold_s").copied().unwrap_or(f64::NAN) * reference_scale(rep)
    };
    let overhead = cold(&traced) / cold(&untraced) - 1.0;
    let metrics: Vec<(String, f64, &str)> = per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else if name == "host.probe_ms" {
                traced
                    .metrics
                    .get(probe::METRIC)
                    .map_or(f64::NAN, |s| s * 1e3)
            } else {
                traced.metrics.get(&name).copied().unwrap_or(0.0)
            };
            (name, value, unit)
        })
        .collect();
    let failures = cross_checks(args.workload, args.seed, &[untraced, traced]);
    finish(args, attempted, failed, &metrics, failures)
}

/// Reports failures on stderr and renders the result line.
fn finish(
    args: &Args,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
    mut failures: Vec<String>,
) -> (bool, String) {
    for (name, value, _) in metrics {
        if !value.is_finite() {
            failures.push(format!("{name} was not measured"));
        }
    }
    for failure in &failures {
        eprintln!("e2e-bench: {}: FAILED: {failure}", args.workload);
    }
    let correct = failures.is_empty() && failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    line.push_str("}}");
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_serve::Json;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
