//! The two sweep workloads.
//!
//! * `sweep-kernels`: the default `repro sweep` space (11 kernels × 3
//!   schemes × 7 organizations, paper memory, default size) on the local
//!   backend with 2 workers, submitted in a seed-permuted order, cold and
//!   then warm against a throwaway result cache.
//! * `trace-replay`: paper-calibrated synthetic traces written as `.sctrace`
//!   files at set-up, then loaded and swept (3 schemes × 7 organizations ×
//!   4 memory profiles, trace jobs only) cold and then warm.
//!
//! A pass is timed from job submission (trace loading included) to the
//! rendered CSV and Pareto frontier.

use crate::layers;
use crate::pins;
use crate::trace::{span, Tracer};
use crate::util::{fnv, median, peak_rss_mb, permutation, secs, Rep, Scratch};
use sigcomp::{EnergyModel, ProcessNode};
use sigcomp_explore::{
    config_points, pareto_frontier, simulate_trace, to_csv, try_run_jobs, try_run_jobs_traced,
    ExecBackend, JobOutcome, JobSpec, MemProfile, ResultCache, SweepOptions, SweepSpec,
    SweepSummary, TraceInput,
};
use sigcomp_isa::TraceWriter;
use sigcomp_workloads::{
    find, suite_names, Benchmark, SynthConfig, TraceSynthesizer, WorkloadSize,
};
use std::path::PathBuf;
use std::time::Instant;

/// Sweep worker threads: the machine this benchmark targets has 2 CPUs.
pub const WORKERS: usize = 2;

/// Record counts of the synthetic traces `trace-replay` sweeps: unequal on
/// purpose, so the 2 workers finish their shares at different times.
const TRACE_LENGTHS: [u64; 3] = [35_000, 22_000, 13_000];

/// Warm passes per repetition: one warm pass lasts milliseconds, so a
/// repetition repeats it and reports every pass.
const WARM_PASSES: usize = 12;

/// One timed sweep pass and what it produced.
pub struct Pass {
    pub wall_s: f64,
    /// Outcomes in enumeration order.
    pub outcomes: Vec<JobOutcome>,
    pub simulated: u64,
    pub cached: u64,
    pub csv: String,
    pub frontier_len: usize,
}

fn options(cache: &ResultCache) -> SweepOptions {
    SweepOptions {
        workers: Some(WORKERS),
        cache: Some(cache.clone()),
        backend: ExecBackend::LocalThreads,
    }
}

/// The rendering every sweep user waits for: config points, the Pareto
/// frontier and the CSV export.
fn render(outcomes: &[JobOutcome], model: &EnergyModel) -> (String, usize) {
    let points = config_points(outcomes);
    let frontier = pareto_frontier(&points, model);
    (to_csv(outcomes, model), frontier.len())
}

/// Closes a timed pass: puts the outcomes back in enumeration order
/// (`submitted[k]` was job `order[k]`; `None` when submitted in order) and
/// renders the CSV and frontier, all inside the timed region.
pub fn finish_pass(
    started: Instant,
    summary: SweepSummary,
    order: Option<&[usize]>,
    model: &EnergyModel,
) -> Pass {
    let outcomes = match order {
        None => summary.outcomes,
        Some(order) => {
            let mut slots: Vec<Option<JobOutcome>> = vec![None; order.len()];
            for (k, outcome) in summary.outcomes.into_iter().enumerate() {
                slots[order[k]] = Some(outcome);
            }
            slots
                .into_iter()
                .map(|o| o.expect("every job answered"))
                .collect()
        }
    };
    let (csv, frontier_len) = render(&outcomes, model);
    Pass {
        wall_s: secs(started),
        outcomes,
        simulated: summary.totals.simulated,
        cached: summary.totals.cached,
        csv,
        frontier_len,
    }
}

/// The CSV with every `from_cache` flag cleared: cold, warm and reference
/// runs must agree on it byte for byte.
pub fn normalized_csv_digest(outcomes: &[JobOutcome], model: &EnergyModel) -> String {
    let normalized: Vec<JobOutcome> = outcomes
        .iter()
        .map(|o| JobOutcome {
            from_cache: false,
            ..o.clone()
        })
        .collect();
    format!("{:016x}", fnv(to_csv(&normalized, model).as_bytes()))
}

/// Exact modelled totals over every job of a pass.
pub fn sim_totals(rep: &mut Rep, outcomes: &[JobOutcome]) {
    let mut totals = [0u64; 5];
    for o in outcomes {
        let m = &o.metrics;
        for (slot, value) in totals.iter_mut().zip([
            m.instructions,
            m.cycles,
            m.stall_structural,
            m.stall_data_hazard,
            m.stall_control,
        ]) {
            *slot += value;
        }
    }
    for (name, value) in pins::SIM_NAMES.iter().zip(totals) {
        rep.set(name, value as f64);
    }
}

/// Records the per-pass end-to-end numbers every sweep workload reports:
/// an operation is one whole pass; the cold pass is the `hi` load and the
/// warm passes the `lo` load.
pub fn pass_metrics(rep: &mut Rep, setup_s: f64, cold: &Pass, warm: &[Pass]) {
    let jobs = cold.outcomes.len() as f64;
    let instructions: u64 = cold.outcomes.iter().map(|o| o.metrics.instructions).sum();
    let warm_s: Vec<f64> = warm.iter().map(|p| p.wall_s).collect();
    rep.set("setup_s", setup_s);
    rep.set("pass.cold_s", cold.wall_s);
    rep.set("sim_minst_per_s", instructions as f64 / cold.wall_s / 1e6);
    rep.set("warm_sweep_s", median(&warm_s));
    rep.set("max_rps", jobs / cold.wall_s);
    rep.latency_quantiles("hi", &[cold.wall_s * 1e3]);
    let warm_ms: Vec<f64> = warm_s.iter().map(|s| s * 1e3).collect();
    rep.latency_quantiles("lo", &warm_ms);
    rep.attempted += cold.outcomes.len() as u64 * (1 + warm.len() as u64);
}

/// Checks shared by both sweep workloads: the cold pass simulated
/// everything, the warm pass hit the cache for everything, and both render
/// the same CSV.
pub fn pass_checks(rep: &mut Rep, cold: &Pass, warm: &[Pass], model: &EnergyModel) {
    let jobs = cold.outcomes.len() as u64;
    rep.check(cold.simulated == jobs && cold.cached == 0, || {
        format!(
            "cold pass: {} simulated, {} cached of {jobs} jobs",
            cold.simulated, cold.cached
        )
    });
    rep.failed += jobs - cold.simulated.min(jobs);
    let cold_digest = normalized_csv_digest(&cold.outcomes, model);
    for pass in warm {
        rep.check(pass.cached == jobs && pass.simulated == 0, || {
            format!(
                "warm pass: {} simulated, {} cached of {jobs} jobs",
                pass.simulated, pass.cached
            )
        });
        rep.failed += jobs - pass.cached.min(jobs);
        let warm_digest = normalized_csv_digest(&pass.outcomes, model);
        rep.check(cold_digest == warm_digest, || {
            format!("cold CSV {cold_digest} differs from warm CSV {warm_digest}")
        });
    }
    for pass in std::iter::once(cold).chain(warm) {
        rep.check(pass.frontier_len > 0, || "empty Pareto frontier".to_owned());
        rep.check(pass.csv.lines().count() as u64 == jobs + 1, || {
            format!(
                "the CSV has {} lines for {jobs} jobs",
                pass.csv.lines().count()
            )
        });
    }
    rep.label("digest.csv", cold_digest);
}

// ---------------------------------------------------------------------------
// sweep-kernels

/// One `sweep-kernels` repetition. The first repetition also runs the
/// unpermuted reference sweep its CSV is compared against.
pub fn kernels_rep(seed: u64, first: bool, tracer: Option<&Tracer>) -> Rep {
    let mut rep = Rep::default();
    let model = ProcessNode::Paper180nm.model();

    let started = Instant::now();
    let setup = span(tracer, "setup", "rep");
    // Every kernel is assembled and run once, so each job's result can be
    // checked against its kernel's retired-instruction count.
    let benchmarks: Vec<Benchmark> = suite_names()
        .iter()
        .map(|name| find(name, WorkloadSize::Default).expect("suite kernels exist"))
        .collect();
    let counts: Vec<u64> = benchmarks
        .iter()
        .map(|b| b.instruction_count().expect("kernel runs"))
        .collect();
    let jobs = SweepSpec::full(WorkloadSize::Default)
        .mems(&[MemProfile::Paper])
        .enumerate();
    let order = permutation(jobs.len(), seed);
    let submitted: Vec<JobSpec> = order.iter().map(|&i| jobs[i]).collect();
    let scratch = Scratch::new("sweep-kernels");
    let cache = ResultCache::open(scratch.path("cache")).expect("throwaway cache opens");
    drop(setup);
    let setup_s = secs(started);

    let kernel_pass = |name: &str| -> Pass {
        let _span = span(tracer, name, "rep");
        let started = Instant::now();
        let summary = try_run_jobs(&submitted, &options(&cache)).expect("local backend");
        finish_pass(started, summary, Some(&order), &model)
    };
    let busy_before = layers::job_busy_s();
    let cold = kernel_pass("explore.sweep.cold");
    let busy_s = layers::job_busy_s() - busy_before;
    let warm: Vec<Pass> = (0..WARM_PASSES)
        .map(|_| kernel_pass("explore.sweep.warm"))
        .collect();
    pass_metrics(&mut rep, setup_s, &cold, &warm);
    pass_checks(&mut rep, &cold, &warm, &model);

    // Each job retires exactly its kernel's instruction count.
    for o in &cold.outcomes {
        let k = suite_names()
            .iter()
            .position(|&n| n == o.spec.workload)
            .expect("suite kernel");
        rep.check(o.metrics.instructions == counts[k], || {
            format!(
                "{} retired {} instructions, its kernel {}",
                o.spec.label(),
                o.metrics.instructions,
                counts[k]
            )
        });
    }
    if first {
        let reference =
            try_run_jobs(&jobs, &SweepOptions::with_workers(WORKERS)).expect("local backend");
        rep.label(
            "digest.reference",
            normalized_csv_digest(&reference.outcomes, &model),
        );
    }
    sim_totals(&mut rep, &cold.outcomes);
    rep.set("peak_rss_mb", peak_rss_mb());

    if let Some(tracer) = tracer {
        layers::sweep_layers(
            &mut rep,
            tracer,
            &layers::SweepRun {
                cold: &cold,
                warm: &warm[0],
                busy_s,
                model: &model,
                arena_bytes: 0.0,
            },
            layers::Source::Kernels(&benchmarks),
        );
        rep.set("workloads.build_ms", layers::build_ms(tracer));
    }
    rep
}

// ---------------------------------------------------------------------------
// trace-replay

/// The paper-calibrated synthesizer configurations of the seed's traces.
pub fn synth_configs(seed: u64) -> Vec<SynthConfig> {
    TRACE_LENGTHS
        .iter()
        .enumerate()
        .map(|(i, &records)| SynthConfig {
            seed: pins::variant(seed) * 1_000 + i as u64,
            ..SynthConfig::paper(records)
        })
        .collect()
}

/// Synthesizes and writes the seed's traces; returns their paths.
fn write_traces(seed: u64, dir: &std::path::Path) -> Vec<PathBuf> {
    synth_configs(seed)
        .into_iter()
        .enumerate()
        .map(|(i, config)| {
            let mut writer = TraceWriter::new();
            let mut pushed = Ok(());
            TraceSynthesizer::new(config).generate_each(|rec| {
                if pushed.is_ok() {
                    pushed = writer.push(rec);
                }
            });
            pushed.expect("synthetic records encode");
            let path = dir.join(format!("synth-{i}.sctrace"));
            writer
                .finish_to_path(&path)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            path
        })
        .collect()
}

/// One `trace-replay` repetition.
pub fn replay_rep(seed: u64, tracer: Option<&Tracer>) -> Rep {
    let mut rep = Rep::default();
    let model = ProcessNode::Paper180nm.model();

    let started = Instant::now();
    let setup = span(tracer, "setup", "rep");
    let scratch = Scratch::new("trace-replay");
    let paths = write_traces(seed, &scratch.root);
    let cache = ResultCache::open(scratch.path("cache")).expect("throwaway cache opens");
    drop(setup);
    let setup_s = secs(started);

    let replay_pass = |name: &str| -> (Pass, Vec<TraceInput>) {
        let _span = span(tracer, name, "rep");
        let started = Instant::now();
        let inputs: Vec<TraceInput> = paths
            .iter()
            .map(|p| TraceInput::load(p).expect("the synthetic trace loads"))
            .collect();
        let spec = SweepSpec::full(WorkloadSize::Default)
            .no_kernels()
            .trace_files(&inputs);
        let summary = try_run_jobs_traced(&spec.enumerate(), spec.trace_inputs(), &options(&cache))
            .expect("local backend");
        (finish_pass(started, summary, None, &model), inputs)
    };
    let busy_before = layers::job_busy_s();
    let (cold, inputs) = replay_pass("explore.sweep.cold");
    let busy_s = layers::job_busy_s() - busy_before;
    let warm: Vec<Pass> = (0..WARM_PASSES)
        .map(|_| replay_pass("explore.sweep.warm").0)
        .collect();
    pass_metrics(&mut rep, setup_s, &cold, &warm);
    pass_checks(&mut rep, &cold, &warm, &model);

    // Sampled jobs replayed through the streaming path must match the
    // arena results bit for bit.
    let traces: Vec<sigcomp_isa::Trace> = paths
        .iter()
        .map(|p| sigcomp_isa::read_trace(p).expect("the synthetic trace reads"))
        .collect();
    for &k in permutation(cold.outcomes.len(), seed).iter().take(4) {
        let outcome = &cold.outcomes[k];
        let t = inputs
            .iter()
            .position(|i| i.source() == outcome.spec.source)
            .expect("every job replays one of the inputs");
        let streamed = simulate_trace(&outcome.spec, &traces[t]);
        rep.check(streamed == outcome.metrics, || {
            format!(
                "{}: streaming replay differs from the arena result",
                outcome.spec.label()
            )
        });
    }
    drop(traces);
    sim_totals(&mut rep, &cold.outcomes);
    rep.set("peak_rss_mb", peak_rss_mb());

    if let Some(tracer) = tracer {
        let arena_bytes = layers::decode_arenas(tracer, &paths);
        let arenas: Vec<&sigcomp_isa::DecodedTrace> =
            inputs.iter().map(|i| &**i.decoded()).collect();
        layers::sweep_layers(
            &mut rep,
            tracer,
            &layers::SweepRun {
                cold: &cold,
                warm: &warm[0],
                busy_s,
                model: &model,
                arena_bytes,
            },
            layers::Source::Arenas(&arenas),
        );
        rep.set("workloads.synth_ns_per_rec", layers::synth_ns(tracer, seed));
    }
    rep
}
