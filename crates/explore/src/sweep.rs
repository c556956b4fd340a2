//! Running a sweep: per-job simulation, sharded accumulation, caching, and
//! dispatch onto the configured execution backend.

use crate::backend::{ExecBackend, ExecError};
use crate::cache::ResultCache;
use crate::executor::run_parallel;
use crate::spec::{JobSpec, SweepSpec, TraceInput, TraceSource};
use sigcomp::{ActivityReport, EnergyModel, StageActivity, TraceAnalyzer};
use sigcomp_isa::{DecodedTrace, ExecRecord, Trace};
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim, SimResult, Stage};
use sigcomp_workloads::{find, Benchmark, WorkloadSize};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The measured numbers of one job, independent of its specification.
///
/// Everything is an exact integer counter, so results are bit-identical
/// whether they come from a fresh simulation, a cache hit, or a merge of
/// either — floating-point derivations ([`JobOutcome::cpi`],
/// [`JobOutcome::energy_saving`]) happen only at read time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Retired instructions.
    pub instructions: u64,
    /// Total pipeline cycles.
    pub cycles: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Stall cycles from structural hazards (all stages).
    pub stall_structural: u64,
    /// Stall cycles from data hazards.
    pub stall_data_hazard: u64,
    /// Stall cycles from control hazards.
    pub stall_control: u64,
    /// Per-stage activity under this job's scheme vs the 32-bit baseline.
    pub activity: ActivityReport,
}

/// One simulated (or cache-restored) point of the design space.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The point this outcome belongs to.
    pub spec: JobSpec,
    /// The measured counters.
    pub metrics: JobMetrics,
    /// Whether the result was restored from the cache instead of simulated.
    pub from_cache: bool,
}

impl JobOutcome {
    /// Cycles per instruction. Like [`crate::ConfigPoint::cpi`], a job that
    /// retired no instructions (an empty replayed trace) has *infinite* CPI
    /// — not zero, which would rank it as the best-performing job in any
    /// export a consumer sorts by CPI.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.metrics.instructions == 0 {
            f64::INFINITY
        } else {
            self.metrics.cycles as f64 / self.metrics.instructions as f64
        }
    }

    /// Fractional total-energy (dynamic + static) saving of this
    /// configuration. The 32-bit baseline organization carries no extension
    /// bits, so its saving is zero by definition; every other organization
    /// is credited the reduction its scheme achieves under `model`. With a
    /// dynamic-only model this is exactly the dynamic saving.
    #[must_use]
    pub fn energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.saving(&self.metrics.activity)
        }
    }

    /// Fractional saving of the dynamic (switching) term alone — the
    /// paper's number, independent of the model's leakage weights.
    #[must_use]
    pub fn dynamic_energy_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.dynamic_saving(&self.metrics.activity)
        }
    }

    /// Fractional saving of the static (leakage) term alone; zero under a
    /// dynamic-only model.
    #[must_use]
    pub fn leakage_saving(&self, model: &EnergyModel) -> f64 {
        if self.spec.org == OrgKind::Baseline32 {
            0.0
        } else {
            model.leakage_saving(&self.metrics.activity)
        }
    }
}

/// Per-worker sharded accumulation: integer counters only, so the final
/// worker-order merge is bit-identical no matter how jobs were scheduled.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepShard {
    /// Jobs simulated (cache hits excluded).
    pub simulated: u64,
    /// Jobs restored from the result cache.
    pub cached: u64,
    /// Instructions simulated (cache hits excluded).
    pub instructions_simulated: u64,
    /// Total activity observed across the shard's jobs.
    pub activity: ActivityReport,
}

impl SweepShard {
    /// Folds another shard into this one.
    pub fn merge(&mut self, other: &SweepShard) {
        self.simulated += other.simulated;
        self.cached += other.cached;
        self.instructions_simulated += other.instructions_simulated;
        self.activity.merge(&other.activity);
    }
}

/// How to run a sweep.
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses the machine's available parallelism. On
    /// the subprocess backend this is the thread count *per shard*; on the
    /// fleet backend it sizes the frontier's local fallback (each worker
    /// server keeps its own thread count).
    pub workers: Option<usize>,
    /// Result cache; `None` simulates everything. Required by both
    /// scale-out backends ([`ExecBackend::Subprocess`] and
    /// [`ExecBackend::Fleet`]): it is the merge point their shards'
    /// results are replicated into and restored from.
    pub cache: Option<ResultCache>,
    /// Where the jobs execute (default: the in-process thread pool).
    pub backend: ExecBackend,
}

impl SweepOptions {
    /// Runs with exactly `workers` threads and no cache.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        SweepOptions {
            workers: Some(workers),
            cache: None,
            backend: ExecBackend::LocalThreads,
        }
    }

    /// Attaches a result cache.
    #[must_use]
    pub fn cache(mut self, cache: ResultCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Selects the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepSummary {
    /// Per-job outcomes, in [`SweepSpec::enumerate`] order — deterministic
    /// and independent of the worker count.
    pub outcomes: Vec<JobOutcome>,
    /// The worker shards folded together in worker order.
    pub totals: SweepShard,
    /// `(jobs, steals)` per worker, in worker order. On the scale-out
    /// backends a "worker" is one shard process (subprocess) or one worker
    /// server that answered at least one dispatch, in address order,
    /// followed by one row for the frontier's local fallback if it ran
    /// (fleet). Steals are always 0 there: the shard partition is static.
    pub worker_loads: Vec<(u64, u64)>,
    /// Worker threads (local backend), shard processes (subprocess
    /// backend) or [`SweepSummary::worker_loads`] rows (fleet backend)
    /// actually used.
    pub workers: usize,
    /// Wall-clock time of the parallel phase.
    pub wall: Duration,
    /// Stable id of the backend that executed the sweep
    /// ([`ExecBackend::id`]): `"local"`, `"subprocess"` or `"fleet"`.
    pub backend: &'static str,
    /// The observability snapshots the workers' reports carried. On the
    /// subprocess backend, one per shard in shard order: each is that
    /// shard's delta, and the parent's global registry holds their merge.
    /// On the fleet backend, the latest snapshot of each worker server that
    /// answered, in address order: cumulative over the server's lifetime,
    /// so recorded for attribution, never folded. Empty on the local
    /// backend (metrics were recorded into the parent's registry directly).
    pub shard_obs: Vec<sigcomp_obs::Snapshot>,
}

impl SweepSummary {
    /// Jobs simulated this run (cache misses).
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.totals.simulated
    }

    /// Jobs answered from the result cache.
    #[must_use]
    pub fn cached(&self) -> u64 {
        self.totals.cached
    }
}

/// Simulates one design point against an already-built benchmark: a single
/// interpreter pass feeds both the cycle-level timing model and the
/// activity study.
///
/// # Panics
///
/// Panics if the kernel fails to execute (a workload bug, not a runtime
/// condition).
#[must_use]
pub fn simulate_job(spec: &JobSpec, benchmark: &Benchmark) -> JobMetrics {
    let mut models = JobModels::new(spec);
    benchmark
        .run_each(|rec| models.observe(rec))
        .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name()));
    models.finish()
}

/// Simulates one design point against a recorded trace: the records are
/// replayed through exactly the models a live run feeds, in the same order,
/// so the resulting metrics are bit-identical to the run that recorded them.
#[must_use]
pub fn simulate_trace(spec: &JobSpec, trace: &Trace) -> JobMetrics {
    let mut models = JobModels::new(spec);
    for rec in trace {
        models.observe(rec);
    }
    models.finish()
}

/// [`simulate_trace`] over a decode-once arena: the records come out of the
/// shared [`DecodedTrace`] instead of a `Vec<ExecRecord>`, but they are the
/// same records in the same order, so the metrics are bit-identical.
#[must_use]
pub fn simulate_decoded(spec: &JobSpec, trace: &DecodedTrace) -> JobMetrics {
    let mut models = JobModels::new(spec);
    for rec in trace.iter() {
        models.observe(&rec);
    }
    models.finish()
}

/// The model stack one job drives — a single stream of [`ExecRecord`]s feeds
/// both the cycle-level timing simulator and the activity study, whether the
/// stream comes from a live interpreter or a replayed file.
struct JobModels {
    org: Organization,
    sim: PipelineSim,
    analyzer: TraceAnalyzer,
}

impl JobModels {
    fn new(spec: &JobSpec) -> Self {
        let hierarchy = spec.mem.hierarchy();
        let config = spec.analyzer_config();
        let recoder = config.recoder.clone();
        let org = spec.organization();
        JobModels {
            sim: PipelineSim::with_config(org.clone(), &hierarchy, recoder),
            org,
            analyzer: TraceAnalyzer::new(config),
        }
    }

    fn observe(&mut self, rec: &ExecRecord) {
        // Both models run under the same scheme and recoder (they come from
        // the same JobSpec), so the record is distilled into its cost vector
        // once and shared instead of once per model.
        let config = self.analyzer.config();
        let cost = sigcomp::cost::instr_cost(rec, config.scheme, &config.recoder);
        self.sim.observe_with_cost(rec, &cost);
        self.analyzer.observe_with_cost(rec, &cost);
    }

    fn finish(self) -> JobMetrics {
        let mut activity = self.analyzer.report();
        let result = self.sim.finish();
        apply_pipeline_gating(&mut activity, &self.org, &result);
        JobMetrics {
            instructions: result.instructions,
            cycles: result.cycles,
            branches: result.branches,
            stall_structural: result.stalls.structural.iter().sum(),
            stall_data_hazard: result.stalls.data_hazard,
            stall_control: result.stalls.control,
            activity,
        }
    }
}

/// Replaces the gated-lane occupancy of the datapath columns with the timed
/// pipeline's per-stage counters.
///
/// The analyzer's occupancy is one slot per instruction per structure — the
/// paper's organization-independent activity framing, right for the dynamic
/// (switching) term. Static leakage, though, accrues over *time* in the
/// lanes an organization actually builds: a byte-serial machine holds one
/// narrow ALU busy for many cycles (little to gate, long runtime), the
/// full-width compressed machine powers wide lanes briefly and gates most
/// of them. The sweep therefore weighs the leakage term with the timing
/// model's `lane width × occupied cycles` budgets (miss stalls included),
/// which differ per organization; the switching counters are untouched, so
/// every dynamic figure stays bit-identical to the activity study.
///
/// The PC incrementer, pipeline latches and tag array have no timed stage
/// of their own; their analyzer-side occupancy is kept.
fn apply_pipeline_gating(activity: &mut ActivityReport, org: &Organization, result: &SimResult) {
    fn mapped(activity: &mut ActivityReport, stage: Stage) -> &mut StageActivity {
        match stage {
            Stage::Fetch => &mut activity.fetch,
            Stage::RegRead => &mut activity.rf_read,
            Stage::Execute | Stage::ExecuteHi => &mut activity.alu,
            Stage::Memory | Stage::MemoryHi => &mut activity.dcache_data,
            Stage::Writeback => &mut activity.rf_write,
        }
    }
    for &stage in org.stages() {
        let column = mapped(activity, stage);
        column.gated_byte_cycles = 0;
        column.total_byte_cycles = 0;
    }
    for (s, &stage) in org.stages().iter().enumerate() {
        mapped(activity, stage)
            .add_gating(result.gated_byte_cycles[s], result.total_byte_cycles[s]);
    }
}

/// Runs the whole sweep: enumerates the design space, executes every job on
/// the configured [`ExecBackend`] (answering from the cache where possible),
/// and merges the shards.
///
/// Outcomes and totals are bit-identical for every worker count *and* shard
/// count: results are reassembled in job order and shards hold only integer
/// counters.
///
/// # Errors
///
/// Any [`ExecError`] from a scale-out backend (a dead or misbehaving
/// worker, a missing cache); the local backend never fails.
///
/// # Panics
///
/// On the local backend, if a workload named by the spec does not exist or
/// fails to run (a bug in the caller's sweep assembly, not a runtime
/// condition).
pub fn try_run_sweep(spec: &SweepSpec, options: &SweepOptions) -> Result<SweepSummary, ExecError> {
    try_run_jobs_traced(&spec.enumerate(), spec.trace_inputs(), options)
}

/// Runs an explicit batch of jobs — the submission API that long-running
/// front-ends (e.g. `sigcomp-serve`) feed coalesced request batches into.
///
/// Exactly the engine behind [`try_run_sweep`], minus the design-space
/// enumeration: every job runs on the configured backend, cache hits are
/// substituted where [`SweepOptions::cache`] holds a result, and
/// [`SweepSummary::outcomes`] comes back in `jobs` order. On the local
/// backend duplicate specs in `jobs` are each answered — batch
/// deduplication is the caller's concern, keyed by [`JobSpec::job_id`]
/// (see [`crate::dedup_jobs`]); the scale-out backends dedup internally
/// and answer follower positions from their leader's run.
///
/// # Errors
///
/// Any [`ExecError`] from a scale-out backend; the local backend never
/// fails.
///
/// # Panics
///
/// On the local backend, if a workload named by a job does not exist or
/// fails to run, or if a [`TraceSource::File`] job's digest has no matching
/// trace (use [`try_run_jobs_traced`] to supply recorded traces).
pub fn try_run_jobs(jobs: &[JobSpec], options: &SweepOptions) -> Result<SweepSummary, ExecError> {
    try_run_jobs_traced(jobs, &[], options)
}

/// [`try_run_jobs`] with a set of recorded traces resolving the jobs'
/// [`TraceSource::File`] digests. Kernel jobs ignore `traces` entirely.
/// (On the subprocess backend workers re-load traces from
/// [`crate::SubprocessConfig::trace_paths`]; the wire protocol ships only
/// content digests.)
///
/// # Errors
///
/// Any [`ExecError`] from a scale-out backend; the local backend never
/// fails.
///
/// # Panics
///
/// On the local backend, if a workload named by a job does not exist or
/// fails to run, or if a file job's digest matches none of `traces`.
pub fn try_run_jobs_traced(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
) -> Result<SweepSummary, ExecError> {
    match &options.backend {
        ExecBackend::LocalThreads => Ok(run_jobs_local(jobs, traces, options)),
        ExecBackend::Subprocess(config) => {
            crate::backend::run_subprocess(jobs, traces, options, config)
        }
        ExecBackend::Fleet(config) => crate::backend::run_fleet(jobs, traces, options, config),
    }
}

/// The [`ExecBackend::LocalThreads`] engine: every job on the in-process
/// work-stealing executor, results reassembled in job order.
fn run_jobs_local(jobs: &[JobSpec], traces: &[TraceInput], options: &SweepOptions) -> SweepSummary {
    // Mirror the executor's clamp so the summary reports the worker count
    // actually used.
    let workers = options.effective_workers().min(jobs.len().max(1));

    // Each (workload, size) is assembled at most once, shared by every job
    // that needs it — and not at all when all of its jobs hit the cache.
    let mut benchmarks: HashMap<(&'static str, WorkloadSize), OnceLock<Benchmark>> = HashMap::new();
    for job in jobs {
        if job.source == TraceSource::Kernel {
            benchmarks.entry((job.workload, job.size)).or_default();
        }
    }
    let traces_by_digest: HashMap<u64, &TraceInput> =
        traces.iter().map(|t| (t.digest(), t)).collect();

    // Handles are fetched once; the per-job hot path below records through
    // them lock-free.
    let obs = sigcomp_obs::global();
    let obs_simulated = obs.counter("replay.jobs_simulated");
    let obs_cached = obs.counter("replay.jobs_cached");
    let obs_instructions = obs.counter("replay.instructions");
    obs.gauge("explore.workers").set_max(workers as u64);

    let started = Instant::now();
    let (outcomes, reports) =
        run_parallel::<JobOutcome, SweepShard, _>(jobs.len(), workers, |index, shard| {
            let job = jobs[index];
            let key = job.job_id();
            let _span = sigcomp_obs::span!("replay.job", job_id = format_args!("{key:016x}"));
            let (metrics, from_cache) = if let Some(metrics) =
                options.cache.as_ref().and_then(|c| c.load(key))
            {
                (metrics, true)
            } else {
                let metrics = match job.source {
                    TraceSource::Kernel => {
                        let benchmark = benchmarks[&(job.workload, job.size)].get_or_init(|| {
                            find(job.workload, job.size)
                                .unwrap_or_else(|| panic!("unknown workload {}", job.workload))
                        });
                        simulate_job(&job, benchmark)
                    }
                    TraceSource::File { digest } => {
                        let input = traces_by_digest.get(&digest).unwrap_or_else(|| {
                            panic!("no trace with digest {digest:016x} for job {}", job.label())
                        });
                        simulate_decoded(&job, input.decoded())
                    }
                };
                if let Some(cache) = options.cache.as_ref() {
                    // A failed store only costs a re-simulation next run.
                    let _ = cache.store(key, &metrics);
                }
                (metrics, false)
            };
            if from_cache {
                shard.cached += 1;
                obs_cached.incr();
            } else {
                shard.simulated += 1;
                shard.instructions_simulated += metrics.instructions;
                obs_simulated.incr();
                obs_instructions.add(metrics.instructions);
            }
            shard.activity.merge(&metrics.activity);
            JobOutcome {
                spec: job,
                metrics,
                from_cache,
            }
        });
    let wall = started.elapsed();
    obs.histogram("explore.batch.wall", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US)
        .observe(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));

    let mut totals = SweepShard::default();
    let mut worker_loads = Vec::with_capacity(reports.len());
    for report in &reports {
        totals.merge(&report.shard);
        worker_loads.push((report.jobs, report.steals));
    }

    SweepSummary {
        outcomes,
        totals,
        worker_loads,
        workers,
        wall,
        backend: "local",
        shard_obs: Vec::new(),
    }
}
