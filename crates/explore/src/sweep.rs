//! Running a sweep: fused per-input simulation, sharded accumulation,
//! caching, and dispatch onto the configured execution backend.
//!
//! # The group model
//!
//! Every job of a sweep replays one dynamic instruction stream — a kernel's
//! `(workload, size)` or a trace file's digest — under one extension scheme,
//! one memory profile and one pipeline organization. Only the timing model
//! depends on the organization: the record stream, its [`InstrCost`] vector,
//! the §3 hierarchy walk and the activity study (Tables 5/6) are the same
//! for every organization of a scheme and memory profile. The local
//! executor's unit of work is therefore a **group**: the cache-missing jobs
//! sharing a stream, a scheme and a memory profile. Per record a group runs
//! one source ([`Benchmark::run_each`] or [`DecodedTrace::iter`]), one
//! [`instr_cost`], one [`MemoryHierarchy`] walk whose latencies and L1-fill
//! outcome serve the analyzer *and* every organization, and one
//! [`TraceAnalyzer`]; only each organization's [`PipelineSim`] timing runs
//! per job. A job's [`JobMetrics`] is the shared activity report re-weighted
//! by its own organization's timing ([`JobMetrics::from_models`]).
//!
//! The single-job entry points ([`simulate_job`], [`simulate_trace`],
//! [`simulate_decoded`]) run a group of one through the same code.

use crate::backend::{ExecBackend, ExecError};
use crate::cache::ResultCache;
use crate::executor::run_parallel;
use crate::spec::{JobSpec, MemProfile, SweepSpec, TraceInput, TraceSource};
use sigcomp::{
    instr_cost, ActivityReport, EnergyModel, ExtScheme, InstrAccess, StageActivity, TraceAnalyzer,
};
use sigcomp_isa::{DecodedTrace, ExecRecord, Trace};
use sigcomp_mem::MemoryHierarchy;
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim, SimResult, Stage, StageDemand};
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

impl JobMetrics {
    /// Assembles one job's metrics from its two models: the activity
    /// study's report over the job's record stream and the timing result
    /// of its organization. The report's datapath columns are re-weighted
    /// with the organization's gated-lane budgets (see
    /// [`apply_pipeline_gating`]); its switching counters are kept as-is.
    #[must_use]
    pub fn from_models(
        mut activity: ActivityReport,
        org: &Organization,
        result: &SimResult,
    ) -> Self {
        apply_pipeline_gating(&mut activity, org, result);
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
    /// `(jobs, steals)` per worker, in worker order. On the local backend a
    /// worker takes whole groups (see the [module docs](self)), so its job
    /// count sums its groups' jobs and a steal moves one group. On the scale-out
    /// backends a "worker" is one shard process (subprocess) or one worker
    /// server that answered at least one dispatch, in address order,
    /// followed by one row for the frontier's local fallback if it ran
    /// (fleet). Steals are always 0 there: the shard partition is static.
    pub worker_loads: Vec<(u64, u64)>,
    /// Worker threads (local backend; at most one per group), shard
    /// processes (subprocess backend) or [`SweepSummary::worker_loads`] rows
    /// (fleet backend) actually used.
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
    only(replay_kernel(std::slice::from_ref(spec), benchmark))
}

/// Simulates one design point against a recorded trace: the records are
/// replayed through exactly the models a live run feeds, in the same order,
/// so the resulting metrics are bit-identical to the run that recorded them.
#[must_use]
pub fn simulate_trace(spec: &JobSpec, trace: &Trace) -> JobMetrics {
    let mut group = GroupModels::new(std::slice::from_ref(spec));
    for rec in trace {
        group.observe(rec);
    }
    only(group.finish())
}

/// [`simulate_trace`] over a decode-once arena: the records come out of the
/// shared [`DecodedTrace`] instead of a `Vec<ExecRecord>`, but they are the
/// same records in the same order, so the metrics are bit-identical.
#[must_use]
pub fn simulate_decoded(spec: &JobSpec, trace: &DecodedTrace) -> JobMetrics {
    only(replay_decoded(std::slice::from_ref(spec), trace))
}

fn only(metrics: Vec<JobMetrics>) -> JobMetrics {
    metrics
        .into_iter()
        .next()
        .expect("a group of one answers one job")
}

/// Replays one kernel's live record stream for every job of a group.
fn replay_kernel(jobs: &[JobSpec], benchmark: &Benchmark) -> Vec<JobMetrics> {
    let mut group = GroupModels::new(jobs);
    benchmark
        .run_each(|rec| group.observe(rec))
        .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name()));
    group.finish()
}

/// Replays one decoded trace for every job of a group.
fn replay_decoded(jobs: &[JobSpec], trace: &DecodedTrace) -> Vec<JobMetrics> {
    let mut group = GroupModels::new(jobs);
    for rec in trace.iter() {
        group.observe(&rec);
    }
    group.finish()
}

/// The model stack one group drives: a single stream of [`ExecRecord`]s —
/// from a live interpreter or a replayed file — feeds one cost vector, one
/// hierarchy walk, one stage demand and one activity study per record; the
/// demand is fanned out to one timing model per job.
struct GroupModels {
    hierarchy: MemoryHierarchy,
    analyzer: TraceAnalyzer,
    sims: Vec<PipelineSim>,
}

impl GroupModels {
    /// Models for `jobs`, which must share a scheme and a memory profile
    /// (their [`JobSpec::analyzer_config`] is then one and the same).
    fn new(jobs: &[JobSpec]) -> Self {
        let config = jobs[0].analyzer_config();
        let sims = jobs
            .iter()
            .map(|job| {
                // A mixed group would cache one job's metrics under another's id.
                assert_eq!((job.scheme, job.mem), (jobs[0].scheme, jobs[0].mem));
                PipelineSim::with_external_hierarchy(job.organization(), config.recoder.clone())
            })
            .collect();
        GroupModels {
            hierarchy: MemoryHierarchy::new(&config.hierarchy),
            analyzer: TraceAnalyzer::with_external_hierarchy(config),
            sims,
        }
    }

    fn observe(&mut self, rec: &ExecRecord) {
        // Every model runs under the group's scheme, recoder and hierarchy,
        // so the record is distilled and walked once and shared.
        let config = self.analyzer.config();
        let cost = instr_cost(rec, config.scheme, &config.recoder);
        let access = InstrAccess::walk(&mut self.hierarchy, rec);
        let demand = StageDemand::new(rec, &cost, &access);
        for sim in &mut self.sims {
            sim.observe_demand(&demand);
        }
        self.analyzer.observe_with_access(rec, &cost, &access);
    }

    /// One [`JobMetrics`] per job, in the order the jobs were given.
    fn finish(self) -> Vec<JobMetrics> {
        let activity = self.analyzer.report();
        self.sims
            .into_iter()
            .map(|sim| {
                let org = sim.organization().clone();
                JobMetrics::from_models(activity, &org, &sim.finish())
            })
            .collect()
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

/// The record stream a job replays: a kernel run live at one size, or a
/// trace file identified by its content digest (its display name is not
/// part of the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamKey {
    Kernel(&'static str, WorkloadSize),
    File(u64),
}

/// What the jobs of one group share (see the [module docs](self)).
type GroupKey = (StreamKey, ExtScheme, MemProfile);

fn group_key(job: &JobSpec) -> GroupKey {
    let stream = match job.source {
        TraceSource::Kernel => StreamKey::Kernel(job.workload, job.size),
        TraceSource::File { digest } => StreamKey::File(digest),
    };
    (stream, job.scheme, job.mem)
}

/// Partitions job positions into groups, each in job order; groups are
/// ordered by their first job, so the partition depends only on `jobs`.
fn group_jobs(jobs: &[JobSpec]) -> Vec<Vec<usize>> {
    let mut index: HashMap<GroupKey, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (position, job) in jobs.iter().enumerate() {
        let g = *index.entry(group_key(job)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(position);
    }
    groups
}

/// The [`ExecBackend::LocalThreads`] engine: every group on the in-process
/// work-stealing executor, each group's cache misses replayed in one fused
/// pass, results reassembled in job order.
fn run_jobs_local(jobs: &[JobSpec], traces: &[TraceInput], options: &SweepOptions) -> SweepSummary {
    let groups = group_jobs(jobs);
    // Mirror the executor's clamp so the summary reports the worker count
    // actually used.
    let workers = options.effective_workers().min(groups.len().max(1));

    // Each (workload, size) is assembled at most once, shared by every group
    // that needs it — and not at all when all of its jobs hit the cache.
    let mut benchmarks: HashMap<(&'static str, WorkloadSize), OnceLock<Benchmark>> = HashMap::new();
    for job in jobs {
        if job.source == TraceSource::Kernel {
            benchmarks.entry((job.workload, job.size)).or_default();
        }
    }
    let traces_by_digest: HashMap<u64, &TraceInput> =
        traces.iter().map(|t| (t.digest(), t)).collect();

    // Handles are fetched once; the per-group hot path below records
    // through them lock-free. The fused counters stay outside the
    // `replay.`/`explore.cache.` families, whose totals must not depend on
    // how a batch was grouped (shards group differently).
    let obs = sigcomp_obs::global();
    let obs_simulated = obs.counter("replay.jobs_simulated");
    let obs_cached = obs.counter("replay.jobs_cached");
    let obs_instructions = obs.counter("replay.instructions");
    let obs_groups = obs.counter("explore.fused.groups");
    let obs_records = obs.counter("explore.fused.records");
    obs.gauge("explore.workers").set_max(workers as u64);

    // Replays one group's cache misses from the stream they share.
    let replay = |misses: &[JobSpec]| {
        let first = misses[0];
        match first.source {
            TraceSource::Kernel => {
                let benchmark = benchmarks[&(first.workload, first.size)].get_or_init(|| {
                    find(first.workload, first.size)
                        .unwrap_or_else(|| panic!("unknown workload {}", first.workload))
                });
                replay_kernel(misses, benchmark)
            }
            TraceSource::File { digest } => {
                let input = traces_by_digest.get(&digest).unwrap_or_else(|| {
                    panic!(
                        "no trace with digest {digest:016x} for job {}",
                        first.label()
                    )
                });
                replay_decoded(misses, input.decoded())
            }
        }
    };

    let started = Instant::now();
    let (answers, reports) =
        run_parallel::<Vec<JobOutcome>, SweepShard, _>(groups.len(), workers, |g, shard| {
            let members = &groups[g];
            let first = jobs[members[0]];
            let _span = sigcomp_obs::span!(
                "replay.job",
                job_id = format_args!("{:016x}", first.job_id()),
                jobs = members.len(),
            );
            let cached: Vec<Option<JobMetrics>> = members
                .iter()
                .map(|&p| {
                    options
                        .cache
                        .as_ref()
                        .and_then(|c| c.load(jobs[p].job_id()))
                })
                .collect();
            let misses: Vec<JobSpec> = members
                .iter()
                .zip(&cached)
                .filter(|(_, hit)| hit.is_none())
                .map(|(&p, _)| jobs[p])
                .collect();

            let mut simulated = Vec::new();
            if !misses.is_empty() {
                simulated = replay(&misses);
                obs_groups.incr();
                obs_records.add(simulated[0].instructions);
                if let Some(cache) = options.cache.as_ref() {
                    for (job, metrics) in misses.iter().zip(&simulated) {
                        // A failed store only costs a re-simulation next run.
                        let _ = cache.store(job.job_id(), metrics);
                    }
                }
            }

            let mut simulated = simulated.into_iter();
            members
                .iter()
                .zip(cached)
                .map(|(&p, hit)| {
                    let from_cache = hit.is_some();
                    let metrics = hit.unwrap_or_else(|| {
                        simulated.next().expect("one simulation per cache miss")
                    });
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
                        spec: jobs[p],
                        metrics,
                        from_cache,
                    }
                })
                .collect()
        });
    let wall = started.elapsed();
    obs.histogram("explore.batch.wall", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US)
        .observe(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));

    let mut slots: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    for (members, answer) in groups.iter().zip(answers) {
        for (&p, outcome) in members.iter().zip(answer) {
            slots[p] = Some(outcome);
        }
    }
    let outcomes = slots
        .into_iter()
        .map(|o| o.expect("every job belongs to one group"))
        .collect();

    let mut totals = SweepShard::default();
    let mut worker_loads = Vec::with_capacity(reports.len());
    for report in &reports {
        totals.merge(&report.shard);
        // Loads count jobs, not the groups the executor handed out.
        worker_loads.push((report.shard.simulated + report.shard.cached, report.steals));
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
