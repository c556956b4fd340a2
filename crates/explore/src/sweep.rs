//! Running a sweep: fused per-input simulation, sharded accumulation,
//! caching, and dispatch onto the configured execution backend.
//!
//! # The group model
//!
//! Every job of a sweep replays one dynamic instruction stream — a kernel's
//! `(workload, size)` or a trace file's digest, its [`StreamKey`] — under
//! one extension scheme, one memory profile and one pipeline organization.
//! Each axis reaches only some of the per-record work:
//!
//! * the record stream alone fixes the compressed instruction
//!   ([`compress_instruction`], the recoder is always the paper's) and the
//!   activity study's fetch and PC incrementer ([`StreamActivity`], one
//!   incrementer per distinct PC block size);
//! * the §3 hierarchy walk ([`InstrAccess::walk`]) and the miss penalties
//!   it adds ([`MissPenalty`]) depend only on the memory profile;
//! * the rest of the [`instr_cost`](sigcomp::instr_cost) vector
//!   ([`instr_cost_with_fetch`]), the [`StageDemand`] built from it, the
//!   count of its class ([`DemandClasses`]) and the activity core
//!   ([`TraceAnalyzer::observe_core`], Tables 5/6) depend only on the
//!   scheme;
//! * the activity study's D-cache line fills ([`LineFills`]) depend on the
//!   scheme and the memory profile;
//! * the stage occupancies ([`StageOccupancy`], read through the
//!   organization's [`StageRules`]) depend on the scheme and the
//!   organization;
//! * only the pipeline recurrence ([`PipelineSim::observe_demand`])
//!   depends on all three.
//!
//! The lane-gating budgets are no per-record work: a job's timing model
//! folds them from its scheme's class counts, and adds its profile's
//! summed miss penalties, only when it reports
//! ([`PipelineSim::result_with`]).
//!
//! The local executor's unit of work is therefore a **stream group**: the
//! cache-missing jobs sharing a stream. Per record a group runs one source
//! step ([`Benchmark::run_each`] or [`DecodedTrace::iter`]), one
//! compression and stream-activity step, one walk per memory profile, one
//! cost vector, demand, class count and activity core per scheme, one
//! occupancy gather per `(scheme, organization)`, one line-fill check per
//! `(scheme, memory profile)` block, and one recurrence per job. The 32-bit
//! baseline needs less still: it occupies every stage for one cycle, gates
//! no lanes and resolves every branch in execute, so its timing is the same
//! under every scheme, and one baseline model per memory profile answers
//! each scheme's baseline job. A job's [`JobMetrics`] is its block's
//! activity report re-weighted by its own organization's timing
//! ([`JobMetrics::from_models`]).
//!
//! # Planning
//!
//! A batch runs in two phases on the pool. First the result cache is
//! probed job by job, so a warm batch builds no group at all. Then the
//! misses are grouped by stream. While workers outnumber groups, the
//! heaviest group is halved along its memory profiles, or along its
//! schemes once it has one profile left; each piece re-runs only the shared
//! prefix. The groups are dealt to the workers heaviest first, a group
//! weighing its misses times its stream's records (a kernel's record count
//! is unknown before it runs, so a kernel group weighs its misses alone).
//! None of this reaches the outputs: outcomes come back in job order and
//! shards hold only integer counters.
//!
//! The single-job entry points ([`simulate_job`], [`simulate_trace`],
//! [`simulate_decoded`]) run a group of one through the same code.

use crate::backend::{ExecBackend, ExecError};
use crate::cache::ResultCache;
use crate::executor::{run_parallel, run_parallel_dealt};
use crate::spec::{JobSpec, MemProfile, StreamKey, SweepSpec, TraceInput};
use sigcomp::ifetch::compress_instruction;
use sigcomp::{
    instr_cost_with_fetch, ActivityReport, EnergyModel, ExtScheme, FunctRecoder, InstrAccess,
    LineFills, StageActivity, StreamActivity, TraceAnalyzer,
};
use sigcomp_isa::{DecodedTrace, ExecRecord, Trace};
use sigcomp_mem::{CacheConfig, MemoryHierarchy};
use sigcomp_pipeline::{
    DemandClasses, MissPenalty, OrgKind, Organization, PipelineSim, SimResult, Stage, StageDemand,
    StageOccupancy, StageRules,
};
use sigcomp_workloads::{find, Benchmark};
use std::cmp::Reverse;
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
    /// worker probes single jobs and then takes whole groups (see the
    /// [module docs](self)), so its job count sums its cache hits and its
    /// groups' jobs, and a steal moves one probe or one group. On the scale-out
    /// backends a "worker" is one shard process (subprocess) or one worker
    /// server that answered at least one dispatch, in address order,
    /// followed by one row for the frontier's local fallback if it ran
    /// (fleet). Steals are always 0 there: the shard partition is static.
    pub worker_loads: Vec<(u64, u64)>,
    /// Worker threads (local backend; at most one per job probed or group
    /// run), shard processes (subprocess backend) or
    /// [`SweepSummary::worker_loads`] rows (fleet backend) actually used.
    pub workers: usize,
    /// Wall-clock time of the parallel phases.
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

/// The model stack one stream group drives (see the [module docs](self)):
/// a single stream of [`ExecRecord`]s — from a live interpreter or a
/// replayed file — feeds one compression and stream-activity step; one
/// hierarchy walk per memory profile; one cost vector, stage demand, class
/// count and activity core per scheme; one occupancy gather per
/// `(scheme, organization)`; one line-fill tally per `(scheme, memory
/// profile)` block; and one pipeline recurrence per job.
struct GroupModels {
    recoder: FunctRecoder,
    /// The fetch and PC activity every scheme's report reads.
    stream: StreamActivity,
    mems: Vec<MemModels>,
    /// The current record's walk of each memory profile's hierarchy, and
    /// the miss penalties it adds.
    accesses: Vec<(InstrAccess, MissPenalty)>,
    schemes: Vec<SchemeModels>,
    /// Where each job's answer comes from, in the order the jobs were given.
    answers: Vec<Answer>,
}

/// The models of one memory profile.
struct MemModels {
    profile: MemProfile,
    hierarchy: MemoryHierarchy,
    /// The D-cache geometry, which sizes the activity study's line fills
    /// and tags.
    dl1: CacheConfig,
    /// The scheme-independent baseline timing model, if any scheme's
    /// baseline job under this profile is in the group.
    baseline: Option<PipelineSim>,
}

/// The models of one scheme.
struct SchemeModels {
    scheme: ExtScheme,
    /// The activity core, shared by every memory profile.
    analyzer: TraceAnalyzer,
    /// How often each demand class occurs, shared by every organization
    /// and memory profile.
    classes: DemandClasses,
    /// The rules of each organization the scheme's jobs are timed on,
    /// shared by every memory profile.
    rules: Vec<StageRules>,
    /// The current record's stage occupancies, one per organization.
    occupancy: Vec<StageOccupancy>,
    /// One block per memory profile the scheme has jobs under.
    blocks: Vec<BlockModels>,
}

/// The models of one `(scheme, memory profile)` block.
struct BlockModels {
    /// Index of the block's memory profile in the group.
    mem: usize,
    /// The profile's D-cache line fills under the scheme.
    fills: LineFills,
    /// The timing models of the block's non-baseline jobs, each with the
    /// index of its organization's rules in the scheme.
    sims: Vec<(usize, PipelineSim)>,
    /// The scheme's baseline rules, if this block's demand drives its
    /// profile's baseline model.
    baseline_rules: Option<usize>,
}

/// Which models answer one job.
struct Answer {
    org: Organization,
    scheme: usize,
    block: usize,
    mem: usize,
    /// The job's timing model in its block, or `None` for a baseline job,
    /// which its memory profile's shared baseline model answers.
    sim: Option<usize>,
}

/// The index of the first of `items` that `is` accepts, after pushing
/// `new()` if none does.
fn find_or_push<T>(items: &mut Vec<T>, is: impl Fn(&T) -> bool, new: impl FnOnce() -> T) -> usize {
    items.iter().position(is).unwrap_or_else(|| {
        items.push(new());
        items.len() - 1
    })
}

impl GroupModels {
    /// Models for `jobs`, which must share a stream.
    fn new(jobs: &[JobSpec]) -> Self {
        let recoder = jobs[0].analyzer_config().recoder;
        let mut stream = StreamActivity::default();
        let mut mems: Vec<MemModels> = Vec::new();
        let mut schemes: Vec<SchemeModels> = Vec::new();
        let mut answers = Vec::with_capacity(jobs.len());
        for job in jobs {
            // A mixed group would cache one stream's metrics under another's id.
            assert_eq!(job.stream(), jobs[0].stream());
            let config = job.analyzer_config();
            stream.track_pc_blocks(config.pc_block_bits);
            let mem = find_or_push(
                &mut mems,
                |m| m.profile == job.mem,
                || MemModels {
                    profile: job.mem,
                    hierarchy: MemoryHierarchy::new(&config.hierarchy),
                    dl1: config.hierarchy.dl1,
                    baseline: None,
                },
            );
            let scheme = find_or_push(
                &mut schemes,
                |s| s.scheme == job.scheme,
                || SchemeModels {
                    scheme: job.scheme,
                    analyzer: TraceAnalyzer::with_external_hierarchy(config.clone()),
                    classes: DemandClasses::new(),
                    rules: Vec::new(),
                    occupancy: Vec::new(),
                    blocks: Vec::new(),
                },
            );
            let org = job.organization();
            let rules = find_or_push(
                &mut schemes[scheme].rules,
                |r| r.kind() == job.org,
                || StageRules::new(&org),
            );
            let blocks = &mut schemes[scheme].blocks;
            let block = find_or_push(
                blocks,
                |b| b.mem == mem,
                || BlockModels {
                    mem,
                    fills: LineFills::default(),
                    sims: Vec::new(),
                    baseline_rules: None,
                },
            );
            let timing = PipelineSim::with_external_hierarchy(org.clone(), recoder.clone());
            let sim = if job.org == OrgKind::Baseline32 {
                if mems[mem].baseline.is_none() {
                    mems[mem].baseline = Some(timing);
                    blocks[block].baseline_rules = Some(rules);
                }
                None
            } else {
                let sims = &mut blocks[block].sims;
                sims.push((rules, timing));
                Some(sims.len() - 1)
            };
            answers.push(Answer {
                org,
                scheme,
                block,
                mem,
                sim,
            });
        }
        GroupModels {
            recoder,
            stream,
            accesses: Vec::with_capacity(mems.len()),
            mems,
            schemes,
            answers,
        }
    }

    fn observe(&mut self, rec: &ExecRecord) {
        // Each quantity is derived once per record at the level it depends
        // on: the compressed instruction, fetch and PC activity per stream,
        // the walk per memory profile, the demand, class count and activity
        // core per scheme, the occupancies per (scheme, organization), the
        // line fills per block, and only the pipeline recurrence per job.
        let fetch = compress_instruction(&rec.instr, &self.recoder);
        self.stream.observe(rec.pc, &fetch);
        self.accesses.clear();
        for mem in &mut self.mems {
            let access = InstrAccess::walk(&mut mem.hierarchy, rec);
            self.accesses.push((access, MissPenalty::new(&access)));
        }
        for scheme in &mut self.schemes {
            let cost = instr_cost_with_fetch(rec, scheme.scheme, fetch);
            let demand = StageDemand::new(rec, &cost);
            scheme.classes.observe(&demand);
            scheme.analyzer.observe_core(rec, &cost);
            scheme.occupancy.clear();
            for rules in &scheme.rules {
                scheme.occupancy.push(rules.occupancy(&demand));
            }
            for block in &mut scheme.blocks {
                let (access, penalty) = &self.accesses[block.mem];
                for (rules, sim) in &mut block.sims {
                    sim.observe_demand(&demand, &scheme.occupancy[*rules], penalty);
                }
                if let Some(rules) = block.baseline_rules {
                    if let Some(baseline) = &mut self.mems[block.mem].baseline {
                        baseline.observe_demand(&demand, &scheme.occupancy[rules], penalty);
                    }
                }
                block.fills.observe(rec, access, scheme.scheme);
            }
        }
    }

    /// One [`JobMetrics`] per job, in the order the jobs were given.
    fn finish(self) -> Vec<JobMetrics> {
        self.answers
            .iter()
            .map(|answer| {
                let scheme = &self.schemes[answer.scheme];
                let block = &scheme.blocks[answer.block];
                let mem = &self.mems[answer.mem];
                let timing = match answer.sim {
                    Some(sim) => &block.sims[sim].1,
                    None => mem
                        .baseline
                        .as_ref()
                        .expect("a baseline job has its profile's baseline model"),
                };
                JobMetrics::from_models(
                    scheme
                        .analyzer
                        .report_with(&self.stream, &block.fills, &mem.dl1),
                    &answer.org,
                    &timing.result_with(&scheme.classes),
                )
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
/// fails to run, or if a [`TraceSource::File`](crate::TraceSource::File)
/// job's digest has no matching trace (use [`try_run_jobs_traced`] to
/// supply recorded traces).
pub fn try_run_jobs(jobs: &[JobSpec], options: &SweepOptions) -> Result<SweepSummary, ExecError> {
    try_run_jobs_traced(jobs, &[], options)
}

/// [`try_run_jobs`] with a set of recorded traces resolving the jobs'
/// [`TraceSource::File`](crate::TraceSource::File) digests. Kernel jobs
/// ignore `traces` entirely. (On the subprocess backend workers re-load traces from
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

/// Partitions the positions of the cache-missing jobs into stream groups
/// and plans them for `workers` (see the [module docs](self)): each group
/// in job order, split while workers outnumber groups, heaviest first.
/// `records` gives a stream's record count where it is known up front.
fn plan_groups(
    jobs: &[JobSpec],
    misses: impl Iterator<Item = usize>,
    workers: usize,
    records: impl Fn(StreamKey) -> Option<u64>,
) -> Vec<Vec<usize>> {
    let mut index: HashMap<StreamKey, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for position in misses {
        let g = *index.entry(jobs[position].stream()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(position);
    }
    let weight =
        |group: &[usize]| group.len() as u64 * records(jobs[group[0]].stream()).unwrap_or(1);
    while groups.len() < workers {
        // Halve the heaviest group that can be halved (the first on ties).
        let Some((g, (kept, split_off))) = (0..groups.len())
            .filter_map(|g| split_group(jobs, &groups[g]).map(|halves| (g, halves)))
            .min_by_key(|&(g, _)| Reverse(weight(&groups[g])))
        else {
            break;
        };
        groups[g] = kept;
        groups.push(split_off);
    }
    // A stable sort: equal weights keep their first-miss order.
    groups.sort_by_key(|group| Reverse(weight(group)));
    groups
}

/// Halves a group along its memory profiles, or along its schemes if it
/// has only one profile; `None` for a single `(scheme, memory)` block.
fn split_group(jobs: &[JobSpec], group: &[usize]) -> Option<(Vec<usize>, Vec<usize>)> {
    fn halve<K: PartialEq>(
        jobs: &[JobSpec],
        group: &[usize],
        key: impl Fn(&JobSpec) -> K,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut keys = Vec::new();
        for &p in group {
            let k = key(&jobs[p]);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        if keys.len() < 2 {
            return None;
        }
        let first = &keys[..keys.len() / 2];
        Some(group.iter().partition(|&&p| first.contains(&key(&jobs[p]))))
    }
    halve(jobs, group, |job| job.mem).or_else(|| halve(jobs, group, |job| job.scheme))
}

/// The [`ExecBackend::LocalThreads`] engine: the cache probed job by job,
/// then every stream group of the misses replayed in one fused pass on the
/// in-process work-stealing executor, results reassembled in job order.
fn run_jobs_local(jobs: &[JobSpec], traces: &[TraceInput], options: &SweepOptions) -> SweepSummary {
    let workers = options.effective_workers();
    let traces_by_digest: HashMap<u64, &TraceInput> =
        traces.iter().map(|t| (t.digest(), t)).collect();

    // Handles are fetched once; the hot paths below record through them
    // lock-free. The fused counters stay outside the `replay.`/
    // `explore.cache.` families, whose totals must not depend on how a
    // batch was grouped (shards group differently).
    let obs = sigcomp_obs::global();
    let obs_simulated = obs.counter("replay.jobs_simulated");
    let obs_cached = obs.counter("replay.jobs_cached");
    let obs_instructions = obs.counter("replay.instructions");
    let obs_groups = obs.counter("explore.fused.groups");
    let obs_records = obs.counter("explore.fused.records");

    let started = Instant::now();
    // Probe the cache per job before grouping: a warm batch then builds no
    // group, and its loads spread over every worker.
    let (hits, probe_reports) = match options.cache.as_ref() {
        Some(cache) => {
            run_parallel::<Option<JobMetrics>, SweepShard, _>(jobs.len(), workers, |p, shard| {
                let hit = cache.load(jobs[p].job_id());
                if let Some(metrics) = &hit {
                    shard.cached += 1;
                    shard.activity.merge(&metrics.activity);
                    obs_cached.incr();
                }
                hit
            })
        }
        None => (vec![None; jobs.len()], Vec::new()),
    };

    let groups = plan_groups(
        jobs,
        (0..jobs.len()).filter(|&p| hits[p].is_none()),
        workers,
        |stream| match stream {
            StreamKey::File(digest) => traces_by_digest
                .get(&digest)
                .map(|t| t.decoded().len() as u64),
            StreamKey::Kernel(..) => None,
        },
    );

    // Each (workload, size) with a miss is assembled once, shared by every
    // piece of its group.
    let mut benchmarks: HashMap<StreamKey, OnceLock<Benchmark>> = HashMap::new();
    for group in &groups {
        benchmarks.entry(jobs[group[0]].stream()).or_default();
    }

    // Replays one group's jobs from the stream they share.
    let replay = |misses: &[JobSpec]| {
        let first = misses[0];
        match first.stream() {
            stream @ StreamKey::Kernel(workload, size) => {
                let benchmark = benchmarks[&stream].get_or_init(|| {
                    find(workload, size).unwrap_or_else(|| panic!("unknown workload {workload}"))
                });
                replay_kernel(misses, benchmark)
            }
            StreamKey::File(digest) => {
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

    let (answers, group_reports) = if groups.is_empty() {
        (Vec::new(), Vec::new())
    } else {
        run_parallel_dealt::<Vec<JobMetrics>, SweepShard, _>(groups.len(), workers, |g, shard| {
            let misses: Vec<JobSpec> = groups[g].iter().map(|&p| jobs[p]).collect();
            let _span = sigcomp_obs::span!(
                "replay.job",
                job_id = format_args!("{:016x}", misses[0].job_id()),
                jobs = misses.len(),
            );
            let simulated = replay(&misses);
            obs_groups.incr();
            obs_records.add(simulated[0].instructions);
            for (job, metrics) in misses.iter().zip(&simulated) {
                if let Some(cache) = options.cache.as_ref() {
                    // A failed store only costs a re-simulation next run.
                    let _ = cache.store(job.job_id(), metrics);
                }
                shard.simulated += 1;
                shard.instructions_simulated += metrics.instructions;
                shard.activity.merge(&metrics.activity);
                obs_simulated.incr();
                obs_instructions.add(metrics.instructions);
            }
            simulated
        })
    };
    let wall = started.elapsed();
    obs.histogram("explore.batch.wall", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US)
        .observe(u64::try_from(wall.as_micros()).unwrap_or(u64::MAX));

    let mut slots: Vec<Option<JobOutcome>> = hits
        .into_iter()
        .zip(jobs)
        .map(|(hit, &spec)| {
            hit.map(|metrics| JobOutcome {
                spec,
                metrics,
                from_cache: true,
            })
        })
        .collect();
    for (group, answer) in groups.iter().zip(answers) {
        for (&p, metrics) in group.iter().zip(answer) {
            slots[p] = Some(JobOutcome {
                spec: jobs[p],
                metrics,
                from_cache: false,
            });
        }
    }
    let outcomes = slots
        .into_iter()
        .map(|o| o.expect("every job is a cache hit or in one group"))
        .collect();

    // A worker's row sums both phases; loads count jobs, not the groups
    // the executor handed out.
    let mut totals = SweepShard::default();
    let mut worker_loads = vec![(0, 0); probe_reports.len().max(group_reports.len())];
    for report in probe_reports.iter().chain(&group_reports) {
        totals.merge(&report.shard);
        let (jobs, steals) = &mut worker_loads[report.worker];
        *jobs += report.shard.simulated + report.shard.cached;
        *steals += report.steals;
    }
    let workers = worker_loads.len();
    obs.gauge("explore.workers").set_max(workers as u64);

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{MemProfile, TraceSource};
    use sigcomp_workloads::WorkloadSize;

    fn job(workload: &'static str, scheme: ExtScheme, mem: MemProfile, digest: u64) -> JobSpec {
        JobSpec {
            scheme,
            org: OrgKind::ByteSerial,
            workload,
            size: WorkloadSize::Tiny,
            mem,
            source: if digest == 0 {
                TraceSource::Kernel
            } else {
                TraceSource::File { digest }
            },
        }
    }

    #[test]
    fn groups_are_dealt_heaviest_first() {
        let jobs = [
            job("a", ExtScheme::TwoBit, MemProfile::Paper, 0),
            job("short", ExtScheme::TwoBit, MemProfile::Paper, 1),
            job("a", ExtScheme::ThreeBit, MemProfile::Paper, 0),
            job("long", ExtScheme::TwoBit, MemProfile::Paper, 2),
            job("b", ExtScheme::TwoBit, MemProfile::Paper, 0),
        ];
        let records = |stream| match stream {
            StreamKey::File(1) => Some(10),
            StreamKey::File(2) => Some(1000),
            _ => None,
        };
        // Kernel streams weigh their misses; ties keep first-miss order.
        let plan = plan_groups(&jobs, 0..jobs.len(), 1, records);
        assert_eq!(plan, vec![vec![3], vec![1], vec![0, 2], vec![4]]);
        // Cache hits never reach a group.
        let plan = plan_groups(&jobs, [2, 4].into_iter(), 1, records);
        assert_eq!(plan, vec![vec![2], vec![4]]);
    }

    #[test]
    fn a_lone_stream_is_halved_by_memory_then_by_scheme() {
        let mut jobs = Vec::new();
        for &mem in &MemProfile::ALL[..2] {
            for &scheme in ExtScheme::ALL {
                jobs.push(job("a", scheme, mem, 0));
            }
        }
        let plan = |workers| plan_groups(&jobs, 0..jobs.len(), workers, |_| None);
        assert_eq!(plan(1), vec![(0..6).collect::<Vec<_>>()]);
        assert_eq!(plan(2), vec![vec![0, 1, 2], vec![3, 4, 5]]);
        assert_eq!(plan(3), vec![vec![3, 4, 5], vec![1, 2], vec![0]]);
        // Six single (scheme, memory) blocks cannot be halved again.
        assert_eq!(plan(8).len(), 6);
    }
}
