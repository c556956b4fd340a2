//! Pluggable execution backends: where the jobs of a sweep actually run.
//!
//! Every execution path in the workspace — `repro sweep`, the serving
//! front-end's [`Batcher`](../../sigcomp_serve/batch/struct.Batcher.html),
//! the examples — funnels through one dispatch point
//! ([`crate::try_run_jobs_traced`]) parameterized by an [`ExecBackend`]:
//!
//! * [`ExecBackend::LocalThreads`] — the in-process work-stealing executor
//!   ([`crate::executor`]).
//! * [`ExecBackend::Subprocess`] — the pipe transport: `repro worker` child
//!   processes on this machine.
//! * [`ExecBackend::Fleet`] — the HTTP transport: `repro serve` worker
//!   servers, driven by `sigcomp-fabric`.
//!
//! The two scale-out backends are thin transports over one shard-and-merge
//! core ([`crate::proto`]): the same [`ShardPlan`] dedups and id-sorts the
//! jobs and deals them round-robin, the same dispatch/report grammar carries
//! every shard, and the same [`ShardPlan::merge`] restores outcomes from the
//! cache. Their merged output is therefore **byte-identical to the
//! single-process run for any shard count**.
//!
//! # The pipe transport
//!
//! The subprocess backend spawns one `repro worker --cache DIR` child per
//! shard and writes that shard's [`encode_dispatch`] body, and only that
//! shard's, to the child's stdin. The child runs it on the in-process
//! executor against the shared [`crate::ResultCache`] and answers on stdout
//! with the [`encode_report`](crate::encode_report) body a fleet worker
//! would send over HTTP. Because the child is one-shot, the obs snapshot in
//! its report is exactly its shard's delta; the parent folds it into its
//! own global registry. `--traces` paths are forwarded so children can
//! resolve [`crate::TraceSource::File`] jobs (the wire line carries only the
//! content digest).
//!
//! Failures are first-class: a child that cannot be spawned, dies, is
//! killed, or emits a malformed report becomes a named [`ExecError`] naming
//! its shard, never a hang or a panic.

use crate::proto::{encode_dispatch, parse_report, ShardPlan};
use crate::spec::{JobSpec, TraceInput};
use crate::sweep::{SweepOptions, SweepSummary};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

/// Where the jobs of a sweep execute.
///
/// The default is [`ExecBackend::LocalThreads`] — the original in-process
/// engine, bit-for-bit. Every backend upholds the same contract: outcomes
/// come back in submission order and merged results are byte-identical to a
/// single-worker, single-process run.
#[derive(Debug, Clone, Default)]
pub enum ExecBackend {
    /// The in-process work-stealing thread pool ([`crate::executor`]).
    #[default]
    LocalThreads,
    /// Worker child processes sharing one on-disk [`crate::ResultCache`]
    /// (which [`SweepOptions::cache`] must therefore provide).
    Subprocess(SubprocessConfig),
    /// Remote `repro serve` worker servers dispatched over HTTP by the
    /// `sigcomp-fabric` frontier, merging through the local
    /// [`crate::ResultCache`] (which [`SweepOptions::cache`] must provide).
    /// The runner itself lives in `sigcomp-fabric` and is registered via
    /// [`install_fleet_runner`]; selecting this backend without a linked
    /// fabric is a named [`ExecError::Config`].
    Fleet(FleetConfig),
}

impl ExecBackend {
    /// Stable identifier used in summaries, logs and server metrics.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            ExecBackend::LocalThreads => "local",
            ExecBackend::Subprocess(_) => "subprocess",
            ExecBackend::Fleet(_) => "fleet",
        }
    }
}

/// How the fleet backend reaches its worker servers.
///
/// This is pure data — the HTTP client and the dispatch/retry/re-shard
/// machinery live in `sigcomp-fabric` — so `sigcomp-explore` stays free of
/// any networking while the [`ExecBackend`] enum remains the single
/// execution dispatch point of the workspace.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker base addresses (`host:port`). The frontier sorts them before
    /// sharding so the partition is a pure function of the worker set, not
    /// of registration order. Empty means "no workers": the fleet runner
    /// degrades gracefully to local execution over the same cache.
    pub workers: Vec<String>,
    /// Per-dispatch HTTP timeout in milliseconds (connect + request +
    /// response). A dispatch that exceeds it counts as one failed attempt.
    pub timeout_ms: u64,
    /// Dispatch attempts per worker (with backoff between them) before the
    /// worker is declared dead and its jobs are re-sharded to survivors.
    pub attempts: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: Vec::new(),
            timeout_ms: 60_000,
            attempts: 3,
        }
    }
}

/// Signature of the fleet runner `sigcomp-fabric` installs: the same
/// contract as the other backends — outcomes in submission order, merged
/// output byte-identical to a single-process run.
pub type FleetRunner =
    fn(&[JobSpec], &[TraceInput], &SweepOptions, &FleetConfig) -> Result<SweepSummary, ExecError>;

static FLEET_RUNNER: OnceLock<FleetRunner> = OnceLock::new();

/// Registers the fleet runner (called by `sigcomp_fabric::install`).
/// Idempotent: the first installation wins, later calls are no-ops — the
/// runner is a stateless `fn` pointer, so "again" could only ever mean
/// "the same".
pub fn install_fleet_runner(runner: FleetRunner) {
    let _ = FLEET_RUNNER.set(runner);
}

/// Dispatches to the installed fleet runner.
pub(crate) fn run_fleet(
    jobs: &[JobSpec],
    traces: &[TraceInput],
    options: &SweepOptions,
    config: &FleetConfig,
) -> Result<SweepSummary, ExecError> {
    match FLEET_RUNNER.get() {
        Some(runner) => runner(jobs, traces, options, config),
        None => Err(ExecError::Config(
            "no fleet runner is installed (link sigcomp-fabric and call its install())".to_owned(),
        )),
    }
}

/// How the subprocess backend spawns its workers.
#[derive(Debug, Clone)]
pub struct SubprocessConfig {
    /// Worker processes to spawn (clamped to the deduped job count; must be
    /// at least 1).
    pub shards: usize,
    /// The worker executable — normally the `repro` binary itself (the
    /// parent's `std::env::current_exe()`), overridable to interpose a
    /// launcher (a container or ssh wrapper, say).
    pub program: PathBuf,
    /// Arguments placed before the protocol flags, normally `["worker"]`.
    pub args: Vec<String>,
    /// `.sctrace` paths forwarded to workers so they can resolve
    /// [`crate::TraceSource::File`] jobs (the wire line carries only the
    /// content digest).
    pub trace_paths: Vec<String>,
    /// When set, each worker is started with `--obs-log <path>.shard-<i>`
    /// so its JSONL structured-event stream lands next to the parent's.
    pub obs_log: Option<PathBuf>,
}

impl SubprocessConfig {
    /// A config running `program worker` with the given shard count.
    #[must_use]
    pub fn new(shards: usize, program: impl Into<PathBuf>) -> Self {
        SubprocessConfig {
            shards,
            program: program.into(),
            args: vec!["worker".to_owned()],
            trace_paths: Vec::new(),
            obs_log: None,
        }
    }
}

/// Why a backend could not produce a summary. The subprocess and fleet
/// backends are the fallible paths; the local backend never returns these.
#[derive(Debug)]
pub enum ExecError {
    /// The backend configuration is unusable (e.g. zero shards).
    Config(String),
    /// The subprocess and fleet backends need [`SweepOptions::cache`]: the
    /// cache directory is the merge point results are published through.
    CacheRequired,
    /// A worker process could not be spawned.
    Spawn {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// The underlying spawn failure.
        error: std::io::Error,
    },
    /// A worker exited unsuccessfully (crashed, was killed, or reported a
    /// failure of its own).
    WorkerFailed {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// Exit-status description.
        detail: String,
    },
    /// A worker's stdout report violated the protocol.
    Protocol {
        /// Shard index of the worker.
        shard: usize,
        /// Total shard count.
        shards: usize,
        /// What was malformed.
        detail: String,
    },
    /// Every worker succeeded yet the merge cannot restore a job: the cache
    /// holds no entry for it (e.g. the directory was cleaned mid-run), or no
    /// report answered it.
    ResultMissing {
        /// The orphaned job's content hash.
        job_id: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Config(detail) => write!(f, "bad backend configuration: {detail}"),
            ExecError::CacheRequired => write!(
                f,
                "this backend requires a result cache \
                 (the cache directory is the merge point)"
            ),
            ExecError::Spawn {
                shard,
                shards,
                error,
            } => write!(f, "cannot spawn worker shard {shard}/{shards}: {error}"),
            ExecError::WorkerFailed {
                shard,
                shards,
                detail,
            } => write!(f, "worker shard {shard}/{shards} failed: {detail}"),
            ExecError::Protocol {
                shard,
                shards,
                detail,
            } => write!(
                f,
                "worker shard {shard}/{shards} protocol violation: {detail}"
            ),
            ExecError::ResultMissing { job_id } => write!(
                f,
                "job {job_id:016x} missing from the merge after all workers finished"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Spawn { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A job list deduplicated by content hash: the first occurrence of each
/// [`JobSpec::job_id`] leads; every position maps back to its leader.
///
/// This is the *one* dedup-by-`job_id` implementation in the workspace —
/// the serve batcher and [`ShardPlan`] both group through it, so coalescing
/// semantics can never drift between the schedulers.
#[derive(Debug)]
pub struct DedupedJobs {
    /// First occurrence of each distinct job id, in submission order.
    pub unique: Vec<JobSpec>,
    /// For every input position, the index into [`DedupedJobs::unique`]
    /// that answers it.
    pub leader_of: Vec<usize>,
    /// For every unique entry, the input position that introduced it.
    pub leader_position: Vec<usize>,
}

impl DedupedJobs {
    /// Whether input position `pos` coalesced onto an earlier submission
    /// (i.e. is not the first occurrence of its job id).
    #[must_use]
    pub fn is_follower(&self, pos: usize) -> bool {
        self.leader_position[self.leader_of[pos]] != pos
    }

    /// Input positions minus unique jobs: how many submissions coalesced.
    #[must_use]
    pub fn followers(&self) -> usize {
        self.leader_of.len() - self.unique.len()
    }
}

/// Groups `jobs` by [`JobSpec::job_id`], first occurrence leading.
#[must_use]
pub fn dedup_jobs(jobs: &[JobSpec]) -> DedupedJobs {
    let mut unique = Vec::new();
    let mut leader_of = Vec::with_capacity(jobs.len());
    let mut leader_position = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    for (pos, job) in jobs.iter().enumerate() {
        let id = job.job_id();
        let leader = *index_of.entry(id).or_insert_with(|| {
            unique.push(*job);
            leader_position.push(pos);
            unique.len() - 1
        });
        leader_of.push(leader);
    }
    let obs = sigcomp_obs::global();
    obs.counter("explore.dedup.unique").add(unique.len() as u64);
    obs.counter("explore.dedup.followers")
        .add((jobs.len() - unique.len()) as u64);
    DedupedJobs {
        unique,
        leader_of,
        leader_position,
    }
}

/// Runs `jobs` on the subprocess backend, the pipe transport over the
/// shared [`ShardPlan`]: one `repro worker` child per shard, fed its
/// dispatch body on stdin, answering with a report on stdout.
///
/// Duplicate submissions (equal job ids) are coalesced: every follower
/// position receives its leader's metrics with `from_cache = true`.
///
/// # Errors
///
/// Any [`ExecError`]. On error, the only side effects left behind are cache
/// entries already published by finished workers (which later runs simply
/// reuse).
pub(crate) fn run_subprocess(
    jobs: &[JobSpec],
    _traces: &[TraceInput],
    options: &SweepOptions,
    config: &SubprocessConfig,
) -> Result<SweepSummary, ExecError> {
    if config.shards == 0 {
        return Err(ExecError::Config(
            "the shard count must be positive".to_owned(),
        ));
    }
    let cache = options.cache.as_ref().ok_or(ExecError::CacheRequired)?;
    let started = Instant::now();
    let plan = ShardPlan::new(jobs);
    let shards = config.shards.min(plan.jobs().len());
    let assignments = ShardPlan::partition(plan.jobs(), shards);

    // Threads per shard: an explicit --workers is forwarded as-is (it is
    // documented as "per shard"); otherwise the machine's parallelism is
    // divided across the shards so a default run never oversubscribes the
    // host shards × cores ways.
    let threads_per_shard = options.workers.unwrap_or_else(|| {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        (cores / shards.max(1)).max(1)
    });

    let mut children: Vec<Child> = Vec::with_capacity(shards);
    for shard in 0..shards {
        let mut command = Command::new(&config.program);
        command
            .args(&config.args)
            .arg("--cache")
            .arg(cache.root())
            .arg("--workers")
            .arg(threads_per_shard.to_string());
        if !config.trace_paths.is_empty() {
            command.arg("--traces").arg(config.trace_paths.join(","));
        }
        if let Some(obs_log) = &config.obs_log {
            command
                .arg("--obs-log")
                .arg(format!("{}.shard-{shard}", obs_log.display()));
        }
        // stderr is inherited: a worker's own named error surfaces directly
        // on the parent's stderr next to the ExecError naming the shard.
        let child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| ExecError::Spawn {
                shard,
                shards,
                error,
            })?;
        children.push(child);
    }

    // One thread per child feeds its stdin (workers drain it to EOF before
    // simulating) and then collects its output, so a slow or stuck sibling
    // can neither block another child's feed nor let a long report fill its
    // stdout pipe unread.
    let outputs: Vec<std::io::Result<std::process::Output>> = std::thread::scope(|scope| {
        let handles: Vec<_> = children
            .into_iter()
            .zip(&assignments)
            .map(|(mut child, assigned)| {
                scope.spawn(move || {
                    if let Some(mut stdin) = child.stdin.take() {
                        // A write failure means the child died early; its
                        // exit status carries the real diagnosis below.
                        let _ = stdin.write_all(encode_dispatch(assigned).as_bytes());
                    }
                    child.wait_with_output()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread never panics"))
            .collect()
    });

    // Verify every report before touching the cache.
    let mut reports = Vec::with_capacity(shards);
    for ((shard, output), assigned) in outputs.into_iter().enumerate().zip(&assignments) {
        let output = output.map_err(|error| ExecError::WorkerFailed {
            shard,
            shards,
            detail: format!("collecting its output failed: {error}"),
        })?;
        if !output.status.success() {
            return Err(ExecError::WorkerFailed {
                shard,
                shards,
                detail: output.status.to_string(),
            });
        }
        let expected: HashSet<u64> = assigned.iter().map(JobSpec::job_id).collect();
        let report = parse_report(&String::from_utf8_lossy(&output.stdout), &expected).map_err(
            |detail| ExecError::Protocol {
                shard,
                shards,
                detail,
            },
        )?;
        reports.push(report);
    }

    // A one-shot child's snapshot is exactly its shard's delta: fold each
    // into the parent's global registry. The merge is commutative, so the
    // totals equal the single-process run's however the jobs were sharded.
    for (shard, report) in reports.iter().enumerate() {
        sigcomp_obs::global()
            .merge_snapshot(&report.obs)
            .map_err(|e| ExecError::Protocol {
                shard,
                shards,
                detail: e.to_string(),
            })?;
    }

    let (outcomes, totals) = plan.merge(cache, &reports)?;
    Ok(SweepSummary {
        outcomes,
        totals,
        worker_loads: reports.iter().map(|r| (r.jobs.len() as u64, 0)).collect(),
        workers: shards,
        wall: started.elapsed(),
        backend: "subprocess",
        shard_obs: reports.into_iter().map(|r| r.obs).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::proto::encode_report;
    use crate::spec::{MemProfile, SweepSpec, TraceSource};
    use crate::sweep::{JobMetrics, JobOutcome};
    use sigcomp::ExtScheme;
    use sigcomp_pipeline::OrgKind;
    use sigcomp_workloads::{suite_names, WorkloadSize};

    fn spec(workload_index: usize, org: OrgKind) -> JobSpec {
        JobSpec {
            scheme: ExtScheme::ThreeBit,
            org,
            workload: suite_names()[workload_index],
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: TraceSource::Kernel,
        }
    }

    #[test]
    fn dedup_groups_by_job_id_with_first_occurrence_leading() {
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        let deduped = dedup_jobs(&[a, b, a, b, a]);
        assert_eq!(deduped.unique, vec![a, b]);
        assert_eq!(deduped.leader_of, vec![0, 1, 0, 1, 0]);
        assert_eq!(deduped.leader_position, vec![0, 1]);
        assert_eq!(deduped.followers(), 3);
        let followers: Vec<bool> = (0..5).map(|p| deduped.is_follower(p)).collect();
        assert_eq!(followers, vec![false, false, true, true, true]);

        let empty = dedup_jobs(&[]);
        assert!(empty.unique.is_empty());
        assert_eq!(empty.followers(), 0);
    }

    /// Runs the subprocess backend over one shard whose worker is a shell
    /// script that drains its dispatch and answers with `report` verbatim.
    fn run_scripted_worker(
        name: &str,
        jobs: &[JobSpec],
        report: &str,
    ) -> (ResultCache, Result<SweepSummary, ExecError>) {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-backend-verify-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let report_path = dir.join("report.txt");
        std::fs::write(&report_path, report).expect("report written");
        let cache = ResultCache::open(dir.join("cache")).expect("cache opens");
        let mut config = SubprocessConfig::new(1, "/bin/sh");
        config.args = vec![
            "-c".to_owned(),
            format!("cat >/dev/null; cat '{}'", report_path.display()),
        ];
        let options = SweepOptions {
            cache: Some(cache.clone()),
            ..SweepOptions::default()
        };
        let result = run_subprocess(jobs, &[], &options, &config);
        (cache, result)
    }

    #[test]
    fn worker_reports_are_verified_strictly() {
        let jobs = [spec(0, OrgKind::Baseline32), spec(0, OrgKind::ByteSerial)];
        let outcomes: Vec<JobOutcome> = jobs
            .iter()
            .zip(1u64..)
            .map(|(&spec, seed)| JobOutcome {
                spec,
                metrics: JobMetrics {
                    instructions: 100 + seed,
                    cycles: 170 + seed,
                    ..JobMetrics::default()
                },
                from_cache: false,
            })
            .collect();
        let good = encode_report(&outcomes, &sigcomp_obs::Snapshot::default());

        // A complete, digest-clean report is replicated into the cache.
        let (cache, result) = run_scripted_worker("good", &jobs, &good);
        let summary = result.expect("a valid report is accepted");
        assert_eq!(summary.outcomes, outcomes);
        for outcome in &outcomes {
            assert_eq!(cache.load(outcome.spec.job_id()), Some(outcome.metrics));
        }
        let _ = std::fs::remove_dir_all(cache.root().parent().expect("scratch dir"));

        let partial = encode_report(&outcomes[..1], &sigcomp_obs::Snapshot::default());
        for (name, report, needle) in [
            ("empty", String::new(), "empty report"),
            ("header", "not a report\n".to_owned(), "bad report header"),
            ("partial", partial, "answered 1 of its 2"),
            (
                "digest",
                good.replacen("instructions=101", "instructions=999", 1),
                "digest mismatch",
            ),
            (
                "stranger",
                good.replacen(
                    &format!("job {:016x}", jobs[0].job_id()),
                    "job 00000000deadbeef",
                    1,
                ),
                "was not dispatched",
            ),
        ] {
            let (cache, result) = run_scripted_worker(name, &jobs, &report);
            let err = result.unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::Protocol {
                        shard: 0,
                        shards: 1,
                        ..
                    }
                ),
                "{name}: {err}"
            );
            assert!(err.to_string().contains(needle), "{name}: {err}");
            // Verification precedes the merge: a rejected report leaves
            // nothing behind in the cache.
            assert_eq!(cache.len().expect("cache lists"), 0, "{name}");
            let _ = std::fs::remove_dir_all(cache.root().parent().expect("scratch dir"));
        }
    }

    #[test]
    fn subprocess_without_a_cache_is_a_named_error() {
        let jobs = SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate();
        let config = SubprocessConfig::new(2, "/definitely/not/a/binary");
        let options = SweepOptions::default();
        let err = run_subprocess(&jobs, &[], &options, &config).unwrap_err();
        assert!(matches!(err, ExecError::CacheRequired), "{err}");

        let zero = SubprocessConfig::new(0, "/definitely/not/a/binary");
        let err = run_subprocess(&jobs, &[], &options, &zero).unwrap_err();
        assert!(matches!(err, ExecError::Config(_)), "{err}");
    }

    #[test]
    fn subprocess_spawn_failures_name_the_shard() {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-backend-spawn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let jobs = SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate();
        let config = SubprocessConfig::new(2, "/definitely/not/a/binary");
        let options = SweepOptions {
            cache: Some(cache),
            ..SweepOptions::default()
        };
        let err = run_subprocess(&jobs, &[], &options, &config).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Spawn {
                    shard: 0,
                    shards: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("cannot spawn worker shard 0/2"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_job_lists_short_circuit_without_spawning() {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-backend-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let config = SubprocessConfig::new(3, "/definitely/not/a/binary");
        let options = SweepOptions {
            cache: Some(cache),
            ..SweepOptions::default()
        };
        let summary = run_subprocess(&[], &[], &options, &config).expect("empty run");
        assert!(summary.outcomes.is_empty());
        assert_eq!(summary.workers, 0);
        assert_eq!(summary.backend, "subprocess");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
