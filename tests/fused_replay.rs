//! Differential oracle for the fused local engine.
//!
//! The local backend replays each stream group once: one record source per
//! record, one hierarchy walk per memory profile, one cost vector per
//! scheme, one activity study per (scheme, memory) block and one timing
//! model per job, with a single baseline model per memory profile shared by
//! every scheme. The reference below is the per-job stack the fusion
//! replaced — a private hierarchy in both the timing simulator and the
//! analyzer, each walking it through `observe_with_cost` — and these tests
//! pin the engine to it job for job, over every tiny kernel and a
//! golden-corpus trace, under shuffled, duplicated and partly cached
//! batches and every worker count.

use sigcomp::{instr_cost, ExtScheme, TraceAnalyzer};
use sigcomp_explore::{
    try_run_jobs, try_run_jobs_traced, try_run_sweep, JobMetrics, JobSpec, MemProfile, ResultCache,
    SweepOptions, SweepSpec, SweepSummary, TraceInput, TraceSource,
};
use sigcomp_isa::ExecRecord;
use sigcomp_pipeline::{OrgKind, PipelineSim};
use sigcomp_workloads::{find, suite_names, WorkloadSize};
use std::collections::HashMap;
use std::path::PathBuf;

/// One job on the unfused stack: its own simulator, its own analyzer, and
/// a private hierarchy inside each.
fn reference(spec: &JobSpec, records: &[ExecRecord]) -> JobMetrics {
    let config = spec.analyzer_config();
    let org = spec.organization();
    let mut sim =
        PipelineSim::with_config(org.clone(), &spec.mem.hierarchy(), config.recoder.clone());
    let mut analyzer = TraceAnalyzer::new(config);
    for rec in records {
        let config = analyzer.config();
        let cost = instr_cost(rec, config.scheme, &config.recoder);
        sim.observe_with_cost(rec, &cost);
        analyzer.observe_with_cost(rec, &cost);
    }
    JobMetrics::from_models(analyzer.report(), &org, &sim.finish())
}

/// Every tiny kernel's record stream, keyed by name.
fn kernel_records() -> HashMap<&'static str, Vec<ExecRecord>> {
    suite_names()
        .iter()
        .map(|&name| {
            let benchmark = find(name, WorkloadSize::Tiny).expect("suite kernel");
            let mut records = Vec::new();
            benchmark
                .run_each(|rec| records.push(*rec))
                .expect("kernel runs");
            (name, records)
        })
        .collect()
}

/// Every scheme × memory profile × organization of one stream.
fn jobs_for(workload: &'static str, source: TraceSource) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for &scheme in ExtScheme::ALL {
        for &mem in MemProfile::ALL {
            for &org in OrgKind::ALL {
                jobs.push(JobSpec {
                    scheme,
                    org,
                    workload,
                    size: WorkloadSize::Tiny,
                    mem,
                    source,
                });
            }
        }
    }
    jobs
}

fn kernel_jobs(workloads: &[&'static str]) -> Vec<JobSpec> {
    workloads
        .iter()
        .flat_map(|&w| jobs_for(w, TraceSource::Kernel))
        .collect()
}

/// Asserts that every position of `summary` answers `jobs[i]` with the
/// reference metrics, and that nothing came from a cache.
fn assert_matches_reference(
    summary: &SweepSummary,
    jobs: &[JobSpec],
    records: &HashMap<&'static str, Vec<ExecRecord>>,
) {
    assert_eq!(summary.outcomes.len(), jobs.len());
    for (outcome, job) in summary.outcomes.iter().zip(jobs) {
        assert_eq!(outcome.spec, *job);
        assert!(
            !outcome.from_cache,
            "{}: no cache was attached",
            job.label()
        );
        assert_eq!(
            outcome.metrics,
            reference(job, &records[job.workload]),
            "{}: fused metrics diverge from the per-job reference",
            job.label()
        );
    }
    let instructions: u64 = summary
        .outcomes
        .iter()
        .map(|o| o.metrics.instructions)
        .sum();
    assert_eq!(summary.totals.simulated, jobs.len() as u64);
    assert_eq!(summary.totals.cached, 0);
    assert_eq!(summary.totals.instructions_simulated, instructions);
}

#[test]
fn fused_kernel_sweep_equals_the_per_job_reference() {
    let records = kernel_records();
    let jobs = kernel_jobs(suite_names());
    assert_eq!(jobs.len(), suite_names().len() * 3 * 4 * 7);
    let summary = try_run_jobs(&jobs, &SweepOptions::with_workers(2)).expect("local backend");
    assert_matches_reference(&summary, &jobs, &records);
}

#[test]
fn fused_trace_replay_equals_the_per_job_reference() {
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/rawcaudio.sctrace"
    ));
    let input = TraceInput::load(&path).expect("golden trace loads");
    let records: Vec<ExecRecord> = input.decoded().iter().collect();
    let jobs = jobs_for(input.name(), input.source());
    let summary = try_run_jobs_traced(
        &jobs,
        std::slice::from_ref(&input),
        &SweepOptions::with_workers(3),
    )
    .expect("local backend");
    let by_name = HashMap::from([(input.name(), records)]);
    assert_matches_reference(&summary, &jobs, &by_name);
}

#[test]
fn shuffled_batches_answer_every_position() {
    let records = kernel_records();
    // Ordering by content hash scatters every group across the batch.
    let mut jobs = kernel_jobs(&["rawcaudio", "pgp"]);
    jobs.sort_by_key(JobSpec::job_id);
    for workers in [1, 3] {
        let summary =
            try_run_jobs(&jobs, &SweepOptions::with_workers(workers)).expect("local backend");
        assert_matches_reference(&summary, &jobs, &records);
    }
}

#[test]
fn duplicate_specs_are_each_answered() {
    let records = kernel_records();
    let group: Vec<JobSpec> = kernel_jobs(&["rawdaudio"])
        .into_iter()
        .filter(|j| j.scheme == ExtScheme::ThreeBit && j.mem == MemProfile::SmallL1)
        .collect();
    // Every spec at least twice: the first one again right after itself,
    // then the whole group once more in reverse.
    let mut jobs = group.clone();
    jobs.insert(1, group[0]);
    jobs.extend(group.iter().rev());
    let summary = try_run_jobs(&jobs, &SweepOptions::with_workers(2)).expect("local backend");
    assert_matches_reference(&summary, &jobs, &records);
}

#[test]
fn a_partly_cached_group_simulates_only_its_misses() {
    let records = kernel_records();
    let group: Vec<JobSpec> = kernel_jobs(&["gsmencode"])
        .into_iter()
        .filter(|j| j.scheme == ExtScheme::Halfword && j.mem == MemProfile::SlowMemory)
        .collect();
    assert_eq!(group.len(), OrgKind::ALL.len());
    let warmed: Vec<JobSpec> = group.iter().step_by(3).copied().collect();
    let dir = std::env::temp_dir().join(format!("sigcomp-fused-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("cache dir");
    let first = try_run_jobs(&warmed, &SweepOptions::with_workers(1).cache(cache.clone()))
        .expect("local backend");
    assert_eq!(first.totals.simulated, warmed.len() as u64);

    let summary =
        try_run_jobs(&group, &SweepOptions::with_workers(2).cache(cache)).expect("local backend");
    let mut missed_instructions = 0;
    for (outcome, job) in summary.outcomes.iter().zip(&group) {
        assert_eq!(outcome.spec, *job);
        assert_eq!(outcome.from_cache, warmed.contains(job), "{}", job.label());
        assert_eq!(outcome.metrics, reference(job, &records[job.workload]));
        if !outcome.from_cache {
            missed_instructions += outcome.metrics.instructions;
        }
    }
    assert_eq!(summary.totals.cached, warmed.len() as u64);
    assert_eq!(
        summary.totals.simulated,
        (group.len() - warmed.len()) as u64
    );
    assert_eq!(summary.totals.instructions_simulated, missed_instructions);
    let mut activity = sigcomp::ActivityReport::default();
    for outcome in &summary.outcomes {
        activity.merge(&outcome.metrics.activity);
    }
    assert_eq!(summary.totals.activity, activity);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers_are_clamped_to_the_group_count_and_loads_count_jobs() {
    let jobs: Vec<JobSpec> = kernel_jobs(&["rawcaudio"])
        .into_iter()
        .filter(|j| j.scheme == ExtScheme::TwoBit && j.mem == MemProfile::Paper)
        .collect();
    assert_eq!(jobs.len(), OrgKind::ALL.len());
    let summary = try_run_jobs(&jobs, &SweepOptions::with_workers(4)).expect("local backend");
    assert_eq!(summary.workers, 1, "one group runs on one worker");
    assert_eq!(summary.worker_loads.len(), 1);
    let loads: u64 = summary.worker_loads.iter().map(|&(jobs, _)| jobs).sum();
    assert_eq!(loads, jobs.len() as u64);
}

#[test]
fn a_stream_group_with_scattered_hits_simulates_only_its_misses() {
    let records = kernel_records();
    let jobs = kernel_jobs(&["rawdaudio"]);
    // Cached up front: one whole (scheme, memory) block, the baseline job
    // of every scheme but 3-bit at the paper profile (so only one scheme's
    // baseline misses there), the 2-bit baseline at slow memory (so the
    // profile's shared baseline model is not the first scheme's), and a
    // scattered fifth of the remaining non-baseline jobs.
    let warm = |(i, job): &(usize, &JobSpec)| {
        let baseline = job.org == OrgKind::Baseline32;
        (job.scheme == ExtScheme::Halfword && job.mem == MemProfile::WideL2)
            || (baseline && job.mem == MemProfile::Paper && job.scheme != ExtScheme::ThreeBit)
            || (baseline && job.mem == MemProfile::SlowMemory && job.scheme == ExtScheme::TwoBit)
            || (!baseline && i % 5 == 2)
    };
    let warmed: Vec<JobSpec> = jobs
        .iter()
        .enumerate()
        .filter(warm)
        .map(|(_, j)| *j)
        .collect();
    let dir = std::env::temp_dir().join(format!("sigcomp-fused-scatter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("cache dir");
    let first = try_run_jobs(&warmed, &SweepOptions::with_workers(2).cache(cache.clone()))
        .expect("local backend");
    assert_eq!(first.totals.simulated, warmed.len() as u64);

    let summary =
        try_run_jobs(&jobs, &SweepOptions::with_workers(2).cache(cache)).expect("local backend");
    assert_eq!(summary.outcomes.len(), jobs.len());
    for (outcome, job) in summary.outcomes.iter().zip(&jobs) {
        assert_eq!(outcome.spec, *job);
        assert_eq!(outcome.from_cache, warmed.contains(job), "{}", job.label());
        assert_eq!(
            outcome.metrics,
            reference(job, &records[job.workload]),
            "{}: fused metrics diverge from the per-job reference",
            job.label()
        );
    }
    assert_eq!(summary.totals.cached, warmed.len() as u64);
    assert_eq!(summary.totals.simulated, (jobs.len() - warmed.len()) as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_one_stream_multi_memory_sweep_is_identical_at_every_worker_count() {
    let records = kernel_records();
    let jobs = kernel_jobs(&["pgp"]);
    let serial = try_run_jobs(&jobs, &SweepOptions::with_workers(1)).expect("local backend");
    assert_matches_reference(&serial, &jobs, &records);
    for workers in [2, 4, 8] {
        let summary =
            try_run_jobs(&jobs, &SweepOptions::with_workers(workers)).expect("local backend");
        // The stream is split by memory profile, then by scheme, until
        // every worker has a piece.
        assert_eq!(summary.workers, workers, "one stream keeps {workers} busy");
        assert_eq!(summary.outcomes, serial.outcomes, "{workers} workers");
        assert_eq!(summary.totals.simulated, serial.totals.simulated);
        assert_eq!(
            summary.totals.instructions_simulated,
            serial.totals.instructions_simulated
        );
        assert_eq!(summary.totals.activity, serial.totals.activity);
    }
}

/// Runs `test` alone in a child process of this test binary, so the
/// process-wide metrics registry sees only its own sweeps.
fn in_own_process(test: &str, body: impl FnOnce()) {
    const CHILD: &str = "SIGCOMP_FUSED_REPLAY_CHILD";
    if std::env::var_os(CHILD).is_some() {
        body();
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([test, "--exact", "--test-threads=1"])
        .env(CHILD, "1")
        .output()
        .expect("test binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{test} failed in its own process:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn fused_counters_count_each_stream_once() {
    in_own_process("fused_counters_count_each_stream_once", || {
        let obs = sigcomp_obs::global();
        let counters = || {
            let snapshot = obs.snapshot();
            (
                snapshot.counter("explore.fused.groups"),
                snapshot.counter("explore.fused.records"),
            )
        };
        let stream_records: u64 = kernel_records().values().map(|r| r.len() as u64).sum();

        // The default sweep's 3 schemes x 7 organizations of each kernel are
        // one group, and each kernel's records are replayed once.
        let (groups, replayed) = counters();
        let spec = SweepSpec::paper(WorkloadSize::Tiny).schemes(ExtScheme::ALL);
        let summary = try_run_sweep(&spec, &SweepOptions::with_workers(2)).expect("local backend");
        assert_eq!(summary.totals.simulated, suite_names().len() as u64 * 3 * 7);
        let (groups_after, replayed_after) = counters();
        assert_eq!(groups_after - groups, suite_names().len() as u64);
        assert_eq!(replayed_after - replayed, stream_records);

        // Four memory profiles on one worker are still one group.
        let jobs = kernel_jobs(&["rawcaudio"]);
        try_run_jobs(&jobs, &SweepOptions::with_workers(1)).expect("local backend");
        let (groups_last, _) = counters();
        assert_eq!(groups_last - groups_after, 1);
    });
}
