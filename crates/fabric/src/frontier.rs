//! The frontier: the fleet runner installed into `sigcomp-explore`.
//!
//! [`run_fleet_jobs`] is the [`FleetRunner`](sigcomp_explore::FleetRunner)
//! behind [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) and upholds
//! the contract every backend shares: outcomes in submission order, merged
//! output **byte-identical to a single-process run** for any worker count —
//! including zero workers, a worker list full of dead addresses, or a
//! worker killed mid-sweep.
//!
//! It is the HTTP transport over the shard-and-merge core in
//! [`sigcomp_explore::proto`], the same core the subprocess backend drives
//! over a pipe. [`ShardPlan`] dedups and id-sorts the jobs and deals them
//! round-robin; each shard travels as the shared dispatch body in a
//! `POST /fleet/dispatch`; each response is the shared report, verified by
//! [`parse_report`]; and [`ShardPlan::merge`] replicates the reported cache
//! entries and restores every outcome from the frontier's cache.
//!
//! What stays here is what only HTTP needs: per-attempt timeouts with
//! retry and backoff, dropping a dead worker and re-sharding its jobs over
//! the survivors, a local fallback when no worker is left, and recording
//! (not folding) the cumulative obs snapshots of long-lived workers. Trace
//! jobs are refused: the wire carries only content digests, and worker
//! servers have no trace channel.

use crate::client::HttpClient;
use crate::pool::{self, WorkerPool, DEFAULT_LIVENESS_TTL};
use sigcomp_explore::{
    encode_dispatch, parse_report, ExecBackend, ExecError, FleetConfig, FleetReport, JobSpec,
    ShardPlan, SweepOptions, SweepSummary, TraceInput, TraceSource,
};
use sigcomp_obs::Snapshot;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Upper bound on the exponential retry backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Runs `jobs` across the fleet: plan, shard round-robin over the live
/// workers, dispatch with retry/backoff, re-shard a dead worker's jobs to
/// the survivors, degrade to local execution when no workers remain, and
/// merge.
///
/// Workers come from [`FleetConfig::workers`] when non-empty, otherwise
/// from the registered [`pool::global()`] members that heartbeated within
/// [`DEFAULT_LIVENESS_TTL`].
///
/// # Errors
///
/// [`ExecError::CacheRequired`] without a cache (it is the merge point),
/// [`ExecError::Config`] for trace-file jobs (the fleet wire carries only
/// content digests and workers have no trace channel yet), and
/// [`ExecError::ResultMissing`] if the cache lost an entry after execution.
/// Worker failures are *not* errors: they cost retries, then a re-shard,
/// then at worst a local fallback.
pub fn run_fleet_jobs(
    jobs: &[JobSpec],
    _traces: &[TraceInput],
    options: &SweepOptions,
    config: &FleetConfig,
) -> Result<SweepSummary, ExecError> {
    let cache = options.cache.as_ref().ok_or(ExecError::CacheRequired)?;
    let started = Instant::now();
    if let Some(job) = jobs
        .iter()
        .find(|j| matches!(j.source, TraceSource::File { .. }))
    {
        return Err(ExecError::Config(format!(
            "job {:016x} is trace-sourced; the fleet backend dispatches kernel jobs only \
             (run trace sweeps locally or on the subprocess backend)",
            job.job_id()
        )));
    }
    let plan = ShardPlan::new(jobs);

    let pool = pool::global();
    let mut workers: Vec<String> = if config.workers.is_empty() {
        pool.live(DEFAULT_LIVENESS_TTL)
    } else {
        config.workers.clone()
    };
    workers.sort_unstable();
    workers.dedup();

    let obs = sigcomp_obs::global();
    let client = HttpClient::new(Duration::from_millis(config.timeout_ms.max(1)));
    // Indices into `workers`; per worker, the jobs it answered and its
    // latest (cumulative) obs snapshot, so every worker is one row.
    let mut live: Vec<usize> = (0..workers.len()).collect();
    let mut answered: Vec<Option<(u64, Snapshot)>> = vec![None; workers.len()];
    let mut pending: Vec<JobSpec> = plan.jobs().to_vec();
    let mut reports: Vec<FleetReport> = Vec::new();

    while !pending.is_empty() && !live.is_empty() {
        let shards = ShardPlan::partition(&pending, live.len());
        let results: Vec<(usize, Result<FleetReport, String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .iter()
                .zip(&shards)
                .filter(|(_, shard)| !shard.is_empty())
                .map(|(&w, shard)| {
                    let client = &client;
                    let addr = &workers[w];
                    scope.spawn(move || (w, dispatch_with_retry(client, addr, shard, config, pool)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("dispatch thread never panics"))
                .collect()
        });

        let mut completed: HashSet<u64> = HashSet::new();
        let mut survivors: Vec<usize> = Vec::new();
        let mut lost = false;
        for (w, outcome) in results {
            let addr = &workers[w];
            match outcome {
                Ok(report) => {
                    let jobs = report.jobs.len() as u64;
                    completed.extend(report.jobs.iter().map(|&(id, _)| id));
                    obs.counter("fleet.frontier.dispatches").incr();
                    obs.counter("fleet.frontier.jobs_remote").add(jobs);
                    pool.note_dispatch(addr);
                    pool.update_obs(addr, report.obs.clone());
                    let row = answered[w].get_or_insert_with(Default::default);
                    row.0 += jobs;
                    row.1.clone_from(&report.obs);
                    reports.push(report);
                    survivors.push(w);
                }
                Err(_detail) => {
                    // The worker exhausted its attempts: drop it from this
                    // sweep and hand its jobs back to the pending set.
                    obs.counter("fleet.frontier.workers_lost").incr();
                    pool.note_failure(addr);
                    lost = true;
                }
            }
        }
        pending.retain(|job| !completed.contains(&job.job_id()));
        live = survivors;
        if lost && !pending.is_empty() && !live.is_empty() {
            obs.counter("fleet.frontier.reshards").incr();
        }
    }
    let (mut worker_loads, shard_obs): (Vec<(u64, u64)>, Vec<Snapshot>) = answered
        .into_iter()
        .flatten()
        .map(|(jobs, snap)| ((jobs, 0), snap))
        .unzip();

    // Graceful degradation: anything still pending (no workers registered,
    // or the whole fleet died) runs locally over the same cache, so the
    // sweep always completes and always merges identically. The local run
    // stored its results itself; its report carries provenance only.
    if !pending.is_empty() {
        let local_options = SweepOptions {
            workers: options.workers,
            cache: Some(cache.clone()),
            backend: ExecBackend::LocalThreads,
        };
        let local = sigcomp_explore::try_run_jobs(&pending, &local_options)
            .map_err(|e| ExecError::Config(format!("local fallback failed: {e}")))?;
        obs.counter("fleet.frontier.jobs_local")
            .add(local.outcomes.len() as u64);
        worker_loads.push((local.outcomes.len() as u64, 0));
        reports.push(FleetReport {
            jobs: local
                .outcomes
                .iter()
                .map(|o| (o.spec.job_id(), o.from_cache))
                .collect(),
            ..FleetReport::default()
        });
    }

    let (outcomes, totals) = plan.merge(cache, &reports)?;
    Ok(SweepSummary {
        outcomes,
        totals,
        workers: worker_loads.len(),
        worker_loads,
        wall: started.elapsed(),
        backend: "fleet",
        shard_obs,
    })
}

/// One worker's shard: up to [`FleetConfig::attempts`] `POST /fleet/dispatch`
/// exchanges with exponential backoff, each response verified by
/// [`parse_report`] against the exact id set dispatched.
///
/// An overloaded worker's `503` honors its `Retry-After` header (capped at
/// [`MAX_BACKOFF`]); every other failure — connect/read timeout, non-200
/// status, protocol violation — waits `100ms · 2^attempt`.
fn dispatch_with_retry(
    client: &HttpClient,
    addr: &str,
    shard: &[JobSpec],
    config: &FleetConfig,
    pool: &WorkerPool,
) -> Result<FleetReport, String> {
    let body = encode_dispatch(shard);
    let expected: HashSet<u64> = shard.iter().map(JobSpec::job_id).collect();
    let attempts = config.attempts.max(1);
    let mut last_error = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            pool.note_retry(addr);
            sigcomp_obs::global()
                .counter("fleet.frontier.retries")
                .incr();
        }
        let mut backoff = Duration::from_millis(100 << attempt.min(8)).min(MAX_BACKOFF);
        match client.post(addr, "/fleet/dispatch", &body) {
            Ok(response) if response.status == 200 => {
                match parse_report(&response.body, &expected) {
                    Ok(report) => return Ok(report),
                    Err(detail) => last_error = format!("protocol violation: {detail}"),
                }
            }
            Ok(response) => {
                if response.status == 503 {
                    if let Some(secs) = response
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                    {
                        backoff = Duration::from_secs(secs).min(MAX_BACKOFF);
                    }
                }
                let body = response.body.trim();
                last_error = format!(
                    "HTTP {}{}{}",
                    response.status,
                    if body.is_empty() { "" } else { ": " },
                    body
                );
            }
            Err(error) => last_error = format!("request failed: {error}"),
        }
        if attempt + 1 < attempts {
            std::thread::sleep(backoff);
        }
    }
    Err(format!(
        "worker {addr} failed after {attempts} attempts: {last_error}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_explore::{ResultCache, SweepSpec};
    use sigcomp_workloads::WorkloadSize;

    fn jobs() -> Vec<JobSpec> {
        SweepSpec::paper(WorkloadSize::Tiny)
            .workloads(&["rawcaudio"])
            .enumerate()
    }

    fn temp_cache(tag: &str) -> (std::path::PathBuf, ResultCache) {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-fabric-frontier-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        (dir, cache)
    }

    #[test]
    fn fleet_without_a_cache_is_a_named_error() {
        let err = run_fleet_jobs(
            &jobs(),
            &[],
            &SweepOptions::default(),
            &FleetConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::CacheRequired), "{err}");
    }

    #[test]
    fn no_workers_degrades_to_local_and_matches_the_local_backend() {
        let (dir, cache) = temp_cache("local");
        let jobs = jobs();
        let options = SweepOptions {
            workers: Some(2),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        // Explicitly empty worker list and (in a fresh process) an empty
        // registration pool: the run must fall through to local execution.
        let fleet = run_fleet_jobs(&jobs, &[], &options, &FleetConfig::default()).expect("runs");
        assert_eq!(fleet.backend, "fleet");
        assert_eq!(fleet.outcomes.len(), jobs.len());
        assert!(fleet.totals.simulated + fleet.totals.cached == jobs.len() as u64);

        let local = sigcomp_explore::try_run_jobs_traced(&jobs, &[], &options).expect("runs");
        for (a, b) in fleet.outcomes.iter().zip(&local.outcomes) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.metrics, b.metrics);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_workers_are_retried_then_execution_falls_back_locally() {
        let (dir, cache) = temp_cache("dead");
        // Bind-then-drop: almost certainly nothing listens on this port.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let jobs = jobs();
        let options = SweepOptions {
            workers: Some(2),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        let config = FleetConfig {
            workers: vec![format!("127.0.0.1:{port}")],
            timeout_ms: 300,
            attempts: 2,
        };
        let before = sigcomp_obs::global()
            .snapshot()
            .counter("fleet.frontier.workers_lost");
        let fleet = run_fleet_jobs(&jobs, &[], &options, &config).expect("completes anyway");
        assert_eq!(fleet.outcomes.len(), jobs.len());
        let after = sigcomp_obs::global()
            .snapshot()
            .counter("fleet.frontier.workers_lost");
        assert!(after > before, "the dead worker must be counted as lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_jobs_are_rejected_with_a_named_error() {
        let (dir, cache) = temp_cache("trace");
        let mut job = jobs()[0];
        job.source = TraceSource::File { digest: 0xdead };
        let options = SweepOptions {
            workers: Some(1),
            cache: Some(cache),
            backend: ExecBackend::LocalThreads,
        };
        let err = run_fleet_jobs(&[job], &[], &options, &FleetConfig::default()).unwrap_err();
        assert!(err.to_string().contains("kernel jobs only"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
