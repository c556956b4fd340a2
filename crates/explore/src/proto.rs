//! The shard-and-merge core every scale-out transport shares.
//!
//! A sharded sweep runs the same three steps whether its shards travel over
//! a pipe to `repro worker` child processes ([`crate::ExecBackend::Subprocess`])
//! or over HTTP to `repro serve` worker servers ([`crate::ExecBackend::Fleet`],
//! driven by `sigcomp-fabric`). Only the middle step differs per transport:
//!
//! 1. **Plan.** [`ShardPlan::new`] deduplicates the submitted jobs by content
//!    hash ([`crate::dedup_jobs`]) and sorts the unique jobs by
//!    [`JobSpec::job_id`], a pure function of the job *contents*. Every
//!    transport and shard count therefore deals the same list the same way
//!    ([`ShardPlan::partition`], round-robin).
//! 2. **Dispatch.** A shard travels as an [`encode_dispatch`] body (a child's
//!    stdin, or a `POST /fleet/dispatch`); the worker runs it and answers
//!    with an [`encode_report`] body (its stdout, or the HTTP response).
//!    [`parse_report`] verifies the answer against the exact id set sent.
//! 3. **Merge.** [`ShardPlan::merge`] replicates every verified entry into
//!    the local [`ResultCache`], restores every unique job from it, and folds
//!    totals per submitted position. The cache is the merge point, so the
//!    merged summary is **byte-identical to a single-process run** for any
//!    transport and shard count.
//!
//! The grammar is strict by design: every violation is a named error,
//! because a merge over workers it does not control must prove (not assume)
//! that what arrived is what was sent. A report's payload is the worker's
//! results as **verbatim cache-entry text** ([`encode_entry`]) guarded by an
//! FNV-1a digest ([`entry_digest`]); digest and decodability are checked
//! before a byte touches the cache.
//!
//! ```text
//! # dispatch (child stdin, or POST /fleet/dispatch)
//! sigcomp-fleet v1 dispatch jobs=2
//! kernel rawcaudio tiny paper 3bit byte-serial
//! kernel pgp tiny paper 3bit byte-serial
//!
//! # report (child stdout, or the HTTP response)
//! sigcomp-fleet v1 report jobs=2
//! job 00f3a6e2d41b9c70 simulated
//! entry 00f3a6e2d41b9c70 9c41b70f3a6e2d05 lines=39
//! sigcomp-explore v2
//! instructions=181203
//! ...
//! job 3b1e09c55a7d2f18 cached
//! entry 3b1e09c55a7d2f18 05f8a2c91d3e6b47 lines=39
//! ...
//! obs counter replay.jobs_simulated 1
//! done jobs=2
//! ```

use crate::backend::{dedup_jobs, DedupedJobs, ExecError};
use crate::cache::{decode_entry, encode_entry, entry_digest, ResultCache};
use crate::spec::JobSpec;
use crate::sweep::{JobOutcome, SweepShard};
use sigcomp_obs::Snapshot;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// First token run of every dispatch/report body (and of the fleet's
/// register/heartbeat bodies); bumped whenever any body grammar changes so
/// mismatched builds fail loudly.
pub const FLEET_HEADER: &str = "sigcomp-fleet v1";

/// A parsed and fully verified report.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// `(job_id, from_cache)` per job, in the worker's report order.
    pub jobs: Vec<(u64, bool)>,
    /// `(job_id, entry_text)` per job: digest-verified, decodable, ready
    /// for [`ResultCache::store_entry_text`].
    pub entries: Vec<(u64, String)>,
    /// The worker's observability-registry snapshot: a one-shot child's
    /// is exactly its shard's delta, a long-lived server's is cumulative.
    pub obs: Snapshot,
}

/// The deduplicated, id-sorted job list of one sharded run, and the merge
/// that turns the workers' reports back into submission-order outcomes.
#[derive(Debug)]
pub struct ShardPlan {
    deduped: DedupedJobs,
    /// The unique jobs, sorted by job id.
    sorted: Vec<JobSpec>,
}

impl ShardPlan {
    /// Plans `jobs`: duplicates coalesce onto their first occurrence, and
    /// the unique jobs are sorted by [`JobSpec::job_id`].
    #[must_use]
    pub fn new(jobs: &[JobSpec]) -> Self {
        let deduped = dedup_jobs(jobs);
        let mut sorted = deduped.unique.clone();
        sorted.sort_by_cached_key(JobSpec::job_id);
        ShardPlan { deduped, sorted }
    }

    /// The unique jobs, sorted by job id.
    #[must_use]
    pub fn jobs(&self) -> &[JobSpec] {
        &self.sorted
    }

    /// Deals `jobs` round-robin into `shards` lists: rank `r` goes to shard
    /// `r % shards`, and each shard keeps the input order.
    #[must_use]
    pub fn partition(jobs: &[JobSpec], shards: usize) -> Vec<Vec<JobSpec>> {
        let mut out = vec![Vec::new(); shards];
        for (rank, job) in jobs.iter().enumerate() {
            out[rank % shards].push(*job);
        }
        out
    }

    /// Merges verified reports: replicates their entries into `cache`,
    /// restores every unique job from it, and folds outcomes and totals per
    /// submitted position.
    ///
    /// Replication and restore are *unobserved*
    /// ([`ResultCache::store_entry_text`], [`ResultCache::load_unobserved`]):
    /// the cache traffic already happened where each job ran, and counting
    /// the bookkeeping again would make a sharded run's obs totals disagree
    /// with the single-process run. A failed replication is ignored here;
    /// the restore is the arbiter.
    ///
    /// Totals fold per position, like the local backend, so `simulated +
    /// cached == outcomes.len()` on every backend. A follower position
    /// coalesced onto its leader's run and counts as cached; a leader
    /// carries the provenance its worker reported.
    ///
    /// # Errors
    ///
    /// [`ExecError::ResultMissing`] when a job has no cache entry after the
    /// replication, or no report answered it.
    pub fn merge(
        &self,
        cache: &ResultCache,
        reports: &[FleetReport],
    ) -> Result<(Vec<JobOutcome>, SweepShard), ExecError> {
        let mut provenance: HashMap<u64, bool> = HashMap::with_capacity(self.sorted.len());
        for report in reports {
            for (id, text) in &report.entries {
                let _ = cache.store_entry_text(*id, text);
            }
            provenance.extend(report.jobs.iter().copied());
        }
        let mut restored = HashMap::with_capacity(self.sorted.len());
        for job in &self.sorted {
            let job_id = job.job_id();
            let metrics = cache
                .load_unobserved(job_id)
                .ok_or(ExecError::ResultMissing { job_id })?;
            let from_cache = *provenance
                .get(&job_id)
                .ok_or(ExecError::ResultMissing { job_id })?;
            restored.insert(job_id, (metrics, from_cache));
        }

        let mut totals = SweepShard::default();
        let mut outcomes = Vec::with_capacity(self.deduped.leader_of.len());
        for (pos, &leader) in self.deduped.leader_of.iter().enumerate() {
            let spec = self.deduped.unique[leader];
            let (metrics, leader_cached) = restored[&spec.job_id()];
            let from_cache = self.deduped.is_follower(pos) || leader_cached;
            totals.activity.merge(&metrics.activity);
            if from_cache {
                totals.cached += 1;
            } else {
                totals.simulated += 1;
                totals.instructions_simulated += metrics.instructions;
            }
            outcomes.push(JobOutcome {
                spec,
                metrics,
                from_cache,
            });
        }
        Ok((outcomes, totals))
    }
}

/// Encodes a dispatch body: the header with the job count, then one
/// [`JobSpec::to_wire`] line per job.
#[must_use]
pub fn encode_dispatch(jobs: &[JobSpec]) -> String {
    let mut out = format!("{FLEET_HEADER} dispatch jobs={}\n", jobs.len());
    for job in jobs {
        out.push_str(&job.to_wire());
        out.push('\n');
    }
    out
}

/// Parses a dispatch body into its job list. Trace-file jobs are carried
/// (a pipe worker resolves them from its `--traces`); refusing them is the
/// business of a transport whose workers cannot.
///
/// # Errors
///
/// A message naming the violation: bad header, a declared count that does
/// not match the lines present, or an unparsable job line.
pub fn parse_dispatch(body: &str) -> Result<Vec<JobSpec>, String> {
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| "empty dispatch body".to_owned())?;
    let declared = header
        .strip_prefix(FLEET_HEADER)
        .and_then(|rest| rest.trim().strip_prefix("dispatch jobs="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            format!("bad dispatch header '{header}' (expected '{FLEET_HEADER} dispatch jobs=N')")
        })?;
    let jobs: Vec<JobSpec> = lines.map(JobSpec::from_wire).collect::<Result<_, _>>()?;
    if jobs.len() != declared {
        return Err(format!(
            "dispatch declares {declared} jobs but carries {}",
            jobs.len()
        ));
    }
    Ok(jobs)
}

/// Encodes a report: per job a `job` provenance line followed by its
/// digest-guarded cache-entry block, then the worker's obs snapshot, then
/// the `done` trailer.
#[must_use]
pub fn encode_report(outcomes: &[JobOutcome], obs: &Snapshot) -> String {
    let mut out = format!("{FLEET_HEADER} report jobs={}\n", outcomes.len());
    for outcome in outcomes {
        let id = outcome.spec.job_id();
        let text = encode_entry(&outcome.metrics);
        let provenance = if outcome.from_cache {
            "cached"
        } else {
            "simulated"
        };
        let _ = writeln!(out, "job {id:016x} {provenance}");
        let _ = writeln!(
            out,
            "entry {id:016x} {:016x} lines={}",
            entry_digest(&text),
            text.lines().count()
        );
        out.push_str(&text);
    }
    for line in obs.to_wire().lines() {
        let _ = writeln!(out, "obs {line}");
    }
    let _ = writeln!(out, "done jobs={}", outcomes.len());
    out
}

/// Parses and verifies a report against the job-id set that was
/// dispatched: every assigned job must be answered exactly once, every
/// entry's digest must match its bytes and its bytes must decode as a
/// current-version cache entry.
///
/// # Errors
///
/// A message naming the violation. These are protocol violations: the
/// transport treats the worker that produced one as failed.
pub fn parse_report(body: &str, expected: &HashSet<u64>) -> Result<FleetReport, String> {
    let mut lines = body.lines();
    let header = loop {
        match lines.next() {
            None => return Err("empty report".to_owned()),
            Some(l) if l.trim().is_empty() => {}
            Some(l) => break l,
        }
    };
    let declared = header
        .strip_prefix(FLEET_HEADER)
        .and_then(|rest| rest.trim().strip_prefix("report jobs="))
        .and_then(|n| n.parse::<usize>().ok())
        .ok_or_else(|| {
            format!("bad report header '{header}' (expected '{FLEET_HEADER} report jobs=N')")
        })?;

    let mut report = FleetReport::default();
    let mut awaiting_entry: Option<u64> = None;
    let mut done = false;
    while let Some(line) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        if done {
            return Err(format!("line after the done line: '{line}'"));
        }
        if let Some(rest) = line.strip_prefix("job ") {
            if let Some(id) = awaiting_entry {
                return Err(format!("job {id:016x} has no entry block"));
            }
            let (id, provenance) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed job line '{line}'"))?;
            let id =
                u64::from_str_radix(id, 16).map_err(|_| format!("malformed job id in '{line}'"))?;
            let from_cache = match provenance {
                "simulated" => false,
                "cached" => true,
                other => return Err(format!("unknown provenance '{other}' in '{line}'")),
            };
            if !expected.contains(&id) {
                return Err(format!("job {id:016x} was not dispatched to this worker"));
            }
            if report.jobs.iter().any(|&(seen, _)| seen == id) {
                return Err(format!("job {id:016x} reported twice"));
            }
            report.jobs.push((id, from_cache));
            awaiting_entry = Some(id);
        } else if let Some(rest) = line.strip_prefix("entry ") {
            let job_id = awaiting_entry
                .take()
                .ok_or_else(|| format!("entry block without a preceding job line: '{line}'"))?;
            let mut parts = rest.split_whitespace();
            let id = parts
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| format!("malformed entry id in '{line}'"))?;
            let digest = parts
                .next()
                .and_then(|t| u64::from_str_radix(t, 16).ok())
                .ok_or_else(|| format!("malformed entry digest in '{line}'"))?;
            let count = parts
                .next()
                .and_then(|t| t.strip_prefix("lines="))
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| format!("malformed entry line count in '{line}'"))?;
            if parts.next().is_some() {
                return Err(format!("trailing tokens in '{line}'"));
            }
            if id != job_id {
                return Err(format!(
                    "entry {id:016x} does not match its job line {job_id:016x}"
                ));
            }
            let mut text = String::new();
            for _ in 0..count {
                let raw = lines
                    .next()
                    .ok_or_else(|| format!("entry {id:016x} truncated mid-block"))?;
                text.push_str(raw);
                text.push('\n');
            }
            if entry_digest(&text) != digest {
                return Err(format!(
                    "entry {id:016x} digest mismatch (corrupted in transit?)"
                ));
            }
            if decode_entry(&text).is_none() {
                return Err(format!("entry {id:016x} does not decode as a cache entry"));
            }
            report.entries.push((id, text));
        } else if let Some(rest) = line.strip_prefix("obs ") {
            if awaiting_entry.is_some() {
                return Err(format!("obs line inside a job block: '{line}'"));
            }
            report
                .obs
                .parse_wire_line(rest)
                .map_err(|e| e.to_string())?;
        } else if let Some(rest) = line.strip_prefix("done ") {
            if let Some(id) = awaiting_entry {
                return Err(format!("job {id:016x} has no entry block"));
            }
            let trailer = rest
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("jobs="))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| format!("malformed done line '{line}'"))?;
            if trailer != report.jobs.len() {
                return Err(format!(
                    "done line declares {trailer} jobs but {} were reported",
                    report.jobs.len()
                ));
            }
            done = true;
        } else {
            return Err(format!("unexpected line '{line}'"));
        }
    }
    if !done {
        return Err("report ended without a done line (worker died mid-shard?)".to_owned());
    }
    if declared != report.jobs.len() {
        return Err(format!(
            "report header declares {declared} jobs but {} were reported",
            report.jobs.len()
        ));
    }
    if report.jobs.len() != expected.len() {
        return Err(format!(
            "worker answered {} of its {} dispatched jobs",
            report.jobs.len(),
            expected.len()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SweepSpec, TraceSource};
    use crate::sweep::JobMetrics;
    use sigcomp_obs::Registry;
    use sigcomp_workloads::WorkloadSize;

    fn jobs(n: usize) -> Vec<JobSpec> {
        let all = SweepSpec::paper(WorkloadSize::Tiny).enumerate();
        all.into_iter().take(n).collect()
    }

    fn outcome(spec: JobSpec, seed: u64, from_cache: bool) -> JobOutcome {
        JobOutcome {
            spec,
            metrics: JobMetrics {
                instructions: 100 + seed,
                cycles: 170 + seed,
                ..JobMetrics::default()
            },
            from_cache,
        }
    }

    fn ids(jobs: &[JobSpec]) -> HashSet<u64> {
        jobs.iter().map(JobSpec::job_id).collect()
    }

    #[test]
    fn dispatch_round_trips() {
        let mut jobs = jobs(3);
        // Trace-file jobs ride the same grammar (the pipe transport needs them).
        jobs[2].source = TraceSource::File { digest: 0xdead };
        jobs[2].size = WorkloadSize::Default;
        let body = encode_dispatch(&jobs);
        assert!(body.starts_with(&format!("{FLEET_HEADER} dispatch jobs=3\n")));
        let parsed = parse_dispatch(&body).expect("parses");
        assert_eq!(parsed, jobs);
        assert_eq!(
            parsed.iter().map(JobSpec::job_id).collect::<Vec<_>>(),
            jobs.iter().map(JobSpec::job_id).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn dispatch_violations_are_named() {
        let good = encode_dispatch(&jobs(2));
        for (body, needle) in [
            (String::new(), "empty dispatch body"),
            ("who goes there\n".to_owned(), "bad dispatch header"),
            (
                good.replace("jobs=2", "jobs=5"),
                "declares 5 jobs but carries 2",
            ),
            (
                format!(
                    "{FLEET_HEADER} dispatch jobs=1\nkernel nope tiny paper 3bit byte-serial\n"
                ),
                "unknown workload",
            ),
            (
                format!("{FLEET_HEADER} dispatch jobs=1\ngarbage line\n"),
                "bad job line 'garbage line'",
            ),
        ] {
            let err = parse_dispatch(&body).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn reports_round_trip_with_verified_entries_and_obs() {
        let specs = jobs(2);
        let outcomes = vec![outcome(specs[0], 1, false), outcome(specs[1], 2, true)];
        let registry = Registry::new();
        registry.counter("replay.jobs_simulated").add(1);
        registry.histogram("replay.job", &[10, 100]).observe(7);
        let body = encode_report(&outcomes, &registry.snapshot());
        let report = parse_report(&body, &ids(&specs)).expect("parses");
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.entries.len(), 2);
        assert_eq!(report.obs.counter("replay.jobs_simulated"), 1);
        assert_eq!(report.obs.histograms["replay.job"].count, 1);
        for (outcome, &(id, from_cache)) in outcomes.iter().zip(&report.jobs) {
            assert_eq!(outcome.spec.job_id(), id);
            assert_eq!(outcome.from_cache, from_cache);
        }
        // The replicated text decodes to the exact metrics that were sent.
        for (outcome, (id, text)) in outcomes.iter().zip(&report.entries) {
            assert_eq!(outcome.spec.job_id(), *id);
            assert_eq!(decode_entry(text), Some(outcome.metrics));
        }
    }

    #[test]
    fn report_violations_are_named() {
        let specs = jobs(2);
        let expected = ids(&specs);
        let outcomes = vec![outcome(specs[0], 1, false), outcome(specs[1], 2, false)];
        let good = encode_report(&outcomes, &Snapshot::default());
        let twice = encode_report(
            &[outcomes[0].clone(), outcomes[0].clone()],
            &Snapshot::default(),
        );
        let id0 = specs[0].job_id();
        let head = format!("{FLEET_HEADER} report jobs=1");

        for (body, needle) in [
            (String::new(), "empty report"),
            ("hello\n".to_owned(), "bad report header"),
            (
                format!("{FLEET_HEADER} report jobs=0\ndone jobs=0\n"),
                "answered 0 of its 2",
            ),
            (
                format!("{head}\njob {id0:016x} simulated\ndone jobs=1\n"),
                "has no entry block",
            ),
            (
                format!("{head}\njob zz simulated\ndone jobs=1\n"),
                "malformed job id",
            ),
            (
                format!("{head}\njob {id0:016x} teleported\n"),
                "unknown provenance",
            ),
            (
                format!("{head}\njob 00000000deadbeef simulated\ndone jobs=1\n"),
                "was not dispatched",
            ),
            (twice, "reported twice"),
            (
                format!("{head}\njob {id0:016x} simulated\n"),
                "without a done line",
            ),
            (
                format!(
                    "{head}\njob {id0:016x} simulated\n\
                     entry {id0:016x} 0000000000000000 lines=400\nsigcomp-explore v2\n"
                ),
                "truncated mid-block",
            ),
            // A flipped byte inside an entry block breaks that entry's digest.
            (
                good.replacen("instructions=101", "instructions=999", 1),
                "digest mismatch",
            ),
            (
                good.replace("done jobs=2", "done jobs=3"),
                "declares 3 jobs",
            ),
            (
                good.replacen("report jobs=2", "report jobs=7", 1),
                "header declares 7 jobs",
            ),
            (good.replace("done jobs=2\n", ""), "without a done line"),
            (format!("{good}late line\n"), "line after the done line"),
            (
                good.replace("done jobs=2", "obs widget x 1\ndone jobs=2"),
                "unknown metric kind",
            ),
            (
                good.replace(
                    "done jobs=2",
                    "done jobs=2\nobs counter replay.jobs_simulated 1",
                ),
                "line after the done line",
            ),
        ] {
            let err = parse_report(&body, &expected).unwrap_err();
            assert!(err.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn partial_reports_are_rejected() {
        // A worker that silently drops one of its jobs must not pass.
        let specs = jobs(2);
        let body = encode_report(&[outcome(specs[0], 1, false)], &Snapshot::default());
        let err = parse_report(&body, &ids(&specs)).unwrap_err();
        assert!(err.contains("answered 1 of its 2"), "{err}");
    }

    #[test]
    fn plans_sort_by_job_id_and_deal_round_robin() {
        let specs = jobs(5);
        let submitted = [specs[3], specs[0], specs[3], specs[4], specs[1], specs[2]];
        let plan = ShardPlan::new(&submitted);
        let sorted: Vec<u64> = plan.jobs().iter().map(JobSpec::job_id).collect();
        let mut expected: Vec<u64> = specs.iter().map(JobSpec::job_id).collect();
        expected.sort_unstable();
        assert_eq!(sorted, expected, "unique jobs, in job-id order");

        let shards = ShardPlan::partition(plan.jobs(), 2);
        assert_eq!(shards.len(), 2);
        let sorted = plan.jobs();
        assert_eq!(shards[0], vec![sorted[0], sorted[2], sorted[4]]);
        assert_eq!(shards[1], vec![sorted[1], sorted[3]]);
        assert!(ShardPlan::partition(&[], 0).is_empty());
    }

    #[test]
    fn merges_replicate_restore_and_fold_per_position() {
        let dir = std::env::temp_dir().join(format!("sigcomp-proto-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let specs = jobs(2);
        let plan = ShardPlan::new(&[specs[0], specs[1], specs[0]]);
        let sent = [outcome(specs[0], 1, false), outcome(specs[1], 2, true)];
        let body = encode_report(&sent, &Snapshot::default());
        let report = parse_report(&body, &ids(&specs)).expect("parses");

        let (outcomes, totals) = plan.merge(&cache, &[report]).expect("merges");
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0], sent[0]);
        assert_eq!(outcomes[1], sent[1]);
        // The follower position coalesced onto its leader's run.
        assert_eq!(outcomes[2].metrics, sent[0].metrics);
        assert!(outcomes[2].from_cache);
        assert_eq!((totals.simulated, totals.cached), (1, 2));
        assert_eq!(totals.instructions_simulated, 101);

        // A job nobody answered is a named error, never a panic.
        let err = ShardPlan::new(&[specs[0], jobs(3)[2]])
            .merge(&cache, &[])
            .unwrap_err();
        assert!(matches!(err, ExecError::ResultMissing { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
