//! The batching scheduler: the core of the serving subsystem.
//!
//! Concurrent connections enqueue [`JobSpec`]s into one shared bounded
//! queue. A single dispatcher thread drains the queue into batches of up to
//! [`BatchConfig::max_batch`] jobs (a full cut ends on a record-stream
//! boundary, so one stream is not replayed once per batch),
//! **deduplicates** identical
//! configurations by their content hash ([`sigcomp_explore::dedup_jobs`] —
//! the same grouping the subprocess backend shards by, so coalescing
//! semantics can never drift between the server and the CLI), answers what
//! it can from a *bounded* in-memory memo and the shared on-disk
//! [`ResultCache`], and places only the remaining unique jobs on the
//! configured [`ExecBackend`] via [`sigcomp_explore::try_run_jobs`]: the
//! in-process work-stealing pool by default, or sharded `repro worker`
//! subprocesses so `/sweep` requests fan out across processes. A thousand
//! clients asking for overlapping configurations therefore cost one
//! simulation each, and every caller still receives bit-identical
//! [`JobMetrics`] (all counters are exact integers; cache hits are
//! substitutable for simulations by construction).
//!
//! Backpressure: when the queue is full, [`Batcher::submit`] blocks the
//! submitting connection thread until the dispatcher makes room, bounding
//! server memory under overload. The memo is bounded too
//! ([`BatchConfig::memo_capacity`], insertion-order eviction), so sustained
//! *distinct* traffic holds server memory flat instead of growing a
//! result per job id forever.

use sigcomp_explore::{
    dedup_jobs, try_run_jobs, ExecBackend, JobMetrics, JobSpec, ResultCache, SweepOptions,
};
use sigcomp_obs::{Counter, Gauge, Registry};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Default [`BatchConfig::memo_capacity`]: metrics are ~300 bytes, so the
/// default memo tops out around a megabyte.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {
    /// Maximum jobs coalesced into one executor batch (0 = default 64).
    pub max_batch: usize,
    /// Bounded queue capacity; submitters block when it is full
    /// (0 = default 1024).
    pub queue_capacity: usize,
    /// Worker threads per batch; `None` uses the machine's available
    /// parallelism.
    pub sim_workers: Option<usize>,
    /// Shared on-disk result cache, if any. The same directory may be used
    /// concurrently by `repro sweep` — [`ResultCache::store`] publishes
    /// atomically. Required when `backend` is
    /// [`ExecBackend::Subprocess`] (it is the merge point).
    pub disk_cache: Option<ResultCache>,
    /// Where each batch's unique jobs execute (default: in-process
    /// threads).
    pub backend: ExecBackend,
    /// Result-memo entries retained, oldest evicted first
    /// (0 = [`DEFAULT_MEMO_CAPACITY`]). Evicted entries simply fall back
    /// to the disk cache or a re-simulation.
    pub memo_capacity: usize,
}

impl BatchConfig {
    fn max_batch(&self) -> usize {
        if self.max_batch == 0 {
            64
        } else {
            self.max_batch
        }
    }

    fn queue_capacity(&self) -> usize {
        if self.queue_capacity == 0 {
            1024
        } else {
            self.queue_capacity
        }
    }

    fn memo_capacity(&self) -> usize {
        if self.memo_capacity == 0 {
            DEFAULT_MEMO_CAPACITY
        } else {
            self.memo_capacity
        }
    }
}

/// Upper bound on the load-shed `Retry-After` hint, in seconds. A queue deep
/// enough to hit this cap is drained long before the hint expires, so a
/// larger value would only idle clients.
pub const MAX_RETRY_AFTER_SECS: u64 = 30;

/// [`Batcher::retry_after_hint`]'s backlog model as a pure function: one
/// second per `max_batch`-sized executor batch queued, clamped to
/// `1..=`[`MAX_RETRY_AFTER_SECS`].
fn retry_after_secs(queue_depth: u64, max_batch: u64) -> u64 {
    queue_depth
        .div_ceil(max_batch.max(1))
        .clamp(1, MAX_RETRY_AFTER_SECS)
}

/// The in-memory result memo: a capacity-bounded map from
/// [`JobSpec::job_id`] to metrics with insertion-order eviction. Bounded so
/// a long-running server under sustained *distinct* traffic holds memory
/// flat; an evicted entry merely costs a disk-cache load or re-simulation.
#[derive(Debug)]
struct BoundedMemo {
    entries: HashMap<u64, JobMetrics>,
    /// Insertion order, oldest first.
    order: VecDeque<u64>,
    capacity: usize,
}

impl BoundedMemo {
    fn new(capacity: usize) -> Self {
        BoundedMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, id: u64) -> Option<JobMetrics> {
        self.entries.get(&id).copied()
    }

    fn insert(&mut self, id: u64, metrics: JobMetrics) {
        if self.entries.insert(id, metrics).is_none() {
            self.order.push_back(id);
            while self.entries.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.entries.remove(&evicted);
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One answered job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedResult {
    /// The measured counters — bit-identical whether simulated fresh,
    /// deduplicated against a concurrent request, or restored from a cache.
    pub metrics: JobMetrics,
    /// `true` when this caller's answer did not run a fresh simulation of
    /// its own (memo hit, disk-cache hit, or coalesced duplicate).
    pub from_cache: bool,
}

/// Why a submission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The batcher is shutting down and no longer accepts work.
    ShuttingDown,
    /// The queue is full and the caller asked not to wait: the job was
    /// **shed**, not queued. The HTTP layer turns this into a fast `503`
    /// with a `Retry-After` header instead of a connection that hangs.
    Overloaded,
    /// The simulation of this job's batch panicked; the batcher survives
    /// and later submissions still work, but this request has no result.
    SimulationFailed,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
            SubmitError::Overloaded => {
                write!(
                    f,
                    "server is overloaded (batch queue is full); retry shortly"
                )
            }
            SubmitError::SimulationFailed => write!(f, "simulation failed (internal error)"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A per-request completion slot: the dispatcher fills it, the submitting
/// thread sleeps on the condvar until it does.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<Option<Result<BatchedResult, SubmitError>>>,
    ready: Condvar,
}

impl Slot {
    fn fill(&self, result: Result<BatchedResult, SubmitError>) {
        *self.done.lock().expect("slot poisoned") = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<BatchedResult, SubmitError> {
        let mut done = self.done.lock().expect("slot poisoned");
        while done.is_none() {
            done = self.ready.wait(done).expect("slot poisoned");
        }
        done.take().expect("checked above")
    }
}

#[derive(Debug)]
struct QueueState {
    queue: VecDeque<(JobSpec, Arc<Slot>)>,
    /// Recently answered jobs, keyed by [`JobSpec::job_id`] and bounded by
    /// [`BatchConfig::memo_capacity`].
    memo: BoundedMemo,
    shutdown: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when the queue gains work or shutdown begins.
    work_ready: Condvar,
    /// Signalled when the dispatcher drains the queue below capacity.
    space_ready: Condvar,
    config: BatchConfig,
    stats: Stats,
}

/// The batcher's `serve.batch.*` handles (see [`crate::metrics`]).
#[derive(Debug)]
struct Stats {
    jobs_requested: Counter,
    jobs_shed: Counter,
    jobs_memo_hits: Counter,
    jobs_batch_deduped: Counter,
    jobs_disk_cache_hits: Counter,
    jobs_simulated: Counter,
    /// `dispatch.<backend id>`: jobs placed on the configured backend.
    jobs_placed: Counter,
    batches_dispatched: Counter,
    largest_batch: Gauge,
}

impl Stats {
    fn new(registry: &Registry, backend: &ExecBackend) -> Stats {
        let counter = |name: &str| registry.counter(&format!("serve.batch.{name}"));
        // Every backend's placement counter exists, so the document always
        // shows all three.
        for id in ["local", "subprocess", "fleet"] {
            counter(&format!("dispatch.{id}"));
        }
        Stats {
            jobs_requested: counter("jobs_requested"),
            jobs_shed: counter("jobs_shed"),
            jobs_memo_hits: counter("jobs_memo_hits"),
            jobs_batch_deduped: counter("jobs_batch_deduped"),
            jobs_disk_cache_hits: counter("jobs_disk_cache_hits"),
            jobs_simulated: counter("jobs_simulated"),
            jobs_placed: counter(&format!("dispatch.{}", backend.id())),
            batches_dispatched: counter("batches_dispatched"),
            largest_batch: registry.gauge("serve.batch.largest_batch"),
        }
    }
}

/// The batching scheduler. Dropping it shuts the dispatcher down, failing
/// any still-queued submissions with [`SubmitError::ShuttingDown`].
#[derive(Debug)]
pub struct Batcher {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl Batcher {
    /// Starts the dispatcher thread, recording into `registry`.
    #[must_use]
    pub fn new(config: BatchConfig, registry: &Registry) -> Self {
        let stats = Stats::new(registry, &config.backend);
        let memo = BoundedMemo::new(config.memo_capacity());
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                memo,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            config,
            stats,
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sigcomp-serve-dispatcher".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawning the dispatcher thread")
        };
        Batcher {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submits one job and blocks until its result is available. When the
    /// queue is full the job is **shed** with [`SubmitError::Overloaded`]
    /// instead of blocking the calling (connection) thread: an interactive
    /// `/simulate` client is better served by a fast `503 Retry-After` than
    /// by a connection that silently hangs until space appears.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] when the batcher is stopping;
    /// [`SubmitError::Overloaded`] when the queue is full.
    pub fn submit(&self, spec: JobSpec) -> Result<BatchedResult, SubmitError> {
        let state = self.shared.state.lock().expect("queue poisoned");
        let (state, enqueued) = self.enqueue_locked(state, spec, false);
        drop(state);
        match enqueued? {
            Enqueued::Ready(result) => Ok(*result),
            Enqueued::Waiting(slot) => {
                self.shared.work_ready.notify_all();
                slot.wait()
            }
        }
    }

    /// Submits a whole batch (e.g. an enumerated sweep) at once and waits
    /// for every result, returned in `specs` order. Enqueuing everything
    /// before waiting lets the dispatcher coalesce the entire batch instead
    /// of ping-ponging one job at a time. Unlike [`Batcher::submit`], a full
    /// queue **blocks** rather than sheds: batch callers (sweeps, fleet
    /// dispatches) are throughput work where backpressure is the right
    /// answer, and shedding mid-batch would discard partial results.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] if any job was refused or failed;
    /// partial results are discarded.
    pub fn submit_many(&self, specs: &[JobSpec]) -> Result<Vec<BatchedResult>, SubmitError> {
        // The whole batch is queued under one lock hold and announced once,
        // so the dispatcher drains it in `max_batch` cuts that depend only
        // on `specs`. Waking it per job let it drain whatever had arrived so
        // far, splitting a sweep at timing-dependent points — and a split
        // group of same-stream jobs replays its stream once per piece.
        let mut state = self.shared.state.lock().expect("queue poisoned");
        let mut pending = Vec::with_capacity(specs.len());
        let mut refused = None;
        for &spec in specs {
            let (next, enqueued) = self.enqueue_locked(state, spec, true);
            state = next;
            match enqueued {
                Ok(enqueued) => pending.push(enqueued),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        drop(state);
        self.shared.work_ready.notify_all();
        if let Some(e) = refused {
            return Err(e);
        }
        pending
            .into_iter()
            .map(|p| match p {
                Enqueued::Ready(result) => Ok(*result),
                Enqueued::Waiting(slot) => slot.wait(),
            })
            .collect()
    }

    /// A non-blocking memo probe: answers `spec` from the in-memory memo
    /// iff the result is already there, with the same accounting as
    /// [`Batcher::submit`]'s memo-hit path. This is the reactor's fast
    /// path — a hit costs one short lock, so repeat `/simulate` traffic is
    /// answered on the event-loop worker itself; a miss costs one failed
    /// lookup and the caller falls back to a dispatch-thread
    /// [`Batcher::submit`] (which re-counts the request, so a miss here
    /// deliberately touches no counters).
    #[must_use]
    pub fn try_memo(&self, spec: JobSpec) -> Option<BatchedResult> {
        let cached = {
            let state = self.shared.state.lock().expect("queue poisoned");
            state.memo.get(spec.job_id())?
        };
        let stats = &self.shared.stats;
        stats.jobs_requested.incr();
        stats.jobs_memo_hits.incr();
        Some(BatchedResult {
            metrics: cached,
            from_cache: true,
        })
    }

    /// Jobs currently waiting in the queue (a point-in-time sample).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue poisoned")
            .queue
            .len()
    }

    /// Results currently memoized (a point-in-time sample); never exceeds
    /// the configured [`BatchConfig::memo_capacity`].
    #[must_use]
    pub fn memo_len(&self) -> usize {
        self.shared.state.lock().expect("queue poisoned").memo.len()
    }

    /// The `Retry-After` hint (seconds) for a load-shed response, derived
    /// from the scheduler's actual backlog rather than a constant: one
    /// second per executor batch queued ahead of the retrying client
    /// (`queue_depth / max_batch`, rounded up), at least 1 and capped at
    /// [`MAX_RETRY_AFTER_SECS`]. A deeper queue or a smaller batch size
    /// pushes the hint out; a nearly drained queue says "come right back".
    #[must_use]
    pub fn retry_after_hint(&self) -> u64 {
        retry_after_secs(
            self.queue_depth() as u64,
            self.shared.config.max_batch() as u64,
        )
    }

    /// Answers `spec` from the memo or queues it, under the caller's lock
    /// hold; the caller announces queued work. Waiting for space releases
    /// the lock, after waking the dispatcher to drain what is queued.
    fn enqueue_locked<'a>(
        &self,
        mut state: MutexGuard<'a, QueueState>,
        spec: JobSpec,
        block: bool,
    ) -> (MutexGuard<'a, QueueState>, Result<Enqueued, SubmitError>) {
        let stats = &self.shared.stats;
        stats.jobs_requested.incr();
        if let Some(cached) = state.memo.get(spec.job_id()) {
            stats.jobs_memo_hits.incr();
            let hit = Enqueued::Ready(Box::new(BatchedResult {
                metrics: cached,
                from_cache: true,
            }));
            return (state, Ok(hit));
        }
        let capacity = self.shared.config.queue_capacity();
        if !block && state.queue.len() >= capacity && !state.shutdown {
            stats.jobs_shed.incr();
            return (state, Err(SubmitError::Overloaded));
        }
        if state.queue.len() >= capacity {
            self.shared.work_ready.notify_all();
        }
        while state.queue.len() >= capacity && !state.shutdown {
            state = self.shared.space_ready.wait(state).expect("queue poisoned");
        }
        if state.shutdown {
            return (state, Err(SubmitError::ShuttingDown));
        }
        let slot = Arc::new(Slot::default());
        state.queue.push_back((spec, Arc::clone(&slot)));
        (state, Ok(Enqueued::Waiting(slot)))
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("queue poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

enum Enqueued {
    // Boxed: a BatchedResult carries the full per-stage activity report
    // (~300 bytes), dwarfing the waiting variant's Arc.
    Ready(Box<BatchedResult>),
    Waiting(Arc<Slot>),
}

fn dispatch_loop(shared: &Shared) {
    loop {
        // Collect the next batch (blocking while the queue is empty).
        let batch: Vec<(JobSpec, Arc<Slot>)> = {
            let mut state = shared.state.lock().expect("queue poisoned");
            while state.queue.is_empty() && !state.shutdown {
                state = shared.work_ready.wait(state).expect("queue poisoned");
            }
            if state.queue.is_empty() && state.shutdown {
                return;
            }
            let n = stream_cut(&state.queue, shared.config.max_batch());
            let batch = state.queue.drain(..n).collect();
            shared.space_ready.notify_all();
            batch
        };
        shared.stats.batches_dispatched.incr();
        shared.stats.largest_batch.set_max(batch.len() as u64);
        run_batch(shared, batch);
    }
}

/// How many queued jobs the next batch takes: the whole queue while it is
/// shorter than `max_batch`. A full `max_batch` cut may end inside a stream
/// whose remaining jobs are queued behind it (or still being queued), and
/// each piece of a split stream replays it again; so the cut shrinks back
/// to the last stream boundary inside it. A cut with no boundary inside
/// stays full: `max_batch` is a hard upper bound.
fn stream_cut<T>(queue: &VecDeque<(JobSpec, T)>, max_batch: usize) -> usize {
    if queue.len() < max_batch {
        return queue.len();
    }
    (1..=max_batch)
        .rev()
        .find(|&k| {
            queue
                .get(k)
                .is_some_and(|next| next.0.stream() != queue[k - 1].0.stream())
        })
        .unwrap_or(max_batch)
}

/// Deduplicates one drained batch by job id, places the unique residue on
/// the configured execution backend, and fills every waiter's slot.
fn run_batch(shared: &Shared, batch: Vec<(JobSpec, Arc<Slot>)>) {
    let stats = &shared.stats;
    // Jobs enqueued before a previous batch finished may have been answered
    // by it; re-check the memo so they don't re-simulate, then group the
    // remainder with the workspace-wide dedup (first occurrence leads).
    let mut residue: Vec<(JobSpec, Arc<Slot>)> = Vec::with_capacity(batch.len());
    {
        let state = shared.state.lock().expect("queue poisoned");
        for (spec, slot) in batch {
            if let Some(cached) = state.memo.get(spec.job_id()) {
                stats.jobs_memo_hits.incr();
                slot.fill(Ok(BatchedResult {
                    metrics: cached,
                    from_cache: true,
                }));
                continue;
            }
            residue.push((spec, slot));
        }
    }
    if residue.is_empty() {
        return;
    }
    let specs: Vec<JobSpec> = residue.iter().map(|(spec, _)| *spec).collect();
    let deduped = dedup_jobs(&specs);
    let mut members: Vec<(usize, Arc<Slot>, bool)> = Vec::with_capacity(residue.len());
    for (pos, (_, slot)) in residue.into_iter().enumerate() {
        let follower = deduped.is_follower(pos);
        if follower {
            stats.jobs_batch_deduped.incr();
        }
        members.push((deduped.leader_of[pos], slot, follower));
    }

    // One backend pass over the deduplicated batch: the in-process executor
    // or a sharded subprocess fan-out, both consulting the shared on-disk
    // cache and returning outcomes in input order.
    // A panicking simulation must not unwind through the dispatcher: every
    // waiter would hang on its condvar forever (no socket timeout applies
    // there) and the queue would never drain again. Catch it, fail this
    // batch's waiters, and keep serving. AssertUnwindSafe is fine: on panic
    // the batch state is discarded (the memo is only written on success).
    // Backend errors (a dead worker child, say) fail the same way, after
    // logging the named cause server-side.
    let options = SweepOptions {
        workers: shared.config.sim_workers,
        cache: shared.config.disk_cache.clone(),
        backend: shared.config.backend.clone(),
    };
    stats.jobs_placed.add(deduped.unique.len() as u64);
    let summary = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        try_run_jobs(&deduped.unique, &options)
    })) {
        Ok(Ok(summary)) => summary,
        Ok(Err(e)) => {
            eprintln!("sigcomp-serve: batch execution failed: {e}");
            for (_, slot, _) in members {
                slot.fill(Err(SubmitError::SimulationFailed));
            }
            return;
        }
        Err(_) => {
            for (_, slot, _) in members {
                slot.fill(Err(SubmitError::SimulationFailed));
            }
            return;
        }
    };

    // Publish into the memo, then wake every waiter.
    {
        let mut state = shared.state.lock().expect("queue poisoned");
        for outcome in &summary.outcomes {
            state.memo.insert(outcome.spec.job_id(), outcome.metrics);
        }
    }
    for outcome in &summary.outcomes {
        if outcome.from_cache {
            stats.jobs_disk_cache_hits.incr();
        } else {
            stats.jobs_simulated.incr();
        }
    }
    for (idx, slot, follower) in members {
        let outcome = &summary.outcomes[idx];
        slot.fill(Ok(BatchedResult {
            metrics: outcome.metrics,
            // A follower's answer reused the leader's run; the leader
            // reports whether *its* answer came from the disk cache.
            from_cache: follower || outcome.from_cache,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp::ExtScheme;

    #[test]
    fn retry_after_tracks_the_batch_backlog() {
        // An empty (or racing-toward-empty) queue still asks for a 1 s
        // pause, never 0 — "Retry-After: 0" would invite a busy loop.
        assert_eq!(retry_after_secs(0, 64), 1);
        // Up to one batch pending: come back after one drain interval.
        assert_eq!(retry_after_secs(1, 64), 1);
        assert_eq!(retry_after_secs(64, 64), 1);
        // The hint grows with the number of batches queued ahead.
        assert_eq!(retry_after_secs(65, 64), 2);
        assert_eq!(retry_after_secs(640, 64), 10);
        // Tiny batches make the same queue look longer.
        assert_eq!(retry_after_secs(8, 1), 8);
        // Pathological backlogs are capped, not relayed verbatim.
        assert_eq!(retry_after_secs(1_000_000, 1), MAX_RETRY_AFTER_SECS);
        // A zero max_batch cannot divide-by-zero.
        assert_eq!(retry_after_secs(10, 0), 10);
    }

    use sigcomp_explore::{simulate_job, MemProfile};
    use sigcomp_pipeline::OrgKind;
    use sigcomp_workloads::{find, suite_names, WorkloadSize};

    /// A `serve.batch.*` counter or gauge as the batcher recorded it.
    fn read(registry: &Registry, name: &str) -> u64 {
        let name = format!("serve.batch.{name}");
        let snapshot = registry.snapshot();
        let gauge = snapshot.gauges.get(&name).copied();
        gauge.unwrap_or_else(|| snapshot.counter(&name))
    }

    fn spec(workload_index: usize, org: OrgKind) -> JobSpec {
        JobSpec {
            scheme: ExtScheme::ThreeBit,
            org,
            workload: suite_names()[workload_index],
            size: WorkloadSize::Tiny,
            mem: MemProfile::Paper,
            source: sigcomp_explore::TraceSource::Kernel,
        }
    }

    fn batcher() -> (Batcher, Registry) {
        let registry = Registry::new();
        let config = BatchConfig {
            max_batch: 16,
            queue_capacity: 64,
            sim_workers: Some(2),
            ..BatchConfig::default()
        };
        (Batcher::new(config, &registry), registry)
    }

    #[test]
    fn concurrent_identical_submissions_simulate_once() {
        let (batcher, registry) = batcher();
        let job = spec(0, OrgKind::ByteSerial);
        let expected = {
            let benchmark = find(job.workload, job.size).unwrap();
            simulate_job(&job, &benchmark)
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let batcher = &batcher;
                scope.spawn(move || {
                    let result = batcher.submit(job).expect("submit succeeds");
                    assert_eq!(result.metrics, expected, "answers must be bit-identical");
                });
            }
        });
        let requested = read(&registry, "jobs_requested");
        let simulated = read(&registry, "jobs_simulated");
        assert_eq!(requested, 8);
        assert_eq!(simulated, 1, "one simulation serves all eight clients");
        let coalesced = read(&registry, "jobs_batch_deduped") + read(&registry, "jobs_memo_hits");
        assert_eq!(coalesced, 7);
    }

    #[test]
    fn submit_many_answers_in_order_with_duplicates() {
        let (batcher, registry) = batcher();
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        let results = batcher.submit_many(&[a, b, a, b, a]).expect("batch runs");
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].metrics, results[2].metrics);
        assert_eq!(results[0].metrics, results[4].metrics);
        assert_eq!(results[1].metrics, results[3].metrics);
        assert_ne!(results[0].metrics, results[1].metrics);
        assert!(read(&registry, "jobs_simulated") <= 2);
    }

    #[test]
    fn submit_many_is_drained_in_cuts_that_depend_only_on_the_batch() {
        // 2 workloads x 4 orgs: two fused groups of four jobs each.
        let orgs = [
            OrgKind::Baseline32,
            OrgKind::ByteSerial,
            OrgKind::ParallelSkewed,
            OrgKind::ParallelCompressed,
        ];
        let jobs: Vec<JobSpec> = (0..2).flat_map(|w| orgs.map(|org| spec(w, org))).collect();

        // The whole batch fits one executor batch: one dispatch, every time.
        let (batcher, registry) = batcher();
        batcher.submit_many(&jobs).expect("batch runs");
        assert_eq!(read(&registry, "batches_dispatched"), 1);
        assert_eq!(read(&registry, "largest_batch"), 8);

        // A queue smaller than the batch blocks the submitter, which hands
        // the dispatcher the full queue before waiting for space.
        let registry = Registry::new();
        let config = BatchConfig {
            max_batch: 4,
            queue_capacity: 4,
            sim_workers: Some(2),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, &registry);
        let results = batcher.submit_many(&jobs).expect("batch runs");
        assert_eq!(results.len(), 8);
        assert_eq!(read(&registry, "batches_dispatched"), 2);
        assert_eq!(read(&registry, "jobs_simulated"), 8);
    }

    /// Every scheme × organization of one tiny kernel: one stream, 21 jobs.
    fn stream_jobs(workload_index: usize) -> Vec<JobSpec> {
        ExtScheme::ALL
            .iter()
            .flat_map(|&scheme| {
                OrgKind::ALL.iter().map(move |&org| JobSpec {
                    scheme,
                    ..spec(workload_index, org)
                })
            })
            .collect()
    }

    #[test]
    fn batch_cuts_fall_on_stream_boundaries() {
        // 3 streams x 21 jobs + 1: a 64-job cut may end inside the fourth
        // stream, so it shrinks to the boundary at 63.
        let mut jobs: Vec<JobSpec> = (0..3).flat_map(stream_jobs).collect();
        jobs.push(stream_jobs(3)[0]);
        assert_eq!(jobs.len(), 64);
        let queue: VecDeque<(JobSpec, ())> = jobs.iter().map(|&j| (j, ())).collect();
        assert_eq!(stream_cut(&queue, 64), 63);
        assert_eq!(stream_cut(&queue, 65), 64, "a shorter queue is taken whole");
        assert_eq!(stream_cut(&queue, 63), 63, "already on a boundary");
        assert_eq!(stream_cut(&queue, 50), 42);
        assert_eq!(
            stream_cut(&queue, 20),
            20,
            "no boundary inside: keep the cut"
        );

        let registry = Registry::new();
        let config = BatchConfig {
            max_batch: 64,
            queue_capacity: 128,
            sim_workers: Some(2),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, &registry);
        let results = batcher.submit_many(&jobs).expect("batch runs");
        assert_eq!(results.len(), 64);
        assert_eq!(read(&registry, "batches_dispatched"), 2);
        assert_eq!(read(&registry, "largest_batch"), 63);
    }

    #[test]
    fn memo_serves_repeat_submissions_without_requeueing() {
        let (batcher, registry) = batcher();
        let job = spec(1, OrgKind::Baseline32);
        let first = batcher.submit(job).expect("first submit");
        assert!(!first.from_cache);
        let second = batcher.submit(job).expect("second submit");
        assert!(second.from_cache, "repeat must be a memo hit");
        assert_eq!(first.metrics, second.metrics);
        assert_eq!(read(&registry, "jobs_memo_hits"), 1);
        assert_eq!(read(&registry, "jobs_simulated"), 1);
    }

    #[test]
    fn disk_cache_hits_are_counted_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "sigcomp-serve-test-diskcache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("cache opens");
        let job = spec(2, OrgKind::ByteSerial);
        // Warm the cache the way a CLI sweep would.
        let direct = {
            let benchmark = find(job.workload, job.size).unwrap();
            simulate_job(&job, &benchmark)
        };
        cache.store(job.job_id(), &direct).expect("store succeeds");

        let registry = Registry::new();
        let config = BatchConfig {
            disk_cache: Some(cache),
            sim_workers: Some(1),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, &registry);
        let result = batcher.submit(job).expect("submit succeeds");
        assert!(result.from_cache);
        assert_eq!(result.metrics, direct);
        assert_eq!(read(&registry, "jobs_disk_cache_hits"), 1);
        assert_eq!(read(&registry, "jobs_simulated"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn local_placement_is_counted_per_unique_job() {
        let (batcher, registry) = batcher();
        let a = spec(0, OrgKind::Baseline32);
        let b = spec(0, OrgKind::ByteSerial);
        batcher.submit_many(&[a, b, a]).expect("batch runs");
        // Dedup happens before placement: at most 2 jobs reach the backend,
        // all on the local side (the default backend).
        let local = read(&registry, "dispatch.local");
        assert!(local == 2, "expected 2 local placements, saw {local}");
        assert_eq!(read(&registry, "dispatch.subprocess"), 0);
    }

    #[test]
    fn sustained_distinct_submissions_hold_the_memo_flat() {
        // The memory-flatness regression guard: a capped memo must never
        // grow past its capacity no matter how many distinct jobs stream
        // through, and evicted entries must still be answerable (from the
        // executor) rather than erroring.
        let registry = Registry::new();
        let config = BatchConfig {
            max_batch: 4,
            queue_capacity: 16,
            sim_workers: Some(2),
            memo_capacity: 3,
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, &registry);
        // 2 workloads × 4 orgs = 8 distinct jobs, submitted twice over.
        let orgs = [
            OrgKind::Baseline32,
            OrgKind::ByteSerial,
            OrgKind::ParallelSkewed,
            OrgKind::ParallelCompressed,
        ];
        let mut distinct = Vec::new();
        for workload in 0..2 {
            for org in orgs {
                distinct.push(spec(workload, org));
            }
        }
        for round in 0..2 {
            for &job in &distinct {
                let result = batcher.submit(job).expect("submit succeeds");
                assert!(result.metrics.cycles > 0);
                assert!(
                    batcher.memo_len() <= 3,
                    "round {round}: memo grew to {}",
                    batcher.memo_len()
                );
            }
        }
        assert_eq!(batcher.memo_len(), 3, "memo sits at its cap");
        // Every submission was answered; evicted entries re-simulated
        // rather than failing.
        assert_eq!(read(&registry, "jobs_requested"), 2 * distinct.len() as u64);
    }

    #[test]
    fn full_queue_sheds_single_submissions_instead_of_blocking() {
        let registry = Registry::new();
        let config = BatchConfig {
            max_batch: 1,
            queue_capacity: 1,
            sim_workers: Some(1),
            ..BatchConfig::default()
        };
        let batcher = Batcher::new(config, &registry);
        // Fill the queue behind the dispatcher's back: push without
        // signalling work_ready, so the dispatcher stays asleep on its
        // condvar and cannot drain the entry before we observe the shed.
        {
            let mut state = batcher.shared.state.lock().unwrap();
            state
                .queue
                .push_back((spec(0, OrgKind::Baseline32), Arc::new(Slot::default())));
        }
        let shed = batcher.submit(spec(0, OrgKind::ByteSerial));
        assert_eq!(shed, Err(SubmitError::Overloaded));
        assert_eq!(read(&registry, "jobs_shed"), 1);
        // Dropping the batcher wakes the dispatcher, which drains the
        // stuffed entry and exits cleanly.
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let (first, _registry) = batcher();
        drop(first);
        // Dropping joins the dispatcher; a fresh batcher still works.
        let (second, _registry) = batcher();
        let result = second.submit(spec(0, OrgKind::Baseline32));
        assert!(result.is_ok());
    }
}
