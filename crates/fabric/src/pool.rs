//! The frontier's view of its fleet: registered workers, their liveness,
//! and per-worker dispatch accounting.
//!
//! The pool is deliberately dumb — a mutexed map from worker address to the
//! facts the frontier needs (capacity, when it last spoke, cumulative
//! counters, its latest obs snapshot). Liveness is derived, not stored: a
//! worker is live when its last announcement is younger than the TTL, so
//! there is no reaper thread to race against and a worker that went silent
//! simply stops being picked.

use sigcomp_obs::json::{Layout, Writer};
use sigcomp_obs::Snapshot;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How stale a worker's last announcement may be before the frontier stops
/// dispatching to it. Heartbeats default to a fraction of this, so a single
/// dropped heartbeat does not evict a healthy worker.
pub const DEFAULT_LIVENESS_TTL: Duration = Duration::from_secs(10);

/// Everything the pool tracks per worker.
#[derive(Debug)]
struct WorkerEntry {
    capacity: u64,
    /// Whether the worker has ever *announced itself* (register/heartbeat).
    /// Rows auto-created by dispatch accounting — an explicit `--fleet`
    /// address, say — are visible in status output but never count as live:
    /// only the worker's own voice confers liveness.
    announced: bool,
    last_seen: Instant,
    heartbeats: u64,
    dispatches: u64,
    retries: u64,
    failures: u64,
    /// The worker's latest obs snapshot, replaced (not merged) on every
    /// heartbeat: worker registries are cumulative over the process
    /// lifetime, so folding successive snapshots would double-count.
    obs: Snapshot,
}

impl WorkerEntry {
    fn new(capacity: u64) -> Self {
        WorkerEntry {
            capacity,
            announced: false,
            last_seen: Instant::now(),
            heartbeats: 0,
            dispatches: 0,
            retries: 0,
            failures: 0,
            obs: Snapshot::default(),
        }
    }
}

/// A point-in-time status row for one worker, as reported by
/// [`WorkerPool::status`].
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// The worker's dial-back `host:port` address.
    pub addr: String,
    /// Worker threads the worker advertises.
    pub capacity: u64,
    /// Whether the worker announced itself within the liveness TTL.
    pub live: bool,
    /// Milliseconds since the worker last spoke.
    pub age_ms: u64,
    /// Heartbeats received (registration does not count).
    pub heartbeats: u64,
    /// Dispatches the frontier sent this worker.
    pub dispatches: u64,
    /// Dispatch attempts that were retried.
    pub retries: u64,
    /// Dispatches abandoned after exhausting their attempts.
    pub failures: u64,
}

/// The frontier's worker registry. Cheap to share (`&'static` via
/// [`global`]); every method takes `&self`.
#[derive(Debug, Default)]
pub struct WorkerPool {
    inner: Mutex<BTreeMap<String, WorkerEntry>>,
}

impl WorkerPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        WorkerPool::default()
    }

    /// Records a registration: the worker becomes known (or refreshes its
    /// capacity and last-seen time if it already was).
    pub fn register(&self, addr: &str, capacity: u64) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner
            .entry(addr.to_owned())
            .or_insert_with(|| WorkerEntry::new(capacity));
        entry.capacity = capacity;
        entry.announced = true;
        entry.last_seen = Instant::now();
    }

    /// Records a heartbeat, auto-registering unknown workers (a frontier
    /// restart must not orphan a fleet that keeps heartbeating). The
    /// snapshot replaces the previous one — see [`WorkerEntry::obs`].
    pub fn heartbeat(&self, addr: &str, capacity: u64, obs: Snapshot) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner
            .entry(addr.to_owned())
            .or_insert_with(|| WorkerEntry::new(capacity));
        entry.capacity = capacity;
        entry.announced = true;
        entry.last_seen = Instant::now();
        entry.heartbeats += 1;
        entry.obs = obs;
    }

    /// Addresses of workers whose last announcement is younger than `ttl`,
    /// in sorted (deterministic) order.
    #[must_use]
    pub fn live(&self, ttl: Duration) -> Vec<String> {
        let now = Instant::now();
        self.inner
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, e)| e.announced && now.duration_since(e.last_seen) < ttl)
            .map(|(addr, _)| addr.clone())
            .collect()
    }

    /// Notes a dispatch sent to `addr` (auto-creating the row so explicit
    /// `--fleet` worker lists show up in status output too).
    pub fn note_dispatch(&self, addr: &str) {
        self.bump(addr, |e| e.dispatches += 1);
    }

    /// Notes a retried dispatch attempt against `addr`.
    pub fn note_retry(&self, addr: &str) {
        self.bump(addr, |e| e.retries += 1);
    }

    /// Notes a dispatch abandoned after `addr` exhausted its attempts.
    pub fn note_failure(&self, addr: &str) {
        self.bump(addr, |e| e.failures += 1);
    }

    /// Replaces `addr`'s stored obs snapshot (dispatch reports carry fresher
    /// snapshots than the last heartbeat).
    pub fn update_obs(&self, addr: &str, obs: Snapshot) {
        self.bump(addr, move |e| e.obs = obs);
    }

    fn bump(&self, addr: &str, f: impl FnOnce(&mut WorkerEntry)) {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner
            .entry(addr.to_owned())
            .or_insert_with(|| WorkerEntry::new(0));
        f(entry);
    }

    /// The latest obs snapshots of every worker, folded into one. Safe to
    /// sum because each worker contributes exactly its latest snapshot —
    /// never two generations of the same registry.
    #[must_use]
    pub fn merged_obs(&self) -> Snapshot {
        let inner = self.inner.lock().unwrap();
        let mut merged = Snapshot::default();
        for entry in inner.values() {
            // Bounds mismatches cannot happen between workers running the
            // same build; if they do (mixed versions), skip rather than
            // poison the whole fleet view.
            let _ = merged.merge(&entry.obs);
        }
        merged
    }

    /// One status row per known worker, in sorted address order.
    #[must_use]
    pub fn status(&self, ttl: Duration) -> Vec<WorkerStatus> {
        let now = Instant::now();
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|(addr, e)| {
                let age = now.duration_since(e.last_seen);
                WorkerStatus {
                    addr: addr.clone(),
                    capacity: e.capacity,
                    live: e.announced && age < ttl,
                    age_ms: age.as_millis() as u64,
                    heartbeats: e.heartbeats,
                    dispatches: e.dispatches,
                    retries: e.retries,
                    failures: e.failures,
                }
            })
            .collect()
    }

    /// Known workers (live or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no worker has ever announced itself.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// The fleet as a JSON document: per-worker rows (address, capacity,
    /// liveness, dispatch/retry/heartbeat counters) plus the merged
    /// fleet-wide obs snapshot. This is the body of the frontier's
    /// `GET /fleet` and the `"fleet"` section of its `/metrics`.
    #[must_use]
    pub fn to_json(&self, ttl: Duration) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::new(&mut out), ttl);
        out.push('\n');
        out
    }

    /// Writes the [`WorkerPool::to_json`] document as one JSON value, so
    /// an enclosing document (the frontier's `/metrics`) can embed it.
    pub fn write_json(&self, w: &mut Writer<'_>, ttl: Duration) {
        let rows = self.status(ttl);
        let live = rows.iter().filter(|r| r.live).count();
        w.object(Layout::Lines);
        w.key("workers").array(Layout::Lines);
        for r in &rows {
            w.object(Layout::Inline);
            w.key("addr").str(&r.addr).key("capacity").raw(r.capacity);
            w.key("live").raw(r.live).key("age_ms").raw(r.age_ms);
            w.key("heartbeats").raw(r.heartbeats);
            w.key("dispatches").raw(r.dispatches);
            w.key("retries").raw(r.retries);
            w.key("failures").raw(r.failures);
            w.end();
        }
        w.end();
        w.key("known").raw(rows.len()).key("live").raw(live);
        self.merged_obs().write_json(w.key("merged_obs"));
        w.end();
    }
}

static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();

/// The process-wide pool the serve endpoints feed and the frontier runner
/// reads. Created on first use; never torn down.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(WorkerPool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_obs::Registry;

    fn snap(counter: u64) -> Snapshot {
        let r = Registry::new();
        r.counter("replay.jobs_simulated").add(counter);
        r.snapshot()
    }

    #[test]
    fn registration_and_liveness() {
        let pool = WorkerPool::new();
        assert!(pool.is_empty());
        pool.register("a:1", 4);
        pool.register("b:2", 8);
        pool.register("a:1", 6); // re-registration refreshes, not duplicates
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.live(Duration::from_mins(1)), vec!["a:1", "b:2"]);
        // A zero TTL makes everyone stale immediately.
        assert!(pool.live(Duration::ZERO).is_empty());
        let rows = pool.status(Duration::from_mins(1));
        assert_eq!(rows[0].capacity, 6);
        assert!(rows.iter().all(|r| r.live));
    }

    #[test]
    fn heartbeats_replace_snapshots_rather_than_accumulate() {
        let pool = WorkerPool::new();
        pool.heartbeat("a:1", 4, snap(10));
        pool.heartbeat("a:1", 4, snap(25)); // cumulative registry, later gen
        pool.heartbeat("b:2", 2, snap(7));
        // 25 + 7, NOT 10 + 25 + 7: per-worker latest, summed across workers.
        assert_eq!(pool.merged_obs().counter("replay.jobs_simulated"), 32);
        let rows = pool.status(Duration::from_mins(1));
        assert_eq!(rows[0].heartbeats, 2);
        assert_eq!(rows[1].heartbeats, 1);
    }

    #[test]
    fn dispatch_accounting_and_json() {
        let pool = WorkerPool::new();
        pool.heartbeat("a:1", 4, snap(3));
        pool.note_dispatch("a:1");
        pool.note_retry("a:1");
        pool.note_failure("a:1");
        pool.note_dispatch("explicit:9"); // --fleet worker never registered
                                          // Accounting rows are visible but only announced workers are live.
        assert_eq!(pool.live(Duration::from_mins(1)), vec!["a:1"]);
        let json = pool.to_json(Duration::from_mins(1));
        assert!(json.contains("\"addr\": \"a:1\""), "{json}");
        assert!(json.contains("\"dispatches\": 1"), "{json}");
        assert!(json.contains("\"retries\": 1"), "{json}");
        assert!(json.contains("\"failures\": 1"), "{json}");
        assert!(json.contains("\"addr\": \"explicit:9\""), "{json}");
        assert!(json.contains("\"known\": 2"), "{json}");
        assert!(json.contains("\"replay.jobs_simulated\": 3"), "{json}");
    }
}
