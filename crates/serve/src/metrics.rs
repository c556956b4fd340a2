//! Server observability: lock-free counters and a fixed-bucket latency
//! histogram, rendered as the `GET /metrics` JSON document.
//!
//! Everything is an `AtomicU64` bumped with relaxed ordering — the counters
//! are statistics, not synchronization — so the hot request path never takes
//! a lock for accounting. The batching counters are the server's proof of
//! work coalescing: `jobs_simulated` staying below `jobs_requested` is the
//! deduplication guarantee the end-to-end tests assert.
//!
//! The latency histogram is a [`sigcomp_obs::Histogram`]: the struct owns
//! it (no registry lookups on the request path) and [`ServerMetrics::
//! register_global`] aliases it into the process-wide registry so
//! `GET /metrics.json` and worker snapshots see the same buckets.

use sigcomp_explore::CacheStats;
use sigcomp_obs::json::{Layout, Writer};
use sigcomp_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (exclusive, in microseconds) of the latency buckets; the
/// last bucket is unbounded. Five sub-millisecond buckets — memo hits and
/// cache answers return in tens to hundreds of microseconds, and the old
/// `[100µs, 1ms, ...]` ladder collapsed all of them into one bin.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// All counters the server exposes on `GET /metrics`.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Requests that produced a response (any status).
    pub http_requests: AtomicU64,
    /// Responses with a 2xx status.
    pub http_2xx: AtomicU64,
    /// Responses with a 4xx status.
    pub http_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub http_5xx: AtomicU64,
    /// Request-to-response latency histogram.
    latency: Histogram,
    /// Jobs submitted to the batcher (before any deduplication).
    pub jobs_requested: AtomicU64,
    /// Jobs shed with a fast `503 Retry-After` because the queue was full
    /// (non-blocking submissions only; batch submissions block instead).
    pub jobs_shed: AtomicU64,
    /// Jobs answered from the in-memory memo without touching the queue.
    pub jobs_memo_hits: AtomicU64,
    /// Jobs coalesced away inside a batch (duplicates of another in-flight
    /// job with the same content hash).
    pub jobs_batch_deduped: AtomicU64,
    /// Jobs answered from the shared on-disk result cache.
    pub jobs_disk_cache_hits: AtomicU64,
    /// Jobs that actually ran a fresh simulation.
    pub jobs_simulated: AtomicU64,
    /// Jobs placed on the in-process thread backend
    /// ([`sigcomp_explore::ExecBackend::LocalThreads`]) — the unique
    /// residue of each batch when the server runs with the default backend.
    pub jobs_placed_local: AtomicU64,
    /// Jobs placed on the sharded subprocess backend
    /// ([`sigcomp_explore::ExecBackend::Subprocess`]).
    pub jobs_placed_subprocess: AtomicU64,
    /// Jobs placed on the distributed fleet backend
    /// ([`sigcomp_explore::ExecBackend::Fleet`]).
    pub jobs_placed_fleet: AtomicU64,
    /// Batches dispatched to the explore executor.
    pub batches_dispatched: AtomicU64,
    /// Largest batch dispatched so far.
    pub largest_batch: AtomicU64,
    /// Sweep tickets created by `POST /sweep`.
    pub sweeps_submitted: AtomicU64,
    /// Sweeps that finished successfully.
    pub sweeps_completed: AtomicU64,
    /// Sweeps that failed (e.g. server shutdown mid-run).
    pub sweeps_failed: AtomicU64,
    /// Connections currently open in the reactor (a gauge: incremented at
    /// accept, decremented at close — also the admission-control count).
    pub conns_open: AtomicU64,
    /// Connections admitted past the accept gate.
    pub conns_accepted: AtomicU64,
    /// Connections shed at the accept gate with a fast `503` because the
    /// connection cap was reached.
    pub conns_shed: AtomicU64,
    /// Requests served on an already-used keep-alive connection (the
    /// second and later requests per connection).
    pub keepalive_reuses: AtomicU64,
    /// Connections answered `408 Request Timeout`: a partial request sat
    /// past the read deadline (the slowloris verdict).
    pub request_timeouts: AtomicU64,
    /// Connections dropped because a response write stalled past the write
    /// deadline.
    pub write_timeouts: AtomicU64,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            http_requests: AtomicU64::new(0),
            http_2xx: AtomicU64::new(0),
            http_4xx: AtomicU64::new(0),
            http_5xx: AtomicU64::new(0),
            latency: Histogram::new(LATENCY_BOUNDS_US),
            jobs_requested: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_memo_hits: AtomicU64::new(0),
            jobs_batch_deduped: AtomicU64::new(0),
            jobs_disk_cache_hits: AtomicU64::new(0),
            jobs_simulated: AtomicU64::new(0),
            jobs_placed_local: AtomicU64::new(0),
            jobs_placed_subprocess: AtomicU64::new(0),
            jobs_placed_fleet: AtomicU64::new(0),
            batches_dispatched: AtomicU64::new(0),
            largest_batch: AtomicU64::new(0),
            sweeps_submitted: AtomicU64::new(0),
            sweeps_completed: AtomicU64::new(0),
            sweeps_failed: AtomicU64::new(0),
            conns_open: AtomicU64::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_shed: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            request_timeouts: AtomicU64::new(0),
            write_timeouts: AtomicU64::new(0),
        }
    }
}

impl ServerMetrics {
    /// Bumps `counter` by one.
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request/response round trip in the latency histogram.
    pub fn observe_latency(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.latency.observe(us);
    }

    /// Records a dispatched batch of `size` jobs.
    pub fn observe_batch(&self, size: u64) {
        self.batches_dispatched.fetch_add(1, Ordering::Relaxed);
        self.largest_batch.fetch_max(size, Ordering::Relaxed);
    }

    /// Aliases the latency histogram into the process-wide observability
    /// registry (as `serve.http.latency`), so the full-registry exports see
    /// the same buckets this struct records into. Called once at bind time
    /// — standalone instances (tests) stay out of the global registry.
    pub fn register_global(&self) {
        sigcomp_obs::global().register_histogram("serve.http.latency", &self.latency);
    }

    /// Renders every counter as the `/metrics` JSON document. `queue_depth`,
    /// `memo_entries`, `uptime`, `cache` and `fleet` are sampled by the
    /// caller (they live outside this struct); `fleet` must be a complete
    /// JSON value — the worker-pool document on a frontier, `null`
    /// elsewhere.
    #[must_use]
    pub fn to_json(
        &self,
        queue_depth: usize,
        memo_entries: usize,
        uptime: Duration,
        cache: &CacheStats,
        fleet: &str,
    ) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Lines);
        w.key("uptime_ms").raw(uptime.as_millis());
        w.key("http").object(Layout::Inline);
        w.key("requests").raw(get(&self.http_requests));
        w.key("responses_2xx").raw(get(&self.http_2xx));
        w.key("responses_4xx").raw(get(&self.http_4xx));
        w.key("responses_5xx").raw(get(&self.http_5xx));
        self.latency.snapshot().write_json(w.key("latency"));
        w.end();
        w.key("batch").object(Layout::Inline);
        w.key("queue_depth").raw(queue_depth);
        w.key("memo_entries").raw(memo_entries);
        w.key("jobs_requested").raw(get(&self.jobs_requested));
        w.key("jobs_shed").raw(get(&self.jobs_shed));
        w.key("jobs_memo_hits").raw(get(&self.jobs_memo_hits));
        w.key("jobs_batch_deduped")
            .raw(get(&self.jobs_batch_deduped));
        w.key("jobs_disk_cache_hits")
            .raw(get(&self.jobs_disk_cache_hits));
        w.key("jobs_simulated").raw(get(&self.jobs_simulated));
        w.key("batches_dispatched")
            .raw(get(&self.batches_dispatched));
        w.key("largest_batch").raw(get(&self.largest_batch));
        w.key("dispatch").object(Layout::Inline);
        w.key("local").raw(get(&self.jobs_placed_local));
        w.key("subprocess").raw(get(&self.jobs_placed_subprocess));
        w.key("fleet").raw(get(&self.jobs_placed_fleet));
        w.end().end();
        w.key("reactor").object(Layout::Inline);
        w.key("open_connections").raw(get(&self.conns_open));
        w.key("conns_accepted").raw(get(&self.conns_accepted));
        w.key("conns_shed").raw(get(&self.conns_shed));
        w.key("keepalive_reuses").raw(get(&self.keepalive_reuses));
        w.key("request_timeouts").raw(get(&self.request_timeouts));
        w.key("write_timeouts").raw(get(&self.write_timeouts));
        w.end();
        w.key("cache").object(Layout::Inline);
        w.key("hits").raw(cache.hits);
        w.key("misses").raw(cache.misses);
        w.key("retired").raw(cache.retired);
        w.key("stores").raw(cache.stores);
        w.end();
        w.key("sweeps").object(Layout::Inline);
        w.key("submitted").raw(get(&self.sweeps_submitted));
        w.key("completed").raw(get(&self.sweeps_completed));
        w.key("failed").raw(get(&self.sweeps_failed));
        w.end();
        w.key("fleet").raw(fleet.trim_end());
        w.end();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_obs::json::Json;

    const LATENCY_LABELS: [&str; 12] = [
        "le_50us", "le_100us", "le_250us", "le_500us", "le_1ms", "le_5ms", "le_10ms", "le_50ms",
        "le_100ms", "le_500ms", "le_1s", "gt_1s",
    ];

    fn latency_doc(m: &ServerMetrics) -> Json {
        let doc =
            Json::parse(&m.to_json(0, 0, Duration::ZERO, &CacheStats::default(), "null")).unwrap();
        doc.get("http")
            .and_then(|h| h.get("latency"))
            .cloned()
            .expect("latency section")
    }

    #[test]
    fn latency_buckets_cover_the_full_range() {
        let m = ServerMetrics::default();
        for us in [
            5, 80, 120, 300, 700, 2_000, 7_000, 20_000, 70_000, 200_000, 700_000,
        ] {
            m.observe_latency(Duration::from_micros(us));
        }
        m.observe_latency(Duration::from_secs(5));
        let latency = latency_doc(&m);
        for label in LATENCY_LABELS {
            assert_eq!(
                latency.get(label).and_then(Json::as_u64),
                Some(1),
                "bucket {label}"
            );
        }
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(12));
    }

    #[test]
    fn latency_bucket_assignment_is_pinned_at_the_edges() {
        // Regression: bounds are upper-exclusive, and sub-millisecond
        // requests must spread across five buckets instead of collapsing
        // into the first.
        let m = ServerMetrics::default();
        m.observe_latency(Duration::from_micros(49)); // le_50us
        m.observe_latency(Duration::from_micros(50)); // le_100us (50 is excluded from le_50us)
        m.observe_latency(Duration::from_micros(99)); // le_100us
        m.observe_latency(Duration::from_micros(100)); // le_250us
        m.observe_latency(Duration::from_micros(999)); // le_1ms
        m.observe_latency(Duration::from_millis(1)); // le_5ms
        m.observe_latency(Duration::from_micros(999_999)); // le_1s
        m.observe_latency(Duration::from_secs(1)); // gt_1s (1s is excluded from le_1s)
        let latency = latency_doc(&m);
        let bucket = |label: &str| latency.get(label).and_then(Json::as_u64).unwrap();
        assert_eq!(bucket("le_50us"), 1);
        assert_eq!(bucket("le_100us"), 2);
        assert_eq!(bucket("le_250us"), 1);
        assert_eq!(bucket("le_500us"), 0);
        assert_eq!(bucket("le_1ms"), 1);
        assert_eq!(bucket("le_5ms"), 1);
        assert_eq!(bucket("le_1s"), 1);
        assert_eq!(bucket("gt_1s"), 1);
    }

    #[test]
    fn latency_quantiles_are_exported() {
        let m = ServerMetrics::default();
        for _ in 0..90 {
            m.observe_latency(Duration::from_micros(75));
        }
        for _ in 0..10 {
            m.observe_latency(Duration::from_millis(800));
        }
        let latency = latency_doc(&m);
        let p50 = latency.get("p50").and_then(Json::as_f64).expect("p50");
        let p99 = latency.get("p99").and_then(Json::as_f64).expect("p99");
        assert!((50.0..100.0).contains(&p50), "p50 = {p50}");
        assert!(p99 > 100_000.0, "p99 = {p99}");
    }

    #[test]
    fn metrics_json_parses_and_carries_counters() {
        let m = ServerMetrics::default();
        for _ in 0..7 {
            ServerMetrics::incr(&m.jobs_requested);
        }
        ServerMetrics::incr(&m.jobs_simulated);
        for _ in 0..3 {
            ServerMetrics::incr(&m.jobs_placed_local);
        }
        ServerMetrics::incr(&m.jobs_placed_subprocess);
        for _ in 0..2 {
            ServerMetrics::incr(&m.jobs_placed_fleet);
        }
        for _ in 0..4 {
            ServerMetrics::incr(&m.jobs_shed);
        }
        m.observe_batch(5);
        m.observe_batch(3);
        let cache = CacheStats {
            hits: 11,
            misses: 4,
            retired: 1,
            stores: 5,
        };
        let fleet = "{\"known\": 2, \"live\": 1}";
        let doc =
            Json::parse(&m.to_json(2, 6, Duration::from_millis(1234), &cache, fleet)).unwrap();
        assert_eq!(doc.get("uptime_ms").and_then(Json::as_u64), Some(1234));
        let batch = doc.get("batch").unwrap();
        assert_eq!(batch.get("queue_depth").and_then(Json::as_u64), Some(2));
        assert_eq!(batch.get("memo_entries").and_then(Json::as_u64), Some(6));
        assert_eq!(batch.get("jobs_requested").and_then(Json::as_u64), Some(7));
        assert_eq!(batch.get("jobs_simulated").and_then(Json::as_u64), Some(1));
        assert_eq!(
            batch.get("batches_dispatched").and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(batch.get("largest_batch").and_then(Json::as_u64), Some(5));
        assert_eq!(batch.get("jobs_shed").and_then(Json::as_u64), Some(4));
        let dispatch = batch.get("dispatch").expect("dispatch section");
        assert_eq!(dispatch.get("local").and_then(Json::as_u64), Some(3));
        assert_eq!(dispatch.get("subprocess").and_then(Json::as_u64), Some(1));
        assert_eq!(dispatch.get("fleet").and_then(Json::as_u64), Some(2));
        let reactor = doc.get("reactor").expect("reactor section");
        assert_eq!(
            reactor.get("open_connections").and_then(Json::as_u64),
            Some(0)
        );
        for counter in [
            "conns_accepted",
            "conns_shed",
            "keepalive_reuses",
            "request_timeouts",
            "write_timeouts",
        ] {
            assert_eq!(reactor.get(counter).and_then(Json::as_u64), Some(0));
        }
        let fleet_doc = doc.get("fleet").expect("fleet section");
        assert_eq!(fleet_doc.get("known").and_then(Json::as_u64), Some(2));
        assert_eq!(fleet_doc.get("live").and_then(Json::as_u64), Some(1));
        let cache_doc = doc.get("cache").expect("cache section");
        assert_eq!(cache_doc.get("hits").and_then(Json::as_u64), Some(11));
        assert_eq!(cache_doc.get("misses").and_then(Json::as_u64), Some(4));
        assert_eq!(cache_doc.get("retired").and_then(Json::as_u64), Some(1));
        assert_eq!(cache_doc.get("stores").and_then(Json::as_u64), Some(5));
    }
}
