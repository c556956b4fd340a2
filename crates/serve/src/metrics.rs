//! The server's metrics: `sigcomp_obs` handles in one [`Registry`] per
//! bound server, and the `GET /metrics` document rendered from its
//! [`Snapshot`].
//!
//! Every count the server keeps is a [`sigcomp_obs::Counter`],
//! [`sigcomp_obs::Gauge`] or [`sigcomp_obs::Histogram`] fetched once, at
//! construction, by the component that records it:
//!
//! - `serve.http.*` — the reactor: `requests`, `responses_2xx`/`4xx`/`5xx`
//!   and the `latency` histogram ([`LATENCY_BOUNDS_US`]);
//! - `serve.reactor.*` — the reactor: `conns_accepted`, `conns_shed`,
//!   `keepalive_reuses`, `request_timeouts`, `write_timeouts`;
//! - `serve.batch.*` — the [`crate::Batcher`]: `jobs_requested`,
//!   `jobs_shed`, `jobs_memo_hits`, `jobs_batch_deduped`,
//!   `jobs_disk_cache_hits`, `jobs_simulated`, `batches_dispatched`, the
//!   `largest_batch` gauge, and `dispatch.{local,subprocess,fleet}` (jobs
//!   placed on each execution backend);
//! - `serve.sweeps.*` — the routes: `submitted`, `completed`, `failed`.
//!
//! Registries are isolated, so servers sharing a process never mix their
//! counts. Values that live elsewhere are sampled into the snapshot as
//! gauges when it is read: `serve.uptime_ms`, `serve.batch.queue_depth`,
//! `serve.batch.memo_entries`, `serve.reactor.open_connections` and the
//! process-wide result-cache `serve.cache.{hits,misses,retired,stores}`.
//! `GET /metrics.json` carries the same series merged into the process
//! registry's snapshot. The batching counters are the server's proof of
//! work coalescing: `jobs_simulated` staying below `jobs_requested` is the
//! deduplication guarantee the end-to-end tests assert.

use sigcomp_fabric::pool::{WorkerPool, DEFAULT_LIVENESS_TTL};
use sigcomp_obs::json::{Layout, Writer};
use sigcomp_obs::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;

/// Upper bounds (exclusive, in microseconds) of the latency buckets; the
/// last bucket is unbounded. Five sub-millisecond buckets — memo hits and
/// cache answers return in tens to hundreds of microseconds, and the old
/// `[100µs, 1ms, ...]` ladder collapsed all of them into one bin.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// A leaf of the `/metrics` document.
enum Leaf<'a> {
    Value(u64),
    Histogram(&'a HistogramSnapshot),
}

/// Renders the `GET /metrics` document: every `serve.*` series of
/// `snapshot`, nested by dotted name with the `serve.` prefix stripped
/// (members sorted, sections inline, histograms in
/// [`HistogramSnapshot::write_json`] form), then `fleet`, the worker-pool
/// document.
#[must_use]
pub fn to_json(snapshot: &Snapshot, fleet: &WorkerPool) -> String {
    let values = (snapshot.counters.iter().chain(&snapshot.gauges))
        .map(|(name, &value)| (name, Leaf::Value(value)));
    let histograms = (snapshot.histograms.iter()).map(|(name, h)| (name, Leaf::Histogram(h)));
    // Sorted by name, every section's members are contiguous: `.` sorts
    // below every character the server's names use.
    let leaves: BTreeMap<&str, Leaf<'_>> = values
        .chain(histograms)
        .filter_map(|(name, leaf)| Some((name.strip_prefix("serve.")?, leaf)))
        .collect();
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object(Layout::Lines);
    let mut open: Vec<&str> = Vec::new();
    for (name, leaf) in leaves {
        let mut path: Vec<&str> = name.split('.').collect();
        let key = path.pop().expect("a name has a last segment");
        let shared = open.iter().zip(&path).take_while(|(a, b)| a == b).count();
        for _ in shared..open.len() {
            w.end();
        }
        open.truncate(shared);
        for &section in &path[shared..] {
            w.key(section).object(Layout::Inline);
            open.push(section);
        }
        w.key(key);
        match leaf {
            Leaf::Value(value) => _ = w.raw(value),
            Leaf::Histogram(h) => h.write_json(&mut w),
        }
    }
    for _ in open {
        w.end();
    }
    fleet.write_json(w.key("fleet"), DEFAULT_LIVENESS_TTL);
    w.end();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_obs::json::Json;
    use sigcomp_obs::Registry;

    const LATENCY_LABELS: [&str; 12] = [
        "le_50us", "le_100us", "le_250us", "le_500us", "le_1ms", "le_5ms", "le_10ms", "le_50ms",
        "le_100ms", "le_500ms", "le_1s", "gt_1s",
    ];

    /// The `http.latency` member of a `/metrics` document whose registry
    /// saw `observations_us`.
    fn latency_doc(observations_us: &[u64]) -> Json {
        let registry = Registry::new();
        let latency = registry.histogram("serve.http.latency", LATENCY_BOUNDS_US);
        for &us in observations_us {
            latency.observe(us);
        }
        let doc = Json::parse(&to_json(&registry.snapshot(), &WorkerPool::new())).unwrap();
        doc.get("http")
            .and_then(|h| h.get("latency"))
            .cloned()
            .expect("latency section")
    }

    #[test]
    fn latency_buckets_cover_the_full_range() {
        let latency = latency_doc(&[
            5, 80, 120, 300, 700, 2_000, 7_000, 20_000, 70_000, 200_000, 700_000, 5_000_000,
        ]);
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
        let latency = latency_doc(&[
            49,        // le_50us
            50,        // le_100us (50 is excluded from le_50us)
            99,        // le_100us
            100,       // le_250us
            999,       // le_1ms
            1_000,     // le_5ms
            999_999,   // le_1s
            1_000_000, // gt_1s (1s is excluded from le_1s)
        ]);
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
        let mut observations = vec![75; 90];
        observations.extend([800_000; 10]);
        let latency = latency_doc(&observations);
        let p50 = latency.get("p50").and_then(Json::as_f64).expect("p50");
        let p99 = latency.get("p99").and_then(Json::as_f64).expect("p99");
        assert!((50.0..100.0).contains(&p50), "p50 = {p50}");
        assert!(p99 > 100_000.0, "p99 = {p99}");
    }

    /// Every leaf path of `doc` outside the `fleet` member, dotted.
    fn leaf_paths(doc: &Json, prefix: &str, out: &mut Vec<String>) {
        for key in doc.keys() {
            let path = format!("{prefix}{key}");
            match doc.get(key) {
                Some(inner @ Json::Obj(_)) if path != "fleet" => {
                    leaf_paths(inner, &format!("{path}."), out);
                }
                _ => out.push(path),
            }
        }
    }

    #[test]
    fn metrics_json_parses_and_carries_counters() {
        let server = crate::Server::bind(crate::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..crate::ServeConfig::default()
        })
        .unwrap()
        .spawn();
        let addr = server.addr().to_string();
        let client = sigcomp_fabric::HttpClient::new(std::time::Duration::from_mins(1));
        let simulate = "{\"workload\": \"rawcaudio\", \"size\": \"tiny\"}";
        let sweep = "{\"workloads\": [\"rawcaudio\"], \"sizes\": [\"tiny\"], \
                     \"schemes\": [\"3bit\"], \"orgs\": [\"baseline32\"], \"sync\": true}";
        for (path, body) in [
            ("/simulate", simulate),
            ("/simulate", simulate),
            ("/sweep", sweep),
        ] {
            let r = client.post(&addr, path, body).unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
        }
        let body = client.get(&addr, "/metrics").unwrap().body;
        let doc = Json::parse(&body).unwrap();

        let mut paths = Vec::new();
        leaf_paths(&doc, "", &mut paths);
        paths.sort();
        let mut expected: Vec<String> = [
            "batch.batches_dispatched",
            "batch.dispatch.fleet",
            "batch.dispatch.local",
            "batch.dispatch.subprocess",
            "batch.jobs_batch_deduped",
            "batch.jobs_disk_cache_hits",
            "batch.jobs_memo_hits",
            "batch.jobs_requested",
            "batch.jobs_shed",
            "batch.jobs_simulated",
            "batch.largest_batch",
            "batch.memo_entries",
            "batch.queue_depth",
            "cache.hits",
            "cache.misses",
            "cache.retired",
            "cache.stores",
            "fleet",
            "http.requests",
            "http.responses_2xx",
            "http.responses_4xx",
            "http.responses_5xx",
            "reactor.conns_accepted",
            "reactor.conns_shed",
            "reactor.keepalive_reuses",
            "reactor.open_connections",
            "reactor.request_timeouts",
            "reactor.write_timeouts",
            "sweeps.completed",
            "sweeps.failed",
            "sweeps.submitted",
            "uptime_ms",
        ]
        .map(String::from)
        .into();
        let latency = ["count", "sum", "min", "max", "p50", "p95", "p99"];
        expected.extend(
            (latency.iter().chain(&LATENCY_LABELS)).map(|key| format!("http.latency.{key}")),
        );
        expected.sort();
        assert_eq!(paths, expected, "{body}");
        assert!(matches!(doc.get("fleet"), Some(Json::Obj(_))), "{body}");

        let value = |path: &str| {
            path.split('.')
                .try_fold(&doc, |node, key| node.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{path}: {body}"))
        };
        for (path, want) in [
            ("batch.jobs_requested", 3),
            ("batch.jobs_memo_hits", 1),
            ("batch.jobs_simulated", 2),
            ("batch.batches_dispatched", 2),
            ("batch.largest_batch", 1),
            ("batch.dispatch.local", 2),
            ("batch.dispatch.subprocess", 0),
            ("batch.memo_entries", 2),
            ("batch.queue_depth", 0),
            ("sweeps.submitted", 1),
            ("sweeps.completed", 1),
            ("sweeps.failed", 0),
            ("http.requests", 3),
            ("http.responses_2xx", 3),
            ("http.latency.count", 3),
            // The pooled client rides one connection; /metrics is its
            // third reuse.
            ("reactor.conns_accepted", 1),
            ("reactor.keepalive_reuses", 3),
            ("reactor.open_connections", 1),
        ] {
            assert_eq!(value(path), want, "{path}");
        }
        server.shutdown();
    }

    #[test]
    fn nesting_strips_the_prefix_and_skips_foreign_series() {
        let registry = Registry::new();
        registry.counter("serve.batch.jobs_requested").add(7);
        registry.counter("serve.batch.dispatch.local").add(3);
        registry.gauge("serve.batch.largest_batch").set_max(5);
        registry.counter("replay.jobs_simulated").add(9);
        let mut snapshot = registry.snapshot();
        snapshot.gauges.insert("serve.uptime_ms".into(), 1234);
        let body = to_json(&snapshot, &WorkerPool::new());
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("uptime_ms").and_then(Json::as_u64), Some(1234));
        let batch = doc.get("batch").unwrap();
        assert_eq!(batch.get("jobs_requested").and_then(Json::as_u64), Some(7));
        assert_eq!(batch.get("largest_batch").and_then(Json::as_u64), Some(5));
        let dispatch = batch.get("dispatch").unwrap();
        assert_eq!(dispatch.get("local").and_then(Json::as_u64), Some(3));
        assert!(doc.get("replay").is_none(), "{body}");
        assert_eq!(doc.keys(), ["batch", "uptime_ms", "fleet"]);
        // Sections are inline one-liners under a one-member-per-line root.
        assert!(
            body.contains("\n  \"batch\": {\"dispatch\": {\"local\": 3}, "),
            "{body}"
        );
    }
}
