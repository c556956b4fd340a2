//! The metric registry: named counters, gauges, and histograms behind
//! cheap cloneable handles, plus the optional JSONL structured-event sink
//! that spans write through.
//!
//! Handle lookup takes a short mutex on a `BTreeMap`; the handles
//! themselves are `Arc`-backed atomics, so hot paths fetch a handle once
//! and then record lock-free. A process-wide registry is available via
//! [`global()`](crate::global) — workers snapshot it onto their stdout
//! protocol, parents merge shard snapshots back into theirs.

use crate::histogram::Histogram;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::span::Span;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonic counter handle. Clones share the same underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins gauge handle. Clones share the same atomic.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher than the current one.
    pub fn set_max(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared state for the optional JSONL event sink. The `active` flag is the
/// span fast path: when no sink is attached, emitting an event is one
/// relaxed load.
pub(crate) struct SinkState {
    pub(crate) active: AtomicBool,
    writer: Mutex<Option<Box<dyn Write + Send>>>,
}

/// A registry of named metrics. Independent registries are fully isolated —
/// tests construct their own instead of asserting on [`global()`]
/// (`crate::global`), which other threads share.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    pub(crate) sink: Arc<SinkState>,
    pub(crate) epoch: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

/// The handle named `name` in `map`, created by `make` on first use.
fn handle<T: Clone>(map: &Mutex<BTreeMap<String, T>>, name: &str, make: impl FnOnce() -> T) -> T {
    assert!(
        !name.is_empty() && name.chars().all(|c| !c.is_whitespace()),
        "metric names must be non-empty and whitespace-free: {name:?}"
    );
    let mut map = map.lock().expect("obs registry map poisoned");
    if let Some(h) = map.get(name) {
        return h.clone();
    }
    let h = make();
    map.insert(name.to_owned(), h.clone());
    h
}

/// Every handle in `map`, read through `read`.
fn freeze<T, V>(map: &Mutex<BTreeMap<String, T>>, read: impl Fn(&T) -> V) -> BTreeMap<String, V> {
    let map = map.lock().expect("obs registry map poisoned");
    map.iter()
        .map(|(name, h)| (name.clone(), read(h)))
        .collect()
}

impl Registry {
    /// An empty registry with no event sink.
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            sink: Arc::new(SinkState {
                active: AtomicBool::new(false),
                writer: Mutex::new(None),
            }),
            epoch: Instant::now(),
        }
    }

    /// Returns (creating on first use) the counter with this name.
    ///
    /// # Panics
    /// On names containing whitespace — they would corrupt the wire form.
    pub fn counter(&self, name: &str) -> Counter {
        handle(&self.counters, name, Counter::default)
    }

    /// Returns (creating on first use) the gauge with this name.
    ///
    /// # Panics
    /// On names containing whitespace.
    pub fn gauge(&self, name: &str) -> Gauge {
        handle(&self.gauges, name, Gauge::default)
    }

    /// Returns (creating on first use) the histogram with this name.
    /// The first caller fixes the bucket bounds; later callers receive the
    /// existing histogram regardless of the bounds they pass.
    ///
    /// # Panics
    /// On names containing whitespace, or unusable bounds at creation.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        handle(&self.histograms, name, || Histogram::new(bounds))
    }

    /// Starts an RAII span timer that records its wall time (µs) into the
    /// histogram named `name` on drop, and emits a JSONL event if a sink is
    /// attached. Prefer the [`span!`](crate::span) macro, which targets the
    /// global registry and attaches fields.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        Span::new(
            name,
            self.histogram(name, crate::DEFAULT_SPAN_BOUNDS_US),
            Arc::clone(&self.sink),
            self.epoch,
        )
    }

    /// Freezes every metric into a [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: freeze(&self.counters, Counter::get),
            gauges: freeze(&self.gauges, Gauge::get),
            histograms: freeze(&self.histograms, Histogram::snapshot),
        }
    }

    /// Folds a shard snapshot into the live registry: counters add, gauges
    /// take the max, histogram buckets add. Histograms unknown to this
    /// registry are created with the snapshot's bounds.
    ///
    /// # Errors
    /// If a histogram exists here with different bounds.
    pub fn merge_snapshot(&self, snap: &Snapshot) -> Result<(), SnapshotError> {
        for (name, value) in &snap.counters {
            self.counter(name).add(*value);
        }
        for (name, value) in &snap.gauges {
            self.gauge(name).set_max(*value);
        }
        for (name, hist) in &snap.histograms {
            let live = self.histogram(name, &hist.bounds);
            live.absorb(hist)
                .map_err(|detail| SnapshotError::BoundsMismatch {
                    name: name.clone(),
                    detail,
                })?;
        }
        Ok(())
    }

    /// Attaches a JSONL event sink writing to `path` (created or
    /// truncated). The first line is a schema header; every span drop then
    /// appends one event object.
    ///
    /// # Errors
    /// If the file cannot be created.
    pub fn open_jsonl_log(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.set_jsonl_writer(Box::new(std::io::BufWriter::new(file)));
        Ok(())
    }

    /// Attaches an arbitrary JSONL sink (used by tests; [`Registry::
    /// open_jsonl_log`] is the file-backed convenience).
    pub fn set_jsonl_writer(&self, mut writer: Box<dyn Write + Send>) {
        let _ = writeln!(writer, "{{\"obs_log\": \"sigcomp-obs v1\"}}");
        let _ = writer.flush();
        *self.sink.writer.lock().expect("obs sink poisoned") = Some(writer);
        self.sink.active.store(true, Ordering::Release);
    }

    /// Writes one pre-rendered JSONL line to the sink, if attached.
    pub(crate) fn is_sink_active(sink: &SinkState) -> bool {
        sink.active.load(Ordering::Acquire)
    }

    pub(crate) fn log_line(sink: &SinkState, line: &str) {
        if let Some(writer) = sink.writer.lock().expect("obs sink poisoned").as_mut() {
            let _ = writeln!(writer, "{line}");
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_and_snapshots_see_them() {
        let r = Registry::new();
        let a = r.counter("jobs");
        let b = r.counter("jobs");
        a.incr();
        b.add(2);
        r.gauge("workers").set(4);
        r.gauge("workers").set_max(2); // lower: no effect
        let snap = r.snapshot();
        assert_eq!(snap.counter("jobs"), 3);
        assert_eq!(snap.gauges["workers"], 4);
    }

    #[test]
    fn merge_snapshot_folds_counters_gauges_histograms() {
        let parent = Registry::new();
        parent.counter("jobs").add(5);
        parent.histogram("lat", &[10]).observe(3);

        let shard = Registry::new();
        shard.counter("jobs").add(7);
        shard.gauge("workers").set(9);
        shard.histogram("lat", &[10]).observe(30);

        parent.merge_snapshot(&shard.snapshot()).unwrap();
        let snap = parent.snapshot();
        assert_eq!(snap.counter("jobs"), 12);
        assert_eq!(snap.gauges["workers"], 9);
        assert_eq!(snap.histograms["lat"].count, 2);

        // Bounds conflicts are surfaced, not silently dropped.
        let odd = Registry::new();
        odd.histogram("lat", &[99]).observe(1);
        assert!(parent.merge_snapshot(&odd.snapshot()).is_err());
    }

    #[test]
    #[should_panic(expected = "whitespace-free")]
    fn names_with_whitespace_are_rejected() {
        let _ = Registry::new().counter("bad name");
    }
}
