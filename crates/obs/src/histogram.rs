//! Fixed-bucket histograms with mergeable snapshots and interpolated
//! quantiles.
//!
//! Buckets are defined by a strictly increasing slice of exclusive upper
//! bounds (a value lands in the first bucket whose bound it is *below*),
//! plus an implicit overflow bucket. Observation is a handful of relaxed
//! atomic adds — safe to share across threads and cheap enough for hot
//! loops. Snapshots carry the bounds with them so shard snapshots can be
//! merged and re-quantiled without access to the live histogram.

use crate::json::{Layout, Writer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default bucket bounds (exclusive, microseconds) for span/latency
/// histograms: five sub-millisecond buckets, then roughly half-decade steps
/// out to ten seconds.
pub const DEFAULT_SPAN_BOUNDS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 10_000_000,
];

struct HistogramInner {
    bounds: Vec<u64>,
    /// One slot per bound plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A shareable fixed-bucket histogram. Cloning is cheap (`Arc` inside) and
/// all clones observe into the same storage.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.inner.bounds)
            .field("count", &self.inner.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Histogram {
    /// Creates a histogram from exclusive upper bounds.
    ///
    /// # Panics
    /// If `bounds` is empty or not strictly increasing — bounds are
    /// compile-time constants in practice, so this is a programming error,
    /// not an input error.
    #[must_use]
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// The exclusive upper bounds this histogram was built with.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.inner.bounds
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let i = bucket_index(&self.inner.bounds, value);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a clamped sum skews the mean, a wrapped
        // one fabricates it.
        let _ = self
            .inner
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(value))
            });
        self.inner.min.fetch_min(value, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Captures the current state. Relaxed loads: concurrent observers may
    /// be mid-flight, which shifts a statistic by an observation, never
    /// corrupts it.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            buckets: self.inner.buckets.iter().map(load).collect(),
            count: load(&self.inner.count),
            sum: load(&self.inner.sum),
            min: load(&self.inner.min),
            max: load(&self.inner.max),
        }
    }

    /// Folds a snapshot (e.g. from a worker shard) into the live histogram.
    ///
    /// # Errors
    /// If the snapshot's bounds differ from this histogram's.
    pub fn absorb(&self, snap: &HistogramSnapshot) -> Result<(), String> {
        if snap.bounds != self.inner.bounds {
            return Err(format!(
                "histogram bounds mismatch: have {:?}, snapshot has {:?}",
                self.inner.bounds, snap.bounds
            ));
        }
        for (slot, &n) in self.inner.buckets.iter().zip(&snap.buckets) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        let _ = self
            .inner
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(snap.sum))
            });
        if snap.count > 0 {
            self.inner.min.fetch_min(snap.min, Ordering::Relaxed);
            self.inner.max.fetch_max(snap.max, Ordering::Relaxed);
        }
        Ok(())
    }
}

fn bucket_index(bounds: &[u64], value: u64) -> usize {
    bounds
        .iter()
        .position(|&bound| value < bound)
        .unwrap_or(bounds.len())
}

/// A point-in-time copy of a [`Histogram`]: plain data, safe to serialize,
/// merge, and quantile offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Exclusive upper bounds, copied from the source histogram.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the last
    /// being the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the given bounds.
    #[must_use]
    pub fn empty(bounds: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Merges another snapshot into this one. Commutative and associative
    /// (sums, mins, and maxes), so shard snapshots can fold in any order
    /// and produce identical totals and quantiles.
    ///
    /// # Errors
    /// If the bucket bounds differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bounds mismatch: {:?} vs {:?}",
                self.bounds, other.bounds
            ));
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        Ok(())
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket holding the target rank, clamped to the observed
    /// `[min, max]`. Returns 0.0 for an empty histogram. Deterministic: a
    /// pure function of the snapshot, so merge order cannot change it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // Overflow bucket: use the observed max as its ceiling.
                    self.max.max(self.bounds[self.bounds.len() - 1])
                };
                #[allow(clippy::cast_precision_loss)]
                let value =
                    lo as f64 + (hi.saturating_sub(lo)) as f64 * ((rank - seen) as f64 / n as f64);
                #[allow(clippy::cast_precision_loss)]
                return value.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.max as f64
        }
    }

    /// Human/JSON label for bucket `i`: `le_<bound>` scaled to `us`, `ms`,
    /// or `s`; the overflow bucket is `gt_<last bound>`.
    #[must_use]
    pub fn bucket_label(&self, i: usize) -> String {
        bucket_label(&self.bounds, i)
    }

    /// Writes the snapshot as one inline JSON object: count, sum, min/max,
    /// p50/p95/p99, and one field per labelled bucket.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.object(Layout::Inline);
        w.key("count").raw(self.count).key("sum").raw(self.sum);
        let min = if self.count == 0 { 0 } else { self.min };
        w.key("min").raw(min).key("max").raw(self.max);
        for (q, label) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            w.key(label).float(self.quantile(q), 1);
        }
        for (i, n) in self.buckets.iter().enumerate() {
            w.key(&self.bucket_label(i)).raw(n);
        }
        w.end();
    }
}

/// Label for bucket `i` of a histogram with the given bounds (see
/// [`HistogramSnapshot::bucket_label`]).
#[must_use]
pub fn bucket_label(bounds: &[u64], i: usize) -> String {
    if i < bounds.len() {
        format!("le_{}", scale(bounds[i]))
    } else {
        format!("gt_{}", scale(bounds[bounds.len() - 1]))
    }
}

fn scale(us: u64) -> String {
    if us >= 1_000_000 && us.is_multiple_of(1_000_000) {
        format!("{}s", us / 1_000_000)
    } else if us >= 1_000 && us.is_multiple_of(1_000) {
        format!("{}ms", us / 1_000)
    } else {
        format!("{us}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_upper_exclusive() {
        let h = Histogram::new(&[10, 100]);
        h.observe(9); // < 10
        h.observe(10); // < 100
        h.observe(99); // < 100
        h.observe(100); // overflow
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![1, 2, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 9);
        assert_eq!(s.max, 100);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_bounds_panic() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn labels_scale_units() {
        let s = HistogramSnapshot::empty(&[50, 1_000, 2_500, 1_000_000]);
        assert_eq!(s.bucket_label(0), "le_50us");
        assert_eq!(s.bucket_label(1), "le_1ms");
        assert_eq!(s.bucket_label(2), "le_2500us");
        assert_eq!(s.bucket_label(3), "le_1s");
        assert_eq!(s.bucket_label(4), "gt_1s");
    }

    #[test]
    fn quantiles_interpolate_and_clamp() {
        let h = Histogram::new(&[100, 200, 400]);
        for v in [50, 150, 150, 350] {
            h.observe(v);
        }
        let s = h.snapshot();
        // p50 rank = 2 of 4 → second obs, in the [100, 200) bucket.
        let p50 = s.quantile(0.50);
        assert!((100.0..200.0).contains(&p50), "p50 = {p50}");
        // p99 rank = 4 → [200, 400) bucket, clamped to max 350.
        let p99 = s.quantile(0.99);
        assert!((200.0..=350.0).contains(&p99), "p99 = {p99}");
        assert_eq!(HistogramSnapshot::empty(&[10]).quantile(0.5), 0.0);
    }

    #[test]
    fn merge_rejects_bound_mismatch_and_sums_otherwise() {
        let a = Histogram::new(&[10, 100]);
        a.observe(5);
        let b = Histogram::new(&[10, 100]);
        b.observe(50);
        b.observe(500);
        let mut m = a.snapshot();
        m.merge(&b.snapshot()).unwrap();
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 555);
        assert_eq!(m.min, 5);
        assert_eq!(m.max, 500);
        assert_eq!(m.buckets, vec![1, 1, 1]);

        let odd = HistogramSnapshot::empty(&[7]);
        assert!(m.merge(&odd).is_err());
    }

    #[test]
    fn absorb_matches_snapshot_merge() {
        let live = Histogram::new(&[10, 100]);
        live.observe(3);
        let shard = Histogram::new(&[10, 100]);
        shard.observe(42);
        shard.observe(4_000);
        live.absorb(&shard.snapshot()).unwrap();
        let s = live.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 3);
        assert_eq!(s.max, 4_000);
        assert!(live.absorb(&HistogramSnapshot::empty(&[9])).is_err());
    }
}
