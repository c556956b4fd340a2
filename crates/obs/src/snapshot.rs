//! Point-in-time registry snapshots: plain data with a commutative merge
//! and a line-oriented wire form, so worker shards can ship their metrics
//! over the existing stdout protocol and the parent can fold them in any
//! order with identical results.

use crate::histogram::HistogramSnapshot;
use crate::json::{Layout, Writer};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Why a snapshot merge or wire parse was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Two histograms with the same name disagree on bucket bounds.
    BoundsMismatch {
        /// Histogram name.
        name: String,
        /// Underlying mismatch description.
        detail: String,
    },
    /// A wire line did not match the `counter|gauge|hist` grammar.
    Malformed {
        /// The offending line, verbatim.
        line: String,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BoundsMismatch { name, detail } => {
                write!(f, "histogram '{name}': {detail}")
            }
            SnapshotError::Malformed { line, reason } => {
                write!(f, "bad obs line '{line}': {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A frozen copy of a [`Registry`](crate::Registry): every counter, gauge,
/// and histogram by name, in deterministic (sorted) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Convenience: a counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters and histogram buckets sum,
    /// gauges take the maximum (a gauge from any shard is a sample of the
    /// same quantity, and max is the only commutative choice that never
    /// under-reports). Order-independent by construction.
    ///
    /// # Errors
    /// If a histogram name appears in both with different bucket bounds.
    pub fn merge(&mut self, other: &Snapshot) -> Result<(), SnapshotError> {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
                Some(mine) => {
                    mine.merge(hist)
                        .map_err(|detail| SnapshotError::BoundsMismatch {
                            name: name.clone(),
                            detail,
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Serializes to the line-oriented wire form:
    ///
    /// ```text
    /// counter NAME VALUE
    /// gauge NAME VALUE
    /// hist NAME count=N sum=S min=M max=X bounds=a,b,c buckets=w,x,y,z
    /// ```
    ///
    /// Names must not contain whitespace (enforced at registration).
    #[must_use]
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} min={} max={} bounds={} buckets={}",
                h.count,
                h.sum,
                h.min,
                h.max,
                join(&h.bounds),
                join(&h.buckets),
            );
        }
        out
    }

    /// Parses one wire line (as produced by [`Snapshot::to_wire`]) into the
    /// snapshot. Rejects anything that does not match the grammar — the
    /// worker protocol is strict by design.
    ///
    /// # Errors
    /// [`SnapshotError::Malformed`] with the offending line and reason.
    pub fn parse_wire_line(&mut self, line: &str) -> Result<(), SnapshotError> {
        let bad = |reason: &str| SnapshotError::Malformed {
            line: line.to_owned(),
            reason: reason.to_owned(),
        };
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or_else(|| bad("empty line"))?;
        let name = parts
            .next()
            .ok_or_else(|| bad("missing metric name"))?
            .to_owned();
        let mut parsed = Snapshot::default();
        match kind {
            "counter" | "gauge" => {
                let value: u64 = parts
                    .next()
                    .ok_or_else(|| bad("missing value"))?
                    .parse()
                    .map_err(|_| bad("value is not a u64"))?;
                if parts.next().is_some() {
                    return Err(bad("trailing tokens"));
                }
                let section = if kind == "counter" {
                    &mut parsed.counters
                } else {
                    &mut parsed.gauges
                };
                section.insert(name, value);
            }
            "hist" => {
                let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
                for tok in parts {
                    let (key, value) = tok
                        .split_once('=')
                        .ok_or_else(|| bad("token without '='"))?;
                    if fields.insert(key, value).is_some() {
                        return Err(bad("duplicate field"));
                    }
                }
                let scalar = |key: &str| -> Result<u64, SnapshotError> {
                    fields
                        .get(key)
                        .ok_or_else(|| bad(&format!("missing field '{key}'")))?
                        .parse()
                        .map_err(|_| bad(&format!("field '{key}' is not a u64")))
                };
                let list = |key: &str| -> Result<Vec<u64>, SnapshotError> {
                    fields
                        .get(key)
                        .ok_or_else(|| bad(&format!("missing field '{key}'")))?
                        .split(',')
                        .map(|v| {
                            v.parse()
                                .map_err(|_| bad(&format!("field '{key}' has a non-u64 entry")))
                        })
                        .collect()
                };
                let hist = HistogramSnapshot {
                    bounds: list("bounds")?,
                    buckets: list("buckets")?,
                    count: scalar("count")?,
                    sum: scalar("sum")?,
                    min: scalar("min")?,
                    max: scalar("max")?,
                };
                if hist.buckets.len() != hist.bounds.len() + 1 {
                    return Err(bad("bucket count must be bounds count + 1"));
                }
                if !hist.bounds.windows(2).all(|w| w[0] < w[1]) {
                    return Err(bad("bounds are not strictly increasing"));
                }
                parsed.histograms.insert(name, hist);
            }
            other => return Err(bad(&format!("unknown metric kind '{other}'"))),
        }
        self.merge(&parsed)
    }

    /// Parses a whole wire document (one line per metric).
    ///
    /// # Errors
    /// On the first malformed line.
    pub fn from_wire(text: &str) -> Result<Snapshot, SnapshotError> {
        let mut snap = Snapshot::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            snap.parse_wire_line(line)?;
        }
        Ok(snap)
    }

    /// Renders the snapshot as a JSON document (see
    /// [`Snapshot::write_json`]) ending in a newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut Writer::new(&mut out));
        out.push('\n');
        out
    }

    /// Writes the snapshot as one JSON value:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}`,
    /// one section per line and each histogram inline.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.object(Layout::Lines);
        for (section, values) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            w.key(section).object(Layout::Inline);
            for (name, value) in values {
                w.key(name).raw(value);
            }
            w.end();
        }
        w.key("histograms").object(Layout::Lines);
        for (name, hist) in &self.histograms {
            hist.write_json(w.key(name));
        }
        w.end().end();
    }
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn shard(counter: u64, observations: &[u64]) -> Snapshot {
        let r = Registry::new();
        r.counter("jobs").add(counter);
        r.gauge("workers").set(counter + 1);
        let h = r.histogram("lat", &[10, 100]);
        for &v in observations {
            h.observe(v);
        }
        r.snapshot()
    }

    #[test]
    fn wire_round_trips_exactly() {
        let snap = shard(3, &[5, 50, 500]);
        let parsed = Snapshot::from_wire(&snap.to_wire()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn merge_is_order_independent() {
        let shards = [shard(1, &[5]), shard(10, &[50, 50]), shard(7, &[500])];
        let orders: [[usize; 3]; 3] = [[0, 1, 2], [2, 1, 0], [1, 2, 0]];
        let mut merged: Vec<Snapshot> = Vec::new();
        for order in orders {
            let mut total = Snapshot::default();
            for i in order {
                total.merge(&shards[i]).unwrap();
            }
            merged.push(total);
        }
        assert_eq!(merged[0], merged[1]);
        assert_eq!(merged[0], merged[2]);
        assert_eq!(merged[0].counter("jobs"), 18);
        assert_eq!(merged[0].gauges["workers"], 11);
        let h = &merged[0].histograms["lat"];
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets, vec![1, 2, 1]);
    }

    #[test]
    fn malformed_wire_lines_are_rejected_with_reasons() {
        let mut s = Snapshot::default();
        for (line, needle) in [
            ("counter x", "missing value"),
            ("counter x 1 2", "trailing tokens"),
            ("gauge x nope", "not a u64"),
            ("widget x 1", "unknown metric kind"),
            (
                "hist h count=1 sum=1 min=1 max=1 bounds=10",
                "missing field 'buckets'",
            ),
            (
                "hist h count=1 sum=1 min=1 max=1 bounds=10 buckets=1",
                "bucket count",
            ),
            (
                "hist h count=1 sum=1 min=1 max=1 bounds=10,5 buckets=0,1,0",
                "strictly increasing",
            ),
        ] {
            let err = s.parse_wire_line(line).unwrap_err().to_string();
            assert!(err.contains(needle), "line '{line}': got '{err}'");
        }
    }

    #[test]
    fn merging_mismatched_bounds_fails() {
        let a = shard(1, &[5]);
        let r = Registry::new();
        r.histogram("lat", &[7]).observe(1);
        let mut total = a;
        let err = total.merge(&r.snapshot()).unwrap_err();
        assert!(err.to_string().contains("lat"));
    }
}
