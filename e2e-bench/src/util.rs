//! Shared plumbing: the per-repetition result record, order statistics,
//! seeded permutations, digests, process memory and scratch directories.

use sigcomp_workloads::SmallRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What one repetition (one child process) measured and checked.
///
/// Metrics are named numbers; `failures` are correctness violations, each a
/// one-line message. `attempted`/`failed` count the workload's operations
/// (jobs for sweeps, requests for serving).
#[derive(Debug, Default)]
pub struct Rep {
    pub metrics: BTreeMap<String, f64>,
    /// Latency samples in milliseconds per load level, pooled across
    /// repetitions by the parent.
    pub latencies: BTreeMap<String, Vec<f64>>,
    /// Exact values compared across repetitions (output digests).
    pub labels: BTreeMap<String, String>,
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn label(&mut self, name: &str, value: String) {
        self.labels.insert(name.to_owned(), value);
    }

    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records the median and p99 of one load level's latencies.
    pub fn latency_quantiles(&mut self, load: &str, latencies_ms: &[f64]) {
        self.set(&format!("p50_ms.{load}"), quantile(latencies_ms, 0.5));
        self.set(&format!("p99_ms.{load}"), quantile(latencies_ms, 0.99));
    }

    /// The line protocol a child writes to its stdout for the parent.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ops {} {}", self.attempted, self.failed);
        for (name, value) in &self.metrics {
            // `{:?}` prints the shortest representation that round-trips.
            let _ = writeln!(out, "m {name} {value:?}");
        }
        for (load, samples) in &self.latencies {
            let _ = write!(out, "l {load}");
            for ms in samples {
                // Microsecond resolution keeps the line compact.
                let _ = write!(out, " {ms:.3}");
            }
            out.push('\n');
        }
        for (name, value) in &self.labels {
            let _ = writeln!(out, "s {name} {value}");
        }
        for failure in &self.failures {
            let _ = writeln!(out, "x {}", failure.replace('\n', " "));
        }
        out
    }

    /// Parses [`Rep::emit`] output; unknown lines are ignored so a child may
    /// also print diagnostics.
    pub fn parse(text: &str) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let mut saw_ops = false;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("ops ") {
                let mut parts = rest.split(' ').map(str::parse::<u64>);
                match (parts.next(), parts.next()) {
                    (Some(Ok(a)), Some(Ok(f))) => {
                        rep.attempted = a;
                        rep.failed = f;
                        saw_ops = true;
                    }
                    _ => return Err(format!("malformed ops line {line:?}")),
                }
            } else if let Some(rest) = line.strip_prefix("m ") {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed metric line {line:?}"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("malformed metric value in {line:?}"))?;
                rep.metrics.insert(name.to_owned(), value);
            } else if let Some(rest) = line.strip_prefix("l ") {
                let mut parts = rest.split(' ');
                let load = parts.next().unwrap_or_default().to_owned();
                let samples: Vec<f64> = parts
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("malformed latency line for {load}"))?;
                rep.latencies.entry(load).or_default().extend(samples);
            } else if let Some(rest) = line.strip_prefix("s ") {
                let (name, value) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed label line {line:?}"))?;
                rep.labels.insert(name.to_owned(), value.to_owned());
            } else if let Some(rest) = line.strip_prefix("x ") {
                rep.failures.push(rest.to_owned());
            }
        }
        if saw_ops {
            Ok(rep)
        } else {
            Err("the repetition printed no result".to_owned())
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// 64-bit FNV-1a digest, for comparing large outputs across processes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) of this process in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// A scratch directory under `target/e2e-bench/` in the working directory,
/// unique to this process and removed on drop.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let root = PathBuf::from("target/e2e-bench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", root.display()));
        Scratch { root }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_round_trips_through_the_line_protocol() {
        let mut rep = Rep {
            attempted: 7,
            failed: 1,
            ..Rep::default()
        };
        rep.set("cold_s", 1.234_567_891);
        rep.latencies
            .insert("hi".to_owned(), vec![0.25, f64::INFINITY]);
        rep.label("digest.csv", "00ff".to_owned());
        rep.check(false, || "csv\ndiffers".to_owned());
        let back = Rep::parse(&rep.emit()).unwrap();
        assert_eq!(back.attempted, 7);
        assert_eq!(back.failed, 1);
        assert_eq!(back.metrics["cold_s"], 1.234_567_891);
        assert_eq!(back.latencies["hi"], vec![0.25, f64::INFINITY]);
        assert_eq!(back.labels["digest.csv"], "00ff");
        assert_eq!(back.failures, vec!["csv differs".to_owned()]);
        assert!(Rep::parse("nothing here").is_err());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = permutation(231, 7);
        assert_eq!(a, permutation(231, 7));
        assert_ne!(a, permutation(231, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..231).collect::<Vec<_>>());
    }
}
