//! The on-disk result cache.
//!
//! Each cache entry is one file named after the job's content hash
//! ([`crate::JobSpec::job_id`]) holding the job's integer counters in a
//! versioned `key=value` text format. Because the job hash covers every
//! parameter that influences the result (plus
//! [`crate::spec::SWEEP_FORMAT_VERSION`]), a hit can be substituted for a
//! simulation without changing a single output bit. Unreadable or
//! version-mismatched entries are treated as misses and overwritten.

use crate::sweep::JobMetrics;
use sigcomp::{ActivityReport, StageActivity};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// v2: entries carry the gated-byte-cycle counters the leakage-aware energy
// model reads. Bumping the header (not the job hash) retires v1 entries as
// clean misses while keeping every cache *key* stable — the simulation
// semantics, and hence the job identities, did not change.
const HEADER: &str = "sigcomp-explore v2";

/// A directory of cached job results, keyed by content hash.
///
/// The handle is just the directory path, so clones are cheap and any number
/// of handles — across threads *and* processes (a running server plus a CLI
/// sweep, say) — may share one directory: [`ResultCache::store`] publishes
/// entries atomically and [`ResultCache::load`] treats anything unreadable
/// as a miss.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    /// The cache directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.root.join(format!("{key:016x}.job"))
    }

    /// Loads the metrics cached under `key`, or `None` on a miss (including
    /// corrupt or version-mismatched entries).
    ///
    /// Every outcome bumps one of the global `explore.cache.{hit,miss,
    /// retired}` counters (see [`cache_stats`]): `retired` means a file was
    /// present but unreadable or from another format version — it will be
    /// re-simulated and overwritten.
    #[must_use]
    pub fn load(&self, key: u64) -> Option<JobMetrics> {
        let obs = sigcomp_obs::global();
        let Ok(text) = fs::read_to_string(self.entry_path(key)) else {
            obs.counter("explore.cache.miss").incr();
            return None;
        };
        if let Some(m) = parse_metrics(&text) {
            obs.counter("explore.cache.hit").incr();
            Some(m)
        } else {
            obs.counter("explore.cache.retired").incr();
            None
        }
    }

    /// [`ResultCache::load`] without the counter bumps. Used by the shared
    /// merge ([`crate::ShardPlan::merge`]) when re-reading entries the
    /// workers just published — those reads are bookkeeping, not cache
    /// traffic, and counting them would make a sharded sweep's merged totals
    /// disagree with the same sweep run in-process.
    #[must_use]
    pub fn load_unobserved(&self, key: u64) -> Option<JobMetrics> {
        let text = fs::read_to_string(self.entry_path(key)).ok()?;
        parse_metrics(&text)
    }

    /// Stores `metrics` under `key`, atomically (write-to-temp + rename), so
    /// concurrent workers and interrupted runs never leave a torn entry.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers may treat a failed store as
    /// merely "not cached".
    pub fn store(&self, key: u64, metrics: &JobMetrics) -> io::Result<()> {
        let result = self.store_entry_text(key, &format_metrics(metrics));
        if result.is_ok() {
            sigcomp_obs::global().counter("explore.cache.store").incr();
        }
        result
    }

    /// Stores an already-encoded entry ([`encode_entry`] text) under `key`,
    /// atomically, without bumping any traffic counter — the replication
    /// path the shared merge ([`crate::ShardPlan::merge`]) uses to publish
    /// entries received from workers (the worker's own counters already
    /// accounted for the store; see [`ResultCache::load_unobserved`] for the
    /// symmetric read side).
    ///
    /// The text is validated first: replicating an undecodable entry would
    /// poison the cache with a file every later load retires.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] if `text` does not decode as a
    /// current-version entry; otherwise the underlying I/O error.
    pub fn store_entry_text(&self, key: u64, text: &str) -> io::Result<()> {
        if parse_metrics(text).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("entry text for {key:016x} is not a valid {HEADER} entry"),
            ));
        }
        // Process id + per-process counter: two threads (or processes)
        // storing the same key never share a temp file.
        static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.root.join(format!(
            ".{key:016x}.{:x}.{unique:x}.tmp",
            std::process::id()
        ));
        fs::write(&tmp, text)?;
        let result = fs::rename(&tmp, self.entry_path(key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Number of entries currently stored.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be read.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "job") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the cache holds no entries.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be read.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

fn format_metrics(m: &JobMetrics) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(HEADER);
    out.push('\n');
    let mut kv = |key: &str, value: u64| {
        out.push_str(key);
        out.push('=');
        out.push_str(&value.to_string());
        out.push('\n');
    };
    kv("instructions", m.instructions);
    kv("cycles", m.cycles);
    kv("branches", m.branches);
    kv("stall_structural", m.stall_structural);
    kv("stall_data_hazard", m.stall_data_hazard);
    kv("stall_control", m.stall_control);
    for (name, stage) in m.activity.columns() {
        for (suffix, bits) in [
            ("compressed", stage.compressed_bits),
            ("baseline", stage.baseline_bits),
            ("gated", stage.gated_byte_cycles),
            ("total_lanes", stage.total_byte_cycles),
        ] {
            kv(&format!("{}.{suffix}", slug(name)), bits);
        }
    }
    out
}

fn parse_metrics(text: &str) -> Option<JobMetrics> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let mut get = |key: &str| -> Option<u64> {
        let line = lines.next()?;
        let (k, v) = line.split_once('=')?;
        if k != key {
            return None;
        }
        v.parse().ok()
    };
    let mut m = JobMetrics {
        instructions: get("instructions")?,
        cycles: get("cycles")?,
        branches: get("branches")?,
        stall_structural: get("stall_structural")?,
        stall_data_hazard: get("stall_data_hazard")?,
        stall_control: get("stall_control")?,
        activity: ActivityReport::default(),
    };
    let names: Vec<String> = m
        .activity
        .columns()
        .iter()
        .map(|(name, _)| slug(name))
        .collect();
    let mut stages = Vec::with_capacity(names.len());
    for name in &names {
        let compressed = get(&format!("{name}.compressed"))?;
        let baseline = get(&format!("{name}.baseline"))?;
        let gated = get(&format!("{name}.gated"))?;
        let total = get(&format!("{name}.total_lanes"))?;
        if gated > total {
            return None;
        }
        stages.push(StageActivity::with_gating(
            compressed, baseline, gated, total,
        ));
    }
    [
        &mut m.activity.fetch,
        &mut m.activity.rf_read,
        &mut m.activity.rf_write,
        &mut m.activity.alu,
        &mut m.activity.dcache_data,
        &mut m.activity.dcache_tag,
        &mut m.activity.pc_increment,
        &mut m.activity.latches,
    ]
    .into_iter()
    .zip(stages)
    .for_each(|(slot, stage)| *slot = stage);
    Some(m)
}

/// Encodes metrics as cache-entry text — the exact bytes
/// [`ResultCache::store`] writes to disk. Fleet workers use this to answer
/// a dispatch from in-memory results without needing a cache directory of
/// their own; the frontier replicates the text into its cache verbatim.
#[must_use]
pub fn encode_entry(metrics: &JobMetrics) -> String {
    format_metrics(metrics)
}

/// Decodes cache-entry text back into metrics, or `None` for anything
/// corrupt or from another format version (the inverse of
/// [`encode_entry`], same strictness as [`ResultCache::load`]).
#[must_use]
pub fn decode_entry(text: &str) -> Option<JobMetrics> {
    parse_metrics(text)
}

/// FNV-1a digest of an entry's text, the checksum the fleet protocol
/// carries beside every replicated entry so a frontier can verify the
/// bytes survived the wire before publishing them into its cache.
#[must_use]
pub fn entry_digest(text: &str) -> u64 {
    let mut h = sigcomp::hash::StableHasher::new();
    h.write_str(text);
    h.finish()
}

/// Normalizes an activity column name into the stable `[a-z0-9_]` key used
/// by cache entries — and, so the two formats can never diverge, by the
/// `sigcomp-serve` JSON responses.
#[must_use]
pub fn column_slug(name: &str) -> String {
    name.to_lowercase().replace([' ', '-'], "_")
}

use column_slug as slug;

/// Process-wide [`ResultCache`] traffic counters, sampled from the global
/// observability registry. In a sharded sweep the parent's numbers include
/// every worker's, folded in over the stdout protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads that decoded a current-version entry.
    pub hits: u64,
    /// Loads that found no entry file.
    pub misses: u64,
    /// Loads that found an unreadable or version-mismatched entry (it gets
    /// re-simulated and overwritten).
    pub retired: u64,
    /// Entries successfully published.
    pub stores: u64,
}

/// Samples the global `explore.cache.*` counters.
#[must_use]
pub fn cache_stats() -> CacheStats {
    let snap = sigcomp_obs::global().snapshot();
    CacheStats {
        hits: snap.counter("explore.cache.hit"),
        misses: snap.counter("explore.cache.miss"),
        retired: snap.counter("explore.cache.retired"),
        stores: snap.counter("explore.cache.store"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> JobMetrics {
        let activity = ActivityReport {
            fetch: StageActivity::new(123, 456),
            rf_read: StageActivity::with_gating(7, 11, 5, 16),
            latches: StageActivity::new(99, 100),
            ..ActivityReport::default()
        };
        JobMetrics {
            instructions: 1_000_000,
            cycles: 1_790_000,
            branches: 120_000,
            stall_structural: 400_000,
            stall_data_hazard: 50_000,
            stall_control: 340_000,
            activity,
        }
    }

    fn temp_cache(tag: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("sigcomp-explore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).expect("cache opens")
    }

    #[test]
    fn round_trips_exactly() {
        let cache = temp_cache("roundtrip");
        let metrics = sample_metrics();
        assert!(cache.load(42).is_none());
        cache.store(42, &metrics).expect("store succeeds");
        assert_eq!(cache.load(42), Some(metrics));
        assert_eq!(cache.len().unwrap(), 1);
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        cache.store(7, &sample_metrics()).expect("store succeeds");
        fs::write(cache.root().join("0000000000000007.job"), "garbage").unwrap();
        assert!(cache.load(7).is_none());
        fs::write(
            cache.root().join("0000000000000007.job"),
            "sigcomp-explore v0\ninstructions=1\n",
        )
        .unwrap();
        assert!(cache.load(7).is_none(), "other versions must not load");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn concurrent_stores_and_loads_never_tear() {
        // A server batch and a CLI sweep sharing one cache directory must
        // never observe a half-written entry: every load is either a clean
        // miss or a bit-exact round trip of some store.
        let cache = temp_cache("concurrent");
        let distinct: Vec<JobMetrics> = (0u64..4)
            .map(|i| JobMetrics {
                instructions: 1_000 + i,
                cycles: 2_000 + i,
                ..sample_metrics()
            })
            .collect();
        std::thread::scope(|scope| {
            for metrics in &distinct {
                let cache = cache.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        cache.store(99, metrics).expect("store succeeds");
                    }
                });
            }
            for _ in 0..2 {
                let cache = cache.clone();
                let distinct = &distinct;
                scope.spawn(move || {
                    let mut hits = 0;
                    for _ in 0..200 {
                        if let Some(loaded) = cache.load(99) {
                            assert!(
                                distinct.contains(&loaded),
                                "torn entry observed: {loaded:?}"
                            );
                            hits += 1;
                        }
                    }
                    hits
                });
            }
        });
        // The winning store must be intact and no temp files may leak.
        assert!(distinct.contains(&cache.load(99).expect("entry exists")));
        assert_eq!(cache.len().unwrap(), 1);
        let leftovers = fs::read_dir(cache.root())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .count();
        assert_eq!(leftovers, 0, "temp files must not leak");
        let _ = fs::remove_dir_all(cache.root());
    }

    #[test]
    fn text_format_is_stable() {
        let text = format_metrics(&sample_metrics());
        assert!(text.starts_with("sigcomp-explore v2\ninstructions=1000000\n"));
        assert!(text.contains("fetch.compressed=123"));
        assert!(text.contains("d_cache_data.compressed=0"));
        assert!(text.contains("rf_read.gated=5"));
        assert!(text.contains("rf_read.total_lanes=16"));
        assert_eq!(parse_metrics(&text), Some(sample_metrics()));
    }

    #[test]
    fn v1_entries_without_gating_counters_read_as_misses() {
        // A pre-leakage cache directory must be re-simulated, never
        // mis-decoded: the v1 header no longer matches.
        let cache = temp_cache("v1-migration");
        let mut v1 = String::from("sigcomp-explore v1\n");
        for (key, value) in [
            ("instructions", 10u64),
            ("cycles", 17),
            ("branches", 1),
            ("stall_structural", 0),
            ("stall_data_hazard", 0),
            ("stall_control", 0),
        ] {
            v1.push_str(&format!("{key}={value}\n"));
        }
        for (name, _) in ActivityReport::default().columns() {
            v1.push_str(&format!("{}.compressed=1\n{0}.baseline=2\n", slug(name)));
        }
        fs::write(cache.root().join("000000000000002a.job"), v1).unwrap();
        assert!(cache.load(42).is_none(), "v1 entries must not decode");
        // Corrupt gating (gated > total) is also a miss.
        let mut text = format_metrics(&sample_metrics());
        text = text.replace("rf_read.gated=5", "rf_read.gated=99");
        fs::write(cache.root().join("000000000000002a.job"), text).unwrap();
        assert!(cache.load(42).is_none());
        let _ = fs::remove_dir_all(cache.root());
    }
}
