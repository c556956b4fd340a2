//! The golden trace corpus: deterministic `.sctrace` captures of seeded
//! kernels plus their expected replay metrics, checked into `tests/data/`.
//!
//! The corpus pins the trace format and the replay pipeline end to end:
//!
//! * the `.sctrace` bytes pin the encoder (recording a corpus workload must
//!   reproduce the checked-in file bit for bit),
//! * the `.expected.json` files pin the decoder *and* every model behind it
//!   (replaying the checked-in file must reproduce the checked-in analyzer
//!   and timing numbers exactly, for every extension scheme and
//!   organization).
//!
//! `repro trace golden <dir>` regenerates both; CI fails if regeneration
//! changes anything, so any drift in format or model semantics must arrive
//! with refreshed goldens and a bumped format/sweep version.

use sigcomp::ExtScheme;
use sigcomp_explore::{column_slug, simulate_trace, JobSpec, MemProfile, TraceInput, TraceSource};
use sigcomp_isa::tracefile::{self, TraceWriter};
use sigcomp_isa::Trace;
use sigcomp_obs::json::{Layout, Writer};
use sigcomp_pipeline::OrgKind;
use sigcomp_workloads::{find, WorkloadSize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The corpus members: small, branchy, memory-heavy and arithmetic-heavy
/// kernels, recorded at [`WorkloadSize::Tiny`] so the checked-in files stay
/// a few tens of kilobytes each.
pub const GOLDEN_WORKLOADS: &[&str] = &["rawcaudio", "rawdaudio", "gsmencode", "pgp"];

/// The size every corpus trace is recorded at.
pub const GOLDEN_SIZE: WorkloadSize = WorkloadSize::Tiny;

/// Path of a corpus trace file.
#[must_use]
pub fn trace_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.sctrace"))
}

/// Path of a corpus expectation file.
#[must_use]
pub fn expected_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.expected.json"))
}

/// Records one corpus workload: the deterministic tiny-size execution of the
/// named seeded kernel.
///
/// # Errors
///
/// Names the workload if it does not exist or its kernel fails to run.
pub fn record_golden(workload: &str) -> Result<Trace, String> {
    let benchmark =
        find(workload, GOLDEN_SIZE).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    benchmark
        .trace()
        .map_err(|e| format!("kernel {workload} failed: {e}"))
}

/// Serializes a corpus trace to `.sctrace` bytes (stable header metadata, so
/// regeneration is byte-reproducible).
///
/// # Errors
///
/// Propagates trace-encoding failures as a message.
pub fn golden_bytes(workload: &str, trace: &Trace) -> Result<Vec<u8>, String> {
    let mut writer = TraceWriter::new();
    writer.set_meta("source", workload);
    writer.set_meta("size", GOLDEN_SIZE.name());
    for rec in trace {
        writer
            .push(rec)
            .map_err(|e| format!("encoding {workload}: {e}"))?;
    }
    let mut bytes = Vec::new();
    writer
        .finish(&mut bytes)
        .map_err(|e| format!("encoding {workload}: {e}"))?;
    Ok(bytes)
}

/// The expected replay metrics of a trace, as deterministic JSON: for every
/// extension scheme, the per-stage activity report and the timing counters
/// of every pipeline organization (all integers — no rounding ambiguity).
///
/// # Errors
///
/// Propagates trace-digest failures as a message.
pub fn expected_json(name: &'static str, trace: &Trace) -> Result<String, String> {
    let digest = tracefile::payload_digest(trace).map_err(|e| format!("digesting {name}: {e}"))?;
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object(Layout::Lines);
    w.key("trace").str(name).key("records").raw(trace.len());
    w.key("digest").raw(format_args!("\"{digest:016x}\""));
    w.key("schemes").object(Layout::Lines);
    for &scheme in ExtScheme::ALL {
        let metrics: Vec<(JobSpec, _)> = OrgKind::ALL
            .iter()
            .map(|&org| {
                let spec = JobSpec {
                    scheme,
                    org,
                    workload: name,
                    size: GOLDEN_SIZE,
                    mem: MemProfile::Paper,
                    source: TraceSource::File { digest },
                };
                (spec, simulate_trace(&spec, trace))
            })
            .collect();
        w.key(scheme.id()).object(Layout::Lines);
        // The activity study depends on the scheme, not the organization;
        // record it once per scheme.
        w.key("activity").object(Layout::Lines);
        for (column, stage) in metrics[0].1.activity.columns() {
            w.key(&column_slug(column)).object(Layout::Inline);
            w.key("compressed").raw(stage.compressed_bits);
            w.key("baseline").raw(stage.baseline_bits);
            w.end();
        }
        w.end();
        w.key("orgs").object(Layout::Lines);
        for (spec, m) in &metrics {
            w.key(spec.org.id()).object(Layout::Inline);
            w.key("job_id")
                .raw(format_args!("\"{:016x}\"", spec.job_id()));
            w.key("instructions").raw(m.instructions);
            w.key("cycles").raw(m.cycles);
            w.key("branches").raw(m.branches);
            w.key("stall_structural").raw(m.stall_structural);
            w.key("stall_data_hazard").raw(m.stall_data_hazard);
            w.key("stall_control").raw(m.stall_control);
            w.end();
        }
        w.end().end();
    }
    w.end().end();
    out.push('\n');
    Ok(out)
}

/// Regenerates the whole corpus into `dir` (creating it if needed) and
/// returns the paths written.
///
/// # Errors
///
/// Any recording, encoding or I/O failure, as a printable message.
pub fn write_corpus(dir: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for &workload in GOLDEN_WORKLOADS {
        let trace = record_golden(workload)?;
        let bytes = golden_bytes(workload, &trace)?;
        let path = trace_path(dir, workload);
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path);
        let expected = expected_json(workload, &trace)?;
        let path = expected_path(dir, workload);
        std::fs::write(&path, expected)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

/// Compares two texts line by line; `None` when identical, otherwise a
/// readable report of the first few differences (with line numbers and both
/// sides), so golden-test failures diagnose themselves.
#[must_use]
pub fn diff_report(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let mut report = String::new();
    let mut shown = 0;
    let expected_lines: Vec<&str> = expected.lines().collect();
    let actual_lines: Vec<&str> = actual.lines().collect();
    let common = expected_lines.len().min(actual_lines.len());
    for i in 0..common {
        if expected_lines[i] != actual_lines[i] {
            let _ = writeln!(report, "line {}:", i + 1);
            let _ = writeln!(report, "  expected: {}", expected_lines[i]);
            let _ = writeln!(report, "  actual:   {}", actual_lines[i]);
            shown += 1;
            if shown == 5 {
                let _ = writeln!(report, "  … (further differences elided)");
                break;
            }
        }
    }
    if expected_lines.len() != actual_lines.len() {
        let _ = writeln!(
            report,
            "line counts differ: expected {}, actual {}",
            expected_lines.len(),
            actual_lines.len()
        );
    }
    if report.is_empty() {
        // Same lines but different bytes (e.g. trailing newline).
        let _ = writeln!(
            report,
            "texts differ only in line endings: expected {} bytes, actual {} bytes",
            expected.len(),
            actual.len()
        );
    }
    Some(report)
}

/// Loads one checked-in corpus trace as a sweep input.
///
/// # Errors
///
/// Any trace-file violation, as a printable message.
pub fn load_corpus_trace(dir: &Path, workload: &str) -> Result<TraceInput, String> {
    let path = trace_path(dir, workload);
    TraceInput::load(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation_is_deterministic() {
        let trace = record_golden(GOLDEN_WORKLOADS[0]).unwrap();
        let again = record_golden(GOLDEN_WORKLOADS[0]).unwrap();
        assert_eq!(trace.records(), again.records());
        assert_eq!(
            golden_bytes(GOLDEN_WORKLOADS[0], &trace).unwrap(),
            golden_bytes(GOLDEN_WORKLOADS[0], &again).unwrap()
        );
    }

    #[test]
    fn expected_json_is_complete_and_deterministic() {
        let trace = record_golden("rawcaudio").unwrap();
        let json = expected_json("rawcaudio", &trace).unwrap();
        assert_eq!(json, expected_json("rawcaudio", &trace).unwrap());
        for &scheme in ExtScheme::ALL {
            assert!(json.contains(&format!("\"{}\"", scheme.id())));
        }
        for &org in OrgKind::ALL {
            assert!(json.contains(&format!("\"{}\"", org.id())));
        }
        assert!(json.contains("\"fetch\""));
    }

    #[test]
    fn diff_report_pinpoints_the_first_divergence() {
        assert!(diff_report("a\nb\n", "a\nb\n").is_none());
        let report = diff_report("a\nb\nc\n", "a\nX\nc\n").unwrap();
        assert!(report.contains("line 2"), "{report}");
        assert!(report.contains("expected: b"), "{report}");
        assert!(report.contains("actual:   X"), "{report}");
    }
}
