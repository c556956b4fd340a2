//! # sigcomp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper. The library part holds the study runners and table formatters; the
//! `repro` binary drives them from the command line, and `repro bench`
//! ([`perf`]) times the phases a sweep runs.
//!
//! | paper artefact | function | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (byte-pattern frequencies) | [`table1`] | `table1` |
//! | Table 2 (PC update activity/latency) | [`table2`] | `table2` |
//! | Table 3 (function-code frequencies) | [`table3`] | `table3` |
//! | Table 4 (ALU case-3 exceptions) | [`table4`] | `table4` |
//! | Table 5 (byte-granularity activity savings) | [`activity_table`] | `table5` |
//! | Table 6 (halfword-granularity activity savings) | [`activity_table`] | `table6` |
//! | Fig. 4 (byte-/halfword-serial CPI) | [`figure`] | `fig4` |
//! | Fig. 6 (semi-parallel CPI) | [`figure`] | `fig6` |
//! | Fig. 8 (skewed CPI) | [`figure`] | `fig8` |
//! | Fig. 10 (compressed & skewed+bypass CPI) | [`figure`] | `fig10` |
//! | §5 bottleneck study | [`bottleneck`] | `bottleneck` |
//! | design-space sweep + Pareto frontier | `sigcomp_explore::try_run_sweep` | `sweep` |

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod golden;
pub mod perf;

use sigcomp::analyzer::{AnalyzerConfig, TraceAnalyzer};
use sigcomp::{ActivityReport, ExtScheme, SigStats};
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim, SimResult};
use sigcomp_workloads::{suite, Benchmark, WorkloadSize};
use std::fmt::Write as _;

/// Per-benchmark results of the trace-driven activity study (§2.9).
#[derive(Debug, Clone)]
pub struct ActivityRow {
    /// Benchmark name.
    pub name: String,
    /// Per-stage activity under significance compression vs the baseline.
    pub report: ActivityReport,
    /// Average fetched bytes per instruction (§2.3; ≈ 3.17 in the paper).
    pub mean_fetch_bytes: f64,
    /// Trace statistics (pattern/funct tables).
    pub stats: SigStats,
}

/// Per-benchmark CPI results across a set of pipeline organizations.
#[derive(Debug, Clone)]
pub struct CpiRow {
    /// Benchmark name.
    pub name: String,
    /// One simulation result per requested organization, in request order.
    pub results: Vec<SimResult>,
}

/// Runs the activity study (Tables 1, 3, 5, 6) over the whole kernel suite.
///
/// # Panics
///
/// Panics if a kernel fails to execute — that indicates a bug in the
/// workloads crate, not a runtime condition.
#[must_use]
pub fn activity_study(size: WorkloadSize, config: &AnalyzerConfig) -> Vec<ActivityRow> {
    suite(size)
        .iter()
        .map(|b| activity_for(b, config))
        .collect()
}

/// Runs the activity study for a single benchmark.
///
/// # Panics
///
/// Panics if the kernel fails to execute.
#[must_use]
pub fn activity_for(benchmark: &Benchmark, config: &AnalyzerConfig) -> ActivityRow {
    let mut analyzer = TraceAnalyzer::new(config.clone());
    benchmark
        .run_each(|rec| analyzer.observe(rec))
        .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name()));
    ActivityRow {
        name: benchmark.name().to_owned(),
        report: analyzer.report(),
        mean_fetch_bytes: analyzer.mean_fetch_bytes(),
        stats: analyzer.stats().clone(),
    }
}

/// Runs the CPI study (Figures 4, 6, 8, 10) for the given organizations over
/// the whole kernel suite.
///
/// # Panics
///
/// Panics if a kernel fails to execute.
#[must_use]
pub fn cpi_study(size: WorkloadSize, kinds: &[OrgKind]) -> Vec<CpiRow> {
    suite(size).iter().map(|b| cpi_for(b, kinds)).collect()
}

/// Runs the CPI study for a single benchmark.
///
/// # Panics
///
/// Panics if the kernel fails to execute.
#[must_use]
pub fn cpi_for(benchmark: &Benchmark, kinds: &[OrgKind]) -> CpiRow {
    let results = kinds
        .iter()
        .map(|&kind| {
            let mut sim = PipelineSim::new(Organization::new(kind));
            benchmark
                .run_each(|rec| sim.observe(rec))
                .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name()));
            sim.finish()
        })
        .collect();
    CpiRow {
        name: benchmark.name().to_owned(),
        results,
    }
}

/// Merges the per-benchmark statistics of an activity study into a single
/// suite-wide [`SigStats`] (the way the paper reports Tables 1 and 3).
#[must_use]
pub fn merged_stats(rows: &[ActivityRow]) -> SigStats {
    let mut merged = SigStats::new();
    for row in rows {
        merged.merge(&row.stats);
    }
    merged
}

/// Formats a percentage histogram with a running cumulative column — the
/// one shape shared by Table 1, `repro trace stat`'s significance histogram
/// and `repro analyze`'s static width histogram.
#[must_use]
pub fn histogram(title: &str, label: &str, rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{label:<10} {:>10} {:>12}", "% values", "cumulative");
    let mut cumulative = 0.0;
    for (name, percent) in rows {
        cumulative += percent;
        let _ = writeln!(out, "{name:<10} {percent:>10.1} {cumulative:>12.1}");
    }
    out
}

/// The rows of [`SigStats::pattern_table`] in [`histogram`] form.
#[must_use]
pub fn pattern_histogram_rows(stats: &SigStats) -> Vec<(String, f64)> {
    stats
        .pattern_table()
        .into_iter()
        .map(|row| (row.pattern.notation(), row.percent))
        .collect()
}

/// Formats Table 1 (significant-byte pattern frequencies).
#[must_use]
pub fn table1(stats: &SigStats) -> String {
    let mut out = histogram(
        "Table 1: Frequency of significant byte patterns",
        "pattern",
        &pattern_histogram_rows(stats),
    );
    let _ = writeln!(
        out,
        "two-bit-expressible patterns cover {:.1} % (paper: ≈ 94 %)",
        stats.prefix_pattern_coverage()
    );
    let _ = writeln!(
        out,
        "mean significant bytes per value: {:.2}",
        stats.mean_significant_bytes()
    );
    out
}

/// Formats Table 2 (PC-update activity and latency vs block size).
#[must_use]
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: Activity and latency estimates for PC updating"
    );
    let _ = writeln!(
        out,
        "{:>12} {:>18} {:>12}",
        "block bits", "activity (bits)", "latency (cyc)"
    );
    for row in sigcomp::pc::pc_update_table() {
        let _ = writeln!(
            out,
            "{:>12} {:>18.4} {:>12.4}",
            row.block_bits, row.activity_bits, row.latency_cycles
        );
    }
    out
}

/// Formats Table 3 (dynamic function-code frequencies).
#[must_use]
pub fn table3(stats: &SigStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3: Dynamic frequency of function codes (R-format)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12}",
        "funct", "% R-format", "cumulative"
    );
    for row in stats.funct_table() {
        let _ = writeln!(
            out,
            "{:<10} {:>10.1} {:>12.1}",
            row.op.mnemonic(),
            row.percent,
            row.cumulative
        );
    }
    let top8: f64 = stats.funct_table().iter().take(8).map(|r| r.percent).sum();
    let _ = writeln!(
        out,
        "top-8 function codes cover {top8:.1} % (paper: ≈ 86.7 %)"
    );
    out
}

/// Formats Table 4 (ALU case-3 exception classes), derived by exhaustive
/// enumeration of the first-principles predicate.
#[must_use]
pub fn table4() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 4: case-3 byte positions that must be generated (both source bytes are sign extensions)"
    );
    let _ = writeln!(
        out,
        "{:<22} {:<22} {:>12}",
        "A[i-1] top bits", "B[i-1] top bits", "generation"
    );
    let pattern = |top: u8| format!("{top:02b}xxxxxx");
    for row in sigcomp::alu::case3_table() {
        let needed = if row.always_required {
            "always"
        } else if row.ever_required {
            "carry-dependent"
        } else {
            "never"
        };
        let _ = writeln!(
            out,
            "{:<22} {:<22} {:>12}",
            pattern(row.a_top),
            pattern(row.b_top),
            needed
        );
    }
    out
}

/// Formats Table 5/6 (per-benchmark activity reduction) for a given scheme.
#[must_use]
pub fn activity_table(rows: &[ActivityRow], scheme: ExtScheme) -> String {
    let mut out = String::new();
    let table_name = match scheme {
        ExtScheme::Halfword => "Table 6: Activity reduction (%) for datapath operations (16 bit)",
        _ => "Table 5: Activity reduction (%) for datapath operations (8 bit)",
    };
    let _ = writeln!(out, "{table_name}");
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>8} {:>9} {:>7} {:>8} {:>8} {:>7} {:>8}",
        "benchmark", "Fetch", "RFread", "RFwrite", "ALU", "D$data", "D$tag", "PCinc", "Latches"
    );
    let mut merged = ActivityReport::default();
    for row in rows {
        let r = &row.report;
        let _ = writeln!(
            out,
            "{:<14} {:>7.1} {:>8.1} {:>9.1} {:>7.1} {:>8.1} {:>8.1} {:>7.1} {:>8.1}",
            row.name,
            r.fetch.saving_percent(),
            r.rf_read.saving_percent(),
            r.rf_write.saving_percent(),
            r.alu.saving_percent(),
            r.dcache_data.saving_percent(),
            r.dcache_tag.saving_percent(),
            r.pc_increment.saving_percent(),
            r.latches.saving_percent(),
        );
        merged.merge(r);
    }
    let _ = writeln!(
        out,
        "{:<14} {:>7.1} {:>8.1} {:>9.1} {:>7.1} {:>8.1} {:>8.1} {:>7.1} {:>8.1}",
        "AVG",
        merged.fetch.saving_percent(),
        merged.rf_read.saving_percent(),
        merged.rf_write.saving_percent(),
        merged.alu.saving_percent(),
        merged.dcache_data.saving_percent(),
        merged.dcache_tag.saving_percent(),
        merged.pc_increment.saving_percent(),
        merged.latches.saving_percent(),
    );
    let mean_fetch =
        rows.iter().map(|r| r.mean_fetch_bytes).sum::<f64>() / rows.len().max(1) as f64;
    let _ = writeln!(
        out,
        "mean fetched bytes/instruction: {mean_fetch:.2} (paper: ≈ 3.17)"
    );
    out
}

/// Formats one of the CPI figures: per-benchmark CPI bars for the requested
/// organizations, plus the suite averages and the relative CPI vs baseline.
#[must_use]
pub fn figure(title: &str, rows: &[CpiRow], kinds: &[OrgKind]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let names: Vec<&str> = kinds.iter().map(|&k| Organization::new(k).name()).collect();
    let _ = write!(out, "{:<14}", "benchmark");
    for n in &names {
        let _ = write!(out, " {n:>28}");
    }
    let _ = writeln!(out);
    let mut totals = vec![(0u64, 0u64); kinds.len()];
    for row in rows {
        let _ = write!(out, "{:<14}", row.name);
        for (i, r) in row.results.iter().enumerate() {
            let _ = write!(out, " {:>28.3}", r.cpi());
            totals[i].0 += r.cycles;
            totals[i].1 += r.instructions;
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<14}", "AVG");
    let avg: Vec<f64> = totals
        .iter()
        .map(|&(cyc, ins)| {
            if ins == 0 {
                0.0
            } else {
                cyc as f64 / ins as f64
            }
        })
        .collect();
    for a in &avg {
        let _ = write!(out, " {a:>28.3}");
    }
    let _ = writeln!(out);
    if let Some(base_index) = kinds.iter().position(|&k| k == OrgKind::Baseline32) {
        for (i, name) in names.iter().enumerate() {
            if i != base_index && avg[base_index] > 0.0 {
                let _ = writeln!(
                    out,
                    "{name}: CPI {:+.1} % vs 32-bit baseline",
                    (avg[i] / avg[base_index] - 1.0) * 100.0
                );
            }
        }
    }
    out
}

/// Formats the §5 bottleneck study for the byte-serial organization.
#[must_use]
pub fn bottleneck(size: WorkloadSize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Bottleneck study: stall attribution in the byte-serial pipeline (§5)"
    );
    let org = Organization::new(OrgKind::ByteSerial);
    let mut total_stalls = 0u64;
    let mut ex_stalls = 0u64;
    for b in suite(size) {
        let mut sim = PipelineSim::new(org.clone());
        b.run_each(|rec| sim.observe(rec))
            .unwrap_or_else(|e| panic!("kernel {} failed: {e}", b.name()));
        let result = sim.finish();
        let frac = result.stalls.execute_structural_fraction(&org);
        let _ = writeln!(
            out,
            "{:<14} CPI {:>6.3}  execute-stage structural stalls: {:>5.1} %",
            b.name(),
            result.cpi(),
            frac * 100.0
        );
        total_stalls += result.stalls.total();
        ex_stalls += (frac * result.stalls.total() as f64) as u64;
    }
    if total_stalls > 0 {
        let _ = writeln!(
            out,
            "suite: {:.1} % of stall cycles are execute-stage structural hazards (paper: ≈ 72 %)",
            100.0 * ex_stalls as f64 / total_stalls as f64
        );
    }
    out
}

/// The organizations shown in each figure of the paper.
#[must_use]
pub fn figure_orgs(figure_id: u32) -> Vec<OrgKind> {
    match figure_id {
        4 => vec![
            OrgKind::Baseline32,
            OrgKind::ByteSerial,
            OrgKind::HalfwordSerial,
        ],
        6 => vec![
            OrgKind::Baseline32,
            OrgKind::ByteSerial,
            OrgKind::SemiParallel,
        ],
        8 => vec![OrgKind::Baseline32, OrgKind::ParallelSkewed],
        _ => vec![
            OrgKind::Baseline32,
            OrgKind::ParallelCompressed,
            OrgKind::SkewedBypass,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_study_produces_a_row_per_benchmark() {
        let rows = activity_study(WorkloadSize::Tiny, &AnalyzerConfig::paper_byte());
        assert!(rows.len() >= 10);
        let text = activity_table(&rows, ExtScheme::ThreeBit);
        assert!(text.contains("Table 5"));
        assert!(text.contains("AVG"));
        for row in &rows {
            assert!(text.contains(&row.name));
        }
    }

    #[test]
    fn tables_1_and_3_come_from_merged_stats() {
        let rows = activity_study(WorkloadSize::Tiny, &AnalyzerConfig::paper_byte());
        let stats = merged_stats(&rows);
        let t1 = table1(&stats);
        assert!(t1.contains("eees"));
        let t3 = table3(&stats);
        assert!(t3.contains("addu"));
    }

    #[test]
    fn static_tables_render() {
        assert!(table2().contains('8'));
        assert!(table4().contains("xxxxxx"));
    }

    #[test]
    fn figures_render_with_relative_cpi() {
        let kinds = figure_orgs(4);
        let rows: Vec<CpiRow> = suite(WorkloadSize::Tiny)
            .iter()
            .take(2)
            .map(|b| cpi_for(b, &kinds))
            .collect();
        let text = figure("Figure 4", &rows, &kinds);
        assert!(text.contains("Figure 4"));
        assert!(text.contains("byte-serial"));
        assert!(text.contains("% vs 32-bit baseline"));
    }

    #[test]
    fn figure_orgs_cover_all_figures() {
        assert_eq!(figure_orgs(4).len(), 3);
        assert_eq!(figure_orgs(6).len(), 3);
        assert_eq!(figure_orgs(8).len(), 2);
        assert_eq!(figure_orgs(10).len(), 3);
    }
}
