//! Cross-crate integration tests: kernels from `sigcomp-workloads` executed
//! by the `sigcomp-isa` interpreter, analyzed by the `sigcomp` activity
//! models and timed by the `sigcomp-pipeline` organizations.

use sigcomp::analyzer::{AnalyzerConfig, TraceAnalyzer};
use sigcomp::ext::{CompressedWord, ExtScheme};
use sigcomp::ifetch::{compress_instruction, decompress_instruction, FunctRecoder};
use sigcomp::{EnergyModel, ProcessNode};
use sigcomp_explore::{
    config_points, pareto_frontier, to_csv, to_json, try_run_sweep, ConfigPoint, SweepOptions,
    SweepSpec,
};
use sigcomp_pipeline::{simulate_all, simulate_trace, OrgKind};
use sigcomp_workloads::{suite, SynthConfig, TraceSynthesizer, WorkloadSize};

#[test]
fn every_kernel_flows_through_the_full_stack() {
    for benchmark in suite(WorkloadSize::Tiny) {
        let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
        let mut sim_input = Vec::new();
        benchmark
            .run_each(|rec| {
                analyzer.observe(rec);
                sim_input.push(*rec);
            })
            .unwrap_or_else(|e| panic!("kernel {} failed: {e}", benchmark.name()));

        let report = analyzer.report();
        assert!(
            report.pc_increment.saving() > 0.4,
            "{}: PC saving {:.3}",
            benchmark.name(),
            report.pc_increment.saving()
        );
        assert!(
            report.total().baseline_bits > 0,
            "{}: no activity recorded",
            benchmark.name()
        );

        let trace: sigcomp_isa::Trace = sim_input.into_iter().collect();
        let baseline = simulate_trace(OrgKind::Baseline32, &trace);
        assert_eq!(baseline.instructions, trace.len() as u64);
        assert!(baseline.cpi() >= 1.0);
    }
}

#[test]
fn every_value_in_a_trace_compresses_losslessly() {
    let benchmark = &suite(WorkloadSize::Tiny)[0];
    let mut checked = 0u64;
    benchmark
        .run_each(|rec| {
            for value in rec
                .source_values()
                .chain(rec.result_value())
                .chain(rec.mem.map(|m| m.value))
            {
                for &scheme in ExtScheme::ALL {
                    let c = CompressedWord::compress(value, scheme);
                    assert_eq!(c.decompress(), value);
                }
                checked += 1;
            }
        })
        .expect("kernel runs");
    assert!(checked > 500);
}

#[test]
fn every_executed_instruction_survives_icache_permutation() {
    let recoder = FunctRecoder::paper_default();
    for benchmark in suite(WorkloadSize::Tiny) {
        benchmark
            .run_each(|rec| {
                let compressed = compress_instruction(&rec.instr, &recoder);
                assert_eq!(
                    decompress_instruction(compressed.stored_word, &recoder),
                    rec.instr.encode(),
                    "{}: instruction {} did not round-trip",
                    benchmark.name(),
                    rec.instr
                );
                assert!(compressed.fetch_bytes == 3 || compressed.fetch_bytes == 4);
            })
            .expect("kernel runs");
    }
}

#[test]
fn synthetic_traces_drive_both_studies() {
    let trace = TraceSynthesizer::new(SynthConfig::paper(30_000)).generate();

    let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
    for rec in &trace {
        analyzer.observe(rec);
    }
    let report = analyzer.report();
    // The synthesizer is calibrated to Table 1, so register-read savings land
    // near the paper's 47 %.
    let rf = report.rf_read.saving();
    assert!(rf > 0.35 && rf < 0.60, "rf read saving {rf}");
    assert!(EnergyModel::default().saving(&report) > 0.2);

    let results = simulate_all(&trace);
    assert_eq!(results.len(), OrgKind::ALL.len());
    let baseline = &results[0];
    for r in &results[1..] {
        assert!(r.cpi() >= baseline.cpi() * 0.999, "{}", r.organization);
    }
}

#[test]
fn activity_reports_merge_across_benchmarks() {
    let mut merged = sigcomp::ActivityReport::default();
    let mut per_benchmark_total = 0u64;
    for benchmark in suite(WorkloadSize::Tiny).iter().take(3) {
        let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
        benchmark.run_each(|rec| analyzer.observe(rec)).unwrap();
        let report = analyzer.report();
        per_benchmark_total += report.total().baseline_bits;
        merged.merge(&report);
    }
    assert_eq!(merged.total().baseline_bits, per_benchmark_total);
}

#[test]
fn process_node_presets_shift_a_real_sweep_frontier() {
    // The paper's primary slice, evaluated under every process-node preset.
    // Dynamic switching activity is organization-independent, so the
    // dynamic-only frontier keeps only the fastest compressed organization;
    // a leaky node credits the full-width compressed machine its mostly
    // gated-off lanes, pulling it onto the frontier even at a higher CPI.
    let spec = SweepSpec::paper(WorkloadSize::Tiny);
    let summary = try_run_sweep(&spec, &SweepOptions::with_workers(4)).expect("sweep runs");
    let points = config_points(&summary.outcomes);

    let labels = |node: ProcessNode| -> Vec<String> {
        pareto_frontier(&points, &node.model())
            .iter()
            .map(ConfigPoint::label)
            .collect()
    };
    let paper = labels(ProcessNode::Paper180nm);
    let modern = labels(ProcessNode::Modern7nm);
    assert_ne!(
        paper, modern,
        "a leakage-heavy node must change which configurations are Pareto-optimal"
    );
    assert!(
        !paper.iter().any(|l| l.contains("/compressed/")),
        "dynamic-only: the compressed organization is dominated: {paper:?}"
    );
    assert!(
        modern.iter().any(|l| l.contains("/compressed/")),
        "modern-7nm: gated wide lanes must pull the compressed organization \
         onto the frontier: {modern:?}"
    );

    // The dynamic term itself is untouched by any preset.
    for point in &points {
        let dynamic_only = point.energy_saving(&ProcessNode::Paper180nm.model());
        for &node in ProcessNode::ALL {
            assert_eq!(
                point.dynamic_energy_saving(&node.model()),
                dynamic_only,
                "{}: leakage weights disturbed the dynamic term",
                point.label()
            );
        }
    }

    // Zero-leakage exports are bit-identical to the pre-leakage format, and
    // the leaky presets only append columns.
    let default_csv = to_csv(&summary.outcomes, &EnergyModel::default());
    assert_eq!(
        default_csv,
        to_csv(&summary.outcomes, &ProcessNode::Paper180nm.model())
    );
    assert!(!default_csv.contains("total_energy_saving"));
    let default_json = to_json(&summary.outcomes, &EnergyModel::default());
    assert_eq!(
        default_json,
        to_json(&summary.outcomes, &ProcessNode::Paper180nm.model())
    );
    assert!(to_csv(&summary.outcomes, &ProcessNode::Modern7nm.model())
        .lines()
        .next()
        .unwrap()
        .ends_with("total_energy_saving,leakage_saving"));
}

#[test]
fn deterministic_end_to_end() {
    let benchmark = &suite(WorkloadSize::Tiny)[2];
    let run = || {
        let mut sim = sigcomp_pipeline::PipelineSim::new(sigcomp_pipeline::Organization::new(
            OrgKind::SemiParallel,
        ));
        benchmark.run_each(|rec| sim.observe(rec)).unwrap();
        sim.finish()
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.stalls, b.stalls);
}
