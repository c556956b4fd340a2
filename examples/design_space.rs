//! Design-space exploration beyond the paper's headline configurations:
//!
//! * 2-bit vs 3-bit vs halfword extension schemes (the §2.1 trade-off),
//! * how the funct-recode table size changes the fetched bytes (§2.3),
//! * the energy/CPI trade-off across the full scheme × organization ×
//!   memory-profile cross product, swept in parallel by `sigcomp-explore`
//!   and reduced to its Pareto frontier.
//!
//! Run with `cargo run --release --example design_space`.

use sigcomp::ext::{significant_bytes, ExtScheme};
use sigcomp::ifetch::{compress_instruction, FunctRecoder};
use sigcomp::EnergyModel;
use sigcomp_explore::{
    config_points, frontier_table, pareto_frontier, try_run_sweep, MemProfile, SweepOptions,
    SweepSpec,
};
use sigcomp_workloads::{SynthConfig, TraceSynthesizer, WorkloadSize};

fn main() {
    let synth = TraceSynthesizer::new(SynthConfig::paper(200_000));
    let trace = synth.generate();

    // ---- extension-scheme ablation -----------------------------------------
    println!("== extension-scheme ablation (register-read bytes per operand) ==");
    for &scheme in ExtScheme::ALL {
        let mut bytes = 0u64;
        let mut values = 0u64;
        for rec in &trace {
            for v in rec.source_values() {
                bytes += u64::from(significant_bytes(v, scheme));
                values += 1;
            }
        }
        println!(
            "{scheme:>9}: {:.2} bytes/operand + {} extension bits ({:.1} % read saving)",
            bytes as f64 / values as f64,
            scheme.overhead_bits(),
            (1.0 - (bytes as f64 / values as f64 * 8.0 + f64::from(scheme.overhead_bits())) / 32.0)
                * 100.0
        );
    }

    // ---- funct-recode table size -------------------------------------------
    println!("\n== fetched bytes vs funct-recode coverage ==");
    let recoder = FunctRecoder::paper_default();
    let mut fetched = 0u64;
    for rec in &trace {
        fetched += u64::from(compress_instruction(&rec.instr, &recoder).fetch_bytes);
    }
    println!(
        "paper-default recoding: {:.2} bytes/instruction (paper: ≈ 3.17)",
        fetched as f64 / trace.len() as f64
    );

    // ---- parallel sweep: energy vs CPI across the whole space ---------------
    println!("\n== energy/performance trade-off across the design space ==");
    let spec =
        SweepSpec::full(WorkloadSize::Tiny).mems(&[MemProfile::Paper, MemProfile::SlowMemory]);
    println!(
        "sweeping {} configurations on all available cores...",
        spec.len()
    );
    let summary =
        try_run_sweep(&spec, &SweepOptions::default()).expect("the local backend never fails");
    println!(
        "done on {} workers in {:.2} s ({} simulated)",
        summary.workers,
        summary.wall.as_secs_f64(),
        summary.simulated()
    );

    let model = EnergyModel::default();
    let points = config_points(&summary.outcomes);
    print!("{}", frontier_table(&points, &model));

    println!("\nPareto frontier, fastest first:");
    for p in pareto_frontier(&points, &model) {
        println!(
            "  {:<44} CPI {:>6.3}  energy saving {:>5.1} %",
            p.label(),
            p.cpi(),
            p.energy_saving(&model) * 100.0
        );
    }
}
