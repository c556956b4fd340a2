//! Per-layer measurements for the traced run of the sweep workloads.
//!
//! Every layer is timed from outside, by driving its crate's public entry
//! point over the workload's own records inside a [`Tracer`] span:
//! interpretation (`Benchmark::run_each`), arena decode and iteration
//! (`DecodedTrace::open` / `iter`), `cost::instr_cost`, the analyzer, the
//! pipeline timing model per organization, the memory hierarchy per
//! profile, and the result cache and report renderers. The layer ledger
//! then rebuilds the sweep workers' busy time from those per-record costs
//! and reports what they leave unexplained.

use crate::sweeps::{Pass, WORKERS};
use crate::trace::Tracer;
use crate::util::{rss_mb, Rep, Scratch};
use sigcomp::{
    instr_cost, AnalyzerConfig, EnergyModel, ExtScheme, FunctRecoder, InstrCost, TraceAnalyzer,
};
use sigcomp_explore::{config_points, pareto_frontier, to_csv, MemProfile, ResultCache};
use sigcomp_isa::{DecodedTrace, ExecRecord};
use sigcomp_mem::{AccessKind, MemoryHierarchy};
use sigcomp_pipeline::{OrgKind, Organization, PipelineSim};
use sigcomp_workloads::{find, suite_names, Benchmark, TraceSynthesizer, WorkloadSize};
use std::hint::black_box;
use std::path::PathBuf;

/// Timed passes per layer; the reported figure is their mean.
const LAYER_PASSES: usize = 2;

/// The sweep workers' busy time so far: the summed duration of the
/// `replay.job` spans the executor records around every job.
pub fn job_busy_s() -> f64 {
    sigcomp_obs::global()
        .snapshot()
        .histograms
        .get("replay.job")
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}

/// Where a workload's records come from: live interpretation of the
/// assembled kernels, or decoded trace arenas.
pub enum Source<'a> {
    Kernels(&'a [Benchmark]),
    Arenas(&'a [&'a DecodedTrace]),
}

impl Source<'_> {
    /// Every record, one stream per kernel or trace.
    fn streams(&self) -> Vec<Vec<ExecRecord>> {
        match self {
            Source::Kernels(benchmarks) => benchmarks
                .iter()
                .map(|b| {
                    let mut records = Vec::new();
                    b.run_each(|r| records.push(*r)).expect("kernel runs");
                    records
                })
                .collect(),
            Source::Arenas(arenas) => arenas.iter().map(|a| a.iter().collect()).collect(),
        }
    }
}

/// What the timed sweep passes left behind for the ledger.
pub struct SweepRun<'a> {
    pub cold: &'a Pass,
    pub warm: &'a Pass,
    /// Summed job time of the cold pass's workers.
    pub busy_s: f64,
    pub model: &'a EnergyModel,
    /// Resident-set growth across the arena decode (0 without arenas).
    pub arena_bytes: f64,
}

/// Milliseconds to assemble the whole kernel suite with `find`.
pub fn build_ms(tracer: &Tracer) -> f64 {
    for _ in 0..LAYER_PASSES {
        tracer.time("workloads.build", "layers", 1, || {
            for name in suite_names() {
                black_box(find(name, WorkloadSize::Default));
            }
        });
    }
    tracer.ns_per_unit("workloads.build") / 1e6
}

/// Nanoseconds per record of `TraceSynthesizer::generate_each` over the
/// seed's trace configurations.
pub fn synth_ns(tracer: &Tracer, seed: u64) -> f64 {
    for _ in 0..LAYER_PASSES {
        for config in crate::sweeps::synth_configs(seed) {
            let records = config.instructions;
            tracer.time("workloads.synth", "layers", records, || {
                TraceSynthesizer::new(config).generate_each(|rec| {
                    black_box(rec);
                });
            });
        }
    }
    tracer.ns_per_unit("workloads.synth")
}

/// Times `DecodedTrace::open` over the trace files and returns the
/// resident-set growth the decoded arenas cost, in bytes.
pub fn decode_arenas(tracer: &Tracer, paths: &[PathBuf]) -> f64 {
    let before = rss_mb();
    let mut kept = Vec::new();
    for pass in 0..LAYER_PASSES {
        for path in paths {
            let records = sigcomp_isa::TraceReader::open(path)
                .expect("trace opens")
                .records();
            let arena = tracer.time("isa.decode", "layers", records, || {
                DecodedTrace::open(path).expect("trace decodes")
            });
            if pass == 0 {
                kept.push(arena);
            }
        }
    }
    let grown = (rss_mb() - before).max(0.0) * 1024.0 * 1024.0;
    drop(kept);
    grown
}

/// Drives every simulation layer over `records`, records the per-layer
/// metrics, and closes the ledger against the cold pass.
pub fn sweep_layers(rep: &mut Rep, tracer: &Tracer, run: &SweepRun<'_>, source: Source<'_>) {
    let recoder = FunctRecoder::paper_default();
    let streams = source.streams();

    for _ in 0..LAYER_PASSES {
        match &source {
            Source::Kernels(benchmarks) => {
                for b in *benchmarks {
                    let count = b.instruction_count().expect("kernel runs");
                    tracer.time("isa.interp", "layers", count, || {
                        b.run_each(|rec| {
                            black_box(rec);
                        })
                        .expect("kernel runs");
                    });
                }
            }
            Source::Arenas(arenas) => {
                for arena in *arenas {
                    tracer.time("isa.arena_iter", "layers", arena.len() as u64, || {
                        for rec in arena.iter() {
                            black_box(rec);
                        }
                    });
                }
            }
        }
        for &scheme in ExtScheme::ALL {
            let name = format!("core.cost.{}", scheme.id());
            for stream in &streams {
                tracer.time(&name, "layers", stream.len() as u64, || {
                    for rec in stream {
                        black_box(instr_cost(rec, scheme, &recoder));
                    }
                });
            }
        }
    }

    // The analyzer and the pipeline consume the 3-bit cost vectors, as the
    // sweep's jobs share one cost per record between both models.
    let costs: Vec<Vec<InstrCost>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|r| instr_cost(r, ExtScheme::ThreeBit, &recoder))
                .collect()
        })
        .collect();
    for _ in 0..LAYER_PASSES {
        for (stream, cost) in streams.iter().zip(&costs) {
            // The 3-bit scheme over the paper hierarchy, as the sweep's jobs.
            let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
            tracer.time("core.analyzer", "layers", stream.len() as u64, || {
                for (rec, c) in stream.iter().zip(cost) {
                    analyzer.observe_with_cost(rec, c);
                }
            });
            black_box(analyzer.report());
        }
        for &org in OrgKind::ALL {
            let name = format!("pipeline.observe.{}", org.id());
            for (stream, cost) in streams.iter().zip(&costs) {
                let mut sim = PipelineSim::with_config(
                    Organization::with_scheme(org, ExtScheme::ThreeBit),
                    &MemProfile::Paper.hierarchy(),
                    recoder.clone(),
                );
                tracer.time(&name, "layers", stream.len() as u64, || {
                    for (rec, c) in stream.iter().zip(cost) {
                        sim.observe_with_cost(rec, c);
                    }
                });
                black_box(sim.finish());
            }
        }
    }

    // The memory hierarchy alone, per profile, with exact miss counts.
    for &profile in MemProfile::ALL {
        let name = format!("mem.access.{}", profile.id());
        let (mut l1i, mut l1d) = (0u64, 0u64);
        for pass in 0..LAYER_PASSES {
            for stream in &streams {
                let mut mem = MemoryHierarchy::new(&profile.hierarchy());
                tracer.time(&name, "layers", stream.len() as u64, || {
                    for rec in stream {
                        black_box(mem.fetch_instruction(rec.pc));
                        if let Some(access) = rec.mem {
                            let kind = if access.is_store {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            };
                            black_box(mem.data_access(access.addr, kind));
                        }
                    }
                });
                if pass == 0 {
                    let stats = mem.stats();
                    l1i += stats.il1.misses;
                    l1d += stats.dl1.misses;
                }
            }
        }
        rep.set(
            &format!("mem.access_ns_per_rec.{}", profile.id()),
            tracer.ns_per_unit(&name),
        );
        rep.set(&format!("mem.l1i_misses.{}", profile.id()), l1i as f64);
        rep.set(&format!("mem.l1d_misses.{}", profile.id()), l1d as f64);
    }

    // The result cache and the report renderers, over the pass's outcomes.
    let scratch = Scratch::new("layers-cache");
    let cache = ResultCache::open(scratch.path("cache")).expect("throwaway cache opens");
    let outcomes = &run.cold.outcomes;
    let n = outcomes.len() as u64;
    tracer.time("explore.cache_store", "layers", n, || {
        for o in outcomes {
            cache
                .store(o.spec.job_id(), &o.metrics)
                .expect("throwaway cache stores");
        }
    });
    tracer.time("explore.cache_load", "layers", n, || {
        for o in outcomes {
            black_box(cache.load(o.spec.job_id()));
        }
    });
    for _ in 0..LAYER_PASSES {
        tracer.time("explore.report", "layers", 1, || {
            let points = config_points(outcomes);
            black_box(pareto_frontier(&points, run.model));
            black_box(to_csv(outcomes, run.model));
        });
    }
    drop(scratch);

    let interp = tracer.ns_per_unit("isa.interp");
    let arena_iter = tracer.ns_per_unit("isa.arena_iter");
    let analyzer = tracer.ns_per_unit("core.analyzer");
    rep.set("isa.interp_ns_per_inst", interp);
    rep.set("isa.arena_iter_ns_per_rec", arena_iter);
    rep.set("isa.decode_ns_per_rec", tracer.ns_per_unit("isa.decode"));
    rep.set("isa.arena_mb", run.arena_bytes / (1024.0 * 1024.0));
    rep.set("core.analyzer_ns_per_rec", analyzer);
    for &scheme in ExtScheme::ALL {
        rep.set(
            &format!("core.cost_ns_per_rec.{}", scheme.id()),
            tracer.ns_per_unit(&format!("core.cost.{}", scheme.id())),
        );
    }
    for &org in OrgKind::ALL {
        rep.set(
            &format!("pipeline.observe_ns_per_rec.{}", org.id()),
            tracer.ns_per_unit(&format!("pipeline.observe.{}", org.id())),
        );
    }
    let store_us = tracer.ns_per_unit("explore.cache_store") / 1e3;
    rep.set("explore.cache_store_us", store_us);
    rep.set(
        "explore.cache_load_us",
        tracer.ns_per_unit("explore.cache_load") / 1e3,
    );
    rep.set(
        "explore.report_ms",
        tracer.ns_per_unit("explore.report") / 1e6,
    );
    rep.set(
        "explore.worker_idle_ratio",
        1.0 - run.busy_s / (WORKERS as f64 * run.cold.wall_s),
    );
    rep.set(
        "explore.jobs_simulated",
        (run.cold.simulated + run.warm.simulated) as f64,
    );
    rep.set(
        "explore.jobs_cached",
        (run.cold.cached + run.warm.cached) as f64,
    );
    rep.set(
        "explore.dedup_followers",
        sigcomp_obs::global()
            .snapshot()
            .counter("explore.dedup.followers") as f64,
    );

    // The ledger: every cold job's busy time rebuilt from per-record layer
    // costs (record source + cost vector + pipeline + analyzer, memory
    // profile adjusted) plus its cache store.
    let source_ns = match source {
        Source::Kernels(_) => interp,
        Source::Arenas(_) => arena_iter,
    };
    let mem_paper = tracer.ns_per_unit("mem.access.paper");
    let explained_s: f64 = outcomes
        .iter()
        .map(|o| {
            let spec = o.spec;
            let per_rec = source_ns
                + tracer.ns_per_unit(&format!("core.cost.{}", spec.scheme.id()))
                + tracer.ns_per_unit(&format!("pipeline.observe.{}", spec.org.id()))
                + tracer.ns_per_unit(&format!("mem.access.{}", spec.mem.id()))
                - mem_paper
                + analyzer;
            o.metrics.instructions as f64 * per_rec / 1e9 + store_us / 1e6
        })
        .sum();
    rep.set(
        "ledger.residual_ratio",
        (run.busy_s - explained_s) / run.busy_s,
    );
    rep.set("ledger.explained_s", explained_s);
    rep.set("ledger.busy_s", run.busy_s);
}
