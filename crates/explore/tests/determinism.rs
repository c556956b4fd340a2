//! The engine's central guarantee: a sweep produces bit-identical merged
//! results for every worker count — and for every process count sharing one
//! result cache — and its cache keys are stable, so cached and
//! freshly-simulated runs are indistinguishable.

use sigcomp::EnergyModel;
use sigcomp_explore::{
    config_points, to_csv, to_json, try_run_sweep, JobSpec, MemProfile, ResultCache, SweepOptions,
    SweepSpec, TraceInput,
};
use sigcomp_workloads::{find, WorkloadSize};

fn small_spec() -> SweepSpec {
    // 2 workloads × 7 organizations × 2 schemes = 28 jobs; Tiny keeps each
    // job to a few thousand instructions.
    SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawcaudio", "pgp"])
        .schemes(&[sigcomp::ExtScheme::ThreeBit, sigcomp::ExtScheme::Halfword])
}

#[test]
fn parallel_and_serial_sweeps_are_bit_identical() {
    let spec = small_spec();
    let serial = try_run_sweep(&spec, &SweepOptions::with_workers(1)).expect("sweep runs");
    for workers in [2, 4, 7] {
        let parallel =
            try_run_sweep(&spec, &SweepOptions::with_workers(workers)).expect("sweep runs");

        // Per-job outcomes match one for one, in the same order.
        assert_eq!(serial.outcomes, parallel.outcomes, "{workers} workers");

        // The sharded totals merge to the same integers.
        assert_eq!(
            serial.totals.activity, parallel.totals.activity,
            "{workers} workers"
        );
        assert_eq!(serial.totals.simulated, parallel.totals.simulated);
        assert_eq!(
            serial.totals.instructions_simulated,
            parallel.totals.instructions_simulated
        );

        // And the exported artefacts are byte-identical.
        let model = EnergyModel::default();
        assert_eq!(
            to_csv(&serial.outcomes, &model),
            to_csv(&parallel.outcomes, &model)
        );
        assert_eq!(
            to_json(&serial.outcomes, &model),
            to_json(&parallel.outcomes, &model)
        );
        assert_eq!(
            config_points(&serial.outcomes),
            config_points(&parallel.outcomes)
        );
    }
}

#[test]
fn cache_keys_are_identical_across_worker_counts_and_runs() {
    let spec = small_spec();
    let keys =
        |spec: &SweepSpec| -> Vec<u64> { spec.enumerate().iter().map(JobSpec::job_id).collect() };
    // Enumeration (and therefore the key sequence) does not depend on any
    // execution parameter — recompute a few times and compare.
    let reference = keys(&spec);
    assert_eq!(reference, keys(&spec));
    assert_eq!(reference.len(), 2 * 7 * 2);
    let unique: std::collections::HashSet<_> = reference.iter().collect();
    assert_eq!(unique.len(), reference.len());
}

#[test]
fn trace_file_jobs_are_deterministic_across_workers_and_cache_compatible() {
    // A recorded trace swept as a TraceSource::File axis behaves exactly
    // like a kernel axis: bit-identical across worker counts, and its
    // content-hashed job ids make cache hits indistinguishable from fresh
    // simulation.
    let trace = find("rawcaudio", WorkloadSize::Tiny)
        .unwrap()
        .trace()
        .unwrap();
    let input = TraceInput::from_trace("recorded-rawcaudio", trace).unwrap();
    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .no_kernels()
        .trace_files(std::slice::from_ref(&input));
    assert_eq!(spec.len(), 7);

    let serial = try_run_sweep(&spec, &SweepOptions::with_workers(1)).expect("sweep runs");
    let parallel = try_run_sweep(&spec, &SweepOptions::with_workers(4)).expect("sweep runs");
    assert_eq!(serial.outcomes, parallel.outcomes);

    // And the file-sourced metrics equal the live kernel's for the same
    // scheme/org/mem (the trace IS that execution).
    let kernel_spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["rawcaudio"]);
    let live = try_run_sweep(&kernel_spec, &SweepOptions::with_workers(1)).expect("sweep runs");
    for (file_job, live_job) in serial.outcomes.iter().zip(&live.outcomes) {
        assert_eq!(file_job.spec.org, live_job.spec.org);
        assert_eq!(file_job.metrics, live_job.metrics);
        // Same result, different identity: the cache can never conflate a
        // file job with its kernel twin.
        assert_ne!(file_job.spec.job_id(), live_job.spec.job_id());
    }

    let dir = std::env::temp_dir().join(format!(
        "sigcomp-explore-trace-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = try_run_sweep(
        &spec,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    )
    .expect("sweep runs");
    assert_eq!(cold.simulated(), 7);
    let warm = try_run_sweep(
        &spec,
        &SweepOptions::with_workers(3).cache(ResultCache::open(&dir).unwrap()),
    )
    .expect("sweep runs");
    assert_eq!(warm.cached(), 7);
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.metrics, w.metrics);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_executors_share_one_cache_without_tearing_or_duplicates() {
    // Two executors hammering one ResultCache directory concurrently — a
    // running server plus a CLI sweep, or two shard processes of a sharded
    // sweep — must produce: no torn or duplicate entries, and merged
    // summaries bit-identical to an uncached reference run.
    let dir = std::env::temp_dir().join(format!("sigcomp-explore-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = small_spec();
    let reference = try_run_sweep(&spec, &SweepOptions::with_workers(2)).expect("sweep runs");

    let summaries: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|racer| {
                let spec = spec.clone();
                let dir = dir.clone();
                scope.spawn(move || {
                    try_run_sweep(
                        &spec,
                        &SweepOptions::with_workers(2 + racer)
                            .cache(ResultCache::open(&dir).expect("cache opens")),
                    )
                    .expect("sweep runs")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for summary in &summaries {
        // Bit-identical to the uncached run, whatever mix of fresh
        // simulation and concurrent-cache hits each racer saw.
        assert_eq!(summary.outcomes.len(), reference.outcomes.len());
        for (raced, direct) in summary.outcomes.iter().zip(&reference.outcomes) {
            assert_eq!(raced.spec, direct.spec);
            assert_eq!(raced.metrics, direct.metrics);
        }
        assert_eq!(summary.totals.activity, reference.totals.activity);
        // Every job was answered exactly once per racer, one way or the
        // other. (Exports are not compared verbatim here: their from_cache
        // provenance column legitimately depends on which racer published
        // an entry first — every *measured* byte was asserted above.)
        assert_eq!(
            summary.totals.simulated + summary.totals.cached,
            spec.len() as u64
        );
    }

    // The cache holds exactly one entry per distinct job — no duplicates —
    // and no torn temp files leaked from the races.
    let cache = ResultCache::open(&dir).unwrap();
    assert_eq!(cache.len().unwrap(), spec.len());
    let leftovers = std::fs::read_dir(&dir)
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
    // And every entry round-trips to the reference metrics.
    for outcome in &reference.outcomes {
        assert_eq!(
            cache.load(outcome.spec.job_id()),
            Some(outcome.metrics),
            "{}",
            outcome.spec.label()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_snapshots_merge_order_independently_and_round_trip_the_wire() {
    // The observability merge the sharded backend relies on: whatever order
    // the shard reports arrive in, the folded registry is identical — and
    // the wire form each worker prints re-parses to the exact snapshot.
    let make = |counter: u64, observations: &[u64]| {
        let registry = sigcomp_obs::Registry::new();
        registry.counter("replay.jobs_simulated").add(counter);
        registry.gauge("explore.workers").set_max(counter);
        let hist = registry.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
        for &value in observations {
            hist.observe(value);
        }
        registry.snapshot()
    };
    let shards = [
        make(3, &[40, 800, 120_000]),
        make(5, &[75, 75, 2_000_000]),
        make(1, &[999]),
    ];

    let merged = |order: &[usize]| {
        let target = sigcomp_obs::Registry::new();
        for &i in order {
            target.merge_snapshot(&shards[i]).unwrap();
        }
        target.snapshot()
    };
    let reference = merged(&[0, 1, 2]);
    for order in [[1, 2, 0], [2, 1, 0], [0, 2, 1]] {
        assert_eq!(reference, merged(&order), "merge order {order:?}");
    }
    assert_eq!(reference.counter("replay.jobs_simulated"), 9);
    assert_eq!(
        reference.gauges["explore.workers"], 5,
        "gauges merge by max"
    );

    // Wire round-trip, exactly as the worker protocol carries it.
    let wire = reference.to_wire();
    let reparsed = sigcomp_obs::Snapshot::from_wire(&wire).unwrap();
    assert_eq!(reference, reparsed);
    assert_eq!(wire, reparsed.to_wire());
}

#[test]
fn shard_registries_fold_to_the_single_process_registry() {
    // Splitting one run's observations across shard registries and merging
    // the snapshots must be indistinguishable from recording everything in
    // one process — the invariant behind `sweep --shards` obs totals.
    let observations: Vec<u64> = (0..28).map(|i| 50 + i * 37).collect();

    let single = sigcomp_obs::Registry::new();
    let hist = single.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
    for &value in &observations {
        single.counter("replay.jobs_simulated").incr();
        hist.observe(value);
    }

    let folded = sigcomp_obs::Registry::new();
    for shard in 0..3 {
        let registry = sigcomp_obs::Registry::new();
        let hist = registry.histogram("replay.job", sigcomp_obs::DEFAULT_SPAN_BOUNDS_US);
        for (i, &value) in observations.iter().enumerate() {
            if i % 3 == shard {
                registry.counter("replay.jobs_simulated").incr();
                hist.observe(value);
            }
        }
        folded.merge_snapshot(&registry.snapshot()).unwrap();
    }
    assert_eq!(single.snapshot(), folded.snapshot());

    // Quantiles are computed on the snapshot, so they agree too.
    let s = single.snapshot().histograms["replay.job"].clone();
    let f = folded.snapshot().histograms["replay.job"].clone();
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(s.quantile(q).to_bits(), f.quantile(q).to_bits());
    }
}

#[test]
fn second_run_hits_the_cache_with_identical_results() {
    let dir = std::env::temp_dir().join(format!(
        "sigcomp-explore-determinism-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = SweepSpec::paper(WorkloadSize::Tiny)
        .workloads(&["rawdaudio"])
        .mems(&[MemProfile::Paper, MemProfile::SlowMemory]);

    let cold = try_run_sweep(
        &spec,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    )
    .expect("sweep runs");
    assert_eq!(cold.simulated(), spec.len() as u64);
    assert_eq!(cold.cached(), 0);

    let warm = try_run_sweep(
        &spec,
        &SweepOptions::with_workers(3).cache(ResultCache::open(&dir).unwrap()),
    )
    .expect("sweep runs");
    assert_eq!(warm.simulated(), 0);
    assert_eq!(warm.cached(), spec.len() as u64);

    // Cache-restored outcomes are bit-identical to the simulated ones apart
    // from their provenance flag.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.spec, w.spec);
        assert_eq!(c.metrics, w.metrics);
        assert!(!c.from_cache);
        assert!(w.from_cache);
    }

    // A widened sweep only simulates the new configurations.
    let wider = spec.mems(&[
        MemProfile::Paper,
        MemProfile::SlowMemory,
        MemProfile::SmallL1,
    ]);
    let mixed = try_run_sweep(
        &wider,
        &SweepOptions::with_workers(2).cache(ResultCache::open(&dir).unwrap()),
    )
    .expect("sweep runs");
    assert_eq!(mixed.cached(), 2 * 7);
    assert_eq!(mixed.simulated(), 7);

    let _ = std::fs::remove_dir_all(&dir);
}
