//! End-to-end exercise of the distributed fleet: real worker servers on
//! loopback sockets, a frontier sweep dispatched over the `sigcomp-fleet
//! v1` wire protocol, and the invariant the whole fabric exists to uphold —
//! the merged output of any fleet shape is **byte-identical** to a
//! single-process run of the same spec, including when a worker dies
//! mid-sweep and its shard is re-dispatched to the survivors.

use sigcomp::ProcessNode;
use sigcomp_explore::{
    to_csv, to_json, try_run_sweep, ExecBackend, FleetConfig, MemProfile, ResultCache,
    SweepOptions, SweepSpec,
};
use sigcomp_serve::{BatchConfig, ServeConfig, Server, ServerHandle};
use sigcomp_workloads::WorkloadSize;
use std::io::Read;
use std::net::TcpListener;

fn start_worker() -> ServerHandle {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            max_batch: 32,
            queue_capacity: 512,
            sim_workers: Some(2),
            ..BatchConfig::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn()
}

fn temp_cache(tag: &str) -> (std::path::PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!("sigcomp-fleet-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("cache opens");
    (dir, cache)
}

/// Renders the exports exactly the way `repro sweep --csv/--json` does:
/// under the spec's first (only) requested energy model.
fn exports(outcomes: &[sigcomp_explore::JobOutcome]) -> (String, String) {
    let model = ProcessNode::Paper180nm.model();
    (to_csv(outcomes, &model), to_json(outcomes, &model))
}

/// A worker that "crashes" mid-sweep: accepts exactly one connection, reads
/// part of the request, then drops the stream *and* the listener — the
/// on-the-wire signature of a worker process killed mid-dispatch (reset on
/// the in-flight request, connection refused on every retry).
fn crash_after_first_request() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
    });
    (addr, handle)
}

fn lost_and_resharded() -> (u64, u64) {
    let snap = sigcomp_obs::global().snapshot();
    (
        snap.counter("fleet.frontier.workers_lost"),
        snap.counter("fleet.frontier.reshards"),
    )
}

#[test]
fn two_workers_merge_byte_identically_to_a_single_process_run() {
    sigcomp_fabric::install();
    let worker_a = start_worker();
    let worker_b = start_worker();

    // The paper's primary slice: 1 scheme × 7 organizations × 11 kernels.
    let spec = SweepSpec::paper(WorkloadSize::Tiny);
    let jobs = spec.enumerate().len() as u64;

    let (local_dir, local_cache) = temp_cache("two-local");
    let local = try_run_sweep(
        &spec,
        &SweepOptions {
            workers: Some(2),
            cache: Some(local_cache),
            backend: ExecBackend::LocalThreads,
        },
    )
    .expect("sweep runs");

    let (fleet_dir, fleet_cache) = temp_cache("two-fleet");
    let fleet = try_run_sweep(
        &spec,
        &SweepOptions {
            workers: Some(2),
            cache: Some(fleet_cache),
            backend: ExecBackend::Fleet(FleetConfig {
                workers: vec![worker_a.addr().to_string(), worker_b.addr().to_string()],
                timeout_ms: 60_000,
                attempts: 3,
            }),
        },
    )
    .expect("sweep runs");

    // Both workers took a shard, nothing ran locally.
    assert_eq!(fleet.backend, "fleet");
    assert_eq!(fleet.worker_loads.len(), 2, "{:?}", fleet.worker_loads);
    assert_eq!(
        fleet
            .worker_loads
            .iter()
            .map(|&(jobs, _)| jobs)
            .sum::<u64>(),
        jobs
    );

    // The invariant: the merged fleet output is byte-identical to the
    // single-process run — the exports a user would actually diff.
    let (local_csv, local_json) = exports(&local.outcomes);
    let (fleet_csv, fleet_json) = exports(&fleet.outcomes);
    assert_eq!(fleet_csv, local_csv, "CSV must match byte for byte");
    assert_eq!(fleet_json, local_json, "JSON must match byte for byte");

    worker_a.shutdown();
    worker_b.shutdown();
    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);
}

#[test]
fn killing_a_worker_mid_sweep_reshards_and_stays_byte_identical() {
    sigcomp_fabric::install();
    let survivor = start_worker();
    let (victim_addr, victim) = crash_after_first_request();

    // The full 231-configuration sweep (3 schemes × 7 organizations × 11
    // kernels), the same one the CI fleet smoke runs.
    let spec = SweepSpec::full(WorkloadSize::Tiny).mems(&[MemProfile::Paper]);
    let jobs = spec.enumerate().len() as u64;
    assert_eq!(jobs, 231);

    let (local_dir, local_cache) = temp_cache("chaos-local");
    let local = try_run_sweep(
        &spec,
        &SweepOptions {
            workers: Some(2),
            cache: Some(local_cache),
            backend: ExecBackend::LocalThreads,
        },
    )
    .expect("sweep runs");

    let (before_lost, before_reshards) = lost_and_resharded();
    let (fleet_dir, fleet_cache) = temp_cache("chaos-fleet");
    let fleet = try_run_sweep(
        &spec,
        &SweepOptions {
            workers: Some(2),
            cache: Some(fleet_cache),
            backend: ExecBackend::Fleet(FleetConfig {
                workers: vec![survivor.addr().to_string(), victim_addr],
                timeout_ms: 60_000,
                attempts: 2,
            }),
        },
    )
    .expect("sweep runs");
    let (after_lost, after_reshards) = lost_and_resharded();

    // The frontier must have noticed the death and re-dispatched the dead
    // worker's shard to the survivor.
    assert!(after_lost > before_lost, "the killed worker must be lost");
    assert!(
        after_reshards > before_reshards,
        "its shard must be re-dispatched"
    );
    // One row per worker: the survivor answered twice (its own shard, then
    // the re-shard) and the dead worker answered nothing.
    assert_eq!(fleet.workers, 1, "{:?}", fleet.worker_loads);
    assert_eq!(
        fleet
            .worker_loads
            .iter()
            .map(|&(jobs, _)| jobs)
            .sum::<u64>(),
        jobs,
        "every job still completes: {:?}",
        fleet.worker_loads
    );

    // And the chaos must be invisible in the output.
    let (local_csv, local_json) = exports(&local.outcomes);
    let (fleet_csv, fleet_json) = exports(&fleet.outcomes);
    assert_eq!(fleet_csv, local_csv, "CSV must match byte for byte");
    assert_eq!(fleet_json, local_json, "JSON must match byte for byte");

    survivor.shutdown();
    victim.join().expect("victim thread");
    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&fleet_dir);
}
