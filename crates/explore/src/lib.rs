//! # sigcomp-explore
//!
//! Parallel design-space exploration for the significance-compression
//! models: the paper's results (Tables 5–6, Figures 4–10) are single points
//! in a space of extension scheme × pipeline organization × workload ×
//! workload size × cache geometry; this crate sweeps whole regions of that
//! space at once and reports the energy/performance trade-off.
//!
//! The engine has six parts:
//!
//! * [`SweepSpec`] — a builder that enumerates and filters the cross product
//!   into [`JobSpec`]s with deterministic indices and content-hashed
//!   [`JobSpec::job_id`]s,
//! * [`backend`] — the pluggable execution layer ([`ExecBackend`]):
//!   [`ExecBackend::LocalThreads`] runs jobs on the in-process
//!   work-stealing pool, [`ExecBackend::Subprocess`] and
//!   [`ExecBackend::Fleet`] fan them out over a pipe or HTTP,
//! * [`proto`] — the one shard-and-merge core both scale-out transports
//!   share: [`ShardPlan`], the dispatch/report grammar and the cache merge,
//!   with merged output **byte-identical to the single-process run for any
//!   shard count**,
//! * [`executor`] — the dependency-free work-stealing thread pool
//!   (`std` threads + channels) behind the local backend, whose merged
//!   output is **bit-identical for every worker count**: results are
//!   reassembled in job order and the per-worker statistic shards hold
//!   only integer counters,
//! * [`ResultCache`] — an on-disk cache keyed by job content hash, so
//!   re-running a sweep only simulates configurations whose parameters
//!   changed — and the merge point every scale-out transport publishes
//!   through,
//! * [`report`] — aggregation into per-configuration [`ConfigPoint`]s,
//!   Pareto-frontier extraction (dynamic-energy saving vs CPI) and CSV/JSON
//!   export.
//!
//! # Example
//!
//! ```
//! use sigcomp_explore::{try_run_sweep, SweepOptions, SweepSpec};
//! use sigcomp_workloads::WorkloadSize;
//!
//! let spec = SweepSpec::paper(WorkloadSize::Tiny).workloads(&["rawcaudio", "pgp"]);
//! let summary = try_run_sweep(&spec, &SweepOptions::with_workers(2)).expect("local backend");
//! assert_eq!(summary.outcomes.len(), 2 * 7);
//! let points = sigcomp_explore::config_points(&summary.outcomes);
//! let frontier = sigcomp_explore::pareto_frontier(&points, &Default::default());
//! assert!(!frontier.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod backend;
mod cache;
pub mod executor;
pub mod proto;
pub mod prune;
pub mod report;
mod spec;
mod sweep;

pub use backend::{
    dedup_jobs, install_fleet_runner, DedupedJobs, ExecBackend, ExecError, FleetConfig,
    FleetRunner, SubprocessConfig,
};
pub use cache::{
    cache_stats, column_slug, decode_entry, encode_entry, entry_digest, CacheStats, ResultCache,
};
pub use executor::{run_parallel, run_parallel_dealt, WorkerReport};
pub use proto::{
    encode_dispatch, encode_report, parse_dispatch, parse_report, FleetReport, ShardPlan,
    FLEET_HEADER,
};
pub use prune::{static_prune, PruneOutcome, PruneReason, PrunedJob};
pub use report::{
    config_points, frontier_table, pareto_frontier, to_csv, to_json, write_job_fields, ConfigPoint,
};
pub use spec::{
    JobSpec, MemProfile, StreamKey, SweepSpec, TraceInput, TraceSource, SWEEP_FORMAT_VERSION,
};
pub use sweep::{
    simulate_decoded, simulate_job, simulate_trace, try_run_jobs, try_run_jobs_traced,
    try_run_sweep, JobMetrics, JobOutcome, SweepOptions, SweepShard, SweepSummary,
};
