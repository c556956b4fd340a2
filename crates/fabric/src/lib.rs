//! # sigcomp-fabric
//!
//! The distributed sweep fabric: a **frontier/worker topology over HTTP**
//! that extends the subprocess scale-out to a fleet of machines while
//! preserving its merge invariant — *N hosts × M shards byte-identical to
//! one process*.
//!
//! Workers are ordinary `repro serve` processes. They register with a
//! frontier (`POST /register`), then heartbeat periodically with their
//! capacity and observability snapshot (`POST /heartbeat`); the frontier
//! tracks them in a [`WorkerPool`].
//!
//! A sweep on [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) runs on
//! the shard-and-merge core that `sigcomp-explore` shares with the
//! subprocess backend ([`sigcomp_explore::proto`]): one
//! [`ShardPlan`](sigcomp_explore::ShardPlan) dedups and id-sorts the jobs
//! and deals them round-robin over the live workers, each shard travels as
//! the same dispatch body a `repro worker` child reads on stdin (here in a
//! `POST /fleet/dispatch`), and each worker answers with the same report,
//! carrying the exact on-disk cache-entry text of every job guarded by an
//! FNV-1a digest. The one merge verifies, replicates the entries into the
//! frontier's cache, and restores every outcome in submission order. Every
//! entry is keyed by config hash, so replication is conflict-free by
//! construction: two workers racing the same key write identical bytes.
//!
//! Robustness is first-class:
//!
//! * per-dispatch timeouts with bounded retry + exponential backoff
//!   ([`FleetConfig`](sigcomp_explore::FleetConfig)),
//! * a worker that exhausts its attempts (killed mid-sweep, say) is dropped
//!   and its outstanding jobs are **re-sharded** across the survivors,
//! * with no workers left (or none registered), the frontier **degrades
//!   gracefully to local execution** over the same cache — the sweep always
//!   completes, byte-identically.
//!
//! `sigcomp-explore` stays free of networking: it exposes the
//! [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) variant as pure
//! data plus an [`install_fleet_runner`](sigcomp_explore::install_fleet_runner)
//! hook, and this crate registers its [`frontier`] runner via [`install`]
//! (called by `sigcomp_serve::Server::bind` and every `repro fleet` path).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod frontier;
pub mod pool;
pub mod proto;
pub mod worker;

pub use client::{HttpClient, HttpResponse};
pub use frontier::run_fleet_jobs;
pub use pool::{WorkerPool, WorkerStatus, DEFAULT_LIVENESS_TTL};
pub use proto::{encode_heartbeat, encode_register, parse_heartbeat, parse_register};
pub use worker::Heartbeater;

/// Registers the fleet runner with `sigcomp-explore`, making
/// [`ExecBackend::Fleet`](sigcomp_explore::ExecBackend) executable.
/// Idempotent and cheap — call it from every entry point that might select
/// the fleet backend.
pub fn install() {
    sigcomp_explore::install_fleet_runner(frontier::run_fleet_jobs);
}
