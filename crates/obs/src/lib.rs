//! `sigcomp-obs`: the workspace's dependency-free observability substrate.
//!
//! Four pieces, all `std`-only:
//!
//! - a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s with p50/p95/p99 estimation, and [`Snapshot`]s whose
//!   merge is commutative — shard registries fold into the parent's in any
//!   order with identical totals and quantiles;
//! - RAII [`Span`] timers ([`span!`]) that record wall time into the
//!   registry and optionally emit a JSONL structured-event stream
//!   (`--obs-log FILE` in the CLI);
//! - a line-oriented wire form ([`Snapshot::to_wire`]) so `repro worker`
//!   subprocesses can ship their metrics over the existing verified stdout
//!   protocol;
//! - [`json`], the workspace's one JSON codec: the parser every request
//!   body and report check goes through, the single string escaper, and
//!   the writer behind every JSON document the workspace emits.
//!
//! Hot paths fetch handles once and record lock-free; registry lookups take
//! a short mutex. Tests should build their own [`Registry`] rather than
//! asserting exact values on [`global()`], which every thread in the
//! process shares.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod histogram;
pub mod json;
mod registry;
mod snapshot;
mod span;

pub use histogram::{bucket_label, Histogram, HistogramSnapshot, DEFAULT_SPAN_BOUNDS_US};
pub use registry::{Counter, Gauge, Registry};
pub use snapshot::{Snapshot, SnapshotError};
pub use span::Span;

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Created on first use; never torn down.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_targets_the_global_registry() {
        {
            let job_id = 9u64;
            let _a = crate::span!("obs.selftest");
            let _b = crate::span!("obs.selftest", job_id);
            let _c = crate::span!("obs.selftest", id = job_id + 1);
        }
        // ≥ 3, not == 3: the global registry is shared with other tests.
        assert!(crate::global().snapshot().histograms["obs.selftest"].count >= 3);
    }
}
