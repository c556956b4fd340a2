//! # sigcomp-pipeline
//!
//! Cycle-level, trace-driven timing models for the pipeline organizations of
//! *"Very Low Power Pipelines using Significance Compression"* (MICRO-33,
//! 2000), §4–§6:
//!
//! | organization | datapath | paper result |
//! |---|---|---|
//! | [`OrgKind::Baseline32`] | conventional 32-bit, 5 stages | reference CPI |
//! | [`OrgKind::ByteSerial`] | 1-byte datapath, 3-byte fetch | CPI +79 % |
//! | [`OrgKind::HalfwordSerial`] | 2-byte datapath | CPI ≈ 1.96 |
//! | [`OrgKind::SemiParallel`] | 3/2/2/1-byte stage bandwidths | CPI +24 % |
//! | [`OrgKind::ParallelSkewed`] | 4-byte, skewed (7 stages) | ≈ baseline |
//! | [`OrgKind::ParallelCompressed`] | 4-byte, 5 stages, extra cycles for wide data | CPI +6 % |
//! | [`OrgKind::SkewedBypass`] | skewed + short-operand bypasses | CPI +2 % |
//!
//! All models share one engine ([`PipelineSim`]): an in-order pipeline with
//! no branch prediction, full bypassing, per-stage occupancies derived from
//! the significance of the actual operand values, and the paper's cache/TLB
//! hierarchy for miss penalties.
//!
//! The per-record work splits by the design-space axis it depends on:
//!
//! * [`StageDemand`] — the record's demand class (five significant-byte
//!   counts and two extra-cycle flags), every candidate stage occupancy
//!   derived from it, register slots and control flags — depends only on
//!   the scheme; an organization only names which candidate each stage
//!   takes, so one demand serves all seven organizations under every
//!   memory hierarchy. One [`DemandClasses`] per scheme counts the classes;
//! * [`MissPenalty`] — the extra fetch and memory cycles of the record's
//!   hierarchy walk — depends only on the memory hierarchy;
//! * [`StageOccupancy`] — the stage occupancies the recurrence reads, a
//!   gather through the organization's [`StageRules`] — depends on the
//!   scheme and the organization;
//! * the pipeline recurrence ([`PipelineSim::observe_demand`]) is the only
//!   work per `(scheme, hierarchy, organization)`.
//!
//! The lane-gating budgets are no per-record work: when a model reports
//! ([`PipelineSim::result_with`]), its [`StageRules`] fold them from the
//! scheme's class counts and add the model's summed miss penalties.
//!
//! A simulator with its own hierarchy composes the same pieces per record
//! and counts its own classes.
//!
//! # Example
//!
//! ```
//! use sigcomp_pipeline::{Organization, OrgKind, PipelineSim};
//! use sigcomp_isa::{ProgramBuilder, Interpreter, reg};
//!
//! # fn main() -> Result<(), sigcomp_isa::IsaError> {
//! let mut b = ProgramBuilder::new();
//! b.li(reg::T0, 0);
//! b.li(reg::T1, 500);
//! b.label("loop");
//! b.addiu(reg::T0, reg::T0, 1);
//! b.bne(reg::T0, reg::T1, "loop");
//! b.halt();
//! let trace = Interpreter::new(&b.assemble()?).run(100_000)?;
//!
//! let baseline = PipelineSim::new(Organization::new(OrgKind::Baseline32)).run(trace.iter());
//! let byte_serial = PipelineSim::new(Organization::new(OrgKind::ByteSerial)).run(trace.iter());
//! assert!(byte_serial.cpi() > baseline.cpi());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

mod demand;
mod engine;
mod lanes;
mod organization;
mod predictor;

pub use demand::{DemandClasses, MissPenalty, StageDemand};
pub use engine::{PipelineSim, SimResult, StallBreakdown};
pub use lanes::{StageOccupancy, StageRules};
pub use organization::{OrgKind, Organization, Stage};
pub use predictor::BimodalPredictor;

use sigcomp_isa::Trace;

/// Simulates a stored trace on one organization with default parameters.
#[must_use]
pub fn simulate_trace(kind: OrgKind, trace: &Trace) -> SimResult {
    PipelineSim::new(Organization::new(kind)).run(trace.iter())
}

/// Simulates a stored trace on every organization (baseline first).
#[must_use]
pub fn simulate_all(trace: &Trace) -> Vec<SimResult> {
    OrgKind::ALL
        .iter()
        .map(|&kind| simulate_trace(kind, trace))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder};

    fn tiny_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, 64);
        b.label("loop");
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(10_000)
            .unwrap()
    }

    #[test]
    fn simulate_all_covers_every_organization() {
        let results = simulate_all(&tiny_trace());
        assert_eq!(results.len(), OrgKind::ALL.len());
        assert_eq!(results[0].organization, "32-bit baseline");
        for r in &results {
            assert!(r.cpi() >= 1.0);
        }
    }

    #[test]
    fn simulate_trace_matches_manual_construction() {
        let trace = tiny_trace();
        let a = simulate_trace(OrgKind::ByteSerial, &trace);
        let b = PipelineSim::new(Organization::new(OrgKind::ByteSerial)).run(trace.iter());
        assert_eq!(a.cycles, b.cycles);
    }
}
