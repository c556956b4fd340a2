//! Lane-gating budgets, tallied once per `(scheme, organization)`.
//!
//! Each occupied cycle of a stage powers the stage's lane budget; the lanes
//! an instruction's significant bytes do not need are gated off (only in
//! the compressed organizations — the baseline has no extension bits to
//! gate with). Per stage and record that is `total = lane_bytes × occupancy`
//! lane-cycles, of which `min(used lanes, total)` stay powered.
//!
//! A miss penalty only lengthens the fetch and the low-order memory stage,
//! and on those two stages the used lanes never exceed
//! `lane_bytes × occupancy` before the penalty (every organization's fetch
//! and memory widths cover the bytes one cycle of them streams). The powered
//! lanes therefore do not depend on the memory hierarchy, and over a record
//! stream
//!
//! * `total = lane_bytes × (Σ occupancy + Σ miss penalty)`,
//! * `gated = total − Σ min(used lanes, lane_bytes × occupancy)`.
//!
//! A [`LaneTally`] sums the two hierarchy-free terms from the
//! [`StageDemand`]s of one scheme; the timing model of each memory
//! hierarchy sums its penalties and folds them in when it reports
//! ([`PipelineSim::result_with`](crate::PipelineSim::result_with)). The
//! stage occupancies the tally reads from each demand are handed on, as a
//! [`StageOccupancy`], to the pipeline recurrence of every hierarchy, so
//! they too are read once per `(scheme, organization)`.

use crate::demand::StageDemand;
use crate::organization::{OrgKind, Organization};

/// One record's occupancy of every stage of one organization, in cycles,
/// miss penalties excluded: what [`LaneTally::observe`] read from the
/// record's [`StageDemand`], for
/// [`PipelineSim::observe_demand`](crate::PipelineSim::observe_demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOccupancy {
    pub(crate) kind: OrgKind,
    pub(crate) cycles: [u64; 7],
}

/// One organization's lane-gating budgets under one scheme, summed over a
/// record stream (see the [module docs](self)).
///
/// Feed it each record's [`StageDemand`] once, whatever number of memory
/// hierarchies the organization is timed against.
#[derive(Debug, Clone, Copy)]
pub struct LaneTally {
    kind: OrgKind,
    /// Per-stage index into [`StageDemand`]'s candidate occupancies.
    occ_rule: [usize; 7],
    /// Per-stage index into [`StageDemand`]'s candidate used-lane bytes.
    lane_rule: [usize; 7],
    /// Per-stage powered-lane budget, cached from the organization; zero
    /// past its depth.
    lane_bytes: [u64; 7],
    /// Whether the organization can gate unused byte lanes.
    gates: bool,
    /// Per-stage occupancy summed over the records, miss penalties excluded.
    occupied: [u64; 7],
    /// Per-stage powered lane-cycles summed over the records (gating
    /// organizations only).
    powered: [u64; 7],
}

impl LaneTally {
    /// An empty tally for `org`.
    #[must_use]
    pub fn new(org: &Organization) -> Self {
        debug_assert!(
            org.depth() <= 7,
            "the fixed stage arrays hold up to 7 stages"
        );
        let mut tally = LaneTally {
            kind: org.kind(),
            occ_rule: [0; 7],
            lane_rule: [0; 7],
            lane_bytes: [0; 7],
            gates: org.gates_lanes(),
            occupied: [0; 7],
            powered: [0; 7],
        };
        for (i, &stage) in org.stages().iter().enumerate() {
            tally.occ_rule[i] = org.occupancy_rule(stage) as usize;
            tally.lane_rule[i] = org.lane_rule(stage) as usize;
            tally.lane_bytes[i] = u64::from(org.lane_bytes(stage));
        }
        tally
    }

    /// The organization this tally belongs to.
    #[must_use]
    pub fn kind(&self) -> OrgKind {
        self.kind
    }

    /// Tallies one record's demand and returns the stage occupancies it
    /// read, for the organization's pipeline recurrence under every memory
    /// hierarchy.
    #[inline]
    pub fn observe(&mut self, demand: &StageDemand) -> StageOccupancy {
        // Straight-line over all seven slots: past the organization's depth
        // a slot has no lanes, so it sums occupancy no budget reports and
        // powers nothing.
        let cycles = self.occ_rule.map(|rule| demand.occupancy[rule]);
        for (sum, occupancy) in self.occupied.iter_mut().zip(cycles) {
            *sum += occupancy;
        }
        if self.gates {
            let stages = self.lane_rule.iter().zip(&self.lane_bytes).zip(cycles);
            for (sum, ((&rule, &bytes), occupancy)) in self.powered.iter_mut().zip(stages) {
                *sum += demand.lanes[rule].min(bytes * occupancy);
            }
        }
        StageOccupancy {
            kind: self.kind,
            cycles,
        }
    }

    /// Per-stage `(gated, total)` lane-cycles once `penalty[s]` summed miss
    /// cycles lengthen each stage `s`.
    pub(crate) fn byte_cycles(&self, penalty: &[u64; 7]) -> ([u64; 7], [u64; 7]) {
        let mut gated = [0; 7];
        let mut total = [0; 7];
        for s in 0..7 {
            total[s] = self.lane_bytes[s] * (self.occupied[s] + penalty[s]);
            if self.gates {
                gated[s] = total[s] - self.powered[s];
            }
        }
        (gated, total)
    }
}
