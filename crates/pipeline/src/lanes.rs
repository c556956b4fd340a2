//! Lane-gating budgets, folded from a scheme's demand classes.
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
//! The occupancy and the used lanes of a stage are functions of the
//! record's [`DemandClass`](crate::demand::DemandClass), so both hierarchy-free sums are
//! `Σ count × occupancy` and `Σ count × min(used lanes, lane_bytes ×
//! occupancy)` over the [`DemandClasses`] one scheme counted. A
//! [`StageRules`] folds them for its organization when a timing model
//! reports ([`PipelineSim::result_with`](crate::PipelineSim::result_with)),
//! which adds that model's summed penalties; no lane budget is summed per
//! record. Per record, the rules only read the organization's
//! [`StageOccupancy`] from the demand, once per `(scheme, organization)`,
//! for the pipeline recurrence of every hierarchy.

use crate::demand::{DemandClasses, StageDemand};
use crate::organization::{OrgKind, Organization};

/// One record's occupancy of every stage of one organization, in cycles,
/// miss penalties excluded: what [`StageRules::occupancy`] read from the
/// record's [`StageDemand`], for
/// [`PipelineSim::observe_demand`](crate::PipelineSim::observe_demand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOccupancy {
    pub(crate) kind: OrgKind,
    pub(crate) cycles: [u64; 7],
}

/// Which candidate occupancy and used-lane count each stage of one
/// organization takes, and the stage's lane width (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct StageRules {
    kind: OrgKind,
    /// Per-stage index into [`StageDemand`]'s candidate occupancies.
    occ_rule: [usize; 7],
    /// Per-stage index into a demand class's candidate used-lane bytes.
    lane_rule: [usize; 7],
    /// Per-stage powered-lane budget, cached from the organization; zero
    /// past its depth.
    lane_bytes: [u64; 7],
    /// Whether the organization can gate unused byte lanes.
    gates: bool,
}

impl StageRules {
    /// The rules of `org`.
    #[must_use]
    pub fn new(org: &Organization) -> Self {
        debug_assert!(
            org.depth() <= 7,
            "the fixed stage arrays hold up to 7 stages"
        );
        let mut rules = StageRules {
            kind: org.kind(),
            occ_rule: [0; 7],
            lane_rule: [0; 7],
            lane_bytes: [0; 7],
            gates: org.gates_lanes(),
        };
        for (i, &stage) in org.stages().iter().enumerate() {
            rules.occ_rule[i] = org.occupancy_rule(stage) as usize;
            rules.lane_rule[i] = org.lane_rule(stage) as usize;
            rules.lane_bytes[i] = u64::from(org.lane_bytes(stage));
        }
        rules
    }

    /// The organization these rules belong to.
    #[must_use]
    pub fn kind(&self) -> OrgKind {
        self.kind
    }

    /// The stage occupancies of one record's demand, for the
    /// organization's pipeline recurrence under every memory hierarchy.
    #[inline]
    pub fn occupancy(&self, demand: &StageDemand) -> StageOccupancy {
        StageOccupancy {
            kind: self.kind,
            cycles: self.occ_rule.map(|rule| demand.occupancy[rule]),
        }
    }

    /// Per-stage `(gated, total)` lane-cycles of the records whose classes
    /// `classes` counted, once `penalty[s]` summed miss cycles lengthen each
    /// stage `s`.
    pub(crate) fn byte_cycles(
        &self,
        classes: &DemandClasses,
        penalty: &[u64; 7],
    ) -> ([u64; 7], [u64; 7]) {
        // Past the organization's depth a slot has no lanes: it sums
        // occupancy no budget reports and powers nothing.
        let mut occupied = *penalty;
        let mut powered = [0; 7];
        for (class, count) in classes.iter() {
            let occupancy = class.occupancies();
            let lanes = class.lanes();
            for s in 0..7 {
                let cycles = u64::from(occupancy[self.occ_rule[s]]);
                occupied[s] += count * cycles;
                let used = u64::from(lanes[self.lane_rule[s]]);
                powered[s] += count * used.min(self.lane_bytes[s] * cycles);
            }
        }
        let mut gated = [0; 7];
        let mut total = [0; 7];
        for s in 0..7 {
            total[s] = self.lane_bytes[s] * occupied[s];
            if self.gates {
                gated[s] = total[s] - powered[s];
            }
        }
        (gated, total)
    }
}
