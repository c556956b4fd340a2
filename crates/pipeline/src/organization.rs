//! The pipeline organizations studied in §4–§6 of the paper.
//!
//! Every organization is an in-order pipeline without branch prediction; they
//! differ in how many byte-wide datapath slices each stage has and in whether
//! the high-order bytes get stages of their own (skewed). An organization
//! owns one rule per stage naming which of a record's candidate occupancies
//! and used-lane counts (see [`crate::StageDemand`]) that stage takes;
//! [`Organization::occupancy`] and [`Organization::stage_used_bytes`]
//! evaluate through the same rules, over the same demand class, that the
//! timing engine and the lane-budget fold index.

use crate::demand::{self, DemandClass, LaneRule, OccRule};
use sigcomp::cost::InstrCost;
use sigcomp::hash::{ConfigHash, StableHasher};
use sigcomp::ExtScheme;
use std::fmt;

/// Identifies one of the studied pipeline organizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// The conventional full-width 5-stage pipeline (the paper's baseline).
    Baseline32,
    /// One-byte datapath used serially (§4, Fig. 3).
    ByteSerial,
    /// Two-byte (halfword) datapath used serially (§4).
    HalfwordSerial,
    /// Three bytes of fetch, two bytes of register file and ALU, one byte of
    /// data cache (§5, Fig. 5).
    SemiParallel,
    /// Full-width datapath with skewed stages (§6, Fig. 7).
    ParallelSkewed,
    /// Full-width datapath compressed back into five stages (§6, Fig. 9).
    ParallelCompressed,
    /// The skewed pipeline with forwarding paths that let short operands skip
    /// the extra stages (§6, Fig. 10).
    SkewedBypass,
}

impl OrgKind {
    /// All organizations, baseline first.
    pub const ALL: &'static [OrgKind] = &[
        OrgKind::Baseline32,
        OrgKind::ByteSerial,
        OrgKind::HalfwordSerial,
        OrgKind::SemiParallel,
        OrgKind::ParallelSkewed,
        OrgKind::ParallelCompressed,
        OrgKind::SkewedBypass,
    ];

    /// Stable machine-readable identifier, used in sweep reports and result
    /// cache keys.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            OrgKind::Baseline32 => "baseline32",
            OrgKind::ByteSerial => "byte-serial",
            OrgKind::HalfwordSerial => "halfword-serial",
            OrgKind::SemiParallel => "semi-parallel",
            OrgKind::ParallelSkewed => "skewed",
            OrgKind::ParallelCompressed => "compressed",
            OrgKind::SkewedBypass => "skewed-bypass",
        }
    }

    /// Parses an identifier as produced by [`OrgKind::id`].
    #[must_use]
    pub fn parse(id: &str) -> Option<Self> {
        OrgKind::ALL.iter().copied().find(|k| k.id() == id)
    }
}

impl ConfigHash for OrgKind {
    fn config_hash(&self, hasher: &mut StableHasher) {
        hasher.write_str(self.id());
    }
}

/// The stages of the (up to) seven-deep pipelines modelled here.
///
/// Five-stage organizations use `Fetch, RegRead, Execute, Memory, Writeback`;
/// the skewed organizations add a second execute and memory stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Instruction fetch.
    Fetch,
    /// Decode and register read (low-order bytes first).
    RegRead,
    /// Execute (low-order bytes in the skewed organizations).
    Execute,
    /// Second execute stage (high-order bytes; skewed organizations only).
    ExecuteHi,
    /// Data-cache access (low-order bytes).
    Memory,
    /// Second data-cache stage (high-order bytes; skewed organizations only).
    MemoryHi,
    /// Register write-back.
    Writeback,
}

/// A pipeline organization: its stage list and per-stage datapath widths.
#[derive(Debug, Clone, PartialEq)]
pub struct Organization {
    kind: OrgKind,
    scheme: ExtScheme,
    stages: Vec<Stage>,
}

impl Organization {
    /// Builds the named organization with its paper-default parameters.
    #[must_use]
    pub fn new(kind: OrgKind) -> Self {
        let scheme = match kind {
            OrgKind::HalfwordSerial => ExtScheme::Halfword,
            _ => ExtScheme::ThreeBit,
        };
        let stages = match kind {
            OrgKind::ParallelSkewed | OrgKind::SkewedBypass => vec![
                Stage::Fetch,
                Stage::RegRead,
                Stage::Execute,
                Stage::ExecuteHi,
                Stage::Memory,
                Stage::MemoryHi,
                Stage::Writeback,
            ],
            _ => vec![
                Stage::Fetch,
                Stage::RegRead,
                Stage::Execute,
                Stage::Memory,
                Stage::Writeback,
            ],
        };
        Organization {
            kind,
            scheme,
            stages,
        }
    }

    /// Builds the named organization but with an explicit extension scheme,
    /// for design-space sweeps that cross organizations with schemes the
    /// paper did not pair them with.
    #[must_use]
    pub fn with_scheme(kind: OrgKind, scheme: ExtScheme) -> Self {
        let mut org = Self::new(kind);
        org.scheme = scheme;
        org
    }

    /// All organizations with their default parameters.
    #[must_use]
    pub fn all() -> Vec<Organization> {
        OrgKind::ALL
            .iter()
            .copied()
            .map(Organization::new)
            .collect()
    }

    /// The organization identifier.
    #[must_use]
    pub fn kind(&self) -> OrgKind {
        self.kind
    }

    /// The extension scheme the organization's datapath uses. The baseline
    /// carries extension bits nowhere, but its cost vectors are still
    /// computed under the byte scheme for comparability.
    #[must_use]
    pub fn scheme(&self) -> ExtScheme {
        self.scheme
    }

    /// Short display name used in figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            OrgKind::Baseline32 => "32-bit baseline",
            OrgKind::ByteSerial => "byte-serial",
            OrgKind::HalfwordSerial => "halfword-serial",
            OrgKind::SemiParallel => "byte semi-parallel",
            OrgKind::ParallelSkewed => "byte-parallel skewed",
            OrgKind::ParallelCompressed => "byte-parallel compressed",
            OrgKind::SkewedBypass => "byte-parallel skewed + bypasses",
        }
    }

    /// The ordered stage list.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of pipeline stages.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Index of a stage in this organization, if present.
    #[must_use]
    pub fn stage_index(&self, stage: Stage) -> Option<usize> {
        self.stages.iter().position(|&s| s == stage)
    }

    /// Whether this instruction counts as "short" for the bypass paths of the
    /// skewed-with-bypasses organization: every operand, result and ALU slice
    /// fits in the low-order half of the datapath, so the high-order stages
    /// have nothing to do and the instruction can skip them.
    #[must_use]
    pub fn is_short_operand(&self, cost: &InstrCost) -> bool {
        demand::is_short_operand(cost)
    }

    /// The stage at whose completion a conditional branch (or
    /// register-indirect jump) is resolved and fetch may resume.
    #[must_use]
    pub fn branch_resolve_stage(&self, cost: &InstrCost) -> Stage {
        self.resolve_stages()[usize::from(demand::is_short_operand(cost))]
    }

    /// The branch-resolving stage for an instruction that is not short and
    /// for one that is ([`Organization::is_short_operand`]): only the
    /// bypassed skewed organization resolves short ones early.
    pub(crate) fn resolve_stages(&self) -> [Stage; 2] {
        match self.kind {
            OrgKind::ParallelSkewed => [Stage::ExecuteHi, Stage::ExecuteHi],
            OrgKind::SkewedBypass => [Stage::ExecuteHi, Stage::Execute],
            _ => [Stage::Execute, Stage::Execute],
        }
    }

    /// The stage at whose completion an ALU result is available for bypass.
    ///
    /// In the skewed organizations the consumer is skewed the same way as the
    /// producer (it consumes low-order bytes first), so the low-order execute
    /// stage is enough to keep a dependent instruction moving — the backward
    /// bypasses the paper's §6 mentions.
    #[must_use]
    pub fn alu_result_stage(&self) -> Stage {
        Stage::Execute
    }

    /// The stage at whose completion a load value is available for bypass.
    /// As with ALU results, skewed consumers pick up the low-order bytes as
    /// soon as the first memory stage delivers them.
    #[must_use]
    pub fn load_result_stage(&self) -> Stage {
        Stage::Memory
    }

    /// Per-stage occupancy (in cycles) of one instruction, excluding cache
    /// miss penalties (the engine adds those from the memory hierarchy).
    ///
    /// Following the paper's description of the skewed register access
    /// (§5: the register file delivers the low-order byte and the extension
    /// bits first; further operand bytes are read while the execute stage
    /// works on the bytes already delivered), the serial and semi-parallel
    /// organizations charge the serialization of operand bytes to the execute
    /// stage: its occupancy covers both the ALU byte slices and the operand
    /// bytes it has to wait for.
    #[must_use]
    pub fn occupancy(&self, stage: Stage, cost: &InstrCost) -> u32 {
        DemandClass::new(cost).occupancies()[self.occupancy_rule(stage) as usize]
    }

    /// Which candidate occupancy `stage` takes in this organization.
    pub(crate) fn occupancy_rule(&self, stage: Stage) -> OccRule {
        // The serial and semi-parallel datapaths stream the execute, memory
        // and write-back bytes through stages of the given widths.
        let serial = |ex, mem, wb| match stage {
            Stage::Fetch => OccRule::Fetch3,
            Stage::Execute => ex,
            Stage::Memory => mem,
            Stage::Writeback => wb,
            Stage::RegRead | Stage::ExecuteHi | Stage::MemoryHi => OccRule::One,
        };
        match self.kind {
            OrgKind::Baseline32 => OccRule::One,
            OrgKind::ByteSerial => serial(OccRule::Ex1, OccRule::Mem1, OccRule::Wb1),
            OrgKind::HalfwordSerial => serial(OccRule::Ex2, OccRule::Mem2, OccRule::Wb2),
            // §5: two bytes of register file and ALU, one byte of data cache.
            OrgKind::SemiParallel => serial(OccRule::Ex2, OccRule::Mem1, OccRule::Wb2),
            OrgKind::ParallelSkewed | OrgKind::SkewedBypass => match stage {
                Stage::Fetch => OccRule::Fetch3,
                _ => OccRule::One,
            },
            OrgKind::ParallelCompressed => match stage {
                Stage::Fetch => OccRule::Fetch3,
                Stage::RegRead => OccRule::RegReadCompressed,
                Stage::Memory => OccRule::LoadCompressed,
                _ => OccRule::One,
            },
        }
    }

    /// Whether this organization can power-gate unused byte lanes: every
    /// compressed organization carries extension bits that mark lanes as
    /// insignificant; the 32-bit baseline has none and keeps every lane
    /// powered.
    #[must_use]
    pub fn gates_lanes(&self) -> bool {
        self.kind != OrgKind::Baseline32
    }

    /// Byte lanes the stage powers when occupied: the datapath width of the
    /// stage in this organization (the register-read stage counts both read
    /// ports). `lanes × occupancy` is the stage's powered-lane budget for
    /// one instruction; [`Organization::stage_used_bytes`] says how much of
    /// it the instruction's significant bytes actually need.
    #[must_use]
    pub fn lane_bytes(&self, stage: Stage) -> u32 {
        let (regread, execute, memory, writeback) = match self.kind {
            OrgKind::Baseline32 => (8, 4, 4, 4),
            OrgKind::ByteSerial => (2, 1, 1, 1),
            OrgKind::HalfwordSerial => (4, 2, 2, 2),
            // §5: three bytes of fetch, two bytes of register file and ALU,
            // one byte of data cache.
            OrgKind::SemiParallel => (4, 2, 1, 2),
            // Full-width datapath split into low/high halves across the
            // paired stages (§6).
            OrgKind::ParallelSkewed | OrgKind::SkewedBypass => (8, 2, 2, 4),
            OrgKind::ParallelCompressed => (8, 4, 4, 4),
        };
        match stage {
            // Three I-cache banks plus the extension bit feed every
            // compressed fetch stage (Fig. 3); the baseline fetches a word.
            Stage::Fetch => {
                if self.kind == OrgKind::Baseline32 {
                    4
                } else {
                    3
                }
            }
            Stage::RegRead => regread,
            Stage::Execute | Stage::ExecuteHi => execute,
            Stage::Memory | Stage::MemoryHi => memory,
            Stage::Writeback => writeback,
        }
    }

    /// Significant bytes one instruction streams through the stage — the
    /// lanes that must stay powered. The remainder of the stage's
    /// `lane_bytes × occupancy` budget can be gated (in the organizations
    /// where [`Organization::gates_lanes`] holds).
    #[must_use]
    pub fn stage_used_bytes(&self, stage: Stage, cost: &InstrCost) -> u32 {
        DemandClass::new(cost).lanes()[self.lane_rule(stage) as usize]
    }

    /// Which candidate used-lane byte count `stage` takes: the skewed
    /// organizations split the execute and memory work, low half first,
    /// remainder in the paired high stage.
    pub(crate) fn lane_rule(&self, stage: Stage) -> LaneRule {
        let split = matches!(self.kind, OrgKind::ParallelSkewed | OrgKind::SkewedBypass);
        match stage {
            Stage::Fetch => LaneRule::Fetch,
            Stage::RegRead => LaneRule::RegRead,
            Stage::Execute if split => LaneRule::ExLo,
            Stage::Execute => LaneRule::Ex,
            Stage::ExecuteHi => LaneRule::ExHi,
            Stage::Memory if split => LaneRule::MemLo,
            Stage::Memory => LaneRule::Mem,
            Stage::MemoryHi => LaneRule::MemHi,
            Stage::Writeback => LaneRule::Wb,
        }
    }
}

impl ConfigHash for Organization {
    fn config_hash(&self, hasher: &mut StableHasher) {
        self.kind.config_hash(hasher);
        self.scheme.config_hash(hasher);
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp::cost::instr_cost;
    use sigcomp::FunctRecoder;
    use sigcomp_isa::reg::{A0, T0, T1, T2};
    use sigcomp_isa::{ExecRecord, Instruction, MemAccess, Op};

    fn cost_of(instr: Instruction, rs: Option<u32>, rt: Option<u32>, wb: Option<u32>) -> InstrCost {
        let rec = ExecRecord {
            seq: 0,
            pc: 0x0040_0000,
            word: instr.encode(),
            instr,
            rs_value: rs,
            rt_value: rt,
            writeback: wb.map(|v| (T0, v)),
            mem: None,
            branch: None,
        };
        instr_cost(&rec, ExtScheme::ThreeBit, &FunctRecoder::paper_default())
    }

    fn load_cost(value: u32) -> InstrCost {
        let instr = Instruction::imm(Op::Lw, T0, A0, 0);
        let rec = ExecRecord {
            seq: 0,
            pc: 0x0040_0000,
            word: instr.encode(),
            instr,
            rs_value: Some(0x1000_0000),
            rt_value: None,
            writeback: Some((T0, value)),
            mem: Some(MemAccess {
                addr: 0x1000_0000,
                width: 4,
                is_store: false,
                value,
            }),
            branch: None,
        };
        instr_cost(&rec, ExtScheme::ThreeBit, &FunctRecoder::paper_default())
    }

    #[test]
    fn baseline_is_always_single_cycle() {
        let org = Organization::new(OrgKind::Baseline32);
        let c = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x7654_3210),
            Some(0x1234_5678u32.wrapping_add(0x7654_3210)),
        );
        for &s in org.stages() {
            assert_eq!(org.occupancy(s, &c), 1);
        }
        assert_eq!(org.depth(), 5);
    }

    #[test]
    fn byte_serial_occupancy_tracks_significant_bytes() {
        let org = Organization::new(OrgKind::ByteSerial);
        let narrow = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(5),
            Some(9),
            Some(14),
        );
        assert_eq!(org.occupancy(Stage::Fetch, &narrow), 1);
        assert_eq!(org.occupancy(Stage::RegRead, &narrow), 1);
        assert_eq!(org.occupancy(Stage::Execute, &narrow), 1);
        assert_eq!(org.occupancy(Stage::Writeback, &narrow), 1);

        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x0101_0101),
            Some(0x1335_5779),
        );
        // The register read always delivers the low byte first; the
        // serialization of the remaining bytes shows up in the execute stage.
        assert_eq!(org.occupancy(Stage::RegRead, &wide), 1);
        assert_eq!(org.occupancy(Stage::Execute, &wide), 4);
        assert_eq!(org.occupancy(Stage::Writeback, &wide), 4);
    }

    #[test]
    fn halfword_serial_halves_the_cycle_counts() {
        let byte = Organization::new(OrgKind::ByteSerial);
        let half = Organization::new(OrgKind::HalfwordSerial);
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x0101_0101),
            Some(0x1335_5779),
        );
        // The halfword cost vector is computed under the halfword scheme by
        // the engine, but even with the byte cost vector the width halves
        // the execute occupancy.
        assert_eq!(byte.occupancy(Stage::Execute, &wide), 4);
        assert_eq!(half.occupancy(Stage::Execute, &wide), 2);
    }

    #[test]
    fn semi_parallel_matches_the_paper_bandwidths() {
        let org = Organization::new(OrgKind::SemiParallel);
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x0101_0101),
            Some(0x1335_5779),
        );
        assert_eq!(org.occupancy(Stage::RegRead, &wide), 1);
        assert_eq!(org.occupancy(Stage::Execute, &wide), 2); // 4 bytes / 2
        let wide_load = load_cost(0x1234_5678);
        assert_eq!(org.occupancy(Stage::Memory, &wide_load), 4); // 1 byte/cycle
    }

    #[test]
    fn skewed_stages_are_single_cycle_but_deeper() {
        let org = Organization::new(OrgKind::ParallelSkewed);
        assert_eq!(org.depth(), 7);
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x0101_0101),
            Some(0x1335_5779),
        );
        for &s in org.stages() {
            assert_eq!(org.occupancy(s, &wide), 1);
        }
        assert_eq!(org.branch_resolve_stage(&wide), Stage::ExecuteHi);
    }

    #[test]
    fn compressed_pays_extra_cycles_only_for_wide_data() {
        let org = Organization::new(OrgKind::ParallelCompressed);
        let narrow = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(5),
            Some(9),
            Some(14),
        );
        assert_eq!(org.occupancy(Stage::RegRead, &narrow), 1);
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(2),
            Some(0x1234_567a),
        );
        assert_eq!(org.occupancy(Stage::RegRead, &wide), 2);
        assert_eq!(org.occupancy(Stage::Memory, &load_cost(5)), 1);
        assert_eq!(org.occupancy(Stage::Memory, &load_cost(0x1234_5678)), 2);
    }

    #[test]
    fn bypass_org_detects_short_operands() {
        let org = Organization::new(OrgKind::SkewedBypass);
        let narrow = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(5),
            Some(9),
            Some(14),
        );
        assert!(org.is_short_operand(&narrow));
        assert_eq!(org.branch_resolve_stage(&narrow), Stage::Execute);
        assert_eq!(org.load_result_stage(), Stage::Memory);
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(9),
            Some(0x1234_5681),
        );
        assert!(!org.is_short_operand(&wide));
        assert_eq!(org.branch_resolve_stage(&wide), Stage::ExecuteHi);
        // ALU results stream forward from the low execute stage either way.
        assert_eq!(org.alu_result_stage(), Stage::Execute);
    }

    #[test]
    fn four_byte_instructions_need_an_extra_fetch_cycle() {
        let org = Organization::new(OrgKind::ByteSerial);
        // nor is not one of the hot recoded functs → 4 fetch bytes.
        let cold = cost_of(
            Instruction::r3(Op::Nor, T0, T1, T2),
            Some(1),
            Some(2),
            Some(!(3u32)),
        );
        assert_eq!(org.occupancy(Stage::Fetch, &cold), 2);
    }

    #[test]
    fn lane_budgets_cover_every_stage_and_only_the_baseline_never_gates() {
        for org in Organization::all() {
            assert_eq!(
                org.gates_lanes(),
                org.kind() != OrgKind::Baseline32,
                "{}",
                org.name()
            );
            for &stage in org.stages() {
                assert!(org.lane_bytes(stage) > 0, "{} {stage:?}", org.name());
            }
        }
        // The paper's §5 widths: 3 fetch bytes, 2-byte ALU, 1-byte D-cache.
        let semi = Organization::new(OrgKind::SemiParallel);
        assert_eq!(semi.lane_bytes(Stage::Fetch), 3);
        assert_eq!(semi.lane_bytes(Stage::Execute), 2);
        assert_eq!(semi.lane_bytes(Stage::Memory), 1);
        assert_eq!(
            Organization::new(OrgKind::Baseline32).lane_bytes(Stage::Fetch),
            4
        );
    }

    #[test]
    fn stage_used_bytes_follow_the_cost_vector() {
        let wide = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(0x1234_5678),
            Some(0x0101_0101),
            Some(0x1335_5779),
        );
        let narrow = cost_of(
            Instruction::r3(Op::Addu, T0, T1, T2),
            Some(5),
            Some(9),
            Some(14),
        );
        let serial = Organization::new(OrgKind::ByteSerial);
        assert_eq!(serial.stage_used_bytes(Stage::Fetch, &narrow), 3);
        assert_eq!(serial.stage_used_bytes(Stage::RegRead, &narrow), 2);
        assert_eq!(serial.stage_used_bytes(Stage::RegRead, &wide), 8);
        assert_eq!(serial.stage_used_bytes(Stage::Execute, &wide), 4);
        assert_eq!(serial.stage_used_bytes(Stage::Writeback, &narrow), 1);
        // A non-memory instruction uses no data-cache lanes at all.
        assert_eq!(serial.stage_used_bytes(Stage::Memory, &wide), 0);
        assert_eq!(
            serial.stage_used_bytes(Stage::Memory, &load_cost(0x1234_5678)),
            4
        );

        // The skewed pair splits the work: low half first, remainder above.
        let skewed = Organization::new(OrgKind::ParallelSkewed);
        assert_eq!(skewed.stage_used_bytes(Stage::Execute, &wide), 2);
        assert_eq!(skewed.stage_used_bytes(Stage::ExecuteHi, &wide), 2);
        assert_eq!(skewed.stage_used_bytes(Stage::Execute, &narrow), 1);
        assert_eq!(skewed.stage_used_bytes(Stage::ExecuteHi, &narrow), 0);
        let wide_load = load_cost(0x1234_5678);
        assert_eq!(skewed.stage_used_bytes(Stage::Memory, &wide_load), 2);
        assert_eq!(skewed.stage_used_bytes(Stage::MemoryHi, &wide_load), 2);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Organization::all().len(), 7);
        assert_eq!(
            Organization::new(OrgKind::SemiParallel).to_string(),
            "byte semi-parallel"
        );
        for org in Organization::all() {
            assert!(!org.name().is_empty());
            assert!(org.stage_index(Stage::Fetch) == Some(0));
            assert!(org.stage_index(Stage::Writeback).is_some());
        }
        assert_eq!(
            Organization::new(OrgKind::Baseline32).stage_index(Stage::ExecuteHi),
            None
        );
    }
}
