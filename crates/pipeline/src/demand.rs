//! One record's organization-invariant stage demand.
//!
//! The organizations of §4–§6 differ only in their per-stage lane widths
//! and skew: in every one of them a stage's occupancy is a ceiling of the
//! same few significant-byte counts divided by a width, and its powered
//! lanes are one of a few byte counts. [`StageDemand::new`] distils a
//! record and its cost vector into all of those candidates once; an
//! [`Organization`](crate::Organization) only names, per stage, which
//! candidate it takes ([`OccRule`], [`LaneRule`]).
//!
//! Each per-record quantity depends on one axis of the design space:
//!
//! * the demand depends only on the scheme (through the cost vector);
//! * the miss penalties ([`MissPenalty`]) depend only on the memory
//!   hierarchy's walk;
//! * the lane budgets ([`LaneTally`](crate::LaneTally)) and the stage
//!   occupancies the recurrence reads
//!   ([`StageOccupancy`](crate::StageOccupancy)) depend on the demand and
//!   the organization, so one tally per `(scheme, organization)` reads
//!   them, and folds the summed penalties into the budgets only at the
//!   end;
//! * only the pipeline recurrence
//!   ([`PipelineSim::observe_demand`](crate::PipelineSim::observe_demand))
//!   needs the demand, the penalties and the organization together.
//!
//! A sweep timing several organizations, schemes and hierarchies over one
//! record stream therefore derives each quantity once per record at the
//! level it depends on.

use sigcomp::cost::InstrCost;
use sigcomp::InstrAccess;
use sigcomp_isa::{ExecRecord, Op, Reg};

/// Which candidate occupancy a stage takes; indexes [`occupancies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OccRule {
    /// A single cycle.
    One,
    /// Fetch from three byte-wide I-cache banks: ⌈fetch bytes / 3⌉.
    Fetch3,
    /// The execute bytes streamed one byte per cycle.
    Ex1,
    /// The execute bytes streamed one halfword per cycle.
    Ex2,
    /// The data-cache bytes moved one byte per cycle.
    Mem1,
    /// The data-cache bytes moved one halfword per cycle.
    Mem2,
    /// The result bytes written back one byte per cycle.
    Wb1,
    /// The result bytes written back one halfword per cycle.
    Wb2,
    /// Compressed register read: the low-order bytes and the extension bits
    /// come out in the first cycle; operands that extend beyond the low
    /// halfword need one extra cycle to read the remaining bytes in
    /// parallel.
    RegReadCompressed,
    /// Compressed data cache: a load whose value extends beyond the low
    /// halfword needs one extra cycle.
    LoadCompressed,
}

impl OccRule {
    /// Number of candidates.
    pub(crate) const COUNT: usize = OccRule::LoadCompressed as usize + 1;
}

/// Which candidate used-lane byte count a stage takes; indexes [`lanes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneRule {
    /// The fetched instruction bytes.
    Fetch,
    /// The operand bytes read from both register ports.
    RegRead,
    /// The execute bytes.
    Ex,
    /// The execute bytes in the low-order half of a split datapath.
    ExLo,
    /// The execute bytes above the low-order half.
    ExHi,
    /// The data-cache bytes.
    Mem,
    /// The data-cache bytes in the low-order half of a split datapath.
    MemLo,
    /// The data-cache bytes above the low-order half.
    MemHi,
    /// The result bytes written back.
    Wb,
}

impl LaneRule {
    /// Number of candidates.
    pub(crate) const COUNT: usize = LaneRule::Wb as usize + 1;
}

/// Bytes the execute stage must stream through for one instruction: the ALU
/// byte slices it operates, but never fewer than the operand bytes it has to
/// receive from the skewed register read.
fn serial_ex_bytes(cost: &InstrCost) -> u32 {
    u32::from(cost.alu_bytes().max(cost.max_operand_bytes()))
}

/// Significant bytes moved between the pipeline and the data cache (zero
/// for an instruction without a memory access). Stores write all significant
/// bytes plus the extension bits in one burst, like loads.
fn mem_bytes(cost: &InstrCost) -> u32 {
    cost.mem.map_or(0, |m| u32::from(m.sig_bytes))
}

/// Cycles to stream `bytes` through a stage `width` bytes wide; a stage
/// holds every instruction for at least one cycle.
fn cycles(bytes: u32, width: u32) -> u32 {
    bytes.div_ceil(width).max(1)
}

/// Every candidate occupancy (in cycles, excluding miss penalties) of one
/// instruction, indexed by [`OccRule`].
pub(crate) fn occupancies(cost: &InstrCost) -> [u32; OccRule::COUNT] {
    let ex = serial_ex_bytes(cost);
    let mem = mem_bytes(cost);
    let wb = u32::from(cost.result_bytes.unwrap_or(0));
    [
        1,
        cycles(u32::from(cost.fetch.fetch_bytes), 3),
        cycles(ex, 1),
        cycles(ex, 2),
        cycles(mem, 1),
        cycles(mem, 2),
        cycles(wb, 1),
        cycles(wb, 2),
        1 + u32::from(cost.max_operand_bytes() > 2),
        match cost.mem {
            Some(m) if !m.is_store => 1 + u32::from(m.sig_bytes > 2),
            _ => 1,
        },
    ]
}

/// Every candidate count of significant bytes one instruction streams
/// through a stage, indexed by [`LaneRule`].
pub(crate) fn lanes(cost: &InstrCost) -> [u32; LaneRule::COUNT] {
    let ex = serial_ex_bytes(cost);
    let mem = mem_bytes(cost);
    [
        u32::from(cost.fetch.fetch_bytes),
        u32::from(cost.regfile_read_bytes()),
        ex,
        ex.min(2),
        ex.saturating_sub(2),
        mem,
        mem.min(2),
        mem.saturating_sub(2),
        u32::from(cost.result_bytes.unwrap_or(0)),
    ]
}

/// Whether an instruction is "short" for the bypass paths of the
/// skewed-with-bypasses organization: every operand, result and ALU slice
/// fits in the low-order half of the datapath.
pub(crate) fn is_short_operand(cost: &InstrCost) -> bool {
    cost.max_operand_bytes() <= 2
        && cost.alu_bytes() <= 2
        && cost.result_bytes.unwrap_or(1) <= 2
        && cost.mem.is_none_or(|m| m.sig_bytes <= 2)
}

/// Register-ready slot every absent source reads: the zero register is
/// never a destination, so its slot always holds 0.
pub(crate) const ZERO_SLOT: usize = 0;
/// Register-ready slot an instruction without a destination writes.
pub(crate) const SINK_SLOT: usize = 32;

/// One retired instruction distilled into everything any organization's
/// timing model needs from it under one scheme: the candidate stage
/// occupancies and used-lane bytes, the register slots it reads and writes,
/// and its control-flow flags.
///
/// Nothing in it depends on the memory hierarchy: the walk's miss penalties
/// travel beside it as a [`MissPenalty`]. Build it once per record and
/// scheme with [`StageDemand::new`] and feed it to every
/// [`PipelineSim`](crate::PipelineSim) of the scheme, under every memory
/// hierarchy, through [`observe_demand`](crate::PipelineSim::observe_demand),
/// and to one [`LaneTally`](crate::LaneTally) per organization. It is a
/// plain stack value: building one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDemand {
    pub(crate) occupancy: [u64; OccRule::COUNT],
    pub(crate) lanes: [u64; LaneRule::COUNT],
    /// Register-ready slots of the two sources ([`ZERO_SLOT`] if absent).
    pub(crate) src: [usize; 2],
    /// Register-ready slot of the destination ([`SINK_SLOT`] if none).
    pub(crate) dest: usize,
    pub(crate) is_load: bool,
    pub(crate) short_operand: bool,
    pub(crate) is_branch: bool,
    pub(crate) taken: bool,
    /// A register-indirect jump (`jr`/`jalr`), resolved in execute.
    pub(crate) indirect_jump: bool,
    /// Any unconditional jump.
    pub(crate) is_jump: bool,
    pub(crate) pc: u32,
}

impl StageDemand {
    /// Distils `rec`, whose cost vector is `cost`.
    #[must_use]
    pub fn new(rec: &ExecRecord, cost: &InstrCost) -> Self {
        let slot = |reg: Option<Reg>| reg.map_or(ZERO_SLOT, usize::from);
        let (rs, rt) = rec.instr.src_regs();
        StageDemand {
            occupancy: occupancies(cost).map(u64::from),
            lanes: lanes(cost).map(u64::from),
            src: [slot(rs), slot(rt)],
            dest: rec.instr.dest_reg().map_or(SINK_SLOT, usize::from),
            is_load: rec.instr.op.is_load(),
            short_operand: is_short_operand(cost),
            is_branch: cost.is_branch,
            taken: cost.taken,
            indirect_jump: matches!(rec.instr.op, Op::Jr | Op::Jalr),
            is_jump: cost.is_jump,
            pc: rec.pc,
        }
    }
}

/// The cycles one record's walk through a memory hierarchy adds to the
/// fetch stage (an I-cache/I-TLB miss) and to the low-order memory stage (a
/// D-cache/D-TLB miss) of every organization.
///
/// Build it once per record and hierarchy with [`MissPenalty::new`] and
/// pass it beside the record's [`StageDemand`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissPenalty {
    /// Extra fetch cycles.
    pub(crate) fetch: u64,
    /// Extra memory-stage cycles.
    pub(crate) data: u64,
}

impl MissPenalty {
    /// The penalties of the walk `access`.
    #[must_use]
    #[inline]
    pub fn new(access: &InstrAccess) -> Self {
        MissPenalty {
            fetch: u64::from(access.fetch.latency.saturating_sub(1)),
            data: access
                .data
                .map_or(0, |d| u64::from(d.latency.saturating_sub(1))),
        }
    }
}
