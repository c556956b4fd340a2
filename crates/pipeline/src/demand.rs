//! One record's organization-invariant stage demand.
//!
//! The organizations of §4–§6 differ only in their per-stage lane widths
//! and skew: in every one of them a stage's occupancy is a ceiling of the
//! same few significant-byte counts divided by a width, and its powered
//! lanes are one of a few byte counts. Those counts, plus two extra-cycle
//! flags, form the record's [`DemandClass`]; [`StageDemand::new`] derives
//! every candidate from it once, and an [`Organization`](crate::Organization)
//! only names, per stage, which candidate it takes ([`OccRule`],
//! [`LaneRule`]).
//!
//! Each per-record quantity depends on one axis of the design space:
//!
//! * the demand, and the count of its class in a [`DemandClasses`], depend
//!   only on the scheme (through the cost vector);
//! * the miss penalties ([`MissPenalty`]) depend only on the memory
//!   hierarchy's walk;
//! * the stage occupancies the recurrence reads
//!   ([`StageOccupancy`](crate::StageOccupancy)) depend on the demand and
//!   the organization: one gather per `(scheme, organization)`
//!   ([`StageRules::occupancy`](crate::StageRules::occupancy));
//! * only the pipeline recurrence
//!   ([`PipelineSim::observe_demand`](crate::PipelineSim::observe_demand))
//!   needs the demand, the penalties and the organization together.
//!
//! The lane budgets are no per-record work at all: each organization folds
//! them from its scheme's class counts, and adds the summed penalties, only
//! when it reports (see the `lanes` module).
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

/// A record's demand class: the five significant-byte counts and the two
/// extra-cycle flags every candidate stage occupancy ([`OccRule`]) and
/// used-lane count ([`LaneRule`]) derives from, packed into one key.
///
/// The fields are the fetched bytes, the operand bytes read from both
/// register ports, the execute bytes (up to 16 for a multiply or divide),
/// the data-cache bytes and the result bytes, one byte each, then the
/// compressed register read's and the compressed load's extra cycle. The
/// candidate arrays are derived from the key alone ([`occupancies`],
/// [`lanes`](DemandClass::lanes)), so two records of one class stream the
/// same bytes through every stage of every organization, and a stream's
/// lane budgets follow from how often each class occurs
/// ([`DemandClasses`]).
///
/// [`occupancies`]: DemandClass::occupancies
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DemandClass(u64);

impl DemandClass {
    const FETCH: u32 = 0;
    const REG_READ: u32 = 8;
    const EX: u32 = 16;
    const MEM: u32 = 24;
    const WB: u32 = 32;
    /// Operands extending beyond the low halfword: the compressed register
    /// read needs one extra cycle.
    const REG_READ_EXTRA: u64 = 1 << 40;
    /// A load whose value extends beyond the low halfword: the compressed
    /// data cache needs one extra cycle.
    const LOAD_EXTRA: u64 = 1 << 41;

    /// The class of an instruction whose cost vector is `cost`.
    #[inline]
    pub(crate) fn new(cost: &InstrCost) -> Self {
        // Bytes the execute stage must stream through: the ALU byte slices
        // it operates, but never fewer than the operand bytes it has to
        // receive from the skewed register read.
        let ex = cost.alu_bytes().max(cost.max_operand_bytes());
        // Stores write all significant bytes plus the extension bits in one
        // burst, like loads; an instruction without an access moves none.
        let mem = cost.mem.map_or(0, |m| m.sig_bytes);
        let field = |bytes: u8, at: u32| u64::from(bytes) << at;
        let flag = |set: bool, bit: u64| if set { bit } else { 0 };
        DemandClass(
            field(cost.fetch.fetch_bytes, Self::FETCH)
                | field(cost.regfile_read_bytes(), Self::REG_READ)
                | field(ex, Self::EX)
                | field(mem, Self::MEM)
                | field(cost.result_bytes.unwrap_or(0), Self::WB)
                | flag(cost.max_operand_bytes() > 2, Self::REG_READ_EXTRA)
                | flag(
                    cost.mem.is_some_and(|m| !m.is_store && m.sig_bytes > 2),
                    Self::LOAD_EXTRA,
                ),
        )
    }

    fn bytes(self, at: u32) -> u32 {
        u32::from((self.0 >> at) as u8)
    }

    fn extra(self, bit: u64) -> u32 {
        u32::from(self.0 & bit != 0)
    }

    /// Every candidate occupancy (in cycles, excluding miss penalties) of
    /// the class, indexed by [`OccRule`].
    #[inline]
    pub(crate) fn occupancies(self) -> [u32; OccRule::COUNT] {
        let ex = self.bytes(Self::EX);
        let mem = self.bytes(Self::MEM);
        let wb = self.bytes(Self::WB);
        [
            1,
            cycles(self.bytes(Self::FETCH), 3),
            cycles(ex, 1),
            cycles(ex, 2),
            cycles(mem, 1),
            cycles(mem, 2),
            cycles(wb, 1),
            cycles(wb, 2),
            1 + self.extra(Self::REG_READ_EXTRA),
            1 + self.extra(Self::LOAD_EXTRA),
        ]
    }

    /// Every candidate count of significant bytes the class streams through
    /// a stage, indexed by [`LaneRule`].
    pub(crate) fn lanes(self) -> [u32; LaneRule::COUNT] {
        let ex = self.bytes(Self::EX);
        let mem = self.bytes(Self::MEM);
        [
            self.bytes(Self::FETCH),
            self.bytes(Self::REG_READ),
            ex,
            ex.min(2),
            ex.saturating_sub(2),
            mem,
            mem.min(2),
            mem.saturating_sub(2),
            self.bytes(Self::WB),
        ]
    }
}

/// Cycles to stream `bytes` through a stage `width` bytes wide; a stage
/// holds every instruction for at least one cycle.
fn cycles(bytes: u32, width: u32) -> u32 {
    bytes.div_ceil(width).max(1)
}

/// How often each [`DemandClass`] occurs in one scheme's record stream.
///
/// A stage's lane budget over a stream is a sum over its records of a
/// function of the record's class, so counting the classes once per scheme
/// lets every organization fold its budgets from the counts when it reports
/// ([`StageRules`](crate::StageRules)) instead of summing them per record.
/// A stream has few distinct classes; they live in a small open-addressed
/// table that grows as needed.
#[derive(Debug, Clone, Default)]
pub struct DemandClasses {
    /// `(class key | OCCUPIED, count)`; an empty slot is all zero. The
    /// length is zero or a power of two.
    slots: Vec<(u64, u64)>,
    /// Occupied slots.
    len: usize,
}

impl DemandClasses {
    /// Marks an occupied slot; no class key reaches this bit.
    const OCCUPIED: u64 = 1 << 63;

    /// An empty count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one record's class.
    #[inline]
    pub fn observe(&mut self, demand: &StageDemand) {
        self.add(demand.class, 1);
    }

    fn add(&mut self, class: DemandClass, count: u64) {
        if 2 * self.len >= self.slots.len() {
            self.grow();
        }
        let key = class.0 | Self::OCCUPIED;
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                slot.1 += count;
                return;
            }
            if slot.0 == 0 {
                *slot = (key, count);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let capacity = (2 * self.slots.len()).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); capacity]);
        self.len = 0;
        for (key, count) in old {
            if key != 0 {
                self.add(DemandClass(key & !Self::OCCUPIED), count);
            }
        }
    }

    /// Every class counted, with its count, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DemandClass, u64)> + '_ {
        self.slots
            .iter()
            .filter(|&&(key, _)| key != 0)
            .map(|&(key, count)| (DemandClass(key & !Self::OCCUPIED), count))
    }
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
/// timing model needs from it under one scheme: its [`DemandClass`] and the
/// candidate stage occupancies derived from it, the register slots it reads
/// and writes, and its control-flow flags.
///
/// Nothing in it depends on the memory hierarchy: the walk's miss penalties
/// travel beside it as a [`MissPenalty`]. Build it once per record and
/// scheme with [`StageDemand::new`]; count it once in the scheme's
/// [`DemandClasses`]; read each organization's [`StageOccupancy`] from it
/// once through that organization's [`StageRules`]; and feed it, with that
/// occupancy, to every [`PipelineSim`](crate::PipelineSim) of the
/// organization under every memory hierarchy through
/// [`observe_demand`](crate::PipelineSim::observe_demand). It is a plain
/// stack value: building one allocates nothing.
///
/// [`StageOccupancy`]: crate::StageOccupancy
/// [`StageRules`]: crate::StageRules
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDemand {
    /// The class every candidate is derived from.
    pub(crate) class: DemandClass,
    /// The class's candidate occupancies, widened for the recurrence.
    pub(crate) occupancy: [u64; OccRule::COUNT],
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
        let class = DemandClass::new(cost);
        StageDemand {
            class,
            occupancy: class.occupancies().map(u64::from),
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
