//! The in-order pipeline timing engine.
//!
//! The engine is trace-driven: it consumes retired instructions (with their
//! operand values) in program order and computes, for each instruction, the
//! cycle at which it enters every stage of the chosen
//! [`Organization`](crate::Organization). Three kinds of constraints delay an
//! instruction:
//!
//! * **structural** — a stage still busy processing the previous
//!   instruction's bytes (the dominant effect in the serial organizations),
//! * **data hazards** — source operands bypassed from a producer that has not
//!   yet reached its producing stage (loads produce later than ALU results;
//!   the skewed organizations produce later than the five-stage ones),
//! * **control** — there is no branch prediction, so fetch stalls until a
//!   branch resolves in the execute stage (§3 of the paper).
//!
//! Cache and TLB misses lengthen the fetch/memory occupancy of the
//! instruction that suffers them, using the hierarchy parameters of §3.
//!
//! The per-record work splits by the axis it depends on (see the
//! [crate docs](crate)): a [`StageDemand`] per scheme, counted once in the
//! scheme's [`DemandClasses`]; a [`MissPenalty`] per memory hierarchy; a
//! [`StageOccupancy`] per `(scheme, organization)`, read from the demand by
//! the organization's [`StageRules`]; and only the pipeline recurrence —
//! [`PipelineSim::observe_demand`]: enter and busy times, stalls, register
//! readiness and the control-flow bound — per timed configuration. A
//! [`PipelineSim`] never re-derives the demand; at construction it caches
//! where its result-producing and branch-resolving stages sit, so the
//! recurrence only indexes the demand and the occupancies. Lane budgets
//! are folded from the class counts when the simulator reports
//! ([`PipelineSim::result_with`]).
//!
//! A simulator with a hierarchy of its own ([`PipelineSim::new`],
//! [`PipelineSim::with_config`]) composes the same pieces per record: it
//! walks its hierarchy, builds the demand and the penalty, counts the
//! demand's class, reads its occupancy and runs the recurrence.

use crate::demand::{DemandClasses, MissPenalty, StageDemand, SINK_SLOT};
use crate::lanes::{StageOccupancy, StageRules};
use crate::organization::{Organization, Stage};
use crate::predictor::BimodalPredictor;
use sigcomp::cost::{instr_cost, InstrCost};
use sigcomp::{FunctRecoder, InstrAccess};
use sigcomp_isa::ExecRecord;
use sigcomp_mem::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
use std::fmt;

/// Cycles lost to each cause, for the bottleneck study of §5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Stall cycles charged to each stage being busy with the previous
    /// instruction, indexed like the organization's stage list.
    pub structural: [u64; 7],
    /// Stall cycles waiting for source operands.
    pub data_hazard: u64,
    /// Stall cycles waiting for branch/jump resolution.
    pub control: u64,
}

impl StallBreakdown {
    /// Total stall cycles.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.structural.iter().sum::<u64>() + self.data_hazard + self.control
    }

    /// Fraction of all stall cycles charged to structural hazards in the
    /// execute stage (the paper reports 72 % for the byte-serial pipeline).
    #[must_use]
    pub fn execute_structural_fraction(&self, org: &Organization) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let ex: u64 = [Stage::Execute, Stage::ExecuteHi]
            .iter()
            .filter_map(|&s| org.stage_index(s))
            .map(|i| self.structural[i])
            .sum();
        ex as f64 / total as f64
    }
}

/// The result of simulating one trace on one organization.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Organization name (for reports).
    pub organization: String,
    /// Retired instructions.
    pub instructions: u64,
    /// Total cycles until the last instruction left the pipeline.
    pub cycles: u64,
    /// Stall attribution.
    pub stalls: StallBreakdown,
    /// Memory-hierarchy counters accumulated during the run (all zero for a
    /// simulator built [`PipelineSim::with_external_hierarchy`]).
    pub hierarchy: HierarchyStats,
    /// Conditional branches executed.
    pub branches: u64,
    /// Branch mispredictions (zero when prediction is disabled — every
    /// branch then pays the full resolution stall, as in the paper).
    pub mispredictions: u64,
    /// Byte-lane-cycles each stage powered off because the extension bits
    /// marked the lanes insignificant, indexed like the organization's stage
    /// list (all zero for the 32-bit baseline, which cannot gate).
    pub gated_byte_cycles: [u64; 7],
    /// Byte-lane-cycles each stage was occupied for in total
    /// (`lane width × occupancy`, including miss penalties), indexed like
    /// the organization's stage list.
    pub total_byte_cycles: [u64; 7],
}

impl SimResult {
    /// Fraction of all stage lane-cycles that were gated off; zero when
    /// nothing was simulated (and for the baseline organization).
    #[must_use]
    pub fn gated_fraction(&self) -> f64 {
        let total: u64 = self.total_byte_cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.gated_byte_cycles.iter().sum::<u64>() as f64 / total as f64
        }
    }

    /// Cycles per instruction.
    #[must_use]
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// CPI of this result relative to a baseline result (1.0 = identical,
    /// 1.79 = 79 % higher, as the paper quotes).
    #[must_use]
    pub fn relative_cpi(&self, baseline: &SimResult) -> f64 {
        if baseline.cpi() == 0.0 {
            0.0
        } else {
            self.cpi() / baseline.cpi()
        }
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instructions, {} cycles, CPI {:.3}",
            self.organization,
            self.instructions,
            self.cycles,
            self.cpi()
        )
    }
}

/// A streaming cycle-level simulator for one pipeline organization.
///
/// Feed retired instructions with [`PipelineSim::observe`] (directly from the
/// interpreter, a stored [`Trace`](sigcomp_isa::Trace) or the statistical
/// synthesizer) and call [`PipelineSim::finish`] for the [`SimResult`].
/// Callers that time several organizations, schemes or hierarchies over one
/// record stream walk each hierarchy once, distil each record into one
/// [`StageDemand`] per scheme and count it in the scheme's
/// [`DemandClasses`], read occupancies through one [`StageRules`] per
/// `(scheme, organization)`, feed every simulator through
/// [`PipelineSim::observe_demand`] and report through
/// [`PipelineSim::result_with`].
#[derive(Debug, Clone)]
pub struct PipelineSim {
    org: Organization,
    recoder: FunctRecoder,
    /// The simulator's own hierarchy; `None` when the caller walks a shared
    /// one ([`PipelineSim::with_external_hierarchy`]).
    hierarchy: Option<MemoryHierarchy>,
    /// The organization's stage rules: the occupancy gather of
    /// [`observe_with_access`](PipelineSim::observe_with_access) and the
    /// lane-budget fold of every report.
    rules: StageRules,
    /// The demand classes of the records fed through
    /// [`observe_with_access`](PipelineSim::observe_with_access).
    classes: DemandClasses,
    /// Pipeline depth, cached so the hot loop never re-asks the organization.
    depth: usize,
    /// Index of the (low-order) execute stage.
    ex_index: usize,
    /// Index of the (low-order) memory stage.
    mem_index: usize,
    /// Index of the register-read stage, where direct jumps resolve.
    reg_read_index: usize,
    /// Indices of the stages that publish a result for bypass: an ALU
    /// result's, then a load value's.
    produce_index: [usize; 2],
    /// Indices of the branch-resolving stage for a long and for a short
    /// instruction ([`Organization::resolve_stages`]).
    resolve_index: [usize; 2],
    /// Enter times of the previous instruction, per stage, and an
    /// always-zero slot past the deepest stage.
    prev_enter: [u64; 8],
    /// Busy-until times of the previous instruction, per stage.
    prev_busy: [u64; 7],
    /// Cycle at which each architectural register's latest value is available
    /// for bypass, plus a sink slot written by instructions without a
    /// destination ([`SINK_SLOT`]).
    reg_ready: [u64; SINK_SLOT + 1],
    /// Earliest cycle the next instruction may be fetched (control hazards).
    fetch_allowed: u64,
    /// Optional branch predictor (the paper's future-work extension).
    predictor: Option<BimodalPredictor>,
    instructions: u64,
    completion: u64,
    branches: u64,
    mispredictions: u64,
    stalls: StallBreakdown,
    /// Miss-penalty cycles summed over the records: fetch, then memory.
    penalty: [u64; 2],
}

impl PipelineSim {
    /// Creates a simulator with the paper's memory-hierarchy parameters and
    /// the default function-code recoding.
    #[must_use]
    pub fn new(org: Organization) -> Self {
        Self::with_config(
            org,
            &HierarchyConfig::paper(),
            FunctRecoder::paper_default(),
        )
    }

    /// Creates a simulator with explicit hierarchy parameters and recoding.
    #[must_use]
    pub fn with_config(
        org: Organization,
        hierarchy: &HierarchyConfig,
        recoder: FunctRecoder,
    ) -> Self {
        PipelineSim {
            hierarchy: Some(MemoryHierarchy::new(hierarchy)),
            ..Self::with_external_hierarchy(org, recoder)
        }
    }

    /// Creates a simulator without a memory hierarchy of its own, for
    /// callers that walk one shared hierarchy and feed the outcome to
    /// [`PipelineSim::observe_with_access`] or
    /// [`PipelineSim::observe_demand`]. Such a simulator cannot
    /// [`observe`](PipelineSim::observe) on its own, and its
    /// [`SimResult::hierarchy`] is all zero — the counters live in the
    /// caller's hierarchy.
    #[must_use]
    pub fn with_external_hierarchy(org: Organization, recoder: FunctRecoder) -> Self {
        let index = |stage: Stage| {
            org.stage_index(stage)
                .unwrap_or_else(|| panic!("every organization has a {stage:?} stage"))
        };
        PipelineSim {
            hierarchy: None,
            recoder,
            rules: StageRules::new(&org),
            classes: DemandClasses::new(),
            depth: org.depth(),
            ex_index: index(Stage::Execute),
            mem_index: index(Stage::Memory),
            reg_read_index: index(Stage::RegRead),
            produce_index: [
                index(org.alu_result_stage()),
                index(org.load_result_stage()),
            ],
            resolve_index: org.resolve_stages().map(index),
            prev_enter: [0; 8],
            prev_busy: [0; 7],
            reg_ready: [0; SINK_SLOT + 1],
            fetch_allowed: 0,
            predictor: None,
            instructions: 0,
            completion: 0,
            branches: 0,
            mispredictions: 0,
            stalls: StallBreakdown::default(),
            penalty: [0; 2],
            org,
        }
    }

    /// Enables a bimodal branch predictor with the given number of two-bit
    /// counters. The paper's machines stall every branch until it resolves
    /// (§3); enabling prediction explores the "implications of branch
    /// prediction" the paper leaves to future study: correctly predicted
    /// branches no longer stall fetch, mispredicted ones still pay the full
    /// resolution latency.
    #[must_use]
    pub fn with_branch_prediction(mut self, entries: usize) -> Self {
        self.predictor = Some(BimodalPredictor::new(entries));
        self
    }

    /// The organization being simulated.
    #[must_use]
    pub fn organization(&self) -> &Organization {
        &self.org
    }

    /// Number of instructions observed so far.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Feeds one retired instruction through the timing model.
    pub fn observe(&mut self, rec: &ExecRecord) {
        let cost = instr_cost(rec, self.org.scheme(), &self.recoder);
        self.observe_with_cost(rec, &cost);
    }

    /// [`PipelineSim::observe`] with the record's [`InstrCost`] supplied by
    /// the caller — for drivers that also feed an activity model and want to
    /// distil the record once instead of once per model. The cost must come
    /// from `instr_cost(rec, ...)` under this simulator's scheme and
    /// recoder, or the timing is meaningless.
    ///
    /// # Panics
    ///
    /// If the simulator was built without a hierarchy of its own
    /// ([`PipelineSim::with_external_hierarchy`]).
    pub fn observe_with_cost(&mut self, rec: &ExecRecord, cost: &InstrCost) {
        let hierarchy = self
            .hierarchy
            .as_mut()
            .expect("an external-hierarchy simulator is fed through observe_with_access");
        let access = InstrAccess::walk(hierarchy, rec);
        self.observe_with_access(rec, cost, &access);
    }

    /// [`PipelineSim::observe_with_cost`] with the record's walk through the
    /// memory hierarchy supplied by the caller: its fetch and data
    /// latencies lengthen the fetch and memory stages. The walk must come
    /// from [`InstrAccess::walk`] over the hierarchy this organization is
    /// timed against, fed the same record stream — one walk can then serve
    /// every organization of a sweep.
    pub fn observe_with_access(
        &mut self,
        rec: &ExecRecord,
        cost: &InstrCost,
        access: &InstrAccess,
    ) {
        let demand = StageDemand::new(rec, cost);
        self.classes.observe(&demand);
        let occupancy = self.rules.occupancy(&demand);
        self.observe_demand(&demand, &occupancy, &MissPenalty::new(access));
    }

    /// Runs the pipeline recurrence for one retired instruction: its
    /// [`StageDemand`], built from a cost vector under this simulator's
    /// scheme and recoder; its `occupancy` of this organization's stages,
    /// read from the demand by the organization's [`StageRules`]; and
    /// `penalty`, from the walk of the hierarchy it is timed against. One
    /// demand serves every organization of a scheme and one occupancy every
    /// hierarchy; one penalty serves every scheme and organization of a
    /// hierarchy.
    ///
    /// Lane budgets are not part of the recurrence: the caller counts the
    /// demand's class in the scheme's [`DemandClasses`], and the simulator
    /// reports through [`PipelineSim::result_with`].
    ///
    /// This is the replay hot loop: the organization's choices are stage
    /// positions cached at construction and every per-record quantity is a
    /// lookup in the demand or the occupancies — no heap allocation and no
    /// per-stage match per record.
    pub fn observe_demand(
        &mut self,
        demand: &StageDemand,
        occupancy: &StageOccupancy,
        penalty: &MissPenalty,
    ) {
        debug_assert_eq!(occupancy.kind, self.org.kind());
        let depth = self.depth;
        self.penalty[0] += penalty.fetch;
        self.penalty[1] += penalty.data;

        // Per-stage occupancy, including cache/TLB miss penalties.
        let mut occ = occupancy.cycles;
        occ[0] += penalty.fetch;
        occ[self.mem_index] += penalty.data;

        // Source operands are bypassed into the execute stage.
        let [rs, rt] = demand.src;
        let operands_ready = self.reg_ready[rs].max(self.reg_ready[rt]);

        // A stage may start once the previous instruction has both finished
        // using it and vacated its output latch. Past the deepest stage the
        // latch is always free: that slot of `enter` stays zero.
        let mut enter = [0u64; 8];
        let mut busy = [0u64; 7];

        // Fetch flows as soon as it is vacated; any further delay waits for
        // a branch or jump to resolve.
        let vacated = self.prev_enter[1].max(self.prev_busy[0]);
        enter[0] = vacated.max(self.fetch_allowed);
        busy[0] = enter[0] + occ[0];
        self.stalls.control += enter[0] - vacated;

        for s in 1..depth {
            let vacated = self.prev_enter[s + 1].max(self.prev_busy[s]);
            // Every organization streams: a stage hands the low-order byte
            // (plus extension bits) onward after one cycle even while it
            // stays busy with the remaining bytes (§4: "while later
            // sequential data bytes are being processed, earlier bytes can
            // proceed up the pipeline").
            let flow = enter[s - 1] + 1;
            let hazard = if s == self.ex_index {
                operands_ready
            } else {
                0
            };
            let start = flow.max(vacated).max(hazard);

            // The delay beyond simple flow is a data hazard when the
            // operands bind (they win ties), and structural otherwise. If
            // the previous instruction had already finished its work in
            // this stage but could not advance, the real bottleneck is the
            // stage ahead of it — charge that one (this is how the paper's
            // §5 bottleneck study counts the execute stage as the dominant
            // cause of byte-serial stalls).
            if start > flow {
                let gap = start - flow;
                if start == hazard {
                    self.stalls.data_hazard += gap;
                } else {
                    let blame = s + usize::from(self.prev_enter[s + 1] > self.prev_busy[s]);
                    self.stalls.structural[blame] += gap;
                }
            }

            enter[s] = start;
            busy[s] = start + occ[s];
        }

        // Publish the destination register's bypass-ready time (an
        // instruction without one writes the sink slot).
        self.reg_ready[demand.dest] = busy[self.produce_index[usize::from(demand.is_load)]];

        // Control hazards. Without a predictor (the paper's configuration)
        // the next fetch waits for resolution; with one, only mispredicted
        // branches pay the resolution latency. Direct jumps resolve at
        // decode; indirect jumps always wait for the execute stage.
        let resolved = busy[self.resolve_index[usize::from(demand.short_operand)]];
        if demand.is_branch {
            self.branches += 1;
            let correct = match self.predictor.as_mut() {
                Some(p) => p.update(demand.pc, demand.taken),
                None => false,
            };
            if !correct {
                if self.predictor.is_some() {
                    self.mispredictions += 1;
                }
                self.fetch_allowed = self.fetch_allowed.max(resolved);
            }
        } else if demand.indirect_jump {
            self.fetch_allowed = self.fetch_allowed.max(resolved);
        } else if demand.is_jump {
            self.fetch_allowed = self.fetch_allowed.max(busy[self.reg_read_index]);
        }

        self.completion = self.completion.max(busy[depth - 1]);
        self.prev_enter = enter;
        self.prev_busy = busy;
        self.instructions += 1;
    }

    /// Finishes the simulation and returns the result, with the lane
    /// budgets of the records fed through
    /// [`observe_with_access`](PipelineSim::observe_with_access) or its
    /// wrappers. A simulator fed through
    /// [`observe_demand`](PipelineSim::observe_demand) reports through
    /// [`PipelineSim::result_with`] instead.
    #[must_use]
    pub fn finish(self) -> SimResult {
        self.result_with(&self.classes)
    }

    /// The result so far, with the lane budgets folded from `classes`: the
    /// class counts of the demands fed to
    /// [`PipelineSim::observe_demand`].
    #[must_use]
    pub fn result_with(&self, classes: &DemandClasses) -> SimResult {
        let mut penalty = [0; 7];
        penalty[0] = self.penalty[0];
        penalty[self.mem_index] += self.penalty[1];
        let (gated_byte_cycles, total_byte_cycles) = self.rules.byte_cycles(classes, &penalty);
        SimResult {
            organization: self.org.name().to_owned(),
            instructions: self.instructions,
            cycles: self.completion,
            stalls: self.stalls,
            hierarchy: self
                .hierarchy
                .as_ref()
                .map_or_else(HierarchyStats::default, MemoryHierarchy::stats),
            branches: self.branches,
            mispredictions: self.mispredictions,
            gated_byte_cycles,
            total_byte_cycles,
        }
    }

    /// Convenience: simulates an entire iterator of records.
    #[must_use]
    pub fn run<'a, I: IntoIterator<Item = &'a ExecRecord>>(mut self, records: I) -> SimResult {
        for rec in records {
            self.observe(rec);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::OrgKind;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder, Trace};

    fn counter_trace(iterations: i32) -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, iterations);
        b.dlabel("buf");
        b.space(4096);
        b.la(reg::A0, "buf");
        b.label("loop");
        b.andi(reg::T2, reg::T0, 0x3fc);
        b.addu(reg::T3, reg::A0, reg::T2);
        b.sw(reg::T0, reg::T3, 0);
        b.lw(reg::T4, reg::T3, 0);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        let mut i = Interpreter::new(&b.assemble().unwrap());
        i.run(10_000_000).unwrap()
    }

    fn simulate(kind: OrgKind, trace: &Trace) -> SimResult {
        PipelineSim::new(Organization::new(kind)).run(trace.iter())
    }

    #[test]
    fn baseline_cpi_is_plausible() {
        let trace = counter_trace(2_000);
        let r = simulate(OrgKind::Baseline32, &trace);
        let cpi = r.cpi();
        // One instruction per cycle plus branch stalls, load-use and misses.
        assert!(cpi > 1.05 && cpi < 2.0, "baseline CPI {cpi}");
        assert_eq!(r.instructions, trace.len() as u64);
        assert!(r.cycles > r.instructions);
    }

    #[test]
    fn byte_serial_is_much_slower_than_baseline() {
        let trace = counter_trace(2_000);
        let base = simulate(OrgKind::Baseline32, &trace);
        let byte = simulate(OrgKind::ByteSerial, &trace);
        let rel = byte.relative_cpi(&base);
        assert!(
            rel > 1.3 && rel < 2.6,
            "byte-serial relative CPI {rel} (paper: ≈ 1.79)"
        );
    }

    #[test]
    fn organizations_order_as_in_the_paper() {
        let trace = counter_trace(3_000);
        let base = simulate(OrgKind::Baseline32, &trace);
        let byte = simulate(OrgKind::ByteSerial, &trace);
        let half = simulate(OrgKind::HalfwordSerial, &trace);
        let semi = simulate(OrgKind::SemiParallel, &trace);
        let compressed = simulate(OrgKind::ParallelCompressed, &trace);
        let skewed = simulate(OrgKind::ParallelSkewed, &trace);
        let bypass = simulate(OrgKind::SkewedBypass, &trace);

        // Fig. 4/6/10 ordering: byte-serial slowest, then halfword-serial,
        // then semi-parallel, then the parallel organizations near baseline.
        assert!(byte.cpi() >= half.cpi());
        assert!(half.cpi() >= semi.cpi() * 0.99);
        assert!(semi.cpi() > compressed.cpi());
        assert!(semi.cpi() > bypass.cpi());
        assert!(bypass.cpi() <= skewed.cpi() + 1e-9);
        // Everything is at least as slow as the baseline.
        for r in [&byte, &half, &semi, &compressed, &skewed, &bypass] {
            assert!(
                r.cpi() >= base.cpi() * 0.999,
                "{} CPI {} below baseline {}",
                r.organization,
                r.cpi(),
                base.cpi()
            );
        }
    }

    #[test]
    fn byte_serial_stalls_are_dominated_by_the_execute_stage() {
        let trace = counter_trace(3_000);
        let org = Organization::new(OrgKind::ByteSerial);
        let r = PipelineSim::new(org.clone()).run(trace.iter());
        let frac = r.stalls.execute_structural_fraction(&org);
        assert!(
            frac > 0.3,
            "execute-stage structural stalls should dominate, got {frac}"
        );
        assert!(r.stalls.total() > 0);
    }

    #[test]
    fn control_stalls_appear_for_branchy_code() {
        let trace = counter_trace(1_000);
        let r = simulate(OrgKind::Baseline32, &trace);
        assert!(r.stalls.control > 0);
    }

    #[test]
    fn gated_occupancy_is_reported_per_stage_for_every_organization() {
        let trace = counter_trace(2_000);
        for &kind in OrgKind::ALL {
            let org = Organization::new(kind);
            let r = PipelineSim::new(org.clone()).run(trace.iter());
            let gated: u64 = r.gated_byte_cycles.iter().sum();
            let total: u64 = r.total_byte_cycles.iter().sum();
            assert!(total > 0, "{}: no lane occupancy", r.organization);
            for s in 0..org.depth() {
                assert!(
                    r.gated_byte_cycles[s] <= r.total_byte_cycles[s],
                    "{} stage {s}: gated exceeds total",
                    r.organization
                );
                assert!(
                    r.total_byte_cycles[s] > 0,
                    "{} stage {s}: no occupancy",
                    r.organization
                );
            }
            // Stages beyond the organization's depth must stay untouched.
            for s in org.depth()..7 {
                assert_eq!(r.total_byte_cycles[s], 0, "{}", r.organization);
            }
            if kind == OrgKind::Baseline32 {
                assert_eq!(gated, 0, "the baseline cannot gate lanes");
                assert_eq!(r.gated_fraction(), 0.0);
            } else {
                assert!(
                    r.gated_fraction() > 0.05,
                    "{}: narrow counter values should gate lanes, got {}",
                    r.organization,
                    r.gated_fraction()
                );
            }
        }
    }

    #[test]
    fn serial_organizations_gate_less_than_wide_ones() {
        // A one-byte datapath reuses its single lane instead of gating
        // three; the full-width compressed organization gates the unused
        // upper lanes outright. On narrow data the wide machine must
        // therefore gate a larger fraction of its (larger) lane budget.
        let trace = counter_trace(2_000);
        let serial = PipelineSim::new(Organization::new(OrgKind::ByteSerial)).run(trace.iter());
        let wide =
            PipelineSim::new(Organization::new(OrgKind::ParallelCompressed)).run(trace.iter());
        let ex = Organization::new(OrgKind::ByteSerial)
            .stage_index(Stage::Execute)
            .unwrap();
        // The byte-serial execute stage has exactly one lane: it can never
        // gate it (the low byte is always significant).
        assert_eq!(serial.gated_byte_cycles[ex], 0);
        assert!(wide.gated_fraction() > serial.gated_fraction());
    }

    #[test]
    fn empty_simulation_reports_zero() {
        let sim = PipelineSim::new(Organization::new(OrgKind::Baseline32));
        let r = sim.finish();
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cpi(), 0.0);
        assert_eq!(r.stalls.total(), 0);
    }

    #[test]
    fn display_mentions_cpi() {
        let trace = counter_trace(200);
        let r = simulate(OrgKind::Baseline32, &trace);
        let s = r.to_string();
        assert!(s.contains("CPI"));
        assert!(s.contains("32-bit baseline"));
    }

    /// Streams stores and loads over 64 KB at a 32-byte stride: every data
    /// access misses a 4 KB or 8 KB L1, and the first touches go to memory.
    fn strided_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.dlabel("buf");
        b.space(64 * 1024);
        b.la(reg::A0, "buf");
        b.li(reg::T0, 0);
        b.li(reg::T1, 2048);
        b.label("loop");
        b.sw(reg::T0, reg::A0, 0);
        b.lw(reg::T4, reg::A0, 0);
        b.addiu(reg::A0, reg::A0, 32);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(1_000_000)
            .unwrap()
    }

    #[test]
    fn an_external_walk_plus_observe_with_access_equals_observe_with_cost() {
        let trace = strided_trace();
        let recoder = FunctRecoder::paper_default();
        // The sweep's small-L1 and slow-memory geometries.
        let mut small_l1 = HierarchyConfig::paper();
        small_l1.il1.size_bytes = 4 * 1024;
        small_l1.dl1.size_bytes = 4 * 1024;
        let mut slow_memory = HierarchyConfig::paper();
        slow_memory.memory_latency = 100;
        for config in [small_l1, slow_memory] {
            for &kind in OrgKind::ALL {
                let org = Organization::new(kind);
                let mut own = PipelineSim::with_config(org.clone(), &config, recoder.clone());
                let mut external =
                    PipelineSim::with_external_hierarchy(org.clone(), recoder.clone());
                let mut shared = MemoryHierarchy::new(&config);
                for rec in &trace {
                    let cost = instr_cost(rec, org.scheme(), &recoder);
                    own.observe_with_cost(rec, &cost);
                    external.observe_with_access(rec, &cost, &InstrAccess::walk(&mut shared, rec));
                }
                let own = own.finish();
                let external = external.finish();
                assert!(own.hierarchy.dl1.misses > 1_000, "{}", own.organization);
                assert!(own.hierarchy.memory_accesses > 0, "{}", own.organization);
                // The standalone path keeps reporting its own counters; the
                // external simulator leaves them to the caller's hierarchy.
                assert_eq!(own.hierarchy, shared.stats());
                assert_eq!(external.hierarchy, HierarchyStats::default());
                assert_eq!(
                    own,
                    SimResult {
                        hierarchy: own.hierarchy,
                        ..external
                    }
                );
            }
        }
    }

    #[test]
    fn hierarchy_stats_are_reported() {
        let trace = counter_trace(500);
        let r = simulate(OrgKind::Baseline32, &trace);
        assert!(r.hierarchy.il1.accesses >= trace.len() as u64);
        assert!(r.hierarchy.dl1.accesses > 0);
    }
}

#[cfg(test)]
mod prediction_tests {
    use super::*;
    use crate::organization::OrgKind;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder, Trace};

    fn loop_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(reg::T0, 0);
        b.li(reg::T1, 2_000);
        b.label("loop");
        b.addiu(reg::T2, reg::T0, 3);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(100_000)
            .unwrap()
    }

    #[test]
    fn branch_prediction_removes_most_control_stalls() {
        let trace = loop_trace();
        let org = Organization::new(OrgKind::Baseline32);
        let without = PipelineSim::new(org.clone()).run(trace.iter());
        let with = PipelineSim::new(org)
            .with_branch_prediction(512)
            .run(trace.iter());
        assert!(with.cycles < without.cycles);
        assert!(with.stalls.control < without.stalls.control / 2);
        // The backward loop branch is taken ~2000 times and falls through
        // once, so the bimodal predictor is nearly perfect.
        assert_eq!(with.branches, without.branches);
        assert!(with.branches > 1_000);
        assert!(with.mispredictions < with.branches / 50);
        assert_eq!(without.mispredictions, 0);
        // The predicted baseline approaches one instruction per cycle.
        assert!(with.cpi() < 1.3, "predicted baseline CPI {}", with.cpi());
    }

    #[test]
    fn prediction_also_helps_the_serial_organizations() {
        let trace = loop_trace();
        let org = Organization::new(OrgKind::ByteSerial);
        let without = PipelineSim::new(org.clone()).run(trace.iter());
        let with = PipelineSim::new(org)
            .with_branch_prediction(512)
            .run(trace.iter());
        assert!(with.cycles < without.cycles);
        // But the structural bottleneck remains: the byte-serial machine is
        // still well above one cycle per instruction even with perfect-ish
        // branch prediction.
        assert!(with.cpi() > 1.5);
    }
}
