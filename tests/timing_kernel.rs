//! Independent oracle for the pipeline timing kernel.
//!
//! `PipelineSim` times a record from a `StageDemand`: every candidate stage
//! occupancy and used-lane count is derived once per record, and each
//! organization only indexes the candidates its rules name. This file keeps
//! a literal, test-only copy of the per-stage timing body that design
//! replaced — match-based occupancy and lane-use formulas asked per stage,
//! source and destination registers decoded per call, its own hierarchy
//! walked through `InstrAccess::walk` — and pins the kernel to it:
//!
//! * the full `SimResult` (cycles, every stall bucket, gated and total
//!   lane-cycles, hierarchy counters, branches, mispredictions) must match
//!   for every organization × scheme × memory profile, with and without
//!   branch prediction, over every tiny kernel and the golden corpus;
//! * the rule-based `Organization` formulas must equal the literal ones for
//!   every `(kind, stage)` on an exhaustive grid of cost shapes, including
//!   corners real streams rarely reach;
//! * the 32-bit baseline's `SimResult` must be the same under every scheme,
//!   for every memory profile, which lets a sweep share one baseline model
//!   across schemes;
//! * lane budgets are folded from a scheme's demand-class counts when a
//!   model reports, not summed per record: every cost shape's class must
//!   round-trip to the literal occupancy and used lanes of every
//!   organization, and over real streams the fold must equal a literal copy
//!   of the per-record lane tally it replaced.

use sigcomp::alu::AluOutcome;
use sigcomp::ifetch::CompressedInstr;
use sigcomp::{instr_cost, ExtScheme, FunctRecoder, InstrAccess, InstrCost, MemCost};
use sigcomp_bench::golden::GOLDEN_WORKLOADS;
use sigcomp_explore::MemProfile;
use sigcomp_isa::reg::{T0, T1, T2};
use sigcomp_isa::tracefile::collect_records;
use sigcomp_isa::{ExecRecord, Instruction, Op, TraceReader};
use sigcomp_mem::MemoryHierarchy;
use sigcomp_pipeline::{
    BimodalPredictor, DemandClasses, MissPenalty, OrgKind, Organization, PipelineSim, SimResult,
    Stage, StageDemand, StageRules, StallBreakdown,
};
use sigcomp_workloads::{find, suite_names, WorkloadSize};
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// The literal per-(kind, stage) formulas.

fn serial_ex_bytes(cost: &InstrCost) -> u8 {
    cost.alu_bytes().max(cost.max_operand_bytes())
}

fn fetch_cycles(cost: &InstrCost, banks: u32) -> u32 {
    u32::from(cost.fetch.fetch_bytes).div_ceil(banks).max(1)
}

fn mem_cycles(cost: &InstrCost, width: u32) -> u32 {
    match cost.mem {
        Some(m) => u32::from(m.sig_bytes).div_ceil(width).max(1),
        None => 1,
    }
}

fn serial_occupancy(stage: Stage, cost: &InstrCost, width: u32) -> u32 {
    match stage {
        Stage::Fetch => fetch_cycles(cost, 3),
        Stage::RegRead => 1,
        Stage::Execute => u32::from(serial_ex_bytes(cost)).div_ceil(width).max(1),
        Stage::Memory => mem_cycles(cost, width),
        Stage::Writeback => u32::from(cost.result_bytes.unwrap_or(0))
            .div_ceil(width)
            .max(1),
        Stage::ExecuteHi | Stage::MemoryHi => 1,
    }
}

fn occupancy(kind: OrgKind, stage: Stage, cost: &InstrCost) -> u32 {
    match kind {
        OrgKind::Baseline32 => 1,
        OrgKind::ByteSerial => serial_occupancy(stage, cost, 1),
        OrgKind::HalfwordSerial => serial_occupancy(stage, cost, 2),
        OrgKind::SemiParallel => match stage {
            Stage::Fetch => fetch_cycles(cost, 3),
            Stage::RegRead => 1,
            Stage::Execute => u32::from(serial_ex_bytes(cost)).div_ceil(2).max(1),
            Stage::Memory => mem_cycles(cost, 1),
            Stage::Writeback => u32::from(cost.result_bytes.unwrap_or(0)).div_ceil(2).max(1),
            Stage::ExecuteHi | Stage::MemoryHi => 1,
        },
        OrgKind::ParallelSkewed | OrgKind::SkewedBypass => match stage {
            Stage::Fetch => fetch_cycles(cost, 3),
            _ => 1,
        },
        OrgKind::ParallelCompressed => match stage {
            Stage::Fetch => fetch_cycles(cost, 3),
            Stage::RegRead => 1 + u32::from(cost.max_operand_bytes() > 2),
            Stage::Execute => 1,
            Stage::Memory => match cost.mem {
                Some(m) if !m.is_store => 1 + u32::from(m.sig_bytes > 2),
                _ => 1,
            },
            Stage::Writeback => 1,
            Stage::ExecuteHi | Stage::MemoryHi => 1,
        },
    }
}

fn stage_used_bytes(kind: OrgKind, stage: Stage, cost: &InstrCost) -> u32 {
    let split = matches!(kind, OrgKind::ParallelSkewed | OrgKind::SkewedBypass);
    let ex = u32::from(serial_ex_bytes(cost));
    let mem = cost.mem.map_or(0, |m| u32::from(m.sig_bytes));
    match stage {
        Stage::Fetch => u32::from(cost.fetch.fetch_bytes),
        Stage::RegRead => u32::from(cost.regfile_read_bytes()),
        Stage::Execute => {
            if split {
                ex.min(2)
            } else {
                ex
            }
        }
        Stage::ExecuteHi => ex.saturating_sub(2),
        Stage::Memory => {
            if split {
                mem.min(2)
            } else {
                mem
            }
        }
        Stage::MemoryHi => mem.saturating_sub(2),
        Stage::Writeback => u32::from(cost.result_bytes.unwrap_or(0)),
    }
}

fn is_short_operand(cost: &InstrCost) -> bool {
    cost.max_operand_bytes() <= 2
        && cost.alu_bytes() <= 2
        && cost.result_bytes.unwrap_or(1) <= 2
        && cost.mem.is_none_or(|m| m.sig_bytes <= 2)
}

fn branch_resolve_stage(kind: OrgKind, cost: &InstrCost) -> Stage {
    match kind {
        OrgKind::ParallelSkewed => Stage::ExecuteHi,
        OrgKind::SkewedBypass => {
            if is_short_operand(cost) {
                Stage::Execute
            } else {
                Stage::ExecuteHi
            }
        }
        _ => Stage::Execute,
    }
}

// ---------------------------------------------------------------------------
// The literal per-stage timing body.

/// One organization timed the way the kernel used to: every stage asks the
/// literal formulas above, per record.
struct ReferenceSim {
    org: Organization,
    stages: Vec<Stage>,
    lane_bytes: Vec<u64>,
    ex_index: usize,
    mem_index: usize,
    gates: bool,
    prev_enter: [u64; 7],
    prev_busy: [u64; 7],
    reg_ready: [u64; 32],
    fetch_allowed: u64,
    predictor: Option<BimodalPredictor>,
    instructions: u64,
    completion: u64,
    branches: u64,
    mispredictions: u64,
    stalls: StallBreakdown,
    gated_byte_cycles: [u64; 7],
    total_byte_cycles: [u64; 7],
}

impl ReferenceSim {
    fn new(org: Organization, predictor_entries: Option<usize>) -> Self {
        ReferenceSim {
            stages: org.stages().to_vec(),
            lane_bytes: org
                .stages()
                .iter()
                .map(|&s| u64::from(org.lane_bytes(s)))
                .collect(),
            ex_index: org.stage_index(Stage::Execute).unwrap(),
            mem_index: org.stage_index(Stage::Memory).unwrap(),
            gates: org.gates_lanes(),
            prev_enter: [0; 7],
            prev_busy: [0; 7],
            reg_ready: [0; 32],
            fetch_allowed: 0,
            predictor: predictor_entries.map(BimodalPredictor::new),
            instructions: 0,
            completion: 0,
            branches: 0,
            mispredictions: 0,
            stalls: StallBreakdown::default(),
            gated_byte_cycles: [0; 7],
            total_byte_cycles: [0; 7],
            org,
        }
    }

    fn pos(&self, stage: Stage) -> usize {
        self.stages.iter().position(|&s| s == stage).unwrap()
    }

    fn observe(&mut self, rec: &ExecRecord, cost: &InstrCost, access: &InstrAccess) {
        let kind = self.org.kind();
        let depth = self.stages.len();

        let mut occ = [0u64; 7];
        for (slot, &stage) in occ.iter_mut().zip(&self.stages) {
            *slot = u64::from(occupancy(kind, stage, cost));
        }
        occ[0] += u64::from(access.fetch.latency.saturating_sub(1));
        if let Some(dmem) = access.data {
            occ[self.mem_index] += u64::from(dmem.latency.saturating_sub(1));
        }

        for (s, &stage_occ) in occ.iter().enumerate().take(depth) {
            let total = self.lane_bytes[s] * stage_occ;
            let used = if self.gates {
                u64::from(stage_used_bytes(kind, self.stages[s], cost)).min(total)
            } else {
                total
            };
            self.gated_byte_cycles[s] += total - used;
            self.total_byte_cycles[s] += total;
        }

        let mut enter = [0u64; 7];
        let mut busy = [0u64; 7];
        for s in 0..depth {
            let vacated = if s + 1 < depth {
                self.prev_enter[s + 1].max(self.prev_busy[s])
            } else {
                self.prev_busy[s]
            };
            // Streamed: earlier bytes proceed up the pipeline after a cycle.
            let (flow, control_bound) = if s == 0 {
                (vacated, self.fetch_allowed)
            } else {
                (enter[s - 1] + 1, 0)
            };
            let mut hazard_bound = 0u64;
            if s == self.ex_index {
                let (rs, rt) = rec.instr.src_regs();
                for reg in [rs, rt].into_iter().flatten() {
                    if !reg.is_zero() {
                        hazard_bound = hazard_bound.max(self.reg_ready[usize::from(reg)]);
                    }
                }
            }
            let structural_bound = if s == 0 { 0 } else { vacated };
            let start = flow
                .max(structural_bound)
                .max(hazard_bound)
                .max(control_bound);
            if start > flow {
                let gap = start - flow;
                if start == control_bound && s == 0 {
                    self.stalls.control += gap;
                } else if start == hazard_bound && hazard_bound >= structural_bound {
                    self.stalls.data_hazard += gap;
                } else {
                    let blame = if s + 1 < depth && self.prev_enter[s + 1] > self.prev_busy[s] {
                        s + 1
                    } else {
                        s
                    };
                    self.stalls.structural[blame] += gap;
                }
            }
            enter[s] = start;
            busy[s] = start + occ[s];
        }

        if let Some(dest) = rec.instr.dest_reg() {
            let produce_stage = if rec.instr.op.is_load() {
                Stage::Memory
            } else {
                Stage::Execute
            };
            self.reg_ready[usize::from(dest)] = busy[self.pos(produce_stage)];
        }

        if cost.is_branch {
            self.branches += 1;
            let idx = self.pos(branch_resolve_stage(kind, cost));
            let correct = match self.predictor.as_mut() {
                Some(p) => p.update(rec.pc, cost.taken),
                None => false,
            };
            if !correct {
                if self.predictor.is_some() {
                    self.mispredictions += 1;
                }
                self.fetch_allowed = self.fetch_allowed.max(busy[idx]);
            }
        } else if matches!(rec.instr.op, Op::Jr | Op::Jalr) {
            let idx = self.pos(branch_resolve_stage(kind, cost));
            self.fetch_allowed = self.fetch_allowed.max(busy[idx]);
        } else if cost.is_jump {
            self.fetch_allowed = self.fetch_allowed.max(busy[self.pos(Stage::RegRead)]);
        }

        self.completion = self.completion.max(busy[depth - 1]);
        self.prev_enter = enter;
        self.prev_busy = busy;
        self.instructions += 1;
    }

    fn finish(self, hierarchy: &MemoryHierarchy) -> SimResult {
        SimResult {
            organization: self.org.name().to_owned(),
            instructions: self.instructions,
            cycles: self.completion,
            stalls: self.stalls,
            hierarchy: hierarchy.stats(),
            branches: self.branches,
            mispredictions: self.mispredictions,
            gated_byte_cycles: self.gated_byte_cycles,
            total_byte_cycles: self.total_byte_cycles,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel ≡ reference over real streams.

const PREDICTOR_ENTRIES: [Option<usize>; 2] = [None, Some(512)];

/// Times `records` on the kernel and on the reference for every
/// organization × scheme × memory profile × predictor setting and asserts
/// identical results. Returns the number of configurations compared.
fn assert_kernel_matches_reference(name: &str, records: &[ExecRecord]) -> usize {
    assert!(!records.is_empty(), "{name}: empty stream");
    let recoder = FunctRecoder::paper_default();
    let mut compared = 0;
    for &scheme in ExtScheme::ALL {
        let costs: Vec<InstrCost> = records
            .iter()
            .map(|rec| instr_cost(rec, scheme, &recoder))
            .collect();
        for &mem in MemProfile::ALL {
            let config = mem.hierarchy();
            let mut kernels = Vec::new();
            let mut references = Vec::new();
            for &kind in OrgKind::ALL {
                for entries in PREDICTOR_ENTRIES {
                    let org = Organization::with_scheme(kind, scheme);
                    let sim = PipelineSim::with_config(org.clone(), &config, recoder.clone());
                    kernels.push(match entries {
                        Some(n) => sim.with_branch_prediction(n),
                        None => sim,
                    });
                    references.push(ReferenceSim::new(org, entries));
                }
            }
            // The reference models share one walk; each kernel walks its own
            // hierarchy, so the hierarchy counters are compared too.
            let mut hierarchy = MemoryHierarchy::new(&config);
            for (rec, cost) in records.iter().zip(&costs) {
                let access = InstrAccess::walk(&mut hierarchy, rec);
                for (kernel, reference) in kernels.iter_mut().zip(&mut references) {
                    kernel.observe_with_cost(rec, cost);
                    reference.observe(rec, cost, &access);
                }
            }
            for (kernel, reference) in kernels.into_iter().zip(references) {
                let predicted = reference.predictor.is_some();
                let expected = reference.finish(&hierarchy);
                let got = kernel.finish();
                assert_eq!(
                    got,
                    expected,
                    "{name}: {} / {} / {} / prediction {predicted}",
                    got.organization,
                    scheme.id(),
                    mem.id()
                );
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn kernel_equals_the_literal_reference_over_every_tiny_kernel() {
    for &name in suite_names() {
        let benchmark = find(name, WorkloadSize::Tiny).expect("suite kernel");
        let mut records = Vec::new();
        benchmark
            .run_each(|rec| records.push(*rec))
            .expect("kernel runs");
        let compared = assert_kernel_matches_reference(name, &records);
        assert_eq!(compared, OrgKind::ALL.len() * 3 * MemProfile::ALL.len() * 2);
    }
}

#[test]
fn kernel_equals_the_literal_reference_over_the_golden_corpus() {
    for &workload in GOLDEN_WORKLOADS {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data"))
            .join(format!("{workload}.sctrace"));
        let records = collect_records(TraceReader::open(&path).unwrap())
            .unwrap_or_else(|e| panic!("loading {workload}: {e}"));
        assert_kernel_matches_reference(workload, records.records());
    }
}

/// The sweep engine runs one 32-bit baseline model per memory profile and
/// hands its result to every scheme's baseline job. That is sound only
/// while the baseline's full `SimResult` ignores the scheme: it occupies
/// every stage for one cycle, gates no lanes and resolves every branch in
/// execute.
#[test]
fn baseline_timing_is_the_same_under_every_scheme() {
    let recoder = FunctRecoder::paper_default();
    for &name in suite_names() {
        let benchmark = find(name, WorkloadSize::Tiny).expect("suite kernel");
        for &mem in MemProfile::ALL {
            let results: Vec<SimResult> = ExtScheme::ALL
                .iter()
                .map(|&scheme| {
                    let org = Organization::with_scheme(OrgKind::Baseline32, scheme);
                    let mut sim = PipelineSim::with_config(org, &mem.hierarchy(), recoder.clone());
                    benchmark
                        .run_each(|rec| sim.observe(rec))
                        .expect("kernel runs");
                    sim.finish()
                })
                .collect();
            assert!(results[0].instructions > 0, "{name}: empty stream");
            for (result, scheme) in results.iter().zip(ExtScheme::ALL).skip(1) {
                assert_eq!(
                    result,
                    &results[0],
                    "{name} / {} / {}: baseline timing depends on the scheme",
                    scheme.id(),
                    mem.id()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule-based formulas ≡ literal formulas, exhaustively.

/// Every cost shape on the grid: fetch 3/4 bytes; `rs`/`rt` absent or
/// 1–4 bytes; ALU unused or 1–4 bytes; no memory access, or a load or store
/// of 1–4 significant bytes; no result or 0–4 bytes.
fn cost_grid() -> Vec<InstrCost> {
    cost_grid_with_alu(&[None, Some(1), Some(2), Some(3), Some(4)])
}

/// The grid's shapes with the 5–16 ALU bytes only a multiply or divide
/// reaches (`alu::muldiv` operates up to 4 × 4 byte pairs).
fn mult_div_grid() -> Vec<InstrCost> {
    let alu: Vec<Option<u8>> = (5..=16).map(Some).collect();
    cost_grid_with_alu(&alu)
}

/// [`cost_grid`] with the given ALU byte counts.
fn cost_grid_with_alu(alus: &[Option<u8>]) -> Vec<InstrCost> {
    let operand = [None, Some(1), Some(2), Some(3), Some(4)];
    let mut mems = vec![None];
    for is_store in [false, true] {
        for sig_bytes in 1..=4 {
            mems.push(Some(MemCost {
                width_bytes: 4,
                sig_bytes,
                is_store,
            }));
        }
    }
    let results = [None, Some(0), Some(1), Some(2), Some(3), Some(4)];
    let mut grid = Vec::new();
    for fetch_bytes in [3, 4] {
        for rs_bytes in operand {
            for rt_bytes in operand {
                for &alu in alus {
                    for &mem in &mems {
                        for result_bytes in results {
                            grid.push(InstrCost {
                                fetch: CompressedInstr {
                                    stored_word: 0,
                                    fetch_bytes,
                                    needs_fourth_byte: fetch_bytes == 4,
                                },
                                rs_bytes,
                                rt_bytes,
                                result_bytes,
                                alu: alu.map(|bytes_operated| AluOutcome {
                                    result: 0,
                                    bytes_operated,
                                    baseline_bytes: 4,
                                }),
                                mem,
                                is_branch: false,
                                is_jump: false,
                                taken: false,
                            });
                        }
                    }
                }
            }
        }
    }
    grid
}

#[test]
fn rule_based_formulas_equal_the_literal_ones_on_every_cost_shape() {
    const ALL_STAGES: [Stage; 7] = [
        Stage::Fetch,
        Stage::RegRead,
        Stage::Execute,
        Stage::ExecuteHi,
        Stage::Memory,
        Stage::MemoryHi,
        Stage::Writeback,
    ];
    let grid = cost_grid();
    assert_eq!(grid.len(), 2 * 5 * 5 * 5 * 9 * 6);
    let grid = [grid, mult_div_grid()].concat();
    for &kind in OrgKind::ALL {
        let org = Organization::new(kind);
        for cost in &grid {
            assert_eq!(
                org.is_short_operand(cost),
                is_short_operand(cost),
                "{cost:?}"
            );
            assert_eq!(
                org.branch_resolve_stage(cost),
                branch_resolve_stage(kind, cost),
                "{kind:?} {cost:?}"
            );
            // Every stage, not only the organization's own: the rules must
            // agree wherever they are asked.
            for stage in ALL_STAGES {
                assert_eq!(
                    org.occupancy(stage, cost),
                    occupancy(kind, stage, cost),
                    "occupancy {kind:?} {stage:?} {cost:?}"
                );
                assert_eq!(
                    org.stage_used_bytes(stage, cost),
                    stage_used_bytes(kind, stage, cost),
                    "used bytes {kind:?} {stage:?} {cost:?}"
                );
            }
        }
    }
}

/// A miss penalty lengthens only the fetch and the low-order memory stage.
/// Lane budgets are folded from a scheme's demand classes, without the
/// hierarchy, and each memory profile's penalties are added when a model
/// reports; that is exact only
/// while, on those two stages, the used lanes never exceed the lane budget
/// of the occupancy before the penalty.
#[test]
fn penalized_stages_never_use_more_lanes_than_their_unpenalized_budget() {
    let grid = [cost_grid(), mult_div_grid()].concat();
    for &kind in OrgKind::ALL {
        let org = Organization::new(kind);
        for stage in [Stage::Fetch, Stage::Memory] {
            for cost in &grid {
                assert!(
                    org.stage_used_bytes(stage, cost)
                        <= org.lane_bytes(stage) * org.occupancy(stage, cost),
                    "{kind:?} {stage:?} {cost:?}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane budgets folded from demand classes ≡ literal per-record sums.

/// A record that carries no information of its own: the grid's costs are
/// what the tests vary.
fn blank_record() -> ExecRecord {
    let instr = Instruction::r3(Op::Addu, T0, T1, T2);
    ExecRecord {
        seq: 0,
        pc: 0,
        word: instr.encode(),
        instr,
        rs_value: None,
        rt_value: None,
        writeback: None,
        mem: None,
        branch: None,
    }
}

/// A class counted once must report, for every stage of every
/// organization, the literal `lane_bytes × occupancy` lane-cycles, of which
/// the literal used lanes stay powered (in the organizations that gate).
#[test]
fn every_cost_shape_class_round_trips_to_the_literal_occupancy_and_used_lanes() {
    let rec = blank_record();
    let recoder = FunctRecoder::paper_default();
    let sims: Vec<PipelineSim> = OrgKind::ALL
        .iter()
        .map(|&kind| PipelineSim::with_external_hierarchy(Organization::new(kind), recoder.clone()))
        .collect();
    for cost in &[cost_grid(), mult_div_grid()].concat() {
        let mut classes = DemandClasses::new();
        classes.observe(&StageDemand::new(&rec, cost));
        for sim in &sims {
            let org = sim.organization();
            let kind = org.kind();
            let result = sim.result_with(&classes);
            for (s, &stage) in org.stages().iter().enumerate() {
                let total = org.lane_bytes(stage) * occupancy(kind, stage, cost);
                let powered = if org.gates_lanes() {
                    stage_used_bytes(kind, stage, cost).min(total)
                } else {
                    total
                };
                assert_eq!(
                    result.total_byte_cycles[s],
                    u64::from(total),
                    "total {kind:?} {stage:?} {cost:?}"
                );
                assert_eq!(
                    result.gated_byte_cycles[s],
                    u64::from(total - powered),
                    "gated {kind:?} {stage:?} {cost:?}"
                );
            }
        }
    }
}

/// The per-record lane tally the class fold replaced, asking the literal
/// formulas per stage and record: Σ occupancy and Σ min(used lanes,
/// `lane_bytes × occupancy`), with the summed miss penalties added to the
/// fetch and low memory stage when it reports.
struct RecordLaneTally {
    kind: OrgKind,
    stages: Vec<Stage>,
    lane_bytes: [u64; 7],
    mem_index: usize,
    gates: bool,
    occupied: [u64; 7],
    powered: [u64; 7],
    penalty: [u64; 7],
}

impl RecordLaneTally {
    fn new(org: &Organization) -> Self {
        let mut lane_bytes = [0; 7];
        for (s, &stage) in org.stages().iter().enumerate() {
            lane_bytes[s] = u64::from(org.lane_bytes(stage));
        }
        RecordLaneTally {
            kind: org.kind(),
            stages: org.stages().to_vec(),
            lane_bytes,
            mem_index: org.stage_index(Stage::Memory).unwrap(),
            gates: org.gates_lanes(),
            occupied: [0; 7],
            powered: [0; 7],
            penalty: [0; 7],
        }
    }

    fn observe(&mut self, cost: &InstrCost, access: &InstrAccess) {
        for (s, &stage) in self.stages.iter().enumerate() {
            let occupancy = u64::from(occupancy(self.kind, stage, cost));
            self.occupied[s] += occupancy;
            if self.gates {
                let used = u64::from(stage_used_bytes(self.kind, stage, cost));
                self.powered[s] += used.min(self.lane_bytes[s] * occupancy);
            }
        }
        self.penalty[0] += u64::from(access.fetch.latency.saturating_sub(1));
        if let Some(data) = access.data {
            self.penalty[self.mem_index] += u64::from(data.latency.saturating_sub(1));
        }
    }

    /// Per-stage `(gated, total)` lane-cycles.
    fn byte_cycles(&self) -> ([u64; 7], [u64; 7]) {
        let mut gated = [0; 7];
        let mut total = [0; 7];
        for s in 0..7 {
            total[s] = self.lane_bytes[s] * (self.occupied[s] + self.penalty[s]);
            if self.gates {
                gated[s] = total[s] - self.powered[s];
            }
        }
        (gated, total)
    }
}

/// Counts `records`' classes once per scheme, times every organization
/// from the shared demand the way a sweep group does, and asserts that the
/// budgets each model folds at report time equal the literal per-record
/// tally, penalties of the paper hierarchy included.
fn assert_class_fold_matches_record_tally(name: &str, records: &[ExecRecord]) {
    assert!(!records.is_empty(), "{name}: empty stream");
    let recoder = FunctRecoder::paper_default();
    for &scheme in ExtScheme::ALL {
        let orgs: Vec<Organization> = OrgKind::ALL
            .iter()
            .map(|&kind| Organization::with_scheme(kind, scheme))
            .collect();
        let rules: Vec<StageRules> = orgs.iter().map(StageRules::new).collect();
        let mut sims: Vec<PipelineSim> = orgs
            .iter()
            .map(|org| PipelineSim::with_external_hierarchy(org.clone(), recoder.clone()))
            .collect();
        let mut tallies: Vec<RecordLaneTally> = orgs.iter().map(RecordLaneTally::new).collect();
        let mut classes = DemandClasses::new();
        let mut hierarchy = MemoryHierarchy::new(&MemProfile::Paper.hierarchy());
        for rec in records {
            let cost = instr_cost(rec, scheme, &recoder);
            let access = InstrAccess::walk(&mut hierarchy, rec);
            let penalty = MissPenalty::new(&access);
            let demand = StageDemand::new(rec, &cost);
            classes.observe(&demand);
            for ((rules, sim), tally) in rules.iter().zip(&mut sims).zip(&mut tallies) {
                sim.observe_demand(&demand, &rules.occupancy(&demand), &penalty);
                tally.observe(&cost, &access);
            }
        }
        for (sim, tally) in sims.iter().zip(&tallies) {
            let result = sim.result_with(&classes);
            let (gated, total) = tally.byte_cycles();
            let label = format!("{name}: {} / {}", result.organization, scheme.id());
            assert_eq!(result.total_byte_cycles, total, "total {label}");
            assert_eq!(result.gated_byte_cycles, gated, "gated {label}");
        }
    }
}

#[test]
fn class_folded_budgets_equal_the_per_record_tally_over_every_tiny_kernel() {
    for &name in suite_names() {
        let benchmark = find(name, WorkloadSize::Tiny).expect("suite kernel");
        let mut records = Vec::new();
        benchmark
            .run_each(|rec| records.push(*rec))
            .expect("kernel runs");
        assert_class_fold_matches_record_tally(name, &records);
    }
}

#[test]
fn class_folded_budgets_equal_the_per_record_tally_over_the_golden_corpus() {
    for &workload in GOLDEN_WORKLOADS {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data"))
            .join(format!("{workload}.sctrace"));
        let records = collect_records(TraceReader::open(&path).unwrap())
            .unwrap_or_else(|e| panic!("loading {workload}: {e}"));
        assert_class_fold_matches_record_tally(workload, records.records());
    }
}
