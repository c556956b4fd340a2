//! The trace-driven activity study of §2.9: feed a dynamic instruction trace
//! through every stage model and report per-stage activity savings
//! (Tables 5 and 6 of the paper).
//!
//! Each part of the study depends on one axis of a design-space sweep:
//!
//! * the compressed instruction fetch (§2.3) and the block-serial PC
//!   incrementer (§2.2) depend only on the record stream, the recoding and
//!   the PC block size: a [`StreamActivity`] tallies them once per stream;
//! * the activity core ([`TraceAnalyzer::observe_core`]: register file,
//!   ALU, data-cache data, write-back and latches) depends on the scheme;
//! * the D-cache line fills ([`LineFills`]) depend on the scheme and the
//!   memory hierarchy.
//!
//! [`TraceAnalyzer::report_with`] combines the three. An analyzer fed
//! through [`observe`](TraceAnalyzer::observe) and its variants keeps all
//! three itself, and also the Tables 1/3 statistics ([`SigStats`]), which
//! no sweep reads.

use crate::access::InstrAccess;
use crate::activity::{ActivityReport, StageActivity};
use crate::cost::{instr_cost, InstrCost};
use crate::dcache::DCacheActivity;
use crate::ext::{significant_bytes, ExtScheme};
use crate::ifetch::{CompressedInstr, FetchActivity, FunctRecoder};
use crate::pc::{PcActivity, PC_BITS};
use crate::regfile::RegFileActivity;
use crate::stats::SigStats;
use sigcomp_isa::ExecRecord;
use sigcomp_mem::{CacheConfig, HierarchyConfig, HierarchyStats, MemoryHierarchy};

/// Configuration of the activity study.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Extension-bit scheme (Table 5 uses the 3-bit byte scheme, Table 6 the
    /// halfword scheme).
    pub scheme: ExtScheme,
    /// Memory-hierarchy parameters (§3).
    pub hierarchy: HierarchyConfig,
    /// Block size of the block-serial PC incrementer in bits.
    pub pc_block_bits: u32,
    /// Function-code recoding used by the compressed I-cache.
    pub recoder: FunctRecoder,
}

impl AnalyzerConfig {
    /// The paper's primary configuration: 3-bit byte-granularity compression
    /// with a byte-serial PC incrementer.
    #[must_use]
    pub fn paper_byte() -> Self {
        AnalyzerConfig {
            scheme: ExtScheme::ThreeBit,
            hierarchy: HierarchyConfig::paper(),
            pc_block_bits: 8,
            recoder: FunctRecoder::paper_default(),
        }
    }

    /// The halfword-granularity configuration of Table 6.
    #[must_use]
    pub fn paper_halfword() -> Self {
        AnalyzerConfig {
            scheme: ExtScheme::Halfword,
            pc_block_bits: 16,
            ..Self::paper_byte()
        }
    }

    /// Same as [`AnalyzerConfig::paper_byte`] but with the given scheme and a
    /// matching PC block size.
    #[must_use]
    pub fn for_scheme(scheme: ExtScheme) -> Self {
        let pc_block_bits = 8 * scheme.granule_bytes();
        AnalyzerConfig {
            scheme,
            pc_block_bits,
            ..Self::paper_byte()
        }
    }
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self::paper_byte()
    }
}

/// Baseline latch bits clocked per instruction in the conventional 32-bit
/// five-stage pipeline: PC (30) + IF/ID instruction (32) + ID/EX operands
/// (64) + EX/MEM result (32) + MEM/WB data (32).
const BASELINE_LATCH_BITS: u64 = PC_BITS as u64 + 32 + 64 + 32 + 32;

/// Byte lanes of pipeline latch the conventional design clocks (and powers)
/// per instruction: [`BASELINE_LATCH_BITS`] rounded up to whole lanes.
const BASELINE_LATCH_LANES: u64 = BASELINE_LATCH_BITS.div_ceil(8);

/// Byte lanes of a full machine word.
const WORD_LANES: u64 = 4;

/// Gated-lane accounting for the structures whose sub-models track bits
/// only: per instruction, `total` byte lanes the baseline keeps powered and
/// `gated` lanes the extension bits let the compressed design power off.
#[derive(Debug, Clone, Copy, Default)]
struct GateCounter {
    gated: u64,
    total: u64,
}

impl GateCounter {
    /// Records one structure occupation: `powered` significant lanes out of
    /// `total` (powered is clamped, so approximate callers cannot underflow).
    fn occupy(&mut self, powered: u64, total: u64) {
        self.gated += total.saturating_sub(powered);
        self.total += total;
    }
}

/// The D-cache line fills of one record stream's walk through one memory
/// hierarchy, tallied for the activity study: every fill regenerates the
/// extension bits of a whole line (§2.6).
///
/// The fills are the only part of the study the hierarchy reaches. A caller
/// that studies one record stream under several hierarchies therefore runs
/// one [`TraceAnalyzer`] per scheme through
/// [`observe_core`](TraceAnalyzer::observe_core), keeps one `LineFills` per
/// hierarchy beside it, and combines the two with
/// [`TraceAnalyzer::report_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFills {
    /// L1 line fills.
    lines: u64,
    /// Significant bytes of the accessed words that stand in for the
    /// filled lines' contents, summed over the fills.
    sig_bytes: u64,
}

impl LineFills {
    /// Tallies `rec`'s data access under `scheme` if its walk `access`
    /// filled an L1 line.
    #[inline]
    pub fn observe(&mut self, rec: &ExecRecord, access: &InstrAccess, scheme: ExtScheme) {
        if access.data_l1_fill() {
            if let Some(mem) = rec.mem {
                self.lines += 1;
                self.sig_bytes += u64::from(significant_bytes(mem.value, scheme));
            }
        }
    }
}

/// The scheme-free part of the activity study: the compressed I-cache fetch
/// (§2.3) and the block-serial PC incrementer (§2.2) of one record stream.
///
/// Neither depends on the extension scheme, so a caller that studies one
/// stream under several schemes feeds one `StreamActivity` per record, with
/// one PC incrementer per distinct block size its analyzers use
/// ([`track_pc_blocks`](StreamActivity::track_pc_blocks)), and reports each
/// scheme through [`TraceAnalyzer::report_with`].
#[derive(Debug, Clone, Default)]
pub struct StreamActivity {
    fetch: FetchActivity,
    fetch_gate: GateCounter,
    /// One incrementer per tracked block size.
    pcs: Vec<PcLanes>,
}

/// One block-serial PC incrementer and its gated-lane accounting.
#[derive(Debug, Clone)]
struct PcLanes {
    block_bits: u32,
    pc: PcActivity,
    gate: GateCounter,
}

impl StreamActivity {
    /// An empty tally with one PC incrementer of `pc_block_bits`-bit blocks.
    #[must_use]
    pub fn new(pc_block_bits: u32) -> Self {
        let mut stream = Self::default();
        stream.track_pc_blocks(pc_block_bits);
        stream
    }

    /// Adds a PC incrementer of `block_bits`-bit blocks, unless one is
    /// already tracked. Call it before the first record.
    pub fn track_pc_blocks(&mut self, block_bits: u32) {
        if self.pcs.iter().all(|p| p.block_bits != block_bits) {
            self.pcs.push(PcLanes {
                block_bits,
                pc: PcActivity::new(block_bits),
                gate: GateCounter::default(),
            });
        }
    }

    /// Observes one retired instruction at `pc`, stored in the I-cache as
    /// `fetch`.
    #[inline]
    pub fn observe(&mut self, pc: u32, fetch: &CompressedInstr) {
        self.fetch.observe(fetch);
        self.fetch_gate
            .occupy(u64::from(fetch.fetch_bytes), WORD_LANES);
        for tracked in &mut self.pcs {
            let updates_before = tracked.pc.updates();
            let changed_blocks = tracked.pc.observe(pc);
            if tracked.pc.updates() > updates_before {
                // Block-serial incrementer: only the blocks the carry (or a
                // redirect) reaches power up; the rest stay gated behind
                // it. Rounded up to whole lanes, so sub-byte blocks
                // (pc_block_bits < 8 is a legal configuration) still record
                // occupancy instead of silently vanishing from the leakage
                // term.
                let block_lanes = u64::from(tracked.block_bits.div_ceil(8));
                let blocks = u64::from(tracked.pc.num_blocks());
                tracked.gate.occupy(
                    u64::from(changed_blocks.max(1)) * block_lanes,
                    blocks * block_lanes,
                );
            }
        }
    }

    /// Average fetched bytes per instruction of the stream (≈ 3.17 in the
    /// paper).
    #[must_use]
    pub fn mean_fetch_bytes(&self) -> f64 {
        self.fetch.mean_fetch_bytes()
    }

    /// The incrementer of `block_bits`-bit blocks.
    fn pc(&self, block_bits: u32) -> &PcLanes {
        self.pcs
            .iter()
            .find(|p| p.block_bits == block_bits)
            .unwrap_or_else(|| panic!("no PC incrementer of {block_bits}-bit blocks is tracked"))
    }
}

/// Trace-driven activity analyzer (reproduces Tables 5 and 6).
///
/// ```
/// use sigcomp::analyzer::{AnalyzerConfig, TraceAnalyzer};
/// use sigcomp_isa::{ProgramBuilder, Interpreter, reg};
///
/// # fn main() -> Result<(), sigcomp_isa::IsaError> {
/// let mut b = ProgramBuilder::new();
/// b.li(reg::T0, 0);
/// b.li(reg::T1, 1000);
/// b.label("loop");
/// b.addiu(reg::T0, reg::T0, 1);
/// b.bne(reg::T0, reg::T1, "loop");
/// b.halt();
///
/// let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
/// let mut interp = Interpreter::new(&b.assemble()?);
/// interp.run_each(100_000, |rec| analyzer.observe(rec))?;
///
/// let report = analyzer.report();
/// assert!(report.rf_read.saving() > 0.3);   // counter values are narrow
/// assert!(report.pc_increment.saving() > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceAnalyzer {
    config: AnalyzerConfig,
    /// The analyzer's own hierarchy; `None` when the caller walks a shared
    /// one ([`TraceAnalyzer::with_external_hierarchy`]).
    hierarchy: Option<MemoryHierarchy>,
    regfile: RegFileActivity,
    alu: StageActivity,
    dcache: DCacheActivity,
    latches: StageActivity,
    rf_read_gate: GateCounter,
    rf_write_gate: GateCounter,
    dcache_gate: GateCounter,
    /// The fetch and PC activity, the statistics and the line fills of the
    /// records fed to
    /// [`observe_with_access`](TraceAnalyzer::observe_with_access) or its
    /// wrappers.
    stream: StreamActivity,
    stats: SigStats,
    fills: LineFills,
}

impl TraceAnalyzer {
    /// Creates an analyzer with the given configuration.
    #[must_use]
    pub fn new(config: AnalyzerConfig) -> Self {
        let hierarchy = MemoryHierarchy::new(&config.hierarchy);
        TraceAnalyzer {
            hierarchy: Some(hierarchy),
            ..Self::with_external_hierarchy(config)
        }
    }

    /// Creates an analyzer without a memory hierarchy of its own, for
    /// callers that walk one shared hierarchy (configured like
    /// `config.hierarchy`) and feed the outcome to
    /// [`TraceAnalyzer::observe_with_access`]. Such an analyzer cannot
    /// [`observe`](TraceAnalyzer::observe) on its own, and its
    /// [`hierarchy_stats`](TraceAnalyzer::hierarchy_stats) are all zero —
    /// the counters live in the caller's hierarchy.
    #[must_use]
    pub fn with_external_hierarchy(config: AnalyzerConfig) -> Self {
        TraceAnalyzer {
            regfile: RegFileActivity::new(config.scheme),
            alu: StageActivity::default(),
            dcache: DCacheActivity::new(config.scheme),
            latches: StageActivity::default(),
            rf_read_gate: GateCounter::default(),
            rf_write_gate: GateCounter::default(),
            dcache_gate: GateCounter::default(),
            stream: StreamActivity::new(config.pc_block_bits),
            stats: SigStats::new(),
            fills: LineFills::default(),
            hierarchy: None,
            config,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Observes one retired instruction.
    pub fn observe(&mut self, rec: &ExecRecord) {
        let cost = instr_cost(rec, self.config.scheme, &self.config.recoder);
        self.observe_with_cost(rec, &cost);
    }

    /// [`TraceAnalyzer::observe`] with the record's [`InstrCost`] supplied
    /// by the caller — for drivers that also feed a timing model and want
    /// to distil the record once instead of once per model. The cost must
    /// come from `instr_cost(rec, ...)` under this analyzer's scheme and
    /// recoder, or the activity accounting is meaningless.
    ///
    /// # Panics
    ///
    /// If the analyzer was built without a hierarchy of its own
    /// ([`TraceAnalyzer::with_external_hierarchy`]).
    pub fn observe_with_cost(&mut self, rec: &ExecRecord, cost: &InstrCost) {
        let hierarchy = self
            .hierarchy
            .as_mut()
            .expect("an external-hierarchy analyzer is fed through observe_with_access");
        let access = InstrAccess::walk(hierarchy, rec);
        self.observe_with_access(rec, cost, &access);
    }

    /// [`TraceAnalyzer::observe_with_cost`] with the record's walk through
    /// the memory hierarchy supplied by the caller: only its L1-fill
    /// outcome matters to the activity study. The walk must come from
    /// [`InstrAccess::walk`] over a hierarchy configured like this
    /// analyzer's, fed the same record stream.
    pub fn observe_with_access(
        &mut self,
        rec: &ExecRecord,
        cost: &InstrCost,
        access: &InstrAccess,
    ) {
        self.stats.observe(rec);
        self.stream.observe(rec.pc, &cost.fetch);
        self.observe_core(rec, cost);
        self.fills.observe(rec, access, self.config.scheme);
    }

    /// The activity core: everything the study derives from one record and
    /// its cost vector under this analyzer's scheme. The instruction fetch
    /// and the PC incrementer depend on no scheme ([`StreamActivity`]), and
    /// the hierarchy reaches only the D-cache line fills, so one core per
    /// scheme and one stream tally serve a record stream under every
    /// hierarchy; tally each hierarchy's fills in a [`LineFills`] and
    /// report through [`TraceAnalyzer::report_with`]. The cost must come
    /// from `instr_cost(rec, ...)` under this analyzer's scheme and
    /// recoder.
    pub fn observe_core(&mut self, rec: &ExecRecord, cost: &InstrCost) {
        // ---- register-file reads -------------------------------------------
        // The significance counts were already produced by the batched
        // `instr_cost` pass for the same operand values; reuse them instead
        // of recomputing per bank access.
        for bytes in [cost.rs_bytes, cost.rt_bytes].into_iter().flatten() {
            self.regfile.record_read(bytes);
            self.rf_read_gate.occupy(u64::from(bytes), WORD_LANES);
        }

        // ---- ALU -------------------------------------------------------------
        if let Some(alu) = cost.alu {
            self.alu
                .add(alu.compressed_bits(self.config.scheme), alu.baseline_bits());
            self.alu.add_gating(
                u64::from(alu.baseline_bytes.saturating_sub(alu.bytes_operated)),
                u64::from(alu.baseline_bytes),
            );
        }

        // ---- data cache (line fills: see `report_with`) -----------------------
        if let Some(mem) = rec.mem {
            self.dcache.access(mem.value, mem.width);
            if let Some(m) = cost.mem {
                self.dcache_gate
                    .occupy(u64::from(m.sig_bytes), u64::from(m.width_bytes));
            }
        }

        // ---- register write-back --------------------------------------------
        if let Some(bytes) = cost.result_bytes {
            self.regfile.record_write(bytes);
            self.rf_write_gate.occupy(u64::from(bytes), WORD_LANES);
        }

        // ---- pipeline latches ------------------------------------------------
        let latched = self.latched_bits(cost);
        self.latches.add(latched, BASELINE_LATCH_BITS);
        self.latches.add_gating(
            BASELINE_LATCH_LANES.saturating_sub(latched.div_ceil(8)),
            BASELINE_LATCH_LANES,
        );
    }

    /// Bits latched for one instruction under operand gating: only the
    /// significant portions of the PC, instruction word, operands, result and
    /// memory data are clocked into the inter-stage latches.
    fn latched_bits(&self, cost: &InstrCost) -> u64 {
        let ext = u64::from(self.config.scheme.overhead_bits());
        let pc_bits = u64::from(self.config.pc_block_bits); // low block always clocks
        let fetch_bits = u64::from(cost.fetch.fetched_bits());
        let operand_bits =
            u64::from(cost.regfile_read_bytes()) * 8 + u64::from(cost.regfile_reads()) * ext;
        let result_bits = cost.result_bytes.map_or(0, |b| u64::from(b) * 8 + ext);
        let mem_bits = cost.mem.map_or(0, |m| u64::from(m.sig_bytes) * 8 + ext);
        pc_bits + fetch_bits + operand_bits + result_bits + mem_bits
    }

    /// Per-stage activity report (one Table 5/6 row for this trace).
    #[must_use]
    pub fn report(&self) -> ActivityReport {
        self.report_with(&self.stream, &self.fills, &self.config.hierarchy.dl1)
    }

    /// The report of the core fed through
    /// [`observe_core`](TraceAnalyzer::observe_core) under one hierarchy:
    /// `stream` is the fetch and PC activity of the same records (it must
    /// track this analyzer's PC block size), `fills` the hierarchy's line
    /// fills and `dl1` its D-cache geometry, which sets the fill size and
    /// the tag width.
    #[must_use]
    pub fn report_with(
        &self,
        stream: &StreamActivity,
        fills: &LineFills,
        dl1: &CacheConfig,
    ) -> ActivityReport {
        // A line fill regenerates extension bits for every word of the
        // line. The analyzer does not track line contents, so the accessed
        // word's value stands in for its neighbours (documented
        // approximation; fills are a small fraction of accesses at the
        // paper's miss rates).
        let words = u64::from(dl1.line_bytes / 4);
        let mut dcache = self.dcache.clone();
        dcache.fill_lines(fills.lines, fills.sig_bytes, words);
        let mut dcache_gate = self.dcache_gate;
        dcache_gate.occupy(fills.sig_bytes * words, WORD_LANES * words * fills.lines);
        let tag_bits = dcache.tag_bits(dl1);
        let pc = stream.pc(self.config.pc_block_bits);
        ActivityReport {
            fetch: StageActivity::with_gating(
                stream.fetch.compressed_bits(),
                stream.fetch.baseline_bits(),
                stream.fetch_gate.gated,
                stream.fetch_gate.total,
            ),
            rf_read: StageActivity::with_gating(
                self.regfile.read_compressed_bits(),
                self.regfile.read_baseline_bits(),
                self.rf_read_gate.gated,
                self.rf_read_gate.total,
            ),
            rf_write: StageActivity::with_gating(
                self.regfile.write_compressed_bits(),
                self.regfile.write_baseline_bits(),
                self.rf_write_gate.gated,
                self.rf_write_gate.total,
            ),
            alu: self.alu,
            dcache_data: StageActivity::with_gating(
                dcache.data_compressed_bits(),
                dcache.data_baseline_bits(),
                dcache_gate.gated,
                dcache_gate.total,
            ),
            // The tag array carries no extension bits, so none of its lanes
            // can be gated: it leaks the same on both sides.
            dcache_tag: StageActivity::with_gating(tag_bits, tag_bits, 0, tag_bits.div_ceil(8)),
            pc_increment: StageActivity::with_gating(
                pc.pc.compressed_bits(),
                pc.pc.baseline_bits(),
                pc.gate.gated,
                pc.gate.total,
            ),
            latches: self.latches,
        }
    }

    /// Trace-level significance statistics (Tables 1 and 3) of the records
    /// fed through [`observe`](TraceAnalyzer::observe) and its variants
    /// (not [`observe_core`](TraceAnalyzer::observe_core)).
    #[must_use]
    pub fn stats(&self) -> &SigStats {
        &self.stats
    }

    /// Average fetched bytes per instruction (≈ 3.17 in the paper).
    #[must_use]
    pub fn mean_fetch_bytes(&self) -> f64 {
        self.stream.mean_fetch_bytes()
    }

    /// Memory-hierarchy counters accumulated while analyzing (all zero for
    /// an analyzer built [`with_external_hierarchy`]).
    ///
    /// [`with_external_hierarchy`]: TraceAnalyzer::with_external_hierarchy
    #[must_use]
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.hierarchy
            .as_ref()
            .map_or_else(HierarchyStats::default, MemoryHierarchy::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ProcessNode;
    use crate::cost::instr_cost_with_fetch;
    use crate::ifetch::compress_instruction;
    use sigcomp_isa::{reg, Interpreter, ProgramBuilder};

    fn analyze(build: impl Fn(&mut ProgramBuilder), config: AnalyzerConfig) -> TraceAnalyzer {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let program = b.assemble().expect("assembles");
        let mut analyzer = TraceAnalyzer::new(config);
        let mut interp = Interpreter::new(&program);
        interp
            .run_each(2_000_000, |rec| analyzer.observe(rec))
            .expect("runs to completion");
        analyzer
    }

    fn counter_loop(b: &mut ProgramBuilder) {
        b.li(reg::T0, 0);
        b.li(reg::T1, 2000);
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
    }

    #[test]
    fn narrow_value_workload_saves_substantially() {
        let a = analyze(counter_loop, AnalyzerConfig::paper_byte());
        let report = a.report();
        assert!(
            report.rf_read.saving() > 0.25,
            "rf read saving {}",
            report.rf_read.saving()
        );
        assert!(report.rf_write.saving() > 0.25);
        assert!(report.alu.saving() > 0.15);
        assert!(report.pc_increment.saving() > 0.6);
        assert!(report.fetch.saving() > 0.05);
        assert!(report.latches.saving() > 0.25);
        // Tag array never saves anything.
        assert!(report.dcache_tag.saving().abs() < 1e-12);
        assert!(a.mean_fetch_bytes() < 4.0 && a.mean_fetch_bytes() >= 3.0);
        assert!(a.stats().instructions() > 10_000);
    }

    #[test]
    fn halfword_saves_less_than_byte_granularity() {
        let byte = analyze(counter_loop, AnalyzerConfig::paper_byte()).report();
        let half = analyze(counter_loop, AnalyzerConfig::paper_halfword()).report();
        assert!(byte.rf_read.saving() > half.rf_read.saving());
        assert!(byte.alu.saving() > half.alu.saving());
        assert!(byte.pc_increment.saving() > half.pc_increment.saving());
        // Both still save overall.
        assert!(half.rf_read.saving() > 0.0);
    }

    #[test]
    fn hierarchy_counters_reflect_the_trace() {
        let a = analyze(counter_loop, AnalyzerConfig::paper_byte());
        let h = a.hierarchy_stats();
        assert!(h.il1.accesses > 10_000);
        assert!(h.dl1.accesses > 3_000);
        assert!(h.dl1.miss_rate() < 0.2);
    }

    /// Streams stores and loads over 64 KB at a 32-byte stride, so every
    /// data access misses (and fills) a 4 KB or 8 KB L1.
    fn strided_loop(b: &mut ProgramBuilder) {
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
    }

    #[test]
    fn an_external_walk_plus_observe_with_access_equals_observe_with_cost() {
        let mut b = ProgramBuilder::new();
        strided_loop(&mut b);
        let trace = Interpreter::new(&b.assemble().unwrap())
            .run(1_000_000)
            .unwrap();
        // The sweep's small-L1 and slow-memory geometries.
        let mut small_l1 = HierarchyConfig::paper();
        small_l1.il1.size_bytes = 4 * 1024;
        small_l1.dl1.size_bytes = 4 * 1024;
        let mut slow_memory = HierarchyConfig::paper();
        slow_memory.memory_latency = 100;
        for hierarchy in [small_l1, slow_memory] {
            for &scheme in ExtScheme::ALL {
                let config = AnalyzerConfig {
                    hierarchy,
                    ..AnalyzerConfig::for_scheme(scheme)
                };
                let mut own = TraceAnalyzer::new(config.clone());
                let mut external = TraceAnalyzer::with_external_hierarchy(config.clone());
                let mut shared = MemoryHierarchy::new(&hierarchy);
                for rec in &trace {
                    let cost = instr_cost(rec, scheme, &config.recoder);
                    own.observe_with_cost(rec, &cost);
                    external.observe_with_access(rec, &cost, &InstrAccess::walk(&mut shared, rec));
                }
                let stats = own.hierarchy_stats();
                assert!(stats.dl1.fills > 1_000, "the stride must fill L1 lines");
                assert_eq!(stats, shared.stats());
                assert_eq!(external.hierarchy_stats(), HierarchyStats::default());
                assert_eq!(own.report(), external.report());
                assert_eq!(own.stats().instructions(), external.stats().instructions());
            }
        }
    }

    /// The paper's memory profile and the sweep's small-L1 and slow-memory
    /// ones.
    fn profile_geometries() -> [HierarchyConfig; 3] {
        let mut small_l1 = HierarchyConfig::paper();
        small_l1.il1.size_bytes = 4 * 1024;
        small_l1.dl1.size_bytes = 4 * 1024;
        let mut slow_memory = HierarchyConfig::paper();
        slow_memory.memory_latency = 100;
        [HierarchyConfig::paper(), small_l1, slow_memory]
    }

    #[test]
    fn one_core_plus_per_hierarchy_fills_reports_like_one_analyzer_per_hierarchy() {
        let mut b = ProgramBuilder::new();
        strided_loop(&mut b);
        let trace = Interpreter::new(&b.assemble().unwrap())
            .run(1_000_000)
            .unwrap();
        let geometries = profile_geometries();
        for &scheme in ExtScheme::ALL {
            let configs = geometries.map(|hierarchy| AnalyzerConfig {
                hierarchy,
                ..AnalyzerConfig::for_scheme(scheme)
            });
            let mut per_hierarchy = configs.clone().map(TraceAnalyzer::new);
            // The core is built for the first geometry; the others' fills
            // and tags come from `report_with`.
            let mut core = TraceAnalyzer::with_external_hierarchy(configs[0].clone());
            let mut stream = StreamActivity::new(configs[0].pc_block_bits);
            let mut walks = geometries.map(|h| MemoryHierarchy::new(&h));
            let mut fills = [LineFills::default(); 3];
            for rec in &trace {
                let cost = instr_cost(rec, scheme, &configs[0].recoder);
                core.observe_core(rec, &cost);
                stream.observe(rec.pc, &cost.fetch);
                for ((analyzer, walk), fills) in
                    per_hierarchy.iter_mut().zip(&mut walks).zip(&mut fills)
                {
                    analyzer.observe_with_cost(rec, &cost);
                    fills.observe(rec, &InstrAccess::walk(walk, rec), scheme);
                }
            }
            assert!(
                fills.iter().all(|f| f.lines > 1_000),
                "the stride must fill L1 lines"
            );
            for ((analyzer, fills), hierarchy) in per_hierarchy.iter().zip(&fills).zip(&geometries)
            {
                assert_eq!(
                    analyzer.report(),
                    core.report_with(&stream, fills, &hierarchy.dl1)
                );
            }
            // The small L1's longer tags reach the report.
            assert_ne!(
                core.report_with(&stream, &fills[1], &geometries[0].dl1)
                    .dcache_tag,
                core.report_with(&stream, &fills[1], &geometries[1].dl1)
                    .dcache_tag
            );
        }
    }

    #[test]
    fn one_stream_part_plus_per_scheme_cores_report_like_one_analyzer_per_scheme() {
        let recoder = FunctRecoder::paper_default();
        for program in [counter_loop, strided_loop] {
            let mut b = ProgramBuilder::new();
            program(&mut b);
            let trace = Interpreter::new(&b.assemble().unwrap())
                .run(1_000_000)
                .unwrap();
            for hierarchy in profile_geometries() {
                let configs: Vec<AnalyzerConfig> = ExtScheme::ALL
                    .iter()
                    .map(|&scheme| AnalyzerConfig {
                        hierarchy,
                        ..AnalyzerConfig::for_scheme(scheme)
                    })
                    .collect();
                // One analyzer per scheme, each tallying fetch and PC
                // activity itself...
                let mut per_scheme: Vec<TraceAnalyzer> = configs
                    .iter()
                    .cloned()
                    .map(TraceAnalyzer::with_external_hierarchy)
                    .collect();
                // ...against one stream part, shared by every scheme, and a
                // core per scheme. The byte schemes share 8-bit PC blocks;
                // the halfword scheme needs 16-bit ones.
                let mut stream = StreamActivity::default();
                for config in &configs {
                    stream.track_pc_blocks(config.pc_block_bits);
                }
                assert_eq!(stream.pcs.len(), 2);
                let mut cores: Vec<TraceAnalyzer> = configs
                    .iter()
                    .cloned()
                    .map(TraceAnalyzer::with_external_hierarchy)
                    .collect();
                let mut fills = vec![LineFills::default(); configs.len()];
                let mut walk = MemoryHierarchy::new(&hierarchy);
                for rec in &trace {
                    let access = InstrAccess::walk(&mut walk, rec);
                    let fetch = compress_instruction(&rec.instr, &recoder);
                    stream.observe(rec.pc, &fetch);
                    for (i, config) in configs.iter().enumerate() {
                        let cost = instr_cost_with_fetch(rec, config.scheme, fetch);
                        assert_eq!(cost, instr_cost(rec, config.scheme, &recoder));
                        per_scheme[i].observe_with_access(rec, &cost, &access);
                        cores[i].observe_core(rec, &cost);
                        fills[i].observe(rec, &access, config.scheme);
                    }
                }
                for ((analyzer, core), fills) in per_scheme.iter().zip(&cores).zip(&fills) {
                    assert_eq!(
                        analyzer.report(),
                        core.report_with(&stream, fills, &hierarchy.dl1),
                        "{}",
                        analyzer.config().scheme.id()
                    );
                }
            }
        }
    }

    #[test]
    fn d_cache_fills_use_the_d_cache_line_size() {
        // Regression: fill words were taken from the I-cache line size.
        let mut hierarchy = HierarchyConfig::paper();
        hierarchy.il1.line_bytes = 32;
        hierarchy.dl1.line_bytes = 64;
        let config = AnalyzerConfig {
            hierarchy,
            ..AnalyzerConfig::paper_byte()
        };
        let a = analyze(strided_loop, config);
        let fills = a.hierarchy_stats().dl1.fills;
        assert!(fills > 1_000, "the stride must fill L1 lines");
        // 2048 stores and 2048 loads of one word each, then 16 words a fill.
        let report = a.report();
        assert_eq!(
            report.dcache_data.baseline_bits,
            (2 * 2048 + 16 * fills) * 32
        );
        assert_eq!(
            report.dcache_data.total_byte_cycles,
            (2 * 2048 + 16 * fills) * WORD_LANES
        );
    }

    #[test]
    fn for_scheme_matches_granularity() {
        assert_eq!(
            AnalyzerConfig::for_scheme(ExtScheme::Halfword).pc_block_bits,
            16
        );
        assert_eq!(
            AnalyzerConfig::for_scheme(ExtScheme::ThreeBit).pc_block_bits,
            8
        );
        assert_eq!(AnalyzerConfig::default().pc_block_bits, 8);
    }

    #[test]
    fn gated_byte_cycles_track_insignificant_lanes() {
        let a = analyze(counter_loop, AnalyzerConfig::paper_byte());
        let report = a.report();
        // Narrow counter values leave most upper lanes gated in the value
        // datapaths, and the block-serial PC rarely ripples past block 0.
        for (name, stage) in report.columns() {
            assert!(
                stage.gated_byte_cycles <= stage.total_byte_cycles,
                "{name}: gated {} > total {}",
                stage.gated_byte_cycles,
                stage.total_byte_cycles
            );
            assert!(stage.total_byte_cycles > 0, "{name}: no occupancy recorded");
        }
        assert!(report.rf_read.gated_fraction() > 0.25);
        assert!(report.rf_write.gated_fraction() > 0.25);
        assert!(report.alu.gated_fraction() > 0.15);
        assert!(report.pc_increment.gated_fraction() > 0.5);
        assert!(report.latches.gated_fraction() > 0.2);
        // The tag array can never gate a lane.
        assert_eq!(report.dcache_tag.gated_byte_cycles, 0);
    }

    #[test]
    fn sub_byte_pc_blocks_still_record_lane_occupancy() {
        // Regression: flooring pc_block_bits/8 made 4-bit blocks count zero
        // lanes, erasing the PC incrementer from the leakage term.
        let config = AnalyzerConfig {
            pc_block_bits: 4,
            ..AnalyzerConfig::paper_byte()
        };
        let report = analyze(counter_loop, config).report();
        assert!(report.pc_increment.total_byte_cycles > 0);
        assert!(report.pc_increment.gated_byte_cycles <= report.pc_increment.total_byte_cycles);
        assert!(report.pc_increment.gated_fraction() > 0.5);
    }

    #[test]
    fn halfword_granularity_gates_fewer_lanes_than_byte() {
        let byte = analyze(counter_loop, AnalyzerConfig::paper_byte()).report();
        let half = analyze(counter_loop, AnalyzerConfig::paper_halfword()).report();
        assert!(byte.rf_read.gated_fraction() > half.rf_read.gated_fraction());
        assert!(byte.pc_increment.gated_fraction() > half.pc_increment.gated_fraction());
        assert!(half.rf_read.gated_fraction() > 0.0);
    }

    #[test]
    fn leaky_nodes_reward_the_narrow_workload() {
        let report = analyze(counter_loop, AnalyzerConfig::paper_byte()).report();
        let dynamic_only = ProcessNode::Paper180nm.model();
        let modern = ProcessNode::Modern7nm.model();
        assert_eq!(
            dynamic_only.saving(&report),
            modern.dynamic_saving(&report),
            "leakage weights must not disturb the dynamic term"
        );
        assert!(modern.leakage_saving(&report) > 0.2);
    }

    #[test]
    fn wide_value_workload_saves_little() {
        let wide = |b: &mut ProgramBuilder| {
            b.li(reg::T0, 0x7654_3210);
            b.li(reg::T1, 0x0123_4567u32 as i32);
            b.li(reg::T2, 0);
            b.li(reg::T5, 500);
            b.label("loop");
            b.xor(reg::T3, reg::T0, reg::T1);
            b.addu(reg::T4, reg::T3, reg::T0);
            b.addiu(reg::T2, reg::T2, 1);
            b.bne(reg::T2, reg::T5, "loop");
            b.halt();
        };
        let narrow = analyze(counter_loop, AnalyzerConfig::paper_byte()).report();
        let wide = analyze(wide, AnalyzerConfig::paper_byte()).report();
        assert!(narrow.rf_read.saving() > wide.rf_read.saving());
        assert!(narrow.alu.saving() > wide.alu.saving());
    }
}
