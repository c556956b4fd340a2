//! Aggregated width-bound summaries: the static counterpart of the dynamic
//! [`sigcomp::SigStats`] tables.
//!
//! A [`WidthReport`] collapses a [`StaticAnalysis`] into per-opcode and
//! per-register bound summaries plus a predicted significance distribution
//! (the fraction of operand slots proven to fit 1–4 bytes). The dynamic
//! distribution weights instructions by execution frequency and the static
//! one counts each reachable instruction once, so the two are comparable in
//! shape but not interchangeable — the report exists to put them side by
//! side, and the differential verifier (not the distributions) carries the
//! soundness claim.

use crate::analysis::StaticAnalysis;
use crate::lattice::Width;
use sigcomp_isa::{Op, Reg};
use sigcomp_obs::json::{Layout, Writer};

/// Width summary for one opcode across all its reachable occurrences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWidthRow {
    /// The opcode.
    pub op: Op,
    /// Reachable occurrences in the text segment.
    pub count: u64,
    /// Join of the result bounds across occurrences, when the opcode
    /// produces a value.
    pub result: Option<Width>,
    /// Mean bound, in bytes, over every operand slot (sources and results)
    /// of every occurrence.
    pub mean_operand_bytes: f64,
}

/// The static width summary for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthReport {
    /// Display name of the analyzed program (workload or trace file).
    pub target: String,
    /// Total basic blocks in the CFG.
    pub blocks: usize,
    /// Blocks the fixpoint proved reachable.
    pub reachable_blocks: usize,
    /// Reachable (bounded) instructions.
    pub instructions: u64,
    /// Operand slots whose proven bound is exactly `k` bytes
    /// (`width_counts[k-1]`; ⊤ counts as 4).
    pub width_counts: [u64; 4],
    /// Per-opcode summaries, in [`Op::ALL`] declaration order, present ops
    /// only.
    pub per_op: Vec<OpWidthRow>,
    /// Join of the bounds written to each architectural register, `None`
    /// for registers no reachable instruction writes.
    pub per_reg: [Option<Width>; 32],
}

impl WidthReport {
    /// Builds the report from a finished analysis.
    #[must_use]
    pub fn from_analysis(target: &str, analysis: &StaticAnalysis) -> WidthReport {
        let mut width_counts = [0u64; 4];
        let mut per_reg: [Option<Width>; 32] = [None; 32];
        let mut op_count = vec![0u64; Op::ALL.len()];
        let mut op_result: Vec<Option<Width>> = vec![None; Op::ALL.len()];
        let mut op_slot_bytes = vec![0u64; Op::ALL.len()];
        let mut op_slots = vec![0u64; Op::ALL.len()];

        for bounds in analysis.bounds.values() {
            let idx = bounds.instr.op as usize;
            op_count[idx] += 1;
            for w in bounds.operand_bounds() {
                let b = w.bound().clamp(1, 4);
                width_counts[usize::from(b) - 1] += 1;
                op_slot_bytes[idx] += u64::from(b);
                op_slots[idx] += 1;
            }
            if let Some(result) = bounds.result {
                op_result[idx] = Some(op_result[idx].map_or(result, |w| w.join(result)));
                if let Some(dest) = bounds.instr.dest_reg() {
                    let slot = &mut per_reg[usize::from(dest.index())];
                    *slot = Some(slot.map_or(result, |w| w.join(result)));
                }
            }
        }

        let per_op = Op::ALL
            .iter()
            .filter(|&&op| op_count[op as usize] > 0)
            .map(|&op| {
                let idx = op as usize;
                OpWidthRow {
                    op,
                    count: op_count[idx],
                    result: op_result[idx],
                    mean_operand_bytes: if op_slots[idx] == 0 {
                        0.0
                    } else {
                        op_slot_bytes[idx] as f64 / op_slots[idx] as f64
                    },
                }
            })
            .collect();

        WidthReport {
            target: target.to_string(),
            blocks: analysis.cfg.blocks.len(),
            reachable_blocks: analysis.reachable_blocks,
            instructions: analysis.bounds.len() as u64,
            width_counts,
            per_op,
            per_reg,
        }
    }

    /// Total bounded operand slots.
    #[must_use]
    pub fn operand_slots(&self) -> u64 {
        self.width_counts.iter().sum()
    }

    /// The predicted significance distribution: fraction of operand slots
    /// proven to need exactly `k` bytes (`fractions()[k-1]`).
    #[must_use]
    pub fn width_fractions(&self) -> [f64; 4] {
        let total = self.operand_slots();
        if total == 0 {
            return [0.0; 4];
        }
        self.width_counts.map(|c| c as f64 / total as f64)
    }

    /// Mean proven operand width, in bytes (4.0 when nothing was bounded —
    /// no claim is the widest claim).
    #[must_use]
    pub fn mean_bound_bytes(&self) -> f64 {
        let total = self.operand_slots();
        if total == 0 {
            return 4.0;
        }
        let bytes: u64 = self
            .width_counts
            .iter()
            .enumerate()
            .map(|(i, c)| (i as u64 + 1) * c)
            .sum();
        bytes as f64 / total as f64
    }

    /// The statically predicted fraction of operand bytes a significance-
    /// compressed datapath could skip: `1 − mean_bound/4`. An upper-bound
    /// flavored estimate used by the sweep pre-screen, not an energy model.
    #[must_use]
    pub fn predicted_saving(&self) -> f64 {
        1.0 - self.mean_bound_bytes() / 4.0
    }

    /// Histogram rows (`label, percent`) for the shared significance
    /// histogram formatter.
    #[must_use]
    pub fn histogram_rows(&self) -> Vec<(String, f64)> {
        self.width_fractions()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    format!("<={} byte{}", i + 1, if i == 0 { "" } else { "s" }),
                    f * 100.0,
                )
            })
            .collect()
    }

    /// CSV export: one row per opcode plus a trailing `total` row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("op,count,mean_operand_bytes,result_bound\n");
        for row in &self.per_op {
            out.push_str(&format!(
                "{},{},{:.4},{}\n",
                row.op.mnemonic(),
                row.count,
                row.mean_operand_bytes,
                row.result.map_or("-", Width::label),
            ));
        }
        out.push_str(&format!(
            "total,{},{:.4},-\n",
            self.instructions,
            self.mean_bound_bytes()
        ));
        out
    }

    /// JSON export: the full report as a single object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Lines);
        w.key("target").str(&self.target);
        w.key("blocks").raw(self.blocks);
        w.key("reachable_blocks").raw(self.reachable_blocks);
        w.key("instructions").raw(self.instructions);
        w.key("operand_slots").raw(self.operand_slots());
        let counts = self.width_counts.map(|c| c.to_string()).join(",");
        w.key("width_counts").raw(format_args!("[{counts}]"));
        w.key("mean_bound_bytes").float(self.mean_bound_bytes(), 6);
        w.key("predicted_saving").float(self.predicted_saving(), 6);
        w.key("per_op").array(Layout::Lines);
        for row in &self.per_op {
            w.object(Layout::Inline);
            w.key("op").str(row.op.mnemonic());
            w.key("count").raw(row.count);
            w.key("mean_operand_bytes").float(row.mean_operand_bytes, 6);
            w.key("result_bound");
            match row.result {
                Some(width) => w.str(width.label()),
                None => w.raw("null"),
            };
            w.end();
        }
        w.end();
        w.key("per_reg").object(Layout::Inline);
        for (i, slot) in self.per_reg.iter().enumerate() {
            if let Some(width) = slot {
                w.key(Reg::new(i as u8).name()).str(width.label());
            }
        }
        w.end().end();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_program, EntryState};
    use sigcomp_isa::{program, reg, Instruction, Program};

    fn report_for(instrs: &[Instruction]) -> WidthReport {
        let p = Program {
            text_base: program::DEFAULT_TEXT_BASE,
            text: instrs.iter().map(Instruction::encode).collect(),
            data_base: program::DEFAULT_DATA_BASE,
            data: Vec::new(),
            entry: program::DEFAULT_TEXT_BASE,
            stack_top: program::DEFAULT_STACK_TOP,
        };
        WidthReport::from_analysis("unit", &analyze_program(&p, EntryState::KernelBoot))
    }

    #[test]
    fn narrow_kernel_predicts_high_saving() {
        let r = report_for(&[
            Instruction::imm(Op::Addiu, reg::T0, reg::ZERO, 1),
            Instruction::r3(Op::Addu, reg::T1, reg::T0, reg::T0),
            Instruction::r3(Op::Break, reg::ZERO, reg::ZERO, reg::ZERO),
        ]);
        assert_eq!(r.instructions, 3);
        assert!(r.mean_bound_bytes() <= 2.0, "mean {}", r.mean_bound_bytes());
        assert!(r.predicted_saving() >= 0.5);
        assert_eq!(r.per_reg[usize::from(reg::T0.index())], Some(Width::B2));
    }

    #[test]
    fn exports_are_well_formed() {
        let r = report_for(&[
            Instruction::imm(Op::Addiu, reg::T0, reg::ZERO, 1),
            Instruction::r3(Op::Break, reg::ZERO, reg::ZERO, reg::ZERO),
        ]);
        let csv = r.to_csv();
        assert!(csv.starts_with("op,count,"));
        assert!(csv.lines().last().unwrap().starts_with("total,"));
        let json = r.to_json();
        assert!(json.contains("\"predicted_saving\""));
        assert!(json.contains("\"addiu\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = report_for(&[
            Instruction::imm(Op::Addiu, reg::T0, reg::ZERO, 300),
            Instruction::imm(Op::Lui, reg::T1, reg::ZERO, 0x7fff),
            Instruction::r3(Op::Break, reg::ZERO, reg::ZERO, reg::ZERO),
        ]);
        let sum: f64 = r.width_fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
