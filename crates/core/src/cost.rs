//! Per-instruction significance costs.
//!
//! [`instr_cost`] distils one retired instruction into the quantities every
//! downstream model needs: how many bytes must be fetched, read from the
//! register file, pushed through the ALU, accessed in the data cache and
//! written back. The trace-driven activity study ([`crate::analyzer`]) sums
//! these costs into Tables 5/6; the pipeline timing models in
//! `sigcomp-pipeline` turn the same costs into per-stage cycle counts.

use crate::alu::{self, AluOutcome, LogicOp, ShiftOp};
use crate::ext::{significant_bytes, significant_bytes_x4, ExtScheme};
use crate::ifetch::{compress_instruction, CompressedInstr, FunctRecoder};
use sigcomp_isa::{ExecRecord, Op};

/// Significance cost of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCost {
    /// Architectural access width in bytes (1, 2 or 4).
    pub width_bytes: u8,
    /// Significant bytes that actually move between the pipeline and the
    /// data cache (≤ width).
    pub sig_bytes: u8,
    /// Whether the access is a store.
    pub is_store: bool,
}

/// The per-instruction significance cost vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCost {
    /// The compressed-I-cache form and how many bytes it fetches.
    pub fetch: CompressedInstr,
    /// Significant bytes of the `rs` operand, if it is read.
    pub rs_bytes: Option<u8>,
    /// Significant bytes of the `rt` operand, if it is read.
    pub rt_bytes: Option<u8>,
    /// Significant bytes of the value written back, if any.
    pub result_bytes: Option<u8>,
    /// ALU outcome (result and byte-slices operated), if the instruction
    /// uses the ALU (arithmetic, logic, shifts, compares, address
    /// generation, branch comparison).
    pub alu: Option<AluOutcome>,
    /// Memory-access cost, if the instruction is a load or store.
    pub mem: Option<MemCost>,
    /// Whether the instruction is a conditional branch.
    pub is_branch: bool,
    /// Whether the instruction is an unconditional jump.
    pub is_jump: bool,
    /// Whether a control transfer was taken.
    pub taken: bool,
}

impl InstrCost {
    /// Bytes the register file must deliver for this instruction (sum of the
    /// operand significant bytes).
    #[must_use]
    pub fn regfile_read_bytes(&self) -> u8 {
        self.rs_bytes.unwrap_or(0) + self.rt_bytes.unwrap_or(0)
    }

    /// Number of register operands read.
    #[must_use]
    pub fn regfile_reads(&self) -> u8 {
        u8::from(self.rs_bytes.is_some()) + u8::from(self.rt_bytes.is_some())
    }

    /// The largest per-operand significant byte count (what a skewed
    /// register-read stage must stream out serially).
    #[must_use]
    pub fn max_operand_bytes(&self) -> u8 {
        self.rs_bytes
            .unwrap_or(0)
            .max(self.rt_bytes.unwrap_or(0))
            .max(1)
    }

    /// ALU byte slices that must operate (zero if the ALU is unused).
    #[must_use]
    pub fn alu_bytes(&self) -> u8 {
        self.alu.map_or(0, |a| a.bytes_operated)
    }

    /// Whether the instruction needs the ALU at all.
    #[must_use]
    pub fn uses_alu(&self) -> bool {
        self.alu.is_some()
    }
}

/// How an operation uses the ALU datapath — the attribute looked up per
/// opcode instead of re-deriving it through a 45-arm match on every record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AluUse {
    /// Add of `rs` and the second-operand selector's value.
    Add(Operand2),
    /// Subtract of the second operand from `rs`.
    Sub(Operand2),
    /// Bitwise logic of `rs` and the second operand.
    Logic(LogicOp, Operand2),
    /// Compare `rs` against the second operand (`signed` selects the flag).
    Compare(Operand2, bool),
    /// `lui`: the ALU produces `imm << 16` directly.
    Lui,
    /// Shift of `rt` by the amount selector's value.
    Shift(ShiftOp, ShiftAmount),
    /// Multiply/divide of `rs` and `rt` into HI/LO.
    MulDiv,
    /// HI/LO moves pass one value through the datapath unchanged.
    HiLoMove,
    /// Sign/zero test of `rs` against zero (REGIMM and z-branches).
    SignTest,
    /// The ALU is idle (jumps, `break`).
    Unused,
}

/// Second-operand selector for [`AluUse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand2 {
    Rt,
    ImmSe,
    ImmZe,
}

/// Shift-amount selector for [`AluUse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftAmount {
    Shamt,
    Rs,
}

const fn alu_use_of(op: Op) -> AluUse {
    use AluUse::{Add, Compare, HiLoMove, Logic, Lui, MulDiv, Shift, SignTest, Sub, Unused};
    match op {
        Op::Add | Op::Addu => Add(Operand2::Rt),
        Op::Sub | Op::Subu => Sub(Operand2::Rt),
        Op::Addi | Op::Addiu => Add(Operand2::ImmSe),
        Op::And => Logic(LogicOp::And, Operand2::Rt),
        Op::Or => Logic(LogicOp::Or, Operand2::Rt),
        Op::Xor => Logic(LogicOp::Xor, Operand2::Rt),
        Op::Nor => Logic(LogicOp::Nor, Operand2::Rt),
        Op::Andi => Logic(LogicOp::And, Operand2::ImmZe),
        Op::Ori => Logic(LogicOp::Or, Operand2::ImmZe),
        Op::Xori => Logic(LogicOp::Xor, Operand2::ImmZe),
        Op::Slt => Compare(Operand2::Rt, true),
        Op::Sltu => Compare(Operand2::Rt, false),
        Op::Slti => Compare(Operand2::ImmSe, true),
        Op::Sltiu => Compare(Operand2::ImmSe, false),
        Op::Lui => Lui,
        Op::Sll => Shift(ShiftOp::Left, ShiftAmount::Shamt),
        Op::Srl => Shift(ShiftOp::RightLogical, ShiftAmount::Shamt),
        Op::Sra => Shift(ShiftOp::RightArithmetic, ShiftAmount::Shamt),
        Op::Sllv => Shift(ShiftOp::Left, ShiftAmount::Rs),
        Op::Srlv => Shift(ShiftOp::RightLogical, ShiftAmount::Rs),
        Op::Srav => Shift(ShiftOp::RightArithmetic, ShiftAmount::Rs),
        Op::Mult | Op::Multu | Op::Div | Op::Divu => MulDiv,
        Op::Mfhi | Op::Mflo | Op::Mthi | Op::Mtlo => HiLoMove,
        // Loads/stores use the adder for address generation.
        Op::Lb | Op::Lbu | Op::Lh | Op::Lhu | Op::Lw | Op::Sb | Op::Sh | Op::Sw => {
            Add(Operand2::ImmSe)
        }
        Op::Beq | Op::Bne => Compare(Operand2::Rt, true),
        Op::Blez | Op::Bgtz | Op::Bltz | Op::Bgez => SignTest,
        Op::J | Op::Jal | Op::Jr | Op::Jalr | Op::Break => Unused,
    }
}

/// Per-opcode ALU attribute table, indexed by `op as usize` (declaration
/// order is the discriminant, pinned by `Op::ALL`).
const ALU_USE: [AluUse; Op::ALL.len()] = {
    let mut table = [AluUse::Unused; Op::ALL.len()];
    let mut i = 0;
    while i < Op::ALL.len() {
        table[i] = alu_use_of(Op::ALL[i]);
        i += 1;
    }
    table
};

fn alu_outcome(rec: &ExecRecord, scheme: ExtScheme) -> Option<AluOutcome> {
    let rs = rec.rs_value.unwrap_or(0);
    let rt = rec.rt_value.unwrap_or(0);
    let operand2 = |sel: Operand2| match sel {
        Operand2::Rt => rt,
        Operand2::ImmSe => rec.instr.imm_se() as u32,
        Operand2::ImmZe => rec.instr.imm_ze(),
    };

    let outcome = match ALU_USE[rec.instr.op as usize] {
        AluUse::Add(sel) => alu::add(rs, operand2(sel), scheme),
        AluUse::Sub(sel) => alu::sub(rs, operand2(sel), scheme),
        AluUse::Logic(op, sel) => alu::logic(op, rs, operand2(sel), scheme),
        AluUse::Compare(sel, signed) => alu::compare(rs, operand2(sel), signed, scheme),
        AluUse::Lui => {
            let result = rec.instr.imm_ze() << 16;
            AluOutcome {
                result,
                bytes_operated: significant_bytes(result, scheme).max(1),
                baseline_bytes: 4,
            }
        }
        AluUse::Shift(op, amount) => {
            let amount = match amount {
                ShiftAmount::Shamt => u32::from(rec.instr.shamt),
                ShiftAmount::Rs => rs,
            };
            alu::shift(op, rt, amount, scheme)
        }
        AluUse::MulDiv => alu::muldiv(rs, rt, scheme),
        AluUse::HiLoMove => {
            // HI/LO moves pass one value through the ALU datapath unchanged.
            let moved = rec.result_value().unwrap_or(rs);
            AluOutcome {
                result: moved,
                bytes_operated: significant_bytes(moved, scheme),
                baseline_bytes: 4,
            }
        }
        AluUse::SignTest => {
            // Sign/zero test against zero: a subtract of zero, i.e. the
            // significant bytes of rs must be examined.
            AluOutcome {
                result: u32::from(rec.is_taken_branch()),
                bytes_operated: significant_bytes(rs, scheme),
                baseline_bytes: 4,
            }
        }
        AluUse::Unused => return None,
    };
    Some(outcome)
}

/// Computes the per-instruction significance cost vector for one retired
/// instruction under the given extension scheme and I-cache recoding.
#[must_use]
pub fn instr_cost(rec: &ExecRecord, scheme: ExtScheme, recoder: &FunctRecoder) -> InstrCost {
    instr_cost_with_fetch(rec, scheme, compress_instruction(&rec.instr, recoder))
}

/// [`instr_cost`] with the record's compressed instruction supplied by the
/// caller. The compressed form depends only on the instruction and the
/// recoding, not on the scheme, so a caller costing one record under
/// several schemes compresses it once. `fetch` must be
/// `compress_instruction(&rec.instr, recoder)`.
#[must_use]
pub fn instr_cost_with_fetch(
    rec: &ExecRecord,
    scheme: ExtScheme,
    fetch: CompressedInstr,
) -> InstrCost {
    let op = rec.instr.op;
    let result = rec.result_value();
    // One branchless four-lane batch counts every per-value significance the
    // cost vector needs; the Option structure is re-applied afterwards.
    let [rs_sig, rt_sig, result_sig, mem_sig] = significant_bytes_x4(
        [
            rec.rs_value.unwrap_or(0),
            rec.rt_value.unwrap_or(0),
            result.unwrap_or(0),
            rec.mem.map_or(0, |m| m.value),
        ],
        scheme,
    );
    let rs_bytes = rec.rs_value.map(|_| rs_sig);
    let rt_bytes = rec.rt_value.map(|_| rt_sig);
    let result_bytes = result.map(|_| result_sig);
    let alu = alu_outcome(rec, scheme);
    let mem = rec.mem.map(|m| MemCost {
        width_bytes: m.width,
        sig_bytes: mem_sig
            .min(m.width)
            .max(scheme.granule_bytes() as u8)
            .min(m.width.max(scheme.granule_bytes() as u8)),
        is_store: m.is_store,
    });
    InstrCost {
        fetch,
        rs_bytes,
        rt_bytes,
        result_bytes,
        alu,
        mem,
        is_branch: op.is_branch(),
        is_jump: op.is_jump(),
        taken: rec.is_taken_branch(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_isa::reg::{A0, RA, T0, T1, T2};
    use sigcomp_isa::{BranchOutcome, Instruction, MemAccess};

    const S: ExtScheme = ExtScheme::ThreeBit;

    fn rec(instr: Instruction) -> ExecRecord {
        ExecRecord {
            seq: 0,
            pc: 0x0040_0000,
            word: instr.encode(),
            instr,
            rs_value: None,
            rt_value: None,
            writeback: None,
            mem: None,
            branch: None,
        }
    }

    fn recoder() -> FunctRecoder {
        FunctRecoder::paper_default()
    }

    #[test]
    fn alu_attribute_table_is_indexed_by_declaration_order() {
        for &op in Op::ALL {
            assert_eq!(ALU_USE[op as usize], alu_use_of(op), "{op}");
        }
        assert_eq!(ALU_USE[Op::Addu as usize], AluUse::Add(Operand2::Rt));
        assert_eq!(ALU_USE[Op::Lw as usize], AluUse::Add(Operand2::ImmSe));
        assert_eq!(ALU_USE[Op::Jr as usize], AluUse::Unused);
    }

    #[test]
    fn small_add_costs_one_alu_byte() {
        let mut r = rec(Instruction::r3(Op::Addu, T0, T1, T2));
        r.rs_value = Some(5);
        r.rt_value = Some(9);
        r.writeback = Some((T0, 14));
        let c = instr_cost(&r, S, &recoder());
        assert_eq!(c.fetch.fetch_bytes, 3);
        assert_eq!(c.rs_bytes, Some(1));
        assert_eq!(c.rt_bytes, Some(1));
        assert_eq!(c.result_bytes, Some(1));
        assert_eq!(c.alu_bytes(), 1);
        assert_eq!(c.regfile_read_bytes(), 2);
        assert_eq!(c.regfile_reads(), 2);
        assert_eq!(c.max_operand_bytes(), 1);
        assert!(c.uses_alu());
        assert!(!c.is_branch && !c.is_jump);
    }

    #[test]
    fn load_costs_address_generation_and_memory_bytes() {
        let mut r = rec(Instruction::imm(Op::Lw, T0, A0, 8));
        r.rs_value = Some(0x1000_0000);
        r.writeback = Some((T0, 0x42));
        r.mem = Some(MemAccess {
            addr: 0x1000_0008,
            width: 4,
            is_store: false,
            value: 0x42,
        });
        let c = instr_cost(&r, S, &recoder());
        let alu = c.alu.unwrap();
        assert_eq!(alu.result, 0x1000_0008);
        assert_eq!(alu.bytes_operated, 2); // low byte + the 0x10 byte
        let mem = c.mem.unwrap();
        assert_eq!(mem.width_bytes, 4);
        assert_eq!(mem.sig_bytes, 1);
        assert!(!mem.is_store);
        assert_eq!(c.result_bytes, Some(1));
    }

    #[test]
    fn store_cost_is_flagged_as_store() {
        let mut r = rec(Instruction::imm(Op::Sw, T0, A0, 0));
        r.rs_value = Some(0x1000_0000);
        r.rt_value = Some(0x0102_0304);
        r.mem = Some(MemAccess {
            addr: 0x1000_0000,
            width: 4,
            is_store: true,
            value: 0x0102_0304,
        });
        let c = instr_cost(&r, S, &recoder());
        assert!(c.mem.unwrap().is_store);
        assert_eq!(c.mem.unwrap().sig_bytes, 4);
        assert_eq!(c.rt_bytes, Some(4));
    }

    #[test]
    fn byte_load_never_exceeds_its_width() {
        let mut r = rec(Instruction::imm(Op::Lbu, T0, A0, 0));
        r.rs_value = Some(0x1000_0000);
        r.writeback = Some((T0, 0x80));
        r.mem = Some(MemAccess {
            addr: 0x1000_0000,
            width: 1,
            is_store: false,
            value: 0x80,
        });
        let c = instr_cost(&r, S, &recoder());
        assert_eq!(c.mem.unwrap().sig_bytes, 1);
    }

    #[test]
    fn branch_compare_uses_the_alu() {
        let mut r = rec(Instruction::imm(Op::Bne, T0, T1, 4));
        r.rs_value = Some(100);
        r.rt_value = Some(100_000);
        r.branch = Some(BranchOutcome {
            taken: true,
            target: 0x0040_0100,
        });
        let c = instr_cost(&r, S, &recoder());
        assert!(c.is_branch);
        assert!(c.taken);
        assert!(c.uses_alu());
        assert!(c.alu_bytes() >= 3); // must compare up to the 3rd byte
    }

    #[test]
    fn sign_branch_examines_only_significant_bytes() {
        let mut r = rec(Instruction::imm(Op::Bltz, sigcomp_isa::reg::ZERO, T0, 4));
        r.rs_value = Some(0xffff_ffff);
        r.branch = Some(BranchOutcome {
            taken: true,
            target: 0x0040_0100,
        });
        let c = instr_cost(&r, S, &recoder());
        assert_eq!(c.alu_bytes(), 1);
    }

    #[test]
    fn jumps_do_not_use_the_alu() {
        let mut r = rec(Instruction::jump(Op::Jal, 0x0010_0000 >> 2));
        r.writeback = Some((RA, 0x0040_0004));
        r.branch = Some(BranchOutcome {
            taken: true,
            target: 0x0010_0000,
        });
        let c = instr_cost(&r, S, &recoder());
        assert!(!c.uses_alu());
        assert!(c.is_jump);
        assert_eq!(c.alu_bytes(), 0);
        // The link value (a code address) still costs a register write; the
        // return address 0x0040_0004 has two significant bytes under the
        // three-bit scheme (bytes 0 and 2).
        assert_eq!(c.result_bytes, Some(2));
    }

    #[test]
    fn lui_cost_follows_its_result() {
        let mut r = rec(Instruction::imm(
            Op::Lui,
            T0,
            sigcomp_isa::reg::ZERO,
            0x1000,
        ));
        r.writeback = Some((T0, 0x1000_0000));
        let c = instr_cost(&r, S, &recoder());
        assert_eq!(c.alu.unwrap().result, 0x1000_0000);
        assert!(c.alu_bytes() >= 1);
    }

    #[test]
    fn shift_by_register_uses_shift_cost() {
        let mut r = rec(Instruction::r3(Op::Sllv, T0, T1, T2));
        r.rs_value = Some(8); // shift amount
        r.rt_value = Some(0x00ff);
        r.writeback = Some((T0, 0xff00));
        let c = instr_cost(&r, S, &recoder());
        assert_eq!(c.alu.unwrap().result, 0xff00);
    }

    #[test]
    fn muldiv_and_hilo_costs() {
        let mut m = rec(Instruction::r3(Op::Mult, sigcomp_isa::reg::ZERO, T1, T2));
        m.rs_value = Some(300);
        m.rt_value = Some(4);
        let c = instr_cost(&m, S, &recoder());
        assert_eq!(c.alu.unwrap().baseline_bytes, 16);

        let mut mf = rec(Instruction::r3(
            Op::Mflo,
            T0,
            sigcomp_isa::reg::ZERO,
            sigcomp_isa::reg::ZERO,
        ));
        mf.writeback = Some((T0, 1200));
        let c = instr_cost(&mf, S, &recoder());
        assert_eq!(c.alu_bytes(), 2);
    }
}
