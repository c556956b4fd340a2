//! Instruction-cache significance compression (§2.3 of the paper).
//!
//! Instructions are stored in the I-cache in a *permuted* form so that the
//! bytes needed early in the pipeline sit in the three most-significant
//! bytes and the fourth byte is frequently all zeros and need not be
//! fetched:
//!
//! * **R-format** (Fig. 2a/2b): the 6-bit function field is re-encoded so the
//!   eight dynamically most frequent function codes place their three
//!   meaningful bits in the `f1` field and zeros in `f2`; the shift amount
//!   moves into the unused `rs` slot for immediate shifts.
//! * **I-format** (Fig. 2c): the immediate is split into low and high bytes;
//!   when eight bits suffice the high byte is redundant.
//!
//! One extension bit per instruction word records whether the fourth byte
//! must be fetched. The paper measures an average of ≈ 3.17 fetched bytes per
//! instruction (≈ 20 % I-cache activity saving) on Mediabench.

use sigcomp_isa::{Format, Instruction, Op};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Number of function codes that receive a short (3-bit) re-encoding.
pub const RECODED_FUNCTS: usize = 8;

/// The dynamic-frequency-based re-encoding of the R-format function field.
///
/// The eight most frequent function codes are assigned the re-encodings
/// `0o00, 0o10, 0o20, …` (three meaningful bits in `f1`, zeros in `f2`); all
/// other codes are mapped, in order, to the remaining six-bit values, which
/// have a non-zero `f2` and therefore require the fourth instruction byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctRecoder {
    /// `encode[funct]` = recoded 6-bit value.
    encode: [u8; 64],
    /// `decode[recoded]` = original funct value.
    decode: [u8; 64],
    /// The eight hot function codes, most frequent first.
    hot: Vec<u8>,
}

impl FunctRecoder {
    /// Builds a recoder from dynamic function-code counts (funct → count),
    /// exactly as the paper does by tracing the benchmark suite.
    #[must_use]
    pub fn from_counts(counts: &HashMap<u8, u64>) -> Self {
        let mut order: Vec<u8> = (0..64u8).collect();
        order.sort_by_key(|f| (std::cmp::Reverse(counts.get(f).copied().unwrap_or(0)), *f));
        Self::from_priority_order(&order)
    }

    /// Builds a recoder from per-`Op` dynamic counts (the natural output of
    /// [`SigStats::funct_counts`](crate::stats::SigStats::funct_counts)).
    #[must_use]
    pub fn from_op_counts(counts: &HashMap<Op, u64>) -> Self {
        let mut by_funct: HashMap<u8, u64> = HashMap::new();
        for (&op, &count) in counts {
            if let Some(f) = op.funct() {
                *by_funct.entry(f).or_insert(0) += count;
            }
        }
        Self::from_counts(&by_funct)
    }

    /// A static default profile reflecting the paper's Table 3: `addu` and
    /// `sll` dominate, followed by the other common ALU/compare codes.
    /// Built once per process and cloned: sweep job ids hash it on every
    /// call, and rebuilding it (a map and a sort) dominated that hash.
    #[must_use]
    pub fn paper_default() -> Self {
        static PAPER: OnceLock<FunctRecoder> = OnceLock::new();
        PAPER.get_or_init(Self::build_paper_default).clone()
    }

    fn build_paper_default() -> Self {
        let hot_ops = [
            Op::Addu,
            Op::Sll,
            Op::Subu,
            Op::Or,
            Op::Slt,
            Op::Sra,
            Op::Sltu,
            Op::Xor,
        ];
        let mut counts = HashMap::new();
        for (rank, op) in hot_ops.iter().enumerate() {
            counts.insert(op.funct().expect("R-format op"), 1000 - rank as u64);
        }
        Self::from_counts(&counts)
    }

    fn from_priority_order(order: &[u8]) -> Self {
        assert_eq!(order.len(), 64, "priority order must cover all functs");
        let mut encode = [0u8; 64];
        let mut decode = [0u8; 64];
        let mut short_codes = (0..RECODED_FUNCTS as u8).map(|i| i << 3);
        // The remaining 56 codes are every 6-bit value with a non-zero low
        // (f2) part.
        let mut long_codes = (0..64u8).filter(|c| c & 0x07 != 0);
        for (rank, &funct) in order.iter().enumerate() {
            let code = if rank < RECODED_FUNCTS {
                short_codes.next().expect("eight short codes")
            } else {
                long_codes.next().expect("fifty-six long codes")
            };
            encode[funct as usize] = code;
            decode[code as usize] = funct;
        }
        FunctRecoder {
            encode,
            decode,
            hot: order[..RECODED_FUNCTS].to_vec(),
        }
    }

    /// The recoded 6-bit value for a function code.
    #[must_use]
    pub fn encode(&self, funct: u8) -> u8 {
        self.encode[(funct & 0x3f) as usize]
    }

    /// The original function code for a recoded value.
    #[must_use]
    pub fn decode(&self, recoded: u8) -> u8 {
        self.decode[(recoded & 0x3f) as usize]
    }

    /// Whether a function code received one of the eight short encodings.
    #[must_use]
    pub fn is_hot(&self, funct: u8) -> bool {
        self.encode(funct) & 0x07 == 0
    }

    /// The hot function codes, most frequent first.
    #[must_use]
    pub fn hot_functs(&self) -> &[u8] {
        &self.hot
    }
}

impl Default for FunctRecoder {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How an instruction is stored in the compressed I-cache and how much of it
/// must be fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedInstr {
    /// The permuted 32-bit stored form (fields rearranged per Fig. 2).
    pub stored_word: u32,
    /// Bytes that must be read/latched on fetch (3 or 4).
    pub fetch_bytes: u8,
    /// The per-word extension bit: set when the fourth byte is needed.
    pub needs_fourth_byte: bool,
}

impl CompressedInstr {
    /// Bits fetched under compression, including the extension bit.
    #[must_use]
    pub fn fetched_bits(&self) -> u32 {
        u32::from(self.fetch_bytes) * 8 + 1
    }
}

/// Compresses (permutes) one instruction for storage in the I-cache.
///
/// The permutation is invertible; see [`decompress_instruction`].
#[must_use]
pub fn compress_instruction(instr: &Instruction, recoder: &FunctRecoder) -> CompressedInstr {
    let word = instr.encode();
    let opcode = (word >> 26) & 0x3f;
    match instr.op.format() {
        Format::R => {
            let rs = (word >> 21) & 0x1f;
            let rt = (word >> 16) & 0x1f;
            let rd = (word >> 11) & 0x1f;
            let shamt = (word >> 6) & 0x1f;
            let funct = (word & 0x3f) as u8;
            let recoded = u32::from(recoder.encode(funct));
            let f1 = (recoded >> 3) & 0x7;
            let f2 = recoded & 0x7;
            let is_imm_shift = matches!(instr.op, Op::Sll | Op::Srl | Op::Sra);
            // Fig. 2a (ordinary R) keeps rs in the second field; Fig. 2b
            // (immediate shifts) moves shamt there because rs is unused.
            let (second, last5) = if is_imm_shift {
                (shamt, rs)
            } else {
                (rs, shamt)
            };
            let stored = (opcode << 26)
                | (second << 21)
                | (rt << 16)
                | (rd << 11)
                | (f1 << 8)
                | (f2 << 5)
                | last5;
            // The fourth stored byte holds f2 and the trailing 5-bit field;
            // it can be skipped when both are zero.
            let needs_fourth = stored & 0xff != 0;
            CompressedInstr {
                stored_word: stored,
                fetch_bytes: if needs_fourth { 4 } else { 3 },
                needs_fourth_byte: needs_fourth,
            }
        }
        Format::I => {
            let rs = (word >> 21) & 0x1f;
            let rt = (word >> 16) & 0x1f;
            let imm = word & 0xffff;
            let imm_lo = imm & 0xff;
            let imm_hi = (imm >> 8) & 0xff;
            let stored = (opcode << 26) | (rs << 21) | (rt << 16) | (imm_lo << 8) | imm_hi;
            // The high immediate byte is redundant when it is the zero/sign
            // extension of the low byte (which extension applies is implied
            // by the opcode, so one extension bit suffices).
            let redundant_hi = if instr.op.zero_extends_imm() {
                imm_hi == 0
            } else {
                let sign = if imm_lo & 0x80 != 0 { 0xff } else { 0x00 };
                imm_hi == sign
            };
            CompressedInstr {
                stored_word: stored,
                fetch_bytes: if redundant_hi { 3 } else { 4 },
                needs_fourth_byte: !redundant_hi,
            }
        }
        Format::J => CompressedInstr {
            stored_word: word,
            fetch_bytes: 4,
            needs_fourth_byte: true,
        },
    }
}

/// Reverses [`compress_instruction`], recovering the original instruction
/// word from the stored form. The opcode (always in the top six bits) selects
/// the permutation, exactly as the hardware decompressor would.
#[must_use]
pub fn decompress_instruction(stored: u32, recoder: &FunctRecoder) -> u32 {
    let opcode = (stored >> 26) & 0x3f;
    if opcode == 0 {
        let second = (stored >> 21) & 0x1f;
        let rt = (stored >> 16) & 0x1f;
        let rd = (stored >> 11) & 0x1f;
        let f1 = (stored >> 8) & 0x7;
        let f2 = (stored >> 5) & 0x7;
        let last5 = stored & 0x1f;
        let funct = u32::from(recoder.decode(((f1 << 3) | f2) as u8));
        let is_imm_shift = matches!(funct, 0x00 | 0x02 | 0x03);
        let (rs, shamt) = if is_imm_shift {
            (last5, second)
        } else {
            (second, last5)
        };
        (opcode << 26) | (rs << 21) | (rt << 16) | (rd << 11) | (shamt << 6) | funct
    } else if opcode == 2 || opcode == 3 {
        stored
    } else {
        let rs = (stored >> 21) & 0x1f;
        let rt = (stored >> 16) & 0x1f;
        let imm_lo = (stored >> 8) & 0xff;
        let imm_hi = stored & 0xff;
        (opcode << 26) | (rs << 21) | (rt << 16) | (imm_hi << 8) | imm_lo
    }
}

/// Accumulates instruction-fetch activity over a dynamic instruction stream.
#[derive(Debug, Clone, Default)]
pub struct FetchActivity {
    instructions: u64,
    fetched_bytes: u64,
}

impl FetchActivity {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one fetched (compressed) instruction.
    pub fn observe(&mut self, compressed: &CompressedInstr) {
        self.instructions += 1;
        self.fetched_bytes += u64::from(compressed.fetch_bytes);
    }

    /// Number of instructions observed.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Average fetched bytes per instruction (the paper reports ≈ 3.17).
    #[must_use]
    pub fn mean_fetch_bytes(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.fetched_bytes as f64 / self.instructions as f64
        }
    }

    /// Bits fetched under compression (including one extension bit per
    /// instruction).
    #[must_use]
    pub fn compressed_bits(&self) -> u64 {
        self.fetched_bytes * 8 + self.instructions
    }

    /// Bits fetched by the conventional 32-bit fetch stage.
    #[must_use]
    pub fn baseline_bits(&self) -> u64 {
        self.instructions * 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigcomp_isa::reg::{A0, T0, T1, T2};

    fn recoder() -> FunctRecoder {
        FunctRecoder::paper_default()
    }

    #[test]
    fn hot_functs_get_three_byte_fetches() {
        let r = recoder();
        let addu = Instruction::r3(Op::Addu, T0, T1, T2);
        let c = compress_instruction(&addu, &r);
        assert_eq!(c.fetch_bytes, 3);
        assert!(!c.needs_fourth_byte);
        assert_eq!(c.fetched_bits(), 25);
    }

    #[test]
    fn cold_functs_need_four_bytes() {
        let r = recoder();
        let nor = Instruction::r3(Op::Nor, T0, T1, T2);
        assert!(!r.is_hot(Op::Nor.funct().unwrap()));
        let c = compress_instruction(&nor, &r);
        assert_eq!(c.fetch_bytes, 4);
    }

    #[test]
    fn immediate_shifts_use_the_second_permutation() {
        let r = recoder();
        let sll = Instruction::shift_imm(Op::Sll, T0, T1, 7);
        let c = compress_instruction(&sll, &r);
        // sll is hot and rs is unused, so three bytes suffice even though the
        // shift amount is non-zero (it now lives in the rs slot).
        assert_eq!(c.fetch_bytes, 3);
        assert_eq!(decompress_instruction(c.stored_word, &r), sll.encode());
    }

    #[test]
    fn small_immediates_take_three_bytes() {
        let r = recoder();
        for (op, imm, expect) in [
            (Op::Addiu, 5u16, 3u8),
            (Op::Addiu, 0xfffc, 3), // -4 sign-extends from 8 bits
            (Op::Addiu, 0x0123, 4),
            (Op::Ori, 0x00ff, 3), // zero-extended
            (Op::Ori, 0x0100, 4),
            (Op::Lw, 0x0008, 3),
            (Op::Lui, 0x1000, 4),
        ] {
            let i = Instruction::imm(op, T0, A0, imm);
            let c = compress_instruction(&i, &r);
            assert_eq!(c.fetch_bytes, expect, "{op} imm {imm:#x}");
        }
    }

    #[test]
    fn jumps_always_fetch_four_bytes() {
        let r = recoder();
        let j = Instruction::jump(Op::J, 0x12345);
        assert_eq!(compress_instruction(&j, &r).fetch_bytes, 4);
    }

    #[test]
    fn permutation_roundtrips_for_every_op() {
        let r = recoder();
        for &op in Op::ALL {
            let i = match op.format() {
                Format::R => match op {
                    Op::Sll | Op::Srl | Op::Sra => Instruction::shift_imm(op, T0, T1, 9),
                    _ => Instruction::r3(op, T0, T1, T2),
                },
                Format::I => Instruction::imm(op, T0, A0, 0x1234),
                Format::J => Instruction::jump(op, 0x3ffff),
            };
            let c = compress_instruction(&i, &r);
            assert_eq!(
                decompress_instruction(c.stored_word, &r),
                i.encode(),
                "{op} failed to round-trip"
            );
        }
    }

    #[test]
    fn recoder_from_counts_prioritizes_frequent_codes() {
        let mut counts = HashMap::new();
        counts.insert(Op::Xor.funct().unwrap(), 10_000u64);
        counts.insert(Op::Addu.funct().unwrap(), 5u64);
        let r = FunctRecoder::from_counts(&counts);
        assert!(r.is_hot(Op::Xor.funct().unwrap()));
        assert_eq!(r.hot_functs()[0], Op::Xor.funct().unwrap());
        // Encoding is a bijection on 6-bit values.
        let mut seen = [false; 64];
        for f in 0..64u8 {
            let e = r.encode(f);
            assert!(!seen[e as usize], "duplicate code {e}");
            seen[e as usize] = true;
            assert_eq!(r.decode(e), f);
        }
    }

    #[test]
    fn from_op_counts_uses_only_r_format_ops() {
        let mut counts = HashMap::new();
        counts.insert(Op::Subu, 100u64);
        counts.insert(Op::Addiu, 1_000_000u64); // I-format: ignored
        let r = FunctRecoder::from_op_counts(&counts);
        assert_eq!(r.hot_functs()[0], Op::Subu.funct().unwrap());
    }

    #[test]
    fn fetch_activity_averages() {
        let r = recoder();
        let mut acc = FetchActivity::new();
        acc.observe(&compress_instruction(
            &Instruction::r3(Op::Addu, T0, T1, T2),
            &r,
        ));
        acc.observe(&compress_instruction(&Instruction::jump(Op::J, 1), &r));
        assert_eq!(acc.instructions(), 2);
        assert!((acc.mean_fetch_bytes() - 3.5).abs() < 1e-12);
        assert_eq!(acc.compressed_bits(), 7 * 8 + 2);
        assert_eq!(acc.baseline_bits(), 64);
        assert_eq!(FetchActivity::new().mean_fetch_bytes(), 0.0);
    }
}
