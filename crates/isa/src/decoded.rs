//! Decode-once trace arenas.
//!
//! Replay is the hot loop of every sweep: the same `.sctrace` stream is fed
//! through many scheme × organization configurations. [`DecodedTrace`]
//! decodes the stream exactly once into a flat, cache-friendly
//! structure-of-arrays — contiguous `pc`/`word`/`flags`/`instr` lanes plus a
//! shared side table holding the optional per-record fields — so every job
//! that replays the trace walks dense arrays instead of re-reading the file
//! or chasing `Option`-laden [`ExecRecord`]s. The arena is built behind an
//! `Arc` by its callers and shared across a whole sweep.
//!
//! Reconstruction is exact: [`DecodedTrace::get`] returns the same
//! [`ExecRecord`] (bit for bit, `seq` included) that the streaming
//! [`TraceReader`] would have yielded, and the adversarial inputs a reader
//! rejects are rejected here with the same named [`TraceFileError`]s.

use crate::instr::Instruction;
use crate::reg::Reg;
use crate::trace::{BranchOutcome, ExecRecord, MemAccess, Trace};
use crate::tracefile::{
    TraceFileError, TraceReader, FLAG_BRANCH, FLAG_MEM, FLAG_RS, FLAG_RT, FLAG_STORE, FLAG_TAKEN,
    FLAG_WB,
};
use std::io::BufRead;
use std::path::Path;

/// Number of side-table words a record with the given flag byte occupies:
/// `rs` and `rt` one word each, writeback two (register, value), memory
/// three (address, width, value), branch one (target).
const SIDE_WORDS: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut f = 0usize;
    while f < 256 {
        let flags = f as u8;
        let mut words = 0u8;
        if flags & FLAG_RS != 0 {
            words += 1;
        }
        if flags & FLAG_RT != 0 {
            words += 1;
        }
        if flags & FLAG_WB != 0 {
            words += 2;
        }
        if flags & FLAG_MEM != 0 {
            words += 3;
        }
        if flags & FLAG_BRANCH != 0 {
            words += 1;
        }
        table[f] = words;
        f += 1;
    }
    table
};

/// Most records [`DecodedTrace::from_reader`] reserves room for before
/// reading any: a valid file up to this length reserves exactly once,
/// and a hostile header costs at most this many records' worth of lanes.
const MAX_RESERVED_RECORDS: usize = 1 << 20;

/// A fully decoded trace in structure-of-arrays form.
///
/// The fixed per-record lanes (`pc`, `word`, `flags`, pre-decoded `instr`)
/// are dense vectors indexed by sequence number; the variable optional
/// fields live in one shared `side` pool addressed by `side_start`.
#[derive(Debug, Clone, Default)]
pub struct DecodedTrace {
    pc: Vec<u32>,
    word: Vec<u32>,
    flags: Vec<u8>,
    instr: Vec<Instruction>,
    side_start: Vec<u32>,
    side: Vec<u32>,
}

impl DecodedTrace {
    /// Builds an arena from an in-memory [`Trace`] (the interpreter's
    /// output). Field layout mirrors the `.sctrace` record encoding.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut arena = DecodedTrace {
            pc: Vec::with_capacity(trace.len()),
            word: Vec::with_capacity(trace.len()),
            flags: Vec::with_capacity(trace.len()),
            instr: Vec::with_capacity(trace.len()),
            side_start: Vec::with_capacity(trace.len()),
            side: Vec::new(),
        };
        for rec in trace {
            arena.push(rec);
        }
        arena
    }

    /// Drains a streaming reader into an arena. Completing the drain proves
    /// the stream intact (record count, flag/field validation, digest).
    ///
    /// # Errors
    ///
    /// Any stream violation, with the same named error the streaming path
    /// yields.
    pub fn from_reader<R: BufRead>(mut reader: TraceReader<R>) -> Result<Self, TraceFileError> {
        // The header's count is untrusted until the drain below proves it:
        // reserve at most `MAX_RESERVED_RECORDS` up front, and let a longer
        // stream grow the lanes with the records actually read.
        let declared = usize::try_from(reader.records())
            .unwrap_or(usize::MAX)
            .min(MAX_RESERVED_RECORDS);
        let mut arena = DecodedTrace {
            pc: Vec::with_capacity(declared),
            word: Vec::with_capacity(declared),
            flags: Vec::with_capacity(declared),
            instr: Vec::with_capacity(declared),
            side_start: Vec::with_capacity(declared),
            side: Vec::new(),
        };
        while let Some(rec) = reader.next_record()? {
            arena.push(&rec);
        }
        Ok(arena)
    }

    /// Opens and fully decodes a `.sctrace` file.
    ///
    /// # Errors
    ///
    /// Fails like [`TraceReader::open`] plus any stream violation.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        Self::from_reader(TraceReader::open(path)?)
    }

    fn push(&mut self, rec: &ExecRecord) {
        let mut flags = 0u8;
        self.pc.push(rec.pc);
        self.word.push(rec.word);
        self.instr.push(rec.instr);
        self.side_start
            .push(u32::try_from(self.side.len()).expect("side table exceeds u32 indexing"));
        if let Some(v) = rec.rs_value {
            flags |= FLAG_RS;
            self.side.push(v);
        }
        if let Some(v) = rec.rt_value {
            flags |= FLAG_RT;
            self.side.push(v);
        }
        if let Some((reg, value)) = rec.writeback {
            flags |= FLAG_WB;
            self.side.push(u32::from(reg.index()));
            self.side.push(value);
        }
        if let Some(mem) = rec.mem {
            flags |= FLAG_MEM;
            if mem.is_store {
                flags |= FLAG_STORE;
            }
            self.side.push(mem.addr);
            self.side.push(u32::from(mem.width));
            self.side.push(mem.value);
        }
        if let Some(branch) = rec.branch {
            flags |= FLAG_BRANCH;
            if branch.taken {
                flags |= FLAG_TAKEN;
            }
            self.side.push(branch.target);
        }
        self.flags.push(flags);
    }

    /// Number of records in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Returns `true` if the arena holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Reconstructs record `index` exactly as the streaming reader would
    /// have yielded it (`seq` is the index).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds, like slice indexing.
    #[must_use]
    pub fn get(&self, index: usize) -> ExecRecord {
        let flags = self.flags[index];
        let mut at = self.side_start[index] as usize;
        let mut side_field = || {
            let v = self.side[at];
            at += 1;
            v
        };
        let rs_value = (flags & FLAG_RS != 0).then(&mut side_field);
        let rt_value = (flags & FLAG_RT != 0).then(&mut side_field);
        let writeback = (flags & FLAG_WB != 0).then(|| {
            let reg = Reg::new(side_field() as u8);
            (reg, side_field())
        });
        let mem = (flags & FLAG_MEM != 0).then(|| {
            let addr = side_field();
            let width = side_field() as u8;
            MemAccess {
                addr,
                width,
                is_store: flags & FLAG_STORE != 0,
                value: side_field(),
            }
        });
        let branch = (flags & FLAG_BRANCH != 0).then(|| BranchOutcome {
            taken: flags & FLAG_TAKEN != 0,
            target: side_field(),
        });
        debug_assert_eq!(
            at - self.side_start[index] as usize,
            usize::from(SIDE_WORDS[flags as usize]),
            "side-table cursor must land exactly on the record's field count"
        );
        ExecRecord {
            seq: index as u64,
            pc: self.pc[index],
            word: self.word[index],
            instr: self.instr[index],
            rs_value,
            rt_value,
            writeback,
            mem,
            branch,
        }
    }

    /// Iterates the reconstructed records in sequence order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ExecRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::interp::Interpreter;
    use crate::reg;
    use crate::tracefile::{TraceWriter, RECORD_LEN};
    use std::io::Cursor;

    fn sample_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.dlabel("buf");
        b.words(&[0, 0]);
        b.li(reg::T0, 0);
        b.li(reg::T1, 5);
        b.label("loop");
        b.la(reg::A0, "buf");
        b.sw(reg::T0, reg::A0, 0);
        b.lw(reg::T2, reg::A0, 0);
        b.addiu(reg::T0, reg::T0, 1);
        b.bne(reg::T0, reg::T1, "loop");
        b.halt();
        Interpreter::new(&b.assemble().unwrap())
            .run(10_000)
            .unwrap()
    }

    fn encoded(trace: &Trace) -> Vec<u8> {
        let mut writer = TraceWriter::new();
        for rec in trace {
            writer.push(rec).unwrap();
        }
        let mut bytes = Vec::new();
        writer.finish(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn side_word_table_is_consistent_with_record_lengths() {
        // Every valid flag byte's record length is the 9 fixed bytes plus
        // its side fields; widths differ per field (wb is 5 bytes / 2 words,
        // mem 9 bytes / 3 words), so check via an exhaustive reconstruction.
        for flags in 0u16..256 {
            let flags = flags as u8;
            if RECORD_LEN[flags as usize] == 0 {
                continue;
            }
            let mut words = 0u8;
            for (bit, w) in [
                (FLAG_RS, 1),
                (FLAG_RT, 1),
                (FLAG_WB, 2),
                (FLAG_MEM, 3),
                (FLAG_BRANCH, 1),
            ] {
                if flags & bit != 0 {
                    words += w;
                }
            }
            assert_eq!(SIDE_WORDS[flags as usize], words, "flags {flags:#04x}");
        }
    }

    #[test]
    fn arena_reconstructs_records_bit_identically() {
        let trace = sample_trace();
        let arena = DecodedTrace::from_trace(&trace);
        assert_eq!(arena.len(), trace.len());
        assert!(!arena.is_empty());
        for (i, rec) in trace.iter().enumerate() {
            assert_eq!(&arena.get(i), rec, "record {i}");
        }
        let collected: Vec<ExecRecord> = arena.iter().collect();
        assert_eq!(collected.as_slice(), trace.records());
    }

    #[test]
    fn arena_from_reader_matches_arena_from_trace() {
        let trace = sample_trace();
        let bytes = encoded(&trace);
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let arena = DecodedTrace::from_reader(reader).unwrap();
        assert_eq!(arena.len(), trace.len());
        for (i, rec) in trace.iter().enumerate() {
            assert_eq!(&arena.get(i), rec, "record {i}");
        }
    }

    #[test]
    fn hostile_record_counts_reserve_a_bounded_arena() {
        let trace = sample_trace();
        let bytes = encoded(&trace);
        let declared = format!("records={}", trace.len());
        // A valid header reserves its exact count, once.
        let reader = TraceReader::new(Cursor::new(&bytes)).unwrap();
        let arena = DecodedTrace::from_reader(reader).unwrap();
        assert_eq!(arena.pc.capacity(), trace.len());
        let at = bytes
            .windows(declared.len())
            .position(|w| w == declared.as_bytes())
            .expect("header declares the count");
        for forged in ["999999999999", "18446744073709551615"] {
            let mut hostile = bytes[..at].to_vec();
            hostile.extend_from_slice(format!("records={forged}").as_bytes());
            hostile.extend_from_slice(&bytes[at + declared.len()..]);
            let reader = TraceReader::new(Cursor::new(&hostile)).unwrap();
            match DecodedTrace::from_reader(reader) {
                Err(TraceFileError::TruncatedRecord { index }) => {
                    assert_eq!(index, trace.len() as u64);
                }
                other => panic!("records={forged}: expected TruncatedRecord, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_trace_builds_an_empty_arena() {
        let arena = DecodedTrace::from_trace(&Trace::new());
        assert!(arena.is_empty());
        assert_eq!(arena.iter().count(), 0);
    }

    #[test]
    fn adversarial_inputs_fail_with_the_streaming_reader_errors() {
        let trace = sample_trace();
        let bytes = encoded(&trace);

        // Truncated payload: cut the stream mid-record.
        let cut = bytes.len() - 3;
        let reader = TraceReader::new(Cursor::new(&bytes[..cut])).unwrap();
        assert!(matches!(
            DecodedTrace::from_reader(reader),
            Err(TraceFileError::TruncatedRecord { .. })
        ));

        // Corrupt payload: flip a byte, digest must catch it.
        let mut corrupt = bytes.clone();
        let payload_at = corrupt.len() - 5;
        corrupt[payload_at] ^= 0xff;
        let reader = TraceReader::new(Cursor::new(&corrupt)).unwrap();
        let err = DecodedTrace::from_reader(reader).unwrap_err();
        assert!(
            matches!(
                err,
                TraceFileError::DigestMismatch { .. }
                    | TraceFileError::BadFlags { .. }
                    | TraceFileError::UndecodableWord { .. }
                    | TraceFileError::TruncatedRecord { .. }
                    | TraceFileError::TrailingBytes
                    | TraceFileError::BadRegister { .. }
                    | TraceFileError::BadWidth { .. }
            ),
            "corruption must surface as a named stream error, got {err}"
        );

        // Bad header: not a trace at all.
        assert!(matches!(
            TraceReader::new(Cursor::new(b"garbage".as_slice()))
                .map(DecodedTrace::from_reader)
                .map(|_| ()),
            Err(TraceFileError::BadMagic { .. })
        ));
    }
}
