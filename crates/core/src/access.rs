//! One retired instruction's walk through the memory hierarchy.
//!
//! The activity study and every pipeline timing model see the same §3
//! hierarchy and the same address stream, so one walk per record can serve
//! all of them: [`InstrAccess::walk`] presents the record's instruction
//! fetch and (for a load or store) its data access, and the resulting
//! latencies and L1-fill outcome feed any number of models.

use sigcomp_isa::ExecRecord;
use sigcomp_mem::{AccessKind, MemResult, MemoryHierarchy};

/// The hierarchy's answer to one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrAccess {
    /// The instruction fetch (I-TLB + I-cache side).
    pub fetch: MemResult,
    /// The data access of a load or store (D-TLB + D-cache side).
    pub data: Option<MemResult>,
}

impl InstrAccess {
    /// Presents `rec`'s fetch and then its data access (if any) to
    /// `hierarchy` — the order every model walked its own hierarchy in.
    pub fn walk(hierarchy: &mut MemoryHierarchy, rec: &ExecRecord) -> Self {
        let fetch = hierarchy.fetch_instruction(rec.pc);
        let data = rec.mem.map(|mem| {
            let kind = if mem.is_store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            hierarchy.data_access(mem.addr, kind)
        });
        InstrAccess { fetch, data }
    }

    /// Whether the data access filled an L1 line (whose extension bits
    /// must then be regenerated, §2.6).
    #[must_use]
    pub fn data_l1_fill(&self) -> bool {
        self.data.is_some_and(|d| d.l1_fill.is_some())
    }
}
