//! # sigcomp — significance-compressed pipelines
//!
//! A reproduction of *"Very Low Power Pipelines using Significance
//! Compression"* (Ramon Canal, Antonio González, James E. Smith — MICRO-33,
//! 2000).
//!
//! Data, addresses and instructions carry two or three *extension bits*
//! recording which bytes are numerically significant; the extension bits flow
//! down a five-stage in-order pipeline and gate off register-file banks, ALU
//! byte slices, cache data-array bytes, PC-increment logic and pipeline
//! latches. The result is a 30–40 % reduction in switching activity — and
//! hence dynamic energy — in every pipeline stage.
//!
//! This crate contains the paper's core contribution as a library:
//!
//! * [`ext`] — extension-bit schemes (2-bit, 3-bit, halfword), significance
//!   classification and lossless [`ext::CompressedWord`] compression,
//! * [`alu`] — the significance-aware byte-serial ALU of §2.5, including the
//!   Table 4 case-3 exception rule,
//! * [`ifetch`] — the I-cache instruction permutation/recoding of §2.3,
//! * [`pc`] — block-serial PC-update activity and latency (Table 2),
//! * [`regfile`] / [`dcache`] — byte-banked register-file and data-cache
//!   activity (§2.4, §2.6, §2.7),
//! * [`cost`] — the per-instruction significance cost vector used by both the
//!   activity study and the pipeline timing models,
//! * [`activity`] — activity/energy accounting shared by all stages,
//! * [`stats`] — trace statistics (Tables 1 and 3),
//! * [`analyzer`] — the trace-driven activity study of §2.9 (Tables 5 and 6).
//!
//! Pipeline *timing* (CPI of the byte-serial, semi-parallel and fully
//! parallel organizations — §4–§6) lives in the companion crate
//! `sigcomp-pipeline`; ready-made workloads live in `sigcomp-workloads`.
//!
//! # Quick start
//!
//! ```
//! use sigcomp::analyzer::{AnalyzerConfig, TraceAnalyzer};
//! use sigcomp_isa::{ProgramBuilder, Interpreter, reg};
//!
//! # fn main() -> Result<(), sigcomp_isa::IsaError> {
//! // Build a tiny kernel, run it, and measure per-stage activity savings.
//! let mut b = ProgramBuilder::new();
//! b.li(reg::T0, 0);
//! b.li(reg::T1, 100);
//! b.label("loop");
//! b.addiu(reg::T0, reg::T0, 1);
//! b.bne(reg::T0, reg::T1, "loop");
//! b.halt();
//!
//! let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::paper_byte());
//! let mut cpu = Interpreter::new(&b.assemble()?);
//! cpu.run_each(10_000, |rec| analyzer.observe(rec))?;
//!
//! let report = analyzer.report();
//! println!("{report}");
//! assert!(report.rf_read.saving() > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod activity;
pub mod alu;
pub mod analyzer;
pub mod cost;
pub mod dcache;
pub mod ext;
pub mod hash;
pub mod ifetch;
pub mod pc;
pub mod regfile;
pub mod stats;

pub use access::InstrAccess;
pub use activity::{ActivityReport, EnergyModel, ProcessNode, StageActivity};
pub use analyzer::{AnalyzerConfig, LineFills, StreamActivity, TraceAnalyzer};
pub use cost::{instr_cost, instr_cost_with_fetch, InstrCost, MemCost};
pub use ext::{CompressedWord, ExtScheme, SigPattern};
pub use hash::{ConfigHash, StableHasher};
pub use ifetch::FunctRecoder;
pub use stats::SigStats;
