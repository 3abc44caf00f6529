//! # mpise-analyze — static verification for the mpise stack
//!
//! The paper's security claim rests on the kernels being constant
//! time and on the custom encodings being exactly those of Table 1.
//! This crate *checks* both claims statically:
//!
//! * [`taint`] — a secret-taint dataflow analysis over decoded
//!   [`Program`](mpise_sim::asm::Program)s. Callers declare which
//!   registers and memory regions hold secrets; the analysis
//!   propagates taint through registers, memory and custom (XMUL)
//!   instructions and reports secret-dependent branches,
//!   secret-addressed memory accesses, and secret operands reaching
//!   the variable-latency divider as structured
//!   [`Diagnostic`]s.
//! * [`lint`] — encoding lints over an
//!   [`IsaExtension`](mpise_sim::ext::IsaExtension): Table 1
//!   conformance, base-opcode collisions, intra-extension ambiguity,
//!   and encode→decode round-trips.
//!
//! Both passes are wired into the `ctcheck` binary of `mpise-bench`,
//! which gates CI.
//!
//! ## Example
//!
//! ```
//! use mpise_analyze::taint::{analyze_program, AnalysisOptions, Secrecy, TaintSpec};
//! use mpise_sim::asm::Program;
//! use mpise_sim::ext::IsaExtension;
//! use mpise_sim::inst::{BranchOp, Inst, LoadOp};
//! use mpise_sim::Reg;
//!
//! let mut spec = TaintSpec::new();
//! let key = spec.region("key", Secrecy::Secret);
//! spec.entry_pointer(Reg::A1, key);
//!
//! let leaky = Program::from_insts(vec![
//!     Inst::Load { op: LoadOp::Ld, rd: Reg::T0, rs1: Reg::A1, offset: 0 },
//!     Inst::Branch { op: BranchOp::Bne, rs1: Reg::T0, rs2: Reg::Zero, offset: 8 },
//!     Inst::Ebreak,
//! ]);
//! let report = analyze_program(
//!     &leaky,
//!     &IsaExtension::new("rv64im"),
//!     &spec,
//!     &AnalysisOptions::default(),
//! );
//! assert!(!report.passed());
//! assert_eq!(report.diagnostics[0].pc, 4);
//! ```

pub mod lint;
pub mod report;
pub mod taint;

pub use lint::{lint_extension, LintFinding, LintLevel, LintReport};
pub use report::{Diagnostic, TaintReport, ViolationKind};
pub use taint::{analyze_program, AnalysisOptions, RegionId, Secrecy, TaintSpec};
