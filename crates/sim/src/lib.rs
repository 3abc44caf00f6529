//! # mpise-sim — RV64 instruction-set simulator with a Rocket-style timing model
//!
//! This crate is the execution substrate for the DAC'24 reproduction
//! "RISC-V Instruction Set Extensions for Multi-Precision Integer
//! Arithmetic". It provides:
//!
//! * a typed model of the RV64I + M instructions relevant to
//!   multi-precision integer (MPI) arithmetic ([`Inst`]),
//! * binary encoding and decoding ([`encode`], [`decode`]),
//! * an assembler/disassembler for both programmatic ([`asm::Assembler`])
//!   and textual ([`asm::parse_program`]) kernel authoring,
//! * an architectural simulator ([`Machine`]) with byte-addressed memory,
//! * a cycle-accurate-in-spirit timing model of a 5-stage in-order core
//!   with a 2-stage pipelined multiplier ([`timing::PipelineModel`]),
//!   mirroring the 64-bit Rocket core used in the paper, and
//! * an extension hook ([`ext::IsaExtension`]) through which custom
//!   instruction-set extensions (ISEs) — such as the paper's `maddlu`,
//!   `maddhu`, `cadd`, `madd57lu`, `madd57hu` and `sraiadd` — plug into
//!   decode, execution and timing.
//!
//! The simulator is instruction-accurate: every architectural effect is
//! modelled exactly. The cycle model is a deliberately simple in-order
//! issue model with operand forwarding, which is faithful for the
//! straight-line, cache-resident kernels measured in the paper.
//!
//! ## Example
//!
//! ```
//! use mpise_sim::{Assembler, Machine, Reg};
//!
//! // a0 = a1 + a2, then stop.
//! let mut a = Assembler::new();
//! a.add(Reg::A0, Reg::A1, Reg::A2);
//! a.ebreak();
//!
//! let mut m = Machine::new();
//! m.load_program(&a.finish());
//! m.cpu.write_reg(Reg::A1, 20);
//! m.cpu.write_reg(Reg::A2, 22);
//! let stats = m.run().unwrap();
//! assert_eq!(m.cpu.read_reg(Reg::A0), 42);
//! assert_eq!(stats.instret, 2);
//! ```

pub mod asm;
pub mod cpu;
pub mod decode;
pub mod encode;
pub mod ext;
pub mod inst;
pub mod machine;
pub mod mem;
pub mod profile;
pub mod reg;
pub mod timing;
pub mod trace;

pub use asm::Assembler;
pub use cpu::{Cpu, Trap};
pub use ext::{CustomFormat, CustomInstDef, ExecUnit, IsaExtension};
pub use inst::Inst;
pub use machine::{Machine, RunStats};
pub use mem::Memory;
pub use reg::Reg;
pub use timing::{PipelineModel, TimingConfig};
