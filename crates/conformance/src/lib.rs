//! # mpise-conformance — differential conformance and fuzzing
//!
//! The correctness backbone of the reproduction: every layer of the
//! stack is checked against an oracle that shares no code with it.
//!
//! * [`refexec`] — a pure reference executor for RV64IM plus the six
//!   Table 1 custom instructions, written directly from the paper's
//!   semantics in `u128` arithmetic, independent of `crates/sim`'s
//!   decode/dispatch.
//! * [`fuzz`](mod@fuzz) — a deterministic seed-driven random-program fuzzer that
//!   runs the simulator and the reference executor in lockstep and
//!   shrinks any divergence to a minimal failing program.
//! * [`kernel_diff`] — the cross-backend kernel difftest: all 32
//!   kernel × configuration combinations against a schoolbook oracle,
//!   plus field-level byte diffs across `FpFull`/`FpRed`/`SimFp`.
//! * [`kat`] — the committed CSIDH-512 known-answer tests (keygen,
//!   shared-secret agreement, validation accept/reject) under
//!   `tests/vectors/`.
//! * [`corpus`] — the regression corpus of hand-written differential
//!   programs under `tests/corpus/`, replayed by the gate.
//! * [`report`] — the `mpise-difftest/v1` JSON artifact.
//! * [`cli`] — the `difftest` gate binary, the correctness analogue
//!   of `ctcheck`.

pub mod cli;
pub mod corpus;
pub mod fuzz;
pub mod kat;
pub mod kernel_diff;
pub mod refexec;
pub mod report;

pub use fuzz::{fuzz, DiffRunner, ExtChoice, FuzzProgram};
pub use refexec::{ref_custom, RefMachine};
