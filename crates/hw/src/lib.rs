//! # mpise-hw — structural hardware cost model
//!
//! The paper evaluates its ISEs in hardware by extending the Rocket
//! core's pipelined multiplier into an "XMUL" unit and synthesizing
//! the result with Vivado for an Artix-7 FPGA (Table 3: LUTs, Regs,
//! DSPs, CMOS). We cannot run Vivado here, so this crate substitutes a
//! structural model (documented in DESIGN.md):
//!
//! * [`netlist`]: a gate-level netlist representation with a builder
//!   API (cells: 2-input gates, muxes, half/full adders, flip-flops,
//!   DSP-mapped multiplier macros) and a combinational evaluator;
//! * [`generators`]: parameterized RTL generators — ripple and
//!   parallel-prefix (Kogge–Stone) adders and barrel shifters;
//! * [`xmul`]: the three multiplier-datapath variants of the paper
//!   (base RV64M multiplier, + full-radix ISE, + reduced-radix ISE),
//!   whose tests check every op against the simulator's RV64M
//!   semantics and the `mpise-core` intrinsics;
//! * [`map`]: a greedy 6-input LUT technology mapper with
//!   carry-chain-aware adder handling, a flip-flop census, and
//!   DSP-block inference for the multiplier array;
//! * [`area`]: CMOS gate-equivalent weights per cell;
//! * [`rocket`]: the calibrated base-core figures plus the structural
//!   deltas, assembling Table 3.
//!
//! The *base core* line is a calibration constant (we cannot
//! synthesize Rocket); the two *delta* lines — the quantity the
//! experiment is actually about — are computed from real generated
//! netlists.

// Carry-chain and multi-array arithmetic code indexes several slices in
// lockstep; iterator rewrites of those loops obscure the digit algebra.
#![allow(clippy::needless_range_loop)]

pub mod area;
pub mod depth;
pub mod generators;
pub mod map;
pub mod netlist;
pub mod rocket;
pub mod xmul;

pub use map::MapReport;
pub use rocket::{table3, CoreCost, Table3};
