//! # mpise-core — the paper's instruction-set extensions
//!
//! This crate implements the primary contribution of "RISC-V Instruction
//! Set Extensions for Multi-Precision Integer Arithmetic: A Case Study on
//! Post-Quantum Key Exchange Using CSIDH-512" (DAC 2024): two alternative
//! sets of custom instructions that accelerate the Multiply-and-ACcumulate
//! (MAC) inner loop and the carry propagation of multi-precision integer
//! arithmetic.
//!
//! | Functionality        | full-radix ISE     | reduced-radix ISE        |
//! |----------------------|--------------------|--------------------------|
//! | Integer multiply-add | `maddlu`, `maddhu` | `madd57lu`, `madd57hu`   |
//! | Carry propagation    | `cadd`             | `sraiadd`                |
//!
//! (Table 1 of the paper.)
//!
//! Each instruction exists in two coupled forms, both defined here:
//!
//! 1. **Intrinsics** ([`intrinsics`]): pure-Rust functions with the exact
//!    architectural semantics, usable by host-speed software backends.
//! 2. **Simulator definitions** ([`full_radix`], [`reduced_radix`]):
//!    [`mpise_sim::ext::CustomInstDef`]s with the binary encodings of
//!    Figures 1–3, pluggable into a [`mpise_sim::Machine`].
//!
//! The XMUL datapaths that execute them in hardware (§3.3) are the
//! netlists of `mpise-hw`, whose tests check them against the
//! intrinsics.
//!
//! The [`related`] module provides executable reference models of the
//! pre-existing ARM and AVX-512 fused multiply-add instructions the
//! paper compares against (Table 2). The ISE design principles of §3.2
//! are checked by `mpise_analyze::lint::lint_extension`, which the
//! `table1` binary runs.

pub mod full_radix;
pub mod intrinsics;
pub mod reduced_radix;
pub mod related;

pub use full_radix::full_radix_ext;
pub use reduced_radix::reduced_radix_ext;

/// The limb width (bits) of the reduced-radix representation used by the
/// paper's CSIDH-512 implementation: radix 2^57, nine limbs for a
/// 511-bit prime.
pub const REDUCED_RADIX_BITS: u32 = 57;

/// Mask selecting one reduced-radix limb: `2^57 - 1`.
pub const REDUCED_RADIX_MASK: u64 = (1u64 << REDUCED_RADIX_BITS) - 1;
