//! # mpise-fp — the CSIDH-512 prime-field layer
//!
//! Everything the paper's software evaluation (§4, Table 4) measures
//! lives here:
//!
//! * [`params`]: the CSIDH-512 prime `p = 4·ℓ₁⋯ℓ₇₄ − 1` and its
//!   Montgomery constants, in both radix representations;
//! * [`backend`]: the [`backend::Fp`] trait and the two host-speed
//!   backends ([`backend::FpFull`] on radix-2^64,
//!   [`backend::FpRed`] on radix-2^57), plus an op-counting adapter;
//! * [`batch`]: a lane trait with scalar default methods only, kept
//!   for the benchmark that implements it (no workspace code calls it);
//! * [`kernels`]: generators that emit the fully unrolled RV64
//!   assembly kernels for every Table 4 operation in all four
//!   configurations (full/reduced radix × ISA-only/ISE-supported) —
//!   the Rust equivalent of the hand-written assembler functions the
//!   authors wrote "from scratch". Listings 1–4 ([`kernels::mac`]) are
//!   built by the same MAC and carry emitters the kernels call;
//! * [`measure`]: the one home of the kernel-call ABI (memory layout,
//!   argument registers, constant pool per radix); executes the
//!   kernels on the `mpise-sim` Rocket model, checks them against a
//!   `RefInt` oracle, and reports cycle counts;
//! * [`simfp`]: an [`backend::Fp`] backend whose add/sub/mul/sqr each
//!   run as a simulated kernel — used for the direct simulation of the
//!   CSIDH group-action row, whose control code runs on the host and is
//!   charged zero cycles.

// Carry-chain and multi-array arithmetic code indexes several slices in
// lockstep; iterator rewrites of those loops obscure the digit algebra.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod batch;
pub mod ctspec;
pub mod kernels;
pub mod measure;
pub mod params;
pub mod simfp;

pub use backend::{CountingFp, Fp, FpFull, FpRed, OpCounts};
pub use batch::FpBatch;
pub use params::Csidh512;
