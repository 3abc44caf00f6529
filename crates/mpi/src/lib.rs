//! # mpise-mpi — multi-precision integer arithmetic
//!
//! The arithmetic layer of the DAC'24 reproduction: flexible (scalable)
//! multi-precision integer (MPI) arithmetic in both operand
//! representations the paper studies (§1, §3.1):
//!
//! * **full-radix** (radix 2^64): [`Uint<L>`](uint::Uint) — `L` 64-bit
//!   digits, carries propagated instantly;
//! * **reduced-radix** (radix 2^57): [`Reduced<N>`](reduced::Reduced) —
//!   `N` 57-bit limbs held in 64-bit words, carries delayed and
//!   propagated in one pass.
//!
//! On top of both representations the crate provides:
//!
//! * product-scanning multiplication and squaring ([`mul`]),
//! * Montgomery reduction and multiplication ([`mont`]),
//! * the two fast modulo-`p` reduction algorithms of the paper
//!   (addition-based Algorithm 1 and swap-based Algorithm 2, [`fast`]),
//! * constant-time primitives ([`ct`]), and
//! * an independent, simple reference implementation used only by tests
//!   (the [`crate::reference`] module).
//!
//! Everything that the paper implements in constant time is constant
//! time here too: no secret-dependent branches or table lookups in the
//! arithmetic paths (the *shape* of the computation depends only on the
//! limb count).
//!
//! The host Montgomery paths are also allocation-free and fixed-trip,
//! like the paper's unrolled register-resident kernels. `mul_ps`,
//! `square_ps` and the `redc` of both [`MontCtx`] and
//! [`reduced::MontCtx57`] keep their double-length values in
//! `[[_; L]; 2]` stack buffers. The `mul`/`sqr` of both contexts are
//! integrated Montgomery multiplications, which form no double-length
//! value at all, and are written so that independent products do not
//! wait on one carry chain: [`MontCtx::mul`] is the no-carry CIOS
//! loop, whose `a·b_i` and `m·p` chains interleave word by word with
//! no overflow word, and [`reduced::MontCtx57::mul`] sums the `a·b`
//! columns apart from the reduction's `m·p` terms. Every carry chain
//! runs a trip count fixed by the limb count ([`MontCtx::redc`]
//! describes the pending-carry scheme that makes this so for the
//! separated reduction).

// Carry-chain and multi-array arithmetic code indexes several slices in
// lockstep; iterator rewrites of those loops obscure the digit algebra.
#![allow(clippy::needless_range_loop)]

pub mod ct;
pub mod fast;
pub mod mont;
pub mod mul;
pub mod reduced;
pub mod reference;
mod uint;

pub use mont::MontCtx;
pub use reduced::Reduced;
pub use uint::Uint;

/// A 512-bit full-radix integer (8 digits) — the operand size of the
/// CSIDH-512 case study.
pub type U512 = Uint<8>;
