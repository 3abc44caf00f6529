//! # mpise — RISC-V ISEs for multi-precision integer arithmetic
//!
//! Facade crate for the reproduction of "RISC-V Instruction Set
//! Extensions for Multi-Precision Integer Arithmetic: A Case Study on
//! Post-Quantum Key Exchange Using CSIDH-512" (DAC 2024).
//!
//! Re-exports the whole stack:
//!
//! * [`isa`] — the proposed custom instructions, their intrinsics and
//!   encodings, and reference models of the related ARM/AVX-512
//!   instructions (`mpise-core`);
//! * [`sim`] — the RV64 simulator with the Rocket pipeline timing
//!   model (`mpise-sim`);
//! * [`mpi`] — multi-precision integer arithmetic in both radices
//!   (`mpise-mpi`);
//! * [`fp`] — the CSIDH-512 field layer, kernel generators and the
//!   cycle-measurement harness (`mpise-fp`);
//! * [`csidh`] — the CSIDH-512 key exchange (`mpise-csidh`);
//! * [`hw`] — the structural hardware cost model (`mpise-hw`);
//! * [`engine`] — the multi-worker key-exchange service and its load
//!   generator (`mpise-engine`);
//! * [`obs`] — spans, metrics, provenance and the artifact JSON behind every
//!   runtime crate's telemetry (`mpise-obs`);
//! * [`conformance`] — the differential conformance subsystem: the
//!   pure reference executor, the ISA fuzzer, the cross-backend
//!   kernel difftest and the CSIDH-512 KAT suite
//!   (`mpise-conformance`).
//!
//! ## Quick start
//!
//! ```
//! use mpise::csidh::CsidhKeypair;
//! use mpise::fp::FpFull;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let field = FpFull::new();
//! let mut rng = StdRng::seed_from_u64(7);
//! let alice = CsidhKeypair::generate_with_bound(&field, &mut rng, 1);
//! let bob = CsidhKeypair::generate_with_bound(&field, &mut rng, 1);
//! let s1 = alice.private.shared_secret(&field, &mut rng, &bob.public);
//! let s2 = bob.private.shared_secret(&field, &mut rng, &alice.public);
//! assert_eq!(s1, s2);
//! ```

pub use mpise_conformance as conformance;
pub use mpise_core as isa;
pub use mpise_csidh as csidh;
pub use mpise_engine as engine;
pub use mpise_fp as fp;
pub use mpise_hw as hw;
pub use mpise_mpi as mpi;
pub use mpise_obs as obs;
pub use mpise_sim as sim;

// Runs the README's Rust snippet as a doc test, so the library use it
// shows keeps compiling and the two parties keep agreeing.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
