//! Acceptance check for the differential fuzzer: a deliberately broken
//! executor must be caught and shrunk to a minimal reproduction.
//!
//! The injected bug is the classic multi-precision mutation: `cadd`
//! (carry(rs1 + rs2) + rs3) drops the carry and returns `rs3`
//! unchanged, so only inputs whose addition actually overflows 2^64
//! expose it — exactly the carry-boundary surface the fuzzer's
//! interesting-value bias targets.

use mpise_conformance::fuzz::{self, DiffRunner, ExtChoice, FuzzOp};
use mpise_sim::ext::{CustomId, IsaExtension};
use mpise_sim::Inst;

/// The full-radix extension with `cadd`'s executor mutated to drop the
/// carry. The reference side keeps the paper semantics, so every
/// overflowing `cadd` diverges.
fn broken_cadd_ext() -> IsaExtension {
    let mut ext = IsaExtension::new("full-radix-broken-cadd");
    for def in mpise_core::full_radix_ext().defs() {
        let mut def = def.clone();
        if def.id == CustomId(3) {
            def.exec = |_, _, rs3, _| rs3;
        }
        ext.define(def).expect("cloned definitions cannot conflict");
    }
    ext
}

#[test]
fn mutated_cadd_is_caught_and_shrunk_to_a_minimal_repro() {
    let mut runner = DiffRunner::with_machine_ext(broken_cadd_ext());
    let mut found = None;
    for seed in 0..20_000u64 {
        let prog = fuzz::gen_program(ExtChoice::FullRadix, seed);
        if runner.run(&prog).is_some() {
            found = Some((seed, prog));
            break;
        }
    }
    let (seed, prog) = found.expect("fuzzer exposes the dropped carry");

    let small = fuzz::shrink(&mut runner, &prog);
    let divergence = runner
        .run(&small)
        .expect("shrunk program still diverges")
        .to_string();
    assert!(
        small.ops.len() <= 10,
        "seed {seed}: shrunk repro has {} instructions (want <= 10):\n{}",
        small.ops.len(),
        small.listing()
    );
    // The minimal repro must actually contain the broken instruction.
    assert!(
        small.ops.iter().any(|op| matches!(
            op,
            FuzzOp::Plain(Inst::Custom { id, .. }) if *id == CustomId(3)
        )),
        "shrunk repro lost the cadd: {divergence}\n{}",
        small.listing()
    );
    // And the healthy simulator must agree with the reference on it.
    let mut healthy = DiffRunner::new(ExtChoice::FullRadix);
    assert!(
        healthy.run(&small).is_none(),
        "repro diverges only under the mutation"
    );
}

#[test]
fn healthy_extensions_survive_the_same_seeds() {
    // The exact seeds that expose the mutation must be clean on the
    // true executors — the finder above is not tripping on a latent
    // simulator/reference disagreement.
    for ext in ExtChoice::ALL {
        let report = fuzz::fuzz(ext, 0, 400, None, 1);
        assert!(
            report.failures.is_empty(),
            "{}: {}",
            ext.label(),
            report.failures[0].listing
        );
    }
}
