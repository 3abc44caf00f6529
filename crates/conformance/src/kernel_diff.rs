//! Cross-backend kernel difftest.
//!
//! Two layers of comparison, both against oracles that share no code
//! with the implementations under test:
//!
//! 1. **Kernel layer** — every Table 4 kernel in every configuration
//!    (4 configs × 8 ops = 32 cells) runs on the simulator through the
//!    one kernel matrix `bench` runs too
//!    ([`kernel_matrix`](mpise_fp::measure::kernel_matrix)): the
//!    `RefInt` schoolbook oracle on every adversarial edge — 0, 1,
//!    p−1, p, 2p−1 and limb-boundary carry patterns — *plus* seeded
//!    random inputs, and identical cycles, `instret` and timing
//!    counters across them. [`KernelDiffOutcome::of_matrix`] tallies
//!    its cells.
//! 2. **Field layer** — `FpFull`, `FpRed` and the four `SimFp`
//!    configurations all evaluate the same operations, `inv` included,
//!    and their **canonical byte encodings** (`to_uint().to_le_bytes()`)
//!    are diffed pairwise.

use mpise_fp::kernels::Config;
use mpise_fp::measure::{edge_residues, KernelCell};
use mpise_fp::params::{random_residue, Csidh512};
use mpise_fp::simfp::SimFp;
use mpise_fp::{Fp, FpFull, FpRed};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of the kernel + field difftest pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct KernelDiffOutcome {
    /// Kernel × configuration combinations exercised (must be 32).
    pub combos: u64,
    /// Total input cases diffed across both layers.
    pub cases: u64,
    /// Human-readable divergence descriptions (empty on success).
    pub failures: Vec<String>,
}

impl KernelDiffOutcome {
    /// The kernel layer's outcome: one combination per cell of a
    /// [`kernel_matrix`](mpise_fp::measure::kernel_matrix), its cases,
    /// and each failing cell's message.
    pub(crate) fn of_matrix(matrix: &[(Config, Vec<KernelCell>)]) -> Self {
        let cells = matrix.iter().flat_map(|(_, cells)| cells);
        KernelDiffOutcome {
            combos: cells.clone().count() as u64,
            cases: cells.clone().map(|c| c.cases as u64).sum(),
            failures: cells.filter_map(|c| c.result.clone().err()).collect(),
        }
    }
}

/// Byte-level agreement of `add`, `sub`, `mul`, `sqr` and `inv` across
/// two backends.
fn diff_bytes<F1: Fp, F2: Fp>(
    label1: &str,
    f1: &F1,
    label2: &str,
    f2: &F2,
    a: &U512,
    b: &U512,
    failures: &mut Vec<String>,
) -> u64 {
    let (a1, b1) = (f1.from_uint(a), f1.from_uint(b));
    let (a2, b2) = (f2.from_uint(a), f2.from_uint(b));
    let ops: [(&str, U512, U512); 5] = [
        (
            "add",
            f1.to_uint(&f1.add(&a1, &b1)),
            f2.to_uint(&f2.add(&a2, &b2)),
        ),
        (
            "sub",
            f1.to_uint(&f1.sub(&a1, &b1)),
            f2.to_uint(&f2.sub(&a2, &b2)),
        ),
        (
            "mul",
            f1.to_uint(&f1.mul(&a1, &b1)),
            f2.to_uint(&f2.mul(&a2, &b2)),
        ),
        ("sqr", f1.to_uint(&f1.sqr(&a1)), f2.to_uint(&f2.sqr(&a2))),
        ("inv", f1.to_uint(&f1.inv(&a1)), f2.to_uint(&f2.inv(&a2))),
    ];
    for (name, r1, r2) in &ops {
        if r1.to_le_bytes() != r2.to_le_bytes() {
            failures.push(format!(
                "field {name}: {label1} {} != {label2} {}",
                r1.to_hex(),
                r2.to_hex()
            ));
        }
    }
    ops.len() as u64
}

/// Field-layer difftest: host backends against each other and against
/// the four simulator configurations.
///
/// `sim_cases` bounds the (slow) simulator comparisons; host
/// comparisons always cover the full case list.
pub(crate) fn run_field_layer(cases: usize, sim_cases: usize, seed: u64) -> KernelDiffOutcome {
    let mut outcome = KernelDiffOutcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let p = Csidh512::get().p;
    let mut inputs: Vec<(U512, U512)> = Vec::new();
    let edges = edge_residues();
    // Non-canonical imports too: from_uint documents reduction mod p.
    let mut import_edges = edges.clone();
    import_edges.push(p);
    import_edges.push(p.wrapping_add(&U512::ONE));
    for (i, &e) in import_edges.iter().enumerate() {
        inputs.push((e, import_edges[(i + 1) % import_edges.len()]));
    }
    while inputs.len() < cases {
        inputs.push((random_residue(&mut rng), random_residue(&mut rng)));
    }

    let full = FpFull::new();
    let red = FpRed::new();
    for (a, b) in &inputs {
        outcome.cases += diff_bytes("FpFull", &full, "FpRed", &red, a, b, &mut outcome.failures);
    }

    // Simulator backends: every configuration against the host oracle.
    for config in Config::ALL {
        let sim = SimFp::new(config);
        for (a, b) in inputs.iter().take(sim_cases) {
            outcome.cases += diff_bytes(
                "FpFull",
                &full,
                &format!("SimFp[{config}]"),
                &sim,
                a,
                b,
                &mut outcome.failures,
            );
        }
    }
    outcome
}

/// Merges two outcomes (kernel layer + field layer) into one.
pub(crate) fn merge(a: KernelDiffOutcome, b: KernelDiffOutcome) -> KernelDiffOutcome {
    KernelDiffOutcome {
        combos: a.combos + b.combos,
        cases: a.cases + b.cases,
        failures: a.failures.into_iter().chain(b.failures).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::measure::kernel_matrix;

    #[test]
    fn kernel_layer_covers_all_32_combos() {
        let out = KernelDiffOutcome::of_matrix(&kernel_matrix(3, 0xD1FF));
        assert_eq!(out.combos, 32);
        // Per radix: 102 edge cases over the eight ops, then 3 random each.
        assert_eq!(out.cases, 4 * (102 + 8 * 3));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn field_layer_agrees_across_backends() {
        let out = run_field_layer(12, 1, 0xD1FF);
        // Five ops per input on the host pair (the edges plus p and
        // p + 1, padded to 12), then one input on each SimFp.
        let inputs = (edge_residues().len() + 2).max(12) as u64;
        assert_eq!(out.cases, 5 * (inputs + 4));
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }
}
