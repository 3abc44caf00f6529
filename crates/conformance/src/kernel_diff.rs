//! Cross-backend kernel difftest.
//!
//! Two layers of comparison, both against oracles that share no code
//! with the implementations under test:
//!
//! 1. **Kernel layer** — every Table 4 kernel in every configuration
//!    (4 configs × 8 ops = 32 combinations) runs on the simulator and
//!    is checked against the `RefInt` schoolbook oracle
//!    ([`oracle_accepts`]), on every adversarial edge — 0, 1, p−1, p,
//!    2p−1 and limb-boundary carry patterns — *plus* seeded random
//!    inputs from the shared generator ([`random_inputs`]).
//! 2. **Field layer** — `FpFull`, `FpRed`, the four `SimFp`
//!    configurations and the `FpBatch` lane kernels (lanes 1..=32) all
//!    evaluate the same operations, and their **canonical byte
//!    encodings** (`to_uint().to_le_bytes()`) are diffed pairwise.

use mpise_fp::kernels::{Config, OpKind, Radix};
use mpise_fp::measure::{
    element_words, oracle_accepts, product_words, random_inputs, KernelRunner,
};
use mpise_fp::params::{random_residue, Csidh512, FULL_LIMBS};
use mpise_fp::simfp::SimFp;
use mpise_fp::{Fp, FpBatch, FpFull, FpRed};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of the kernel + field difftest pass.
#[derive(Debug, Clone, Default)]
pub struct KernelDiffOutcome {
    /// Kernel × configuration combinations exercised (must be 32).
    pub combos: u64,
    /// Total input cases diffed across both layers.
    pub cases: u64,
    /// Distinct batch lane widths exercised (1..=32 → 32).
    pub lane_widths: u64,
    /// Human-readable divergence descriptions (empty on success).
    pub failures: Vec<String>,
}

impl KernelDiffOutcome {
    /// Whether every comparison agreed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Adversarial canonical residues: identities, the top of the range and
/// limb-boundary carry patterns (all limbs saturated, the 57-bit radix
/// boundary, a single bit straddling limb 4).
fn edge_residues() -> Vec<U512> {
    let p = Csidh512::get().p;
    let pm1 = p.wrapping_sub(&U512::ONE);
    let mut low_ones = [0u64; FULL_LIMBS];
    for l in low_ones.iter_mut().take(FULL_LIMBS / 2) {
        *l = u64::MAX;
    }
    let mask57 = (1u64 << 57) - 1;
    vec![
        U512::ZERO,
        U512::ONE,
        pm1,
        U512::from_limbs(low_ones),
        U512::from_limbs([mask57; FULL_LIMBS]),
        U512::ONE.shl(57),
        U512::ONE.shl(57 * 4),
        U512::ONE.shl(256).wrapping_sub(&U512::ONE),
    ]
}

/// Builds the input case list for one op: every per-op adversarial
/// edge first, then `cases` seeded random cases.
fn build_cases(op: OpKind, radix: Radix, cases: usize, rng: &mut StdRng) -> Vec<Vec<Vec<u64>>> {
    let p = Csidh512::get().p;
    let edges = edge_residues();
    // Every edge times the last edge (2^256 − 1), then every edge squared.
    let top = *edges.last().expect("non-empty");
    let residue_pairs = edges
        .iter()
        .map(|&e| (e, top))
        .chain(edges.iter().map(|&e| (e, e)));
    let words = |v: &U512| element_words(radix, v);
    let mut out: Vec<Vec<Vec<u64>>> = match op {
        OpKind::IntMul | OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul => residue_pairs
            .map(|(a, b)| vec![words(&a), words(&b)])
            .collect(),
        OpKind::IntSqr | OpKind::FpSqr => edges.iter().map(|e| vec![words(e)]).collect(),
        // Inputs range over [0, 2p): include the boundary values p and
        // 2p−1 that no canonical-residue generator produces.
        OpKind::FastReduce => [
            U512::ZERO,
            U512::ONE,
            p.wrapping_sub(&U512::ONE),
            p,
            p.wrapping_add(&U512::ONE),
            p.wrapping_add(&p).wrapping_sub(&U512::ONE),
        ]
        .iter()
        .map(|v| vec![words(v)])
        .collect(),
        // Double-length products of the edge pairs: 0·0, (p−1)², the
        // saturated-limb squares, and each edge times 2^256 − 1.
        OpKind::MontRedc => residue_pairs
            .map(|(a, b)| vec![product_words(radix, &a, &b)])
            .collect(),
    };
    out.extend((0..cases).map(|_| random_inputs(rng, op, radix)));
    out
}

/// Runs all 32 kernel × configuration combinations against the
/// schoolbook oracle.
pub fn run_kernel_layer(cases_per_combo: usize, seed: u64) -> KernelDiffOutcome {
    let mut outcome = KernelDiffOutcome::default();
    for (ci, &config) in Config::ALL.iter().enumerate() {
        let mut runner = KernelRunner::new(config);
        for (oi, &op) in OpKind::ALL.iter().enumerate() {
            outcome.combos += 1;
            let mut rng = StdRng::seed_from_u64(seed ^ ((ci as u64) << 32) ^ ((oi as u64) << 16));
            let cases = build_cases(op, config.radix, cases_per_combo, &mut rng);
            for (case_idx, inputs) in cases.iter().enumerate() {
                outcome.cases += 1;
                let refs: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
                let (out, _cycles) = runner.run(op, &refs);
                if !oracle_accepts(op, config.radix, &refs, &out) {
                    outcome.failures.push(format!(
                        "{config}: {op:?} diverges from schoolbook oracle on case {case_idx}"
                    ));
                    break;
                }
            }
        }
    }
    outcome
}

/// Byte-level agreement of one operation across two backends.
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
    let ops: [(&str, U512, U512); 4] = [
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
/// the four simulator configurations, plus batch lanes 1..=32.
///
/// `sim_cases` bounds the (slow) simulator comparisons; host and batch
/// comparisons always cover the full case list.
pub fn run_field_layer(cases: usize, sim_cases: usize, seed: u64) -> KernelDiffOutcome {
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

    // Batch kernels: every lane width 1..=32, each lane checked against
    // the scalar host result byte-for-byte.
    for lanes in 1..=32usize {
        outcome.lane_widths += 1;
        let take = |n: usize| -> Vec<U512> {
            (0..lanes)
                .map(|i| inputs[(n + i) % inputs.len()].0)
                .collect()
        };
        let av = take(0);
        let bv: Vec<U512> = (0..lanes).map(|i| inputs[i % inputs.len()].1).collect();
        check_batch(&full, "FpFull", &av, &bv, &mut outcome);
        check_batch(&red, "FpRed", &av, &bv, &mut outcome);
    }
    outcome
}

fn check_batch<F: FpBatch>(
    f: &F,
    label: &str,
    av: &[U512],
    bv: &[U512],
    out: &mut KernelDiffOutcome,
) {
    let scalar = FpFull::new();
    let s = |v: &U512| scalar.from_uint(v);
    let a: Vec<F::Elem> = av.iter().map(|v| f.from_uint(v)).collect();
    let b: Vec<F::Elem> = bv.iter().map(|v| f.from_uint(v)).collect();
    let lanes = a.len();
    let mut r = vec![f.zero(); lanes];
    for name in ["add_n", "sub_n", "mul_n", "sqr_n"] {
        match name {
            "add_n" => f.add_n(&a, &b, &mut r),
            "sub_n" => f.sub_n(&a, &b, &mut r),
            "mul_n" => f.mul_n(&a, &b, &mut r),
            _ => f.sqr_n(&a, &mut r),
        }
        for i in 0..lanes {
            out.cases += 1;
            let got = f.to_uint(&r[i]);
            let want = match name {
                "add_n" => scalar.add(&s(&av[i]), &s(&bv[i])),
                "sub_n" => scalar.sub(&s(&av[i]), &s(&bv[i])),
                "mul_n" => scalar.mul(&s(&av[i]), &s(&bv[i])),
                _ => scalar.sqr(&s(&av[i])),
            };
            let want = scalar.to_uint(&want);
            if got.to_le_bytes() != want.to_le_bytes() {
                out.failures.push(format!(
                    "batch {label}.{name} lanes={lanes} lane {i}: {} != {}",
                    got.to_hex(),
                    want.to_hex()
                ));
            }
        }
    }
}

/// Merges two outcomes (kernel layer + field layer) into one.
pub fn merge(a: KernelDiffOutcome, b: KernelDiffOutcome) -> KernelDiffOutcome {
    KernelDiffOutcome {
        combos: a.combos + b.combos,
        cases: a.cases + b.cases,
        lane_widths: a.lane_widths + b.lane_widths,
        failures: a.failures.into_iter().chain(b.failures).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_mpi::reference::RefInt;

    #[test]
    fn kernel_layer_covers_all_32_combos() {
        let out = run_kernel_layer(3, 0xD1FF);
        assert_eq!(out.combos, 32);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn field_layer_agrees_across_backends() {
        let out = run_field_layer(12, 1, 0xD1FF);
        assert_eq!(out.lane_widths, 32);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn every_op_runs_all_its_edges_then_the_random_cases() {
        let edges = |op| match op {
            OpKind::IntSqr | OpKind::FpSqr => 8,
            OpKind::FastReduce => 6,
            _ => 16,
        };
        let pm1 = RefInt::from_limbs(Csidh512::get().p.limbs()).sub(&RefInt::one());
        for radix in [Radix::Full, Radix::Reduced] {
            for op in OpKind::ALL {
                let mut rng = StdRng::seed_from_u64(0xD1FF);
                let cases = build_cases(op, radix, 3, &mut rng);
                assert_eq!(cases.len(), edges(op) + 3, "{radix}: {op:?}");
                if op == OpKind::MontRedc {
                    assert!(
                        cases.iter().any(|c| radix.value(&c[0]) == pm1.mul(&pm1)),
                        "{radix}: MontRedc never reduces (p-1)^2"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_residues_are_canonical() {
        let p = Csidh512::get().p;
        for e in edge_residues() {
            assert!(e < p);
        }
    }
}
