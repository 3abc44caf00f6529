//! The integrated Montgomery multiplications of both radices on the
//! CSIDH-512 prime, at edge operands and on seeded random pairs.
//!
//! `MontCtx::mul`/`sqr` (no-carry CIOS, radix 2^64) and
//! `MontCtx57::mul`/`sqr` (FIPS, radix 2^57) must equal the separated
//! forms (product scanning, then `redc`) and the `RefInt` value
//! `a·b·R^{-1} mod p`, checked as `result·R ≡ a·b (mod p)`. The edge
//! operands are `0`, `1`, `p − 1`, `p − 2`, `R mod p` of both radices,
//! and, for each radix, the operand with every limb at its maximum below
//! `p` and the operands with one limb at that maximum and the others 0:
//! these drive every column sum and carry to its largest value.

use mpise_fp::params::random_residue;
use mpise_fp::Csidh512;
use mpise_mpi::mul::{mul_ps, square_ps};
use mpise_mpi::reduced::{mul_ps_slices_57, square_ps_slices_57, MASK};
use mpise_mpi::reference::RefInt;
use mpise_mpi::{Reduced, U512};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RED_LIMBS: usize = 9;

fn p() -> U512 {
    Csidh512::get().p
}

fn to_ref(v: &U512) -> RefInt {
    RefInt::from_limbs(v.limbs())
}

/// The operands with one limb, or every limb, set to its maximum
/// below `p`: all ones for a lower limb, `p`'s top limb minus one for
/// the top limb. `limbs` maps one radix's limb array to its value.
fn max_limb_operands<const N: usize>(
    p_limbs: [u64; N],
    ones: u64,
    limbs: impl Fn([u64; N]) -> U512,
) -> Vec<U512> {
    let mut max = [ones; N];
    max[N - 1] = p_limbs[N - 1] - 1;
    let mut out: Vec<U512> = (0..N)
        .map(|i| {
            let mut one = [0; N];
            one[i] = max[i];
            limbs(one)
        })
        .collect();
    out.push(limbs(max));
    out
}

fn max_limb_operands_64() -> Vec<U512> {
    max_limb_operands(*p().limbs(), u64::MAX, U512::from_limbs)
}

fn max_limb_operands_57() -> Vec<U512> {
    let p57 = Reduced::<RED_LIMBS>::from_uint(&p());
    max_limb_operands(*p57.limbs(), MASK, |l| Reduced::from_limbs(l).to_uint())
}

/// Every edge operand of both radices, each below `p`.
fn edge_operands() -> Vec<U512> {
    let c = Csidh512::get();
    let mut v = vec![
        U512::ZERO,
        U512::ONE,
        p().wrapping_sub(&U512::ONE),
        p().wrapping_sub(&U512::from_u64(2)),
        *c.mont.one(),
        c.mont57.one().to_uint(),
    ];
    v.extend(max_limb_operands_64());
    v.extend(max_limb_operands_57());
    v
}

/// Checks `got·R ≡ a·b (mod p)` for `R = 2^r_bits`.
fn check_ref(got: &U512, a: &U512, b: &U512, r_bits: usize, what: &str) {
    let rp = to_ref(&p());
    let lhs = to_ref(got).mulmod(&RefInt::one().shl(r_bits).rem(&rp), &rp);
    assert_eq!(
        lhs,
        to_ref(a).mulmod(&to_ref(b), &rp),
        "{what}: a={a} b={b}"
    );
    assert!(*got < p(), "{what}: result not canonical, a={a} b={b}");
}

fn check_full(a: &U512, b: &U512) {
    let ctx = &Csidh512::get().mont;
    let got = ctx.mul(a, b);
    let (lo, hi) = mul_ps(a, b);
    assert_eq!(
        got,
        ctx.redc(&lo, &hi),
        "MontCtx::mul vs mul_ps+redc: a={a} b={b}"
    );
    check_ref(&got, a, b, 512, "MontCtx::mul");
    let sq = ctx.sqr(a);
    let (lo, hi) = square_ps(a);
    assert_eq!(
        sq,
        ctx.redc(&lo, &hi),
        "MontCtx::sqr vs square_ps+redc: a={a}"
    );
    check_ref(&sq, a, a, 512, "MontCtx::sqr");
}

fn check_reduced(a: &U512, b: &U512) {
    let ctx = &Csidh512::get().mont57;
    let (ra, rb) = (
        Reduced::<RED_LIMBS>::from_uint(a),
        Reduced::<RED_LIMBS>::from_uint(b),
    );
    let got = ctx.mul(&ra, &rb);
    let mut t = [0u64; 2 * RED_LIMBS];
    mul_ps_slices_57(ra.limbs(), rb.limbs(), &mut t);
    assert_eq!(
        got,
        ctx.redc(&t),
        "MontCtx57::mul vs mul_ps_slices_57+redc: a={a} b={b}"
    );
    check_ref(&got.to_uint(), a, b, 513, "MontCtx57::mul");
    let sq = ctx.sqr(&ra);
    square_ps_slices_57(ra.limbs(), &mut t);
    assert_eq!(
        sq,
        ctx.redc(&t),
        "MontCtx57::sqr vs square_ps_slices_57+redc: a={a}"
    );
    check_ref(&sq.to_uint(), a, a, 513, "MontCtx57::sqr");
}

#[test]
fn integrated_forms_at_edge_operands() {
    // The all-limbs-maximal operand of each radix has no limb to spare.
    let full = max_limb_operands_64();
    assert!(full.last().unwrap().limbs()[..7]
        .iter()
        .all(|&l| l == u64::MAX));
    let red = Reduced::<RED_LIMBS>::from_uint(max_limb_operands_57().last().unwrap());
    assert!(red.limbs()[..RED_LIMBS - 1].iter().all(|&l| l == MASK));

    let ops = edge_operands();
    assert!(ops.iter().all(|v| *v < p()));
    for a in &ops {
        for b in &ops {
            check_full(a, b);
            check_reduced(a, b);
        }
    }
}

#[test]
fn integrated_forms_on_random_pairs() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0512);
    for _ in 0..1000 {
        let (a, b) = (random_residue(&mut rng), random_residue(&mut rng));
        check_full(&a, &b);
        check_reduced(&a, &b);
    }
}

/// `MontCtx::to_mont` accepts any 512-bit word, including those at or
/// above `2p`, and both radices import to the same residue.
#[test]
fn to_mont_reduces_any_word() {
    let c = Csidh512::get();
    let rp = to_ref(&p());
    for v in [
        U512::MAX,
        p().shl(1),
        p().shl(1).wrapping_add(&U512::ONE),
        p(),
    ] {
        let m = c.mont.to_mont(&v);
        assert!(m < p());
        assert_eq!(
            c.mont.from_mont(&m).limbs().to_vec(),
            to_ref(&v).rem(&rp).to_limbs(8)
        );
        let m57 = c.mont57.to_mont(&Reduced::<RED_LIMBS>::from_uint(&v));
        assert_eq!(
            c.mont57.from_mont(&m57).to_uint::<8>(),
            c.mont.from_mont(&m)
        );
    }
}
