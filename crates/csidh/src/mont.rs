//! x-only Montgomery curve arithmetic, generic over the field backend.
//!
//! Curves are `E_A : y² = x³ + A·x² + x` with the coefficient kept
//! projectively as `(A : C)`; points are x-only `(X : Z)`. These are
//! the standard Montgomery formulas used by the CSIDH reference
//! implementation (4M + 2S `xDBL`, 4M + 2S `xADD`, ladder).

use mpise_fp::Fp;
use mpise_mpi::U512;

/// An x-only projective point `(X : Z)`; the point at infinity has
/// `Z = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point<E> {
    /// X coordinate.
    pub x: E,
    /// Z coordinate.
    pub z: E,
}

/// A Montgomery coefficient held projectively: `a = A/C`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Curve<E> {
    /// Numerator of the coefficient.
    pub a: E,
    /// Denominator of the coefficient.
    pub c: E,
}

impl<E: Copy> Curve<E> {
    /// The curve with affine coefficient `a` (i.e. `C = 1`).
    pub fn from_affine<F: Fp<Elem = E>>(f: &F, a: E) -> Self {
        Curve { a, c: f.one() }
    }
}

/// Whether `p` is the point at infinity.
pub fn is_infinity<F: Fp>(f: &F, p: &Point<F::Elem>) -> bool {
    f.is_zero(&p.z)
}

/// The doubling constants `(A + 2C : 4C)` of a curve.
pub(crate) fn a24<F: Fp>(f: &F, e: &Curve<F::Elem>) -> (F::Elem, F::Elem) {
    let c2 = f.add(&e.c, &e.c);
    let a24_plus = f.add(&e.a, &c2);
    let c24 = f.add(&c2, &c2);
    (a24_plus, c24)
}

/// x-only doubling: `[2]P` (4M + 2S with the precomputed `(A+2C : 4C)`).
pub(crate) fn xdbl<F: Fp>(
    f: &F,
    p: &Point<F::Elem>,
    a24_plus: &F::Elem,
    c24: &F::Elem,
) -> Point<F::Elem> {
    let t0 = f.sub(&p.x, &p.z);
    let t1 = f.add(&p.x, &p.z);
    let t0 = f.sqr(&t0);
    let t1 = f.sqr(&t1);
    let z2 = f.mul(c24, &t0);
    let x2 = f.mul(&z2, &t1);
    let t1 = f.sub(&t1, &t0);
    let t0 = f.mul(a24_plus, &t1);
    let z2 = f.add(&z2, &t0);
    let z2 = f.mul(&z2, &t1);
    Point { x: x2, z: z2 }
}

/// x-only differential addition: `P + Q` given `P − Q` (4M + 2S).
pub(crate) fn xadd<F: Fp>(
    f: &F,
    p: &Point<F::Elem>,
    q: &Point<F::Elem>,
    diff: &Point<F::Elem>,
) -> Point<F::Elem> {
    let t0 = f.add(&p.x, &p.z);
    let t1 = f.sub(&p.x, &p.z);
    let t2 = f.add(&q.x, &q.z);
    let t3 = f.sub(&q.x, &q.z);
    let t0 = f.mul(&t0, &t3);
    let t1 = f.mul(&t1, &t2);
    let t2 = f.sqr(&f.add(&t0, &t1));
    let t3 = f.sqr(&f.sub(&t0, &t1));
    Point {
        x: f.mul(&diff.z, &t2),
        z: f.mul(&diff.x, &t3),
    }
}

/// Montgomery ladder: `[k]P` on curve `e`.
///
/// Scans the scalar from its most significant set bit; the zero scalar
/// yields the point at infinity.
pub fn xmul<F: Fp>(f: &F, e: &Curve<F::Elem>, p: &Point<F::Elem>, k: &U512) -> Point<F::Elem> {
    let bits = k.bit_length();
    if bits == 0 {
        return Point {
            x: f.one(),
            z: f.zero(),
        };
    }
    let (a24_plus, c24) = a24(f, e);
    // (r0, r1) = (P, [2]P), invariant r1 - r0 = P.
    let mut r0 = *p;
    let mut r1 = xdbl(f, p, &a24_plus, &c24);
    for i in (0..bits as usize - 1).rev() {
        if k.bit(i) == 1 {
            r0 = xadd(f, &r1, &r0, p);
            r1 = xdbl(f, &r1, &a24_plus, &c24);
        } else {
            r1 = xadd(f, &r0, &r1, p);
            r0 = xdbl(f, &r0, &a24_plus, &c24);
        }
    }
    r0
}

/// The projective "right-hand side" value `X³·C + A·X²·Z + X·Z²·C`
/// used to decide whether an x-coordinate lies on the curve or on its
/// quadratic twist: `x` is on `E_A` iff `rhs·C` is a square.
///
/// For an affine coefficient (`C = 1`) this is `x³ + A·x² + x`.
pub(crate) fn rhs<F: Fp>(f: &F, e: &Curve<F::Elem>, x: &F::Elem) -> F::Elem {
    // C·x³ + A·x² + C·x = x·(C·(x²+1) + A·x)
    let x2 = f.sqr(x);
    let t = f.add(&x2, &f.one());
    let t = f.mul(&e.c, &t);
    let t = f.add(&t, &f.mul(&e.a, x));
    f.mul(x, &t)
}

/// Normalizes the coefficient to affine `a = A/C` (one inversion).
pub(crate) fn normalize<F: Fp>(f: &F, e: &Curve<F::Elem>) -> F::Elem {
    f.mul(&e.a, &f.inv(&e.c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;
    use mpise_fp::params::Csidh512;
    use mpise_fp::{FpFull, FpRed};

    fn base_curve<F: Fp>(f: &F) -> Curve<F::Elem> {
        Curve::from_affine(f, f.zero()) // E_0: y² = x³ + x
    }

    /// A point of order dividing p+1 on E_0 or its twist.
    fn sample_point<F: Fp>(f: &F, seed: u64) -> Point<F::Elem> {
        Point {
            x: f.from_uint(&U512::from_u64(seed)),
            z: f.one(),
        }
    }

    #[test]
    fn ladder_edge_cases() {
        let f = FpFull::new();
        let e = base_curve(&f);
        let p = sample_point(&f, 9);
        // [0]P = infinity, [1]P = P (projectively).
        assert!(is_infinity(&f, &xmul(&f, &e, &p, &U512::ZERO)));
        let one = xmul(&f, &e, &p, &U512::ONE);
        // same affine x: X/Z equal
        let lhs = f.mul(&one.x, &p.z);
        let rhs_ = f.mul(&p.x, &one.z);
        assert_eq!(f.to_uint(&lhs), f.to_uint(&rhs_));
    }

    #[test]
    fn double_matches_ladder_by_two() {
        let f = FpFull::new();
        let e = base_curve(&f);
        let p = sample_point(&f, 7);
        let (ap, c24) = a24(&f, &e);
        let d1 = xdbl(&f, &p, &ap, &c24);
        let d2 = xmul(&f, &e, &p, &U512::from_u64(2));
        let lhs = f.mul(&d1.x, &d2.z);
        let rhs_ = f.mul(&d2.x, &d1.z);
        assert_eq!(f.to_uint(&lhs), f.to_uint(&rhs_));
    }

    #[test]
    fn ladder_is_additive_in_the_scalar() {
        // [6]P computed as [2]([3]P) and as [3]([2]P) agree.
        let f = FpRed::new();
        let e = base_curve(&f);
        let p = sample_point(&f, 5);
        let a = xmul(
            &f,
            &e,
            &xmul(&f, &e, &p, &U512::from_u64(3)),
            &U512::from_u64(2),
        );
        let b = xmul(
            &f,
            &e,
            &xmul(&f, &e, &p, &U512::from_u64(2)),
            &U512::from_u64(3),
        );
        let lhs = f.mul(&a.x, &b.z);
        let rhs_ = f.mul(&b.x, &a.z);
        assert_eq!(f.to_uint(&lhs), f.to_uint(&rhs_));
    }

    #[test]
    fn p_plus_one_annihilates_curve_points() {
        // E_0 is supersingular with #E(Fp) = p+1: any point with x on
        // the curve (rhs a square) satisfies [(p+1)]P = infinity.
        let f = FpFull::new();
        let e = base_curve(&f);
        let pp1 = scalar::p_plus_one();
        let mut checked = 0;
        for seed in 2..40u64 {
            let pt = sample_point(&f, seed);
            if f.legendre(&rhs(&f, &e, &pt.x)) == 1 {
                let r = xmul(&f, &e, &pt, &pp1);
                assert!(is_infinity(&f, &r), "x={seed} not annihilated");
                checked += 1;
                if checked >= 3 {
                    break;
                }
            }
        }
        assert!(checked >= 3, "not enough on-curve samples");
    }

    #[test]
    fn twist_points_are_annihilated_too() {
        // Points with non-square rhs live on the twist, which also has
        // order p+1 (supersingular, p ≡ 3 mod 4).
        let f = FpFull::new();
        let e = base_curve(&f);
        let pp1 = scalar::p_plus_one();
        let mut checked = 0;
        for seed in 2..40u64 {
            let pt = sample_point(&f, seed);
            if f.legendre(&rhs(&f, &e, &pt.x)) == -1 {
                let r = xmul(&f, &e, &pt, &pp1);
                assert!(is_infinity(&f, &r));
                checked += 1;
                if checked >= 3 {
                    break;
                }
            }
        }
        assert!(checked >= 3);
    }

    #[test]
    fn rhs_affine_matches_definition() {
        let f = FpFull::new();
        let a_coeff = f.from_uint(&U512::from_u64(6));
        let e = Curve::from_affine(&f, a_coeff);
        let x = f.from_uint(&U512::from_u64(5));
        // x³ + 6x² + x at x=5: 125 + 150 + 5 = 280
        assert_eq!(f.to_uint(&rhs(&f, &e, &x)), U512::from_u64(280));
    }

    #[test]
    fn normalize_recovers_affine() {
        let f = FpFull::new();
        let two = f.from_uint(&U512::from_u64(2));
        let six = f.from_uint(&U512::from_u64(6));
        let e = Curve { a: six, c: two };
        assert_eq!(f.to_uint(&normalize(&f, &e)), U512::from_u64(3));
    }

    #[test]
    fn full_and_reduced_backends_agree_on_ladder() {
        let ff = FpFull::new();
        let fr = FpRed::new();
        let k = U512::from_u64(0xdead_beef);
        let pf = sample_point(&ff, 11);
        let pr = sample_point(&fr, 11);
        let rf = xmul(&ff, &base_curve(&ff), &pf, &k);
        let rr = xmul(&fr, &base_curve(&fr), &pr, &k);
        // compare affine x
        let ax_f = ff.mul(&rf.x, &ff.inv(&rf.z));
        let ax_r = fr.mul(&rr.x, &fr.inv(&rr.z));
        assert_eq!(ff.to_uint(&ax_f), fr.to_uint(&ax_r));
        let _ = Csidh512::get();
    }
}
