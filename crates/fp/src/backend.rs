//! The field-backend abstraction and the two host-speed backends.
//!
//! The CSIDH layers above (`mpise-csidh`) are generic over [`Fp`], so
//! the same high-level code runs on:
//!
//! * [`FpFull`] — full-radix (radix-2^64) Montgomery arithmetic,
//! * [`FpRed`] — reduced-radix (radix-2^57) Montgomery arithmetic,
//! * [`crate::simfp::SimFp`] — either of the above executed
//!   instruction-by-instruction on the Rocket simulator,
//!
//! mirroring how the paper swaps constant-time assembler field routines
//! beneath an unchanged C implementation of the protocol (§4).
//!
//! [`CountingFp`] wraps any backend and counts field operations; the
//! group-action cycle estimates multiply those counts by the per-op
//! cycle costs measured on the simulator.

use crate::params::{Csidh512, FULL_LIMBS, RED_LIMBS};
use mpise_mpi::{fast, Reduced, U512};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};

/// A prime-field backend for the CSIDH-512 field.
///
/// Elements are opaque; values cross the boundary as canonical
/// [`U512`] integers in `[0, p − 1]`. All operations are total on
/// canonical elements.
#[allow(clippy::wrong_self_convention)] // from_uint is a conversion *into* the field
pub trait Fp {
    /// The element representation.
    type Elem: Copy + Clone + PartialEq + Debug;

    /// The additive identity.
    fn zero(&self) -> Self::Elem;

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// Imports an integer (reduced modulo `p` if necessary).
    fn from_uint(&self, v: &U512) -> Self::Elem;

    /// Exports the canonical integer value in `[0, p − 1]`.
    fn to_uint(&self, a: &Self::Elem) -> U512;

    /// Field addition.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Field subtraction.
    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Field multiplication.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Field squaring.
    fn sqr(&self, a: &Self::Elem) -> Self::Elem;

    /// Field negation.
    fn neg(&self, a: &Self::Elem) -> Self::Elem {
        self.sub(&self.zero(), a)
    }

    /// Whether `a` is zero.
    fn is_zero(&self, a: &Self::Elem) -> bool;

    /// Branch-free select: returns `a` when `mask` is all-ones, `b`
    /// when `mask` is zero (used by the constant-time group action's
    /// dummy-isogeny bookkeeping).
    fn select(&self, mask: u64, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;

    /// Fixed-exponent power: the operation sequence depends only on
    /// `exp.bit_length()` (all exponents used by CSIDH are public,
    /// `p`-derived constants).
    fn pow(&self, base: &Self::Elem, exp: &U512) -> Self::Elem {
        let mut acc = self.one();
        for i in (0..exp.bit_length() as usize).rev() {
            acc = self.sqr(&acc);
            if exp.bit(i) == 1 {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }

    /// Multiplicative inverse by Fermat's little theorem
    /// (`a^(p−2) mod p`); returns zero for zero.
    fn inv(&self, a: &Self::Elem) -> Self::Elem {
        self.pow(a, &Csidh512::get().p_minus_2)
    }

    /// Legendre symbol: `1` for a nonzero square, `-1` for a
    /// non-square, `0` for zero. Computed as `a^((p−1)/2)`.
    fn legendre(&self, a: &Self::Elem) -> i32 {
        if self.is_zero(a) {
            return 0;
        }
        let r = self.pow(a, &Csidh512::get().p_minus_1_half);
        if r == self.one() {
            1
        } else {
            -1
        }
    }

    /// Square root for `p ≡ 3 (mod 4)`: `a^((p+1)/4)`. Returns `None`
    /// for non-squares. Which of the two roots is returned is
    /// unspecified.
    fn sqrt(&self, a: &Self::Elem) -> Option<Self::Elem> {
        if self.is_zero(a) {
            return Some(self.zero());
        }
        // (p+1)/4 = ∏ℓᵢ (CSIDH-512: p + 1 = 4·∏ℓᵢ).
        let r = self.pow(a, &Csidh512::get().p_plus_1_quarter);
        if self.sqr(&r) == *a {
            Some(r)
        } else {
            None
        }
    }
}

/// Full-radix host backend: 8 × 64-bit digits, Montgomery domain
/// (§3.1, "full-radix implementation").
///
/// # Examples
///
/// ```
/// use mpise_fp::{Fp, FpFull};
/// use mpise_mpi::U512;
/// let f = FpFull::new();
/// let a = f.from_uint(&U512::from_u64(3));
/// let b = f.from_uint(&U512::from_u64(5));
/// assert_eq!(f.to_uint(&f.mul(&a, &b)), U512::from_u64(15));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FpFull;

impl FpFull {
    /// Creates the backend (parameters are process-wide).
    pub fn new() -> Self {
        FpFull
    }
}

impl Fp for FpFull {
    type Elem = U512;

    fn zero(&self) -> U512 {
        U512::ZERO
    }

    fn one(&self) -> U512 {
        *Csidh512::get().mont.one()
    }

    fn from_uint(&self, v: &U512) -> U512 {
        Csidh512::get().mont.to_mont(v)
    }

    fn to_uint(&self, a: &U512) -> U512 {
        Csidh512::get().mont.from_mont(a)
    }

    fn add(&self, a: &U512, b: &U512) -> U512 {
        fast::mod_add(a, b, &Csidh512::get().p)
    }

    fn sub(&self, a: &U512, b: &U512) -> U512 {
        fast::mod_sub(a, b, &Csidh512::get().p)
    }

    fn mul(&self, a: &U512, b: &U512) -> U512 {
        Csidh512::get().mont.mul(a, b)
    }

    fn sqr(&self, a: &U512) -> U512 {
        Csidh512::get().mont.sqr(a)
    }

    fn is_zero(&self, a: &U512) -> bool {
        a.is_zero()
    }

    fn select(&self, mask: u64, a: &U512, b: &U512) -> U512 {
        let mut out = [0u64; FULL_LIMBS];
        mpise_mpi::ct::select_limbs(mask, a.limbs(), b.limbs(), &mut out);
        U512::from_limbs(out)
    }
}

/// Reduced-radix host backend: 9 × 57-bit limbs, Montgomery domain
/// (§3.1, "reduced-radix implementation"; radix 2^57).
///
/// # Examples
///
/// ```
/// use mpise_fp::{Fp, FpRed};
/// use mpise_mpi::U512;
/// let f = FpRed::new();
/// let a = f.from_uint(&U512::from_u64(7));
/// assert_eq!(f.to_uint(&f.sqr(&a)), U512::from_u64(49));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FpRed;

impl FpRed {
    /// Creates the backend (parameters are process-wide).
    pub fn new() -> Self {
        FpRed
    }
}

impl Fp for FpRed {
    type Elem = Reduced<RED_LIMBS>;

    fn zero(&self) -> Self::Elem {
        Reduced::ZERO
    }

    fn one(&self) -> Self::Elem {
        *Csidh512::get().mont57.one()
    }

    fn from_uint(&self, v: &U512) -> Self::Elem {
        Csidh512::get().mont57.to_mont(&Reduced::from_uint(v))
    }

    fn to_uint(&self, a: &Self::Elem) -> U512 {
        Csidh512::get().mont57.from_mont(a).to_uint::<FULL_LIMBS>()
    }

    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        Csidh512::get().mont57.add(a, b)
    }

    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        Csidh512::get().mont57.sub(a, b)
    }

    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        Csidh512::get().mont57.mul(a, b)
    }

    fn sqr(&self, a: &Self::Elem) -> Self::Elem {
        Csidh512::get().mont57.sqr(a)
    }

    fn is_zero(&self, a: &Self::Elem) -> bool {
        a.is_zero()
    }

    fn select(&self, mask: u64, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        let mut out = [0u64; RED_LIMBS];
        mpise_mpi::ct::select_limbs(mask, a.limbs(), b.limbs(), &mut out);
        Reduced::from_limbs(out)
    }
}

/// Counters for the field operations performed through a
/// [`CountingFp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Additions (including those inside `neg`).
    pub add: u64,
    /// Subtractions.
    pub sub: u64,
    /// Multiplications (including those inside `pow`/`inv`/`legendre`).
    pub mul: u64,
    /// Squarings.
    pub sqr: u64,
}

impl OpCounts {
    /// Total of all counted operations.
    pub fn total(&self) -> u64 {
        self.add + self.sub + self.mul + self.sqr
    }
}

/// An [`Fp`] adapter that counts every field operation.
///
/// `pow`, `inv` and `legendre` are provided methods implemented in
/// terms of `mul`/`sqr`, so their inner operations are counted too —
/// exactly what the group-action cycle estimate needs.
///
/// Counters are relaxed [`AtomicU64`]s, so one wrapper can be shared
/// (by reference or `Arc`) across the engine's worker threads; the
/// counts are exact because every increment is atomic, and relaxed
/// ordering suffices because nothing synchronises *through* the
/// counters — they are read after the workers are joined.
///
/// # Examples
///
/// ```
/// use mpise_fp::{CountingFp, Fp, FpFull};
/// use mpise_mpi::U512;
/// let f = CountingFp::new(FpFull::new());
/// let a = f.from_uint(&U512::from_u64(2));
/// let _ = f.mul(&a, &a);
/// let _ = f.add(&a, &a);
/// assert_eq!(f.counts().mul, 1);
/// assert_eq!(f.counts().add, 1);
/// ```
#[derive(Debug, Default)]
pub struct CountingFp<F> {
    inner: F,
    add: AtomicU64,
    sub: AtomicU64,
    mul: AtomicU64,
    sqr: AtomicU64,
}

impl<F: Clone> Clone for CountingFp<F> {
    /// Clones the backend and a snapshot of the current counts.
    fn clone(&self) -> Self {
        let c = self.counts();
        CountingFp {
            inner: self.inner.clone(),
            add: AtomicU64::new(c.add),
            sub: AtomicU64::new(c.sub),
            mul: AtomicU64::new(c.mul),
            sqr: AtomicU64::new(c.sqr),
        }
    }
}

impl<F> CountingFp<F> {
    /// Wraps a backend.
    pub fn new(inner: F) -> Self {
        CountingFp {
            inner,
            add: AtomicU64::new(0),
            sub: AtomicU64::new(0),
            mul: AtomicU64::new(0),
            sqr: AtomicU64::new(0),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> OpCounts {
        OpCounts {
            add: self.add.load(Ordering::Relaxed),
            sub: self.sub.load(Ordering::Relaxed),
            mul: self.mul.load(Ordering::Relaxed),
            sqr: self.sqr.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.add.store(0, Ordering::Relaxed);
        self.sub.store(0, Ordering::Relaxed);
        self.mul.store(0, Ordering::Relaxed);
        self.sqr.store(0, Ordering::Relaxed);
    }
}

impl<F: Fp> Fp for CountingFp<F> {
    type Elem = F::Elem;

    fn zero(&self) -> Self::Elem {
        self.inner.zero()
    }

    fn one(&self) -> Self::Elem {
        self.inner.one()
    }

    fn from_uint(&self, v: &U512) -> Self::Elem {
        self.inner.from_uint(v)
    }

    fn to_uint(&self, a: &Self::Elem) -> U512 {
        self.inner.to_uint(a)
    }

    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.add.fetch_add(1, Ordering::Relaxed);
        self.inner.add(a, b)
    }

    fn sub(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.sub.fetch_add(1, Ordering::Relaxed);
        self.inner.sub(a, b)
    }

    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.mul.fetch_add(1, Ordering::Relaxed);
        self.inner.mul(a, b)
    }

    fn sqr(&self, a: &Self::Elem) -> Self::Elem {
        self.sqr.fetch_add(1, Ordering::Relaxed);
        self.inner.sqr(a)
    }

    fn is_zero(&self, a: &Self::Elem) -> bool {
        self.inner.is_zero(a)
    }

    fn select(&self, mask: u64, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.inner.select(mask, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_mpi::reference::RefInt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_u512(rng: &mut StdRng) -> U512 {
        U512::from_limbs(std::array::from_fn(|_| rng.gen()))
    }

    fn ref_p() -> RefInt {
        RefInt::from_limbs(Csidh512::get().p.limbs())
    }

    fn check_backend<F: Fp>(f: &F) {
        let mut rng = StdRng::seed_from_u64(42);
        let rp = ref_p();
        for _ in 0..10 {
            let av = random_u512(&mut rng);
            let bv = random_u512(&mut rng);
            let ra = RefInt::from_limbs(av.limbs()).rem(&rp);
            let rb = RefInt::from_limbs(bv.limbs()).rem(&rp);
            let a = f.from_uint(&av);
            let b = f.from_uint(&bv);

            // mul
            let got = f.to_uint(&f.mul(&a, &b));
            assert_eq!(got.limbs().to_vec(), ra.mulmod(&rb, &rp).to_limbs(8));
            // sqr == mul self
            assert_eq!(f.sqr(&a), f.mul(&a, &a));
            // add/sub round trip
            let s = f.add(&a, &b);
            assert_eq!(f.to_uint(&f.sub(&s, &b)), f.to_uint(&a));
            // neg
            assert!(f.is_zero(&f.add(&a, &f.neg(&a))));
        }
    }

    #[test]
    fn full_backend_against_reference() {
        check_backend(&FpFull::new());
    }

    #[test]
    fn red_backend_against_reference() {
        check_backend(&FpRed::new());
    }

    #[test]
    fn backends_agree_with_each_other() {
        let mut rng = StdRng::seed_from_u64(7);
        let full = FpFull::new();
        let red = FpRed::new();
        for _ in 0..10 {
            let av = random_u512(&mut rng);
            let bv = random_u512(&mut rng);
            let f1 = full.to_uint(&full.mul(&full.from_uint(&av), &full.from_uint(&bv)));
            let f2 = red.to_uint(&red.mul(&red.from_uint(&av), &red.from_uint(&bv)));
            assert_eq!(f1, f2);
        }
    }

    #[test]
    fn inversion() {
        let f = FpFull::new();
        let a = f.from_uint(&U512::from_u64(12345));
        let ai = f.inv(&a);
        assert_eq!(f.to_uint(&f.mul(&a, &ai)), U512::ONE);
        assert!(f.is_zero(&f.inv(&f.zero())));
    }

    #[test]
    fn legendre_symbol() {
        let f = FpFull::new();
        // 4 = 2² is always a QR; check -1 characterization via count.
        let four = f.from_uint(&U512::from_u64(4));
        assert_eq!(f.legendre(&four), 1);
        assert_eq!(f.legendre(&f.zero()), 0);
        // A known square times a known square is a square; a nonsquare
        // exists (p ≡ 3 mod 4 means -1 is a nonsquare).
        let m1 = f.neg(&f.one());
        assert_eq!(f.legendre(&m1), -1, "-1 is a non-square for p ≡ 3 mod 4");
        // Squares map to 1 for random elements.
        let mut rng = StdRng::seed_from_u64(3);
        let x = f.from_uint(&random_u512(&mut rng));
        assert_eq!(f.legendre(&f.sqr(&x)), 1);
    }

    #[test]
    fn sqrt_of_squares() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let f = FpFull::new();
            let x = f.from_uint(&random_u512(&mut rng));
            let sq = f.sqr(&x);
            let r = f.sqrt(&sq).expect("a square has a root");
            assert!(f.sqr(&r) == sq);
            // root is ±x
            assert!(r == x || r == f.neg(&x));
        }
        let f = FpRed::new();
        let nine = f.from_uint(&U512::from_u64(9));
        let r = f.sqrt(&nine).unwrap();
        let r = f.to_uint(&r);
        let p = Csidh512::get().p;
        assert!(r == U512::from_u64(3) || r == p.wrapping_sub(&U512::from_u64(3)));
        // -1 is a non-square for p ≡ 3 mod 4.
        assert!(f.sqrt(&f.neg(&f.one())).is_none());
        assert!(f.is_zero(&f.sqrt(&f.zero()).unwrap()));
    }

    #[test]
    fn select_is_branch_free_choice() {
        let f = FpFull::new();
        let a = f.from_uint(&U512::from_u64(5));
        let b = f.from_uint(&U512::from_u64(9));
        assert_eq!(f.select(u64::MAX, &a, &b), a);
        assert_eq!(f.select(0, &a, &b), b);
        let g = FpRed::new();
        let a = g.from_uint(&U512::from_u64(5));
        let b = g.from_uint(&U512::from_u64(9));
        assert_eq!(g.select(u64::MAX, &a, &b), a);
        assert_eq!(g.select(0, &a, &b), b);
    }

    #[test]
    fn pow_edges() {
        let f = FpRed::new();
        let a = f.from_uint(&U512::from_u64(9));
        assert_eq!(f.to_uint(&f.pow(&a, &U512::ZERO)), U512::ONE);
        assert_eq!(
            f.to_uint(&f.pow(&a, &U512::from_u64(3))),
            U512::from_u64(729)
        );
    }

    #[test]
    fn counting_is_exact_across_threads() {
        // One shared wrapper, two worker threads (the engine's worker
        // pool shares a CountingFp for aggregate op stats): atomic
        // counters must not lose increments.
        let f = CountingFp::new(FpFull::new());
        let a = f.from_uint(&U512::from_u64(3));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let _ = f.mul(&a, &a);
                        let _ = f.add(&a, &a);
                        let _ = f.sub(&a, &a);
                        let _ = f.sqr(&a);
                    }
                });
            }
        });
        let c = f.counts();
        assert_eq!(
            (c.mul, c.add, c.sub, c.sqr),
            (1000, 1000, 1000, 1000),
            "relaxed atomic counters must still count exactly"
        );
    }

    #[test]
    fn counting_clone_snapshots_counts() {
        let f = CountingFp::new(FpFull::new());
        let a = f.from_uint(&U512::from_u64(3));
        let _ = f.mul(&a, &a);
        let g = f.clone();
        let _ = f.mul(&a, &a);
        assert_eq!(g.counts().mul, 1, "clone is a snapshot");
        assert_eq!(f.counts().mul, 2);
    }

    #[test]
    fn counting_captures_pow_internals() {
        let f = CountingFp::new(FpFull::new());
        let a = f.from_uint(&U512::from_u64(5));
        let _ = f.inv(&a);
        let c = f.counts();
        // p-2 is 511 bits: one squaring per bit and ~250 muls.
        assert_eq!(c.sqr, 511);
        assert!(c.mul > 200 && c.mul < 320, "mul count {}", c.mul);
        f.reset();
        assert_eq!(f.counts(), OpCounts::default());
    }
}
