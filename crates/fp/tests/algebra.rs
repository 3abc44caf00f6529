//! Algebraic property tests for the host field backends.
//!
//! Three oracle-independent families:
//!
//! * **inverse laws** — `(a + b) − b = a`, `a + (−a) = 0`, `a − a = 0`
//!   on seeded random elements, both radices;
//! * **schoolbook cross-check** — Montgomery `mul`/`sqr` round-trips
//!   (import → multiply → export) must match a plain `u128`
//!   schoolbook product reduced mod `p`, a path that shares no code
//!   with the Montgomery contexts;
//! * **radix equality** — the full-radix and reduced-radix backends
//!   must agree, byte for byte, on 10 000 seeded random elements per
//!   radix-pair operation.

use mpise_fp::params::{random_residue, Csidh512};
use mpise_fp::{Fp, FpFull, FpRed};
use mpise_mpi::reference::RefInt;
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Schoolbook `a · b mod p` built from `u128` partial products — no
/// Montgomery arithmetic, no mpi multiply routines.
fn schoolbook_mulmod(a: &U512, b: &U512) -> U512 {
    let (al, bl) = (a.limbs(), b.limbs());
    let mut t = [0u64; 16];
    for i in 0..8 {
        let mut carry: u128 = 0;
        for j in 0..8 {
            let acc = t[i + j] as u128 + (al[i] as u128) * (bl[j] as u128) + carry;
            t[i + j] = acc as u64;
            carry = acc >> 64;
        }
        t[i + 8] = carry as u64;
    }
    let p = RefInt::from_limbs(Csidh512::get().p.limbs());
    let r = RefInt::from_limbs(&t).rem(&p);
    U512::from_limbs(r.to_limbs(8).try_into().expect("8 limbs"))
}

fn check_inverse_laws<F: Fp>(f: &F, seed: u64, iters: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let av = random_residue(&mut rng);
        let bv = random_residue(&mut rng);
        let a = f.from_uint(&av);
        let b = f.from_uint(&bv);
        // (a + b) − b = a
        assert_eq!(f.to_uint(&f.sub(&f.add(&a, &b), &b)), av);
        // a + (−a) = 0 and a − a = 0
        assert!(f.is_zero(&f.add(&a, &f.neg(&a))));
        assert!(f.is_zero(&f.sub(&a, &a)));
        // subtraction is addition of the negation
        assert_eq!(f.to_uint(&f.sub(&a, &b)), f.to_uint(&f.add(&a, &f.neg(&b))));
    }
}

#[test]
fn add_sub_inverse_laws_full_radix() {
    check_inverse_laws(&FpFull::new(), 0xA15E, 2_000);
}

#[test]
fn add_sub_inverse_laws_reduced_radix() {
    check_inverse_laws(&FpRed::new(), 0xA15E, 2_000);
}

fn check_schoolbook<F: Fp>(f: &F, seed: u64, iters: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let av = random_residue(&mut rng);
        let bv = random_residue(&mut rng);
        let a = f.from_uint(&av);
        let b = f.from_uint(&bv);
        // import → Montgomery multiply → export == schoolbook mod p
        assert_eq!(f.to_uint(&f.mul(&a, &b)), schoolbook_mulmod(&av, &bv));
        assert_eq!(f.to_uint(&f.sqr(&a)), schoolbook_mulmod(&av, &av));
    }
    // Edges: 0, 1, p−1 in every combination.
    let p = Csidh512::get().p;
    let edges = [U512::ZERO, U512::ONE, p.wrapping_sub(&U512::ONE)];
    for x in &edges {
        for y in &edges {
            let (a, b) = (f.from_uint(x), f.from_uint(y));
            assert_eq!(f.to_uint(&f.mul(&a, &b)), schoolbook_mulmod(x, y));
        }
    }
}

#[test]
fn montgomery_mul_matches_u128_schoolbook_full_radix() {
    check_schoolbook(&FpFull::new(), 0x5C00, 1_000);
}

#[test]
fn montgomery_mul_matches_u128_schoolbook_reduced_radix() {
    check_schoolbook(&FpRed::new(), 0x5C00, 1_000);
}

#[test]
fn full_and_reduced_radix_agree_on_10k_seeded_elements() {
    let full = FpFull::new();
    let red = FpRed::new();
    let mut rng = StdRng::seed_from_u64(0xE0_0A11);
    let mut prev = random_residue(&mut rng);
    for i in 0..10_000usize {
        let cur = random_residue(&mut rng);
        let (fa, fb) = (full.from_uint(&prev), full.from_uint(&cur));
        let (ra, rb) = (red.from_uint(&prev), red.from_uint(&cur));
        // One binary and one unary op per element keeps 10k affordable
        // while covering the whole op set over the run.
        let (gf, gr) = match i % 4 {
            0 => (full.add(&fa, &fb), red.add(&ra, &rb)),
            1 => (full.sub(&fa, &fb), red.sub(&ra, &rb)),
            2 => (full.mul(&fa, &fb), red.mul(&ra, &rb)),
            _ => (full.sqr(&fa), red.sqr(&ra)),
        };
        assert_eq!(
            full.to_uint(&gf).to_le_bytes(),
            red.to_uint(&gr).to_le_bytes(),
            "radix disagreement on element {i}"
        );
        prev = cur;
    }
}
