//! Property tests for [`FpBatch`]: every batched operation must agree
//! element-wise with the scalar [`Fp`] operation on both radices. Both
//! backends run the trait's scalar default methods, which any future
//! backend inherits.

use mpise_fp::params::{random_residue, Csidh512};
use mpise_fp::{FpBatch, FpFull, FpRed};
use mpise_mpi::U512;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Maps 512 arbitrary bits into `[0, p)`: mask to 511 bits, then one
/// conditional subtraction (511 bits < 2p).
fn reduce(raw: [u64; 8]) -> U512 {
    let p = &Csidh512::get().p;
    let cand = U512::from_limbs(raw).and(&U512::MAX.shr(1));
    if cand >= *p {
        cand.sbb(p, 0).0
    } else {
        cand
    }
}

/// Checks all four batched operations against the scalar trait on one
/// backend for one set of lane inputs in `[0, p)`.
fn check_ops<F: FpBatch>(f: &F, pairs: &[(U512, U512)]) -> Result<(), TestCaseError> {
    let a: Vec<F::Elem> = pairs.iter().map(|(x, _)| f.from_uint(x)).collect();
    let b: Vec<F::Elem> = pairs.iter().map(|(_, y)| f.from_uint(y)).collect();
    let lanes = pairs.len();
    let mut out = vec![f.zero(); lanes];

    f.add_n(&a, &b, &mut out);
    for i in 0..lanes {
        prop_assert_eq!(f.to_uint(&out[i]), f.to_uint(&f.add(&a[i], &b[i])));
    }
    f.sub_n(&a, &b, &mut out);
    for i in 0..lanes {
        prop_assert_eq!(f.to_uint(&out[i]), f.to_uint(&f.sub(&a[i], &b[i])));
    }
    f.mul_n(&a, &b, &mut out);
    for i in 0..lanes {
        prop_assert_eq!(f.to_uint(&out[i]), f.to_uint(&f.mul(&a[i], &b[i])));
    }
    f.sqr_n(&a, &mut out);
    for i in 0..lanes {
        prop_assert_eq!(f.to_uint(&out[i]), f.to_uint(&f.sqr(&a[i])));
    }
    Ok(())
}

fn lane_pairs() -> impl Strategy<Value = Vec<(U512, U512)>> {
    let limbs = || prop::array::uniform8(any::<u64>());
    prop::collection::vec((limbs(), limbs()), 1..33).prop_map(|raw| {
        raw.into_iter()
            .map(|(x, y)| (reduce(x), reduce(y)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-radix batch methods agree with scalar `FpFull` for random
    /// lane counts in `1..=32`.
    #[test]
    fn full_radix_batch_matches_scalar(pairs in lane_pairs()) {
        check_ops(&FpFull::new(), &pairs)?;
    }

    /// Reduced-radix batch methods agree with scalar `FpRed`.
    #[test]
    fn reduced_radix_batch_matches_scalar(pairs in lane_pairs()) {
        check_ops(&FpRed::new(), &pairs)?;
    }
}

/// The default bodies on the edge residues `0`, `1`, `p − 2` and
/// `p − 1`, every pairing of them in one batch, on both radices.
#[test]
fn default_fallback_matches_scalar() {
    let p = &Csidh512::get().p;
    let edges = [
        U512::ZERO,
        U512::from_u64(1),
        p.sbb(&U512::from_u64(2), 0).0,
        p.sbb(&U512::from_u64(1), 0).0,
    ];
    let pairs: Vec<(U512, U512)> = edges
        .iter()
        .flat_map(|x| edges.iter().map(move |y| (*x, *y)))
        .collect();
    check_ops(&FpFull::new(), &pairs).unwrap();
    check_ops(&FpRed::new(), &pairs).unwrap();
}

/// Every lane count in `1..=32` exactly once (the proptests above draw
/// lane counts randomly; this sweep guarantees none is skipped).
#[test]
fn every_lane_count_agrees_on_all_backends() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_5EED);
    for lanes in 1..=32usize {
        let pairs: Vec<(U512, U512)> = (0..lanes)
            .map(|_| (random_residue(&mut rng), random_residue(&mut rng)))
            .collect();
        check_ops(&FpFull::new(), &pairs).unwrap();
        check_ops(&FpRed::new(), &pairs).unwrap();
    }
}
