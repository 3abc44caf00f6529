//! Element-wise field operations over independent lanes, as scalar
//! default methods only.
//!
//! Nothing in this workspace calls [`FpBatch`]. It stays because the
//! two-clock benchmark (`perfbench/`, built as a workspace of its own)
//! implements it for its metering wrapper and bounds its request-mix
//! server on it, and perfbench changes only together with its committed
//! measurements. ROADMAP items 1–2 then delete this module. No backend
//! overrides the defaults: lane batching pays where lanes run in
//! lockstep on SIMT hardware, while on one in-order core a plain loop
//! over the scalar [`Fp`] ops measured as fast (DESIGN.md §10.1).

use crate::backend::{Fp, FpFull, FpRed};

/// Element-wise batched field operations over independent lanes.
///
/// All methods require `a.len() == b.len() == out.len()` (the lane
/// count); they panic on mismatched lengths. Lane `i` of `out` is the
/// scalar [`Fp`] result for lane `i` of the inputs.
pub trait FpBatch: Fp {
    /// Batched field addition: `out[i] = a[i] + b[i]`.
    fn add_n(&self, a: &[Self::Elem], b: &[Self::Elem], out: &mut [Self::Elem]) {
        check_lanes(a.len(), b.len(), out.len());
        for i in 0..out.len() {
            out[i] = self.add(&a[i], &b[i]);
        }
    }

    /// Batched field subtraction: `out[i] = a[i] - b[i]`.
    fn sub_n(&self, a: &[Self::Elem], b: &[Self::Elem], out: &mut [Self::Elem]) {
        check_lanes(a.len(), b.len(), out.len());
        for i in 0..out.len() {
            out[i] = self.sub(&a[i], &b[i]);
        }
    }

    /// Batched field multiplication: `out[i] = a[i] · b[i]`.
    fn mul_n(&self, a: &[Self::Elem], b: &[Self::Elem], out: &mut [Self::Elem]) {
        check_lanes(a.len(), b.len(), out.len());
        for i in 0..out.len() {
            out[i] = self.mul(&a[i], &b[i]);
        }
    }

    /// Batched field squaring: `out[i] = a[i]²`.
    fn sqr_n(&self, a: &[Self::Elem], out: &mut [Self::Elem]) {
        check_lanes(a.len(), a.len(), out.len());
        for i in 0..out.len() {
            out[i] = self.sqr(&a[i]);
        }
    }
}

#[inline]
fn check_lanes(a: usize, b: usize, out: usize) {
    assert!(
        a == b && b == out,
        "mismatched batch lane counts: {a} vs {b} vs {out}"
    );
}

impl FpBatch for FpFull {}

impl FpBatch for FpRed {}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_mpi::U512;

    fn lanes_full(f: &FpFull, n: usize) -> Vec<U512> {
        (0..n)
            .map(|i| f.from_uint(&U512::from_u64(17 * i as u64 + 3)))
            .collect()
    }

    /// `FpFull`'s batch methods (once hand-batched kernels, now the
    /// trait defaults) on small structured lanes, for every lane count
    /// in `1..=32`.
    #[test]
    fn hand_batched_matches_scalar_full() {
        let f = FpFull::new();
        for n in 1..=32 {
            let a = lanes_full(&f, n);
            let b: Vec<U512> = a.iter().rev().copied().collect();
            let mut out = vec![f.zero(); n];
            f.add_n(&a, &b, &mut out);
            assert!((0..n).all(|i| out[i] == f.add(&a[i], &b[i])));
            f.sub_n(&a, &b, &mut out);
            assert!((0..n).all(|i| out[i] == f.sub(&a[i], &b[i])));
            f.mul_n(&a, &b, &mut out);
            assert!((0..n).all(|i| out[i] == f.mul(&a[i], &b[i])));
            f.sqr_n(&a, &mut out);
            assert!((0..n).all(|i| out[i] == f.sqr(&a[i])));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let f = FpRed::new();
        let mut out: Vec<<FpRed as Fp>::Elem> = Vec::new();
        f.mul_n(&[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatched batch lane counts")]
    fn mismatched_lanes_panic() {
        let f = FpFull::new();
        let mut out = vec![f.zero(); 3];
        f.add_n(&[f.one(); 3], &[f.one(); 2], &mut out);
    }
}
