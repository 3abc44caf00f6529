//! MPI multiplication and squaring by product scanning (§3.1,
//! "High-level techniques").
//!
//! The paper found product scanning more efficient than Karatsuba on
//! RV64GC and used it everywhere. The claim is re-checked on the
//! pipeline model by the one-level Karatsuba kernel of
//! `mpise_fp::kernels::ablation` (the `ablation` binary).
//!
//! The central building block is the Multiply-and-ACcumulate (MAC)
//! operation `S ← S + a·b` on a 192-bit accumulator `(e ‖ h ‖ l)` —
//! [`Acc192`] mirrors Listing 1 word for word.

use crate::uint::Uint;

/// The 192-bit accumulator `(e ‖ h ‖ l)` of the full-radix MAC
/// (Listing 1).
///
/// # Examples
///
/// ```
/// use mpise_mpi::mul::Acc192;
/// let mut s = Acc192::ZERO;
/// s.mac(u64::MAX, u64::MAX); // accumulate (2^64-1)^2
/// s.mac(u64::MAX, u64::MAX);
/// let (l, h, e) = (s.l, s.h, s.e);
/// // 2 * (2^64-1)^2 = 2^129 - 2^66 + 2
/// assert_eq!((e, h, l), (1, 0xffff_ffff_ffff_fffc, 2));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc192 {
    /// Low word.
    pub l: u64,
    /// Middle word.
    pub h: u64,
    /// High (overflow) word.
    pub e: u64,
}

impl Acc192 {
    /// The zero accumulator.
    pub const ZERO: Self = Acc192 { l: 0, h: 0, e: 0 };

    /// `S ← S + a·b`, computed exactly like Listing 1:
    /// `mulhu`/`mul`/`add`/`sltu`/`add`/`add`/`sltu`/`add`.
    #[inline]
    pub fn mac(&mut self, a: u64, b: u64) {
        let z = ((a as u128 * b as u128) >> 64) as u64; // mulhu z, a, b
        let y = a.wrapping_mul(b); // mul y, a, b
        let l = self.l.wrapping_add(y); // add l, l, y
        let y = (l < y) as u64; // sltu y, l, y
        let z = z.wrapping_add(y); // add z, z, y  (cannot overflow)
        let h = self.h.wrapping_add(z); // add h, h, z
        let z = (h < z) as u64; // sltu z, h, z
        let e = self.e.wrapping_add(z); // add e, e, z
        *self = Acc192 { l, h, e };
    }

    /// Shifts the accumulator right by one word, returning the low word
    /// — the per-column step of product scanning (`r_k ← l; l ← h;
    /// h ← e; e ← 0`).
    #[inline]
    pub fn shift_out(&mut self) -> u64 {
        let out = self.l;
        self.l = self.h;
        self.h = self.e;
        self.e = 0;
        out
    }
}

/// Product-scanning (column-wise / Comba) multiplication on slices:
/// `out[..a.len()+b.len()] ← a · b`.
///
/// # Panics
///
/// Panics if `out.len() != a.len() + b.len()`.
#[inline]
pub fn mul_ps_slices(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    let mut acc = Acc192::ZERO;
    for k in 0..out.len() {
        let lo = k.saturating_sub(b.len() - 1);
        let hi = k.min(a.len() - 1);
        let mut i = lo;
        while i <= hi {
            acc.mac(a[i], b[k - i]);
            i += 1;
        }
        out[k] = acc.shift_out();
    }
}

/// Product-scanning squaring on slices with the cross products halved:
/// each `a_i·a_j` (i<j) is multiplied once into an off-diagonal
/// triangle, the triangle is doubled by a one-bit shift, and the
/// diagonal squares `a_i²` are added in the same pass — `n(n+1)/2`
/// word products in all, against `n²` for a general multiplication.
/// The trip counts depend only on `a.len()`.
///
/// # Panics
///
/// Panics if `out.len() != 2 * a.len()`.
#[inline]
pub fn square_ps_slices(a: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), 2 * a.len());
    let n = a.len();
    // Off-diagonal triangle Σ_{i<j} a_i·a_j, column by column: column k
    // holds the pairs i < k − i.
    let mut acc = Acc192::ZERO;
    for k in 0..out.len() {
        for i in k.saturating_sub(n - 1)..k.div_ceil(2) {
            acc.mac(a[i], a[k - i]);
        }
        out[k] = acc.shift_out();
    }
    // out ← 2·out + Σ a_i²·2^(128i). The triangle is below a²/2, so the
    // shift loses no bit and the final carry is zero.
    let (mut shifted, mut carry) = (0u64, 0u64);
    for i in 0..n {
        let sq = a[i] as u128 * a[i] as u128;
        for (k, half) in [(2 * i, sq as u64), (2 * i + 1, (sq >> 64) as u64)] {
            let doubled = out[k] << 1 | shifted;
            shifted = out[k] >> 63;
            (out[k], carry) = crate::ct::adc(doubled, half, carry);
        }
    }
    debug_assert_eq!((shifted, carry), (0, 0));
}

/// Runs a slice multiplier on a `[[u64; L]; 2]` stack buffer and
/// returns the `(low, high)` halves of its `2L`-digit result.
fn halves<const L: usize>(fill: impl FnOnce(&mut [u64])) -> (Uint<L>, Uint<L>) {
    let mut out = [[0u64; L]; 2];
    fill(out.as_flattened_mut());
    let [lo, hi] = out;
    (Uint::from_limbs(lo), Uint::from_limbs(hi))
}

/// Product-scanning multiplication: returns `(low, high)` halves of the
/// `2L`-digit product.
pub fn mul_ps<const L: usize>(a: &Uint<L>, b: &Uint<L>) -> (Uint<L>, Uint<L>) {
    halves(|out| mul_ps_slices(a.limbs(), b.limbs(), out))
}

/// Product-scanning squaring: returns `(low, high)`.
pub fn square_ps<const L: usize>(a: &Uint<L>) -> (Uint<L>, Uint<L>) {
    halves(|out| square_ps_slices(a.limbs(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefInt;

    type U256 = Uint<4>;

    fn check_against_reference(a: U256, b: U256) {
        let ra = RefInt::from_limbs(a.limbs());
        let rb = RefInt::from_limbs(b.limbs());
        let expect = ra.mul(&rb).to_limbs(8);

        let (lo, hi) = mul_ps(&a, &b);
        let mut got = lo.limbs().to_vec();
        got.extend_from_slice(hi.limbs());
        assert_eq!(got, expect, "a={a} b={b}");
    }

    #[test]
    fn small_products() {
        check_against_reference(U256::from_u64(6), U256::from_u64(7));
        check_against_reference(U256::ZERO, U256::MAX);
        check_against_reference(U256::ONE, U256::MAX);
    }

    #[test]
    fn max_times_max() {
        check_against_reference(U256::MAX, U256::MAX);
    }

    #[test]
    fn mixed_patterns() {
        let a =
            U256::from_hex("0xdeadbeefcafef00d_0123456789abcdef_fedcba9876543210_ffffffffffffffff")
                .unwrap();
        let b = U256::from_hex("0x1_0000000000000000_ffffffffffffffff_8000000000000000").unwrap();
        check_against_reference(a, b);
        check_against_reference(b, a);
    }

    #[test]
    fn squaring_matches_multiplication() {
        for hex in [
            "0x3",
            "0xffffffffffffffff",
            "0xdeadbeefcafef00d_0123456789abcdef_fedcba9876543210_ffffffffffffffff",
        ] {
            let a = U256::from_hex(hex).unwrap();
            assert_eq!(square_ps(&a), mul_ps(&a, &a), "a={a}");
        }
    }

    #[test]
    fn halved_squaring_matches_product_on_every_length() {
        // All-ones digits put a carry into every doubled word.
        for n in 1..=9 {
            let a = vec![u64::MAX; n];
            let (mut sq, mut ml) = (vec![0u64; 2 * n], vec![0u64; 2 * n]);
            square_ps_slices(&a, &mut sq);
            mul_ps_slices(&a, &a, &mut ml);
            assert_eq!(sq, ml, "n={n}");
        }
    }

    #[test]
    fn acc192_tracks_wide_sum() {
        let mut acc = Acc192::ZERO;
        // 100 accumulations of the max partial product exercise e.
        for _ in 0..100 {
            acc.mac(u64::MAX, u64::MAX);
        }
        // Reference with 256-bit arithmetic via RefInt.
        let p = RefInt::from_limbs(&[1, u64::MAX - 1]); // (2^64-1)^2
        let mut total = RefInt::zero();
        for _ in 0..100 {
            total = total.add(&p);
        }
        let limbs = total.to_limbs(3);
        assert_eq!((acc.l, acc.h, acc.e), (limbs[0], limbs[1], limbs[2]));
    }

    #[test]
    fn mac_instruction_count_is_eight() {
        // Listing 1 uses exactly 8 instructions; Acc192::mac mirrors it
        // 1:1. This is verified against the generated kernels in
        // mpise-fp; here we pin the arithmetic identity S' = S + a*b.
        let mut acc = Acc192 { l: 5, h: 6, e: 7 };
        acc.mac(0x1234_5678_9abc_def0, 0x0fed_cba9_8765_4321);
        let s0 = 7u128 << 64 | 6u128; // e||h
        let p = 0x1234_5678_9abc_def0u128 * 0x0fed_cba9_8765_4321u128;
        let l = 5u128 + (p & u64::MAX as u128);
        let hi = s0 + (p >> 64) + (l >> 64);
        assert_eq!(acc.l, l as u64);
        assert_eq!(acc.h, hi as u64);
        assert_eq!(acc.e, (hi >> 64) as u64);
    }

    #[test]
    fn asymmetric_slice_lengths() {
        let a = [u64::MAX, u64::MAX, u64::MAX];
        let b = [u64::MAX];
        let mut out = [0u64; 4];
        mul_ps_slices(&a, &b, &mut out);
        let ra = RefInt::from_limbs(&a).mul(&RefInt::from_limbs(&b));
        assert_eq!(out.to_vec(), ra.to_limbs(4));
    }
}
