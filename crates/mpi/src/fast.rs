//! Fast modulo-`p` reduction (Algorithms 1 and 2 of the paper) and the
//! modular add/sub built from them.
//!
//! When an operand `A` is known to lie in `[0, 2p − 1]`, a full
//! Montgomery reduction is unnecessary: one conditional subtraction
//! reduces it to `[0, p − 1]`. The paper gives two constant-time
//! realizations and analyses which is cheaper on RISC-V (§3.1):
//!
//! * **addition-based** (Algorithm 1): `R ← (A − P) + (M ∧ P)` — costs
//!   a full carry-propagating addition at the end, which is expensive
//!   without a carry flag;
//! * **swap-based** (Algorithm 2): `R ← T ⊕ (M ∧ (A ⊕ T))` — replaces
//!   the addition with carry-free xors, making it the faster option for
//!   the full-radix RISC-V implementation.
//!
//! Both compute the mask `M ← 0 − SLTU(A, P)` from the borrow of the
//! subtraction.

use crate::ct::mask_from_bit;
use crate::uint::Uint;

/// Algorithm 1: addition-based fast reduction of `a ∈ [0, 2p − 1]` to
/// `[0, p − 1]`. Constant time.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{Uint, fast::fast_reduce_add};
/// let p = Uint::<4>::from_u64(1000003);
/// assert_eq!(fast_reduce_add(&Uint::from_u64(1000005), &p), Uint::from_u64(2));
/// assert_eq!(fast_reduce_add(&Uint::from_u64(42), &p), Uint::from_u64(42));
/// ```
pub fn fast_reduce_add<const L: usize>(a: &Uint<L>, p: &Uint<L>) -> Uint<L> {
    let (t, borrow) = a.sbb(p, 0); // T <- A - P (borrow = SLTU(A, P))
    let m = mask_from_bit(borrow); // M <- 0 - SLTU(A, P)
    let masked = p.mask(m); // M <- M & P
    t.wrapping_add(&masked) // R <- T + M
}

/// Algorithm 2: conditional-swap-based fast reduction of
/// `a ∈ [0, 2p − 1]` to `[0, p − 1]`. Constant time, carry-free final
/// step.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{Uint, fast::fast_reduce_swap};
/// let p = Uint::<4>::from_u64(1000003);
/// assert_eq!(fast_reduce_swap(&Uint::from_u64(2000005), &p), Uint::from_u64(1000002));
/// ```
pub fn fast_reduce_swap<const L: usize>(a: &Uint<L>, p: &Uint<L>) -> Uint<L> {
    let (t, borrow) = a.sbb(p, 0); // T <- A - P
    let m = mask_from_bit(borrow); // M <- 0 - SLTU(A, P)
    let masked = a.xor(&t).mask(m); // M <- M & (A ^ T)
    t.xor(&masked) // R <- T ^ M
}

/// Modular addition `a + b mod p` for `a, b ∈ [0, p − 1]`: the sum,
/// taken from `[0, 2p − 2]` to `[0, p − 1]` by Algorithm 2
/// ([`fast_reduce_swap`]).
///
/// Requires `p < 2^(64·L − 1)` so the intermediate sum cannot overflow
/// the digit count — true for CSIDH-512 (511-bit `p` in 512 bits).
pub fn mod_add<const L: usize>(a: &Uint<L>, b: &Uint<L>, p: &Uint<L>) -> Uint<L> {
    debug_assert!(p.bit(64 * L - 1) == 0, "top bit of p must be free");
    let sum = a.wrapping_add(b); // cannot overflow: a, b < p < 2^(64L-1)
    fast_reduce_swap(&sum, p)
}

/// Modular subtraction `a − b mod p` for `a, b ∈ [0, p − 1]`: the
/// Algorithm-1 variant with `T ← A − B` (the mask then conditionally
/// adds `p` back), as described in §3.1.
pub fn mod_sub<const L: usize>(a: &Uint<L>, b: &Uint<L>, p: &Uint<L>) -> Uint<L> {
    let (t, borrow) = a.sbb(b, 0);
    let m = mask_from_bit(borrow);
    t.wrapping_add(&p.mask(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefInt;

    type U256 = Uint<4>;

    fn p256() -> U256 {
        // A 255-bit prime (2^255 - 19) leaves the top bit free.
        U256::from_hex("0x7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap()
    }

    #[test]
    fn both_algorithms_agree_on_range_edges() {
        let p = p256();
        let two_p_minus_1 = p.wrapping_add(&p).wrapping_sub(&U256::ONE);
        for a in [
            U256::ZERO,
            U256::ONE,
            p.wrapping_sub(&U256::ONE),
            p,
            p.wrapping_add(&U256::ONE),
            two_p_minus_1,
        ] {
            let r1 = fast_reduce_add(&a, &p);
            let r2 = fast_reduce_swap(&a, &p);
            assert_eq!(r1, r2, "a={a}");
            let expect = RefInt::from_limbs(a.limbs()).rem(&RefInt::from_limbs(p.limbs()));
            assert_eq!(r1.limbs().to_vec(), expect.to_limbs(4), "a={a}");
            assert!(r1 < p);
        }
    }

    #[test]
    fn mod_add_matches_reference() {
        let p = p256();
        let rp = RefInt::from_limbs(p.limbs());
        let cases = [
            (U256::ZERO, U256::ZERO),
            (p.wrapping_sub(&U256::ONE), p.wrapping_sub(&U256::ONE)),
            (
                U256::from_hex("0x123456789abcdef0123456789abcdef").unwrap(),
                p.wrapping_sub(&U256::from_u64(1)),
            ),
        ];
        for (a, b) in cases {
            let got = mod_add(&a, &b, &p);
            let expect = RefInt::from_limbs(a.limbs())
                .add(&RefInt::from_limbs(b.limbs()))
                .rem(&rp);
            assert_eq!(got.limbs().to_vec(), expect.to_limbs(4));
        }
    }

    #[test]
    fn mod_sub_matches_reference() {
        let p = p256();
        let rp = RefInt::from_limbs(p.limbs());
        let a = U256::from_u64(5);
        let b = U256::from_u64(9);
        let got = mod_sub(&a, &b, &p);
        // 5 - 9 mod p = p - 4
        let expect = rp.sub(&RefInt::from_u64(4));
        assert_eq!(got.limbs().to_vec(), expect.to_limbs(4));
        // and the easy direction
        assert_eq!(mod_sub(&b, &a, &p), U256::from_u64(4));
    }

    #[test]
    fn subtraction_variant_is_fp_sub() {
        // §3.1: "A variant of Algorithm 1, where line 1 is modified to
        // T = A − B ... can be used for Fp-subtraction."
        let p = p256();
        let a = U256::from_u64(100);
        let b = U256::from_u64(250);
        let r = mod_sub(&a, &b, &p);
        assert_eq!(mod_add(&r, &b, &p), a);
    }
}
