//! Montgomery reduction and multiplication for the full-radix
//! representation (§3, "we implemented this operation through
//! Montgomery multiplication, which is a common choice for moduli that
//! do not have a special form").

use crate::fast::mod_add;
use crate::uint::Uint;
use std::fmt;

/// Error returned by [`MontCtx::new`] for unusable moduli.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MontError {
    /// The modulus is even (Montgomery arithmetic needs `gcd(p, 2) = 1`).
    EvenModulus,
    /// The modulus uses the top bit of the top digit, which this
    /// implementation reserves so that `a + b` of two residues cannot
    /// overflow (fast-reduction requirement).
    TopBitSet,
    /// The modulus is zero or one.
    TooSmall,
}

impl fmt::Display for MontError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontError::EvenModulus => write!(f, "modulus must be odd"),
            MontError::TopBitSet => write!(f, "modulus must leave the top bit free"),
            MontError::TooSmall => write!(f, "modulus must be at least 2"),
        }
    }
}

impl std::error::Error for MontError {}

/// Precomputed Montgomery context for an odd modulus `p` with
/// `R = 2^(64·L)`.
///
/// Residues handled by this context are always kept in canonical form
/// `[0, p − 1]`.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{MontCtx, Uint};
/// let p = Uint::<4>::from_u64(1000003);
/// let ctx = MontCtx::new(p).unwrap();
/// let a = ctx.to_mont(&Uint::from_u64(12345));
/// let b = ctx.to_mont(&Uint::from_u64(67890));
/// let c = ctx.mul(&a, &b);
/// assert_eq!(ctx.from_mont(&c), Uint::from_u64(12345 * 67890 % 1000003));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontCtx<const L: usize> {
    p: Uint<L>,
    p_inv: u64,
    r: Uint<L>,
    r2: Uint<L>,
}

/// Computes `-m^{-1} mod 2^64` for odd `m` by Newton iteration
/// (5 steps double the precision from 3 to 96 bits).
pub(crate) fn neg_inv_u64(m: u64) -> u64 {
    debug_assert!(m & 1 == 1, "inverse needs an odd modulus");
    // An odd m is its own inverse mod 8, so the seed is correct to 3 bits.
    let mut inv = m;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    debug_assert_eq!(m.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

impl<const L: usize> MontCtx<L> {
    /// Builds a context for the odd modulus `p`.
    ///
    /// # Errors
    ///
    /// See [`MontError`].
    pub fn new(p: Uint<L>) -> Result<Self, MontError> {
        if !p.is_odd() {
            return Err(MontError::EvenModulus);
        }
        if p.bit(64 * L - 1) == 1 {
            return Err(MontError::TopBitSet);
        }
        if p <= Uint::ONE {
            return Err(MontError::TooSmall);
        }
        let p_inv = neg_inv_u64(p.limb(0));
        // r = 2^(64L) mod p by 64L modular doublings of 1;
        // r2 = 2^(128L) mod p by 64L more.
        let mut v = Uint::ONE;
        for _ in 0..64 * L {
            v = mod_add(&v, &v, &p);
        }
        let r = v;
        for _ in 0..64 * L {
            v = mod_add(&v, &v, &p);
        }
        let r2 = v;
        Ok(MontCtx { p, p_inv, r, r2 })
    }

    /// `-p^{-1} mod 2^64` — the per-digit reduction constant.
    pub fn p_inv(&self) -> u64 {
        self.p_inv
    }

    /// `R mod p`, i.e. the Montgomery form of 1.
    pub fn one(&self) -> &Uint<L> {
        &self.r
    }

    /// `R² mod p`, the to-Montgomery conversion constant.
    #[cfg(test)]
    pub(crate) fn r2(&self) -> &Uint<L> {
        &self.r2
    }

    /// Montgomery reduction: given `t = t_hi·2^(64L) + t_lo < p·R`,
    /// returns `t·R^{-1} mod p` in `[0, p − 1]`.
    ///
    /// Constant time and allocation-free. `t` is reduced in place in a
    /// `[t_lo, t_hi]` stack buffer. Row `i` adds `m_i·p·2^(64i)`, which
    /// clears digit `i`. It then adds its carry-out, plus the `pending`
    /// bit left by row `i − 1`, into digit `i + L`. The one-bit overflow
    /// of that addition becomes the new `pending` and is added one digit
    /// higher by the next row. Every row therefore does the same `L + 1`
    /// word additions whatever the data, with no carry ripple of
    /// data-dependent length. The last `pending` is the `2^(64L)` bit of
    /// the result, which one masked subtraction of `p` folds away.
    ///
    /// This is the operation of the paper's "Montgomery reduction" row
    /// in Table 4.
    pub fn redc(&self, t_lo: &Uint<L>, t_hi: &Uint<L>) -> Uint<L> {
        let mut buf = [*t_lo.limbs(), *t_hi.limbs()];
        let t = buf.as_flattened_mut();
        let mut pending = 0u64;
        for i in 0..L {
            let m = t[i].wrapping_mul(self.p_inv);
            let mut carry = 0u64;
            for j in 0..L {
                let wide = t[i + j] as u128 + m as u128 * self.p.limb(j) as u128 + carry as u128;
                t[i + j] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            (t[i + L], pending) = crate::ct::adc(t[i + L], carry, pending);
        }
        debug_assert!(t[..L].iter().all(|&w| w == 0));

        let r = Uint::from_limbs(buf[1]);
        // Result value is pending·2^(64L) + r < 2p. Subtract p when the
        // value is ≥ p, in constant time.
        let (sub, borrow) = r.sbb(&self.p, 0);
        // If pending == 1 the true value is ≥ 2^(64L) > p: always
        // subtract (the borrow is "paid" by the pending bit). Otherwise
        // subtract only when no borrow occurred.
        let keep_sub = crate::ct::mask_from_bit(pending | (1 - borrow));
        let mut out = [0u64; L];
        crate::ct::select_limbs(keep_sub, sub.limbs(), r.limbs(), &mut out);
        Uint::from_limbs(out)
    }

    /// Montgomery multiplication: `a·b·R^{-1} mod p` for `a < p` and
    /// any `L`-word `b`, canonical in `[0, p − 1]`.
    ///
    /// Integrated form: the Coarsely Integrated Operand Scanning (CIOS)
    /// loop of Koç–Acar–Kaliski, in its no-carry form. Row `i` adds
    /// `a·b_i` and `m·p`, with `m = (t_0 + a_0·b_i)·p' mod 2^64`, to the
    /// `L`-word accumulator `t` and shifts one word down. The two
    /// products run as two carry chains interleaved word by word: word
    /// `j` of `a·b_i` feeds word `j` of `m·p`, which lands in `t_{j−1}`,
    /// and the row's top word is the sum of the two carries. Row `i + 1`
    /// can start once `t_0` is written, long before the row's last
    /// carry, so the two chains and the rows overlap. No overflow word
    /// is needed: with `t < 2p` and `a < p`, the row value
    /// `(t + a·b_i + m·p)/2^64` is at most `2p − 1`, and `2p < R`
    /// because [`MontCtx::new`] rejects a modulus with the top bit set.
    /// One masked subtraction of `p` makes the result canonical. Every
    /// loop has a trip count fixed by `L` and there is no data-dependent
    /// branch.
    ///
    /// Gives the same residue as [`MontCtx::redc`] of
    /// [`mul_ps`](crate::mul::mul_ps), the separated form that the
    /// paper's Table 4 times as two rows.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        debug_assert!(*a < self.p, "the first operand must be below p");
        let mut t = [0u64; L];
        for i in 0..L {
            let bi = b.limb(i);
            let wide = t[0] as u128 + a.limb(0) as u128 * bi as u128;
            let mut c = (wide >> 64) as u64;
            let m = (wide as u64).wrapping_mul(self.p_inv);
            let mut c2 = ((wide as u64 as u128 + m as u128 * self.p.limb(0) as u128) >> 64) as u64;
            for j in 1..L {
                let wide = t[j] as u128 + a.limb(j) as u128 * bi as u128 + c as u128;
                c = (wide >> 64) as u64;
                let wide = wide as u64 as u128 + m as u128 * self.p.limb(j) as u128 + c2 as u128;
                c2 = (wide >> 64) as u64;
                t[j - 1] = wide as u64;
            }
            t[L - 1] = c + c2;
        }
        // t < 2p: one conditional subtraction.
        let r = Uint::from_limbs(t);
        let (sub, borrow) = r.sbb(&self.p, 0);
        let keep_sub = crate::ct::mask_from_bit(1 - borrow);
        let mut out = [0u64; L];
        crate::ct::select_limbs(keep_sub, sub.limbs(), r.limbs(), &mut out);
        Uint::from_limbs(out)
    }

    /// Montgomery squaring: [`MontCtx::mul`] of `a` by itself. On the
    /// host the integrated pass beats the separated
    /// [`square_ps`](crate::mul::square_ps) + [`MontCtx::redc`], even
    /// though that path halves the word products (DESIGN.md §9.8).
    pub fn sqr(&self, a: &Uint<L>) -> Uint<L> {
        self.mul(a, a)
    }

    /// Converts into the Montgomery domain: `a·R mod p`, for any `L`-word
    /// `a` (it is the operand of [`MontCtx::mul`] that need not be below
    /// `p`).
    pub fn to_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.mul(&self.r2, a)
    }

    /// Converts out of the Montgomery domain: `a·R^{-1} mod p`.
    pub fn from_mont(&self, a: &Uint<L>) -> Uint<L> {
        self.redc(a, &Uint::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mul::{mul_ps, square_ps};
    use crate::reference::RefInt;

    type U256 = Uint<4>;

    /// The separated form: product scanning, then [`MontCtx::redc`].
    fn separated_mul(ctx: &MontCtx<4>, a: &U256, b: &U256) -> U256 {
        let (lo, hi) = mul_ps(a, b);
        ctx.redc(&lo, &hi)
    }

    fn p25519() -> U256 {
        U256::from_hex("0x7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap()
    }

    #[test]
    fn rejects_bad_moduli() {
        assert_eq!(
            MontCtx::new(U256::from_u64(4)).unwrap_err(),
            MontError::EvenModulus
        );
        assert_eq!(MontCtx::new(U256::ONE).unwrap_err(), MontError::TooSmall);
        assert_eq!(MontCtx::new(U256::MAX).unwrap_err(), MontError::TopBitSet);
    }

    #[test]
    fn neg_inv_is_correct_for_odd_values() {
        for m in [1u64, 3, 0xffff_ffff_ffff_ffff, 0x1b81_b905_33c6_c87b] {
            let ni = neg_inv_u64(m);
            assert_eq!(m.wrapping_mul(ni), 1u64.wrapping_neg());
        }
    }

    #[test]
    fn constants_match_reference() {
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let r_ref = RefInt::one().shl(256).rem(&rp);
        assert_eq!(ctx.one().limbs().to_vec(), r_ref.to_limbs(4));
        let r2_ref = RefInt::one().shl(512).rem(&rp);
        assert_eq!(ctx.r2().limbs().to_vec(), r2_ref.to_limbs(4));
    }

    #[test]
    fn round_trip_to_from_mont() {
        let ctx = MontCtx::new(p25519()).unwrap();
        for v in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(0xdead_beef),
            p25519().wrapping_sub(&U256::ONE),
        ] {
            assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v);
        }
    }

    #[test]
    fn mul_matches_reference() {
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let a =
            U256::from_hex("0x4fe1a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f")
                .unwrap();
        let b =
            U256::from_hex("0x123456789abcdef0fedcba9876543210deadbeefcafef00d0123456789abcdef")
                .unwrap();
        let am = ctx.to_mont(&a);
        let bm = ctx.to_mont(&b);
        let got = ctx.from_mont(&ctx.mul(&am, &bm));
        let expect = RefInt::from_limbs(a.limbs()).mulmod(&RefInt::from_limbs(b.limbs()), &rp);
        assert_eq!(got.limbs().to_vec(), expect.to_limbs(4));
    }

    #[test]
    fn sqr_equals_separated_squaring() {
        let ctx = MontCtx::new(p25519()).unwrap();
        let a = ctx.to_mont(
            &U256::from_hex("0x3141592653589793238462643383279502884197169399375105820974944592")
                .unwrap(),
        );
        let (lo, hi) = square_ps(&a);
        assert_eq!(ctx.sqr(&a), ctx.redc(&lo, &hi));
    }

    #[test]
    fn redc_handles_maximal_product() {
        // t = (p-1)^2 exercises the pending-carry path.
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let pm1 = p.wrapping_sub(&U256::ONE);
        let m = separated_mul(&ctx, &pm1, &pm1);
        assert!(m < p);
        // (p-1)*(p-1)*R^{-1} mod p -- verify against reference.
        let rp = RefInt::from_limbs(p.limbs());
        // R^{-1} mod p = R^(p-2)? easier: redc(t) * R ≡ t (mod p).
        let lhs = RefInt::from_limbs(m.limbs()).mulmod(&RefInt::one().shl(256), &rp);
        let rhs = RefInt::from_limbs(pm1.limbs()).mulmod(&RefInt::from_limbs(pm1.limbs()), &rp);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cios_equals_separated_form() {
        let ctx = MontCtx::new(p25519()).unwrap();
        let cases = [
            (U256::ZERO, U256::ZERO),
            (U256::ONE, U256::ONE),
            (
                ctx.to_mont(&U256::from_u64(12345)),
                ctx.to_mont(&U256::from_u64(67890)),
            ),
            (
                p25519().wrapping_sub(&U256::ONE),
                p25519().wrapping_sub(&U256::ONE),
            ),
        ];
        for (a, b) in cases {
            assert_eq!(ctx.mul(&a, &b), separated_mul(&ctx, &a, &b), "a={a} b={b}");
        }
    }

    #[test]
    fn cios_randomized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let p = p25519();
        let ctx = MontCtx::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(31337);
        for _ in 0..100 {
            let a = crate::fast::fast_reduce_swap(
                &U256::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1),
                &p,
            );
            let b = crate::fast::fast_reduce_swap(
                &U256::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1),
                &p,
            );
            assert_eq!(ctx.mul(&a, &b), separated_mul(&ctx, &a, &b));
        }
    }

    #[test]
    fn small_modulus_exhaustive() {
        // p = 251 in 1 limb: check all products exhaustively (sampled).
        let p = Uint::<1>::from_u64(251);
        let ctx = MontCtx::new(p).unwrap();
        for a in (0..251u64).step_by(7) {
            for b in (0..251u64).step_by(11) {
                let am = ctx.to_mont(&Uint::from_u64(a));
                let bm = ctx.to_mont(&Uint::from_u64(b));
                let got = ctx.from_mont(&ctx.mul(&am, &bm));
                assert_eq!(got.limb(0), a * b % 251);
            }
        }
    }
}
