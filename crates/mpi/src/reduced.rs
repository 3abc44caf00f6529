//! Reduced-radix (radix-2^57) representation and arithmetic (§3.1).
//!
//! A value is held as `N` limbs of nominally 57 bits each, stored in
//! 64-bit words. The seven spare bits per word let additions *delay*
//! carry propagation: limb values may temporarily grow past 2^57
//! ("lazy" form) and are brought back below 2^57 by a single
//! propagation pass (`Reduced::propagate`), which in the paper costs
//! `srai + add + and` per limb on the base ISA and `sraiadd + and` with
//! the `sraiadd` custom instruction.
//!
//! Subtractions produce limbs that are negative in two's complement;
//! propagation uses an *arithmetic* shift so borrows ripple correctly —
//! this is why the paper's carry-propagation instruction is
//! `sraiadd` (arithmetic) and not a logical-shift fusion.

use crate::ct::{mask_from_bit, select_limbs};
use crate::mont::MontError;
use crate::uint::Uint;
use mpise_core::intrinsics::{madd57hu, madd57lu, sraiadd};
use mpise_core::{REDUCED_RADIX_BITS, REDUCED_RADIX_MASK};
use std::fmt;

/// Limb width in bits (57).
pub(crate) const RADIX_BITS: u32 = REDUCED_RADIX_BITS;
/// Limb mask `2^57 − 1`.
pub const MASK: u64 = REDUCED_RADIX_MASK;

/// A reduced-radix integer of `N` limbs (57 bits per limb nominally).
///
/// # Examples
///
/// ```
/// use mpise_mpi::{Reduced, Uint};
/// let x = Uint::<2>::from_u64(u64::MAX);
/// let r: Reduced<3> = Reduced::from_uint(&x);
/// assert_eq!(r.to_uint::<2>(), x);
/// assert!(r.is_canonical());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reduced<const N: usize> {
    limbs: [u64; N],
}

impl<const N: usize> Reduced<N> {
    /// The value 0.
    pub const ZERO: Self = Reduced { limbs: [0; N] };

    /// The value 1.
    pub const ONE: Self = {
        let mut limbs = [0; N];
        limbs[0] = 1;
        Reduced { limbs }
    };

    /// Total bit capacity in canonical form (`57 · N`).
    pub const BITS: u32 = RADIX_BITS * N as u32;

    /// Constructs from raw limbs (which may be lazy).
    pub const fn from_limbs(limbs: [u64; N]) -> Self {
        Reduced { limbs }
    }

    /// The raw limbs.
    pub const fn limbs(&self) -> &[u64; N] {
        &self.limbs
    }

    /// Limb `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub const fn limb(&self, i: usize) -> u64 {
        self.limbs[i]
    }

    /// Whether every limb is strictly below 2^57 (canonical form).
    pub fn is_canonical(&self) -> bool {
        self.limbs.iter().all(|&l| l <= MASK)
    }

    /// Whether the value is zero (requires canonical form to be
    /// meaningful).
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Converts a full-radix integer into reduced radix (canonical).
    ///
    /// # Panics
    ///
    /// Panics if the value needs more than `57 · N` bits.
    pub fn from_uint<const L: usize>(a: &Uint<L>) -> Self {
        assert!(
            a.bit_length() <= Self::BITS,
            "value of {} bits does not fit {} reduced limbs",
            a.bit_length(),
            N
        );
        let mut limbs = [0u64; N];
        let src = a.limbs();
        for (k, limb) in limbs.iter_mut().enumerate() {
            let bit = RADIX_BITS as usize * k;
            let (word, off) = (bit / 64, bit % 64);
            if word >= L {
                break;
            }
            let mut v = src[word] >> off;
            if off > 64 - RADIX_BITS as usize && word + 1 < L {
                v |= src[word + 1] << (64 - off);
            }
            *limb = v & MASK;
        }
        Reduced { limbs }
    }

    /// Converts back to full radix.
    ///
    /// # Panics
    ///
    /// Panics if the value is not canonical or does not fit `L` digits.
    pub fn to_uint<const L: usize>(&self) -> Uint<L> {
        assert!(self.is_canonical(), "to_uint requires canonical form");
        let mut out = [0u64; L];
        for (k, &limb) in self.limbs.iter().enumerate() {
            let bit = RADIX_BITS as usize * k;
            let (word, off) = (bit / 64, bit % 64);
            if word < L {
                out[word] |= limb << off;
                let spill = if off == 0 { 0 } else { limb >> (64 - off) };
                if spill != 0 {
                    assert!(word + 1 < L, "value does not fit {L} digits");
                    out[word + 1] |= spill;
                }
            } else {
                assert_eq!(limb, 0, "value does not fit {L} digits");
            }
        }
        Uint::from_limbs(out)
    }

    /// Lazy addition: limb-wise, no carry handling. The caller is
    /// responsible for the headroom bookkeeping (each addition grows
    /// limbs by at most one bit).
    pub(crate) fn add_lazy(&self, other: &Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self.limbs[i].wrapping_add(other.limbs[i]);
        }
        Reduced { limbs: out }
    }

    /// Lazy subtraction: limb-wise two's complement; limbs may go
    /// negative and are fixed up by [`Reduced::propagate`]'s arithmetic
    /// shift.
    pub(crate) fn sub_lazy(&self, other: &Self) -> Self {
        let mut out = [0u64; N];
        for i in 0..N {
            out[i] = self.limbs[i].wrapping_sub(other.limbs[i]);
        }
        Reduced { limbs: out }
    }

    /// One-time carry propagation (§3.2): for each limb, the bits above
    /// 57 — interpreted as a *signed* quantity — move into the next
    /// limb. The top limb keeps any overflow/sign; for values in the
    /// expected range it ends canonical (or all-ones-sign for negative
    /// values, which `MontCtx57::reduce_once` exploits).
    ///
    /// This is the `srai/add/and` chain of the paper; with the
    /// `sraiadd` ISE the per-limb cost drops from 3 to 2 instructions.
    pub(crate) fn propagate(&self) -> Self {
        let mut out = self.limbs;
        for i in 0..N - 1 {
            // sraiadd y, y, x, 57 ; and x, x, m
            out[i + 1] = sraiadd(out[i + 1], out[i], RADIX_BITS);
            out[i] &= MASK;
        }
        Reduced { limbs: out }
    }
}

impl<const N: usize> Default for Reduced<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> fmt::Debug for Reduced<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Reduced<{N}>[")?;
        for (i, l) in self.limbs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l:#x}")?;
        }
        write!(f, "]")
    }
}

/// Product-scanning multiplication of canonical reduced-radix values on
/// slices, producing `a.len() + b.len()` canonical 57-bit limbs.
///
/// Written with the `madd57lu`/`madd57hu` intrinsics exactly as the
/// ISE-supported kernel (Listing 4): per partial product, the low 57
/// bits accumulate into `l` and bits 120…57 into `h`; at the end of a
/// column `l` flushes into the result and `h` (plus `l`'s overflow)
/// becomes the next column's `l`.
///
/// # Panics
///
/// Panics if an input limb exceeds 2^57 − 1 or
/// `out.len() != a.len() + b.len()`.
#[inline]
pub fn mul_ps_slices_57(a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), a.len() + b.len());
    assert!(
        a.iter().chain(b).all(|&l| l <= MASK),
        "inputs must be canonical"
    );
    let (mut l, mut h) = (0u64, 0u64);
    for k in 0..out.len() - 1 {
        let lo = k.saturating_sub(b.len() - 1);
        let hi = k.min(a.len() - 1);
        for i in lo..=hi {
            // madd57hu h, a, b, h ; madd57lu l, a, b, l   (Listing 4)
            h = madd57hu(a[i], b[k - i], h);
            l = madd57lu(a[i], b[k - i], l);
        }
        out[k] = l & MASK;
        l = h.wrapping_add(l >> RADIX_BITS);
        h = 0;
    }
    out[a.len() + b.len() - 1] = l;
    debug_assert!(out[a.len() + b.len() - 1] <= MASK);
}

/// Product-scanning squaring in radix 2^57 with the cross products
/// halved: each pair `i < j` is one MAC of `2·a_i < 2^58` by `a_j`, and
/// each diagonal `a_i²` one more, so a square costs `n(n+1)/2` MACs
/// against `n²` for [`mul_ps_slices_57`]. The 7 spare bits per word
/// absorb the doubling; the trip counts depend only on `a.len()`.
///
/// # Panics
///
/// Panics if an input limb exceeds 2^57 − 1 or `out.len() != 2 * a.len()`.
#[inline]
pub fn square_ps_slices_57(a: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), 2 * a.len());
    assert!(a.iter().all(|&l| l <= MASK), "input must be canonical");
    let n = a.len();
    let (mut l, mut h) = (0u64, 0u64);
    for k in 0..out.len() - 1 {
        // Cross pairs i < k − i, each doubled on the way in.
        for i in k.saturating_sub(n - 1)..k.div_ceil(2) {
            h = madd57hu(a[i] << 1, a[k - i], h);
            l = madd57lu(a[i] << 1, a[k - i], l);
        }
        if k % 2 == 0 {
            h = madd57hu(a[k / 2], a[k / 2], h);
            l = madd57lu(a[k / 2], a[k / 2], l);
        }
        out[k] = l & MASK;
        l = h.wrapping_add(l >> RADIX_BITS);
        h = 0;
    }
    out[2 * n - 1] = l;
}

/// `acc + Σ x_i·y_{n−1−i}` over `n = x.len() = y.len()`: one column of
/// a product-scanning multiplication, with `y` read in reverse.
#[inline]
fn mac_rev(mut acc: u128, x: &[u64], y: &[u64]) -> u128 {
    for (&xi, &yj) in x.iter().zip(y.iter().rev()) {
        acc += xi as u128 * yj as u128;
    }
    acc
}

/// The column loop of [`MontCtx57::mul`]: `(a·b + m·p)/R < 2p`.
fn fips_mul<const N: usize>(a: &[u64; N], b: &[u64; N], p: &[u64; N], p_inv: u64) -> [u64; N] {
    let mut buf = [[0u128; N]; 2];
    let ab = buf.as_flattened_mut();
    for k in 0..N {
        ab[k] = mac_rev(0, &a[..=k], &b[..=k]);
    }
    for k in N..2 * N - 1 {
        let lo = k + 1 - N;
        ab[k] = mac_rev(0, &a[lo..], &b[lo..]);
    }
    let mut m = [0u64; N];
    let mut acc: u128 = 0;
    for k in 0..N {
        acc += mac_rev(ab[k], &m[..k], &p[1..=k]);
        m[k] = (acc as u64).wrapping_mul(p_inv) & MASK;
        acc += m[k] as u128 * p[0] as u128;
        debug_assert_eq!(acc as u64 & MASK, 0);
        acc >>= RADIX_BITS;
    }
    let mut out = [0u64; N];
    for k in N..2 * N - 1 {
        let lo = k + 1 - N;
        acc += mac_rev(ab[k], &m[lo..], &p[lo..]);
        out[k - N] = acc as u64 & MASK;
        acc >>= RADIX_BITS;
    }
    out[N - 1] = acc as u64;
    out
}

/// The column loop of [`MontCtx57::sqr`]: `(a² + m·p)/R < 2p`.
fn fips_sqr<const N: usize>(a: &[u64; N], p: &[u64; N], p_inv: u64) -> [u64; N] {
    let mut m = [0u64; N];
    let mut acc: u128 = 0;
    for k in 0..N {
        let (mut sq, mut mp) = (0u128, 0u128);
        for i in 0..N {
            if 2 * i < k {
                sq += (a[i] << 1) as u128 * a[k - i] as u128;
            }
        }
        for i in 0..N {
            if i < k {
                mp += m[i] as u128 * p[k - i] as u128;
            }
        }
        if k % 2 == 0 {
            sq += a[k / 2] as u128 * a[k / 2] as u128;
        }
        acc += sq + mp;
        m[k] = (acc as u64).wrapping_mul(p_inv) & MASK;
        acc += m[k] as u128 * p[0] as u128;
        debug_assert_eq!(acc as u64 & MASK, 0);
        acc >>= RADIX_BITS;
    }
    let mut out = [0u64; N];
    for k in N..2 * N - 1 {
        let (mut sq, mut mp) = (0u128, 0u128);
        for i in 0..N {
            if i > k - N && 2 * i < k {
                sq += (a[i] << 1) as u128 * a[k - i] as u128;
            }
        }
        for i in 0..N {
            if i > k - N {
                mp += m[i] as u128 * p[k - i] as u128;
            }
        }
        if k % 2 == 0 {
            sq += a[k / 2] as u128 * a[k / 2] as u128;
        }
        acc += sq + mp;
        out[k - N] = acc as u64 & MASK;
        acc >>= RADIX_BITS;
    }
    out[N - 1] = acc as u64;
    out
}

/// Computes `-m^{-1} mod 2^57` for odd `m` by Newton iteration
/// (5 steps double the precision from 3 to 96 bits).
pub(crate) fn neg_inv_57(m: u64) -> u64 {
    debug_assert!(m & 1 == 1, "inverse needs an odd modulus");
    // An odd m is its own inverse mod 8, so the seed is correct to 3 bits.
    let mut inv = m;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
    }
    let neg = inv.wrapping_neg() & MASK;
    debug_assert_eq!(m.wrapping_mul(neg) & MASK, MASK, "m·inv ≢ −1 mod 2^57");
    neg
}

/// Montgomery context in reduced radix: `R = 2^(57·N)`.
///
/// The modulus must be odd, and must leave at least one full limb of
/// headroom (`p < 2^(57·(N−1) + 56)`) so that sums of two residues stay
/// canonical — for CSIDH-512, a 511-bit `p` in nine 57-bit limbs
/// (513 bits capacity) satisfies this.
///
/// # Examples
///
/// ```
/// use mpise_mpi::{reduced::MontCtx57, Reduced, Uint};
/// let p = Uint::<2>::from_hex("0x7fffffffffffffffffffffffffffff67").unwrap(); // 127-bit prime
/// let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
/// let a = ctx.to_mont(&Reduced::from_uint(&Uint::<2>::from_u64(1234567)));
/// let b = ctx.to_mont(&Reduced::from_uint(&Uint::<2>::from_u64(89)));
/// let c = ctx.from_mont(&ctx.mul(&a, &b));
/// assert_eq!(c.to_uint::<2>(), Uint::from_u64(1234567 * 89));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontCtx57<const N: usize> {
    p: Reduced<N>,
    p_inv: u64,
    r: Reduced<N>,
    r2: Reduced<N>,
}

impl<const N: usize> MontCtx57<N> {
    /// Builds a context for the odd canonical modulus `p`.
    ///
    /// # Errors
    ///
    /// [`MontError::EvenModulus`] for even moduli,
    /// [`MontError::TopBitSet`] when the top limb leaves no headroom,
    /// [`MontError::TooSmall`] for 0/1.
    pub fn new(p: Reduced<N>) -> Result<Self, MontError> {
        if p.limb(0) & 1 == 0 {
            return Err(MontError::EvenModulus);
        }
        if !p.is_canonical() || p.limb(N - 1) >> (RADIX_BITS - 1) != 0 {
            return Err(MontError::TopBitSet);
        }
        if p.limbs().iter().all(|&l| l <= 1)
            && p.limb(0) <= 1
            && !p.limbs()[1..].iter().any(|&l| l != 0)
        {
            return Err(MontError::TooSmall);
        }
        let p_inv = neg_inv_57(p.limb(0));
        let mut v = Reduced::ONE;
        let mut ctx = MontCtx57 {
            p,
            p_inv,
            r: Reduced::ZERO,
            r2: Reduced::ZERO,
        };
        for _ in 0..RADIX_BITS as usize * N {
            v = ctx.add(&v, &v);
        }
        ctx.r = v;
        for _ in 0..RADIX_BITS as usize * N {
            v = ctx.add(&v, &v);
        }
        ctx.r2 = v;
        Ok(ctx)
    }

    /// The modulus.
    pub fn modulus(&self) -> &Reduced<N> {
        &self.p
    }

    /// `-p^{-1} mod 2^57`.
    pub fn p_inv(&self) -> u64 {
        self.p_inv
    }

    /// Montgomery form of 1 (`R mod p`).
    pub fn one(&self) -> &Reduced<N> {
        &self.r
    }

    /// Modular addition with fast reduction: result canonical in
    /// `[0, p − 1]`. Constant time.
    pub fn add(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical() && b.is_canonical());
        let s = a.add_lazy(b).propagate();
        self.reduce_once(&s)
    }

    /// Modular subtraction: result canonical in `[0, p − 1]`.
    /// Constant time (Algorithm-1 variant with `T ← A − B`).
    pub fn sub(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        let t = a.sub_lazy(b).propagate();
        let m = mask_from_bit((t.limb(N - 1) >> 63) & 1);
        let fix = Reduced::from_limbs(std::array::from_fn(|i| self.p.limb(i) & m));
        t.add_lazy(&fix).propagate()
    }

    /// Modular negation.
    #[cfg(test)]
    pub(crate) fn neg(&self, a: &Reduced<N>) -> Reduced<N> {
        self.sub(&Reduced::ZERO, a)
    }

    /// Fast reduction of a canonical value in `[0, 2p − 1]` to
    /// `[0, p − 1]` — the reduced-radix realization of Algorithm 2
    /// (swap-based; the select replaces the conditional swap).
    pub(crate) fn reduce_once(&self, a: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical());
        let t = a.sub_lazy(&self.p).propagate();
        // Negative iff a < p.
        let m = mask_from_bit((t.limb(N - 1) >> 63) & 1);
        let mut out = [0u64; N];
        select_limbs(m, a.limbs(), t.limbs(), &mut out);
        Reduced::from_limbs(out)
    }

    /// Montgomery reduction of a `2N`-limb canonical product (57-bit
    /// limbs): returns `t·R^{-1} mod p` canonical in `[0, p − 1]`.
    ///
    /// Constant time and allocation-free: the columns accumulate in a
    /// `[[u128; N]; 2]` stack buffer, so each row's products and column
    /// flush are fixed-length and no carry ripples further.
    ///
    /// # Panics
    ///
    /// Panics if `t.len() != 2 * N`.
    pub fn redc(&self, t: &[u64]) -> Reduced<N> {
        assert_eq!(t.len(), 2 * N);
        let mut buf = [[0u128; N]; 2];
        let w = buf.as_flattened_mut();
        for (wi, &ti) in w.iter_mut().zip(t) {
            *wi = ti as u128;
        }
        for i in 0..N {
            let m = (w[i] as u64).wrapping_mul(self.p_inv) & MASK;
            for j in 0..N {
                w[i + j] += m as u128 * self.p.limb(j) as u128;
            }
            // Flush the (now zero mod 2^57) column's carry upward.
            debug_assert_eq!((w[i] as u64) & MASK, 0);
            let c = w[i] >> RADIX_BITS;
            w[i + 1] += c;
            w[i] = 0;
        }
        // Normalize the upper half into 57-bit limbs.
        let mut out = [0u64; N];
        let mut carry: u128 = 0;
        for k in 0..N {
            let v = w[N + k] + carry;
            out[k] = (v as u64) & MASK;
            carry = v >> RADIX_BITS;
        }
        debug_assert_eq!(carry, 0, "redc result exceeds 2p");
        self.reduce_once(&Reduced::from_limbs(out))
    }

    /// Montgomery multiplication: `a·b·R^{-1} mod p` for canonical
    /// residues, canonical in `[0, p − 1]`.
    ///
    /// Integrated form: Finely Integrated Product Scanning (FIPS). The
    /// `2N − 1` column sums `Σ a_i·b_{k−i}` come first, each in its own
    /// `u128` of a `[[u128; N]; 2]` stack buffer, since none of them
    /// depends on the reduction. Column `k < N` then adds the terms
    /// `m_i·p_{k−i}` (`i < k`) to its `a·b` sum and the carry, picks
    /// `m_k = acc·p' mod 2^57` so that adding `m_k·p_0` clears the low
    /// 57 bits, and shifts right by 57. Columns `k ≥ N` emit the result
    /// limbs. No `2N`-limb product is ever formed, and only the `m`
    /// terms wait on the carry. A column holds at most `2N` products
    /// below 2^114 plus a carry below 2^62, so for `N ≤ 16` it stays
    /// below 2^119. The result `(a·b + m·p)/R` is below `2p`, and
    /// `MontCtx57::reduce_once` makes it canonical. Every trip count
    /// depends on `N` only and there is no data-dependent branch.
    ///
    /// Gives the same residue as [`MontCtx57::redc`] of
    /// [`mul_ps_slices_57`], the separated form of the simulated kernels.
    pub fn mul(&self, a: &Reduced<N>, b: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical() && b.is_canonical());
        let out = fips_mul(a.limbs(), b.limbs(), self.p.limbs(), self.p_inv);
        self.reduce_once(&Reduced::from_limbs(out))
    }

    /// Montgomery squaring: [`MontCtx57::mul`] of `a` by itself, with
    /// each cross product `a_i·a_j` (`i < j`) computed once as
    /// `(2·a_i)·a_j` and each diagonal `a_i²` once, so the square half
    /// costs `N(N+1)/2` products (45 against 81 for CSIDH-512).
    /// `2·a_i < 2^58` keeps every column below the same 2^119 bound.
    /// Each column sums its square terms and its `m·p` terms in two
    /// accumulators, each filled by a loop of its own, and adds both to
    /// the carry at the end, so the square terms never wait on the
    /// reduction. The inner loops run
    /// over all `N` limbs and test only the public indices `i` and `k`,
    /// which measured faster than loops whose bounds vary with `k`.
    pub fn sqr(&self, a: &Reduced<N>) -> Reduced<N> {
        debug_assert!(a.is_canonical());
        let out = fips_sqr(a.limbs(), self.p.limbs(), self.p_inv);
        self.reduce_once(&Reduced::from_limbs(out))
    }

    /// Converts to Montgomery form.
    pub fn to_mont(&self, a: &Reduced<N>) -> Reduced<N> {
        let a = self.reduce_once(a);
        self.mul(&a, &self.r2)
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &Reduced<N>) -> Reduced<N> {
        self.redc([*a.limbs(), [0; N]].as_flattened())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefInt;

    type U128x = Uint<2>;

    fn p127() -> U128x {
        // 2^127 - 1 is prime (Mersenne).
        U128x::from_hex("0x7fffffffffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn uint_round_trip() {
        for hex in [
            "0x0",
            "0x1",
            "0xffffffffffffffff",
            "0x123456789abcdef0aabbccdd",
        ] {
            let u = U128x::from_hex(hex).unwrap();
            let r: Reduced<3> = Reduced::from_uint(&u);
            assert!(r.is_canonical());
            assert_eq!(r.to_uint::<2>(), u);
        }
    }

    #[test]
    fn lazy_add_then_propagate() {
        let a: Reduced<3> =
            Reduced::from_uint(&U128x::from_hex("0xffffffffffffffffffffffffffffffff").unwrap());
        let s = a.add_lazy(&a);
        assert!(!s.is_canonical());
        let prop = s.propagate();
        // 2a needs 129 bits, fits 3*57 = 171 bits.
        assert!(prop.is_canonical());
        let expect = RefInt::from_limbs(a.to_uint::<2>().limbs()).shl(1);
        let got: Uint<3> = prop.to_uint();
        assert_eq!(got.limbs().to_vec(), expect.to_limbs(3));
    }

    #[test]
    fn sub_lazy_propagates_borrows_arithmetically() {
        let a: Reduced<3> = Reduced::from_uint(&U128x::from_u64(5));
        let b: Reduced<3> = Reduced::from_uint(&U128x::from_u64(7));
        // A borrow out of the top limb leaves it negative as a signed
        // word.
        let t = a.sub_lazy(&b).propagate();
        assert!((t.limbs[2] as i64) < 0);
        let t2 = b.sub_lazy(&a).propagate();
        assert!((t2.limbs[2] as i64) >= 0);
        assert_eq!(t2.to_uint::<2>(), U128x::from_u64(2));
    }

    #[test]
    fn mul57_matches_reference() {
        let a = U128x::from_hex("0x7edcba9876543210fedcba9876543210").unwrap();
        let b = U128x::from_hex("0x7123456789abcdef0123456789abcdef").unwrap();
        let ra: Reduced<3> = Reduced::from_uint(&a);
        let rb: Reduced<3> = Reduced::from_uint(&b);
        let mut out = [0u64; 6];
        mul_ps_slices_57(ra.limbs(), rb.limbs(), &mut out);
        // Check the value against the schoolbook reference.
        let prod: Uint<6> = Reduced::<6>::from_limbs(out).to_uint();
        let expect = RefInt::from_limbs(a.limbs()).mul(&RefInt::from_limbs(b.limbs()));
        assert_eq!(prod.limbs().to_vec(), expect.to_limbs(6));
    }

    #[test]
    fn square57_matches_mul() {
        let a = U128x::from_hex("0x3243f6a8885a308d313198a2e0370734").unwrap();
        let ra: Reduced<3> = Reduced::from_uint(&a);
        let mut sq = [0u64; 6];
        let mut ml = [0u64; 6];
        square_ps_slices_57(ra.limbs(), &mut sq);
        mul_ps_slices_57(ra.limbs(), ra.limbs(), &mut ml);
        assert_eq!(sq, ml);
    }

    #[test]
    fn neg_inv_57_correct() {
        for m in [1u64, 3, MASK, 0x0012_3456_789a_bcdf_u64 | 1] {
            let ni = neg_inv_57(m & MASK | 1);
            let m = m & MASK | 1;
            assert_eq!(m.wrapping_mul(ni) & MASK, MASK, "m={m:#x}");
        }
    }

    #[test]
    fn mont_mul_matches_reference() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let rp = RefInt::from_limbs(p.limbs());
        let a = U128x::from_hex("0x48d159e26af37bc048d159e26af37bc0").unwrap();
        let b = U128x::from_hex("0x159e26af37bc048d159e26af37bc048d").unwrap();
        let am = ctx.to_mont(&Reduced::from_uint(&a));
        let bm = ctx.to_mont(&Reduced::from_uint(&b));
        let got = ctx.from_mont(&ctx.mul(&am, &bm));
        let expect = RefInt::from_limbs(a.limbs()).mulmod(&RefInt::from_limbs(b.limbs()), &rp);
        assert_eq!(got.to_uint::<2>().limbs().to_vec(), expect.to_limbs(2));
    }

    #[test]
    fn add_sub_round_trip_mod_p() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let a: Reduced<3> =
            Reduced::from_uint(&U128x::from_hex("0x7000000000000000000000000000dead").unwrap());
        let b: Reduced<3> = Reduced::from_uint(&U128x::from_u64(12345));
        let s = ctx.add(&a, &b);
        assert!(s.is_canonical());
        let d = ctx.sub(&s, &b);
        assert_eq!(d.to_uint::<2>(), a.to_uint::<2>());
        // a + (p - a) == 0
        let n = ctx.neg(&a);
        assert!(ctx.add(&a, &n).is_zero());
    }

    #[test]
    fn reduce_once_edges() {
        let p = p127();
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p)).unwrap();
        let pr: Reduced<3> = Reduced::from_uint(&p);
        assert!(ctx.reduce_once(&pr).is_zero());
        let pm1: Reduced<3> = Reduced::from_uint(&p.wrapping_sub(&U128x::ONE));
        assert_eq!(ctx.reduce_once(&pm1), pm1);
        // 2p - 1 reduces to p - 1.
        let two_p_m1 = pr.add_lazy(&pm1).propagate();
        assert_eq!(ctx.reduce_once(&two_p_m1), pm1);
    }

    #[test]
    fn from_mont_of_r_is_one() {
        let ctx = MontCtx57::<3>::new(Reduced::from_uint(&p127())).unwrap();
        assert_eq!(ctx.from_mont(ctx.one()).to_uint::<2>(), U128x::ONE);
    }

    #[test]
    fn rejects_bad_moduli() {
        assert!(MontCtx57::<3>::new(Reduced::from_uint(&U128x::from_u64(4))).is_err());
        // Non-canonical limbs rejected via TopBitSet/canonical check.
        let bad = Reduced::<3>::from_limbs([u64::MAX, 0, 1]);
        assert!(MontCtx57::<3>::new(bad).is_err());
    }
}
