//! A deliberately simple arbitrary-precision natural-number
//! implementation used as an independent cross-check in tests.
//!
//! Nothing here is optimized or constant-time; correctness comes from
//! simplicity (schoolbook algorithms, binary long division). The
//! optimized code in [`crate::mul`], [`crate::mont`], [`crate::fast`]
//! and [`crate::reduced`] is validated against this module.

/// An arbitrary-precision natural number (little-endian 64-bit limbs,
/// normalized: no trailing zero limbs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefInt {
    limbs: Vec<u64>,
}

impl RefInt {
    /// The value 0.
    pub fn zero() -> Self {
        RefInt { limbs: vec![] }
    }

    /// The value 1.
    pub fn one() -> Self {
        RefInt { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut r = RefInt { limbs: vec![v] };
        r.normalize();
        r
    }

    /// Constructs from little-endian limbs (trailing zeros allowed).
    pub fn from_limbs(limbs: &[u64]) -> Self {
        let mut r = RefInt {
            limbs: limbs.to_vec(),
        };
        r.normalize();
        r
    }

    /// Returns the value as exactly `n` little-endian limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `n` limbs.
    pub fn to_limbs(&self, n: usize) -> Vec<u64> {
        assert!(self.limbs.len() <= n, "value does not fit in {n} limbs");
        let mut out = self.limbs.clone();
        out.resize(n, 0);
        out
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Whether the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits.
    pub(crate) fn bit_length(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Bit `i` (0 = least significant; out-of-range bits read 0).
    pub(crate) fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 64)
            .is_some_and(|l| (l >> (i % 64)) & 1 == 1)
    }

    /// Comparison.
    pub fn cmp_ref(&self, other: &Self) -> std::cmp::Ordering {
        self.limbs
            .len()
            .cmp(&other.limbs.len())
            .then_with(|| self.limbs.iter().rev().cmp(other.limbs.iter().rev()))
    }

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u128;
        for i in 0..n {
            let t = carry
                + *self.limbs.get(i).unwrap_or(&0) as u128
                + *other.limbs.get(i).unwrap_or(&0) as u128;
            out.push(t as u64);
            carry = t >> 64;
        }
        out.push(carry as u64);
        RefInt::from_limbs(&out)
    }

    /// Subtraction (`self - other`).
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(
            self.cmp_ref(other) != std::cmp::Ordering::Less,
            "reference subtraction would underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let t = self.limbs[i] as i128 - *other.limbs.get(i).unwrap_or(&0) as i128 - borrow;
            if t < 0 {
                out.push((t + (1i128 << 64)) as u64);
                borrow = 1;
            } else {
                out.push(t as u64);
                borrow = 0;
            }
        }
        RefInt::from_limbs(&out)
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return RefInt::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u128 * b as u128 + out[i + j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + other.limbs.len()] = carry as u64;
        }
        RefInt::from_limbs(&out)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return RefInt::zero();
        }
        let (words, bits) = (n / 64, n % 64);
        let mut out = vec![0u64; self.limbs.len() + words + 1];
        for (i, &l) in self.limbs.iter().enumerate() {
            out[i + words] |= l << bits;
            if bits > 0 {
                out[i + words + 1] |= l >> (64 - bits);
            }
        }
        RefInt::from_limbs(&out)
    }

    /// Remainder modulo `m`, by binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &Self) -> Self {
        assert!(!m.is_zero(), "division by zero");
        if self.cmp_ref(m) == std::cmp::Ordering::Less {
            return self.clone();
        }
        let mut r = RefInt::zero();
        for i in (0..self.bit_length()).rev() {
            r = r.shl(1);
            if self.bit(i) {
                r = r.add(&RefInt::one());
            }
            if r.cmp_ref(m) != std::cmp::Ordering::Less {
                r = r.sub(m);
            }
        }
        r
    }

    /// Modular multiplication `self * other mod m`.
    pub fn mulmod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^e mod m` (square-and-multiply).
    pub fn powmod(&self, e: &Self, m: &Self) -> Self {
        let mut result = RefInt::one().rem(m);
        let base = self.rem(m);
        for i in (0..e.bit_length()).rev() {
            result = result.mulmod(&result, m);
            if e.bit(i) {
                result = result.mulmod(&base, m);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let a = RefInt::from_limbs(&[5, 0, 0]);
        assert_eq!(a, RefInt::from_u64(5));
        assert!(RefInt::from_limbs(&[0, 0]).is_zero());
    }

    #[test]
    fn add_sub() {
        let a = RefInt::from_limbs(&[u64::MAX, u64::MAX]);
        let b = RefInt::one();
        let s = a.add(&b);
        assert_eq!(s.to_limbs(3), vec![0, 0, 1]);
        assert_eq!(s.sub(&b), a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        RefInt::one().sub(&RefInt::from_u64(2));
    }

    #[test]
    fn mul_and_shift() {
        let a = RefInt::from_u64(0xffff_ffff_ffff_ffff);
        let sq = a.mul(&a);
        assert_eq!(sq.to_limbs(2), vec![1, u64::MAX - 1]);
        assert_eq!(a.shl(64).to_limbs(2), vec![0, u64::MAX]);
        assert_eq!(a.shl(1).to_limbs(2), vec![u64::MAX - 1, 1]);
    }

    #[test]
    fn rem_small_cases() {
        let a = RefInt::from_u64(100);
        let m = RefInt::from_u64(7);
        assert_eq!(a.rem(&m), RefInt::from_u64(2));
        assert_eq!(RefInt::from_u64(6).rem(&m), RefInt::from_u64(6));
        assert_eq!(RefInt::from_u64(7).rem(&m), RefInt::zero());
    }

    #[test]
    fn rem_multi_limb() {
        // (2^128 - 1) mod (2^64 + 1) : 2^128 ≡ 1, so result is 2^64...
        // compute directly: 2^128-1 = (2^64+1)(2^64-1), so rem = 0.
        let a = RefInt::from_limbs(&[u64::MAX, u64::MAX]);
        let m = RefInt::from_limbs(&[1, 1]);
        assert!(a.rem(&m).is_zero());
    }

    #[test]
    fn powmod_fermat() {
        // 2^(p-1) ≡ 1 mod p for prime p = 1000003.
        let p = RefInt::from_u64(1_000_003);
        let e = RefInt::from_u64(1_000_002);
        assert_eq!(RefInt::from_u64(2).powmod(&e, &p), RefInt::one());
    }

    #[test]
    fn bits() {
        let a = RefInt::from_u64(0b1001);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(3));
        assert!(!a.bit(100));
        assert_eq!(a.bit_length(), 4);
    }
}
