//! Full-radix (radix-2^64) unsigned integers of a fixed digit count.

use crate::ct::{adc, sbb};
use std::cmp::Ordering;
use std::fmt;

/// An unsigned integer of `L` 64-bit digits, little-endian
/// (digit 0 is least significant) — the full-radix representation of
/// §3.1.
///
/// Arithmetic methods expose carries and borrows explicitly so that
/// higher layers can build exactly the operation sequences the paper's
/// kernels use.
///
/// # Examples
///
/// ```
/// use mpise_mpi::Uint;
/// let a = Uint::<4>::from_u64(10);
/// let b = Uint::<4>::from_u64(32);
/// let (sum, carry) = a.adc(&b, 0);
/// assert_eq!(sum, Uint::from_u64(42));
/// assert_eq!(carry, 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize> {
    limbs: [u64; L],
}

impl<const L: usize> Uint<L> {
    /// The value 0.
    pub const ZERO: Self = Uint { limbs: [0; L] };

    /// The value 1.
    pub const ONE: Self = {
        let mut limbs = [0; L];
        limbs[0] = 1;
        Uint { limbs }
    };

    /// The maximum representable value, `2^(64·L) − 1`.
    pub const MAX: Self = Uint {
        limbs: [u64::MAX; L],
    };

    /// Width in bits.
    pub const BITS: u32 = 64 * L as u32;

    /// Constructs from little-endian digits.
    pub const fn from_limbs(limbs: [u64; L]) -> Self {
        Uint { limbs }
    }

    /// Constructs from a single 64-bit value.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0; L];
        limbs[0] = v;
        Uint { limbs }
    }

    /// The little-endian digits.
    pub const fn limbs(&self) -> &[u64; L] {
        &self.limbs
    }

    /// Digit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= L`.
    pub const fn limb(&self, i: usize) -> u64 {
        self.limbs[i]
    }

    /// Parses a (big-endian) hexadecimal string, with or without a
    /// `0x` prefix and with optional `_` separators.
    ///
    /// # Errors
    ///
    /// Returns a message when the string is empty, contains a non-hex
    /// character, or does not fit in `L` digits.
    pub fn from_hex(s: &str) -> Result<Self, String> {
        let s = s.trim().trim_start_matches("0x");
        let digits: Vec<u8> = s
            .bytes()
            .filter(|&b| b != b'_')
            .map(|b| match b {
                b'0'..=b'9' => Ok(b - b'0'),
                b'a'..=b'f' => Ok(b - b'a' + 10),
                b'A'..=b'F' => Ok(b - b'A' + 10),
                _ => Err(format!("invalid hex character `{}`", b as char)),
            })
            .collect::<Result<_, _>>()?;
        if digits.is_empty() {
            return Err("empty hex string".to_owned());
        }
        if digits.len() > L * 16 {
            return Err(format!(
                "hex value has {} digits, more than the {} that fit in {} limbs",
                digits.len(),
                L * 16,
                L
            ));
        }
        let mut limbs = [0u64; L];
        for (i, &d) in digits.iter().rev().enumerate() {
            limbs[i / 16] |= (d as u64) << (4 * (i % 16));
        }
        Ok(Uint { limbs })
    }

    /// Renders as lower-case big-endian hex with a `0x` prefix
    /// (full width, zero-padded).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(2 + 16 * L);
        s.push_str("0x");
        for l in self.limbs.iter().rev() {
            s.push_str(&format!("{l:016x}"));
        }
        s
    }

    /// Serializes to little-endian bytes.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.limbs.iter().flat_map(|l| l.to_le_bytes()).collect()
    }

    /// Deserializes from little-endian bytes.
    ///
    /// # Errors
    ///
    /// Returns a message when `bytes.len() != 8 * L`.
    pub fn from_le_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() != 8 * L {
            return Err(format!("expected {} bytes, got {}", 8 * L, bytes.len()));
        }
        let mut limbs = [0u64; L];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
        }
        Ok(Uint { limbs })
    }

    /// Whether the value is zero (not constant time).
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Whether the value is odd.
    pub const fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64 * L`.
    pub const fn bit(&self, i: usize) -> u64 {
        (self.limbs[i / 64] >> (i % 64)) & 1
    }

    /// Index of the highest set bit plus one (0 for the value 0).
    pub fn bit_length(&self) -> u32 {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return 64 * i as u32 + 64 - l.leading_zeros();
            }
        }
        0
    }

    /// Addition with carry-in; returns `(sum mod 2^(64·L), carry_out)`.
    /// Constant time.
    pub fn adc(&self, other: &Self, mut carry: u64) -> (Self, u64) {
        let mut out = [0u64; L];
        for i in 0..L {
            let (s, c) = adc(self.limbs[i], other.limbs[i], carry);
            out[i] = s;
            carry = c;
        }
        (Uint { limbs: out }, carry)
    }

    /// Subtraction with borrow-in; returns
    /// `(difference mod 2^(64·L), borrow_out)`. Constant time.
    pub fn sbb(&self, other: &Self, mut borrow: u64) -> (Self, u64) {
        let mut out = [0u64; L];
        for i in 0..L {
            let (d, b) = sbb(self.limbs[i], other.limbs[i], borrow);
            out[i] = d;
            borrow = b;
        }
        (Uint { limbs: out }, borrow)
    }

    /// Wrapping addition.
    pub fn wrapping_add(&self, other: &Self) -> Self {
        self.adc(other, 0).0
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(&self, other: &Self) -> Self {
        self.sbb(other, 0).0
    }

    /// Bit-wise and.
    pub fn and(&self, other: &Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] & other.limbs[i];
        }
        Uint { limbs: out }
    }

    /// Bit-wise or.
    pub fn or(&self, other: &Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] | other.limbs[i];
        }
        Uint { limbs: out }
    }

    /// Bit-wise exclusive or.
    pub fn xor(&self, other: &Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] ^ other.limbs[i];
        }
        Uint { limbs: out }
    }

    /// Masks every limb with `mask` (0 or all-ones) — the `M ∧ P` step
    /// of Algorithm 1.
    pub fn mask(&self, mask: u64) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] & mask;
        }
        Uint { limbs: out }
    }

    /// Logical right shift by `n` bits (`n < 64·L`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 64 * L`.
    pub fn shr(&self, n: u32) -> Self {
        assert!((n as usize) < 64 * L);
        let (words, bits) = ((n / 64) as usize, n % 64);
        let mut out = [0u64; L];
        for i in 0..L - words {
            let mut v = self.limbs[i + words] >> bits;
            if bits > 0 && i + words + 1 < L {
                v |= self.limbs[i + words + 1] << (64 - bits);
            }
            out[i] = v;
        }
        Uint { limbs: out }
    }

    /// Logical left shift by `n` bits (`n < 64·L`).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 64 * L`.
    pub fn shl(&self, n: u32) -> Self {
        assert!((n as usize) < 64 * L);
        let (words, bits) = ((n / 64) as usize, n % 64);
        let mut out = [0u64; L];
        for i in (words..L).rev() {
            let mut v = self.limbs[i - words] << bits;
            if bits > 0 && i > words {
                v |= self.limbs[i - words - 1] >> (64 - bits);
            }
            out[i] = v;
        }
        Uint { limbs: out }
    }
}

impl<const L: usize> Default for Uint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> From<u64> for Uint<L> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl<const L: usize> std::ops::BitAnd for Uint<L> {
    type Output = Uint<L>;

    fn bitand(self, rhs: Uint<L>) -> Uint<L> {
        self.and(&rhs)
    }
}

impl<const L: usize> std::ops::BitOr for Uint<L> {
    type Output = Uint<L>;

    fn bitor(self, rhs: Uint<L>) -> Uint<L> {
        self.or(&rhs)
    }
}

impl<const L: usize> std::ops::BitXor for Uint<L> {
    type Output = Uint<L>;

    fn bitxor(self, rhs: Uint<L>) -> Uint<L> {
        self.xor(&rhs)
    }
}

impl<const L: usize> std::ops::Not for Uint<L> {
    type Output = Uint<L>;

    fn not(self) -> Uint<L> {
        self.xor(&Uint::MAX)
    }
}

impl<const L: usize> std::ops::Shl<u32> for Uint<L> {
    type Output = Uint<L>;

    /// Logical left shift; see [`Uint::shl`].
    fn shl(self, n: u32) -> Uint<L> {
        Uint::shl(&self, n)
    }
}

impl<const L: usize> std::ops::Shr<u32> for Uint<L> {
    type Output = Uint<L>;

    /// Logical right shift; see [`Uint::shr`].
    fn shr(self, n: u32) -> Uint<L> {
        Uint::shr(&self, n)
    }
}

impl<const L: usize> fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint<{L}>({})", self.to_hex())
    }
}

impl<const L: usize> fmt::Display for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl<const L: usize> fmt::LowerHex for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_hex().trim_start_matches("0x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U256 = Uint<4>;

    #[test]
    fn constants() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ONE.limb(0), 1);
        assert!(!U256::ONE.is_zero());
        assert!(U256::ONE.is_odd());
        assert_eq!(U256::BITS, 256);
    }

    #[test]
    fn hex_round_trip() {
        let h = "0x0123456789abcdef_fedcba9876543210_0011223344556677_8899aabbccddeeff";
        let v = U256::from_hex(h).unwrap();
        assert_eq!(v.limb(0), 0x8899aabbccddeeff);
        assert_eq!(v.limb(3), 0x0123456789abcdef);
        let v2 = U256::from_hex(&v.to_hex()).unwrap();
        assert_eq!(v, v2);
    }

    #[test]
    fn hex_short_strings_pad() {
        let v = U256::from_hex("ff").unwrap();
        assert_eq!(v, U256::from_u64(255));
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("xyz").is_err());
        // 65 hex digits do not fit in 4 limbs
        let too_long = "1".repeat(65);
        assert!(U256::from_hex(&too_long).is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let v = U256::from_hex("0xdeadbeefcafef00d").unwrap();
        let b = v.to_le_bytes();
        assert_eq!(b.len(), 32);
        assert_eq!(U256::from_le_bytes(&b).unwrap(), v);
        assert!(U256::from_le_bytes(&b[1..]).is_err());
    }

    #[test]
    fn add_sub_with_carries() {
        let (s, c) = U256::MAX.adc(&U256::ONE, 0);
        assert_eq!(s, U256::ZERO);
        assert_eq!(c, 1);
        let (d, b) = U256::ZERO.sbb(&U256::ONE, 0);
        assert_eq!(d, U256::MAX);
        assert_eq!(b, 1);
        let (s, c) = U256::from_u64(20).adc(&U256::from_u64(22), 0);
        assert_eq!((s, c), (U256::from_u64(42), 0));
    }

    #[test]
    fn add_then_sub_round_trips() {
        let a = U256::from_hex("0x123456789abcdef0123456789abcdef0").unwrap();
        let b = U256::from_hex("0xfedcba9876543210fedcba9876543210").unwrap();
        let (s, _) = a.adc(&b, 0);
        let (d, borrow) = s.sbb(&b, 0);
        assert_eq!(d, a);
        assert_eq!(borrow, 0);
    }

    #[test]
    fn comparisons() {
        let a = U256::from_u64(5);
        let b = U256::from_u64(6);
        assert!(a < b);
        assert_ne!(a, b);
        let hi = U256::from_limbs([0, 0, 0, 1]);
        assert!(b < hi);
    }

    #[test]
    fn shifts() {
        let v = U256::from_u64(1);
        assert_eq!(v.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(v.shl(65), U256::from_limbs([0, 2, 0, 0]));
        assert_eq!(v.shl(255).shr(255), v);
        let w = U256::from_hex("0x8000000000000000_0000000000000000").unwrap();
        assert_eq!(w.shr(127), U256::ONE);
        assert_eq!(U256::MAX.shr(1).bit_length(), 255);
    }

    #[test]
    fn bits() {
        let v = U256::from_u64(0b1010);
        assert_eq!(v.bit(0), 0);
        assert_eq!(v.bit(1), 1);
        assert_eq!(v.bit(3), 1);
        assert_eq!(v.bit_length(), 4);
        assert_eq!(U256::ZERO.bit_length(), 0);
        assert_eq!(U256::MAX.bit_length(), 256);
    }

    #[test]
    fn operator_overloads() {
        let a = U256::from_u64(0b1100);
        let b = U256::from_u64(0b1010);
        assert_eq!(a & b, U256::from_u64(0b1000));
        assert_eq!(a | b, U256::from_u64(0b1110));
        assert_eq!(a ^ b, U256::from_u64(0b0110));
        assert_eq!(!U256::ZERO, U256::MAX);
        assert_eq!(a << 4, U256::from_u64(0b1100_0000));
        assert_eq!(a >> 2, U256::from_u64(0b11));
    }

    #[test]
    fn display_forms() {
        let v = U256::from_u64(255);
        assert!(v.to_string().starts_with("0x"));
        assert!(format!("{v:x}").ends_with("ff"));
        assert!(!format!("{v:?}").is_empty());
    }
}
