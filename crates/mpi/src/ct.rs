//! Constant-time primitives.
//!
//! The paper's field arithmetic is written as "(constant-time) Assembler
//! functions" (§4); these helpers are the Rust equivalents used by the
//! host backends. All functions are branch-free on their data inputs.

/// Expands a boolean-as-word (0 or 1) into an all-zero or all-one mask.
///
/// This is the `M ← 0 − SLTU(A, P)` step of Algorithms 1 and 2.
///
/// # Examples
///
/// ```
/// use mpise_mpi::ct::mask_from_bit;
/// assert_eq!(mask_from_bit(0), 0);
/// assert_eq!(mask_from_bit(1), u64::MAX);
/// ```
#[inline]
pub const fn mask_from_bit(bit: u64) -> u64 {
    debug_assert!(bit <= 1);
    bit.wrapping_neg()
}

/// Branch-free select: returns `a` when `mask` is all-ones, `b` when
/// `mask` is zero.
#[inline]
pub const fn select(mask: u64, a: u64, b: u64) -> u64 {
    (a & mask) | (b & !mask)
}

/// Branch-free select over limb slices, writing into `out`.
///
/// # Panics
///
/// Panics if the three slices have different lengths.
#[inline]
pub fn select_limbs(mask: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for i in 0..a.len() {
        out[i] = select(mask, a[i], b[i]);
    }
}

/// Constant-time equality of limb slices: returns 1 when equal, else 0.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn eq_limbs(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len());
    let mut acc = 0u64;
    for i in 0..a.len() {
        acc |= a[i] ^ b[i];
    }
    // acc == 0 <=> equal; fold to a single bit without branching.
    let nz = (acc | acc.wrapping_neg()) >> 63;
    1 ^ nz
}

/// Constant-time unsigned less-than over limb slices (little-endian):
/// returns 1 when `a < b`, else 0 — a multi-word `SLTU`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn lt_limbs(a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (_, b2) = d.overflowing_sub(borrow);
        borrow = (b1 | b2) as u64;
    }
    borrow
}

/// 64-bit add with carry-in; returns `(sum, carry_out)`.
///
/// The software analogue of the `add`/`sltu` pair the paper counts in
/// Listing 1 — RISC-V has no carry flag, so this costs two
/// instructions per word on the base ISA.
#[inline]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// 64-bit subtract with borrow-in; returns `(difference, borrow_out)`.
#[inline]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128)
        .wrapping_sub(b as u128)
        .wrapping_sub(borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_select() {
        assert_eq!(select(u64::MAX, 7, 9), 7);
        assert_eq!(select(0, 7, 9), 9);
        let mut out = [0u64; 3];
        select_limbs(u64::MAX, &[1, 2, 3], &[4, 5, 6], &mut out);
        assert_eq!(out, [1, 2, 3]);
        select_limbs(0, &[1, 2, 3], &[4, 5, 6], &mut out);
        assert_eq!(out, [4, 5, 6]);
    }

    #[test]
    fn equality() {
        assert_eq!(eq_limbs(&[1, 2, 3], &[1, 2, 3]), 1);
        assert_eq!(eq_limbs(&[1, 2, 3], &[1, 2, 4]), 0);
        assert_eq!(eq_limbs(&[0], &[0]), 1);
        assert_eq!(eq_limbs(&[u64::MAX], &[u64::MAX]), 1);
        assert_eq!(eq_limbs(&[u64::MAX], &[0]), 0);
    }

    #[test]
    fn less_than() {
        assert_eq!(lt_limbs(&[5], &[6]), 1);
        assert_eq!(lt_limbs(&[6], &[5]), 0);
        assert_eq!(lt_limbs(&[5], &[5]), 0);
        // high limb dominates
        assert_eq!(lt_limbs(&[u64::MAX, 1], &[0, 2]), 1);
        assert_eq!(lt_limbs(&[0, 2], &[u64::MAX, 1]), 0);
    }

    #[test]
    fn adc_sbb_chain() {
        let (s, c) = adc(u64::MAX, u64::MAX, 1);
        assert_eq!((s, c), (u64::MAX, 1));
        let (d, b) = sbb(0, 1, 0);
        assert_eq!((d, b), (u64::MAX, 1));
        let (d, b) = sbb(5, 3, 1);
        assert_eq!((d, b), (1, 0));
        let (d, b) = sbb(0, 0, 1);
        assert_eq!((d, b), (u64::MAX, 1));
    }
}
