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
pub(crate) const fn select(mask: u64, a: u64, b: u64) -> u64 {
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

/// 64-bit add with carry-in; returns `(sum, carry_out)`.
///
/// The software analogue of the `add`/`sltu` pair the paper counts in
/// Listing 1 — RISC-V has no carry flag, so this costs two
/// instructions per word on the base ISA.
#[inline]
pub(crate) const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// 64-bit subtract with borrow-in; returns `(difference, borrow_out)`.
#[inline]
pub(crate) const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
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
