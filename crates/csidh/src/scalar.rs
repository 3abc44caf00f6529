//! Small helpers for the public scalars of the group action
//! (cofactors, which are products of the small primes `ℓᵢ`).

use mpise_fp::params::PRIMES;
use mpise_mpi::{Uint, U512};

/// Multiplies a 512-bit value by a small constant.
///
/// # Panics
///
/// Panics (debug) if the product overflows 512 bits — cofactors of
/// CSIDH-512 never do (`4·∏ℓᵢ < 2^512`).
pub fn mul_u64(a: &U512, b: u64) -> U512 {
    let mut out = [0u64; 8];
    let mut carry = 0u64;
    for i in 0..8 {
        let t = a.limb(i) as u128 * b as u128 + carry as u128;
        out[i] = t as u64;
        carry = (t >> 64) as u64;
    }
    debug_assert_eq!(carry, 0, "cofactor overflowed 512 bits");
    Uint::from_limbs(out)
}

/// Computes `4 · ∏_{i ∈ included} ℓᵢ` — the scalar that clears every
/// factor of `p + 1` **except** the selected primes is built from the
/// complement set, so both directions are needed.
pub fn four_times_product(included: impl Iterator<Item = usize>) -> U512 {
    let mut acc = U512::from_u64(4);
    for i in included {
        acc = mul_u64(&acc, PRIMES[i]);
    }
    acc
}

/// Computes `∏_{i ∈ included} ℓᵢ` (no factor 4).
pub fn product(included: impl Iterator<Item = usize>) -> U512 {
    let mut acc = U512::ONE;
    for i in included {
        acc = mul_u64(&acc, PRIMES[i]);
    }
    acc
}

/// The full cofactor `p + 1 = 4·∏ᵢ ℓᵢ`.
#[cfg(test)]
pub(crate) fn p_plus_one() -> U512 {
    four_times_product(0..PRIMES.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::params::{Csidh512, NUM_PRIMES};

    #[test]
    fn p_plus_one_matches_params() {
        let c = Csidh512::get();
        assert_eq!(p_plus_one(), c.p.wrapping_add(&U512::ONE));
    }

    #[test]
    fn mul_u64_small() {
        assert_eq!(mul_u64(&U512::from_u64(6), 7), U512::from_u64(42));
        assert_eq!(mul_u64(&U512::ZERO, 999), U512::ZERO);
        // cross-limb carry
        let big = U512::from_limbs([u64::MAX, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            mul_u64(&big, 2),
            U512::from_limbs([u64::MAX - 1, 1, 0, 0, 0, 0, 0, 0])
        );
    }

    #[test]
    fn complement_products_multiply_to_p_plus_one() {
        let evens = (0..NUM_PRIMES).filter(|i| i % 2 == 0);
        let odds = (0..NUM_PRIMES).filter(|i| i % 2 == 1);
        let a = four_times_product(evens);
        let b = product(odds);
        // a * b == p+1: verify via the reference integers.
        use mpise_mpi::reference::RefInt;
        let prod = RefInt::from_limbs(a.limbs()).mul(&RefInt::from_limbs(b.limbs()));
        assert_eq!(prod.to_limbs(8), p_plus_one().limbs().to_vec());
    }
}
