//! CSIDH-512 parameters.
//!
//! The CSIDH-512 prime (§2, "Basic CSIDH facts") is
//! `p = 4·ℓ₁·ℓ₂⋯ℓ₇₄ − 1`, where `ℓ₁ < … < ℓ₇₃` are the 73 smallest odd
//! primes (3 … 373) and `ℓ₇₄ = 587`. `p` is 511 bits long and satisfies
//! `p ≡ 3 (mod 8)`.

use mpise_mpi::reduced::MontCtx57;
use mpise_mpi::{MontCtx, Reduced, Uint, U512};
use rand::Rng;
use std::sync::OnceLock;

/// Number of small odd primes dividing `(p + 1) / 4`.
pub const NUM_PRIMES: usize = 74;

/// Digits of a full-radix CSIDH-512 element (radix 2^64).
pub(crate) const FULL_LIMBS: usize = 8;

/// Limbs of a reduced-radix CSIDH-512 element (radix 2^57).
pub const RED_LIMBS: usize = 9;

/// The 74 small odd primes `ℓᵢ` of CSIDH-512.
pub const PRIMES: [u64; NUM_PRIMES] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 587,
];

/// The CSIDH-512 prime `p = 4·∏ℓᵢ − 1` as little-endian 64-bit digits.
///
/// These are the canonical limbs from the CSIDH reference code; the
/// test `prime_is_product_of_the_small_primes` re-derives them from
/// [`PRIMES`].
pub(crate) const P_LIMBS: [u64; FULL_LIMBS] = [
    0x1b81b90533c6c87b,
    0xc2721bf457aca835,
    0x516730cc1f0b4f25,
    0xa7aac6c567f35507,
    0x5afbfcc69322c9cd,
    0xb42d083aedc88c42,
    0xfc8ab0d15e3e4c4a,
    0x65b48e8f740f89bf,
];

/// All precomputed CSIDH-512 field constants, shared by every backend.
#[derive(Debug)]
pub struct Csidh512 {
    /// The prime `p`.
    pub p: U512,
    /// `(p − 1) / 2` — the Legendre-symbol exponent.
    pub p_minus_1_half: U512,
    /// `p − 2` — the Fermat-inversion exponent.
    pub p_minus_2: U512,
    /// `(p + 1) / 4 = ∏ℓᵢ`.
    pub p_plus_1_quarter: U512,
    /// Full-radix Montgomery context (`R = 2^512`).
    pub mont: MontCtx<FULL_LIMBS>,
    /// Reduced-radix Montgomery context (`R = 2^513`).
    pub mont57: MontCtx57<RED_LIMBS>,
}

impl Csidh512 {
    /// Returns the process-wide parameter set (built on first use).
    pub fn get() -> &'static Csidh512 {
        static INSTANCE: OnceLock<Csidh512> = OnceLock::new();
        INSTANCE.get_or_init(|| {
            let p = U512::from_limbs(P_LIMBS);
            let mont = MontCtx::new(p).expect("CSIDH-512 p is a valid Montgomery modulus");
            let mont57 = MontCtx57::new(Reduced::from_uint(&p))
                .expect("CSIDH-512 p is a valid radix-2^57 modulus");
            Csidh512 {
                p,
                p_minus_1_half: p.shr(1),
                p_minus_2: p.wrapping_sub(&Uint::from_u64(2)),
                p_plus_1_quarter: p.shr(2).wrapping_add(&Uint::ONE),
                mont,
                mont57,
            }
        })
    }
}

/// Draws a uniform canonical residue (`< p`): eight random words with
/// the top bit cleared, redrawn until below `p`.
pub fn random_residue<R: Rng>(rng: &mut R) -> U512 {
    let p = &Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < *p {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_mpi::reference::RefInt;

    #[test]
    fn prime_is_product_of_the_small_primes() {
        let mut prod = RefInt::from_u64(4);
        for &l in &PRIMES {
            prod = prod.mul(&RefInt::from_u64(l));
        }
        let p = prod.sub(&RefInt::one());
        assert_eq!(p.to_limbs(FULL_LIMBS), P_LIMBS.to_vec());
    }

    #[test]
    fn prime_shape() {
        let c = Csidh512::get();
        assert_eq!(c.p.bit_length(), 511);
        // p ≡ 3 (mod 8), required for End(E) = Z[sqrt(-p)] (§2).
        assert_eq!(c.p.limb(0) & 7, 3);
        assert!(c.p.is_odd());
    }

    #[test]
    fn primes_list_shape() {
        assert_eq!(PRIMES.len(), 74);
        // sorted, distinct, all odd
        for w in PRIMES.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(PRIMES.iter().all(|&l| l % 2 == 1));
        assert_eq!(PRIMES[72], 373);
        assert_eq!(PRIMES[73], 587);
        // Each really is prime.
        for &l in &PRIMES {
            assert!((2..l).take_while(|d| d * d <= l).all(|d| l % d != 0), "{l}");
        }
    }

    #[test]
    fn derived_exponents() {
        let c = Csidh512::get();
        assert_eq!(
            c.p_minus_1_half.wrapping_add(&c.p_minus_1_half),
            c.p.wrapping_sub(&U512::ONE)
        );
        assert_eq!(c.p_minus_2.wrapping_add(&U512::from_u64(2)), c.p);
        // (p+1)/4 = product of the primes
        let mut prod = RefInt::one();
        for &l in &PRIMES {
            prod = prod.mul(&RefInt::from_u64(l));
        }
        assert_eq!(
            c.p_plus_1_quarter.limbs().to_vec(),
            prod.to_limbs(FULL_LIMBS)
        );
    }

    #[test]
    fn mont_contexts_agree() {
        let c = Csidh512::get();
        // Multiply two values in both representations; results agree.
        let a =
            U512::from_hex("0x123456789abcdef0fedcba987654321000112233445566778899aabbccddeeff")
                .unwrap();
        let b =
            U512::from_hex("0x0fedcba987654321123456789abcdef0ffeeddccbbaa99887766554433221100")
                .unwrap();
        let am = c.mont.to_mont(&a);
        let bm = c.mont.to_mont(&b);
        let full = c.mont.from_mont(&c.mont.mul(&am, &bm));

        let ar = c.mont57.to_mont(&Reduced::from_uint(&a));
        let br = c.mont57.to_mont(&Reduced::from_uint(&b));
        let red = c.mont57.from_mont(&c.mont57.mul(&ar, &br));
        assert_eq!(red.to_uint::<FULL_LIMBS>(), full);
    }
}
