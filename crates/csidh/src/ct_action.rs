//! A constant-time evaluation of the class group action
//! (dummy-isogeny style, after Meyer–Campos–Reith, "On Lions and
//! Elligators").
//!
//! The paper makes the *field arithmetic* constant time and keeps the
//! original variable-time group action (§4); a constant-time action is
//! the natural next layer of side-channel hardening and is included
//! here as an extension. The strategy:
//!
//! * private exponents are one-sided, `eᵢ ∈ [0, 2·B]` (equivalent key
//!   space to two-sided `[-B, B]`), so every step walks the same
//!   direction and only on-curve points are needed;
//! * for every prime, exactly `2·B` isogeny computations are performed:
//!   `eᵢ` real ones and `2·B − eᵢ` *dummies* whose outputs are
//!   discarded through branch-free selects ([`Fp::select`]), so the
//!   isogeny count is independent of the key;
//! * only the point-sampling retries depend on randomness (never on
//!   the key), as in all published constant-time CSIDH variants.

use crate::action::random_fp;
use crate::isogeny::isogeny;
use crate::mont::{is_infinity, normalize, rhs, xmul, Curve, Point};
use crate::scalar;
use crate::{PrivateKey, PublicKey};
use mpise_fp::params::{NUM_PRIMES, PRIMES};
use mpise_fp::Fp;
use mpise_mpi::ct::mask_from_bit;
use mpise_mpi::U512;
use rand::Rng;

/// A one-sided private key: exponents `eᵢ ∈ [0, 2·B]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtPrivateKey {
    /// Non-negative exponents.
    pub exponents: [u8; NUM_PRIMES],
    /// The per-prime isogeny budget (`2·B`); every prime performs
    /// exactly this many isogeny computations.
    pub budget: u8,
}

impl CtPrivateKey {
    /// Samples a key with exponents uniform in `[0, budget]`.
    pub fn random<R: Rng>(rng: &mut R, budget: u8) -> Self {
        CtPrivateKey {
            exponents: std::array::from_fn(|_| rng.gen_range(0..=budget)),
            budget,
        }
    }

    /// Converts a (non-negative) two-sided key for cross-checking
    /// against the variable-time action.
    ///
    /// # Panics
    ///
    /// Panics if any exponent is negative or exceeds `budget`.
    pub fn from_private(key: &PrivateKey, budget: u8) -> Self {
        CtPrivateKey {
            exponents: std::array::from_fn(|i| {
                let e = key.exponents[i];
                assert!(e >= 0 && (e as u8) <= budget, "exponent out of range");
                e as u8
            }),
            budget,
        }
    }
}

/// Bookkeeping of one constant-time action evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtStats {
    /// Real isogenies applied.
    pub real_isogenies: u64,
    /// Dummy isogenies computed and discarded.
    pub dummy_isogenies: u64,
    /// Kernel computations that found the point had no ℓᵢ-component
    /// (randomness-dependent retries; not key-dependent).
    pub failed_kernels: u64,
}

impl CtStats {
    /// Checks the constant-work invariant: exactly `NUM_PRIMES × budget`
    /// isogeny computations, regardless of the key.
    ///
    /// # Errors
    ///
    /// Returns a description of the discrepancy when the invariant does
    /// not hold (which would mean the action's work depends on the key).
    pub fn verify_constant_work(&self, budget: u8) -> Result<(), String> {
        let expected = NUM_PRIMES as u64 * budget as u64;
        let total = self.real_isogenies + self.dummy_isogenies;
        if total == expected {
            Ok(())
        } else {
            Err(format!(
                "isogeny work depends on the key: {} real + {} dummy = {total}, \
                 expected {expected} (NUM_PRIMES × budget)",
                self.real_isogenies, self.dummy_isogenies
            ))
        }
    }
}

/// Evaluates the group action with a key-independent isogeny count.
///
/// Returns the resulting public key plus the [`CtStats`] evidencing
/// the constant-work property:
/// `real + dummy == NUM_PRIMES × budget` always.
pub fn group_action_ct<F: Fp, R: Rng>(
    f: &F,
    rng: &mut R,
    start: &PublicKey,
    key: &CtPrivateKey,
) -> (PublicKey, CtStats) {
    let _span = mpise_obs::span("csidh.ct_action");
    let mut real: [u8; NUM_PRIMES] = key.exponents;
    let mut dummy: [u8; NUM_PRIMES] = std::array::from_fn(|i| key.budget - key.exponents[i]);
    let mut stats = CtStats::default();
    let mut curve = Curve::from_affine(f, f.from_uint(&start.a));

    while (0..NUM_PRIMES).any(|i| real[i] + dummy[i] > 0) {
        // Sample an on-curve point (one-sided keys walk one direction).
        let (x, todo) = {
            let _s = mpise_obs::span("csidh.sample");
            let x = random_fp(f, rng);
            if f.legendre(&rhs(f, &curve, &x)) != 1 {
                continue;
            }
            let todo: Vec<usize> = (0..NUM_PRIMES)
                .filter(|&i| real[i] + dummy[i] > 0)
                .collect();
            (x, todo)
        };
        let mut point = {
            let _s = mpise_obs::span("csidh.cofactor");
            let clear = scalar::four_times_product((0..NUM_PRIMES).filter(|i| !todo.contains(i)));
            let point = xmul(f, &curve, &Point { x, z: f.one() }, &clear);
            if is_infinity(f, &point) {
                continue;
            }
            point
        };

        let _iso_span = mpise_obs::span("csidh.isogeny");
        let mut remaining = todo.clone();
        for idx in (0..todo.len()).rev() {
            let i = todo[idx];
            let cof = scalar::product(remaining.iter().copied().filter(|&j| j != i));
            let kernel = xmul(f, &curve, &point, &cof);
            if is_infinity(f, &kernel) {
                stats.failed_kernels += 1;
            } else {
                // Always compute the isogeny AND the dummy path, then
                // keep one of them with a branch-free select.
                let (new_curve, pushed) = isogeny(f, &curve, &point, &kernel, PRIMES[i]);
                let multiplied = xmul(f, &curve, &point, &U512::from_u64(PRIMES[i]));
                let is_real = (real[i] > 0) as u64;
                let m = mask_from_bit(is_real);
                curve = Curve {
                    a: f.select(m, &new_curve.a, &curve.a),
                    c: f.select(m, &new_curve.c, &curve.c),
                };
                point = Point {
                    x: f.select(m, &pushed.x, &multiplied.x),
                    z: f.select(m, &pushed.z, &multiplied.z),
                };
                // Branch-free counter update.
                real[i] -= is_real as u8;
                dummy[i] -= 1 - is_real as u8;
                stats.real_isogenies += is_real;
                stats.dummy_isogenies += 1 - is_real;
            }
            remaining.retain(|&j| j != i);
            if is_infinity(f, &point) {
                break;
            }
        }

        drop(_iso_span);
        let _s = mpise_obs::span("csidh.normalize");
        let a_affine = normalize(f, &curve);
        curve = Curve::from_affine(f, a_affine);
    }

    (
        PublicKey {
            a: f.to_uint(&curve.a),
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_action;
    use mpise_fp::FpFull;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse(pairs: &[(usize, u8)], budget: u8) -> CtPrivateKey {
        let mut exponents = [0u8; NUM_PRIMES];
        for &(i, e) in pairs {
            exponents[i] = e;
        }
        CtPrivateKey { exponents, budget }
    }

    #[test]
    fn matches_the_variable_time_action() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(1);
        let ct_key = sparse(&[(0, 1), (10, 2), (73, 1)], 2);
        let (pk_ct, stats) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &ct_key);

        let vt_key = PrivateKey {
            exponents: std::array::from_fn(|i| ct_key.exponents[i] as i8),
        };
        let pk_vt = group_action(&f, &mut rng, &PublicKey::BASE, &vt_key);
        assert_eq!(pk_ct, pk_vt);
        assert_eq!(stats.real_isogenies, 4);
    }

    #[test]
    fn isogeny_count_is_key_independent() {
        let f = FpFull::new();
        let budget = 1u8;
        let keys = [
            sparse(&[], budget),               // all dummy
            sparse(&[(5, 1), (6, 1)], budget), // two real
            CtPrivateKey {
                exponents: [1; NUM_PRIMES],
                budget,
            }, // all real
        ];
        for key in keys {
            let mut rng = StdRng::seed_from_u64(7);
            let (_, stats) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &key);
            stats
                .verify_constant_work(budget)
                .expect("total isogeny work must not depend on the key");
            assert!(stats.verify_constant_work(budget + 1).is_err());
            let expected_real: u64 = key.exponents.iter().map(|&e| e as u64).sum();
            assert_eq!(stats.real_isogenies, expected_real);
        }
    }

    #[test]
    fn all_dummy_key_is_the_identity() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(9);
        let key = sparse(&[], 1);
        let (pk, stats) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &key);
        assert_eq!(pk, PublicKey::BASE, "dummies must not move the curve");
        assert_eq!(stats.real_isogenies, 0);
        assert_eq!(stats.dummy_isogenies, NUM_PRIMES as u64);
    }

    #[test]
    fn ct_key_exchange() {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(11);
        let ka = CtPrivateKey::random(&mut rng, 1);
        let kb = CtPrivateKey::random(&mut rng, 1);
        let (pa, _) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &ka);
        let (pb, _) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &kb);
        let (sa, _) = group_action_ct(&f, &mut rng, &pb, &ka);
        let (sb, _) = group_action_ct(&f, &mut rng, &pa, &kb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn from_private_rejects_negatives() {
        let mut exponents = [0i8; NUM_PRIMES];
        exponents[0] = -1;
        let bad = PrivateKey { exponents };
        assert!(std::panic::catch_unwind(|| CtPrivateKey::from_private(&bad, 5)).is_err());
    }
}
