//! Public-key validation: the product-tree check of
//! `mpise_csidh::validate` against the per-prime check it replaced.
//!
//! Both checks must give the same verdict and consume the same
//! randomness, so the committed KATs and every engine outcome stay
//! byte-identical.

use mpise::csidh::mont::{is_infinity, xmul, Curve, Point};
use mpise::csidh::{scalar, validate, validate_many, CsidhKeypair, PublicKey};
use mpise::fp::params::{Csidh512, NUM_PRIMES, PRIMES};
use mpise::fp::{CountingFp, Fp, FpFull, FpRed};
use mpise::mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeds per input class.
const SEEDS: u64 = 64;

/// A uniform field element, drawn as `validate` draws it: rejection
/// sampling from 511-bit strings.
fn random_fp<F: Fp, R: Rng>(f: &F, rng: &mut R) -> F::Elem {
    let p = &Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < *p {
            return f.from_uint(&cand);
        }
    }
}

/// The reference oracle: the per-prime check `validate` ran before the
/// product tree, one full cofactor ladder `[(p+1)/4ℓᵢ]` per prime.
fn per_prime_validate<F: Fp, R: Rng>(f: &F, rng: &mut R, key: &PublicKey) -> bool {
    let c = Csidh512::get();
    let two = U512::from_u64(2);
    if key.a >= c.p || key.a == two || key.a == c.p.wrapping_sub(&two) {
        return false;
    }
    let curve = Curve::from_affine(f, f.from_uint(&key.a));
    for _attempt in 0..3 {
        let pt = Point {
            x: random_fp(f, rng),
            z: f.one(),
        };
        let q4 = xmul(f, &curve, &pt, &U512::from_u64(4));
        if is_infinity(f, &q4) {
            continue;
        }
        let mut proven = U512::ONE;
        for (i, &l) in PRIMES.iter().enumerate() {
            let cof = scalar::product((0..NUM_PRIMES).filter(|&j| j != i));
            let q = xmul(f, &curve, &q4, &cof);
            if is_infinity(f, &q) {
                continue;
            }
            if !is_infinity(f, &xmul(f, &curve, &q, &U512::from_u64(l))) {
                return false;
            }
            proven = scalar::mul_u64(&proven, l);
            if proven.bit_length() >= 259 {
                return true;
            }
        }
    }
    false
}

/// Runs both checks from `seed`, asserts they agree on the verdict and
/// leave the RNG in the same state, and returns the verdict.
fn agree<F: Fp>(f: &F, key: &PublicKey, seed: u64) -> bool {
    let mut tree_rng = StdRng::seed_from_u64(seed);
    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let verdict = validate(f, &mut tree_rng, key);
    assert_eq!(
        verdict,
        per_prime_validate(f, &mut oracle_rng, key),
        "verdict, seed {seed}, key {key:?}"
    );
    assert_eq!(
        tree_rng.gen::<u64>(),
        oracle_rng.gen::<u64>(),
        "RNG state after the call, seed {seed}, key {key:?}"
    );
    verdict
}

/// A public key derived with exponent bound 1 on backend `f`.
fn derived_key<F: Fp>(f: &F, seed: u64) -> PublicKey {
    CsidhKeypair::generate_with_bound(f, &mut StdRng::seed_from_u64(seed), 1).public
}

/// A uniformly random canonical `A`: an ordinary curve with
/// overwhelming probability.
fn random_a(seed: u64) -> PublicKey {
    let f = FpFull::new();
    PublicKey {
        a: f.to_uint(&random_fp(&f, &mut StdRng::seed_from_u64(seed))),
    }
}

#[test]
fn base_curve_matches_per_prime_check() {
    let f = FpFull::new();
    for seed in 0..SEEDS {
        assert!(agree(&f, &PublicKey::BASE, seed), "seed {seed}");
    }
}

#[test]
fn full_radix_derived_key_matches_per_prime_check() {
    let f = FpFull::new();
    let key = derived_key(&f, 41);
    for seed in 0..SEEDS {
        assert!(agree(&f, &key, seed), "seed {seed}");
    }
}

#[test]
fn reduced_radix_derived_key_matches_per_prime_check() {
    let f = FpRed::new();
    let key = derived_key(&f, 42);
    for seed in 0..SEEDS {
        assert!(agree(&f, &key, seed), "seed {seed}");
    }
}

#[test]
fn invalid_keys_match_per_prime_check() {
    let (full, red) = (FpFull::new(), FpRed::new());
    let p = Csidh512::get().p;
    let two = U512::from_u64(2);
    let malformed = [
        two,
        p.wrapping_sub(&two),
        p,
        p.wrapping_add(&U512::ONE),
        U512::MAX,
    ];
    for seed in 0..SEEDS {
        let ordinary = random_a(1000 + seed);
        assert!(!agree(&full, &ordinary, seed), "seed {seed}");
        assert!(!agree(&red, &ordinary, seed), "seed {seed}");
        for a in malformed {
            assert!(!agree(&full, &PublicKey { a }, seed), "seed {seed}");
        }
    }
}

#[test]
fn validate_many_equals_per_key_validate() {
    // A verdict must not depend on its batch-mates: the engine batches
    // opportunistically, so one request can land in a batch of any
    // width.
    let f = FpFull::new();
    let derived = derived_key(&f, 43);
    let pool = [
        PublicKey::BASE,
        derived,
        random_a(7),
        PublicKey {
            a: U512::from_u64(2),
        },
        PublicKey {
            a: Csidh512::get().p,
        },
    ];
    for width in [0usize, 1, 3, 16] {
        let keys: Vec<PublicKey> = (0..width).map(|i| pool[i % pool.len()]).collect();
        let seeds: Vec<u64> = (0..width as u64).map(|i| 500 + i).collect();
        let per_key: Vec<bool> = keys
            .iter()
            .zip(&seeds)
            .map(|(key, &seed)| validate(&f, &mut StdRng::seed_from_u64(seed), key))
            .collect();
        assert_eq!(validate_many(&f, &keys, &seeds), per_key, "width {width}");
    }
}

#[test]
fn product_tree_cuts_field_multiplications() {
    let f = CountingFp::new(FpFull::new());
    let key = derived_key(&FpFull::new(), 44);
    assert!(validate(&f, &mut StdRng::seed_from_u64(45), &key));
    let c = f.counts();
    let muls = c.mul + c.sqr;
    // The per-prime check did 274,668 mul+sqr on this input, measured
    // before the product tree replaced it; the tree does about 23k.
    const PER_PRIME_MULS: u64 = 274_668;
    assert!(
        muls * 5 <= PER_PRIME_MULS,
        "{muls} mul+sqr, more than a fifth of {PER_PRIME_MULS}"
    );
}
