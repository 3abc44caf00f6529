//! Public-key validation over a batch of independent requests.
//!
//! [`validate_many`] is the entry point the engine's workers use for
//! `ValidatePublicKey` traffic. It runs [`crate::action::validate`]
//! once per lane: a lockstep lane-parallel ladder measured no faster
//! than this loop, and the product-tree check branches on per-lane
//! points, so lanes would not stay in step anyway.

use crate::action::{validate, PublicKey};
use mpise_fp::Fp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Validates `keys[i]` with an RNG seeded by `seeds[i]`, so a request's
/// verdict never depends on which other requests share its batch (the
/// engine's determinism guarantee).
///
/// # Panics
///
/// Panics when `keys.len() != seeds.len()`.
pub fn validate_many<F: Fp>(f: &F, keys: &[PublicKey], seeds: &[u64]) -> Vec<bool> {
    let _span = mpise_obs::span("csidh.batch.validate");
    assert_eq!(keys.len(), seeds.len(), "one seed per key");
    keys.iter()
        .zip(seeds)
        .map(|(key, &seed)| validate(f, &mut StdRng::seed_from_u64(seed), key))
        .collect()
}
