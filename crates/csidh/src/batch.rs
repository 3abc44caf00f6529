//! Public-key validation over a batch of independent requests.
//!
//! Nothing in this workspace outside its tests calls [`validate_many`]:
//! the engine's workers call [`crate::action::validate`] once per
//! request. It stays because the two-clock benchmark (`perfbench/`,
//! built as a workspace of its own) times it and re-enacts the engine's
//! request mix with it, and perfbench changes only together with its
//! committed measurements. ROADMAP items 1–2 then delete this module.
//! It runs `validate` once per lane: a lockstep lane-parallel ladder
//! measured no faster than this loop, and the product-tree check
//! branches on per-lane points, so lanes would not stay in step anyway.

use crate::action::{validate, PublicKey};
use mpise_fp::Fp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Validates `keys[i]` with an RNG seeded by `seeds[i]`, so a key's
/// verdict never depends on which other keys share its batch.
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
