//! Engine determinism: two loadgen passes with the same seed must
//! produce byte-identical result payloads, regardless of worker count
//! or which worker claims which request.

use mpise_csidh::{validate, CsidhKeypair, PrivateKey, PublicKey};
use mpise_engine::loadgen::{run_pass, Fixtures, LoadgenOptions, LOADGEN_SEED};
use mpise_engine::{Engine, EngineConfig, Outcome, Request};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::FpFull;
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Debug-speed fixtures: the base curve is a genuine supersingular
/// validation target, `a = 1` an ordinary reject, and a zero exponent
/// vector makes derivations the identity action (no isogenies).
fn fixtures() -> Fixtures {
    Fixtures {
        valid1: PublicKey::BASE,
        valid2: PublicKey::BASE,
        bogus: PublicKey { a: U512::ONE },
        sparse: PrivateKey {
            exponents: [0; NUM_PRIMES],
        },
    }
}

fn options() -> LoadgenOptions {
    LoadgenOptions {
        workers: 2,
        clients: 2,
        requests_per_client: 2,
        seed: 0xD00D,
        smoke: true,
        ..Default::default()
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let opts = options();
    let fixtures = fixtures();
    let first = run_pass(opts.workers, &opts, &fixtures);
    let second = run_pass(opts.workers, &opts, &fixtures);
    assert_eq!(first.errors, 0);
    assert_eq!(second.errors, 0);
    assert!(!first.payloads.is_empty(), "mix produced result payloads");
    assert_eq!(
        first.payloads, second.payloads,
        "same seed, same payload bytes"
    );
}

#[test]
fn worker_count_does_not_change_payloads() {
    let opts = options();
    let fixtures = fixtures();
    let single = run_pass(1, &opts, &fixtures);
    let multi = run_pass(opts.workers, &opts, &fixtures);
    assert_eq!(
        single.payloads, multi.payloads,
        "payloads depend only on (seed, request), never on scheduling"
    );
}

#[test]
fn different_seeds_change_the_request_stream() {
    let fixtures = fixtures();
    let opts_a = options();
    let opts_b = LoadgenOptions {
        seed: 0xBEEF,
        ..options()
    };
    let a = run_pass(1, &opts_a, &fixtures);
    let b = run_pass(1, &opts_b, &fixtures);
    // With every fixture pointing at only two distinct keys the
    // payloads can coincide, but the per-request seeds cannot: the
    // plan stream itself must differ.
    use mpise_engine::loadgen::plan_request;
    let seeds_a: Vec<u64> = (0..4)
        .map(|i| plan_request(opts_a.seed, 0, i, &fixtures, true).0)
        .collect();
    let seeds_b: Vec<u64> = (0..4)
        .map(|i| plan_request(opts_b.seed, 0, i, &fixtures, true).0)
        .collect();
    assert_ne!(seeds_a, seeds_b, "seed streams diverge");
    assert_eq!(a.errors + b.errors, 0);
}

/// What the request's own `mpise-csidh` call returns on an RNG seeded
/// with the request's seed.
fn direct(f: &FpFull, seed: u64, request: Request) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    match request {
        Request::Keygen { bound } => {
            let kp = CsidhKeypair::generate_with_bound(f, &mut rng, bound);
            Outcome::Keypair {
                private: kp.private,
                public: kp.public,
            }
        }
        Request::DeriveSharedSecret {
            private,
            their_public,
        } => Outcome::SharedSecret(private.shared_secret(f, &mut rng, &their_public)),
        Request::ValidatePublicKey { key } => Outcome::Validated(validate(f, &mut rng, &key)),
    }
}

#[test]
fn outcomes_equal_direct_calls() {
    let fixtures = fixtures();
    let valid = Request::ValidatePublicKey {
        key: PublicKey::BASE,
    };
    let bogus = Request::ValidatePublicKey {
        key: fixtures.bogus,
    };
    // Verdicts, the bound-0 keygen and the zero-exponent derivation do
    // not depend on the RNG; the bound-1 keygen draws its private key
    // from it, so it also checks that the request's own seed was used.
    let mix = [
        (1, valid),
        (2, bogus),
        (3, Request::Keygen { bound: 0 }),
        (4, valid),
        (
            5,
            Request::DeriveSharedSecret {
                private: fixtures.sparse,
                their_public: PublicKey::BASE,
            },
        ),
        (6, bogus),
        (7, valid),
        (8, Request::Keygen { bound: 1 }),
    ];
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    let tickets: Vec<_> = mix
        .iter()
        .map(|&(seed, request)| engine.submit(seed, request).unwrap())
        .collect();
    let f = FpFull::new();
    for (&(seed, request), ticket) in mix.iter().zip(tickets) {
        assert_eq!(
            ticket.wait(),
            Ok(direct(&f, seed, request)),
            "seed {seed}: {request:?}"
        );
    }
    engine.shutdown();
}

#[test]
fn smoke_mix_digest_is_pinned() {
    // The digest `loadgen --smoke` prints at the default seed.
    let pass = run_pass(
        2,
        &LoadgenOptions::smoke(),
        &Fixtures::generate(LOADGEN_SEED),
    );
    assert_eq!(pass.errors, 0);
    assert_eq!(mpise_obs::fnv1a64(&pass.payloads), 0x8a7f_9e1f_9cdb_e9c7);
}
