//! The three workloads: what each sets up, and one timed operation.

use crate::metered::{Counts, CycleTable, Metered, RED_ISE};
use mpise_csidh::batch::validate_many;
use mpise_csidh::{group_action, CsidhKeypair, PrivateKey, PublicKey};
use mpise_engine::loadgen::Fixtures;
use mpise_engine::{EngineConfig, Outcome, Request};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::simfp::SimFp;
use mpise_fp::{Csidh512, Fp, FpBatch, FpFull, FpRed};
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Exponent bound of the keygen requests in loadgen's request mix.
const KEYGEN_BOUND: i8 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A CSIDH-512 group action with every field operation run as a
    /// kernel on the simulated Rocket core (reduced radix + ISE). The key
    /// walks every ℓᵢ once, half of them in each direction, so runs with
    /// different seeds do comparable work.
    SimAction,
    /// A full CSIDH-512 key exchange at the real exponent bound 5 on the
    /// host backends: one party on full radix, the other on reduced.
    KeyExchange,
    /// One round of eight requests, one per slot class of the
    /// repository's load generator (`loadgen::plan_request`), served by
    /// the calls an engine worker makes, on the full-radix host backend.
    RequestMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimAction,
        Workload::KeyExchange,
        Workload::RequestMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimAction => "sim_action",
            Workload::KeyExchange => "key_exchange",
            Workload::RequestMix => "request_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which field backend a set of counts ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Full,
    Red,
    Sim,
}

/// The result of one timed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host wall time of the operation (unscaled).
    pub wall_ns: u64,
    /// Field-operation counts per backend used.
    pub counts: Vec<(Backend, Counts)>,
    /// Simulated cycles measured directly on the simulator, if the
    /// operation ran there.
    pub direct_cycles: Option<u64>,
    /// Whether every output of the operation checked out.
    pub ok: bool,
}

impl Op {
    pub fn total_counts(&self) -> Counts {
        self.counts
            .iter()
            .fold(Counts::default(), |acc, (_, c)| acc.plus(*c))
    }

    /// Simulated ISE cycles: measured when available, else the model.
    pub fn sim_cycles(&self, table: &CycleTable) -> f64 {
        match self.direct_cycles {
            Some(c) => c as f64,
            None => table.ise_cycles(&self.total_counts()),
        }
    }
}

/// Everything a workload builds before its first timed operation.
pub struct Prepared {
    pub table: CycleTable,
    state: State,
}

enum State {
    SimAction {
        sim: Box<Metered<SimFp>>,
    },
    KeyExchange {
        full: Metered<FpFull>,
        red: Metered<FpRed>,
    },
    RequestMix {
        field: Metered<FpFull>,
        fixtures: Box<Fixtures>,
        /// The shared secret of `fixtures.sparse` with `fixtures.valid1`.
        secret: PublicKey,
    },
}

/// A uniform residue in `[0, p)`.
pub fn random_residue(rng: &mut StdRng) -> U512 {
    let p = Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).shr(1);
        if cand < p {
            return cand;
        }
    }
}

/// Walks a single 3-isogeny: the cheapest action that still runs every
/// phase, so lazy initialisation finishes before timing. Its randomness
/// is fixed, so the warm-up costs the same for every seed.
fn warm_up<F: Fp>(f: &F) {
    let mut exponents = [0i8; NUM_PRIMES];
    exponents[0] = 1;
    let mut rng = StdRng::seed_from_u64(0);
    let _ = group_action(f, &mut rng, &PublicKey::BASE, &PrivateKey { exponents });
}

/// Builds the workload's state: the kernel cycle table for the
/// simulated clock, the workload's backends (each warmed up by one
/// small action) and, for `request_mix`, the fixture keys. It uses no
/// randomness from the seed, so every seed sets up the same work.
pub fn prepare(workload: Workload) -> Prepared {
    let table = CycleTable::measure();
    let state = match workload {
        Workload::SimAction => {
            let sim = Box::new(Metered::new(SimFp::new(RED_ISE)));
            warm_up(sim.as_ref());
            State::SimAction { sim }
        }
        Workload::KeyExchange => {
            let (full, red) = (Metered::new(FpFull::new()), Metered::new(FpRed::new()));
            warm_up(&full);
            warm_up(&red);
            State::KeyExchange { full, red }
        }
        Workload::RequestMix => {
            // The fixture keys do not depend on the randomness; fixing it
            // makes set-up the same work for every seed.
            let fixtures = Fixtures::generate(0);
            let secret = fixtures.sparse.shared_secret(
                &FpFull::new(),
                &mut StdRng::seed_from_u64(0),
                &fixtures.valid1,
            );
            let field = Metered::new(FpFull::new());
            warm_up(&field);
            State::RequestMix {
                field,
                fixtures: Box::new(fixtures),
                secret,
            }
        }
    };
    Prepared { table, state }
}

impl Prepared {
    /// Runs one operation on inputs drawn from `rng`, times it, and
    /// checks its outputs (the check is neither timed nor in the
    /// `perfbench.op` span).
    pub fn run_op(&self, rng: &mut StdRng) -> Op {
        let span = mpise_obs::span("perfbench.op");
        match &self.state {
            State::SimAction { sim } => {
                let key = dense_key(rng);
                let seed: u64 = rng.gen();
                let (c0, k0) = (sim.counts(), sim.inner().cycles());
                let t = Instant::now();
                let pk = group_action(
                    sim.as_ref(),
                    &mut StdRng::seed_from_u64(seed),
                    &PublicKey::BASE,
                    &key,
                );
                let wall_ns = elapsed_ns(t);
                drop(span);
                // The action's result depends only on the key, so a host
                // run with other randomness must reach the same curve.
                let expected = group_action(
                    &FpFull::new(),
                    &mut StdRng::seed_from_u64(!seed),
                    &PublicKey::BASE,
                    &key,
                );
                let counts = sim.counts().minus(c0);
                let direct = sim.inner().cycles() - k0;
                // The kernels are constant-time, so the cycle model of the
                // host workloads must match the simulator exactly here.
                let model = self.table.ise_cycles(&counts);
                let model_ok = (direct as f64 - model).abs() <= 0.5;
                if !model_ok {
                    eprintln!("perfbench: direct {direct} cycles != model {model} cycles");
                }
                Op {
                    wall_ns,
                    counts: vec![(Backend::Sim, counts)],
                    direct_cycles: Some(direct),
                    ok: pk == expected && model_ok,
                }
            }
            State::KeyExchange { full, red } => {
                let alice = PrivateKey::random(rng);
                let bob = PrivateKey::random(rng);
                let (f0, r0) = (full.counts(), red.counts());
                let t = Instant::now();
                let pk_a = alice.public_key(full, rng);
                let pk_b = bob.public_key(red, rng);
                let s_a = alice.shared_secret(full, rng, &pk_b);
                let s_b = bob.shared_secret(red, rng, &pk_a);
                let wall_ns = elapsed_ns(t);
                drop(span);
                Op {
                    wall_ns,
                    counts: vec![
                        (Backend::Full, full.counts().minus(f0)),
                        (Backend::Red, red.counts().minus(r0)),
                    ],
                    direct_cycles: None,
                    ok: s_a == s_b && pk_a != pk_b,
                }
            }
            State::RequestMix {
                field,
                fixtures,
                secret,
            } => {
                let round = request_round(rng, fixtures);
                let c0 = field.counts();
                let t = Instant::now();
                let outcomes = serve(field, &round);
                let wall_ns = elapsed_ns(t);
                drop(span);
                Op {
                    wall_ns,
                    counts: vec![(Backend::Full, field.counts().minus(c0))],
                    direct_cycles: None,
                    ok: round.iter().zip(&outcomes).all(|((_, request), outcome)| {
                        outcome_ok(fixtures, secret, request, outcome)
                    }),
                }
            }
        }
    }
}

/// One round of the load generator's request mix (`loadgen::plan_request`
/// outside smoke mode), one request per `slot % 8` class and in slot order:
/// three validations of `valid1`, two of `valid2`, one of the ordinary
/// curve `bogus`, one derivation with the sparse key, and one bound-1
/// keygen. Each request gets a seed from `rng`.
fn request_round(rng: &mut StdRng, fx: &Fixtures) -> [(u64, Request); 8] {
    let validate = |key| Request::ValidatePublicKey { key };
    [
        validate(fx.valid1),
        validate(fx.valid1),
        validate(fx.valid1),
        validate(fx.valid2),
        validate(fx.valid2),
        validate(fx.bogus),
        Request::DeriveSharedSecret {
            private: fx.sparse,
            their_public: fx.valid1,
        },
        Request::Keygen {
            bound: KEYGEN_BOUND,
        },
    ]
    .map(|request| (rng.gen(), request))
}

/// Serves `round` as a one-worker engine serves a queue holding it (see
/// `worker_loop` in `mpise_engine`): each run of consecutive validations,
/// up to the default batch lanes, shares one `validate_many` call; every
/// other request runs alone on an RNG seeded with its seed.
fn serve<F: FpBatch>(f: &F, round: &[(u64, Request)]) -> Vec<Outcome> {
    let lanes = EngineConfig::default().batch_lanes;
    let mut outcomes = Vec::with_capacity(round.len());
    let mut rest = round;
    while let Some(&(seed, request)) = rest.first() {
        let batch = rest
            .iter()
            .take(lanes)
            .take_while(|(_, r)| matches!(r, Request::ValidatePublicKey { .. }))
            .count();
        if batch > 0 {
            let (keys, seeds): (Vec<PublicKey>, Vec<u64>) = rest[..batch]
                .iter()
                .map(|&(seed, r)| match r {
                    Request::ValidatePublicKey { key } => (key, seed),
                    _ => unreachable!("the batch holds only validations"),
                })
                .unzip();
            outcomes.extend(
                validate_many(f, &keys, &seeds)
                    .into_iter()
                    .map(Outcome::Validated),
            );
            rest = &rest[batch..];
            continue;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        outcomes.push(match request {
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
            Request::ValidatePublicKey { .. } => unreachable!("validations are batched"),
        });
        rest = &rest[1..];
    }
    outcomes
}

/// Whether `outcome` answers `request` correctly. A keygen is checked
/// by recomputing its public key on the host (untimed).
fn outcome_ok(fx: &Fixtures, secret: &PublicKey, request: &Request, outcome: &Outcome) -> bool {
    match (request, outcome) {
        (Request::ValidatePublicKey { key }, Outcome::Validated(v)) => *v == (*key != fx.bogus),
        (Request::DeriveSharedSecret { .. }, Outcome::SharedSecret(s)) => s == secret,
        (Request::Keygen { bound }, Outcome::Keypair { private, public }) => {
            private.exponents.iter().all(|e| e.abs() <= *bound)
                && *public
                    == group_action(
                        &FpFull::new(),
                        &mut StdRng::seed_from_u64(0),
                        &PublicKey::BASE,
                        private,
                    )
        }
        _ => false,
    }
}

/// A private key with every exponent ±1, half of each sign, in an
/// order drawn from `rng`.
fn dense_key(rng: &mut StdRng) -> PrivateKey {
    let mut exponents: [i8; NUM_PRIMES] = std::array::from_fn(|i| if i % 2 == 0 { 1 } else { -1 });
    shuffle(rng, &mut exponents);
    PrivateKey { exponents }
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
