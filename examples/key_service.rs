//! Key service: the batched multi-worker key-exchange engine.
//!
//! ```text
//! cargo run --release --example key_service
//! ```
//!
//! Starts a four-worker engine over the host full-radix backend,
//! submits a mixed workload (key generation, shared-secret derivation
//! and public-key validation) from the client side, and prints the
//! engine's statistics snapshot — operation counts, batching, latency
//! percentiles and throughput. Validation requests queued together are
//! served as one batch.
//!
//! The example also turns on the `mpise-obs` span telemetry and
//! finishes with a `/metrics`-style Prometheus dump of the engine's
//! own registry (`Engine::metrics`, the same exposition `loadgen
//! --metrics-out` writes to disk) plus the per-worker span tree.

use mpise::csidh::{CsidhKeypair, PublicKey};
use mpise::engine::{Engine, EngineConfig, Outcome, Request};
use mpise::fp::FpFull;
use mpise::mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Span telemetry is disabled by default; the service opts in so the
    // run ends with the worker span tree. The engine's metrics registry
    // records either way.
    mpise::obs::set_enabled(true);

    let engine = Engine::start(
        EngineConfig {
            workers: 4,
            queue_capacity: 64,
            batch_lanes: 8,
        },
        FpFull::new,
    );
    println!(
        "engine up: {} workers, queue capacity {}, {} batch lanes",
        engine.config().workers,
        engine.config().queue_capacity,
        engine.config().batch_lanes
    );

    // A peer key pair prepared client-side, so the workload includes a
    // genuine derivation partner and a known-valid curve.
    let field = FpFull::new();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let peer = CsidhKeypair::generate_with_bound(&field, &mut rng, 1);

    println!("submitting mixed workload ...");
    let mut tickets = Vec::new();
    // Key generation (small exponent bound keeps the example snappy).
    tickets.push((
        "keygen",
        engine.submit(1, Request::Keygen { bound: 1 }, None),
    ));
    // Shared-secret derivation against the peer's public key.
    let ours = CsidhKeypair::generate_with_bound(&field, &mut rng, 1);
    tickets.push((
        "derive",
        engine.submit(
            2,
            Request::DeriveSharedSecret {
                private: ours.private,
                their_public: peer.public,
            },
            None,
        ),
    ));
    // A burst of validations: adjacent requests share one batch.
    for seed in 3..9 {
        tickets.push((
            "validate",
            engine.submit(seed, Request::ValidatePublicKey { key: peer.public }, None),
        ));
    }
    // One key that must be rejected (A = 1 is an ordinary curve).
    tickets.push((
        "validate",
        engine.submit(
            9,
            Request::ValidatePublicKey {
                key: PublicKey { a: U512::ONE },
            },
            None,
        ),
    ));

    for (kind, ticket) in tickets {
        match ticket.expect("engine accepts while running").wait() {
            Ok(Outcome::Keypair { public, .. }) => {
                println!("  {kind}: public key A = {}", public.a)
            }
            Ok(Outcome::SharedSecret(s)) => println!("  {kind}: shared secret = {}", s.a),
            Ok(Outcome::Validated(v)) => println!("  {kind}: verdict = {v}"),
            Err(e) => println!("  {kind}: error = {e}"),
        }
    }

    println!("\nengine statistics:");
    println!("{}", engine.stats());
    engine.shutdown();
    println!("engine drained and shut down.");

    println!("\n/metrics (Prometheus text exposition):");
    print!("{}", engine.metrics().render_prometheus());

    let spans = engine.take_worker_spans();
    if !spans.is_empty() {
        println!("\nworker span tree (simulated cycles attribute only sim-backed runs):");
        print!("{}", spans.render());
    }
}
