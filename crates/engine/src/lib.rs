//! # mpise-engine — the multi-worker CSIDH-512 key-exchange service
//!
//! The paper (and the crates below this one) accelerate **one**
//! CSIDH-512 operation at a time. This crate is a serving layer built
//! around them: a multi-worker **service engine** that runs the
//! single-request primitives of `mpise-csidh` from many clients at
//! once.
//!
//! * [`Engine`] accepts [`Request::Keygen`],
//!   [`Request::DeriveSharedSecret`] and
//!   [`Request::ValidatePublicKey`] through a bounded submission
//!   queue (a crate-private `Bounded` channel) and executes them on a
//!   configurable worker pool — one field-backend instance per
//!   worker, generic over any [`Fp`] backend.
//! * Every request carries a **deterministic seed**: outcomes depend
//!   only on `(seed, request)`, never on scheduling or worker count
//!   (the loadgen determinism test enforces this byte-for-byte).
//! * [`Engine::submit`] is the only way in: it blocks while the queue
//!   is full, and a worker answers every request it accepts.
//!   Dropping the returned [`Ticket`] abandons the response, not the
//!   work. [`Engine::shutdown`] performs a graceful drain — everything
//!   already accepted completes, nothing is dropped, and later
//!   submissions fail with [`EngineError::ShutDown`].
//! * Each worker takes one request per dequeue and answers it with
//!   the matching `mpise-csidh` call on an RNG seeded from the
//!   request's seed: [`mpise_csidh::validate`],
//!   [`CsidhKeypair::generate_with_bound`] or
//!   [`PrivateKey::shared_secret`].
//! * Each engine records into its own `mpise-obs` registry
//!   ([`Engine::metrics`]): per-op counters, per-worker completion
//!   counters and a fixed-bucket latency histogram, updated with
//!   relaxed atomics as requests are answered, so memory stays
//!   bounded however long the engine runs. [`Engine::stats`] reads
//!   those instruments back as an [`EngineStats`] snapshot (per-op
//!   counts, queue depth, bucket-resolution p50/p99 latency,
//!   throughput).
//! * The [`loadgen`] module drives N concurrent clients against the
//!   engine and writes a machine-readable `LOAD_<date>.json` report
//!   with a multi-worker throughput gate.

pub mod loadgen;
mod queue;
mod stats;

use mpise_csidh::{validate, CsidhKeypair, PrivateKey, PublicKey};
use mpise_fp::Fp;
use queue::Bounded;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::StatsInner;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

pub use stats::EngineStats;

/// A key-exchange request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Generate a key pair (exponents bounded by `bound`; CSIDH-512
    /// proper uses [`mpise_csidh::action::EXPONENT_BOUND`] = 5).
    Keygen {
        /// Private-exponent bound.
        bound: i8,
    },
    /// Derive the shared secret of `private` with `their_public`.
    DeriveSharedSecret {
        /// Our private key.
        private: PrivateKey,
        /// The peer's public key.
        their_public: PublicKey,
    },
    /// Check that a public key is a supersingular curve.
    ValidatePublicKey {
        /// The key to validate.
        key: PublicKey,
    },
}

/// A completed request's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The generated key pair.
    Keypair {
        /// The secret exponent vector.
        private: PrivateKey,
        /// The corresponding public curve.
        public: PublicKey,
    },
    /// The derived shared secret.
    SharedSecret(PublicKey),
    /// The validation verdict.
    Validated(bool),
}

impl Outcome {
    /// Canonical wire bytes of the outcome, used by the loadgen
    /// determinism digest: public keys and shared secrets serialize
    /// through the 64-byte little-endian format, verdicts as one
    /// byte, key pairs as public key then exponent vector.
    pub(crate) fn payload_bytes(&self) -> Vec<u8> {
        match self {
            Outcome::Keypair { private, public } => {
                let mut out = public.to_bytes().to_vec();
                out.extend(private.exponents.iter().map(|&e| e as u8));
                out
            }
            Outcome::SharedSecret(pk) => pk.to_bytes().to_vec(),
            Outcome::Validated(v) => vec![u8::from(*v)],
        }
    }
}

/// Why a request did not produce an [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The engine is shut down (or shutting down); nothing was queued.
    ShutDown,
    /// The engine dropped the response channel (worker panic).
    Disconnected,
    /// No worker could serve the request (a negative keygen bound);
    /// nothing was queued.
    InvalidRequest,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            EngineError::ShutDown => "engine is shut down",
            EngineError::Disconnected => "engine dropped the response channel",
            EngineError::InvalidRequest => "invalid request",
        };
        write!(out, "{text}")
    }
}

impl std::error::Error for EngineError {}

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (each owns one backend instance).
    pub workers: usize,
    /// Bounded submission-queue capacity (back-pressure bound).
    pub queue_capacity: usize,
    /// Unread by the engine: each worker answers one request per
    /// dequeue. Only the two-clock benchmark (`perfbench/`) reads it,
    /// and ROADMAP item 2 deletes it together with perfbench's copy.
    pub batch_lanes: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_capacity: 256,
            batch_lanes: 16,
        }
    }
}

/// A pending request's client-side handle.
///
/// Dropping the ticket abandons the response only: the worker still
/// answers the request, and its send just fails.
pub struct Ticket {
    rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// Blocks until the outcome arrives.
    ///
    /// # Errors
    ///
    /// [`EngineError::Disconnected`] when the engine dropped the
    /// response channel without answering (a worker panicked).
    pub fn wait(self) -> Result<Outcome, EngineError> {
        self.rx.recv().map_err(|_| EngineError::Disconnected)
    }
}

/// One queued unit of work.
struct Job {
    seed: u64,
    request: Request,
    submitted: Instant,
    tx: mpsc::Sender<Outcome>,
}

/// The multi-worker key-exchange service.
///
/// # Examples
///
/// ```
/// use mpise_engine::{Engine, EngineConfig, Outcome, Request};
/// use mpise_csidh::PublicKey;
/// use mpise_fp::FpFull;
///
/// let engine = Engine::start(EngineConfig { workers: 2, ..Default::default() }, FpFull::new);
/// let ticket = engine
///     .submit(7, Request::ValidatePublicKey { key: PublicKey::BASE })
///     .unwrap();
/// assert_eq!(ticket.wait().unwrap(), Outcome::Validated(true));
/// engine.shutdown();
/// ```
pub struct Engine {
    queue: Arc<Bounded<Job>>,
    stats: Arc<StatsInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Starts the worker pool. `backend` is called once inside each
    /// worker thread to build that worker's private field-backend
    /// instance (so backends need not be `Send`).
    ///
    /// # Panics
    ///
    /// Panics when `config.workers` or `config.queue_capacity` is zero.
    pub fn start<F, B>(config: EngineConfig, backend: B) -> Engine
    where
        F: Fp,
        B: Fn() -> F + Send + Sync + 'static,
    {
        assert!(config.workers > 0, "need at least one worker");
        let queue = Arc::new(Bounded::new(config.queue_capacity));
        let stats = Arc::new(StatsInner::new(config.workers));
        let backend = Arc::new(backend);
        let workers = (0..config.workers)
            .map(|worker| {
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                let backend = Arc::clone(&backend);
                std::thread::spawn(move || worker_loop(backend(), &queue, &stats, worker))
            })
            .collect();
        Engine {
            queue,
            stats,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a request, blocking while the queue is full. A worker
    /// answers every request this accepts, whether or not the ticket
    /// is still held.
    ///
    /// # Errors
    ///
    /// [`EngineError::ShutDown`] after [`Engine::shutdown`],
    /// [`EngineError::InvalidRequest`] for a negative keygen bound —
    /// the request is not queued, and counts in `rejected`.
    pub fn submit(&self, seed: u64, request: Request) -> Result<Ticket, EngineError> {
        if matches!(request, Request::Keygen { bound } if bound < 0) {
            self.stats.rejected.inc();
            return Err(EngineError::InvalidRequest);
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            seed,
            request,
            submitted: Instant::now(),
            tx,
        };
        if self.queue.push(job).is_err() {
            self.stats.rejected.inc();
            return Err(EngineError::ShutDown);
        }
        self.stats.submitted.inc();
        Ok(Ticket { rx })
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot(self.queue.len())
    }

    /// The engine's metrics registry, with the queue-depth gauge
    /// refreshed. The request path records into it directly: the
    /// `mpise_engine_*` request counters (by `op`), per-worker
    /// `mpise_engine_worker_completed_total{worker="i"}` and the
    /// `mpise_engine_latency_us` histogram. Render it as Prometheus text
    /// with [`mpise_obs::Registry::render_prometheus`], or as a
    /// [`mpise_obs::Value`] array with
    /// [`mpise_obs::Registry::metrics_json`]; rendering never changes
    /// a value. Clone the `Arc` to keep the registry past the engine.
    pub fn metrics(&self) -> &Arc<mpise_obs::Registry> {
        self.stats.queue_depth.set(self.queue.len() as f64);
        &self.stats.registry
    }

    /// Graceful drain: refuses new submissions, lets the workers
    /// finish everything already queued, and joins them. Every
    /// accepted request receives its response before this returns.
    /// Idempotent; later [`Engine::submit`] calls return
    /// [`EngineError::ShutDown`] instead of panicking.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker list")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Drains the telemetry span trees merged in by exited workers.
    /// Spans are thread-local, so workers contribute their trees when
    /// they exit — call this after [`Engine::shutdown`] for the
    /// complete forest (empty while telemetry is disabled).
    pub fn take_worker_spans(&self) -> mpise_obs::SpanTree {
        std::mem::take(&mut *self.stats.spans.lock().expect("span lock"))
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Responds to a job and records its latency and op counter.
fn respond(stats: &StatsInner, job: &Job, outcome: Outcome) {
    match outcome {
        Outcome::Keypair { .. } => stats.keygen.inc(),
        Outcome::SharedSecret(_) => stats.derive.inc(),
        Outcome::Validated(_) => stats.validate.inc(),
    }
    stats.record_latency(job.submitted.elapsed().as_micros() as u64);
    // A dropped ticket makes the send fail; that is fine.
    let _ = job.tx.send(outcome);
}

fn worker_loop<F: Fp>(f: F, queue: &Bounded<Job>, stats: &StatsInner, worker: usize) {
    while let Some(job) = queue.pop() {
        run_single(&f, job, stats);
        stats.worker_completed[worker].inc();
    }
    // Spans are thread-local; hand this worker's finished tree to the
    // engine before the thread exits.
    let spans = mpise_obs::take_spans();
    if !spans.is_empty() {
        stats.spans.lock().expect("span lock").merge(spans);
    }
}

fn run_single<F: Fp>(f: &F, job: Job, stats: &StatsInner) {
    let mut rng = StdRng::seed_from_u64(job.seed);
    let outcome = match job.request {
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
    };
    respond(stats, &job, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::FpFull;
    use mpise_mpi::U512;

    fn bogus_key() -> PublicKey {
        // A = 2 is singular: rejected without field arithmetic, so
        // these requests are near-instant — ideal for queue tests.
        PublicKey {
            a: U512::from_u64(2),
        }
    }

    #[test]
    fn outcomes_are_seed_deterministic() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        // Bound 0 pins the exponent vector, so the outcome is fully
        // determined — any scheduling- or worker-dependence would show
        // up as payload divergence. (Seed-sensitivity of bound ≥ 1
        // keygen is a full group action, exercised by the release-mode
        // loadgen run instead of this debug-speed unit test.)
        let req = Request::Keygen { bound: 0 };
        let a = engine.submit(42, req).unwrap().wait().unwrap();
        let b = engine.submit(42, req).unwrap().wait().unwrap();
        assert_eq!(a, b, "same seed, same outcome");
        assert_eq!(
            a.payload_bytes(),
            b.payload_bytes(),
            "payload bytes are reproducible"
        );
        engine.shutdown();
    }

    #[test]
    fn keygen_bound_zero_is_identity() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
            FpFull::new,
        );
        match engine
            .submit(1, Request::Keygen { bound: 0 })
            .unwrap()
            .wait()
            .unwrap()
        {
            Outcome::Keypair { public, .. } => assert_eq!(public, PublicKey::BASE),
            other => panic!("expected a keypair, got {other:?}"),
        }
    }

    #[test]
    fn validations_batch_and_answer_in_order() {
        let engine = Engine::start(
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
            FpFull::new,
        );
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| {
                engine
                    .submit(i, Request::ValidatePublicKey { key: bogus_key() })
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap(), Outcome::Validated(false));
        }
        let stats = engine.stats();
        assert_eq!(stats.validate, 12);
        engine.shutdown();
    }

    #[test]
    fn stats_snapshot_counts_latencies() {
        let engine = Engine::start(EngineConfig::default(), FpFull::new);
        for i in 0..5 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() })
                .unwrap()
                .wait();
        }
        let stats = engine.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.completed, 5);
        assert!(stats.p50_us.is_some());
        assert!(stats.p50_us <= stats.p99_us);
        assert!(stats.p99_us <= stats.max_us);
        engine.shutdown();
    }

    #[test]
    fn worker_counters_cover_all_answered_jobs() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        for i in 0..9 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() })
                .unwrap()
                .wait();
        }
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.worker_completed.len(), 2);
        assert_eq!(stats.worker_completed.iter().sum::<u64>(), stats.completed);
    }

    #[test]
    fn metrics_registry_exports_the_engine_counters() {
        let engine = Engine::start(
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
            FpFull::new,
        );
        for i in 0..4 {
            let _ = engine
                .submit(i, Request::ValidatePublicKey { key: bogus_key() })
                .unwrap()
                .wait();
        }
        // After the drain no worker is still adding to its counter.
        engine.shutdown();
        let text = engine.metrics().render_prometheus();
        // Rendering reads the instruments; it never adds to them.
        assert_eq!(engine.metrics().render_prometheus(), text);
        assert!(text.contains("mpise_engine_requests_submitted_total 4"));
        assert!(text.contains("mpise_engine_requests_completed_total{op=\"validate\"} 4"));
        assert!(text.contains("mpise_engine_worker_completed_total{worker=\"0\"}"));
        assert!(text.contains("mpise_engine_worker_completed_total{worker=\"1\"}"));
        assert!(text.contains("mpise_engine_latency_us_count 4"));
        mpise_obs::prom::validate(&text).expect("exported text must parse");
    }
}
