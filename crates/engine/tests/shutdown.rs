//! Queue-shutdown edge cases: graceful drain, post-shutdown
//! submissions, abandoned tickets, idempotence, and refused requests.

use mpise_csidh::PublicKey;
use mpise_engine::{Engine, EngineConfig, EngineError, Outcome, Request};
use mpise_fp::FpFull;
use mpise_mpi::U512;

/// A = 2 is singular, so validation rejects it before any field
/// arithmetic — near-instant even in debug builds.
fn bogus_key() -> PublicKey {
    PublicKey {
        a: U512::from_u64(2),
    }
}

#[test]
fn submit_after_shutdown_returns_error_without_panicking() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );
    engine.shutdown();

    let req = Request::ValidatePublicKey { key: bogus_key() };
    for seed in 1..3 {
        assert_eq!(engine.submit(seed, req).err(), Some(EngineError::ShutDown));
    }

    let stats = engine.stats();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.rejected, 2);
}

#[test]
fn inflight_requests_complete_during_drain() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );

    // One slow request (a genuine supersingular validation) keeps the
    // single worker busy while four cheap ones queue up behind it.
    let mut tickets = vec![engine
        .submit(
            0,
            Request::ValidatePublicKey {
                key: PublicKey::BASE,
            },
        )
        .unwrap()];
    for seed in 1..5 {
        tickets.push(
            engine
                .submit(seed, Request::ValidatePublicKey { key: bogus_key() })
                .unwrap(),
        );
    }

    // Close-then-drain: shutdown refuses new work but every accepted
    // request must still be answered.
    engine.shutdown();

    let mut verdicts = Vec::new();
    for ticket in tickets {
        match ticket.wait() {
            Ok(Outcome::Validated(v)) => verdicts.push(v),
            other => panic!("expected a verdict, got {other:?}"),
        }
    }
    assert_eq!(verdicts, vec![true, false, false, false, false]);

    let stats = engine.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.queue_depth, 0, "drain leaves nothing queued");
}

#[test]
fn dropped_tickets_are_still_answered() {
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );

    // Occupy the worker with a slow validation, then queue three
    // validations and a keygen and drop their tickets before the
    // worker can claim them.
    let busy = engine
        .submit(
            0,
            Request::ValidatePublicKey {
                key: PublicKey::BASE,
            },
        )
        .unwrap();
    for seed in 1..4 {
        drop(
            engine
                .submit(seed, Request::ValidatePublicKey { key: bogus_key() })
                .unwrap(),
        );
    }
    drop(engine.submit(4, Request::Keygen { bound: 0 }).unwrap());

    // A later request is served behind the abandoned ones.
    let later = engine
        .submit(5, Request::ValidatePublicKey { key: bogus_key() })
        .unwrap();
    assert_eq!(busy.wait(), Ok(Outcome::Validated(true)));
    assert_eq!(later.wait(), Ok(Outcome::Validated(false)));
    engine.shutdown();

    // The worker answered every accepted request, abandoned or not.
    let stats = engine.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.completed, 6);
    assert_eq!((stats.validate, stats.keygen), (5, 1));
    assert_eq!(stats.worker_completed.iter().sum::<u64>(), stats.completed);
}

#[test]
fn shutdown_is_idempotent() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    engine.shutdown();
    engine.shutdown();
    let req = Request::Keygen { bound: 0 };
    assert_eq!(engine.submit(1, req).err(), Some(EngineError::ShutDown));
    // Drop runs shutdown a third time; it must not panic or hang.
}

#[test]
fn negative_keygen_bound_is_refused_and_workers_survive() {
    // Regression: a negative bound is an empty exponent range, which
    // used to panic the worker that claimed it; with every worker dead
    // the engine answered nothing more.
    let engine = Engine::start(
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
        FpFull::new,
    );
    let req = Request::Keygen { bound: -1 };
    assert_eq!(
        engine.submit(1, req).err(),
        Some(EngineError::InvalidRequest)
    );
    let ticket = engine
        .submit(2, Request::ValidatePublicKey { key: bogus_key() })
        .unwrap();
    assert_eq!(ticket.wait(), Ok(Outcome::Validated(false)));

    let stats = engine.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 1);
    engine.shutdown();
}
