//! The engine's memory stays flat under sustained traffic: recording a
//! response touches fixed-size instruments only, so live heap does not
//! grow with the number of requests answered.
//!
//! This file is its own test binary with a single test, so the counting
//! allocator below sees only this engine (and the harness).

use mpise_csidh::PublicKey;
use mpise_engine::{Engine, EngineConfig, Outcome, Request};
use mpise_fp::FpFull;
use mpise_mpi::U512;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes: allocations minus deallocations.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A = 2 is singular: rejected before any field arithmetic.
fn bogus_key() -> PublicKey {
    PublicKey {
        a: U512::from_u64(2),
    }
}

fn validate_bogus(engine: &Engine, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let ticket = engine
            .submit(seed, Request::ValidatePublicKey { key: bogus_key() }, None)
            .unwrap();
        assert_eq!(ticket.wait(), Ok(Outcome::Validated(false)));
    }
}

#[test]
fn live_heap_stays_flat_over_20k_requests() {
    let engine = Engine::start(
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
        FpFull::new,
    );
    // Warm-up: queue storage, thread-locals and channel caches reach
    // their steady size.
    validate_bogus(&engine, 0..2_000);
    let before = LIVE.load(Ordering::Relaxed);
    validate_bogus(&engine, 2_000..22_000);
    let growth = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(engine.stats().validate, 22_000);
    assert!(
        growth < 64 * 1024,
        "live heap grew {growth} bytes over 20,000 requests"
    );
    engine.shutdown();
}
