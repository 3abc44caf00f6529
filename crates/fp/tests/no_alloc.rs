//! Pins that the field arithmetic never touches the heap.
//!
//! A counting global allocator tallies the allocations made by the
//! current thread. Every `FpFull`/`FpRed` operation, both Montgomery
//! reductions and the simulated `SimFp` add/sub/mul/sqr must leave that
//! tally unchanged, so a `vec!` or `collect` reintroduced on a
//! mul/sqr/redc path or on the simulator's kernel-call path fails here.

use mpise_fp::kernels::Config;
use mpise_fp::params::RED_LIMBS;
use mpise_fp::simfp::SimFp;
use mpise_fp::{Csidh512, Fp, FpFull, FpRed};
use mpise_mpi::reduced::mul_ps_slices_57;
use mpise_mpi::{Reduced, U512};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts allocations per thread,
/// so tests running in parallel do not see each other's.
struct Counting;

fn count() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// thread-local `Cell` and never allocates. The trait's default
// `alloc_zeroed` and `realloc` go through `alloc`, so they are counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and asserts that this thread allocated nothing meanwhile.
fn assert_no_alloc(what: &str, f: impl FnOnce()) {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "{what} allocated {allocated} time(s)");
}

/// Seeded inputs, drawn before any counting starts: values below 2^512
/// (so imports exercise the fold modulo p) and one zero.
fn inputs(seed: u64) -> [U512; 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = [U512::ZERO; 4];
    for x in &mut v[1..] {
        *x = U512::from_limbs(std::array::from_fn(|_| rng.gen()));
    }
    v
}

fn field_ops_do_not_allocate<F: Fp>(f: &F, seed: u64) {
    // Initialise the process-wide parameters outside the counted region.
    let _ = Csidh512::get();
    let vals = inputs(seed);
    let elems = vals.map(|v| f.from_uint(&v));
    for (v, a) in vals.iter().zip(&elems) {
        for b in &elems {
            assert_no_alloc("add", || {
                black_box(f.add(black_box(a), black_box(b)));
            });
            assert_no_alloc("sub", || {
                black_box(f.sub(black_box(a), black_box(b)));
            });
            assert_no_alloc("mul", || {
                black_box(f.mul(black_box(a), black_box(b)));
            });
        }
        assert_no_alloc("sqr", || {
            black_box(f.sqr(black_box(a)));
        });
        assert_no_alloc("from_uint", || {
            black_box(f.from_uint(black_box(v)));
        });
        assert_no_alloc("to_uint", || {
            black_box(f.to_uint(black_box(a)));
        });
        assert_no_alloc("inv", || {
            black_box(f.inv(black_box(a)));
        });
        assert_no_alloc("legendre", || {
            black_box(f.legendre(black_box(a)));
        });
    }
}

#[test]
fn full_radix_field_ops_do_not_allocate() {
    field_ops_do_not_allocate(&FpFull::new(), 1);
}

#[test]
fn reduced_radix_field_ops_do_not_allocate() {
    field_ops_do_not_allocate(&FpRed::new(), 2);
}

#[test]
fn montgomery_reductions_do_not_allocate() {
    let params = Csidh512::get();
    let pm1 = params.p.wrapping_sub(&U512::ONE);
    let full: [(U512, U512); 3] = [
        (U512::ZERO, U512::ZERO),
        (U512::MAX, pm1),
        mpise_mpi::mul::mul_ps(&pm1, &pm1),
    ];
    for (lo, hi) in &full {
        assert_no_alloc("MontCtx::redc", || {
            black_box(params.mont.redc(black_box(lo), black_box(hi)));
        });
    }

    let pm1: Reduced<RED_LIMBS> = Reduced::from_uint(&pm1);
    let mut t = [[0u64; RED_LIMBS]; 2];
    mul_ps_slices_57(pm1.limbs(), pm1.limbs(), t.as_flattened_mut());
    assert_no_alloc("MontCtx57::redc", || {
        black_box(params.mont57.redc(black_box(t.as_flattened())));
    });
}

#[test]
fn simulated_field_ops_do_not_allocate() {
    let _ = Csidh512::get();
    for (k, config) in Config::ALL.into_iter().enumerate() {
        let f = SimFp::new(config);
        let elems = inputs(10 + k as u64).map(|v| f.from_uint(&v));
        for a in &elems {
            for b in &elems {
                assert_no_alloc("SimFp add", || {
                    black_box(f.add(black_box(a), black_box(b)));
                });
                assert_no_alloc("SimFp sub", || {
                    black_box(f.sub(black_box(a), black_box(b)));
                });
                assert_no_alloc("SimFp mul", || {
                    black_box(f.mul(black_box(a), black_box(b)));
                });
            }
            assert_no_alloc("SimFp sqr", || {
                black_box(f.sqr(black_box(a)));
            });
        }
    }
}
