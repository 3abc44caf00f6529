//! Per-layer host timings down the Table 4 ladder: MPI, Fp (both host
//! radices and the simulator-backed field), curve, isogeny, the phases
//! of one traced group action, and public-key validation.

use crate::metered::RED_ISE;
use crate::refclock;
use crate::workload::{random_residue, Backend};
use mpise_csidh::batch::validate_many;
use mpise_csidh::isogeny::isogeny;
use mpise_csidh::mont::{is_infinity, xmul, Curve, Point};
use mpise_csidh::{group_action, scalar, validate, PrivateKey, PublicKey};
use mpise_engine::loadgen::Fixtures;
use mpise_fp::kernels::OpKind;
use mpise_fp::measure::KernelRunner;
use mpise_fp::params::{NUM_PRIMES, PRIMES};
use mpise_fp::simfp::SimFp;
use mpise_fp::{Csidh512, Fp, FpFull, FpRed};
use mpise_mpi::mul::{mul_ps, square_ps};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer results: `(metric name, value, unit)` in report order, and
/// the host ns per `[add, sub, mul, sqr]` of each backend for the
/// field-time model.
pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub full: [f64; 4],
    pub red: [f64; 4],
    pub sim: [f64; 4],
}

impl Layers {
    pub fn field_ns(&self, backend: Backend) -> [f64; 4] {
        match backend {
            Backend::Full => self.full,
            Backend::Red => self.red,
            Backend::Sim => self.sim,
        }
    }
}

/// Scalar validations timed for `validate_ms`.
const VALIDATIONS: usize = 3;
/// Lanes of the batch timed for `validate_many8_ms`.
const BATCH_LANES: usize = 8;

/// Median scaled nanoseconds per call of `f`, over batches sized to take
/// at least a millisecond each.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let before = refclock::reference_ns();
    let mut n = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) {
            break;
        }
        n *= 2;
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 7 || (samples.len() < 41 && start.elapsed() < Duration::from_millis(80)) {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(n));
    }
    crate::median(&mut samples) * refclock::scale(before, refclock::reference_ns())
}

/// Host ns per `[add, sub, mul, sqr]` of one backend.
fn field_ns<F: Fp>(f: &F, a: &F::Elem, b: &F::Elem) -> [f64; 4] {
    [
        per_call_ns(|| {
            black_box(f.add(black_box(a), black_box(b)));
        }),
        per_call_ns(|| {
            black_box(f.sub(black_box(a), black_box(b)));
        }),
        per_call_ns(|| {
            black_box(f.mul(black_box(a), black_box(b)));
        }),
        per_call_ns(|| {
            black_box(f.sqr(black_box(a)));
        }),
    ]
}

/// A point of order `PRIMES[i]` on `curve`, from random x-coordinates.
fn kernel_point(
    f: &FpFull,
    curve: &Curve<<FpFull as Fp>::Elem>,
    i: usize,
    rng: &mut StdRng,
) -> Point<<FpFull as Fp>::Elem> {
    let cofactor = scalar::four_times_product((0..NUM_PRIMES).filter(|&j| j != i));
    loop {
        let x = f.from_uint(&random_residue(rng));
        let k = xmul(f, curve, &Point { x, z: f.one() }, &cofactor);
        if !is_infinity(f, &k) {
            return k;
        }
    }
}

/// Runs the ladder with operands drawn from `rng`.
pub fn measure(rng: &mut StdRng) -> Layers {
    let mut metrics = Vec::new();
    let c = Csidh512::get();
    let (x, y) = (random_residue(rng), random_residue(rng));

    // MPI: 512x512-bit product scanning and Montgomery reduction.
    metrics.push((
        "mpi_mul_ns".into(),
        per_call_ns(|| {
            black_box(mul_ps(black_box(&x), black_box(&y)));
        }),
        "ns",
    ));
    metrics.push((
        "mpi_sqr_ns".into(),
        per_call_ns(|| {
            black_box(square_ps(black_box(&x)));
        }),
        "ns",
    ));
    let (lo, hi) = mul_ps(&x, &y);
    metrics.push((
        "mpi_redc_ns".into(),
        per_call_ns(|| {
            black_box(c.mont.redc(black_box(&lo), black_box(&hi)));
        }),
        "ns",
    ));

    // Fp on both host radices and on the simulated core.
    let full = FpFull::new();
    let full_ns = field_ns(&full, &full.from_uint(&x), &full.from_uint(&y));
    let red = FpRed::new();
    let red_ns = field_ns(&red, &red.from_uint(&x), &red.from_uint(&y));
    let sim = SimFp::new(RED_ISE);
    let sim_ns = field_ns(&sim, &sim.from_uint(&x), &sim.from_uint(&y));
    for (prefix, ns) in [("full", full_ns), ("red", red_ns)] {
        for (op, v) in ["add", "sub", "mul", "sqr"].iter().zip(ns) {
            metrics.push((format!("fp_{prefix}_{op}_ns"), v, "ns"));
        }
    }
    let xf = full.from_uint(&x);
    metrics.push((
        "fp_full_inv_us".into(),
        per_call_ns(|| {
            black_box(full.inv(black_box(&xf)));
        }) / 1e3,
        "us",
    ));

    // Simulator: host cost of one simulated Fp-mul kernel, interpreter
    // throughput, and the kernel's simulated cycles.
    metrics.push(("sim_mul_us".into(), sim_ns[2] / 1e3, "us"));
    let mut runner = KernelRunner::new(RED_ISE);
    let words = vec![1u64; RED_ISE.elem_words()];
    let (instret, ns) = refclock::scaled_ns(|| {
        let mut instret = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(200) {
            instret += runner.run_full(OpKind::FpMul, &[&words, &words]).1.instret;
        }
        instret
    });
    metrics.push(("sim_mips".into(), instret as f64 / ns * 1e3, "Minst/s"));
    let (_, mul_cycles) = runner.run(OpKind::FpMul, &[&words, &words]);
    metrics.push(("sim_mul_cycles".into(), mul_cycles as f64, "cycles"));

    // Curve and isogeny layers on E0 (full radix).
    let curve = Curve::from_affine(&full, full.zero());
    let base = Point {
        x: full.from_uint(&x),
        z: full.one(),
    };
    let k = random_residue(rng);
    metrics.push((
        "xmul_us".into(),
        per_call_ns(|| {
            black_box(xmul(&full, &curve, black_box(&base), black_box(&k)));
        }) / 1e3,
        "us",
    ));
    for (name, i) in [("isogeny3_us", 0), ("isogeny587_us", NUM_PRIMES - 1)] {
        let kernel = kernel_point(&full, &curve, i, rng);
        metrics.push((
            name.into(),
            per_call_ns(|| {
                black_box(isogeny(
                    &full,
                    &curve,
                    black_box(&base),
                    black_box(&kernel),
                    PRIMES[i],
                ));
            }) / 1e3,
            "us",
        ));
    }

    // Phases of one bound-5 action, from the program's own spans.
    let was = mpise_obs::enabled();
    mpise_obs::set_enabled(true);
    let _ = mpise_obs::take_spans();
    let key = PrivateKey::random(rng);
    let before = refclock::reference_ns();
    let _ = group_action(&full, rng, &PublicKey::BASE, &key);
    let factor = refclock::scale(before, refclock::reference_ns());
    mpise_obs::set_enabled(was);
    let tree = mpise_obs::take_spans();
    let action = tree
        .child("csidh.action")
        .expect("the action records its span");
    for (name, phase) in [
        ("action_isogeny_ms", "csidh.isogeny"),
        ("action_cofactor_ms", "csidh.cofactor"),
        ("action_sample_ms", "csidh.sample"),
        ("action_normalize_ms", "csidh.normalize"),
    ] {
        let ns = action.child(phase).map_or(0, |n| n.wall_ns);
        metrics.push((name.into(), ns as f64 * factor / 1e6, "ms"));
    }

    // Validation of a valid key: scalar, and per key in one 8-lane batch
    // (the engine's path).
    let key = Fixtures::generate(rng.gen()).valid1;
    let mut scalar_ms: Vec<f64> = (0..VALIDATIONS)
        .map(|_| {
            let (valid, ns) = refclock::scaled_ns(|| validate(&full, rng, &key));
            assert!(valid, "a derived key validates");
            ns / 1e6
        })
        .collect();
    metrics.push(("validate_ms".into(), crate::median(&mut scalar_ms), "ms"));
    let seeds: Vec<u64> = (0..BATCH_LANES).map(|_| rng.gen()).collect();
    let (verdicts, ns) =
        refclock::scaled_ns(|| validate_many(&full, &vec![key; BATCH_LANES], &seeds));
    assert!(verdicts.iter().all(|&v| v), "a derived key validates");
    metrics.push((
        "validate_many8_ms".into(),
        ns / 1e6 / BATCH_LANES as f64,
        "ms",
    ));

    Layers {
        metrics,
        full: full_ns,
        red: red_ns,
        sim: sim_ns,
    }
}
