//! Kernel execution and cycle measurement on the Rocket pipeline model.
//!
//! This module is the software-evaluation harness of §4: it loads each
//! generated kernel into a simulated machine, validates its result
//! against a reference big-integer oracle on random inputs, checks the
//! constant-time property (identical cycle counts across inputs), and
//! reports the cycle counts that populate Table 4.
//!
//! It is the one home of the kernel-call ABI ([`kernel_machine`],
//! [`call_kernel`]) and of the kernels' test inputs and oracle
//! ([`random_inputs`], [`oracle_accepts`]), which the conformance
//! difftest and the ablation kernels reuse.

use crate::kernels::{const_pool_full, const_pool_red, Config, KernelSet, OpKind, Radix};
use crate::params::{Csidh512, RED_LIMBS};
use mpise_mpi::reference::RefInt;
use mpise_mpi::{mul as mpi_mul, U512};
use mpise_sim::asm::Program;
use mpise_sim::machine::{RunError, RunStats, DATA_BASE};
use mpise_sim::timing::TimingStats;
use mpise_sim::{Machine, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Kernel-call ABI memory layout: the result, the two operands and the
/// constant pool each get a slot in the machine's data memory.
const RESULT_ADDR: u64 = DATA_BASE;
const OP1_ADDR: u64 = DATA_BASE + 0x100;
const OP2_ADDR: u64 = DATA_BASE + 0x200;
const CONST_ADDR: u64 = DATA_BASE + 0x300;

/// Builds a machine for `config` — its ISA extension, its radix's
/// constant pool in place — with `program` loaded.
pub fn kernel_machine(config: Config, program: &Program) -> Machine {
    let pool = match config.radix {
        Radix::Full => const_pool_full(),
        Radix::Reduced => const_pool_red(),
    };
    let mut m = Machine::with_ext(config.extension());
    m.load_program(program);
    m.mem
        .write_limbs(CONST_ADDR, &pool)
        .expect("constant pool fits");
    m
}

/// Calls the loaded kernel under the kernel-call ABI (see
/// [`crate::kernels`]): writes one or two operands, passes the result,
/// operand and constant-pool pointers in `a0..a3`, and returns the first
/// `out_words` result words with the stats of the call.
///
/// # Errors
///
/// Propagates the [`RunError`] of a trapping kernel.
pub fn call_kernel(
    m: &mut Machine,
    inputs: &[&[u64]],
    out_words: usize,
) -> Result<(Vec<u64>, RunStats), RunError> {
    for (&addr, words) in [OP1_ADDR, OP2_ADDR].iter().zip(inputs) {
        m.mem.write_limbs(addr, words).expect("operand fits");
    }
    let stats = m.call(&[
        (Reg::A0, RESULT_ADDR),
        (Reg::A1, OP1_ADDR),
        (Reg::A2, OP2_ADDR),
        (Reg::A3, CONST_ADDR),
    ])?;
    let out = m
        .mem
        .read_limbs(RESULT_ADDR, out_words)
        .expect("result readable");
    Ok((out, stats))
}

/// Executes the kernels of one configuration.
#[derive(Debug)]
pub struct KernelRunner {
    /// The configuration being run.
    pub config: Config,
    /// One pre-loaded machine per operation, indexed by `op as usize`
    /// (a fixed array, not a map — [`KernelRunner::run`] sits on the
    /// full-simulation hot path of [`crate::simfp::SimFp`]).
    machines: [Machine; OpKind::ALL.len()],
}

impl KernelRunner {
    /// Builds machines (with the right ISA extension and constant pool)
    /// for every kernel of `config`.
    pub fn new(config: Config) -> Self {
        let set = KernelSet::build(config);
        let machines = OpKind::ALL.map(|op| kernel_machine(config, set.kernel(op)));
        KernelRunner { config, machines }
    }

    /// Runs one kernel on the given operand word arrays; returns the
    /// result words and the cycle count of the call.
    ///
    /// # Panics
    ///
    /// Panics if the kernel traps — generated kernels are straight-line
    /// and must not fault.
    pub fn run(&mut self, op: OpKind, inputs: &[&[u64]]) -> (Vec<u64>, u64) {
        let (out, stats) = self.run_full(op, inputs);
        (out, stats.cycles)
    }

    /// Like [`KernelRunner::run`] but returns the full per-call
    /// [`RunStats`] (instret, cycles, per-class timing deltas).
    ///
    /// # Panics
    ///
    /// Panics if the kernel traps — generated kernels are straight-line
    /// and must not fault.
    pub fn run_full(&mut self, op: OpKind, inputs: &[&[u64]]) -> (Vec<u64>, RunStats) {
        assert_eq!(inputs.len(), op.arity(), "wrong operand count for {op:?}");
        let (_, out_words) = op.shape(&self.config);
        let (out, stats) = call_kernel(&mut self.machines[op as usize], inputs, out_words)
            .unwrap_or_else(|e| panic!("{:?} kernel trapped: {e}", op));
        // Sole choke point for simulated-cost attribution: every
        // simulator-backed field op funnels through here, so the cycles
        // are charged to the innermost open telemetry span exactly once.
        mpise_obs::add_sim_cost(stats.cycles, stats.instret);
        (out, stats)
    }
}

/// The measured cost of one Table 4 operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMeasurement {
    /// The operation.
    pub op: OpKind,
    /// Cycles per call on the Rocket pipeline model.
    pub cycles: u64,
    /// Instructions retired per call.
    pub instret: u64,
    /// Per-class retirement and stall counters for one call.
    pub timing: TimingStats,
}

/// Draws a random canonical residue (`< p`): eight random words with
/// the top bit cleared, rejected until below `p`.
pub fn random_residue(rng: &mut StdRng) -> U512 {
    let p = Csidh512::get().p;
    loop {
        let cand = U512::from_limbs(std::array::from_fn(|_| rng.gen())).and(&U512::MAX.shr(1));
        if cand < p {
            return cand;
        }
    }
}

/// Encodes `v` (`< 2^512`) in the element word layout of `radix`.
pub fn element_words(radix: Radix, v: &U512) -> Vec<u64> {
    let mut words = vec![0; radix.words()];
    radix.pack(v, &mut words);
    words
}

/// The double-length product `a · b` in the word layout of `radix` (a
/// valid `MontRedc` input).
pub fn product_words(radix: Radix, a: &U512, b: &U512) -> Vec<u64> {
    match radix {
        Radix::Full => {
            let (lo, hi) = mpi_mul::mul_ps(a, b);
            [*lo.limbs(), *hi.limbs()].concat()
        }
        Radix::Reduced => {
            let mut t = vec![0u64; 2 * RED_LIMBS];
            mpise_mpi::reduced::mul_ps_slices_57(
                &element_words(radix, a),
                &element_words(radix, b),
                &mut t,
            );
            t
        }
    }
}

/// Generates valid random inputs for `op`: canonical residues, a value
/// in `[0, 2p)` for `FastReduce`, and a product of two residues for
/// `MontRedc`.
pub fn random_inputs(rng: &mut StdRng, op: OpKind, radix: Radix) -> Vec<Vec<u64>> {
    let residue = |rng: &mut StdRng| element_words(radix, &random_residue(rng));
    match op {
        OpKind::IntMul | OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul => {
            vec![residue(rng), residue(rng)]
        }
        OpKind::IntSqr | OpKind::FpSqr => vec![residue(rng)],
        OpKind::FastReduce => {
            let a = random_residue(rng);
            let v = if rng.gen::<bool>() {
                a.wrapping_add(&Csidh512::get().p)
            } else {
                a
            };
            vec![element_words(radix, &v)]
        }
        OpKind::MontRedc => {
            let (a, b) = (random_residue(rng), random_residue(rng));
            vec![product_words(radix, &a, &b)]
        }
    }
}

/// The reference oracle for the Table 4 kernels, in [`RefInt`]
/// arithmetic alone: whether `out` is a correct result of `op` on
/// `inputs` in the word layout of `radix`.
///
/// Every result must match exactly, except `MontRedc`: its kernels
/// return any representative in `[0, 2p)`, so it is compared mod `p`
/// with a range check.
pub fn oracle_accepts(op: OpKind, radix: Radix, inputs: &[&[u64]], out: &[u64]) -> bool {
    // R^{-1} mod p for R = 2^512 (full) or 2^513 (reduced), by Fermat.
    static R_INV: OnceLock<[RefInt; 2]> = OnceLock::new();
    let p = RefInt::from_limbs(Csidh512::get().p.limbs());
    let r_inv = &R_INV.get_or_init(|| {
        let pm2 = RefInt::from_limbs(Csidh512::get().p_minus_2.limbs());
        [Radix::Full, Radix::Reduced].map(|r| {
            RefInt::one()
                .shl(r.digit_bits() * r.words())
                .powmod(&pm2, &p)
        })
    })[radix as usize];
    let a = radix.value(inputs[0]);
    let b = || radix.value(inputs[1]);
    let got = radix.value(out);
    let want = match op {
        OpKind::IntMul => a.mul(&b()),
        OpKind::IntSqr => a.mul(&a),
        OpKind::MontRedc => {
            let two_p = p.add(&p);
            return got.rem(&p) == a.mulmod(r_inv, &p)
                && got.cmp_ref(&two_p) == std::cmp::Ordering::Less;
        }
        OpKind::FastReduce => a.rem(&p),
        OpKind::FpAdd => a.add(&b()).rem(&p),
        OpKind::FpSub => a.add(&p).sub(&b()).rem(&p),
        OpKind::FpMul => a.mulmod(&b(), &p).mulmod(r_inv, &p),
        OpKind::FpSqr => a.mulmod(&a, &p).mulmod(r_inv, &p),
    };
    got == want
}

/// Validates one kernel on `iterations` random inputs and returns its
/// (constant) cost.
///
/// # Errors
///
/// Returns a description of the first mismatch: wrong value, value out
/// of canonical range, or input-dependent timing.
pub fn validate_and_measure(
    runner: &mut KernelRunner,
    op: OpKind,
    iterations: usize,
    seed: u64,
) -> Result<OpMeasurement, String> {
    let _span = mpise_obs::span(op.span_name());
    let mut rng = StdRng::seed_from_u64(seed);
    let config = runner.config;
    let mut seen: Option<OpMeasurement> = None;
    for it in 0..iterations {
        let inputs = random_inputs(&mut rng, op, config.radix);
        let input_refs: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let (out, stats) = runner.run_full(op, &input_refs);
        if !oracle_accepts(op, config.radix, &input_refs, &out) {
            return Err(format!("{config}: {op:?} wrong result on iteration {it}"));
        }
        match &seen {
            None => {
                seen = Some(OpMeasurement {
                    op,
                    cycles: stats.cycles,
                    instret: stats.instret,
                    timing: stats.timing,
                });
            }
            Some(m) if m.cycles != stats.cycles => {
                return Err(format!(
                    "{config}: {op:?} is not constant-time ({} vs {} cycles)",
                    m.cycles, stats.cycles
                ));
            }
            _ => {}
        }
    }
    Ok(seen.expect("at least one iteration"))
}

/// Measures all eight Table 4 operations for one configuration,
/// validating each against the host arithmetic.
///
/// # Panics
///
/// Panics on any validation failure (a kernel bug).
pub fn measure_config(config: Config, iterations: usize) -> Vec<OpMeasurement> {
    let _span = mpise_obs::span("fp.measure");
    let mut runner = KernelRunner::new(config);
    OpKind::ALL
        .iter()
        .map(|&op| {
            validate_and_measure(&mut runner, op, iterations, 0xC51D + op as u64)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// Measures the whole Table 4 matrix — all four configurations × all
/// eight operations — with one worker thread per configuration.
///
/// Each configuration owns its machines, so the four columns are
/// embarrassingly parallel; results come back in [`Config::ALL`] order
/// and are deterministic (same seeds as [`measure_config`]).
///
/// # Panics
///
/// Panics on any validation failure (a kernel bug) or if a worker
/// thread panics.
pub fn measure_matrix_parallel(iterations: usize) -> Vec<(Config, Vec<OpMeasurement>)> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = Config::ALL
            .iter()
            .map(|&config| scope.spawn(move || (config, measure_config(config, iterations))))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("measurement worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_isa_kernels_validate() {
        let mut runner = KernelRunner::new(Config::ALL[0]);
        for op in OpKind::ALL {
            validate_and_measure(&mut runner, op, 3, 1).unwrap();
        }
    }

    #[test]
    fn full_ise_kernels_validate() {
        let mut runner = KernelRunner::new(Config::ALL[1]);
        for op in OpKind::ALL {
            validate_and_measure(&mut runner, op, 3, 2).unwrap();
        }
    }

    #[test]
    fn red_isa_kernels_validate() {
        let mut runner = KernelRunner::new(Config::ALL[2]);
        for op in OpKind::ALL {
            validate_and_measure(&mut runner, op, 3, 3).unwrap();
        }
    }

    #[test]
    fn red_ise_kernels_validate() {
        let mut runner = KernelRunner::new(Config::ALL[3]);
        for op in OpKind::ALL {
            validate_and_measure(&mut runner, op, 3, 4).unwrap();
        }
    }

    #[test]
    fn oracle_accepts_known_small_values() {
        // 3 · 5 = 15 through the IntMul oracle in both radices.
        for radix in [Radix::Full, Radix::Reduced] {
            let w = |v| element_words(radix, &U512::from_u64(v));
            let (a, b) = (w(3), w(5));
            let product = |v| [w(v), vec![0; radix.words()]].concat();
            let accepts = |v| oracle_accepts(OpKind::IntMul, radix, &[&a, &b], &product(v));
            assert!(accepts(15) && !accepts(16));
        }
    }

    #[test]
    fn radix_codec_round_trips() {
        let mut rng = StdRng::seed_from_u64(5);
        for radix in [Radix::Full, Radix::Reduced] {
            let v = random_residue(&mut rng);
            let words = element_words(radix, &v);
            assert_eq!(radix.unpack(&words), v);
            assert_eq!(radix.value(&words), RefInt::from_limbs(v.limbs()));
        }
    }
}
