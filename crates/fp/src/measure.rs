//! Kernel execution and cycle measurement on the Rocket pipeline model.
//!
//! This module is the software-evaluation harness of §4: it loads each
//! generated kernel into a simulated machine, validates its result
//! against a reference big-integer oracle on adversarial edges and
//! random inputs, checks the constant-time property (identical cycles,
//! `instret` and timing counters across inputs), and reports the cycle
//! counts that populate Table 4.
//!
//! It is the one home of the kernel-call ABI ([`kernel_machine`],
//! [`call_kernel`]), of the kernels' test inputs and oracle
//! ([`build_cases`], [`oracle_accepts`]), of the one kernel validator
//! ([`check_kernel`]) and of the one function that runs it over all 32
//! cells ([`kernel_matrix`]), which `bench` and the conformance
//! difftest both call; the ablation kernels reuse the operand
//! encodings.

use crate::kernels::{const_pool_full, const_pool_red, Config, KernelSet, OpKind, Radix};
use crate::params::{random_residue, Csidh512, FULL_LIMBS, RED_LIMBS};
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
/// operand and constant-pool pointers in `a0..a3`, and reads the first
/// `out.len()` result words into `out`. Returns the stats of the call.
///
/// # Errors
///
/// Propagates the [`RunError`] of a trapping kernel.
pub fn call_kernel(
    m: &mut Machine,
    inputs: &[&[u64]],
    out: &mut [u64],
) -> Result<RunStats, RunError> {
    for (&addr, words) in [OP1_ADDR, OP2_ADDR].iter().zip(inputs) {
        m.mem.write_limbs(addr, words).expect("operand fits");
    }
    let stats = m.call(&[
        (Reg::A0, RESULT_ADDR),
        (Reg::A1, OP1_ADDR),
        (Reg::A2, OP2_ADDR),
        (Reg::A3, CONST_ADDR),
    ])?;
    m.mem.read_limbs(RESULT_ADDR, out).expect("result readable");
    Ok(stats)
}

/// Executes the kernels of one configuration.
#[derive(Debug)]
pub struct KernelRunner {
    /// The configuration being run.
    pub config: Config,
    /// One pre-loaded machine per operation, indexed by `op as usize`
    /// (a fixed array, not a map — [`KernelRunner::run`] sits on the
    /// direct-simulation hot path of [`crate::simfp::SimFp`]).
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
        let mut out = vec![0; op.shape(&self.config).1];
        let stats = self.run_into(op, inputs, &mut out);
        (out, stats)
    }

    /// Like [`KernelRunner::run_full`] but writes the result words into
    /// `out`, which must be exactly as long as the kernel's result, and
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on a wrong operand count or result length, or if the
    /// kernel traps — generated kernels are straight-line and must not
    /// fault.
    pub fn run_into(&mut self, op: OpKind, inputs: &[&[u64]], out: &mut [u64]) -> RunStats {
        assert_eq!(inputs.len(), op.arity(), "wrong operand count for {op:?}");
        assert_eq!(out.len(), op.shape(&self.config).1, "wrong result length");
        let stats = call_kernel(&mut self.machines[op as usize], inputs, out)
            .unwrap_or_else(|e| panic!("{:?} kernel trapped: {e}", op));
        // Sole choke point for simulated-cost attribution: every
        // simulator-backed field op funnels through here, so the cycles
        // are charged to the innermost open telemetry span exactly once.
        mpise_obs::add_sim_cost(stats.cycles, stats.instret);
        stats
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
fn random_inputs(rng: &mut StdRng, op: OpKind, radix: Radix) -> Vec<Vec<u64>> {
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

/// Adversarial canonical residues: identities, the top of the range and
/// limb-boundary carry patterns (all limbs saturated, the 57-bit radix
/// boundary, a single bit straddling limb 4).
pub fn edge_residues() -> Vec<U512> {
    let p = Csidh512::get().p;
    let pm1 = p.wrapping_sub(&U512::ONE);
    let mut low_ones = [0u64; FULL_LIMBS];
    for l in low_ones.iter_mut().take(FULL_LIMBS / 2) {
        *l = u64::MAX;
    }
    let mask57 = (1u64 << 57) - 1;
    vec![
        U512::ZERO,
        U512::ONE,
        pm1,
        U512::from_limbs(low_ones),
        U512::from_limbs([mask57; FULL_LIMBS]),
        U512::ONE.shl(57),
        U512::ONE.shl(57 * 4),
        U512::ONE.shl(256).wrapping_sub(&U512::ONE),
    ]
}

/// Builds the input case list for one op: every per-op adversarial
/// edge first, then `random` valid random cases drawn from `seed`.
pub fn build_cases(op: OpKind, radix: Radix, random: usize, seed: u64) -> Vec<Vec<Vec<u64>>> {
    let p = Csidh512::get().p;
    let edges = edge_residues();
    // Every edge times the last edge (2^256 − 1), then every edge squared.
    let top = *edges.last().expect("non-empty");
    let residue_pairs = edges
        .iter()
        .map(|&e| (e, top))
        .chain(edges.iter().map(|&e| (e, e)));
    let words = |v: &U512| element_words(radix, v);
    let mut out: Vec<Vec<Vec<u64>>> = match op {
        OpKind::IntMul | OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul => residue_pairs
            .map(|(a, b)| vec![words(&a), words(&b)])
            .collect(),
        OpKind::IntSqr | OpKind::FpSqr => edges.iter().map(|e| vec![words(e)]).collect(),
        // Inputs range over [0, 2p): include the boundary values p and
        // 2p−1 that no canonical-residue generator produces.
        OpKind::FastReduce => [
            U512::ZERO,
            U512::ONE,
            p.wrapping_sub(&U512::ONE),
            p,
            p.wrapping_add(&U512::ONE),
            p.wrapping_add(&p).wrapping_sub(&U512::ONE),
        ]
        .iter()
        .map(|v| vec![words(v)])
        .collect(),
        // Double-length products of the edge pairs: 0·0, (p−1)², the
        // saturated-limb squares, and each edge times 2^256 − 1.
        OpKind::MontRedc => residue_pairs
            .map(|(a, b)| vec![product_words(radix, &a, &b)])
            .collect(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    out.extend((0..random).map(|_| random_inputs(&mut rng, op, radix)));
    out
}

/// The one kernel validator: runs `op` on every case of `cases` (see
/// [`build_cases`]) and returns its cost, which must be constant.
///
/// # Errors
///
/// Returns a description of the first failure: a result the
/// [`oracle_accepts`] oracle rejects, or cycles, `instret` or
/// [`TimingStats`] that differ from the first case's.
pub fn check_kernel(
    runner: &mut KernelRunner,
    op: OpKind,
    cases: &[Vec<Vec<u64>>],
) -> Result<OpMeasurement, String> {
    let _span = mpise_obs::span(op.span_name());
    let config = runner.config;
    let mut seen: Option<OpMeasurement> = None;
    for (case, inputs) in cases.iter().enumerate() {
        let refs: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let (out, stats) = runner.run_full(op, &refs);
        if !oracle_accepts(op, config.radix, &refs, &out) {
            return Err(format!("{config}: {op:?} wrong result on case {case}"));
        }
        let m = OpMeasurement {
            op,
            cycles: stats.cycles,
            instret: stats.instret,
            timing: stats.timing,
        };
        match seen {
            Some(first) if first != m => {
                return Err(format!(
                    "{config}: {op:?} is not constant-time on case {case} \
                     ({first:?} vs {m:?})"
                ));
            }
            _ => seen = Some(m),
        }
    }
    Ok(seen.expect("at least one case"))
}

/// Random validation cases per kernel, after its edge cases, in
/// `bench`'s kernel matrix.
pub const VALIDATION_CASES: usize = 2;

/// One cell of the kernel matrix: an operation of one configuration,
/// run through [`check_kernel`].
#[derive(Debug, Clone)]
pub struct KernelCell {
    /// Cases run: the op's edge cases, then the random ones.
    pub cases: usize,
    /// The kernel's constant cost, or the first failure.
    pub result: Result<OpMeasurement, String>,
}

/// The Table 4 kernel matrix: every operation of every configuration
/// run through [`check_kernel`] on its edge cases and `random` seeded
/// random cases, with one worker thread per configuration.
///
/// Results come back in [`Config::ALL`] order, one cell per
/// [`OpKind::ALL`] entry, and are deterministic: cell `(ci, oi)` draws
/// its random cases from `seed ^ ci << 32 ^ oi << 16`.
///
/// # Panics
///
/// Panics if a worker thread panics (a trapping kernel).
pub fn kernel_matrix(random: usize, seed: u64) -> Vec<(Config, Vec<KernelCell>)> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = Config::ALL
            .iter()
            .enumerate()
            .map(|(ci, &config)| {
                scope.spawn(move || {
                    let _span = mpise_obs::span("fp.measure");
                    let mut runner = KernelRunner::new(config);
                    let cells = OpKind::ALL.iter().enumerate().map(|(oi, &op)| {
                        let seed = seed ^ ((ci as u64) << 32) ^ ((oi as u64) << 16);
                        let cases = build_cases(op, config.radix, random, seed);
                        KernelCell {
                            cases: cases.len(),
                            result: check_kernel(&mut runner, op, &cases),
                        }
                    });
                    (config, cells.collect())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("kernel matrix worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_runs_all_its_edges_then_the_random_cases() {
        let edges = |op| match op {
            OpKind::IntSqr | OpKind::FpSqr => 8,
            OpKind::FastReduce => 6,
            _ => 16,
        };
        let pm1 = RefInt::from_limbs(Csidh512::get().p.limbs()).sub(&RefInt::one());
        for radix in [Radix::Full, Radix::Reduced] {
            for op in OpKind::ALL {
                let cases = build_cases(op, radix, 3, 0xD1FF);
                assert_eq!(cases.len(), edges(op) + 3, "{radix}: {op:?}");
                if op == OpKind::MontRedc {
                    assert!(
                        cases.iter().any(|c| radix.value(&c[0]) == pm1.mul(&pm1)),
                        "{radix}: MontRedc never reduces (p-1)^2"
                    );
                }
            }
        }
    }

    #[test]
    fn edge_residues_are_canonical() {
        let p = Csidh512::get().p;
        for e in edge_residues() {
            assert!(e < p);
        }
    }

    #[test]
    fn check_kernel_reports_the_first_rejected_case() {
        let config = Config::ALL[0];
        let mut runner = KernelRunner::new(config);
        let mut cases = build_cases(OpKind::FastReduce, config.radix, 1, 7);
        check_kernel(&mut runner, OpKind::FastReduce, &cases).expect("valid cases pass");
        // 2p + 1 is outside FastReduce's [0, 2p) contract: one
        // conditional subtraction of p leaves p + 1, not 1.
        let p = Csidh512::get().p;
        let beyond = p.wrapping_add(&p).wrapping_add(&U512::ONE);
        cases.push(vec![element_words(config.radix, &beyond)]);
        let err = check_kernel(&mut runner, OpKind::FastReduce, &cases).unwrap_err();
        let last = cases.len() - 1;
        assert_eq!(
            err,
            format!("{config}: FastReduce wrong result on case {last}")
        );
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
