//! A field backend that runs every add, sub, mul and sqr on the simulator.
//!
//! [`SimFp`] implements [`Fp`] by running the generated kernels of one
//! configuration on the Rocket pipeline model for every `add`, `sub`,
//! `mul` and `sqr`, accumulating the total simulated cycle count. Run
//! under a CSIDH group action, every Fp add/sub/mul/sqr of the action is
//! a simulated kernel call: the direct-mode reproduction of the last row
//! of Table 4 (the op-count × per-op-cost estimate is the fast mode;
//! both are reported in EXPERIMENTS.md). The rest of the action — its
//! control code, point bookkeeping, RNG draws and the Montgomery-domain
//! conversions of [`Fp::from_uint`]/[`Fp::to_uint`] — runs on the host
//! and is charged zero cycles, so the count covers field kernels only.

use crate::backend::Fp;
use crate::kernels::{Config, OpKind, Radix};
use crate::measure::KernelRunner;
use crate::params::{Csidh512, FULL_LIMBS, RED_LIMBS};
use mpise_mpi::{Reduced, U512};
use std::cell::{Cell, RefCell};

/// Element representation: the kernel word layout padded to the
/// maximum limb count (reduced-radix uses all 9 words, full-radix the
/// first 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimElem {
    words: [u64; RED_LIMBS],
}

/// Simulator-backed CSIDH-512 field (see module docs).
///
/// # Examples
///
/// ```
/// use mpise_fp::simfp::SimFp;
/// use mpise_fp::kernels::Config;
/// use mpise_fp::Fp;
/// use mpise_mpi::U512;
///
/// let f = SimFp::new(Config::ALL[3]); // reduced-radix, ISE-supported
/// let a = f.from_uint(&U512::from_u64(6));
/// let b = f.from_uint(&U512::from_u64(7));
/// assert_eq!(f.to_uint(&f.mul(&a, &b)), U512::from_u64(42));
/// assert!(f.cycles() > 0);
/// ```
#[derive(Debug)]
pub struct SimFp {
    config: Config,
    runner: RefCell<KernelRunner>,
    cycles: Cell<u64>,
    calls: Cell<u64>,
}

impl SimFp {
    /// Builds the simulator backend for one configuration.
    pub fn new(config: Config) -> Self {
        SimFp {
            config,
            runner: RefCell::new(KernelRunner::new(config)),
            cycles: Cell::new(0),
            calls: Cell::new(0),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Total simulated cycles spent in field kernels so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Total kernel calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Resets the cycle and call counters.
    pub fn reset(&self) {
        self.cycles.set(0);
        self.calls.set(0);
    }

    fn words(&self) -> usize {
        self.config.elem_words()
    }

    fn run(&self, op: OpKind, operands: &[&SimElem]) -> SimElem {
        let _span = mpise_obs::span(op.span_name());
        let n = self.words();
        let mut words = [0u64; RED_LIMBS];
        let out = &mut words[..n];
        let mut runner = self.runner.borrow_mut();
        let stats = match *operands {
            [a] => runner.run_into(op, &[&a.words[..n]], out),
            [a, b] => runner.run_into(op, &[&a.words[..n], &b.words[..n]], out),
            _ => unreachable!("field kernels take one or two operands"),
        };
        self.cycles.set(self.cycles.get() + stats.cycles);
        self.calls.set(self.calls.get() + 1);
        SimElem { words }
    }

    fn pack(&self, v: &U512) -> SimElem {
        let mut words = [0u64; RED_LIMBS];
        self.config.radix.pack(v, &mut words);
        SimElem { words }
    }

    fn unpack(&self, e: &SimElem) -> U512 {
        self.config.radix.unpack(&e.words)
    }
}

impl Fp for SimFp {
    type Elem = SimElem;

    fn zero(&self) -> SimElem {
        SimElem {
            words: [0; RED_LIMBS],
        }
    }

    fn one(&self) -> SimElem {
        // Montgomery form of 1 for the matching radix.
        let c = Csidh512::get();
        match self.config.radix {
            Radix::Full => self.pack(c.mont.one()),
            Radix::Reduced => SimElem {
                words: *c.mont57.one().limbs(),
            },
        }
    }

    fn from_uint(&self, v: &U512) -> SimElem {
        // Host-side conversion into the Montgomery domain (the paper's
        // high-level C code performs conversions outside the measured
        // assembler kernels too).
        let c = Csidh512::get();
        match self.config.radix {
            Radix::Full => self.pack(&c.mont.to_mont(v)),
            Radix::Reduced => SimElem {
                words: *c.mont57.to_mont(&Reduced::from_uint(v)).limbs(),
            },
        }
    }

    fn to_uint(&self, a: &SimElem) -> U512 {
        let c = Csidh512::get();
        match self.config.radix {
            Radix::Full => c.mont.from_mont(&self.unpack(a)),
            Radix::Reduced => c
                .mont57
                .from_mont(&Reduced::from_limbs(a.words))
                .to_uint::<FULL_LIMBS>(),
        }
    }

    fn add(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.run(OpKind::FpAdd, &[a, b])
    }

    fn sub(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.run(OpKind::FpSub, &[a, b])
    }

    fn mul(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.run(OpKind::FpMul, &[a, b])
    }

    fn sqr(&self, a: &SimElem) -> SimElem {
        self.run(OpKind::FpSqr, &[a])
    }

    fn is_zero(&self, a: &SimElem) -> bool {
        a.words.iter().all(|&w| w == 0)
    }

    fn select(&self, mask: u64, a: &SimElem, b: &SimElem) -> SimElem {
        let mut words = [0u64; RED_LIMBS];
        mpise_mpi::ct::select_limbs(mask, &a.words, &b.words, &mut words);
        SimElem { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FpFull;

    #[test]
    fn sim_backends_agree_with_host() {
        let host = FpFull::new();
        for config in Config::ALL {
            let sim = SimFp::new(config);
            let a = U512::from_u64(123456789);
            let b = U512::from_u64(987654321);
            let (sa, sb) = (sim.from_uint(&a), sim.from_uint(&b));
            let (ha, hb) = (host.from_uint(&a), host.from_uint(&b));
            assert_eq!(
                sim.to_uint(&sim.mul(&sa, &sb)),
                host.to_uint(&host.mul(&ha, &hb)),
                "{config}"
            );
            assert_eq!(
                sim.to_uint(&sim.add(&sa, &sb)),
                host.to_uint(&host.add(&ha, &hb)),
                "{config}"
            );
            assert_eq!(
                sim.to_uint(&sim.sub(&sa, &sb)),
                host.to_uint(&host.sub(&ha, &hb)),
                "{config}"
            );
            assert_eq!(
                sim.to_uint(&sim.sqr(&sa)),
                host.to_uint(&host.sqr(&ha)),
                "{config}"
            );
        }
    }

    #[test]
    fn cycle_accounting() {
        let sim = SimFp::new(Config::ALL[0]);
        assert_eq!(sim.cycles(), 0);
        let a = sim.from_uint(&U512::from_u64(3));
        let _ = sim.mul(&a, &a);
        let after_one = sim.cycles();
        assert!(after_one > 100, "an Fp-mul costs hundreds of cycles");
        assert_eq!(sim.calls(), 1);
        let _ = sim.sqr(&a);
        assert!(sim.cycles() > after_one);
        sim.reset();
        assert_eq!(sim.cycles(), 0);
    }

    #[test]
    fn spans_reconcile_with_cycle_counter() {
        // The obs span tree and SimFp's own counter observe the same
        // kernel calls through the same choke point, so a span-wrapped
        // workload must account for every simulated cycle exactly.
        mpise_obs::set_enabled(true);
        let _ = mpise_obs::take_spans(); // drop anything stale on this thread
        let sim = SimFp::new(Config::ALL[3]);
        {
            let _g = mpise_obs::span("test.workload");
            let a = sim.from_uint(&U512::from_u64(5));
            let b = sim.from_uint(&U512::from_u64(9));
            let c = sim.mul(&a, &b);
            let _ = sim.add(&c, &a);
            let _ = sim.sqr(&b);
            let _ = sim.sub(&c, &b);
        }
        mpise_obs::set_enabled(false);
        let tree = mpise_obs::take_spans();
        let node = tree.child("test.workload").expect("span recorded");
        assert_eq!(node.total_cycles(), sim.cycles(), "every cycle attributed");
        assert!(node.total_instret() > 0);
        for child in ["fp.mul", "fp.add", "fp.sqr", "fp.sub"] {
            assert!(node.child(child).is_some(), "missing child span {child}");
        }
    }

    #[test]
    fn zero_and_one() {
        let sim = SimFp::new(Config::ALL[2]);
        assert!(sim.is_zero(&sim.zero()));
        assert_eq!(sim.to_uint(&sim.one()), U512::ONE);
        let one = sim.one();
        let two = sim.add(&one, &one);
        assert_eq!(sim.to_uint(&two), U512::from_u64(2));
    }
}
