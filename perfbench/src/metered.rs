//! Field-operation metering and the simulated-cycle cost model.
//!
//! [`Metered`] wraps a field backend and counts the four operations the
//! generated RISC-V kernels implement (add, sub, mul, sqr). It forwards
//! every call, including `pow`/`inv`/`legendre`/`sqrt` and the `FpBatch`
//! lane kernels, to the wrapped backend, so a backend that overrides
//! those keeps its own host speed; the kernel cost of `pow` and friends
//! is charged as the `Fp` trait's square-and-multiply chain, which is
//! what the simulator-backed field executes.
//!
//! [`CycleTable`] holds the simulated Rocket cycles of each kernel, so
//! `counts × cycles` is the operation's cost on the simulated core (the
//! repository's Table 4 estimate mode).

use mpise_fp::kernels::{Config, OpKind};
use mpise_fp::measure::KernelRunner;
use mpise_fp::{Csidh512, Fp, FpBatch};
use mpise_mpi::U512;
use std::cell::Cell;

/// Field operations by kernel kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub add: u64,
    pub sub: u64,
    pub mul: u64,
    pub sqr: u64,
}

impl Counts {
    pub fn plus(self, o: Counts) -> Counts {
        Counts {
            add: self.add + o.add,
            sub: self.sub + o.sub,
            mul: self.mul + o.mul,
            sqr: self.sqr + o.sqr,
        }
    }

    pub fn minus(self, o: Counts) -> Counts {
        Counts {
            add: self.add - o.add,
            sub: self.sub - o.sub,
            mul: self.mul - o.mul,
            sqr: self.sqr - o.sqr,
        }
    }

    /// Weighted sum with one cost per kind, in `[add, sub, mul, sqr]` order.
    pub fn dot(&self, cost: [f64; 4]) -> f64 {
        self.add as f64 * cost[0]
            + self.sub as f64 * cost[1]
            + self.mul as f64 * cost[2]
            + self.sqr as f64 * cost[3]
    }
}

/// A counting pass-through field backend (see the module docs).
#[derive(Debug)]
pub struct Metered<F> {
    inner: F,
    counts: Cell<Counts>,
}

impl<F: Fp> Metered<F> {
    pub fn new(inner: F) -> Self {
        Metered {
            inner,
            counts: Cell::new(Counts::default()),
        }
    }

    pub fn counts(&self) -> Counts {
        self.counts.get()
    }

    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn bump(&self, f: impl FnOnce(&mut Counts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Charges the trait's left-to-right square-and-multiply chain.
    fn charge_pow(&self, exp: &U512) {
        let ones: u64 = exp.limbs().iter().map(|l| u64::from(l.count_ones())).sum();
        let bits = u64::from(exp.bit_length());
        self.bump(|c| {
            c.sqr += bits;
            c.mul += ones;
        });
    }
}

impl<F: Fp> Fp for Metered<F> {
    type Elem = F::Elem;

    fn zero(&self) -> F::Elem {
        self.inner.zero()
    }

    fn one(&self) -> F::Elem {
        self.inner.one()
    }

    fn from_uint(&self, v: &U512) -> F::Elem {
        self.inner.from_uint(v)
    }

    fn to_uint(&self, a: &F::Elem) -> U512 {
        self.inner.to_uint(a)
    }

    fn add(&self, a: &F::Elem, b: &F::Elem) -> F::Elem {
        self.bump(|c| c.add += 1);
        self.inner.add(a, b)
    }

    fn sub(&self, a: &F::Elem, b: &F::Elem) -> F::Elem {
        self.bump(|c| c.sub += 1);
        self.inner.sub(a, b)
    }

    fn mul(&self, a: &F::Elem, b: &F::Elem) -> F::Elem {
        self.bump(|c| c.mul += 1);
        self.inner.mul(a, b)
    }

    fn sqr(&self, a: &F::Elem) -> F::Elem {
        self.bump(|c| c.sqr += 1);
        self.inner.sqr(a)
    }

    fn neg(&self, a: &F::Elem) -> F::Elem {
        self.bump(|c| c.sub += 1);
        self.inner.neg(a)
    }

    fn is_zero(&self, a: &F::Elem) -> bool {
        self.inner.is_zero(a)
    }

    fn select(&self, mask: u64, a: &F::Elem, b: &F::Elem) -> F::Elem {
        self.inner.select(mask, a, b)
    }

    fn pow(&self, base: &F::Elem, exp: &U512) -> F::Elem {
        self.charge_pow(exp);
        self.inner.pow(base, exp)
    }

    fn inv(&self, a: &F::Elem) -> F::Elem {
        self.charge_pow(&Csidh512::get().p_minus_2);
        self.inner.inv(a)
    }

    fn legendre(&self, a: &F::Elem) -> i32 {
        if !self.inner.is_zero(a) {
            self.charge_pow(&Csidh512::get().p_minus_1_half);
        }
        self.inner.legendre(a)
    }

    fn sqrt(&self, a: &F::Elem) -> Option<F::Elem> {
        if !self.inner.is_zero(a) {
            self.charge_pow(&Csidh512::get().p_plus_1_quarter);
            self.bump(|c| c.sqr += 1);
        }
        self.inner.sqrt(a)
    }
}

impl<F: FpBatch> FpBatch for Metered<F> {
    fn add_n(&self, a: &[F::Elem], b: &[F::Elem], out: &mut [F::Elem]) {
        self.bump(|c| c.add += out.len() as u64);
        self.inner.add_n(a, b, out);
    }

    fn sub_n(&self, a: &[F::Elem], b: &[F::Elem], out: &mut [F::Elem]) {
        self.bump(|c| c.sub += out.len() as u64);
        self.inner.sub_n(a, b, out);
    }

    fn mul_n(&self, a: &[F::Elem], b: &[F::Elem], out: &mut [F::Elem]) {
        self.bump(|c| c.mul += out.len() as u64);
        self.inner.mul_n(a, b, out);
    }

    fn sqr_n(&self, a: &[F::Elem], out: &mut [F::Elem]) {
        self.bump(|c| c.sqr += out.len() as u64);
        self.inner.sqr_n(a, out);
    }
}

/// The reduced-radix RV64GC configuration (the paper's baseline).
pub const RED_ISA: Config = Config::ALL[2];
/// The reduced-radix ISE configuration (the paper's headline).
pub const RED_ISE: Config = Config::ALL[3];

/// Simulated cycles per kernel call, `[add, sub, mul, sqr]`, for the
/// reduced-radix configuration without and with the ISE.
#[derive(Debug, Clone, Copy)]
pub struct CycleTable {
    pub isa: [f64; 4],
    pub ise: [f64; 4],
}

impl CycleTable {
    /// Builds both configurations' kernels on the simulator and runs
    /// each field kernel once (the kernels are constant-time, so one
    /// call gives the cycle count for every input).
    pub fn measure() -> Self {
        CycleTable {
            isa: kernel_cycles(RED_ISA),
            ise: kernel_cycles(RED_ISE),
        }
    }

    /// Simulated cycles of `counts` on the ISE configuration.
    pub fn ise_cycles(&self, counts: &Counts) -> f64 {
        counts.dot(self.ise)
    }

    /// Simulated cycles of `counts` on the RV64GC configuration.
    pub fn isa_cycles(&self, counts: &Counts) -> f64 {
        counts.dot(self.isa)
    }
}

fn kernel_cycles(config: Config) -> [f64; 4] {
    let mut runner = KernelRunner::new(config);
    // Any canonical operand will do; all-ones limbs are below p in both radices.
    let operand = vec![1u64; config.elem_words()];
    [OpKind::FpAdd, OpKind::FpSub, OpKind::FpMul, OpKind::FpSqr].map(|op| {
        let inputs = vec![operand.as_slice(); op.arity()];
        runner.run(op, &inputs).1 as f64
    })
}
