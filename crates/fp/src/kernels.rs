//! Generators for the fully unrolled RV64 assembly kernels of every
//! Table 4 operation.
//!
//! The paper's authors wrote "(constant-time) Assembler functions ...
//! from scratch for both the ISA-only and the ISE-supported version"
//! (§4). These modules generate the equivalent instruction sequences
//! programmatically — same algorithms, same MAC inner loops
//! (Listings 1–4), same carry-propagation idioms, fully unrolled, with
//! operands held in registers ("the register space is large enough to
//! store the operands and intermediates up to 512 bits").
//!
//! All kernels follow one calling convention:
//!
//! * `a0` — result pointer,
//! * `a1` — first operand pointer,
//! * `a2` — second operand pointer (binary operations only),
//! * `a3` — constant-pool pointer (modulus digits followed by the
//!   per-digit Montgomery constant; see `const_pool_full` /
//!   `const_pool_red`).
//!
//! [`crate::measure::call_kernel`] is the one place that sets these up
//! (operand memory layout included); [`mac`] builds Listings 1–4 from
//! the kernels' own MAC and carry emitters.
//!
//! Each idea of Table 4 is written once, here, for both radices: one
//! column walk for products (`product_scan`: the integer
//! multiplications, the full-radix ISE squaring and the Karatsuba
//! ablation's half products), one for Montgomery reduction
//! (`montgomery_scan`), and one FpMul/FpSqr composer (`fp_mul`: front
//! end into a stack buffer, then MontRedc, then FastReduce, with the
//! frame derived from the radix's word count). A radix module
//! ([`full`], [`red`]) supplies its accumulator — its MAC, column end
//! and carry handling — its register assignment, the squaring trick
//! where it pays, the additive kernels and the staging of its fast
//! reduction.
//!
//! Kernels end with `ret` and respect the standard ABI (callee-saved
//! registers are saved/restored; this overhead is part of the measured
//! cycle counts, as it was on the paper's hardware).

pub mod ablation;
pub mod full;
pub mod mac;
pub mod red;

use crate::params::{FULL_LIMBS, RED_LIMBS};
use mpise_mpi::reference::RefInt;
use mpise_mpi::{Reduced, U512};
use mpise_sim::asm::{Assembler, Program};
use mpise_sim::ext::IsaExtension;
use mpise_sim::Reg;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::RangeInclusive;

/// Operand radix representation (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Radix {
    /// Radix 2^64: 8 digits for CSIDH-512.
    Full,
    /// Radix 2^57: 9 limbs for CSIDH-512.
    Reduced,
}

impl Radix {
    /// Words per field element in the kernel memory layout (one digit
    /// per 64-bit word): 8 full-radix digits or 9 reduced-radix limbs.
    pub(crate) fn words(self) -> usize {
        match self {
            Radix::Full => FULL_LIMBS,
            Radix::Reduced => RED_LIMBS,
        }
    }

    /// Bits per digit: 64, or 57 for the reduced radix.
    pub(crate) fn digit_bits(self) -> usize {
        match self {
            Radix::Full => 64,
            Radix::Reduced => 57,
        }
    }

    /// Writes `v` in this radix's word layout to `words[..self.words()]`.
    pub(crate) fn pack(self, v: &U512, words: &mut [u64]) {
        match self {
            Radix::Full => words[..FULL_LIMBS].copy_from_slice(v.limbs()),
            Radix::Reduced => {
                words[..RED_LIMBS].copy_from_slice(Reduced::<RED_LIMBS>::from_uint(v).limbs())
            }
        }
    }

    /// Reads the element in `words[..self.words()]` (canonical limbs).
    pub(crate) fn unpack(self, words: &[u64]) -> U512 {
        match self {
            Radix::Full => U512::from_limbs(words[..FULL_LIMBS].try_into().expect("8 digits")),
            Radix::Reduced => {
                Reduced::<RED_LIMBS>::from_limbs(words[..RED_LIMBS].try_into().expect("9 limbs"))
                    .to_uint()
            }
        }
    }

    /// The value `Σ words[i] · 2^(digit_bits · i)` of a word array of
    /// any length (elements, double-length products), computed with
    /// the reference big-integer arithmetic alone.
    pub(crate) fn value(self, words: &[u64]) -> RefInt {
        words
            .iter()
            .enumerate()
            .fold(RefInt::zero(), |acc, (i, &w)| {
                acc.add(&RefInt::from_u64(w).shl(self.digit_bits() * i))
            })
    }
}

impl fmt::Display for Radix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Radix::Full => write!(f, "full-radix"),
            Radix::Reduced => write!(f, "reduced-radix"),
        }
    }
}

/// Whether kernels may use the custom instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IseMode {
    /// Base RV64GC instructions only.
    IsaOnly,
    /// Base ISA plus the radix-matching ISE of Table 1.
    IseSupported,
}

impl fmt::Display for IseMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IseMode::IsaOnly => write!(f, "ISA-only"),
            IseMode::IseSupported => write!(f, "ISE-supported"),
        }
    }
}

/// One of the four implementation configurations of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Operand representation.
    pub radix: Radix,
    /// Instruction budget.
    pub ise: IseMode,
}

impl Config {
    /// All four configurations, in Table 4 column order.
    pub const ALL: [Config; 4] = [
        Config {
            radix: Radix::Full,
            ise: IseMode::IsaOnly,
        },
        Config {
            radix: Radix::Full,
            ise: IseMode::IseSupported,
        },
        Config {
            radix: Radix::Reduced,
            ise: IseMode::IsaOnly,
        },
        Config {
            radix: Radix::Reduced,
            ise: IseMode::IseSupported,
        },
    ];

    /// The ISA extension a machine needs to run this configuration's
    /// kernels (empty for ISA-only).
    pub fn extension(&self) -> IsaExtension {
        match (self.radix, self.ise) {
            (_, IseMode::IsaOnly) => IsaExtension::new("rv64im"),
            (Radix::Full, IseMode::IseSupported) => mpise_core::full_radix_ext(),
            (Radix::Reduced, IseMode::IseSupported) => mpise_core::reduced_radix_ext(),
        }
    }

    /// Words per field element in kernel memory layout (one limb per
    /// 64-bit word in both radices).
    pub fn elem_words(&self) -> usize {
        self.radix.words()
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.radix, self.ise)
    }
}

/// The arithmetic operations of Table 4 (rows above the group action).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// 512×512-bit integer multiplication.
    IntMul,
    /// 512-bit integer squaring.
    IntSqr,
    /// Montgomery reduction of a double-length product.
    MontRedc,
    /// Fast modulo-p reduction of a value in `[0, 2p − 1]`.
    FastReduce,
    /// Fp addition.
    FpAdd,
    /// Fp subtraction.
    FpSub,
    /// Fp multiplication (multiply + Montgomery reduce + fast reduce).
    FpMul,
    /// Fp squaring.
    FpSqr,
}

impl OpKind {
    /// All operations in Table 4 row order.
    pub const ALL: [OpKind; 8] = [
        OpKind::IntMul,
        OpKind::IntSqr,
        OpKind::MontRedc,
        OpKind::FastReduce,
        OpKind::FpAdd,
        OpKind::FpSub,
        OpKind::FpMul,
        OpKind::FpSqr,
    ];

    /// The Table 4 row label.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::IntMul => "Integer multiplication",
            OpKind::IntSqr => "Integer squaring",
            OpKind::MontRedc => "Montgomery reduction",
            OpKind::FastReduce => "Fast modulo-p reduction",
            OpKind::FpAdd => "Fp-addition",
            OpKind::FpSub => "Fp-subtraction",
            OpKind::FpMul => "Fp-multiplication",
            OpKind::FpSqr => "Fp-squaring",
        }
    }

    /// The telemetry span name for this operation (see `mpise-obs`;
    /// static because span aggregation keys on `&'static str`).
    pub(crate) fn span_name(&self) -> &'static str {
        match self {
            OpKind::IntMul => "fp.int_mul",
            OpKind::IntSqr => "fp.int_sqr",
            OpKind::MontRedc => "fp.mont_redc",
            OpKind::FastReduce => "fp.fast_reduce",
            OpKind::FpAdd => "fp.add",
            OpKind::FpSub => "fp.sub",
            OpKind::FpMul => "fp.mul",
            OpKind::FpSqr => "fp.sqr",
        }
    }

    /// Number of operand pointers the kernel takes (besides result and
    /// constants).
    pub fn arity(&self) -> usize {
        match self {
            OpKind::IntMul | OpKind::FpAdd | OpKind::FpSub | OpKind::FpMul => 2,
            _ => 1,
        }
    }

    /// `(input_words_per_operand, output_words)` for a configuration.
    pub fn shape(&self, config: &Config) -> (usize, usize) {
        let n = config.elem_words();
        match self {
            OpKind::IntMul | OpKind::IntSqr => (n, 2 * n),
            OpKind::MontRedc => (2 * n, n),
            _ => (n, n),
        }
    }
}

/// A complete set of Table-4 kernels for one configuration.
#[derive(Debug)]
pub struct KernelSet {
    /// The configuration these kernels implement.
    pub config: Config,
    kernels: BTreeMap<OpKind, Program>,
}

impl KernelSet {
    /// Generates all eight kernels for `config`.
    pub fn build(config: Config) -> Self {
        let ise = config.ise == IseMode::IseSupported;
        let mut kernels = BTreeMap::new();
        for op in OpKind::ALL {
            let program = match config.radix {
                Radix::Full => full::generate(op, ise),
                Radix::Reduced => red::generate(op, ise),
            };
            kernels.insert(op, program);
        }
        KernelSet { config, kernels }
    }

    /// The kernel for one operation.
    pub fn kernel(&self, op: OpKind) -> &Program {
        &self.kernels[&op]
    }

    /// Iterates over `(op, program)` pairs in row order.
    pub fn iter(&self) -> impl Iterator<Item = (OpKind, &Program)> {
        self.kernels.iter().map(|(k, v)| (*k, v))
    }
}

/// The callee-saved registers `s0..s11`. Every kernel frame saves a
/// prefix of them ([`with_frame`]).
const ALL_S: [Reg; 12] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
    Reg::S9,
    Reg::S10,
    Reg::S11,
];

/// Wraps `body` in a standard prologue/epilogue saving the first
/// `saved` registers of [`ALL_S`], with `extra_words` of scratch stack
/// below them (at `0(sp) .. 8*extra_words-8(sp)`).
fn with_frame(saved: usize, extra_words: usize, body: impl FnOnce(&mut Assembler)) -> Program {
    let mut a = Assembler::new();
    let frame = 8 * (saved + extra_words) as i32;
    let saved = &ALL_S[..saved];
    if frame > 0 {
        a.addi(Reg::Sp, Reg::Sp, -frame);
        for (i, &r) in saved.iter().enumerate() {
            a.sd(r, 8 * (extra_words + i) as i32, Reg::Sp);
        }
    }
    body(&mut a);
    if frame > 0 {
        for (i, &r) in saved.iter().enumerate() {
            a.ld(r, 8 * (extra_words + i) as i32, Reg::Sp);
        }
        a.addi(Reg::Sp, Reg::Sp, frame);
    }
    a.ret();
    a.finish()
}

/// Loads `regs.len()` consecutive words from `base` into `regs`.
/// `base` itself may be the last destination (pointer-clobber trick).
fn load_words(a: &mut Assembler, regs: &[Reg], base: Reg) {
    for (i, &r) in regs.iter().enumerate() {
        debug_assert!(r != base || i == regs.len() - 1, "pointer clobbered early");
        a.ld(r, 8 * i as i32, base);
    }
}

/// Loads the operand at `ptr` into `regs`, its last word into `ptr`
/// itself (the pointer is dead after the loads); returns the registers
/// that hold it.
fn load_operand<const N: usize>(a: &mut Assembler, mut regs: [Reg; N], ptr: Reg) -> [Reg; N] {
    regs[N - 1] = ptr;
    load_words(a, &regs, ptr);
    regs
}

/// One radix's product-scanning accumulator: its MAC, column end and
/// carry handling, over registers it owns. [`product_scan`] and
/// [`montgomery_scan`] walk the columns for both radices.
trait Accumulator {
    /// Zeroes the accumulator (and sets up any constant it needs).
    fn zero(&mut self, a: &mut Assembler);
    /// `acc += x·y`: the MAC of Listings 1–4.
    fn mac(&mut self, a: &mut Assembler, x: Reg, y: Reg);
    /// `acc += v` for one word `v`.
    fn add_word(&mut self, a: &mut Assembler, v: Reg);
    /// `m ← (low digit · pinv) mod 2^digit_bits`: the Montgomery digit
    /// that clears the low digit.
    fn montgomery_digit(&mut self, a: &mut Assembler, m: Reg, pinv: Reg);
    /// Ends a column: stores the low digit to word `word` of `dst` when
    /// `store` is given, then shifts the accumulator down one digit.
    fn end_column(&mut self, a: &mut Assembler, store: Option<(Reg, usize)>);
    /// Stores what remains after the last column to word `word` of `dst`.
    fn store_carry(&mut self, a: &mut Assembler, dst: Reg, word: usize);
}

/// The indices `i` of the partial products `x_i · y_{k−i}` in column
/// `k` of an `n`-digit product scan.
fn column(k: usize, n: usize) -> RangeInclusive<usize> {
    k.saturating_sub(n - 1)..=k.min(n - 1)
}

/// Product scanning: `dst[word_off .. word_off + 2n] = x · y` for the
/// `n`-digit register operands `x` and `y` (`y` may be `x`).
fn product_scan(
    a: &mut Assembler,
    acc: &mut impl Accumulator,
    x: &[Reg],
    y: &[Reg],
    dst: Reg,
    word_off: usize,
) {
    let n = x.len();
    acc.zero(a);
    for k in 0..2 * n - 1 {
        for i in column(k, n) {
            acc.mac(a, x[i], y[k - i]);
        }
        acc.end_column(a, Some((dst, word_off + k)));
    }
    acc.store_carry(a, dst, word_off + 2 * n - 1);
}

/// Product-scanning Montgomery reduction under the kernel ABI:
/// `a0[0..n] = a1[0..2n] · R^{-1}`, result in `[0, 2p)`. Loads the
/// modulus digits into `p` and the per-digit constant into `pinv` from
/// the pool at `a3`, and derives the Montgomery digits into `m`.
/// Clobbers `a2` (each word of the input in turn).
fn montgomery_scan(a: &mut Assembler, acc: &mut impl Accumulator, p: &[Reg], m: &[Reg], pinv: Reg) {
    let n = p.len();
    load_words(a, p, Reg::A3);
    a.ld(pinv, 8 * n as i32, Reg::A3);
    acc.zero(a);
    for k in 0..2 * n {
        a.ld(Reg::A2, 8 * k as i32, Reg::A1);
        acc.add_word(a, Reg::A2);
        for j in column(k, n) {
            if j == k {
                acc.montgomery_digit(a, m[k], pinv);
            }
            acc.mac(a, m[j], p[k - j]);
        }
        // Columns below n end in a zero digit by construction: dropped.
        acc.end_column(a, (k >= n).then(|| (Reg::A0, k - n)));
    }
}

/// Reloads a caller register (`a0` or `a3`) saved by [`fp_mul`].
type Reload<'r> = &'r dyn Fn(&mut Assembler, Reg);

/// FpMul or FpSqr, composed from one radix's bodies (each under the
/// kernel ABI): `front` writes the integer product of the operands at
/// `a1`/`a2` to `a0`, `redc` Montgomery-reduces `a1` into `a0`, and
/// `fast_reduce` reduces `a1` into the caller's result, reloading `a0`
/// (and `a3`, if its staging clobbered it) with the [`Reload`] it is
/// given at the point its staging allows. The frame holds the
/// double-length product, the reduction, then the caller's `a0`/`a3`,
/// and saves the first `saved` callee-saved registers.
fn fp_mul(
    radix: Radix,
    saved: usize,
    front: impl FnOnce(&mut Assembler),
    redc: impl FnOnce(&mut Assembler),
    fast_reduce: impl FnOnce(&mut Assembler, Reload),
) -> Program {
    // Frame words: the product at 0, the reduction at 2n, then the
    // caller's a0 and a3.
    let n = radix.words() as i32;
    let (t_off, r_off) = (0, 2 * n);
    let slot = |r: Reg| 8 * (3 * n + i32::from(r == Reg::A3));
    with_frame(saved, 3 * radix.words() + 2, |a| {
        a.sd(Reg::A0, slot(Reg::A0), Reg::Sp);
        a.sd(Reg::A3, slot(Reg::A3), Reg::Sp); // the front ends use a3 as a temp
        a.addi(Reg::A0, Reg::Sp, 8 * t_off);
        front(a);
        a.addi(Reg::A1, Reg::Sp, 8 * t_off);
        a.addi(Reg::A0, Reg::Sp, 8 * r_off);
        a.ld(Reg::A3, slot(Reg::A3), Reg::Sp);
        redc(a);
        a.addi(Reg::A1, Reg::Sp, 8 * r_off);
        fast_reduce(a, &|a, r| a.ld(r, slot(r), Reg::Sp));
    })
}

/// Builds the constant pool for full-radix kernels: the 8 digits of `p`
/// followed by `-p^{-1} mod 2^64`.
pub(crate) fn const_pool_full() -> Vec<u64> {
    let c = crate::params::Csidh512::get();
    let mut pool = c.p.limbs().to_vec();
    pool.push(c.mont.p_inv());
    pool
}

/// Builds the constant pool for reduced-radix kernels: the 9 limbs of
/// `p` (57-bit) followed by `-p^{-1} mod 2^57`.
pub(crate) fn const_pool_red() -> Vec<u64> {
    let c = crate::params::Csidh512::get();
    let mut pool = c.mont57.modulus().limbs().to_vec();
    pool.push(c.mont57.p_inv());
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernel_sets_build() {
        for config in Config::ALL {
            let set = KernelSet::build(config);
            for (op, prog) in set.iter() {
                assert!(!prog.is_empty(), "{config}: {op:?} kernel is empty");
                // Every kernel must encode cleanly for its extension.
                let ext = config.extension();
                prog.encode(&ext)
                    .unwrap_or_else(|e| panic!("{config}: {op:?} fails to encode: {e}"));
            }
        }
    }

    #[test]
    fn isa_only_kernels_use_no_custom_instructions() {
        for radix in [Radix::Full, Radix::Reduced] {
            let set = KernelSet::build(Config {
                radix,
                ise: IseMode::IsaOnly,
            });
            for (op, prog) in set.iter() {
                assert!(
                    prog.insts()
                        .iter()
                        .all(|i| !matches!(i, mpise_sim::Inst::Custom { .. })),
                    "{radix}: {op:?} contains custom instructions in ISA-only mode"
                );
            }
        }
    }

    #[test]
    fn ise_kernels_are_shorter() {
        // The whole point of the ISEs: fewer instructions for the
        // multiplicative kernels.
        for radix in [Radix::Full, Radix::Reduced] {
            let isa = KernelSet::build(Config {
                radix,
                ise: IseMode::IsaOnly,
            });
            let ise = KernelSet::build(Config {
                radix,
                ise: IseMode::IseSupported,
            });
            for op in [
                OpKind::IntMul,
                OpKind::IntSqr,
                OpKind::MontRedc,
                OpKind::FpMul,
            ] {
                assert!(
                    ise.kernel(op).len() < isa.kernel(op).len(),
                    "{radix:?} {op:?}: ISE kernel not shorter ({} vs {})",
                    ise.kernel(op).len(),
                    isa.kernel(op).len()
                );
            }
        }
    }

    #[test]
    fn columns_visit_every_partial_product_once() {
        for n in [4, 8, 9] {
            let mut seen = vec![vec![0; n]; n];
            for k in 0..2 * n - 1 {
                for i in column(k, n) {
                    seen[i][k - i] += 1;
                }
            }
            assert!(seen.iter().flatten().all(|&c| c == 1), "n = {n}");
            // The Montgomery walk's last column has no product.
            assert!(column(2 * n - 1, n).is_empty(), "n = {n}");
        }
    }

    #[test]
    fn const_pools() {
        let f = const_pool_full();
        assert_eq!(f.len(), 9);
        assert_eq!(f[0], crate::params::P_LIMBS[0]);
        // p * (-p_inv) ≡ -1 mod 2^64
        assert_eq!(f[0].wrapping_mul(f[8]), 1u64.wrapping_neg());

        let r = const_pool_red();
        assert_eq!(r.len(), 10);
        let mask = (1u64 << 57) - 1;
        assert_eq!(r[0].wrapping_mul(r[9]) & mask, mask);
    }
}
