//! Ablation kernels for design choices the paper evaluated and
//! rejected.
//!
//! §4: "Our experiments showed that product-scanning is more efficient
//! than Karatsuba's algorithm for MPI multiplication, and so we used
//! the former." This module generates a one-level Karatsuba 512-bit
//! multiplication kernel (three 256-bit product-scanning multiplies
//! plus the recombination arithmetic) so the claim can be re-measured
//! on the same pipeline model — see the `ablation` binary in
//! `mpise-bench`. [`int_mul_cycles`] measures it, and the rolled-loop
//! kernel, next to the Table 4 kernel; [`IntMulCycles::check`] judges
//! both claims.

use super::full::{FullAcc, A_REGS, B_REGS};
use super::{load_operand, product_scan, with_frame, Config, IseMode, KernelSet, OpKind};
use crate::measure::{call_kernel, kernel_machine};
use mpise_core::full_radix::{CADD, MADDHU, MADDLU};
use mpise_mpi::U512;
use mpise_sim::asm::Program;
use mpise_sim::Reg;

const L: usize = crate::params::FULL_LIMBS; // 8
const H: usize = L / 2; // 4

/// One-level Karatsuba 512×512→1024 multiplication kernel:
/// `z0 = a₀b₀`, `z2 = a₁b₁`, `z1 = (a₀+a₁)(b₀+b₁) − z0 − z2`,
/// result `= z0 + z1·2^256 + z2·2^512`.
///
/// Calling convention identical to the `IntMul` kernel
/// (`a0 = dst[16]`, `a1 = a[8]`, `a2 = b[8]`).
pub fn karatsuba_int_mul(ise: bool) -> Program {
    // Frame: s0..s6 (the first operand), 10 words for z1 (8 + carry words).
    let z1_words = 2 * H + 2;
    with_frame(7, z1_words, |asm| {
        // Load both operands fully (pointer-clobber trick for the last
        // digit, as in the main kernels).
        let a_regs = load_operand(asm, A_REGS, Reg::A1);
        let b_regs = load_operand(asm, B_REGS, Reg::A2);
        let (a_lo, a_hi) = a_regs.split_at(H);
        let (b_lo, b_hi) = b_regs.split_at(H);

        // z0 -> dst[0..8], z2 -> dst[8..16]: 4×4 product scans with the
        // Table 4 multiplication's accumulator.
        product_scan(asm, &mut FullAcc::product(ise), a_lo, b_lo, Reg::A0, 0);
        product_scan(asm, &mut FullAcc::product(ise), a_hi, b_hi, Reg::A0, L);

        // sa = a_lo + a_hi (into a_lo regs, carry in sa_c), likewise sb.
        let (sa_c, sb_c) = (a_hi[0], b_hi[0]); // high-half regs become carries
        let (u, v) = (Reg::A4, Reg::A5);
        for i in 0..H {
            if i == 0 {
                asm.add(a_lo[0], a_lo[0], a_hi[0]);
                asm.sltu(u, a_lo[0], a_hi[0]);
            } else {
                asm.add(a_lo[i], a_lo[i], a_hi[i]);
                asm.sltu(v, a_lo[i], a_hi[i]);
                asm.add(a_lo[i], a_lo[i], u);
                asm.sltu(u, a_lo[i], u);
                asm.add(u, u, v);
            }
        }
        asm.mv(sa_c, u);
        for i in 0..H {
            if i == 0 {
                asm.add(b_lo[0], b_lo[0], b_hi[0]);
                asm.sltu(u, b_lo[0], b_hi[0]);
            } else {
                asm.add(b_lo[i], b_lo[i], b_hi[i]);
                asm.sltu(v, b_lo[i], b_hi[i]);
                asm.add(b_lo[i], b_lo[i], u);
                asm.sltu(u, b_lo[i], u);
                asm.add(u, u, v);
            }
        }
        asm.mv(sb_c, u);

        // z1_base = sa * sb -> stack[0..8].
        product_scan(asm, &mut FullAcc::product(ise), a_lo, b_lo, Reg::Sp, 0);
        asm.sd(Reg::Zero, 8 * (2 * H) as i32, Reg::Sp);
        asm.sd(Reg::Zero, 8 * (2 * H + 1) as i32, Reg::Sp);

        // Carry cross terms: += sa_c * sb << 256, += sb_c * sa << 256,
        // += (sa_c & sb_c) << 512 — masked adds since carries are 0/1.
        let m = Reg::A6;
        let (w, c) = (Reg::A4, Reg::A5);
        for (carry_reg, operand) in [(sb_c, a_lo), (sa_c, b_lo)] {
            asm.neg(m, carry_reg);
            asm.li(c, 0);
            for i in 0..H {
                asm.ld(w, 8 * (H + i) as i32, Reg::Sp);
                asm.and(Reg::A7, operand[i], m);
                asm.add(w, w, Reg::A7);
                asm.sltu(Reg::A7, w, Reg::A7);
                asm.add(w, w, c);
                asm.sltu(c, w, c);
                asm.add(c, c, Reg::A7);
                asm.sd(w, 8 * (H + i) as i32, Reg::Sp);
            }
            // ripple the carry into word 2H (and potentially 2H+1)
            asm.ld(w, 8 * (2 * H) as i32, Reg::Sp);
            asm.add(w, w, c);
            asm.sltu(c, w, c);
            asm.sd(w, 8 * (2 * H) as i32, Reg::Sp);
            asm.ld(w, 8 * (2 * H + 1) as i32, Reg::Sp);
            asm.add(w, w, c);
            asm.sd(w, 8 * (2 * H + 1) as i32, Reg::Sp);
        }
        // += (sa_c & sb_c) << 512
        asm.and(m, sa_c, sb_c);
        asm.ld(w, 8 * (2 * H) as i32, Reg::Sp);
        asm.add(w, w, m);
        asm.sltu(c, w, m);
        asm.sd(w, 8 * (2 * H) as i32, Reg::Sp);
        asm.ld(w, 8 * (2 * H + 1) as i32, Reg::Sp);
        asm.add(w, w, c);
        asm.sd(w, 8 * (2 * H + 1) as i32, Reg::Sp);

        // z1 -= z0; z1 -= z2 (10-word borrows against 8-word values).
        let (x, bor, b1, b2) = (Reg::T0, Reg::T1, Reg::T2, Reg::T3);
        for z_off in [0usize, L] {
            asm.li(bor, 0);
            for i in 0..z1_words {
                asm.ld(w, 8 * i as i32, Reg::Sp);
                if i < L {
                    asm.ld(x, 8 * (z_off + i) as i32, Reg::A0);
                } else {
                    asm.li(x, 0);
                }
                asm.sltu(b1, w, x);
                asm.sub(w, w, x);
                asm.sltu(b2, w, bor);
                asm.sub(w, w, bor);
                asm.or(bor, b1, b2);
                asm.sd(w, 8 * i as i32, Reg::Sp);
            }
        }

        // dst[4..14] += z1 (10 words), rippling into dst[14], dst[15].
        asm.li(c, 0);
        for i in 0..z1_words {
            asm.ld(w, 8 * (H + i) as i32, Reg::A0);
            asm.ld(x, 8 * i as i32, Reg::Sp);
            asm.add(w, w, x);
            asm.sltu(b1, w, x);
            asm.add(w, w, c);
            asm.sltu(c, w, c);
            asm.add(c, c, b1);
            asm.sd(w, 8 * (H + i) as i32, Reg::A0);
        }
        for i in H + z1_words..2 * L {
            asm.ld(w, 8 * i as i32, Reg::A0);
            asm.add(w, w, c);
            asm.sltu(c, w, c);
            asm.sd(w, 8 * i as i32, Reg::A0);
        }
    })
}

/// A *rolled* (looped) operand-scanning multiplication kernel:
/// `dst[0..16] = a[0..8] × b[0..8]` with operands streamed from memory
/// and genuine loop control, the way size-generic MPI library code is
/// written when unrolling is not an option.
///
/// §3 notes the paper's kernels are fully unrolled because "the
/// register space is large enough"; this kernel quantifies what that
/// buys (see the `ablation` binary): per inner MAC it pays two pointer
/// increments, two extra loads, a store and the loop branch.
pub fn rolled_int_mul(ise: bool) -> Program {
    // Register roles (only `s0` is callee-saved):
    let (i, j) = (Reg::T0, Reg::T1); // loop counters (down-counting)
    let (pa, pd) = (Reg::T2, Reg::T3); // running &a[j], &dst[i+j]
    let bi = Reg::T4; // current b digit
    let carry = Reg::T5;
    let (aj, w, lo, hi, c1) = (Reg::T6, Reg::A4, Reg::A5, Reg::A6, Reg::A7);
    let pb = Reg::A3; // running &b[i]
    let pd_row = Reg::S0; // &dst[i]

    with_frame(1, 0, |a| {
        // Zero the destination (2L words).
        a.li(i, (2 * L) as i64);
        a.mv(pd, Reg::A0);
        let zloop = a.new_label();
        a.bind(zloop);
        a.sd(Reg::Zero, 0, pd);
        a.addi(pd, pd, 8);
        a.addi(i, i, -1);
        a.bnez(i, zloop);

        // Outer loop over the digits of b.
        a.li(i, L as i64);
        a.mv(pb, Reg::A2);
        a.mv(pd_row, Reg::A0);
        let outer = a.new_label();
        a.bind(outer);
        a.ld(bi, 0, pb);
        a.li(carry, 0);
        a.mv(pa, Reg::A1);
        a.mv(pd, pd_row);
        a.li(j, L as i64);
        let inner = a.new_label();
        a.bind(inner);
        a.ld(aj, 0, pa);
        a.ld(w, 0, pd);
        if ise {
            // hi' = maddhu(aj, bi, w); w' = maddlu(aj, bi, w); then +carry.
            a.custom_r4(MADDHU, hi, aj, bi, w);
            a.custom_r4(MADDLU, w, aj, bi, w);
            a.custom_r4(CADD, hi, w, carry, hi);
            a.add(w, w, carry);
        } else {
            a.mulhu(hi, aj, bi);
            a.mul(lo, aj, bi);
            a.add(w, w, lo);
            a.sltu(c1, w, lo);
            a.add(hi, hi, c1);
            a.add(w, w, carry);
            a.sltu(c1, w, carry);
            a.add(hi, hi, c1);
        }
        a.mv(carry, hi);
        a.sd(w, 0, pd);
        a.addi(pa, pa, 8);
        a.addi(pd, pd, 8);
        a.addi(j, j, -1);
        a.bnez(j, inner);
        // dst[i + L] = carry (pd already points there).
        a.sd(carry, 0, pd);
        a.addi(pb, pb, 8);
        a.addi(pd_row, pd_row, 8);
        a.addi(i, i, -1);
        a.bnez(i, outer);
    })
}

/// Cycles of one 512×512-bit multiplication on a full-radix
/// configuration, by technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntMulCycles {
    /// The configuration measured.
    pub config: Config,
    /// The fully unrolled product-scanning `IntMul` kernel of Table 4.
    pub product_scanning: u64,
    /// [`karatsuba_int_mul`].
    pub karatsuba: u64,
    /// [`rolled_int_mul`].
    pub rolled: u64,
}

impl IntMulCycles {
    /// The two ablation claims: product scanning beats one-level
    /// Karatsuba (§4), and the rolled loop costs more than 1.3× the
    /// unrolled kernel (§3: "we also unroll the loops fully").
    ///
    /// # Errors
    ///
    /// Returns every violated claim, `; `-separated.
    pub fn check(&self) -> Result<(), String> {
        let (config, ps) = (self.config, self.product_scanning);
        let mut violations = Vec::new();
        if ps >= self.karatsuba {
            let kara = self.karatsuba;
            violations.push(format!(
                "{config}: product scanning {ps}, not below Karatsuba {kara}"
            ));
        }
        if self.rolled as f64 <= ps as f64 * 1.3 {
            let rolled = self.rolled;
            violations.push(format!(
                "{config}: rolled {rolled}, not above 1.3x unrolled {ps}"
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// Measures the three 512×512-bit multiplication techniques on the
/// full-radix `config` under the kernel-call ABI. The kernels are
/// constant time, so the operands are arbitrary.
pub fn int_mul_cycles(config: Config) -> IntMulCycles {
    let ise = config.ise == IseMode::IseSupported;
    let (a, b) = (U512::from_u64(3), U512::from_u64(5));
    let cycles = |program: &Program| {
        let mut m = kernel_machine(config, program);
        let mut product = [0u64; 2 * L];
        let stats =
            call_kernel(&mut m, &[a.limbs(), b.limbs()], &mut product).expect("kernel runs");
        stats.cycles
    };
    IntMulCycles {
        config,
        product_scanning: cycles(KernelSet::build(config).kernel(OpKind::IntMul)),
        karatsuba: cycles(&karatsuba_int_mul(ise)),
        rolled: cycles(&rolled_int_mul(ise)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Radix;
    use crate::measure::product_words;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The ISA-only and ISE-supported full-radix configurations.
    const FULL: [Config; 2] = [Config::ALL[0], Config::ALL[1]];

    /// Runs a full-radix 512×512-bit multiplication `kernel` under the
    /// kernel-call ABI; returns the 16 product words.
    fn run_mul(kernel: fn(bool) -> Program, config: Config, a: &U512, b: &U512) -> Vec<u64> {
        let mut m = kernel_machine(config, &kernel(config.ise == IseMode::IseSupported));
        let mut out = vec![0; 2 * L];
        call_kernel(&mut m, &[a.limbs(), b.limbs()], &mut out).unwrap();
        out
    }

    #[test]
    fn karatsuba_kernel_is_correct() {
        let mut rng = StdRng::seed_from_u64(1);
        for config in FULL {
            for _ in 0..5 {
                let a = U512::from_limbs(std::array::from_fn(|_| rng.gen()));
                let b = U512::from_limbs(std::array::from_fn(|_| rng.gen()));
                let got = run_mul(karatsuba_int_mul, config, &a, &b);
                assert_eq!(
                    got,
                    product_words(Radix::Full, &a, &b),
                    "{config} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn karatsuba_edge_values() {
        for config in FULL {
            for (a, b) in [
                (U512::ZERO, U512::MAX),
                (U512::MAX, U512::MAX),
                (U512::ONE, U512::MAX),
            ] {
                let got = run_mul(karatsuba_int_mul, config, &a, &b);
                assert_eq!(got, product_words(Radix::Full, &a, &b), "{config}");
            }
        }
    }

    #[test]
    fn rolled_kernel_is_correct() {
        let mut rng = StdRng::seed_from_u64(2);
        for config in FULL {
            for _ in 0..4 {
                let a = U512::from_limbs(std::array::from_fn(|_| rng.gen()));
                let b = U512::from_limbs(std::array::from_fn(|_| rng.gen()));
                let got = run_mul(rolled_int_mul, config, &a, &b);
                assert_eq!(got, product_words(Radix::Full, &a, &b), "{config}");
            }
        }
    }

    #[test]
    fn a_slow_product_scanning_kernel_fails_the_check() {
        let good = int_mul_cycles(Config::ALL[1]);
        assert_eq!(good.check(), Ok(()));
        let slow = IntMulCycles {
            product_scanning: good.karatsuba,
            ..good
        };
        let err = slow.check().expect_err("a tie is no win");
        assert!(err.contains("not below Karatsuba"), "{err}");
        assert!(!err.contains("1.3x"), "{err}");
    }
}
