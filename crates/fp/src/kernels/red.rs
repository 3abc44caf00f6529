//! Reduced-radix (radix-2^57) kernel generators.
//!
//! The MAC inner loop is Listing 2 (ISA-only, 128-bit `(h‖l)`
//! accumulator) or Listing 4 (ISE-supported, two auto-aligned 57-bit
//! accumulators). Carry propagation is the `srai/add/and` chain or the
//! fused `sraiadd/and` pair of §3.2. Following §3.1's analysis:
//!
//! * the stand-alone fast reduction (used as the final step of the
//!   Montgomery reduction) is *swap-based* (Algorithm 2);
//! * `Fp` addition and subtraction use the *addition-based* variant
//!   (Algorithm 1), which avoids having to bring the un-reduced sum
//!   into canonical form first.

use super::{
    column, fp_mul, load_operand, load_words, montgomery_scan, product_scan, with_frame,
    Accumulator, OpKind, Radix, Reload,
};
use mpise_core::reduced_radix::{MADD57HU, MADD57LU, SRAIADD};
use mpise_sim::asm::{Assembler, Program};
use mpise_sim::Reg;

const N: usize = crate::params::RED_LIMBS; // 9 limbs
const SHIFT: u8 = 57;

/// First-operand limb registers: `s0..s7` plus the clobbered pointer.
const A_REGS: [Reg; 9] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::A1,
];

/// Second-operand limb registers: `t0..t6, s8` plus the clobbered
/// pointer.
const B_REGS: [Reg; 9] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::S8,
    Reg::A2,
];

/// Modulus limb registers for the Montgomery reduction.
const P_REGS: [Reg; 9] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
    Reg::S8,
];

/// Montgomery-factor limb registers for the reduction.
const M_REGS: [Reg; 9] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::S9,
    Reg::S10,
];

/// The first operand of the additive kernels and fast reduction:
/// `t0..t6, a2` and the `a1` pointer; avoids `s8`, which belongs to
/// [`P_REGS`].
const X_REGS: [Reg; 9] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::A2,
    Reg::A1,
];

/// Callee-saved registers of the Montgomery reduction (`s0..s11`:
/// modulus, `M_REGS[7..]` and `p'`); FpMul/FpSqr save as many.
const REDC_SAVED: usize = 12;

/// Generates the reduced-radix kernel for `op`.
pub(crate) fn generate(op: OpKind, ise: bool) -> Program {
    let front = move |a: &mut Assembler| match op {
        OpKind::IntMul | OpKind::FpMul => emit_int_mul_body(a, ise),
        _ => emit_int_sqr_body(a, ise),
    };
    let redc = move |a: &mut Assembler| emit_redc_body(a, ise);
    let fast_reduce = move |a: &mut Assembler, reload: Reload| emit_fast_reduce(a, ise, reload);
    match op {
        // s0..s7 hold the first operand, s8 the second's eighth limb.
        OpKind::IntMul => with_frame(9, 0, front),
        OpKind::IntSqr => with_frame(8, 0, front),
        OpKind::MontRedc => with_frame(REDC_SAVED, 0, redc),
        OpKind::FastReduce => with_frame(P_REGS.len(), 0, |a| fast_reduce(a, &|_, _| {})),
        OpKind::FpAdd => fp_add(ise),
        OpKind::FpSub => fp_sub(ise),
        OpKind::FpMul | OpKind::FpSqr => {
            fp_mul(Radix::Reduced, REDC_SAVED, front, redc, fast_reduce)
        }
    }
}

/// Materializes the limb mask `2^57 − 1` into `rd` (two instructions).
fn load_mask(a: &mut Assembler, rd: Reg) {
    a.addi(rd, Reg::Zero, -1);
    a.srli(rd, rd, 64 - SHIFT as i32);
}

/// One reduced-radix MAC — Listing 2 (ISA: `(h‖l) += a·b` as a 128-bit
/// value) or Listing 4 (ISE: `l += lo57(a·b)`, `h += (a·b) >> 57`).
#[allow(clippy::too_many_arguments)]
pub(super) fn mac(a: &mut Assembler, ise: bool, l: Reg, h: Reg, x: Reg, y: Reg, t1: Reg, t2: Reg) {
    if ise {
        a.custom_r4(MADD57HU, h, x, y, h);
        a.custom_r4(MADD57LU, l, x, y, l);
    } else {
        a.mulhu(t2, x, y);
        a.mul(t1, x, y);
        a.add(l, l, t1);
        a.sltu(t1, l, t1);
        a.add(t2, t2, t1);
        a.add(h, h, t2);
    }
}

/// The reduced-radix accumulator `(l, h)` with the MAC temporaries
/// `a6`/`a7` and the limb mask in `a3`.
///
/// ISA: the accumulator is the 128-bit value `(h‖l)`; ISE: `l` holds
/// low-57 sums, `h` holds `>>57` sums, so the next `l` is
/// `h + (l >> 57)` in a single `sraiadd` ("the accumulator is
/// automatically aligned", §3.2).
struct RedAcc {
    ise: bool,
}

impl RedAcc {
    const L: Reg = Reg::A4;
    const H: Reg = Reg::A5;
    const T1: Reg = Reg::A6;
    const T2: Reg = Reg::A7;
    const MASK: Reg = Reg::A3;
}

impl Accumulator for RedAcc {
    fn zero(&mut self, a: &mut Assembler) {
        load_mask(a, Self::MASK);
        a.li(Self::L, 0);
        a.li(Self::H, 0);
    }

    fn mac(&mut self, a: &mut Assembler, x: Reg, y: Reg) {
        mac(a, self.ise, Self::L, Self::H, x, y, Self::T1, Self::T2);
    }

    fn add_word(&mut self, a: &mut Assembler, v: Reg) {
        a.add(Self::L, Self::L, v);
        if !self.ise {
            a.sltu(Self::T1, Self::L, v);
            a.add(Self::H, Self::H, Self::T1);
        }
    }

    fn montgomery_digit(&mut self, a: &mut Assembler, m: Reg, pinv: Reg) {
        a.mul(Self::T1, Self::L, pinv);
        a.and(m, Self::T1, Self::MASK);
    }

    fn end_column(&mut self, a: &mut Assembler, store: Option<(Reg, usize)>) {
        let (l, h, t) = (Self::L, Self::H, Self::T1);
        if let Some((dst, word)) = store {
            a.and(t, l, Self::MASK);
            a.sd(t, 8 * word as i32, dst);
        }
        if self.ise {
            a.custom_shamt(SRAIADD, l, h, l, SHIFT);
            a.li(h, 0);
        } else {
            a.srli(l, l, SHIFT as i32);
            a.slli(t, h, 64 - SHIFT as i32);
            a.or(l, l, t);
            a.srli(h, h, SHIFT as i32);
        }
    }

    fn store_carry(&mut self, a: &mut Assembler, dst: Reg, word: usize) {
        // After the last column the shifted-down remainder is the top limb.
        a.sd(Self::L, 8 * word as i32, dst);
    }
}

/// Like [`mac`] but *initializes* the accumulator with the first
/// partial product instead of adding to it (2 instructions in both
/// modes), used at the start of a squaring column.
fn mac_init(a: &mut Assembler, ise: bool, l: Reg, h: Reg, x: Reg, y: Reg) {
    if ise {
        a.custom_r4(MADD57HU, h, x, y, Reg::Zero);
        a.custom_r4(MADD57LU, l, x, y, Reg::Zero);
    } else {
        a.mulhu(h, x, y);
        a.mul(l, x, y);
    }
}

/// Carry propagation of `regs` (§3.2): `srai/add/and` per limb, or
/// `sraiadd/and` with the ISE. The top limb keeps its overflow/sign.
pub(super) fn propagate(a: &mut Assembler, ise: bool, regs: &[Reg], mask: Reg, t: Reg) {
    for i in 0..regs.len() - 1 {
        if ise {
            a.custom_shamt(SRAIADD, regs[i + 1], regs[i + 1], regs[i], SHIFT);
        } else {
            a.srai(t, regs[i], SHIFT as i32);
            a.add(regs[i + 1], regs[i + 1], t);
        }
        a.and(regs[i], regs[i], mask);
    }
}

/// Emits `a0[0..18] = A · B` (canonical 57-bit limbs) under the kernel
/// ABI. Clobbers `a3` (mask), `a4..a7` and the operand registers.
fn emit_int_mul_body(a: &mut Assembler, ise: bool) {
    let x = load_operand(a, A_REGS, Reg::A1);
    let y = load_operand(a, B_REGS, Reg::A2);
    product_scan(a, &mut RedAcc { ise }, &x, &y, Reg::A0, 0);
}

/// Emits `a0[0..18] = A²`: per column, the cross products are
/// accumulated once, the column sum is doubled in registers, and the
/// diagonal term is added — avoiding both a second MAC per cross pair
/// and any extra memory passes.
fn emit_int_sqr_body(a: &mut Assembler, ise: bool) {
    let (dst, x) = (Reg::A0, load_operand(a, A_REGS, Reg::A1));
    let mask = Reg::A3;
    load_mask(a, mask);
    let (l, h, t1, t2) = (Reg::A4, Reg::A5, Reg::A6, Reg::A7);
    let c = Reg::T0; // running 64-bit carry between columns
    a.li(c, 0);
    for k in 0..2 * N - 1 {
        let mut crosses = column(k, N).filter(|&i| i < k - i).peekable();
        if crosses.peek().is_some() {
            // Cross terms once; the first product *initializes* the
            // accumulator instead of accumulating into a zeroed one,
            // saving the per-column `li l/h, 0` pair and one MAC tail.
            for (idx, i) in crosses.enumerate() {
                if idx == 0 {
                    mac_init(a, ise, l, h, x[i], x[k - i]);
                } else {
                    mac(a, ise, l, h, x[i], x[k - i], t1, t2);
                }
            }
            // Double the column sum (the carry from the previous
            // column is added afterwards, so it is not doubled).
            if ise {
                a.slli(l, l, 1);
                a.slli(h, h, 1);
            } else {
                a.slli(h, h, 1);
                a.srli(t1, l, 63);
                a.or(h, h, t1);
                a.slli(l, l, 1);
            }
            // Diagonal term for even columns.
            if k % 2 == 0 {
                mac(a, ise, l, h, x[k / 2], x[k / 2], t1, t2);
            }
        } else {
            // Pure diagonal column (k = 0 and k = 2N-2): the square
            // initializes the accumulator; nothing to double.
            debug_assert!(k % 2 == 0);
            mac_init(a, ise, l, h, x[k / 2], x[k / 2]);
        }
        // Add the carried-in remainder.
        a.add(l, l, c);
        if !ise {
            a.sltu(t1, l, c);
            a.add(h, h, t1);
        }
        a.and(t1, l, mask);
        a.sd(t1, 8 * k as i32, dst);
        // c = (accumulator) >> 57 for the next column.
        if ise {
            a.custom_shamt(SRAIADD, c, h, l, SHIFT);
        } else {
            a.srli(c, l, SHIFT as i32);
            a.slli(t1, h, 64 - SHIFT as i32);
            a.or(c, c, t1);
            // h >> 57 is zero here: h < 2^57 by the column bound.
        }
    }
    a.sd(c, 8 * (2 * N - 1) as i32, dst);
}

/// Emits the product-scanning Montgomery reduction under the kernel ABI
/// (see [`montgomery_scan`]), canonical limbs. Preserves `a0` and `a1`;
/// clobbers `a3` (it becomes the mask register after the constant
/// loads).
fn emit_redc_body(a: &mut Assembler, ise: bool) {
    montgomery_scan(a, &mut RedAcc { ise }, &P_REGS, &M_REGS, Reg::S11);
}

/// Emits the swap-based fast reduction (Algorithm 2) of a canonical
/// value in `[0, 2p)` at `a1`, storing the canonical result to `a0`
/// (the constant pool at `a3`). First calls `reload` for `a0` and `a3`.
fn emit_fast_reduce(a: &mut Assembler, ise: bool, reload: Reload) {
    reload(a, Reg::A0);
    reload(a, Reg::A3);
    load_words(a, &X_REGS, Reg::A1);
    let t_regs = P_REGS; // receives T = A - P
    load_words(a, &t_regs, Reg::A3);
    let mask = Reg::A3; // consts dead after the loads
    load_mask(a, mask);
    // T <- A - P (lazy), then propagate borrows arithmetically.
    for i in 0..N {
        a.sub(t_regs[i], X_REGS[i], t_regs[i]);
    }
    let t1 = Reg::A7;
    propagate(a, ise, &t_regs, mask, t1);
    // M <- sign mask of the top limb (all-ones iff A < P).
    let m = Reg::A6;
    a.srai(m, t_regs[N - 1], 63);
    // R <- T xor (M and (A xor T)); store.
    let u = Reg::A4;
    for i in 0..N {
        a.xor(u, X_REGS[i], t_regs[i]);
        a.and(u, u, m);
        a.xor(u, t_regs[i], u);
        a.sd(u, 8 * i as i32, Reg::A0);
    }
}

/// Fp addition, addition-based (Algorithm 1 with `T ← A + B − P`):
/// avoids propagating the raw sum into canonical form (§3.1).
fn fp_add(ise: bool) -> Program {
    with_frame(P_REGS.len(), 0, |a| {
        // Load B first (frees a2), then A.
        let (b_regs, a_regs) = (P_REGS, X_REGS);
        load_words(a, &b_regs, Reg::A2);
        load_words(a, &a_regs, Reg::A1);
        // T <- A + B - P, all lazy; then one propagation.
        for i in 0..N {
            a.add(b_regs[i], a_regs[i], b_regs[i]);
        }
        // P limbs reload into the a-registers (now dead).
        load_words(a, &a_regs, Reg::A3);
        for i in 0..N {
            a.sub(b_regs[i], b_regs[i], a_regs[i]);
        }
        let mask = Reg::A5;
        load_mask(a, mask);
        propagate(a, ise, &b_regs, mask, Reg::A7);
        // M <- sign(T); R <- T + (M & P); propagate; store.
        let m = Reg::A4;
        a.srai(m, b_regs[N - 1], 63);
        for i in 0..N {
            a.and(a_regs[i], a_regs[i], m);
            a.add(b_regs[i], b_regs[i], a_regs[i]);
        }
        propagate(a, ise, &b_regs, mask, Reg::A7);
        for (i, &r) in b_regs.iter().enumerate() {
            a.sd(r, 8 * i as i32, Reg::A0);
        }
    })
}

/// Fp subtraction: `T ← A − B`, conditional `+P`, addition-based.
fn fp_sub(ise: bool) -> Program {
    with_frame(P_REGS.len(), 0, |a| {
        // Load B first (frees a2), then A.
        let (b_regs, a_regs) = (P_REGS, X_REGS);
        load_words(a, &b_regs, Reg::A2);
        load_words(a, &a_regs, Reg::A1);
        // T <- A - B (lazy), propagate.
        for i in 0..N {
            a.sub(b_regs[i], a_regs[i], b_regs[i]);
        }
        let mask = Reg::A5;
        load_mask(a, mask);
        propagate(a, ise, &b_regs, mask, Reg::A7);
        // Conditional +P.
        let m = Reg::A4;
        a.srai(m, b_regs[N - 1], 63);
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A3);
            a.and(r, r, m);
            a.add(b_regs[i], b_regs[i], r);
        }
        propagate(a, ise, &b_regs, mask, Reg::A7);
        for (i, &r) in b_regs.iter().enumerate() {
            a.sd(r, 8 * i as i32, Reg::A0);
        }
    })
}
