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

use super::{with_frame, OpKind};
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

/// Generates the reduced-radix kernel for `op`.
pub fn generate(op: OpKind, ise: bool) -> Program {
    match op {
        OpKind::IntMul => int_mul(ise),
        OpKind::IntSqr => int_sqr(ise),
        OpKind::MontRedc => mont_redc(ise),
        OpKind::FastReduce => fast_reduce(ise),
        OpKind::FpAdd => fp_add(ise),
        OpKind::FpSub => fp_sub(ise),
        OpKind::FpMul => fp_mul(ise),
        OpKind::FpSqr => fp_sqr(ise),
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

/// Ends a product-scanning column: stores `l & mask` to
/// `dst[8*word]`, then shifts the accumulator down by 57 bits.
///
/// ISA: the accumulator is the 128-bit value `(h‖l)`;
/// ISE: `l` holds low-57 sums, `h` holds `>>57` sums, so the next `l`
/// is `h + (l >> 57)` in a single `sraiadd` ("the accumulator is
/// automatically aligned", §3.2).
#[allow(clippy::too_many_arguments)]
fn column_end(
    a: &mut Assembler,
    ise: bool,
    l: Reg,
    h: Reg,
    mask: Reg,
    t: Reg,
    dst: Reg,
    word: usize,
) {
    a.and(t, l, mask);
    a.sd(t, 8 * word as i32, dst);
    if ise {
        a.custom_shamt(SRAIADD, l, h, l, SHIFT);
        a.li(h, 0);
    } else {
        a.srli(l, l, SHIFT as i32);
        a.slli(t, h, 64 - SHIFT as i32);
        a.or(l, l, t);
        a.srli(h, h, SHIFT as i32);
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

/// Emits `dst[0..18] = A · B` (canonical 57-bit limbs), A from `src_a`,
/// B from `src_b`. Clobbers `a3` (mask), `a4..a7` and the operand
/// registers.
fn emit_int_mul_body(a: &mut Assembler, ise: bool, dst: Reg, src_a: Reg, src_b: Reg) {
    let mut a_regs = A_REGS;
    a_regs[N - 1] = src_a;
    let mut b_regs = B_REGS;
    b_regs[N - 1] = src_b;
    for (i, &r) in a_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_a);
    }
    for (i, &r) in b_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_b);
    }
    let mask = Reg::A3;
    load_mask(a, mask);
    let (l, h, t1, t2) = (Reg::A4, Reg::A5, Reg::A6, Reg::A7);
    a.li(l, 0);
    a.li(h, 0);
    for k in 0..2 * N - 1 {
        let lo = k.saturating_sub(N - 1);
        let hi = k.min(N - 1);
        for i in lo..=hi {
            mac(a, ise, l, h, a_regs[i], b_regs[k - i], t1, t2);
        }
        column_end(a, ise, l, h, mask, t1, dst, k);
    }
    // After the last column the shifted-down remainder is the top limb.
    a.sd(l, 8 * (2 * N - 1) as i32, dst);
}

fn int_mul(ise: bool) -> Program {
    with_frame(
        &[
            Reg::S0,
            Reg::S1,
            Reg::S2,
            Reg::S3,
            Reg::S4,
            Reg::S5,
            Reg::S6,
            Reg::S7,
            Reg::S8,
        ],
        0,
        |a| emit_int_mul_body(a, ise, Reg::A0, Reg::A1, Reg::A2),
    )
}

/// Emits `dst[0..18] = A²`: per column, the cross products are
/// accumulated once, the column sum is doubled in registers, and the
/// diagonal term is added — avoiding both a second MAC per cross pair
/// and any extra memory passes.
fn emit_int_sqr_body(a: &mut Assembler, ise: bool, dst: Reg, src_a: Reg) {
    let mut a_regs = A_REGS;
    a_regs[N - 1] = src_a;
    for (i, &r) in a_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_a);
    }
    let mask = Reg::A3;
    load_mask(a, mask);
    let (l, h, t1, t2) = (Reg::A4, Reg::A5, Reg::A6, Reg::A7);
    let c = Reg::T0; // running 64-bit carry between columns
    a.li(c, 0);
    for k in 0..2 * N - 1 {
        let lo = k.saturating_sub(N - 1);
        let hi = k.min(N - 1);
        let crosses: Vec<(usize, usize)> = (lo..=hi)
            .map(|i| (i, k - i))
            .filter(|&(i, j)| i < j)
            .collect();
        // Cross terms once; the first product *initializes* the
        // accumulator instead of accumulating into a zeroed one,
        // saving the per-column `li l/h, 0` pair and one MAC tail.
        for (idx, &(i, j)) in crosses.iter().enumerate() {
            if idx == 0 {
                mac_init(a, ise, l, h, a_regs[i], a_regs[j]);
            } else {
                mac(a, ise, l, h, a_regs[i], a_regs[j], t1, t2);
            }
        }
        if !crosses.is_empty() {
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
                mac(a, ise, l, h, a_regs[k / 2], a_regs[k / 2], t1, t2);
            }
        } else {
            // Pure diagonal column (k = 0 and k = 2N-2): the square
            // initializes the accumulator; nothing to double.
            debug_assert!(k % 2 == 0);
            mac_init(a, ise, l, h, a_regs[k / 2], a_regs[k / 2]);
        }
        // Add the carried-in remainder.
        if ise {
            a.add(l, l, c);
        } else {
            a.add(l, l, c);
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

fn int_sqr(ise: bool) -> Program {
    with_frame(
        &[
            Reg::S0,
            Reg::S1,
            Reg::S2,
            Reg::S3,
            Reg::S4,
            Reg::S5,
            Reg::S6,
            Reg::S7,
        ],
        0,
        |a| emit_int_sqr_body(a, ise, Reg::A0, Reg::A1),
    )
}

/// Emits the product-scanning Montgomery reduction:
/// `dst[0..9] = t[0..18]·R^{-1} mod' p` with the result in `[0, 2p)`
/// (canonical limbs). Preserves `dst` and `src_t`; clobbers `consts`
/// (it becomes the mask register after the constant loads).
fn emit_redc_body(a: &mut Assembler, ise: bool, dst: Reg, src_t: Reg, consts: Reg) {
    for (i, &r) in P_REGS.iter().enumerate() {
        a.ld(r, 8 * i as i32, consts);
    }
    let pinv = Reg::S11;
    a.ld(pinv, 8 * N as i32, consts);
    let mask = consts; // consts pointer is dead from here on
    load_mask(a, mask);
    let (l, h, t1, t2, tval) = (Reg::A4, Reg::A5, Reg::A6, Reg::A7, Reg::A2);
    a.li(l, 0);
    a.li(h, 0);
    for k in 0..2 * N {
        // acc += t[k]
        a.ld(tval, 8 * k as i32, src_t);
        if ise {
            a.add(l, l, tval);
        } else {
            a.add(l, l, tval);
            a.sltu(t1, l, tval);
            a.add(h, h, t1);
        }
        if k < N {
            for j in 0..k {
                mac(a, ise, l, h, M_REGS[j], P_REGS[k - j], t1, t2);
            }
            // m_k = (l * p') mod 2^57
            a.mul(t1, l, pinv);
            a.and(M_REGS[k], t1, mask);
            mac(a, ise, l, h, M_REGS[k], P_REGS[0], t1, t2);
            // low 57 bits of l are now zero; shift them out.
            if ise {
                a.custom_shamt(SRAIADD, l, h, l, SHIFT);
                a.li(h, 0);
            } else {
                a.srli(l, l, SHIFT as i32);
                a.slli(t1, h, 64 - SHIFT as i32);
                a.or(l, l, t1);
                a.srli(h, h, SHIFT as i32);
            }
        } else {
            for j in (k - (N - 1))..N {
                mac(a, ise, l, h, M_REGS[j], P_REGS[k - j], t1, t2);
            }
            column_end(a, ise, l, h, mask, t1, dst, k - N);
        }
    }
}

fn mont_redc(ise: bool) -> Program {
    with_frame(
        &[
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
        ],
        0,
        |a| emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3),
    )
}

/// Emits the swap-based fast reduction (Algorithm 2) of a canonical
/// value in `[0, 2p)` loaded from `src`, storing the canonical result
/// to `dst`. `consts` points at the modulus limbs.
fn emit_fast_reduce_body(a: &mut Assembler, ise: bool, dst: Reg, src: Reg, consts: Reg) {
    // t0..t6, a2, src-pointer: avoids s8, which belongs to T below.
    let mut x_regs = B_REGS;
    x_regs[N - 2] = Reg::A2;
    x_regs[N - 1] = src;
    for (i, &r) in x_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src);
    }
    let t_regs = P_REGS; // receives T = A - P
    for (i, &r) in t_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, consts);
    }
    let mask = consts; // consts dead after the loads
    load_mask(a, mask);
    // T <- A - P (lazy), then propagate borrows arithmetically.
    for i in 0..N {
        a.sub(t_regs[i], x_regs[i], t_regs[i]);
    }
    let t1 = Reg::A7;
    propagate(a, ise, &t_regs, mask, t1);
    // M <- sign mask of the top limb (all-ones iff A < P).
    let m = Reg::A6;
    a.srai(m, t_regs[N - 1], 63);
    // R <- T xor (M and (A xor T)); store.
    let u = Reg::A4;
    for i in 0..N {
        a.xor(u, x_regs[i], t_regs[i]);
        a.and(u, u, m);
        a.xor(u, t_regs[i], u);
        a.sd(u, 8 * i as i32, dst);
    }
}

fn fast_reduce(ise: bool) -> Program {
    with_frame(&P_REGS, 0, |a| {
        emit_fast_reduce_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
    })
}

/// Fp addition, addition-based (Algorithm 1 with `T ← A + B − P`):
/// avoids propagating the raw sum into canonical form (§3.1).
fn fp_add(ise: bool) -> Program {
    with_frame(&P_REGS, 0, |a| {
        // Load B first (frees a2), then A into t0..t6, a2, a1.
        let b_regs = P_REGS;
        for (i, &r) in b_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A2);
        }
        let mut a_regs = B_REGS;
        a_regs[N - 2] = Reg::A2;
        a_regs[N - 1] = Reg::A1;
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        // T <- A + B - P, all lazy; then one propagation.
        for i in 0..N {
            a.add(b_regs[i], a_regs[i], b_regs[i]);
        }
        // P limbs reload into the a-registers (now dead).
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A3);
        }
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
    with_frame(&P_REGS, 0, |a| {
        // Load B first (frees a2), then A into t0..t6, a2, a1.
        let b_regs = P_REGS;
        for (i, &r) in b_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A2);
        }
        let mut a_regs = B_REGS;
        a_regs[N - 2] = Reg::A2;
        a_regs[N - 1] = Reg::A1;
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
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

/// Fp multiplication: multiply into a stack buffer, Montgomery reduce,
/// fast reduce.
fn fp_mul(ise: bool) -> Program {
    let t_off = 0; // 18 words
    let r_off = 18; // 9 words
    let a0_slot = 27;
    let a3_slot = 28;
    with_frame(&ALL_S, 29, move |a| {
        a.sd(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.sd(Reg::A3, 8 * a3_slot, Reg::Sp);
        a.addi(Reg::A0, Reg::Sp, 8 * t_off);
        emit_int_mul_body(a, ise, Reg::A0, Reg::A1, Reg::A2);
        a.addi(Reg::A1, Reg::Sp, 8 * t_off);
        a.addi(Reg::A0, Reg::Sp, 8 * r_off);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
        a.addi(Reg::A1, Reg::Sp, 8 * r_off);
        a.ld(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_fast_reduce_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
    })
}

/// Fp squaring: like [`fp_mul`] with the squaring front end.
fn fp_sqr(ise: bool) -> Program {
    let t_off = 0;
    let r_off = 18;
    let a0_slot = 27;
    let a3_slot = 28;
    with_frame(&ALL_S, 29, move |a| {
        a.sd(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.sd(Reg::A3, 8 * a3_slot, Reg::Sp);
        a.addi(Reg::A0, Reg::Sp, 8 * t_off);
        emit_int_sqr_body(a, ise, Reg::A0, Reg::A1);
        a.addi(Reg::A1, Reg::Sp, 8 * t_off);
        a.addi(Reg::A0, Reg::Sp, 8 * r_off);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
        a.addi(Reg::A1, Reg::Sp, 8 * r_off);
        a.ld(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_fast_reduce_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
    })
}
