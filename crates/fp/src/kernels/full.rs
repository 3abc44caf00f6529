//! Full-radix (radix-2^64) kernel generators.
//!
//! Every kernel is straight-line (fully unrolled), constant-time, and
//! structured exactly like the paper describes:
//!
//! * multiplication/squaring/reduction use product scanning with the
//!   MAC of Listing 1 (ISA-only) or Listing 3 (ISE-supported);
//! * the fast modulo-`p` reduction is the swap-based Algorithm 2 ("the
//!   faster option for our full-radix implementation", §3.1);
//! * `Fp` addition/subtraction use the carry/borrow chains built from
//!   `add`/`sub` + `sltu` (RISC-V has no carry flag);
//! * the full-radix ISEs do not help the purely additive kernels, so
//!   `FastReduce`/`FpAdd`/`FpSub` are identical in both modes — which
//!   is why Table 4 reports 107/163/143 cycles for both columns.

use super::{with_frame, OpKind};
use mpise_core::full_radix::{CADD, MADDHU, MADDLU};
use mpise_sim::asm::{Assembler, Program};
use mpise_sim::Reg;

const L: usize = crate::params::FULL_LIMBS; // 8 digits

/// Operand digit registers for the first operand: `s0..s6` plus the
/// (clobbered) source pointer `a1`.
pub(crate) const A_REGS: [Reg; 8] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::A1,
];

/// Operand digit registers for the second operand: `t0..t6` plus the
/// (clobbered) source pointer `a2`.
pub(crate) const B_REGS: [Reg; 8] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::A2,
];

/// Modulus digit registers (`s0..s7`).
const P_REGS: [Reg; 8] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
];

/// Montgomery-factor digit registers for the reduction (`t0..t6, s8`).
const M_REGS: [Reg; 8] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::S8,
];

/// Generates the full-radix kernel for `op` (`ise` selects the
/// Listing 3 MAC and `cadd`).
pub fn generate(op: OpKind, ise: bool) -> Program {
    match op {
        OpKind::IntMul => int_mul(ise),
        OpKind::IntSqr => int_sqr(ise),
        OpKind::MontRedc => mont_redc(ise),
        OpKind::FastReduce => fast_reduce(),
        OpKind::FpAdd => fp_add(),
        OpKind::FpSub => fp_sub(),
        OpKind::FpMul => fp_mul(ise),
        OpKind::FpSqr => fp_sqr(ise),
    }
}

/// Loads `regs.len()` consecutive digits from `base` into `regs`.
/// `base` itself may be the last destination (pointer-clobber trick).
fn load_words(a: &mut Assembler, regs: &[Reg], base: Reg) {
    for (i, &r) in regs.iter().enumerate() {
        debug_assert!(r != base || i == regs.len() - 1, "pointer clobbered early");
        a.ld(r, 8 * i as i32, base);
    }
}

/// One MAC `(e‖h‖l) += x*y` — Listing 1 (ISA) or Listing 3 (ISE).
pub(super) fn mac(a: &mut Assembler, ise: bool, acc: [Reg; 3], x: Reg, y: Reg, t1: Reg, t2: Reg) {
    let [l, h, e] = acc;
    if ise {
        // maddhu z,a,b,l ; maddlu l,a,b,l ; cadd e,h,z,e ; add h,h,z
        a.custom_r4(MADDHU, t2, x, y, l);
        a.custom_r4(MADDLU, l, x, y, l);
        a.custom_r4(CADD, e, h, t2, e);
        a.add(h, h, t2);
    } else {
        // mulhu z,a,b; mul y,a,b; add l,l,y; sltu y,l,y;
        // add z,z,y; add h,h,z; sltu z,h,z; add e,e,z
        a.mulhu(t2, x, y);
        a.mul(t1, x, y);
        a.add(l, l, t1);
        a.sltu(t1, l, t1);
        a.add(t2, t2, t1);
        a.add(h, h, t2);
        a.sltu(t2, h, t2);
        a.add(e, e, t2);
    }
}

/// Adds the single word `v` into the accumulator `(e‖h‖l)`.
fn acc_add_word(a: &mut Assembler, ise: bool, acc: [Reg; 3], v: Reg, t: Reg) {
    let [l, h, e] = acc;
    if ise {
        // cadd t,l,v,x0 ; add l,l,v ; cadd e,h,t,e ; add h,h,t
        a.custom_r4(CADD, t, l, v, Reg::Zero);
        a.add(l, l, v);
        a.custom_r4(CADD, e, h, t, e);
        a.add(h, h, t);
    } else {
        a.add(l, l, v);
        a.sltu(t, l, v);
        a.add(h, h, t);
        a.sltu(t, h, t);
        a.add(e, e, t);
    }
}

/// Emits the product-scanning multiplication body: `dst[0..16] = A*B`
/// with A in [`A_REGS`] (loaded from `src_a`) and B in [`B_REGS`]
/// (loaded from `src_b`). Clobbers `src_a`/`src_b`; preserves `dst`.
fn emit_int_mul_body(a: &mut Assembler, ise: bool, dst: Reg, src_a: Reg, src_b: Reg) {
    debug_assert!(!A_REGS.contains(&dst) && !B_REGS.contains(&dst));
    // Loads (the operand pointer receives the final digit).
    let mut a_regs = A_REGS;
    a_regs[L - 1] = src_a;
    let mut b_regs = B_REGS;
    b_regs[L - 1] = src_b;
    for (i, &r) in a_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_a);
    }
    for (i, &r) in b_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_b);
    }
    let (t1, t2) = (Reg::A3, Reg::A7);
    let mut acc = [Reg::A4, Reg::A5, Reg::A6];
    for &r in &acc {
        a.li(r, 0);
    }
    for k in 0..2 * L - 1 {
        let lo = k.saturating_sub(L - 1);
        let hi = k.min(L - 1);
        for i in lo..=hi {
            mac(a, ise, acc, a_regs[i], b_regs[k - i], t1, t2);
        }
        a.sd(acc[0], 8 * k as i32, dst);
        // Rotate the accumulator (register renaming, no moves).
        acc.rotate_left(1);
        a.li(acc[2], 0);
    }
    a.sd(acc[0], 8 * (2 * L - 1) as i32, dst); // t[15]: the final carry word
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
        ],
        0,
        |a| {
            emit_int_mul_body(a, ise, Reg::A0, Reg::A1, Reg::A2);
        },
    )
}

/// Emits the squaring body: cross products once (product scanning),
/// then one doubling pass over `dst`, then the diagonal pass — the
/// standard trick that makes squaring ~25–45% cheaper than a general
/// multiplication.
fn emit_int_sqr_body(a: &mut Assembler, ise: bool, dst: Reg, src_a: Reg) {
    let mut a_regs = A_REGS;
    a_regs[L - 1] = src_a;
    for (i, &r) in a_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_a);
    }
    let (t1, t2) = (Reg::A3, Reg::A7);
    let mut acc = [Reg::A4, Reg::A5, Reg::A6];
    for &r in &acc {
        a.li(r, 0);
    }
    // Phase 1: cross products i < j, columns 1..=2L-3.
    a.sd(Reg::Zero, 0, dst); // column 0 has no cross term
    for k in 1..=2 * L - 3 {
        let lo = k.saturating_sub(L - 1);
        let hi = k.min(L - 1);
        for i in lo..=hi {
            let j = k - i;
            if i < j {
                mac(a, ise, acc, a_regs[i], a_regs[j], t1, t2);
            }
        }
        a.sd(acc[0], 8 * k as i32, dst);
        acc.rotate_left(1);
        a.li(acc[2], 0);
    }
    a.sd(acc[0], 8 * (2 * L - 2) as i32, dst);
    a.sd(acc[1], 8 * (2 * L - 1) as i32, dst);

    // Phase 2: double the cross-product sum in memory.
    let (w, c, c2) = (Reg::A4, Reg::A5, Reg::A6);
    a.li(c, 0);
    for k in 0..2 * L {
        a.ld(w, 8 * k as i32, dst);
        a.srli(c2, w, 63);
        a.slli(w, w, 1);
        a.or(w, w, c);
        a.sd(w, 8 * k as i32, dst);
        a.mv(c, c2);
    }

    // Phase 3: add the diagonal a_i^2 terms with a rippling carry.
    let (lo, hi, wv, carry, u) = (Reg::A4, Reg::A5, Reg::A6, Reg::A7, Reg::A3);
    a.li(carry, 0);
    for i in 0..L {
        if ise {
            // maddlu/maddhu keep the diagonal fused with the memory word.
            a.ld(wv, 8 * (2 * i) as i32, dst);
            a.add(wv, wv, carry);
            a.sltu(carry, wv, carry);
            a.custom_r4(MADDHU, hi, a_regs[i], a_regs[i], wv);
            a.custom_r4(MADDLU, wv, a_regs[i], a_regs[i], wv);
            a.sd(wv, 8 * (2 * i) as i32, dst);
            a.ld(wv, 8 * (2 * i + 1) as i32, dst);
            a.add(wv, wv, carry); // carry out of word 2i
            a.sltu(carry, wv, carry);
            a.add(wv, wv, hi);
            a.sltu(u, wv, hi);
            a.add(carry, carry, u);
            a.sd(wv, 8 * (2 * i + 1) as i32, dst);
        } else {
            a.mul(lo, a_regs[i], a_regs[i]);
            a.mulhu(hi, a_regs[i], a_regs[i]);
            a.ld(wv, 8 * (2 * i) as i32, dst);
            a.add(wv, wv, carry);
            a.sltu(carry, wv, carry);
            a.add(wv, wv, lo);
            a.sltu(u, wv, lo);
            a.add(carry, carry, u);
            a.sd(wv, 8 * (2 * i) as i32, dst);
            a.ld(wv, 8 * (2 * i + 1) as i32, dst);
            a.add(wv, wv, carry);
            a.sltu(carry, wv, carry);
            a.add(wv, wv, hi);
            a.sltu(u, wv, hi);
            a.add(carry, carry, u);
            a.sd(wv, 8 * (2 * i + 1) as i32, dst);
        }
    }
}

/// Squaring with the ISE: the 4-instruction MAC makes the
/// cross-product-halving trick a net loss (its doubling/diagonal
/// passes cost more than the 28 saved MACs), so the ISE-supported
/// squaring *is* the multiplication routine applied to `(a, a)` —
/// which is why Table 4 reports identical 371-cycle entries for
/// full-radix ISE multiplication and squaring.
fn emit_int_sqr_via_mul(a: &mut Assembler, dst: Reg, src_a: Reg) {
    let mut a_regs = A_REGS;
    a_regs[L - 1] = src_a;
    for (i, &r) in a_regs.iter().enumerate() {
        a.ld(r, 8 * i as i32, src_a);
    }
    let (t1, t2) = (Reg::A3, Reg::A7);
    let mut acc = [Reg::A4, Reg::A5, Reg::A6];
    for &r in &acc {
        a.li(r, 0);
    }
    for k in 0..2 * L - 1 {
        let lo = k.saturating_sub(L - 1);
        let hi = k.min(L - 1);
        for i in lo..=hi {
            mac(a, true, acc, a_regs[i], a_regs[k - i], t1, t2);
        }
        a.sd(acc[0], 8 * k as i32, dst);
        acc.rotate_left(1);
        a.li(acc[2], 0);
    }
    a.sd(acc[0], 8 * (2 * L - 1) as i32, dst);
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
        ],
        0,
        |a| {
            if ise {
                emit_int_sqr_via_mul(a, Reg::A0, Reg::A1);
            } else {
                emit_int_sqr_body(a, ise, Reg::A0, Reg::A1);
            }
        },
    )
}

/// Emits the product-scanning Montgomery reduction body:
/// `dst[0..8] = t[0..16]·R^{-1} mod' p`, result in `[0, 2p)`. Reads the
/// modulus and `p' = -p^{-1} mod 2^64` from the constant pool at
/// `consts`. Preserves `dst`, `src_t` and `consts`.
fn emit_redc_body(a: &mut Assembler, ise: bool, dst: Reg, src_t: Reg, consts: Reg) {
    load_words(a, &P_REGS, consts);
    let pinv = Reg::S9;
    a.ld(pinv, 8 * L as i32, consts);
    let (t1, t2, tval) = (Reg::A7, Reg::S10, Reg::A2);
    let mut acc = [Reg::A4, Reg::A5, Reg::A6];
    for &r in &acc {
        a.li(r, 0);
    }
    for k in 0..2 * L {
        // acc += t[k]
        a.ld(tval, 8 * k as i32, src_t);
        acc_add_word(a, ise, acc, tval, t1);
        if k < L {
            // acc += m_j * p_{k-j} for j < k, then derive m_k.
            for j in 0..k {
                mac(a, ise, acc, M_REGS[j], P_REGS[k - j], t1, t2);
            }
            a.mul(M_REGS[k], acc[0], pinv);
            mac(a, ise, acc, M_REGS[k], P_REGS[0], t1, t2);
            // acc[0] is now 0 by construction; drop it.
        } else {
            for j in (k - (L - 1))..L {
                mac(a, ise, acc, M_REGS[j], P_REGS[k - j], t1, t2);
            }
            a.sd(acc[0], 8 * (k - L) as i32, dst);
        }
        acc.rotate_left(1);
        a.li(acc[2], 0);
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
        ],
        0,
        |a| {
            emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
        },
    )
}

/// Emits the borrow chain `t_regs <- x_regs - y_regs`, leaving the
/// final borrow (0/1) in `borrow`. `t_regs` may alias `y_regs`
/// (digit-wise: `y_i` is read before `t_i` is written).
fn emit_sub_chain(
    a: &mut Assembler,
    t_regs: &[Reg],
    x_regs: &[Reg],
    y_regs: &[Reg],
    borrow: Reg,
    u: Reg,
) {
    for i in 0..t_regs.len() {
        if i == 0 {
            a.sltu(borrow, x_regs[0], y_regs[0]);
            a.sub(t_regs[0], x_regs[0], y_regs[0]);
        } else {
            a.sltu(u, x_regs[i], y_regs[i]);
            a.sub(t_regs[i], x_regs[i], y_regs[i]);
            // subtract the incoming borrow
            let u2 = x_regs[i]; // x digit is dead after this step
            a.sltu(u2, t_regs[i], borrow);
            a.sub(t_regs[i], t_regs[i], borrow);
            a.or(borrow, u, u2);
        }
    }
}

/// Emits the carry chain `s_regs <- x_regs + y_regs`, leaving the
/// final carry in `carry`. `s_regs` may alias `y_regs` (the carry-out
/// comparison uses `x`, which must stay distinct).
fn emit_add_chain(
    a: &mut Assembler,
    s_regs: &[Reg],
    x_regs: &[Reg],
    y_regs: &[Reg],
    carry: Reg,
    u: Reg,
    v: Reg,
) {
    for i in 0..s_regs.len() {
        debug_assert_ne!(s_regs[i], x_regs[i], "s may alias y only");
        if i == 0 {
            a.add(s_regs[0], x_regs[0], y_regs[0]);
            a.sltu(carry, s_regs[0], x_regs[0]);
        } else {
            a.add(s_regs[i], x_regs[i], y_regs[i]);
            a.sltu(u, s_regs[i], x_regs[i]);
            a.add(s_regs[i], s_regs[i], carry);
            a.sltu(v, s_regs[i], carry);
            a.add(carry, u, v);
        }
    }
}

/// Emits the swap-based fast reduction (Algorithm 2) of the value in
/// `x_regs` against the modulus in `p_regs`, storing the canonical
/// result to `dst`. Clobbers `p_regs` (they receive `T = A − P`) and
/// the scratch registers.
fn emit_fast_reduce_tail(a: &mut Assembler, x_regs: &[Reg; 8], p_regs: &[Reg; 8], dst: Reg) {
    let (borrow, u) = (Reg::A4, Reg::A5);
    // T <- A - P, into the P registers.
    for i in 0..L {
        if i == 0 {
            a.sltu(borrow, x_regs[0], p_regs[0]);
            a.sub(p_regs[0], x_regs[0], p_regs[0]);
        } else {
            a.sltu(u, x_regs[i], p_regs[i]);
            a.sub(p_regs[i], x_regs[i], p_regs[i]);
            let u2 = Reg::A6;
            a.sltu(u2, p_regs[i], borrow);
            a.sub(p_regs[i], p_regs[i], borrow);
            a.or(borrow, u, u2);
        }
    }
    // M <- 0 - borrow ; R <- T xor (M and (A xor T))
    let m = Reg::A7;
    a.neg(m, borrow);
    for i in 0..L {
        a.xor(u, x_regs[i], p_regs[i]);
        a.and(u, u, m);
        a.xor(u, p_regs[i], u);
        a.sd(u, 8 * i as i32, dst);
    }
}

/// Fast modulo-p reduction (Algorithm 2): identical with and without
/// the full-radix ISE.
fn fast_reduce() -> Program {
    with_frame(&P_REGS, 0, |a| {
        let mut x_regs = B_REGS; // t0..t6, a2 (a2 free: unary op)
        x_regs[L - 1] = Reg::A2;
        for (i, &r) in x_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        let p_regs = P_REGS;
        load_words(a, &p_regs, Reg::A3);
        emit_fast_reduce_tail(a, &x_regs, &p_regs, Reg::A0);
    })
}

/// Fp addition: carry-chain add then swap-based fast reduction.
/// Identical with and without the full-radix ISE.
fn fp_add() -> Program {
    with_frame(&P_REGS, 0, |a| {
        // Load A into the t-registers (a1 last), B into the s-registers.
        let a_regs = {
            let mut r = B_REGS;
            r[L - 1] = Reg::A1;
            r
        };
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        let mut b_regs = P_REGS;
        b_regs[L - 1] = Reg::A2;
        for (i, &r) in b_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A2);
        }
        // S <- A + B into the b registers.
        emit_add_chain(a, &b_regs, &a_regs, &b_regs, Reg::A4, Reg::A5, Reg::A6);
        // P into the a registers (now dead).
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A3);
        }
        // Swap-based reduction of S against P: note A = S here.
        // Re-bind: x = b_regs (the sum), p = a_regs.
        let s_arr: [Reg; 8] = b_regs;
        let p_arr: [Reg; 8] = a_regs;
        emit_fast_reduce_tail(a, &s_arr, &p_arr, Reg::A0);
    })
}

/// Fp subtraction: `T ← A − B`, then add `M ∧ P` back (the Algorithm-1
/// variant of §3.1). Identical with and without the full-radix ISE.
fn fp_sub() -> Program {
    with_frame(&P_REGS, 0, |a| {
        let a_regs = {
            let mut r = B_REGS;
            r[L - 1] = Reg::A1;
            r
        };
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        let mut b_regs = P_REGS;
        b_regs[L - 1] = Reg::A2;
        for (i, &r) in b_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A2);
        }
        // T <- A - B into the b registers.
        emit_sub_chain(a, &b_regs, &a_regs, &b_regs, Reg::A4, Reg::A5);
        let m = Reg::A7;
        a.neg(m, Reg::A4);
        // Load P into the a registers and mask it.
        for (i, &r) in a_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A3);
            a.and(r, r, m);
        }
        // R <- T + (M & P), store. (x = masked P: the non-aliased input.)
        emit_add_chain(a, &b_regs, &a_regs, &b_regs, Reg::A4, Reg::A5, Reg::A6);
        for (i, &r) in b_regs.iter().enumerate() {
            a.sd(r, 8 * i as i32, Reg::A0);
        }
    })
}

const ALL_S: [Reg; 11] = [
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
];

/// Fp multiplication: integer multiply into a stack buffer, Montgomery
/// reduction, then fast reduction — the composition whose cost Table 4
/// reports as the sum of its three component rows (plus staging).
fn fp_mul(ise: bool) -> Program {
    // Frame: 16 words t-buffer, 8 words r-buffer, saved a0 and a3.
    let t_off = 0;
    let r_off = 16;
    let a0_slot = 24;
    let a3_slot = 25;
    with_frame(&ALL_S, 26, move |a| {
        a.sd(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.sd(Reg::A3, 8 * a3_slot, Reg::Sp); // mul body uses a3 as a temp
        a.addi(Reg::A0, Reg::Sp, 8 * t_off);
        emit_int_mul_body(a, ise, Reg::A0, Reg::A1, Reg::A2);
        a.addi(Reg::A1, Reg::Sp, 8 * t_off);
        a.addi(Reg::A0, Reg::Sp, 8 * r_off);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
        // Fast reduce r-buffer into the caller's destination.
        let mut x_regs = B_REGS;
        x_regs[L - 1] = Reg::A2;
        a.addi(Reg::A1, Reg::Sp, 8 * r_off);
        for (i, &r) in x_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        let p_regs = P_REGS;
        load_words(a, &p_regs, Reg::A3);
        a.ld(Reg::A0, 8 * a0_slot, Reg::Sp);
        emit_fast_reduce_tail(a, &x_regs, &p_regs, Reg::A0);
    })
}

/// Fp squaring: like [`fp_mul`] with the squaring front end.
fn fp_sqr(ise: bool) -> Program {
    let t_off = 0;
    let r_off = 16;
    let a0_slot = 24;
    let a3_slot = 25;
    with_frame(&ALL_S, 26, move |a| {
        a.sd(Reg::A0, 8 * a0_slot, Reg::Sp);
        a.sd(Reg::A3, 8 * a3_slot, Reg::Sp); // sqr body uses a3 as a temp
        a.addi(Reg::A0, Reg::Sp, 8 * t_off);
        if ise {
            emit_int_sqr_via_mul(a, Reg::A0, Reg::A1);
        } else {
            emit_int_sqr_body(a, ise, Reg::A0, Reg::A1);
        }
        a.addi(Reg::A1, Reg::Sp, 8 * t_off);
        a.addi(Reg::A0, Reg::Sp, 8 * r_off);
        a.ld(Reg::A3, 8 * a3_slot, Reg::Sp);
        emit_redc_body(a, ise, Reg::A0, Reg::A1, Reg::A3);
        let mut x_regs = B_REGS;
        x_regs[L - 1] = Reg::A2;
        a.addi(Reg::A1, Reg::Sp, 8 * r_off);
        for (i, &r) in x_regs.iter().enumerate() {
            a.ld(r, 8 * i as i32, Reg::A1);
        }
        let p_regs = P_REGS;
        load_words(a, &p_regs, Reg::A3);
        a.ld(Reg::A0, 8 * a0_slot, Reg::Sp);
        emit_fast_reduce_tail(a, &x_regs, &p_regs, Reg::A0);
    })
}
