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

use super::{
    column, fp_mul, load_operand, load_words, montgomery_scan, product_scan, with_frame,
    Accumulator, OpKind, Radix, Reload,
};
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

/// Callee-saved registers of the Montgomery reduction (`s0..s10`:
/// modulus, `M_REGS[7]`, `p'` and a MAC temporary); FpMul/FpSqr save
/// as many.
const REDC_SAVED: usize = 11;

/// Generates the full-radix kernel for `op` (`ise` selects the
/// Listing 3 MAC and `cadd`).
pub(crate) fn generate(op: OpKind, ise: bool) -> Program {
    let front = move |a: &mut Assembler| match op {
        OpKind::IntMul | OpKind::FpMul => emit_int_mul_body(a, ise),
        _ => emit_int_sqr(a, ise),
    };
    let redc = move |a: &mut Assembler| emit_redc_body(a, ise);
    match op {
        // s0..s6 hold the first operand.
        OpKind::IntMul | OpKind::IntSqr => with_frame(7, 0, front),
        OpKind::MontRedc => with_frame(REDC_SAVED, 0, redc),
        OpKind::FastReduce => with_frame(P_REGS.len(), 0, |a| emit_fast_reduce(a, &|_, _| {})),
        OpKind::FpAdd => fp_add(),
        OpKind::FpSub => fp_sub(),
        OpKind::FpMul | OpKind::FpSqr => {
            fp_mul(Radix::Full, REDC_SAVED, front, redc, emit_fast_reduce)
        }
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

/// The full-radix accumulator: three words `(e‖h‖l)` in `acc`, shifted
/// down a digit by renaming (rotating `acc`, no moves), with the MAC
/// temporaries `t1`/`t2`.
pub(super) struct FullAcc {
    ise: bool,
    acc: [Reg; 3],
    t1: Reg,
    t2: Reg,
}

impl FullAcc {
    /// The accumulator of the multiplication and squaring bodies (and
    /// of the Karatsuba ablation's half-size products).
    pub(super) fn product(ise: bool) -> Self {
        let acc = [Reg::A4, Reg::A5, Reg::A6];
        let (t1, t2) = (Reg::A3, Reg::A7);
        FullAcc { ise, acc, t1, t2 }
    }
}

impl Accumulator for FullAcc {
    fn zero(&mut self, a: &mut Assembler) {
        for &r in &self.acc {
            a.li(r, 0);
        }
    }

    fn mac(&mut self, a: &mut Assembler, x: Reg, y: Reg) {
        mac(a, self.ise, self.acc, x, y, self.t1, self.t2);
    }

    fn add_word(&mut self, a: &mut Assembler, v: Reg) {
        let ([l, h, e], t) = (self.acc, self.t1);
        if self.ise {
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

    fn montgomery_digit(&mut self, a: &mut Assembler, m: Reg, pinv: Reg) {
        a.mul(m, self.acc[0], pinv);
    }

    fn end_column(&mut self, a: &mut Assembler, store: Option<(Reg, usize)>) {
        if let Some((dst, word)) = store {
            a.sd(self.acc[0], 8 * word as i32, dst);
        }
        self.acc.rotate_left(1);
        a.li(self.acc[2], 0);
    }

    fn store_carry(&mut self, a: &mut Assembler, dst: Reg, word: usize) {
        a.sd(self.acc[0], 8 * word as i32, dst);
    }
}

/// Emits the product-scanning multiplication body under the kernel ABI:
/// `a0[0..16] = A·B` with A in [`A_REGS`] and B in [`B_REGS`].
fn emit_int_mul_body(a: &mut Assembler, ise: bool) {
    let x = load_operand(a, A_REGS, Reg::A1);
    let y = load_operand(a, B_REGS, Reg::A2);
    product_scan(a, &mut FullAcc::product(ise), &x, &y, Reg::A0, 0);
}

/// Emits `a0[0..16] = A²`.
///
/// ISA-only: cross products once (product scanning), then one doubling
/// pass over `a0`, then the diagonal pass: 28 MACs fewer than the
/// multiplication, which the two memory passes partly pay back (569
/// against 645 cycles in Table 4, about 12% cheaper; EXPERIMENTS.md).
/// ROADMAP item 6 is the in-register rewrite.
///
/// With the ISE the 4-instruction MAC makes that trick a net loss (its
/// doubling/diagonal passes cost more than the 28 saved MACs), so the
/// squaring *is* the multiplication scan applied to `(A, A)` — which is
/// why Table 4 reports identical 371-cycle entries for full-radix ISE
/// multiplication and squaring.
fn emit_int_sqr(a: &mut Assembler, ise: bool) {
    let x = load_operand(a, A_REGS, Reg::A1);
    if ise {
        product_scan(a, &mut FullAcc::product(true), &x, &x, Reg::A0, 0);
        return;
    }
    let (dst, mut acc) = (Reg::A0, FullAcc::product(false));
    // Phase 1: cross products i < j, columns 1..=2L-3.
    acc.zero(a);
    a.sd(Reg::Zero, 0, dst); // column 0 has no cross term
    for k in 1..=2 * L - 3 {
        for i in column(k, L).filter(|&i| i < k - i) {
            acc.mac(a, x[i], x[k - i]);
        }
        acc.end_column(a, Some((dst, k)));
    }
    acc.store_carry(a, dst, 2 * L - 2);
    a.sd(acc.acc[1], 8 * (2 * L - 1) as i32, dst);

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
    for (i, &xi) in x.iter().enumerate() {
        a.mul(lo, xi, xi);
        a.mulhu(hi, xi, xi);
        for (word, v) in [(2 * i, lo), (2 * i + 1, hi)] {
            a.ld(wv, 8 * word as i32, dst);
            a.add(wv, wv, carry);
            a.sltu(carry, wv, carry);
            a.add(wv, wv, v);
            a.sltu(u, wv, v);
            a.add(carry, carry, u);
            a.sd(wv, 8 * word as i32, dst);
        }
    }
}

/// Emits the product-scanning Montgomery reduction body under the
/// kernel ABI (see [`montgomery_scan`]); preserves `a0`, `a1` and `a3`.
fn emit_redc_body(a: &mut Assembler, ise: bool) {
    let acc = [Reg::A4, Reg::A5, Reg::A6];
    let (t1, t2) = (Reg::A7, Reg::S10);
    montgomery_scan(
        a,
        &mut FullAcc { ise, acc, t1, t2 },
        &P_REGS,
        &M_REGS,
        Reg::S9,
    );
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

/// Fast modulo-p reduction (Algorithm 2) of `a1` into `a0`: identical
/// with and without the full-radix ISE. Loads the value and the
/// modulus, then calls `reload` for `a0`.
fn emit_fast_reduce(a: &mut Assembler, reload: Reload) {
    load_words(a, &B_REGS, Reg::A1); // t0..t6, a2 (a2 free: unary op)
    load_words(a, &P_REGS, Reg::A3);
    reload(a, Reg::A0);
    emit_fast_reduce_tail(a, &B_REGS, &P_REGS, Reg::A0);
}

/// Fp addition: carry-chain add then swap-based fast reduction.
/// Identical with and without the full-radix ISE.
fn fp_add() -> Program {
    with_frame(P_REGS.len(), 0, |a| {
        // Load A into the t-registers (a1 last), B into the s-registers.
        let a_regs = load_operand(a, B_REGS, Reg::A1);
        let b_regs = load_operand(a, P_REGS, Reg::A2);
        // S <- A + B into the b registers.
        emit_add_chain(a, &b_regs, &a_regs, &b_regs, Reg::A4, Reg::A5, Reg::A6);
        // P into the a registers (now dead), then the swap-based
        // reduction of the sum S against P.
        load_words(a, &a_regs, Reg::A3);
        emit_fast_reduce_tail(a, &b_regs, &a_regs, Reg::A0);
    })
}

/// Fp subtraction: `T ← A − B`, then add `M ∧ P` back (the Algorithm-1
/// variant of §3.1). Identical with and without the full-radix ISE.
fn fp_sub() -> Program {
    with_frame(P_REGS.len(), 0, |a| {
        let a_regs = load_operand(a, B_REGS, Reg::A1);
        let b_regs = load_operand(a, P_REGS, Reg::A2);
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
