//! Netlists for the three multiplier-datapath variants of §3.3.
//!
//! Each variant is a 64×64 multiplier core, sign handling, a wide
//! adder, a shift/mask network and operand-select muxes, wrapped in the
//! 2-stage pipeline the paper describes ("one register stage at input
//! operands and another at the output result").
//!
//! Each generator returns an [`XmulNetlist`] exposing its operand,
//! control and result buses, so the tests verify the netlists
//! bit-for-bit against the semantics the simulator executes:
//! `mpise_sim::cpu::eval_alu` for the RV64M multiplies and
//! `mpise_core::intrinsics` for the custom instructions. The hardware
//! model is not just an area estimate.
//!
//! The wide adders are ripple chains of full-adder cells: the LUT
//! mapper prices those at one LUT per bit, modelling the dedicated
//! carry chains an FPGA tool infers. The parallel-prefix alternative,
//! [`crate::generators::kogge_stone_adder`], is compared with the
//! ripple adder in the `hardware_cost` example (LUTs and depth) and in
//! the depth tests of [`crate::depth`].

use crate::generators::{barrel_shifter_right, ripple_adder};
use crate::netlist::{Bus, Net, Netlist, ZERO};

/// Width of the register operands.
pub(crate) const W: usize = 64;

/// Number of pipeline-control / hazard-forwarding flip-flops charged
/// per added read port (valid bits, bypass select state for the third
/// operand that §3.3 says "can be fetched from the forwarding path").
pub(crate) const FORWARDING_CTRL_REGS: usize = 32;

/// A generated multiplier datapath with its interface buses.
#[derive(Debug, Clone)]
pub struct XmulNetlist {
    /// The netlist itself.
    pub netlist: Netlist,
    /// First operand (64 bits).
    pub x: Bus,
    /// Second operand (64 bits).
    pub y: Bus,
    /// Third operand (64 bits; constant-zero for the base multiplier).
    pub z: Bus,
    /// Shift amount (6 bits; empty when the variant has no shifter).
    pub shamt: Bus,
    /// Control word (see each generator's bit assignment).
    pub ctrl: Bus,
    /// The 64-bit result bus (after the output register).
    pub result: Bus,
}

/// Conditional two's-complement negation: `en ? -a : a`
/// (xor stage + increment chain).
fn conditional_negate(n: &mut Netlist, a: &[Net], en: Net) -> Bus {
    let flipped: Bus = a.iter().map(|&bit| n.xor2(bit, en)).collect();
    let mut out = Vec::with_capacity(a.len());
    let mut carry = en;
    for &bit in &flipped {
        let (s, c) = n.half_adder(bit, carry);
        out.push(s);
        carry = c;
    }
    out
}

/// Shared front end: stage-1 operand registers, sign handling and the
/// DSP multiplier. Control bits 0..3: negate-x, negate-y,
/// negate-product. Returns `(x_reg, y_reg, product)`.
fn multiplier_front(n: &mut Netlist, x: &Bus, y: &Bus, ctrl: &Bus) -> (Bus, Bus, Bus) {
    let xs = conditional_negate(n, x, ctrl[0]);
    let ys = conditional_negate(n, y, ctrl[1]);
    let p = n.dsp_mul(&xs, &ys);
    let ps = conditional_negate(n, &p, ctrl[2]);
    (x.clone(), y.clone(), ps)
}

/// The baseline Rocket-style pipelined multiplier: `mul`, `mulh`,
/// `mulhsu`, `mulhu`.
///
/// Control bits: `0` negate x, `1` negate y, `2` negate product,
/// `3` select high half.
pub(crate) fn base_multiplier() -> XmulNetlist {
    let mut n = Netlist::new("mul-base");
    let x_in = n.input_bus(W);
    let y_in = n.input_bus(W);
    let ctrl_in = n.input_bus(4);

    let x = n.dff_bus(&x_in);
    let y = n.dff_bus(&y_in);
    let ctrl = n.dff_bus(&ctrl_in);

    let (_, _, ps) = multiplier_front(&mut n, &x, &y, &ctrl);
    let out = n.mux_bus(ctrl[3], &ps[W..], &ps[..W]);
    let result = n.dff_bus(&out);
    n.output_bus(&result);
    XmulNetlist {
        netlist: n,
        x: x_in,
        y: y_in,
        z: vec![ZERO; W],
        shamt: vec![],
        ctrl: ctrl_in,
        result,
    }
}

/// The full-radix XMUL: base ops plus `maddlu`, `maddhu`, `cadd`.
///
/// Control bits: `0` negate x, `1` negate y, `2` negate product,
/// `3` select high half, `4` main path = x zero-extended (cadd),
/// `5` pre-add operand = y (else z), `6` pre-add enable,
/// `7` output = cadd post-adder.
pub(crate) fn full_radix_xmul() -> XmulNetlist {
    let mut n = Netlist::new("xmul-full");
    let x_in = n.input_bus(W);
    let y_in = n.input_bus(W);
    let z_in = n.input_bus(W);
    let ctrl_in = n.input_bus(8);

    let x = n.dff_bus(&x_in);
    let y = n.dff_bus(&y_in);
    let z = n.dff_bus(&z_in); // extra input-stage register
    let ctrl = n.dff_bus(&ctrl_in);

    let (_, _, ps) = multiplier_front(&mut n, &x, &y, &ctrl);

    // Main-path select: product, or x zero-extended (cadd bypass).
    let mut x_wide = x.clone();
    x_wide.extend(std::iter::repeat_n(ZERO, W));
    let main = n.mux_bus(ctrl[4], &x_wide, &ps);

    // Pre-adder operand: z (madd ops) or y (cadd), gated by enable,
    // zero-extended to 128 bits.
    let zy = n.mux_bus(ctrl[5], &y, &z);
    let pre = n.and_bus(&zy, ctrl[6]);
    let mut pre_wide = pre;
    pre_wide.extend(std::iter::repeat_n(ZERO, W));

    // 128-bit adder (carry-chain mapped).
    let (sum, _) = ripple_adder(&mut n, &main, &pre_wide);

    // cadd post-add: high half + z (64-bit adder), selected late.
    let sum_hi: Bus = sum[W..].to_vec();
    let (cadd_out, _) = ripple_adder(&mut n, &sum_hi, &z);

    // Output select: low/high half, then the cadd result.
    let hi_lo = n.mux_bus(ctrl[3], &sum[W..], &sum[..W]);
    let out = n.mux_bus(ctrl[7], &cadd_out, &hi_lo);

    // Stage-2 registers: result, the forwarded third operand, bypass
    // control state, and the pre-adder's high half (the `cadd`
    // result's second addition completes against this registered copy
    // in write-back, keeping the 128-bit adder off the critical path).
    let result = n.dff_bus(&out);
    let _z_fwd = n.dff_bus(&z);
    let hi_stage = n.dff_bus(&sum_hi);
    n.output_bus(&hi_stage);
    for _ in 0..FORWARDING_CTRL_REGS {
        let d = n.input();
        let q = n.dff(d);
        n.output(q);
    }
    n.output_bus(&result);
    XmulNetlist {
        netlist: n,
        x: x_in,
        y: y_in,
        z: z_in,
        shamt: vec![],
        ctrl: ctrl_in,
        result,
    }
}

/// The reduced-radix XMUL: base ops plus `madd57lu`, `madd57hu`,
/// `sraiadd`.
///
/// Control bits: `0` negate x, `1` negate y, `2` negate product,
/// `3` main = product >> 57 (madd57hu), `4` main = y >>(arith) imm
/// (sraiadd), `5` mask low 57 bits (madd57lu), `6` post-add operand =
/// x (else z), `7` post-add enable, `8` output = post-adder,
/// `9` select high half (base ops).
pub(crate) fn reduced_radix_xmul() -> XmulNetlist {
    let mut n = Netlist::new("xmul-reduced");
    let x_in = n.input_bus(W);
    let y_in = n.input_bus(W);
    let z_in = n.input_bus(W);
    let shamt_in = n.input_bus(6);
    let ctrl_in = n.input_bus(10);

    let x = n.dff_bus(&x_in);
    let y = n.dff_bus(&y_in);
    let z = n.dff_bus(&z_in);
    let shamt = n.dff_bus(&shamt_in);
    let ctrl = n.dff_bus(&ctrl_in);

    let (_, _, ps) = multiplier_front(&mut n, &x, &y, &ctrl);

    // Shift network: >>57 is wiring; the generic arithmetic shifter
    // for sraiadd is a real 64-bit barrel shifter on y.
    let p_shift57: Bus = ps[57..57 + W].to_vec();
    let sraiadd_path = barrel_shifter_right(&mut n, &y, &shamt, true);

    // Main-path select (low product / product>>57 / y>>imm).
    let lo_bus: Bus = ps[..W].to_vec();
    let lo_or_shift = n.mux_bus(ctrl[3], &p_shift57, &lo_bus);
    let main = n.mux_bus(ctrl[4], &sraiadd_path, &lo_or_shift);

    // Mask network: keep the low 57 bits for madd57lu.
    let mut masked = Vec::with_capacity(W);
    for (i, &bit) in main.iter().enumerate() {
        if i < 57 {
            masked.push(bit);
        } else {
            masked.push(n.mux2(ctrl[5], ZERO, bit));
        }
    }

    // Post-adder: + z (madd57lu/hu) or + x (sraiadd), gated.
    let zx = n.mux_bus(ctrl[6], &x, &z);
    let addend = n.and_bus(&zx, ctrl[7]);
    let (sum, _) = ripple_adder(&mut n, &masked, &addend);

    // Base-ops output select still needs the plain low/high halves.
    let hi_lo = n.mux_bus(ctrl[9], &ps[W..], &ps[..W]);
    let out = n.mux_bus(ctrl[8], &sum, &hi_lo);

    // Stage-2 registers: result, forwarded third operand, the masked
    // 57-bit low-product slice (write-back staging of the auto-aligned
    // accumulator path) and bypass control state.
    let result = n.dff_bus(&out);
    let _z_fwd = n.dff_bus(&z);
    let mask_stage = n.dff_bus(&masked[..57]);
    n.output_bus(&mask_stage);
    for _ in 0..FORWARDING_CTRL_REGS {
        let d = n.input();
        let q = n.dff(d);
        n.output(q);
    }
    n.output_bus(&result);
    XmulNetlist {
        netlist: n,
        x: x_in,
        y: y_in,
        z: z_in,
        shamt: shamt_in,
        ctrl: ctrl_in,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depth::xmul_depths;
    use crate::netlist::{assign_bus, bus_value, CellKind};
    use crate::{table3, CoreCost};
    use mpise_core::intrinsics;
    use mpise_sim::cpu::eval_alu;
    use mpise_sim::inst::AluOp;

    /// The RV64M multiplies every variant executes.
    const BASE_OPS: [AluOp; 4] = [AluOp::Mul, AluOp::Mulh, AluOp::Mulhsu, AluOp::Mulhu];

    fn regs(n: &Netlist) -> usize {
        n.count(CellKind::Dff)
    }

    #[test]
    fn variants_build_and_are_ordered_by_size() {
        let base = base_multiplier().netlist;
        let full = full_radix_xmul().netlist;
        let red = reduced_radix_xmul().netlist;
        assert!(base.len() < full.len());
        assert!(
            full.len() < red.len(),
            "reduced-radix datapath is larger (barrel shifter + mask)"
        );
    }

    #[test]
    fn all_variants_share_one_dsp_multiplier() {
        for x in [base_multiplier(), full_radix_xmul(), reduced_radix_xmul()] {
            assert_eq!(x.netlist.count(CellKind::DspMul), 1, "{}", x.netlist.name());
        }
    }

    #[test]
    fn extended_variants_add_registers() {
        let base = regs(&base_multiplier().netlist);
        let full = regs(&full_radix_xmul().netlist);
        let red = regs(&reduced_radix_xmul().netlist);
        let d_full = full - base;
        let d_red = red - base;
        assert!((100..400).contains(&d_full), "full reg delta {d_full}");
        assert!((100..400).contains(&d_red), "reduced reg delta {d_red}");
    }

    /// The exact structural figures behind Table 3 and the §3.3 depth
    /// claim, so any change to a netlist or to the mapper, area or
    /// delay model shows here, not only when it leaves a claim's band.
    #[test]
    fn structural_figures_are_pinned() {
        let t = table3();
        let row = |c: &CoreCost| (c.luts, c.regs, c.dsps, c.cmos);
        assert_eq!(row(&t.full), (5087, 2392, 16, 490_790));
        assert_eq!(row(&t.reduced), (5365, 2393, 16, 492_979));
        let reports = t.xmul_reports.map(|m| (m.luts, m.regs, m.dsps, m.cells));
        assert_eq!(
            reports,
            [
                (320, 196, 16, 773),
                (576, 424, 16, 1513),
                (854, 425, 16, 1777)
            ]
        );
        let depths = xmul_depths().map(|(_, d)| (d.critical_path, d.nets));
        assert_eq!(depths, [(310.5, 1290), (314.5, 2322), (312.0, 2466)]);
    }

    /// Control-word encodings for the functional tests (the job of the
    /// modified instruction decoder in §3.3). Sign-negate enables are
    /// computed from the operand sign bits like the real datapath's
    /// sign logic would.
    fn base_ctrl(op: AluOp, x: u64, y: u64) -> u64 {
        let (xs, ys) = ((x >> 63) & 1, (y >> 63) & 1);
        match op {
            AluOp::Mul => xs | (ys << 1) | ((xs ^ ys) << 2),
            AluOp::Mulh => xs | (ys << 1) | ((xs ^ ys) << 2) | (1 << 3),
            AluOp::Mulhsu => xs | (xs << 2) | (1 << 3),
            AluOp::Mulhu => 1 << 3,
            _ => unreachable!("{op:?} is not an RV64M multiply"),
        }
    }

    fn run(x: &XmulNetlist, ctrl: u64, xv: u64, yv: u64, zv: u64, shamt: u64) -> u64 {
        let mut iv = assign_bus(&x.x, xv);
        iv.extend(assign_bus(&x.y, yv));
        if !x.z.iter().all(|&n| n == ZERO) {
            iv.extend(assign_bus(&x.z, zv));
        }
        if !x.shamt.is_empty() {
            iv.extend(assign_bus(&x.shamt, shamt));
        }
        iv.extend(assign_bus(&x.ctrl, ctrl));
        // Forwarding-control dummy inputs default: drive every primary
        // input not yet covered to 0.
        for &inp in x.netlist.inputs() {
            if !iv.iter().any(|(n, _)| *n == inp) {
                iv.push((inp, false));
            }
        }
        let vals = x.netlist.evaluate(&iv);
        bus_value(&x.result, &vals)
    }

    const CASES: [(u64, u64, u64); 9] = [
        (0, 0, 0),
        (3, 5, 7),
        (u64::MAX, u64::MAX, u64::MAX),
        (0x8000_0000_0000_0000, 2, 1),
        (0x1234_5678_9abc_def0, 0xfedc_ba98_7654_3210, 0xdead_beef),
        ((1 << 57) + 12345, (1 << 56) + 999, (1 << 62) + 7),
        (1 << 63, 1 << 63, 0), // mulh's i64::MIN² corner
        (u64::MAX, 1, 1),
        (1, 1, 1),
    ];

    #[test]
    fn base_netlist_matches_rv64m() {
        let bm = base_multiplier();
        for &(xv, yv, _) in &CASES {
            for op in BASE_OPS {
                let got = run(&bm, base_ctrl(op, xv, yv), xv, yv, 0, 0);
                assert_eq!(got, eval_alu(op, xv, yv), "{op:?} x={xv:#x} y={yv:#x}");
            }
        }
    }

    #[test]
    fn full_radix_netlist_matches_intrinsics() {
        let fx = full_radix_xmul();
        for &(xv, yv, zv) in &CASES {
            // Base ops still work on the extended datapath
            // (pre-add disabled).
            for op in BASE_OPS {
                let got = run(&fx, base_ctrl(op, xv, yv), xv, yv, zv, 0);
                assert_eq!(got, eval_alu(op, xv, yv), "{op:?}");
            }
            // maddlu: pre-add z (bit 6), low half.
            let got = run(&fx, 1 << 6, xv, yv, zv, 0);
            assert_eq!(got, intrinsics::maddlu(xv, yv, zv), "maddlu");
            // maddhu: pre-add z, high half (bit 3).
            let got = run(&fx, (1 << 6) | (1 << 3), xv, yv, zv, 0);
            assert_eq!(got, intrinsics::maddhu(xv, yv, zv), "maddhu");
            // cadd: main = x zext (4), pre-add y (5,6), out = post (7).
            let got = run(
                &fx,
                (1 << 4) | (1 << 5) | (1 << 6) | (1 << 7),
                xv,
                yv,
                zv,
                0,
            );
            assert_eq!(got, intrinsics::cadd(xv, yv, zv), "cadd");
        }
    }

    #[test]
    fn reduced_radix_netlist_matches_intrinsics() {
        let rx = reduced_radix_xmul();
        for &(xv, yv, zv) in &CASES {
            for op in BASE_OPS {
                let ctrl = match op {
                    AluOp::Mul => base_ctrl(op, xv, yv) & 0b111,
                    _ => (base_ctrl(op, xv, yv) & 0b111) | (1 << 9),
                };
                let got = run(&rx, ctrl, xv, yv, zv, 0);
                assert_eq!(got, eval_alu(op, xv, yv), "{op:?}");
            }
            // madd57lu: mask (5), post-add z (7), out = post (8).
            let got = run(&rx, (1 << 5) | (1 << 7) | (1 << 8), xv, yv, zv, 0);
            assert_eq!(got, intrinsics::madd57lu(xv, yv, zv), "madd57lu");
            // madd57hu: product>>57 (3), post-add z (7), out = post (8).
            let got = run(&rx, (1 << 3) | (1 << 7) | (1 << 8), xv, yv, zv, 0);
            assert_eq!(got, intrinsics::madd57hu(xv, yv, zv), "madd57hu");
            // sraiadd: main = y>>imm (4), post-add x (6,7), out (8).
            for imm in [0u64, 1, 57, 63] {
                let got = run(
                    &rx,
                    (1 << 4) | (1 << 6) | (1 << 7) | (1 << 8),
                    xv,
                    yv,
                    zv,
                    imm,
                );
                assert_eq!(
                    got,
                    intrinsics::sraiadd(xv, yv, imm as u32),
                    "sraiadd imm={imm}"
                );
            }
        }
    }
}
