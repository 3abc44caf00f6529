//! Every row of the base operation tables against the reference.
//!
//! The fuzzer draws its ALU, load and store ops from fixed sublists, so
//! some rows (`sllw`, the `*w` divides, `slti`, `lh`, `sh`, ...) never
//! reach [`RefMachine`](mpise_conformance::RefMachine) through it. Here
//! each row of [`ALU_OPS`], [`ALU_IMM_OPS`], [`LOAD_OPS`] and
//! [`STORE_OPS`] runs as a one instruction program over the
//! carry-boundary operands, writing `x0` and writing a real register,
//! through [`DiffRunner`]: on the simulator a block at a time, traced
//! (an instruction at a time), and on the reference. All 32 registers,
//! the data window and the retired instruction count must agree.

use mpise_conformance::fuzz::BOUNDARY_U64;
use mpise_conformance::{DiffRunner, ExtChoice};
use mpise_sim::inst::{ALU_IMM_OPS, ALU_OPS, LOAD_OPS, STORE_OPS};
use mpise_sim::machine::DATA_BASE;
use mpise_sim::{Inst, Reg};

/// The fuzzer's carry boundaries, the 32-bit edges the `*w` forms turn
/// on, and shift amounts either side of 32.
fn operands() -> Vec<u64> {
    let mut v = BOUNDARY_U64.to_vec();
    v.extend([0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 31, 32]);
    v
}

/// Runs `inst`, then `ebreak`, from registers `init` and data words
/// `data` at [`DATA_BASE`], and requires the executors to agree.
fn check(runner: &mut DiffRunner, inst: Inst, init: &[(Reg, u64)], data: &[u64]) {
    if let Some(d) = runner.run_insts(&[inst, Inst::Ebreak], init, data) {
        panic!("{inst:?}: {d}");
    }
}

/// A real destination, and `x0`, whose writes must be discarded.
const DESTS: [Reg; 2] = [Reg::A0, Reg::Zero];

#[test]
fn every_alu_row_matches_the_reference() {
    let mut runner = DiffRunner::new(ExtChoice::Base);
    let ops = operands();
    for &(op, ..) in &ALU_OPS {
        for rd in DESTS {
            for &x in &ops {
                for &y in &ops {
                    let inst = Inst::Op {
                        op,
                        rd,
                        rs1: Reg::A1,
                        rs2: Reg::A2,
                    };
                    check(&mut runner, inst, &[(Reg::A1, x), (Reg::A2, y)], &[]);
                }
            }
        }
    }
}

#[test]
fn every_alu_imm_row_matches_the_reference() {
    let mut runner = DiffRunner::new(ExtChoice::Base);
    for &(op, ..) in &ALU_IMM_OPS {
        let imms: Vec<i32> = if op.is_shift() {
            (0..1 << op.shamt_bits()).collect()
        } else {
            vec![-2048, -1, 0, 1, 2047]
        };
        for rd in DESTS {
            for &x in &operands() {
                for &imm in &imms {
                    let inst = Inst::OpImm {
                        op,
                        rd,
                        rs1: Reg::A1,
                        imm,
                    };
                    check(&mut runner, inst, &[(Reg::A1, x)], &[]);
                }
            }
        }
    }
}

#[test]
fn every_load_row_matches_the_reference() {
    let mut runner = DiffRunner::new(ExtChoice::Base);
    for &(op, ..) in &LOAD_OPS {
        let width = op.width();
        for rd in DESTS {
            for &v in &operands() {
                // Every aligned position in the word, so each byte,
                // half or word of it is sign- or zero-extended.
                for offset in (0..8).step_by(width as usize) {
                    let inst = Inst::Load {
                        op,
                        rd,
                        rs1: Reg::A1,
                        offset: 8 + offset,
                    };
                    let data = [0, v, !v, 0];
                    check(&mut runner, inst, &[(Reg::A1, DATA_BASE)], &data);
                }
            }
        }
    }
}

#[test]
fn every_store_row_matches_the_reference() {
    // A store writes no register; its source is `x0` (storing zero) or
    // a real register.
    let mut runner = DiffRunner::new(ExtChoice::Base);
    for &(op, ..) in &STORE_OPS {
        let width = op.width();
        for rs2 in [Reg::A2, Reg::Zero] {
            for &v in &operands() {
                for offset in (0..8).step_by(width as usize) {
                    let inst = Inst::Store {
                        op,
                        rs1: Reg::A1,
                        rs2,
                        offset: 8 + offset,
                    };
                    // Memory that is not zero, so the bytes a store
                    // must leave alone show.
                    let data = [u64::MAX, 0xa5a5_a5a5_a5a5_a5a5, 0x0123_4567_89ab_cdef, 1];
                    let init = [(Reg::A1, DATA_BASE), (Reg::A2, v)];
                    check(&mut runner, inst, &init, &data);
                }
            }
        }
    }
}
