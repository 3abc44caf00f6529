//! Every row of the base operation tables against the reference.
//!
//! The fuzzer draws its ALU, load and store ops from fixed sublists, so
//! some rows (`sllw`, the `*w` divides, `slti`, `lh`, `sh`, ...) never
//! reach [`RefMachine`] through it. Here each row of [`ALU_OPS`],
//! [`ALU_IMM_OPS`], [`LOAD_OPS`] and [`STORE_OPS`] runs as a one
//! instruction program over the carry-boundary operands, writing `x0`
//! and writing a real register, on three executors: [`Machine`] a block
//! at a time, [`Machine`] traced (an instruction at a time), and
//! [`RefMachine`]. All 32 registers, the data window and the retired
//! instruction count must agree.

use mpise_conformance::fuzz::BOUNDARY_U64;
use mpise_conformance::RefMachine;
use mpise_sim::asm::Program;
use mpise_sim::inst::{ALU_IMM_OPS, ALU_OPS, LOAD_OPS, STORE_OPS};
use mpise_sim::machine::{Halt, DATA_BASE};
use mpise_sim::trace::Tracer;
use mpise_sim::{Inst, Machine, Reg};

/// The fuzzer's carry boundaries, the 32-bit edges the `*w` forms turn
/// on, and shift amounts either side of 32.
fn operands() -> Vec<u64> {
    let mut v = BOUNDARY_U64.to_vec();
    v.extend([0x7fff_ffff, 0x8000_0000, 0xffff_ffff, 31, 32]);
    v
}

/// Words of data memory each program may read or write.
const WORDS: usize = 4;

/// Runs the three executors on reusable machines.
struct Checker {
    blocks: Machine,
    traced: Machine,
}

impl Checker {
    fn new() -> Self {
        Checker {
            blocks: Machine::new(),
            traced: Machine::new(),
        }
    }

    /// Runs `inst`, then `ebreak`, from registers `init` and data words
    /// `data` at [`DATA_BASE`], and requires the executors to agree.
    fn check(&mut self, inst: Inst, init: &[(Reg, u64)], data: [u64; WORDS]) {
        let program = Program::from_insts(vec![inst, Inst::Ebreak]);
        let mut reference = RefMachine::new();
        reference.load(program.insts());
        for (i, &w) in data.iter().enumerate() {
            reference
                .store_mem(DATA_BASE + 8 * i as u64, w, 8)
                .expect("in data memory");
        }
        let mut outcomes = Vec::new();
        for (m, traced) in [(&mut self.blocks, false), (&mut self.traced, true)] {
            m.load_program(&program);
            m.mem.write_limbs(DATA_BASE, &data).expect("in data memory");
            for r in Reg::ALL {
                m.cpu.write_reg(r, 0);
            }
            for &(r, v) in init {
                m.cpu.write_reg(r, v);
            }
            m.set_tracer(traced.then(|| Tracer::new(0)));
            let stats = m.run().unwrap_or_else(|e| panic!("{inst:?}: {e}"));
            assert_eq!(stats.halt, Halt::Breakpoint, "{inst:?}");
            let words: Vec<u64> = (0..WORDS)
                .map(|i| m.mem.load_u64(DATA_BASE + 8 * i as u64).expect("in window"))
                .collect();
            outcomes.push((m.cpu.regs(), words, stats.instret));
        }
        for &(r, v) in init {
            reference.write_reg(r, v);
        }
        reference.run(16);
        let words = (0..WORDS)
            .map(|i| {
                reference
                    .load_mem(DATA_BASE + 8 * i as u64, 8)
                    .expect("in window")
            })
            .collect();
        let want = (reference.regs, words, reference.instret);
        assert_eq!(outcomes[0], want, "block path vs reference on {inst:?}");
        assert_eq!(outcomes[1], want, "traced path vs reference on {inst:?}");
    }
}

/// A real destination, and `x0`, whose writes must be discarded.
const DESTS: [Reg; 2] = [Reg::A0, Reg::Zero];

#[test]
fn every_alu_row_matches_the_reference() {
    let mut c = Checker::new();
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
                    c.check(inst, &[(Reg::A1, x), (Reg::A2, y)], [0; WORDS]);
                }
            }
        }
    }
}

#[test]
fn every_alu_imm_row_matches_the_reference() {
    let mut c = Checker::new();
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
                    c.check(inst, &[(Reg::A1, x)], [0; WORDS]);
                }
            }
        }
    }
}

#[test]
fn every_load_row_matches_the_reference() {
    let mut c = Checker::new();
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
                    c.check(inst, &[(Reg::A1, DATA_BASE)], data);
                }
            }
        }
    }
}

#[test]
fn every_store_row_matches_the_reference() {
    // A store writes no register; its source is `x0` (storing zero) or
    // a real register.
    let mut c = Checker::new();
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
                    c.check(inst, &[(Reg::A1, DATA_BASE), (Reg::A2, v)], data);
                }
            }
        }
    }
}
