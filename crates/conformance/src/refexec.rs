//! An independent reference executor for differential testing.
//!
//! Everything here is written directly from the architecture documents
//! — the RISC-V unprivileged spec for the base ISA and Figures 1–3 of
//! the paper for the six custom instructions — **without** calling into
//! `crates/sim`'s executor resolution or `mpise_core::intrinsics`. The
//! point of a differential oracle is that a bug must be introduced
//! twice, independently, before it can hide; sharing semantic code with
//! the system under test would defeat that.
//!
//! The custom-instruction semantics ([`ref_custom`]) are keyed by the
//! stable [`CustomId`] numbers of Table 1 and computed in `u128`
//! arithmetic exactly as the figures specify:
//!
//! | id | mnemonic   | semantics                                   |
//! |----|------------|---------------------------------------------|
//! | 1  | `maddlu`   | `(rs1 × rs2 + rs3) mod 2^64`                |
//! | 2  | `maddhu`   | `(rs1 × rs2 + rs3) div 2^64`                |
//! | 3  | `cadd`     | `carry(rs1 + rs2) + rs3 mod 2^64`           |
//! | 4  | `madd57lu` | `((rs1 × rs2) mod 2^57) + rs3 mod 2^64`     |
//! | 5  | `madd57hu` | `((rs1 × rs2) div 2^57 mod 2^64) + rs3`     |
//! | 6  | `sraiadd`  | `rs1 + sext(rs2) >> (imm mod 64)`           |
//!
//! [`RefMachine`] wraps the per-instruction semantics into a minimal
//! RV64IM interpreter (sparse byte-granular memory, 32 registers, an
//! instruction counter) so whole fuzz programs can run in lockstep with
//! [`mpise_sim::Machine`] and have their final architectural state
//! diffed.

use mpise_sim::ext::CustomId;
use mpise_sim::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp};
use mpise_sim::machine::{DATA_BASE, DATA_SIZE, PROG_BASE};
use mpise_sim::Reg;
use std::collections::BTreeMap;

/// Reference semantics of one custom instruction, by [`CustomId`].
///
/// Returns `None` for ids outside Table 1 (the caller treats that as an
/// illegal instruction, as real hardware would).
///
/// # Examples
///
/// ```
/// use mpise_conformance::ref_custom;
/// use mpise_sim::ext::CustomId;
/// // cadd: carry out of rs1+rs2, plus rs3.
/// assert_eq!(ref_custom(CustomId(3), u64::MAX, 1, 10, 0), Some(11));
/// assert_eq!(ref_custom(CustomId(3), 5, 6, 10, 0), Some(10));
/// ```
pub fn ref_custom(id: CustomId, rs1: u64, rs2: u64, rs3: u64, imm: u8) -> Option<u64> {
    let x = rs1 as u128;
    let y = rs2 as u128;
    let z = rs3 as u128;
    let v = match id.0 {
        // maddlu (Figure 1): low 64 bits of the 128-bit x*y + z.
        1 => (x * y + z) as u64,
        // maddhu (Figure 1): high 64 bits of the same 128-bit sum; the
        // addend is applied before the shift so the low-half carry is
        // absorbed here.
        2 => ((x * y + z) >> 64) as u64,
        // cadd (Figure 3): the carry bit of x + y, added to z. The
        // result wraps modulo 2^64 like every register write.
        3 => (((x + y) >> 64) + z) as u64,
        // madd57lu (Figure 2): low 57 bits of the product, plus the
        // full 64-bit addend (delayed carries may exceed 57 bits).
        4 => ((x * y) % (1u128 << 57)).wrapping_add(z) as u64,
        // madd57hu (Figure 2): bits 120..57 of the product, truncated
        // to 64 bits, plus the addend.
        5 => (((x * y) >> 57) as u64 as u128 + z) as u64,
        // sraiadd (Figure 3): arithmetic shift of rs2 by the 6-bit
        // immediate, added to rs1.
        6 => {
            let shifted = ((rs2 as i64) >> (imm & 63)) as i128;
            (x as i128).wrapping_add(shifted) as u64
        }
        _ => return None,
    };
    Some(v)
}

/// Why a [`RefMachine`] run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RefExit {
    /// `ebreak` retired (normal program end in this harness).
    Breakpoint,
    /// `ecall` retired.
    EnvironmentCall,
    /// A fault, with a human-readable reason (illegal instruction,
    /// memory fault, PC escape).
    Fault(String),
    /// The instruction budget ran out.
    OutOfFuel,
}

/// Minimal independent RV64IM + Table 1 interpreter.
///
/// Memory is a sparse byte map over the simulator's data window
/// (`[DATA_BASE, DATA_BASE + DATA_SIZE)`); unwritten bytes read as
/// zero, matching the zero-initialised [`mpise_sim::mem::Memory`].
#[derive(Debug, Clone)]
pub(crate) struct RefMachine {
    /// Register file; index = architectural number, `x0` kept at zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Instructions retired so far.
    pub instret: u64,
    mem: BTreeMap<u64, u8>,
    program: Vec<Inst>,
    prog_base: u64,
}

impl RefMachine {
    /// An empty machine with no program loaded.
    pub(crate) fn new() -> Self {
        RefMachine {
            regs: [0; 32],
            pc: PROG_BASE,
            instret: 0,
            mem: BTreeMap::new(),
            program: Vec::new(),
            prog_base: PROG_BASE,
        }
    }

    /// Loads a program at [`PROG_BASE`] and points the PC at it.
    pub(crate) fn load(&mut self, insts: &[Inst]) {
        self.program = insts.to_vec();
        self.pc = self.prog_base;
    }

    /// Writes a register (writes to `x0` are discarded).
    pub(crate) fn write_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::Zero {
            self.regs[r.number() as usize] = v;
        }
    }

    /// Reads a register.
    pub(crate) fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    fn mem_ok(addr: u64, width: u64) -> Result<(), String> {
        let end = DATA_BASE + DATA_SIZE as u64;
        if addr < DATA_BASE || addr.saturating_add(width) > end {
            return Err(format!("address {addr:#x} outside data memory"));
        }
        if !addr.is_multiple_of(width) {
            return Err(format!("misaligned {width}-byte access at {addr:#x}"));
        }
        Ok(())
    }

    /// Reads `width` little-endian bytes (zero for untouched bytes).
    pub(crate) fn load_mem(&self, addr: u64, width: u64) -> Result<u64, String> {
        Self::mem_ok(addr, width)?;
        let mut v = 0u64;
        for i in (0..width).rev() {
            v = (v << 8) | u64::from(*self.mem.get(&(addr + i)).unwrap_or(&0));
        }
        Ok(v)
    }

    /// Writes the low `width` bytes of `value`, little-endian.
    pub(crate) fn store_mem(&mut self, addr: u64, value: u64, width: u64) -> Result<(), String> {
        Self::mem_ok(addr, width)?;
        for i in 0..width {
            self.mem.insert(addr + i, (value >> (8 * i)) as u8);
        }
        Ok(())
    }

    /// Runs until exit or `fuel` instructions, whichever first.
    pub(crate) fn run(&mut self, mut fuel: u64) -> RefExit {
        loop {
            if fuel == 0 {
                return RefExit::OutOfFuel;
            }
            fuel -= 1;
            let off = self.pc.wrapping_sub(self.prog_base);
            if !off.is_multiple_of(4) || (off / 4) as usize >= self.program.len() {
                return RefExit::Fault(format!("pc {:#x} left the program", self.pc));
            }
            let inst = self.program[(off / 4) as usize];
            match self.step(&inst) {
                Ok(None) => {}
                Ok(Some(exit)) => {
                    self.instret += 1;
                    return exit;
                }
                Err(msg) => return RefExit::Fault(msg),
            }
            self.instret += 1;
        }
    }

    /// Executes one instruction. `Ok(Some(_))` means the instruction
    /// retired and ended the run (`ebreak`/`ecall`).
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, inst: &Inst) -> Result<Option<RefExit>, String> {
        let link = self.pc.wrapping_add(4);
        let mut next = link;
        match *inst {
            Inst::Lui { rd, imm20 } => {
                self.write_reg(rd, (i64::from(imm20) << 12) as u64);
            }
            Inst::Auipc { rd, imm20 } => {
                self.write_reg(rd, self.pc.wrapping_add((i64::from(imm20) << 12) as u64));
            }
            Inst::Jal { rd, offset } => {
                self.write_reg(rd, link);
                next = self.pc.wrapping_add(offset as i64 as u64);
            }
            Inst::Jalr { rd, rs1, offset } => {
                let t = self.read_reg(rs1).wrapping_add(offset as i64 as u64) & !1u64;
                self.write_reg(rd, link);
                next = t;
            }
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let (a, b) = (self.read_reg(rs1), self.read_reg(rs2));
                let taken = match op {
                    BranchOp::Beq => a == b,
                    BranchOp::Bne => a != b,
                    BranchOp::Blt => (a as i64) < (b as i64),
                    BranchOp::Bge => (a as i64) >= (b as i64),
                    BranchOp::Bltu => a < b,
                    BranchOp::Bgeu => a >= b,
                };
                if taken {
                    next = self.pc.wrapping_add(offset as i64 as u64);
                }
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(offset as i64 as u64);
                let raw = self.load_mem(addr, op.width())?;
                let v = match op {
                    LoadOp::Lb => i64::from(raw as u8 as i8) as u64,
                    LoadOp::Lh => i64::from(raw as u16 as i16) as u64,
                    LoadOp::Lw => i64::from(raw as u32 as i32) as u64,
                    LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu | LoadOp::Ld => raw,
                };
                self.write_reg(rd, v);
            }
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.read_reg(rs1).wrapping_add(offset as i64 as u64);
                self.store_mem(addr, self.read_reg(rs2), op.width())?;
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let v = ref_alu_imm(op, self.read_reg(rs1), imm);
                self.write_reg(rd, v);
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let v = ref_alu(op, self.read_reg(rs1), self.read_reg(rs2));
                self.write_reg(rd, v);
            }
            Inst::Fence => {}
            Inst::Ecall => return Ok(Some(RefExit::EnvironmentCall)),
            Inst::Ebreak => return Ok(Some(RefExit::Breakpoint)),
            Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                imm,
            } => {
                let v = ref_custom(
                    id,
                    self.read_reg(rs1),
                    self.read_reg(rs2),
                    self.read_reg(rs3),
                    imm,
                )
                .ok_or_else(|| format!("illegal custom id {}", id.0))?;
                self.write_reg(rd, v);
            }
        }
        self.pc = next;
        Ok(None)
    }
}

/// Reference RV64IM register–register semantics, written from the spec
/// text (division-by-zero → all-ones quotient / dividend remainder;
/// signed overflow → dividend / zero; `*w` forms operate on the low 32
/// bits and sign-extend).
pub(crate) fn ref_alu(op: AluOp, a: u64, b: u64) -> u64 {
    // Widen once; individual arms select the interpretation they need.
    let (sa, sb) = (a as i64, b as i64);
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Slt => u64::from(sa < sb),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => sa.wrapping_shr((b & 63) as u32) as u64,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Addw => i64::from((a as i32).wrapping_add(b as i32)) as u64,
        AluOp::Subw => i64::from((a as i32).wrapping_sub(b as i32)) as u64,
        AluOp::Sllw => i64::from((a as i32).wrapping_shl((b & 31) as u32)) as u64,
        AluOp::Srlw => i64::from(((a as u32).wrapping_shr((b & 31) as u32)) as i32) as u64,
        AluOp::Sraw => i64::from((a as i32).wrapping_shr((b & 31) as u32)) as u64,
        AluOp::Mul => ((a as u128).wrapping_mul(b as u128)) as u64,
        AluOp::Mulh => ((i128::from(sa) * i128::from(sb)) >> 64) as u64,
        AluOp::Mulhsu => ((i128::from(sa) * (b as u128 as i128)) >> 64) as u64,
        AluOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                sa.wrapping_div(sb) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                sa.wrapping_rem(sb) as u64
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        AluOp::Mulw => i64::from((a as i32).wrapping_mul(b as i32)) as u64,
        AluOp::Divw => {
            let (x, y) = (a as i32, b as i32);
            let q = if y == 0 { -1 } else { x.wrapping_div(y) };
            i64::from(q) as u64
        }
        AluOp::Divuw => {
            let (x, y) = (a as u32, b as u32);
            let q = x.checked_div(y).unwrap_or(u32::MAX);
            i64::from(q as i32) as u64
        }
        AluOp::Remw => {
            let (x, y) = (a as i32, b as i32);
            let r = if y == 0 { x } else { x.wrapping_rem(y) };
            i64::from(r) as u64
        }
        AluOp::Remuw => {
            let (x, y) = (a as u32, b as u32);
            let r = if y == 0 { x } else { x % y };
            i64::from(r as i32) as u64
        }
    }
}

/// Reference RV64I register–immediate semantics.
pub(crate) fn ref_alu_imm(op: AluImmOp, a: u64, imm: i32) -> u64 {
    let simm = i64::from(imm) as u64;
    match op {
        AluImmOp::Addi => a.wrapping_add(simm),
        AluImmOp::Slti => u64::from((a as i64) < i64::from(imm)),
        AluImmOp::Sltiu => u64::from(a < simm),
        AluImmOp::Xori => a ^ simm,
        AluImmOp::Ori => a | simm,
        AluImmOp::Andi => a & simm,
        AluImmOp::Slli => a.wrapping_shl((imm & 63) as u32),
        AluImmOp::Srli => a.wrapping_shr((imm & 63) as u32),
        AluImmOp::Srai => ((a as i64).wrapping_shr((imm & 63) as u32)) as u64,
        AluImmOp::Addiw => i64::from((a as i32).wrapping_add(imm)) as u64,
        AluImmOp::Slliw => i64::from((a as i32).wrapping_shl((imm & 31) as u32)) as u64,
        AluImmOp::Srliw => i64::from(((a as u32).wrapping_shr((imm & 31) as u32)) as i32) as u64,
        AluImmOp::Sraiw => i64::from((a as i32).wrapping_shr((imm & 31) as u32)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_semantics_reassemble_products() {
        // maddlu/maddhu split the 128-bit sum exactly.
        for (x, y, z) in [
            (0u64, 0u64, 0u64),
            (u64::MAX, u64::MAX, u64::MAX),
            (0xdead_beef, 0xcafe_f00d, 42),
        ] {
            let full = (x as u128) * (y as u128) + z as u128;
            let lo = ref_custom(CustomId(1), x, y, z, 0).unwrap() as u128;
            let hi = ref_custom(CustomId(2), x, y, z, 0).unwrap() as u128;
            assert_eq!(full, (hi << 64) | lo);
            // madd57 pair reassembles the raw product.
            let p = (x as u128) * (y as u128);
            let lo57 = ref_custom(CustomId(4), x, y, 0, 0).unwrap() as u128;
            let hi57 = ref_custom(CustomId(5), x, y, 0, 0).unwrap() as u128;
            assert_eq!(p & ((1 << 57) - 1), lo57);
            assert_eq!((p >> 57) & u128::from(u64::MAX), hi57);
        }
    }

    #[test]
    fn sraiadd_shifts_arithmetically() {
        let neg = -1i64 as u64;
        assert_eq!(ref_custom(CustomId(6), 100, neg, 0, 57), Some(99));
        assert_eq!(ref_custom(CustomId(6), 100, 3 << 57, 0, 57), Some(103));
        // imm is taken modulo 64.
        assert_eq!(
            ref_custom(CustomId(6), 0, 8, 0, 3),
            ref_custom(CustomId(6), 0, 8, 0, 3 + 64)
        );
    }

    #[test]
    fn unknown_id_is_illegal() {
        assert_eq!(ref_custom(CustomId(7), 1, 2, 3, 0), None);
        assert_eq!(ref_custom(CustomId(0), 1, 2, 3, 0), None);
    }

    #[test]
    fn straight_line_program_runs() {
        let mut m = RefMachine::new();
        m.load(&[
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::Zero,
                imm: 5,
            },
            Inst::Op {
                op: AluOp::Mul,
                rd: Reg::T1,
                rs1: Reg::T0,
                rs2: Reg::T0,
            },
            Inst::Ebreak,
        ]);
        assert_eq!(m.run(100), RefExit::Breakpoint);
        assert_eq!(m.read_reg(Reg::T1), 25);
        assert_eq!(m.instret, 3);
    }

    #[test]
    fn memory_round_trip_and_bounds() {
        let mut m = RefMachine::new();
        m.store_mem(DATA_BASE + 8, 0x1122_3344_5566_7788, 8)
            .unwrap();
        assert_eq!(m.load_mem(DATA_BASE + 8, 8).unwrap(), 0x1122_3344_5566_7788);
        // Sub-word views are little-endian.
        assert_eq!(m.load_mem(DATA_BASE + 8, 1).unwrap(), 0x88);
        assert_eq!(m.load_mem(DATA_BASE + 12, 4).unwrap(), 0x1122_3344);
        // Untouched memory reads zero; out-of-window faults.
        assert_eq!(m.load_mem(DATA_BASE + 64, 8).unwrap(), 0);
        assert!(m.load_mem(DATA_BASE - 8, 8).is_err());
        assert!(m.store_mem(DATA_BASE + 3, 0, 8).is_err(), "misaligned");
    }

    #[test]
    fn x0_discards_writes() {
        let mut m = RefMachine::new();
        m.load(&[
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::Zero,
                rs1: Reg::Zero,
                imm: 77,
            },
            Inst::Ebreak,
        ]);
        m.run(10);
        assert_eq!(m.read_reg(Reg::Zero), 0);
    }
}
