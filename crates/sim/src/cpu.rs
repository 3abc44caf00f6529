//! Architectural CPU state and single-instruction semantics.

use crate::ext::{CustomArgs, IsaExtension};
use crate::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp};
use crate::mem::{MemError, Memory};
use crate::reg::Reg;
use std::fmt;

/// Reasons execution stops or faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `ebreak` executed (normal kernel termination in this harness).
    Breakpoint,
    /// `ecall` executed.
    EnvironmentCall,
    /// A custom instruction whose id is not registered was executed.
    IllegalInstruction,
    /// A data memory access faulted.
    Memory(MemError),
    /// The PC left the loaded program region.
    PcOutOfProgram {
        /// The faulting PC value.
        pc: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Breakpoint => write!(f, "breakpoint"),
            Trap::EnvironmentCall => write!(f, "environment call"),
            Trap::IllegalInstruction => write!(f, "illegal instruction"),
            Trap::Memory(e) => write!(f, "memory fault: {e}"),
            Trap::PcOutOfProgram { pc } => write!(f, "pc {pc:#x} left the program"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemError> for Trap {
    fn from(e: MemError) -> Self {
        Trap::Memory(e)
    }
}

/// The architectural state of one RV64 hart: 32 general-purpose
/// registers and the program counter.
///
/// `x0` reads as zero and ignores writes, enforced by
/// [`Cpu::write_reg`].
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u64; 32],
    /// Program counter (byte address of the next instruction).
    pub pc: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers and the PC cleared.
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
        }
    }

    /// Reads a register (`x0` always reads 0).
    #[inline]
    pub fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes a register; writes to `x0` are discarded.
    #[inline]
    pub fn write_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::Zero {
            self.regs[r.number() as usize] = v;
        }
    }

    /// A snapshot of all 32 registers (index = register number).
    pub fn regs(&self) -> [u64; 32] {
        self.regs
    }

    /// Executes one instruction, updating registers, memory and the PC:
    /// translates it into a micro-op, as `Machine::load_program` does,
    /// and executes that.
    ///
    /// Returns `Ok(())` when execution may continue, or the [`Trap`]
    /// that stopped it. `ebreak`/`ecall` report themselves as traps —
    /// the [`crate::Machine`] treats [`Trap::Breakpoint`] as a normal
    /// halt.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] other than normal continuation.
    pub fn step(&mut self, inst: &Inst, mem: &mut Memory, ext: &IsaExtension) -> Result<(), Trap> {
        self.exec(&MicroOp::new(inst, ext), mem)
    }

    #[inline(always)]
    fn reg(&self, r: u8) -> u64 {
        self.regs[(r & 31) as usize]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[(r & 31) as usize] = v;
        }
    }

    /// Executes one micro-op at the PC — the one home of instruction
    /// semantics. On a trap the PC stays at the faulting instruction
    /// and nothing is written.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] other than normal continuation, as for
    /// [`Cpu::step`].
    #[inline(always)]
    pub(crate) fn exec(&mut self, u: &MicroOp, mem: &mut Memory) -> Result<(), Trap> {
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        let imm = u.imm as u64;
        match u.kind {
            Kind::Op(op) => self.set_reg(u.rd, eval_alu(op, self.reg(u.rs1), self.reg(u.rs2))),
            Kind::OpImm(op) => self.set_reg(u.rd, eval_alu_imm(op, self.reg(u.rs1), u.imm as i32)),
            Kind::Custom(exec) => {
                let v = exec(CustomArgs {
                    rs1: self.reg(u.rs1),
                    rs2: self.reg(u.rs2),
                    rs3: self.reg(u.rs3),
                    imm: u.imm as u8,
                });
                self.set_reg(u.rd, v);
            }
            Kind::Load(op) => {
                let raw = mem.load(self.reg(u.rs1).wrapping_add(imm), u.width as u64)?;
                let v = match op {
                    LoadOp::Lb => raw as u8 as i8 as i64 as u64,
                    LoadOp::Lh => raw as u16 as i16 as i64 as u64,
                    LoadOp::Lw => raw as u32 as i32 as i64 as u64,
                    LoadOp::Ld | LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => raw,
                };
                self.set_reg(u.rd, v);
            }
            Kind::Store => {
                let addr = self.reg(u.rs1).wrapping_add(imm);
                mem.store(addr, self.reg(u.rs2), u.width as u64)?;
            }
            Kind::Lui => self.set_reg(u.rd, imm),
            Kind::Auipc => self.set_reg(u.rd, pc.wrapping_add(imm)),
            Kind::Jal => {
                self.set_reg(u.rd, next_pc);
                next_pc = pc.wrapping_add(imm);
            }
            Kind::Jalr => {
                let target = self.reg(u.rs1).wrapping_add(imm) & !1;
                self.set_reg(u.rd, next_pc);
                next_pc = target;
            }
            Kind::Branch(op) => {
                if op.taken(self.reg(u.rs1), self.reg(u.rs2)) {
                    next_pc = pc.wrapping_add(imm);
                }
            }
            Kind::Fence => {}
            Kind::Ecall => return Err(Trap::EnvironmentCall),
            Kind::Ebreak => return Err(Trap::Breakpoint),
            Kind::Illegal => return Err(Trap::IllegalInstruction),
        }
        self.pc = next_pc;
        Ok(())
    }
}

/// What a [`MicroOp`] does: the instruction's operation with every
/// lookup already made.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Op(AluOp),
    OpImm(AluImmOp),
    /// A registered custom instruction, with its execution function.
    Custom(fn(CustomArgs) -> u64),
    Load(LoadOp),
    Store,
    Lui,
    Auipc,
    Jal,
    Jalr,
    Branch(BranchOp),
    Fence,
    Ecall,
    Ebreak,
    /// A custom instruction whose id the extension does not register.
    Illegal,
}

/// One instruction translated for execution: register numbers, the
/// sign-extended immediate (`lui`/`auipc`'s already shifted, a custom
/// instruction's shift amount), the memory access width and a custom
/// instruction's execution function are all resolved, so [`Cpu::exec`]
/// does no decoding or registry lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    kind: Kind,
    rd: u8,
    rs1: u8,
    rs2: u8,
    rs3: u8,
    /// Access width in bytes (loads and stores; 0 otherwise).
    width: u8,
    imm: i64,
}

impl MicroOp {
    /// Translates `inst`, resolving a custom id against `ext`.
    pub(crate) fn new(inst: &Inst, ext: &IsaExtension) -> Self {
        let r = Reg::number;
        let (kind, rd, rs1, rs2, rs3, width, imm) = match *inst {
            Inst::Lui { rd, imm20 } => (Kind::Lui, r(rd), 0, 0, 0, 0, (imm20 as i64) << 12),
            Inst::Auipc { rd, imm20 } => (Kind::Auipc, r(rd), 0, 0, 0, 0, (imm20 as i64) << 12),
            Inst::Jal { rd, offset } => (Kind::Jal, r(rd), 0, 0, 0, 0, offset.into()),
            Inst::Jalr { rd, rs1, offset } => (Kind::Jalr, r(rd), r(rs1), 0, 0, 0, offset.into()),
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => (Kind::Branch(op), 0, r(rs1), r(rs2), 0, 0, offset.into()),
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => (
                Kind::Load(op),
                r(rd),
                r(rs1),
                0,
                0,
                op.width() as u8,
                offset.into(),
            ),
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => (
                Kind::Store,
                0,
                r(rs1),
                r(rs2),
                0,
                op.width() as u8,
                offset.into(),
            ),
            Inst::OpImm { op, rd, rs1, imm } => {
                (Kind::OpImm(op), r(rd), r(rs1), 0, 0, 0, imm.into())
            }
            Inst::Op { op, rd, rs1, rs2 } => (Kind::Op(op), r(rd), r(rs1), r(rs2), 0, 0, 0),
            Inst::Fence => (Kind::Fence, 0, 0, 0, 0, 0, 0),
            Inst::Ecall => (Kind::Ecall, 0, 0, 0, 0, 0, 0),
            Inst::Ebreak => (Kind::Ebreak, 0, 0, 0, 0, 0, 0),
            Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                imm,
            } => {
                let kind = ext
                    .by_id(id)
                    .map_or(Kind::Illegal, |def| Kind::Custom(def.exec));
                (kind, r(rd), r(rs1), r(rs2), r(rs3), 0, imm.into())
            }
        };
        MicroOp {
            kind,
            rd,
            rs1,
            rs2,
            rs3,
            width,
            imm,
        }
    }

    /// Whether the micro-op ends a straight-line run: it may transfer
    /// control (`jal`, `jalr`, a branch) or is a system instruction.
    pub(crate) fn ends_block(&self) -> bool {
        matches!(
            self.kind,
            Kind::Jal | Kind::Jalr | Kind::Branch(_) | Kind::Fence | Kind::Ecall | Kind::Ebreak
        )
    }

    /// Whether executing the micro-op at `pc` and continuing at
    /// `next_pc` redirected fetch. Jumps always do on Rocket, even to
    /// the fall-through address; a conditional branch does when it
    /// leaves the fall-through path.
    pub(crate) fn redirects(&self, pc: u64, next_pc: u64) -> bool {
        match self.kind {
            Kind::Jal | Kind::Jalr => true,
            Kind::Branch(_) => next_pc != pc.wrapping_add(4),
            _ => false,
        }
    }
}

/// Pure evaluation of a register–register ALU/M operation.
///
/// Exposed so tests and the hardware model can check instruction
/// semantics without a full CPU.
// The divide-by-zero cases mirror the RISC-V spec text (quotient of
// all ones, remainder = dividend); spelling them out beats checked_div.
#[allow(clippy::manual_checked_ops)]
#[inline(always)]
pub fn eval_alu(op: AluOp, x: u64, y: u64) -> u64 {
    use AluOp::*;
    match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Sll => x << (y & 63),
        Slt => ((x as i64) < (y as i64)) as u64,
        Sltu => (x < y) as u64,
        Xor => x ^ y,
        Srl => x >> (y & 63),
        Sra => ((x as i64) >> (y & 63)) as u64,
        Or => x | y,
        And => x & y,
        Addw => (x as i32).wrapping_add(y as i32) as i64 as u64,
        Subw => (x as i32).wrapping_sub(y as i32) as i64 as u64,
        Sllw => ((x as i32) << (y & 31)) as i64 as u64,
        Srlw => (((x as u32) >> (y & 31)) as i32) as i64 as u64,
        Sraw => ((x as i32) >> (y & 31)) as i64 as u64,
        Mul => x.wrapping_mul(y),
        Mulh => (((x as i64 as i128) * (y as i64 as i128)) >> 64) as u64,
        Mulhsu => (((x as i64 as i128) * (y as u128 as i128)) >> 64) as u64,
        Mulhu => (((x as u128) * (y as u128)) >> 64) as u64,
        Div => {
            if y == 0 {
                u64::MAX
            } else if x as i64 == i64::MIN && y as i64 == -1 {
                x
            } else {
                ((x as i64) / (y as i64)) as u64
            }
        }
        Divu => {
            if y == 0 {
                u64::MAX
            } else {
                x / y
            }
        }
        Rem => {
            if y == 0 {
                x
            } else if x as i64 == i64::MIN && y as i64 == -1 {
                0
            } else {
                ((x as i64) % (y as i64)) as u64
            }
        }
        Remu => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        Mulw => (x as i32).wrapping_mul(y as i32) as i64 as u64,
        Divw => {
            let (x, y) = (x as i32, y as i32);
            let r = if y == 0 {
                -1
            } else if x == i32::MIN && y == -1 {
                x
            } else {
                x / y
            };
            r as i64 as u64
        }
        Divuw => {
            let (x, y) = (x as u32, y as u32);
            let r = if y == 0 { u32::MAX } else { x / y };
            r as i32 as i64 as u64
        }
        Remw => {
            let (x, y) = (x as i32, y as i32);
            let r = if y == 0 {
                x
            } else if x == i32::MIN && y == -1 {
                0
            } else {
                x % y
            };
            r as i64 as u64
        }
        Remuw => {
            let (x, y) = (x as u32, y as u32);
            let r = if y == 0 { x } else { x % y };
            r as i32 as i64 as u64
        }
    }
}

/// Pure evaluation of a register–immediate ALU operation.
#[inline(always)]
pub fn eval_alu_imm(op: AluImmOp, x: u64, imm: i32) -> u64 {
    use AluImmOp::*;
    let simm = imm as i64 as u64;
    match op {
        Addi => x.wrapping_add(simm),
        Slti => ((x as i64) < imm as i64) as u64,
        Sltiu => (x < simm) as u64,
        Xori => x ^ simm,
        Ori => x | simm,
        Andi => x & simm,
        Slli => x << (imm & 63),
        Srli => x >> (imm & 63),
        Srai => ((x as i64) >> (imm & 63)) as u64,
        Addiw => (x as i32).wrapping_add(imm) as i64 as u64,
        Slliw => ((x as i32) << (imm & 31)) as i64 as u64,
        Srliw => (((x as u32) >> (imm & 31)) as i32) as i64 as u64,
        Sraiw => ((x as i32) >> (imm & 31)) as i64 as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::StoreOp;

    fn cpu_with(pairs: &[(Reg, u64)]) -> Cpu {
        let mut c = Cpu::new();
        for &(r, v) in pairs {
            c.write_reg(r, v);
        }
        c
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut c = Cpu::new();
        c.write_reg(Reg::Zero, 123);
        assert_eq!(c.read_reg(Reg::Zero), 0);
    }

    #[test]
    fn alu_semantics_spot_checks() {
        assert_eq!(eval_alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(eval_alu(AluOp::Sub, 0, 1), u64::MAX);
        assert_eq!(eval_alu(AluOp::Sltu, 1, 2), 1);
        assert_eq!(eval_alu(AluOp::Sltu, 2, 1), 0);
        assert_eq!(eval_alu(AluOp::Slt, u64::MAX, 0), 1); // -1 < 0
        assert_eq!(eval_alu(AluOp::Sra, u64::MAX, 63), u64::MAX);
        assert_eq!(eval_alu(AluOp::Srl, u64::MAX, 63), 1);
        assert_eq!(eval_alu(AluOp::Mulhu, u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(eval_alu(AluOp::Mulh, u64::MAX, u64::MAX), 0); // (-1)*(-1)
        assert_eq!(eval_alu(AluOp::Mul, 1 << 63, 2), 0);
    }

    #[test]
    fn division_edge_cases_match_spec() {
        // Division by zero: quotient all-ones, remainder = dividend.
        assert_eq!(eval_alu(AluOp::Div, 42, 0), u64::MAX);
        assert_eq!(eval_alu(AluOp::Divu, 42, 0), u64::MAX);
        assert_eq!(eval_alu(AluOp::Rem, 42, 0), 42);
        assert_eq!(eval_alu(AluOp::Remu, 42, 0), 42);
        // Signed overflow: MIN / -1 = MIN, MIN % -1 = 0.
        let min = i64::MIN as u64;
        assert_eq!(eval_alu(AluOp::Div, min, u64::MAX), min);
        assert_eq!(eval_alu(AluOp::Rem, min, u64::MAX), 0);
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(eval_alu(AluOp::Addw, 0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(eval_alu_imm(AluImmOp::Addiw, 0xffff_ffff, 1), 0);
        assert_eq!(eval_alu(AluOp::Sllw, 1, 31), 0xffff_ffff_8000_0000u64);
    }

    #[test]
    fn mulhsu_mixed_signs() {
        // -1 (signed) * 2 (unsigned) = -2 → high word = all ones.
        assert_eq!(eval_alu(AluOp::Mulhsu, u64::MAX, 2), u64::MAX);
        // 2 (signed) * 2^63 (unsigned): product = 2^64, high = 1.
        assert_eq!(eval_alu(AluOp::Mulhsu, 2, 1 << 63), 1);
    }

    #[test]
    fn step_load_store() {
        let mut mem = Memory::new(0x100, 32);
        let ext = IsaExtension::new("none");
        let mut c = cpu_with(&[(Reg::A0, 0x100), (Reg::T0, 0xabcd)]);
        c.step(
            &Inst::Store {
                op: StoreOp::Sd,
                rs1: Reg::A0,
                rs2: Reg::T0,
                offset: 8,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        c.step(
            &Inst::Load {
                op: LoadOp::Ld,
                rd: Reg::T1,
                rs1: Reg::A0,
                offset: 8,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.read_reg(Reg::T1), 0xabcd);
        assert_eq!(c.pc, 8);
    }

    #[test]
    fn step_branch_taken_and_not_taken() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = cpu_with(&[(Reg::A0, 1)]);
        c.pc = 100;
        c.step(
            &Inst::Branch {
                op: crate::inst::BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -20,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 80);
        c.step(
            &Inst::Branch {
                op: crate::inst::BranchOp::Beq,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -20,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 84); // fall-through
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        c.pc = 40;
        c.step(
            &Inst::Jal {
                rd: Reg::Ra,
                offset: 16,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.read_reg(Reg::Ra), 44);
        assert_eq!(c.pc, 56);
        c.step(
            &Inst::Jalr {
                rd: Reg::Zero,
                rs1: Reg::Ra,
                offset: 0,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 44);
    }

    #[test]
    fn ebreak_traps() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        assert_eq!(c.step(&Inst::Ebreak, &mut mem, &ext), Err(Trap::Breakpoint));
        assert_eq!(
            c.step(&Inst::Ecall, &mut mem, &ext),
            Err(Trap::EnvironmentCall)
        );
    }

    #[test]
    fn unknown_custom_traps() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        let r = c.step(
            &Inst::Custom {
                id: crate::ext::CustomId(7),
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
                rs3: Reg::A3,
                imm: 0,
            },
            &mut mem,
            &ext,
        );
        assert_eq!(r, Err(Trap::IllegalInstruction));
    }
}
