//! Typed representation of the simulated instruction set.
//!
//! The model covers RV64I and RV64M — the instruction classes that MPI
//! arithmetic kernels use (§2 of the paper: `add`, `sub`, `slli`, `srli`,
//! `srai`, `sltu`, `mul`, `mulhu`, loads/stores, …) — plus a
//! [`Inst::Custom`] variant through which instruction-set extensions are
//! threaded (see [`crate::ext`]).
//!
//! Each base operation family ([`AluOp`], [`AluImmOp`], [`BranchOp`],
//! [`LoadOp`], [`StoreOp`]) has one table ([`ALU_OPS`], [`ALU_IMM_OPS`],
//! [`BRANCH_OPS`], [`LOAD_OPS`], [`STORE_OPS`]) that states each op's
//! mnemonic, major opcode, funct3 and funct7 once. The mnemonics,
//! [`crate::encode`], [`crate::decode`], the text assembler and the
//! instruction mix all read these rows.
//!
//! The RV64C (compressed) extension changes code size, not semantics or —
//! on the in-order Rocket pipeline — cycle counts of cache-resident
//! kernels, so it is intentionally not modelled; all instructions are
//! 32 bits wide.

use crate::ext::CustomId;
use crate::reg::Reg;
use std::fmt;

/// Register–register ALU and multiply/divide operations (R-type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`: 64-bit addition.
    Add,
    /// `sub`: 64-bit subtraction.
    Sub,
    /// `sll`: logical left shift by `rs2[5:0]`.
    Sll,
    /// `slt`: signed set-less-than.
    Slt,
    /// `sltu`: unsigned set-less-than (the carry/borrow detector of
    /// RISC-V MPI code).
    Sltu,
    /// `xor`: bit-wise exclusive or.
    Xor,
    /// `srl`: logical right shift by `rs2[5:0]`.
    Srl,
    /// `sra`: arithmetic right shift by `rs2[5:0]`.
    Sra,
    /// `or`: bit-wise inclusive or.
    Or,
    /// `and`: bit-wise and.
    And,
    /// `addw`: 32-bit addition, sign-extended.
    Addw,
    /// `subw`: 32-bit subtraction, sign-extended.
    Subw,
    /// `sllw`: 32-bit left shift, sign-extended.
    Sllw,
    /// `srlw`: 32-bit logical right shift, sign-extended.
    Srlw,
    /// `sraw`: 32-bit arithmetic right shift, sign-extended.
    Sraw,
    /// `mul`: low 64 bits of the product.
    Mul,
    /// `mulh`: high 64 bits of the signed×signed product.
    Mulh,
    /// `mulhsu`: high 64 bits of the signed×unsigned product.
    Mulhsu,
    /// `mulhu`: high 64 bits of the unsigned×unsigned product.
    Mulhu,
    /// `div`: signed division.
    Div,
    /// `divu`: unsigned division.
    Divu,
    /// `rem`: signed remainder.
    Rem,
    /// `remu`: unsigned remainder.
    Remu,
    /// `mulw`: 32-bit multiply, sign-extended.
    Mulw,
    /// `divw`: 32-bit signed division, sign-extended.
    Divw,
    /// `divuw`: 32-bit unsigned division, sign-extended.
    Divuw,
    /// `remw`: 32-bit signed remainder, sign-extended.
    Remw,
    /// `remuw`: 32-bit unsigned remainder, sign-extended.
    Remuw,
}

impl AluOp {
    /// The assembler mnemonic.
    pub const fn mnemonic(self) -> &'static str {
        ALU_OPS[self as usize].1
    }

    /// Whether the operation executes on the (extended) multiplier unit,
    /// i.e. has the 2-stage pipelined-multiplier timing of the paper.
    pub(crate) const fn is_multiply(self) -> bool {
        matches!(
            self,
            AluOp::Mul | AluOp::Mulh | AluOp::Mulhsu | AluOp::Mulhu | AluOp::Mulw
        )
    }

    /// Whether the operation is an iterative divide/remainder.
    pub const fn is_divide(self) -> bool {
        matches!(
            self,
            AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
                | AluOp::Divw
                | AluOp::Divuw
                | AluOp::Remw
                | AluOp::Remuw
        )
    }
}

/// Register–immediate ALU operations (I-type, including immediate shifts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// `addi`: add sign-extended 12-bit immediate.
    Addi,
    /// `slti`: signed set-less-than immediate.
    Slti,
    /// `sltiu`: unsigned set-less-than immediate.
    Sltiu,
    /// `xori`: xor immediate.
    Xori,
    /// `ori`: or immediate.
    Ori,
    /// `andi`: and immediate.
    Andi,
    /// `slli`: left shift by 6-bit shamt.
    Slli,
    /// `srli`: logical right shift by 6-bit shamt.
    Srli,
    /// `srai`: arithmetic right shift by 6-bit shamt.
    Srai,
    /// `addiw`: 32-bit add immediate, sign-extended.
    Addiw,
    /// `slliw`: 32-bit left shift, sign-extended.
    Slliw,
    /// `srliw`: 32-bit logical right shift, sign-extended.
    Srliw,
    /// `sraiw`: 32-bit arithmetic right shift, sign-extended.
    Sraiw,
}

impl AluImmOp {
    /// The assembler mnemonic.
    pub(crate) const fn mnemonic(self) -> &'static str {
        ALU_IMM_OPS[self as usize].1
    }

    /// Whether the immediate is a shift amount ([`Self::shamt_bits`]
    /// wide) rather than a sign-extended 12-bit value.
    pub const fn is_shift(self) -> bool {
        matches!(
            self,
            AluImmOp::Slli
                | AluImmOp::Srli
                | AluImmOp::Srai
                | AluImmOp::Slliw
                | AluImmOp::Srliw
                | AluImmOp::Sraiw
        )
    }

    /// Width of a shift amount: 6 bits on OP-IMM, 5 bits for the `*w`
    /// forms on OP-IMM-32.
    pub const fn shamt_bits(self) -> u32 {
        if ALU_IMM_OPS[self as usize].2 == OPC_OP_IMM {
            6
        } else {
            5
        }
    }
}

/// Conditional branch comparisons (B-type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq`: branch if equal.
    Beq,
    /// `bne`: branch if not equal.
    Bne,
    /// `blt`: branch if signed less-than.
    Blt,
    /// `bge`: branch if signed greater-or-equal.
    Bge,
    /// `bltu`: branch if unsigned less-than.
    Bltu,
    /// `bgeu`: branch if unsigned greater-or-equal.
    Bgeu,
}

impl BranchOp {
    /// The assembler mnemonic.
    pub(crate) const fn mnemonic(self) -> &'static str {
        BRANCH_OPS[self as usize].1
    }

    /// Evaluates the branch condition on two register values.
    pub(crate) fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchOp::Beq => a == b,
            BranchOp::Bne => a != b,
            BranchOp::Blt => (a as i64) < (b as i64),
            BranchOp::Bge => (a as i64) >= (b as i64),
            BranchOp::Bltu => a < b,
            BranchOp::Bgeu => a >= b,
        }
    }
}

/// Memory load widths and sign treatment (I-type loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb`: signed byte.
    Lb,
    /// `lh`: signed half-word.
    Lh,
    /// `lw`: signed word.
    Lw,
    /// `ld`: double-word.
    Ld,
    /// `lbu`: unsigned byte.
    Lbu,
    /// `lhu`: unsigned half-word.
    Lhu,
    /// `lwu`: unsigned word.
    Lwu,
}

impl LoadOp {
    /// The assembler mnemonic.
    pub(crate) const fn mnemonic(self) -> &'static str {
        LOAD_OPS[self as usize].1
    }

    /// Access width in bytes.
    pub const fn width(self) -> u64 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }
}

/// Memory store widths (S-type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb`: byte.
    Sb,
    /// `sh`: half-word.
    Sh,
    /// `sw`: word.
    Sw,
    /// `sd`: double-word.
    Sd,
}

impl StoreOp {
    /// The assembler mnemonic.
    pub(crate) const fn mnemonic(self) -> &'static str {
        STORE_OPS[self as usize].1
    }

    /// Access width in bytes.
    pub const fn width(self) -> u64 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }
}

// ---------------------------------------------------------------------
// Encoding tables
// ---------------------------------------------------------------------

/// Major opcode of `lui`.
pub(crate) const OPC_LUI: u32 = 0b0110111;
/// Major opcode of `auipc`.
pub(crate) const OPC_AUIPC: u32 = 0b0010111;
/// Major opcode of `jal`.
pub(crate) const OPC_JAL: u32 = 0b1101111;
/// Major opcode of `jalr`.
pub(crate) const OPC_JALR: u32 = 0b1100111;
/// Major opcode of the conditional branches.
pub(crate) const OPC_BRANCH: u32 = 0b1100011;
/// Major opcode of the loads.
pub(crate) const OPC_LOAD: u32 = 0b0000011;
/// Major opcode of the stores.
pub(crate) const OPC_STORE: u32 = 0b0100011;
/// Major opcode of the 64-bit register–immediate operations.
pub(crate) const OPC_OP_IMM: u32 = 0b0010011;
/// Major opcode of the 32-bit (`*w`) register–immediate operations.
pub(crate) const OPC_OP_IMM_32: u32 = 0b0011011;
/// Major opcode of the 64-bit register–register operations.
pub(crate) const OPC_OP: u32 = 0b0110011;
/// Major opcode of the 32-bit (`*w`) register–register operations.
pub(crate) const OPC_OP_32: u32 = 0b0111011;
/// Major opcode of `fence`.
pub(crate) const OPC_MISC_MEM: u32 = 0b0001111;
/// Major opcode of `ecall` and `ebreak`.
pub(crate) const OPC_SYSTEM: u32 = 0b1110011;

/// The base RV64IM major opcodes the encoder and decoder claim; a
/// custom instruction on one of them is unreachable.
pub const BASE_OPCODES: [u8; 13] = [
    OPC_LUI as u8,
    OPC_AUIPC as u8,
    OPC_JAL as u8,
    OPC_JALR as u8,
    OPC_BRANCH as u8,
    OPC_LOAD as u8,
    OPC_STORE as u8,
    OPC_OP_IMM as u8,
    OPC_OP_IMM_32 as u8,
    OPC_OP as u8,
    OPC_OP_32 as u8,
    OPC_MISC_MEM as u8,
    OPC_SYSTEM as u8,
];

/// One base operation: `(op, mnemonic, opcode, funct3, funct7)`.
///
/// `funct7` is bits 31:25 of the word. A shift's amount sits below it
/// (an OP-IMM shift amount also takes bit 25, which its row leaves
/// clear); the formats without a funct7 state 0.
pub(crate) type OpRow<Op> = (Op, &'static str, u32, u32, u32);

/// R-type rows, in [`AluOp`] discriminant order.
pub const ALU_OPS: [OpRow<AluOp>; 28] = [
    (AluOp::Add, "add", OPC_OP, 0b000, 0b0000000),
    (AluOp::Sub, "sub", OPC_OP, 0b000, 0b0100000),
    (AluOp::Sll, "sll", OPC_OP, 0b001, 0b0000000),
    (AluOp::Slt, "slt", OPC_OP, 0b010, 0b0000000),
    (AluOp::Sltu, "sltu", OPC_OP, 0b011, 0b0000000),
    (AluOp::Xor, "xor", OPC_OP, 0b100, 0b0000000),
    (AluOp::Srl, "srl", OPC_OP, 0b101, 0b0000000),
    (AluOp::Sra, "sra", OPC_OP, 0b101, 0b0100000),
    (AluOp::Or, "or", OPC_OP, 0b110, 0b0000000),
    (AluOp::And, "and", OPC_OP, 0b111, 0b0000000),
    (AluOp::Addw, "addw", OPC_OP_32, 0b000, 0b0000000),
    (AluOp::Subw, "subw", OPC_OP_32, 0b000, 0b0100000),
    (AluOp::Sllw, "sllw", OPC_OP_32, 0b001, 0b0000000),
    (AluOp::Srlw, "srlw", OPC_OP_32, 0b101, 0b0000000),
    (AluOp::Sraw, "sraw", OPC_OP_32, 0b101, 0b0100000),
    (AluOp::Mul, "mul", OPC_OP, 0b000, 0b0000001),
    (AluOp::Mulh, "mulh", OPC_OP, 0b001, 0b0000001),
    (AluOp::Mulhsu, "mulhsu", OPC_OP, 0b010, 0b0000001),
    (AluOp::Mulhu, "mulhu", OPC_OP, 0b011, 0b0000001),
    (AluOp::Div, "div", OPC_OP, 0b100, 0b0000001),
    (AluOp::Divu, "divu", OPC_OP, 0b101, 0b0000001),
    (AluOp::Rem, "rem", OPC_OP, 0b110, 0b0000001),
    (AluOp::Remu, "remu", OPC_OP, 0b111, 0b0000001),
    (AluOp::Mulw, "mulw", OPC_OP_32, 0b000, 0b0000001),
    (AluOp::Divw, "divw", OPC_OP_32, 0b100, 0b0000001),
    (AluOp::Divuw, "divuw", OPC_OP_32, 0b101, 0b0000001),
    (AluOp::Remw, "remw", OPC_OP_32, 0b110, 0b0000001),
    (AluOp::Remuw, "remuw", OPC_OP_32, 0b111, 0b0000001),
];

/// I-type and immediate-shift rows, in [`AluImmOp`] discriminant order.
pub const ALU_IMM_OPS: [OpRow<AluImmOp>; 13] = [
    (AluImmOp::Addi, "addi", OPC_OP_IMM, 0b000, 0),
    (AluImmOp::Slti, "slti", OPC_OP_IMM, 0b010, 0),
    (AluImmOp::Sltiu, "sltiu", OPC_OP_IMM, 0b011, 0),
    (AluImmOp::Xori, "xori", OPC_OP_IMM, 0b100, 0),
    (AluImmOp::Ori, "ori", OPC_OP_IMM, 0b110, 0),
    (AluImmOp::Andi, "andi", OPC_OP_IMM, 0b111, 0),
    (AluImmOp::Slli, "slli", OPC_OP_IMM, 0b001, 0b0000000),
    (AluImmOp::Srli, "srli", OPC_OP_IMM, 0b101, 0b0000000),
    (AluImmOp::Srai, "srai", OPC_OP_IMM, 0b101, 0b0100000),
    (AluImmOp::Addiw, "addiw", OPC_OP_IMM_32, 0b000, 0),
    (AluImmOp::Slliw, "slliw", OPC_OP_IMM_32, 0b001, 0b0000000),
    (AluImmOp::Srliw, "srliw", OPC_OP_IMM_32, 0b101, 0b0000000),
    (AluImmOp::Sraiw, "sraiw", OPC_OP_IMM_32, 0b101, 0b0100000),
];

/// B-type rows, in [`BranchOp`] discriminant order.
pub const BRANCH_OPS: [OpRow<BranchOp>; 6] = [
    (BranchOp::Beq, "beq", OPC_BRANCH, 0b000, 0),
    (BranchOp::Bne, "bne", OPC_BRANCH, 0b001, 0),
    (BranchOp::Blt, "blt", OPC_BRANCH, 0b100, 0),
    (BranchOp::Bge, "bge", OPC_BRANCH, 0b101, 0),
    (BranchOp::Bltu, "bltu", OPC_BRANCH, 0b110, 0),
    (BranchOp::Bgeu, "bgeu", OPC_BRANCH, 0b111, 0),
];

/// Load rows, in [`LoadOp`] discriminant order.
pub const LOAD_OPS: [OpRow<LoadOp>; 7] = [
    (LoadOp::Lb, "lb", OPC_LOAD, 0b000, 0),
    (LoadOp::Lh, "lh", OPC_LOAD, 0b001, 0),
    (LoadOp::Lw, "lw", OPC_LOAD, 0b010, 0),
    (LoadOp::Ld, "ld", OPC_LOAD, 0b011, 0),
    (LoadOp::Lbu, "lbu", OPC_LOAD, 0b100, 0),
    (LoadOp::Lhu, "lhu", OPC_LOAD, 0b101, 0),
    (LoadOp::Lwu, "lwu", OPC_LOAD, 0b110, 0),
];

/// S-type rows, in [`StoreOp`] discriminant order.
pub const STORE_OPS: [OpRow<StoreOp>; 4] = [
    (StoreOp::Sb, "sb", OPC_STORE, 0b000, 0),
    (StoreOp::Sh, "sh", OPC_STORE, 0b001, 0),
    (StoreOp::Sw, "sw", OPC_STORE, 0b010, 0),
    (StoreOp::Sd, "sd", OPC_STORE, 0b011, 0),
];

/// Fails the build unless row `i` of each table holds the op whose
/// discriminant is `i`, so `TABLE[op as usize]` is `op`'s row.
macro_rules! assert_discriminant_order {
    ($($table:ident),+) => {$(
        const _: () = {
            let mut i = 0;
            while i < $table.len() {
                assert!($table[i].0 as usize == i, stringify!($table));
                i += 1;
            }
        };
    )+};
}

assert_discriminant_order!(ALU_OPS, ALU_IMM_OPS, BRANCH_OPS, LOAD_OPS, STORE_OPS);

/// A decoded instruction.
///
/// Branch, jump, load and store offsets are byte offsets held as `i32`;
/// the encoder validates their ranges. ALU immediates are the
/// sign-extended architectural value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `lui rd, imm`: load upper immediate (`imm` is the final value's
    /// upper 20 bits, i.e. the instruction writes `imm << 12`
    /// sign-extended).
    Lui { rd: Reg, imm20: i32 },
    /// `auipc rd, imm`: add `imm << 12` to the PC.
    Auipc { rd: Reg, imm20: i32 },
    /// `jal rd, offset`: jump and link.
    Jal { rd: Reg, offset: i32 },
    /// `jalr rd, offset(rs1)`: indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Memory load: `rd <- mem[rs1 + offset]`.
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: i32,
    },
    /// Memory store: `mem[rs1 + offset] <- rs2`.
    Store {
        op: StoreOp,
        rs1: Reg,
        rs2: Reg,
        offset: i32,
    },
    /// Register–immediate ALU operation.
    OpImm {
        op: AluImmOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Register–register ALU / multiply / divide operation.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fence`: treated as a no-op by this single-hart model.
    Fence,
    /// `ecall`: environment call; terminates a [`crate::Machine`] run.
    Ecall,
    /// `ebreak`: breakpoint; terminates a [`crate::Machine`] run.
    Ebreak,
    /// A custom (ISE) instruction, resolved against the machine's
    /// registered extensions. `rs3` and `imm` are interpreted according
    /// to the instruction's [`crate::ext::CustomFormat`].
    Custom {
        id: CustomId,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
        rs3: Reg,
        imm: u8,
    },
}

impl Inst {
    /// The destination register, when the instruction writes one
    /// (writes to `x0` still count; the CPU discards them).
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::OpImm { rd, .. }
            | Inst::Op { rd, .. }
            | Inst::Custom { rd, .. } => Some(rd),
            Inst::Branch { .. } | Inst::Store { .. } | Inst::Fence | Inst::Ecall | Inst::Ebreak => {
                None
            }
        }
    }

    /// The source registers read by the instruction, in operand order.
    pub fn uses(&self) -> Vec<Reg> {
        match *self {
            Inst::Lui { .. } | Inst::Auipc { .. } | Inst::Jal { .. } => vec![],
            Inst::Jalr { rs1, .. } => vec![rs1],
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Load { rs1, .. } => vec![rs1],
            Inst::Store { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::OpImm { rs1, .. } => vec![rs1],
            Inst::Op { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Fence | Inst::Ecall | Inst::Ebreak => vec![],
            Inst::Custom { rs1, rs2, rs3, .. } => vec![rs1, rs2, rs3],
        }
    }

    /// Whether this is a control-transfer instruction (branch or jump).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. }
        )
    }
}

impl fmt::Display for Inst {
    /// Formats in standard assembler syntax, e.g. `add a0, a1, a2` or
    /// `ld t0, 8(a1)`. Custom instructions print as
    /// `custom.<id> rd, rs1, rs2, rs3/imm`; the machine-level
    /// disassembler in [`crate::asm`] substitutes real mnemonics using
    /// the extension registry.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Lui { rd, imm20 } => write!(f, "lui {rd}, {:#x}", imm20),
            Inst::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {:#x}", imm20),
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic()),
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic()),
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic()),
            Inst::OpImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::Fence => write!(f, "fence"),
            Inst::Ecall => write!(f, "ecall"),
            Inst::Ebreak => write!(f, "ebreak"),
            Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                imm,
            } => write!(f, "custom.{} {rd}, {rs1}, {rs2}, {rs3}/{imm}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(i.def(), Some(Reg::A0));
        assert_eq!(i.uses(), vec![Reg::A1, Reg::A2]);

        let s = Inst::Store {
            op: StoreOp::Sd,
            rs1: Reg::A0,
            rs2: Reg::T0,
            offset: 8,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![Reg::A0, Reg::T0]);
    }

    #[test]
    fn multiply_classification() {
        assert!(AluOp::Mul.is_multiply());
        assert!(AluOp::Mulhu.is_multiply());
        assert!(!AluOp::Add.is_multiply());
        assert!(AluOp::Divu.is_divide());
        assert!(!AluOp::Mulhu.is_divide());
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Beq.taken(5, 5));
        assert!(!BranchOp::Bne.taken(5, 5));
        assert!(BranchOp::Blt.taken(u64::MAX, 0)); // -1 < 0 signed
        assert!(!BranchOp::Bltu.taken(u64::MAX, 0)); // but not unsigned
        assert!(BranchOp::Bgeu.taken(u64::MAX, 0));
        assert!(BranchOp::Bge.taken(3, 3));
    }

    #[test]
    fn display_forms() {
        let i = Inst::Load {
            op: LoadOp::Ld,
            rd: Reg::T0,
            rs1: Reg::A1,
            offset: 16,
        };
        assert_eq!(i.to_string(), "ld t0, 16(a1)");
        let b = Inst::Branch {
            op: BranchOp::Bne,
            rs1: Reg::A0,
            rs2: Reg::Zero,
            offset: -8,
        };
        assert_eq!(b.to_string(), "bne a0, zero, -8");
    }

    #[test]
    fn widths() {
        assert_eq!(LoadOp::Ld.width(), 8);
        assert_eq!(LoadOp::Lbu.width(), 1);
        assert_eq!(StoreOp::Sw.width(), 4);
    }
}
