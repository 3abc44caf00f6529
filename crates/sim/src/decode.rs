//! Binary instruction decoding (the inverse of [`crate::encode`]).
//!
//! A base word's major opcode selects its format; the op is the row of
//! that family's table in [`crate::inst`] whose opcode and funct fields
//! the word carries. Words on any other opcode go to the extension
//! registry.

use crate::ext::{decode_custom_operands, IsaExtension};
use crate::inst::{
    Inst, OpRow, ALU_IMM_OPS, ALU_OPS, BRANCH_OPS, LOAD_OPS, OPC_AUIPC, OPC_BRANCH, OPC_JAL,
    OPC_JALR, OPC_LOAD, OPC_LUI, OPC_MISC_MEM, OPC_OP, OPC_OP_32, OPC_OP_IMM, OPC_OP_IMM_32,
    OPC_STORE, OPC_SYSTEM, STORE_OPS,
};
use crate::reg::Reg;
use std::fmt;

/// Error returned when a 32-bit word is not a recognized instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// The raw word that failed to decode.
    pub raw: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction {:#010x}", self.raw)
    }
}

impl std::error::Error for DecodeError {}

fn rd(raw: u32) -> Reg {
    Reg::from_number(((raw >> 7) & 0x1f) as u8).expect("5-bit field")
}
fn rs1(raw: u32) -> Reg {
    Reg::from_number(((raw >> 15) & 0x1f) as u8).expect("5-bit field")
}
fn rs2(raw: u32) -> Reg {
    Reg::from_number(((raw >> 20) & 0x1f) as u8).expect("5-bit field")
}
fn funct3(raw: u32) -> u32 {
    (raw >> 12) & 0x7
}

/// Sign-extends the low `bits` of `v`.
fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

fn i_imm(raw: u32) -> i32 {
    sext(raw >> 20, 12)
}

fn s_imm(raw: u32) -> i32 {
    sext(((raw >> 25) << 5) | ((raw >> 7) & 0x1f), 12)
}

fn b_imm(raw: u32) -> i32 {
    let imm = (((raw >> 31) & 1) << 12)
        | (((raw >> 7) & 1) << 11)
        | (((raw >> 25) & 0x3f) << 5)
        | (((raw >> 8) & 0xf) << 1);
    sext(imm, 13)
}

fn j_imm(raw: u32) -> i32 {
    let imm = (((raw >> 31) & 1) << 20)
        | (((raw >> 12) & 0xff) << 12)
        | (((raw >> 20) & 1) << 11)
        | (((raw >> 21) & 0x3ff) << 1);
    sext(imm, 21)
}

/// The op of the first row in `rows` on `raw`'s opcode and funct3 that
/// `fits` accepts.
fn op_of<Op: Copy>(rows: &[OpRow<Op>], raw: u32, fits: impl Fn(&OpRow<Op>) -> bool) -> Option<Op> {
    rows.iter()
        .find(|row| row.2 == raw & 0x7f && row.3 == funct3(raw) && fits(row))
        .map(|row| row.0)
}

/// Decodes a 32-bit word into an [`Inst`].
///
/// Custom opcode space is resolved against `ext`; pass an empty
/// [`IsaExtension`] to decode pure RV64I/M.
///
/// # Errors
///
/// Returns [`DecodeError`] for any word that is neither a supported base
/// instruction nor matched by the extension registry.
pub fn decode(raw: u32, ext: &IsaExtension) -> Result<Inst, DecodeError> {
    let err = || DecodeError { raw };
    let inst = match raw & 0x7f {
        OPC_LUI => Inst::Lui {
            rd: rd(raw),
            imm20: sext(raw >> 12, 20),
        },
        OPC_AUIPC => Inst::Auipc {
            rd: rd(raw),
            imm20: sext(raw >> 12, 20),
        },
        OPC_JAL => Inst::Jal {
            rd: rd(raw),
            offset: j_imm(raw),
        },
        OPC_JALR if funct3(raw) == 0 => Inst::Jalr {
            rd: rd(raw),
            rs1: rs1(raw),
            offset: i_imm(raw),
        },
        OPC_BRANCH => Inst::Branch {
            op: op_of(&BRANCH_OPS, raw, |_| true).ok_or_else(err)?,
            rs1: rs1(raw),
            rs2: rs2(raw),
            offset: b_imm(raw),
        },
        OPC_LOAD => Inst::Load {
            op: op_of(&LOAD_OPS, raw, |_| true).ok_or_else(err)?,
            rd: rd(raw),
            rs1: rs1(raw),
            offset: i_imm(raw),
        },
        OPC_STORE => Inst::Store {
            op: op_of(&STORE_OPS, raw, |_| true).ok_or_else(err)?,
            rs1: rs1(raw),
            rs2: rs2(raw),
            offset: s_imm(raw),
        },
        OPC_OP_IMM | OPC_OP_IMM_32 => {
            // A shift's funct7 must match above its shift amount.
            let op = op_of(&ALU_IMM_OPS, raw, |&(op, .., funct7)| {
                !op.is_shift() || raw >> (20 + op.shamt_bits()) == funct7 << 5 >> op.shamt_bits()
            })
            .ok_or_else(err)?;
            let imm = if op.is_shift() {
                ((raw >> 20) & ((1 << op.shamt_bits()) - 1)) as i32
            } else {
                i_imm(raw)
            };
            Inst::OpImm {
                op,
                rd: rd(raw),
                rs1: rs1(raw),
                imm,
            }
        }
        OPC_OP | OPC_OP_32 => Inst::Op {
            op: op_of(&ALU_OPS, raw, |row| row.4 == raw >> 25).ok_or_else(err)?,
            rd: rd(raw),
            rs1: rs1(raw),
            rs2: rs2(raw),
        },
        OPC_MISC_MEM => Inst::Fence,
        OPC_SYSTEM => match raw >> 20 {
            0 => Inst::Ecall,
            1 => Inst::Ebreak,
            _ => return Err(err()),
        },
        _ => {
            // Not a base opcode: try the extension registry.
            let def = ext.match_encoding(raw).ok_or_else(err)?;
            let (rd, rs1, rs2, rs3, imm) = decode_custom_operands(def.format, raw);
            Inst::Custom {
                id: def.id,
                rd,
                rs1,
                rs2,
                rs3,
                imm,
            }
        }
    };
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::inst::BranchOp;

    #[test]
    fn illegal_rejected() {
        let e = IsaExtension::new("none");
        assert!(decode(0xffff_ffff, &e).is_err());
        assert!(decode(0x0000_0000, &e).is_err());
        // custom-3 opcode without a registered extension
        assert!(decode(0x0000_007b, &e).is_err());
    }

    #[test]
    fn negative_branch_offset_round_trip() {
        let e = IsaExtension::new("none");
        let i = Inst::Branch {
            op: BranchOp::Bltu,
            rs1: Reg::T0,
            rs2: Reg::T1,
            offset: -4096,
        };
        let raw = encode(&i, &e).unwrap();
        assert_eq!(decode(raw, &e).unwrap(), i);
    }

    #[test]
    fn negative_jal_offset_round_trip() {
        let e = IsaExtension::new("none");
        let i = Inst::Jal {
            rd: Reg::Zero,
            offset: -1048576,
        };
        let raw = encode(&i, &e).unwrap();
        assert_eq!(decode(raw, &e).unwrap(), i);
    }
}
