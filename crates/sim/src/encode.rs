//! Binary instruction encoding (RV64I/M plus registered custom formats).

use crate::ext::{encode_custom, IsaExtension};
use crate::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use std::fmt;

/// Error returned when an [`Inst`] cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate or offset does not fit its encoding field.
    ImmOutOfRange {
        /// The instruction being encoded, rendered as assembly.
        inst: String,
        /// Number of bits available in the encoding.
        bits: u32,
    },
    /// A branch/jump offset is not 2-byte aligned (RISC-V requires even
    /// offsets even without the C extension).
    MisalignedOffset(String),
    /// A custom instruction's id is not present in the supplied
    /// extension registry.
    UnknownCustom(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { inst, bits } => {
                write!(f, "immediate of `{inst}` does not fit in {bits} bits")
            }
            EncodeError::MisalignedOffset(inst) => {
                write!(
                    f,
                    "control-transfer offset of `{inst}` is not 2-byte aligned"
                )
            }
            EncodeError::UnknownCustom(inst) => {
                write!(f, "custom instruction `{inst}` is not registered")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

const OPC_LUI: u32 = 0b0110111;
const OPC_AUIPC: u32 = 0b0010111;
const OPC_JAL: u32 = 0b1101111;
const OPC_JALR: u32 = 0b1100111;
const OPC_BRANCH: u32 = 0b1100011;
const OPC_LOAD: u32 = 0b0000011;
const OPC_STORE: u32 = 0b0100011;
const OPC_OP_IMM: u32 = 0b0010011;
const OPC_OP_IMM_32: u32 = 0b0011011;
const OPC_OP: u32 = 0b0110011;
const OPC_OP_32: u32 = 0b0111011;
const OPC_MISC_MEM: u32 = 0b0001111;
const OPC_SYSTEM: u32 = 0b1110011;

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

fn fits_signed(v: i64, bits: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

fn r_type(opcode: u32, funct3: u32, funct7: u32, rd: u32, rs1: u32, rs2: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn i_type(opcode: u32, funct3: u32, rd: u32, rs1: u32, imm12: i32) -> u32 {
    (((imm12 as u32) & 0xfff) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn s_type(opcode: u32, funct3: u32, rs1: u32, rs2: u32, imm12: i32) -> u32 {
    let imm = imm12 as u32;
    (((imm >> 5) & 0x7f) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1f) << 7)
        | opcode
}

fn b_type(opcode: u32, funct3: u32, rs1: u32, rs2: u32, offset: i32) -> u32 {
    let imm = offset as u32;
    (((imm >> 12) & 1) << 31)
        | (((imm >> 5) & 0x3f) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xf) << 8)
        | (((imm >> 11) & 1) << 7)
        | opcode
}

fn u_type(opcode: u32, rd: u32, imm20: i32) -> u32 {
    (((imm20 as u32) & 0xfffff) << 12) | (rd << 7) | opcode
}

fn j_type(opcode: u32, rd: u32, offset: i32) -> u32 {
    let imm = offset as u32;
    (((imm >> 20) & 1) << 31)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xff) << 12)
        | (rd << 7)
        | opcode
}

/// funct3/funct7 for an R-type [`AluOp`] and its major opcode.
pub(crate) fn alu_op_fields(op: AluOp) -> (u32, u32, u32) {
    use AluOp::*;
    // (opcode, funct3, funct7)
    match op {
        Add => (OPC_OP, 0b000, 0b0000000),
        Sub => (OPC_OP, 0b000, 0b0100000),
        Sll => (OPC_OP, 0b001, 0b0000000),
        Slt => (OPC_OP, 0b010, 0b0000000),
        Sltu => (OPC_OP, 0b011, 0b0000000),
        Xor => (OPC_OP, 0b100, 0b0000000),
        Srl => (OPC_OP, 0b101, 0b0000000),
        Sra => (OPC_OP, 0b101, 0b0100000),
        Or => (OPC_OP, 0b110, 0b0000000),
        And => (OPC_OP, 0b111, 0b0000000),
        Mul => (OPC_OP, 0b000, 0b0000001),
        Mulh => (OPC_OP, 0b001, 0b0000001),
        Mulhsu => (OPC_OP, 0b010, 0b0000001),
        Mulhu => (OPC_OP, 0b011, 0b0000001),
        Div => (OPC_OP, 0b100, 0b0000001),
        Divu => (OPC_OP, 0b101, 0b0000001),
        Rem => (OPC_OP, 0b110, 0b0000001),
        Remu => (OPC_OP, 0b111, 0b0000001),
        Addw => (OPC_OP_32, 0b000, 0b0000000),
        Subw => (OPC_OP_32, 0b000, 0b0100000),
        Sllw => (OPC_OP_32, 0b001, 0b0000000),
        Srlw => (OPC_OP_32, 0b101, 0b0000000),
        Sraw => (OPC_OP_32, 0b101, 0b0100000),
        Mulw => (OPC_OP_32, 0b000, 0b0000001),
        Divw => (OPC_OP_32, 0b100, 0b0000001),
        Divuw => (OPC_OP_32, 0b101, 0b0000001),
        Remw => (OPC_OP_32, 0b110, 0b0000001),
        Remuw => (OPC_OP_32, 0b111, 0b0000001),
    }
}

pub(crate) fn branch_funct3(op: BranchOp) -> u32 {
    match op {
        BranchOp::Beq => 0b000,
        BranchOp::Bne => 0b001,
        BranchOp::Blt => 0b100,
        BranchOp::Bge => 0b101,
        BranchOp::Bltu => 0b110,
        BranchOp::Bgeu => 0b111,
    }
}

pub(crate) fn load_funct3(op: LoadOp) -> u32 {
    match op {
        LoadOp::Lb => 0b000,
        LoadOp::Lh => 0b001,
        LoadOp::Lw => 0b010,
        LoadOp::Ld => 0b011,
        LoadOp::Lbu => 0b100,
        LoadOp::Lhu => 0b101,
        LoadOp::Lwu => 0b110,
    }
}

pub(crate) fn store_funct3(op: StoreOp) -> u32 {
    match op {
        StoreOp::Sb => 0b000,
        StoreOp::Sh => 0b001,
        StoreOp::Sw => 0b010,
        StoreOp::Sd => 0b011,
    }
}

/// Encodes an instruction into its 32-bit binary form.
///
/// Custom instructions are resolved against `ext`; pass an empty
/// [`IsaExtension`] when the program contains none.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate is out of range, a branch
/// offset is misaligned, or a custom id is unknown.
pub fn encode(inst: &Inst, ext: &IsaExtension) -> Result<u32, EncodeError> {
    let imm_err = |bits| EncodeError::ImmOutOfRange {
        inst: inst.to_string(),
        bits,
    };
    Ok(match *inst {
        Inst::Lui { rd, imm20 } => {
            if !fits_signed(imm20 as i64, 20) && !(0..(1 << 20)).contains(&(imm20 as i64)) {
                return Err(imm_err(20));
            }
            u_type(OPC_LUI, rd.number() as u32, imm20)
        }
        Inst::Auipc { rd, imm20 } => {
            if !fits_signed(imm20 as i64, 20) && !(0..(1 << 20)).contains(&(imm20 as i64)) {
                return Err(imm_err(20));
            }
            u_type(OPC_AUIPC, rd.number() as u32, imm20)
        }
        Inst::Jal { rd, offset } => {
            if offset % 2 != 0 {
                return Err(EncodeError::MisalignedOffset(inst.to_string()));
            }
            if !fits_signed(offset as i64, 21) {
                return Err(imm_err(21));
            }
            j_type(OPC_JAL, rd.number() as u32, offset)
        }
        Inst::Jalr { rd, rs1, offset } => {
            if !fits_signed(offset as i64, 12) {
                return Err(imm_err(12));
            }
            i_type(
                OPC_JALR,
                0b000,
                rd.number() as u32,
                rs1.number() as u32,
                offset,
            )
        }
        Inst::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            if offset % 2 != 0 {
                return Err(EncodeError::MisalignedOffset(inst.to_string()));
            }
            if !fits_signed(offset as i64, 13) {
                return Err(imm_err(13));
            }
            b_type(
                OPC_BRANCH,
                branch_funct3(op),
                rs1.number() as u32,
                rs2.number() as u32,
                offset,
            )
        }
        Inst::Load {
            op,
            rd,
            rs1,
            offset,
        } => {
            if !fits_signed(offset as i64, 12) {
                return Err(imm_err(12));
            }
            i_type(
                OPC_LOAD,
                load_funct3(op),
                rd.number() as u32,
                rs1.number() as u32,
                offset,
            )
        }
        Inst::Store {
            op,
            rs1,
            rs2,
            offset,
        } => {
            if !fits_signed(offset as i64, 12) {
                return Err(imm_err(12));
            }
            s_type(
                OPC_STORE,
                store_funct3(op),
                rs1.number() as u32,
                rs2.number() as u32,
                offset,
            )
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            use AluImmOp::*;
            let rd = rd.number() as u32;
            let rs1 = rs1.number() as u32;
            match op {
                Addi | Slti | Sltiu | Xori | Ori | Andi | Addiw => {
                    if !fits_signed(imm as i64, 12) {
                        return Err(imm_err(12));
                    }
                    let (opcode, f3) = match op {
                        Addi => (OPC_OP_IMM, 0b000),
                        Slti => (OPC_OP_IMM, 0b010),
                        Sltiu => (OPC_OP_IMM, 0b011),
                        Xori => (OPC_OP_IMM, 0b100),
                        Ori => (OPC_OP_IMM, 0b110),
                        Andi => (OPC_OP_IMM, 0b111),
                        Addiw => (OPC_OP_IMM_32, 0b000),
                        _ => unreachable!(),
                    };
                    i_type(opcode, f3, rd, rs1, imm)
                }
                Slli | Srli | Srai => {
                    if !(0..64).contains(&imm) {
                        return Err(imm_err(6));
                    }
                    let (f3, hi) = match op {
                        Slli => (0b001, 0b000000u32),
                        Srli => (0b101, 0b000000),
                        Srai => (0b101, 0b010000),
                        _ => unreachable!(),
                    };
                    i_type(OPC_OP_IMM, f3, rd, rs1, ((hi << 6) | imm as u32) as i32)
                }
                Slliw | Srliw | Sraiw => {
                    if !(0..32).contains(&imm) {
                        return Err(imm_err(5));
                    }
                    let (f3, hi) = match op {
                        Slliw => (0b001, 0b0000000u32),
                        Srliw => (0b101, 0b0000000),
                        Sraiw => (0b101, 0b0100000),
                        _ => unreachable!(),
                    };
                    i_type(OPC_OP_IMM_32, f3, rd, rs1, ((hi << 5) | imm as u32) as i32)
                }
            }
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            let (opcode, f3, f7) = alu_op_fields(op);
            r_type(
                opcode,
                f3,
                f7,
                rd.number() as u32,
                rs1.number() as u32,
                rs2.number() as u32,
            )
        }
        Inst::Fence => i_type(OPC_MISC_MEM, 0b000, 0, 0, 0),
        Inst::Ecall => i_type(OPC_SYSTEM, 0b000, 0, 0, 0),
        Inst::Ebreak => i_type(OPC_SYSTEM, 0b000, 0, 0, 1),
        Inst::Custom {
            id,
            rd,
            rs1,
            rs2,
            rs3,
            imm,
        } => {
            let def = ext
                .by_id(id)
                .ok_or_else(|| EncodeError::UnknownCustom(inst.to_string()))?;
            encode_custom(def.format, rd, rs1, rs2, rs3, imm)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn enc(i: Inst) -> u32 {
        encode(&i, &IsaExtension::new("none")).unwrap()
    }

    // Golden encodings cross-checked against the RISC-V spec / GNU as.
    #[test]
    fn golden_add() {
        // add a0, a1, a2 => 0x00c58533
        let raw = enc(Inst::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        assert_eq!(raw, 0x00c5_8533);
    }

    #[test]
    fn golden_mulhu() {
        // mulhu t0, t1, t2 => 0x027332b3
        let raw = enc(Inst::Op {
            op: AluOp::Mulhu,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
        });
        assert_eq!(raw, 0x0273_32b3);
    }

    #[test]
    fn golden_sltu() {
        // sltu a0, a1, a2 => 0x00c5b533
        let raw = enc(Inst::Op {
            op: AluOp::Sltu,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        });
        assert_eq!(raw, 0x00c5_b533);
    }

    #[test]
    fn golden_addi() {
        // addi sp, sp, -16 => 0xff010113
        let raw = enc(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: Reg::Sp,
            rs1: Reg::Sp,
            imm: -16,
        });
        assert_eq!(raw, 0xff01_0113);
    }

    #[test]
    fn golden_srai() {
        // srai a0, a1, 57 => 0x4395d513
        let raw = enc(Inst::OpImm {
            op: AluImmOp::Srai,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: 57,
        });
        assert_eq!(raw, 0x4395_d513);
    }

    #[test]
    fn golden_ld_sd() {
        // ld t0, 8(a0) => 0x00853283 ; sd t0, 16(a0) => 0x00553823
        let ld = enc(Inst::Load {
            op: LoadOp::Ld,
            rd: Reg::T0,
            rs1: Reg::A0,
            offset: 8,
        });
        assert_eq!(ld, 0x0085_3283);
        let sd = enc(Inst::Store {
            op: StoreOp::Sd,
            rs1: Reg::A0,
            rs2: Reg::T0,
            offset: 16,
        });
        assert_eq!(sd, 0x0055_3823);
    }

    #[test]
    fn golden_ebreak_ecall() {
        assert_eq!(enc(Inst::Ebreak), 0x0010_0073);
        assert_eq!(enc(Inst::Ecall), 0x0000_0073);
    }

    #[test]
    fn golden_branch() {
        // bne a0, zero, 8 => 0x00051463
        let raw = enc(Inst::Branch {
            op: BranchOp::Bne,
            rs1: Reg::A0,
            rs2: Reg::Zero,
            offset: 8,
        });
        assert_eq!(raw, 0x0005_1463);
    }

    #[test]
    fn golden_jal() {
        // jal ra, 16 => 0x010000ef
        let raw = enc(Inst::Jal {
            rd: Reg::Ra,
            offset: 16,
        });
        assert_eq!(raw, 0x0100_00ef);
    }

    #[test]
    fn out_of_range_rejected() {
        let e = encode(
            &Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 4096,
            },
            &IsaExtension::new("none"),
        );
        assert!(matches!(e, Err(EncodeError::ImmOutOfRange { .. })));

        let e = encode(
            &Inst::OpImm {
                op: AluImmOp::Slli,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 64,
            },
            &IsaExtension::new("none"),
        );
        assert!(e.is_err());
    }

    #[test]
    fn misaligned_branch_rejected() {
        let e = encode(
            &Inst::Branch {
                op: BranchOp::Beq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 3,
            },
            &IsaExtension::new("none"),
        );
        assert!(matches!(e, Err(EncodeError::MisalignedOffset(_))));
    }

    #[test]
    fn unknown_custom_rejected() {
        let e = encode(
            &Inst::Custom {
                id: crate::ext::CustomId(999),
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
                rs3: Reg::A3,
                imm: 0,
            },
            &IsaExtension::new("none"),
        );
        assert!(matches!(e, Err(EncodeError::UnknownCustom(_))));
    }
}
