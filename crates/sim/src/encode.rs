//! Binary instruction encoding (RV64I/M plus registered custom formats).
//!
//! The opcode and funct fields of every base operation come from the
//! op tables in [`crate::inst`]; this module only lays the fields and
//! range-checked immediates out in the R/I/S/B/U/J formats.

use crate::ext::{encode_custom, IsaExtension};
use crate::inst::{
    Inst, ALU_IMM_OPS, ALU_OPS, BRANCH_OPS, LOAD_OPS, OPC_AUIPC, OPC_JAL, OPC_JALR, OPC_LUI,
    OPC_MISC_MEM, OPC_SYSTEM, STORE_OPS,
};
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
            let (_, _, opcode, funct3, _) = BRANCH_OPS[op as usize];
            b_type(
                opcode,
                funct3,
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
            let (_, _, opcode, funct3, _) = LOAD_OPS[op as usize];
            i_type(
                opcode,
                funct3,
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
            let (_, _, opcode, funct3, _) = STORE_OPS[op as usize];
            s_type(
                opcode,
                funct3,
                rs1.number() as u32,
                rs2.number() as u32,
                offset,
            )
        }
        Inst::OpImm { op, rd, rs1, imm } => {
            let (_, _, opcode, funct3, funct7) = ALU_IMM_OPS[op as usize];
            let imm = if op.is_shift() {
                let bits = op.shamt_bits();
                if !(0..1 << bits).contains(&imm) {
                    return Err(imm_err(bits));
                }
                (funct7 << 5) as i32 | imm
            } else if fits_signed(imm as i64, 12) {
                imm
            } else {
                return Err(imm_err(12));
            };
            i_type(opcode, funct3, rd.number() as u32, rs1.number() as u32, imm)
        }
        Inst::Op { op, rd, rs1, rs2 } => {
            let (_, _, opcode, funct3, funct7) = ALU_OPS[op as usize];
            r_type(
                opcode,
                funct3,
                funct7,
                rd.number() as u32,
                rs1.number() as u32,
                rs2.number() as u32,
            )
        }
        // `fence iorw, iorw`: every access before orders before every
        // access after, as a standard assembler encodes a bare `fence`.
        Inst::Fence => i_type(OPC_MISC_MEM, 0b000, 0, 0, 0x0ff),
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
    use crate::asm::parse_program;
    use crate::decode::decode;
    use crate::inst::{AluImmOp, BranchOp};
    use crate::reg::Reg;

    /// Every base form with the word `llvm-mc --triple=riscv64 -mattr=+m
    /// --show-encoding` gives for it (LLVM 14), the text as the
    /// disassembler prints it: an encoder and decoder that share the
    /// op tables round-trip a wrong field, so these words come from
    /// outside.
    const LLVM_MC: [(&str, u32); 65] = [
        ("add a0, a1, a2", 0x00c5_8533),
        ("sub t0, t1, t2", 0x4073_02b3),
        ("sll s2, s3, s4", 0x0149_9933),
        ("slt a3, a4, a5", 0x00f7_26b3),
        ("sltu a0, a1, a2", 0x00c5_b533),
        ("xor t3, t4, t5", 0x01ee_ce33),
        ("srl s5, s6, s7", 0x017b_5ab3),
        ("sra a6, a7, s8", 0x4188_d833),
        ("or s9, s10, s11", 0x01bd_6cb3),
        ("and ra, sp, gp", 0x0031_70b3),
        ("addw tp, t6, s0", 0x008f_823b),
        ("subw s1, a0, a1", 0x40b5_04bb),
        ("sllw a2, a3, a4", 0x00e6_963b),
        ("srlw a5, a6, a7", 0x0118_57bb),
        ("sraw t0, t1, t2", 0x4073_52bb),
        ("mul a0, a1, a2", 0x02c5_8533),
        ("mulh t3, t4, t5", 0x03ee_9e33),
        ("mulhsu s2, s3, s4", 0x0349_a933),
        ("mulhu t0, t1, t2", 0x0273_32b3),
        ("div a3, a4, a5", 0x02f7_46b3),
        ("divu s5, s6, s7", 0x037b_5ab3),
        ("rem a6, a7, s8", 0x0388_e833),
        ("remu s9, s10, s11", 0x03bd_7cb3),
        ("mulw ra, sp, gp", 0x0231_00bb),
        ("divw tp, t6, s0", 0x028f_c23b),
        ("divuw s1, a0, a1", 0x02b5_54bb),
        ("remw a2, a3, a4", 0x02e6_e63b),
        ("remuw a5, a6, a7", 0x0318_77bb),
        ("addi sp, sp, -16", 0xff01_0113),
        ("slti a0, a1, 2047", 0x7ff5_a513),
        ("sltiu t0, t1, -2048", 0x8003_3293),
        ("xori a2, a3, -1", 0xfff6_c613),
        ("ori s2, s3, 1365", 0x5559_e913),
        ("andi a4, a5, 255", 0x0ff7_f713),
        ("slli t2, t3, 63", 0x03fe_1393),
        ("srli s4, s5, 1", 0x001a_da13),
        ("srai a0, a1, 57", 0x4395_d513),
        ("addiw a6, a7, -5", 0xffb8_881b),
        ("slliw s6, s7, 31", 0x01fb_9b1b),
        ("srliw t4, t5, 7", 0x007f_5e9b),
        ("sraiw s8, s9, 13", 0x40dc_dc1b),
        ("beq a0, a1, 16", 0x00b5_0863),
        ("bne a0, zero, 8", 0x0005_1463),
        ("blt t0, t1, -4096", 0x8062_c063),
        ("bge s2, s3, 4094", 0x7f39_5fe3),
        ("bltu a4, a5, -2", 0xfef7_6fe3),
        ("bgeu t6, s11, 2048", 0x01bf_f0e3),
        ("lb a0, -1(a1)", 0xfff5_8503),
        ("lh t0, 2(t1)", 0x0023_1283),
        ("lw s2, -2048(s3)", 0x8009_a903),
        ("ld t0, 8(a0)", 0x0085_3283),
        ("lbu a4, 2047(a5)", 0x7ff7_c703),
        ("lhu s6, 30(s7)", 0x01eb_db03),
        ("lwu t2, -4(sp)", 0xffc1_6383),
        ("sb a0, -1(a1)", 0xfea5_8fa3),
        ("sh t3, 6(t4)", 0x01ce_9323),
        ("sw s4, 2047(s5)", 0x7f4a_afa3),
        ("sd t0, 16(a0)", 0x0055_3823),
        ("lui a0, 0x12345", 0x1234_5537),
        ("auipc t1, 0x7ffff", 0x7fff_f317),
        ("jal ra, 16", 0x0100_00ef),
        ("jalr ra, 8(a1)", 0x0085_80e7),
        ("fence", 0x0ff0_000f),
        ("ecall", 0x0000_0073),
        ("ebreak", 0x0010_0073),
    ];

    #[test]
    fn base_forms_match_llvm_mc_both_ways() {
        let ext = IsaExtension::new("none");
        let mut forms = vec![];
        for (text, word) in LLVM_MC {
            let inst = parse_program(text, &ext).unwrap().insts()[0];
            assert_eq!(encode(&inst, &ext), Ok(word), "encode `{text}`");
            assert_eq!(decode(word, &ext), Ok(inst), "decode {word:#010x}");
            assert_eq!(inst.to_string(), text);
            forms.push(text.split(' ').next().unwrap());
        }
        // One word per table row, in table order, then the rest.
        let rows = [
            &ALU_OPS.map(|r| r.1)[..],
            &ALU_IMM_OPS.map(|r| r.1),
            &BRANCH_OPS.map(|r| r.1),
            &LOAD_OPS.map(|r| r.1),
            &STORE_OPS.map(|r| r.1),
            &["lui", "auipc", "jal", "jalr", "fence", "ecall", "ebreak"],
        ];
        assert_eq!(forms, rows.concat());
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
