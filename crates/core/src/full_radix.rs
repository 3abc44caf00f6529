//! The full-radix ISE: `maddlu`, `maddhu`, `cadd` (Figures 1 and 3).
//!
//! Encodings use the custom-3 major opcode `0b1111011` with
//! funct3 = `0b111` and an R4-type format (three source registers), the
//! one exception the paper's design guidelines allow for the
//! performance-critical MAC operation (§3.2, guideline 3).
//!
//! | Instruction | funct2 | Semantics                                  |
//! |-------------|--------|--------------------------------------------|
//! | `maddlu`    | `00`   | `rd ← (rs1 × rs2 + rs3) & (2^64 − 1)`      |
//! | `maddhu`    | `01`   | `rd ← ((rs1 × rs2 + rs3) >> 64)`           |
//! | `cadd`      | `10`   | `rd ← ((rs1 + rs2) >> 64) + rs3`           |

use crate::intrinsics;
use mpise_sim::ext::{self, CustomFormat, CustomId, CustomInstDef, ExecUnit, IsaExtension};

/// Major opcode shared by all R4-type custom instructions of the paper
/// (RISC-V custom-3 space).
pub const CUSTOM3_OPCODE: u8 = 0b1111011;

/// funct3 used by all the paper's R4-type custom instructions.
pub const ISE_FUNCT3: u8 = 0b111;

/// Stable id of `maddlu`.
pub const MADDLU: CustomId = CustomId(1);
/// Stable id of `maddhu`.
pub const MADDHU: CustomId = CustomId(2);
/// Stable id of `cadd`.
pub const CADD: CustomId = CustomId(3);

fn exec_maddlu(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
    intrinsics::maddlu(rs1, rs2, rs3)
}

fn exec_maddhu(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
    intrinsics::maddhu(rs1, rs2, rs3)
}

fn exec_cadd(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
    intrinsics::cadd(rs1, rs2, rs3)
}

/// `maddhu` then `maddlu` on one `rs1 × rs2` (Listing 3): both halves
/// of one product, each with its own addend.
fn exec_maddhu_maddlu(rs1: u64, rs2: u64, rs3a: u64, rs3b: u64) -> (u64, u64) {
    (
        intrinsics::maddhu(rs1, rs2, rs3a),
        intrinsics::maddlu(rs1, rs2, rs3b),
    )
}

/// The pair's chain executor: a run of [`exec_maddhu_maddlu`] pairs on one
/// accumulator pair, with the pair inlined into the loop.
fn chain_maddhu_maddlu(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> (u64, u64) {
    ext::run_chain(exec_maddhu_maddlu, regs, srcs, h, l)
}

fn r4(funct2: u8) -> CustomFormat {
    CustomFormat::R4 {
        opcode: CUSTOM3_OPCODE,
        funct3: ISE_FUNCT3,
        funct2,
    }
}

/// Builds the full-radix ISE as a pluggable extension.
///
/// All three instructions execute on the XMUL unit: the two MACs use its
/// multiplier array, and `cadd` uses its wide carry network — the paper
/// routes every custom instruction through XMUL (§3.3). `maddhu`
/// followed by `maddlu` is registered as a pair, with its chain
/// executor, so the simulator runs the two halves of a MAC from one
/// product and a chain of MACs in one call.
///
/// # Examples
///
/// ```
/// use mpise_core::full_radix_ext;
/// use mpise_sim::Machine;
/// let m = Machine::with_ext(full_radix_ext());
/// assert!(m.ext().by_mnemonic("maddlu").is_some());
/// assert!(m.ext().by_mnemonic("madd57lu").is_none());
/// ```
pub fn full_radix_ext() -> IsaExtension {
    let mut e = IsaExtension::new("Xmpimacfull");
    let defs = [
        CustomInstDef {
            id: MADDLU,
            mnemonic: "maddlu",
            format: r4(0b00),
            exec: exec_maddlu,
            unit: ExecUnit::Xmul,
        },
        CustomInstDef {
            id: MADDHU,
            mnemonic: "maddhu",
            format: r4(0b01),
            exec: exec_maddhu,
            unit: ExecUnit::Xmul,
        },
        CustomInstDef {
            id: CADD,
            mnemonic: "cadd",
            format: r4(0b10),
            exec: exec_cadd,
            unit: ExecUnit::Xmul,
        },
    ];
    for d in defs {
        e.define(d)
            .expect("full-radix ISE definitions are conflict-free");
    }
    e.define_pair(MADDHU, MADDLU, chain_maddhu_maddlu);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::encode::encode;
    use mpise_sim::inst::Inst;
    use mpise_sim::{Assembler, Machine, Reg};

    #[test]
    fn encodings_match_figure_1_and_3() {
        let ext = full_radix_ext();
        // maddlu a0, a1, a2, a3: rs3=13,funct2=00,rs2=12,rs1=11,
        // funct3=111,rd=10,opcode=1111011
        let i = Inst::Custom {
            id: MADDLU,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            rs3: Reg::A3,
            imm: 0,
        };
        let raw = encode(&i, &ext).unwrap();
        let expect: u32 =
            (13 << 27) | (12 << 20) | (11 << 15) | (0b111 << 12) | (10 << 7) | 0b1111011;
        assert_eq!(raw, expect);

        // funct2 distinguishes the three instructions.
        for (id, f2) in [(MADDLU, 0u32), (MADDHU, 1), (CADD, 2)] {
            let i = Inst::Custom {
                id,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
                rs3: Reg::A3,
                imm: 0,
            };
            let raw = encode(&i, &ext).unwrap();
            assert_eq!((raw >> 25) & 0x3, f2);
            assert_eq!(raw & 0x7f, 0b1111011);
            assert_eq!((raw >> 12) & 0x7, 0b111);
        }
    }

    #[test]
    fn decode_round_trip() {
        let ext = full_radix_ext();
        for id in [MADDLU, MADDHU, CADD] {
            let i = Inst::Custom {
                id,
                rd: Reg::T0,
                rs1: Reg::S2,
                rs2: Reg::S3,
                rs3: Reg::T6,
                imm: 0,
            };
            let raw = encode(&i, &ext).unwrap();
            let back = mpise_sim::decode::decode(raw, &ext).unwrap();
            assert_eq!(back, i);
        }
    }

    #[test]
    fn executes_on_machine() {
        let ext = full_radix_ext();
        let mut a = Assembler::new();
        // a0 = maddlu(a1, a2, a3); a4 = maddhu(a1, a2, a3)
        a.custom_r4(MADDLU, Reg::A0, Reg::A1, Reg::A2, Reg::A3);
        a.custom_r4(MADDHU, Reg::A4, Reg::A1, Reg::A2, Reg::A3);
        a.custom_r4(CADD, Reg::A5, Reg::A1, Reg::A1, Reg::A3);
        a.ebreak();
        let mut m = Machine::with_ext(ext);
        m.load_program(&a.finish());
        m.cpu.write_reg(Reg::A1, u64::MAX);
        m.cpu.write_reg(Reg::A2, u64::MAX);
        m.cpu.write_reg(Reg::A3, 5);
        m.run().unwrap();
        let p = (u64::MAX as u128) * (u64::MAX as u128) + 5;
        assert_eq!(m.cpu.read_reg(Reg::A0), p as u64);
        assert_eq!(m.cpu.read_reg(Reg::A4), (p >> 64) as u64);
        // cadd: carry(MAX + MAX) = 1, + 5 = 6
        assert_eq!(m.cpu.read_reg(Reg::A5), 6);
    }

    #[test]
    fn textual_assembly_knows_the_mnemonics() {
        let ext = full_radix_ext();
        let p = mpise_sim::asm::parse_program(
            "maddlu a0, a1, a2, a3\nmaddhu a4, a1, a2, a3\ncadd a5, a6, a7, t0\nebreak\n",
            &ext,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
        let dis = p.disassemble(&ext);
        assert!(dis.contains("maddlu a0, a1, a2, a3"));
        assert!(dis.contains("cadd a5, a6, a7, t0"));
    }

    #[test]
    fn all_execute_in_one_cycle_on_xmul() {
        let ext = full_radix_ext();
        for d in ext.defs() {
            assert_eq!(d.unit, ExecUnit::Xmul, "{} must run on XMUL", d.mnemonic);
        }
    }
}
