//! The reduced-radix ISE: `madd57lu`, `madd57hu`, `sraiadd`
//! (Figures 2 and 3).
//!
//! `madd57lu`/`madd57hu` share the custom-3 opcode of the full-radix set
//! (funct2 = `10`/`11`); `sraiadd` uses the custom-1 opcode `0b0101011`
//! with a 6-bit shift amount embedded at bits 30:25 and bit 31 fixed
//! to 1.
//!
//! The paper's two ISE sets are *alternatives* (a deployment implements
//! one representation), so `madd57lu` reusing `cadd`'s encoding point is
//! intentional — see `tests::encoding_overlap_with_full_radix_is_by_design`.

use crate::intrinsics;
use mpise_sim::ext::{self, CustomFormat, CustomId, CustomInstDef, ExecUnit, IsaExtension};

/// Major opcode of `sraiadd` (RISC-V custom-1 space).
pub(crate) const CUSTOM1_OPCODE: u8 = 0b0101011;

/// Stable id of `madd57lu`.
pub const MADD57LU: CustomId = CustomId(4);
/// Stable id of `madd57hu`.
pub const MADD57HU: CustomId = CustomId(5);
/// Stable id of `sraiadd`.
pub const SRAIADD: CustomId = CustomId(6);

fn exec_madd57lu(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
    intrinsics::madd57lu(rs1, rs2, rs3)
}

fn exec_madd57hu(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
    intrinsics::madd57hu(rs1, rs2, rs3)
}

/// `madd57hu` then `madd57lu` on one `rs1 × rs2` (Listing 4): both
/// parts of one product, each with its own addend.
fn exec_madd57hu_madd57lu(rs1: u64, rs2: u64, rs3a: u64, rs3b: u64) -> (u64, u64) {
    (
        intrinsics::madd57hu(rs1, rs2, rs3a),
        intrinsics::madd57lu(rs1, rs2, rs3b),
    )
}

/// The pair's chain executor: a run of [`exec_madd57hu_madd57lu`] pairs on one
/// accumulator pair, with the pair inlined into the loop.
fn chain_madd57hu_madd57lu(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> (u64, u64) {
    ext::run_chain(exec_madd57hu_madd57lu, regs, srcs, h, l)
}

fn exec_sraiadd(rs1: u64, rs2: u64, _: u64, imm: u8) -> u64 {
    intrinsics::sraiadd(rs1, rs2, u32::from(imm))
}

/// Builds the reduced-radix ISE as a pluggable extension.
///
/// The MACs execute on XMUL; `sraiadd` is a shift-and-add and executes
/// on the XMUL unit as well (§3.3 routes all custom instructions
/// through the extended multiplier). `madd57hu` followed by `madd57lu`
/// is registered as a pair, with its chain executor, so the simulator
/// runs the two parts of a MAC from one product and a chain of MACs in
/// one call.
///
/// # Examples
///
/// ```
/// use mpise_core::reduced_radix_ext;
/// use mpise_sim::Machine;
/// let m = Machine::with_ext(reduced_radix_ext());
/// assert!(m.ext().by_mnemonic("sraiadd").is_some());
/// ```
pub fn reduced_radix_ext() -> IsaExtension {
    let mut e = IsaExtension::new("Xmpimacred");
    let defs = [
        CustomInstDef {
            id: MADD57LU,
            mnemonic: "madd57lu",
            format: CustomFormat::R4 {
                opcode: crate::full_radix::CUSTOM3_OPCODE,
                funct3: crate::full_radix::ISE_FUNCT3,
                funct2: 0b10,
            },
            exec: exec_madd57lu,
            unit: ExecUnit::Xmul,
        },
        CustomInstDef {
            id: MADD57HU,
            mnemonic: "madd57hu",
            format: CustomFormat::R4 {
                opcode: crate::full_radix::CUSTOM3_OPCODE,
                funct3: crate::full_radix::ISE_FUNCT3,
                funct2: 0b11,
            },
            exec: exec_madd57hu,
            unit: ExecUnit::Xmul,
        },
        CustomInstDef {
            id: SRAIADD,
            mnemonic: "sraiadd",
            format: CustomFormat::RShamt {
                opcode: CUSTOM1_OPCODE,
                funct3: crate::full_radix::ISE_FUNCT3,
                bit31: true,
            },
            exec: exec_sraiadd,
            unit: ExecUnit::Xmul,
        },
    ];
    for d in defs {
        e.define(d)
            .expect("reduced-radix ISE definitions are conflict-free");
    }
    e.define_pair(MADD57HU, MADD57LU, chain_madd57hu_madd57lu);
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::encode::encode;
    use mpise_sim::inst::Inst;
    use mpise_sim::{Assembler, Machine, Reg};

    #[test]
    fn encodings_match_figure_2_and_3() {
        let ext = reduced_radix_ext();
        for (id, f2) in [(MADD57LU, 0b10u32), (MADD57HU, 0b11)] {
            let i = Inst::Custom {
                id,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
                rs3: Reg::A3,
                imm: 0,
            };
            let raw = encode(&i, &ext).unwrap();
            assert_eq!(raw & 0x7f, 0b1111011);
            assert_eq!((raw >> 25) & 0x3, f2);
        }
        // sraiadd t0, t1, t2, 57
        let i = Inst::Custom {
            id: SRAIADD,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
            rs3: Reg::Zero,
            imm: 57,
        };
        let raw = encode(&i, &ext).unwrap();
        assert_eq!(raw & 0x7f, 0b0101011);
        assert_eq!(raw >> 31, 1);
        assert_eq!((raw >> 25) & 0x3f, 57);
    }

    #[test]
    fn decode_round_trip() {
        let ext = reduced_radix_ext();
        for (id, imm) in [(MADD57LU, 0u8), (MADD57HU, 0), (SRAIADD, 41)] {
            let rs3 = if id == SRAIADD { Reg::Zero } else { Reg::S11 };
            let i = Inst::Custom {
                id,
                rd: Reg::T4,
                rs1: Reg::A6,
                rs2: Reg::A7,
                rs3,
                imm,
            };
            let raw = encode(&i, &ext).unwrap();
            assert_eq!(mpise_sim::decode::decode(raw, &ext).unwrap(), i);
        }
    }

    #[test]
    fn executes_on_machine() {
        let ext = reduced_radix_ext();
        let mut a = Assembler::new();
        a.custom_r4(MADD57LU, Reg::A0, Reg::A1, Reg::A2, Reg::A3);
        a.custom_r4(MADD57HU, Reg::A4, Reg::A1, Reg::A2, Reg::A3);
        a.custom_shamt(SRAIADD, Reg::A5, Reg::A3, Reg::A1, 57);
        a.ebreak();
        let mut m = Machine::with_ext(ext);
        m.load_program(&a.finish());
        let x = (1u64 << 57) - 1;
        let y = (1u64 << 57) - 2;
        m.cpu.write_reg(Reg::A1, x);
        m.cpu.write_reg(Reg::A2, y);
        m.cpu.write_reg(Reg::A3, 7);
        m.run().unwrap();
        let p = (x as u128) * (y as u128);
        assert_eq!(m.cpu.read_reg(Reg::A0), ((p as u64) & ((1 << 57) - 1)) + 7);
        assert_eq!(m.cpu.read_reg(Reg::A4), ((p >> 57) as u64) + 7);
        assert_eq!(m.cpu.read_reg(Reg::A5), 7 + (x >> 57)); // x >= 0
    }

    #[test]
    fn carry_propagation_sequence_matches_isa_only() {
        // ISA-only: srai z, x, 57; add y, y, z; and x, x, m
        // ISE:      sraiadd y, y, x, 57; and x, x, m
        let mask = (1u64 << 57) - 1;
        for (x, y) in [(0u64, 0u64), ((5 << 57) | 123, 77), (u64::MAX, 1)] {
            let z = ((x as i64) >> 57) as u64;
            let y_isa = y.wrapping_add(z);
            let y_ise = crate::intrinsics::sraiadd(y, x, 57);
            assert_eq!(y_isa, y_ise);
            let _ = x & mask; // both variants mask x identically
        }
    }

    #[test]
    fn encoding_overlap_with_full_radix_is_by_design() {
        use crate::full_radix::{full_radix_ext, CADD};
        // madd57lu and cadd deliberately share funct2=10 on custom-3:
        // the two ISE sets are mutually exclusive deployments.
        let red = reduced_radix_ext();
        let full = full_radix_ext();
        let i_red = Inst::Custom {
            id: MADD57LU,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            rs3: Reg::A3,
            imm: 0,
        };
        let i_full = Inst::Custom {
            id: CADD,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            rs3: Reg::A3,
            imm: 0,
        };
        assert_eq!(
            encode(&i_red, &red).unwrap(),
            encode(&i_full, &full).unwrap()
        );
        // Consequently the two sets cannot be merged into one machine.
        let mut both = full_radix_ext();
        assert!(both.merge(&reduced_radix_ext()).is_err());
    }
}
