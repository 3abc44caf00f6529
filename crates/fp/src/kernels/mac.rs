//! The four MAC micro-kernels of Listings 1–4 and the two
//! carry-propagation sequences of §3.2, as standalone programs.
//!
//! Each snippet is emitted by the very generator the Table 4 kernels
//! call for their inner loops (`full::mac`, `red::mac`,
//! `red::propagate`), so the paper's instruction counts ([`SNIPPETS`],
//! judged by [`check_counts`]) hold for the code the kernels run. The
//! snippets also measure the latency of each sequence in isolation.

use super::{full, red};
use mpise_core::{full_radix_ext, reduced_radix_ext};
use mpise_sim::asm::{Assembler, Program};
use mpise_sim::ext::IsaExtension;
use mpise_sim::Reg;

/// One snippet of Listings 1–4 or §3.2: its row label (a listing's is
/// `Listing N: …`), builder, extension, and the paper's instruction
/// count.
pub type Snippet = (&'static str, fn() -> Program, fn() -> IsaExtension, usize);

fn rv64im() -> IsaExtension {
    IsaExtension::new("rv64im")
}

/// The snippets of Listings 1–4 and §3.2, one per row.
#[rustfmt::skip]
pub const SNIPPETS: [Snippet; 6] = [
    ("Listing 1: full-radix MAC, ISA-only", listing1_full_isa, rv64im, 8),
    ("Listing 2: reduced-radix MAC, ISA-only", listing2_red_isa, rv64im, 6),
    ("Listing 3: full-radix MAC, ISE", listing3_full_ise, full_radix_ext, 4),
    ("Listing 4: reduced-radix MAC, ISE", listing4_red_ise, reduced_radix_ext, 2),
    ("carry propagation, ISA-only", carry_prop_isa, rv64im, 3),
    ("carry propagation, ISE (sraiadd)", carry_prop_ise, reduced_radix_ext, 2),
];

/// The Listings 1–4 claim: every snippet has the paper's instruction
/// count.
///
/// # Errors
///
/// Returns every mismatch, `; `-separated.
pub fn check_counts(snippets: &[Snippet]) -> Result<(), String> {
    let mismatches: Vec<String> = snippets
        .iter()
        .filter_map(|&(name, build, _, paper)| {
            let got = build().len();
            (got != paper).then(|| format!("{name}: {got} instructions, the paper has {paper}"))
        })
        .collect();
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    }
}

/// Operand/accumulator register convention shared by all MAC snippets:
/// `a = a0`, `b = a1`, `l = a2`, `h = a3`, `e = a4`; temporaries
/// `y = a5`, `z = a6`.
pub const A: Reg = Reg::A0;
/// Second multiplicand.
pub const B: Reg = Reg::A1;
/// Accumulator low word.
pub(crate) const ACC_L: Reg = Reg::A2;
/// Accumulator high word.
pub(crate) const ACC_H: Reg = Reg::A3;
/// Accumulator extra word (full-radix only).
pub(crate) const ACC_E: Reg = Reg::A4;
const Y: Reg = Reg::A5;
const Z: Reg = Reg::A6;

fn snippet(emit: impl FnOnce(&mut Assembler)) -> Program {
    let mut asm = Assembler::new();
    emit(&mut asm);
    asm.finish()
}

/// Listing 1: ISA-only full-radix MAC,
/// `(e ‖ h ‖ l) ← (e ‖ h ‖ l) + a·b`.
pub(crate) fn listing1_full_isa() -> Program {
    snippet(|a| full::mac(a, false, [ACC_L, ACC_H, ACC_E], A, B, Y, Z))
}

/// Listing 2: ISA-only reduced-radix MAC,
/// `(h ‖ l) ← (h ‖ l) + a·b`.
pub(crate) fn listing2_red_isa() -> Program {
    snippet(|a| red::mac(a, false, ACC_L, ACC_H, A, B, Y, Z))
}

/// Listing 3: ISE-supported full-radix MAC.
pub(crate) fn listing3_full_ise() -> Program {
    snippet(|a| full::mac(a, true, [ACC_L, ACC_H, ACC_E], A, B, Y, Z))
}

/// Listing 4: ISE-supported reduced-radix MAC.
pub(crate) fn listing4_red_ise() -> Program {
    snippet(|a| red::mac(a, true, ACC_L, ACC_H, A, B, Y, Z))
}

/// ISA-only carry propagation from limb `x = a0` into limb `y = a1`
/// with mask register `m = a2`: `srai z,x,57 ; add y,y,z ; and x,x,m`.
pub(crate) fn carry_prop_isa() -> Program {
    snippet(|a| red::propagate(a, false, &[Reg::A0, Reg::A1], Reg::A2, Z))
}

/// ISE-supported carry propagation:
/// `sraiadd y,y,x,57 ; and x,x,m`.
pub(crate) fn carry_prop_ise() -> Program {
    snippet(|a| red::propagate(a, true, &[Reg::A0, Reg::A1], Reg::A2, Z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::Machine;

    fn run_mac(prog: &Program, ext: IsaExtension, regs: &[(Reg, u64)]) -> Machine {
        // Append an ebreak so the machine halts after the snippet.
        let mut insts = prog.insts().to_vec();
        insts.push(mpise_sim::Inst::Ebreak);
        let mut m = Machine::with_ext(ext);
        m.load_program(&Program::from_insts(insts));
        for &(r, v) in regs {
            m.cpu.write_reg(r, v);
        }
        m.run().unwrap();
        m
    }

    #[test]
    fn a_changed_paper_count_fails_the_check() {
        let mut snippets = SNIPPETS;
        snippets[3].3 = 1;
        let err = check_counts(&snippets).expect_err("Listing 4 has two instructions");
        assert_eq!(
            err,
            "Listing 4: reduced-radix MAC, ISE: 2 instructions, the paper has 1"
        );
    }

    #[test]
    fn listing1_and_listing3_agree() {
        let cases = [
            (3u64, 4u64, 5u64, 6u64, 7u64),
            (u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0),
            (0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef, 1, 2, 3),
        ];
        for (av, bv, l0, h0, e0) in cases {
            let regs = [(A, av), (B, bv), (ACC_L, l0), (ACC_H, h0), (ACC_E, e0)];
            let m1 = run_mac(&listing1_full_isa(), rv64im(), &regs);
            let m3 = run_mac(&listing3_full_ise(), full_radix_ext(), &regs);
            for r in [ACC_L, ACC_H, ACC_E] {
                assert_eq!(m1.cpu.read_reg(r), m3.cpu.read_reg(r), "reg {r}");
            }
        }
    }

    #[test]
    fn listing2_and_listing4_agree_on_aligned_view() {
        // Listing 2 accumulates (h||l) as a 128-bit value; Listing 4
        // keeps l as "sum of low-57 parts" and h as "sum of >>57
        // parts". Their *values* agree: l4 + (h4 << 57) == l2 + (h2<<64).
        let a = (1u64 << 57) - 3;
        let b = (1u64 << 56) + 12345;
        let (l0, h0) = (99u64, 7u64);
        let regs2 = [(A, a), (B, b), (ACC_L, l0), (ACC_H, h0)];
        let m2 = run_mac(&listing2_red_isa(), rv64im(), &regs2);
        // For the aligned comparison give listing 4 the same starting
        // value expressed in its representation: l = l0, h = h0<<7
        // (h0 counts 2^64 units = 2^7 units of 2^57).
        let regs4 = [(A, a), (B, b), (ACC_L, l0), (ACC_H, h0 << 7)];
        let m4 = run_mac(&listing4_red_ise(), reduced_radix_ext(), &regs4);
        let v2 = (m2.cpu.read_reg(ACC_H) as u128) << 64 | m2.cpu.read_reg(ACC_L) as u128;
        let v4 = ((m4.cpu.read_reg(ACC_H) as u128) << 57) + m4.cpu.read_reg(ACC_L) as u128;
        assert_eq!(v2, v4);
    }

    #[test]
    fn carry_props_agree() {
        let x = (5u64 << 57) | 0x1234;
        let y = 77u64;
        let mask = (1u64 << 57) - 1;
        let mi = run_mac(
            &carry_prop_isa(),
            rv64im(),
            &[(Reg::A0, x), (Reg::A1, y), (Reg::A2, mask)],
        );
        let me = run_mac(
            &carry_prop_ise(),
            reduced_radix_ext(),
            &[(Reg::A0, x), (Reg::A1, y), (Reg::A2, mask)],
        );
        assert_eq!(mi.cpu.read_reg(Reg::A0), me.cpu.read_reg(Reg::A0));
        assert_eq!(mi.cpu.read_reg(Reg::A1), me.cpu.read_reg(Reg::A1));
        assert_eq!(mi.cpu.read_reg(Reg::A1), 77 + 5);
        assert_eq!(mi.cpu.read_reg(Reg::A0), 0x1234);
    }
}
