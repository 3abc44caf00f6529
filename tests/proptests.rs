//! Property-based tests over the whole stack (proptest).

use mpise::fp::{Fp, FpFull, FpRed};
use mpise::isa::intrinsics;
use mpise::mpi::fast::{fast_reduce_add, fast_reduce_swap, mod_add, mod_sub};
use mpise::mpi::mul::{mul_ps, square_ps};
use mpise::mpi::reduced::{mul_ps_slices_57, square_ps_slices_57, MASK};
use mpise::mpi::reference::RefInt;
use mpise::mpi::{Reduced, Uint, U512};
use mpise::sim::decode::decode;
use mpise::sim::encode::encode;
use mpise::sim::ext::IsaExtension;
use mpise::sim::inst::{
    AluImmOp, AluOp, Inst, ALU_IMM_OPS, ALU_OPS, BRANCH_OPS, LOAD_OPS, STORE_OPS,
};
use mpise::sim::Reg;
use proptest::prelude::*;

fn arb_u512() -> impl Strategy<Value = U512> {
    prop::array::uniform8(any::<u64>()).prop_map(U512::from_limbs)
}

fn arb_residue() -> impl Strategy<Value = U512> {
    arb_u512().prop_map(|v| {
        let p = mpise::fp::params::Csidh512::get().p;
        // Fold into [0, p): value mod p via the reference.
        let r = RefInt::from_limbs(v.limbs()).rem(&RefInt::from_limbs(p.limbs()));
        U512::from_limbs(r.to_limbs(8).try_into().expect("8 limbs"))
    })
}

/// Non-canonical residues in `[p, 2p)`: every value a correct
/// reduction step must fold, and a range the plain `arb_residue`
/// generator can never emit. `2p < 2^512`, so the addition is exact.
fn arb_noncanonical() -> impl Strategy<Value = U512> {
    arb_residue().prop_map(|v| {
        let p = mpise::fp::params::Csidh512::get().p;
        v.wrapping_add(&p)
    })
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|n| Reg::from_number(n).expect("in range"))
}

/// Any instruction the disassembler prints, custom ones from `ext`'s
/// definitions: a family, a table row or definition, four registers and
/// a value from which each family takes an in-range immediate.
fn arb_inst(ext: IsaExtension) -> impl Strategy<Value = Inst> {
    let defs = ext.defs().to_vec();
    let parts = (arb_reg(), arb_reg(), arb_reg(), arb_reg());
    ((0u8..13, any::<usize>()), parts, any::<i32>()).prop_map(
        move |((family, pick), (rd, rs1, rs2, rs3), v)| {
            let imm12 = v.rem_euclid(1 << 12) - (1 << 11);
            let imm20 = v.rem_euclid(1 << 20) - (1 << 19);
            match family {
                0 => Inst::Lui { rd, imm20 },
                1 => Inst::Auipc { rd, imm20 },
                2 => Inst::Jal {
                    rd,
                    offset: 2 * imm20,
                },
                3 => Inst::Jalr {
                    rd,
                    rs1,
                    offset: imm12,
                },
                4 => {
                    let op = BRANCH_OPS[pick % BRANCH_OPS.len()].0;
                    Inst::Branch {
                        op,
                        rs1,
                        rs2,
                        offset: 2 * imm12,
                    }
                }
                5 => {
                    let op = LOAD_OPS[pick % LOAD_OPS.len()].0;
                    Inst::Load {
                        op,
                        rd,
                        rs1,
                        offset: imm12,
                    }
                }
                6 => {
                    let op = STORE_OPS[pick % STORE_OPS.len()].0;
                    Inst::Store {
                        op,
                        rs1,
                        rs2,
                        offset: imm12,
                    }
                }
                7 => {
                    let op = ALU_IMM_OPS[pick % ALU_IMM_OPS.len()].0;
                    let imm = if op.is_shift() {
                        v.rem_euclid(1 << op.shamt_bits())
                    } else {
                        imm12
                    };
                    Inst::OpImm { op, rd, rs1, imm }
                }
                8 => Inst::Op {
                    op: ALU_OPS[pick % ALU_OPS.len()].0,
                    rd,
                    rs1,
                    rs2,
                },
                9 => Inst::Fence,
                10 => Inst::Ecall,
                11 => Inst::Ebreak,
                _ => {
                    let def = &defs[pick % defs.len()];
                    let (rs3, imm) = if def.format.has_rs3() {
                        (rs3, 0)
                    } else {
                        (Reg::Zero, v.rem_euclid(64) as u8)
                    };
                    Inst::Custom {
                        id: def.id,
                        rd,
                        rs1,
                        rs2,
                        rs3,
                        imm,
                    }
                }
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn multiplication_techniques_agree(a in arb_u512(), b in arb_u512()) {
        let wide =
            |(lo, hi): (U512, U512)| RefInt::from_limbs(&[*lo.limbs(), *hi.limbs()].concat());
        let ra = RefInt::from_limbs(a.limbs());
        prop_assert_eq!(wide(mul_ps(&a, &b)), ra.mul(&RefInt::from_limbs(b.limbs())));
        prop_assert_eq!(wide(square_ps(&a)), ra.mul(&ra));
    }

    #[test]
    fn fast_reduction_algorithms_agree(a in arb_residue(), extra in any::<bool>()) {
        let p = mpise::fp::params::Csidh512::get().p;
        // Input range [0, 2p): a or a + p.
        let x = if extra { a.wrapping_add(&p) } else { a };
        let r1 = fast_reduce_add(&x, &p);
        let r2 = fast_reduce_swap(&x, &p);
        prop_assert_eq!(r1, r2);
        prop_assert!(r1 < p);
    }

    #[test]
    fn modular_add_sub_invert(a in arb_residue(), b in arb_residue()) {
        let p = mpise::fp::params::Csidh512::get().p;
        let s = mod_add(&a, &b, &p);
        prop_assert!(s < p);
        prop_assert_eq!(mod_sub(&s, &b, &p), a);
    }

    #[test]
    fn noncanonical_imports_fold_modulo_p(x in arb_noncanonical()) {
        // Pinned behavior: `Fp::from_uint` reduces modulo p, so an
        // import from [p, 2p) is indistinguishable from its canonical
        // twin x − p, and the export is always canonical.
        let p = mpise::fp::params::Csidh512::get().p;
        let canon = x.wrapping_sub(&p);
        let ff = FpFull::new();
        prop_assert_eq!(ff.from_uint(&x), ff.from_uint(&canon));
        prop_assert!(ff.to_uint(&ff.from_uint(&x)) < p);
        let fr = FpRed::new();
        prop_assert_eq!(fr.from_uint(&x), fr.from_uint(&canon));
        prop_assert!(fr.to_uint(&fr.from_uint(&x)) < p);
    }

    #[test]
    fn fast_reduce_is_exact_on_noncanonical_inputs(x in arb_noncanonical()) {
        // Pinned behavior: on [p, 2p) both single-subtraction
        // reductions return exactly x − p (not merely "something
        // canonical"), and on [0, p) they are the identity.
        let p = mpise::fp::params::Csidh512::get().p;
        let folded = x.wrapping_sub(&p);
        prop_assert_eq!(fast_reduce_add(&x, &p), folded);
        prop_assert_eq!(fast_reduce_swap(&x, &p), folded);
        prop_assert_eq!(fast_reduce_add(&folded, &p), folded);
        prop_assert_eq!(fast_reduce_swap(&folded, &p), folded);
    }

    #[test]
    fn backends_agree_on_noncanonical_inputs(x in arb_noncanonical(), b in arb_residue()) {
        // Mixed canonical/non-canonical operands must not split the
        // radices apart: this was the adversarial-edge gap — the old
        // generators folded everything into [0, p) first.
        let ff = FpFull::new();
        let fr = FpRed::new();
        let m1 = ff.to_uint(&ff.mul(&ff.from_uint(&x), &ff.from_uint(&b)));
        let m2 = fr.to_uint(&fr.mul(&fr.from_uint(&x), &fr.from_uint(&b)));
        prop_assert_eq!(m1, m2);
        let s1 = ff.to_uint(&ff.add(&ff.from_uint(&x), &ff.from_uint(&b)));
        let s2 = fr.to_uint(&fr.add(&fr.from_uint(&x), &fr.from_uint(&b)));
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn reduced_radix_conversion_preserves_noncanonical_values(x in arb_noncanonical()) {
        // Pinned behavior: radix conversion is NOT reduction — a
        // 512-bit value in [p, 2p) survives the 9 × 57-bit round trip
        // bit-exactly (9 · 57 = 513 bits ≥ 512). Folding happens at
        // the field boundary, never inside the digit converter.
        let r: Reduced<9> = Reduced::from_uint(&x);
        prop_assert!(r.is_canonical());
        prop_assert_eq!(r.to_uint::<8>(), x);
    }

    #[test]
    fn field_axioms_full_radix(a in arb_residue(), b in arb_residue(), c in arb_residue()) {
        field_axioms(&FpFull::new(), a, b, c)?;
    }

    #[test]
    fn field_axioms_reduced_radix(a in arb_residue(), b in arb_residue(), c in arb_residue()) {
        field_axioms(&FpRed::new(), a, b, c)?;
    }

    #[test]
    fn backends_agree(a in arb_residue(), b in arb_residue()) {
        let ff = FpFull::new();
        let fr = FpRed::new();
        let m1 = ff.to_uint(&ff.mul(&ff.from_uint(&a), &ff.from_uint(&b)));
        let m2 = fr.to_uint(&fr.mul(&fr.from_uint(&a), &fr.from_uint(&b)));
        prop_assert_eq!(m1, m2);
    }

    #[test]
    fn reduced_radix_round_trip(a in arb_u512()) {
        let a = a.shr(1); // 511 bits fit 9 limbs of 57 bits
        let r: Reduced<9> = Reduced::from_uint(&a);
        prop_assert!(r.is_canonical());
        prop_assert_eq!(r.to_uint::<8>(), a);
    }

    #[test]
    fn madd_pairs_reassemble(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        let full = (x as u128) * (y as u128) + z as u128;
        let lo = intrinsics::maddlu(x, y, z) as u128;
        let hi = intrinsics::maddhu(x, y, z) as u128;
        prop_assert_eq!(full, (hi << 64) | lo);
        let p = (x as u128) * (y as u128);
        prop_assert_eq!(intrinsics::madd57lu(x, y, 0) as u128, p & ((1 << 57) - 1));
        prop_assert_eq!(intrinsics::madd57hu(x, y, 0) as u128, (p >> 57) & ((1u128 << 64) - 1));
    }

    #[test]
    fn instruction_encode_decode_round_trip(
        rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(),
        imm in -2048i32..=2047, shamt in 0i32..64,
    ) {
        let ext = IsaExtension::new("none");
        let insts = [
            Inst::Op { op: AluOp::Add, rd, rs1, rs2 },
            Inst::Op { op: AluOp::Mulhu, rd, rs1, rs2 },
            Inst::Op { op: AluOp::Sltu, rd, rs1, rs2 },
            Inst::OpImm { op: AluImmOp::Addi, rd, rs1, imm },
            Inst::OpImm { op: AluImmOp::Srai, rd, rs1, imm: shamt },
            Inst::Load { op: mpise::sim::inst::LoadOp::Ld, rd, rs1, offset: imm },
            Inst::Store { op: mpise::sim::inst::StoreOp::Sd, rs1, rs2, offset: imm },
        ];
        for inst in insts {
            let raw = encode(&inst, &ext).expect("encodes");
            prop_assert_eq!(decode(raw, &ext).expect("decodes"), inst);
        }
    }

    #[test]
    fn ise_encode_decode_round_trip(
        rd in arb_reg(), rs1 in arb_reg(), rs2 in arb_reg(), rs3 in arb_reg(),
        imm in 0u8..64,
    ) {
        for ext in [mpise::isa::full_radix_ext(), mpise::isa::reduced_radix_ext()] {
            for def in ext.defs().to_vec() {
                let inst = if def.format.has_rs3() {
                    Inst::Custom { id: def.id, rd, rs1, rs2, rs3, imm: 0 }
                } else {
                    Inst::Custom { id: def.id, rd, rs1, rs2, rs3: Reg::Zero, imm }
                };
                let raw = encode(&inst, &ext).expect("encodes");
                prop_assert_eq!(decode(raw, &ext).expect("decodes"), inst);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn binary_gcd_inverse_matches_fermat(a in arb_residue()) {
        // `Fp::inv` (Fermat) against the independent reference integers:
        // a · a⁻¹ ≡ 1 (mod p).
        prop_assume!(!a.is_zero());
        let p = RefInt::from_limbs(mpise::fp::params::Csidh512::get().p.limbs());
        let f = FpFull::new();
        let inv = f.to_uint(&f.inv(&f.from_uint(&a)));
        let product = RefInt::from_limbs(a.limbs()).mulmod(&RefInt::from_limbs(inv.limbs()), &p);
        prop_assert_eq!(product, RefInt::one());
    }

    #[test]
    fn sqrt_round_trip(a in arb_residue()) {
        let f = FpRed::new();
        let x = f.from_uint(&a);
        let sq = f.sqr(&x);
        let r = f.sqrt(&sq).expect("squares have roots");
        prop_assert!(f.sqr(&r) == sq);
    }

    #[test]
    fn disassemble_reparse_round_trip(
        full in prop::collection::vec(arb_inst(mpise::isa::full_radix_ext()), 1..24),
        reduced in prop::collection::vec(arb_inst(mpise::isa::reduced_radix_ext()), 1..24),
    ) {
        // Random programs of every instruction family survive
        // disassemble -> parse.
        for (ext, insts) in [
            (mpise::isa::full_radix_ext(), full),
            (mpise::isa::reduced_radix_ext(), reduced),
        ] {
            let p = mpise::sim::asm::Program::from_insts(insts);
            let text: String = p
                .disassemble(&ext)
                .lines()
                .map(|l| l.split(": ").nth(1).unwrap().to_owned() + "\n")
                .collect();
            let p2 = mpise::sim::asm::parse_program(&text, &ext).expect("reparses");
            prop_assert_eq!(p, p2);
        }
    }

    #[test]
    fn integrated_matches_separated_montgomery(a in arb_residue(), b in arb_residue()) {
        check_integrated_full(a, b)?;
        check_integrated_57(Reduced::from_uint(&a), Reduced::from_uint(&b))?;
    }
}

/// The integrated Montgomery mul/sqr on fixed operands: 0, 1, `R mod p`,
/// `p − 1`, and in radix 2^57 the operand whose limbs below the top one
/// are all 2^57 − 1.
#[test]
fn integrated_montgomery_edge_operands() {
    let c = mpise::fp::params::Csidh512::get();
    let pm1 = c.p.wrapping_sub(&U512::ONE);
    let full = [U512::ZERO, U512::ONE, *c.mont.one(), pm1];
    for a in full {
        for b in full {
            check_integrated_full(a, b).unwrap();
        }
    }
    let pm1 = Reduced::<9>::from_uint(&pm1);
    let mut ones = [MASK; 9];
    ones[8] = pm1.limb(8);
    let reduced = [
        Reduced::ZERO,
        Reduced::ONE,
        *c.mont57.one(),
        pm1,
        Reduced::from_limbs(ones),
    ];
    for a in reduced {
        for b in reduced {
            check_integrated_57(a, b).unwrap();
        }
    }
}

/// `mont.mul`/`sqr` equal `redc` of the separated `mul_ps`/`square_ps`.
fn check_integrated_full(a: U512, b: U512) -> Result<(), TestCaseError> {
    let ctx = &mpise::fp::params::Csidh512::get().mont;
    let (lo, hi) = mul_ps(&a, &b);
    prop_assert_eq!(ctx.mul(&a, &b), ctx.redc(&lo, &hi));
    let (lo, hi) = square_ps(&a);
    prop_assert_eq!(ctx.sqr(&a), ctx.redc(&lo, &hi));
    Ok(())
}

/// `mont57.mul`/`sqr` equal `redc` of the separated
/// `mul_ps_slices_57`/`square_ps_slices_57`.
fn check_integrated_57(a: Reduced<9>, b: Reduced<9>) -> Result<(), TestCaseError> {
    let ctx = &mpise::fp::params::Csidh512::get().mont57;
    let mut t = [[0u64; 9]; 2];
    mul_ps_slices_57(a.limbs(), b.limbs(), t.as_flattened_mut());
    prop_assert_eq!(ctx.mul(&a, &b), ctx.redc(t.as_flattened()));
    square_ps_slices_57(a.limbs(), t.as_flattened_mut());
    prop_assert_eq!(ctx.sqr(&a), ctx.redc(t.as_flattened()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn redc_full_radix_matches_reference(lo in arb_u512(), hi in arb_residue()) {
        // hi < p, so t = hi·2^512 + lo < p·R.
        check_redc_full(lo, hi)?;
    }

    #[test]
    fn redc_reduced_radix_matches_reference(
        lo in prop::array::uniform9(0..=MASK),
        hi in arb_residue(),
    ) {
        // hi < p, so t = hi·2^513 + lo < p·R in radix 2^57.
        check_redc_57([lo, *Reduced::<9>::from_uint(&hi).limbs()])?;
    }
}

/// The inputs that used to take the data-dependent carry ripple in the
/// full-radix redc: an all-ones low half under a maximal high half, and
/// the largest product of two residues.
#[test]
fn redc_full_radix_carry_worst_cases() {
    let pm1 = mpise::fp::params::Csidh512::get()
        .p
        .wrapping_sub(&U512::ONE);
    let (sq_lo, sq_hi) = mul_ps(&pm1, &pm1);
    for (lo, hi) in [(U512::MAX, pm1), (sq_lo, sq_hi), (U512::MAX, U512::ZERO)] {
        check_redc_full(lo, hi).unwrap();
    }
}

/// Radix-2^57 counterparts: every low limb at 2^57 − 1 under p − 1,
/// (p − 1)², and products of an operand whose limbs below the top one
/// are all 2^57 − 1.
#[test]
fn redc_reduced_radix_carry_worst_cases() {
    let p = mpise::fp::params::Csidh512::get().p;
    let pm1 = Reduced::<9>::from_uint(&p.wrapping_sub(&U512::ONE));
    let mut ones = [MASK; 9];
    ones[8] = pm1.limb(8);
    let product = |a: &Reduced<9>, b: &Reduced<9>| {
        let mut t = [[0u64; 9]; 2];
        mul_ps_slices_57(a.limbs(), b.limbs(), t.as_flattened_mut());
        t
    };
    let ones = Reduced::from_limbs(ones);
    for t in [
        [[MASK; 9], *pm1.limbs()],
        product(&pm1, &pm1),
        product(&ones, &ones),
        product(&ones, &pm1),
    ] {
        check_redc_57(t).unwrap();
    }
}

/// Checks that `r` is `t·2^(-r_bits) mod p`: `r < p` and
/// `r·2^r_bits ≡ t (mod p)`.
fn check_redc(r: &RefInt, t: &RefInt, r_bits: usize) -> Result<(), TestCaseError> {
    let p = RefInt::from_limbs(mpise::fp::params::Csidh512::get().p.limbs());
    prop_assert!(r.cmp_ref(&p).is_lt(), "redc result not canonical");
    prop_assert_eq!(r.shl(r_bits).rem(&p), t.rem(&p));
    Ok(())
}

fn check_redc_full(lo: U512, hi: U512) -> Result<(), TestCaseError> {
    let r = mpise::fp::params::Csidh512::get().mont.redc(&lo, &hi);
    let t = RefInt::from_limbs(hi.limbs())
        .shl(512)
        .add(&RefInt::from_limbs(lo.limbs()));
    check_redc(&RefInt::from_limbs(r.limbs()), &t, 512)
}

fn check_redc_57(t: [[u64; 9]; 2]) -> Result<(), TestCaseError> {
    let r = mpise::fp::params::Csidh512::get()
        .mont57
        .redc(t.as_flattened());
    prop_assert!(r.is_canonical());
    let r = RefInt::from_limbs(r.to_uint::<9>().limbs());
    let wide: Uint<17> = Reduced::<18>::from_limbs(t.as_flattened().try_into().unwrap()).to_uint();
    check_redc(&r, &RefInt::from_limbs(wide.limbs()), 513)
}

fn field_axioms<F: Fp>(f: &F, a: U512, b: U512, c: U512) -> Result<(), TestCaseError> {
    let (ea, eb, ec) = (f.from_uint(&a), f.from_uint(&b), f.from_uint(&c));
    // Commutativity.
    prop_assert_eq!(f.to_uint(&f.mul(&ea, &eb)), f.to_uint(&f.mul(&eb, &ea)));
    prop_assert_eq!(f.to_uint(&f.add(&ea, &eb)), f.to_uint(&f.add(&eb, &ea)));
    // Associativity.
    let l = f.mul(&f.mul(&ea, &eb), &ec);
    let r = f.mul(&ea, &f.mul(&eb, &ec));
    prop_assert_eq!(f.to_uint(&l), f.to_uint(&r));
    // Distributivity.
    let l = f.mul(&ea, &f.add(&eb, &ec));
    let r = f.add(&f.mul(&ea, &eb), &f.mul(&ea, &ec));
    prop_assert_eq!(f.to_uint(&l), f.to_uint(&r));
    // Identities.
    prop_assert_eq!(f.to_uint(&f.mul(&ea, &f.one())), f.to_uint(&ea));
    prop_assert_eq!(f.to_uint(&f.add(&ea, &f.zero())), f.to_uint(&ea));
    // Inverses (multiplicative, when nonzero).
    if !f.is_zero(&ea) {
        prop_assert_eq!(f.to_uint(&f.mul(&ea, &f.inv(&ea))), U512::ONE);
    }
    prop_assert!(f.is_zero(&f.add(&ea, &f.neg(&ea))));
    Ok(())
}
