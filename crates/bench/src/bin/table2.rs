//! Reproduces Table 2: examples of existing integer fused multiply-add
//! instructions on ARM and Intel AVX-512, with live conformance checks
//! of the executable reference models and a demonstration of the
//! AVX-512IFMA multiplier-saturation problem (§3.2).
//!
//! ```text
//! cargo run -p mpise-bench --bin table2
//! ```

use mpise_bench::rule;
use mpise_core::intrinsics::madd57lu;
use mpise_core::related::{
    arm_mla, arm_umaal, arm_umlal, avx512_vpmadd52huq, avx512_vpmadd52luq, ifma_saturates, Msa2,
    TABLE2,
};

fn main() {
    println!("Table 2: existing integer fused multiply-add instructions");
    println!("{}", rule(100));
    println!(
        "{:14} {:10} {:48} {:>8} {:>6} {:>5}",
        "Instruction", "ISA/ISE", "Computation", "Radix", "MSA2", "#src"
    );
    println!("{}", rule(100));
    for row in TABLE2 {
        println!(
            "{:14} {:10} {:48} {:>8} {:>6} {:>5}",
            row.instruction,
            row.isa,
            row.computation,
            row.radix.to_string(),
            if row.msa2 { "yes" } else { "no" },
            row.source_regs
        );
    }
    println!("{}", rule(100));

    // Live check: mla is MSA2 with j=0, m=2^64-1.
    let f = Msa2 { j: 0, m: u64::MAX };
    let (x, y, z) = (0xdead_beefu64, 0xcafe_f00du64, 42u64);
    assert_eq!(f.eval(x, y, z), arm_mla(x, y, z));
    println!("conformance: mla == MSA2(j=0, m=2^64-1) on sample inputs  [ok]");
    let m = u32::MAX;
    assert_eq!(arm_umaal(m, m, m, m), (m, m));
    println!("conformance: umaal(2^32-1, 2^32-1, 2^32-1, 2^32-1) = 2^64-1, never overflows  [ok]");
    assert_eq!(arm_umlal(0x8000_0000, 2, 1, 0), (1, 1));
    println!(
        "conformance: umlal(2^31, 2, rdLo=1, rdHi=0) = 2^32+1, the product carries into rdHi  [ok]"
    );

    // The saturation problem (motivates the paper's full 64-bit
    // multiplier for the reduced-radix ISE).
    let fat = (1u64 << 53) + 7; // a 52-bit limb grown by a delayed carry
    let b = 123_456_789u64;
    assert!(ifma_saturates(fat, b));
    let ifma_hi = avx512_vpmadd52huq(fat, b, 0);
    let true_hi = (((fat as u128 * b as u128) >> 52) as u64) & ((1 << 52) - 1);
    println!(
        "saturation:  vpmadd52huq({fat:#x}, {b:#x}) = {ifma_hi:#x}, true hi52 = {true_hi:#x}  [IFMA silently wrong]"
    );
    let true_lo52 = ((fat as u128 * b as u128) as u64) & ((1 << 52) - 1);
    assert_eq!(avx512_vpmadd52luq(fat, b, 0), true_lo52);
    println!("             vpmadd52luq on the same limbs is still exact: only the high half saturates  [ok]");
    let madd_lo = madd57lu(fat, b, 0);
    let true_lo57 = ((fat as u128 * b as u128) as u64) & ((1 << 57) - 1);
    assert_eq!(madd_lo, true_lo57);
    println!("             madd57lu on the same limbs is exact (full 64-bit multiplier)  [ok]");
}
