//! The reproduction's success criteria: each claim of the paper's
//! tables, listings and ablations, judged by the one check function
//! its binary and CI run as well.

use mpise::fp::kernels::ablation::int_mul_cycles;
use mpise::fp::kernels::mac::{check_counts, SNIPPETS};
use mpise::fp::kernels::{Config, OpKind};
use mpise::fp::measure::OpMeasurement;
use mpise::hw::depth::{check_xmul_depths, xmul_depths};
use mpise::hw::table3;
use mpise::isa::{full_radix_ext, reduced_radix_ext};
use mpise_analyze::lint::lint_extension;
use mpise_bench::pipeline::{
    check_gate, cycles_of, estimate_actions, instrument_action, kernel_matrix, ActionEstimate,
};
use std::sync::OnceLock;

type Table4Inputs = (Vec<(Config, Vec<OpMeasurement>)>, Vec<ActionEstimate>);

/// One measurement of the four configurations, shared by the Table 4
/// tests.
fn table4_inputs() -> &'static Table4Inputs {
    static INPUTS: OnceLock<Table4Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let matrix = kernel_matrix(2);
        let estimates = estimate_actions(&matrix, &instrument_action(1));
        (matrix, estimates)
    })
}

#[test]
fn table1_design_guidelines() {
    // Three instructions per set; R4 for all of the full-radix set and
    // for the reduced-radix multiply-adds, `sraiadd` two-source.
    for (ext, r4) in [(full_radix_ext(), 3), (reduced_radix_ext(), 2)] {
        let report = lint_extension(&ext);
        assert!(report.findings.is_empty(), "{}", report.render());
        let formats = ext.defs().iter().map(|d| d.format.has_rs3());
        assert_eq!((ext.defs().len(), formats.filter(|&r| r).count()), (3, r4));
    }
}

#[test]
fn table3_shape() {
    assert_eq!(table3().check(), Ok(()));
}

#[test]
fn table4_shape() {
    let (matrix, estimates) = table4_inputs();
    assert_eq!(check_gate(matrix, estimates), Ok(()));
}

#[test]
fn table4_speedup_band() {
    // The Fp-mul speedup bands (1.2–2.2× full, 1.5–2.6× reduced) hold
    // on the measurement, and an ISE Fp-mul slowed to the ISA-only
    // cost falls out of both.
    let (matrix, estimates) = table4_inputs();
    let verdict = check_gate(matrix, estimates).err().unwrap_or_default();
    assert!(!verdict.contains("Fp-mul speedup"), "{verdict}");
    let base = cycles_of(matrix, Config::ALL[0], OpKind::FpMul);
    let mut slow = matrix.clone();
    for ise in [1, 3] {
        let fp_mul = slow[ise].1.iter_mut().find(|m| m.op == OpKind::FpMul);
        fp_mul.expect("measured").cycles = base;
    }
    let err = check_gate(&slow, estimates).unwrap_err();
    for what in ["full-ISE", "reduced-ISE"] {
        let band = format!("{what} Fp-mul speedup 1.00 outside");
        assert!(err.contains(&band), "{err}");
    }
}

#[test]
fn listings_instruction_counts() {
    assert_eq!(check_counts(&SNIPPETS), Ok(()));
}

#[test]
fn multiplication_technique_ablation() {
    for config in [Config::ALL[0], Config::ALL[1]] {
        assert_eq!(int_mul_cycles(config).check(), Ok(()));
    }
}

#[test]
fn xmul_critical_path() {
    assert_eq!(check_xmul_depths(&xmul_depths()), Ok(()));
}
