//! The reproduction's success criteria: each claim of the paper's
//! tables, listings and ablations, judged by the one check function
//! its binary and CI run as well.

use mpise::fp::kernels::ablation::int_mul_cycles;
use mpise::fp::kernels::mac::{check_counts, SNIPPETS};
use mpise::fp::kernels::{Config, OpKind};
use mpise::hw::depth::{check_xmul_depths, xmul_depths};
use mpise::hw::table3;
use mpise::isa::{full_radix_ext, reduced_radix_ext};
use mpise_analyze::lint::lint_extension;
use mpise_bench::pipeline::{check_gate, cycles_of, run_pipeline, BenchOptions, BenchReport};
use std::sync::OnceLock;

/// One smoke-sized `bench` run — the kernel matrix, the bound-1 action
/// estimate and its direct simulation on all four configurations —
/// shared by the Table 4 tests.
fn table4_report() -> &'static BenchReport {
    static REPORT: OnceLock<BenchReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        run_pipeline(BenchOptions {
            smoke: true,
            ..BenchOptions::default()
        })
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
    // Every claim, including each configuration's direct simulation
    // spending exactly its estimated cycles.
    let report = table4_report();
    assert_eq!(report.action_sims.len(), Config::ALL.len());
    assert_eq!(report.gate, Ok(()));
}

#[test]
fn table4_speedup_band() {
    // The Fp-mul speedup bands (1.2–2.2× full, 1.5–2.6× reduced) hold
    // on the measurement, and an ISE Fp-mul slowed to the ISA-only
    // cost falls out of both.
    let report = table4_report();
    let (matrix, estimates) = (&report.matrix, &report.action_estimates);
    let verdict = report.gate.clone().err().unwrap_or_default();
    assert!(!verdict.contains("Fp-mul speedup"), "{verdict}");
    let base = cycles_of(matrix, Config::ALL[0], OpKind::FpMul);
    let mut slow = matrix.clone();
    for ise in [1, 3] {
        let fp_mul = slow[ise].1.iter_mut().find(|m| m.op == OpKind::FpMul);
        fp_mul.expect("measured").cycles = base;
    }
    let err = check_gate(&slow, estimates, &[]).unwrap_err();
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
