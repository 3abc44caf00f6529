//! `ctcheck` — the repository's constant-time gate.
//!
//! Runs the two static passes of `mpise-analyze` over everything this
//! repository ships and prints a per-kernel PASS/FAIL report:
//!
//! 1. **ISA encoding lint** of both Table 1 extensions (encoding
//!    contract, base-opcode collisions, encode→decode round-trips);
//! 2. **secret-taint analysis** of all 32 generated kernels (4
//!    configurations × 8 operations) under the kernel ABI threat model
//!    (operands secret; constants, pointers and code public);
//! 3. **constant-work check** of the dummy-isogeny group action on the
//!    host backend (`real + dummy == NUM_PRIMES × budget` for disparate
//!    keys);
//! 4. a **negative fixture** — a deliberately leaky program branching
//!    on a secret limb — which must FAIL with the offending
//!    pc/instruction, proving the analysis actually bites.
//!
//! [`check`] returns `Ok` — and the binary exits 0 — only if every
//! positive check passes *and* the negative fixture is caught; a unit
//! test requires the same, so `cargo test` runs the gate too.

use mpise_analyze::lint::lint_extension;
use mpise_analyze::taint::{analyze_program, Secrecy, TaintSpec};
use mpise_analyze::ViolationKind;
use mpise_csidh::ct_action::{group_action_ct, CtPrivateKey};
use mpise_csidh::PublicKey;
use mpise_fp::ctspec::verify_kernel;
use mpise_fp::kernels::{Config, OpKind};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::FpFull;
use mpise_sim::asm::Program;
use mpise_sim::ext::IsaExtension;
use mpise_sim::inst::{BranchOp, Inst, LoadOp};
use mpise_sim::Reg;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs every check, printing the report to stdout (all of it but the
/// closing `overall:` line, which [`run`] prints).
///
/// # Errors
///
/// Names every failed check, `; `-separated.
pub fn check() -> Result<(), String> {
    let mut failed = Vec::new();

    println!("== ISA encoding lint ==");
    for ext in [
        mpise_core::full_radix_ext(),
        mpise_core::reduced_radix_ext(),
    ] {
        let report = lint_extension(&ext);
        let verdict = if report.passed() { "PASS" } else { "FAIL" };
        println!(
            "  {:<10} ({} instructions) {:.<40} {verdict}",
            report.ext_name, report.checked, ""
        );
        for f in &report.findings {
            println!("      {f}");
        }
        if !report.passed() {
            failed.push(format!("lint of {}", report.ext_name));
        }
    }

    println!();
    println!("== Static constant-time taint analysis (secret operands: a1, a2) ==");
    for config in Config::ALL {
        for op in OpKind::ALL {
            let report = verify_kernel(config, op);
            let verdict = if report.passed() { "PASS" } else { "FAIL" };
            println!(
                "  {:<28} {:<11} {:>5} insts {:.<12} {verdict}",
                config.to_string(),
                format!("{op:?}"),
                report.insts_analyzed,
                ""
            );
            for d in &report.diagnostics {
                println!("      {d}");
            }
            if !report.passed() {
                failed.push(format!("taint of {config} {op:?}"));
            }
        }
    }

    println!();
    println!("== Constant-time group action (dummy isogenies, host backend) ==");
    if !check_ct_action() {
        failed.push("constant-work group action".to_owned());
    }

    println!();
    println!("== Negative fixture: secret-dependent branch must be caught ==");
    if !check_negative_fixture() {
        failed.push("negative fixture not caught".to_owned());
    }

    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Runs [`check`] and prints the overall verdict; returns the process
/// exit code (0 = gate passed).
pub fn run() -> i32 {
    let verdict = check();
    println!();
    println!("overall: {}", if verdict.is_ok() { "PASS" } else { "FAIL" });
    if let Err(e) = &verdict {
        eprintln!("ctcheck: {e}");
    }
    i32::from(verdict.is_err())
}

/// Evaluates the CT action for keys at both extremes of the exponent
/// range and checks the key-independent work-count invariant. The
/// field arithmetic the action lowers to is exactly the kernels
/// verified above.
fn check_ct_action() -> bool {
    let f = FpFull::new();
    let budget = 1u8;
    let keys: [(&str, CtPrivateKey); 2] = [
        (
            "all-dummy",
            CtPrivateKey {
                exponents: [0; NUM_PRIMES],
                budget,
            },
        ),
        (
            "all-real",
            CtPrivateKey {
                exponents: [budget; NUM_PRIMES],
                budget,
            },
        ),
    ];
    let mut ok = true;
    let mut totals = Vec::new();
    for (name, key) in keys {
        let mut rng = StdRng::seed_from_u64(0xC51D);
        let (_, stats) = group_action_ct(&f, &mut rng, &PublicKey::BASE, &key);
        let verdict = match stats.verify_constant_work(budget) {
            Ok(()) => "PASS",
            Err(e) => {
                println!("      {e}");
                ok = false;
                "FAIL"
            }
        };
        println!(
            "  {name:<12} {} real + {} dummy isogenies {:.<14} {verdict}",
            stats.real_isogenies, stats.dummy_isogenies, ""
        );
        totals.push(stats.real_isogenies + stats.dummy_isogenies);
    }
    if totals.windows(2).any(|w| w[0] != w[1]) {
        println!("      isogeny totals differ across keys: {totals:?}");
        ok = false;
    }
    ok
}

/// A deliberately leaky program: loads a secret limb and branches on
/// it. The analysis must FAIL it and name the branch.
fn check_negative_fixture() -> bool {
    let fixture = Program::from_insts(vec![
        Inst::Load {
            op: LoadOp::Ld,
            rd: Reg::T0,
            rs1: Reg::A1,
            offset: 0,
        },
        // "Skip the reduction when the limb is zero" — the classic
        // variable-time shortcut the paper's kernels avoid.
        Inst::Branch {
            op: BranchOp::Beq,
            rs1: Reg::T0,
            rs2: Reg::Zero,
            offset: 8,
        },
        Inst::Ebreak,
    ]);
    let mut spec = TaintSpec::new();
    let key = spec.region(Secrecy::Secret);
    spec.entry_pointer(Reg::A1, key);
    let report = analyze_program(&fixture, &IsaExtension::new("rv64im"), &spec);

    let caught = report
        .diagnostics
        .iter()
        .any(|d| d.kind == ViolationKind::SecretBranch && d.pc == 4 && d.inst.starts_with("beq"));
    if caught {
        println!("  leaky fixture rejected as expected:");
        for d in &report.diagnostics {
            println!("      {d}");
        }
        println!("  negative fixture {:.<44} PASS (reported FAIL)", "");
        true
    } else {
        println!(
            "  negative fixture NOT caught — analysis is unsound (diagnostics: {:?})",
            report.diagnostics
        );
        false
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_constant_time_gate_passes() {
        assert_eq!(super::check(), Ok(()));
    }
}
