//! Reproduces Table 1: overview of the two ISE sets, generated from
//! the live instruction registries (not a hard-coded table).
//!
//! ```text
//! cargo run -p mpise-bench --bin table1
//! ```
//!
//! An extension complies with the §3.2 design guidelines when
//! [`lint_extension`] reports no finding, warnings included; the binary
//! exits 1 otherwise.

use mpise_analyze::lint::lint_extension;
use mpise_bench::rule;
use mpise_core::{full_radix_ext, reduced_radix_ext};
use std::process::ExitCode;

fn main() -> ExitCode {
    let full = full_radix_ext();
    let red = reduced_radix_ext();

    // Classify by functionality: multiply-add vs carry propagation.
    let madds = |e: &mpise_sim::ext::IsaExtension| -> Vec<&'static str> {
        e.defs()
            .iter()
            .filter(|d| d.mnemonic.contains("madd"))
            .map(|d| d.mnemonic)
            .collect()
    };
    let carries = |e: &mpise_sim::ext::IsaExtension| -> Vec<&'static str> {
        e.defs()
            .iter()
            .filter(|d| !d.mnemonic.contains("madd"))
            .map(|d| d.mnemonic)
            .collect()
    };

    println!("Table 1: overview of the ISEs");
    println!("{}", rule(70));
    println!(
        "{:22} {:>20} {:>24}",
        "Functionality", "full-radix", "reduced-radix"
    );
    println!("{}", rule(70));
    println!(
        "{:22} {:>20} {:>24}",
        "Integer multiply-add",
        madds(&full).join(", "),
        madds(&red).join(", ")
    );
    println!(
        "{:22} {:>20} {:>24}",
        "Carry propagation",
        carries(&full).join(", "),
        carries(&red).join(", ")
    );
    println!("{}", rule(70));

    let mut compliant = true;
    for (name, e) in [("full-radix", &full), ("reduced-radix", &red)] {
        let report = lint_extension(e);
        let r4 = e.defs().iter().filter(|d| d.format.has_rs3()).count();
        let two_source = e.defs().len() - r4;
        println!(
            "{name}: {} instructions ({r4} R4-format, {two_source} two-source), design guidelines: {}",
            e.defs().len(),
            if report.findings.is_empty() {
                "compliant"
            } else {
                "VIOLATED"
            }
        );
        for f in &report.findings {
            eprintln!("table1: {name}: {f}");
        }
        compliant &= report.findings.is_empty();
    }
    if compliant {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
