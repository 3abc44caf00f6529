//! Reproduces Table 3: hardware cost of the two ISE designs on top of
//! the Rocket base core.
//!
//! ```text
//! cargo run --release -p mpise-bench --bin table3
//! ```
//!
//! Exits 1 when [`Table3::check`] finds a claim of Table 3 violated.

use mpise_bench::{rule, PAPER_TABLE3};
use mpise_hw::{table3, Table3};
use std::process::ExitCode;

fn main() -> ExitCode {
    let t: Table3 = table3();
    println!("Table 3: results of hardware-oriented evaluation");
    println!("measured = structural model (netlist + 6-LUT mapper + GE area);");
    println!("paper    = Vivado 2019.1 synthesis for an Artix-7 (DAC'24 Table 3)");
    println!("{}", rule(98));
    println!(
        "{:32} {:>12} {:>12} {:>8} {:>14}",
        "Components", "LUTs", "Regs", "DSPs", "CMOS"
    );
    println!("{}", rule(98));
    for (row, paper) in [&t.base, &t.full, &t.reduced].iter().zip(PAPER_TABLE3) {
        println!(
            "{:32} {:>5} ({:>5}) {:>5} ({:>5}) {:>3} ({:>2}) {:>7} ({:>6})",
            row.name,
            row.luts,
            paper.luts,
            row.regs,
            paper.regs,
            row.dsps,
            paper.dsps,
            row.cmos,
            paper.cmos
        );
    }
    println!("{}", rule(98));
    println!(
        "overheads vs base core: full-radix {:+.1}% LUTs / {:+.1}% Regs (paper: +4% / +11%)",
        t.lut_overhead_percent(&t.full),
        t.reg_overhead_percent(&t.full)
    );
    println!(
        "                        reduced-radix {:+.1}% LUTs / {:+.1}% Regs (paper: +9% / +9%)",
        t.lut_overhead_percent(&t.reduced),
        t.reg_overhead_percent(&t.reduced)
    );
    println!();
    println!("XMUL netlist mapping detail (multiplier datapath only):");
    for (name, r) in ["base", "full-radix", "reduced-radix"]
        .iter()
        .zip(t.xmul_reports)
    {
        println!(
            "  {:14} {:>5} LUTs {:>5} Regs {:>3} DSPs ({} cells)",
            name, r.luts, r.regs, r.dsps, r.cells
        );
    }
    println!();
    println!("(base-core row is the documented calibration constant — we cannot run");
    println!(" Vivado on Rocket here; the ISE deltas are derived from generated netlists)");
    match t.check() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("table3: claim check FAILED — {e}");
            ExitCode::FAILURE
        }
    }
}
