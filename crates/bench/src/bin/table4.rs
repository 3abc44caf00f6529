//! Reproduces Table 4: execution times (cycles) of CSIDH-512
//! operations in the four configurations, including the class group
//! action.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mpise-bench --bin table4 [--quick] [--full-sim]
//! ```
//!
//! * default: all eight kernel rows are measured by executing the
//!   generated assembly on the Rocket pipeline model; the group-action
//!   row is estimated as Σ op-count × per-op cycles, with the op
//!   counts taken from an instrumented run of the real group action
//!   (exponent bound ±5, fixed seed);
//! * `--quick`: exponent bound ±1 for the instrumented run;
//! * `--full-sim`: additionally runs the same group action with *every
//!   field operation executed on the simulator* (slow; minutes) and
//!   reports the directly simulated cycle counts.
//!
//! Every figure comes from the `bench` pipeline
//! ([`mpise_bench::pipeline`]); this binary only prints them next to
//! the paper's and runs the Table 4 check ([`check_gate`]). It exits 1
//! when that check fails.

use mpise_bench::pipeline::{
    check_gate, cycles_of, estimate_actions, instrument_action, kernel_matrix, simulate_action,
};
use mpise_bench::{paper_cycles, ratio, rule, PAPER_ACTION_MCYCLES};
use mpise_fp::kernels::{Config, OpKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let full_sim = args.iter().any(|a| a == "--full-sim");
    let bound = if quick { 1 } else { 5 };

    eprintln!("measuring kernels on the Rocket pipeline model ...");
    let matrix = kernel_matrix(2);
    let cycles = |cfg: usize, op: OpKind| cycles_of(&matrix, Config::ALL[cfg], op);

    eprintln!("instrumenting the group action (exponent bound ±{bound}) ...");
    let counts = instrument_action(bound);
    eprintln!(
        "  group action: {} mul, {} sqr, {} add, {} sub",
        counts.mul, counts.sqr, counts.add, counts.sub
    );
    let estimates = estimate_actions(&matrix, &counts);

    println!("Table 4: execution times of CSIDH-512 operations (clock cycles)");
    println!("measured = this reproduction (Rocket pipeline model); paper = DAC'24 Table 4");
    println!("{}", rule(100));
    println!(
        "{:28} {:>16} {:>16} {:>16} {:>16}",
        "Operation", "Full ISA-only", "Full ISE-sup.", "Red. ISA-only", "Red. ISE-sup."
    );
    println!("{}", rule(100));
    for op in OpKind::ALL {
        print!("{:28}", op.label());
        for cfg in 0..4 {
            print!(" {:>9} ({:>4})", cycles(cfg, op), paper_cycles(op, cfg));
        }
        println!();
    }
    println!("{}", rule(100));
    print!("{:28}", "CSIDH group action (est.)");
    for (e, paper) in estimates.iter().zip(PAPER_ACTION_MCYCLES) {
        print!(" {:>9.1}M ({:>3.0}M)", e.cycles as f64 / 1e6, paper);
    }
    println!();
    print!("{:28}", "  speedup vs full ISA-only");
    for (e, paper) in estimates.iter().zip(PAPER_ACTION_MCYCLES) {
        let r = ratio(estimates[0].cycles as f64, e.cycles as f64);
        let p = ratio(PAPER_ACTION_MCYCLES[0], paper);
        print!(" {:>10} ({:>4})", r, p);
    }
    println!();
    println!("{}", rule(100));
    println!("(values in parentheses: the paper's numbers; the group-action row is");
    println!(" op-count x per-op-cycles with counts from the instrumented action)");

    if full_sim {
        println!();
        println!("direct full simulation of the group action (every Fp op on the simulator):");
        for config in Config::ALL {
            let sim = simulate_action(config, bound);
            println!(
                "  {:32} {:>10.1}M cycles  ({} kernel calls, host time {:.1}s)",
                config.to_string(),
                sim.cycles as f64 / 1e6,
                sim.calls,
                sim.host_secs
            );
        }
    }

    // The reproduction's success criteria.
    println!();
    match check_gate(&matrix, &estimates) {
        Ok(()) => {
            println!("shape check: PASS (all Table 4 orderings hold)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shape check: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}
