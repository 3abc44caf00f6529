//! Reproduces the instruction-count and latency claims of Listings 1–4
//! and the carry-propagation sequences of §3.2.
//!
//! ```text
//! cargo run -p mpise-bench --bin listings
//! ```
//!
//! Exits 1 when [`mac::check_counts`] finds an instruction count that
//! differs from the paper's.

use mpise_bench::rule;
use mpise_fp::kernels::mac::{self, SNIPPETS};
use mpise_sim::asm::Program;
use mpise_sim::ext::IsaExtension;
use mpise_sim::{Inst, Machine, Reg};
use std::process::ExitCode;

/// Runs a MAC snippet `reps` times back-to-back and reports the cycle
/// count, showing throughput including pipelining effects.
fn latency(prog: &Program, ext: IsaExtension, reps: usize) -> u64 {
    let mut insts = Vec::new();
    for _ in 0..reps {
        insts.extend_from_slice(prog.insts());
    }
    insts.push(Inst::Ebreak);
    let mut m = Machine::with_ext(ext);
    m.load_program(&Program::from_insts(insts));
    m.cpu.write_reg(Reg::A0, 0x1234_5678_9abc_def0);
    m.cpu.write_reg(Reg::A1, 0x0fed_cba9_8765_4321);
    let stats = m.run().expect("snippet runs");
    stats.cycles - 1 // exclude the ebreak
}

fn main() -> ExitCode {
    println!("MAC and carry-propagation micro-kernels (paper §3.1/§3.2)");
    println!("{}", rule(92));
    println!(
        "{:42} {:>7} {:>7} {:>11} {:>11}",
        "Snippet", "#insts", "paper", "1x cycles", "8x cycles"
    );
    println!("{}", rule(92));
    for (name, build, ext, paper) in SNIPPETS {
        let prog = build();
        let (c1, c8) = (latency(&prog, ext(), 1), latency(&prog, ext(), 8));
        println!("{name:42} {:>7} {paper:>7} {c1:>11} {c8:>11}", prog.len());
    }
    println!("{}", rule(92));
    let check = mac::check_counts(&SNIPPETS);
    if check.is_ok() {
        let [l1, l2, l3, l4, isa, ise] = SNIPPETS.map(|(.., paper)| paper);
        println!("instruction counts match the paper: {l1} -> {l3} (full-radix MAC),");
        println!("{l2} -> {l4} (reduced-radix MAC), {isa} -> {ise} (carry propagation)");
    }

    // Disassembly of the four listings for the record.
    println!();
    for (name, build, ext, _) in SNIPPETS {
        if let Some((listing, _)) = name.split_once(':') {
            println!("{listing}:");
            print!("{}", build().disassemble(&ext()));
        }
    }
    match check {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("listings: instruction count check FAILED — {e}");
            ExitCode::FAILURE
        }
    }
}
