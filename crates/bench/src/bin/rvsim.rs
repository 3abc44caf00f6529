//! A standalone command-line front-end for the simulator: assemble an
//! RV64 assembly file (optionally with one of the paper's ISEs
//! attached) and run it on the Rocket pipeline model.
//!
//! ```text
//! cargo run --release -p mpise-bench --bin rvsim -- [options] <file.s>
//!
//! options:
//!   --ise full|reduced   attach an ISE (default: base RV64IM only)
//!   --trace N            print the first N retired instructions
//!   --regs               dump nonzero registers on exit
//!   --mix                print the executed instruction mix
//! ```
//!
//! Programs stop at `ebreak`/`ecall`. Registers `a0..a7` start at 0;
//! data memory starts at 0x8000_0000 (`sp` points at its top).

use mpise_core::{full_radix_ext, reduced_radix_ext};
use mpise_sim::asm::parse_program;
use mpise_sim::ext::IsaExtension;
use mpise_sim::profile::InstMix;
use mpise_sim::trace::Tracer;
use mpise_sim::{Machine, Reg};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ise: Option<String> = None;
    let mut trace: usize = 0;
    let mut dump_regs = false;
    let mut show_mix = false;
    let mut file: Option<String> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ise" => ise = it.next().cloned(),
            "--trace" => trace = it.next().and_then(|s| s.parse().ok()).unwrap_or(32),
            "--regs" => dump_regs = true,
            "--mix" => show_mix = true,
            other if !other.starts_with("--") => file = Some(other.to_owned()),
            other => {
                eprintln!("unknown option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(file) = file else {
        eprintln!("usage: rvsim [--ise full|reduced] [--trace N] [--regs] [--mix] <file.s>");
        return ExitCode::FAILURE;
    };

    let ext: IsaExtension = match ise.as_deref() {
        None => IsaExtension::new("rv64im"),
        Some("full") => full_radix_ext(),
        Some("reduced") => reduced_radix_ext(),
        Some(other) => {
            eprintln!("unknown ISE `{other}` (expected `full` or `reduced`)");
            return ExitCode::FAILURE;
        }
    };

    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match parse_program(&source, &ext) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("assembly error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut machine = Machine::with_ext(ext);
    machine.load_program(&program);
    if trace > 0 {
        machine.set_tracer(Some(Tracer::new(trace)));
    }
    let stats = match machine.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(t) = machine.take_tracer() {
        print!("{}", t.render(machine.ext()));
    }
    if dump_regs {
        for r in Reg::ALL {
            let v = machine.cpu.read_reg(r);
            if v != 0 && r != Reg::Sp {
                println!("{:5} = {v:#018x} ({v})", r.abi_name());
            }
        }
    }
    if show_mix {
        // Re-run with a mix collector (cheap: programs are small).
        let mut mix = InstMix::new();
        let ext2 = machine.ext().clone();
        for inst in program.insts() {
            // static mix; dynamic counts require the trace
            mix.record(inst, &ext2);
        }
        println!("static instruction mix:");
        print!("{}", mix.render());
    }
    println!(
        "halted: {:?}, {} instructions, {} cycles (CPI {:.2})",
        stats.halt,
        stats.instret,
        stats.cycles,
        stats.cpi()
    );
    ExitCode::SUCCESS
}
