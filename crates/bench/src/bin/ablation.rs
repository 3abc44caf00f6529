//! Ablations of the design decisions the paper discusses:
//!
//! 1. §4: "product-scanning is more efficient than Karatsuba's
//!    algorithm" — one-level Karatsuba kernels vs the product-scanning
//!    kernels, on the same pipeline model;
//! 2. §3.3: "XMUL does not extend the existing critical path" —
//!    combinational-depth analysis of the three datapath variants;
//! 3. micro-architecture sensitivity: how Table 4's Fp-multiplication
//!    row moves when the multiplier latency or the load-use latency of
//!    the core changes.
//!
//! ```text
//! cargo run --release -p mpise-bench --bin ablation
//! ```
//!
//! Exits 1 when [`IntMulCycles::check`] or [`check_xmul_depths`] finds
//! a claim of 1 or 2 violated.

use mpise_bench::rule;
use mpise_fp::kernels::ablation::{int_mul_cycles, IntMulCycles};
use mpise_fp::kernels::{Config, KernelSet, OpKind};
use mpise_fp::measure::{call_kernel, kernel_machine};
use mpise_hw::depth::{check_xmul_depths, xmul_depths, DepthReport};
use mpise_sim::TimingConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let techniques = [Config::ALL[0], Config::ALL[1]].map(int_mul_cycles);
    karatsuba_vs_product_scanning(&techniques);
    unrolling(&techniques);
    let depths = xmul_depths();
    critical_path(&depths);
    timing_sensitivity();

    let mut ok = true;
    for check in techniques
        .iter()
        .map(IntMulCycles::check)
        .chain([check_xmul_depths(&depths)])
    {
        if let Err(e) = check {
            eprintln!("ablation: claim check FAILED — {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn karatsuba_vs_product_scanning(techniques: &[IntMulCycles]) {
    println!("ablation 1: 512-bit integer multiplication technique (cycles)");
    println!("{}", rule(72));
    println!(
        "{:24} {:>16} {:>16} {:>10}",
        "configuration", "product-scanning", "karatsuba (1 lvl)", "winner"
    );
    println!("{}", rule(72));
    for t in techniques {
        let (ps, kara) = (t.product_scanning, t.karatsuba);
        println!(
            "{:24} {:>16} {:>16} {:>10}",
            t.config.ise.to_string(),
            ps,
            kara,
            if ps < kara { "PS" } else { "Karatsuba" }
        );
    }
    println!("{}", rule(72));
    println!("(paper §4 used product scanning for the same reason)\n");
}

/// Measures what full unrolling buys (§3: "we also unroll the loops
/// fully").
fn unrolling(techniques: &[IntMulCycles]) {
    println!("ablation 1b: fully unrolled vs rolled (looped) 512-bit multiplication");
    println!("{}", rule(72));
    for t in techniques {
        let (unrolled, rolled) = (t.product_scanning, t.rolled);
        println!(
            "{:24} unrolled {:>5} cycles, rolled {:>5} cycles ({:.2}x)",
            t.config.ise.to_string(),
            unrolled,
            rolled,
            rolled as f64 / unrolled as f64
        );
    }
    println!("{}", rule(72));
    println!("(register-resident, fully unrolled kernels are what Table 4 measures)\n");
}

fn critical_path(depths: &[(&str, DepthReport)]) {
    println!("ablation 2: combinational depth of the multiplier datapath variants");
    println!("{}", rule(72));
    for (name, d) in depths {
        println!(
            "{:22} critical path {:>6.1} unit delays ({} nets)",
            name, d.critical_path, d.nets
        );
    }
    println!("{}", rule(72));
    println!("(§3.3: XMUL is pipelined so the additions stay off the clock-limiting path)\n");
}

fn timing_sensitivity() {
    println!("ablation 3: Fp-multiplication cycles vs core timing parameters");
    println!("{}", rule(72));
    println!(
        "{:34} {:>11} {:>11} {:>11}",
        "timing model", "full ISA", "full ISE", "red. ISE"
    );
    println!("{}", rule(72));
    let variants: [(&str, TimingConfig); 4] = [
        ("Rocket-like (default)", TimingConfig::default()),
        (
            "3-cycle multiplier",
            TimingConfig {
                mul_latency: 3,
                ..TimingConfig::default()
            },
        ),
        (
            "3-cycle loads",
            TimingConfig {
                load_latency: 3,
                ..TimingConfig::default()
            },
        ),
        (
            "single-cycle multiplier",
            TimingConfig {
                mul_latency: 1,
                ..TimingConfig::default()
            },
        ),
    ];
    for (name, timing) in variants {
        print!("{:34}", name);
        for config in [Config::ALL[0], Config::ALL[1], Config::ALL[3]] {
            let set = KernelSet::build(config);
            let mut m = kernel_machine(config, set.kernel(OpKind::FpMul));
            m.set_timing(timing);
            let n = config.elem_words();
            let (_, stats) =
                call_kernel(&mut m, &[&vec![3u64; n], &vec![5u64; n]], n).expect("kernel runs");
            print!(" {:>11}", stats.cycles);
        }
        println!();
    }
    println!("{}", rule(72));
    println!("(the ISE advantage persists across plausible core timings)");
}
