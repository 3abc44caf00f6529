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

use mpise_bench::rule;
use mpise_fp::kernels::ablation::{karatsuba_int_mul, rolled_int_mul};
use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind, Radix};
use mpise_fp::measure::{call_kernel, kernel_machine, KernelRunner};
use mpise_hw::depth::analyze;
use mpise_hw::xmul::{base_multiplier, full_radix_xmul, reduced_radix_xmul};
use mpise_mpi::U512;
use mpise_sim::asm::Program;
use mpise_sim::TimingConfig;

fn main() {
    karatsuba_vs_product_scanning();
    unrolling();
    critical_path();
    timing_sensitivity();
}

/// Cycles of one call to a 512×512-bit multiplication `program` on
/// `config`'s machine.
fn int_mul_cycles(config: Config, program: &Program, a: &U512, b: &U512) -> u64 {
    let mut m = kernel_machine(config, program);
    let (_, out_words) = OpKind::IntMul.shape(&config);
    let (_, stats) = call_kernel(&mut m, &[a.limbs(), b.limbs()], out_words).expect("kernel runs");
    stats.cycles
}

/// Measures what full unrolling buys (§3: "we also unroll the loops
/// fully").
fn unrolling() {
    println!("ablation 1b: fully unrolled vs rolled (looped) 512-bit multiplication");
    println!("{}", rule(72));
    for (mode, ise) in [(IseMode::IsaOnly, false), (IseMode::IseSupported, true)] {
        let config = Config {
            radix: Radix::Full,
            ise: mode,
        };
        let mut runner = KernelRunner::new(config);
        let a = U512::from_u64(3);
        let b = U512::from_u64(5);
        let (_, unrolled) = runner.run(OpKind::IntMul, &[a.limbs(), b.limbs()]);

        let rolled = int_mul_cycles(config, &rolled_int_mul(ise), &a, &b);
        println!(
            "{:24} unrolled {:>5} cycles, rolled {:>5} cycles ({:.2}x)",
            config.ise.to_string(),
            unrolled,
            rolled,
            rolled as f64 / unrolled as f64
        );
    }
    println!("{}", rule(72));
    println!("(register-resident, fully unrolled kernels are what Table 4 measures)\n");
}

fn karatsuba_vs_product_scanning() {
    println!("ablation 1: 512-bit integer multiplication technique (cycles)");
    println!("{}", rule(72));
    println!(
        "{:24} {:>16} {:>16} {:>10}",
        "configuration", "product-scanning", "karatsuba (1 lvl)", "winner"
    );
    println!("{}", rule(72));
    for (mode, ise) in [(IseMode::IsaOnly, false), (IseMode::IseSupported, true)] {
        let config = Config {
            radix: Radix::Full,
            ise: mode,
        };
        let mut runner = KernelRunner::new(config);
        let a = U512::from_u64(3);
        let b = U512::from_u64(5);
        let (_, ps) = runner.run(OpKind::IntMul, &[a.limbs(), b.limbs()]);

        let kara = int_mul_cycles(config, &karatsuba_int_mul(ise), &a, &b);
        println!(
            "{:24} {:>16} {:>16} {:>10}",
            config.ise.to_string(),
            ps,
            kara,
            if ps < kara { "PS" } else { "Karatsuba" }
        );
    }
    println!("{}", rule(72));
    println!("(paper §4 used product scanning for the same reason)\n");
}

fn critical_path() {
    println!("ablation 2: combinational depth of the multiplier datapath variants");
    println!("{}", rule(72));
    for (name, netlist) in [
        ("base multiplier", base_multiplier().netlist),
        ("XMUL full-radix", full_radix_xmul().netlist),
        ("XMUL reduced-radix", reduced_radix_xmul().netlist),
    ] {
        let d = analyze(&netlist);
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
