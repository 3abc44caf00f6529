//! Explore the hardware cost model: map the three XMUL datapath
//! variants and print the full Table 3, compare a ripple-carry with a
//! Kogge-Stone 128-bit adder, and show how the `sraiadd` barrel
//! shifter's cost scales with its width (32, 64 and 128 bits).
//!
//! ```text
//! cargo run --release --example hardware_cost
//! ```

use mpise::hw::generators::{barrel_shifter_right, kogge_stone_adder, ripple_adder};
use mpise::hw::map::map;
use mpise::hw::netlist::Netlist;
use mpise::hw::table3;

fn main() {
    let t = table3();
    println!("Components                        LUTs   Regs  DSPs    CMOS");
    for row in [&t.base, &t.full, &t.reduced] {
        println!(
            "{:32} {:>5}  {:>5}  {:>4}  {:>6}",
            row.name, row.luts, row.regs, row.dsps, row.cmos
        );
    }
    println!();
    println!(
        "full-radix ISE overhead:    {:+5.1}% LUTs, {:+5.1}% Regs",
        t.lut_overhead_percent(&t.full),
        t.reg_overhead_percent(&t.full)
    );
    println!(
        "reduced-radix ISE overhead: {:+5.1}% LUTs, {:+5.1}% Regs",
        t.lut_overhead_percent(&t.reduced),
        t.reg_overhead_percent(&t.reduced)
    );

    // Ablation: ripple (carry-chain) vs Kogge-Stone for the 128-bit
    // pre-adder — why the FPGA view prices adders at 1 LUT/bit.
    println!();
    println!("adder-architecture ablation (128-bit adder alone):");
    let mut ripple = Netlist::new("ripple-128");
    let a = ripple.input_bus(128);
    let b = ripple.input_bus(128);
    let (s, c) = ripple_adder(&mut ripple, &a, &b);
    ripple.output_bus(&s);
    ripple.output(c);
    let mut ks = Netlist::new("kogge-stone-128");
    let a = ks.input_bus(128);
    let b = ks.input_bus(128);
    let (s, c) = kogge_stone_adder(&mut ks, &a, &b);
    ks.output_bus(&s);
    ks.output(c);
    for n in [&ripple, &ks] {
        let r = map(n);
        println!("  {:18} {:>5} LUTs ({} cells)", n.name(), r.luts, r.cells);
    }

    println!();
    println!("barrel shifter width sweep (the sraiadd shifter):");
    for w in [32usize, 64, 128] {
        let mut n = Netlist::new("shifter");
        let a = n.input_bus(w);
        let sh_bits = (usize::BITS - (w - 1).leading_zeros()) as usize;
        let sh = n.input_bus(sh_bits);
        let out = barrel_shifter_right(&mut n, &a, &sh, true);
        n.output_bus(&out);
        let r = map(&n);
        println!("  {:>4}-bit shifter: {:>4} LUTs", w, r.luts);
    }
}
