//! Technology mapping: 6-input LUT covering, register census and DSP
//! inference.
//!
//! The LUT mapper is a greedy cone-packing heuristic in the spirit of
//! Chortle/FlowMap's practical variants: gates are visited in
//! topological (construction) order; a gate is absorbed into the LUT
//! of its fan-ins when the merged input support stays within `K = 6`
//! and every absorbed fan-in has a single fan-out. Adder cells are
//! special-cased at one LUT per bit, modelling the dedicated
//! carry chains (`CARRY4`/`CARRY8`) FPGA tools use for ripple adders.

use crate::netlist::{CellKind, Net, Netlist, ONE, ZERO};
use std::collections::{BTreeSet, HashMap};

/// LUT input width of the target fabric (Artix-7: 6).
pub const K: usize = 6;

/// The mapping result for one netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapReport {
    /// 6-input LUTs.
    pub luts: usize,
    /// Flip-flops.
    pub regs: usize,
    /// DSP blocks.
    pub dsps: usize,
    /// Netlist cell count (pre-mapping), for diagnostics.
    pub cells: usize,
}

impl MapReport {
    /// Component-wise difference (`self − base`), saturating at zero.
    pub(crate) fn delta(&self, base: &MapReport) -> MapReport {
        MapReport {
            luts: self.luts.saturating_sub(base.luts),
            regs: self.regs.saturating_sub(base.regs),
            dsps: self.dsps.saturating_sub(base.dsps),
            cells: self.cells.saturating_sub(base.cells),
        }
    }
}

/// DSP blocks needed for a `w × w` multiplier: tiling with the 16-bit
/// granularity of cascaded DSP48E1 slices (`ceil(w/16)²`), matching
/// the 16 DSPs Vivado reports for the Rocket core's 64-bit multiplier.
pub(crate) fn dsp_tiles(width: u32) -> usize {
    let t = width.div_ceil(16) as usize;
    t * t
}

/// Maps a netlist onto LUTs / FFs / DSPs.
pub fn map(netlist: &Netlist) -> MapReport {
    // Fan-out counts per net.
    let mut fanout: HashMap<Net, usize> = HashMap::new();
    for cell in netlist.cells() {
        for &i in &cell.inputs {
            *fanout.entry(i).or_insert(0) += 1;
        }
    }
    for &o in netlist.outputs() {
        *fanout.entry(o).or_insert(0) += 1;
    }

    // For each combinational gate output: the set of LUT inputs of the
    // (possibly merged) LUT rooted there, or None for non-LUT nets
    // (inputs, FF/adder/DSP outputs, constants).
    let mut support: HashMap<Net, BTreeSet<Net>> = HashMap::new();
    let mut luts = 0usize;
    let mut regs = 0usize;
    let mut dsps = 0usize;

    for cell in netlist.cells() {
        match cell.kind {
            CellKind::Dff => regs += 1,
            CellKind::DspMul => dsps += dsp_tiles(cell.width),
            CellKind::FullAdder | CellKind::HalfAdder => {
                // One LUT + carry-chain element per bit. The LUT in
                // front of a CARRY element has spare inputs, so
                // single-fanout gates feeding the adder's `a`/`b`
                // operands pack into it (standard Xilinx mapping of a
                // mux/and ahead of an adder).
                luts += 1;
                let mut budget: BTreeSet<Net> = BTreeSet::new();
                for &input in cell.inputs.iter().take(2) {
                    if let Some(sub) = support.get(&input) {
                        if fanout.get(&input).copied().unwrap_or(0) == 1 {
                            let mut merged = budget.clone();
                            merged.extend(sub.iter().copied());
                            if merged.len() < K {
                                budget = merged;
                                luts = luts.saturating_sub(1);
                            }
                        }
                    }
                }
            }
            _ => {
                // Plain combinational gate: try to absorb single-fanout
                // fan-in LUTs into one bigger LUT.
                let mut merged: BTreeSet<Net> = BTreeSet::new();
                let mut absorbed: Vec<Net> = Vec::new();
                for &input in &cell.inputs {
                    if input == ZERO || input == ONE {
                        continue; // constants are free
                    }
                    match support.get(&input) {
                        Some(sub) if fanout.get(&input).copied().unwrap_or(0) == 1 => {
                            merged.extend(sub.iter().copied());
                            absorbed.push(input);
                        }
                        _ => {
                            merged.insert(input);
                        }
                    }
                }
                if merged.len() > K {
                    // Merge overflows the LUT: keep fan-ins as separate
                    // LUT roots and feed them directly.
                    merged = cell
                        .inputs
                        .iter()
                        .copied()
                        .filter(|&n| n != ZERO && n != ONE)
                        .collect();
                    absorbed.clear();
                }
                // This gate becomes a LUT root; each absorbed fan-in
                // stops being one.
                luts += 1;
                luts = luts.saturating_sub(absorbed.len());
                support.insert(cell.outputs[0], merged);
            }
        }
    }

    MapReport {
        luts,
        regs,
        dsps,
        cells: netlist.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ripple_adder;

    #[test]
    fn adders_map_to_one_lut_per_bit() {
        let mut n = Netlist::new("t");
        let a = n.input_bus(64);
        let b = n.input_bus(64);
        let (s, c) = ripple_adder(&mut n, &a, &b);
        n.output_bus(&s);
        n.output(c);
        let r = map(&n);
        assert_eq!(r.luts, 64);
        assert_eq!(r.regs, 0);
    }

    #[test]
    fn gate_chains_pack_into_luts() {
        // A 2-level tree with 6 total inputs packs into a single LUT.
        let mut n = Netlist::new("t");
        let ins = n.input_bus(6);
        let a = n.and2(ins[0], ins[1]);
        let b = n.and2(ins[2], ins[3]);
        let c = n.xor2(ins[4], ins[5]);
        let d = n.or2(a, b);
        let e = n.or2(d, c);
        n.output(e);
        let r = map(&n);
        assert_eq!(r.luts, 1, "5 gates over 6 inputs fit one 6-LUT");
    }

    #[test]
    fn wide_cones_split() {
        // 8 inputs cannot fit one 6-LUT.
        let mut n = Netlist::new("t");
        let ins = n.input_bus(8);
        let mut acc = ins[0];
        for &i in &ins[1..] {
            acc = n.xor2(acc, i);
        }
        n.output(acc);
        let r = map(&n);
        assert!(
            r.luts >= 2,
            "8-input parity needs at least 2 LUTs, got {}",
            r.luts
        );
    }

    #[test]
    fn shared_nets_are_not_absorbed() {
        // A net with fanout 2 must remain a LUT boundary.
        let mut n = Netlist::new("t");
        let ins = n.input_bus(4);
        let shared = n.and2(ins[0], ins[1]);
        let u = n.or2(shared, ins[2]);
        let v = n.xor2(shared, ins[3]);
        n.output(u);
        n.output(v);
        let r = map(&n);
        assert_eq!(r.luts, 3);
    }

    #[test]
    fn dsp_inference() {
        assert_eq!(dsp_tiles(64), 16);
        assert_eq!(dsp_tiles(16), 1);
        assert_eq!(dsp_tiles(17), 4);
        let mut n = Netlist::new("t");
        let a = n.input_bus(64);
        let b = n.input_bus(64);
        let p = n.dsp_mul(&a, &b);
        n.output_bus(&p);
        assert_eq!(map(&n).dsps, 16);
    }

    #[test]
    fn registers_counted() {
        let mut n = Netlist::new("t");
        let a = n.input_bus(10);
        let q = n.dff_bus(&a);
        n.output_bus(&q);
        assert_eq!(map(&n).regs, 10);
    }
}
