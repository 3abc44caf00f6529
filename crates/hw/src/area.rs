//! CMOS area model: gate equivalents (GE) per cell.
//!
//! 1 GE is one 2-input NAND (4 transistors); the weights below are the
//! usual transistor-count ratios of a static CMOS standard-cell
//! library. The `DspMul` macro is priced as an `w×w` array multiplier
//! (partial-product AND array plus a full-adder per product bit),
//! which is what its ASIC realization costs.

use crate::netlist::{CellKind, Netlist};

/// Gate-equivalent cost of one cell.
pub fn cell_ge(kind: CellKind, width: u32) -> f64 {
    match kind {
        CellKind::And2 | CellKind::Or2 => 1.33,
        CellKind::Xor2 | CellKind::Mux2 => 2.33,
        CellKind::HalfAdder => 3.0,
        CellKind::FullAdder => 6.33,
        CellKind::Dff => 5.33,
        CellKind::DspMul => {
            // AND array + (w² − w) adders + final carry-propagate.
            let w = width as f64;
            w * w * 1.33 + (w * w - w) * 6.33
        }
    }
}

/// Total gate-equivalent area of a netlist.
pub fn netlist_ge(n: &Netlist) -> f64 {
    n.cells().iter().map(|c| cell_ge(c.kind, c.width)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_ordered_sensibly() {
        assert!(cell_ge(CellKind::And2, 0) < cell_ge(CellKind::Xor2, 0));
        assert!(cell_ge(CellKind::HalfAdder, 0) < cell_ge(CellKind::FullAdder, 0));
    }

    #[test]
    fn dsp_macro_scales_quadratically() {
        let g16 = cell_ge(CellKind::DspMul, 16);
        let g64 = cell_ge(CellKind::DspMul, 64);
        assert!(g64 / g16 > 14.0 && g64 / g16 < 18.0);
    }

    #[test]
    fn netlist_totals() {
        let mut n = Netlist::new("t");
        let a = n.input();
        let b = n.input();
        let x = n.xor2(a, b);
        let q = n.dff(x);
        n.output(q);
        let total = netlist_ge(&n);
        assert!((total - (2.33 + 5.33)).abs() < 1e-9);
    }
}
