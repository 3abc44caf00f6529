//! Table 3 assembly: the calibrated Rocket base core plus the
//! structurally derived ISE deltas.
//!
//! **Calibration (documented substitution, see DESIGN.md §2):** we
//! cannot synthesize the Rocket chip generator here, so the *base
//! core* row of Table 3 is carried as constants taken from the paper's
//! own Vivado run of the unmodified RV64GC core. The *deltas* of the
//! two extended cores — the quantity the hardware experiment is about
//! — are computed from the generated XMUL netlists through the LUT
//! mapper and the CMOS area model, plus a small decoder-modification
//! allowance.

use crate::area::netlist_ge;
use crate::map::{map, MapReport};
use crate::xmul::{base_multiplier, full_radix_xmul, reduced_radix_xmul};

/// Synthesis cost of one core configuration (one Table 3 row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCost {
    /// Row label.
    pub name: &'static str,
    /// Slice LUTs.
    pub luts: u64,
    /// Flip-flops ("Regs").
    pub regs: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// CMOS area (gate-equivalents × [`CMOS_PER_GE`], the unit scale
    /// of the paper's "CMOS" column).
    pub cmos: u64,
}

/// The paper's Vivado result for the unmodified 64-bit Rocket core
/// (Table 3, "Base core"); used as the calibration baseline.
pub const BASE_CORE: CoreCost = CoreCost {
    name: "Base core",
    luts: 4807,
    regs: 2156,
    dsps: 16,
    cmos: 428_680,
};

/// Scale between our gate-equivalent estimate and the paper's "CMOS"
/// unit, calibrated once (shared by both variants, so the full-radix
/// versus reduced-radix *ratio* remains purely structural).
pub const CMOS_PER_GE: f64 = 20.0;

/// LUTs charged for the decoder modifications (§3.3: "ISE-related
/// modifications were made to the instruction decoder"): decode of one
/// extra major-opcode point, the R4 rs3 read-port steering and the
/// XMUL op-select generation.
pub const DECODER_LUTS: u64 = 24;

/// Flip-flops charged for the decoder/scoreboard modifications.
pub const DECODER_REGS: u64 = 8;

/// The complete Table 3.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Base core row (calibration constants).
    pub base: CoreCost,
    /// Base core + full-radix ISE.
    pub full: CoreCost,
    /// Base core + reduced-radix ISE.
    pub reduced: CoreCost,
    /// Mapping diagnostics for the three XMUL netlists.
    pub xmul_reports: [MapReport; 3],
}

impl Table3 {
    /// Relative LUT overhead of a row versus the base core, percent.
    pub fn lut_overhead_percent(&self, row: &CoreCost) -> f64 {
        (row.luts as f64 - self.base.luts as f64) / self.base.luts as f64 * 100.0
    }

    /// Relative register overhead of a row versus the base core,
    /// percent.
    pub fn reg_overhead_percent(&self, row: &CoreCost) -> f64 {
        (row.regs as f64 - self.base.regs as f64) / self.base.regs as f64 * 100.0
    }

    /// The Table 3 claims (§4): the DSP count is unchanged at the base
    /// core's 16; both extensions cost LUTs, registers and CMOS area;
    /// the reduced radix costs the most LUTs and CMOS (barrel shifter
    /// and mask network; paper: +9% vs +4% LUTs); the overheads stay in
    /// the paper's range (LUTs 1–12% full, 2–18% reduced; registers
    /// 3–20%).
    ///
    /// # Errors
    ///
    /// Returns every violated claim, `; `-separated.
    pub fn check(&self) -> Result<(), String> {
        let mut violations = Vec::new();
        let (base, full, red) = (&self.base, &self.full, &self.reduced);
        for row in [base, full, red] {
            if row.dsps != BASE_CORE.dsps {
                violations.push(format!(
                    "{}: {} DSPs, not the base core's {}",
                    row.name, row.dsps, BASE_CORE.dsps
                ));
            }
        }
        for (what, smaller, larger) in [
            ("LUTs", base.luts, full.luts),
            ("LUTs", full.luts, red.luts),
            ("Regs", base.regs, full.regs),
            ("Regs", base.regs, red.regs),
            ("CMOS", base.cmos, full.cmos),
            ("CMOS", full.cmos, red.cmos),
        ] {
            if smaller >= larger {
                violations.push(format!("{what}: {smaller} is not below {larger}"));
            }
        }
        for (what, percent, band) in [
            ("full LUT", self.lut_overhead_percent(full), 1.0..12.0),
            ("reduced LUT", self.lut_overhead_percent(red), 2.0..18.0),
            ("full reg", self.reg_overhead_percent(full), 3.0..20.0),
            ("reduced reg", self.reg_overhead_percent(red), 3.0..20.0),
        ] {
            if !band.contains(&percent) {
                violations.push(format!(
                    "{what} overhead {percent:.1}% outside {}-{}%",
                    band.start, band.end
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

/// Builds Table 3: maps the three XMUL variants, takes the deltas over
/// the base multiplier, and adds them (plus the decoder allowance) to
/// the calibrated base core.
pub fn table3() -> Table3 {
    let base_mul = base_multiplier().netlist;
    let full_mul = full_radix_xmul().netlist;
    let red_mul = reduced_radix_xmul().netlist;

    let m_base = map(&base_mul);
    let m_full = map(&full_mul);
    let m_red = map(&red_mul);

    let ge_base = netlist_ge(&base_mul);
    let ge_full = netlist_ge(&full_mul);
    let ge_red = netlist_ge(&red_mul);

    let mk = |name, m: &MapReport, ge: f64| {
        let d = m.delta(&m_base);
        CoreCost {
            name,
            luts: BASE_CORE.luts + d.luts as u64 + DECODER_LUTS,
            regs: BASE_CORE.regs + d.regs as u64 + DECODER_REGS,
            // DSPs unchanged: XMUL reuses the DSP-mapped multiplier
            // array and adds only fabric logic (§4 / Table 3).
            dsps: BASE_CORE.dsps + (m.dsps - m_base.dsps) as u64,
            cmos: BASE_CORE.cmos + ((ge - ge_base).max(0.0) * CMOS_PER_GE) as u64,
        }
    };

    Table3 {
        base: BASE_CORE,
        full: mk("Base core + ISE (full-radix)", &m_full, ge_full),
        reduced: mk("Base core + ISE (reduced-radix)", &m_red, ge_red),
        xmul_reports: [m_base, m_full, m_red],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_dsp_count_fails_the_check() {
        let mut t = table3();
        t.reduced.dsps += 1;
        let err = t.check().expect_err("17 DSPs break the claim");
        assert!(err.contains("17 DSPs"), "{err}");
    }
}
