//! # mpise-bench — reproduction harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index):
//!
//! | Binary            | Reproduces                                     |
//! |-------------------|------------------------------------------------|
//! | `table1`          | Table 1 — overview of the two ISE sets         |
//! | `table2`          | Table 2 — existing ARM/AVX-512 fused multiply-adds |
//! | `table3`          | Table 3 — hardware cost (LUTs/Regs/DSPs/CMOS)  |
//! | `table4`          | Table 4 — cycle counts of all operations + group action |
//! | `listings`        | Listings 1–4 — MAC instruction counts and latencies |
//! | `figures`         | Figures 1–3 — instruction encodings and semantics |
//! | `ablation`        | §3/§4 ablations — Karatsuba, unrolling, XMUL depth, core timing |
//! | `instruction_mix` | §2/§3.1 — static instruction mix, the `sltu` carry tax |
//! | `bench`           | Full benchmark pipeline → `BENCH_<date>.json`  |
//! | `ctcheck`         | Constant-time gate (lint + taint + constant work) |
//! | `rvsim`           | Standalone simulator front-end for `.s` files  |
//!
//! Each binary that reproduces a claim judges it with the one check
//! function the tier-1 `tests/table_shapes.rs` calls as well, and exits
//! non-zero when it fails (DESIGN.md §4, "Checked by").
//!
//! This library holds the paper's reference numbers (for side-by-side
//! printing) and small formatting helpers shared by the binaries.

pub mod ctcheck;
pub mod pipeline;

use mpise_fp::kernels::OpKind;
use mpise_hw::rocket::BASE_CORE;
use mpise_hw::CoreCost;

/// The paper's Table 4 cycle counts, row-major:
/// `[full-ISA, full-ISE, reduced-ISA, reduced-ISE]` per operation.
pub const PAPER_TABLE4: [(OpKind, [u64; 4]); 8] = [
    (OpKind::IntMul, [608, 371, 625, 303]),
    (OpKind::IntSqr, [440, 371, 398, 216]),
    (OpKind::MontRedc, [730, 469, 818, 389]),
    (OpKind::FastReduce, [107, 107, 112, 104]),
    (OpKind::FpAdd, [163, 163, 148, 132]),
    (OpKind::FpSub, [143, 143, 139, 123]),
    (OpKind::FpMul, [1446, 954, 1561, 799]),
    (OpKind::FpSqr, [1279, 951, 1334, 712]),
];

/// The paper's group-action cycle counts (millions), same column
/// order.
pub const PAPER_ACTION_MCYCLES: [f64; 4] = [701.0, 502.9, 736.2, 411.1];

/// The paper's Table 3 rows; the base core is the calibration constant
/// the hardware model builds on.
pub const PAPER_TABLE3: [CoreCost; 3] = [
    BASE_CORE,
    CoreCost {
        name: "Base core + ISE (full-radix)",
        luts: 5019,
        regs: 2390,
        dsps: 16,
        cmos: 483_248,
    },
    CoreCost {
        name: "Base core + ISE (reduced-radix)",
        luts: 5223,
        regs: 2352,
        dsps: 16,
        cmos: 495_290,
    },
];

/// Looks up a paper Table 4 reference value.
pub fn paper_cycles(op: OpKind, column: usize) -> u64 {
    PAPER_TABLE4
        .iter()
        .find(|(o, _)| *o == op)
        .map(|(_, v)| v[column])
        .expect("all ops present")
}

/// Renders a ratio like `1.71x`.
pub fn ratio(baseline: f64, value: f64) -> String {
    format!("{:.2}x", baseline / value)
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_consistent() {
        assert_eq!(paper_cycles(OpKind::FpMul, 0), 1446);
        assert_eq!(paper_cycles(OpKind::IntSqr, 3), 216);
        // The headline 1.71x speedup: full-ISA action vs reduced-ISE.
        let speedup = PAPER_ACTION_MCYCLES[0] / PAPER_ACTION_MCYCLES[3];
        assert!((speedup - 1.705).abs() < 0.01);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(701.0, 411.1), "1.71x");
        assert_eq!(rule(3), "---");
    }
}
