//! Pins how many micro-ops the simulator dispatches per call of the
//! four field kernels of every configuration. The simulator fuses MAC
//! runs (a MAC pair and the pairs accumulating after it), `ld`/`sd`
//! runs, column ends and carry-propagation runs of a block into one
//! micro-op each (DESIGN.md §9.5); a kernel change that silently
//! breaks a run moves a count here, although no cycle count moves. A
//! deliberate change updates the pin.

use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind, Radix};
use mpise_fp::measure::kernel_machine;

#[test]
fn field_kernels_keep_their_fused_micro_op_counts() {
    use IseMode::{IsaOnly, IseSupported};
    use OpKind::{FpAdd, FpMul, FpSqr, FpSub};
    use Radix::{Full, Reduced};
    // (radix, ISE mode, kernel, instructions, micro-ops).
    let rows = [
        (Full, IsaOnly, FpMul, 1333, 1276),
        (Full, IsaOnly, FpSqr, 1261, 1210),
        (Full, IsaOnly, FpAdd, 150, 115),
        (Full, IsaOnly, FpSub, 134, 99),
        (Full, IseSupported, FpMul, 805, 620),
        (Full, IseSupported, FpSqr, 797, 619),
        (Full, IseSupported, FpAdd, 150, 115),
        (Full, IseSupported, FpSub, 134, 99),
        (Reduced, IsaOnly, FpMul, 1417, 1352),
        (Reduced, IsaOnly, FpSqr, 1217, 1160),
        (Reduced, IsaOnly, FpAdd, 144, 96),
        (Reduced, IsaOnly, FpSub, 135, 95),
        (Reduced, IseSupported, FpMul, 655, 215),
        (Reduced, IseSupported, FpSqr, 603, 267),
        (Reduced, IseSupported, FpAdd, 128, 50),
        (Reduced, IseSupported, FpSub, 119, 49),
    ];
    for (radix, ise, op, insts, micro_ops) in rows {
        let config = Config { radix, ise };
        let set = KernelSet::build(config);
        let program = set.kernel(op);
        let m = kernel_machine(config, program);
        assert_eq!(
            (program.len(), m.micro_ops()),
            (insts, micro_ops),
            "{config:?} {op:?}"
        );
    }
}
