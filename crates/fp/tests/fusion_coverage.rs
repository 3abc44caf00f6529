//! Pins how many micro-ops the simulator dispatches per call of the
//! four field kernels of every configuration. The simulator fuses MAC
//! chains, `ld`/`sd` runs, column ends, carry-propagation runs,
//! same-operation ALU runs and MAC pairs of a block into one micro-op
//! each (DESIGN.md §9.5); a kernel change that silently breaks a chain
//! or a run moves a count here, although no cycle count moves. A
//! deliberate change updates the pin.

use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind, Radix};
use mpise_fp::measure::kernel_machine;

#[test]
fn field_kernels_keep_their_fused_micro_op_counts() {
    use IseMode::{IsaOnly, IseSupported};
    use OpKind::{FpAdd, FpMul, FpSqr, FpSub};
    use Radix::{Full, Reduced};
    // (radix, ISE mode, kernel, instructions, micro-ops). Fusing MAC
    // chains, memory runs and pairs alone gave the reduced-radix ISE
    // kernels 308, 354, 80 and 79.
    let rows = [
        (Full, IsaOnly, FpMul, 1333, 1148),
        (Full, IsaOnly, FpSqr, 1261, 1118),
        (Full, IsaOnly, FpAdd, 150, 109),
        (Full, IsaOnly, FpSub, 134, 93),
        (Full, IseSupported, FpMul, 805, 620),
        (Full, IseSupported, FpSqr, 797, 619),
        (Full, IseSupported, FpAdd, 150, 109),
        (Full, IseSupported, FpSub, 134, 93),
        (Reduced, IsaOnly, FpMul, 1417, 1182),
        (Reduced, IsaOnly, FpSqr, 1217, 1036),
        (Reduced, IsaOnly, FpAdd, 144, 80),
        (Reduced, IsaOnly, FpSub, 135, 87),
        (Reduced, IseSupported, FpMul, 655, 207),
        (Reduced, IseSupported, FpSqr, 603, 270),
        (Reduced, IseSupported, FpAdd, 128, 34),
        (Reduced, IseSupported, FpSub, 119, 41),
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
