//! Pins how many micro-ops the simulator dispatches per call of the
//! four reduced-radix ISE field kernels, the ones a simulated CSIDH
//! action runs. The simulator fuses each MAC chain, `ld`/`sd` run and
//! MAC pair of a block into one micro-op (DESIGN.md §9.5); a kernel
//! change that silently breaks a chain or a run moves a count here,
//! although no cycle count moves. A deliberate change updates the pin.

use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind, Radix};
use mpise_fp::measure::kernel_machine;

#[test]
fn reduced_radix_ise_field_kernels_keep_their_fused_micro_op_counts() {
    let config = Config {
        radix: Radix::Reduced,
        ise: IseMode::IseSupported,
    };
    let set = KernelSet::build(config);
    // (kernel, instructions, micro-ops); the parent of chain and run
    // fusion, which fused MAC pairs only, ran 493, 477, 128 and 119.
    for (op, insts, micro_ops) in [
        (OpKind::FpMul, 655, 308),
        (OpKind::FpSqr, 603, 354),
        (OpKind::FpAdd, 128, 80),
        (OpKind::FpSub, 119, 79),
    ] {
        let program = set.kernel(op);
        let m = kernel_machine(config, program);
        assert_eq!((program.len(), m.micro_ops()), (insts, micro_ops), "{op:?}");
    }
}
