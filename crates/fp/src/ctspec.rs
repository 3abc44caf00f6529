//! Taint specifications for the generated kernels, binding the kernel
//! calling convention (see [`crate::kernels`]) to the static
//! constant-time analysis of `mpise-analyze`.
//!
//! The threat model matches the paper's: field-element *operands* are
//! key-dependent secrets (during the group action they are coordinates
//! derived from the private key), while the modulus constants, all
//! pointers, and the code itself are public. A kernel passes when no
//! secret operand limb can influence control flow, memory addressing,
//! or variable-latency execution.

use crate::kernels::{Config, KernelSet, OpKind};
use mpise_analyze::taint::{analyze_program, Secrecy, TaintSpec};
use mpise_analyze::TaintReport;
use mpise_sim::Reg;

/// Builds the [`TaintSpec`] for one kernel operation under the shared
/// calling convention: `a0` result, `a1`/`a2` secret operands (`a2`
/// only for binary ops), `a3` public constant pool, `sp` stack.
pub(crate) fn kernel_taint_spec(op: OpKind) -> TaintSpec {
    let mut spec = TaintSpec::new();
    let out = spec.region(Secrecy::Public);
    let op1 = spec.region(Secrecy::Secret);
    let consts = spec.region(Secrecy::Public);
    let stack = spec.region(Secrecy::Public);
    spec.entry_pointer(Reg::A0, out);
    spec.entry_pointer(Reg::A1, op1);
    spec.entry_pointer(Reg::A3, consts);
    spec.entry_pointer(Reg::Sp, stack);
    if op.arity() > 1 {
        let op2 = spec.region(Secrecy::Secret);
        spec.entry_pointer(Reg::A2, op2);
    }
    spec
}

/// Runs the taint analysis on one kernel of one configuration.
pub fn verify_kernel(config: Config, op: OpKind) -> TaintReport {
    let set = KernelSet::build(config);
    analyze_program(set.kernel(op), &config.extension(), &kernel_taint_spec(op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_kernel_is_statically_constant_time() {
        for config in Config::ALL {
            for op in OpKind::ALL {
                let report = verify_kernel(config, op);
                assert!(
                    report.passed(),
                    "{config}: {op:?} leaks:\n{}",
                    report.render()
                );
                assert!(report.insts_analyzed > 0, "{config}: {op:?} not analyzed");
            }
        }
    }

    #[test]
    fn analysis_covers_whole_kernels() {
        // Straight-line kernels: every instruction must be reachable.
        for config in [Config::ALL[0], Config::ALL[3]] {
            let set = KernelSet::build(config);
            for (op, prog) in set.iter() {
                let report = verify_kernel(config, op);
                assert_eq!(
                    report.insts_analyzed,
                    prog.len(),
                    "{config}: {op:?} has unreachable instructions"
                );
            }
        }
    }
}
