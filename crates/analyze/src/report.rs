//! Structured diagnostics shared by the taint and lint passes.

use std::fmt;

/// The class of constant-time violation a [`Diagnostic`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A conditional branch (or indirect jump) whose condition/target
    /// depends on secret data — the classic timing side channel.
    SecretBranch,
    /// A load or store whose *address* depends on secret data —
    /// observable through cache timing.
    SecretAddress,
    /// A secret operand reaching an instruction with data-dependent
    /// latency (the iterative divider on Rocket; see
    /// `mpise_sim::timing`).
    VariableLatency,
    /// A custom instruction not registered in the extension under
    /// analysis; its dataflow cannot be modelled, so the program is
    /// rejected rather than silently under-approximated.
    UnknownCustom,
    /// The dataflow fixpoint did not converge within the iteration
    /// budget; the analysis result would be unsound, so the program is
    /// rejected.
    AnalysisIncomplete,
}

impl ViolationKind {
    /// Short human-readable label.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            ViolationKind::SecretBranch => "secret-dependent branch",
            ViolationKind::SecretAddress => "secret-dependent address",
            ViolationKind::VariableLatency => "secret operand to variable-latency instruction",
            ViolationKind::UnknownCustom => "unknown custom instruction",
            ViolationKind::AnalysisIncomplete => "analysis incomplete",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One constant-time violation, anchored to a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Instruction index within the program.
    pub index: usize,
    /// Byte address of the instruction (all instructions are 4 bytes).
    pub pc: u64,
    /// The offending instruction, rendered in assembler syntax.
    pub inst: String,
    /// Violation class.
    pub kind: ViolationKind,
    /// What exactly was tainted (registers, regions, …).
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[pc {:#06x}] {}: {} ({})",
            self.pc, self.inst, self.kind, self.detail
        )
    }
}

/// Result of one taint-analysis run over a program.
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    /// All violations, in program order.
    pub diagnostics: Vec<Diagnostic>,
    /// Instructions reachable from the entry (and therefore analyzed).
    pub insts_analyzed: usize,
    /// Worklist iterations until the fixpoint.
    pub iterations: usize,
}

impl TaintReport {
    /// Whether the program is constant-time under the given spec.
    pub fn passed(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders every diagnostic on its own line.
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_pc_and_instruction() {
        let d = Diagnostic {
            index: 4,
            pc: 0x10,
            inst: "bne t0, zero, 8".into(),
            kind: ViolationKind::SecretBranch,
            detail: "operand t0 is secret".into(),
        };
        let s = d.to_string();
        assert!(s.contains("0x0010"), "pc missing: {s}");
        assert!(s.contains("bne t0, zero, 8"), "inst missing: {s}");
        assert!(s.contains("secret-dependent branch"), "kind missing: {s}");
    }

    #[test]
    fn empty_report_passes() {
        assert!(TaintReport::default().passed());
    }
}
