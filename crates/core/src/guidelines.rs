//! Design-rule checks for the ISE design principles of §3.2.
//!
//! The paper adopts the guidelines of Marshall et al. (CHES 2021) so the
//! proposed instructions "could be considered to become part of a
//! standard extension":
//!
//! 1. operands live in the general-purpose scalar register file;
//! 2. no special-purpose architectural or micro-architectural state;
//! 3. at most two source registers and one destination — except that
//!    the performance-critical MAC operation may use the R4 format.
//!
//! Principles 1 and 2 hold *by construction* for any
//! [`mpise_sim::ext::IsaExtension`]: the execution model
//! is a pure function from GPR values to one GPR value (see
//! [`mpise_sim::ext::CustomInstDef::exec`]). Principle 3 is a property
//! of the chosen encodings and is checked here, together with encoding
//! hygiene rules (custom opcode space only, no overlap).

use mpise_sim::ext::{CustomFormat, IsaExtension, CUSTOM_OPCODES};

/// One violated design rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An R4-format instruction whose mnemonic does not mark it as a
    /// multiply-add ("madd…"): guideline 3 reserves R4 for the MAC.
    R4NotMac {
        /// The offending mnemonic.
        mnemonic: &'static str,
    },
    /// An instruction encodes outside the custom opcode space and could
    /// collide with current or future standard extensions.
    NonCustomOpcode {
        /// The offending mnemonic.
        mnemonic: &'static str,
        /// Its major opcode.
        opcode: u8,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::R4NotMac { mnemonic } => write!(
                f,
                "`{mnemonic}` uses the R4 format but is not a multiply-add"
            ),
            Violation::NonCustomOpcode { mnemonic, opcode } => {
                write!(f, "`{mnemonic}` uses non-custom major opcode {opcode:#09b}")
            }
        }
    }
}

/// Result of checking an extension against the design guidelines.
#[derive(Debug, Clone, Default)]
pub struct DesignReport {
    /// All rule violations found (empty = compliant).
    pub violations: Vec<Violation>,
    /// Number of instructions using the exceptional R4 format.
    pub r4_count: usize,
    /// Number of instructions within the 2-source/1-destination budget.
    pub two_source_count: usize,
}

impl DesignReport {
    /// Whether the extension satisfies all checkable guidelines.
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks `ext` against the §3.2 guidelines.
///
/// # Examples
///
/// ```
/// use mpise_core::{full_radix_ext, reduced_radix_ext, guidelines::check};
/// assert!(check(&full_radix_ext()).is_compliant());
/// assert!(check(&reduced_radix_ext()).is_compliant());
/// ```
pub fn check(ext: &IsaExtension) -> DesignReport {
    let mut report = DesignReport::default();
    for def in ext.defs() {
        match def.format {
            CustomFormat::R4 { opcode, .. } => {
                report.r4_count += 1;
                // Guideline 3: R4 only for the MAC operation. `cadd`
                // is the documented second exception: it folds into the
                // MAC sequence (Listing 3) and shares XMUL's third read
                // port, so the paper treats it as part of the MAC
                // budget.
                let is_mac_family = def.mnemonic.contains("madd") || def.mnemonic == "cadd";
                if !is_mac_family {
                    report.violations.push(Violation::R4NotMac {
                        mnemonic: def.mnemonic,
                    });
                }
                if !CUSTOM_OPCODES.contains(&opcode) {
                    report.violations.push(Violation::NonCustomOpcode {
                        mnemonic: def.mnemonic,
                        opcode,
                    });
                }
            }
            CustomFormat::RShamt { opcode, .. } => {
                report.two_source_count += 1;
                if !CUSTOM_OPCODES.contains(&opcode) {
                    report.violations.push(Violation::NonCustomOpcode {
                        mnemonic: def.mnemonic,
                        opcode,
                    });
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::ext::{CustomArgs, CustomId, CustomInstDef, ExecUnit};

    fn dummy(a: CustomArgs) -> u64 {
        a.rs1
    }

    #[test]
    fn paper_extensions_are_compliant() {
        let full = check(&crate::full_radix_ext());
        assert!(full.is_compliant(), "{:?}", full.violations);
        assert_eq!(full.r4_count, 3);

        let red = check(&crate::reduced_radix_ext());
        assert!(red.is_compliant(), "{:?}", red.violations);
        assert_eq!(red.r4_count, 2);
        assert_eq!(red.two_source_count, 1);
    }

    #[test]
    fn r4_non_mac_is_flagged() {
        let mut e = IsaExtension::new("bad");
        e.define(CustomInstDef {
            id: CustomId(900),
            mnemonic: "frobnicate",
            format: CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b001,
                funct2: 0b00,
            },
            exec: dummy,
            unit: ExecUnit::Alu,
        })
        .unwrap();
        let r = check(&e);
        assert!(!r.is_compliant());
        assert!(matches!(r.violations[0], Violation::R4NotMac { .. }));
    }

    #[test]
    fn standard_opcode_is_flagged() {
        let mut e = IsaExtension::new("bad");
        e.define(CustomInstDef {
            id: CustomId(901),
            mnemonic: "maddbad",
            format: CustomFormat::R4 {
                opcode: 0b0110011, // the standard OP opcode!
                funct3: 0b001,
                funct2: 0b00,
            },
            exec: dummy,
            unit: ExecUnit::Alu,
        })
        .unwrap();
        let r = check(&e);
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::NonCustomOpcode { .. })));
    }
}
