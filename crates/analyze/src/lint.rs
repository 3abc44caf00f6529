//! ISA encoding lints for custom-instruction extensions.
//!
//! Validates every [`CustomInstDef`] registered in an [`IsaExtension`]
//! against the paper's Table 1 contract and against the structural
//! rules of the RV64 encoding space. Related reproduction efforts
//! report opcode/funct collisions as the single most common ISE bug,
//! so the checks are deliberately paranoid:
//!
//! 1. **field ranges** — opcode fits 7 bits with the 32-bit-length
//!    marker `0b11` in its low bits, funct3 fits 3 bits, funct2 fits
//!    2 bits;
//! 2. **opcode space** — the major opcode collides with none of the
//!    base RV64IM opcodes the decoder claims (error) and lies in one
//!    of the four reserved *custom-N* spaces (warning otherwise);
//! 3. **encode→decode round-trips** — for a grid of operand values,
//!    [`encode_custom`]/[`decode_custom_operands`] invert each other,
//!    [`IsaExtension::match_encoding`] resolves the raw word back to
//!    the same definition (catching intra-extension overlaps, e.g. an
//!    R4/RShamt pair sharing opcode+funct3 that becomes ambiguous when
//!    `rs3` sets bit 31), and the full [`encode`]/[`decode`] pipeline
//!    reproduces the instruction;
//! 4. **Table 1 contract** — the paper's six mnemonics carry exactly
//!    the encodings of Table 1 / Figures 1–3;
//! 5. **§3.2 guideline 3** — at most two sources and one destination,
//!    except for the performance-critical MAC: only the `madd*` family
//!    and `cadd` (which folds into the MAC sequence of Listing 3 and
//!    shares XMUL's third read port) may use the R4 format (warning
//!    otherwise). Guidelines 1 and 2 — GPR operands only, no extra
//!    architectural state — hold by construction for any
//!    [`IsaExtension`]: [`CustomInstDef::exec`] is a pure function from
//!    GPR values to one GPR value.

use mpise_sim::decode::decode;
use mpise_sim::encode::encode;
use mpise_sim::ext::{
    decode_custom_operands, encode_custom, CustomFormat, CustomInstDef, IsaExtension,
    CUSTOM_OPCODES,
};
use mpise_sim::inst::{Inst, BASE_OPCODES};
use mpise_sim::Reg;
use std::fmt;

/// The paper's Table 1: expected encoding per mnemonic. `cadd` and
/// `madd57lu` intentionally share an encoding point — they belong to
/// *alternative* extensions that are never merged.
const TABLE1: [(&str, CustomFormat); 6] = [
    (
        "maddlu",
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2: 0b00,
        },
    ),
    (
        "maddhu",
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2: 0b01,
        },
    ),
    (
        "cadd",
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2: 0b10,
        },
    ),
    (
        "madd57lu",
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2: 0b10,
        },
    ),
    (
        "madd57hu",
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2: 0b11,
        },
    ),
    (
        "sraiadd",
        CustomFormat::RShamt {
            opcode: 0b0101011,
            funct3: 0b111,
            bit31: true,
        },
    ),
];

/// Severity of a [`LintFinding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// The encoding is wrong or ambiguous; the extension must not ship.
    Error,
    /// Unusual but functional (e.g. an opcode outside the custom-N
    /// spaces).
    Warning,
}

/// One lint finding against one instruction definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Mnemonic of the offending definition.
    pub mnemonic: String,
    /// Severity.
    pub level: LintLevel,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.level {
            LintLevel::Error => "error",
            LintLevel::Warning => "warning",
        };
        write!(f, "{tag}: `{}`: {}", self.mnemonic, self.message)
    }
}

/// Result of linting one extension.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Name of the linted extension.
    pub ext_name: String,
    /// Number of definitions checked.
    pub checked: usize,
    /// All findings, errors first.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// Whether the extension has no error-level findings.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.level != LintLevel::Error)
    }

    /// Renders every finding on its own line.
    pub fn render(&self) -> String {
        self.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Register values exercising every field boundary, including `rs3`
/// values with bit 31 of the encoding both clear (`< x16`) and set
/// (`>= x16`) — the case that exposes R4/RShamt ambiguity.
const SAMPLE_REGS: [Reg; 6] = [Reg::Zero, Reg::Ra, Reg::A0, Reg::A5, Reg::T3, Reg::T6];

/// Shift amounts exercising the 6-bit imm field of RShamt.
const SAMPLE_IMMS: [u8; 5] = [0, 1, 7, 57, 63];

/// Lints one extension.
pub fn lint_extension(ext: &IsaExtension) -> LintReport {
    let mut findings = Vec::new();
    for def in ext.defs() {
        lint_fields(def, &mut findings);
        lint_opcode_space(def, &mut findings);
        lint_round_trip(ext, def, &mut findings);
        lint_table1(def, &mut findings);
        lint_r4_is_mac(def, &mut findings);
    }
    lint_cross_format(ext, &mut findings);
    findings.sort_by_key(|f| f.level == LintLevel::Warning);
    LintReport {
        ext_name: ext.name().to_owned(),
        checked: ext.defs().len(),
        findings,
    }
}

fn err(def: &CustomInstDef, message: String) -> LintFinding {
    LintFinding {
        mnemonic: def.mnemonic.to_owned(),
        level: LintLevel::Error,
        message,
    }
}

fn warn(def: &CustomInstDef, message: String) -> LintFinding {
    LintFinding {
        mnemonic: def.mnemonic.to_owned(),
        level: LintLevel::Warning,
        message,
    }
}

fn lint_fields(def: &CustomInstDef, findings: &mut Vec<LintFinding>) {
    let opcode = def.format.opcode();
    if opcode >= 0x80 {
        findings.push(err(def, format!("major opcode {opcode:#x} exceeds 7 bits")));
    }
    if opcode & 0b11 != 0b11 {
        findings.push(err(
            def,
            format!(
                "major opcode {opcode:#09b} lies in the compressed (16-bit) space; \
                 32-bit encodings need low bits 0b11"
            ),
        ));
    }
    match def.format {
        CustomFormat::R4 { funct3, funct2, .. } => {
            if funct3 >= 8 {
                findings.push(err(def, format!("funct3 {funct3:#x} exceeds 3 bits")));
            }
            if funct2 >= 4 {
                findings.push(err(def, format!("funct2 {funct2:#x} exceeds 2 bits")));
            }
        }
        CustomFormat::RShamt { funct3, .. } => {
            if funct3 >= 8 {
                findings.push(err(def, format!("funct3 {funct3:#x} exceeds 3 bits")));
            }
        }
    }
}

fn lint_opcode_space(def: &CustomInstDef, findings: &mut Vec<LintFinding>) {
    let opcode = def.format.opcode();
    if BASE_OPCODES.contains(&opcode) {
        findings.push(err(
            def,
            format!(
                "major opcode {opcode:#09b} collides with a base RV64IM opcode \
                 (the decoder resolves base opcodes first, so this instruction \
                 is unreachable or corrupts base decoding)"
            ),
        ));
    } else if !CUSTOM_OPCODES.contains(&opcode) {
        findings.push(warn(
            def,
            format!(
                "major opcode {opcode:#09b} is outside the reserved custom-0..3 \
                 spaces; future standard extensions may claim it"
            ),
        ));
    }
}

fn lint_round_trip(ext: &IsaExtension, def: &CustomInstDef, findings: &mut Vec<LintFinding>) {
    for &rd in &SAMPLE_REGS {
        for &rs1 in &SAMPLE_REGS {
            for &rs2 in &SAMPLE_REGS {
                let (rs3s, imms): (&[Reg], &[u8]) = if def.format.has_rs3() {
                    (&SAMPLE_REGS, &[0])
                } else {
                    (&[Reg::Zero], &SAMPLE_IMMS)
                };
                for &rs3 in rs3s {
                    for &imm in imms {
                        if !round_trip_once(ext, def, rd, rs1, rs2, rs3, imm, findings) {
                            return; // one counterexample per def is enough
                        }
                    }
                }
            }
        }
    }
}

/// Checks one operand assignment; returns `false` on the first finding
/// so the caller can stop early.
#[allow(clippy::too_many_arguments)]
fn round_trip_once(
    ext: &IsaExtension,
    def: &CustomInstDef,
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
    rs3: Reg,
    imm: u8,
    findings: &mut Vec<LintFinding>,
) -> bool {
    let raw = encode_custom(def.format, rd, rs1, rs2, rs3, imm);
    let (drd, drs1, drs2, drs3, dimm) = decode_custom_operands(def.format, raw);
    if (drd, drs1, drs2, drs3, dimm) != (rd, rs1, rs2, rs3, imm) {
        findings.push(err(
            def,
            format!(
                "field round-trip mismatch: encoded ({rd}, {rs1}, {rs2}, {rs3}, {imm}), \
                 decoded ({drd}, {drs1}, {drs2}, {drs3}, {dimm}) from raw {raw:#010x}"
            ),
        ));
        return false;
    }
    match ext.match_encoding(raw) {
        Some(hit) if hit.id == def.id => {}
        Some(hit) => {
            findings.push(err(
                def,
                format!(
                    "encoding overlap: raw {raw:#010x} (operands {rd}, {rs1}, {rs2}, \
                     {rs3}/{imm}) decodes as `{}` — ambiguous encoding points within \
                     the extension",
                    hit.mnemonic
                ),
            ));
            return false;
        }
        None => {
            findings.push(err(
                def,
                format!("raw {raw:#010x} does not match any definition of its own extension"),
            ));
            return false;
        }
    }
    // Full pipeline: Inst -> encode -> decode -> Inst.
    let inst = Inst::Custom {
        id: def.id,
        rd,
        rs1,
        rs2,
        rs3: if def.format.has_rs3() { rs3 } else { Reg::Zero },
        imm: if def.format.has_rs3() { 0 } else { imm },
    };
    match encode(&inst, ext) {
        Ok(word) => match decode(word, ext) {
            Ok(back) if back == inst => true,
            Ok(back) => {
                findings.push(err(
                    def,
                    format!("encode/decode round-trip mismatch: {inst} became {back}"),
                ));
                false
            }
            Err(e) => {
                findings.push(err(def, format!("decode of own encoding failed: {e}")));
                false
            }
        },
        Err(e) => {
            findings.push(err(def, format!("encode failed: {e}")));
            false
        }
    }
}

fn lint_table1(def: &CustomInstDef, findings: &mut Vec<LintFinding>) {
    if let Some((_, expected)) = TABLE1.iter().find(|(m, _)| *m == def.mnemonic) {
        if def.format != *expected {
            findings.push(err(
                def,
                format!(
                    "Table 1 contract violation: expected {expected:?}, found {:?}",
                    def.format
                ),
            ));
        }
    }
}

fn lint_r4_is_mac(def: &CustomInstDef, findings: &mut Vec<LintFinding>) {
    let is_mac_family = def.mnemonic.contains("madd") || def.mnemonic == "cadd";
    if def.format.has_rs3() && !is_mac_family {
        findings.push(warn(
            def,
            "uses the R4 format but is not a multiply-add; §3.2 guideline 3 \
             reserves a third source register for the MAC"
                .to_owned(),
        ));
    }
}

/// R4 and RShamt definitions sharing (opcode, funct3) are structurally
/// ambiguous: an R4 `rs3` with its top bit equal to the RShamt `bit31`
/// produces a word matching both patterns. The sampled round-trip also
/// catches this, but only for whichever definition `match_encoding`
/// resolves second — this check names both parties.
fn lint_cross_format(ext: &IsaExtension, findings: &mut Vec<LintFinding>) {
    let defs = ext.defs();
    for (i, a) in defs.iter().enumerate() {
        for b in &defs[i + 1..] {
            let clash = match (a.format, b.format) {
                (
                    CustomFormat::R4 {
                        opcode: oa,
                        funct3: fa,
                        ..
                    },
                    CustomFormat::RShamt {
                        opcode: ob,
                        funct3: fb,
                        ..
                    },
                )
                | (
                    CustomFormat::RShamt {
                        opcode: oa,
                        funct3: fa,
                        ..
                    },
                    CustomFormat::R4 {
                        opcode: ob,
                        funct3: fb,
                        ..
                    },
                ) => oa == ob && fa == fb,
                _ => false,
            };
            if clash {
                findings.push(LintFinding {
                    mnemonic: a.mnemonic.to_owned(),
                    level: LintLevel::Error,
                    message: format!(
                        "R4/RShamt ambiguity with `{}`: both claim opcode {:#09b} \
                         funct3 {:#05b}, so half the rs3 space decodes as the other \
                         instruction",
                        b.mnemonic,
                        a.format.opcode(),
                        match a.format {
                            CustomFormat::R4 { funct3, .. }
                            | CustomFormat::RShamt { funct3, .. } => funct3,
                        }
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::ext::{CustomId, ExecUnit};

    fn nop_exec(_: u64, _: u64, _: u64, _: u8) -> u64 {
        0
    }

    fn def(id: u16, mnemonic: &'static str, format: CustomFormat) -> CustomInstDef {
        CustomInstDef {
            id: CustomId(id),
            mnemonic,
            format,
            exec: nop_exec,
            unit: ExecUnit::Alu,
        }
    }

    #[test]
    fn clean_extension_passes() {
        let mut e = IsaExtension::new("clean");
        e.define(def(
            100,
            "maddalpha",
            CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b111,
                funct2: 0b00,
            },
        ))
        .unwrap();
        e.define(def(
            101,
            "beta",
            CustomFormat::RShamt {
                opcode: 0b0101011,
                funct3: 0b111,
                bit31: true,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(report.findings.is_empty(), "{}", report.render());
        assert_eq!(report.checked, 2);
    }

    #[test]
    fn base_opcode_collision_is_an_error() {
        let mut e = IsaExtension::new("bad");
        e.define(def(
            100,
            "stomp",
            CustomFormat::R4 {
                opcode: 0b0110011, // the base OP opcode
                funct3: 0b111,
                funct2: 0b00,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(!report.passed());
        assert!(
            report.render().contains("base RV64IM"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn non_custom_space_is_a_warning_only() {
        let mut e = IsaExtension::new("odd");
        e.define(def(
            100,
            "weird",
            CustomFormat::R4 {
                opcode: 0b1010011, // OP-FP space, unused by this decoder
                funct3: 0b111,
                funct2: 0b00,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.level == LintLevel::Warning && f.message.contains("custom-0..3")));
    }

    #[test]
    fn r4_rshamt_ambiguity_is_detected() {
        let mut e = IsaExtension::new("ambiguous");
        e.define(def(
            100,
            "four",
            CustomFormat::R4 {
                opcode: 0b0101011,
                funct3: 0b111,
                funct2: 0b10,
            },
        ))
        .unwrap();
        e.define(def(
            101,
            "shamt",
            CustomFormat::RShamt {
                opcode: 0b0101011,
                funct3: 0b111,
                bit31: true,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(!report.passed());
        assert!(report.render().contains("ambiguity"), "{}", report.render());
    }

    #[test]
    fn table1_contract_violation_is_detected() {
        let mut e = IsaExtension::new("drifted");
        // maddlu with the wrong funct2.
        e.define(def(
            1,
            "maddlu",
            CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b111,
                funct2: 0b11,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(!report.passed());
        assert!(report.render().contains("Table 1"), "{}", report.render());
    }

    #[test]
    fn r4_non_mac_is_flagged() {
        let mut e = IsaExtension::new("bad");
        e.define(def(
            900,
            "frobnicate",
            CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b001,
                funct2: 0b00,
            },
        ))
        .unwrap();
        let report = lint_extension(&e);
        assert!(report.passed(), "a warning, not an error");
        assert!(
            report.findings.iter().any(|f| f.level == LintLevel::Warning
                && f.mnemonic == "frobnicate"
                && f.message.contains("guideline 3")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn compressed_space_opcode_is_an_error() {
        let mut e = IsaExtension::new("c");
        e.define(def(
            100,
            "cmp",
            CustomFormat::R4 {
                opcode: 0b0001010, // low bits != 0b11
                funct3: 0b111,
                funct2: 0b00,
            },
        ))
        .unwrap();
        assert!(!lint_extension(&e).passed());
    }
}
