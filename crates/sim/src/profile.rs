//! Instruction mix: per-mnemonic counts ([`InstMix`]) — "how many
//! `mulhu`/`sltu`/`add` does a Montgomery multiplication really
//! execute", the instruction-count arguments of §3.1.

use crate::asm::display_with_ext;
use crate::ext::IsaExtension;
use crate::inst::Inst;
use std::collections::BTreeMap;

/// Per-mnemonic retirement counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstMix {
    counts: BTreeMap<String, u64>,
    total: u64,
}

impl InstMix {
    /// Creates an empty profile.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one retired instruction under the mnemonic the
    /// disassembler prints for it (custom mnemonics resolved via `ext`).
    pub(crate) fn record(&mut self, inst: &Inst, ext: &IsaExtension) {
        let text = display_with_ext(inst, ext);
        let mnemonic = text.split(' ').next().unwrap_or_default();
        *self.counts.entry(mnemonic.to_owned()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Count for one mnemonic (0 when never retired).
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All `(mnemonic, count)` pairs, most frequent first.
    pub(crate) fn sorted(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self.counts.iter().map(|(k, &c)| (k.as_str(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Renders a histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (m, c) in self.sorted() {
            out.push_str(&format!(
                "{:10} {:>8}  ({:5.1}%)\n",
                m,
                c,
                100.0 * c as f64 / self.total.max(1) as f64
            ));
        }
        out.push_str(&format!("{:10} {:>8}\n", "total", self.total));
        out
    }
}

/// Computes the static instruction mix of a program (no execution).
pub fn static_mix(program: &crate::asm::Program, ext: &IsaExtension) -> InstMix {
    let mut mix = InstMix::new();
    for inst in program.insts() {
        mix.record(inst, ext);
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::Reg;

    #[test]
    fn static_mix_counts() {
        let mut a = Assembler::new();
        a.mulhu(Reg::T0, Reg::A0, Reg::A1);
        a.mul(Reg::T1, Reg::A0, Reg::A1);
        a.add(Reg::T2, Reg::T0, Reg::T1);
        a.add(Reg::T3, Reg::T2, Reg::T1);
        a.ebreak();
        let mix = static_mix(&a.finish(), &IsaExtension::new("none"));
        assert_eq!(mix.count("mulhu"), 1);
        assert_eq!(mix.count("add"), 2);
        assert_eq!(mix.count("nop"), 0);
        assert_eq!(mix.total(), 5);
        assert_eq!(mix.sorted()[0], ("add", 2));
        assert!(mix.render().contains("mulhu"));
    }

    #[test]
    fn custom_mnemonics_resolved() {
        let ext = mpise_core_free_test_ext();
        let mut a = Assembler::new();
        a.custom_r4(crate::ext::CustomId(77), Reg::A0, Reg::A1, Reg::A2, Reg::A3);
        let mix = static_mix(&a.finish(), &ext);
        assert_eq!(mix.count("frob"), 1);
    }

    #[test]
    fn unregistered_custom_falls_back_to_numbered_mnemonic() {
        let mut a = Assembler::new();
        a.custom_r4(
            crate::ext::CustomId(123),
            Reg::A0,
            Reg::A1,
            Reg::A2,
            Reg::A3,
        );
        let mix = static_mix(&a.finish(), &IsaExtension::new("none"));
        assert_eq!(mix.count("custom.123"), 1);
        assert!(mix.render().contains("custom.123"));
    }

    fn mpise_core_free_test_ext() -> IsaExtension {
        let mut e = IsaExtension::new("t");
        e.define(crate::ext::CustomInstDef {
            id: crate::ext::CustomId(77),
            mnemonic: "frob",
            format: crate::ext::CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0,
                funct2: 0,
            },
            exec: |rs1, _, _, _| rs1,
            unit: crate::ext::ExecUnit::Alu,
        })
        .unwrap();
        e
    }
}
