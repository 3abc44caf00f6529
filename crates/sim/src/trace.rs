//! Execution tracing for debugging kernels.

use crate::asm::display_with_ext;
use crate::cpu::Cpu;
use crate::ext::IsaExtension;
use crate::inst::Inst;
use crate::reg::Reg;

/// One retired instruction with its architectural effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// PC the instruction executed at.
    pub pc: u64,
    /// The instruction.
    pub inst: Inst,
    /// Destination register and the value written, if any.
    pub wrote: Option<(Reg, u64)>,
}

/// Records retired instructions up to a bounded capacity.
///
/// Attach with [`crate::Machine::set_tracer`]; recover with
/// [`crate::Machine::take_tracer`]. Tracing is off by default because
/// MPI kernels retire hundreds of instructions per call.
///
/// # Examples
///
/// ```
/// use mpise_sim::{Assembler, Machine, Reg, trace::Tracer};
/// let mut a = Assembler::new();
/// a.li(Reg::T0, 7);
/// a.ebreak();
/// let mut m = Machine::new();
/// m.load_program(&a.finish());
/// m.set_tracer(Some(Tracer::new(16)));
/// m.run().unwrap();
/// let t = m.take_tracer().unwrap();
/// assert_eq!(t.entries()[0].wrote, Some((Reg::T0, 7)));
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    entries: Vec<TraceEntry>,
    capacity: usize,
    /// Total instructions seen (may exceed the retained capacity).
    pub total: u64,
}

impl Tracer {
    /// Creates a tracer retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            entries: Vec::new(),
            capacity,
            total: 0,
        }
    }

    /// Records one retired instruction (called by the machine).
    pub fn record(&mut self, pc: u64, inst: &Inst, cpu_after: &Cpu) {
        self.total += 1;
        if self.entries.len() < self.capacity {
            let wrote = inst.def().map(|rd| (rd, cpu_after.read_reg(rd)));
            self.entries.push(TraceEntry {
                pc,
                inst: *inst,
                wrote,
            });
        }
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Renders the trace as text, one line per instruction, with custom
    /// mnemonics resolved via `ext` (the traced machine's
    /// [`crate::Machine::ext`]).
    pub fn render(&self, ext: &IsaExtension) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let inst = display_with_ext(&e.inst, ext);
            match e.wrote {
                Some((rd, v)) => {
                    out.push_str(&format!("{:#8x}: {inst:32} {rd} = {v:#018x}\n", e.pc));
                }
                None => out.push_str(&format!("{:#8x}: {inst}\n", e.pc)),
            }
        }
        if self.total > self.entries.len() as u64 {
            out.push_str(&format!(
                "... {} more instructions not retained\n",
                self.total - self.entries.len() as u64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::machine::Machine;

    #[test]
    fn capacity_is_bounded() {
        let mut a = Assembler::new();
        for _ in 0..10 {
            a.addi(Reg::T0, Reg::T0, 1);
        }
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        m.set_tracer(Some(Tracer::new(3)));
        m.run().unwrap();
        let t = m.take_tracer().unwrap();
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.total, 11);
        assert!(t.render(m.ext()).contains("more instructions"));
    }

    #[test]
    fn take_tracer_resets_the_machine() {
        let mut a = Assembler::new();
        a.addi(Reg::T0, Reg::T0, 1);
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        m.set_tracer(Some(Tracer::new(8)));
        m.run().unwrap();
        let t = m.take_tracer().unwrap();
        assert_eq!(t.total, 2);
        // The machine no longer holds a tracer: taking again yields
        // nothing, and a re-run records nothing.
        assert!(m.take_tracer().is_none());
        m.cpu.pc = m.prog_base();
        m.run().unwrap();
        assert!(m.take_tracer().is_none());
        // A freshly attached tracer starts from zero rather than
        // accumulating onto the old run.
        m.set_tracer(Some(Tracer::new(8)));
        m.cpu.pc = m.prog_base();
        m.run().unwrap();
        assert_eq!(m.take_tracer().unwrap().total, 2);
    }

    #[test]
    fn records_writes() {
        use crate::ext::{CustomFormat, CustomId, CustomInstDef, ExecUnit};
        let mut ext = IsaExtension::new("t");
        ext.define(CustomInstDef {
            id: CustomId(77),
            mnemonic: "frob",
            format: CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0,
                funct2: 0,
            },
            exec: |rs1, _, _, _| rs1,
            unit: ExecUnit::Alu,
        })
        .unwrap();
        let mut a = Assembler::new();
        a.li(Reg::A0, 5);
        a.sd(Reg::A0, 0, Reg::Sp); // no def
        a.custom_r4(CustomId(77), Reg::A1, Reg::A0, Reg::A0, Reg::A0);
        a.ebreak();
        let mut m = Machine::with_ext(ext);
        m.cpu.write_reg(Reg::Sp, crate::machine::DATA_BASE + 64);
        m.load_program(&a.finish());
        m.set_tracer(Some(Tracer::new(8)));
        m.run().unwrap();
        let t = m.take_tracer().unwrap();
        assert_eq!(t.entries()[0].wrote, Some((Reg::A0, 5)));
        assert_eq!(t.entries()[1].wrote, None);
        assert_eq!(t.entries()[2].wrote, Some((Reg::A1, 5)));
        // A custom instruction renders under its extension mnemonic.
        let text = t.render(m.ext());
        assert!(text.contains("frob a1, a0, a0, a0"), "{text}");
    }
}
