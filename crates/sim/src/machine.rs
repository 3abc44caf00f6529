//! The top-level simulator: CPU + memory + program + extensions + timing.

use crate::asm::Program;
use crate::cpu::{Cpu, Trap};
use crate::ext::{CustomArgs, IsaExtension};
use crate::inst::Inst;
use crate::mem::Memory;
use crate::reg::Reg;
use crate::timing::{PipelineModel, PreDecoded, TimingConfig, TimingStats};
use crate::trace::Tracer;

/// Default base address of loaded programs.
pub const PROG_BASE: u64 = 0x0000_1000;
/// Default base address of data memory.
pub const DATA_BASE: u64 = 0x8000_0000;
/// Default data memory size (1 MiB).
pub const DATA_SIZE: usize = 1 << 20;
/// Default instruction budget before a run aborts (guards against
/// runaway loops in tests).
pub const DEFAULT_FUEL: u64 = 200_000_000;

/// How a [`Machine::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// `ebreak` executed.
    Breakpoint,
    /// `ecall` executed.
    EnvironmentCall,
    /// Execution returned to the sentinel return address installed by
    /// [`Machine::call`].
    Returned,
}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cycles elapsed under the pipeline model.
    pub cycles: u64,
    /// Why the run stopped.
    pub halt: Halt,
    /// Detailed per-class counters **for this run only**: like
    /// `instret` and `cycles`, a delta between the pipeline counters at
    /// the start and end of the run, so back-to-back [`Machine::run`]
    /// calls report disjoint counts that sum to the totals.
    pub timing: TimingStats,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instret as f64
        }
    }
}

/// Error produced by [`Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The CPU trapped (memory fault, illegal instruction, PC escape).
    Trap(Trap),
    /// The instruction budget ([`Machine::set_fuel`]) was exhausted.
    OutOfFuel {
        /// The budget that was exhausted.
        fuel: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Trap(t) => write!(f, "trap: {t}"),
            RunError::OutOfFuel { fuel } => write!(f, "out of fuel after {fuel} instructions"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<Trap> for RunError {
    fn from(t: Trap) -> Self {
        RunError::Trap(t)
    }
}

/// A complete simulated RV64 machine.
///
/// The program lives in a dedicated instruction region starting at
/// [`PROG_BASE`] (Harvard-style — kernels address data only through
/// pointers, matching how the paper's kernels receive operand pointers
/// in `a0..a2`). Data memory starts at [`DATA_BASE`]; the stack pointer
/// is initialised to its top.
///
/// # Examples
///
/// Calling a two-argument "function" with [`Machine::call`]:
///
/// ```
/// use mpise_sim::{Assembler, Machine, Reg};
/// let mut a = Assembler::new();
/// a.mul(Reg::A0, Reg::A0, Reg::A1);
/// a.ret();
/// let mut m = Machine::new();
/// m.load_program(&a.finish());
/// let stats = m.call(&[(Reg::A0, 6), (Reg::A1, 7)]).unwrap();
/// assert_eq!(m.cpu.read_reg(Reg::A0), 42);
/// assert!(stats.cycles >= stats.instret);
/// ```
#[derive(Debug)]
pub struct Machine {
    /// Architectural CPU state.
    pub cpu: Cpu,
    /// Data memory.
    pub mem: Memory,
    ext: IsaExtension,
    program: Vec<Inst>,
    /// Per-instruction metadata pre-computed at [`Machine::load_program`]
    /// time (timing facts, control-flow kind, resolved custom handler),
    /// parallel to `program`. This is what keeps the fetch→step→retire
    /// loop free of allocation and extension-registry lookups.
    pre: Vec<PreInst>,
    prog_base: u64,
    pipeline: PipelineModel,
    fuel: u64,
    tracer: Option<Tracer>,
}

/// How an instruction interacts with the fetch stream, pre-classified
/// so the run loop's taken-branch decision is branch-free on the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlKind {
    /// Not a control-transfer instruction.
    None,
    /// Conditional branch: redirects fetch only when its target differs
    /// from the fall-through address.
    CondBranch,
    /// Unconditional jump (`jal`/`jalr`): always redirects fetch on
    /// Rocket, even when the target happens to be the fall-through
    /// address.
    Jump,
}

/// One pre-decoded program slot (see [`Machine::load_program`]).
#[derive(Debug, Clone, Copy)]
struct PreInst {
    /// Timing facts consumed by [`PipelineModel::retire_pre`].
    timing: PreDecoded,
    /// Control-flow classification for the taken heuristic.
    control: ControlKind,
    /// Resolved execution function for registered custom instructions;
    /// `None` for base-ISA instructions (executed by [`Cpu::step`]) and
    /// unregistered ids (which trap there).
    custom_exec: Option<fn(CustomArgs) -> u64>,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// Creates a machine with default memory, no extensions and the
    /// Rocket-like default timing.
    pub fn new() -> Self {
        Self::with_ext(IsaExtension::new("rv64im"))
    }

    /// Creates a machine with the given ISA extension attached.
    pub fn with_ext(ext: IsaExtension) -> Self {
        let mut cpu = Cpu::new();
        cpu.write_reg(Reg::Sp, DATA_BASE + DATA_SIZE as u64);
        Machine {
            cpu,
            mem: Memory::new(DATA_BASE, DATA_SIZE),
            ext,
            program: Vec::new(),
            pre: Vec::new(),
            prog_base: PROG_BASE,
            pipeline: PipelineModel::new(TimingConfig::default()),
            fuel: DEFAULT_FUEL,
            tracer: None,
        }
    }

    /// Replaces the timing configuration (resets the pipeline clock).
    pub fn set_timing(&mut self, config: TimingConfig) {
        self.pipeline = PipelineModel::new(config);
    }

    /// Sets the instruction budget for subsequent runs.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Attaches an execution tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Option<Tracer>) {
        self.tracer = tracer;
    }

    /// Takes the tracer back out, with whatever it recorded.
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.tracer.take()
    }

    /// The attached extension registry.
    pub fn ext(&self) -> &IsaExtension {
        &self.ext
    }

    /// Loads `program` at [`PROG_BASE`], points the PC at its first
    /// instruction, and pre-decodes every instruction (timing facts,
    /// control-flow kind, resolved custom-instruction handler) so the
    /// run loop does no per-step lookup or allocation work.
    pub fn load_program(&mut self, program: &Program) {
        self.program = program.insts().to_vec();
        self.pre = self
            .program
            .iter()
            .map(|inst| {
                let (unit, custom_exec) = match inst {
                    Inst::Custom { id, .. } => match self.ext.by_id(*id) {
                        Some(def) => (Some(def.unit), Some(def.exec)),
                        None => (None, None),
                    },
                    _ => (None, None),
                };
                let control = match inst {
                    Inst::Jal { .. } | Inst::Jalr { .. } => ControlKind::Jump,
                    Inst::Branch { .. } => ControlKind::CondBranch,
                    _ => ControlKind::None,
                };
                PreInst {
                    timing: PreDecoded::of(inst, unit),
                    control,
                    custom_exec,
                }
            })
            .collect();
        self.cpu.pc = self.prog_base;
    }

    /// Base address of the loaded program.
    pub fn prog_base(&self) -> u64 {
        self.prog_base
    }

    /// Sentinel address used by [`Machine::call`] as the return address:
    /// one instruction past the end of the program.
    pub fn return_sentinel(&self) -> u64 {
        self.prog_base + 4 * self.program.len() as u64
    }

    /// Runs from the current PC until `ebreak`, `ecall`, or return to
    /// the sentinel address. The pipeline clock continues from where it
    /// was; use [`Machine::reset_clock`] between measurements. The
    /// returned [`RunStats`] (`instret`, `cycles` *and* `timing`) are
    /// all deltas covering this run only.
    ///
    /// # Errors
    ///
    /// [`RunError::Trap`] on faults, [`RunError::OutOfFuel`] when the
    /// instruction budget is exhausted.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        // Monomorphise the loop on tracer presence so the common
        // untraced path pays nothing for the hook.
        if self.tracer.is_some() {
            self.run_loop::<true>()
        } else {
            self.run_loop::<false>()
        }
    }

    fn run_loop<const TRACE: bool>(&mut self) -> Result<RunStats, RunError> {
        let start_timing = *self.pipeline.stats();
        let start_cycles = self.pipeline.cycles();
        let sentinel = self.return_sentinel();
        let prog_base = self.prog_base;
        let prog_len = self.program.len();
        let mut fuel = self.fuel;
        loop {
            let pc = self.cpu.pc;
            if pc == sentinel {
                return Ok(self.finish_stats(&start_timing, start_cycles, Halt::Returned));
            }
            if fuel == 0 {
                return Err(RunError::OutOfFuel { fuel: self.fuel });
            }
            fuel -= 1;

            // Fetch: one wrapping subtraction covers the below-base,
            // misaligned and past-the-end cases at once.
            let off = pc.wrapping_sub(prog_base);
            let idx = (off >> 2) as usize;
            if off & 3 != 0 || idx >= prog_len {
                return Err(RunError::Trap(Trap::PcOutOfProgram { pc }));
            }
            let inst = self.program[idx];
            let pre = self.pre[idx];

            // Execute. Registered custom instructions take the resolved
            // fast path (no registry lookup); everything else — base
            // ISA and unregistered customs, which must trap — goes
            // through the full `Cpu::step`.
            let result = match (pre.custom_exec, inst) {
                (
                    Some(exec),
                    Inst::Custom {
                        rd,
                        rs1,
                        rs2,
                        rs3,
                        imm,
                        ..
                    },
                ) => {
                    let v = exec(CustomArgs {
                        rs1: self.cpu.read_reg(rs1),
                        rs2: self.cpu.read_reg(rs2),
                        rs3: self.cpu.read_reg(rs3),
                        imm,
                    });
                    self.cpu.write_reg(rd, v);
                    self.cpu.pc = pc.wrapping_add(4);
                    Ok(())
                }
                _ => self.cpu.step(&inst, &mut self.mem, &self.ext),
            };

            // Timing: every attempted instruction that architecturally
            // retires (including the trapping ebreak/ecall) is costed.
            // Unconditional jumps always redirect fetch on Rocket, even
            // to the fall-through address; only conditional branches
            // use the fall-through comparison.
            let taken = match pre.control {
                ControlKind::None => false,
                ControlKind::CondBranch => self.cpu.pc != pc.wrapping_add(4),
                ControlKind::Jump => true,
            };
            self.pipeline.retire_pre(&pre.timing, taken);
            if TRACE {
                if let Some(t) = &mut self.tracer {
                    t.record(pc, &inst, &self.cpu);
                }
            }

            match result {
                Ok(()) => {}
                Err(Trap::Breakpoint) => {
                    return Ok(self.finish_stats(&start_timing, start_cycles, Halt::Breakpoint));
                }
                Err(Trap::EnvironmentCall) => {
                    return Ok(self.finish_stats(
                        &start_timing,
                        start_cycles,
                        Halt::EnvironmentCall,
                    ));
                }
                Err(t) => return Err(RunError::Trap(t)),
            }
        }
    }

    fn finish_stats(&self, start_timing: &TimingStats, start_cycles: u64, halt: Halt) -> RunStats {
        let timing = self.pipeline.stats().delta(start_timing);
        RunStats {
            instret: timing.instret(),
            cycles: self.pipeline.cycles() - start_cycles,
            halt,
            timing,
        }
    }

    /// Resets the pipeline clock and scoreboard (architectural state is
    /// untouched). Call between back-to-back measurements.
    pub fn reset_clock(&mut self) {
        self.pipeline.reset();
    }

    /// Calls the loaded program as a function: sets the given argument
    /// registers, points `ra` at the return sentinel, runs to
    /// completion, and reports the stats of just this call.
    ///
    /// The pipeline clock is reset first, so `stats.cycles` is the cost
    /// of the call alone — this is how all Table 4 rows are measured.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] from [`Machine::run`].
    pub fn call(&mut self, args: &[(Reg, u64)]) -> Result<RunStats, RunError> {
        self.reset_clock();
        self.cpu.pc = self.prog_base;
        self.cpu.write_reg(Reg::Ra, self.return_sentinel());
        for &(r, v) in args {
            self.cpu.write_reg(r, v);
        }
        self.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn run_to_ebreak() {
        let mut a = Assembler::new();
        a.li(Reg::T0, 5);
        a.li(Reg::T1, 7);
        a.add(Reg::A0, Reg::T0, Reg::T1);
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let stats = m.run().unwrap();
        assert_eq!(m.cpu.read_reg(Reg::A0), 12);
        assert_eq!(stats.halt, Halt::Breakpoint);
        assert_eq!(stats.instret, 4);
    }

    #[test]
    fn call_returns_via_sentinel() {
        let mut a = Assembler::new();
        a.add(Reg::A0, Reg::A0, Reg::A1);
        a.ret();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let stats = m.call(&[(Reg::A0, 1), (Reg::A1, 2)]).unwrap();
        assert_eq!(stats.halt, Halt::Returned);
        assert_eq!(m.cpu.read_reg(Reg::A0), 3);
    }

    #[test]
    fn loop_executes_correct_trip_count() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.li(Reg::T0, 100);
        a.li(Reg::T1, 0);
        a.bind(top);
        a.addi(Reg::T1, Reg::T1, 3);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, top);
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let stats = m.run().unwrap();
        assert_eq!(m.cpu.read_reg(Reg::T1), 300);
        // 2 setup + 100*3 loop + ebreak
        assert_eq!(stats.instret, 2 + 300 + 1);
        // 99 taken branches pay the flush penalty.
        assert_eq!(stats.timing.flush_cycles, 99 * 2);
    }

    #[test]
    fn memory_access_through_pointers() {
        let mut a = Assembler::new();
        a.ld(Reg::T0, 0, Reg::A0);
        a.ld(Reg::T1, 8, Reg::A0);
        a.add(Reg::T0, Reg::T0, Reg::T1);
        a.sd(Reg::T0, 0, Reg::A1);
        a.ret();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        m.mem.write_limbs(DATA_BASE, &[30, 12]).unwrap();
        m.call(&[(Reg::A0, DATA_BASE), (Reg::A1, DATA_BASE + 64)])
            .unwrap();
        assert_eq!(m.mem.load_u64(DATA_BASE + 64).unwrap(), 42);
    }

    #[test]
    fn out_of_fuel() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.bind(top);
        a.j(top);
        let mut m = Machine::new();
        m.load_program(&a.finish());
        m.set_fuel(1000);
        assert!(matches!(m.run(), Err(RunError::OutOfFuel { .. })));
    }

    #[test]
    fn pc_escape_is_a_trap() {
        let mut a = Assembler::new();
        a.jalr(Reg::Zero, 0, Reg::Zero); // jump to 0, outside program
        let mut m = Machine::new();
        m.load_program(&a.finish());
        assert!(matches!(
            m.run(),
            Err(RunError::Trap(Trap::PcOutOfProgram { .. }))
        ));
    }

    #[test]
    fn back_to_back_runs_report_per_run_deltas() {
        // Regression: `RunStats::timing` used to return the cumulative
        // per-class counters while `instret`/`cycles` were deltas, so a
        // second `run()` on the same machine double-counted.
        let mut a = Assembler::new();
        a.li(Reg::T0, 3);
        a.mul(Reg::T1, Reg::T0, Reg::T0);
        a.ld(Reg::T2, 0, Reg::Sp);
        a.ebreak();
        let mut m = Machine::new();
        m.cpu.write_reg(Reg::Sp, DATA_BASE);
        m.load_program(&a.finish());

        let s1 = m.run().unwrap();
        m.cpu.pc = m.prog_base(); // rerun without resetting the clock
        let s2 = m.run().unwrap();

        for s in [&s1, &s2] {
            assert_eq!(s.timing.alu, 1, "one li per run");
            assert_eq!(s.timing.mul, 1, "one mul per run");
            assert_eq!(s.timing.load, 1, "one load per run");
            assert_eq!(s.timing.system, 1, "one ebreak per run");
            assert_eq!(s.timing.instret(), s.instret, "timing sums to instret");
        }
        assert_eq!(
            s1.timing, s2.timing,
            "identical straight-line runs must report identical deltas"
        );
    }

    #[test]
    fn jal_to_fall_through_pays_redirect_penalty() {
        // Regression: `jal +4` targets the fall-through address, which
        // the old `pc != pc + 4` heuristic classified as not-taken; an
        // unconditional jump always redirects fetch on Rocket.
        let mut a = Assembler::new();
        a.push(crate::inst::Inst::Jal {
            rd: Reg::Zero,
            offset: 4,
        });
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let stats = m.run().unwrap();
        let penalty = TimingConfig::default().branch_taken_penalty;
        assert_eq!(stats.timing.flush_cycles, penalty);
        assert_eq!(stats.cycles, 2 + penalty);
    }

    #[test]
    fn conditional_branch_to_fall_through_is_not_taken() {
        // The fall-through heuristic stays in force for conditional
        // branches: a taken branch to pc+4 is indistinguishable from
        // not-taken and costs no redirect.
        let mut a = Assembler::new();
        a.push(crate::inst::Inst::Branch {
            op: crate::inst::BranchOp::Beq,
            rs1: Reg::Zero,
            rs2: Reg::Zero,
            offset: 4,
        });
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let stats = m.run().unwrap();
        assert_eq!(stats.timing.flush_cycles, 0);
    }

    #[test]
    fn custom_fast_path_matches_step_semantics() {
        use crate::ext::{CustomArgs, CustomFormat, CustomId, CustomInstDef, ExecUnit};
        fn addx3(a: CustomArgs) -> u64 {
            a.rs1.wrapping_add(a.rs2).wrapping_add(a.rs3)
        }
        let mut ext = IsaExtension::new("t");
        ext.define(CustomInstDef {
            id: CustomId(900),
            mnemonic: "addx3",
            format: CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b111,
                funct2: 0b00,
            },
            exec: addx3,
            unit: ExecUnit::Xmul,
        })
        .unwrap();
        let mut a = Assembler::new();
        a.push(crate::inst::Inst::Custom {
            id: CustomId(900),
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
            rs3: Reg::A3,
            imm: 0,
        });
        a.ebreak();
        let mut m = Machine::with_ext(ext);
        m.load_program(&a.finish());
        m.cpu.write_reg(Reg::A1, 10);
        m.cpu.write_reg(Reg::A2, 20);
        m.cpu.write_reg(Reg::A3, 12);
        let stats = m.run().unwrap();
        assert_eq!(m.cpu.read_reg(Reg::A0), 42);
        assert_eq!(stats.timing.custom_xmul, 1);
    }

    #[test]
    fn call_resets_clock_per_invocation() {
        let mut a = Assembler::new();
        a.add(Reg::A0, Reg::A0, Reg::A1);
        a.ret();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        let s1 = m.call(&[(Reg::A0, 1), (Reg::A1, 2)]).unwrap();
        let s2 = m.call(&[(Reg::A0, 3), (Reg::A1, 4)]).unwrap();
        assert_eq!(s1.cycles, s2.cycles);
    }
}
