//! The top-level simulator: CPU + memory + program + extensions + timing.

use crate::asm::Program;
use crate::cpu::{Cpu, MicroOp, Trap};
use crate::ext::IsaExtension;
use crate::inst::Inst;
use crate::mem::Memory;
use crate::reg::Reg;
use crate::timing::{BlockTiming, PipelineModel, PreDecoded, TimingConfig, TimingStats};
use crate::trace::Tracer;

/// Default base address of loaded programs.
pub const PROG_BASE: u64 = 0x0000_1000;
/// Default base address of data memory.
pub const DATA_BASE: u64 = 0x8000_0000;
/// Default data memory size (1 MiB).
pub const DATA_SIZE: usize = 1 << 20;
/// Default instruction budget before a run aborts (guards against
/// runaway loops in tests).
pub(crate) const DEFAULT_FUEL: u64 = 200_000_000;

/// The `Machine::fused_at` entry of every instruction of a fused
/// micro-op but its first.
const MID_RUN: u32 = u32::MAX;

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
    /// The loaded program as written (what a [`Tracer`] records).
    program: Vec<Inst>,
    /// `program` translated at [`Machine::load_program`] time, so the
    /// run loop does no decoding or extension-registry lookup.
    uops: Vec<MicroOp>,
    /// Timing facts per instruction, parallel to `program`, consumed by
    /// [`PipelineModel::retire_pre`] without allocation.
    timing: Vec<PreDecoded>,
    /// Per instruction index: the index of the instruction that ends
    /// the block starting there (the next control or system
    /// instruction, or the program's last).
    block_end: Vec<u32>,
    /// `uops` with each fusable run before a block's end (a MAC run,
    /// memory run, column end or propagation run) replaced by one
    /// micro-op ([`MicroOp::fuse`]): what a block executes.
    fused: Vec<MicroOp>,
    /// The register lists of the fused runs.
    fused_regs: Vec<u8>,
    /// Per instruction index: the index in `fused` of the micro-op
    /// that starts there, or [`MID_RUN`] inside a fused micro-op.
    fused_at: Vec<u32>,
    /// Per block start: 1 + its index in `blocks`, or 0 while the block
    /// has not run.
    block_of: Vec<u32>,
    /// Timing summaries of the blocks run so far, minus terminators.
    blocks: Vec<BlockTiming>,
    prog_base: u64,
    pipeline: PipelineModel,
    fuel: u64,
    tracer: Option<Tracer>,
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
            uops: Vec::new(),
            timing: Vec::new(),
            block_end: Vec::new(),
            fused: Vec::new(),
            fused_regs: Vec::new(),
            fused_at: Vec::new(),
            block_of: Vec::new(),
            blocks: Vec::new(),
            prog_base: PROG_BASE,
            pipeline: PipelineModel::new(TimingConfig::default()),
            fuel: DEFAULT_FUEL,
            tracer: None,
        }
    }

    /// Replaces the timing configuration (resets the pipeline clock).
    pub fn set_timing(&mut self, config: TimingConfig) {
        self.pipeline = PipelineModel::new(config);
        self.forget_blocks();
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
    /// instruction, and translates every instruction into a micro-op
    /// (register numbers, immediate, access width and custom execution
    /// function resolved) with its timing facts, so the run loop does
    /// no per-step lookup or allocation work. The list a block executes
    /// fuses into one micro-op each run of MAC pairs (an adjacent pair
    /// of custom instructions that the extension registers as a pair,
    /// such as an ISE MAC's high and low halves, and the pairs after it
    /// that accumulate into the same two registers), each run of `ld`s
    /// or `sd`s at consecutive offsets off one base, each column end
    /// and each carry-propagation run (DESIGN.md §9.5).
    pub fn load_program(&mut self, program: &Program) {
        self.program = program.insts().to_vec();
        self.uops = self
            .program
            .iter()
            .map(|inst| MicroOp::new(inst, &self.ext))
            .collect();
        self.timing = self
            .program
            .iter()
            .map(|inst| {
                let unit = match inst {
                    Inst::Custom { id, .. } => self.ext.by_id(*id).map(|def| def.unit),
                    _ => None,
                };
                PreDecoded::of(inst, unit)
            })
            .collect();
        let n = self.uops.len();
        self.block_end = vec![0; n];
        for i in (0..n).rev() {
            self.block_end[i] = if i + 1 == n || self.uops[i].ends_block() {
                i as u32
            } else {
                self.block_end[i + 1]
            };
        }
        self.fused = Vec::with_capacity(n);
        self.fused_regs = Vec::new();
        self.fused_at = Vec::with_capacity(n);
        let mut i = 0;
        while i < n {
            // Only the instructions before the block's terminator fuse.
            let straight = &self.program[i..(self.block_end[i] as usize).max(i)];
            let (op, len) = MicroOp::fuse(straight, &self.ext, &mut self.fused_regs)
                .unwrap_or((self.uops[i], 1));
            self.fused_at.push(self.fused.len() as u32);
            self.fused_at.extend(std::iter::repeat_n(MID_RUN, len - 1));
            self.fused.push(op);
            i += len;
        }
        self.forget_blocks();
        self.cpu.pc = self.prog_base;
    }

    /// Drops every block summary. Room is kept for one per statically
    /// known block start (the entry, each fall-through after a
    /// terminator, each taken direction), so summarising a block on
    /// the run path allocates only after a `jalr` into mid-block.
    fn forget_blocks(&mut self) {
        self.block_of = vec![0; self.uops.len()];
        let terminators = self.uops.iter().filter(|u| u.ends_block()).count();
        self.blocks = Vec::with_capacity(1 + 2 * terminators);
    }

    /// The number of micro-ops the loaded program executes when every
    /// block runs from its start, fused ops counted once: the
    /// dispatches of one untraced pass through a straight-line kernel.
    pub fn micro_ops(&self) -> usize {
        self.fused.len()
    }

    /// The pipeline model: its clock and counters since the last
    /// [`Machine::reset_clock`], also after a run that trapped.
    pub fn pipeline(&self) -> &PipelineModel {
        &self.pipeline
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
    /// The run goes a block at a time. The straight-line instructions
    /// up to the next control or system instruction execute in one
    /// loop, each fused run (a MAC run, memory run, column end or
    /// propagation run) as one micro-op.
    /// Their timing is then replayed from the block's summary when its
    /// entry is clean, or retired one instruction at a time when it is
    /// not (DESIGN.md §9.5). The terminator is retired on its own, so
    /// branch outcomes are costed exactly. With a tracer
    /// attached, or fuel for less than the block, every instruction is
    /// executed and retired on its own.
    ///
    /// # Errors
    ///
    /// [`RunError::Trap`] on faults, [`RunError::OutOfFuel`] when the
    /// instruction budget is exhausted.
    pub fn run(&mut self) -> Result<RunStats, RunError> {
        let start_timing = *self.pipeline.stats();
        let start_cycles = self.pipeline.cycles();
        let sentinel = self.return_sentinel();
        let mut fuel = self.fuel;
        loop {
            let pc = self.cpu.pc;
            if pc == sentinel {
                return Ok(self.finish_stats(&start_timing, start_cycles, Halt::Returned));
            }
            if fuel == 0 {
                return Err(RunError::OutOfFuel { fuel: self.fuel });
            }

            // Fetch: one wrapping subtraction covers the below-base,
            // misaligned and past-the-end cases at once.
            let off = pc.wrapping_sub(self.prog_base);
            let mut idx = (off >> 2) as usize;
            if off & 3 != 0 || idx >= self.uops.len() {
                return Err(RunError::Trap(Trap::PcOutOfProgram { pc }));
            }
            let end = self.block_end[idx] as usize;
            if end > idx && self.tracer.is_none() && fuel > (end - idx) as u64 {
                self.run_straight(idx, end)?;
                fuel -= (end - idx) as u64;
                idx = end;
            }
            fuel -= 1;
            if let Some(halt) = self.step(idx)? {
                return Ok(self.finish_stats(&start_timing, start_cycles, halt));
            }
        }
    }

    /// Executes the straight-line instructions `first..end` (no control
    /// or system instruction among them; the PC at `first`), then
    /// accounts for their timing: replayed from the block's summary
    /// when its entry is clean, else retired one by one. A trapping
    /// instruction is retired with those before it, as in
    /// [`Machine::step`], and the earlier writes stay committed.
    fn run_straight(&mut self, first: usize, end: usize) -> Result<(), Trap> {
        let entry_pc = self.cpu.pc;
        let index = |pc: u64| first + ((pc - entry_pc) / 4) as usize;
        // A block entered inside a fused micro-op (a jump into it) runs
        // unfused. No fused micro-op straddles a block's end.
        let ops = match self.fused_at[first] {
            MID_RUN => &self.uops[first..end],
            k => &self.fused[k as usize..self.fused_at[end] as usize],
        };
        let regs = &self.fused_regs;
        let mut result = self.cpu.exec_all(ops, &mut self.mem, regs);
        if result.is_err() {
            // The trapping micro-op wrote nothing and left the PC at
            // its first instruction. Running the rest unfused traps at
            // the same instruction, after the same writes, as a run
            // without fusion.
            let at = index(self.cpu.pc);
            result = self.cpu.exec_all(&self.uops[at..end], &mut self.mem, regs);
        }
        if let Err(trap) = result {
            for pre in &self.timing[first..=index(self.cpu.pc)] {
                self.pipeline.retire_pre(pre, false);
            }
            return Err(trap);
        }
        let slot = match self.block_of[first] {
            0 => {
                let config = *self.pipeline.config();
                self.blocks
                    .push(BlockTiming::of(config, &self.timing[first..end]));
                self.block_of[first] = self.blocks.len() as u32;
                self.blocks.len() - 1
            }
            k => k as usize - 1,
        };
        if !self.pipeline.replay(&self.blocks[slot]) {
            for pre in &self.timing[first..end] {
                self.pipeline.retire_pre(pre, false);
            }
        }
        Ok(())
    }

    /// Executes and retires the instruction at index `idx` (the PC's),
    /// recording it when a tracer is attached. Returns the halt an
    /// `ebreak`/`ecall` causes.
    fn step(&mut self, idx: usize) -> Result<Option<Halt>, Trap> {
        let pc = self.cpu.pc;
        let u = &self.uops[idx];
        let result = self.cpu.exec(u, &mut self.mem, &[]);
        // Every attempted instruction that architecturally retires
        // (including the trapping ebreak/ecall) is costed.
        let taken = u.redirects(pc, self.cpu.pc);
        self.pipeline.retire_pre(&self.timing[idx], taken);
        if let Some(t) = &mut self.tracer {
            t.record(pc, &self.program[idx], &self.cpu);
        }
        match result {
            Ok(()) => Ok(None),
            Err(Trap::Breakpoint) => Ok(Some(Halt::Breakpoint)),
            Err(Trap::EnvironmentCall) => Ok(Some(Halt::EnvironmentCall)),
            Err(t) => Err(t),
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
    use crate::ext::CustomId;
    use crate::inst::LoadOp;
    use crate::mem::MemError;

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
        m.cpu.pc = PROG_BASE; // rerun without resetting the clock
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
        use crate::ext::{CustomFormat, CustomId, CustomInstDef, ExecUnit};
        // Weights that differ per operand, so any swap of the executor's
        // arguments changes the result.
        fn weigh3(rs1: u64, rs2: u64, rs3: u64, _imm: u8) -> u64 {
            rs1 + 2 * rs2 + 3 * rs3
        }
        fn shift_add(rs1: u64, rs2: u64, rs3: u64, imm: u8) -> u64 {
            rs1 + 2 * (rs2 >> imm) + 3 * rs3
        }
        let mut ext = IsaExtension::new("t");
        for (id, mnemonic, format, exec) in [
            (
                900,
                "weigh3",
                CustomFormat::R4 {
                    opcode: 0b1111011,
                    funct3: 0b111,
                    funct2: 0b00,
                },
                weigh3 as fn(u64, u64, u64, u8) -> u64,
            ),
            (
                901,
                "shiftadd",
                CustomFormat::RShamt {
                    opcode: 0b0101011,
                    funct3: 0b111,
                    bit31: true,
                },
                shift_add,
            ),
        ] {
            ext.define(CustomInstDef {
                id: CustomId(id),
                mnemonic,
                format,
                exec,
                unit: ExecUnit::Xmul,
            })
            .unwrap();
        }
        let make = || {
            let mut a = Assembler::new();
            a.custom_r4(CustomId(900), Reg::A0, Reg::A1, Reg::A2, Reg::A3);
            a.custom_shamt(CustomId(901), Reg::A4, Reg::A1, Reg::A2, 3);
            a.custom_shamt(CustomId(901), Reg::A5, Reg::A1, Reg::A2, 5);
            a.ebreak();
            let mut m = Machine::with_ext(ext.clone());
            m.load_program(&a.finish());
            m.cpu.write_reg(Reg::A1, 1000);
            m.cpu.write_reg(Reg::A2, 640);
            m.cpu.write_reg(Reg::A3, 7);
            m
        };
        let (m, stats) = run_both(make);
        assert_eq!(m.cpu.read_reg(Reg::A0), 1000 + 2 * 640 + 3 * 7);
        assert_eq!(m.cpu.read_reg(Reg::A4), 1000 + 2 * 80, "imm = 3");
        assert_eq!(m.cpu.read_reg(Reg::A5), 1000 + 2 * 20, "imm = 5");
        assert_eq!(stats.unwrap().timing.custom_xmul, 3);
        // `Cpu::step` runs the same semantics on one instruction.
        let mut cpu = m.cpu.clone();
        let mut mem = Memory::new(0, 8);
        let inst = Inst::Custom {
            id: CustomId(900),
            rd: Reg::T0,
            rs1: Reg::A3,
            rs2: Reg::A1,
            rs3: Reg::A2,
            imm: 0,
        };
        cpu.step(&inst, &mut mem, &ext).unwrap();
        assert_eq!(cpu.read_reg(Reg::T0), 7 + 2 * 1000 + 3 * 640);
    }

    /// Runs the machine `make` builds twice: as is (a block at a time)
    /// and with a tracer attached (an instruction at a time, every one
    /// retired on its own). Requires the same outcome, registers, PC
    /// and data, and returns the block-at-a-time machine and outcome.
    fn run_both(make: impl Fn() -> Machine) -> (Machine, Result<RunStats, RunError>) {
        let mut blocks = make();
        let got = blocks.run();
        let mut single = make();
        single.set_tracer(Some(Tracer::new(0)));
        let want = single.run();
        assert_eq!(got, want);
        assert_eq!(blocks.cpu.regs(), single.cpu.regs());
        assert_eq!(blocks.cpu.pc, single.cpu.pc);
        let data = |m: &Machine| {
            let mut words = [0u64; 32];
            m.mem.read_limbs(DATA_BASE, &mut words).unwrap();
            words
        };
        assert_eq!(data(&blocks), data(&single));
        // Also after a trap, which `RunError` carries no stats for.
        assert_eq!(blocks.pipeline.cycles(), single.pipeline.cycles());
        assert_eq!(blocks.pipeline.stats(), single.pipeline.stats());
        (blocks, got)
    }

    const T: [Reg; 4] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3];

    /// An extension with a MAC pair: `hi` and `lo` (ids 900 and 901)
    /// and their chain executor.
    fn mac_ext() -> IsaExtension {
        use crate::ext::{CustomFormat, CustomInstDef, ExecUnit};
        fn hi(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
            rs1.wrapping_add(rs2.wrapping_mul(3)).wrapping_mul(rs3 | 1)
        }
        fn lo(rs1: u64, rs2: u64, rs3: u64, _: u8) -> u64 {
            rs1.wrapping_mul(5).wrapping_add(rs2) ^ rs3.rotate_left(7)
        }
        fn pair(rs1: u64, rs2: u64, rs3a: u64, rs3b: u64) -> (u64, u64) {
            (hi(rs1, rs2, rs3a, 0), lo(rs1, rs2, rs3b, 0))
        }
        fn chain(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> (u64, u64) {
            crate::ext::run_chain(pair, regs, srcs, h, l)
        }
        let mut ext = IsaExtension::new("mac");
        for (id, mnemonic, funct2, exec) in [
            (900, "hi", 0, hi as fn(u64, u64, u64, u8) -> u64),
            (901, "lo", 1, lo),
        ] {
            let format = CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b111,
                funct2,
            };
            ext.define(CustomInstDef {
                id: CustomId(id),
                mnemonic,
                format,
                exec,
                unit: ExecUnit::Xmul,
            })
            .unwrap();
        }
        ext.define_pair(CustomId(900), CustomId(901), chain);
        ext
    }

    /// Emits one MAC: `hi h, rs1, rs2, h ; lo l, rs1, rs2, l`.
    fn mac(a: &mut Assembler, (h, l): (Reg, Reg), rs1: Reg, rs2: Reg) {
        a.custom_r4(CustomId(900), h, rs1, rs2, h);
        a.custom_r4(CustomId(901), l, rs1, rs2, l);
    }

    /// A pair: `hi rd, rs1, rs2, rs3 ; lo rd, rs1, rs2, rs3`.
    type Pair = ([Reg; 4], [Reg; 4]);

    /// The pair `mac` emits, as a [`Pair`].
    fn mac_pair((h, l): (Reg, Reg), rs1: Reg, rs2: Reg) -> Pair {
        ([h, rs1, rs2, h], [l, rs1, rs2, l])
    }

    /// Runs each case's pairs and an `ebreak`, from the start and from
    /// between the first pair's halves, both ways ([`run_both`]), and
    /// requires the case's micro-op count (with the `ebreak`) from the
    /// start. Every case goes through the one MAC-run rule.
    fn check_mac_runs(cases: Vec<(&str, Vec<Pair>, usize)>) {
        for (what, pairs, micro_ops) in cases {
            let make = |jump_to_second: bool| {
                let pairs = &pairs;
                move || {
                    let mut a = Assembler::new();
                    for (id, [rd, rs1, rs2, rs3]) in pairs
                        .iter()
                        .flat_map(|&(hi, lo)| [(CustomId(900), hi), (CustomId(901), lo)])
                    {
                        a.custom_r4(id, rd, rs1, rs2, rs3);
                    }
                    a.ebreak();
                    let mut m = Machine::with_ext(mac_ext());
                    m.load_program(&a.finish());
                    scramble(&mut m, &[]);
                    if jump_to_second {
                        m.cpu.pc = PROG_BASE + 4;
                    }
                    m
                }
            };
            let instret = 2 * pairs.len() as u64 + 1;
            let (m, result) = run_both(make(false));
            assert_eq!(result.unwrap().instret, instret, "{what}");
            assert_eq!(m.micro_ops(), micro_ops, "{what}");
            // Entering between the first pair's halves runs the rest
            // unfused.
            let (_, result) = run_both(make(true));
            assert_eq!(result.unwrap().instret, instret - 1, "{what}");
        }
    }

    /// The head of a MAC run: a registered pair that shares `rs1`/`rs2`
    /// and whose low half reads no register its high half writes.
    #[test]
    fn registered_pairs_fuse_only_on_shared_operands_without_aliasing() {
        use Reg::{Zero, A0, A1, A2, A3, A4, A5, S0, S1, S2, S3};
        let acc = (A4, A5);
        // The pair `hi rd1, a1, a2, a3 ; lo ...` alone.
        let lone = |rd1, lo| vec![([rd1, A1, A2, A3], lo)];
        check_mac_runs(vec![
            ("shared operands", lone(A0, [A4, A1, A2, A5]), 2),
            ("equal destinations", lone(A0, [A0, A1, A2, A5]), 2),
            ("x0 high", lone(Zero, [A4, A1, A2, A5]), 2),
            ("x0 low", lone(A0, [Zero, A1, A2, A5]), 2),
            ("another rs2", lone(A0, [A4, A1, A3, A5]), 3),
            ("low rs1 = high rd", lone(A1, [A4, A1, A2, A5]), 3),
            ("low rs2 = high rd", lone(A2, [A4, A1, A2, A5]), 3),
            ("low rs3 = high rd", lone(A5, [A4, A1, A2, A5]), 3),
            // The first pair adds other addends, `x0` as `mac_init`
            // does, then the run accumulates; unless its low half reads
            // `h`, which leaves it unpaired.
            (
                "head adds x0",
                vec![
                    ([A4, S0, S1, Zero], [A5, S0, S1, Zero]),
                    mac_pair(acc, S2, S3),
                ],
                2,
            ),
            (
                "head rs3b = h",
                vec![([A4, S0, S1, A5], [A5, S0, S1, A4]), mac_pair(acc, S2, S3)],
                4,
            ),
        ]);
    }

    /// The pairs after a MAC run's head: each accumulates into the same
    /// two distinct, non-`x0` registers, which it does not read as
    /// `rs1`/`rs2`.
    #[test]
    fn mac_chains_fuse_only_on_one_clean_accumulator_pair() {
        use Reg::{Zero, A4, A5, A6, A7, S0, S1, S2, S3, S4, S5};
        let acc = (A4, A5);
        let macs = |acc, srcs: [(Reg, Reg); 3]| srcs.map(|(a, b)| mac_pair(acc, a, b)).to_vec();
        let clean = [(S0, S1), (S2, S3), (S4, S5)];
        check_mac_runs(vec![
            ("one chain", macs(acc, clean), 2),
            // A source that is the high accumulator ends the run, and
            // that MAC's halves alias, so they do not even pair.
            ("rs1 = h", macs(acc, [(S0, S1), (A4, S3), (S4, S5)]), 5),
            // A pair that reads `l` opens a run, but joins none.
            ("rs2 = l", macs(acc, [(S0, S1), (S2, A5), (S4, S5)]), 3),
            ("h = l", macs((A4, A4), clean), 7),
            (
                "h = l after equal destinations",
                vec![
                    ([A4, S0, S1, A6], [A4, S0, S1, A7]),
                    mac_pair((A4, A4), S2, S3),
                ],
                4,
            ),
            ("h = x0", macs((Zero, A5), clean), 4),
            ("l = x0", macs((A4, Zero), clean), 4),
            (
                "new accumulators",
                vec![
                    mac_pair(acc, S0, S1),
                    mac_pair(acc, S2, S3),
                    mac_pair((A6, A7), S4, S5),
                ],
                3,
            ),
        ]);
    }

    const SHADD: CustomId = CustomId(902);

    /// [`mac_ext`] plus `shadd` (id 902), `rd ← rs1 + (rs2 >>ₐ imm)`,
    /// the shape of `sraiadd`.
    fn shadd_ext() -> IsaExtension {
        use crate::ext::{CustomFormat, CustomInstDef, ExecUnit};
        fn shadd(rs1: u64, rs2: u64, _: u64, imm: u8) -> u64 {
            rs1.wrapping_add(((rs2 as i64) >> (imm & 63)) as u64)
        }
        let mut ext = mac_ext();
        ext.define(CustomInstDef {
            id: SHADD,
            mnemonic: "shadd",
            format: CustomFormat::RShamt {
                opcode: 0b0101011,
                funct3: 0b111,
                bit31: true,
            },
            exec: shadd,
            unit: ExecUnit::Xmul,
        })
        .unwrap();
        ext
    }

    /// Gives every register but `x0`, `sp` and `keep` a distinct value.
    fn scramble(m: &mut Machine, keep: &[Reg]) {
        for (k, r) in Reg::ALL.into_iter().enumerate() {
            if ![Reg::Zero, Reg::Sp].contains(&r) && !keep.contains(&r) {
                m.cpu
                    .write_reg(r, 0xd1b5_4a32_d192_ed03u64.wrapping_mul(k as u64 + 1));
            }
        }
    }

    #[test]
    fn column_ends_fuse_only_with_a_written_limb_and_another_base() {
        let top = DATA_BASE + DATA_SIZE as u64;
        let (l, m, h) = (Reg::A4, Reg::A3, Reg::A5);
        // (t, store base, reset, micro-ops with the `ebreak`)
        let cases = [
            (Reg::A6, Reg::A0, Some(h), 2),
            (Reg::A6, Reg::A0, None, 2),
            (Reg::A0, Reg::A0, Some(h), 5),
            (Reg::Zero, Reg::A0, None, 4),
        ];
        for (t, b, reset, micro_ops) in cases {
            for past_end in [false, true] {
                // `l & m` is the store's address, so `b = t` stores to it.
                let base = if past_end { top - 8 } else { DATA_BASE + 64 };
                let make = || {
                    let mut a = Assembler::new();
                    a.and(t, l, m);
                    a.sd(t, 8, b);
                    a.custom_shamt(SHADD, l, h, l, 57);
                    if let Some(z) = reset {
                        a.li(z, 0);
                    }
                    a.ebreak();
                    let mut m = Machine::with_ext(shadd_ext());
                    m.load_program(&a.finish());
                    scramble(&mut m, &[]);
                    m.cpu.write_reg(Reg::A3, (1 << 57) - 1);
                    m.cpu.write_reg(Reg::A4, base | 1 << 60);
                    m.cpu.write_reg(Reg::A0, base);
                    m
                };
                let what = format!("t {t} b {b} reset {reset:?} past end {past_end}");
                let (m, result) = run_both(make);
                assert_eq!(m.micro_ops(), micro_ops, "{what}");
                if past_end {
                    let fault = MemError::OutOfBounds {
                        addr: top,
                        width: 8,
                    };
                    assert_eq!(result, Err(RunError::Trap(Trap::Memory(fault))), "{what}");
                    assert_eq!(m.cpu.pc, PROG_BASE + 4, "{what}: the PC stays at the sd");
                    assert_eq!(m.cpu.read_reg(Reg::A6) == base, t == Reg::A6, "{what}");
                } else {
                    let stored = m.mem.load_u64(base + 8).unwrap();
                    assert_eq!(stored, if t == Reg::Zero { 0 } else { base }, "{what}");
                    assert_eq!(m.cpu.read_reg(h) == 0, reset.is_some(), "{what}");
                }
            }
        }
    }

    #[test]
    fn propagation_runs_fuse_only_on_one_custom_immediate_and_mask() {
        const LIMBS: [Reg; 5] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4];
        let mask = Reg::A3;
        // Four steps; the one that differs: (step, custom id, imm, y),
        // and the micro-ops with the `ebreak`.
        type Case = (&'static str, Option<(usize, CustomId, u8, Reg)>, usize);
        let cases: [Case; 5] = [
            ("one run", None, 2),
            ("mask rewritten", Some((1, SHADD, 57, mask)), 6),
            ("another imm", Some((2, SHADD, 56, LIMBS[3])), 6),
            ("another id", Some((2, CustomId(900), 0, LIMBS[3])), 6),
            ("x0 limb", Some((1, SHADD, 57, Reg::Zero)), 2),
        ];
        for (what, differ, micro_ops) in cases {
            let make = || {
                let mut a = Assembler::new();
                for k in 0..4 {
                    let (id, imm, y) = match differ {
                        Some((at, id, imm, y)) if at == k => (id, imm, y),
                        _ => (SHADD, 57, LIMBS[k + 1]),
                    };
                    if id == SHADD {
                        a.custom_shamt(id, y, y, LIMBS[k], imm);
                    } else {
                        a.custom_r4(id, y, y, LIMBS[k], Reg::A7);
                    }
                    a.and(LIMBS[k], LIMBS[k], mask);
                }
                a.ebreak();
                let mut m = Machine::with_ext(shadd_ext());
                m.load_program(&a.finish());
                scramble(&mut m, &[]);
                m.cpu.write_reg(mask, (1 << 57) - 1);
                m
            };
            let (m, result) = run_both(make);
            assert_eq!(result.unwrap().instret, 9, "{what}");
            assert_eq!(m.micro_ops(), micro_ops, "{what}");
        }
    }

    #[test]
    fn memory_runs_fuse_consecutive_words_off_one_base() {
        // (program, micro-ops with the `ebreak`)
        type Emit = fn(&mut Assembler);
        let cases: [(Emit, usize); 6] = [
            (
                |a| (0..4).for_each(|k| a.ld(T[k], 8 * k as i32, Reg::A0)),
                2,
            ),
            (
                |a| (0..4).for_each(|k| a.sd(T[k], 8 * k as i32 + 16, Reg::A0)),
                2,
            ),
            // A gap, a descending offset, another base, another width.
            (
                |a| [0, 16, 8].iter().for_each(|&o| a.ld(Reg::T0, o, Reg::A0)),
                4,
            ),
            (
                |a| (0..2).for_each(|k| a.ld(Reg::T0, 8 * k as i32, [Reg::A0, Reg::A1][k])),
                3,
            ),
            (
                |a| {
                    (0..2).for_each(|k| {
                        a.push(Inst::Load {
                            op: LoadOp::Lw,
                            rd: Reg::T0,
                            rs1: Reg::A0,
                            offset: 8 * k,
                        })
                    })
                },
                3,
            ),
            // The run ends with the load that overwrites its base.
            (
                |a| {
                    a.ld(Reg::T0, 0, Reg::A0);
                    a.ld(Reg::A0, 8, Reg::A0);
                    a.ld(Reg::T1, 16, Reg::A0);
                    a.ld(Reg::T2, 24, Reg::A0);
                },
                3,
            ),
        ];
        for (k, (emit, micro_ops)) in cases.into_iter().enumerate() {
            let make = || {
                let mut a = Assembler::new();
                emit(&mut a);
                a.ebreak();
                let mut m = Machine::new();
                m.load_program(&a.finish());
                let words: Vec<u64> = (0..32).map(|w| DATA_BASE + 8 * w).collect();
                m.mem.write_limbs(DATA_BASE, &words).unwrap();
                m.cpu.write_reg(Reg::A0, DATA_BASE);
                m.cpu.write_reg(Reg::A1, DATA_BASE + 64);
                m.cpu.write_reg(Reg::T0, 7);
                m
            };
            let (m, result) = run_both(make);
            assert!(result.is_ok(), "case {k}");
            assert_eq!(m.micro_ops(), micro_ops, "case {k}");
        }
    }

    #[test]
    fn a_faulting_memory_run_traps_where_its_instructions_would() {
        let top = DATA_BASE + DATA_SIZE as u64;
        // (base, faulting word, fault)
        let cases = [
            (
                top - 24,
                3,
                MemError::OutOfBounds {
                    addr: top,
                    width: 8,
                },
            ),
            (
                top - 28,
                0,
                MemError::Misaligned {
                    addr: top - 28,
                    width: 8,
                },
            ),
            (
                DATA_BASE - 16,
                0,
                MemError::OutOfBounds {
                    addr: DATA_BASE - 16,
                    width: 8,
                },
            ),
        ];
        for (base, faulting, fault) in cases {
            for store in [false, true] {
                let make = || {
                    let mut a = Assembler::new();
                    a.mul(Reg::A1, Reg::A1, Reg::A1); // a pending result
                    for (k, t) in (0..).zip(T) {
                        if store {
                            a.sd(Reg::A1, 8 * k, Reg::A0);
                        } else {
                            a.ld(t, 8 * k, Reg::A0);
                        }
                    }
                    a.addi(Reg::A2, Reg::A2, 1);
                    a.ebreak();
                    let mut m = Machine::new();
                    m.load_program(&a.finish());
                    assert_eq!(m.micro_ops(), 4);
                    let top_words = [11, 12, 13];
                    m.mem.write_limbs(top - 24, &top_words).unwrap();
                    m.cpu.write_reg(Reg::A0, base);
                    m.cpu.write_reg(Reg::A1, 3);
                    m
                };
                let what = format!("base {base:#x} store {store}");
                let (m, result) = run_both(make);
                assert_eq!(result, Err(RunError::Trap(Trap::Memory(fault))), "{what}");
                assert_eq!(m.cpu.pc, PROG_BASE + 4 * (1 + faulting), "{what}");
                let mut tail = [0; 3];
                m.mem.read_limbs(top - 24, &mut tail).unwrap();
                // The words before the faulting one are committed.
                let got = if store {
                    tail
                } else {
                    [0, 1, 2].map(|k| m.cpu.read_reg(T[k]))
                };
                let written = |k: u64| if store { 9 } else { 11 + k };
                let kept = |k: u64| if store { 11 + k } else { 0 };
                let want = [0, 1, 2].map(|k| if k < faulting { written(k) } else { kept(k) });
                assert_eq!(got, want, "{what}");
                assert_eq!(m.cpu.read_reg(Reg::A2), 0, "{what}");
            }
        }
    }

    #[test]
    fn a_jump_into_a_fused_run_runs_the_rest_unfused() {
        let make = |target: i32| {
            move || {
                let mut a = Assembler::new();
                a.push(Inst::Auipc {
                    rd: Reg::T6,
                    imm20: 0,
                });
                a.jalr(Reg::Zero, target, Reg::T6);
                for (k, t) in (0..).zip(T) {
                    a.ld(t, 8 * k, Reg::A0);
                }
                for w in T.windows(2) {
                    mac(&mut a, (Reg::A4, Reg::A5), w[0], w[1]);
                }
                a.ebreak();
                let mut m = Machine::with_ext(mac_ext());
                m.load_program(&a.finish());
                m.mem.write_limbs(DATA_BASE, &[5, 6, 7, 8]).unwrap();
                m.cpu.write_reg(Reg::A0, DATA_BASE);
                m.cpu.write_reg(Reg::A4, 1);
                m
            }
        };
        // Into the second load, and into the low half of the first MAC.
        for (target, instret) in [(12, 12), (28, 8)] {
            let (m, result) = run_both(make(target));
            assert_eq!(result.unwrap().instret, instret, "target {target}");
            assert_eq!(
                m.micro_ops(),
                5,
                "auipc, jalr, a load run, a MAC run, ebreak"
            );
        }
        let (m, _) = run_both(make(12));
        assert_eq!(m.cpu.read_reg(Reg::T0), 0, "the first load was jumped over");
        assert_eq!(m.cpu.read_reg(Reg::T3), 8);
    }

    #[test]
    fn no_fused_run_reaches_past_a_block_end() {
        // The last instruction of a program without a terminator ends
        // its block and runs on its own: a run of three loads fuses
        // two, a run of three MACs only the first two.
        let mut a = Assembler::new();
        for (k, t) in (0..3).zip(T) {
            a.ld(t, 8 * k, Reg::A0);
        }
        let mut m = Machine::new();
        m.load_program(&a.finish());
        assert_eq!(m.micro_ops(), 2);
        let mut a = Assembler::new();
        for _ in 0..3 {
            mac(&mut a, (Reg::A4, Reg::A5), Reg::T0, Reg::T1);
        }
        let mut m = Machine::with_ext(mac_ext());
        m.load_program(&a.finish());
        assert_eq!(
            m.micro_ops(),
            3,
            "a MAC run of two, then the last pair unfused"
        );
        // A terminator between two runs keeps them apart.
        let mut a = Assembler::new();
        let next = a.new_label();
        a.ld(Reg::T0, 0, Reg::A0);
        a.ld(Reg::T1, 8, Reg::A0);
        a.j(next);
        a.bind(next);
        a.ld(Reg::T2, 16, Reg::A0);
        a.ld(Reg::T3, 24, Reg::A0);
        a.ebreak();
        let mut m = Machine::new();
        m.load_program(&a.finish());
        assert_eq!(m.micro_ops(), 4, "a run, j, a run, ebreak");
    }

    #[test]
    fn fuel_running_out_mid_block_stops_at_the_same_instruction() {
        let make = || {
            let mut a = Assembler::new();
            for _ in 0..100 {
                a.addi(Reg::T0, Reg::T0, 1);
            }
            a.ebreak();
            let mut m = Machine::new();
            m.load_program(&a.finish());
            m.set_fuel(37);
            m
        };
        let (m, result) = run_both(make);
        assert_eq!(result, Err(RunError::OutOfFuel { fuel: 37 }));
        assert_eq!(m.cpu.read_reg(Reg::T0), 37, "37 instructions retired");
        assert_eq!(m.cpu.pc, PROG_BASE + 4 * 37);
    }

    #[test]
    fn memory_fault_mid_block_commits_the_earlier_writes() {
        for (addr, fault) in [
            (
                DATA_BASE + 4,
                MemError::Misaligned {
                    addr: DATA_BASE + 4,
                    width: 8,
                },
            ),
            (0, MemError::OutOfBounds { addr: 0, width: 8 }),
        ] {
            let make = || {
                let mut a = Assembler::new();
                a.addi(Reg::T0, Reg::T0, 1);
                a.sd(Reg::T0, 0, Reg::A1);
                a.mul(Reg::A2, Reg::A0, Reg::T0); // a2 = a0, two cycles on
                a.ld(Reg::T2, 0, Reg::A2); // stalls a cycle, then faults
                a.addi(Reg::T0, Reg::T0, 1);
                a.ebreak();
                let mut m = Machine::new();
                m.load_program(&a.finish());
                m.cpu.write_reg(Reg::A0, addr);
                m.cpu.write_reg(Reg::A1, DATA_BASE + 64);
                m
            };
            let (mut m, result) = run_both(make);
            assert_eq!(result, Err(RunError::Trap(Trap::Memory(fault))));
            assert_eq!(m.cpu.read_reg(Reg::T0), 1);
            assert_eq!(m.cpu.read_reg(Reg::A2), addr);
            assert_eq!(m.mem.load_u64(DATA_BASE + 64).unwrap(), 1);
            assert_eq!(m.cpu.pc, PROG_BASE + 12, "the PC stays at the load");

            // The faulting load was retired, so resuming it (now at a
            // good address) issues after it, when `a2` is long ready.
            m.cpu.write_reg(Reg::A2, DATA_BASE);
            let resumed = m.run().unwrap();
            assert_eq!(resumed.instret, 3);
            assert_eq!(resumed.timing.stall_cycles, 0);
        }
    }

    #[test]
    fn jalr_into_mid_block_starts_at_its_target() {
        let make = || {
            let mut a = Assembler::new();
            a.push(Inst::Auipc {
                rd: Reg::T0,
                imm20: 0,
            });
            a.jalr(Reg::Zero, 12, Reg::T0); // to the second addi
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::A0, Reg::A0, 2);
            a.mul(Reg::A1, Reg::A0, Reg::A0);
            a.addi(Reg::A0, Reg::A1, 4);
            a.ebreak();
            let mut m = Machine::new();
            m.load_program(&a.finish());
            m
        };
        let (mut m, result) = run_both(make);
        let stats = result.unwrap();
        assert_eq!(m.cpu.read_reg(Reg::A0), 8);
        assert_eq!(stats.instret, 6);
        // Entered again at the block's natural start, then mid-block
        // once more: each entry point gets its own summary.
        m.cpu.pc = PROG_BASE + 8;
        m.cpu.write_reg(Reg::A0, 0);
        assert_eq!(m.run().unwrap().instret, 5);
        assert_eq!(m.cpu.read_reg(Reg::A0), 13);
        m.cpu.pc = PROG_BASE;
        assert_eq!(m.run().unwrap(), stats);
    }

    #[test]
    fn unregistered_custom_mid_block_is_illegal() {
        let make = || {
            let mut a = Assembler::new();
            a.addi(Reg::A0, Reg::A0, 1);
            a.custom_r4(
                crate::ext::CustomId(999),
                Reg::A1,
                Reg::A0,
                Reg::A0,
                Reg::A0,
            );
            a.addi(Reg::A0, Reg::A0, 1);
            a.ebreak();
            let mut m = Machine::new();
            m.load_program(&a.finish());
            m
        };
        let (m, result) = run_both(make);
        assert_eq!(result, Err(RunError::Trap(Trap::IllegalInstruction)));
        assert_eq!(m.cpu.read_reg(Reg::A0), 1);
        assert_eq!(m.cpu.pc, PROG_BASE + 4);
    }

    #[test]
    fn set_timing_drops_the_block_summaries() {
        let make = |timing| {
            let mut a = Assembler::new();
            a.mul(Reg::A0, Reg::A0, Reg::A1);
            a.add(Reg::A0, Reg::A0, Reg::A1);
            a.ret();
            let mut m = Machine::new();
            m.set_timing(timing);
            m.load_program(&a.finish());
            m
        };
        let slow = TimingConfig {
            mul_latency: 4,
            ..TimingConfig::default()
        };
        let mut m = make(TimingConfig::default());
        let fast = m.call(&[]).unwrap();
        m.set_timing(slow);
        let want = make(slow).call(&[]).unwrap();
        assert_eq!(m.call(&[]).unwrap(), want);
        assert_eq!(want.cycles, fast.cycles + 2);
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
