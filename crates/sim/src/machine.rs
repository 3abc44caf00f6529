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
    /// no per-step lookup or allocation work.
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
    /// The run goes a block at a time: the straight-line instructions
    /// up to the next control or system instruction execute in one
    /// loop, their timing is replayed from the block's summary when its
    /// entry is clean (DESIGN.md §9.5), and the terminator is
    /// retired on its own, so branch outcomes are costed exactly. With
    /// a tracer attached, or fuel for less than the block, every
    /// instruction is executed and retired on its own.
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
        for u in &self.uops[first..end] {
            if let Err(trap) = self.cpu.exec(u, &mut self.mem) {
                let faulting = first + ((self.cpu.pc - entry_pc) / 4) as usize;
                for pre in &self.timing[first..=faulting] {
                    self.pipeline.retire_pre(pre, false);
                }
                return Err(trap);
            }
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
        let result = self.cpu.exec(u, &mut self.mem);
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
        let data = |m: &Machine| m.mem.read_bytes(DATA_BASE, 256).unwrap().to_vec();
        assert_eq!(data(&blocks), data(&single));
        (blocks, got)
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
