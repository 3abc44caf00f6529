//! Rocket-style in-order pipeline timing model.
//!
//! The paper evaluates on a 64-bit Rocket core: a 5-stage, in-order,
//! single-issue pipeline with full operand forwarding, a pipelined
//! multiplier, and (after the paper's modification) an extended
//! multiplier "XMUL" that executes both the base multiply instructions
//! and all custom ISE instructions with a 2-stage pipeline — one result
//! per cycle, results available to dependants one cycle later than an
//! ALU result (§3.3: "all custom instructions (and also `mul[hu]`)
//! execute in one cycle", with "a 2-stage pipeline ... one register
//! stage at input operands and another at the output result").
//!
//! [`PipelineModel`] reproduces exactly the hazards that matter for the
//! straight-line MPI kernels of the paper:
//!
//! * in-order, single-issue: one instruction per cycle, program order;
//! * operand forwarding: an ALU result is available to the next
//!   instruction with no bubble;
//! * multiplier latency: a dependant of a `mul`/`mulhu`/XMUL result
//!   issues ≥ [`TimingConfig::mul_latency`] cycles after the producer;
//! * load-use: a dependant of a load issues ≥
//!   [`TimingConfig::load_latency`] cycles after the load (cache hit);
//! * taken control flow pays [`TimingConfig::branch_taken_penalty`]
//!   flush cycles (Rocket resolves branches late; we model the common
//!   not-taken-predicted case of short kernels);
//! * divides block the pipeline for [`TimingConfig::div_latency`]
//!   cycles (iterative, unpipelined).

use crate::ext::ExecUnit;
use crate::inst::Inst;
use crate::reg::Reg;

/// Latency/penalty parameters of the pipeline model.
///
/// The defaults model the Rocket configuration of the paper; they are
/// plain data so experiments can explore other micro-architectures
/// (e.g. a 3-cycle multiplier).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Cycles until an ALU result can be consumed (1 = full forwarding).
    pub alu_latency: u64,
    /// Cycles until a multiplier (or XMUL) result can be consumed.
    pub mul_latency: u64,
    /// Cycles a divide occupies the pipeline (unpipelined).
    pub div_latency: u64,
    /// Cycles until a loaded value can be consumed (cache-hit load-use).
    pub load_latency: u64,
    /// Extra cycles after a taken branch or jump (fetch redirect).
    pub branch_taken_penalty: u64,
}

impl Default for TimingConfig {
    /// The Rocket-like configuration used for all paper experiments.
    fn default() -> Self {
        TimingConfig {
            alu_latency: 1,
            mul_latency: 2,
            div_latency: 33,
            load_latency: 2,
            branch_taken_penalty: 2,
        }
    }
}

/// Classification of one retired instruction, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU operation (including `lui` etc.).
    Alu,
    /// Base-ISA multiply executed on the (X)MUL unit.
    Mul,
    /// Iterative divide/remainder.
    Div,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Branch or jump.
    Control,
    /// Custom instruction on the ALU.
    CustomAlu,
    /// Custom instruction on the XMUL unit.
    CustomXmul,
    /// `fence`/`ecall`/`ebreak`.
    System,
}

/// Per-class retirement counters and stall accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Retired ALU instructions.
    pub alu: u64,
    /// Retired base multiplies.
    pub mul: u64,
    /// Retired divides.
    pub div: u64,
    /// Retired loads.
    pub load: u64,
    /// Retired stores.
    pub store: u64,
    /// Retired control-transfer instructions.
    pub control: u64,
    /// Retired custom instructions (ALU-class).
    pub custom_alu: u64,
    /// Retired custom instructions (XMUL-class).
    pub custom_xmul: u64,
    /// Retired system instructions.
    pub system: u64,
    /// Cycles lost to data-hazard interlocks.
    pub stall_cycles: u64,
    /// Cycles lost to control-flow redirects.
    pub flush_cycles: u64,
}

impl TimingStats {
    /// Total retired instructions.
    pub fn instret(&self) -> u64 {
        self.alu
            + self.mul
            + self.div
            + self.load
            + self.store
            + self.control
            + self.custom_alu
            + self.custom_xmul
            + self.system
    }

    /// Field-wise difference `self − earlier`.
    ///
    /// All counters are monotone, so subtracting a snapshot taken at
    /// the start of a measurement yields the per-run delta. This is how
    /// [`crate::machine::RunStats::timing`] is produced: every field of
    /// a [`crate::machine::RunStats`] covers exactly one run.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not an earlier snapshot
    /// of the same counter stream (a counter would underflow).
    pub fn delta(&self, earlier: &TimingStats) -> TimingStats {
        TimingStats {
            alu: self.alu - earlier.alu,
            mul: self.mul - earlier.mul,
            div: self.div - earlier.div,
            load: self.load - earlier.load,
            store: self.store - earlier.store,
            control: self.control - earlier.control,
            custom_alu: self.custom_alu - earlier.custom_alu,
            custom_xmul: self.custom_xmul - earlier.custom_xmul,
            system: self.system - earlier.system,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            flush_cycles: self.flush_cycles - earlier.flush_cycles,
        }
    }
}

impl std::ops::AddAssign for TimingStats {
    /// Field-wise sum: one add per counter.
    fn add_assign(&mut self, d: TimingStats) {
        self.alu += d.alu;
        self.mul += d.mul;
        self.div += d.div;
        self.load += d.load;
        self.store += d.store;
        self.control += d.control;
        self.custom_alu += d.custom_alu;
        self.custom_xmul += d.custom_xmul;
        self.system += d.system;
        self.stall_cycles += d.stall_cycles;
        self.flush_cycles += d.flush_cycles;
    }
}

/// Timing-relevant facts about one instruction, computed once.
///
/// [`PipelineModel::retire`] re-derives these on every call (allocating
/// for the source-register list); a [`crate::Machine`] instead
/// pre-decodes its whole program into `PreDecoded` records at load time
/// and feeds them to [`PipelineModel::retire_pre`], which keeps the
/// per-instruction hot path free of allocation and lookup work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreDecoded {
    /// Timing class of the instruction.
    pub class: InstClass,
    /// Register numbers of the non-`x0` sources (first `nuses` entries).
    pub uses: [u8; 3],
    /// Number of live entries in `uses`.
    pub nuses: u8,
    /// Destination register number; 0 when the instruction writes no
    /// register (or writes `x0`, which never creates a hazard).
    pub def: u8,
}

impl PreDecoded {
    /// Pre-decodes one instruction. `custom_unit` must be provided for
    /// [`Inst::Custom`] exactly as for [`PipelineModel::retire`].
    pub fn of(inst: &Inst, custom_unit: Option<ExecUnit>) -> Self {
        let mut uses = [0u8; 3];
        let mut nuses = 0u8;
        for src in inst.uses() {
            if src != Reg::Zero {
                uses[nuses as usize] = src.number();
                nuses += 1;
            }
        }
        let def = match inst.def() {
            Some(rd) => rd.number(),
            None => 0,
        };
        PreDecoded {
            class: classify(inst, custom_unit),
            uses,
            nuses,
            def,
        }
    }
}

/// The in-order issue model. Feed it each retired instruction via
/// [`PipelineModel::retire`]; read the elapsed time from
/// [`PipelineModel::cycles`].
#[derive(Debug, Clone)]
pub struct PipelineModel {
    config: TimingConfig,
    /// Cycle at which each register's newest value becomes forwardable.
    ready: [u64; 32],
    /// Earliest cycle the next instruction may issue.
    next_issue: u64,
    stats: TimingStats,
}

impl PipelineModel {
    /// Creates a model with the given configuration.
    pub fn new(config: TimingConfig) -> Self {
        PipelineModel {
            config,
            ready: [0; 32],
            next_issue: 0,
            stats: TimingStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TimingConfig {
        &self.config
    }

    /// Elapsed cycles so far (the cycle at which the next instruction
    /// could issue).
    pub fn cycles(&self) -> u64 {
        self.next_issue
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    /// Resets time and register scoreboard, keeping the configuration.
    pub fn reset(&mut self) {
        self.ready = [0; 32];
        self.next_issue = 0;
        self.stats = TimingStats::default();
    }

    /// Accounts for one retired instruction.
    ///
    /// `taken` reports whether a control instruction redirected fetch
    /// (ignored for non-control instructions). `custom_unit` must be
    /// provided for [`Inst::Custom`] and gives its functional unit.
    pub fn retire(&mut self, inst: &Inst, taken: bool, custom_unit: Option<ExecUnit>) {
        self.retire_pre(&PreDecoded::of(inst, custom_unit), taken);
    }

    /// Accounts for a whole summarised run at once, exactly as retiring
    /// its instructions one by one would, when its entry is clean:
    /// every live-in register is ready by the next issue slot. Returns
    /// `false`, changing nothing, when it is not.
    pub(crate) fn replay(&mut self, block: &BlockTiming) -> bool {
        let t0 = self.next_issue;
        let mut live = block.live_in;
        while live != 0 {
            if self.ready[live.trailing_zeros() as usize] > t0 {
                return false;
            }
            live &= live - 1;
        }
        let mut defs = block.defs;
        while defs != 0 {
            let r = defs.trailing_zeros() as usize;
            self.ready[r] = t0 + block.ready[r];
            defs &= defs - 1;
        }
        self.next_issue = t0 + block.cycles;
        self.stats += block.stats;
        true
    }

    /// Accounts for one retired, pre-decoded instruction.
    ///
    /// Identical semantics to [`PipelineModel::retire`] but without the
    /// per-call decode/allocation work — the hot path of
    /// [`crate::Machine::run`].
    #[inline]
    pub fn retire_pre(&mut self, pre: &PreDecoded, taken: bool) {
        let class = pre.class;
        let cfg = self.config;

        // Issue once all sources are forwardable.
        let mut issue = self.next_issue;
        for &src in &pre.uses[..pre.nuses as usize] {
            issue = issue.max(self.ready[src as usize]);
        }
        self.stats.stall_cycles += issue - self.next_issue;

        // Result availability.
        let latency = match class {
            InstClass::Alu | InstClass::CustomAlu | InstClass::Control => cfg.alu_latency,
            InstClass::Mul | InstClass::CustomXmul => cfg.mul_latency,
            InstClass::Div => cfg.div_latency,
            InstClass::Load => cfg.load_latency,
            InstClass::Store | InstClass::System => cfg.alu_latency,
        };
        // `def == 0` covers both "no destination" and "writes x0": slot
        // 0 is written unconditionally (branch-free) but never read,
        // because pre-decoded source lists exclude x0.
        self.ready[pre.def as usize] = issue + latency;

        // Next issue slot.
        let mut next = issue + 1;
        if class == InstClass::Div {
            next = issue + cfg.div_latency; // divider blocks
        }
        if class == InstClass::Control && taken {
            next += cfg.branch_taken_penalty;
            self.stats.flush_cycles += cfg.branch_taken_penalty;
        }
        self.next_issue = next;

        match class {
            InstClass::Alu => self.stats.alu += 1,
            InstClass::Mul => self.stats.mul += 1,
            InstClass::Div => self.stats.div += 1,
            InstClass::Load => self.stats.load += 1,
            InstClass::Store => self.stats.store += 1,
            InstClass::Control => self.stats.control += 1,
            InstClass::CustomAlu => self.stats.custom_alu += 1,
            InstClass::CustomXmul => self.stats.custom_xmul += 1,
            InstClass::System => self.stats.system += 1,
        }
    }
}

/// The timing of a straight-line run of non-control instructions,
/// relative to the cycle it is entered at.
///
/// The model has no cache and no value-dependent latency, so timing
/// depends on data only through control flow. A run without control
/// transfers therefore issues each instruction at a fixed offset from
/// its entry cycle `t0`, provided every register it reads before
/// writing (its live-ins) is ready by `t0`: an instruction never issues
/// before `t0`, so such a source never stalls it. [`Self::of`] records
/// that timing once by retiring the run on a fresh model (where every
/// register is ready at cycle 0), and [`PipelineModel::replay`] applies
/// it with one add per counter instead of one [`PipelineModel::retire_pre`]
/// per instruction.
#[derive(Debug, Clone)]
pub(crate) struct BlockTiming {
    /// Registers read before the run writes them (bit `r` = `x{r}`).
    live_in: u32,
    /// Scoreboard slots the run writes (slot 0 included: instructions
    /// without a destination write it, see `retire_pre`).
    defs: u32,
    /// Per written slot: cycle its value becomes ready, minus `t0`.
    ready: [u64; 32],
    /// Cycles from entry to the next issue slot after the run.
    cycles: u64,
    /// The run's counters.
    stats: TimingStats,
}

impl BlockTiming {
    /// Summarises `run`, which must hold no control instruction (a
    /// branch's cost depends on its outcome).
    pub(crate) fn of(config: TimingConfig, run: &[PreDecoded]) -> Self {
        let mut model = PipelineModel::new(config);
        let (mut live_in, mut defs) = (0u32, 0u32);
        for pre in run {
            debug_assert!(pre.class != InstClass::Control, "runs end at control");
            for &src in &pre.uses[..pre.nuses as usize] {
                live_in |= (1 << src) & !defs;
            }
            model.retire_pre(pre, false);
            defs |= 1 << pre.def;
        }
        BlockTiming {
            live_in,
            defs,
            ready: model.ready,
            cycles: model.next_issue,
            stats: model.stats,
        }
    }
}

/// Classifies an instruction into its timing class.
fn classify(inst: &Inst, custom_unit: Option<ExecUnit>) -> InstClass {
    match inst {
        Inst::Op { op, .. } if op.is_multiply() => InstClass::Mul,
        Inst::Op { op, .. } if op.is_divide() => InstClass::Div,
        Inst::Op { .. } | Inst::OpImm { .. } | Inst::Lui { .. } | Inst::Auipc { .. } => {
            InstClass::Alu
        }
        Inst::Load { .. } => InstClass::Load,
        Inst::Store { .. } => InstClass::Store,
        Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Branch { .. } => InstClass::Control,
        Inst::Fence | Inst::Ecall | Inst::Ebreak => InstClass::System,
        Inst::Custom { .. } => match custom_unit {
            Some(ExecUnit::Xmul) => InstClass::CustomXmul,
            _ => InstClass::CustomAlu,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, LoadOp};

    fn op(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::Op { op, rd, rs1, rs2 }
    }

    #[test]
    fn independent_alu_ops_are_one_cycle_each() {
        let mut p = PipelineModel::new(TimingConfig::default());
        for _ in 0..10 {
            p.retire(&op(AluOp::Add, Reg::T0, Reg::A0, Reg::A1), false, None);
        }
        assert_eq!(p.cycles(), 10);
        assert_eq!(p.stats().stall_cycles, 0);
    }

    #[test]
    fn dependent_alu_ops_forward_without_stall() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Add, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Add, Reg::T1, Reg::T0, Reg::A1), false, None);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.stats().stall_cycles, 0);
    }

    #[test]
    fn mul_consumer_stalls_one_cycle() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Mulhu, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Add, Reg::T1, Reg::T0, Reg::A1), false, None);
        // mul issues at 0, result ready at 2; add issues at 2.
        assert_eq!(p.cycles(), 3);
        assert_eq!(p.stats().stall_cycles, 1);
    }

    #[test]
    fn mul_followed_by_independent_op_has_no_stall() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Mulhu, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Add, Reg::T1, Reg::A2, Reg::A3), false, None);
        p.retire(&op(AluOp::Add, Reg::T2, Reg::T0, Reg::A1), false, None);
        // t0 ready at 2, consumed by the instruction issuing at 2 anyway.
        assert_eq!(p.cycles(), 3);
        assert_eq!(p.stats().stall_cycles, 0);
    }

    #[test]
    fn back_to_back_muls_pipeline() {
        let mut p = PipelineModel::new(TimingConfig::default());
        for _ in 0..8 {
            p.retire(&op(AluOp::Mulhu, Reg::T0, Reg::A0, Reg::A1), false, None);
        }
        // Pipelined: one per cycle even though each writes t0.
        // (In-order issue never reads t0, so no hazard.)
        assert_eq!(p.cycles(), 8);
    }

    #[test]
    fn load_use_interlock() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(
            &Inst::Load {
                op: LoadOp::Ld,
                rd: Reg::T0,
                rs1: Reg::A0,
                offset: 0,
            },
            false,
            None,
        );
        p.retire(&op(AluOp::Add, Reg::T1, Reg::T0, Reg::A1), false, None);
        assert_eq!(p.cycles(), 3);
        assert_eq!(p.stats().stall_cycles, 1);
    }

    #[test]
    fn taken_branch_pays_flush() {
        let mut p = PipelineModel::new(TimingConfig::default());
        let b = Inst::Branch {
            op: crate::inst::BranchOp::Bne,
            rs1: Reg::A0,
            rs2: Reg::Zero,
            offset: -8,
        };
        p.retire(&b, true, None);
        assert_eq!(p.cycles(), 1 + 2);
        p.retire(&b, false, None);
        assert_eq!(p.cycles(), 4); // not-taken costs 1
        assert_eq!(p.stats().flush_cycles, 2);
    }

    #[test]
    fn divide_blocks_pipeline() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Divu, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Add, Reg::T1, Reg::A2, Reg::A3), false, None);
        assert_eq!(p.cycles(), 33 + 1);
    }

    #[test]
    fn custom_xmul_has_mul_latency() {
        let mut p = PipelineModel::new(TimingConfig::default());
        let c = Inst::Custom {
            id: crate::ext::CustomId(0),
            rd: Reg::T0,
            rs1: Reg::A0,
            rs2: Reg::A1,
            rs3: Reg::A2,
            imm: 0,
        };
        p.retire(&c, false, Some(ExecUnit::Xmul));
        p.retire(&op(AluOp::Add, Reg::T1, Reg::T0, Reg::A1), false, None);
        assert_eq!(p.cycles(), 3);
        assert_eq!(p.stats().custom_xmul, 1);
    }

    #[test]
    fn x0_never_creates_hazards() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Mulhu, Reg::Zero, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Add, Reg::T0, Reg::Zero, Reg::A1), false, None);
        assert_eq!(p.cycles(), 2);
        assert_eq!(p.stats().stall_cycles, 0);
    }

    #[test]
    fn replay_equals_retiring_on_clean_entry_and_refuses_dirty_entry() {
        let ld = |rd| Inst::Load {
            op: LoadOp::Ld,
            rd,
            rs1: Reg::A0,
            offset: 0,
        };
        let run = [
            op(AluOp::Mulhu, Reg::T0, Reg::A1, Reg::A2),
            op(AluOp::Add, Reg::T1, Reg::T0, Reg::A1),
            ld(Reg::T2),
            op(AluOp::Divu, Reg::T3, Reg::T2, Reg::T1),
            op(AluOp::Add, Reg::T1, Reg::T3, Reg::A3),
        ];
        let pre = run.map(|i| PreDecoded::of(&i, None));
        let block = BlockTiming::of(TimingConfig::default(), &pre);
        // Entered after an unrelated load, whose result stays pending.
        let mut retired = PipelineModel::new(TimingConfig::default());
        retired.retire(&ld(Reg::S1), false, None);
        let mut replayed = retired.clone();
        for i in &run {
            retired.retire(i, false, None);
        }
        assert!(replayed.replay(&block));
        assert_eq!(replayed.cycles(), retired.cycles());
        assert_eq!(replayed.stats(), retired.stats());
        assert_eq!(replayed.ready, retired.ready);
        // A live-in (`a1`) still in flight makes the entry dirty.
        let mut dirty = PipelineModel::new(TimingConfig::default());
        dirty.retire(&op(AluOp::Mul, Reg::A1, Reg::A2, Reg::A2), false, None);
        let before = dirty.clone();
        assert!(!dirty.replay(&block));
        assert_eq!(dirty.cycles(), before.cycles());
        assert_eq!(dirty.stats(), before.stats());
    }

    #[test]
    fn instret_totals() {
        let mut p = PipelineModel::new(TimingConfig::default());
        p.retire(&op(AluOp::Add, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&op(AluOp::Mulhu, Reg::T0, Reg::A0, Reg::A1), false, None);
        p.retire(&Inst::Ebreak, false, None);
        assert_eq!(p.stats().instret(), 3);
    }
}
