//! Seed-driven random-program ISA fuzzing with input shrinking.
//!
//! Programs mix RV64IM and Table 1 custom instructions, run through
//! [`DiffRunner`] — the pipelined [`Machine`] a block at a time, the
//! same machine traced one instruction at a time, and the independent
//! `RefMachine` — and have their **full architectural state** diffed
//! at the end: all 32 registers, the PC, every word of the data window
//! the program could touch and the last words of data memory, the
//! retired-instruction count, and the exit reason; the two machine runs
//! must also cost the same cycles.
//!
//! Generated programs are trap-free by construction so both executors
//! always reach the final `ebreak`:
//!
//! * loads/stores address a small window at [`DATA_BASE`] through two
//!   pinned pointer registers (`s10`/`s11`) that are never overwritten,
//!   with width-aligned in-window offsets;
//! * control flow is forward-only (`beq`…`bgeu`, `jal`), targets held
//!   as **instruction indices** so the generator and the shrinker can
//!   never produce a loop or an out-of-program jump;
//! * only registered custom ids are emitted.
//!
//! Beside single custom instructions, programs carry runs of high/low
//! MAC pairs on shared `rs1`/`rs2` that accumulate into one register
//! pair, with random register aliasing, runs of `ld`/`sd` at
//! consecutive offsets, column ends and carry-propagation runs, so
//! both the simulator's fused micro-ops and its refusals to fuse are
//! diffed.
//!
//! On divergence the failing program is shrunk by delta-debugging:
//! chunks, then single instructions, then initial register values are
//! removed while the divergence persists, yielding a minimal repro
//! (typically 1–3 instructions plus `ebreak`).

use crate::refexec::{RefExit, RefMachine};
use mpise_core::full_radix::{MADDHU, MADDLU};
use mpise_core::reduced_radix::{MADD57HU, MADD57LU};
use mpise_sim::asm::{display_with_ext, Program};
use mpise_sim::ext::{CustomId, IsaExtension};
use mpise_sim::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use mpise_sim::machine::{Halt, RunError, RunStats, DATA_BASE, DATA_SIZE};
use mpise_sim::trace::Tracer;
use mpise_sim::{Machine, PipelineModel, Reg, TimingConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes of data memory a fuzz program may touch, starting at
/// [`DATA_BASE`]. Kept small so the full window diff stays cheap.
pub(crate) const WINDOW: u64 = 512;

/// The last words of data memory, which every executor starts with
/// (word `k` holds `EDGE_WORD + k`) and which are diffed with the
/// [`WINDOW`]: a memory run that crosses the end of memory commits its
/// words before the faulting one here.
const EDGE_WORDS: u64 = 8;
const EDGE_WORD: u64 = 0xed9e_0000_0000_0000;

/// The address of the first of the [`EDGE_WORDS`].
const EDGE_BASE: u64 = DATA_BASE + DATA_SIZE as u64 - 8 * EDGE_WORDS;

/// Instruction budget per program (forward-only control flow retires at
/// most `len` instructions; the budget only guards the injected-bug
/// case where a broken executor corrupts a pointer).
const FUEL: u64 = 4096;

/// Which instruction-set extension the fuzzer targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtChoice {
    /// Base RV64IM only.
    Base,
    /// RV64IM + the full-radix ISE (`maddlu`/`maddhu`/`cadd`).
    FullRadix,
    /// RV64IM + the reduced-radix ISE (`madd57lu`/`madd57hu`/`sraiadd`).
    ReducedRadix,
}

impl ExtChoice {
    /// All three targets, in gate order.
    pub const ALL: [ExtChoice; 3] = [
        ExtChoice::Base,
        ExtChoice::FullRadix,
        ExtChoice::ReducedRadix,
    ];

    /// The simulator extension registry for this choice.
    pub fn extension(self) -> IsaExtension {
        match self {
            ExtChoice::Base => IsaExtension::new("rv64im"),
            ExtChoice::FullRadix => mpise_core::full_radix_ext(),
            ExtChoice::ReducedRadix => mpise_core::reduced_radix_ext(),
        }
    }

    /// The `ext:` tag naming this choice in a corpus file.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            ExtChoice::Base => "none",
            ExtChoice::FullRadix => "full",
            ExtChoice::ReducedRadix => "red",
        }
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ExtChoice::Base => "rv64im",
            ExtChoice::FullRadix => "full-radix-ise",
            ExtChoice::ReducedRadix => "reduced-radix-ise",
        }
    }

    /// The custom ids available under this choice (R4-format first).
    fn custom_ids(self) -> &'static [u16] {
        match self {
            ExtChoice::Base => &[],
            ExtChoice::FullRadix => &[1, 2, 3],
            ExtChoice::ReducedRadix => &[4, 5, 6],
        }
    }

    /// The ids of the MAC pair the extension registers (high half
    /// first): `maddhu`, `maddlu` or `madd57hu`, `madd57lu`.
    fn mac_pair(self) -> Option<(CustomId, CustomId)> {
        match self {
            ExtChoice::Base => None,
            ExtChoice::FullRadix => Some((MADDHU, MADDLU)),
            ExtChoice::ReducedRadix => Some((MADD57HU, MADD57LU)),
        }
    }
}

/// One fuzz-program slot: either a fixed instruction or a control
/// transfer whose target is an instruction *index* (resolved to a byte
/// offset at materialisation time, so shrinking stays sound).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// A non-control instruction, emitted as-is.
    Plain(Inst),
    /// Forward conditional branch to `ops[target]` (or the final
    /// `ebreak` when `target == ops.len()`).
    Branch {
        /// Comparison.
        op: BranchOp,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Target instruction index, always `> `own index.
        target: usize,
    },
    /// Forward `jal` to `ops[target]`.
    Jal {
        /// Link register.
        rd: Reg,
        /// Target instruction index, always `>` own index.
        target: usize,
    },
}

/// A generated program plus its initial register state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzProgram {
    /// Extension the program may use.
    pub ext: ExtChoice,
    /// Initial register values (applied to both executors).
    pub init: Vec<(Reg, u64)>,
    /// The body; a final `ebreak` is appended at materialisation.
    pub ops: Vec<FuzzOp>,
}

impl FuzzProgram {
    /// Resolves index targets to byte offsets and appends the final
    /// `ebreak`.
    pub fn materialize(&self) -> Vec<Inst> {
        let mut out: Vec<Inst> = Vec::with_capacity(self.ops.len() + 1);
        for (i, op) in self.ops.iter().enumerate() {
            out.push(match *op {
                FuzzOp::Plain(inst) => inst,
                FuzzOp::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => Inst::Branch {
                    op,
                    rs1,
                    rs2,
                    offset: offset_for(i, target),
                },
                FuzzOp::Jal { rd, target } => Inst::Jal {
                    rd,
                    offset: offset_for(i, target),
                },
            });
        }
        out.push(Inst::Ebreak);
        out
    }

    /// The materialised program as a corpus entry (a file under
    /// `tests/corpus/`): its `ext:` tag, the nonzero initial
    /// registers, then the body as the disassembler prints it.
    pub fn listing(&self) -> String {
        let mut s = format!("ext: {}\n", self.ext.tag());
        for &(r, v) in &self.init {
            if v != 0 {
                s.push_str(&format!("init {r} = {v:#x}\n"));
            }
        }
        s.push_str("prog:\n");
        let ext = self.ext.extension();
        for inst in self.materialize() {
            s.push_str(&format!("    {}\n", display_with_ext(&inst, &ext)));
        }
        s
    }
}

fn offset_for(index: usize, target: usize) -> i32 {
    debug_assert!(target > index, "fuzz control flow is forward-only");
    ((target - index) * 4) as i32
}

/// One architectural-state divergence between simulator and reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// What differed first (exit reason, register, memory word or
    /// instret), with both observed values.
    pub what: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.what)
    }
}

/// The differential runner: the one piece of code that runs a program
/// on the simulator and on the reference and compares them.
///
/// Each program runs three times from the same registers and data
/// words: on a [`Machine`] a block at a time, on a second [`Machine`]
/// with a [`Tracer`] attached (so every instruction takes the
/// per-instruction path), and on a fresh `RefMachine`. Both machines
/// must match the reference's exit reason, registers, PC, data window,
/// last words of memory and `instret`, and each other's outcome (the
/// same [`RunStats`], or the same trap). The block run's cycles and
/// [`mpise_sim::timing::TimingStats`] must also equal the [`oracle`]'s
/// over the traced run, which re-derives every instruction's timing,
/// control instructions included, from the public
/// [`PipelineModel::retire`], after a trap too.
#[derive(Debug)]
pub struct DiffRunner {
    blocks: Machine,
    traced: Machine,
}

impl DiffRunner {
    /// A runner whose machines execute the true extension semantics.
    pub fn new(ext: ExtChoice) -> Self {
        Self::with_machine_ext(ext.extension())
    }

    /// A runner with an explicit machine-side extension registry —
    /// the hook through which conformance tests inject deliberately
    /// broken executors (the reference side always uses the paper
    /// semantics).
    pub fn with_machine_ext(machine_ext: IsaExtension) -> Self {
        let machine = || {
            let mut m = Machine::with_ext(machine_ext.clone());
            m.set_fuel(FUEL);
            m
        };
        DiffRunner {
            blocks: machine(),
            traced: machine(),
        }
    }

    /// Runs `prog` on all three executors and reports the first
    /// divergence.
    pub fn run(&mut self, prog: &FuzzProgram) -> Option<Divergence> {
        self.run_insts(&prog.materialize(), &prog.init, &[])
    }

    /// Runs `insts` from the registers `init` (every other register
    /// zero) and the data words `data` at [`DATA_BASE`] (the rest of
    /// the window zero) on all three executors, and reports the first
    /// divergence.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than the 512-byte fuzz data window.
    pub fn run_insts(
        &mut self,
        insts: &[Inst],
        init: &[(Reg, u64)],
        data: &[u64],
    ) -> Option<Divergence> {
        let mut window = [0u64; (WINDOW / 8) as usize];
        window[..data.len()].copy_from_slice(data);
        let edge: [u64; EDGE_WORDS as usize] = std::array::from_fn(|k| EDGE_WORD + k as u64);
        let program = Program::from_insts(insts.to_vec());
        self.traced.set_tracer(Some(Tracer::new(FUEL as usize)));
        let [blocks, traced] = [&mut self.blocks, &mut self.traced].map(|m| {
            m.mem.write_limbs(DATA_BASE, &window).expect("window fits");
            m.mem.write_limbs(EDGE_BASE, &edge).expect("edge words fit");
            m.load_program(&program);
            m.reset_clock();
            for r in Reg::ALL {
                m.cpu.write_reg(r, 0);
            }
            for &(r, v) in init {
                m.cpu.write_reg(r, v);
            }
            m.run()
        });

        let mut reference = RefMachine::new();
        reference.load(insts);
        let words = data
            .iter()
            .enumerate()
            .map(|(i, &w)| (DATA_BASE + 8 * i as u64, w));
        for (addr, w) in words.chain((EDGE_BASE..).step_by(8).zip(edge)) {
            reference.store_mem(addr, w, 8).expect("in memory");
        }
        for &(r, v) in init {
            reference.write_reg(r, v);
        }
        let ref_exit = reference.run(FUEL);

        for (path, machine, result) in [
            ("sim", &self.blocks, &blocks),
            ("traced", &self.traced, &traced),
        ] {
            if let Some(what) = diff_against_reference(path, machine, result, &reference, &ref_exit)
            {
                return Some(Divergence { what });
            }
        }
        // Same architectural outcome; the two paths must also end the
        // same way, and cost what the oracle re-derives.
        if blocks != traced {
            return Some(Divergence {
                what: format!("outcome: sim {blocks:?} vs traced {traced:?}"),
            });
        }
        let end_pc = self.traced.cpu.pc;
        let model = oracle(&mut self.traced, TimingConfig::default(), end_pc);
        let sim = self.blocks.pipeline();
        if (sim.cycles(), sim.stats()) != (model.cycles(), model.stats()) {
            return Some(Divergence {
                what: format!(
                    "timing: sim {} cycles {:?} vs oracle {} cycles {:?}",
                    sim.cycles(),
                    sim.stats(),
                    model.cycles(),
                    model.stats()
                ),
            });
        }
        None
    }
}

/// Re-times a finished traced run of `m` under `timing` with the public
/// [`PipelineModel::retire`], which derives each instruction's timing
/// facts afresh on every call: the timing oracle for the block-at-a-time
/// run loop. `end_pc` is where execution continued after the last
/// instruction; a jump counts as taken, a branch when it left the
/// fall-through path.
///
/// # Panics
///
/// Panics if `m` has no tracer or its tracer dropped entries.
pub fn oracle(m: &mut Machine, timing: TimingConfig, end_pc: u64) -> PipelineModel {
    let trace = m.take_tracer().expect("tracer attached");
    let entries = trace.entries();
    assert_eq!(entries.len() as u64, trace.total, "trace kept every entry");
    let mut model = PipelineModel::new(timing);
    for (k, e) in entries.iter().enumerate() {
        let next_pc = entries.get(k + 1).map_or(end_pc, |n| n.pc);
        let taken = match e.inst {
            Inst::Jal { .. } | Inst::Jalr { .. } => true,
            Inst::Branch { .. } => next_pc != e.pc + 4,
            _ => false,
        };
        let unit = match e.inst {
            Inst::Custom { id, .. } => m.ext().by_id(id).map(|d| d.unit),
            _ => None,
        };
        model.retire(&e.inst, taken, unit);
    }
    model
}

/// The first difference between one machine run (labelled `path`) and
/// the reference's: exit reason, a register, the PC, a word of the data
/// window or of the last words of memory, or `instret`.
fn diff_against_reference(
    path: &str,
    machine: &Machine,
    result: &Result<RunStats, RunError>,
    reference: &RefMachine,
    ref_exit: &RefExit,
) -> Option<String> {
    // Exit reasons must correspond exactly.
    let exits_match = match (result, ref_exit) {
        (Ok(stats), RefExit::Breakpoint) => stats.halt == Halt::Breakpoint,
        (Ok(stats), RefExit::EnvironmentCall) => stats.halt == Halt::EnvironmentCall,
        (Err(RunError::Trap(_)), RefExit::Fault(_)) => true,
        (Err(RunError::OutOfFuel { .. }), RefExit::OutOfFuel) => true,
        _ => false,
    };
    if !exits_match {
        return Some(format!(
            "exit mismatch: {path} {result:?} vs ref {ref_exit:?}"
        ));
    }

    for (i, (&s, &r)) in machine.cpu.regs().iter().zip(&reference.regs).enumerate() {
        if s != r {
            let reg = Reg::from_number(i as u8).expect("index < 32");
            return Some(format!("reg {reg}: {path} {s:#x} vs ref {r:#x}"));
        }
    }

    if machine.cpu.pc != reference.pc {
        return Some(format!(
            "pc: {path} {:#x} vs ref {:#x}",
            machine.cpu.pc, reference.pc
        ));
    }

    // The whole data window and the edge words, word by word.
    let edge = (EDGE_BASE..DATA_BASE + DATA_SIZE as u64).step_by(8);
    for addr in (DATA_BASE..DATA_BASE + WINDOW).step_by(8).chain(edge) {
        let s = machine.mem.load_u64(addr).expect("window readable");
        let r = reference.load_mem(addr, 8).expect("in window");
        if s != r {
            return Some(format!("mem[{addr:#x}]: {path} {s:#x} vs ref {r:#x}"));
        }
    }

    match result {
        Ok(stats) if stats.instret != reference.instret => Some(format!(
            "instret: {path} {} vs ref {}",
            stats.instret, reference.instret
        )),
        _ => None,
    }
}

/// Registers the generator may clobber. The pointer registers `s10` and
/// `s11` are deliberately absent so memory operands stay valid whatever
/// gets generated or shrunk away; `zero` is present so x0-write
/// discarding gets coverage.
const CLOBBERABLE: [Reg; 18] = [
    Reg::Zero,
    Reg::Ra,
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::A0,
    Reg::A1,
    Reg::A2,
    Reg::A3,
    Reg::A4,
    Reg::A5,
    Reg::S0,
    Reg::S1,
    Reg::S2,
];

const POINTERS: [Reg; 2] = [Reg::S10, Reg::S11];

fn any_source(rng: &mut StdRng) -> Reg {
    // Sources may also read the pointers (their values are plain u64s).
    if rng.gen_range(0u8..10) == 0 {
        POINTERS[rng.gen_range(0..POINTERS.len())]
    } else {
        CLOBBERABLE[rng.gen_range(0..CLOBBERABLE.len())]
    }
}

fn dest(rng: &mut StdRng) -> Reg {
    CLOBBERABLE[rng.gen_range(0..CLOBBERABLE.len())]
}

/// Carry/borrow boundary values: they dominate the bug surface of
/// multi-precision arithmetic (64-bit and 57-bit limb edges, the sign
/// bit).
pub const BOUNDARY_U64: [u64; 7] = [
    0,
    1,
    u64::MAX,
    u64::MAX - 1,
    (1 << 57) - 1,
    1 << 57,
    1 << 63,
];

/// Interesting 64-bit seeds: initial register values are biased toward
/// [`BOUNDARY_U64`], each drawn with probability 1/8, else uniform.
fn interesting_u64(rng: &mut StdRng) -> u64 {
    match BOUNDARY_U64.get(usize::from(rng.gen_range(0u8..8))) {
        Some(&v) => v,
        None => rng.gen(),
    }
}

/// The register–register operations the generator draws, beside the
/// divisions.
const ALU: [AluOp; 16] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Sltu,
    AluOp::Slt,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
    AluOp::Mul,
    AluOp::Mulhu,
    AluOp::Mulh,
    AluOp::Mulhsu,
    AluOp::Addw,
    AluOp::Subw,
];

/// Generates one deterministic trap-free program from `seed`.
pub fn gen_program(ext: ExtChoice, seed: u64) -> FuzzProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(4usize..=28);
    let mut ops = Vec::with_capacity(len);
    // Indices that a jump must not enter, because the instructions
    // before them set up a base register: those of rebasing memory
    // runs (see `mem_run`) and the store of a column end whose base is
    // `t` (see `column_end`). A target among them is re-aimed at the
    // range's start minus one.
    let mut rebased = Vec::new();
    let customs = ext.custom_ids();

    const DIV: [AluOp; 4] = [AluOp::Div, AluOp::Divu, AluOp::Rem, AluOp::Remu];
    const ALU_IMM: [AluImmOp; 9] = [
        AluImmOp::Addi,
        AluImmOp::Sltiu,
        AluImmOp::Xori,
        AluImmOp::Ori,
        AluImmOp::Andi,
        AluImmOp::Slli,
        AluImmOp::Srli,
        AluImmOp::Srai,
        AluImmOp::Addiw,
    ];
    const LOADS: [LoadOp; 5] = [LoadOp::Ld, LoadOp::Lw, LoadOp::Lwu, LoadOp::Lbu, LoadOp::Lb];
    const STORES: [StoreOp; 3] = [StoreOp::Sd, StoreOp::Sw, StoreOp::Sb];
    const BRANCHES: [BranchOp; 6] = [
        BranchOp::Beq,
        BranchOp::Bne,
        BranchOp::Blt,
        BranchOp::Bge,
        BranchOp::Bltu,
        BranchOp::Bgeu,
    ];

    while ops.len() < len {
        let i = ops.len();
        let kind = rng.gen_range(0u8..100);
        let op = if kind < 30 {
            FuzzOp::Plain(Inst::Op {
                op: ALU[rng.gen_range(0..ALU.len())],
                rd: dest(&mut rng),
                rs1: any_source(&mut rng),
                rs2: any_source(&mut rng),
            })
        } else if kind < 35 {
            FuzzOp::Plain(Inst::Op {
                op: DIV[rng.gen_range(0..DIV.len())],
                rd: dest(&mut rng),
                rs1: any_source(&mut rng),
                rs2: any_source(&mut rng),
            })
        } else if kind < 55 {
            let op = ALU_IMM[rng.gen_range(0..ALU_IMM.len())];
            let imm = if op.is_shift() {
                rng.gen_range(0i32..64)
            } else {
                rng.gen_range(-2048i32..=2047)
            };
            FuzzOp::Plain(Inst::OpImm {
                op,
                rd: dest(&mut rng),
                rs1: any_source(&mut rng),
                imm,
            })
        } else if kind < 75 && !customs.is_empty() {
            if let Some(pair) = ext.mac_pair().filter(|_| i + 2 <= len) {
                match rng.gen_range(0u8..8) {
                    0..=2 => {
                        let macs = rng.gen_range(1..=5).min((len - i) / 2);
                        ops.extend(mac_run(&mut rng, pair, macs));
                        continue;
                    }
                    3 if i + 4 <= len => {
                        let (run, guarded) = column_end(&mut rng, customs);
                        if guarded {
                            rebased.push(i + 1..i + 2);
                        }
                        ops.extend(run.into_iter().map(FuzzOp::Plain));
                        continue;
                    }
                    4 if i + 4 <= len => {
                        ops.extend(propagation_run(&mut rng, customs, len - i));
                        continue;
                    }
                    _ => {}
                }
            }
            FuzzOp::Plain(custom(&mut rng, customs))
        } else if kind < 89 && i + 2 <= len && rng.gen_range(0u8..3) == 0 {
            let (run, rebase) = mem_run(&mut rng, kind < 82, len - i);
            if rebase {
                rebased.push(i + 1..i + run.len());
            }
            ops.extend(run);
            continue;
        } else if kind < 82 {
            let op = LOADS[rng.gen_range(0..LOADS.len())];
            FuzzOp::Plain(Inst::Load {
                op,
                rd: dest(&mut rng),
                rs1: POINTERS[rng.gen_range(0..POINTERS.len())],
                offset: aligned_offset(&mut rng, op.width()),
            })
        } else if kind < 89 {
            let op = STORES[rng.gen_range(0..STORES.len())];
            FuzzOp::Plain(Inst::Store {
                op,
                rs1: POINTERS[rng.gen_range(0..POINTERS.len())],
                rs2: any_source(&mut rng),
                offset: aligned_offset(&mut rng, op.width()),
            })
        } else if kind < 93 {
            FuzzOp::Plain(Inst::Lui {
                rd: dest(&mut rng),
                imm20: rng.gen_range(-(1i32 << 19)..(1 << 19)),
            })
        } else if kind < 95 {
            FuzzOp::Plain(Inst::Auipc {
                rd: dest(&mut rng),
                imm20: rng.gen_range(0i32..4096),
            })
        } else if kind < 97 {
            FuzzOp::Jal {
                rd: dest(&mut rng),
                target: rng.gen_range(i + 1..=len),
            }
        } else {
            FuzzOp::Branch {
                op: BRANCHES[rng.gen_range(0..BRANCHES.len())],
                rs1: any_source(&mut rng),
                rs2: any_source(&mut rng),
                target: rng.gen_range(i + 1..=len),
            }
        };
        ops.push(op);
    }
    // A jump into a rebasing run would skip setting up its base.
    for op in &mut ops {
        if let FuzzOp::Branch { target, .. } | FuzzOp::Jal { target, .. } = op {
            if let Some(inner) = rebased.iter().find(|r| r.contains(target)) {
                *target = inner.start - 1;
            }
        }
    }

    let mut init: Vec<(Reg, u64)> = CLOBBERABLE
        .iter()
        .filter(|&&r| r != Reg::Zero)
        .map(|&r| (r, interesting_u64(&mut rng)))
        .collect();
    // Pointer registers: 8-aligned addresses in the first half of the
    // window, so every generated offset stays in bounds.
    for &p in &POINTERS {
        init.push((p, DATA_BASE + 8 * rng.gen_range(0..WINDOW / 16)));
    }
    FuzzProgram { ext, init, ops }
}

/// A single custom instruction drawn from `customs`, with random
/// registers.
fn custom(rng: &mut StdRng, customs: &[u16]) -> Inst {
    let id = customs[rng.gen_range(0..customs.len())];
    let (rs3, imm) = custom_operand(rng, id);
    Inst::Custom {
        id: CustomId(id),
        rd: dest(rng),
        rs1: any_source(rng),
        rs2: any_source(rng),
        rs3,
        imm,
    }
}

/// The `rs3` and immediate of custom instruction `id`: `sraiadd`
/// carries a shift amount, the others a third register.
fn custom_operand(rng: &mut StdRng, id: u16) -> (Reg, u8) {
    if id == 6 {
        (Reg::Zero, rng.gen_range(0u8..64))
    } else {
        (any_source(rng), 0)
    }
}

/// A column end as Listing 4 issues it, `and t, l, m ; sd t, off(p) ;
/// <custom> [; addi z, zero, 0]` off a pinned pointer `p`, which the
/// simulator runs as one micro-op (DESIGN.md §9.5), half of them with
/// the accumulator reset. One in four takes the store's base as `t`,
/// which must not fuse: `and c, q, q ; sd c, off(c)`, where `c` takes
/// a pinned pointer `q`'s value just before the store; such a column
/// end is reported as `true`, since a jump to its store would skip
/// setting `c`.
fn column_end(rng: &mut StdRng, customs: &[u16]) -> (Vec<Inst>, bool) {
    let pointer = POINTERS[rng.gen_range(0..POINTERS.len())];
    let same = rng.gen_range(0u8..4) == 0;
    let (t, l, m, base) = if same {
        let c = loop {
            let c = dest(rng);
            if c != Reg::Zero {
                break c;
            }
        };
        (c, pointer, pointer, c)
    } else {
        (dest(rng), any_source(rng), any_source(rng), pointer)
    };
    let mut ops = vec![
        Inst::Op {
            op: AluOp::And,
            rd: t,
            rs1: l,
            rs2: m,
        },
        Inst::Store {
            op: StoreOp::Sd,
            rs1: base,
            rs2: t,
            offset: aligned_offset(rng, 8),
        },
        custom(rng, customs),
    ];
    if rng.gen() {
        ops.push(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: dest(rng),
            rs1: Reg::Zero,
            imm: 0,
        });
    }
    (ops, same)
}

/// A carry-propagation run as §3.2 issues it: 2–8 steps
/// `<custom y, y, x> ; and x, x, m` down a list of limb registers, with
/// one custom id, one immediate and one mask register `m`, at most
/// `room` instructions long, which the simulator runs as one micro-op
/// (DESIGN.md §9.5). Registers are drawn so that every case comes up:
/// a clean run, and the runs that must not fuse whole: a step whose
/// custom instruction writes `m`, and a step with another immediate or
/// custom id.
fn propagation_run(rng: &mut StdRng, customs: &[u16], room: usize) -> Vec<FuzzOp> {
    let steps = rng.gen_range(2..=8).min(room / 2);
    let case = rng.gen_range(0u8..4);
    // The mask is rewritten only when it is not a pinned pointer.
    let m = if case == 2 {
        dest(rng)
    } else {
        any_source(rng)
    };
    let limbs: Vec<Reg> = (0..=steps)
        .map(|_| loop {
            let r = dest(rng);
            if r != m {
                break r;
            }
        })
        .collect();
    let id = customs[rng.gen_range(0..customs.len())];
    let (rs3, imm) = custom_operand(rng, id);
    let at = rng.gen_range(1..steps);
    let mut ops = Vec::with_capacity(2 * steps);
    for k in 0..steps {
        let (mut id, mut rs3, mut imm, mut y) = (id, rs3, imm, limbs[k + 1]);
        match case {
            2 if k == at => y = m,
            3 if k == at && id == 6 => imm = (imm + rng.gen_range(1..64)) % 64,
            3 if k == at => {
                id = loop {
                    let other = customs[rng.gen_range(0..customs.len())];
                    if other != id {
                        break other;
                    }
                };
                (rs3, imm) = custom_operand(rng, id);
            }
            _ => {}
        }
        ops.push(Inst::Custom {
            id: CustomId(id),
            rd: y,
            rs1: y,
            rs2: limbs[k],
            rs3,
            imm,
        });
        ops.push(Inst::Op {
            op: AluOp::And,
            rd: limbs[k],
            rs1: limbs[k],
            rs2: m,
        });
    }
    ops.into_iter().map(FuzzOp::Plain).collect()
}

/// A run of `macs` high/low MAC pairs on shared `rs1` and `rs2`, as
/// the kernels issue them: a first pair that adds its own addends or
/// the accumulators `(h, l)`, then pairs accumulating into `(h, l)`.
/// Registers are drawn so that every case of the simulator's MAC-run
/// fusion (DESIGN.md §9.5) comes up: a clean run, and the runs that
/// must not fuse whole. At the head: equal destinations, an `x0`
/// destination, and a low half that reads the high half's destination
/// as `rs1`, `rs2` or `rs3`; after it: a pair that reads an accumulator
/// as `rs1` or `rs2`, and accumulators that change mid-run.
fn mac_run(rng: &mut StdRng, (hi, lo): (CustomId, CustomId), macs: usize) -> Vec<FuzzOp> {
    let accumulators = |rng: &mut StdRng| loop {
        let (h, l) = (dest(rng), dest(rng));
        if h != l && h != Reg::Zero && l != Reg::Zero {
            return (h, l);
        }
    };
    let (mut h, mut l) = accumulators(rng);
    let (mut rs1, mut rs2) = (any_source(rng), any_source(rng));
    let (mut rs3a, mut rs3b) = if rng.gen() {
        (any_source(rng), any_source(rng))
    } else {
        (h, l)
    };
    let case = rng.gen_range(0u8..10);
    match case {
        0 => l = h,
        1 => (h, rs3a) = (Reg::Zero, Reg::Zero),
        2 => (l, rs3b) = (Reg::Zero, Reg::Zero),
        3 => rs1 = h,
        4 => rs2 = h,
        5 => rs3b = h,
        _ => {}
    }
    let at = rng.gen_range(1..macs.max(2));
    let mut ops = Vec::with_capacity(2 * macs);
    for k in 0..macs {
        if k > 0 {
            if case == 7 && k == at {
                (h, l) = accumulators(rng);
            }
            let source = |rng: &mut StdRng| loop {
                let r = any_source(rng);
                if r != h && r != l {
                    return r;
                }
            };
            (rs1, rs2) = (source(rng), source(rng));
            if case == 6 && k == at {
                let acc = if rng.gen() { h } else { l };
                if rng.gen() {
                    rs1 = acc;
                } else {
                    rs2 = acc;
                }
            }
            (rs3a, rs3b) = (h, l);
        }
        for (id, rd, rs3) in [(hi, h, rs3a), (lo, l, rs3b)] {
            ops.push(FuzzOp::Plain(Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                imm: 0,
            }));
        }
    }
    ops
}

/// A run of 2–8 `ld`s (`load`) or `sd`s at consecutive 8-byte offsets
/// off one pinned pointer, at most `room` instructions long, which the
/// simulator runs as one micro-op (DESIGN.md §9.5). One load run in
/// four goes off a copy of the pointer and overwrites that base
/// mid-run, with a second in-window pointer it has just stored there,
/// so the rest of the run addresses off the new base; such a run is
/// reported as `true`.
fn mem_run(rng: &mut StdRng, load: bool, room: usize) -> (Vec<FuzzOp>, bool) {
    let pointer = POINTERS[rng.gen_range(0..POINTERS.len())];
    let rebase = load && room >= 6 && rng.gen_range(0u8..4) == 0;
    let words = if rebase {
        rng.gen_range(3..=8).min(room - 3)
    } else {
        rng.gen_range(2..=8).min(room)
    };
    let first = 8 * rng.gen_range(0..=WINDOW / 16 - words as u64) as i32;
    let mut ops = Vec::with_capacity(words + 3);
    let mut base = pointer;
    let mut rebase_at = None;
    if rebase {
        // base = pointer; next = pointer + 8; mem[base + offset k] = next
        let (b, next) = loop {
            let (b, next) = (dest(rng), dest(rng));
            if b != next && b != Reg::Zero && next != Reg::Zero {
                break (b, next);
            }
        };
        let k = rng.gen_range(1..words - 1); // neither first nor last
        ops.push(FuzzOp::Plain(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: b,
            rs1: pointer,
            imm: 0,
        }));
        ops.push(FuzzOp::Plain(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: next,
            rs1: pointer,
            imm: 8,
        }));
        ops.push(FuzzOp::Plain(Inst::Store {
            op: StoreOp::Sd,
            rs1: b,
            rs2: next,
            offset: first + 8 * k as i32,
        }));
        base = b;
        rebase_at = Some(k);
    }
    for k in 0..words {
        let offset = first + 8 * k as i32;
        ops.push(FuzzOp::Plain(if load {
            let rd = if rebase_at == Some(k) {
                base
            } else {
                loop {
                    let r = dest(rng);
                    if r != base {
                        break r;
                    }
                }
            };
            Inst::Load {
                op: LoadOp::Ld,
                rd,
                rs1: base,
                offset,
            }
        } else {
            Inst::Store {
                op: StoreOp::Sd,
                rs1: base,
                rs2: any_source(rng),
                offset,
            }
        }));
    }
    (ops, rebase)
}

/// Width-aligned offset into the second half of the window (pointers
/// point into the first half, so `base + offset < DATA_BASE + WINDOW`).
fn aligned_offset(rng: &mut StdRng, width: u64) -> i32 {
    let slots = WINDOW / 2 / width;
    (rng.gen_range(0..slots) * width) as i32
}

/// Removes `ops[start..start + count]`, re-aiming branch targets.
fn remove_range(prog: &FuzzProgram, start: usize, count: usize) -> FuzzProgram {
    let mut ops = Vec::with_capacity(prog.ops.len() - count);
    for (i, op) in prog.ops.iter().enumerate() {
        if i >= start && i < start + count {
            continue;
        }
        let fix = |target: usize| -> usize {
            if target >= start + count {
                target - count
            } else {
                // Target fell inside the removed range: aim at the
                // removal point (still strictly forward).
                target.min(start).max(if i < start { start } else { 0 })
            }
        };
        ops.push(match *op {
            FuzzOp::Plain(inst) => FuzzOp::Plain(inst),
            FuzzOp::Branch {
                op,
                rs1,
                rs2,
                target,
            } => FuzzOp::Branch {
                op,
                rs1,
                rs2,
                target: fix(target),
            },
            FuzzOp::Jal { rd, target } => FuzzOp::Jal {
                rd,
                target: fix(target),
            },
        });
    }
    FuzzProgram {
        ext: prog.ext,
        init: prog.init.clone(),
        ops,
    }
}

/// Shrinks a failing program to a minimal one that still diverges:
/// halving chunk removal, then single-instruction removal, then
/// initial-register-value zeroing, iterated to a fixed point.
pub fn shrink(runner: &mut DiffRunner, prog: &FuzzProgram) -> FuzzProgram {
    let mut cur = prog.clone();
    debug_assert!(runner.run(&cur).is_some(), "shrink needs a failing input");
    loop {
        let mut progressed = false;
        // Chunked removal, largest first.
        let mut chunk = (cur.ops.len() / 2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < cur.ops.len() {
                let count = chunk.min(cur.ops.len() - start);
                let candidate = remove_range(&cur, start, count);
                if runner.run(&candidate).is_some() {
                    cur = candidate;
                    progressed = true;
                    // Retry the same start against the shorter program.
                } else {
                    start += 1;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        // Zero out initial register values that are not load-bearing.
        for i in 0..cur.init.len() {
            if cur.init[i].1 == 0 {
                continue;
            }
            let mut candidate = cur.clone();
            candidate.init[i].1 = 0;
            if runner.run(&candidate).is_some() {
                cur = candidate;
                progressed = true;
            }
        }
        if !progressed {
            return cur;
        }
    }
}

/// A divergence found by the fuzzer, with its minimal reproduction.
#[derive(Debug, Clone)]
pub struct FailureRepro {
    /// Generator seed of the original failing program.
    pub seed: u64,
    /// Extension target the program ran under.
    pub ext: ExtChoice,
    /// First-divergence description (from the shrunk program).
    pub divergence: String,
    /// Instructions in the shrunk body (excluding the final `ebreak`).
    pub shrunk_len: usize,
    /// The shrunk program as a corpus entry.
    pub listing: String,
}

/// Aggregate outcome of one fuzzing campaign.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Programs generated and diffed.
    pub programs: u64,
    /// Divergences found (empty on a healthy build).
    pub failures: Vec<FailureRepro>,
}

/// Runs `count` seeded programs against `ext`, stopping early at
/// `deadline` or after `max_failures` divergences.
pub fn fuzz(
    ext: ExtChoice,
    base_seed: u64,
    count: u64,
    deadline: Option<std::time::Instant>,
    max_failures: usize,
) -> FuzzReport {
    let mut runner = DiffRunner::new(ext);
    let mut report = FuzzReport::default();
    for i in 0..count {
        if let Some(d) = deadline {
            // Deadline polls are cheap; checking every program keeps
            // the budget honest even for slow seeds.
            if std::time::Instant::now() >= d {
                break;
            }
        }
        let seed = base_seed.wrapping_add(i);
        let prog = gen_program(ext, seed);
        report.programs += 1;
        if runner.run(&prog).is_some() {
            let small = shrink(&mut runner, &prog);
            let divergence = runner
                .run(&small)
                .map(|d| d.what)
                .unwrap_or_else(|| "divergence vanished after shrink".to_owned());
            report.failures.push(FailureRepro {
                seed,
                ext,
                divergence,
                shrunk_len: small.ops.len(),
                listing: small.listing(),
            });
            if report.failures.len() >= max_failures {
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = gen_program(ExtChoice::FullRadix, 42);
        let b = gen_program(ExtChoice::FullRadix, 42);
        assert_eq!(a, b);
        let c = gen_program(ExtChoice::FullRadix, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_programs_are_trap_free() {
        for ext in ExtChoice::ALL {
            let mut runner = DiffRunner::new(ext);
            for seed in 0..200 {
                let prog = gen_program(ext, seed);
                // A healthy simulator+reference pair must agree.
                if let Some(d) = runner.run(&prog) {
                    panic!("{} seed {seed}: {d}\n{}", ext.label(), prog.listing());
                }
            }
        }
    }

    #[test]
    fn mac_runs_cover_every_fusion_case() {
        // A registered pair on shared operands: (h, l, rs1, rs2, rs3a,
        // rs3b).
        let pair = |w: &[Inst], (hi, lo): (CustomId, CustomId)| match *w {
            [Inst::Custom {
                id: id1,
                rd: h,
                rs1,
                rs2,
                rs3: rs3a,
                ..
            }, Inst::Custom {
                id: id2,
                rd: l,
                rs1: rs1b,
                rs2: rs2b,
                rs3: rs3b,
                ..
            }] if (id1, id2, rs1, rs2) == (hi, lo, rs1b, rs2b) => {
                Some((h, l, rs1, rs2, rs3a, rs3b))
            }
            _ => None,
        };
        for ext in [ExtChoice::FullRadix, ExtChoice::ReducedRadix] {
            let macs = ext.mac_pair().expect("ISE targets register a pair");
            // A head: fused, equal destinations, an x0 destination, and
            // the low half reading the high half's destination as
            // rs1/rs2/rs3. A pair accumulating after a fused head that
            // reads other addends; after an accumulating pair: a clean
            // chain, a source that is an accumulator, an x0
            // accumulator, and new accumulators.
            let mut seen = [0u32; 11];
            for seed in 0..300 {
                let insts = gen_program(ext, seed).materialize();
                for w in insts.windows(2) {
                    let Some((h, l, rs1, rs2, _, rs3b)) = pair(w, macs) else {
                        continue;
                    };
                    let aliased = [rs1, rs2, rs3b].map(|r| r == h);
                    seen[0] += u32::from(!aliased.contains(&true));
                    seen[1] += u32::from(h == l);
                    seen[2] += u32::from(h == Reg::Zero || l == Reg::Zero);
                    for (k, a) in aliased.into_iter().enumerate() {
                        seen[3 + k] += u32::from(a);
                    }
                }
                for w in insts.windows(4) {
                    let (Some((h, l, rs1, rs2, rs3a, rs3b)), Some((h2, l2, rs1b, rs2b, h3, l3))) =
                        (pair(&w[..2], macs), pair(&w[2..], macs))
                    else {
                        continue;
                    };
                    if (h2, l2) != (h3, l3) {
                        continue;
                    }
                    let clean = h != l && h != Reg::Zero && l != Reg::Zero;
                    let aliased = [rs1b, rs2b].iter().any(|r| [h, l].contains(r));
                    let accumulates = (rs3a, rs3b) == (h, l);
                    if (h, l) == (h2, l2) {
                        let head = ![rs1, rs2, rs3b].contains(&h);
                        seen[6] += u32::from(clean && head && !accumulates && !aliased);
                        seen[7] += u32::from(clean && accumulates && !aliased);
                        seen[8] += u32::from(clean && accumulates && aliased);
                        seen[9] += u32::from(accumulates && (h == Reg::Zero || l == Reg::Zero));
                    } else {
                        let clean2 = h2 != l2 && h2 != Reg::Zero && l2 != Reg::Zero;
                        seen[10] += u32::from(clean && accumulates && clean2);
                    }
                }
            }
            assert!(!seen.contains(&0), "{}: {seen:?}", ext.label());
        }
    }

    #[test]
    fn memory_runs_cover_every_fusion_case() {
        // An `ld` or `sd`: (is a load, base, offset, rd or rs2).
        let mem = |inst: &Inst| match *inst {
            Inst::Load {
                op: LoadOp::Ld,
                rd,
                rs1,
                offset,
            } => Some((true, rs1, offset, rd)),
            Inst::Store {
                op: StoreOp::Sd,
                rs1,
                rs2,
                offset,
            } => Some((false, rs1, offset, rs2)),
            _ => None,
        };
        let next = |a: (bool, Reg, i32, Reg), b: (bool, Reg, i32, Reg)| {
            (a.0, a.1, a.2 + 8) == (b.0, b.1, b.2)
        };
        for ext in ExtChoice::ALL {
            // A load run, a store run, and a load that overwrites its
            // base mid-run.
            let mut seen = [0u32; 3];
            for seed in 0..300 {
                let insts = gen_program(ext, seed).materialize();
                for w in insts.windows(3) {
                    let [Some(a), Some(b), c] = [&w[0], &w[1], &w[2]].map(mem) else {
                        continue;
                    };
                    if next(a, b) {
                        seen[usize::from(!a.0)] += 1;
                        let rebased = b.0 && b.3 == b.1 && c.is_some_and(|c| next(b, c));
                        seen[2] += u32::from(rebased);
                    }
                }
            }
            assert!(!seen.contains(&0), "{}: {seen:?}", ext.label());
        }
    }

    #[test]
    fn column_ends_and_propagation_runs_cover_every_fusion_case() {
        // A carry-propagation step: (custom id, imm, y, x, m).
        let step = |w: &[Inst]| match *w {
            [Inst::Custom {
                id,
                rd: y,
                rs2: x,
                imm,
                ..
            }, Inst::Op {
                op: AluOp::And,
                rd,
                rs1,
                rs2: m,
            }] if (rd, rs1) == (x, x) => Some((id, imm, y, x, m)),
            _ => None,
        };
        for ext in ExtChoice::ALL
            .into_iter()
            .filter(|e| e.mac_pair().is_some())
        {
            // A column end with and without the reset, and with the
            // store's base as `t`; a clean propagation run, one whose
            // second step writes the mask, and a change of id or imm.
            let mut seen = [0u32; 6];
            for seed in 0..300 {
                let insts = gen_program(ext, seed).materialize();
                for w in insts.windows(4) {
                    if let [Inst::Op {
                        op: AluOp::And,
                        rd: t,
                        ..
                    }, Inst::Store {
                        op: StoreOp::Sd,
                        rs1: b,
                        rs2,
                        ..
                    }, Inst::Custom { .. }, next] = *w
                    {
                        let reset = matches!(
                            next,
                            Inst::OpImm {
                                op: AluImmOp::Addi,
                                rs1: Reg::Zero,
                                imm: 0,
                                ..
                            }
                        );
                        if rs2 == t {
                            seen[if b == t { 2 } else { 1 - usize::from(reset) }] += 1;
                        }
                    }
                    let (Some(s1), Some(s2)) = (step(&w[..2]), step(&w[2..])) else {
                        continue;
                    };
                    let (m, same_key) = (s1.4, (s1.0, s1.1) == (s2.0, s2.1));
                    if m != s2.4 {
                        continue;
                    }
                    let written = [s1.2, s1.3, s2.2, s2.3];
                    seen[3] += u32::from(same_key && !written.contains(&m));
                    seen[4] += u32::from(same_key && s2.2 == m && ![s1.2, s1.3].contains(&m));
                    seen[5] += u32::from(!same_key);
                }
            }
            assert!(!seen.contains(&0), "{}: {seen:?}", ext.label());
        }
    }

    /// The fused memory op an edge program ends with.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum EdgeOp {
        Loads,
        Stores,
        ColumnEnd,
    }

    /// The straight-line prefix of a trap-free generated program, then
    /// a run of `ld`s or `sd`s or (on the ISE targets) a column end off
    /// `s9`, which points among the last words of data memory, past
    /// its end, below its start, or at a misaligned address, so the
    /// fused op may fault at any of its words; then one more
    /// instruction. Returns the program, the op and the index of its
    /// first instruction.
    fn gen_edge_program(ext: ExtChoice, seed: u64) -> (FuzzProgram, EdgeOp, usize) {
        const BASE: Reg = Reg::S9;
        let mut prog = gen_program(ext, seed);
        let straight = prog
            .ops
            .iter()
            .take_while(|op| matches!(op, FuzzOp::Plain(_)));
        prog.ops.truncate(straight.count());
        let start = prog.ops.len();
        let mut rng = StdRng::seed_from_u64(!seed);
        let words = rng.gen_range(0..=EDGE_WORDS);
        let base = match rng.gen_range(0u8..4) {
            0 | 1 => EDGE_BASE + 8 * words,
            2 => EDGE_BASE + 8 * words + rng.gen_range(1..8),
            _ => DATA_BASE - 8 * rng.gen_range(1..=4),
        };
        prog.init.push((BASE, base));
        let edge = match rng.gen_range(0u8..3) {
            2 if ext.mac_pair().is_some() => EdgeOp::ColumnEnd,
            0 | 2 => EdgeOp::Loads,
            _ => EdgeOp::Stores,
        };
        let mut body = Vec::new();
        if edge == EdgeOp::ColumnEnd {
            (body, _) = column_end(&mut rng, ext.custom_ids());
            let Inst::Store { rs1, offset, .. } = &mut body[1] else {
                unreachable!("a column end stores second");
            };
            (*rs1, *offset) = (BASE, 0);
        } else {
            for k in 0..rng.gen_range(2..=8) {
                let offset = 8 * k;
                body.push(if edge == EdgeOp::Loads {
                    Inst::Load {
                        op: LoadOp::Ld,
                        rd: dest(&mut rng),
                        rs1: BASE,
                        offset,
                    }
                } else {
                    Inst::Store {
                        op: StoreOp::Sd,
                        rs1: BASE,
                        rs2: any_source(&mut rng),
                        offset,
                    }
                });
            }
        }
        body.push(Inst::OpImm {
            op: AluImmOp::Addi,
            rd: dest(&mut rng),
            rs1: any_source(&mut rng),
            imm: 1,
        });
        prog.ops.extend(body.into_iter().map(FuzzOp::Plain));
        (prog, edge, start)
    }

    #[test]
    fn fused_memory_ops_that_fault_match_the_reference() {
        use mpise_sim::machine::PROG_BASE;
        for ext in ExtChoice::ALL {
            let mut runner = DiffRunner::new(ext);
            // Per op: faulted at its first instruction, faulted after
            // committing some of its words or its `and`, ran clean.
            let mut seen = [[0u32; 3]; 3];
            for seed in 0..300 {
                let (prog, edge, start) = gen_edge_program(ext, seed);
                if let Some(d) = runner.run(&prog) {
                    panic!("{} seed {seed}: {d}\n{}", ext.label(), prog.listing());
                }
                let mut reference = RefMachine::new();
                reference.load(&prog.materialize());
                for &(r, v) in &prog.init {
                    reference.write_reg(r, v);
                }
                let outcome = match reference.run(FUEL) {
                    RefExit::Fault(_) if reference.pc == PROG_BASE + 4 * start as u64 => 0,
                    RefExit::Fault(_) => 1,
                    _ => 2,
                };
                seen[edge as usize][outcome] += 1;
            }
            let [loads, stores, column_ends] = seen;
            let mut want = [loads, stores].concat();
            if ext.mac_pair().is_some() {
                want.extend(&column_ends[1..]);
            }
            assert!(!want.contains(&0), "{}: {seen:?}", ext.label());
        }
    }

    #[test]
    fn listing_is_a_corpus_entry() {
        for ext in ExtChoice::ALL {
            for seed in 0..20 {
                let prog = gen_program(ext, seed);
                let listing = prog.listing();
                let entry = crate::corpus::parse_entry("listing", &listing)
                    .unwrap_or_else(|e| panic!("{e}\n{listing}"));
                assert_eq!(entry.ext, ext);
                assert_eq!(entry.insts, prog.materialize(), "{listing}");
                let nonzero: Vec<_> = prog.init.iter().filter(|r| r.1 != 0).copied().collect();
                assert_eq!(entry.init, nonzero, "{listing}");
            }
        }
    }

    #[test]
    fn control_flow_is_forward_only() {
        for seed in 0..300 {
            let prog = gen_program(ExtChoice::ReducedRadix, seed);
            for (i, op) in prog.ops.iter().enumerate() {
                match *op {
                    FuzzOp::Branch { target, .. } | FuzzOp::Jal { target, .. } => {
                        assert!(target > i && target <= prog.ops.len());
                    }
                    FuzzOp::Plain(_) => {}
                }
            }
        }
    }

    #[test]
    fn remove_range_keeps_targets_forward() {
        for seed in 0..100 {
            let prog = gen_program(ExtChoice::Base, seed);
            if prog.ops.len() < 4 {
                continue;
            }
            let cut = remove_range(&prog, 1, 2);
            assert_eq!(cut.ops.len(), prog.ops.len() - 2);
            for (i, op) in cut.ops.iter().enumerate() {
                match *op {
                    FuzzOp::Branch { target, .. } | FuzzOp::Jal { target, .. } => {
                        assert!(target > i && target <= cut.ops.len(), "seed {seed}");
                    }
                    FuzzOp::Plain(_) => {}
                }
            }
        }
    }

    #[test]
    fn healthy_fuzz_run_reports_no_failures() {
        for ext in ExtChoice::ALL {
            let report = fuzz(ext, 0xF00D, 150, None, 1);
            assert_eq!(report.programs, 150);
            assert!(
                report.failures.is_empty(),
                "{}: {}",
                ext.label(),
                report.failures[0].listing
            );
        }
    }
}
