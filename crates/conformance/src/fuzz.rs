//! Seed-driven random-program ISA fuzzing with input shrinking.
//!
//! Programs mix RV64IM and Table 1 custom instructions, run through the
//! pipelined [`Machine`] and the independent [`RefMachine`] in
//! lockstep, and have their **full architectural state** diffed at the
//! end: all 32 registers, every word of the data window the program
//! could touch, the retired-instruction count, and the exit reason.
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
//! On divergence the failing program is shrunk by delta-debugging:
//! chunks, then single instructions, then initial register values are
//! removed while the divergence persists, yielding a minimal repro
//! (typically 1–3 instructions plus `ebreak`).

use crate::refexec::{RefExit, RefMachine};
use mpise_sim::asm::{display_with_ext, Program};
use mpise_sim::ext::{CustomId, IsaExtension};
use mpise_sim::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use mpise_sim::machine::{Halt, RunError, DATA_BASE};
use mpise_sim::{Machine, Reg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes of data memory a fuzz program may touch, starting at
/// [`DATA_BASE`]. Kept small so the full window diff stays cheap.
pub const WINDOW: u64 = 512;

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
    pub fn tag(self) -> &'static str {
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

    /// The materialised program as a corpus entry (see
    /// [`crate::corpus`]): its `ext:` tag, the nonzero initial
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

/// Reusable differential runner: one pre-built [`Machine`] (reset
/// between programs) plus a fresh [`RefMachine`] per run.
#[derive(Debug)]
pub struct DiffRunner {
    machine: Machine,
}

impl DiffRunner {
    /// A runner whose machine executes the true extension semantics.
    pub fn new(ext: ExtChoice) -> Self {
        Self::with_machine_ext(ext.extension())
    }

    /// A runner with an explicit machine-side extension registry —
    /// the hook through which conformance tests inject deliberately
    /// broken executors (the reference side always uses the paper
    /// semantics).
    pub fn with_machine_ext(machine_ext: IsaExtension) -> Self {
        let mut machine = Machine::with_ext(machine_ext);
        machine.set_fuel(FUEL);
        DiffRunner { machine }
    }

    /// Runs `prog` on both executors and reports the first divergence.
    pub fn run(&mut self, prog: &FuzzProgram) -> Option<Divergence> {
        self.run_insts(&prog.materialize(), &prog.init)
    }

    /// Lockstep-runs an already-materialised instruction sequence (used
    /// by both the fuzzer and the corpus replayer).
    pub fn run_insts(&mut self, insts: &[Inst], init: &[(Reg, u64)]) -> Option<Divergence> {
        // Reset the machine: zero the data window and every register,
        // then apply the program's initial state to both sides.
        let zeros = [0u64; (WINDOW / 8) as usize];
        self.machine
            .mem
            .write_limbs(DATA_BASE, &zeros)
            .expect("window fits");
        self.machine
            .load_program(&Program::from_insts(insts.to_vec()));
        for r in Reg::ALL {
            self.machine.cpu.write_reg(r, 0);
        }
        let mut reference = RefMachine::new();
        reference.load(insts);
        for &(r, v) in init {
            self.machine.cpu.write_reg(r, v);
            reference.write_reg(r, v);
        }

        let sim_result = self.machine.run();
        let ref_exit = reference.run(FUEL);

        // Exit reasons must correspond exactly.
        let exits_match = matches!(
            (&sim_result, &ref_exit),
            (Ok(stats), RefExit::Breakpoint) if stats.halt == Halt::Breakpoint
        ) || matches!(
            (&sim_result, &ref_exit),
            (Ok(stats), RefExit::EnvironmentCall) if stats.halt == Halt::EnvironmentCall
        ) || matches!(
            (&sim_result, &ref_exit),
            (Err(RunError::Trap(_)), RefExit::Fault(_))
        ) || matches!(
            (&sim_result, &ref_exit),
            (Err(RunError::OutOfFuel { .. }), RefExit::OutOfFuel)
        );
        if !exits_match {
            return Some(Divergence {
                what: format!("exit mismatch: sim {sim_result:?} vs ref {ref_exit:?}"),
            });
        }

        // Registers.
        let sim_regs = self.machine.cpu.regs();
        for (i, (&s, &r)) in sim_regs.iter().zip(reference.regs.iter()).enumerate() {
            if s != r {
                let reg = Reg::from_number(i as u8).expect("index < 32");
                return Some(Divergence {
                    what: format!("reg {reg}: sim {s:#x} vs ref {r:#x}"),
                });
            }
        }

        // The whole data window, word by word.
        for off in (0..WINDOW).step_by(8) {
            let s = self
                .machine
                .mem
                .load_u64(DATA_BASE + off)
                .expect("window readable");
            let r = reference.load_mem(DATA_BASE + off, 8).expect("in window");
            if s != r {
                return Some(Divergence {
                    what: format!("mem[{:#x}]: sim {s:#x} vs ref {r:#x}", DATA_BASE + off),
                });
            }
        }

        // Retired-instruction counts.
        if let Ok(stats) = &sim_result {
            if stats.instret != reference.instret {
                return Some(Divergence {
                    what: format!(
                        "instret: sim {} vs ref {}",
                        stats.instret, reference.instret
                    ),
                });
            }
        }
        None
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

/// Interesting 64-bit seeds: carry/borrow boundaries dominate the bug
/// surface of multi-precision arithmetic, so initial register values
/// are biased toward them.
fn interesting_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0u8..8) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - 1,
        4 => (1 << 57) - 1,
        5 => 1 << 57,
        6 => 1 << 63,
        _ => rng.gen(),
    }
}

/// Generates one deterministic trap-free program from `seed`.
pub fn gen_program(ext: ExtChoice, seed: u64) -> FuzzProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(4usize..=28);
    let mut ops = Vec::with_capacity(len);
    let customs = ext.custom_ids();

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

    for i in 0..len {
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
            let id = customs[rng.gen_range(0..customs.len())];
            let (rs3, imm) = if id == 6 {
                // sraiadd carries a shift amount, not a third register.
                (Reg::Zero, rng.gen_range(0u8..64))
            } else {
                (any_source(&mut rng), 0)
            };
            FuzzOp::Plain(Inst::Custom {
                id: CustomId(id),
                rd: dest(&mut rng),
                rs1: any_source(&mut rng),
                rs2: any_source(&mut rng),
                rs3,
                imm,
            })
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
