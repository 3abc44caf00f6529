//! Static secret-taint dataflow analysis over simulator programs.
//!
//! The analysis is a forward worklist fixpoint over the program's CFG.
//! Its abstract domain tracks, per register, a *taint* bit (does the
//! value depend on secret data?) and an optional *pointer provenance*
//! (which declared memory region the value points into, and — when
//! statically known — at which byte offset). Memory is modelled as a
//! map from concrete `(region, offset)` cells to abstract values, with
//! a per-region summary taint for statically-unknown offsets. This is
//! precise enough to see through the idioms the generated kernels use:
//! stack frames (`addi sp, sp, -N` … `sd`/`ld` of callee-saved
//! registers), pointer save/reload through stack slots, and scratch
//! buffers re-derived with `addi rX, sp, off`.
//!
//! Three violation classes are reported (see
//! [`ViolationKind`]):
//!
//! 1. **secret-dependent branches** — any `Branch` whose operand is
//!    tainted, and any `Jalr` whose target register is tainted;
//! 2. **secret-addressed memory accesses** — any `Load`/`Store` whose
//!    address register is tainted;
//! 3. **variable-latency operands** — tainted operands reaching
//!    `div`/`rem` (the only data-dependent-latency unit in the Rocket
//!    timing model; multiplies — including the custom XMUL
//!    instructions — are fixed-latency and merely *propagate* taint).
//!
//! The analysis over-approximates: a PASS is a proof under the machine
//! model, a FAIL may in rare cases be a false positive (e.g. a load
//! through a pointer the analysis lost track of). For the straight-line
//! kernels this repository generates, the domain loses nothing.

use crate::report::{Diagnostic, TaintReport, ViolationKind};
use mpise_sim::asm::Program;
use mpise_sim::ext::IsaExtension;
use mpise_sim::inst::{AluImmOp, AluOp, Inst};
use mpise_sim::Reg;
use std::collections::{BTreeMap, HashSet};

/// Secrecy of a value or of a memory region's initial contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Secrecy {
    /// Attacker-known (or attacker-irrelevant) data.
    Public,
    /// Key-dependent data.
    Secret,
}

/// Handle to a declared memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(usize);

/// What the caller tells the analyzer about the program's entry state:
/// which registers hold pointers to which memory regions, and which
/// regions hold secret data.
#[derive(Debug, Clone, Default)]
pub struct TaintSpec {
    regions: Vec<Secrecy>,
    pointers: Vec<(Reg, RegionId)>,
}

impl TaintSpec {
    /// An empty spec (everything public, no known pointers).
    pub fn new() -> Self {
        TaintSpec::default()
    }

    /// Declares a memory region whose initial contents have the given
    /// secrecy.
    pub fn region(&mut self, secrecy: Secrecy) -> RegionId {
        self.regions.push(secrecy);
        RegionId(self.regions.len() - 1)
    }

    /// Declares that `reg` holds, at entry, a pointer to offset 0 of
    /// `region`.
    pub fn entry_pointer(&mut self, reg: Reg, region: RegionId) -> &mut Self {
        self.pointers.push((reg, region));
        self
    }
}

impl Secrecy {
    fn join(self, other: Secrecy) -> Secrecy {
        if self == Secrecy::Secret || other == Secrecy::Secret {
            Secrecy::Secret
        } else {
            Secrecy::Public
        }
    }

    fn is_secret(self) -> bool {
        self == Secrecy::Secret
    }
}

/// Pointer provenance: region plus statically-known byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ptr {
    region: RegionId,
    /// `None` once the offset is no longer statically known.
    offset: Option<i64>,
}

/// Abstract value of one register (or memory cell).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AbsVal {
    taint: Secrecy,
    ptr: Option<Ptr>,
}

impl AbsVal {
    const PUBLIC: AbsVal = AbsVal {
        taint: Secrecy::Public,
        ptr: None,
    };

    fn join(self, other: AbsVal) -> AbsVal {
        let ptr = match (self.ptr, other.ptr) {
            (Some(a), Some(b)) if a.region == b.region => Some(Ptr {
                region: a.region,
                offset: if a.offset == b.offset { a.offset } else { None },
            }),
            _ => None,
        };
        AbsVal {
            taint: self.taint.join(other.taint),
            ptr,
        }
    }

    /// The value stripped of pointer provenance (for arithmetic that
    /// destroys pointers, and for sub-word memory traffic).
    fn scalar(self) -> AbsVal {
        AbsVal {
            taint: self.taint,
            ptr: None,
        }
    }
}

/// Abstract machine state at one program point.
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [AbsVal; 32],
    /// Concrete memory cells, keyed by `(region, byte offset)`.
    mem: BTreeMap<(usize, i64), AbsVal>,
    /// Per-region summary taint governing cells not in `mem`.
    region_taint: Vec<Secrecy>,
}

impl State {
    fn entry(spec: &TaintSpec) -> State {
        let mut regs = [AbsVal::PUBLIC; 32];
        for &(reg, region) in &spec.pointers {
            regs[reg.number() as usize] = AbsVal {
                taint: Secrecy::Public,
                ptr: Some(Ptr {
                    region,
                    offset: Some(0),
                }),
            };
        }
        regs[Reg::Zero.number() as usize] = AbsVal::PUBLIC;
        State {
            regs,
            mem: BTreeMap::new(),
            region_taint: spec.regions.clone(),
        }
    }

    fn read(&self, reg: Reg) -> AbsVal {
        if reg == Reg::Zero {
            AbsVal::PUBLIC
        } else {
            self.regs[reg.number() as usize]
        }
    }

    fn write(&mut self, reg: Reg, val: AbsVal) {
        if reg != Reg::Zero {
            self.regs[reg.number() as usize] = val;
        }
    }

    /// The value a cell holds when it is not explicitly tracked.
    fn region_default(&self, region: RegionId) -> AbsVal {
        AbsVal {
            taint: self.region_taint[region.0],
            ptr: None,
        }
    }

    /// Join of everything a load from `region` at an unknown offset
    /// could observe.
    fn region_any(&self, region: RegionId) -> AbsVal {
        let mut acc = self.region_default(region);
        for (&(r, _), &v) in &self.mem {
            if r == region.0 {
                acc = acc.join(v);
            }
        }
        acc.scalar()
    }

    /// Join of everything a load from a statically-unknown address
    /// could observe.
    fn anywhere(&self) -> AbsVal {
        let mut acc = AbsVal::PUBLIC;
        for &t in &self.region_taint {
            acc.taint = acc.taint.join(t);
        }
        for &v in self.mem.values() {
            acc = acc.join(v);
        }
        acc.scalar()
    }

    /// Pointwise join; returns whether `self` changed.
    fn join_from(&mut self, other: &State) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let j = self.regs[i].join(other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        for (i, t) in self.region_taint.iter_mut().enumerate() {
            let j = t.join(other.region_taint[i]);
            if j != *t {
                *t = j;
                changed = true;
            }
        }
        // Cells missing from one side hold that side's region default.
        let keys: Vec<(usize, i64)> = self.mem.keys().chain(other.mem.keys()).copied().collect();
        for key in keys {
            let a = self
                .mem
                .get(&key)
                .copied()
                .unwrap_or_else(|| self.region_default(RegionId(key.0)));
            let b = other
                .mem
                .get(&key)
                .copied()
                .unwrap_or_else(|| other.region_default(RegionId(key.0)));
            let j = a.join(b);
            if self.mem.get(&key) != Some(&j) {
                self.mem.insert(key, j);
                changed = true;
            }
        }
        changed
    }
}

/// Iteration budget multiplier before the fixpoint is declared
/// non-convergent (the domain has small finite height, so this fires
/// only on analyzer bugs).
const MAX_VISITS_PER_INST: usize = 128;

/// Runs the taint analysis over `program`.
///
/// `ext` resolves custom instructions (needed to know they exist; all
/// registered customs are fixed-latency register-to-register ops that
/// propagate taint). `spec` describes the entry state.
pub fn analyze_program(program: &Program, ext: &IsaExtension, spec: &TaintSpec) -> TaintReport {
    Analysis {
        insts: program.insts(),
        ext,
        spec,
        diagnostics: Vec::new(),
        seen: HashSet::new(),
    }
    .run()
}

struct Analysis<'a> {
    insts: &'a [Inst],
    ext: &'a IsaExtension,
    spec: &'a TaintSpec,
    diagnostics: Vec<Diagnostic>,
    seen: HashSet<(usize, ViolationKind)>,
}

impl Analysis<'_> {
    fn run(mut self) -> TaintReport {
        let n = self.insts.len();
        let mut in_states: Vec<Option<State>> = vec![None; n];
        let mut worklist: Vec<usize> = Vec::new();
        let mut visits = 0usize;
        let budget = n
            .saturating_mul(MAX_VISITS_PER_INST)
            .max(MAX_VISITS_PER_INST);

        if n > 0 {
            in_states[0] = Some(State::entry(self.spec));
            worklist.push(0);
        }

        let mut iterations = 0usize;
        while let Some(index) = worklist.pop() {
            iterations += 1;
            visits += 1;
            if visits > budget {
                self.report(
                    index,
                    ViolationKind::AnalysisIncomplete,
                    format!("fixpoint exceeded {budget} visits"),
                );
                break;
            }
            let mut state = in_states[index].clone().expect("queued with a state");
            let succs = self.transfer(index, &mut state);
            for succ in succs {
                if succ >= n {
                    continue; // falls off the end: treated as exit
                }
                let changed = match &mut in_states[succ] {
                    Some(existing) => existing.join_from(&state),
                    slot @ None => {
                        *slot = Some(state.clone());
                        true
                    }
                };
                if changed && !worklist.contains(&succ) {
                    worklist.push(succ);
                }
            }
        }

        self.diagnostics.sort_by_key(|d| (d.index, d.kind));
        TaintReport {
            diagnostics: self.diagnostics,
            insts_analyzed: in_states.iter().filter(|s| s.is_some()).count(),
            iterations,
        }
    }

    fn report(&mut self, index: usize, kind: ViolationKind, detail: String) {
        // The fixpoint revisits instructions; each (site, kind) pair is
        // reported once. Taint only grows, so a flag raised on an
        // intermediate state also holds at the fixpoint.
        if self.seen.insert((index, kind)) {
            self.diagnostics.push(Diagnostic {
                index,
                pc: index as u64 * 4,
                inst: self.insts[index].to_string(),
                kind,
                detail,
            });
        }
    }

    fn secret_operands(&self, state: &State, regs: &[Reg]) -> Vec<Reg> {
        regs.iter()
            .copied()
            .filter(|&r| state.read(r).taint.is_secret())
            .collect()
    }

    fn describe(regs: &[Reg]) -> String {
        regs.iter()
            .map(|r| r.abi_name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Applies instruction `index` to `state`, reporting violations,
    /// and returns the successor indices.
    fn transfer(&mut self, index: usize, state: &mut State) -> Vec<usize> {
        let inst = self.insts[index];
        match inst {
            Inst::Lui { rd, .. } | Inst::Auipc { rd, .. } => {
                state.write(rd, AbsVal::PUBLIC);
                vec![index + 1]
            }
            Inst::Jal { rd, offset } => {
                state.write(rd, AbsVal::PUBLIC);
                let target = index as i64 + offset as i64 / 4;
                if (0..self.insts.len() as i64).contains(&target) {
                    vec![target as usize]
                } else {
                    vec![] // jump out of the program: exit
                }
            }
            Inst::Jalr { rd, rs1, .. } => {
                let tainted = self.secret_operands(state, &[rs1]);
                if !tainted.is_empty() {
                    self.report(
                        index,
                        ViolationKind::SecretBranch,
                        format!(
                            "jump target register {} is secret",
                            Self::describe(&tainted)
                        ),
                    );
                }
                state.write(rd, AbsVal::PUBLIC);
                // Indirect targets are not resolved statically; `ret`
                // and tail calls end the analyzed path here.
                vec![]
            }
            Inst::Branch {
                rs1, rs2, offset, ..
            } => {
                let tainted = self.secret_operands(state, &[rs1, rs2]);
                if !tainted.is_empty() {
                    self.report(
                        index,
                        ViolationKind::SecretBranch,
                        format!(
                            "branch condition depends on secret register(s) {}",
                            Self::describe(&tainted)
                        ),
                    );
                }
                let mut succs = vec![index + 1];
                let target = index as i64 + offset as i64 / 4;
                if (0..self.insts.len() as i64).contains(&target) {
                    succs.push(target as usize);
                }
                succs
            }
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = state.read(rs1);
                if addr.taint.is_secret() {
                    self.report(
                        index,
                        ViolationKind::SecretAddress,
                        format!("load address register {} is secret", rs1.abi_name()),
                    );
                }
                let value = match addr.ptr {
                    Some(Ptr {
                        region,
                        offset: Some(base),
                    }) => {
                        let eff = base + offset as i64;
                        let cell = state
                            .mem
                            .get(&(region.0, eff))
                            .copied()
                            .unwrap_or_else(|| state.region_default(region));
                        // Only full-width aligned loads recover saved
                        // pointers; narrower loads see raw bytes.
                        if op.width() == 8 {
                            cell
                        } else {
                            cell.scalar()
                        }
                    }
                    Some(Ptr {
                        region,
                        offset: None,
                    }) => state.region_any(region),
                    None => state.anywhere(),
                };
                state.write(rd, value);
                vec![index + 1]
            }
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let addr = state.read(rs1);
                if addr.taint.is_secret() {
                    self.report(
                        index,
                        ViolationKind::SecretAddress,
                        format!("store address register {} is secret", rs1.abi_name()),
                    );
                }
                let mut value = state.read(rs2);
                if op.width() != 8 {
                    value = value.scalar();
                }
                match addr.ptr {
                    Some(Ptr {
                        region,
                        offset: Some(base),
                    }) => {
                        // Exact address: strong update.
                        state.mem.insert((region.0, base + offset as i64), value);
                    }
                    Some(Ptr {
                        region,
                        offset: None,
                    }) => {
                        // Could hit any cell of the region.
                        state.region_taint[region.0] =
                            state.region_taint[region.0].join(value.taint);
                        for (&(r, _), cell) in state.mem.iter_mut() {
                            if r == region.0 {
                                *cell = cell.join(value);
                            }
                        }
                    }
                    None => {
                        // Could hit anything.
                        for t in state.region_taint.iter_mut() {
                            *t = t.join(value.taint);
                        }
                        for cell in state.mem.values_mut() {
                            *cell = cell.join(value);
                        }
                    }
                }
                vec![index + 1]
            }
            Inst::OpImm { op, rd, rs1, imm } => {
                let src = state.read(rs1);
                let value = if op == AluImmOp::Addi {
                    // Pointer arithmetic: offset moves with the
                    // immediate (the `addi rX, sp, off` re-derivation
                    // idiom in the fp kernels).
                    AbsVal {
                        taint: src.taint,
                        ptr: src.ptr.map(|p| Ptr {
                            region: p.region,
                            offset: p.offset.map(|o| o + imm as i64),
                        }),
                    }
                } else {
                    src.scalar()
                };
                state.write(rd, value);
                vec![index + 1]
            }
            Inst::Op { op, rd, rs1, rs2 } => {
                let a = state.read(rs1);
                let b = state.read(rs2);
                if op.is_divide() {
                    let tainted = self.secret_operands(state, &[rs1, rs2]);
                    if !tainted.is_empty() {
                        self.report(
                            index,
                            ViolationKind::VariableLatency,
                            format!(
                                "iterative divider ({}) consumes secret register(s) {}",
                                op.mnemonic(),
                                Self::describe(&tainted)
                            ),
                        );
                    }
                }
                let ptr = match (op, a.ptr, b.ptr) {
                    // pointer + scalar displacement (unknown amount).
                    (AluOp::Add, Some(p), None) | (AluOp::Add, None, Some(p)) => Some(Ptr {
                        region: p.region,
                        offset: None,
                    }),
                    (AluOp::Sub, Some(p), None) => Some(Ptr {
                        region: p.region,
                        offset: None,
                    }),
                    _ => None,
                };
                state.write(
                    rd,
                    AbsVal {
                        taint: a.taint.join(b.taint),
                        ptr,
                    },
                );
                vec![index + 1]
            }
            Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                ..
            } => {
                if self.ext.by_id(id).is_none() {
                    self.report(
                        index,
                        ViolationKind::UnknownCustom,
                        format!(
                            "custom id {id} is not registered in extension `{}`",
                            self.ext.name()
                        ),
                    );
                }
                // Every registered custom is a pure fixed-latency
                // register-to-register op (ISE design rule): taint
                // propagates, no violation.
                let taint = state
                    .read(rs1)
                    .taint
                    .join(state.read(rs2).taint)
                    .join(state.read(rs3).taint);
                state.write(rd, AbsVal { taint, ptr: None });
                vec![index + 1]
            }
            Inst::Fence => vec![index + 1],
            Inst::Ecall | Inst::Ebreak => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_sim::inst::{BranchOp, LoadOp, StoreOp};

    fn ext() -> IsaExtension {
        IsaExtension::new("rv64im")
    }

    fn spec_one_secret_region() -> (TaintSpec, RegionId, RegionId) {
        let mut spec = TaintSpec::new();
        let sec = spec.region(Secrecy::Secret);
        let out = spec.region(Secrecy::Public);
        spec.entry_pointer(Reg::A1, sec);
        spec.entry_pointer(Reg::A0, out);
        (spec, sec, out)
    }

    fn analyze(insts: Vec<Inst>, spec: &TaintSpec) -> TaintReport {
        analyze_program(&Program::from_insts(insts), &ext(), spec)
    }

    const LD: fn(Reg, Reg, i32) -> Inst = |rd, rs1, offset| Inst::Load {
        op: LoadOp::Ld,
        rd,
        rs1,
        offset,
    };
    const SD: fn(Reg, Reg, i32) -> Inst = |rs2, rs1, offset| Inst::Store {
        op: StoreOp::Sd,
        rs1,
        rs2,
        offset,
    };
    const ADDI: fn(Reg, Reg, i32) -> Inst = |rd, rs1, imm| Inst::OpImm {
        op: AluImmOp::Addi,
        rd,
        rs1,
        imm,
    };

    #[test]
    fn straight_line_copy_is_clean() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                LD(Reg::T0, Reg::A1, 0),
                SD(Reg::T0, Reg::A0, 0),
                Inst::Ebreak,
            ],
            &spec,
        );
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.insts_analyzed, 3);
    }

    #[test]
    fn branch_on_secret_is_flagged_with_pc() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                LD(Reg::T0, Reg::A1, 0),
                Inst::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: 8,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.kind, ViolationKind::SecretBranch);
        assert_eq!(d.pc, 4);
        assert!(d.inst.starts_with("bne"), "inst: {}", d.inst);
    }

    #[test]
    fn branch_on_public_is_clean() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                ADDI(Reg::T0, Reg::Zero, 3),
                Inst::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: -4,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn secret_addressed_load_is_flagged() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                LD(Reg::T0, Reg::A1, 0),
                Inst::Op {
                    op: AluOp::Add,
                    rd: Reg::T1,
                    rs1: Reg::A0,
                    rs2: Reg::T0,
                },
                LD(Reg::T2, Reg::T1, 0),
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].kind, ViolationKind::SecretAddress);
        assert_eq!(report.diagnostics[0].index, 2);
    }

    #[test]
    fn secret_divisor_is_flagged() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                LD(Reg::T0, Reg::A1, 0),
                Inst::Op {
                    op: AluOp::Divu,
                    rd: Reg::T1,
                    rs1: Reg::T2,
                    rs2: Reg::T0,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].kind, ViolationKind::VariableLatency);
    }

    #[test]
    fn multiply_on_secret_is_clean() {
        // Multiplies are fixed-latency on the Rocket model: they only
        // propagate taint.
        let (spec, ..) = spec_one_secret_region();
        let insts = vec![
            LD(Reg::T0, Reg::A1, 0),
            Inst::Op {
                op: AluOp::Mulhu,
                rd: Reg::T1,
                rs1: Reg::T0,
                rs2: Reg::T0,
            },
            Inst::Ebreak,
        ];
        let report = analyze(insts, &spec);
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn taint_flows_through_memory_and_stack_frames() {
        // Secret limb parked in a stack slot, reloaded, then branched
        // on: the frame discipline must not launder taint.
        let mut spec = TaintSpec::new();
        let sec = spec.region(Secrecy::Secret);
        let stack = spec.region(Secrecy::Public);
        spec.entry_pointer(Reg::A1, sec);
        spec.entry_pointer(Reg::Sp, stack);
        let report = analyze(
            vec![
                ADDI(Reg::Sp, Reg::Sp, -32),
                LD(Reg::T0, Reg::A1, 8),
                SD(Reg::T0, Reg::Sp, 16),
                ADDI(Reg::T0, Reg::Zero, 0), // clobber the register
                LD(Reg::T1, Reg::Sp, 16),    // reload the secret
                Inst::Branch {
                    op: BranchOp::Beq,
                    rs1: Reg::T1,
                    rs2: Reg::Zero,
                    offset: 8,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].index, 5);
        assert_eq!(report.diagnostics[0].kind, ViolationKind::SecretBranch);
    }

    #[test]
    fn pointer_save_reload_keeps_provenance() {
        // The fp_mul idiom: save a0 to the frame, clobber it, reload
        // it, and store through it — must stay clean.
        let mut spec = TaintSpec::new();
        let sec = spec.region(Secrecy::Secret);
        let out = spec.region(Secrecy::Public);
        let stack = spec.region(Secrecy::Public);
        spec.entry_pointer(Reg::A1, sec);
        spec.entry_pointer(Reg::A0, out);
        spec.entry_pointer(Reg::Sp, stack);
        let report = analyze(
            vec![
                ADDI(Reg::Sp, Reg::Sp, -64),
                SD(Reg::A0, Reg::Sp, 0), // save result pointer
                LD(Reg::A0, Reg::A1, 0), // clobber a0 with a secret limb
                SD(Reg::A0, Reg::Sp, 8), // spill it
                LD(Reg::A0, Reg::Sp, 0), // reload the result pointer
                LD(Reg::T0, Reg::Sp, 8), // reload the secret limb
                SD(Reg::T0, Reg::A0, 0), // store through the reloaded pointer
                ADDI(Reg::Sp, Reg::Sp, 64),
                Inst::Ebreak,
            ],
            &spec,
        );
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn loop_reaches_fixpoint_and_flags_once() {
        // A loop that keeps branching on a secret: one diagnostic, not
        // one per fixpoint iteration.
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                LD(Reg::T0, Reg::A1, 0),
                ADDI(Reg::T0, Reg::T0, -1),
                Inst::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::T0,
                    rs2: Reg::Zero,
                    offset: -4,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.iterations >= 4, "loop must be re-analyzed");
    }

    #[test]
    fn unknown_custom_is_rejected() {
        let (spec, ..) = spec_one_secret_region();
        let report = analyze(
            vec![
                Inst::Custom {
                    id: mpise_sim::ext::CustomId(999),
                    rd: Reg::T0,
                    rs1: Reg::A1,
                    rs2: Reg::A1,
                    rs3: Reg::A1,
                    imm: 0,
                },
                Inst::Ebreak,
            ],
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].kind, ViolationKind::UnknownCustom);
    }

    #[test]
    fn custom_propagates_taint_without_violating() {
        let mut e = IsaExtension::new("demo");
        e.define(mpise_sim::ext::CustomInstDef {
            id: mpise_sim::ext::CustomId(50),
            mnemonic: "mac",
            format: mpise_sim::ext::CustomFormat::R4 {
                opcode: 0b1111011,
                funct3: 0b111,
                funct2: 0b00,
            },
            exec: |rs1, rs2, rs3, _| rs1.wrapping_mul(rs2).wrapping_add(rs3),
            unit: mpise_sim::ext::ExecUnit::Xmul,
        })
        .unwrap();
        let (spec, ..) = spec_one_secret_region();
        let report = analyze_program(
            &Program::from_insts(vec![
                LD(Reg::T0, Reg::A1, 0),
                Inst::Custom {
                    id: mpise_sim::ext::CustomId(50),
                    rd: Reg::T1,
                    rs1: Reg::T0,
                    rs2: Reg::T0,
                    rs3: Reg::Zero,
                    imm: 0,
                },
                // The custom result is secret: branching on it must trip.
                Inst::Branch {
                    op: BranchOp::Beq,
                    rs1: Reg::T1,
                    rs2: Reg::Zero,
                    offset: 8,
                },
                Inst::Ebreak,
            ]),
            &e,
            &spec,
        );
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].index, 2);
        assert_eq!(report.diagnostics[0].kind, ViolationKind::SecretBranch);
    }
}
