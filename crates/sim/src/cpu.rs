//! Architectural CPU state and single-instruction semantics.

use crate::ext::{ChainExec, IsaExtension};
use crate::inst::{AluImmOp, AluOp, BranchOp, Inst, LoadOp, StoreOp};
use crate::mem::{MemError, Memory};
use crate::reg::Reg;
use std::fmt;

/// Reasons execution stops or faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `ebreak` executed (normal kernel termination in this harness).
    Breakpoint,
    /// `ecall` executed.
    EnvironmentCall,
    /// A custom instruction whose id is not registered was executed.
    IllegalInstruction,
    /// A data memory access faulted.
    Memory(MemError),
    /// The PC left the loaded program region.
    PcOutOfProgram {
        /// The faulting PC value.
        pc: u64,
    },
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Breakpoint => write!(f, "breakpoint"),
            Trap::EnvironmentCall => write!(f, "environment call"),
            Trap::IllegalInstruction => write!(f, "illegal instruction"),
            Trap::Memory(e) => write!(f, "memory fault: {e}"),
            Trap::PcOutOfProgram { pc } => write!(f, "pc {pc:#x} left the program"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<MemError> for Trap {
    fn from(e: MemError) -> Self {
        Trap::Memory(e)
    }
}

/// The architectural state of one RV64 hart: 32 general-purpose
/// registers and the program counter.
///
/// `x0` reads as zero and ignores writes, enforced by
/// [`Cpu::write_reg`].
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: [u64; 32],
    /// Program counter (byte address of the next instruction).
    pub pc: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with all registers and the PC cleared.
    pub(crate) fn new() -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
        }
    }

    /// Reads a register (`x0` always reads 0).
    #[inline]
    pub fn read_reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes a register; writes to `x0` are discarded.
    #[inline]
    pub fn write_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::Zero {
            self.regs[r.number() as usize] = v;
        }
    }

    /// A snapshot of all 32 registers (index = register number).
    pub fn regs(&self) -> [u64; 32] {
        self.regs
    }

    /// Executes one instruction, updating registers, memory and the PC:
    /// translates it into a micro-op, as `Machine::load_program` does,
    /// and executes that.
    ///
    /// Returns `Ok(())` when execution may continue, or the [`Trap`]
    /// that stopped it. `ebreak`/`ecall` report themselves as traps —
    /// the [`crate::Machine`] treats [`Trap::Breakpoint`] as a normal
    /// halt.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] other than normal continuation.
    #[cfg(test)]
    pub(crate) fn step(
        &mut self,
        inst: &Inst,
        mem: &mut Memory,
        ext: &IsaExtension,
    ) -> Result<(), Trap> {
        self.exec(&MicroOp::new(inst, ext), mem, &[])
    }

    /// Executes `ops` in order (see [`Cpu::exec`]), stopping at the
    /// first trap.
    pub(crate) fn exec_all(
        &mut self,
        ops: &[MicroOp],
        mem: &mut Memory,
        regs: &[u8],
    ) -> Result<(), Trap> {
        for u in ops {
            self.exec(u, mem, regs)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn reg(&self, r: u8) -> u64 {
        self.regs[(r & 31) as usize]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[(r & 31) as usize] = v;
        }
    }
}

/// Declares [`Kind`], with one variant per base operation named as in
/// its op enum, the translations into it from the op enums, and
/// [`Cpu::exec`]. Each arm of `exec`'s one `match` calls its family's
/// evaluator ([`eval_alu`], [`eval_alu_imm`], [`extend_load`],
/// [`BranchOp::taken`]) with the op as a constant, and [`Memory::load`]
/// or [`Memory::store`] with the width as a constant, so one jump per
/// instruction reaches code specialised to it while the semantics stay
/// stated once. A list that misses an op fails the translation's
/// exhaustive `match` at compile time.
macro_rules! flat_dispatch {
    (
        alu: [$($alu:ident),+],
        alu_imm: [$($imm:ident),+],
        load: [$($load:ident),+],
        store: [$($store:ident),+],
        branch: [$($branch:ident),+] $(,)?
    ) => {
        /// What a [`MicroOp`] does: the instruction's operation with
        /// every lookup already made.
        #[derive(Debug, Clone, Copy)]
        enum Kind {
            $($alu,)+
            $($imm,)+
            $($load,)+
            $($store,)+
            $($branch,)+
            /// A registered custom instruction, with its execution
            /// function.
            Custom(fn(u64, u64, u64, u8) -> u64),
            /// A run of `len` registered pairs on one accumulator pair
            /// ([`MicroOp::mac_run`]), with the pair's chain executor;
            /// their `rs1`/`rs2` register numbers sit at
            /// `regs[at..at + 2 * len]`.
            Mac { exec: ChainExec, at: u32, len: u16 },
            /// A column end ([`MicroOp::column_end`]): `and t, l, m ;
            /// sd t, off(b) ; <custom> [; addi z, zero, 0]`, with the
            /// custom instruction's execution function and immediate,
            /// and `z` when the accumulator reset is part of it.
            ColumnEnd {
                exec: fn(u64, u64, u64, u8) -> u64,
                shamt: u8,
                l: u8,
                m: u8,
                reset: Option<u8>,
            },
            /// `len` repetitions of `<custom y, rs1, x, rs3> ; and x,
            /// x, m` ([`MicroOp::propagation_run`]) with one execution
            /// function and immediate; `(y, rs1, x, rs3)` of each sit
            /// at `regs[at + 4 * k..]`.
            PropagationRun {
                exec: fn(u64, u64, u64, u8) -> u64,
                shamt: u8,
                at: u32,
                len: u16,
            },
            /// `len` `ld`s off one base at consecutive 8-byte offsets
            /// ([`MicroOp::mem_run`]), destinations at
            /// `regs[at..at + len]`.
            LoadRun { at: u32, len: u16 },
            /// `len` `sd`s off one base at consecutive 8-byte offsets,
            /// sources at `regs[at..at + len]`.
            StoreRun { at: u32, len: u16 },
            Lui,
            Auipc,
            Jal,
            Jalr,
            Fence,
            Ecall,
            Ebreak,
            /// A custom instruction whose id the extension does not
            /// register.
            Illegal,
        }

        impl Kind {
            fn alu(op: AluOp) -> Kind {
                match op { $(AluOp::$alu => Kind::$alu,)+ }
            }

            fn alu_imm(op: AluImmOp) -> Kind {
                match op { $(AluImmOp::$imm => Kind::$imm,)+ }
            }

            fn load(op: LoadOp) -> Kind {
                match op { $(LoadOp::$load => Kind::$load,)+ }
            }

            fn store(op: StoreOp) -> Kind {
                match op { $(StoreOp::$store => Kind::$store,)+ }
            }

            fn branch(op: BranchOp) -> Kind {
                match op { $(BranchOp::$branch => Kind::$branch,)+ }
            }

            fn is_branch(self) -> bool {
                matches!(self, $(Kind::$branch)|+)
            }
        }

        impl Cpu {
            /// Executes one micro-op at the PC — the one home of
            /// instruction semantics. `regs` holds the register lists
            /// of fused runs ([`MicroOp::fuse`]). On a trap the PC
            /// stays at the micro-op's first instruction and nothing is
            /// written.
            ///
            /// # Errors
            ///
            /// Any [`Trap`] other than normal continuation. A memory
            /// run whose words are not all mapped and aligned reports
            /// its first address, for the caller to find the faulting
            /// instruction.
            #[inline(always)]
            pub(crate) fn exec(
                &mut self,
                u: &MicroOp,
                mem: &mut Memory,
                regs: &[u8],
            ) -> Result<(), Trap> {
                let pc = self.pc;
                let mut next_pc = pc.wrapping_add(4);
                let imm = u.imm as u64;
                match u.kind {
                    $(Kind::$alu => self.set_reg(
                        u.rd,
                        eval_alu(AluOp::$alu, self.reg(u.rs1), self.reg(u.rs2)),
                    ),)+
                    $(Kind::$imm => self.set_reg(
                        u.rd,
                        eval_alu_imm(AluImmOp::$imm, self.reg(u.rs1), u.imm as i32),
                    ),)+
                    $(Kind::$load => {
                        let addr = self.reg(u.rs1).wrapping_add(imm);
                        let raw = mem.load(addr, LoadOp::$load.width())?;
                        self.set_reg(u.rd, extend_load(LoadOp::$load, raw));
                    })+
                    $(Kind::$store => {
                        let addr = self.reg(u.rs1).wrapping_add(imm);
                        mem.store(addr, self.reg(u.rs2), StoreOp::$store.width())?;
                    })+
                    $(Kind::$branch => {
                        if BranchOp::$branch.taken(self.reg(u.rs1), self.reg(u.rs2)) {
                            next_pc = pc.wrapping_add(imm);
                        }
                    })+
                    Kind::Custom(exec) => {
                        let v = exec(
                            self.reg(u.rs1),
                            self.reg(u.rs2),
                            self.reg(u.rs3),
                            u.imm as u8,
                        );
                        self.set_reg(u.rd, v);
                    }
                    Kind::Mac { exec, at, len } => {
                        let srcs = &regs[at as usize..][..2 * len as usize];
                        let (h, l) = exec(&self.regs, srcs, self.reg(u.rs3), self.reg(u.rs3b));
                        self.set_reg(u.rd, h);
                        self.set_reg(u.rd2, l);
                        next_pc = pc.wrapping_add(8 * u64::from(len));
                    }
                    Kind::ColumnEnd {
                        exec,
                        shamt,
                        l,
                        m,
                        reset,
                    } => {
                        // The store goes first, so a trap writes nothing.
                        let limb = self.reg(l) & self.reg(m);
                        mem.store(self.reg(u.rs3b).wrapping_add(imm), limb, 8)?;
                        self.set_reg(u.rd2, limb);
                        let v = exec(self.reg(u.rs1), self.reg(u.rs2), self.reg(u.rs3), shamt);
                        self.set_reg(u.rd, v);
                        next_pc = pc.wrapping_add(12);
                        if let Some(z) = reset {
                            self.set_reg(z, 0);
                            next_pc = pc.wrapping_add(16);
                        }
                    }
                    Kind::PropagationRun {
                        exec,
                        shamt,
                        at,
                        len,
                    } => {
                        let mask = self.reg(u.rs2);
                        for r in regs[at as usize..][..4 * len as usize].chunks_exact(4) {
                            let v = exec(self.reg(r[1]), self.reg(r[2]), self.reg(r[3]), shamt);
                            self.set_reg(r[0], v);
                            self.set_reg(r[2], self.reg(r[2]) & mask);
                        }
                        next_pc = pc.wrapping_add(8 * u64::from(len));
                    }
                    Kind::LoadRun { at, len } => {
                        let dests = &regs[at as usize..][..len as usize];
                        let addr = self.reg(u.rs1).wrapping_add(imm);
                        let words = mem.words(addr, dests.len())?;
                        for (&rd, w) in dests.iter().zip(words.chunks_exact(8)) {
                            self.set_reg(rd, u64::from_le_bytes(w.try_into().expect("8 bytes")));
                        }
                        next_pc = pc.wrapping_add(4 * u64::from(len));
                    }
                    Kind::StoreRun { at, len } => {
                        let srcs = &regs[at as usize..][..len as usize];
                        let addr = self.reg(u.rs1).wrapping_add(imm);
                        let words = mem.words_mut(addr, srcs.len())?;
                        for (&rs, w) in srcs.iter().zip(words.chunks_exact_mut(8)) {
                            w.copy_from_slice(&self.reg(rs).to_le_bytes());
                        }
                        next_pc = pc.wrapping_add(4 * u64::from(len));
                    }
                    Kind::Lui => self.set_reg(u.rd, imm),
                    Kind::Auipc => self.set_reg(u.rd, pc.wrapping_add(imm)),
                    Kind::Jal => {
                        self.set_reg(u.rd, next_pc);
                        next_pc = pc.wrapping_add(imm);
                    }
                    Kind::Jalr => {
                        let target = self.reg(u.rs1).wrapping_add(imm) & !1;
                        self.set_reg(u.rd, next_pc);
                        next_pc = target;
                    }
                    Kind::Fence => {}
                    Kind::Ecall => return Err(Trap::EnvironmentCall),
                    Kind::Ebreak => return Err(Trap::Breakpoint),
                    Kind::Illegal => return Err(Trap::IllegalInstruction),
                }
                self.pc = next_pc;
                Ok(())
            }
        }
    };
}

flat_dispatch! {
    alu: [
        Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And, Addw, Subw, Sllw, Srlw, Sraw, Mul,
        Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu, Mulw, Divw, Divuw, Remw, Remuw
    ],
    alu_imm: [Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai, Addiw, Slliw, Srliw, Sraiw],
    load: [Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu],
    store: [Sb, Sh, Sw, Sd],
    branch: [Beq, Bne, Blt, Bge, Bltu, Bgeu],
}

/// One instruction translated for execution: its flat [`Kind`] (which
/// fixes the operation and any access width), register numbers, the
/// sign-extended immediate (`lui`/`auipc`'s already shifted, a custom
/// instruction's shift amount) and a custom instruction's execution
/// function are all resolved, so [`Cpu::exec`] does no decoding or
/// registry lookup.
///
/// A MAC run keeps its accumulators in `rd` and `rd2` and its first
/// pair's addends in `rs3` and `rs3b`, a memory run its base and first
/// offset in `rs1` and `imm`, a propagation run its mask in `rs2`;
/// their other registers are listed in the machine's `regs` table. A column end keeps its custom
/// instruction's registers in `rd`..`rs3`, `t` in `rd2`, the store's
/// base in `rs3b` and its offset in `imm`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    kind: Kind,
    rd: u8,
    rs1: u8,
    rs2: u8,
    rs3: u8,
    rd2: u8,
    rs3b: u8,
    imm: i64,
}

// Fused kinds carry their operands without growing the micro-op.
const _: () = assert!(std::mem::size_of::<MicroOp>() == 32);

impl MicroOp {
    /// Translates `inst`, resolving a custom id against `ext`.
    pub(crate) fn new(inst: &Inst, ext: &IsaExtension) -> Self {
        let r = Reg::number;
        let (kind, rd, rs1, rs2, rs3, imm) = match *inst {
            Inst::Lui { rd, imm20 } => (Kind::Lui, r(rd), 0, 0, 0, (imm20 as i64) << 12),
            Inst::Auipc { rd, imm20 } => (Kind::Auipc, r(rd), 0, 0, 0, (imm20 as i64) << 12),
            Inst::Jal { rd, offset } => (Kind::Jal, r(rd), 0, 0, 0, offset.into()),
            Inst::Jalr { rd, rs1, offset } => (Kind::Jalr, r(rd), r(rs1), 0, 0, offset.into()),
            Inst::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => (Kind::branch(op), 0, r(rs1), r(rs2), 0, offset.into()),
            Inst::Load {
                op,
                rd,
                rs1,
                offset,
            } => (Kind::load(op), r(rd), r(rs1), 0, 0, offset.into()),
            Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            } => (Kind::store(op), 0, r(rs1), r(rs2), 0, offset.into()),
            Inst::OpImm { op, rd, rs1, imm } => {
                (Kind::alu_imm(op), r(rd), r(rs1), 0, 0, imm.into())
            }
            Inst::Op { op, rd, rs1, rs2 } => (Kind::alu(op), r(rd), r(rs1), r(rs2), 0, 0),
            Inst::Fence => (Kind::Fence, 0, 0, 0, 0, 0),
            Inst::Ecall => (Kind::Ecall, 0, 0, 0, 0, 0),
            Inst::Ebreak => (Kind::Ebreak, 0, 0, 0, 0, 0),
            Inst::Custom {
                id,
                rd,
                rs1,
                rs2,
                rs3,
                imm,
            } => {
                let kind = ext
                    .by_id(id)
                    .map_or(Kind::Illegal, |def| Kind::Custom(def.exec));
                (kind, r(rd), r(rs1), r(rs2), r(rs3), imm.into())
            }
        };
        MicroOp {
            kind,
            rd,
            rs1,
            rs2,
            rs3,
            rd2: 0,
            rs3b: 0,
            imm,
        }
    }

    /// A micro-op of `kind` with every register field and the immediate
    /// zero, for a fused kind to fill in.
    fn bare(kind: Kind) -> Self {
        MicroOp {
            kind,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            rd2: 0,
            rs3b: 0,
            imm: 0,
        }
    }

    /// The micro-op that runs a prefix of `insts`, straight-line
    /// instructions before a block's terminator, with the number of
    /// instructions it covers: a MAC run ([`MicroOp::mac_run`]), a
    /// memory run ([`MicroOp::mem_run`]), a column end
    /// ([`MicroOp::column_end`]) or a propagation run
    /// ([`MicroOp::propagation_run`]). `None` when the first
    /// instructions do not fuse; plain instructions run one micro-op
    /// each. Register lists are appended to `regs`.
    pub(crate) fn fuse(
        insts: &[Inst],
        ext: &IsaExtension,
        regs: &mut Vec<u8>,
    ) -> Option<(Self, usize)> {
        Self::mac_run(insts, ext, regs)
            .or_else(|| Self::mem_run(insts, regs))
            .or_else(|| Self::column_end(insts, ext))
            .or_else(|| Self::propagation_run(insts, ext, regs))
    }

    /// Translates the longest run of registered pairs
    /// ([`IsaExtension::define_pair`]) at the start of `insts` that
    /// accumulate into one `(h, l)` register pair, as the paper's MAC
    /// issues its high and low halves (Listings 3 and 4). The first pair
    /// opens the run when its halves read one `rs1` and `rs2` and the
    /// second half does not read the first one's destination `h`: it
    /// reads its own addends `rs3`/`rs3b`, writes `h` and then `l`, so
    /// equal and `x0` destinations behave as the two instructions in
    /// sequence. Each later pair joins when it is `h ← f(rs1, rs2, h) ;
    /// l ← g(rs1, rs2, l)` with the run's ids, `h ≠ l`, neither is `x0`,
    /// and neither is its `rs1` or `rs2`. Then no pair reads what
    /// another writes except through `h` and `l`, so the micro-op makes
    /// one call to the registered chain executor, which keeps both in
    /// host locals. It cannot trap.
    fn mac_run(insts: &[Inst], ext: &IsaExtension, regs: &mut Vec<u8>) -> Option<(Self, usize)> {
        let pair = |w: &[Inst]| match *w {
            [Inst::Custom {
                id: id1,
                rd: h,
                rs1,
                rs2,
                rs3,
                ..
            }, Inst::Custom {
                id: id2,
                rd: l,
                rs1: rs1b,
                rs2: rs2b,
                rs3: rs3b,
                ..
            }] if (rs1, rs2) == (rs1b, rs2b) => Some(((id1, id2), h, l, rs1, rs2, rs3, rs3b)),
            _ => None,
        };
        let (ids, h, l, rs1, rs2, rs3, rs3b) = pair(insts.get(..2)?)?;
        let exec = ext.chain(ids.0, ids.1)?;
        if [rs1, rs2, rs3b].contains(&h) {
            return None;
        }
        let at = regs.len();
        regs.extend([rs1.number(), rs2.number()]);
        if h != l && h != Reg::Zero && l != Reg::Zero {
            for w in insts[2..].chunks_exact(2).take(usize::from(u16::MAX) - 1) {
                match pair(w) {
                    Some((i, h2, l2, rs1, rs2, h3, l3))
                        if (i, h2, l2, h3, l3) == (ids, h, l, h, l)
                            && ![h, l].contains(&rs1)
                            && ![h, l].contains(&rs2) =>
                    {
                        regs.extend([rs1.number(), rs2.number()]);
                    }
                    _ => break,
                }
            }
        }
        let len = ((regs.len() - at) / 2) as u16;
        let r = Reg::number;
        let op = MicroOp {
            rd: r(h),
            rs3: r(rs3),
            rd2: r(l),
            rs3b: r(rs3b),
            ..Self::bare(Kind::Mac {
                exec,
                at: at as u32,
                len,
            })
        };
        Some((op, 2 * usize::from(len)))
    }

    /// Translates the longest run of two or more `ld`s, or of `sd`s, at
    /// the start of `insts` that address one base register at
    /// consecutive 8-byte offsets. A load run ends at the first load
    /// whose destination is the base, so every address comes from the
    /// base's value at the run's start. The micro-op checks the whole
    /// span once; when that fails it writes nothing, and the caller
    /// runs the instructions one at a time to find the trap.
    fn mem_run(insts: &[Inst], regs: &mut Vec<u8>) -> Option<(Self, usize)> {
        let (load, base, first) = match *insts.first()? {
            Inst::Load {
                op: LoadOp::Ld,
                rs1,
                offset,
                ..
            } => (true, rs1, offset),
            Inst::Store {
                op: StoreOp::Sd,
                rs1,
                offset,
                ..
            } => (false, rs1, offset),
            _ => return None,
        };
        let at = regs.len();
        for (k, inst) in insts.iter().take(u16::MAX.into()).enumerate() {
            let next = i64::from(first) + 8 * k as i64;
            let reg = match *inst {
                Inst::Load {
                    op: LoadOp::Ld,
                    rd,
                    rs1,
                    offset,
                } if load && rs1 == base && i64::from(offset) == next => rd,
                Inst::Store {
                    op: StoreOp::Sd,
                    rs1,
                    rs2,
                    offset,
                } if !load && rs1 == base && i64::from(offset) == next => rs2,
                _ => break,
            };
            regs.push(reg.number());
            if load && reg == base {
                break;
            }
        }
        let len = run_len(regs, at, 1)?;
        let at = at as u32;
        let op = MicroOp {
            rs1: base.number(),
            imm: first.into(),
            ..Self::bare(if load {
                Kind::LoadRun { at, len }
            } else {
                Kind::StoreRun { at, len }
            })
        };
        Some((op, len.into()))
    }

    /// Translates a column end at the start of `insts`, `and t, l, m ;
    /// sd t, off(b) ; <custom> ; [addi z, zero, 0]`, with `t` not `x0`,
    /// `b ≠ t` and a registered custom instruction, as Listing 4 ends a
    /// column: mask and store the finished limb, shift the accumulator
    /// down, clear its high part. Then the `sd` stores `l & m` to the
    /// address `b` held before the `and`. The micro-op stores first, so
    /// a trapping store writes nothing; then it writes `t`, runs the
    /// custom instruction and the reset in program order.
    fn column_end(insts: &[Inst], ext: &IsaExtension) -> Option<(Self, usize)> {
        let [Inst::Op {
            op: AluOp::And,
            rd: t,
            rs1: l,
            rs2: m,
        }, Inst::Store {
            op: StoreOp::Sd,
            rs1: b,
            rs2: stored,
            offset,
        }, Inst::Custom {
            id,
            rd,
            rs1,
            rs2,
            rs3,
            imm,
        }, ..] = *insts
        else {
            return None;
        };
        if stored != t || b == t || t == Reg::Zero {
            return None;
        }
        let reset = match insts.get(3) {
            Some(&Inst::OpImm {
                op: AluImmOp::Addi,
                rd: z,
                rs1: Reg::Zero,
                imm: 0,
            }) => Some(z.number()),
            _ => None,
        };
        let r = Reg::number;
        let op = MicroOp {
            kind: Kind::ColumnEnd {
                exec: ext.by_id(id)?.exec,
                shamt: imm,
                l: r(l),
                m: r(m),
                reset,
            },
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
            rs3: r(rs3),
            rd2: r(t),
            rs3b: r(b),
            imm: offset.into(),
        };
        Some((op, if reset.is_some() { 4 } else { 3 }))
    }

    /// Translates the longest run of two or more carry-propagation
    /// steps at the start of `insts`, `<custom y, rs1, x, rs3> ; and x,
    /// x, m` as §3.2 propagates with `sraiadd`/`and`, all with one
    /// registered custom id, one immediate and one mask register `m`
    /// that no instruction of the run writes. The micro-op reads `m`
    /// once and runs the instructions in program order against the
    /// register file, so any other aliasing behaves as in sequence.
    fn propagation_run(
        insts: &[Inst],
        ext: &IsaExtension,
        regs: &mut Vec<u8>,
    ) -> Option<(Self, usize)> {
        let step = |w: &[Inst]| match *w {
            [Inst::Custom {
                id,
                rd: y,
                rs1,
                rs2: x,
                rs3,
                imm,
            }, Inst::Op {
                op: AluOp::And,
                rd,
                rs1: x1,
                rs2: m,
            }] if (rd, x1) == (x, x) && ![y, x].contains(&m) => {
                Some(((id, imm, m), [y, rs1, x, rs3].map(Reg::number)))
            }
            _ => None,
        };
        let (key @ (id, imm, m), _) = step(insts.get(..2)?)?;
        let exec = ext.by_id(id)?.exec;
        let at = regs.len();
        for w in insts.chunks_exact(2).take(u16::MAX.into()) {
            match step(w) {
                Some((k, r)) if k == key => regs.extend(r),
                _ => break,
            }
        }
        let len = run_len(regs, at, 4)?;
        let op = MicroOp {
            rs2: m.number(),
            ..Self::bare(Kind::PropagationRun {
                exec,
                shamt: imm,
                at: at as u32,
                len,
            })
        };
        Some((op, 2 * usize::from(len)))
    }

    /// Whether the micro-op ends a straight-line run: it may transfer
    /// control (`jal`, `jalr`, a branch) or is a system instruction.
    pub(crate) fn ends_block(&self) -> bool {
        self.kind.is_branch()
            || matches!(
                self.kind,
                Kind::Jal | Kind::Jalr | Kind::Fence | Kind::Ecall | Kind::Ebreak
            )
    }

    /// Whether executing the micro-op at `pc` and continuing at
    /// `next_pc` redirected fetch. Jumps always do on Rocket, even to
    /// the fall-through address; a conditional branch does when it
    /// leaves the fall-through path.
    pub(crate) fn redirects(&self, pc: u64, next_pc: u64) -> bool {
        match self.kind {
            Kind::Jal | Kind::Jalr => true,
            k => k.is_branch() && next_pc != pc.wrapping_add(4),
        }
    }
}

/// The number of `per`-register entries that a run appended to `regs`
/// from `at` on, when it has at least two; otherwise drops them, and
/// the run does not fuse.
fn run_len(regs: &mut Vec<u8>, at: usize, per: usize) -> Option<u16> {
    let len = (regs.len() - at) / per;
    if len < 2 {
        regs.truncate(at);
        return None;
    }
    Some(len as u16)
}

/// The register value a load writes from the `raw` bytes it read:
/// sign-extended for `lb`, `lh` and `lw`, zero-extended otherwise.
#[inline(always)]
fn extend_load(op: LoadOp, raw: u64) -> u64 {
    match op {
        LoadOp::Lb => raw as u8 as i8 as i64 as u64,
        LoadOp::Lh => raw as u16 as i16 as i64 as u64,
        LoadOp::Lw => raw as u32 as i32 as i64 as u64,
        LoadOp::Ld | LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => raw,
    }
}

/// Pure evaluation of a register–register ALU/M operation.
///
/// Exposed so tests and the hardware model can check instruction
/// semantics without a full CPU.
// The divide-by-zero cases mirror the RISC-V spec text (quotient of
// all ones, remainder = dividend); spelling them out beats checked_div.
#[allow(clippy::manual_checked_ops)]
#[inline(always)]
pub fn eval_alu(op: AluOp, x: u64, y: u64) -> u64 {
    use AluOp::*;
    match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Sll => x << (y & 63),
        Slt => ((x as i64) < (y as i64)) as u64,
        Sltu => (x < y) as u64,
        Xor => x ^ y,
        Srl => x >> (y & 63),
        Sra => ((x as i64) >> (y & 63)) as u64,
        Or => x | y,
        And => x & y,
        Addw => (x as i32).wrapping_add(y as i32) as i64 as u64,
        Subw => (x as i32).wrapping_sub(y as i32) as i64 as u64,
        Sllw => ((x as i32) << (y & 31)) as i64 as u64,
        Srlw => (((x as u32) >> (y & 31)) as i32) as i64 as u64,
        Sraw => ((x as i32) >> (y & 31)) as i64 as u64,
        Mul => x.wrapping_mul(y),
        Mulh => (((x as i64 as i128) * (y as i64 as i128)) >> 64) as u64,
        Mulhsu => (((x as i64 as i128) * (y as u128 as i128)) >> 64) as u64,
        Mulhu => (((x as u128) * (y as u128)) >> 64) as u64,
        Div => {
            if y == 0 {
                u64::MAX
            } else if x as i64 == i64::MIN && y as i64 == -1 {
                x
            } else {
                ((x as i64) / (y as i64)) as u64
            }
        }
        Divu => {
            if y == 0 {
                u64::MAX
            } else {
                x / y
            }
        }
        Rem => {
            if y == 0 {
                x
            } else if x as i64 == i64::MIN && y as i64 == -1 {
                0
            } else {
                ((x as i64) % (y as i64)) as u64
            }
        }
        Remu => {
            if y == 0 {
                x
            } else {
                x % y
            }
        }
        Mulw => (x as i32).wrapping_mul(y as i32) as i64 as u64,
        Divw => {
            let (x, y) = (x as i32, y as i32);
            let r = if y == 0 {
                -1
            } else if x == i32::MIN && y == -1 {
                x
            } else {
                x / y
            };
            r as i64 as u64
        }
        Divuw => {
            let (x, y) = (x as u32, y as u32);
            let r = if y == 0 { u32::MAX } else { x / y };
            r as i32 as i64 as u64
        }
        Remw => {
            let (x, y) = (x as i32, y as i32);
            let r = if y == 0 {
                x
            } else if x == i32::MIN && y == -1 {
                0
            } else {
                x % y
            };
            r as i64 as u64
        }
        Remuw => {
            let (x, y) = (x as u32, y as u32);
            let r = if y == 0 { x } else { x % y };
            r as i32 as i64 as u64
        }
    }
}

/// Pure evaluation of a register–immediate ALU operation.
#[inline(always)]
pub(crate) fn eval_alu_imm(op: AluImmOp, x: u64, imm: i32) -> u64 {
    use AluImmOp::*;
    let simm = imm as i64 as u64;
    match op {
        Addi => x.wrapping_add(simm),
        Slti => ((x as i64) < imm as i64) as u64,
        Sltiu => (x < simm) as u64,
        Xori => x ^ simm,
        Ori => x | simm,
        Andi => x & simm,
        Slli => x << (imm & 63),
        Srli => x >> (imm & 63),
        Srai => ((x as i64) >> (imm & 63)) as u64,
        Addiw => (x as i32).wrapping_add(imm) as i64 as u64,
        Slliw => ((x as i32) << (imm & 31)) as i64 as u64,
        Srliw => (((x as u32) >> (imm & 31)) as i32) as i64 as u64,
        Sraiw => ((x as i32) >> (imm & 31)) as i64 as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_with(pairs: &[(Reg, u64)]) -> Cpu {
        let mut c = Cpu::new();
        for &(r, v) in pairs {
            c.write_reg(r, v);
        }
        c
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut c = Cpu::new();
        c.write_reg(Reg::Zero, 123);
        assert_eq!(c.read_reg(Reg::Zero), 0);
    }

    #[test]
    fn alu_semantics_spot_checks() {
        assert_eq!(eval_alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(eval_alu(AluOp::Sub, 0, 1), u64::MAX);
        assert_eq!(eval_alu(AluOp::Sltu, 1, 2), 1);
        assert_eq!(eval_alu(AluOp::Sltu, 2, 1), 0);
        assert_eq!(eval_alu(AluOp::Slt, u64::MAX, 0), 1); // -1 < 0
        assert_eq!(eval_alu(AluOp::Sra, u64::MAX, 63), u64::MAX);
        assert_eq!(eval_alu(AluOp::Srl, u64::MAX, 63), 1);
        assert_eq!(eval_alu(AluOp::Mulhu, u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(eval_alu(AluOp::Mulh, u64::MAX, u64::MAX), 0); // (-1)*(-1)
        assert_eq!(eval_alu(AluOp::Mul, 1 << 63, 2), 0);
    }

    #[test]
    fn division_edge_cases_match_spec() {
        // Division by zero: quotient all-ones, remainder = dividend.
        assert_eq!(eval_alu(AluOp::Div, 42, 0), u64::MAX);
        assert_eq!(eval_alu(AluOp::Divu, 42, 0), u64::MAX);
        assert_eq!(eval_alu(AluOp::Rem, 42, 0), 42);
        assert_eq!(eval_alu(AluOp::Remu, 42, 0), 42);
        // Signed overflow: MIN / -1 = MIN, MIN % -1 = 0.
        let min = i64::MIN as u64;
        assert_eq!(eval_alu(AluOp::Div, min, u64::MAX), min);
        assert_eq!(eval_alu(AluOp::Rem, min, u64::MAX), 0);
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(eval_alu(AluOp::Addw, 0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(eval_alu_imm(AluImmOp::Addiw, 0xffff_ffff, 1), 0);
        assert_eq!(eval_alu(AluOp::Sllw, 1, 31), 0xffff_ffff_8000_0000u64);
    }

    #[test]
    fn mulhsu_mixed_signs() {
        // -1 (signed) * 2 (unsigned) = -2 → high word = all ones.
        assert_eq!(eval_alu(AluOp::Mulhsu, u64::MAX, 2), u64::MAX);
        // 2 (signed) * 2^63 (unsigned): product = 2^64, high = 1.
        assert_eq!(eval_alu(AluOp::Mulhsu, 2, 1 << 63), 1);
    }

    #[test]
    fn step_load_store() {
        let mut mem = Memory::new(0x100, 32);
        let ext = IsaExtension::new("none");
        let mut c = cpu_with(&[(Reg::A0, 0x100), (Reg::T0, 0xabcd)]);
        c.step(
            &Inst::Store {
                op: StoreOp::Sd,
                rs1: Reg::A0,
                rs2: Reg::T0,
                offset: 8,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        c.step(
            &Inst::Load {
                op: LoadOp::Ld,
                rd: Reg::T1,
                rs1: Reg::A0,
                offset: 8,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.read_reg(Reg::T1), 0xabcd);
        assert_eq!(c.pc, 8);
    }

    #[test]
    fn step_branch_taken_and_not_taken() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = cpu_with(&[(Reg::A0, 1)]);
        c.pc = 100;
        c.step(
            &Inst::Branch {
                op: crate::inst::BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -20,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 80);
        c.step(
            &Inst::Branch {
                op: crate::inst::BranchOp::Beq,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: -20,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 84); // fall-through
    }

    #[test]
    fn jal_and_jalr_link() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        c.pc = 40;
        c.step(
            &Inst::Jal {
                rd: Reg::Ra,
                offset: 16,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.read_reg(Reg::Ra), 44);
        assert_eq!(c.pc, 56);
        c.step(
            &Inst::Jalr {
                rd: Reg::Zero,
                rs1: Reg::Ra,
                offset: 0,
            },
            &mut mem,
            &ext,
        )
        .unwrap();
        assert_eq!(c.pc, 44);
    }

    #[test]
    fn ebreak_traps() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        assert_eq!(c.step(&Inst::Ebreak, &mut mem, &ext), Err(Trap::Breakpoint));
        assert_eq!(
            c.step(&Inst::Ecall, &mut mem, &ext),
            Err(Trap::EnvironmentCall)
        );
    }

    #[test]
    fn unknown_custom_traps() {
        let mut mem = Memory::new(0, 8);
        let ext = IsaExtension::new("none");
        let mut c = Cpu::new();
        let r = c.step(
            &Inst::Custom {
                id: crate::ext::CustomId(7),
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
                rs3: Reg::A3,
                imm: 0,
            },
            &mut mem,
            &ext,
        );
        assert_eq!(r, Err(Trap::IllegalInstruction));
    }
}
