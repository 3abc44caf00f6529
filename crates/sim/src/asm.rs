//! Programmatic assembler, textual assembler and disassembler.
//!
//! Kernels in this reproduction are authored the way the paper's authors
//! wrote theirs — as straight-line assembly — but *generated* by Rust
//! code. [`Assembler`] is the builder: one method per mnemonic, plus
//! labels, pseudo-instructions and custom (ISE) instructions. The
//! textual front-end ([`parse_program`]) accepts standard assembler
//! syntax, looks base mnemonics up in the op tables of [`crate::inst`],
//! and reads back everything the disassembler ([`Program::disassemble`],
//! [`display_with_ext`]) prints.

use crate::encode::{encode, EncodeError};
use crate::ext::{CustomId, IsaExtension};
use crate::inst::{
    AluImmOp, AluOp, BranchOp, Inst, LoadOp, OpRow, StoreOp, ALU_IMM_OPS, ALU_OPS, BRANCH_OPS,
    LOAD_OPS, STORE_OPS,
};
use crate::reg::Reg;
use std::collections::HashMap;
use std::fmt;

/// A finished instruction sequence.
///
/// Instruction `i` lives at byte address `4 * i` relative to the load
/// address chosen by [`crate::Machine::load_program`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Creates a program directly from instructions (no label fixups).
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Program { insts }
    }

    /// The instructions in program order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Encodes every instruction to its 32-bit binary form.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EncodeError`].
    pub fn encode(&self, ext: &IsaExtension) -> Result<Vec<u32>, EncodeError> {
        self.insts.iter().map(|i| encode(i, ext)).collect()
    }

    /// Renders the program as assembly text, one instruction per line,
    /// using `ext` to resolve custom mnemonics.
    pub fn disassemble(&self, ext: &IsaExtension) -> String {
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            out.push_str(&format!("{:6}: {}\n", i * 4, display_with_ext(inst, ext)));
        }
        out
    }
}

/// Formats one instruction, resolving custom ids to their mnemonics.
pub fn display_with_ext(inst: &Inst, ext: &IsaExtension) -> String {
    if let Inst::Custom {
        id,
        rd,
        rs1,
        rs2,
        rs3,
        imm,
    } = *inst
    {
        if let Some(def) = ext.by_id(id) {
            return if def.format.has_rs3() {
                format!("{} {rd}, {rs1}, {rs2}, {rs3}", def.mnemonic)
            } else {
                format!("{} {rd}, {rs1}, {rs2}, {imm}", def.mnemonic)
            };
        }
    }
    inst.to_string()
}

/// A branch/jump target created by [`Assembler::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced when finishing or parsing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(usize),
    /// A parse error with line number and message.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// An instruction failed to encode (range check).
    Encode(EncodeError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(i) => write!(f, "label L{i} was never bound"),
            AsmError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
            AsmError::Encode(e) => write!(f, "encode error: {e}"),
        }
    }
}

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> Self {
        AsmError::Encode(e)
    }
}

/// Builder for [`Program`]s.
///
/// # Examples
///
/// Branching backwards over a label:
///
/// ```
/// use mpise_sim::{Assembler, Reg};
///
/// let mut a = Assembler::new();
/// let top = a.new_label();
/// a.li(Reg::T0, 10);
/// a.bind(top);
/// a.addi(Reg::T0, Reg::T0, -1);
/// a.bnez(Reg::T0, top);
/// a.ebreak();
/// let p = a.finish();
/// assert_eq!(p.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    /// Branches and `jal`s whose offset [`Assembler::try_finish`] aims
    /// at a label: (instruction index, label).
    fixups: Vec<(usize, Label)>,
    labels: Vec<Option<usize>>,
}

macro_rules! r_type_methods {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
                self.push(Inst::Op { op: AluOp::$op, rd, rs1, rs2 });
            }
        )+
    };
}

macro_rules! i_type_methods {
    ($($(#[$doc:meta])* $name:ident => $op:ident),+ $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(&mut self, rd: Reg, rs1: Reg, imm: i32) {
                self.push(Inst::OpImm { op: AluImmOp::$op, rd, rs1, imm });
            }
        )+
    };
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction.
    pub(crate) fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Appends a branch or `jal` whose offset is resolved to `target`.
    fn push_to(&mut self, inst: Inst, target: Label) {
        self.fixups.push((self.insts.len(), target));
        self.push(inst);
    }

    /// Creates a new, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound (each label is bound once).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len());
    }

    r_type_methods! {
        /// `add rd, rs1, rs2`
        add => Add,
        /// `sub rd, rs1, rs2`
        sub => Sub,
        /// `sltu rd, rs1, rs2` — the carry/borrow detector of RISC-V MPI code.
        sltu => Sltu,
        /// `xor rd, rs1, rs2`
        xor => Xor,
        /// `or rd, rs1, rs2`
        or => Or,
        /// `and rd, rs1, rs2`
        and => And,
        /// `mul rd, rs1, rs2` — low 64 bits of the product.
        mul => Mul,
        /// `mulhu rd, rs1, rs2` — high 64 bits of the unsigned product.
        mulhu => Mulhu,
    }

    i_type_methods! {
        /// `addi rd, rs1, imm`
        addi => Addi,
        /// `sltiu rd, rs1, imm`
        sltiu => Sltiu,
        /// `xori rd, rs1, imm`
        xori => Xori,
        /// `slli rd, rs1, shamt`
        slli => Slli,
        /// `srli rd, rs1, shamt`
        srli => Srli,
        /// `srai rd, rs1, shamt`
        srai => Srai,
        /// `addiw rd, rs1, imm`
        addiw => Addiw,
    }

    /// `bne rs1, rs2, label`
    pub(crate) fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        let inst = Inst::Branch {
            op: BranchOp::Bne,
            rs1,
            rs2,
            offset: 0,
        };
        self.push_to(inst, target);
    }

    /// `lui rd, imm20`
    pub(crate) fn lui(&mut self, rd: Reg, imm20: i32) {
        self.push(Inst::Lui { rd, imm20 });
    }

    /// `ld rd, offset(rs1)`
    pub fn ld(&mut self, rd: Reg, offset: i32, rs1: Reg) {
        self.push(Inst::Load {
            op: LoadOp::Ld,
            rd,
            rs1,
            offset,
        });
    }

    /// `sd rs2, offset(rs1)`
    pub fn sd(&mut self, rs2: Reg, offset: i32, rs1: Reg) {
        self.push(Inst::Store {
            op: StoreOp::Sd,
            rs1,
            rs2,
            offset,
        });
    }

    /// `jal rd, label`
    #[cfg(test)]
    pub(crate) fn jal(&mut self, rd: Reg, target: Label) {
        self.push_to(Inst::Jal { rd, offset: 0 }, target);
    }

    /// `jalr rd, offset(rs1)`
    pub(crate) fn jalr(&mut self, rd: Reg, offset: i32, rs1: Reg) {
        self.push(Inst::Jalr { rd, rs1, offset });
    }

    /// `ebreak` — terminates a [`crate::Machine`] run normally.
    pub fn ebreak(&mut self) {
        self.push(Inst::Ebreak);
    }

    /// `ecall`
    pub(crate) fn ecall(&mut self) {
        self.push(Inst::Ecall);
    }

    /// `fence`
    pub(crate) fn fence(&mut self) {
        self.push(Inst::Fence);
    }

    // ----- pseudo-instructions -----

    /// `nop` (encoded as `addi x0, x0, 0`).
    pub(crate) fn nop(&mut self) {
        self.addi(Reg::Zero, Reg::Zero, 0);
    }

    /// `mv rd, rs` (encoded as `addi rd, rs, 0`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.addi(rd, rs, 0);
    }

    /// `neg rd, rs` (encoded as `sub rd, x0, rs`).
    pub fn neg(&mut self, rd: Reg, rs: Reg) {
        self.sub(rd, Reg::Zero, rs);
    }

    /// `not rd, rs` (encoded as `xori rd, rs, -1`).
    pub(crate) fn not(&mut self, rd: Reg, rs: Reg) {
        self.xori(rd, rs, -1);
    }

    /// `seqz rd, rs` (encoded as `sltiu rd, rs, 1`).
    pub(crate) fn seqz(&mut self, rd: Reg, rs: Reg) {
        self.sltiu(rd, rs, 1);
    }

    /// `snez rd, rs` (encoded as `sltu rd, x0, rs`).
    pub(crate) fn snez(&mut self, rd: Reg, rs: Reg) {
        self.sltu(rd, Reg::Zero, rs);
    }

    /// `bnez rs, label`
    pub fn bnez(&mut self, rs: Reg, target: Label) {
        self.bne(rs, Reg::Zero, target);
    }

    /// `j label` (encoded as `jal x0, label`).
    #[cfg(test)]
    pub(crate) fn j(&mut self, target: Label) {
        self.jal(Reg::Zero, target);
    }

    /// `ret` (encoded as `jalr x0, 0(ra)`).
    pub fn ret(&mut self) {
        self.jalr(Reg::Zero, 0, Reg::Ra);
    }

    /// Loads a 64-bit constant, choosing the shortest standard sequence:
    /// one `addi` for 12-bit values, `lui(+addiw)` for 32-bit values,
    /// and the generic `lui/addiw/slli/addi…` ladder otherwise (up to
    /// 8 instructions, as emitted by GNU as / LLVM for `li`).
    pub fn li(&mut self, rd: Reg, value: i64) {
        if (-2048..=2047).contains(&value) {
            self.addi(rd, Reg::Zero, value as i32);
            return;
        }
        if value == value as i32 as i64 {
            // 32-bit: lui + optional addiw.
            let v = value as i32;
            let hi = (v.wrapping_add(0x800)) >> 12;
            let lo = v.wrapping_sub(hi << 12);
            self.lui(rd, hi);
            if lo != 0 {
                self.addiw(rd, rd, lo);
            }
            return;
        }
        // Generic 64-bit ladder: materialize the upper part recursively,
        // then shift in 12-bit chunks.
        let lo12 = ((value << 52) >> 52) as i32; // sign-extended low 12
        let hi = value.wrapping_sub(lo12 as i64) >> 12;
        self.li(rd, hi);
        self.slli(rd, rd, 12);
        if lo12 != 0 {
            self.addi(rd, rd, lo12);
        }
    }

    /// Emits a custom (ISE) instruction in R4 form.
    pub fn custom_r4(&mut self, id: CustomId, rd: Reg, rs1: Reg, rs2: Reg, rs3: Reg) {
        self.push(Inst::Custom {
            id,
            rd,
            rs1,
            rs2,
            rs3,
            imm: 0,
        });
    }

    /// Emits a custom (ISE) instruction in register–shamt form.
    pub fn custom_shamt(&mut self, id: CustomId, rd: Reg, rs1: Reg, rs2: Reg, imm: u8) {
        self.push(Inst::Custom {
            id,
            rd,
            rs1,
            rs2,
            rs3: Reg::Zero,
            imm,
        });
    }

    /// Resolves labels and returns the finished program.
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if a referenced label was never bound.
    pub(crate) fn try_finish(mut self) -> Result<Program, AsmError> {
        for &(at, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(AsmError::UnboundLabel(label.0))?;
            match &mut self.insts[at] {
                Inst::Branch { offset, .. } | Inst::Jal { offset, .. } => {
                    *offset = (target as i32 - at as i32) * 4;
                }
                _ => unreachable!("fixup does not point at a control instruction"),
            }
        }
        Ok(Program { insts: self.insts })
    }

    /// Resolves labels and returns the finished program.
    ///
    /// # Panics
    ///
    /// Panics on unbound labels.
    pub fn finish(self) -> Program {
        self.try_finish().expect("unbound label")
    }
}

// ---------------------------------------------------------------------
// Textual assembler
// ---------------------------------------------------------------------

/// The op whose row in `rows` carries `mnemonic`.
fn op_named<Op: Copy>(rows: &[OpRow<Op>], mnemonic: &str) -> Option<Op> {
    rows.iter().find(|row| row.1 == mnemonic).map(|row| row.0)
}

/// A builder method emitting a mnemonic without operands.
type Emit = fn(&mut Assembler);
/// A builder method emitting a pseudo-instruction on `rd, rs`.
type EmitRegReg = fn(&mut Assembler, Reg, Reg);

/// Mnemonics without operands.
const NO_OPERANDS: [(&str, Emit); 5] = [
    ("nop", Assembler::nop),
    ("ret", Assembler::ret),
    ("fence", Assembler::fence),
    ("ecall", Assembler::ecall),
    ("ebreak", Assembler::ebreak),
];

/// Pseudo-instructions on `rd, rs`.
const REG_REG: [(&str, EmitRegReg); 5] = [
    ("mv", Assembler::mv),
    ("neg", Assembler::neg),
    ("not", Assembler::not),
    ("seqz", Assembler::seqz),
    ("snez", Assembler::snez),
];

/// Parses assembler source into a [`Program`].
///
/// Supported syntax: one instruction per line; `label:` definitions;
/// `#` or `//` comments; all mnemonics known to [`Inst`] plus the
/// pseudo-instructions `li`, `mv`, `neg`, `not`, `nop`, `j`, `ret`,
/// `beqz`, `bnez`, `seqz`, `snez`; and any custom mnemonics registered
/// in `ext` (R4 operands `rd, rs1, rs2, rs3`; shamt operands
/// `rd, rs1, rs2, imm`). A branch or jump target is a label name or,
/// as the disassembler prints it, a numeric byte offset.
///
/// # Errors
///
/// [`AsmError::Parse`] with the offending line, or label errors at
/// fixup time.
///
/// # Examples
///
/// ```
/// use mpise_sim::{asm::parse_program, ext::IsaExtension};
/// let p = parse_program(
///     "li t0, 3\nloop: addi t0, t0, -1\n bnez t0, loop\n ebreak\n",
///     &IsaExtension::new("none"),
/// ).unwrap();
/// assert_eq!(p.len(), 4);
/// ```
pub fn parse_program(src: &str, ext: &IsaExtension) -> Result<Program, AsmError> {
    let mut a = Assembler::new();
    let mut named: HashMap<String, Label> = HashMap::new();
    let mut get_label = |a: &mut Assembler, name: &str| -> Label {
        *named
            .entry(name.to_owned())
            .or_insert_with(|| a.new_label())
    };

    for (lineno, raw_line) in src.lines().enumerate() {
        let line = raw_line
            .split('#')
            .next()
            .unwrap_or("")
            .split("//")
            .next()
            .unwrap_or("")
            .trim();
        if line.is_empty() {
            continue;
        }
        let perr = |msg: String| AsmError::Parse {
            line: lineno + 1,
            msg,
        };

        let mut rest = line;
        // Leading label definitions.
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            let l = get_label(&mut a, name);
            a.bind(l);
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let (mnemonic, operands) = match rest.split_once(char::is_whitespace) {
            Some((m, o)) => (m, o.trim()),
            None => (rest, ""),
        };
        let ops: Vec<&str> = if operands.is_empty() {
            vec![]
        } else {
            operands.split(',').map(str::trim).collect()
        };

        let reg = |s: &str| -> Result<Reg, AsmError> {
            s.parse::<Reg>().map_err(|e| perr(e.to_string()))
        };
        let imm = |s: &str| -> Result<i64, AsmError> {
            let s = s.trim();
            let (neg, body) = match s.strip_prefix('-') {
                Some(b) => (true, b),
                None => (false, s),
            };
            let v = if let Some(hex) = body.strip_prefix("0x") {
                i64::from_str_radix(hex, 16)
            } else {
                body.parse::<i64>()
            }
            .map_err(|_| perr(format!("bad immediate `{s}`")))?;
            Ok(if neg { -v } else { v })
        };
        // `offset(base)` operand for loads/stores.
        let mem_operand = |s: &str| -> Result<(i32, Reg), AsmError> {
            let open = s
                .find('(')
                .ok_or_else(|| perr(format!("expected offset(base), got `{s}`")))?;
            let close = s
                .rfind(')')
                .ok_or_else(|| perr(format!("missing `)` in `{s}`")))?;
            let off = if s[..open].trim().is_empty() {
                0
            } else {
                imm(&s[..open])? as i32
            };
            Ok((off, reg(s[open + 1..close].trim())?))
        };
        let want = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(perr(format!(
                    "`{mnemonic}` expects {n} operands, got {}",
                    ops.len()
                )))
            }
        };

        // A branch or `jal` target: a byte offset when numeric, as the
        // disassembler prints it; otherwise a label.
        let mut control = |a: &mut Assembler, mut inst: Inst, target: &str| {
            if let Ok(v) = imm(target) {
                if let Inst::Branch { offset, .. } | Inst::Jal { offset, .. } = &mut inst {
                    *offset = v as i32;
                }
                a.push(inst);
            } else {
                let l = get_label(a, target);
                a.push_to(inst, l);
            }
        };

        if let Some(op) = op_named(&ALU_OPS, mnemonic) {
            want(3)?;
            let (rd, rs1, rs2) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
            a.push(Inst::Op { op, rd, rs1, rs2 });
        } else if let Some(op) = op_named(&ALU_IMM_OPS, mnemonic) {
            want(3)?;
            let (rd, rs1, imm) = (reg(ops[0])?, reg(ops[1])?, imm(ops[2])? as i32);
            a.push(Inst::OpImm { op, rd, rs1, imm });
        } else if let Some(op) = op_named(&LOAD_OPS, mnemonic) {
            want(2)?;
            let (rd, (offset, rs1)) = (reg(ops[0])?, mem_operand(ops[1])?);
            a.push(Inst::Load {
                op,
                rd,
                rs1,
                offset,
            });
        } else if let Some(op) = op_named(&STORE_OPS, mnemonic) {
            want(2)?;
            let (rs2, (offset, rs1)) = (reg(ops[0])?, mem_operand(ops[1])?);
            a.push(Inst::Store {
                op,
                rs1,
                rs2,
                offset,
            });
        } else if let Some(op) = op_named(&BRANCH_OPS, mnemonic) {
            want(3)?;
            let (rs1, rs2) = (reg(ops[0])?, reg(ops[1])?);
            control(
                &mut a,
                Inst::Branch {
                    op,
                    rs1,
                    rs2,
                    offset: 0,
                },
                ops[2],
            );
        } else if let Some(def) = ext.by_mnemonic(mnemonic) {
            want(4)?;
            let (rd, rs1, rs2) = (reg(ops[0])?, reg(ops[1])?, reg(ops[2])?);
            if def.format.has_rs3() {
                a.custom_r4(def.id, rd, rs1, rs2, reg(ops[3])?);
            } else {
                a.custom_shamt(def.id, rd, rs1, rs2, imm(ops[3])? as u8);
            }
        } else if let Some((_, emit)) = NO_OPERANDS.iter().find(|(m, _)| *m == mnemonic) {
            want(0)?;
            emit(&mut a);
        } else if let Some((_, emit)) = REG_REG.iter().find(|(m, _)| *m == mnemonic) {
            want(2)?;
            emit(&mut a, reg(ops[0])?, reg(ops[1])?);
        } else {
            match mnemonic {
                "lui" => {
                    want(2)?;
                    a.lui(reg(ops[0])?, imm(ops[1])? as i32);
                }
                "auipc" => {
                    want(2)?;
                    let (rd, imm20) = (reg(ops[0])?, imm(ops[1])? as i32);
                    a.push(Inst::Auipc { rd, imm20 });
                }
                "li" => {
                    want(2)?;
                    a.li(reg(ops[0])?, imm(ops[1])?);
                }
                "j" => {
                    want(1)?;
                    control(
                        &mut a,
                        Inst::Jal {
                            rd: Reg::Zero,
                            offset: 0,
                        },
                        ops[0],
                    );
                }
                "jal" => {
                    want(2)?;
                    let rd = reg(ops[0])?;
                    control(&mut a, Inst::Jal { rd, offset: 0 }, ops[1]);
                }
                "jalr" => {
                    want(2)?;
                    let (offset, rs1) = mem_operand(ops[1])?;
                    a.jalr(reg(ops[0])?, offset, rs1);
                }
                "beqz" | "bnez" => {
                    want(2)?;
                    let op = if mnemonic == "beqz" {
                        BranchOp::Beq
                    } else {
                        BranchOp::Bne
                    };
                    let (rs1, rs2) = (reg(ops[0])?, Reg::Zero);
                    control(
                        &mut a,
                        Inst::Branch {
                            op,
                            rs1,
                            rs2,
                            offset: 0,
                        },
                        ops[1],
                    );
                }
                _ => return Err(perr(format!("unknown mnemonic `{mnemonic}`"))),
            }
        }
    }
    a.try_finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_fixups_forward_and_backward() {
        let mut a = Assembler::new();
        let end = a.new_label();
        let top = a.new_label();
        a.bind(top);
        a.bnez(Reg::A0, end); // at 0 -> 3: offset +12
        a.addi(Reg::A0, Reg::A0, 1);
        a.bne(Reg::A0, Reg::A1, top); // at 2 -> 0: offset -8
        a.bind(end);
        a.ebreak();
        let p = a.finish();
        assert_eq!(
            p.insts()[0],
            Inst::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::Zero,
                offset: 12
            }
        );
        assert_eq!(
            p.insts()[2],
            Inst::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -8
            }
        );
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bnez(Reg::A0, l);
        assert!(matches!(a.try_finish(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn li_sequences() {
        // Small immediate: single addi.
        let li = |imm: i64| {
            let mut a = Assembler::new();
            a.li(Reg::T0, imm);
            a.finish().len()
        };
        assert_eq!(li(42), 1);
        // 32-bit: lui + addiw.
        assert_eq!(li(0x1234_5678), 2);
        // Full 64-bit: bounded ladder.
        let n = li(0x0123_4567_89ab_cdefu64 as i64);
        assert!(n <= 8, "li ladder too long: {n}");
    }

    #[test]
    fn parse_round_trips_disassembly() {
        let ext = IsaExtension::new("none");
        let src = "\
            add a0, a1, a2\n\
            mulhu t0, t1, t2\n\
            ld t3, 8(a0)\n\
            sd t3, 16(a0)\n\
            srai s2, s3, 57\n\
            ebreak\n";
        let p = parse_program(src, &ext).unwrap();
        assert_eq!(p.len(), 6);
        let dis = p.disassemble(&ext);
        // Re-parse the disassembly (strip addresses).
        let stripped: String = dis
            .lines()
            .map(|l| l.split(": ").nth(1).unwrap().to_owned() + "\n")
            .collect();
        let p2 = parse_program(&stripped, &ext).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn parse_labels_and_comments() {
        let ext = IsaExtension::new("none");
        let src = "\
            # countdown\n\
            li t0, 3\n\
            loop: addi t0, t0, -1 // decrement\n\
            bnez t0, loop\n\
            ebreak\n";
        let p = parse_program(src, &ext).unwrap();
        assert_eq!(
            p.insts()[2],
            Inst::Branch {
                op: BranchOp::Bne,
                rs1: Reg::T0,
                rs2: Reg::Zero,
                offset: -4
            }
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let ext = IsaExtension::new("none");
        let err = parse_program("nop\nfrobnicate a0, a1\n", &ext).unwrap_err();
        match err {
            AsmError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_operand_counts() {
        let ext = IsaExtension::new("none");
        assert!(parse_program("add a0, a1\n", &ext).is_err());
        assert!(parse_program("ld a0\n", &ext).is_err());
    }

    #[test]
    fn hex_and_negative_immediates() {
        let ext = IsaExtension::new("none");
        let p = parse_program("addi t0, t1, -0x10\naddi t2, t3, 0x7ff\n", &ext).unwrap();
        assert_eq!(
            p.insts()[0],
            Inst::OpImm {
                op: AluImmOp::Addi,
                rd: Reg::T0,
                rs1: Reg::T1,
                imm: -16
            }
        );
    }
}
