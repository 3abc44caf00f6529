//! Instruction-set extension (ISE) hook.
//!
//! The paper proposes two alternative sets of custom instructions (§3.2,
//! Table 1). This module defines the interface through which such a set
//! plugs into the simulator: an [`IsaExtension`] is a collection of
//! [`CustomInstDef`]s, each describing a mnemonic, a binary encoding
//! format, a pure execution function and the functional unit it executes
//! on (which determines its timing).
//!
//! All of the paper's instructions are pure register-to-register
//! computations — `rd ← f(rs1, rs2, rs3)` or `rd ← f(rs1, rs2, imm)` —
//! so a pure-function model is sufficient and keeps the instructions
//! trivially testable in isolation. The function takes the four
//! operands as plain arguments, `fn(rs1, rs2, rs3, imm) -> u64`, so the
//! simulator passes them in host registers rather than through a
//! struct in memory. The design-rule checks of
//! `mpise-core` enforce exactly this shape (no memory access, no extra
//! architectural state), mirroring the ISE guidelines the paper adopts
//! from Marshall et al. (CHES 2021).
//!
//! An extension may also register a *pair*: two of its R4
//! instructions that programs issue back to back on the same `rs1` and
//! `rs2`, like the high and low halves of the paper's MAC (Listings 3
//! and 4), which the XMUL datapath computes from one product (§3.3).
//! The pair names one *chain executor* ([`ChainExec`]), which runs a
//! run of such pairs on one accumulator pair: the extension writes it
//! as [`run_chain`] over a function that returns both halves' results,
//! so the loop is compiled with the pair inlined while the semantics
//! stay stated once. The simulator runs an adjacent pair whose second
//! half does not read the first one's result, together with the pairs
//! after it that accumulate into the same two registers, as one step
//! that makes one call to the chain executor (DESIGN.md §9.5); a lone
//! pair is a run of one. Timing and `instret` still count every
//! instruction.
//!
//! Note that the two ISE sets may legitimately reuse the same encodings:
//! the paper presents them as alternatives, not as a combined extension
//! (e.g. `cadd` and `madd57lu` both use funct2 = 10 on the custom-3
//! opcode). A [`Machine`](crate::Machine) therefore hosts at most one
//! extension per major opcode/funct point, and registering conflicting
//! definitions is an error.

use crate::reg::Reg;
use std::fmt;

/// The four major opcodes RISC-V reserves for custom extensions
/// (custom-0/1/2/3 of the unprivileged spec).
pub const CUSTOM_OPCODES: [u8; 4] = [
    0b0001011, // custom-0
    0b0101011, // custom-1
    0b1011011, // custom-2
    0b1111011, // custom-3
];

/// Identifier for a custom instruction, unique within a process.
///
/// Extension crates allocate stable ids for their instructions (see
/// `mpise-core`); the simulator treats the id as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CustomId(pub u16);

impl fmt::Display for CustomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Binary encoding format of a custom instruction.
///
/// The paper uses two formats (Figures 1–3):
///
/// * [`CustomFormat::R4`]: the standard R4-type format (as used by the
///   RV64GC floating-point fused multiply-add), with three source
///   registers: `rs3[31:27] | funct2[26:25] | rs2 | rs1 | funct3 | rd |
///   opcode`.
/// * [`CustomFormat::RShamt`]: an R-type with a 6-bit shift amount in
///   place of `funct7[5:0]` and a fixed bit 31, used by `sraiadd`:
///   `1[31] | shamt[30:25] | rs2 | rs1 | funct3 | rd | opcode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CustomFormat {
    /// R4-type: three source registers plus a 2-bit minor opcode.
    R4 {
        /// Major opcode (7 bits). The paper uses custom-3 = `0b1111011`.
        opcode: u8,
        /// funct3 field (3 bits). The paper uses `0b111`.
        funct3: u8,
        /// funct2 minor opcode (bits 26:25).
        funct2: u8,
    },
    /// R-type with an embedded 6-bit shift amount.
    RShamt {
        /// Major opcode (7 bits). The paper uses custom-1 = `0b0101011`.
        opcode: u8,
        /// funct3 field (3 bits).
        funct3: u8,
        /// Fixed value of bit 31 distinguishing this from other encodings
        /// on the same opcode.
        bit31: bool,
    },
}

impl CustomFormat {
    /// The major opcode of the format.
    pub const fn opcode(self) -> u8 {
        match self {
            CustomFormat::R4 { opcode, .. } | CustomFormat::RShamt { opcode, .. } => opcode,
        }
    }

    /// Whether the format carries a third source register (R4) rather
    /// than an immediate.
    pub const fn has_rs3(self) -> bool {
        matches!(self, CustomFormat::R4 { .. })
    }
}

/// Functional unit a custom instruction executes on, which selects its
/// timing class in [`crate::timing::PipelineModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecUnit {
    /// Single-cycle integer ALU.
    Alu,
    /// The (extended) 2-stage pipelined multiplier — "XMUL" in the paper.
    /// One result per cycle; results available to dependants after the
    /// multiplier latency.
    Xmul,
}

/// Definition of one custom instruction.
#[derive(Clone)]
pub struct CustomInstDef {
    /// Stable identifier (see [`CustomId`]).
    pub id: CustomId,
    /// Assembler mnemonic, e.g. `"maddlu"`.
    pub mnemonic: &'static str,
    /// Binary encoding format.
    pub format: CustomFormat,
    /// Pure execution function: computes the `rd` value from the values
    /// of `rs1`, `rs2` and `rs3` and the immediate. `rs3` is the value
    /// of `x0`, zero, for [`CustomFormat::RShamt`] instructions, and
    /// `imm` is zero for [`CustomFormat::R4`] instructions.
    pub exec: fn(rs1: u64, rs2: u64, rs3: u64, imm: u8) -> u64,
    /// Functional unit / timing class.
    pub unit: ExecUnit,
}

impl fmt::Debug for CustomInstDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomInstDef")
            .field("id", &self.id)
            .field("mnemonic", &self.mnemonic)
            .field("format", &self.format)
            .field("unit", &self.unit)
            .finish()
    }
}

/// A named set of custom instructions that can be attached to a
/// [`Machine`](crate::Machine).
///
/// # Examples
///
/// ```
/// use mpise_sim::ext::{CustomFormat, CustomId, CustomInstDef, ExecUnit, IsaExtension};
///
/// fn addx3(rs1: u64, rs2: u64, rs3: u64, _imm: u8) -> u64 {
///     rs1.wrapping_add(rs2).wrapping_add(rs3)
/// }
///
/// let mut ext = IsaExtension::new("demo");
/// ext.define(CustomInstDef {
///     id: CustomId(100),
///     mnemonic: "addx3",
///     format: CustomFormat::R4 { opcode: 0b1111011, funct3: 0b111, funct2: 0b00 },
///     exec: addx3,
///     unit: ExecUnit::Alu,
/// }).unwrap();
/// let def = ext.by_mnemonic("addx3").unwrap();
/// assert_eq!(def.id, CustomId(100));
/// assert_eq!((def.exec)(1, 20, 300, 0), 321);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IsaExtension {
    name: &'static str,
    defs: Vec<CustomInstDef>,
    /// O(1) id → `defs` index lookup (`defs` index + 1; 0 = absent),
    /// indexed by `CustomId.0`. The simulator resolves every executed
    /// custom instruction through [`IsaExtension::by_id`], so this must
    /// not be a linear scan.
    id_index: Vec<u32>,
    /// Registered pairs: first id, second id, chain executor.
    pairs: Vec<(CustomId, CustomId, ChainExec)>,
}

/// A chain executor: the results `(h, l)` of a run of pairs, each two
/// R4 instructions issued back to back on the same `rs1` and `rs2`,
/// given the register file `regs`, the run's `rs1`/`rs2` register
/// numbers `srcs` (two per pair) and the `h` and `l` that the first
/// pair reads as its `rs3a` and `rs3b`; each later pair reads the
/// results of the one before (see [`IsaExtension::define_pair`]).
/// Written with [`run_chain`].
pub type ChainExec = fn(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> (u64, u64);

/// The body of a [`ChainExec`]: folds `pair` over the `(rs1, rs2)`
/// register numbers in `srcs`, reading their values from `regs` and
/// threading `(h, l)` through as each pair's `rs3a` and `rs3b`. An
/// extension passes a function that returns both of a pair's results,
/// `(rd1, rd2)` from `(rs1, rs2, rs3a, rs3b)`, so the loop is compiled
/// with the pair inlined.
///
/// # Examples
///
/// ```
/// use mpise_sim::ext::run_chain;
/// fn mac(a: u64, b: u64, h: u64, l: u64) -> (u64, u64) {
///     (h + a, l + a * b)
/// }
/// let mut regs = [0; 32];
/// regs[5] = 2;
/// regs[6] = 3;
/// // Two MACs: x5·x6, then x6·x6.
/// assert_eq!(run_chain(mac, &regs, &[5, 6, 6, 6], 0, 1), (5, 16));
/// ```
#[inline(always)]
pub fn run_chain(
    pair: impl Fn(u64, u64, u64, u64) -> (u64, u64),
    regs: &[u64; 32],
    srcs: &[u8],
    mut h: u64,
    mut l: u64,
) -> (u64, u64) {
    for s in srcs.chunks_exact(2) {
        let reg = |r: u8| regs[usize::from(r & 31)];
        (h, l) = pair(reg(s[0]), reg(s[1]), h, l);
    }
    (h, l)
}

/// Error returned when a custom instruction definition conflicts with an
/// already-registered one (same encoding point or same mnemonic/id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictError {
    /// Mnemonic of the instruction that failed to register.
    pub mnemonic: &'static str,
    /// Mnemonic of the already-registered instruction it collides with.
    pub existing: &'static str,
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "custom instruction `{}` conflicts with `{}`",
            self.mnemonic, self.existing
        )
    }
}

impl std::error::Error for ConflictError {}

impl IsaExtension {
    /// Creates an empty extension with a human-readable name.
    pub fn new(name: &'static str) -> Self {
        IsaExtension {
            name,
            defs: Vec::new(),
            id_index: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// The extension's name (e.g. `"Xmpifull"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Registers an instruction definition.
    ///
    /// # Errors
    ///
    /// Returns [`ConflictError`] when the encoding point, mnemonic or id
    /// is already taken within this extension.
    pub fn define(&mut self, def: CustomInstDef) -> Result<(), ConflictError> {
        for d in &self.defs {
            let clash = d.format == def.format || d.mnemonic == def.mnemonic || d.id == def.id;
            if clash {
                return Err(ConflictError {
                    mnemonic: def.mnemonic,
                    existing: d.mnemonic,
                });
            }
        }
        let slot = def.id.0 as usize;
        if self.id_index.len() <= slot {
            self.id_index.resize(slot + 1, 0);
        }
        self.id_index[slot] = self.defs.len() as u32 + 1;
        self.defs.push(def);
        Ok(())
    }

    /// Registers `first` followed by `second` as a pair, with `chain`
    /// as the executor of a run of such pairs. On one pair, `chain`
    /// must return what `first`'s and `second`'s own executors return
    /// for the same operands, and on a run what they return folded over
    /// it: [`run_chain`] over the two.
    ///
    /// # Panics
    ///
    /// Panics if either id is not registered or is not an R4
    /// instruction (a chain executor takes no immediate), or if the
    /// pair is registered already.
    pub fn define_pair(&mut self, first: CustomId, second: CustomId, chain: ChainExec) {
        for id in [first, second] {
            let def = self
                .by_id(id)
                .expect("a pair names registered instructions");
            assert!(def.format.has_rs3(), "`{}` is not R4", def.mnemonic);
        }
        assert!(self.chain(first, second).is_none(), "pair registered twice");
        self.pairs.push((first, second, chain));
    }

    /// The chain executor registered for pairs of `first` followed by
    /// `second`.
    pub fn chain(&self, first: CustomId, second: CustomId) -> Option<ChainExec> {
        self.pairs
            .iter()
            .find(|&&(a, b, _)| (a, b) == (first, second))
            .map(|&(.., chain)| chain)
    }

    /// All instruction definitions in registration order.
    pub fn defs(&self) -> &[CustomInstDef] {
        &self.defs
    }

    /// Looks up a definition by id (constant time — this sits on the
    /// simulator's instruction dispatch path).
    #[inline]
    pub fn by_id(&self, id: CustomId) -> Option<&CustomInstDef> {
        let slot = *self.id_index.get(id.0 as usize)?;
        if slot == 0 {
            None
        } else {
            Some(&self.defs[slot as usize - 1])
        }
    }

    /// Looks up a definition by mnemonic.
    pub fn by_mnemonic(&self, mnemonic: &str) -> Option<&CustomInstDef> {
        self.defs.iter().find(|d| d.mnemonic == mnemonic)
    }

    /// Finds the definition matching a raw 32-bit encoding, if any.
    pub fn match_encoding(&self, raw: u32) -> Option<&CustomInstDef> {
        let opcode = (raw & 0x7f) as u8;
        let funct3 = ((raw >> 12) & 0x7) as u8;
        self.defs.iter().find(|d| match d.format {
            CustomFormat::R4 {
                opcode: op,
                funct3: f3,
                funct2,
            } => op == opcode && f3 == funct3 && ((raw >> 25) & 0x3) as u8 == funct2,
            CustomFormat::RShamt {
                opcode: op,
                funct3: f3,
                bit31,
            } => op == opcode && f3 == funct3 && ((raw >> 31) != 0) == bit31,
        })
    }

    /// Merges another extension's definitions, then its pairs, into
    /// this one.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConflictError`] encountered; definitions
    /// registered before the conflict remain.
    pub fn merge(&mut self, other: &IsaExtension) -> Result<(), ConflictError> {
        for d in other.defs() {
            self.define(d.clone())?;
        }
        for &(first, second, chain) in &other.pairs {
            self.define_pair(first, second, chain);
        }
        Ok(())
    }
}

/// Convenience: encodes the operand fields of a custom instruction into
/// its raw binary form according to `format`.
///
/// Used by both the encoder and the extension crates' tests.
pub fn encode_custom(format: CustomFormat, rd: Reg, rs1: Reg, rs2: Reg, rs3: Reg, imm: u8) -> u32 {
    let rd = rd.number() as u32;
    let rs1 = rs1.number() as u32;
    let rs2 = rs2.number() as u32;
    match format {
        CustomFormat::R4 {
            opcode,
            funct3,
            funct2,
        } => {
            let rs3 = rs3.number() as u32;
            (rs3 << 27)
                | ((funct2 as u32) << 25)
                | (rs2 << 20)
                | (rs1 << 15)
                | ((funct3 as u32) << 12)
                | (rd << 7)
                | opcode as u32
        }
        CustomFormat::RShamt {
            opcode,
            funct3,
            bit31,
        } => {
            ((bit31 as u32) << 31)
                | (((imm & 0x3f) as u32) << 25)
                | (rs2 << 20)
                | (rs1 << 15)
                | ((funct3 as u32) << 12)
                | (rd << 7)
                | opcode as u32
        }
    }
}

/// Extracts `(rd, rs1, rs2, rs3, imm)` from a raw encoding according to
/// `format` (the inverse of [`encode_custom`]).
pub fn decode_custom_operands(format: CustomFormat, raw: u32) -> (Reg, Reg, Reg, Reg, u8) {
    let rd = Reg::from_number(((raw >> 7) & 0x1f) as u8).expect("5-bit field");
    let rs1 = Reg::from_number(((raw >> 15) & 0x1f) as u8).expect("5-bit field");
    let rs2 = Reg::from_number(((raw >> 20) & 0x1f) as u8).expect("5-bit field");
    match format {
        CustomFormat::R4 { .. } => {
            let rs3 = Reg::from_number(((raw >> 27) & 0x1f) as u8).expect("5-bit field");
            (rd, rs1, rs2, rs3, 0)
        }
        CustomFormat::RShamt { .. } => {
            let imm = ((raw >> 25) & 0x3f) as u8;
            (rd, rs1, rs2, Reg::Zero, imm)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(rs1: u64, rs2: u64, rs3: u64, imm: u8) -> u64 {
        rs1 ^ rs2 ^ rs3 ^ u64::from(imm)
    }

    fn r4(funct2: u8) -> CustomFormat {
        CustomFormat::R4 {
            opcode: 0b1111011,
            funct3: 0b111,
            funct2,
        }
    }

    #[test]
    fn define_and_lookup() {
        let mut e = IsaExtension::new("t");
        e.define(CustomInstDef {
            id: CustomId(1),
            mnemonic: "foo",
            format: r4(0),
            exec: dummy,
            unit: ExecUnit::Xmul,
        })
        .unwrap();
        assert!(e.by_id(CustomId(1)).is_some());
        assert!(e.by_mnemonic("foo").is_some());
        assert!(e.by_mnemonic("bar").is_none());
    }

    #[test]
    fn conflicting_encoding_rejected() {
        let mut e = IsaExtension::new("t");
        let mk = |id, m| CustomInstDef {
            id: CustomId(id),
            mnemonic: m,
            format: r4(0),
            exec: dummy,
            unit: ExecUnit::Alu,
        };
        e.define(mk(1, "foo")).unwrap();
        let err = e.define(mk(2, "bar")).unwrap_err();
        assert_eq!(err.existing, "foo");
    }

    #[test]
    fn conflicting_mnemonic_rejected() {
        let mut e = IsaExtension::new("t");
        e.define(CustomInstDef {
            id: CustomId(1),
            mnemonic: "foo",
            format: r4(0),
            exec: dummy,
            unit: ExecUnit::Alu,
        })
        .unwrap();
        let err = e
            .define(CustomInstDef {
                id: CustomId(2),
                mnemonic: "foo",
                format: r4(1),
                exec: dummy,
                unit: ExecUnit::Alu,
            })
            .unwrap_err();
        assert_eq!(err.mnemonic, "foo");
    }

    #[test]
    fn custom_encode_decode_round_trip_r4() {
        let f = r4(0b10);
        let raw = encode_custom(f, Reg::A0, Reg::A1, Reg::A2, Reg::T3, 0);
        assert_eq!(raw & 0x7f, 0b1111011);
        let (rd, rs1, rs2, rs3, imm) = decode_custom_operands(f, raw);
        assert_eq!(
            (rd, rs1, rs2, rs3, imm),
            (Reg::A0, Reg::A1, Reg::A2, Reg::T3, 0)
        );
    }

    #[test]
    fn custom_encode_decode_round_trip_rshamt() {
        let f = CustomFormat::RShamt {
            opcode: 0b0101011,
            funct3: 0b111,
            bit31: true,
        };
        let raw = encode_custom(f, Reg::T0, Reg::T1, Reg::T2, Reg::Zero, 57);
        assert_eq!(raw >> 31, 1);
        let (rd, rs1, rs2, rs3, imm) = decode_custom_operands(f, raw);
        assert_eq!(
            (rd, rs1, rs2, rs3, imm),
            (Reg::T0, Reg::T1, Reg::T2, Reg::Zero, 57)
        );
    }

    #[test]
    fn match_encoding_selects_by_funct2() {
        let mut e = IsaExtension::new("t");
        for (id, m, f2) in [(1u16, "a", 0u8), (2, "b", 1)] {
            e.define(CustomInstDef {
                id: CustomId(id),
                mnemonic: m,
                format: r4(f2),
                exec: dummy,
                unit: ExecUnit::Xmul,
            })
            .unwrap();
        }
        let raw_a = encode_custom(r4(0), Reg::A0, Reg::A1, Reg::A2, Reg::A3, 0);
        let raw_b = encode_custom(r4(1), Reg::A0, Reg::A1, Reg::A2, Reg::A3, 0);
        assert_eq!(e.match_encoding(raw_a).unwrap().mnemonic, "a");
        assert_eq!(e.match_encoding(raw_b).unwrap().mnemonic, "b");
        let raw_c = encode_custom(r4(3), Reg::A0, Reg::A1, Reg::A2, Reg::A3, 0);
        assert!(e.match_encoding(raw_c).is_none());
    }

    #[test]
    fn pairs_are_looked_up_in_order_and_merged() {
        fn pair(rs1: u64, rs2: u64, rs3a: u64, rs3b: u64) -> (u64, u64) {
            (dummy(rs1, rs2, rs3a, 0), dummy(rs1, rs2, rs3b, 0))
        }
        fn chain(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> (u64, u64) {
            run_chain(pair, regs, srcs, h, l)
        }
        let mut a = IsaExtension::new("a");
        for (id, m, f2) in [(1u16, "x", 0u8), (2, "y", 1)] {
            a.define(CustomInstDef {
                id: CustomId(id),
                mnemonic: m,
                format: r4(f2),
                exec: dummy,
                unit: ExecUnit::Xmul,
            })
            .unwrap();
        }
        a.define_pair(CustomId(1), CustomId(2), chain);
        assert!(a.chain(CustomId(1), CustomId(2)).is_some());
        assert!(a.chain(CustomId(2), CustomId(1)).is_none());
        let mut merged = IsaExtension::new("m");
        merged.merge(&a).unwrap();
        let chain = merged.chain(CustomId(1), CustomId(2)).unwrap();
        let mut regs = [0; 32];
        (regs[5], regs[6]) = (3, 12);
        assert_eq!(chain(&regs, &[5, 6], 1, 2), (3 ^ 12 ^ 1, 3 ^ 12 ^ 2));
    }

    #[test]
    fn merge_propagates_conflicts() {
        let mut a = IsaExtension::new("a");
        let mut b = IsaExtension::new("b");
        let mk = |id: u16, m: &'static str, f2| CustomInstDef {
            id: CustomId(id),
            mnemonic: m,
            format: r4(f2),
            exec: dummy,
            unit: ExecUnit::Alu,
        };
        a.define(mk(1, "x", 0)).unwrap();
        b.define(mk(2, "y", 0)).unwrap(); // same encoding point as "x"
        assert!(a.merge(&b).is_err());
    }
}
