//! General-purpose register names for the RV64 integer register file.

use std::fmt;
use std::str::FromStr;

/// One of the 32 general-purpose integer registers of RV64.
///
/// The enum discriminants equal the architectural register numbers, so
/// `Reg::A0 as u8 == 10`. Register `x0` ([`Reg::Zero`]) is hard-wired to
/// zero; writes to it are discarded by the simulator.
///
/// # Examples
///
/// ```
/// use mpise_sim::Reg;
/// assert_eq!(Reg::A0.number(), 10);
/// assert_eq!(Reg::from_number(10), Some(Reg::A0));
/// assert_eq!("t3".parse::<Reg>().unwrap(), Reg::T3);
/// assert_eq!(Reg::S11.to_string(), "s11");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Reg {
    /// `x0`: hard-wired zero.
    Zero = 0,
    /// `x1`: return address.
    Ra = 1,
    /// `x2`: stack pointer.
    Sp = 2,
    /// `x3`: global pointer.
    Gp = 3,
    /// `x4`: thread pointer.
    Tp = 4,
    /// `x5`: temporary 0.
    T0 = 5,
    /// `x6`: temporary 1.
    T1 = 6,
    /// `x7`: temporary 2.
    T2 = 7,
    /// `x8`: saved register 0 / frame pointer.
    S0 = 8,
    /// `x9`: saved register 1.
    S1 = 9,
    /// `x10`: argument/return 0.
    A0 = 10,
    /// `x11`: argument/return 1.
    A1 = 11,
    /// `x12`: argument 2.
    A2 = 12,
    /// `x13`: argument 3.
    A3 = 13,
    /// `x14`: argument 4.
    A4 = 14,
    /// `x15`: argument 5.
    A5 = 15,
    /// `x16`: argument 6.
    A6 = 16,
    /// `x17`: argument 7.
    A7 = 17,
    /// `x18`: saved register 2.
    S2 = 18,
    /// `x19`: saved register 3.
    S3 = 19,
    /// `x20`: saved register 4.
    S4 = 20,
    /// `x21`: saved register 5.
    S5 = 21,
    /// `x22`: saved register 6.
    S6 = 22,
    /// `x23`: saved register 7.
    S7 = 23,
    /// `x24`: saved register 8.
    S8 = 24,
    /// `x25`: saved register 9.
    S9 = 25,
    /// `x26`: saved register 10.
    S10 = 26,
    /// `x27`: saved register 11.
    S11 = 27,
    /// `x28`: temporary 3.
    T3 = 28,
    /// `x29`: temporary 4.
    T4 = 29,
    /// `x30`: temporary 5.
    T5 = 30,
    /// `x31`: temporary 6.
    T6 = 31,
}

impl Reg {
    /// All 32 registers in architectural order (`x0` through `x31`).
    pub const ALL: [Reg; 32] = [
        Reg::Zero,
        Reg::Ra,
        Reg::Sp,
        Reg::Gp,
        Reg::Tp,
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::S0,
        Reg::S1,
        Reg::A0,
        Reg::A1,
        Reg::A2,
        Reg::A3,
        Reg::A4,
        Reg::A5,
        Reg::A6,
        Reg::A7,
        Reg::S2,
        Reg::S3,
        Reg::S4,
        Reg::S5,
        Reg::S6,
        Reg::S7,
        Reg::S8,
        Reg::S9,
        Reg::S10,
        Reg::S11,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
    ];

    /// Returns the architectural register number (0–31).
    #[inline]
    pub const fn number(self) -> u8 {
        self as u8
    }

    /// Returns the register with the given architectural number, or
    /// `None` when `n > 31`.
    #[inline]
    pub const fn from_number(n: u8) -> Option<Reg> {
        if n < 32 {
            Some(Reg::ALL[n as usize])
        } else {
            None
        }
    }

    /// The ABI mnemonic of the register (e.g. `"a0"`, `"s11"`).
    pub const fn abi_name(self) -> &'static str {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        NAMES[self as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Error returned when parsing a register name fails.
///
/// Produced by [`Reg::from_str`]; the offending name is carried for
/// diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError(pub String);

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.0)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    /// Parses either an ABI name (`a0`, `t3`, `fp`) or a numeric name
    /// (`x0`–`x31`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "fp" {
            return Ok(Reg::S0);
        }
        if let Some(rest) = s.strip_prefix('x') {
            if let Ok(n) = rest.parse::<u8>() {
                if let Some(r) = Reg::from_number(n) {
                    return Ok(r);
                }
            }
        }
        Reg::ALL
            .iter()
            .copied()
            .find(|r| r.abi_name() == s)
            .ok_or_else(|| ParseRegError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.number() as usize, i);
            assert_eq!(Reg::from_number(i as u8), Some(*r));
        }
        assert_eq!(Reg::from_number(32), None);
        assert_eq!(Reg::from_number(255), None);
    }

    #[test]
    fn abi_names_round_trip() {
        for r in Reg::ALL {
            assert_eq!(r.abi_name().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        assert_eq!("x0".parse::<Reg>().unwrap(), Reg::Zero);
        assert_eq!("x31".parse::<Reg>().unwrap(), Reg::T6);
        assert!("x32".parse::<Reg>().is_err());
        assert!("q7".parse::<Reg>().is_err());
    }

    #[test]
    fn fp_aliases_s0() {
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::S0);
    }

    #[test]
    fn display_matches_abi_name() {
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(format!("{}", Reg::Zero), "zero");
    }
}
