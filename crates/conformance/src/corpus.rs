//! Regression corpus of differential ISA programs.
//!
//! Each file under `tests/corpus/` is one program that once exposed a
//! divergence risk (carry chains, wrap-around, delayed 57-bit carries,
//! x0 discarding, control flow over memory ops). The gate replays every
//! file through the simulator/reference lockstep diff on every run.
//!
//! File format (line-oriented, `#` comments):
//!
//! ```text
//! ext: full            # full | red | none
//! init t0 = 0xffffffffffffffff
//! init s10 = data+0x00 # data+OFF means DATA_BASE + OFF
//! prog:
//!     maddlu a0, t0, t1, a2
//!     ebreak
//! ```
//!
//! The program section is parsed with the repo assembler (custom
//! mnemonics resolve through the chosen extension), so corpus files
//! read exactly like kernel listings.

use crate::fuzz::{DiffRunner, ExtChoice};
use mpise_sim::asm::parse_program;
use mpise_sim::machine::DATA_BASE;
use mpise_sim::Reg;

/// One parsed corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// File stem, for reporting.
    pub name: String,
    /// Extension the program targets.
    pub ext: ExtChoice,
    /// Initial register values.
    pub init: Vec<(Reg, u64)>,
    /// The program (must end in `ebreak`).
    pub insts: Vec<mpise_sim::Inst>,
}

fn reg_by_name(name: &str) -> Option<Reg> {
    Reg::ALL.into_iter().find(|r| r.to_string() == name)
}

fn parse_value(s: &str) -> Result<u64, String> {
    if let Some(off) = s.strip_prefix("data+") {
        let off = parse_value(off)?;
        return Ok(DATA_BASE + off);
    }
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
    } else {
        s.parse::<u64>()
            .map_err(|e| format!("bad value `{s}`: {e}"))
    }
}

/// Parses one corpus file.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_entry(name: &str, src: &str) -> Result<CorpusEntry, String> {
    let mut ext = ExtChoice::Base;
    let mut init = Vec::new();
    let mut prog_lines: Vec<&str> = Vec::new();
    let mut in_prog = false;
    for line in src.lines() {
        let trimmed = line.trim();
        if in_prog {
            prog_lines.push(line);
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "prog:" {
            in_prog = true;
        } else if let Some(tag) = trimmed.strip_prefix("ext:") {
            let tag = tag.trim();
            ext = ExtChoice::ALL
                .into_iter()
                .find(|e| e.tag() == tag)
                .ok_or_else(|| format!("{name}: unknown ext `{tag}`"))?;
        } else if let Some(rest) = trimmed.strip_prefix("init ") {
            let (reg, val) = rest
                .split_once('=')
                .ok_or_else(|| format!("{name}: bad init line `{trimmed}`"))?;
            let reg = reg_by_name(reg.trim())
                .ok_or_else(|| format!("{name}: unknown register `{}`", reg.trim()))?;
            init.push((reg, parse_value(val.trim())?));
        } else {
            return Err(format!("{name}: unexpected line `{trimmed}`"));
        }
    }
    if prog_lines.is_empty() {
        return Err(format!("{name}: missing prog: section"));
    }
    let program = parse_program(&prog_lines.join("\n"), &ext.extension())
        .map_err(|e| format!("{name}: {e}"))?;
    let insts = program.insts().to_vec();
    if !matches!(insts.last(), Some(mpise_sim::Inst::Ebreak)) {
        return Err(format!("{name}: program must end with ebreak"));
    }
    Ok(CorpusEntry {
        name: name.to_owned(),
        ext,
        init,
        insts,
    })
}

/// Loads every `.txt` file in a corpus directory, sorted by name.
///
/// # Errors
///
/// Returns a description when the directory is unreadable or any file
/// is malformed — a broken corpus must fail the gate, not skip.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<CorpusEntry>, String> {
    let mut names: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| {
            let stem = p
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("corpus")
                .to_owned();
            let src = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_entry(&stem, &src)
        })
        .collect()
}

/// The committed corpus directory (`tests/corpus/` at the workspace
/// root), resolved relative to this crate at compile time.
pub fn default_corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Replays every entry; returns (entries replayed, failures).
pub fn replay(entries: &[CorpusEntry]) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    for entry in entries {
        let mut runner = DiffRunner::new(entry.ext);
        if let Some(d) = runner.run_insts(&entry.insts, &entry.init, &[]) {
            failures.push(format!("corpus {}: {d}", entry.name));
        }
    }
    (entries.len() as u64, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_entry() {
        let src = "ext: full\ninit t0 = 0xff\ninit s10 = data+0x10\nprog:\n    add a0, t0, t0\n    ebreak\n";
        let e = parse_entry("mini", src).unwrap();
        assert_eq!(e.ext, ExtChoice::FullRadix);
        assert_eq!(e.init[0], (Reg::T0, 0xff));
        assert_eq!(e.init[1], (Reg::S10, DATA_BASE + 0x10));
        assert_eq!(e.insts.len(), 2);
    }

    #[test]
    fn rejects_missing_ebreak_and_bad_lines() {
        assert!(parse_entry("x", "prog:\n    add a0, a1, a2\n").is_err());
        assert!(parse_entry("x", "bogus\nprog:\n    ebreak\n").is_err());
        assert!(parse_entry("x", "ext: weird\nprog:\n    ebreak\n").is_err());
    }

    #[test]
    fn committed_corpus_replays_clean() {
        let entries = load_corpus(&default_corpus_dir()).expect("committed corpus parses");
        assert!(entries.len() >= 5, "corpus has at least 5 entries");
        let (n, failures) = replay(&entries);
        assert_eq!(n as usize, entries.len());
        assert!(failures.is_empty(), "{failures:?}");
    }
}
