//! The `difftest` gate: all three conformance modes in one binary.
//!
//! ```text
//! difftest [--smoke] [--programs N] [--budget-secs S] [--out PATH]
//!          [--corpus DIR] [--vectors DIR]
//! ```
//!
//! Modes, in order:
//!
//! 1. **ISA fuzz** — seeded random programs per extension target
//!    (RV64IM, full-radix ISE, reduced-radix ISE), simulator vs
//!    reference executor, with shrinking on divergence.
//! 2. **Kernel difftest** — all 32 kernel × configuration combos vs
//!    the schoolbook oracle, plus field-level byte diffs.
//! 3. **KAT + corpus** — the committed CSIDH-512 known-answer vectors
//!    on both host backends, and the regression corpus replay.
//!
//! The gate always writes a `mpise-difftest/v1` artifact and exits
//! non-zero on any divergence — wire it next to `ctcheck` in CI.

use crate::corpus;
use crate::fuzz::{self, ExtChoice};
use crate::kat;
use crate::kernel_diff::{self, KernelDiffOutcome};
use crate::report::GateReport;
use mpise_fp::measure::kernel_matrix;
use mpise_fp::{FpFull, FpRed};
use std::time::{Duration, Instant};

/// Deterministic base seed of the gate's fuzz campaign.
pub const DIFFTEST_SEED: u64 = 0xD1FF_7E57;

#[derive(Debug)]
struct Options {
    smoke: bool,
    programs: Option<u64>,
    budget: Option<Duration>,
    out: Option<String>,
    corpus_dir: Option<String>,
    vectors_dir: Option<String>,
}

const USAGE: &str = "usage: difftest [--smoke] [--programs N] [--budget-secs S] [--out PATH]\n\
                \x20                [--corpus DIR] [--vectors DIR]\n\
     --smoke          reduced CI matrix (seeded, fits a ~30s budget)\n\
     --programs N     total fuzz programs across the three extension targets\n\
                      (default 100000, smoke 3000)\n\
     --budget-secs S  stop generating new fuzz programs after S seconds\n\
     --out PATH       artifact path (default DIFFTEST_<utc-date>.json)\n\
     --corpus DIR     regression corpus directory (default tests/corpus)\n\
     --vectors DIR    KAT vector directory (default tests/vectors)";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        smoke: false,
        programs: None,
        budget: None,
        out: None,
        corpus_dir: None,
        vectors_dir: None,
    };
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--programs" => {
                let v = iter.next().ok_or("--programs requires a count")?;
                o.programs = Some(v.parse().map_err(|e| format!("--programs: {e}"))?);
            }
            "--budget-secs" => {
                let v = iter.next().ok_or("--budget-secs requires seconds")?;
                let secs: u64 = v.parse().map_err(|e| format!("--budget-secs: {e}"))?;
                o.budget = Some(Duration::from_secs(secs));
            }
            "--out" => {
                o.out = Some(iter.next().ok_or("--out requires a path")?.clone());
            }
            "--corpus" => {
                o.corpus_dir = Some(iter.next().ok_or("--corpus requires a dir")?.clone());
            }
            "--vectors" => {
                o.vectors_dir = Some(iter.next().ok_or("--vectors requires a dir")?.clone());
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(o)
}

/// Runs the gate. Exit code: 0 = all modes pass, 1 = divergence,
/// 2 = usage or I/O error.
pub fn run_cli(args: &[String]) -> i32 {
    let o = match parse_args(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let deadline = o.budget.map(|b| Instant::now() + b);
    let mut report = GateReport::default();

    // Mode 1: ISA fuzzing, split evenly across the extension targets.
    let total_programs = o.programs.unwrap_or(if o.smoke { 3_000 } else { 100_000 });
    let per_ext = total_programs.div_ceil(ExtChoice::ALL.len() as u64);
    for (i, ext) in ExtChoice::ALL.into_iter().enumerate() {
        let r = fuzz::fuzz(
            ext,
            DIFFTEST_SEED.wrapping_add((i as u64) << 40),
            per_ext,
            deadline,
            3,
        );
        report.fuzz_programs += r.programs;
        report.fuzz_exts += 1;
        for f in &r.failures {
            report.fuzz_failures.push(format!(
                "{} seed {}: {} (shrunk to {} insts)\n{}",
                ext.label(),
                f.seed,
                f.divergence,
                f.shrunk_len,
                f.listing
            ));
        }
        println!(
            "difftest: isa-fuzz {:>17}  {:>6} programs, {} failures",
            ext.label(),
            r.programs,
            r.failures.len()
        );
    }

    // Mode 2: kernel + field difftest.
    let (kernel_cases, field_cases, sim_cases) = if o.smoke { (3, 12, 1) } else { (10, 32, 3) };
    let kd = kernel_diff::merge(
        KernelDiffOutcome::of_matrix(&kernel_matrix(kernel_cases, DIFFTEST_SEED)),
        kernel_diff::run_field_layer(field_cases, sim_cases, DIFFTEST_SEED),
    );
    report.kernel_combos = kd.combos;
    report.kernel_cases = kd.cases;
    report.kernel_failures = kd.failures.clone();
    println!(
        "difftest: kernel-difftest       {} combos, {} cases, {} failures",
        kd.combos,
        kd.cases,
        kd.failures.len()
    );

    // Mode 3: KAT suite on both host backends, then corpus replay.
    let vectors_dir = o
        .vectors_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(kat::default_vectors_dir);
    match kat::load_suite(&vectors_dir) {
        Ok(suite) => {
            for run in [
                kat::run_suite(&FpFull::new(), &suite, "FpFull"),
                kat::run_suite(&FpRed::new(), &suite, "FpRed"),
            ] {
                report.kat_backends += 1;
                report.kat_vectors += run.0;
                report.kat_failures.extend(run.1);
            }
        }
        Err(e) => report.kat_failures.push(format!("KAT suite: {e}")),
    }
    let corpus_dir = o
        .corpus_dir
        .map(std::path::PathBuf::from)
        .unwrap_or_else(corpus::default_corpus_dir);
    match corpus::load_corpus(&corpus_dir) {
        Ok(entries) => {
            let (n, failures) = corpus::replay(&entries);
            report.corpus_files = n;
            report.kat_failures.extend(failures);
        }
        Err(e) => report.kat_failures.push(format!("corpus: {e}")),
    }
    println!(
        "difftest: kat+corpus            {} vectors x {} backends, {} corpus files, {} failures",
        report.kat_vectors / report.kat_backends.max(1),
        report.kat_backends,
        report.corpus_files,
        report.kat_failures.len()
    );

    // Artifact.
    let out_path = o
        .out
        .unwrap_or_else(|| format!("DIFFTEST_{}.json", mpise_obs::time::utc_date_string()));
    if let Err(e) = std::fs::write(&out_path, format!("{}\n", report.to_json())) {
        eprintln!("difftest: cannot write {out_path}: {e}");
        return 2;
    }
    println!("difftest: wrote {out_path}");

    if report.pass() {
        println!("difftest: PASS");
        0
    } else {
        for f in report.all_failures() {
            eprintln!("difftest: FAIL {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_flags_and_prints_usage() {
        assert!(parse_args(&["--bogus".to_owned()]).is_err());
        assert!(parse_args(&["--help".to_owned()])
            .unwrap_err()
            .contains("usage"));
    }

    #[test]
    fn parses_the_full_flag_set() {
        let o = parse_args(&[
            "--smoke".to_owned(),
            "--programs".to_owned(),
            "500".to_owned(),
            "--budget-secs".to_owned(),
            "30".to_owned(),
            "--out".to_owned(),
            "x.json".to_owned(),
        ])
        .unwrap();
        assert!(o.smoke);
        assert_eq!(o.programs, Some(500));
        assert_eq!(o.budget, Some(Duration::from_secs(30)));
        assert_eq!(o.out.as_deref(), Some("x.json"));
    }
}
