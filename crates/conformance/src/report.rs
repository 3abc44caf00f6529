//! The `mpise-difftest/v1` JSON artifact.
//!
//! One object per gate run, validated by `obscheck` and uploaded from
//! CI like the bench and load artifacts:
//!
//! ```json
//! {
//!   "schema": "mpise-difftest/v1",
//!   "date": "2026-08-07",
//!   "provenance": { "git_commit": "...", ... },
//!   "modes": {
//!     "isa_fuzz": { "programs": 100000, "exts": 3, "failures": [] },
//!     "kernel_difftest": { "combos": 32, "cases": 1234, "failures": [] },
//!     "kat_corpus": { "kat_vectors": 14, "kat_backends": 2,
//!                     "corpus_files": 7, "failures": [] }
//!   },
//!   "pass": true
//! }
//! ```

use mpise_obs::{object, Provenance, Value};

/// Per-mode counters and failures feeding the artifact.
#[derive(Debug, Clone, Default)]
pub(crate) struct GateReport {
    /// Fuzz programs executed across all extension targets.
    pub fuzz_programs: u64,
    /// Extension targets fuzzed.
    pub fuzz_exts: u64,
    /// Fuzz divergences (shrunk listings included in the message).
    pub fuzz_failures: Vec<String>,
    /// Kernel × configuration combinations diffed.
    pub kernel_combos: u64,
    /// Total kernel + field cases diffed.
    pub kernel_cases: u64,
    /// Kernel/field divergences.
    pub kernel_failures: Vec<String>,
    /// KAT vectors checked (summed over backends).
    pub kat_vectors: u64,
    /// Backends the KAT suite ran on.
    pub kat_backends: u64,
    /// Corpus entries replayed.
    pub corpus_files: u64,
    /// KAT/corpus failures.
    pub kat_failures: Vec<String>,
}

impl GateReport {
    /// Whether every mode passed.
    pub(crate) fn pass(&self) -> bool {
        self.fuzz_failures.is_empty()
            && self.kernel_failures.is_empty()
            && self.kat_failures.is_empty()
    }

    /// All failure messages, in mode order.
    pub(crate) fn all_failures(&self) -> impl Iterator<Item = &String> {
        self.fuzz_failures
            .iter()
            .chain(self.kernel_failures.iter())
            .chain(self.kat_failures.iter())
    }

    /// The `mpise-difftest/v1` artifact.
    pub(crate) fn to_json(&self) -> Value {
        let failures = |v: &[String]| v.iter().map(String::as_str).collect::<Value>();
        object! {
            "schema": "mpise-difftest/v1", "date": mpise_obs::time::utc_date_string(),
            "provenance": Provenance::collect().json(),
            "modes": object! {
                "isa_fuzz": object! {
                    "programs": self.fuzz_programs, "exts": self.fuzz_exts,
                    "failures": failures(&self.fuzz_failures),
                },
                "kernel_difftest": object! {
                    "combos": self.kernel_combos, "cases": self.kernel_cases,
                    "failures": failures(&self.kernel_failures),
                },
                "kat_corpus": object! {
                    "kat_vectors": self.kat_vectors, "kat_backends": self.kat_backends,
                    "corpus_files": self.corpus_files, "failures": failures(&self.kat_failures),
                },
            },
            "pass": self.pass(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_has_schema_provenance_and_modes() {
        let parse =
            |r: &GateReport| mpise_obs::json::parse(&r.to_json().to_string()).expect("valid JSON");
        let mut r = GateReport {
            fuzz_programs: 10,
            fuzz_exts: 3,
            ..GateReport::default()
        };
        let j = parse(&r);
        assert_eq!(mpise_obs::json::check_artifact(&j), Ok("mpise-difftest/v1"));
        assert_eq!(j["schema"], Value::from("mpise-difftest/v1"));
        assert!(matches!(j["provenance"]["git_commit"], Value::String(_)));
        assert_eq!(j["modes"]["isa_fuzz"]["programs"], Value::from(10u64));
        assert_eq!(
            j["modes"]["kernel_difftest"]["failures"],
            Value::Array(vec![])
        );
        assert_eq!(j["modes"]["kat_corpus"]["failures"], Value::Array(vec![]));
        assert_eq!(j["pass"], Value::Bool(true));
        r.kernel_failures.push("bad \"thing\"\nline2".to_owned());
        let j = parse(&r);
        assert_eq!(j["pass"], Value::Bool(false));
        assert_eq!(
            j["modes"]["kernel_difftest"]["failures"][0],
            Value::from("bad \"thing\"\nline2")
        );
        r.kat_failures.push("tab\there\u{1}".to_owned());
        assert!(r.to_json().to_string().contains(r#"["tab\there\u0001"]"#));
        assert_eq!(
            parse(&r)["modes"]["kat_corpus"]["failures"],
            ["tab\there\u{1}"].into_iter().collect()
        );
    }
}
