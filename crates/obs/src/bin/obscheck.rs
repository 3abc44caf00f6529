//! `obscheck` — validates exported telemetry and gate artifacts.
//!
//! ```text
//! obscheck <artifact> [artifact ...]
//! ```
//!
//! Arguments are classified by extension. `.prom` files must parse as
//! Prometheus text (non-empty, well-formed sample lines, no duplicate
//! metric families or series). `.json` files must parse as strict
//! RFC 8259 JSON ([`json::parse`]), declare one of the known artifact
//! schemas, and carry that schema's required keys with their types
//! ([`json::check_artifact`], one table for all schemas):
//!
//! * `mpise-obs/v1` — telemetry snapshot (`metrics`, `spans`);
//! * `mpise-bench/v1` — pipeline benchmark (`kernels`, `action`, `gate`);
//! * `mpise-loadgen/v1` — load-generator run (`passes`, `payloads`);
//! * `mpise-difftest/v1` — conformance gate (`modes.*.failures`, `pass`).
//!
//! Every JSON artifact must embed provenance (`provenance.git_commit`
//! and the rest of the block). Exit code 0 = all checks pass, 1 = an
//! artifact is invalid, 2 = usage/IO. CI runs it over every artifact
//! its smoke jobs write.

use mpise_obs::{json, prom};

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    if args.is_empty() {
        eprintln!("usage: obscheck <artifact.prom|artifact.json> ...");
        return 2;
    }
    for path in args {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("obscheck: cannot read {path}: {e}");
                return 2;
            }
        };
        let checked = if path.ends_with(".json") {
            json::parse(&text)
                .and_then(|doc| json::check_artifact(&doc).map(|s| format!("{s} artifact")))
        } else {
            prom::validate(&text).map(|s| format!("{} families, {} samples", s.families, s.samples))
        };
        match checked {
            Ok(summary) => println!("obscheck: {path}: {summary} — OK"),
            Err(e) => {
                eprintln!("obscheck: {path}: INVALID — {e}");
                return 1;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROV: &str =
        r#"{"git_commit": "x", "host": "h", "timestamp": "2026-08-07T00:00:00Z", "unix_secs": 1}"#;

    fn write(dir: &std::path::Path, name: &str, body: &str) -> String {
        let p = dir.join(name);
        std::fs::write(&p, body).expect("write temp artifact");
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn classifies_and_validates_each_schema() {
        let dir = std::env::temp_dir().join(format!("obscheck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let obs = write(
            &dir,
            "obs.json",
            &format!(
                r#"{{"schema": "mpise-obs/v1", "provenance": {PROV},
                    "metrics": [], "spans": {{}}}}"#
            ),
        );
        let diff = write(
            &dir,
            "difftest.json",
            &format!(
                r#"{{"schema": "mpise-difftest/v1", "provenance": {PROV},
                    "modes": {{"isa_fuzz": {{"failures": []}},
                              "kernel_difftest": {{"failures": []}},
                              "kat_corpus": {{"failures": []}}}},
                    "pass": true}}"#
            ),
        );
        let prom = write(&dir, "m.prom", "mpise_test_total 1\n");
        assert_eq!(run(&[prom.clone(), obs.clone(), diff.clone()]), 0);
        // Legacy call shape still works: prom first, snapshot second.
        assert_eq!(run(&[prom, obs]), 0);

        let bad = write(
            &dir,
            "bad.json",
            &format!(
                r#"{{"schema": "mpise-difftest/v1", "provenance": {PROV},
                    "modes": {{"isa_fuzz": {{"failures": []}}}}}}"#
            ),
        );
        assert_eq!(run(&[bad]), 1);
        let unknown = write(&dir, "unknown.json", r#"{"schema": "other/v9"}"#);
        assert_eq!(run(&[unknown]), 1);
        assert_eq!(run(&[]), 2);
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
