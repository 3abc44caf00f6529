//! `obscheck` against the committed corpus of malformed artifacts in
//! `tests/malformed/`: every file must be rejected (exit 1), and for
//! the reason its name gives, so a corpus file cannot pass by failing
//! some other check.

use std::path::Path;
use std::process::Command;

/// Corpus file → a fragment of the diagnostic it must produce.
const CORPUS: &[(&str, &str)] = &[
    ("trailing_comma.json", "expected a member name"),
    ("bad_escape.json", "invalid escape"),
    ("raw_tab.json", "raw control character in string"),
    ("truncated_spans.json", "unexpected end of input"),
    ("wrong_type.json", "`passes` is missing or not Array"),
    (
        "missing_git_commit.json",
        "`provenance.git_commit` is missing",
    ),
    ("unknown_schema.json", "unknown schema \"mpise-obs/v2\""),
    ("trailing_bytes.json", "trailing bytes after the document"),
    ("key_names_only.json", "trailing bytes after the document"),
];

#[test]
fn obscheck_rejects_every_malformed_artifact() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/malformed");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = CORPUS.iter().map(|(f, _)| (*f).to_owned()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "every corpus file has an expected diagnostic"
    );

    for (file, expected) in CORPUS {
        let out = Command::new(env!("CARGO_BIN_EXE_obscheck"))
            .arg(dir.join(file))
            .output()
            .expect("run obscheck");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{file}: {stderr}");
        assert!(stderr.contains(expected), "{file}: {stderr}");
    }
}
