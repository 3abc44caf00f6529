//! Run provenance: which commit, host and instant produced an
//! artifact.
//!
//! The `BENCH_<date>.json`, `LOAD_<date>.json` and `mpise-obs/v1`
//! writers embed a [`Provenance`] block so artifacts from different CI
//! runs are comparable: two reports with the same `git_commit` should
//! have byte-identical deterministic sections, and a regression can be
//! bisected by commit rather than by upload date. Everything is
//! collected with std only (the git commit is read straight from
//! `.git/`), and every field degrades to `"unknown"` rather than
//! failing the run.

use crate::json::Value;
use crate::time::{unix_secs, utc_datetime_string};
use std::path::{Path, PathBuf};

/// Where and when an artifact was produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Full git commit hash of the working tree, or `"unknown"`.
    pub git_commit: String,
    /// Hostname, or `"unknown"`.
    pub host: String,
    /// RFC 3339 UTC timestamp (`YYYY-MM-DDTHH:MM:SSZ`).
    pub timestamp: String,
    /// Seconds since the Unix epoch.
    pub unix_secs: u64,
}

impl Provenance {
    /// Collects the provenance of the current process.
    pub fn collect() -> Self {
        let now = unix_secs();
        Provenance {
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_owned()),
            host: hostname().unwrap_or_else(|| "unknown".to_owned()),
            timestamp: utc_datetime_string(now),
            unix_secs: now,
        }
    }

    /// The provenance as a JSON object.
    pub fn json(&self) -> Value {
        crate::object! {
            "git_commit": self.git_commit.as_str(), "host": self.host.as_str(),
            "timestamp": self.timestamp.as_str(), "unix_secs": self.unix_secs,
        }
    }
}

/// Finds the enclosing `.git` directory, walking up from the current
/// working directory.
fn find_git_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Resolves HEAD to a commit hash: detached HEAD holds the hash
/// directly; a symbolic ref is resolved through the loose ref file or
/// `packed-refs`.
fn git_commit() -> Option<String> {
    let git_dir = find_git_dir()?;
    resolve_head(&git_dir)
}

fn resolve_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let reference = match head.strip_prefix("ref: ") {
        None => return is_hash(head).then(|| head.to_owned()),
        Some(r) => r.trim(),
    };
    if let Ok(loose) = std::fs::read_to_string(git_dir.join(reference)) {
        let loose = loose.trim();
        if is_hash(loose) {
            return Some(loose.to_owned());
        }
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    for line in packed.lines() {
        if let Some((hash, name)) = line.split_once(' ') {
            if name.trim() == reference && is_hash(hash) {
                return Some(hash.to_owned());
            }
        }
    }
    None
}

fn is_hash(s: &str) -> bool {
    s.len() >= 40 && s.chars().all(|c| c.is_ascii_hexdigit())
}

fn hostname() -> Option<String> {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return Some(h);
        }
    }
    for path in ["/proc/sys/kernel/hostname", "/etc/hostname"] {
        if let Ok(h) = std::fs::read_to_string(path) {
            let h = h.trim().to_owned();
            if !h.is_empty() {
                return Some(h);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_never_fails() {
        let p = Provenance::collect();
        assert!(!p.git_commit.is_empty());
        assert!(!p.host.is_empty());
        assert!(p.timestamp.ends_with('Z'));
        assert!(p.unix_secs > 1_600_000_000, "clock is past 2020");
    }

    #[test]
    fn git_commit_is_a_hash_in_a_checkout_and_unknown_outside() {
        // When HEAD resolves the commit is a real hash. In an export
        // without `.git` (e.g. `git archive`), and in a fresh `git init`
        // whose HEAD names a branch with no commit yet, `collect` falls
        // back to the documented "unknown".
        let collected = Provenance::collect().git_commit;
        match git_commit() {
            Some(commit) => {
                assert!(
                    commit.len() == 40 && is_hash(&commit),
                    "{commit} is not a 40-hex hash"
                );
                assert_eq!(collected, commit);
            }
            None => assert_eq!(collected, "unknown"),
        }
    }

    #[test]
    fn resolve_head_reads_detached_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("mpise-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        let write = |path: &str, text: String| std::fs::write(dir.join(path), text).unwrap();
        let (packed, loose) = ("0123456789abcdef".repeat(3), "fedcba9876543210".repeat(3));
        write("HEAD", format!("{packed}\n"));
        assert_eq!(resolve_head(&dir), Some(packed.clone()), "detached");
        write("HEAD", "ref: refs/heads/main\n".to_owned());
        assert_eq!(resolve_head(&dir), None, "unborn branch, no packed-refs");
        write(
            "packed-refs",
            format!("# pack-refs\n{packed} refs/heads/main\n"),
        );
        assert_eq!(resolve_head(&dir), Some(packed), "packed ref");
        write("refs/heads/main", format!("{loose}\n"));
        assert_eq!(resolve_head(&dir), Some(loose), "loose ref first");
        write("HEAD", "ref: refs/heads/gone\n".to_owned());
        assert_eq!(resolve_head(&dir), None, "branch in neither place");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_escapes_and_shapes() {
        let host = "a\"b\tc\nd\re\u{1}";
        let p = Provenance {
            git_commit: "abc".to_owned(),
            host: host.to_owned(),
            timestamp: "2026-08-07T00:00:00Z".to_owned(),
            unix_secs: 1,
        };
        let text = p.json().to_string();
        assert!(text.contains(r#""host": "a\"b\tc\nd\re\u0001""#));
        let j = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(j["git_commit"], Value::from("abc"));
        assert_eq!(j["host"], Value::from(host));
        assert_eq!(j["unix_secs"], Value::from(1u64));
    }
}
