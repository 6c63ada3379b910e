//! The lint's behavior is pinned two ways: every known-bad fixture in
//! `fixtures/` must be flagged under its expected rule, and the real
//! workspace must scan clean.

use spinal_lint::{scan_source, scan_workspace, Finding};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/spinal-lint has a workspace root two levels up")
        .to_path_buf()
}

fn scan_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    scan_source(&format!("crates/spinal-lint/fixtures/{name}"), &src)
}

fn rule_lines(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn float_cmp_fixture_is_flagged() {
    let f = scan_fixture("float_cmp.rs");
    assert_eq!(rule_lines(&f, "float-partial-cmp").len(), 1, "{f:#?}");
}

#[test]
fn thread_spawn_fixture_is_flagged() {
    let f = scan_fixture("thread_spawn.rs");
    let hits = rule_lines(&f, "thread-spawn");
    assert_eq!(hits.len(), 2, "{f:#?}");
    // The #[cfg(test)] module's spawn is masked.
    assert!(
        hits.iter().all(|&l| l < 11),
        "test-module spawn flagged: {f:#?}"
    );
}

#[test]
fn panicky_wire_fixture_is_flagged() {
    let f = scan_fixture("panicky_wire.rs");
    let hits = rule_lines(&f, "panicky-wire-path");
    // buf[0]; buf[1..3] + unwrap (2 on one line); expect; panic!.
    assert!(hits.len() >= 5, "{f:#?}");
    let findings_named: Vec<&str> = f
        .iter()
        .filter(|f| f.rule == "panicky-wire-path")
        .map(|f| f.message.as_str())
        .collect();
    assert!(
        findings_named.iter().any(|m| m.contains("index")),
        "no indexing finding: {f:#?}"
    );
    assert!(
        findings_named.iter().any(|m| m.contains("unwrap")),
        "no unwrap finding: {f:#?}"
    );
}

#[test]
fn abort_unwind_fixture_is_flagged() {
    let f = scan_fixture("abort_unwind.rs");
    let hits = rule_lines(&f, "abort-unwind-containment");
    // abort; catch_unwind; resume_unwind — nothing for the comment,
    // the string literal, or the #[cfg(test)] module's catch_unwind.
    assert_eq!(hits, vec![7, 11, 15], "{f:#?}");
    assert!(
        f.iter()
            .filter(|f| f.rule == "abort-unwind-containment")
            .any(|f| f.message.contains("abort")),
        "no abort-specific message: {f:#?}"
    );
}

#[test]
fn unsafe_fixture_is_flagged() {
    let f = scan_fixture("unsafe_code.rs");
    let hits = rule_lines(&f, "unsafe-outside-whitelist");
    // The SAFETY comment does not rescue a non-whitelisted file.
    assert_eq!(hits.len(), 2, "{f:#?}");
}

#[test]
fn bad_lib_fixture_is_flagged() {
    let f = scan_fixture("bad_lib.rs");
    assert_eq!(rule_lines(&f, "missing-forbid-unsafe"), vec![1], "{f:#?}");
}

#[test]
fn workspace_scans_clean() {
    let root = workspace_root();
    let (findings, files) = scan_workspace(&root).expect("workspace scan");
    assert!(
        files > 30,
        "scan found only {files} files — wrong root? {}",
        root.display()
    );
    assert!(
        findings.is_empty(),
        "workspace not lint-clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
