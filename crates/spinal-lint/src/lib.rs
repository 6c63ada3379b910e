//! Workspace-invariant lint pass.
//!
//! `cargo run -p spinal-lint` scans every `.rs` file in the workspace
//! (excluding `target/`, `.git/`, and this crate's own fixture corpus)
//! for repo-specific invariants that `clippy` cannot express:
//!
//! * **`float-partial-cmp`** — naked `.partial_cmp(` calls. Float
//!   comparators must use `total_cmp` (NaN-total ordering); a NaN fed
//!   to a `partial_cmp(..).unwrap()` sort is a runtime panic in the
//!   decode hot path.
//! * **`thread-spawn`** — `std::thread` spawning outside the decode
//!   engine and the compat/check infrastructure. Ad-hoc threads evade
//!   the engine's worker accounting and the concurrency checker.
//! * **`panicky-wire-path`** — `unwrap`/`expect`/`panic!`-family
//!   macros and panicking indexing in the spinal-net wire-decode and
//!   receiver datagram paths. Those paths parse hostile network input
//!   and must degrade, not abort.
//! * **`abort-unwind-containment`** — `std::process::abort` anywhere
//!   (the seed engine aborted the whole process when a worker
//!   panicked; an attempt must resolve as a `DecodeFailure` instead),
//!   and `catch_unwind`/`resume_unwind` outside the engine's worker
//!   isolation and the check/compat harness infrastructure. Panic
//!   containment anywhere else hides bugs the engine is designed to
//!   surface as structured failures.
//! * **`unsafe-outside-whitelist`** — `unsafe` anywhere outside the
//!   whitelist (currently empty: the tree is 100% safe Rust), and in
//!   whitelisted modules every `unsafe` needs a `// SAFETY:` comment
//!   within the three preceding lines.
//! * **`missing-forbid-unsafe`** — every `lib.rs` must carry
//!   `#![forbid(unsafe_code)]`.
//!
//! Findings print as `file:line: [rule] message`, or as a JSON document
//! with `--json`. A single site can opt out with an inline
//! `// lint: allow(rule-name)` comment on the offending line or the
//! line above — greppable, reviewable escapes instead of config files.
//!
//! The scanner is textual (comments, strings and `#[cfg(test)]` module
//! bodies are masked out before matching), which keeps it dependency-
//! free and fast; the fixture corpus under `fixtures/` pins its
//! behavior on known-bad inputs.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Help text for the CLI.
pub const USAGE: &str = "usage: spinal-lint [--root <dir>] [--json]\n\
  --root <dir>  workspace root to scan (default: this workspace)\n\
  --json        machine-readable output";

/// Path prefixes allowed to spawn OS threads: the engine's worker
/// pool, the sim sweep's scoped workers, vendored shims, and the
/// checker's own fixtures/harnesses.
const SPAWN_ALLOW: &[&str] = &[
    "crates/spinal-core/src/engine.rs",
    "crates/spinal-sim/src/sweep.rs",
    "crates/compat/",
    "crates/spinal-check/",
];

/// Hostile-input paths held to the no-panic rule.
const PANICKY_PATHS: &[&str] = &[
    "crates/spinal-net/src/wire.rs",
    "crates/spinal-net/src/receiver.rs",
    "crates/spinal-net/src/chaos.rs",
];

/// The only paths allowed to contain panic-containment primitives
/// (`catch_unwind` / `resume_unwind`): the engine's worker isolation —
/// which converts a panic into `DecodeFailure::WorkerPanicked` and
/// respawns the worker — and the check/compat harnesses that must
/// observe panics without dying. `std::process::abort` is allowed
/// nowhere: that is exactly the abort-on-panic pattern this repo
/// removed.
const UNWIND_ALLOW: &[&str] = &[
    "crates/spinal-core/src/engine.rs",
    "crates/spinal-check/",
    "crates/compat/",
];

/// Modules allowed to contain `unsafe` (each use still needs a
/// `// SAFETY:` comment). Currently empty — the tree is all safe Rust;
/// grow this list consciously.
const UNSAFE_ALLOW: &[&str] = &[];

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule slug, e.g. `float-partial-cmp`.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.file, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// Scan the workspace rooted at `root` without printing. Returns the
/// sorted findings and the number of files scanned.
pub fn scan_workspace(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for f in &files {
        let src = fs::read_to_string(f)?;
        let rel = rel_path(root, f);
        findings.extend(scan_source(&rel, &src));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok((findings, files.len()))
}

/// Scan the workspace rooted at `root` and print findings (human or
/// JSON). Returns the findings for the caller's exit-status decision.
pub fn run(root: &Path, json: bool) -> io::Result<Vec<Finding>> {
    let (findings, files) = scan_workspace(root)?;
    if json {
        println!("{}", to_json(&findings));
    } else if findings.is_empty() {
        println!("spinal-lint: clean ({files} files)");
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "spinal-lint: {} finding(s) in {files} files",
            findings.len()
        );
    }
    Ok(findings)
}

fn rel_path(root: &Path, f: &Path) -> String {
    f.strip_prefix(root)
        .unwrap_or(f)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            // The known-bad corpus is scanned by its own tests, never
            // by the workspace pass.
            if name == "fixtures" && rel_path(root, &path).starts_with("crates/spinal-lint") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan one file's source. `rel` is the workspace-relative path used
/// for rule scoping; fixture files (under a `fixtures/` directory) are
/// treated as eligible for every path-scoped rule so the corpus can
/// exercise all of them.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let stripped = strip_noncode(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    let code_lines: Vec<&str> = stripped.lines().collect();
    let test_mask = test_line_mask(&stripped, code_lines.len());
    let is_fixture = rel.contains("fixtures/");
    let in_tests_dir = rel.contains("/tests/") || rel.starts_with("tests/");
    let mut out = Vec::new();

    let allowed = |rule: &str, line_no: usize| -> bool {
        // `// lint: allow(rule)` on the line or the line above.
        let pat = format!("lint: allow({rule})");
        let here = raw_lines.get(line_no - 1).is_some_and(|l| l.contains(&pat));
        let above = line_no >= 2 && raw_lines[line_no - 2].contains(&pat);
        here || above
    };

    let mut push = |rule: &'static str, line_no: usize, message: String| {
        if allowed(rule, line_no) {
            return;
        }
        out.push(Finding {
            rule,
            file: rel.to_string(),
            line: line_no,
            message,
            excerpt: raw_lines
                .get(line_no - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };

    for (idx, line) in code_lines.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = test_mask[idx] || in_tests_dir;

        // -- float-partial-cmp ----------------------------------------
        if line.contains(".partial_cmp(") {
            push(
                "float-partial-cmp",
                line_no,
                "naked partial_cmp; use total_cmp for floats (NaN-total, no unwrap)".into(),
            );
        }

        // -- thread-spawn ---------------------------------------------
        let spawn_ok = SPAWN_ALLOW.iter().any(|p| rel.starts_with(p)) && !is_fixture;
        if !spawn_ok
            && !in_test
            && (line.contains("thread::spawn") || line.contains("thread::Builder"))
        {
            push(
                "thread-spawn",
                line_no,
                "OS thread creation outside the engine/compat whitelist".into(),
            );
        }

        // -- panicky-wire-path ----------------------------------------
        let hot_path = PANICKY_PATHS.contains(&rel) || is_fixture;
        if hot_path && !in_test {
            for pat in [
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ] {
                if line.contains(pat) {
                    push(
                        "panicky-wire-path",
                        line_no,
                        format!(
                            "`{}` in a hostile-input path; return an error/None instead",
                            pat.trim_matches(|c| c == '.' || c == '(')
                        ),
                    );
                }
            }
            // One finding per line is enough for indexing.
            if !indexing_sites(line).is_empty() {
                push(
                    "panicky-wire-path",
                    line_no,
                    "panicking index/slice in a hostile-input path; use .get()/.get_mut()".into(),
                );
            }
        }

        // -- abort-unwind-containment ---------------------------------
        if line.contains("process::abort") {
            push(
                "abort-unwind-containment",
                line_no,
                "process::abort tears down every in-flight session; \
                 resolve the attempt as a DecodeFailure instead"
                    .into(),
            );
        }
        let unwind_ok = UNWIND_ALLOW.iter().any(|p| rel.starts_with(p)) && !is_fixture;
        if !unwind_ok
            && !in_test
            && (line.contains("catch_unwind") || line.contains("resume_unwind"))
        {
            push(
                "abort-unwind-containment",
                line_no,
                "panic containment outside the engine whitelist \
                 (UNWIND_ALLOW in spinal-lint); let the engine isolate panics"
                    .into(),
            );
        }

        // -- unsafe-outside-whitelist ---------------------------------
        if contains_word(line, "unsafe") {
            let whitelisted = UNSAFE_ALLOW.iter().any(|p| rel.starts_with(p));
            if !whitelisted {
                push(
                    "unsafe-outside-whitelist",
                    line_no,
                    "unsafe outside the whitelist (UNSAFE_ALLOW in spinal-lint)".into(),
                );
            } else {
                let lo = idx.saturating_sub(3);
                let documented = raw_lines[lo..=idx.min(raw_lines.len() - 1)]
                    .iter()
                    .any(|l| l.contains("SAFETY:"));
                if !documented {
                    push(
                        "unsafe-outside-whitelist",
                        line_no,
                        "whitelisted unsafe without a `// SAFETY:` comment".into(),
                    );
                }
            }
        }
    }

    // -- missing-forbid-unsafe ----------------------------------------
    if rel.ends_with("lib.rs") && !src.contains("#![forbid(unsafe_code)]") {
        push(
            "missing-forbid-unsafe",
            1,
            "lib.rs without `#![forbid(unsafe_code)]`".into(),
        );
    }

    out
}

/// Byte positions of `[` that look like panicking index/slice
/// expressions: `[` directly preceded by an identifier char, `)`, or
/// `]`. Attribute (`#[`), macro (`vec![`) and type (`: [u8; 4]`)
/// brackets are all preceded by other characters.
fn indexing_sites(line: &str) -> Vec<usize> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let p = bytes[i - 1];
        if p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']' {
            out.push(i);
        }
    }
    out
}

fn contains_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let mut from = 0;
    while let Some(p) = line[from..].find(word) {
        let start = from + p;
        let end = start + word.len();
        let pre_ok = start == 0 || !(b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_');
        let post_ok = end >= b.len() || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Lines (0-based mask) inside `#[cfg(test)] mod … { … }` regions of
/// already-stripped source.
fn test_line_mask(stripped: &str, n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    let bytes = stripped.as_bytes();
    let mut search_from = 0;
    while let Some(p) = stripped[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + p;
        search_from = attr_at + 1;
        // Find the `{` that opens the following item (allow more
        // attributes / the mod header in between, but give up if a
        // semicolon ends the item first — e.g. `#[cfg(test)] mod x;`).
        let mut i = attr_at + "#[cfg(test)]".len();
        let open = loop {
            match bytes.get(i) {
                Some(b'{') => break Some(i),
                Some(b';') | None => break None,
                _ => i += 1,
            }
        };
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut close = bytes.len();
        for (j, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        let line_of = |pos: usize| stripped[..pos].bytes().filter(|&b| b == b'\n').count();
        let (lo, hi) = (
            line_of(attr_at),
            line_of(close).min(n_lines.saturating_sub(1)),
        );
        for m in mask.iter_mut().take(hi + 1).skip(lo) {
            *m = true;
        }
    }
    mask
}

/// Replace comments, string/char literal contents and raw strings with
/// spaces, preserving line structure, so pattern matching only sees
/// code.
fn strip_noncode(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        // line comment
        if c == '/' && b.get(i + 1) == Some(&'/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // block comment (nestable)
        if c == '/' && b.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < b.len() {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // raw string: r"…", r#"…"#, br"…" (ident chars before r/b
        // mean this is just part of an identifier)
        let ident_before = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
        if !ident_before && (c == 'r' || (c == 'b' && b.get(i + 1) == Some(&'r'))) {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0;
            while b.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&'"') {
                // emit spaces for prefix + opening quote
                for _ in i..=j {
                    out.push(' ');
                }
                i = j + 1;
                // scan to closing quote + hashes
                'raw: while i < b.len() {
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hashes && b.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            for _ in 0..=hashes {
                                out.push(' ');
                            }
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        // plain / byte string
        if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"') && !ident_before) {
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            out.push(' '); // opening quote
            i += 1;
            while i < b.len() {
                if b[i] == '\\' {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // char literal vs lifetime
        if c == '\'' {
            let is_char = matches!(
                (b.get(i + 1), b.get(i + 2)),
                (Some('\\'), _) | (Some(_), Some('\''))
            );
            if is_char {
                out.push(' ');
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if b[i] == '\'' {
                        out.push(' ');
                        i += 1;
                        break;
                    }
                    out.push(blank(b[i]));
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"excerpt\":\"{}\"}}",
            f.rule,
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            json_escape(&f.excerpt)
        ));
    }
    s.push_str(&format!("],\"count\":{}}}", findings.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_masks_comments_and_strings() {
        let src = "let a = \"x.partial_cmp(y)\"; // .partial_cmp(\nlet b = 1;\n";
        let s = strip_noncode(src);
        assert!(!s.contains("partial_cmp"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let src = "let a = r#\"panic!(\"#; let c = '\"'; let lt: &'static str = x;\n";
        let s = strip_noncode(src);
        assert!(!s.contains("panic!"));
        assert!(s.contains("'static"));
    }

    #[test]
    fn partial_cmp_flagged_and_allow_escape_works() {
        let bad = "v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert_eq!(scan_source("crates/x/src/a.rs", bad).len(), 1);
        let ok =
            "// lint: allow(float-partial-cmp)\nv.sort_by(|a, b| a.partial_cmp(b).unwrap());\n";
        assert!(scan_source("crates/x/src/a.rs", ok).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_masked_for_spawn() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::spawn(|| {}); }\n}\n";
        assert!(scan_source("crates/x/src/a.rs", src).is_empty());
        let live = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(scan_source("crates/x/src/a.rs", live).len(), 1);
    }

    #[test]
    fn indexing_heuristic_distinguishes_brackets() {
        assert!(indexing_sites("#[derive(Debug)]").is_empty());
        assert!(indexing_sites("let x = buf[i];").len() == 1);
        assert!(indexing_sites("let t: [u8; 4] = y;").is_empty());
        assert!(indexing_sites("vec![1, 2]").is_empty());
        assert!(indexing_sites("&bytes[..n]").len() == 1);
    }

    #[test]
    fn abort_is_flagged_even_in_the_unwind_whitelist() {
        let src = "fn die() { std::process::abort(); }\n";
        assert_eq!(
            scan_source("crates/spinal-core/src/engine.rs", src).len(),
            1
        );
    }

    #[test]
    fn catch_unwind_is_scoped_to_the_engine_whitelist() {
        let unwind_hits = |rel: &str, src: &str| {
            scan_source(rel, src)
                .into_iter()
                .filter(|f| f.rule == "abort-unwind-containment")
                .count()
        };
        let src = "let r = std::panic::catch_unwind(|| work());\n";
        assert_eq!(unwind_hits("crates/spinal-net/src/sender.rs", src), 1);
        assert_eq!(unwind_hits("crates/spinal-core/src/engine.rs", src), 0);
        assert_eq!(unwind_hits("crates/spinal-check/src/sched.rs", src), 0);
        assert_eq!(unwind_hits("crates/compat/parking_lot/src/lib.rs", src), 0);
        // Test code may observe panics (assert_panics-style helpers).
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = std::panic::catch_unwind(|| {}); }\n}\n";
        assert!(scan_source("crates/spinal-net/src/sender.rs", in_test).is_empty());
    }

    #[test]
    fn lib_rs_requires_forbid() {
        assert_eq!(
            scan_source("crates/x/src/lib.rs", "pub fn f() {}\n").len(),
            1
        );
        assert!(scan_source(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n"
        )
        .is_empty());
    }
}
