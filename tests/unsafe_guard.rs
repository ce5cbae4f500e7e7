//! Guard: the library stays free of `unsafe`.
//!
//! Walks every `.rs` file under `crates/*/src` and fails if the keyword
//! `unsafe` appears in code. The checksum kernel (`crates/core/src/util.rs`)
//! is the place that would have needed it — the CPU's `crc32` instruction is
//! reachable only through an `unsafe` call — and is slicing-by-8 in safe code
//! instead (DESIGN.md §6). Comments may say "unsafe" — several engines
//! document a torn-page-unsafe baseline mode — so `//` comments are cut off
//! before the search; the keyword inside a string literal would still trip
//! the guard, which errs on the loud side.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Does `line`, with any `//` comment cut off, use `unsafe` as a word?
fn uses_unsafe(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    code.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|word| word == "unsafe")
}

#[test]
fn no_unsafe_under_crates_src() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked only {} files: wrong directory?", sources.len());

    let mut violations = Vec::new();
    for path in &sources {
        let rel = path.strip_prefix(root).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        for (lineno, line) in text.lines().enumerate() {
            if uses_unsafe(line) {
                violations.push(format!("{}:{}: {}", rel.display(), lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` is not allowed under crates/*/src (DESIGN.md §6):\n{}",
        violations.join("\n")
    );
}

#[test]
fn comments_are_ignored_and_code_is_not() {
    assert!(uses_unsafe("    return unsafe { kernel(data) };"));
    assert!(uses_unsafe("unsafe impl Send for X {}"));
    assert!(!uses_unsafe("    /// Write in place only (fast, torn-page unsafe)."));
    assert!(!uses_unsafe("let x = 1; // unsafe baseline"));
    assert!(!uses_unsafe("let unsafe_mode = true;"));
}
