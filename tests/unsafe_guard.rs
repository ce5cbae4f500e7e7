//! Guard: the library stays free of `unsafe`, and has one checksum kernel.
//!
//! Walks every `.rs` file under `crates/*/src` and fails if the keyword
//! `unsafe` appears in code. The checksum kernel (`crates/core/src/util.rs`)
//! is the place that would have needed it — the CPU's `crc32` instruction is
//! reachable only through an `unsafe` call — and is slicing-by-8 on two
//! lanes in safe code instead (DESIGN.md §6). Comments may say "unsafe" —
//! several engines document a torn-page-unsafe baseline mode — so `//`
//! comments are cut off before the search; the keyword inside a string
//! literal would still trip the guard, which errs on the loud side.
//!
//! The one-kernel rule is checked the same way: outside `util.rs` no file
//! may name the Castagnoli polynomial (a second table-driven CRC-32C) or
//! reach for the instruction set (`is_x86_feature_detected`,
//! `#[target_feature`, `std::arch`, `core::arch`). These are searched in
//! comments too: no file outside the kernel has a reason to name them.

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

/// Every `.rs` file under `root/crates/*/src`.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked only {} files: wrong directory?", sources.len());
    sources
}

/// Does `line`, with any `//` comment cut off, use `unsafe` as a word?
fn uses_unsafe(line: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    code.split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|word| word == "unsafe")
}

#[test]
fn no_unsafe_under_crates_src() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = library_sources(root);

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

/// What may appear in `crates/core/src/util.rs` alone (DESIGN.md §6).
const KERNEL_ONLY: [&str; 5] =
    ["0x82F6_3B78", "is_x86_feature_detected", "#[target_feature", "std::arch", "core::arch"];

/// The [`KERNEL_ONLY`] needles in `line`, matched with `_` dropped and case
/// ignored on both sides, so `0x82f63b78` is caught too.
fn kernel_only_needles(line: &str) -> Vec<&'static str> {
    let fold = |s: &str| s.replace('_', "").to_lowercase();
    let line = fold(line);
    KERNEL_ONLY.into_iter().filter(|needle| line.contains(&fold(needle))).collect()
}

#[test]
fn one_checksum_kernel_under_crates_src() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let kernel = root.join("crates/core/src/util.rs");
    let sources = library_sources(root);
    assert!(sources.contains(&kernel), "the kernel moved: {}", kernel.display());
    // The needles match the kernel's own spelling of the polynomial.
    let kernel_text = std::fs::read_to_string(&kernel).unwrap();
    assert!(kernel_text.lines().any(|l| kernel_only_needles(l) == ["0x82F6_3B78"]));

    let mut violations = Vec::new();
    for path in sources.iter().filter(|p| **p != kernel) {
        let rel = path.strip_prefix(root).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        for (lineno, line) in text.lines().enumerate() {
            for needle in kernel_only_needles(line) {
                let at = format!("{}:{}", rel.display(), lineno + 1);
                violations.push(format!("{at}: `{needle}`: {}", line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "one checksum kernel, in crates/core/src/util.rs (DESIGN.md §6):\n{}",
        violations.join("\n")
    );
}

#[test]
fn kernel_only_needles_match_each_spelling() {
    assert_eq!(kernel_only_needles("const POLY: u32 = 0x82F6_3B78;"), ["0x82F6_3B78"]);
    assert_eq!(kernel_only_needles("let p = 0x82f63b78;"), ["0x82F6_3B78"]);
    let detect = "if is_x86_feature_detected!(\"sse4.2\") {";
    assert_eq!(kernel_only_needles(detect), ["is_x86_feature_detected"]);
    assert_eq!(kernel_only_needles("#[target_feature(enable = \"sse4.2\")]"), ["#[target_feature"]);
    assert_eq!(kernel_only_needles("use std::arch::x86_64::_mm_crc32_u64;"), ["std::arch"]);
    assert_eq!(kernel_only_needles("use core::arch::x86_64::*;"), ["core::arch"]);
    assert!(kernel_only_needles("let poly = 0xEDB8_8320; // CRC-32, not CRC-32C").is_empty());
    assert!(kernel_only_needles("share_core::crc32c(&page[4..])").is_empty());
}

#[test]
fn comments_are_ignored_and_code_is_not() {
    assert!(uses_unsafe("    return unsafe { kernel(data) };"));
    assert!(uses_unsafe("unsafe impl Send for X {}"));
    assert!(!uses_unsafe("    /// Write in place only (fast, torn-page unsafe)."));
    assert!(!uses_unsafe("let x = 1; // unsafe baseline"));
    assert!(!uses_unsafe("let unsafe_mode = true;"));
}
