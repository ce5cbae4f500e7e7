//! Guard: the panic sites under `crates/*/src` only go down.
//!
//! Counts every line of every `.rs` file under `crates/*/src` that matches
//! `grep -rEn "unwrap\(|expect\(|panic!" crates/*/src` — ROADMAP item 16's
//! audit grep, inline tests included — and fails when the count rises above
//! [`CEILING`]. A site the audit turns into an error or a one-line invariant
//! lowers the count; lower the ceiling with it, so the count cannot grow
//! back.

use std::path::{Path, PathBuf};

/// The audit grep's count when the ceiling was last lowered.
const CEILING: usize = 870;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Does `line` match the audit grep `unwrap\(|expect\(|panic!`?
fn is_panic_site(line: &str) -> bool {
    ["unwrap(", "expect(", "panic!"].iter().any(|needle| line.contains(needle))
}

#[test]
fn panic_sites_stay_at_or_below_the_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked only {} files: wrong directory?", sources.len());

    let sites = |path: &PathBuf| {
        std::fs::read_to_string(path).unwrap().lines().filter(|l| is_panic_site(l)).count()
    };
    let count: usize = sources.iter().map(sites).sum();
    assert!(
        count <= CEILING,
        "{count} lines under crates/*/src match `grep -rEn \"unwrap\\(|expect\\(|panic!\" \
         crates/*/src`, above the ceiling of {CEILING}: return an error or state the invariant \
         instead. When the count falls, lower CEILING in tests/panic_guard.rs to it."
    );
}

#[test]
fn the_needles_match_what_the_grep_matches() {
    assert!(is_panic_site("let x = y.unwrap();"));
    assert!(is_panic_site("    .expect(\"a page\")"));
    assert!(is_panic_site("panic!(\"{e}\")"));
    assert!(is_panic_site("unreachable!() // or panic!"));
    assert!(!is_panic_site("let x = y.unwrap_or(0);"));
    assert!(!is_panic_site("let e = r.expect_err(\"refused\");"));
    assert!(!is_panic_site("let x = y.unwrap_or_else(|| 0);"));
}
