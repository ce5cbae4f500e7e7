//! Guard: no layer labels its traffic with a stream.
//!
//! A stream once chose which Chrome-trace thread an FTL command span was
//! drawn on, and nothing else: not placement, not a counter, not a clock.
//! The FTL now draws host commands on one track and its internal passes on
//! another, and the per-file labels went from the VFS and the engines.
//! `BlockDevice::stream_intern`/`set_stream` keep their inert defaults in
//! `crates/core/src/device.rs` only because the benchmark's forwarder still
//! calls them. This test fails on any other file under `crates/*/src` that
//! names a stream call or track, so the labelling cannot grow back one call
//! at a time.

use std::path::{Path, PathBuf};

fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())) {
            files(&entry.unwrap().path(), out);
        }
    } else {
        out.push(path.to_path_buf());
    }
}

#[test]
fn no_source_file_names_a_stream_but_the_trait() {
    const NAMES: [&str; 4] = ["stream_intern", "set_stream", "Track::Stream", "STREAM_FTL"];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let trait_file = root.join("crates/core/src/device.rs");
    let mut checked = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            files(&src, &mut checked);
        }
    }
    assert!(checked.contains(&trait_file), "walked {} files: wrong directory?", checked.len());
    let mut found = Vec::new();
    for path in checked.iter().filter(|p| **p != trait_file) {
        let text = std::fs::read_to_string(path).unwrap();
        for (n, line) in text.lines().enumerate() {
            if NAMES.iter().any(|name| line.contains(name)) {
                found.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "FTL command spans sit on two fixed tracks and no layer labels its traffic \
         (DESIGN.md §9); only the trait's inert defaults in device.rs may name a stream:\n{}",
        found.join("\n")
    );
}
