//! Guard: the device does not sample itself.
//!
//! The flight recorder (`crates/core/src/monitor.rs`) reads a device from
//! outside, through `stats`, `clock` and `telemetry_snapshot`, ticked by
//! its caller after every host command. So neither the FTL
//! (`crates/core/src/ftl.rs` and `crates/core/src/ftl/`) nor the telemetry
//! crate has any business knowing what an epoch is. This test fails on any
//! file there that names one, so the device-side half of a sampler cannot
//! grow back a field or an option at a time.

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
fn neither_the_ftl_nor_telemetry_names_an_epoch() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = Vec::new();
    for dir in ["crates/core/src/ftl.rs", "crates/core/src/ftl", "crates/telemetry/src"] {
        files(&root.join(dir), &mut checked);
    }
    assert!(checked.len() > 10, "walked only {} files: wrong directory?", checked.len());
    let mut found = Vec::new();
    for path in &checked {
        let text = std::fs::read_to_string(path).unwrap();
        for (n, line) in text.lines().enumerate() {
            if line.to_ascii_lowercase().contains("epoch") {
                found.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "the flight recorder samples the device from outside (crates/core/src/monitor.rs); \
         keep its epochs out of the FTL and the telemetry crate:\n{}",
        found.join("\n")
    );
}
