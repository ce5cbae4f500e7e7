//! Guard: the device's configuration surface is a recorded list.
//!
//! Reads `crates/core/src/config.rs` as text and compares the `pub` fields
//! of `FtlConfig` and its `pub fn with_*` builders against the lists below.
//! Every independently settable value doubles the configurations the tests
//! and the benchmark must cover, so a new one is a decision, not a diff
//! line: it shows up here first.

use std::path::Path;

const FIELDS: [&str; 13] = [
    "geometry",
    "timing",
    "logical_pages",
    "revmap_capacity",
    "revmap_policy",
    "gc_policy",
    "log_blocks",
    "gc_low_water",
    "gc_high_water",
    "command_ns",
    "queue_depth",
    "telemetry",
    "slo",
];

const BUILDERS: [&str; 4] = ["with_parallelism", "with_telemetry", "with_slo", "with_queue_depth"];

/// The identifier that follows `prefix` on `line`, if the line starts with it.
fn ident_after<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = line.trim_start().strip_prefix(prefix)?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    Some(&rest[..end])
}

#[test]
fn ftl_config_fields_and_builders_match_the_recorded_list() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/config.rs");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let body = text
        .split_once("pub struct FtlConfig {")
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .map(|(body, _)| body)
        .expect("config.rs declares `pub struct FtlConfig { … }`");
    let fields: Vec<&str> = body.lines().filter_map(|l| ident_after(l, "pub ")).collect();
    let builders: Vec<&str> = text
        .lines()
        .filter_map(|l| ident_after(l, "pub fn "))
        .filter(|name| name.starts_with("with_"))
        .collect();
    assert!(
        fields == FIELDS && builders == BUILDERS,
        "a new device option needs two existing callers that want different values \
         (ROADMAP aim 2) — update this list and say which in CHANGES.md\n\
         fields:   {fields:?}\nbuilders: {builders:?}"
    );
}
