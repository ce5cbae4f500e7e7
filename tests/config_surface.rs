//! Guard: the device's configuration surface is a recorded list.
//!
//! Reads `crates/core/src/config.rs` as text and compares the `pub` fields
//! of `FtlConfig` and its `pub fn with_*` builders against the lists below,
//! and the `pub` fields of `TelemetryConfig` and of the engines' and the
//! file system's configurations (`VfsOptions`, `PgConfig`, `CouchConfig`,
//! `InnoDbConfig`, `SqliteConfig`) the same way. Every independently
//! settable value doubles the configurations the tests and the benchmark
//! must cover, so a new one is a decision, not a diff line: it shows up
//! here first. The environment knobs the library reads are pinned the same
//! way: every `"SHARE_…"` string literal under `crates/*/src`; and so are
//! `sharectl`'s flags: every `"--…"` string literal under `crates/cli/src`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const FIELDS: [&str; 8] = [
    "geometry",
    "timing",
    "logical_pages",
    "revmap_capacity",
    "gc_policy",
    "log_blocks",
    "queue_depth",
    "telemetry",
];

const BUILDERS: [&str; 3] = ["with_parallelism", "with_telemetry", "with_queue_depth"];

const TELEMETRY_FIELDS: [&str; 1] = ["trace"];

/// The identifier that follows `prefix` on `line`, if the line starts with it.
fn ident_after<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    let rest = line.trim_start().strip_prefix(prefix)?;
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The text of `file` (relative to the repository root).
fn source(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `pub` fields of `pub struct <name> { … }` in `text`, in order.
fn pub_fields<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
    let body = text
        .split_once(&format!("pub struct {name} {{"))
        .and_then(|(_, rest)| rest.split_once("\n}"))
        .map(|(body, _)| body)
        .unwrap_or_else(|| panic!("no `pub struct {name} {{ … }}`"));
    body.lines().filter_map(|l| ident_after(l, "pub ")).collect()
}

#[test]
fn ftl_config_fields_and_builders_match_the_recorded_list() {
    let text = source("crates/core/src/config.rs");
    let fields = pub_fields(&text, "FtlConfig");
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

#[test]
fn telemetry_config_fields_match_the_recorded_list() {
    let text = source("crates/telemetry/src/lib.rs");
    let fields = pub_fields(&text, "TelemetryConfig");
    assert!(
        fields == TELEMETRY_FIELDS,
        "a new telemetry option is a device option too — update this list and say which \
         caller wants it in CHANGES.md\nfields: {fields:?}"
    );
}

/// `(file, struct, its pub fields)` for the configurations the engines and
/// the file system take.
const ENGINE_CONFIGS: [(&str, &str, &[&str]); 5] = [
    ("crates/vfs/src/vfs.rs", "VfsOptions", &["journal_pages_per_commit", "extent_chunk_pages"]),
    ("crates/pg/src/engine.rs", "PgConfig", &["mode", "page_bytes", "checkpoint_txns", "scale"]),
    ("crates/couch/src/store.rs", "CouchConfig", &["mode", "batch_size", "node_max_entries"]),
    (
        "crates/innodb/src/engine.rs",
        "InnoDbConfig",
        &[
            "mode",
            "page_bytes",
            "pool_pages",
            "flush_batch",
            "ckpt_redo_bytes",
            "max_pages",
            "flush_neighbors",
        ],
    ),
    ("crates/sqlite/src/pager.rs", "SqliteConfig", &["mode", "max_pages", "wal_checkpoint_frames"]),
];

#[test]
fn engine_config_fields_match_the_recorded_list() {
    for (file, name, want) in ENGINE_CONFIGS {
        let text = source(file);
        let fields = pub_fields(&text, name);
        assert!(
            fields == want,
            "a new {name} knob needs two existing callers that want different values \
             (ROADMAP aim 2) — update this list and say which in CHANGES.md\n\
             fields: {fields:?}"
        );
    }
}

const KNOBS: [&str; 4] = [
    "SHARE_BENCH_SAMPLES",
    "SHARE_BENCH_WINDOW_MS",
    "SHARE_CRASH_POINTS",
    "SHARE_MODEL_CASES",
];

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

/// Every string literal in `text` that starts with `prefix` and continues
/// with `is_part` characters up to its closing quote.
fn literals(text: &str, prefix: &str, is_part: impl Fn(char) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(&format!("\"{prefix}")) {
        let rest = &text[at + 1..];
        let end = rest[prefix.len()..].find(|c: char| !is_part(c)).map(|end| end + prefix.len());
        if let Some(end) = end.filter(|&end| rest[end..].starts_with('"')) {
            found.push(rest[..end].to_string());
        }
    }
    found
}

#[test]
fn environment_knobs_match_the_recorded_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked only {} files: wrong directory?", sources.len());
    let mut knobs = BTreeSet::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        let is_knob = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
        knobs.extend(literals(&text, "SHARE_", is_knob));
    }
    let want: BTreeSet<String> = KNOBS.iter().map(|k| k.to_string()).collect();
    assert!(
        knobs == want,
        "an environment knob is an option no test or gate turns on until one does — \
         update this list and say which caller sets it in CHANGES.md\n\
         found: {knobs:?}"
    );
}

/// Every `"--flag"` literal under `crates/cli/src`, sorted, one entry per
/// occurrence. Each subcommand names the flags it reads once, in its call
/// to `flags`, and refuses any other: so a flag has one entry per
/// subcommand that reads it, and a flag that another subcommand starts to
/// read shows up as well as a new one. `--workload` and `--seed` are read
/// by `trace` and `crashsweep`, `--ops` by `trace` alone; `metrics` prints
/// JSON only.
const CLI_FLAGS: [&str; 18] = [
    "--byte",
    "--count",
    "--index",
    "--len",
    "--len",
    "--len",
    "--mode",
    "--offset",
    "--ops",
    "--out",
    "--seed",
    "--seed",
    "--stride",
    "--trace",
    "--trace",
    "--tree",
    "--workload",
    "--workload",
];

#[test]
fn cli_flags_match_the_recorded_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates/cli/src"), &mut sources);
    let mut flags = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).unwrap();
        flags.extend(literals(&text, "--", |c| c.is_ascii_lowercase() || c == '-'));
    }
    flags.sort();
    assert!(
        flags == CLI_FLAGS,
        "a new sharectl flag is an option too — update this list and say which caller wants \
         it in CHANGES.md\nfound: {flags:?}"
    );
}
