//! Guards on the benchmark's own packaging. `tests/offline_guard.rs` of
//! the repository walks the root manifest and `crates/*` only, so this
//! directory keeps its own copy of the rule: path dependencies and nothing
//! else, built offline from the committed lock file. A second test keeps
//! `BENCHMARK.json` equal to what `spec.rs` generates.

use share_benchmark::spec;
use std::path::Path;

fn here() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn dependencies_are_paths_into_the_repository() {
    let text = std::fs::read_to_string(here().join("Cargo.toml")).unwrap();
    let mut in_deps = false;
    let mut deps = 0;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let section = line.trim_matches(['[', ']']);
            assert!(
                !section.contains("dependencies."),
                "`{line}`: declare dependencies inline so this guard can read them"
            );
            in_deps = section.ends_with("dependencies");
            continue;
        }
        if in_deps {
            deps += 1;
            assert!(
                line.contains("path = \"../crates/"),
                "`{line}` is not a path dependency on a crate of this repository"
            );
            for banned in ["version", "git", "registry"] {
                assert!(!line.contains(banned), "`{line}` names a {banned}");
            }
        }
    }
    assert!(deps > 0, "no dependency section found");
    assert!(
        text.lines().any(|l| l.trim() == "[workspace]"),
        "the package must be its own workspace"
    );
}

#[test]
fn lock_file_holds_no_registry_package() {
    let lock = std::fs::read_to_string(here().join("Cargo.lock")).unwrap();
    assert!(
        !lock.contains("source = "),
        "Cargo.lock names a package from outside the repository"
    );
}

#[test]
fn run_script_builds_offline_from_the_lock_file() {
    let script = std::fs::read_to_string(here().join("run.sh")).unwrap();
    let build = script
        .lines()
        .find(|l| l.contains("cargo build"))
        .expect("run.sh builds");
    for flag in [
        "--release",
        "--offline",
        "--locked",
        "--manifest-path benchmark/Cargo.toml",
    ] {
        assert!(build.contains(flag), "`{build}` lacks {flag}");
    }
}

#[test]
fn benchmark_json_is_what_the_spec_generates() {
    let committed = std::fs::read_to_string(here().join("../BENCHMARK.json")).unwrap();
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `benchmark/run.sh spec > BENCHMARK.json`"
    );
}

#[test]
fn spec_names_are_unique_and_within_the_contract_limits() {
    let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(spec::END_TO_END.iter().map(|m| m.name));
    names.extend(spec::PER_LAYER.iter().map(|m| m.name));
    let legal = |s: &str, extra: &str, max: usize| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };
    for (i, n) in names.iter().enumerate() {
        assert!(
            legal(n, "_.-", 64) && n.as_bytes()[0].is_ascii_alphanumeric(),
            "name `{n}`"
        );
        assert!(!names[..i].contains(n), "name `{n}` is used twice");
    }
    let units = spec::END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(spec::PER_LAYER.iter().map(|m| m.unit));
    for u in units {
        assert!(legal(u, "_/%.-", 16), "unit `{u}`");
    }
    for w in &spec::WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
        assert!(w.trace_ops <= w.window_ops && w.trace_ops % 16 == 0 && w.window_ops % 16 == 0);
    }
    for m in &spec::END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(
        spec::END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}
