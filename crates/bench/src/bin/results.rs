//! `results <dir> [stem …]` writes `<dir>/<stem>.txt` for the named
//! artifacts, or for every artifact when none is named. Each distinct
//! configuration is simulated once, on every core.

use share_bench::artifacts::{render, Artifact, ARTIFACTS};
use std::process::exit;

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((dir, stems)) = args.split_first() else {
        eprintln!("usage: results <dir> [stem …]");
        exit(2);
    };
    if let Some(s) = stems.iter().find(|s| !ARTIFACTS.iter().any(|a| a.stem == *s)) {
        eprintln!("results: no artifact is named {s}");
        exit(2);
    }
    let named = |a: &&Artifact| stems.is_empty() || stems.iter().any(|s| s == a.stem);
    let selected: Vec<&Artifact> = ARTIFACTS.iter().filter(named).collect();
    std::fs::create_dir_all(dir)?;
    for (artifact, text) in selected.iter().zip(render(&selected)) {
        std::fs::write(format!("{dir}/{}.txt", artifact.stem), text)?;
    }
    Ok(())
}
