//! `share-benchmark compare A.json B.json`: apply the bounds of
//! `BENCHMARK.json` to two result documents, one row per workload × metric.

use share_telemetry::json::{parse, Json};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The repetitions of one side spread wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The per-workload documents of a result file: either the merged
/// `result.json` (`{"workloads": {...}}`) or a single workload's file.
fn workloads(doc: &Json) -> Vec<(String, &Json)> {
    match doc.get("workloads") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, v)| (k.clone(), v)).collect(),
        _ => {
            let name = doc
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            vec![(name, doc)]
        }
    }
}

/// Relative spread of a metric's repetitions: (max − min) / |median value|.
fn spread(metric: &Json) -> f64 {
    let reps: Vec<f64> = metric
        .get("reps")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
    if reps.is_empty() || value == 0.0 {
        return 0.0;
    }
    let max = reps.iter().copied().fold(f64::MIN, f64::max);
    let min = reps.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / value.abs()
}

pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    // How much worse B is than A, as a share of A.
    let worse_by = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    if worse_by <= bound {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

/// Print one row per workload × end-to-end metric; `Ok(true)` when no row
/// is `worse`.
pub fn compare(a_path: &Path, b_path: &Path, spec_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load(spec_path)?)?;
    let b_workloads = workloads(&b);
    let mut all_ok = true;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| *n == name) else {
            return Err(format!(
                "workload {name} is missing from {}",
                b_path.display()
            ));
        };
        for bd in &bounds {
            let metric = |w: &Json| w.get("metrics").and_then(|m| m.get(&bd.name)).cloned();
            let (Some(ma), Some(mb)) = (metric(wa), metric(wb)) else {
                return Err(format!(
                    "{name}: metric {} is missing from a result",
                    bd.name
                ));
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(&ma), value(&mb));
            let sp = spread(&ma).max(spread(&mb));
            let verdict = judge(va, vb, bd.higher_is_better, bd.bound, sp);
            all_ok &= verdict != Verdict::Worse;
            println!(
                "{:<18} {:<20} {:>16.6} {:>16.6} {:>+8.2}% {:>6.1}% {:>7.2}%  {}",
                name,
                bd.name,
                va,
                vb,
                if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va.abs() * 100.0
                },
                bd.bound * 100.0,
                sp * 100.0,
                verdict.name()
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(100.0, 109.0, false, 0.10, 0.0), Verdict::Ok);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 120.0, false, 0.10, 0.3), Verdict::Unresolved);
        assert_eq!(judge(100.0, 50.0, false, 0.10, 0.0), Verdict::Ok);
        // Higher is better.
        assert_eq!(judge(100.0, 80.0, true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(100.0, 130.0, true, 0.10, 0.0), Verdict::Ok);
        // An exact metric that moved at all beyond its bound is worse.
        assert_eq!(judge(1.0, 1.02, false, 0.01, 0.0), Verdict::Worse);
    }
}
