//! Optional metrics snapshots during bench runs.
//!
//! Set `SHARE_METRICS=1` to turn on full device telemetry (latency
//! histograms + command ring) in the benches that support it and dump the
//! end-of-run snapshot in both exporter formats at the workspace root
//! (`METRICS_<scenario>.prom` / `.json`; directory overridable with
//! `SHARE_METRICS_DIR`). Telemetry never advances the simulated clock, so
//! the dumped numbers ride along without perturbing the bench results.

use share_core::{FlightSnapshot, Snapshot, TelemetryConfig, Tracer};
use std::path::PathBuf;

/// Whether `SHARE_METRICS=1` asked for metrics dumps.
pub fn metrics_enabled() -> bool {
    std::env::var("SHARE_METRICS").map(|v| v == "1").unwrap_or(false)
}

/// Whether `SHARE_TRACE=1` asked for causal span tracing (Chrome
/// `trace_event` dumps next to the metrics files).
pub fn trace_enabled() -> bool {
    std::env::var("SHARE_TRACE").map(|v| v == "1").unwrap_or(false)
}

/// Whether `SHARE_MONITOR=1` asked for flight-recorder epoch sampling
/// (`MONITOR_<scenario>.json` dumps of the per-epoch time series).
pub fn monitor_enabled() -> bool {
    std::env::var("SHARE_MONITOR").map(|v| v == "1").unwrap_or(false)
}

/// Epoch length the flight recorder samples at when `SHARE_MONITOR=1`:
/// `SHARE_MONITOR_EPOCH_MS` (simulated milliseconds), default 10 ms.
fn monitor_epoch_ns() -> u64 {
    std::env::var("SHARE_MONITOR_EPOCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .unwrap_or(10)
        * 1_000_000
}

/// The telemetry config benches should run with: everything on when
/// `SHARE_METRICS=1`, span tracing alone when `SHARE_TRACE=1`, epoch
/// sampling added when `SHARE_MONITOR=1`, counters-only (the
/// bit-identical default) otherwise.
pub fn telemetry_from_env() -> TelemetryConfig {
    let mut cfg = if monitor_enabled() {
        TelemetryConfig::monitoring(monitor_epoch_ns())
    } else if metrics_enabled() {
        TelemetryConfig::full()
    } else {
        TelemetryConfig::default()
    };
    if trace_enabled() {
        cfg.trace = true;
    }
    cfg
}

/// Where metrics dumps go: `SHARE_METRICS_DIR`, else the workspace root.
fn metrics_dir() -> PathBuf {
    if let Ok(p) = std::env::var("SHARE_METRICS_DIR") {
        return PathBuf::from(p);
    }
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/bench -> crates
    p.pop(); // crates -> workspace root
    p
}

/// Write `snap` as `METRICS_<scenario>.prom` and `.json`; returns the two
/// paths written.
fn dump_metrics(scenario: &str, snap: &Snapshot) -> std::io::Result<(PathBuf, PathBuf)> {
    let dir = metrics_dir();
    std::fs::create_dir_all(&dir)?;
    let prom_path = dir.join(format!("METRICS_{scenario}.prom"));
    let json_path = dir.join(format!("METRICS_{scenario}.json"));
    std::fs::write(&prom_path, snap.to_prometheus())?;
    let mut text = snap.to_json().render();
    text.push('\n');
    std::fs::write(&json_path, text)?;
    Ok((prom_path, json_path))
}

/// Write the tracer's span tree as Chrome `trace_event` JSON
/// (`TRACE_<scenario>.json`); returns the path, or `None` if the tracer
/// was disabled (no spans to export).
fn dump_trace(scenario: &str, tracer: &Tracer) -> std::io::Result<Option<PathBuf>> {
    let Some(json) = tracer.chrome_json() else { return Ok(None) };
    let dir = metrics_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("TRACE_{scenario}.json"));
    std::fs::write(&path, json.render())?;
    Ok(Some(path))
}

/// If `SHARE_TRACE=1`, dump the scenario's Chrome trace and print where it
/// went (drivers call this once per scenario, next to the metrics dump).
pub fn maybe_dump_trace(scenario: &str, tracer: &Tracer) {
    if !trace_enabled() {
        return;
    }
    match dump_trace(scenario, tracer) {
        Ok(Some(path)) => println!("trace: {}", path.display()),
        Ok(None) => eprintln!("trace: device of {scenario} was built without tracing"),
        Err(e) => eprintln!("trace: failed to write {scenario}: {e}"),
    }
}

/// Write the flight recorder's epoch time series as
/// `MONITOR_<scenario>.json`; returns the path written.
fn dump_monitor(scenario: &str, mon: &FlightSnapshot) -> std::io::Result<PathBuf> {
    let dir = metrics_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("MONITOR_{scenario}.json"));
    let mut text = mon.to_json().render();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// If `SHARE_MONITOR=1` and the run kept a flight recorder, dump its epoch
/// time series and print where it went (drivers call this once per
/// scenario, next to the metrics dump).
pub fn maybe_dump_monitor(scenario: &str, mon: Option<&FlightSnapshot>) {
    if !monitor_enabled() {
        return;
    }
    match mon {
        Some(mon) => match dump_monitor(scenario, mon) {
            Ok(path) => println!("monitor: {}", path.display()),
            Err(e) => eprintln!("monitor: failed to write {scenario}: {e}"),
        },
        None => eprintln!("monitor: device of {scenario} has no flight recorder"),
    }
}

/// If `SHARE_METRICS=1` and the run produced a snapshot, dump it and print
/// where it went (drivers call this once per scenario).
pub fn maybe_dump_metrics(scenario: &str, snap: Option<&Snapshot>) {
    if !metrics_enabled() {
        return;
    }
    match snap {
        Some(snap) => match dump_metrics(scenario, snap) {
            Ok((prom, json)) => {
                println!("metrics: {} and {}", prom.display(), json.display())
            }
            Err(e) => eprintln!("metrics: failed to write {scenario}: {e}"),
        },
        None => eprintln!("metrics: device of {scenario} has no telemetry"),
    }
}
