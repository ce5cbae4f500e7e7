//! Declarative SLO thresholds and the structured alerts they emit.
//!
//! An [`SloConfig`] names ceilings/floors for the signals the flight
//! recorder samples at every epoch boundary (per-epoch p99, GC stall
//! budget, free-block headroom, wear-leveling skew, remaining life).
//! `evaluate` compares one epoch's observation against the thresholds and
//! returns the [`Alert`]s that fired. The device never evaluates it: it
//! records epochs, and each reader judges them with its own thresholds
//! (`sharectl monitor` over every retained epoch, `sharectl doctor` over
//! one health reading, the `bench_health` artifact over its run).
//!
//! Severity is fixed per threshold: running out of free blocks or of
//! endurance is **critical** (the device is about to stop accepting
//! writes, or to die); latency/stall/skew breaches are **warnings**
//! (service degraded, device healthy).

use crate::json::{count, num, s, Json};

/// How bad a fired alert is. `Critical` makes `sharectl doctor` exit
/// non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertSeverity {
    Warning,
    Critical,
}

impl AlertSeverity {
    /// Stable lowercase label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

/// Which threshold fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Per-epoch host write p99 above `write_p99_ceiling_ns`.
    WriteP99,
    /// Per-epoch host read p99 above `read_p99_ceiling_ns`.
    ReadP99,
    /// Foreground GC stall time in one epoch above `gc_stall_budget_ns`.
    GcStall,
    /// Free-block count at or below `free_block_floor`.
    FreeBlocks,
    /// Wear-leveling skew (max/mean erase count) above `wear_skew_max`.
    WearSkew,
    /// SMART-style remaining-life fraction below `remaining_life_floor`.
    RemainingLife,
}

impl AlertKind {
    /// Stable snake_case label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::WriteP99 => "write_p99",
            AlertKind::ReadP99 => "read_p99",
            AlertKind::GcStall => "gc_stall",
            AlertKind::FreeBlocks => "free_blocks",
            AlertKind::WearSkew => "wear_skew",
            AlertKind::RemainingLife => "remaining_life",
        }
    }
}

/// One fired alert: which threshold, how bad, the observed value vs the
/// configured bound, and when (sim time + epoch index) it fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Index of the epoch whose observation breached the threshold.
    pub epoch: u64,
    /// Sim time (ns) of the epoch boundary that evaluated the threshold.
    pub ns: u64,
    pub kind: AlertKind,
    pub severity: AlertSeverity,
    /// Observed value (ns, blocks, or ratio depending on `kind`).
    pub value: f64,
    /// The configured threshold it breached.
    pub threshold: f64,
}

impl Alert {
    /// JSON form used by `sharectl monitor` and `sharectl doctor`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epoch", count(self.epoch)),
            ("ns", count(self.ns)),
            ("kind", s(self.kind.name())),
            ("severity", s(self.severity.name())),
            ("value", num(self.value)),
            ("threshold", num(self.threshold)),
        ])
    }
}

/// What the flight recorder measured over one epoch, as seen by the SLO
/// engine. Latency p99s are `None` when the epoch had no sample of that
/// direction (an idle epoch must not fire a latency alert).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochObservation {
    pub epoch: u64,
    pub end_ns: u64,
    pub write_p99_ns: Option<u64>,
    pub read_p99_ns: Option<u64>,
    /// Foreground GC stall accumulated during this epoch only.
    pub gc_stall_delta_ns: u64,
    pub free_blocks: u64,
    /// Max/mean erase-count ratio (1.0 = perfectly even, 0.0 = no erases).
    pub wear_skew: f64,
    /// Remaining-life fraction in `[0, 1]`.
    pub remaining_life: f64,
}

/// Declarative alert thresholds. Every field is optional; `None` disables
/// that check, and the all-`None` default never fires.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloConfig {
    /// Warning when an epoch's host write p99 exceeds this.
    pub write_p99_ceiling_ns: Option<u64>,
    /// Warning when an epoch's host read p99 exceeds this.
    pub read_p99_ceiling_ns: Option<u64>,
    /// Warning when one epoch accumulates more foreground GC stall than
    /// this budget.
    pub gc_stall_budget_ns: Option<u64>,
    /// Critical when the free-block count is at or below this floor.
    pub free_block_floor: Option<u64>,
    /// Warning when wear skew (max/mean erases) exceeds this.
    pub wear_skew_max: Option<f64>,
    /// Critical when the remaining-life fraction drops below this.
    pub remaining_life_floor: Option<f64>,
}

impl SloConfig {
    /// Evaluate one epoch's observation; returns the alerts that fired,
    /// in [`AlertKind`] declaration order.
    pub fn evaluate(&self, obs: &EpochObservation) -> Vec<Alert> {
        let mut fired = Vec::new();
        let mut push = |kind: AlertKind, severity: AlertSeverity, value: f64, threshold: f64| {
            fired.push(Alert {
                epoch: obs.epoch,
                ns: obs.end_ns,
                kind,
                severity,
                value,
                threshold,
            });
        };
        if let (Some(ceiling), Some(p99)) = (self.write_p99_ceiling_ns, obs.write_p99_ns) {
            if p99 > ceiling {
                push(AlertKind::WriteP99, AlertSeverity::Warning, p99 as f64, ceiling as f64);
            }
        }
        if let (Some(ceiling), Some(p99)) = (self.read_p99_ceiling_ns, obs.read_p99_ns) {
            if p99 > ceiling {
                push(AlertKind::ReadP99, AlertSeverity::Warning, p99 as f64, ceiling as f64);
            }
        }
        if let Some(budget) = self.gc_stall_budget_ns {
            if obs.gc_stall_delta_ns > budget {
                push(
                    AlertKind::GcStall,
                    AlertSeverity::Warning,
                    obs.gc_stall_delta_ns as f64,
                    budget as f64,
                );
            }
        }
        if let Some(floor) = self.free_block_floor {
            if obs.free_blocks <= floor {
                push(
                    AlertKind::FreeBlocks,
                    AlertSeverity::Critical,
                    obs.free_blocks as f64,
                    floor as f64,
                );
            }
        }
        if let Some(max) = self.wear_skew_max {
            if obs.wear_skew > max {
                push(AlertKind::WearSkew, AlertSeverity::Warning, obs.wear_skew, max);
            }
        }
        if let Some(floor) = self.remaining_life_floor {
            if obs.remaining_life < floor {
                push(
                    AlertKind::RemainingLife,
                    AlertSeverity::Critical,
                    obs.remaining_life,
                    floor,
                );
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_obs() -> EpochObservation {
        EpochObservation {
            epoch: 3,
            end_ns: 1_000_000,
            write_p99_ns: Some(40_000),
            read_p99_ns: None,
            gc_stall_delta_ns: 0,
            free_blocks: 100,
            wear_skew: 1.2,
            remaining_life: 0.97,
        }
    }

    #[test]
    fn default_config_never_fires() {
        let slo = SloConfig::default();
        assert!(slo.evaluate(&quiet_obs()).is_empty());
    }

    #[test]
    fn each_threshold_fires_with_expected_severity() {
        let slo = SloConfig {
            write_p99_ceiling_ns: Some(30_000),
            read_p99_ceiling_ns: Some(10_000),
            gc_stall_budget_ns: Some(1),
            free_block_floor: Some(100),
            wear_skew_max: Some(1.1),
            remaining_life_floor: Some(0.99),
        };
        let mut obs = quiet_obs();
        obs.read_p99_ns = Some(50_000);
        obs.gc_stall_delta_ns = 2;
        let fired = slo.evaluate(&obs);
        assert_eq!(fired.len(), 6, "all six thresholds breach: {fired:?}");
        let kinds = [
            AlertKind::WriteP99,
            AlertKind::ReadP99,
            AlertKind::GcStall,
            AlertKind::FreeBlocks,
            AlertKind::WearSkew,
            AlertKind::RemainingLife,
        ];
        for (alert, kind) in fired.iter().zip(kinds) {
            assert_eq!(alert.kind, kind);
            assert_eq!(alert.epoch, 3);
            assert_eq!(alert.ns, 1_000_000);
            let expect = match kind {
                AlertKind::FreeBlocks | AlertKind::RemainingLife => AlertSeverity::Critical,
                _ => AlertSeverity::Warning,
            };
            assert_eq!(alert.severity, expect, "{kind:?}");
        }
    }

    #[test]
    fn idle_epoch_latency_is_not_an_alert() {
        // No read samples this epoch: a configured read ceiling must not
        // fire on the absent p99.
        let slo = SloConfig { read_p99_ceiling_ns: Some(1), ..Default::default() };
        assert!(slo.evaluate(&quiet_obs()).is_empty());
    }

    #[test]
    fn boundaries_are_exclusive_for_ceilings_inclusive_for_floor() {
        let slo = SloConfig {
            write_p99_ceiling_ns: Some(40_000),
            free_block_floor: Some(100),
            ..Default::default()
        };
        // p99 == ceiling is within SLO; free == floor is already critical.
        let fired = slo.evaluate(&quiet_obs());
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlertKind::FreeBlocks);
    }

    #[test]
    fn alert_json_names_are_stable() {
        let alert = Alert {
            epoch: 1,
            ns: 2,
            kind: AlertKind::WearSkew,
            severity: AlertSeverity::Warning,
            value: 3.5,
            threshold: 2.0,
        };
        let j = alert.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("wear_skew"));
        assert_eq!(j.get("severity").and_then(Json::as_str), Some("warning"));
        assert_eq!(j.get("value").and_then(Json::as_f64), Some(3.5));
    }
}
