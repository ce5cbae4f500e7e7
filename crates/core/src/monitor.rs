//! Time-series flight recorder's series, as readers see it: per-epoch
//! deltas of everything the device already counts.
//!
//! The device's [`FlightRecorder`](crate::recorder::FlightRecorder) seals
//! one [`EpochRecord`] per epoch holding the *delta* of [`DeviceStats`]
//! and of per-unit busy time, the free-block and wear-skew gauges, and the
//! epoch's latency windows since the previous seal. A [`FlightSnapshot`]
//! exports the retained records plus the folded deltas of the evicted ones
//! and of the partial epoch, so the standing guarantee holds for the whole
//! run:
//!
//! > evicted + retained + current-partial deltas == cumulative counters,
//! > exactly, at every moment.

use crate::stats::DeviceStats;
use share_telemetry::json::{count, num, s, Json};
use share_telemetry::{rows_json, Histogram};

/// One sealed epoch: everything is a delta over `[start_ns, end_ns]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based, monotonic across evictions).
    pub epoch: u64,
    /// Seal time of the previous epoch (device creation for epoch 0).
    pub start_ns: u64,
    /// Simulated time this epoch sealed at.
    pub end_ns: u64,
    /// Device-counter deltas accumulated during the epoch.
    pub stats: DeviceStats,
    /// Free data blocks at seal time (gauge, not a delta).
    pub free_blocks: u64,
    /// Queued commands in flight at seal time (gauge).
    pub inflight: u64,
    /// Wear-leveling skew (max/mean erases) at seal time (gauge).
    pub wear_skew: f64,
    /// Per-NAND-unit busy-time deltas, indexed like the device's units.
    pub unit_busy_ns: Vec<u64>,
    /// Host-read latency window for this epoch.
    pub read_hist: Histogram,
    /// Host-write latency window for this epoch.
    pub write_hist: Histogram,
}

impl EpochRecord {
    /// JSON form (one row of `sharectl monitor --format json`).
    /// `unit_labels` names the NAND units.
    fn to_json(&self, unit_labels: &[String]) -> Json {
        let units = Json::Obj(
            self.unit_busy_ns
                .iter()
                .enumerate()
                .map(|(i, &busy)| {
                    let label =
                        unit_labels.get(i).cloned().unwrap_or_else(|| format!("u{i}"));
                    (label, count(busy))
                })
                .collect(),
        );
        let mut fields = vec![
            ("epoch".to_string(), count(self.epoch)),
            ("start_ns".to_string(), count(self.start_ns)),
            ("end_ns".to_string(), count(self.end_ns)),
        ];
        // Every counter's delta over the epoch, keyed by field name.
        fields.extend(rows_json(&self.stats.metrics()));
        let mut push = |key: &str, value| fields.push((key.to_string(), value));
        push("free_blocks", count(self.free_blocks));
        push("inflight", count(self.inflight));
        push("wear_skew", num(self.wear_skew));
        push("unit_busy_ns", units);
        if !self.read_hist.is_empty() {
            push("read_p50_ns", count(self.read_hist.quantile(0.50)));
            push("read_p99_ns", count(self.read_hist.quantile(0.99)));
        }
        if !self.write_hist.is_empty() {
            push("write_p50_ns", count(self.write_hist.quantile(0.50)));
            push("write_p99_ns", count(self.write_hist.quantile(0.99)));
        }
        Json::Obj(fields)
    }
}

/// A point-in-time export of the flight recorder's series.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Configured epoch length.
    pub epoch_ns: u64,
    /// Epochs sealed over the run.
    pub sealed: u64,
    /// Sealed epochs no longer retained.
    pub dropped: u64,
    /// Unit index → label (filled by the device).
    pub unit_labels: Vec<String>,
    /// Retained epochs, oldest first.
    pub epochs: Vec<EpochRecord>,
    /// Folded deltas of the dropped epochs.
    pub evicted_stats: DeviceStats,
    /// Start of the current partial epoch (last seal time).
    pub tail_start_ns: u64,
    /// Snapshot time.
    pub tail_end_ns: u64,
    /// Deltas accumulated since the last seal (the partial epoch).
    pub tail_stats: DeviceStats,
}

impl FlightSnapshot {
    /// Sum of every delta the recorder has ever attributed — evicted +
    /// retained + the partial tail. Equals the device's cumulative
    /// [`DeviceStats`] exactly (the recorder's standing guarantee).
    pub fn total_stats(&self) -> DeviceStats {
        let mut total = self.evicted_stats;
        for e in &self.epochs {
            total.accumulate(&e.stats);
        }
        total.accumulate(&self.tail_stats);
        total
    }

    /// JSON document: meta fields plus one row per retained epoch.
    pub fn to_json(&self) -> Json {
        let epochs = Json::Arr(
            self.epochs
                .iter()
                .map(|e| e.to_json(&self.unit_labels))
                .collect(),
        );
        Json::obj(vec![
            ("epoch_ns", count(self.epoch_ns)),
            ("sealed", count(self.sealed)),
            ("dropped", count(self.dropped)),
            ("units", Json::Arr(self.unit_labels.iter().map(|l| s(l)).collect())),
            ("tail_start_ns", count(self.tail_start_ns)),
            ("tail_end_ns", count(self.tail_end_ns)),
            ("tail_host_writes", count(self.tail_stats.host_writes)),
            ("epochs", epochs),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::tests::sample;
    use crate::recorder::FlightRecorder;

    #[test]
    fn seals_deltas_and_spans_idle_gaps() {
        let mut r = FlightRecorder::new(1_000, 8, 0);
        assert!(!r.due(999));
        assert!(r.due(1_000));
        r.seal(sample(1_200, 10, 50));
        // Next boundary is the multiple after 1200, i.e. 2000.
        assert!(!r.due(1_999));
        // A long idle gap seals one spanning epoch at the next command.
        r.seal(sample(7_300, 25, 40));
        assert!(!r.due(7_999));
        assert!(r.due(8_000));
        let snap = r.snapshot(7_300, &sample(7_300, 25, 40).stats);
        assert_eq!(snap.sealed, 2);
        assert_eq!(snap.epochs.len(), 2);
        assert_eq!((snap.epochs[0].epoch, snap.epochs[1].epoch), (0, 1));
        assert_eq!(snap.epochs[0].unit_busy_ns, vec![600, 300]);
        assert_eq!(snap.epochs[0].stats.host_writes, 10);
        assert_eq!(snap.epochs[1].stats.host_writes, 15);
        assert_eq!(snap.epochs[1].start_ns, 1_200);
        assert_eq!(snap.epochs[1].end_ns, 7_300);
        assert_eq!(snap.epochs[1].unit_busy_ns, vec![3_650 - 600, 1_825 - 300]);
        assert_eq!(snap.tail_stats, DeviceStats::default());
        assert_eq!(snap.total_stats().host_writes, 25);
    }

    #[test]
    fn eviction_folds_into_accumulator_exactly() {
        let mut r = FlightRecorder::new(100, 2, 0);
        for i in 1..=10u64 {
            r.seal(sample(i * 100, i * 7, 50));
        }
        let cum = sample(1_000, 70, 50).stats;
        let snap = r.snapshot(1_000, &cum);
        assert_eq!(snap.sealed, 10);
        assert_eq!(snap.dropped, 8);
        assert_eq!(snap.epochs.len(), 2);
        // Retained + evicted + tail reproduce the cumulative counters.
        assert_eq!(snap.total_stats(), cum);
        // And the partial tail shows up too.
        let cum2 = sample(1_050, 75, 50).stats;
        let snap2 = r.snapshot(1_050, &cum2);
        assert_eq!(snap2.tail_stats.host_writes, 5);
        assert_eq!(snap2.total_stats(), cum2);
    }

    #[test]
    fn seal_records_the_gauges_it_is_handed() {
        let mut r = FlightRecorder::new(1_000, 8, 0);
        r.seal(sample(1_000, 1, 50));
        let mut smp = sample(2_000, 2, 40);
        smp.write_hist.record(900);
        smp.wear_skew = 3.0;
        r.seal(smp);
        let snap = r.snapshot(2_000, &sample(2_000, 2, 40).stats);
        let gauges: Vec<_> =
            snap.epochs.iter().map(|e| (e.end_ns, e.free_blocks, e.wear_skew)).collect();
        assert_eq!(gauges, vec![(1_000, 50, 1.0), (2_000, 40, 3.0)]);
        // Each epoch keeps its own latency window; the idle read window
        // stays empty.
        assert!(snap.epochs[0].write_hist.is_empty());
        assert_eq!(snap.epochs[1].write_hist.quantile(0.99), 900);
        assert!(snap.epochs[1].read_hist.is_empty());
    }

    #[test]
    fn snapshot_json_renders_and_parses() {
        let mut r = FlightRecorder::new(500, 4, 0);
        let mut smp = sample(500, 3, 20);
        smp.write_hist.record(120);
        smp.write_hist.record(480);
        r.seal(smp);
        let mut snap = r.snapshot(700, &sample(700, 4, 20).stats);
        snap.unit_labels = vec!["ch0:w0".into(), "ch1:w0".into()];
        let doc = snap.to_json();
        let back = share_telemetry::json::parse(&doc.render()).expect("parses");
        assert_eq!(back.get("sealed").and_then(Json::as_u64), Some(1));
        assert_eq!(back.get("tail_host_writes").and_then(Json::as_u64), Some(1));
        let rows = back.get("epochs").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("host_writes").and_then(Json::as_u64), Some(3));
        assert_eq!(rows[0].get("page_programs").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[0].get("write_p99_ns").and_then(Json::as_u64), Some(480));
        assert!(rows[0].get("read_p99_ns").is_none(), "idle read window omitted");
        assert_eq!(rows[0].get("wear_skew").and_then(Json::as_f64), Some(1.0));
        assert!(rows[0]
            .get("unit_busy_ns")
            .and_then(|u| u.get("ch0:w0"))
            .and_then(Json::as_u64)
            .is_some());
    }
}
