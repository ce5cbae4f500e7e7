//! Time-series flight recorder: per-epoch deltas of everything the device
//! already counts.
//!
//! The FTL calls [`FlightRecorder::due`] with the simulated clock at every
//! command completion; when an epoch boundary has passed it seals one
//! [`EpochRecord`] holding the *delta* of [`DeviceStats`], the per-stream
//! WA-ledger blame, per-unit busy time, free-block headroom and the
//! epoch's latency windows since the previous seal. Records land in a
//! fixed-capacity [`EpochRing`]; evicted epochs fold into an accumulator
//! so the standing guarantee holds for the whole run:
//!
//! > evicted + retained + current-partial deltas == cumulative counters,
//! > exactly, at every moment.
//!
//! Epochs are clock-driven but sealed lazily at command boundaries: the
//! sampler never advances the simulated clock (it only reads values the
//! FTL passes in), so a monitored run is bit-identical to an unmonitored
//! one — same clock, same on-disk image. A quiet device crossing several
//! boundary multiples seals a single epoch spanning them rather than a
//! train of empty records.
//!
//! At each seal the configured [`SloConfig`] thresholds are evaluated
//! against the epoch's observation; fired [`Alert`]s are stored here, put
//! on the telemetry command ring by the FTL, and exported by `sharectl
//! monitor`/`doctor`.

use crate::stats::DeviceStats;
use share_telemetry::json::{count, s, Json};
use share_telemetry::{rows_json, Alert, EpochObservation, EpochRing, Histogram, SloConfig};

/// Hard cap on stored alert events (the ring of epochs is bounded, the
/// alert log should be too; beyond this only the count survives).
const MAX_ALERTS: usize = 4096;

/// Per-stream WA-ledger delta for one epoch: `(foreground write pages,
/// blamed background pages by BlameKind)`, indexed by stream id.
pub type WaDelta = (u64, [u64; 3]);

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
    /// Per-stream WA-ledger deltas, indexed by stream id.
    pub wa: Vec<WaDelta>,
    /// Free data blocks at seal time (gauge, not a delta).
    pub free_blocks: u64,
    /// Queued commands in flight at seal time (gauge).
    pub inflight: u64,
    /// Per-NAND-unit busy-time deltas, indexed like the device's units.
    pub unit_busy_ns: Vec<u64>,
    /// Host-read latency window for this epoch.
    pub read_hist: Histogram,
    /// Host-write latency window for this epoch.
    pub write_hist: Histogram,
    /// Alerts the SLO engine fired at this epoch's boundary.
    pub alerts: Vec<Alert>,
}

impl EpochRecord {
    /// JSON form (one row of `sharectl monitor --format json`). `labels`
    /// names the stream ids, `unit_labels` the NAND units.
    pub fn to_json(&self, labels: &[String], unit_labels: &[String]) -> Json {
        let wa = Json::Obj(
            self.wa
                .iter()
                .enumerate()
                .filter(|(_, &(fg, bg))| fg != 0 || bg != [0; 3])
                .map(|(i, &(fg, bg))| {
                    let label = labels
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| format!("stream{i}"));
                    (
                        label,
                        Json::obj(vec![
                            ("fg_pages", count(fg)),
                            ("bg_gc", count(bg[0])),
                            ("bg_log", count(bg[1])),
                            ("bg_ckpt", count(bg[2])),
                        ]),
                    )
                })
                .collect(),
        );
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
        push("wa", wa);
        push("unit_busy_ns", units);
        if !self.read_hist.is_empty() {
            push("read_p50_ns", count(self.read_hist.quantile(0.50)));
            push("read_p99_ns", count(self.read_hist.quantile(0.99)));
        }
        if !self.write_hist.is_empty() {
            push("write_p50_ns", count(self.write_hist.quantile(0.50)));
            push("write_p99_ns", count(self.write_hist.quantile(0.99)));
        }
        if !self.alerts.is_empty() {
            push("alerts", Json::Arr(self.alerts.iter().map(Alert::to_json).collect()));
        }
        Json::Obj(fields)
    }
}

/// What the FTL samples and hands to [`FlightRecorder::seal`] — all plain
/// read-outs of state the device already tracks.
#[derive(Debug, Clone)]
pub struct EpochSample {
    /// Simulated clock now.
    pub now_ns: u64,
    /// Cumulative device counters now.
    pub stats: DeviceStats,
    /// Cumulative per-stream WA ledger now (`Telemetry::wa_raw`).
    pub wa: Vec<WaDelta>,
    /// Cumulative per-unit busy time now.
    pub unit_busy_ns: Vec<u64>,
    /// Free data blocks (gauge).
    pub free_blocks: u64,
    /// Queued commands in flight (gauge).
    pub inflight: u64,
    /// Wear skew now (for the SLO engine).
    pub wear_skew: f64,
    /// Remaining-life fraction now (for the SLO engine).
    pub remaining_life: f64,
    /// This epoch's latency windows (`Telemetry::take_epoch_windows`).
    pub read_hist: Histogram,
    pub write_hist: Histogram,
}

/// What one seal produced, for the FTL to forward (alerts onto the
/// command ring, the busy row into the tracer's utilization series).
#[derive(Debug, Clone)]
pub struct SealOutcome {
    /// Index of the epoch just sealed.
    pub epoch: u64,
    /// Its seal time.
    pub end_ns: u64,
    /// Alerts fired at this boundary.
    pub alerts: Vec<Alert>,
    /// The epoch's per-unit busy deltas (same row stored in the record).
    pub unit_busy_ns: Vec<u64>,
}

/// The sim-clock-driven epoch sampler owned by one device.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    epoch_ns: u64,
    slo: SloConfig,
    ring: EpochRing<EpochRecord>,
    /// First boundary not yet sealed past.
    next_boundary_ns: u64,
    /// Epochs sealed so far (index of the next epoch).
    sealed: u64,
    /// Read-outs at the previous seal (zeros at creation, so the sum of
    /// all epoch deltas equals the cumulative counters from zero).
    base_end_ns: u64,
    base_stats: DeviceStats,
    base_wa: Vec<WaDelta>,
    base_busy: Vec<u64>,
    /// Deltas of epochs that rolled off the ring, folded together.
    evicted_stats: DeviceStats,
    evicted_wa: Vec<WaDelta>,
    /// Every alert fired, capped at [`MAX_ALERTS`] stored events.
    alerts: Vec<Alert>,
    alerts_dropped: u64,
}

impl FlightRecorder {
    /// A recorder sealing every `epoch_ns` of simulated time into a ring
    /// of `ring_cap` records, starting its first epoch at `start_ns`.
    pub fn new(epoch_ns: u64, ring_cap: usize, slo: SloConfig, start_ns: u64) -> Self {
        debug_assert!(epoch_ns > 0);
        FlightRecorder {
            epoch_ns,
            slo,
            ring: EpochRing::new(ring_cap),
            next_boundary_ns: (start_ns / epoch_ns + 1) * epoch_ns,
            sealed: 0,
            base_end_ns: start_ns,
            base_stats: DeviceStats::default(),
            base_wa: Vec::new(),
            base_busy: Vec::new(),
            evicted_stats: DeviceStats::default(),
            evicted_wa: Vec::new(),
            alerts: Vec::new(),
            alerts_dropped: 0,
        }
    }

    /// The configured epoch length.
    pub fn epoch_ns(&self) -> u64 {
        self.epoch_ns
    }

    /// The configured thresholds.
    pub fn slo(&self) -> SloConfig {
        self.slo
    }

    /// Whether the clock has crossed the next epoch boundary (i.e. a
    /// `seal` is owed). Pure read — never advances anything.
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_boundary_ns
    }

    /// Seal the epoch ending now. The record's deltas cover everything
    /// since the previous seal; the next boundary is the first multiple of
    /// `epoch_ns` strictly after `sample.now_ns` (a long-idle device seals
    /// one spanning epoch, not a train of empty ones).
    pub fn seal(&mut self, sample: EpochSample) -> SealOutcome {
        let now = sample.now_ns;
        let stats_delta = sample.stats.delta_since(&self.base_stats);
        let wa_delta = diff_wa(&sample.wa, &self.base_wa);
        let busy_delta: Vec<u64> = sample
            .unit_busy_ns
            .iter()
            .enumerate()
            .map(|(i, &b)| b - self.base_busy.get(i).copied().unwrap_or(0))
            .collect();

        let obs = EpochObservation {
            epoch: self.sealed,
            end_ns: now,
            write_p99_ns: (!sample.write_hist.is_empty())
                .then(|| sample.write_hist.quantile(0.99)),
            read_p99_ns: (!sample.read_hist.is_empty())
                .then(|| sample.read_hist.quantile(0.99)),
            gc_stall_delta_ns: stats_delta.gc_stall_ns,
            free_blocks: sample.free_blocks,
            wear_skew: sample.wear_skew,
            remaining_life: sample.remaining_life,
        };
        let fired = self.slo.evaluate(&obs);
        for &a in &fired {
            if self.alerts.len() < MAX_ALERTS {
                self.alerts.push(a);
            } else {
                self.alerts_dropped += 1;
            }
        }

        let record = EpochRecord {
            epoch: self.sealed,
            start_ns: self.base_end_ns,
            end_ns: now,
            stats: stats_delta,
            wa: wa_delta,
            free_blocks: sample.free_blocks,
            inflight: sample.inflight,
            unit_busy_ns: busy_delta.clone(),
            read_hist: sample.read_hist,
            write_hist: sample.write_hist,
            alerts: fired.clone(),
        };
        if let Some(evicted) = self.ring.push(record) {
            self.evicted_stats.accumulate(&evicted.stats);
            accumulate_wa(&mut self.evicted_wa, &evicted.wa);
        }

        let outcome = SealOutcome {
            epoch: self.sealed,
            end_ns: now,
            alerts: fired,
            unit_busy_ns: busy_delta,
        };
        self.sealed += 1;
        self.base_end_ns = now;
        self.base_stats = sample.stats;
        self.base_wa = sample.wa;
        self.base_busy = sample.unit_busy_ns;
        self.next_boundary_ns = (now / self.epoch_ns + 1) * self.epoch_ns;
        outcome
    }

    /// Every alert fired so far (capped; see `alerts_dropped`).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// A point-in-time copy of the series. `sample`-like read-outs of the
    /// *current* cumulative state close the books: `tail_stats` is the
    /// not-yet-sealed partial epoch, so `evicted + retained + tail` equals
    /// the cumulative counters exactly.
    pub fn snapshot(&self, now_ns: u64, stats: &DeviceStats, wa: &[WaDelta]) -> FlightSnapshot {
        FlightSnapshot {
            epoch_ns: self.epoch_ns,
            sealed: self.sealed,
            dropped: self.ring.evicted(),
            labels: Vec::new(),
            unit_labels: Vec::new(),
            epochs: self.ring.iter().cloned().collect(),
            evicted_stats: self.evicted_stats,
            evicted_wa: self.evicted_wa.clone(),
            tail_start_ns: self.base_end_ns,
            tail_end_ns: now_ns,
            tail_stats: stats.delta_since(&self.base_stats),
            tail_wa: diff_wa(wa, &self.base_wa),
            alerts: self.alerts.clone(),
            alerts_dropped: self.alerts_dropped,
        }
    }
}

/// Element-wise `current - base` over per-stream WA rows; streams interned
/// after the base was taken diff against zero.
fn diff_wa(current: &[WaDelta], base: &[WaDelta]) -> Vec<WaDelta> {
    current
        .iter()
        .enumerate()
        .map(|(i, &(fg, bg))| {
            let (bfg, bbg) = base.get(i).copied().unwrap_or((0, [0; 3]));
            (fg - bfg, [bg[0] - bbg[0], bg[1] - bbg[1], bg[2] - bbg[2]])
        })
        .collect()
}

/// Element-wise `acc += delta`, growing `acc` as streams appear.
fn accumulate_wa(acc: &mut Vec<WaDelta>, delta: &[WaDelta]) {
    if acc.len() < delta.len() {
        acc.resize(delta.len(), (0, [0; 3]));
    }
    for (a, &(fg, bg)) in acc.iter_mut().zip(delta) {
        a.0 += fg;
        a.1[0] += bg[0];
        a.1[1] += bg[1];
        a.1[2] += bg[2];
    }
}

/// A point-in-time export of the flight recorder's series.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Configured epoch length.
    pub epoch_ns: u64,
    /// Epochs sealed over the run.
    pub sealed: u64,
    /// Sealed epochs that rolled off the ring.
    pub dropped: u64,
    /// Stream id → label (filled by the device).
    pub labels: Vec<String>,
    /// Unit index → label (filled by the device).
    pub unit_labels: Vec<String>,
    /// Retained epochs, oldest first.
    pub epochs: Vec<EpochRecord>,
    /// Folded deltas of the dropped epochs.
    pub evicted_stats: DeviceStats,
    /// Folded per-stream WA deltas of the dropped epochs.
    pub evicted_wa: Vec<WaDelta>,
    /// Start of the current partial epoch (last seal time).
    pub tail_start_ns: u64,
    /// Snapshot time.
    pub tail_end_ns: u64,
    /// Deltas accumulated since the last seal (the partial epoch).
    pub tail_stats: DeviceStats,
    /// Per-stream WA deltas since the last seal.
    pub tail_wa: Vec<WaDelta>,
    /// Every alert fired (capped).
    pub alerts: Vec<Alert>,
    /// Alerts beyond the cap (count only).
    pub alerts_dropped: u64,
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

    /// Same exact-sum property for one stream's WA-ledger row.
    pub fn total_wa(&self) -> Vec<WaDelta> {
        let mut total = self.evicted_wa.clone();
        for e in &self.epochs {
            accumulate_wa(&mut total, &e.wa);
        }
        accumulate_wa(&mut total, &self.tail_wa);
        total
    }

    /// JSON document: meta fields plus one row per retained epoch.
    pub fn to_json(&self) -> Json {
        let epochs = Json::Arr(
            self.epochs
                .iter()
                .map(|e| e.to_json(&self.labels, &self.unit_labels))
                .collect(),
        );
        Json::obj(vec![
            ("epoch_ns", count(self.epoch_ns)),
            ("sealed", count(self.sealed)),
            ("dropped", count(self.dropped)),
            ("streams", Json::Arr(self.labels.iter().map(|l| s(l)).collect())),
            ("units", Json::Arr(self.unit_labels.iter().map(|l| s(l)).collect())),
            ("tail_start_ns", count(self.tail_start_ns)),
            ("tail_end_ns", count(self.tail_end_ns)),
            ("tail_host_writes", count(self.tail_stats.host_writes)),
            ("alerts", Json::Arr(self.alerts.iter().map(Alert::to_json).collect())),
            ("alerts_dropped", count(self.alerts_dropped)),
            ("epochs", epochs),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(now: u64, writes: u64, free: u64) -> EpochSample {
        EpochSample {
            now_ns: now,
            stats: DeviceStats { host_writes: writes, ..Default::default() },
            wa: vec![(writes, [0; 3])],
            unit_busy_ns: vec![now / 2, now / 4],
            free_blocks: free,
            inflight: 0,
            wear_skew: 1.0,
            remaining_life: 1.0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
        }
    }

    #[test]
    fn seals_deltas_and_spans_idle_gaps() {
        let mut r = FlightRecorder::new(1_000, 8, SloConfig::default(), 0);
        assert!(!r.due(999));
        assert!(r.due(1_000));
        let o1 = r.seal(sample(1_200, 10, 50));
        assert_eq!(o1.epoch, 0);
        assert_eq!(o1.unit_busy_ns, vec![600, 300]);
        // Next boundary is the multiple after 1200, i.e. 2000.
        assert!(!r.due(1_999));
        // A long idle gap seals one spanning epoch at the next command.
        let o2 = r.seal(sample(7_300, 25, 40));
        assert_eq!(o2.epoch, 1);
        assert!(!r.due(7_999));
        assert!(r.due(8_000));
        let snap = r.snapshot(7_300, &sample(7_300, 25, 40).stats, &[(25, [0; 3])]);
        assert_eq!(snap.sealed, 2);
        assert_eq!(snap.epochs.len(), 2);
        assert_eq!(snap.epochs[0].stats.host_writes, 10);
        assert_eq!(snap.epochs[1].stats.host_writes, 15);
        assert_eq!(snap.epochs[1].start_ns, 1_200);
        assert_eq!(snap.epochs[1].end_ns, 7_300);
        assert_eq!(snap.epochs[1].unit_busy_ns, vec![3_650 - 600, 1_825 - 300]);
        assert_eq!(snap.tail_stats, DeviceStats::default());
        assert_eq!(snap.total_stats().host_writes, 25);
        assert_eq!(snap.total_wa()[0], (25, [0; 3]));
    }

    #[test]
    fn eviction_folds_into_accumulator_exactly() {
        let mut r = FlightRecorder::new(100, 2, SloConfig::default(), 0);
        for i in 1..=10u64 {
            r.seal(sample(i * 100, i * 7, 50));
        }
        let cum = sample(1_000, 70, 50).stats;
        let snap = r.snapshot(1_000, &cum, &[(70, [0; 3])]);
        assert_eq!(snap.sealed, 10);
        assert_eq!(snap.dropped, 8);
        assert_eq!(snap.epochs.len(), 2);
        // Retained + evicted + tail reproduce the cumulative counters.
        assert_eq!(snap.total_stats(), cum);
        assert_eq!(snap.total_wa(), vec![(70, [0; 3])]);
        // And the partial tail shows up too.
        let cum2 = sample(1_050, 75, 50).stats;
        let snap2 = r.snapshot(1_050, &cum2, &[(75, [0; 3])]);
        assert_eq!(snap2.tail_stats.host_writes, 5);
        assert_eq!(snap2.total_stats(), cum2);
    }

    #[test]
    fn slo_fires_on_seal_and_lands_in_record_and_log() {
        let slo = SloConfig { free_block_floor: Some(45), ..Default::default() };
        let mut r = FlightRecorder::new(1_000, 8, slo, 0);
        let ok = r.seal(sample(1_000, 1, 50));
        assert!(ok.alerts.is_empty());
        let bad = r.seal(sample(2_000, 2, 40));
        assert_eq!(bad.alerts.len(), 1);
        assert_eq!(bad.alerts[0].kind, share_telemetry::AlertKind::FreeBlocks);
        assert_eq!(bad.alerts[0].epoch, 1);
        assert_eq!(r.alerts()[0].severity, share_telemetry::AlertSeverity::Critical);
        let snap = r.snapshot(2_000, &sample(2_000, 2, 40).stats, &[(2, [0; 3])]);
        assert_eq!(snap.alerts.len(), 1);
        assert!(snap.epochs[0].alerts.is_empty());
        assert_eq!(snap.epochs[1].alerts.len(), 1);
        let free: Vec<_> = snap.epochs.iter().map(|e| (e.end_ns, e.free_blocks)).collect();
        assert_eq!(free, vec![(1_000, 50), (2_000, 40)]);
    }

    #[test]
    fn snapshot_json_renders_and_parses() {
        let mut r = FlightRecorder::new(500, 4, SloConfig::default(), 0);
        let mut smp = sample(500, 3, 20);
        smp.write_hist.record(120);
        smp.write_hist.record(480);
        r.seal(smp);
        let mut snap = r.snapshot(700, &sample(700, 4, 20).stats, &[(4, [0; 3])]);
        snap.labels = vec!["host".into()];
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
        assert!(rows[0]
            .get("unit_busy_ns")
            .and_then(|u| u.get("ch0:w0"))
            .and_then(Json::as_u64)
            .is_some());
        assert!(rows[0].get("wa").and_then(|w| w.get("host")).is_some());
    }
}
