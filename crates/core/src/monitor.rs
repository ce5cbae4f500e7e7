//! The flight recorder: a reader-side sampler that cuts what a device
//! already exports into a time series of epochs.
//!
//! The caller runs [`FlightRecorder::tick`] after every host command. Once
//! the device's simulated clock has passed the next epoch boundary, the
//! tick seals one [`EpochRecord`]: the delta of [`DeviceStats`] and of
//! per-unit busy time since the previous seal, the free-block, wear-skew
//! and in-flight gauges, and the epoch's host read and write latency
//! windows — the bucket-wise difference of the device's per-op histograms
//! between the two seals. A seal reads `stats()`, `clock()` and
//! `telemetry_snapshot()` through [`BlockDevice`]; the device keeps no
//! sampler state, and a recorder that only holds `&D` cannot change what
//! it observes.
//!
//! The newest [`RETAINED_EPOCHS`] records stay; older ones fold into an
//! accumulator, so a [`FlightSnapshot`] keeps the standing guarantee for
//! the whole run:
//!
//! > evicted + retained + current-partial deltas == cumulative counters,
//! > exactly, at every moment.
//!
//! Epochs are clock-driven but sealed lazily at command boundaries. A quiet
//! device crossing several boundary multiples seals a single epoch spanning
//! them rather than a train of empty records.

use crate::device::BlockDevice;
use crate::stats::DeviceStats;
use share_telemetry::json::{count, num, s, Json};
use share_telemetry::metric::Value;
use share_telemetry::{rows_json, Histogram, OpClass};
use std::collections::VecDeque;

/// Sealed epochs a recorder retains; older ones fold into its eviction
/// accumulator, so a long run stays bounded.
pub const RETAINED_EPOCHS: usize = 4096;

/// Host-read op classes: their histograms make an epoch's read window.
const READS: [OpClass; 2] = [OpClass::Read, OpClass::ReadBatch];
/// Host-write op classes: their histograms make an epoch's write window.
const WRITES: [OpClass; 3] = [OpClass::Write, OpClass::WriteBatch, OpClass::WriteAtomic];

/// One sealed epoch: everything is a delta over `[start_ns, end_ns]`.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based, monotonic across evictions).
    pub epoch: u64,
    /// Seal time of the previous epoch (the recorder's start for epoch 0).
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

/// A point-in-time export of a flight recorder's series. Besides
/// [`FlightRecorder::snapshot`], `BlockDevice::monitor_snapshot` returns
/// one: that method's forwarders outside this workspace name the type.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Configured epoch length.
    pub epoch_ns: u64,
    /// Epochs sealed over the run.
    pub sealed: u64,
    /// Sealed epochs no longer retained.
    pub dropped: u64,
    /// Unit index → label (`ch{c}:w{w}`, as the device's snapshot names
    /// its units).
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

/// A device's cumulative readings at one instant: what a seal reads.
#[derive(Debug, Clone, Default)]
struct Reading {
    stats: DeviceStats,
    unit_busy_ns: Vec<u64>,
    free_blocks: u64,
    inflight: u64,
    wear_skew: f64,
    /// Every host read and every host write recorded so far.
    read_hist: Histogram,
    write_hist: Histogram,
}

impl Reading {
    /// Read `dev`. A device without a telemetry snapshot reads as its
    /// counters alone.
    fn of<D: BlockDevice + ?Sized>(dev: &D) -> Self {
        let stats = dev.stats();
        let Some(snap) = dev.telemetry_snapshot() else {
            return Reading { stats, ..Reading::default() };
        };
        let merged = |ops: &[OpClass]| {
            let mut h = Histogram::new();
            for &op in ops {
                h.merge(&snap.op(op).hist);
            }
            h
        };
        Reading {
            stats,
            unit_busy_ns: snap.units.iter().map(|u| u.busy_ns).collect(),
            free_blocks: match snap.metric("free_blocks") {
                Some(Value::U64(v)) => v,
                _ => 0,
            },
            inflight: snap.queue.inflight,
            wear_skew: match snap.metric("wear_skew") {
                Some(Value::F64(v)) => v,
                _ => 0.0,
            },
            read_hist: merged(&READS),
            write_hist: merged(&WRITES),
        }
    }
}

/// The first multiple of `epoch_ns` strictly after `now_ns` (saturating).
fn boundary_after(now_ns: u64, epoch_ns: u64) -> u64 {
    (now_ns / epoch_ns).saturating_add(1).saturating_mul(epoch_ns)
}

/// The sim-clock-driven epoch sampler. It reads a device from outside:
/// the caller hands it the device after every host command.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    epoch_ns: u64,
    /// The newest sealed records, oldest first.
    epochs: VecDeque<EpochRecord>,
    /// First boundary not yet sealed past.
    next_boundary_ns: u64,
    /// Epochs sealed so far (index of the next epoch).
    sealed: u64,
    /// Seal time and readings of the previous seal (zero readings before
    /// the first, so the epoch deltas sum to the cumulative counters).
    base_end_ns: u64,
    base: Reading,
    /// Deltas of the epochs no longer retained, folded together.
    evicted_stats: DeviceStats,
}

impl FlightRecorder {
    /// A recorder sealing every `epoch_ns` of simulated time whose first
    /// epoch starts at `start_ns`. Pass the device's clock from before it
    /// opened, so that epoch 0 holds its recovery.
    pub fn new(epoch_ns: u64, start_ns: u64) -> Self {
        assert!(epoch_ns > 0, "an epoch lasts at least 1 ns");
        FlightRecorder {
            epoch_ns,
            epochs: VecDeque::new(),
            next_boundary_ns: boundary_after(start_ns, epoch_ns),
            sealed: 0,
            base_end_ns: start_ns,
            base: Reading::default(),
            evicted_stats: DeviceStats::default(),
        }
    }

    /// Run after every host command: seals the epoch ending now if `dev`'s
    /// clock has passed the next boundary. Until then it reads the clock
    /// and nothing else.
    pub fn tick<D: BlockDevice + ?Sized>(&mut self, dev: &D) {
        let now = dev.clock().now_ns();
        if now >= self.next_boundary_ns {
            self.seal(now, Reading::of(dev));
        }
    }

    /// Seal the epoch ending at `now`: its deltas cover everything since
    /// the previous seal, and the next boundary is the first multiple of
    /// `epoch_ns` strictly after `now`.
    fn seal(&mut self, now: u64, reading: Reading) {
        let base = &self.base;
        let record = EpochRecord {
            epoch: self.sealed,
            start_ns: self.base_end_ns,
            end_ns: now,
            stats: reading.stats.delta_since(&base.stats),
            free_blocks: reading.free_blocks,
            inflight: reading.inflight,
            wear_skew: reading.wear_skew,
            unit_busy_ns: reading
                .unit_busy_ns
                .iter()
                .enumerate()
                .map(|(i, &b)| b - base.unit_busy_ns.get(i).copied().unwrap_or(0))
                .collect(),
            read_hist: reading.read_hist.delta_since(&base.read_hist),
            write_hist: reading.write_hist.delta_since(&base.write_hist),
        };
        self.epochs.push_back(record);
        if self.epochs.len() > RETAINED_EPOCHS {
            let evicted = self.epochs.pop_front().expect("over capacity");
            self.evicted_stats.accumulate(&evicted.stats);
        }
        self.sealed += 1;
        self.base_end_ns = now;
        self.base = reading;
        self.next_boundary_ns = boundary_after(now, self.epoch_ns);
    }

    /// A point-in-time copy of the series, closed by `dev`'s current
    /// counters: `tail_stats` is the not-yet-sealed partial epoch, so
    /// `evicted + retained + tail` equals the cumulative counters exactly.
    pub fn snapshot<D: BlockDevice + ?Sized>(&self, dev: &D) -> FlightSnapshot {
        let units = dev.telemetry_snapshot().map(|s| s.units).unwrap_or_default();
        let labels = units.iter().map(|u| format!("ch{}:w{}", u.channel, u.way)).collect();
        self.snapshot_at(dev.clock().now_ns(), &dev.stats(), labels)
    }

    fn snapshot_at(&self, now_ns: u64, stats: &DeviceStats, unit_labels: Vec<String>) -> FlightSnapshot {
        FlightSnapshot {
            epoch_ns: self.epoch_ns,
            sealed: self.sealed,
            dropped: self.sealed - self.epochs.len() as u64,
            unit_labels,
            epochs: self.epochs.iter().cloned().collect(),
            evicted_stats: self.evicted_stats,
            tail_start_ns: self.base_end_ns,
            tail_end_ns: now_ns,
            tail_stats: stats.delta_since(&self.base.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Readings at `now` with `writes` host writes and `free` free blocks.
    fn sample(now: u64, writes: u64, free: u64) -> Reading {
        Reading {
            stats: DeviceStats { host_writes: writes, ..Default::default() },
            unit_busy_ns: vec![now / 2, now / 4],
            free_blocks: free,
            inflight: 0,
            wear_skew: 1.0,
            read_hist: Histogram::new(),
            write_hist: Histogram::new(),
        }
    }

    fn snapshot(r: &FlightRecorder, now: u64, stats: &DeviceStats) -> FlightSnapshot {
        r.snapshot_at(now, stats, Vec::new())
    }

    #[test]
    fn seals_deltas_and_spans_idle_gaps() {
        let mut r = FlightRecorder::new(1_000, 0);
        assert_eq!(r.next_boundary_ns, 1_000);
        r.seal(1_200, sample(1_200, 10, 50));
        // Next boundary is the multiple after 1200, i.e. 2000.
        assert_eq!(r.next_boundary_ns, 2_000);
        // A long idle gap seals one spanning epoch at the next command.
        r.seal(7_300, sample(7_300, 25, 40));
        assert_eq!(r.next_boundary_ns, 8_000);
        let snap = snapshot(&r, 7_300, &sample(7_300, 25, 40).stats);
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
    fn a_boundary_near_the_end_of_the_clock_saturates() {
        let r = FlightRecorder::new(1_000, u64::MAX - 10);
        assert_eq!(r.next_boundary_ns, u64::MAX);
    }

    #[test]
    fn keeps_newest_cap_records() {
        let mut r = FlightRecorder::new(100, 0);
        let n = RETAINED_EPOCHS as u64 + 2;
        for i in 1..=n {
            r.seal(i * 100, sample(i * 100, i * 7, 50));
        }
        let snap = snapshot(&r, n * 100, &sample(n * 100, n * 7, 50).stats);
        assert_eq!((snap.sealed, snap.dropped), (n, 2));
        let kept: Vec<_> = snap.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(kept, (2..n).collect::<Vec<_>>(), "oldest evicted in order");
        assert_eq!(snap.evicted_stats.host_writes, 14);
    }

    #[test]
    fn eviction_folds_into_accumulator_exactly() {
        let mut r = FlightRecorder::new(100, 0);
        let n = RETAINED_EPOCHS as u64 + 8;
        for i in 1..=n {
            r.seal(i * 100, sample(i * 100, i * 7, 50));
        }
        let cum = sample(n * 100, n * 7, 50).stats;
        let snap = snapshot(&r, n * 100, &cum);
        assert_eq!(snap.sealed, n);
        assert_eq!(snap.dropped, 8);
        assert_eq!(snap.epochs.len(), RETAINED_EPOCHS);
        // Retained + evicted + tail reproduce the cumulative counters.
        assert_eq!(snap.total_stats(), cum);
        // And the partial tail shows up too.
        let cum2 = sample(n * 100 + 50, n * 7 + 5, 50).stats;
        let snap2 = snapshot(&r, n * 100 + 50, &cum2);
        assert_eq!(snap2.tail_stats.host_writes, 5);
        assert_eq!(snap2.total_stats(), cum2);
    }

    #[test]
    fn seal_records_the_gauges_it_is_handed() {
        let mut r = FlightRecorder::new(1_000, 0);
        r.seal(1_000, sample(1_000, 1, 50));
        let mut smp = sample(2_000, 2, 40);
        smp.write_hist.record(900);
        smp.wear_skew = 3.0;
        r.seal(2_000, smp);
        let snap = snapshot(&r, 2_000, &sample(2_000, 2, 40).stats);
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
    fn windows_split_host_reads_and_writes_and_merge_back_to_the_device_histograms() {
        // Reads are Read + ReadBatch, writes Write + WriteBatch +
        // WriteAtomic; no other class lands in a window. The windows of
        // consecutive seals merge back to the cumulative histograms.
        let cfg = crate::FtlConfig::for_capacity_with(
            1 << 20,
            0.5,
            4096,
            16,
            nand_sim::NandTiming::default(),
        );
        let mut dev = crate::Ftl::new(cfg);
        let mut r = FlightRecorder::new(1, 0);
        let page = vec![7u8; dev.page_size()];
        let mut buf = vec![0u8; dev.page_size()];
        dev.write(crate::Lpn(0), &page).unwrap();
        dev.write_atomic(&[(crate::Lpn(1), &page[..])]).unwrap();
        dev.read(crate::Lpn(0), &mut buf).unwrap();
        dev.flush().unwrap();
        r.tick(&dev);
        dev.write(crate::Lpn(2), &page).unwrap();
        dev.trim(crate::Lpn(2), 1).unwrap();
        r.tick(&dev);
        let snap = r.snapshot(&dev);
        let [first, second] = &snap.epochs[..] else { panic!("want two epochs") };
        assert_eq!((first.read_hist.count, first.write_hist.count), (1, 2));
        assert_eq!((second.read_hist.count, second.write_hist.count), (0, 1));
        let telemetry = dev.telemetry_snapshot().unwrap();
        let mut runwide = Histogram::new();
        for op in WRITES {
            runwide.merge(&telemetry.op(op).hist);
        }
        let mut merged = first.write_hist.clone();
        merged.merge(&second.write_hist);
        assert_eq!(merged, runwide);
        assert_eq!(snap.unit_labels, vec!["ch0:w0".to_string()]);
    }

    #[test]
    fn snapshot_json_renders_and_parses() {
        let mut r = FlightRecorder::new(500, 0);
        let mut smp = sample(500, 3, 20);
        smp.write_hist.record(120);
        smp.write_hist.record(480);
        r.seal(500, smp);
        let snap = r.snapshot_at(
            700,
            &sample(700, 4, 20).stats,
            vec!["ch0:w0".into(), "ch1:w0".into()],
        );
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
