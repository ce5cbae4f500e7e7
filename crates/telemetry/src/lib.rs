//! Device-level observability for the SHARE reproduction.
//!
//! The paper's evaluation is observational — Figure 6's host-write / GC /
//! copyback breakdown and Table 1's per-transaction percentiles. The
//! counts are the device's `DeviceStats` rows; this crate keeps what a
//! counter cannot hold:
//!
//! * log2-bucketed latency [`hist::Histogram`]s per op class in simulated
//!   `SimClock` nanoseconds (always on: a bucket add per command),
//! * one exporter: the JSON document [`Snapshot::to_json`], built on the
//!   in-crate [`json`] module.
//!
//! Each observation has one home. A command count is a `DeviceStats` row
//! (or its op's histogram count); a command's op, pages and times are its
//! span in the [`trace::Tracer`]. A window of any of it is the reader's to
//! take: read the cumulative rows at its two ends and subtract.
//!
//! Telemetry only ever *reads* the simulated clock — it never advances it —
//! so enabling any of it cannot change simulated results: crash-sweep
//! triples and bench numbers stay bit-identical.

pub mod hist;
pub mod json;
pub mod metric;
pub mod percentile;
pub mod trace;

pub use hist::Histogram;
pub use metric::{rows_json, Metric};
pub use percentile::percentile_sorted;
pub use trace::{Layer, Span, SpanId, Track, Tracer};

use json::Json;
use metric::Value;

/// Command classes recorded at the FTL boundary. Host-facing classes map
/// 1:1 onto `BlockDevice` methods; `Gc`, `LogFlush`, `Checkpoint` and
/// `Recovery` are the FTL's internal passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    Read,
    Write,
    Trim,
    Flush,
    Share,
    ReadBatch,
    WriteBatch,
    ShareBatch,
    WriteAtomic,
    Gc,
    LogFlush,
    Checkpoint,
    Recovery,
}

impl OpClass {
    /// Every op class, in stable export order.
    pub const ALL: [OpClass; 13] = [
        OpClass::Read,
        OpClass::Write,
        OpClass::Trim,
        OpClass::Flush,
        OpClass::Share,
        OpClass::ReadBatch,
        OpClass::WriteBatch,
        OpClass::ShareBatch,
        OpClass::WriteAtomic,
        OpClass::Gc,
        OpClass::LogFlush,
        OpClass::Checkpoint,
        OpClass::Recovery,
    ];

    /// Dense index into per-op arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable export name (the JSON key of the op's latency histogram).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Trim => "trim",
            OpClass::Flush => "flush",
            OpClass::Share => "share",
            OpClass::ReadBatch => "read_batch",
            OpClass::WriteBatch => "write_batch",
            OpClass::ShareBatch => "share_batch",
            OpClass::WriteAtomic => "write_atomic",
            OpClass::Gc => "gc",
            OpClass::LogFlush => "log_flush",
            OpClass::Checkpoint => "checkpoint",
            OpClass::Recovery => "recovery",
        }
    }
}

/// What to collect beyond the always-on latency histograms.
///
/// The default keeps everything optional off: a device with default
/// telemetry adds a histogram bucket add per command and cannot perturb
/// any simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record causal spans ([`trace::Tracer`]) through every layer.
    pub trace: bool,
}

impl TelemetryConfig {
    /// Span tracing on.
    pub fn tracing() -> Self {
        Self { trace: true }
    }
}

const NUM_OPS: usize = OpClass::ALL.len();

/// The telemetry state owned by one device (one `Ftl`).
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Per op class, in [`OpClass::ALL`] order.
    hists: Vec<Histogram>,
}

impl Telemetry {
    /// Record one completed command: its latency lands in `op`'s
    /// histogram.
    ///
    /// `start_ns`/`end_ns` are simulated clock read-outs taken around the
    /// command body; telemetry itself never advances the clock.
    pub fn record(&mut self, op: OpClass, start_ns: u64, end_ns: u64) {
        self.hists[op.index()].record(end_ns.saturating_sub(start_ns));
    }

    /// A point-in-time copy of everything collected so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ops: OpClass::ALL
                .iter()
                .map(|&op| OpSnapshot { op, hist: self.hists[op.index()].clone() })
                .collect(),
            units: Vec::new(),
            now_ns: 0,
            queue: QueueGauges::default(),
            metrics: Vec::new(),
        }
    }
}

impl Default for Telemetry {
    /// Fresh telemetry: empty histograms.
    fn default() -> Self {
        Self { hists: vec![Histogram::new(); NUM_OPS] }
    }
}

/// One op class in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSnapshot {
    /// The op class.
    pub op: OpClass,
    /// Its latency histogram; `hist.count` is the commands recorded.
    pub hist: Histogram,
}

/// Submission/completion-queue gauges in a [`Snapshot`]. All zero on
/// devices without a queued command path (bare `Telemetry` snapshots too);
/// the device owning the queue fills them in at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueGauges {
    /// Configured submission-queue depth (0 = queueing unsupported).
    pub depth: u64,
    /// Commands submitted but not yet reaped, at snapshot time.
    pub inflight: u64,
    /// High-water mark of `inflight` over the device's lifetime.
    pub max_inflight: u64,
    /// Total queued commands submitted.
    pub submitted: u64,
    /// Total completions reaped by the host.
    pub reaped: u64,
}

impl QueueGauges {
    /// The queue's exported rows.
    pub fn rows(&self) -> Vec<Metric> {
        vec![
            Metric::int("queue_depth", self.depth),
            Metric::int("queue_inflight", self.inflight),
            Metric::int("queue_inflight_max", self.max_inflight),
            Metric::int("queue_submitted", self.submitted),
            Metric::int("queue_reaped", self.reaped),
        ]
    }
}

/// One NAND unit's utilization in a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitUtilization {
    /// Channel index.
    pub channel: u32,
    /// Way index within the channel.
    pub way: u32,
    /// Cumulative simulated time this unit spent servicing operations.
    pub busy_ns: u64,
}

/// A point-in-time copy of a device's telemetry, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Per-op-class latency histograms, in [`OpClass::ALL`] order.
    pub ops: Vec<OpSnapshot>,
    /// Per-NAND-unit busy time (filled in by the device, which owns the
    /// array; empty for bare `Telemetry` snapshots).
    pub units: Vec<UnitUtilization>,
    /// Simulated clock at snapshot time (0 for bare `Telemetry`
    /// snapshots); with `units`, yields busy/idle utilization.
    pub now_ns: u64,
    /// Submission/completion-queue gauges (filled by the device; all
    /// zero for bare `Telemetry` snapshots and sync-only devices).
    pub queue: QueueGauges,
    /// Every device scalar as one row list: the `DeviceStats`/`NandStats`
    /// counters, WAF, and the queue, snapshot-table and wear readings
    /// (filled by the device; empty for bare `Telemetry` snapshots). The
    /// JSON export walks it.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// The entry for one op class.
    pub fn op(&self, op: OpClass) -> &OpSnapshot {
        &self.ops[op.index()]
    }

    /// The reading of one [`Snapshot::metrics`] row, by name.
    pub fn metric(&self, name: &str) -> Option<Value> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        use json::count;
        let latency = Json::Obj(
            self.ops.iter().map(|o| (o.op.name().to_string(), hist_json(&o.hist))).collect(),
        );
        let units = Json::Obj(
            self.units
                .iter()
                .map(|u| {
                    (
                        format!("ch{}:w{}", u.channel, u.way),
                        Json::obj(vec![("busy_ns", count(u.busy_ns))]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("now_ns", count(self.now_ns)),
            ("latency_ns", latency),
            ("units", units),
            ("metrics", Json::Obj(rows_json(&self.metrics))),
        ])
    }
}

/// A histogram's summary and its non-empty buckets, each as
/// `[inclusive upper bound, samples]` in bucket order.
fn hist_json(h: &Histogram) -> Json {
    use json::count;
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(k, &n)| Json::Arr(vec![count(hist::bucket_upper_bound(k)), count(n)]))
        .collect();
    Json::obj(vec![
        ("count", count(h.count)),
        ("sum", count(h.sum)),
        ("min", count(h.min)),
        ("max", count(h.max)),
        ("p50", count(h.quantile(0.50))),
        ("p95", count(h.quantile(0.95))),
        ("p99", count(h.quantile(0.99))),
        ("buckets", Json::Arr(buckets)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_counters_only() {
        // The default turns tracing off; the histograms record anyway.
        assert!(!TelemetryConfig::default().trace);
        assert!(TelemetryConfig::tracing().trace);
        let mut t = Telemetry::default();
        t.record(OpClass::Write, 100, 200);
        let snap = t.snapshot();
        assert_eq!(snap.op(OpClass::Write).hist.count, 1);
        assert_eq!(snap.op(OpClass::Write).hist.sum, 100);
    }

    #[test]
    fn full_config_records_hist_and_ring() {
        let mut t = Telemetry::default();
        t.record(OpClass::Read, 0, 50);
        t.record(OpClass::Read, 50, 150);
        let snap = t.snapshot();
        let h = &snap.op(OpClass::Read).hist;
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 50);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let mut t = Telemetry::default();
        t.record(OpClass::Write, 10, 30);
        t.record(OpClass::Checkpoint, 30, 90);
        let doc = t.snapshot().to_json();
        let back = json::parse(&doc.render()).expect("snapshot json parses");
        let latency = back.get("latency_ns").expect("latency_ns");
        let field = |op: &str, f: &str| latency.get(op).and_then(|o| o.get(f)).and_then(Json::as_u64);
        assert_eq!(field("write", "count"), Some(1));
        assert_eq!(field("checkpoint", "max"), Some(60));
        assert_eq!(field("read", "count"), Some(0));
        // All op classes are present.
        if let Json::Obj(fields) = latency {
            assert_eq!(fields.len(), OpClass::ALL.len());
        } else {
            panic!("latency_ns must be an object");
        }
    }

    #[test]
    fn snapshot_json_carries_units_and_rows() {
        // A bare snapshot has no device rows and no units; a device's
        // rows and per-unit busy time come out under their names.
        let mut snap = Telemetry::default().snapshot();
        let bare = json::parse(&snap.to_json().render()).unwrap();
        assert_eq!(bare.get("metrics"), Some(&Json::Obj(Vec::new())));
        snap.units = vec![
            UnitUtilization { channel: 0, way: 0, busy_ns: 500 },
            UnitUtilization { channel: 1, way: 0, busy_ns: 250 },
        ];
        snap.now_ns = 1_000;
        snap.metrics =
            QueueGauges { depth: 16, inflight: 3, max_inflight: 9, submitted: 120, reaped: 117 }
                .rows();
        snap.metrics.push(Metric::ratio("wear_erases_mean", 15.8125));
        let doc = json::parse(&snap.to_json().render()).unwrap();
        let unit = |u: &str| doc.get("units").and_then(|us| us.get(u)?.get("busy_ns")?.as_u64());
        assert_eq!((unit("ch0:w0"), unit("ch1:w0")), (Some(500), Some(250)));
        assert_eq!(doc.get("now_ns").and_then(Json::as_u64), Some(1_000));
        let metrics = doc.get("metrics").unwrap();
        let row = |k: &str| metrics.get(k).and_then(Json::as_u64);
        assert_eq!(row("queue_depth"), Some(16));
        assert_eq!(row("queue_inflight"), Some(3));
        assert_eq!(row("queue_inflight_max"), Some(9));
        assert_eq!(row("queue_submitted"), Some(120));
        assert_eq!(row("queue_reaped"), Some(117));
        assert_eq!(metrics.get("wear_erases_mean").and_then(Json::as_f64), Some(15.8125));
        assert_eq!(snap.metric("queue_depth"), Some(Value::U64(16)));
    }
}
