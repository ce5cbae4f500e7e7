//! Device-level observability for the SHARE reproduction.
//!
//! The paper's evaluation is observational — Figure 6's host-write / GC /
//! copyback breakdown and Table 1's per-transaction percentiles. The
//! counts are the device's `DeviceStats` rows; this crate keeps what a
//! counter cannot hold:
//!
//! * log2-bucketed latency [`hist::Histogram`]s per op class in simulated
//!   `SimClock` nanoseconds (always on: a bucket add per command),
//! * per-epoch host read/write latency windows for the device's flight
//!   recorder (on only when its epoch sampler is),
//! * the per-stream write-amplification ledger (engines tag files with
//!   logical stream labels; each stream's foreground pages and the
//!   background pages blamed on it, with the FTL's own on a reserved `ftl`
//!   stream),
//! * exporters: Prometheus-style text ([`Snapshot::to_prometheus`]) and
//!   JSON ([`Snapshot::to_json`]) built on the in-crate [`json`] module.
//!
//! Each observation has one home. A command count is a `DeviceStats` row
//! (or its op's histogram count); a command's op, stream, pages and times
//! are its span in the [`trace::Tracer`]; per-epoch unit busy time is the
//! flight recorder's epoch record.
//!
//! Telemetry only ever *reads* the simulated clock — it never advances it —
//! so enabling any of it cannot change simulated results: crash-sweep
//! triples and bench numbers stay bit-identical.

pub mod hist;
pub mod json;
pub mod metric;
pub mod percentile;
pub mod prom;
pub mod trace;

pub use hist::Histogram;
pub use metric::{rows_json, Metric};
pub use percentile::percentile_sorted;
pub use trace::{apportion, Layer, Span, SpanId, Track, Tracer};

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

/// Traffic direction of an op class: write-direction commands add
/// foreground pages to the stream ledger, and reads and writes feed the
/// flight recorder's epoch windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Read,
    Write,
    Other,
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

    /// Stable export name (used as the Prometheus `op` label and JSON key).
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

    /// The class's traffic direction.
    #[inline]
    pub fn direction(self) -> Direction {
        match self {
            OpClass::Read | OpClass::ReadBatch => Direction::Read,
            OpClass::Write | OpClass::WriteBatch | OpClass::WriteAtomic => Direction::Write,
            _ => Direction::Other,
        }
    }
}

/// What to collect beyond the always-on latency histograms and stream
/// ledger.
///
/// The default keeps everything optional off: a device with default
/// telemetry adds a histogram bucket add per command and cannot perturb
/// any simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record causal spans ([`trace::Tracer`]) through every layer.
    pub trace: bool,
    /// Flight-recorder epoch length in simulated nanoseconds (0 disables
    /// the epoch sampler entirely — the default, and what `tracing()`
    /// keeps, so monitoring stays strictly opt-in).
    pub epoch_ns: u64,
    /// How many sealed epoch records the flight recorder retains; older
    /// epochs fold into its eviction accumulator.
    pub epoch_ring: usize,
}

impl TelemetryConfig {
    /// Span tracing on; the epoch sampler stays off.
    pub fn tracing() -> Self {
        Self { trace: true, ..Self::default() }
    }

    /// Longitudinal monitoring: tracing plus the epoch sampler at the
    /// given interval, retaining 4096 epochs.
    pub fn monitoring(epoch_ns: u64) -> Self {
        Self { epoch_ns, epoch_ring: 4096, ..Self::tracing() }
    }
}

/// Why a background NAND program happened — the WA ledger's cause axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlameKind {
    /// GC relocation (copyback) of a still-live page.
    Gc,
    /// Mapping-delta log flush.
    LogFlush,
    /// Checkpoint image write.
    Checkpoint,
}

impl BlameKind {
    /// Stable export name (Prometheus `cause` label and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            BlameKind::Gc => "gc",
            BlameKind::LogFlush => "log_flush",
            BlameKind::Checkpoint => "checkpoint",
        }
    }
}

/// Reserved stream id for host traffic with no finer attribution.
const STREAM_HOST: u32 = 0;
/// Reserved stream id for the FTL's internal traffic (GC, log, checkpoint).
pub const STREAM_FTL: u32 = 1;

const NUM_OPS: usize = OpClass::ALL.len();

/// The telemetry state owned by one device (one `Ftl`).
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Per op class, in [`OpClass::ALL`] order.
    hists: Vec<Histogram>,
    /// The per-stream table, in intern order: each stream's label and its
    /// write-amplification ledger row.
    streams: Vec<WaStreamSnapshot>,
    current_stream: u32,
    /// Open per-epoch latency windows (host reads / host writes), drained
    /// by the flight recorder at each epoch boundary via
    /// [`Histogram::reset_returning`]. Only recorded when `epoch_ns > 0`.
    win_read: Histogram,
    win_write: Histogram,
}

impl Telemetry {
    /// Fresh telemetry with the reserved `host` and `ftl` streams interned.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mut t = Self {
            cfg,
            hists: vec![Histogram::new(); NUM_OPS],
            streams: Vec::new(),
            current_stream: STREAM_HOST,
            win_read: Histogram::new(),
            win_write: Histogram::new(),
        };
        t.intern("host");
        t.intern("ftl");
        t
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Intern a stream label, returning its id (stable for the device's
    /// lifetime). Re-interning an existing label returns the same id.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(i) = self.streams.iter().position(|s| s.label == label) {
            return i as u32;
        }
        self.streams.push(WaStreamSnapshot {
            label: label.to_string(),
            fg_pages: 0,
            bg_gc: 0,
            bg_log: 0,
            bg_ckpt: 0,
        });
        (self.streams.len() - 1) as u32
    }

    /// Attribute subsequent host commands to `stream`. Unknown ids fall
    /// back to [`STREAM_HOST`].
    pub fn set_stream(&mut self, stream: u32) {
        self.current_stream = if (stream as usize) < self.streams.len() {
            stream
        } else {
            STREAM_HOST
        };
    }

    /// The stream host commands are currently attributed to.
    pub fn current_stream(&self) -> u32 {
        self.current_stream
    }

    /// Record one completed command: its latency lands in `op`'s
    /// histogram and, while the epoch sampler runs, in the epoch's read or
    /// write window. A successful write-direction command adds its `pages`
    /// to the current stream's foreground pages in the WA ledger.
    ///
    /// `start_ns`/`end_ns` are simulated clock read-outs taken around the
    /// command body; telemetry itself never advances the clock.
    pub fn record(&mut self, op: OpClass, pages: u64, start_ns: u64, end_ns: u64, ok: bool) {
        let ns = end_ns.saturating_sub(start_ns);
        self.hists[op.index()].record(ns);
        let dir = op.direction();
        if ok && dir == Direction::Write {
            self.streams[self.current_stream as usize].fg_pages += pages;
        }
        if self.cfg.epoch_ns > 0 {
            match dir {
                Direction::Read => self.win_read.record(ns),
                Direction::Write => self.win_write.record(ns),
                Direction::Other => {}
            }
        }
    }

    /// Blame `pages` background NAND programs of cause `kind` on `stream`
    /// (WA ledger). Unknown stream ids fall back to [`STREAM_FTL`].
    pub fn blame(&mut self, stream: u32, kind: BlameKind, pages: u64) {
        let idx = if (stream as usize) < self.streams.len() { stream } else { STREAM_FTL };
        let row = &mut self.streams[idx as usize];
        *match kind {
            BlameKind::Gc => &mut row.bg_gc,
            BlameKind::LogFlush => &mut row.bg_log,
            BlameKind::Checkpoint => &mut row.bg_ckpt,
        } += pages;
    }

    /// Total background pages blamed across all streams (ledger side of
    /// the exact-sum invariant).
    pub fn blamed_total(&self) -> u64 {
        self.streams.iter().map(WaStreamSnapshot::bg_total).sum()
    }

    /// Raw per-stream WA-ledger state, in intern order: each entry is
    /// `(foreground write pages, blamed background pages by BlameKind)`.
    /// The flight recorder diffs consecutive read-outs to attribute each
    /// epoch's background traffic.
    pub fn wa_raw(&self) -> Vec<(u64, [u64; 3])> {
        self.streams.iter().map(|w| (w.fg_pages, [w.bg_gc, w.bg_log, w.bg_ckpt])).collect()
    }

    /// Interned stream labels, in intern order.
    pub fn stream_labels(&self) -> impl Iterator<Item = &str> {
        self.streams.iter().map(|w| w.label.as_str())
    }

    /// Close the current epoch's latency windows, returning the finished
    /// `(reads, writes)` histograms and leaving fresh empty windows
    /// recording. Merging every window returned over a run reproduces the
    /// run-wide histograms exactly.
    pub fn take_epoch_windows(&mut self) -> (Histogram, Histogram) {
        (self.win_read.reset_returning(), self.win_write.reset_returning())
    }

    /// A point-in-time copy of everything collected so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ops: OpClass::ALL
                .iter()
                .map(|&op| OpSnapshot { op, hist: self.hists[op.index()].clone() })
                .collect(),
            wa: self.streams.clone(),
            units: Vec::new(),
            now_ns: 0,
            queue: QueueGauges::default(),
            metrics: Vec::new(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
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

/// One stream's write-amplification ledger entry in a [`Snapshot`].
///
/// `fg_pages` are the stream's own (foreground) programmed pages;
/// `bg_*` are background programs (GC copyback, delta-log flush,
/// checkpoint) blamed back onto the stream by the FTL's blame rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaStreamSnapshot {
    /// The interned label.
    pub label: String,
    /// Foreground pages programmed on behalf of this stream.
    pub fg_pages: u64,
    /// GC copyback pages blamed on this stream's invalidations.
    pub bg_gc: u64,
    /// Delta-log flush pages blamed on this stream's deltas.
    pub bg_log: u64,
    /// Checkpoint pages blamed on this stream's deltas.
    pub bg_ckpt: u64,
}

impl WaStreamSnapshot {
    /// All background pages blamed on this stream.
    pub fn bg_total(&self) -> u64 {
        self.bg_gc + self.bg_log + self.bg_ckpt
    }

    /// Write-amplification factor: (fg + blamed bg) / fg.
    /// `None` when the stream wrote nothing in the foreground.
    pub fn wa_factor(&self) -> Option<f64> {
        if self.fg_pages == 0 {
            return None;
        }
        Some((self.fg_pages + self.bg_total()) as f64 / self.fg_pages as f64)
    }
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
        let g = Metric::gauge;
        vec![
            g("share_queue_depth", "Configured submission-queue depth.", self.depth),
            g("share_queue_inflight", "Commands submitted but not yet reaped.", self.inflight),
            g(
                "share_queue_inflight_max",
                "High-water mark of in-flight commands.",
                self.max_inflight,
            ),
            Metric::counter(
                "share_queue_submitted_total",
                "Queued commands submitted.",
                self.submitted,
            ),
            Metric::counter(
                "share_queue_reaped_total",
                "Completions reaped by the host.",
                self.reaped,
            ),
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
    /// Per-stream write-amplification ledger, in intern order.
    pub wa: Vec<WaStreamSnapshot>,
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
    /// (filled by the device; empty for bare `Telemetry` snapshots). Both
    /// exporters walk it.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// The entry for one op class.
    pub fn op(&self, op: OpClass) -> &OpSnapshot {
        &self.ops[op.index()]
    }

    /// The reading of one [`Snapshot::metrics`] row, by family name.
    pub fn metric(&self, name: &str) -> Option<Value> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        use json::count;
        let latency = Json::Obj(
            self.ops.iter().map(|o| (o.op.name().to_string(), hist_json(&o.hist))).collect(),
        );
        let wa = Json::Obj(
            self.wa
                .iter()
                .map(|w| {
                    let mut fields = vec![
                        ("fg_pages".to_string(), count(w.fg_pages)),
                        ("bg_gc".to_string(), count(w.bg_gc)),
                        ("bg_log".to_string(), count(w.bg_log)),
                        ("bg_ckpt".to_string(), count(w.bg_ckpt)),
                    ];
                    if let Some(f) = w.wa_factor() {
                        fields.push(("wa_factor".to_string(), Json::Num(f)));
                    }
                    (w.label.clone(), Json::Obj(fields))
                })
                .collect(),
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
            ("wa", wa),
            ("units", units),
            ("metrics", Json::Obj(rows_json(&self.metrics))),
        ])
    }

    /// Render as Prometheus-style exposition text.
    pub fn to_prometheus(&self) -> String {
        prom::render(self)
    }
}

fn hist_json(h: &Histogram) -> Json {
    use json::count;
    Json::obj(vec![
        ("count", count(h.count)),
        ("sum", count(h.sum)),
        ("min", count(h.min)),
        ("max", count(h.max)),
        ("p50", count(h.quantile(0.50))),
        ("p95", count(h.quantile(0.95))),
        ("p99", count(h.quantile(0.99))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_label<'a>(snap: &'a Snapshot, label: &str) -> &'a WaStreamSnapshot {
        snap.wa.iter().find(|w| w.label == label).unwrap()
    }

    #[test]
    fn default_config_is_counters_only() {
        // The default turns every option off; the histograms and the
        // ledger record anyway.
        let cfg = TelemetryConfig::default();
        assert!(!cfg.trace && cfg.epoch_ns == 0);
        let mut t = Telemetry::new(cfg);
        t.record(OpClass::Write, 3, 100, 200, true);
        let snap = t.snapshot();
        assert_eq!(snap.op(OpClass::Write).hist.count, 1);
        assert_eq!(snap.op(OpClass::Write).hist.sum, 100);
        assert_eq!(by_label(&snap, "host").fg_pages, 3);
    }

    #[test]
    fn full_config_records_hist_and_ring() {
        let mut t = Telemetry::new(TelemetryConfig::tracing());
        t.record(OpClass::Read, 1, 0, 50, true);
        t.record(OpClass::Read, 1, 50, 150, true);
        let snap = t.snapshot();
        let h = &snap.op(OpClass::Read).hist;
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 50);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn errors_counted_without_pages() {
        // A failed command lands in its op's histogram and adds no ledger
        // pages.
        let mut t = Telemetry::default();
        t.record(OpClass::Write, 4, 0, 7, false);
        let snap = t.snapshot();
        assert_eq!(snap.op(OpClass::Write).hist.count, 1);
        assert!(snap.wa.iter().all(|w| w.fg_pages == 0));
    }

    #[test]
    fn streams_intern_and_attribute() {
        let mut t = Telemetry::default();
        let wal = t.intern("wal");
        assert_eq!(t.intern("wal"), wal);
        assert_ne!(wal, STREAM_HOST);
        t.set_stream(wal);
        t.record(OpClass::Write, 2, 0, 0, true);
        // Internal passes add no foreground pages, even while `wal` is
        // current.
        t.record(OpClass::Gc, 8, 0, 0, true);
        let snap = t.snapshot();
        assert_eq!(by_label(&snap, "wal").fg_pages, 2);
        assert_eq!(by_label(&snap, "ftl").fg_pages, 0);
        assert_eq!(by_label(&snap, "host").fg_pages, 0);
    }

    #[test]
    fn unknown_stream_falls_back_to_host() {
        let mut t = Telemetry::default();
        t.set_stream(99);
        t.record(OpClass::WriteBatch, 1, 0, 0, true);
        assert_eq!(t.snapshot().wa[STREAM_HOST as usize].fg_pages, 1);
    }

    #[test]
    fn record_as_overrides_internal_stream_fallback() {
        let mut t = Telemetry::default();
        let dwb = t.intern("doublewrite");
        t.set_stream(dwb);
        // Internal passes inside a `doublewrite` command add no foreground
        // pages to any stream...
        for op in [OpClass::LogFlush, OpClass::Checkpoint, OpClass::Gc, OpClass::Recovery] {
            t.record(op, 3, 0, 10, true);
        }
        assert!(t.snapshot().wa.iter().all(|w| w.fg_pages == 0));
        // ...and blame on an unknown stream id falls back to `ftl`.
        t.blame(999, BlameKind::LogFlush, 2);
        let snap = t.snapshot();
        assert_eq!(snap.wa[STREAM_FTL as usize].bg_log, 2);
        assert_eq!(by_label(&snap, "doublewrite").bg_total(), 0);
    }

    #[test]
    fn wa_ledger_accumulates_and_exports() {
        let mut t = Telemetry::default();
        let db = t.intern("db");
        t.set_stream(db);
        t.record(OpClass::Write, 10, 0, 0, true);
        t.blame(db, BlameKind::Gc, 4);
        t.blame(db, BlameKind::LogFlush, 1);
        t.blame(STREAM_FTL, BlameKind::Checkpoint, 2);
        t.blame(12_345, BlameKind::Gc, 3); // unknown id → ftl fallback
        assert_eq!(t.blamed_total(), 10);
        let snap = t.snapshot();
        let w = by_label(&snap, "db");
        assert_eq!((w.fg_pages, w.bg_gc, w.bg_log, w.bg_ckpt), (10, 4, 1, 0));
        assert_eq!(w.bg_total(), 5);
        assert_eq!(w.wa_factor(), Some(1.5));
        let ftl = by_label(&snap, "ftl");
        assert_eq!((ftl.bg_gc, ftl.bg_ckpt), (3, 2));
        assert_eq!(ftl.wa_factor(), None);
        let doc = snap.to_json();
        let back = json::parse(&doc.render()).expect("json parses");
        assert_eq!(
            back.get("wa").and_then(|w| w.get("db")).and_then(|d| d.get("bg_gc")).and_then(Json::as_u64),
            Some(4)
        );
    }

    #[test]
    fn snapshot_json_is_parseable_and_complete() {
        let mut t = Telemetry::default();
        t.intern("db");
        t.record(OpClass::Write, 1, 10, 30, true);
        t.record(OpClass::Checkpoint, 5, 30, 90, true);
        let doc = t.snapshot().to_json();
        let back = json::parse(&doc.render()).expect("snapshot json parses");
        let latency = back.get("latency_ns").expect("latency_ns");
        let field = |op: &str, f: &str| latency.get(op).and_then(|o| o.get(f)).and_then(Json::as_u64);
        assert_eq!(field("write", "count"), Some(1));
        assert_eq!(field("checkpoint", "max"), Some(60));
        assert_eq!(field("read", "count"), Some(0));
        // All op classes and the interned stream are present.
        if let Json::Obj(fields) = latency {
            assert_eq!(fields.len(), OpClass::ALL.len());
        } else {
            panic!("latency_ns must be an object");
        }
        assert!(back.get("wa").and_then(|s| s.get("db")).is_some());
    }

    #[test]
    fn epoch_windows_gated_on_epoch_ns() {
        // Off (even with tracing): windows stay empty.
        let mut off = Telemetry::new(TelemetryConfig::tracing());
        off.record(OpClass::Write, 1, 0, 100, true);
        let (r, w) = off.take_epoch_windows();
        assert!(r.is_empty() && w.is_empty());

        // On: reads and writes land in their direction's window; Other
        // direction never does.
        let mut t = Telemetry::new(TelemetryConfig::monitoring(1_000));
        t.record(OpClass::Write, 1, 0, 100, true);
        t.record(OpClass::WriteAtomic, 2, 100, 250, true);
        t.record(OpClass::Read, 1, 250, 300, true);
        t.record(OpClass::Flush, 0, 300, 400, true);
        t.record(OpClass::Gc, 4, 400, 500, true);
        let (r1, w1) = t.take_epoch_windows();
        assert_eq!((r1.count, w1.count), (1, 2));
        assert_eq!(w1.max, 150);
        // Windows reset: the next epoch starts empty, and merging the
        // per-epoch windows reproduces the uninterrupted histograms.
        t.record(OpClass::Write, 1, 500, 900, true);
        let (r2, w2) = t.take_epoch_windows();
        assert!(r2.is_empty());
        let mut merged = w1.clone();
        merged.merge(&w2);
        let snap = t.snapshot();
        let mut runwide = snap.op(OpClass::Write).hist.clone();
        runwide.merge(&snap.op(OpClass::WriteAtomic).hist);
        assert_eq!(merged, runwide);
    }

    #[test]
    fn monitoring_config_builds_on_full() {
        let cfg = TelemetryConfig::monitoring(5_000_000);
        assert!(cfg.trace);
        assert_eq!(cfg.epoch_ns, 5_000_000);
        assert_eq!(TelemetryConfig::tracing().epoch_ns, 0);
    }

    #[test]
    fn wa_raw_matches_snapshot_ledger() {
        let mut t = Telemetry::default();
        let db = t.intern("db");
        t.set_stream(db);
        t.record(OpClass::Write, 10, 0, 0, true);
        t.blame(db, BlameKind::Gc, 4);
        let raw = t.wa_raw();
        assert_eq!(raw.len(), t.stream_labels().count());
        assert_eq!(raw[db as usize], (10, [4, 0, 0]));
        assert_eq!(t.stream_labels().nth(db as usize), Some("db"));
    }
}
