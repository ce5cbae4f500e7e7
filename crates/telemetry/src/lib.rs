//! Device-level observability for the SHARE reproduction.
//!
//! The paper's evaluation is observational — Figure 6's host-write / GC /
//! copyback breakdown and Table 1's per-transaction percentiles — so the
//! FTL needs per-op-class telemetry beyond the raw `DeviceStats` counters.
//! This crate provides:
//!
//! * per-op-class command counters (always on: three u64 adds per command),
//! * log2-bucketed latency [`hist::Histogram`]s in simulated `SimClock`
//!   nanoseconds (off by default; toggled by [`TelemetryConfig`]),
//! * per-epoch host read/write latency windows for the device's flight
//!   recorder (on only when its epoch sampler is),
//! * per-stream traffic attribution (engines tag files with logical stream
//!   labels; the FTL's own traffic lands on a reserved `ftl` stream),
//! * exporters: Prometheus-style text ([`Snapshot::to_prometheus`]) and
//!   JSON ([`Snapshot::to_json`]) built on the in-crate [`json`] module,
//! * SLO thresholds ([`slo::SloConfig`]) that readers evaluate over the
//!   flight recorder's epochs; the device records and never judges.
//!
//! Each observation has one home. A command's op, stream, pages and times
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
pub mod slo;
pub mod trace;

pub use hist::{Histogram, HistogramSet};
pub use metric::{rows_json, Metric};
pub use percentile::percentile_sorted;
pub use slo::{Alert, AlertKind, AlertSeverity, EpochObservation, SloConfig};
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

/// Traffic direction of an op class, for per-stream breakdowns.
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

    /// FTL-internal classes are attributed to the reserved `ftl` stream
    /// instead of whatever host stream happens to be current.
    #[inline]
    pub fn is_internal(self) -> bool {
        matches!(self, OpClass::Gc | OpClass::LogFlush | OpClass::Checkpoint | OpClass::Recovery)
    }

    /// Direction for per-stream read/write/other attribution.
    #[inline]
    pub fn direction(self) -> Direction {
        match self {
            OpClass::Read | OpClass::ReadBatch => Direction::Read,
            OpClass::Write | OpClass::WriteBatch | OpClass::WriteAtomic => Direction::Write,
            _ => Direction::Other,
        }
    }
}

/// What to collect beyond the always-on counters.
///
/// The default keeps everything optional off, so constructing a device with
/// default telemetry adds only counter arithmetic to the command path and
/// cannot perturb any measured simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Record per-op-class latency histograms.
    pub histograms: bool,
    /// Record causal spans ([`trace::Tracer`]) through every layer.
    pub trace: bool,
    /// Flight-recorder epoch length in simulated nanoseconds (0 disables
    /// the epoch sampler entirely — the default, and what `full()` keeps,
    /// so monitoring stays strictly opt-in).
    pub epoch_ns: u64,
    /// How many sealed epoch records the flight recorder retains; older
    /// epochs fold into its eviction accumulator.
    pub epoch_ring: usize,
}

impl TelemetryConfig {
    /// Everything point-in-time on: histograms and tracing. The epoch
    /// sampler stays off.
    pub fn full() -> Self {
        Self { histograms: true, trace: true, ..Self::default() }
    }

    /// Counters plus span tracing (no histograms).
    pub fn tracing() -> Self {
        Self { trace: true, ..Self::default() }
    }

    /// Longitudinal monitoring: everything `full()` enables plus the
    /// epoch sampler at the given interval, retaining 4096 epochs.
    pub fn monitoring(epoch_ns: u64) -> Self {
        Self { epoch_ns, epoch_ring: 4096, ..Self::full() }
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
    /// Dense index into per-cause arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable export name (Prometheus `cause` label and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            BlameKind::Gc => "gc",
            BlameKind::LogFlush => "log_flush",
            BlameKind::Checkpoint => "checkpoint",
        }
    }
}

/// Per-op-class command counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Commands observed (successful or not).
    pub ops: u64,
    /// Pages touched by successful commands.
    pub pages: u64,
    /// Commands that returned an error.
    pub errors: u64,
}

impl OpCounters {
    fn add(&mut self, pages: u64, ok: bool) {
        self.ops += 1;
        if ok {
            self.pages += pages;
        } else {
            self.errors += 1;
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
    commands: u64,
    counters: [OpCounters; NUM_OPS],
    hists: Vec<Histogram>,
    streams: Vec<String>,
    /// Per stream: counters split by [`Direction`] (read/write/other).
    stream_counters: Vec<[OpCounters; 3]>,
    /// Per stream: background pages blamed on it, split by [`BlameKind`].
    blamed_bg: Vec<[u64; 3]>,
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
        Self {
            cfg,
            commands: 0,
            counters: [OpCounters::default(); NUM_OPS],
            hists: vec![Histogram::new(); NUM_OPS],
            streams: vec!["host".to_string(), "ftl".to_string()],
            stream_counters: vec![[OpCounters::default(); 3]; 2],
            blamed_bg: vec![[0; 3]; 2],
            current_stream: STREAM_HOST,
            win_read: Histogram::new(),
            win_write: Histogram::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.cfg
    }

    /// Intern a stream label, returning its id (stable for the device's
    /// lifetime). Re-interning an existing label returns the same id.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(i) = self.streams.iter().position(|s| s == label) {
            return i as u32;
        }
        self.streams.push(label.to_string());
        self.stream_counters.push([OpCounters::default(); 3]);
        self.blamed_bg.push([0; 3]);
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

    /// Record one completed command.
    ///
    /// `start_ns`/`end_ns` are simulated clock read-outs taken around the
    /// command body; telemetry itself never advances the clock.
    /// `stream_override` attributes an internal pass that runs *inside* a
    /// host command (a delta log flush triggered mid-`write_batch`) to the
    /// parent command's stream instead of the default `ftl` fallback; `None`
    /// (or an unknown id) attributes host commands to the current stream
    /// and internal passes to `ftl`.
    pub fn record(
        &mut self,
        op: OpClass,
        stream_override: Option<u32>,
        pages: u64,
        start_ns: u64,
        end_ns: u64,
        ok: bool,
    ) {
        self.commands += 1;
        self.counters[op.index()].add(pages, ok);
        let stream = match stream_override {
            Some(s) if (s as usize) < self.streams.len() => s,
            _ if op.is_internal() => STREAM_FTL,
            _ => self.current_stream,
        };
        self.stream_counters[stream as usize][op.direction() as usize].add(pages, ok);
        if self.cfg.histograms {
            self.hists[op.index()].record(end_ns.saturating_sub(start_ns));
        }
        if self.cfg.epoch_ns > 0 {
            match op.direction() {
                Direction::Read => self.win_read.record(end_ns.saturating_sub(start_ns)),
                Direction::Write => self.win_write.record(end_ns.saturating_sub(start_ns)),
                Direction::Other => {}
            }
        }
    }

    /// Counters for one op class.
    pub fn counters(&self, op: OpClass) -> OpCounters {
        self.counters[op.index()]
    }

    /// Blame `pages` background NAND programs of cause `kind` on `stream`
    /// (WA ledger). Unknown stream ids fall back to [`STREAM_FTL`].
    pub fn blame(&mut self, stream: u32, kind: BlameKind, pages: u64) {
        let idx = if (stream as usize) < self.blamed_bg.len() {
            stream as usize
        } else {
            STREAM_FTL as usize
        };
        self.blamed_bg[idx][kind.index()] += pages;
    }

    /// Total background pages blamed across all streams (ledger side of
    /// the exact-sum invariant).
    pub fn blamed_total(&self) -> u64 {
        self.blamed_bg.iter().flat_map(|b| b.iter()).sum()
    }

    /// Raw per-stream WA-ledger state, in intern order: each entry is
    /// `(foreground write pages, blamed background pages by BlameKind)`.
    /// The flight recorder diffs consecutive read-outs to attribute each
    /// epoch's background traffic.
    pub fn wa_raw(&self) -> Vec<(u64, [u64; 3])> {
        self.streams
            .iter()
            .enumerate()
            .map(|(i, _)| (self.stream_counters[i][Direction::Write as usize].pages, self.blamed_bg[i]))
            .collect()
    }

    /// Interned stream labels, in intern order.
    pub fn stream_labels(&self) -> &[String] {
        &self.streams
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
            commands: self.commands,
            ops: OpClass::ALL
                .iter()
                .map(|&op| OpSnapshot {
                    op,
                    counters: self.counters[op.index()],
                    hist: self.hists[op.index()].clone(),
                })
                .collect(),
            streams: self
                .streams
                .iter()
                .zip(&self.stream_counters)
                .map(|(label, dirs)| StreamSnapshot {
                    label: label.clone(),
                    reads: dirs[Direction::Read as usize],
                    writes: dirs[Direction::Write as usize],
                    other: dirs[Direction::Other as usize],
                })
                .collect(),
            wa: self
                .streams
                .iter()
                .enumerate()
                .map(|(i, label)| WaStreamSnapshot {
                    label: label.clone(),
                    fg_pages: self.stream_counters[i][Direction::Write as usize].pages,
                    bg_gc: self.blamed_bg[i][BlameKind::Gc.index()],
                    bg_log: self.blamed_bg[i][BlameKind::LogFlush.index()],
                    bg_ckpt: self.blamed_bg[i][BlameKind::Checkpoint.index()],
                })
                .collect(),
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
    /// Its counters.
    pub counters: OpCounters,
    /// Its latency histogram (empty unless histograms were enabled).
    pub hist: Histogram,
}

/// One stream in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// The interned label.
    pub label: String,
    /// Read-direction traffic.
    pub reads: OpCounters,
    /// Write-direction traffic.
    pub writes: OpCounters,
    /// Everything else (trim, flush, share, internal passes).
    pub other: OpCounters,
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
    /// Total commands recorded.
    pub commands: u64,
    /// Per-op-class counters and histograms, in [`OpClass::ALL`] order.
    pub ops: Vec<OpSnapshot>,
    /// Per-stream traffic, in intern order (`host`, `ftl`, then engines').
    pub streams: Vec<StreamSnapshot>,
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
    /// counters, WAF, and the queue, snapshot-table and health
    /// readings (filled by the device; empty for bare `Telemetry`
    /// snapshots). Both exporters walk it.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// The entry for one op class.
    pub fn op(&self, op: OpClass) -> &OpSnapshot {
        &self.ops[op.index()]
    }

    /// Pages touched by successful commands of `op`.
    pub fn pages(&self, op: OpClass) -> u64 {
        self.op(op).counters.pages
    }

    /// Commands observed of `op`.
    pub fn ops_count(&self, op: OpClass) -> u64 {
        self.op(op).counters.ops
    }

    /// The reading of one [`Snapshot::metrics`] row, by family name.
    pub fn metric(&self, name: &str) -> Option<Value> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Render as a JSON document.
    pub fn to_json(&self) -> Json {
        use json::count;
        let ops = Json::Obj(
            self.ops
                .iter()
                .map(|o| {
                    let mut fields = vec![
                        ("ops".to_string(), count(o.counters.ops)),
                        ("pages".to_string(), count(o.counters.pages)),
                        ("errors".to_string(), count(o.counters.errors)),
                    ];
                    if !o.hist.is_empty() {
                        fields.push(("latency_ns".to_string(), hist_json(&o.hist)));
                    }
                    (o.op.name().to_string(), Json::Obj(fields))
                })
                .collect(),
        );
        let streams = Json::Obj(
            self.streams
                .iter()
                .map(|st| {
                    (
                        st.label.clone(),
                        Json::obj(vec![
                            ("reads", counters_json(&st.reads)),
                            ("writes", counters_json(&st.writes)),
                            ("other", counters_json(&st.other)),
                        ]),
                    )
                })
                .collect(),
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
            ("commands", count(self.commands)),
            ("now_ns", count(self.now_ns)),
            ("ops", ops),
            ("streams", streams),
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

fn counters_json(c: &OpCounters) -> Json {
    use json::count;
    Json::obj(vec![
        ("ops", count(c.ops)),
        ("pages", count(c.pages)),
        ("errors", count(c.errors)),
    ])
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

    #[test]
    fn default_config_is_counters_only() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.histograms);
        let mut t = Telemetry::new(cfg);
        t.record(OpClass::Write, None, 3, 100, 200, true);
        assert!(t.snapshot().op(OpClass::Write).hist.is_empty());
        assert_eq!(t.counters(OpClass::Write), OpCounters { ops: 1, pages: 3, errors: 0 });
    }

    #[test]
    fn full_config_records_hist_and_ring() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        t.record(OpClass::Read, None, 1, 0, 50, true);
        t.record(OpClass::Read, None, 1, 50, 150, true);
        let snap = t.snapshot();
        let h = &snap.op(OpClass::Read).hist;
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 50);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn errors_counted_without_pages() {
        let mut t = Telemetry::default();
        t.record(OpClass::Write, None, 4, 0, 0, false);
        assert_eq!(t.counters(OpClass::Write), OpCounters { ops: 1, pages: 0, errors: 1 });
    }

    #[test]
    fn streams_intern_and_attribute() {
        let mut t = Telemetry::default();
        let wal = t.intern("wal");
        assert_eq!(t.intern("wal"), wal);
        assert_ne!(wal, STREAM_HOST);
        t.set_stream(wal);
        t.record(OpClass::Write, None, 2, 0, 0, true);
        // Internal ops land on the ftl stream even while `wal` is current.
        t.record(OpClass::Gc, None, 8, 0, 0, true);
        let snap = t.snapshot();
        let by_label = |l: &str| snap.streams.iter().find(|s| s.label == l).unwrap();
        assert_eq!(by_label("wal").writes.pages, 2);
        assert_eq!(by_label("ftl").other.pages, 8);
        assert_eq!(by_label("host").writes.pages, 0);
    }

    #[test]
    fn unknown_stream_falls_back_to_host() {
        let mut t = Telemetry::default();
        t.set_stream(99);
        t.record(OpClass::Read, None, 1, 0, 0, true);
        assert_eq!(t.snapshot().streams[STREAM_HOST as usize].reads.pages, 1);
    }

    #[test]
    fn record_as_overrides_internal_stream_fallback() {
        let mut t = Telemetry::new(TelemetryConfig::full());
        let dwb = t.intern("doublewrite");
        t.set_stream(dwb);
        // A log flush inside a host command inherits the host's stream...
        t.record(OpClass::LogFlush, Some(dwb), 3, 0, 10, true);
        // ...but a bare internal record still lands on `ftl`.
        t.record(OpClass::LogFlush, None, 2, 10, 20, true);
        let snap = t.snapshot();
        let by_label = |l: &str| snap.streams.iter().find(|s| s.label == l).unwrap();
        assert_eq!(by_label("doublewrite").other.pages, 3);
        assert_eq!(by_label("ftl").other.pages, 2);
        // An out-of-range override behaves like no override.
        t.record(OpClass::Gc, Some(999), 1, 20, 30, true);
        assert_eq!(t.snapshot().streams[STREAM_FTL as usize].other.pages, 3);
    }

    #[test]
    fn wa_ledger_accumulates_and_exports() {
        let mut t = Telemetry::default();
        let db = t.intern("db");
        t.set_stream(db);
        t.record(OpClass::Write, None, 10, 0, 0, true);
        t.blame(db, BlameKind::Gc, 4);
        t.blame(db, BlameKind::LogFlush, 1);
        t.blame(STREAM_FTL, BlameKind::Checkpoint, 2);
        t.blame(12_345, BlameKind::Gc, 3); // unknown id → ftl fallback
        assert_eq!(t.blamed_total(), 10);
        let snap = t.snapshot();
        let w = snap.wa.iter().find(|w| w.label == "db").unwrap();
        assert_eq!((w.fg_pages, w.bg_gc, w.bg_log, w.bg_ckpt), (10, 4, 1, 0));
        assert_eq!(w.bg_total(), 5);
        assert_eq!(w.wa_factor(), Some(1.5));
        let ftl = snap.wa.iter().find(|w| w.label == "ftl").unwrap();
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
        let mut t = Telemetry::new(TelemetryConfig::full());
        t.intern("db");
        t.record(OpClass::Write, None, 1, 10, 30, true);
        t.record(OpClass::Checkpoint, None, 5, 30, 90, true);
        let doc = t.snapshot().to_json();
        let back = json::parse(&doc.render()).expect("snapshot json parses");
        assert_eq!(back.get("commands").and_then(Json::as_u64), Some(2));
        let ops = back.get("ops").expect("ops");
        assert_eq!(
            ops.get("write").and_then(|w| w.get("pages")).and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            ops.get("checkpoint").and_then(|c| c.get("latency_ns")).and_then(|l| l.get("max")).and_then(Json::as_u64),
            Some(60)
        );
        // All op classes and the interned stream are present.
        if let Json::Obj(fields) = ops {
            assert_eq!(fields.len(), OpClass::ALL.len());
        } else {
            panic!("ops must be an object");
        }
        assert!(back.get("streams").and_then(|s| s.get("db")).is_some());
    }

    #[test]
    fn epoch_windows_gated_on_epoch_ns() {
        // Off (even with full()): windows stay empty.
        let mut off = Telemetry::new(TelemetryConfig::full());
        off.record(OpClass::Write, None, 1, 0, 100, true);
        let (r, w) = off.take_epoch_windows();
        assert!(r.is_empty() && w.is_empty());

        // On: reads and writes land in their direction's window; Other
        // direction never does.
        let mut t = Telemetry::new(TelemetryConfig::monitoring(1_000));
        t.record(OpClass::Write, None, 1, 0, 100, true);
        t.record(OpClass::WriteAtomic, None, 2, 100, 250, true);
        t.record(OpClass::Read, None, 1, 250, 300, true);
        t.record(OpClass::Flush, None, 0, 300, 400, true);
        t.record(OpClass::Gc, None, 4, 400, 500, true);
        let (r1, w1) = t.take_epoch_windows();
        assert_eq!((r1.count, w1.count), (1, 2));
        assert_eq!(w1.max, 150);
        // Windows reset: the next epoch starts empty, and merging the
        // per-epoch windows reproduces the uninterrupted histograms.
        t.record(OpClass::Write, None, 1, 500, 900, true);
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
        assert!(cfg.histograms && cfg.trace);
        assert_eq!(cfg.epoch_ns, 5_000_000);
        assert_eq!(TelemetryConfig::full().epoch_ns, 0);
    }

    #[test]
    fn wa_raw_matches_snapshot_ledger() {
        let mut t = Telemetry::default();
        let db = t.intern("db");
        t.set_stream(db);
        t.record(OpClass::Write, None, 10, 0, 0, true);
        t.blame(db, BlameKind::Gc, 4);
        let raw = t.wa_raw();
        assert_eq!(raw.len(), t.stream_labels().len());
        assert_eq!(raw[db as usize], (10, [4, 0, 0]));
        assert_eq!(t.stream_labels()[db as usize], "db");
    }
}
