//! The SHARE FTL: page-mapping translation layer with explicit remapping.
//!
//! This is the paper's contribution (§3–§4): a page-mapping FTL whose L2P
//! table the host can rewrite through the `share` command. The write path,
//! garbage collection, delta logging and checkpointing follow §4.2:
//!
//! * host writes go to an open data block; the mapping change is recorded
//!   as a Delta and becomes durable when its log page is programmed,
//! * `share(dest, src)` points `dest` at `src`'s physical page and logs all
//!   deltas of the batch in **one** log page, making the batch atomic,
//! * greedy GC picks the closed block with the fewest valid pages, copies
//!   the valid ones to a dedicated copyback write point (relocating *all*
//!   logical references, shared ones included), flushes the delta log and
//!   only then erases the victim.

use crate::ckpt;
use crate::config::FtlConfig;
use crate::delta::{Delta, DeltaLog};
use crate::device::BlockDevice;
use crate::error::FtlError;
use crate::health::{HealthReport, DEFAULT_ENDURANCE_CYCLES};
use crate::mapping::MappingTable;
use crate::monitor::{EpochSample, FlightRecorder, FlightSnapshot};
use crate::pool::{BlockPool, WritePoint};
use crate::queue::{CmdOutput, CmdTag, Completion, QueuedCmd};
use crate::snapshot::{self, SnapDelta, SnapshotInfo, SnapshotTable};
use crate::stats::DeviceStats;
use crate::types::{Lpn, Ppn, SharePair};
use crate::config::{PlacementConfig, CLASS_DEFAULT};
use nand_sim::{FaultHandle, NandArray, SimClock, UNTAGGED};
use share_telemetry::{
    apportion, AlertSeverity, BlameKind, Layer, OpClass, PlacementClassGauge, PlacementGauges,
    QueueGauges, Snapshot, SnapshotGauges, SpanId, Telemetry, Tracer, Track, UnitUtilization,
    STREAM_FTL,
};
use std::collections::HashSet;

/// Checkpoint when fewer than this many log-ring pages remain.
const CKPT_MIN_REMAINING_PAGES: u32 = 8;

/// A submitted-but-unreaped queued command. Its state transitions already
/// happened (at submission); only the completion — time, outcome, read
/// payload — waits here for the host to reap it.
#[derive(Debug)]
struct PendingCmd {
    tag: CmdTag,
    submit_ns: u64,
    complete_ns: u64,
    result: Result<CmdOutput, FtlError>,
    /// Data-pool blocks this command allocated into, pinned against GC
    /// until the completion is reaped.
    blocks: Vec<u32>,
}

/// Erase-count distribution over the data pool (wear-leveling quality).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearStats {
    /// Least-erased data block.
    pub min_erases: u32,
    /// Most-erased data block.
    pub max_erases: u32,
    /// Mean erase count.
    pub mean_erases: f64,
    /// Population standard deviation of the per-block erase counts.
    pub stddev_erases: f64,
}

impl WearStats {
    /// Summarize a sequence of per-block erase counts. An empty pool
    /// yields all-zero stats rather than `min == u32::MAX` and a NaN mean.
    pub fn from_counts(counts: impl IntoIterator<Item = u32>) -> WearStats {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut sumsq = 0u128;
        let mut n = 0u64;
        for e in counts {
            min = min.min(e);
            max = max.max(e);
            sum += e as u64;
            sumsq += (e as u128) * (e as u128);
            n += 1;
        }
        if n == 0 {
            return WearStats { min_erases: 0, max_erases: 0, mean_erases: 0.0, stddev_erases: 0.0 };
        }
        let mean = sum as f64 / n as f64;
        let var = (sumsq as f64 / n as f64 - mean * mean).max(0.0);
        WearStats {
            min_erases: min,
            max_erases: max,
            mean_erases: mean,
            stddev_erases: var.sqrt(),
        }
    }

    /// Wear-leveling skew: max/mean erase count. 1.0 is perfectly even
    /// wear, 0.0 a device that has never erased anything.
    pub fn skew(&self) -> f64 {
        if self.mean_erases == 0.0 {
            0.0
        } else {
            self.max_erases as f64 / self.mean_erases
        }
    }
}

/// Names for the NAND units in index order (`ch{c}:w{w}`, matching how
/// `telemetry_snapshot` decomposes a unit index into channel and way).
fn unit_labels(channels: u32, units: usize) -> Vec<String> {
    (0..units as u32).map(|u| format!("ch{}:w{}", u % channels, u / channels)).collect()
}

/// An in-progress victim collection. A synchronous drain runs a job to
/// completion in one step; the background pipeline parks it between
/// budgeted steps.
///
/// The job is created when `pick_victim` chooses a block and lives until
/// every page of it has been examined; each step relocates at most a
/// budget of still-live pages. Pages the host invalidates while the job
/// is parked simply fail their liveness recheck and are skipped — late
/// invalidations shrink the copyback for free.
#[derive(Debug)]
struct GcJob {
    /// Victim block, pool-relative.
    rel: u32,
    /// Victim's lifetime class (survivors stay in it).
    class: u8,
    /// Victim's channel (survivors stay on it).
    channel: u32,
    /// First in-block page index not yet examined (relocation proceeds
    /// in page order).
    next_idx: u32,
}

/// A flash device exposing the SHARE interface.
#[derive(Debug)]
pub struct Ftl {
    cfg: FtlConfig,
    nand: NandArray,
    map: MappingTable,
    log: DeltaLog,
    pool: BlockPool,
    stats: DeviceStats,
    last_ckpt_slot: u32,
    /// Generation the next checkpoint will carry (strictly increasing).
    next_ckpt_gen: u64,
    /// Per-op-class observability (counters, optional histograms/ring).
    /// Records clock *read-outs* only — never advances simulated time.
    telemetry: Telemetry,
    /// Causal span tracer (disabled unless `cfg.telemetry.trace`); the
    /// NAND array holds a clone and attaches leaf events to it.
    tracer: Tracer,
    /// Submitted-but-unreaped queued commands (bounded by
    /// `cfg.queue_depth`).
    pending: Vec<PendingCmd>,
    /// Next submission tag (monotonic for the device's lifetime).
    next_tag: u32,
    /// Queue counters for telemetry: total submitted, total reaped, and
    /// the high-water in-flight mark.
    q_submitted: u64,
    q_reaped: u64,
    q_max_inflight: u64,
    /// Stream of the host command currently executing, for attributing
    /// internal passes it triggers (None outside any host command).
    cmd_stream: Option<u32>,
    /// True while GC runs: log flushes it triggers stay FTL-attributed.
    in_gc: bool,
    /// In-progress incremental collection (background GC pipeline only).
    /// Persists across foreground commands until the victim is fully
    /// relocated, flushed, and erased.
    gc_job: Option<GcJob>,
    /// Lifetime class per interned stream id (indexed by stream id;
    /// unclassified streams — including HOST and FTL — are the default
    /// class). Populated by `stream_intern` via `cfg.placement.classify`.
    stream_class: Vec<u8>,
    /// WA ledger, GC axis: per data-pool block (relative index), how many
    /// pages each stream invalidated there. Settled into the telemetry
    /// blame ledger when the block is collected; cleared on erase.
    block_blame: Vec<Vec<u64>>,
    /// WA ledger, log axis: buffered (not yet flushed) deltas per stream.
    log_blame: Vec<u64>,
    /// WA ledger, checkpoint axis: deltas per stream since last checkpoint.
    ckpt_blame: Vec<u64>,
    /// Scratch buffers reused across SHARE commands so the hot path does
    /// not allocate for typical batch sizes (cleared, never shrunk).
    share_dests: Vec<Lpn>,
    share_srcs: Vec<Lpn>,
    share_incs: Vec<(Ppn, u32)>,
    share_src_ppns: Vec<Ppn>,
    share_deltas: Vec<Delta>,
    /// Device snapshot table: frozen alias namespaces whose entries pin
    /// physical pages against GC reclaim (relocation still allowed).
    /// Persisted whole in checkpoints (image v4) and incrementally via
    /// tagged delta-log records.
    snaps: SnapshotTable,
    /// Time-series flight recorder (None unless `telemetry.epoch_ns > 0`).
    /// Seals one epoch of counter deltas at the first command boundary at
    /// or after each epoch tick; only ever *reads* the clock.
    recorder: Option<FlightRecorder>,
}

impl Ftl {
    /// A freshly formatted device.
    pub fn new(cfg: FtlConfig) -> Self {
        cfg.validate();
        let nand = NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new());
        Self::format(cfg, nand)
    }

    /// Format `nand` (assumed erased) under `cfg`.
    pub fn format(cfg: FtlConfig, nand: NandArray) -> Self {
        let mut ftl = Self::assemble(cfg, nand);
        ftl.checkpoint().expect("initial checkpoint on an erased device cannot fail");
        ftl
    }

    /// Wire a device up around `nand` with empty translation state: what
    /// `format` checkpoints as is and `open` fills in from the flash image.
    fn assemble(cfg: FtlConfig, mut nand: NandArray) -> Self {
        let map = MappingTable::with_policy(cfg.geometry, cfg.logical_pages, cfg.revmap_capacity, cfg.revmap_policy);
        let log = DeltaLog::new(&cfg, 0);
        let pool = BlockPool::new(cfg.geometry, cfg.data_start(), cfg.data_blocks())
            .with_classes(cfg.placement.classes());
        let telemetry = Telemetry::new(cfg.telemetry);
        let tracer = if cfg.telemetry.trace { Tracer::enabled() } else { Tracer::disabled() };
        nand.set_tracer(tracer.clone());
        tracer.set_unit_labels(unit_labels(cfg.geometry.channels, nand.busy_ns().len()));
        let recorder = (cfg.telemetry.epoch_ns > 0).then(|| {
            FlightRecorder::new(cfg.telemetry.epoch_ns, cfg.telemetry.epoch_ring, cfg.slo, nand.now_ns())
        });
        let data_blocks = cfg.data_blocks() as usize;
        Self {
            cfg,
            nand,
            map,
            log,
            pool,
            stats: DeviceStats::default(),
            last_ckpt_slot: 1,
            next_ckpt_gen: 0,
            telemetry,
            tracer,
            pending: Vec::new(),
            next_tag: 0,
            q_submitted: 0,
            q_reaped: 0,
            q_max_inflight: 0,
            cmd_stream: None,
            in_gc: false,
            gc_job: None,
            stream_class: Vec::new(),
            block_blame: vec![Vec::new(); data_blocks],
            log_blame: Vec::new(),
            ckpt_blame: Vec::new(),
            share_dests: Vec::new(),
            share_srcs: Vec::new(),
            share_incs: Vec::new(),
            share_src_ppns: Vec::new(),
            share_deltas: Vec::new(),
            snaps: SnapshotTable::new(),
            recorder,
        }
    }

    /// Recover a device from the flash image in `nand` (e.g. after a crash):
    /// latest checkpoint + intact delta-log pages, then reverse-state and
    /// block-state rebuild. Ends by taking a fresh checkpoint so the log
    /// ring restarts clean.
    pub fn open(cfg: FtlConfig, mut nand: NandArray) -> Result<Self, FtlError> {
        cfg.validate();
        nand.power_cycle();
        let mut ftl = Self::assemble(cfg, nand);
        let nand_before = ftl.nand.stats();
        ftl.internal_pass("recovery", OpClass::Recovery, None, 0, |f| {
            f.replay_image()?;
            f.checkpoint()?;
            // Account what recovery itself cost (checkpoint scan, delta
            // replay, pool rebuild, and the closing checkpoint) so a
            // reopened device is not indistinguishable from a fresh one and
            // crash sweeps can bound recovery work.
            let spent = f.nand.stats().delta_since(&nand_before);
            f.stats.recoveries = 1;
            f.stats.recovery_page_reads = spent.page_reads;
            f.stats.recovery_page_writes = spent.page_programs;
            Ok(spent.page_reads + spent.page_programs)
        })?;
        Ok(ftl)
    }

    /// Fill the freshly assembled (empty) translation state in from the
    /// flash image.
    fn replay_image(&mut self) -> Result<(), FtlError> {
        let mut next_seq = 0;
        if let Some(c) = ckpt::read_latest(&self.cfg, &mut self.nand) {
            if c.l2p.len() as u64 != self.cfg.logical_pages {
                return Err(FtlError::RecoveryCorrupt(format!(
                    "checkpoint has {} entries, config expects {}",
                    c.l2p.len(),
                    self.cfg.logical_pages
                )));
            }
            for (i, &ppn) in c.l2p.iter().enumerate() {
                self.map.raw_set(Lpn(i as u64), ppn);
            }
            self.snaps = SnapshotTable::decode(&c.snap)?;
            self.last_ckpt_slot = c.slot;
            self.next_ckpt_gen = c.generation + 1;
            next_seq = c.next_delta_seq;
        }
        for page in DeltaLog::recover(&self.cfg, &mut self.nand, next_seq) {
            for d in &page.deltas {
                // Snapshot records travel the same log with a tag bit set;
                // they must never reach the live map (the tagged value is
                // far beyond the logical capacity).
                match snapshot::decode_snap_delta(d.lpn) {
                    Some(SnapDelta::Relocate { id, offset }) => {
                        self.snaps.replay_relocate(id, offset, d.new);
                    }
                    Some(SnapDelta::Tombstone { id }) => {
                        self.snaps.remove_by_id(id);
                    }
                    None => self.map.raw_set(d.lpn, d.new),
                }
            }
            next_seq = page.seq + 1;
        }
        self.map.rebuild_reverse();
        self.snaps.rebuild_rev();
        self.pool.rebuild_from_nand(&self.nand);
        self.log = DeltaLog::new(&self.cfg, next_seq);
        Ok(())
    }

    /// The configuration this device runs under.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// Fault-injection handle of the underlying NAND.
    pub fn fault_handle(&self) -> FaultHandle {
        self.nand.fault_handle()
    }

    /// Read-only view of the NAND medium (tests, benches).
    pub fn nand(&self) -> &NandArray {
        &self.nand
    }

    /// Consume the FTL and take the NAND medium out (crash-recovery tests
    /// re-open it with [`Ftl::open`]).
    pub fn into_nand(self) -> NandArray {
        self.nand
    }

    /// Current physical mapping of `lpn`, if any (introspection).
    pub fn mapping_of(&self, lpn: Lpn) -> Option<Ppn> {
        let p = self.map.lookup(lpn);
        p.is_valid().then_some(p)
    }

    /// Reference count of the physical page backing `lpn`.
    pub fn refcount_of(&self, lpn: Lpn) -> u16 {
        let p = self.map.lookup(lpn);
        if p.is_valid() {
            self.map.refcount(p)
        } else {
            0
        }
    }

    /// Occupancy of the shared-page reverse-mapping table.
    pub fn revmap_len(&self) -> usize {
        self.map.revmap().len()
    }

    /// Wear summary over the data pool: (min, max, mean) erase counts.
    /// A tight min/max spread indicates effective wear leveling.
    pub fn wear_stats(&self) -> WearStats {
        let n = self.pool.block_count();
        WearStats::from_counts((0..n).map(|rel| self.nand.erase_count(self.pool.abs(rel))))
    }

    /// Exhaustively check mapping invariants (test helper).
    pub fn check_invariants(&self) {
        self.map.check_invariants();
    }

    fn check_lpn(&self, lpn: Lpn) -> Result<(), FtlError> {
        self.check_range(lpn, 1)
    }

    /// Check that the `len` pages from `start` all lie inside the logical
    /// capacity (overflow included), naming the range's last page if not.
    fn check_range(&self, start: Lpn, len: u64) -> Result<(), FtlError> {
        let capacity = self.cfg.logical_pages;
        if start.0.checked_add(len).is_some_and(|end| end <= capacity) {
            return Ok(());
        }
        let last = Lpn(start.0.saturating_add(len.saturating_sub(1)));
        Err(FtlError::LpnOutOfRange { lpn: last, capacity })
    }

    /// Stream to attribute an internal pass to: the host command that
    /// triggered it, unless GC is running (GC work stays FTL-attributed).
    fn bg_attr(&self) -> Option<u32> {
        if self.in_gc {
            None
        } else {
            self.cmd_stream
        }
    }

    /// Note a mapping delta created on behalf of `stream`: it weighs into
    /// the blame apportionment of the next log flush and checkpoint.
    fn note_delta(&mut self, stream: u32, n: u64) {
        let idx = stream as usize;
        if self.log_blame.len() <= idx {
            self.log_blame.resize(idx + 1, 0);
        }
        if self.ckpt_blame.len() <= idx {
            self.ckpt_blame.resize(idx + 1, 0);
        }
        self.log_blame[idx] += n;
        self.ckpt_blame[idx] += n;
    }

    /// Note that `old`'s physical page died: the stream running the
    /// current command turned a page in `old`'s block into garbage, so it
    /// is blamed for a share of that block's eventual GC copyback.
    fn note_invalidation(&mut self, old: &crate::mapping::Unmapped) {
        if !old.died {
            return;
        }
        let block = self.cfg.geometry.block_of(old.old_ppn);
        let Some(rel) = self.pool.rel(block) else { return };
        let stream = self.telemetry.current_stream() as usize;
        let blame = &mut self.block_blame[rel as usize];
        if blame.len() <= stream {
            blame.resize(stream + 1, 0);
        }
        blame[stream] += 1;
    }

    /// Settle `pages` background programs into the WA ledger, apportioned
    /// across per-stream `weights` (largest remainder, exact sum). With no
    /// weights recorded the pages fall to the reserved `ftl` stream.
    fn settle_blame(&mut self, kind: BlameKind, pages: u64, weights: &[u64]) {
        if pages == 0 {
            return;
        }
        if weights.iter().all(|&w| w == 0) {
            self.telemetry.blame(STREAM_FTL, kind, pages);
            return;
        }
        for (stream, share) in apportion(pages, weights).into_iter().enumerate() {
            if share > 0 {
                self.telemetry.blame(stream as u32, kind, share);
            }
        }
    }

    /// Settle a finished log flush: blame its pages and zero the weights
    /// (the buffered deltas they tracked are now on flash).
    fn settle_log_blame(&mut self, pages: u64) {
        let mut w = std::mem::take(&mut self.log_blame);
        self.settle_blame(BlameKind::LogFlush, pages, &w);
        w.iter_mut().for_each(|x| *x = 0);
        self.log_blame = w;
    }

    /// Flush the buffered deltas (no-op on an empty buffer), then
    /// checkpoint if the log ring is nearly full.
    fn flush_log(&mut self) -> Result<(), FtlError> {
        if self.log.buffered() > 0 {
            self.commit_log(None)?;
        }
        self.maybe_checkpoint()
    }

    /// Buffer one mapping delta on behalf of the current stream, flushing
    /// the log when the buffer reaches a page.
    fn log_delta(&mut self, delta: Delta) -> Result<(), FtlError> {
        self.log.append(delta);
        self.note_delta(self.telemetry.current_stream(), 1);
        if self.log.buffer_full() {
            self.flush_log()?;
        }
        Ok(())
    }

    /// The one log commit, a `log_flush` internal pass: program the
    /// buffered deltas — with `batch`, followed by (or sharing a page with)
    /// that batch in one atomically programmed page, which is what makes
    /// SHARE, atomic writes and clones all-or-nothing — then account the
    /// meta pages and settle their blame.
    fn commit_log(&mut self, batch: Option<&[Delta]>) -> Result<(), FtlError> {
        if let Some(batch) = batch {
            self.note_delta(self.telemetry.current_stream(), batch.len() as u64);
        }
        let attr = self.bg_attr();
        let pages = self.internal_pass("log_flush", OpClass::LogFlush, attr, 0, |f| {
            let before = f.log.pages_written;
            match batch {
                Some(batch) => f.log.flush_atomic_batch(&mut f.nand, batch)?,
                None => f.log.flush(&mut f.nand)?,
            }
            Ok(f.log.pages_written - before)
        })?;
        self.stats.meta_page_writes += pages;
        self.settle_log_blame(pages);
        Ok(())
    }

    /// Open an FTL-layer span (no-op when tracing is off).
    fn begin_span(&self, name: &str, stream: u32, start_ns: u64) -> SpanId {
        self.tracer.begin(Layer::Ftl, name, Track::Stream(stream), start_ns)
    }

    /// The internal-pass frame: every pass the FTL runs on its own behalf
    /// (`gc`, `log_flush`, `checkpoint`, `recovery`) opens its span and
    /// records its op class here, attributed to `attr` (None: the `ftl`
    /// stream). `body` returns the pages the pass moved.
    ///
    /// Passes are timed on `submission_now()`, never `now_ns()`: inside a
    /// queued command's deferred window or a background GC window the
    /// shared clock stands still while the window frontier moves, so clock
    /// read-outs would make the pass zero-length with NAND children ending
    /// after it. Outside any window the two are the same number.
    pub(super) fn internal_pass(
        &mut self,
        name: &str,
        op: OpClass,
        attr: Option<u32>,
        lpn: u64,
        body: impl FnOnce(&mut Self) -> Result<u64, FtlError>,
    ) -> Result<u64, FtlError> {
        let t0 = self.nand.submission_now();
        let span = self.begin_span(name, STREAM_FTL, t0);
        let r = body(self);
        let end = self.nand.submission_now();
        let pages = *r.as_ref().unwrap_or(&0);
        self.tracer.end(span, end, pages, r.is_ok());
        self.telemetry.record_as(op, attr, lpn, pages, t0, end, r.is_ok());
        r
    }

    /// The command frame: every host command — each synchronous
    /// `BlockDevice` method and `submit` — enters here. It captures the
    /// command's stream (internal passes it triggers inherit it), opens its
    /// span on the stream's track, runs `body` (which borrows the caller's
    /// payload), and records `op` over the command's interval. `queued`
    /// runs the body under a deferred NAND window instead of on the shared
    /// clock and pins the blocks it allocates into; the interval then ends
    /// at the window's completion time — the latency-under-load the host
    /// observes, not device service time. Returns the outcome, the end
    /// time and the pinned blocks.
    fn frame<T>(
        &mut self,
        name: &str,
        op: Option<OpClass>,
        lpn: u64,
        pages: u64,
        queued: bool,
        body: impl FnOnce(&mut Self) -> Result<T, FtlError>,
    ) -> (Result<T, FtlError>, u64, Vec<u32>) {
        let t0 = self.nand.now_ns();
        let stream = self.telemetry.current_stream();
        self.cmd_stream = Some(stream);
        let span = self.begin_span(name, stream, t0);
        if queued {
            self.pool.begin_capture();
            self.nand.begin_deferred();
        }
        let r = body(self);
        let (end, blocks) = if queued {
            (self.nand.end_deferred(), self.pool.end_capture())
        } else {
            (self.nand.now_ns(), Vec::new())
        };
        self.cmd_stream = None;
        self.tracer.end(span, end, pages, r.is_ok());
        if let Some(op) = op {
            self.telemetry.record(op, lpn, pages, t0, end, r.is_ok());
        }
        (r, end, blocks)
    }

    /// A synchronous host command: the command frame on the shared clock.
    /// Leaving it is the flight recorder's sampling point — epochs seal
    /// lazily at the first command boundary at or after their clock tick
    /// (`submit` ticks once its completion is queued).
    fn command<T>(
        &mut self,
        name: &str,
        op: Option<OpClass>,
        lpn: u64,
        pages: u64,
        body: impl FnOnce(&mut Self) -> Result<T, FtlError>,
    ) -> Result<T, FtlError> {
        let (r, _, _) = self.frame(name, op, lpn, pages, false, body);
        self.epoch_tick();
        r
    }

    /// Seal a flight-recorder epoch if the clock has crossed a boundary.
    /// Pure observation: reads the clock and counters, never advances
    /// simulated time or touches the medium — a monitored run stays
    /// bit-identical to an unmonitored one.
    fn epoch_tick(&mut self) {
        let now = self.nand.now_ns();
        if !self.recorder.as_ref().is_some_and(|r| r.due(now)) {
            return;
        }
        let wear = self.wear_stats();
        let remaining_life = if DEFAULT_ENDURANCE_CYCLES == 0 {
            0.0
        } else {
            (1.0 - wear.mean_erases / DEFAULT_ENDURANCE_CYCLES as f64).clamp(0.0, 1.0)
        };
        let (read_hist, write_hist) = self.telemetry.take_epoch_windows();
        let sample = EpochSample {
            now_ns: now,
            stats: self.stats(),
            wa: self.telemetry.wa_raw(),
            unit_busy_ns: self.nand.busy_ns().to_vec(),
            free_blocks: self.pool.free_count() as u64,
            inflight: self.pending.len() as u64,
            wear_skew: wear.skew(),
            remaining_life,
            read_hist,
            write_hist,
        };
        let outcome = self.recorder.as_mut().expect("checked above").seal(sample);
        self.tracer.push_unit_epoch(outcome.end_ns, &outcome.unit_busy_ns);
        // Fired alerts land on the command ring too, so the flight around
        // an SLO breach is visible in the same event stream as the I/O.
        for a in &outcome.alerts {
            self.telemetry.record_as(
                OpClass::Alert,
                Some(STREAM_FTL),
                a.kind.index() as u64,
                0,
                outcome.end_ns,
                outcome.end_ns,
                a.severity != AlertSeverity::Critical,
            );
        }
    }

    /// Device health report under the default rated endurance.
    pub fn health_report(&self) -> HealthReport {
        self.health_report_with(DEFAULT_ENDURANCE_CYCLES)
    }

    /// Device health report assuming `endurance_cycles` rated P/E cycles.
    /// Read-only: derived entirely from per-block erase counts, pool
    /// headroom, and the cumulative counters.
    pub fn health_report_with(&self, endurance_cycles: u64) -> HealthReport {
        let n = self.pool.block_count();
        let counts: Vec<u32> =
            (0..n).map(|rel| self.nand.erase_count(self.pool.abs(rel))).collect();
        HealthReport::compute(
            &counts,
            self.pool.free_count() as u64,
            &self.stats(),
            endurance_cycles,
        )
    }

    fn maybe_checkpoint(&mut self) -> Result<(), FtlError> {
        if self.log.pages_remaining() < CKPT_MIN_REMAINING_PAGES {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Persist a base mapping snapshot and truncate the delta log.
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        let attr = self.bg_attr();
        self.internal_pass("checkpoint", OpClass::Checkpoint, attr, 0, Self::checkpoint_inner)?;
        Ok(())
    }

    fn checkpoint_inner(&mut self) -> Result<u64, FtlError> {
        // RAM-buffered deltas are already reflected in the snapshot; their
        // log pages will never be written, so the log blame weights reset
        // too (the activity still weighs into this checkpoint's blame).
        self.log.clear_buffered();
        self.log_blame.iter_mut().for_each(|x| *x = 0);
        let slot = 1 - self.last_ckpt_slot;
        let seq = self.log.next_seq();
        let l2p = self.map.l2p_raw().to_vec();
        let gen = self.next_ckpt_gen;
        let snap_bytes = self.snaps.encode();
        let pages =
            ckpt::write_checkpoint(&self.cfg, &mut self.nand, slot, gen, seq, &l2p, &snap_bytes)?;
        self.log.reset(&mut self.nand)?;
        self.last_ckpt_slot = slot;
        self.next_ckpt_gen = gen + 1;
        self.stats.checkpoints += 1;
        self.stats.meta_page_writes += pages;
        let mut w = std::mem::take(&mut self.ckpt_blame);
        self.settle_blame(BlameKind::Checkpoint, pages, &w);
        w.iter_mut().for_each(|x| *x = 0);
        self.ckpt_blame = w;
        Ok(pages)
    }

    /// Lifetime class of `stream` (default for never-classified streams,
    /// which includes the built-in HOST and FTL streams).
    fn class_of_stream(&self, stream: u32) -> u8 {
        self.stream_class.get(stream as usize).copied().unwrap_or(CLASS_DEFAULT)
    }

    /// Allocate a user page in the current stream's lifetime-class lane and
    /// mirror the class onto the NAND block tag (persisted by image v3, so
    /// recovery and GC can see each block's class without pool state).
    fn alloc_user(&mut self) -> Result<Ppn, FtlError> {
        let class = self.class_of_stream(self.telemetry.current_stream());
        let ppn = self.pool.alloc(&self.nand, WritePoint::User { class })?;
        self.nand.set_block_tag(self.cfg.geometry.block_of(ppn), class as u32);
        Ok(ppn)
    }

    /// Pick a GC victim per the configured policy: greedy (fewest valid
    /// pages), FIFO (oldest sealed block), or cost-benefit (most
    /// reclaimable space × seal age). Fully valid blocks are never
    /// picked — erasing them reclaims nothing — and a block already being
    /// collected incrementally is skipped.
    fn pick_victim(&self) -> Option<(u32, u32)> {
        let ppb = self.cfg.geometry.pages_per_block;
        // Snapshot-pinned pages that are dead in the live map still cost a
        // copyback when their block is collected, so they count into the
        // victim's effective valid-page total. Computed once per selection
        // and only when snapshots exist — with an empty table the selection
        // is exactly the historical one.
        let pinned_dead = if self.snaps.is_empty() {
            Vec::new()
        } else {
            self.snaps.pinned_dead_by_block(
                self.pool.block_count() as usize,
                |p| self.pool.rel(self.cfg.geometry.block_of(p)),
                |p| self.map.is_live(p),
            )
        };
        let mut best: Option<(u32, u32, u64)> = None;
        for rel in 0..self.pool.block_count() {
            if !self.pool.victim_eligible(rel, &self.nand) {
                continue;
            }
            if self.gc_job.as_ref().is_some_and(|j| j.rel == rel) {
                continue; // already mid-collection
            }
            let mut valid = self.map.valid_pages(self.pool.abs(rel));
            if !pinned_dead.is_empty() {
                valid += pinned_dead[rel as usize];
            }
            if valid >= ppb {
                continue; // nothing reclaimable here
            }
            let rank = match self.cfg.gc_policy {
                crate::config::GcPolicy::Greedy => valid as u64,
                crate::config::GcPolicy::Fifo => self.pool.seal_seq(rel),
                crate::config::GcPolicy::CostBenefit => {
                    // Maximize reclaimable × age; invert into the shared
                    // min-rank comparison. Age starts at 1 so a freshly
                    // sealed empty block still beats a full one.
                    let reclaimable = (ppb - valid) as u64;
                    let age =
                        self.pool.seal_counter().saturating_sub(self.pool.seal_seq(rel)) + 1;
                    u64::MAX - reclaimable.saturating_mul(age)
                }
            };
            if best.is_none_or(|(_, _, r)| rank < r) {
                best = Some((rel, valid, rank));
                if rank == 0 && self.cfg.gc_policy == crate::config::GcPolicy::Greedy {
                    break; // cannot do better
                }
            }
        }
        best.map(|(rel, valid, _)| (rel, valid))
    }

    /// Repoint every reference to the relocated page `ppn` — live-map LPNs
    /// and snapshot table entries — at `dest`, logging one delta per
    /// reference so recovery replays the move. A page held only by
    /// snapshots skips the live map entirely (it has no referrers there).
    fn relocate_mappings(&mut self, ppn: Ppn, dest: Ppn) -> Result<(), FtlError> {
        if self.map.is_live(ppn) {
            for lpn in self.map.relocate(ppn, dest)? {
                self.log.append(Delta { lpn, old: ppn, new: dest });
                self.note_delta(STREAM_FTL, 1);
            }
        } else {
            self.stats.snapshot_pinned_relocations += 1;
        }
        if !self.snaps.is_empty() {
            for (id, offset) in self.snaps.relocate(ppn, dest) {
                self.log.append(Delta {
                    lpn: snapshot::snap_delta_lpn(id, offset),
                    old: ppn,
                    new: dest,
                });
                self.note_delta(STREAM_FTL, 1);
            }
        }
        Ok(())
    }

    /// Start a collection job on the best victim, if any. The victim
    /// selection counts as one `gc_events`.
    fn gc_begin_job(&mut self) -> bool {
        debug_assert!(self.gc_job.is_none(), "one collection job at a time");
        let Some((rel, _valid)) = self.pick_victim() else {
            return false;
        };
        self.stats.gc_events += 1;
        let block = self.pool.abs(rel);
        // Survivors relocate with the victim's affinity: same lifetime
        // class (NAND block tag; untagged pre-v3 blocks fall to the
        // default class) and same channel, so relocated long-lived data
        // never mixes into short-lived streams' blocks and copyback stays
        // channel-local.
        let tag = self.nand.block_tag(block);
        let classes = self.pool.classes() as u32;
        let class = if tag == UNTAGGED { CLASS_DEFAULT } else { tag.min(classes - 1) as u8 };
        let channel = self.cfg.geometry.channel_of_block(block);
        self.gc_job = Some(GcJob { rel, class, channel, next_idx: 0 });
        true
    }

    /// The one relocation loop. Relocate up to `budget` still-live pages of
    /// the in-progress victim; once every page has been examined, finish
    /// the job (mapping flush, erase, release). Liveness is checked per
    /// page at relocation time, so pages the host invalidated while the job
    /// was parked are skipped. Relocation keeps both live-map referents and
    /// snapshot-pinned pages (frozen data must survive the erase even when
    /// nothing in the live map references it anymore). Returns the pages
    /// relocated this step.
    fn gc_step(&mut self, budget: usize) -> Result<u64, FtlError> {
        let GcJob { rel, class, channel, next_idx } =
            *self.gc_job.as_ref().expect("gc_step without a job");
        let block = self.pool.abs(rel);
        let ppb = self.cfg.geometry.pages_per_block;
        let mut idx = next_idx;
        let mut live: Vec<Ppn> = Vec::new();
        while idx < ppb && live.len() < budget {
            let ppn = self.cfg.geometry.ppn_at(block, idx);
            if self.map.is_live(ppn) || self.snaps.is_pinned(ppn) {
                live.push(ppn);
            }
            idx += 1;
        }
        if !live.is_empty() {
            // All relocation reads go out as one batched submission (they
            // come from one block, hence one unit, so this mostly amortizes
            // the submission; the programs below batch across the GC lane).
            let page_size = self.cfg.geometry.page_size;
            let mut bufs = vec![vec![0u8; page_size]; live.len()];
            let mut reads: Vec<(Ppn, &mut [u8])> =
                live.iter().zip(bufs.iter_mut()).map(|(&p, b)| (p, b.as_mut_slice())).collect();
            self.nand.read_batch(&mut reads)?;
            let mut dests = Vec::with_capacity(live.len());
            for _ in &live {
                let dest = self.pool.alloc(&self.nand, WritePoint::Gc { class, channel })?;
                self.nand.set_block_tag(self.cfg.geometry.block_of(dest), class as u32);
                dests.push(dest);
            }
            let programs: Vec<(Ppn, &[u8])> =
                dests.iter().zip(&bufs).map(|(&d, b)| (d, b.as_slice())).collect();
            self.nand.program_batch(&programs)?;
            for (&ppn, &dest) in live.iter().zip(&dests) {
                self.relocate_mappings(ppn, dest)?;
                self.stats.copyback_pages += 1;
            }
            // Blame this step's copybacks on the streams whose
            // invalidations hollowed the victim out, against its current
            // weights — exact-sum per call, so the wa_ledger invariant
            // holds even with the rest of the victim in flight.
            let w = std::mem::take(&mut self.block_blame[rel as usize]);
            self.settle_blame(BlameKind::Gc, live.len() as u64, &w);
            self.block_blame[rel as usize] = w;
        }
        // Only now is the examined stretch behind us: a step that failed
        // above leaves the cursor where it was, so nothing live is skipped.
        self.gc_job.as_mut().expect("job exists").next_idx = idx;
        if idx == ppb {
            // The persisted mapping must stop referencing the victim
            // before the victim's data disappears.
            self.flush_log()?;
            self.nand.erase(block)?;
            self.stats.gc_erases += 1;
            self.pool.release(rel);
            self.block_blame[rel as usize].clear();
            self.gc_job = None;
        }
        Ok(live.len() as u64)
    }

    /// Run one GC step as a `gc` internal pass. `background` opens a
    /// background timing window: relocations reserve idle channel/way lanes
    /// from device time and the foreground command is never charged (it
    /// only feels GC through lane contention). Without it the step runs on
    /// the caller's timeline — the synchronous drain.
    fn gc_step_traced(&mut self, budget: usize, background: bool) -> Result<u64, FtlError> {
        let victim = self.pool.abs(self.gc_job.as_ref().expect("step without a job").rel);
        let saved = background.then(|| self.nand.begin_background());
        let r = self.internal_pass("gc", OpClass::Gc, None, victim.0 as u64, |f| {
            f.in_gc = true;
            let r = f.gc_step(budget);
            f.in_gc = false;
            r
        });
        if let Some(saved) = saved {
            self.nand.end_background(saved);
        }
        r
    }

    /// Collect whole victims on the caller's own timeline until `high`
    /// blocks are free or nothing is collectible. The submission-time delta
    /// across the drain is exactly the stall the host observes.
    fn drain_to(&mut self, high: usize) -> Result<(), FtlError> {
        let t0 = self.nand.submission_now();
        while self.pool.free_count() < high {
            if self.gc_job.is_none() && !self.gc_begin_job() {
                break;
            }
            self.gc_step_traced(usize::MAX, false)?;
        }
        self.stats.gc_stall_ns += self.nand.submission_now() - t0;
        Ok(())
    }

    pub(super) fn ensure_free(&mut self) -> Result<(), FtlError> {
        // Every open lane — one user and one GC lane per (class, channel)
        // — can pull a fresh block from the free list between two GC
        // checks (a batched submission feeds every user lane; GC feeds one
        // copyback lane per victim), so the watermarks shift up by the
        // lanes beyond the baseline single user + single GC pair. At one
        // channel with placement off this is exactly the configured
        // low/high pair.
        // Blocks pinned by unreaped queued commands are ineligible victims,
        // so the same number of extra free blocks must be banked on top —
        // otherwise a deep queue can strand GC with nothing collectible.
        let lanes = self.pool.classes() * self.cfg.geometry.channels as usize;
        let extra_lanes = 2 * (lanes - 1);
        let pinned = self.pool.inflight_pinned_blocks();
        let low = self.cfg.gc_low_water + extra_lanes + pinned;
        let high = self.cfg.gc_high_water + extra_lanes + pinned;
        // Synchronous GC drains whole victims as soon as free blocks reach
        // the low watermark. The pipeline starts collecting at the same
        // fill levels (similar victim valid counts, similar write
        // amplification) but in the background: `low` banks
        // `extra_lanes + pinned` blocks of slack precisely so open lanes
        // can pull fresh blocks between GC checks, so dipping into that
        // slack is normal operation, not an emergency, and its *hard
        // floor* — where it too drains synchronously — is the un-adjusted
        // `gc_low_water + pinned`, the true point past which allocation is
        // at risk.
        let pipeline = self.cfg.gc_pipeline;
        let floor = if pipeline.enabled { self.cfg.gc_low_water + pinned } else { low };
        if self.pool.free_count() <= floor {
            self.drain_to(high)?;
        } else if pipeline.enabled && self.pool.free_count() <= low + pipeline.soft_headroom {
            // Above the floor, up to `soft_headroom` blocks over `low`, GC
            // runs as budgeted background steps — at most `budget_pages`
            // relocations each, dispatched onto idle lanes — looping
            // (urgent catch-up) while free is inside the slack band, so
            // the foreground never waits for whole victims. The iteration
            // bound (~4 victims' worth of steps) prevents a death spiral
            // when victims are nearly all-valid; past it, the hard floor
            // above remains the correctness backstop.
            let budget = pipeline.budget_pages as usize;
            let ppb = self.cfg.geometry.pages_per_block as usize;
            let mut steps_left = (4 * ppb / budget.max(1)).max(1);
            loop {
                if self.gc_job.is_none() && !self.gc_begin_job() {
                    break;
                }
                self.gc_step_traced(budget, true)?;
                if self.gc_job.is_some() {
                    self.stats.gc_budget_deferrals += 1;
                }
                steps_left -= 1;
                if self.pool.free_count() > low || steps_left == 0 {
                    break;
                }
            }
        }
        if self.pool.free_count() == 0 {
            return Err(FtlError::DeviceFull);
        }
        Ok(())
    }

    /// Validate a SHARE batch and resolve source PPNs (snapshot semantics)
    /// into the reused `share_src_ppns` scratch buffer. All bookkeeping
    /// runs on reused scratch vectors (linear scans — SHARE batches are at
    /// most `deltas_per_page` pairs), so the hot path allocates nothing
    /// once the buffers have grown to the workload's batch size.
    fn validate_share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.cfg.deltas_per_page();
        if pairs.len() > limit {
            return Err(FtlError::BatchTooLarge { got: pairs.len(), max: limit });
        }
        self.share_dests.clear();
        self.share_srcs.clear();
        self.share_src_ppns.clear();
        for p in pairs {
            self.check_lpn(p.dest)?;
            self.check_lpn(p.src)?;
            if p.dest == p.src {
                return Err(FtlError::InvalidBatch("destination equals source"));
            }
            if self.share_dests.contains(&p.dest) {
                return Err(FtlError::InvalidBatch("duplicate destination LPN"));
            }
            self.share_dests.push(p.dest);
            self.share_srcs.push(p.src);
            let ppn = self.map.lookup(p.src);
            if !ppn.is_valid() {
                return Err(FtlError::SrcUnmapped(p.src));
            }
            self.share_src_ppns.push(ppn);
        }
        if pairs.iter().any(|p| self.share_srcs.contains(&p.dest)) {
            return Err(FtlError::InvalidBatch("an LPN is both destination and source"));
        }

        let src_ppns = std::mem::take(&mut self.share_src_ppns);
        let r = self.check_share_headroom(pairs.iter().map(|p| p.dest).zip(src_ppns.iter().copied()));
        self.share_src_ppns = src_ppns;
        r
    }

    /// Pre-check the references `refs` — (new referrer, target page) — would
    /// take, so SHARE and clone stay all-or-nothing at run time too (the
    /// caller falls back to a plain write): no page's reference count may
    /// overflow, and under the strict policy the reverse map must have room
    /// (under ScanOnOverflow a command never fails on capacity). Targets
    /// dead in the live map — frozen pages a clone resurrects — re-enter as
    /// primary mappings: they start from zero and need no shared slot.
    pub(super) fn check_share_headroom(
        &mut self,
        refs: impl Iterator<Item = (Lpn, Ppn)> + Clone,
    ) -> Result<(), FtlError> {
        self.share_incs.clear();
        for (_, ppn) in refs.clone() {
            match self.share_incs.iter_mut().find(|(p, _)| *p == ppn) {
                Some((_, c)) => *c += 1,
                None => self.share_incs.push((ppn, 1)),
            }
        }
        for &(ppn, inc) in &self.share_incs {
            let base = if self.map.is_live(ppn) { self.map.refcount(ppn) as u32 } else { 0 };
            if base + inc > u16::MAX as u32 {
                return Err(FtlError::RefOverflow);
            }
        }
        if self.map.policy() == crate::mapping::RevMapPolicy::Strict {
            let need: usize = refs
                .filter(|&(_, ppn)| self.map.is_live(ppn))
                .map(|(lpn, ppn)| self.map.shared_slot_need(lpn, ppn))
                .sum();
            if need > self.map.revmap().free() {
                return Err(FtlError::RevMapFull { capacity: self.map.revmap().capacity() });
            }
        }
        Ok(())
    }

    /// Apply a validated SHARE batch: remap every destination and commit
    /// the whole batch's deltas in one atomically-programmed log page.
    /// `validate_share` must have run (it fills `share_src_ppns`).
    fn apply_share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.stats.shared_pages += pairs.len() as u64;
        let src_ppns = std::mem::take(&mut self.share_src_ppns);
        let mut deltas = std::mem::take(&mut self.share_deltas);
        deltas.clear();
        let mut res = Ok(());
        for (p, &src_ppn) in pairs.iter().zip(&src_ppns) {
            match self.map.map_shared(p.dest, src_ppn) {
                Ok(old) => {
                    self.note_invalidation(&old);
                    deltas.push(Delta { lpn: p.dest, old: old.old_ppn, new: src_ppn });
                }
                Err(e) => {
                    res = Err(e);
                    break;
                }
            }
        }
        if res.is_ok() {
            res = self.commit_log(Some(&deltas));
        }
        self.share_src_ppns = src_ppns;
        self.share_deltas = deltas;
        res?;
        self.maybe_checkpoint()
    }

    /// Allocate and program as many of `pages`' leading entries as the
    /// free pool allows, as ONE batched submission (programs on distinct
    /// channel-ways overlap in simulated time). May program fewer pages
    /// than requested when the pool runs dry mid-batch; the caller must
    /// map what was programmed before running GC, so no programmed page
    /// is ever unmapped while `ensure_free` can pick victims. Errors with
    /// `DeviceFull` only when nothing at all could be allocated.
    fn program_user_submission(&mut self, pages: &[(Lpn, &[u8])]) -> Result<Vec<Ppn>, FtlError> {
        let mut dests = Vec::with_capacity(pages.len());
        for _ in 0..pages.len() {
            match self.alloc_user() {
                Ok(p) => dests.push(p),
                Err(FtlError::DeviceFull) => break,
                Err(e) => return Err(e),
            }
        }
        if dests.is_empty() {
            return Err(FtlError::DeviceFull);
        }
        let programs: Vec<(Ppn, &[u8])> =
            dests.iter().zip(pages).map(|(&d, (_, data))| (d, *data)).collect();
        self.nand.program_batch(&programs)?;
        Ok(dests)
    }

    /// Pages per batched submission: enough depth to keep every unit busy
    /// (8 per channel-way), and chunked so `ensure_free` gets a say between
    /// submissions on long batches.
    fn submit_chunk_pages(&self) -> usize {
        (self.cfg.geometry.units() as usize * 8).max(1)
    }

    /// Telemetry collected by this device (counters always; histograms and
    /// the command ring per [`FtlConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn read_impl(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if buf.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: buf.len(), want: self.page_size() });
        }
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        let ppn = self.map.lookup(lpn);
        if ppn.is_valid() {
            self.nand.read(ppn, buf)?;
        } else {
            buf.fill(0);
            self.nand.charge(self.cfg.timing.xfer_ns(buf.len()));
        }
        Ok(())
    }

    fn write_impl(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.check_lpn(lpn)?;
        if data.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: data.len(), want: self.page_size() });
        }
        self.stats.host_writes += 1;
        self.stats.host_write_bytes += data.len() as u64;
        self.ensure_free()?;
        let ppn = self.alloc_user()?;
        self.nand.program(ppn, data)?;
        let old = self.map.map_new_write(lpn, ppn)?;
        self.note_invalidation(&old);
        self.log_delta(Delta { lpn, old: old.old_ppn, new: ppn })
    }

    fn trim_impl(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        // Validate the whole range before the first side effect: a bad
        // trim leaves mapping, counters and clock untouched.
        self.check_range(lpn, len)?;
        self.nand.charge(self.cfg.command_ns);
        for i in 0..len {
            let l = lpn.offset(i);
            let old = self.map.unmap(l);
            self.note_invalidation(&old);
            self.stats.trims += 1;
            if old.old_ppn.is_valid() {
                self.log_delta(Delta { lpn: l, old: old.old_ppn, new: Ppn::INVALID })?;
            }
        }
        Ok(())
    }

    fn flush_impl(&mut self) -> Result<(), FtlError> {
        self.stats.flushes += 1;
        self.nand.charge(self.cfg.command_ns);
        self.flush_log()
    }

    pub(super) fn share_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.validate_share(pairs)?;
        self.nand.charge(self.cfg.command_ns);
        self.stats.share_commands += 1;
        self.apply_share(pairs)
    }

    pub(super) fn share_batch_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.share_batch_limit();
        self.nand.charge(self.cfg.command_ns);
        self.stats.share_commands += 1;
        for chunk in pairs.chunks(limit) {
            self.validate_share(chunk)?;
            self.apply_share(chunk)?;
        }
        Ok(())
    }

    /// Read-only view of the device snapshot table (tests, crash sweeps,
    /// CLI introspection).
    pub fn snapshot_table(&self) -> &SnapshotTable {
        &self.snaps
    }

    pub(super) fn snapshot_create_impl(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        if name.is_empty() {
            return Err(FtlError::InvalidBatch("snapshot name must not be empty"));
        }
        if len == 0 {
            return Err(FtlError::InvalidBatch("snapshot range must not be empty"));
        }
        self.check_range(start, len)?;
        self.nand.charge(self.cfg.command_ns);
        // Freeze the current mapping of the range. Pure metadata: no NAND
        // page is read or programmed — the frozen entries simply pin their
        // physical pages against GC reclaim. Durability comes from the next
        // checkpoint (see `snapshot_persist`).
        let mut pages = Vec::new();
        for off in 0..len {
            let ppn = self.map.lookup(Lpn(start.0 + off));
            if ppn.is_valid() {
                pages.push((off, ppn));
            }
        }
        let id = self.snaps.create(name, start, len, pages)?;
        // The serialized table must still fit the checkpoint slot's slack,
        // or no future checkpoint could persist it.
        if self.snaps.encode().len() > ckpt::max_snapshot_bytes(&self.cfg) {
            self.snaps.remove(name).expect("snapshot was just created");
            return Err(FtlError::SnapshotTableFull);
        }
        self.stats.snapshot_creates += 1;
        Ok(id)
    }

    pub(super) fn snapshot_drop_impl(&mut self, name: &str) -> Result<(), FtlError> {
        self.nand.charge(self.cfg.command_ns);
        let rec = self.snaps.remove(name)?;
        // Pages the drop just unpinned — no longer frozen anywhere and dead
        // in the live map — become reclaimable garbage now, so the dropping
        // stream takes the blame for their blocks' eventual GC copyback
        // (mirrors `note_invalidation` at ordinary overwrite/trim death).
        // One snapshot can freeze the same physical page at several offsets
        // (SHAREd range), so blame each distinct page once.
        let mut seen = std::collections::HashSet::new();
        for &(_, ppn) in &rec.pages {
            if seen.insert(ppn.0) && !self.snaps.is_pinned(ppn) && !self.map.is_live(ppn) {
                self.note_invalidation(&crate::mapping::Unmapped { old_ppn: ppn, died: true });
            }
        }
        // A tombstone delta makes the drop durable ahead of the next
        // checkpoint: replay discards the snapshot the same way.
        self.stats.snapshot_drops += 1;
        self.log_delta(Delta {
            lpn: snapshot::snap_tombstone_lpn(rec.id),
            old: Ppn::INVALID,
            new: Ppn::INVALID,
        })
    }

    pub(super) fn snapshot_clone_impl(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        if len == 0 {
            return Err(FtlError::InvalidBatch("clone range must not be empty"));
        }
        self.check_range(dst, len)?;
        // Resolve the window against the frozen record up front; the record
        // itself never changes while we rewire the live map.
        let window: Vec<Option<Ppn>> = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if src_offset > rec.len || len > rec.len - src_offset {
                return Err(FtlError::InvalidBatch("clone window exceeds the snapshot range"));
            }
            (0..len).map(|i| rec.page_at(src_offset + i)).collect()
        };
        self.nand.charge(self.cfg.command_ns);
        // Conservative: ignores any refs the clone's own unmaps release.
        self.check_share_headroom(
            window.iter().enumerate().filter_map(|(i, p)| Some((Lpn(dst.0 + i as u64), (*p)?))),
        )?;
        self.stats.snapshot_clones += 1;
        let limit = self.cfg.deltas_per_page();
        let mut deltas: Vec<Delta> = Vec::new();
        let mut mapped_pages = 0u64;
        for (i, &frozen) in window.iter().enumerate() {
            let lpn = Lpn(dst.0 + i as u64);
            match frozen {
                Some(ppn) => {
                    // Zero-copy materialization: the clone's LPN points at
                    // the frozen physical page. Still-live pages gain a
                    // reference (CoW exactly like SHARE); pages dead in the
                    // live map re-enter it as a fresh primary mapping.
                    let old = if self.map.is_live(ppn) {
                        self.map.map_shared(lpn, ppn)?
                    } else {
                        self.map.map_new_write(lpn, ppn)?
                    };
                    self.note_invalidation(&old);
                    deltas.push(Delta { lpn, old: old.old_ppn, new: ppn });
                    mapped_pages += 1;
                }
                None => {
                    // Hole in the snapshot: the clone reads zeroes there.
                    let old = self.map.unmap(lpn);
                    self.note_invalidation(&old);
                    if old.old_ppn.is_valid() {
                        deltas.push(Delta { lpn, old: old.old_ppn, new: Ppn::INVALID });
                    }
                }
            }
            if deltas.len() == limit {
                self.commit_log(Some(&deltas))?;
                deltas.clear();
            }
        }
        if !deltas.is_empty() {
            self.commit_log(Some(&deltas))?;
        }
        self.stats.snapshot_clone_pages += mapped_pages;
        self.maybe_checkpoint()?;
        Ok(mapped_pages)
    }

    pub(super) fn snapshot_read_impl(
        &mut self,
        name: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), FtlError> {
        if buf.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: buf.len(), want: self.page_size() });
        }
        let ppn = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if offset >= rec.len {
                return Err(FtlError::InvalidBatch("snapshot read beyond the frozen range"));
            }
            rec.page_at(offset)
        };
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        self.stats.snapshot_reads += 1;
        match ppn {
            Some(p) => self.nand.read(p, buf)?,
            None => {
                buf.fill(0);
                self.nand.charge(self.cfg.timing.xfer_ns(buf.len()));
            }
        }
        Ok(())
    }

    fn read_batch_impl(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        self.check_pages(reqs)?;
        let want = self.page_size();
        self.stats.host_reads += reqs.len() as u64;
        self.stats.host_read_bytes += (reqs.len() * want) as u64;
        let mut mapped: Vec<(Ppn, &mut [u8])> = Vec::with_capacity(reqs.len());
        let mut zero_xfer = 0u64;
        for (lpn, buf) in reqs.iter_mut() {
            let ppn = self.map.lookup(*lpn);
            if ppn.is_valid() {
                mapped.push((ppn, &mut buf[..]));
            } else {
                buf.fill(0);
                zero_xfer += self.cfg.timing.xfer_ns(want);
            }
        }
        if !mapped.is_empty() {
            self.nand.read_batch(&mut mapped)?;
        }
        if zero_xfer > 0 {
            self.nand.charge(zero_xfer);
        }
        Ok(())
    }

    /// Place `pages`: allocate, program as batched submissions, and map,
    /// chunk by chunk. Each mapping delta goes to `batch` when the caller
    /// commits them itself (atomic write), to the delta log otherwise.
    fn place_and_map(
        &mut self,
        pages: &[(Lpn, &[u8])],
        mut batch: Option<&mut Vec<Delta>>,
    ) -> Result<(), FtlError> {
        let want = self.page_size();
        for chunk in pages.chunks(self.submit_chunk_pages()) {
            self.stats.host_writes += chunk.len() as u64;
            self.stats.host_write_bytes += (chunk.len() * want) as u64;
            self.ensure_free()?;
            let mut done = 0;
            while done < chunk.len() {
                let dests = self.program_user_submission(&chunk[done..])?;
                for ((lpn, _), &ppn) in chunk[done..].iter().zip(&dests) {
                    let old = self.map.map_new_write(*lpn, ppn)?;
                    self.note_invalidation(&old);
                    let delta = Delta { lpn: *lpn, old: old.old_ppn, new: ppn };
                    match batch.as_deref_mut() {
                        Some(batch) => batch.push(delta),
                        None => self.log_delta(delta)?,
                    }
                }
                done += dests.len();
                if done < chunk.len() {
                    // Mid-chunk pool exhaustion: everything programmed so
                    // far is mapped, so GC can run safely.
                    self.ensure_free()?;
                }
            }
        }
        Ok(())
    }

    /// Range- and length-check a page vector before any side effect.
    fn check_pages<B: AsRef<[u8]>>(&self, pages: &[(Lpn, B)]) -> Result<(), FtlError> {
        let want = self.page_size();
        for (lpn, data) in pages {
            self.check_lpn(*lpn)?;
            if data.as_ref().len() != want {
                return Err(FtlError::BadBufferLength { got: data.as_ref().len(), want });
            }
        }
        Ok(())
    }

    fn write_batch_impl(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.check_pages(pages)?;
        self.place_and_map(pages, None)
    }

    fn write_atomic_impl(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let limit = self.cfg.deltas_per_page();
        if pages.len() > limit {
            return Err(FtlError::BatchTooLarge { got: pages.len(), max: limit });
        }
        let mut dests = HashSet::with_capacity(pages.len());
        for (lpn, data) in pages {
            self.check_lpn(*lpn)?;
            if data.len() != self.page_size() {
                return Err(FtlError::BadBufferLength { got: data.len(), want: self.page_size() });
            }
            if !dests.insert(*lpn) {
                return Err(FtlError::InvalidBatch("duplicate LPN in atomic write"));
            }
        }
        self.nand.charge(self.cfg.command_ns);
        let mut deltas = Vec::with_capacity(pages.len());
        self.place_and_map(pages, Some(&mut deltas))?;
        self.commit_log(Some(&deltas))?;
        self.maybe_checkpoint()
    }

    /// Execute a queued command's state transitions (called inside the
    /// command frame, under its deferred NAND window) through the same
    /// bodies the synchronous methods run.
    fn execute_queued(&mut self, cmd: QueuedCmd) -> Result<CmdOutput, FtlError> {
        fn refs(pages: &[(Lpn, Vec<u8>)]) -> Vec<(Lpn, &[u8])> {
            pages.iter().map(|(l, d)| (*l, d.as_slice())).collect()
        }
        match cmd {
            QueuedCmd::Read { lpn } => {
                let mut buf = vec![0u8; self.page_size()];
                self.read_impl(lpn, &mut buf)?;
                return Ok(CmdOutput::Page(buf));
            }
            QueuedCmd::ReadBatch { lpns } => {
                let mut bufs = vec![vec![0u8; self.page_size()]; lpns.len()];
                let mut reqs: Vec<(Lpn, &mut [u8])> = lpns
                    .iter()
                    .copied()
                    .zip(bufs.iter_mut().map(|b| b.as_mut_slice()))
                    .collect();
                self.read_batch_impl(&mut reqs)?;
                return Ok(CmdOutput::Pages(bufs));
            }
            QueuedCmd::Write { lpn, data } => self.write_impl(lpn, &data)?,
            QueuedCmd::WriteBatch { pages } => self.write_batch_impl(&refs(&pages))?,
            QueuedCmd::WriteAtomic { pages } if !pages.is_empty() => {
                self.write_atomic_impl(&refs(&pages))?
            }
            QueuedCmd::Share { pairs } if !pairs.is_empty() => self.share_impl(&pairs)?,
            QueuedCmd::ShareBatch { pairs } if !pairs.is_empty() => self.share_batch_impl(&pairs)?,
            // Empty atomic and SHARE batches are no-ops, as on the sync path.
            QueuedCmd::WriteAtomic { .. } | QueuedCmd::Share { .. } | QueuedCmd::ShareBatch { .. } => {}
            QueuedCmd::Trim { lpn, len } => self.trim_impl(lpn, len)?,
            QueuedCmd::Flush => self.flush_impl()?,
        }
        Ok(CmdOutput::None)
    }

    /// Block the host until `t`, a pending completion time (None: nothing
    /// is in flight), and reap everything due by then.
    fn wait_until(&mut self, t: Option<u64>) -> Vec<Completion> {
        let Some(t) = t else { return Vec::new() };
        self.nand.clock().advance_to(t);
        self.take_due(self.nand.now_ns())
    }

    /// Remove and return every pending command with `complete_ns <= now`,
    /// oldest completion first, unpinning its blocks.
    fn take_due(&mut self, now: u64) -> Vec<Completion> {
        let mut due: Vec<PendingCmd> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete_ns <= now {
                due.push(self.pending.remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|p| (p.complete_ns, p.tag));
        self.q_reaped += due.len() as u64;
        due.into_iter()
            .map(|p| {
                self.pool.release_inflight(&p.blocks);
                Completion {
                    tag: p.tag,
                    submit_ns: p.submit_ns,
                    complete_ns: p.complete_ns,
                    result: p.result,
                }
            })
            .collect()
    }
}

impl BlockDevice for Ftl {
    fn page_size(&self) -> usize {
        self.cfg.geometry.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.command("read", Some(OpClass::Read), lpn.0, 1, |f| f.read_impl(lpn, buf))
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.command("write", Some(OpClass::Write), lpn.0, 1, |f| f.write_impl(lpn, data))
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.command("flush", Some(OpClass::Flush), 0, 0, Self::flush_impl)
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.command("trim", Some(OpClass::Trim), lpn.0, len, |f| f.trim_impl(lpn, len))
    }

    /// The SHARE command (§3.2): remap every `pair.dest` onto the physical
    /// page of `pair.src`, atomically for the whole batch. The command
    /// returns after its deltas are durably logged (§4.2.2).
    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let Some(first) = pairs.first() else { return Ok(()) };
        let n = pairs.len() as u64;
        self.command("share", Some(OpClass::Share), first.dest.0, n, |f| f.share_impl(pairs))
    }

    /// A large SHARE submission: one host command (one command overhead,
    /// one `share_commands` tick) whose pairs are committed in
    /// log-page-sized sub-batches. Each sub-batch is individually atomic;
    /// a crash can land between sub-batches, exactly as if the host had
    /// issued them as separate commands — minus the per-command overhead.
    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let Some(first) = pairs.first() else { return Ok(()) };
        let n = pairs.len() as u64;
        self.command("share_batch", Some(OpClass::ShareBatch), first.dest.0, n, |f| {
            f.share_batch_impl(pairs)
        })
    }

    fn share_batch_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    /// Freeze the current mapping of `len` pages starting at `start` under
    /// `name`. Pure metadata — zero NAND page programs; the frozen entries
    /// pin their physical pages against GC reclaim until dropped.
    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        self.command("snapshot_create", None, start.0, len, |f| f.snapshot_create_impl(name, start, len))
    }

    /// Release `name`'s pins. Newly unreferenced pages become ordinary
    /// garbage, blamed to the dropping stream.
    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        self.command("snapshot_drop", None, 0, 0, |f| f.snapshot_drop_impl(name))
    }

    /// Materialize a writable zero-copy clone of a snapshot window at
    /// `dst`: clone LPNs share the frozen physical pages; subsequent
    /// overwrites copy-on-write exactly like SHARE'd pages. Returns the
    /// number of pages mapped (holes in the snapshot read zeroes).
    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        self.command("snapshot_clone", None, dst.0, len, |f| {
            f.snapshot_clone_impl(name, src_offset, dst, len)
        })
    }

    /// Point-in-time read of one page from a snapshot, without touching
    /// the live mapping.
    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        self.command("snapshot_read", Some(OpClass::Read), offset, 1, |f| {
            f.snapshot_read_impl(name, offset, buf)
        })
    }

    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        Ok(self.snaps.list())
    }

    /// Persist the snapshot table durably by taking a checkpoint now
    /// (creates are otherwise durable only at the next natural
    /// checkpoint).
    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        self.command("snapshot_persist", None, 0, 0, |f| {
            f.nand.charge(f.cfg.command_ns);
            f.checkpoint()
        })
    }

    /// Batched read: mapped pages go to the NAND as one submission, so
    /// reads on distinct channel-ways overlap in simulated time.
    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        let first = reqs.first().map_or(0, |(lpn, _)| lpn.0);
        let n = reqs.len() as u64;
        self.command("read_batch", Some(OpClass::ReadBatch), first, n, |f| f.read_batch_impl(reqs))
    }

    /// Batched write: destinations are striped across channels by the
    /// block pool and programmed as multi-page submissions, so the
    /// programs overlap across channel-ways. Ordering and durability
    /// semantics match the equivalent sequence of single writes.
    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let first = pages.first().map_or(0, |(lpn, _)| lpn.0);
        let n = pages.len() as u64;
        self.command("write_batch", Some(OpClass::WriteBatch), first, n, |f| f.write_batch_impl(pages))
    }

    /// Atomic multi-page write (§6.1's related-work primitive): all data
    /// pages are programmed out-of-place first, then every mapping delta
    /// of the batch is committed in a single atomically-programmed log
    /// page — the same mechanism that makes SHARE batches atomic.
    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let Some(first) = pages.first() else { return Ok(()) };
        let n = pages.len() as u64;
        self.command("write_atomic", Some(OpClass::WriteAtomic), first.0 .0, n, |f| {
            f.write_atomic_impl(pages)
        })
    }

    fn write_atomic_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_queue(&self) -> bool {
        true
    }

    fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.cfg.queue_depth = depth.max(1);
    }

    /// Queued submission: execute the command's state transitions *now*
    /// (in submission order — the medium and crash images are identical to
    /// the synchronous path) but dispatch its NAND timing onto a deferred
    /// window, so commands from independent connections overlap across
    /// channel-ways. The completion surfaces via `poll`/`reap`/`drain`.
    fn submit(&mut self, cmd: QueuedCmd) -> Result<CmdTag, FtlError> {
        if self.pending.len() >= self.cfg.queue_depth {
            return Err(FtlError::QueueFull { depth: self.cfg.queue_depth });
        }
        let tag = CmdTag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        let submit_ns = self.nand.now_ns();
        let (op, lpn, pages) = cmd.header();
        let (result, complete_ns, blocks) =
            self.frame(cmd.name(), Some(op), lpn, pages, true, |f| f.execute_queued(cmd));
        self.q_submitted += 1;
        self.pending.push(PendingCmd { tag, submit_ns, complete_ns, result, blocks });
        self.q_max_inflight = self.q_max_inflight.max(self.pending.len() as u64);
        self.epoch_tick();
        Ok(tag)
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.take_due(self.nand.now_ns())
    }

    fn reap(&mut self) -> Vec<Completion> {
        let earliest = self.pending.iter().map(|p| p.complete_ns).min();
        self.wait_until(earliest)
    }

    fn drain(&mut self) -> Vec<Completion> {
        let latest = self.pending.iter().map(|p| p.complete_ns).max();
        self.wait_until(latest)
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.nand = self.nand.stats();
        s.lane_steals = self.pool.lane_steals();
        s
    }

    fn clock(&self) -> &SimClock {
        self.nand.clock()
    }

    fn stream_intern(&mut self, label: &str) -> u32 {
        let id = self.telemetry.intern(label);
        let idx = id as usize;
        if self.stream_class.len() <= idx {
            self.stream_class.resize(idx + 1, CLASS_DEFAULT);
        }
        self.stream_class[idx] = self.cfg.placement.classify(label);
        self.tracer.set_stream_label(id, label);
        id
    }

    fn set_stream(&mut self, stream: u32) {
        self.telemetry.set_stream(stream)
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.telemetry.snapshot();
        let channels = self.cfg.geometry.channels;
        snap.units = self
            .nand
            .busy_ns()
            .iter()
            .enumerate()
            .map(|(unit, &busy_ns)| UnitUtilization {
                channel: unit as u32 % channels,
                way: unit as u32 / channels,
                busy_ns,
            })
            .collect();
        snap.now_ns = self.nand.now_ns();
        snap.queue = QueueGauges {
            depth: self.cfg.queue_depth as u64,
            inflight: self.pending.len() as u64,
            max_inflight: self.q_max_inflight,
            submitted: self.q_submitted,
            reaped: self.q_reaped,
        };
        snap.placement = PlacementGauges {
            enabled: self.cfg.placement.enabled,
            lane_steals: self.pool.lane_steals(),
            gc_stall_ns: self.stats.gc_stall_ns,
            gc_budget_deferrals: self.stats.gc_budget_deferrals,
            classes: (0..self.pool.classes())
                .map(|class| PlacementClassGauge {
                    class: class as u8,
                    label: PlacementConfig::class_label(class as u8).to_string(),
                    placed_pages: self.pool.placed_pages(class),
                    gc_moved_pages: self.pool.gc_moved_pages(class),
                    open_blocks: self.pool.open_blocks(class),
                })
                .collect(),
        };
        snap.snapshots = SnapshotGauges {
            live: self.snaps.count() as u64,
            frozen_pages: self.snaps.frozen_pages(),
            pinned_pages: self.snaps.pinned_pages(),
            creates: self.stats.snapshot_creates,
            drops: self.stats.snapshot_drops,
            clones: self.stats.snapshot_clones,
            clone_pages: self.stats.snapshot_clone_pages,
            reads: self.stats.snapshot_reads,
            pinned_relocations: self.stats.snapshot_pinned_relocations,
        };
        snap.health = self.health_report().gauges();
        if let Some(rec) = &self.recorder {
            snap.alerts = rec.alerts().to_vec();
        }
        Some(snap)
    }

    fn monitor_snapshot(&self) -> Option<FlightSnapshot> {
        let rec = self.recorder.as_ref()?;
        let mut snap =
            rec.snapshot(self.nand.now_ns(), &self.stats(), &self.telemetry.wa_raw());
        snap.labels = self.telemetry.stream_labels().to_vec();
        snap.unit_labels = unit_labels(self.cfg.geometry.channels, self.nand.busy_ns().len());
        Some(snap)
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_sim::NandTiming;

    fn tiny() -> Ftl {
        // 1 MiB logical, generous OP so GC has room; zero latency for speed.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        Ftl::new(cfg)
    }

    fn pagev(b: u8, ftl: &Ftl) -> Vec<u8> {
        vec![b; ftl.page_size()]
    }

    fn read_byte(ftl: &mut Ftl, lpn: Lpn) -> u8 {
        let mut buf = vec![0u8; ftl.page_size()];
        ftl.read(lpn, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == buf[0]), "page not uniform");
        buf[0]
    }

    #[test]
    fn write_read_round_trip() {
        let mut f = tiny();
        f.write(Lpn(7), &pagev(0xAA, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(7)), 0xAA);
        f.check_invariants();
    }

    #[test]
    fn unwritten_reads_zero() {
        let mut f = tiny();
        assert_eq!(read_byte(&mut f, Lpn(100)), 0);
    }

    #[test]
    fn overwrite_returns_new_data() {
        let mut f = tiny();
        f.write(Lpn(5), &pagev(1, &f)).unwrap();
        f.write(Lpn(5), &pagev(2, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(5)), 2);
        f.check_invariants();
    }

    #[test]
    fn share_makes_dest_read_src_content() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(0x11, &f)).unwrap();
        f.write(Lpn(2), &pagev(0x22, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(1)), 0x22);
        assert_eq!(read_byte(&mut f, Lpn(2)), 0x22);
        assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
        assert_eq!(f.refcount_of(Lpn(1)), 2);
        f.check_invariants();
    }

    #[test]
    fn share_consumes_no_data_page_writes() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.write(Lpn(2), &pagev(2, &f)).unwrap();
        f.flush().unwrap(); // drain buffered deltas so the batch page is isolated
        let before = f.stats();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        let d = f.stats().delta_since(&before);
        assert_eq!(d.host_writes, 0);
        // Exactly one meta page for the atomic batch.
        assert_eq!(d.meta_page_writes, 1);
        assert_eq!(d.share_commands, 1);
        assert_eq!(d.shared_pages, 1);
    }

    #[test]
    fn share_after_overwrite_of_src_keeps_old_content_for_dest() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.write(Lpn(2), &pagev(2, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(2))]).unwrap();
        // src moves on; dest keeps the shared physical page.
        f.write(Lpn(2), &pagev(3, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(1)), 2);
        assert_eq!(read_byte(&mut f, Lpn(2)), 3);
        assert_eq!(f.refcount_of(Lpn(1)), 1);
        f.check_invariants();
    }

    #[test]
    fn share_unmapped_src_is_rejected() {
        let mut f = tiny();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(9))]),
            Err(FtlError::SrcUnmapped(Lpn(9)))
        );
        // Mapping untouched.
        assert_eq!(read_byte(&mut f, Lpn(1)), 1);
    }

    #[test]
    fn share_batch_validation() {
        let mut f = tiny();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(1))]),
            Err(FtlError::InvalidBatch("destination equals source"))
        );
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(1), Lpn(3))]),
            Err(FtlError::InvalidBatch("duplicate destination LPN"))
        );
        assert_eq!(
            f.share(&[SharePair::new(Lpn(1), Lpn(2)), SharePair::new(Lpn(3), Lpn(1))]),
            Err(FtlError::InvalidBatch("an LPN is both destination and source"))
        );
        let too_big: Vec<SharePair> = (0..f.share_batch_limit() as u64 + 1)
            .map(|i| SharePair::new(Lpn(1000 + i), Lpn(0)))
            .collect();
        assert!(matches!(f.share(&too_big), Err(FtlError::BatchTooLarge { .. })));
        // Failed commands must not mutate state.
        f.check_invariants();
        assert_eq!(f.stats().share_commands, 0);
    }

    #[test]
    fn ranged_share_remaps_every_page() {
        let mut f = tiny();
        for i in 0..8 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(0xF0 + i as u8, &f)).unwrap();
        }
        f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
        for i in 0..4u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), 0xF0 + i as u8);
        }
        for i in 4..8u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), i as u8);
        }
        f.check_invariants();
    }

    #[test]
    fn trim_unmaps_and_reads_zero() {
        let mut f = tiny();
        f.write(Lpn(3), &pagev(9, &f)).unwrap();
        f.trim(Lpn(3), 1).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(3)), 0);
        assert_eq!(f.mapping_of(Lpn(3)), None);
        f.check_invariants();
    }

    #[test]
    fn failed_trim_leaves_the_device_untouched() {
        // A range that runs past the capacity (or overflows) is rejected
        // before the first side effect, sync and queued alike — it used to
        // unmap everything up to the capacity first.
        let mut f = tiny_channels(1);
        let cap = f.capacity_pages();
        for lpn in 0..cap {
            f.write(Lpn(lpn), &pagev(lpn as u8 | 1, &f)).unwrap();
        }
        let mapped = |f: &Ftl| (0..cap).map(|l| f.mapping_of(Lpn(l))).collect::<Vec<_>>();
        let before = (mapped(&f), f.stats(), f.clock().now_ns());
        for (lpn, len) in [(0, u64::MAX), (0, cap + 1), (cap - 1, 2), (cap, 1), (u64::MAX, 2)] {
            let err = f.trim(Lpn(lpn), len).unwrap_err();
            assert!(matches!(err, FtlError::LpnOutOfRange { .. }), "trim({lpn}, {len}): {err:?}");
            f.submit(QueuedCmd::Trim { lpn: Lpn(lpn), len }).unwrap();
            let done = f.reap().pop().unwrap();
            assert!(matches!(done.result, Err(FtlError::LpnOutOfRange { .. })));
            assert_eq!(done.latency_ns(), 0, "a rejected trim costs no device time");
            assert_eq!(before, (mapped(&f), f.stats(), f.clock().now_ns()));
        }
        // The whole range is still a valid trim.
        f.trim(Lpn(0), cap).unwrap();
        assert_eq!(f.stats().trims, cap);
        assert!(mapped(&f).iter().all(Option::is_none));
    }

    #[test]
    fn revmap_full_rejects_whole_batch() {
        let cfg = {
            let mut c = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
            c.revmap_capacity = 2;
            c.revmap_policy = crate::mapping::RevMapPolicy::Strict;
            c
        };
        let mut f = Ftl::new(cfg);
        for i in 0..8 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        // Two shares fit...
        f.share(&[SharePair::new(Lpn(0), Lpn(4)), SharePair::new(Lpn(1), Lpn(5))]).unwrap();
        assert_eq!(f.revmap_len(), 2);
        // ...a third does not, and the whole batch is rejected.
        assert_eq!(
            f.share(&[SharePair::new(Lpn(2), Lpn(6)), SharePair::new(Lpn(3), Lpn(7))]),
            Err(FtlError::RevMapFull { capacity: 2 })
        );
        assert_eq!(f.revmap_len(), 2);
        assert_eq!(read_byte(&mut f, Lpn(2)), 2);
        f.check_invariants();
    }

    #[test]
    fn overwriting_shared_dest_releases_revmap_slot() {
        let mut f = tiny();
        f.write(Lpn(0), &pagev(1, &f)).unwrap();
        f.write(Lpn(1), &pagev(2, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(0), Lpn(1))]).unwrap();
        assert_eq!(f.revmap_len(), 1);
        f.write(Lpn(0), &pagev(3, &f)).unwrap();
        assert_eq!(f.revmap_len(), 0);
        f.check_invariants();
    }

    #[test]
    fn gc_reclaims_space_under_overwrite_pressure() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        // Fill the device, then overwrite half of it repeatedly.
        for i in 0..logical {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        for round in 0..4u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
        }
        let s = f.stats();
        assert!(s.gc_events > 0, "GC must have run");
        assert!(s.gc_erases > 0);
        assert!(s.waf() > 1.0);
        // All data still readable and correct.
        for i in 0..logical / 2 {
            assert_eq!(read_byte(&mut f, Lpn(i)), ((i + 3) % 251) as u8);
        }
        for i in logical / 2..logical {
            assert_eq!(read_byte(&mut f, Lpn(i)), (i % 251) as u8);
        }
        f.check_invariants();
    }

    #[test]
    fn gc_preserves_shared_pages() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        // Create shared mappings up front.
        f.write(Lpn(0), &pagev(0x5A, &f)).unwrap();
        f.share(&[SharePair::new(Lpn(1), Lpn(0)), SharePair::new(Lpn(2), Lpn(0))]).unwrap();
        // Force many GC cycles with overwrite churn elsewhere.
        for round in 0..6u64 {
            for i in 3..logical {
                f.write(Lpn(i), &pagev(((i * 7 + round) % 251) as u8, &f)).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0);
        // The shared trio still reads the same content through one PPN.
        assert_eq!(read_byte(&mut f, Lpn(0)), 0x5A);
        assert_eq!(read_byte(&mut f, Lpn(1)), 0x5A);
        assert_eq!(read_byte(&mut f, Lpn(2)), 0x5A);
        assert_eq!(f.mapping_of(Lpn(0)), f.mapping_of(Lpn(1)));
        assert_eq!(f.mapping_of(Lpn(1)), f.mapping_of(Lpn(2)));
        f.check_invariants();
    }

    #[test]
    fn flush_persists_and_reopen_recovers() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..50 {
            f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
        }
        f.share(&[SharePair::new(Lpn(60), Lpn(0))]).unwrap();
        f.flush().unwrap();
        let nand = f.into_nand();
        let mut f2 = Ftl::open(cfg, nand).unwrap();
        for i in 0..50 {
            assert_eq!(read_byte(&mut f2, Lpn(i)), (i + 1) as u8);
        }
        assert_eq!(read_byte(&mut f2, Lpn(60)), 1);
        assert_eq!(f2.mapping_of(Lpn(60)), f2.mapping_of(Lpn(0)));
        f2.check_invariants();
    }

    #[test]
    fn unflushed_writes_may_be_lost_but_old_data_survives() {
        let mut f = tiny();
        let cfg = f.config().clone();
        f.write(Lpn(1), &pagev(1, &f)).unwrap();
        f.flush().unwrap();
        // Overwrite without flush: durability not promised for the new data,
        // but recovery must yield *some* consistent version (here: the old).
        f.write(Lpn(1), &pagev(2, &f)).unwrap();
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        let v = read_byte(&mut f2, Lpn(1));
        assert!(v == 1 || v == 2, "must be old or new, got {v}");
        f2.check_invariants();
    }

    #[test]
    fn crash_mid_share_batch_is_all_or_nothing() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        // Tear the very next NAND program: that is the atomic batch's log page.
        f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::TornHalf);
        let pairs = SharePair::range(Lpn(0), Lpn(100), 4);
        assert!(f.share(&pairs).is_err());
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        let first = read_byte(&mut f2, Lpn(0));
        let all_old = first == 10;
        for i in 0..4u64 {
            let v = read_byte(&mut f2, Lpn(i));
            if all_old {
                assert_eq!(v, 10 + i as u8, "partial share visible after crash");
            } else {
                assert_eq!(v, 20 + i as u8, "partial share visible after crash");
            }
        }
        f2.check_invariants();
    }

    #[test]
    fn committed_share_survives_crash() {
        let mut f = tiny();
        let cfg = f.config().clone();
        for i in 0..4 {
            f.write(Lpn(i), &pagev(10 + i as u8, &f)).unwrap();
        }
        for i in 0..4u64 {
            f.write(Lpn(100 + i), &pagev(20 + i as u8, &f)).unwrap();
        }
        f.share(&SharePair::range(Lpn(0), Lpn(100), 4)).unwrap();
        // Crash on the next data write, *after* the share completed.
        f.fault_handle().arm_after_programs(1, nand_sim::FaultMode::AfterProgram);
        let _ = f.write(Lpn(200), &pagev(1, &f));
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..4u64 {
            assert_eq!(read_byte(&mut f2, Lpn(i)), 20 + i as u8);
        }
        f2.check_invariants();
    }

    #[test]
    fn checkpoint_cycles_do_not_lose_data() {
        // Tiny log ring forces frequent checkpoints.
        let mut cfg = FtlConfig::for_capacity_with(256 << 10, 0.5, 4096, 16, NandTiming::zero());
        cfg.log_blocks = 2;
        let mut f = Ftl::new(cfg.clone());
        let logical = f.capacity_pages();
        let rounds = 30u64;
        for round in 0..rounds {
            for i in 0..logical {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
            f.flush().unwrap();
        }
        assert!(f.stats().checkpoints > 1, "expected periodic checkpoints");
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..logical {
            assert_eq!(read_byte(&mut f2, Lpn(i)), ((i + rounds - 1) % 251) as u8);
        }
    }

    #[test]
    fn stats_track_host_and_nand_sides() {
        let mut f = tiny();
        f.write(Lpn(0), &pagev(1, &f)).unwrap();
        f.flush().unwrap();
        let s = f.stats();
        assert_eq!(s.host_writes, 1);
        assert_eq!(s.flushes, 1);
        assert!(s.nand.page_programs >= 2); // data page + delta page
        assert!(s.meta_page_writes >= 1);
    }

    #[test]
    fn out_of_range_lpn_rejected_everywhere() {
        let mut f = tiny();
        let cap = f.capacity_pages();
        let buf = pagev(0, &f);
        let mut rbuf = buf.clone();
        assert!(matches!(f.write(Lpn(cap), &buf), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(f.read(Lpn(cap), &mut rbuf), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(f.trim(Lpn(cap), 1), Err(FtlError::LpnOutOfRange { .. })));
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(cap), Lpn(0))]),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn write_atomic_batch_round_trips() {
        let mut f = tiny();
        let imgs: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x30 + i, &f)).collect();
        let batch: Vec<(Lpn, &[u8])> =
            imgs.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
        f.write_atomic(&batch).unwrap();
        for i in 0..8u64 {
            assert_eq!(read_byte(&mut f, Lpn(i)), 0x30 + i as u8);
        }
        assert_eq!(f.stats().host_writes, 8);
        f.check_invariants();
    }

    #[test]
    fn write_atomic_is_all_or_nothing_across_crash() {
        // Sweep crash points across the batch's data programs and its
        // commit (delta) page: recovery must show all-old or all-new.
        for crash_at in 1..=10u64 {
            let mut f = tiny();
            let cfg = f.config().clone();
            let old: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x10 + i, &f)).collect();
            let batch: Vec<(Lpn, &[u8])> =
                old.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
            f.write_atomic(&batch).unwrap();
            f.flush().unwrap();

            let new: Vec<Vec<u8>> = (0..8u8).map(|i| pagev(0x50 + i, &f)).collect();
            let batch: Vec<(Lpn, &[u8])> =
                new.iter().enumerate().map(|(i, v)| (Lpn(i as u64), v.as_slice())).collect();
            f.fault_handle().arm_after_programs(crash_at, nand_sim::FaultMode::TornHalf);
            let crashed = f.write_atomic(&batch).is_err();
            f.fault_handle().disarm();
            let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
            let first = read_byte(&mut f2, Lpn(0));
            let base = if first == 0x10 { 0x10 } else { 0x50 };
            for i in 0..8u64 {
                assert_eq!(
                    read_byte(&mut f2, Lpn(i)),
                    base + i as u8,
                    "crash {crash_at} (crashed={crashed}): partial atomic write visible"
                );
            }
            f2.check_invariants();
        }
    }

    #[test]
    fn write_atomic_validates_batches() {
        let mut f = tiny();
        let img = pagev(1, &f);
        assert_eq!(
            f.write_atomic(&[(Lpn(0), img.as_slice()), (Lpn(0), img.as_slice())]),
            Err(FtlError::InvalidBatch("duplicate LPN in atomic write"))
        );
        let too_big: Vec<(Lpn, &[u8])> =
            (0..f.write_atomic_limit() as u64 + 1).map(|i| (Lpn(i), img.as_slice())).collect();
        assert!(matches!(f.write_atomic(&too_big), Err(FtlError::BatchTooLarge { .. })));
        assert_eq!(f.stats().host_writes, 0, "failed batches must not write");
    }

    #[test]
    fn wear_stats_empty_pool_is_all_zero() {
        // A zero-block pool must not report min == u32::MAX / mean == NaN.
        let w = WearStats::from_counts(std::iter::empty::<u32>());
        assert_eq!(w.min_erases, 0);
        assert_eq!(w.max_erases, 0);
        assert_eq!(w.mean_erases, 0.0);
        assert!(!w.mean_erases.is_nan());
    }

    #[test]
    fn wear_stats_from_counts_summarizes() {
        let w = WearStats::from_counts([3u32, 1, 2]);
        assert_eq!(w.min_erases, 1);
        assert_eq!(w.max_erases, 3);
        assert!((w.mean_erases - 2.0).abs() < 1e-12);
    }

    #[test]
    fn open_reports_recovery_cost_in_stats() {
        let mut f = tiny();
        for i in 0..40u64 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let cfg = f.config().clone();
        let rec = Ftl::open(cfg.clone(), f.into_nand()).unwrap();
        let s = rec.stats();
        assert_eq!(s.recoveries, 1);
        assert!(s.recovery_page_reads > 0, "recovery must scan the image");
        // Recovery programs exactly the fresh closing checkpoint: header +
        // table pages + commit page.
        let table_pages = (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64);
        assert_eq!(s.recovery_page_writes, table_pages + 2);
        // A freshly formatted device, by contrast, has never recovered.
        let fresh = tiny();
        assert_eq!(fresh.stats().recoveries, 0);
        assert_eq!(fresh.stats().recovery_page_writes, 0);
    }

    #[test]
    fn wear_stats_track_erases_and_stay_balanced() {
        let mut f = tiny();
        let logical = f.capacity_pages();
        let w0 = f.wear_stats();
        assert_eq!(w0.max_erases, 0);
        for round in 0..10u64 {
            for i in 0..logical {
                f.write(Lpn(i), &pagev(((i + round) % 251) as u8, &f)).unwrap();
            }
        }
        let w = f.wear_stats();
        assert!(w.max_erases > 0, "churn must cause erases");
        assert!(w.mean_erases > 0.5);
        // Min-erase-count free-block selection keeps wear within a band.
        assert!(
            w.max_erases - w.min_erases <= w.max_erases.max(4),
            "wear spread too wide: {w:?}"
        );
    }

    #[test]
    fn share_timing_is_cheaper_than_write() {
        // With real latencies, sharing N pages must beat writing N pages.
        let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut f = Ftl::new(cfg);
        for i in 0..64u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        for i in 0..64u64 {
            f.write(Lpn(100 + i), &pagev(2, &f)).unwrap();
        }
        let t0 = f.clock().now_ns();
        f.share(&SharePair::range(Lpn(0), Lpn(100), 64)).unwrap();
        let share_cost = f.clock().now_ns() - t0;

        let t1 = f.clock().now_ns();
        for i in 0..64u64 {
            f.write(Lpn(200 + i), &pagev(3, &f)).unwrap();
        }
        let write_cost = f.clock().now_ns() - t1;
        assert!(
            share_cost * 10 < write_cost,
            "share ({share_cost} ns) should be >10x cheaper than writes ({write_cost} ns)"
        );
    }

    fn tiny_channels(channels: u32) -> Ftl {
        let cfg = FtlConfig::for_capacity_with(2 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_parallelism(channels, 1);
        Ftl::new(cfg)
    }

    #[test]
    fn write_batch_round_trips_and_matches_serial_stats() {
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let pages: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        assert_eq!(f.stats().host_writes, 32);
        let mut buf = vec![0u8; ps];
        for i in 0..32u64 {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == i as u8), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn read_batch_mixes_mapped_and_unmapped() {
        let mut f = tiny_channels(2);
        let ps = f.page_size();
        f.write(Lpn(1), &pagev(7, &f)).unwrap();
        f.write(Lpn(3), &pagev(9, &f)).unwrap();
        let mut bufs = vec![vec![0xAAu8; ps]; 4];
        {
            let mut reqs: Vec<(Lpn, &mut [u8])> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, b)| (Lpn(i as u64), b.as_mut_slice()))
                .collect();
            f.read_batch(&mut reqs).unwrap();
        }
        assert!(bufs[0].iter().all(|&b| b == 0), "unmapped reads zero");
        assert!(bufs[1].iter().all(|&b| b == 7));
        assert!(bufs[2].iter().all(|&b| b == 0));
        assert!(bufs[3].iter().all(|&b| b == 9));
        assert_eq!(f.stats().host_reads, 4);
    }

    #[test]
    fn write_batch_scales_with_channels() {
        // The same 64-page batch must finish earlier on 8 channels than
        // on 1 — the tentpole's end-to-end claim at device level.
        let mut times = Vec::new();
        for ch in [1u32, 8] {
            let mut f = tiny_channels(ch);
            let ps = f.page_size();
            let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
            let batch: Vec<(Lpn, &[u8])> =
                pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
            let t0 = f.clock().now_ns();
            f.write_batch(&batch).unwrap();
            times.push(f.clock().now_ns() - t0);
        }
        assert!(
            times[1] * 2 < times[0],
            "8-channel batch ({} ns) should be >2x faster than 1-channel ({} ns)",
            times[1],
            times[0]
        );
    }

    #[test]
    fn one_channel_write_batch_matches_serial_writes_in_time() {
        // On a single channel the batched path must cost exactly what the
        // serial path costs — batching changes dispatch, not physics.
        let mut serial = tiny_channels(1);
        let ps = serial.page_size();
        let pages: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; ps]).collect();
        let t0 = serial.clock().now_ns();
        for (i, p) in pages.iter().enumerate() {
            serial.write(Lpn(i as u64), p).unwrap();
        }
        let serial_ns = serial.clock().now_ns() - t0;

        let mut batched = tiny_channels(1);
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        let t1 = batched.clock().now_ns();
        batched.write_batch(&batch).unwrap();
        let batched_ns = batched.clock().now_ns() - t1;
        assert_eq!(serial_ns, batched_ns);
    }

    #[test]
    fn share_batch_spans_multiple_log_pages_as_one_command() {
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg);
        let limit = f.share_batch_limit();
        let n = limit as u64 + 10; // forces two log-page sub-batches
        for i in 0..n {
            f.write(Lpn(512 + i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        let pairs: Vec<SharePair> =
            (0..n).map(|i| SharePair::new(Lpn(i), Lpn(512 + i))).collect();
        let cmds_before = f.stats().share_commands;
        f.share_batch(&pairs).unwrap();
        assert_eq!(f.stats().share_commands, cmds_before + 1, "one host command");
        assert_eq!(f.stats().shared_pages, n);
        let mut buf = vec![0u8; f.page_size()];
        for i in 0..n {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == (i % 251) as u8), "pair {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn share_validation_errors_are_unchanged_by_scratch_reuse() {
        // Reusing scratch buffers across commands must not leak state
        // from a failed validation into the next command.
        let mut f = tiny();
        f.write(Lpn(10), &pagev(1, &f)).unwrap();
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(0), Lpn(99))]),
            Err(FtlError::SrcUnmapped(_))
        ));
        assert!(matches!(
            f.share(&[SharePair::new(Lpn(0), Lpn(10)), SharePair::new(Lpn(0), Lpn(10))]),
            Err(FtlError::InvalidBatch("duplicate destination LPN"))
        ));
        // A valid command right after the failures still works.
        f.share(&[SharePair::new(Lpn(0), Lpn(10))]).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        f.read(Lpn(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        f.check_invariants();
    }

    /// Drive a mixed, error-free workload through `f` exercising every
    /// host op class plus GC/log/checkpoint traffic.
    fn mixed_workload(f: &mut Ftl) {
        let ps = f.page_size();
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; ps]).unwrap();
            }
        }
        let pages: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        f.write_atomic(&batch[..8]).unwrap();
        f.share(&[SharePair::new(Lpn(200), Lpn(0))]).unwrap();
        f.share_batch(&SharePair::range(Lpn(210), Lpn(1), 4)).unwrap();
        let mut buf = vec![0u8; ps];
        f.read(Lpn(0), &mut buf).unwrap();
        let mut bufs = vec![vec![0u8; ps]; 4];
        let mut reqs: Vec<(Lpn, &mut [u8])> =
            bufs.iter_mut().enumerate().map(|(i, b)| (Lpn(i as u64), b.as_mut_slice())).collect();
        f.read_batch(&mut reqs).unwrap();
        f.trim(Lpn(220), 3).unwrap();
        f.flush().unwrap();
    }

    #[test]
    fn telemetry_counters_match_device_stats() {
        use share_telemetry::OpClass as Op;
        let mut f = tiny();
        mixed_workload(&mut f);
        let s = f.stats();
        let t = f.telemetry().snapshot();
        assert!(s.gc_events > 0, "workload must trigger GC");
        assert_eq!(s.host_reads, t.pages(Op::Read) + t.pages(Op::ReadBatch));
        assert_eq!(
            s.host_writes,
            t.pages(Op::Write) + t.pages(Op::WriteBatch) + t.pages(Op::WriteAtomic)
        );
        assert_eq!(s.flushes, t.ops_count(Op::Flush));
        assert_eq!(s.trims, t.pages(Op::Trim));
        assert_eq!(s.share_commands, t.ops_count(Op::Share) + t.ops_count(Op::ShareBatch));
        assert_eq!(s.shared_pages, t.pages(Op::Share) + t.pages(Op::ShareBatch));
        assert_eq!(s.gc_events, t.ops_count(Op::Gc));
        assert_eq!(s.copyback_pages, t.pages(Op::Gc));
        assert_eq!(s.checkpoints, t.ops_count(Op::Checkpoint));
        assert_eq!(s.meta_page_writes, t.pages(Op::LogFlush) + t.pages(Op::Checkpoint));
    }

    #[test]
    fn full_telemetry_leaves_simulated_results_bit_identical() {
        // Same workload, counters-only vs. everything on: the simulated
        // clock and every DeviceStats counter must match exactly —
        // telemetry reads the clock, never advances it.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut plain = Ftl::new(cfg.clone());
        let mut full =
            Ftl::new(cfg.with_telemetry(share_telemetry::TelemetryConfig::full()));
        mixed_workload(&mut plain);
        mixed_workload(&mut full);
        assert_eq!(plain.clock().now_ns(), full.clock().now_ns());
        assert_eq!(plain.stats(), full.stats());
        // And the full device actually collected the optional data.
        let snap = full.telemetry().snapshot();
        assert!(!snap.op(share_telemetry::OpClass::Write).hist.is_empty());
        assert!(!snap.events.is_empty());
        assert!(plain.telemetry().snapshot().events.is_empty());
    }

    #[test]
    fn tracing_leaves_simulated_results_bit_identical() {
        // The tracer only *reads* clock values around work that happens
        // anyway, so a traced run must be indistinguishable from an
        // untraced one in simulated time and every DeviceStats counter.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut plain = Ftl::new(cfg.clone());
        let mut traced =
            Ftl::new(cfg.with_telemetry(share_telemetry::TelemetryConfig::tracing()));
        mixed_workload(&mut plain);
        mixed_workload(&mut traced);
        assert_eq!(plain.clock().now_ns(), traced.clock().now_ns());
        assert_eq!(plain.stats(), traced.stats());
        assert!(!plain.tracer().is_enabled());
        assert_eq!(plain.tracer().span_count(), 0);
        assert!(traced.tracer().span_count() > 0, "traced run must collect spans");
    }

    #[test]
    fn trace_spans_nest_ftl_over_nand_and_export() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_telemetry(share_telemetry::TelemetryConfig::tracing());
        let mut f = Ftl::new(cfg);
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        f.write(Lpn(3), &pagev(7, &f)).unwrap();
        let spans = f.tracer().spans();
        let write = spans
            .iter()
            .find(|s| s.name == "write" && s.layer == Layer::Ftl)
            .expect("ftl write span");
        assert_eq!(write.track, Track::Stream(wal));
        let program = spans
            .iter()
            .find(|s| s.name == "program" && s.layer == Layer::Nand && s.parent == write.id)
            .expect("NAND program leaf hangs off the FTL command span");
        assert!(write.start_ns <= program.start_ns && program.end_ns <= write.end_ns);
        // The export names the interned stream's track and re-parses.
        let doc = f.tracer().chrome_json().expect("enabled tracer exports");
        let text = doc.render();
        assert!(text.contains("stream:wal"));
        share_telemetry::json::parse(&text).expect("chrome trace re-parses");
    }

    #[test]
    fn wa_ledger_sums_exactly_to_background_programs() {
        let mut f = tiny();
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        mixed_workload(&mut f);
        let s = f.stats();
        assert!(s.gc_events > 0, "workload must trigger GC");
        let snap = f.telemetry_snapshot().unwrap();
        let bg_gc: u64 = snap.wa.iter().map(|w| w.bg_gc).sum();
        let bg_meta: u64 = snap.wa.iter().map(|w| w.bg_log + w.bg_ckpt).sum();
        assert_eq!(bg_gc, s.copyback_pages, "GC blame must sum to copyback pages");
        assert_eq!(bg_meta, s.meta_page_writes, "log+ckpt blame must sum to meta pages");
        assert_eq!(f.telemetry().blamed_total(), s.copyback_pages + s.meta_page_writes);
        // The busy workload ran under the `wal` stream, so the ledger must
        // pin background work on it, not just the ftl fallback.
        let wal_wa = snap.wa.iter().find(|w| w.label == "wal").unwrap();
        assert!(wal_wa.bg_total() > 0, "foreground stream must carry blame");
        assert!(wal_wa.wa_factor().unwrap() > 1.0);
    }

    #[test]
    fn log_flush_inside_host_command_inherits_its_stream() {
        // Satellite regression: a delta-log flush triggered mid-command
        // (RAM buffer filled during a large write_batch) must surface in
        // the command ring under the host command's stream, while GC's own
        // flushes stay on the reserved ftl stream.
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_telemetry(share_telemetry::TelemetryConfig::full());
        let mut f = Ftl::new(cfg);
        let dwb = f.stream_intern("doublewrite");
        f.set_stream(dwb);
        let ps = f.page_size();
        let n = f.config().deltas_per_page() * 2 + 8; // forces buffered flushes
        let pages: Vec<Vec<u8>> = (0..n).map(|i| vec![(i % 251) as u8; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        let events = f.telemetry().snapshot().events;
        let flushes: Vec<_> =
            events.iter().filter(|e| e.op == OpClass::LogFlush).collect();
        assert!(!flushes.is_empty(), "batch must trigger a mid-command log flush");
        assert!(
            flushes.iter().all(|e| e.stream == dwb),
            "mid-command log flushes must inherit the doublewrite stream"
        );
        // Now push the device into GC under the same stream: GC-triggered
        // flushes must NOT inherit it.
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; ps]).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0);
        let events = f.telemetry().snapshot().events;
        let gc_flush = events
            .iter()
            .filter(|e| e.op == OpClass::LogFlush)
            .any(|e| e.stream == STREAM_FTL);
        assert!(gc_flush, "GC's log flushes stay on the ftl stream");
    }

    #[test]
    fn unit_utilization_snapshot_tracks_channels() {
        let cfg = FtlConfig::for_capacity_with(4 << 20, 0.5, 4096, 16, NandTiming::default())
            .with_parallelism(4, 1);
        let mut f = Ftl::new(cfg);
        let ps = f.page_size();
        let pages: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; ps]).collect();
        let batch: Vec<(Lpn, &[u8])> =
            pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
        f.write_batch(&batch).unwrap();
        let snap = f.telemetry_snapshot().unwrap();
        assert_eq!(snap.units.len(), 4, "one utilization row per channel-way");
        assert!(snap.now_ns > 0);
        for u in &snap.units {
            assert!(u.busy_ns > 0, "striped batch keeps every unit busy");
            assert!(u.busy_ns <= snap.now_ns, "busy time cannot exceed wall time");
        }
        assert_eq!(snap.units.iter().map(|u| u.channel).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn recovery_is_recorded_as_an_op() {
        let mut f = tiny();
        for i in 0..30u64 {
            f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let cfg = f.config().clone();
        let rec = Ftl::open(cfg, f.into_nand()).unwrap();
        let t = rec.telemetry().snapshot();
        use share_telemetry::OpClass as Op;
        assert_eq!(t.ops_count(Op::Recovery), 1);
        let s = rec.stats();
        assert_eq!(t.pages(Op::Recovery), s.recovery_page_reads + s.recovery_page_writes);
        // The closing checkpoint is visible both as a Checkpoint op and in
        // DeviceStats.
        assert_eq!(t.ops_count(Op::Checkpoint), s.checkpoints);
        // A fresh format records its birth checkpoint but no recovery.
        let fresh = tiny();
        let tf = fresh.telemetry().snapshot();
        assert_eq!(tf.ops_count(Op::Recovery), 0);
        assert_eq!(tf.ops_count(Op::Checkpoint), 1);
    }

    #[test]
    fn streams_attribute_host_and_ftl_traffic() {
        let mut f = tiny();
        let wal = f.stream_intern("wal");
        f.set_stream(wal);
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        f.set_stream(0);
        for i in 8..10u64 {
            f.write(Lpn(i), &pagev(2, &f)).unwrap();
        }
        let t = f.telemetry().snapshot();
        let by_label = |l: &str| t.streams.iter().find(|s| s.label == l).cloned().unwrap();
        assert_eq!(by_label("wal").writes.pages, 8);
        assert_eq!(by_label("host").writes.pages, 2);
        // The birth checkpoint lands on the reserved ftl stream.
        assert!(by_label("ftl").other.pages > 0);
    }

    #[test]
    fn gc_survives_batched_writes_under_pressure() {
        // Overwrite far more than the pool holds, in batches, across
        // channels: GC must relocate correctly and never eat a page that
        // a batch just programmed.
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let span = 96u64; // < logical capacity, > data pool working set
        for round in 0..12u8 {
            let pages: Vec<Vec<u8>> = (0..span).map(|i| vec![round ^ (i as u8); ps]).collect();
            let batch: Vec<(Lpn, &[u8])> =
                pages.iter().enumerate().map(|(i, p)| (Lpn(i as u64), p.as_slice())).collect();
            f.write_batch(&batch).unwrap();
        }
        let mut buf = vec![0u8; ps];
        for i in 0..span {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 11 ^ (i as u8)), "lpn {i} diverged after GC");
        }
        assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
        f.check_invariants();
    }

    // ----- submission/completion queue ------------------------------------

    #[test]
    fn queued_write_then_read_round_trips() {
        let mut f = tiny();
        let page = pagev(0x5A, &f);
        let wt = f.submit(QueuedCmd::Write { lpn: Lpn(3), data: page.clone() }).unwrap();
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, wt);
        assert!(done[0].is_ok());
        let rt = f.submit(QueuedCmd::Read { lpn: Lpn(3) }).unwrap();
        let done = f.drain();
        assert_eq!(done[0].tag, rt);
        let data = done[0].result.clone().unwrap().into_page().unwrap();
        assert_eq!(data, page);
        f.check_invariants();
    }

    #[test]
    fn queued_state_is_eager_but_completion_is_deferred() {
        let mut f = tiny_channels(2);
        let page = pagev(0x42, &f);
        let before = f.nand().now_ns();
        f.submit(QueuedCmd::Write { lpn: Lpn(9), data: page.clone() }).unwrap();
        // Submission never moves the clock...
        assert_eq!(f.nand().now_ns(), before);
        assert_eq!(f.inflight(), 1);
        // ...and nothing is due yet under nonzero NAND timing.
        assert!(f.poll().is_empty());
        // But the state transition already happened: a sync read sees it.
        assert_eq!(read_byte(&mut f, Lpn(9)), 0x42);
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(f.inflight(), 0);
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_queue_depth(2);
        let mut f = Ftl::new(cfg);
        let page = pagev(1, &f);
        f.submit(QueuedCmd::Write { lpn: Lpn(0), data: page.clone() }).unwrap();
        f.submit(QueuedCmd::Write { lpn: Lpn(1), data: page.clone() }).unwrap();
        assert_eq!(
            f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page.clone() }),
            Err(FtlError::QueueFull { depth: 2 })
        );
        // Reaping frees a slot (zero timing: everything is due at once).
        assert!(!f.reap().is_empty());
        f.submit(QueuedCmd::Write { lpn: Lpn(2), data: page }).unwrap();
        f.drain();
    }

    /// One host command of the sync==queued pin, in a form both paths can
    /// issue: LPNs and fill bytes, no borrowed payloads.
    #[derive(Debug, Clone)]
    enum PinOp {
        Write(u64, u8),
        WriteBatch(Vec<(u64, u8)>),
        WriteAtomic(Vec<(u64, u8)>),
        Share(Vec<SharePair>),
        ShareBatch(Vec<SharePair>),
        Trim(u64, u64),
        Flush,
        Read(u64),
        ReadBatch(Vec<u64>),
    }

    /// A deterministic script over `pages` LPNs that reaches every queued
    /// command kind, overwrites the whole range `rounds` times in a
    /// permuted order (so GC must relocate), and flushes often enough to
    /// fill the delta-log ring and force a checkpoint.
    fn pin_script(pages: u64, rounds: u64) -> Vec<PinOp> {
        let fill = |round: u64, lpn: u64| ((round * 67 + lpn * 31) % 255 + 1) as u8;
        let half = pages / 2;
        // Map everything first, so every SHARE source below is mapped.
        let mut ops: Vec<PinOp> = (0..pages / 16)
            .map(|c| PinOp::WriteBatch((c * 16..c * 16 + 16).map(|l| (l, fill(0, l))).collect()))
            .collect();
        for round in 1..=rounds {
            let lpn_at = |i: u64| (i * 173 + round * 311) % pages;
            let mut i = 0;
            while i < pages {
                match (i / 8) % 4 {
                    0 => {
                        for k in i..i + 8 {
                            ops.push(PinOp::Write(lpn_at(k), fill(round, lpn_at(k))));
                        }
                    }
                    1 => ops.push(PinOp::WriteBatch(
                        (i..i + 8).map(|k| (lpn_at(k), fill(round, lpn_at(k)))).collect(),
                    )),
                    2 => ops.push(PinOp::WriteAtomic(
                        (i..i + 8).map(|k| (lpn_at(k), fill(round, lpn_at(k)))).collect(),
                    )),
                    _ => {
                        ops.push(PinOp::ReadBatch((i..i + 8).map(lpn_at).collect()));
                        ops.push(PinOp::Read(lpn_at(i)));
                        ops.push(PinOp::Flush);
                    }
                }
                i += 8;
            }
            // Remap a few low pages onto high ones, drop two low ones
            // (sources stay mapped), and once push a SHARE submission long
            // enough to span log pages.
            let base = (round * 8) % (half - 8);
            ops.push(PinOp::Share(
                (0..8).map(|k| SharePair::new(Lpn(base + k), Lpn(half + base + k))).collect(),
            ));
            ops.push(PinOp::Trim((round * 7) % (half - 2), 2));
            if round == 2 {
                ops.push(PinOp::ShareBatch(
                    (0..half).map(|k| SharePair::new(Lpn(k), Lpn(half + k))).collect(),
                ));
            }
            ops.push(PinOp::Flush);
        }
        ops
    }

    /// Run `ops` through the blocking methods (`queued == false`) or one
    /// `submit` + `reap` per command at queue depth 1, returning the clock,
    /// the full counters and an FNV-1a hash over every read payload plus a
    /// final sweep of the whole logical range.
    fn run_pin(mut f: Ftl, ops: &[PinOp], queued: bool) -> (u64, DeviceStats, u64) {
        let ps = f.page_size();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ b as u64).wrapping_mul(0x1_0000_01b3);
            }
        };
        let owned = |v: &[(u64, u8)]| -> Vec<(Lpn, Vec<u8>)> {
            v.iter().map(|&(l, b)| (Lpn(l), vec![b; ps])).collect()
        };
        for op in ops {
            if queued {
                let cmd = match op.clone() {
                    PinOp::Write(l, b) => QueuedCmd::Write { lpn: Lpn(l), data: vec![b; ps] },
                    PinOp::WriteBatch(v) => QueuedCmd::WriteBatch { pages: owned(&v) },
                    PinOp::WriteAtomic(v) => QueuedCmd::WriteAtomic { pages: owned(&v) },
                    PinOp::Share(pairs) => QueuedCmd::Share { pairs },
                    PinOp::ShareBatch(pairs) => QueuedCmd::ShareBatch { pairs },
                    PinOp::Trim(l, n) => QueuedCmd::Trim { lpn: Lpn(l), len: n },
                    PinOp::Flush => QueuedCmd::Flush,
                    PinOp::Read(l) => QueuedCmd::Read { lpn: Lpn(l) },
                    PinOp::ReadBatch(v) => {
                        QueuedCmd::ReadBatch { lpns: v.into_iter().map(Lpn).collect() }
                    }
                };
                f.submit(cmd).unwrap();
                let mut done = f.reap();
                assert_eq!(done.len(), 1);
                match done.pop().unwrap().result.unwrap() {
                    CmdOutput::None => {}
                    CmdOutput::Page(p) => fold(&p),
                    CmdOutput::Pages(ps) => ps.iter().for_each(|p| fold(p)),
                }
                continue;
            }
            match op {
                PinOp::Write(l, b) => f.write(Lpn(*l), &vec![*b; ps]).unwrap(),
                PinOp::WriteBatch(v) | PinOp::WriteAtomic(v) => {
                    let pages = owned(v);
                    let refs: Vec<(Lpn, &[u8])> =
                        pages.iter().map(|(l, d)| (*l, d.as_slice())).collect();
                    if matches!(op, PinOp::WriteBatch(_)) {
                        f.write_batch(&refs).unwrap()
                    } else {
                        f.write_atomic(&refs).unwrap()
                    }
                }
                PinOp::Share(pairs) => f.share(pairs).unwrap(),
                PinOp::ShareBatch(pairs) => f.share_batch(pairs).unwrap(),
                PinOp::Trim(l, n) => f.trim(Lpn(*l), *n).unwrap(),
                PinOp::Flush => f.flush().unwrap(),
                PinOp::Read(l) => {
                    let mut buf = vec![0u8; ps];
                    f.read(Lpn(*l), &mut buf).unwrap();
                    fold(&buf);
                }
                PinOp::ReadBatch(v) => {
                    let mut bufs = vec![vec![0u8; ps]; v.len()];
                    let mut reqs: Vec<(Lpn, &mut [u8])> = v
                        .iter()
                        .map(|&l| Lpn(l))
                        .zip(bufs.iter_mut().map(|b| b.as_mut_slice()))
                        .collect();
                    f.read_batch(&mut reqs).unwrap();
                    bufs.iter().for_each(|b| fold(b));
                }
            }
        }
        let (now, stats) = (f.nand().now_ns(), f.stats());
        let mut buf = vec![0u8; ps];
        for lpn in 0..f.capacity_pages() {
            f.read(Lpn(lpn), &mut buf).unwrap();
            fold(&buf);
        }
        f.check_invariants();
        (now, stats, hash)
    }

    #[test]
    fn qd1_submit_reap_is_bit_identical_to_sync() {
        // One command in flight at a time must cost exactly what the
        // blocking path costs and leave exactly the same device — for every
        // command kind, across GC and a checkpoint. This is the pin that
        // lets the sync methods and `submit` share one command frame and
        // one set of bodies.
        const PAGES: u64 = 256;
        let ops = pin_script(PAGES, 6);
        let device = |channels: u32, over_provision: f64| {
            let cfg = FtlConfig::for_capacity_with(
                PAGES * 4096,
                over_provision,
                4096,
                16,
                NandTiming::default(),
            );
            Ftl::new(cfg.with_parallelism(channels, 1))
        };
        for channels in [1u32, 4] {
            // Roomy device: no GC, so nothing but the command paths differ.
            let (t_sync, s_sync, h_sync) = run_pin(device(channels, 8.0), &ops, false);
            let (t_q, s_q, h_q) = run_pin(device(channels, 8.0), &ops, true);
            assert!(s_sync.gc_events == 0 && s_sync.checkpoints >= 2, "{s_sync:?}");
            assert_eq!(t_sync, t_q, "qd=1 timing diverged at {channels} channels");
            assert_eq!(s_sync, s_q, "qd=1 counters diverged at {channels} channels");
            assert_eq!(h_sync, h_q, "qd=1 contents diverged at {channels} channels");

            // Tight device: the same script now crosses dozens of victims.
            let (t_sync, s_sync, h_sync) = run_pin(device(channels, 0.25), &ops, false);
            let (t_q, s_q, h_q) = run_pin(device(channels, 0.25), &ops, true);
            assert!(
                s_sync.gc_erases >= 4 && s_sync.copyback_pages > 0 && s_sync.checkpoints >= 2,
                "script too short to reach GC and a checkpoint at {channels} channels: {s_sync:?}"
            );
            assert_eq!(h_sync, h_q, "qd=1 contents diverged under GC at {channels} channels");
            assert_eq!(
                (s_sync.host_writes, s_sync.host_reads, s_sync.trims, s_sync.shared_pages),
                (s_q.host_writes, s_q.host_reads, s_q.trims, s_q.shared_pages)
            );
            if channels == 1 {
                assert_eq!(t_sync, t_q, "qd=1 timing diverged under GC");
                assert_eq!(s_sync, s_q, "qd=1 counters diverged under GC");
            }
            // At 4 channels GC is *not* bit-identical, by design rather
            // than by drift: a queued command pins every block it allocates
            // into — copyback destinations included — until the host reaps
            // it, so a drain inside the command cannot re-collect a
            // copyback block it has just topped up and sealed, while the
            // blocking path can. With four copyback lanes and the raised
            // watermarks, drains are long enough here for that to change a
            // victim choice (first at a `write_atomic`, ~500 commands in);
            // from there the two runs are equivalent, not equal.
        }
    }

    #[test]
    fn queued_commands_overlap_across_channels() {
        // Four single-page writes, submitted before any completes: the
        // block pool stripes them over four channels, so the whole burst
        // must finish in far less than four serial write times.
        let serial = {
            let mut f = tiny_channels(4);
            let t0 = f.nand().now_ns();
            for i in 0..4u64 {
                f.write(Lpn(i), &pagev(i as u8, &f)).unwrap();
            }
            f.nand().now_ns() - t0
        };
        let overlapped = {
            let mut f = tiny_channels(4);
            let t0 = f.nand().now_ns();
            for i in 0..4u64 {
                f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap();
            }
            let done = f.drain();
            assert_eq!(done.len(), 4);
            assert!(done.iter().all(Completion::is_ok));
            f.nand().now_ns() - t0
        };
        assert!(
            overlapped * 2 < serial,
            "4 queued writes ({overlapped} ns) should overlap well under half of serial ({serial} ns)"
        );
    }

    #[test]
    fn poll_reap_drain_orderings() {
        let mut f = tiny_channels(4);
        let tags: Vec<CmdTag> = (0..3u64)
            .map(|i| f.submit(QueuedCmd::Write { lpn: Lpn(i), data: pagev(i as u8, &f) }).unwrap())
            .collect();
        assert_eq!(f.inflight(), 3);
        // reap advances only to the earliest completion.
        let first = f.reap();
        assert!(!first.is_empty());
        assert!(f.inflight() < 3);
        let rest = f.drain();
        assert_eq!(first.len() + rest.len(), 3);
        // Completions come back ordered by completion time.
        let all: Vec<&Completion> = first.iter().chain(rest.iter()).collect();
        for w in all.windows(2) {
            assert!(w[0].complete_ns <= w[1].complete_ns);
        }
        let mut seen: Vec<CmdTag> = all.iter().map(|c| c.tag).collect();
        seen.sort();
        assert_eq!(seen, tags);
        // Queue telemetry gauges reflect the run.
        let snap = f.telemetry_snapshot().unwrap();
        assert_eq!(snap.queue.submitted, 3);
        assert_eq!(snap.queue.reaped, 3);
        assert_eq!(snap.queue.inflight, 0);
        assert_eq!(snap.queue.max_inflight, 3);
        assert_eq!(snap.queue.depth, 32);
    }

    #[test]
    fn queued_errors_surface_in_completions() {
        let mut f = tiny();
        let cap = f.capacity_pages();
        f.submit(QueuedCmd::Read { lpn: Lpn(cap + 1) }).unwrap();
        let done = f.drain();
        assert_eq!(done.len(), 1);
        assert!(matches!(done[0].result, Err(FtlError::LpnOutOfRange { .. })));
    }

    #[test]
    fn deep_queue_under_gc_pressure_never_stalls() {
        // Satellite regression: overwrite several times the pool's working
        // set with a deep queue. Blocks pinned by unreaped commands are
        // GC-ineligible; the raised watermarks must keep GC ahead anyway.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_parallelism(4, 1)
            .with_queue_depth(16);
        let mut f = Ftl::new(cfg);
        let ps = f.page_size();
        let span = 96u64;
        for round in 0..10u8 {
            for i in 0..span {
                let data = vec![round ^ (i as u8); ps];
                loop {
                    match f.submit(QueuedCmd::Write { lpn: Lpn(i), data: data.clone() }) {
                        Ok(_) => break,
                        Err(FtlError::QueueFull { .. }) => {
                            assert!(!f.reap().is_empty());
                        }
                        Err(e) => panic!("queued write failed under pressure: {e}"),
                    }
                }
            }
        }
        for c in f.drain() {
            assert!(c.is_ok(), "completion failed: {:?}", c.result);
        }
        assert!(f.stats().gc_events > 0, "pressure must actually trigger GC");
        let mut buf = vec![0u8; ps];
        for i in 0..span {
            f.read(Lpn(i), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 9 ^ (i as u8)), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    #[test]
    fn queued_batches_round_trip() {
        let mut f = tiny_channels(4);
        let ps = f.page_size();
        let pages: Vec<(Lpn, Vec<u8>)> =
            (0..16u64).map(|i| (Lpn(i), vec![(i % 251) as u8; ps])).collect();
        f.submit(QueuedCmd::WriteBatch { pages: pages.clone() }).unwrap();
        f.submit(QueuedCmd::WriteAtomic {
            pages: (16..20u64).map(|i| (Lpn(i), vec![(i % 251) as u8; ps])).collect(),
        })
        .unwrap();
        assert!(f.drain().iter().all(Completion::is_ok));
        let lpns: Vec<Lpn> = (0..20).map(Lpn).collect();
        f.submit(QueuedCmd::ReadBatch { lpns }).unwrap();
        let done = f.drain();
        let bufs = done[0].result.clone().unwrap().into_pages().unwrap();
        assert_eq!(bufs.len(), 20);
        for (i, b) in bufs.iter().enumerate() {
            assert!(b.iter().all(|&x| x == (i % 251) as u8), "lpn {i} diverged");
        }
        f.check_invariants();
    }

    // ----- device-level snapshots -----------------------------------------

    #[test]
    fn snapshot_create_consumes_no_nand_programs() {
        // The tentpole's headline property: freezing a range is O(mapped
        // pages) of RAM metadata — zero NAND page programs, zero reads.
        let mut f = tiny();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
        }
        f.flush().unwrap();
        let before = f.stats();
        let id = f.snapshot_create("base", Lpn(0), 32).unwrap();
        let spent = f.stats().delta_since(&before);
        assert_eq!(spent.nand.page_programs, 0, "snapshot create must not program NAND");
        assert_eq!(spent.nand.page_reads, 0, "snapshot create must not read NAND");
        assert_eq!(spent.snapshot_creates, 1);
        assert!(f.supports_snapshot());
        let list = f.snapshot_list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!((list[0].id, list[0].mapped_pages), (id, 32));
        assert_eq!(f.snapshot_list().unwrap()[0].name, "base");
        f.check_invariants();
    }

    #[test]
    fn snapshot_read_is_point_in_time() {
        let mut f = tiny();
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(7, &f)).unwrap();
        }
        f.snapshot_create("pit", Lpn(0), 8).unwrap();
        // Overwrite and trim the live range after the freeze.
        for i in 0..4u64 {
            f.write(Lpn(i), &pagev(9, &f)).unwrap();
        }
        f.trim(Lpn(4), 4).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..8u64 {
            f.snapshot_read("pit", off, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 7), "offset {off} must show frozen content");
        }
        // The live map sees the new world.
        assert_eq!(read_byte(&mut f, Lpn(0)), 9);
        assert_eq!(read_byte(&mut f, Lpn(4)), 0);
        // Reads beyond the frozen range and of unknown names fail cleanly.
        assert!(matches!(
            f.snapshot_read("pit", 8, &mut buf),
            Err(FtlError::InvalidBatch(_))
        ));
        assert_eq!(f.snapshot_read("nope", 0, &mut buf), Err(FtlError::SnapshotNotFound));
        assert_eq!(f.stats().snapshot_reads, 8);
        f.check_invariants();
    }

    #[test]
    fn clone_is_zero_copy_then_cow() {
        let mut f = tiny();
        for i in 0..16u64 {
            f.write(Lpn(i), &pagev((i + 1) as u8, &f)).unwrap();
        }
        f.snapshot_create("db", Lpn(0), 16).unwrap();
        let before = f.stats();
        let mapped = f.snapshot_clone("db", 0, Lpn(100), 16).unwrap();
        assert_eq!(mapped, 16);
        let spent = f.stats().delta_since(&before);
        // Zero-copy: only mapping-log pages were programmed, no data pages.
        assert_eq!(spent.nand.page_programs, spent.meta_page_writes);
        assert!(spent.meta_page_writes >= 1, "clone deltas must be durably logged");
        assert_eq!(spent.snapshot_clone_pages, 16);
        // Clone reads the frozen content.
        for i in 0..16u64 {
            assert_eq!(read_byte(&mut f, Lpn(100 + i)), (i + 1) as u8);
        }
        // CoW: writing the clone diverges it without touching origin or
        // snapshot.
        f.write(Lpn(100), &pagev(200, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(100)), 200);
        assert_eq!(read_byte(&mut f, Lpn(0)), 1);
        let mut buf = vec![0u8; f.page_size()];
        f.snapshot_read("db", 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
        // And writing the origin leaves the clone alone.
        f.write(Lpn(1), &pagev(201, &f)).unwrap();
        assert_eq!(read_byte(&mut f, Lpn(101)), 2);
        f.check_invariants();
    }

    #[test]
    fn clone_window_and_holes() {
        let mut f = tiny();
        // Only even offsets mapped at freeze time.
        for i in (0..8u64).step_by(2) {
            f.write(Lpn(i), &pagev(5, &f)).unwrap();
        }
        f.snapshot_create("sparse", Lpn(0), 8).unwrap();
        // Pre-dirty the clone target so holes must actively unmap.
        for i in 0..4u64 {
            f.write(Lpn(50 + i), &pagev(99, &f)).unwrap();
        }
        // Window: offsets 2..6 (mapped at 2 and 4) onto 50..54.
        let mapped = f.snapshot_clone("sparse", 2, Lpn(50), 4).unwrap();
        assert_eq!(mapped, 2);
        assert_eq!(read_byte(&mut f, Lpn(50)), 5); // offset 2
        assert_eq!(read_byte(&mut f, Lpn(51)), 0); // hole (was 99)
        assert_eq!(read_byte(&mut f, Lpn(52)), 5); // offset 4
        assert_eq!(read_byte(&mut f, Lpn(53)), 0); // hole
        assert!(matches!(
            f.snapshot_clone("sparse", 6, Lpn(0), 4),
            Err(FtlError::InvalidBatch(_))
        ));
        f.check_invariants();
    }

    #[test]
    fn snapshot_pins_survive_gc_churn() {
        // Pinned pages must stay bit-stable across victim collection even
        // when nothing in the live map references them anymore. FIFO
        // victim selection guarantees the frozen blocks actually get
        // collected (greedy would keep preferring emptier churn blocks).
        let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        cfg.gc_policy = crate::config::GcPolicy::Fifo;
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        // Interleave the to-be-frozen pages with churn pages so the frozen
        // blocks keep reclaimable garbage (a fully-pinned block is never a
        // victim — erasing it reclaims nothing).
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("pin", Lpn(0), 32).unwrap();
        // Kill the live references entirely, then churn hard enough to
        // collect every original block several times over.
        f.trim(Lpn(0), 32).unwrap();
        for round in 0..8u64 {
            for i in 32..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        let s = f.stats();
        assert!(s.gc_events > 0, "churn must trigger GC");
        assert!(
            s.snapshot_pinned_relocations > 0,
            "pinned-only pages must have been relocated at least once"
        );
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..32u64 {
            f.snapshot_read("pin", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off % 251) as u8),
                "offset {off} corrupted by GC"
            );
        }
        f.check_invariants();
    }

    #[test]
    fn snapshot_pins_survive_pipelined_gc_churn() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero())
            .with_gc_budget(4, 2);
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(32 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("pin", Lpn(0), 32).unwrap();
        f.trim(Lpn(0), 32).unwrap();
        for round in 0..8u64 {
            for i in 32..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        assert!(f.stats().gc_events > 0, "churn must trigger GC");
        let mut buf = vec![0u8; f.page_size()];
        for off in 0..32u64 {
            f.snapshot_read("pin", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off % 251) as u8),
                "offset {off} corrupted by pipelined GC"
            );
        }
        f.check_invariants();
    }

    #[test]
    fn snapshot_drop_releases_pins() {
        let mut f = tiny();
        for i in 0..16u64 {
            f.write(Lpn(i), &pagev(3, &f)).unwrap();
        }
        f.snapshot_create("tmp", Lpn(0), 16).unwrap();
        f.trim(Lpn(0), 16).unwrap();
        assert_eq!(f.snapshot_table().pinned_pages(), 16);
        f.snapshot_drop("tmp").unwrap();
        assert_eq!(f.snapshot_table().pinned_pages(), 0);
        assert_eq!(f.snapshot_drop("tmp"), Err(FtlError::SnapshotNotFound));
        let mut buf = vec![0u8; f.page_size()];
        assert_eq!(f.snapshot_read("tmp", 0, &mut buf), Err(FtlError::SnapshotNotFound));
        assert_eq!(f.stats().snapshot_drops, 1);
        // The freed space is genuinely reclaimable again.
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 0..logical / 2 {
                f.write(Lpn(i), &vec![(round % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.check_invariants();
    }

    #[test]
    fn snapshots_survive_recovery() {
        // Checkpointed table + tagged-delta replay (relocations and
        // tombstones) must reconstruct the same frozen world after a
        // reopen.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg.clone());
        for i in 0..24u64 {
            f.write(Lpn(i), &pagev((i + 10) as u8, &f)).unwrap();
        }
        f.snapshot_create("keep", Lpn(0), 16).unwrap();
        f.snapshot_create("doomed", Lpn(16), 8).unwrap();
        // Persist both, then mutate the table only via the delta log:
        // drop one snapshot and churn so GC relocates pinned pages.
        f.snapshot_persist().unwrap();
        f.snapshot_drop("doomed").unwrap();
        f.trim(Lpn(0), 16).unwrap();
        let logical = f.capacity_pages();
        for round in 0..6u64 {
            for i in 24..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.flush().unwrap();
        let live_before = f.snapshot_table().count();
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        assert_eq!(f2.snapshot_table().count(), live_before);
        let list = f2.snapshot_list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].name, "keep");
        let mut buf = vec![0u8; f2.page_size()];
        for off in 0..16u64 {
            f2.snapshot_read("keep", off, &mut buf).unwrap();
            assert!(
                buf.iter().all(|&b| b == (off + 10) as u8),
                "offset {off} diverged across recovery"
            );
        }
        // Ids keep advancing monotonically after recovery.
        let id = f2.snapshot_create("after", Lpn(0), 4).unwrap();
        assert!(id >= 2, "recovered next_id must not reuse dropped ids");
        f2.check_invariants();
    }

    #[test]
    fn snapshot_clone_survives_crash_after_log_flush() {
        // A clone's deltas commit atomically in the log; a crash right
        // after the command returns must preserve the whole clone.
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        let mut f = Ftl::new(cfg.clone());
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(42, &f)).unwrap();
        }
        f.snapshot_create("src", Lpn(0), 8).unwrap();
        f.snapshot_persist().unwrap();
        f.snapshot_clone("src", 0, Lpn(200), 8).unwrap();
        // Crash: no flush/checkpoint after the clone.
        let mut f2 = Ftl::open(cfg, f.into_nand()).unwrap();
        for i in 0..8u64 {
            assert_eq!(read_byte(&mut f2, Lpn(200 + i)), 42, "clone page {i} lost");
        }
        f2.check_invariants();
    }

    #[test]
    fn unused_snapshot_path_is_bit_identical() {
        // Off-path guarantee: a device that never issues a snapshot
        // command keeps the empty-table fast paths — deterministic clock
        // and stats across identical runs, with every snapshot counter
        // still zero. (The recorded gc_pipeline goldens pin bit-identity
        // against the pre-snapshot implementation.)
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::default());
        let mut a = Ftl::new(cfg.clone());
        let mut b = Ftl::new(cfg);
        mixed_workload(&mut a);
        mixed_workload(&mut b);
        assert_eq!(a.clock().now_ns(), b.clock().now_ns());
        assert_eq!(a.stats(), b.stats());
        let s = a.stats();
        assert_eq!(
            (s.snapshot_creates, s.snapshot_clones, s.snapshot_reads),
            (0, 0, 0),
            "mixed workload must not touch the snapshot path"
        );
        assert!(a.snapshot_table().is_empty());
    }

    #[test]
    fn snapshot_gauges_exported() {
        let mut f = tiny();
        for i in 0..8u64 {
            f.write(Lpn(i), &pagev(1, &f)).unwrap();
        }
        f.snapshot_create("g", Lpn(0), 8).unwrap();
        f.snapshot_clone("g", 0, Lpn(100), 8).unwrap();
        let mut buf = vec![0u8; f.page_size()];
        f.snapshot_read("g", 0, &mut buf).unwrap();
        let t = f.telemetry_snapshot().unwrap();
        assert_eq!(t.snapshots.live, 1);
        assert_eq!(t.snapshots.frozen_pages, 8);
        assert_eq!(t.snapshots.pinned_pages, 8);
        assert_eq!(t.snapshots.creates, 1);
        assert_eq!(t.snapshots.clones, 1);
        assert_eq!(t.snapshots.clone_pages, 8);
        assert_eq!(t.snapshots.reads, 1);
        let text = t.to_prometheus();
        assert!(text.contains("share_snapshots_live 1"));
        assert!(text.contains("share_snapshot_clone_pages_total 8"));
    }

    #[test]
    fn snapshot_wa_ledger_still_sums_exactly() {
        // The pinned invariant, under snapshot churn: every background
        // page program is blamed on exactly one stream, and the blamed
        // totals equal copyback_pages + meta_page_writes. FIFO selection
        // forces the pinned blocks through GC.
        let mut cfg = FtlConfig::for_capacity_with(1 << 20, 0.5, 4096, 16, NandTiming::zero());
        cfg.gc_policy = crate::config::GcPolicy::Fifo;
        let mut f = Ftl::new(cfg);
        let logical = f.capacity_pages();
        for i in 0..32u64 {
            f.write(Lpn(i), &pagev((i % 251) as u8, &f)).unwrap();
            f.write(Lpn(96 + i), &pagev(0xEE, &f)).unwrap();
        }
        f.snapshot_create("w", Lpn(0), 32).unwrap();
        f.snapshot_clone("w", 0, Lpn(64), 32).unwrap();
        f.trim(Lpn(0), 32).unwrap();
        // Half the clone dies too, leaving those frozen pages pinned-only.
        f.trim(Lpn(64), 16).unwrap();
        for round in 0..16u64 {
            for i in 96..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 251) as u8; f.page_size()]).unwrap();
            }
        }
        f.snapshot_drop("w").unwrap();
        for round in 0..8u64 {
            for i in 96..logical / 2 {
                f.write(Lpn(i), &vec![((i + round) % 7) as u8; f.page_size()]).unwrap();
            }
        }
        f.flush().unwrap();
        let s = f.stats();
        assert!(s.gc_events > 0 && s.snapshot_pinned_relocations > 0);
        let t = f.telemetry().snapshot();
        let bg_gc: u64 = t.wa.iter().map(|w| w.bg_gc).sum();
        let bg_log: u64 = t.wa.iter().map(|w| w.bg_log).sum();
        let bg_ckpt: u64 = t.wa.iter().map(|w| w.bg_ckpt).sum();
        assert_eq!(bg_gc, s.copyback_pages, "GC blame must sum to copyback pages");
        assert_eq!(
            bg_log + bg_ckpt,
            s.meta_page_writes,
            "log+ckpt blame must sum to meta page writes"
        );
        f.check_invariants();
    }
}
