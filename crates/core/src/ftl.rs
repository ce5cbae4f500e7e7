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
//!
//! This file holds the device itself: construction and recovery, the
//! read/write/trim bodies, the delta-log commit and checkpoints. The rest
//! of `impl Ftl` lives beside it: [`gc`] (victim selection, relocation,
//! watermarks), [`exec`] (command and internal-pass frames, submission
//! queue, the `BlockDevice` impl), [`share`] (the SHARE command) and
//! [`snapshot_ops`] (snapshot commands).

use crate::ckpt::{self, Checkpoints};
use crate::config::FtlConfig;
use crate::delta::{Delta, DeltaLog};
use crate::device::BlockDevice;
use crate::error::FtlError;
use crate::mapping::MappingTable;
use crate::pool::{BlockPool, WritePoint};
use crate::queue::{CmdOutput, CmdTag, Completion, QueuedCmd};
use crate::snapshot::{self, SnapDelta, SnapshotInfo, SnapshotTable};
use crate::stats::DeviceStats;
use crate::types::{Lpn, Ppn, SharePair};
use nand_sim::{FaultHandle, NandArray, SimClock};
use share_telemetry::{
    Layer, Metric, OpClass, QueueGauges, Snapshot, Telemetry, Tracer, Track,
    UnitUtilization,
};
use std::collections::HashSet;

mod exec;
mod gc;
mod share;
mod snapshot_ops;

pub(crate) use gc::{GC_HIGH_WATER, GC_LOW_WATER};

/// Host-to-device command round-trip latency (share/trim/flush), ns.
/// Models the ioctl/SATA path the paper batches SHARE pairs to amortize.
const COMMAND_NS: u64 = 20_000;

/// Checkpoint when fewer than this many log-ring pages remain. One log
/// submission carries at most a stripe of buffered pages plus a stripe of
/// atomic pages, so this must be at least twice the stripe width
/// (asserted when a device is assembled).
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

/// The pages one read command fills, walked once to check them, once to
/// zero the unmapped ones and once to read the mapped ones: a synchronous
/// read's `(lpn, buffer)` pairs, or a queued read's LPNs over the one flat
/// buffer its completion hands back ([`FlatRead`]).
trait ReadTargets {
    fn pages(&mut self) -> impl Iterator<Item = (Lpn, &mut [u8])>;
}

impl ReadTargets for [(Lpn, &mut [u8])] {
    fn pages(&mut self) -> impl Iterator<Item = (Lpn, &mut [u8])> {
        self.iter_mut().map(|(lpn, buf)| (*lpn, &mut **buf))
    }
}

/// A queued read: page `i` of `buf` holds `lpns[i]`.
struct FlatRead<'a> {
    lpns: &'a [Lpn],
    buf: &'a mut [u8],
    page_size: usize,
}

impl ReadTargets for FlatRead<'_> {
    fn pages(&mut self) -> impl Iterator<Item = (Lpn, &mut [u8])> {
        self.lpns.iter().copied().zip(self.buf.chunks_exact_mut(self.page_size))
    }
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

    /// The pool's wear and headroom readings as exported rows: these
    /// moments, the skew, and `free_blocks` of `data_blocks`.
    pub(crate) fn rows(&self, free_blocks: u64, data_blocks: u64) -> Vec<Metric> {
        let (int, real) = (Metric::int, Metric::ratio);
        vec![
            int("wear_erases_min", self.min_erases.into()),
            int("wear_erases_max", self.max_erases.into()),
            real("wear_erases_mean", self.mean_erases),
            real("wear_erases_stddev", self.stddev_erases),
            real("wear_skew", self.skew()),
            int("free_blocks", free_blocks),
            int("data_blocks", data_blocks),
        ]
    }
}

/// An in-progress victim collection. Background collection parks it
/// between budgeted steps; a hard-floor drain runs it to completion in one.
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
    /// First in-block page index not yet examined (relocation proceeds
    /// in page order).
    next_idx: u32,
    /// Valid pages at selection: each page a command allocates inside the
    /// slack band owes `valid / (ppb − valid)` of this victim's relocations.
    valid: u32,
}

/// Relocation scratch of the one GC loop, owned by the device and reused
/// by every step (grown once to a block's worth, never shrunk): the step's
/// live pages, each with its destination.
#[derive(Debug, Default)]
struct GcScratch {
    moves: Vec<(Ppn, Ppn)>,
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
    /// Checkpoint slots, generations and the page image checkpoints are
    /// built in.
    ckpts: Checkpoints,
    /// Per-op-class latency histograms.
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
    /// In-progress incremental collection. Persists across foreground
    /// commands until the victim is fully relocated, flushed, and erased.
    gc_job: Option<GcJob>,
    /// Lent to each `gc_step` and taken back, so steps allocate no pages.
    gc_scratch: GcScratch,
    /// The pages of the last user-data submission, refilled by each one
    /// (never shrunk), so writes allocate nothing.
    user_dests: Vec<Ppn>,
    /// Relocations owed by the commands that allocated inside the slack
    /// band and not yet run (`Ftl::collect_after`).
    gc_debt: u64,
    /// `meta_page_writes` at the last debt accrual: the log and checkpoint
    /// pages programmed since then count into the next command's debt.
    gc_meta_seen: u64,
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
}

impl Ftl {
    /// A freshly formatted device.
    pub fn new(cfg: FtlConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
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
        let map = MappingTable::new(cfg.geometry, cfg.logical_pages, cfg.revmap_capacity);
        let log = DeltaLog::new(&cfg, 0);
        let ckpts = Checkpoints::new(&cfg);
        assert!(
            2 * cfg.stripe_width() <= CKPT_MIN_REMAINING_PAGES,
            "a log submission of two stripes must fit the ring's checkpoint margin"
        );
        let pool =
            BlockPool::new(cfg.geometry, cfg.data_start(), cfg.data_blocks(), GC_LOW_WATER);
        let telemetry = Telemetry::default();
        let tracer = if cfg.telemetry.trace { Tracer::enabled() } else { Tracer::disabled() };
        nand.set_tracer(tracer.clone());
        Self {
            cfg,
            nand,
            map,
            log,
            pool,
            stats: DeviceStats::default(),
            ckpts,
            telemetry,
            tracer,
            pending: Vec::new(),
            next_tag: 0,
            q_submitted: 0,
            q_reaped: 0,
            q_max_inflight: 0,
            gc_job: None,
            gc_scratch: GcScratch::default(),
            user_dests: Vec::new(),
            gc_debt: 0,
            gc_meta_seen: 0,
            share_dests: Vec::new(),
            share_srcs: Vec::new(),
            share_incs: Vec::new(),
            share_src_ppns: Vec::new(),
            share_deltas: Vec::new(),
            snaps: SnapshotTable::new(),
        }
    }

    /// Recover a device from the flash image in `nand` (e.g. after a crash):
    /// latest checkpoint + intact delta-log pages, then reverse-state and
    /// block-state rebuild. Ends by taking a fresh checkpoint so the log
    /// ring restarts clean.
    pub fn open(cfg: FtlConfig, mut nand: NandArray) -> Result<Self, FtlError> {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        nand.power_cycle();
        let mut ftl = Self::assemble(cfg, nand);
        let nand_before = ftl.nand.stats();
        ftl.internal_pass("recovery", OpClass::Recovery, |f| {
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
                self.check_recovered(ppn)?;
                self.map.raw_set(Lpn(i as u64), ppn);
            }
            self.snaps = SnapshotTable::decode(&c.snap)?;
            for ppn in self.snaps.frozen_ppns() {
                self.check_frozen(ppn)?;
            }
            self.ckpts.resume(&c);
            next_seq = c.next_delta_seq;
        }
        for page in DeltaLog::recover(&self.cfg, &mut self.nand, next_seq) {
            for d in &page.deltas {
                // Snapshot records travel the same log with a tag bit set;
                // they must never reach the live map (the tagged value is
                // far beyond the logical capacity).
                match snapshot::decode_snap_delta(d.lpn) {
                    Some(SnapDelta::Relocate { id, offset }) => {
                        self.check_frozen(d.new)?;
                        self.snaps.replay_relocate(id, offset, d.new);
                    }
                    Some(SnapDelta::Tombstone { id }) => {
                        self.snaps.remove_by_id(id);
                    }
                    None if d.lpn.0 >= self.cfg.logical_pages => {
                        return Err(FtlError::RecoveryCorrupt(format!(
                            "delta for {} past the logical capacity",
                            d.lpn
                        )));
                    }
                    None => {
                        self.check_recovered(d.new)?;
                        self.map.raw_set(d.lpn, d.new);
                    }
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

    /// Check a physical page read off the flash (a checkpoint entry or a
    /// delta's target) before it indexes the table: unmapped or in the
    /// data pool. The page it came from passed its CRC, so it is not torn;
    /// ending the scan there would drop the durable deltas after it without
    /// a word, so the image is refused instead.
    fn check_recovered(&self, ppn: Ppn) -> Result<(), FtlError> {
        if !ppn.is_valid() || self.pool.rel(self.cfg.geometry.block_of(ppn)).is_some() {
            Ok(())
        } else {
            Err(FtlError::RecoveryCorrupt(format!("mapped page {ppn} outside the data pool")))
        }
    }

    /// Check a snapshot's frozen page read off the flash (a checkpoint's
    /// snapshot section or a relocation delta) like [`Self::check_recovered`].
    /// A snapshot holds no holes, so an unmapped page is refused too: GC
    /// would index the tables with it.
    fn check_frozen(&self, ppn: Ppn) -> Result<(), FtlError> {
        if ppn.is_valid() {
            self.check_recovered(ppn)
        } else {
            Err(FtlError::RecoveryCorrupt("unmapped snapshot page".into()))
        }
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
        crate::device::check_range(start, len, self.cfg.logical_pages)
    }

    /// Flush the buffered deltas (no-op on an empty buffer), then
    /// checkpoint if the log ring is nearly full.
    fn flush_log(&mut self) -> Result<(), FtlError> {
        if self.log.buffered() > 0 {
            self.commit_log(None)?;
        }
        self.maybe_checkpoint()
    }

    /// Buffer one mapping delta, flushing the log when the buffer holds a
    /// page for every lane of the ring's stripe.
    fn log_delta(&mut self, delta: Delta) -> Result<(), FtlError> {
        self.log.append(delta);
        if self.log.buffer_full() {
            self.flush_log()?;
        }
        Ok(())
    }

    /// The one log commit, a `log_flush` internal pass: program the
    /// buffered deltas as one submission — with `batch`, followed by (or
    /// sharing a page with) that batch, each page of it atomically
    /// programmed, which is what makes SHARE, atomic writes and clones
    /// all-or-nothing — then account the meta pages.
    fn commit_log(&mut self, batch: Option<&[Delta]>) -> Result<(), FtlError> {
        if self.log.commit_pages(batch.map(<[Delta]>::len)) > self.log.pages_remaining() {
            // Relocation deltas join the buffer without a flush check, so
            // a commit can outgrow the ring's checkpoint margin. Checkpoint
            // instead: the snapshot holds the whole RAM map, this commit's
            // remaps included, in one atomic commit record.
            return self.checkpoint();
        }
        let pages = self.internal_pass("log_flush", OpClass::LogFlush, |f| {
            let before = f.log.pages_written;
            match batch {
                Some(batch) => f.log.flush_atomic_pages(&mut f.nand, batch)?,
                None => f.log.flush(&mut f.nand)?,
            }
            Ok(f.log.pages_written - before)
        })?;
        self.stats.meta_page_writes += pages;
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), FtlError> {
        if self.log.pages_remaining() < CKPT_MIN_REMAINING_PAGES {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Persist a base mapping snapshot and truncate the delta log.
    pub fn checkpoint(&mut self) -> Result<(), FtlError> {
        self.internal_pass("checkpoint", OpClass::Checkpoint, Self::checkpoint_inner)?;
        Ok(())
    }

    fn checkpoint_inner(&mut self) -> Result<u64, FtlError> {
        // RAM-buffered deltas are already reflected in the snapshot; their
        // log pages will never be written.
        self.log.clear_buffered();
        let seq = self.log.next_seq();
        let snap_bytes = self.snaps.encode();
        let l2p = self.map.l2p_raw();
        let pages = self.ckpts.write(&self.cfg, &mut self.nand, seq, l2p, &snap_bytes)?;
        self.log.reset(&mut self.nand)?;
        self.stats.checkpoints += 1;
        self.stats.meta_page_writes += pages;
        Ok(pages)
    }

    /// Allocate and program as many of `pages`' leading entries as the
    /// free pool allows, as ONE batched submission (programs on distinct
    /// channel-ways overlap in simulated time). May program fewer pages
    /// than requested when the pool runs dry mid-batch; the caller must
    /// map what was programmed before running GC, so no programmed page
    /// is ever unmapped while `ensure_free` can pick victims. Leaves the
    /// pages programmed in `user_dests` and returns how many. Errors with
    /// `DeviceFull` only when nothing at all could be allocated.
    fn program_user_submission(&mut self, pages: &[(Lpn, &[u8])]) -> Result<usize, FtlError> {
        let dests = &mut self.user_dests;
        dests.clear();
        for _ in 0..pages.len() {
            match self.pool.alloc(&self.nand, WritePoint::User) {
                Ok(p) => dests.push(p),
                Err(FtlError::DeviceFull) => break,
                Err(e) => return Err(e),
            }
        }
        if dests.is_empty() {
            return Err(FtlError::DeviceFull);
        }
        self.nand.program_batch(dests.iter().zip(pages).map(|(&d, (_, data))| (d, *data)))?;
        Ok(dests.len())
    }

    /// Pages per batched submission: enough depth to keep every unit busy
    /// (8 per channel-way), and chunked so `ensure_free` and
    /// `collect_after` get a say between submissions on long batches.
    fn submit_chunk_pages(&self) -> usize {
        (self.cfg.geometry.units() as usize * 8).max(1)
    }

    /// Telemetry collected by this device: the per-op-class latency
    /// histograms.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn trim_impl(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        // Validate the whole range before the first side effect: a bad
        // trim leaves mapping, counters and clock untouched.
        self.check_range(lpn, len)?;
        self.nand.charge(COMMAND_NS);
        for i in 0..len {
            let l = lpn.offset(i);
            let old = self.map.unmap(l);
            self.stats.trims += 1;
            if old.is_valid() {
                self.log_delta(Delta { lpn: l, old, new: Ppn::INVALID })?;
            }
        }
        Ok(())
    }

    fn flush_impl(&mut self) -> Result<(), FtlError> {
        self.stats.flushes += 1;
        self.nand.charge(COMMAND_NS);
        self.flush_log()
    }

    /// The one read body, behind `read`, `read_batch` and both queued
    /// reads: the mapped pages go to the NAND as one submission, and each
    /// unmapped page reads zeroes for its bus transfer time.
    fn read_batch_impl(&mut self, reqs: &mut (impl ReadTargets + ?Sized)) -> Result<(), FtlError> {
        let n = self.check_pages(reqs.pages().map(|(lpn, buf)| (lpn, buf.len())))?;
        let want = self.page_size();
        self.stats.host_reads += n as u64;
        self.stats.host_read_bytes += (n * want) as u64;
        let mut mapped = 0;
        let mut zero_xfer = 0u64;
        for (lpn, buf) in reqs.pages() {
            if self.map.lookup(lpn).is_valid() {
                mapped += 1;
            } else {
                buf.fill(0);
                zero_xfer += self.cfg.timing.xfer_ns(want);
            }
        }
        // Only mapped pages make a NAND submission, which a device that is
        // down refuses: a read of unmapped pages alone still reads zeroes.
        if mapped > 0 {
            let map = &self.map;
            let reads = reqs.pages().filter_map(|(lpn, buf)| {
                let ppn = map.lookup(lpn);
                ppn.is_valid().then_some((ppn, buf))
            });
            self.nand.read_batch(reads)?;
        }
        if zero_xfer > 0 {
            self.nand.charge(zero_xfer);
        }
        Ok(())
    }

    /// Place `pages`: allocate, program as batched submissions, and map,
    /// chunk by chunk. Each mapping delta goes to `batch` when the caller
    /// commits them itself (atomic write), to the delta log otherwise; only
    /// then does each chunk pay its collection, since a step that finishes
    /// a victim must not erase the only durable copy of a page whose new
    /// mapping is not yet in the log (the atomic caller collects after its
    /// commit).
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
            let mark = self.mark();
            let mut done = 0;
            while done < chunk.len() {
                let programmed = self.program_user_submission(&chunk[done..])?;
                for (i, (lpn, _)) in chunk[done..done + programmed].iter().enumerate() {
                    // Log flushes and checkpoints leave `user_dests` alone.
                    let ppn = self.user_dests[i];
                    let old = self.map.map_new_write(*lpn, ppn)?;
                    let delta = Delta { lpn: *lpn, old, new: ppn };
                    match batch.as_deref_mut() {
                        Some(batch) => batch.push(delta),
                        None => self.log_delta(delta)?,
                    }
                }
                done += programmed;
                if done < chunk.len() {
                    // Mid-chunk pool exhaustion: everything programmed so
                    // far is mapped, so GC can run safely.
                    self.ensure_free()?;
                }
            }
            if batch.is_none() {
                self.collect_after(chunk.len(), mark)?;
            }
        }
        Ok(())
    }

    /// Range- and length-check a page vector, given as `(lpn, buffer
    /// length)`, before any side effect; returns its page count.
    fn check_pages(&self, pages: impl Iterator<Item = (Lpn, usize)>) -> Result<usize, FtlError> {
        let want = self.page_size();
        let mut n = 0;
        for (lpn, got) in pages {
            self.check_lpn(lpn)?;
            if got != want {
                return Err(FtlError::BadBufferLength { got, want });
            }
            n += 1;
        }
        Ok(n)
    }

    /// The one write body, behind `write`, `write_batch` and both queued
    /// writes.
    fn write_batch_impl(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        self.check_pages(pages.iter().map(|(lpn, data)| (*lpn, data.len())))?;
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
        self.nand.charge(COMMAND_NS);
        let mark = self.mark();
        let mut deltas = Vec::with_capacity(pages.len());
        self.place_and_map(pages, Some(&mut deltas))?;
        self.commit_log(Some(&deltas))?;
        self.maybe_checkpoint()?;
        self.collect_after(pages.len(), mark)
    }
}

#[cfg(test)]
mod tests;
