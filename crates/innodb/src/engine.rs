//! The mini-InnoDB engine: tablespace I/O, buffer-pool eviction through
//! the double-write buffer (or SHARE), redo, checkpointing and recovery.
//!
//! ## The three flush modes (the paper's experimental axes)
//!
//! * [`FlushMode::DwbOn`] — default InnoDB: a dirty-page batch is first
//!   written and fsynced to the double-write buffer, then written again in
//!   place (Figure 1(a)). Every data page costs **two** host writes.
//! * [`FlushMode::DwbOff`] — the unsafe baseline: one write, but a crash
//!   mid-write leaves a torn page nothing can repair.
//! * [`FlushMode::Share`] — the paper's contribution: one write to the
//!   double-write area, then `share(ts_lpn ← dwb_lpn)` remaps the home
//!   location onto the already-written copy. One data write, full torn-page
//!   protection.
//!
//! ## Crash consistency
//!
//! Page *integrity* comes from the DWB/SHARE protocol; page *freshness*
//! from physiological redo gated on per-page LSNs; multi-page structure
//! changes (B+tree splits) from mini-transaction (MTR) grouping: pages
//! dirtied by an open MTR are pinned until its `MtrEnd` is logged, and
//! recovery discards a trailing incomplete MTR group.

use crate::bufpool::{BufferPool, PoolStats};
use crate::error::EngineError;
use crate::page::{NodePage, PageDecodeError, NO_PAGE};
use crate::redo::{CheckpointMeta, RedoBody, RedoLog};
use crate::tree::PrefetchScratch;
use share_core::{recycle_vec, BlockDevice, DeviceStats, FtlError, SimpleSsd};
use share_vfs::{FileId, Vfs, VfsError, VfsOptions};

/// How dirty pages propagate to their home location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// Journal to the double-write buffer, then write in place.
    DwbOn,
    /// Write in place only (fast, torn-page unsafe).
    DwbOff,
    /// Journal to the double-write buffer, then SHARE-remap in place.
    Share,
    /// No double-write buffer: flush batches through the device's atomic
    /// multi-page write (the §6.1 related-work primitive — FusionIO-style).
    AtomicWrite,
}

impl FlushMode {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            FlushMode::DwbOn => "DWB-On",
            FlushMode::DwbOff => "DWB-Off",
            FlushMode::Share => "SHARE",
            FlushMode::AtomicWrite => "AtomicWr",
        }
    }
}

/// Host CPU charged per user operation and per commit (ns of simulated
/// time).
pub(crate) const CPU_NS_PER_OP: u64 = 5_000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct InnoDbConfig {
    /// Flush protocol.
    pub mode: FlushMode,
    /// Engine page size (4/8/16 KiB in the paper's Figure 5(a)).
    pub page_bytes: usize,
    /// Buffer-pool capacity in engine pages.
    pub pool_pages: usize,
    /// Dirty pages flushed per double-write batch.
    pub flush_batch: usize,
    /// Redo the log may hold beyond its checkpoint. A commit that finds
    /// the log holding this much flushes the oldest dirty pages until the
    /// oldest first change left is younger, then records a checkpoint there.
    pub ckpt_redo_bytes: u64,
    /// Tablespace capacity in engine pages.
    pub max_pages: u64,
    /// InnoDB's `buffer_flush_neighbors`: when evicting, also flush dirty
    /// pages from the victim's 64-page extent. The paper turned this OFF
    /// "to reduce unnecessary write overhead"; the ablation shows why.
    pub flush_neighbors: bool,
}

impl Default for InnoDbConfig {
    fn default() -> Self {
        Self {
            mode: FlushMode::DwbOn,
            page_bytes: 4096,
            pool_pages: 2048,
            flush_batch: 64,
            ckpt_redo_bytes: 8 << 20,
            max_pages: 16_384,
            flush_neighbors: false,
        }
    }
}

/// Engine-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Flush batches written, by the eviction path and by checkpoints.
    pub flush_batches: u64,
    /// The flush batches the eviction path wrote: the old sublist held no
    /// clean page to evict.
    pub eviction_flush_batches: u64,
    /// Engine pages flushed.
    pub pages_flushed: u64,
    /// Engine pages written to the double-write area.
    pub dwb_pages_written: u64,
    /// Flush batches that fell back to in-place writes because SHARE was
    /// refused (reverse-map pressure).
    pub share_fallbacks: u64,
    /// Checkpoints recorded.
    pub checkpoints: u64,
    /// Group-commit windows closed (one shared log fsync each).
    pub group_commits: u64,
    /// Engine pages read one at a time, on a miss (`ensure_resident`).
    pub pages_read_serial: u64,
    /// Engine pages read as part of a batched submission
    /// (`load_pages_batched`: a round's prefetch or a scan's read-ahead).
    pub pages_read_batched: u64,
}

/// The eviction flush writes at most this many quarters of `flush_batch`
/// (48 of 64 pages). Measured on the benchmark's LinkBench over six seeds:
/// whole batches, without the one-flush-per-window rule, raised
/// `sim_lat_tail01_us` by up to 41.5 % over the plain-LRU pool (a longer
/// stall, and rounds paying an eviction and a checkpoint flush together);
/// half batches gained 14–15 % in throughput instead of 20 %, and wrote
/// more: SHARE's host writes over AtomicWrite's rose to 1.49, past the
/// 1.40 that `atomic_write_mode_matches_share_write_volume` holds.
const EVICTION_FLUSH_QUARTERS: usize = 3;

/// The request vectors of the fetch, read-ahead and flush paths. The engine
/// keeps them, so a warm miss or flush refills their capacity instead of
/// asking for its own. A vector whose items borrow frames is kept empty in
/// its `'static` form and recycled into one that borrows for the call
/// ([`recycle_vec`]).
#[derive(Default)]
pub(crate) struct IoScratch {
    /// The pages a batched load reads: not resident, sorted, deduplicated.
    missing: Vec<u64>,
    /// The frames a batched load reads them into.
    frames: Vec<NodePage>,
    /// One request per device page of the frames a load reads into.
    reads: Vec<(u64, &'static mut [u8])>,
    /// The leaves a scan's read-ahead batches.
    pub(crate) leaves: Vec<u64>,
    /// An eviction or checkpoint flush's pages.
    flush: Vec<u64>,
    /// The extent neighbours an eviction flush pulls in.
    neighbours: Vec<u64>,
    /// A flush batch's sealed images, lent from the pool.
    images: Vec<(u64, &'static [u8])>,
    /// One request per device page of the images a write lends.
    writes: Vec<(u64, &'static [u8])>,
    /// A SHARE flush batch's (home page, double-write page) pairs.
    pairs: Vec<(u64, u64)>,
}

/// The storage engine.
pub struct InnoDb<D: BlockDevice> {
    cfg: InnoDbConfig,
    fs: Vfs<D>,
    ts: FileId,
    dwb: FileId,
    log: RedoLog,
    pub(crate) pool: BufferPool,
    /// Evicted frames: the next fetch reads into one of these buffers.
    spare: Vec<NodePage>,
    /// The rows [`Self::get_link_list`] returns, refilled in place by each
    /// call; slots past the last list's length keep their buffers.
    pub(crate) link_rows: Vec<(u64, Vec<u8>)>,
    /// The vectors of a [`Self::prefetch_keys`] round, emptied by each.
    pub(crate) prefetch: PrefetchScratch,
    /// The request vectors of the fetch and flush paths.
    pub(crate) io: IoScratch,
    pub(crate) root: u64,
    pub(crate) height: u16,
    next_page_no: u64,
    /// Device pages per engine page.
    ppd: u64,
    /// LSN of the last appended MtrEnd; dirty pages above this are pinned.
    mtr_safe_lsn: u64,
    replaying: bool,
    /// Inside a group-commit window: commits log their MtrEnd but defer
    /// log durability to the closing [`Self::group_commit`].
    in_group: bool,
    /// Transactions committed in the open group window.
    group_pending: u64,
    /// The eviction path flushed since the last commit point: a checkpoint
    /// that falls due waits for the next one.
    evict_flushed: bool,
    stats: EngineStats,
}

impl<D: BlockDevice> InnoDb<D> {
    /// Create a fresh database on `data_dev` (tablespace + double-write
    /// area preallocated) with the redo log on `log_dev`.
    pub fn create(data_dev: D, log_dev: SimpleSsd, cfg: InnoDbConfig) -> Result<Self, EngineError> {
        assert_eq!(cfg.page_bytes % data_dev.page_size(), 0, "engine page must be a multiple of the device page");
        let ppd = (cfg.page_bytes / data_dev.page_size()) as u64;
        // Ordered-mode metadata journaling: ~2 journal pages per fsync that
        // found dirty data, the ext4 share of traffic that keeps the
        // paper's Figure 6(a) reduction below a clean 50 %.
        let opts = VfsOptions { journal_pages_per_commit: 2, ..Default::default() };
        let mut fs = Vfs::format(data_dev, opts)?;
        let ts = fs.create("ibdata")?;
        fs.fallocate(ts, cfg.max_pages * ppd)?;
        let dwb = fs.create("doublewrite")?;
        fs.fallocate(dwb, cfg.flush_batch as u64 * ppd)?;
        fs.fsync(ts)?;
        let log = RedoLog::format(log_dev)?;
        let pool_pages = cfg.pool_pages;
        Ok(Self {
            cfg,
            fs,
            ts,
            dwb,
            log,
            pool: BufferPool::new(pool_pages),
            spare: Vec::new(),
            link_rows: Vec::new(),
            prefetch: PrefetchScratch::default(),
            io: IoScratch::default(),
            root: NO_PAGE,
            height: 0,
            next_page_no: 0,
            ppd,
            mtr_safe_lsn: 0,
            replaying: false,
            in_group: false,
            group_pending: 0,
            evict_flushed: false,
            stats: EngineStats::default(),
        })
    }

    /// Reopen after a crash: double-write repair, then redo replay of
    /// complete mini-transactions. The devices must already be through
    /// their own recovery (e.g. [`share_core::Ftl::open`]).
    pub fn open(data_dev: D, log_dev: SimpleSsd, cfg: InnoDbConfig) -> Result<Self, EngineError> {
        let ppd = (cfg.page_bytes / data_dev.page_size()) as u64;
        let opts = VfsOptions { journal_pages_per_commit: 2, ..Default::default() };
        let fs = Vfs::open(data_dev, opts)?;
        let ts = fs.lookup("ibdata").ok_or_else(|| EngineError::Corrupt("no tablespace".into()))?;
        let dwb = fs
            .lookup("doublewrite")
            .ok_or_else(|| EngineError::Corrupt("no double-write area".into()))?;
        let (log, meta, records) = RedoLog::recover(log_dev)?;
        let pool_pages = cfg.pool_pages;
        let mut eng = Self {
            cfg,
            fs,
            ts,
            dwb,
            log,
            pool: BufferPool::new(pool_pages),
            spare: Vec::new(),
            link_rows: Vec::new(),
            prefetch: PrefetchScratch::default(),
            io: IoScratch::default(),
            root: meta.root,
            height: meta.height,
            next_page_no: meta.next_page_no,
            ppd,
            mtr_safe_lsn: 0,
            replaying: true,
            in_group: false,
            group_pending: 0,
            evict_flushed: false,
            stats: EngineStats::default(),
        };
        if meta.height == 0 && meta.root == 0 {
            // Fresh log header: an empty tree uses the NO_PAGE sentinel.
            eng.root = NO_PAGE;
        }
        if matches!(eng.cfg.mode, FlushMode::DwbOn | FlushMode::Share) {
            eng.repair_from_dwb()?;
        }
        let mut max_replayed_lsn = 0;
        for group in RedoBody::group_mtrs(records) {
            for r in group {
                eng.apply_to_page(r.lsn, &r.body)?;
                max_replayed_lsn = max_replayed_lsn.max(r.lsn);
            }
        }
        // Every replayed group was a complete MTR, so its pages are safe to
        // flush — without this, replayed dirty pages look pinned forever.
        eng.mtr_safe_lsn = max_replayed_lsn.max(meta.ckpt_lsn);
        eng.replaying = false;
        // Settle into a clean checkpointed state.
        eng.checkpoint()?;
        Ok(eng)
    }

    /// Engine configuration.
    pub fn config(&self) -> &InnoDbConfig {
        &self.cfg
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Pages allocated in the tablespace so far (database size).
    pub fn page_count(&self) -> u64 {
        self.next_page_no
    }

    /// Buffer-pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Data-device statistics.
    pub fn data_device_stats(&self) -> DeviceStats {
        self.fs.device().stats()
    }

    /// Log-device statistics.
    pub fn log_device_stats(&self) -> DeviceStats {
        self.log.device_stats()
    }

    /// The shared simulated clock (from the data device).
    pub fn clock(&self) -> nand_sim::SimClock {
        self.fs.device().clock().clone()
    }

    /// Mutable access to the file system (tests, fault injection).
    pub fn fs_mut(&mut self) -> &mut Vfs<D> {
        &mut self.fs
    }

    /// Tear down, returning the data device and the log device.
    pub fn into_devices(self) -> (D, SimpleSsd) {
        (self.fs.into_device(), self.log.into_device())
    }

    // ----- page I/O -------------------------------------------------------

    fn ts_offset(&self, page_no: u64) -> u64 {
        page_no * self.ppd
    }

    /// A frame to read into: the last one evicted, or a new image while the
    /// pool is still filling.
    fn frame(&mut self) -> NodePage {
        self.spare.pop().unwrap_or_else(|| NodePage::new(0, 0, self.cfg.page_bytes))
    }

    /// Check a frame just read from `page_no`'s home location. `None`: the
    /// page was never written. A frame that is not admitted is kept for
    /// the next fetch.
    fn admit(&mut self, mut page: NodePage, page_no: u64) -> Result<Option<NodePage>, EngineError> {
        let refused = match page.reopen() {
            Ok(()) if page.page_no == page_no => return Ok(Some(page)),
            Ok(()) => Err(EngineError::Corrupt(format!(
                "page {page_no} holds image of page {}",
                page.page_no
            ))),
            Err(PageDecodeError::Empty) => Ok(None),
            Err(PageDecodeError::BadChecksum { .. }) => Err(EngineError::TornPage { page_no }),
            Err(PageDecodeError::Malformed(m)) => {
                Err(EngineError::Corrupt(format!("page {page_no}: {m}")))
            }
        };
        self.spare.push(page);
        refused
    }

    /// Read a tablespace page straight into a recycled frame.
    fn load_page(&mut self, page_no: u64) -> Result<Option<NodePage>, EngineError> {
        let dps = self.fs.page_size();
        let base = self.ts_offset(page_no);
        let mut page = self.frame();
        let mut reqs: Vec<(u64, &mut [u8])> = recycle_vec(std::mem::take(&mut self.io.reads));
        reqs.extend(
            page.image_mut().chunks_mut(dps).enumerate().map(|(j, chunk)| (base + j as u64, chunk)),
        );
        let read = self.fs.read_pages(self.ts, &mut reqs);
        self.io.reads = recycle_vec(reqs);
        read?;
        self.admit(page, page_no)
    }

    /// Write engine-page images to `file` as ONE batched device submission
    /// (device pages of all images overlap across channels). Image `slot`
    /// of page `no` starts at file page `first_page(slot, no)`.
    /// The request is built in `kept`, which the call leaves empty.
    fn write_images(
        fs: &mut Vfs<D>,
        file: FileId,
        images: &[(u64, &[u8])],
        first_page: impl Fn(u64, u64) -> u64,
        kept: &mut Vec<(u64, &'static [u8])>,
    ) -> Result<(), EngineError> {
        let dps = fs.page_size();
        let mut batch: Vec<(u64, &[u8])> = recycle_vec(std::mem::take(kept));
        for (slot, (no, img)) in images.iter().enumerate() {
            let first = first_page(slot as u64, *no);
            for (j, chunk) in img.chunks(dps).enumerate() {
                batch.push((first + j as u64, chunk));
            }
        }
        let written = fs.write_pages(file, &batch);
        *kept = recycle_vec(batch);
        Ok(written?)
    }

    /// Load several tablespace pages with ONE batched device read so the
    /// device-page reads overlap across NAND channels. Already-resident
    /// pages are skipped; when the batch would swamp the pool the call is
    /// a no-op and the serial [`Self::ensure_resident`] path takes over.
    pub(crate) fn load_pages_batched(&mut self, page_nos: &[u64]) -> Result<(), EngineError> {
        let mut missing = std::mem::take(&mut self.io.missing);
        missing.clear();
        missing.extend(page_nos.iter().copied().filter(|&no| !self.pool.contains(no)));
        missing.sort_unstable();
        missing.dedup();
        let loaded = if missing.is_empty() || missing.len() * 2 >= self.pool.capacity() {
            Ok(())
        } else {
            self.load_missing(&missing)
        };
        self.io.missing = missing;
        loaded
    }

    /// Read `missing`, non-resident tablespace pages, with one batched read.
    fn load_missing(&mut self, missing: &[u64]) -> Result<(), EngineError> {
        self.make_room_for(missing.len())?;
        let dps = self.fs.page_size();
        let mut frames = std::mem::take(&mut self.io.frames);
        frames.extend(missing.iter().map(|_| self.frame()));
        let mut reqs: Vec<(u64, &mut [u8])> = recycle_vec(std::mem::take(&mut self.io.reads));
        for (page, &no) in frames.iter_mut().zip(missing) {
            let base = self.ts_offset(no);
            for (j, chunk) in page.image_mut().chunks_mut(dps).enumerate() {
                reqs.push((base + j as u64, chunk));
            }
        }
        let read = self.fs.read_pages(self.ts, &mut reqs);
        self.io.reads = recycle_vec(reqs);
        read?;
        self.stats.pages_read_batched += missing.len() as u64;
        for (page, &no) in frames.drain(..).zip(missing) {
            // A never-written page: the serial path reports it if really read.
            if let Some(page) = self.admit(page, no)? {
                self.pool.insert_fetched(page);
            }
        }
        self.io.frames = frames;
        Ok(())
    }

    /// Make a page resident, loading it from the tablespace if needed.
    pub(crate) fn ensure_resident(&mut self, page_no: u64) -> Result<(), EngineError> {
        if self.pool.contains(page_no) {
            return Ok(());
        }
        self.make_room()?;
        let page = self.load_page(page_no)?;
        self.stats.pages_read_serial += 1;
        match page {
            Some(p) => self.pool.insert_fetched(p),
            None => {
                return Err(EngineError::Corrupt(format!("read of never-written page {page_no}")))
            }
        }
        Ok(())
    }

    fn make_room(&mut self) -> Result<(), EngineError> {
        self.make_room_for(1)
    }

    /// Evict until `slots` insertions fit (batched prefetch needs several
    /// frames at once). InnoDB's `buf_LRU_scan_and_free_block`: the
    /// coldest clean page of the old sublist goes (the LRU tail when it is
    /// clean); only when the old sublist holds none does the pool flush,
    /// and then the old sublist's coldest dirty pages.
    fn make_room_for(&mut self, slots: usize) -> Result<(), EngineError> {
        while self.pool.len() + slots > self.pool.capacity() {
            let old = self.pool.old_len().max(1);
            let coldest_clean = |pool: &BufferPool, n| {
                pool.coldest_first().take(n).find(|&(_, dirty)| !dirty).map(|(no, _)| no)
            };
            let mut clean = coldest_clean(&self.pool, old);
            if clean.is_none() {
                self.flush_old_sublist()?;
                // Pages the open MTR pins stay dirty: evict the coldest
                // clean page anywhere.
                clean = coldest_clean(&self.pool, usize::MAX);
            }
            let Some(clean) = clean else {
                let (victim, _) = self.pool.coldest_first().next().expect("full pool has a victim");
                return Err(EngineError::Corrupt(format!(
                    "pool wedged: {} resident, {} dirty, mtr_safe_lsn {}, victim {} (lsn {:?})",
                    self.pool.len(),
                    self.pool.dirty_count(),
                    self.mtr_safe_lsn,
                    victim,
                    self.pool.peek(victim).map(|p| p.lsn),
                )));
            };
            let evicted = self.pool.evict(clean);
            self.spare.push(evicted);
        }
        Ok(())
    }

    /// The eviction flush: the coldest flushable dirty pages of the old
    /// sublist, at most [`EVICTION_FLUSH_QUARTERS`] of `flush_batch`, with
    /// their extents' dirty pages when `flush_neighbors` is on.
    fn flush_old_sublist(&mut self) -> Result<(), EngineError> {
        let limit = (self.cfg.flush_batch * EVICTION_FLUSH_QUARTERS / 4).max(1);
        let old = self.pool.old_len();
        let mut batch = std::mem::take(&mut self.io.flush);
        batch.clear();
        batch.extend(
            self.pool
                .coldest_first()
                .take(old)
                .filter(|&(no, dirty)| dirty && self.flushable(no))
                .map(|(no, _)| no)
                .take(limit),
        );
        if self.cfg.flush_neighbors {
            // Pull in dirty pages from each batch page's 64-page extent
            // (InnoDB's neighbor flushing).
            let mut extra = std::mem::take(&mut self.io.neighbours);
            extra.clear();
            for &no in &batch {
                let base = no & !63;
                for n in base..base + 64 {
                    if n != no
                        && !batch.contains(&n)
                        && !extra.contains(&n)
                        && self.pool.is_dirty(n)
                        && self.flushable(n)
                    {
                        extra.push(n);
                    }
                }
            }
            batch.extend_from_slice(&extra);
            self.io.neighbours = extra;
        }
        for chunk in batch.chunks(self.cfg.flush_batch) {
            self.flush_pages(chunk)?;
            self.stats.eviction_flush_batches += 1;
        }
        self.evict_flushed |= !batch.is_empty();
        self.io.flush = batch;
        Ok(())
    }

    fn flushable(&self, page_no: u64) -> bool {
        if self.replaying {
            return true;
        }
        self.pool.peek(page_no).map(|p| p.lsn <= self.mtr_safe_lsn).unwrap_or(false)
    }

    /// Flush a batch of dirty pages through the configured protocol.
    fn flush_pages(&mut self, batch: &[u64]) -> Result<(), EngineError> {
        if batch.is_empty() {
            return Ok(());
        }
        debug_assert!(batch.len() <= self.cfg.flush_batch);
        // WAL rule, including the MtrEnd records of every MTR whose pages
        // are in this batch.
        self.log.flush()?;
        self.stats.flush_batches += 1;

        // Seal every batch page in place, then lend the images to the file
        // system straight from the pool.
        for &no in batch {
            self.pool.peek_mut(no).expect("batch page resident").seal();
        }
        let mut images: Vec<(u64, &[u8])> = recycle_vec(std::mem::take(&mut self.io.images));
        images.extend(
            batch.iter().map(|&no| (no, self.pool.peek(no).expect("batch page resident").image())),
        );
        let writes = &mut self.io.writes;
        let ppd = self.ppd;
        let home = |_slot: u64, no: u64| no * ppd;
        let dwb_slot = |slot: u64, _no: u64| slot * ppd;

        match self.cfg.mode {
            FlushMode::DwbOff => {
                Self::write_images(&mut self.fs, self.ts, &images, home, writes)?;
                self.fs.fsync(self.ts)?;
            }
            FlushMode::AtomicWrite => {
                // One data write per page, atomic per device batch; engine
                // pages never straddle batches so none can tear.
                let per_batch = (self.fs.atomic_write_limit() / ppd as usize).max(1);
                let dps = self.fs.page_size();
                for chunk in images.chunks(per_batch) {
                    let mut batch: Vec<(u64, &[u8])> = recycle_vec(std::mem::take(writes));
                    for (no, img) in chunk {
                        for (j, part) in img.chunks(dps).enumerate() {
                            batch.push((no * ppd + j as u64, part));
                        }
                    }
                    let written = self.fs.write_pages_atomic(self.ts, &batch);
                    *writes = recycle_vec(batch);
                    written?;
                }
            }
            FlushMode::DwbOn => {
                // The whole DWB pass is one batched submission; the fsync
                // barrier between it and the home-location pass preserves
                // the torn-page protection ordering.
                Self::write_images(&mut self.fs, self.dwb, &images, dwb_slot, writes)?;
                self.stats.dwb_pages_written += images.len() as u64;
                self.fs.fsync(self.dwb)?;
                Self::write_images(&mut self.fs, self.ts, &images, home, writes)?;
                self.fs.fsync(self.ts)?;
            }
            FlushMode::Share => {
                Self::write_images(&mut self.fs, self.dwb, &images, dwb_slot, writes)?;
                self.stats.dwb_pages_written += images.len() as u64;
                self.fs.fsync(self.dwb)?;
                // Remap home locations onto the just-written DWB copies,
                // never splitting one engine page across atomic batches.
                let pairs = &mut self.io.pairs;
                pairs.clear();
                for (slot, (no, _)) in images.iter().enumerate() {
                    for j in 0..ppd {
                        pairs.push((no * ppd + j, slot as u64 * ppd + j));
                    }
                }
                let ends = (1..=images.len()).map(|n| n * ppd as usize);
                let shared_ok = match self.fs.ioctl_share_units(self.ts, self.dwb, pairs, ends) {
                    Ok(()) => true,
                    Err(VfsError::Device(FtlError::RevMapFull { .. })) => false,
                    Err(e) => return Err(e.into()),
                };
                if !shared_ok {
                    // Reverse-map pressure: fall back to the classic second
                    // write for this batch (the engine keeps running).
                    self.stats.share_fallbacks += 1;
                    Self::write_images(&mut self.fs, self.ts, &images, home, writes)?;
                    self.fs.fsync(self.ts)?;
                }
            }
        }
        self.io.images = recycle_vec(images);
        for &no in batch {
            self.pool.mark_clean(no);
        }
        self.stats.pages_flushed += batch.len() as u64;
        Ok(())
    }

    // ----- redo application ------------------------------------------------

    /// Allocate a fresh page number.
    pub(crate) fn alloc_page_no(&mut self) -> Result<u64, EngineError> {
        if self.next_page_no >= self.cfg.max_pages {
            return Err(EngineError::Corrupt("tablespace full".into()));
        }
        let no = self.next_page_no;
        self.next_page_no += 1;
        Ok(no)
    }

    /// Runtime mutation: assign an LSN, log the record, apply it.
    pub(crate) fn apply(&mut self, body: RedoBody) -> Result<(), EngineError> {
        let lsn = self.log.next_lsn();
        self.log.append(lsn, &body)?;
        self.apply_to_page(lsn, &body)
    }

    /// Close the current mini-transaction.
    pub(crate) fn mtr_end(&mut self) -> Result<(), EngineError> {
        let lsn = self.log.next_lsn();
        self.log.append(lsn, &RedoBody::MtrEnd)?;
        self.mtr_safe_lsn = lsn;
        Ok(())
    }

    fn with_page<F: FnOnce(&mut NodePage)>(
        &mut self,
        page_no: u64,
        lsn: u64,
        f: F,
    ) -> Result<(), EngineError> {
        self.ensure_resident(page_no)?;
        let p = self.pool.get_mut(page_no).expect("just ensured");
        if p.lsn < lsn {
            f(p);
            p.lsn = lsn;
            self.pool.mark_dirty(page_no, lsn, self.log.position());
        }
        Ok(())
    }

    /// Apply one record to its page, gated by the page LSN. Used by both
    /// the runtime path and recovery replay, which is what makes replay
    /// exactly repeat runtime behaviour.
    pub(crate) fn apply_to_page(&mut self, lsn: u64, body: &RedoBody) -> Result<(), EngineError> {
        match body {
            RedoBody::MtrEnd => Ok(()),
            RedoBody::SetRoot { root, height } => {
                self.root = *root;
                self.height = *height;
                Ok(())
            }
            RedoBody::PageInit { page_no, level } => {
                self.next_page_no = self.next_page_no.max(page_no + 1);
                if !self.pool.contains(*page_no) {
                    self.make_room()?;
                    match self.load_page(*page_no)? {
                        Some(p) => self.pool.insert_fetched(p),
                        None => {
                            let mut blank = self.frame();
                            blank.reset(*page_no, *level);
                            self.pool.insert(blank)
                        }
                    }
                }
                self.with_page_raw(*page_no, lsn, |p| p.reset(*page_no, *level))
            }
            RedoBody::Upsert { page_no, key, value } => self.with_page(*page_no, lsn, |p| {
                p.upsert(key, value);
            }),
            RedoBody::Remove { page_no, key } => self.with_page(*page_no, lsn, |p| {
                p.remove(key);
            }),
            RedoBody::AppendEntries { page_no, run } => {
                self.with_page(*page_no, lsn, |p| p.extend_high(run))
            }
            RedoBody::TruncateHigh { page_no, pivot } => {
                self.with_page(*page_no, lsn, |p| p.drain_high(pivot))
            }
            RedoBody::SetNextPtr { page_no, next } => {
                self.with_page(*page_no, lsn, |p| p.next = *next)
            }
        }
    }

    /// Like [`Self::with_page`] but the page is already resident (PageInit).
    fn with_page_raw<F: FnOnce(&mut NodePage)>(
        &mut self,
        page_no: u64,
        lsn: u64,
        f: F,
    ) -> Result<(), EngineError> {
        let p = self.pool.get_mut(page_no).expect("resident");
        if p.lsn < lsn {
            f(p);
            p.lsn = lsn;
            self.pool.mark_dirty(page_no, lsn, self.log.position());
        }
        Ok(())
    }

    // ----- commit & checkpoint ---------------------------------------------

    /// Commit the current transaction (one MTR): log the boundary, make it
    /// durable, and apply the checkpoint rule.
    /// Public so callers composing raw `upsert_kv`/`delete_kv` sequences can
    /// set their own transaction boundaries.
    pub fn commit(&mut self) -> Result<(), EngineError> {
        let span = self.fs.root_span("txn_commit");
        let r = self.commit_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn commit_inner(&mut self) -> Result<(), EngineError> {
        self.mtr_end()?;
        self.stats.commits += 1;
        self.fs.device().clock().advance(CPU_NS_PER_OP);
        if self.in_group {
            // Group-commit window: the MtrEnd is logged, durability is
            // deferred to the shared fsync in `group_commit`.
            self.group_pending += 1;
            return Ok(());
        }
        self.log.flush()?;
        self.checkpoint_if_due()
    }

    /// Open a group-commit window: transactions committed until the next
    /// [`Self::group_commit`] log their MtrEnd immediately but share ONE
    /// log fsync — the classic group commit of C concurrent connections.
    pub fn begin_group(&mut self) {
        self.in_group = true;
    }

    /// Close the group-commit window: one log flush makes every deferred
    /// transaction durable, then the checkpoint rule runs.
    pub fn group_commit(&mut self) -> Result<(), EngineError> {
        self.in_group = false;
        if self.group_pending == 0 {
            return Ok(());
        }
        self.group_pending = 0;
        let span = self.fs.root_span("group_commit");
        let r = self.group_commit_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn group_commit_inner(&mut self) -> Result<(), EngineError> {
        self.log.flush()?;
        self.stats.group_commits += 1;
        self.checkpoint_if_due()
    }

    /// The checkpoint rule: once the log holds `ckpt_redo_bytes` beyond its
    /// checkpoint (or all the ring can hold, on a small log device), flush
    /// what is older than that and record a checkpoint. A commit window
    /// that already paid an eviction flush leaves the checkpoint to the
    /// next commit point, unless the ring is full: one synchronous flush
    /// per window.
    fn checkpoint_if_due(&mut self) -> Result<(), EngineError> {
        let budget = self.cfg.ckpt_redo_bytes.min(self.log.capacity());
        let evict_flushed = std::mem::take(&mut self.evict_flushed);
        let held = self.log.held();
        if held < budget || (evict_flushed && held < self.log.capacity()) {
            return Ok(());
        }
        self.checkpoint_keeping(budget)
    }

    /// Flush every dirty page and record a checkpoint at the log's tail.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        self.checkpoint_keeping(0)
    }

    fn checkpoint_keeping(&mut self, keep: u64) -> Result<(), EngineError> {
        let span = self.fs.root_span("checkpoint");
        let r = self.checkpoint_inner(keep);
        self.fs.end_span(span, r.is_ok());
        r
    }

    /// Flush batches of the oldest flushable pages until the oldest first
    /// change left is less than `keep` redo bytes behind the write
    /// position, then record the checkpoint at that change: every change
    /// logged before it is on the medium. With nothing dirty left, the
    /// checkpoint is the next LSN.
    fn checkpoint_inner(&mut self, keep: u64) -> Result<(), EngineError> {
        let mut batch = std::mem::take(&mut self.io.flush);
        while self.pool.oldest_change().is_some_and(|(_, pos)| self.log.position() - pos >= keep) {
            batch.clear();
            batch.reserve(self.cfg.flush_batch);
            batch.extend(
                self.pool.flush_list().filter(|&no| self.flushable(no)).take(self.cfg.flush_batch),
            );
            if batch.is_empty() {
                break; // the rest is pinned by an open mini-transaction
            }
            self.flush_pages(&batch)?;
        }
        self.io.flush = batch;
        let (ckpt_lsn, pos) =
            self.pool.oldest_change().unwrap_or((self.log.end_lsn(), self.log.position()));
        let meta = CheckpointMeta {
            ckpt_lsn,
            root: if self.root == NO_PAGE { 0 } else { self.root },
            height: self.height,
            next_page_no: self.next_page_no,
        };
        // A height-0 tree stores root 0 in the header; `open` maps it back.
        self.log.write_checkpoint(meta, pos)?;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Flush everything and fsync — a clean shutdown.
    pub fn shutdown(&mut self) -> Result<(), EngineError> {
        self.checkpoint()?;
        self.fs.fsync(self.ts)?;
        Ok(())
    }

    // ----- double-write repair ----------------------------------------------

    /// Scan the double-write area; restore any page whose home copy is torn
    /// or missing. Intact home copies are never overwritten (they may be
    /// newer than the DWB image).
    fn repair_from_dwb(&mut self) -> Result<u64, EngineError> {
        let dps = self.fs.page_size();
        let ppd = self.ppd;
        let mut repaired = 0;
        let mut copy = self.frame();
        for slot in 0..self.cfg.flush_batch as u64 {
            let read = copy.image_mut().chunks_mut(dps).enumerate().all(|(j, chunk)| {
                self.fs.read_page(self.dwb, slot * ppd + j as u64, chunk).is_ok()
            });
            if !read || copy.reopen().is_err() {
                continue; // unreadable, torn or empty DWB slot: ignore
            }
            match self.load_page(copy.page_no) {
                Ok(Some(home)) => self.spare.push(home),
                _ => {
                    let image = [(copy.page_no, copy.image())];
                    let writes = &mut self.io.writes;
                    Self::write_images(&mut self.fs, self.ts, &image, |_, no| no * ppd, writes)?;
                    repaired += 1;
                }
            }
        }
        self.spare.push(copy);
        if repaired > 0 {
            self.fs.fsync(self.ts)?;
        }
        Ok(repaired)
    }
}
