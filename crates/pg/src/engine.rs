//! A miniature PostgreSQL-style engine: heap tables + WAL with
//! `full_page_writes`, LSN-gated replay, and crash recovery.
//!
//! PostgreSQL guards against torn pages by writing each page's **full
//! image** into the WAL on its first modification after a checkpoint
//! (`full_page_writes = on`). The paper's §5.3.1 side experiment shows
//! that turning it off roughly doubles pgbench throughput and removes WAL
//! volume about equal to all data pages written — and argues SHARE can
//! deliver that safely. The three modes here reproduce that comparison:
//!
//! * [`FpwMode::On`] — full-page image on first touch per checkpoint cycle,
//! * [`FpwMode::Off`] — records only (fast, torn-page unsafe),
//! * [`FpwMode::Share`] — records only; checkpoint page flushes go through
//!   a journal area + SHARE remap, so page-write atomicity comes from the
//!   device.
//!
//! Recovery is the real thing in miniature: a control file records the
//! checkpoint generation and LSN horizon; WAL frames carry per-record LSNs
//! and commit markers; heap pages carry their last-applied LSN, so replay
//! is idempotent and a trailing incomplete transaction is discarded.

use share_core::{crc32c, BlockDevice};
use share_vfs::{FileId, Vfs, VfsError, VfsOptions};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors surfaced by [`MiniPg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgError {
    /// File-system or device failure.
    Vfs(VfsError),
    /// The image lacks one of the engine's files.
    MissingFile(&'static str),
    /// A heap page failed its `data_checksums` check: torn, and neither a
    /// full-page image nor SHARE restored it.
    TornPage { page: u64 },
}

impl From<VfsError> for PgError {
    fn from(e: VfsError) -> Self {
        PgError::Vfs(e)
    }
}

impl fmt::Display for PgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgError::Vfs(e) => write!(f, "{e}"),
            PgError::MissingFile(name) => write!(f, "no {name} file in the image"),
            PgError::TornPage { page } => write!(
                f,
                "torn heap page {page} detected by data_checksums \
                 (unrecoverable without full_page_writes or SHARE)"
            ),
        }
    }
}

impl std::error::Error for PgError {}

/// Torn-page protection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpwMode {
    /// `full_page_writes = on` (stock PostgreSQL).
    On,
    /// `full_page_writes = off` (fast, unsafe on plain storage).
    Off,
    /// Off + SHARE-remapped checkpoint flushes (safe and fast).
    Share,
}

impl FpwMode {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            FpwMode::On => "FPW-On",
            FpwMode::Off => "FPW-Off",
            FpwMode::Share => "SHARE",
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PgConfig {
    /// Torn-page protection mode.
    pub mode: FpwMode,
    /// Heap/WAL page size (PostgreSQL default 8 KiB).
    pub page_bytes: usize,
    /// Transactions between checkpoints.
    pub checkpoint_txns: u64,
    /// pgbench scale factor (100k accounts per unit).
    pub scale: u64,
    /// PostgreSQL's `data_checksums`: verify a per-page checksum when heap
    /// pages are loaded, so torn pages are *detected* (FPW or SHARE are
    /// still what makes them *recoverable*).
    pub data_checksums: bool,
}

impl Default for PgConfig {
    fn default() -> Self {
        Self {
            mode: FpwMode::On,
            page_bytes: 8192,
            checkpoint_txns: 2_000,
            scale: 1,
            data_checksums: true,
        }
    }
}

/// Engine counters (drives the pgbench experiment output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PgStats {
    /// Committed transactions.
    pub txns: u64,
    /// WAL bytes generated (records + full-page images).
    pub wal_bytes: u64,
    /// Full-page images written into the WAL.
    pub fpi_count: u64,
    /// Bytes of those full-page images.
    pub fpi_bytes: u64,
    /// Heap pages flushed at checkpoints.
    pub pages_flushed: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Transactions replayed during recovery.
    pub replayed_txns: u64,
}

const ROW_BYTES: usize = 100; // pgbench-ish row width
/// Heap page header: last-applied LSN (8) + checksum (4) + reserved (4).
const HEAP_HEADER: usize = 16;
/// A plain update record is padded to this size (realistic PG record).
const UPDATE_RECORD_BYTES: usize = 80;
const WAL_PAGE_HDR: usize = 24;
const WAL_MAGIC: u32 = 0x5057_414C; // "LAWP"
const CONTROL_MAGIC: u32 = 0x5047_4354; // "PGCT"

const TAG_UPDATE: u8 = 1;
const TAG_FPI: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// The engine. All heap pages are buffered in RAM (a large
/// `shared_buffers`); dirty pages reach the data file only at checkpoints,
/// so WAL volume is the dominant run-time write stream — matching the
/// pgbench configuration the paper measured.
pub struct MiniPg<D: BlockDevice> {
    cfg: PgConfig,
    fs: Vfs<D>,
    data: FileId,
    wal: FileId,
    journal: FileId,
    control: FileId,
    rows_per_page: u64,
    accounts_pages: u64,
    tellers_pages: u64,
    /// RAM heap: page number -> page image (header + rows).
    pages: HashMap<u64, Vec<u8>>,
    dirty: HashSet<u64>,
    fpi_logged: HashSet<u64>,
    history_page: u64,
    history_used: usize,
    next_lsn: u64,
    txn_counter: u64,
    ckpt_gen: u64,
    wal_tail: u64,
    wal_buf: Vec<u8>,
    txns_since_ckpt: u64,
    stats: PgStats,
}

impl<D: BlockDevice> MiniPg<D> {
    fn layout(cfg: &PgConfig) -> (u64, u64, u64, u64) {
        let rows_per_page = ((cfg.page_bytes - HEAP_HEADER) / ROW_BYTES) as u64;
        let accounts_pages = (cfg.scale * 100_000).div_ceil(rows_per_page);
        let tellers_pages = (cfg.scale * 10).div_ceil(rows_per_page);
        let branches_pages = cfg.scale.div_ceil(rows_per_page);
        (rows_per_page, accounts_pages, tellers_pages, branches_pages)
    }

    /// Tag the four files with semantic telemetry streams (heap vs. WAL
    /// vs. full-page journal vs. control) — no-op without telemetry.
    fn label_streams(fs: &mut Vfs<D>, data: FileId, wal: FileId, journal: FileId, control: FileId) {
        let _ = fs.set_stream_label(data, "pgdata");
        let _ = fs.set_stream_label(wal, "pg_wal");
        let _ = fs.set_stream_label(journal, "pg_journal");
        let _ = fs.set_stream_label(control, "pg_control");
    }

    /// Create and initialize the database (all balances zero).
    pub fn create(dev: D, cfg: PgConfig) -> Result<Self, PgError> {
        assert_eq!(cfg.page_bytes % dev.page_size(), 0);
        let mut fs = Vfs::format(dev, VfsOptions::default())?;
        let data = fs.create("pgdata")?;
        let wal = fs.create("pg_wal")?;
        let journal = fs.create("pg_journal")?;
        let control = fs.create("pg_control")?;
        let (rows_per_page, accounts_pages, tellers_pages, branches_pages) = Self::layout(&cfg);
        let history_page = accounts_pages + tellers_pages + branches_pages;
        let dpp = (cfg.page_bytes / fs.page_size()) as u64;
        fs.fallocate(data, (history_page + 2048) * dpp)?;
        fs.fallocate(wal, 4 << 10)?; // 16 MiB of 4 KiB WAL pages
        fs.fallocate(journal, 64 * dpp)?;
        fs.fallocate(control, 1)?;
        Self::label_streams(&mut fs, data, wal, journal, control);
        fs.fsync(data)?;
        let mut pg = Self {
            cfg,
            fs,
            data,
            wal,
            journal,
            control,
            rows_per_page,
            accounts_pages,
            tellers_pages,
            pages: HashMap::new(),
            dirty: HashSet::new(),
            fpi_logged: HashSet::new(),
            history_page,
            history_used: 0,
            next_lsn: 1,
            txn_counter: 0,
            ckpt_gen: 1,
            wal_tail: 0,
            wal_buf: Vec::new(),
            txns_since_ckpt: 0,
            stats: PgStats::default(),
        };
        pg.write_control()?;
        Ok(pg)
    }

    /// Reopen after a crash: read the control file, lazily reload heap
    /// pages, and replay committed WAL transactions with LSN gating.
    pub fn open(dev: D, cfg: PgConfig) -> Result<Self, PgError> {
        let mut fs = Vfs::open(dev, VfsOptions::default())?;
        let file =
            |fs: &Vfs<D>, name: &'static str| fs.lookup(name).ok_or(PgError::MissingFile(name));
        let data = file(&fs, "pgdata")?;
        let wal = file(&fs, "pg_wal")?;
        let journal = file(&fs, "pg_journal")?;
        let control = file(&fs, "pg_control")?;
        Self::label_streams(&mut fs, data, wal, journal, control);
        let (rows_per_page, accounts_pages, tellers_pages, branches_pages) = Self::layout(&cfg);
        let history_page0 = accounts_pages + tellers_pages + branches_pages;
        let mut pg = Self {
            cfg,
            fs,
            data,
            wal,
            journal,
            control,
            rows_per_page,
            accounts_pages,
            tellers_pages,
            pages: HashMap::new(),
            dirty: HashSet::new(),
            fpi_logged: HashSet::new(),
            history_page: history_page0,
            history_used: 0,
            next_lsn: 1,
            txn_counter: 0,
            ckpt_gen: 1,
            wal_tail: 0,
            wal_buf: Vec::new(),
            txns_since_ckpt: 0,
            stats: PgStats::default(),
        };
        pg.read_control()?;
        pg.replay_wal()?;
        Ok(pg)
    }

    /// Engine counters.
    pub fn stats(&self) -> PgStats {
        self.stats
    }

    /// Device statistics.
    pub fn device_stats(&self) -> share_core::DeviceStats {
        self.fs.device().stats()
    }

    /// The simulated clock.
    pub fn clock(&self) -> nand_sim::SimClock {
        self.fs.device().clock().clone()
    }

    /// Access the file system (tests, fault injection).
    pub fn fs_mut(&mut self) -> &mut Vfs<D> {
        &mut self.fs
    }

    /// Tear down, returning the device.
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }

    // ----- heap addressing -----------------------------------------------

    fn page_of_account(&self, aid: u64) -> (u64, usize) {
        (aid / self.rows_per_page, (aid % self.rows_per_page) as usize)
    }

    fn page_of_teller(&self, tid: u64) -> (u64, usize) {
        (self.accounts_pages + tid / self.rows_per_page, (tid % self.rows_per_page) as usize)
    }

    fn page_of_branch(&self, bid: u64) -> (u64, usize) {
        (
            self.accounts_pages + self.tellers_pages + bid / self.rows_per_page,
            (bid % self.rows_per_page) as usize,
        )
    }

    /// Load a heap page into RAM (from the data file on first access).
    fn load_page(&mut self, page_no: u64) -> Result<(), PgError> {
        if self.pages.contains_key(&page_no) {
            return Ok(());
        }
        let bytes = self.cfg.page_bytes;
        let bs = self.fs.page_size();
        let dpp = (bytes / bs) as u64;
        let mut img = vec![0u8; bytes];
        {
            let mut reqs: Vec<(u64, &mut [u8])> = img
                .chunks_mut(bs)
                .enumerate()
                .map(|(j, chunk)| (page_no * dpp + j as u64, chunk))
                .collect();
            self.fs.read_pages(self.data, &mut reqs)?;
        }
        if self.cfg.data_checksums && !Self::checksum_ok(&img) {
            // A torn heap page. With FPW (or SHARE) recovery restores an
            // intact image first, as long as the WAL page holding it
            // survives. FPW-Off on a crash-prone device lands here.
            return Err(PgError::TornPage { page: page_no });
        }
        self.pages.insert(page_no, img);
        Ok(())
    }

    /// Stamp the page checksum (over everything after the checksum field).
    fn stamp_checksum(img: &mut [u8]) {
        let crc = crc32c(&img[12..]) ^ crc32c(&img[0..8]);
        img[8..12].copy_from_slice(&crc.to_le_bytes());
    }

    fn checksum_ok(img: &[u8]) -> bool {
        let stored = u32::from_le_bytes(img[8..12].try_into().expect("heap header"));
        if stored == 0 {
            return true; // never-stamped (all-zero fresh) page
        }
        stored == (crc32c(&img[12..]) ^ crc32c(&img[0..8]))
    }

    fn page_lsn(img: &[u8]) -> u64 {
        u64::from_le_bytes(img[0..8].try_into().expect("heap header"))
    }

    fn set_page_lsn(img: &mut [u8], lsn: u64) {
        img[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    fn row_balance(img: &[u8], row: usize) -> i64 {
        let off = HEAP_HEADER + row * ROW_BYTES;
        i64::from_le_bytes(img[off..off + 8].try_into().expect("row in page"))
    }

    fn set_row_balance(img: &mut [u8], row: usize, v: i64) {
        let off = HEAP_HEADER + row * ROW_BYTES;
        img[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Read an account balance (test support).
    pub fn account_balance(&mut self, aid: u64) -> Result<i64, PgError> {
        let (page_no, row) = self.page_of_account(aid);
        self.load_page(page_no)?;
        Ok(Self::row_balance(&self.pages[&page_no], row))
    }

    // ----- WAL records -------------------------------------------------------

    fn wal_frame(&mut self, tag: u8, body: &[u8], pad_to: usize) {
        let total = body.len().max(pad_to);
        self.wal_buf.push(tag);
        self.wal_buf.extend_from_slice(&(total as u32).to_le_bytes());
        self.wal_buf.extend_from_slice(body);
        self.wal_buf.extend(std::iter::repeat_n(0u8, total - body.len()));
        self.stats.wal_bytes += 5 + total as u64;
    }

    /// Apply one balance delta, logging an FPI or an update record.
    fn apply_update(&mut self, page_no: u64, row: usize, delta: i64) -> Result<(), PgError> {
        self.load_page(page_no)?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        {
            let img = self.pages.get_mut(&page_no).expect("loaded");
            let cur = Self::row_balance(img, row);
            Self::set_row_balance(img, row, cur + delta);
            Self::set_page_lsn(img, lsn);
        }
        self.dirty.insert(page_no);

        if self.cfg.mode == FpwMode::On && self.fpi_logged.insert(page_no) {
            // Full-page image (contains the change, like PostgreSQL's FPI).
            let img = self.pages[&page_no].clone();
            let mut body = Vec::with_capacity(16 + img.len());
            body.extend_from_slice(&page_no.to_le_bytes());
            body.extend_from_slice(&lsn.to_le_bytes());
            body.extend_from_slice(&img);
            self.stats.fpi_count += 1;
            self.stats.fpi_bytes += img.len() as u64;
            self.wal_frame(TAG_FPI, &body, body.len() + 48);
        } else {
            let mut body = Vec::with_capacity(28);
            body.extend_from_slice(&page_no.to_le_bytes());
            body.extend_from_slice(&(row as u32).to_le_bytes());
            body.extend_from_slice(&delta.to_le_bytes());
            body.extend_from_slice(&lsn.to_le_bytes());
            self.wal_frame(TAG_UPDATE, &body, UPDATE_RECORD_BYTES);
        }
        Ok(())
    }

    fn wal_flush(&mut self) -> Result<(), PgError> {
        // Pack pending WAL bytes into 4 KiB WAL pages; the partial tail
        // page is rewritten until it fills (group-commit style).
        let bs = self.fs.page_size();
        let cap = bs - WAL_PAGE_HDR;
        loop {
            let take = self.wal_buf.len().min(cap);
            let mut page = vec![0u8; bs];
            page[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
            page[8..12].copy_from_slice(&(take as u32).to_le_bytes());
            page[12..20].copy_from_slice(&self.ckpt_gen.to_le_bytes());
            page[WAL_PAGE_HDR..WAL_PAGE_HDR + take].copy_from_slice(&self.wal_buf[..take]);
            let crc = crc32c(&page[8..]);
            page[4..8].copy_from_slice(&crc.to_le_bytes());
            let slot = self.wal_tail % self.fs.allocated_pages(self.wal)?;
            self.fs.write_page(self.wal, slot, &page)?;
            if take == cap {
                self.wal_tail += 1;
                self.wal_buf.drain(..take);
            } else {
                // Partial page stays buffered for the next rewrite, but the
                // bytes are on flash now.
                break;
            }
        }
        self.fs.fsync(self.wal)?;
        Ok(())
    }

    /// Execute one TPC-B transaction and commit it (WAL fsync).
    pub fn run_txn(&mut self, aid: u64, tid: u64, bid: u64, delta: i64) -> Result<(), PgError> {
        let span = self.fs.root_span("txn_commit");
        let r = self.run_txn_inner(aid, tid, bid, delta);
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn run_txn_inner(&mut self, aid: u64, tid: u64, bid: u64, delta: i64) -> Result<(), PgError> {
        let (ap, ar) = self.page_of_account(aid);
        let (tp, tr) = self.page_of_teller(tid);
        let (bp, br) = self.page_of_branch(bid);
        self.apply_update(ap, ar, delta)?;
        self.apply_update(tp, tr, delta)?;
        self.apply_update(bp, br, delta)?;
        // History insert: append-ish row into the current history page.
        self.history_used += ROW_BYTES;
        if self.history_used + ROW_BYTES > self.cfg.page_bytes - HEAP_HEADER {
            self.history_page += 1;
            self.history_used = 0;
        }
        let hrow = self.history_used / ROW_BYTES;
        let hp = self.history_page;
        self.apply_update(hp, hrow, delta)?;

        self.txn_counter += 1;
        let mut body = Vec::with_capacity(8);
        body.extend_from_slice(&self.txn_counter.to_le_bytes());
        self.wal_frame(TAG_COMMIT, &body, 24);

        self.wal_flush()?;
        self.stats.txns += 1;
        self.txns_since_ckpt += 1;
        if self.txns_since_ckpt >= self.cfg.checkpoint_txns {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ----- checkpointing ------------------------------------------------------

    fn write_control(&mut self) -> Result<(), PgError> {
        let bs = self.fs.page_size();
        let mut page = vec![0u8; bs];
        page[0..4].copy_from_slice(&CONTROL_MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&self.ckpt_gen.to_le_bytes());
        page[16..24].copy_from_slice(&self.next_lsn.to_le_bytes());
        page[24..32].copy_from_slice(&self.txn_counter.to_le_bytes());
        page[32..40].copy_from_slice(&self.history_page.to_le_bytes());
        page[40..48].copy_from_slice(&(self.history_used as u64).to_le_bytes());
        let crc = crc32c(&page[8..]);
        page[4..8].copy_from_slice(&crc.to_le_bytes());
        self.fs.write_page(self.control, 0, &page)?;
        self.fs.fsync(self.control)?;
        Ok(())
    }

    fn read_control(&mut self) -> Result<(), PgError> {
        let bs = self.fs.page_size();
        let mut page = vec![0u8; bs];
        self.fs.read_page(self.control, 0, &mut page)?;
        assert_eq!(
            u32::from_le_bytes(page[0..4].try_into().unwrap()),
            CONTROL_MAGIC,
            "missing control file"
        );
        assert_eq!(
            crc32c(&page[8..]),
            u32::from_le_bytes(page[4..8].try_into().unwrap()),
            "control file corrupt"
        );
        self.ckpt_gen = u64::from_le_bytes(page[8..16].try_into().unwrap());
        self.next_lsn = u64::from_le_bytes(page[16..24].try_into().unwrap());
        self.txn_counter = u64::from_le_bytes(page[24..32].try_into().unwrap());
        self.history_page = u64::from_le_bytes(page[32..40].try_into().unwrap());
        self.history_used = u64::from_le_bytes(page[40..48].try_into().unwrap()) as usize;
        Ok(())
    }

    /// Flush every dirty heap page, bump the generation, reset the WAL.
    pub fn checkpoint(&mut self) -> Result<(), PgError> {
        let span = self.fs.root_span("checkpoint");
        let r = self.checkpoint_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn checkpoint_inner(&mut self) -> Result<(), PgError> {
        let dpp = (self.cfg.page_bytes / self.fs.page_size()) as u64;
        let bs = self.fs.page_size();
        // In page order: what a crash interrupts must not follow hash order.
        let mut dirty: Vec<u64> = self.dirty.drain().collect();
        dirty.sort_unstable();
        let use_share = self.cfg.mode == FpwMode::Share && self.fs.supports_share();
        let journal_slots = self.fs.allocated_pages(self.journal)? / dpp;
        let mut batch: Vec<u64> = Vec::new();
        for chunk in dirty.chunks(journal_slots.max(1) as usize) {
            batch.clear();
            batch.extend_from_slice(chunk);
            if use_share {
                // Journal once, remap home locations (InnoDB-style SHARE
                // protocol applied to PostgreSQL checkpointing). The whole
                // journal pass is one batched submission.
                let mut images: Vec<Vec<u8>> = Vec::with_capacity(batch.len());
                for &page_no in batch.iter() {
                    let mut img = self.pages.get(&page_no).expect("dirty page resident").clone();
                    Self::stamp_checksum(&mut img);
                    images.push(img);
                }
                let mut writes: Vec<(u64, &[u8])> = Vec::with_capacity(batch.len() * dpp as usize);
                for (slot, img) in images.iter().enumerate() {
                    for (j, chunk) in img.chunks(bs).enumerate() {
                        writes.push((slot as u64 * dpp + j as u64, chunk));
                    }
                }
                self.fs.write_pages_overlapped(self.journal, &writes)?;
                self.fs.barrier()?;
                self.fs.fsync(self.journal)?;
                let mut pairs = Vec::new();
                for (slot, &page_no) in batch.iter().enumerate() {
                    for j in 0..dpp {
                        pairs.push((page_no * dpp + j, slot as u64 * dpp + j));
                    }
                }
                // Keep each heap page within one atomic batch.
                let chunk_pairs = ((self.fs.share_batch_limit() as u64 / dpp) * dpp) as usize;
                let mut tmp: Vec<(u64, u64)> = Vec::new();
                for c in pairs.chunks(chunk_pairs.max(dpp as usize)) {
                    tmp.clear();
                    tmp.extend_from_slice(c);
                    self.fs.ioctl_share_pairs(self.data, self.journal, &tmp)?;
                }
            } else {
                let mut images: Vec<Vec<u8>> = Vec::with_capacity(batch.len());
                for &page_no in batch.iter() {
                    let mut img = self.pages.get(&page_no).expect("dirty page resident").clone();
                    Self::stamp_checksum(&mut img);
                    images.push(img);
                }
                let mut writes: Vec<(u64, &[u8])> = Vec::with_capacity(batch.len() * dpp as usize);
                for (&page_no, img) in batch.iter().zip(&images) {
                    for (j, chunk) in img.chunks(bs).enumerate() {
                        writes.push((page_no * dpp + j as u64, chunk));
                    }
                }
                self.fs.write_pages_overlapped(self.data, &writes)?;
                self.fs.barrier()?;
                self.fs.fsync(self.data)?;
            }
            self.stats.pages_flushed += batch.len() as u64;
        }
        self.fpi_logged.clear();
        self.txns_since_ckpt = 0;
        self.stats.checkpoints += 1;
        // New WAL generation; the control file is the commit point.
        self.ckpt_gen += 1;
        self.wal_tail = 0;
        self.wal_buf.clear();
        self.write_control()?;
        Ok(())
    }

    // ----- recovery --------------------------------------------------------------

    fn replay_wal(&mut self) -> Result<(), PgError> {
        // Collect the contiguous run of intact WAL pages of this generation.
        let bs = self.fs.page_size();
        let cap = bs - WAL_PAGE_HDR;
        let mut stream = Vec::new();
        let mut page = vec![0u8; bs];
        let slots = self.fs.allocated_pages(self.wal)?;
        let mut intact_pages = 0u64;
        for slot in 0..slots {
            self.fs.read_page(self.wal, slot, &mut page)?;
            if u32::from_le_bytes(page[0..4].try_into().unwrap()) != WAL_MAGIC {
                break;
            }
            if crc32c(&page[8..]) != u32::from_le_bytes(page[4..8].try_into().unwrap()) {
                break; // torn WAL page: end of reliable log
            }
            let used = u32::from_le_bytes(page[8..12].try_into().unwrap()) as usize;
            let gen = u64::from_le_bytes(page[12..20].try_into().unwrap());
            if gen != self.ckpt_gen || used > cap {
                break; // stale page from before the checkpoint
            }
            stream.extend_from_slice(&page[WAL_PAGE_HDR..WAL_PAGE_HDR + used]);
            if used == cap {
                intact_pages = slot + 1;
            } else {
                break; // partial tail page
            }
        }

        // Parse frames; apply per committed transaction, LSN-gated.
        let mut off = 0usize;
        let mut pending: Vec<(u8, Vec<u8>)> = Vec::new();
        let mut max_lsn = self.next_lsn;
        while off + 5 <= stream.len() {
            let tag = stream[off];
            let len = u32::from_le_bytes(stream[off + 1..off + 5].try_into().unwrap()) as usize;
            if off + 5 + len > stream.len() || !(TAG_UPDATE..=TAG_COMMIT).contains(&tag) {
                break;
            }
            let body = stream[off + 5..off + 5 + len].to_vec();
            off += 5 + len;
            if tag == TAG_COMMIT {
                let txn = u64::from_le_bytes(body[0..8].try_into().unwrap());
                if txn <= self.txn_counter {
                    break; // stale bytes from a previous generation layout
                }
                for (t, b) in pending.drain(..) {
                    max_lsn = max_lsn.max(self.replay_record(t, &b)?);
                }
                self.txn_counter = txn;
                self.stats.replayed_txns += 1;
            } else {
                pending.push((tag, body));
            }
        }
        // Trailing `pending` (no commit) is discarded: txn atomicity.

        self.next_lsn = max_lsn + 1;
        self.wal_tail = intact_pages;
        // Derive the history cursor from the replayed state.
        Ok(())
    }

    fn replay_record(&mut self, tag: u8, body: &[u8]) -> Result<u64, PgError> {
        match tag {
            TAG_FPI => {
                let page_no = u64::from_le_bytes(body[0..8].try_into().unwrap());
                let lsn = u64::from_le_bytes(body[8..16].try_into().unwrap());
                let img = &body[16..16 + self.cfg.page_bytes];
                self.load_page(page_no)?;
                let cur = Self::page_lsn(&self.pages[&page_no]);
                if lsn > cur {
                    self.pages.insert(page_no, img.to_vec());
                    self.dirty.insert(page_no);
                }
                Ok(lsn)
            }
            TAG_UPDATE => {
                let page_no = u64::from_le_bytes(body[0..8].try_into().unwrap());
                let row = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
                let delta = i64::from_le_bytes(body[12..20].try_into().unwrap());
                let lsn = u64::from_le_bytes(body[20..28].try_into().unwrap());
                self.load_page(page_no)?;
                let img = self.pages.get_mut(&page_no).expect("loaded");
                if lsn > Self::page_lsn(img) {
                    let cur = Self::row_balance(img, row);
                    Self::set_row_balance(img, row, cur + delta);
                    Self::set_page_lsn(img, lsn);
                    self.dirty.insert(page_no);
                }
                // Track the history cursor as records stream past.
                if page_no >= self.history_page {
                    self.history_page = page_no;
                    self.history_used = (row + 1) * ROW_BYTES;
                }
                Ok(lsn)
            }
            _ => Ok(0),
        }
    }
}
