//! The transactional pager: SQLite's journaling modes over a [`Vfs`].
//!
//! SQLite guarantees atomic commits with either a **rollback journal**
//! (before-images, invalidated at commit) or a **write-ahead log**
//! (after-images, checkpointed back into the database). The paper's §3.3
//! points out both can be *turned off* on a SHARE device: write the
//! after-images once into a staging area and remap them into place — one
//! atomic batch, no journal, no WAL, no second write. [`JournalMode`]
//! implements all four variants (including the unsafe `Off` baseline) so
//! their costs and crash behaviour can be compared directly.

use crate::page::RecordPage;
use crate::SqliteError;
use share_core::{crc32c, BlockDevice};
use share_vfs::{FileId, Vfs, VfsOptions};
use std::collections::{BTreeMap, HashMap};

/// How commits are made atomic and durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalMode {
    /// Before-images journaled, then in-place writes (SQLite default).
    Rollback,
    /// After-images appended to a WAL, checkpointed later.
    Wal,
    /// `journal_mode = OFF`: in-place writes only — fast and unsafe.
    Off,
    /// After-images staged once, then SHARE-remapped into place.
    Share,
}

impl JournalMode {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            JournalMode::Rollback => "rollback",
            JournalMode::Wal => "wal",
            JournalMode::Off => "off",
            JournalMode::Share => "SHARE",
        }
    }
}

/// Pager configuration.
#[derive(Debug, Clone)]
pub struct SqliteConfig {
    /// Commit protocol.
    pub mode: JournalMode,
    /// Database capacity in pages.
    pub max_pages: u64,
    /// WAL frames that trigger a checkpoint.
    pub wal_checkpoint_frames: u64,
}

impl Default for SqliteConfig {
    fn default() -> Self {
        Self { mode: JournalMode::Rollback, max_pages: 2_048, wal_checkpoint_frames: 512 }
    }
}

/// Pager counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqliteStats {
    /// Committed transactions.
    pub commits: u64,
    /// Pages written to the rollback journal (before-images + headers).
    pub journal_pages: u64,
    /// Frames appended to the WAL (after-images + commit frames).
    pub wal_frames: u64,
    /// WAL checkpoints performed.
    pub checkpoints: u64,
    /// Pages staged + remapped by SHARE commits.
    pub share_pages: u64,
    /// In-place page writes to the database file.
    pub db_page_writes: u64,
    /// Transactions rolled back during recovery (hot journal found).
    pub recovered_rollbacks: u64,
}

const JOURNAL_MAGIC: u32 = 0x534A_524E; // "SJRN"
const COMMIT_FRAME_PAGE: u64 = u64::MAX;

/// The mini-SQLite pager: a key-value table over record pages with
/// SQLite's commit protocols.
pub struct MiniSqlite<D: BlockDevice> {
    fs: Vfs<D>,
    cfg: SqliteConfig,
    db: FileId,
    journal: FileId,
    wal: FileId,
    /// Page cache (the whole database; SQLite keeps hot pages, we keep all).
    cache: HashMap<u64, RecordPage>,
    /// key -> page_no.
    directory: BTreeMap<u64, u64>,
    /// Pages allocated so far.
    used_pages: u64,
    /// Open transaction: dirty page set + pre-transaction images.
    txn_dirty: Vec<u64>,
    txn_before: HashMap<u64, Option<RecordPage>>,
    wal_tail: u64,
    wal_index: HashMap<u64, u64>,
    txn_counter: u64,
    stats: SqliteStats,
}

impl<D: BlockDevice> MiniSqlite<D> {
    /// Tag the three files with semantic telemetry streams so a metrics
    /// snapshot separates database, rollback-journal and WAL traffic
    /// (no-op on devices without telemetry).
    fn label_streams(fs: &mut Vfs<D>, db: FileId, journal: FileId, wal: FileId) {
        let _ = fs.set_stream_label(db, "db");
        let _ = fs.set_stream_label(journal, "journal");
        let _ = fs.set_stream_label(wal, "wal");
    }

    /// Create a fresh database on `dev`.
    pub fn create(dev: D, cfg: SqliteConfig) -> Result<Self, SqliteError> {
        let mut fs = Vfs::format(dev, VfsOptions::default())?;
        let db = fs.create("main.db")?;
        // Data pages plus the SHARE staging area at the file tail.
        fs.fallocate(db, cfg.max_pages + 512)?;
        let journal = fs.create("main.db-journal")?;
        fs.fallocate(journal, 520)?;
        let wal = fs.create("main.db-wal")?;
        fs.fallocate(wal, cfg.wal_checkpoint_frames + 520)?;
        Self::label_streams(&mut fs, db, journal, wal);
        fs.fsync(db)?;
        Ok(Self {
            fs,
            cfg,
            db,
            journal,
            wal,
            cache: HashMap::new(),
            directory: BTreeMap::new(),
            used_pages: 0,
            txn_dirty: Vec::new(),
            txn_before: HashMap::new(),
            wal_tail: 0,
            wal_index: HashMap::new(),
            txn_counter: 0,
            stats: SqliteStats::default(),
        })
    }

    /// Open after a crash or clean shutdown: roll back a hot journal
    /// (Rollback mode), replay committed WAL frames (Wal mode), then
    /// rebuild the key directory by scanning the database pages.
    pub fn open(dev: D, cfg: SqliteConfig) -> Result<Self, SqliteError> {
        let mut fs = Vfs::open(dev, VfsOptions::default())?;
        let db = fs.lookup("main.db").ok_or(SqliteError::NotADatabase)?;
        let journal = fs.lookup("main.db-journal").ok_or(SqliteError::NotADatabase)?;
        let wal = fs.lookup("main.db-wal").ok_or(SqliteError::NotADatabase)?;
        Self::label_streams(&mut fs, db, journal, wal);
        let mut pager = Self {
            fs,
            cfg,
            db,
            journal,
            wal,
            cache: HashMap::new(),
            directory: BTreeMap::new(),
            used_pages: 0,
            txn_dirty: Vec::new(),
            txn_before: HashMap::new(),
            wal_tail: 0,
            wal_index: HashMap::new(),
            txn_counter: 0,
            stats: SqliteStats::default(),
        };
        if pager.cfg.mode == JournalMode::Rollback {
            pager.rollback_hot_journal()?;
        }
        pager.load_database()?;
        if pager.cfg.mode == JournalMode::Wal {
            pager.replay_wal()?;
        }
        Ok(pager)
    }

    /// Pager counters.
    pub fn stats(&self) -> SqliteStats {
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

    /// Number of live keys.
    pub fn key_count(&self) -> usize {
        self.directory.len()
    }

    /// Access the file system (tests, fault injection).
    pub fn fs_mut(&mut self) -> &mut Vfs<D> {
        &mut self.fs
    }

    /// Tear down, returning the device.
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }

    // ----- reads ------------------------------------------------------------

    /// Point lookup (sees the open transaction's writes).
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, SqliteError> {
        let Some(&page_no) = self.directory.get(&key) else {
            return Ok(None);
        };
        Ok(self.cache.get(&page_no).and_then(|p| p.get(key)).map(<[u8]>::to_vec))
    }

    // ----- writes ------------------------------------------------------------

    fn touch(&mut self, page_no: u64) {
        if !self.txn_before.contains_key(&page_no) {
            self.txn_before.insert(page_no, self.cache.get(&page_no).cloned());
            self.txn_dirty.push(page_no);
        }
    }

    fn page_bytes(&self) -> usize {
        self.fs.page_size()
    }

    fn page_for_insert(&mut self, vlen: usize) -> Result<u64, SqliteError> {
        let page_bytes = self.page_bytes();
        // Prefer pages already dirty in this txn, then any page with room.
        for &p in &self.txn_dirty {
            if self.cache.get(&p).is_some_and(|pg| pg.fits(vlen, page_bytes)) {
                return Ok(p);
            }
        }
        // The lowest such page: placement must not follow hash order.
        let roomy = self.cache.iter().filter(|(_, pg)| pg.fits(vlen, page_bytes));
        if let Some(p) = roomy.map(|(&p, _)| p).min() {
            return Ok(p);
        }
        if self.used_pages >= self.cfg.max_pages {
            return Err(SqliteError::DatabaseFull);
        }
        let p = self.used_pages;
        self.used_pages += 1;
        self.cache.insert(p, RecordPage::new(p));
        Ok(p)
    }

    /// Insert or replace a record (part of the open transaction).
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<(), SqliteError> {
        let page_bytes = self.page_bytes();
        if value.len() > page_bytes / 4 {
            return Err(SqliteError::RecordTooLarge { bytes: value.len(), max: page_bytes / 4 });
        }
        if let Some(&home) = self.directory.get(&key) {
            let fits = {
                let pg = self.cache.get_mut(&home).expect("directory points at cached page");
                let old_len = pg.get(key).map(<[u8]>::len).unwrap_or(0);
                pg.bytes_used() - old_len + value.len() <= page_bytes
            };
            if fits {
                self.touch(home);
                self.cache.get_mut(&home).expect("cached").put(key, value.to_vec());
                return Ok(());
            }
            // Grown record moves to another page.
            self.touch(home);
            self.cache.get_mut(&home).expect("cached").remove(key);
            self.directory.remove(&key);
        }
        let target = self.page_for_insert(value.len())?;
        self.touch(target);
        self.cache.get_mut(&target).expect("cached").put(key, value.to_vec());
        self.directory.insert(key, target);
        Ok(())
    }

    /// Delete a record (part of the open transaction).
    pub fn delete(&mut self, key: u64) -> Result<bool, SqliteError> {
        let Some(&home) = self.directory.get(&key) else {
            return Ok(false);
        };
        self.touch(home);
        self.cache.get_mut(&home).expect("cached").remove(key);
        self.directory.remove(&key);
        Ok(true)
    }

    /// Abandon the open transaction (in-memory rollback).
    pub fn rollback(&mut self) {
        for (page_no, before) in std::mem::take(&mut self.txn_before) {
            match before {
                Some(pg) => {
                    self.cache.insert(page_no, pg);
                }
                None => {
                    self.cache.remove(&page_no);
                }
            }
        }
        self.txn_dirty.clear();
        // Rebuild the directory entries touched by the rollback.
        self.directory.clear();
        for (&p, pg) in &self.cache {
            for (k, _) in &pg.records {
                self.directory.insert(*k, p);
            }
        }
    }

    /// Commit the open transaction with the configured protocol.
    pub fn commit(&mut self) -> Result<(), SqliteError> {
        let span = self.fs.root_span("txn_commit");
        let r = self.commit_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn commit_inner(&mut self) -> Result<(), SqliteError> {
        if self.txn_dirty.is_empty() {
            return Ok(());
        }
        let dirty = std::mem::take(&mut self.txn_dirty);
        let before = std::mem::take(&mut self.txn_before);
        self.txn_counter += 1;
        match self.cfg.mode {
            JournalMode::Rollback => self.commit_rollback(&dirty, &before)?,
            JournalMode::Wal => self.commit_wal(&dirty)?,
            JournalMode::Off => self.commit_off(&dirty)?,
            JournalMode::Share => self.commit_share(&dirty)?,
        }
        self.stats.commits += 1;
        Ok(())
    }

    fn encode_page(&self, page_no: u64) -> Vec<u8> {
        match self.cache.get(&page_no) {
            Some(pg) => pg.encode(self.page_bytes()),
            None => vec![0u8; self.page_bytes()],
        }
    }

    /// Write the current cache images of `pages` to the database file as
    /// one batched device submission.
    fn write_db_pages(&mut self, pages: &[u64]) -> Result<(), SqliteError> {
        let images: Vec<(u64, Vec<u8>)> =
            pages.iter().map(|&p| (p, self.encode_page(p))).collect();
        let batch: Vec<(u64, &[u8])> =
            images.iter().map(|(p, img)| (*p, img.as_slice())).collect();
        self.fs.write_pages_overlapped(self.db, &batch)?;
        self.stats.db_page_writes += pages.len() as u64;
        Ok(())
    }

    // --- rollback journal ----------------------------------------------------

    fn journal_header(&self, page_nos: &[u64]) -> Vec<u8> {
        let mut h = vec![0u8; self.page_bytes()];
        h[0..4].copy_from_slice(&JOURNAL_MAGIC.to_le_bytes());
        h[8..10].copy_from_slice(&(page_nos.len() as u16).to_le_bytes());
        let mut off = 16;
        for &p in page_nos {
            h[off..off + 8].copy_from_slice(&p.to_le_bytes());
            off += 8;
        }
        let crc = crc32c(&h[8..off]);
        h[4..8].copy_from_slice(&crc.to_le_bytes());
        h
    }

    fn commit_rollback(
        &mut self,
        dirty: &[u64],
        before: &HashMap<u64, Option<RecordPage>>,
    ) -> Result<(), SqliteError> {
        // 1. Journal the before-images as one batched submission (header
        //    written after the images so a torn header invalidates the
        //    journal, never half-validates it).
        let images: Vec<Vec<u8>> = dirty
            .iter()
            .map(|p| match &before[p] {
                Some(pg) => pg.encode(self.page_bytes()),
                None => vec![0u8; self.page_bytes()],
            })
            .collect();
        let batch: Vec<(u64, &[u8])> =
            images.iter().enumerate().map(|(i, img)| (1 + i as u64, img.as_slice())).collect();
        self.fs.write_pages_overlapped(self.journal, &batch)?;
        self.stats.journal_pages += dirty.len() as u64;
        let header = self.journal_header(dirty);
        self.fs.write_page(self.journal, 0, &header)?;
        self.stats.journal_pages += 1;
        self.fs.barrier()?;
        self.fs.fsync(self.journal)?;
        // 2. In-place page writes, batched.
        self.write_db_pages(dirty)?;
        self.fs.barrier()?;
        self.fs.fsync(self.db)?;
        // 3. Invalidate the journal — the commit point.
        let zero = vec![0u8; self.page_bytes()];
        self.fs.write_page(self.journal, 0, &zero)?;
        self.fs.fsync(self.journal)?;
        Ok(())
    }

    fn rollback_hot_journal(&mut self) -> Result<(), SqliteError> {
        let mut h = vec![0u8; self.page_bytes()];
        self.fs.read_page(self.journal, 0, &mut h)?;
        if u32::from_le_bytes(h[0..4].try_into().unwrap()) != JOURNAL_MAGIC {
            return Ok(());
        }
        let count = u16::from_le_bytes(h[8..10].try_into().unwrap()) as usize;
        let end = 16 + count * 8;
        if end > h.len() || crc32c(&h[8..end]) != u32::from_le_bytes(h[4..8].try_into().unwrap()) {
            return Ok(()); // torn header: journal never became valid
        }
        let mut page_nos = Vec::with_capacity(count);
        for i in 0..count {
            page_nos.push(u64::from_le_bytes(h[16 + i * 8..24 + i * 8].try_into().unwrap()));
        }
        // Restore before-images: batch-read the journal, batch-write home.
        let ps = self.page_bytes();
        let mut images = vec![vec![0u8; ps]; page_nos.len()];
        {
            let mut reqs: Vec<(u64, &mut [u8])> = images
                .iter_mut()
                .enumerate()
                .map(|(i, img)| (1 + i as u64, img.as_mut_slice()))
                .collect();
            self.fs.read_pages(self.journal, &mut reqs)?;
        }
        let batch: Vec<(u64, &[u8])> =
            page_nos.iter().zip(&images).map(|(&p, img)| (p, img.as_slice())).collect();
        self.fs.write_pages(self.db, &batch)?;
        self.fs.fsync(self.db)?;
        let zero = vec![0u8; self.page_bytes()];
        self.fs.write_page(self.journal, 0, &zero)?;
        self.fs.fsync(self.journal)?;
        self.stats.recovered_rollbacks += 1;
        Ok(())
    }

    // --- write-ahead log -------------------------------------------------------

    fn commit_wal(&mut self, dirty: &[u64]) -> Result<(), SqliteError> {
        // All data frames of the transaction as one batched submission;
        // the commit frame is written strictly after, so a crash mid-batch
        // leaves an uncommitted (ignored) WAL tail exactly as before.
        let images: Vec<Vec<u8>> = dirty.iter().map(|&p| self.encode_page(p)).collect();
        let batch: Vec<(u64, &[u8])> = images
            .iter()
            .enumerate()
            .map(|(i, img)| (self.wal_tail + i as u64, img.as_slice()))
            .collect();
        self.fs.write_pages_overlapped(self.wal, &batch)?;
        for &p in dirty {
            self.wal_index.insert(p, self.wal_tail);
            self.wal_tail += 1;
            self.stats.wal_frames += 1;
        }
        // Commit frame: an unmistakable marker page.
        let mut marker = RecordPage::new(COMMIT_FRAME_PAGE);
        marker.put(self.txn_counter, Vec::new());
        let img = marker.encode(self.page_bytes());
        self.fs.write_page(self.wal, self.wal_tail, &img)?;
        self.wal_tail += 1;
        self.stats.wal_frames += 1;
        self.fs.barrier()?;
        self.fs.fsync(self.wal)?;
        if self.wal_tail >= self.cfg.wal_checkpoint_frames {
            self.checkpoint_wal()?;
        }
        Ok(())
    }

    /// Copy the latest WAL versions into the database and reset the WAL.
    pub fn checkpoint_wal(&mut self) -> Result<(), SqliteError> {
        let span = self.fs.root_span("checkpoint");
        let r = self.checkpoint_wal_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn checkpoint_wal_inner(&mut self) -> Result<(), SqliteError> {
        let mut pages: Vec<u64> = self.wal_index.keys().copied().collect();
        pages.sort_unstable();
        self.write_db_pages(&pages)?;
        self.fs.barrier()?;
        self.fs.fsync(self.db)?;
        // Reset: zero the first frame so recovery sees an empty log.
        let zero = vec![0u8; self.page_bytes()];
        self.fs.write_page(self.wal, 0, &zero)?;
        self.fs.fsync(self.wal)?;
        self.wal_tail = 0;
        self.wal_index.clear();
        self.stats.checkpoints += 1;
        Ok(())
    }

    fn replay_wal(&mut self) -> Result<(), SqliteError> {
        let mut img = vec![0u8; self.page_bytes()];
        let mut pending: Vec<RecordPage> = Vec::new();
        let frames = self.fs.allocated_pages(self.wal)?;
        let mut applied_tail = 0;
        let mut last_txn = 0u64;
        for f in 0..frames {
            self.fs.read_page(self.wal, f, &mut img)?;
            match RecordPage::decode(&img) {
                Ok(Some(pg)) if pg.page_no == COMMIT_FRAME_PAGE => {
                    // Commit ids must grow monotonically; a smaller id is a
                    // stale frame from before the last checkpoint reset.
                    let txn_id = pg.records.first().map(|(k, _)| *k).unwrap_or(0);
                    if txn_id <= last_txn {
                        break;
                    }
                    last_txn = txn_id;
                    for pg in pending.drain(..) {
                        self.used_pages = self.used_pages.max(pg.page_no + 1);
                        for (k, _) in &pg.records {
                            self.directory.insert(*k, pg.page_no);
                        }
                        // Records removed by the frame must leave the directory.
                        let keys: Vec<u64> = self
                            .directory
                            .iter()
                            .filter(|(_, &p)| p == pg.page_no)
                            .map(|(&k, _)| k)
                            .collect();
                        for k in keys {
                            if pg.get(k).is_none() {
                                self.directory.remove(&k);
                            }
                        }
                        self.wal_index.insert(pg.page_no, f);
                        self.cache.insert(pg.page_no, pg);
                    }
                    applied_tail = f + 1;
                }
                Ok(Some(pg)) => pending.push(pg),
                Ok(None) | Err(_) => break, // end of log or torn frame
            }
        }
        self.wal_tail = applied_tail;
        self.txn_counter = last_txn;
        Ok(())
    }

    // --- unsafe off mode ----------------------------------------------------------

    fn commit_off(&mut self, dirty: &[u64]) -> Result<(), SqliteError> {
        self.write_db_pages(dirty)?;
        self.fs.barrier()?;
        self.fs.fsync(self.db)?;
        Ok(())
    }

    // --- SHARE mode ------------------------------------------------------------

    fn commit_share(&mut self, dirty: &[u64]) -> Result<(), SqliteError> {
        let limit = self.fs.share_batch_limit();
        if dirty.len() > limit {
            return Err(SqliteError::TxnTooLarge { pages: dirty.len(), max: limit });
        }
        // Stage the after-images past the data area as one batched
        // submission, then remap atomically.
        let staging_base = self.cfg.max_pages;
        let images: Vec<Vec<u8>> = dirty.iter().map(|&p| self.encode_page(p)).collect();
        let batch: Vec<(u64, &[u8])> = images
            .iter()
            .enumerate()
            .map(|(i, img)| (staging_base + i as u64, img.as_slice()))
            .collect();
        self.fs.write_pages_overlapped(self.db, &batch)?;
        self.fs.barrier()?;
        self.fs.fsync(self.db)?;
        let pairs: Vec<(u64, u64)> =
            dirty.iter().enumerate().map(|(i, &p)| (p, staging_base + i as u64)).collect();
        self.fs.ioctl_share_pairs(self.db, self.db, &pairs)?;
        self.stats.share_pages += dirty.len() as u64;
        Ok(())
    }

    // --- snapshots / clones ---------------------------------------------------

    /// Whether the underlying device supports device-level snapshots.
    pub fn supports_snapshot(&self) -> bool {
        self.fs.supports_snapshot()
    }

    /// Freeze the committed database image under snapshot `name` — the
    /// paper-style "instant" operation: O(mapped pages) of RAM work, zero
    /// NAND page programs. WAL contents are checkpointed into the database
    /// first so the frozen file is self-contained.
    pub fn snapshot_db(&mut self, name: &str) -> Result<(), SqliteError> {
        let span = self.fs.root_span("snapshot_db");
        let r = self.snapshot_db_inner(name);
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn snapshot_db_inner(&mut self, name: &str) -> Result<(), SqliteError> {
        self.fs.barrier()?;
        if self.cfg.mode == JournalMode::Wal && !self.wal_index.is_empty() {
            self.checkpoint_wal()?;
        }
        self.fs.fsync(self.db)?;
        self.fs.vfs_snapshot("main.db", name)?;
        Ok(())
    }

    /// Release snapshot `name` (clones made from it stay valid).
    pub fn drop_snapshot(&mut self, name: &str) -> Result<(), SqliteError> {
        self.fs.vfs_snapshot_drop(name)?;
        Ok(())
    }

    /// Materialize snapshot `name` as a standalone writable database file
    /// `dst` without copying data (copy-on-write at the FTL level).
    pub fn clone_from_snapshot(&mut self, name: &str, dst: &str) -> Result<(), SqliteError> {
        let span = self.fs.root_span("clone_db");
        let r = self.fs.vfs_clone(name, dst).map(|_| ());
        self.fs.end_span(span, r.is_ok());
        r.map_err(Into::into)
    }

    // --- startup scan ---------------------------------------------------------------

    fn load_database(&mut self) -> Result<(), SqliteError> {
        let mut img = vec![0u8; self.page_bytes()];
        for p in 0..self.cfg.max_pages {
            self.fs.read_page(self.db, p, &mut img)?;
            match RecordPage::decode(&img) {
                Ok(Some(pg)) => {
                    self.used_pages = self.used_pages.max(p + 1);
                    for (k, _) in &pg.records {
                        self.directory.insert(*k, p);
                    }
                    self.cache.insert(p, pg);
                }
                Ok(None) => {}
                Err(_) => return Err(SqliteError::TornPage { page_no: p }),
            }
        }
        Ok(())
    }
}
