//! The file system itself: file table, page I/O, fsync, ioctl-SHARE.

use crate::alloc::{Extent, ExtentAllocator};
use crate::error::VfsError;
use share_core::{
    crc32c, recycle_vec, BlockDevice, CmdTag, Completion, FtlError, Lpn, QueuedCmd, SharePair,
};
use share_telemetry::{Layer, SpanId, Track, Tracer};

const META_MAGIC: u32 = 0x4653_4D44; // "FSMD"
const MAX_NAME: usize = 64;
/// Bytes of a file-table record with an empty name and no extents: id,
/// name length, length in pages, extent count.
const FILE_RECORD_MIN: usize = 4 + 1 + 8 + 4;
/// Bytes of one extent in the file table: start and length.
const EXTENT_RECORD: usize = 16;
/// Pages per metadata snapshot slot (two slots are reserved).
const META_SLOT_PAGES: u64 = 8;
/// Pages in the ordered-mode journal ring.
const JOURNAL_RING_PAGES: u64 = 16;
/// LPNs before the first file page: the two metadata slots and the ring.
const META_PAGES: u64 = 2 * META_SLOT_PAGES + JOURNAL_RING_PAGES;

/// Handle to an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u32);

/// Tunables of a [`Vfs`] instance.
#[derive(Debug, Clone)]
pub struct VfsOptions {
    /// Journal pages charged per fsync that found dirty data (models the
    /// ext4 ordered-mode commit record + descriptor). 0 disables.
    pub journal_pages_per_commit: u64,
    /// Allocation granularity: files grow by this many pages at once.
    pub extent_chunk_pages: u64,
}

impl Default for VfsOptions {
    fn default() -> Self {
        Self {
            journal_pages_per_commit: 0,
            extent_chunk_pages: 256,
        }
    }
}

/// File-system level write accounting (all of it also shows up in the
/// device's `host_writes`; these counters attribute the metadata share).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    /// Metadata snapshots written.
    pub snapshots: u64,
    /// Pages written by metadata snapshots.
    pub snapshot_pages: u64,
    /// Journal commits charged.
    pub journal_commits: u64,
    /// Pages written by journal commits.
    pub journal_pages: u64,
}

#[derive(Debug, Clone)]
struct FileInner {
    id: u32,
    name: String,
    len_pages: u64,
    extents: Vec<Extent>,
}

impl FileInner {
    fn allocated_pages(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }
}

/// A minimal extent-based file system over any [`BlockDevice`].
///
/// Plays the role of ext4 in the paper's prototype: page-granular file I/O
/// with `O_DIRECT` semantics (no page cache), fsync mapping to a device
/// flush plus ordered-mode journal traffic, and an **ioctl passthrough**
/// for the SHARE command — [`Vfs::ioctl_share`] translates file offsets to
/// LPNs and forwards one atomic batch to the device, exactly how the
/// paper's user-level library reaches the SSD through the file system.
#[derive(Debug)]
pub struct Vfs<D: BlockDevice> {
    dev: D,
    opts: VfsOptions,
    files: std::collections::HashMap<u32, FileInner>,
    names: std::collections::HashMap<String, u32>,
    alloc: ExtentAllocator,
    next_id: u32,
    generation: u64,
    meta_dirty: bool,
    data_dirty: bool,
    journal_cursor: u64,
    stats: VfsStats,
    /// The device request of [`Vfs::ioctl_share_pairs`], refilled by each
    /// call.
    share_pairs: Vec<SharePair>,
    /// The device request of a page write — blocking, atomic or queued —
    /// kept empty between calls ([`recycle_vec`]).
    write_batch: Vec<(Lpn, &'static [u8])>,
    /// The device request of [`Vfs::read_pages`], kept the same way.
    read_batch: Vec<(Lpn, &'static mut [u8])>,
    /// The LPNs of a [`Vfs::submit_read_pages`] command.
    read_lpns: Vec<Lpn>,
    /// The page every journal commit writes, `0xEE` throughout.
    journal_page: Vec<u8>,
    /// Span tracer shared with the device (no-op unless tracing is on).
    tracer: Tracer,
}

impl<D: BlockDevice> Vfs<D> {
    /// First LPN available to file data.
    pub fn data_start(&self) -> u64 {
        META_PAGES
    }

    /// Format `dev` with an empty file table.
    pub fn format(dev: D, opts: VfsOptions) -> Result<Self, VfsError> {
        assert!(
            dev.capacity_pages() > META_PAGES + opts.extent_chunk_pages,
            "device too small for this metadata layout"
        );
        let alloc = ExtentAllocator::new(META_PAGES, dev.capacity_pages());
        let tracer = dev.tracer();
        let mut vfs = Self {
            dev,
            opts,
            files: Default::default(),
            names: Default::default(),
            alloc,
            next_id: 1,
            generation: 0,
            meta_dirty: true,
            data_dirty: false,
            journal_cursor: 0,
            stats: VfsStats::default(),
            share_pairs: Vec::new(),
            write_batch: Vec::new(),
            read_batch: Vec::new(),
            read_lpns: Vec::new(),
            journal_page: Vec::new(),
            tracer,
        };
        vfs.write_snapshot()?;
        vfs.dev.flush()?;
        Ok(vfs)
    }

    /// Mount an existing file system from `dev`.
    pub fn open(dev: D, opts: VfsOptions) -> Result<Self, VfsError> {
        let tracer = dev.tracer();
        let mut vfs = Self {
            dev,
            opts,
            files: Default::default(),
            names: Default::default(),
            alloc: ExtentAllocator::new(0, 0),
            next_id: 1,
            generation: 0,
            meta_dirty: false,
            data_dirty: false,
            journal_cursor: 0,
            stats: VfsStats::default(),
            share_pairs: Vec::new(),
            write_batch: Vec::new(),
            read_batch: Vec::new(),
            read_lpns: Vec::new(),
            journal_page: Vec::new(),
            tracer,
        };
        let best = [0u64, 1]
            .into_iter()
            .filter_map(|slot| vfs.read_snapshot(slot).ok().flatten())
            .max_by_key(|(generation, _)| *generation);
        let Some((generation, files)) = best else {
            return Err(VfsError::MetadataCorrupt("no valid metadata snapshot".into()));
        };
        vfs.generation = generation;
        let mut used = Vec::new();
        for f in files {
            used.extend(f.extents.iter().copied());
            vfs.next_id = vfs.next_id.max(f.id + 1);
            vfs.names.insert(f.name.clone(), f.id);
            vfs.files.insert(f.id, f);
        }
        let capacity = vfs.dev.capacity_pages();
        vfs.alloc = ExtentAllocator::rebuild(META_PAGES, capacity, used).ok_or_else(|| {
            VfsError::MetadataCorrupt("file extents overlap or leave the data area".into())
        })?;
        Ok(vfs)
    }

    /// Page size of the underlying device.
    pub fn page_size(&self) -> usize {
        self.dev.page_size()
    }

    /// Immutable access to the device (stats, clock).
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutable access to the device (tests and raw experiments).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Unmount, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// File-system write accounting.
    pub fn stats(&self) -> VfsStats {
        self.stats
    }

    /// Span tracer shared with the device (a no-op handle when the device
    /// was built without tracing). Engines use this to open root spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ----- tracing --------------------------------------------------------

    /// The VFS frame every traced operation runs in: a VFS-layer span
    /// around `body` on the simulated clock, closed with `pages` and the
    /// outcome. The span calls are no-ops unless the device was built with
    /// tracing enabled.
    fn traced<T>(
        &mut self,
        name: &'static str,
        pages: u64,
        body: impl FnOnce(&mut Self) -> Result<T, VfsError>,
    ) -> Result<T, VfsError> {
        let span = self.tracer.begin(Layer::Vfs, name, Track::Vfs, self.dev.clock().now_ns());
        let r = body(self);
        self.tracer.end(span, self.dev.clock().now_ns(), pages, r.is_ok());
        r
    }

    /// Open a root span on the engine track (no-op without tracing).
    /// Engines bracket each public operation with this and
    /// [`Vfs::end_span`].
    pub fn root_span(&self, name: &'static str) -> SpanId {
        self.tracer.begin(Layer::Engine, name, Track::Engine, self.dev.clock().now_ns())
    }

    /// Close a span opened by [`Vfs::root_span`].
    pub fn end_span(&self, id: SpanId, ok: bool) {
        self.tracer.end(id, self.dev.clock().now_ns(), 0, ok);
    }

    // ----- file table -------------------------------------------------

    /// Refuse a name the file table cannot store: empty, or longer than
    /// `MAX_NAME` bytes (the table records a name's length in one byte).
    fn check_name(name: &str) -> Result<(), VfsError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(VfsError::BadName(name.into()));
        }
        Ok(())
    }

    /// Create an empty file.
    pub fn create(&mut self, name: &str) -> Result<FileId, VfsError> {
        Self::check_name(name)?;
        if self.names.contains_key(name) {
            return Err(VfsError::Exists(name.into()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(
            id,
            FileInner { id, name: name.into(), len_pages: 0, extents: Vec::new() },
        );
        self.names.insert(name.into(), id);
        self.meta_dirty = true;
        Ok(FileId(id))
    }

    /// Look up an existing file by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.names.get(name).copied().map(FileId)
    }

    /// Names of all files, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.names.keys().cloned().collect();
        names.sort();
        names
    }

    /// Delete a file, TRIMming and releasing its pages.
    pub fn delete(&mut self, name: &str) -> Result<(), VfsError> {
        self.traced("delete", 0, |fs| {
            let id = fs.names.remove(name).ok_or_else(|| VfsError::NotFound(name.into()))?;
            let file = fs.files.remove(&id).expect("name table out of sync");
            for e in file.extents {
                fs.dev.trim(Lpn(e.start), e.len)?;
                fs.alloc.release(e);
            }
            fs.meta_dirty = true;
            Ok(())
        })
    }

    /// Rename a file (used by compaction to swap the new database in).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), VfsError> {
        self.traced("rename", 0, |fs| {
            Self::check_name(to)?;
            if fs.names.contains_key(to) {
                return Err(VfsError::Exists(to.into()));
            }
            let id = fs.names.remove(from).ok_or_else(|| VfsError::NotFound(from.into()))?;
            fs.names.insert(to.into(), id);
            fs.files.get_mut(&id).expect("name table out of sync").name = to.into();
            fs.meta_dirty = true;
            Ok(())
        })
    }

    fn file(&self, f: FileId) -> Result<&FileInner, VfsError> {
        self.files.get(&f.0).ok_or_else(|| VfsError::NotFound(format!("fd {}", f.0)))
    }

    /// Logical length in pages: one past the highest page written or
    /// remapped into the file, or what `truncate` set. A write
    /// or SHARE past the end grows it in memory only; the durable file table
    /// records it at the next `fsync` that has metadata to persist (see
    /// [`Vfs::fsync`]), so a remount may read a shorter length.
    pub fn len_pages(&self, f: FileId) -> Result<u64, VfsError> {
        Ok(self.file(f)?.len_pages)
    }

    /// Allocated capacity in pages (>= length).
    pub fn allocated_pages(&self, f: FileId) -> Result<u64, VfsError> {
        Ok(self.file(f)?.allocated_pages())
    }

    /// Ensure at least `pages` pages are allocated (the paper's
    /// `fallocate()` used by SHARE-based compaction).
    pub fn fallocate(&mut self, f: FileId, pages: u64) -> Result<(), VfsError> {
        let (allocated, chunk) = {
            let file = self.file(f)?;
            (file.allocated_pages(), self.opts.extent_chunk_pages)
        };
        if pages <= allocated {
            return Ok(());
        }
        let mut need = pages - allocated;
        let file = self.files.get_mut(&f.0).expect("checked above");
        let first_new = file.extents.len();
        while need > 0 {
            let ask = need.max(chunk).min(self.alloc.largest_free());
            if ask == 0 {
                // Roll back partial allocation before reporting failure.
                for e in file.extents.drain(first_new..) {
                    self.alloc.release(e);
                }
                return Err(VfsError::NoSpace { requested_pages: need });
            }
            let e = self.alloc.alloc(ask)?;
            need = need.saturating_sub(e.len);
            file.extents.push(e);
        }
        self.meta_dirty = true;
        Ok(())
    }

    /// Truncate the logical length (allocation is kept).
    pub fn truncate(&mut self, f: FileId, len_pages: u64) -> Result<(), VfsError> {
        let file = self.files.get_mut(&f.0).ok_or_else(|| VfsError::NotFound(format!("fd {}", f.0)))?;
        file.len_pages = len_pages.min(file.allocated_pages());
        self.meta_dirty = true;
        Ok(())
    }

    /// Resolve a file page index to the device LPN backing it.
    pub fn lpn_of(&self, f: FileId, page: u64) -> Result<Lpn, VfsError> {
        let file = self.file(f)?;
        let mut remaining = page;
        for e in &file.extents {
            if remaining < e.len {
                return Ok(Lpn(e.start + remaining));
            }
            remaining -= e.len;
        }
        Err(VfsError::OutOfBounds { file: f.0, page, allocated: file.allocated_pages() })
    }

    // ----- page I/O -----------------------------------------------------

    /// Write one page at index `page`, growing the file as needed
    /// (`O_DIRECT`-style: page-aligned, no cache).
    pub fn write_page(&mut self, f: FileId, page: u64, data: &[u8]) -> Result<(), VfsError> {
        self.traced("write_page", 1, |fs| {
            if data.len() != fs.dev.page_size() {
                return Err(VfsError::BadBufferLength { got: data.len(), want: fs.dev.page_size() });
            }
            if fs.file(f)?.allocated_pages() <= page {
                fs.fallocate(f, page + 1)?;
            }
            let lpn = fs.lpn_of(f, page)?;
            fs.dev.write(lpn, data)?;
            let file = fs.files.get_mut(&f.0).expect("checked above");
            file.len_pages = file.len_pages.max(page + 1);
            fs.data_dirty = true;
            Ok(())
        })
    }

    /// Read one page. Pages past the allocation fail; allocated-but-unwritten
    /// pages read as zeros.
    pub fn read_page(&mut self, f: FileId, page: u64, buf: &mut [u8]) -> Result<(), VfsError> {
        self.traced("read_page", 1, |fs| {
            if buf.len() != fs.dev.page_size() {
                return Err(VfsError::BadBufferLength { got: buf.len(), want: fs.dev.page_size() });
            }
            let lpn = fs.lpn_of(f, page)?;
            fs.dev.read(lpn, buf)?;
            Ok(())
        })
    }

    /// Write several pages of one file as one batched device submission
    /// (programs on distinct channel-ways overlap in simulated time).
    /// Ordinary-write durability semantics — NOT atomic across power loss;
    /// use [`Vfs::write_pages_atomic`] for that.
    pub fn write_pages(&mut self, f: FileId, pages: &[(u64, &[u8])]) -> Result<(), VfsError> {
        self.traced("write_pages", pages.len() as u64, |fs| {
            // Nothing to write is nothing to do: no device command (the
            // queued form differs, see there).
            if pages.is_empty() {
                return Ok(());
            }
            let batch = fs.resolve_write(f, pages)?;
            let written = fs.dev.write_batch(&batch);
            fs.write_batch = recycle_vec(batch);
            written?;
            fs.wrote_through(f, pages);
            Ok(())
        })
    }

    /// The one way a lent page batch becomes a device request, shared by the
    /// blocking, atomic and queued write forms so they cannot drift: check
    /// every buffer's length, grow the allocation when it is short and resolve
    /// each page to its LPN. The request borrows the caller's pages (nothing
    /// is copied) and is the mount's kept vector, which the caller gives back
    /// to `write_batch` once the device has the command;
    /// [`Vfs::wrote_through`] grows the file once the device has accepted it.
    fn resolve_write<'p>(
        &mut self,
        f: FileId,
        pages: &[(u64, &'p [u8])],
    ) -> Result<Vec<(Lpn, &'p [u8])>, VfsError> {
        let ps = self.dev.page_size();
        if let Some((_, data)) = pages.iter().find(|(_, data)| data.len() != ps) {
            return Err(VfsError::BadBufferLength { got: data.len(), want: ps });
        }
        let end = Self::end_page(pages);
        if self.file(f)?.allocated_pages() < end {
            self.fallocate(f, end)?;
        }
        let mut batch = recycle_vec(std::mem::take(&mut self.write_batch));
        for (p, data) in pages {
            batch.push((self.lpn_of(f, *p)?, *data));
        }
        Ok(batch)
    }

    /// The file length a write of `pages` reaches.
    fn end_page(pages: &[(u64, &[u8])]) -> u64 {
        pages.iter().map(|(p, _)| p + 1).max().unwrap_or(0)
    }

    /// Record that the device accepted a write of `pages` to `f`.
    fn wrote_through(&mut self, f: FileId, pages: &[(u64, &[u8])]) {
        let file = self.files.get_mut(&f.0).expect("resolved by resolve_write");
        file.len_pages = file.len_pages.max(Self::end_page(pages));
        self.data_dirty = true;
    }

    /// Read several pages of one file as one batched device submission.
    pub fn read_pages(
        &mut self,
        f: FileId,
        reqs: &mut [(u64, &mut [u8])],
    ) -> Result<(), VfsError> {
        self.traced("read_pages", reqs.len() as u64, |fs| {
            let ps = fs.dev.page_size();
            for (_, buf) in reqs.iter() {
                if buf.len() != ps {
                    return Err(VfsError::BadBufferLength { got: buf.len(), want: ps });
                }
            }
            let mut batch: Vec<(Lpn, &mut [u8])> = recycle_vec(std::mem::take(&mut fs.read_batch));
            for (p, buf) in reqs.iter_mut() {
                let lpn = fs.lpn_of(f, *p)?;
                batch.push((lpn, &mut buf[..]));
            }
            let read = fs.dev.read_batch(&mut batch);
            fs.read_batch = recycle_vec(batch);
            read?;
            Ok(())
        })
    }

    /// TRIM a page range of a file (used by recovery truncation: stale
    /// blocks past a recovered tail must not masquerade as fresh data, and by
    /// a SHARE commit for the copies it remapped): one device command per
    /// extent crossed — a run of LPNs — and none if the range leaves the file.
    pub fn trim_range(&mut self, f: FileId, from_page: u64, to_page: u64) -> Result<(), VfsError> {
        self.traced("trim_range", to_page.saturating_sub(from_page), |fs| {
            if from_page < to_page {
                fs.lpn_of(f, to_page - 1)?;
            }
            let mut p = from_page;
            while p < to_page {
                let run = fs.extent_run(f, p)?.min(to_page - p);
                fs.dev.trim(fs.lpn_of(f, p)?, run)?;
                p += run;
            }
            Ok(())
        })
    }

    /// Pages remaining in the extent holding `page` (contiguous LPN run).
    fn extent_run(&self, f: FileId, page: u64) -> Result<u64, VfsError> {
        let file = self.file(f)?;
        let mut remaining = page;
        for e in &file.extents {
            if remaining < e.len {
                return Ok(e.len - remaining);
            }
            remaining -= e.len;
        }
        Err(VfsError::OutOfBounds { file: f.0, page, allocated: file.allocated_pages() })
    }

    /// fsync: persist metadata if dirty, charge ordered-journal traffic,
    /// then flush the device. The flush makes the whole mount durable, not
    /// only the file named.
    ///
    /// `fdatasync` semantics for the file length: the file table is
    /// rewritten only after a metadata change — create, delete, rename,
    /// `fallocate` that allocates, `truncate` — and a write or
    /// SHARE that only moves the length past the end is not one. The data
    /// it wrote is durable after this call; the longer length is durable
    /// after the next fsync that persists metadata. No engine reads the
    /// length: each finds its end in its own pages.
    pub fn fsync(&mut self, _f: FileId) -> Result<(), VfsError> {
        self.traced("fsync", 0, |fs| {
            if fs.meta_dirty {
                fs.write_snapshot()?;
            }
            if fs.opts.journal_pages_per_commit > 0 && fs.data_dirty {
                fs.write_journal_commit()?;
            }
            fs.data_dirty = false;
            fs.dev.flush()?;
            Ok(())
        })
    }

    // ----- queued I/O ----------------------------------------------------

    /// Whether the mounted device supports queued submission.
    pub fn supports_queue(&self) -> bool {
        self.dev.supports_queue()
    }

    /// Commands submitted through this mount but not yet reaped.
    pub fn inflight(&self) -> usize {
        self.dev.inflight()
    }

    /// The device's configured submission-queue depth (0 if unsupported).
    pub fn queue_depth(&self) -> usize {
        self.dev.queue_depth()
    }

    /// Submit several pages of one file as one queued write command and
    /// return its tag without waiting. File metadata grows immediately
    /// (matching the device's eager state execution); the completion —
    /// and the simulated-time cost — surfaces via [`Vfs::reap_queue`] or
    /// [`Vfs::drain_queue`]. Ordinary-write durability semantics, same as
    /// [`Vfs::write_pages`].
    ///
    /// The command borrows `pages` for the length of the call only: the
    /// device executes a queued command's state at submission, so nothing
    /// is copied above the medium and the caller may reuse its buffers as
    /// soon as this returns. An empty `pages` is still submitted (where
    /// [`Vfs::write_pages`] returns early): the caller was promised a tag
    /// to reap.
    ///
    /// Queue-full back-pressure: when the device rejects the submission
    /// with `QueueFull` (commands already in flight hold every slot), reap
    /// completions to free slots and retry. Completion errors reaped while
    /// waiting propagate — a failed earlier write must not be silently
    /// absorbed by the retry loop. Reaped read payloads are dropped, so
    /// only use this on paths with no outstanding reads of their own;
    /// read-heavy callers want [`Vfs::submit_read_pages`]'s completion
    /// hand-back.
    pub fn submit_write_pages_retry(
        &mut self,
        f: FileId,
        pages: &[(u64, &[u8])],
    ) -> Result<CmdTag, VfsError> {
        // Resolved once: every retry lends the same request again.
        let batch = self.resolve_write(f, pages)?;
        let submitted = loop {
            match self.dev.submit(QueuedCmd::WriteBatch { pages: &batch }) {
                Ok(tag) => {
                    // File metadata grows only once the device has taken
                    // the command.
                    self.wrote_through(f, pages);
                    break Ok(tag);
                }
                Err(share_core::FtlError::QueueFull { depth }) => {
                    let reaped = self.reap_queue();
                    if reaped.is_empty() {
                        // Nothing in flight to wait for, yet the queue is
                        // full: retrying cannot make progress.
                        break Err(VfsError::Device(share_core::FtlError::QueueFull { depth }));
                    }
                    if let Some(e) = reaped.into_iter().find_map(|c| c.result.err()) {
                        break Err(VfsError::Device(e));
                    }
                }
                Err(e) => break Err(e.into()),
            }
        };
        self.write_batch = recycle_vec(batch);
        submitted
    }

    /// Submit a batched read of `pages` of one file into `buf`, which the
    /// device sizes to the request (its old length and bytes do not
    /// matter); the completion hands it back carrying the page payloads in
    /// request order, back to back. A buffer of that capacity costs the
    /// read no heap.
    ///
    /// Queue-full back-pressure: on `QueueFull`, reap completions into
    /// `reaped` and retry. The caller owns the handed-back completions —
    /// they may carry payloads and per-command results of its own earlier
    /// submissions, so they are returned unchecked rather than consumed
    /// here. A refused submission drops `buf`: the retry reads into a fresh
    /// buffer.
    pub fn submit_read_pages(
        &mut self,
        f: FileId,
        pages: &[u64],
        buf: Vec<u8>,
        reaped: &mut Vec<Completion>,
    ) -> Result<CmdTag, VfsError> {
        // Resolved once: every retry lends the same request again.
        let mut lpns = std::mem::take(&mut self.read_lpns);
        lpns.clear();
        for &p in pages {
            lpns.push(self.lpn_of(f, p)?);
        }
        let mut buf = Some(buf);
        let submitted = loop {
            let buf = buf.take().unwrap_or_default();
            match self.dev.submit(QueuedCmd::ReadBatch { lpns: &lpns, buf }) {
                Ok(tag) => break Ok(tag),
                Err(share_core::FtlError::QueueFull { depth }) => {
                    let got = self.reap_queue();
                    if got.is_empty() {
                        break Err(VfsError::Device(share_core::FtlError::QueueFull { depth }));
                    }
                    reaped.extend(got);
                }
                Err(e) => break Err(e.into()),
            }
        };
        self.read_lpns = lpns;
        submitted
    }

    /// Wait for at least one outstanding command and reap everything due.
    pub fn reap_queue(&mut self) -> Vec<Completion> {
        self.dev.reap()
    }

    /// Wait for every outstanding command. Engines call this before an
    /// ordering point (fsync, journal commit) so queued data writes are
    /// on the medium before the barrier is charged.
    pub fn drain_queue(&mut self) -> Vec<Completion> {
        self.dev.drain()
    }

    /// Write a page batch, queued when the device supports asynchronous
    /// submission so the pages overlap across NAND channels and with later
    /// submissions; [`Vfs::barrier`] must run before any ordering point.
    pub fn write_pages_overlapped(
        &mut self,
        f: FileId,
        batch: &[(u64, &[u8])],
    ) -> Result<(), VfsError> {
        if self.supports_queue() && batch.len() > 1 {
            // The mount's own un-reaped submissions can fill the queue at
            // commit time; the retry variant reaps completions and
            // resubmits instead of failing the commit with `QueueFull`.
            self.submit_write_pages_retry(f, batch)?;
        } else {
            self.write_pages(f, batch)?;
        }
        Ok(())
    }

    /// Reap every in-flight queued write, surfacing the first device
    /// error. Required before fsync / SHARE / read ordering points.
    pub fn barrier(&mut self) -> Result<(), VfsError> {
        if self.supports_queue() && self.inflight() > 0 {
            for c in self.drain_queue() {
                c.result.map_err(VfsError::Device)?;
            }
        }
        Ok(())
    }

    // ----- SHARE ioctl ---------------------------------------------------

    /// Whether the mounted device supports SHARE.
    pub fn supports_share(&self) -> bool {
        self.dev.supports_share()
    }

    /// Largest atomic SHARE batch of the device.
    pub fn share_batch_limit(&self) -> usize {
        self.dev.share_batch_limit()
    }

    /// Largest atomic-write batch of the device (pages).
    pub fn atomic_write_limit(&self) -> usize {
        self.dev.write_atomic_limit()
    }

    /// Write several pages of one file atomically (all-or-nothing across
    /// power loss) — the §6.1 related-work primitive.
    pub fn write_pages_atomic(
        &mut self,
        f: FileId,
        pages: &[(u64, &[u8])],
    ) -> Result<(), VfsError> {
        self.traced("write_pages_atomic", pages.len() as u64, |fs| {
            let batch = fs.resolve_write(f, pages)?;
            let written = fs.dev.write_atomic(&batch);
            fs.write_batch = recycle_vec(batch);
            written?;
            fs.wrote_through(f, pages);
            Ok(())
        })
    }

    /// One atomic SHARE batch: remap `npages` pages of `dst` starting at
    /// `dst_page` onto the physical pages of `src` starting at `src_page`.
    /// Fails without side effects if the batch exceeds the device limit.
    pub fn ioctl_share(
        &mut self,
        dst: FileId,
        dst_page: u64,
        src: FileId,
        src_page: u64,
        npages: u64,
    ) -> Result<(), VfsError> {
        self.traced("ioctl_share", npages, |fs| {
            let mut pairs = Vec::with_capacity(npages as usize);
            for i in 0..npages {
                let (d, s) = (fs.lpn_of(dst, dst_page + i)?, fs.lpn_of(src, src_page + i)?);
                pairs.push(SharePair::new(d, s));
            }
            // The destination range now logically holds data.
            fs.dev.share(&pairs)?;
            let file = fs.files.get_mut(&dst.0).expect("resolved above");
            file.len_pages = file.len_pages.max(dst_page + npages);
            Ok(())
        })
    }

    /// Arbitrary pairs of (dst page, src page) across two files, chunked
    /// into device-sized atomic batches (used by zero-copy compaction,
    /// where per-batch atomicity suffices).
    pub fn ioctl_share_pairs(
        &mut self,
        dst: FileId,
        src: FileId,
        pairs: &[(u64, u64)],
    ) -> Result<(), VfsError> {
        self.traced("ioctl_share_pairs", pairs.len() as u64, |fs| {
            let mut max_dst = 0;
            let mut batch = std::mem::take(&mut fs.share_pairs);
            batch.clear();
            for &(d, s) in pairs {
                batch.push(SharePair::new(fs.lpn_of(dst, d)?, fs.lpn_of(src, s)?));
                max_dst = max_dst.max(d + 1);
            }
            // One device command; the device commits it in log-page-sized
            // atomic sub-batches (per-batch atomicity suffices here).
            let shared = fs.dev.share_batch(&batch);
            fs.share_pairs = batch;
            shared?;
            let file = fs.files.get_mut(&dst.0).expect("resolved above");
            file.len_pages = file.len_pages.max(max_dst);
            Ok(())
        })
    }

    /// [`Vfs::ioctl_share_pairs`] cut only between atomic units — an engine
    /// page's pairs, or one document's. `ends` gives, in order, the index in
    /// `pairs` one past each unit, the last one `pairs.len()`. Each greedy
    /// run of whole units that fits [`Vfs::share_batch_limit`] goes out as one
    /// command, so no unit straddles two. A unit wider than the limit fails
    /// with `BatchTooLarge` before a command carries it; commands already
    /// sent stay committed, as when a command fails.
    pub fn ioctl_share_units(
        &mut self,
        dst: FileId,
        src: FileId,
        pairs: &[(u64, u64)],
        ends: impl IntoIterator<Item = usize>,
    ) -> Result<(), VfsError> {
        let limit = self.share_batch_limit();
        let (mut cut, mut start) = (0, 0);
        for end in ends {
            if end - start > limit {
                return Err(FtlError::BatchTooLarge { got: end - start, max: limit }.into());
            }
            if end - cut > limit {
                self.ioctl_share_pairs(dst, src, &pairs[cut..start])?;
                cut = start;
            }
            start = end;
        }
        if cut < pairs.len() {
            self.ioctl_share_pairs(dst, src, &pairs[cut..])?;
        }
        Ok(())
    }

    /// Clone the first `pages` pages of `src` into a new file `dst_name`
    /// without copying data — the paper's "file copy almost without copying
    /// data": create the file, `fallocate` it, and remap every page onto the
    /// source's physical page with one [`Vfs::ioctl_share_pairs`]. Every page
    /// must have been written: the device refuses an unmapped source with
    /// `SrcUnmapped`. Later writes to either file go out of place, so the
    /// clone keeps what it was given. On error the half-made file is
    /// deleted; the clone is durable after the caller's `fsync` of it.
    pub fn clone_file(
        &mut self,
        src: FileId,
        pages: u64,
        dst_name: &str,
    ) -> Result<FileId, VfsError> {
        self.traced("clone_file", pages, |fs| {
            let dst = fs.create(dst_name)?;
            let pairs: Vec<(u64, u64)> = (0..pages).map(|p| (p, p)).collect();
            let r = fs.fallocate(dst, pages).and_then(|()| fs.ioctl_share_pairs(dst, src, &pairs));
            if let Err(e) = r {
                let _ = fs.delete(dst_name);
                return Err(e);
            }
            Ok(dst)
        })
    }

    // ----- metadata persistence -------------------------------------------

    fn encode_files(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut ids: Vec<&FileInner> = self.files.values().collect();
        ids.sort_by_key(|f| f.id);
        buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.next_id.to_le_bytes());
        for f in ids {
            buf.extend_from_slice(&f.id.to_le_bytes());
            buf.push(f.name.len() as u8);
            buf.extend_from_slice(f.name.as_bytes());
            buf.extend_from_slice(&f.len_pages.to_le_bytes());
            buf.extend_from_slice(&(f.extents.len() as u32).to_le_bytes());
            for e in &f.extents {
                buf.extend_from_slice(&e.start.to_le_bytes());
                buf.extend_from_slice(&e.len.to_le_bytes());
            }
        }
        buf
    }

    fn decode_files(payload: &[u8]) -> Result<(u32, Vec<FileInner>), VfsError> {
        let corrupt = |m: &str| VfsError::MetadataCorrupt(m.into());
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], VfsError> {
            let s = payload.get(*off..*off + n).ok_or_else(|| corrupt("truncated"))?;
            *off += n;
            Ok(s)
        };
        // Counts come from the medium: a CRC-valid table may still claim more
        // records than its payload holds, so no count sizes an allocation
        // before the bytes it claims are known to be there.
        let fits = |off: usize, n: u32, record: usize| n as usize <= (payload.len() - off) / record;
        let count = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
        let next_id = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
        if !fits(off, count, FILE_RECORD_MIN) {
            return Err(corrupt("file count exceeds the table"));
        }
        let mut files = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let id = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
            let name_len = take(&mut off, 1)?[0] as usize;
            let name = String::from_utf8(take(&mut off, name_len)?.to_vec())
                .map_err(|_| corrupt("bad name"))?;
            let len_pages = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
            let n_ext = u32::from_le_bytes(take(&mut off, 4)?.try_into().unwrap());
            if !fits(off, n_ext, EXTENT_RECORD) {
                return Err(corrupt("extent count exceeds the table"));
            }
            let mut extents = Vec::with_capacity(n_ext as usize);
            for _ in 0..n_ext {
                let start = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
                let len = u64::from_le_bytes(take(&mut off, 8)?.try_into().unwrap());
                extents.push(Extent { start, len });
            }
            files.push(FileInner { id, name, len_pages, extents });
        }
        Ok((next_id, files))
    }

    fn write_snapshot(&mut self) -> Result<(), VfsError> {
        let payload = self.encode_files();
        let ps = self.dev.page_size();
        let slot_bytes = (META_SLOT_PAGES as usize) * ps;
        if 32 + payload.len() > slot_bytes {
            return Err(VfsError::MetadataOverflow {
                need_bytes: 32 + payload.len(),
                have_bytes: slot_bytes,
            });
        }
        self.generation += 1;
        let slot = self.generation % 2;
        let base = slot * META_SLOT_PAGES;
        let pages = (32 + payload.len()).div_ceil(ps) as u64;
        let mut image = vec![0u8; (pages as usize) * ps];
        image[0..4].copy_from_slice(&META_MAGIC.to_le_bytes());
        image[4..12].copy_from_slice(&self.generation.to_le_bytes());
        image[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        image[16..20].copy_from_slice(&crc32c(&payload).to_le_bytes());
        image[32..32 + payload.len()].copy_from_slice(&payload);
        let batch: Vec<(Lpn, &[u8])> = (0..pages)
            .map(|p| {
                let s = (p as usize) * ps;
                (Lpn(base + p), &image[s..s + ps])
            })
            .collect();
        self.dev.write_batch(&batch)?;
        self.meta_dirty = false;
        self.stats.snapshots += 1;
        self.stats.snapshot_pages += pages;
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn read_snapshot(&mut self, slot: u64) -> Result<Option<(u64, Vec<FileInner>)>, VfsError> {
        let ps = self.dev.page_size();
        let base = slot * META_SLOT_PAGES;
        let mut page = vec![0u8; ps];
        self.dev.read(Lpn(base), &mut page)?;
        if u32::from_le_bytes(page[0..4].try_into().unwrap()) != META_MAGIC {
            return Ok(None);
        }
        let generation = u64::from_le_bytes(page[4..12].try_into().unwrap());
        let len = u32::from_le_bytes(page[12..16].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(page[16..20].try_into().unwrap());
        if 32 + len > (META_SLOT_PAGES as usize) * ps {
            return Ok(None);
        }
        let pages = (32 + len).div_ceil(ps) as u64;
        let mut image = vec![0u8; (pages as usize) * ps];
        image[..ps].copy_from_slice(&page);
        for p in 1..pages {
            let s = (p as usize) * ps;
            self.dev.read(Lpn(base + p), &mut image[s..s + ps])?;
        }
        let payload = &image[32..32 + len];
        if crc32c(payload) != crc {
            return Ok(None);
        }
        let (next_id, files) = Self::decode_files(payload)?;
        let _ = next_id; // next_id is also derivable; kept for format stability
        Ok(Some((generation, files)))
    }

    fn write_journal_commit(&mut self) -> Result<(), VfsError> {
        let ps = self.dev.page_size();
        let ring_base = 2 * META_SLOT_PAGES;
        self.journal_page.resize(ps, 0xEE);
        for _ in 0..self.opts.journal_pages_per_commit {
            let lpn = ring_base + (self.journal_cursor % JOURNAL_RING_PAGES);
            self.journal_cursor += 1;
            self.dev.write(Lpn(lpn), &self.journal_page)?;
            self.stats.journal_pages += 1;
        }
        self.stats.journal_commits += 1;
        Ok(())
    }
}
