//! The append-only document store (couchstore-like engine).
//!
//! Updates append new document copies at the file tail; commits fsync every
//! `batch_size` updates. What happens to the **index** is the experimental
//! axis of the paper's §5.3.2:
//!
//! * [`CouchMode::Original`] — copy-on-write wandering tree: each commit
//!   rewrites every tree node on the path from touched leaves to the root
//!   and appends a new header (Figure 1(b)).
//! * [`CouchMode::Share`] — an update's new copy is SHARE-remapped onto the
//!   old document's blocks, so the tree (and header) need not change at
//!   all; only inserts and deletes fall back to the tree path.

use crate::format::{
    decode_doc_payload, decode_header, decode_node, doc_blocks, encode_doc, encode_header,
    encode_node, node_capacity, DocPtr, Header, NodeEntry,
};
use crate::CouchError;
use share_core::{recycle_vec, BlockDevice, CmdTag, Completion};
use share_vfs::{FileId, Vfs, VfsError};
use std::collections::{BTreeMap, HashMap};

/// Sentinel for "no root".
pub const NO_ROOT: u64 = u64::MAX;

/// Document buffers [`CouchStore::get_many`] keeps for its next reads: one
/// per connection of a round.
const SPARE_DOCS: usize = 16;

/// Index-maintenance strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouchMode {
    /// Copy-on-write wandering tree (stock couchstore behaviour).
    Original,
    /// SHARE-remap updates in place of the index cascade.
    Share,
}

impl CouchMode {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CouchMode::Original => "Original",
            CouchMode::Share => "SHARE",
        }
    }
}

/// Store configuration.
#[derive(Debug, Clone)]
pub struct CouchConfig {
    /// Index strategy.
    pub mode: CouchMode,
    /// Updates per fsync (the paper's `batch-size` knob, 1..256).
    pub batch_size: usize,
    /// Max entries per tree node (drives tree height).
    pub node_max_entries: usize,
}

impl Default for CouchConfig {
    fn default() -> Self {
        Self {
            mode: CouchMode::Original,
            batch_size: 1,
            node_max_entries: 100,
        }
    }
}

/// Engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CouchStats {
    /// Commits (fsync boundaries).
    pub commits: u64,
    /// Document blocks appended.
    pub doc_blocks_appended: u64,
    /// Tree node blocks appended (the wandering-tree cost).
    pub node_blocks_appended: u64,
    /// Header blocks appended.
    pub header_blocks_appended: u64,
    /// Documents remapped via SHARE instead of a tree update.
    pub share_remaps: u64,
    /// Updates that had to fall back to the tree path in SHARE mode
    /// (size change, new key, or rev-map pressure).
    pub share_fallbacks: u64,
    /// Compactions performed.
    pub compactions: u64,
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Insert/replace; the `u64` is the cross-index coordinate (seq for
    /// by-id updates, doc key for by-seq updates).
    Put(DocPtr, u64),
    Delete,
}

/// What [`CouchStore::get_many`] keeps between calls, so that a warm call
/// requests no heap per document: the result it returns, refilled in place,
/// the document buffers of the results before it, lent to the next reads,
/// and its request vectors.
#[derive(Default)]
struct ManyReads {
    /// The last call's documents, one slot per key.
    docs: Vec<Option<Vec<u8>>>,
    /// Emptied document buffers, at most [`SPARE_DOCS`].
    spare: Vec<Vec<u8>>,
    /// Each key's current pointer.
    ptrs: Vec<Option<DocPtr>>,
    /// Each submitted read: its key's slot, its tag and the pointer read.
    tags: Vec<(usize, CmdTag, DocPtr)>,
    /// One document's blocks.
    pages: Vec<u64>,
    /// Completions reaped while the queue was full.
    reaped: Vec<Completion>,
}

impl ManyReads {
    /// Start a call: the last call's documents go onto the spare stack and
    /// every vector is emptied, so no slot can keep an earlier document.
    fn reset(&mut self) {
        for doc in self.docs.drain(..).flatten() {
            if self.spare.len() < SPARE_DOCS {
                self.spare.push(doc);
            }
        }
        self.ptrs.clear();
        self.tags.clear();
        self.reaped.clear();
    }
}

/// The document store over a [`Vfs`].
pub struct CouchStore<D: BlockDevice> {
    pub(crate) fs: Vfs<D>,
    pub(crate) file: FileId,
    pub(crate) name: String,
    pub(crate) cfg: CouchConfig,
    pub(crate) tail: u64,
    pub(crate) root: u64,
    pub(crate) root_level: u8,
    pub(crate) seq_root: u64,
    pub(crate) seq_root_level: u8,
    pub(crate) next_seq: u64,
    pub(crate) hdr_seq: u64,
    pub(crate) doc_count: u64,
    pub(crate) stale_blocks: u64,
    next_rev: u64,
    pending: BTreeMap<u64, Pending>,
    /// By-seq index changes awaiting commit (key = sequence number).
    pending_seq: BTreeMap<u64, Pending>,
    /// Same-size updates awaiting a SHARE remap at commit, in key order:
    /// (key, old location, newest appended copy). Re-updates of a key within
    /// one batch coalesce here (last writer wins; earlier copies go stale).
    /// A sorted vector, not a map, so each batch refills the capacity the
    /// commit before it emptied.
    pending_shares: Vec<(u64, DocPtr, DocPtr)>,
    /// A commit's remap pairs, (old block, new block), refilled by each.
    share_pairs: Vec<(u64, u64)>,
    ops_since_commit: usize,
    /// Decoded tree nodes by block. Nodes are immutable once written; the
    /// cache owns them and lends them out ([`CouchStore::node`]).
    pub(crate) node_cache: HashMap<u64, (u8, Vec<NodeEntry>)>,
    /// Every block image this store writes is encoded here and lent to the
    /// file system; node reads on a cache miss land here too.
    scratch: Vec<u8>,
    /// A document's write request, lending the scratch's blocks; kept empty
    /// between documents ([`recycle_vec`]).
    doc_writes: Vec<(u64, &'static [u8])>,
    many: ManyReads,
    pub(crate) stats: CouchStats,
}

impl<D: BlockDevice> CouchStore<D> {
    /// Create a fresh database file `name` on `fs`.
    pub fn create(mut fs: Vfs<D>, name: &str, cfg: CouchConfig) -> Result<Self, CouchError> {
        assert!(cfg.batch_size >= 1);
        assert!(cfg.node_max_entries >= 4);
        assert!(cfg.node_max_entries <= node_capacity(fs.page_size()));
        let file = fs.create(name)?;
        let mut store = Self {
            fs,
            file,
            name: name.to_string(),
            cfg,
            tail: 0,
            root: NO_ROOT,
            root_level: 0,
            seq_root: NO_ROOT,
            seq_root_level: 0,
            next_seq: 1,
            hdr_seq: 0,
            doc_count: 0,
            stale_blocks: 0,
            next_rev: 1,
            pending: BTreeMap::new(),
            pending_seq: BTreeMap::new(),
            pending_shares: Vec::new(),
            share_pairs: Vec::new(),
            ops_since_commit: 0,
            node_cache: HashMap::new(),
            scratch: Vec::new(),
            doc_writes: Vec::new(),
            many: ManyReads::default(),
            stats: CouchStats::default(),
        };
        store.write_at_tail(Self::encode_header_at_tail)?;
        store.fs.fsync(store.file)?;
        Ok(store)
    }

    /// Open an existing database: scan backward for the last intact header
    /// (uncommitted tail appends are discarded, as couchstore does). A
    /// leftover partial compaction file is deleted and compaction restarts
    /// from scratch — the paper's §4.3 recovery rule. One that holds its
    /// header is no longer partial: everything is in it, and the power cut may
    /// have found the old file half trimmed, so that compaction is finished.
    pub fn open(mut fs: Vfs<D>, name: &str, cfg: CouchConfig) -> Result<Self, CouchError> {
        let compact_name = format!("{name}.compact");
        if let Some(compacted) = fs.lookup(&compact_name) {
            if Self::last_header(&mut fs, compacted)?.is_none() {
                fs.delete(&compact_name)?;
            } else {
                if fs.lookup(name).is_some() {
                    fs.delete(name)?;
                }
                fs.rename(&compact_name, name)?;
            }
        }
        let file = fs
            .lookup(name)
            .ok_or_else(|| CouchError::Corrupt(format!("no database file {name}")))?;
        // Scan the whole *allocated* region: appends within an already
        // allocated extent do not persist a new file length, so the last
        // header can sit past the recorded length. Unwritten pages read as
        // zeros and fail the header check harmlessly.
        let len = fs.allocated_pages(file)?;
        let (pos, h) = Self::last_header(&mut fs, file)?
            .ok_or_else(|| CouchError::Corrupt("no valid header found".to_string()))?;
        // Truncate everything past the recovered header: future appends
        // overwrite that region, and stale blocks (including stale headers
        // from a discarded generation) must not be mistaken for fresh data
        // at the next recovery.
        fs.trim_range(file, pos + 1, len)?;
        fs.truncate(file, pos + 1)?;
        fs.fsync(file)?;
        Ok(Self {
            fs,
            file,
            name: name.to_string(),
            cfg,
            tail: pos + 1,
            root: h.root,
            root_level: h.root_level,
            seq_root: h.seq_root,
            seq_root_level: h.seq_root_level,
            next_seq: h.next_seq.max(1),
            hdr_seq: h.seq,
            doc_count: h.doc_count,
            stale_blocks: h.stale_blocks,
            next_rev: h.seq + 1,
            pending: BTreeMap::new(),
            pending_seq: BTreeMap::new(),
            pending_shares: Vec::new(),
            share_pairs: Vec::new(),
            ops_since_commit: 0,
            node_cache: HashMap::new(),
            scratch: Vec::new(),
            doc_writes: Vec::new(),
            many: ManyReads::default(),
            stats: CouchStats::default(),
        })
    }

    /// The last intact header in `file`'s allocated region, and its block.
    fn last_header(fs: &mut Vfs<D>, file: FileId) -> Result<Option<(u64, Header)>, CouchError> {
        let mut buf = vec![0u8; fs.page_size()];
        for i in (0..fs.allocated_pages(file)?).rev() {
            fs.read_page(file, i, &mut buf)?;
            if let Some(h) = decode_header(&buf) {
                return Ok(Some((i, h)));
            }
        }
        Ok(None)
    }

    /// Engine counters.
    pub fn stats(&self) -> CouchStats {
        self.stats
    }

    /// Live document count.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Current file length in blocks.
    pub fn file_blocks(&self) -> u64 {
        self.tail
    }

    /// Fraction of the file occupied by stale blocks.
    pub fn stale_ratio(&self) -> f64 {
        if self.tail == 0 {
            0.0
        } else {
            self.stale_blocks as f64 / self.tail as f64
        }
    }

    /// Access the underlying file system (stats, fault injection).
    pub fn fs_mut(&mut self) -> &mut Vfs<D> {
        &mut self.fs
    }

    /// Device statistics.
    pub fn device_stats(&self) -> share_core::DeviceStats {
        self.fs.device().stats()
    }

    /// The simulated clock.
    pub fn clock(&self) -> nand_sim::SimClock {
        self.fs.device().clock().clone()
    }

    /// Tear down, returning the file system.
    pub fn into_fs(self) -> Vfs<D> {
        self.fs
    }

    // ----- node I/O ---------------------------------------------------------

    /// The tree node at block `ptr`, lent from the cache (read and decoded
    /// into it on a miss).
    pub(crate) fn node(&mut self, ptr: u64) -> Result<&(u8, Vec<NodeEntry>), CouchError> {
        if !self.node_cache.contains_key(&ptr) {
            self.scratch.resize(self.fs.page_size(), 0);
            self.fs.read_page(self.file, ptr, &mut self.scratch)?;
            let node = decode_node(&self.scratch)
                .ok_or_else(|| CouchError::Corrupt(format!("bad node block at {ptr}")))?;
            // Immutable once written: cache freely, with a crude size cap.
            if self.node_cache.len() > 200_000 {
                self.node_cache.clear();
            }
            self.node_cache.insert(ptr, node);
        }
        Ok(&self.node_cache[&ptr])
    }

    /// Encode `entries` into `img` as the node block at the tail, cache and
    /// count it. Writing `img` there is the caller's: a commit writes node by
    /// node ([`CouchStore::append_node`]), a compaction one submission.
    pub(crate) fn encode_node_at_tail(&mut self, level: u8, entries: Vec<NodeEntry>, img: &mut [u8]) -> u64 {
        encode_node(level, &entries, img);
        self.stats.node_blocks_appended += 1;
        self.node_cache.insert(self.tail, (level, entries));
        self.tail += 1;
        self.tail - 1
    }

    /// The same for the next header: encoded at the tail and counted, not written.
    pub(crate) fn encode_header_at_tail(&mut self, img: &mut [u8]) -> u64 {
        self.hdr_seq += 1;
        let h = Header {
            seq: self.hdr_seq,
            root: self.root,
            root_level: self.root_level,
            seq_root: self.seq_root,
            seq_root_level: self.seq_root_level,
            next_seq: self.next_seq,
            doc_count: self.doc_count,
            tail: self.tail + 1,
            stale_blocks: self.stale_blocks,
        };
        encode_header(&h, img);
        self.stats.header_blocks_appended += 1;
        self.tail += 1;
        self.tail - 1
    }

    /// Encode one block at the tail into the scratch and write it.
    fn write_at_tail(&mut self, encode: impl FnOnce(&mut Self, &mut [u8]) -> u64) -> Result<u64, CouchError> {
        let mut img = std::mem::take(&mut self.scratch);
        img.resize(self.fs.page_size(), 0);
        let ptr = encode(self, &mut img);
        let written = self.fs.write_page(self.file, ptr, &img);
        self.scratch = img;
        Ok(written.map(|()| ptr)?)
    }

    fn append_node(&mut self, level: u8, entries: Vec<NodeEntry>) -> Result<u64, CouchError> {
        self.write_at_tail(|s, img| s.encode_node_at_tail(level, entries, img))
    }

    // ----- document I/O ------------------------------------------------------

    /// Append a document's blocks at the tail: one batched submission when
    /// blocking, one *queued* command when `queued` (the caller drains the
    /// file system's queue before any ordering point). The images are lent
    /// from the scratch either way: the device executes a queued command at
    /// submission, so the scratch is free for the next document on return.
    fn append_doc_with(&mut self, key: u64, payload: &[u8], queued: bool) -> Result<DocPtr, CouchError> {
        let bs = self.fs.page_size();
        let rev = self.next_rev;
        self.next_rev += 1;
        encode_doc(key, rev, payload, bs, &mut self.scratch);
        let tail = self.tail;
        let nblocks = self.scratch.len() / bs;
        // Submission order is not file order: the device stripes a batch over
        // its lanes as submitted, and documents of as many blocks as it has
        // channels would put every head — all a compaction reads — on one lane.
        // So each starts a block later than the one before (any part may
        // survive a power cut, as before: unreferenced until its commit).
        let first = (rev % nblocks as u64) as usize;
        let mut batch: Vec<(u64, &[u8])> = recycle_vec(std::mem::take(&mut self.doc_writes));
        for i in (first..nblocks).chain(0..first) {
            batch.push((tail + i as u64, &self.scratch[i * bs..(i + 1) * bs]));
        }
        let written = if queued {
            // Retry through shared-queue saturation: only writes are in
            // flight on the save path, so reaped completions carry no
            // payloads this store still needs.
            self.fs.submit_write_pages_retry(self.file, &batch).map(drop)
        } else {
            self.fs.write_pages(self.file, &batch)
        };
        self.doc_writes = recycle_vec(batch);
        written?;
        self.tail += nblocks as u64;
        self.stats.doc_blocks_appended += nblocks as u64;
        Ok(DocPtr { block: tail, nblocks: nblocks as u16, len: payload.len() as u32 })
    }

    /// Read a document's blocks into one buffer, which reassembly turns into
    /// the document.
    pub(crate) fn read_doc(&mut self, ptr: DocPtr) -> Result<Vec<u8>, CouchError> {
        let bs = self.fs.page_size();
        let mut blocks = vec![0u8; ptr.nblocks as usize * bs];
        {
            let mut reqs: Vec<(u64, &mut [u8])> = blocks
                .chunks_exact_mut(bs)
                .enumerate()
                .map(|(i, b)| (ptr.block + i as u64, b))
                .collect();
            self.fs.read_pages(self.file, &mut reqs)?;
        }
        decode_doc_payload(ptr, blocks, bs)
    }

    /// Find a leaf entry in the tree rooted at `(root, level)`.
    fn lookup_in(&mut self, root: u64, level: u8, key: u64) -> Result<Option<NodeEntry>, CouchError> {
        if root == NO_ROOT {
            return Ok(None);
        }
        let mut ptr = root;
        let mut level = level;
        loop {
            let (_, entries) = self.node(ptr)?;
            if level == 0 {
                return Ok(entries.binary_search_by(|e| e.key.cmp(&key)).ok().map(|i| entries[i]));
            }
            let idx = match entries.binary_search_by(|e| e.key.cmp(&key)) {
                Ok(i) => i,
                Err(0) => return Ok(None),
                Err(i) => i - 1,
            };
            ptr = entries[idx].ptr;
            level -= 1;
        }
    }

    /// Find a committed document's pointer and sequence via the by-id tree.
    fn tree_lookup(&mut self, key: u64) -> Result<Option<(DocPtr, u64)>, CouchError> {
        Ok(self.lookup_in(self.root, self.root_level, key)?.map(|e| {
            (DocPtr { block: e.ptr, nblocks: e.nblocks, len: e.len }, e.aux)
        }))
    }

    /// Current (pointer, seq) of `key`, pending changes included.
    /// A tree change first (always the newer one), then a same-size update
    /// awaiting its remap: the newest appended copy, under the tree's sequence.
    fn current_of(&mut self, key: u64) -> Result<Option<(DocPtr, u64)>, CouchError> {
        match self.pending.get(&key).copied() {
            Some(Pending::Put(ptr, seq)) => Ok(Some((ptr, seq))),
            Some(Pending::Delete) => Ok(None),
            None => Ok(self.tree_lookup(key)?.map(|(ptr, seq)| {
                (self.pending_share(key).map_or(ptr, |i| self.pending_shares[i].2), seq)
            })),
        }
    }

    /// Where `key` sits in `pending_shares`: `Ok` its index, `Err` where it
    /// would go.
    fn pending_share(&self, key: u64) -> Result<usize, usize> {
        self.pending_shares.binary_search_by_key(&key, |&(k, _, _)| k)
    }

    /// Point read.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, CouchError> {
        match self.current_of(key)? {
            Some((ptr, _)) => self.read_doc(ptr).map(Some),
            None => Ok(None),
        }
    }

    /// Read several documents (e.g. the reads of concurrent connections)
    /// as overlapping queued commands: index paths resolve first (node
    /// reads are cached), then every document's blocks go to the device as
    /// an independent queued read. Falls back to serial gets on devices
    /// without queued submission.
    ///
    /// The documents, one slot per key (`None`: no such key), sit in the
    /// store and are refilled by the next call, whose reads land in the
    /// buffers this call's documents leave: a warm call of at most
    /// [`SPARE_DOCS`] documents no larger than the last ones requests no
    /// document-sized heap.
    pub fn get_many(&mut self, keys: &[u64]) -> Result<&[Option<Vec<u8>>], CouchError> {
        let mut many = std::mem::take(&mut self.many);
        many.reset();
        let r = if !self.fs.supports_queue() || keys.len() <= 1 {
            keys.iter().try_for_each(|&k| {
                many.docs.push(self.get(k)?);
                Ok(())
            })
        } else {
            let span = self.fs.root_span("group_get");
            let r = self.get_many_inner(keys, &mut many);
            self.fs.end_span(span, r.is_ok());
            r
        };
        // Put the buffers back before an error returns.
        self.many = many;
        r?;
        Ok(&self.many.docs)
    }

    fn get_many_inner(&mut self, keys: &[u64], many: &mut ManyReads) -> Result<(), CouchError> {
        for &k in keys {
            many.ptrs.push(self.current_of(k)?.map(|(p, _)| p));
        }
        many.docs.resize(keys.len(), None);
        for (i, ptr) in many.ptrs.iter().enumerate() {
            let Some(p) = *ptr else { continue };
            many.pages.clear();
            many.pages.extend((0..p.nblocks as u64).map(|j| p.block + j));
            let buf = many.spare.pop().unwrap_or_default();
            let tag = self.fs.submit_read_pages(self.file, &many.pages, buf, &mut many.reaped)?;
            many.tags.push((i, tag, p));
        }
        let drained = self.fs.drain_queue();
        let bs = self.fs.page_size();
        for c in many.reaped.drain(..).chain(drained) {
            let output = c.result.map_err(VfsError::Device)?;
            let Some(&(i, _, ptr)) = many.tags.iter().find(|(_, t, _)| *t == c.tag) else {
                continue;
            };
            // The completion's buffer becomes the document.
            let blocks = output
                .into_pages()
                .ok_or_else(|| CouchError::Corrupt("queued read carried no pages".into()))?;
            many.docs[i] = Some(decode_doc_payload(ptr, blocks, bs)?);
        }
        Ok(())
    }

    /// Read a document by its sequence number (committed state only).
    pub fn get_by_seq(&mut self, seq: u64) -> Result<Option<(u64, Vec<u8>)>, CouchError> {
        let Some(e) = self.lookup_in(self.seq_root, self.seq_root_level, seq)? else {
            return Ok(None);
        };
        let doc = self.read_doc(DocPtr { block: e.ptr, nblocks: e.nblocks, len: e.len })?;
        Ok(Some((e.aux, doc)))
    }

    /// Committed changes with sequence > `since`, in sequence order:
    /// `(seq, key, ptr)` — couchstore's changes feed, also what incremental
    /// replication and compaction walk.
    pub fn changes_since(&mut self, since: u64) -> Result<Vec<(u64, u64, DocPtr)>, CouchError> {
        let mut out = Vec::new();
        if self.seq_root == NO_ROOT {
            return Ok(out);
        }
        let mut stack = vec![(self.seq_root, self.seq_root_level)];
        while let Some((ptr, level)) = stack.pop() {
            let (_, entries) = self.node(ptr)?;
            if level == 0 {
                for e in entries.iter().filter(|e| e.key > since) {
                    out.push((e.key, e.aux, DocPtr { block: e.ptr, nblocks: e.nblocks, len: e.len }));
                }
            } else {
                for e in entries.iter().rev() {
                    // Prune subtrees that end before `since`.
                    stack.push((e.ptr, level - 1));
                }
            }
        }
        out.sort_by_key(|(s, _, _)| *s);
        Ok(out)
    }

    /// Insert or update a document. Appends the new copy immediately; the
    /// index effect is deferred to the commit boundary (`batch_size`).
    pub fn save(&mut self, key: u64, payload: &[u8]) -> Result<(), CouchError> {
        self.save_with(key, payload, false)?;
        self.bump_and_maybe_commit()
    }

    /// Save documents from several connections as one group: every copy is
    /// appended as a *queued* device command (appends from independent
    /// documents overlap across NAND channels), the queue is drained, and
    /// a single commit covers the whole group once `batch_size` is due —
    /// the group-commit path concurrent drivers use. Falls back to serial
    /// saves on devices without queued submission.
    pub fn save_many(&mut self, docs: &[(u64, &[u8])]) -> Result<(), CouchError> {
        if !self.fs.supports_queue() || docs.len() <= 1 {
            for (key, payload) in docs {
                self.save(*key, payload)?;
            }
            return Ok(());
        }
        let span = self.fs.root_span("group_save");
        let r = self.save_many_inner(docs);
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn save_many_inner(&mut self, docs: &[(u64, &[u8])]) -> Result<(), CouchError> {
        let depth = self.fs.queue_depth().max(1);
        for (key, payload) in docs {
            // Each append is one queued command; make room under depth.
            while self.fs.inflight() >= depth {
                self.drain_some()?;
            }
            self.save_with(*key, payload, true)?;
            self.ops_since_commit += 1;
        }
        self.fs.barrier()?;
        if self.ops_since_commit >= self.cfg.batch_size {
            self.commit()?;
        }
        Ok(())
    }

    /// Reap at least one outstanding queued append (backpressure relief).
    fn drain_some(&mut self) -> Result<(), CouchError> {
        for c in self.fs.reap_queue() {
            c.result.map_err(VfsError::Device)?;
        }
        Ok(())
    }

    fn save_with(&mut self, key: u64, payload: &[u8], queued: bool) -> Result<(), CouchError> {
        let bs = self.fs.page_size();
        let new_blocks = doc_blocks(payload.len(), bs);

        if self.cfg.mode == CouchMode::Share {
            // A same-size update of a committed, not-currently-pending doc
            // can be remapped without touching the tree at all — if its
            // pairs fit one SHARE log page, the device's unit of atomicity.
            // Note: remapped updates keep the document's old sequence
            // number (neither index moves). couchstore semantics would
            // advance it; the paper's SHARE commit skips the index cascade
            // entirely, which is what we model. Inserts/deletes still go
            // through both trees below.
            if !self.pending.contains_key(&key) {
                if let Some((old, _seq)) = self.tree_lookup(key)? {
                    let fits = new_blocks <= self.fs.share_batch_limit() as u64;
                    if fits && old.nblocks as u64 == new_blocks && old.len as usize == payload.len()
                    {
                        let new_ptr = self.append_doc_with(key, payload, queued)?;
                        // The appended copy's blocks become stale the moment
                        // the remap lands (the tree keeps the old location);
                        // a superseded earlier copy in this batch is stale
                        // garbage either way.
                        match self.pending_share(key) {
                            Ok(i) => self.pending_shares[i] = (key, old, new_ptr),
                            Err(i) => self.pending_shares.insert(i, (key, old, new_ptr)),
                        }
                        self.stale_blocks += new_blocks;
                        self.stats.share_remaps += 1;
                        return Ok(());
                    }
                }
                self.stats.share_fallbacks += 1;
            } else {
                self.stats.share_fallbacks += 1;
            }
        }

        let old_seq = self.current_of(key)?.map(|(_, s)| s);
        let ptr = self.append_doc_with(key, payload, queued)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(key, Pending::Put(ptr, seq));
        if let Some(old) = old_seq {
            self.pending_seq.insert(old, Pending::Delete);
        }
        self.pending_seq.insert(seq, Pending::Put(ptr, key));
        Ok(())
    }

    /// Delete a document (tree path in both modes).
    pub fn delete(&mut self, key: u64) -> Result<(), CouchError> {
        if let Some((_, old_seq)) = self.current_of(key)? {
            self.pending_seq.insert(old_seq, Pending::Delete);
        }
        self.pending.insert(key, Pending::Delete);
        self.bump_and_maybe_commit()
    }

    fn bump_and_maybe_commit(&mut self) -> Result<(), CouchError> {
        self.ops_since_commit += 1;
        if self.ops_since_commit >= self.cfg.batch_size {
            self.commit()?;
        }
        Ok(())
    }

    /// Commit: make everything since the last commit durable. In SHARE mode
    /// an update-only batch costs one fsync plus one share command; any
    /// pending tree changes take the wandering-tree path.
    pub fn commit(&mut self) -> Result<(), CouchError> {
        let span = self.fs.root_span("txn_commit");
        let r = self.commit_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn commit_inner(&mut self) -> Result<(), CouchError> {
        if self.ops_since_commit == 0 && self.pending.is_empty() && self.pending_shares.is_empty() {
            return Ok(());
        }
        // Ordering point: queued appends must be on the medium — and their
        // simulated completion observed — before the commit's share/fsync.
        self.fs.barrier()?;
        // No explicit fsync on the SHARE path: the share command itself
        // persists the mapping log, which covers the appended copies' write
        // deltas too (§4.2.2: "The SHARE command returns after logging
        // finishes"). Batches with tree changes fsync below as usual.
        if !self.pending_shares.is_empty() {
            let mut pairs = std::mem::take(&mut self.share_pairs);
            let remapped = self.remap_pending_shares(&mut pairs);
            self.pending_shares.clear();
            self.share_pairs = pairs;
            remapped?;
        }

        if !self.pending.is_empty() || !self.pending_seq.is_empty() {
            // Data first (ordered write), then the new indexes and header.
            self.fs.fsync(self.file)?;
            let updates: Vec<(u64, Pending)> = std::mem::take(&mut self.pending).into_iter().collect();
            let (root, level) =
                self.apply_updates(self.root, self.root_level, &updates, true)?;
            self.root = root;
            self.root_level = level;
            let seq_updates: Vec<(u64, Pending)> =
                std::mem::take(&mut self.pending_seq).into_iter().collect();
            let (sroot, slevel) =
                self.apply_updates(self.seq_root, self.seq_root_level, &seq_updates, false)?;
            self.seq_root = sroot;
            self.seq_root_level = slevel;
            self.write_at_tail(Self::encode_header_at_tail)?;
            self.fs.fsync(self.file)?;
        }
        self.ops_since_commit = 0;
        self.stats.commits += 1;
        Ok(())
    }

    /// The SHARE half of a commit: remap every pending same-size update's
    /// old blocks onto its newest copy, building the pairs in `pairs`.
    fn remap_pending_shares(&mut self, pairs: &mut Vec<(u64, u64)>) -> Result<(), CouchError> {
        // The device commits a batch in log-page-sized atomic chunks:
        // a document is the unit the remap is never cut inside.
        pairs.clear();
        for (_, old, new) in &self.pending_shares {
            for i in 0..old.nblocks as u64 {
                pairs.push((old.block + i, new.block + i));
            }
        }
        let ends = self.pending_shares.iter().scan(0, |end, (_, old, _)| {
            *end += old.nblocks as usize;
            Some(*end)
        });
        self.fs.ioctl_share_units(self.file, self.file, pairs, ends)?;
        // The remap made the appended copies stale: unmap them now, one
        // command per run (a round's copies are adjacent). No flash is
        // freed — each page lives on under the old location — but the
        // second reference goes (the paper's bounded reverse map, §4.2.1)
        // and the next compaction's delete is left only what is mapped.
        // `CouchMode::Original` gets no such trim: it would free flash.
        pairs.sort_unstable_by_key(|&(_, new)| new);
        for run in pairs.chunk_by(|a, b| a.1 + 1 == b.1) {
            self.fs.trim_range(self.file, run[0].1, run[run.len() - 1].1 + 1)?;
        }
        Ok(())
    }

    // ----- wandering-tree update ----------------------------------------------

    /// Copy-on-write update of one of the two indexes; returns the new
    /// `(root, level)`. `count_docs` ties document/stale accounting to the
    /// by-id tree only (nodes are counted for both).
    fn apply_updates(
        &mut self,
        root: u64,
        root_level: u8,
        updates: &[(u64, Pending)],
        count_docs: bool,
    ) -> Result<(u64, u8), CouchError> {
        if updates.is_empty() {
            return Ok((root, root_level));
        }
        let mut replacement = if root == NO_ROOT {
            self.build_leaves_from(updates, &[], count_docs)?
        } else {
            self.update_node(root, root_level, updates, count_docs)?
        };
        // Collapse replacement entries into a single root.
        let mut level = root_level;
        while replacement.len() > 1 {
            level += 1;
            let mut uppers = Vec::new();
            for chunk in replacement.chunks(self.cfg.node_max_entries) {
                let ptr = self.append_node(level, chunk.to_vec())?;
                uppers.push(NodeEntry { key: chunk[0].key, ptr, nblocks: 0, len: 0, aux: 0 });
            }
            replacement = uppers;
        }
        Ok(match replacement.first() {
            Some(e) => (e.ptr, level),
            None => (NO_ROOT, 0),
        })
    }

    /// Build fresh leaves from puts (initial load / empty subtree).
    fn build_leaves_from(
        &mut self,
        updates: &[(u64, Pending)],
        existing: &[NodeEntry],
        count_docs: bool,
    ) -> Result<Vec<NodeEntry>, CouchError> {
        let mut merged: BTreeMap<u64, NodeEntry> = existing.iter().map(|e| (e.key, *e)).collect();
        for (key, op) in updates {
            match op {
                Pending::Put(ptr, aux) => {
                    let inserted = merged.insert(
                        *key,
                        NodeEntry {
                            key: *key,
                            ptr: ptr.block,
                            nblocks: ptr.nblocks,
                            len: ptr.len,
                            aux: *aux,
                        },
                    );
                    if count_docs {
                        if let Some(old) = inserted {
                            self.stale_blocks += old.nblocks as u64;
                        } else {
                            self.doc_count += 1;
                        }
                    }
                }
                Pending::Delete => {
                    if let Some(old) = merged.remove(key) {
                        if count_docs {
                            self.stale_blocks += old.nblocks as u64;
                            self.doc_count -= 1;
                        }
                    }
                }
            }
        }
        let entries: Vec<NodeEntry> = merged.into_values().collect();
        let mut out = Vec::new();
        for chunk in entries.chunks(self.cfg.node_max_entries.max(1)) {
            let ptr = self.append_node(0, chunk.to_vec())?;
            out.push(NodeEntry { key: chunk[0].key, ptr, nblocks: 0, len: 0, aux: 0 });
        }
        Ok(out)
    }

    /// Copy-on-write update of the subtree at `ptr`; returns the entries
    /// that replace it in the parent (several on splits).
    fn update_node(
        &mut self,
        ptr: u64,
        level: u8,
        updates: &[(u64, Pending)],
        count_docs: bool,
    ) -> Result<Vec<NodeEntry>, CouchError> {
        // The one caller that copies a node: the recursion below appends
        // nodes through `&mut self` while it walks these entries.
        let entries = self.node(ptr)?.1.clone();
        self.stale_blocks += 1; // the old node version dies

        if level == 0 {
            return self.build_leaves_from(updates, &entries, count_docs);
        }

        // Partition updates among children: child i covers
        // [entries[i].key, entries[i+1].key).
        let mut new_children: Vec<NodeEntry> = Vec::with_capacity(entries.len() + 4);
        let mut u = 0usize;
        for (i, e) in entries.iter().enumerate() {
            let hi = entries.get(i + 1).map(|n| n.key);
            let start = u;
            while u < updates.len() && hi.is_none_or(|h| updates[u].0 < h) {
                // Keys below the first child's separator still go to child 0.
                u += 1;
            }
            let slice = &updates[start..u];
            if slice.is_empty() {
                new_children.push(*e);
            } else {
                let replaced = self.update_node(e.ptr, level - 1, slice, count_docs)?;
                new_children.extend(replaced);
            }
        }
        debug_assert_eq!(u, updates.len(), "updates must all be routed");

        let mut out = Vec::new();
        for chunk in new_children.chunks(self.cfg.node_max_entries) {
            if chunk.is_empty() {
                continue;
            }
            let p = self.append_node(level, chunk.to_vec())?;
            out.push(NodeEntry { key: chunk[0].key, ptr: p, nblocks: 0, len: 0, aux: 0 });
        }
        Ok(out)
    }

    /// All committed leaf entries in key order (compaction input; pending
    /// changes must be committed first).
    pub(crate) fn all_leaf_entries(&mut self) -> Result<Vec<NodeEntry>, CouchError> {
        let mut out = Vec::with_capacity(self.doc_count as usize);
        if self.root == NO_ROOT {
            return Ok(out);
        }
        let mut stack = vec![(self.root, self.root_level)];
        while let Some((ptr, level)) = stack.pop() {
            let (_, entries) = self.node(ptr)?;
            if level == 0 {
                out.extend_from_slice(entries);
            } else {
                // Reverse so the stack pops in ascending key order.
                for e in entries.iter().rev() {
                    stack.push((e.ptr, level - 1));
                }
            }
        }
        out.sort_by_key(|e| e.key);
        Ok(out)
    }
}
