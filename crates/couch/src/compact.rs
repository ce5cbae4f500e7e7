//! Compaction: reclaim stale blocks by rebuilding the database file.
//!
//! * **Original** (Figure 1(b) / §2.2): read every live document from the
//!   old file and copy it into a new file, rebuilding the tree — heavy
//!   read *and* write traffic.
//! * **SHARE** (Figure 3 / §3.3): `fallocate` the new file and SHARE-remap
//!   every live document's blocks into it — *zero* document copying. Only
//!   each document's header block is still read (to learn its length, the
//!   residual cost the paper cites for Table 2), and the fresh index is
//!   written.

use crate::format::{decode_doc_block, NodeEntry};
use crate::store::{CouchMode, CouchStore, NO_ROOT};
use crate::CouchError;
use share_core::BlockDevice;

/// Document heads a SHARE compaction reads per batched submission.
const HEAD_BATCH: usize = 256;

/// What one compaction did (drives the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionReport {
    /// Simulated wall-clock spent.
    pub elapsed_ns: u64,
    /// Host bytes written to the device during compaction.
    pub bytes_written: u64,
    /// Host bytes read from the device during compaction.
    pub bytes_read: u64,
    /// Live documents carried over.
    pub docs_moved: u64,
    /// Document blocks carried over.
    pub doc_blocks_moved: u64,
    /// Whether the zero-copy (SHARE) path ran.
    pub zero_copy: bool,
}

impl<D: BlockDevice> CouchStore<D> {
    /// Compact the database, replacing its file. Pending updates are
    /// committed first. Returns traffic/time accounting for the run.
    pub fn compact(&mut self) -> Result<CompactionReport, CouchError> {
        let span = self.fs.root_span("compaction");
        let r = self.compact_inner();
        self.fs.end_span(span, r.is_ok());
        r
    }

    fn compact_inner(&mut self) -> Result<CompactionReport, CouchError> {
        self.commit()?;
        let clock = self.fs.device().clock().clone();
        let stats0 = self.fs.device().stats();
        let t0 = clock.now_ns();

        let entries = self.all_leaf_entries()?;
        let docs_moved = entries.len() as u64;
        let doc_blocks_moved: u64 = entries.iter().map(|e| e.nblocks as u64).sum();

        let compact_name = format!("{}.compact", self.name);
        if self.fs.lookup(&compact_name).is_some() {
            self.fs.delete(&compact_name)?;
        }
        let new_file = self.fs.create(&compact_name)?;

        let zero_copy = self.cfg.mode == CouchMode::Share && self.fs.supports_share();
        let mut new_leaf_entries: Vec<NodeEntry> = Vec::with_capacity(entries.len());
        let mut new_tail: u64 = 0;
        let bs = self.fs.page_size();
        // Either path's buffer is free by the rebuild, which is staged in it.
        let (mut heads, mut bufs): (Vec<u8>, Vec<Vec<u8>>) = (Vec::new(), Vec::new());

        if zero_copy {
            // Reserve space up front (the paper's fallocate) then remap.
            self.fs.fallocate(new_file, doc_blocks_moved.max(1))?;
            // Read the document header blocks to learn each length —
            // required by the share command, and the reason SHARE-based
            // compaction is not infinitely fast (§5.3.2). One submission per
            // 256 heads, which overlap as far as the heads lie on different
            // lanes: each document's submission starts one block later than
            // the one before (`append_doc_with`), so a batch costs a page read
            // per lane, not per head (19 us a head on four channels, not 76:
            // `tests/compaction_profile.rs`). Every batch lands in the same
            // buffer and is decoded where it lies.
            heads = vec![0u8; HEAD_BATCH.min(entries.len()).max(1) * bs];
            let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(doc_blocks_moved as usize);
            for batch in entries.chunks(HEAD_BATCH) {
                let heads = &mut heads[..batch.len() * bs];
                let mut reqs: Vec<(u64, &mut [u8])> =
                    batch.iter().zip(heads.chunks_exact_mut(bs)).map(|(e, b)| (e.ptr, b)).collect();
                self.fs.read_pages(self.file, &mut reqs)?;
                for (e, buf) in batch.iter().zip(heads.chunks_exact(bs)) {
                    let head = decode_doc_block(buf)
                        .ok_or_else(|| CouchError::Corrupt(format!("bad doc head at {}", e.ptr)))?;
                    // A remap of the wrong length moves someone else's blocks.
                    if !head.is_head || head.nblocks != e.nblocks || head.total_len != e.len {
                        return Err(CouchError::Corrupt(format!(
                            "doc head at {} disagrees with the index on the document's size",
                            e.ptr
                        )));
                    }
                    for i in 0..e.nblocks as u64 {
                        pairs.push((new_tail + i, e.ptr + i));
                    }
                    new_leaf_entries.push(NodeEntry { key: e.key, ptr: new_tail, ..*e });
                    new_tail += e.nblocks as u64;
                }
            }
            self.fs.ioctl_share_pairs(new_file, self.file, &pairs)?;
        } else {
            // Copy every live document, in batched read/write chunks.
            let mut moves: Vec<(u64, u64)> = Vec::with_capacity(doc_blocks_moved as usize);
            for e in &entries {
                for i in 0..e.nblocks as u64 {
                    moves.push((e.ptr + i, new_tail + i));
                }
                new_leaf_entries.push(NodeEntry { key: e.key, ptr: new_tail, ..*e });
                new_tail += e.nblocks as u64;
            }
            bufs = vec![vec![0u8; bs]; 128];
            for chunk in moves.chunks(128) {
                {
                    let mut reqs: Vec<(u64, &mut [u8])> = chunk
                        .iter()
                        .zip(bufs.iter_mut())
                        .map(|(&(src, _), b)| (src, b.as_mut_slice()))
                        .collect();
                    self.fs.read_pages(self.file, &mut reqs)?;
                }
                let batch: Vec<(u64, &[u8])> = chunk
                    .iter()
                    .zip(bufs.iter())
                    .map(|(&(_, dst), b)| (dst, b.as_slice()))
                    .collect();
                self.fs.write_pages(new_file, &batch)?;
            }
        }

        // Swap state over to the new file, then bulk-build the fresh
        // indexes (by-id and by-seq) and header, staged and written as one
        // submission: over every lane, not one program after another.
        let old_name = self.name.clone();
        let doc_count = self.doc_count;
        self.file = new_file;
        self.tail = new_tail;
        self.root = NO_ROOT;
        self.root_level = 0;
        self.seq_root = NO_ROOT;
        self.seq_root_level = 0;
        self.stale_blocks = 0;
        self.doc_count = doc_count;
        self.node_cache.clear();
        let bufs = if zero_copy { std::slice::from_mut(&mut heads) } else { &mut bufs[..] };
        let mut staged = Staged { bufs, used: 0 };
        let (root, level) = self.bulk_build_index(&new_leaf_entries, &mut staged)?;
        self.root = root;
        self.root_level = level;
        let mut seq_entries: Vec<NodeEntry> = new_leaf_entries
            .iter()
            .map(|e| NodeEntry { key: e.aux, ptr: e.ptr, nblocks: e.nblocks, len: e.len, aux: e.key })
            .collect();
        seq_entries.sort_by_key(|e| e.key);
        let (sroot, slevel) = self.bulk_build_index(&seq_entries, &mut staged)?;
        self.seq_root = sroot;
        self.seq_root_level = slevel;
        self.stage_block(&mut staged, Self::encode_header_at_tail)?;
        self.write_staged(&mut staged)?;
        self.fs.fsync(self.file)?;

        // Retire the old file and take its name.
        self.fs.delete(&old_name)?;
        self.fs.rename(&compact_name, &old_name)?;
        self.fs.fsync(self.file)?;
        self.stats.compactions += 1;

        let d = self.fs.device().stats().delta_since(&stats0);
        Ok(CompactionReport {
            elapsed_ns: clock.now_ns() - t0,
            bytes_written: d.host_write_bytes,
            bytes_read: d.host_read_bytes,
            docs_moved,
            doc_blocks_moved,
            zero_copy,
        })
    }

    /// Bottom-up index build from sorted leaf entries; returns (root, level).
    fn bulk_build_index(
        &mut self,
        leaf_entries: &[NodeEntry],
        staged: &mut Staged,
    ) -> Result<(u64, u8), CouchError> {
        if leaf_entries.is_empty() {
            return Ok((NO_ROOT, 0));
        }
        let fanout = self.cfg.node_max_entries;
        let mut level = 0u8;
        let mut current: Vec<NodeEntry> = leaf_entries.to_vec();
        loop {
            let mut next: Vec<NodeEntry> = Vec::with_capacity(current.len() / fanout + 1);
            for chunk in current.chunks(fanout) {
                let node = chunk.to_vec();
                let ptr = self.stage_block(staged, |s, img| s.encode_node_at_tail(level, node, img))?;
                next.push(NodeEntry { key: chunk[0].key, ptr, nblocks: 0, len: 0, aux: 0 });
            }
            if next.len() == 1 {
                return Ok((next[0].ptr, level));
            }
            current = next;
            level += 1;
        }
    }

    /// Encode one block at the tail into the next free staging page.
    fn stage_block(
        &mut self,
        staged: &mut Staged,
        encode: impl FnOnce(&mut Self, &mut [u8]) -> u64,
    ) -> Result<u64, CouchError> {
        let bs = self.fs.page_size();
        if staged.used * bs == staged.bufs.iter().map(Vec::len).sum() {
            self.write_staged(staged)?;
        }
        staged.used += 1;
        let img = staged.bufs.iter_mut().flat_map(|b| b.chunks_exact_mut(bs)).nth(staged.used - 1);
        Ok(encode(self, img.expect("a stage of at least one page")))
    }

    /// Write the staged blocks — the last `used` of the file — as one submission.
    fn write_staged(&mut self, staged: &mut Staged) -> Result<(), CouchError> {
        let pages = staged.bufs.iter().flat_map(|b| b.chunks_exact(self.fs.page_size()));
        let first = self.tail - staged.used as u64;
        let batch: Vec<(u64, &[u8])> = (first..).zip(pages).take(staged.used).collect();
        staged.used = 0;
        Ok(self.fs.write_pages(self.file, &batch)?)
    }
}

/// Rebuilt blocks encoded into the buffers a compaction owns, `used` of them not yet written.
struct Staged<'a> {
    bufs: &'a mut [Vec<u8>],
    used: usize,
}
