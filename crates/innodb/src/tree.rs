//! Clustered B+tree operations and the LinkBench-facing table API.
//!
//! Every mutation is expressed as single-page redo records applied through
//! [`InnoDb::apply`]; splits are preemptive (a node is split *before* the
//! insert that would overflow it), so no page ever exceeds its on-disk
//! size, and the whole user operation forms one mini-transaction.

use crate::engine::{InnoDb, CPU_NS_PER_OP};
use crate::error::EngineError;
use crate::key::Key;
use crate::page::NodePage;
use crate::redo::RedoBody;
use share_core::BlockDevice;

/// Internal-node entry payload: an 8-byte child pointer.
const CHILD_BYTES: usize = 8;
/// Cap on AppendEntries record payload so records fit a 4 KiB log page.
const SPLIT_CHUNK_BYTES: usize = 3 * 1024;

/// The child of internal node `p` whose subtree holds `key`: the last one
/// whose separator is ≤ `key` (the first child's is [`Key::MIN`]).
fn child_index(p: &NodePage, key: &Key) -> usize {
    match p.find(key) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    }
}

/// The vectors of one [`InnoDb::prefetch_keys`] round. The engine keeps
/// them, so a round refills their capacity instead of asking for its own.
#[derive(Default)]
pub(crate) struct PrefetchScratch {
    /// Each key with the page its descent has reached.
    frontier: Vec<(Key, u64)>,
    /// The lists' leaves after each list's first, as the parents name them.
    list_leaves: Vec<u64>,
    /// One level's pages, then the round's leaf batch.
    pages: Vec<u64>,
}

impl<D: BlockDevice> InnoDb<D> {
    /// Largest value the engine accepts (quarter page, like InnoDB's
    /// in-page record limit).
    pub fn max_value_bytes(&self) -> usize {
        self.config().page_bytes / 4
    }

    /// The leaf `key` belongs to, made resident.
    fn descend(&mut self, key: &Key) -> Result<u64, EngineError> {
        debug_assert!(self.height > 0);
        let mut no = self.root;
        for _ in 1..self.height {
            self.ensure_resident(no)?;
            let p = self.pool.get_mut(no).expect("resident");
            debug_assert!(!p.is_leaf());
            no = p.child_at(child_index(p, key));
        }
        self.ensure_resident(no)?;
        Ok(no)
    }

    /// Batched read-ahead for a round of concurrent operations: descend
    /// the tree level by level, loading every non-resident page the keys
    /// touch with ONE batched device read per level so the page reads
    /// overlap across NAND channels. A key that starts an (id1, type) link
    /// list ([`Key::link_list_end`]) also puts the later children of its
    /// parent that the list covers — the parent's separators say which —
    /// into the round's one leaf batch, while that batch (one leaf per key,
    /// resident or not, and these) holds at most a quarter of the pool. A
    /// real link to id2 = 0 is the same key, so its prefetch reads its
    /// list's leaves under that parent too: a few reads more, never a
    /// different answer. Purely a cache warmer — correctness never depends
    /// on what it loads.
    pub fn prefetch_keys(&mut self, keys: &[Key]) -> Result<(), EngineError> {
        if self.height == 0 || keys.is_empty() {
            return Ok(());
        }
        let mut scratch = std::mem::take(&mut self.prefetch);
        let r = self.prefetch_with(keys, &mut scratch);
        // Put the vectors back before an error returns.
        self.prefetch = scratch;
        r
    }

    fn prefetch_with(
        &mut self,
        keys: &[Key],
        scratch: &mut PrefetchScratch,
    ) -> Result<(), EngineError> {
        let PrefetchScratch { frontier, list_leaves, pages } = scratch;
        frontier.clear();
        frontier.extend(keys.iter().map(|&k| (k, self.root)));
        list_leaves.clear();
        for level in (1..self.height).rev() {
            pages.clear();
            pages.extend(frontier.iter().map(|&(_, no)| no));
            self.load_pages_batched(pages)?;
            for (key, no) in frontier.iter_mut() {
                // Extreme pool pressure may have re-evicted the page; the
                // serial loader covers that key.
                self.ensure_resident(*no)?;
                let parent = *no;
                let p = self.pool.get_mut(parent).expect("resident");
                let idx = child_index(p, key);
                *no = p.child_at(idx);
                if let (1, Some(end)) = (level, key.link_list_end()) {
                    let p = self.pool.peek(parent).expect("resident");
                    list_leaves.extend(
                        (idx + 1..p.len())
                            .take_while(|&j| p.key_at(j) < end)
                            .map(|j| p.child_at(j))
                            .filter(|&leaf| !self.pool.contains(leaf)),
                    );
                }
            }
        }
        // One leaf per key, resident or not, then the lists' later leaves
        // while the batch holds at most a quarter of the pool: the round's
        // own leaves stay resident until its operations run.
        pages.clear();
        pages.extend(frontier.iter().map(|&(_, no)| no));
        let limit = self.read_ahead_limit();
        for &no in list_leaves.iter() {
            if pages.len() >= limit {
                break;
            }
            if !pages.contains(&no) {
                pages.push(no);
            }
        }
        self.load_pages_batched(pages)
    }

    /// Borrowed point lookup: `f` sees the value where it sits in its pool
    /// frame (`None` = absent), so a presence test or a fixed-width parse
    /// copies nothing.
    pub fn with_value<R>(
        &mut self,
        key: &Key,
        f: impl FnOnce(Option<&[u8]>) -> R,
    ) -> Result<R, EngineError> {
        Ok(f(self.value(key)?))
    }

    /// The value of `key` where it sits in its pool frame (`None` = absent).
    fn value(&mut self, key: &Key) -> Result<Option<&[u8]>, EngineError> {
        if self.height == 0 {
            return Ok(None);
        }
        let leaf = self.descend(key)?;
        Ok(self.pool.get_mut(leaf).expect("resident").get(key))
    }

    /// Point lookup.
    pub fn get(&mut self, key: &Key) -> Result<Option<Vec<u8>>, EngineError> {
        self.with_value(key, |v| v.map(<[u8]>::to_vec))
    }

    /// Range scan over `[lo, hi)`, in key order, as owned rows.
    pub fn scan(&mut self, lo: &Key, hi: &Key) -> Result<Vec<(Key, Vec<u8>)>, EngineError> {
        let mut out = Vec::new();
        self.scan_with(lo, hi, &mut |k, v| out.push((k, v.to_vec())))?;
        Ok(out)
    }

    /// Borrowed range scan over `[lo, hi)`: `f` sees each row in key order
    /// where it sits in its pool frame, so a caller that counts or refills
    /// its own buffers copies nothing it does not keep. The walk goes down
    /// the tree rather than along the leaf chain, because a parent's
    /// separators say which of its children the range covers: the walk ends
    /// at the first separator ≥ `hi` without reading that child, and when it
    /// needs a leaf that is not resident it reads that leaf and the parent's
    /// later children below `hi` as one batched read of at most a quarter of
    /// the pool, instead of one read per leaf.
    fn scan_with(
        &mut self,
        lo: &Key,
        hi: &Key,
        f: &mut impl FnMut(Key, &[u8]),
    ) -> Result<(), EngineError> {
        if self.height > 0 {
            self.scan_node(self.root, self.height - 1, lo, hi, f)?;
        }
        Ok(())
    }

    /// Hand the rows of `[lo, hi)` under node `no`, at `level`, to `f`.
    fn scan_node(
        &mut self,
        no: u64,
        level: u16,
        lo: &Key,
        hi: &Key,
        f: &mut impl FnMut(Key, &[u8]),
    ) -> Result<(), EngineError> {
        self.ensure_resident(no)?;
        let p = self.pool.get_mut(no).expect("resident");
        if level == 0 {
            let (Ok(start) | Err(start)) = p.find(lo);
            for i in start..p.len() {
                let k = p.key_at(i);
                if k >= *hi {
                    break;
                }
                f(k, p.value_at(i));
            }
            return Ok(());
        }
        let mut idx = child_index(p, lo);
        let mut child = p.child_at(idx);
        loop {
            if level == 1 && !self.pool.contains(child) {
                self.read_ahead(no, idx, hi)?;
            }
            self.scan_node(child, level - 1, lo, hi, f)?;
            idx += 1;
            // Only a pool a few frames deep can have evicted this node.
            self.ensure_resident(no)?;
            let p = self.pool.peek(no).expect("resident");
            if idx == p.len() || p.key_at(idx) >= *hi {
                return Ok(());
            }
            child = p.child_at(idx);
        }
    }

    /// The largest batch a read-ahead builds: a quarter of the pool. That is
    /// half of what `load_pages_batched` refuses, so a read-ahead never
    /// turns its batch into a no-op, and what else the round touches keeps
    /// three quarters of the pool.
    fn read_ahead_limit(&self) -> usize {
        self.pool.capacity() / 4
    }

    /// Read child `idx` of the leaves' parent `parent` together with the
    /// later children whose separators are below `hi` — the leaves a scan
    /// ending at `hi` is about to visit — as one batched read of at most
    /// [`Self::read_ahead_limit`] pages. A lone missing leaf is left to the
    /// serial loader.
    fn read_ahead(&mut self, parent: u64, idx: usize, hi: &Key) -> Result<(), EngineError> {
        let mut leaves = std::mem::take(&mut self.io.leaves);
        leaves.clear();
        let p = self.pool.peek(parent).expect("resident");
        leaves.extend(
            (idx..p.len())
                .take_while(|&j| j == idx || p.key_at(j) < *hi)
                .map(|j| p.child_at(j))
                .filter(|&no| !self.pool.contains(no))
                .take(self.read_ahead_limit()),
        );
        let loaded = if leaves.len() > 1 { self.load_pages_batched(&leaves) } else { Ok(()) };
        self.io.leaves = leaves;
        loaded
    }

    /// Split `node_no` before `key` goes in with a `vlen`-byte value; the
    /// pivot and the new right sibling.
    fn split(
        &mut self,
        node_no: u64,
        level: u16,
        key: &Key,
        vlen: usize,
    ) -> Result<(Key, u64), EngineError> {
        self.ensure_resident(node_no)?;
        let new_no = self.alloc_page_no()?;
        // The moved entries leave as packed runs cut at record boundaries,
        // chunked so each record fits a redo log page.
        let (pivot, runs, old_next) = {
            let p = self.pool.get_mut(node_no).expect("resident");
            let mid = p.split_point(key, vlen);
            let mut runs = Vec::new();
            let mut start = mid;
            for i in mid..p.len() {
                if p.packed(start..i + 1).len() > SPLIT_CHUNK_BYTES && i > start {
                    runs.push(RedoBody::AppendEntries {
                        page_no: new_no,
                        run: p.packed(start..i).to_vec(),
                    });
                    start = i;
                }
            }
            runs.push(RedoBody::AppendEntries {
                page_no: new_no,
                run: p.packed(start..p.len()).to_vec(),
            });
            (p.key_at(mid), runs, p.next)
        };
        self.apply(RedoBody::PageInit { page_no: new_no, level })?;
        for run in runs {
            self.apply(run)?;
        }
        self.apply(RedoBody::SetNextPtr { page_no: new_no, next: old_next })?;
        self.apply(RedoBody::TruncateHigh { page_no: node_no, pivot })?;
        if level == 0 {
            self.apply(RedoBody::SetNextPtr { page_no: node_no, next: new_no })?;
        }
        Ok((pivot, new_no))
    }

    fn node_would_overflow(&mut self, page_no: u64, vlen: usize) -> Result<bool, EngineError> {
        self.ensure_resident(page_no)?;
        let p = self.pool.get_mut(page_no).expect("resident");
        Ok(p.would_overflow(vlen) && p.len() >= 2)
    }

    fn insert_rec(
        &mut self,
        node_no: u64,
        level: u16,
        key: Key,
        value: Vec<u8>,
    ) -> Result<Option<(Key, u64)>, EngineError> {
        if level == 0 {
            let mut promoted = None;
            let mut target = node_no;
            if self.node_would_overflow(node_no, value.len())? {
                let (pivot, new_no) = self.split(node_no, 0, &key, value.len())?;
                if key >= pivot {
                    target = new_no;
                }
                promoted = Some((pivot, new_no));
            }
            self.apply(RedoBody::Upsert { page_no: target, key, value })?;
            return Ok(promoted);
        }
        let child = {
            self.ensure_resident(node_no)?;
            let p = self.pool.get_mut(node_no).expect("resident");
            p.child_at(child_index(p, &key))
        };
        let Some((pk, pn)) = self.insert_rec(child, level - 1, key, value)? else {
            return Ok(None);
        };
        let mut promoted = None;
        let mut target = node_no;
        if self.node_would_overflow(node_no, CHILD_BYTES)? {
            let (pivot, new_no) = self.split(node_no, level, &pk, CHILD_BYTES)?;
            if pk >= pivot {
                target = new_no;
            }
            promoted = Some((pivot, new_no));
        }
        self.apply(RedoBody::Upsert {
            page_no: target,
            key: pk,
            value: NodePage::child_value(pn),
        })?;
        Ok(promoted)
    }

    /// Insert or replace `key` (one step of the enclosing transaction; the
    /// caller ends the MTR via commit).
    pub fn upsert_kv(&mut self, key: Key, value: Vec<u8>) -> Result<(), EngineError> {
        if value.len() > self.max_value_bytes() {
            return Err(EngineError::RecordTooLarge {
                bytes: value.len(),
                max: self.max_value_bytes(),
            });
        }
        if self.height == 0 {
            let leaf = self.alloc_page_no()?;
            self.apply(RedoBody::PageInit { page_no: leaf, level: 0 })?;
            self.apply(RedoBody::SetRoot { root: leaf, height: 1 })?;
        }
        let root = self.root;
        let height = self.height;
        if let Some((pk, pn)) = self.insert_rec(root, height - 1, key, value)? {
            let new_root = self.alloc_page_no()?;
            self.apply(RedoBody::PageInit { page_no: new_root, level: height })?;
            self.apply(RedoBody::Upsert {
                page_no: new_root,
                key: Key::MIN,
                value: NodePage::child_value(root),
            })?;
            self.apply(RedoBody::Upsert {
                page_no: new_root,
                key: pk,
                value: NodePage::child_value(pn),
            })?;
            self.apply(RedoBody::SetRoot { root: new_root, height: height + 1 })?;
        }
        Ok(())
    }

    /// Delete `key` if present (leaves may go sparse; like InnoDB, pages
    /// are not eagerly merged).
    pub fn delete_kv(&mut self, key: &Key) -> Result<bool, EngineError> {
        if self.height == 0 {
            return Ok(false);
        }
        let leaf = self.descend(key)?;
        let present = self.pool.get_mut(leaf).expect("resident").get(key).is_some();
        if present {
            self.apply(RedoBody::Remove { page_no: leaf, key: *key })?;
        }
        Ok(present)
    }

    /// Number of entries in the tree (test helper).
    pub fn count_entries(&mut self) -> Result<u64, EngineError> {
        let mut n = 0;
        self.scan_with(&Key::MIN, &Key::MAX, &mut |_, _| n += 1)?;
        Ok(n)
    }

    // ----- LinkBench table API ------------------------------------------------

    /// Read a node row: its bytes where they sit in their pool frame,
    /// borrowed until the engine's next call, so a read copies nothing.
    pub fn get_node(&mut self, id: u64) -> Result<Option<&[u8]>, EngineError> {
        self.op_clock();
        self.value(&Key::node(id))
    }

    /// Insert a node row.
    pub fn add_node(&mut self, id: u64, payload: &[u8]) -> Result<(), EngineError> {
        self.upsert_kv(Key::node(id), payload.to_vec())?;
        self.commit()
    }

    /// Update a node row (upsert semantics, as LinkBench's driver uses).
    pub fn update_node(&mut self, id: u64, payload: &[u8]) -> Result<(), EngineError> {
        self.upsert_kv(Key::node(id), payload.to_vec())?;
        self.commit()
    }

    /// Delete a node row.
    pub fn delete_node(&mut self, id: u64) -> Result<bool, EngineError> {
        let existed = self.delete_kv(&Key::node(id))?;
        self.commit()?;
        Ok(existed)
    }

    /// Insert a link and bump the (id1, type) count row.
    pub fn add_link(&mut self, id1: u64, typ: u32, id2: u64, payload: &[u8]) -> Result<(), EngineError> {
        let fresh = self.with_value(&Key::link(id1, typ, id2), |v| v.is_none())?;
        self.upsert_kv(Key::link(id1, typ, id2), payload.to_vec())?;
        if fresh {
            let n = self.read_count(id1, typ)? + 1;
            self.upsert_kv(Key::count(id1, typ), n.to_le_bytes().to_vec())?;
        }
        self.commit()
    }

    /// Update a link payload (no count change).
    pub fn update_link(&mut self, id1: u64, typ: u32, id2: u64, payload: &[u8]) -> Result<(), EngineError> {
        self.upsert_kv(Key::link(id1, typ, id2), payload.to_vec())?;
        self.commit()
    }

    /// Delete a link and decrement the count row.
    pub fn delete_link(&mut self, id1: u64, typ: u32, id2: u64) -> Result<bool, EngineError> {
        let existed = self.delete_kv(&Key::link(id1, typ, id2))?;
        if existed {
            let n = self.read_count(id1, typ)?.saturating_sub(1);
            self.upsert_kv(Key::count(id1, typ), n.to_le_bytes().to_vec())?;
        }
        self.commit()?;
        Ok(existed)
    }

    fn read_count(&mut self, id1: u64, typ: u32) -> Result<u64, EngineError> {
        self.with_value(&Key::count(id1, typ), |v| {
            v.map_or(0, |v| u64::from_le_bytes(v.try_into().unwrap_or([0; 8])))
        })
    }

    /// Read the (id1, type) link count.
    pub fn count_link(&mut self, id1: u64, typ: u32) -> Result<u64, EngineError> {
        self.op_clock();
        self.read_count(id1, typ)
    }

    /// Range scan of a node's links of one type, as (id2, payload) rows in
    /// id2 order. The rows sit in the engine's link-row buffer and are
    /// refilled in place by the next call: a row's id2 and bytes overwrite a
    /// slot kept from an earlier list, so only a list longer, or a payload
    /// larger, than any the slot held before requests heap.
    pub fn get_link_list(&mut self, id1: u64, typ: u32) -> Result<&[(u64, Vec<u8>)], EngineError> {
        self.op_clock();
        let lo = Key::link_range_start(id1, typ);
        let hi = Key::link_range_end(id1, typ);
        let mut rows = std::mem::take(&mut self.link_rows);
        let mut n = 0;
        let walked = self.scan_with(&lo, &hi, &mut |k, v| {
            let id2 = u64::from_be_bytes(k.0[13..21].try_into().expect("id2 field"));
            match rows.get_mut(n) {
                Some((slot_id2, slot)) => {
                    *slot_id2 = id2;
                    slot.clear();
                    slot.extend_from_slice(v);
                }
                None => rows.push((id2, v.to_vec())),
            }
            n += 1;
        });
        // Put the buffer back before an error returns.
        self.link_rows = rows;
        walked?;
        Ok(&self.link_rows[..n])
    }

    /// Point reads of specific links.
    pub fn multiget_link(
        &mut self,
        id1: u64,
        typ: u32,
        id2s: &[u64],
    ) -> Result<Vec<Option<Vec<u8>>>, EngineError> {
        self.op_clock();
        id2s.iter().map(|&id2| self.get(&Key::link(id1, typ, id2))).collect()
    }

    fn op_clock(&self) {
        self.clock().advance(CPU_NS_PER_OP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FlushMode, InnoDbConfig};
    use crate::redo::standard_log_device;
    use share_core::{Ftl, FtlConfig};

    fn engine(mode: FlushMode) -> InnoDb<Ftl> {
        let fcfg = FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, nand_sim::NandTiming::zero());
        let dev = Ftl::new(fcfg);
        let log = standard_log_device(dev.clock().clone());
        let cfg = InnoDbConfig {
            mode,
            pool_pages: 64,
            max_pages: 4096,
            ckpt_redo_bytes: 1 << 20,
            ..Default::default()
        };
        InnoDb::create(dev, log, cfg).unwrap()
    }

    #[test]
    fn empty_tree_reads_nothing() {
        let mut e = engine(FlushMode::DwbOn);
        assert_eq!(e.get(&Key::node(1)).unwrap(), None);
        assert!(e.scan(&Key::MIN, &Key::MAX).unwrap().is_empty());
        assert!(!e.delete_kv(&Key::node(1)).unwrap());
    }

    #[test]
    fn upsert_get_delete_cycle() {
        let mut e = engine(FlushMode::DwbOn);
        e.upsert_kv(Key::node(1), vec![7; 10]).unwrap();
        e.commit().unwrap();
        assert_eq!(e.get(&Key::node(1)).unwrap(), Some(vec![7; 10]));
        e.upsert_kv(Key::node(1), vec![8; 4]).unwrap();
        e.commit().unwrap();
        assert_eq!(e.get(&Key::node(1)).unwrap(), Some(vec![8; 4]));
        assert!(e.delete_kv(&Key::node(1)).unwrap());
        e.commit().unwrap();
        assert_eq!(e.get(&Key::node(1)).unwrap(), None);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut e = engine(FlushMode::DwbOn);
        let n = 3_000u64;
        // Insert in a shuffled-ish order to exercise splits everywhere.
        for i in 0..n {
            let id = (i * 7919) % n;
            e.upsert_kv(Key::node(id), id.to_le_bytes().to_vec()).unwrap();
            e.commit().unwrap();
        }
        assert!(e.height >= 2, "tree should have split (height {})", e.height);
        for id in 0..n {
            assert_eq!(
                e.get(&Key::node(id)).unwrap(),
                Some(id.to_le_bytes().to_vec()),
                "id {id} lost"
            );
        }
        let all = e.scan(&Key::MIN, &Key::MAX).unwrap();
        assert_eq!(all.len() as u64, n);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan out of order");
    }

    #[test]
    fn range_scan_returns_exact_window() {
        let mut e = engine(FlushMode::DwbOn);
        for id2 in 0..100u64 {
            e.upsert_kv(Key::link(5, 1, id2), vec![id2 as u8]).unwrap();
        }
        for id2 in 0..50u64 {
            e.upsert_kv(Key::link(5, 2, id2), vec![0xEE]).unwrap();
        }
        e.upsert_kv(Key::link(6, 1, 0), vec![0xDD]).unwrap();
        e.commit().unwrap();
        let rows = e.scan(&Key::link_range_start(5, 1), &Key::link_range_end(5, 1)).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|(k, _)| k.table_tag() == 2));
    }

    #[test]
    fn linkbench_ops_maintain_counts() {
        let mut e = engine(FlushMode::Share);
        e.add_node(1, b"alice").unwrap();
        e.add_node(2, b"bob").unwrap();
        e.add_link(1, 0, 2, b"follows").unwrap();
        e.add_link(1, 0, 3, b"follows").unwrap();
        e.add_link(1, 0, 2, b"follows-again").unwrap(); // duplicate: no count bump
        assert_eq!(e.count_link(1, 0).unwrap(), 2);
        let list = e.get_link_list(1, 0).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].0, 2);
        assert_eq!(list[0].1, b"follows-again".to_vec());
        assert!(e.delete_link(1, 0, 2).unwrap());
        assert!(!e.delete_link(1, 0, 2).unwrap());
        assert_eq!(e.count_link(1, 0).unwrap(), 1);
        let got = e.multiget_link(1, 0, &[2, 3]).unwrap();
        assert_eq!(got[0], None);
        assert_eq!(got[1], Some(b"follows".to_vec()));
    }

    #[test]
    fn group_commit_amortizes_log_flushes() {
        // Two engines run the same 32 transactions; the grouped one closes
        // each 8-txn window with one shared fsync. Same data, same commit
        // count, strictly fewer log-device flushes.
        let run = |grouped: bool| {
            let mut e = engine(FlushMode::Share);
            for round in 0..4u64 {
                if grouped {
                    e.begin_group();
                }
                for i in 0..8u64 {
                    e.add_node(round * 8 + i, b"payload").unwrap();
                }
                if grouped {
                    e.group_commit().unwrap();
                }
            }
            for id in 0..32u64 {
                assert_eq!(e.get_node(id).unwrap().map(<[u8]>::to_vec), Some(b"payload".to_vec()));
            }
            (e.stats(), e.log_device_stats())
        };
        let (serial_stats, serial_log) = run(false);
        let (group_stats, group_log) = run(true);
        assert_eq!(serial_stats.commits, 32);
        assert_eq!(group_stats.commits, 32);
        assert_eq!(group_stats.group_commits, 4);
        assert!(
            group_log.flushes < serial_log.flushes,
            "grouped {} flushes should beat serial {}",
            group_log.flushes,
            serial_log.flushes
        );
    }

    #[test]
    fn group_commit_survives_crash_recovery() {
        // A closed group window is durable: drop the engine without a
        // clean shutdown and reopen from the devices.
        let mut e = engine(FlushMode::Share);
        e.begin_group();
        for id in 0..16u64 {
            e.add_node(id, b"grouped").unwrap();
        }
        e.group_commit().unwrap();
        let (data, log) = e.into_devices();
        let cfg = InnoDbConfig {
            mode: FlushMode::Share,
            pool_pages: 64,
            max_pages: 4096,
            ckpt_redo_bytes: 1 << 20,
            ..Default::default()
        };
        let mut e = InnoDb::open(data, log, cfg).unwrap();
        for id in 0..16u64 {
            assert_eq!(
                e.get_node(id).unwrap().map(<[u8]>::to_vec),
                Some(b"grouped".to_vec()),
                "node {id} lost"
            );
        }
    }

    #[test]
    fn prefetch_warms_the_pool_without_changing_answers() {
        let fcfg =
            FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, nand_sim::NandTiming::zero());
        let dev = Ftl::new(fcfg);
        let log = standard_log_device(dev.clock().clone());
        let cfg = InnoDbConfig {
            mode: FlushMode::DwbOn,
            pool_pages: 48,
            max_pages: 4096,
            ckpt_redo_bytes: 1 << 20,
            ..Default::default()
        };
        let mut e = InnoDb::create(dev, log, cfg).unwrap();
        for id in 0..1_500u64 {
            e.upsert_kv(Key::node(id), vec![(id % 251) as u8; 64]).unwrap();
            e.commit().unwrap();
        }
        e.checkpoint().unwrap();
        let keys: Vec<Key> = (0..12u64).map(|i| Key::node(i * 113)).collect();
        e.prefetch_keys(&keys).unwrap();
        let hits0 = e.pool_stats().hits;
        for (i, k) in keys.iter().enumerate() {
            let id = (i as u64) * 113;
            assert_eq!(e.get(k).unwrap(), Some(vec![(id % 251) as u8; 64]));
        }
        // Every descent after the prefetch was served from the pool.
        assert!(e.pool_stats().hits > hits0, "prefetched reads should hit the pool");
    }

    #[test]
    fn every_pool_lookup_is_one_hit_or_one_miss_and_a_miss_is_a_fetch() {
        let mut e = engine(FlushMode::Share);
        let n = 2_000u64;
        for id in 0..n {
            e.upsert_kv(Key::node(id), vec![(id % 251) as u8; 1024]).unwrap();
            e.commit().unwrap();
        }
        e.checkpoint().unwrap();
        let device_pages_per_page = (e.config().page_bytes / e.fs_mut().page_size()) as u64;
        let (pool0, reads0) = (e.pool_stats(), e.fs_mut().device().stats().host_reads);
        let gets = 500u64;
        for i in 0..gets {
            let id = (i * 7919) % n;
            assert_eq!(e.get(&Key::node(id)).unwrap(), Some(vec![(id % 251) as u8; 1024]));
        }
        let pool = e.pool_stats();
        let (hits, misses) = (pool.hits - pool0.hits, pool.misses - pool0.misses);
        // A point get looks up one page per tree level.
        assert_eq!(hits + misses, gets * e.height as u64);
        let fetched = (e.fs_mut().device().stats().host_reads - reads0) / device_pages_per_page;
        assert_eq!(misses, fetched, "a miss is a lookup the engine read the tablespace for");
        assert!(misses > 0, "the tree does not fit the 64-page pool");
    }

    #[test]
    fn oversized_values_rejected() {
        let mut e = engine(FlushMode::DwbOn);
        let too_big = vec![0u8; e.max_value_bytes() + 1];
        assert!(matches!(
            e.upsert_kv(Key::node(1), too_big),
            Err(EngineError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn works_with_small_pool_under_pressure() {
        let fcfg = FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, nand_sim::NandTiming::zero());
        let dev = Ftl::new(fcfg);
        let log = standard_log_device(dev.clock().clone());
        let cfg = InnoDbConfig {
            mode: FlushMode::DwbOn,
            pool_pages: 10, // pathologically small
            max_pages: 4096,
            flush_batch: 4,
            ..Default::default()
        };
        let mut e = InnoDb::create(dev, log, cfg).unwrap();
        for i in 0..2_000u64 {
            e.upsert_kv(Key::node(i), vec![(i % 251) as u8; 64]).unwrap();
            e.commit().unwrap();
        }
        for i in (0..2_000u64).step_by(97) {
            assert_eq!(e.get(&Key::node(i)).unwrap(), Some(vec![(i % 251) as u8; 64]));
        }
        assert!(e.pool_stats().evictions > 0);
        let s = e.stats();
        assert!(s.eviction_flush_batches > 0 && s.eviction_flush_batches <= s.flush_batches);
    }

    #[test]
    fn checkpoint_batches_are_not_eviction_batches() {
        let mut e = engine(FlushMode::Share);
        for i in 0..300u64 {
            e.upsert_kv(Key::node(i), vec![(i % 251) as u8; 64]).unwrap();
            e.commit().unwrap();
            if i % 50 == 49 {
                e.checkpoint().unwrap();
            }
        }
        assert_eq!(e.pool_stats().evictions, 0, "the tree must fit the pool");
        let s = e.stats();
        assert!(s.flush_batches >= 6, "{} batches", s.flush_batches);
        assert_eq!(s.eviction_flush_batches, 0);
    }

    #[test]
    fn a_commit_that_paid_an_eviction_flush_leaves_the_checkpoint_to_the_next() {
        let fcfg = FtlConfig::for_capacity_with(24 << 20, 0.3, 4096, 32, nand_sim::NandTiming::zero());
        let dev = Ftl::new(fcfg);
        let log = standard_log_device(dev.clock().clone());
        let cfg = InnoDbConfig {
            mode: FlushMode::Share,
            pool_pages: 10,
            max_pages: 4096,
            flush_batch: 4,
            ckpt_redo_bytes: 2 << 10,
            ..Default::default()
        };
        let mut e = InnoDb::create(dev, log, cfg).unwrap();
        let (mut evicting, mut checkpointing) = (0, 0);
        for i in 0..2_000u64 {
            let s0 = e.stats();
            e.upsert_kv(Key::node(i * 7_919 % 2_000), vec![(i % 251) as u8; 64]).unwrap();
            e.commit().unwrap();
            let s = e.stats();
            let evicted = s.eviction_flush_batches > s0.eviction_flush_batches;
            let checkpointed = s.checkpoints > s0.checkpoints;
            assert!(!(evicted && checkpointed), "txn {i} paid an eviction flush and a checkpoint");
            evicting += evicted as u32;
            checkpointing += checkpointed as u32;
        }
        assert!(evicting > 100 && checkpointing > 100, "{evicting} / {checkpointing}");
    }

    #[test]
    fn payload_spread_forces_multi_chunk_splits() {
        let mut e = engine(FlushMode::DwbOn);
        // Large values (~900 B) make split AppendEntries chunk.
        for i in 0..200u64 {
            e.upsert_kv(Key::node(i), vec![(i % 251) as u8; 900]).unwrap();
            e.commit().unwrap();
        }
        for i in 0..200u64 {
            assert_eq!(e.get(&Key::node(i)).unwrap().unwrap().len(), 900);
        }
    }
}
