//! Buffer pool: fixed-capacity page cache with InnoDB's midpoint LRU and a
//! flush list.
//!
//! A frame holds a [`NodePage`], which is the page's on-media image: what
//! the engine read from the tablespace is what lookups search and what a
//! flush lends to the device. The pool performs no I/O itself: the engine
//! loads pages on miss and flushes dirty victims (through the double-write
//! / SHARE protocol) when the pool needs room, mirroring InnoDB's
//! flush-list eviction that the paper's Figure 1(a) depicts. Frames get
//! their images as pages arrive (never `capacity` images up front), and
//! [`BufferPool::evict`] hands the page back so the engine reads the next
//! one into the same buffer.
//!
//! The LRU list is InnoDB's: its coldest 3/8 form the *old sublist*
//! (`innodb_old_blocks_pct` = 37). A page read from the tablespace enters
//! at the old sublist's head, and the lookup it was read for does not
//! promote it; a later hit moves it to the MRU head. A page created in
//! memory enters at the MRU head. So a page read once and never again
//! leaves through the old sublist without pushing hot pages out. The
//! boundary is an index and a count, moved one frame per insertion or
//! removal, and [`BufferPool::coldest_first`] lists the old sublist first:
//! the engine evicts its coldest clean page before it flushes a dirty one.
//!
//! Dirty frames are also linked, oldest first, on InnoDB's *flush list*:
//! in the order of their first change since their last flush. Each one
//! keeps that change's LSN and the redo position it was logged at, so the
//! head of the list is where a checkpoint may be recorded.

use crate::page::NodePage;
use share_core::FixedState;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

/// The old sublist's share of the resident pages, in eighths: 3/8 is
/// InnoDB's `innodb_old_blocks_pct` = 37 default.
const OLD_EIGHTHS: usize = 3;

#[derive(Debug)]
struct Frame {
    page: NodePage,
    /// First change since the last flush, `(lsn, redo position)`; `None`
    /// while the page is clean.
    dirty: Option<(u64, u64)>,
    /// Fetched for a lookup that has not found it yet: that lookup is the
    /// miss, whichever call makes it.
    fetched: bool,
    /// In the old sublist.
    old: bool,
    prev: usize,
    next: usize,
    /// Flush-list links (meaningful while dirty).
    older: usize,
    newer: usize,
}

/// Pool hit/miss counters. Every [`BufferPool::get_mut`] is one lookup and
/// counts as exactly one of the two.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that required a load: the page was absent, or the engine
    /// had fetched it for this lookup ([`BufferPool::insert_fetched`]).
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
}

/// A fixed-capacity midpoint-LRU cache of page images.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    map: HashMap<u64, usize, FixedState>,
    head: usize, // most recently used
    tail: usize, // least recently used
    mid: usize,  // old-sublist head; NIL while the old sublist is empty
    old_len: usize,
    oldest: usize, // flush-list head: the oldest first change
    newest: usize, // flush-list tail
    free: Vec<usize>,
    dirty: usize,
    stats: PoolStats,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 8, "pool too small to hold a root-to-leaf path plus workspace");
        Self {
            capacity,
            frames: (0..capacity).map(|_| None).collect(),
            map: HashMap::with_capacity_and_hasher(capacity, FixedState::default()),
            head: NIL,
            tail: NIL,
            mid: NIL,
            old_len: 0,
            oldest: NIL,
            newest: NIL,
            free: (0..capacity).rev().collect(),
            dirty: 0,
            stats: PoolStats::default(),
        }
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of dirty resident pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Pages in the old sublist: the first `old_len()` of
    /// [`Self::coldest_first`], ⌊3/8⌋ of the resident pages ± 1.
    pub fn old_len(&self) -> usize {
        self.old_len
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether `page_no` is resident.
    pub fn contains(&self, page_no: u64) -> bool {
        self.map.contains_key(&page_no)
    }

    fn frame(&self, idx: usize) -> &Frame {
        self.frames[idx].as_ref().expect("linked frame")
    }

    fn frame_mut(&mut self, idx: usize) -> &mut Frame {
        self.frames[idx].as_mut().expect("linked frame")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next, old) = {
            let f = self.frame(idx);
            (f.prev, f.next, f.old)
        };
        if old {
            self.old_len -= 1;
            if self.mid == idx {
                self.mid = next;
            }
        }
        match prev {
            NIL => self.head = next,
            p => self.frame_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frame_mut(n).prev = prev,
        }
    }

    /// Link `idx` in front of `at`, or at the tail when `at` is `NIL`.
    fn link_before(&mut self, idx: usize, at: usize) {
        let prev = if at == NIL { self.tail } else { self.frame(at).prev };
        {
            let f = self.frame_mut(idx);
            f.prev = prev;
            f.next = at;
        }
        match prev {
            NIL => self.head = idx,
            p => self.frame_mut(p).next = idx,
        }
        match at {
            NIL => self.tail = idx,
            a => self.frame_mut(a).prev = idx,
        }
    }

    /// Link `idx` at the MRU head, in the young sublist.
    fn push_young(&mut self, idx: usize) {
        self.frame_mut(idx).old = false;
        self.link_before(idx, self.head);
    }

    /// Link `idx` at the old sublist's head.
    fn push_old(&mut self, idx: usize) {
        self.frame_mut(idx).old = true;
        self.link_before(idx, self.mid);
        self.mid = idx;
        self.old_len += 1;
    }

    /// Move the boundary one frame when the old sublist is more than one
    /// page off ⌊3/8⌋ of the resident pages. An insertion, removal or
    /// promotion changes that distance by at most one, so one step keeps it
    /// within one; the slack lets a fetched page stay at the old head.
    fn rebalance(&mut self) {
        let target = self.map.len() * OLD_EIGHTHS / 8;
        if self.old_len + 1 < target {
            // The young sublist's tail joins the old sublist.
            let idx = if self.mid == NIL { self.tail } else { self.frame(self.mid).prev };
            self.frame_mut(idx).old = true;
            self.mid = idx;
            self.old_len += 1;
        } else if self.old_len > target + 1 {
            // The old sublist's head becomes young.
            let idx = self.mid;
            self.mid = self.frame(idx).next;
            self.frame_mut(idx).old = false;
            self.old_len -= 1;
        }
    }

    /// Get a page for reading/writing. Counts a hit or a miss; the caller
    /// loads and [`BufferPool::insert`]s on miss. A hit moves the page to
    /// the MRU head; the lookup a fetched page was read for does not.
    pub fn get_mut(&mut self, page_no: u64) -> Option<&mut NodePage> {
        let Some(idx) = self.map.get(&page_no).copied() else {
            self.stats.misses += 1;
            return None;
        };
        if std::mem::take(&mut self.frame_mut(idx).fetched) {
            self.stats.misses += 1;
        } else {
            self.stats.hits += 1;
            if self.head != idx {
                self.unlink(idx);
                self.push_young(idx);
                self.rebalance();
            }
        }
        Some(&mut self.frame_mut(idx).page)
    }

    /// Read-only access without LRU bump or hit accounting (flush paths).
    pub fn peek(&self, page_no: u64) -> Option<&NodePage> {
        self.map.get(&page_no).map(|&idx| &self.frame(idx).page)
    }

    /// Flush-path access for sealing a page in place: no LRU bump, no hit
    /// accounting.
    pub fn peek_mut(&mut self, page_no: u64) -> Option<&mut NodePage> {
        let idx = *self.map.get(&page_no)?;
        Some(&mut self.frame_mut(idx).page)
    }

    /// Insert a clean page created in memory, at the MRU head. Panics if
    /// full or already resident — callers must make room first.
    pub fn insert(&mut self, page: NodePage) {
        self.place(page, false);
    }

    /// Insert a clean page the engine has just read from the tablespace,
    /// at the old sublist's head. The engine checks residency and loads
    /// *before* it looks a page up, so the lookup never sees the page
    /// absent; the first one to find this page is the miss that paid for
    /// the read, and only a later hit makes the page young.
    pub fn insert_fetched(&mut self, page: NodePage) {
        self.place(page, true);
    }

    fn place(&mut self, page: NodePage, fetched: bool) {
        assert!(self.len() < self.capacity, "pool full: make room before insert");
        assert!(!self.contains(page.page_no), "page {} already resident", page.page_no);
        let idx = self.free.pop().expect("free frame exists when below capacity");
        let page_no = page.page_no;
        self.frames[idx] = Some(Frame {
            page,
            dirty: None,
            fetched,
            old: false,
            prev: NIL,
            next: NIL,
            older: NIL,
            newer: NIL,
        });
        self.map.insert(page_no, idx);
        if fetched {
            self.push_old(idx);
        } else {
            self.push_young(idx);
        }
        self.rebalance();
    }

    /// Mark a resident page dirty by the change logged as `lsn` at redo
    /// position `pos`. The first change since the page's last flush puts it
    /// at the tail of the flush list; later ones leave it where it is.
    pub fn mark_dirty(&mut self, page_no: u64, lsn: u64, pos: u64) {
        let idx = *self.map.get(&page_no).expect("mark_dirty on non-resident page");
        let newest = self.newest;
        let f = self.frame_mut(idx);
        if f.dirty.is_some() {
            return;
        }
        f.dirty = Some((lsn, pos));
        f.older = newest;
        f.newer = NIL;
        match newest {
            NIL => self.oldest = idx,
            n => self.frame_mut(n).newer = idx,
        }
        self.newest = idx;
        self.dirty += 1;
    }

    /// Mark a resident page clean (after a successful flush), taking it off
    /// the flush list.
    pub fn mark_clean(&mut self, page_no: u64) {
        let idx = *self.map.get(&page_no).expect("mark_clean on non-resident page");
        let f = self.frame_mut(idx);
        if f.dirty.take().is_none() {
            return;
        }
        let (older, newer) = (f.older, f.newer);
        match older {
            NIL => self.oldest = newer,
            o => self.frame_mut(o).newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.frame_mut(n).older = older,
        }
        self.dirty -= 1;
    }

    /// Whether a resident page is dirty.
    pub fn is_dirty(&self, page_no: u64) -> bool {
        self.map.get(&page_no).is_some_and(|&idx| self.frame(idx).dirty.is_some())
    }

    /// Resident pages from the LRU tail to the MRU head, each with whether
    /// it is dirty. The first [`Self::old_len`] are the old sublist.
    pub fn coldest_first(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        let mut idx = self.tail;
        std::iter::from_fn(move || {
            let f = self.frames.get(idx)?.as_ref().expect("linked frame");
            idx = f.prev;
            Some((f.page.page_no, f.dirty.is_some()))
        })
    }

    /// The flush-list head's first change, `(lsn, redo position)`: every
    /// change logged before it is on the medium. `None` when nothing is
    /// dirty.
    pub fn oldest_change(&self) -> Option<(u64, u64)> {
        self.frames.get(self.oldest)?.as_ref().expect("flush-list head").dirty
    }

    /// Dirty page numbers in flush-list order, oldest first change first.
    pub fn flush_list(&self) -> impl Iterator<Item = u64> + '_ {
        let mut idx = self.oldest;
        std::iter::from_fn(move || {
            let f = self.frames.get(idx)?.as_ref().expect("flush-list frame");
            idx = f.newer;
            Some(f.page.page_no)
        })
    }

    /// Evict a clean resident page, returning it.
    pub fn evict(&mut self, page_no: u64) -> NodePage {
        let idx = self.map.remove(&page_no).expect("evict of non-resident page");
        assert!(self.frame(idx).dirty.is_none(), "evicting dirty page {page_no}");
        self.unlink(idx);
        self.rebalance();
        let frame = self.frames[idx].take().expect("mapped frame");
        self.free.push(idx);
        self.stats.evictions += 1;
        frame.page
    }

    /// Drop everything (recovery restart).
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.iter_mut().for_each(|f| *f = None);
        self.free = (0..self.capacity).rev().collect();
        self.head = NIL;
        self.tail = NIL;
        self.mid = NIL;
        self.old_len = 0;
        self.oldest = NIL;
        self.newest = NIL;
        self.dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(no: u64) -> NodePage {
        NodePage::new(no, 0, 4096)
    }

    #[test]
    fn insert_get_evict_cycle() {
        let mut p = BufferPool::new(8);
        p.insert(page(1));
        assert!(p.contains(1));
        assert!(p.get_mut(1).is_some());
        assert!(p.get_mut(2).is_none());
        let out = p.evict(1);
        assert_eq!(out.page_no, 1);
        assert!(!p.contains(1));
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().evictions, 1);
    }

    #[test]
    fn first_lookup_of_a_fetched_page_is_the_miss() {
        let mut p = BufferPool::new(8);
        p.insert_fetched(page(1));
        p.insert(page(2)); // created, not fetched
        for _ in 0..3 {
            assert!(p.get_mut(1).is_some());
        }
        assert!(p.get_mut(2).is_some());
        assert_eq!((p.stats().hits, p.stats().misses), (3, 1));
    }

    fn order(p: &BufferPool) -> Vec<u64> {
        p.coldest_first().map(|(no, _)| no).collect()
    }

    #[test]
    fn lru_order_tracks_access() {
        let mut p = BufferPool::new(8);
        for i in 0..4 {
            p.insert(page(i));
        }
        assert_eq!(p.coldest_first().next(), Some((0, false)));
        p.get_mut(0); // 0 becomes MRU
        assert_eq!(p.coldest_first().next(), Some((1, false)));
    }

    #[test]
    fn fetched_pages_enter_the_old_sublist_and_a_second_lookup_promotes() {
        let mut p = BufferPool::new(16);
        for i in 0..8 {
            p.insert(page(i));
        }
        // ⌊3/8 · 8⌋ = 3, less the one page of slack: 0 and 1 are old.
        assert_eq!(p.old_len(), 2);
        p.insert_fetched(page(100));
        assert_eq!(order(&p), vec![0, 1, 100, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p.old_len(), 3);
        p.get_mut(100); // the miss it was fetched for: stays put
        assert_eq!(order(&p)[2], 100);
        p.get_mut(100); // a hit: MRU
        assert_eq!(order(&p), vec![0, 1, 2, 3, 4, 5, 6, 7, 100]);
        assert_eq!(p.old_len(), 2);
        assert_eq!((p.stats().hits, p.stats().misses), (1, 1));
    }

    #[test]
    fn dirty_tracking_and_cold_collection() {
        let mut p = BufferPool::new(8);
        for i in 0..8 {
            p.insert(page(i));
        }
        p.mark_dirty(5, 1, 10);
        p.mark_dirty(1, 2, 20);
        p.mark_dirty(0, 3, 30);
        assert_eq!(p.dirty_count(), 3);
        // The old sublist, coldest first, is 0 and 1, both dirty; dirty 5
        // is young. The flush list keeps first-change order.
        let old = |p: &BufferPool| p.coldest_first().take(p.old_len()).collect::<Vec<_>>();
        assert_eq!(old(&p), vec![(0, true), (1, true)]);
        assert_eq!(p.flush_list().collect::<Vec<_>>(), vec![5, 1, 0]);
        p.mark_clean(0);
        assert_eq!(p.dirty_count(), 2);
        assert_eq!(p.flush_list().collect::<Vec<_>>(), vec![5, 1]);
        p.evict(0);
        assert_eq!(old(&p), vec![(1, true)]);
        // Promoting the last old page leaves the sublist two short: the
        // young tail crosses.
        p.get_mut(1);
        assert_eq!(old(&p), vec![(2, false)]);
    }

    #[test]
    fn mark_dirty_is_idempotent() {
        let mut p = BufferPool::new(8);
        p.insert(page(1));
        p.mark_dirty(1, 1, 10);
        p.mark_dirty(1, 2, 20);
        assert_eq!(p.dirty_count(), 1);
        p.mark_clean(1);
        p.mark_clean(1);
        assert_eq!(p.dirty_count(), 0);
    }

    #[test]
    #[should_panic(expected = "pool full")]
    fn insert_beyond_capacity_panics() {
        let mut p = BufferPool::new(8);
        for i in 0..9 {
            p.insert(page(i));
        }
    }

    #[test]
    #[should_panic(expected = "evicting dirty page")]
    fn evicting_dirty_page_panics() {
        let mut p = BufferPool::new(8);
        p.insert(page(1));
        p.mark_dirty(1, 1, 10);
        p.evict(1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut p = BufferPool::new(8);
        for i in 0..8 {
            p.insert(page(i));
            if i % 2 == 0 {
                p.mark_dirty(i, i + 1, i * 10);
            }
        }
        p.clear();
        assert_eq!(p.len(), 0);
        assert_eq!(p.dirty_count(), 0);
        for i in 8..16 {
            p.insert(page(i));
        }
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn full_pool_lru_cycles_correctly() {
        let mut p = BufferPool::new(8);
        for i in 0..8 {
            p.insert(page(i));
        }
        for round in 0..100u64 {
            let (victim, dirty) = p.coldest_first().next().unwrap();
            assert!(!dirty);
            p.evict(victim);
            p.insert(page(100 + round));
        }
        assert_eq!(p.len(), 8);
    }
}
