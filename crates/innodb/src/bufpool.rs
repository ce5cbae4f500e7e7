//! Buffer pool: fixed-capacity page cache with O(1) LRU and a flush list.
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
//! Dirty frames are also linked, oldest first, on InnoDB's *flush list*:
//! in the order of their first change since their last flush. Each one
//! keeps that change's LSN and the redo position it was logged at, so the
//! head of the list is where a checkpoint may be recorded.

use crate::page::NodePage;
use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Frame {
    page: NodePage,
    /// First change since the last flush, `(lsn, redo position)`; `None`
    /// while the page is clean.
    dirty: Option<(u64, u64)>,
    /// Fetched for a lookup that has not found it yet: that lookup is the
    /// miss, whichever call makes it.
    fetched: bool,
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

/// A fixed-capacity LRU cache of page images.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    map: HashMap<u64, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
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
            map: HashMap::with_capacity(capacity),
            head: NIL,
            tail: NIL,
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

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether `page_no` is resident.
    pub fn contains(&self, page_no: u64) -> bool {
        self.map.contains_key(&page_no)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let f = self.frames[idx].as_ref().expect("linked frame");
            (f.prev, f.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.frames[p].as_mut().expect("prev frame").next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n].as_mut().expect("next frame").prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        {
            let f = self.frames[idx].as_mut().expect("frame to link");
            f.prev = NIL;
            f.next = self.head;
        }
        match self.head {
            NIL => self.tail = idx,
            h => self.frames[h].as_mut().expect("old head").prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Get a page for reading/writing, bumping it to MRU. Counts a hit or
    /// miss; the caller loads and [`BufferPool::insert`]s on miss.
    pub fn get_mut(&mut self, page_no: u64) -> Option<&mut NodePage> {
        match self.map.get(&page_no).copied() {
            Some(idx) => {
                self.touch(idx);
                let frame = self.frames[idx].as_mut().expect("mapped frame");
                if std::mem::take(&mut frame.fetched) {
                    self.stats.misses += 1;
                } else {
                    self.stats.hits += 1;
                }
                Some(&mut frame.page)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Read-only access without LRU bump or hit accounting (flush paths).
    pub fn peek(&self, page_no: u64) -> Option<&NodePage> {
        self.map.get(&page_no).map(|&idx| &self.frames[idx].as_ref().expect("mapped frame").page)
    }

    /// Flush-path access for sealing a page in place: no LRU bump, no hit
    /// accounting.
    pub fn peek_mut(&mut self, page_no: u64) -> Option<&mut NodePage> {
        let idx = *self.map.get(&page_no)?;
        Some(&mut self.frames[idx].as_mut().expect("mapped frame").page)
    }

    /// Insert a clean page created in memory. Panics if full or already
    /// resident — callers must make room first.
    pub fn insert(&mut self, page: NodePage) {
        self.place(page, false);
    }

    /// Insert a clean page the engine has just read from the tablespace.
    /// The engine checks residency and loads *before* it looks a page up,
    /// so the lookup never sees the page absent; the first one to find
    /// this page is the miss that paid for the read.
    pub fn insert_fetched(&mut self, page: NodePage) {
        self.place(page, true);
    }

    fn place(&mut self, page: NodePage, fetched: bool) {
        assert!(self.len() < self.capacity, "pool full: make room before insert");
        assert!(!self.contains(page.page_no), "page {} already resident", page.page_no);
        let idx = self.free.pop().expect("free frame exists when below capacity");
        let page_no = page.page_no;
        self.frames[idx] =
            Some(Frame { page, dirty: None, fetched, prev: NIL, next: NIL, older: NIL, newer: NIL });
        self.map.insert(page_no, idx);
        self.push_front(idx);
    }

    /// Mark a resident page dirty by the change logged as `lsn` at redo
    /// position `pos`. The first change since the page's last flush puts it
    /// at the tail of the flush list; later ones leave it where it is.
    pub fn mark_dirty(&mut self, page_no: u64, lsn: u64, pos: u64) {
        let idx = *self.map.get(&page_no).expect("mark_dirty on non-resident page");
        let f = self.frames[idx].as_mut().expect("mapped frame");
        if f.dirty.is_some() {
            return;
        }
        f.dirty = Some((lsn, pos));
        f.older = self.newest;
        f.newer = NIL;
        match self.newest {
            NIL => self.oldest = idx,
            n => self.frames[n].as_mut().expect("flush-list tail").newer = idx,
        }
        self.newest = idx;
        self.dirty += 1;
    }

    /// Mark a resident page clean (after a successful flush), taking it off
    /// the flush list.
    pub fn mark_clean(&mut self, page_no: u64) {
        let idx = *self.map.get(&page_no).expect("mark_clean on non-resident page");
        let f = self.frames[idx].as_mut().expect("mapped frame");
        if f.dirty.take().is_none() {
            return;
        }
        let (older, newer) = (f.older, f.newer);
        match older {
            NIL => self.oldest = newer,
            o => self.frames[o].as_mut().expect("older frame").newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.frames[n].as_mut().expect("newer frame").older = older,
        }
        self.dirty -= 1;
    }

    /// Whether a resident page is dirty.
    pub fn is_dirty(&self, page_no: u64) -> bool {
        self.map
            .get(&page_no)
            .is_some_and(|&idx| self.frames[idx].as_ref().expect("mapped frame").dirty.is_some())
    }

    /// The least-recently-used page and its dirtiness.
    pub fn lru_victim(&self) -> Option<(u64, bool)> {
        if self.tail == NIL {
            return None;
        }
        let f = self.frames[self.tail].as_ref().expect("tail frame");
        Some((f.page.page_no, f.dirty.is_some()))
    }

    /// Up to `max` dirty page numbers from the cold end of the LRU list —
    /// the flush batch InnoDB pushes through the double-write buffer.
    pub fn collect_dirty_cold(&self, max: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(max);
        let mut idx = self.tail;
        while idx != NIL && out.len() < max {
            let f = self.frames[idx].as_ref().expect("linked frame");
            if f.dirty.is_some() {
                out.push(f.page.page_no);
            }
            idx = f.prev;
        }
        out
    }

    /// The coldest clean page, if any (fallback eviction when dirty pages
    /// are pinned by an open mini-transaction).
    pub fn coldest_clean(&self) -> Option<u64> {
        let mut idx = self.tail;
        while idx != NIL {
            let f = self.frames[idx].as_ref().expect("linked frame");
            if f.dirty.is_none() {
                return Some(f.page.page_no);
            }
            idx = f.prev;
        }
        None
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
        assert!(
            self.frames[idx].as_ref().expect("mapped frame").dirty.is_none(),
            "evicting dirty page {page_no}"
        );
        self.unlink(idx);
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

    #[test]
    fn lru_order_tracks_access() {
        let mut p = BufferPool::new(8);
        for i in 0..4 {
            p.insert(page(i));
        }
        assert_eq!(p.lru_victim(), Some((0, false)));
        p.get_mut(0); // 0 becomes MRU
        assert_eq!(p.lru_victim(), Some((1, false)));
    }

    #[test]
    fn dirty_tracking_and_cold_collection() {
        let mut p = BufferPool::new(8);
        for i in 0..6 {
            p.insert(page(i));
        }
        p.mark_dirty(5, 1, 10);
        p.mark_dirty(1, 2, 20);
        p.mark_dirty(3, 3, 30);
        assert_eq!(p.dirty_count(), 3);
        // Cold-first LRU order: 1 then 3 then 5 (insertion order, none
        // touched); the flush list keeps first-change order.
        assert_eq!(p.collect_dirty_cold(2), vec![1, 3]);
        assert_eq!(p.flush_list().collect::<Vec<_>>(), vec![5, 1, 3]);
        p.mark_clean(3);
        assert_eq!(p.dirty_count(), 2);
        assert_eq!(p.flush_list().collect::<Vec<_>>(), vec![5, 1]);
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
            let (victim, dirty) = p.lru_victim().unwrap();
            assert!(!dirty);
            p.evict(victim);
            p.insert(page(100 + round));
        }
        assert_eq!(p.len(), 8);
    }
}
