//! First-fit extent allocator over the device's LPN space.

use crate::error::VfsError;

/// A contiguous run of logical pages owned by one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First LPN of the run.
    pub start: u64,
    /// Length in pages.
    pub len: u64,
}

impl Extent {
    /// Exclusive end LPN.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// First-fit allocator with eager merging of adjacent free runs.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    /// Free runs, sorted by start, non-adjacent, non-overlapping.
    free: Vec<Extent>,
}

impl ExtentAllocator {
    /// All of `[start, end)` free.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end >= start);
        let free = if end > start { vec![Extent { start, len: end - start }] } else { vec![] };
        Self { free }
    }

    /// Total free pages.
    pub fn free_pages(&self) -> u64 {
        self.free.iter().map(|e| e.len).sum()
    }

    /// Largest allocatable contiguous run.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|e| e.len).max().unwrap_or(0)
    }

    /// Allocate a contiguous run of `pages` (first fit).
    pub fn alloc(&mut self, pages: u64) -> Result<Extent, VfsError> {
        assert!(pages > 0);
        let idx = self
            .free
            .iter()
            .position(|e| e.len >= pages)
            .ok_or(VfsError::NoSpace { requested_pages: pages })?;
        let run = self.free[idx];
        let out = Extent { start: run.start, len: pages };
        if run.len == pages {
            self.free.remove(idx);
        } else {
            self.free[idx] = Extent { start: run.start + pages, len: run.len - pages };
        }
        Ok(out)
    }

    /// Return `extent` to the free pool, merging with neighbours.
    pub fn release(&mut self, extent: Extent) {
        if extent.len == 0 {
            return;
        }
        let pos = self.free.partition_point(|e| e.start < extent.start);
        debug_assert!(
            pos == 0 || self.free[pos - 1].end() <= extent.start,
            "double free (left overlap)"
        );
        debug_assert!(
            pos == self.free.len() || extent.end() <= self.free[pos].start,
            "double free (right overlap)"
        );
        self.free.insert(pos, extent);
        // Merge right then left.
        if pos + 1 < self.free.len() && self.free[pos].end() == self.free[pos + 1].start {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].end() == self.free[pos].start {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
    }

    /// Rebuild the free list from the set of allocated extents (recovery):
    /// the free runs are the gaps between them. The extents come from the
    /// medium, so this is where the free list's invariant is established:
    /// `None` if an extent's end overflows, one lies outside
    /// `[start, end)` or two overlap.
    pub fn rebuild(start: u64, end: u64, mut used: Vec<Extent>) -> Option<Self> {
        used.sort_by_key(|e| e.start);
        let mut alloc = Self { free: Vec::new() };
        let mut cursor = start;
        for e in used {
            if e.start < cursor || e.start.checked_add(e.len)? > end {
                return None;
            }
            if e.start > cursor {
                alloc.free.push(Extent { start: cursor, len: e.start - cursor });
            }
            cursor = e.end();
        }
        if end > cursor {
            alloc.free.push(Extent { start: cursor, len: end - cursor });
        }
        Some(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_first_fit_and_exhaustion() {
        let mut a = ExtentAllocator::new(10, 30);
        let e1 = a.alloc(5).unwrap();
        assert_eq!(e1, Extent { start: 10, len: 5 });
        let e2 = a.alloc(15).unwrap();
        assert_eq!(e2, Extent { start: 15, len: 15 });
        assert_eq!(a.free_pages(), 0);
        assert_eq!(a.alloc(1), Err(VfsError::NoSpace { requested_pages: 1 }));
    }

    #[test]
    fn release_merges_adjacent_runs() {
        let mut a = ExtentAllocator::new(0, 100);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(10).unwrap();
        let e3 = a.alloc(10).unwrap();
        a.release(e1);
        a.release(e3); // merges with the tail run [30,100)
        assert_eq!(a.free, vec![Extent { start: 0, len: 10 }, Extent { start: 20, len: 80 }]);
        a.release(e2);
        assert_eq!(a.free_pages(), 100);
        assert_eq!(a.largest_free(), 100);
        assert_eq!(a.free.len(), 1, "all runs must coalesce");
    }

    #[test]
    fn release_merges_both_sides() {
        let mut a = ExtentAllocator::new(0, 30);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(10).unwrap();
        a.release(e1); // free: [0,10) [20,30)
        a.release(e2); // must become [0,30)
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free[0], Extent { start: 0, len: 30 });
    }

    #[test]
    fn fragmented_space_fails_large_requests() {
        let mut a = ExtentAllocator::new(0, 30);
        let e1 = a.alloc(10).unwrap();
        let _e2 = a.alloc(10).unwrap();
        let _e3 = a.alloc(10).unwrap();
        a.release(e1);
        // 10 free at the front, but no run of 20.
        assert_eq!(a.largest_free(), 10);
        assert!(a.alloc(20).is_err());
        assert!(a.alloc(10).is_ok());
    }

    #[test]
    fn rebuild_reconstructs_gaps() {
        let used = vec![Extent { start: 5, len: 5 }, Extent { start: 20, len: 10 }];
        let a = ExtentAllocator::rebuild(0, 40, used).unwrap();
        assert_eq!(a.free_pages(), 40 - 15);
        assert_eq!(
            a.free,
            vec![
                Extent { start: 0, len: 5 },
                Extent { start: 10, len: 10 },
                Extent { start: 30, len: 10 },
            ]
        );
    }

    #[test]
    fn empty_region_allocator() {
        let mut a = ExtentAllocator::new(7, 7);
        assert_eq!(a.free_pages(), 0);
        assert!(a.alloc(1).is_err());
    }
}
