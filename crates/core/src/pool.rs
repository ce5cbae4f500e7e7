//! Data-pool block management: free list, active write points, block states.
//!
//! The pool tracks which data blocks are free (erased), which are open as
//! write points, and which are closed and thus eligible as GC victims.
//!
//! Write points are one user lane and one GC lane per **channel**. Host
//! writes rotate round-robin over the user lanes, so consecutive host
//! pages land on distinct channels and a batched submission can program
//! them in parallel. GC copyback gets its own lane per channel: survivors
//! relocate into a block on the victim's channel, keeping relocated data
//! out of host blocks and letting relocation storms from victims on
//! different channels proceed in parallel.
//!
//! With one channel this is exactly one user lane and one GC lane.

use crate::error::FtlError;
use nand_sim::{BlockId, NandArray, NandGeometry, Ppn};

/// Lifecycle of a data-pool block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Erased, on the free list.
    Free,
    /// Open as a host-write point.
    UserOpen,
    /// Open as a GC copyback destination.
    GcOpen,
    /// Fully or partially programmed and sealed; GC victim candidate.
    Closed,
}

/// Which write point an allocation feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePoint {
    /// Host data.
    User,
    /// GC copyback data: survivors of a victim on `channel`.
    Gc {
        /// Channel the victim lives on (keeps copyback channel-affine).
        channel: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Open {
    block: u32, // relative block index
    next: u32,  // next in-block page
}

/// A write-point lane: a channel's user or GC write point.
#[derive(Debug, Clone, Copy)]
enum Lane {
    User(usize),
    Gc(usize),
}

/// The data-pool allocator.
#[derive(Debug)]
pub struct BlockPool {
    geometry: NandGeometry,
    start: u32,
    count: u32,
    state: Vec<BlockState>,
    free: Vec<u32>,
    /// Host write points, one per channel; `alloc` rotates over them so
    /// consecutive host pages stripe over channels.
    user: Vec<Option<Open>>,
    user_cursor: usize,
    /// GC copyback write points, one per channel.
    gc: Vec<Option<Open>>,
    /// Monotonic sequence assigned when a block is sealed (FIFO GC order).
    seal_seq: Vec<u64>,
    seal_counter: u64,
    /// Allocation frontier per block: pages handed out by `alloc`, whether
    /// or not they have been programmed yet. A block whose NAND program
    /// frontier is behind this has in-flight batch pages and must not be
    /// erased by GC.
    alloc_next: Vec<u32>,
    /// Per-block count of pages belonging to submitted-but-unreaped queued
    /// commands. Such pages are already programmed on the medium (state is
    /// eager), but the host has not observed their completion, so the block
    /// must not be erased out from under the outstanding command.
    inflight: Vec<u32>,
    /// Blocks with `inflight > 0` (kept incrementally; sizes the GC
    /// watermark raise in `Ftl::ensure_free`).
    inflight_blocks: usize,
    /// While capturing (between `begin_capture` / `end_capture`), every
    /// allocation's block is recorded here and pinned in `inflight`.
    capture: Option<Vec<u32>>,
    /// Times a lane's preferred channel had no free block and the pop fell
    /// back to another channel, collapsing lane parallelism.
    lane_steals: u64,
}

impl BlockPool {
    /// A pool over data blocks `[start, start + count)`, all erased.
    pub fn new(geometry: NandGeometry, start: BlockId, count: u32) -> Self {
        let channels = geometry.channels as usize;
        Self {
            geometry,
            start: start.0,
            count,
            state: vec![BlockState::Free; count as usize],
            free: (0..count).rev().collect(),
            user: vec![None; channels],
            user_cursor: 0,
            gc: vec![None; channels],
            seal_seq: vec![0; count as usize],
            seal_counter: 0,
            alloc_next: vec![0; count as usize],
            inflight: vec![0; count as usize],
            inflight_blocks: 0,
            capture: None,
            lane_steals: 0,
        }
    }

    /// Absolute block id for pool-relative index `rel`.
    #[inline]
    pub fn abs(&self, rel: u32) -> BlockId {
        BlockId(self.start + rel)
    }

    /// Pool-relative index for absolute `block`, if it is in the pool.
    #[inline]
    pub fn rel(&self, block: BlockId) -> Option<u32> {
        block.0.checked_sub(self.start).filter(|&r| r < self.count)
    }

    /// Number of erased blocks on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of blocks in the pool.
    pub fn block_count(&self) -> u32 {
        self.count
    }

    /// State of pool-relative block `rel`.
    pub fn state(&self, rel: u32) -> BlockState {
        self.state[rel as usize]
    }

    /// Times a lane had to steal a free block from a foreign channel.
    pub fn lane_steals(&self) -> u64 {
        self.lane_steals
    }

    /// Pop a free block, preferring `prefer_channel` so the requesting lane
    /// stays channel-affine; within a channel (and on fallback) the lowest
    /// erase count wins (simple wear leveling). With one channel this is
    /// exactly the old global min-wear pop. A cross-channel fallback is
    /// counted as a *lane steal*: it keeps the device writable but
    /// collapses the lane's channel parallelism, so it must be visible.
    fn pop_free(&mut self, nand: &NandArray, prefer_channel: Option<u32>) -> Option<u32> {
        if self.free.is_empty() {
            return None;
        }
        if let Some(ch) = prefer_channel {
            let on_channel = self
                .free
                .iter()
                .enumerate()
                .filter(|(_, &rel)| self.geometry.channel_of_block(self.abs(rel)) == ch)
                .min_by_key(|(_, &rel)| nand.erase_count(self.abs(rel)));
            if let Some((pos, _)) = on_channel {
                return Some(self.free.swap_remove(pos));
            }
            // No free block on the preferred channel: fall through to the
            // global pop, but record the parallelism loss. (With one
            // channel the filter above never misses while blocks remain,
            // so this counter can only fire on multi-channel devices.)
            self.lane_steals += 1;
        }
        let (pos, _) = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &rel)| nand.erase_count(self.abs(rel)))?;
        Some(self.free.swap_remove(pos))
    }

    fn open_mut(&mut self, lane: Lane) -> &mut Option<Open> {
        match lane {
            Lane::User(ch) => &mut self.user[ch],
            Lane::Gc(ch) => &mut self.gc[ch],
        }
    }

    fn alloc_in_lane(&mut self, nand: &NandArray, lane: Lane) -> Result<Ppn, FtlError> {
        let ppb = self.geometry.pages_per_block;
        // Close a full write point first.
        if let Some(open) = *self.open_mut(lane) {
            if open.next >= ppb {
                self.state[open.block as usize] = BlockState::Closed;
                self.seal_counter += 1;
                self.seal_seq[open.block as usize] = self.seal_counter;
                *self.open_mut(lane) = None;
            }
        }
        if self.open_mut(lane).is_none() {
            let (Lane::User(ch) | Lane::Gc(ch)) = lane;
            let rel = self.pop_free(nand, Some(ch as u32)).ok_or(FtlError::DeviceFull)?;
            self.state[rel as usize] = match lane {
                Lane::User(_) => BlockState::UserOpen,
                Lane::Gc(_) => BlockState::GcOpen,
            };
            *self.open_mut(lane) = Some(Open { block: rel, next: 0 });
        }
        let geometry = self.geometry;
        let start = self.start;
        let open = self.open_mut(lane).as_mut().expect("opened above");
        let ppn = geometry.ppn_at(BlockId(start + open.block), open.next);
        open.next += 1;
        let (block, next) = (open.block, open.next);
        self.alloc_next[block as usize] = next;
        if self.capture.is_some() {
            self.pin_inflight(block);
            self.capture.as_mut().expect("checked above").push(block);
        }
        Ok(ppn)
    }

    fn pin_inflight(&mut self, rel: u32) {
        if self.inflight[rel as usize] == 0 {
            self.inflight_blocks += 1;
        }
        self.inflight[rel as usize] += 1;
    }

    /// Start recording which blocks the following allocations touch (one
    /// entry per allocated page); each is pinned against GC until
    /// [`Self::release_inflight`]. Used by queued command execution.
    pub fn begin_capture(&mut self) {
        debug_assert!(self.capture.is_none(), "capture windows do not nest");
        self.capture = Some(Vec::new());
    }

    /// Stop recording and return the captured block list (to be released
    /// when the command is reaped).
    pub fn end_capture(&mut self) -> Vec<u32> {
        self.capture.take().expect("end_capture without begin_capture")
    }

    /// Unpin blocks captured for a queued command once the host reaps its
    /// completion.
    pub fn release_inflight(&mut self, blocks: &[u32]) {
        for &rel in blocks {
            debug_assert!(self.inflight[rel as usize] > 0, "inflight underflow");
            self.inflight[rel as usize] -= 1;
            if self.inflight[rel as usize] == 0 {
                self.inflight_blocks -= 1;
            }
        }
    }

    /// Blocks currently pinned by unreaped queued commands. `ensure_free`
    /// raises its GC watermarks by this much: pinned blocks are ineligible
    /// victims, so the same number of extra free blocks must be banked to
    /// keep GC from stalling at high queue depth.
    pub fn inflight_pinned_blocks(&self) -> usize {
        self.inflight_blocks
    }

    /// Allocate the next physical page for `wp`, opening a fresh block from
    /// the free list when needed. Host allocations rotate round-robin over
    /// the per-channel user lanes; GC allocations go to the victim's
    /// channel's lane. Fails with `DeviceFull` when no block is available.
    pub fn alloc(&mut self, nand: &NandArray, wp: WritePoint) -> Result<Ppn, FtlError> {
        match wp {
            WritePoint::User => {
                let ch = self.user_cursor;
                self.user_cursor = (ch + 1) % self.user.len();
                self.alloc_in_lane(nand, Lane::User(ch))
            }
            WritePoint::Gc { channel } => {
                let ch = (channel as usize).min(self.gc.len() - 1);
                self.alloc_in_lane(nand, Lane::Gc(ch))
            }
        }
    }

    /// Whether `rel` may be chosen as a GC victim: closed (not a write
    /// point), no allocated-but-unprogrammed pages still in flight from a
    /// batched submission, and no pages of submitted-but-unreaped queued
    /// commands.
    pub fn victim_eligible(&self, rel: u32, nand: &NandArray) -> bool {
        self.state[rel as usize] == BlockState::Closed
            && nand.write_frontier(self.abs(rel)) >= self.alloc_next[rel as usize]
            && self.inflight[rel as usize] == 0
    }

    /// Return an erased victim to the free list.
    pub fn release(&mut self, rel: u32) {
        debug_assert_eq!(self.state[rel as usize], BlockState::Closed);
        self.state[rel as usize] = BlockState::Free;
        self.alloc_next[rel as usize] = 0;
        self.free.push(rel);
    }

    /// Rebuild pool state after recovery from NAND program frontiers:
    /// untouched blocks are free, anything programmed is sealed. (Real MLC
    /// firmware also refuses to append to a block left open across power
    /// loss.)
    pub fn rebuild_from_nand(&mut self, nand: &NandArray) {
        self.user.fill(None);
        self.user_cursor = 0;
        self.gc.fill(None);
        self.free.clear();
        // A crash drops the submission queue; nothing is in flight anymore.
        self.inflight = vec![0; self.count as usize];
        self.inflight_blocks = 0;
        self.capture = None;
        for rel in 0..self.count {
            let frontier = nand.write_frontier(self.abs(rel));
            self.alloc_next[rel as usize] = frontier;
            if frontier == 0 {
                self.state[rel as usize] = BlockState::Free;
                self.free.push(rel);
            } else {
                self.state[rel as usize] = BlockState::Closed;
                self.seal_counter += 1;
                self.seal_seq[rel as usize] = self.seal_counter;
            }
        }
    }

    /// Seal order of a closed block (lower = sealed earlier).
    pub fn seal_seq(&self, rel: u32) -> u64 {
        self.seal_seq[rel as usize]
    }

    /// Latest seal sequence handed out; `seal_counter() - seal_seq(rel)`
    /// is a block's age in seals (cost-benefit GC uses it).
    pub fn seal_counter(&self) -> u64 {
        self.seal_counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_sim::{NandTiming, SimClock};

    const USER: WritePoint = WritePoint::User;
    const GC0: WritePoint = WritePoint::Gc { channel: 0 };

    fn setup() -> (BlockPool, NandArray) {
        let g = NandGeometry::new(512, 4, 10);
        let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
        // Data pool: blocks 2..10 (first two "meta").
        (BlockPool::new(g, BlockId(2), 8), nand)
    }

    #[test]
    fn allocations_are_sequential_within_a_block() {
        let (mut pool, nand) = setup();
        let p0 = pool.alloc(&nand, USER).unwrap();
        let p1 = pool.alloc(&nand, USER).unwrap();
        assert_eq!(p1.0, p0.0 + 1);
        // Same block until it fills (4 pages).
        let p2 = pool.alloc(&nand, USER).unwrap();
        let p3 = pool.alloc(&nand, USER).unwrap();
        assert_eq!(nand.geometry().block_of(p0), nand.geometry().block_of(p3));
        let p4 = pool.alloc(&nand, USER).unwrap();
        assert_ne!(nand.geometry().block_of(p0), nand.geometry().block_of(p4));
        let _ = (p2, p4);
    }

    #[test]
    fn user_and_gc_write_points_use_distinct_blocks() {
        let (mut pool, nand) = setup();
        let u = pool.alloc(&nand, USER).unwrap();
        let g = pool.alloc(&nand, GC0).unwrap();
        assert_ne!(nand.geometry().block_of(u), nand.geometry().block_of(g));
    }

    #[test]
    fn gc_lanes_are_per_channel() {
        let g = NandGeometry::new(512, 4, 16).with_parallelism(4, 1);
        let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
        let mut pool = BlockPool::new(g, BlockId(0), 16);
        let a = pool.alloc(&nand, GC0).unwrap();
        let b = pool.alloc(&nand, WritePoint::Gc { channel: 1 }).unwrap();
        let c = pool.alloc(&nand, GC0).unwrap();
        assert_ne!(g.block_of(a), g.block_of(b), "distinct channels, distinct GC blocks");
        assert_eq!(g.block_of(a), g.block_of(c), "same channel continues its open lane");
        assert_eq!(g.channel_of_block(g.block_of(a)), 0);
        assert_eq!(g.channel_of_block(g.block_of(b)), 1);
    }

    #[test]
    fn lane_steal_fires_when_preferred_channel_is_dry() {
        let g = NandGeometry::new(512, 4, 4).with_parallelism(2, 1);
        let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
        let mut pool = BlockPool::new(g, BlockId(0), 4);
        // Blocks 0 and 2 are channel 0; drain them through the channel-0
        // GC lane (2 blocks x 4 pages).
        for _ in 0..8 {
            pool.alloc(&nand, GC0).unwrap();
        }
        assert_eq!(pool.lane_steals(), 0);
        // The ninth allocation must open a third block for channel 0 —
        // only channel-1 blocks remain, so the lane steals one.
        let p = pool.alloc(&nand, GC0).unwrap();
        assert_eq!(g.channel_of_block(g.block_of(p)), 1, "stolen block is foreign");
        assert_eq!(pool.lane_steals(), 1, "cross-channel fallback must be counted");
    }

    #[test]
    fn exhaustion_yields_device_full() {
        let (mut pool, nand) = setup();
        // 8 blocks * 4 pages = 32 allocations, all to the user point.
        for _ in 0..32 {
            pool.alloc(&nand, USER).unwrap();
        }
        assert_eq!(pool.alloc(&nand, USER), Err(FtlError::DeviceFull));
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn full_blocks_become_victim_eligible() {
        let (mut pool, mut nand) = setup();
        for _ in 0..4 {
            let p = pool.alloc(&nand, USER).unwrap();
            nand.program(p, &[0u8; 512]).unwrap();
        }
        // Block not yet closed: closing happens lazily on the next alloc.
        pool.alloc(&nand, USER).unwrap();
        let closed: Vec<u32> = (0..8).filter(|&r| pool.victim_eligible(r, &nand)).collect();
        assert_eq!(closed.len(), 1);
    }

    #[test]
    fn unprogrammed_batch_pages_block_victim_eligibility() {
        let (mut pool, mut nand) = setup();
        // Fill a block with allocations but only program three of the four
        // pages — the last allocation is still in flight.
        let mut pages = Vec::new();
        for _ in 0..4 {
            pages.push(pool.alloc(&nand, USER).unwrap());
        }
        for p in &pages[..3] {
            nand.program(*p, &[0u8; 512]).unwrap();
        }
        pool.alloc(&nand, USER).unwrap(); // closes the full block
        let rel = pool.rel(nand.geometry().block_of(pages[0])).unwrap();
        assert_eq!(pool.state(rel), BlockState::Closed);
        assert!(!pool.victim_eligible(rel, &nand), "in-flight page must pin the block");
        nand.program(pages[3], &[0u8; 512]).unwrap();
        assert!(pool.victim_eligible(rel, &nand));
    }

    #[test]
    fn release_returns_block_to_free_list() {
        let (mut pool, mut nand) = setup();
        for _ in 0..5 {
            let p = pool.alloc(&nand, USER).unwrap();
            nand.program(p, &[0u8; 512]).unwrap();
        }
        let victim = (0..8).find(|&r| pool.victim_eligible(r, &nand)).unwrap();
        let before = pool.free_count();
        nand.erase(pool.abs(victim)).unwrap();
        pool.release(victim);
        assert_eq!(pool.free_count(), before + 1);
        assert_eq!(pool.state(victim), BlockState::Free);
    }

    #[test]
    fn wear_leveling_prefers_low_erase_count() {
        let (mut pool, mut nand) = setup();
        // Wear out block rel=0 (abs 2) heavily.
        for _ in 0..5 {
            nand.erase(BlockId(2)).unwrap();
        }
        let p = pool.alloc(&nand, USER).unwrap();
        // Allocation should come from some block other than the worn one.
        assert_ne!(nand.geometry().block_of(p), BlockId(2));
    }

    #[test]
    fn rebuild_from_nand_seals_programmed_blocks() {
        let (mut pool, mut nand) = setup();
        let p = pool.alloc(&nand, USER).unwrap();
        nand.program(p, &[0u8; 512]).unwrap();
        pool.rebuild_from_nand(&nand);
        let rel = pool.rel(nand.geometry().block_of(p)).unwrap();
        assert_eq!(pool.state(rel), BlockState::Closed);
        assert_eq!(pool.free_count(), 7);
    }

    #[test]
    fn user_allocations_stripe_across_channels() {
        let g = NandGeometry::new(512, 4, 16).with_parallelism(4, 1);
        let nand = NandArray::with_timing(g, NandTiming::zero(), SimClock::new());
        let mut pool = BlockPool::new(g, BlockId(0), 16);
        let ppns: Vec<Ppn> = (0..4).map(|_| pool.alloc(&nand, USER).unwrap()).collect();
        let mut channels: Vec<u32> =
            ppns.iter().map(|&p| g.channel_of_block(g.block_of(p))).collect();
        channels.sort_unstable();
        channels.dedup();
        assert_eq!(channels.len(), 4, "4 consecutive host pages span 4 channels");
        // The fifth allocation wraps back to the first lane's open block.
        let p4 = pool.alloc(&nand, USER).unwrap();
        assert_eq!(g.block_of(p4), g.block_of(ppns[0]));
        assert_eq!(p4.0, ppns[0].0 + 1);
    }

    #[test]
    fn captured_blocks_pin_victims_until_released() {
        let (mut pool, mut nand) = setup();
        // Fill one block inside a capture window, program every page.
        pool.begin_capture();
        let mut pages = Vec::new();
        for _ in 0..4 {
            let p = pool.alloc(&nand, USER).unwrap();
            nand.program(p, &[0u8; 512]).unwrap();
            pages.push(p);
        }
        let captured = pool.end_capture();
        assert_eq!(captured.len(), 4);
        pool.alloc(&nand, USER).unwrap(); // closes the full block
        let rel = pool.rel(nand.geometry().block_of(pages[0])).unwrap();
        assert_eq!(pool.state(rel), BlockState::Closed);
        assert_eq!(pool.inflight_pinned_blocks(), 1);
        assert!(
            !pool.victim_eligible(rel, &nand),
            "fully-programmed block must stay pinned while its command is unreaped"
        );
        pool.release_inflight(&captured);
        assert_eq!(pool.inflight_pinned_blocks(), 0);
        assert!(pool.victim_eligible(rel, &nand));
    }

    #[test]
    fn overlapping_command_pins_release_independently() {
        let (mut pool, mut nand) = setup();
        pool.begin_capture();
        let p0 = pool.alloc(&nand, USER).unwrap();
        nand.program(p0, &[0u8; 512]).unwrap();
        let first = pool.end_capture();
        pool.begin_capture();
        let p1 = pool.alloc(&nand, USER).unwrap();
        nand.program(p1, &[0u8; 512]).unwrap();
        let second = pool.end_capture();
        // Both commands touched the same open block.
        assert_eq!(first, second);
        assert_eq!(pool.inflight_pinned_blocks(), 1);
        pool.release_inflight(&first);
        assert_eq!(pool.inflight_pinned_blocks(), 1, "second command still pins");
        pool.release_inflight(&second);
        assert_eq!(pool.inflight_pinned_blocks(), 0);
    }

    #[test]
    fn rebuild_clears_inflight_pins() {
        let (mut pool, mut nand) = setup();
        pool.begin_capture();
        let p = pool.alloc(&nand, USER).unwrap();
        nand.program(p, &[0u8; 512]).unwrap();
        let _captured = pool.end_capture();
        assert_eq!(pool.inflight_pinned_blocks(), 1);
        pool.rebuild_from_nand(&nand);
        assert_eq!(pool.inflight_pinned_blocks(), 0);
    }

    #[test]
    fn rel_abs_round_trip() {
        let (pool, _) = setup();
        assert_eq!(pool.abs(3), BlockId(5));
        assert_eq!(pool.rel(BlockId(5)), Some(3));
        assert_eq!(pool.rel(BlockId(1)), None); // meta area
        assert_eq!(pool.rel(BlockId(10)), None); // beyond pool
    }
}
