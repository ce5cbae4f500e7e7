//! Data-pool block management: free list, active write points, block states.
//!
//! The pool tracks which data blocks are free (erased), which are open as
//! write points, and which are closed and thus eligible as GC victims.
//!
//! Write points are one user lane and one GC lane per **channel**. Host
//! writes rotate round-robin over the user lanes, so consecutive host
//! pages land on distinct channels and a batched submission can program
//! them in parallel. GC copyback rotates the same way over its own lanes,
//! so a relocation step programs on every channel instead of queueing on
//! the victim's unit. At or below the hard floor the rotation skips full GC
//! lanes while one has room: a drain opens one block, not one per channel.
//! At any free count, a GC lane that must open a block skips a channel
//! down to its last free block while another lane can go on: victims free
//! blocks on their own channel only, and that last block keeps the
//! channel's user lane from stealing one elsewhere (a *lane steal*, two
//! lanes on one channel).
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
    /// GC copyback data: survivors of a victim, on any channel.
    Gc,
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
    /// GC copyback write points, one per channel, rotated over the same way.
    gc: Vec<Option<Open>>,
    gc_cursor: usize,
    /// The FTL's GC low watermark, the base of [`Self::hard_floor`].
    low_water: usize,
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
    /// Emptied capture lists of reaped commands, which the next captures
    /// reuse: at most one per command that was ever in flight at once.
    spare_captures: Vec<Vec<u32>>,
    /// Times a lane's preferred channel had no free block and the pop fell
    /// back to another channel, collapsing lane parallelism.
    lane_steals: u64,
}

impl BlockPool {
    /// A pool over blocks `[start, start + count)`, all erased, with GC low watermark `low_water`.
    pub fn new(geometry: NandGeometry, start: BlockId, count: u32, low_water: usize) -> Self {
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
            gc_cursor: 0,
            low_water,
            seal_seq: vec![0; count as usize],
            seal_counter: 0,
            alloc_next: vec![0; count as usize],
            inflight: vec![0; count as usize],
            inflight_blocks: 0,
            capture: None,
            spare_captures: Vec::new(),
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

    /// Free blocks on channel `ch`.
    fn free_on(&self, ch: usize) -> usize {
        let on = |&&rel: &&u32| self.geometry.channel_of_block(self.abs(rel)) as usize == ch;
        self.free.iter().filter(on).count()
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
        self.capture = Some(self.spare_captures.pop().unwrap_or_default());
    }

    /// Stop recording and return the captured block list (to be released
    /// when the command is reaped).
    pub fn end_capture(&mut self) -> Vec<u32> {
        self.capture.take().expect("end_capture without begin_capture")
    }

    /// Take back a captured list once [`Self::release_inflight`] has unpinned
    /// it: a later [`Self::begin_capture`] records into its capacity.
    pub fn recycle_capture(&mut self, mut blocks: Vec<u32>) {
        if blocks.capacity() > 0 {
            blocks.clear();
            self.spare_captures.push(blocks);
        }
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

    /// The low watermark plus the pinned blocks: at or below it `ensure_free`
    /// drains and a GC allocation opens no block while a GC lane has room.
    pub fn hard_floor(&self) -> usize {
        self.low_water + self.inflight_blocks
    }

    /// Allocate the next physical page for `wp`, opening a fresh block from
    /// the free list when needed; host and GC allocations each rotate
    /// round-robin over their per-channel lanes (see the module doc for when
    /// a GC allocation skips a lane). Fails with `DeviceFull` when no block is
    /// available.
    pub fn alloc(&mut self, nand: &NandArray, wp: WritePoint) -> Result<Ppn, FtlError> {
        match wp {
            WritePoint::User => {
                let ch = self.user_cursor;
                self.user_cursor = (ch + 1) % self.user.len();
                self.alloc_in_lane(nand, Lane::User(ch))
            }
            WritePoint::Gc => {
                let lanes = self.gc.len();
                let mut ch = self.gc_cursor;
                let mut rotation = (ch..ch + lanes).map(|l| l % lanes);
                let ppb = self.geometry.pages_per_block;
                let room = |l: usize| self.gc[l].is_some_and(|o| o.next < ppb);
                if self.free.len() <= self.hard_floor() {
                    ch = rotation.clone().find(|&l| room(l)).unwrap_or(ch);
                }
                if !room(ch) {
                    // Opening a block: leave a channel its last free block.
                    ch = rotation.find(|&l| room(l) || self.free_on(l) > 1).unwrap_or(ch);
                }
                self.gc_cursor = (ch + 1) % lanes;
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
        self.gc_cursor = 0;
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
}
