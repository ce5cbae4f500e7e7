//! Garbage collection: victim selection, the one relocation loop, and the
//! watermark policy: budgeted background steps inside the slack band, a
//! drain on the caller's timeline at the hard floor (DESIGN.md §12
//! "Copyback over every channel", §13).

use super::*;

/// Hard floor of free data blocks: at it a command drains whole victims
/// on its own timeline ([`Ftl::ensure_free`]). Background collection
/// starts one block above the slack banked on top of it for open lanes
/// ([`Ftl::collect_after`]).
pub(crate) const GC_LOW_WATER: usize = 3;
/// A drain stops when free data blocks reach this count (plus the same
/// slack).
pub(crate) const GC_HIGH_WATER: usize = 6;
/// Pages one background step relocates. Small, so a step reserves few
/// lanes and the foreground tail pays little contention; exhausting it
/// parks the victim for later commands (`gc_budget_deferrals`).
const GC_BUDGET_PAGES: usize = 4;
/// Free blocks above `low` at which background collection starts.
/// Tight, so victims have had maximal time to accumulate invalidations
/// before they are picked. A large budget with a wide band collects
/// victims young and hogs lanes: 4x the write amplification and 5x the
/// write p99 on a steady-state aged device (measured by PR 8; DESIGN.md
/// §13 "Watermark math").
const GC_SOFT_HEADROOM: usize = 1;

/// Where a command's collection is measured from, taken just before its own
/// program: the submission time its background window opens at, and the
/// blocks unreaped queued commands pin. The pins its program is about to
/// take do not raise its own band — at queue depth one that would run a
/// schedule the blocking call does not.
#[derive(Clone, Copy)]
pub(super) struct Mark {
    at: u64,
    pinned: usize,
}

impl Ftl {
    /// Pick a GC victim per the configured policy: greedy (fewest valid
    /// pages) or FIFO (oldest sealed block). Fully valid blocks are never
    /// picked — erasing them reclaims nothing — and a block already being
    /// collected incrementally is skipped.
    fn pick_victim(&self) -> Option<(u32, u32)> {
        let ppb = self.cfg.geometry.pages_per_block;
        // Snapshot-pinned pages that are dead in the live map still cost a
        // copyback when their block is collected, so they count into the
        // victim's effective valid-page total. Computed once per selection
        // and only when snapshots exist — with an empty table the selection
        // is exactly the historical one.
        let pinned_dead = if self.snaps.is_empty() {
            Vec::new()
        } else {
            self.snaps.pinned_dead_by_block(
                self.pool.block_count() as usize,
                |p| self.pool.rel(self.cfg.geometry.block_of(p)),
                |p| self.map.is_live(p),
            )
        };
        let mut best: Option<(u32, u32, u64)> = None;
        for rel in 0..self.pool.block_count() {
            if !self.pool.victim_eligible(rel, &self.nand) {
                continue;
            }
            if self.gc_job.as_ref().is_some_and(|j| j.rel == rel) {
                continue; // already mid-collection
            }
            let mut valid = self.map.valid_pages(self.pool.abs(rel));
            if !pinned_dead.is_empty() {
                valid += pinned_dead[rel as usize];
            }
            if valid >= ppb {
                continue; // nothing reclaimable here
            }
            let rank = match self.cfg.gc_policy {
                crate::config::GcPolicy::Greedy => valid as u64,
                crate::config::GcPolicy::Fifo => self.pool.seal_seq(rel),
            };
            if best.is_none_or(|(_, _, r)| rank < r) {
                best = Some((rel, valid, rank));
                if rank == 0 && self.cfg.gc_policy == crate::config::GcPolicy::Greedy {
                    break; // cannot do better
                }
            }
        }
        best.map(|(rel, valid, _)| (rel, valid))
    }

    /// Repoint every reference to the relocated page `ppn` — live-map LPNs
    /// and snapshot table entries — at `dest`, logging one delta per
    /// reference so recovery replays the move. A page held only by
    /// snapshots skips the live map entirely (it has no referrers there).
    fn relocate_mappings(&mut self, ppn: Ppn, dest: Ppn) -> Result<(), FtlError> {
        if self.map.is_live(ppn) {
            let moved = self.map.relocate(ppn, dest)?;
            for &lpn in moved {
                self.log.append(Delta { lpn, old: ppn, new: dest });
            }
        } else {
            self.stats.snapshot_pinned_relocations += 1;
        }
        if !self.snaps.is_empty() {
            for (id, offset) in self.snaps.relocate(ppn, dest) {
                self.log.append(Delta {
                    lpn: snapshot::snap_delta_lpn(id, offset),
                    old: ppn,
                    new: dest,
                });
            }
        }
        Ok(())
    }

    /// Start a collection job on the best victim, if any. The victim
    /// selection counts as one `gc_events`.
    fn gc_begin_job(&mut self) -> bool {
        debug_assert!(self.gc_job.is_none(), "one collection job at a time");
        let Some((rel, valid)) = self.pick_victim() else {
            return false;
        };
        self.stats.gc_events += 1;
        self.gc_job = Some(GcJob { rel, next_idx: 0, valid });
        true
    }

    /// The one relocation loop. Relocate up to `budget` still-live pages of
    /// the in-progress victim; once every page has been examined, finish
    /// the job (mapping flush, erase, release). Liveness is checked per
    /// page at relocation time, so pages the host invalidated while the job
    /// was parked are skipped. Relocation keeps both live-map referents and
    /// snapshot-pinned pages (frozen data must survive the erase even when
    /// nothing in the live map references it anymore). Returns the pages
    /// relocated this step. `scratch` is the device's relocation scratch,
    /// lent by the caller for the step.
    fn gc_step(&mut self, budget: usize, scratch: &mut GcScratch) -> Result<u64, FtlError> {
        let GcJob { rel, next_idx, .. } =
            *self.gc_job.as_ref().expect("gc_step without a job");
        let block = self.pool.abs(rel);
        let ppb = self.cfg.geometry.pages_per_block;
        let mut idx = next_idx;
        let GcScratch { moves } = scratch;
        moves.clear();
        while idx < ppb && moves.len() < budget {
            let ppn = self.cfg.geometry.ppn_at(block, idx);
            if self.map.is_live(ppn) || self.snaps.is_pinned(ppn) {
                moves.push((ppn, Ppn::INVALID));
            }
            idx += 1;
        }
        if !moves.is_empty() {
            for (_, dest) in moves.iter_mut() {
                *dest = self.pool.alloc(&self.nand, WritePoint::Gc)?;
            }
            // One copyback inside the array: the reads go out as one
            // batched submission (they come from one block, hence one
            // unit, so this mostly amortizes the submission), then the
            // programs, which rotate over the GC lanes, one per channel,
            // and overlap.
            self.nand.copyback_batch(moves)?;
            for &(ppn, dest) in moves.iter() {
                self.relocate_mappings(ppn, dest)?;
                self.stats.copyback_pages += 1;
            }
        }
        // Only now is the examined stretch behind us: a step that failed
        // above leaves the cursor where it was, so nothing live is skipped.
        self.gc_job.as_mut().expect("job exists").next_idx = idx;
        if idx == ppb {
            // The persisted mapping must stop referencing the victim
            // before the victim's data disappears.
            self.flush_log()?;
            self.nand.erase(block)?;
            self.stats.gc_erases += 1;
            self.pool.release(rel);
            self.gc_job = None;
        }
        Ok(moves.len() as u64)
    }

    /// Run one GC step as a `gc` internal pass. `background` opens a
    /// background timing window at that submission time: relocations
    /// reserve idle channel/way lanes from there and the foreground command
    /// is never charged (it only feels GC through lane contention). Without
    /// it the step runs on the caller's timeline — the synchronous drain.
    fn gc_step_traced(&mut self, budget: usize, background: Option<u64>) -> Result<u64, FtlError> {
        let saved = background.map(|at| self.nand.begin_background(at));
        let r = self.internal_pass("gc", OpClass::Gc, |f| {
            let mut scratch = std::mem::take(&mut f.gc_scratch);
            let r = f.gc_step(budget, &mut scratch);
            f.gc_scratch = scratch;
            r
        });
        if let Some(saved) = saved {
            self.nand.end_background(saved);
        }
        r
    }

    /// Collect whole victims on the caller's own timeline until `high`
    /// blocks are free or nothing is collectible. The submission-time delta
    /// across the drain is exactly the stall the host observes.
    fn drain_to(&mut self, high: usize) -> Result<(), FtlError> {
        let t0 = self.nand.submission_now();
        while self.pool.free_count() < high {
            if self.gc_job.is_none() && !self.gc_begin_job() {
                break;
            }
            self.gc_step_traced(usize::MAX, None)?;
        }
        self.stats.gc_stall_ns += self.nand.submission_now() - t0;
        Ok(())
    }

    /// The slack band's lower edge `low` and the drain's target `high`, with
    /// `pinned` blocks held by unreaped queued commands: ineligible victims,
    /// banked on top so a deep queue cannot strand GC. Every open lane — one
    /// user and one GC lane per channel — can pull a fresh block between two
    /// GC checks, so both sit `2·(channels − 1)` blocks above the one-channel
    /// pair; at one channel `low` is the hard floor.
    fn watermarks(&self, pinned: usize) -> (usize, usize) {
        let extra_lanes = 2 * (self.cfg.geometry.channels as usize - 1);
        let low = GC_LOW_WATER + pinned + extra_lanes;
        (low, GC_HIGH_WATER + extra_lanes + pinned)
    }

    /// Before a command allocates: at the hard floor ([`GC_LOW_WATER`] plus
    /// the pinned blocks), the point past which allocation is at risk, the
    /// command drains whole victims on its own timeline — the backstop
    /// between a full pool and `DeviceFull`, and the only place relocations
    /// fill the open GC lanes before opening a block. Collection above the
    /// floor runs after the command's own program, in [`Self::collect_after`].
    pub(super) fn ensure_free(&mut self) -> Result<(), FtlError> {
        if self.pool.free_count() <= self.pool.hard_floor() {
            let (_, high) = self.watermarks(self.pool.inflight_pinned_blocks());
            self.drain_to(high)?;
        }
        if self.pool.free_count() == 0 {
            return Err(FtlError::DeviceFull);
        }
        Ok(())
    }

    /// The [`Mark`] a command takes just before its own program.
    pub(super) fn mark(&self) -> Mark {
        Mark { at: self.nand.submission_now(), pinned: self.pool.inflight_pinned_blocks() }
    }

    /// After a command's `pages` are programmed and mapped: its share of the
    /// slack band's collection, as budgeted background steps in a window
    /// opened at `mark.at`. The command's own program is booked first, so
    /// relocations on other units run beside it instead of queueing in
    /// front of it.
    ///
    /// Inside the band (free at most `low + GC_SOFT_HEADROOM`) the command
    /// owes `pages · v / (ppb − v)` relocations against the current victim's
    /// `v` valid pages — what its allocation costs the pool in steady state
    /// — where `pages` also counts the log and checkpoint pages programmed
    /// since the last accrual. Steps run until the debt is paid, at least
    /// one per command, and go on while free is within `reserve` blocks of
    /// the hard floor: the next command allocates before its own collection
    /// runs, a chunk of its pages must not find the floor (a drain), and
    /// while this command is unreaped its pins raise that floor. Free above
    /// `low` ends the loop and clears the debt; at one channel (`low` is the
    /// floor) that is the only stop. The `4·ppb` page bound prevents a death
    /// spiral when victims are nearly all-valid; past it the hard floor
    /// takes over.
    pub(super) fn collect_after(&mut self, pages: usize, mark: Mark) -> Result<(), FtlError> {
        let meta = self.stats.meta_page_writes;
        let pages = pages as u64 + (meta - self.gc_meta_seen);
        self.gc_meta_seen = meta;
        let (low, _) = self.watermarks(mark.pinned);
        if self.pool.free_count() > low + GC_SOFT_HEADROOM {
            self.gc_debt = 0;
            return Ok(());
        }
        if self.gc_job.is_none() && !self.gc_begin_job() {
            return Ok(());
        }
        let ppb = self.cfg.geometry.pages_per_block as usize;
        let v = self.gc_job.as_ref().expect("begun above").valid as u64;
        self.gc_debt += pages * v / (ppb as u64 - v);
        let reserve = 1 + self.submit_chunk_pages().div_ceil(ppb);
        let max_steps = (4 * ppb / GC_BUDGET_PAGES).max(1);
        for _ in 0..max_steps {
            if self.gc_job.is_none() && !self.gc_begin_job() {
                break;
            }
            let moved = self.gc_step_traced(GC_BUDGET_PAGES, Some(mark.at))?;
            self.gc_debt = self.gc_debt.saturating_sub(moved);
            if self.gc_job.is_some() {
                self.stats.gc_budget_deferrals += 1;
            }
            let free = self.pool.free_count();
            if free > low {
                self.gc_debt = 0;
                break;
            }
            if self.gc_debt == 0 && free > self.pool.hard_floor() + reserve {
                break;
            }
        }
        Ok(())
    }
}
