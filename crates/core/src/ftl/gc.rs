//! Garbage collection: victim selection, the one relocation loop, and the
//! watermark policy: budgeted background steps inside the slack band, a
//! drain on the caller's timeline at the hard floor (DESIGN.md §12
//! "Copyback over every channel", §13).

use super::*;

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
            let moved = moved.len() as u64;
            self.note_delta(STREAM_FTL, moved);
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
                self.note_delta(STREAM_FTL, 1);
            }
        }
        Ok(())
    }

    /// Start a collection job on the best victim, if any. The victim
    /// selection counts as one `gc_events`.
    fn gc_begin_job(&mut self) -> bool {
        debug_assert!(self.gc_job.is_none(), "one collection job at a time");
        let Some((rel, _valid)) = self.pick_victim() else {
            return false;
        };
        self.stats.gc_events += 1;
        self.gc_job = Some(GcJob { rel, next_idx: 0 });
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
        let GcJob { rel, next_idx } =
            *self.gc_job.as_ref().expect("gc_step without a job");
        let block = self.pool.abs(rel);
        let ppb = self.cfg.geometry.pages_per_block;
        let mut idx = next_idx;
        let GcScratch { live, dests, data } = scratch;
        live.clear();
        while idx < ppb && live.len() < budget {
            let ppn = self.cfg.geometry.ppn_at(block, idx);
            if self.map.is_live(ppn) || self.snaps.is_pinned(ppn) {
                live.push(ppn);
            }
            idx += 1;
        }
        if !live.is_empty() {
            // All relocation reads go out as one batched submission (they
            // come from one block, hence one unit, so this mostly amortizes
            // the submission); the programs below rotate over the GC lanes,
            // one per channel, and overlap.
            let page_size = self.cfg.geometry.page_size;
            let need = live.len() * page_size;
            if data.len() < need {
                data.resize(need, 0);
            }
            self.nand.read_batch(live.iter().copied().zip(data.chunks_mut(page_size)))?;
            dests.clear();
            for _ in live.iter() {
                dests.push(self.pool.alloc(&self.nand, WritePoint::Gc)?);
            }
            self.nand.program_batch(dests.iter().copied().zip(data.chunks(page_size)))?;
            for (&ppn, &dest) in live.iter().zip(dests.iter()) {
                self.relocate_mappings(ppn, dest)?;
                self.stats.copyback_pages += 1;
            }
            // Blame this step's copybacks on the streams whose
            // invalidations hollowed the victim out, against its current
            // weights — exact-sum per call, so the wa_ledger invariant
            // holds even with the rest of the victim in flight.
            let w = std::mem::take(&mut self.block_blame[rel as usize]);
            self.settle_blame(BlameKind::Gc, live.len() as u64, &w);
            self.block_blame[rel as usize] = w;
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
            self.block_blame[rel as usize].clear();
            self.gc_job = None;
        }
        Ok(live.len() as u64)
    }

    /// Run one GC step as a `gc` internal pass. `background` opens a
    /// background timing window: relocations reserve idle channel/way lanes
    /// from device time and the foreground command is never charged (it
    /// only feels GC through lane contention). Without it the step runs on
    /// the caller's timeline — the synchronous drain.
    fn gc_step_traced(&mut self, budget: usize, background: bool) -> Result<u64, FtlError> {
        let victim = self.pool.abs(self.gc_job.as_ref().expect("step without a job").rel);
        let saved = background.then(|| self.nand.begin_background());
        let r = self.internal_pass("gc", OpClass::Gc, None, victim.0 as u64, |f| {
            f.in_gc = true;
            let mut scratch = std::mem::take(&mut f.gc_scratch);
            let r = f.gc_step(budget, &mut scratch);
            f.gc_scratch = scratch;
            f.in_gc = false;
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
            self.gc_step_traced(usize::MAX, false)?;
        }
        self.stats.gc_stall_ns += self.nand.submission_now() - t0;
        Ok(())
    }

    pub(super) fn ensure_free(&mut self) -> Result<(), FtlError> {
        // Every open lane — one user and one GC lane per channel — can
        // pull a fresh block from the free list between two GC checks (a
        // batched submission feeds every user lane, a relocation step
        // every GC lane), so the watermarks shift up by the lanes beyond
        // the baseline single user + single GC pair: `2·(channels − 1)`
        // blocks banked. At one channel this is exactly the configured
        // low/high pair.
        // Blocks pinned by unreaped queued commands are ineligible victims,
        // so the same number of extra free blocks must be banked on top —
        // otherwise a deep queue can strand GC with nothing collectible.
        let extra_lanes = 2 * (self.cfg.geometry.channels as usize - 1);
        let pinned = self.pool.inflight_pinned_blocks();
        let low = self.pool.hard_floor() + extra_lanes;
        let high = self.cfg.gc_high_water + extra_lanes + pinned;
        // `low` banks `extra_lanes + pinned` blocks of slack precisely so
        // open lanes can pull fresh blocks between GC checks: dipping into
        // it is normal operation, and collection there runs as budgeted
        // background steps — at most `GC_BUDGET_PAGES` relocations each,
        // dispatched onto idle lanes — so the foreground never waits for
        // whole victims. The *hard floor* is the un-adjusted
        // `gc_low_water + pinned`, the point past which allocation is at
        // risk: only there does the command drain on its own timeline, the
        // backstop between a full pool and `DeviceFull`, and only there do
        // relocations fill the open GC lanes before opening a block.
        if self.pool.free_count() <= self.pool.hard_floor() {
            self.drain_to(high)?;
        } else if self.pool.free_count() <= low + GC_SOFT_HEADROOM {
            // Catch up by how far free has fallen into the slack band: `d`
            // is 0 at the soft mark and `extra_lanes` just above the hard
            // floor, and once `(1 + d)²` steps are done the loop stops while
            // free is still above the floor (stopping *at* it would hand the
            // next command a drain). Each step reserves lanes ahead of the
            // host, so steps beyond what the deficit needs delay the
            // command's own program (by up to ~100 ms on an aged 4-channel
            // device). At one channel `low` is the floor and this stop
            // never fires. The `4·ppb` page bound prevents a death spiral
            // when victims are nearly all-valid; past it the hard floor
            // above takes over.
            let d = low + GC_SOFT_HEADROOM - self.pool.free_count();
            let paced = (1 + d) * (1 + d);
            let ppb = self.cfg.geometry.pages_per_block as usize;
            let max_steps = (4 * ppb / GC_BUDGET_PAGES).max(1);
            for steps in 1..=max_steps {
                if self.gc_job.is_none() && !self.gc_begin_job() {
                    break;
                }
                self.gc_step_traced(GC_BUDGET_PAGES, true)?;
                if self.gc_job.is_some() {
                    self.stats.gc_budget_deferrals += 1;
                }
                let free = self.pool.free_count();
                if free > low || (steps >= paced && free > self.pool.hard_floor()) {
                    break;
                }
            }
        }
        if self.pool.free_count() == 0 {
            return Err(FtlError::DeviceFull);
        }
        Ok(())
    }
}
