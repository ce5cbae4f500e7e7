//! How work enters the FTL: the command frame every host command runs in
//! (sync methods and `submit` alike), the internal-pass frame for
//! gc/log_flush/checkpoint/recovery, the submission queue, and the
//! `BlockDevice` implementation (DESIGN.md §11, §13 "Command frame and
//! internal-pass frame").

use super::*;

impl Ftl {
    /// The internal-pass frame: every pass the FTL runs on its own behalf
    /// (`gc`, `log_flush`, `checkpoint`, `recovery`) opens its span on the
    /// internal track and records its op class here. `body` returns the pages
    /// the pass moved.
    ///
    /// Passes are timed on `submission_now()`, never `now_ns()`: inside a
    /// queued command's deferred window or a background GC window the
    /// shared clock stands still while the window frontier moves, so clock
    /// read-outs would make the pass zero-length with NAND children ending
    /// after it. Outside any window the two are the same number.
    pub(super) fn internal_pass(
        &mut self,
        name: &str,
        op: OpClass,
        body: impl FnOnce(&mut Self) -> Result<u64, FtlError>,
    ) -> Result<u64, FtlError> {
        let t0 = self.nand.submission_now();
        let span = self.tracer.begin(Layer::Ftl, name, Track::Internal, t0);
        let r = body(self);
        let end = self.nand.submission_now();
        let pages = *r.as_ref().unwrap_or(&0);
        self.tracer.end(span, end, pages, r.is_ok());
        self.telemetry.record(op, t0, end);
        r
    }

    /// The command frame: every host command — each synchronous
    /// `BlockDevice` method and `submit` — enters here. It opens the
    /// command's span on the command track, runs `body` (which borrows the caller's
    /// payload), and records `op` over the command's interval. `queued`
    /// runs the body under a deferred NAND window instead of on the shared
    /// clock and pins the blocks it allocates into; the interval then ends
    /// at the window's completion time — the latency-under-load the host
    /// observes, not device service time. Returns the outcome, the end
    /// time and the pinned blocks.
    fn frame<T>(
        &mut self,
        name: &str,
        op: Option<OpClass>,
        pages: u64,
        queued: bool,
        body: impl FnOnce(&mut Self) -> Result<T, FtlError>,
    ) -> (Result<T, FtlError>, u64, Vec<u32>) {
        let t0 = self.nand.now_ns();
        let span = self.tracer.begin(Layer::Ftl, name, Track::Command, t0);
        if queued {
            self.pool.begin_capture();
            self.nand.begin_deferred();
        }
        let r = body(self);
        let (end, blocks) = if queued {
            (self.nand.end_deferred(), self.pool.end_capture())
        } else {
            (self.nand.now_ns(), Vec::new())
        };
        self.tracer.end(span, end, pages, r.is_ok());
        if let Some(op) = op {
            self.telemetry.record(op, t0, end);
        }
        (r, end, blocks)
    }

    /// A synchronous host command: the command frame on the shared clock.
    fn command<T>(
        &mut self,
        name: &str,
        op: Option<OpClass>,
        pages: u64,
        body: impl FnOnce(&mut Self) -> Result<T, FtlError>,
    ) -> Result<T, FtlError> {
        self.frame(name, op, pages, false, body).0
    }

    /// Execute a queued command's state transitions (called inside the
    /// command frame, under its deferred NAND window) through the same
    /// bodies the synchronous methods run.
    fn execute_queued(&mut self, cmd: QueuedCmd<'_>) -> Result<CmdOutput, FtlError> {
        match cmd {
            // A one-page read is a batch of one.
            QueuedCmd::Read { lpn } => {
                return self.read_queued(std::slice::from_ref(&lpn), Vec::new())
            }
            QueuedCmd::ReadBatch { lpns, buf } => return self.read_queued(lpns, buf),
            QueuedCmd::Write { lpn, data } => self.write_batch_impl(&[(lpn, &data[..])])?,
            QueuedCmd::WriteBatch { pages } => self.write_batch_impl(pages)?,
            QueuedCmd::WriteAtomic { pages } if !pages.is_empty() => self.write_atomic_impl(pages)?,
            QueuedCmd::Share { pairs } if !pairs.is_empty() => self.share_impl(pairs)?,
            QueuedCmd::ShareBatch { pairs } if !pairs.is_empty() => self.share_batch_impl(pairs)?,
            // Empty atomic and SHARE batches are no-ops, as on the sync path.
            QueuedCmd::WriteAtomic { .. }
            | QueuedCmd::Share { .. }
            | QueuedCmd::ShareBatch { .. } => {}
            QueuedCmd::Trim { lpn, len } => self.trim_impl(lpn, len)?,
            QueuedCmd::Flush => self.flush_impl()?,
        }
        Ok(CmdOutput::None)
    }

    /// A queued read: the pages land in the submitter's buffer, cut or
    /// grown to exactly the request, which the completion hands back to the
    /// reaper. Its old bytes need no clearing: `read_batch_impl` reads every
    /// mapped page over its slice and zero-fills every hole, and a read that
    /// fails drops the buffer with the error.
    fn read_queued(&mut self, lpns: &[Lpn], mut buf: Vec<u8>) -> Result<CmdOutput, FtlError> {
        let page_size = self.page_size();
        buf.resize(lpns.len() * page_size, 0);
        self.read_batch_impl(&mut FlatRead { lpns, buf: &mut buf, page_size })?;
        Ok(CmdOutput::Pages(buf))
    }

    /// Block the host until `t`, a pending completion time (None: nothing
    /// is in flight), and reap everything due by then.
    fn wait_until(&mut self, t: Option<u64>) -> Vec<Completion> {
        let Some(t) = t else { return Vec::new() };
        self.nand.clock().advance_to(t);
        self.take_due(self.nand.now_ns())
    }

    /// Remove and return every pending command with `complete_ns <= now`,
    /// oldest completion first, unpinning its blocks and handing their list
    /// back to the pool for the next queued command's capture.
    fn take_due(&mut self, now: u64) -> Vec<Completion> {
        // Sized once: the vector is the caller's, one request per reap.
        let n = self.pending.iter().filter(|p| p.complete_ns <= now).count();
        let mut due = Vec::with_capacity(n);
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].complete_ns <= now {
                let PendingCmd { tag, submit_ns, complete_ns, result, blocks } =
                    self.pending.remove(i);
                self.pool.release_inflight(&blocks);
                self.pool.recycle_capture(blocks);
                due.push(Completion { tag, submit_ns, complete_ns, result });
            } else {
                i += 1;
            }
        }
        // Tags are unique, so the order is total and an in-place sort keeps it.
        due.sort_unstable_by_key(|c| (c.complete_ns, c.tag));
        self.q_reaped += due.len() as u64;
        due
    }
}

impl BlockDevice for Ftl {
    fn page_size(&self) -> usize {
        self.cfg.geometry.page_size
    }

    fn capacity_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn read(&mut self, lpn: Lpn, buf: &mut [u8]) -> Result<(), FtlError> {
        self.command("read", Some(OpClass::Read), 1, |f| f.read_batch_impl(&mut [(lpn, buf)][..]))
    }

    fn write(&mut self, lpn: Lpn, data: &[u8]) -> Result<(), FtlError> {
        self.command("write", Some(OpClass::Write), 1, |f| f.write_batch_impl(&[(lpn, data)]))
    }

    fn flush(&mut self) -> Result<(), FtlError> {
        self.command("flush", Some(OpClass::Flush), 0, Self::flush_impl)
    }

    fn trim(&mut self, lpn: Lpn, len: u64) -> Result<(), FtlError> {
        self.command("trim", Some(OpClass::Trim), len, |f| f.trim_impl(lpn, len))
    }

    /// The SHARE command (§3.2): remap every `pair.dest` onto the physical
    /// page of `pair.src`, atomically for the whole batch. The command
    /// returns after its deltas are durably logged (§4.2.2).
    fn share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.command("share", Some(OpClass::Share), pairs.len() as u64, |f| f.share_impl(pairs))
    }

    /// A large SHARE submission: one host command (one command overhead,
    /// one `share_commands` tick) whose pairs are committed in
    /// log-page-sized sub-batches. Each sub-batch is individually atomic;
    /// a crash can land between sub-batches, exactly as if the host had
    /// issued them as separate commands — minus the per-command overhead.
    fn share_batch(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        if pairs.is_empty() {
            return Ok(());
        }
        self.command("share_batch", Some(OpClass::ShareBatch), pairs.len() as u64, |f| {
            f.share_batch_impl(pairs)
        })
    }

    fn share_batch_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_snapshot(&self) -> bool {
        true
    }

    /// Freeze the current mapping of `len` pages starting at `start` under
    /// `name`. Pure metadata — zero NAND page programs; the frozen entries
    /// pin their physical pages against GC reclaim until dropped.
    fn snapshot_create(&mut self, name: &str, start: Lpn, len: u64) -> Result<u32, FtlError> {
        self.command("snapshot_create", None, len, |f| {
            f.snapshot_create_impl(name, start, len)
        })
    }

    /// Release `name`'s pins. Newly unreferenced pages become ordinary
    /// garbage.
    fn snapshot_drop(&mut self, name: &str) -> Result<(), FtlError> {
        self.command("snapshot_drop", None, 0, |f| f.snapshot_drop_impl(name))
    }

    /// Materialize a writable zero-copy clone of a snapshot window at
    /// `dst`: clone LPNs share the frozen physical pages; subsequent
    /// overwrites copy-on-write exactly like SHARE'd pages. Returns the
    /// number of pages mapped (holes in the snapshot read zeroes).
    fn snapshot_clone(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        self.command("snapshot_clone", None, len, |f| {
            f.snapshot_clone_impl(name, src_offset, dst, len)
        })
    }

    /// Point-in-time read of one page from a snapshot, without touching
    /// the live mapping.
    fn snapshot_read(&mut self, name: &str, offset: u64, buf: &mut [u8]) -> Result<(), FtlError> {
        self.command("snapshot_read", Some(OpClass::Read), 1, |f| {
            f.snapshot_read_impl(name, offset, buf)
        })
    }

    fn snapshot_list(&self) -> Result<Vec<SnapshotInfo>, FtlError> {
        Ok(self.snaps.list())
    }

    /// Persist the snapshot table durably by taking a checkpoint now
    /// (creates are otherwise durable only at the next natural
    /// checkpoint).
    fn snapshot_persist(&mut self) -> Result<(), FtlError> {
        self.command("snapshot_persist", None, 0, |f| {
            f.nand.charge(COMMAND_NS);
            f.checkpoint()
        })
    }

    /// Batched read: mapped pages go to the NAND as one submission, so
    /// reads on distinct channel-ways overlap in simulated time.
    fn read_batch(&mut self, reqs: &mut [(Lpn, &mut [u8])]) -> Result<(), FtlError> {
        let n = reqs.len() as u64;
        self.command("read_batch", Some(OpClass::ReadBatch), n, |f| f.read_batch_impl(reqs))
    }

    /// Batched write: destinations are striped across channels by the
    /// block pool and programmed as multi-page submissions, so the
    /// programs overlap across channel-ways. Ordering and durability
    /// semantics match the equivalent sequence of single writes.
    fn write_batch(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        let n = pages.len() as u64;
        self.command("write_batch", Some(OpClass::WriteBatch), n, |f| f.write_batch_impl(pages))
    }

    /// Atomic multi-page write (§6.1's related-work primitive): all data
    /// pages are programmed out-of-place first, then every mapping delta
    /// of the batch is committed in a single atomically-programmed log
    /// page — the same mechanism that makes SHARE batches atomic.
    fn write_atomic(&mut self, pages: &[(Lpn, &[u8])]) -> Result<(), FtlError> {
        if pages.is_empty() {
            return Ok(());
        }
        let n = pages.len() as u64;
        self.command("write_atomic", Some(OpClass::WriteAtomic), n, |f| f.write_atomic_impl(pages))
    }

    fn write_atomic_limit(&self) -> usize {
        self.cfg.deltas_per_page()
    }

    fn supports_queue(&self) -> bool {
        true
    }

    fn queue_depth(&self) -> usize {
        self.cfg.queue_depth
    }

    fn set_queue_depth(&mut self, depth: usize) {
        self.cfg.queue_depth = depth.max(1);
    }

    /// Queued submission: execute the command's state transitions *now*
    /// (in submission order — the medium and crash images are identical to
    /// the synchronous path) but dispatch its NAND timing onto a deferred
    /// window, so commands from independent connections overlap across
    /// channel-ways. The completion surfaces via `poll`/`reap`/`drain`.
    fn submit(&mut self, cmd: QueuedCmd<'_>) -> Result<CmdTag, FtlError> {
        if self.pending.len() >= self.cfg.queue_depth {
            return Err(FtlError::QueueFull { depth: self.cfg.queue_depth });
        }
        let tag = CmdTag(self.next_tag);
        self.next_tag = self.next_tag.wrapping_add(1);
        let submit_ns = self.nand.now_ns();
        let (op, pages) = cmd.header();
        let (result, complete_ns, blocks) =
            self.frame(cmd.name(), Some(op), pages, true, |f| f.execute_queued(cmd));
        self.q_submitted += 1;
        self.pending.push(PendingCmd { tag, submit_ns, complete_ns, result, blocks });
        self.q_max_inflight = self.q_max_inflight.max(self.pending.len() as u64);
        Ok(tag)
    }

    fn poll(&mut self) -> Vec<Completion> {
        self.take_due(self.nand.now_ns())
    }

    fn reap(&mut self) -> Vec<Completion> {
        let earliest = self.pending.iter().map(|p| p.complete_ns).min();
        self.wait_until(earliest)
    }

    fn drain(&mut self) -> Vec<Completion> {
        let latest = self.pending.iter().map(|p| p.complete_ns).max();
        self.wait_until(latest)
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        s.nand = self.nand.stats();
        s.lane_steals = self.pool.lane_steals();
        s
    }

    fn clock(&self) -> &SimClock {
        self.nand.clock()
    }

    fn telemetry_snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.telemetry.snapshot();
        let channels = self.cfg.geometry.channels;
        snap.units = self
            .nand
            .busy_ns()
            .iter()
            .enumerate()
            .map(|(unit, &busy_ns)| UnitUtilization {
                channel: unit as u32 % channels,
                way: unit as u32 / channels,
                busy_ns,
            })
            .collect();
        snap.now_ns = self.nand.now_ns();
        snap.queue = QueueGauges {
            depth: self.cfg.queue_depth as u64,
            inflight: self.pending.len() as u64,
            max_inflight: self.q_max_inflight,
            submitted: self.q_submitted,
            reaped: self.q_reaped,
        };
        // The one place a device snapshot's scalar rows are assembled; the
        // JSON export walks the list as it stands.
        let mut rows = self.stats().metrics();
        rows.extend(snap.queue.rows());
        rows.extend([
            Metric::int("snapshots_live", self.snaps.count() as u64),
            Metric::int("snapshot_frozen_pages", self.snaps.frozen_pages()),
            Metric::int("snapshot_pinned_pages", self.snaps.pinned_pages()),
        ]);
        let data_blocks = self.pool.block_count() as u64;
        rows.extend(self.wear_stats().rows(self.pool.free_count() as u64, data_blocks));
        snap.metrics = rows;
        Some(snap)
    }

    fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }
}
