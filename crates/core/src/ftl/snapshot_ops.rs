//! Device-level snapshot commands on the SHARE refcount machinery: freeze,
//! drop, zero-copy clone and point-in-time read (DESIGN.md §14; the table
//! itself is `crate::snapshot`).

use super::*;

impl Ftl {
    /// Read-only view of the device snapshot table (tests, crash sweeps,
    /// CLI introspection).
    pub fn snapshot_table(&self) -> &SnapshotTable {
        &self.snaps
    }

    pub(super) fn snapshot_create_impl(
        &mut self,
        name: &str,
        start: Lpn,
        len: u64,
    ) -> Result<u32, FtlError> {
        if name.is_empty() {
            return Err(FtlError::InvalidBatch("snapshot name must not be empty"));
        }
        if len == 0 {
            return Err(FtlError::InvalidBatch("snapshot range must not be empty"));
        }
        self.check_range(start, len)?;
        self.nand.charge(COMMAND_NS);
        // Freeze the current mapping of the range. Pure metadata: no NAND
        // page is read or programmed — the frozen entries simply pin their
        // physical pages against GC reclaim. Durability comes from the next
        // checkpoint (see `snapshot_persist`).
        let mut pages = Vec::new();
        for off in 0..len {
            let ppn = self.map.lookup(Lpn(start.0 + off));
            if ppn.is_valid() {
                pages.push((off, ppn));
            }
        }
        let id = self.snaps.create(name, start, len, pages)?;
        // The serialized table must still fit the checkpoint slot's slack,
        // or no future checkpoint could persist it.
        if self.snaps.encode().len() > ckpt::max_snapshot_bytes(&self.cfg) {
            self.snaps.remove(name).expect("snapshot was just created");
            return Err(FtlError::SnapshotTableFull);
        }
        self.stats.snapshot_creates += 1;
        Ok(id)
    }

    pub(super) fn snapshot_drop_impl(&mut self, name: &str) -> Result<(), FtlError> {
        self.nand.charge(COMMAND_NS);
        let rec = self.snaps.remove(name)?;
        // A tombstone delta makes the drop durable ahead of the next
        // checkpoint: replay discards the snapshot the same way.
        self.stats.snapshot_drops += 1;
        self.log_delta(Delta {
            lpn: snapshot::snap_tombstone_lpn(rec.id),
            old: Ppn::INVALID,
            new: Ppn::INVALID,
        })
    }

    pub(super) fn snapshot_clone_impl(
        &mut self,
        name: &str,
        src_offset: u64,
        dst: Lpn,
        len: u64,
    ) -> Result<u64, FtlError> {
        if len == 0 {
            return Err(FtlError::InvalidBatch("clone range must not be empty"));
        }
        self.check_range(dst, len)?;
        // Resolve the window against the frozen record up front; the record
        // itself never changes while we rewire the live map.
        let window: Vec<Option<Ppn>> = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if src_offset > rec.len || len > rec.len - src_offset {
                return Err(FtlError::InvalidBatch("clone window exceeds the snapshot range"));
            }
            (0..len).map(|i| rec.page_at(src_offset + i)).collect()
        };
        self.nand.charge(COMMAND_NS);
        // Conservative: ignores any refs the clone's own unmaps release.
        self.check_share_headroom(
            window.iter().enumerate().filter_map(|(i, p)| Some((Lpn(dst.0 + i as u64), (*p)?))),
        )?;
        self.stats.snapshot_clones += 1;
        let limit = self.cfg.deltas_per_page();
        let mut deltas: Vec<Delta> = Vec::new();
        let mut mapped_pages = 0u64;
        for (i, &frozen) in window.iter().enumerate() {
            let lpn = Lpn(dst.0 + i as u64);
            match frozen {
                Some(ppn) => {
                    // Zero-copy materialization: the clone's LPN points at
                    // the frozen physical page. Still-live pages gain a
                    // reference (CoW exactly like SHARE); pages dead in the
                    // live map re-enter it as a fresh primary mapping.
                    let old = if self.map.is_live(ppn) {
                        self.map.map_shared(lpn, ppn)?
                    } else {
                        self.map.map_new_write(lpn, ppn)?
                    };
                    deltas.push(Delta { lpn, old, new: ppn });
                    mapped_pages += 1;
                }
                None => {
                    // Hole in the snapshot: the clone reads zeroes there.
                    let old = self.map.unmap(lpn);
                    if old.is_valid() {
                        deltas.push(Delta { lpn, old, new: Ppn::INVALID });
                    }
                }
            }
            if deltas.len() == limit {
                self.commit_log(Some(&deltas))?;
                deltas.clear();
            }
        }
        if !deltas.is_empty() {
            self.commit_log(Some(&deltas))?;
        }
        self.stats.snapshot_clone_pages += mapped_pages;
        self.maybe_checkpoint()?;
        Ok(mapped_pages)
    }

    pub(super) fn snapshot_read_impl(
        &mut self,
        name: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), FtlError> {
        if buf.len() != self.page_size() {
            return Err(FtlError::BadBufferLength { got: buf.len(), want: self.page_size() });
        }
        let ppn = {
            let rec = self.snaps.get(name).ok_or(FtlError::SnapshotNotFound)?;
            if offset >= rec.len {
                return Err(FtlError::InvalidBatch("snapshot read beyond the frozen range"));
            }
            rec.page_at(offset)
        };
        self.stats.host_reads += 1;
        self.stats.host_read_bytes += buf.len() as u64;
        self.stats.snapshot_reads += 1;
        match ppn {
            Some(p) => self.nand.read(p, buf)?,
            None => {
                buf.fill(0);
                self.nand.charge(self.cfg.timing.xfer_ns(buf.len()));
            }
        }
        Ok(())
    }
}
