//! The SHARE command (§3.2, §4.2.2): validate a batch, remap every
//! destination onto its source's physical page, and commit the whole
//! batch's deltas in one atomically programmed log page. A large SHARE
//! commits a stripe of such pages per log submission.

use super::*;

impl Ftl {
    /// Validate a SHARE batch and resolve source PPNs (snapshot semantics)
    /// into the reused `share_src_ppns` scratch buffer. All bookkeeping
    /// runs on reused scratch vectors (linear scans — SHARE batches are at
    /// most `deltas_per_page` pairs), so the hot path allocates nothing
    /// once the buffers have grown to the workload's batch size.
    fn validate_share(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.cfg.deltas_per_page();
        if pairs.len() > limit {
            return Err(FtlError::BatchTooLarge { got: pairs.len(), max: limit });
        }
        self.share_dests.clear();
        self.share_srcs.clear();
        self.share_src_ppns.clear();
        for p in pairs {
            self.check_lpn(p.dest)?;
            self.check_lpn(p.src)?;
            if p.dest == p.src {
                return Err(FtlError::InvalidBatch("destination equals source"));
            }
            if self.share_dests.contains(&p.dest) {
                return Err(FtlError::InvalidBatch("duplicate destination LPN"));
            }
            self.share_dests.push(p.dest);
            self.share_srcs.push(p.src);
            let ppn = self.map.lookup(p.src);
            if !ppn.is_valid() {
                return Err(FtlError::SrcUnmapped(p.src));
            }
            self.share_src_ppns.push(ppn);
        }
        if pairs.iter().any(|p| self.share_srcs.contains(&p.dest)) {
            return Err(FtlError::InvalidBatch("an LPN is both destination and source"));
        }

        let src_ppns = std::mem::take(&mut self.share_src_ppns);
        let dests = pairs.iter().map(|p| p.dest);
        let r = self.check_share_headroom(dests.zip(src_ppns.iter().copied()));
        self.share_src_ppns = src_ppns;
        r
    }

    /// Pre-check the references `refs` — (new referrer, target page) — would
    /// take, so SHARE and clone stay all-or-nothing at run time too (the
    /// caller falls back to a plain write): no page's reference count may
    /// overflow, and the reverse map must have room. The slots are counted
    /// only when the table has fewer free than there are references (never
    /// on an unbounded one). Targets dead in the live map — frozen pages a
    /// clone resurrects — re-enter as primary mappings: they start from
    /// zero and need no shared slot.
    pub(super) fn check_share_headroom(
        &mut self,
        refs: impl Iterator<Item = (Lpn, Ppn)> + Clone,
    ) -> Result<(), FtlError> {
        self.share_incs.clear();
        for (_, ppn) in refs.clone() {
            match self.share_incs.iter_mut().find(|(p, _)| *p == ppn) {
                Some((_, c)) => *c += 1,
                None => self.share_incs.push((ppn, 1)),
            }
        }
        for &(ppn, inc) in &self.share_incs {
            let base = if self.map.is_live(ppn) { self.map.refcount(ppn) as u32 } else { 0 };
            if base + inc > u16::MAX as u32 {
                return Err(FtlError::RefOverflow);
            }
        }
        let free = self.map.revmap().free();
        let count: u32 = self.share_incs.iter().map(|&(_, inc)| inc).sum();
        if free < count as usize {
            let need: usize = refs
                .filter(|&(_, ppn)| self.map.is_live(ppn))
                .map(|(lpn, ppn)| self.map.shared_slot_need(lpn, ppn))
                .sum();
            if need > free {
                return Err(FtlError::RevMapFull { capacity: self.map.revmap().capacity() });
            }
        }
        Ok(())
    }

    /// Remap every destination of a validated SHARE chunk (`validate_share`
    /// must have run: it fills `share_src_ppns`), appending one delta per
    /// pair to `deltas`. A failed remap takes the chunk's deltas back out.
    fn map_share(&mut self, pairs: &[SharePair], deltas: &mut Vec<Delta>) -> Result<(), FtlError> {
        self.stats.shared_pages += pairs.len() as u64;
        let mapped = deltas.len();
        let src_ppns = std::mem::take(&mut self.share_src_ppns);
        let mut res = Ok(());
        for (p, &src_ppn) in pairs.iter().zip(&src_ppns) {
            match self.map.map_shared(p.dest, src_ppn) {
                Ok(old) => {
                    deltas.push(Delta { lpn: p.dest, old, new: src_ppn });
                }
                Err(e) => {
                    deltas.truncate(mapped);
                    res = Err(e);
                    break;
                }
            }
        }
        self.share_src_ppns = src_ppns;
        res
    }

    /// Commit the remapped chunks in `deltas` — one atomically programmed
    /// log page each — in one log submission and checkpoint if due, then
    /// hand back `res`, the outcome of remapping them. Nothing is committed
    /// when no chunk was remapped.
    fn commit_share(&mut self, deltas: Vec<Delta>, res: Result<(), FtlError>) -> Result<(), FtlError> {
        let committed = if deltas.is_empty() && res.is_err() {
            Ok(())
        } else {
            self.commit_log(Some(&deltas)).and_then(|()| self.maybe_checkpoint())
        };
        self.share_deltas = deltas;
        committed.and(res)
    }

    pub(super) fn share_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        self.validate_share(pairs)?;
        self.nand.charge(COMMAND_NS);
        self.stats.share_commands += 1;
        let mut deltas = std::mem::take(&mut self.share_deltas);
        deltas.clear();
        let res = self.map_share(pairs, &mut deltas);
        self.commit_share(deltas, res)
    }

    /// Commit a large SHARE a stripe of log pages at a time: validate and
    /// remap each page-sized chunk of a group in turn, then commit the
    /// group in one log submission, one atomic page per chunk. A chunk that
    /// fails validation stops the command after the chunks before it are
    /// committed, as if each chunk had been its own command.
    pub(super) fn share_batch_impl(&mut self, pairs: &[SharePair]) -> Result<(), FtlError> {
        let limit = self.share_batch_limit();
        let group = limit * self.cfg.stripe_width() as usize;
        self.nand.charge(COMMAND_NS);
        self.stats.share_commands += 1;
        for group in pairs.chunks(group) {
            let mut deltas = std::mem::take(&mut self.share_deltas);
            deltas.clear();
            let mut res = Ok(());
            for chunk in group.chunks(limit) {
                res = self.validate_share(chunk).and_then(|()| self.map_share(chunk, &mut deltas));
                if res.is_err() {
                    break;
                }
            }
            self.commit_share(deltas, res)?;
        }
        Ok(())
    }
}
