//! The mapping **delta log** (§4.2.2 of the paper).
//!
//! Every mapping-table change is recorded as a Delta `(LPN, old PPN, new
//! PPN)`. Deltas accumulate in RAM and are flushed to the on-flash log ring
//! in page-sized groups; a mapping update is *persistent* only once its
//! delta page is programmed (the simulated device has no emergency power
//! capacitor). A SHARE batch is made atomic by packing all of its deltas
//! into a single log page: flash programs a page all-or-nothing, so after a
//! crash either every remap of the batch is visible or none is.

use crate::config::{FtlConfig, Stripe, DELTA_BYTES, META_PAGE_HEADER};
use crate::error::FtlError;
use crate::types::{Lpn, Ppn};
use crate::util::{crc32c, get_u32, get_u64, put_u32, put_u64};
use nand_sim::{BlockId, NandArray};

/// Magic tag of a delta-log page.
const DLOG_MAGIC: u32 = 0x444C_4F47; // "DLOG"

/// One mapping-table change record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delta {
    /// Logical page whose mapping changed.
    pub lpn: Lpn,
    /// Previous physical page (INVALID for a first write).
    pub old: Ppn,
    /// New physical page (INVALID for a TRIM).
    pub new: Ppn,
}

impl Delta {
    fn encode(&self, buf: &mut [u8], off: usize) -> usize {
        let off = put_u64(buf, off, self.lpn.0);
        let off = put_u32(buf, off, self.old.0);
        put_u32(buf, off, self.new.0)
    }

    fn decode(buf: &[u8], off: usize) -> (Delta, usize) {
        let lpn = Lpn(get_u64(buf, off));
        let old = Ppn(get_u32(buf, off + 8));
        let new = Ppn(get_u32(buf, off + 12));
        (Delta { lpn, old, new }, off + DELTA_BYTES)
    }
}

/// A decoded delta-log page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPage {
    /// Monotonic page sequence number.
    pub seq: u64,
    /// The deltas recorded in this page, in apply order.
    pub deltas: Vec<Delta>,
}

/// The delta log: RAM buffer plus on-flash ring cursor.
///
/// The ring is a [`Stripe`]: consecutive slots land on `w` different
/// units, so the pages of one commit program side by side; slot order is
/// still sequence order, so recovery scans slots in order.
#[derive(Debug)]
pub struct DeltaLog {
    ring: Stripe,
    deltas_per_page: usize,
    buffered: Vec<Delta>,
    /// The ring's blocks, erased together by [`Self::reset`].
    blocks: Vec<BlockId>,
    page_size: usize,
    /// The page images of the submission being built, back to back (the
    /// NAND copies them, so they are free again on return): room for a
    /// stripe of buffered pages and a stripe of atomic ones.
    pages: Vec<u8>,
    /// Pages staged in `pages`, bound for the slots from `cursor` on.
    staged: u32,
    /// Next page sequence number to assign.
    next_seq: u64,
    /// Next page slot in the ring (0-based across the whole ring).
    cursor: u32,
    /// Meta pages programmed over the log's lifetime.
    pub pages_written: u64,
}

/// Encode one log page carrying `head` followed by `tail` into `page`.
fn encode_page(page: &mut [u8], seq: u64, head: &[Delta], tail: &[Delta]) {
    let mut off = META_PAGE_HEADER;
    for d in head.iter().chain(tail) {
        off = d.encode(page, off);
    }
    page[off..].fill(0);
    // CRC over the whole payload region (zero padding included) so a
    // torn program whose intact prefix happens to contain all deltas is
    // still detected — the torn tail reads 0xFF, not zero.
    let crc = crc32c(&page[META_PAGE_HEADER..]);
    page[..META_PAGE_HEADER].fill(0);
    put_u32(page, 0, DLOG_MAGIC);
    put_u64(page, 4, seq);
    put_u32(page, 12, (head.len() + tail.len()) as u32);
    put_u32(page, 16, crc);
}

impl DeltaLog {
    /// A fresh log for `cfg`, starting at sequence `first_seq`.
    pub fn new(cfg: &FtlConfig, first_seq: u64) -> Self {
        let ring = cfg.log_ring();
        Self {
            ring,
            deltas_per_page: cfg.deltas_per_page(),
            buffered: Vec::new(),
            blocks: ring.block_ids(),
            page_size: cfg.geometry.page_size,
            pages: vec![0u8; 2 * ring.width() as usize * cfg.geometry.page_size],
            staged: 0,
            next_seq: first_seq,
            cursor: 0,
            pages_written: 0,
        }
    }

    /// Deltas currently buffered in RAM (not yet persistent).
    pub fn buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Total page slots in the ring.
    pub fn ring_pages(&self) -> u32 {
        self.ring.pages()
    }

    /// Unprogrammed page slots remaining in the ring.
    pub fn pages_remaining(&self) -> u32 {
        self.ring_pages() - self.cursor
    }

    /// Sequence number the next flushed page will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one delta to the RAM buffer (not yet persistent).
    pub fn append(&mut self, delta: Delta) {
        self.buffered.push(delta);
    }

    /// Whether the RAM buffer holds a page of deltas for every stripe lane.
    pub fn buffer_full(&self) -> bool {
        self.buffered.len() >= self.deltas_per_page * self.ring.width() as usize
    }

    /// Drop buffered deltas without persisting them. Used when a checkpoint
    /// snapshots the RAM mapping table, which already reflects them.
    pub fn clear_buffered(&mut self) {
        self.buffered.clear();
    }

    /// Encode `head` followed by `tail` as the next page of the submission
    /// being built.
    fn stage(&mut self, head: &[Delta], tail: &[Delta]) {
        debug_assert!(head.len() + tail.len() <= self.deltas_per_page);
        let n = self.staged as usize;
        let seq = self.next_seq + n as u64;
        self.staged += 1;
        let size = self.page_size;
        if self.pages.len() < (n + 1) * size {
            self.pages.resize((n + 1) * size, 0);
        }
        encode_page(&mut self.pages[n * size..(n + 1) * size], seq, head, tail);
    }

    /// Program the staged pages as one submission. The NAND attempts them
    /// strictly in slot order and stops at a failure, so a crash leaves
    /// exactly the prefix a page-by-page loop would have left. A failed
    /// submission takes every staged page with it: the device is down.
    fn submit(&mut self, nand: &mut NandArray) -> Result<(), FtlError> {
        let n = std::mem::take(&mut self.staged);
        let res = if n == 0 {
            Ok(())
        } else if n > self.pages_remaining() {
            // The FTL checkpoints before the ring fills; hitting this means
            // the caller's checkpoint policy is broken.
            Err(FtlError::RecoveryCorrupt("delta-log ring overflow".into()))
        } else {
            let slots = (self.cursor..self.cursor + n).map(|slot| self.ring.ppn(slot));
            nand.program_batch(slots.zip(self.pages.chunks(self.page_size))).map_err(FtlError::from)
        };
        res?;
        self.next_seq += n as u64;
        self.cursor += n;
        self.pages_written += n as u64;
        Ok(())
    }

    /// Flush all buffered deltas to the ring (possibly multiple pages) in
    /// one submission.
    pub fn flush(&mut self, nand: &mut NandArray) -> Result<(), FtlError> {
        let buffered = std::mem::take(&mut self.buffered);
        for chunk in buffered.chunks(self.deltas_per_page) {
            self.stage(chunk, &[]);
        }
        self.buffered = buffered;
        self.buffered.clear();
        self.submit(nand)
    }

    /// Buffered deltas that take pages of their own ahead of an atomic
    /// commit: all of them when the buffer has reached its flush threshold,
    /// its whole pages otherwise (the partial tail may ride).
    fn leading(&self) -> usize {
        match self.buffer_full() {
            true => self.buffered.len(),
            false => self.buffered.len() / self.deltas_per_page * self.deltas_per_page,
        }
    }

    /// Pages the next commit programs: [`Self::flush`] when `atomic` is
    /// `None`, [`Self::flush_atomic_pages`] of that many deltas otherwise.
    pub fn commit_pages(&self, atomic: Option<usize>) -> u32 {
        let per_page = self.deltas_per_page;
        let Some(n) = atomic else { return self.buffered.len().div_ceil(per_page) as u32 };
        let leading = self.leading();
        let tail = self.buffered.len() - leading;
        let rides = tail + n.min(per_page) <= per_page;
        (leading.div_ceil(per_page) + n.div_ceil(per_page).max(1) + usize::from(!rides)) as u32
    }

    /// Persist `deltas` as atomic pages — each `deltas_per_page` run of it
    /// is one page, programmed all-or-nothing — behind the buffered deltas,
    /// all in one submission. The buffer's partial tail rides in the first
    /// atomic page when it fits and the buffer is below its flush threshold
    /// (it needs ordering, not atomicity — a torn page loses it together
    /// with the batch, which only rolls back to the pre-command state);
    /// otherwise the buffered deltas take pages of their own first.
    pub fn flush_atomic_pages(&mut self, nand: &mut NandArray, deltas: &[Delta]) -> Result<(), FtlError> {
        let per_page = self.deltas_per_page;
        let leading = self.leading();
        let buffered = std::mem::take(&mut self.buffered);
        for chunk in buffered[..leading].chunks(per_page) {
            self.stage(chunk, &[]);
        }
        let tail = &buffered[leading..];
        let mut atomic = deltas.chunks(per_page);
        let first = atomic.next().unwrap_or_default();
        if tail.len() + first.len() <= per_page {
            self.stage(tail, first);
        } else {
            self.stage(tail, &[]);
            self.stage(first, &[]);
        }
        for chunk in atomic {
            self.stage(chunk, &[]);
        }
        self.buffered = buffered;
        self.buffered.clear();
        self.submit(nand)
    }

    /// Erase the ring in one submission and restart the cursor (after a
    /// checkpoint). The buffered deltas are dropped by the caller taking
    /// the checkpoint.
    pub fn reset(&mut self, nand: &mut NandArray) -> Result<(), FtlError> {
        nand.erase_batch(&self.blocks)?;
        self.cursor = 0;
        Ok(())
    }

    /// Scan the ring after a crash, returning every intact page with
    /// `seq >= min_seq` in sequence order. Scanning stops at the first
    /// missing or corrupt page (a torn delta flush), which is exactly the
    /// all-or-nothing boundary SHARE atomicity relies on.
    pub fn recover(cfg: &FtlConfig, nand: &mut NandArray, min_seq: u64) -> Vec<DeltaPage> {
        let log = DeltaLog::new(cfg, 0);
        let mut out = Vec::new();
        let mut buf = vec![0u8; cfg.geometry.page_size];
        let mut expect: Option<u64> = None;
        for slot in 0..log.ring_pages() {
            let ppn = log.ring.ppn(slot);
            if nand.read(ppn, &mut buf).is_err() {
                break;
            }
            if get_u32(&buf, 0) != DLOG_MAGIC {
                break; // erased or foreign page: end of log
            }
            let seq = get_u64(&buf, 4);
            let count = get_u32(&buf, 12) as usize;
            let crc = get_u32(&buf, 16);
            if count > log.deltas_per_page {
                break;
            }
            if crc32c(&buf[META_PAGE_HEADER..]) != crc {
                break; // torn meta page
            }
            if let Some(e) = expect {
                if seq != e {
                    break; // stale page from a previous ring generation
                }
            }
            expect = Some(seq + 1);
            let mut deltas = Vec::with_capacity(count);
            let mut off = META_PAGE_HEADER;
            for _ in 0..count {
                let (d, next) = Delta::decode(&buf, off);
                deltas.push(d);
                off = next;
            }
            if seq >= min_seq {
                out.push(DeltaPage { seq, deltas });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_sim::{NandArray, NandTiming, SimClock};

    fn setup() -> (FtlConfig, NandArray) {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.3, 4096, 16, NandTiming::zero());
        let nand = NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new());
        (cfg, nand)
    }

    fn d(l: u64, o: u32, n: u32) -> Delta {
        Delta { lpn: Lpn(l), old: Ppn(o), new: Ppn(n) }
    }

    #[test]
    fn flush_and_recover_round_trips() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(1, u32::MAX, 10));
        log.append(d(2, u32::MAX, 11));
        log.flush(&mut nand).unwrap();
        log.append(d(1, 10, 12));
        log.flush(&mut nand).unwrap();

        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].seq, 0);
        assert_eq!(pages[0].deltas, vec![d(1, u32::MAX, 10), d(2, u32::MAX, 11)]);
        assert_eq!(pages[1].deltas, vec![d(1, 10, 12)]);
    }

    #[test]
    fn min_seq_filters_checkpointed_pages() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        for i in 0..3 {
            log.append(d(i, u32::MAX, i as u32));
            log.flush(&mut nand).unwrap();
        }
        let pages = DeltaLog::recover(&cfg, &mut nand, 2);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].seq, 2);
    }

    #[test]
    fn atomic_batch_shares_a_page_with_small_buffers() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(99, u32::MAX, 1)); // pre-existing buffered delta
        let batch: Vec<Delta> = (0..10).map(|i| d(i, 0, 1)).collect();
        log.flush_atomic_pages(&mut nand, &batch).unwrap();
        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        assert_eq!(pages.len(), 1, "buffered deltas ride in the batch page");
        assert_eq!(pages[0].deltas.len(), 11);
        assert_eq!(pages[0].deltas[0], d(99, u32::MAX, 1), "ordering preserved");
    }

    #[test]
    fn atomic_batch_flushes_large_buffers_first() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        for i in 0..cfg.deltas_per_page() as u64 - 3 {
            log.append(d(1000 + i, u32::MAX, i as u32));
        }
        let batch: Vec<Delta> = (0..10).map(|i| d(i, 0, 1)).collect();
        log.flush_atomic_pages(&mut nand, &batch).unwrap();
        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        assert_eq!(pages.len(), 2, "oversized combination splits");
        assert_eq!(pages[1].deltas.len(), 10, "batch stays whole in its own page");
    }

    #[test]
    fn buffered_deltas_are_not_persistent_until_flush() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(5, u32::MAX, 3));
        assert_eq!(log.buffered(), 1);
        assert!(DeltaLog::recover(&cfg, &mut nand, 0).is_empty());
    }

    #[test]
    fn recovery_stops_at_torn_meta_page() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(1, u32::MAX, 1));
        log.flush(&mut nand).unwrap();
        // Tear the next log program.
        nand.fault_handle().arm_after_programs(1, nand_sim::FaultMode::TornHalf);
        log.append(d(2, u32::MAX, 2));
        assert!(log.flush(&mut nand).is_err());
        nand.power_cycle();
        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        assert_eq!(pages.len(), 1, "torn page must not be recovered");
        assert_eq!(pages[0].deltas, vec![d(1, u32::MAX, 1)]);
    }

    #[test]
    fn reset_erases_ring_and_restarts_cursor() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(1, u32::MAX, 1));
        log.flush(&mut nand).unwrap();
        let used = log.ring_pages() - log.pages_remaining();
        assert_eq!(used, 1);
        log.reset(&mut nand).unwrap();
        assert_eq!(log.pages_remaining(), log.ring_pages());
        assert!(DeltaLog::recover(&cfg, &mut nand, log.next_seq()).is_empty());
        // Appending continues with increasing seq after reset.
        log.append(d(2, u32::MAX, 2));
        log.flush(&mut nand).unwrap();
        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        assert_eq!(pages.len(), 1);
        // Seq 0 was consumed before the reset; the ring restarts at seq 1.
        assert_eq!(pages[0].seq, 1);
    }

    #[test]
    fn multi_page_flush_splits_buffer() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        let n = cfg.deltas_per_page() * 2 + 7;
        for i in 0..n {
            log.append(d(i as u64, u32::MAX, i as u32));
        }
        log.flush(&mut nand).unwrap();
        assert_eq!(log.pages_written, 3);
        let pages = DeltaLog::recover(&cfg, &mut nand, 0);
        let total: usize = pages.iter().map(|p| p.deltas.len()).sum();
        assert_eq!(total, n);
    }
}
