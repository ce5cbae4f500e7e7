//! The mapping **delta log** (§4.2.2 of the paper).
//!
//! Every mapping-table change is recorded as a Delta `(LPN, old PPN, new
//! PPN)`. Deltas accumulate in RAM and are flushed to the on-flash log ring
//! in page-sized groups; a mapping update is *persistent* only once its
//! delta page is programmed (the simulated device has no emergency power
//! capacitor). A SHARE batch is made atomic by packing all of its deltas
//! into a single log page: flash programs a page all-or-nothing, so after a
//! crash either every remap of the batch is visible or none is.

use crate::config::{FtlConfig, DELTA_BYTES, META_PAGE_HEADER};
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
#[derive(Debug)]
pub struct DeltaLog {
    ring_start: BlockId,
    ring_blocks: u32,
    pages_per_block: u32,
    deltas_per_page: usize,
    buffered: Vec<Delta>,
    /// The one page image every log page is encoded into before it is
    /// programmed (the NAND copies it, so it is free again on return).
    page: Vec<u8>,
    /// Next page sequence number to assign.
    next_seq: u64,
    /// Next page slot in the ring (0-based across the whole ring).
    cursor: u32,
    /// Meta pages programmed over the log's lifetime.
    pub pages_written: u64,
}

impl DeltaLog {
    /// A fresh log for `cfg`, starting at sequence `first_seq`.
    pub fn new(cfg: &FtlConfig, first_seq: u64) -> Self {
        Self {
            ring_start: cfg.log_ring_start(),
            ring_blocks: cfg.log_blocks,
            pages_per_block: cfg.geometry.pages_per_block,
            deltas_per_page: cfg.deltas_per_page(),
            buffered: Vec::new(),
            page: vec![0u8; cfg.geometry.page_size],
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
        self.ring_blocks * self.pages_per_block
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

    /// Whether the RAM buffer has reached one page worth of deltas.
    pub fn buffer_full(&self) -> bool {
        self.buffered.len() >= self.deltas_per_page
    }

    /// Drop buffered deltas without persisting them. Used when a checkpoint
    /// snapshots the RAM mapping table, which already reflects them.
    pub fn clear_buffered(&mut self) {
        self.buffered.clear();
    }

    fn ppn_of_slot(&self, slot: u32) -> nand_sim::Ppn {
        let block = BlockId(self.ring_start.0 + slot / self.pages_per_block);
        nand_sim::Ppn(block.0 * self.pages_per_block + slot % self.pages_per_block)
    }

    fn encode_page(&mut self, seq: u64, deltas: &[Delta]) {
        debug_assert!(deltas.len() <= self.deltas_per_page);
        let page = &mut self.page[..];
        let mut off = META_PAGE_HEADER;
        for d in deltas {
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
        put_u32(page, 12, deltas.len() as u32);
        put_u32(page, 16, crc);
    }

    fn program_page(&mut self, nand: &mut NandArray, deltas: &[Delta]) -> Result<(), FtlError> {
        if self.cursor >= self.ring_pages() {
            // The FTL checkpoints before the ring fills; hitting this means
            // the caller's checkpoint policy is broken.
            return Err(FtlError::RecoveryCorrupt("delta-log ring overflow".into()));
        }
        let seq = self.next_seq;
        self.encode_page(seq, deltas);
        let ppn = self.ppn_of_slot(self.cursor);
        nand.program(ppn, &self.page)?;
        self.next_seq += 1;
        self.cursor += 1;
        self.pages_written += 1;
        Ok(())
    }

    /// Flush all buffered deltas to the ring (possibly multiple pages).
    pub fn flush(&mut self, nand: &mut NandArray) -> Result<(), FtlError> {
        let buffered = std::mem::take(&mut self.buffered);
        let mut done = 0;
        let res = buffered.chunks(self.deltas_per_page).try_for_each(|chunk| {
            // A page that fails to program takes its deltas with it.
            done += chunk.len();
            self.program_page(nand, chunk)
        });
        self.buffered = buffered;
        self.buffered.drain(..done);
        res
    }

    /// Persist `batch` atomically in one log page. Earlier buffered deltas
    /// ride along in the same page when they fit (they need ordering, not
    /// atomicity — a torn page loses them together with the batch, which
    /// only rolls back to the pre-command state); otherwise they are
    /// flushed first. Fails before touching flash if the batch alone
    /// exceeds one page.
    pub fn flush_atomic_batch(&mut self, nand: &mut NandArray, batch: &[Delta]) -> Result<(), FtlError> {
        if batch.len() > self.deltas_per_page {
            return Err(FtlError::BatchTooLarge { got: batch.len(), max: self.deltas_per_page });
        }
        if self.buffered.len() + batch.len() <= self.deltas_per_page {
            let mut page = std::mem::take(&mut self.buffered);
            page.extend_from_slice(batch);
            let res = self.program_page(nand, &page);
            page.clear();
            self.buffered = page;
            return res;
        }
        self.flush(nand)?;
        self.program_page(nand, batch)
    }

    /// Erase the ring and restart the cursor (after a checkpoint). The
    /// buffered deltas are dropped by the caller taking the checkpoint.
    pub fn reset(&mut self, nand: &mut NandArray) -> Result<(), FtlError> {
        for b in 0..self.ring_blocks {
            nand.erase(BlockId(self.ring_start.0 + b))?;
        }
        self.cursor = 0;
        Ok(())
    }

    /// Scan the ring after a crash, returning every intact page with
    /// `seq >= min_seq` in sequence order. Scanning stops at the first
    /// missing or corrupt page (a torn delta flush), which is exactly the
    /// all-or-nothing boundary SHARE atomicity relies on.
    pub fn recover(cfg: &FtlConfig, nand: &mut NandArray, min_seq: u64) -> Vec<DeltaPage> {
        let mut log = DeltaLog::new(cfg, 0);
        let mut out = Vec::new();
        let mut buf = std::mem::take(&mut log.page);
        let mut expect: Option<u64> = None;
        for slot in 0..log.ring_pages() {
            let ppn = log.ppn_of_slot(slot);
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

    /// Position the cursor after recovery: continue appending after the
    /// last intact page.
    pub fn resume_after(&mut self, pages_found: u32, next_seq: u64) {
        self.cursor = pages_found;
        self.next_seq = next_seq;
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
    fn oversized_batch_is_rejected_without_side_effects() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        let batch: Vec<Delta> = (0..cfg.deltas_per_page() + 1).map(|i| d(i as u64, 0, 1)).collect();
        assert!(matches!(
            log.flush_atomic_batch(&mut nand, &batch),
            Err(FtlError::BatchTooLarge { .. })
        ));
        assert_eq!(log.pages_written, 0);
        assert!(DeltaLog::recover(&cfg, &mut nand, 0).is_empty());
    }

    #[test]
    fn atomic_batch_shares_a_page_with_small_buffers() {
        let (cfg, mut nand) = setup();
        let mut log = DeltaLog::new(&cfg, 0);
        log.append(d(99, u32::MAX, 1)); // pre-existing buffered delta
        let batch: Vec<Delta> = (0..10).map(|i| d(i, 0, 1)).collect();
        log.flush_atomic_batch(&mut nand, &batch).unwrap();
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
        log.flush_atomic_batch(&mut nand, &batch).unwrap();
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
