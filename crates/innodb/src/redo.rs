//! Write-ahead redo log on a dedicated log device.
//!
//! The paper's testbed puts the MySQL redo log on a separate conventional
//! SSD (a Samsung PM853T); here it lives on a [`SimpleSsd`]. Records are
//! *physiological*: each describes a deterministic change to one or two
//! pages and is replayed through the same apply path the runtime uses,
//! gated by the per-page LSN. Note that redo protects committed work; the
//! double-write buffer (or SHARE) protects page *integrity* — the two
//! mechanisms are orthogonal, which is exactly the paper's §2 argument.

use crate::error::EngineError;
use crate::key::Key;
use crate::page::{record_end, record_starts};
use share_core::{crc32c, crc32c_append, BlockDevice, DeviceStats, Lpn, SimpleSsd};

const LOG_MAGIC: u32 = 0x5244_4F4C; // "RDOL"
const HDR_MAGIC: u32 = 0x5244_4844; // "RDHD"

/// One physiological redo operation. Every variant changes exactly **one**
/// page, so replay can gate on that page's LSN; multi-page structure
/// changes (splits) are sequences of these, grouped into a
/// mini-transaction terminated by [`RedoBody::MtrEnd`] — recovery discards
/// a trailing incomplete group, giving structural all-or-nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoBody {
    /// Create `page_no` as an empty node at `level`.
    PageInit { page_no: u64, level: u16 },
    /// Insert or replace `key` in `page_no`.
    Upsert { page_no: u64, key: Key, value: Vec<u8> },
    /// Remove `key` from `page_no`.
    Remove { page_no: u64, key: Key },
    /// Append pre-sorted entries, all greater than the page's current max
    /// (split destination; large splits are chunked across records). `run`
    /// is the entries packed as they sit in a page image
    /// ([`crate::NodePage::packed`]), which is also how the log stores them.
    AppendEntries { page_no: u64, run: Vec<u8> },
    /// Drop all entries with key >= `pivot` (split source).
    TruncateHigh { page_no: u64, pivot: Key },
    /// Set the leaf-chain next pointer.
    SetNextPtr { page_no: u64, next: u64 },
    /// Install a new tree root.
    SetRoot { root: u64, height: u16 },
    /// Mini-transaction boundary marker.
    MtrEnd,
}

impl RedoBody {
    /// Bytes [`Self::encode`] appends.
    fn encoded_len(&self) -> usize {
        match self {
            RedoBody::PageInit { .. } | RedoBody::SetRoot { .. } => 11,
            RedoBody::Upsert { value, .. } => 35 + value.len(),
            RedoBody::Remove { .. } | RedoBody::TruncateHigh { .. } => 33,
            RedoBody::AppendEntries { run, .. } => 11 + run.len(),
            RedoBody::SetNextPtr { .. } => 17,
            RedoBody::MtrEnd => 1,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RedoBody::PageInit { page_no, level } => {
                out.push(1);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&level.to_le_bytes());
            }
            RedoBody::Upsert { page_no, key, value } => {
                out.push(2);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&key.0);
                out.extend_from_slice(&(value.len() as u16).to_le_bytes());
                out.extend_from_slice(value);
            }
            RedoBody::Remove { page_no, key } => {
                out.push(3);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&key.0);
            }
            RedoBody::AppendEntries { page_no, run } => {
                out.push(4);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&(record_starts(run).count() as u16).to_le_bytes());
                out.extend_from_slice(run);
            }
            RedoBody::TruncateHigh { page_no, pivot } => {
                out.push(5);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&pivot.0);
            }
            RedoBody::SetNextPtr { page_no, next } => {
                out.push(6);
                out.extend_from_slice(&page_no.to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
            }
            RedoBody::SetRoot { root, height } => {
                out.push(7);
                out.extend_from_slice(&root.to_le_bytes());
                out.extend_from_slice(&height.to_le_bytes());
            }
            RedoBody::MtrEnd => out.push(8),
        }
    }

    fn decode(buf: &[u8]) -> Option<(RedoBody, usize)> {
        let tag = *buf.first()?;
        let u64_at = |o: usize| Some(u64::from_le_bytes(buf.get(o..o + 8)?.try_into().ok()?));
        let u16_at = |o: usize| Some(u16::from_le_bytes(buf.get(o..o + 2)?.try_into().ok()?));
        let key_at = |o: usize| Some(Key(buf.get(o..o + 24)?.try_into().ok()?));
        match tag {
            1 => Some((RedoBody::PageInit { page_no: u64_at(1)?, level: u16_at(9)? }, 11)),
            2 => {
                let page_no = u64_at(1)?;
                let key = key_at(9)?;
                let vlen = u16_at(33)? as usize;
                let value = buf.get(35..35 + vlen)?.to_vec();
                Some((RedoBody::Upsert { page_no, key, value }, 35 + vlen))
            }
            3 => Some((RedoBody::Remove { page_no: u64_at(1)?, key: key_at(9)? }, 33)),
            4 => {
                let page_no = u64_at(1)?;
                let mut off = 11;
                for _ in 0..u16_at(9)? {
                    off = record_end(buf, off)?;
                }
                Some((RedoBody::AppendEntries { page_no, run: buf[11..off].to_vec() }, off))
            }
            5 => Some((RedoBody::TruncateHigh { page_no: u64_at(1)?, pivot: key_at(9)? }, 33)),
            6 => Some((RedoBody::SetNextPtr { page_no: u64_at(1)?, next: u64_at(9)? }, 17)),
            7 => Some((RedoBody::SetRoot { root: u64_at(1)?, height: u16_at(9)? }, 11)),
            8 => Some((RedoBody::MtrEnd, 1)),
            _ => None,
        }
    }

    /// Group a flat record stream into complete mini-transactions,
    /// discarding a trailing group that lost its `MtrEnd` to the crash.
    pub fn group_mtrs(records: Vec<RedoRecord>) -> Vec<Vec<RedoRecord>> {
        let mut groups = Vec::new();
        let mut cur = Vec::new();
        for r in records {
            if matches!(r.body, RedoBody::MtrEnd) {
                groups.push(std::mem::take(&mut cur));
            } else {
                cur.push(r);
            }
        }
        // `cur` (incomplete trailing MTR) is intentionally dropped.
        groups
    }
}

/// A sequenced redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedoRecord {
    /// Log sequence number (strictly increasing).
    pub lsn: u64,
    /// The page change.
    pub body: RedoBody,
}

/// Engine metadata persisted in the log header at each checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointMeta {
    /// Records with lsn < this are reflected in flushed pages.
    pub ckpt_lsn: u64,
    /// Tree root page.
    pub root: u64,
    /// Tree height (0 = empty tree).
    pub height: u16,
    /// Next page number to allocate.
    pub next_page_no: u64,
}

/// The redo log: byte-packed records on a page-granular log device.
///
/// Page 0 is the header; the device's other pages form a ring the log
/// writes round and round. The header names the *start page*, the one holding the
/// checkpoint's record: recovery reads from there and stops at the first
/// page of an older lap, which its LSNs give away. The log never writes its
/// start page again before a later checkpoint moves it.
///
/// A *redo position* counts the ring's bytes from the log's first page:
/// `page × payload + offset`, growing without wrapping. The distance from
/// the checkpoint's position to the write position is the redo the log
/// holds.
#[derive(Debug)]
pub struct RedoLog {
    dev: SimpleSsd,
    page_size: usize,
    /// Ring pages (the device's pages less the header).
    ring: u64,
    /// Lap-free index of the page being filled; device page
    /// `1 + seq % ring`.
    seq: u64,
    /// Lap-free index of the start page.
    start_seq: u64,
    /// Redo position the checkpoint was recorded at.
    ckpt_pos: u64,
    /// Payload of the log page being filled.
    buf: Vec<u8>,
    /// `crc32c(&buf)`, extended record by record: a flush stamps it
    /// instead of checksumming the page it rewrites again.
    buf_crc: u32,
    /// The one log-page image every device write is built in.
    page: Vec<u8>,
    next_lsn: u64,
    flushed_lsn: u64,
}

/// Page payload layout: magic(4) crc(4) used(2) pad(6) payload.
const PAGE_HDR: usize = 16;

/// Ring pages kept free in front of the start page: the redo one
/// transaction may write between two checkpoint checks.
const RING_SLACK_PAGES: u64 = 4;

impl RedoLog {
    /// A fresh log on `dev`.
    pub fn format(dev: SimpleSsd) -> Result<Self, EngineError> {
        let page_size = dev.page_size();
        let mut log = Self {
            ring: dev.capacity_pages() - 1,
            dev,
            page_size,
            seq: 0,
            start_seq: 0,
            ckpt_pos: 0,
            buf: Vec::with_capacity(page_size - PAGE_HDR),
            buf_crc: 0,
            page: vec![0u8; page_size],
            next_lsn: 1,
            flushed_lsn: 0,
        };
        log.write_checkpoint(CheckpointMeta::default(), 0)?;
        Ok(log)
    }

    /// Reopen after a crash: read the checkpoint header and scan intact
    /// record pages from its start page. Returns the metadata and every
    /// record with `lsn >= ckpt_lsn`, in order.
    pub fn recover(mut dev: SimpleSsd) -> Result<(Self, CheckpointMeta, Vec<RedoRecord>), EngineError> {
        let page_size = dev.page_size();
        let ring = dev.capacity_pages() - 1;
        let mut page = vec![0u8; page_size];
        dev.read(Lpn(0), &mut page).map_err(EngineError::Device)?;
        if u32::from_le_bytes(page[0..4].try_into().unwrap()) != HDR_MAGIC {
            return Err(EngineError::RedoCorrupt("missing log header".into()));
        }
        let crc = u32::from_le_bytes(page[4..8].try_into().unwrap());
        if crc32c(&page[8..48]) != crc {
            return Err(EngineError::RedoCorrupt("log header checksum".into()));
        }
        let meta = CheckpointMeta {
            ckpt_lsn: u64::from_le_bytes(page[8..16].try_into().unwrap()),
            root: u64::from_le_bytes(page[16..24].try_into().unwrap()),
            height: u16::from_le_bytes(page[24..26].try_into().unwrap()),
            next_page_no: u64::from_le_bytes(page[32..40].try_into().unwrap()),
        };
        // Headers written before the ring name no start page: page 1.
        let start = u64::from_le_bytes(page[40..48].try_into().unwrap()).max(1);
        if start > ring {
            return Err(EngineError::RedoCorrupt(format!("log start page {start} beyond the ring")));
        }

        let start_seq = start - 1;
        let mut seq = start_seq;
        let mut records = Vec::new();
        let mut last_lsn = 0u64;
        'pages: while seq < start_seq + ring {
            dev.read(Lpn(1 + seq % ring), &mut page).map_err(EngineError::Device)?;
            if u32::from_le_bytes(page[0..4].try_into().unwrap()) != LOG_MAGIC {
                break;
            }
            let crc = u32::from_le_bytes(page[4..8].try_into().unwrap());
            let used = u16::from_le_bytes(page[8..10].try_into().unwrap()) as usize;
            if used > page_size - PAGE_HDR || crc32c(&page[PAGE_HDR..PAGE_HDR + used]) != crc {
                break;
            }
            let mut off = PAGE_HDR;
            let mut page_records = Vec::new();
            while off < PAGE_HDR + used {
                let lsn = u64::from_le_bytes(page[off..off + 8].try_into().unwrap());
                if lsn <= last_lsn {
                    break 'pages; // a page of an older lap
                }
                let Some((body, len)) = RedoBody::decode(&page[off + 8..PAGE_HDR + used]) else {
                    break 'pages;
                };
                page_records.push(RedoRecord { lsn, body });
                last_lsn = lsn;
                off += 8 + len;
            }
            records.extend(page_records);
            seq += 1;
        }
        records.retain(|r| r.lsn >= meta.ckpt_lsn);

        let next_lsn = last_lsn.max(meta.ckpt_lsn).max(1) + 1;
        let log = Self {
            dev,
            page_size,
            ring,
            // A partly filled last page is left as it is; writing goes on
            // on the next one.
            seq,
            start_seq,
            ckpt_pos: start_seq * (page_size - PAGE_HDR) as u64,
            buf: Vec::with_capacity(page_size - PAGE_HDR),
            buf_crc: 0,
            page,
            next_lsn,
            flushed_lsn: next_lsn - 1,
        };
        Ok((log, meta, records))
    }

    fn payload_cap(&self) -> usize {
        self.page_size - PAGE_HDR
    }

    /// Reserve the next LSN.
    pub fn next_lsn(&mut self) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        lsn
    }

    /// The LSN the next appended record will carry.
    pub(crate) fn end_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Highest LSN guaranteed durable.
    pub fn flushed_lsn(&self) -> u64 {
        self.flushed_lsn
    }

    /// The write position: the end of the last appended record (what
    /// [`Self::write_checkpoint`] takes when nothing older is needed).
    pub fn position(&self) -> u64 {
        self.seq * self.payload_cap() as u64 + self.buf.len() as u64
    }

    /// Redo the log holds beyond its checkpoint, in ring bytes.
    pub(crate) fn held(&self) -> u64 {
        self.position() - self.ckpt_pos
    }

    /// The most redo the log may hold beyond its checkpoint: the ring less
    /// the slack in front of the start page.
    pub(crate) fn capacity(&self) -> u64 {
        self.ring.saturating_sub(RING_SLACK_PAGES) * self.payload_cap() as u64
    }

    /// Append a record (not yet durable).
    pub fn append(&mut self, lsn: u64, body: &RedoBody) -> Result<(), EngineError> {
        let len = 8 + body.encoded_len();
        assert!(len <= self.payload_cap(), "record exceeds log page payload");
        if self.buf.len() + len > self.payload_cap() {
            self.write_page(true)?;
        }
        let at = self.buf.len();
        self.buf.extend_from_slice(&lsn.to_le_bytes());
        body.encode(&mut self.buf);
        self.buf_crc = crc32c_append(self.buf_crc, &self.buf[at..]);
        Ok(())
    }

    fn write_page(&mut self, advance: bool) -> Result<(), EngineError> {
        if self.seq >= self.start_seq + self.ring {
            return Err(EngineError::RedoCorrupt(
                "log device full — checkpoint was not taken in time".into(),
            ));
        }
        debug_assert_eq!(self.buf_crc, crc32c(&self.buf), "running redo CRC");
        let (page, used) = (&mut self.page, self.buf.len());
        page[0..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&self.buf_crc.to_le_bytes());
        page[8..10].copy_from_slice(&(used as u16).to_le_bytes());
        page[10..PAGE_HDR].fill(0);
        page[PAGE_HDR..PAGE_HDR + used].copy_from_slice(&self.buf);
        page[PAGE_HDR + used..].fill(0);
        self.dev.write(Lpn(1 + self.seq % self.ring), page).map_err(EngineError::Device)?;
        if advance {
            self.seq += 1;
            self.buf.clear();
            self.buf_crc = 0;
        }
        Ok(())
    }

    /// Make every appended record durable (group commit).
    pub fn flush(&mut self) -> Result<(), EngineError> {
        if self.flushed_lsn + 1 == self.next_lsn && self.buf.is_empty() {
            return Ok(()); // nothing new
        }
        if !self.buf.is_empty() {
            // Partial page: rewritten in place until it fills.
            let full = self.buf.len() >= self.payload_cap();
            self.write_page(full)?;
        }
        self.dev.flush().map_err(EngineError::Device)?;
        self.flushed_lsn = self.next_lsn - 1;
        Ok(())
    }

    /// Persist a checkpoint header for the record logged at redo position
    /// `pos` (`meta.ckpt_lsn`'s, or the write position when nothing older
    /// is needed). The page holding the byte before `pos` becomes the start
    /// page; the ring pages the start page leaves behind are trimmed, so
    /// the device holds only the pages recovery may read.
    pub fn write_checkpoint(&mut self, meta: CheckpointMeta, pos: u64) -> Result<(), EngineError> {
        // The start page only moves forward: the freed range below and the
        // pages recovery reads depend on it.
        assert!(self.ckpt_pos <= pos && pos <= self.position(), "checkpoint outside the log");
        // Any straggling records must be durable before the header claims
        // the checkpoint LSN.
        self.flush()?;
        // A log recovered from an empty start page sits at its start.
        let start_seq = (pos.saturating_sub(1) / self.payload_cap() as u64).max(self.start_seq);
        let page = &mut self.page;
        page.fill(0);
        page[0..4].copy_from_slice(&HDR_MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&meta.ckpt_lsn.to_le_bytes());
        page[16..24].copy_from_slice(&meta.root.to_le_bytes());
        page[24..26].copy_from_slice(&meta.height.to_le_bytes());
        page[32..40].copy_from_slice(&meta.next_page_no.to_le_bytes());
        page[40..48].copy_from_slice(&(1 + start_seq % self.ring).to_le_bytes());
        let crc = crc32c(&page[8..48]);
        page[4..8].copy_from_slice(&crc.to_le_bytes());
        self.dev.write(Lpn(0), page).map_err(EngineError::Device)?;
        self.dev.flush().map_err(EngineError::Device)?;
        let freed = self.start_seq..start_seq;
        self.start_seq = start_seq;
        self.ckpt_pos = pos;
        // At most one lap is freed, in one or two runs of the ring.
        let first = 1 + freed.start % self.ring;
        let len = freed.end - freed.start;
        let head = len.min(self.ring + 1 - first);
        for (at, n) in [(first, head), (1, len - head)] {
            if n > 0 {
                self.dev.trim(Lpn(at), n).map_err(EngineError::Device)?;
            }
        }
        Ok(())
    }

    /// Log-device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.dev.stats()
    }

    /// Inject a device error (tests).
    pub fn device_mut(&mut self) -> &mut SimpleSsd {
        &mut self.dev
    }

    /// Take the device out (crash-recovery tests).
    pub fn into_device(self) -> SimpleSsd {
        self.dev
    }
}

/// Helper: a standard log device (64 MiB, 4 KiB pages) on `clock`.
pub fn standard_log_device(clock: nand_sim::SimClock) -> SimpleSsd {
    SimpleSsd::new(4096, (64 << 20) / 4096, clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nand_sim::{FaultMode, SimClock};

    fn fresh() -> RedoLog {
        RedoLog::format(SimpleSsd::new(4096, 1024, SimClock::new())).unwrap()
    }

    fn upsert(page_no: u64, id: u64, fill: u8, len: usize) -> RedoBody {
        RedoBody::Upsert { page_no, key: Key::node(id), value: vec![fill; len] }
    }

    /// A packed run of node entries, built the way a page holds them.
    fn packed(entries: &[(u64, &[u8])]) -> Vec<u8> {
        let mut page = crate::NodePage::new(0, 0, 4096);
        for (id, value) in entries {
            page.upsert(&Key::node(*id), value);
        }
        page.packed(0..page.len()).to_vec()
    }

    #[test]
    fn bodies_encode_decode_round_trip() {
        let bodies = vec![
            RedoBody::PageInit { page_no: 3, level: 2 },
            upsert(1, 9, 0xAB, 40),
            RedoBody::Remove { page_no: 2, key: Key::link(1, 2, 3) },
            RedoBody::AppendEntries { page_no: 4, run: packed(&[(1, &[1; 3]), (2, &[2; 9])]) },
            RedoBody::TruncateHigh { page_no: 4, pivot: Key::count(7, 1) },
            RedoBody::SetNextPtr { page_no: 4, next: 5 },
            RedoBody::SetRoot { root: 11, height: 3 },
            RedoBody::MtrEnd,
        ];
        for b in bodies {
            let mut buf = Vec::new();
            b.encode(&mut buf);
            let (d, len) = RedoBody::decode(&buf).unwrap();
            assert_eq!(d, b);
            assert_eq!(len, buf.len());
            assert_eq!(b.encoded_len(), buf.len());
        }
    }

    #[test]
    fn append_flush_recover_round_trips() {
        let mut log = fresh();
        let mut expect = Vec::new();
        for i in 0..100u64 {
            let lsn = log.next_lsn();
            let body = upsert(i % 7, i, i as u8, 32);
            log.append(lsn, &body).unwrap();
            expect.push(RedoRecord { lsn, body });
        }
        log.flush().unwrap();
        let (_, meta, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(meta.ckpt_lsn, 0);
        assert_eq!(records, expect);
    }

    #[test]
    fn unflushed_records_are_lost() {
        let mut log = fresh();
        let lsn = log.next_lsn();
        log.append(lsn, &upsert(0, 1, 1, 16)).unwrap();
        // No flush.
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn checkpoint_truncates_old_records() {
        let mut log = fresh();
        for i in 0..50u64 {
            let lsn = log.next_lsn();
            log.append(lsn, &upsert(0, i, 0, 16)).unwrap();
        }
        log.flush().unwrap();
        let ckpt = CheckpointMeta { ckpt_lsn: 51, root: 9, height: 2, next_page_no: 33 };
        log.write_checkpoint(ckpt, log.position()).unwrap();
        // New records after the checkpoint.
        let mut expect = Vec::new();
        for i in 0..5u64 {
            let lsn = log.next_lsn();
            let body = upsert(1, i, 1, 16);
            log.append(lsn, &body).unwrap();
            expect.push(RedoRecord { lsn, body });
        }
        log.flush().unwrap();
        let (_, meta, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(meta, ckpt);
        assert_eq!(records, expect);
    }

    #[test]
    fn recovery_right_after_checkpoint_replays_nothing() {
        let mut log = fresh();
        for i in 0..300u64 {
            let lsn = log.next_lsn();
            log.append(lsn, &upsert(0, i, 0, 64)).unwrap();
        }
        log.flush().unwrap();
        let meta = CheckpointMeta { ckpt_lsn: 301, root: 1, height: 1, next_page_no: 2 };
        log.write_checkpoint(meta, log.position()).unwrap();
        // The start page still holds records with lsn < 301.
        let (_, meta, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(meta.ckpt_lsn, 301);
        assert!(records.is_empty(), "stale pre-checkpoint records must be filtered");
    }

    #[test]
    fn group_commit_rewrites_partial_pages() {
        let mut log = fresh();
        let writes_before = log.device_stats().host_writes;
        for _ in 0..3 {
            let lsn = log.next_lsn();
            log.append(lsn, &upsert(0, 1, 0, 16)).unwrap();
            log.flush().unwrap();
        }
        // Three flushes of the same partial page: three page writes.
        assert_eq!(log.device_stats().host_writes - writes_before, 3);
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn multi_page_streams_recover_in_order() {
        let mut log = fresh();
        let mut lsns = Vec::new();
        for i in 0..2_000u64 {
            let lsn = log.next_lsn();
            log.append(lsn, &upsert(i, i, 0, 100)).unwrap();
            lsns.push(lsn);
        }
        log.flush().unwrap();
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(records.len(), 2_000);
        assert!(records.windows(2).all(|w| w[0].lsn < w[1].lsn));
    }

    #[test]
    fn mtr_grouping_discards_incomplete_tail() {
        let rec = |lsn, body| RedoRecord { lsn, body };
        let records = vec![
            rec(1, upsert(0, 1, 0, 4)),
            rec(2, RedoBody::MtrEnd),
            rec(3, upsert(0, 2, 0, 4)),
            rec(4, upsert(1, 3, 0, 4)),
            rec(5, RedoBody::MtrEnd),
            rec(6, upsert(0, 4, 0, 4)), // crash before MtrEnd
        ];
        let groups = RedoBody::group_mtrs(records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 1);
        assert_eq!(groups[1].len(), 2);
    }

    #[test]
    fn held_counts_redo_beyond_the_checkpoint() {
        let mut log = fresh();
        assert_eq!(log.held(), 0);
        let mut logged = Vec::new();
        log_records(&mut log, 20, &mut logged);
        // 20 records of 143 bytes: the first page's payload holds 28.
        assert_eq!(log.held(), 20 * 143);
        log.write_checkpoint(CheckpointMeta { ckpt_lsn: 11, ..Default::default() }, logged[10].1)
            .unwrap();
        assert_eq!(log.held(), 9 * 143);
        log.write_checkpoint(CheckpointMeta { ckpt_lsn: 21, ..Default::default() }, log.position())
            .unwrap();
        assert_eq!(log.held(), 0);
    }

    /// A log on a 16-page device: a 15-page ring.
    fn small() -> RedoLog {
        RedoLog::format(SimpleSsd::new(4096, 16, SimClock::new())).unwrap()
    }

    /// Append `n` records, noting each with the write position after it
    /// (what a buffer-pool frame records as its first change).
    fn log_records(log: &mut RedoLog, n: u64, logged: &mut Vec<(RedoRecord, u64)>) {
        for i in 0..n {
            let lsn = log.next_lsn();
            let body = upsert(i, lsn, lsn as u8, 100);
            log.append(lsn, &body).unwrap();
            logged.push((RedoRecord { lsn, body }, log.position()));
        }
        log.flush().unwrap();
    }

    /// Rewrite the header's start page, as a header from before the ring
    /// (which had zeros there) or a damaged one would read.
    fn set_header_start(log: &mut RedoLog, start: u64) {
        let mut hdr = vec![0u8; 4096];
        log.dev.read(Lpn(0), &mut hdr).unwrap();
        hdr[40..48].copy_from_slice(&start.to_le_bytes());
        let crc = crc32c(&hdr[8..48]);
        hdr[4..8].copy_from_slice(&crc.to_le_bytes());
        log.dev.write(Lpn(0), &hdr).unwrap();
    }

    #[test]
    fn a_small_ring_wraps_many_times_and_recovers_after_every_checkpoint() {
        let mut log = small();
        let mut logged = Vec::new();
        let mut pages = 0;
        for round in 0..120u64 {
            // ~1.4 pages per round; the checkpoint keeps the last 25
            // records (~0.9 pages) behind it, as dirty pages would. (A
            // recovered log numbers its positions afresh, as the pool
            // it refills does.)
            let seq = log.seq;
            log_records(&mut log, 40, &mut logged);
            pages += log.seq - seq;
            let (ckpt, pos) = {
                let (r, pos) = &logged[logged.len() - 25];
                (r.lsn, *pos)
            };
            let meta = CheckpointMeta { ckpt_lsn: ckpt, root: round, height: 1, next_page_no: 7 };
            log.write_checkpoint(meta, pos).unwrap();
            assert!(log.held() < log.capacity());
            let (back, got, records) = RedoLog::recover(log.into_device()).unwrap();
            assert_eq!(got, meta);
            let want: Vec<RedoRecord> =
                logged.iter().map(|(r, _)| r).filter(|r| r.lsn >= ckpt).cloned().collect();
            assert_eq!(records, want, "round {round}");
            log = back;
        }
        // Pages filled, not counting the part-filled ones each recovery
        // leaves behind: at least eight laps.
        assert!(pages >= 8 * log.ring, "only {pages} pages filled");
    }

    #[test]
    fn pages_of_an_older_lap_end_the_scan() {
        let mut log = small();
        let mut logged = Vec::new();
        // Nine pages behind a checkpoint at the first record.
        log_records(&mut log, 250, &mut logged);
        log.write_checkpoint(CheckpointMeta { ckpt_lsn: 1, ..Default::default() }, logged[0].1)
            .unwrap();
        // A checkpoint at the tail whose trim a power cut stops: the header
        // (the second program, after the part-filled page) lands, and the
        // pages it freed keep their records.
        let meta = CheckpointMeta { ckpt_lsn: log.end_lsn(), ..Default::default() };
        let power = log.dev.fault_handle();
        power.arm_after_programs(2, FaultMode::AfterProgram);
        assert!(log.write_checkpoint(meta, log.position()).is_err());
        power.disarm();
        log.dev.power_cycle();
        let (mut log, got, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!((got, records), (meta, vec![]));
        // A full lap later, the page after the tail is one of those nine:
        // intact, and older.
        logged.clear();
        for _ in 0..8 {
            log_records(&mut log, 40, &mut logged);
            let (r, pos) = &logged[logged.len() - 10];
            log.write_checkpoint(CheckpointMeta { ckpt_lsn: r.lsn, ..meta }, *pos).unwrap();
        }
        let ckpt = logged[logged.len() - 10].0.lsn;
        let mut next = vec![0u8; 4096];
        log.dev.read(Lpn(1 + (log.seq + 1) % log.ring), &mut next).unwrap();
        assert_eq!(u32::from_le_bytes(next[0..4].try_into().unwrap()), LOG_MAGIC);
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        let want: Vec<RedoRecord> =
            logged.into_iter().map(|(r, _)| r).filter(|r| r.lsn >= ckpt).collect();
        assert_eq!(records, want);
    }

    #[test]
    fn a_header_with_start_page_zero_loads_as_page_one() {
        let mut log = fresh();
        let mut logged = Vec::new();
        log_records(&mut log, 100, &mut logged);
        set_header_start(&mut log, 0);
        let (back, meta, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(meta, CheckpointMeta::default());
        assert_eq!(records, logged.into_iter().map(|(r, _)| r).collect::<Vec<_>>());
        assert_eq!(back.start_seq, 0);
        // A start page past the ring is refused, not read.
        let mut log = back;
        set_header_start(&mut log, 1024);
        assert!(matches!(RedoLog::recover(log.into_device()), Err(EngineError::RedoCorrupt(_))));
    }

    #[test]
    fn a_start_page_with_no_records_recovers_empty_and_checkpoints_in_place() {
        let mut log = fresh();
        set_header_start(&mut log, 500);
        let (mut log, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert!(records.is_empty());
        log.write_checkpoint(CheckpointMeta::default(), log.position()).unwrap();
        let mut logged = Vec::new();
        log_records(&mut log, 3, &mut logged);
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(records, logged.into_iter().map(|(r, _)| r).collect::<Vec<_>>());
    }

    #[test]
    fn recovery_after_a_clean_shutdown_reads_at_most_two_log_pages() {
        for partial in [0u64, 1, 7] {
            let mut log = small();
            let mut logged = Vec::new();
            for _ in 0..25 {
                log_records(&mut log, 40, &mut logged);
                log.write_checkpoint(CheckpointMeta::default(), log.position()).unwrap();
            }
            log_records(&mut log, partial, &mut logged);
            let meta = CheckpointMeta { ckpt_lsn: log.end_lsn(), ..Default::default() };
            log.write_checkpoint(meta, log.position()).unwrap();
            let reads = log.device_stats().host_reads;
            let (back, _, records) = RedoLog::recover(log.into_device()).unwrap();
            assert!(records.is_empty());
            let log_pages = back.device_stats().host_reads - reads - 1; // less the header
            assert!(log_pages <= 2, "{partial} records after the last page: {log_pages} pages read");
        }
    }

    #[test]
    fn the_log_never_writes_over_its_start_page() {
        let mut log = small();
        let mut logged = Vec::new();
        log_records(&mut log, 20, &mut logged);
        // Checkpoint at the first record: page 1 stays the start page.
        log.write_checkpoint(CheckpointMeta { ckpt_lsn: 1, ..Default::default() }, logged[0].1)
            .unwrap();
        let full = (0..2_000).find_map(|i| {
            let lsn = log.next_lsn();
            log.append(lsn, &upsert(0, i, 0, 100)).err()
        });
        assert!(matches!(full, Some(EngineError::RedoCorrupt(_))));
        assert!(log.held() > log.capacity(), "the engine's budget stops short of a full ring");
        let (_, _, records) = RedoLog::recover(log.into_device()).unwrap();
        assert_eq!(records[..20], logged.into_iter().map(|(r, _)| r).collect::<Vec<_>>()[..]);
    }
}
