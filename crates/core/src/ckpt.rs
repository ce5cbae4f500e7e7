//! Base mapping-table checkpoints.
//!
//! The delta log (see [`crate::delta`]) is truncated by periodically
//! persisting a full snapshot of the L2P table — the "reliably persistent
//! version, i.e. a base mapping table" of the paper's §4.2.2. Two slots
//! alternate so a crash during checkpointing always leaves the previous
//! snapshot intact; a commit page written last makes the new snapshot
//! valid all-or-nothing.
//!
//! Image format v4 appends the serialized device snapshot table (see
//! [`crate::snapshot`]) between the L2P table pages and the commit page,
//! with its byte length and CRC recorded in the header and the CRC echoed
//! in the commit page. A device with no snapshots writes a zero-length
//! section — byte-identical layout to v3 — and v1–v3 images (whose header
//! bytes at those offsets are zero) decode as an empty snapshot table, so
//! old images load unchanged.

use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::types::Ppn;
use crate::util::{crc32c, get_u32, get_u64, put_u32, put_u64};
use nand_sim::{BlockId, NandArray};

const CKPT_MAGIC: u32 = 0x434B_5054; // "CKPT"
const COMMIT_MAGIC: u32 = 0x4343_4D54; // "CCMT"

/// A recovered checkpoint: delta pages with `seq >= next_delta_seq` must be
/// replayed on top of `l2p`.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// Slot the snapshot was read from (0 or 1).
    pub slot: u32,
    /// Monotonic checkpoint generation (see [`write_checkpoint`]).
    pub generation: u64,
    /// Delta sequence number from which the log continues.
    pub next_delta_seq: u64,
    /// The snapshotted L2P table.
    pub l2p: Vec<Ppn>,
    /// Serialized device snapshot table (empty for pre-v4 images and
    /// snapshot-free devices); decode with
    /// [`crate::snapshot::SnapshotTable::decode`].
    pub snap: Vec<u8>,
}

fn slot_ppn(cfg: &FtlConfig, slot: u32, page_idx: u32) -> nand_sim::Ppn {
    let start = cfg.ckpt_slot_start(slot);
    let ppb = cfg.geometry.pages_per_block;
    let block = BlockId(start.0 + page_idx / ppb);
    nand_sim::Ppn(block.0 * ppb + page_idx % ppb)
}

/// Number of meta pages a checkpoint occupies (header + table + commit),
/// *excluding* any snapshot-table section.
pub fn checkpoint_pages(cfg: &FtlConfig) -> u32 {
    let table_pages = (cfg.logical_pages * 4).div_ceil(cfg.geometry.page_size as u64) as u32;
    table_pages + 2
}

/// Meta pages a serialized snapshot table of `snap_bytes` occupies in a
/// checkpoint (0 when empty).
pub fn snapshot_section_pages(cfg: &FtlConfig, snap_bytes: usize) -> u32 {
    snap_bytes.div_ceil(cfg.geometry.page_size) as u32
}

/// Largest serialized snapshot table a checkpoint slot can hold: the slot
/// blocks are sized for header + L2P table + commit, and the snapshot
/// section lives in the remaining slack pages.
pub fn max_snapshot_bytes(cfg: &FtlConfig) -> usize {
    let slot_pages = cfg.ckpt_slot_blocks() as u64 * cfg.geometry.pages_per_block as u64;
    let slack = slot_pages.saturating_sub(checkpoint_pages(cfg) as u64);
    slack as usize * cfg.geometry.page_size
}

/// Write a full snapshot into `slot`. `next_delta_seq` is the delta
/// sequence number the log continues from after this checkpoint;
/// `generation` must strictly increase across checkpoints. The delta
/// sequence alone cannot order the two slots: consecutive checkpoints
/// with only RAM-buffered deltas between them (plain writes, no flush)
/// carry the *same* `next_delta_seq`, and recovery picking the stale
/// slot on that tie silently rolls back committed writes. `snap` is the
/// serialized snapshot table (empty for a snapshot-free device — the
/// layout then matches v3 byte for byte). Returns the number of meta
/// pages programmed.
pub fn write_checkpoint(
    cfg: &FtlConfig,
    nand: &mut NandArray,
    slot: u32,
    generation: u64,
    next_delta_seq: u64,
    l2p: &[Ppn],
    snap: &[u8],
) -> Result<u64, FtlError> {
    debug_assert_eq!(l2p.len() as u64, cfg.logical_pages);
    if snap.len() > max_snapshot_bytes(cfg) {
        return Err(FtlError::SnapshotTableFull);
    }
    let page_size = cfg.geometry.page_size;
    let slot_blocks: Vec<BlockId> =
        (0..cfg.ckpt_slot_blocks()).map(|b| BlockId(cfg.ckpt_slot_start(slot).0 + b)).collect();
    nand.erase_batch(&slot_blocks)?;

    let table_bytes = l2p.len() * 4;
    let table_pages = table_bytes.div_ceil(page_size) as u32;
    let snap_pages = snapshot_section_pages(cfg, snap.len());

    // Header page, then the table, then the snapshot section: one
    // zero-padded image, programmed as one batched submission. Correctness
    // never depends on the pages' order: only the commit page (programmed
    // strictly after, as its own submission) validates the snapshot, and a
    // fault mid-batch stops the batch before it.
    let mut image = vec![0u8; (1 + table_pages + snap_pages) as usize * page_size];
    let (header, sections) = image.split_at_mut(page_size);
    let (table, snap_section) = sections.split_at_mut(table_pages as usize * page_size);
    for (entry, p) in table.chunks_exact_mut(4).zip(l2p) {
        entry.copy_from_slice(&p.0.to_le_bytes());
    }
    snap_section[..snap.len()].copy_from_slice(snap);
    let table_crc = crc32c(&table[..table_bytes]);
    let snap_crc = if snap.is_empty() { 0 } else { crc32c(snap) };
    put_u32(header, 0, CKPT_MAGIC);
    put_u64(header, 4, next_delta_seq);
    put_u64(header, 12, cfg.logical_pages);
    put_u32(header, 20, table_crc);
    put_u64(header, 24, generation);
    put_u64(header, 32, snap.len() as u64);
    put_u32(header, 40, snap_crc);
    nand.program_batch(
        image.chunks(page_size).enumerate().map(|(i, page)| (slot_ppn(cfg, slot, i as u32), page)),
    )?;

    // Commit page — programmed last; its presence validates the snapshot.
    let mut page = vec![0u8; page_size];
    put_u32(&mut page, 0, COMMIT_MAGIC);
    put_u64(&mut page, 4, next_delta_seq);
    put_u32(&mut page, 12, table_crc);
    put_u64(&mut page, 16, generation);
    put_u32(&mut page, 24, snap_crc);
    nand.program(slot_ppn(cfg, slot, 1 + table_pages + snap_pages), &page)?;

    Ok(table_pages as u64 + snap_pages as u64 + 2)
}

fn read_slot(cfg: &FtlConfig, nand: &mut NandArray, slot: u32) -> Option<RecoveredCheckpoint> {
    let page_size = cfg.geometry.page_size;
    let mut buf = vec![0u8; page_size];
    nand.read(slot_ppn(cfg, slot, 0), &mut buf).ok()?;
    if get_u32(&buf, 0) != CKPT_MAGIC {
        return None;
    }
    let seq = get_u64(&buf, 4);
    let count = get_u64(&buf, 12);
    let table_crc = get_u32(&buf, 20);
    let generation = get_u64(&buf, 24);
    // v1–v3 images left these header bytes zeroed: snap_bytes 0 decodes
    // as an empty snapshot table.
    let snap_bytes = get_u64(&buf, 32) as usize;
    let snap_crc = get_u32(&buf, 40);
    if count != cfg.logical_pages {
        return None;
    }
    let table_bytes = (count * 4) as usize;
    let table_pages = table_bytes.div_ceil(page_size) as u32;
    let snap_pages = snapshot_section_pages(cfg, snap_bytes);

    // Commit page first: cheap validity check before reading the table.
    // (For pre-v4 images snap_pages is 0 and the commit page's byte 24
    // region was zero, so both the position and the CRC echo match.)
    nand.read(slot_ppn(cfg, slot, 1 + table_pages + snap_pages), &mut buf).ok()?;
    if get_u32(&buf, 0) != COMMIT_MAGIC
        || get_u64(&buf, 4) != seq
        || get_u32(&buf, 12) != table_crc
        || get_u64(&buf, 16) != generation
        || get_u32(&buf, 24) != snap_crc
    {
        return None;
    }

    let mut table = vec![0u8; table_pages as usize * page_size];
    for i in 0..table_pages {
        let dst = i as usize * page_size;
        nand.read(slot_ppn(cfg, slot, 1 + i), &mut table[dst..dst + page_size]).ok()?;
    }
    table.truncate(table_bytes);
    if crc32c(&table) != table_crc {
        return None;
    }
    let mut snap = vec![0u8; snap_pages as usize * page_size];
    for i in 0..snap_pages {
        let dst = i as usize * page_size;
        nand.read(slot_ppn(cfg, slot, 1 + table_pages + i), &mut snap[dst..dst + page_size])
            .ok()?;
    }
    snap.truncate(snap_bytes);
    if !snap.is_empty() && crc32c(&snap) != snap_crc {
        return None;
    }
    let l2p = table
        .chunks_exact(4)
        .map(|c| Ppn(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    Some(RecoveredCheckpoint { slot, generation, next_delta_seq: seq, l2p, snap })
}

/// Read the newest valid checkpoint, if any slot holds one. Ordered by
/// generation — delta sequence numbers tie across checkpoints that had
/// no intervening log flush, so they cannot order the slots.
pub fn read_latest(cfg: &FtlConfig, nand: &mut NandArray) -> Option<RecoveredCheckpoint> {
    let a = read_slot(cfg, nand, 0);
    let b = read_slot(cfg, nand, 1);
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.generation >= b.generation { a } else { b }),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
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

    fn sample_l2p(cfg: &FtlConfig) -> Vec<Ppn> {
        (0..cfg.logical_pages)
            .map(|i| if i % 3 == 0 { Ppn(i as u32 + 1000) } else { Ppn::INVALID })
            .collect()
    }

    #[test]
    fn write_then_read_round_trips() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        write_checkpoint(&cfg, &mut nand, 0, 1, 42, &l2p, &[]).unwrap();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 0);
        assert_eq!(r.next_delta_seq, 42);
        assert_eq!(r.l2p, l2p);
    }

    #[test]
    fn empty_device_has_no_checkpoint() {
        let (cfg, mut nand) = setup();
        assert!(read_latest(&cfg, &mut nand).is_none());
    }

    #[test]
    fn newer_slot_wins() {
        let (cfg, mut nand) = setup();
        let old = sample_l2p(&cfg);
        let mut new = old.clone();
        new[0] = Ppn(777);
        write_checkpoint(&cfg, &mut nand, 0, 1, 10, &old, &[]).unwrap();
        write_checkpoint(&cfg, &mut nand, 1, 2, 20, &new, &[]).unwrap();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 1);
        assert_eq!(r.l2p[0], Ppn(777));
    }

    #[test]
    fn slots_alternate_by_erasure() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        write_checkpoint(&cfg, &mut nand, 0, 1, 10, &l2p, &[]).unwrap();
        write_checkpoint(&cfg, &mut nand, 1, 2, 20, &l2p, &[]).unwrap();
        write_checkpoint(&cfg, &mut nand, 0, 3, 30, &l2p, &[]).unwrap(); // reuse slot 0
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.next_delta_seq, 30);
        assert_eq!(r.slot, 0);
    }

    #[test]
    fn crash_during_checkpoint_preserves_previous_snapshot() {
        let (cfg, mut nand) = setup();
        let old = sample_l2p(&cfg);
        write_checkpoint(&cfg, &mut nand, 0, 1, 10, &old, &[]).unwrap();
        // Crash while writing slot 1, before its commit page lands.
        nand.fault_handle().arm_after_programs(2, nand_sim::FaultMode::TornHalf);
        let mut new = old.clone();
        new[1] = Ppn(555);
        assert!(write_checkpoint(&cfg, &mut nand, 1, 2, 20, &new, &[]).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.next_delta_seq, 10, "old snapshot must survive");
        assert_eq!(r.l2p, old);
    }

    #[test]
    fn corrupt_commit_page_invalidates_slot() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        write_checkpoint(&cfg, &mut nand, 0, 1, 5, &l2p, &[]).unwrap();
        // Fault exactly on the commit page of the second checkpoint.
        let pages = checkpoint_pages(&cfg);
        nand.fault_handle().arm_after_programs(pages as u64, nand_sim::FaultMode::DroppedWrite);
        assert!(write_checkpoint(&cfg, &mut nand, 1, 2, 6, &l2p, &[]).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 0);
        assert_eq!(r.next_delta_seq, 5);
    }

    #[test]
    fn checkpoint_page_count_matches_layout() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        let written = write_checkpoint(&cfg, &mut nand, 0, 1, 1, &l2p, &[]).unwrap();
        assert_eq!(written, checkpoint_pages(&cfg) as u64);
    }

    #[test]
    fn generation_breaks_the_delta_seq_tie() {
        // Two checkpoints with no log flush between them carry the same
        // next_delta_seq; before generations, recovery could pick the
        // stale slot and roll back committed writes.
        let (cfg, mut nand) = setup();
        let old = sample_l2p(&cfg);
        let mut new = old.clone();
        new[0] = Ppn(777);
        write_checkpoint(&cfg, &mut nand, 0, 1, 10, &old, &[]).unwrap();
        write_checkpoint(&cfg, &mut nand, 1, 2, 10, &new, &[]).unwrap();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 1, "the higher generation must win the seq tie");
        assert_eq!(r.generation, 2);
        assert_eq!(r.l2p[0], Ppn(777));
    }

    #[test]
    fn snapshot_section_round_trips() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        // Over a page of section bytes: exercises the multi-page path.
        let snap: Vec<u8> = (0..cfg.geometry.page_size + 100).map(|i| (i % 251) as u8).collect();
        let written = write_checkpoint(&cfg, &mut nand, 0, 1, 7, &l2p, &snap).unwrap();
        assert_eq!(
            written,
            checkpoint_pages(&cfg) as u64 + snapshot_section_pages(&cfg, snap.len()) as u64
        );
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.snap, snap);
        assert_eq!(r.l2p, l2p);
    }

    #[test]
    fn empty_snapshot_section_is_byte_identical_to_v3() {
        // A v4 checkpoint of a snapshot-free device must program exactly
        // the v3 pages: same count, same commit position, and a pre-v4
        // reader (which ignores bytes 32.. of the header) sees the same
        // zeros there.
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        let written = write_checkpoint(&cfg, &mut nand, 0, 3, 9, &l2p, &[]).unwrap();
        assert_eq!(written, checkpoint_pages(&cfg) as u64);
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert!(r.snap.is_empty());
        let mut header = vec![0u8; cfg.geometry.page_size];
        nand.read(slot_ppn(&cfg, 0, 0), &mut header).unwrap();
        assert_eq!(get_u64(&header, 32), 0, "snap_bytes field zero");
        assert_eq!(get_u32(&header, 40), 0, "snap_crc field zero");
    }

    #[test]
    fn oversized_snapshot_section_is_rejected() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        let too_big = vec![0u8; max_snapshot_bytes(&cfg) + 1];
        assert_eq!(
            write_checkpoint(&cfg, &mut nand, 0, 1, 1, &l2p, &too_big),
            Err(FtlError::SnapshotTableFull)
        );
    }

    #[test]
    fn corrupt_snapshot_section_invalidates_slot() {
        let (cfg, mut nand) = setup();
        let l2p = sample_l2p(&cfg);
        write_checkpoint(&cfg, &mut nand, 0, 1, 5, &l2p, &[]).unwrap();
        let snap = vec![0xabu8; 64];
        // Fault on the snapshot-section page of the slot-1 checkpoint
        // (header + table pages land first).
        let table_pages = checkpoint_pages(&cfg) - 2;
        nand.fault_handle()
            .arm_after_programs(1 + table_pages as u64, nand_sim::FaultMode::DroppedWrite);
        assert!(write_checkpoint(&cfg, &mut nand, 1, 2, 6, &l2p, &snap).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 0, "torn snapshot section must not validate");
    }
}
