//! Base mapping-table checkpoints.
//!
//! The delta log (see [`crate::delta`]) is truncated by periodically
//! persisting a full snapshot of the L2P table — the "reliably persistent
//! version, i.e. a base mapping table" of the paper's §4.2.2. Two slots
//! alternate so a crash during checkpointing always leaves the previous
//! snapshot intact; a commit page written last makes the new snapshot
//! valid all-or-nothing.
//!
//! Each slot is a [`Stripe`] as wide as the delta-log ring, so one
//! checkpoint's pages program side by side on `w` units, and a slot takes
//! `w` checkpoints one after another before it is erased again: the erase
//! rate stays at one checkpoint's blocks per checkpoint at every width.
//! Recovery walks a slot's checkpoints from its start and keeps the last
//! valid one.
//!
//! Image format v4 appends the serialized device snapshot table (see
//! [`crate::snapshot`]) between the L2P table pages and the commit page,
//! with its byte length and CRC recorded in the header and the CRC echoed
//! in the commit page. A device with no snapshots writes a zero-length
//! section — byte-identical layout to v3 — and v1–v3 images (whose header
//! bytes at those offsets are zero) decode as an empty snapshot table, so
//! old images load unchanged.

use crate::config::{FtlConfig, Stripe};
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
    /// Monotonic checkpoint generation (see [`Checkpoints::write`]).
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

/// Largest serialized snapshot table a checkpoint can hold: one
/// checkpoint's lane blocks are sized for header + L2P table + commit, and
/// the snapshot section lives in the remaining slack pages.
pub fn max_snapshot_bytes(cfg: &FtlConfig) -> usize {
    let budget = cfg.ckpt_lane_blocks() as u64 * cfg.geometry.pages_per_block as u64;
    let slack = budget.saturating_sub(checkpoint_pages(cfg) as u64);
    slack as usize * cfg.geometry.page_size
}

/// One checkpoint slot: its stripe and where the next checkpoint goes.
#[derive(Debug)]
struct Slot {
    stripe: Stripe,
    /// The slot's blocks, erased together before its first checkpoint.
    blocks: Vec<BlockId>,
    /// Checkpoints appended since the last erase (up to the stripe width);
    /// at 0 the slot is erased first (also the state after `format` and
    /// `open`).
    taken: u32,
    /// Stripe page the next checkpoint starts at.
    next_page: u32,
}

/// The checkpoint writer: the two slots, the generation counter, and the
/// page image every checkpoint is built in (owned and reused, so a
/// checkpoint allocates nothing once the image has grown to its size).
#[derive(Debug)]
pub struct Checkpoints {
    slots: [Slot; 2],
    /// Slot of the last checkpoint; the next one goes to the other.
    last_slot: u32,
    /// Generation the next checkpoint carries (strictly increasing).
    next_gen: u64,
    image: Vec<u8>,
}

impl Checkpoints {
    /// A writer for `cfg` whose first checkpoint goes to slot 0 as
    /// generation 0.
    pub fn new(cfg: &FtlConfig) -> Self {
        let slot = |s| {
            let stripe = cfg.ckpt_slot(s);
            Slot { stripe, blocks: stripe.block_ids(), taken: 0, next_page: 0 }
        };
        let page_size = cfg.geometry.page_size;
        Self {
            slots: [slot(0), slot(1)],
            last_slot: 1,
            next_gen: 0,
            image: vec![0u8; checkpoint_pages(cfg) as usize * page_size],
        }
    }

    /// Continue after the recovered checkpoint `c`: the next checkpoint
    /// goes to the other slot with the next generation. Both slots are
    /// erased before their next checkpoint.
    pub fn resume(&mut self, c: &RecoveredCheckpoint) {
        self.last_slot = c.slot;
        self.next_gen = c.generation + 1;
    }

    /// Write a full snapshot into the slot after the last one's, at its
    /// next free page (erasing the slot first when it has taken its `w`
    /// checkpoints). `next_delta_seq` is the delta sequence number the log
    /// continues from after this checkpoint. The delta sequence alone
    /// cannot order checkpoints: consecutive ones with only RAM-buffered
    /// deltas between them (plain writes, no flush) carry the *same*
    /// `next_delta_seq`, and recovery picking the stale one on that tie
    /// silently rolls back committed writes — so each carries a strictly
    /// increasing generation. `snap` is the serialized snapshot table
    /// (empty for a snapshot-free device — the layout then matches v3
    /// byte for byte). Returns the number of meta pages programmed.
    pub fn write(
        &mut self,
        cfg: &FtlConfig,
        nand: &mut NandArray,
        next_delta_seq: u64,
        l2p: &[Ppn],
        snap: &[u8],
    ) -> Result<u64, FtlError> {
        debug_assert_eq!(l2p.len() as u64, cfg.logical_pages);
        if snap.len() > max_snapshot_bytes(cfg) {
            return Err(FtlError::SnapshotTableFull);
        }
        let page_size = cfg.geometry.page_size;
        let slot_no = 1 - self.last_slot;
        let generation = self.next_gen;
        let slot = &mut self.slots[slot_no as usize];
        if slot.taken == 0 {
            nand.erase_batch(&slot.blocks)?;
            slot.next_page = 0;
        }

        let table_bytes = l2p.len() * 4;
        let table_pages = table_bytes.div_ceil(page_size);
        let snap_pages = snapshot_section_pages(cfg, snap.len()) as usize;
        let pages = checkpoint_pages(cfg) as usize + snap_pages;
        if self.image.len() < pages * page_size {
            self.image.resize(pages * page_size, 0);
        }
        // Header page, then the table, then the snapshot section, then the
        // commit page: one zero-padded image.
        let image = &mut self.image[..pages * page_size];
        image.fill(0);
        let (header, sections) = image.split_at_mut(page_size);
        let (table, rest) = sections.split_at_mut(table_pages * page_size);
        let (snap_section, commit) = rest.split_at_mut(rest.len() - page_size);
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
        put_u32(commit, 0, COMMIT_MAGIC);
        put_u64(commit, 4, next_delta_seq);
        put_u32(commit, 12, table_crc);
        put_u64(commit, 16, generation);
        put_u32(commit, 24, snap_crc);

        // Everything but the commit page as one submission, striped over
        // the slot's lanes. Correctness never depends on the pages' order:
        // only the commit page (programmed strictly after, as its own
        // submission) validates the snapshot, and a fault mid-batch stops
        // the batch before it.
        let (body, commit) = image.split_at(image.len() - page_size);
        let at = slot.next_page;
        let ppn = |i: usize| slot.stripe.ppn(at + i as u32);
        nand.program_batch(body.chunks(page_size).enumerate().map(|(i, page)| (ppn(i), page)))?;
        nand.program(ppn(pages - 1), commit)?;

        slot.next_page += pages as u32;
        // A slot takes as many checkpoints between erases as it has lanes.
        slot.taken = (slot.taken + 1) % slot.stripe.width();
        self.last_slot = slot_no;
        self.next_gen += 1;
        Ok(pages as u64)
    }
}

/// A checkpoint's header fields, validated against its commit page.
struct Header {
    seq: u64,
    table_crc: u32,
    generation: u64,
    snap_bytes: usize,
    snap_crc: u32,
    /// Pages the checkpoint spans, commit page included.
    pages: u32,
}

/// Read and validate the header and commit page of the checkpoint that
/// starts at stripe page `at`. No header field is trusted before it is
/// bounded: the commit page's position is computed from `snap_bytes`.
fn read_header(
    cfg: &FtlConfig,
    nand: &mut NandArray,
    stripe: &Stripe,
    at: u32,
    buf: &mut [u8],
) -> Option<Header> {
    nand.read(stripe.ppn(at), buf).ok()?;
    if get_u32(buf, 0) != CKPT_MAGIC || get_u64(buf, 12) != cfg.logical_pages {
        return None;
    }
    // v1–v3 images left these header bytes zeroed: snap_bytes 0 decodes
    // as an empty snapshot table.
    let snap_bytes = get_u64(buf, 32);
    if snap_bytes > max_snapshot_bytes(cfg) as u64 {
        return None;
    }
    let snap_bytes = snap_bytes as usize;
    let h = Header {
        seq: get_u64(buf, 4),
        table_crc: get_u32(buf, 20),
        generation: get_u64(buf, 24),
        snap_bytes,
        snap_crc: get_u32(buf, 40),
        pages: checkpoint_pages(cfg) + snapshot_section_pages(cfg, snap_bytes),
    };
    if at + h.pages > stripe.pages() {
        return None;
    }
    // The commit page before the table: a cheap validity check. (For
    // pre-v4 images snap_pages is 0 and the commit page's byte 24 region
    // was zero, so both the position and the CRC echo match.)
    nand.read(stripe.ppn(at + h.pages - 1), buf).ok()?;
    let committed = get_u32(buf, 0) == COMMIT_MAGIC
        && get_u64(buf, 4) == h.seq
        && get_u32(buf, 12) == h.table_crc
        && get_u64(buf, 16) == h.generation
        && get_u32(buf, 24) == h.snap_crc;
    committed.then_some(h)
}

/// Read the table and snapshot section of the committed checkpoint `h`
/// at stripe page `at`, one submission each, and check their CRCs.
fn read_body(
    cfg: &FtlConfig,
    nand: &mut NandArray,
    stripe: &Stripe,
    slot: u32,
    at: u32,
    h: Header,
) -> Option<RecoveredCheckpoint> {
    let page_size = cfg.geometry.page_size;
    let read = |nand: &mut NandArray, first: u32, bytes: usize| -> Option<Vec<u8>> {
        let pages = bytes.div_ceil(page_size);
        let mut out = vec![0u8; pages * page_size];
        if pages > 0 {
            let ppns = (first..).map(|i| stripe.ppn(i));
            nand.read_batch(ppns.zip(out.chunks_mut(page_size))).ok()?;
        }
        out.truncate(bytes);
        Some(out)
    };
    let table_bytes = cfg.logical_pages as usize * 4;
    let table = read(nand, at + 1, table_bytes)?;
    if crc32c(&table) != h.table_crc {
        return None;
    }
    let snap_first = at + 1 + table_bytes.div_ceil(page_size) as u32;
    let snap = read(nand, snap_first, h.snap_bytes)?;
    if !snap.is_empty() && crc32c(&snap) != h.snap_crc {
        return None;
    }
    let l2p = table
        .chunks_exact(4)
        .map(|c| Ppn(u32::from_le_bytes(c.try_into().unwrap())))
        .collect();
    Some(RecoveredCheckpoint { slot, generation: h.generation, next_delta_seq: h.seq, l2p, snap })
}

/// The newest valid checkpoint in `slot`: walk its (at most `w`)
/// committed checkpoints from the start, then read the last one whose
/// table and snapshot section check out.
fn read_slot(cfg: &FtlConfig, nand: &mut NandArray, slot: u32) -> Option<RecoveredCheckpoint> {
    let stripe = cfg.ckpt_slot(slot);
    let mut buf = vec![0u8; cfg.geometry.page_size];
    let mut found = Vec::new();
    let mut at = 0;
    while found.len() < cfg.stripe_width() as usize {
        let Some(h) = read_header(cfg, nand, &stripe, at, &mut buf) else { break };
        let next = at + h.pages;
        found.push((at, h));
        at = next;
    }
    found.into_iter().rev().find_map(|(at, h)| read_body(cfg, nand, &stripe, slot, at, h))
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
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        ck.write(&cfg, &mut nand, 42, &l2p, &[]).unwrap();
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
        let mut ck = Checkpoints::new(&cfg);
        let old = sample_l2p(&cfg);
        let mut new = old.clone();
        new[0] = Ppn(777);
        ck.write(&cfg, &mut nand, 10, &old, &[]).unwrap();
        ck.write(&cfg, &mut nand, 20, &new, &[]).unwrap();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 1);
        assert_eq!(r.l2p[0], Ppn(777));
    }

    #[test]
    fn slots_alternate_by_erasure() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        ck.write(&cfg, &mut nand, 10, &l2p, &[]).unwrap();
        ck.write(&cfg, &mut nand, 20, &l2p, &[]).unwrap();
        ck.write(&cfg, &mut nand, 30, &l2p, &[]).unwrap(); // reuse slot 0
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.next_delta_seq, 30);
        assert_eq!(r.slot, 0);
    }

    #[test]
    fn crash_during_checkpoint_preserves_previous_snapshot() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let old = sample_l2p(&cfg);
        ck.write(&cfg, &mut nand, 10, &old, &[]).unwrap();
        // Crash while writing slot 1, before its commit page lands.
        nand.fault_handle().arm_after_programs(2, nand_sim::FaultMode::TornHalf);
        let mut new = old.clone();
        new[1] = Ppn(555);
        assert!(ck.write(&cfg, &mut nand, 20, &new, &[]).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.next_delta_seq, 10, "old snapshot must survive");
        assert_eq!(r.l2p, old);
    }

    #[test]
    fn corrupt_commit_page_invalidates_slot() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        ck.write(&cfg, &mut nand, 5, &l2p, &[]).unwrap();
        // Fault exactly on the commit page of the second checkpoint.
        let pages = checkpoint_pages(&cfg);
        nand.fault_handle().arm_after_programs(pages as u64, nand_sim::FaultMode::DroppedWrite);
        assert!(ck.write(&cfg, &mut nand, 6, &l2p, &[]).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 0);
        assert_eq!(r.next_delta_seq, 5);
    }

    #[test]
    fn checkpoint_page_count_matches_layout() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        let written = ck.write(&cfg, &mut nand, 1, &l2p, &[]).unwrap();
        assert_eq!(written, checkpoint_pages(&cfg) as u64);
    }

    #[test]
    fn generation_breaks_the_delta_seq_tie() {
        // Two checkpoints with no log flush between them carry the same
        // next_delta_seq; before generations, recovery could pick the
        // stale slot and roll back committed writes.
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let old = sample_l2p(&cfg);
        let mut new = old.clone();
        new[0] = Ppn(777);
        ck.write(&cfg, &mut nand, 10, &old, &[]).unwrap();
        ck.write(&cfg, &mut nand, 10, &new, &[]).unwrap();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 1, "the higher generation must win the seq tie");
        assert_eq!(r.generation, 1);
        assert_eq!(r.l2p[0], Ppn(777));
    }

    #[test]
    fn snapshot_section_round_trips() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        // Over a page of section bytes: exercises the multi-page path.
        let snap: Vec<u8> = (0..cfg.geometry.page_size + 100).map(|i| (i % 251) as u8).collect();
        let written = ck.write(&cfg, &mut nand, 7, &l2p, &snap).unwrap();
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
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        let written = ck.write(&cfg, &mut nand, 9, &l2p, &[]).unwrap();
        assert_eq!(written, checkpoint_pages(&cfg) as u64);
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert!(r.snap.is_empty());
        let mut header = vec![0u8; cfg.geometry.page_size];
        nand.read(cfg.ckpt_slot(0).ppn(0), &mut header).unwrap();
        assert_eq!(get_u64(&header, 32), 0, "snap_bytes field zero");
        assert_eq!(get_u32(&header, 40), 0, "snap_crc field zero");
    }

    #[test]
    fn oversized_snapshot_section_is_rejected() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        let too_big = vec![0u8; max_snapshot_bytes(&cfg) + 1];
        assert_eq!(
            ck.write(&cfg, &mut nand, 1, &l2p, &too_big),
            Err(FtlError::SnapshotTableFull)
        );
    }

    #[test]
    fn corrupt_snapshot_section_invalidates_slot() {
        let (cfg, mut nand) = setup();
        let mut ck = Checkpoints::new(&cfg);
        let l2p = sample_l2p(&cfg);
        ck.write(&cfg, &mut nand, 5, &l2p, &[]).unwrap();
        let snap = vec![0xabu8; 64];
        // Fault on the snapshot-section page of the slot-1 checkpoint
        // (header + table pages land first).
        let table_pages = checkpoint_pages(&cfg) - 2;
        nand.fault_handle()
            .arm_after_programs(1 + table_pages as u64, nand_sim::FaultMode::DroppedWrite);
        assert!(ck.write(&cfg, &mut nand, 6, &l2p, &snap).is_err());
        nand.power_cycle();
        let r = read_latest(&cfg, &mut nand).unwrap();
        assert_eq!(r.slot, 0, "torn snapshot section must not validate");
    }

    /// Four channels: each slot is four lanes wide and takes four
    /// checkpoints between erases, one after another, and recovery reads
    /// the newest of them.
    #[test]
    fn a_wide_slot_takes_w_checkpoints_per_erase() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.3, 4096, 16, NandTiming::zero())
            .with_parallelism(4, 1);
        let mut nand = NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new());
        let w = cfg.stripe_width();
        assert_eq!(w, 4);
        let mut ck = Checkpoints::new(&cfg);
        let mut l2p = sample_l2p(&cfg);
        for k in 0..2 * w + 1 {
            l2p[0] = Ppn(k);
            let erases = nand.stats().block_erases;
            ck.write(&cfg, &mut nand, 7, &l2p, &[]).unwrap();
            let erased = nand.stats().block_erases - erases;
            let first_in_slot = k / 2 % w == 0;
            let slot_erase = if first_in_slot { cfg.ckpt_slot_blocks() as u64 } else { 0 };
            assert_eq!(erased, slot_erase, "{k}");
            let r = read_latest(&cfg, &mut nand).unwrap();
            assert_eq!((r.slot, r.generation, r.l2p[0]), (k % 2, k as u64, Ppn(k)));
        }
    }

    /// A striped checkpoint costs a program time per `w` pages of its image,
    /// then one for the commit page; at one channel, an erase and one
    /// program time per page.
    #[test]
    fn a_striped_checkpoint_programs_its_pages_side_by_side() {
        for (channels, w) in [(1u64, 1u64), (4, 4)] {
            let timing = NandTiming::default();
            let cfg = FtlConfig::for_capacity_with(16 << 20, 0.3, 4096, 16, timing)
                .with_parallelism(channels as u32, 1);
            let mut nand = NandArray::with_timing(cfg.geometry, cfg.timing, SimClock::new());
            let mut ck = Checkpoints::new(&cfg);
            let l2p = sample_l2p(&cfg);
            ck.write(&cfg, &mut nand, 1, &l2p, &[]).unwrap();
            ck.write(&cfg, &mut nand, 2, &l2p, &[]).unwrap();
            // The third goes to slot 0: its second position at four
            // channels (no erase), its only one at one channel.
            let t0 = nand.now_ns();
            let pages = ck.write(&cfg, &mut nand, 3, &l2p, &[]).unwrap();
            let program = timing.program_ns + timing.xfer_ns(4096);
            let elapsed = nand.now_ns() - t0;
            let expect = match w {
                1 => timing.erase_ns + pages * program,
                _ => ((pages - 1).div_ceil(w) + 1) * program,
            };
            assert_eq!(elapsed, expect, "{channels} channels, {pages} pages");
        }
    }

    /// A header whose `snap_bytes` runs past any slot is rejected before
    /// the commit page's position is computed from it.
    #[test]
    fn a_hostile_snapshot_length_is_rejected() {
        let (cfg, mut nand) = setup();
        let mut page = vec![0u8; cfg.geometry.page_size];
        put_u32(&mut page, 0, CKPT_MAGIC);
        put_u64(&mut page, 12, cfg.logical_pages);
        put_u64(&mut page, 32, u32::MAX as u64 * 4096);
        nand.program(cfg.ckpt_slot(0).ppn(0), &page).unwrap();
        assert!(read_latest(&cfg, &mut nand).is_none());
    }
}
