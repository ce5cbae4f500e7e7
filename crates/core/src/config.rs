//! FTL configuration and on-flash layout.
//!
//! Physical blocks are partitioned into a **meta area** and a **data pool**:
//!
//! ```text
//! | ckpt slot A | ckpt slot B | pad | delta-log ring | ........ data pool ........ |
//! ```
//!
//! * The delta-log ring holds page-sized groups of mapping deltas
//!   (`(LPN, old PPN, new PPN)` — the paper's §4.2.2 "Delta" records).
//! * The two checkpoint slots alternate full snapshots of the L2P table.
//! * The ring and each slot are a [`Stripe`]: blocks on consecutive NAND
//!   units whose pages interleave over a width of `w` of them (`w` the
//!   largest divisor of `log_blocks` no larger than the unit count, one
//!   `w` for the ring and the slots), so the pages of one submission
//!   program side by side. Four blocks, `w = 4`:
//!
//! ```text
//! block:        B0   B1   B2   B3
//! page 0:        0    1    2    3     <- stripe pages, in order
//! page 1:        4    5    6    7
//! ...
//! ```
//!
//!   A slot is `w·b` blocks, `b` the blocks one checkpoint (header, table,
//!   snapshot section, commit page) needs, and takes `w` checkpoints, one
//!   after another, between two erases.
//! * The pad keeps the ring and every data block on the unit it would use
//!   with one-block-wide slots (`w = 1`): `ring start ≡ 2b (mod units)`.
//!   At one channel `w = 1`, there is no pad, and a stripe fills its first
//!   block before its second.
//! * The data pool serves host writes and GC copyback, with
//!   over-provisioning beyond the exported logical capacity.

use crate::ftl::GC_HIGH_WATER;
use crate::util::div_ceil_u64;
use nand_sim::{BlockId, NandGeometry, NandTiming};
use share_telemetry::TelemetryConfig;

/// Garbage-collection victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GcPolicy {
    /// Block with the fewest valid pages (standard, minimizes copyback).
    #[default]
    Greedy,
    /// Oldest sealed block first (simple firmware, baseline for ablation).
    Fifo,
}

/// Bytes of one serialized mapping delta: LPN (8) + old PPN (4) + new PPN (4).
pub const DELTA_BYTES: usize = 16;
/// Bytes of the delta-log / checkpoint page header (magic, seq, count, crc).
pub const META_PAGE_HEADER: usize = 32;

/// Configuration of a [`crate::Ftl`] instance.
#[derive(Debug, Clone)]
pub struct FtlConfig {
    /// NAND geometry (page size is the mapping unit).
    pub geometry: NandGeometry,
    /// NAND latency model.
    pub timing: NandTiming,
    /// Exported logical capacity in pages.
    pub logical_pages: u64,
    /// Capacity of the shared-page reverse-mapping table. The OpenSSD
    /// prototype used 250 (4 KB) or 500 (8 KB) entries (§4.2.1); a share
    /// that finds the table full is refused (`RevMapFull`). The default,
    /// `usize::MAX`, models an unbounded table.
    pub revmap_capacity: usize,
    /// GC victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Number of blocks in the delta-log ring.
    pub log_blocks: u32,
    /// Submission-queue depth: how many queued commands may be in flight
    /// (submitted, not yet reaped) at once. Synchronous commands ignore
    /// this entirely; `submit` returns `QueueFull` beyond it.
    pub queue_depth: usize,
    /// Telemetry collection settings. Counters and the per-op-class latency
    /// histograms are always on; spans are opt-in.
    /// Telemetry only reads the simulated clock, so no setting can change
    /// simulated results.
    pub telemetry: TelemetryConfig,
}

impl FtlConfig {
    /// Build a config exporting `logical_bytes` with `over_provision`
    /// (e.g. 0.15 = 15 %) spare data-pool space, 4 KiB pages, 128-page blocks.
    pub fn for_capacity(logical_bytes: u64, over_provision: f64) -> Self {
        Self::for_capacity_with(logical_bytes, over_provision, 4096, 128, NandTiming::default())
    }

    /// [`Self::for_capacity`] with explicit page size, block size, timing.
    pub fn for_capacity_with(
        logical_bytes: u64,
        over_provision: f64,
        page_size: usize,
        pages_per_block: u32,
        timing: NandTiming,
    ) -> Self {
        assert!(over_provision > 0.0, "over-provisioning must be positive");
        let logical_pages = div_ceil_u64(logical_bytes, page_size as u64);
        let data_pages = (logical_pages as f64 * (1.0 + over_provision)).ceil() as u64;
        // Slack for the two active write points and GC headroom.
        let data_blocks = div_ceil_u64(data_pages, pages_per_block as u64) as u32 + 10;
        let log_blocks = 4;
        let mut cfg = Self {
            geometry: NandGeometry::new(page_size, pages_per_block, 1),
            timing,
            logical_pages,
            revmap_capacity: usize::MAX,
            gc_policy: GcPolicy::default(),
            log_blocks,
            queue_depth: 32,
            telemetry: TelemetryConfig::default(),
        };
        let meta = 2 * cfg.ckpt_slot_blocks_for(logical_pages, page_size, pages_per_block) + log_blocks;
        cfg.geometry = NandGeometry::new(page_size, pages_per_block, meta + data_blocks);
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        cfg
    }

    /// Spread the NAND over `channels` x `ways` independently-timed units
    /// (blocks interleave across units; see [`NandGeometry::unit_of_block`]).
    /// The checkpoint slots widen to the new stripe width, and the NAND
    /// grows by the meta blocks that adds, so the data pool keeps its size
    /// and every data block its unit phase.
    pub fn with_parallelism(mut self, channels: u32, ways: u32) -> Self {
        let data_blocks = self.data_blocks();
        self.geometry = self.geometry.with_parallelism(channels, ways);
        self.geometry.blocks = self.meta_blocks() + data_blocks;
        self
    }

    /// Set the telemetry collection level.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Set the submission-queue depth (must be at least 1).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "queue depth must be at least 1");
        self.queue_depth = depth;
        self
    }

    /// Why the layout is inconsistent, if it is. The capacity and the ring
    /// are bounded by the medium before the layout is computed from them,
    /// so a config read off a damaged file is refused, never a panic.
    pub fn validate(&self) -> Result<(), String> {
        let g = &self.geometry;
        if self.logical_pages == 0 {
            return Err("logical capacity must be positive".into());
        }
        if self.log_blocks < 2 {
            return Err("need at least two log blocks".into());
        }
        if g.page_size < META_PAGE_HEADER + DELTA_BYTES {
            return Err("page too small for delta records".into());
        }
        if self.logical_pages > g.total_pages() as u64 || self.log_blocks >= g.blocks {
            return Err(format!(
                "{} logical pages and {} log blocks do not fit {} blocks of {} pages",
                self.logical_pages, self.log_blocks, g.blocks, g.pages_per_block
            ));
        }
        let ppb = g.pages_per_block as u64;
        let pool = (g.blocks as u64).saturating_sub(self.meta_blocks() as u64) * ppb;
        if pool <= self.logical_pages + (GC_HIGH_WATER as u64 + 2) * ppb {
            return Err("data pool too small for logical capacity plus GC headroom".into());
        }
        Ok(())
    }

    /// Mapping deltas that fit one meta page — the atomic SHARE batch limit.
    #[inline]
    pub fn deltas_per_page(&self) -> usize {
        (self.geometry.page_size - META_PAGE_HEADER) / DELTA_BYTES
    }

    fn ckpt_slot_blocks_for(&self, logical_pages: u64, page_size: usize, ppb: u32) -> u32 {
        // Header page + table pages + commit page.
        let table_pages = div_ceil_u64(logical_pages * 4, page_size as u64);
        div_ceil_u64(table_pages + 2, ppb as u64) as u32
    }

    /// Stripe width of the ring and the checkpoint slots: the largest
    /// divisor of `log_blocks` that is at most the unit count.
    pub fn stripe_width(&self) -> u32 {
        let (blocks, units) = (self.log_blocks, self.geometry.units());
        (1..=blocks.min(units)).rev().find(|w| blocks % w == 0).unwrap_or(1)
    }

    /// Blocks one checkpoint may fill (its page budget). A slot is
    /// `stripe_width()` lanes of this many blocks.
    pub fn ckpt_lane_blocks(&self) -> u32 {
        self.ckpt_slot_blocks_for(self.logical_pages, self.geometry.page_size, self.geometry.pages_per_block)
    }

    /// Blocks per checkpoint slot.
    pub fn ckpt_slot_blocks(&self) -> u32 {
        self.stripe_width() * self.ckpt_lane_blocks()
    }

    /// Checkpoint slot `slot` (0 or 1).
    pub fn ckpt_slot(&self, slot: u32) -> Stripe {
        debug_assert!(slot < 2);
        let blocks = self.ckpt_slot_blocks();
        self.stripe(BlockId(slot * blocks), blocks)
    }

    /// The delta-log ring.
    pub fn log_ring(&self) -> Stripe {
        self.stripe(self.log_ring_start(), self.log_blocks)
    }

    fn stripe(&self, start: BlockId, blocks: u32) -> Stripe {
        let (width, pages_per_block) = (self.stripe_width(), self.geometry.pages_per_block);
        Stripe { start, blocks, width, pages_per_block }
    }

    /// First block of the delta-log ring: after the slots and the pad that
    /// keeps it on the unit one-block-wide slots would give it.
    pub fn log_ring_start(&self) -> BlockId {
        let units = self.geometry.units();
        let slots = 2 * self.ckpt_slot_blocks();
        let pad = (units - (slots - 2 * self.ckpt_lane_blocks()) % units) % units;
        BlockId(slots + pad)
    }

    /// Total meta-area blocks (checkpoints, pad, log ring).
    pub fn meta_blocks(&self) -> u32 {
        self.log_ring_start().0 + self.log_blocks
    }

    /// First data-pool block.
    pub fn data_start(&self) -> BlockId {
        BlockId(self.meta_blocks())
    }

    /// Number of data-pool blocks.
    pub fn data_blocks(&self) -> u32 {
        self.geometry.blocks - self.meta_blocks()
    }

    /// Exported logical capacity in bytes.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_pages * self.geometry.page_size as u64
    }
}

/// Blocks on consecutive NAND units whose pages interleave: page `i` of
/// the stripe lies in block `start + i / (w·ppb) · w + i % w`, at page
/// `i % (w·ppb) / w`. Consecutive pages land on `w` different units, and a
/// block's pages fill in order; at `w = 1` the layout is block-major.
#[derive(Debug, Clone, Copy)]
pub struct Stripe {
    start: BlockId,
    /// Blocks in the stripe, a multiple of `width`.
    blocks: u32,
    width: u32,
    pages_per_block: u32,
}

impl Stripe {
    /// The physical page of stripe page `i`.
    pub fn ppn(&self, i: u32) -> nand_sim::Ppn {
        let stripe_pages = self.width * self.pages_per_block;
        let block = self.start.0 + i / stripe_pages * self.width + i % self.width;
        nand_sim::Ppn(block * self.pages_per_block + i % stripe_pages / self.width)
    }

    /// Blocks whose pages interleave: what one submission programs side
    /// by side.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Pages in the stripe.
    pub fn pages(&self) -> u32 {
        self.blocks * self.pages_per_block
    }

    /// The stripe's blocks, for erasing it in one submission.
    pub fn block_ids(&self) -> Vec<BlockId> {
        (self.start.0..self.start.0 + self.blocks).map(BlockId).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_builder_lays_out_regions() {
        let cfg = FtlConfig::for_capacity(64 << 20, 0.15); // 64 MiB logical
        assert_eq!(cfg.logical_pages, (64 << 20) / 4096);
        let slot = cfg.ckpt_slot_blocks();
        assert!(slot >= 1);
        let ppb = cfg.geometry.pages_per_block;
        assert_eq!(cfg.ckpt_slot(0).ppn(0), nand_sim::Ppn(0));
        assert_eq!(cfg.ckpt_slot(1).ppn(0), nand_sim::Ppn(slot * ppb));
        assert_eq!(cfg.log_ring_start(), BlockId(2 * slot));
        assert_eq!(cfg.data_start().0, cfg.meta_blocks());
        assert!(cfg.data_blocks() > 0);
        let data_pages = cfg.data_blocks() as u64 * cfg.geometry.pages_per_block as u64;
        assert!(data_pages as f64 > 1.15 * cfg.logical_pages as f64);
    }

    #[test]
    fn deltas_per_page_matches_layout_constants() {
        let cfg = FtlConfig::for_capacity(16 << 20, 0.2);
        assert_eq!(cfg.deltas_per_page(), (4096 - META_PAGE_HEADER) / DELTA_BYTES);
        assert_eq!(cfg.deltas_per_page(), 254);
    }

    #[test]
    fn page_size_scales_batch_limit() {
        let cfg = FtlConfig::for_capacity_with(16 << 20, 0.2, 8192, 128, NandTiming::zero());
        assert_eq!(cfg.deltas_per_page(), (8192 - META_PAGE_HEADER) / DELTA_BYTES);
    }

    #[test]
    fn over_provision_grows_data_pool() {
        let lean = FtlConfig::for_capacity(32 << 20, 0.07);
        let fat = FtlConfig::for_capacity(32 << 20, 0.30);
        assert!(fat.data_blocks() > lean.data_blocks());
        assert_eq!(lean.logical_pages, fat.logical_pages);
    }

    #[test]
    fn checkpoint_slot_fits_whole_table() {
        let cfg = FtlConfig::for_capacity(128 << 20, 0.1);
        let table_bytes = cfg.logical_pages * 4;
        let slot_bytes = cfg.ckpt_slot_blocks() as u64
            * cfg.geometry.pages_per_block as u64
            * cfg.geometry.page_size as u64;
        assert!(slot_bytes >= table_bytes + 2 * cfg.geometry.page_size as u64);
    }

    /// More units widen the slots to the ring's stripe and pad the meta
    /// area; the data pool keeps its size, and the ring and every data
    /// block keep the unit one-block-wide slots would give them.
    #[test]
    fn parallelism_widens_the_slots_and_keeps_the_data_phase() {
        let one = FtlConfig::for_capacity(64 << 20, 0.15);
        let b = one.ckpt_lane_blocks();
        for (channels, w) in [(1, 1), (2, 2), (3, 2), (4, 4), (8, 4)] {
            let cfg = one.clone().with_parallelism(channels, 1);
            assert_eq!(cfg.stripe_width(), w, "{channels} channels");
            assert_eq!(cfg.ckpt_slot_blocks(), w * b);
            assert_eq!(cfg.data_blocks(), one.data_blocks(), "{channels} channels");
            assert_eq!(cfg.log_ring_start().0 % channels, 2 * b % channels);
            assert_eq!(cfg.data_start().0 % channels, one.data_start().0 % channels);
            assert!(cfg.log_ring_start().0 - 2 * w * b < channels, "pad under one unit round");
            // The slots, the pad and the ring do not overlap.
            let slot_end = cfg.ckpt_slot(1).block_ids().last().unwrap().0;
            assert!(slot_end < cfg.log_ring_start().0);
            cfg.validate().unwrap();
        }
        assert_eq!(one.with_parallelism(1, 1).meta_blocks(), 2 * b + 4, "one channel: no pad");
    }

    #[test]
    fn a_stripe_interleaves_its_pages_over_its_width() {
        let cfg = FtlConfig::for_capacity_with(1 << 20, 0.3, 512, 8, NandTiming::zero())
            .with_parallelism(4, 1);
        let ring = cfg.log_ring();
        let start = cfg.log_ring_start().0;
        let g = cfg.geometry;
        let at = |i: u32| (g.block_of(ring.ppn(i)).0 - start, g.page_in_block(ring.ppn(i)));
        assert_eq!([at(0), at(1), at(3), at(4), at(31)], [(0, 0), (1, 0), (3, 0), (0, 1), (3, 7)]);
        assert_eq!(ring.pages(), 32);
    }
}
